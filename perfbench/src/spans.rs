//! The benchmark's own span recorder: wall-clock spans around calls into
//! the library's public functions, each with its parent, kept in memory and
//! written out once the traced run ends.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (a metric stem such as `phy.acquire` or `net.round`).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// The span is, or lies under, a [`PROBE`] span.
    pub probe: bool,
}

/// Root span name for off-path probes: calls that measure a layer the
/// workload's own operation does not run, on the workload's own scenario.
pub const PROBE: &str = "probe";

/// An in-memory span tree.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
        }
    }

    /// Opens a span named `name` nested under the innermost open span and
    /// returns its id for [`Self::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let probe = name == PROBE || parent.is_some_and(|p| self.spans[p].probe);
        self.spans.push(Span {
            name,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            probe,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let end = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].dur_ns = end - self.spans[id].start_ns;
    }

    /// Runs `f` inside a span named `name`. `f` gets the tracer back so it
    /// can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let r = f(self);
        self.exit(id);
        r
    }

    /// All spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn named<'a>(&'a self, name: &'a str, probe: bool) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.probe == probe)
    }

    /// Durations of the spans named `name`, in microseconds, from the
    /// workload's own operation (`probe == false`) or from probes.
    pub fn durations_us(&self, name: &str, probe: bool) -> Vec<f64> {
        self.named(name, probe)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// Total nanoseconds of the spans named `name` (see [`Self::durations_us`]).
    pub fn total_ns(&self, name: &str, probe: bool) -> u64 {
        self.named(name, probe).map(|s| s.dur_ns).sum()
    }

    /// For every span named `parent`: its direct children's total
    /// nanoseconds by child name (first-appearance order), and the parents'
    /// own total.
    pub fn parts_of(&self, parent: &str) -> (u64, Vec<(&'static str, u64)>) {
        let mut whole = 0;
        let mut parts: Vec<(&'static str, u64)> = Vec::new();
        for s in &self.spans {
            if s.name == parent {
                whole += s.dur_ns;
            }
            let Some(p) = s.parent else { continue };
            if self.spans[p].name != parent {
                continue;
            }
            match parts.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, ns)) => *ns += s.dur_ns,
                None => parts.push((s.name, s.dur_ns)),
            }
        }
        (whole, parts)
    }

    /// The spans as a Chrome Trace Event document (`chrome://tracing`,
    /// Perfetto), with each span's parent and self time in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut self_ns = vec![0u64; self.spans.len()];
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            self_ns[i] = s.dur_ns.saturating_sub(child_ns[i]);
        }
        let mut out = String::with_capacity(self.spans.len() * 128 + 32);
        out.push_str("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}{}\n",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                self_ns[i] as f64 / 1e3,
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_attribute_self_time() {
        let mut tr = Tracer::new();
        tr.span("whole", |tr| {
            tr.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("b", |tr| tr.span("b.inner", |_| ()));
            tr.span("a", |_| ());
        });
        let s = tr.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(tr.durations_us("a", false).len(), 2);
        assert!(tr.durations_us("a", true).is_empty());
        let (whole, parts) = tr.parts_of("whole");
        assert_eq!(whole, s[0].dur_ns);
        let names: Vec<_> = parts.iter().map(|p| p.0).collect();
        assert_eq!(
            names,
            ["a", "b"],
            "direct children only, first-appearance order"
        );
        let sum: u64 = parts.iter().map(|p| p.1).sum();
        assert!(sum <= whole);
        assert!(tr.durations_us("a", false)[0] >= 2_000.0);
        tr.span(PROBE, |tr| tr.span("a", |_| ()));
        assert_eq!(tr.durations_us("a", true).len(), 1);
        assert_eq!(tr.durations_us("a", false).len(), 2);
        let doc = uwb::obs::json::parse(&tr.to_chrome_json()).expect("valid JSON");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(|e| e.as_arr())
                .map(<[_]>::len),
            Some(7)
        );
    }
}
