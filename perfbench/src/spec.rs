//! Reading the benchmark's declared contract (`BENCHMARK.json`) and its
//! stored reference fingerprints (`fingerprints.json`) with the
//! repository's own JSON parser.

use std::collections::BTreeMap;
use uwb::obs::json::{self, Json};

/// Repository root `BENCHMARK.json`, located from this package's manifest
/// so the benchmark finds it from any working directory.
pub const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Stored reference fingerprints, next to this package's manifest.
pub const FINGERPRINTS_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fingerprints.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark checks itself against.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics printed by an untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics printed by a traced run.
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing key `{key}`"))
}

fn string(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn metrics(doc: &Json, key: &str, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    let arr = field(doc, key)?
        .as_arr()
        .ok_or_else(|| format!("`{key}` is not an array"))?;
    arr.iter()
        .map(|m| {
            let better = string(m, "better")?;
            if better != "higher" && better != "lower" {
                return Err(format!("`better` must be higher or lower, not {better}"));
            }
            let bound = if bounded {
                let b = field(m, "bound")?
                    .as_num()
                    .ok_or_else(|| "`bound` is not a number".to_string())?;
                if !(b > 0.0 && b <= 0.25) {
                    return Err(format!("bound {b} outside (0, 0.25]"));
                }
                Some(b)
            } else {
                None
            };
            Ok(MetricSpec {
                name: string(m, "name")?,
                unit: string(m, "unit")?,
                bound,
            })
        })
        .collect()
}

/// Parses the text of a `BENCHMARK.json`.
pub fn parse_bench_spec(text: &str) -> Result<BenchSpec, String> {
    let doc = json::parse(text)?;
    let workloads = field(&doc, "workloads")?
        .as_arr()
        .ok_or("`workloads` is not an array")?
        .iter()
        .map(|w| string(w, "name"))
        .collect::<Result<Vec<_>, _>>()?;
    field(&doc, "run_seconds")?
        .as_num()
        .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
        .ok_or("`run_seconds` is not a whole number in 1..=60")?;
    Ok(BenchSpec {
        workloads,
        end_to_end: metrics(&doc, "end_to_end", true)?,
        per_layer: metrics(&doc, "per_layer", false)?,
    })
}

/// Reads and parses the repository's `BENCHMARK.json`.
pub fn load_bench_spec() -> Result<BenchSpec, String> {
    let text = std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| format!("cannot read {BENCHMARK_JSON}: {e}"))?;
    parse_bench_spec(&text).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))
}

/// Reference fingerprints: workload → seed → fingerprint of the workload's
/// first operation at that seed.
pub type Fingerprints = BTreeMap<String, BTreeMap<u64, String>>;

/// Parses the text of `fingerprints.json`.
pub fn parse_fingerprints(text: &str) -> Result<Fingerprints, String> {
    let doc = json::parse(text)?;
    let mut out = Fingerprints::new();
    let workloads = field(&doc, "workloads")?
        .as_obj()
        .ok_or("`workloads` is not an object")?;
    for (workload, seeds) in workloads {
        let seeds = seeds
            .as_obj()
            .ok_or_else(|| format!("`{workload}` is not an object"))?;
        let mut per_seed = BTreeMap::new();
        for (seed, fp) in seeds {
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("`{workload}`: seed key `{seed}` is not an integer"))?;
            let fp = fp
                .as_str()
                .ok_or_else(|| format!("`{workload}`/{seed}: fingerprint is not a string"))?;
            per_seed.insert(seed, fp.to_string());
        }
        out.insert(workload.clone(), per_seed);
    }
    Ok(out)
}

/// Reads the stored fingerprints; a missing file means no references.
pub fn load_fingerprints() -> Result<Fingerprints, String> {
    match std::fs::read_to_string(FINGERPRINTS_JSON) {
        Ok(text) => parse_fingerprints(&text).map_err(|e| format!("{FINGERPRINTS_JSON}: {e}")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Fingerprints::new()),
        Err(e) => Err(format!("cannot read {FINGERPRINTS_JSON}: {e}")),
    }
}

/// Renders fingerprints in the layout [`parse_fingerprints`] reads.
pub fn render_fingerprints(fps: &Fingerprints) -> String {
    let mut s =
        String::from("{\n  \"schema\": \"perfbench-fingerprints-v1\",\n  \"workloads\": {\n");
    for (wi, (workload, seeds)) in fps.iter().enumerate() {
        s.push_str(&format!("    {}: {{\n", json::escape(workload)));
        for (si, (seed, fp)) in seeds.iter().enumerate() {
            let comma = if si + 1 == seeds.len() { "" } else { "," };
            s.push_str(&format!("      \"{seed}\": {}{comma}\n", json::escape(fp)));
        }
        let comma = if wi + 1 == fps.len() { "" } else { "," };
        s.push_str(&format!("    }}{comma}\n"));
    }
    s.push_str("  }\n}\n");
    s
}

/// How an operation's fingerprint compares with the stored reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reference {
    /// The stored reference matches.
    Match,
    /// No reference is stored for this workload and seed; thread parity is
    /// the only check.
    Absent,
    /// The stored reference differs.
    Mismatch {
        /// The stored fingerprint.
        expected: String,
    },
}

/// Compares `fingerprint` with the stored reference for `(workload, seed)`.
pub fn check_reference(
    fps: &Fingerprints,
    workload: &str,
    seed: u64,
    fingerprint: &str,
) -> Reference {
    match fps.get(workload).and_then(|m| m.get(&seed)) {
        None => Reference::Absent,
        Some(expected) if expected == fingerprint => Reference::Match,
        Some(expected) => Reference::Mismatch {
            expected: expected.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
      "command": ["cargo", "run"],
      "paths": ["perfbench"],
      "run_seconds": 10,
      "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
      "end_to_end": [
        {"name": "frames_per_ref_s", "unit": "frames/ref-s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
      ],
      "per_layer": [{"name": "sim.awgn_us.p50", "unit": "us", "better": "lower"}]
    }"#;

    #[test]
    fn reads_benchmark_json() {
        let spec = parse_bench_spec(SPEC).expect("valid spec");
        assert_eq!(spec.workloads, ["a", "b"]);
        assert_eq!(spec.end_to_end.len(), 2);
        assert_eq!(spec.end_to_end[1].bound, Some(0.25));
        assert_eq!(spec.per_layer[0].name, "sim.awgn_us.p50");
        assert_eq!(spec.per_layer[0].bound, None);
    }

    #[test]
    fn rejects_malformed_benchmark_json() {
        assert!(parse_bench_spec(&SPEC.replace("\"bound\": 0.1", "\"bound\": 0.5")).is_err());
        assert!(parse_bench_spec(&SPEC.replace("\"higher\"", "\"up\"")).is_err());
        assert!(
            parse_bench_spec(&SPEC.replace("\"run_seconds\": 10", "\"run_seconds\": 2.5")).is_err()
        );
        assert!(parse_bench_spec("{").is_err());
    }

    #[test]
    fn the_repository_benchmark_json_parses() {
        let spec = load_bench_spec().expect("BENCHMARK.json parses");
        assert_eq!(spec.workloads, crate::workloads::NAMES);
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn fingerprints_round_trip_and_compare() {
        let mut fps = Fingerprints::new();
        fps.entry("w".into())
            .or_default()
            .insert(3, "bits=1,\"q\"".into());
        fps.entry("w".into())
            .or_default()
            .insert(10, "bits=2".into());
        let back = parse_fingerprints(&render_fingerprints(&fps)).expect("round trip");
        assert_eq!(back, fps);
        assert_eq!(
            check_reference(&back, "w", 3, "bits=1,\"q\""),
            Reference::Match
        );
        assert_eq!(check_reference(&back, "w", 4, "bits=1"), Reference::Absent);
        assert_eq!(check_reference(&back, "v", 3, "bits=1"), Reference::Absent);
        assert_eq!(
            check_reference(&back, "w", 10, "bits=3"),
            Reference::Mismatch {
                expected: "bits=2".into()
            }
        );
    }

    #[test]
    fn stored_fingerprints_parse() {
        let fps = load_fingerprints().expect("fingerprints.json parses");
        for workload in fps.keys() {
            assert!(
                crate::workloads::NAMES.contains(&workload.as_str()),
                "{workload}"
            );
        }
    }
}
