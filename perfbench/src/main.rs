//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> --repeat <N>
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --record-fingerprints <seeds>
//! ```
//!
//! An untraced run (`--trace 0`) sets the workload up, checks the first
//! operation against its stored reference fingerprint and against a
//! one-thread run of the same inputs, then repeats set-up and operation at
//! `available_parallelism` engine threads for `--seconds` and reports the
//! end-to-end metrics, scaled by the host's reference speed. A
//! traced run (`--trace 1`) replays the same inputs on one thread with the
//! benchmark's own spans around each public call and reports the per-layer
//! metrics. The last line of standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `perfbench/README.md`.

mod refspeed;
mod spans;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use workloads::{Kind, OpResult, Prepared};

/// Set-up samples a run takes at least; `setup_s` is their median.
const MIN_SETUPS: usize = 5;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The outcome of a run: correctness verdict, operation counts, metrics.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// All checks passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not complete with a correct result.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: Vec<Metric>,
}

/// Renders the final result line.
fn result_json(r: &RunReport) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                uwb::obs::json::escape(&m.name),
                m.value,
                uwb::obs::json::escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Heap bytes currently allocated, and the most ever allocated at once.
static HEAP_NOW: AtomicUsize = AtomicUsize::new(0);
static HEAP_PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live heap bytes. Peak heap is the memory
/// metric because the process's resident set on the small workloads is
/// dominated by allocator arenas and thread stacks, which varied by a fifth
/// between runs of the same code. It is a per-layer metric, not an
/// end-to-end one: buffers grow by doubling, so the peak jumps between two
/// values from one seed to the next (5.1 or 6.5 MiB on `link_ber_cm3`).
struct CountingAlloc;

fn heap_grew(by: usize) {
    let now = HEAP_NOW.fetch_add(by, Ordering::Relaxed) + by;
    HEAP_PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics and never influence an allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            heap_grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            heap_grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        HEAP_NOW.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            HEAP_NOW.fetch_sub(layout.size(), Ordering::Relaxed);
            heap_grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The most heap this process has held at once, in MiB.
pub fn peak_heap_mb() -> f64 {
    HEAP_PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Engine threads the measured operations use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs an operation, turning a panic into an error.
pub fn guarded_op(prep: &mut Prepared, threads: usize) -> Result<OpResult, String> {
    catch_unwind(AssertUnwindSafe(|| workloads::run_op(prep, threads)))
        .map_err(|_| format!("operation panicked at {threads} thread(s)"))
}

/// Checks the first operation of a run: self-consistency, the stored
/// reference for this seed, and equality with a one-thread run of the same
/// inputs. Returns the one-thread result for callers that time it.
pub fn check_first_op(
    kind: Kind,
    seed: u64,
    prep: &mut Prepared,
    first: &OpResult,
) -> Result<OpResult, String> {
    if !first.violations.is_empty() {
        return Err(format!(
            "inconsistent result: {}",
            first.violations.join("; ")
        ));
    }
    let fps = spec::load_fingerprints()?;
    match spec::check_reference(&fps, kind.name(), seed, &first.fingerprint) {
        spec::Reference::Match => eprintln!("perfbench: fingerprint matches the stored reference"),
        spec::Reference::Absent => {
            eprintln!("perfbench: no stored reference for seed {seed}; thread parity is the check")
        }
        spec::Reference::Mismatch { expected } => {
            return Err(format!(
                "fingerprint mismatch at seed {seed}:\n  expected {expected}\n  got      {}",
                first.fingerprint
            ))
        }
    }
    let one = guarded_op(prep, 1)?;
    if one.fingerprint != first.fingerprint {
        return Err(format!(
            "thread parity broken: 1 thread gave {}, {} threads gave {}",
            one.fingerprint,
            nproc(),
            first.fingerprint
        ));
    }
    Ok(one)
}

/// One timed set-up.
fn timed_setup(kind: Kind, seed: u64) -> Result<(f64, Prepared), String> {
    let t0 = Instant::now();
    let prep =
        catch_unwind(|| workloads::setup(kind, seed)).map_err(|_| "set-up panicked".to_string())?;
    Ok((t0.elapsed().as_secs_f64(), prep))
}

/// The untraced run: end-to-end metrics.
///
/// Set-up is timed once before the first operation and again (discarding
/// the result) before every measured operation, so its median samples the
/// whole run rather than one moment of it. Between each set-up and its
/// operation the host's reference speed is sampled (see `refspeed`), and
/// both metrics are scaled by the run's median speed: `frames_per_ref_s`
/// is the median over the measured operations of frames per host second
/// divided by it, `setup_s` the median set-up time multiplied by it.
fn run_untraced(kind: Kind, seed: u64, seconds: f64) -> RunReport {
    let threads = nproc();
    let (t, mut prep) = match timed_setup(kind, seed) {
        Ok(v) => v,
        Err(e) => return failed_report(&e, 1),
    };
    let mut raw_setups = vec![t];
    let mut speeds = vec![refspeed::reference_speed(threads)];
    // The first operation warms lazily built state (FFT plans, pools) and
    // is the one checked against the reference and the one-thread run.
    let first = match guarded_op(&mut prep, threads) {
        Ok(r) => r,
        Err(e) => return failed_report(&e, 1),
    };
    if let Err(e) = check_first_op(kind, seed, &mut prep, &first) {
        return failed_report(&e, 1);
    }

    let mut ops: Vec<OpResult> = Vec::new();
    let t0 = Instant::now();
    while ops.is_empty() || t0.elapsed().as_secs_f64() < seconds || raw_setups.len() < MIN_SETUPS {
        match timed_setup(kind, seed) {
            Ok((t, _)) => raw_setups.push(t),
            Err(e) => return failed_report(&e, ops.len() as u64 + 1),
        }
        speeds.push(refspeed::reference_speed(threads));
        if !ops.is_empty() && t0.elapsed().as_secs_f64() >= seconds {
            continue;
        }
        let r = match guarded_op(&mut prep, threads) {
            Ok(r) => r,
            Err(e) => return failed_report(&e, ops.len() as u64 + 1),
        };
        if r.fingerprint != first.fingerprint {
            let msg = format!(
                "operation {} diverged: {} vs {}",
                ops.len(),
                r.fingerprint,
                first.fingerprint
            );
            return failed_report(&msg, ops.len() as u64 + 1);
        }
        ops.push(r);
    }
    let rates: Vec<f64> = ops.iter().map(|r| r.frames as f64 / r.wall_s).collect();
    let speed = stats::median(&speeds);
    eprintln!(
        "perfbench: {} ops × {} frames at {threads} threads; host frames/s per op: median {:.1}, \
         iqr/median {:.3}; reference speed: median {speed:.3} over {} samples; \
         host set-up: median {:.6} s",
        ops.len(),
        first.frames,
        stats::median(&rates),
        if rates.len() >= 2 {
            stats::iqr_share(&rates)
        } else {
            0.0
        },
        speeds.len(),
        stats::median(&raw_setups),
    );
    RunReport {
        correct: true,
        attempted: ops.len() as u64,
        failed: 0,
        metrics: vec![
            Metric::new(
                "frames_per_ref_s",
                stats::median(&rates) / speed,
                "frames/ref-s",
            ),
            Metric::new("setup_s", stats::median(&raw_setups) * speed, "s"),
        ],
    }
}

/// A run that failed a check: every attempted operation counts as failed.
pub fn failed_report(msg: &str, attempted: u64) -> RunReport {
    eprintln!("perfbench: FAILED: {msg}");
    RunReport {
        correct: false,
        attempted: attempted.max(1),
        failed: attempted.max(1),
        metrics: Vec::new(),
    }
}

/// Checks a finished report against the metric set `BENCHMARK.json`
/// declares for this mode.
fn check_declared(report: &RunReport, trace: bool) -> Result<(), String> {
    let spec = spec::load_bench_spec()?;
    let declared = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for m in declared {
        match report.metrics.iter().find(|r| r.name == m.name) {
            None => return Err(format!("metric `{}` declared but not measured", m.name)),
            Some(r) if r.unit != m.unit => {
                return Err(format!(
                    "metric `{}`: unit {} measured, {} declared",
                    m.name, r.unit, m.unit
                ))
            }
            Some(r) if !r.value.is_finite() => {
                return Err(format!("metric `{}` is not finite", m.name))
            }
            Some(_) => {}
        }
    }
    for r in &report.metrics {
        if !declared.iter().any(|m| m.name == r.name) {
            return Err(format!("metric `{}` measured but not declared", r.name));
        }
    }
    Ok(())
}

/// Command-line arguments.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    record: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        repeat: None,
        record: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let val = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag {
            "--workload" => a.workload = Some(val.clone()),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            "--repeat" => a.repeat = Some(val.parse().map_err(|_| bad())?),
            "--record-fingerprints" => a.record = Some(val.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag}")),
        }
        i += 2;
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Repeat mode: runs one workload `n` times as child processes on seeds
/// `seed, seed+1, …` and prints each metric's median and interquartile
/// spread against its declared bound.
fn repeat(args: &Args, kind: Kind, n: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: Vec<(String, Vec<f64>)> = Vec::new();
    for i in 0..n {
        let seed = args.seed + i as u64;
        let out = Command::new(&exe)
            .args(["--workload", kind.name(), "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let doc = uwb::obs::json::parse(last)
            .map_err(|e| format!("seed {seed}: bad result line: {e}"))?;
        if !out.status.success() || doc.get("correct").and_then(|c| c.as_bool()) != Some(true) {
            return Err(format!(
                "seed {seed}: run failed\n{}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        for (name, m) in doc.get("metrics").and_then(|m| m.as_obj()).unwrap_or(&[]) {
            let v = m.get("value").and_then(|v| v.as_num()).unwrap_or(f64::NAN);
            match values.iter_mut().find(|(k, _)| k == name) {
                Some((_, vs)) => vs.push(v),
                None => values.push((name.clone(), vec![v])),
            }
        }
        eprintln!("perfbench: repeat {}/{n}: {last}", i + 1);
    }
    let spec = spec::load_bench_spec()?;
    println!(
        "{:<44} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "median", "q1", "q3", "iqr/med", "bound"
    );
    for (name, vs) in &values {
        let bound = spec
            .end_to_end
            .iter()
            .find(|m| &m.name == name)
            .and_then(|m| m.bound);
        let (q1, q3) = if vs.len() >= 2 {
            stats::quartiles(vs)
        } else {
            (vs[0], vs[0])
        };
        let med = stats::median(vs);
        let share = (q3 - q1) / med.abs();
        println!(
            "{name:<44} {med:>14.6} {q1:>14.6} {q3:>14.6} {share:>8.4} {:>6}",
            bound.map_or("-".to_string(), |b| format!("{b}"))
        );
    }
    Ok(())
}

/// Record mode: prints `fingerprints.json` content for seeds `0..n` of
/// every workload (first operation, `available_parallelism` threads,
/// checked against a one-thread run).
fn record(n: u64) -> Result<(), String> {
    let mut fps = spec::Fingerprints::new();
    for name in workloads::NAMES {
        let kind = Kind::from_name(name).expect("known workload");
        for seed in 0..n {
            let mut prep = workloads::setup(kind, seed);
            let first = guarded_op(&mut prep, nproc())?;
            let one = guarded_op(&mut prep, 1)?;
            if one.fingerprint != first.fingerprint || !first.violations.is_empty() {
                return Err(format!("{name} seed {seed}: parity or consistency failure"));
            }
            eprintln!("perfbench: {name} seed {seed}: {}", first.fingerprint);
            fps.entry(name.to_string())
                .or_default()
                .insert(seed, first.fingerprint);
        }
    }
    print!("{}", spec::render_fingerprints(&fps));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The engine reads these; the benchmark sets thread counts explicitly
    // and runs the library's default batch width.
    std::env::remove_var("UWB_BATCH");
    std::env::remove_var("UWB_THREADS");
    if let Some(n) = args.record {
        return match record(n) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(kind) = args.workload.as_deref().and_then(Kind::from_name) else {
        eprintln!(
            "perfbench: --workload must be one of {}",
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    if let Some(n) = args.repeat {
        return match repeat(&args, kind, n) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut report = if args.trace {
        trace::run_traced(kind, args.seed, args.seconds)
    } else {
        run_untraced(kind, args.seed, args.seconds)
    };
    if report.correct {
        if let Err(e) = check_declared(&report, args.trace) {
            report = failed_report(&e, report.attempted);
        }
    }
    println!("{}", result_json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
