//! Shared plumbing for the *tracked* benchmark binaries (`dspbench`,
//! `netbench`, `macbench`): the command-line parser, timing, the flat
//! `"name": number` JSON convention, and the baseline regression checker
//! behind `scripts/check.sh bench` / `net` / `mac`.
//!
//! Every tracked report uses a flat schema on purpose — each metric is a
//! single `"name": number` pair at some nesting depth and names are unique
//! within a report. The checker parses reports with the strict in-repo
//! parser ([`uwb_obs::json`]) and rejects a report that does not parse or
//! repeats a metric name, so no gated metric can drop out unnoticed.
//! Binaries declare how each metric is judged via a [`MetricPolicy`]
//! lookup instead of hard-coding key lists in the checker.

use std::process::ExitCode;
use std::time::Instant;
use uwb_obs::json::{self, Json};

/// The options every tracked binary takes:
/// `[--out PATH] [--check BASELINE [--tol PCT]] [--<count> N]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Where to write the JSON report.
    pub out: Option<String>,
    /// Baseline report to check the run against.
    pub check: Option<String>,
    /// Regression tolerance of the check, in percent (default 15).
    pub tol_pct: f64,
    /// The binary's run length (`--trials` / `--rounds`).
    pub count: u64,
}

/// Parses the tracked-binary options. `count_flag` names the run-length
/// option (`"--trials"`, `"--rounds"`) and `default_count` its default.
/// A flag without a value, a value that does not parse (`--tol` takes a
/// finite percentage ≥ 0, the count an integer ≥ 1), `--tol` without
/// `--check`, and an unknown argument are all errors — never a silent
/// fallback to a default.
pub fn parse_args<S: AsRef<str>>(
    args: &[S],
    count_flag: &str,
    default_count: u64,
) -> Result<BenchArgs, String> {
    let mut parsed = BenchArgs {
        out: None,
        check: None,
        tol_pct: 15.0,
        count: default_count,
    };
    let mut tol_given = false;
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(flag) = it.next() {
        let known = matches!(flag, "--out" | "--check" | "--tol") || flag == count_flag;
        if !known {
            return Err(format!("unknown argument {flag}"));
        }
        let value = match it.next() {
            Some(v) if !v.starts_with("--") => v,
            _ => return Err(format!("{flag} needs a value")),
        };
        match flag {
            "--out" => parsed.out = Some(value.to_string()),
            "--check" => parsed.check = Some(value.to_string()),
            "--tol" => {
                parsed.tol_pct = value
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| format!("--tol {value}: not a percentage"))?;
                tol_given = true;
            }
            _ => {
                parsed.count = value
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("{flag} {value}: not a positive integer"))?;
            }
        }
    }
    if tol_given && parsed.check.is_none() {
        return Err("--tol only applies with --check".into());
    }
    Ok(parsed)
}

/// [`parse_args`] for a binary's `main` (pass `std::env::args().skip(1)`).
/// On an error, prints it with the usage line to stderr and returns exit
/// code 2 for `main` to return.
pub fn bench_args(
    tool: &str,
    args: impl IntoIterator<Item = String>,
    count_flag: &str,
    default_count: u64,
) -> Result<BenchArgs, ExitCode> {
    let args: Vec<String> = args.into_iter().collect();
    parse_args(&args, count_flag, default_count).map_err(|e| {
        eprintln!(
            "{tool}: {e}\nusage: {tool} [--out PATH] [--check BASELINE [--tol PCT]] [{count_flag} N]"
        );
        ExitCode::from(2)
    })
}

/// Times `f` for `iters` calls, repeated `reps` times; returns the *best*
/// per-call time in microseconds (minimum is the standard noise-robust
/// statistic for micro-benchmarks: all noise is additive).
///
/// The first call runs outside the timed region as warm-up, populating
/// caches (FFT plans, scratch pools, allocator high-water marks).
pub fn time_us<F: FnMut()>(iters: usize, reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        for _ in 0..iters.max(1) {
            f();
        }
        let dt = t0.elapsed().as_secs_f64() * 1e6 / iters.max(1) as f64;
        best = best.min(dt);
    }
    best
}

/// How the regression checker treats one metric of a tracked report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricPolicy {
    /// Smaller is better; a rise beyond tolerance fails the check.
    Gate,
    /// Bigger is better, but too load-sensitive to gate CI on — a drop
    /// beyond tolerance is reported as `slower (info)` only.
    InfoHigherBetter,
    /// Smaller is better, informational only (never fails the check).
    InfoLowerBetter,
    /// Not a metric (schema markers, configuration echoes, profiles).
    Skip,
}

/// Flattens a tracked report into its metrics: every `"name": number`
/// pair at any object depth, named by its own key. Fails when the report
/// is not valid JSON or repeats a metric name — the checker looks metrics
/// up by name, so a repeat would be ambiguous.
fn metrics(json: &str) -> Result<Vec<(String, f64)>, String> {
    fn walk(v: &Json, out: &mut Vec<(String, f64)>) -> Result<(), String> {
        for (key, child) in v.as_obj().unwrap_or_default() {
            match child {
                Json::Num(_) if out.iter().any(|(k, _)| k == key) => {
                    return Err(format!("metric {key} appears more than once"));
                }
                Json::Num(x) => out.push((key.clone(), *x)),
                Json::Obj(_) => walk(child, out)?,
                _ => {}
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(&json::parse(json)?, &mut out)?;
    Ok(out)
}

/// Compares a freshly rendered report against a committed baseline,
/// printing a metric table and returning the process exit code.
///
/// `policy` maps each metric name to its [`MetricPolicy`]; `tool` labels
/// diagnostics. Only [`MetricPolicy::Gate`] metrics can fail the check:
/// they fail when they rise more than `tol_pct` percent above the
/// baseline. A baseline metric missing from the current run also fails,
/// and so does a baseline or current report that does not parse or
/// repeats a metric name.
pub fn check_against(
    tool: &str,
    baseline_path: &str,
    current: &str,
    tol_pct: f64,
    policy: &dyn Fn(&str) -> MetricPolicy,
) -> ExitCode {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{tool}: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let base = match metrics(&baseline) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{tool}: baseline {baseline_path} is not a valid report: {e}");
            return ExitCode::FAILURE;
        }
    };
    let curr = match metrics(current) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{tool}: current report is not valid: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    println!(
        "{:<34} {:>12} {:>12} {:>9}",
        "metric", "baseline", "current", "delta"
    );
    for (key, base_v) in &base {
        let pol = policy(key);
        if pol == MetricPolicy::Skip {
            continue;
        }
        let Some((_, curr_v)) = curr.iter().find(|(k, _)| k == key) else {
            eprintln!("{tool}: metric {key} missing from current run");
            failed = true;
            continue;
        };
        // Positive delta always means "got worse" for the metric's polarity.
        let scale = base_v.abs().max(1e-12);
        let delta_pct = match pol {
            MetricPolicy::InfoHigherBetter => (base_v - curr_v) / scale * 100.0,
            _ => (curr_v - base_v) / scale * 100.0,
        };
        let verdict = if delta_pct > tol_pct {
            match pol {
                MetricPolicy::Gate => {
                    failed = true;
                    "REGRESSED"
                }
                MetricPolicy::InfoHigherBetter => "slower (info)",
                MetricPolicy::InfoLowerBetter => "worse (info)",
                MetricPolicy::Skip => unreachable!(),
            }
        } else if delta_pct < -tol_pct {
            // Faster/better beyond the tolerance band: candidate for re-pinning.
            "improved"
        } else {
            "ok"
        };
        println!("{key:<34} {base_v:>12.3} {curr_v:>12.3} {delta_pct:>+8.1}% {verdict}");
    }
    if failed {
        eprintln!("{tool}: gated metric regression beyond {tol_pct}% tolerance");
        ExitCode::FAILURE
    } else {
        println!("{tool}: all gated metrics within {tol_pct}% of baseline");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "uwb-test-v1",
  "kernels_us": {
    "alpha": 10.0,
    "beta": 2.5e1
  },
  "throughput_tps": { "tps": 100.0 },
  "overhead_pct": -1.5
}"#;

    fn policy(key: &str) -> MetricPolicy {
        match key {
            "schema" => MetricPolicy::Skip,
            "tps" => MetricPolicy::InfoHigherBetter,
            "overhead_pct" => MetricPolicy::InfoLowerBetter,
            _ => MetricPolicy::Gate,
        }
    }

    /// Writes `baseline` to a fresh file named after `case` and checks
    /// `current` against it.
    fn check(case: &str, baseline: &str, current: &str) -> ExitCode {
        let dir = std::env::temp_dir().join(format!("uwb_tracked_test_{case}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.json");
        std::fs::write(&path, baseline).unwrap();
        check_against("test", path.to_str().unwrap(), current, 15.0, &policy)
    }

    #[test]
    fn metrics_flattens_nested_numbers() {
        let pairs = metrics(SAMPLE).unwrap();
        let get = |k: &str| pairs.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("alpha"), Some(10.0));
        assert_eq!(get("beta"), Some(25.0));
        assert_eq!(get("tps"), Some(100.0));
        assert_eq!(get("overhead_pct"), Some(-1.5));
        // The schema string is not a number and never parses as a metric.
        assert_eq!(get("schema"), None);
    }

    #[test]
    fn check_passes_identical_report() {
        assert_eq!(check("pass", SAMPLE, SAMPLE), ExitCode::SUCCESS);
    }

    #[test]
    fn check_fails_gated_regression_but_not_info() {
        // tps halves (info only) and overhead worsens (info only): pass.
        let slower = SAMPLE
            .replace("\"tps\": 100.0", "\"tps\": 50.0")
            .replace("\"overhead_pct\": -1.5", "\"overhead_pct\": 40.0");
        assert_eq!(check("fail", SAMPLE, &slower), ExitCode::SUCCESS);
        // A gated kernel rising 50% fails.
        let regressed = SAMPLE.replace("\"alpha\": 10.0", "\"alpha\": 15.0");
        assert_eq!(check("fail", SAMPLE, &regressed), ExitCode::FAILURE);
        // A gated kernel *improving* never fails.
        let improved = SAMPLE.replace("\"alpha\": 10.0", "\"alpha\": 2.0");
        assert_eq!(check("fail", SAMPLE, &improved), ExitCode::SUCCESS);
    }

    #[test]
    fn check_fails_malformed_baseline() {
        // A gated value that does not scan as a number must not silently
        // drop out of the check.
        let malformed = SAMPLE.replace("\"alpha\": 10.0", "\"alpha\": 1.2.3");
        assert_eq!(check("malformed", &malformed, SAMPLE), ExitCode::FAILURE);
    }

    #[test]
    fn check_fails_repeated_metric_name() {
        let repeated = SAMPLE.replace("\"beta\": 2.5e1", "\"beta\": 2.5e1,\n    \"alpha\": 10.0");
        assert!(metrics(&repeated).is_err());
        assert_eq!(check("repeated", &repeated, SAMPLE), ExitCode::FAILURE);
    }

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        parse_args(args, "--trials", 400)
    }

    #[test]
    fn parse_args_reads_every_option() {
        let a = parse(&[
            "--out", "o.json", "--check", "b.json", "--tol", "7.5", "--trials", "9",
        ])
        .unwrap();
        assert_eq!(a.out.as_deref(), Some("o.json"));
        assert_eq!(a.check.as_deref(), Some("b.json"));
        assert_eq!(a.tol_pct, 7.5);
        assert_eq!(a.count, 9);
        let d = parse(&[]).unwrap();
        assert_eq!(
            (d.out, d.check, d.tol_pct, d.count),
            (None, None, 15.0, 400)
        );
        // The count flag is the binary's own.
        assert_eq!(
            parse_args(&["--rounds", "3"], "--rounds", 24)
                .unwrap()
                .count,
            3
        );
    }

    #[test]
    fn parse_args_rejects_a_missing_value() {
        for flag in ["--out", "--check", "--tol", "--trials"] {
            assert!(parse(&[flag]).is_err(), "{flag} at the end");
        }
        // A flag in the value position is a missing value, not a path.
        assert!(parse(&["--check", "--tol", "5"]).is_err());
    }

    #[test]
    fn parse_args_rejects_a_malformed_tolerance() {
        for tol in ["abc", "-1", "NaN", "inf", ""] {
            assert!(
                parse(&["--check", "b.json", "--tol", tol]).is_err(),
                "--tol {tol:?}"
            );
        }
    }

    #[test]
    fn parse_args_rejects_a_malformed_count() {
        for n in ["abc", "0", "-3", "2.5"] {
            assert!(parse(&["--trials", n]).is_err(), "--trials {n:?}");
        }
    }

    #[test]
    fn parse_args_rejects_unknown_arguments_and_a_stray_tolerance() {
        assert!(
            parse(&["--rounds", "3"]).is_err(),
            "another binary's count flag"
        );
        assert!(parse(&["extra"]).is_err());
        assert!(parse(&["--tol", "5"]).is_err(), "--tol without --check");
    }

    #[test]
    fn bench_args_exits_with_usage_code_2() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let run = |v: &[&str]| bench_args("test", args(v), "--trials", 400);
        assert_eq!(run(&["--check"]), Err(ExitCode::from(2)));
        assert_eq!(run(&["--trials", "abc"]), Err(ExitCode::from(2)));
        assert_eq!(run(&["--trials", "5"]).map(|a| a.count), Ok(5));
    }

    #[test]
    fn time_us_returns_finite_positive() {
        let mut x = 0u64;
        let t = time_us(10, 2, || {
            x = x.wrapping_add(1);
        });
        assert!(t.is_finite() && t >= 0.0);
        assert!(x > 0);
    }
}
