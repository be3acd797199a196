//! macbench — tracked benchmarks for the discrete-event MAC simulator
//! (the perf anchor for `scripts/check.sh mac`).
//!
//! Measures the MAC planning phase, one warm 8-user discrete-event trial
//! (arrivals + CSMA + waveform synthesis + overlap mixing + decode + ARQ),
//! and one warm 1,000-user clustered-city trial, and emits a
//! machine-readable JSON report:
//!
//! ```text
//! cargo run -p uwb-bench --release --bin macbench -- --out BENCH_mac.json
//! cargo run -p uwb-bench --release --bin macbench -- --check BENCH_mac.json --tol 15
//! ```
//!
//! `--check` exits non-zero if any gated metric regresses by more than
//! `--tol` percent against the committed baseline. The flat JSON schema
//! (`uwb-macbench-v1`):
//!
//! ```json
//! {
//!   "schema": "uwb-macbench-v1",
//!   "kernels_us": {
//!     "plan_mac_8user": <µs per full MAC planning phase>,
//!     "mac_trial_8user": <µs per warm 8-user trial>,
//!     "mac_trial_1k": <µs per warm 1000-user trial>
//!   },
//!   "throughput": {
//!     "frames_per_s_8user": <data frames simulated per wall-second>,
//!     "delivered_frac_8user": <deterministic delivered/offered>,
//!     "mean_latency_slots_8user": <deterministic mean delivery latency>
//!   },
//!   "thread_scaling": {
//!     "mac_run_1k_2rep_1t_ms": <ms per 2-replication 1000-user run, 1 thread>,
//!     "mac_run_1k_2rep_2t_ms": <ms per the same run at 2 threads>,
//!     "mac_run_1k_2rep_speedup": <1-thread ms / 2-thread ms>
//!   },
//!   "stage_ns_per_trial": { "stage:<name>": <ns per trial>, ... }
//! }
//! ```
//!
//! `delivered_frac_8user` and `mean_latency_slots_8user` are *physical*
//! quantities, bit-deterministic for the fixed scenario/seed — they gate
//! not as perf numbers but as cheap whole-stack determinism pins (any
//! drift means the traffic, CSMA, PHY, or ARQ behavior changed). The
//! `thread_scaling` row (engine wall time of a whole 2-replication
//! 1,000-user run, worker construction included, median of 3 alternated
//! runs per thread count) and the `stage:` profile are informational;
//! the speedup can only exceed 1 on a host with at least 2 cores.

use std::process::ExitCode;
use std::time::Instant;
use uwb_bench::tracked::{check_against, time_us, MetricPolicy};
use uwb_bench::EXPERIMENT_SEED;
use uwb_mac::{plan_mac, run_mac_plan_threads, MacAccumulator, MacScenario, MacWorker};
use uwb_net::ChannelPolicy;
use uwb_phy::bandplan::Channel;

/// One measured kernel: name + median microseconds per call.
struct Kernel {
    name: &'static str,
    us_per_call: f64,
}

/// The benchmark scenario: 8 users, 4 channels (every link has one
/// co-channel contender), 1.2 Erlang per link — past the knee, so CSMA
/// defers, collisions, and ARQ retries are all on the measured path.
fn bench_scenario() -> MacScenario {
    let mut sc = MacScenario::ring(8, 9.0, 1.2, EXPERIMENT_SEED);
    sc.net.policy = ChannelPolicy::RoundRobin((3..7).map(|i| Channel::new(i).unwrap()).collect());
    sc.horizon_slots = 400;
    sc.replications = 4;
    sc
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut tol_pct = 15.0;
    let mut trials = 6u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = args.get(i + 1).cloned();
                i += 2;
            }
            "--check" => {
                check_path = args.get(i + 1).cloned();
                i += 2;
            }
            "--tol" => {
                tol_pct = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(tol_pct);
                i += 2;
            }
            "--trials" => {
                trials = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(trials);
                i += 2;
            }
            other => {
                eprintln!(
                    "macbench: unknown argument {other}\n\
                     usage: macbench [--out PATH] [--check BASELINE [--tol PCT]] [--trials N]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let scenario = bench_scenario();
    let mut kernels = Vec::new();

    // 1. The serial MAC planning phase: network planning + per-config
    //    airtime probes + sense-set extraction.
    kernels.push(Kernel {
        name: "plan_mac_8user",
        us_per_call: time_us(3, 5, || {
            let _ = plan_mac(&scenario);
        }),
    });

    let plan = plan_mac(&scenario);

    // 2. One warm 8-user trial: the full event loop over the 400-slot
    //    horizon plus queue drain.
    let (trial_us, frames_per_s, telemetry) = {
        let mut worker = MacWorker::new(&plan);
        let mut acc = MacAccumulator::default();
        // Warm-up trial so all pooled buffers reach steady state, then
        // drop its telemetry.
        worker.trial(&plan, 0, &mut acc);
        let _ = uwb_obs::take_thread_telemetry();
        let mut acc = MacAccumulator::default();
        let t0 = Instant::now();
        for rep in 0..trials {
            worker.trial(&plan, rep, &mut acc);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let telemetry = uwb_obs::take_thread_telemetry();
        let frames: u64 = acc.links.iter().map(|l| l.tx_frames).sum();
        (
            elapsed * 1e6 / trials.max(1) as f64,
            frames as f64 / elapsed,
            telemetry,
        )
    };
    kernels.push(Kernel {
        name: "mac_trial_8user",
        us_per_call: trial_us,
    });

    // 3. One warm 1,000-user clustered-city trial on the sparse graph.
    let mut city = MacScenario::clustered_city(100, 10, 9.0, 1.0, EXPERIMENT_SEED);
    city.horizon_slots = 60;
    {
        let city_plan = plan_mac(&city);
        let mut worker = MacWorker::new(&city_plan);
        let mut acc = MacAccumulator::default();
        worker.trial(&city_plan, 0, &mut acc);
        kernels.push(Kernel {
            name: "mac_trial_1k",
            us_per_call: time_us(1, 3, || {
                worker.trial(&city_plan, 1, &mut acc);
            }),
        });
    }

    // 4. Engine thread scaling: a whole 2-replication city run (one
    //    replication per engine pull) at 1 and at 2 threads, alternated.
    city.replications = 2;
    let mut run_ms = [Vec::new(), Vec::new()];
    for _ in 0..3 {
        for (slot, threads) in [1usize, 2].into_iter().enumerate() {
            let report = run_mac_plan_threads(plan_mac(&city), threads);
            run_ms[slot].push(report.stats.wall.as_secs_f64() * 1e3);
        }
    }
    let [run_1t_ms, run_2t_ms] = run_ms.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    });
    let speedup = run_1t_ms / run_2t_ms;

    // 5. The deterministic physics pins from the full measured run
    //    (1 thread so the baseline reproduces anywhere).
    let report = run_mac_plan_threads(plan_mac(&scenario), 1);
    let delivered_frac = report.delivered_fraction();
    let delivered: u64 = report.delivered_total;
    let lat_sum: u64 = report.links.iter().map(|l| l.stats.latency_slots_sum).sum();
    let mean_latency_slots = if delivered == 0 {
        0.0
    } else {
        lat_sum as f64 / delivered as f64
    };

    // --- Render. ---
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"uwb-macbench-v1\",\n");
    json.push_str("  \"kernels_us\": {\n");
    for (i, k) in kernels.iter().enumerate() {
        let comma = if i + 1 == kernels.len() { "" } else { "," };
        json.push_str(&format!("    \"{}\": {:.3}{comma}\n", k.name, k.us_per_call));
    }
    json.push_str("  },\n");
    json.push_str("  \"throughput\": {\n");
    json.push_str(&format!(
        "    \"frames_per_s_8user\": {frames_per_s:.1},\n"
    ));
    json.push_str(&format!(
        "    \"delivered_frac_8user\": {delivered_frac:.6},\n"
    ));
    json.push_str(&format!(
        "    \"mean_latency_slots_8user\": {mean_latency_slots:.4}\n"
    ));
    json.push_str("  },\n");
    json.push_str("  \"thread_scaling\": {\n");
    json.push_str(&format!("    \"mac_run_1k_2rep_1t_ms\": {run_1t_ms:.1},\n"));
    json.push_str(&format!("    \"mac_run_1k_2rep_2t_ms\": {run_2t_ms:.1},\n"));
    json.push_str(&format!("    \"mac_run_1k_2rep_speedup\": {speedup:.3}\n"));
    json.push_str("  },\n");
    json.push_str("  \"stage_ns_per_trial\": {\n");
    let stages = &telemetry.stages;
    for (i, st) in stages.iter().enumerate() {
        let comma = if i + 1 == stages.len() { "" } else { "," };
        let per_trial = st.ns as f64 / trials.max(1) as f64;
        json.push_str(&format!("    \"stage:{}\": {per_trial:.0}{comma}\n", st.name));
    }
    json.push_str("  }\n");
    json.push_str("}\n");

    for k in &kernels {
        println!("{:<26} {:>12.2} µs/call", k.name, k.us_per_call);
    }
    println!(
        "{:<26} {:>12.1} frames/s (1 thread)",
        "frames_per_s_8user", frames_per_s
    );
    println!(
        "{:<26} {:>12.4} delivered/offered",
        "delivered_frac_8user", delivered_frac
    );
    println!(
        "{:<26} {:>12.2} slots mean latency",
        "mean_latency_slots_8user", mean_latency_slots
    );
    println!(
        "{:<26} {:>12.1} ms at 1 thread, {run_2t_ms:.1} ms at 2 threads ({speedup:.2}x, info)",
        "mac_run_1k_2rep", run_1t_ms
    );
    println!("\n8-user MAC report ({} replications):", report.stats.trials);
    print!("{}", report.table());

    let profile = uwb_platform::report::stage_table(&telemetry);
    if !profile.is_empty() {
        println!("\nwarm-trial stage profile ({trials} trials):");
        print!("{profile}");
    }

    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("macbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = check_path {
        return check_against("macbench", &path, &json, tol_pct, &metric_policy);
    }
    ExitCode::SUCCESS
}

/// Metric policy for the `uwb-macbench-v1` schema: kernel timings gate;
/// frames/s is load-sensitive (info only); the delivered fraction and
/// mean latency gate as determinism pins (bit-stable for the fixed seed,
/// so any drift means the MAC/PHY behavior changed); the thread-scaling
/// row and the `stage:` profile are informational.
fn metric_policy(key: &str) -> MetricPolicy {
    if key == "schema" || key.starts_with("stage:") {
        MetricPolicy::Skip
    } else if key == "frames_per_s_8user" || key == "mac_run_1k_2rep_speedup" {
        MetricPolicy::InfoHigherBetter
    } else if key.starts_with("mac_run_1k_2rep_") {
        MetricPolicy::InfoLowerBetter
    } else {
        MetricPolicy::Gate
    }
}
