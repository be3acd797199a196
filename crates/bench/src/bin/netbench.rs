//! netbench — tracked benchmarks for the multi-user piconet simulator
//! (the perf anchor for `scripts/check.sh net`).
//!
//! Measures the network warm path (clean synthesis + superposition mixing +
//! per-victim reception for an 8-user piconet), the mixing kernel itself,
//! and the serial planning phase, and emits a machine-readable JSON report:
//!
//! ```text
//! cargo run -p uwb-bench --release --bin netbench -- --out BENCH_net.json
//! cargo run -p uwb-bench --release --bin netbench -- --check BENCH_net.json --tol 15
//! ```
//!
//! `--check` exits non-zero if any gated metric regresses by more than
//! `--tol` percent (default 15) against the committed baseline. The JSON
//! schema (`uwb-netbench-v1`) is flat on purpose so the checker needs no
//! real JSON parser:
//!
//! ```json
//! {
//!   "schema": "uwb-netbench-v1",
//!   "kernels_us": {
//!     "net_round_8user": <µs per warm 8-user round>,
//!     "mix_superpose_8x": <µs per 8-source superposition>,
//!     "plan_8user": <µs per full planning phase>
//!   },
//!   "throughput": {
//!     "rounds_per_s": <warm rounds/s, 1 thread>,
//!     "aggregate_mbps": <deterministic 8-user aggregate goodput>
//!   },
//!   "stage_ns_per_trial": { "stage:<name>": <ns per round>, ... }
//! }
//! ```
//!
//! `aggregate_mbps` is a *physical* quantity, bit-deterministic for the
//! fixed scenario/seed — it is gated not as a perf number but as a cheap
//! whole-chain determinism pin. `stage_ns_per_trial` (one engine trial =
//! one network round; named like dspbench's for schema consistency) is the
//! informational telemetry profile (`stage:` keys are skipped by the
//! checker).

use std::process::ExitCode;
use std::time::Instant;
use uwb_bench::tracked::{bench_args, check_against, time_us, MetricPolicy};
use uwb_bench::EXPERIMENT_SEED;
use uwb_dsp::stream::accumulate_scaled;
use uwb_dsp::Complex;
use uwb_net::{
    build_coupling_sparse, plan_network, run_plan_threads, NetAccumulator, NetScenario, NetWorker,
};
use uwb_phy::bandplan::Channel;
use uwb_sim::Rand;

/// One measured kernel: name + median microseconds per call.
struct Kernel {
    name: &'static str,
    us_per_call: f64,
}

/// The benchmark scenario: 8 users on the default 4 m ring, round-robin
/// across the full band plan (adjacent-channel leakage active), AWGN.
fn bench_scenario() -> NetScenario {
    let mut sc = NetScenario::ring(8, 8.0, EXPERIMENT_SEED);
    sc.rounds = 16;
    sc
}

fn noise_complex(n: usize, seed: u64) -> Vec<Complex> {
    let mut rng = Rand::new(seed);
    (0..n)
        .map(|_| Complex::new(rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)))
        .collect()
}

fn main() -> ExitCode {
    let args = match bench_args("netbench", std::env::args().skip(1), "--rounds", 24) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let rounds = args.count;

    let scenario = bench_scenario();
    let mut kernels = Vec::new();

    // 1. The serial planning phase (probe synthesis + allocation +
    //    measurement) for the 8-user scenario.
    kernels.push(Kernel {
        name: "plan_8user",
        us_per_call: time_us(3, 5, || {
            let _ = plan_network(&scenario);
        }),
    });

    let plan = plan_network(&scenario);

    // 2. The 8-source superposition kernel at the real record shape:
    //    own record copied, then 7 scaled accumulations.
    {
        // Match the true per-round record length by synthesizing one
        // link's clean record.
        let len = {
            let link = &plan.links[0];
            let mut w = uwb_platform::link::LinkWorker::new(&link.scenario);
            let mut rng = Rand::for_trial(link.scenario.seed, 0);
            let _ = w.synthesize_clean_streamed(
                &link.scenario,
                scenario.payload_len,
                scenario.block_len,
                &mut rng,
            );
            w.clean_record().len()
        };
        let sources: Vec<Vec<Complex>> = (0..8).map(|s| noise_complex(len, s as u64)).collect();
        let mut mixed = noise_complex(len, 99);
        kernels.push(Kernel {
            name: "mix_superpose_8x",
            us_per_call: time_us(50, 9, || {
                mixed.copy_from_slice(&sources[0]);
                for src in &sources[1..] {
                    accumulate_scaled(&mut mixed, src, 0.125);
                }
            }),
        });
    }

    // 3. One warm 8-user round: full clean synthesis for all 8 links +
    //    8 victim mixes + 8 receptions, driven directly on one worker.
    let (round_us, rounds_per_s, telemetry) = {
        let mut worker = NetWorker::new(&plan);
        let mut acc = NetAccumulator::default();
        // Warm-up round so buffers reach steady state, then drop its spans.
        worker.round(&plan, 0, &mut acc);
        let _ = uwb_obs::take_thread_telemetry();
        let t0 = Instant::now();
        for r in 0..rounds {
            worker.round(&plan, r % plan.rounds.max(1), &mut acc);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let telemetry = uwb_obs::take_thread_telemetry();
        (
            elapsed * 1e6 / rounds.max(1) as f64,
            rounds as f64 / elapsed,
            telemetry,
        )
    };
    kernels.push(Kernel {
        name: "net_round_8user",
        us_per_call: round_us,
    });

    // 4. Sparse interference-graph construction at city scale: 10,000
    //    links on the clustered floor plan, round-robin channels, the
    //    scaling scenario's -40 dB coupling floor. This is the pure
    //    plan-time graph build (spatial grids + radius queries + exact
    //    rechecks), no waveform synthesis.
    let edges_per_node_10k;
    {
        let city = NetScenario::clustered_city(1000, 10, 8.0, EXPERIMENT_SEED);
        let all: Vec<Channel> = Channel::all().collect();
        let channels: Vec<Channel> = (0..city.len()).map(|l| all[l % all.len()]).collect();
        let rows = build_coupling_sparse(&city.topology, &city.selectivity, &channels, &city.coupling);
        let edges: usize = rows.iter().map(|r| r.len()).sum();
        edges_per_node_10k = edges as f64 / city.len() as f64;
        kernels.push(Kernel {
            name: "graph_build_10k",
            us_per_call: time_us(1, 5, || {
                let _ = build_coupling_sparse(
                    &city.topology,
                    &city.selectivity,
                    &channels,
                    &city.coupling,
                );
            }),
        });
    }

    // 5. One warm 1,000-user round on the event-driven sparse path: lazy
    //    shared-waveform synthesis, arena recycling, per-victim mixing and
    //    reception. `nodes_per_s_1k` is the headline scaling number.
    let nodes_per_s_1k;
    {
        let mut city = NetScenario::clustered_city(100, 10, 8.0, EXPERIMENT_SEED);
        city.rounds = 4;
        let city_plan = plan_network(&city);
        let mut worker = NetWorker::new(&city_plan);
        let mut acc = NetAccumulator::default();
        worker.round(&city_plan, 0, &mut acc);
        let us = time_us(1, 5, || {
            worker.round(&city_plan, 1, &mut acc);
        });
        nodes_per_s_1k = city_plan.len() as f64 / (us * 1e-6);
        kernels.push(Kernel {
            name: "net_round_1k",
            us_per_call: us,
        });
    }

    // 6. The deterministic aggregate goodput of the full measured run
    //    (1 thread so the baseline is reproducible anywhere).
    let report = run_plan_threads(plan, 1);
    let aggregate_mbps = report.aggregate_throughput_bps / 1e6;

    // --- Render. ---
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"uwb-netbench-v1\",\n");
    json.push_str("  \"kernels_us\": {\n");
    for (i, k) in kernels.iter().enumerate() {
        let comma = if i + 1 == kernels.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{}\": {:.3}{comma}\n",
            k.name, k.us_per_call
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"throughput\": {\n");
    json.push_str(&format!("    \"rounds_per_s\": {rounds_per_s:.1},\n"));
    json.push_str(&format!("    \"nodes_per_s_1k\": {nodes_per_s_1k:.0},\n"));
    json.push_str(&format!(
        "    \"edges_per_node_10k\": {edges_per_node_10k:.2},\n"
    ));
    json.push_str(&format!("    \"aggregate_mbps\": {aggregate_mbps:.3}\n"));
    json.push_str("  },\n");
    json.push_str("  \"stage_ns_per_trial\": {\n");
    let stages = &telemetry.stages;
    for (i, st) in stages.iter().enumerate() {
        let comma = if i + 1 == stages.len() { "" } else { "," };
        let per_round = st.ns as f64 / rounds.max(1) as f64;
        json.push_str(&format!(
            "    \"stage:{}\": {per_round:.0}{comma}\n",
            st.name
        ));
    }
    json.push_str("  }\n");
    json.push_str("}\n");

    for k in &kernels {
        println!("{:<24} {:>12.2} µs/call", k.name, k.us_per_call);
    }
    println!("{:<24} {:>12.1} rounds/s (1 thread)", "rounds_per_s", rounds_per_s);
    println!("{:<24} {:>12.0} nodes/s (1k round)", "nodes_per_s_1k", nodes_per_s_1k);
    println!("{:<24} {:>12.2} edges/node (10k graph)", "edges_per_node_10k", edges_per_node_10k);
    println!("{:<24} {:>12.3} Mbit/s aggregate", "aggregate_mbps", aggregate_mbps);
    println!("\n8-user report ({} rounds):", report.stats.trials);
    print!("{}", report.table());

    let profile = uwb_platform::report::stage_table(&telemetry);
    if !profile.is_empty() {
        println!("\nwarm-round stage profile ({rounds} rounds):");
        print!("{profile}");
    }

    if let Some(path) = args.out {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("netbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = args.check {
        return check_against("netbench", &path, &json, args.tol_pct, &metric_policy);
    }
    ExitCode::SUCCESS
}

/// Metric policy for the `uwb-netbench-v1` schema: kernel timings gate
/// (including `graph_build_10k` and `net_round_1k`, the sparse-path scaling
/// anchors); rounds/s and nodes/s are load-sensitive (info only);
/// `aggregate_mbps` and `edges_per_node_10k` gate as determinism pins
/// (bit-stable for the fixed seed, so any drift means the physics or the
/// graph changed); the `stage:` profile is informational.
fn metric_policy(key: &str) -> MetricPolicy {
    if key == "schema" || key.starts_with("stage:") {
        MetricPolicy::Skip
    } else if key == "rounds_per_s" || key == "nodes_per_s_1k" {
        MetricPolicy::InfoHigherBetter
    } else {
        MetricPolicy::Gate
    }
}
