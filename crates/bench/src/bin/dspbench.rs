//! dspbench — tracked micro-benchmarks for the zero-allocation DSP kernel
//! layer (the perf anchor for `scripts/check.sh bench`).
//!
//! Measures the FFT/correlation kernels that dominate the Monte-Carlo link
//! trials, plus single-threaded end-to-end trial throughput, and emits a
//! machine-readable JSON report:
//!
//! ```text
//! cargo run -p uwb-bench --release --bin dspbench -- --out BENCH_dsp.json
//! cargo run -p uwb-bench --release --bin dspbench -- --check BENCH_dsp.json --tol 15
//! ```
//!
//! `--check` exits non-zero if any kernel regresses by more than `--tol`
//! percent (default 15) against the committed baseline. Absolute timings
//! move between machines; the regression gate therefore compares *this*
//! machine's fresh run against the committed numbers only when asked to
//! (CI runs on stable hardware; see EXPERIMENTS.md for methodology).
//!
//! The JSON schema (`uwb-dspbench-v1`) is flat on purpose so the checker
//! needs no real JSON parser:
//!
//! ```json
//! {
//!   "schema": "uwb-dspbench-v1",
//!   "kernels_us": { "<name>": <median-microseconds-per-call>, ... },
//!   "throughput_tps": { "full_path": <trials/s>, "fast_path": <trials/s>,
//!                       "fast_path_batched": <trials/s> },
//!   "stage_ns_per_trial": { "stage:<name>": <ns-per-trial>, ... },
//!   "fft_plans_built": <count>
//! }
//! ```
//!
//! `stage_ns_per_trial` is the per-stage wall-clock profile of the full-path
//! throughput loop (uwb-obs stage timers; empty when the `obs`
//! feature is off). Keys are prefixed `stage:` and the regression checker
//! skips them — the profile is informational, never a CI gate.

use std::process::ExitCode;
use std::time::Instant;
use uwb_bench::tracked::{check_against, time_us, MetricPolicy};
use uwb_bench::EXPERIMENT_SEED;
use uwb_dsp::correlation::{circular_autocorrelation, cross_correlate_fft_into};
use uwb_dsp::fft::{cached_plan, fft_convolve_real_into, fft_plans_built, Fft};
use uwb_dsp::{Complex, DspScratch};
use uwb_phy::chanest::estimate_cir_into;
use uwb_phy::{AcquisitionConfig, ChannelEstimate, CoarseAcquisition, Gen2Config, Gen2Transmitter};
use uwb_platform::link::{
    BatchScratch, LinkOutcome, LinkScenario, LinkWorker, DEFAULT_STREAM_BLOCK,
};
use uwb_platform::ErrorCounter;
use uwb_sim::montecarlo::resolve_batch;
use uwb_sim::awgn::add_noise_snr;
use uwb_sim::Rand;

/// One measured kernel: name + median microseconds per call.
struct Kernel {
    name: &'static str,
    us_per_call: f64,
}

fn noise_complex(n: usize, seed: u64) -> Vec<Complex> {
    let mut rng = Rand::new(seed);
    (0..n)
        .map(|_| Complex::new(rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)))
        .collect()
}

fn noise_real(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rand::new(seed);
    (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect()
}

fn run_kernels() -> Vec<Kernel> {
    let mut out = Vec::new();

    // 1. 4096-point forward FFT through the thread-local plan cache,
    //    in place (the acquisition inner loop shape).
    {
        let plan = cached_plan(4096);
        let mut buf = noise_complex(4096, 1);
        out.push(Kernel {
            name: "fft4096_planned_fwd",
            us_per_call: time_us(100, 15, || {
                plan.forward_in_place(&mut buf);
            }),
        });
    }

    // 2. The same transform with the plan rebuilt per call — what every
    //    FFT cost before the plan cache (kept as a reference point).
    {
        let mut buf = noise_complex(4096, 2);
        out.push(Kernel {
            name: "fft4096_unplanned_fwd",
            us_per_call: time_us(50, 15, || {
                let plan = Fft::new(4096);
                plan.forward_in_place(&mut buf);
            }),
        });
    }

    // 2b. 4096-point forward f32 SoA FFT through its thread-local plan
    //     cache.
    {
        let plan = uwb_dsp::fft32::cached_plan32(4096);
        let mut rng = Rand::new(21);
        let mut re: Vec<f32> = (0..4096).map(|_| rng.uniform_in(-1.0, 1.0) as f32).collect();
        let mut im: Vec<f32> = (0..4096).map(|_| rng.uniform_in(-1.0, 1.0) as f32).collect();
        out.push(Kernel {
            name: "fft32_4096_planned_fwd",
            us_per_call: time_us(100, 15, || {
                plan.forward_in_place(&mut re, &mut im);
            }),
        });
    }

    // 2c. Block Gaussian generation at the AWGN per-trial shape (4096
    //     draws ≈ one complex noise burst over a short record).
    {
        let mut rng = Rand::new(22);
        let mut buf = vec![0.0f64; 4096];
        out.push(Kernel {
            name: "fill_gaussian_4096",
            us_per_call: time_us(200, 15, || {
                rng.fill_gaussian(&mut buf);
            }),
        });
    }

    // 2d. Fused AGC scale + ADC quantization at the digitizer shape
    //     (2560 samples through a 5-bit converter).
    {
        let q = uwb_adc::Quantizer::new(5, 1.0);
        let input = noise_complex(2560, 23);
        let mut out_buf = Vec::new();
        out.push(Kernel {
            name: "quantize_scaled_2560x5b",
            us_per_call: time_us(200, 15, || {
                q.quantize_scaled_into(&input, 1.7, &mut out_buf);
            }),
        });
    }

    // 3. Packed real convolution (pulse shaping / template construction
    //    shape): 2000-sample record against a 257-tap pulse.
    {
        let a = noise_real(2000, 3);
        let b = noise_real(257, 4);
        let mut scratch = DspScratch::new();
        let mut conv = Vec::new();
        out.push(Kernel {
            name: "fft_convolve_real_2000x257",
            us_per_call: time_us(50, 15, || {
                fft_convolve_real_into(&a, &b, &mut scratch, &mut conv);
            }),
        });
    }

    // 4. FFT cross-correlation at the channel-estimation shape:
    //    2555-sample record against a 1277-sample preamble template.
    {
        let sig = noise_complex(2555, 5);
        let tpl = noise_complex(1277, 6);
        let mut scratch = DspScratch::new();
        let mut corr = Vec::new();
        out.push(Kernel {
            name: "cross_correlate_fft_2555x1277",
            us_per_call: time_us(30, 15, || {
                cross_correlate_fft_into(&sig, &tpl, &mut scratch, &mut corr);
            }),
        });
    }

    // 5. Circular autocorrelation of a 1024-chip code (PN-code analysis
    //    path; O(n²) before the FFT fold).
    {
        let x = noise_real(1024, 7);
        out.push(Kernel {
            name: "circular_autocorr_1024",
            us_per_call: time_us(15, 15, || {
                let _ = circular_autocorrelation(&x);
            }),
        });
    }

    // 6. The factored preamble correlator on a real gen2 record (nominal
    //    config, 2 preamble repeats, 24-byte payload, noise at −3 dB per
    //    sample): one coarse acquisition over a preamble period plus the
    //    CIR window, and one 64-lag channel estimate over one period.
    {
        let cfg = Gen2Config {
            preamble_repeats: 2,
            ..Gen2Config::nominal_100mbps()
        };
        let tx = Gen2Transmitter::new(cfg.clone()).expect("valid config");
        let burst = tx.transmit_packet(&[0x5A; 24]).expect("payload fits");
        let mut rng = Rand::new(8);
        let record = add_noise_snr(&burst.samples, -3.0, &mut rng).0;
        let period = cfg.preamble_length() * cfg.samples_per_slot();
        let acq = CoarseAcquisition::new(
            tx.preamble_correlator(),
            AcquisitionConfig::with_clock(cfg.sample_rate.as_hz()),
        );
        let mut scratch = DspScratch::new();
        out.push(Kernel {
            name: "acquisition_gen2",
            us_per_call: time_us(50, 15, || {
                let _ = acq.acquire_with(&record, period + 8, &mut scratch);
            }),
        });
        let start = burst.slot0_center - tx.pulse().len() / 2;
        let mut est = ChannelEstimate::new(vec![Complex::ZERO]);
        out.push(Kernel {
            name: "chanest_gen2_64lag",
            us_per_call: time_us(200, 15, || {
                estimate_cir_into(
                    &record,
                    acq.correlator(),
                    start,
                    64,
                    1,
                    period,
                    &mut scratch,
                    &mut est,
                );
            }),
        });
    }

    out
}

/// The three end-to-end throughput figures plus the loop-wide FFT-plan
/// count and the full-path stage profile.
struct Throughput {
    full_tps: f64,
    fast_tps: f64,
    fast_batched_tps: f64,
    plans_built: u64,
    telemetry: uwb_obs::Telemetry,
}

/// Single-threaded end-to-end trial throughput on the smoke scenario
/// (AWGN, preamble_repeats = 2, Eb/N0 = 6 dB, 24-byte payload) — one
/// worker driven directly, exactly what each Monte-Carlo thread executes.
///
/// Three loops: the unbatched full and fast (BER-only) paths, then the fast
/// path on the batched stage-sweep runtime at `UWB_BATCH` (default
/// `DEFAULT_BATCH`) trials per batch. `plans_built` counts the FFT plans
/// constructed over the whole section *including* warm-up — in the steady state this must equal the
/// number of distinct transform sizes the link path touches (each size
/// planned exactly once, never per trial), so the JSON number stays O(1)
/// no matter how many trials run — and `telemetry` is the per-stage
/// profile of the timed unbatched full-path loop (empty when the `obs`
/// feature is off).
fn run_throughput(trials: u64) -> Throughput {
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let scenario = LinkScenario::awgn(config, 6.0, EXPERIMENT_SEED);
    let mut worker = LinkWorker::new(&scenario);
    let plans_before = fft_plans_built();

    // Full path (acquisition + packet decode + BER).
    let mut outcome = LinkOutcome::default();
    // Warm the buffers so the measurement sees the steady state.
    let mut rng = Rand::for_trial(scenario.seed, 0);
    worker.trial_full(&scenario, 24, &mut rng, &mut outcome);
    // Drop the warm-up's stage timers so the profile covers exactly the
    // timed loop below.
    let _ = uwb_obs::take_thread_telemetry();
    let t0 = Instant::now();
    for t in 0..trials {
        let mut rng = Rand::for_trial(scenario.seed, t);
        worker.trial_full(&scenario, 24, &mut rng, &mut outcome);
    }
    let full_tps = trials as f64 / t0.elapsed().as_secs_f64();
    let telemetry = uwb_obs::take_thread_telemetry();

    // Fast path (known-timing BER only).
    let mut counter = ErrorCounter::default();
    let mut rng = Rand::for_trial(scenario.seed, 0);
    worker.trial_ber_streamed(&scenario, 24, DEFAULT_STREAM_BLOCK, &mut rng, &mut counter);
    let t0 = Instant::now();
    for t in 0..trials {
        let mut rng = Rand::for_trial(scenario.seed, t);
        worker.trial_ber_streamed(&scenario, 24, DEFAULT_STREAM_BLOCK, &mut rng, &mut counter);
    }
    let fast_tps = trials as f64 / t0.elapsed().as_secs_f64();

    // Batched stage-sweep fast path: `UWB_BATCH` (default
    // [`DEFAULT_BATCH`]) consecutive trials per sub-batch — the per-worker
    // loop `MonteCarlo::run_batched` executes. The pinned baseline is
    // generated with `UWB_BATCH` unset; the env override exists for B-sweep
    // measurements (see EXPERIMENTS.md).
    let batch = resolve_batch(None);
    let mut scratch = BatchScratch::new();
    let mut counter = ErrorCounter::default();
    worker.trial_batch_ber_streamed(
        &scenario,
        24,
        DEFAULT_STREAM_BLOCK,
        0..batch.min(trials.max(1)),
        &mut scratch,
        &mut counter,
    );
    let t0 = Instant::now();
    let mut lo = 0;
    while lo < trials {
        let hi = (lo + batch).min(trials);
        worker.trial_batch_ber_streamed(
            &scenario,
            24,
            DEFAULT_STREAM_BLOCK,
            lo..hi,
            &mut scratch,
            &mut counter,
        );
        lo = hi;
    }
    let fast_batched_tps = trials as f64 / t0.elapsed().as_secs_f64();

    Throughput {
        full_tps,
        fast_tps,
        fast_batched_tps,
        plans_built: fft_plans_built() - plans_before,
        telemetry,
    }
}

fn render_json(
    kernels: &[Kernel],
    tp: &Throughput,
    trials: u64,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"uwb-dspbench-v1\",\n");
    s.push_str("  \"kernels_us\": {\n");
    for (i, k) in kernels.iter().enumerate() {
        let comma = if i + 1 == kernels.len() { "" } else { "," };
        s.push_str(&format!("    \"{}\": {:.3}{comma}\n", k.name, k.us_per_call));
    }
    s.push_str("  },\n");
    s.push_str("  \"throughput_tps\": {\n");
    s.push_str(&format!("    \"full_path\": {:.1},\n", tp.full_tps));
    s.push_str(&format!("    \"fast_path\": {:.1},\n", tp.fast_tps));
    s.push_str(&format!(
        "    \"fast_path_batched\": {:.1}\n",
        tp.fast_batched_tps
    ));
    s.push_str("  },\n");
    // Informational stage profile ("stage:"-prefixed keys are skipped by the
    // regression checker). ns per trial, not per call, so stages that run
    // more than once per trial still sum to the trial budget.
    s.push_str("  \"stage_ns_per_trial\": {\n");
    let stages = &tp.telemetry.stages;
    for (i, st) in stages.iter().enumerate() {
        let comma = if i + 1 == stages.len() { "" } else { "," };
        let per_trial = st.ns as f64 / trials.max(1) as f64;
        s.push_str(&format!("    \"stage:{}\": {per_trial:.0}{comma}\n", st.name));
    }
    s.push_str("  },\n");
    s.push_str(&format!("  \"fft_plans_built\": {}\n", tp.plans_built));
    s.push_str("}\n");
    s
}

/// Metric policy for the `uwb-dspbench-v1` schema: kernel times are the
/// gate; end-to-end trials/s is too load-sensitive to gate CI on and the
/// `stage:` profile is wall-clock, machine- and feature-dependent.
fn metric_policy(key: &str) -> MetricPolicy {
    if key == "schema" || key == "fft_plans_built" || key.starts_with("stage:") {
        MetricPolicy::Skip
    } else if matches!(key, "full_path" | "fast_path" | "fast_path_batched") {
        MetricPolicy::InfoHigherBetter
    } else {
        MetricPolicy::Gate
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut tol_pct = 15.0;
    let mut trials = 400u64;
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
                    "dspbench: unknown argument {other}\n\
                     usage: dspbench [--out PATH] [--check BASELINE [--tol PCT]] [--trials N]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    // Throughput first, on a cold plan cache, so `fft_plans_built` reports
    // exactly how many distinct transform sizes the link path planned (each
    // once). The kernel section would otherwise pre-populate the cache.
    let tp = run_throughput(trials);
    let kernels = run_kernels();
    let json = render_json(&kernels, &tp, trials);

    for k in &kernels {
        println!("{:<34} {:>10.2} µs/call", k.name, k.us_per_call);
    }
    println!("{:<34} {:>10.1} trials/s (1 thread)", "full_path", tp.full_tps);
    println!("{:<34} {:>10.1} trials/s (1 thread)", "fast_path", tp.fast_tps);
    println!(
        "{:<34} {:>10.1} trials/s (1 thread, B={})",
        "fast_path_batched", tp.fast_batched_tps, resolve_batch(None)
    );
    println!("{:<34} {:>10}", "fft_plans_built", tp.plans_built);

    // Per-stage profile of the full-path loop (uwb-obs stage timers).
    let profile = uwb_platform::report::stage_table(&tp.telemetry);
    if !profile.is_empty() {
        println!("\nfull-path stage profile ({trials} trials):");
        print!("{profile}");
    }

    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("dspbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = check_path {
        return check_against("dspbench", &path, &json, tol_pct, &metric_policy);
    }
    ExitCode::SUCCESS
}
