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
//!   "info_us": { "<name>": <best-microseconds-per-call>, ... },
//!   "throughput_tps": { "full_path": <trials/s>, "fast_path": <trials/s> },
//!   "stage_ns_per_trial": { "stage:<name>": <ns-per-trial>, ... },
//!   "fft_plans_built": <count>
//! }
//! ```
//!
//! `info_us` rows time the remaining back-end blocks (Viterbi, MLSE, SV
//! channel generation, FIR, Welch PSD, the gen1 receiver, the ADC models);
//! they are reported against the baseline but never gate.
//!
//! `stage_ns_per_trial` is the per-stage wall-clock profile of the full-path
//! throughput loop (uwb-obs stage timers; empty when the `obs`
//! feature is off). Keys are prefixed `stage:` and the regression checker
//! skips them — the profile is informational, never a CI gate.

use std::process::ExitCode;
use std::time::Instant;
use uwb_adc::{InterleaveMismatch, InterleavedAdc, Quantizer, SarAdc};
use uwb_bench::tracked::{bench_args, check_against, time_us, MetricPolicy};
use uwb_bench::EXPERIMENT_SEED;
use uwb_dsp::correlation::{circular_autocorrelation, cross_correlate_fft_into};
use uwb_dsp::fft::{cached_plan, fft_convolve_real_into, fft_plans_built, Fft};
use uwb_dsp::{Complex, DspScratch, FirFilter, Window};
use uwb_gen1::{Gen1Config, Gen1Receiver, Gen1Transmitter};
use uwb_phy::chanest::estimate_cir_into;
use uwb_phy::mlse::{apply_symbol_channel, MlseEqualizer};
use uwb_phy::{
    AcquisitionConfig, ChannelEstimate, CoarseAcquisition, ConvCode, Gen2Config, Gen2Transmitter,
};
use uwb_platform::link::{LinkOutcome, LinkScenario, LinkWorker, DEFAULT_STREAM_BLOCK};
use uwb_platform::ErrorCounter;
use uwb_sim::awgn::add_noise_snr;
use uwb_sim::sv_channel::{ChannelModel, ChannelRealization};
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

/// Informational timings of the back-end blocks outside the link trial's
/// hot path: soft Viterbi (K=3, K=7) and 3-tap MLSE over 1000 symbols, SV
/// channel draws (CM1, CM4), a 63-tap FIR over 4096 samples, a Welch PSD of
/// 16k samples in 1024-sample segments, one gen1 8-bit reception, and the
/// ideal 5-bit quantizer, mismatched 5-bit SAR and 4-way interleaved flash
/// ADC models over 100k samples.
fn run_info_kernels() -> Vec<Kernel> {
    let mut out = Vec::new();
    let mut rng = Rand::new(30);

    let bits: Vec<bool> = (0..1000).map(|_| rng.bit()).collect();
    for (name, code) in [
        ("viterbi_k3_1000b", ConvCode::k3()),
        ("viterbi_k7_1000b", ConvCode::k7()),
    ] {
        let soft: Vec<f64> = code
            .encode(&bits)
            .iter()
            .map(|&b| if b { 1.0 } else { -1.0 } + 0.3 * rng.gaussian())
            .collect();
        out.push(Kernel {
            name,
            us_per_call: time_us(20, 5, || {
                std::hint::black_box(code.decode_soft(&soft));
            }),
        });
    }

    let h = vec![
        Complex::new(1.0, 0.0),
        Complex::new(0.5, 0.1),
        Complex::new(-0.2, 0.2),
    ];
    let rx = apply_symbol_channel(&bits, &h);
    let eq = MlseEqualizer::new(h);
    out.push(Kernel {
        name: "mlse_3tap_1000sym",
        us_per_call: time_us(20, 5, || {
            std::hint::black_box(eq.equalize(&rx));
        }),
    });

    for (name, model) in [
        ("sv_channel_cm1", ChannelModel::Cm1),
        ("sv_channel_cm4", ChannelModel::Cm4),
    ] {
        let mut rng = Rand::new(31);
        out.push(Kernel {
            name,
            us_per_call: time_us(50, 5, || {
                std::hint::black_box(ChannelRealization::generate(model, &mut rng));
            }),
        });
    }

    let fir = FirFilter::lowpass(63, 0.2, Window::Hamming);
    let x: Vec<Complex> = (0..4096).map(|i| Complex::cis(0.07 * i as f64)).collect();
    out.push(Kernel {
        name: "fir63_4096",
        us_per_call: time_us(20, 5, || {
            std::hint::black_box(fir.filter_complex(&x));
        }),
    });

    let sig: Vec<Complex> = (0..16_384).map(|i| Complex::cis(0.01 * i as f64)).collect();
    out.push(Kernel {
        name: "welch_psd_16k_1024",
        us_per_call: time_us(10, 5, || {
            std::hint::black_box(uwb_dsp::psd::welch(&sig, 1e9, 1024, Window::Hann));
        }),
    });

    let cfg = Gen1Config {
        pulses_per_bit: 8,
        ..Gen1Config::demonstrated_193kbps()
    };
    let burst = Gen1Transmitter::new(cfg.clone())
        .transmit(&[true, false, true, true, false, false, true, false]);
    let gen1 = Gen1Receiver::new(cfg, InterleaveMismatch::typical(), 2);
    out.push(Kernel {
        name: "gen1_rx_8bits",
        us_per_call: time_us(5, 5, || {
            std::hint::black_box(gen1.receive(&burst.samples, 8).expect("gen1 decodes"));
        }),
    });

    let x: Vec<f64> = (0..100_000)
        .map(|i| (i as f64 * 0.01).sin() * 0.9)
        .collect();
    let q = Quantizer::new(5, 1.0);
    out.push(Kernel {
        name: "adc_quantizer_5b_100k",
        us_per_call: time_us(5, 5, || {
            std::hint::black_box(q.quantize_block(&x));
        }),
    });
    let sar = SarAdc::with_mismatch(5, 1.0, 0.01, 0.0, &mut rng);
    let mut sar_rng = Rand::new(32);
    out.push(Kernel {
        name: "adc_sar_5b_100k",
        us_per_call: time_us(5, 5, || {
            std::hint::black_box(sar.convert_block(&x, &mut sar_rng));
        }),
    });
    let flash = InterleavedAdc::gen1(4, InterleaveMismatch::typical(), &mut rng);
    out.push(Kernel {
        name: "adc_flash_4way_100k",
        us_per_call: time_us(5, 5, || {
            std::hint::black_box(flash.convert_block(&x));
        }),
    });

    out
}

/// The two end-to-end throughput figures plus the loop-wide FFT-plan
/// count and the full-path stage profile.
struct Throughput {
    full_tps: f64,
    fast_tps: f64,
    plans_built: u64,
    telemetry: uwb_obs::Telemetry,
}

/// Single-threaded end-to-end trial throughput on the smoke scenario
/// (AWGN, preamble_repeats = 2, Eb/N0 = 6 dB, 24-byte payload) — one
/// worker driven directly, exactly what each Monte-Carlo thread executes.
///
/// Two loops: the full and the fast (BER-only) path. `plans_built` counts
/// the FFT plans
/// constructed over the whole section *including* warm-up — in the steady state this must equal the
/// number of distinct transform sizes the link path touches (each size
/// planned exactly once, never per trial), so the JSON number stays O(1)
/// no matter how many trials run — and `telemetry` is the per-stage
/// profile of the timed full-path loop (empty when the `obs`
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

    Throughput {
        full_tps,
        fast_tps,
        plans_built: fft_plans_built() - plans_before,
        telemetry,
    }
}

/// Renders `kernels` as the JSON object `"section": { "name": µs, ... },`.
fn render_section(s: &mut String, section: &str, kernels: &[Kernel]) {
    s.push_str(&format!("  \"{section}\": {{\n"));
    for (i, k) in kernels.iter().enumerate() {
        let comma = if i + 1 == kernels.len() { "" } else { "," };
        s.push_str(&format!(
            "    \"{}\": {:.3}{comma}\n",
            k.name, k.us_per_call
        ));
    }
    s.push_str("  },\n");
}

fn render_json(kernels: &[Kernel], info: &[Kernel], tp: &Throughput, trials: u64) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"uwb-dspbench-v1\",\n");
    render_section(&mut s, "kernels_us", kernels);
    render_section(&mut s, "info_us", info);
    s.push_str("  \"throughput_tps\": {\n");
    s.push_str(&format!("    \"full_path\": {:.1},\n", tp.full_tps));
    s.push_str(&format!("    \"fast_path\": {:.1}\n", tp.fast_tps));
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
/// gate; the `info_us` rows and end-to-end trials/s are informational, and
/// the `stage:` profile is wall-clock, machine- and feature-dependent.
fn metric_policy(key: &str) -> MetricPolicy {
    if key == "schema" || key == "fft_plans_built" || key.starts_with("stage:") {
        MetricPolicy::Skip
    } else if matches!(key, "full_path" | "fast_path") {
        MetricPolicy::InfoHigherBetter
    } else if matches!(
        key,
        "viterbi_k3_1000b"
            | "viterbi_k7_1000b"
            | "mlse_3tap_1000sym"
            | "sv_channel_cm1"
            | "sv_channel_cm4"
            | "fir63_4096"
            | "welch_psd_16k_1024"
            | "gen1_rx_8bits"
            | "adc_quantizer_5b_100k"
            | "adc_sar_5b_100k"
            | "adc_flash_4way_100k"
    ) {
        MetricPolicy::InfoLowerBetter
    } else {
        MetricPolicy::Gate
    }
}

fn main() -> ExitCode {
    let args = match bench_args("dspbench", std::env::args().skip(1), "--trials", 400) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let trials = args.count;

    // Throughput first, on a cold plan cache, so `fft_plans_built` reports
    // exactly how many distinct transform sizes the link path planned (each
    // once). The kernel section would otherwise pre-populate the cache.
    let tp = run_throughput(trials);
    let kernels = run_kernels();
    let info = run_info_kernels();
    let json = render_json(&kernels, &info, &tp, trials);

    for k in &kernels {
        println!("{:<34} {:>10.2} µs/call", k.name, k.us_per_call);
    }
    for k in &info {
        println!("{:<34} {:>10.2} µs/call (info)", k.name, k.us_per_call);
    }
    println!("{:<34} {:>10.1} trials/s (1 thread)", "full_path", tp.full_tps);
    println!("{:<34} {:>10.1} trials/s (1 thread)", "fast_path", tp.fast_tps);
    println!("{:<34} {:>10}", "fft_plans_built", tp.plans_built);

    // Per-stage profile of the full-path loop (uwb-obs stage timers).
    let profile = uwb_platform::report::stage_table(&tp.telemetry);
    if !profile.is_empty() {
        println!("\nfull-path stage profile ({trials} trials):");
        print!("{profile}");
    }

    if let Some(path) = args.out {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("dspbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = args.check {
        return check_against("dspbench", &path, &json, args.tol_pct, &metric_policy);
    }
    ExitCode::SUCCESS
}
