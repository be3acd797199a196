//! E7 — acquisition time vs correlator parallelization (paper §1: fast
//! acquisition to keep the preamble near ~20 µs; §2: gen1 locks < 70 µs).
//!
//! Sweeps the gen2 search-engine parallelism, reporting modeled search time
//! and Monte-Carlo detection statistics at a low per-sample SNR.

use uwb_bench::{banner, EXPERIMENT_SEED};
use uwb_phy::{AcquisitionConfig, CoarseAcquisition, Gen2Config, Gen2Transmitter};
use uwb_platform::report::Table;
use uwb_sim::awgn::add_awgn_complex;
use uwb_sim::Rand;

fn main() {
    println!(
        "{}",
        banner("E7", "acquisition time vs parallelization", "§1 / §3")
    );

    let cfg = Gen2Config {
        preamble_repeats: 3,
        ..Gen2Config::nominal_100mbps()
    };
    let tx = Gen2Transmitter::new(cfg.clone()).expect("config");
    let template = tx.preamble_correlator();
    let sps = cfg.samples_per_slot();
    let period = cfg.preamble_length() * sps;
    let fs = cfg.sample_rate.as_hz();

    println!(
        "\npreamble: {} chips x {} repeats at {} MHz PRF -> {:.2} µs air time",
        cfg.preamble_length(),
        cfg.preamble_repeats,
        cfg.prf.as_mhz(),
        cfg.preamble_duration_us()
    );

    let mut table = Table::new(vec![
        "parallel correlators",
        "search time (µs)",
        "fits ~20 µs preamble",
        "detections (20 trials)",
        "mean |offset error| (samples)",
    ]);

    for p in [1usize, 4, 16, 32, 64, 128] {
        let engine = CoarseAcquisition::new(
            template.clone(),
            AcquisitionConfig {
                threshold: 0.28,
                parallelism: p,
                clock_hz: fs,
            },
        );
        let mut rng = Rand::new(EXPERIMENT_SEED ^ p as u64);
        let mut detections = 0;
        let mut err_sum = 0.0;
        let mut time_us = 0.0;
        let trials = 20;
        for _ in 0..trials {
            let burst = tx.transmit_packet(&[0x5A; 8]).expect("payload");
            let p_sig = uwb_dsp::complex::mean_power(&burst.samples);
            let noisy = add_awgn_complex(&burst.samples, 3.0 * p_sig, &mut rng);
            let r = engine.acquire(&noisy, period);
            time_us = r.search_time_us;
            if r.detected {
                detections += 1;
                let truth = burst.slot0_center - tx.pulse().len() / 2;
                err_sum += (r.offset as f64 - truth as f64).abs();
            }
        }
        table.row(vec![
            p.to_string(),
            format!("{time_us:.1}"),
            if time_us <= 20.0 { "yes" } else { "no" }.to_string(),
            format!("{detections}/{trials}"),
            format!("{:.2}", err_sum / detections.max(1) as f64),
        ]);
    }
    println!("\n{table}");
    println!(
        "expected shape: search time scales as 1/parallelism; with enough\n\
         correlators the full code-phase search fits inside the ~20 µs\n\
         preamble budget the paper targets, with unchanged detection quality."
    );
}
