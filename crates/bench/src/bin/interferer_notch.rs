//! E8 — interferer detection, frequency estimation, and notch recovery
//! (paper §3: "the digital back end detects the presence of an interferer
//! and estimates its frequency that may be used in the front end notch
//! filter").
//!
//! Part 1: frequency-estimation accuracy of the spectral monitor across
//! interferer placements and powers. Part 2: link BER clean / jammed /
//! notched.

use uwb_bench::{banner, EXPERIMENT_SEED};
use uwb_phy::{Gen2Config, Gen2Transmitter, SpectralMonitor};
use uwb_platform::link::{
    run_ber_fast_streamed_tuned, LinkScenario, TrialBudget, DEFAULT_STREAM_BLOCK,
};
use uwb_platform::report::{format_rate, stage_table, Table};
use uwb_sim::{Interferer, Rand};

fn main() {
    println!(
        "{}",
        banner("E8", "spectral monitoring + tunable notch", "§3 / Fig. 3")
    );

    let cfg = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let fs = cfg.sample_rate.as_hz();

    // --- Part 1: frequency estimation accuracy ---
    let tx = Gen2Transmitter::new(cfg.clone()).expect("config");
    let burst = tx.transmit_packet(&[0x3C; 128]).expect("payload");
    let p_sig = uwb_dsp::complex::mean_power(&burst.samples);
    let monitor = SpectralMonitor::new();
    let mut rng = Rand::new(EXPERIMENT_SEED);

    let mut t1 = Table::new(vec![
        "interferer offset (MHz)",
        "I/S (dB)",
        "detected",
        "estimate (MHz)",
        "error (kHz)",
    ]);
    for &(f_mhz, isr_db) in &[
        (-210.0, 10.0),
        (-80.0, 10.0),
        (40.0, 10.0),
        (150.0, 10.0),
        (150.0, 20.0),
        (150.0, 3.0),
    ] {
        let intf = Interferer::cw(f_mhz * 1e6, p_sig * uwb_dsp::math::db_to_pow(isr_db));
        let jammed = intf.add_to(&burst.samples, fs, &mut rng);
        let report = monitor.analyze(&jammed, fs);
        t1.row(vec![
            format!("{f_mhz:+.0}"),
            format!("{isr_db:.0}"),
            if report.detected { "yes" } else { "no" }.to_string(),
            format!("{:+.2}", report.frequency.as_mhz()),
            format!("{:.0}", (report.frequency.as_hz() - f_mhz * 1e6).abs() / 1e3),
        ]);
    }
    println!("\nfrequency estimation (Welch + parabolic interpolation):\n{t1}");

    // --- Part 2: BER clean / jammed / notched ---
    let ebn0 = 10.0;
    let intf = Interferer::cw(150e6, p_sig * 100.0); // 20 dB above signal
    let clean = LinkScenario::awgn(cfg.clone(), ebn0, EXPERIMENT_SEED);
    let jammed = LinkScenario {
        interferer: Some(intf.clone()),
        ..clean.clone()
    };
    let notched = LinkScenario {
        notch_enabled: true,
        ..jammed.clone()
    };
    let mut t2 = Table::new(vec!["condition", "BER", "stop", "engine"]);
    let ber = |sc: &LinkScenario| {
        run_ber_fast_streamed_tuned(
            sc,
            32,
            DEFAULT_STREAM_BLOCK,
            60,
            120_000,
            TrialBudget::default(),
            None,
            None,
        )
    };
    let c_clean = ber(&clean);
    let c_jam = ber(&jammed);
    let c_notch = ber(&notched);
    for (label, c) in [
        ("clean", &c_clean),
        ("CW interferer (+20 dB)", &c_jam),
        ("interferer + monitor + notch", &c_notch),
    ] {
        t2.row(vec![
            label.to_string(),
            format_rate(c.errors, c.total),
            c.stop.to_string(),
            c.stats.summary(),
        ]);
    }
    println!("link impact at Eb/N0 = {ebn0} dB:\n{t2}");
    if c_clean.stop.truncated() || c_jam.stop.truncated() || c_notch.stop.truncated() {
        println!("warning: at least one run was truncated by the trial budget");
    }

    // Per-stage profile over the three link conditions (uwb-obs stage timers).
    // With the notch active the `notch` stage and `notch_retune` events appear;
    // the clean/jammed runs contribute none.
    let mut telemetry = uwb_obs::Telemetry::default();
    for c in [&c_clean, &c_jam, &c_notch] {
        telemetry.merge(&c.stats.telemetry);
    }
    let profile = stage_table(&telemetry);
    if !profile.is_empty() {
        println!("\nstage profile (clean + jammed + notched merged):");
        print!("{profile}");
    }

    let ok = c_jam.rate() > 5.0 * c_clean.rate().max(1e-5)
        && c_notch.rate() < c_jam.rate() / 3.0;
    println!(
        "expected shape: interferer degrades BER by an order of magnitude;\n\
         the estimated-frequency notch recovers most of it -> {}",
        if ok { "PASS" } else { "FAIL" }
    );
}
