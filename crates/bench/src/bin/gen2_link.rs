//! E5 — the gen2 100 Mbps direct-conversion link over multipath
//! (paper §3, Fig. 3).
//!
//! BER vs Eb/N0 waterfalls in AWGN and CM1/CM3 channels, with the
//! RAKE+channel-estimation receiver against a single-finger matched-filter
//! baseline. Expected shape: the RAKE's margin over the single finger grows
//! with delay spread, and AWGN tracks the BPSK theory curve.

use std::time::Duration;
use uwb_bench::{banner, trace_arg, write_trace, EXPERIMENT_SEED};
use uwb_phy::Gen2Config;
use uwb_platform::link::{
    run_ber_fast_streamed_tuned, BerRun, LinkScenario, TrialBudget, DEFAULT_STREAM_BLOCK,
};
use uwb_platform::metrics::bpsk_awgn_ber;
use uwb_platform::report::{format_rate, stage_table, Table};
use uwb_sim::montecarlo::resolve_threads;
use uwb_sim::sv_channel::ChannelModel;

/// `errors/total = rate`, with a trailing `*` when the run exhausted its
/// trial budget before reaching the error target or bit budget.
fn format_cell(run: &BerRun) -> String {
    let mut s = format_rate(run.errors, run.total);
    if run.stop.truncated() {
        s.push('*');
    }
    s
}

/// One BER point on 32-byte payloads through the known-timing runner at the
/// default block, batch width and thread count.
fn ber_point(scenario: &LinkScenario, target_errors: u64, max_bits: u64) -> BerRun {
    run_ber_fast_streamed_tuned(
        scenario,
        32,
        DEFAULT_STREAM_BLOCK,
        target_errors,
        max_bits,
        TrialBudget::default(),
        None,
        None,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    println!(
        "{}",
        banner("E5", "gen2 100 Mbps link: BER vs Eb/N0, RAKE vs 1-finger", "§3 / Fig. 3")
    );

    let grid = [2.0, 4.0, 6.0, 8.0, 10.0];
    let target_errors = 60;
    let max_bits = 150_000;

    let rake_cfg = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let single_cfg = Gen2Config {
        rake_fingers: 1,
        ..rake_cfg.clone()
    };
    let mlse_cfg = Gen2Config {
        mlse_taps: 3,
        ..rake_cfg.clone()
    };

    let mut total_trials = 0u64;
    let mut total_wall = Duration::ZERO;
    let mut telemetry = uwb_obs::Telemetry::default();
    for (label, channel) in [
        ("AWGN", ChannelModel::Awgn),
        ("CM1 (LOS, ~5 ns rms)", ChannelModel::Cm1),
        ("CM3 (NLOS, ~14 ns rms)", ChannelModel::Cm3),
    ] {
        let mut table = Table::new(vec![
            "Eb/N0 (dB)",
            "BPSK theory",
            "RAKE-8 + 4-bit est.",
            "RAKE-8 + MLSE-3",
            "1-finger baseline",
        ]);
        // Batched stage-sweep runner (`UWB_BATCH` wide), bit-identical for
        // any batch width; multipath points use the streamed convolution,
        // which agrees with whole-record FFT convolution to numerical
        // precision (see EXPERIMENTS.md for the value shift at the E5
        // re-baseline).
        for &ebn0 in &grid {
            let rake = ber_point(
                &LinkScenario {
                    channel,
                    ..LinkScenario::awgn(rake_cfg.clone(), ebn0, EXPERIMENT_SEED)
                },
                target_errors,
                max_bits,
            );
            let mlse = ber_point(
                &LinkScenario {
                    channel,
                    ..LinkScenario::awgn(mlse_cfg.clone(), ebn0, EXPERIMENT_SEED)
                },
                target_errors,
                max_bits,
            );
            let single = ber_point(
                &LinkScenario {
                    channel,
                    ..LinkScenario::awgn(single_cfg.clone(), ebn0, EXPERIMENT_SEED + 1)
                },
                target_errors,
                max_bits,
            );
            for run in [&rake, &mlse, &single] {
                total_trials += run.stats.trials;
                total_wall += run.stats.wall;
                telemetry.merge(&run.stats.telemetry);
            }
            table.row(vec![
                format!("{ebn0:.0}"),
                format!("{:.2e}", bpsk_awgn_ber(ebn0)),
                format_cell(&rake),
                format_cell(&mlse),
                format_cell(&single),
            ]);
        }
        println!("\nchannel: {label}\n{table}");
    }

    // --- FEC: coded vs uncoded at equal Eb per *information* bit --------
    // The AWGN calibration divides the frame energy by the number of
    // information bits, so the rate-1/2 coded link pays its 3 dB rate
    // penalty inside the same Eb/N0 axis — what remains is pure coding
    // gain. K=7 (171,133) soft-decision Viterbi should open a widening gap
    // below ~1e-2, with K=3 (7,5) in between.
    let uncoded_cfg = rake_cfg.clone();
    let k3_cfg = Gen2Config {
        fec: Some(uwb_phy::fec::ConvCode::k3()),
        ..rake_cfg.clone()
    };
    let k7_cfg = Gen2Config {
        fec: Some(uwb_phy::fec::ConvCode::k7()),
        ..rake_cfg.clone()
    };
    let mut fec_table = Table::new(vec![
        "Eb/N0 (dB)",
        "uncoded 100 Mbps",
        "K=3 (7,5) 50 Mbps",
        "K=7 (171,133) 50 Mbps",
    ]);
    for &ebn0 in &[2.0, 3.0, 4.0, 5.0, 6.0] {
        let mut cells = vec![format!("{ebn0:.0}")];
        for cfg in [&uncoded_cfg, &k3_cfg, &k7_cfg] {
            let run = ber_point(
                &LinkScenario::awgn(cfg.clone(), ebn0, EXPERIMENT_SEED),
                target_errors,
                max_bits,
            );
            total_trials += run.stats.trials;
            total_wall += run.stats.wall;
            telemetry.merge(&run.stats.telemetry);
            cells.push(format_cell(&run));
        }
        fec_table.row(cells);
    }
    println!(
        "\nconvolutional coding gain (AWGN, soft-decision Viterbi, \
         RAKE-8 + 4-bit est.):\n{fec_table}"
    );

    // Guarded rate: a sub-microsecond aggregate wall time (possible when every
    // point is cached or trivially small) renders as "n/a" instead of a
    // nonsense figure from a near-zero denominator.
    let tps = if total_wall.as_secs_f64() < 1e-6 {
        "n/a trials/s".to_string()
    } else {
        format!("{:.0} trials/s", total_trials as f64 / total_wall.as_secs_f64())
    };
    println!(
        "\nengine: {total_trials} packet trials in {:.2} s on {} thread(s) \
         ({tps}); '*' marks runs truncated by the trial budget",
        total_wall.as_secs_f64(),
        resolve_threads(None),
    );

    // Per-stage profile aggregated over every BER point (uwb-telemetry-v2).
    let profile = stage_table(&telemetry);
    if !profile.is_empty() {
        println!("\nstage profile ({total_trials} trials, all points merged):");
        print!("{profile}");
    }
    // Worst trials across every point (seeds feed `smoke --replay-seed`,
    // though replaying a non-smoke scenario needs the matching config).
    if !telemetry.worst.is_empty() {
        print!("\n{}", uwb_obs::recorder::render_report(&telemetry.worst));
    }
    // Optional span-timeline export aggregated over every BER point.
    if let Some(path) = trace_arg(&args) {
        if let Err(e) = write_trace(&path, &telemetry) {
            eprintln!("--trace {path}: {e}");
            std::process::exit(1);
        }
    }

    println!(
        "expected shape (paper): the programmable RAKE + 4-bit channel estimate\n\
         recovers the multipath energy; a single finger loses a growing fraction\n\
         of the energy as delay spread rises from CM1 to CM3. Once the spread\n\
         exceeds the 10 ns symbol, symbol-rate ISI raises the RAKE's floor and\n\
         the Viterbi (MLSE) demodulator recovers it — the paper's §1 claim that\n\
         \"the ISI due to multipath can be addressed with a Viterbi demodulator\"."
    );
}
