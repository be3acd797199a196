//! Ablation — the "programmable" RAKE finger count (paper §3).
//!
//! Sweeps the finger count on CM1 and CM3 at fixed Eb/N0, reporting the
//! captured channel energy, the measured BER, and the modeled power of the
//! RAKE block — the complexity/performance knob the paper's receiver
//! exposes.

use uwb_bench::{banner, EXPERIMENT_SEED};
use uwb_phy::power::PowerModel;
use uwb_phy::Gen2Config;
use uwb_platform::link::{
    run_ber_fast_streamed_tuned, LinkScenario, TrialBudget, DEFAULT_STREAM_BLOCK,
};
use uwb_platform::report::{format_rate, Table};
use uwb_sim::sv_channel::{ChannelModel, ChannelRealization};
use uwb_sim::Rand;

fn main() {
    println!(
        "{}",
        banner("A1", "ablation: RAKE finger count", "§3 'programmable' RAKE")
    );

    let ebn0 = 9.0;
    let fingers_grid = [1usize, 2, 4, 8, 16, 32];
    let model = PowerModel::cmos180();

    for channel in [ChannelModel::Cm1, ChannelModel::Cm3] {
        // Ensemble-average energy capture for context.
        let mut rng = Rand::new(EXPERIMENT_SEED);
        let mut capture = vec![0.0f64; fingers_grid.len()];
        let ensemble = 50;
        for _ in 0..ensemble {
            let ch = ChannelRealization::generate(channel, &mut rng);
            for (i, &n) in fingers_grid.iter().enumerate() {
                capture[i] += ch.energy_capture(n) / ensemble as f64;
            }
        }

        let mut table = Table::new(vec![
            "fingers",
            "mean energy capture",
            "BER",
            "RAKE block power (mW)",
        ]);
        for (i, &n) in fingers_grid.iter().enumerate() {
            let cfg = Gen2Config {
                rake_fingers: n,
                preamble_repeats: 2,
                ..Gen2Config::nominal_100mbps()
            };
            let c = run_ber_fast_streamed_tuned(
                &LinkScenario {
                    channel,
                    ..LinkScenario::awgn(cfg.clone(), ebn0, EXPERIMENT_SEED)
                },
                32,
                DEFAULT_STREAM_BLOCK,
                60,
                120_000,
                TrialBudget::default(),
                None,
                None,
            );
            let rake_mw = model
                .breakdown(&cfg)
                .blocks
                .iter()
                .find(|b| b.name.starts_with("RAKE"))
                .map(|b| b.mw)
                .unwrap_or(0.0);
            table.row(vec![
                n.to_string(),
                format!("{:.0} %", 100.0 * capture[i]),
                format_rate(c.errors, c.total),
                format!("{rake_mw:.2}"),
            ]);
        }
        println!("\nchannel {channel}, Eb/N0 = {ebn0} dB:\n{table}");
    }
    println!(
        "expected shape: BER improves steeply over the first few fingers\n\
         (each finger adds captured energy) and saturates once the remaining\n\
         paths are below the noise — while RAKE power grows linearly. The\n\
         knee position moves right from CM1 to CM3 (more dispersed energy),\n\
         which is exactly why the finger count is a *programmable* knob."
    );
}
