//! Deterministic work counters of the preamble correlator.
//!
//! One full-path smoke trial (nominal gen2 config with 2 preamble repeats,
//! AWGN at 6 dB, 24-byte payload, fixed seed) must spend exactly the pinned
//! number of correlator lags and chip-stage adds in coarse acquisition and
//! channel estimation. The counts depend only on the algorithm and the
//! record geometry, so a change that evaluates more lags, estimates the
//! channel twice, or falls back to a denser correlation fails here on any
//! machine.
//!
//! The counters are process-wide, so this binary holds a single test.

use uwb_phy::Gen2Config;
use uwb_platform::link::{LinkOutcome, LinkScenario, LinkWorker};
use uwb_sim::Rand;

const COUNTERS: [&str; 4] = ["acq_lags", "acq_chip_adds", "chanest_lags", "chanest_chip_adds"];

fn counter(name: &str) -> u64 {
    uwb_obs::registered_counters()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| v)
}

#[test]
fn smoke_trial_correlator_work_is_pinned() {
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let scenario = LinkScenario::awgn(config, 6.0, 0x5eed);
    let mut worker = LinkWorker::new(&scenario);
    let mut outcome = LinkOutcome::default();
    let before = COUNTERS.map(counter);
    worker.trial_full(&scenario, 24, &mut Rand::new(1), &mut outcome);
    let spent: Vec<u64> = COUNTERS.iter().zip(before).map(|(n, b)| counter(n) - b).collect();
    assert_eq!((outcome.packets, outcome.sync_failures), (1, 0), "the smoke trial acquires");
    if !uwb_obs::enabled() {
        assert_eq!(spent, [0; 4]);
        return;
    }
    // Acquisition: one preamble period (127 slots × 10 samples) plus the
    // 8-sample CIR lead = 1,278 lags. The chip stage builds two pair rails
    // of 5,120 − 20 values (2 adds each) and adds 64 terms (63 chip pairs
    // + 1 single chip) per lag on both rails: 10,200 + 2·1,278·64.
    //
    // Channel estimation: one 64-lag estimate (the acquired lock reuses
    // the known-timing estimate): pair rails 2·(2,688 − 20), then
    // 2·64·64 term adds.
    assert_eq!(spent, [1_278, 173_784, 64, 13_528]);
}
