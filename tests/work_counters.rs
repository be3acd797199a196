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
//! The counters are telemetry histograms (`count` = calls, `sum` = work),
//! so they ride the per-thread snapshot and a run's `RunStats::telemetry`.

use uwb_obs::Telemetry;
use uwb_phy::Gen2Config;
use uwb_platform::link::{
    run_ber_fast_streamed_tuned, LinkOutcome, LinkScenario, LinkWorker, TrialBudget,
    DEFAULT_STREAM_BLOCK,
};
use uwb_sim::Rand;

const COUNTERS: [&str; 4] = ["acq_lags", "acq_chip_adds", "chanest_lags", "chanest_chip_adds"];

fn scenario() -> LinkScenario {
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    LinkScenario::awgn(config, 6.0, 0x5eed)
}

/// `(calls, work total)` of a counter histogram; zeros when never recorded.
fn counter(t: &Telemetry, name: &str) -> (u64, u64) {
    t.hist(name).map_or((0, 0), |h| (h.count, h.sum))
}

#[test]
fn smoke_trial_correlator_work_is_pinned() {
    let scenario = scenario();
    let mut worker = LinkWorker::new(&scenario);
    let mut outcome = LinkOutcome::default();
    let _ = uwb_obs::take_thread_telemetry();
    worker.trial_full(&scenario, 24, &mut Rand::new(1), &mut outcome);
    let telemetry = uwb_obs::take_thread_telemetry();
    let spent: Vec<u64> = COUNTERS.iter().map(|n| counter(&telemetry, n).1).collect();
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
    let calls: Vec<u64> = COUNTERS.iter().map(|n| counter(&telemetry, n).0).collect();
    assert_eq!(calls, [1; 4], "one acquisition and one channel estimate");
}

#[test]
fn fast_runner_work_counters_are_thread_invariant() {
    let scenario = scenario();
    let run = |threads: usize| {
        run_ber_fast_streamed_tuned(
            &scenario,
            24,
            DEFAULT_STREAM_BLOCK,
            u64::MAX,
            u64::MAX,
            TrialBudget { max_trials: 40 },
            None,
            Some(threads),
        )
    };
    let (one, two) = (run(1), run(2));
    assert_eq!(one.stats.trials, two.stats.trials);
    for name in COUNTERS {
        assert_eq!(
            counter(&one.stats.telemetry, name),
            counter(&two.stats.telemetry, name),
            "{name} depends on the thread count"
        );
    }
    if !uwb_obs::enabled() {
        assert!(one.stats.telemetry.is_empty());
        return;
    }
    // The known-timing path never acquires and estimates the channel once
    // per trial over the 64-lag window.
    let trials = one.stats.trials;
    assert_eq!(trials, 40);
    assert_eq!(counter(&one.stats.telemetry, "acq_lags"), (0, 0));
    assert_eq!(
        counter(&one.stats.telemetry, "chanest_lags"),
        (trials, 64 * trials)
    );
    assert_eq!(
        counter(&one.stats.telemetry, "chanest_chip_adds"),
        (trials, 13_528 * trials)
    );
}
