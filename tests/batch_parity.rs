//! Batch-width invariance gate for the structure-of-arrays trial runtime
//! (`scripts/check.sh batch`).
//!
//! The batched stage-sweep path (`LinkWorker::trial_batch_ber_streamed`
//! under `MonteCarlo::run_batched`) promises that the batch width `B` and
//! the worker-thread count are pure performance knobs: for any
//! `B ∈ {1, 2, 4, 8}` and any thread count, a run is **bit-identical** to
//! the `B = 1`, single-thread reference — BER counters, stop reason, trial
//! count, the order-independent telemetry fingerprint, the deterministic
//! telemetry JSON, and the rendered worst-trial flight-recorder report.
//!
//! The property holds because every trial re-derives its RNG from
//! `derive_trial_seed(master, t)` at each sweep boundary and the engine
//! merges chunk results in trial order, so neither the sweep interleaving
//! nor the scheduling can leak into any observable output.

use proptest::prelude::*;
use std::sync::OnceLock;
use uwb_phy::Gen2Config;
use uwb_platform::link::{
    run_ber_fast_streamed_tuned, BerRun, LinkScenario, TrialBudget, DEFAULT_STREAM_BLOCK,
};

/// Small-but-real operating point: 6 dB AWGN reaches the error target well
/// inside the trial budget, so the stop reason exercises the early-stop
/// path (not budget truncation) in every run.
fn scenario() -> LinkScenario {
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    LinkScenario::awgn(config, 6.0, 20050307)
}

const PAYLOAD_LEN: usize = 24;
const TARGET_ERRORS: u64 = 12;
const MAX_BITS: u64 = 80_000;
const BUDGET: TrialBudget = TrialBudget { max_trials: 400 };

/// One run at the given batch width and thread count.
fn run_with(batch: u64, threads: usize) -> BerRun {
    run_ber_fast_streamed_tuned(
        &scenario(),
        PAYLOAD_LEN,
        DEFAULT_STREAM_BLOCK,
        TARGET_ERRORS,
        MAX_BITS,
        BUDGET,
        Some(batch),
        Some(threads),
    )
}

/// The `B = 1`, single-thread reference run (computed once; every property
/// case compares against this one).
fn reference() -> &'static BerRun {
    static REF: OnceLock<BerRun> = OnceLock::new();
    REF.get_or_init(|| run_with(1, 1))
}

/// Asserts the full observable surface of `run` matches the reference.
fn assert_matches_reference(run: &BerRun, batch: u64, threads: usize) {
    let reference = reference();
    let tag = format!("(B={batch}, threads={threads})");
    assert_eq!(run.counter, reference.counter, "BER counter differs {tag}");
    assert_eq!(run.stop, reference.stop, "stop reason differs {tag}");
    assert_eq!(run.stats.trials, reference.stats.trials, "trial count differs {tag}");
    assert_eq!(
        run.stats.telemetry.fingerprint(),
        reference.stats.telemetry.fingerprint(),
        "telemetry fingerprint differs {tag}"
    );
    assert_eq!(
        run.stats.telemetry.to_json_deterministic(),
        reference.stats.telemetry.to_json_deterministic(),
        "deterministic telemetry JSON differs {tag}"
    );
    assert_eq!(
        uwb_obs::recorder::render_report(&run.stats.telemetry.worst),
        uwb_obs::recorder::render_report(&reference.stats.telemetry.worst),
        "flight-recorder report differs {tag}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random (batch, threads) points from the gate grid all reproduce the
    /// reference bit-for-bit.
    #[test]
    fn batched_run_is_batch_and_thread_invariant(
        batch in prop_oneof![Just(1u64), Just(2u64), Just(4u64), Just(8u64)],
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let run = run_with(batch, threads);
        assert_matches_reference(&run, batch, threads);
    }
}

/// Exhaustive sweep of the acceptance grid `B ∈ {1, 2, 4, 8} ×
/// threads ∈ {1, 2, 4, 8}` — the proptest above samples this space, this
/// test guarantees every cell is covered in one `check.sh batch` run.
#[test]
fn batch_grid_is_exhaustively_invariant() {
    let reference = reference();
    assert!(
        !reference.stop.truncated(),
        "reference run truncated by the trial budget — the gate scenario \
         must reach its error target"
    );
    assert!(reference.counter.errors >= TARGET_ERRORS, "reference run found no errors");
    for batch in [1u64, 2, 4, 8] {
        for threads in [1usize, 2, 4, 8] {
            let run = run_with(batch, threads);
            assert_matches_reference(&run, batch, threads);
        }
    }
}

/// `UWB_BATCH` drives the default-path runners the same way the explicit
/// argument does: a run with the env var set equals the tuned run with the
/// same width. (Kept in this single-threaded-harness file because env vars
/// are process-global.)
#[test]
fn env_batch_override_matches_explicit_batch() {
    // Serialize against other tests in this binary touching the env.
    std::env::set_var("UWB_BATCH", "4");
    std::env::set_var("UWB_THREADS", "1");
    let via_env = run_ber_fast_streamed_tuned(
        &scenario(),
        PAYLOAD_LEN,
        DEFAULT_STREAM_BLOCK,
        TARGET_ERRORS,
        MAX_BITS,
        BUDGET,
        None,
        None,
    );
    std::env::remove_var("UWB_BATCH");
    std::env::remove_var("UWB_THREADS");
    let explicit = run_with(4, 1);
    assert_eq!(via_env.counter, explicit.counter);
    assert_eq!(via_env.stop, explicit.stop);
    assert_eq!(
        via_env.stats.telemetry.fingerprint(),
        explicit.stats.telemetry.fingerprint()
    );
    assert_matches_reference(&via_env, 4, 1);
}
