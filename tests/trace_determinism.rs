//! Determinism contracts of the span timeline and the worst-trial flight
//! recorder, across worker thread counts.
//!
//! Span wall-clock fields (`start_ns`, `dur_ns`, `thread`) are explicitly
//! excluded; what must be bit-identical for any thread count is the span
//! **(name, trial) sequence** (pinned by `Telemetry::trace_fingerprint`),
//! the drop counter, and the flight recorder's rendered worst-K report
//! (which contains no wall-clock fields at all). Thread counts are pinned
//! through the engine's explicit override so these tests never race others
//! on the `UWB_THREADS` environment variable.

use uwb_phy::Gen2Config;
use uwb_platform::link::{LinkScenario, LinkWorker, DEFAULT_STREAM_BLOCK};
use uwb_platform::ErrorCounter;
use uwb_sim::MonteCarlo;

const SEED: u64 = 20050307;

fn scenario() -> LinkScenario {
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    LinkScenario::awgn(config, 6.0, SEED)
}

/// A small engine-backed link run with an explicit worker count.
fn link_run(threads: usize) -> uwb_sim::montecarlo::RunOutcome<ErrorCounter> {
    let sc = scenario();
    MonteCarlo::new(SEED, 48)
        .threads(threads)
        .chunk_size(8)
        .run(
            || LinkWorker::new(&sc),
            |w, _trial, rng, acc: &mut ErrorCounter| {
                w.trial_ber_streamed(&sc, 24, DEFAULT_STREAM_BLOCK, rng, acc)
            },
            |_| false,
        )
}

#[test]
fn link_trace_and_recorder_are_thread_invariant() {
    let reference = link_run(1);
    let ref_report = uwb_obs::recorder::render_report(&reference.stats.telemetry.worst);
    for threads in [2, 4, 8] {
        let got = link_run(threads);
        assert_eq!(got.value, reference.value, "{threads} threads changed the counter");
        assert_eq!(
            got.stats.telemetry.trace_fingerprint(),
            reference.stats.telemetry.trace_fingerprint(),
            "{threads} threads changed the span (name, trial) sequence"
        );
        assert_eq!(
            got.stats.telemetry.spans.len(),
            reference.stats.telemetry.spans.len(),
            "{threads} threads changed the span count"
        );
        assert_eq!(
            got.stats.telemetry.spans_dropped, reference.stats.telemetry.spans_dropped,
            "{threads} threads changed the span drop count"
        );
        assert_eq!(
            uwb_obs::recorder::render_report(&got.stats.telemetry.worst),
            ref_report,
            "{threads} threads changed the flight-recorder report"
        );
    }

    if uwb_obs::trace::enabled() {
        // Timelines are on: every trial leaves spans, and the export is
        // valid Chrome Trace Event JSON.
        let telem = &reference.stats.telemetry;
        assert!(!telem.spans.is_empty(), "obs-trace build recorded no spans");
        let doc = uwb_obs::trace::export_chrome(&telem.spans);
        let v = uwb_obs::json::parse(&doc).expect("chrome trace export must be valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), telem.spans.len());
    } else {
        assert!(reference.stats.telemetry.spans.is_empty());
    }

    if uwb_obs::enabled() {
        // The recorder kept real trials, worst first, with replayable seeds.
        let worst = &reference.stats.telemetry.worst;
        assert!(!worst.is_empty(), "instrumented run recorded no worst trials");
        for w in worst.windows(2) {
            assert!(w[0].sort_key() <= w[1].sort_key(), "report not worst-first");
        }
        assert_eq!(worst[0].seed, uwb_sim::derive_trial_seed(SEED, worst[0].trial));
    }
}

#[test]
fn net_trace_and_recorder_are_thread_invariant() {
    let mut sc = uwb_net::NetScenario::ring(6, 7.0, SEED ^ 0x51);
    sc.rounds = 6;
    let plan = uwb_net::plan_network(&sc);
    let serial = uwb_net::run_plan_threads(plan.clone(), 1);
    let threaded = uwb_net::run_plan_threads(plan, 4);

    assert_eq!(
        serial.stats.telemetry.trace_fingerprint(),
        threaded.stats.telemetry.trace_fingerprint(),
        "network span sequence depends on thread count"
    );
    assert_eq!(
        uwb_obs::recorder::render_report(&serial.stats.telemetry.worst),
        uwb_obs::recorder::render_report(&threaded.stats.telemetry.worst),
        "network flight-recorder report depends on thread count"
    );
    if uwb_obs::enabled() {
        // One observation per round: the recorder scores whole rounds.
        assert!(!serial.stats.telemetry.worst.is_empty());
        assert!(serial.stats.telemetry.worst.len() as u64 <= serial.stats.trials);
    }
}

#[test]
fn mac_telemetry_and_recorder_are_thread_invariant() {
    // 3 replications, one per engine pull: at 2 threads one worker runs
    // two and the other one, so the merge really crosses workers.
    let mut sc = uwb_mac::MacScenario::ring(4, 9.0, 1.0, SEED ^ 0x3ac);
    sc.horizon_slots = 250;
    sc.replications = 3;
    let reference = uwb_mac::run_mac_plan_threads(uwb_mac::plan_mac(&sc), 1);
    let telem = &reference.stats.telemetry;
    for threads in [2, 4] {
        let got = uwb_mac::run_mac_plan_threads(uwb_mac::plan_mac(&sc), threads);
        assert_eq!(got.stats.threads, threads.min(3));
        assert_eq!(
            got.stats.telemetry.to_json_deterministic(),
            telem.to_json_deterministic(),
            "{threads} threads changed the MAC telemetry"
        );
        assert_eq!(
            got.stats.telemetry.trace_fingerprint(),
            telem.trace_fingerprint(),
            "{threads} threads changed the MAC span sequence"
        );
        assert_eq!(
            uwb_obs::recorder::render_report(&got.stats.telemetry.worst),
            uwb_obs::recorder::render_report(&telem.worst),
            "{threads} threads changed the MAC flight-recorder report"
        );
    }
    if uwb_obs::enabled() {
        assert!(!telem.is_empty(), "instrumented MAC run recorded nothing");
    }
}

/// The ISSUE's acceptance run: a 1,000-user clustered city round whose
/// exported trace and flight-recorder report are bit-identical for
/// `UWB_THREADS` ∈ {1, 2, 4, 8}. Minutes of work — run explicitly via
/// `scripts/check.sh obs` or `cargo test --test trace_determinism -- --ignored`.
#[test]
#[ignore]
fn city_1k_round_trace_is_thread_invariant() {
    let mut sc = uwb_net::NetScenario::clustered_city(100, 10, 8.0, 0x2005_0314);
    sc.rounds = 1;
    let plan = uwb_net::plan_network(&sc);

    let reference = uwb_net::run_plan_threads(plan.clone(), 1);
    let ref_fp = reference.stats.telemetry.trace_fingerprint();
    let ref_report = uwb_obs::recorder::render_report(&reference.stats.telemetry.worst);
    for threads in [2, 4, 8] {
        let got = uwb_net::run_plan_threads(plan.clone(), threads);
        assert_eq!(
            got.stats.telemetry.trace_fingerprint(),
            ref_fp,
            "{threads} threads changed the city trace"
        );
        assert_eq!(
            got.stats.telemetry.spans.len(),
            reference.stats.telemetry.spans.len()
        );
        assert_eq!(
            uwb_obs::recorder::render_report(&got.stats.telemetry.worst),
            ref_report,
            "{threads} threads changed the city flight-recorder report"
        );
    }

    if uwb_obs::trace::enabled() {
        // 3 spans per victim per round (schedule, mix, rx) plus decode spans:
        // the 1k-user round must fit the ring (no deterministic drops) and
        // export as valid Chrome Trace JSON.
        let telem = &reference.stats.telemetry;
        assert!(telem.spans.len() >= 3 * sc.len(), "city round under-recorded");
        let doc = uwb_obs::trace::export_chrome(&telem.spans);
        uwb_obs::json::parse(&doc).expect("city trace export must be valid JSON");
    }
}
