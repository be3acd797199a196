//! Schema gate for `uwb-telemetry-v2`: the hand-rolled `RunStats::to_json`
//! output must stay machine-parseable.
//!
//! The run report is rendered without serde (the repo vendors no JSON
//! library), which means nothing at compile time stops a stray `NaN`, a
//! missing comma, or a renamed key from landing in `BENCH_*.json` consumers.
//! This test closes the loop with the strict in-repo parser
//! ([`uwb_obs::json::parse`]): it parses a real engine run's report and pins
//! the key set, the value types, and the finiteness of every number (the
//! parser rejects `NaN`/`Infinity` tokens outright — they are not JSON).

use uwb_obs::json::{parse, Json};
use uwb_phy::Gen2Config;
use uwb_platform::link::{
    run_ber_fast_streamed_tuned, BerRun, LinkScenario, TrialBudget, DEFAULT_STREAM_BLOCK,
};

const SEED: u64 = 20050311;

/// A known-timing BER run of 24-byte payloads at the default block and
/// thread count.
fn fast_run(scenario: &LinkScenario, target_errors: u64, max_bits: u64, max_trials: u64) -> BerRun {
    run_ber_fast_streamed_tuned(
        scenario,
        24,
        DEFAULT_STREAM_BLOCK,
        target_errors,
        max_bits,
        TrialBudget { max_trials },
        None,
        None,
    )
}

/// A real (small) engine run whose report we validate.
fn run_report() -> String {
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let scenario = LinkScenario::awgn(config, 6.0, SEED);
    let run = fast_run(&scenario, 10, 50_000, 64);
    run.stats.to_json()
}

fn obj(v: &Json) -> &[(String, Json)] {
    v.as_obj().expect("expected a JSON object")
}

fn field<'a>(o: &'a [(String, Json)], key: &str) -> &'a Json {
    &o.iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
        .1
}

#[test]
fn run_stats_json_parses_and_matches_schema() {
    let json = run_report();
    let root = parse(&json).expect("RunStats::to_json must be valid JSON");
    let o = obj(&root);

    // Exact top-level key set, in order (consumers key on the schema tag).
    let keys: Vec<&str> = o.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "schema",
            "trials",
            "trials_executed",
            "wall_ms",
            "threads",
            "trials_per_sec",
            "stop_reason",
            "truncated",
            "telemetry",
        ],
        "top-level key set drifted"
    );

    assert_eq!(field(o, "schema").as_str(), Some("uwb-telemetry-v2"));
    let trials = field(o, "trials").as_num().expect("trials must be a number");
    assert!(trials >= 1.0 && trials.fract() == 0.0, "trials must be a whole count");
    let executed = field(o, "trials_executed").as_num().expect("number");
    assert!(executed >= trials, "executed ({executed}) < merged ({trials})");
    let wall_ms = field(o, "wall_ms").as_num().expect("wall_ms must be a number");
    assert!(wall_ms.is_finite() && wall_ms >= 0.0);
    let threads = field(o, "threads").as_num().expect("number");
    assert!(threads >= 1.0 && threads.fract() == 0.0);
    // trials_per_sec is a finite number or an explicit null (untimed run) —
    // never NaN (the parser would already have rejected that).
    match field(o, "trials_per_sec") {
        Json::Null => {}
        v => assert!(v.as_num().expect("number or null").is_finite()),
    }
    assert!(field(o, "stop_reason").as_str().is_some());
    assert!(field(o, "truncated").as_bool().is_some());

    // The embedded telemetry object is the deterministic form: stages carry
    // name + calls only (no wall-clock ns), events name + count, hists
    // name/count/sum/bins, and (new in v2) quantiles
    // name/count/p50/p95/p99/max.
    let telem = obj(field(o, "telemetry"));
    let tkeys: Vec<&str> = telem.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(tkeys, ["stages", "events", "hists", "quantiles"]);

    let stages = field(telem, "stages").as_arr().expect("stages array");
    if uwb_obs::enabled() {
        assert!(!stages.is_empty(), "instrumented run produced no stage stats");
    }
    for st in stages {
        let st = obj(st);
        let keys: Vec<&str> = st.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "calls"], "stage entry drifted (ns must stay out)");
        assert!(field(st, "name").as_str().is_some());
        assert!(field(st, "calls").as_num().expect("number") >= 1.0);
    }
    for ev in field(telem, "events").as_arr().expect("events array") {
        let ev = obj(ev);
        let keys: Vec<&str> = ev.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "count"]);
        assert!(field(ev, "count").as_num().expect("number") >= 1.0);
    }
    for h in field(telem, "hists").as_arr().expect("hists array") {
        let h = obj(h);
        let keys: Vec<&str> = h.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "count", "sum", "bins"]);
        let count = field(h, "count").as_num().expect("number");
        let mut bin_total = 0.0;
        for pair in field(h, "bins").as_arr().expect("bins array") {
            let pair = pair.as_arr().expect("bin pair");
            assert_eq!(pair.len(), 2, "bins are [bin, count] pairs");
            let bin = pair[0].as_num().expect("bin index");
            assert!((0.0..=63.0).contains(&bin), "log2 bin out of range: {bin}");
            bin_total += pair[1].as_num().expect("bin count");
        }
        assert_eq!(bin_total, count, "histogram bins must sum to its count");
    }

    // v2 quantile digests: every entry carries finite, ordered percentiles.
    let quantiles = field(telem, "quantiles").as_arr().expect("quantiles array");
    let mut saw_trial_bit_errors = false;
    for q in quantiles {
        let q = obj(q);
        let keys: Vec<&str> = q.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "count", "p50", "p95", "p99", "max"]);
        let name = field(q, "name").as_str().expect("digest name");
        saw_trial_bit_errors |= name == "trial_bit_errors";
        assert!(field(q, "count").as_num().expect("number") >= 1.0);
        let p50 = field(q, "p50").as_num().expect("p50 number");
        let p95 = field(q, "p95").as_num().expect("p95 number");
        let p99 = field(q, "p99").as_num().expect("p99 number");
        let max = field(q, "max").as_num().expect("max number");
        for v in [p50, p95, p99, max] {
            assert!(v.is_finite() && v >= 0.0, "{name}: non-finite percentile");
        }
        assert!(p50 <= p95 && p95 <= p99 && p99 <= max, "{name}: unordered percentiles");
    }
    if uwb_obs::enabled() {
        assert!(
            saw_trial_bit_errors,
            "instrumented link run must report a trial_bit_errors digest"
        );
    }
}

#[test]
fn run_stats_json_has_no_non_finite_numbers() {
    // The strict parser rejects NaN / Infinity / -Infinity tokens, so a
    // successful parse already proves finiteness. Belt and braces: the raw
    // text must not smuggle them in as strings either.
    let json = run_report();
    parse(&json).expect("valid JSON");
    for needle in ["NaN", "nan", "Infinity", "inf"] {
        assert!(
            !json.contains(needle),
            "report text contains non-finite token {needle:?}: {json}"
        );
    }
}

#[test]
fn telemetry_json_roundtrips_through_the_parser() {
    // Both telemetry forms (timed and deterministic) parse; the timed form
    // adds exactly one key ("ns") per stage entry.
    let config = Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    };
    let scenario = LinkScenario::awgn(config, 6.0, SEED);
    let run = fast_run(&scenario, 5, 20_000, 16);
    let timed = parse(&run.stats.telemetry.to_json()).expect("timed form parses");
    let det = parse(&run.stats.telemetry.to_json_deterministic()).expect("det form parses");
    let timed_stages = field(obj(&timed), "stages").as_arr().unwrap();
    let det_stages = field(obj(&det), "stages").as_arr().unwrap();
    assert_eq!(timed_stages.len(), det_stages.len());
    for (t, d) in timed_stages.iter().zip(det_stages) {
        assert_eq!(obj(t).len(), obj(d).len() + 1, "timed adds exactly `ns`");
        assert!(field(obj(t), "ns").as_num().expect("ns number") >= 0.0);
    }
}
