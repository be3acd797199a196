//! The four workloads: their inputs (a pure function of the run seed), the
//! set-up a user pays once, the measured operation, and the deterministic
//! fingerprint of each operation's result.
//!
//! Every operation goes through the library's public run entry point on
//! the deterministic Monte-Carlo engine, so its merged counters are
//! bit-identical for any thread count — the thread-parity check relies on
//! that contract.

use uwb::mac::{plan_mac, run_mac_plan_threads, MacLinkStats, MacPlan, MacScenario, MacWorker};
use uwb::net::{plan_network, run_plan_threads, LinkReport, NetPlan, NetScenario, NetWorker};
use uwb::phy::Gen2Config;
use uwb::platform::link::{
    run_ber_budgeted, run_ber_fast_streamed_tuned, LinkOutcome, LinkScenario, LinkWorker,
    TrialBudget, DEFAULT_STREAM_BLOCK,
};
use uwb::platform::metrics::ErrorCounter;
use uwb::sim::derive_trial_seed;
use uwb::sim::montecarlo::RunStats;
use uwb::sim::sv_channel::ChannelModel;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "link_acq_awgn",
    "link_ber_cm3",
    "net_ring_8user",
    "mac_city_1k",
];

/// Salt separating the benchmark's scenario seeds from the library's own
/// seed derivations.
const SEED_SALT: u64 = 0x7065_7266_6265_6e63;

// --- link_acq_awgn: full path (acquisition → packet decode + known-timing
// BER) over AWGN, stopped on an error target. ---
/// Eb/N0 of the acquisition workload (the smoke / dspbench operating point).
pub const ACQ_EBN0_DB: f64 = 6.0;
/// Payload bytes per packet on the acquisition workload.
pub const ACQ_PAYLOAD: usize = 24;
/// Bit errors that end one BER point (the fixed-confidence stop rule).
pub const ACQ_TARGET_ERRORS: u64 = 1_500;

// --- link_ber_cm3: the E5 waterfall cell on CM3 multipath. ---
/// Eb/N0 points of the CM3 waterfall cell.
pub const CM3_EBN0_DB: [f64; 3] = [6.0, 10.0, 14.0];
/// Payload bytes per packet on the CM3 workload (E5's payload).
pub const CM3_PAYLOAD: usize = 32;
/// Bit errors that end one CM3 point.
pub const CM3_TARGET_ERRORS: u64 = 1_000;
/// Bit budget that ends a CM3 point before its error target (high Eb/N0).
pub const CM3_MAX_BITS: u64 = 1_000_000;

// --- net_ring_8user: the 8-user ring, round-robin channels. ---
/// Links in the ring.
pub const NET_USERS: usize = 8;
/// Receiver Eb/N0 on the ring (netbench's operating point).
pub const NET_EBN0_DB: f64 = 8.0;
/// Rounds per measured operation.
pub const NET_ROUNDS: u64 = 96;

// --- mac_city_1k: the 1,000-user clustered city. ---
/// Clusters × links per cluster = 1,000 users.
pub const MAC_CLUSTERS: usize = 100;
/// Links per cluster.
pub const MAC_PER_CLUSTER: usize = 10;
/// Receiver Eb/N0 in the city (macbench's operating point).
pub const MAC_EBN0_DB: f64 = 9.0;
/// Offered load per link in Erlang.
pub const MAC_LOAD: f64 = 1.0;
/// Arrival horizon in sense slots.
pub const MAC_HORIZON_SLOTS: u64 = 30;
/// Replications per measured operation (≥ the engine's thread count, so
/// an engine that spreads replications over workers can show it).
pub const MAC_REPLICATIONS: u64 = 2;

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One gen2 link, full path with acquisition, AWGN.
    LinkAcqAwgn,
    /// Known-timing batched fast path on CM3 multipath.
    LinkBerCm3,
    /// 8-user ring network.
    NetRing8,
    /// 1,000-user clustered-city MAC.
    MacCity1k,
}

impl Kind {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "link_acq_awgn" => Some(Kind::LinkAcqAwgn),
            "link_ber_cm3" => Some(Kind::LinkBerCm3),
            "net_ring_8user" => Some(Kind::NetRing8),
            "mac_city_1k" => Some(Kind::MacCity1k),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LinkAcqAwgn => NAMES[0],
            Kind::LinkBerCm3 => NAMES[1],
            Kind::NetRing8 => NAMES[2],
            Kind::MacCity1k => NAMES[3],
        }
    }
}

/// The library seed a workload's scenario is built from.
pub fn scenario_seed(kind: Kind, run_seed: u64) -> u64 {
    derive_trial_seed(run_seed ^ SEED_SALT, kind as u64)
}

/// The 100 Mbps gen2 configuration with the repo's fast-test preamble
/// (two periods), shared by every workload.
pub fn gen2_config() -> Gen2Config {
    Gen2Config {
        preamble_repeats: 2,
        ..Gen2Config::nominal_100mbps()
    }
}

/// The acquisition workload's link.
pub fn acq_scenario(seed: u64) -> LinkScenario {
    LinkScenario::awgn(gen2_config(), ACQ_EBN0_DB, seed)
}

/// One CM3 waterfall point (RAKE-8, 4-bit channel estimate).
pub fn cm3_scenario(seed: u64, point: usize) -> LinkScenario {
    LinkScenario {
        channel: ChannelModel::Cm3,
        ..LinkScenario::awgn(
            gen2_config(),
            CM3_EBN0_DB[point],
            derive_trial_seed(seed, point as u64),
        )
    }
}

/// The 8-user ring scenario.
pub fn net_scenario(seed: u64) -> NetScenario {
    let mut sc = NetScenario::ring(NET_USERS, NET_EBN0_DB, seed);
    sc.base_config = gen2_config();
    sc.rounds = NET_ROUNDS;
    sc
}

/// The 1,000-user city scenario.
pub fn mac_scenario(seed: u64) -> MacScenario {
    let mut sc =
        MacScenario::clustered_city(MAC_CLUSTERS, MAC_PER_CLUSTER, MAC_EBN0_DB, MAC_LOAD, seed);
    sc.horizon_slots = MAC_HORIZON_SLOTS;
    sc.replications = MAC_REPLICATIONS;
    sc
}

/// Everything a workload's operations need, built once per run.
pub enum Prepared {
    /// The acquisition link.
    LinkAcq(LinkScenario),
    /// The CM3 waterfall points.
    LinkCm3(Vec<LinkScenario>),
    /// The planned ring.
    Net(NetPlan),
    /// The planned city. `None` only while an operation holds the plan.
    Mac(Option<MacPlan>),
}

/// Builds a workload's inputs and pays its one-time set-up: scenario →
/// plan (coupling graph, probe synthesis) and the per-thread worker a
/// user's first run constructs. None of it depends on a channel draw, so
/// its cost depends on the scenario alone.
pub fn setup(kind: Kind, run_seed: u64) -> Prepared {
    let seed = scenario_seed(kind, run_seed);
    match kind {
        Kind::LinkAcqAwgn => {
            let sc = acq_scenario(seed);
            drop(LinkWorker::new(&sc));
            Prepared::LinkAcq(sc)
        }
        Kind::LinkBerCm3 => {
            let points: Vec<LinkScenario> = (0..CM3_EBN0_DB.len())
                .map(|p| cm3_scenario(seed, p))
                .collect();
            drop(LinkWorker::new(&points[0]));
            Prepared::LinkCm3(points)
        }
        Kind::NetRing8 => {
            let plan = plan_network(&net_scenario(seed));
            drop(NetWorker::new(&plan));
            Prepared::Net(plan)
        }
        Kind::MacCity1k => {
            let plan = plan_mac(&mac_scenario(seed));
            drop(MacWorker::new(&plan));
            Prepared::Mac(Some(plan))
        }
    }
}

/// The outcome of one measured operation.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Simulated frames: link trials, link frames of net rounds, or MAC
    /// data frames including retransmissions.
    pub frames: u64,
    /// Deterministic digest of every counter the operation produced.
    pub fingerprint: String,
    /// Engine trials that contributed to the result.
    pub trials: u64,
    /// Engine trials executed (overrun chunks included).
    pub trials_executed: u64,
    /// Host seconds the operation took.
    pub wall_s: f64,
    /// Conservation laws the result must satisfy, as violations (empty
    /// when the result is self-consistent).
    pub violations: Vec<String>,
    /// Contributing trials per waterfall point (`link_ber_cm3` only).
    pub point_trials: Vec<u64>,
}

/// Runs one measured operation at `threads` engine workers.
pub fn run_op(prep: &mut Prepared, threads: usize) -> OpResult {
    let t0 = std::time::Instant::now();
    let mut r = match prep {
        Prepared::LinkAcq(sc) => {
            // `run_ber_budgeted` takes its worker count from the
            // environment; the caller runs no other thread while setting it.
            std::env::set_var("UWB_THREADS", threads.to_string());
            let run = run_ber_budgeted(
                sc,
                ACQ_PAYLOAD,
                ACQ_TARGET_ERRORS,
                u64::MAX,
                TrialBudget::default(),
            );
            let mut r = engine_result(
                &run.stats,
                run.outcome.packets,
                link_fingerprint(&run.outcome),
            );
            r.violations = link_violations(&run.outcome, ACQ_PAYLOAD, run.stats.trials);
            if run.stop.truncated() {
                r.violations
                    .push("acquisition run truncated by its trial budget".into());
            }
            r
        }
        Prepared::LinkCm3(points) => {
            let mut frames = 0;
            let mut trials = 0;
            let mut executed = 0;
            let mut fp = Vec::new();
            let mut violations = Vec::new();
            let mut point_trials = Vec::new();
            for sc in points.iter() {
                let run = run_ber_fast_streamed_tuned(
                    sc,
                    CM3_PAYLOAD,
                    DEFAULT_STREAM_BLOCK,
                    CM3_TARGET_ERRORS,
                    CM3_MAX_BITS,
                    TrialBudget::default(),
                    None,
                    Some(threads),
                );
                frames += run.stats.trials;
                trials += run.stats.trials;
                executed += run.stats.trials_executed;
                fp.push(cm3_point_fingerprint(sc, &run.counter, run.stats.trials));
                point_trials.push(run.stats.trials);
                let bits = payload_bits(CM3_PAYLOAD) * run.stats.trials;
                if run.counter.total != bits {
                    violations.push(format!(
                        "{} dB: {} bits counted, {bits} sent",
                        sc.ebn0_db, run.counter.total
                    ));
                }
                if run.stop.truncated() {
                    violations.push(format!(
                        "{} dB point truncated by its trial budget",
                        sc.ebn0_db
                    ));
                }
            }
            OpResult {
                frames,
                fingerprint: fp.join(";"),
                trials,
                trials_executed: executed,
                wall_s: 0.0,
                violations,
                point_trials,
            }
        }
        Prepared::Net(plan) => {
            let report = run_plan_threads(plan.clone(), threads);
            let packets: u64 = report.links.iter().map(|l| l.packets).sum();
            let mut r = engine_result(&report.stats, packets, net_fingerprint(&report.links));
            for (l, link) in report.links.iter().enumerate() {
                if link.packets != plan.rounds {
                    r.violations.push(format!(
                        "link {l}: {} packets in {} rounds",
                        link.packets, plan.rounds
                    ));
                }
            }
            r
        }
        Prepared::Mac(slot) => {
            let plan = slot.take().expect("MAC plan present between operations");
            let report = run_mac_plan_threads(plan, threads);
            let stats: Vec<MacLinkStats> = report.links.iter().map(|l| l.stats.clone()).collect();
            let tx: u64 = stats.iter().map(|s| s.tx_frames).sum();
            let mut r = engine_result(&report.stats, tx, mac_fingerprint(&stats));
            r.violations = mac_violations(&stats);
            *slot = Some(report.plan);
            r
        }
    };
    r.wall_s = t0.elapsed().as_secs_f64();
    r
}

fn engine_result(stats: &RunStats, frames: u64, fingerprint: String) -> OpResult {
    OpResult {
        frames,
        fingerprint,
        trials: stats.trials,
        trials_executed: stats.trials_executed,
        wall_s: 0.0,
        violations: Vec::new(),
        point_trials: Vec::new(),
    }
}

/// Payload + FCS bits one packet of `sc` carries into the BER counter.
pub fn payload_bits(payload_len: usize) -> u64 {
    8 * (payload_len as u64 + 4)
}

/// Fingerprint of one CM3 waterfall point.
pub fn cm3_point_fingerprint(sc: &LinkScenario, c: &ErrorCounter, trials: u64) -> String {
    format!(
        "{}dB:bits={},errors={},trials={trials}",
        sc.ebn0_db, c.total, c.errors
    )
}

/// Fingerprint of a full-path link outcome.
pub fn link_fingerprint(o: &LinkOutcome) -> String {
    format!(
        "packets={},packets_ok={},sync_failures={},bits={},errors={}",
        o.packets, o.packets_ok, o.sync_failures, o.ber.total, o.ber.errors
    )
}

fn link_violations(o: &LinkOutcome, payload_len: usize, trials: u64) -> Vec<String> {
    let mut v = Vec::new();
    if o.packets != trials {
        v.push(format!("{} packets in {trials} trials", o.packets));
    }
    if o.packets_ok + o.sync_failures > o.packets {
        v.push("more packet outcomes than packets".into());
    }
    if o.ber.total > payload_bits(payload_len) * o.packets {
        v.push("more BER bits than were sent".into());
    }
    v
}

/// 64-bit FNV-1a over a word stream: the compact digest of per-link
/// counters that are too many to print.
pub fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Fingerprint of a network run: totals, the aggregate goodput, and a
/// digest of every link's counters.
pub fn net_fingerprint(links: &[LinkReport]) -> String {
    let bits: u64 = links.iter().map(|l| l.counter.total).sum();
    let errors: u64 = links.iter().map(|l| l.counter.errors).sum();
    let packets: u64 = links.iter().map(|l| l.packets).sum();
    let bad: u64 = links.iter().map(|l| l.packets_bad).sum();
    let aggregate: f64 = links.iter().map(|l| l.throughput_bps).sum();
    let h = fnv64(
        links
            .iter()
            .flat_map(|l| [l.counter.total, l.counter.errors, l.packets, l.packets_bad])
            .chain([aggregate.to_bits()]),
    );
    format!(
        "links={},bits={bits},errors={errors},packets={packets},packets_bad={bad},aggregate_mbps={:.6},h={h:016x}",
        links.len(),
        aggregate / 1e6
    )
}

/// Fingerprint of a MAC run: traffic totals and a digest of every link's
/// counters.
pub fn mac_fingerprint(stats: &[MacLinkStats]) -> String {
    let sum = |f: fn(&MacLinkStats) -> u64| stats.iter().map(f).sum::<u64>();
    let h = fnv64(stats.iter().flat_map(|s| {
        [
            s.offered,
            s.delivered,
            s.dropped_queue,
            s.dropped_retry,
            s.tx_frames,
            s.defers,
            s.retries,
            s.decode_failures,
            s.ack_losses,
            s.latency_slots_sum,
            s.latency_slots_max,
            s.queue_delay_slots_sum,
            s.ber.total,
            s.ber.errors,
        ]
    }));
    format!(
        "offered={},delivered={},dropped={},latency_slots_sum={},tx_frames={},h={h:016x}",
        sum(|s| s.offered),
        sum(|s| s.delivered),
        sum(|s| s.dropped_queue + s.dropped_retry),
        sum(|s| s.latency_slots_sum),
        sum(|s| s.tx_frames),
    )
}

fn mac_violations(stats: &[MacLinkStats]) -> Vec<String> {
    let mut v = Vec::new();
    for (l, s) in stats.iter().enumerate() {
        if s.offered != s.delivered + s.dropped_queue + s.dropped_retry {
            v.push(format!("link {l}: offered != delivered + dropped"));
        }
        if s.tx_frames < s.delivered || s.retries > s.tx_frames {
            v.push(format!("link {l}: frame counts inconsistent"));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for name in NAMES {
            assert_eq!(Kind::from_name(name).expect("known").name(), name);
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn scenario_seed_depends_on_seed_and_workload() {
        let a = scenario_seed(Kind::LinkAcqAwgn, 1);
        assert_eq!(a, scenario_seed(Kind::LinkAcqAwgn, 1));
        assert_ne!(a, scenario_seed(Kind::LinkAcqAwgn, 2));
        assert_ne!(a, scenario_seed(Kind::LinkBerCm3, 1));
    }

    #[test]
    fn fnv_digest_is_order_sensitive() {
        assert_eq!(fnv64([1, 2]), fnv64([1, 2]));
        assert_ne!(fnv64([1, 2]), fnv64([2, 1]));
    }
}
