//! The measurement phase: replaying a frozen [`NetPlan`] on the
//! deterministic parallel Monte-Carlo engine.
//!
//! One engine *trial* is one network *round*: every link transmits one
//! packet simultaneously; every receiver decodes its own packet out of the
//! superposition of its clean waveform, every coupled foreign waveform
//! (fixed ascending-transmitter mixing order), and its calibrated receiver
//! noise.
//!
//! ## Determinism
//!
//! Rounds are independent by construction — all per-round state is
//! re-derived from `Rand::for_trial(link_seed, round)` — so the engine's
//! ordered-prefix merge makes the whole network run bit-identical for any
//! `UWB_THREADS`. Rounds are scheduled one per engine pull
//! ([`MonteCarlo::chunk_size`]`(1)`) so short runs spread over every
//! worker. The run has no stop rule (constant-false predicate), so every
//! round contributes whatever the chunking, and the [`NetAccumulator`]
//! and telemetry merges are integer and associative: neither the chunk
//! size nor the thread count changes a counter, the telemetry or the
//! worst-K forensics.
//!
//! ## Event-driven rounds
//!
//! Rounds are **event-driven** over the sparse interference graph: victims
//! are processed in ascending order; each transmitter's clean waveform is
//! synthesized lazily (once per round, at its first reader) into a slot of
//! the shared [`RecordArena`] and recycled after its last reader, so peak
//! waveform memory is the graph's overlap width rather than N records. An
//! isolated victim — empty coupling row, record unread by anyone else —
//! skips the mix-buffer copy entirely and takes its receiver noise in
//! place, which is what makes idle links and isolated clusters nearly
//! free.
//!
//! The warm path allocates nothing: the config-deduplicated worker pool,
//! the arena slots, the mix buffer, and the per-round synthesis metadata
//! all live in [`NetWorker`] and are reused round after round (the arena's
//! slot-acquisition sequence is identical every round, so each slot
//! ratchets to its high-water capacity during round 0).

use crate::arena::{RecordArena, RecordSchedule};
use crate::controller::{plan_network, NetPlan};
use crate::report::{LinkReport, NetReport};
use crate::scenario::NetScenario;
use uwb_dsp::scratch::DspScratch;
use uwb_dsp::stream::accumulate_scaled;
use uwb_dsp::Complex;
use uwb_platform::link::CleanSynthesis;
use uwb_platform::metrics::ErrorCounter;
use uwb_sim::montecarlo::{Merge, MonteCarlo};
use uwb_sim::stream::StreamingAwgn;
use uwb_sim::Rand;

/// Per-link error statistics accumulated over measurement rounds.
#[derive(Debug, Clone, Default)]
pub struct LinkRoundStats {
    /// Bit-level error counter (known-timing BER).
    pub ber: ErrorCounter,
    /// Packets attempted (= rounds contributing to the merge).
    pub packets: u64,
    /// Packets with at least one bit error or a decode failure.
    pub packets_bad: u64,
}

impl LinkRoundStats {
    /// Packet error rate over the contributing rounds.
    ///
    /// `NaN` when no packets were attempted — same no-data contract as
    /// [`ErrorCounter::rate`]: "no packets" is *not knowing* the PER, which
    /// must stay distinguishable from a measured PER of zero.
    pub fn per(&self) -> f64 {
        if self.packets == 0 {
            f64::NAN
        } else {
            self.packets_bad as f64 / self.packets as f64
        }
    }
}

impl Merge for LinkRoundStats {
    fn merge(&mut self, other: &Self) {
        self.ber.merge(&other.ber);
        self.packets += other.packets;
        self.packets_bad += other.packets_bad;
    }
}

/// The engine's merge accumulator: one [`LinkRoundStats`] per link.
///
/// `Merge for Vec<T>` in the engine is *concatenation* (stream semantics),
/// which is wrong here — network rounds must merge **element-wise** per
/// link. The empty-default case (a fresh chunk accumulator) adopts the
/// other side wholesale.
#[derive(Debug, Clone, Default)]
pub struct NetAccumulator {
    /// Per-link statistics, indexed by link id.
    pub links: Vec<LinkRoundStats>,
}

impl NetAccumulator {
    /// Ensures `links` holds exactly `n` entries (idempotent).
    fn ensure_len(&mut self, n: usize) {
        if self.links.len() < n {
            self.links.resize(n, LinkRoundStats::default());
        }
    }
}

impl Merge for NetAccumulator {
    fn merge(&mut self, other: &Self) {
        if self.links.is_empty() {
            self.links.extend_from_slice(&other.links);
            return;
        }
        assert_eq!(
            self.links.len(),
            other.links.len(),
            "network accumulators must cover the same links"
        );
        for (a, b) in self.links.iter_mut().zip(&other.links) {
            a.merge(b);
        }
    }
}

/// Per-thread measurement state: a config-deduplicated [`LinkWorker`] pool,
/// the shared-waveform arena with its liveness schedule, and the reusable
/// mixing buffers. Constructed once per engine worker; everything warm is
/// allocation-free.
///
/// The pool ([`crate::pool::WorkerPool`]) holds one worker per **distinct**
/// `Gen2Config` rather than one per link — a worker only carries
/// configuration-shaped machinery (transmitter, streaming channel, receiver
/// scratch), while the per-round waveforms live in the arena and the
/// per-link payload snapshots in `payloads`. A 10 000-link network on a
/// round-robin policy therefore costs 14 workers, not 10 000.
pub struct NetWorker {
    pool: crate::pool::WorkerPool,
    schedule: RecordSchedule,
    arena: RecordArena,
    /// Per link: this round's synthesis metadata (slot-0 index, calibrated
    /// n0, AWGN RNG), set at lazy synthesis and taken at decode.
    clean: Vec<Option<CleanSynthesis>>,
    /// Per link: payload snapshot taken right after synthesis, handed back
    /// to the (shared) worker at decode time.
    payloads: Vec<Vec<u8>>,
    /// Per link: mean power of this round's clean record (cached at
    /// synthesis, read by every victim that mixes it for its SINR digest).
    power: Vec<f64>,
    mixed: Vec<Complex>,
    scratch: DspScratch,
}

impl NetWorker {
    /// Builds the pooled workers, liveness schedule, and arena from the
    /// frozen plan.
    pub fn new(plan: &NetPlan) -> Self {
        let n = plan.len();
        let pool = crate::pool::WorkerPool::new(plan);
        let schedule = RecordSchedule::build(n, &plan.coupling);
        let arena = RecordArena::new(n, schedule.max_live());
        NetWorker {
            pool,
            schedule,
            arena,
            clean: (0..n).map(|_| None).collect(),
            payloads: vec![Vec::new(); n],
            power: vec![0.0; n],
            mixed: Vec::new(),
            scratch: DspScratch::new(),
        }
    }

    /// Synthesizes link `u`'s clean record for this round into an arena
    /// slot if it is not already resident, snapshotting the payload the
    /// shared worker drew. Every record is a pure function of
    /// `(link_seed(u), round)`, so the lazy first-reader order produces
    /// exactly the waveforms an eager 0..n sweep would.
    fn ensure_record(&mut self, plan: &NetPlan, round: u64, u: usize) {
        if self.arena.is_resident(u) {
            return;
        }
        let _t = uwb_obs::span!("net_schedule");
        let mut rng = Rand::for_trial(plan.link_seed(u), round);
        let worker = self.pool.worker_for(u);
        let clean = worker.synthesize_clean_streamed_record(
            &plan.links[u].scenario,
            plan.payload_len,
            plan.block_len,
            &mut rng,
            self.arena.acquire(u),
        );
        self.payloads[u].clear();
        self.payloads[u].extend_from_slice(worker.payload_bytes());
        self.power[u] = uwb_dsp::simd::mean_power(self.arena.record(u));
        self.clean[u] = Some(clean);
    }

    /// Runs one network round (= one engine trial) and accumulates every
    /// link's outcome into `acc`.
    ///
    /// Victims are processed in ascending order. Per victim: materialize
    /// the records its coupling row needs (`net_schedule`, lazy, shared),
    /// mix own + coupled foreign records + calibrated AWGN in fixed
    /// ascending-transmitter order (`net_mix`), decode and count
    /// (`net_rx`), then recycle every record this victim read last. An
    /// isolated victim takes its noise in place on its own record and
    /// never touches the mix buffer.
    pub fn round(&mut self, plan: &NetPlan, round: u64, acc: &mut NetAccumulator) {
        let n = plan.len();
        acc.ensure_len(n);
        for c in &mut self.clean {
            *c = None;
        }

        let mut round_errs = 0u64;
        let mut round_bad = 0u64;
        for v in 0..n {
            self.ensure_record(plan, round, v);
            for &(u, _) in &plan.coupling[v] {
                self.ensure_record(plan, round, u);
            }
            let CleanSynthesis {
                slot0_start,
                n0,
                awgn_rng,
            } = self.clean[v].take().expect("own record just ensured");

            let row = &plan.coupling[v];
            // Per-victim round SINR: own clean power over coupled foreign
            // power (plan gains are amplitude factors → power scales by
            // gain²) plus the calibrated per-sample receiver noise power.
            // Centi-dB with a +100 dB offset keeps the u64 digest monotonic
            // across the practical [-100, +84] dB range.
            let interference: f64 = row
                .iter()
                .map(|&(u, gain)| gain * gain * self.power[u])
                .sum();
            let sinr = self.power[v] / (interference + n0).max(f64::MIN_POSITIVE);
            let sinr_cdb = (10.0 * sinr.log10() + 100.0) * 100.0;
            uwb_obs::digest!("net_link_sinr_cdb", sinr_cdb.max(0.0) as u64);

            let stats = &mut acc.links[v];
            let errs_before = stats.ber.errors;
            stats.packets += 1;
            let config = &plan.links[v].scenario.config;
            let rx = self.pool.worker_for(v);
            let ok = if row.is_empty() && self.schedule.last_use(v) == v {
                // Isolated victim: nobody mixes this record and nobody else
                // reads it — apply receiver noise in place and decode from
                // the slot. Identical sample values to the general path
                // (copy + noise), minus the copy.
                {
                    let _t = uwb_obs::span!("net_mix");
                    let mut awgn = StreamingAwgn::new(n0, awgn_rng);
                    uwb_dsp::stream::BlockProcessor::process_block(
                        &mut awgn,
                        self.arena.record_mut(v),
                        &mut self.scratch,
                    );
                }
                let _t = uwb_obs::span!("net_rx");
                rx.count_errors_in_record(
                    config,
                    self.arena.record(v),
                    slot0_start,
                    &self.payloads[v],
                    &mut stats.ber,
                )
            } else {
                {
                    let _t = uwb_obs::span!("net_mix");
                    self.mixed.clear();
                    self.mixed.extend_from_slice(self.arena.record(v));
                    // Fixed ascending-transmitter order: the summation order
                    // is part of the bit-exactness contract.
                    for &(u, gain) in row {
                        accumulate_scaled(&mut self.mixed, self.arena.record(u), gain);
                    }
                    // Receiver noise last, from the RNG state the single-link
                    // path would hold — an uncoupled link is bit-identical to
                    // an isolated streamed run.
                    let mut awgn = StreamingAwgn::new(n0, awgn_rng);
                    uwb_dsp::stream::BlockProcessor::process_block(
                        &mut awgn,
                        &mut self.mixed,
                        &mut self.scratch,
                    );
                }
                let _t = uwb_obs::span!("net_rx");
                rx.count_errors_in_record(
                    config,
                    &self.mixed,
                    slot0_start,
                    &self.payloads[v],
                    &mut stats.ber,
                )
            };
            if !ok {
                stats.packets_bad += 1;
                round_bad += 1;
            }
            round_errs += stats.ber.errors - errs_before;
            self.arena.release_expired(&self.schedule, v);
        }
        // Finalize this round's flight-recorder snapshot: one network round
        // is one engine trial, scored by its network-wide bit-error total
        // (no-op unless the engine armed the trial).
        uwb_obs::note!("net_round_bad_packets", round_bad);
        uwb_obs::recorder::observe(round_errs, 0);
    }
}

/// Plans and measures a complete network scenario: serial planning phase
/// ([`plan_network`]), then `scenario.rounds` measurement rounds on the
/// deterministic parallel engine, then report assembly.
pub fn run_network(scenario: &NetScenario) -> NetReport {
    run_plan(plan_network(scenario))
}

/// Measurement phase over an externally supplied (possibly hand-edited)
/// plan. Worker count follows `UWB_THREADS` / available parallelism; the
/// per-link counters are bit-identical either way.
pub fn run_plan(plan: NetPlan) -> NetReport {
    run_plan_engine(plan, None)
}

/// [`run_plan`] with an explicit worker-thread override — the hook the
/// determinism tests use to compare thread counts within one process
/// without racing on the `UWB_THREADS` environment variable.
pub fn run_plan_threads(plan: NetPlan, threads: usize) -> NetReport {
    run_plan_engine(plan, Some(threads))
}

fn run_plan_engine(plan: NetPlan, threads: Option<usize>) -> NetReport {
    // One round per pull: no stop rule, so chunking cannot change results.
    let mut engine = MonteCarlo::new(plan.seed, plan.rounds).chunk_size(1);
    if let Some(t) = threads {
        engine = engine.threads(t);
    }
    let outcome = engine.run(
        || NetWorker::new(&plan),
        |w: &mut NetWorker, round, _rng, acc: &mut NetAccumulator| w.round(&plan, round, acc),
        |_| false,
    );
    let mut acc = outcome.value;
    acc.ensure_len(plan.len());
    let links: Vec<LinkReport> = plan
        .links
        .iter()
        .zip(&acc.links)
        .map(|(l, s)| LinkReport::new(l, s))
        .collect();
    let mut stats = outcome.stats;
    // Per-link goodput digest, recorded after the workers joined (serial,
    // ascending link order → deterministic for any thread count) and folded
    // into the run's telemetry snapshot.
    for l in &links {
        uwb_obs::digest!("net_link_goodput_kbps", (l.throughput_bps / 1e3) as u64);
    }
    stats.telemetry.merge(&uwb_obs::take_thread_telemetry());
    NetReport::new(links, stats, plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_round_stats_merge_is_elementwise() {
        let mut a = NetAccumulator::default();
        a.ensure_len(2);
        a.links[0].packets = 3;
        a.links[0].packets_bad = 1;
        a.links[1].packets = 3;
        let mut b = NetAccumulator::default();
        b.ensure_len(2);
        b.links[0].packets = 2;
        b.links[1].packets = 2;
        b.links[1].packets_bad = 2;
        a.merge(&b);
        assert_eq!(a.links.len(), 2, "element-wise, not concatenation");
        assert_eq!(a.links[0].packets, 5);
        assert_eq!(a.links[0].packets_bad, 1);
        assert_eq!(a.links[1].packets, 5);
        assert_eq!(a.links[1].packets_bad, 2);
    }

    #[test]
    fn empty_accumulator_adopts_other_side() {
        let mut a = NetAccumulator::default();
        let mut b = NetAccumulator::default();
        b.ensure_len(3);
        b.links[2].packets = 7;
        a.merge(&b);
        assert_eq!(a.links.len(), 3);
        assert_eq!(a.links[2].packets, 7);
    }

    #[test]
    fn per_distinguishes_no_data_from_zero_errors() {
        // No packets -> NaN (the ErrorCounter::rate no-data contract), NOT
        // 0.0: "never measured" must not read as "perfect".
        let s = LinkRoundStats::default();
        assert!(s.per().is_nan());
        let s = LinkRoundStats {
            packets: 4,
            packets_bad: 0,
            ..Default::default()
        };
        assert_eq!(s.per(), 0.0);
        let s = LinkRoundStats {
            packets: 4,
            packets_bad: 1,
            ..Default::default()
        };
        assert_eq!(s.per(), 0.25);
    }
}
