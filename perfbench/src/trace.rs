//! The traced run: per-layer metrics.
//!
//! On the same inputs as the untraced run, the traced run
//!
//! 1. runs the workload's operation untraced at `available_parallelism`
//!    threads and at one thread (engine efficiency, reference and parity
//!    checks);
//! 2. replays that operation on one thread, driving the library's workers
//!    directly with one benchmark span around each public composite call
//!    (`LinkWorker::trial_full`, `LinkWorker::trial_batch_ber_streamed`,
//!    `NetWorker::round`, `MacWorker::trial`), and checks that the replay
//!    reproduces the untraced counters exactly;
//! 3. replays the same work once more through the public *stage* calls
//!    (transmitter, streaming channel, streaming AWGN, `digitize_append`,
//!    `acquire_record`, `payload_statistics_predigitized_with` + decode,
//!    `receive_packet_acquired`, `accumulate_scaled`), each in its own span,
//!    and checks its counters too; the whole call minus the sum of its parts
//!    is reported as the composite's `unattributed` remainder;
//! 4. measures the layers the operation does not run as *probes* of the
//!    same public calls on the workload's own scenario, under a `probe`
//!    span so they never mix with the operation's own samples.
//!
//! Steps 2 and 3 repeat until `--seconds` have passed. Spans stay in memory
//! and are written out as a Chrome trace when the run ends.

use crate::spans::{Tracer, PROBE};
use crate::stats::{self, Summary};
use crate::workloads::{self, Kind, Prepared};
use crate::{Metric, RunReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use uwb::dsp::fft32::Fft32;
use uwb::dsp::math::db_to_pow;
use uwb::dsp::stream::accumulate_scaled;
use uwb::dsp::{BlockProcessor, Complex, DspScratch};
use uwb::mac::{plan_mac, MacAccumulator, MacScenario, MacWorker};
use uwb::net::{
    build_coupling_sparse, plan_network, LinkReport, LinkRoundStats, NetAccumulator, NetPlan,
    NetScenario, NetWorker, RecordSchedule,
};
use uwb::phy::packet::{decode_payload_bits_into, reference_payload_bits_into};
use uwb::phy::{
    AcquisitionResult, Burst, FrameScratch, FrameSlots, Gen2Config, Gen2Receiver, Gen2Transmitter,
    PhyError, RxState,
};
use uwb::platform::link::{
    BatchScratch, LinkOutcome, LinkScenario, LinkWorker, DEFAULT_STREAM_BLOCK,
};
use uwb::platform::metrics::ErrorCounter;
use uwb::sim::montecarlo::resolve_batch;
use uwb::sim::{derive_trial_seed, ChannelRealization, Rand, StreamingAwgn, StreamingChannel};

/// Trials per link-layer probe.
const PROBE_TRIALS: u64 = 192;
/// Rounds per network probe on a small network.
const PROBE_NET_ROUNDS: u64 = 48;
/// Arrival horizon and replications of a MAC probe on a small network.
const PROBE_MAC_HORIZON_SLOTS: u64 = 400;
const PROBE_MAC_REPLICATIONS: u64 = 2;
/// Calls per kernel probe.
const KERNEL_CALLS: usize = 2_000;
/// Transform size of the FFT kernel probe (the acquisition correlator's).
const FFT_N: usize = 4096;

/// Counters gathered next to the spans.
#[derive(Debug, Default, Clone)]
struct Tally {
    channel_realizations: u64,
    channel_taps: u64,
    channel_madds: u64,
    acquisitions: u64,
    acq_detected: u64,
    record_len: usize,
    batch_sizes: Vec<u64>,
    edges: u64,
    nodes: u64,
    mac_tx_frames: u64,
    mac_retries: u64,
    mac_defers: u64,
    mac_decode_failures: u64,
    mac_delivered: u64,
}

/// Traced-run context: the span tree plus two tallies, one for the
/// workload's own operation and one for probes.
struct Cx {
    tr: Tracer,
    tally: [Tally; 2],
    probe: bool,
}

impl Cx {
    fn tally(&mut self) -> &mut Tally {
        &mut self.tally[usize::from(self.probe)]
    }
}

/// What one synthesis call hands to the receive side.
struct Synth {
    slot0_start: usize,
    n0: f64,
    awgn_rng: Rand,
}

/// One configuration's transmitter, channel and receiver, driven stage by
/// stage through public calls.
struct LinkRig {
    config: Gen2Config,
    payload_len: usize,
    block_len: usize,
    tx: Gen2Transmitter,
    rx: Gen2Receiver,
    state: RxState,
    channel: ChannelRealization,
    stream: StreamingChannel,
    scratch: DspScratch,
    frame: FrameScratch,
    burst: Burst,
    payload: Vec<u8>,
    record: Vec<Complex>,
    digitized: Vec<Complex>,
    stats: Vec<Complex>,
    bits: Vec<bool>,
    ref_bits: Vec<bool>,
}

impl LinkRig {
    fn new(config: &Gen2Config, payload_len: usize, block_len: usize) -> LinkRig {
        LinkRig {
            config: config.clone(),
            payload_len,
            block_len,
            tx: Gen2Transmitter::new(config.clone()).expect("valid config"),
            rx: Gen2Receiver::new(config.clone()).expect("valid config"),
            state: RxState::new(),
            channel: ChannelRealization::identity(),
            stream: StreamingChannel::new(),
            scratch: DspScratch::new(),
            frame: FrameScratch::new(),
            burst: Burst {
                samples: Vec::new(),
                sample_rate: config.sample_rate,
                slot0_center: 0,
                samples_per_slot: 0,
                slots: FrameSlots::default(),
            },
            payload: Vec::new(),
            record: Vec::new(),
            digitized: Vec::new(),
            stats: Vec::new(),
            bits: Vec::new(),
            ref_bits: Vec::new(),
        }
    }

    /// Payload → frame → multipath channel into `record`, drawing from
    /// `rng` in the order the library's streamed synthesis does (payload
    /// bytes, channel realization, then the noise stream is captured).
    fn synthesize(
        &mut self,
        tr: &mut Tracer,
        tally: &mut Tally,
        sc: &LinkScenario,
        rng: &mut Rand,
        record: &mut Vec<Complex>,
    ) -> Synth {
        let (payload_len, block_len) = (self.payload_len, self.block_len);
        let LinkRig {
            tx,
            payload,
            burst,
            frame,
            channel,
            stream,
            scratch,
            config,
            ..
        } = self;
        tr.span("phy.tx", |_| {
            payload.clear();
            payload.resize(payload_len, 0);
            rng.fill_bytes(payload);
            tx.transmit_packet_into(payload, burst, frame)
                .expect("payload size");
        });
        let n = burst.samples.len();
        tr.span("sim.channel", |_| {
            channel.regenerate(sc.channel, rng);
            stream.configure(channel, config.sample_rate);
            record.clear();
            record.reserve(n + stream.tail_len());
            let mut start = 0;
            while start < n {
                let end = (start + block_len).min(n);
                record.extend_from_slice(&burst.samples[start..end]);
                stream.process_block(&mut record[start..end], scratch);
                start = end;
            }
            stream.flush_into(record, scratch);
        });
        let taps = stream.tail_len() as u64 + 1;
        tally.channel_realizations += 1;
        tally.channel_taps += taps;
        tally.channel_madds += taps * n as u64;
        tally.record_len = record.len();
        // Calibrated to Eb/N0 on information bits (payload + FCS).
        let slot_energy: f64 = burst.slots.payload.iter().map(|a| a * a).sum();
        let eb = slot_energy / (8.0 * (payload_len + 4) as f64);
        Synth {
            slot0_start: burst.slot0_center - tx.pulse().len() / 2,
            n0: eb / db_to_pow(sc.ebn0_db),
            awgn_rng: rng.clone(),
        }
    }

    fn awgn(&mut self, tr: &mut Tracer, record: &mut [Complex], n0: f64, rng: Rand) {
        let scratch = &mut self.scratch;
        tr.span("sim.awgn", |_| {
            StreamingAwgn::new(n0, rng).process_block(record, scratch)
        });
    }

    fn digitize(&mut self, tr: &mut Tracer, record: &[Complex]) {
        let (rx, out) = (&self.rx, &mut self.digitized);
        tr.span("adc.digitize", |_| {
            out.clear();
            rx.digitize_append(record, out);
        });
    }

    /// Known-timing statistics → decode → bit-error count; `true` when the
    /// payload decoded error-free.
    fn ber_stats(
        &mut self,
        tr: &mut Tracer,
        slot0_start: usize,
        payload: &[u8],
        c: &mut ErrorCounter,
    ) -> bool {
        let LinkRig {
            config,
            rx,
            state,
            frame,
            digitized,
            stats,
            bits,
            ref_bits,
            ..
        } = self;
        tr.span("phy.ber_stats", |_| {
            rx.payload_statistics_predigitized_with(
                digitized,
                slot0_start,
                payload.len(),
                state,
                stats,
            );
            if decode_payload_bits_into(stats, payload.len(), config, frame, bits).is_err() {
                return false;
            }
            let before = c.errors;
            reference_payload_bits_into(payload, frame, ref_bits);
            c.add_bits(ref_bits, bits);
            c.errors == before
        })
    }

    fn acquire(&mut self, tr: &mut Tracer) -> AcquisitionResult {
        let (rx, digitized, state) = (&self.rx, &self.digitized, &mut self.state);
        tr.span("phy.acquire", |_| rx.acquire_record(digitized, state))
    }

    /// Packet decode from an acquisition; updates the packet counters.
    fn packet(
        &mut self,
        tr: &mut Tracer,
        acq: &AcquisitionResult,
        payload: &[u8],
        o: &mut LinkOutcome,
    ) {
        let (rx, digitized, state) = (&self.rx, &self.digitized, &mut self.state);
        let r = tr.span("phy.packet_decode", |_| {
            rx.receive_packet_acquired(digitized, acq, state)
        });
        o.packets += 1;
        match r {
            Ok(pkt) if pkt.payload == payload => o.packets_ok += 1,
            Err(PhyError::SyncFailed) => o.sync_failures += 1,
            _ => {}
        }
    }

    /// One known-timing trial on the rig's own record: synthesis, noise,
    /// digitizing, statistics and decode. `true` when error-free.
    fn known_timing(
        &mut self,
        tr: &mut Tracer,
        tally: &mut Tally,
        sc: &LinkScenario,
        rng: &mut Rand,
        c: &mut ErrorCounter,
    ) -> bool {
        let mut record = std::mem::take(&mut self.record);
        let syn = self.synthesize(tr, tally, sc, rng, &mut record);
        self.awgn(tr, &mut record, syn.n0, syn.awgn_rng);
        self.digitize(tr, &record);
        self.record = record;
        let payload = std::mem::take(&mut self.payload);
        let ok = self.ber_stats(tr, syn.slot0_start, &payload, c);
        self.payload = payload;
        ok
    }

    /// One full-path trial on the rig's own record, in the batched full
    /// path's order: synthesis, noise, digitizing, acquisition, known-timing
    /// statistics and decode, then the packet decode from the acquisition.
    fn full(
        &mut self,
        tr: &mut Tracer,
        tally: &mut Tally,
        sc: &LinkScenario,
        rng: &mut Rand,
        o: &mut LinkOutcome,
    ) {
        let mut record = std::mem::take(&mut self.record);
        let syn = self.synthesize(tr, tally, sc, rng, &mut record);
        self.awgn(tr, &mut record, syn.n0, syn.awgn_rng);
        self.digitize(tr, &record);
        self.record = record;
        let acq = self.acquire(tr);
        tally.acquisitions += 1;
        tally.acq_detected += u64::from(acq.detected);
        let payload = std::mem::take(&mut self.payload);
        self.ber_stats(tr, syn.slot0_start, &payload, &mut o.ber);
        self.packet(tr, &acq, &payload, o);
        self.payload = payload;
    }
}

/// Full-path link trials `0..trials` of `sc`: whole `trial_full` calls,
/// then the stage-split replay, which must reproduce the same outcome.
/// Returns the outcome's fingerprint.
fn trace_link_full(
    cx: &mut Cx,
    sc: &LinkScenario,
    payload_len: usize,
    trials: u64,
) -> Result<String, String> {
    let mut worker = LinkWorker::new(sc);
    let mut whole = LinkOutcome::default();
    for t in 0..trials {
        let mut rng = Rand::for_trial(sc.seed, t);
        cx.tr.span("platform.trial_full", |_| {
            worker.trial_full(sc, payload_len, &mut rng, &mut whole)
        });
    }
    let mut rig = LinkRig::new(&sc.config, payload_len, DEFAULT_STREAM_BLOCK);
    let mut parts = LinkOutcome::default();
    let mut tally = std::mem::take(cx.tally());
    for t in 0..trials {
        let mut rng = Rand::for_trial(sc.seed, t);
        cx.tr.span("replay.trial_full", |tr| {
            rig.full(tr, &mut tally, sc, &mut rng, &mut parts)
        });
    }
    *cx.tally() = tally;
    let fp = workloads::link_fingerprint(&whole);
    let replay = workloads::link_fingerprint(&parts);
    if replay != fp {
        return Err(format!("full-path stage replay diverged: {replay} vs {fp}"));
    }
    Ok(fp)
}

/// Known-timing fast-path trials for each `(scenario, trials)` point:
/// whole batched calls at the default batch width, the same trials one at a
/// time (`trial_ber_streamed`, batch width 1), then the stage-split replay.
/// All three must agree. Returns the fingerprint in the workload's format.
fn trace_link_fast(
    cx: &mut Cx,
    points: &[(LinkScenario, u64)],
    payload_len: usize,
) -> Result<String, String> {
    let batch = resolve_batch(None);
    let mut fps = Vec::new();
    let mut tally = std::mem::take(cx.tally());
    for (sc, trials) in points {
        let trials = *trials;
        let mut worker = LinkWorker::new(sc);
        let mut scratch = BatchScratch::new();
        let mut batched = ErrorCounter::default();
        let mut lo = 0;
        while lo < trials {
            let hi = (lo + batch).min(trials);
            cx.tr.span("platform.batch_trial", |_| {
                worker.trial_batch_ber_streamed(
                    sc,
                    payload_len,
                    DEFAULT_STREAM_BLOCK,
                    lo..hi,
                    &mut scratch,
                    &mut batched,
                )
            });
            tally.batch_sizes.push(hi - lo);
            lo = hi;
        }
        let mut single = ErrorCounter::default();
        for t in 0..trials {
            let mut rng = Rand::for_trial(sc.seed, t);
            cx.tr.span("platform.trial_ber_streamed", |_| {
                worker.trial_ber_streamed(
                    sc,
                    payload_len,
                    DEFAULT_STREAM_BLOCK,
                    &mut rng,
                    &mut single,
                )
            });
        }
        let mut rig = LinkRig::new(&sc.config, payload_len, DEFAULT_STREAM_BLOCK);
        let mut parts = ErrorCounter::default();
        for t in 0..trials {
            let mut rng = Rand::for_trial(sc.seed, t);
            cx.tr.span("replay.batch_trial", |tr| {
                rig.known_timing(tr, &mut tally, sc, &mut rng, &mut parts)
            });
        }
        if batched != single || parts != batched {
            return Err(format!(
                "{} dB fast path: batched {batched:?}, batch width 1 {single:?}, stage replay {parts:?}",
                sc.ebn0_db
            ));
        }
        fps.push(workloads::cm3_point_fingerprint(sc, &batched, trials));
    }
    *cx.tally() = tally;
    Ok(fps.join(";"))
}

/// Per-configuration rigs for a network: link → rig index.
fn rigs_for(plan: &NetPlan) -> (Vec<LinkRig>, Vec<usize>) {
    let mut rigs: Vec<LinkRig> = Vec::new();
    let mut of = Vec::with_capacity(plan.len());
    for l in &plan.links {
        let cfg = &l.scenario.config;
        let i = match rigs.iter().position(|r| &r.config == cfg) {
            Some(i) => i,
            None => {
                rigs.push(LinkRig::new(cfg, plan.payload_len, plan.block_len));
                rigs.len() - 1
            }
        };
        of.push(i);
    }
    (rigs, of)
}

/// A synthesized network record awaiting its readers.
struct Resident {
    samples: Vec<Complex>,
    payload: Vec<u8>,
    synth: Option<Synth>,
}

/// Plans `sc`, rebuilds its coupling graph on its own, runs rounds
/// `0..rounds` as whole `NetWorker::round` calls, then replays them stage
/// by stage (lazy per-round synthesis, fixed ascending-transmitter mixing,
/// receiver noise last — the round's documented order). Returns the
/// fingerprint of the whole rounds; the replay must match it.
fn trace_net(cx: &mut Cx, sc: &NetScenario, rounds: u64) -> Result<String, String> {
    let mut plan = cx.tr.span("net.plan", |_| plan_network(sc));
    plan.rounds = rounds;
    let channels: Vec<_> = plan.links.iter().map(|l| l.channel).collect();
    let graph = cx.tr.span("net.graph_build", |_| {
        build_coupling_sparse(&sc.topology, &sc.selectivity, &channels, &sc.coupling)
    });
    let same = graph.len() == plan.coupling.len()
        && graph.iter().zip(&plan.coupling).all(|(a, b)| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
        });
    if !same {
        return Err("coupling graph rebuilt from the scenario differs from the plan's".into());
    }
    cx.tally().edges = graph.iter().map(|r| r.len() as u64).sum::<u64>();
    cx.tally().nodes = graph.len() as u64;

    let mut worker = NetWorker::new(&plan);
    let mut acc = NetAccumulator::default();
    for r in 0..rounds {
        cx.tr
            .span("net.round", |_| worker.round(&plan, r, &mut acc));
    }
    let whole = net_fingerprint_of(&plan, &acc.links);

    let n = plan.len();
    let (mut rigs, rig_of) = rigs_for(&plan);
    let schedule = RecordSchedule::build(n, &plan.coupling);
    let mut resident: Vec<Option<Resident>> = (0..n).map(|_| None).collect();
    let mut spare: Vec<Resident> = Vec::new();
    let mut stats = vec![LinkRoundStats::default(); n];
    let mut mixed: Vec<Complex> = Vec::new();
    let mut tally = std::mem::take(cx.tally());
    for r in 0..rounds {
        cx.tr.span("replay.net.round", |tr| {
            for v in 0..n {
                for u in std::iter::once(v).chain(plan.coupling[v].iter().map(|&(u, _)| u)) {
                    if resident[u].is_some() {
                        continue;
                    }
                    let mut slot = spare.pop().unwrap_or(Resident {
                        samples: Vec::new(),
                        payload: Vec::new(),
                        synth: None,
                    });
                    let rig = &mut rigs[rig_of[u]];
                    let mut rng = Rand::for_trial(plan.link_seed(u), r);
                    let syn = rig.synthesize(
                        tr,
                        &mut tally,
                        &plan.links[u].scenario,
                        &mut rng,
                        &mut slot.samples,
                    );
                    slot.payload.clone_from(&rig.payload);
                    slot.synth = Some(syn);
                    resident[u] = Some(slot);
                }
                let row = &plan.coupling[v];
                let own = resident[v].as_mut().expect("own record resident");
                let syn = own.synth.take().expect("own record synthesized this round");
                let rig = &mut rigs[rig_of[v]];
                if row.is_empty() && schedule.last_use(v) == v {
                    // Nobody else reads this record: noise goes on in place.
                    rig.awgn(tr, &mut own.samples, syn.n0, syn.awgn_rng);
                    rig.digitize(tr, &own.samples);
                } else {
                    tr.span("net.mix", |tr| {
                        mixed.clear();
                        mixed.extend_from_slice(&resident[v].as_ref().expect("resident").samples);
                        for &(u, gain) in row {
                            let src = &resident[u]
                                .as_ref()
                                .expect("coupled record resident")
                                .samples;
                            tr.span("dsp.accumulate_scaled", |_| {
                                accumulate_scaled(&mut mixed, src, gain)
                            });
                        }
                    });
                    rig.awgn(tr, &mut mixed, syn.n0, syn.awgn_rng);
                    rig.digitize(tr, &mixed);
                }
                let payload = std::mem::take(&mut resident[v].as_mut().expect("resident").payload);
                let s = &mut stats[v];
                s.packets += 1;
                if !rig.ber_stats(tr, syn.slot0_start, &payload, &mut s.ber) {
                    s.packets_bad += 1;
                }
                resident[v].as_mut().expect("resident").payload = payload;
                for &u in schedule.expiring_after(v) {
                    if let Some(slot) = resident[u as usize].take() {
                        spare.push(slot);
                    }
                }
            }
        });
    }
    *cx.tally() = tally;
    let replay = net_fingerprint_of(&plan, &stats);
    if replay != whole {
        return Err(format!(
            "network stage replay diverged: {replay} vs {whole}"
        ));
    }
    Ok(whole)
}

fn net_fingerprint_of(plan: &NetPlan, stats: &[LinkRoundStats]) -> String {
    let reports: Vec<LinkReport> = plan
        .links
        .iter()
        .zip(stats)
        .map(|(l, s)| LinkReport::new(l, s))
        .collect();
    workloads::net_fingerprint(&reports)
}

/// Plans `sc`, runs its replications as whole `MacWorker::trial` calls,
/// then replays every transmitted data frame through the stage calls
/// (synthesis, noise, digitize, known-timing decode) on its own — the MAC
/// event loop and overlap mixing have no public stage call, so they stay in
/// the trial's unattributed remainder. Frame seeds of the replay are the
/// benchmark's own (the trial's are private to the MAC), so the replay is
/// work-equivalent rather than sample-identical: it must reproduce every
/// link's frame count exactly. Returns the whole trials' fingerprint.
fn trace_mac(cx: &mut Cx, sc: &MacScenario) -> Result<String, String> {
    let plan = cx.tr.span("mac.plan", |_| plan_mac(sc));
    let n = plan.len();
    let mut worker = MacWorker::new(&plan);
    let mut acc = MacAccumulator::default();
    let mut frames_per_rep: Vec<Vec<u64>> = Vec::new();
    for rep in 0..plan.params.replications {
        let before: Vec<u64> = (0..n)
            .map(|l| acc.links.get(l).map_or(0, |s| s.tx_frames))
            .collect();
        cx.tr
            .span("mac.trial", |_| worker.trial(&plan, rep, &mut acc));
        frames_per_rep.push(
            acc.links
                .iter()
                .zip(&before)
                .map(|(s, b)| s.tx_frames - b)
                .collect(),
        );
    }
    let t = cx.tally();
    let sum = |f: fn(&uwb::mac::MacLinkStats) -> u64| acc.links.iter().map(f).sum::<u64>();
    t.mac_tx_frames = sum(|s| s.tx_frames);
    t.mac_retries = sum(|s| s.retries);
    t.mac_defers = sum(|s| s.defers);
    t.mac_decode_failures = sum(|s| s.decode_failures);
    t.mac_delivered = sum(|s| s.delivered);

    let (mut rigs, rig_of) = rigs_for(&plan.net);
    let mut replayed = vec![0u64; n];
    let mut sink = ErrorCounter::default();
    let mut tally = std::mem::take(cx.tally());
    for (rep, frames) in frames_per_rep.iter().enumerate() {
        cx.tr.span("replay.mac.trial", |tr| {
            for (l, &count) in frames.iter().enumerate() {
                let link = &plan.net.links[l].scenario;
                let stream = derive_trial_seed(link.seed, rep as u64);
                for k in 0..count {
                    let mut rng = Rand::for_trial(stream, k);
                    rigs[rig_of[l]].known_timing(tr, &mut tally, link, &mut rng, &mut sink);
                    replayed[l] += 1;
                }
            }
        });
    }
    *cx.tally() = tally;
    if let Some(l) = (0..n).find(|&l| replayed[l] != acc.links[l].tx_frames) {
        return Err(format!(
            "MAC frame replay covered {} frames of link {l}, the trials sent {}",
            replayed[l], acc.links[l].tx_frames
        ));
    }
    Ok(workloads::mac_fingerprint(&acc.links))
}

/// The FFT kernel of the acquisition correlator, on fresh input per call.
fn probe_fft32(cx: &mut Cx) {
    let plan = Fft32::new(FFT_N);
    let mut rng = Rand::new(0x00ff_7f32);
    let src_re: Vec<f32> = (0..FFT_N).map(|_| rng.gaussian() as f32).collect();
    let src_im: Vec<f32> = (0..FFT_N).map(|_| rng.gaussian() as f32).collect();
    let (mut re, mut im) = (src_re.clone(), src_im.clone());
    for _ in 0..KERNEL_CALLS {
        re.copy_from_slice(&src_re);
        im.copy_from_slice(&src_im);
        cx.tr.span("dsp.fft32_4096", |_| {
            plan.forward_in_place(&mut re, &mut im)
        });
        std::hint::black_box((&re, &im));
    }
}

/// `accumulate_scaled` at the workload's record length.
fn probe_accumulate(cx: &mut Cx, len: usize) {
    let mut rng = Rand::new(0x00ac_c5ca);
    let src: Vec<Complex> = (0..len)
        .map(|_| Complex::new(rng.gaussian(), rng.gaussian()))
        .collect();
    let mut dst = vec![Complex::ZERO; len];
    for _ in 0..KERNEL_CALLS {
        cx.tr.span("dsp.accumulate_scaled", |_| {
            accumulate_scaled(&mut dst, &src, 0.5)
        });
        std::hint::black_box(&dst);
    }
}

/// The network layer around the workload's own link: that link plus one
/// adjacent-channel neighbour, so rounds mix a coupled foreign record.
fn two_link_net(ls: &LinkScenario) -> NetScenario {
    let mut ns = NetScenario::ring(2, ls.ebn0_db, ls.seed);
    ns.base_config = ls.config.clone();
    ns.channel_model = ls.channel;
    ns.rounds = PROBE_NET_ROUNDS;
    ns
}

/// A MAC over `net` with the probe horizon.
fn mac_over(net: NetScenario) -> MacScenario {
    let mut ms = MacScenario::ring(1, net.ebn0_db, workloads::MAC_LOAD, net.seed);
    ms.net = net;
    ms.net.probe_spectral = false;
    ms.horizon_slots = PROBE_MAC_HORIZON_SLOTS;
    ms.replications = PROBE_MAC_REPLICATIONS;
    ms
}

/// The workload's own operation, traced; returns its fingerprint.
fn trace_op(
    cx: &mut Cx,
    kind: Kind,
    seed: u64,
    prep: &Prepared,
    point_trials: &[u64],
    trials: u64,
) -> Result<String, String> {
    let sseed = workloads::scenario_seed(kind, seed);
    match prep {
        Prepared::LinkAcq(sc) => trace_link_full(cx, sc, workloads::ACQ_PAYLOAD, trials),
        Prepared::LinkCm3(points) => {
            let pts: Vec<(LinkScenario, u64)> = points
                .iter()
                .cloned()
                .zip(point_trials.iter().copied())
                .collect();
            trace_link_fast(cx, &pts, workloads::CM3_PAYLOAD)
        }
        Prepared::Net(_) => trace_net(cx, &workloads::net_scenario(sseed), workloads::NET_ROUNDS),
        Prepared::Mac(_) => trace_mac(cx, &workloads::mac_scenario(sseed)),
    }
}

/// Probes of every layer the workload's operation does not run, on the
/// workload's own scenario: the full-path and fast-path link trials on its
/// representative link, the network round around it (a two-link network
/// for the link workloads), a MAC over that network, and the DSP kernels at
/// its record length. Each composite probe also runs its stage-split
/// replay.
fn trace_probes(cx: &mut Cx, kind: Kind, seed: u64, prep: &Prepared) -> Result<(), String> {
    let sseed = workloads::scenario_seed(kind, seed);
    let (link, payload) = match prep {
        Prepared::LinkAcq(sc) => (sc.clone(), workloads::ACQ_PAYLOAD),
        Prepared::LinkCm3(points) => (points[points.len() / 2].clone(), workloads::CM3_PAYLOAD),
        Prepared::Net(plan) => (plan.links[0].scenario.clone(), plan.payload_len),
        Prepared::Mac(plan) => {
            let plan = plan.as_ref().expect("MAC plan present between operations");
            (plan.net.links[0].scenario.clone(), plan.net.payload_len)
        }
    };
    let root = cx.tr.enter(PROBE);
    cx.probe = true;
    let result = (|| {
        if kind != Kind::LinkAcqAwgn {
            trace_link_full(cx, &link, payload, PROBE_TRIALS)?;
        }
        if kind != Kind::LinkBerCm3 {
            trace_link_fast(cx, &[(link.clone(), PROBE_TRIALS)], payload)?;
        }
        match kind {
            Kind::LinkAcqAwgn | Kind::LinkBerCm3 => {
                let net = two_link_net(&link);
                trace_net(cx, &net, PROBE_NET_ROUNDS)?;
                trace_mac(cx, &mac_over(net))?;
            }
            Kind::NetRing8 => {
                trace_mac(cx, &mac_over(workloads::net_scenario(sseed)))?;
            }
            // One round of the city's network: the round layer beneath
            // the MAC, at the MAC's own scale.
            Kind::MacCity1k => {
                trace_net(cx, &workloads::mac_scenario(sseed).net, 1)?;
            }
        }
        probe_fft32(cx);
        if samples(cx, "dsp.accumulate_scaled").0.is_empty() {
            let len = cx.tally[0].record_len.max(cx.tally[1].record_len);
            probe_accumulate(cx, len);
        }
        Ok(())
    })();
    cx.probe = false;
    cx.tr.exit(root);
    result
}

/// Span name of each workload's whole composite call.
fn whole_span(kind: Kind) -> &'static str {
    match kind {
        Kind::LinkAcqAwgn => "platform.trial_full",
        Kind::LinkBerCm3 => "platform.batch_trial",
        Kind::NetRing8 => "net.round",
        Kind::MacCity1k => "mac.trial",
    }
}

/// Timed public calls: span name, metric stem, unit, and which end-to-end
/// metric on which workload a change to the call should move.
const TIMINGS: [(&str, &str, &str, &str); 15] = [
    ("sim.channel", "sim.channel_us", "us", "frames_per_ref_s on link_ber_cm3 (streamed multipath convolution); no change expected on link_acq_awgn"),
    ("sim.awgn", "sim.awgn_us", "us", "frames_per_ref_s on all four workloads"),
    ("adc.digitize", "adc.digitize_us", "us", "frames_per_ref_s on all four workloads"),
    ("phy.tx", "phy.tx_us", "us", "frames_per_ref_s on all four workloads"),
    ("phy.acquire", "phy.acquire_us", "us", "frames_per_ref_s on link_acq_awgn only"),
    ("phy.packet_decode", "phy.packet_decode_us", "us", "frames_per_ref_s on link_acq_awgn only"),
    ("phy.ber_stats", "phy.ber_stats_us", "us", "frames_per_ref_s on all four workloads"),
    ("dsp.fft32_4096", "dsp.fft32_4096_us", "us", "frames_per_ref_s on link_acq_awgn (acquisition correlator)"),
    ("dsp.accumulate_scaled", "dsp.accumulate_scaled_us", "us", "frames_per_ref_s on net_ring_8user and mac_city_1k (mixing)"),
    ("platform.trial_full", "platform.trial_full_us", "us", "frames_per_ref_s on link_acq_awgn"),
    ("platform.batch_trial", "platform.batch_trial_us", "us", "frames_per_ref_s on link_ber_cm3 (batched runtime, per trial)"),
    ("platform.trial_ber_streamed", "platform.trial_ber_streamed_us", "us", "none: the batch-width-1 control of the batched runtime's A/B"),
    ("net.round", "net.round_us", "us", "frames_per_ref_s on net_ring_8user"),
    ("net.mix", "net.mix_us", "us", "frames_per_ref_s on net_ring_8user"),
    ("mac.trial", "mac.trial_ms", "ms", "frames_per_ref_s on mac_city_1k"),
];

/// Set-up calls reported as one median each: span, metric, what it moves.
const SETUPS: [(&str, &str, &str); 3] = [
    ("net.plan", "net.plan_ms", "setup_s on net_ring_8user"),
    (
        "net.graph_build",
        "net.graph_build_ms",
        "setup_s on mac_city_1k (inside plan_mac)",
    ),
    ("mac.plan", "mac.plan_ms", "setup_s on mac_city_1k"),
];

/// Composite calls and their stage-split replays: whole span, replay span,
/// metric, unit.
const COMPOSITES: [(&str, &str, &str, &str); 4] = [
    (
        "platform.trial_full",
        "replay.trial_full",
        "platform.trial_full_unattributed_us",
        "us",
    ),
    (
        "platform.batch_trial",
        "replay.batch_trial",
        "platform.batch_trial_unattributed_us",
        "us",
    ),
    (
        "net.round",
        "replay.net.round",
        "net.round_unattributed_us",
        "us",
    ),
    (
        "mac.trial",
        "replay.mac.trial",
        "mac.trial_unattributed_ms",
        "ms",
    ),
];

/// Samples of span `name` from the workload's own operation, or from its
/// probe when the operation never makes that call. The flag says which.
fn samples(cx: &Cx, name: &str) -> (Vec<f64>, bool) {
    let own = cx.tr.durations_us(name, false);
    if own.is_empty() {
        (cx.tr.durations_us(name, true), true)
    } else {
        (own, false)
    }
}

/// One traced-report line: metric, value, where it came from, what it
/// should move.
struct Row {
    metric: Metric,
    source: &'static str,
    moves: &'static str,
}

fn source(probe: bool) -> &'static str {
    if probe {
        "probe"
    } else {
        "own op"
    }
}

fn traced(kind: Kind, seed: u64, seconds: f64) -> Result<RunReport, String> {
    let threads = crate::nproc();
    let mut prep = workloads::setup(kind, seed);
    let first = crate::guarded_op(&mut prep, threads)?;
    let one = crate::check_first_op(kind, seed, &mut prep, &first)?;
    let again = crate::guarded_op(&mut prep, threads)?;
    if again.fingerprint != first.fingerprint {
        return Err(format!(
            "operation diverged: {} vs {}",
            again.fingerprint, first.fingerprint
        ));
    }
    let parallel_eff = one.wall_s / (threads as f64 * again.wall_s);
    // Set-up plus operations at both thread counts, before any tracing.
    let peak_heap_mb = crate::peak_heap_mb();
    let useful_frac = again.trials as f64 / again.trials_executed as f64;

    let mut cx = Cx {
        tr: Tracer::new(),
        tally: Default::default(),
        probe: false,
    };
    let mut speeds = vec![crate::refspeed::reference_speed(threads)];
    let t0 = Instant::now();
    let mut cycles = 0u64;
    let mut overhead = 0.0;
    loop {
        let fp = trace_op(
            &mut cx,
            kind,
            seed,
            &prep,
            &first.point_trials,
            first.trials,
        )?;
        if fp != first.fingerprint {
            return Err(format!(
                "traced replay diverged from the untraced run: {fp} vs {}",
                first.fingerprint
            ));
        }
        if cycles == 0 {
            overhead = cx.tr.total_ns(whole_span(kind), false) as f64 / 1e9 / one.wall_s;
        }
        cycles += 1;
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    trace_probes(&mut cx, kind, seed, &prep)?;
    speeds.push(crate::refspeed::reference_speed(threads));

    let mut rows: Vec<Row> = Vec::new();
    let mut push = |name: String,
                    value: f64,
                    unit: &'static str,
                    source: &'static str,
                    moves: &'static str| {
        rows.push(Row {
            metric: Metric::new(name, value, unit),
            source,
            moves,
        })
    };
    push("sim.engine.parallel_eff".into(), parallel_eff, "ratio", "own op",
        "frames_per_ref_s on mac_city_1k and net_ring_8user (≈1/threads when one worker gets every trial)");
    push("sim.engine.useful_frac".into(), useful_frac, "ratio", "own op",
        "frames_per_ref_s on link_acq_awgn and link_ber_cm3 (chunks run past the error target are discarded)");
    push("host.ref_speed".into(), stats::median(&speeds), "ratio", "own op",
        "none: the host's reference speed during this run; per-layer times are host times, unscaled");
    push("mem.peak_heap_mb".into(), peak_heap_mb, "MiB", "own op",
        "memory of the untraced run: the city's plan and record pool on mac_city_1k, batch arenas on the link workloads");
    push(
        "trace.overhead_ratio".into(),
        overhead,
        "ratio",
        "own op",
        "none: traced one-thread composite time over the untraced one-thread run",
    );
    for (span, stem, unit, moves) in TIMINGS {
        let (mut v, probe) = samples(&cx, span);
        if v.is_empty() {
            return Err(format!("no samples of `{span}`"));
        }
        if span == "platform.batch_trial" {
            let sizes = &cx.tally[usize::from(probe)].batch_sizes;
            for (x, b) in v.iter_mut().zip(sizes) {
                *x /= *b as f64;
            }
        }
        if unit == "ms" {
            v.iter_mut().for_each(|x| *x /= 1e3);
        }
        let Summary { n, p50, tail, .. } = stats::summarize(&v);
        push(format!("{stem}.p50"), p50, unit, source(probe), moves);
        push(format!("{stem}.tail"), tail, unit, source(probe), moves);
        push(format!("{stem}.n"), n as f64, "count", source(probe), moves);
    }
    for (span, metric, moves) in SETUPS {
        let (v, probe) = samples(&cx, span);
        if v.is_empty() {
            return Err(format!("no samples of `{span}`"));
        }
        push(
            metric.into(),
            stats::median(&v) / 1e3,
            "ms",
            source(probe),
            moves,
        );
    }
    for (whole, replay, metric, unit) in COMPOSITES {
        let probe = cx.tr.durations_us(whole, false).is_empty();
        let total = cx.tr.total_ns(whole, probe) as f64;
        let (_, parts) = cx.tr.parts_of(replay);
        let parts: u64 = parts.iter().map(|p| p.1).sum();
        let units = if whole == "platform.batch_trial" {
            cx.tally[usize::from(probe)].batch_sizes.iter().sum::<u64>() as f64
        } else {
            cx.tr.durations_us(whole, probe).len() as f64
        };
        let scale = if unit == "ms" { 1e6 } else { 1e3 };
        push(
            metric.into(),
            (total - parts as f64) / units / scale,
            unit,
            source(probe),
            "the composite's own work outside its replayable stages (see the parts table)",
        );
    }
    let pick = |f: fn(&Tally) -> bool| usize::from(!f(&cx.tally[0]));
    let ch = &cx.tally[pick(|t| t.channel_realizations > 0)];
    let ch_src = source(pick(|t| t.channel_realizations > 0) == 1);
    let (taps, madds) = (
        ch.channel_taps as f64 / ch.channel_realizations as f64,
        ch.channel_madds as f64 / ch.channel_realizations as f64,
    );
    let acq = &cx.tally[pick(|t| t.acquisitions > 0)];
    let acq_src = source(pick(|t| t.acquisitions > 0) == 1);
    let acq_frac = acq.acq_detected as f64 / acq.acquisitions as f64;
    let net = &cx.tally[pick(|t| t.nodes > 0)];
    let net_src = source(pick(|t| t.nodes > 0) == 1);
    let epn = net.edges as f64 / net.nodes as f64;
    let mac = cx.tally[pick(|t| t.mac_tx_frames > 0)].clone();
    let mac_src = source(pick(|t| t.mac_tx_frames > 0) == 1);
    let fft_p50 = stats::median(&cx.tr.durations_us("dsp.fft32_4096", true));
    let fft_flop = 5.0 * FFT_N as f64 * (FFT_N as f64).log2();
    push(
        "sim.channel_taps".into(),
        taps,
        "count",
        ch_src,
        "frames_per_ref_s on link_ber_cm3 (taps per realization)",
    );
    push(
        "sim.channel_madds".into(),
        madds,
        "count",
        ch_src,
        "frames_per_ref_s on link_ber_cm3 (complex multiply-adds per record = taps × samples)",
    );
    push(
        "phy.acq_lock_frac".into(),
        acq_frac,
        "ratio",
        acq_src,
        "frames_per_ref_s on link_acq_awgn (useful share of acquisition attempts)",
    );
    push(
        "dsp.fft32_4096_gflops".into(),
        fft_flop / fft_p50 / 1e3,
        "GFLOP/s",
        "probe",
        "frames_per_ref_s on link_acq_awgn (computed 5·N·log2 N flop at the p50 time)",
    );
    push(
        "dsp.fft32_4096_bytes".into(),
        16.0 * FFT_N as f64,
        "bytes",
        "probe",
        "computed: one read and one write of the split f32 re/im arrays",
    );
    push(
        "net.edges_per_node".into(),
        epn,
        "count",
        net_src,
        "setup_s and frames_per_ref_s on mac_city_1k",
    );
    push(
        "mac.tx_frames".into(),
        mac.mac_tx_frames as f64,
        "count",
        mac_src,
        "frames_per_ref_s on mac_city_1k",
    );
    push(
        "mac.retries".into(),
        mac.mac_retries as f64,
        "count",
        mac_src,
        "frames_per_ref_s on mac_city_1k",
    );
    push(
        "mac.defers".into(),
        mac.mac_defers as f64,
        "count",
        mac_src,
        "frames_per_ref_s on mac_city_1k",
    );
    push(
        "mac.decode_failures".into(),
        mac.mac_decode_failures as f64,
        "count",
        mac_src,
        "frames_per_ref_s on mac_city_1k",
    );
    push(
        "mac.delivered_per_tx".into(),
        mac.mac_delivered as f64 / mac.mac_tx_frames as f64,
        "ratio",
        mac_src,
        "frames_per_ref_s on mac_city_1k (useful share of transmitted frames)",
    );

    print_report(&cx, kind, &rows, cycles);
    write_spans(&cx.tr, kind, seed);
    Ok(RunReport {
        correct: true,
        attempted: 1 + cycles,
        failed: 0,
        metrics: rows.into_iter().map(|r| r.metric).collect(),
    })
}

/// Human-readable report on standard error: the per-layer table with what
/// each metric should move, and a parts-vs-whole table per composite call.
fn print_report(cx: &Cx, kind: Kind, rows: &[Row], cycles: u64) {
    eprintln!(
        "\nperfbench traced run: {} ({cycles} replay cycle(s) of the operation)",
        kind.name()
    );
    eprintln!(
        "{:<40} {:>14} {:<9} {:<7} should move",
        "metric", "value", "unit", "source"
    );
    for r in rows {
        // Name the percentile each `.tail` reports (it follows from `.n`).
        let mut name = r.metric.name.clone();
        if let Some(stem) = name.strip_suffix(".tail") {
            let n_name = format!("{stem}.n");
            let n = rows
                .iter()
                .find(|x| x.metric.name == n_name)
                .map_or(0.0, |x| x.metric.value);
            let level =
                stats::tail_percentile(n as usize).map_or("max".to_string(), |p| format!("p{p}"));
            name = format!("{name} ({level})");
        }
        eprintln!(
            "{:<40} {:>14.4} {:<9} {:<7} {}",
            name, r.metric.value, r.metric.unit, r.source, r.moves
        );
    }
    for (whole, replay, _, _) in COMPOSITES {
        let probe = cx.tr.durations_us(whole, false).is_empty();
        let calls = cx.tr.durations_us(whole, probe).len();
        if calls == 0 {
            continue;
        }
        let total = cx.tr.total_ns(whole, probe) as f64;
        let (replay_total, parts) = cx.tr.parts_of(replay);
        eprintln!(
            "\n{whole} ({}, {calls} calls): whole {:.1} ms; stage replay {:.1} ms",
            source(probe),
            total / 1e6,
            replay_total as f64 / 1e6
        );
        let mut sum = 0.0;
        for (name, ns) in &parts {
            let ns = *ns as f64;
            sum += ns;
            eprintln!(
                "  {name:<28} {:>10.1} ms {:>6.1}% of whole",
                ns / 1e6,
                100.0 * ns / total
            );
        }
        eprintln!(
            "  {:<28} {:>10.1} ms {:>6.1}% of whole",
            "unattributed",
            (total - sum) / 1e6,
            100.0 * (total - sum) / total
        );
    }
}

/// Writes the span tree as a Chrome trace under the build directory.
fn write_spans(tr: &Tracer, kind: Kind, seed: u64) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench");
    let path = dir.join(format!("spans-{}-seed{seed}.json", kind.name()));
    let written =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tr.to_chrome_json()));
    match written {
        Ok(()) => eprintln!(
            "\nperfbench: {} spans written to {}",
            tr.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("\nperfbench: spans not written to {}: {e}", path.display()),
    }
}

/// Runs the traced mode of `kind`.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64) -> RunReport {
    match catch_unwind(AssertUnwindSafe(|| traced(kind, seed, seconds))) {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => crate::failed_report(&e, 1),
        Err(_) => crate::failed_report("traced run panicked", 1),
    }
}
