//! End-to-end link runner — the software stand-in for the paper's discrete
//! prototype platform.
//!
//! "A discrete prototype with the same specifications has been designed and
//! implemented, allowing … a complete testing of the algorithms implemented
//! in the digital back end under realistic conditions" (paper §3). The
//! runner builds packets, pushes them through multipath / noise /
//! interference, runs the gen2 receiver, and accumulates calibrated BER
//! statistics.
//!
//! Two runners share one trial pipeline ([`LinkWorker`]): streamed
//! synthesis → AGC/ADC → known-timing statistics → decode/count, plus
//! acquisition → packet decode on the full path. [`run_ber_budgeted`]
//! (full path) and [`run_ber_fast_streamed_tuned`] (known-timing BER)
//! both execute on [`uwb_sim::montecarlo::MonteCarlo`]:
//!
//! * trial `t` draws its RNG from
//!   [`uwb_sim::rng::derive_trial_seed`]`(scenario.seed, t)` (a splitmix64
//!   mix — the former `seed ^ t * φ64` xor was linear in `t` and reused the
//!   master seed verbatim for trial 0);
//! * transmitters / receivers / spectral monitors / notch filters are built
//!   once per worker thread and reused across trials instead of being
//!   reconstructed per packet;
//! * runs that exhaust the trial budget report
//!   [`LinkStopReason::Truncated`] instead of silently returning a
//!   truncated estimate (the old runners broke out at 10 000 trials without
//!   telling anyone);
//! * results are bit-identical for any worker thread count (`UWB_THREADS`).

use crate::metrics::ErrorCounter;
use std::ops::Range;
use uwb_dsp::stream::BlockProcessor;
use uwb_dsp::Complex;
use uwb_phy::packet::{decode_payload_bits_into, reference_payload_bits_into};
use uwb_phy::{
    Burst, FrameScratch, FrameSlots, Gen2Config, Gen2Receiver, Gen2Transmitter, PhyError, RxState,
    SpectralMonitor,
};
use uwb_rf::TunableNotch;
use uwb_sim::montecarlo::{Merge, MonteCarlo, RunStats, StopReason};
use uwb_sim::stream::{StreamingAwgn, StreamingChannel, StreamingInterferer};
use uwb_sim::sv_channel::{ChannelModel, ChannelRealization, Tap};
use uwb_sim::{Interferer, Rand};

/// Default block length (in samples) for the streamed synthesis path —
/// small enough that the working set stays cache-resident, large enough
/// that per-block dispatch is negligible against the per-sample work.
pub const DEFAULT_STREAM_BLOCK: usize = 4096;

/// A complete link scenario.
#[derive(Debug, Clone)]
pub struct LinkScenario {
    /// PHY configuration for both ends.
    pub config: Gen2Config,
    /// Multipath environment (a fresh realization is drawn per packet).
    pub channel: ChannelModel,
    /// Eb/N0 in dB (energy per *information* bit over noise density).
    pub ebn0_db: f64,
    /// Optional narrowband interferer.
    pub interferer: Option<Interferer>,
    /// Engage the spectral monitor + tunable notch against the interferer.
    pub notch_enabled: bool,
    /// Master seed (forked per packet via `derive_trial_seed`).
    pub seed: u64,
}

impl LinkScenario {
    /// An AWGN-only scenario at the given Eb/N0.
    pub fn awgn(config: Gen2Config, ebn0_db: f64, seed: u64) -> Self {
        LinkScenario {
            config,
            channel: ChannelModel::Awgn,
            ebn0_db,
            interferer: None,
            notch_enabled: false,
            seed,
        }
    }
}

/// Accumulated outcome of a BER run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkOutcome {
    /// Raw (pre-CRC) bit errors over the payload+FCS bits.
    pub ber: ErrorCounter,
    /// Packets attempted.
    pub packets: u64,
    /// Packets that fully decoded with a valid CRC.
    pub packets_ok: u64,
    /// Packets lost to acquisition failure.
    pub sync_failures: u64,
}

impl LinkOutcome {
    /// Packet error rate. `NaN` when no packets were attempted — an empty
    /// run is *not* an error-free run.
    pub fn per(&self) -> f64 {
        if self.packets == 0 {
            f64::NAN
        } else {
            1.0 - self.packets_ok as f64 / self.packets as f64
        }
    }
}

impl Merge for LinkOutcome {
    fn merge(&mut self, other: &Self) {
        self.ber.merge(&other.ber);
        self.packets += other.packets;
        self.packets_ok += other.packets_ok;
        self.sync_failures += other.sync_failures;
    }
}

/// Why a BER run ended — the old runners silently broke out of the loop at
/// 10 000 trials; now the condition is explicit and surfaced to callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkStopReason {
    /// Accumulated `target_errors` bit errors: the estimate has its design
    /// confidence.
    TargetErrors,
    /// Hit `max_bits` observed bits before the error target.
    BitBudget,
    /// Ran out of trials before either stop condition — the estimate is
    /// truncated and should not be reported as a clean statistic.
    Truncated,
}

impl LinkStopReason {
    /// `true` when the run exhausted its trial budget.
    pub fn truncated(&self) -> bool {
        matches!(self, LinkStopReason::Truncated)
    }
}

impl std::fmt::Display for LinkStopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkStopReason::TargetErrors => write!(f, "target-errors"),
            LinkStopReason::BitBudget => write!(f, "bit-budget"),
            LinkStopReason::Truncated => write!(f, "truncated"),
        }
    }
}

/// Trial budget for a BER run (replaces the old hard-coded, silent 10 000
/// trial cap).
#[derive(Debug, Clone, Copy)]
pub struct TrialBudget {
    /// Maximum packets to simulate before declaring the run truncated.
    pub max_trials: u64,
}

impl Default for TrialBudget {
    fn default() -> Self {
        // 10x the old silent cap: with per-worker cached state and N
        // threads this is still far cheaper than the old serial loop.
        TrialBudget {
            max_trials: 100_000,
        }
    }
}

/// Result of [`run_ber_fast_streamed_tuned`]: the BER counter plus run
/// metadata.
///
/// Derefs to [`ErrorCounter`] so existing call sites (`c.rate()`,
/// `c.errors`, `format!("{c}")`) keep working unchanged.
#[derive(Debug, Clone)]
pub struct BerRun {
    /// The accumulated bit-error counter.
    pub counter: ErrorCounter,
    /// Why the run ended.
    pub stop: LinkStopReason,
    /// Engine statistics (trials, wall time, threads, trials/sec).
    pub stats: RunStats,
}

impl std::ops::Deref for BerRun {
    type Target = ErrorCounter;
    fn deref(&self) -> &ErrorCounter {
        &self.counter
    }
}

impl std::fmt::Display for BerRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]", self.counter, self.stop)
    }
}

/// Result of [`run_ber_budgeted`]: the full link outcome plus run metadata.
///
/// Derefs to [`LinkOutcome`] so existing call sites keep working unchanged.
#[derive(Debug, Clone)]
pub struct LinkRun {
    /// The accumulated link outcome (BER + packet + sync counters).
    pub outcome: LinkOutcome,
    /// Why the run ended.
    pub stop: LinkStopReason,
    /// Engine statistics (trials, wall time, threads, trials/sec).
    pub stats: RunStats,
}

impl std::ops::Deref for LinkRun {
    type Target = LinkOutcome;
    fn deref(&self) -> &LinkOutcome {
        &self.outcome
    }
}

/// Energy per information bit carried by one frame's payload section, in
/// pulse-energy units (pulse templates are unit energy). Reads the slot
/// amplitudes off the already-built frame — the old runner rebuilt the
/// entire frame (CRC, FEC, spreading) a second time just to compute this.
fn energy_per_info_bit(slots: &uwb_phy::packet::FrameSlots, payload_len: usize) -> f64 {
    let slot_energy: f64 = slots.payload.iter().map(|a| a * a).sum();
    let info_bits = 8.0 * (payload_len + 4) as f64;
    slot_energy / info_bits
}

/// The outcome of [`LinkWorker::synthesize_clean_streamed`]: where the
/// frame starts in the record, and everything needed to apply the victim's
/// receiver noise *later* (after foreign records have been mixed in)
/// while staying bit-identical to the single-link trial.
#[derive(Debug, Clone)]
pub struct CleanSynthesis {
    /// Known slot-0 start index in the record (for the known-timing BER
    /// path).
    pub slot0_start: usize,
    /// Noise spectral density calibrated to the scenario's Eb/N0 on
    /// information bits.
    pub n0: f64,
    /// The RNG at exactly the state the single-link path starts drawing
    /// noise samples from.
    pub awgn_rng: Rand,
}

/// Kept only because `perfbench/` still names it; delete it together with
/// [`LinkWorker::trial_batch_ber_streamed`].
#[derive(Default)]
pub struct BatchScratch;

impl BatchScratch {
    /// The (empty) scratch.
    pub fn new() -> Self {
        BatchScratch
    }
}

/// AGC/ADC of `record` into `out` (replacing its contents) under the
/// `rx_agc_adc` span.
fn digitize(rx: &Gen2Receiver, record: &[Complex], out: &mut Vec<Complex>) {
    let _t = uwb_obs::span!("rx_agc_adc");
    out.clear();
    rx.digitize_append(record, out);
}

/// Per-worker cached state: everything that does not depend on the trial
/// index is built once per worker thread and reused across trials. The old
/// runners rebuilt the transmitter/receiver (and, per trial, the spectral
/// monitor and notch filter) for every packet.
///
/// Since the zero-allocation DSP port, the worker also owns every per-trial
/// buffer (burst, channel realization, impaired and digitized records, slot
/// statistics, decoded/reference bits, receiver state). After the first
/// trial warms the buffers to their high-water marks, steady-state trials
/// on the nominal BER path perform no heap allocation at all; this is
/// enforced by a counting-allocator regression test in the umbrella crate.
/// The FEC, MLSE, and notch paths are the documented exceptions.
///
/// Every trial runs one pipeline — streamed synthesis → AGC/ADC →
/// known-timing statistics → decode/count — and the full trial adds
/// acquisition → packet decode over the same digitized record.
///
/// Public so harnesses (benchmarks, allocation tests) can drive single
/// trials directly without going through the Monte-Carlo engine.
pub struct LinkWorker {
    tx: Gen2Transmitter,
    rx: Gen2Receiver,
    monitor: SpectralMonitor,
    notch: TunableNotch,
    stream_channel: StreamingChannel,
    // --- persistent per-trial buffers ---
    channel: ChannelRealization,
    rx_state: RxState,
    frame_scratch: FrameScratch,
    burst: Burst,
    payload: Vec<u8>,
    samples: Vec<Complex>,
    digitized: Vec<Complex>,
    stats: Vec<Complex>,
    bits: Vec<bool>,
    ref_bits: Vec<bool>,
}

impl LinkWorker {
    /// Builds the worker for a scenario (one per Monte-Carlo thread).
    ///
    /// # Panics
    ///
    /// Panics if the scenario's PHY configuration fails validation.
    pub fn new(scenario: &LinkScenario) -> Self {
        let config = &scenario.config;
        LinkWorker {
            tx: Gen2Transmitter::new(config.clone()).expect("tx config"),
            rx: Gen2Receiver::new(config.clone()).expect("rx config"),
            monitor: SpectralMonitor::new(),
            notch: TunableNotch::new(config.sample_rate, 30.0),
            stream_channel: StreamingChannel::new(),
            channel: ChannelRealization::from_taps(vec![Tap {
                delay_ns: 0.0,
                gain: Complex::ONE,
            }]),
            rx_state: RxState::new(),
            frame_scratch: FrameScratch::new(),
            burst: Burst {
                samples: Vec::new(),
                sample_rate: config.sample_rate,
                slot0_center: 0,
                samples_per_slot: 0,
                slots: FrameSlots::default(),
            },
            payload: Vec::new(),
            samples: Vec::new(),
            digitized: Vec::new(),
            stats: Vec::new(),
            bits: Vec::new(),
            ref_bits: Vec::new(),
        }
    }

    /// Synthesizes one impaired packet record into the worker's record
    /// buffer and returns the known slot-0 start: the record is built
    /// `block_len` samples at a time through the streaming
    /// channel/interferer operators
    /// ([`synthesize_clean_streamed`](Self::synthesize_clean_streamed)),
    /// then receiver noise and the optional notch defense run over it
    /// ([`add_noise_and_notch`](Self::add_noise_and_notch)).
    ///
    /// RNG draw order: payload bytes → channel realization → interferer
    /// starting phase → AWGN samples (I then Q, ascending index). The record
    /// is independent of `block_len` bit for bit, and for AWGN-only, CW- and
    /// swept-interferer scenarios it is bit-identical to whole-record
    /// synthesis; multipath records agree with whole-record FFT convolution
    /// to numerical precision and modulated interferers fork their symbol
    /// stream (see `uwb_sim::stream`).
    fn synthesize_streamed(
        &mut self,
        scenario: &LinkScenario,
        payload_len: usize,
        block_len: usize,
        rng: &mut Rand,
    ) -> usize {
        // `mem::take` detaches the record so it can be borrowed alongside
        // `&mut self`; swap-restore, no allocation.
        let mut samples = std::mem::take(&mut self.samples);
        let clean = self.synthesize_clean_streamed_record(
            scenario,
            payload_len,
            block_len,
            rng,
            &mut samples,
        );
        self.add_noise_and_notch(scenario, clean.n0, clean.awgn_rng, &mut samples);
        self.samples = samples;
        clean.slot0_start
    }

    /// Calibrated receiver noise over a whole assembled record, then the
    /// optional spectral monitoring + tunable notch (the paper's interferer
    /// defense). One `StreamingAwgn` pass over the full record draws exactly
    /// the sample sequence a per-block application would (chunk-size
    /// invariance). The monitor needs the whole record and the notch filter
    /// still allocates its output (outside the zero-allocation steady-state
    /// contract), so both run after assembly; only the notch centre is
    /// re-tuned per record.
    fn add_noise_and_notch(
        &mut self,
        scenario: &LinkScenario,
        n0: f64,
        awgn_rng: Rand,
        record: &mut [Complex],
    ) {
        {
            let _t = uwb_obs::span!("awgn");
            StreamingAwgn::new(n0, awgn_rng).process_block(record, self.rx_state.scratch());
        }
        if scenario.notch_enabled {
            let _t = uwb_obs::span!("notch");
            let report = self
                .monitor
                .analyze(record, scenario.config.sample_rate.as_hz());
            if report.detected {
                uwb_obs::event!("notch_retune", report.frequency.as_hz() as u64);
                self.notch.tune(report.frequency);
                let filtered = self.notch.process(record);
                record.copy_from_slice(&filtered);
            }
        }
    }

    /// The noiseless front half of a streamed trial: payload → frame →
    /// multipath channel (→ optional local interferer), accumulated
    /// block-by-block in the worker's record buffer, but **without** the
    /// AWGN pass. The network simulator uses this to obtain each
    /// transmitter's clean at-the-victim waveform, mixes scaled foreign
    /// records on top, and only then applies the victim's receiver noise —
    /// which is why the returned [`CleanSynthesis`] carries the calibrated
    /// `n0` and a clone of the RNG at exactly the state the single-link
    /// path would start drawing noise from. A link with no coupled
    /// interferers therefore reproduces the single-link streamed trial
    /// **bit-for-bit**.
    ///
    /// Allocation-free in steady state; the record is available via
    /// [`clean_record`](Self::clean_record) until the next synthesis call.
    pub fn synthesize_clean_streamed(
        &mut self,
        scenario: &LinkScenario,
        payload_len: usize,
        block_len: usize,
        rng: &mut Rand,
    ) -> CleanSynthesis {
        let mut samples = std::mem::take(&mut self.samples);
        let clean =
            self.synthesize_clean_streamed_record(scenario, payload_len, block_len, rng, &mut samples);
        self.samples = samples;
        clean
    }

    /// [`synthesize_clean_streamed`](Self::synthesize_clean_streamed) with
    /// the record written into an **externally owned** buffer instead of the
    /// worker's private one. This is what lets the network simulator share
    /// one worker across every link of a given configuration: the per-round
    /// waveforms live in the caller's arena while the worker only carries
    /// the configuration-shaped machinery (transmitter, streaming channel,
    /// scratch). Identical RNG schedule and sample values to the private-
    /// buffer variant; allocation-free once `record` has warmed to capacity.
    pub fn synthesize_clean_streamed_record(
        &mut self,
        scenario: &LinkScenario,
        payload_len: usize,
        block_len: usize,
        rng: &mut Rand,
        record: &mut Vec<Complex>,
    ) -> CleanSynthesis {
        record.clear();
        let config = &scenario.config;
        {
            let _t = uwb_obs::span!("tx");
            self.payload.clear();
            self.payload.resize(payload_len, 0);
            rng.fill_bytes(&mut self.payload);
            self.tx
                .transmit_packet_into(&self.payload, &mut self.burst, &mut self.frame_scratch)
                .expect("payload size");
        }

        let fs = config.sample_rate;
        {
            let _t = uwb_obs::span!("channel");
            self.channel.regenerate(scenario.channel, rng);
            self.stream_channel.configure(&self.channel, fs);
        }

        // The streaming interferer draws its starting phase here — the same
        // single draw, at the same RNG position, as a whole-record
        // `add_to_in_place` call.
        let mut interferer = scenario
            .interferer
            .as_ref()
            .map(|i| StreamingInterferer::new(i, fs.as_hz(), rng));

        // Noise calibrated to Eb/N0 on information bits; the clone captures
        // the RNG at exactly the state noise samples are drawn from.
        let n0 = {
            let eb = energy_per_info_bit(&self.burst.slots, self.payload.len());
            eb / uwb_dsp::math::db_to_pow(scenario.ebn0_db)
        };
        uwb_obs::note!("ebn0_milli_db", (scenario.ebn0_db * 1000.0) as i64 as u64);
        let awgn_rng = rng.clone();

        let block_len = block_len.max(1);
        let n = self.burst.samples.len();
        record.reserve(n + self.stream_channel.tail_len());
        let scratch = self.rx_state.scratch();
        let mut start = 0;
        while start < n {
            let end = (start + block_len).min(n);
            record.extend_from_slice(&self.burst.samples[start..end]);
            let block = &mut record[start..end];
            {
                let _t = uwb_obs::span!("channel");
                self.stream_channel.process_block(block, scratch);
            }
            if let Some(src) = interferer.as_mut() {
                let _t = uwb_obs::span!("interferer");
                src.process_block(block, scratch);
            }
            start = end;
        }

        // Multipath tail: the channel flushes its carried L-1 samples, which
        // then pass through the downstream stages — the interferer also
        // covers the convolution tail.
        {
            let _t = uwb_obs::span!("channel");
            self.stream_channel.flush_into(record, scratch);
        }
        if record.len() > n {
            let tail = &mut record[n..];
            if let Some(src) = interferer.as_mut() {
                let _t = uwb_obs::span!("interferer");
                src.process_block(tail, scratch);
            }
        }

        CleanSynthesis {
            slot0_start: self.burst.slot0_center - self.tx.pulse().len() / 2,
            n0,
            awgn_rng,
        }
    }

    /// The clean (or, after a trial, impaired) record assembled by the most
    /// recent synthesis call. The network simulator reads every
    /// transmitter's clean record through this to build per-victim
    /// superpositions.
    pub fn clean_record(&self) -> &[Complex] {
        &self.samples
    }

    /// The payload bytes drawn by the most recent synthesis call. The
    /// network simulator snapshots these right after synthesizing a link's
    /// record so that a *shared* worker can later be handed back the right
    /// reference payload at decode time
    /// (see [`count_errors_in_record`](Self::count_errors_in_record)).
    pub fn payload_bytes(&self) -> &[u8] {
        &self.payload
    }

    /// Known-timing BER back half over an *externally supplied* record —
    /// the network and MAC simulators hand each victim receiver its mixed
    /// (own + interference + noise) superposition rather than the worker's
    /// private buffer. A pooled worker has synthesized other links' records
    /// since this link's, so the caller supplies the payload snapshot taken
    /// at synthesis time; the worker restores it, digitizes the record into
    /// its own buffer, and decodes. Returns `true` if the decoded payload
    /// was error-free this trial (the per-round packet success proxy).
    /// Allocation-free in steady state.
    pub fn count_errors_in_record(
        &mut self,
        config: &Gen2Config,
        record: &[Complex],
        slot0_start: usize,
        payload: &[u8],
        counter: &mut ErrorCounter,
    ) -> bool {
        self.payload.clear();
        self.payload.extend_from_slice(payload);
        digitize(&self.rx, record, &mut self.digitized);
        self.count_errors_digitized(config, slot0_start, counter)
    }

    /// The known-timing decode/count over the worker's digitized buffer:
    /// statistics → decode → error count. Returns `true` if the decoded
    /// payload was error-free. Leaves the channel-estimate memo pointing at
    /// this record, so an acquired packet decode of the same record that
    /// locks at `slot0_start` skips the duplicate estimate.
    fn count_errors_digitized(
        &mut self,
        config: &Gen2Config,
        slot0_start: usize,
        counter: &mut ErrorCounter,
    ) -> bool {
        self.rx.payload_statistics_predigitized_with(
            &self.digitized,
            slot0_start,
            self.payload.len(),
            &mut self.rx_state,
            &mut self.stats,
        );
        let _t = uwb_obs::span!("rx_decode");
        if decode_payload_bits_into(
            &self.stats,
            self.payload.len(),
            config,
            &mut self.frame_scratch,
            &mut self.bits,
        )
        .is_ok()
        {
            let before = counter.errors;
            reference_payload_bits_into(&self.payload, &mut self.frame_scratch, &mut self.ref_bits);
            counter.add_bits(&self.ref_bits, &self.bits);
            uwb_obs::hist!("trial_bit_errors", counter.errors - before);
            uwb_obs::digest!("trial_bit_errors", counter.errors - before);
            counter.errors == before
        } else {
            false
        }
    }

    /// The steps both single-trial kinds share: streamed synthesis →
    /// AGC/ADC into the worker's digitized buffer → known-timing
    /// decode/count. Returns the bit errors this trial added.
    fn known_timing_trial(
        &mut self,
        scenario: &LinkScenario,
        payload_len: usize,
        block_len: usize,
        rng: &mut Rand,
        counter: &mut ErrorCounter,
    ) -> u64 {
        let slot0_start = self.synthesize_streamed(scenario, payload_len, block_len, rng);
        digitize(&self.rx, &self.samples, &mut self.digitized);
        let before = counter.errors;
        self.count_errors_digitized(&scenario.config, slot0_start, counter);
        counter.errors - before
    }

    /// BER-only trial: the impaired record is produced `block_len` samples
    /// at a time, then decoded with known timing. The counters do not
    /// depend on `block_len`, and on AWGN-only, CW- and swept-interferer
    /// scenarios they equal whole-record synthesis bit for bit (multipath:
    /// to numerical precision). Zero steady-state heap allocation on the
    /// nominal configuration.
    pub fn trial_ber_streamed(
        &mut self,
        scenario: &LinkScenario,
        payload_len: usize,
        block_len: usize,
        rng: &mut Rand,
        counter: &mut ErrorCounter,
    ) {
        let errors = self.known_timing_trial(scenario, payload_len, block_len, rng, counter);
        // BER-only trials never acquire; the flight recorder scores them on
        // bit errors alone (no-op unless the engine armed this trial).
        uwb_obs::recorder::observe(errors, 0);
    }

    /// Full trial: the BER trial of
    /// [`trial_ber_streamed`](Self::trial_ber_streamed) at
    /// [`DEFAULT_STREAM_BLOCK`], plus the acquired packet path over the same
    /// digitized record (coarse acquisition → channel estimate → RAKE →
    /// header/payload decode). When acquisition locks at the true frame
    /// start, the packet decode reuses the known-timing pass's channel
    /// estimate (bit-exact, see `RxState::chanest_memo`).
    pub fn trial_full(
        &mut self,
        scenario: &LinkScenario,
        payload_len: usize,
        rng: &mut Rand,
        outcome: &mut LinkOutcome,
    ) {
        let errors = self.known_timing_trial(
            scenario,
            payload_len,
            DEFAULT_STREAM_BLOCK,
            rng,
            &mut outcome.ber,
        );
        outcome.packets += 1;
        let acq = self.rx.acquire_record(&self.digitized, &mut self.rx_state);
        let acq_metric_bits =
            match self
                .rx
                .receive_packet_acquired(&self.digitized, &acq, &mut self.rx_state)
            {
                Ok(pkt) => {
                    if pkt.payload == self.payload {
                        outcome.packets_ok += 1;
                    }
                    pkt.acquisition.metric.to_bits()
                }
                Err(PhyError::SyncFailed) => {
                    outcome.sync_failures += 1;
                    0
                }
                Err(_) => 0,
            };
        // Finalize the flight-recorder snapshot for this trial (no-op unless
        // the engine armed it): bit errors first, then the acquisition
        // confidence as tiebreak.
        uwb_obs::recorder::observe(errors, acq_metric_bits);
    }

    /// [`trial_ber_streamed`](Self::trial_ber_streamed) once per trial of
    /// `trials`, each tagged with `set_trial(t)` and drawing its RNG from
    /// `Rand::for_trial(scenario.seed, t)`. Kept only because `perfbench/`
    /// still calls it; delete it together with that call.
    pub fn trial_batch_ber_streamed(
        &mut self,
        scenario: &LinkScenario,
        payload_len: usize,
        block_len: usize,
        trials: Range<u64>,
        _scratch: &mut BatchScratch,
        counter: &mut ErrorCounter,
    ) {
        for t in trials {
            uwb_obs::set_trial(t);
            let mut rng = Rand::for_trial(scenario.seed, t);
            self.trial_ber_streamed(scenario, payload_len, block_len, &mut rng, counter);
        }
    }
}

/// Maps the engine's stop reason onto the link-level one by inspecting the
/// counter that triggered the predicate.
fn classify_stop(reason: StopReason, c: &ErrorCounter, target_errors: u64) -> LinkStopReason {
    match reason {
        StopReason::TrialBudgetExhausted => LinkStopReason::Truncated,
        StopReason::TargetReached if c.errors >= target_errors => LinkStopReason::TargetErrors,
        StopReason::TargetReached => LinkStopReason::BitBudget,
    }
}

/// The full-path runner: packets ([`LinkWorker::trial_full`]) until
/// `target_errors` bit errors accumulate or `max_bits` bits are observed,
/// in parallel on the deterministic Monte-Carlo engine, capped by `budget`.
///
/// Uses the *known-timing* statistics path for the BER counter (so every
/// payload bit contributes even when the CRC fails) and the full
/// acquisition path for the packet/sync counters. Its BER counter is
/// bit-identical to [`run_ber_fast_streamed_tuned`]'s on the same scenario.
pub fn run_ber_budgeted(
    scenario: &LinkScenario,
    payload_len: usize,
    target_errors: u64,
    max_bits: u64,
    budget: TrialBudget,
) -> LinkRun {
    let out = MonteCarlo::new(scenario.seed, budget.max_trials).run(
        || LinkWorker::new(scenario),
        |w, _trial, rng, acc: &mut LinkOutcome| w.trial_full(scenario, payload_len, rng, acc),
        |acc| acc.ber.errors >= target_errors || acc.ber.total >= max_bits,
    );
    let stop = classify_stop(out.stats.stop_reason, &out.value.ber, target_errors);
    LinkRun {
        outcome: out.value,
        stop,
        stats: out.stats,
    }
}

/// The known-timing BER runner: skips the acquisition packet path (several
/// times faster; used for wide parameter sweeps). Every trial
/// ([`LinkWorker::trial_ber_streamed`]) builds its impaired record
/// `block_len` samples at a time (use [`DEFAULT_STREAM_BLOCK`] unless
/// studying the block length).
///
/// `threads` overrides `UWB_THREADS` when `Some`; `_batch` is ignored
/// (every in-repo caller passes `None`; `perfbench/` still passes it).
/// Counters, telemetry fingerprint, and worst-trial report are
/// bit-identical for any block length and thread count.
#[allow(clippy::too_many_arguments)]
pub fn run_ber_fast_streamed_tuned(
    scenario: &LinkScenario,
    payload_len: usize,
    block_len: usize,
    target_errors: u64,
    max_bits: u64,
    budget: TrialBudget,
    _batch: Option<u64>,
    threads: Option<usize>,
) -> BerRun {
    let mut mc = MonteCarlo::new(scenario.seed, budget.max_trials);
    mc.threads = threads;
    let out = mc.run(
        || LinkWorker::new(scenario),
        |w, _trial, rng, acc: &mut ErrorCounter| {
            w.trial_ber_streamed(scenario, payload_len, block_len, rng, acc)
        },
        |acc| acc.errors >= target_errors || acc.total >= max_bits,
    );
    let stop = classify_stop(out.stats.stop_reason, &out.value, target_errors);
    BerRun {
        counter: out.value,
        stop,
        stats: out.stats,
    }
}

/// Ground-truth mean RMS delay spread over `realizations` channel draws,
/// used by experiment harnesses (not part of any receiver path). `NaN`
/// when `realizations` is zero — no draws is not "no delay spread".
pub fn channel_rms_delay_ns(model: ChannelModel, realizations: usize, seed: u64) -> f64 {
    if realizations == 0 {
        return f64::NAN;
    }
    let mut rng = Rand::new(seed);
    (0..realizations)
        .map(|_| ChannelRealization::generate(model, &mut rng).rms_delay_spread_ns())
        .sum::<f64>()
        / realizations as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::bpsk_awgn_ber;

    fn small_config() -> Gen2Config {
        Gen2Config {
            preamble_repeats: 2,
            ..Gen2Config::nominal_100mbps()
        }
    }

    /// The known-timing runner at the default block and threads.
    fn fast(sc: &LinkScenario, payload_len: usize, target_errors: u64, max_bits: u64) -> BerRun {
        run_ber_fast_streamed_tuned(
            sc,
            payload_len,
            DEFAULT_STREAM_BLOCK,
            target_errors,
            max_bits,
            TrialBudget::default(),
            None,
            None,
        )
    }

    #[test]
    fn high_snr_is_error_free() {
        let sc = LinkScenario::awgn(small_config(), 15.0, 1);
        let c = fast(&sc, 32, 10, 2_000);
        assert_eq!(c.errors, 0, "{c}");
        assert!(c.total > 0);
        assert_eq!(c.stop, LinkStopReason::BitBudget);
    }

    #[test]
    fn awgn_ber_matches_theory_at_4db() {
        // At Eb/N0 = 4 dB, BPSK theory gives 1.25e-2; our receiver has a
        // small implementation loss (ADC + estimated channel), so accept
        // theory x [0.6, 4].
        let sc = LinkScenario::awgn(small_config(), 4.0, 2);
        let c = fast(&sc, 64, 150, 2_000_000);
        let theory = bpsk_awgn_ber(4.0);
        let ratio = c.rate() / theory;
        assert!(
            ratio > 0.6 && ratio < 4.0,
            "measured {} vs theory {theory} (ratio {ratio})",
            c.rate()
        );
        assert_eq!(c.stop, LinkStopReason::TargetErrors);
        assert!(!c.stop.truncated());
    }

    #[test]
    fn ber_monotonic_in_ebn0() {
        let rates: Vec<f64> = [0.0, 4.0, 8.0]
            .iter()
            .map(|&ebn0| {
                fast(
                    &LinkScenario::awgn(small_config(), ebn0, 3),
                    32,
                    80,
                    400_000,
                )
                .rate()
            })
            .collect();
        assert!(rates[0] > rates[1]);
        assert!(rates[1] >= rates[2]);
    }

    #[test]
    fn full_packet_path_counts() {
        let sc = LinkScenario::awgn(small_config(), 12.0, 4);
        let run = run_ber_budgeted(&sc, 24, u64::MAX, u64::MAX, TrialBudget { max_trials: 3 });
        assert_eq!(run.packets, 3);
        assert_eq!(run.packets_ok, 3);
        assert_eq!(run.sync_failures, 0);
        assert_eq!(run.per(), 0.0);
    }

    #[test]
    fn empty_run_per_is_nan_not_zero() {
        // The old per() returned 0.0 for zero packets — indistinguishable
        // from a perfect run.
        let outcome = LinkOutcome::default();
        assert!(outcome.per().is_nan());
    }

    #[test]
    fn truncated_run_is_flagged() {
        // Error-free scenario with an unreachable error target and a bit
        // budget larger than the trial budget can supply.
        let sc = LinkScenario::awgn(small_config(), 15.0, 8);
        let c = run_ber_fast_streamed_tuned(
            &sc,
            32,
            DEFAULT_STREAM_BLOCK,
            1_000,
            u64::MAX,
            TrialBudget { max_trials: 4 },
            None,
            None,
        );
        assert_eq!(c.stop, LinkStopReason::Truncated);
        assert!(c.stop.truncated());
        assert!(c.stats.truncated());
        assert_eq!(c.stats.trials, 4);
        assert!(format!("{c}").contains("truncated"), "{c}");
    }

    #[test]
    fn full_and_fast_runners_count_identical_ber() {
        // Both runners execute the same per-trial synthesis and known-timing
        // decode on the same derived seeds; their BER counters must agree
        // bit-for-bit.
        let sc = LinkScenario::awgn(small_config(), 6.0, 9);
        let fast = fast(&sc, 24, 40, 40_000);
        let full = run_ber_budgeted(&sc, 24, 40, 40_000, TrialBudget::default());
        assert_eq!(full.ber, fast.counter);
        assert_eq!(full.stop, fast.stop);
        assert!(full.packets > 0);
    }

    #[test]
    fn serial_full_trials_match_engine() {
        // A fresh worker per trial (no cached state) must agree with what
        // the engine produces for the same trial indices.
        let sc = LinkScenario::awgn(small_config(), 8.0, 11);
        let mut serial = LinkOutcome::default();
        for t in 0..4 {
            let mut rng = Rand::for_trial(sc.seed, t);
            LinkWorker::new(&sc).trial_full(&sc, 16, &mut rng, &mut serial);
        }
        let engine = run_ber_budgeted(&sc, 16, u64::MAX, u64::MAX, TrialBudget { max_trials: 4 });
        assert_eq!(engine.outcome, serial);
    }

    #[test]
    fn multipath_degrades_vs_awgn() {
        let awgn = LinkScenario::awgn(small_config(), 6.0, 5);
        let cm3 = LinkScenario {
            channel: ChannelModel::Cm3,
            ..awgn.clone()
        };
        let b_awgn = fast(&awgn, 32, 60, 200_000).rate();
        let b_cm3 = fast(&cm3, 32, 60, 200_000).rate();
        assert!(
            b_cm3 > b_awgn * 0.8,
            "CM3 {b_cm3} should not beat AWGN {b_awgn}"
        );
    }

    #[test]
    fn interferer_hurts_and_notch_recovers() {
        let mut cfg = small_config();
        cfg.adc_bits = 5;
        let base = LinkScenario::awgn(cfg, 10.0, 6);
        // Strong CW interferer at +150 MHz, 20 dB above signal.
        let sig_power = 0.1; // pulse power is diluted over slots
        let hostile = LinkScenario {
            interferer: Some(Interferer::cw(150e6, sig_power * 100.0)),
            ..base.clone()
        };
        let defended = LinkScenario {
            notch_enabled: true,
            ..hostile.clone()
        };
        let b_clean = fast(&base, 32, 50, 150_000).rate();
        let b_hostile = fast(&hostile, 32, 50, 150_000).rate();
        let b_defended = fast(&defended, 32, 50, 150_000).rate();
        assert!(
            b_hostile > 10.0 * b_clean.max(1e-6),
            "interferer had no effect: {b_hostile} vs {b_clean}"
        );
        assert!(
            b_defended < b_hostile / 3.0,
            "notch did not help: {b_defended} vs {b_hostile}"
        );
    }

    #[test]
    fn streamed_single_trial_is_block_invariant_multipath() {
        // The streamed path must be invariant to its own block partition,
        // per trial, on multipath too.
        let sc = LinkScenario {
            channel: ChannelModel::Cm3,
            ..LinkScenario::awgn(small_config(), 6.0, 39)
        };
        let run = |block_len: usize| {
            let mut w = LinkWorker::new(&sc);
            let mut c = ErrorCounter::default();
            for t in 0..3 {
                let mut rng = Rand::for_trial(sc.seed, t);
                w.trial_ber_streamed(&sc, 48, block_len, &mut rng, &mut c);
            }
            c
        };
        let reference = run(usize::MAX / 2);
        for block_len in [17usize, 64, 1000, DEFAULT_STREAM_BLOCK] {
            assert_eq!(run(block_len), reference, "block {block_len}");
        }
    }

    #[test]
    fn channel_stats_helper() {
        let rms = channel_rms_delay_ns(ChannelModel::Cm3, 20, 7);
        assert!(rms > 5.0 && rms < 30.0, "{rms}");
    }

    #[test]
    fn channel_stats_over_zero_realizations_is_nan() {
        // No draws is not "no delay spread".
        assert!(channel_rms_delay_ns(ChannelModel::Cm3, 0, 7).is_nan());
    }

    #[test]
    fn count_errors_in_record_matches_streamed_trial() {
        // The network simulator's decode entry point, handed the record and
        // payload snapshot of a streamed trial, must count exactly what the
        // trial counted — even after the worker has drawn another payload.
        let sc = LinkScenario::awgn(small_config(), 5.0, 49);
        let mut w = LinkWorker::new(&sc);
        let mut want = ErrorCounter::default();
        let mut rng = Rand::for_trial(sc.seed, 0);
        w.trial_ber_streamed(&sc, 32, DEFAULT_STREAM_BLOCK, &mut rng, &mut want);
        let record = w.clean_record().to_vec();
        let payload = w.payload_bytes().to_vec();
        let slot0_start = w
            .synthesize_clean_streamed(&sc, 32, 64, &mut rng)
            .slot0_start;

        let mut got = ErrorCounter::default();
        w.count_errors_in_record(&sc.config, &record, slot0_start, &payload, &mut got);
        assert!(want.total > 0, "the trial decoded no bits");
        assert_eq!(got, want);
    }
}
