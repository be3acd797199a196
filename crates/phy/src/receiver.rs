//! The second-generation digital back end (paper Fig. 3).
//!
//! Pipeline: AGC → I/Q ADC quantization → pulse matched filter → coarse
//! acquisition (parallel correlator search) → channel estimation (4-bit) →
//! RAKE combining → demodulation → descrambling/FEC/CRC. Each stage is a
//! module in this crate; [`Gen2Receiver`] wires them together.

use crate::acquisition::{AcquisitionConfig, AcquisitionResult, CoarseAcquisition};
use crate::chanest::{estimate_cir_into, ChannelEstimate};
use crate::config::Gen2Config;
use crate::error::PhyError;
use crate::mlse::MlseEqualizer;
use crate::modulation::Modulation;
use crate::packet::{decode_header, decode_payload, header_slot_count, payload_slot_count, Header};
use crate::rake::RakeReceiver;
use crate::tx::Gen2Transmitter;
use uwb_adc::Quantizer;
use uwb_dsp::{Complex, DspScratch};

/// How many samples before the acquisition lock the channel-estimation
/// window starts (captures paths earlier than the strongest one).
pub(crate) const CIR_PRE_SAMPLES: usize = 8;
/// Channel-estimation window length in samples.
pub(crate) const CIR_WINDOW: usize = 64;
/// Start-of-frame-delimiter length in slots (gap between the last preamble
/// repeat and the first header slot).
pub(crate) const SFD_SLOTS: usize = 13;

/// A successfully received packet with per-stage diagnostics.
#[derive(Debug, Clone)]
pub struct ReceivedPacket {
    /// The decoded payload bytes (CRC verified).
    pub payload: Vec<u8>,
    /// The decoded header.
    pub header: Header,
    /// Coarse-acquisition diagnostics.
    pub acquisition: AcquisitionResult,
    /// The (quantized) channel estimate the RAKE used.
    pub estimate: ChannelEstimate,
}

/// Reusable per-worker receive state: every buffer the receive chain needs,
/// owned by the caller so steady-state trials allocate nothing.
///
/// One `RxState` per Monte-Carlo worker (it is deliberately not `Clone`: the
/// scratch pool inside should be long-lived, not copied around). All buffers
/// grow to their high-water mark on the first packet and are reused
/// thereafter.
#[derive(Debug)]
pub struct RxState {
    /// Scratch arena for FFT/correlation work buffers.
    pub(crate) scratch: DspScratch,
    /// AGC + quantizer output record.
    pub(crate) digitized: Vec<Complex>,
    /// Channel estimate (raw, then quantized in place).
    pub(crate) estimate: ChannelEstimate,
    /// RAKE rebuilt in place each packet.
    pub(crate) rake: RakeReceiver,
    /// Finger-selection index scratch.
    pub(crate) finger_idx: Vec<usize>,
    /// Memo: the acquisition offset `estimate` currently corresponds to,
    /// valid for the current contents of `digitized`. Every write to
    /// `digitized` must clear this; `prepare_rake_at` uses it to skip
    /// recomputing a channel estimate it just produced (the estimate is a
    /// pure function of `(digitized, offset)`, so the skip is bit-exact).
    pub(crate) chanest_memo: Option<usize>,
}

impl RxState {
    /// Creates an empty state; buffers size themselves on first use.
    pub fn new() -> Self {
        let estimate = ChannelEstimate::new(vec![Complex::ZERO]);
        let rake = RakeReceiver::from_estimate(
            &ChannelEstimate::new(vec![Complex::ONE]),
            1,
        );
        RxState {
            scratch: DspScratch::new(),
            digitized: Vec::new(),
            estimate,
            rake,
            finger_idx: Vec::new(),
            chanest_memo: None,
        }
    }

    /// The scratch arena, for callers that interleave their own DSP work
    /// (channel application, noise) with receive calls on one pool.
    pub fn scratch(&mut self) -> &mut DspScratch {
        &mut self.scratch
    }
}

impl Default for RxState {
    fn default() -> Self {
        RxState::new()
    }
}

/// The gen2 receiver.
#[derive(Debug, Clone)]
pub struct Gen2Receiver {
    config: Gen2Config,
    pulse: Vec<Complex>,
    acquisition: CoarseAcquisition,
    quantizer: Quantizer,
}

impl Gen2Receiver {
    /// Creates a receiver for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(config: Gen2Config) -> Result<Self, PhyError> {
        config.validate()?;
        // Reuse the transmitter's pulse and preamble so both ends agree.
        let tx = Gen2Transmitter::new(config.clone())?;
        let pulse = tx.pulse().iter().map(|&x| Complex::new(x, 0.0)).collect();
        let acquisition = CoarseAcquisition::new(
            tx.preamble_correlator(),
            AcquisitionConfig::with_clock(config.sample_rate.as_hz()),
        );
        let quantizer = Quantizer::new(config.adc_bits, 1.0);
        Ok(Gen2Receiver {
            config,
            pulse,
            acquisition,
            quantizer,
        })
    }

    /// The receiver configuration.
    pub fn config(&self) -> &Gen2Config {
        &self.config
    }

    /// Length of one preamble-period template in samples (what acquisition
    /// correlates against).
    pub(crate) fn template_len(&self) -> usize {
        self.acquisition.correlator().template().len()
    }

    /// Length of the matched-filter pulse template in samples.
    pub(crate) fn pulse_len(&self) -> usize {
        self.pulse.len()
    }

    /// Runs coarse acquisition over `search_len` candidate phases of
    /// `samples`, drawing work buffers from `scratch`.
    pub(crate) fn acquire_into(
        &self,
        samples: &[Complex],
        search_len: usize,
        scratch: &mut DspScratch,
    ) -> AcquisitionResult {
        self.acquisition.acquire_with(samples, search_len, scratch)
    }

    /// Front-end conditioning: AGC to −9 dBFS, then I/Q quantization at the
    /// configured ADC resolution.
    pub fn digitize(&self, samples: &[Complex]) -> Vec<Complex> {
        let mut out = Vec::new();
        self.digitize_append(samples, &mut out);
        out
    }

    /// [`Gen2Receiver::digitize`] *appended* to a caller-owned buffer
    /// (clear it first to replace its contents), fusing the gain and
    /// quantization passes — allocation-free once the buffer capacity
    /// suffices. Appending lets the batched runtime digitize each trial's
    /// lane straight into a flat [`uwb_dsp::batch::BatchArena`] buffer.
    pub fn digitize_append(&self, samples: &[Complex], out: &mut Vec<Complex>) {
        let p = uwb_dsp::simd::mean_power(samples);
        if p <= 0.0 {
            out.extend_from_slice(samples);
            return;
        }
        let gain = 0.355 / p.sqrt();
        uwb_obs::gauge!("agc_gain_milli").set((gain * 1000.0) as u64);
        uwb_obs::note!("agc_gain_milli", (gain * 1000.0) as u64);
        // Fused scale + mid-rise quantize sweep — bit-identical to scaling
        // and quantizing each rail in turn (see Quantizer parity test).
        self.quantizer.quantize_scaled_append(samples, gain, out);
    }

    /// Runs the complete receive chain on a complex-baseband record: the
    /// one-shot form of the stage calls [`Gen2Receiver::digitize_append`] →
    /// [`Gen2Receiver::acquire_record`] →
    /// [`Gen2Receiver::receive_packet_acquired`], with fresh buffers.
    ///
    /// # Errors
    ///
    /// * [`PhyError::SyncFailed`] — acquisition did not clear its threshold.
    /// * [`PhyError::HeaderInvalid`] / [`PhyError::CrcMismatch`] /
    ///   [`PhyError::TruncatedInput`] — decode failures.
    pub fn receive_packet(&self, samples: &[Complex]) -> Result<ReceivedPacket, PhyError> {
        let mut state = RxState::new();
        let digitized = {
            let _t = uwb_obs::span!("rx_agc_adc");
            self.digitize(samples)
        };
        let acq = self.acquire_record(&digitized, &mut state);
        self.receive_packet_acquired(&digitized, &acq, &mut state)
    }

    /// Coarse acquisition over an already-digitized record: one preamble
    /// period of candidate phases through the factored preamble
    /// correlator. Emits the acquisition forensics notes and,
    /// on a miss, the `acq_miss` event.
    pub fn acquire_record(&self, digitized: &[Complex], state: &mut RxState) -> AcquisitionResult {
        let sps = self.config.samples_per_slot();
        let period = self.config.preamble_length() * sps;
        let acq = {
            let _t = uwb_obs::span!("rx_acquisition");
            self.acquisition
                .acquire_with(digitized, period + CIR_PRE_SAMPLES, &mut state.scratch)
        };
        // Flight-recorder forensics: where the correlator locked and how
        // confidently (milli-units of the normalized [0,1] peak metric).
        uwb_obs::note!("acq_offset", acq.offset as u64);
        uwb_obs::note!("acq_metric_milli", (acq.metric * 1000.0) as u64);
        if !acq.detected {
            uwb_obs::event!("acq_miss");
        }
        acq
    }

    /// The frame decode (channel estimate → RAKE → header → payload) given
    /// an acquisition result obtained from [`Gen2Receiver::acquire_record`]
    /// over the *same* digitized record.
    ///
    /// `state.chanest_memo` must refer to *this* record (the caller just ran
    /// [`Gen2Receiver::payload_statistics_predigitized_with`] on it) or be
    /// `None`; the memo then lets a lock at the known-timing offset skip the
    /// duplicate channel estimate, bit-exactly.
    ///
    /// # Errors
    ///
    /// Same as [`Gen2Receiver::receive_packet`].
    pub fn receive_packet_acquired(
        &self,
        digitized: &[Complex],
        acq: &AcquisitionResult,
        state: &mut RxState,
    ) -> Result<ReceivedPacket, PhyError> {
        if !acq.detected {
            return Err(PhyError::SyncFailed);
        }
        let (header, payload) = self.decode_frame_on(digitized, state, acq.offset)?;
        Ok(ReceivedPacket {
            payload,
            header,
            acquisition: *acq,
            estimate: state.estimate.clone(),
        })
    }

    /// Channel estimation + RAKE rebuild around the acquisition lock at
    /// `offset` into `state.digitized` (shared by the batch and streaming
    /// decode paths). Returns `est_start`, the base sample index the RAKE
    /// finger delays are relative to.
    fn prepare_rake_at(&self, state: &mut RxState, offset: usize) -> usize {
        let digitized = std::mem::take(&mut state.digitized);
        let est_start = self.prepare_rake_on(&digitized, state, offset);
        state.digitized = digitized;
        est_start
    }

    /// [`Gen2Receiver::prepare_rake_at`] reading the digitized record from
    /// a caller-owned slice.
    fn prepare_rake_on(&self, digitized: &[Complex], state: &mut RxState, offset: usize) -> usize {
        let period = self.config.preamble_length() * self.config.samples_per_slot();
        let est_start = offset.saturating_sub(CIR_PRE_SAMPLES);
        if state.chanest_memo == Some(offset) {
            // `state.estimate` already holds the (quantized) estimate for
            // exactly this (digitized record, offset) pair; recomputing
            // would reproduce it bit-for-bit.
            return est_start;
        }
        let periods = (self.config.preamble_repeats - 1).max(1);
        {
            let _t = uwb_obs::span!("rx_chanest");
            estimate_cir_into(
                digitized,
                self.acquisition.correlator(),
                est_start,
                CIR_WINDOW,
                periods,
                period,
                &mut state.scratch,
                &mut state.estimate,
            );
            if let Some(bits) = self.config.chanest_bits {
                state.estimate.quantize_in_place(bits);
            }
        }
        state.chanest_memo = Some(offset);
        est_start
    }

    /// Decodes the header of a frame whose acquisition lock sits at `offset`
    /// within the already-digitized record in `state`. Used by the streaming
    /// receiver to learn the payload length (and hence the frame span it must
    /// buffer) before the payload has streamed in.
    pub(crate) fn decode_header_at(
        &self,
        state: &mut RxState,
        offset: usize,
    ) -> Result<Header, PhyError> {
        let est_start = self.prepare_rake_at(state, offset);
        let sps = self.config.samples_per_slot();
        let _t_rake = uwb_obs::span!("rx_rake");
        state
            .rake
            .rebuild_from_estimate(&state.estimate, self.config.rake_fingers, &mut state.finger_idx);
        let digitized = &state.digitized;
        let rake = &state.rake;
        let preamble_slots = self.config.preamble_length() * self.config.preamble_repeats;
        let header_start = preamble_slots + SFD_SLOTS;
        let n_header = header_slot_count(&self.config);
        let header_stats: Vec<Complex> = (0..n_header)
            .map(|k| {
                rake.combine_direct(digitized, &self.pulse, est_start + (header_start + k) * sps)
            })
            .collect();
        drop(_t_rake);
        let _t_decode = uwb_obs::span!("rx_decode");
        decode_header(&header_stats, &self.config).inspect_err(|_| {
            uwb_obs::event!("header_fail");
        })
    }

    /// Decodes one full frame whose acquisition lock sits at `offset` within
    /// the already-digitized record in `state`: channel estimation → RAKE
    /// rebuild → header → payload. Used by the incremental
    /// [`crate::stream_rx::StreamRx`].
    pub(crate) fn decode_frame_at(
        &self,
        state: &mut RxState,
        offset: usize,
    ) -> Result<(Header, Vec<u8>), PhyError> {
        let digitized = std::mem::take(&mut state.digitized);
        let out = self.decode_frame_on(&digitized, state, offset);
        state.digitized = digitized;
        out
    }

    /// [`Gen2Receiver::decode_frame_at`] reading the digitized record from
    /// a caller-owned slice.
    fn decode_frame_on(
        &self,
        digitized: &[Complex],
        state: &mut RxState,
        offset: usize,
    ) -> Result<(Header, Vec<u8>), PhyError> {
        let sps = self.config.samples_per_slot();
        let est_start = self.prepare_rake_on(digitized, state, offset);

        // --- Matched filter + RAKE ---
        // The matched filter is evaluated lazily at the finger delays of
        // each decoded slot (combine_direct) instead of FFT-filtering the
        // whole record: only slots × fingers values are ever read.
        let _t_rake = uwb_obs::span!("rx_rake");
        state
            .rake
            .rebuild_from_estimate(&state.estimate, self.config.rake_fingers, &mut state.finger_idx);
        let rake = &state.rake;

        // Slot s of the frame has its pulse starting at offset + s*sps;
        // fingers are relative to est_start = offset - CIR_PRE_SAMPLES.
        let prompt_base = est_start;
        let stat = |slot: usize| -> Complex {
            rake.combine_direct(digitized, &self.pulse, prompt_base + slot * sps)
        };

        // --- Header ---
        let preamble_slots = self.config.preamble_length() * self.config.preamble_repeats;
        let header_start = preamble_slots + SFD_SLOTS;
        let n_header = header_slot_count(&self.config);
        let header_stats: Vec<Complex> =
            (0..n_header).map(|k| stat(header_start + k)).collect();
        drop(_t_rake);
        let _t_decode = uwb_obs::span!("rx_decode");
        let header = decode_header(&header_stats, &self.config).inspect_err(|_| {
            uwb_obs::event!("header_fail");
        })?;

        // --- Payload ---
        let payload_start = header_start + n_header;
        let n_payload = payload_slot_count(header.payload_len, &self.config);
        let mut payload_stats: Vec<Complex> =
            (0..n_payload).map(|k| stat(payload_start + k)).collect();
        self.maybe_track_carrier_in_place(&mut payload_stats);
        self.maybe_equalize_in_place(
            &mut payload_stats,
            &state.estimate,
            &state.rake,
            &mut state.scratch,
        );
        let payload =
            decode_payload(&payload_stats, header.payload_len, &self.config).inspect_err(|e| {
                if matches!(e, PhyError::CrcMismatch) {
                    uwb_obs::event!("crc_fail");
                }
            })?;
        Ok((header, payload))
    }

    /// Scans a long record for multiple packets: acquire → decode → skip
    /// past the decoded frame → repeat. Records that fail to decode after a
    /// successful acquisition are skipped past the *acquired* preamble so a
    /// corrupted packet cannot stall the scan (or be rescanned forever when
    /// its preamble sits late in the attempt window).
    ///
    /// Returns every successfully decoded packet together with its start
    /// offset (in samples) within `samples`.
    ///
    /// Every attempt re-digitizes and re-scans the whole remaining record —
    /// O(record²) on long captures, and the entire record must be resident.
    /// Kept only as the test reference for [`crate::stream_rx::StreamRx`],
    /// which runs the same state machine incrementally over blocks in
    /// bounded memory.
    #[cfg(test)]
    pub(crate) fn receive_stream(&self, samples: &[Complex]) -> Vec<(usize, ReceivedPacket)> {
        let sps = self.config.samples_per_slot();
        let period = self.config.preamble_length() * sps;
        let mut state = RxState::new();
        let mut packets = Vec::new();
        let mut cursor = 0usize;
        // Need at least a preamble + header's worth of samples to try.
        let min_len = period * self.config.preamble_repeats + 64 * sps;
        while cursor + min_len <= samples.len() {
            let window = &samples[cursor..];
            {
                let _t = uwb_obs::span!("rx_agc_adc");
                state.digitized.clear();
                self.digitize_append(window, &mut state.digitized);
                state.chanest_memo = None;
            }
            let acq = {
                let _t = uwb_obs::span!("rx_acquisition");
                self.acquisition.acquire_with(
                    &state.digitized,
                    period + CIR_PRE_SAMPLES,
                    &mut state.scratch,
                )
            };
            if !acq.detected {
                // Nothing acquired in this window's first period of phases:
                // slide one period and keep scanning (records may contain
                // long silence between packets).
                uwb_obs::event!("acq_miss");
                cursor += period;
                continue;
            }
            match self.decode_frame_at(&mut state, acq.offset) {
                Ok((header, payload)) => {
                    let frame_slots = self.config.preamble_length()
                        * self.config.preamble_repeats
                        + SFD_SLOTS
                        + header_slot_count(&self.config)
                        + payload_slot_count(header.payload_len, &self.config);
                    let advance = acq.offset + frame_slots * sps;
                    packets.push((
                        cursor + acq.offset,
                        ReceivedPacket {
                            payload,
                            header,
                            acquisition: acq,
                            estimate: state.estimate.clone(),
                        },
                    ));
                    cursor += advance.max(period);
                }
                Err(_) => {
                    // Acquired but failed to decode: advance past the
                    // preamble that was actually acquired (`offset` into this
                    // window plus one period), not blindly one period from
                    // the window start — the old behavior could land the
                    // next attempt inside the same corrupted frame and burn
                    // an acquisition pass per period for the rest of it.
                    cursor += acq.offset + period;
                }
            }
        }
        packets
    }

    /// When carrier tracking is enabled and the payload is BPSK, runs the
    /// decision-directed PLL over the slot statistics in time order,
    /// de-rotating residual CFO/phase-noise spin (paper Fig. 3's "PLL"
    /// block). Other modulations pass through unchanged.
    fn maybe_track_carrier_in_place(&self, stats: &mut [Complex]) {
        if !self.config.carrier_tracking || self.config.modulation != Modulation::Bpsk {
            return;
        }
        let mut pll = crate::tracking::Pll::new(0.25);
        for z in stats.iter_mut() {
            *z = pll.track(*z);
        }
    }

    /// When the configuration enables the MLSE (Viterbi demodulator) and the
    /// payload is plain BPSK at one pulse per bit, equalizes the residual
    /// symbol-rate ISI the RAKE output still carries (paper §1: "the ISI due
    /// to multipath can be addressed with a Viterbi demodulator"). Rewrites
    /// `stats` with hard-remodulated symbols; otherwise leaves it untouched.
    ///
    /// The decided-symbol buffer is drawn from (and returned to) `scratch`,
    /// so the only steady-state allocations left on this path are the Viterbi
    /// trellis internals — see
    /// [`MlseEqualizer::equalize_symbols_into`][crate::mlse::MlseEqualizer::equalize_symbols_into]
    /// for the precise per-call breakdown. The MLSE path remains the one
    /// documented exception to the zero-allocation steady state (the nominal
    /// configuration does not enable it).
    fn maybe_equalize_in_place(
        &self,
        stats: &mut Vec<Complex>,
        estimate: &ChannelEstimate,
        rake: &RakeReceiver,
        scratch: &mut DspScratch,
    ) {
        let applicable = self.config.mlse_taps > 1
            && self.config.mlse_taps <= 9
            && self.config.modulation == Modulation::Bpsk
            && self.config.pulses_per_bit == 1
            && self.config.fec.is_none();
        if !applicable {
            return;
        }
        let g = rake.symbol_spaced_response(
            estimate,
            self.config.samples_per_slot(),
            self.config.mlse_taps,
        );
        if g.iter().map(|z| z.norm_sqr()).sum::<f64>() <= 0.0 {
            return;
        }
        let eq = MlseEqualizer::new(g);
        let mut decided = scratch.take_complex(stats.len());
        eq.equalize_symbols_into(stats, &mut decided);
        stats.clear();
        stats.extend_from_slice(&decided);
        scratch.put_complex(decided);
    }

    /// BER-measurement fast path: demodulates payload slot statistics with
    /// *known* frame timing (slot 0 pulse starts at `slot0_start`),
    /// skipping acquisition, over an already-digitized record (produce it
    /// with [`Gen2Receiver::digitize_append`]). Writes the raw per-slot
    /// decision statistics into `out` so callers can count bit errors
    /// against ground truth. Zero steady-state heap allocation (the MLSE
    /// path, when enabled, is the documented exception).
    ///
    /// Resets `state.chanest_memo` at entry (the record is externally
    /// supplied, so any memoized estimate may belong to a different
    /// record), then leaves the memo referring to this record — so a
    /// following [`Gen2Receiver::receive_packet_acquired`] on the *same*
    /// record skips the duplicate channel estimate.
    pub fn payload_statistics_predigitized_with(
        &self,
        digitized: &[Complex],
        slot0_start: usize,
        payload_len: usize,
        state: &mut RxState,
        out: &mut Vec<Complex>,
    ) {
        state.chanest_memo = None;
        let sps = self.config.samples_per_slot();
        let est_start = self.prepare_rake_on(digitized, state, slot0_start);
        let _t_rake = uwb_obs::span!("rx_rake");
        state
            .rake
            .rebuild_from_estimate(&state.estimate, self.config.rake_fingers, &mut state.finger_idx);
        let preamble_slots = self.config.preamble_length() * self.config.preamble_repeats;
        let payload_slot0 = preamble_slots + SFD_SLOTS + header_slot_count(&self.config);
        let n_payload = payload_slot_count(payload_len, &self.config);
        let rake = &state.rake;
        out.clear();
        out.extend((0..n_payload).map(|k| {
            rake.combine_direct(digitized, &self.pulse, est_start + (payload_slot0 + k) * sps)
        }));
        drop(_t_rake);
        self.maybe_track_carrier_in_place(out);
        self.maybe_equalize_in_place(out, &state.estimate, &state.rake, &mut state.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_dsp::math::db_to_pow;
    use uwb_sim::awgn::{add_awgn_complex, add_awgn_complex_in_place};
    use uwb_sim::sv_channel::{ChannelModel, ChannelRealization};
    use uwb_sim::Rand;

    fn link(config: &Gen2Config) -> (Gen2Transmitter, Gen2Receiver) {
        (
            Gen2Transmitter::new(config.clone()).unwrap(),
            Gen2Receiver::new(config.clone()).unwrap(),
        )
    }

    /// Known-timing payload statistics of a raw record on a fresh state.
    fn known_timing_stats(
        rx: &Gen2Receiver,
        samples: &[Complex],
        slot0_start: usize,
        payload_len: usize,
    ) -> Vec<Complex> {
        let mut out = Vec::new();
        rx.payload_statistics_predigitized_with(
            &rx.digitize(samples),
            slot0_start,
            payload_len,
            &mut RxState::new(),
            &mut out,
        );
        out
    }

    /// Decision parity of the factored preamble correlator with the direct
    /// dot-product form over 2,048 gen2 records (AWGN and CM3, Eb/N0
    /// 0–14 dB with a unit-energy pulse per bit): identical acquisition
    /// offset and detection, identical 4-bit channel-estimate levels and
    /// identical RAKE finger indices.
    #[test]
    fn factored_correlator_keeps_every_decision() {
        use crate::chanest::tests::estimate_cir_direct;
        let cfg = Gen2Config {
            preamble_repeats: 2,
            ..Gen2Config::nominal_100mbps()
        };
        let (tx, rx) = link(&cfg);
        let period = cfg.preamble_length() * cfg.samples_per_slot();
        let periods = (cfg.preamble_repeats - 1).max(1);
        let bits = cfg.chanest_bits.expect("nominal config quantizes the estimate");
        let template = rx.acquisition.correlator().template().to_vec();
        // Quantizer level indices `k` of `(k + 0.5)·step`, step from the
        // raw estimate's own full scale.
        let levels = |raw: &ChannelEstimate| -> Vec<(i64, i64)> {
            let fs = raw.taps().iter().fold(0.0f64, |m, z| m.max(z.re.abs()).max(z.im.abs()));
            let step = 2.0 * fs / f64::from(1u32 << bits);
            let k = |x: f64| (x / step - 0.5).round() as i64;
            raw.quantized(bits).taps().iter().map(|z| (k(z.re), k(z.im))).collect()
        };
        let mut rng = Rand::new(0xdec1);
        let mut state = RxState::new();
        let mut raw = ChannelEstimate::new(vec![Complex::ZERO]);
        let (mut oracle, mut fingers, mut oracle_fingers) = (Vec::new(), Vec::new(), Vec::new());
        let mut locks = 0;
        for rec in 0..2048usize {
            let burst = tx.transmit_packet(&[rec as u8; 8]).unwrap();
            let mut samples = if rec % 2 == 0 {
                burst.samples.clone()
            } else {
                ChannelRealization::generate(ChannelModel::Cm3, &mut rng)
                    .apply(&burst.samples, cfg.sample_rate)
            };
            let ebn0_db = 2.0 * (rec / 2 % 8) as f64;
            add_awgn_complex_in_place(&mut samples, 1.0 / db_to_pow(ebn0_db), &mut rng);
            let dig = rx.digitize(&samples);
            state.chanest_memo = None;

            let acq = rx.acquire_record(&dig, &mut state);
            oracle.clear();
            oracle.extend((0..acq.stats.phases_evaluated).map(|l| {
                if l + template.len() <= dig.len() {
                    uwb_dsp::simd::dot_real_template(&dig[l..], &template)
                } else {
                    Complex::ZERO
                }
            }));
            let (offset, metric) = rx.acquisition.peak(&dig, &oracle);
            assert_eq!(acq.offset, offset, "record {rec}: acquisition offset");
            assert_eq!(acq.detected, metric >= rx.acquisition.config().threshold, "record {rec}");
            locks += usize::from(acq.detected);

            let est_start = rx.prepare_rake_on(&dig, &mut state, acq.offset);
            let mut scratch = DspScratch::new();
            estimate_cir_into(
                &dig,
                rx.acquisition.correlator(),
                est_start,
                CIR_WINDOW,
                periods,
                period,
                &mut scratch,
                &mut raw,
            );
            assert_eq!(state.estimate, raw.quantized(bits), "record {rec}: receiver estimate");
            let want = estimate_cir_direct(&dig, &template, est_start, CIR_WINDOW, periods, period);
            assert_eq!(levels(&raw), levels(&want), "record {rec}: quantized levels");
            assert_eq!(raw.quantized(bits), want.quantized(bits), "record {rec}: quantized taps");
            raw.quantized(bits).select_strongest_into(cfg.rake_fingers, &mut fingers);
            want.quantized(bits).select_strongest_into(cfg.rake_fingers, &mut oracle_fingers);
            assert_eq!(fingers, oracle_fingers, "record {rec}: RAKE fingers");
        }
        // The sweep reaches both sides of the detection threshold.
        assert!((1024..2048).contains(&locks), "{locks} of 2048 records acquired");
    }

    #[test]
    fn clean_awgn_free_packet() {
        let cfg = Gen2Config::nominal_100mbps();
        let (tx, rx) = link(&cfg);
        let payload: Vec<u8> = (0..64u8).collect();
        let burst = tx.transmit_packet(&payload).unwrap();
        let got = rx.receive_packet(&burst.samples).unwrap();
        assert_eq!(got.payload, payload);
        assert_eq!(got.header.payload_len, 64);
        assert!(got.acquisition.detected);
    }

    #[test]
    fn packet_with_noise() {
        let cfg = Gen2Config::nominal_100mbps();
        let (tx, rx) = link(&cfg);
        let payload = vec![0xC3u8; 48];
        let burst = tx.transmit_packet(&payload).unwrap();
        let mut rng = Rand::new(1);
        // Per-sample SNR around 3 dB: pulse-level Eb/N0 is ~13 dB.
        let p = uwb_dsp::complex::mean_power(&burst.samples);
        let noisy = add_awgn_complex(&burst.samples, p / 2.0, &mut rng);
        let got = rx.receive_packet(&noisy).unwrap();
        assert_eq!(got.payload, payload);
    }

    #[test]
    fn packet_through_cm1_multipath() {
        let cfg = Gen2Config::nominal_100mbps();
        let (tx, rx) = link(&cfg);
        let payload = vec![0x11u8; 32];
        let burst = tx.transmit_packet(&payload).unwrap();
        let mut rng = Rand::new(7);
        let ch = ChannelRealization::generate(ChannelModel::Cm1, &mut rng);
        let through = ch.apply(&burst.samples, cfg.sample_rate);
        let got = rx.receive_packet(&through).unwrap();
        assert_eq!(got.payload, payload);
        // The RAKE should have found multiple meaningful fingers.
        assert!(got.estimate.energy() > 0.0);
    }

    #[test]
    fn noise_only_fails_sync() {
        let cfg = Gen2Config::nominal_100mbps();
        let rx = Gen2Receiver::new(cfg).unwrap();
        let mut rng = Rand::new(2);
        let noise = uwb_sim::awgn::complex_noise(30_000, 1.0, &mut rng);
        assert!(matches!(
            rx.receive_packet(&noise),
            Err(PhyError::SyncFailed)
        ));
    }

    #[test]
    fn one_bit_adc_still_works_in_noise() {
        // The paper's claim: 1-bit is sufficient in the noise-limited regime.
        let mut cfg = Gen2Config::nominal_100mbps();
        cfg.adc_bits = 1;
        let (tx, rx) = link(&cfg);
        let payload = vec![0x77u8; 24];
        let burst = tx.transmit_packet(&payload).unwrap();
        let mut rng = Rand::new(6);
        let p = uwb_dsp::complex::mean_power(&burst.samples);
        // 1-bit conversion *needs* noise to dither; a noiseless record would
        // be fine too here since pulses are sparse, but add some anyway.
        let noisy = add_awgn_complex(&burst.samples, p, &mut rng);
        let got = rx.receive_packet(&noisy).unwrap();
        assert_eq!(got.payload, payload);
    }

    #[test]
    fn known_timing_stats_match_payload() {
        let cfg = Gen2Config::nominal_100mbps();
        let (tx, rx) = link(&cfg);
        let payload = vec![0xF0u8; 16];
        let burst = tx.transmit_packet(&payload).unwrap();
        let stats = known_timing_stats(
            &rx,
            &burst.samples,
            burst.slot0_center - tx.pulse().len() / 2,
            payload.len(),
        );
        let decoded = decode_payload(&stats, payload.len(), &cfg).unwrap();
        assert_eq!(decoded, payload);
    }

    #[test]
    fn fec_config_round_trips() {
        let mut cfg = Gen2Config::nominal_100mbps();
        cfg.fec = Some(crate::fec::ConvCode::k3());
        let (tx, rx) = link(&cfg);
        let payload = vec![0xABu8; 40];
        let burst = tx.transmit_packet(&payload).unwrap();
        let got = rx.receive_packet(&burst.samples).unwrap();
        assert_eq!(got.payload, payload);
        assert!(got.header.fec);
    }

    #[test]
    fn stream_reception_finds_multiple_packets() {
        let cfg = Gen2Config {
            preamble_repeats: 2,
            ..Gen2Config::nominal_100mbps()
        };
        let tx = Gen2Transmitter::new(cfg.clone()).unwrap();
        let rx = Gen2Receiver::new(cfg.clone()).unwrap();
        let payloads: Vec<Vec<u8>> = vec![
            b"first packet".to_vec(),
            b"second, longer packet with more bytes".to_vec(),
            b"third".to_vec(),
        ];
        // Concatenate with silence gaps of varying length.
        let mut record = vec![Complex::ZERO; 3000];
        for (i, p) in payloads.iter().enumerate() {
            let burst = tx.transmit_packet(p).unwrap();
            record.extend_from_slice(&burst.samples);
            record.extend(vec![Complex::ZERO; 2000 + i * 1500]);
        }
        let mut rng = Rand::new(21);
        let p_sig = uwb_dsp::complex::mean_power(&record);
        let noisy = add_awgn_complex(&record, p_sig / 10.0, &mut rng);
        let packets = rx.receive_stream(&noisy);
        assert_eq!(packets.len(), 3, "found {} packets", packets.len());
        for ((offset, packet), expected) in packets.iter().zip(&payloads) {
            assert_eq!(&packet.payload, expected);
            assert!(*offset >= 2900, "offset {offset}");
        }
        // Offsets strictly increasing.
        assert!(packets.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn stream_reception_empty_record() {
        let cfg = Gen2Config {
            preamble_repeats: 2,
            ..Gen2Config::nominal_100mbps()
        };
        let rx = Gen2Receiver::new(cfg).unwrap();
        let mut rng = Rand::new(22);
        let noise = uwb_sim::awgn::complex_noise(40_000, 1.0, &mut rng);
        assert!(rx.receive_stream(&noise).is_empty());
        assert!(rx.receive_stream(&[]).is_empty());
    }

    #[test]
    fn carrier_tracking_rescues_cfo() {
        // A 50 kHz residual CFO rotates the constellation by ~1.6 rad over a
        // 48-byte payload: fatal without tracking, benign with the PLL.
        let base = Gen2Config {
            preamble_repeats: 2,
            ..Gen2Config::nominal_100mbps()
        };
        let payload = vec![0x2Du8; 48];
        let run = |tracking: bool| -> Result<Vec<u8>, PhyError> {
            let cfg = Gen2Config {
                carrier_tracking: tracking,
                ..base.clone()
            };
            let tx = Gen2Transmitter::new(cfg.clone()).unwrap();
            let rx = Gen2Receiver::new(cfg.clone()).unwrap();
            let burst = tx.transmit_packet(&payload).unwrap();
            let mut lo = uwb_rf::LocalOscillator::with_impairments(
                uwb_sim::Hertz::from_ghz(5.0),
                10.0, // ppm -> 50 kHz at 5 GHz
                0.0,
            );
            let mut rng = Rand::new(11);
            let spun = lo.baseband_rotation(&burst.samples, cfg.sample_rate.as_hz(), &mut rng);
            rx.receive_packet(&spun).map(|p| p.payload)
        };
        assert!(run(false).is_err(), "CFO should break the untracked link");
        assert_eq!(run(true).unwrap(), payload);
    }

    #[test]
    fn mlse_rescues_heavy_isi() {
        use uwb_sim::sv_channel::Tap;
        // A two-ray channel with the echo exactly one symbol (10 ns) later
        // at 70 % amplitude: brutal symbol-rate ISI.
        let taps = vec![
            Tap {
                delay_ns: 0.0,
                gain: Complex::new(1.0, 0.0),
            },
            Tap {
                delay_ns: 10.0,
                gain: Complex::new(0.7, 0.0),
            },
        ];
        let ch = ChannelRealization::from_taps(taps);
        let payload = vec![0x6Bu8; 48];

        let base = Gen2Config {
            rake_fingers: 1,
            preamble_repeats: 2,
            ..Gen2Config::nominal_100mbps()
        };
        let run = |mlse_taps: usize, seed: u64| -> usize {
            let cfg = Gen2Config {
                mlse_taps,
                ..base.clone()
            };
            let tx = Gen2Transmitter::new(cfg.clone()).unwrap();
            let rx = Gen2Receiver::new(cfg.clone()).unwrap();
            let burst = tx.transmit_packet(&payload).unwrap();
            let through = ch.apply(&burst.samples, cfg.sample_rate);
            let mut rng = Rand::new(seed);
            let p = uwb_dsp::complex::mean_power(&through);
            let noisy = add_awgn_complex(&through, p / 3.0, &mut rng);
            let slot0 = burst.slot0_center - tx.pulse().len() / 2;
            let stats = known_timing_stats(&rx, &noisy, slot0, payload.len());
            let bits =
                crate::packet::decode_payload_bits(&stats, payload.len(), &cfg).unwrap();
            crate::packet::reference_payload_bits(&payload)
                .iter()
                .zip(&bits)
                .filter(|(a, b)| a != b)
                .count()
        };
        let mut errs_plain = 0;
        let mut errs_mlse = 0;
        for seed in 0..4 {
            errs_plain += run(0, seed);
            errs_mlse += run(2, seed);
        }
        assert!(
            errs_mlse * 3 < errs_plain.max(1),
            "MLSE {errs_mlse} errors vs plain {errs_plain}"
        );
    }

    #[test]
    fn known_timing_on_warm_state_matches_fresh() {
        let cfg = Gen2Config::nominal_100mbps();
        let (tx, rx) = link(&cfg);
        let payload = vec![0x9Au8; 24];
        let burst = tx.transmit_packet(&payload).unwrap();
        let slot0 = burst.slot0_center - tx.pulse().len() / 2;
        let want = known_timing_stats(&rx, &burst.samples, slot0, payload.len());
        let mut state = RxState::new();
        let mut digitized = Vec::new();
        let mut out = Vec::new();
        // Repeated calls on one warm state and buffer stay bit-identical.
        for _ in 0..3 {
            digitized.clear();
            rx.digitize_append(&burst.samples, &mut digitized);
            rx.payload_statistics_predigitized_with(
                &digitized,
                slot0,
                payload.len(),
                &mut state,
                &mut out,
            );
            assert_eq!(out, want);
        }
    }

    #[test]
    fn receiver_rejects_bad_config() {
        let mut cfg = Gen2Config::nominal_100mbps();
        cfg.rake_fingers = 0;
        assert!(Gen2Receiver::new(cfg).is_err());
    }

    #[test]
    fn known_timing_then_acquired_decode_matches_one_shot_receive() {
        // The full-trial sequence — digitize_append, known-timing
        // statistics, acquire_record, receive_packet_acquired on one warm
        // state — must reproduce the one-shot receive_packet bit-for-bit,
        // including when the channel-estimate memo from the known-timing
        // pass is reused.
        let cfg = Gen2Config::nominal_100mbps();
        let (tx, rx) = link(&cfg);
        let payload = vec![0x3Cu8; 32];
        let burst = tx.transmit_packet(&payload).unwrap();
        let mut rng = Rand::new(9);
        let p = uwb_dsp::complex::mean_power(&burst.samples);
        let noisy = add_awgn_complex(&burst.samples, p / 2.0, &mut rng);
        let slot0 = burst.slot0_center - tx.pulse().len() / 2;
        let want = rx.receive_packet(&noisy).unwrap();

        let mut state = RxState::new();
        let mut stats = Vec::new();
        for _ in 0..2 {
            let mut lane = vec![Complex::ONE; 7]; // junk prefix: append semantics
            rx.digitize_append(&noisy, &mut lane);
            let digitized = &lane[7..];
            assert_eq!(
                digitized,
                &rx.digitize(&noisy)[..],
                "digitize_append parity"
            );
            rx.payload_statistics_predigitized_with(
                digitized,
                slot0,
                payload.len(),
                &mut state,
                &mut stats,
            );
            let acq = rx.acquire_record(digitized, &mut state);
            let got = rx
                .receive_packet_acquired(digitized, &acq, &mut state)
                .unwrap();
            assert_eq!(got.payload, want.payload);
            assert_eq!(got.header, want.header);
            assert_eq!(got.acquisition, want.acquisition);
            assert_eq!(got.estimate, want.estimate);
        }
    }
}
