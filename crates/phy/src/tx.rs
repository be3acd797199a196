//! The gen2 transmitter: frame slots → pulse waveform.
//!
//! Per paper Fig. 3, the transmitter takes "Pulses per bit" symbols, shapes
//! 500 MHz pulses, and hands them to the frequency synthesizer/upconverter.
//! Here the baseband waveform synthesis is exact; upconversion to the
//! channel carrier is delegated to [`uwb_rf::TxChain`] when a passband view
//! is needed (FCC mask, Fig. 4).

use crate::config::Gen2Config;
use crate::correlator::PreambleCorrelator;
use crate::error::PhyError;
use crate::packet::{build_frame_into, FrameScratch, FrameSlots};
use crate::pulse::PulseShape;
use uwb_dsp::Complex;
use uwb_sim::time::SampleRate;

/// A transmitted burst: complex baseband samples plus frame geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Burst {
    /// Complex baseband samples at [`Burst::sample_rate`].
    pub samples: Vec<Complex>,
    /// The sample rate of `samples`.
    pub sample_rate: SampleRate,
    /// Sample index of the *center* of slot 0's pulse.
    pub slot0_center: usize,
    /// Samples per slot.
    pub samples_per_slot: usize,
    /// The frame's slot-amplitude breakdown.
    pub slots: FrameSlots,
}

impl Burst {
    /// Sample index of the center of slot `k`.
    pub fn slot_center(&self, k: usize) -> usize {
        self.slot0_center + k * self.samples_per_slot
    }

    /// Total number of slots in the frame.
    pub fn slot_count(&self) -> usize {
        self.slots.concat().len()
    }

    /// Duration of the burst in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate.as_hz() * 1e6
    }
}

/// The second-generation pulsed-UWB transmitter.
#[derive(Debug, Clone)]
pub struct Gen2Transmitter {
    config: Gen2Config,
    pulse: Vec<f64>,
}

impl Gen2Transmitter {
    /// Creates a transmitter, generating the 500 MHz pulse template for the
    /// configured sample rate.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(config: Gen2Config) -> Result<Self, PhyError> {
        config.validate()?;
        let pulse = PulseShape::gen2_default().generate(config.sample_rate);
        Ok(Gen2Transmitter { config, pulse })
    }

    /// The configuration in use.
    pub fn config(&self) -> &Gen2Config {
        &self.config
    }

    /// The unit-energy pulse template.
    pub fn pulse(&self) -> &[f64] {
        &self.pulse
    }

    /// Synthesizes the baseband waveform for a payload.
    ///
    /// # Errors
    ///
    /// Propagates framing errors from [`build_frame`].
    pub fn transmit_packet(&self, payload: &[u8]) -> Result<Burst, PhyError> {
        let mut burst = Burst {
            samples: Vec::new(),
            sample_rate: self.config.sample_rate,
            slot0_center: 0,
            samples_per_slot: 0,
            slots: FrameSlots::default(),
        };
        let mut scratch = FrameScratch::new();
        self.transmit_packet_into(payload, &mut burst, &mut scratch)?;
        Ok(burst)
    }

    /// [`Gen2Transmitter::transmit_packet`] into a caller-owned [`Burst`],
    /// drawing framing work buffers from `scratch` — identical output, zero
    /// steady-state heap allocation once the buffers reach their high-water
    /// marks (the per-trial form used by the Monte-Carlo engine).
    ///
    /// # Errors
    ///
    /// Propagates framing errors from [`crate::packet::build_frame_into`].
    pub fn transmit_packet_into(
        &self,
        payload: &[u8],
        burst: &mut Burst,
        scratch: &mut FrameScratch,
    ) -> Result<(), PhyError> {
        build_frame_into(payload, &self.config, &mut burst.slots, scratch)?;
        self.synthesize_in_place(burst);
        Ok(())
    }

    /// Synthesizes a waveform from explicit frame slots (used by the
    /// platform crate for arbitrary-waveform experiments).
    pub fn synthesize(&self, slots: FrameSlots) -> Burst {
        let mut burst = Burst {
            samples: Vec::new(),
            sample_rate: self.config.sample_rate,
            slot0_center: 0,
            samples_per_slot: 0,
            slots,
        };
        self.synthesize_in_place(&mut burst);
        burst
    }

    /// Re-synthesizes `burst.samples` (and geometry fields) from
    /// `burst.slots`, reusing the sample buffer — identical output to
    /// [`Gen2Transmitter::synthesize`], allocation-free once the capacity
    /// suffices. The four slot segments are walked in transmission order
    /// without concatenating them first.
    pub fn synthesize_in_place(&self, burst: &mut Burst) {
        let sps = self.config.samples_per_slot();
        let half_pulse = self.pulse.len() / 2;
        // Guard so the first/last pulse fit entirely.
        let guard = half_pulse + sps;
        let slot_count = burst.slots.preamble.len()
            + burst.slots.sfd.len()
            + burst.slots.header.len()
            + burst.slots.payload.len();
        let n = slot_count * sps + 2 * guard;
        burst.samples.clear();
        burst.samples.resize(n, Complex::ZERO);
        let segments = [
            &burst.slots.preamble,
            &burst.slots.sfd,
            &burst.slots.header,
            &burst.slots.payload,
        ];
        let mut k = 0usize;
        for seg in segments {
            for &a in seg.iter() {
                if a != 0.0 {
                    let center = guard + k * sps;
                    for (j, &p) in self.pulse.iter().enumerate() {
                        let idx = center + j - half_pulse;
                        burst.samples[idx].re += a * p;
                    }
                }
                k += 1;
            }
        }
        burst.sample_rate = self.config.sample_rate;
        burst.slot0_center = guard;
        burst.samples_per_slot = sps;
    }

    /// The preamble template waveform (one m-sequence period as pulses),
    /// used by the receiver's correlators.
    pub fn preamble_template(&self) -> Vec<Complex> {
        self.preamble_correlator().template().to_vec()
    }

    /// The one-period preamble as a factored correlator: the m-sequence
    /// chips, one slot apart, each carrying [`Gen2Transmitter::pulse`].
    /// Template sample 0 aligns with (chip-0 center − `pulse.len()/2`) in
    /// a transmitted burst.
    pub fn preamble_correlator(&self) -> PreambleCorrelator {
        let chips = crate::pn::msequence_chips(self.config.preamble_degree);
        PreambleCorrelator::spread(&chips, self.config.samples_per_slot(), &self.pulse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_dsp::complex::mean_power;

    fn tx() -> Gen2Transmitter {
        Gen2Transmitter::new(Gen2Config::nominal_100mbps()).unwrap()
    }

    #[test]
    fn burst_geometry() {
        let t = tx();
        let burst = t.transmit_packet(&[0xAB; 16]).unwrap();
        assert_eq!(burst.samples_per_slot, 10);
        let expected_slots = burst.slots.concat().len();
        assert_eq!(burst.slot_count(), expected_slots);
        // Pulse energy appears at slot centers.
        assert!(burst.samples.len() > expected_slots * 10);
        assert_eq!(burst.slot_center(5) - burst.slot_center(0), 50);
    }

    #[test]
    fn pulse_at_slot_center_has_expected_amplitude() {
        let t = tx();
        // A single +1 preamble chip puts a pulse peak at the slot center.
        let burst = t.transmit_packet(&[]).unwrap();
        let c0 = burst.slot_center(0);
        let first_chip = burst.slots.preamble[0];
        let peak = t.pulse()[t.pulse().len() / 2];
        assert!(
            (burst.samples[c0].re - first_chip * peak).abs() < 0.05,
            "{} vs {}",
            burst.samples[c0].re,
            first_chip * peak
        );
    }

    #[test]
    fn waveform_power_scales_with_activity() {
        let t = tx();
        let burst = t.transmit_packet(&[0xFF; 64]).unwrap();
        let p = mean_power(&burst.samples);
        assert!(p > 0.0);
        // Each slot carries a unit-energy pulse (BPSK): average power ~
        // pulse_energy / samples_per_slot = 1/10 (preamble/payload active).
        assert!((p - 0.1).abs() < 0.04, "mean power {p}");
    }

    #[test]
    fn duration_matches_rates() {
        let t = tx();
        let payload = vec![0u8; 125]; // ~1000 bits + framing
        let burst = t.transmit_packet(&payload).unwrap();
        // 1000 payload bits + 32 crc bits at 100 Mbps = 10.3 us, plus 5.2 us
        // preamble and header.
        let d = burst.duration_us();
        assert!(d > 15.0 && d < 18.5, "duration {d} µs");
    }

    #[test]
    fn preamble_template_correlates_with_burst() {
        let t = tx();
        let burst = t.transmit_packet(&[1, 2, 3]).unwrap();
        let template = t.preamble_template();
        let corr = uwb_dsp::correlation::cross_correlate(&burst.samples, &template);
        let (peak_idx, _) = uwb_dsp::correlation::peak(&corr).unwrap();
        // Peak at the start of one of the preamble periods: template sample 0
        // aligns with chip-0 center minus half the pulse length.
        let sps = burst.samples_per_slot;
        let period = 127 * sps;
        let start0 = burst.slot0_center as isize - (t.pulse().len() / 2) as isize;
        let rel = (peak_idx as isize - start0).rem_euclid(period as isize);
        assert!(
            rel.min(period as isize - rel) <= 1,
            "peak at {peak_idx}, rel {rel}"
        );
    }

    #[test]
    fn empty_payload_still_frames() {
        let t = tx();
        let burst = t.transmit_packet(&[]).unwrap();
        // CRC-32 alone: 32 payload bits.
        assert_eq!(burst.slots.payload.len(), 32);
        assert!(burst.duration_us() > 5.0);
    }

    #[test]
    fn transmit_into_matches_and_reuses_storage() {
        let t = tx();
        let want = t.transmit_packet(&[0x5A; 32]).unwrap();
        // Pre-sized from a different payload: the into-form must fully
        // overwrite it and reuse the sample allocation.
        let mut burst = t.transmit_packet(&[0x11; 32]).unwrap();
        let ptr = burst.samples.as_ptr();
        let mut scratch = FrameScratch::new();
        t.transmit_packet_into(&[0x5A; 32], &mut burst, &mut scratch)
            .unwrap();
        assert_eq!(burst, want);
        assert_eq!(burst.samples.as_ptr(), ptr, "sample buffer reallocated");
        // Second call with the warm scratch is still bit-identical.
        t.transmit_packet_into(&[0x5A; 32], &mut burst, &mut scratch)
            .unwrap();
        assert_eq!(burst, want);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = Gen2Config::nominal_100mbps();
        cfg.pulses_per_bit = 0;
        assert!(Gen2Transmitter::new(cfg).is_err());
    }
}
