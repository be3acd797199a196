//! Streaming (block-based) RF front-end stages.
//!
//! Gives the analog-model stages the [`uwb_dsp::stream::BlockProcessor`]
//! interface so the receive path can run at a fixed block size with all
//! filter/oscillator state carried across block boundaries:
//!
//! * [`StreamingNotch`] — the tunable front-end notch with its biquad and
//!   both translation oscillators held as carried state. Applied to one
//!   record it is **bit-identical** to [`TunableNotch::process`] on the
//!   whole record, for any block partition.
//! * [`StreamingAgc`] — a *causal, windowed* AGC: gain is recomputed at
//!   fixed absolute-sample window boundaries, so the block partition never
//!   changes the output (the batch [`Agc::process`] is non-causal — it
//!   measures the whole record before applying gain — and therefore cannot
//!   be streamed unchanged).
//! * [`StreamingDownconverter`] — the zero-IF mixer + lowpass with the LO
//!   phase and lowpass cascade state carried. Real passband in, complex
//!   baseband out (not a `BlockProcessor`, which is complex-to-complex);
//!   bit-identical to [`DirectConversionRx::downconvert`] on one record.
//!
//! [`DirectConversionRx::downconvert`]: crate::downconvert::DirectConversionRx::downconvert

use crate::agc::Agc;
use crate::lo::LocalOscillator;
use crate::notch::TunableNotch;
use uwb_dsp::stream::BlockProcessor;
use uwb_dsp::{Biquad, BiquadCascade, Complex, DspScratch, Nco};
use uwb_sim::rng::Rand;
use uwb_sim::time::{Hertz, SampleRate};

/// Carried state of an engaged [`StreamingNotch`].
#[derive(Debug, Clone)]
struct NotchState {
    /// Oscillator translating the interferer to the fs/8 design frequency.
    down: Nco,
    /// Oscillator translating back.
    up: Nco,
    /// The fixed-design-frequency notch biquad (complex state carried).
    biquad: Biquad,
    /// Tuned center, for diagnostics/reset.
    center: Hertz,
}

/// Streaming form of [`TunableNotch`]: shift → notch biquad → shift back,
/// per sample, with oscillator phases and biquad state carried across
/// blocks. See the module docs for the parity contract.
#[derive(Debug, Clone)]
pub struct StreamingNotch {
    fs: SampleRate,
    q: f64,
    engaged: Option<NotchState>,
}

impl StreamingNotch {
    /// Creates a disengaged streaming notch for signals at `fs`.
    ///
    /// # Panics
    ///
    /// Panics if `q <= 0`.
    pub fn new(fs: SampleRate, q: f64) -> Self {
        assert!(q > 0.0, "notch Q must be positive");
        StreamingNotch {
            fs,
            q,
            engaged: None,
        }
    }

    /// Builds the streaming counterpart of `notch`, tuned to the same
    /// center (if engaged).
    pub fn from_notch(notch: &TunableNotch) -> Self {
        let mut s = StreamingNotch::new(notch.sample_rate(), notch.q());
        if let Some(center) = notch.center() {
            s.tune(center);
        }
        s
    }

    /// Tunes the notch to a (possibly negative) baseband frequency,
    /// restarting oscillator and filter state.
    ///
    /// # Panics
    ///
    /// Panics if `|freq|` is not below Nyquist.
    pub fn tune(&mut self, freq: Hertz) {
        assert!(
            freq.as_hz().abs() < self.fs.as_hz() / 2.0,
            "notch frequency must be below Nyquist"
        );
        let f_design = self.fs.as_hz() / 8.0;
        let shift = f_design - freq.as_hz();
        self.engaged = Some(NotchState {
            down: Nco::new(shift, self.fs.as_hz()),
            up: Nco::new(-shift, self.fs.as_hz()),
            biquad: Biquad::notch(0.125, self.q),
            center: freq,
        });
    }

    /// Disengages the notch (blocks pass through untouched).
    pub fn bypass(&mut self) {
        self.engaged = None;
    }

    /// The tuned center frequency, if engaged.
    pub fn center(&self) -> Option<Hertz> {
        self.engaged.as_ref().map(|s| s.center)
    }
}

impl BlockProcessor for StreamingNotch {
    fn process_block(&mut self, block: &mut [Complex], _scratch: &mut DspScratch) {
        let Some(state) = &mut self.engaged else {
            return;
        };
        // Identical per-sample sequence to the batch path (shift whole
        // record, filter, shift back), just interleaved: multiplication
        // order is bitwise-commutative and each operator's state advances
        // one sample at a time.
        for z in block.iter_mut() {
            let shifted = *z * state.down.next_complex();
            let notched = state.biquad.push_complex(shifted);
            *z = notched * state.up.next_complex();
        }
    }

    fn reset(&mut self) {
        if let Some(center) = self.center() {
            self.tune(center);
        }
    }
}

/// Causal windowed AGC: accumulates input power over fixed `window`-sample
/// spans (counted in absolute stream samples) and recomputes the gain at
/// each span boundary; every sample is scaled by the gain in force when it
/// arrives.
///
/// Because the window grid is anchored to the stream — not to block
/// boundaries — the output is bit-identical for any block partition. This
/// is the form a continuously running receiver actually implements; the
/// whole-record [`Agc::process`] is its non-causal batch idealization.
#[derive(Debug, Clone)]
pub struct StreamingAgc {
    target_rms: f64,
    min_gain: f64,
    max_gain: f64,
    gain: f64,
    initial_gain: f64,
    window: usize,
    acc: f64,
    count: usize,
}

impl StreamingAgc {
    /// A streaming AGC with the limits/target of `agc`, updating its gain
    /// every `window` samples.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(agc: &Agc, window: usize) -> Self {
        assert!(window > 0, "AGC window must be non-empty");
        StreamingAgc {
            target_rms: agc.target_rms(),
            min_gain: agc.min_gain(),
            max_gain: agc.max_gain(),
            gain: agc.gain(),
            initial_gain: agc.gain(),
            window,
            acc: 0.0,
            count: 0,
        }
    }

    /// The gain currently in force.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// The update window in samples.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl BlockProcessor for StreamingAgc {
    fn process_block(&mut self, block: &mut [Complex], _scratch: &mut DspScratch) {
        for z in block.iter_mut() {
            // Measure the *input* (pre-gain) power, apply the gain in
            // force, then update at the absolute window boundary.
            self.acc += z.norm_sqr();
            self.count += 1;
            *z = *z * self.gain;
            if self.count == self.window {
                let p = self.acc / self.window as f64;
                if p > 0.0 {
                    self.gain =
                        (self.target_rms / p.sqrt()).clamp(self.min_gain, self.max_gain);
                }
                self.acc = 0.0;
                self.count = 0;
            }
        }
    }

    fn reset(&mut self) {
        self.gain = self.initial_gain;
        self.acc = 0.0;
        self.count = 0;
    }
}

/// Streaming zero-IF downconverter: carried LO phase and lowpass cascade
/// state, one block of real passband in → one block of complex baseband
/// out.
///
/// Constructed with the same parameters, one record pushed through block by
/// block is bit-identical to [`DirectConversionRx::downconvert`] on the
/// whole record (same per-sample arithmetic, same phase-noise draw order).
///
/// [`DirectConversionRx::downconvert`]: crate::downconvert::DirectConversionRx::downconvert
#[derive(Debug, Clone)]
pub struct StreamingDownconverter {
    lo: LocalOscillator,
    g_q: f64,
    phi: f64,
    dc_i: f64,
    dc_q: f64,
    lpf: BiquadCascade,
    fs_hz: f64,
}

impl StreamingDownconverter {
    /// Builds a streaming receiver front end.
    ///
    /// # Panics
    ///
    /// Panics if the LO violates Nyquist at `fs` or `lpf_sections == 0`.
    pub fn new(
        lo: LocalOscillator,
        impairments: crate::downconvert::IqImpairments,
        lpf_cutoff: Hertz,
        lpf_sections: usize,
        fs: SampleRate,
    ) -> Self {
        assert!(
            lo.nominal().as_hz() < fs.as_hz() / 2.0,
            "LO must be below Nyquist"
        );
        let fc = fs.normalize(lpf_cutoff).min(0.49);
        StreamingDownconverter {
            lo,
            g_q: uwb_dsp::math::db_to_amp(impairments.gain_imbalance_db),
            phi: impairments.phase_error_deg.to_radians(),
            dc_i: impairments.dc_offset_i,
            dc_q: impairments.dc_offset_q,
            lpf: BiquadCascade::butterworth_lowpass(lpf_sections, fc),
            fs_hz: fs.as_hz(),
        }
    }

    /// The defaults of [`DirectConversionRx::new`] for a 500 MHz channel at
    /// `carrier`: ideal LO, 280 MHz lowpass, 3 biquad sections.
    ///
    /// [`DirectConversionRx::new`]: crate::downconvert::DirectConversionRx::new
    pub fn for_channel(carrier: Hertz, fs: SampleRate) -> Self {
        StreamingDownconverter::new(
            LocalOscillator::ideal(carrier),
            crate::downconvert::IqImpairments::ideal(),
            Hertz::from_mhz(280.0),
            3,
            fs,
        )
    }

    /// Downconverts one block of real passband samples into `out`
    /// (`out.len()` must equal `passband.len()`), advancing LO and filter
    /// state.
    pub fn downconvert_block(
        &mut self,
        passband: &[f64],
        out: &mut [Complex],
        rng: &mut Rand,
    ) {
        assert_eq!(
            passband.len(),
            out.len(),
            "output block must match input block"
        );
        for (&x, y) in passband.iter().zip(out.iter_mut()) {
            let lo = self.lo.next_phasor(self.fs_hz, rng);
            let theta = lo.arg();
            let i = x * theta.cos() * std::f64::consts::SQRT_2;
            let q = -x * self.g_q * (theta + self.phi).sin() * std::f64::consts::SQRT_2;
            let mixed = Complex::new(i + self.dc_i, q + self.dc_q);
            *y = self.lpf.push_complex(mixed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_dsp::stream::{assert_chunk_invariant, process_record};
    use uwb_sim::Interferer;

    fn fs() -> SampleRate {
        SampleRate::from_gsps(1.0)
    }

    fn tone_plus_ramp(n: usize) -> Vec<Complex> {
        let mut rng = Rand::new(3);
        let mut sig = Interferer::cw(120e6, 1.0).generate(n, fs().as_hz(), &mut rng);
        for (i, z) in sig.iter_mut().enumerate() {
            *z += Complex::new(1e-4 * i as f64, 0.0);
        }
        sig
    }

    #[test]
    fn streaming_notch_matches_batch_bitwise() {
        let sig = tone_plus_ramp(4096);
        let mut batch_notch = TunableNotch::new(fs(), 30.0);
        batch_notch.tune(Hertz::from_mhz(120.0));
        let batch = batch_notch.process(&sig);

        for bl in [1usize, 37, 256, 4096] {
            let mut streamed = sig.clone();
            let mut notch = StreamingNotch::from_notch(&batch_notch);
            let mut scratch = DspScratch::new();
            process_record(&mut notch, &mut streamed, bl, &mut scratch);
            assert_eq!(streamed, batch, "block {bl}");
        }
    }

    #[test]
    fn streaming_notch_bypass_is_identity() {
        let sig = tone_plus_ramp(128);
        let mut notch = StreamingNotch::new(fs(), 30.0);
        let mut buf = sig.clone();
        let mut scratch = DspScratch::new();
        notch.process_block(&mut buf, &mut scratch);
        assert_eq!(buf, sig);
        notch.tune(Hertz::from_mhz(50.0));
        notch.bypass();
        assert_eq!(notch.center(), None);
    }

    #[test]
    fn streaming_agc_is_chunk_invariant() {
        let mut rng = Rand::new(5);
        let mut sig = uwb_sim::awgn::complex_noise(1000, 25.0, &mut rng);
        // Power step halfway: the gain must follow at window boundaries.
        for z in sig[500..].iter_mut() {
            *z = *z * 0.1;
        }
        assert_chunk_invariant(&sig, &[1, 9, 64, 250, 1000, 5000], || {
            StreamingAgc::new(&Agc::for_unit_adc(), 128)
        });
    }

    #[test]
    fn streaming_agc_converges_to_target() {
        let mut rng = Rand::new(6);
        let sig = uwb_sim::awgn::complex_noise(8192, 25.0, &mut rng); // RMS 5
        let mut agc = StreamingAgc::new(&Agc::for_unit_adc(), 256);
        let mut buf = sig.clone();
        let mut scratch = DspScratch::new();
        agc.process_block(&mut buf, &mut scratch);
        // After the first window the gain is in force; measure the tail.
        let rms = uwb_dsp::complex::mean_power(&buf[1024..]).sqrt();
        assert!((rms - 0.355).abs() < 0.05, "rms {rms}");
        assert!(agc.gain() < 1.0);
    }

    #[test]
    fn streaming_downconverter_matches_batch_bitwise() {
        use crate::downconvert::{DirectConversionRx, IqImpairments, Upconverter};
        let fs = SampleRate::new(32e9);
        let carrier = Hertz::from_ghz(5.0);
        let bb: Vec<Complex> = (0..2048)
            .map(|i| {
                let t = (i as f64 - 1024.0) / 256.0;
                Complex::new((-t * t).exp(), 0.0)
            })
            .collect();
        let pass = Upconverter::new(carrier).upconvert(&bb, fs);

        let lo = LocalOscillator::with_impairments(carrier, 20.0, 1e5);
        let imp = IqImpairments::typical();
        let mut batch_rx = DirectConversionRx::new(carrier)
            .with_lo(lo.clone())
            .with_impairments(imp);
        let batch = batch_rx.downconvert(&pass, fs, &mut Rand::new(11));

        for bl in [64usize, 500, 2048] {
            let mut rx =
                StreamingDownconverter::new(lo.clone(), imp, Hertz::from_mhz(280.0), 3, fs);
            let mut rng = Rand::new(11);
            let mut out = vec![Complex::ZERO; pass.len()];
            let mut start = 0;
            while start < pass.len() {
                let end = (start + bl).min(pass.len());
                rx.downconvert_block(&pass[start..end], &mut out[start..end], &mut rng);
                start = end;
            }
            assert_eq!(out, batch, "block {bl}");
        }
    }

    #[test]
    #[should_panic(expected = "Nyquist")]
    fn streaming_notch_tune_beyond_nyquist_panics() {
        StreamingNotch::new(fs(), 10.0).tune(Hertz::from_mhz(600.0));
    }
}
