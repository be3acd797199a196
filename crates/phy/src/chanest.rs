//! Channel impulse-response estimation from the preamble.
//!
//! Paper §3: "the channel impulse response is estimated with a precision of
//! up to four bits during the packet preamble. This information is used in a
//! RAKE receiver and in a Viterbi demodulator." The estimator correlates the
//! known preamble template at successive delays (exploiting the m-sequence's
//! near-ideal autocorrelation) and averages over preamble repeats; the
//! result is quantized to the configured precision before the RAKE/MLSE use
//! it — reproducing the hardware's fixed-point datapath.

use crate::correlator::PreambleCorrelator;
use uwb_dsp::{Complex, DspScratch};

/// An estimated channel impulse response at sample resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelEstimate {
    taps: Vec<Complex>,
}

impl ChannelEstimate {
    /// Wraps raw taps as an estimate.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty.
    pub fn new(taps: Vec<Complex>) -> Self {
        assert!(!taps.is_empty(), "estimate needs at least one tap");
        ChannelEstimate { taps }
    }

    /// The tap array (delay = index, in samples).
    pub fn taps(&self) -> &[Complex] {
        &self.taps
    }

    /// Number of taps (the estimation window length).
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// Always `false`: construction requires at least one tap.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total estimated energy.
    pub fn energy(&self) -> f64 {
        self.taps.iter().map(|z| z.norm_sqr()).sum()
    }

    /// The `n` strongest taps as `(delay_samples, gain)`, strongest first.
    pub fn strongest_fingers(&self, n: usize) -> Vec<(usize, Complex)> {
        let mut idx = Vec::new();
        self.select_strongest_into(n, &mut idx);
        idx.into_iter().map(|i| (i, self.taps[i])).collect()
    }

    /// Indices of the `n` strongest taps, strongest first, written into the
    /// caller-owned `idx` buffer (allocation-free once its capacity
    /// suffices).
    ///
    /// Uses an unstable sort with an explicit `(descending energy, ascending
    /// index)` key, which reproduces exactly the order the stable sort in the
    /// historical `strongest_fingers` produced — ties on energy are common
    /// once taps are quantized to a few bits, so the tie-break matters for
    /// bit-identical finger selection.
    pub fn select_strongest_into(&self, n: usize, idx: &mut Vec<usize>) {
        idx.clear();
        idx.extend(0..self.taps.len());
        idx.sort_unstable_by(|&a, &b| {
            self.taps[b]
                .norm_sqr()
                .total_cmp(&self.taps[a].norm_sqr())
                .then(a.cmp(&b))
        });
        idx.truncate(n);
    }

    /// Quantizes each tap's I and Q to `bits` (mid-rise, full scale set by
    /// the largest component) — the paper's "precision of up to four bits".
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 16.
    pub fn quantized(&self, bits: u32) -> ChannelEstimate {
        let mut q = self.clone();
        q.quantize_in_place(bits);
        q
    }

    /// [`ChannelEstimate::quantized`] mutating the estimate in place —
    /// identical values, zero allocation (the per-trial form).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 16.
    pub fn quantize_in_place(&mut self, bits: u32) {
        assert!((1..=16).contains(&bits), "bits must be 1..=16");
        let full_scale = self
            .taps
            .iter()
            .fold(0.0f64, |m, z| m.max(z.re.abs()).max(z.im.abs()));
        if full_scale == 0.0 {
            return;
        }
        let levels = (1u32 << bits) as f64;
        let step = 2.0 * full_scale / levels;
        let q = |x: f64| {
            let k = (x / step).floor().clamp(-levels / 2.0, levels / 2.0 - 1.0);
            (k + 0.5) * step
        };
        for z in &mut self.taps {
            *z = Complex::new(q(z.re), q(z.im));
        }
    }

    /// Normalized mean-square error versus a reference estimate.
    pub fn nmse(&self, reference: &ChannelEstimate) -> f64 {
        let n = self.taps.len().min(reference.taps.len());
        let err: f64 = (0..n)
            .map(|i| (self.taps[i] - reference.taps[i]).norm_sqr())
            .sum();
        let e = reference.energy();
        if e > 0.0 {
            err / e
        } else {
            0.0
        }
    }

    /// Collapses the sample-spaced CIR to a symbol-spaced channel for the
    /// MLSE: tap `k` sums the energy-weighted response in
    /// `[k·sps, (k+1)·sps)` by matched-filter combining (coherent sum).
    pub fn to_symbol_spaced(&self, samples_per_symbol: usize, n_taps: usize) -> Vec<Complex> {
        (0..n_taps)
            .map(|k| {
                let lo = k * samples_per_symbol;
                let hi = ((k + 1) * samples_per_symbol).min(self.taps.len());
                if lo >= self.taps.len() {
                    return Complex::ZERO;
                }
                self.taps[lo..hi].iter().copied().sum()
            })
            .collect()
    }
}

/// Estimates the CIR by correlating the known one-period real preamble
/// `template` against `signal` at delays `0..window` relative to `start`,
/// averaging over `periods` repeats spaced `period_len` samples apart.
///
/// The estimator normalizes by the template energy it measures, so tap
/// gains are calibrated for any template scale.
///
/// # Panics
///
/// Panics if `window == 0`, `periods == 0`, or the template is empty or
/// complex.
pub fn estimate_cir(
    signal: &[Complex],
    template: &[Complex],
    start: usize,
    window: usize,
    periods: usize,
    period_len: usize,
) -> ChannelEstimate {
    let mut est = ChannelEstimate {
        taps: vec![Complex::ZERO; window.max(1)],
    };
    let correlator = PreambleCorrelator::from(template.to_vec());
    let mut scratch = DspScratch::new();
    estimate_cir_into(signal, &correlator, start, window, periods, period_len, &mut scratch, &mut est);
    est
}

/// [`estimate_cir`] through a (factored) preamble correlator, writing into
/// a caller-owned [`ChannelEstimate`] with work buffers from `scratch` —
/// allocation-free once capacities suffice; the per-trial form used by the
/// Gen2 receiver. Each period whose `window` delays all fit in `signal`
/// contributes one [`PreambleCorrelator::correlate_into`] sweep.
///
/// # Panics
///
/// Panics if `window == 0` or `periods == 0`.
#[allow(clippy::too_many_arguments)]
pub fn estimate_cir_into(
    signal: &[Complex],
    correlator: &PreambleCorrelator,
    start: usize,
    window: usize,
    periods: usize,
    period_len: usize,
    scratch: &mut DspScratch,
    est: &mut ChannelEstimate,
) {
    assert!(window > 0, "window must be positive");
    assert!(periods > 0, "need at least one period");
    let taps = &mut est.taps;
    taps.clear();
    taps.resize(window, Complex::ZERO);
    let mut per_period = scratch.take_complex(window);
    let mut used_periods = 0usize;
    for p in 0..periods {
        let base = start + p * period_len;
        if base + correlator.template().len() + window > signal.len() + 1 {
            break;
        }
        used_periods += 1;
        correlator.correlate_into(&signal[base..], &mut per_period, scratch);
        for (tap, &z) in taps.iter_mut().zip(per_period.iter()) {
            *tap += z;
        }
    }
    scratch.put_complex(per_period);
    let lags = used_periods * window;
    uwb_obs::hist!("chanest_lags", lags as u64);
    uwb_obs::hist!("chanest_chip_adds", correlator.chip_adds(lags));
    let scale = 1.0 / (used_periods.max(1) as f64 * correlator.energy());
    for tap in taps.iter_mut() {
        *tap = *tap * scale;
    }
    // The quantizer's step is set by the largest tap component. Re-evaluate
    // every tap that could hold it in direct form, so that step — and with
    // it every quantized value and finger energy — is the direct-form
    // estimator's to the bit (see DESIGN.md, "Preamble correlator").
    let peak = taps.iter().fold(0.0f64, |m, z| m.max(z.re.abs()).max(z.im.abs()));
    for (d, tap) in taps.iter_mut().enumerate() {
        if tap.re.abs().max(tap.im.abs()) >= peak * (1.0 - 1e-9) {
            let mut acc = Complex::ZERO;
            for p in 0..used_periods {
                let base = start + p * period_len + d;
                acc += uwb_dsp::simd::dot_real_template(&signal[base..], correlator.template());
            }
            *tap = acc * scale;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use uwb_dsp::fft::fft_convolve;
    use uwb_sim::awgn::add_awgn_complex;
    use uwb_sim::Rand;

    /// The dense dot-product estimator [`estimate_cir_into`] replaced, kept
    /// as its test oracle with the same arithmetic: one template-length
    /// inner product per delay and period, for a real template (every `im`
    /// zero, as the preamble's is).
    pub(crate) fn estimate_cir_direct(
        signal: &[Complex],
        template: &[Complex],
        start: usize,
        window: usize,
        periods: usize,
        period_len: usize,
    ) -> ChannelEstimate {
        let mut taps = vec![Complex::ZERO; window];
        let mut used = 0usize;
        for p in 0..periods {
            let base = start + p * period_len;
            if base + template.len() + window > signal.len() + 1 {
                break;
            }
            used += 1;
            for (d, tap) in taps.iter_mut().enumerate() {
                *tap += uwb_dsp::simd::dot_real_template(&signal[base + d..], template);
            }
        }
        let scale = 1.0 / (used.max(1) as f64 * template.iter().map(|z| z.norm_sqr()).sum::<f64>());
        ChannelEstimate::new(taps.into_iter().map(|t| t * scale).collect())
    }

    fn chip_template() -> Vec<Complex> {
        let chips = crate::pn::msequence_chips(7);
        // Unit energy: scale by 1/sqrt(127).
        let k = 1.0 / (127.0f64).sqrt();
        chips.iter().map(|&c| Complex::new(c * k, 0.0)).collect()
    }

    fn through_channel(template: &[Complex], h: &[Complex], periods: usize) -> Vec<Complex> {
        let mut sig = Vec::new();
        for _ in 0..periods {
            sig.extend_from_slice(template);
        }
        let mut out = fft_convolve(&sig, h);
        out.extend(vec![Complex::ZERO; 32]);
        out
    }

    #[test]
    fn recovers_two_tap_channel() {
        let tpl = chip_template();
        let h = {
            let mut h = vec![Complex::ZERO; 8];
            h[0] = Complex::new(0.9, 0.0);
            h[5] = Complex::new(0.0, -0.4);
            h
        };
        let rx = through_channel(&tpl, &h, 4);
        let est = estimate_cir(&rx, &tpl, 0, 8, 4, tpl.len());
        assert!((est.taps()[0] - h[0]).norm() < 0.05, "{:?}", est.taps()[0]);
        assert!((est.taps()[5] - h[5]).norm() < 0.05, "{:?}", est.taps()[5]);
        for d in [1usize, 2, 3, 4, 6, 7] {
            assert!(est.taps()[d].norm() < 0.1, "ghost tap at {d}");
        }
    }

    #[test]
    fn averaging_suppresses_noise() {
        let tpl = chip_template();
        let mut h = vec![Complex::ZERO; 4];
        h[0] = Complex::ONE;
        let clean = through_channel(&tpl, &h, 8);
        let mut rng = Rand::new(1);
        let noisy = add_awgn_complex(&clean, 0.5, &mut rng);
        let est1 = estimate_cir(&noisy, &tpl, 0, 4, 1, tpl.len());
        let est8 = estimate_cir(&noisy, &tpl, 0, 4, 8, tpl.len());
        let ref_est = ChannelEstimate::new(h);
        assert!(
            est8.nmse(&ref_est) < est1.nmse(&ref_est),
            "8-period NMSE {} vs 1-period {}",
            est8.nmse(&ref_est),
            est1.nmse(&ref_est)
        );
    }

    /// The factored estimator against the dense dot-product oracle on
    /// gen2-shaped preambles: random ±1 chips, the gen2 pulse and slot
    /// spacing, noisy records, 1–3 periods and varying windows.
    #[test]
    fn factored_estimate_matches_dot_product_oracle() {
        let tx = crate::Gen2Transmitter::new(crate::Gen2Config::nominal_100mbps()).unwrap();
        let sps = tx.config().samples_per_slot();
        let mut rng = Rand::new(7);
        let mut scratch = DspScratch::new();
        let mut est = ChannelEstimate::new(vec![Complex::ZERO]);
        for case in 0..24 {
            let n_chips = 2 + rng.below(130);
            let chips: Vec<f64> = (0..n_chips).map(|_| if rng.bit() { 1.0 } else { -1.0 }).collect();
            let corr = PreambleCorrelator::spread(&chips, sps, tx.pulse());
            let period = n_chips * sps;
            let (window, periods) = (1 + rng.below(80), 1 + rng.below(3));
            let sig: Vec<Complex> = (0..3 * period + corr.template().len() + 100)
                .map(|_| Complex::new(rng.gaussian(), rng.gaussian()))
                .collect();
            let start = rng.below(100);
            estimate_cir_into(&sig, &corr, start, window, periods, period, &mut scratch, &mut est);
            let want = estimate_cir_direct(&sig, corr.template(), start, window, periods, period);
            let scale = want.taps().iter().map(|z| z.norm()).fold(f64::MIN_POSITIVE, f64::max);
            for (d, (a, b)) in est.taps().iter().zip(want.taps()).enumerate() {
                assert!((*a - *b).norm() <= 1e-12 * scale, "case {case} delay {d}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn strongest_fingers_sorted() {
        let est = ChannelEstimate::new(vec![
            Complex::new(0.1, 0.0),
            Complex::new(0.9, 0.0),
            Complex::new(0.0, 0.5),
            Complex::new(0.05, 0.0),
        ]);
        let fingers = est.strongest_fingers(2);
        assert_eq!(fingers.len(), 2);
        assert_eq!(fingers[0].0, 1);
        assert_eq!(fingers[1].0, 2);
        // Requesting more than available returns all.
        assert_eq!(est.strongest_fingers(99).len(), 4);
    }

    #[test]
    fn quantization_error_shrinks_with_bits() {
        let mut rng = Rand::new(2);
        let taps: Vec<Complex> = (0..32)
            .map(|_| Complex::new(rng.gaussian(), rng.gaussian()))
            .collect();
        let est = ChannelEstimate::new(taps);
        let mut prev = f64::INFINITY;
        for bits in [1u32, 2, 3, 4, 6, 8] {
            let q = est.quantized(bits);
            let nmse = q.nmse(&est);
            assert!(nmse < prev, "bits {bits}: {nmse} !< {prev}");
            prev = nmse;
        }
        // 4 bits should already be quite accurate (paper's design point).
        assert!(est.quantized(4).nmse(&est) < 0.02);
    }

    #[test]
    fn quantized_zero_estimate_unchanged() {
        let est = ChannelEstimate::new(vec![Complex::ZERO; 4]);
        assert_eq!(est.quantized(4), est);
    }

    #[test]
    fn symbol_spaced_collapse() {
        let mut taps = vec![Complex::ZERO; 20];
        taps[0] = Complex::ONE;
        taps[3] = Complex::new(0.5, 0.0);
        taps[12] = Complex::new(0.0, 0.25);
        let est = ChannelEstimate::new(taps);
        let sym = est.to_symbol_spaced(10, 3);
        assert_eq!(sym.len(), 3);
        assert!((sym[0] - Complex::new(1.5, 0.0)).norm() < 1e-12);
        assert!((sym[1] - Complex::new(0.0, 0.25)).norm() < 1e-12);
        assert_eq!(sym[2], Complex::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_estimate_panics() {
        ChannelEstimate::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn bad_bits_panics() {
        ChannelEstimate::new(vec![Complex::ONE]).quantized(0);
    }
}
