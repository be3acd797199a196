//! Uniform quantization — the core of every converter model here.
//!
//! The paper's §1 claim under test: "A 1-bit analog-to-digital converter in a
//! noise limited regime, and a 4-bit ADC in a narrowband interferer regime
//! are sufficient." These models let the receiver run at any resolution.

use uwb_dsp::Complex;

/// A mid-rise uniform quantizer with saturation.
///
/// Full scale is ±`full_scale`; `bits` gives `2^bits` levels. Codes are
/// symmetric around zero (mid-rise: no code at exactly 0, which matches
/// flash/SAR converters with differential inputs).
///
/// # Examples
///
/// ```
/// use uwb_adc::Quantizer;
/// let q = Quantizer::new(1, 1.0); // the paper's 1-bit case: a comparator
/// assert_eq!(q.quantize(0.7), 0.5);
/// assert_eq!(q.quantize(-0.2), -0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    bits: u32,
    full_scale: f64,
}

impl Quantizer {
    /// Creates a quantizer with the given resolution and full-scale range.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 24, or `full_scale <= 0`.
    pub fn new(bits: u32, full_scale: f64) -> Self {
        assert!((1..=24).contains(&bits), "bits must be in 1..=24");
        assert!(full_scale > 0.0, "full scale must be positive");
        Quantizer { bits, full_scale }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Full-scale amplitude.
    pub fn full_scale(&self) -> f64 {
        self.full_scale
    }

    /// Number of levels, `2^bits`.
    pub fn levels(&self) -> u32 {
        1 << self.bits
    }

    /// The LSB step size, `2·FS / 2^bits`.
    #[inline]
    pub fn step(&self) -> f64 {
        2.0 * self.full_scale / self.levels() as f64
    }

    /// Quantizes one sample to the reconstruction level (mid-rise, clipped).
    #[inline]
    pub fn quantize(&self, x: f64) -> f64 {
        let step = self.step();
        let half_levels = (self.levels() / 2) as f64;
        // Mid-rise: code k covers [k*step, (k+1)*step), reconstruct at center.
        let k = (x / step).floor().clamp(-half_levels, half_levels - 1.0);
        (k + 0.5) * step
    }

    /// Fused AGC + conversion sweep: quantizes `input[i] * gain` on both
    /// rails into `out` — the receiver front end's digitize inner loop as
    /// one branch-free block pass (see [`uwb_dsp::simd`]).
    ///
    /// Bit-identical to `quantize(z.re * gain)` / `quantize(z.im * gain)`
    /// per sample: the kernel keeps the same divide-by-`step` arithmetic
    /// (locked down by a parity test).
    pub fn quantize_scaled_into(&self, input: &[Complex], gain: f64, out: &mut Vec<Complex>) {
        let half_levels = (self.levels() / 2) as f64;
        uwb_dsp::simd::quantize_scaled_into(
            input,
            gain,
            self.step(),
            -half_levels,
            half_levels - 1.0,
            out,
        );
    }

    /// [`Quantizer::quantize_scaled_into`] that *appends* to `out` instead
    /// of replacing it (same per-sample arithmetic), so a receiver can
    /// digitize record windows one after another onto one buffer.
    pub fn quantize_scaled_append(&self, input: &[Complex], gain: f64, out: &mut Vec<Complex>) {
        let half_levels = (self.levels() / 2) as f64;
        uwb_dsp::simd::quantize_scaled_append(
            input,
            gain,
            self.step(),
            -half_levels,
            half_levels - 1.0,
            out,
        );
    }

    /// Quantizes to the integer code in `[-2^(b-1), 2^(b-1) - 1]`.
    pub fn quantize_code(&self, x: f64) -> i32 {
        let step = self.step();
        let half_levels = (self.levels() / 2) as f64;
        (x / step).floor().clamp(-half_levels, half_levels - 1.0) as i32
    }

    /// Reconstruction level for a code from [`quantize_code`].
    ///
    /// [`quantize_code`]: Quantizer::quantize_code
    pub fn reconstruct(&self, code: i32) -> f64 {
        (code as f64 + 0.5) * self.step()
    }

    /// Quantizes a real block.
    pub fn quantize_block(&self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|&x| self.quantize(x)).collect()
    }

    /// Quantizes I and Q independently (two converters, as in paper Fig. 3's
    /// "two 5-bit SAR ADCs").
    pub fn quantize_complex(&self, input: &[Complex]) -> Vec<Complex> {
        input
            .iter()
            .map(|&z| Complex::new(self.quantize(z.re), self.quantize(z.im)))
            .collect()
    }

    /// Theoretical SQNR for a full-scale sinusoid: `6.02·bits + 1.76` dB.
    pub fn ideal_sqnr_db(&self) -> f64 {
        6.02 * self.bits as f64 + 1.76
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_bit_is_sign() {
        let q = Quantizer::new(1, 1.0);
        assert_eq!(q.quantize(0.001), 0.5);
        assert_eq!(q.quantize(100.0), 0.5);
        assert_eq!(q.quantize(-0.001), -0.5);
        assert_eq!(q.levels(), 2);
        assert_eq!(q.step(), 1.0);
    }

    #[test]
    fn codes_and_reconstruction() {
        let q = Quantizer::new(3, 1.0); // 8 levels, step 0.25
        assert_eq!(q.quantize_code(0.0), 0);
        assert_eq!(q.quantize_code(0.30), 1);
        assert_eq!(q.quantize_code(-0.30), -2);
        assert_eq!(q.quantize_code(10.0), 3); // clipped top code
        assert_eq!(q.quantize_code(-10.0), -4); // clipped bottom code
        assert_eq!(q.reconstruct(0), 0.125);
        assert!((q.reconstruct(q.quantize_code(0.3)) - q.quantize(0.3)).abs() < 1e-12);
    }

    #[test]
    fn quantization_error_bounded_in_range() {
        let q = Quantizer::new(5, 1.0); // the gen2 SAR resolution
        let step = q.step();
        for i in -100..100 {
            let x = i as f64 / 100.0 * 0.99;
            let e = (q.quantize(x) - x).abs();
            assert!(e <= step / 2.0 + 1e-12, "x={x} err={e}");
        }
    }

    #[test]
    fn clipping_beyond_full_scale() {
        let q = Quantizer::new(4, 1.0);
        let top = q.quantize(0.999);
        assert_eq!(q.quantize(5.0), top);
        let bottom = q.quantize(-0.999);
        assert_eq!(q.quantize(-5.0), bottom);
    }

    #[test]
    fn measured_sqnr_matches_ideal() {
        for bits in [4u32, 6, 8] {
            let q = Quantizer::new(bits, 1.0);
            let n = 65_536;
            // Full-scale sine, incommensurate frequency to exercise all codes.
            let x: Vec<f64> = (0..n)
                .map(|i| 0.999 * (std::f64::consts::TAU * 0.0123456 * i as f64).sin())
                .collect();
            let y = q.quantize_block(&x);
            let sig_pow: f64 = x.iter().map(|v| v * v).sum::<f64>() / n as f64;
            let err_pow: f64 = x
                .iter()
                .zip(&y)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                / n as f64;
            let sqnr = 10.0 * (sig_pow / err_pow).log10();
            let ideal = q.ideal_sqnr_db();
            assert!(
                (sqnr - ideal).abs() < 1.5,
                "{bits}-bit: measured {sqnr:.2} vs ideal {ideal:.2}"
            );
        }
    }

    #[test]
    fn complex_quantization_independent_rails() {
        let q = Quantizer::new(2, 1.0);
        let z = Complex::new(0.3, -0.8);
        let out = q.quantize_complex(&[z])[0];
        assert_eq!(out.re, q.quantize(0.3));
        assert_eq!(out.im, q.quantize(-0.8));
    }

    #[test]
    fn mid_rise_has_no_zero_level() {
        let q = Quantizer::new(4, 1.0);
        for i in -50..50 {
            let x = i as f64 / 50.0;
            assert!(q.quantize(x).abs() >= q.step() / 2.0 - 1e-12);
        }
    }

    #[test]
    fn quantize_scaled_matches_scalar_bitwise() {
        // The fused sweep must agree bit-for-bit with the per-sample path
        // for every resolution, including the saturating codes.
        for bits in [1u32, 4, 5, 12] {
            let q = Quantizer::new(bits, 1.0);
            let gain = 0.733;
            let input: Vec<Complex> = (-300..300)
                .map(|i| Complex::new(i as f64 / 100.0, (i as f64 * 0.017).sin() * 3.0))
                .collect();
            let mut out = Vec::new();
            q.quantize_scaled_into(&input, gain, &mut out);
            assert_eq!(out.len(), input.len());
            for (z, o) in input.iter().zip(&out) {
                let want = Complex::new(q.quantize(z.re * gain), q.quantize(z.im * gain));
                assert_eq!(*o, want, "bits={bits} z={z}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn zero_bits_panics() {
        Quantizer::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "full scale")]
    fn bad_full_scale_panics() {
        Quantizer::new(4, -1.0);
    }
}
