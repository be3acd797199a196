//! IIR biquad sections and cascades.
//!
//! Provides RBJ-cookbook second-order sections (lowpass, highpass, notch,
//! peaking) and a Butterworth lowpass cascade. The tunable notch is the
//! digital stand-in for the paper's front-end notch filter that is steered by
//! the spectral-monitoring block.

use crate::complex::Complex;

/// A single direct-form-I biquad section:
/// `y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] − a1 y[n-1] − a2 y[n-2]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Biquad {
    /// Feed-forward coefficients.
    pub b: [f64; 3],
    /// Feedback coefficients (a0 normalized to 1, stored as `[a1, a2]`).
    pub a: [f64; 2],
    x1: f64,
    x2: f64,
    y1: f64,
    y2: f64,
    // Separate state for the complex path so real/complex use don't mix.
    cx1: Complex,
    cx2: Complex,
    cy1: Complex,
    cy2: Complex,
}

impl Biquad {
    /// Creates a biquad from normalized coefficients (`a0 == 1`).
    pub fn from_coefficients(b: [f64; 3], a: [f64; 2]) -> Self {
        Biquad {
            b,
            a,
            x1: 0.0,
            x2: 0.0,
            y1: 0.0,
            y2: 0.0,
            cx1: Complex::ZERO,
            cx2: Complex::ZERO,
            cy1: Complex::ZERO,
            cy2: Complex::ZERO,
        }
    }

    /// RBJ lowpass with cutoff `f0` (fraction of sample rate) and quality
    /// factor `q`.
    ///
    /// # Panics
    ///
    /// Panics if `f0` is outside `(0, 0.5)` or `q <= 0`.
    pub fn lowpass(f0: f64, q: f64) -> Self {
        assert!(f0 > 0.0 && f0 < 0.5, "f0 must be in (0, 0.5)");
        assert!(q > 0.0, "q must be positive");
        let w0 = std::f64::consts::TAU * f0;
        let alpha = w0.sin() / (2.0 * q);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Biquad::from_coefficients(
            [
                (1.0 - cw) / 2.0 / a0,
                (1.0 - cw) / a0,
                (1.0 - cw) / 2.0 / a0,
            ],
            [-2.0 * cw / a0, (1.0 - alpha) / a0],
        )
    }

    /// RBJ highpass with cutoff `f0` and quality factor `q`.
    ///
    /// # Panics
    ///
    /// Panics if `f0` is outside `(0, 0.5)` or `q <= 0`.
    pub fn highpass(f0: f64, q: f64) -> Self {
        assert!(f0 > 0.0 && f0 < 0.5, "f0 must be in (0, 0.5)");
        assert!(q > 0.0, "q must be positive");
        let w0 = std::f64::consts::TAU * f0;
        let alpha = w0.sin() / (2.0 * q);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Biquad::from_coefficients(
            [
                (1.0 + cw) / 2.0 / a0,
                -(1.0 + cw) / a0,
                (1.0 + cw) / 2.0 / a0,
            ],
            [-2.0 * cw / a0, (1.0 - alpha) / a0],
        )
    }

    /// RBJ notch centered at `f0` with quality factor `q` (higher `q` ⇒
    /// narrower notch). Unity gain away from the notch.
    ///
    /// # Panics
    ///
    /// Panics if `f0` is outside `(0, 0.5)` or `q <= 0`.
    pub fn notch(f0: f64, q: f64) -> Self {
        assert!(f0 > 0.0 && f0 < 0.5, "f0 must be in (0, 0.5)");
        assert!(q > 0.0, "q must be positive");
        let w0 = std::f64::consts::TAU * f0;
        let alpha = w0.sin() / (2.0 * q);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Biquad::from_coefficients(
            [1.0 / a0, -2.0 * cw / a0, 1.0 / a0],
            [-2.0 * cw / a0, (1.0 - alpha) / a0],
        )
    }

    /// Processes one real sample.
    pub fn push(&mut self, x: f64) -> f64 {
        let y = self.b[0] * x + self.b[1] * self.x1 + self.b[2] * self.x2
            - self.a[0] * self.y1
            - self.a[1] * self.y2;
        self.x2 = self.x1;
        self.x1 = x;
        self.y2 = self.y1;
        self.y1 = y;
        y
    }

    /// Processes one complex sample (same real coefficients on both rails).
    pub fn push_complex(&mut self, x: Complex) -> Complex {
        let y = x * self.b[0] + self.cx1 * self.b[1] + self.cx2 * self.b[2]
            - self.cy1 * self.a[0]
            - self.cy2 * self.a[1];
        self.cx2 = self.cx1;
        self.cx1 = x;
        self.cy2 = self.cy1;
        self.cy1 = y;
        y
    }

    /// Filters a real block.
    pub fn process(&mut self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|&x| self.push(x)).collect()
    }

    /// Filters a complex block.
    pub fn process_complex(&mut self, input: &[Complex]) -> Vec<Complex> {
        input.iter().map(|&x| self.push_complex(x)).collect()
    }

    /// Clears filter state.
    pub fn reset(&mut self) {
        self.x1 = 0.0;
        self.x2 = 0.0;
        self.y1 = 0.0;
        self.y2 = 0.0;
        self.cx1 = Complex::ZERO;
        self.cx2 = Complex::ZERO;
        self.cy1 = Complex::ZERO;
        self.cy2 = Complex::ZERO;
    }

    /// Frequency response at normalized frequency `f` (cycles/sample).
    pub fn response_at(&self, f: f64) -> Complex {
        let z1 = Complex::cis(-std::f64::consts::TAU * f);
        let z2 = z1 * z1;
        let num = Complex::from(self.b[0]) + z1 * self.b[1] + z2 * self.b[2];
        let den = Complex::ONE + z1 * self.a[0] + z2 * self.a[1];
        num / den
    }

    /// Magnitude response in dB at normalized frequency `f`.
    pub fn magnitude_db(&self, f: f64) -> f64 {
        20.0 * self.response_at(f).norm().log10()
    }

    /// `true` if both poles are strictly inside the unit circle.
    pub fn is_stable(&self) -> bool {
        // Jury stability test for 2nd order: |a2| < 1 and |a1| < 1 + a2.
        let (a1, a2) = (self.a[0], self.a[1]);
        a2.abs() < 1.0 && a1.abs() < 1.0 + a2
    }
}

/// A cascade of biquad sections applied in series.
#[derive(Debug, Clone)]
pub struct BiquadCascade {
    sections: Vec<Biquad>,
}

impl BiquadCascade {
    /// Builds a cascade from individual sections.
    ///
    /// # Panics
    ///
    /// Panics if `sections` is empty.
    pub fn new(sections: Vec<Biquad>) -> Self {
        assert!(!sections.is_empty(), "cascade needs at least one section");
        BiquadCascade { sections }
    }

    /// Butterworth lowpass of even order `2 * n_sections` with cutoff `f0`
    /// (fraction of the sample rate), realized as `n_sections` RBJ lowpass
    /// biquads with the standard Butterworth pole-pair Q values.
    ///
    /// # Panics
    ///
    /// Panics if `n_sections == 0` or `f0` outside `(0, 0.5)`.
    pub fn butterworth_lowpass(n_sections: usize, f0: f64) -> Self {
        assert!(n_sections > 0, "need at least one section");
        let order = 2 * n_sections;
        let sections = (0..n_sections)
            .map(|k| {
                let theta = std::f64::consts::PI * (2.0 * k as f64 + 1.0) / (2.0 * order as f64);
                let q = 1.0 / (2.0 * theta.sin());
                Biquad::lowpass(f0, q)
            })
            .collect();
        BiquadCascade { sections }
    }

    /// Number of biquad sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// Always `false`; construction requires at least one section.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Processes one real sample through every section.
    pub fn push(&mut self, x: f64) -> f64 {
        self.sections.iter_mut().fold(x, |acc, s| s.push(acc))
    }

    /// Processes one complex sample through every section.
    pub fn push_complex(&mut self, x: Complex) -> Complex {
        self.sections
            .iter_mut()
            .fold(x, |acc, s| s.push_complex(acc))
    }

    /// Filters a real block.
    pub fn process(&mut self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|&x| self.push(x)).collect()
    }

    /// Filters a complex block.
    pub fn process_complex(&mut self, input: &[Complex]) -> Vec<Complex> {
        input.iter().map(|&x| self.push_complex(x)).collect()
    }

    /// Clears the state of every section.
    pub fn reset(&mut self) {
        self.sections.iter_mut().for_each(Biquad::reset);
    }

    /// Combined frequency response (product of section responses).
    pub fn response_at(&self, f: f64) -> Complex {
        self.sections
            .iter()
            .fold(Complex::ONE, |acc, s| acc * s.response_at(f))
    }

    /// Combined magnitude response in dB.
    pub fn magnitude_db(&self, f: f64) -> f64 {
        20.0 * self.response_at(f).norm().log10()
    }

    /// `true` if every section is stable.
    pub fn is_stable(&self) -> bool {
        self.sections.iter().all(Biquad::is_stable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowpass_dc_and_nyquist() {
        let bq = Biquad::lowpass(0.1, std::f64::consts::FRAC_1_SQRT_2);
        assert!(bq.magnitude_db(0.001).abs() < 0.1);
        assert!(bq.magnitude_db(0.49) < -20.0);
        assert!(bq.is_stable());
    }

    #[test]
    fn highpass_dc_and_nyquist() {
        let bq = Biquad::highpass(0.1, std::f64::consts::FRAC_1_SQRT_2);
        assert!(bq.magnitude_db(0.001) < -40.0);
        assert!(bq.magnitude_db(0.45).abs() < 0.5);
    }

    #[test]
    fn notch_kills_center_passes_elsewhere() {
        let bq = Biquad::notch(0.2, 30.0);
        assert!(bq.magnitude_db(0.2) < -50.0);
        assert!(bq.magnitude_db(0.05).abs() < 0.5);
        assert!(bq.magnitude_db(0.4).abs() < 0.5);
        assert!(bq.is_stable());
    }

    #[test]
    fn notch_time_domain_removes_tone() {
        let f0 = 0.15;
        let mut bq = Biquad::notch(f0, 20.0);
        let n = 4096;
        let x: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * f0 * i as f64).sin())
            .collect();
        let y = bq.process(&x);
        let tail_rms = crate::math::rms(&y[n / 2..]);
        assert!(tail_rms < 0.02, "tone survived the notch: {tail_rms}");
    }

    #[test]
    fn response_matches_time_domain_gain() {
        let mut bq = Biquad::lowpass(0.2, 1.0);
        let f = 0.05;
        let n = 8192;
        let x: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * f * i as f64).sin())
            .collect();
        let y = bq.process(&x);
        let gain_td = crate::math::rms(&y[n / 2..]) / crate::math::rms(&x[n / 2..]);
        let gain_fd = bq.response_at(f).norm();
        assert!((gain_td - gain_fd).abs() < 0.01, "{gain_td} vs {gain_fd}");
    }

    #[test]
    fn complex_path_matches_real_path() {
        let mut a = Biquad::lowpass(0.1, 0.9);
        let mut b = Biquad::lowpass(0.1, 0.9);
        let x: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let yr = a.process(&x);
        let yc = b.process_complex(&crate::complex::to_complex(&x));
        for (r, c) in yr.iter().zip(&yc) {
            assert!((r - c.re).abs() < 1e-12);
            assert!(c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn butterworth_cascade_rolloff() {
        let cas = BiquadCascade::butterworth_lowpass(2, 0.1); // 4th order
        assert!(cas.magnitude_db(0.001).abs() < 0.05);
        // -3 dB at cutoff for Butterworth.
        let at_fc = cas.magnitude_db(0.1);
        assert!((at_fc + 3.0).abs() < 0.5, "{at_fc}");
        // 4th order: ~ -24 dB/octave => at 2*fc about -24 dB.
        let at_2fc = cas.magnitude_db(0.2);
        assert!(at_2fc < -20.0 && at_2fc > -32.0, "{at_2fc}");
        assert!(cas.is_stable());
    }

    #[test]
    fn cascade_reset_reproducibility() {
        let mut cas = BiquadCascade::butterworth_lowpass(3, 0.15);
        let x: Vec<f64> = (0..64).map(|i| ((i * 13) % 7) as f64).collect();
        let y1 = cas.process(&x);
        cas.reset();
        let y2 = cas.process(&x);
        assert_eq!(y1, y2);
    }

    #[test]
    fn unstable_coefficients_detected() {
        let bad = Biquad::from_coefficients([1.0, 0.0, 0.0], [0.0, 1.5]);
        assert!(!bad.is_stable());
    }

    #[test]
    #[should_panic(expected = "f0 must be in")]
    fn bad_f0_panics() {
        Biquad::notch(0.6, 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one section")]
    fn empty_cascade_panics() {
        BiquadCascade::new(Vec::new());
    }
}
