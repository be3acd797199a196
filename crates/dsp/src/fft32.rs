//! Single-precision SoA radix-2 FFT.
//!
//! For consumers that tolerate f32 relative error (~1e-7), such as a
//! normalized threshold comparison followed by an argmax. Running in f32
//! doubles the samples per vector lane and halves memory traffic.
//!
//! Layout is structure-of-arrays: the real and imaginary rails live in two
//! separate `f32` slices, so every butterfly lowers to pure vector
//! arithmetic with no interleaved shuffles. The twiddle tables are computed
//! in f64 and rounded once, making transforms deterministic across targets
//! (strict IEEE f32 arithmetic, fixed evaluation order).
//!
//! This module mirrors [`crate::fft`]'s plan caching: [`cached_plan32`] is
//! the thread-local memoized front end, and constructions are recorded in
//! the same [`crate::fft::fft_plans_built`] counter the plan-cache
//! regression tests watch.
//!
//! This module guarantees the transform identities (round trip,
//! linearity, known spectra) at f32 tolerance; accuracy against the f64
//! path is the consumer's to bound.

use std::cell::RefCell;
use std::rc::Rc;

use crate::fft::note_plan_built;

/// Planned single-precision FFT of a fixed power-of-two size, operating on
/// split re/im `f32` lanes.
#[derive(Debug, Clone)]
pub struct Fft32 {
    n: usize,
    rev: Vec<usize>,
    /// Stage-major forward twiddles: for the stage with butterfly length
    /// `len`, the `len/2` values `e^{-i 2π k / len}` stored contiguously
    /// (total `n − 1` entries). Contiguity is what lets each stage's inner
    /// loop run at unit stride over data *and* twiddles.
    tw_re: Vec<f32>,
    /// Imaginary parts of the stage-major forward twiddles.
    tw_im: Vec<f32>,
}

impl Fft32 {
    /// Plans an f32 FFT of size `n`.
    ///
    /// Prefer [`cached_plan32`] in per-trial code.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n > 0 && n.is_power_of_two(), "FFT size must be a power of two");
        note_plan_built();
        let bits = n.trailing_zeros();
        let mut rev = vec![0usize; n];
        if bits > 0 {
            for (i, r) in rev.iter_mut().enumerate() {
                *r = i.reverse_bits() >> (usize::BITS - bits);
            }
        }
        let mut tw_re = Vec::with_capacity(n.saturating_sub(1));
        let mut tw_im = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2usize;
        while len <= n {
            for k in 0..len / 2 {
                let theta = -std::f64::consts::TAU * k as f64 / len as f64;
                tw_re.push(theta.cos() as f32);
                tw_im.push(theta.sin() as f32);
            }
            len <<= 1;
        }
        Fft32 { n, rev, tw_re, tw_im }
    }

    /// The transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: a plan has size ≥ 1.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Butterfly passes over already bit-reverse-permuted lanes (no `1/N`
    /// scaling — the scaled entry points apply it). Each stage's inner loop walks the
    /// lower/upper block halves and the stage-major twiddle table at unit
    /// stride, with the halves split via `split_at_mut` so the
    /// autovectorizer can prove non-aliasing and emit packed f32 FMAs.
    fn butterflies(&self, re: &mut [f32], im: &mut [f32], invert: bool) {
        let n = self.n;
        let sign = if invert { -1.0f32 } else { 1.0 };
        let mut len = 2usize;
        let mut tw_off = 0usize;
        if n >= 4 {
            // Fused radix-4 first pass replacing the `len = 2` and `len = 4`
            // stages. Those two stages have 1- and 2-wide inner loops — pure
            // scalar work that would otherwise cost two full passes over the
            // lanes; fusing them halves that memory traffic and uses the
            // exact twiddles 1 and ∓i instead of their rounded table entries.
            for start in (0..n).step_by(4) {
                let (x0r, x1r, x2r, x3r) = (re[start], re[start + 1], re[start + 2], re[start + 3]);
                let (x0i, x1i, x2i, x3i) = (im[start], im[start + 1], im[start + 2], im[start + 3]);
                let (a0r, a0i) = (x0r + x1r, x0i + x1i);
                let (a1r, a1i) = (x0r - x1r, x0i - x1i);
                let (a2r, a2i) = (x2r + x3r, x2i + x3i);
                let (a3r, a3i) = (x2r - x3r, x2i - x3i);
                // (∓i)·a3: forward multiplies by −i, inverse by +i.
                let (b3r, b3i) = (sign * a3i, -sign * a3r);
                re[start] = a0r + a2r;
                im[start] = a0i + a2i;
                re[start + 2] = a0r - a2r;
                im[start + 2] = a0i - a2i;
                re[start + 1] = a1r + b3r;
                im[start + 1] = a1i + b3i;
                re[start + 3] = a1r - b3r;
                im[start + 3] = a1i - b3i;
            }
            len = 8;
            tw_off = 3; // skip the len=2 (1-entry) and len=4 (2-entry) tables
        }
        while len <= n {
            let half = len / 2;
            let twr = &self.tw_re[tw_off..tw_off + half];
            let twi = &self.tw_im[tw_off..tw_off + half];
            for start in (0..n).step_by(len) {
                let (r_lo, r_hi) = re[start..start + len].split_at_mut(half);
                let (i_lo, i_hi) = im[start..start + len].split_at_mut(half);
                for k in 0..half {
                    let wr = twr[k];
                    let wi = sign * twi[k];
                    let vr = r_hi[k] * wr - i_hi[k] * wi;
                    let vi = r_hi[k] * wi + i_hi[k] * wr;
                    let (ur, ui) = (r_lo[k], i_lo[k]);
                    r_lo[k] = ur + vr;
                    i_lo[k] = ui + vi;
                    r_hi[k] = ur - vr;
                    i_hi[k] = ui - vi;
                }
            }
            tw_off += half;
            len <<= 1;
        }
    }

    /// Transforms the lanes in place (forward when `invert` is false,
    /// inverse — including the `1/N` normalization — when true). No
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if either lane's length differs from the transform size.
    pub fn process_in_place(&self, re: &mut [f32], im: &mut [f32], invert: bool) {
        assert_eq!(re.len(), self.n, "re lane length must equal FFT size");
        assert_eq!(im.len(), self.n, "im lane length must equal FFT size");
        for i in 0..self.n {
            let r = self.rev[i];
            if i < r {
                re.swap(i, r);
                im.swap(i, r);
            }
        }
        self.butterflies(re, im, invert);
        if invert {
            let inv_n = 1.0 / self.n as f32;
            for x in re.iter_mut() {
                *x *= inv_n;
            }
            for x in im.iter_mut() {
                *x *= inv_n;
            }
        }
    }

    /// Forward DFT in place on split lanes.
    ///
    /// # Panics
    ///
    /// Panics if either lane's length differs from the transform size.
    pub fn forward_in_place(&self, re: &mut [f32], im: &mut [f32]) {
        self.process_in_place(re, im, false);
    }

    /// Inverse DFT in place on split lanes (includes the `1/N`
    /// normalization).
    ///
    /// # Panics
    ///
    /// Panics if either lane's length differs from the transform size.
    pub fn inverse_in_place(&self, re: &mut [f32], im: &mut [f32]) {
        self.process_in_place(re, im, true);
    }

    /// Inverse DFT *without* the `1/N` normalization, for callers that fold
    /// the scale into an earlier stage (e.g. a pre-scaled cached spectrum in
    /// a convolution) and would otherwise pay a full extra pass over the
    /// lanes.
    ///
    /// # Panics
    ///
    /// Panics if either lane's length differs from the transform size.
    pub fn inverse_in_place_unscaled(&self, re: &mut [f32], im: &mut [f32]) {
        assert_eq!(re.len(), self.n, "re lane length must equal FFT size");
        assert_eq!(im.len(), self.n, "im lane length must equal FFT size");
        for i in 0..self.n {
            let r = self.rev[i];
            if i < r {
                re.swap(i, r);
                im.swap(i, r);
            }
        }
        self.butterflies(re, im, true);
    }
}

/// Per-thread memoized f32 FFT plans keyed by transform size (the
/// single-precision sibling of [`crate::fft::FftPlanner`]).
#[derive(Debug, Default)]
pub struct Fft32Planner {
    /// `plans[log2(n)]` holds the plan for size `n`.
    plans: Vec<Option<Rc<Fft32>>>,
}

impl Fft32Planner {
    /// An empty planner; plans are built lazily on first request.
    pub fn new() -> Self {
        Fft32Planner::default()
    }

    /// Returns the plan for size `n`, building and caching it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn plan(&mut self, n: usize) -> Rc<Fft32> {
        assert!(n > 0 && n.is_power_of_two(), "FFT size must be a power of two");
        let idx = n.trailing_zeros() as usize;
        if idx >= self.plans.len() {
            self.plans.resize(idx + 1, None);
        }
        self.plans[idx]
            .get_or_insert_with(|| Rc::new(Fft32::new(n)))
            .clone()
    }

    /// Number of distinct sizes currently planned (diagnostics).
    pub fn planned_sizes(&self) -> usize {
        self.plans.iter().filter(|p| p.is_some()).count()
    }
}

thread_local! {
    static THREAD_PLANNER32: RefCell<Fft32Planner> = RefCell::new(Fft32Planner::new());
}

/// This thread's cached f32 FFT plan of size `n`, built on first use (the
/// single-precision sibling of [`crate::fft::cached_plan`]).
///
/// # Panics
///
/// Panics if `n` is zero or not a power of two.
pub fn cached_plan32(n: usize) -> Rc<Fft32> {
    THREAD_PLANNER32.with(|p| p.borrow_mut().plan(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex;

    fn reference(n: usize, re: &[f32], im: &[f32], invert: bool) -> Vec<Complex> {
        let fft = crate::Fft::new(n);
        let x: Vec<Complex> = re
            .iter()
            .zip(im)
            .map(|(&r, &i)| Complex::new(r as f64, i as f64))
            .collect();
        if invert {
            fft.inverse(&x)
        } else {
            fft.forward(&x)
        }
    }

    #[test]
    fn matches_f64_reference_within_f32_tolerance() {
        for n in [1usize, 2, 8, 256, 2048] {
            let re: Vec<f32> = (0..n).map(|i| (0.37 * i as f32).sin()).collect();
            let im: Vec<f32> = (0..n).map(|i| (0.11 * i as f32).cos() - 0.3).collect();
            for invert in [false, true] {
                let want = reference(n, &re, &im, invert);
                let (mut r, mut i) = (re.clone(), im.clone());
                Fft32::new(n).process_in_place(&mut r, &mut i, invert);
                let scale = want.iter().map(|z| z.norm()).fold(1.0, f64::max);
                for ((got_r, got_i), w) in r.iter().zip(&i).zip(&want) {
                    let err = (Complex::new(*got_r as f64, *got_i as f64) - *w).norm();
                    assert!(
                        err <= 1e-5 * scale,
                        "n={n} invert={invert}: err {err} vs scale {scale}"
                    );
                }
            }
        }
    }

    #[test]
    fn round_trip() {
        let n = 512;
        let fft = Fft32::new(n);
        let re0: Vec<f32> = (0..n).map(|i| (0.61 * i as f32).sin()).collect();
        let im0: Vec<f32> = (0..n).map(|i| (0.23 * i as f32).cos()).collect();
        let (mut re, mut im) = (re0.clone(), im0.clone());
        fft.forward_in_place(&mut re, &mut im);
        fft.inverse_in_place(&mut re, &mut im);
        for ((a, b), (c, d)) in re.iter().zip(&im).zip(re0.iter().zip(&im0)) {
            assert!((a - c).abs() < 1e-4 && (b - d).abs() < 1e-4);
        }
    }

    #[test]
    fn unscaled_inverse_is_scaled_inverse_times_n() {
        let n = 256;
        let fft = Fft32::new(n);
        let re0: Vec<f32> = (0..n).map(|i| (0.91 * i as f32).sin()).collect();
        let im0: Vec<f32> = (0..n).map(|i| (0.13 * i as f32).cos()).collect();
        let (mut ru, mut iu) = (re0.clone(), im0.clone());
        let (mut rs, mut is) = (re0, im0);
        fft.inverse_in_place_unscaled(&mut ru, &mut iu);
        fft.inverse_in_place(&mut rs, &mut is);
        for ((u, s), (v, t)) in ru.iter().zip(&rs).zip(iu.iter().zip(&is)) {
            assert!((u - s * n as f32).abs() <= 1e-3 * u.abs().max(1.0));
            assert!((v - t * n as f32).abs() <= 1e-3 * v.abs().max(1.0));
        }
    }

    #[test]
    fn transforms_are_deterministic() {
        let n = 1024;
        let fft = Fft32::new(n);
        let re0: Vec<f32> = (0..n).map(|i| 1.0 / (i + 1) as f32).collect();
        let im0: Vec<f32> = (0..n).map(|i| -(i as f32) * 1e-3).collect();
        let (mut r1, mut i1) = (re0.clone(), im0.clone());
        let (mut r2, mut i2) = (re0, im0);
        fft.forward_in_place(&mut r1, &mut i1);
        fft.forward_in_place(&mut r2, &mut i2);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r1), bits(&r2));
        assert_eq!(bits(&i1), bits(&i2));
    }

    #[test]
    fn planner_caches_plans_per_size() {
        let mut planner = Fft32Planner::new();
        let before = crate::fft::fft_plans_built();
        let p1 = planner.plan(256);
        let p2 = planner.plan(256);
        assert!(Rc::ptr_eq(&p1, &p2), "same size must share one plan");
        assert_eq!(crate::fft::fft_plans_built() - before, 1);
        assert_eq!(planner.planned_sizes(), 1);
    }

    #[test]
    fn cached_plan32_reuses_thread_local_plan() {
        let a = cached_plan32(4096);
        let before = crate::fft::fft_plans_built();
        let b = cached_plan32(4096);
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(crate::fft::fft_plans_built(), before);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_size_panics() {
        Fft32::new(12);
    }

    #[test]
    #[should_panic(expected = "lane length")]
    fn wrong_lane_length_panics() {
        let mut re = vec![0.0f32; 4];
        let mut im = vec![0.0f32; 8];
        Fft32::new(8).forward_in_place(&mut re, &mut im);
    }
}
