//! Parallelized correlator bank.
//!
//! Paper §1: "The back end requires parallelization to reduce the packet
//! synchronization time and to process the large data rate provided by the
//! ADC." In hardware, `P` correlators evaluate `P` candidate code phases per
//! clock; this model computes the same outputs and *accounts for the clock
//! cycles and multiply-accumulate operations* so acquisition-time and power
//! numbers can be derived from it.
//!
//! ## Factored preamble correlation
//!
//! The preamble template is `t[j] = Σ_k c_k·p[j − k·S]`: chips `c_k = ±1`
//! spaced `S` samples apart, each carrying a short real pulse `p`. Its
//! correlation at lag `l` factors as
//!
//! ```text
//! Σ_j s[l+j]·t[j] = Σ_k c_k · y[l + k·S],   y[n] = Σ_i s[n+i]·p[i]
//! ```
//!
//! so [`PreambleCorrelator`] filters the record once with the pulse and then
//! forms chip-spaced sums and differences of `y`, with no transform and no
//! multiplies in the second stage. Adjacent chips are paired,
//! `c_k·y_k + c_{k+1}·y_{k+1} = c_k·(y_k ± y_{k+1})`, so one pass building
//! pair-sum and pair-difference rails of `y` halves the per-lag adds. Every
//! stage runs over the record as interleaved re/im `f64` rails in register
//! blocks of 32 complex lags. An arbitrary real template is the
//! degenerate case of one `+1` chip whose pulse is the whole template.

use std::sync::OnceLock;

use uwb_dsp::{Complex, DspScratch};

/// `f64` outputs per register block: 32 complex lags as interleaved re/im,
/// which stay in the vector register file of AVX2/AVX-512 targets while a
/// block sweeps its pulse taps or chip terms.
const BLOCK: usize = 64;

/// A real correlation template kept in factored form, `Σ_k c_k·p(t − k·S)`
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct PreambleCorrelator {
    /// The dense template (the direct-form oracle and the energy source).
    template: Vec<Complex>,
    /// `Σ |t[j]|²`, summed in template order on first use.
    energy: OnceLock<f64>,
    pulse: Vec<f64>,
    /// Chip-stage terms `(rail, offset)`, the first `n_pos` added and the
    /// rest subtracted. Rail 0 is `y`, rail 1 the pair sum
    /// `y[j] + y[j + stride]`, rail 2 the pair difference; offsets are in
    /// interleaved `f64` units.
    terms: Vec<(usize, usize)>,
    n_pos: usize,
    /// Chip spacing in interleaved `f64` units, `2·S`.
    stride: usize,
    /// Offset of the last chip, `2·(K−1)·S`.
    span: usize,
}

impl PreambleCorrelator {
    /// The correlator for `chips` (each `±1`) carrying `pulse`, spaced
    /// `spacing` samples apart: chip `k`'s pulse occupies
    /// `[k·spacing, k·spacing + pulse.len())` of the dense template.
    ///
    /// # Panics
    ///
    /// Panics if `chips` or `pulse` is empty, `spacing == 0`, or a chip is
    /// not `±1`.
    pub fn spread(chips: &[f64], spacing: usize, pulse: &[f64]) -> Self {
        assert!(!chips.is_empty() && !pulse.is_empty(), "correlator template must be non-empty");
        assert!(spacing > 0, "chip spacing must be positive");
        assert!(chips.iter().all(|&c| c == 1.0 || c == -1.0), "chips must be ±1");
        let mut template = vec![Complex::ZERO; (chips.len() - 1) * spacing + pulse.len()];
        for (k, &c) in chips.iter().enumerate() {
            for (j, &p) in pulse.iter().enumerate() {
                template[k * spacing + j].re += c * p;
            }
        }
        let stride = 2 * spacing;
        // Chip pairs (and an odd last chip) as (rail, offset) terms, the
        // `+` terms first.
        let term = |(q, pair): (usize, &[f64])| {
            let rail = match pair {
                [a, b] if a == b => 1,
                [_, _] => 2,
                _ => 0,
            };
            (rail, 2 * q * stride)
        };
        let mut terms = Vec::with_capacity(chips.len().div_ceil(2));
        terms.extend(chips.chunks(2).enumerate().filter(|(_, p)| p[0] > 0.0).map(term));
        let n_pos = terms.len();
        terms.extend(chips.chunks(2).enumerate().filter(|(_, p)| p[0] < 0.0).map(term));
        PreambleCorrelator {
            template,
            energy: OnceLock::new(),
            pulse: pulse.to_vec(),
            terms,
            n_pos,
            stride,
            span: (chips.len() - 1) * stride,
        }
    }

    /// The dense template, sample by sample.
    pub fn template(&self) -> &[Complex] {
        &self.template
    }

    /// The template energy `Σ |t[j]|²`.
    pub fn energy(&self) -> f64 {
        *self
            .energy
            .get_or_init(|| self.template.iter().map(|z| z.norm_sqr()).sum())
    }

    /// Block-padded `y` rail length of a `lags`-lag sweep: the chip stage
    /// reads `y` up to the last chip's offset past its (padded) outputs.
    fn y_len(&self, lags: usize) -> usize {
        ((2 * lags).next_multiple_of(BLOCK) + self.span).next_multiple_of(BLOCK)
    }

    /// Real additions the chip stage spends on a `lags`-lag sweep: the
    /// pair rails (two or more chips), then one add per term per rail per
    /// lag — the deterministic work counter of the second stage.
    pub(crate) fn chip_adds(&self, lags: usize) -> u64 {
        if lags == 0 {
            return 0;
        }
        let rails = if self.span > 0 { 2 * (self.y_len(lags) - self.stride) } else { 0 };
        (rails + 2 * lags * self.terms.len()) as u64
    }

    /// Writes `out[l] = Σ_j signal[l+j]·t[j]` for every lag `l < out.len()`;
    /// lags whose window runs past the end of `signal` are zero. Work
    /// buffers come from `scratch`. Returns the number of lags evaluated
    /// (the in-range ones).
    ///
    /// Agrees with the direct form ([`CorrelatorBank::run`]) to rounding:
    /// the same terms, summed pulse tap by tap, then chip pair by chip pair.
    pub fn correlate_into(&self, signal: &[Complex], out: &mut [Complex], scratch: &mut DspScratch) -> usize {
        let m = self.template.len();
        let lags = out.len().min((signal.len() + 1).saturating_sub(m));
        out[lags..].fill(Complex::ZERO);
        if lags == 0 {
            return 0;
        }
        // Rails of one length — padded to whole blocks plus the pulse
        // filter's reach — laid out [y | pair sum | pair difference]. The
        // zero padding only feeds outputs that are discarded. Each rail
        // starts on a 64-byte boundary, so the chip stage's vector loads
        // never split a cache line (measured ~1.5× on that stage).
        let y_len = self.y_len(lags);
        let reach = 2 * (self.pulse.len() - 1);
        let rail_len = (y_len + reach).next_multiple_of(8);
        let n_rails = if self.span > 0 { 3 } else { 1 };
        let mut buf = scratch.take_real(n_rails * rail_len + 7);
        let skew = buf.as_ptr().align_offset(64).min(7);
        let rails = &mut buf[skew..skew + n_rails * rail_len];
        for (x, z) in rails.chunks_exact_mut(2).zip(&signal[..lags + m - 1]) {
            x[0] = z.re;
            x[1] = z.im;
        }
        // Stage 1: y = s ⋆ p, in place over rail 0. Block `base` reads
        // `x[base..base + reach + BLOCK]` and only then writes
        // `[base, base + BLOCK)`, so later blocks never read an output.
        for base in (0..y_len).step_by(BLOCK) {
            let w = &rails[base..][..reach + BLOCK];
            let mut acc = [0.0f64; BLOCK];
            for (i, &p) in self.pulse.iter().enumerate() {
                // `2·i ≤ reach`; the `min` only drops the bounds check.
                let o = (2 * i).min(reach);
                for (a, &v) in acc.iter_mut().zip(&w[o..o + BLOCK]) {
                    *a += p * v;
                }
            }
            rails[base..base + BLOCK].copy_from_slice(&acc);
        }
        // Stage 2a: pair rails. A pair term's offset is at most
        // `span − stride`, so it reads them below `y_len − stride`.
        if self.span > 0 {
            let (y, pairs) = rails.split_at_mut(rail_len);
            let (sum, diff) = pairs.split_at_mut(rail_len);
            let n = y_len - self.stride;
            for (j, (s, d)) in sum[..n].iter_mut().zip(&mut diff[..n]).enumerate() {
                let (a, b) = (y[j], y[j + self.stride]);
                *s = a + b;
                *d = a - b;
            }
        }
        // Stage 2b: chip-pair sums, one register block of lags at a time.
        // Every term offset is at most `last`; the `min` only drops the
        // per-term bounds check.
        let last = (n_rails - 1) * rail_len + self.span;
        let (pos, neg) = self.terms.split_at(self.n_pos);
        for (c, block) in out[..lags].chunks_mut(BLOCK / 2).enumerate() {
            let w = &rails[c * BLOCK..][..last + BLOCK];
            let mut acc = [0.0f64; BLOCK];
            for &(r, o) in pos {
                let o = (r * rail_len + o).min(last);
                for (a, &v) in acc.iter_mut().zip(&w[o..o + BLOCK]) {
                    *a += v;
                }
            }
            for &(r, o) in neg {
                let o = (r * rail_len + o).min(last);
                for (a, &v) in acc.iter_mut().zip(&w[o..o + BLOCK]) {
                    *a -= v;
                }
            }
            for (z, a) in block.iter_mut().zip(acc.chunks_exact(2)) {
                *z = Complex::new(a[0], a[1]);
            }
        }
        scratch.put_real(buf);
        lags
    }
}

impl From<Vec<Complex>> for PreambleCorrelator {
    /// The degenerate factoring of a dense real template: one `+1` chip
    /// whose pulse is the whole template.
    ///
    /// # Panics
    ///
    /// Panics if the template is empty or has a non-zero imaginary part.
    fn from(template: Vec<Complex>) -> Self {
        assert!(template.iter().all(|z| z.im == 0.0), "correlator template must be real");
        let pulse: Vec<f64> = template.iter().map(|z| z.re).collect();
        PreambleCorrelator::spread(&[1.0], 1, &pulse)
    }
}

/// Operation accounting for a correlator-bank run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CorrelatorStats {
    /// Candidate phases evaluated.
    pub phases_evaluated: usize,
    /// Hardware clock cycles consumed (`ceil(phases / parallelism)` dwells,
    /// each lasting one template length of clocks).
    pub clock_cycles: u64,
    /// Real multiply-accumulate operations performed.
    pub mac_ops: u64,
}

/// A bank of `parallelism` correlators sharing one template.
#[derive(Debug, Clone)]
pub struct CorrelatorBank {
    correlator: PreambleCorrelator,
    parallelism: usize,
}

impl CorrelatorBank {
    /// Creates a bank with the given real template (dense, or a factored
    /// [`PreambleCorrelator`]) and hardware parallelism.
    ///
    /// # Panics
    ///
    /// Panics if a dense template is empty or complex, or if
    /// `parallelism == 0`.
    pub fn new(template: impl Into<PreambleCorrelator>, parallelism: usize) -> Self {
        let correlator = template.into();
        assert!(parallelism > 0, "parallelism must be at least 1");
        CorrelatorBank {
            correlator,
            parallelism,
        }
    }

    /// The template length in samples.
    pub fn template_len(&self) -> usize {
        self.correlator.template().len()
    }

    /// The correlation template.
    pub fn template(&self) -> &[Complex] {
        self.correlator.template()
    }

    /// The factored correlator the bank evaluates.
    pub fn correlator(&self) -> &PreambleCorrelator {
        &self.correlator
    }

    /// The number of parallel correlators.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Correlates `signal` against the template at every phase in
    /// `phases` (sample offsets into `signal`) in direct form. Offsets
    /// whose window would run past the end yield zero.
    ///
    /// Returns per-phase complex outputs plus the hardware cost.
    pub fn run(&self, signal: &[Complex], phases: &[usize]) -> (Vec<Complex>, CorrelatorStats) {
        let template = self.template();
        let m = template.len();
        let mut out = Vec::with_capacity(phases.len());
        for &p in phases {
            if p + m > signal.len() {
                out.push(Complex::ZERO);
                continue;
            }
            let mut acc = Complex::ZERO;
            for (j, &t) in template.iter().enumerate() {
                acc += signal[p + j] * t.conj();
            }
            out.push(acc);
        }
        (out, self.stats(phases.len()))
    }

    /// Correlates the contiguous phase range `0..n_phases`, the access
    /// pattern of a serial acquisition sweep, through the factored
    /// correlator ([`PreambleCorrelator::correlate_into`]).
    ///
    /// The hardware accounting is that of [`CorrelatorBank::run`] over
    /// `(0..n_phases).collect()`: the stats model the *hardware* correlator
    /// bank (dwells, clocks, MACs), which is independent of how this
    /// software model evaluates the outputs.
    pub fn run_prefix(&self, signal: &[Complex], n_phases: usize) -> (Vec<Complex>, CorrelatorStats) {
        let mut out = vec![Complex::ZERO; n_phases];
        self.correlator
            .correlate_into(signal, &mut out, &mut DspScratch::new());
        (out, self.stats(n_phases))
    }

    /// Hardware cost of evaluating `phases` candidate phases: one dwell of
    /// one template length per `parallelism` phases, 4 real MACs per
    /// complex × conj(complex) sample product.
    pub fn stats(&self, phases: usize) -> CorrelatorStats {
        let m = self.template_len() as u64;
        CorrelatorStats {
            phases_evaluated: phases,
            clock_cycles: phases.div_ceil(self.parallelism) as u64 * m,
            mac_ops: phases as u64 * m * 4,
        }
    }

    /// Time in microseconds the search takes on hardware clocked at
    /// `clock_hz`, given the stats of a run.
    pub fn search_time_us(stats: &CorrelatorStats, clock_hz: f64) -> f64 {
        stats.clock_cycles as f64 / clock_hz * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uwb_sim::Rand;

    fn template(n: usize) -> Vec<Complex> {
        (0..n).map(|i| Complex::new((0.2 * i as f64).cos(), 0.0)).collect()
    }

    /// Largest output deviation relative to the largest oracle output.
    fn rel_dev(got: &[Complex], want: &[Complex]) -> f64 {
        assert_eq!(got.len(), want.len());
        let scale = want.iter().map(|z| z.norm()).fold(f64::MIN_POSITIVE, f64::max);
        got.iter().zip(want).map(|(a, b)| (*a - *b).norm()).fold(0.0, f64::max) / scale
    }

    #[test]
    fn outputs_match_direct_correlation() {
        let tpl = template(16);
        let mut sig = vec![Complex::ZERO; 100];
        for (i, &t) in tpl.iter().enumerate() {
            sig[40 + i] = t;
        }
        let bank = CorrelatorBank::new(tpl.clone(), 4);
        let (out, _) = bank.run_prefix(&sig, 85);
        let direct = uwb_dsp::correlation::cross_correlate(&sig, &tpl);
        assert_eq!(out.len(), direct.len());
        for (a, b) in out.iter().zip(&direct) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn peak_found_at_embedded_phase() {
        let tpl = template(32);
        let mut sig = vec![Complex::ZERO; 300];
        for (i, &t) in tpl.iter().enumerate() {
            sig[123 + i] = t;
        }
        let bank = CorrelatorBank::new(tpl, 8);
        let (out, _) = bank.run_prefix(&sig, 269);
        let mags: Vec<f64> = out.iter().map(|z| z.norm()).collect();
        assert_eq!(uwb_dsp::math::argmax(&mags), Some(123));
    }

    #[test]
    fn clock_cycles_scale_inversely_with_parallelism() {
        let tpl = template(64);
        let sig = vec![Complex::ONE; 1000];
        let phases: Vec<usize> = (0..512).collect();
        let serial = CorrelatorBank::new(tpl.clone(), 1);
        let parallel = CorrelatorBank::new(tpl, 32);
        let (_, s1) = serial.run(&sig, &phases);
        let (_, s32) = parallel.run(&sig, &phases);
        assert_eq!(s1.clock_cycles, 512 * 64);
        assert_eq!(s32.clock_cycles, 16 * 64);
        assert_eq!(s1.clock_cycles / s32.clock_cycles, 32);
        // Total MAC work is the same — parallel hardware, same energy.
        assert_eq!(s1.mac_ops, s32.mac_ops);
    }

    #[test]
    fn spread_template_is_the_transmitted_preamble() {
        let tx = crate::Gen2Transmitter::new(crate::Gen2Config::nominal_100mbps()).unwrap();
        let cfg = tx.config();
        let chips = crate::pn::msequence_chips(cfg.preamble_degree);
        let corr = PreambleCorrelator::spread(&chips, cfg.samples_per_slot(), tx.pulse());
        assert_eq!(corr.template(), &tx.preamble_template()[..]);
        assert_eq!(corr.energy(), PreambleCorrelator::from(tx.preamble_template()).energy());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random ±1 chips, spacing 1–16, real pulses of 1–24 taps and
        /// complex records: the factored prefix sweep equals the direct
        /// form to 1e-12 of the peak, past-the-end phases are exactly
        /// zero, and the hardware accounting is the direct form's.
        #[test]
        fn factored_sweep_matches_direct_form(seed in any::<u64>()) {
            let mut rng = Rand::new(seed);
            let n_chips = 1 + rng.below(40);
            let spacing = 1 + rng.below(16);
            let taps = 1 + rng.below(24);
            let chips: Vec<f64> = (0..n_chips).map(|_| if rng.bit() { 1.0 } else { -1.0 }).collect();
            let pulse: Vec<f64> = (0..taps).map(|_| rng.gaussian()).collect();
            let corr = PreambleCorrelator::spread(&chips, spacing, &pulse);
            let m = corr.template().len();
            let sig: Vec<Complex> = (0..m + rng.below(200))
                .map(|_| Complex::new(rng.gaussian(), rng.gaussian()))
                .collect();
            // Up to 100 phases past the last in-range lag.
            let n_phases = 1 + rng.below(sig.len() - m + 100);
            let bank = CorrelatorBank::new(corr, 1 + rng.below(64));
            let (fast, s_fast) = bank.run_prefix(&sig, n_phases);
            let (direct, s_direct) = bank.run(&sig, &(0..n_phases).collect::<Vec<_>>());
            prop_assert_eq!(s_fast, s_direct);
            prop_assert!(rel_dev(&fast, &direct) <= 1e-12, "dev {}", rel_dev(&fast, &direct));
            for z in &fast[(sig.len() + 1 - m).min(n_phases)..] {
                prop_assert_eq!(*z, Complex::ZERO);
            }
        }

        /// The degenerate factoring (one chip, the template as pulse) of
        /// an arbitrary real template is the same linear correlation.
        #[test]
        fn dense_template_matches_direct_form(seed in any::<u64>()) {
            let mut rng = Rand::new(seed);
            let m = 1 + rng.below(150);
            let tpl: Vec<Complex> = (0..m).map(|_| Complex::new(rng.gaussian(), 0.0)).collect();
            let sig: Vec<Complex> = (0..m + rng.below(300))
                .map(|_| Complex::new(rng.gaussian(), rng.gaussian()))
                .collect();
            let n_phases = 1 + rng.below(sig.len() - m + 40);
            let bank = CorrelatorBank::new(tpl, 8);
            let (fast, s_fast) = bank.run_prefix(&sig, n_phases);
            let (direct, s_direct) = bank.run(&sig, &(0..n_phases).collect::<Vec<_>>());
            prop_assert_eq!(s_fast, s_direct);
            prop_assert!(rel_dev(&fast, &direct) <= 1e-12, "dev {}", rel_dev(&fast, &direct));
        }
    }

    #[test]
    fn run_prefix_handles_short_signal() {
        // n_phases extends past the valid range: tail phases must be zero.
        let tpl = template(64);
        let sig = vec![Complex::ONE; 600];
        let bank = CorrelatorBank::new(tpl, 4);
        let (out, stats) = bank.run_prefix(&sig, 600); // valid lags: 0..=536
        assert_eq!(out.len(), 600);
        assert_eq!(stats.phases_evaluated, 600);
        assert!(out[536].norm() > 0.0);
        for z in &out[537..] {
            assert_eq!(*z, Complex::ZERO);
        }
        // A record shorter than the template has no in-range lag at all.
        let mut out = vec![Complex::ONE; 8];
        let lags = bank.correlator().correlate_into(&sig[..63], &mut out, &mut DspScratch::new());
        assert_eq!(lags, 0);
        assert!(out.iter().all(|z| *z == Complex::ZERO));
    }

    #[test]
    fn out_of_range_phase_yields_zero() {
        let tpl = template(10);
        let sig = vec![Complex::ONE; 12];
        let bank = CorrelatorBank::new(tpl, 1);
        let (out, _) = bank.run(&sig, &[0, 2, 5]);
        assert!(out[0].norm() > 0.0);
        assert!(out[1].norm() > 0.0);
        assert_eq!(out[2], Complex::ZERO); // 5 + 10 > 12
    }

    #[test]
    fn search_time_formula() {
        let stats = CorrelatorStats {
            phases_evaluated: 1000,
            clock_cycles: 500_000,
            mac_ops: 0,
        };
        // 500k cycles at 500 MHz = 1000 us.
        let t = CorrelatorBank::search_time_us(&stats, 500e6);
        assert!((t - 1000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_template_panics() {
        CorrelatorBank::new(Vec::new(), 4);
    }

    #[test]
    #[should_panic(expected = "real")]
    fn complex_template_panics() {
        CorrelatorBank::new(vec![Complex::I], 1);
    }

    #[test]
    #[should_panic(expected = "±1")]
    fn non_binary_chip_panics() {
        PreambleCorrelator::spread(&[1.0, 0.5], 2, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "parallelism")]
    fn zero_parallelism_panics() {
        CorrelatorBank::new(template(4), 0);
    }
}
