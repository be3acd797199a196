//! Streaming (block-based) forms of the channel/impairment models.
//!
//! The batch path synthesizes one whole-record `Vec<Complex>` per trial;
//! these operators implement [`uwb_dsp::stream::BlockProcessor`] so the
//! TX→RX chain can run at a fixed block size with memory independent of
//! record length (paper §1/§3: the receiver is a continuously running
//! chain, not a batch processor).
//!
//! All three operators are *chunk-size invariant* (see
//! `uwb_dsp::stream`): any partition of the record into blocks yields
//! bit-identical concatenated output, because every per-output-sample
//! summation order is fixed and all cross-boundary history (channel tail,
//! oscillator phase, RNG position) is carried in state.
//!
//! Parity with the batch path:
//!
//! * [`StreamingChannel`] on a **single-tap** channel (AWGN scenarios) is
//!   bit-identical to [`ChannelRealization::apply_into`]. Multi-tap
//!   channels use a direct-form convolution whose per-sample sums are
//!   ordered by tap index; the batch path uses FFT convolution, so the two
//!   agree to numerical precision (≲1e-12 relative) but not bitwise — the
//!   chunk-invariance gates therefore compare streamed-vs-streamed and
//!   assert equality of *decisions* vs batch. A block whose input window
//!   is real (the transmitted burst) runs a register-blocked real-excitation
//!   kernel at half the arithmetic; signed-zero algebra makes it
//!   bit-identical to the complex per-output loop (see [`StreamingChannel`]).
//! * [`StreamingAwgn`] seeded with the RNG state at the point the batch
//!   path would call `add_awgn_complex_in_place` is bit-identical to it.
//! * [`StreamingInterferer`] for CW and swept kinds draws only the initial
//!   phase and is bit-identical to [`Interferer::add_to_in_place`]; the
//!   modulated kind forks its symbol RNG (documented deviation — the batch
//!   path interleaves symbol draws with nothing else, but a stream of
//!   unknown length cannot leave the shared RNG in a record-independent
//!   state).

use crate::interference::{Interferer, InterfererKind};
use crate::rng::Rand;
use crate::sv_channel::ChannelRealization;
use crate::time::SampleRate;
use uwb_dsp::stream::BlockProcessor;
use uwb_dsp::{Complex, DspScratch, Nco};

/// Outputs per register block of the real-excitation kernel: 32 re + 32 im
/// accumulators, which fit the vector register file of AVX2/AVX-512
/// targets so each tap sweep is pure load-multiply-add over registers.
const REAL_BLOCK: usize = 32;

/// Stateful direct-form channel convolver: carries the multipath tail
/// across block boundaries and emits it on flush.
///
/// For an `L`-tap discretized impulse response the carried state is the
/// last `L-1` input samples — the peak footprint is O(block + channel
/// tail), independent of record length. Output sample `y[n]` is
/// `Σ_{k=0..L} h[k]·x[n-k]` accumulated from `+0` in ascending `k`, so the
/// block partition never changes the arithmetic.
///
/// Two kernels compute that sum, chosen per block by the input alone:
///
/// * **Real excitation** — when the window `[history | block]` has an
///   all-zero imaginary rail (the transmitted burst, whose synthesis writes
///   `.re` only), the real rail is copied out and the outputs are
///   accumulated in register blocks of 32, tap by tap in ascending `k`:
///   `re += h.re·x`, `im += h.im·x` — 2 multiplies and 2 adds per tap
///   instead of the complex form's 4 + 4, and vectorizable across outputs.
/// * **Complex excitation** — the general per-output loop
///   `acc += h[k]·x[n-k]`.
///
/// The two are bit-identical for finite taps (every
/// [`ChannelRealization`] is finite). The complex form's extra terms
/// `h.im·x.im` and `h.re·x.im` are signed zeros when `x.im = ±0`, and
/// subtracting or adding a signed zero leaves a non-zero product
/// unchanged, so each complex term equals the real kernel's term or is a
/// zero. Under IEEE round-to-nearest a sum started at `+0` never becomes
/// `-0` (`+0 + -0 = +0`, and an exact cancellation rounds to `+0`), and
/// adding `±0` to it never changes it; so zero terms of either sign are
/// invisible and both kernels add the same non-zero terms in the same
/// order. The same argument lets [`flush_into`](BlockProcessor::flush_into)
/// run the tail as the response to `L-1` trailing zeros: the terms with a
/// zero input drop out, leaving exactly the sum over the carried history.
#[derive(Debug, Clone)]
pub struct StreamingChannel {
    /// Discretized impulse response.
    h: Vec<Complex>,
    /// Last `h.len()-1` input samples, oldest first.
    history: Vec<Complex>,
}

impl Default for StreamingChannel {
    /// The identity convolver of [`StreamingChannel::new`].
    fn default() -> Self {
        StreamingChannel::new()
    }
}

impl StreamingChannel {
    /// An unconfigured (identity, zero-tap-history) convolver.
    pub fn new() -> Self {
        StreamingChannel {
            h: vec![Complex::ONE],
            history: Vec::new(),
        }
    }

    /// Builds a convolver for one channel realization at sample rate `fs`.
    pub fn from_realization(ch: &ChannelRealization, fs: SampleRate) -> Self {
        let mut s = StreamingChannel::new();
        s.configure(ch, fs);
        s
    }

    /// Re-discretizes `ch` into this convolver, reusing storage and
    /// clearing the carried history (allocation-free once capacities have
    /// reached their high-water marks). The per-trial entry point.
    pub fn configure(&mut self, ch: &ChannelRealization, fs: SampleRate) {
        ch.discretize_into(fs, &mut self.h);
        self.history.clear();
        self.history.resize(self.h.len() - 1, Complex::ZERO);
    }

    /// Length of the carried tail (`L-1` for an `L`-tap response) — the
    /// number of samples `flush_into` will emit.
    pub fn tail_len(&self) -> usize {
        self.history.len()
    }

    /// Shifts the block's input samples into the carried history, keeping
    /// the newest `L-1` of `[history | block]`.
    fn push_history(&mut self, block: &[Complex]) {
        let (m, n) = (self.history.len(), block.len());
        if n >= m {
            self.history.copy_from_slice(&block[n - m..]);
        } else {
            self.history.copy_within(n.., 0);
            self.history[m - n..].copy_from_slice(block);
        }
    }
}

/// Real-excitation kernel: `out[j] = Σ_k h[k]·x[L-1+j-k]` over the real
/// rail `x = [history | block]`, zero-padded to a whole number of register
/// blocks (the padding only feeds outputs past `out.len()`, which are
/// discarded).
fn convolve_real(h: &[Complex], x: &[f64], out: &mut [Complex]) {
    let l = h.len();
    for (c, out) in out.chunks_mut(REAL_BLOCK).enumerate() {
        let base = l - 1 + c * REAL_BLOCK;
        let mut re = [0.0f64; REAL_BLOCK];
        let mut im = [0.0f64; REAL_BLOCK];
        for (k, hk) in h.iter().enumerate() {
            let xs = &x[base - k..][..REAL_BLOCK];
            for ((r, i), &xt) in re.iter_mut().zip(im.iter_mut()).zip(xs) {
                *r += hk.re * xt;
                *i += hk.im * xt;
            }
        }
        for (z, (&r, &i)) in out.iter_mut().zip(re.iter().zip(&im)) {
            *z = Complex::new(r, i);
        }
    }
}

impl BlockProcessor for StreamingChannel {
    fn process_block(&mut self, block: &mut [Complex], scratch: &mut DspScratch) {
        let l = self.h.len();
        if l == 1 {
            // Single-tap channel: plain scaling, bit-identical to the batch
            // `apply_into` fast path (`z * g`, no accumulator —
            // `MulAssign` expands to exactly `*z = *z * g`).
            let g = self.h[0];
            for z in block.iter_mut() {
                *z *= g;
            }
            return;
        }
        let n = block.len();
        let real = self.history.iter().chain(block.iter()).all(|z| z.im == 0.0);
        if real {
            let mut x = scratch.take_real(l - 1 + n.next_multiple_of(REAL_BLOCK));
            for (xi, z) in x.iter_mut().zip(self.history.iter().chain(block.iter())) {
                *xi = z.re;
            }
            self.push_history(block);
            convolve_real(&self.h, &x, block);
            scratch.put_real(x);
            return;
        }
        // ext = [history | block input]: every x[n-k] an output needs.
        let mut ext = scratch.take_complex(l - 1 + n);
        ext[..l - 1].copy_from_slice(&self.history);
        ext[l - 1..].copy_from_slice(block);
        self.push_history(block);
        for (j, out) in block.iter_mut().enumerate() {
            let mut acc = Complex::ZERO;
            // Fixed ascending-k order: the partition of the record into
            // blocks can never reorder this sum.
            for (k, &hk) in self.h.iter().enumerate() {
                acc += hk * ext[l - 1 + j - k];
            }
            *out = acc;
        }
        scratch.put_complex(ext);
    }

    fn flush_into(&mut self, out: &mut Vec<Complex>, scratch: &mut DspScratch) {
        // The tail y[N+t], t in 0..L-1, is the response to L-1 trailing
        // zero inputs; it also leaves the history zeroed.
        let start = out.len();
        out.resize(start + self.tail_len(), Complex::ZERO);
        self.process_block(&mut out[start..], scratch);
    }

    fn reset(&mut self) {
        for z in self.history.iter_mut() {
            *z = Complex::ZERO;
        }
    }
}

/// Streaming AWGN source: adds circularly-symmetric complex noise of total
/// power `noise_power`, drawing I then Q per sample in record order from an
/// owned RNG.
///
/// Seeded with the RNG state the batch path would hold when calling
/// [`crate::awgn::add_awgn_complex_in_place`], the streamed record is
/// bit-identical to the batch record for any block partition.
#[derive(Debug, Clone)]
pub struct StreamingAwgn {
    sigma: f64,
    rng: Rand,
    initial: Rand,
}

impl StreamingAwgn {
    /// A noise source of total power `noise_power`, consuming `rng` as its
    /// private draw stream. Negative `noise_power` is a caller bug: panics
    /// in debug builds, clamps to zero in release builds.
    pub fn new(noise_power: f64, rng: Rand) -> Self {
        debug_assert!(
            noise_power >= 0.0,
            "negative noise_power ({noise_power}): a mis-signed SNR runs noiseless"
        );
        StreamingAwgn {
            sigma: (noise_power.max(0.0) / 2.0).sqrt(),
            initial: rng.clone(),
            rng,
        }
    }

    /// Re-arms the source for a new record: new noise power, new RNG state.
    /// Negative `noise_power` is a caller bug: panics in debug builds,
    /// clamps to zero in release builds.
    pub fn configure(&mut self, noise_power: f64, rng: Rand) {
        debug_assert!(
            noise_power >= 0.0,
            "negative noise_power ({noise_power}): a mis-signed SNR runs noiseless"
        );
        self.sigma = (noise_power.max(0.0) / 2.0).sqrt();
        self.initial = rng.clone();
        self.rng = rng;
    }
}

impl BlockProcessor for StreamingAwgn {
    fn process_block(&mut self, block: &mut [Complex], _scratch: &mut DspScratch) {
        // Same block stream, I then Q in ascending sample order, as
        // `add_awgn_complex_in_place`; the carry buffer inside the RNG makes
        // the block partition unobservable (chunk-size invariance).
        let mut buf = [0.0f64; 256];
        for chunk in block.chunks_mut(128) {
            self.rng.fill_gaussian(&mut buf[..2 * chunk.len()]);
            for (z, g) in chunk.iter_mut().zip(buf.chunks_exact(2)) {
                *z += Complex::new(self.sigma * g[0], self.sigma * g[1]);
            }
        }
    }

    fn reset(&mut self) {
        self.rng = self.initial.clone();
    }
}

/// Carried state of a [`StreamingInterferer`], per interferer kind.
#[derive(Debug, Clone)]
enum InterfererState {
    /// CW tone: phase-continuous oscillator.
    Cw { nco: Nco },
    /// BPSK-modulated tone: oscillator + symbol clock + private symbol RNG.
    /// The RNGs are boxed: `Rand` carries its block-Gaussian carry buffer
    /// inline (~2.5 KB), which would otherwise balloon every variant of this
    /// enum. Both boxes are allocated at construction; `reset` refills the
    /// existing allocation via `clone_from`.
    Modulated {
        nco: Nco,
        sps: usize,
        idx: usize,
        symbol: f64,
        rng: Box<Rand>,
        initial_rng: Box<Rand>,
    },
    /// Swept tone: explicit phase recurrence with the absolute sample index.
    Swept {
        offset_hz: f64,
        sweep_hz_per_s: f64,
        dt: f64,
        phase: f64,
        idx: usize,
    },
}

/// Streaming narrowband interferer: adds the tone to each block with all
/// oscillator/symbol state carried across boundaries.
///
/// Construction draws the starting phase from the caller's RNG — the same
/// single draw, at the same position, as [`Interferer::add_to_in_place`] —
/// so CW and swept kinds are bit-identical to the batch path. The
/// modulated kind additionally forks `rng` for its per-symbol draws (see
/// module docs).
#[derive(Debug, Clone)]
pub struct StreamingInterferer {
    amp: f64,
    offset_hz: f64,
    fs_hz: f64,
    phase0: f64,
    state: InterfererState,
}

impl StreamingInterferer {
    /// Builds the streaming form of `intf` at sample rate `fs_hz`, drawing
    /// the starting phase (and, for the modulated kind, a forked symbol
    /// stream) from `rng`.
    pub fn new(intf: &Interferer, fs_hz: f64, rng: &mut Rand) -> Self {
        let phase0 = rng.uniform_in(0.0, std::f64::consts::TAU);
        let state = match &intf.kind {
            InterfererKind::ContinuousWave => InterfererState::Cw {
                nco: Nco::with_phase(intf.offset_hz, fs_hz, phase0),
            },
            InterfererKind::Modulated { symbol_rate_hz } => {
                let symbol_rng = rng.fork(0x7354_5245_414d); // "STREAM"
                InterfererState::Modulated {
                    nco: Nco::with_phase(intf.offset_hz, fs_hz, phase0),
                    sps: (fs_hz / symbol_rate_hz).max(1.0) as usize,
                    idx: 0,
                    symbol: 1.0,
                    initial_rng: Box::new(symbol_rng.clone()),
                    rng: Box::new(symbol_rng),
                }
            }
            InterfererKind::Swept { sweep_hz_per_s } => InterfererState::Swept {
                offset_hz: intf.offset_hz,
                sweep_hz_per_s: *sweep_hz_per_s,
                dt: 1.0 / fs_hz,
                phase: phase0,
                idx: 0,
            },
        };
        StreamingInterferer {
            amp: intf.power.sqrt(),
            offset_hz: intf.offset_hz,
            fs_hz,
            phase0,
            state,
        }
    }
}

impl BlockProcessor for StreamingInterferer {
    fn process_block(&mut self, block: &mut [Complex], _scratch: &mut DspScratch) {
        let amp = self.amp;
        match &mut self.state {
            InterfererState::Cw { nco } => {
                for z in block.iter_mut() {
                    *z += nco.next_complex() * amp;
                }
            }
            InterfererState::Modulated {
                nco,
                sps,
                idx,
                symbol,
                rng,
                ..
            } => {
                for z in block.iter_mut() {
                    if *idx % *sps == 0 {
                        *symbol = if rng.bit() { 1.0 } else { -1.0 };
                    }
                    *z += nco.next_complex() * (amp * *symbol);
                    *idx += 1;
                }
            }
            InterfererState::Swept {
                offset_hz,
                sweep_hz_per_s,
                dt,
                phase,
                idx,
            } => {
                // Same recurrence as the batch path, with the absolute
                // sample index carried across blocks.
                for z in block.iter_mut() {
                    let f = *offset_hz + *sweep_hz_per_s * (*idx as f64 * *dt);
                    *phase += std::f64::consts::TAU * f * *dt;
                    *z += Complex::from_polar(amp, *phase);
                    *idx += 1;
                }
            }
        }
    }

    fn reset(&mut self) {
        match &mut self.state {
            InterfererState::Cw { nco } => {
                *nco = Nco::with_phase(self.offset_hz, self.fs_hz, self.phase0);
            }
            InterfererState::Modulated {
                nco,
                idx,
                symbol,
                rng,
                initial_rng,
                ..
            } => {
                *nco = Nco::with_phase(self.offset_hz, self.fs_hz, self.phase0);
                *idx = 0;
                *symbol = 1.0;
                // clone_from reuses the box's existing allocation, keeping
                // reset allocation-free on the warm path.
                rng.clone_from(initial_rng);
            }
            InterfererState::Swept { phase, idx, .. } => {
                *phase = self.phase0;
                *idx = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::awgn::add_awgn_complex_in_place;
    use crate::sv_channel::ChannelModel;
    use uwb_dsp::stream::{assert_chunk_invariant, process_record};

    fn test_signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((0.11 * i as f64).sin(), (0.07 * i as f64).cos()))
            .collect()
    }

    #[test]
    fn channel_single_tap_matches_batch_bitwise() {
        let ch = ChannelRealization::identity();
        let fs = SampleRate::from_gsps(1.0);
        let sig = test_signal(500);
        let mut scratch = DspScratch::new();
        let mut batch = Vec::new();
        ch.apply_into(&sig, fs, &mut scratch, &mut batch);

        let mut streamed = sig.clone();
        let mut conv = StreamingChannel::from_realization(&ch, fs);
        process_record(&mut conv, &mut streamed, 64, &mut scratch);
        assert_eq!(streamed, batch);
    }

    #[test]
    fn channel_multipath_is_chunk_invariant_and_near_batch() {
        let mut rng = Rand::new(77);
        let ch = ChannelRealization::generate(ChannelModel::Cm2, &mut rng);
        let fs = SampleRate::from_gsps(1.0);
        let sig = test_signal(700);

        assert_chunk_invariant(&sig, &[1, 13, 64, 255, 700, 2000], || {
            StreamingChannel::from_realization(&ch, fs)
        });

        // Against the FFT batch path: equal to numerical precision.
        let batch = ch.apply(&sig, fs);
        let mut streamed = sig.clone();
        let mut scratch = DspScratch::new();
        let mut conv = StreamingChannel::from_realization(&ch, fs);
        process_record(&mut conv, &mut streamed, 128, &mut scratch);
        assert_eq!(streamed.len(), batch.len());
        let scale: f64 = batch.iter().map(|z| z.norm()).fold(1e-9, f64::max);
        for (i, (s, b)) in streamed.iter().zip(&batch).enumerate() {
            assert!(
                (*s - *b).norm() <= 1e-9 * scale,
                "sample {i}: {s:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn channel_tail_footprint_is_record_length_independent() {
        let mut rng = Rand::new(5);
        let ch = ChannelRealization::generate(ChannelModel::Cm3, &mut rng);
        let fs = SampleRate::from_gsps(1.0);
        let mut conv = StreamingChannel::from_realization(&ch, fs);
        let tail = conv.tail_len();
        let mut scratch = DspScratch::new();
        for len in [100usize, 10_000] {
            let mut rec = test_signal(len);
            process_record(&mut conv, &mut rec, 256, &mut scratch);
            assert_eq!(conv.tail_len(), tail, "tail grew with record length");
            conv.configure(&ch, fs);
        }
    }

    /// The convolver's arithmetic before the real-excitation kernel, over a
    /// whole record: one complex accumulator per output in ascending `k`
    /// over `[L-1 zeros | x]`, then a tail that skips the zero inputs past
    /// the record end.
    fn reference_convolution(h: &[Complex], x: &[Complex]) -> Vec<Complex> {
        let (l, n) = (h.len(), x.len());
        let mut ext = vec![Complex::ZERO; l - 1];
        ext.extend_from_slice(x);
        let mut y: Vec<Complex> = (0..n)
            .map(|j| {
                let mut acc = Complex::ZERO;
                for (k, &hk) in h.iter().enumerate() {
                    acc += hk * ext[l - 1 + j - k];
                }
                acc
            })
            .collect();
        for t in 0..l - 1 {
            let mut acc = Complex::ZERO;
            for k in (t + 1)..l {
                acc += h[k] * ext[l - 1 + n + t - k];
            }
            y.push(acc);
        }
        y
    }

    /// Streams `x` through a convolver over `h` in blocks of the given
    /// lengths (cycled), then flushes the tail.
    fn stream_convolution(h: &[Complex], x: &[Complex], blocks: &[usize]) -> Vec<Complex> {
        let mut conv = StreamingChannel {
            h: h.to_vec(),
            history: vec![Complex::ZERO; h.len() - 1],
        };
        let mut scratch = DspScratch::new();
        let mut rec = x.to_vec();
        let mut start = 0;
        for &bl in blocks.iter().cycle() {
            if start >= rec.len() {
                break;
            }
            let end = (start + bl.max(1)).min(rec.len());
            conv.process_block(&mut rec[start..end], &mut scratch);
            start = end;
        }
        conv.flush_into(&mut rec, &mut scratch);
        rec
    }

    /// Bit patterns, so `+0` vs `-0` (and NaN payloads) count as different.
    fn bits(v: &[Complex]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// One adversarial value: ordinary, signed zero, subnormal or tiny.
    fn adversarial(rng: &mut Rand) -> f64 {
        match rng.below(6) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(1 + rng.below(1 << 20) as u64) * rng.uniform_in(-1.0, 1.0).signum(),
            3 => rng.uniform_in(-1e-160, 1e-160),
            _ => rng.gaussian(),
        }
    }

    /// A random tap set with zero, signed-zero and subnormal entries.
    fn adversarial_taps(rng: &mut Rand, l: usize) -> Vec<Complex> {
        (0..l)
            .map(|_| match rng.below(4) {
                0 => Complex::ZERO,
                1 => Complex::new(-0.0, -0.0),
                _ => Complex::new(adversarial(rng), adversarial(rng)),
            })
            .collect()
    }

    /// A real record whose imaginary rail mixes `+0` and `-0`.
    fn adversarial_real_record(rng: &mut Rand, n: usize) -> Vec<Complex> {
        (0..n)
            .map(|_| Complex::new(adversarial(rng), if rng.bit() { 0.0 } else { -0.0 }))
            .collect()
    }

    #[test]
    fn real_kernel_matches_reference_on_adversarial_values() {
        let mut rng = Rand::new(0x5eed);
        for case in 0..40 {
            let l = 2 + rng.below(130);
            let n = 1 + rng.below(400);
            let h = adversarial_taps(&mut rng, l);
            let x = adversarial_real_record(&mut rng, n);
            let want = bits(&reference_convolution(&h, &x));
            for blocks in [vec![n], vec![1], vec![31, 32, 33], vec![7, 64, 3]] {
                let got = stream_convolution(&h, &x, &blocks);
                assert_eq!(bits(&got), want, "case {case}: L={l} N={n} blocks {blocks:?}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random taps, real records and block partitions: streamed output,
        /// flush tail included, equals the reference loop bit for bit.
        #[test]
        fn real_kernel_matches_reference_for_any_partition(seed in proptest::prelude::any::<u64>()) {
            let mut rng = Rand::new(seed);
            let l = 2 + rng.below(100);
            let n = 1 + rng.below(300);
            let h = adversarial_taps(&mut rng, l);
            let x = adversarial_real_record(&mut rng, n);
            let blocks: Vec<usize> = (0..1 + rng.below(5)).map(|_| 1 + rng.below(80)).collect();
            proptest::prop_assert_eq!(
                bits(&stream_convolution(&h, &x, &blocks)),
                bits(&reference_convolution(&h, &x))
            );
        }
    }

    #[test]
    fn kernel_switches_between_real_and_complex_blocks_bitwise() {
        // Real, then complex, then real again: the history carries complex
        // samples into later real blocks, so some windows take each path.
        let mut rng = Rand::new(11);
        let h = adversarial_taps(&mut rng, 40);
        let mut x = adversarial_real_record(&mut rng, 300);
        for z in &mut x[100..120] {
            z.im = rng.gaussian();
        }
        let want = bits(&reference_convolution(&h, &x));
        for blocks in [vec![50], vec![13], vec![100, 20, 180]] {
            assert_eq!(bits(&stream_convolution(&h, &x, &blocks)), want, "{blocks:?}");
        }
    }

    #[test]
    fn default_convolver_is_the_identity() {
        let mut conv = StreamingChannel::default();
        assert_eq!(conv.tail_len(), 0);
        let mut scratch = DspScratch::new();
        let mut rec = test_signal(64);
        conv.process_block(&mut rec, &mut scratch);
        assert_eq!(rec, test_signal(64));
        conv.flush_into(&mut rec, &mut scratch);
        assert_eq!(rec.len(), 64, "identity has no tail");
    }

    #[test]
    fn awgn_matches_batch_bitwise() {
        let sig = test_signal(333);
        let p = 0.7;
        let mut batch = sig.clone();
        add_awgn_complex_in_place(&mut batch, p, &mut Rand::new(42));

        for bl in [1usize, 10, 64, 333, 500] {
            let mut streamed = sig.clone();
            let mut src = StreamingAwgn::new(p, Rand::new(42));
            let mut scratch = DspScratch::new();
            process_record(&mut src, &mut streamed, bl, &mut scratch);
            assert_eq!(streamed, batch, "block {bl}");
        }
    }

    #[test]
    fn awgn_reset_replays_stream() {
        let mut src = StreamingAwgn::new(0.5, Rand::new(9));
        let mut scratch = DspScratch::new();
        let mut a = test_signal(50);
        src.process_block(&mut a, &mut scratch);
        src.reset();
        let mut b = test_signal(50);
        src.process_block(&mut b, &mut scratch);
        assert_eq!(a, b);
    }

    #[test]
    fn cw_and_swept_interferer_match_batch_bitwise() {
        let sig = test_signal(400);
        for kind in [
            InterfererKind::ContinuousWave,
            InterfererKind::Swept {
                sweep_hz_per_s: 2e14,
            },
        ] {
            let intf = Interferer {
                offset_hz: 120e6,
                power: 3.0,
                kind,
            };
            let mut batch = sig.clone();
            intf.add_to_in_place(&mut batch, 1e9, &mut Rand::new(13));

            for bl in [7usize, 100, 400] {
                let mut rng = Rand::new(13);
                let mut src = StreamingInterferer::new(&intf, 1e9, &mut rng);
                let mut streamed = sig.clone();
                let mut scratch = DspScratch::new();
                process_record(&mut src, &mut streamed, bl, &mut scratch);
                assert_eq!(streamed, batch, "block {bl}");
            }
        }
    }

    #[test]
    fn modulated_interferer_is_chunk_invariant() {
        let intf = Interferer {
            offset_hz: -80e6,
            power: 1.5,
            kind: InterfererKind::Modulated {
                symbol_rate_hz: 20e6,
            },
        };
        let sig = test_signal(350);
        assert_chunk_invariant(&sig, &[1, 17, 50, 350, 999], || {
            StreamingInterferer::new(&intf, 1e9, &mut Rand::new(21))
        });
        // And its power is calibrated like the batch form.
        let mut rng = Rand::new(3);
        let mut src = StreamingInterferer::new(&intf, 1e9, &mut rng);
        let mut buf = vec![Complex::ZERO; 20_000];
        let mut scratch = DspScratch::new();
        src.process_block(&mut buf, &mut scratch);
        let p = uwb_dsp::complex::mean_power(&buf);
        assert!((p - 1.5).abs() / 1.5 < 0.02, "{p}");
    }

    #[test]
    fn interferer_reset_replays() {
        let intf = Interferer {
            offset_hz: 60e6,
            power: 2.0,
            kind: InterfererKind::Modulated {
                symbol_rate_hz: 25e6,
            },
        };
        let mut rng = Rand::new(8);
        let mut src = StreamingInterferer::new(&intf, 1e9, &mut rng);
        let mut scratch = DspScratch::new();
        let mut a = test_signal(90);
        src.process_block(&mut a, &mut scratch);
        src.reset();
        let mut b = test_signal(90);
        src.process_block(&mut b, &mut scratch);
        assert_eq!(a, b);
    }
}
