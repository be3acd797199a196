//! Streaming block abstraction for the sample-rate signal chain.
//!
//! The paper's receiver is a continuously running direct-conversion chain:
//! samples flow through AGC/ADC into a parallelized digital back end that
//! acquires, tracks and decodes packets on the fly (§1, §3). Batch
//! processing of one whole-record `Vec<Complex>` per trial makes peak
//! memory and first-decode latency scale with record length; this module is
//! the substrate that removes that coupling.
//!
//! A [`BlockProcessor`] is a *stateful, length-preserving, in-place*
//! operator on contiguous blocks of equivalent-baseband samples. Operators
//! that are intrinsically tail-extending (e.g. channel convolution with an
//! L-tap impulse response produces `n + L - 1` output samples for `n`
//! inputs) keep the pending tail in internal carried state and emit it on
//! [`BlockProcessor::flush_into`]. This keeps the hot path free of length
//! negotiation: every stage reads and writes the same `&mut [Complex]`.
//!
//! # The chunk-size invariance contract
//!
//! The defining property of a correct streaming operator is that the
//! *partition of the record into blocks is unobservable*: feeding one
//! whole-record block, or blocks of 64, or any random split, must produce
//! **bit-identical** output once the per-block outputs are concatenated
//! (plus the flushed tail). Operators therefore must not let block length
//! influence arithmetic — summation orders are fixed per output sample, and
//! any history needed across a boundary is carried in state rather than
//! recomputed from a window whose size depends on the split. The
//! [`assert_chunk_invariant`] helper enforces this in tests, and the
//! repo-level `tests/stream_parity.rs` gate proptests it end-to-end.
//!

use crate::complex::Complex;
use crate::scratch::DspScratch;

/// A stateful, in-place operator over contiguous sample blocks.
///
/// Implementations must satisfy the chunk-size invariance contract (module
/// docs): any partition of a record into blocks yields bit-identical
/// concatenated output. State carried across calls (filter history, channel
/// tails, oscillator phase) belongs to the processor; per-call workspace
/// comes from the caller's [`DspScratch`] so warm steady-state processing
/// allocates nothing.
pub trait BlockProcessor {
    /// Processes one block of samples in place.
    fn process_block(&mut self, block: &mut [Complex], scratch: &mut DspScratch);

    /// Appends any pending tail samples (beyond the input length) to `out`.
    ///
    /// Length-preserving operators keep the default no-op. Tail-extending
    /// operators (convolution) emit the carried `L - 1` tail here and reset
    /// it. After `flush_into` the processor is ready for a fresh record.
    fn flush_into(&mut self, _out: &mut Vec<Complex>, _scratch: &mut DspScratch) {}

    /// Resets all carried state, as if freshly constructed. Retains
    /// internal buffer capacities so a reset-and-rerun stays allocation
    /// free.
    fn reset(&mut self);
}

/// Runs `proc` over `record` split into `block_len`-sized blocks (the final
/// block may be shorter), then flushes, appending the tail to `record`.
///
/// This is the reference way to apply a streaming operator to a finite
/// record; with `block_len >= record.len()` it degenerates to one batch
/// call. Used heavily by the parity gates.
pub fn process_record(
    proc: &mut dyn BlockProcessor,
    record: &mut Vec<Complex>,
    block_len: usize,
    scratch: &mut DspScratch,
) {
    let block_len = block_len.max(1);
    let mut start = 0;
    while start < record.len() {
        let end = (start + block_len).min(record.len());
        proc.process_block(&mut record[start..end], scratch);
        start = end;
    }
    let mut tail = scratch.take_complex(0);
    proc.flush_into(&mut tail, scratch);
    record.extend_from_slice(&tail);
    scratch.put_complex(tail);
}

/// Asserts that processing `input` through fresh copies of a processor with
/// each of the given block lengths yields bit-identical output (including
/// the flushed tail). `make` must return an identically-seeded processor
/// each call.
///
/// Panics with the offending block length and sample index on mismatch —
/// the unit-level form of the chunk-size invariance contract.
pub fn assert_chunk_invariant<P, F>(input: &[Complex], block_lens: &[usize], mut make: F)
where
    P: BlockProcessor,
    F: FnMut() -> P,
{
    let mut scratch = DspScratch::new();
    let mut reference = input.to_vec();
    let mut proc = make();
    process_record(&mut proc, &mut reference, input.len().max(1), &mut scratch);
    for &bl in block_lens {
        let mut streamed = input.to_vec();
        let mut proc = make();
        process_record(&mut proc, &mut streamed, bl, &mut scratch);
        assert_eq!(
            streamed.len(),
            reference.len(),
            "block_len {bl}: streamed length {} != reference {}",
            streamed.len(),
            reference.len()
        );
        for (i, (s, r)) in streamed.iter().zip(reference.iter()).enumerate() {
            assert!(
                s.re.to_bits() == r.re.to_bits() && s.im.to_bits() == r.im.to_bits(),
                "block_len {bl}: sample {i} differs: streamed {s:?} != reference {r:?}"
            );
        }
    }
}

/// Accumulates `gain * src` into `dst` over the overlapping prefix
/// (`min(dst.len(), src.len())` samples), leaving any `dst` tail untouched.
///
/// This is the primitive of the multi-source block mixer: a receiver's
/// input record is its own signal plus scaled foreign records. The
/// per-sample operation is a single fused `dst += gain * src` with a fixed
/// source order chosen by the caller, so mixing whole records or mixing the
/// same records block-by-block produces **bit-identical** results (the
/// summation order per output sample never depends on the partition).
pub fn accumulate_scaled(dst: &mut [Complex], src: &[Complex], gain: f64) {
    let n = dst.len().min(src.len());
    for (d, s) in dst[..n].iter_mut().zip(&src[..n]) {
        d.re += gain * s.re;
        d.im += gain * s.im;
    }
}

/// [`accumulate_scaled`] with a sample offset: `src[i]` lands on
/// `dst[i + offset]` (negative offsets shift `src` earlier, so only its
/// tail overlaps `dst`'s head). Out-of-range samples on either side are
/// clipped; `dst` samples outside the overlap are untouched.
///
/// This is the mixing primitive for *asynchronous* transmissions: the MAC
/// layer's carrier-sense simulator starts packets on sense-slot boundaries,
/// so a victim's record overlaps an interferer's record at an arbitrary
/// relative sample offset rather than sample 0. The per-sample operation
/// and summation-order guarantees are identical to [`accumulate_scaled`]
/// (which this equals at `offset == 0`).
pub fn accumulate_scaled_offset(dst: &mut [Complex], src: &[Complex], offset: isize, gain: f64) {
    let (d0, s0) = if offset >= 0 {
        (offset as usize, 0usize)
    } else {
        (0usize, offset.unsigned_abs())
    };
    if d0 >= dst.len() || s0 >= src.len() {
        return;
    }
    let n = (dst.len() - d0).min(src.len() - s0);
    for (d, s) in dst[d0..d0 + n].iter_mut().zip(&src[s0..s0 + n]) {
        d.re += gain * s.re;
        d.im += gain * s.im;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(i as f64 * 0.25, -(i as f64) * 0.125))
            .collect()
    }

    #[test]
    fn accumulate_scaled_overlapping_prefix() {
        let mut dst = ramp(6);
        let src = ramp(4);
        let before = dst.clone();
        accumulate_scaled(&mut dst, &src, 0.5);
        for i in 0..4 {
            assert_eq!(dst[i].re, before[i].re + 0.5 * src[i].re);
            assert_eq!(dst[i].im, before[i].im + 0.5 * src[i].im);
        }
        // Tail beyond the source untouched.
        assert_eq!(dst[4], before[4]);
        assert_eq!(dst[5], before[5]);
    }

    #[test]
    fn accumulate_scaled_offset_clips_both_sides() {
        let src = ramp(4);

        // Zero offset degenerates to accumulate_scaled.
        let mut dst = ramp(6);
        let mut reference = ramp(6);
        accumulate_scaled_offset(&mut dst, &src, 0, 0.5);
        accumulate_scaled(&mut reference, &src, 0.5);
        assert_eq!(dst, reference);

        // Positive offset: src[0] lands on dst[2]; dst head untouched.
        let mut dst = ramp(6);
        let before = dst.clone();
        accumulate_scaled_offset(&mut dst, &src, 2, 1.0);
        assert_eq!(dst[0], before[0]);
        assert_eq!(dst[1], before[1]);
        for i in 0..4 {
            assert_eq!(dst[2 + i].re, before[2 + i].re + src[i].re);
        }

        // Negative offset: only src's tail overlaps dst's head.
        let mut dst = ramp(6);
        let before = dst.clone();
        accumulate_scaled_offset(&mut dst, &src, -3, 1.0);
        assert_eq!(dst[0].re, before[0].re + src[3].re);
        for i in 1..6 {
            assert_eq!(dst[i], before[i]);
        }

        // Fully out of range either way: no-op.
        let mut dst = ramp(4);
        let before = dst.clone();
        accumulate_scaled_offset(&mut dst, &src, 10, 1.0);
        accumulate_scaled_offset(&mut dst, &src, -10, 1.0);
        assert_eq!(dst, before);
    }

    #[test]
    fn mixing_is_block_partition_invariant() {
        // Mixing the whole record at once vs. mixing block-by-block must be
        // bit-identical: per-sample summation order is source order either
        // way.
        let own = ramp(64);
        let a = ramp(64);
        let b = ramp(64);
        let mut whole = own.clone();
        accumulate_scaled(&mut whole, &a, 0.3);
        accumulate_scaled(&mut whole, &b, 0.7);

        let mut blocked = own.clone();
        for start in (0..64).step_by(7) {
            let end = (start + 7).min(64);
            accumulate_scaled(&mut blocked[start..end], &a[start..end], 0.3);
            accumulate_scaled(&mut blocked[start..end], &b[start..end], 0.7);
        }
        for (w, bl) in whole.iter().zip(blocked.iter()) {
            assert_eq!(w.re.to_bits(), bl.re.to_bits());
            assert_eq!(w.im.to_bits(), bl.im.to_bits());
        }
    }

    /// A stateless doubling stage: the minimal [`BlockProcessor`].
    struct Double;

    impl BlockProcessor for Double {
        fn process_block(&mut self, block: &mut [Complex], _scratch: &mut DspScratch) {
            for z in block.iter_mut() {
                *z *= Complex::new(2.0, 0.0);
            }
        }

        fn reset(&mut self) {}
    }

    #[test]
    fn process_record_zero_block_len_is_clamped() {
        let input = ramp(5);
        let mut proc = Double;
        let mut scratch = DspScratch::new();
        let mut rec = input.clone();
        process_record(&mut proc, &mut rec, 0, &mut scratch);
        for (r, i) in rec.iter().zip(input.iter()) {
            assert_eq!(*r, *i * Complex::new(2.0, 0.0));
        }
    }
}
