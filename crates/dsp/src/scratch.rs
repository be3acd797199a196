//! Reusable scratch-buffer arena for allocation-free steady-state DSP.
//!
//! The per-trial signal chain (channel apply → AWGN → matched filter →
//! correlator bank → channel estimation → RAKE) used to allocate a fresh
//! `Vec` for every intermediate. [`DspScratch`] is a small pool of complex
//! and real buffers that callers *take* for the duration of a kernel and
//! *put* back when done. After a few warm-up calls the pooled capacities
//! converge to the scenario's working-set sizes and every subsequent
//! `take_*` is allocation-free — the Monte-Carlo engine gives each worker
//! thread one `DspScratch` inside its per-worker state, so steady-state
//! trials perform **zero heap allocation** in the DSP path.
//!
//! Buffers returned by `take_*` are zero-filled and sized exactly to the
//! request, so kernels can treat them like `vec![0; n]`.
//!
//! # Examples
//!
//! ```
//! use uwb_dsp::scratch::DspScratch;
//! use uwb_dsp::Complex;
//!
//! let mut scratch = DspScratch::new();
//! let mut buf = scratch.take_complex(64);
//! assert_eq!(buf.len(), 64);
//! assert!(buf.iter().all(|z| *z == Complex::ZERO));
//! buf[0] = Complex::ONE;
//! scratch.put_complex(buf);
//! // The second take reuses the first buffer's storage (no allocation) and
//! // hands it back zeroed.
//! let again = scratch.take_complex(64);
//! assert_eq!(again[0], Complex::ZERO);
//! ```

use crate::complex::Complex;

/// A pool of reusable complex / real buffers (see the module docs).
#[derive(Debug, Default)]
pub struct DspScratch {
    complex: Vec<Vec<Complex>>,
    real: Vec<Vec<f64>>,
}

/// Pops the pooled buffer with the largest capacity so capacities converge
/// to the high-water mark instead of thrashing between sizes.
fn pop_largest<T>(pool: &mut Vec<Vec<T>>) -> Option<Vec<T>> {
    if pool.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, b) in pool.iter().enumerate() {
        if b.capacity() > pool[best].capacity() {
            best = i;
        }
    }
    Some(pool.swap_remove(best))
}

impl DspScratch {
    /// An empty pool. Buffers are created lazily on first use.
    pub fn new() -> Self {
        DspScratch::default()
    }

    /// Takes a zero-filled complex buffer of exactly `len` elements.
    /// Allocation-free once a pooled buffer with sufficient capacity exists.
    pub fn take_complex(&mut self, len: usize) -> Vec<Complex> {
        let mut buf = pop_largest(&mut self.complex).unwrap_or_default();
        buf.clear();
        buf.resize(len, Complex::ZERO);
        buf
    }

    /// Returns a complex buffer to the pool for reuse.
    pub fn put_complex(&mut self, buf: Vec<Complex>) {
        self.complex.push(buf);
    }

    /// Takes a zero-filled real buffer of exactly `len` elements.
    pub fn take_real(&mut self, len: usize) -> Vec<f64> {
        let mut buf = pop_largest(&mut self.real).unwrap_or_default();
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a real buffer to the pool for reuse.
    pub fn put_real(&mut self, buf: Vec<f64>) {
        self.real.push(buf);
    }

    /// Number of buffers currently parked in the pool (diagnostics).
    pub fn pooled(&self) -> usize {
        self.complex.len() + self.real.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_and_sized() {
        let mut s = DspScratch::new();
        let b = s.take_complex(17);
        assert_eq!(b.len(), 17);
        assert!(b.iter().all(|z| *z == Complex::ZERO));
        let r = s.take_real(5);
        assert_eq!(r.len(), 5);
        assert!(r.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn storage_is_reused() {
        let mut s = DspScratch::new();
        let b = s.take_complex(100);
        let ptr = b.as_ptr();
        s.put_complex(b);
        // Smaller request must reuse the same storage, not allocate.
        let b2 = s.take_complex(10);
        assert_eq!(b2.as_ptr(), ptr);
        assert!(b2.capacity() >= 100);
    }

    #[test]
    fn largest_capacity_preferred() {
        let mut s = DspScratch::new();
        s.put_complex(Vec::with_capacity(8));
        s.put_complex(Vec::with_capacity(256));
        s.put_complex(Vec::with_capacity(32));
        let b = s.take_complex(4);
        assert!(b.capacity() >= 256);
        assert_eq!(s.pooled(), 2);
    }

    #[test]
    fn capacities_converge_across_calls() {
        // Simulates a steady-state trial loop: after the first iteration no
        // reallocation happens (capacity high-water mark is retained).
        let mut s = DspScratch::new();
        for _ in 0..3 {
            let a = s.take_complex(64);
            let b = s.take_complex(32);
            s.put_complex(a);
            s.put_complex(b);
        }
        let a = s.take_complex(64);
        let b = s.take_complex(32);
        assert!(a.capacity() >= 64);
        assert!(b.capacity() >= 32);
    }
}
