//! The host's current speed, measured with fixed reference kernels.
//!
//! The development box is a shared machine whose speed drifts by up to
//! ±30 % over minutes, in phases that hit floating-point and memory-bound
//! code much harder than integer code. Captures interleaving two reference
//! kernels with each workload's operations showed the 10 s window rates of
//! the operations following the kernels' (correlation 0.86–0.94), so the
//! end-to-end metrics are scaled by the kernels' speed sampled next to
//! every operation. Scaling by the geometric mean of a cache-resident
//! complex FIR and a 32 MiB read-modify-write stream cut the window-to-
//! window interquartile spread from 13–19 % to 5–8 % on the CM3, ring and
//! city workloads; the FIR alone left the memory-bound city at 13 %.
//!
//! The kernels are the benchmark's own code, identical on every commit, so
//! a change to the library cannot move them.

use std::sync::Mutex;
use std::time::Instant;

/// Output samples of the reference filter.
const FIR_N: usize = 2_000;
/// Taps of the reference filter.
const FIR_TAPS: usize = 64;
/// Filter passes per timed call.
const FIR_PASSES: usize = 10;
/// `f64` elements of each thread's stream buffer (32 MiB, far above the
/// development box's 2 MiB of L2 per core).
const STREAM_LEN: usize = 4 << 20;
/// Timed calls of each kernel per thread; the median is kept.
const CALLS: usize = 3;
/// Each kernel's time per call at speed 1.0: its typical time on the
/// development box, rounded.
const NOMINAL_FIR_S: f64 = 1.5e-3;
const NOMINAL_STREAM_S: f64 = 5.0e-3;

/// Stream buffers, kept across samples so each sample streams warm pages
/// instead of faulting fresh ones in.
static STREAM_BUFFERS: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());

/// One timed call of the complex FIR over a fixed synthetic signal.
fn fir_call() -> f64 {
    let x: Vec<(f64, f64)> = (0..FIR_N + FIR_TAPS)
        .map(|i| ((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect();
    let h: Vec<(f64, f64)> = (0..FIR_TAPS)
        .map(|k| (1.0 / (k as f64 + 1.0), 0.5 / (k as f64 + 2.0)))
        .collect();
    let mut y = vec![(0.0, 0.0); FIR_N];
    let x = std::hint::black_box(x);
    let h = std::hint::black_box(h);
    let t0 = Instant::now();
    for _ in 0..FIR_PASSES {
        for (j, out) in y.iter_mut().enumerate() {
            let mut acc = (0.0, 0.0);
            for (k, &(hr, hi)) in h.iter().enumerate() {
                let (xr, xi) = x[j + FIR_TAPS - k];
                acc.0 += xr * hr - xi * hi;
                acc.1 += xr * hi + xi * hr;
            }
            *out = acc;
        }
        std::hint::black_box(&mut y);
    }
    t0.elapsed().as_secs_f64()
}

/// One timed read-modify-write pass over `buf`.
fn stream_call(buf: &mut [f64]) -> f64 {
    let t0 = Instant::now();
    for x in buf.iter_mut() {
        *x = *x * 0.5 + 1.0;
    }
    std::hint::black_box(buf);
    t0.elapsed().as_secs_f64()
}

fn median(mut t: Vec<f64>) -> f64 {
    t.sort_by(f64::total_cmp);
    t[t.len() / 2]
}

/// One thread's speed: the geometric mean of both kernels' speeds.
fn thread_speed() -> f64 {
    let taken = STREAM_BUFFERS.lock().expect("stream buffer pool").pop();
    let mut buf = taken.unwrap_or_else(|| vec![1.0; STREAM_LEN]);
    let fir = median((0..CALLS).map(|_| fir_call()).collect());
    let stream = median((0..CALLS).map(|_| stream_call(&mut buf)).collect());
    STREAM_BUFFERS.lock().expect("stream buffer pool").push(buf);
    (NOMINAL_FIR_S / fir * NOMINAL_STREAM_S / stream).sqrt()
}

/// The host's speed relative to nominal (> 1 is faster), with the kernels
/// running on `threads` threads at once so every core the operations use
/// is sampled.
pub fn reference_speed(threads: usize) -> f64 {
    let speeds: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads.max(1)).map(|_| s.spawn(thread_speed)).collect();
        let mut speeds = vec![thread_speed()];
        speeds.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("reference kernel thread")),
        );
        speeds
    });
    speeds.iter().sum::<f64>() / speeds.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_positive_and_finite() {
        let s = reference_speed(2);
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
