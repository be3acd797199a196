//! # uwb-obs — zero-overhead telemetry for the UWB reproduction
//!
//! The paper's receiver must *adapt* (power/QoS/data-rate, interferer
//! monitoring) based on what the pipeline observes at runtime, and more than
//! half of the system's power sits in the digital back end — so knowing
//! *where* per-trial time goes and *why* a packet failed is part of the
//! architecture, not an afterthought. This crate provides the measurement
//! substrate used by every other crate in the workspace:
//!
//! * **stage timers** — [`span!`] / [`StageTimer`]: RAII nanosecond
//!   accumulators with preallocated per-thread slots (zero heap allocation
//!   on the warm path);
//! * **events** — [`event!`]: deterministic per-thread counts of rare
//!   happenings (acquisition miss, CRC failure, notch retune), also left as
//!   breadcrumbs on the flight recorder's in-flight trial;
//! * **histograms** — [`hist!`]: fixed-bin log2 histograms of deterministic
//!   per-trial quantities (bit errors per trial, acquisition offsets). A
//!   histogram doubles as an exact **work counter**: its `count` is the
//!   number of calls and its `sum` the total work (e.g. `acq_lags`,
//!   `chanest_chip_adds` — correlator lags and chip-stage adds);
//! * **percentile digests** — [`digest!`]: fixed log-linear (HDR-style)
//!   histograms with deterministic p50/p95/p99/max extraction
//!   ([`telemetry::DigestStat::quantile`]), surfaced as the `"quantiles"`
//!   array of the `uwb-telemetry-v2` report;
//! * **span timelines** — [`trace`] (opt-in `obs-trace` feature): the same
//!   [`span!`] guards additionally fill per-thread rings of
//!   `{stage, trial, start_ns, dur_ns}` records, exportable as Chrome Trace
//!   Event JSON for Perfetto;
//! * **flight recorder** — [`recorder`]: a bounded deterministic ring of the
//!   K worst trials with forensic snapshots (trial seed for replay, [`note!`]
//!   values, event breadcrumbs), thread-count-invariant by construction;
//! * **snapshots** — [`Telemetry`]: a mergeable, JSON-renderable snapshot of
//!   a thread's stage/event/histogram state, drained per Monte-Carlo chunk
//!   and merged in deterministic chunk order by `uwb_sim::montecarlo`.
//!   Every quantity a run measures lives here: there is no process-wide
//!   side channel, so a run's `RunStats::telemetry` holds exactly that
//!   run's counts.
//!
//! ## The `obs` feature
//!
//! With the `obs` feature **off** (the default for bare library consumers),
//! every macro and collection function compiles to a no-op: [`StageTimer`]
//! is a zero-sized type, [`event!`]/[`hist!`]/[`digest!`]/[`note!`] expand
//! to dead borrows the optimizer deletes, and [`take_thread_telemetry`]
//! returns an empty [`Telemetry`]. The umbrella `uwb` crate and the
//! experiment binaries enable the feature by default. The `obs-trace`
//! feature (off by default, implies `obs`) additionally turns on span
//! timelines; without it [`trace::enabled`] is `false` and span recording
//! costs nothing.
//!
//! ## Histogram bin edges
//!
//! [`hist!`] bins by **significant bits**: bin 0 holds the value 0 and bin
//! `k` (1 ≤ k ≤ 62) holds `2^(k-1) ≤ v < 2^k` — so bin 1 is exactly {1},
//! bin 2 is {2, 3}, bin 3 is {4..=7}, and so on. The top bin (63) is
//! **saturating**: it holds every value with 63 *or more* significant bits,
//! i.e. the closed range `[2^62, u64::MAX]` — `u64::MAX` and every
//! near-boundary value land there deterministically rather than wrapping or
//! panicking. [`digest!`] refines the same idea with 16 linear sub-buckets
//! per power-of-two decade ([`telemetry::DIGEST_BINS`] bins total), which
//! bounds the relative quantile error at 6.25%; its top bin's inclusive
//! upper edge saturates at `u64::MAX`.
//!
//! ## Determinism contract
//!
//! Stage *call counts*, *event counts*, and *histogram bins* depend only on
//! the executed trials, so — drained per chunk and merged in chunk order —
//! they are bit-identical for any `UWB_THREADS`. Stage *nanosecond totals*
//! are wall-clock measurements and are explicitly excluded from that
//! contract; [`Telemetry::to_json_deterministic`] and
//! [`Telemetry::fingerprint`] omit them.
//!
//! ## Example
//!
//! ```
//! fn work() {
//!     let _t = uwb_obs::span!("demo_stage");
//!     uwb_obs::hist!("demo_values", 37u64);
//!     uwb_obs::event!("demo_event");
//! }
//! work();
//! let snap = uwb_obs::take_thread_telemetry();
//! if uwb_obs::enabled() {
//!     assert_eq!(snap.stages[0].name, "demo_stage");
//!     assert_eq!(snap.stages[0].calls, 1);
//! } else {
//!     assert!(snap.is_empty());
//! }
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod recorder;
pub mod telemetry;
pub mod trace;

mod collect;
mod registry;

pub use collect::{current_trial, set_trial, take_thread_telemetry, StageTimer};
#[doc(hidden)]
pub use collect::{record_digest, record_event, record_hist};
pub use registry::{
    register_digest, register_event, register_hist, register_note, register_stage, DigestId,
    EventId, HistId, NoteId, StageId, MAX_DIGESTS, MAX_EVENTS, MAX_HISTS, MAX_NOTES, MAX_STAGES,
};
pub use telemetry::{
    DigestStat, EventStat, HistStat, StageStat, Telemetry, DIGEST_BINS, HIST_BINS,
};

/// `true` when this build collects telemetry (the `obs` feature is on).
pub const fn enabled() -> bool {
    cfg!(feature = "obs")
}

// ---------------------------------------------------------------------------
// Macros — real collectors with `obs`, dead no-ops without.
// ---------------------------------------------------------------------------

/// Starts an RAII stage timer: nanoseconds between this call and the guard's
/// drop are accumulated into the named stage's preallocated per-thread slot.
///
/// ```
/// let _t = uwb_obs::span!("rake");
/// // ... stage body ...
/// ```
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __UWB_OBS_STAGE: ::std::sync::OnceLock<$crate::StageId> =
            ::std::sync::OnceLock::new();
        $crate::StageTimer::start(*__UWB_OBS_STAGE.get_or_init(|| $crate::register_stage($name)))
    }};
}

/// No-op form (`obs` feature off): a zero-sized guard.
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        let _ = &$name;
        $crate::StageTimer::start($crate::StageId::NONE)
    }};
}

/// Records one occurrence of a named rare event (optionally with a `u64`
/// payload): bumps the deterministic per-thread count and appends a
/// breadcrumb to the flight recorder's in-flight trial.
///
/// ```
/// uwb_obs::event!("acq_miss");
/// uwb_obs::event!("notch_retune", 150_000_000u64);
/// ```
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::event!($name, 0u64)
    };
    ($name:expr, $value:expr) => {{
        static __UWB_OBS_EVENT: ::std::sync::OnceLock<$crate::EventId> =
            ::std::sync::OnceLock::new();
        let __id = *__UWB_OBS_EVENT.get_or_init(|| $crate::register_event($name));
        $crate::record_event(__id, $value);
    }};
}

/// No-op form (`obs` feature off).
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! event {
    ($name:expr) => {{
        let _ = &$name;
    }};
    ($name:expr, $value:expr) => {{
        let _ = (&$name, &$value);
    }};
}

/// Records a `u64` sample into the named fixed-bin log2 histogram
/// (bin 0 holds zeros; bin *k* holds values with *k* significant bits).
/// The histogram's `count` and exact `sum` make it a work counter too.
///
/// ```
/// uwb_obs::hist!("trial_bit_errors", 3u64);
/// uwb_obs::hist!("acq_lags", 1_278u64); // one call, 1,278 lags of work
/// ```
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! hist {
    ($name:expr, $value:expr) => {{
        static __UWB_OBS_HIST: ::std::sync::OnceLock<$crate::HistId> =
            ::std::sync::OnceLock::new();
        let __id = *__UWB_OBS_HIST.get_or_init(|| $crate::register_hist($name));
        $crate::record_hist(__id, $value);
    }};
}

/// No-op form (`obs` feature off).
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! hist {
    ($name:expr, $value:expr) => {{
        let _ = (&$name, &$value);
    }};
}

/// Records a `u64` sample into the named percentile digest: a fixed
/// log-linear (HDR-style) histogram with deterministic p50/p95/p99/max
/// extraction, rendered in the telemetry report's `"quantiles"` array.
///
/// ```
/// uwb_obs::digest!("trial_bit_errors", 3u64);
/// ```
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! digest {
    ($name:expr, $value:expr) => {{
        static __UWB_OBS_DIGEST: ::std::sync::OnceLock<$crate::DigestId> =
            ::std::sync::OnceLock::new();
        let __id = *__UWB_OBS_DIGEST.get_or_init(|| $crate::register_digest($name));
        $crate::record_digest(__id, $value);
    }};
}

/// No-op form (`obs` feature off).
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! digest {
    ($name:expr, $value:expr) => {{
        let _ = (&$name, &$value);
    }};
}

/// Writes a named forensic note onto the flight recorder's in-flight trial
/// (latest value per name wins; ignored outside `recorder::begin_trial` /
/// `recorder::observe`). Signed quantities should be stored two's-complement
/// (`as u64`) and are rendered back as `i64`.
///
/// ```
/// uwb_obs::note!("snr_milli_db", (-3500i64) as u64);
/// ```
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! note {
    ($name:expr, $value:expr) => {{
        static __UWB_OBS_NOTE: ::std::sync::OnceLock<$crate::NoteId> =
            ::std::sync::OnceLock::new();
        let __id = *__UWB_OBS_NOTE.get_or_init(|| $crate::register_note($name));
        $crate::recorder::record_note(__id, $value);
    }};
}

/// No-op form (`obs` feature off).
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! note {
    ($name:expr, $value:expr) => {{
        let _ = (&$name, &$value);
    }};
}
