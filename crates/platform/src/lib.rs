//! # uwb-platform — the discrete-prototype platform, in software
//!
//! The paper's discrete prototype exists to test "the algorithms implemented
//! in the digital back end under realistic conditions" and to compare
//! "different modulation schemes" within a 500 MHz bandwidth. This crate is
//! that platform's software substitute:
//!
//! * [`link`] — end-to-end gen2 link runner over multipath / noise /
//!   interference with calibrated Eb/N0
//! * [`waveform`] — arbitrary waveform generation + slot-level modulation
//!   BER studies
//! * [`metrics`] — BER/PER counters, Wilson confidence intervals, and the
//!   closed-form AWGN reference curves
//! * [`mask`] — FCC −41.3 dBm/MHz spectral-mask compliance checking
//! * [`report`] — ASCII tables, log strip charts, and oscillograms for the
//!   experiment binaries
//!
//! # Example: one BER point
//!
//! ```
//! use uwb_platform::link::{
//!     run_ber_fast_streamed_tuned, LinkScenario, TrialBudget, DEFAULT_STREAM_BLOCK,
//! };
//! use uwb_phy::Gen2Config;
//!
//! let scenario = LinkScenario::awgn(Gen2Config::nominal_100mbps(), 10.0, 42);
//! // 16-byte payloads until 5 bit errors or 20 000 bits; default batch
//! // width and thread count.
//! let counter = run_ber_fast_streamed_tuned(
//!     &scenario,
//!     16,
//!     DEFAULT_STREAM_BLOCK,
//!     5,
//!     20_000,
//!     TrialBudget::default(),
//!     None,
//!     None,
//! );
//! assert!(counter.rate() < 1e-2);
//! ```

#![warn(missing_docs)]

pub mod link;
pub mod mask;
pub mod metrics;
pub mod report;
pub mod waveform;

pub use link::{
    run_ber_budgeted, run_ber_fast_streamed_tuned, BerRun, CleanSynthesis, LinkOutcome, LinkRun,
    LinkScenario, LinkStopReason, LinkWorker, TrialBudget, DEFAULT_STREAM_BLOCK,
};
pub use mask::{check_mask, fcc_indoor_mask, MaskReport, MaskSegment};
pub use metrics::ErrorCounter;
pub use report::Table;
pub use waveform::{modulation_ber, ArbitraryWaveformGenerator};
