//! # uwb-net — deterministic multi-user piconet simulation
//!
//! The paper's direct-conversion pulsed UWB transceiver lives on a
//! 14-channel × 528 MHz band plan precisely so that multiple piconets can
//! operate concurrently. This crate simulates that situation: N
//! transmitter→receiver links on a floor plan, each running the full gen2
//! streaming signal chain, with every receiver decoding its packet out of
//! the superposition of
//!
//! * its **own** clean waveform,
//! * every **co-channel / adjacent-channel** foreign waveform, scaled by
//!   the geometry (near–far path-loss difference) and the front end's
//!   finite adjacent-channel selectivity, and
//! * its calibrated receiver noise.
//!
//! ## Determinism contracts
//!
//! 1. **Thread invariance** — one measurement *round* (all links transmit
//!    once) is one Monte-Carlo trial on [`uwb_sim::montecarlo`]'s
//!    ordered-merge engine: per-link error counters are bit-identical for
//!    any `UWB_THREADS`.
//! 2. **Isolation parity** — a link whose channel is beyond the front
//!    end's selectivity floor from every other link is **bit-identical**
//!    to the same link run alone through
//!    [`uwb_platform::link::run_ber_fast_streamed_tuned`].
//! 3. **Zero warm-path allocation** — all per-round buffers live in
//!    [`runner::NetWorker`] and are reused.
//!
//! ## Layers
//!
//! * [`scenario`] — [`NetScenario`]: topology, channel policy, impairments
//! * [`coupling`] — the spatial × spectral coupling model
//! * [`controller`] — serial planning phase: probing, channel allocation
//!   (static / round-robin / interference-aware), closed-loop adaptation;
//!   frozen into a [`NetPlan`]
//! * [`runner`] — parallel measurement phase on the Monte-Carlo engine
//! * [`report`] — per-link BER/PER/goodput + aggregate throughput
//!
//! # Example: an 8-user piconet
//!
//! ```
//! use uwb_net::{run_network, NetScenario};
//!
//! let mut scenario = NetScenario::ring(8, 9.0, 42);
//! scenario.rounds = 2;
//! let report = run_network(&scenario);
//! assert_eq!(report.len(), 8);
//! assert!(report.aggregate_throughput_bps > 0.0);
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod controller;
pub mod coupling;
pub mod pool;
pub mod report;
pub mod runner;
pub mod scenario;

pub use arena::{RecordArena, RecordSchedule};
pub use controller::{link_seed, plan_network, NetLinkPlan, NetPlan};
pub use coupling::{
    build_coupling, build_coupling_sparse, coupling_db, sense_sets, CouplingParams, CouplingRow,
};
pub use pool::WorkerPool;
pub use report::{LinkReport, NetReport};
pub use runner::{
    run_network, run_plan, run_plan_threads, LinkRoundStats, NetAccumulator, NetWorker,
};
pub use scenario::{ChannelPolicy, NetScenario};
