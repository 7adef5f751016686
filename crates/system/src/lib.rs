//! Compositional system-level analysis.
//!
//! Couples the local analyses ([`hem_analysis`]) via event streams, as in
//! the SymTA/S methodology the paper builds on (§1): in each *global
//! iteration*, every resource is analysed locally, output event models
//! are derived from the computed response times, and the updated models
//! are propagated to the connected components; the process repeats until
//! the response times reach a fixed point.
//!
//! The system description ([`SystemSpec`]) covers the paper's setting:
//!
//! * **CPUs** scheduled SPP, running [`TaskSpec`]s,
//! * **CAN buses** carrying [`FrameSpec`]s (COM frames packed from
//!   signals),
//! * activation wiring ([`ActivationSpec`]): external sources, task
//!   outputs, and — the paper's contribution — *signals unpacked from
//!   frames*.
//!
//! The [`AnalysisMode`] switch selects how frame-borne activations are
//! modeled and is exactly the paper's Table 3 comparison:
//!
//! * [`AnalysisMode::Flat`] — the baseline: a task activated by a signal
//!   of frame `F` is activated by **every** arrival of `F` (the flat
//!   output stream of the frame; all inner timing is lost),
//! * [`AnalysisMode::Hierarchical`] — the frame is a
//!   [`HierarchicalEventModel`](hem_core::HierarchicalEventModel); after
//!   the bus analysis the inner update function is applied and the
//!   receiving task sees only *its* unpacked signal stream.
//!
//! # Examples
//!
//! See [`examples`](https://docs.rs) in the repository root — the
//! `paper_system` example reproduces the paper's Fig. 2 system end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagnostics;
pub mod dsl;
mod engine;
mod error;
pub mod explore;
mod graph;
pub mod parallel;
pub mod path;
pub mod report;
mod result;
pub mod sensitivity;
mod spec;
pub mod warm;

pub use diagnostics::{ConvergenceStatus, Diagnostics, StopReason};
pub use engine::{analyze, analyze_robust, RobustAnalysis};
pub use error::SystemError;
pub use explore::{
    explore, CandidateConfig, CandidateReport, ExploreOutcome, ExploreProblem, Objective, Packing,
    PackingSpace, PeriodChoice, PeriodSite, PrioritySpace, Verdict,
};
pub use result::{SystemConfig, SystemResults};
pub use spec::{
    ActivationSpec, AnalysisMode, BusSpec, CpuSpec, FrameSpec, SignalSpec, SystemSpec, TaskSpec,
};
pub use warm::{analyze_incremental, FallbackReason, IncrementalOutcome, ReuseReport, WarmStart};
