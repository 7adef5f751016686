//! Reproduction harness for the evaluation of the DATE'08 HEM paper.
//!
//! The [`paper_system`] module encodes the system of the paper's Fig. 2
//! with the parameters of Tables 1–3 and provides the entry points that
//! regenerate every table and figure:
//!
//! * [`paper_system::table3`] — worst-case response times under flat vs.
//!   hierarchical analysis (Table 3),
//! * [`paper_system::figure4`] — the `η⁺` staircases of frame F1's output
//!   stream and the unpacked signal streams activating T1–T3 (Figure 4),
//! * [`paper_system::simulation`] — a behavioural simulation of the same
//!   system for validating that all analytic bounds are conservative.
//!
//! Binaries in `src/bin/` print the tables and figure series;
//! `profile_analysis` measures analysis runtime. Sweeps over many
//! scenarios can fan out over threads with
//! [`hem_system::parallel::parallel_map`] (order-deterministic;
//! `HEM_THREADS` selects the width).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod incremental;
pub mod obs;
pub mod paper_system;
pub mod scenarios;
pub mod serving;
