//! Local (per-resource) scheduling analyses for Compositional Performance
//! Analysis.
//!
//! CPA analyses each resource of a distributed system in isolation using
//! classic busy-window response-time analysis (Lehoczky's technique, as
//! used by Richter's framework — paper §2). This crate provides the two
//! local analyses of the DATE'08 HEM paper's evaluation:
//!
//! * [`spp`] — static-priority **preemptive** scheduling (the CPU in the
//!   paper's Table 3),
//! * [`spnp`] — static-priority **non-preemptive** scheduling (the CAN
//!   bus arbitration in Table 2),
//!
//! plus the EDF demand-bound test ([`dbf`]), the cheap [`necessary`]
//! tests that design-space exploration prunes with, [`utilization`]
//! bounds and priority [`assignment`].
//!
//! Each analysis consumes [`AnalysisTask`]s — a worst/best-case execution
//! time interval, a priority, and an activating event model — and
//! produces [`TaskResult`]s with the response-time interval `[r⁻, r⁺]`
//! that the output-stream operation `Θ_τ` needs.
//!
//! # Examples
//!
//! ```
//! use hem_analysis::{spp, AnalysisConfig, AnalysisTask, Priority};
//! use hem_event_models::{EventModelExt, StandardEventModel};
//! use hem_time::Time;
//!
//! let tasks = vec![
//!     AnalysisTask::new("hi", Time::new(24), Time::new(24), Priority::new(1),
//!         StandardEventModel::periodic(Time::new(250))?.shared()),
//!     AnalysisTask::new("lo", Time::new(40), Time::new(40), Priority::new(2),
//!         StandardEventModel::periodic(Time::new(400))?.shared()),
//! ];
//! let results = spp::analyze(&tasks, &AnalysisConfig::default())?;
//! assert_eq!(results[0].response.r_plus, Time::new(24));  // no interference
//! assert_eq!(results[1].response.r_plus, Time::new(64));  // one preemption
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
mod busy_window;
mod config;
pub mod dbf;
mod error;
pub mod necessary;
pub mod spnp;
pub mod spp;
mod task;
pub mod utilization;

pub use busy_window::{fixed_point, BUDGET_POLL_INTERVAL};
pub use config::{AnalysisBudget, AnalysisConfig};
pub use error::AnalysisError;
pub use task::{AnalysisTask, Priority, ResponseTime, TaskResult};
