//! Discrete-event simulation of COM-layer / CAN / CPU systems.
//!
//! The analyses in [`hem_analysis`] and [`hem_system`] compute *bounds*;
//! this crate executes concrete runs of the same systems so tests and
//! experiments can check that every observed response time and event
//! distance stays within the analytic bounds (the validation experiments
//! Ext-D in `DESIGN.md`).
//!
//! The simulator mirrors the paper's system structure layer by layer:
//!
//! * [`trace`] — admissible activation traces for the standard event
//!   models (periodic, jittered, sporadic),
//! * [`com`] — the AUTOSAR COM layer: registers with overwrite semantics,
//!   triggering/pending transfer properties, periodic/direct/mixed frame
//!   transmission (paper §4),
//! * [`canbus`] — non-preemptive priority arbitration of queued frames,
//! * [`cpu`] — preemptive static-priority CPU scheduling,
//! * [`network`] — the end-to-end harness chaining all layers over any
//!   feed-forward network of buses and CPUs (the paper's one-bus,
//!   one-CPU system included) and reporting observed response times,
//!   latencies and delivery traces,
//! * [`from_spec`] — derives a [`network::NetSystem`] from a
//!   [`hem_system::SystemSpec`], so analysis and simulation share one
//!   description,
//! * [`fault`] — seeded, deterministic fault injection (frame
//!   corruption with retransmissions, activation jitter, babbling-idiot
//!   overload, clock drift) for robustness validation; the harness has
//!   a `run_with_faults` twin and [`from_spec::simulate_spec_under_faults`]
//!   runs any [`hem_system::SystemSpec`] under a plan.
//!
//! # Examples
//!
//! ```
//! use hem_sim::trace;
//! use hem_time::Time;
//!
//! // Events of a periodic source with jitter stay within the model.
//! let t = trace::periodic_with_jitter(Time::new(100), Time::new(30),
//!                                     Time::new(5_000), 42);
//! assert!(t.len() >= 49);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canbus;
pub mod com;
pub mod cpu;
pub mod cpu_edf;
pub mod error;
pub mod fault;
pub mod from_spec;
pub mod network;
pub mod trace;

pub use error::SimError;
