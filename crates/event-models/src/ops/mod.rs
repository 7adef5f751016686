//! Stream operations: combinations of event streams and output-model
//! calculation.
//!
//! In the CPA system model (paper §3, Def. 2), a *stream operation* maps
//! input event-stream function tuples to output tuples. This module
//! provides:
//!
//! * [`OrJoin`] — OR-activation combination (paper eqs. (3),(4)),
//! * [`AndJoin`] — AND-activation combination,
//! * [`OutputModel`] — the task output-stream operation `Θ_τ`,
//! * [`DminShaper`] — a greedy minimum-distance shaper.
//!
//! All operations are lazy event models themselves: they implement
//! [`EventModel`](crate::EventModel) by querying their inputs on demand,
//! so chains of operations compose without materialization. Use
//! [`CurveModel::sample`](crate::CurveModel::sample) to freeze a deep
//! chain into an explicit curve when query cost matters.

mod and;
mod or;
mod output;
mod shaper;

pub use and::AndJoin;
pub use or::OrJoin;
pub use output::OutputModel;
pub use shaper::DminShaper;
