//! Flat event models and stream combinators for Compositional Performance
//! Analysis (CPA).
//!
//! An *event stream* is the set of all event sequences that can be observed
//! at some point of a system (e.g. the activations of a task). Following
//! Richter's framework — restated in §2–3 of the DATE'08 HEM paper — a
//! stream is characterized by four functions:
//!
//! * `δ⁻(n)` — the minimum time interval spanned by any `n` consecutive
//!   events ([`EventModel::delta_min`]),
//! * `δ⁺(n)` — the maximum such interval ([`EventModel::delta_plus`],
//!   possibly infinite),
//! * `η⁺(Δt)` — the maximum number of events in any window of length `Δt`
//!   ([`EventModel::eta_plus`], paper eq. (1)),
//! * `η⁻(Δt)` — the minimum number ([`EventModel::eta_minus`], eq. (2)).
//!
//! The paper (and this crate) treats `F = (δ⁻, δ⁺)` as the canonical pair
//! and derives `η±` from it; the [`convert`] module implements eqs. (1),(2)
//! and their pseudo-inverses.
//!
//! # Provided models
//!
//! * [`StandardEventModel`] — the classic `(P, J, d_min)` parameterization
//!   with exact closed forms,
//! * [`SporadicModel`] — minimum-distance-only streams (`δ⁺ = ∞`),
//! * [`CurveModel`] — explicit δ-curves with periodic extension, the
//!   general-purpose representation for derived streams,
//! * [`TraceModel`] — δ-curves extracted conservatively from recorded
//!   event timestamp traces.
//!
//! # Provided operations
//!
//! * [`ops::OrJoin`] — OR-activation combination (paper eqs. (3),(4)),
//! * [`ops::AndJoin`] — AND-activation combination,
//! * [`ops::OutputModel`] — output-stream calculation `Θ_τ` from response
//!   times `[r⁻, r⁺]` (paper §3),
//! * [`ops::DminShaper`] — greedy minimum-distance shaper.
//!
//! # Examples
//!
//! ```
//! use hem_event_models::{EventModel, StandardEventModel};
//! use hem_time::Time;
//!
//! // A 250-tick periodic source with 40 ticks of jitter.
//! let s = StandardEventModel::periodic_with_jitter(Time::new(250), Time::new(40))?;
//! assert_eq!(s.eta_plus(Time::new(500)), 3); // jitter admits a third event
//! assert_eq!(s.delta_min(2), Time::new(210));
//! # Ok::<(), hem_event_models::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod approx;
mod burst;
pub mod convert;
mod curve;
mod error;
pub mod ops;
pub mod sampling;
mod standard;
mod trace;

use std::fmt::Debug;
use std::sync::Arc;

pub use analytic::{AnalyticCurve, PlusCombine};
pub use burst::PeriodicBurstModel;
pub use curve::{CurveBuilder, CurveModel};
pub use error::ModelError;
pub use standard::{SporadicModel, StandardEventModel};
pub use trace::TraceModel;

use hem_time::{Time, TimeBound};

/// Shared, thread-safe handle to any event model.
///
/// Stream combinators compose models of heterogeneous concrete types, so
/// they store children as trait objects behind an [`Arc`].
pub type ModelRef = Arc<dyn EventModel>;

/// The four characteristic functions of an event stream.
///
/// Implementors must provide the distance functions `δ⁻`/`δ⁺`; the arrival
/// functions `η⁺`/`η⁻` have default implementations via the paper's
/// eqs. (1),(2) (see [`convert`]) and should be overridden when a cheaper
/// closed form exists.
///
/// # Contract
///
/// For every well-formed model:
///
/// * `δ⁻(n) = δ⁺(n) = 0` for `n ≤ 1`,
/// * `δ⁻` and `δ⁺` are non-negative and non-decreasing in `n`,
/// * `δ⁻(n) ≤ δ⁺(n)` for all `n`,
/// * `δ⁻` has a positive long-run rate: `δ⁻(n) → ∞` as `n → ∞`
///   (every real stream is rate-bounded; this guarantees `η⁺` is finite).
///
/// [`check_consistency`] verifies these properties on a finite prefix.
pub trait EventModel: Debug + Send + Sync {
    /// `δ⁻(n)`: the minimum time interval spanned by any `n` consecutive
    /// events of the stream. Returns [`Time::ZERO`] for `n ≤ 1`.
    fn delta_min(&self, n: u64) -> Time;

    /// `δ⁺(n)`: the maximum time interval spanned by `n` consecutive
    /// events, or [`TimeBound::Infinite`] when no finite bound exists.
    /// Returns zero for `n ≤ 1`.
    fn delta_plus(&self, n: u64) -> TimeBound;

    /// `η⁺(Δt)`: the maximum number of events in any half-open time window
    /// of length `Δt` (paper eq. (1)). Zero for `Δt ≤ 0`.
    ///
    /// # Panics
    ///
    /// The default implementation panics if the model violates the
    /// rate-boundedness contract (its `δ⁻` never reaches `Δt`).
    fn eta_plus(&self, dt: Time) -> u64 {
        convert::eta_plus_from_delta_min(&|n| self.delta_min(n), dt)
    }

    /// `η⁻(Δt)`: the minimum number of events in any open time window of
    /// length `Δt` (paper eq. (2)). Zero when `δ⁺(2)` is unbounded.
    fn eta_minus(&self, dt: Time) -> u64 {
        convert::eta_minus_from_delta_plus(&|n| self.delta_plus(n), dt)
    }

    /// The largest number of events that can arrive simultaneously, i.e.
    /// the largest `k` with `δ⁻(k) = 0`.
    ///
    /// This is the `k` used by the paper's inner update function (Def. 9).
    fn max_simultaneous(&self) -> u64 {
        convert::max_simultaneous_from_delta_min(&|n| self.delta_min(n))
    }

    /// Closed-form lift of this model, if its shape admits one.
    ///
    /// Returns an [`AnalyticCurve`] that is bit-for-bit equal to this
    /// model on all four characteristic functions, or `None` when the
    /// model's shape has no (cheap) closed form — callers must then use
    /// the generic lazy path. See the [`analytic`] module docs for the
    /// fallback taxonomy.
    fn analytic(&self) -> Option<AnalyticCurve> {
        None
    }
}

impl EventModel for Arc<dyn EventModel> {
    fn delta_min(&self, n: u64) -> Time {
        self.as_ref().delta_min(n)
    }
    fn delta_plus(&self, n: u64) -> TimeBound {
        self.as_ref().delta_plus(n)
    }
    fn eta_plus(&self, dt: Time) -> u64 {
        self.as_ref().eta_plus(dt)
    }
    fn eta_minus(&self, dt: Time) -> u64 {
        self.as_ref().eta_minus(dt)
    }
    fn max_simultaneous(&self) -> u64 {
        self.as_ref().max_simultaneous()
    }
    fn analytic(&self) -> Option<AnalyticCurve> {
        self.as_ref().analytic()
    }
}

/// Extension helpers available on every sized event model.
pub trait EventModelExt: EventModel + Sized + 'static {
    /// Wraps the model in a shared [`ModelRef`] handle.
    ///
    /// # Examples
    ///
    /// ```
    /// use hem_event_models::{EventModel, EventModelExt, StandardEventModel};
    /// use hem_time::Time;
    ///
    /// let m = StandardEventModel::periodic(Time::new(100))?.shared();
    /// assert_eq!(m.eta_plus(Time::new(100)), 1);
    /// # Ok::<(), hem_event_models::ModelError>(())
    /// ```
    fn shared(self) -> ModelRef {
        Arc::new(self)
    }
}

impl<T: EventModel + Sized + 'static> EventModelExt for T {}

/// Verifies the [`EventModel`] contract on the prefix `n ∈ [0, up_to]`.
///
/// Checks monotonicity of `δ⁻`/`δ⁺`, non-negativity, `δ⁻ ≤ δ⁺`, and zero
/// at `n ≤ 1`. These must hold for every model, exact or approximate.
///
/// *Exact* distance functions additionally satisfy super-additivity of
/// `δ⁻`; use [`check_super_additivity`] for that — derived conservative
/// bounds (e.g. the paper's inner update function, Def. 9) may violate it
/// without being unsound.
///
/// # Errors
///
/// Returns the first violated property as a [`ModelError::Inconsistent`].
pub fn check_consistency(model: &dyn EventModel, up_to: u64) -> Result<(), ModelError> {
    if model.delta_min(0) != Time::ZERO
        || model.delta_min(1) != Time::ZERO
        || model.delta_plus(0) != TimeBound::ZERO
        || model.delta_plus(1) != TimeBound::ZERO
    {
        return Err(ModelError::inconsistent("δ(n) must be zero for n ≤ 1"));
    }
    let mut prev_min = Time::ZERO;
    let mut prev_plus = TimeBound::ZERO;
    for n in 2..=up_to {
        let dmin = model.delta_min(n);
        let dplus = model.delta_plus(n);
        if dmin.is_negative() {
            return Err(ModelError::inconsistent(format!("δ⁻({n}) is negative")));
        }
        if dmin < prev_min {
            return Err(ModelError::inconsistent(format!(
                "δ⁻ not monotone at n = {n}"
            )));
        }
        if dplus < prev_plus {
            return Err(ModelError::inconsistent(format!(
                "δ⁺ not monotone at n = {n}"
            )));
        }
        if TimeBound::from(dmin) > dplus {
            return Err(ModelError::inconsistent(format!("δ⁻({n}) exceeds δ⁺({n})")));
        }
        prev_min = dmin;
        prev_plus = dplus;
    }
    Ok(())
}

/// Verifies super-additivity of `δ⁻` on the prefix:
/// `δ⁻(a + b − 1) ≥ δ⁻(a) + δ⁻(b)`.
///
/// Every *exact* distance function satisfies this (spanning `a + b − 1`
/// events contains back-to-back spans of `a` and `b` events sharing one
/// boundary event). Conservative approximations may not.
///
/// # Errors
///
/// Returns the first violated pair as a [`ModelError::Inconsistent`].
pub fn check_super_additivity(model: &dyn EventModel, up_to: u64) -> Result<(), ModelError> {
    for a in 2..=up_to {
        for b in 2..=up_to {
            let joined = a + b - 1;
            if joined > up_to {
                break;
            }
            if model.delta_min(joined) < model.delta_min(a) + model.delta_min(b) {
                return Err(ModelError::inconsistent(format!(
                    "δ⁻ not super-additive at ({a}, {b})"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistency_accepts_standard_model() {
        let m = StandardEventModel::new(Time::new(100), Time::new(30), Time::new(5)).unwrap();
        check_consistency(&m, 50).unwrap();
        check_super_additivity(&m, 50).unwrap();
    }

    #[test]
    fn consistency_rejects_decreasing_curve() {
        #[derive(Debug)]
        struct Broken;
        impl EventModel for Broken {
            fn delta_min(&self, n: u64) -> Time {
                match n {
                    0 | 1 => Time::ZERO,
                    2 => Time::new(10),
                    _ => Time::new(5), // decreasing: invalid
                }
            }
            fn delta_plus(&self, n: u64) -> TimeBound {
                if n <= 1 {
                    TimeBound::ZERO
                } else {
                    TimeBound::INFINITE
                }
            }
        }
        assert!(check_consistency(&Broken, 5).is_err());
    }

    #[test]
    fn consistency_rejects_delta_min_above_delta_plus() {
        #[derive(Debug)]
        struct Crossed;
        impl EventModel for Crossed {
            fn delta_min(&self, n: u64) -> Time {
                if n <= 1 {
                    Time::ZERO
                } else {
                    Time::new(100) * (n as i64 - 1)
                }
            }
            fn delta_plus(&self, n: u64) -> TimeBound {
                if n <= 1 {
                    TimeBound::ZERO
                } else {
                    TimeBound::finite(50) * (n as i64 - 1)
                }
            }
        }
        assert!(check_consistency(&Crossed, 5).is_err());
    }

    #[test]
    fn model_ref_delegates() {
        let m: ModelRef = StandardEventModel::periodic(Time::new(10))
            .unwrap()
            .shared();
        assert_eq!(m.delta_min(3), Time::new(20));
        assert_eq!(m.delta_plus(3), TimeBound::finite(20));
        assert_eq!(m.eta_plus(Time::new(25)), 3);
        assert_eq!(m.eta_minus(Time::new(25)), 2);
        assert_eq!(m.max_simultaneous(), 1);
    }
}
