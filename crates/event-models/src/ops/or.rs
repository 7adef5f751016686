//! OR-activation combination of event streams (paper eqs. (3),(4)).

use std::sync::OnceLock;

use hem_time::{Time, TimeBound};

use crate::{convert, AnalyticCurve, EventModel, ModelError, ModelRef};

/// The OR-combination of several event streams.
///
/// A task activated by *any* event of its inputs sees the union stream.
/// The paper gives its distance functions as minima/maxima over
/// *contribution vectors* `K = (k₁ … k_m)`, `Σkᵢ = n`:
///
/// ```text
/// δ_or⁻(n) = min over K of  maxᵢ δᵢ⁻(kᵢ)            (3)
/// δ_or⁺(n) = max over K (Σkᵢ = n−2) of minᵢ δᵢ⁺(kᵢ+2)   (4)
/// ```
///
/// Enumerating contribution vectors is exponential; the paper's own proof
/// shows eq. (3) equals the smallest window admitting
/// `n = Σᵢ ηᵢ⁺(Δt)` events and eq. (4) the largest window guaranteeing at
/// most `n − 2`, so this type computes both by inverting the *summed*
/// arrival functions (see [`convert`]) — exact and polynomial.
///
/// # Examples
///
/// ```
/// use hem_event_models::{EventModel, EventModelExt, StandardEventModel};
/// use hem_event_models::ops::OrJoin;
/// use hem_time::Time;
///
/// let a = StandardEventModel::periodic(Time::new(100))?.shared();
/// let b = StandardEventModel::periodic(Time::new(150))?.shared();
/// let or = OrJoin::new(vec![a, b])?;
/// // Both streams may fire together: δ⁻(2) = 0.
/// assert_eq!(or.delta_min(2), Time::ZERO);
/// // Combined max arrivals add up.
/// assert_eq!(or.eta_plus(Time::new(300)), 3 + 2);
/// # Ok::<(), hem_event_models::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OrJoin {
    inputs: Vec<ModelRef>,
    /// The closed-form lift, merged on the first
    /// [`analytic`](EventModel::analytic) call. A packed frame's outer
    /// stream is lifted once for the bus and again inside every pending
    /// signal's inner stream; the inputs never change, so one merge
    /// serves them all.
    lift: OnceLock<Option<AnalyticCurve>>,
}

impl OrJoin {
    /// Combines the given input streams.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if `inputs` is empty.
    pub fn new(inputs: Vec<ModelRef>) -> Result<Self, ModelError> {
        if inputs.is_empty() {
            return Err(ModelError::invalid(
                "OR-combination requires at least one input stream",
            ));
        }
        Ok(OrJoin {
            inputs,
            lift: OnceLock::new(),
        })
    }

    /// The combined input streams.
    #[must_use]
    pub fn inputs(&self) -> &[ModelRef] {
        &self.inputs
    }
}

impl EventModel for OrJoin {
    fn delta_min(&self, n: u64) -> Time {
        if n <= 1 {
            return Time::ZERO;
        }
        // Placing all n events on a single input is one admissible
        // contribution vector, so minᵢ δᵢ⁻(n) bounds the result from above.
        let ub = self
            .inputs
            .iter()
            .map(|m| m.delta_min(n))
            .min()
            .expect("non-empty inputs")
            + Time::ONE;
        convert::delta_min_from_eta_plus(&|dt| self.eta_plus(dt), n, ub)
    }

    fn delta_plus(&self, n: u64) -> TimeBound {
        if n <= 1 {
            return TimeBound::ZERO;
        }
        convert::delta_plus_from_eta_minus(&|dt| self.eta_minus(dt), n)
    }

    fn eta_plus(&self, dt: Time) -> u64 {
        self.inputs.iter().map(|m| m.eta_plus(dt)).sum()
    }

    fn eta_minus(&self, dt: Time) -> u64 {
        self.inputs.iter().map(|m| m.eta_minus(dt)).sum()
    }

    fn max_simultaneous(&self) -> u64 {
        // The lift is exact, so once built it answers for the generic
        // δ⁻ search (each inner update of a hierarchy asks for `k`).
        match self.lift.get() {
            Some(Some(curve)) => curve.max_simultaneous(),
            _ => convert::max_simultaneous_from_delta_min(&|n| self.delta_min(n)),
        }
    }

    fn analytic(&self) -> Option<AnalyticCurve> {
        self.lift
            .get_or_init(|| {
                let children: Vec<AnalyticCurve> = self
                    .inputs
                    .iter()
                    .map(|m| m.analytic())
                    .collect::<Option<_>>()?;
                AnalyticCurve::or_join(&children)
            })
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventModelExt, SporadicModel, StandardEventModel};

    /// Reference implementation of eq. (3): direct minimization over all
    /// contribution vectors for two inputs.
    fn delta_min_reference(a: &dyn EventModel, b: &dyn EventModel, n: u64) -> Time {
        (0..=n)
            .map(|ka| a.delta_min(ka).max(b.delta_min(n - ka)))
            .min()
            .expect("non-empty range")
    }

    /// Reference implementation of eq. (4) for two inputs.
    fn delta_plus_reference(a: &dyn EventModel, b: &dyn EventModel, n: u64) -> TimeBound {
        if n < 2 {
            return TimeBound::ZERO;
        }
        (0..=(n - 2))
            .map(|ka| a.delta_plus(ka + 2).min(b.delta_plus(n - 2 - ka + 2)))
            .max()
            .expect("non-empty range")
    }

    #[test]
    fn matches_contribution_vector_reference() {
        let a = StandardEventModel::periodic_with_jitter(Time::new(250), Time::new(30)).unwrap();
        let b = StandardEventModel::periodic(Time::new(400)).unwrap();
        let or = OrJoin::new(vec![a.shared(), b.shared()]).unwrap();
        for n in 2..=12u64 {
            assert_eq!(
                or.delta_min(n),
                delta_min_reference(&a, &b, n),
                "δ⁻({n}) mismatch"
            );
            assert_eq!(
                or.delta_plus(n),
                delta_plus_reference(&a, &b, n),
                "δ⁺({n}) mismatch"
            );
        }
    }

    #[test]
    fn matches_reference_with_sporadic_input() {
        let a = StandardEventModel::periodic(Time::new(100)).unwrap();
        let b = SporadicModel::new(Time::new(70)).unwrap();
        let or = OrJoin::new(vec![a.shared(), b.shared()]).unwrap();
        for n in 2..=10u64 {
            assert_eq!(or.delta_min(n), delta_min_reference(&a, &b, n), "δ⁻({n})");
            assert_eq!(or.delta_plus(n), delta_plus_reference(&a, &b, n), "δ⁺({n})");
        }
        // The sporadic stream contributes no guaranteed arrivals, but the
        // periodic one does: δ⁺ stays finite.
        assert!(or.delta_plus(5).is_finite());
    }

    #[test]
    fn all_sporadic_inputs_give_unbounded_delta_plus() {
        let a = SporadicModel::new(Time::new(50)).unwrap();
        let b = SporadicModel::new(Time::new(80)).unwrap();
        let or = OrJoin::new(vec![a.shared(), b.shared()]).unwrap();
        assert_eq!(or.delta_plus(2), TimeBound::Infinite);
        assert_eq!(or.eta_minus(Time::new(1_000_000)), 0);
    }

    #[test]
    fn eta_functions_sum() {
        let a = StandardEventModel::periodic(Time::new(100))
            .unwrap()
            .shared();
        let b = StandardEventModel::periodic(Time::new(150))
            .unwrap()
            .shared();
        let or = OrJoin::new(vec![a.clone(), b.clone()]).unwrap();
        for dt in [0i64, 1, 99, 100, 101, 149, 151, 300, 1000] {
            let dt = Time::new(dt);
            assert_eq!(or.eta_plus(dt), a.eta_plus(dt) + b.eta_plus(dt));
            assert_eq!(or.eta_minus(dt), a.eta_minus(dt) + b.eta_minus(dt));
        }
    }

    #[test]
    fn single_input_is_identity() {
        let a = StandardEventModel::periodic_with_jitter(Time::new(120), Time::new(20)).unwrap();
        let or = OrJoin::new(vec![a.shared()]).unwrap();
        for n in 0..=10u64 {
            assert_eq!(or.delta_min(n), a.delta_min(n));
            assert_eq!(or.delta_plus(n), a.delta_plus(n));
        }
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(OrJoin::new(vec![]).is_err());
    }

    #[test]
    fn simultaneous_arrivals_counted() {
        let a = StandardEventModel::periodic(Time::new(100))
            .unwrap()
            .shared();
        let b = StandardEventModel::periodic(Time::new(100))
            .unwrap()
            .shared();
        let c = StandardEventModel::periodic(Time::new(100))
            .unwrap()
            .shared();
        let or = OrJoin::new(vec![a, b, c]).unwrap();
        assert_eq!(or.delta_min(3), Time::ZERO);
        assert!(or.delta_min(4) > Time::ZERO);
        assert_eq!(or.max_simultaneous(), 3);
    }

    #[test]
    fn inputs_accessor() {
        let a = StandardEventModel::periodic(Time::new(100))
            .unwrap()
            .shared();
        let or = OrJoin::new(vec![a]).unwrap();
        assert_eq!(or.inputs().len(), 1);
    }
}
