//! The output-stream operation `Θ_τ` (paper §3).

use std::sync::{Mutex, OnceLock};

use hem_time::{Time, TimeBound};

use crate::{AnalyticCurve, EventModel, ModelError, ModelRef};

/// The output event stream of a task with response times `[r⁻, r⁺]`.
///
/// Processing by an analysed task turns the activating input stream into
/// an output stream whose distances the paper gives as
///
/// ```text
/// δ'⁻(n) = max( δ_in⁻(n) − (r⁺ − r⁻),  δ'⁻(n−1) + r⁻ )
/// δ'⁺(n) = δ_in⁺(n) + (r⁺ − r⁻)
/// ```
///
/// — the response-time jitter `r⁺ − r⁻` compresses minimum distances (up
/// to the back-to-back completion separation `r⁻`) and stretches maximum
/// distances. The recursion is memoized internally so repeated queries are
/// amortized O(1).
///
/// For standard event models the closed form
/// [`StandardEventModel::propagated`](crate::StandardEventModel::propagated)
/// produces the classic `(P, J + r⁺ − r⁻, max(d, r⁻))` result; this
/// generic operation matches it and also applies to arbitrary curves.
///
/// # Examples
///
/// ```
/// use hem_event_models::{EventModel, EventModelExt, StandardEventModel};
/// use hem_event_models::ops::OutputModel;
/// use hem_time::Time;
///
/// let input = StandardEventModel::periodic(Time::new(250))?.shared();
/// let out = OutputModel::new(input, Time::new(10), Time::new(60))?;
/// assert_eq!(out.delta_min(2), Time::new(200)); // 250 − 50 jitter
/// # Ok::<(), hem_event_models::ModelError>(())
/// ```
#[derive(Debug)]
pub struct OutputModel {
    input: ModelRef,
    r_minus: Time,
    r_plus: Time,
    /// Memo for the δ'⁻ recursion; `memo[n]` holds δ'⁻(n), seeded for
    /// n = 0, 1.
    memo: Mutex<Vec<Time>>,
    /// [`OutputModel::lower_curve`], built on the first request.
    lower: OnceLock<Option<AnalyticCurve>>,
}

impl OutputModel {
    /// Creates the output model of a task processing `input` with
    /// response times in `[r_minus, r_plus]`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] unless
    /// `0 ≤ r_minus ≤ r_plus`.
    pub fn new(input: ModelRef, r_minus: Time, r_plus: Time) -> Result<Self, ModelError> {
        if r_minus.is_negative() || r_minus > r_plus {
            return Err(ModelError::invalid(format!(
                "response interval must satisfy 0 ≤ r⁻ ≤ r⁺, got [{r_minus}, {r_plus}]"
            )));
        }
        Ok(OutputModel {
            input,
            r_minus,
            r_plus,
            memo: Mutex::new(vec![Time::ZERO, Time::ZERO]),
            lower: OnceLock::new(),
        })
    }

    /// The input stream the task processes.
    #[must_use]
    pub fn input(&self) -> &ModelRef {
        &self.input
    }

    /// The closed form of `δ'⁻` alone, with `δ⁺ ≡ ∞`, or `None` where
    /// the input does not lift. Built once: every inner stream of a processed hierarchy
    /// is bounded by it (see `hem_core::InnerUpdated`).
    #[must_use]
    pub fn lower_curve(&self) -> Option<&AnalyticCurve> {
        self.lower
            .get_or_init(|| {
                self.input
                    .analytic()?
                    .output_lower(self.r_minus, self.r_plus)
            })
            .as_ref()
    }

    /// The response-time jitter `r⁺ − r⁻` added by the task.
    #[must_use]
    pub fn response_jitter(&self) -> Time {
        self.r_plus - self.r_minus
    }

    /// The minimum response time `r⁻`.
    #[must_use]
    pub fn r_minus(&self) -> Time {
        self.r_minus
    }

    /// The maximum response time `r⁺`.
    #[must_use]
    pub fn r_plus(&self) -> Time {
        self.r_plus
    }
}

impl EventModel for OutputModel {
    fn delta_min(&self, n: u64) -> Time {
        if n <= 1 {
            return Time::ZERO;
        }
        let jitter = self.response_jitter();
        let mut memo = self.memo.lock().expect("memo poisoned");
        while (memo.len() as u64) <= n {
            let k = memo.len() as u64;
            let prev = *memo.last().expect("memo seeded");
            let v = (self.input.delta_min(k) - jitter)
                .max(prev + self.r_minus)
                .clamp_non_negative();
            memo.push(v);
        }
        memo[n as usize]
    }

    fn delta_plus(&self, n: u64) -> TimeBound {
        if n <= 1 {
            return TimeBound::ZERO;
        }
        // The serialization floor of δ'⁻ also lifts the maximum distance:
        // when completions are spread at least r⁻ apart, the n-th output
        // is at least (n−1)·r⁻ after the first. Taking the max keeps the
        // model internally consistent even for response intervals that
        // the input rate cannot actually sustain.
        (self.input.delta_plus(n) + self.response_jitter()).max(self.delta_min(n).into())
    }

    fn analytic(&self) -> Option<AnalyticCurve> {
        self.input.analytic()?.output(self.r_minus, self.r_plus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventModelExt, SporadicModel, StandardEventModel};

    #[test]
    fn matches_sem_closed_form() {
        let sem = StandardEventModel::periodic_with_jitter(Time::new(250), Time::new(30)).unwrap();
        let closed = sem.propagated(Time::new(10), Time::new(80)).unwrap();
        let generic = OutputModel::new(sem.shared(), Time::new(10), Time::new(80)).unwrap();
        for n in 0..=30u64 {
            assert_eq!(generic.delta_min(n), closed.delta_min(n), "δ⁻({n})");
            assert_eq!(generic.delta_plus(n), closed.delta_plus(n), "δ⁺({n})");
        }
    }

    #[test]
    fn zero_jitter_task_preserves_distances() {
        let sem = StandardEventModel::periodic(Time::new(100)).unwrap();
        let out = OutputModel::new(sem.shared(), Time::new(20), Time::new(20)).unwrap();
        for n in 2..=10u64 {
            assert_eq!(out.delta_min(n), sem.delta_min(n));
            assert_eq!(out.delta_plus(n), sem.delta_plus(n));
        }
    }

    #[test]
    fn back_to_back_floor_applies() {
        // Input arrives in bursts (δ⁻ = 0); outputs are separated by at
        // least r⁻ each.
        let burst = StandardEventModel::periodic_with_jitter(Time::new(100), Time::new(300))
            .unwrap()
            .shared();
        let out = OutputModel::new(burst, Time::new(7), Time::new(9)).unwrap();
        assert_eq!(out.delta_min(2), Time::new(7));
        assert_eq!(out.delta_min(3), Time::new(14));
        assert_eq!(out.delta_min(4), Time::new(21));
    }

    #[test]
    fn delta_plus_shifts_by_jitter() {
        let sem = StandardEventModel::periodic(Time::new(100))
            .unwrap()
            .shared();
        let out = OutputModel::new(sem, Time::new(5), Time::new(45)).unwrap();
        assert_eq!(out.delta_plus(2), TimeBound::finite(140));
        assert_eq!(out.delta_plus(5), TimeBound::finite(440));
        assert_eq!(out.response_jitter(), Time::new(40));
        assert_eq!(out.r_minus(), Time::new(5));
        assert_eq!(out.r_plus(), Time::new(45));
    }

    #[test]
    fn infinite_delta_plus_stays_infinite() {
        let sp = SporadicModel::new(Time::new(50)).unwrap().shared();
        let out = OutputModel::new(sp, Time::ZERO, Time::new(10)).unwrap();
        assert_eq!(out.delta_plus(2), TimeBound::Infinite);
    }

    #[test]
    fn rejects_invalid_response_interval() {
        let sem = StandardEventModel::periodic(Time::new(100))
            .unwrap()
            .shared();
        assert!(OutputModel::new(sem.clone(), Time::new(20), Time::new(10)).is_err());
        assert!(OutputModel::new(sem, Time::new(-1), Time::new(10)).is_err());
    }

    #[test]
    fn memoization_is_order_independent() {
        let sem = StandardEventModel::periodic_with_jitter(Time::new(100), Time::new(60))
            .unwrap()
            .shared();
        let a = OutputModel::new(sem.clone(), Time::new(5), Time::new(25)).unwrap();
        let b = OutputModel::new(sem, Time::new(5), Time::new(25)).unwrap();
        // Query a high n first on one instance, low-to-high on the other.
        let high_first = a.delta_min(20);
        for n in 2..=20u64 {
            assert_eq!(a.delta_min(n), b.delta_min(n), "δ'⁻({n})");
        }
        assert_eq!(high_first, b.delta_min(20));
    }
}
