//! Demand bound functions and EDF schedulability.
//!
//! Gresser's event-model-based demand bound function (cited as \[4\] by
//! the paper): a task with WCET `C`, relative deadline `D` and
//! activating event model `η⁺` demands, within any window of length
//! `Δt`, at most
//!
//! ```text
//! dbf_i(Δt) = η_i⁺(Δt − D_i + 1) · C_i      (for Δt ≥ D_i, else 0)
//! ```
//!
//! processor time from jobs that must both arrive *and* finish inside
//! the window. A task set is EDF-schedulable on a dedicated resource iff
//! `Σ dbf_i(Δt) ≤ Δt` for all `Δt` up to the longest busy period.

use hem_event_models::{EventModel, ModelRef};
use hem_time::Time;

use crate::{fixed_point, AnalysisConfig, AnalysisError};

/// A deadline-scheduled task: execution time, relative deadline, and
/// activating event model.
#[derive(Debug, Clone)]
pub struct EdfTask {
    /// Task name (for error reporting).
    pub name: String,
    /// Worst-case execution time (≥ 1).
    pub wcet: Time,
    /// Relative deadline (≥ 1).
    pub deadline: Time,
    /// Activating event stream.
    pub input: ModelRef,
}

impl EdfTask {
    /// Creates an EDF task description.
    ///
    /// # Panics
    ///
    /// Panics if `wcet < 1` or `deadline < 1`.
    #[must_use]
    pub fn new(name: impl Into<String>, wcet: Time, deadline: Time, input: ModelRef) -> Self {
        assert!(wcet >= Time::ONE, "wcet must be at least one tick");
        assert!(deadline >= Time::ONE, "deadline must be at least one tick");
        EdfTask {
            name: name.into(),
            wcet,
            deadline,
            input,
        }
    }

    /// This task's demand bound in a window of length `dt`.
    #[must_use]
    pub fn demand_bound(&self, dt: Time) -> Time {
        if dt < self.deadline {
            return Time::ZERO;
        }
        let contained = self.input.eta_plus(dt - self.deadline + Time::ONE);
        self.wcet * contained as i64
    }
}

/// The total demand bound `Σᵢ dbfᵢ(Δt)` of a task set.
#[must_use]
pub fn demand_bound(tasks: &[EdfTask], dt: Time) -> Time {
    tasks.iter().map(|t| t.demand_bound(dt)).sum()
}

/// The verdict of an EDF schedulability test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdfVerdict {
    /// Demand never exceeds supply up to the busy-period bound.
    Schedulable {
        /// Length of the longest level-busy period that was checked.
        busy_period: Time,
    },
    /// Demand exceeds supply at this window length.
    Overload {
        /// The first violating window length, which is also the supply
        /// the dedicated resource offers there.
        at: Time,
        /// Demand at that window.
        demand: Time,
    },
}

impl EdfVerdict {
    /// `true` for [`EdfVerdict::Schedulable`].
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        matches!(self, EdfVerdict::Schedulable { .. })
    }
}

/// EDF schedulability on a dedicated resource: the processor-demand
/// criterion `Σ dbfᵢ(Δt) ≤ Δt`.
///
/// The synchronous busy period is the least fixed point of
/// `w = Σᵢ ηᵢ⁺(w)·Cᵢ`. Every window length up to it is checked at the
/// demand step points (each task's deadline plus its activation
/// breakpoints): between steps the demand is constant while the supply
/// `Δt` grows, so checking steps suffices.
///
/// # Errors
///
/// Returns [`AnalysisError::NoConvergence`] if the busy period exceeds
/// the configured limits (total utilization > 1, or a busy period
/// beyond `config.max_busy_window`).
pub fn edf_schedulable(
    tasks: &[EdfTask],
    config: &AnalysisConfig,
) -> Result<EdfVerdict, AnalysisError> {
    if tasks.is_empty() {
        return Ok(EdfVerdict::Schedulable {
            busy_period: Time::ZERO,
        });
    }
    let busy = fixed_point(
        "edf_busy_period",
        Time::ONE,
        |w| {
            tasks
                .iter()
                .map(|t| t.wcet * t.input.eta_plus(w) as i64)
                .sum()
        },
        config,
    )?;
    // Check every demand step point ≤ busy period.
    for task in tasks {
        let mut n = 1u64;
        loop {
            // The n-th activation enters the demand at
            // Δt = δ⁻(n) + deadline.
            let at = task.input.delta_min(n) + task.deadline;
            if at > busy {
                break;
            }
            let demand = demand_bound(tasks, at);
            if demand > at {
                return Ok(EdfVerdict::Overload { at, demand });
            }
            n += 1;
            if n > config.max_activations {
                return Err(AnalysisError::no_convergence(
                    &task.name,
                    format!(
                        "more than {} demand steps within the busy period",
                        config.max_activations
                    ),
                ));
            }
        }
    }
    Ok(EdfVerdict::Schedulable { busy_period: busy })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_event_models::{EventModelExt, StandardEventModel};

    fn periodic_task(name: &str, c: i64, d: i64, p: i64) -> EdfTask {
        EdfTask::new(
            name,
            Time::new(c),
            Time::new(d),
            StandardEventModel::periodic(Time::new(p)).unwrap().shared(),
        )
    }

    #[test]
    fn single_task_demand_steps() {
        let t = periodic_task("t", 3, 10, 20);
        assert_eq!(t.demand_bound(Time::new(9)), Time::ZERO);
        assert_eq!(t.demand_bound(Time::new(10)), Time::new(3));
        assert_eq!(t.demand_bound(Time::new(29)), Time::new(3));
        assert_eq!(t.demand_bound(Time::new(30)), Time::new(6));
    }

    #[test]
    fn implicit_deadline_edf_utilization_boundary() {
        // U = 1 exactly: still schedulable under EDF.
        let tasks = vec![periodic_task("a", 2, 4, 4), periodic_task("b", 3, 6, 6)];
        let v = edf_schedulable(&tasks, &AnalysisConfig::default()).unwrap();
        assert!(v.is_schedulable(), "{v:?}");
        // Push over: U > 1 diverges (no finite busy period).
        let tasks = vec![periodic_task("a", 3, 4, 4), periodic_task("b", 3, 6, 6)];
        let err = edf_schedulable(
            &tasks,
            &AnalysisConfig::with_max_busy_window(Time::new(100_000)),
        )
        .unwrap_err();
        assert!(matches!(err, AnalysisError::NoConvergence { .. }));
    }

    #[test]
    fn constrained_deadline_overload_detected() {
        // U < 1 but deadlines too tight: overload at a specific window.
        let tasks = vec![periodic_task("a", 3, 3, 10), periodic_task("b", 3, 4, 10)];
        let v = edf_schedulable(&tasks, &AnalysisConfig::default()).unwrap();
        match v {
            EdfVerdict::Overload { at, demand } => {
                assert_eq!(at, Time::new(4));
                assert_eq!(demand, Time::new(6));
            }
            EdfVerdict::Schedulable { .. } => panic!("should overload"),
        }
    }

    #[test]
    fn jittered_activation_tightens() {
        // With jitter, two activations can land close together.
        let jittery = EdfTask::new(
            "j",
            Time::new(5),
            Time::new(8),
            StandardEventModel::periodic_with_jitter(Time::new(20), Time::new(15))
                .unwrap()
                .shared(),
        );
        // δ⁻(2) = 5: at Δt = 5 + 8 = 13 the demand is 10 > 13? No: 10 ≤ 13.
        let v = edf_schedulable(&[jittery], &AnalysisConfig::default()).unwrap();
        assert!(v.is_schedulable());
        // Shrink the deadline below the burst demand: 2 jobs · 5 = 10 must
        // fit into δ⁻(2) + D = 5 + 4 = 9 → overload.
        let tight = EdfTask::new(
            "j",
            Time::new(5),
            Time::new(4),
            StandardEventModel::periodic_with_jitter(Time::new(20), Time::new(15))
                .unwrap()
                .shared(),
        );
        let v = edf_schedulable(&[tight], &AnalysisConfig::default()).unwrap();
        assert!(!v.is_schedulable());
    }

    #[test]
    fn empty_task_set_is_trivially_schedulable() {
        let v = edf_schedulable(&[], &AnalysisConfig::default()).unwrap();
        assert!(v.is_schedulable());
    }

    #[test]
    fn edf_busy_period_up_to_the_cap_converges() {
        // A busy period within `max_busy_window` converges, however
        // close to the cap it lies.
        let one = [periodic_task("t", 9_000_000, 20_000_000, 20_000_000)];
        assert_eq!(
            edf_schedulable(&one, &AnalysisConfig::default()),
            Ok(EdfVerdict::Schedulable {
                busy_period: Time::new(9_000_000)
            })
        );
        let small = [periodic_task("t", 90, 200, 200)];
        assert_eq!(
            edf_schedulable(
                &small,
                &AnalysisConfig::with_max_busy_window(Time::new(100))
            ),
            Ok(EdfVerdict::Schedulable {
                busy_period: Time::new(90)
            })
        );
    }
}
