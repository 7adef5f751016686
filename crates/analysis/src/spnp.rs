//! Static-priority non-preemptive (SPNP) busy-window analysis — the CAN
//! arbitration model.
//!
//! On a CAN bus, frames win arbitration by priority (lower identifier
//! wins) but a transmission in progress is never aborted. The standard
//! analysis (Tindell/Davis, restated in CPA form) separates the *queuing
//! delay* `w` from the transmission itself:
//!
//! ```text
//! w_i(q) = B_i + (q−1)·C_i⁺ + Σ_{j ∈ hp(i)} η_j⁺(w_i(q) + 1) · C_j⁺
//! r_i⁺(q) = w_i(q) + C_i⁺ − δ_i⁻(q)
//! ```
//!
//! where `B_i = max_{j ∈ lp(i)} C_j⁺` is the blocking by an already-started
//! lower-priority frame, and the `+1` tick in the interference term
//! accounts for a higher-priority frame arriving exactly when arbitration
//! is decided (it still wins, non-preemptively delaying the frame under
//! analysis).

use hem_event_models::EventModel;
use hem_time::Time;

use crate::{fixed_point, AnalysisConfig, AnalysisError, AnalysisTask, ResponseTime, TaskResult};

/// Analyses one frame/task on an SPNP resource against all others.
///
/// `others` are the remaining tasks on the same resource — higher
/// priorities interfere, lower priorities contribute their longest
/// transmission as blocking. Priorities must be unique on an SPNP
/// resource (ties have no defined arbitration winner).
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidTaskSet`] when `others` contains the
/// same priority as `task`, and [`AnalysisError::NoConvergence`] when the
/// busy window diverges.
pub fn response_time(
    task: &AnalysisTask,
    others: &[AnalysisTask],
    config: &AnalysisConfig,
) -> Result<TaskResult, AnalysisError> {
    if others.iter().any(|t| t.priority == task.priority) {
        return Err(AnalysisError::invalid(format!(
            "SPNP requires unique priorities, `{}` shares {}",
            task.name, task.priority
        )));
    }
    let hp: Vec<&AnalysisTask> = others
        .iter()
        .filter(|t| t.priority.is_higher_than(task.priority))
        .collect();
    let blocking = others
        .iter()
        .filter(|t| task.priority.is_higher_than(t.priority))
        .map(|t| t.wcet)
        .max()
        .unwrap_or(Time::ZERO);

    let mut worst = Time::ZERO;
    let mut q = 1u64;
    loop {
        let base = blocking + task.wcet * (q as i64 - 1);
        let w = fixed_point(
            &task.name,
            base,
            |w| {
                let interference: Time = hp
                    .iter()
                    .map(|j| j.wcet * j.input.eta_plus(w + Time::ONE) as i64)
                    .sum();
                base + interference
            },
            config,
        )?;
        let finish = w + task.wcet;
        let response = finish - task.input.delta_min(q);
        worst = worst.max(response);
        if task.input.delta_min(q + 1) >= finish {
            let r_minus = task.bcet;
            return Ok(TaskResult {
                name: task.name.clone(),
                response: ResponseTime::new(r_minus.min(worst), worst),
                busy_activations: q,
            });
        }
        q += 1;
        if q > config.max_activations {
            return Err(AnalysisError::no_convergence(
                &task.name,
                format!(
                    "busy period did not close within {} activations",
                    config.max_activations
                ),
            ));
        }
    }
}

/// Analyses a complete SPNP task set; results are returned in input order.
///
/// # Errors
///
/// Propagates the first [`AnalysisError`] encountered (duplicate
/// priorities or non-convergence).
pub fn analyze(
    tasks: &[AnalysisTask],
    config: &AnalysisConfig,
) -> Result<Vec<TaskResult>, AnalysisError> {
    (0..tasks.len())
        .map(|i| {
            let others: Vec<AnalysisTask> = tasks
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, t)| t.clone())
                .collect();
            response_time(&tasks[i], &others, config)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Priority;
    use hem_event_models::{EventModelExt, StandardEventModel};

    fn frame(name: &str, cet: i64, prio: u32, period: i64) -> AnalysisTask {
        AnalysisTask::new(
            name,
            Time::new(cet),
            Time::new(cet),
            Priority::new(prio),
            StandardEventModel::periodic(Time::new(period))
                .unwrap()
                .shared(),
        )
    }

    #[test]
    fn highest_priority_still_suffers_blocking() {
        let frames = vec![frame("hi", 10, 1, 100), frame("lo", 30, 2, 100)];
        let r = analyze(&frames, &AnalysisConfig::default()).unwrap();
        // hi: blocked by the longest lower-priority frame (30) + own 10.
        assert_eq!(r[0].response.r_plus, Time::new(40));
        // lo: blocked by nothing, but hi interferes once: 10 + 30 = 40.
        assert_eq!(r[1].response.r_plus, Time::new(40));
    }

    #[test]
    fn non_preemptive_vs_preemptive_highest_prio() {
        // Under SPP the high-priority task would finish in C = 10; under
        // SPNP it waits for the longest lower-priority transmission.
        let hi = frame("hi", 10, 1, 100);
        let lo = frame("lo", 50, 2, 1000);
        let r = response_time(&hi, &[lo], &AnalysisConfig::default()).unwrap();
        assert_eq!(r.response.r_plus, Time::new(60));
    }

    #[test]
    fn interference_at_arbitration_instant_counts() {
        // Middle frame: blocking 20 (lo), interference from hi arriving
        // exactly at the arbitration boundary.
        let hi = frame("hi", 10, 1, 35);
        let mid = frame("mid", 10, 2, 100);
        let lo = frame("lo", 20, 3, 100);
        let r = response_time(&mid, &[hi.clone(), lo], &AnalysisConfig::default()).unwrap();
        // w = 20 + 10·η_hi(w+1): w₀ = 20 → η(21) = 1 → 30 → η(31) = 1 → 30.
        // Hmm: η(31) = ⌈31/35⌉ = 1 → w = 30, finish 40, R⁺ = 40.
        assert_eq!(r.response.r_plus, Time::new(40));
    }

    #[test]
    fn queued_instances_serialize() {
        // A frame whose own period is shorter than its transmission time
        // cannot be schedulable; use a moderately loaded case instead:
        // two instances queue behind blocking.
        let target = frame("f", 10, 1, 12);
        let lo = frame("lo", 30, 2, 1000);
        let r = response_time(&target, &[lo], &AnalysisConfig::default()).unwrap();
        // q=1: w = 30, finish 40, r = 40. δ⁻(2) = 12 < 40 → q=2:
        // w = 30+10 = 40, finish 50, r = 50−12 = 38. δ⁻(3) = 24 < 50 → q=3:
        // w = 50, finish 60, r = 60−24 = 36. … each extra instance gains
        // 10 ticks but arrives 12 later, so the busy period closes when
        // 30 + 10q ≤ 12q → q = 15ish. R⁺ stays 40.
        assert_eq!(r.response.r_plus, Time::new(40));
        assert!(r.busy_activations > 1);
    }

    #[test]
    fn duplicate_priorities_rejected() {
        let frames = vec![frame("a", 10, 1, 100), frame("b", 10, 1, 100)];
        let err = analyze(&frames, &AnalysisConfig::default()).unwrap_err();
        assert!(matches!(err, AnalysisError::InvalidTaskSet(_)));
    }

    #[test]
    fn no_lower_priority_means_no_blocking() {
        let lo = frame("lo", 20, 2, 100);
        let only = frame("only", 10, 1, 100);
        let r = response_time(&only, &[lo], &AnalysisConfig::default()).unwrap();
        assert_eq!(r.response.r_plus, Time::new(30)); // blocking 20 + own 10
        let alone = response_time(&only, &[], &AnalysisConfig::default()).unwrap();
        assert_eq!(alone.response.r_plus, Time::new(10));
    }

    #[test]
    fn overload_detected() {
        let a = frame("a", 10, 1, 12);
        let b = frame("b", 10, 2, 12);
        let err = response_time(
            &b,
            &[a],
            &AnalysisConfig::with_max_busy_window(Time::new(50_000)),
        )
        .unwrap_err();
        assert!(matches!(err, AnalysisError::NoConvergence { .. }));
    }
}
