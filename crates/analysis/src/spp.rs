//! Static-priority preemptive (SPP) busy-window analysis.
//!
//! The classical multi-activation busy-window technique (Lehoczky 1990,
//! as used in Richter's CPA framework): for the `q`-th activation of task
//! `i` within a level-`i` busy period, the completion window is the least
//! fixed point of
//!
//! ```text
//! w_i(q) = q·C_i⁺ + B_i + Σ_{j ∈ hp(i)} η_j⁺(w_i(q)) · C_j⁺
//! ```
//!
//! and the worst-case response time is `max_q [ w_i(q) − δ_i⁻(q) ]`, where
//! `q` ranges over the activations inside the busy period
//! (`δ_i⁻(q+1) < w_i(q)`).
//!
//! Tasks of *equal* priority are conservatively treated as interference
//! (they cannot be preempted mid-execution, but within a busy window every
//! pending equal-priority activation may be served first).

use hem_event_models::EventModel;
use hem_time::Time;

use crate::{fixed_point, AnalysisConfig, AnalysisError, AnalysisTask, ResponseTime, TaskResult};

/// Busy-window internals for one activation index `q` (diagnostics /
/// plotting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivationDetail {
    /// Activation index within the busy period (1-based).
    pub q: u64,
    /// Completion window `w(q)` of the first `q` activations.
    pub window: Time,
    /// Response time of the `q`-th activation: `w(q) − δ⁻(q)`.
    pub response: Time,
}

/// Analyses one task against its interferers on an SPP resource.
///
/// `interferers` must contain every task on the same resource with equal
/// or higher priority (the caller may simply pass all other tasks —
/// strictly lower-priority ones are filtered out here). `blocking` models
/// priority-inversion from shared resources or non-preemptable sections
/// (zero for pure SPP).
///
/// # Errors
///
/// Returns [`AnalysisError::NoConvergence`] when the busy window diverges
/// (resource overload) or exceeds the configured limits.
pub fn response_time(
    task: &AnalysisTask,
    interferers: &[AnalysisTask],
    blocking: Time,
    config: &AnalysisConfig,
) -> Result<TaskResult, AnalysisError> {
    Ok(response_details(task, interferers, blocking, config)?.0)
}

/// Like [`response_time`], but also returns the per-activation busy
/// windows and response times — useful for understanding *which*
/// activation of a bursty stream dominates, and for plotting `r(q)`.
///
/// # Errors
///
/// Same conditions as [`response_time`].
pub fn response_details(
    task: &AnalysisTask,
    interferers: &[AnalysisTask],
    blocking: Time,
    config: &AnalysisConfig,
) -> Result<(TaskResult, Vec<ActivationDetail>), AnalysisError> {
    let hp: Vec<&AnalysisTask> = interferers
        .iter()
        .filter(|t| !task.priority.is_higher_than(t.priority))
        .collect();
    let mut details = Vec::new();
    let mut worst = Time::ZERO;
    let mut q = 1u64;
    loop {
        let base = task.wcet * q as i64 + blocking;
        let w = fixed_point(
            &task.name,
            base,
            |w| {
                let interference: Time =
                    hp.iter().map(|j| j.wcet * j.input.eta_plus(w) as i64).sum();
                base + interference
            },
            config,
        )?;
        let response = w - task.input.delta_min(q);
        details.push(ActivationDetail {
            q,
            window: w,
            response,
        });
        worst = worst.max(response);
        // The busy period extends to activation q+1 iff it arrives before
        // the level-i busy window of the first q activations closes.
        if task.input.delta_min(q + 1) >= w {
            let r_minus = task.bcet;
            let result = TaskResult {
                name: task.name.clone(),
                response: ResponseTime::new(r_minus.min(worst), worst),
                busy_activations: q,
            };
            return Ok((result, details));
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

/// Analyses a complete SPP task set; results are returned in input order.
///
/// # Errors
///
/// Propagates the first [`AnalysisError`] encountered.
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
            response_time(&tasks[i], &others, Time::ZERO, config)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Priority;
    use hem_event_models::{EventModelExt, StandardEventModel};

    fn periodic_task(name: &str, cet: i64, prio: u32, period: i64) -> AnalysisTask {
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
    fn textbook_three_task_set() {
        // The classic example: C = (1, 2, 3), P = (4, 6, 12).
        let tasks = vec![
            periodic_task("t1", 1, 1, 4),
            periodic_task("t2", 2, 2, 6),
            periodic_task("t3", 3, 3, 12),
        ];
        let r = analyze(&tasks, &AnalysisConfig::default()).unwrap();
        assert_eq!(r[0].response.r_plus, Time::new(1));
        assert_eq!(r[1].response.r_plus, Time::new(3));
        // t3: classic RTA iteration 3 → 6 → 7 → 9 → 10 → 10.
        assert_eq!(r[2].response.r_plus, Time::new(10));
    }

    #[test]
    fn busy_period_spans_multiple_activations() {
        // Low-priority task with period shorter than its response time:
        // C = (2, 3), P = (4, 7). U = 0.5 + 3/7 ≈ 0.93.
        let tasks = vec![periodic_task("hi", 2, 1, 4), periodic_task("lo", 3, 2, 7)];
        let r = analyze(&tasks, &AnalysisConfig::default()).unwrap();
        // lo, q=1: w = 3 + 2·η⁺(w) → 3+2=5 → η(5)=2 → 7 → η(7)=2 → 7.
        // δ⁻(2) = 7 ≥ 7, busy period closes at q=1, R⁺ = 7.
        assert_eq!(r[1].response.r_plus, Time::new(7));
        assert_eq!(r[1].busy_activations, 1);
    }

    #[test]
    fn carried_busy_period() {
        // C = (26, 62), P = (70, 100): classic multi-frame busy period.
        let tasks = vec![
            periodic_task("hi", 26, 1, 70),
            periodic_task("lo", 62, 2, 100),
        ];
        let r = analyze(&tasks, &AnalysisConfig::default()).unwrap();
        // q=1: w = 62 + 26·η(w): 62+26=88 → η(88)=2 → 114 → η(114)=2 → 114.
        // δ⁻(2)=100 < 114 → q=2: w = 124 + 26·η(w): 124+52=176 → η(176)=3
        // → 202 → η(202)=3 → 202. r(2) = 202−100 = 102.
        // δ⁻(3)=200 < 202 → q=3: w = 186+26·η(w): 186+78=264 → η(264)=4 →
        // 290 → η(290)=5 → 316 → η(316)=5 → 316. r(3) = 316−200 = 116.
        // δ⁻(4)=300 < 316 → q=4: w = 248 + 26·η(w): ... continues until the
        // busy period closes. The final R⁺ must be at least 116.
        assert!(r[1].response.r_plus >= Time::new(116));
        assert!(r[1].busy_activations >= 3);
    }

    #[test]
    fn jittered_interferer_increases_response() {
        let hi = AnalysisTask::new(
            "hi",
            Time::new(24),
            Time::new(24),
            Priority::new(1),
            StandardEventModel::periodic_with_jitter(Time::new(250), Time::new(200))
                .unwrap()
                .shared(),
        );
        let lo = periodic_task("lo", 40, 2, 400);
        let r_jitter = response_time(&lo, &[hi], Time::ZERO, &AnalysisConfig::default()).unwrap();
        let hi_nj = periodic_task("hi", 24, 1, 250);
        let r_plain = response_time(&lo, &[hi_nj], Time::ZERO, &AnalysisConfig::default()).unwrap();
        assert!(r_jitter.response.r_plus > r_plain.response.r_plus);
    }

    #[test]
    fn blocking_adds_directly() {
        let hi = periodic_task("hi", 10, 1, 100);
        let lo = periodic_task("lo", 10, 2, 100);
        let without = response_time(
            &lo,
            std::slice::from_ref(&hi),
            Time::ZERO,
            &AnalysisConfig::default(),
        )
        .unwrap();
        let with = response_time(&lo, &[hi], Time::new(5), &AnalysisConfig::default()).unwrap();
        assert_eq!(with.response.r_plus, without.response.r_plus + Time::new(5));
    }

    #[test]
    fn lower_priority_interferers_are_ignored() {
        let hi = periodic_task("hi", 10, 1, 100);
        let lo = periodic_task("lo", 50, 9, 100);
        let r = response_time(&hi, &[lo], Time::ZERO, &AnalysisConfig::default()).unwrap();
        assert_eq!(r.response.r_plus, Time::new(10));
    }

    #[test]
    fn equal_priority_counts_as_interference() {
        let a = periodic_task("a", 10, 5, 100);
        let b = periodic_task("b", 20, 5, 100);
        let r = response_time(&a, &[b], Time::ZERO, &AnalysisConfig::default()).unwrap();
        assert_eq!(r.response.r_plus, Time::new(30));
    }

    #[test]
    fn overload_is_detected() {
        // U = 1.5: busy window diverges.
        let tasks = vec![periodic_task("hi", 3, 1, 4), periodic_task("lo", 3, 2, 4)];
        let err = analyze(
            &tasks,
            &AnalysisConfig::with_max_busy_window(Time::new(100_000)),
        )
        .unwrap_err();
        assert!(matches!(err, AnalysisError::NoConvergence { .. }));
    }

    #[test]
    fn details_expose_per_activation_windows() {
        // C = (26, 62), P = (70, 100): the multi-activation busy period.
        let tasks = [
            periodic_task("hi", 26, 1, 70),
            periodic_task("lo", 62, 2, 100),
        ];
        let (result, details) = response_details(
            &tasks[1],
            &tasks[..1],
            Time::ZERO,
            &AnalysisConfig::default(),
        )
        .unwrap();
        assert_eq!(details.len() as u64, result.busy_activations);
        // Windows grow strictly; responses peak somewhere in the middle.
        for pair in details.windows(2) {
            assert!(pair[1].window > pair[0].window);
            assert_eq!(pair[1].q, pair[0].q + 1);
        }
        let max_detail = details.iter().map(|d| d.response).max().unwrap();
        assert_eq!(max_detail, result.response.r_plus);
        // The known values of the first activations.
        assert_eq!(
            details[0],
            ActivationDetail {
                q: 1,
                window: Time::new(114),
                response: Time::new(114),
            }
        );
        assert_eq!(details[1].window, Time::new(202));
        assert_eq!(details[1].response, Time::new(102));
    }

    #[test]
    fn best_case_is_bcet() {
        let t = AnalysisTask::new(
            "t",
            Time::new(5),
            Time::new(9),
            Priority::new(1),
            StandardEventModel::periodic(Time::new(100))
                .unwrap()
                .shared(),
        );
        let r = response_time(&t, &[], Time::ZERO, &AnalysisConfig::default()).unwrap();
        assert_eq!(r.response.r_minus, Time::new(5));
        assert_eq!(r.response.r_plus, Time::new(9));
    }
}
