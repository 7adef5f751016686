//! Structured diagnostics for non-converged analyses.
//!
//! A compositional analysis that fails to converge still produces
//! information an integrator needs: *which* entity's response time kept
//! growing, what the last iterates looked like, and which resource is
//! the likely culprit. This module captures that as data instead of a
//! bare error, so design-space-exploration loops and interactive tools
//! can react (drop a candidate, relax a budget, highlight a bus)
//! without re-running anything.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use hem_analysis::{AnalysisError, ResponseTime};
use hem_obs::{ConvergenceTrace, IterationSnapshot, RtBound};

use crate::engine::IterationResults;
use crate::graph::Topology;

/// Per-entity convergence status after a (possibly aborted) analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvergenceStatus {
    /// The response time reached a fixed point.
    Converged,
    /// The response time grew strictly for the last `streak` global
    /// iterations without the growth slowing — the signature of a
    /// divergent jitter feedback loop.
    Growing {
        /// Length of the strict-growth streak when the analysis stopped.
        streak: u64,
    },
    /// The response time was still changing (but not monotonically
    /// growing) when the analysis stopped.
    Unsettled,
    /// The local analysis of this entity aborted (busy-window blow-up or
    /// budget exhaustion) before producing a response time.
    Failed,
    /// The entity was never analysed (the run stopped before reaching
    /// it).
    Unknown,
}

impl ConvergenceStatus {
    /// Whether this status denotes a usable (converged) response time.
    #[must_use]
    pub fn is_converged(&self) -> bool {
        matches!(self, ConvergenceStatus::Converged)
    }
}

/// Why the global iteration stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// All response times reached a fixed point.
    Converged,
    /// An entity's response time grew monotonically for the configured
    /// streak — the system is almost certainly unschedulable, so the
    /// engine stopped early instead of burning the full iteration limit.
    DivergenceDetected {
        /// The entity whose growth triggered the early stop.
        entity: String,
        /// Consecutive strictly-growing iterations observed.
        streak: u64,
    },
    /// A local busy-window analysis aborted.
    LocalAnalysisFailed {
        /// The task or frame whose local analysis failed.
        entity: String,
        /// The underlying local error.
        error: AnalysisError,
    },
    /// The wall-clock [`AnalysisBudget`](hem_analysis::AnalysisBudget)
    /// expired between global iterations.
    BudgetExhausted,
    /// `max_global_iterations` elapsed without a fixed point and without
    /// tripping the divergence heuristic.
    IterationLimitReached,
}

/// A structured post-mortem of a global analysis run.
///
/// Produced by [`analyze_robust`](crate::analyze_robust) for every run —
/// converged or not. Response-time vectors use prefixed keys
/// (`task:<name>` / `frame:<name>`) so tasks and frames sharing a name
/// cannot collide.
///
/// The run's per-iteration results are stored once, by spec position,
/// and shared with the warm-start snapshot of a converged
/// [`analyze_incremental`](crate::analyze_incremental) run: the trace
/// and both response-time vectors are views over them, built on call.
#[derive(Debug, Clone)]
pub struct Diagnostics {
    /// Why the run stopped.
    pub stop: StopReason,
    /// Completed global iterations.
    pub iterations: u64,
    /// Wall-clock time the run took, converged or not.
    pub elapsed: Duration,
    /// Entities flagged [`ConvergenceStatus::Growing`], longest streak
    /// first.
    pub diverging: Vec<String>,
    /// The resource (`cpu:<name>` / `bus:<name>`) hosting the first
    /// diverging or failed entity — a heuristic pointer, not a proof.
    pub suspected_bottleneck: Option<String>,
    /// The results of every completed global iteration.
    pub(crate) trajectory: Arc<[IterationResults]>,
    pub(crate) topology: Arc<Topology>,
}

impl Diagnostics {
    /// Per-iteration response-time snapshots of the whole run — the
    /// full trajectory towards (or away from) the fixed point, keyed
    /// like [`Diagnostics::last_response_times`].
    #[must_use]
    pub fn trace(&self) -> ConvergenceTrace {
        let mut trace = ConvergenceTrace::new();
        for (iteration, results) in (1..).zip(self.trajectory.iter()) {
            let response_times = self.entries(results).map(|(key, rt)| {
                let bound = RtBound::new(rt.r_minus.ticks(), rt.r_plus.ticks());
                (key.to_string(), bound)
            });
            trace.push(IterationSnapshot {
                iteration,
                response_times: response_times.collect(),
            });
        }
        trace
    }

    /// Response times of the last completed global iteration.
    #[must_use]
    pub fn last_response_times(&self) -> BTreeMap<String, ResponseTime> {
        self.response_times(1)
    }

    /// Response times of the iteration before that (empty if fewer than
    /// two iterations completed).
    #[must_use]
    pub fn previous_response_times(&self) -> BTreeMap<String, ResponseTime> {
        self.response_times(2)
    }

    /// The completed iteration `back` steps from the end (1 = the last).
    fn back(&self, back: usize) -> Option<&IterationResults> {
        let n = self.trajectory.len().checked_sub(back)?;
        self.trajectory.get(n)
    }

    fn response_times(&self, back: usize) -> BTreeMap<String, ResponseTime> {
        let entries = self.back(back).into_iter().flat_map(|r| self.entries(r));
        entries.map(|(key, rt)| (key.to_string(), rt)).collect()
    }

    /// Every entity's prefixed key and response time in `results`, in
    /// key order.
    fn entries<'a>(
        &'a self,
        results: &'a IterationResults,
    ) -> impl Iterator<Item = (&'a str, ResponseTime)> + 'a {
        let topology = &self.topology;
        let keys = (0..topology.entities.len()).map(|k| topology.entity_keys.get(k));
        keys.zip(topology.by_entity(&results.frames, &results.tasks))
            .map(|(key, record)| (key, record.response))
    }

    /// Whether the run converged.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.stop == StopReason::Converged
    }

    /// Whether the run was cut short by a wall-clock budget (either
    /// between global iterations or inside a local analysis).
    #[must_use]
    pub fn budget_exhausted(&self) -> bool {
        match &self.stop {
            StopReason::BudgetExhausted => true,
            StopReason::LocalAnalysisFailed { error, .. } => error.is_budget_exhausted(),
            _ => false,
        }
    }

    /// The entity most implicated in the failure, if any: the failing
    /// entity of a local abort, or the longest-streak growing entity.
    #[must_use]
    pub fn prime_suspect(&self) -> Option<&str> {
        match &self.stop {
            StopReason::LocalAnalysisFailed { entity, .. }
            | StopReason::DivergenceDetected { entity, .. } => Some(entity.as_str()),
            _ => self.diverging.first().map(String::as_str),
        }
    }

    /// A human-readable multi-line report.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        match &self.stop {
            StopReason::Converged => {
                let _ = writeln!(out, "converged after {} iteration(s)", self.iterations);
            }
            StopReason::DivergenceDetected { entity, streak } => {
                let _ = writeln!(
                    out,
                    "divergence detected after {} iteration(s): `{entity}` grew for {streak} \
                     consecutive iteration(s)",
                    self.iterations
                );
            }
            StopReason::LocalAnalysisFailed { entity, error } => {
                let _ = writeln!(
                    out,
                    "local analysis of `{entity}` aborted after {} global iteration(s): {error}",
                    self.iterations
                );
            }
            StopReason::BudgetExhausted => {
                let _ = writeln!(
                    out,
                    "wall-clock budget exhausted after {} iteration(s)",
                    self.iterations
                );
            }
            StopReason::IterationLimitReached => {
                let _ = writeln!(
                    out,
                    "no fixed point within {} iteration(s)",
                    self.iterations
                );
            }
        }
        if !self.elapsed.is_zero() {
            let _ = writeln!(out, "elapsed: {:?}", self.elapsed);
        }
        if let Some(resource) = &self.suspected_bottleneck {
            let _ = writeln!(out, "suspected bottleneck: {resource}");
        }
        if !self.diverging.is_empty() {
            let _ = writeln!(out, "diverging entities: {}", self.diverging.join(", "));
        }
        let last = self.back(1).into_iter().flat_map(|r| self.entries(r));
        let mut previous = self.back(2).map(|r| self.entries(r));
        for (key, rt) in last {
            match previous.as_mut().and_then(Iterator::next) {
                Some((_, prev)) if prev != rt => {
                    let _ = writeln!(out, "  {key:<24} {prev} -> {rt}");
                }
                _ => {
                    let _ = writeln!(out, "  {key:<24} {rt}");
                }
            }
        }
        out
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.summary().trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Record;
    use crate::spec::{ActivationSpec, SystemSpec, TaskSpec};
    use hem_event_models::{EventModelExt, StandardEventModel};
    use hem_time::Time;

    /// Diagnostics of a run over one task `gateway` on `ecu1`, whose
    /// completed iterations computed `[10, upper]` each.
    fn diagnostics(stop: StopReason, iterations: u64, upper: &[i64]) -> Diagnostics {
        let spec = SystemSpec::new().cpu("ecu1").task(TaskSpec {
            name: "gateway".into(),
            cpu: "ecu1".into(),
            bcet: Time::new(10),
            wcet: Time::new(10),
            priority: hem_analysis::Priority::new(1),
            activation: ActivationSpec::External(
                StandardEventModel::periodic(Time::new(100))
                    .expect("valid")
                    .shared(),
            ),
        });
        let trajectory = upper
            .iter()
            .map(|&hi| IterationResults {
                frames: Vec::new(),
                tasks: vec![Record {
                    response: ResponseTime::new(Time::new(10), Time::new(hi)),
                    busy_activations: 1,
                }],
            })
            .collect();
        Diagnostics {
            stop,
            iterations,
            elapsed: Duration::ZERO,
            diverging: Vec::new(),
            suspected_bottleneck: None,
            trajectory,
            topology: Arc::new(Topology::of(&spec)),
        }
    }

    #[test]
    fn summary_names_diverging_entity_and_vectors() {
        let stop = StopReason::DivergenceDetected {
            entity: "task:gateway".into(),
            streak: 12,
        };
        let mut d = diagnostics(stop, 17, &[500, 700, 900]);
        d.elapsed = Duration::from_millis(5);
        d.diverging = vec!["task:gateway".into()];
        d.suspected_bottleneck = Some("cpu:ecu1".into());
        let s = d.summary();
        assert!(s.contains("task:gateway"), "{s}");
        assert!(s.contains("cpu:ecu1"), "{s}");
        assert!(s.contains("[10, 700] -> [10, 900]"), "{s}");
        assert!(!d.converged());
        assert_eq!(d.prime_suspect(), Some("task:gateway"));
    }

    #[test]
    fn views_materialize_from_the_trajectory() {
        let d = diagnostics(StopReason::IterationLimitReached, 2, &[700, 900]);
        let rt = |hi| ResponseTime::new(Time::new(10), Time::new(hi));
        let key = "task:gateway".to_string();
        assert_eq!(
            d.last_response_times(),
            BTreeMap::from([(key.clone(), rt(900))])
        );
        assert_eq!(
            d.previous_response_times(),
            BTreeMap::from([(key, rt(700))])
        );
        let trace = d.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.series("task:gateway")[1], Some(RtBound::new(10, 900)));

        let once = diagnostics(StopReason::IterationLimitReached, 1, &[700]);
        assert_eq!(once.last_response_times().len(), 1);
        assert!(once.previous_response_times().is_empty());
        let s = once.summary();
        assert!(s.contains("[10, 700]") && !s.contains("->"), "{s}");
    }

    #[test]
    fn budget_exhaustion_detected_through_local_error() {
        let stop = StopReason::LocalAnalysisFailed {
            entity: "task:t".into(),
            error: AnalysisError::budget_exhausted("t"),
        };
        let d = diagnostics(stop, 0, &[]);
        assert!(d.budget_exhausted());
        assert_eq!(d.prime_suspect(), Some("task:t"));
        assert!(d.trace().is_empty());
        assert!(d.last_response_times().is_empty());
    }

    #[test]
    fn converged_diagnostics() {
        let d = diagnostics(StopReason::Converged, 4, &[]);
        assert!(d.converged());
        assert!(!d.budget_exhausted());
        assert_eq!(d.prime_suspect(), None);
        assert!(d.to_string().contains("converged after 4"));
    }
}
