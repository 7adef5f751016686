//! Global analysis configuration and results.

use std::collections::BTreeMap;
use std::sync::Arc;

use hem_analysis::{AnalysisBudget, AnalysisConfig, TaskResult};
use hem_event_models::ModelRef;
use hem_obs::RecorderHandle;

use crate::diagnostics::ConvergenceStatus;
use crate::graph::{Entity, Topology};
use crate::spec::AnalysisMode;

/// Configuration of the global system analysis.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Flat baseline or hierarchical event models.
    pub mode: AnalysisMode,
    /// Limits for each local busy-window analysis.
    pub local: AnalysisConfig,
    /// Maximum number of global fixed-point iterations.
    pub max_global_iterations: u64,
    /// Event-count horizon for the SEM fit used by
    /// [`AnalysisMode::FlatSem`] (larger = tighter baseline).
    pub sem_fit_horizon: u64,
    /// Apply the additive-closure refinement
    /// ([`AdditiveClosure`](hem_event_models::ops::AdditiveClosure)) to
    /// unpacked inner streams before they activate receivers. Off by
    /// default (paper-faithful Def. 9); switching it on can only tighten
    /// results.
    pub tighten_inner: bool,
    /// Stop early (reporting divergence) once some entity's worst-case
    /// response time has grown strictly — with non-shrinking increments —
    /// for this many consecutive global iterations. `0` disables the
    /// heuristic. Converging propagation chains grow for at most about
    /// as many iterations as the chain is deep and with shrinking
    /// increments near the fixed point, so the default of 12 is
    /// conservative for realistic topologies; raise it for unusually
    /// deep task chains.
    pub divergence_streak: u64,
    /// Width of [`explore`](crate::explore())'s candidate-chunk
    /// fan-out. `0` (the default) resolves from the `HEM_THREADS`
    /// environment variable, falling back to `1`. The analysis engine
    /// itself is sequential and ignores this value; exploration is
    /// bit-for-bit deterministic in it (see `docs/PARALLELISM.md`).
    pub threads: usize,
    /// Replace resolved event models with closed-form
    /// [`AnalyticCurve`](hem_event_models::AnalyticCurve) fast paths
    /// where an exact lift exists (see `docs/CURVES.md`). `None` (the
    /// default) resolves from the `HEM_ANALYTIC` environment variable,
    /// falling back to enabled. Results are bit-for-bit identical either
    /// way; the flag only trades query speed, so it does not participate
    /// in warm-start compatibility.
    pub analytic: Option<bool>,
}

impl SystemConfig {
    /// A configuration with default limits for the given mode.
    #[must_use]
    pub fn new(mode: AnalysisMode) -> Self {
        SystemConfig {
            mode,
            local: AnalysisConfig::default(),
            max_global_iterations: 64,
            sem_fit_horizon: 64,
            tighten_inner: false,
            divergence_streak: 12,
            threads: 0,
            analytic: None,
        }
    }

    /// This configuration with the given exploration fan-out width
    /// (`0` = resolve from `HEM_THREADS`, default `1`).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The effective fan-out width: `threads` when non-zero, otherwise
    /// [`env_threads`](crate::parallel::env_threads).
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        crate::parallel::env_threads()
    }

    /// This configuration with the analytic fast path pinned on or off
    /// (`None` = resolve from `HEM_ANALYTIC`, default enabled).
    #[must_use]
    pub fn with_analytic(mut self, analytic: Option<bool>) -> Self {
        self.analytic = analytic;
        self
    }

    /// Whether the analytic fast path is in effect: the explicit
    /// `analytic` setting when present, otherwise the `HEM_ANALYTIC`
    /// environment variable (`0` / `false` / `off` disable), otherwise
    /// enabled.
    #[must_use]
    pub fn analytic_enabled(&self) -> bool {
        if let Some(flag) = self.analytic {
            return flag;
        }
        match std::env::var("HEM_ANALYTIC") {
            Ok(v) => !matches!(
                v.trim().to_ascii_lowercase().as_str(),
                "0" | "false" | "off"
            ),
            Err(_) => true,
        }
    }

    /// This configuration with the given wall-clock budget applied to
    /// the whole analysis (global iterations and every local busy
    /// window).
    #[must_use]
    pub fn with_budget(mut self, budget: AnalysisBudget) -> Self {
        self.local.budget = budget;
        self
    }

    /// This configuration reporting to the given recorder (global
    /// iterations, every local busy window, and every event-model
    /// cache).
    #[must_use]
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.local.recorder = recorder;
        self
    }
}

/// The outcome of a global analysis.
///
/// Besides the response times that the paper's Table 3 reports, the
/// result keeps the final event models — frame output streams and
/// unpacked per-signal streams — which is what Figure 4 plots.
///
/// A result can be **partial**: [`analyze_robust`](crate::analyze_robust)
/// returns the work done so far even when the analysis did not converge.
/// [`SystemResults::is_complete`] distinguishes the cases, and
/// [`SystemResults::task_convergence`] /
/// [`SystemResults::frame_convergence`] report each entity's status.
/// Response times in a partial result are **lower bounds on the true
/// worst case**, not safe bounds — they must never be used to certify
/// deadlines.
///
/// Every per-entity table is laid out in the topology's entity order
/// (frames, then tasks, each sorted by name), and a name is found by
/// binary search over the topology's sorted keys.
#[derive(Debug)]
pub struct SystemResults {
    pub(crate) mode: AnalysisMode,
    pub(crate) iterations: u64,
    pub(crate) complete: bool,
    pub(crate) topology: Arc<Topology>,
    /// The last completed iteration's result of every entity (empty
    /// when no iteration completed).
    pub(crate) results: Vec<TaskResult>,
    /// Every entity's status; empty for a complete result, where every
    /// entity converged.
    pub(crate) statuses: Vec<ConvergenceStatus>,
    /// Every frame's bus-analysis input and every task's activation,
    /// where resolved (empty when nothing was).
    pub(crate) inputs: Vec<Option<ModelRef>>,
    /// Every frame's output stream (empty for a partial result).
    pub(crate) outputs: Vec<ModelRef>,
    /// Every signal's unpacked stream, in the topology's frame-major
    /// signal numbering (empty unless hierarchical and complete).
    pub(crate) unpacked: Vec<Option<ModelRef>>,
}

impl SystemResults {
    /// The analysis mode these results were computed under.
    #[must_use]
    pub fn mode(&self) -> AnalysisMode {
        self.mode
    }

    /// Whether the analysis converged. Response times of an incomplete
    /// result are lower bounds on the truth, not safe worst cases.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    fn status(&self, k: usize) -> ConvergenceStatus {
        if self.complete {
            ConvergenceStatus::Converged
        } else {
            self.statuses[k]
        }
    }

    fn find_task(&self, name: &str) -> Option<usize> {
        self.topology.find_entity("task:", name)
    }

    fn find_frame(&self, name: &str) -> Option<usize> {
        self.topology.find_entity("frame:", name)
    }

    fn statuses_of(
        &self,
        entities: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (&str, ConvergenceStatus)> {
        entities.map(|k| (self.topology.entity_name(k), self.status(k)))
    }

    fn results_of(
        &self,
        entities: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (&str, &TaskResult)> {
        let results = self.results.get(entities).unwrap_or_default();
        results.iter().map(|r| (r.name.as_str(), r))
    }

    /// Convergence status of a task (see [`ConvergenceStatus`]).
    #[must_use]
    pub fn task_convergence(&self, name: &str) -> Option<ConvergenceStatus> {
        self.find_task(name).map(|k| self.status(k))
    }

    /// Convergence status of a frame (see [`ConvergenceStatus`]).
    #[must_use]
    pub fn frame_convergence(&self, name: &str) -> Option<ConvergenceStatus> {
        self.find_frame(name).map(|k| self.status(k))
    }

    /// Every task's convergence status, ordered by name (the order of
    /// [`SystemResults::tasks`]).
    pub fn task_statuses(&self) -> impl Iterator<Item = (&str, ConvergenceStatus)> {
        self.statuses_of(self.topology.task_entities())
    }

    /// Every frame's convergence status, ordered by name (the order of
    /// [`SystemResults::frames`]).
    pub fn frame_statuses(&self) -> impl Iterator<Item = (&str, ConvergenceStatus)> {
        self.statuses_of(self.topology.frame_entities())
    }

    /// Number of global iterations until the fixed point.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Response-time result of a task, if it exists.
    #[must_use]
    pub fn task(&self, name: &str) -> Option<&TaskResult> {
        self.results.get(self.find_task(name)?)
    }

    /// Response-time result of a frame, if it exists.
    #[must_use]
    pub fn frame(&self, name: &str) -> Option<&TaskResult> {
        self.results.get(self.find_frame(name)?)
    }

    /// All task results, ordered by name.
    pub fn tasks(&self) -> impl Iterator<Item = (&str, &TaskResult)> {
        self.results_of(self.topology.task_entities())
    }

    /// All frame results, ordered by name.
    pub fn frames(&self) -> impl Iterator<Item = (&str, &TaskResult)> {
        self.results_of(self.topology.frame_entities())
    }

    /// The final activation event model of a task (what its local
    /// analysis saw in the last iteration).
    #[must_use]
    pub fn task_activation(&self, name: &str) -> Option<&ModelRef> {
        self.inputs.get(self.find_task(name)?)?.as_ref()
    }

    /// The frame-activation stream the bus analysis consumed (the outer
    /// stream before transport; the SEM fit under `FlatSem`).
    #[must_use]
    pub fn frame_activation(&self, name: &str) -> Option<&ModelRef> {
        self.inputs.get(self.find_frame(name)?)?.as_ref()
    }

    /// The output stream of a frame after bus transport (the flat /
    /// outer view) — the black-dotted curve of the paper's Figure 4.
    #[must_use]
    pub fn frame_output(&self, name: &str) -> Option<&ModelRef> {
        self.outputs.get(self.find_frame(name)?)
    }

    /// The unpacked stream of `signal` transported by `frame` after bus
    /// transport — the per-task curves of Figure 4. Present only under
    /// [`AnalysisMode::Hierarchical`].
    #[must_use]
    pub fn unpacked_signal(&self, frame: &str, signal: &str) -> Option<&ModelRef> {
        let topology = &self.topology;
        let Entity::Frame(j) = topology.entities[self.find_frame(frame)?] else {
            unreachable!("frame keys name frames")
        };
        let s = topology
            .frame_signals(j)
            .find(|&s| topology.signal_names.get(s) == signal)?;
        self.unpacked.get(s)?.as_ref()
    }

    /// Every response time, keyed by prefixed entity (`task:<name>` /
    /// `frame:<name>`) — a convenient flattened view for diffing two
    /// runs, e.g. asserting incremental results equal from-scratch ones.
    #[must_use]
    pub fn response_times(&self) -> BTreeMap<String, hem_analysis::ResponseTime> {
        self.results
            .iter()
            .enumerate()
            .map(|(k, r)| (self.topology.entity_keys.get(k).to_string(), r.response))
            .collect()
    }
}

pub(crate) fn signal_key(frame: &str, signal: &str) -> String {
    format!("{frame}/{signal}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults() {
        let c = SystemConfig::new(AnalysisMode::Hierarchical);
        assert_eq!(c.mode, AnalysisMode::Hierarchical);
        assert!(c.max_global_iterations >= 8);
    }

    #[test]
    fn explicit_threads_win_over_env() {
        let c = SystemConfig::new(AnalysisMode::Hierarchical).with_threads(4);
        assert_eq!(c.resolved_threads(), 4);
    }

    #[test]
    fn key_format() {
        assert_eq!(signal_key("F1", "s2"), "F1/s2");
    }
}
