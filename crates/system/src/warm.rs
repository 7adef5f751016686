//! Incremental warm-start analysis.
//!
//! Sweep workloads re-run the global fixed point from scratch for every
//! scenario even though neighbouring scenarios differ in a single
//! parameter. This module reuses a converged run instead: a
//! [`WarmStart`] snapshot captures the full per-iteration result
//! trajectory of a converged analysis, a spec diff computes the *damage
//! cone* — the resources transitively reachable from any mutated entity
//! in the [`ResourceGraph`] — and [`analyze_incremental`] re-runs the
//! fixed point replaying every entity outside the cone from the
//! snapshot: its resolved models (activation streams, packings, outer
//! streams) and its busy-window results, so each iteration costs
//! O(damage cone).
//!
//! # Why replaying is exact
//!
//! An entity outside the damage cone depends — directly or transitively,
//! in the same or a previous iteration — only on entities outside the
//! cone (the cone is closed under dependents). That sub-system is
//! bit-identical to the snapshot's, so its per-iteration trajectory in a
//! from-scratch run of the mutated spec *equals the recorded
//! trajectory*: iteration `i` replays the snapshot's iteration
//! `min(i, n)` (after its convergence iteration `n` a converged
//! sub-system repeats itself). Replay therefore preserves results,
//! convergence traces, iteration counts, stop reasons, and divergence
//! diagnostics **bit for bit** — the same correctness bar as the
//! parallel engine's, and enforced at every thread count by the
//! `incremental_equivalence` suite. The same argument covers the
//! resolved models: an entity outside the cone resolves to models equal
//! to the recorded ones. Only *work* counters (busy-window iterations,
//! analytic lifts and fallbacks, curve-cache traffic) shrink; see
//! `docs/INCREMENTAL.md` for the exact equality contract.
//!
//! # Fallbacks
//!
//! Reuse is refused — falling back to a full from-scratch run, reported
//! via [`FallbackReason`] and the `full_fallbacks` counter — when there
//! is no usable snapshot, when analysis-shaping configuration changed,
//! when the topology changed structurally (entities added, removed,
//! reordered, or re-hosted), or when the propagation graph has
//! dependency cycles (the cyclic sub-system is analysed by a lazy
//! sequential path whose work cannot be partitioned by resource).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use hem_analysis::TaskResult;
use hem_obs::Counter;
use hem_time::Time;

use crate::engine::{
    run_with, validate, Capture, EngineWarm, Resolution, RobustAnalysis, RunOutcome,
};
use crate::graph::{PropagationLevels, ResourceGraph};
use crate::result::SystemConfig;
use crate::spec::{ActivationSpec, AnalysisMode, SignalSpec, SystemSpec};
use crate::SystemError;

/// A reusable snapshot of a **converged** analysis: the analysed spec,
/// the analysis-shaping configuration, and the per-iteration results
/// and resolved models.
///
/// Produced by [`analyze_incremental`] (the `snapshot` field of its
/// outcome) and fed back into the next call. Snapshots are only taken
/// from converged runs — a stopped run's trajectory is not a fixed
/// point and cannot seed a replay.
#[derive(Debug)]
pub struct WarmStart {
    /// The spec the snapshot was computed from, kept alive so external
    /// event models can be compared by allocation identity (an `Arc`
    /// address can only be trusted while the original is alive).
    spec: SystemSpec,
    mode: AnalysisMode,
    sem_fit_horizon: u64,
    tighten_inner: bool,
    max_busy_window: Time,
    max_activations: u64,
    max_iterations: u64,
    /// `(frame results, task results)` of iterations `1..=n`.
    trajectory: Vec<(BTreeMap<String, TaskResult>, BTreeMap<String, TaskResult>)>,
    /// The resolved models of iterations `1..=n`, indexed by spec
    /// position, seeded into clean entities of the next run.
    resolutions: Vec<Resolution>,
}

/// The snapshot state replayed for one global iteration.
pub(crate) struct Replay<'w> {
    pub(crate) frames: &'w BTreeMap<String, TaskResult>,
    pub(crate) tasks: &'w BTreeMap<String, TaskResult>,
    pub(crate) resolution: &'w Resolution,
}

impl WarmStart {
    pub(crate) fn assemble(spec: &SystemSpec, config: &SystemConfig, capture: Capture) -> Self {
        WarmStart {
            spec: spec.clone(),
            mode: config.mode,
            sem_fit_horizon: config.sem_fit_horizon,
            tighten_inner: config.tighten_inner,
            max_busy_window: config.local.max_busy_window,
            max_activations: config.local.max_activations,
            max_iterations: config.local.max_iterations,
            trajectory: capture.trajectory,
            resolutions: capture.resolutions,
        }
    }

    /// Number of global iterations the snapshot recorded (equals the
    /// captured run's iteration count).
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.trajectory.len() as u64
    }

    /// The recorded state for global iteration `iteration` (1-based),
    /// clamped to the trajectory: past the snapshot's convergence
    /// iteration a converged sub-system repeats its final state.
    pub(crate) fn replay(&self, iteration: u64) -> Replay<'_> {
        let idx = iteration
            .min(self.trajectory.len() as u64)
            .saturating_sub(1) as usize;
        let (frames, tasks) = &self.trajectory[idx];
        Replay {
            frames,
            tasks,
            resolution: &self.resolutions[idx],
        }
    }

    /// Whether the configuration knobs that shape per-entity results
    /// match the snapshot's. Thread count and global stop limits
    /// (`max_global_iterations`, `divergence_streak`) are deliberately
    /// not compared: they never alter the per-iteration trajectory,
    /// only where a run stops — and replay follows the new run's own
    /// stopping logic.
    fn compatible(&self, config: &SystemConfig) -> bool {
        self.mode == config.mode
            && self.sem_fit_horizon == config.sem_fit_horizon
            && self.tighten_inner == config.tighten_inner
            && self.max_busy_window == config.local.max_busy_window
            && self.max_activations == config.local.max_activations
            && self.max_iterations == config.local.max_iterations
    }
}

/// Why an incremental analysis fell back to a full from-scratch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// No snapshot was supplied (the first run of a chain).
    NoSnapshot,
    /// Analysis-shaping configuration differs from the snapshot's
    /// (mode, SEM fit horizon, inner tightening, or local busy-window
    /// limits).
    ConfigChanged,
    /// The topology changed structurally: entities added, removed,
    /// reordered, or moved to another resource.
    StructuralChange,
    /// The propagation graph has resource-level dependency cycles; the
    /// sequential cycle fallback cannot be partitioned by resource.
    DependencyCycles,
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FallbackReason::NoSnapshot => "no snapshot",
            FallbackReason::ConfigChanged => "configuration changed",
            FallbackReason::StructuralChange => "structural change",
            FallbackReason::DependencyCycles => "dependency cycles",
        })
    }
}

/// How much of a run [`analyze_incremental`] reused.
#[derive(Debug, Clone)]
pub struct ReuseReport {
    /// Whether the run was warm-started (false = full fallback).
    pub warm: bool,
    /// Why reuse was refused, when it was.
    pub fallback: Option<FallbackReason>,
    /// The damage cone: prefixed resource keys (`bus:<b>` / `cpu:<c>`)
    /// that were re-analysed, in sorted order. On a fallback this is
    /// every resource.
    pub dirty_resources: Vec<String>,
    /// Total number of resources in the system.
    pub total_resources: usize,
    /// Per-entity busy-window analyses replayed from the snapshot
    /// across all completed iterations (the `warm_start_hits` counter).
    pub replayed_results: u64,
}

impl ReuseReport {
    /// Fraction of resources inside the damage cone (`1.0` on a full
    /// fallback or for an empty system).
    #[must_use]
    pub fn cone_fraction(&self) -> f64 {
        if self.total_resources == 0 {
            1.0
        } else {
            self.dirty_resources.len() as f64 / self.total_resources as f64
        }
    }
}

/// The outcome of [`analyze_incremental`].
#[derive(Debug)]
pub struct IncrementalOutcome {
    /// Results and diagnostics — bit-for-bit identical to what
    /// [`analyze_robust`](crate::analyze_robust) returns for the same
    /// spec and configuration.
    pub analysis: RobustAnalysis,
    /// A snapshot for the next call in the chain. `None` when the run
    /// did not converge.
    pub snapshot: Option<WarmStart>,
    /// What was reused.
    pub reuse: ReuseReport,
}

/// Runs the global analysis, reusing a previous run's [`WarmStart`]
/// snapshot where the spec diff proves it sound.
///
/// With `warm = None` (or whenever reuse must be refused, see
/// [`FallbackReason`]) this is exactly
/// [`analyze_robust`](crate::analyze_robust) plus a snapshot of the
/// converged run. With a usable snapshot, entities outside the damage
/// cone of the mutation replay their recorded per-iteration models and
/// results instead of being resolved and re-running busy-window
/// analyses — the returned results, diagnostics, and convergence traces
/// are **bit-for-bit identical** to a from-scratch run, at every thread
/// count.
///
/// Reuse is visible in the recorder: `warm_start_hits` (replayed
/// per-entity analyses), `cone_size` (resources re-analysed), and
/// `full_fallbacks` (runs that could not reuse anything).
///
/// Spec diffing compares external event models by `Arc` identity:
/// scenario builders must *clone and modify* the previous spec so
/// untouched activations keep their allocations (rebuilding an
/// identical model in a new `Arc` widens the cone — sound, but without
/// reuse).
///
/// # Examples
///
/// ```
/// use hem_system::{analyze_incremental, AnalysisMode, SystemConfig, SystemSpec};
///
/// let spec = SystemSpec::new().cpu("ecu");
/// let config = SystemConfig::new(AnalysisMode::Hierarchical);
/// let first = analyze_incremental(&spec, &config, None)?;
/// // Re-analysing an unchanged spec replays everything.
/// let second = analyze_incremental(&spec, &config, first.snapshot.as_ref())?;
/// assert!(second.reuse.warm);
/// assert!(second.reuse.dirty_resources.is_empty());
/// # Ok::<(), hem_system::SystemError>(())
/// ```
///
/// # Errors
///
/// Exactly the spec errors of [`analyze_robust`](crate::analyze_robust):
/// duplicates, dangling references, unsupported constructs, and invalid
/// CAN/COM/model configurations.
pub fn analyze_incremental(
    spec: &SystemSpec,
    config: &SystemConfig,
    warm: Option<&WarmStart>,
) -> Result<IncrementalOutcome, SystemError> {
    validate(spec)?;
    let levels = PropagationLevels::of(spec);
    let recorder = config.local.recorder.clone();
    let graph = ResourceGraph::of(spec);
    let total_resources = graph.len();
    match plan(spec, config, warm, &graph, &levels) {
        Ok((engine_warm, dirty)) => {
            recorder.add(Counter::ConeSize, dirty.len() as u64);
            let (outcome, capture, replayed) =
                run_with(spec, config, &levels, Some(&engine_warm), true)?;
            finish(
                spec,
                config,
                outcome,
                capture,
                ReuseReport {
                    warm: true,
                    fallback: None,
                    dirty_resources: dirty,
                    total_resources,
                    replayed_results: replayed,
                },
            )
        }
        Err(reason) => {
            recorder.add(Counter::FullFallbacks, 1);
            recorder.add(Counter::ConeSize, total_resources as u64);
            let (outcome, capture, _) = run_with(spec, config, &levels, None, true)?;
            finish(
                spec,
                config,
                outcome,
                capture,
                ReuseReport {
                    warm: false,
                    fallback: Some(reason),
                    dirty_resources: graph.resources().map(String::from).collect(),
                    total_resources,
                    replayed_results: 0,
                },
            )
        }
    }
}

fn finish(
    spec: &SystemSpec,
    config: &SystemConfig,
    outcome: RunOutcome,
    capture: Option<Capture>,
    reuse: ReuseReport,
) -> Result<IncrementalOutcome, SystemError> {
    let snapshot = capture.map(|c| WarmStart::assemble(spec, config, c));
    let analysis = match outcome {
        RunOutcome::Converged {
            results,
            diagnostics,
        } => RobustAnalysis {
            results,
            diagnostics,
        },
        RunOutcome::Stopped {
            partial,
            diagnostics,
        } => RobustAnalysis {
            results: partial,
            diagnostics,
        },
    };
    Ok(IncrementalOutcome {
        analysis,
        snapshot,
        reuse,
    })
}

/// Decides between a warm plan (the engine's clean-resource flags plus
/// the sorted dirty cone) and a fallback.
fn plan<'w>(
    spec: &SystemSpec,
    config: &SystemConfig,
    warm: Option<&'w WarmStart>,
    graph: &ResourceGraph,
    levels: &PropagationLevels,
) -> Result<(EngineWarm<'w>, Vec<String>), FallbackReason> {
    let snapshot = warm.ok_or(FallbackReason::NoSnapshot)?;
    if snapshot.trajectory.is_empty() {
        return Err(FallbackReason::NoSnapshot);
    }
    if !snapshot.compatible(config) {
        return Err(FallbackReason::ConfigChanged);
    }
    let seeds = diff(&snapshot.spec, spec).ok_or(FallbackReason::StructuralChange)?;
    if levels.has_cycles() {
        return Err(FallbackReason::DependencyCycles);
    }
    let cone = graph.dependents_closure(seeds);
    let clean = |kind: &str, name: &str| !cone.contains(&format!("{kind}:{name}"));
    let engine_warm = EngineWarm {
        clean_buses: spec.buses.iter().map(|b| clean("bus", &b.name)).collect(),
        clean_cpus: spec.cpus.iter().map(|c| clean("cpu", &c.name)).collect(),
        snapshot,
    };
    Ok((engine_warm, cone.into_iter().collect()))
}

/// The directly mutated resources between two structurally equal specs
/// (prefixed keys), or `None` when the change is structural — entities
/// added, removed, reordered, or re-hosted — and invalidation at
/// resource granularity no longer applies.
fn diff(old: &SystemSpec, new: &SystemSpec) -> Option<BTreeSet<String>> {
    if old.cpus.len() != new.cpus.len()
        || old.buses.len() != new.buses.len()
        || old.tasks.len() != new.tasks.len()
        || old.frames.len() != new.frames.len()
    {
        return None;
    }
    let mut seeds = BTreeSet::new();
    for (o, n) in old.cpus.iter().zip(&new.cpus) {
        if o.name != n.name {
            return None;
        }
    }
    for (o, n) in old.buses.iter().zip(&new.buses) {
        if o.name != n.name {
            return None;
        }
        if o.config != n.config {
            seeds.insert(format!("bus:{}", n.name));
        }
    }
    for (o, n) in old.tasks.iter().zip(&new.tasks) {
        if o.name != n.name || o.cpu != n.cpu {
            return None;
        }
        if o.bcet != n.bcet
            || o.wcet != n.wcet
            || o.priority != n.priority
            || !same_activation(&o.activation, &n.activation)
        {
            seeds.insert(format!("cpu:{}", n.cpu));
        }
    }
    for (o, n) in old.frames.iter().zip(&new.frames) {
        if o.name != n.name || o.bus != n.bus {
            return None;
        }
        if o.frame_type != n.frame_type
            || o.payload_bytes != n.payload_bytes
            || o.format != n.format
            || o.priority != n.priority
            || !same_signals(&o.signals, &n.signals)
        {
            seeds.insert(format!("bus:{}", n.bus));
        }
    }
    Some(seeds)
}

fn same_signals(old: &[SignalSpec], new: &[SignalSpec]) -> bool {
    old.len() == new.len()
        && old.iter().zip(new).all(|(o, n)| {
            o.name == n.name && o.transfer == n.transfer && same_activation(&o.source, &n.source)
        })
}

/// Structural equality of activation wiring. External event models are
/// opaque trait objects without an equality; the only reliable
/// "unchanged" signal is sharing the same allocation, so they compare
/// by `Arc` address — the input-model fingerprint. A false negative
/// (equal model, fresh allocation) merely widens the cone: sound, just
/// without reuse. The snapshot keeps its spec alive, so a matching
/// address genuinely is the same model.
fn same_activation(a: &ActivationSpec, b: &ActivationSpec) -> bool {
    match (a, b) {
        (ActivationSpec::External(x), ActivationSpec::External(y)) => {
            std::ptr::addr_eq(Arc::as_ptr(x), Arc::as_ptr(y))
        }
        (ActivationSpec::TaskOutput(x), ActivationSpec::TaskOutput(y)) => x == y,
        (
            ActivationSpec::Signal {
                frame: fa,
                signal: sa,
            },
            ActivationSpec::Signal {
                frame: fb,
                signal: sb,
            },
        ) => fa == fb && sa == sb,
        (ActivationSpec::FrameArrivals(x), ActivationSpec::FrameArrivals(y)) => x == y,
        (ActivationSpec::AnyOf(xs), ActivationSpec::AnyOf(ys))
        | (ActivationSpec::AllOf(xs), ActivationSpec::AllOf(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_activation(x, y))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FrameSpec, SignalSpec, TaskSpec};
    use hem_analysis::Priority;
    use hem_autosar_com::{FrameType, TransferProperty};
    use hem_can::{CanBusConfig, FrameFormat};
    use hem_event_models::{EventModelExt, ModelRef, StandardEventModel};

    fn periodic(p: i64) -> ModelRef {
        StandardEventModel::periodic(Time::new(p)).unwrap().shared()
    }

    fn task(name: &str, cpu: &str, wcet: i64, act: ActivationSpec) -> TaskSpec {
        TaskSpec {
            name: name.into(),
            cpu: cpu.into(),
            bcet: Time::new(wcet),
            wcet: Time::new(wcet),
            priority: Priority::new(1),
            activation: act,
        }
    }

    /// Two islands: can0+cpu_a (F0 → t0) and can1+cpu_b (F1 → t1).
    fn two_island_spec() -> SystemSpec {
        SystemSpec::new()
            .cpu("cpu_a")
            .cpu("cpu_b")
            .bus("can0", CanBusConfig::new(Time::new(1)))
            .bus("can1", CanBusConfig::new(Time::new(1)))
            .frame(frame("F0", "can0", vec![("s", periodic(500))]))
            .frame(frame("F1", "can1", vec![("s", periodic(700))]))
            .task(task(
                "t0",
                "cpu_a",
                30,
                ActivationSpec::Signal {
                    frame: "F0".into(),
                    signal: "s".into(),
                },
            ))
            .task(task(
                "t1",
                "cpu_b",
                40,
                ActivationSpec::Signal {
                    frame: "F1".into(),
                    signal: "s".into(),
                },
            ))
    }

    fn frame(name: &str, bus: &str, signals: Vec<(&str, ModelRef)>) -> FrameSpec {
        FrameSpec {
            name: name.into(),
            bus: bus.into(),
            frame_type: FrameType::Direct,
            payload_bytes: 4,
            format: FrameFormat::Standard,
            priority: Priority::new(1),
            signals: signals
                .into_iter()
                .map(|(n, m)| SignalSpec {
                    name: n.into(),
                    transfer: TransferProperty::Triggering,
                    source: ActivationSpec::External(m),
                })
                .collect(),
        }
    }

    #[test]
    fn diff_unchanged_clone_is_empty() {
        let spec = two_island_spec();
        let copy = spec.clone();
        assert_eq!(diff(&spec, &copy), Some(BTreeSet::new()));
    }

    #[test]
    fn diff_seeds_mutated_resources() {
        let spec = two_island_spec();
        let mut mutated = spec.clone();
        mutated.tasks[0].wcet = Time::new(35);
        assert_eq!(
            diff(&spec, &mutated),
            Some(BTreeSet::from(["cpu:cpu_a".to_string()]))
        );

        let mut mutated = spec.clone();
        mutated.frames[1].payload_bytes = 8;
        mutated.buses[0].config = CanBusConfig::new(Time::new(2));
        assert_eq!(
            diff(&spec, &mutated),
            Some(BTreeSet::from([
                "bus:can0".to_string(),
                "bus:can1".to_string()
            ]))
        );

        // Replacing an external model — even an equal one — seeds the
        // frame's bus: identity, not value, is the fingerprint.
        let mut mutated = spec.clone();
        mutated.frames[0].signals[0].source = ActivationSpec::External(periodic(500));
        assert_eq!(
            diff(&spec, &mutated),
            Some(BTreeSet::from(["bus:can0".to_string()]))
        );
    }

    #[test]
    fn diff_rejects_structural_changes() {
        let spec = two_island_spec();

        let mutated = spec.clone().cpu("extra");
        assert_eq!(diff(&spec, &mutated), None);

        let mut mutated = spec.clone();
        mutated.tasks[0].cpu = "cpu_b".into();
        assert_eq!(diff(&spec, &mutated), None);

        let mut mutated = spec.clone();
        mutated.frames.swap(0, 1);
        assert_eq!(diff(&spec, &mutated), None);

        let mut mutated = spec.clone();
        mutated.tasks.pop();
        assert_eq!(diff(&spec, &mutated), None);
    }

    #[test]
    fn same_activation_compares_structurally_and_by_arc() {
        let m = periodic(100);
        let a = ActivationSpec::AnyOf(vec![
            ActivationSpec::External(m.clone()),
            ActivationSpec::TaskOutput("t".into()),
        ]);
        let b = ActivationSpec::AnyOf(vec![
            ActivationSpec::External(m),
            ActivationSpec::TaskOutput("t".into()),
        ]);
        assert!(same_activation(&a, &b));
        let c = ActivationSpec::AnyOf(vec![
            ActivationSpec::External(periodic(100)),
            ActivationSpec::TaskOutput("t".into()),
        ]);
        assert!(!same_activation(&a, &c));
        assert!(!same_activation(
            &ActivationSpec::TaskOutput("t".into()),
            &ActivationSpec::FrameArrivals("t".into())
        ));
    }

    #[test]
    fn warm_chain_replays_clean_island() {
        let config = SystemConfig::new(AnalysisMode::Hierarchical);
        let spec = two_island_spec();
        let first = analyze_incremental(&spec, &config, None).unwrap();
        assert!(!first.reuse.warm);
        assert_eq!(first.reuse.fallback, Some(FallbackReason::NoSnapshot));
        assert!((first.reuse.cone_fraction() - 1.0).abs() < f64::EPSILON);
        let snapshot = first.snapshot.as_ref().expect("converged run snapshots");
        assert!(snapshot.iterations() >= 2);

        // Mutate island 0 only: island 1 replays.
        let mut mutated = spec.clone();
        mutated.tasks[0].wcet = Time::new(35);
        let second = analyze_incremental(&mutated, &config, Some(snapshot)).unwrap();
        assert!(second.reuse.warm);
        // t0 consumes F0 but feeds nothing back: only its CPU is dirty.
        assert_eq!(second.reuse.dirty_resources, ["cpu:cpu_a"]);
        assert!(second.reuse.replayed_results > 0);

        // Bit-identical to a from-scratch run of the mutated spec.
        let cold = crate::analyze_robust(&mutated, &config).unwrap();
        assert_eq!(
            second.analysis.results.response_times(),
            cold.results.response_times()
        );
        assert_eq!(
            second.analysis.diagnostics.iterations,
            cold.diagnostics.iterations
        );
        assert_eq!(second.analysis.diagnostics.trace, cold.diagnostics.trace);
    }

    #[test]
    fn config_change_falls_back() {
        let config = SystemConfig::new(AnalysisMode::Hierarchical);
        let spec = two_island_spec();
        let first = analyze_incremental(&spec, &config, None).unwrap();
        let snapshot = first.snapshot.as_ref().unwrap();
        let other = SystemConfig::new(AnalysisMode::Flat);
        let second = analyze_incremental(&spec, &other, Some(snapshot)).unwrap();
        assert!(!second.reuse.warm);
        assert_eq!(second.reuse.fallback, Some(FallbackReason::ConfigChanged));
    }
}
