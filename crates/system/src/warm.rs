//! Incremental warm-start analysis.
//!
//! Sweep workloads re-run the global fixed point from scratch for every
//! scenario even though neighbouring scenarios differ in a single
//! parameter. This module reuses a converged run instead: a
//! [`WarmStart`] snapshot captures the full per-iteration result
//! trajectory of a converged analysis, a spec diff computes the *damage
//! cone* — the resources transitively reachable from any mutated entity
//! in the resource dependency graph — and
//! [`analyze_incremental`] re-runs the fixed point replaying every
//! entity outside the cone from the snapshot: its resolved models
//! (activation streams, packings, outer streams) and its busy-window
//! results, so each iteration costs O(damage cone).
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
//! diagnostics **bit for bit**, enforced by the
//! `incremental_equivalence` suite. The same argument covers the
//! resolved models: an entity outside the cone resolves to models equal
//! to the recorded ones. Only *work* counters (busy-window iterations,
//! analytic lifts and fallbacks) shrink; see
//! `docs/INCREMENTAL.md` for the exact equality contract.
//!
//! # Fallbacks
//!
//! Reuse is refused — falling back to a full from-scratch run, reported
//! via [`FallbackReason`] and the `full_fallbacks` counter — when there
//! is no usable snapshot, when analysis-shaping configuration changed,
//! or when the topology changed structurally (entities added, removed,
//! reordered, or re-hosted).
//!
//! A dependency cycle needs no fallback. A snapshot comes from a
//! converged, hence acyclic, run, so a cycle in the edited spec passes
//! through a mutated resource; the cone is closed under dependents, so
//! every member of the cycle is dirty, and the warm run meets the cycle
//! exactly where a cold run does and fails with the same error.

use std::sync::Arc;

use hem_analysis::Priority;
use hem_autosar_com::{FrameType, TransferProperty};
use hem_can::{CanBusConfig, CanFrameConfig, FrameFormat};
use hem_event_models::ModelRef;
use hem_obs::Counter;
use hem_time::Time;

use crate::engine::{run_with, validate, EngineWarm, IterationResults, Resolution, RobustAnalysis};
use crate::graph::{Topology, Wire};
use crate::result::SystemConfig;
use crate::spec::{ActivationSpec, AnalysisMode, FrameSpec, SystemSpec, TaskSpec};
use crate::SystemError;

/// A reusable snapshot of a **converged** analysis: the analysed spec's
/// topology and value fingerprint, the analysis-shaping configuration,
/// and the per-iteration results and resolved models.
///
/// Produced by [`analyze_incremental`] (the `snapshot` field of its
/// outcome) and fed back into the next call. Snapshots are only taken
/// from converged runs — a stopped run's trajectory is not a fixed
/// point and cannot seed a replay.
#[derive(Debug)]
pub struct WarmStart {
    /// The analysed spec's topology, shared with every later snapshot
    /// of a spec with the same names, hosting and wiring.
    topology: Arc<Topology>,
    /// The analysed spec's values, which the next spec is diffed
    /// against.
    fingerprint: Fingerprint,
    mode: AnalysisMode,
    sem_fit_horizon: u64,
    max_busy_window: Time,
    max_activations: u64,
    max_iterations: u64,
    /// The results of iterations `1..=n`, by spec position, shared with
    /// the captured run's [`Diagnostics`](crate::Diagnostics).
    trajectory: Arc<[IterationResults]>,
    /// The resolved models of iterations `1..=n`, indexed by spec
    /// position, seeded into clean entities of the next run.
    resolutions: Vec<Resolution>,
}

/// The snapshot state replayed for one global iteration.
pub(crate) struct Replay<'w> {
    pub(crate) results: &'w IterationResults,
    pub(crate) resolution: &'w Resolution,
}

impl WarmStart {
    fn assemble(
        topology: Arc<Topology>,
        spec: &SystemSpec,
        config: &SystemConfig,
        trajectory: Arc<[IterationResults]>,
        resolutions: Vec<Resolution>,
    ) -> Self {
        WarmStart {
            topology,
            fingerprint: Fingerprint::of(spec),
            mode: config.mode,
            sem_fit_horizon: config.sem_fit_horizon,
            max_busy_window: config.local.max_busy_window,
            max_activations: config.local.max_activations,
            max_iterations: config.local.max_iterations,
            trajectory,
            resolutions,
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
        Replay {
            results: &self.trajectory[idx],
            resolution: &self.resolutions[idx],
        }
    }

    /// Whether the configuration knobs that shape per-entity results
    /// match the snapshot's. `threads` (explore's fan-out width, which no
    /// analysis reads) and the global stop limits
    /// (`max_global_iterations`, `divergence_streak`) are deliberately
    /// not compared: they never alter the per-iteration trajectory,
    /// only where a run stops — and replay follows the new run's own
    /// stopping logic.
    fn compatible(&self, config: &SystemConfig) -> bool {
        self.mode == config.mode
            && self.sem_fit_horizon == config.sem_fit_horizon
            && self.max_busy_window == config.local.max_busy_window
            && self.max_activations == config.local.max_activations
            && self.max_iterations == config.local.max_iterations
    }
}

/// The values of a spec that its [`Topology`] does not hold — what a
/// diff compares a later spec against, in place of a deep clone of the
/// spec. External models are kept as `Arc` clones: holding the
/// allocations alive is what makes comparing their addresses sound (an
/// address can only be trusted while the original is alive).
#[derive(Debug)]
struct Fingerprint {
    /// Wire timing of `spec.buses[b]`.
    buses: Vec<CanBusConfig>,
    tasks: Vec<TaskValues>,
    frames: Vec<FrameValues>,
    /// Transfer property of every signal, in the topology's
    /// frame-major signal numbering.
    transfers: Vec<TransferProperty>,
    /// Every external model, in the topology's external-slot numbering.
    externals: Vec<ModelRef>,
}

/// The scalars of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TaskValues {
    bcet: Time,
    wcet: Time,
    priority: Priority,
}

impl TaskValues {
    fn of(t: &TaskSpec) -> Self {
        TaskValues {
            bcet: t.bcet,
            wcet: t.wcet,
            priority: t.priority,
        }
    }
}

/// The scalars of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameValues {
    frame_type: FrameType,
    payload_bytes: u8,
    format: FrameFormat,
    priority: Priority,
}

impl FrameValues {
    fn of(f: &FrameSpec) -> Self {
        FrameValues {
            frame_type: f.frame_type,
            payload_bytes: f.payload_bytes,
            format: f.format,
            priority: f.priority,
        }
    }
}

impl Fingerprint {
    fn of(spec: &SystemSpec) -> Self {
        fn externals(source: &ActivationSpec, out: &mut Vec<ModelRef>) {
            match source {
                ActivationSpec::External(model) => out.push(model.clone()),
                ActivationSpec::AnyOf(sources) | ActivationSpec::AllOf(sources) => {
                    sources.iter().for_each(|s| externals(s, out));
                }
                _ => {}
            }
        }
        let mut models = Vec::new();
        for t in &spec.tasks {
            externals(&t.activation, &mut models);
        }
        for s in spec.frames.iter().flat_map(|f| &f.signals) {
            externals(&s.source, &mut models);
        }
        Fingerprint {
            buses: spec.buses.iter().map(|b| b.config).collect(),
            tasks: spec.tasks.iter().map(TaskValues::of).collect(),
            frames: spec.frames.iter().map(FrameValues::of).collect(),
            transfers: spec
                .frames
                .iter()
                .flat_map(|f| f.signals.iter().map(|s| s.transfer))
                .collect(),
            externals: models,
        }
    }
}

/// Why an incremental analysis fell back to a full from-scratch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// No snapshot was supplied (the first run of a chain).
    NoSnapshot,
    /// Analysis-shaping configuration differs from the snapshot's
    /// (mode, SEM fit horizon, or local busy-window limits).
    ConfigChanged,
    /// The topology changed structurally: entities added, removed,
    /// reordered, or moved to another resource.
    StructuralChange,
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FallbackReason::NoSnapshot => "no snapshot",
            FallbackReason::ConfigChanged => "configuration changed",
            FallbackReason::StructuralChange => "structural change",
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
/// Inside the cone, a frame fed only by external models whose source
/// `Arc`s, transfers, type, payload and format are unchanged keeps its
/// recorded packing and outer stream: a priority or bus bit-time change
/// retimes its bus without repacking it.
///
/// When the diff proves names, hosting and wiring unchanged, the run
/// also reuses the snapshot's topology instead of re-validating the
/// spec and re-deriving its graph: only the changed frames' wire
/// formats are checked again.
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
    let recorder = config.local.recorder.clone();
    let delta = warm.and_then(|w| diff(&w.topology, &w.fingerprint, spec));
    let topology = match (warm, &delta) {
        // Same names, hosting and wiring as a validated spec: only a
        // changed wire format can make the spec invalid.
        (Some(snapshot), Some(delta)) if !delta.rewired => {
            for &j in &delta.reframed {
                let f = &spec.frames[j];
                CanFrameConfig::new(f.format, f.payload_bytes)?;
            }
            Arc::clone(&snapshot.topology)
        }
        _ => {
            validate(spec)?;
            Arc::new(Topology::of(spec))
        }
    };
    let total_resources = topology.resource_count();
    let (engine_warm, reuse) = match plan(config, warm, delta, &topology) {
        Ok((engine_warm, dirty)) => (
            Some(engine_warm),
            ReuseReport {
                warm: true,
                fallback: None,
                dirty_resources: dirty,
                total_resources,
                replayed_results: 0,
            },
        ),
        Err(reason) => {
            recorder.add(Counter::FullFallbacks, 1);
            let dirty_resources = topology.resource_keys().map(String::from).collect();
            let reuse = ReuseReport {
                warm: false,
                fallback: Some(reason),
                dirty_resources,
                total_resources,
                replayed_results: 0,
            };
            (None, reuse)
        }
    };
    recorder.add(Counter::ConeSize, reuse.dirty_resources.len() as u64);
    let (analysis, resolutions, replayed_results) =
        run_with(spec, config, &topology, engine_warm.as_ref(), true)?;
    let snapshot = resolutions.map(|resolutions| {
        let trajectory = Arc::clone(&analysis.diagnostics.trajectory);
        WarmStart::assemble(topology, spec, config, trajectory, resolutions)
    });
    Ok(IncrementalOutcome {
        analysis,
        snapshot,
        reuse: ReuseReport {
            replayed_results,
            ..reuse
        },
    })
}

/// Decides between a warm plan (the engine's clean-resource flags plus
/// the sorted dirty cone) and a fallback.
fn plan<'w>(
    config: &SystemConfig,
    warm: Option<&'w WarmStart>,
    delta: Option<Delta>,
    topology: &Topology,
) -> Result<(EngineWarm<'w>, Vec<String>), FallbackReason> {
    let snapshot = warm.ok_or(FallbackReason::NoSnapshot)?;
    if snapshot.trajectory.is_empty() {
        return Err(FallbackReason::NoSnapshot);
    }
    if !snapshot.compatible(config) {
        return Err(FallbackReason::ConfigChanged);
    }
    let delta = delta.ok_or(FallbackReason::StructuralChange)?;
    let cone = topology.dependents_closure(delta.seeds);
    let mut deps = Vec::new();
    let engine_warm = EngineWarm {
        clean: cone.iter().map(|&dirty| !dirty).collect(),
        kept_packings: (delta.same_packings.iter().enumerate())
            .map(|(j, &same)| same && topology.external_fed(j))
            .collect(),
        // A clean CPU's tasks are seeded with it, so only the tasks of
        // a dirty one need their inputs checked.
        kept_activations: (delta.same_activations.iter().enumerate())
            .map(|(i, &same)| {
                let hosted_dirty =
                    topology.task_cpu[i].is_some_and(|c| cone[topology.cpu_resource(c)]);
                same && hosted_dirty && {
                    topology.reads(&topology.task_wires[i], &mut deps);
                    deps.iter().all(|&r| !cone[r])
                }
            })
            .collect(),
        snapshot,
    };
    let dirty = topology
        .sorted_resources()
        .filter(|&r| cone[r])
        .map(|r| topology.resource_key(r).to_string())
        .collect();
    Ok((engine_warm, dirty))
}

/// How one entity differs from the snapshot's, in increasing severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Change {
    Same,
    /// A value changed: a scalar or the identity of an external model.
    Retimed,
    /// The wiring changed: the topology must be derived again.
    Rewired,
}

/// What a spec diff found between a snapshot and a structurally equal
/// spec.
#[derive(Debug, Default)]
struct Delta {
    /// Directly mutated resources (resource numbers, possibly repeated).
    seeds: Vec<usize>,
    /// Whether any wiring changed.
    rewired: bool,
    /// Frames whose payload size or identifier format changed, in spec
    /// order: the values a reused topology must check again.
    reframed: Vec<usize>,
    /// Whether the packing inputs of `spec.frames[j]` — source models,
    /// transfers, type, payload and format, but not its priority — are
    /// the snapshot's.
    same_packings: Vec<bool>,
    /// Whether the activation of `spec.tasks[i]` — its wiring and
    /// external models, but not its priority or execution times — is
    /// the snapshot's.
    same_activations: Vec<bool>,
}

impl Delta {
    fn note(&mut self, change: Change, resource: usize) {
        if change != Change::Same {
            self.seeds.push(resource);
        }
        self.rewired |= change == Change::Rewired;
    }
}

/// The directly mutated resources between a snapshot (its topology and
/// fingerprint) and a structurally equal spec, or `None` when the change
/// is structural — entities added, removed, reordered, renamed, or
/// re-hosted — and invalidation at resource granularity no longer
/// applies.
fn diff(topology: &Topology, old: &Fingerprint, spec: &SystemSpec) -> Option<Delta> {
    if topology.cpus.len() != spec.cpus.len()
        || topology.buses.len() != spec.buses.len()
        || topology.tasks.len() != spec.tasks.len()
        || topology.frames.len() != spec.frames.len()
    {
        return None;
    }
    if spec
        .cpus
        .iter()
        .enumerate()
        .any(|(c, cpu)| topology.cpus.get(c) != cpu.name)
    {
        return None;
    }
    let mut delta = Delta::default();
    for (b, bus) in spec.buses.iter().enumerate() {
        if topology.buses.get(b) != bus.name {
            return None;
        }
        if old.buses[b] != bus.config {
            delta.seeds.push(b);
        }
    }
    for (i, t) in spec.tasks.iter().enumerate() {
        let cpu = topology.task_cpu[i]?;
        if topology.tasks.get(i) != t.name || topology.cpus.get(cpu) != t.cpu {
            return None;
        }
        let mut slot = topology.task_externals(i).start;
        let wiring = compare(
            topology,
            &topology.task_wires[i],
            &t.activation,
            &old.externals,
            &mut slot,
        );
        delta.same_activations.push(wiring == Change::Same);
        let values = if old.tasks[i] == TaskValues::of(t) {
            Change::Same
        } else {
            Change::Retimed
        };
        delta.note(wiring.max(values), topology.cpu_resource(cpu));
    }
    for (j, f) in spec.frames.iter().enumerate() {
        let bus = topology.frame_bus[j]?;
        if topology.frames.get(j) != f.name || topology.buses.get(bus) != f.bus {
            return None;
        }
        // A priority retimes the bus but leaves the packing (Def. 8)
        // as it was: `change` tracks the packing inputs alone.
        let values = old.frames[j];
        let repriced = FrameValues {
            priority: values.priority,
            ..FrameValues::of(f)
        };
        let mut change = if values == repriced {
            Change::Same
        } else {
            Change::Retimed
        };
        if values.payload_bytes != f.payload_bytes || values.format != f.format {
            delta.reframed.push(j);
        }
        let signals = topology.frame_signals(j);
        if signals.len() != f.signals.len()
            || signals
                .zip(&f.signals)
                .any(|(k, s)| topology.signal_names.get(k) != s.name)
        {
            change = Change::Rewired;
        } else {
            let transfers = &old.transfers[topology.frame_signals(j)];
            let wires = topology.frame_signal_wires(j);
            let mut slot = topology.frame_externals(j).start;
            for ((s, wire), transfer) in f.signals.iter().zip(wires).zip(transfers) {
                if *transfer != s.transfer {
                    change = change.max(Change::Retimed);
                }
                change = change.max(compare(
                    topology,
                    wire,
                    &s.source,
                    &old.externals,
                    &mut slot,
                ));
            }
        }
        delta.same_packings.push(change == Change::Same);
        if values.priority != f.priority {
            change = change.max(Change::Retimed);
        }
        delta.note(change, bus);
    }
    Some(delta)
}

/// Compares an activation source with the snapshot's wiring of it.
///
/// Wiring compares by name (the topology's names are the snapshot
/// spec's). External event models are opaque trait objects without an
/// equality; the only reliable "unchanged" signal is sharing the same
/// allocation, so they compare by `Arc` address against the
/// fingerprint's model in the next external slot. A false negative
/// (equal model, fresh allocation) merely widens the cone: sound, just
/// without reuse.
fn compare(
    topology: &Topology,
    old: &Wire,
    new: &ActivationSpec,
    externals: &[ModelRef],
    slot: &mut usize,
) -> Change {
    let same_if = |same: bool| {
        if same {
            Change::Same
        } else {
            Change::Rewired
        }
    };
    match (old, new) {
        (Wire::External, ActivationSpec::External(model)) => {
            let same = externals
                .get(*slot)
                .is_some_and(|old| std::ptr::addr_eq(Arc::as_ptr(old), Arc::as_ptr(model)));
            *slot += 1;
            if same {
                Change::Same
            } else {
                Change::Retimed
            }
        }
        (&Wire::TaskOutput(i), ActivationSpec::TaskOutput(task)) => {
            same_if(topology.tasks.get(i) == task)
        }
        (
            &Wire::Signal {
                frame: j,
                signal: k,
            },
            ActivationSpec::Signal { frame, signal },
        ) => {
            let k = topology.frame_signals(j).start + k;
            same_if(topology.frames.get(j) == frame && topology.signal_names.get(k) == signal)
        }
        (&Wire::FrameArrivals(j), ActivationSpec::FrameArrivals(frame)) => {
            same_if(topology.frames.get(j) == frame)
        }
        (Wire::AnyOf(olds), ActivationSpec::AnyOf(news))
        | (Wire::AllOf(olds), ActivationSpec::AllOf(news)) => {
            if olds.len() != news.len() {
                return Change::Rewired;
            }
            olds.iter()
                .zip(news)
                .map(|(o, n)| compare(topology, o, n, externals, slot))
                .max()
                .unwrap_or(Change::Same)
        }
        _ => Change::Rewired,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::spec::SignalSpec;
    use hem_event_models::{EventModelExt, StandardEventModel};

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

    /// The directly mutated resources between two specs, as prefixed
    /// keys (`None` on a structural change).
    fn diff(old: &SystemSpec, new: &SystemSpec) -> Option<BTreeSet<String>> {
        let topology = Topology::of(old);
        let delta = super::diff(&topology, &Fingerprint::of(old), new)?;
        Some(
            delta
                .seeds
                .iter()
                .map(|&r| topology.resource_key(r).to_string())
                .collect(),
        )
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
    fn diff_compares_wiring_by_name_and_externals_by_arc() {
        let m = periodic(100);
        let composite = |first: ModelRef, join: fn(Vec<ActivationSpec>) -> ActivationSpec| {
            join(vec![
                ActivationSpec::External(first),
                ActivationSpec::TaskOutput("t".into()),
            ])
        };
        let spec = SystemSpec::new()
            .cpu("c")
            .cpu("d")
            .task(task("t", "c", 10, ActivationSpec::External(periodic(50))))
            .task(task(
                "u",
                "d",
                10,
                composite(m.clone(), ActivationSpec::AnyOf),
            ));
        let delta = |new: &SystemSpec| {
            let topology = Topology::of(&spec);
            let delta = super::diff(&topology, &Fingerprint::of(&spec), new).expect("same names");
            (delta.seeds, delta.rewired)
        };
        // The same allocation behind a rebuilt composite is unchanged.
        let mut same = spec.clone();
        same.tasks[1].activation = composite(m, ActivationSpec::AnyOf);
        assert_eq!(delta(&same), (vec![], false));
        // An equal model in a fresh allocation is a retiming of `d`.
        let mut retimed = spec.clone();
        retimed.tasks[1].activation = composite(periodic(100), ActivationSpec::AnyOf);
        assert_eq!(delta(&retimed), (vec![1], false));
        // OR → AND, or another producer, is a rewire.
        let mut rewired = spec.clone();
        rewired.tasks[1].activation = composite(periodic(100), ActivationSpec::AllOf);
        assert_eq!(delta(&rewired), (vec![1], true));
        let mut rewired = spec.clone();
        rewired.tasks[1].activation = ActivationSpec::TaskOutput("u".into());
        assert_eq!(delta(&rewired), (vec![1], true));
    }

    #[test]
    fn value_edits_reuse_the_topology_and_rewires_derive_a_new_one() {
        let config = SystemConfig::new(AnalysisMode::Hierarchical);
        let spec = two_island_spec();
        let first = analyze_incremental(&spec, &config, None).unwrap();
        let snapshot = first.snapshot.expect("converged run snapshots");

        // Value-only edits: a WCET and a re-timed external source.
        let mut retimed = spec.clone();
        retimed.tasks[0].wcet = Time::new(35);
        retimed.frames[1].signals[0].source = ActivationSpec::External(periodic(800));
        let second = analyze_incremental(&retimed, &config, Some(&snapshot)).unwrap();
        assert!(second.reuse.warm);
        let second = second.snapshot.expect("converged run snapshots");
        assert!(Arc::ptr_eq(&snapshot.topology, &second.topology));

        // A rewire: t0 now receives island 1's signal.
        let mut rewired = retimed.clone();
        rewired.tasks[0].activation = ActivationSpec::Signal {
            frame: "F1".into(),
            signal: "s".into(),
        };
        let third = analyze_incremental(&rewired, &config, Some(&second)).unwrap();
        assert!(third.reuse.warm);
        assert_eq!(third.reuse.dirty_resources, ["cpu:cpu_a"]);
        let cold = crate::analyze_robust(&rewired, &config).unwrap();
        assert_eq!(
            third.analysis.results.response_times(),
            cold.results.response_times()
        );
        let third = third.snapshot.expect("converged run snapshots");
        assert!(!Arc::ptr_eq(&second.topology, &third.topology));
        assert_eq!(*second.topology, *snapshot.topology);
        assert_ne!(*third.topology, *second.topology);

        // A reused topology still checks a changed wire format.
        let mut oversized = retimed.clone();
        oversized.frames[0].payload_bytes = 9;
        let warm = analyze_incremental(&oversized, &config, Some(&second)).unwrap_err();
        let cold = crate::analyze_robust(&oversized, &config).unwrap_err();
        assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
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
        assert_eq!(
            second.analysis.diagnostics.trace(),
            cold.diagnostics.trace()
        );
    }

    #[test]
    fn snapshot_shares_the_trajectory_with_the_diagnostics() {
        let config = SystemConfig::new(AnalysisMode::Hierarchical);
        let spec = two_island_spec();
        let first = analyze_incremental(&spec, &config, None).expect("well-formed");
        let snapshot = first.snapshot.as_ref().expect("converged run snapshots");
        let diagnostics = &first.analysis.diagnostics;
        assert!(Arc::ptr_eq(&snapshot.trajectory, &diagnostics.trajectory));
        assert_eq!(snapshot.iterations(), diagnostics.iterations);

        // A warm run shares its own trajectory with its own snapshot.
        let mut mutated = spec.clone();
        mutated.tasks[0].wcet = Time::new(35);
        let second = analyze_incremental(&mutated, &config, Some(snapshot)).expect("well-formed");
        assert!(second.reuse.warm);
        let next = second.snapshot.as_ref().expect("converged run snapshots");
        assert!(Arc::ptr_eq(
            &next.trajectory,
            &second.analysis.diagnostics.trajectory
        ));
        assert!(!Arc::ptr_eq(&next.trajectory, &snapshot.trajectory));
    }

    #[test]
    fn equal_curves_share_one_allocation() {
        // t2 receives the same signal as t0: equal activation curves.
        let mut t2 = task(
            "t2",
            "cpu_a",
            10,
            ActivationSpec::Signal {
                frame: "F0".into(),
                signal: "s".into(),
            },
        );
        t2.priority = Priority::new(2);
        let spec = two_island_spec().task(t2);
        let config = SystemConfig::new(AnalysisMode::Hierarchical).with_analytic(Some(true));
        let run = analyze_incremental(&spec, &config, None).expect("well-formed");
        let snapshot = run.snapshot.expect("converged run snapshots");
        let curve = |iteration: usize, i: usize| {
            let model = snapshot.resolutions[iteration].tasks[i].as_ref();
            Arc::clone(model.expect("every task resolves"))
        };
        let last = snapshot.resolutions.len() - 1;
        assert!(last >= 1, "a fixed point needs a confirming iteration");
        assert!(Arc::ptr_eq(&curve(last, 0), &curve(last, 2)));
        assert!(Arc::ptr_eq(&curve(0, 0), &curve(last, 0)));
        assert!(!Arc::ptr_eq(&curve(last, 0), &curve(last, 1)));
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
