//! The global fixed-point iteration engine.
//!
//! Implements the compositional methodology described in §1 of the
//! paper: in each global iteration, local analysis is performed for each
//! component to derive response times and output event streams, which
//! are then propagated to connected components for the next iteration,
//! until the response times stop changing.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use hem_analysis::{
    spnp, spp, AnalysisConfig, AnalysisError, AnalysisTask, ResponseTime, TaskResult,
};
use hem_autosar_com::{ComFrame, Signal};
use hem_can::{BusFrame, CanFrameConfig};
use hem_core::HierarchicalEventModel;
use hem_event_models::ops::OutputModel;
use hem_event_models::{approx, AnalyticCurve, CachedModel, EventModelExt, ModelRef};
use hem_obs::{BufferedRecorder, ConvergenceTrace, Counter, IterationSnapshot, RtBound};
use hem_time::Time;

use crate::diagnostics::{ConvergenceStatus, Diagnostics, StopReason};
use crate::graph::{Level, PropagationLevels};
use crate::pool::WorkerPool;
use crate::result::{signal_key, SystemConfig, SystemResults};
use crate::spec::{ActivationSpec, AnalysisMode, FrameSpec, SystemSpec};
use crate::warm::Replay;
use crate::SystemError;

/// Runs the global compositional analysis of a system.
///
/// Iterates local analyses and output-stream propagation until all
/// response times reach a fixed point, then returns the per-task and
/// per-frame results together with the final event models.
///
/// # Errors
///
/// * [`SystemError::Duplicate`] / [`SystemError::UnknownReference`] /
///   [`SystemError::UnsupportedSpec`] for malformed descriptions,
/// * [`SystemError::DependencyCycle`] for unresolvable activation cycles,
/// * [`SystemError::Analysis`] when a local analysis diverges,
/// * [`SystemError::BudgetExhausted`] when the wall-clock budget in
///   `config.local.budget` expires first,
/// * [`SystemError::NoGlobalConvergence`] when response times keep
///   growing (the system is not schedulable) — either detected early by
///   the divergence heuristic (`config.divergence_streak`) or by running
///   out of `config.max_global_iterations`.
///
/// For a non-erroring API that keeps the partial results and explains
/// *what* diverged, use [`analyze_robust`].
pub fn analyze(spec: &SystemSpec, config: &SystemConfig) -> Result<SystemResults, SystemError> {
    match run(spec, config)? {
        RunOutcome::Converged { results, .. } => Ok(results),
        RunOutcome::Stopped { diagnostics, .. } => Err(match diagnostics.stop {
            StopReason::LocalAnalysisFailed { entity, error } => {
                if error.is_budget_exhausted() {
                    SystemError::BudgetExhausted {
                        entity: Some(entity),
                    }
                } else {
                    SystemError::Analysis(error)
                }
            }
            StopReason::BudgetExhausted => SystemError::BudgetExhausted { entity: None },
            _ => SystemError::NoGlobalConvergence {
                iterations: diagnostics.iterations,
            },
        }),
    }
}

/// The outcome of [`analyze_robust`]: results (partial if the analysis
/// did not converge) plus a structured post-mortem.
#[derive(Debug)]
pub struct RobustAnalysis {
    /// Analysis results. [`SystemResults::is_complete`] tells whether
    /// they are a converged fixed point or the salvage of an aborted
    /// run (response times then are lower bounds, not safe worst cases).
    pub results: SystemResults,
    /// Why and where the analysis stopped.
    pub diagnostics: Diagnostics,
}

/// Runs the global analysis, degrading gracefully instead of erroring.
///
/// Unlike [`analyze`], non-convergence — divergence, iteration limit,
/// or an exhausted [`AnalysisBudget`](hem_analysis::AnalysisBudget) —
/// is **not** an error: the work done so far is returned as partial
/// [`SystemResults`] (per-entity convergence status included) together
/// with [`Diagnostics`] naming the diverging entity, the last two
/// response-time vectors, and the suspected bottleneck resource.
///
/// # Errors
///
/// Only genuine spec problems still error: duplicate or dangling
/// references, unsupported constructs, dependency cycles, and invalid
/// CAN/COM/model configurations.
pub fn analyze_robust(
    spec: &SystemSpec,
    config: &SystemConfig,
) -> Result<RobustAnalysis, SystemError> {
    match run(spec, config)? {
        RunOutcome::Converged {
            results,
            diagnostics,
        } => Ok(RobustAnalysis {
            diagnostics,
            results,
        }),
        RunOutcome::Stopped {
            partial,
            diagnostics,
        } => Ok(RobustAnalysis {
            results: partial,
            diagnostics,
        }),
    }
}

pub(crate) enum RunOutcome {
    Converged {
        results: SystemResults,
        diagnostics: Diagnostics,
    },
    Stopped {
        partial: SystemResults,
        diagnostics: Diagnostics,
    },
}

/// A resolved activation or outer stream, typed by how a warm start may
/// reuse it in a later run.
#[derive(Debug, Clone)]
pub(crate) enum Resolved {
    /// A closed-form lift: immutable, shared as-is.
    Lifted(Arc<AnalyticCurve>),
    /// A memoizing wrapper that reports to its run's recorder: a replay
    /// forks it onto the replaying run's recorder.
    Cached(Arc<CachedModel>),
    /// Any other model (SEM fits): shared as-is.
    Plain(ModelRef),
}

impl Resolved {
    fn model(&self) -> ModelRef {
        match self {
            Resolved::Lifted(curve) => curve.clone(),
            Resolved::Cached(cached) => cached.clone(),
            Resolved::Plain(model) => model.clone(),
        }
    }
}

/// One global iteration's resolved models, indexed by spec position:
/// the resolver's memo tables, moved out when the iteration completes.
/// A slot is `None` when nothing resolved it that iteration (a frame
/// whose processed HEM no one consumed) — and, in a capture, for every
/// processed HEM but the converged iteration's.
#[derive(Debug)]
pub(crate) struct Resolution {
    /// Activation model of `spec.tasks[i]`.
    tasks: Vec<Option<Resolved>>,
    /// Packed HEM of `spec.frames[j]`.
    packed: Vec<Option<Arc<HierarchicalEventModel>>>,
    /// Analysis outer stream of `spec.frames[j]`.
    outer: Vec<Option<Resolved>>,
    /// Processed HEM of `spec.frames[j]`.
    processed: Vec<Option<Arc<HierarchicalEventModel>>>,
}

impl Resolution {
    fn empty(spec: &SystemSpec) -> Self {
        Resolution {
            tasks: vec![None; spec.tasks.len()],
            packed: vec![None; spec.frames.len()],
            outer: vec![None; spec.frames.len()],
            processed: vec![None; spec.frames.len()],
        }
    }

    /// Swaps every lifted curve that is value-equal to `prev`'s curve
    /// in the same slot for `prev`'s allocation, so a snapshot holds
    /// one copy of a curve that stays put across iterations.
    fn share_equal_curves(&mut self, prev: &Resolution) {
        let slots = self.tasks.iter_mut().zip(&prev.tasks);
        for (slot, prev) in slots.chain(self.outer.iter_mut().zip(&prev.outer)) {
            if let (Some(Resolved::Lifted(curve)), Some(Resolved::Lifted(old))) = (&*slot, prev) {
                if !Arc::ptr_eq(curve, old) && **curve == **old {
                    *slot = Some(Resolved::Lifted(old.clone()));
                }
            }
        }
    }

    /// The models a stopped run salvages: every resolved task
    /// activation and frame input, keyed by name.
    fn salvage(
        &self,
        spec: &SystemSpec,
    ) -> (BTreeMap<String, ModelRef>, BTreeMap<String, ModelRef>) {
        fn named<'s>(
            names: impl Iterator<Item = &'s String>,
            slots: &[Option<Resolved>],
        ) -> BTreeMap<String, ModelRef> {
            names
                .zip(slots)
                .filter_map(|(name, slot)| slot.as_ref().map(|r| (name.clone(), r.model())))
                .collect()
        }
        (
            named(spec.tasks.iter().map(|t| &t.name), &self.tasks),
            named(spec.frames.iter().map(|f| &f.name), &self.outer),
        )
    }
}

/// Everything a converged run must record to seed a future warm start:
/// the per-iteration result trajectory and resolved models. Assembled
/// into a [`WarmStart`](crate::warm::WarmStart) by [`crate::warm`].
pub(crate) struct Capture {
    /// `(frame results, task results)` per completed global iteration.
    pub(crate) trajectory: Vec<(BTreeMap<String, TaskResult>, BTreeMap<String, TaskResult>)>,
    /// The resolved models of each completed global iteration.
    pub(crate) resolutions: Vec<Resolution>,
}

/// The warm-start plan handed to the engine: which resources are
/// outside the damage cone, by spec position, and the snapshot they
/// replay.
pub(crate) struct EngineWarm<'w> {
    /// Whether `spec.buses[b]` is outside the damage cone.
    pub(crate) clean_buses: Vec<bool>,
    /// Whether `spec.cpus[c]` is outside the damage cone.
    pub(crate) clean_cpus: Vec<bool>,
    pub(crate) snapshot: &'w crate::warm::WarmStart,
}

/// One iteration's view of the warm-start plan: the clean-resource
/// flags plus the snapshot state replayed this iteration.
struct WarmIteration<'w> {
    plan: &'w EngineWarm<'w>,
    replay: Replay<'w>,
}

/// Name → spec-position lookups and per-resource entity lists, built
/// once per run: the topology is fixed across global iterations.
struct SpecIndex<'a> {
    tasks: HashMap<&'a str, usize>,
    frames: HashMap<&'a str, usize>,
    buses: HashMap<&'a str, usize>,
    cpus: HashMap<&'a str, usize>,
    /// Frames of `spec.buses[b]`, in spec order.
    bus_frames: Vec<Vec<usize>>,
    /// Tasks of `spec.cpus[c]`, in spec order.
    cpu_tasks: Vec<Vec<usize>>,
}

impl<'a> SpecIndex<'a> {
    /// Indexes a validated spec (every task's CPU and every frame's bus
    /// exists).
    fn of(spec: &'a SystemSpec) -> Self {
        fn positions<'a>(names: impl Iterator<Item = &'a str>) -> HashMap<&'a str, usize> {
            names.enumerate().map(|(i, n)| (n, i)).collect()
        }
        let buses = positions(spec.buses.iter().map(|b| b.name.as_str()));
        let cpus = positions(spec.cpus.iter().map(|c| c.name.as_str()));
        let mut bus_frames = vec![Vec::new(); spec.buses.len()];
        for (j, f) in spec.frames.iter().enumerate() {
            bus_frames[buses[f.bus.as_str()]].push(j);
        }
        let mut cpu_tasks = vec![Vec::new(); spec.cpus.len()];
        for (i, t) in spec.tasks.iter().enumerate() {
            cpu_tasks[cpus[t.cpu.as_str()]].push(i);
        }
        SpecIndex {
            tasks: positions(spec.tasks.iter().map(|t| t.name.as_str())),
            frames: positions(spec.frames.iter().map(|f| f.name.as_str())),
            buses,
            cpus,
            bus_frames,
            cpu_tasks,
        }
    }
}

/// Per-entity growth tracking across global iterations, feeding the
/// early divergence heuristic and the per-entity statuses.
#[derive(Debug, Clone, Copy, Default)]
struct Track {
    last: Option<ResponseTime>,
    last_increment: Option<Time>,
    /// Consecutive iterations with strictly growing r⁺ and
    /// non-shrinking increments. Converging propagation grows for a
    /// bounded number of steps with shrinking increments near the fixed
    /// point; sustained non-shrinking growth is the divergence
    /// signature.
    streak: u64,
    changed: bool,
}

impl Track {
    fn update(&mut self, rt: ResponseTime) {
        match self.last {
            Some(prev) if rt.r_plus > prev.r_plus => {
                let inc = rt.r_plus - prev.r_plus;
                if self.last_increment.is_none_or(|p| inc >= p) {
                    self.streak += 1;
                } else {
                    self.streak = 1;
                }
                self.last_increment = Some(inc);
                self.changed = true;
            }
            Some(prev) => {
                self.streak = 0;
                self.last_increment = None;
                self.changed = prev != rt;
            }
            None => {
                self.streak = u64::from(rt.r_plus > Time::ZERO);
                self.last_increment = None;
                self.changed = true;
            }
        }
        self.last = Some(rt);
    }

    fn status(&self, divergence_streak: u64) -> ConvergenceStatus {
        if divergence_streak > 0 && self.streak >= divergence_streak {
            ConvergenceStatus::Growing {
                streak: self.streak,
            }
        } else if self.changed {
            ConvergenceStatus::Unsettled
        } else {
            ConvergenceStatus::Converged
        }
    }
}

fn prefixed_rt(
    tasks: &BTreeMap<String, TaskResult>,
    frames: &BTreeMap<String, TaskResult>,
) -> BTreeMap<String, ResponseTime> {
    frames
        .iter()
        .map(|(k, v)| (format!("frame:{k}"), v.response))
        .chain(tasks.iter().map(|(k, v)| (format!("task:{k}"), v.response)))
        .collect()
}

/// The [`ConvergenceTrace`] snapshot of one completed global iteration.
fn rt_snapshot(iteration: u64, rts: &BTreeMap<String, ResponseTime>) -> IterationSnapshot {
    IterationSnapshot {
        iteration,
        response_times: rts
            .iter()
            .map(|(k, rt)| {
                (
                    k.clone(),
                    RtBound::new(rt.r_minus.ticks(), rt.r_plus.ticks()),
                )
            })
            .collect(),
    }
}

/// The resource hosting a prefixed entity (`task:x` → `cpu:…`,
/// `frame:x` → `bus:…`).
fn hosting_resource(spec: &SystemSpec, entity: &str) -> Option<String> {
    if let Some(task) = entity.strip_prefix("task:") {
        spec.tasks
            .iter()
            .find(|t| t.name == task)
            .map(|t| format!("cpu:{}", t.cpu))
    } else if let Some(frame) = entity.strip_prefix("frame:") {
        spec.frames
            .iter()
            .find(|f| f.name == frame)
            .map(|f| format!("bus:{}", f.bus))
    } else {
        None
    }
}

/// What one global iteration accumulates: per-frame and per-task
/// results, plus the number of per-entity analyses replayed from a
/// warm-start snapshot instead of being re-run.
#[derive(Default)]
struct IterationAccum {
    frames: BTreeMap<String, TaskResult>,
    tasks: BTreeMap<String, TaskResult>,
    replayed: u64,
}

/// One global iteration's local analyses, leveled and parallel.
///
/// Each level of the propagation graph first resolves sequentially
/// (activation models, packings, shared curve caches — always on the
/// calling thread, in spec order), then analyses every entity of the
/// level as an independent job on the pool. Results and recorder
/// signals are merged in canonical submission order, so the outcome is
/// bit-for-bit identical for every thread count.
///
/// With a warm plan, resources outside the damage cone skip all three
/// phases' work: the resolver was seeded with their recorded models, so
/// Phase 1 resolves nothing for them, and Phase 3 stages their recorded
/// results instead of Phase 2 jobs. An iteration costs O(damage cone).
fn run_iteration(
    resolver: &mut Resolver<'_>,
    spec: &SystemSpec,
    config: &SystemConfig,
    levels: &PropagationLevels,
    pool: &WorkerPool,
    warm: Option<&WarmIteration<'_>>,
) -> Result<IterationAccum, IterationError> {
    let mut acc = IterationAccum::default();

    for level in &levels.levels {
        // Deadlines hold inside an iteration too: a warm-started run
        // replaying thousands of clean entities (or a cold run crawling
        // through many levels) polls the budget between levels, so
        // cancellation is cooperative at level granularity, not just
        // between global iterations.
        if config.local.budget.exhausted() {
            return Err(IterationError::Budget);
        }
        run_level(resolver, config, level, pool, warm, &mut acc)?;
    }

    // Resources in a resource-level dependency cycle: the lazy
    // sequential resolver reproduces exactly what the purely sequential
    // engine would report (usually a `DependencyCycle` naming the same
    // entity). Warm starts refuse cyclic systems, so this path never
    // replays.
    for (j, frame) in spec.frames.iter().enumerate() {
        if levels.cyclic_buses.contains(&frame.bus) {
            let result = resolver
                .frame_result(j)
                .map_err(|e| IterationError::classify(e, "frame"))?;
            acc.frames.insert(frame.name.clone(), result);
        }
    }
    for cpu in &levels.cyclic_cpus {
        let tasks = resolver
            .lower_cpu(resolver.index.cpus[cpu.as_str()])
            .map_err(|e| IterationError::classify(e, "task"))?;
        for result in spp::analyze(&tasks, &config.local)
            .map_err(|e| IterationError::classify(SystemError::Analysis(e), "task"))?
        {
            acc.tasks.insert(result.name.clone(), result);
        }
    }
    Ok(acc)
}

/// A per-entity busy-window job submitted to the pool.
type EntityJob = Box<dyn FnOnce() -> Result<TaskResult, AnalysisError> + Send + 'static>;

/// The local analysis configuration of one job: when the recorder is
/// enabled, signals go to a private [`BufferedRecorder`] (registered in
/// `buffers`, drained in job order after the batch) so the recorder sees
/// the same signal sequence regardless of execution interleaving.
fn job_local(
    config: &SystemConfig,
    buffers: &mut Vec<Option<Arc<BufferedRecorder>>>,
) -> AnalysisConfig {
    let mut local = config.local.clone();
    if local.recorder.enabled() {
        let (buffer, handle) = BufferedRecorder::handle();
        buffers.push(Some(buffer));
        local.recorder = handle;
    } else {
        buffers.push(None);
    }
    local
}

/// Analyses one dependency-free level: sequential resolution, parallel
/// per-entity busy windows, deterministic merge.
fn run_level(
    resolver: &mut Resolver<'_>,
    config: &SystemConfig,
    level: &Level,
    pool: &WorkerPool,
    warm: Option<&WarmIteration<'_>>,
    acc: &mut IterationAccum,
) -> Result<(), IterationError> {
    let index = resolver.index;
    let spec = resolver.spec;

    // Phase 1 — sequential resolution of the dirty resources (`None`
    // marks a clean one). A clean resource's models were seeded from
    // the snapshot, so it resolves, lifts, and packs nothing here; its
    // seeded packings count towards `packing_ops` at the same point a
    // from-scratch run would pack them.
    let mut bus_sets = Vec::with_capacity(level.buses.len());
    for bus in &level.buses {
        let b = index.buses[bus.as_str()];
        let tasks = if warm.is_some_and(|w| w.plan.clean_buses[b]) {
            resolver.count_replayed_packings(b);
            None
        } else {
            let tasks = resolver
                .lower_bus(b)
                .map_err(|e| IterationError::classify(e, "frame"))?;
            Some(Arc::new(tasks))
        };
        bus_sets.push((b, tasks));
    }
    let mut cpu_sets = Vec::with_capacity(level.cpus.len());
    for cpu in &level.cpus {
        let c = index.cpus[cpu.as_str()];
        let tasks = if warm.is_some_and(|w| w.plan.clean_cpus[c]) {
            None
        } else {
            let tasks = resolver
                .lower_cpu(c)
                .map_err(|e| IterationError::classify(e, "task"))?;
            Some(Arc::new(tasks))
        };
        cpu_sets.push((c, tasks));
    }

    // Phase 2 — one busy-window job per dirty entity, in canonical
    // order: every frame of every bus, then every task of every CPU.
    let mut jobs: Vec<EntityJob> = Vec::new();
    let mut buffers: Vec<Option<Arc<BufferedRecorder>>> = Vec::new();
    let mut kinds: Vec<&'static str> = Vec::new();
    for tasks in bus_sets.iter().filter_map(|(_, t)| t.as_ref()) {
        for i in 0..tasks.len() {
            let local = job_local(config, &mut buffers);
            let tasks = tasks.clone();
            kinds.push("frame");
            jobs.push(Box::new(move || spnp::analyze_one(&tasks, i, &local)));
        }
    }
    for tasks in cpu_sets.iter().filter_map(|(_, t)| t.as_ref()) {
        for i in 0..tasks.len() {
            let local = job_local(config, &mut buffers);
            let tasks = tasks.clone();
            kinds.push("task");
            jobs.push(Box::new(move || spp::analyze_one(&tasks, i, &local)));
        }
    }
    let outcomes = pool.run_batch(jobs);

    // Phase 3 — deterministic merge: every job of a started level has
    // completed; recorder signals replay in job order, and the
    // lowest-index failure (if any) is the one reported, independent of
    // which worker hit it first. Clean resources stage the snapshot's
    // recorded results in the same canonical positions.
    for buffer in buffers.iter().flatten() {
        buffer.drain_into(&config.local.recorder);
    }
    let mut results = outcomes.into_iter().zip(kinds);
    let mut first_err: Option<IterationError> = None;
    let record_err = |e: AnalysisError, kind: &'static str, slot: &mut Option<IterationError>| {
        if slot.is_none() {
            *slot = Some(IterationError::classify(SystemError::Analysis(e), kind));
        }
    };
    let replayed = |results: &'_ BTreeMap<String, TaskResult>, name: &str| -> TaskResult {
        results
            .get(name)
            .expect("warm snapshot covers every entity of an unchanged topology")
            .clone()
    };
    let mut hits = 0u64;
    let mut staged_frames: Vec<(usize, TaskResult)> = Vec::new();
    for (b, tasks) in &bus_sets {
        for &j in &index.bus_frames[*b] {
            if tasks.is_none() {
                let w = warm.expect("clean flags imply a warm plan");
                staged_frames.push((j, replayed(w.replay.frames, &spec.frames[j].name)));
                hits += 1;
                continue;
            }
            match results.next().expect("one outcome per frame job") {
                (Ok(result), _) => staged_frames.push((j, result)),
                (Err(e), kind) => record_err(e, kind, &mut first_err),
            }
        }
    }
    let mut staged_tasks: Vec<TaskResult> = Vec::new();
    for (c, tasks) in &cpu_sets {
        for &i in &index.cpu_tasks[*c] {
            if tasks.is_none() {
                let w = warm.expect("clean flags imply a warm plan");
                staged_tasks.push(replayed(w.replay.tasks, &spec.tasks[i].name));
                hits += 1;
                continue;
            }
            match results.next().expect("one outcome per task job") {
                (Ok(result), _) => staged_tasks.push(result),
                (Err(e), kind) => record_err(e, kind, &mut first_err),
            }
        }
    }
    if hits > 0 {
        config.local.recorder.add(Counter::WarmStartHits, hits);
        acc.replayed += hits;
    }
    if let Some(err) = first_err {
        return Err(err);
    }
    for (j, result) in staged_frames {
        acc.frames
            .insert(spec.frames[j].name.clone(), result.clone());
        resolver.frame_results[j] = Some(result);
    }
    for result in staged_tasks {
        acc.tasks.insert(result.name.clone(), result);
    }
    Ok(())
}

enum IterationError {
    /// A local busy-window analysis aborted (divergence or budget): the
    /// run can degrade gracefully.
    Local {
        entity: String,
        error: AnalysisError,
    },
    /// The wall-clock budget expired between levels of an iteration
    /// (warm-start replays included): degrade gracefully with the last
    /// completed iteration's results.
    Budget,
    /// A hard spec/model error: propagate.
    Hard(SystemError),
}

impl IterationError {
    fn classify(e: SystemError, kind: &str) -> Self {
        match e {
            SystemError::Analysis(
                error @ (AnalysisError::NoConvergence { .. }
                | AnalysisError::BudgetExhausted { .. }),
            ) => {
                let name = match &error {
                    AnalysisError::NoConvergence { task, .. }
                    | AnalysisError::BudgetExhausted { task } => task.clone(),
                    AnalysisError::InvalidTaskSet(_) => unreachable!(),
                };
                IterationError::Local {
                    entity: format!("{kind}:{name}"),
                    error,
                }
            }
            other => IterationError::Hard(other),
        }
    }
}

fn run(spec: &SystemSpec, config: &SystemConfig) -> Result<RunOutcome, SystemError> {
    validate(spec)?;
    let levels = PropagationLevels::of(spec);
    run_with(spec, config, &levels, None, false).map(|(outcome, _, _)| outcome)
}

/// The full engine loop over a validated spec and its propagation
/// levels, optionally replaying a warm-start plan and/or capturing the
/// run's trajectory for a future warm start.
///
/// Returns the outcome, the capture (`Some` only when `capture` is set
/// **and** the run converged — a stopped run's trajectory is not a
/// fixed point), and the total number of per-entity analyses replayed
/// from the snapshot.
pub(crate) fn run_with(
    spec: &SystemSpec,
    config: &SystemConfig,
    levels: &PropagationLevels,
    warm: Option<&EngineWarm<'_>>,
    capture: bool,
) -> Result<(RunOutcome, Option<Capture>, u64), SystemError> {
    // The topology is fixed across iterations: index it once, spin the
    // pool up once.
    let index = SpecIndex::of(spec);
    let pool = WorkerPool::new(config.resolved_threads());
    let started = Instant::now();
    let recorder = config.local.recorder.clone();
    let _run_span = recorder.span("analyze", "engine");
    let mut trace = ConvergenceTrace::new();
    let mut task_rt: BTreeMap<String, ResponseTime> = BTreeMap::new();
    let mut frame_rt: BTreeMap<String, ResponseTime> = BTreeMap::new();

    // Degradation state: last two completed response-time vectors, last
    // completed per-entity results, growth tracks. The resolved models
    // of completed iterations are kept too — all of them when capturing,
    // else only the last, whose models a stopped run salvages.
    let mut prev_rt_vec: BTreeMap<String, ResponseTime> = BTreeMap::new();
    let mut last_rt_vec: BTreeMap<String, ResponseTime> = BTreeMap::new();
    let mut last_task_results: BTreeMap<String, TaskResult> = BTreeMap::new();
    let mut last_frame_results: BTreeMap<String, TaskResult> = BTreeMap::new();
    let mut tracks: BTreeMap<String, Track> = BTreeMap::new();
    let mut resolutions: Vec<Resolution> = Vec::new();
    let mut trajectory = Vec::new();
    let mut completed = 0u64;
    let mut replayed_total = 0u64;

    let stopped = |stop: StopReason,
                   completed: u64,
                   trace: ConvergenceTrace,
                   tracks: &BTreeMap<String, Track>,
                   last_task_results: BTreeMap<String, TaskResult>,
                   last_frame_results: BTreeMap<String, TaskResult>,
                   last_rt_vec: BTreeMap<String, ResponseTime>,
                   prev_rt_vec: BTreeMap<String, ResponseTime>,
                   last_resolution: Option<&Resolution>| {
        let failed_entity = match &stop {
            StopReason::LocalAnalysisFailed { entity, .. } => Some(entity.clone()),
            _ => None,
        };
        let status_of = |key: &str, name: &str, results: &BTreeMap<String, TaskResult>| {
            if failed_entity.as_deref() == Some(key) {
                ConvergenceStatus::Failed
            } else if let Some(track) = tracks.get(key) {
                track.status(config.divergence_streak)
            } else if results.contains_key(name) {
                ConvergenceStatus::Unsettled
            } else {
                ConvergenceStatus::Unknown
            }
        };
        let task_convergence: BTreeMap<String, ConvergenceStatus> = spec
            .tasks
            .iter()
            .map(|t| {
                let key = format!("task:{}", t.name);
                (t.name.clone(), status_of(&key, &t.name, &last_task_results))
            })
            .collect();
        let frame_convergence: BTreeMap<String, ConvergenceStatus> = spec
            .frames
            .iter()
            .map(|f| {
                let key = format!("frame:{}", f.name);
                (
                    f.name.clone(),
                    status_of(&key, &f.name, &last_frame_results),
                )
            })
            .collect();
        let mut diverging: Vec<(u64, String)> = tracks
            .iter()
            .filter(|(_, t)| config.divergence_streak > 0 && t.streak >= config.divergence_streak)
            .map(|(k, t)| (t.streak, k.clone()))
            .collect();
        diverging.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let diverging: Vec<String> = diverging.into_iter().map(|(_, k)| k).collect();
        let suspect = failed_entity
            .clone()
            .or_else(|| match &stop {
                StopReason::DivergenceDetected { entity, .. } => Some(entity.clone()),
                _ => None,
            })
            .or_else(|| diverging.first().cloned());
        let suspected_bottleneck = suspect.and_then(|e| hosting_resource(spec, &e));
        let (task_activations, frame_inputs) =
            last_resolution.map(|r| r.salvage(spec)).unwrap_or_default();
        RunOutcome::Stopped {
            partial: SystemResults {
                mode: config.mode,
                iterations: completed,
                complete: false,
                task_results: last_task_results,
                frame_results: last_frame_results,
                task_convergence,
                frame_convergence,
                task_activations,
                frame_inputs,
                frame_outputs: BTreeMap::new(),
                unpacked_signals: BTreeMap::new(),
            },
            diagnostics: Diagnostics {
                stop,
                iterations: completed,
                elapsed: started.elapsed(),
                trace,
                diverging,
                last_response_times: last_rt_vec,
                previous_response_times: prev_rt_vec,
                suspected_bottleneck,
            },
        }
    };

    for iteration in 1..=config.max_global_iterations {
        if config.local.budget.exhausted() {
            return Ok((
                stopped(
                    StopReason::BudgetExhausted,
                    completed,
                    trace,
                    &tracks,
                    last_task_results,
                    last_frame_results,
                    last_rt_vec,
                    prev_rt_vec,
                    resolutions.last(),
                ),
                None,
                replayed_total,
            ));
        }
        let iter_span = recorder.span("global_iteration", "engine");
        let warm_iter = warm.map(|plan| WarmIteration {
            plan,
            replay: plan.snapshot.replay(iteration),
        });
        let mut resolver = Resolver::new(spec, config, &index, &task_rt);
        if let Some(w) = &warm_iter {
            resolver.seed(w);
        }
        let iteration_outcome = run_iteration(
            &mut resolver,
            spec,
            config,
            levels,
            &pool,
            warm_iter.as_ref(),
        );
        // Flush the shared curve caches' buffered hit/miss counters at a
        // deterministic point, in cache-creation order — never from a
        // worker or a late `Drop`.
        resolver.flush_caches();
        drop(iter_span);
        let acc = match iteration_outcome {
            Ok(acc) => acc,
            Err(IterationError::Hard(e)) => return Err(e),
            Err(IterationError::Budget) => {
                return Ok((
                    stopped(
                        StopReason::BudgetExhausted,
                        completed,
                        trace,
                        &tracks,
                        last_task_results,
                        last_frame_results,
                        last_rt_vec,
                        prev_rt_vec,
                        resolutions.last(),
                    ),
                    None,
                    replayed_total,
                ));
            }
            Err(IterationError::Local { entity, error }) => {
                return Ok((
                    stopped(
                        StopReason::LocalAnalysisFailed { entity, error },
                        completed,
                        trace,
                        &tracks,
                        last_task_results,
                        last_frame_results,
                        last_rt_vec,
                        prev_rt_vec,
                        resolutions.last(),
                    ),
                    None,
                    replayed_total,
                ));
            }
        };
        let IterationAccum {
            frames: new_frame_results,
            tasks: new_task_results,
            replayed,
        } = acc;
        completed = iteration;
        replayed_total += replayed;
        recorder.add(Counter::GlobalIterations, 1);
        if capture {
            trajectory.push((new_frame_results.clone(), new_task_results.clone()));
        }

        let new_task_rt: BTreeMap<String, ResponseTime> = new_task_results
            .iter()
            .map(|(k, v)| (k.clone(), v.response))
            .collect();
        let new_frame_rt: BTreeMap<String, ResponseTime> = new_frame_results
            .iter()
            .map(|(k, v)| (k.clone(), v.response))
            .collect();

        let new_rt_vec = prefixed_rt(&new_task_results, &new_frame_results);
        trace.push(rt_snapshot(iteration, &new_rt_vec));

        if new_task_rt == task_rt && new_frame_rt == frame_rt {
            // Fixed point: assemble results from the final resolver state.
            let mut task_activations = BTreeMap::new();
            for (i, t) in spec.tasks.iter().enumerate() {
                task_activations.insert(t.name.clone(), resolver.task_activation(i)?);
            }
            let mut frame_inputs = BTreeMap::new();
            let mut frame_outputs = BTreeMap::new();
            let mut unpacked_signals = BTreeMap::new();
            for (j, f) in spec.frames.iter().enumerate() {
                frame_inputs.insert(f.name.clone(), resolver.analysis_outer(j)?);
                frame_outputs.insert(f.name.clone(), resolver.frame_output(j)?);
                if config.mode == AnalysisMode::Hierarchical {
                    let processed = resolver.processed_hem(j)?;
                    for s in &f.signals {
                        if let Some(m) = processed.unpack_by_name(&s.name) {
                            unpacked_signals.insert(signal_key(&f.name, &s.name), m);
                        }
                    }
                }
            }
            // Assembly may have touched caches (e.g. a frame no task
            // consumes): flush again before the results escape.
            resolver.flush_caches();
            let captured = capture.then(|| {
                push_resolution(&mut resolutions, resolver.tables, true);
                Capture {
                    trajectory,
                    resolutions,
                }
            });
            let task_convergence = spec
                .tasks
                .iter()
                .map(|t| (t.name.clone(), ConvergenceStatus::Converged))
                .collect();
            let frame_convergence = spec
                .frames
                .iter()
                .map(|f| (f.name.clone(), ConvergenceStatus::Converged))
                .collect();
            let diagnostics = Diagnostics {
                stop: StopReason::Converged,
                iterations: iteration,
                elapsed: started.elapsed(),
                trace,
                diverging: Vec::new(),
                last_response_times: new_rt_vec,
                previous_response_times: last_rt_vec,
                suspected_bottleneck: None,
            };
            return Ok((
                RunOutcome::Converged {
                    results: SystemResults {
                        mode: config.mode,
                        iterations: iteration,
                        complete: true,
                        task_results: new_task_results,
                        frame_results: new_frame_results,
                        task_convergence,
                        frame_convergence,
                        task_activations,
                        frame_inputs,
                        frame_outputs,
                        unpacked_signals,
                    },
                    diagnostics,
                },
                captured,
                replayed_total,
            ));
        }

        // Track growth and detect sustained divergence early.
        for (key, rt) in &new_rt_vec {
            tracks.entry(key.clone()).or_default().update(*rt);
        }
        prev_rt_vec = std::mem::replace(&mut last_rt_vec, new_rt_vec);
        last_task_results = new_task_results;
        last_frame_results = new_frame_results;
        push_resolution(&mut resolutions, resolver.tables, capture);
        if config.divergence_streak > 0 {
            if let Some((key, track)) = tracks
                .iter()
                .filter(|(_, t)| t.streak >= config.divergence_streak)
                .max_by_key(|(_, t)| t.streak)
            {
                let stop = StopReason::DivergenceDetected {
                    entity: key.clone(),
                    streak: track.streak,
                };
                return Ok((
                    stopped(
                        stop,
                        completed,
                        trace,
                        &tracks,
                        last_task_results,
                        last_frame_results,
                        last_rt_vec,
                        prev_rt_vec,
                        resolutions.last(),
                    ),
                    None,
                    replayed_total,
                ));
            }
        }

        task_rt = new_task_rt;
        frame_rt = new_frame_rt;
    }
    Ok((
        stopped(
            StopReason::IterationLimitReached,
            completed,
            trace,
            &tracks,
            last_task_results,
            last_frame_results,
            last_rt_vec,
            prev_rt_vec,
            resolutions.last(),
        ),
        None,
        replayed_total,
    ))
}

/// Appends a completed iteration's resolved models: when capturing, to
/// the full history, else replacing the previous iteration's.
///
/// A capture shares curves that did not change since the previous
/// iteration, and drops the previous iteration's processed HEMs: a
/// replay needs them only for dirty consumers of a clean frame, which
/// rebuild them from the recorded packing and result, while the
/// converged iteration's feed the results of every replaying run.
fn push_resolution(resolutions: &mut Vec<Resolution>, mut resolution: Resolution, capture: bool) {
    if !capture {
        resolutions.clear();
    } else if let Some(prev) = resolutions.last_mut() {
        resolution.share_equal_curves(prev);
        prev.processed.iter_mut().for_each(|p| *p = None);
    }
    resolutions.push(resolution);
}

/// Per-iteration lazy evaluator with memoization and cycle detection.
struct Resolver<'a> {
    spec: &'a SystemSpec,
    config: &'a SystemConfig,
    index: &'a SpecIndex<'a>,
    prev_task_rt: &'a BTreeMap<String, ResponseTime>,
    /// The memo tables: this iteration's resolved models, moved out
    /// when the iteration completes (for salvage or warm-start capture).
    tables: Resolution,
    /// This iteration's bus-analysis result of `spec.frames[j]`.
    frame_results: Vec<Option<TaskResult>>,
    visiting_tasks: Vec<bool>,
    visiting_frames: Vec<bool>,
    /// Every shared curve cache created (or forked) this iteration, in
    /// creation order — the engine flushes their buffered hit/miss
    /// counters at deterministic points.
    caches: Vec<Arc<CachedModel>>,
    /// Whether resolved models are swapped for closed-form analytic
    /// curves (resolved once per iteration from the config).
    analytic: bool,
}

impl<'a> Resolver<'a> {
    fn new(
        spec: &'a SystemSpec,
        config: &'a SystemConfig,
        index: &'a SpecIndex<'a>,
        prev_task_rt: &'a BTreeMap<String, ResponseTime>,
    ) -> Self {
        Resolver {
            spec,
            config,
            index,
            prev_task_rt,
            tables: Resolution::empty(spec),
            frame_results: vec![None; spec.frames.len()],
            visiting_tasks: vec![false; spec.tasks.len()],
            visiting_frames: vec![false; spec.frames.len()],
            caches: Vec::new(),
            analytic: config.analytic_enabled(),
        }
    }

    /// Seeds every entity on a clean resource with the snapshot's
    /// resolved models for this iteration. Outside the damage cone the
    /// models are bit-identical to what resolution would rebuild, so
    /// the iteration never resolves, lifts, or packs them; dirty
    /// resources read them from the tables like any resolved model.
    /// Memoizing wrappers are forked onto this run's recorder, so their
    /// cache traffic is this run's; everything else is shared.
    fn seed(&mut self, warm: &WarmIteration<'_>) {
        let record = warm.replay.resolution;
        let index = self.index;
        let clean_cpus = index.cpu_tasks.iter().zip(&warm.plan.clean_cpus);
        for (tasks, _) in clean_cpus.filter(|(_, &clean)| clean) {
            for &i in tasks {
                self.tables.tasks[i] = record.tasks[i].as_ref().map(|r| self.replayed(r));
            }
        }
        let clean_buses = index.bus_frames.iter().zip(&warm.plan.clean_buses);
        for (frames, _) in clean_buses.filter(|(_, &clean)| clean) {
            for &j in frames {
                self.tables.packed[j] = record.packed[j].clone();
                self.tables.outer[j] = record.outer[j].as_ref().map(|r| self.replayed(r));
                self.tables.processed[j] = record.processed[j].clone();
            }
        }
    }

    /// A recorded model as this run uses it.
    fn replayed(&mut self, recorded: &Resolved) -> Resolved {
        match recorded {
            Resolved::Cached(cached) => {
                let fork = cached.fork(self.config.local.recorder.clone());
                Resolved::Cached(self.cache(fork))
            }
            shared => shared.clone(),
        }
    }

    /// Counts the seeded packings of clean bus `b` towards
    /// `packing_ops`: replayed packings enter the iteration's state as
    /// computed ones do, so warm and cold runs count alike.
    fn count_replayed_packings(&self, b: usize) {
        let packed = self.index.bus_frames[b]
            .iter()
            .filter(|&&j| self.tables.packed[j].is_some())
            .count() as u64;
        if packed > 0 {
            self.config.local.recorder.add(Counter::PackingOps, packed);
        }
    }

    /// Returns the closed-form analytic curve of `model` when an exact
    /// lift exists (see `docs/CURVES.md`). Results are bit-for-bit
    /// identical either way — the lift only changes how queries are
    /// answered. Runs during sequential resolution, so the lift /
    /// fallback tallies are deterministic at every thread count. Call
    /// sites skip the memoizing cache wrapper for a lifted curve: it
    /// already answers every query with an O(1) head lookup, and a
    /// hash-and-lock layer on top of that only costs time.
    fn analytic_lift(&self, model: &ModelRef) -> Option<Arc<AnalyticCurve>> {
        if !self.analytic {
            return None;
        }
        let recorder = &self.config.local.recorder;
        match model.analytic() {
            Some(curve) => {
                recorder.add(Counter::AnalyticLifts, 1);
                Some(Arc::new(curve))
            }
            None => {
                recorder.add(Counter::AnalyticFallbacks, 1);
                None
            }
        }
    }

    /// Registers a shared curve cache for the deterministic counter
    /// flush and returns it.
    fn cache(&mut self, cached: CachedModel) -> Arc<CachedModel> {
        let cached = Arc::new(cached);
        self.caches.push(cached.clone());
        cached
    }

    /// Flushes every curve cache's buffered hit/miss counters to the
    /// recorder, in cache-creation order.
    fn flush_caches(&self) {
        for cache in &self.caches {
            cache.flush_recorded();
        }
    }

    fn task_index(&self, name: &str) -> Result<usize, SystemError> {
        self.index
            .tasks
            .get(name)
            .copied()
            .ok_or_else(|| SystemError::UnknownReference {
                kind: "task",
                name: name.to_string(),
            })
    }

    fn frame_index(&self, name: &str) -> Result<usize, SystemError> {
        self.index
            .frames
            .get(name)
            .copied()
            .ok_or_else(|| SystemError::UnknownReference {
                kind: "frame",
                name: name.to_string(),
            })
    }

    /// The frame-activation stream of `spec.frames[j]` as the bus
    /// analysis sees it: the packed outer stream, SEM-fitted under
    /// [`AnalysisMode::FlatSem`].
    fn analysis_outer(&mut self, j: usize) -> Result<ModelRef, SystemError> {
        if let Some(m) = &self.tables.outer[j] {
            return Ok(m.model());
        }
        let outer = self.packed_hem(j)?.flatten();
        let lifted = self.analytic_lift(&outer);
        let resolved = match (self.config.mode, lifted) {
            (AnalysisMode::FlatSem, lifted) => {
                let outer = lifted.map_or(outer, |curve| curve as ModelRef);
                Resolved::Plain(
                    approx::sem_approximation(outer.as_ref(), self.config.sem_fit_horizon)?
                        .shared(),
                )
            }
            // Lifted streams skip the cache: every query is already an
            // O(1) lookup.
            (_, Some(curve)) => Resolved::Lifted(curve),
            // Busy-window iterations hammer the same η⁺/δ⁻ queries on
            // the lazy OR-join: memoize.
            (_, None) => {
                let recorder = self.config.local.recorder.clone();
                Resolved::Cached(self.cache(CachedModel::recorded(outer, recorder)))
            }
        };
        let model = resolved.model();
        self.tables.outer[j] = Some(resolved);
        Ok(model)
    }

    fn prev_rt(&self, task: &str) -> ResponseTime {
        self.prev_task_rt
            .get(task)
            .copied()
            .unwrap_or(ResponseTime::new(Time::ZERO, Time::ZERO))
    }

    fn resolve_source(&mut self, source: &ActivationSpec) -> Result<ModelRef, SystemError> {
        match source {
            ActivationSpec::External(model) => Ok(model.clone()),
            ActivationSpec::TaskOutput(task) => {
                let input = self.task_activation(self.task_index(task)?)?;
                let rt = self.prev_rt(task);
                Ok(OutputModel::new(input, rt.r_minus, rt.r_plus)?.shared())
            }
            ActivationSpec::Signal { frame, signal } => match self.config.mode {
                AnalysisMode::Hierarchical => {
                    let processed = self.processed_hem(self.frame_index(frame)?)?;
                    let unpacked = processed.unpack_by_name(signal).ok_or_else(|| {
                        SystemError::UnknownReference {
                            kind: "signal",
                            name: signal_key(frame, signal),
                        }
                    })?;
                    Ok(if self.config.tighten_inner {
                        hem_event_models::ops::AdditiveClosure::new(unpacked).shared()
                    } else {
                        unpacked
                    })
                }
                AnalysisMode::Flat | AnalysisMode::FlatSem => {
                    self.frame_output(self.frame_index(frame)?)
                }
            },
            ActivationSpec::FrameArrivals(frame) => self.frame_output(self.frame_index(frame)?),
            ActivationSpec::AnyOf(sources) => {
                let models = sources
                    .iter()
                    .map(|s| self.resolve_source(s))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(hem_event_models::ops::OrJoin::new(models)?.shared())
            }
            ActivationSpec::AllOf(sources) => {
                let models = sources
                    .iter()
                    .map(|s| self.resolve_source(s))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(hem_event_models::ops::AndJoin::new(models)?.shared())
            }
        }
    }

    /// The activation model of `spec.tasks[i]`.
    fn task_activation(&mut self, i: usize) -> Result<ModelRef, SystemError> {
        if let Some(m) = &self.tables.tasks[i] {
            return Ok(m.model());
        }
        let task = &self.spec.tasks[i];
        if std::mem::replace(&mut self.visiting_tasks[i], true) {
            return Err(SystemError::DependencyCycle {
                name: task.name.clone(),
            });
        }
        let resolved = self.resolve_source(&task.activation)?;
        let resolved = match self.analytic_lift(&resolved) {
            Some(curve) => Resolved::Lifted(curve),
            // Memoized: CPU busy windows evaluate the activation stream
            // many times per fixed-point iteration.
            None => {
                let recorder = self.config.local.recorder.clone();
                Resolved::Cached(self.cache(CachedModel::recorded(resolved, recorder)))
            }
        };
        self.visiting_tasks[i] = false;
        let model = resolved.model();
        self.tables.tasks[i] = Some(resolved);
        Ok(model)
    }

    /// The packed HEM of `spec.frames[j]`.
    fn packed_hem(&mut self, j: usize) -> Result<Arc<HierarchicalEventModel>, SystemError> {
        if let Some(h) = &self.tables.packed[j] {
            return Ok(h.clone());
        }
        let frame = &self.spec.frames[j];
        if std::mem::replace(&mut self.visiting_frames[j], true) {
            return Err(SystemError::DependencyCycle {
                name: frame.name.clone(),
            });
        }
        let mut signals = Vec::with_capacity(frame.signals.len());
        for s in &frame.signals {
            let model = self.resolve_source(&s.source)?;
            signals.push(Signal::new(s.name.clone(), model, s.transfer));
        }
        let com = ComFrame::new(
            frame.name.clone(),
            frame.frame_type,
            frame.payload_bytes,
            signals,
        )?;
        let hem = Arc::new(com.packed()?);
        self.config.local.recorder.add(Counter::PackingOps, 1);
        self.visiting_frames[j] = false;
        self.tables.packed[j] = Some(hem.clone());
        Ok(hem)
    }

    /// Lowers every frame on `spec.buses[b]` to its generic analysis
    /// task (in spec order), resolving packings and outer streams.
    fn lower_bus(&mut self, b: usize) -> Result<Vec<AnalysisTask>, SystemError> {
        let index = self.index;
        let bus_config = self.spec.buses[b].config;
        let mut bus_frames = Vec::with_capacity(index.bus_frames[b].len());
        for &j in &index.bus_frames[b] {
            let outer = self.analysis_outer(j)?;
            let f = &self.spec.frames[j];
            bus_frames.push(BusFrame::new(
                f.name.clone(),
                CanFrameConfig::new(f.format, f.payload_bytes)?,
                f.priority,
                outer,
            ));
        }
        Ok(hem_can::bus::lower(&bus_frames, &bus_config))
    }

    /// Lowers every task on `spec.cpus[c]` to its generic analysis task
    /// (in spec order), resolving activation models.
    fn lower_cpu(&mut self, c: usize) -> Result<Vec<AnalysisTask>, SystemError> {
        let index = self.index;
        index.cpu_tasks[c]
            .iter()
            .map(|&i| {
                let input = self.task_activation(i)?;
                let t = &self.spec.tasks[i];
                Ok(AnalysisTask::new(
                    t.name.clone(),
                    t.bcet,
                    t.wcet,
                    t.priority,
                    input,
                ))
            })
            .collect()
    }

    /// The bus-analysis result of `spec.frames[j]`, lazily running its
    /// whole bus sequentially when no level committed it — the fallback
    /// path for resources in a dependency cycle (where it reproduces the
    /// purely sequential engine's behaviour, cycle errors included).
    fn frame_result(&mut self, j: usize) -> Result<TaskResult, SystemError> {
        if self.frame_results[j].is_none() {
            let b = self.index.buses[self.spec.frames[j].bus.as_str()];
            let tasks = self.lower_bus(b)?;
            let results = spnp::analyze(&tasks, &self.config.local)?;
            for (&k, result) in self.index.bus_frames[b].iter().zip(results) {
                self.frame_results[k] = Some(result);
            }
        }
        Ok(self.frame_results[j]
            .clone()
            .expect("a bus analysis covers every frame on the bus"))
    }

    /// The processed HEM of `spec.frames[j]`.
    fn processed_hem(&mut self, j: usize) -> Result<Arc<HierarchicalEventModel>, SystemError> {
        if let Some(h) = &self.tables.processed[j] {
            return Ok(h.clone());
        }
        let rt = self.frame_result(j)?.response;
        let hem = self.packed_hem(j)?;
        let processed = Arc::new(hem.process(rt.r_minus, rt.r_plus)?);
        self.tables.processed[j] = Some(processed.clone());
        Ok(processed)
    }

    fn frame_output(&mut self, j: usize) -> Result<ModelRef, SystemError> {
        match self.config.mode {
            AnalysisMode::Flat | AnalysisMode::Hierarchical => Ok(self.processed_hem(j)?.flatten()),
            AnalysisMode::FlatSem => {
                // Propagate the SEM-fitted outer stream through the bus.
                let rt = self.frame_result(j)?.response;
                let outer = self.analysis_outer(j)?;
                Ok(OutputModel::new(outer, rt.r_minus, rt.r_plus)?.shared())
            }
        }
    }
}

pub(crate) fn validate(spec: &SystemSpec) -> Result<(), SystemError> {
    fn check_unique<'n>(
        kind: &'static str,
        names: impl Iterator<Item = &'n str>,
    ) -> Result<(), SystemError> {
        let mut seen = HashSet::new();
        for n in names {
            if !seen.insert(n) {
                return Err(SystemError::Duplicate {
                    kind,
                    name: n.to_string(),
                });
            }
        }
        Ok(())
    }
    check_unique("cpu", spec.cpus.iter().map(|c| c.name.as_str()))?;
    check_unique("bus", spec.buses.iter().map(|b| b.name.as_str()))?;
    check_unique("task", spec.tasks.iter().map(|t| t.name.as_str()))?;
    check_unique("frame", spec.frames.iter().map(|f| f.name.as_str()))?;

    let cpus: HashSet<&str> = spec.cpus.iter().map(|c| c.name.as_str()).collect();
    let buses: HashSet<&str> = spec.buses.iter().map(|b| b.name.as_str()).collect();
    let tasks: HashSet<&str> = spec.tasks.iter().map(|t| t.name.as_str()).collect();
    let frames: HashMap<&str, &FrameSpec> =
        spec.frames.iter().map(|f| (f.name.as_str(), f)).collect();

    fn check_ref_impl(
        source: &ActivationSpec,
        tasks: &HashSet<&str>,
        frames: &HashMap<&str, &FrameSpec>,
    ) -> Result<(), SystemError> {
        match source {
            ActivationSpec::External(_) => Ok(()),
            ActivationSpec::TaskOutput(t) => {
                if tasks.contains(t.as_str()) {
                    Ok(())
                } else {
                    Err(SystemError::UnknownReference {
                        kind: "task",
                        name: t.clone(),
                    })
                }
            }
            ActivationSpec::Signal { frame, signal } => {
                let f =
                    frames
                        .get(frame.as_str())
                        .ok_or_else(|| SystemError::UnknownReference {
                            kind: "frame",
                            name: frame.clone(),
                        })?;
                if f.signals.iter().any(|s| &s.name == signal) {
                    Ok(())
                } else {
                    Err(SystemError::UnknownReference {
                        kind: "signal",
                        name: signal_key(frame, signal),
                    })
                }
            }
            ActivationSpec::FrameArrivals(frame) => {
                if frames.contains_key(frame.as_str()) {
                    Ok(())
                } else {
                    Err(SystemError::UnknownReference {
                        kind: "frame",
                        name: frame.clone(),
                    })
                }
            }
            ActivationSpec::AnyOf(sources) | ActivationSpec::AllOf(sources) => {
                if sources.is_empty() {
                    return Err(SystemError::UnsupportedSpec(
                        "composite activation with no sources".into(),
                    ));
                }
                sources
                    .iter()
                    .try_for_each(|s| check_ref_impl(s, tasks, frames))
            }
        }
    }
    let check_ref = |source: &ActivationSpec| -> Result<(), SystemError> {
        check_ref_impl(source, &tasks, &frames)
    };

    for t in &spec.tasks {
        if !cpus.contains(t.cpu.as_str()) {
            return Err(SystemError::UnknownReference {
                kind: "cpu",
                name: t.cpu.clone(),
            });
        }
        check_ref(&t.activation)?;
    }
    for f in &spec.frames {
        if !buses.contains(f.bus.as_str()) {
            return Err(SystemError::UnknownReference {
                kind: "bus",
                name: f.bus.clone(),
            });
        }
        // Frames must not be packed from other frames directly: route such
        // gateway traffic through a task.
        fn check_signal_source(
            source: &ActivationSpec,
            signal: &str,
            frame: &str,
            tasks: &HashSet<&str>,
        ) -> Result<(), SystemError> {
            match source {
                ActivationSpec::External(_) => Ok(()),
                ActivationSpec::TaskOutput(t) => {
                    if tasks.contains(t.as_str()) {
                        Ok(())
                    } else {
                        Err(SystemError::UnknownReference {
                            kind: "task",
                            name: t.clone(),
                        })
                    }
                }
                ActivationSpec::Signal { .. } | ActivationSpec::FrameArrivals(_) => {
                    Err(SystemError::UnsupportedSpec(format!(
                        "signal `{signal}` of frame `{frame}` is sourced from a frame; \
                         route it through a gateway task"
                    )))
                }
                ActivationSpec::AnyOf(sources) | ActivationSpec::AllOf(sources) => sources
                    .iter()
                    .try_for_each(|s| check_signal_source(s, signal, frame, tasks)),
            }
        }
        for s in &f.signals {
            check_signal_source(&s.source, &s.name, &f.name, &tasks)?;
        }
        // Eagerly validate the wire format.
        CanFrameConfig::new(f.format, f.payload_bytes)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SignalSpec, SystemSpec, TaskSpec};
    use hem_analysis::Priority;
    use hem_autosar_com::{FrameType, TransferProperty};
    use hem_can::{CanBusConfig, FrameFormat};
    use hem_event_models::{EventModel, StandardEventModel};

    fn periodic(p: i64) -> ModelRef {
        StandardEventModel::periodic(Time::new(p)).unwrap().shared()
    }

    fn simple_task(name: &str, cpu: &str, cet: i64, prio: u32, act: ActivationSpec) -> TaskSpec {
        TaskSpec {
            name: name.into(),
            cpu: cpu.into(),
            bcet: Time::new(cet),
            wcet: Time::new(cet),
            priority: Priority::new(prio),
            activation: act,
        }
    }

    /// A minimal distributed system: one source → frame → bus → task.
    fn mini_system() -> SystemSpec {
        SystemSpec::new()
            .cpu("cpu0")
            .bus("can0", CanBusConfig::new(Time::new(1)))
            .frame(FrameSpec {
                name: "F".into(),
                bus: "can0".into(),
                frame_type: FrameType::Direct,
                payload_bytes: 4,
                format: FrameFormat::Standard,
                priority: Priority::new(1),
                signals: vec![SignalSpec {
                    name: "s".into(),
                    transfer: TransferProperty::Triggering,
                    source: ActivationSpec::External(periodic(500)),
                }],
            })
            .task(simple_task(
                "rx",
                "cpu0",
                30,
                1,
                ActivationSpec::Signal {
                    frame: "F".into(),
                    signal: "s".into(),
                },
            ))
    }

    #[test]
    fn mini_system_converges() {
        let r = analyze(
            &mini_system(),
            &SystemConfig::new(AnalysisMode::Hierarchical),
        )
        .unwrap();
        // Frame: sole frame on the bus, 95 bits, no blocking.
        assert_eq!(r.frame("F").unwrap().response.r_plus, Time::new(95));
        assert_eq!(r.frame("F").unwrap().response.r_minus, Time::new(79));
        // Task: single task on the CPU.
        assert_eq!(r.task("rx").unwrap().response.r_plus, Time::new(30));
        assert!(r.iterations() >= 2);
        // The unpacked signal reflects bus jitter: 500 − (95 − 79) = 484.
        let s = r.unpacked_signal("F", "s").unwrap();
        assert_eq!(s.delta_min(2), Time::new(484));
        // Frame output accessor present.
        assert!(r.frame_output("F").is_some());
        assert!(r.task_activation("rx").is_some());
        assert_eq!(r.mode(), AnalysisMode::Hierarchical);
    }

    #[test]
    fn flat_mode_uses_frame_arrivals() {
        let spec = SystemSpec::new()
            .cpu("cpu0")
            .bus("can0", CanBusConfig::new(Time::new(1)))
            .frame(FrameSpec {
                name: "F".into(),
                bus: "can0".into(),
                frame_type: FrameType::Direct,
                payload_bytes: 4,
                format: FrameFormat::Standard,
                priority: Priority::new(1),
                signals: vec![
                    SignalSpec {
                        name: "a".into(),
                        transfer: TransferProperty::Triggering,
                        source: ActivationSpec::External(periodic(500)),
                    },
                    SignalSpec {
                        name: "b".into(),
                        transfer: TransferProperty::Triggering,
                        source: ActivationSpec::External(periodic(700)),
                    },
                ],
            })
            .task(simple_task(
                "rx_a",
                "cpu0",
                30,
                1,
                ActivationSpec::Signal {
                    frame: "F".into(),
                    signal: "a".into(),
                },
            ));
        let flat = analyze(&spec, &SystemConfig::new(AnalysisMode::Flat)).unwrap();
        let hier = analyze(&spec, &SystemConfig::new(AnalysisMode::Hierarchical)).unwrap();
        // Under flat analysis rx_a sees both a- and b-triggered frames.
        let flat_act = flat.task_activation("rx_a").unwrap();
        let hier_act = hier.task_activation("rx_a").unwrap();
        assert!(flat_act.eta_plus(Time::new(3000)) > hier_act.eta_plus(Time::new(3000)));
        // No unpacked signals stored in flat mode.
        assert!(flat.unpacked_signal("F", "a").is_none());
    }

    #[test]
    fn flatsem_is_most_pessimistic_mode() {
        // Two triggering signals of incommensurate periods: the SEM fit
        // of the frame stream must over-approximate, ordering the three
        // modes Hierarchical ≤ Flat ≤ FlatSem for the receiver.
        let spec = SystemSpec::new()
            .cpu("cpu0")
            .bus("can0", CanBusConfig::new(Time::new(1)))
            .frame(FrameSpec {
                name: "F".into(),
                bus: "can0".into(),
                frame_type: FrameType::Direct,
                payload_bytes: 4,
                format: FrameFormat::Standard,
                priority: Priority::new(1),
                signals: vec![
                    SignalSpec {
                        name: "a".into(),
                        transfer: TransferProperty::Triggering,
                        source: ActivationSpec::External(periodic(2500)),
                    },
                    SignalSpec {
                        name: "b".into(),
                        transfer: TransferProperty::Triggering,
                        source: ActivationSpec::External(periodic(4500)),
                    },
                ],
            })
            .task(simple_task(
                "rx",
                "cpu0",
                300,
                1,
                ActivationSpec::Signal {
                    frame: "F".into(),
                    signal: "a".into(),
                },
            ))
            .task(simple_task(
                "bg",
                "cpu0",
                400,
                2,
                ActivationSpec::External(periodic(3000)),
            ));
        let r = |mode: AnalysisMode| {
            analyze(&spec, &SystemConfig::new(mode))
                .expect("converges")
                .task("bg")
                .expect("present")
                .response
                .r_plus
        };
        let hier = r(AnalysisMode::Hierarchical);
        let flat = r(AnalysisMode::Flat);
        let flatsem = r(AnalysisMode::FlatSem);
        assert!(hier <= flat, "hier {hier} ≤ flat {flat}");
        assert!(flat <= flatsem, "flat {flat} ≤ flatsem {flatsem}");
    }

    #[test]
    fn flatsem_stores_no_unpacked_signals_and_sem_outputs() {
        let spec = mini_system();
        let r = analyze(&spec, &SystemConfig::new(AnalysisMode::FlatSem)).expect("converges");
        assert!(r.unpacked_signal("F", "s").is_none());
        // Frame activation and output exist and behave like streams.
        let act = r.frame_activation("F").expect("stored");
        let out = r.frame_output("F").expect("stored");
        assert!(act.delta_min(2) > Time::ZERO);
        assert!(out.delta_min(2) <= act.delta_min(2));
    }

    #[test]
    fn tighten_inner_never_loosens() {
        let spec = mini_system();
        let plain = analyze(&spec, &SystemConfig::new(AnalysisMode::Hierarchical)).unwrap();
        let tight = analyze(
            &spec,
            &SystemConfig {
                tighten_inner: true,
                ..SystemConfig::new(AnalysisMode::Hierarchical)
            },
        )
        .unwrap();
        assert!(
            tight.task("rx").unwrap().response.r_plus <= plain.task("rx").unwrap().response.r_plus
        );
    }

    #[test]
    fn task_output_chain_propagates_jitter() {
        // src → t1 (adds jitter) → t2 activated by t1's output.
        let spec = SystemSpec::new()
            .cpu("cpu0")
            .cpu("cpu1")
            .task(simple_task(
                "t1",
                "cpu0",
                10,
                1,
                ActivationSpec::External(periodic(100)),
            ))
            .task(TaskSpec {
                name: "t2".into(),
                cpu: "cpu1".into(),
                bcet: Time::new(5),
                wcet: Time::new(20),
                priority: Priority::new(1),
                activation: ActivationSpec::TaskOutput("t1".into()),
            });
        let r = analyze(&spec, &SystemConfig::new(AnalysisMode::Hierarchical)).unwrap();
        assert_eq!(r.task("t1").unwrap().response.r_plus, Time::new(10));
        assert_eq!(r.task("t2").unwrap().response.r_plus, Time::new(20));
        // t2's activation carries t1's response jitter 0 (bcet = wcet).
        let act = r.task_activation("t2").unwrap();
        assert_eq!(act.delta_min(2), Time::new(100));
    }

    #[test]
    fn validation_catches_dangling_references() {
        let spec = SystemSpec::new().cpu("cpu0").task(simple_task(
            "t",
            "cpu0",
            10,
            1,
            ActivationSpec::TaskOutput("ghost".into()),
        ));
        assert!(matches!(
            analyze(&spec, &SystemConfig::new(AnalysisMode::Flat)).unwrap_err(),
            SystemError::UnknownReference { kind: "task", .. }
        ));

        let spec = SystemSpec::new().task(simple_task(
            "t",
            "nocpu",
            10,
            1,
            ActivationSpec::External(periodic(100)),
        ));
        assert!(matches!(
            analyze(&spec, &SystemConfig::new(AnalysisMode::Flat)).unwrap_err(),
            SystemError::UnknownReference { kind: "cpu", .. }
        ));
    }

    #[test]
    fn validation_catches_duplicates() {
        let spec = SystemSpec::new().cpu("x").cpu("x");
        assert!(matches!(
            analyze(&spec, &SystemConfig::new(AnalysisMode::Flat)).unwrap_err(),
            SystemError::Duplicate { kind: "cpu", .. }
        ));
    }

    #[test]
    fn dependency_cycle_detected() {
        let spec = SystemSpec::new()
            .cpu("cpu0")
            .task(simple_task(
                "a",
                "cpu0",
                10,
                1,
                ActivationSpec::TaskOutput("b".into()),
            ))
            .task(simple_task(
                "b",
                "cpu0",
                10,
                2,
                ActivationSpec::TaskOutput("a".into()),
            ));
        assert!(matches!(
            analyze(&spec, &SystemConfig::new(AnalysisMode::Flat)).unwrap_err(),
            SystemError::DependencyCycle { .. }
        ));
    }

    #[test]
    fn composite_activations_resolve() {
        // A task OR-activated by two signals of one frame, and another
        // AND-activated by a signal plus a local timer.
        let spec = SystemSpec::new()
            .cpu("cpu0")
            .bus("can0", CanBusConfig::new(Time::new(1)))
            .frame(FrameSpec {
                name: "F".into(),
                bus: "can0".into(),
                frame_type: FrameType::Direct,
                payload_bytes: 4,
                format: FrameFormat::Standard,
                priority: Priority::new(1),
                signals: vec![
                    SignalSpec {
                        name: "a".into(),
                        transfer: TransferProperty::Triggering,
                        source: ActivationSpec::External(periodic(3_000)),
                    },
                    SignalSpec {
                        name: "b".into(),
                        transfer: TransferProperty::Triggering,
                        source: ActivationSpec::External(periodic(4_000)),
                    },
                ],
            })
            .task(simple_task(
                "either",
                "cpu0",
                100,
                1,
                ActivationSpec::AnyOf(vec![
                    ActivationSpec::Signal {
                        frame: "F".into(),
                        signal: "a".into(),
                    },
                    ActivationSpec::Signal {
                        frame: "F".into(),
                        signal: "b".into(),
                    },
                ]),
            ))
            .task(simple_task(
                "both",
                "cpu0",
                100,
                2,
                ActivationSpec::AllOf(vec![
                    ActivationSpec::Signal {
                        frame: "F".into(),
                        signal: "a".into(),
                    },
                    ActivationSpec::External(periodic(10_000)),
                ]),
            ));
        let r = analyze(&spec, &SystemConfig::new(AnalysisMode::Hierarchical))
            .expect("composite system converges");
        // OR sees both signal rates.
        let either = r.task_activation("either").unwrap();
        assert_eq!(either.eta_plus(Time::new(12_001)), 5 + 4);
        // AND is limited by the slow timer.
        let both = r.task_activation("both").unwrap();
        assert!(both.delta_min(2) >= Time::new(10_000));
        // Empty composite rejected.
        let bad = SystemSpec::new().cpu("c").task(simple_task(
            "t",
            "c",
            10,
            1,
            ActivationSpec::AnyOf(vec![]),
        ));
        assert!(matches!(
            analyze(&bad, &SystemConfig::new(AnalysisMode::Flat)).unwrap_err(),
            SystemError::UnsupportedSpec(_)
        ));
    }

    /// A 1-CPU system at utilization > 1: the local busy window of the
    /// lowest-priority task grows without bound.
    fn overloaded_system() -> SystemSpec {
        SystemSpec::new()
            .cpu("cpu0")
            .task(simple_task(
                "hog",
                "cpu0",
                90,
                1,
                ActivationSpec::External(periodic(100)),
            ))
            .task(simple_task(
                "victim",
                "cpu0",
                50,
                2,
                ActivationSpec::External(periodic(200)),
            ))
    }

    #[test]
    fn overload_degrades_gracefully() {
        let config = SystemConfig::new(AnalysisMode::Flat);
        let r = analyze_robust(&overloaded_system(), &config).expect("spec is well-formed");
        assert!(!r.results.is_complete());
        assert!(!r.diagnostics.converged());
        // The local analysis of the overloaded CPU aborts naming `victim`.
        assert!(matches!(
            &r.diagnostics.stop,
            StopReason::LocalAnalysisFailed { entity, .. } if entity == "task:victim"
        ));
        assert_eq!(r.diagnostics.prime_suspect(), Some("task:victim"));
        assert_eq!(
            r.diagnostics.suspected_bottleneck.as_deref(),
            Some("cpu:cpu0")
        );
        assert_eq!(
            r.results.task_convergence("victim"),
            Some(ConvergenceStatus::Failed)
        );
        // And the strict API reports the same condition as an error.
        let err = analyze(&overloaded_system(), &config).unwrap_err();
        assert!(matches!(err, SystemError::Analysis(_)));
    }

    #[test]
    fn budget_exhaustion_returns_partial_results() {
        let config = SystemConfig::new(AnalysisMode::Flat).with_budget(
            hem_analysis::AnalysisBudget::within(std::time::Duration::ZERO),
        );
        let r = analyze_robust(&overloaded_system(), &config).expect("spec is well-formed");
        assert!(r.diagnostics.budget_exhausted());
        assert!(!r.results.is_complete());
        assert_eq!(r.results.iterations(), 0);
        let err = analyze(&overloaded_system(), &config).unwrap_err();
        assert!(matches!(err, SystemError::BudgetExhausted { .. }));
    }

    #[test]
    fn robust_analysis_of_converging_system_is_complete() {
        let r = analyze_robust(
            &mini_system(),
            &SystemConfig::new(AnalysisMode::Hierarchical),
        )
        .expect("converges");
        assert!(r.results.is_complete());
        assert!(r.diagnostics.converged());
        assert_eq!(r.diagnostics.prime_suspect(), None);
        assert_eq!(
            r.results.task_convergence("rx"),
            Some(ConvergenceStatus::Converged)
        );
        assert_eq!(
            r.results.frame_convergence("F"),
            Some(ConvergenceStatus::Converged)
        );
        // Same numbers as the strict API.
        let strict = analyze(
            &mini_system(),
            &SystemConfig::new(AnalysisMode::Hierarchical),
        )
        .unwrap();
        assert_eq!(
            r.results.frame("F").unwrap().response,
            strict.frame("F").unwrap().response
        );
        // Diagnostics carry the converged response-time vector.
        assert_eq!(
            r.diagnostics
                .last_response_times
                .get("frame:F")
                .map(|rt| rt.r_plus),
            Some(Time::new(95))
        );
    }

    #[test]
    fn divergence_detection_stops_before_iteration_limit() {
        // Force pure global divergence (local analyses converge each
        // iteration, but the response-time vector keeps growing) by
        // giving the local analysis generous limits while feeding back
        // jitter growth through a task chain… a cyclic jitter feedback
        // cannot be expressed (cycles are rejected), so emulate with the
        // iteration-limit path instead: a tiny max_global_iterations
        // budget on a converging-but-slow system must stop cleanly.
        let mut config = SystemConfig::new(AnalysisMode::Hierarchical);
        config.max_global_iterations = 1;
        let r = analyze_robust(&mini_system(), &config).expect("well-formed");
        assert!(!r.results.is_complete());
        assert!(matches!(
            r.diagnostics.stop,
            StopReason::IterationLimitReached
        ));
        // Partial results still carry the first iteration's numbers.
        assert!(r.results.frame("F").is_some());
        assert_eq!(r.results.iterations(), 1);
        // Statuses are reported as unsettled, not converged.
        assert_eq!(
            r.results.frame_convergence("F"),
            Some(ConvergenceStatus::Unsettled)
        );
    }

    #[test]
    fn malformed_spec_still_errors_in_robust_mode() {
        let spec = SystemSpec::new().cpu("x").cpu("x");
        assert!(matches!(
            analyze_robust(&spec, &SystemConfig::new(AnalysisMode::Flat)).unwrap_err(),
            SystemError::Duplicate { kind: "cpu", .. }
        ));
    }

    #[test]
    fn frame_sourced_signal_rejected() {
        let spec = SystemSpec::new()
            .bus("can0", CanBusConfig::new(Time::new(1)))
            .frame(FrameSpec {
                name: "F".into(),
                bus: "can0".into(),
                frame_type: FrameType::Direct,
                payload_bytes: 1,
                format: FrameFormat::Standard,
                priority: Priority::new(1),
                signals: vec![SignalSpec {
                    name: "s".into(),
                    transfer: TransferProperty::Triggering,
                    source: ActivationSpec::FrameArrivals("F".into()),
                }],
            });
        assert!(matches!(
            analyze(&spec, &SystemConfig::new(AnalysisMode::Flat)).unwrap_err(),
            SystemError::UnsupportedSpec(_)
        ));
    }
}
