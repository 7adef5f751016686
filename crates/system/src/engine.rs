//! The global fixed-point iteration engine.
//!
//! Implements the compositional methodology described in §1 of the
//! paper: in each global iteration, local analysis is performed for each
//! component to derive response times and output event streams, which
//! are then propagated to connected components for the next iteration,
//! until the response times stop changing.
//!
//! One iteration has one resolution path: a lazy, memoizing resolver.
//! A task's output reads the *previous* iteration's response time, so
//! the only dependencies within an iteration flow into bus analyses:
//! packing a frame resolves its signal sources, which may unpack
//! another frame. The iteration asks for every frame's bus result in
//! spec order, and a bus analysis first resolves, and so analyses, the
//! buses its packings read; it then analyses every CPU in spec order.
//! The resolver's visiting flags report an activation cycle as
//! [`SystemError::DependencyCycle`] naming the first entity met twice.
//!
//! A clean resource replays its recorded models and results at the
//! point where this order reaches it, instead of resolving and
//! analysing. A warm start's damage cone leaves a resource clean for
//! the whole run: it replays the snapshot's record of the same
//! iteration. Within a run, the only thing an iteration reads from the
//! previous one is the response times behind task outputs, so after
//! each iteration an *in-run* cone — the readers of every task output
//! that moved, closed over their dependents — bounds what the next
//! iteration can change. Every other resource replays the previous
//! iteration. In a feed-forward system, where no source reads a task
//! output, the iteration that confirms the fixed point replays
//! everything.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use hem_analysis::{spp, AnalysisError, AnalysisTask, ResponseTime, TaskResult};
use hem_autosar_com::{ComFrame, Signal};
use hem_can::{BusFrame, CanFrameConfig};
use hem_core::HierarchicalEventModel;
use hem_event_models::ops::OutputModel;
use hem_event_models::{approx, AnalyticCurve, EventModelExt, ModelRef};
use hem_obs::Counter;
use hem_time::Time;

use crate::diagnostics::{ConvergenceStatus, Diagnostics, StopReason};
use crate::graph::{Entity, Topology, Wire};
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
    let RobustAnalysis {
        results,
        diagnostics,
    } = analyze_robust(spec, config)?;
    Err(match diagnostics.stop {
        StopReason::Converged => return Ok(results),
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
    })
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
    validate(spec)?;
    let topology = Arc::new(Topology::of(spec));
    run_with(spec, config, &topology, None, false).map(|(analysis, _, _)| analysis)
}

/// One global iteration's resolved models, indexed by spec position:
/// the resolver's memo tables, moved out when the iteration completes.
/// A slot is `None` when nothing resolved it that iteration (a frame
/// whose processed HEM no one consumed) — and, in a capture, for every
/// processed HEM but the converged iteration's. Every model is
/// immutable, so a later iteration or run reuses one as an `Arc` clone.
#[derive(Debug)]
pub(crate) struct Resolution {
    /// Activation model of `spec.tasks[i]`.
    pub(crate) tasks: Vec<Option<ModelRef>>,
    /// Packed HEM of `spec.frames[j]`.
    packed: Vec<Option<Arc<HierarchicalEventModel>>>,
    /// Analysis outer stream of `spec.frames[j]`.
    outer: Vec<Option<ModelRef>>,
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
}

/// One entity's busy-window outcome without its name: what a global
/// iteration records per spec position, and what a warm start replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record {
    pub(crate) response: ResponseTime,
    pub(crate) busy_activations: u64,
}

impl Record {
    fn of(result: &TaskResult) -> Self {
        Record {
            response: result.response,
            busy_activations: result.busy_activations,
        }
    }
}

/// The results of one completed global iteration, by spec position. A
/// completed iteration analyses every frame and every task.
#[derive(Debug)]
pub(crate) struct IterationResults {
    /// Result of `spec.frames[j]`.
    pub(crate) frames: Vec<Record>,
    /// Result of `spec.tasks[i]`.
    pub(crate) tasks: Vec<Record>,
}

impl IterationResults {
    fn response(&self, entity: Entity) -> ResponseTime {
        match entity {
            Entity::Frame(j) => self.frames[j].response,
            Entity::Task(i) => self.tasks[i].response,
        }
    }

    /// Whether every response time equals `other`'s — the global fixed
    /// point (busy-activation counts do not take part).
    fn same_responses(&self, other: &IterationResults) -> bool {
        let same = |a: &[Record], b: &[Record]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.response == y.response)
        };
        same(&self.frames, &other.frames) && same(&self.tasks, &other.tasks)
    }

    /// Every entity's result, named, in entity order.
    fn task_results(&self, topology: &Topology) -> Vec<TaskResult> {
        let records = topology.by_entity(&self.frames, &self.tasks);
        records
            .enumerate()
            .map(|(k, r)| TaskResult {
                name: topology.entity_name(k).to_string(),
                response: r.response,
                busy_activations: r.busy_activations,
            })
            .collect()
    }
}

/// The warm-start plan handed to the engine: which resources are
/// outside the damage cone, by resource number, and the snapshot they
/// replay.
pub(crate) struct EngineWarm<'w> {
    /// Whether resource `r` is outside the damage cone.
    pub(crate) clean: Vec<bool>,
    /// Whether `spec.frames[j]` is external-fed and its packing inputs
    /// (source models, transfers, type, payload, format) equal the
    /// snapshot's: its recorded packing and outer stream carry over
    /// even when its bus is in the cone.
    pub(crate) kept_packings: Vec<bool>,
    pub(crate) snapshot: &'w crate::warm::WarmStart,
}

/// One iteration's view of the warm-start plan: the clean-resource
/// flags plus the snapshot state replayed this iteration.
struct WarmIteration<'w> {
    plan: &'w EngineWarm<'w>,
    replay: Replay<'w>,
}

/// The previous iteration of this run as the next one sees it: its
/// results and resolved models, and the resources it cannot have
/// changed.
#[derive(Clone, Copy)]
struct Previous<'a> {
    results: &'a IterationResults,
    resolution: &'a Resolution,
    /// Whether resource `r` is outside the in-run damage cone: it reads
    /// no task output that moved in the previous iteration, directly or
    /// through what it reads, so it repeats that iteration.
    settled: &'a [bool],
}

/// The response time of `spec.tasks[i]` that an iteration after
/// `previous` reads: its record there, or zero in the first iteration.
fn read_response(previous: Option<&IterationResults>, i: usize) -> ResponseTime {
    previous.map_or(ResponseTime::new(Time::ZERO, Time::ZERO), |p| {
        p.tasks[i].response
    })
}

/// The resources the iteration after `results` cannot change, given
/// what `results`' own iteration read (`read`, `None` for the first).
///
/// An iteration reads only one thing from its predecessor: the response
/// times behind task outputs. So only the readers of a task whose
/// response moved, and what depends on them, can differ from `results`;
/// the rest is settled.
fn settled_after(
    topology: &Topology,
    read: Option<&IterationResults>,
    results: &IterationResults,
) -> Vec<bool> {
    let moved = (0..results.tasks.len())
        .filter(|&i| results.tasks[i].response != read_response(read, i))
        .flat_map(|i| topology.task_readers(i).iter().copied());
    let cone = topology.dependents_closure(moved);
    cone.into_iter().map(|dirty| !dirty).collect()
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

/// One global iteration's local analyses, resolving on demand: every
/// frame's bus result in spec order, then every CPU in spec order (see
/// the module docs).
///
/// A clean resource — outside a warm plan's damage cone, or outside the
/// in-run cone of what the previous iteration moved — replays its
/// recorded results at the point where a cold run analyses it. The
/// resolver was seeded with its recorded models, so it resolves, lifts
/// and packs nothing for it. An iteration costs O(damage cone).
///
/// The iteration stops at the first failure in this order: a local
/// analysis that aborts, a hard spec error, or a budget found
/// exhausted before a resource. Nothing after it is analysed, so a
/// failed iteration names the first failing entity in resolution order.
fn run_iteration(resolver: &mut Resolver<'_>) -> Result<IterationResults, IterationError> {
    let (spec, topology) = (resolver.spec, resolver.topology);
    for j in 0..spec.frames.len() {
        resolver
            .frame_result(j)
            .map_err(|e| IterationError::classify(e, topology, "frame:"))?;
    }
    let mut tasks = vec![None; spec.tasks.len()];
    for c in 0..spec.cpus.len() {
        resolver
            .cpu_results(c, &mut tasks)
            .map_err(|e| IterationError::classify(e, topology, "task:"))?;
    }
    let complete = |slots: &[Option<Record>]| -> Vec<Record> {
        slots
            .iter()
            .map(|r| r.expect("a completed iteration analyses every entity"))
            .collect()
    };
    Ok(IterationResults {
        frames: complete(&resolver.frame_results),
        tasks: complete(&tasks),
    })
}

enum IterationError {
    /// A local busy-window analysis aborted (divergence or budget): the
    /// run can degrade gracefully. `entity` is the failed entity's
    /// position in `topology.entities`.
    Local { entity: usize, error: AnalysisError },
    /// The wall-clock budget expired before a resource of an iteration
    /// (warm-start replays included): degrade gracefully with the last
    /// completed iteration's results.
    Budget,
    /// A hard spec/model error: propagate.
    Hard(SystemError),
}

impl IterationError {
    /// Classifies an error of a `prefix` entity (`"task:"` /
    /// `"frame:"`).
    fn classify(e: SystemError, topology: &Topology, prefix: &str) -> Self {
        match e {
            SystemError::Analysis(
                error @ (AnalysisError::NoConvergence { .. }
                | AnalysisError::BudgetExhausted { .. }),
            ) => {
                let name = match &error {
                    AnalysisError::NoConvergence { task, .. }
                    | AnalysisError::BudgetExhausted { task } => task,
                    AnalysisError::InvalidTaskSet(_) => unreachable!(),
                };
                let entity = topology
                    .find_entity(prefix, name)
                    .expect("a local analysis is named after its entity");
                IterationError::Local { entity, error }
            }
            SystemError::BudgetExhausted { entity: None } => IterationError::Budget,
            other => IterationError::Hard(other),
        }
    }
}

/// The state a stopped run salvages: the completed iterations' results,
/// the growth tracks, the last completed iteration's resolved models,
/// and the entity that stopped the run.
struct Salvage<'s> {
    trajectory: Vec<IterationResults>,
    tracks: &'s [Track],
    resolution: Option<&'s Resolution>,
    /// The failed entity of a local abort, or the entity that tripped
    /// the divergence heuristic, by position in `topology.entities`.
    culprit: Option<usize>,
}

/// Builds the outcome of a run that stopped short of a fixed point.
fn stopped(
    config: &SystemConfig,
    topology: &Arc<Topology>,
    started: Instant,
    stop: StopReason,
    salvage: Salvage<'_>,
) -> RobustAnalysis {
    let Salvage {
        trajectory,
        tracks,
        resolution,
        culprit,
    } = salvage;
    let failed = match stop {
        StopReason::LocalAnalysisFailed { .. } => culprit,
        _ => None,
    };
    let statuses = (0..topology.entities.len())
        .map(|k| {
            if failed == Some(k) {
                ConvergenceStatus::Failed
            } else if let Some(track) = tracks.get(k) {
                track.status(config.divergence_streak)
            } else if trajectory.is_empty() {
                ConvergenceStatus::Unknown
            } else {
                ConvergenceStatus::Unsettled
            }
        })
        .collect();
    // Longest streak first, then in key order.
    let mut diverging: Vec<(u64, usize)> = tracks
        .iter()
        .enumerate()
        .filter(|(_, t)| config.divergence_streak > 0 && t.streak >= config.divergence_streak)
        .map(|(k, t)| (t.streak, k))
        .collect();
    diverging.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let suspected_bottleneck = culprit
        .or_else(|| diverging.first().map(|&(_, k)| k))
        .and_then(|k| topology.host(topology.entities[k]))
        .map(|r| topology.resource_key(r).to_string());
    let inputs = resolution.map_or_else(Vec::new, |r| {
        topology.by_entity(&r.outer, &r.tasks).cloned().collect()
    });
    let results = trajectory
        .last()
        .map_or_else(Vec::new, |last| last.task_results(topology));
    RobustAnalysis {
        results: SystemResults {
            mode: config.mode,
            iterations: trajectory.len() as u64,
            complete: false,
            topology: Arc::clone(topology),
            results,
            statuses,
            inputs,
            outputs: Vec::new(),
            unpacked: Vec::new(),
        },
        diagnostics: Diagnostics {
            stop,
            iterations: trajectory.len() as u64,
            elapsed: started.elapsed(),
            diverging: diverging
                .into_iter()
                .map(|(_, k)| topology.entity_keys.get(k).to_string())
                .collect(),
            suspected_bottleneck,
            trajectory: trajectory.into(),
            topology: Arc::clone(topology),
        },
    }
}

/// The full engine loop over a validated spec and its topology,
/// optionally replaying a warm-start plan and/or capturing the run's
/// trajectory for a future warm start.
///
/// The run's one store is its trajectory: every completed iteration's
/// results by spec position. The name-keyed outputs (results,
/// diagnostics, the convergence trace) are views over it and the
/// topology's sorted keys.
///
/// Returns the analysis, the resolved models of every completed
/// iteration (`Some` only when `capture` is set **and** the run
/// converged — a stopped run's trajectory is not a fixed point; a warm
/// start pairs them with the diagnostics' trajectory), and the total
/// number of per-entity analyses replayed from the snapshot.
pub(crate) fn run_with(
    spec: &SystemSpec,
    config: &SystemConfig,
    topology: &Arc<Topology>,
    warm: Option<&EngineWarm<'_>>,
    capture: bool,
) -> Result<(RobustAnalysis, Option<Vec<Resolution>>, u64), SystemError> {
    let started = Instant::now();
    let recorder = config.local.recorder.clone();
    let _run_span = recorder.span("analyze", "engine");

    // Degradation state besides the trajectory: the growth tracks (by
    // position in `topology.entities`; empty until an iteration misses
    // the fixed point) and the resolved models of completed iterations
    // — all of them when capturing, else only the last, whose models a
    // stopped run salvages.
    let mut trajectory: Vec<IterationResults> = Vec::new();
    let mut tracks: Vec<Track> = Vec::new();
    let mut resolutions: Vec<Resolution> = Vec::new();
    // The resources the next iteration replays from the last one.
    let mut settled: Vec<bool> = Vec::new();
    let mut curves = HashSet::new();
    let mut replayed_total = 0u64;
    let analytic = config.analytic_enabled();

    macro_rules! stop {
        ($reason:expr, $culprit:expr) => {
            return Ok((
                stopped(
                    config,
                    topology,
                    started,
                    $reason,
                    Salvage {
                        culprit: $culprit,
                        trajectory,
                        tracks: &tracks,
                        resolution: resolutions.last(),
                    },
                ),
                None,
                replayed_total,
            ))
        };
    }

    for iteration in 1..=config.max_global_iterations {
        if config.local.budget.exhausted() {
            stop!(StopReason::BudgetExhausted, None);
        }
        let iter_span = recorder.span("global_iteration", "engine");
        let warm_iter = warm.map(|plan| WarmIteration {
            plan,
            replay: plan.snapshot.replay(iteration),
        });
        let previous = trajectory
            .last()
            .zip(resolutions.last())
            .map(|(results, resolution)| Previous {
                results,
                resolution,
                settled: &settled,
            });
        let mut resolver = Resolver::new(
            spec,
            config,
            topology,
            analytic,
            previous,
            warm_iter.as_ref(),
            &mut curves,
        );
        let iteration_outcome = run_iteration(&mut resolver);
        drop(iter_span);
        let results = match iteration_outcome {
            Ok(results) => results,
            Err(IterationError::Hard(e)) => return Err(e),
            Err(IterationError::Budget) => stop!(StopReason::BudgetExhausted, None),
            Err(IterationError::Local { entity, error }) => {
                let key = topology.entity_keys.get(entity).to_string();
                stop!(
                    StopReason::LocalAnalysisFailed { entity: key, error },
                    Some(entity)
                )
            }
        };
        replayed_total += resolver.replayed;
        recorder.add(Counter::GlobalIterations, 1);

        let fixed_point = match trajectory.last() {
            Some(last) => results.same_responses(last),
            None => results.frames.is_empty() && results.tasks.is_empty(),
        };
        if fixed_point {
            // Fixed point: assemble results from the final resolver
            // state, resolving in spec order.
            let mut task_activations = Vec::with_capacity(spec.tasks.len());
            for i in 0..spec.tasks.len() {
                task_activations.push(Some(resolver.task_activation(i)?));
            }
            let mut frame_inputs = Vec::with_capacity(spec.frames.len());
            let mut frame_outputs = Vec::with_capacity(spec.frames.len());
            let mut unpacked = Vec::new();
            for (j, f) in spec.frames.iter().enumerate() {
                frame_inputs.push(Some(resolver.analysis_outer(j)?));
                frame_outputs.push(resolver.frame_output(j)?);
                if config.mode == AnalysisMode::Hierarchical {
                    let processed = resolver.processed_hem(j)?;
                    unpacked.extend(f.signals.iter().map(|s| processed.unpack_by_name(&s.name)));
                }
            }
            let tables = resolver.tables;
            let captured = capture.then(|| {
                push_resolution(&mut resolutions, tables, true);
                resolutions
            });
            let task_results = results.task_results(topology);
            trajectory.push(results);
            let results = SystemResults {
                mode: config.mode,
                iterations: iteration,
                complete: true,
                topology: Arc::clone(topology),
                results: task_results,
                statuses: Vec::new(),
                inputs: topology
                    .by_entity(&frame_inputs, &task_activations)
                    .cloned()
                    .collect(),
                outputs: topology
                    .sorted_frames()
                    .map(|j| frame_outputs[j].clone())
                    .collect(),
                unpacked,
            };
            let diagnostics = Diagnostics {
                stop: StopReason::Converged,
                iterations: iteration,
                elapsed: started.elapsed(),
                diverging: Vec::new(),
                suspected_bottleneck: None,
                trajectory: trajectory.into(),
                topology: Arc::clone(topology),
            };
            return Ok((
                RobustAnalysis {
                    results,
                    diagnostics,
                },
                captured,
                replayed_total,
            ));
        }
        let tables = resolver.tables;
        push_resolution(&mut resolutions, tables, capture);
        settled = settled_after(topology, trajectory.last(), &results);

        // Track growth and detect sustained divergence early.
        if tracks.is_empty() {
            tracks = vec![Track::default(); topology.entities.len()];
        }
        for (track, &entity) in tracks.iter_mut().zip(&topology.entities) {
            track.update(results.response(entity));
        }
        trajectory.push(results);
        if config.divergence_streak > 0 {
            // The last longest streak in prefixed-key order.
            if let Some((k, track)) = tracks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.streak >= config.divergence_streak)
                .max_by_key(|(_, t)| t.streak)
            {
                let reason = StopReason::DivergenceDetected {
                    entity: topology.entity_keys.get(k).to_string(),
                    streak: track.streak,
                };
                stop!(reason, Some(k));
            }
        }
    }
    stop!(StopReason::IterationLimitReached, None)
}

/// Appends a completed iteration's resolved models: when capturing, to
/// the full history, else replacing the previous iteration's.
///
/// A capture drops the previous iteration's processed HEMs: a replay
/// needs them only for dirty consumers of a clean frame, which rebuild
/// them from the recorded packing and result, while the converged
/// iteration's feed the results of every replaying run.
fn push_resolution(resolutions: &mut Vec<Resolution>, resolution: Resolution, capture: bool) {
    if !capture {
        resolutions.clear();
    } else if let Some(prev) = resolutions.last_mut() {
        prev.processed.iter_mut().for_each(|p| *p = None);
    }
    resolutions.push(resolution);
}

/// Per-iteration lazy evaluator with memoization and cycle detection.
///
/// A clean resource replays instead of resolving and analysing: from the
/// snapshot's record of this iteration when the warm plan leaves it
/// outside the damage cone, else from the previous iteration when
/// nothing it reads moved since (see [`Previous::settled`]).
struct Resolver<'a> {
    spec: &'a SystemSpec,
    config: &'a SystemConfig,
    topology: &'a Topology,
    /// The previous iteration of this run (`None` in the first).
    previous: Option<Previous<'a>>,
    /// The warm-start plan, if any: which resources replay, and what.
    warm: Option<&'a WarmIteration<'a>>,
    /// Per-entity analyses replayed from the snapshot this iteration.
    replayed: u64,
    /// The memo tables: this iteration's resolved models, moved out
    /// when the iteration completes (for salvage or warm-start capture).
    tables: Resolution,
    /// This iteration's bus-analysis result of `spec.frames[j]`.
    frame_results: Vec<Option<Record>>,
    /// Packings (with their outer streams) carried from an earlier
    /// iteration or run, moved into the tables where this iteration
    /// would otherwise build them.
    carried: Vec<Option<(Arc<HierarchicalEventModel>, ModelRef)>>,
    visiting_tasks: Vec<bool>,
    visiting_frames: Vec<bool>,
    /// Whether resolved models are swapped for closed-form analytic
    /// curves (resolved once per run from the config).
    analytic: bool,
    /// Every distinct curve the run has lifted. An equal lift (another
    /// receiver of the same stream, or a later iteration repeating an
    /// earlier one) shares its allocation, so a snapshot holds one
    /// copy of each curve value.
    curves: &'a mut HashSet<Arc<AnalyticCurve>>,
}

impl<'a> Resolver<'a> {
    /// A resolver for one iteration, its tables seeded with the models
    /// of every clean resource: first the snapshot's, then, for what
    /// they leave unresolved, the previous iteration's. Then it carries
    /// packings: an external-fed frame's packing holds for the whole
    /// run, and across warm runs while its packing inputs hold.
    fn new(
        spec: &'a SystemSpec,
        config: &'a SystemConfig,
        topology: &'a Topology,
        analytic: bool,
        previous: Option<Previous<'a>>,
        warm: Option<&'a WarmIteration<'a>>,
        curves: &'a mut HashSet<Arc<AnalyticCurve>>,
    ) -> Self {
        let mut resolver = Resolver {
            spec,
            config,
            topology,
            previous,
            warm,
            replayed: 0,
            tables: Resolution::empty(spec),
            frame_results: vec![None; spec.frames.len()],
            carried: vec![None; spec.frames.len()],
            visiting_tasks: vec![false; spec.tasks.len()],
            visiting_frames: vec![false; spec.frames.len()],
            analytic,
            curves,
        };
        if let Some(w) = warm {
            resolver.seed(w.replay.resolution, &w.plan.clean);
        }
        if let Some(p) = previous {
            resolver.seed(p.resolution, p.settled);
        }
        match (previous, warm) {
            (Some(p), _) => resolver.carry(p.resolution, |j| topology.external_fed(j)),
            (None, Some(w)) => resolver.carry(w.replay.resolution, |j| w.plan.kept_packings[j]),
            (None, None) => {}
        }
        resolver
    }

    /// Fills every unresolved slot of an entity on a `clean` resource
    /// (by resource number) with its model in `record`. A clean
    /// resource's models are bit-identical to what resolution would
    /// rebuild, so the iteration never resolves, lifts, or packs them;
    /// dirty resources read them from the tables like any resolved
    /// model.
    fn seed(&mut self, record: &Resolution, clean: &[bool]) {
        fn fill<T: Clone>(slot: &mut Option<T>, from: &Option<T>) {
            if slot.is_none() {
                slot.clone_from(from);
            }
        }
        let topology = self.topology;
        for (c, tasks) in topology.cpu_tasks.iter().enumerate() {
            if clean[topology.cpu_resource(c)] {
                for &i in tasks {
                    fill(&mut self.tables.tasks[i], &record.tasks[i]);
                }
            }
        }
        for (b, frames) in topology.bus_frames.iter().enumerate() {
            if clean[b] {
                for &j in frames {
                    fill(&mut self.tables.packed[j], &record.packed[j]);
                    fill(&mut self.tables.outer[j], &record.outer[j]);
                    fill(&mut self.tables.processed[j], &record.processed[j]);
                }
            }
        }
    }

    /// Carries the packing and outer stream of every `keep` frame that
    /// seeding left unresolved from `from`, a resolution with the same
    /// packing inputs.
    fn carry(&mut self, from: &Resolution, keep: impl Fn(usize) -> bool) {
        for j in 0..self.spec.frames.len() {
            if self.tables.packed[j].is_none() && keep(j) {
                self.carried[j] = from.packed[j].clone().zip(from.outer[j].clone());
            }
        }
    }

    /// Moves a carried packing of `spec.frames[j]` into the tables,
    /// counting it towards `packing_ops` where a rebuild would count.
    fn take_carried(&mut self, j: usize) {
        if let Some((hem, outer)) = self.carried[j].take() {
            self.config.local.recorder.add(Counter::PackingOps, 1);
            self.tables.outer[j] = Some(outer);
            self.tables.packed[j] = Some(hem);
        }
    }

    /// Counts the seeded packings of clean bus `b` towards
    /// `packing_ops`: replayed packings enter the iteration's state as
    /// computed ones do, so warm and cold runs count alike.
    fn count_replayed_packings(&self, b: usize) {
        let packed = self.topology.bus_frames[b]
            .iter()
            .filter(|&&j| self.tables.packed[j].is_some())
            .count() as u64;
        if packed > 0 {
            self.config.local.recorder.add(Counter::PackingOps, packed);
        }
    }

    /// The recorded results clean resource `r` replays this iteration,
    /// and whether they come from the snapshot (a warm-start hit), or
    /// `None` when `r` is analysed.
    fn replay(&self, r: usize) -> Option<(&'a IterationResults, bool)> {
        if let Some(w) = self.warm.filter(|w| w.plan.clean[r]) {
            return Some((w.replay.results, true));
        }
        let previous = self.previous.filter(|p| p.settled[r])?;
        Some((previous.results, false))
    }

    /// Counts `entities` results replayed from the snapshot.
    fn count_replayed(&mut self, entities: usize) {
        let entities = entities as u64;
        if entities > 0 {
            let recorder = &self.config.local.recorder;
            recorder.add(Counter::WarmStartHits, entities);
            self.replayed += entities;
        }
    }

    /// Fails with [`SystemError::BudgetExhausted`], naming no entity,
    /// once the wall-clock budget has expired: polled before each
    /// resource, so cancellation does not wait for the end of an
    /// iteration.
    fn poll_budget(&self) -> Result<(), SystemError> {
        if self.config.local.budget.exhausted() {
            return Err(SystemError::BudgetExhausted { entity: None });
        }
        Ok(())
    }

    /// `model`, or its closed-form analytic curve when an exact lift
    /// exists (see `docs/CURVES.md`). Results are bit-for-bit identical
    /// either way — the lift only changes how queries are answered. A
    /// refused model is queried directly. Runs during resolution, in
    /// spec order, so the lift / fallback tallies are deterministic. A
    /// curve equal to one lifted earlier in the run comes back as that
    /// allocation.
    fn lifted(&mut self, model: ModelRef) -> ModelRef {
        if !self.analytic {
            return model;
        }
        let recorder = &self.config.local.recorder;
        match model.analytic() {
            Some(curve) => {
                recorder.add(Counter::AnalyticLifts, 1);
                if let Some(shared) = self.curves.get(&curve) {
                    return shared.clone();
                }
                let curve = Arc::new(curve);
                self.curves.insert(curve.clone());
                curve
            }
            None => {
                recorder.add(Counter::AnalyticFallbacks, 1);
                model
            }
        }
    }

    /// The frame-activation stream of `spec.frames[j]` as the bus
    /// analysis sees it: the packed outer stream, SEM-fitted under
    /// [`AnalysisMode::FlatSem`].
    fn analysis_outer(&mut self, j: usize) -> Result<ModelRef, SystemError> {
        self.take_carried(j);
        if let Some(m) = &self.tables.outer[j] {
            return Ok(m.clone());
        }
        let outer = self.packed_hem(j)?.flatten();
        let outer = self.lifted(outer);
        let outer = match self.config.mode {
            AnalysisMode::FlatSem => {
                approx::sem_approximation(outer.as_ref(), self.config.sem_fit_horizon)?.shared()
            }
            AnalysisMode::Flat | AnalysisMode::Hierarchical => outer,
        };
        self.tables.outer[j] = Some(outer.clone());
        Ok(outer)
    }

    /// The previous iteration's response time of `spec.tasks[i]` (zero
    /// in the first iteration).
    fn prev_rt(&self, i: usize) -> ResponseTime {
        read_response(self.previous.map(|p| p.results), i)
    }

    /// Resolves an activation source: `wire`, its wiring in the
    /// topology, names what it reads by spec position, while external
    /// models come from the spec itself.
    fn resolve_source(
        &mut self,
        wire: &Wire,
        source: &ActivationSpec,
    ) -> Result<ModelRef, SystemError> {
        match (wire, source) {
            (_, ActivationSpec::External(model)) => Ok(model.clone()),
            (&Wire::TaskOutput(i), _) => {
                let input = self.task_activation(i)?;
                let rt = self.prev_rt(i);
                Ok(OutputModel::new(input, rt.r_minus, rt.r_plus)?.shared())
            }
            (&Wire::Signal { frame: j, .. }, ActivationSpec::Signal { frame, signal }) => {
                match self.config.mode {
                    AnalysisMode::Hierarchical => {
                        let processed = self.processed_hem(j)?;
                        processed.unpack_by_name(signal).ok_or_else(|| {
                            SystemError::UnknownReference {
                                kind: "signal",
                                name: signal_key(frame, signal),
                            }
                        })
                    }
                    AnalysisMode::Flat | AnalysisMode::FlatSem => self.frame_output(j),
                }
            }
            (&Wire::FrameArrivals(j), _) => self.frame_output(j),
            (Wire::AnyOf(wires), ActivationSpec::AnyOf(sources)) => {
                let models = wires
                    .iter()
                    .zip(sources)
                    .map(|(w, s)| self.resolve_source(w, s))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(hem_event_models::ops::OrJoin::new(models)?.shared())
            }
            (Wire::AllOf(wires), ActivationSpec::AllOf(sources)) => {
                let models = wires
                    .iter()
                    .zip(sources)
                    .map(|(w, s)| self.resolve_source(w, s))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(hem_event_models::ops::AndJoin::new(models)?.shared())
            }
            _ => unreachable!("a validated spec's topology wires every source"),
        }
    }

    /// The activation model of `spec.tasks[i]`.
    fn task_activation(&mut self, i: usize) -> Result<ModelRef, SystemError> {
        if let Some(m) = &self.tables.tasks[i] {
            return Ok(m.clone());
        }
        let task = &self.spec.tasks[i];
        if std::mem::replace(&mut self.visiting_tasks[i], true) {
            return Err(SystemError::DependencyCycle {
                name: task.name.clone(),
            });
        }
        let resolved = self.resolve_source(&self.topology.task_wires[i], &task.activation)?;
        let resolved = self.lifted(resolved);
        self.visiting_tasks[i] = false;
        self.tables.tasks[i] = Some(resolved.clone());
        Ok(resolved)
    }

    /// The packed HEM of `spec.frames[j]`.
    fn packed_hem(&mut self, j: usize) -> Result<Arc<HierarchicalEventModel>, SystemError> {
        self.take_carried(j);
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
        let wires = self.topology.frame_signal_wires(j);
        for (s, wire) in frame.signals.iter().zip(wires) {
            let model = self.resolve_source(wire, &s.source)?;
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

    /// Every frame on `spec.buses[b]` (in spec order) with its resolved
    /// outer stream, resolving packings on the way.
    fn bus_frames(&mut self, b: usize) -> Result<Vec<BusFrame>, SystemError> {
        let topology = self.topology;
        let mut bus_frames = Vec::with_capacity(topology.bus_frames[b].len());
        for &j in &topology.bus_frames[b] {
            let outer = self.analysis_outer(j)?;
            let f = &self.spec.frames[j];
            bus_frames.push(BusFrame::new(
                f.name.clone(),
                CanFrameConfig::new(f.format, f.payload_bytes)?,
                f.priority,
                outer,
            ));
        }
        Ok(bus_frames)
    }

    /// Lowers every task on `spec.cpus[c]` to its generic analysis task
    /// (in spec order), resolving activation models.
    fn lower_cpu(&mut self, c: usize) -> Result<Vec<AnalysisTask>, SystemError> {
        let topology = self.topology;
        topology.cpu_tasks[c]
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

    /// The bus-analysis result of `spec.frames[j]`. The first request
    /// for a frame of a bus polls the budget, then analyses the whole
    /// bus — resolving, and so first analysing, the buses its packings
    /// read — or, when the bus is clean, replays its recorded results.
    fn frame_result(&mut self, j: usize) -> Result<Record, SystemError> {
        if let Some(record) = self.frame_results[j] {
            return Ok(record);
        }
        self.poll_budget()?;
        let topology = self.topology;
        let b = topology.frame_bus[j].expect("a validated frame has a bus");
        let frames = &topology.bus_frames[b];
        if let Some((recorded, hit)) = self.replay(b) {
            self.count_replayed_packings(b);
            for &k in frames {
                self.frame_results[k] = Some(recorded.frames[k]);
            }
            if hit {
                self.count_replayed(frames.len());
            }
        } else {
            let bus_frames = self.bus_frames(b)?;
            let bus = &self.spec.buses[b].config;
            let results = hem_can::bus::analyze(&bus_frames, bus, &self.config.local)?;
            for (&k, result) in frames.iter().zip(&results) {
                self.frame_results[k] = Some(Record::of(result));
            }
        }
        Ok(self.frame_results[j].expect("a bus analysis covers every frame on the bus"))
    }

    /// Analyses every task on `spec.cpus[c]` into `tasks` (by spec
    /// position) after polling the budget, or, when the CPU is clean,
    /// replays its recorded results.
    fn cpu_results(&mut self, c: usize, tasks: &mut [Option<Record>]) -> Result<(), SystemError> {
        self.poll_budget()?;
        let on_cpu = &self.topology.cpu_tasks[c];
        if let Some((recorded, hit)) = self.replay(self.topology.cpu_resource(c)) {
            for &i in on_cpu {
                tasks[i] = Some(recorded.tasks[i]);
            }
            if hit {
                self.count_replayed(on_cpu.len());
            }
            return Ok(());
        }
        let lowered = self.lower_cpu(c)?;
        let results = spp::analyze(&lowered, &self.config.local)?;
        for (&i, result) in on_cpu.iter().zip(&results) {
            tasks[i] = Some(Record::of(result));
        }
        Ok(())
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
                .last_response_times()
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

    const MODES: [AnalysisMode; 3] = [
        AnalysisMode::Flat,
        AnalysisMode::FlatSem,
        AnalysisMode::Hierarchical,
    ];

    /// A frame on `bus` carrying one triggering signal `x` from `source`.
    fn gateway_frame(name: &str, bus: &str, source: ActivationSpec) -> FrameSpec {
        FrameSpec {
            name: name.into(),
            bus: bus.into(),
            frame_type: FrameType::Direct,
            payload_bytes: 2,
            format: FrameFormat::Standard,
            priority: Priority::new(1),
            signals: vec![SignalSpec {
                name: "x".into(),
                transfer: TransferProperty::Triggering,
                source,
            }],
        }
    }

    fn signal_x(frame: &str) -> ActivationSpec {
        ActivationSpec::Signal {
            frame: frame.into(),
            signal: "x".into(),
        }
    }

    /// Appends two buses feeding each other through gateway tasks: F0
    /// on b0 packs t1's output, t1 unpacks F1 on b1, F1 packs t0's
    /// output, and t0 unpacks F0.
    fn bus_loop(spec: SystemSpec) -> SystemSpec {
        spec.cpu("gw")
            .bus("b0", CanBusConfig::new(Time::new(1)))
            .bus("b1", CanBusConfig::new(Time::new(1)))
            .frame(gateway_frame(
                "F0",
                "b0",
                ActivationSpec::TaskOutput("t1".into()),
            ))
            .frame(gateway_frame(
                "F1",
                "b1",
                ActivationSpec::TaskOutput("t0".into()),
            ))
            .task(simple_task("t0", "gw", 10, 1, signal_x("F0")))
            .task(simple_task("t1", "gw", 10, 2, signal_x("F1")))
    }

    /// The resolver meets a cycle at the same entity in every mode: the
    /// first one it visits twice, resolving frames in spec order.
    #[test]
    fn dependency_cycles_name_the_same_entity_in_every_mode() {
        let self_loop = SystemSpec::new()
            .cpu("c")
            .bus("can", CanBusConfig::new(Time::new(1)))
            .frame(gateway_frame(
                "F1",
                "can",
                ActivationSpec::External(periodic(2_000)),
            ))
            .frame(gateway_frame(
                "F2",
                "can",
                ActivationSpec::TaskOutput("echo".into()),
            ))
            .task(simple_task("echo", "c", 10, 1, signal_x("F1")));
        let downstream_first = bus_loop(
            SystemSpec::new()
                .bus("bd", CanBusConfig::new(Time::new(1)))
                .frame(gateway_frame(
                    "FD",
                    "bd",
                    ActivationSpec::TaskOutput("t0".into()),
                )),
        );
        let shapes = [
            ("bus loop", bus_loop(SystemSpec::new()), "F0"),
            ("intra-bus self-loop", self_loop, "F2"),
            ("downstream bus first", downstream_first, "t0"),
        ];
        for (shape, spec, entity) in shapes {
            for mode in MODES {
                match analyze_robust(&spec, &SystemConfig::new(mode)) {
                    Err(SystemError::DependencyCycle { name }) => {
                        assert_eq!(name, entity, "{shape}, {mode:?}");
                    }
                    other => panic!("{shape}, {mode:?}: {:?}", other.map(|_| "ok")),
                }
            }
        }
    }

    /// A gateway chain — can0 → relay on gw → can1 → rx on sink — with
    /// every resource, frame and task of one half declared before or
    /// after the other's.
    fn gateway_chain(downstream_first: bool) -> SystemSpec {
        let upstream = |spec: SystemSpec| {
            spec.cpu("gw")
                .bus("can0", CanBusConfig::new(Time::new(1)))
                .frame(gateway_frame(
                    "F0",
                    "can0",
                    ActivationSpec::External(periodic(500)),
                ))
                .task(simple_task("relay", "gw", 30, 1, signal_x("F0")))
        };
        let downstream = |spec: SystemSpec| {
            spec.cpu("sink")
                .bus("can1", CanBusConfig::new(Time::new(1)))
                .frame(gateway_frame(
                    "F1",
                    "can1",
                    ActivationSpec::TaskOutput("relay".into()),
                ))
                .task(simple_task("rx", "sink", 40, 1, signal_x("F1")))
        };
        if downstream_first {
            upstream(downstream(SystemSpec::new()))
        } else {
            downstream(upstream(SystemSpec::new()))
        }
    }

    /// Declaring a downstream bus first makes its analysis resolve the
    /// upstream bus on demand: the results, and every counter of the
    /// work done, equal the upstream-first declaration's.
    #[test]
    fn declaration_order_changes_no_result_and_no_counter() {
        let run = |spec: &SystemSpec, mode| {
            let (recorder, handle) = hem_obs::MemoryRecorder::handle();
            let config = SystemConfig::new(mode).with_recorder(handle);
            let results = analyze(spec, &config).expect("the chain converges");
            (results, recorder.snapshot())
        };
        for mode in MODES {
            let (upstream, up_metrics) = run(&gateway_chain(false), mode);
            let (downstream, down_metrics) = run(&gateway_chain(true), mode);
            assert_eq!(upstream.iterations(), downstream.iterations(), "{mode:?}");
            let results = |r: &SystemResults| -> Vec<TaskResult> {
                r.frames()
                    .chain(r.tasks())
                    .map(|(_, t)| t.clone())
                    .collect()
            };
            assert_eq!(results(&upstream), results(&downstream), "{mode:?}");
            assert_eq!(up_metrics.counters, down_metrics.counters, "{mode:?}");
            assert_eq!(up_metrics.labeled, down_metrics.labeled, "{mode:?}");
            assert!(up_metrics.counters["packing_ops"] > 0);
            for (frame, signal) in [("F0", "x"), ("F1", "x")] {
                let (a, b) = (
                    upstream.frame_output(frame).expect("converged"),
                    downstream.frame_output(frame).expect("converged"),
                );
                for n in 2..=16 {
                    assert_eq!(a.delta_min(n), b.delta_min(n), "{mode:?} {frame}");
                    assert_eq!(a.delta_plus(n), b.delta_plus(n), "{mode:?} {frame}");
                }
                assert_eq!(
                    upstream.unpacked_signal(frame, signal).is_some(),
                    downstream.unpacked_signal(frame, signal).is_some()
                );
            }
        }
    }

    /// A three-hop gateway chain fed by a bursty source: F0 on can0 →
    /// relay1 on gw1 → F1 on can1 → relay2 on gw2 → F2 on can2 → rx on
    /// sink. Each relay's response jitter widens the next hop's bursts.
    fn relay_chain() -> SystemSpec {
        let bursty = StandardEventModel::periodic_with_jitter(Time::new(1_000), Time::new(2_500));
        let relay = |name: &str, cpu: &str, wcet: i64, frame: &str| TaskSpec {
            bcet: Time::new(50),
            ..simple_task(name, cpu, wcet, 1, signal_x(frame))
        };
        SystemSpec::new()
            .cpu("gw1")
            .cpu("gw2")
            .cpu("sink")
            .bus("can0", CanBusConfig::new(Time::new(1)))
            .bus("can1", CanBusConfig::new(Time::new(1)))
            .bus("can2", CanBusConfig::new(Time::new(1)))
            .frame(gateway_frame(
                "F0",
                "can0",
                ActivationSpec::External(bursty.expect("a valid model").shared()),
            ))
            .frame(gateway_frame(
                "F1",
                "can1",
                ActivationSpec::TaskOutput("relay1".into()),
            ))
            .frame(gateway_frame(
                "F2",
                "can2",
                ActivationSpec::TaskOutput("relay2".into()),
            ))
            .task(relay("relay1", "gw1", 300, "F0"))
            .task(relay("relay2", "gw2", 300, "F1"))
            .task(relay("rx", "sink", 400, "F2"))
    }

    /// An iteration re-analyses only what reads a task output that the
    /// previous iteration moved, and what depends on that. Hop `h` of
    /// the relay chain reads relay `h`'s output, which settles in
    /// iteration `h`, so its busy-window counters grow up to iteration
    /// `h + 1` and stay flat after it; a confirming iteration whose
    /// predecessor moved no task re-analyses nothing. The results are
    /// pinned.
    #[test]
    fn the_in_run_cone_follows_task_outputs() {
        let spec = relay_chain();
        let hops = [["F0", "relay1"], ["F1", "relay2"], ["F2", "rx"]];
        // (r⁻, r⁺) in entity order: F0, F1, F2, relay1, relay2, rx.
        let r_minus = [63, 63, 63, 50, 50, 50];
        let goldens = [
            (
                AnalysisMode::Hierarchical,
                4,
                [225, 150, 175, 862, 1061, 2084],
            ),
            (AnalysisMode::Flat, 4, [225, 150, 175, 862, 1061, 2084]),
            (AnalysisMode::FlatSem, 4, [225, 150, 196, 862, 1101, 2085]),
        ];
        for (mode, iterations, r_plus) in goldens {
            let run = |cap: u64| {
                let (recorder, handle) = hem_obs::MemoryRecorder::handle();
                let mut config = SystemConfig::new(mode).with_recorder(handle);
                config.max_global_iterations = cap;
                let robust = analyze_robust(&spec, &config).expect("well-formed");
                (robust, recorder.snapshot())
            };
            let (full, _) = run(64);
            assert!(full.diagnostics.converged(), "{mode:?}");
            assert_eq!(full.diagnostics.iterations, iterations, "{mode:?}");
            let results: Vec<(i64, i64)> = full
                .results
                .frames()
                .chain(full.results.tasks())
                .map(|(_, r)| (r.response.r_minus.ticks(), r.response.r_plus.ticks()))
                .collect();
            let golden: Vec<(i64, i64)> = r_minus.into_iter().zip(r_plus).collect();
            assert_eq!(results, golden, "{mode:?}");
            let counts: Vec<_> = (1..=iterations).map(|cap| run(cap).1).collect();
            for (h, hop) in hops.iter().enumerate() {
                for entity in hop {
                    let count = |k: usize| {
                        counts[k - 1].labeled_counter(Counter::BusyWindowIterations, entity)
                    };
                    for k in 2..=iterations as usize {
                        if k <= h + 1 {
                            assert!(count(k) > count(k - 1), "{mode:?} {entity} grows in {k}");
                        } else {
                            assert_eq!(count(k), count(k - 1), "{mode:?} {entity} settled in {k}");
                        }
                    }
                }
            }
        }
    }

    /// A run stops at the first local failure in resolution order —
    /// every bus before every CPU — and analyses nothing after it: a
    /// diverging frame is named although an unrelated CPU declared
    /// before its bus diverges in the same iteration.
    #[test]
    fn first_failure_in_resolution_order_stops_the_run() {
        let spec = overloaded_system()
            .bus("can0", CanBusConfig::new(Time::new(1)))
            .frame(gateway_frame(
                "F",
                "can0",
                ActivationSpec::External(periodic(50)),
            ));
        for mode in MODES {
            let r = analyze_robust(&spec, &SystemConfig::new(mode)).expect("well-formed");
            assert!(
                matches!(
                    &r.diagnostics.stop,
                    StopReason::LocalAnalysisFailed { entity, .. } if entity == "frame:F"
                ),
                "{mode:?}: {:?}",
                r.diagnostics.stop
            );
            assert_eq!(r.results.iterations(), 0);
            assert_eq!(
                r.results.frame_convergence("F"),
                Some(ConvergenceStatus::Failed)
            );
            assert_eq!(
                r.results.task_convergence("victim"),
                Some(ConvergenceStatus::Unknown)
            );
            assert!(matches!(
                analyze(&spec, &SystemConfig::new(mode)).unwrap_err(),
                SystemError::Analysis(AnalysisError::NoConvergence { task, .. }) if task == "F"
            ));
        }
    }
}
