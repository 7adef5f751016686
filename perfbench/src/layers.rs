//! Per-layer cost estimates for one converged analysis.
//!
//! The engine does not time its inner layers, so the traced run
//! estimates them by **replay**: it calls each layer's public function
//! on the converged inputs that [`SystemResults`] exposes and multiplies
//! the per-iteration cost by the number of global iterations the engine
//! ran. Per global iteration the engine packs every frame
//! (`ComFrame::packed`), lifts every resolved model to a closed-form
//! curve (`analytic::lift`), runs the busy windows of every resource in
//! the damage cone (`spp` / CAN `spnp`), applies the Def. 9 inner update
//! (`HierarchicalEventModel::process`), and unpacks the signal streams.
//! Whatever the replays do not cover — model resolution, propagation,
//! the convergence check, pool start-up, bookkeeping — is the engine's
//! unattributed remainder.
//!
//! Curve queries happen *inside* busy windows, so `curve.query_us` is a
//! breakdown of `busy_window.us`, not a separate term of the sum.

use std::collections::HashSet;
use std::time::Instant;

use hem_analysis::{spp, AnalysisConfig, AnalysisTask};
use hem_autosar_com::{ComFrame, Signal};
use hem_can::{BusFrame, CanFrameConfig};
use hem_event_models::ops::OutputModel;
use hem_event_models::{analytic, EventModel, EventModelExt, ModelRef};
use hem_obs::{Counter, MetricsSnapshot};
use hem_system::{ActivationSpec, AnalysisMode, SystemResults, SystemSpec};
use hem_time::Time;

use crate::Outcome;

/// Replayed layer costs of one analysis, in microseconds (already
/// multiplied by the global iteration count).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineLayers {
    /// `analytic::lift` of every resolved task activation and frame
    /// outer stream.
    pub lift_us: f64,
    /// `ComFrame::packed` of every frame.
    pub pack_us: f64,
    /// `HierarchicalEventModel::process` of every frame.
    pub inner_update_us: f64,
    /// Unpacking every signal (and flattening every frame output).
    pub unpack_us: f64,
    /// Busy windows of the resources inside the damage cone.
    pub busy_window_us: f64,
    /// η⁺/δ⁻ queries over each busy window's horizon (part of
    /// `busy_window_us`).
    pub curve_query_us: f64,
    /// Number of curve queries replayed (per iteration × iterations).
    pub curve_queries: f64,
}

impl EngineLayers {
    /// The terms that add up to the engine time (curve queries excluded:
    /// they are inside the busy windows).
    #[must_use]
    pub fn attributed_us(&self) -> f64 {
        self.lift_us + self.pack_us + self.inner_update_us + self.unpack_us + self.busy_window_us
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &EngineLayers) {
        self.lift_us += other.lift_us;
        self.pack_us += other.pack_us;
        self.inner_update_us += other.inner_update_us;
        self.unpack_us += other.unpack_us;
        self.busy_window_us += other.busy_window_us;
        self.curve_query_us += other.curve_query_us;
        self.curve_queries += other.curve_queries;
    }
}

/// Engine recorder counters summed over traced ops.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounters {
    iterations: f64,
    busy_iterations: f64,
    lifts: f64,
    fallbacks: f64,
    cache_hits: f64,
    cache_misses: f64,
    packing_ops: f64,
}

impl EngineCounters {
    /// Adds one analysis's recorder snapshot.
    pub fn add(&mut self, snap: &MetricsSnapshot) {
        let c = |counter| snap.counter(counter) as f64;
        self.iterations += c(Counter::GlobalIterations);
        self.busy_iterations += c(Counter::BusyWindowIterations);
        self.lifts += c(Counter::AnalyticLifts);
        self.fallbacks += c(Counter::AnalyticFallbacks);
        self.cache_hits += c(Counter::CacheHits);
        self.cache_misses += c(Counter::CacheMisses);
        self.packing_ops += c(Counter::PackingOps);
    }
}

/// Records the engine's per-layer metrics as per-op means over `ops`
/// traced analyses that took `analyze_us` in total; returns
/// `engine.unattributed_us` (the engine time the replays do not cover).
pub fn report(
    out: &mut Outcome,
    layers: &EngineLayers,
    counters: &EngineCounters,
    analyze_us: f64,
    ops: f64,
) -> f64 {
    let unattributed = (analyze_us - layers.attributed_us()) / ops;
    let cached = counters.cache_hits + counters.cache_misses;
    for (name, value) in [
        ("engine.analyze_us", analyze_us / ops),
        ("engine.global_iterations", counters.iterations / ops),
        ("engine.unattributed_us", unattributed),
        ("analytic.lift_us", layers.lift_us / ops),
        ("analytic.lifts", counters.lifts / ops),
        ("analytic.fallbacks", counters.fallbacks / ops),
        ("curve.query_us", layers.curve_query_us / ops),
        ("curve.queries", layers.curve_queries / ops),
        // 0 when lifted curves bypass every cache.
        (
            "cache.hit_pct",
            if cached > 0.0 {
                100.0 * counters.cache_hits / cached
            } else {
                0.0
            },
        ),
        ("hem.pack_us", layers.pack_us / ops),
        ("hem.inner_update_us", layers.inner_update_us / ops),
        ("hem.unpack_us", layers.unpack_us / ops),
        ("hem.packing_ops", counters.packing_ops / ops),
        ("busy_window.us", layers.busy_window_us / ops),
        ("busy_window.iterations", counters.busy_iterations / ops),
    ] {
        out.set(name, value);
    }
    unattributed
}

fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Resolves an activation the way the engine does at the fixed point,
/// from the converged models in `results`.
fn resolve(source: &ActivationSpec, results: &SystemResults) -> Result<ModelRef, String> {
    let missing = |what: &str| format!("converged results lack {what}");
    Ok(match source {
        ActivationSpec::External(model) => model.clone(),
        ActivationSpec::TaskOutput(task) => {
            let input = results
                .task_activation(task)
                .ok_or_else(|| missing(task))?
                .clone();
            let rt = results.task(task).ok_or_else(|| missing(task))?.response;
            OutputModel::new(input, rt.r_minus, rt.r_plus)
                .map_err(|e| e.to_string())?
                .shared()
        }
        ActivationSpec::Signal { frame, signal } => match results.mode() {
            AnalysisMode::Hierarchical => results
                .unpacked_signal(frame, signal)
                .ok_or_else(|| missing(signal))?
                .clone(),
            AnalysisMode::Flat | AnalysisMode::FlatSem => results
                .frame_output(frame)
                .ok_or_else(|| missing(frame))?
                .clone(),
        },
        ActivationSpec::FrameArrivals(frame) => results
            .frame_output(frame)
            .ok_or_else(|| missing(frame))?
            .clone(),
        ActivationSpec::AnyOf(sources) => hem_event_models::ops::OrJoin::new(
            sources
                .iter()
                .map(|s| resolve(s, results))
                .collect::<Result<Vec<_>, _>>()?,
        )
        .map_err(|e| e.to_string())?
        .shared(),
        ActivationSpec::AllOf(sources) => hem_event_models::ops::AndJoin::new(
            sources
                .iter()
                .map(|s| resolve(s, results))
                .collect::<Result<Vec<_>, _>>()?,
        )
        .map_err(|e| e.to_string())?
        .shared(),
    })
}

/// Replays the η⁺/δ⁻ queries of each entity's busy window: δ⁻ of its
/// own stream for every activation of the window, and η⁺ of every other
/// entity on the resource at each of those window lengths. Returns
/// `(microseconds, queries)`.
fn replay_queries(entities: &[(ModelRef, u64, Time)]) -> (f64, f64) {
    let start = Instant::now();
    let mut queries = 0u64;
    let mut sink = 0u64;
    for (i, (model, q, r_plus)) in entities.iter().enumerate() {
        for n in 1..=(*q + 1) {
            let window = model.delta_min(n) + *r_plus;
            queries += 1;
            for (j, (other, _, _)) in entities.iter().enumerate() {
                if j != i {
                    sink = sink.wrapping_add(other.eta_plus(window));
                    queries += 1;
                }
            }
        }
    }
    std::hint::black_box(sink);
    (us_since(start), queries as f64)
}

/// Replays the layers of one converged analysis. `dirty` names the
/// resources (`bus:<b>` / `cpu:<c>`) whose busy windows ran; `None`
/// means all of them (a cold run).
///
/// # Errors
///
/// When `results` is not a converged fixed point of `spec`.
pub fn replay(
    spec: &SystemSpec,
    results: &SystemResults,
    dirty: Option<&HashSet<String>>,
) -> Result<EngineLayers, String> {
    if !results.is_complete() {
        return Err("replays need a converged analysis".into());
    }
    let iterations = results.iterations() as f64;
    let local = AnalysisConfig::default();
    let in_cone = |key: String| dirty.is_none_or(|d| d.contains(&key));
    let mut per_iteration = EngineLayers::default();
    let mut sink = 0usize;

    for frame in &spec.frames {
        let mut signals = Vec::with_capacity(frame.signals.len());
        for s in &frame.signals {
            signals.push(Signal::new(
                s.name.clone(),
                resolve(&s.source, results)?,
                s.transfer,
            ));
        }
        let com = ComFrame::new(
            frame.name.clone(),
            frame.frame_type,
            frame.payload_bytes,
            signals,
        )
        .map_err(|e| e.to_string())?;
        let start = Instant::now();
        let packed = com.packed().map_err(|e| e.to_string())?;
        per_iteration.pack_us += us_since(start);

        let outer = packed.flatten();
        let start = Instant::now();
        sink += usize::from(analytic::lift(&outer).is_some());
        per_iteration.lift_us += us_since(start);

        let rt = results
            .frame(&frame.name)
            .ok_or("converged results lack a frame")?
            .response;
        let start = Instant::now();
        let processed = packed
            .process(rt.r_minus, rt.r_plus)
            .map_err(|e| e.to_string())?;
        per_iteration.inner_update_us += us_since(start);

        let start = Instant::now();
        sink += processed.flatten().max_simultaneous() as usize;
        if results.mode() == AnalysisMode::Hierarchical {
            for s in &frame.signals {
                sink += usize::from(processed.unpack_by_name(&s.name).is_some());
            }
        }
        per_iteration.unpack_us += us_since(start);
    }

    for task in &spec.tasks {
        let resolved = resolve(&task.activation, results)?;
        let start = Instant::now();
        sink += usize::from(analytic::lift(&resolved).is_some());
        per_iteration.lift_us += us_since(start);
    }

    let mut busy_us = 0.0;
    for bus in &spec.buses {
        if !in_cone(format!("bus:{}", bus.name)) {
            continue;
        }
        let mut frames = Vec::new();
        let mut entities = Vec::new();
        for f in spec.frames.iter().filter(|f| f.bus == bus.name) {
            let input = results
                .frame_activation(&f.name)
                .ok_or("converged results lack a frame activation")?
                .clone();
            let result = results
                .frame(&f.name)
                .ok_or("converged results lack a frame")?;
            entities.push((
                input.clone(),
                result.busy_activations,
                result.response.r_plus,
            ));
            frames.push(BusFrame::new(
                f.name.clone(),
                CanFrameConfig::new(f.format, f.payload_bytes).map_err(|e| e.to_string())?,
                f.priority,
                input,
            ));
        }
        let start = Instant::now();
        sink += hem_can::bus::analyze(&frames, &bus.config, &local)
            .map_err(|e| e.to_string())?
            .len();
        busy_us += us_since(start);
        let (q_us, queries) = replay_queries(&entities);
        per_iteration.curve_query_us += q_us;
        per_iteration.curve_queries += queries;
    }
    for cpu in &spec.cpus {
        if !in_cone(format!("cpu:{}", cpu.name)) {
            continue;
        }
        let mut tasks = Vec::new();
        let mut entities = Vec::new();
        for t in spec.tasks.iter().filter(|t| t.cpu == cpu.name) {
            let input = results
                .task_activation(&t.name)
                .ok_or("converged results lack a task activation")?
                .clone();
            let result = results
                .task(&t.name)
                .ok_or("converged results lack a task")?;
            entities.push((
                input.clone(),
                result.busy_activations,
                result.response.r_plus,
            ));
            tasks.push(AnalysisTask::new(
                t.name.clone(),
                t.bcet,
                t.wcet,
                t.priority,
                input,
            ));
        }
        let start = Instant::now();
        sink += spp::analyze(&tasks, &local)
            .map_err(|e| e.to_string())?
            .len();
        busy_us += us_since(start);
        let (q_us, queries) = replay_queries(&entities);
        per_iteration.curve_query_us += q_us;
        per_iteration.curve_queries += queries;
    }
    per_iteration.busy_window_us = busy_us;
    std::hint::black_box(sink);

    Ok(EngineLayers {
        lift_us: per_iteration.lift_us * iterations,
        pack_us: per_iteration.pack_us * iterations,
        inner_update_us: per_iteration.inner_update_us * iterations,
        unpack_us: per_iteration.unpack_us * iterations,
        busy_window_us: per_iteration.busy_window_us * iterations,
        curve_query_us: per_iteration.curve_query_us * iterations,
        curve_queries: per_iteration.curve_queries * iterations,
    })
}
