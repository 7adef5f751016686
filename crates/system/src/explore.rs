//! Design-space exploration: search over priority orders, signal
//! packings, and period mutations (`hem explore`).
//!
//! The paper frames hierarchical analysis as a *design* tool — "which
//! packing and priority order meets the deadlines?" — and this module
//! turns the single-shot analysis into that search. An
//! [`ExploreProblem`] describes a candidate space around a base
//! [`SystemSpec`]:
//!
//! * **packings** — restricted-growth-string partitions of one bus's
//!   signals into direct frames ([`PackingSpace::Partitions`]),
//! * **priority orders** — per-resource permutations seeded by the
//!   declared order, Audsley's OPA, deadline-monotonic, and
//!   seed-deterministic shuffles ([`PrioritySpace`]),
//! * **period mutations** — per-signal alternative source periods
//!   ([`PeriodChoice`]).
//!
//! [`explore`] enumerates candidates in a deterministic neighborhood
//! order — packings outermost (a packing change is structural and
//! invalidates warm starts), then period combinations, then priority
//! orders, where a resource's order varies more slowly than the orders
//! of the resources that read it. Most adjacent candidates then differ
//! only in the priorities of a downstream resource, so the damage cone
//! of [`analyze_incremental`](crate::analyze_incremental()) is that
//! resource and what reads it, and every task activation whose inputs
//! held is kept. How small the cone gets depends on the system: on the
//! tight 10x Fig. 2 family, where the CPU reads the bus, an analysed
//! candidate re-analyses 63 % of the resources on average.
//! Every candidate first faces the cheap **necessary tests** of
//! [`hem_analysis::necessary`] (utilization bound, η⁺ burst load, EDF
//! demand bound), which are blind to priorities and so run once per
//! packing × period combination; only admitted candidates pay for a
//! full fixed point, chained through per-packing [`WarmStart`]
//! snapshots.
//!
//! # Determinism
//!
//! For a fixed problem (including its `seed`), the outcome —
//! candidate visit order, per-candidate verdicts, prune counts, best
//! index, and the `CandidatesVisited` / `CandidatesPruned` /
//! `ExploreWarmHits` counters — is bit-for-bit identical at every
//! thread count. Packings are evaluated in parallel by
//! [`parallel_map`], but candidates
//! within a packing run sequentially on one worker, and all
//! aggregation happens in enumeration order.
//!
//! See `docs/EXPLORATION.md` for the full contract and CLI usage.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use hem_analysis::assignment::{audsley, deadline_monotonic, DeadlineTask, Scheduling};
use hem_analysis::necessary::{rejection, LoadTask, ResourceLoad};
use hem_analysis::Priority;
use hem_autosar_com::{FrameType, TransferProperty};
use hem_can::CanFrameConfig;
use hem_core::PendingInner;
use hem_event_models::ops::OrJoin;
use hem_event_models::{EventModelExt, ModelRef, StandardEventModel};
use hem_obs::Counter;
use hem_time::Time;

use crate::dsl::{Scenario, SourceDecl};
use crate::graph::Topology;
use crate::parallel::parallel_map;
use crate::path::{analyze_path, signal_paths};
use crate::spec::{ActivationSpec, FrameSpec, SystemSpec, TaskSpec};
use crate::warm::{analyze_incremental, WarmStart};
use crate::{SystemConfig, SystemError};

/// Horizon over which the utilization necessary test lower-bounds
/// long-run rates (ticks).
const NECESSARY_HORIZON: i64 = 1_000_000;

/// Deadline stand-in for tasks without one when seeding OPA (far
/// beyond any realistic response; effectively "unconstrained").
const FAR_DEADLINE: i64 = i64::MAX / 8;

/// Where a period mutation applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeriodSite {
    /// The external source of `signal` carried by `frame` (names per
    /// the **base** spec).
    Signal {
        /// Carrying frame in the base spec.
        frame: String,
        /// Signal name.
        signal: String,
    },
    /// The external activation of a task.
    Task(String),
}

impl PeriodSite {
    fn label(&self) -> String {
        match self {
            PeriodSite::Signal { frame, signal } => format!("{frame}/{signal}"),
            PeriodSite::Task(task) => format!("task:{task}"),
        }
    }
}

/// One period-mutation axis: the site's external source takes each of
/// `periods` in turn. The first entry is the baseline and keeps the
/// original event model (jitter included); later entries substitute a
/// plain periodic source with that period.
#[derive(Debug, Clone)]
pub struct PeriodChoice {
    /// Mutated source site.
    pub site: PeriodSite,
    /// Candidate periods; index 0 is the baseline.
    pub periods: Vec<Time>,
}

/// The packing axis of the candidate space.
#[derive(Debug, Clone)]
pub enum PackingSpace {
    /// Keep the base spec's frames untouched.
    Fixed,
    /// Enumerate all restricted-growth partitions of `bus`'s signals
    /// (taken in declaration order across its frames) into direct
    /// frames. The partition equal to the base grouping reuses the
    /// base frames verbatim, so the default configuration is always
    /// among the candidates.
    Partitions {
        /// The repacked bus.
        bus: String,
        /// Payload bytes contributed by each signal (flatten order).
        /// `None` derives `max(1, payload / signal_count)` from each
        /// signal's original frame.
        widths: Option<Vec<u8>>,
    },
}

/// The priority axis: how many orders to try per resource and which
/// seeds to include.
#[derive(Debug, Clone)]
pub struct PrioritySpace {
    /// Cap on priority orders per resource (≥ 1; the declared order is
    /// always first).
    pub max_orders_per_resource: usize,
    /// Seed with Audsley's optimal priority assignment where every
    /// task of the resource admits a deadline (missing deadlines are
    /// treated as unconstrained).
    pub opa_seed: bool,
    /// Seed with the deadline-monotonic order when the resource has
    /// deadline-annotated tasks.
    pub dm_seed: bool,
    /// Additional seed-deterministic random shuffles to append.
    pub random_orders: usize,
}

impl Default for PrioritySpace {
    fn default() -> Self {
        PrioritySpace {
            max_orders_per_resource: 4,
            opa_seed: true,
            dm_seed: true,
            random_orders: 2,
        }
    }
}

impl PrioritySpace {
    /// The space containing only the declared priority order.
    #[must_use]
    pub fn declared_only() -> Self {
        PrioritySpace {
            max_orders_per_resource: 1,
            opa_seed: false,
            dm_seed: false,
            random_orders: 0,
        }
    }
}

/// What "best" means among feasible candidates (minimized).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Largest task worst-case response time, restricted to
    /// deadline-annotated tasks when any exist.
    WorstTaskResponse,
    /// Largest end-to-end signal-path latency
    /// ([`analyze_path`](crate::path::analyze_path()) over every signal
    /// path); falls back to [`Objective::WorstTaskResponse`] when the
    /// spec has no signal paths.
    WorstPathLatency,
}

/// A candidate space around a base spec.
#[derive(Debug, Clone)]
pub struct ExploreProblem {
    /// The base system; the default configuration is this spec
    /// verbatim.
    pub base: SystemSpec,
    /// Relative deadlines per task name. Feasibility = the analysis
    /// converges **and** every annotated task has `r⁺ ≤ deadline`.
    /// Deadlines are fixed inputs: period mutations do not rescale
    /// them.
    pub deadlines: BTreeMap<String, Time>,
    /// Packing axis.
    pub packing: PackingSpace,
    /// Priority axis.
    pub priorities: PrioritySpace,
    /// Period-mutation axes (cartesian product).
    pub period_choices: Vec<PeriodChoice>,
    /// Ranking objective among feasible candidates.
    pub objective: Objective,
    /// Seed for the random priority shuffles.
    pub seed: u64,
    /// Hard cap on enumerated candidates; enumeration stops once
    /// reached (deterministically, in visit order).
    pub max_candidates: usize,
    /// Run the cheap necessary tests before each fixed point. Turning
    /// this off forces an exhaustive search (used by the soundness
    /// property tests).
    pub use_necessary_tests: bool,
}

impl ExploreProblem {
    /// A problem with an empty candidate space around `base`: fixed
    /// packing, declared priorities only, no period mutations.
    #[must_use]
    pub fn new(base: SystemSpec) -> Self {
        ExploreProblem {
            base,
            deadlines: BTreeMap::new(),
            packing: PackingSpace::Fixed,
            priorities: PrioritySpace::declared_only(),
            period_choices: Vec::new(),
            objective: Objective::WorstTaskResponse,
            seed: 0,
            max_candidates: 4096,
            use_necessary_tests: true,
        }
    }

    /// Derives a problem from a parsed scenario file, the way the
    /// `run_scenario explore` verb does:
    ///
    /// * deadlines come from explicit `deadline=` annotations, else
    ///   implicitly from the period of the task's (transitively
    ///   resolved) periodic activation source;
    /// * the first bus whose frames are all direct — and that no task
    ///   observes via `frame:` arrivals — becomes the packing axis;
    /// * priorities use [`PrioritySpace::default`].
    #[must_use]
    pub fn from_scenario(scenario: &Scenario, seed: u64) -> Self {
        let base = scenario.to_spec();
        let mut deadlines = BTreeMap::new();
        for task in &scenario.tasks {
            let deadline = task
                .deadline
                .or_else(|| implicit_deadline(scenario, &task.activation, 0));
            if let Some(d) = deadline {
                deadlines.insert(task.name.clone(), Time::new(d));
            }
        }
        let packing = scenario
            .buses
            .iter()
            .find(|bus| {
                let frames: Vec<_> = scenario
                    .frames
                    .iter()
                    .filter(|f| f.bus == bus.name)
                    .collect();
                let signals: usize = frames.iter().map(|f| f.signals.len()).sum();
                !frames.is_empty()
                    && (2..=8).contains(&signals)
                    && frames.iter().all(|f| f.frame_type == FrameType::Direct)
                    && !scenario.tasks.iter().any(|t| {
                        matches!(&t.activation, SourceDecl::FrameArrivals(f)
                            if frames.iter().any(|fr| &fr.name == f))
                    })
            })
            .map_or(PackingSpace::Fixed, |bus| PackingSpace::Partitions {
                bus: bus.name.clone(),
                widths: None,
            });
        ExploreProblem {
            deadlines,
            packing,
            priorities: PrioritySpace::default(),
            max_candidates: 1024,
            seed,
            ..ExploreProblem::new(base)
        }
    }
}

/// Follows a scenario activation to a periodic source and returns its
/// period, if one is reachable within a few hops.
fn implicit_deadline(scenario: &Scenario, source: &SourceDecl, depth: usize) -> Option<i64> {
    if depth > 8 {
        return None;
    }
    match source {
        SourceDecl::Periodic { period, .. } => Some(*period),
        SourceDecl::TaskOutput(task) => {
            let task = scenario.tasks.iter().find(|t| &t.name == task)?;
            implicit_deadline(scenario, &task.activation, depth + 1)
        }
        SourceDecl::Signal { frame, signal } => {
            let frame = scenario.frames.iter().find(|f| &f.name == frame)?;
            let signal = frame.signals.iter().find(|s| &s.name == signal)?;
            implicit_deadline(scenario, &signal.source, depth + 1)
        }
        SourceDecl::FrameArrivals(_) => None,
    }
}

/// A concrete signal-to-frame partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packing {
    /// The repacked bus.
    pub bus: String,
    /// Restricted-growth assignment: `assignment[i]` is the frame
    /// group of the i-th signal in flatten order.
    pub assignment: Vec<usize>,
    /// Signal names per group, in group order.
    pub groups: Vec<Vec<String>>,
}

impl Packing {
    /// Human-readable label, e.g. `{s1,s2} {s3}`.
    #[must_use]
    pub fn label(&self) -> String {
        self.groups
            .iter()
            .map(|g| format!("{{{}}}", g.join(",")))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// One fully specified candidate configuration.
#[derive(Debug, Clone)]
pub struct CandidateConfig {
    /// Chosen packing (`None` under [`PackingSpace::Fixed`]).
    pub packing: Option<Packing>,
    /// Chosen period per mutation site (site label → period).
    pub periods: Vec<(String, Time)>,
    /// Priority orders per resource (`cpu:<name>` / `bus:<name>` →
    /// entity names, highest priority first).
    pub orders: BTreeMap<String, Vec<String>>,
    /// Whether this candidate reproduces the base spec exactly (base
    /// grouping, baseline periods, declared orders).
    pub is_default: bool,
}

/// The verdict on one candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The packing cannot work at all (e.g. a direct frame whose
    /// signals are all pending never sends); no spec was analyzed.
    InvalidPacking(String),
    /// Rejected by the named necessary test; the full analysis never
    /// ran.
    Pruned(&'static str),
    /// Fully analyzed and not feasible.
    Infeasible {
        /// Whether the fixed point converged (a diverging candidate is
        /// infeasible by definition).
        converged: bool,
        /// First deadline miss (`task`, `r⁺`, `deadline`) when the
        /// analysis converged.
        miss: Option<(String, Time, Time)>,
    },
    /// Converged with every deadline met.
    Feasible {
        /// Objective value (smaller is better).
        score: Time,
    },
}

/// Everything recorded about one visited candidate.
#[derive(Debug, Clone)]
pub struct CandidateReport {
    /// The candidate configuration.
    pub config: CandidateConfig,
    /// Its verdict.
    pub verdict: Verdict,
    /// Largest task `r⁺` (analyzed candidates only).
    pub worst_task_response: Option<Time>,
    /// Flattened response times (analyzed candidates only), as in
    /// [`SystemResults::response_times`](crate::SystemResults::response_times).
    pub response_times: Option<BTreeMap<String, hem_analysis::ResponseTime>>,
    /// Whether the fixed point reused the previous candidate's warm
    /// snapshot.
    pub warm: bool,
    /// Fraction of resources re-analyzed (analyzed candidates only).
    pub cone_fraction: Option<f64>,
}

/// The outcome of an exploration run.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// One report per visited candidate, in deterministic visit order.
    pub reports: Vec<CandidateReport>,
    /// Index of the best feasible candidate (lowest objective score,
    /// earliest visit on ties).
    pub best: Option<usize>,
    /// Index of the candidate reproducing the base configuration, when
    /// it was visited.
    pub default_index: Option<usize>,
    /// Candidates enumerated (= `reports.len()`, mirrored in the
    /// `CandidatesVisited` counter).
    pub visited: u64,
    /// Candidates rejected by necessary tests (`CandidatesPruned`).
    pub pruned: u64,
    /// Candidates with a [`Verdict::Feasible`] verdict.
    pub feasible: u64,
    /// Analyzed candidates that reused a warm snapshot
    /// (`ExploreWarmHits`).
    pub warm_hits: u64,
    /// Mean damage-cone fraction over analyzed candidates (0 when none
    /// ran).
    pub mean_cone_fraction: f64,
}

impl ExploreOutcome {
    /// Percentage of visited candidates eliminated before any fixed
    /// point ran (pruned or invalid).
    #[must_use]
    pub fn pruned_pct(&self) -> f64 {
        if self.visited == 0 {
            return 0.0;
        }
        self.pruned as f64 * 100.0 / self.visited as f64
    }

    /// The best feasible candidate's report, if any.
    #[must_use]
    pub fn best_report(&self) -> Option<&CandidateReport> {
        self.best.map(|i| &self.reports[i])
    }
}

// ---------------------------------------------------------------------------
// Deterministic RNG (splitmix64) for priority shuffles.

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

fn salt(name: &str) -> u64 {
    // FNV-1a, so per-resource streams decorrelate deterministically.
    name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01B3)
    })
}

// ---------------------------------------------------------------------------
// Restricted-growth-string partition enumeration.

/// All partitions of `n` items as restricted-growth strings, in
/// lexicographic order (`[0,0,..,0]` first).
#[must_use]
pub fn partitions(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = vec![0usize; n];
    grow(&mut out, &mut current, 1, n);
    out
}

fn grow(out: &mut Vec<Vec<usize>>, current: &mut Vec<usize>, index: usize, n: usize) {
    if index == n {
        out.push(current.clone());
        return;
    }
    let max = current[..index].iter().copied().max().unwrap_or(0);
    for group in 0..=max + 1 {
        current[index] = group;
        grow(out, current, index + 1, n);
    }
}

// ---------------------------------------------------------------------------
// Source-level lowering for the necessary tests.

/// Optimistic source components of an activation: streams whose `η`
/// curves are pointwise ≤ the activation the analysis derives. An
/// OR-join yields several components (rates add); an AND-join yields
/// none (sound under-approximation).
fn source_components(
    spec: &SystemSpec,
    activation: &ActivationSpec,
    in_progress: &mut BTreeSet<String>,
) -> Vec<ModelRef> {
    match activation {
        ActivationSpec::External(model) => vec![model.clone()],
        ActivationSpec::TaskOutput(task) => {
            if !in_progress.insert(task.clone()) {
                return Vec::new();
            }
            let out = spec
                .tasks
                .iter()
                .find(|t| &t.name == task)
                .map(|t| source_components(spec, &t.activation, in_progress))
                .unwrap_or_default();
            in_progress.remove(task);
            out
        }
        ActivationSpec::Signal { frame, signal } => {
            let Some(frame) = spec.frames.iter().find(|f| &f.name == frame) else {
                return Vec::new();
            };
            let Some(signal) = frame.signals.iter().find(|s| &s.name == signal) else {
                return Vec::new();
            };
            match signal.transfer {
                // A triggering signal's deliveries mirror its own
                // source events one-to-one.
                TransferProperty::Triggering => {
                    source_components(spec, &signal.source, in_progress)
                }
                // A pending signal is resampled by the frame's sends
                // (paper eqs. (7),(8)): its η⁻ is zero (values can be
                // overwritten before transmission), so the only sound
                // optimistic model is `PendingInner` over the two
                // source-level unions — NOT the raw frame rate, which
                // would over-estimate demand and prune feasible
                // packings.
                TransferProperty::Pending => {
                    let sig = source_components(spec, &signal.source, in_progress);
                    let frames = frame_components(spec, frame, in_progress);
                    pending_component(sig, frames).into_iter().collect()
                }
            }
        }
        ActivationSpec::FrameArrivals(frame) => spec
            .frames
            .iter()
            .find(|f| &f.name == frame)
            .map(|f| frame_components(spec, f, in_progress))
            .unwrap_or_default(),
        ActivationSpec::AnyOf(parts) => parts
            .iter()
            .flat_map(|p| source_components(spec, p, in_progress))
            .collect(),
        ActivationSpec::AllOf(_) => Vec::new(),
    }
}

/// A sound optimistic model of a pending signal's deliveries: the
/// signal resampled by the frame's send stream. `PendingInner`'s δ⁻ is
/// monotone in both arguments — sparser source events and a
/// jitter-free frame stream both push δ⁻ up — so with optimistic
/// unions on both sides its η⁺ is pointwise ≤ the delivery stream the
/// full analysis derives.
fn pending_component(sig: Vec<ModelRef>, frames: Vec<ModelRef>) -> Option<ModelRef> {
    let sig = OrJoin::new(sig).ok()?.shared();
    let frames = OrJoin::new(frames).ok()?.shared();
    Some(PendingInner::new(sig, frames).shared())
}

/// Optimistic components of a frame's send stream.
fn frame_components(
    spec: &SystemSpec,
    frame: &FrameSpec,
    in_progress: &mut BTreeSet<String>,
) -> Vec<ModelRef> {
    let mut parts = Vec::new();
    match frame.frame_type {
        FrameType::Periodic(period) | FrameType::Mixed(period) => {
            if let Ok(model) = StandardEventModel::periodic(period) {
                parts.push(model.shared());
            }
        }
        FrameType::Direct => {}
    }
    if !matches!(frame.frame_type, FrameType::Periodic(_)) {
        for signal in &frame.signals {
            if signal.transfer == TransferProperty::Triggering {
                parts.extend(source_components(spec, &signal.source, in_progress));
            }
        }
    }
    parts
}

/// The per-resource candidate loads of a spec, for the necessary
/// tests.
fn lower_loads(
    spec: &SystemSpec,
    deadlines: &BTreeMap<String, Time>,
) -> Vec<(String, Scheduling, Vec<LoadTask>)> {
    let mut loads = Vec::new();
    for cpu in &spec.cpus {
        let mut tasks = Vec::new();
        for task in spec.tasks.iter().filter(|t| t.cpu == cpu.name) {
            let mut guard = BTreeSet::new();
            for input in source_components(spec, &task.activation, &mut guard) {
                tasks.push(LoadTask {
                    name: task.name.clone(),
                    wcet: task.wcet,
                    deadline: deadlines.get(&task.name).copied(),
                    input,
                });
            }
        }
        loads.push((format!("cpu:{}", cpu.name), Scheduling::Preemptive, tasks));
    }
    for bus in &spec.buses {
        let mut frames = Vec::new();
        for frame in spec.frames.iter().filter(|f| f.bus == bus.name) {
            let Ok(config) = CanFrameConfig::new(frame.format, frame.payload_bytes) else {
                continue;
            };
            let wcet = bus.config.transmission_time(&config).r_plus;
            let mut guard = BTreeSet::new();
            for input in frame_components(spec, frame, &mut guard) {
                frames.push(LoadTask {
                    name: frame.name.clone(),
                    wcet,
                    deadline: None,
                    input,
                });
            }
        }
        loads.push((
            format!("bus:{}", bus.name),
            Scheduling::NonPreemptive,
            frames,
        ));
    }
    loads
}

/// Runs the necessary-test battery over every resource of `spec`;
/// returns the first rejecting test's name.
fn prune_reason(
    spec: &SystemSpec,
    deadlines: &BTreeMap<String, Time>,
    analysis: &hem_analysis::AnalysisConfig,
) -> Option<&'static str> {
    for (resource, scheduling, tasks) in lower_loads(spec, deadlines) {
        let load = ResourceLoad {
            resource: &resource,
            scheduling,
            tasks: &tasks,
            config: analysis,
            horizon: Time::new(NECESSARY_HORIZON),
        };
        if let Some(test) = rejection(&load) {
            return Some(test);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Candidate enumeration.

/// One signal site of the repacked bus.
#[derive(Debug, Clone)]
struct PackSite {
    /// Original carrying frame (base spec).
    frame: String,
    signal: crate::spec::SignalSpec,
    width: u8,
    format: hem_can::FrameFormat,
}

struct Chunk {
    packing: Option<Packing>,
    invalid: Option<String>,
    /// Spec with the packing applied, priorities and periods still at
    /// their base values.
    spec: SystemSpec,
    /// Base-spec `(frame, signal)` → repacked frame name.
    site_map: SiteMap,
    /// The source model of every period of every mutation axis, built
    /// once per search so that candidates with the same period share
    /// one allocation (the warm-start diff compares sources by `Arc`
    /// address); `None` for a period equal to the axis's baseline,
    /// which keeps the original model.
    period_models: Vec<Vec<Option<ModelRef>>>,
    candidates: Vec<CandidateConfig>,
}

fn flatten_sites(spec: &SystemSpec, bus: &str, widths: Option<&[u8]>) -> Vec<PackSite> {
    let mut sites = Vec::new();
    for frame in spec.frames.iter().filter(|f| f.bus == bus) {
        let derived = (frame.payload_bytes / frame.signals.len().max(1) as u8).max(1);
        for signal in &frame.signals {
            sites.push(PackSite {
                frame: frame.name.clone(),
                signal: signal.clone(),
                width: derived,
                format: frame.format,
            });
        }
    }
    if let Some(widths) = widths {
        for (site, w) in sites.iter_mut().zip(widths) {
            site.width = *w;
        }
    }
    sites
}

/// The base spec's grouping as a restricted-growth string over the
/// flatten order, used to detect the default packing.
fn base_assignment(spec: &SystemSpec, bus: &str) -> Vec<usize> {
    let mut assignment = Vec::new();
    for (index, frame) in spec.frames.iter().filter(|f| f.bus == bus).enumerate() {
        assignment.extend(std::iter::repeat_n(index, frame.signals.len()));
    }
    assignment
}

/// Where each repacked signal landed: `(original frame, signal)` →
/// new carrier frame.
type SiteMap = BTreeMap<(String, String), String>;

/// Applies a partition to the base spec: the repacked bus's frames are
/// replaced by one direct frame per group (priority = group order) and
/// signal-activated receivers are re-pointed at their new carrier.
fn apply_packing(
    base: &SystemSpec,
    bus: &str,
    sites: &[PackSite],
    packing: &Packing,
) -> Result<(SystemSpec, SiteMap), String> {
    let groups = packing
        .assignment
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m + 1);
    let mut spec = base.clone();
    let mut site_map = BTreeMap::new();
    let mut new_frames: Vec<FrameSpec> = Vec::new();
    for g in 0..groups {
        let members: Vec<&PackSite> = sites
            .iter()
            .zip(&packing.assignment)
            .filter(|&(_, a)| *a == g)
            .map(|(s, _)| s)
            .collect();
        if members
            .iter()
            .all(|m| m.signal.transfer == TransferProperty::Pending)
        {
            return Err(format!(
                "group {} carries only pending signals and never sends",
                packing.groups[g].join(",")
            ));
        }
        let payload: u16 = members.iter().map(|m| u16::from(m.width)).sum();
        if payload > 8 {
            return Err(format!(
                "group {} needs {payload} payload bytes (max 8)",
                packing.groups[g].join(",")
            ));
        }
        let name = format!("{bus}_g{g}");
        for m in &members {
            site_map.insert((m.frame.clone(), m.signal.name.clone()), name.clone());
        }
        new_frames.push(FrameSpec {
            name,
            bus: bus.to_string(),
            frame_type: FrameType::Direct,
            payload_bytes: payload as u8,
            format: members[0].format,
            priority: Priority::new(g as u32 + 1),
            signals: members.iter().map(|m| m.signal.clone()).collect(),
        });
    }
    spec.frames.retain(|f| f.bus != bus);
    spec.frames.extend(new_frames);
    for task in &mut spec.tasks {
        retarget(&mut task.activation, &site_map);
    }
    Ok((spec, site_map))
}

fn retarget(activation: &mut ActivationSpec, site_map: &SiteMap) {
    match activation {
        ActivationSpec::Signal { frame, signal } => {
            if let Some(new_frame) = site_map.get(&(frame.clone(), signal.clone())) {
                *frame = new_frame.clone();
            }
        }
        ActivationSpec::AnyOf(parts) | ActivationSpec::AllOf(parts) => {
            for part in parts {
                retarget(part, site_map);
            }
        }
        _ => {}
    }
}

/// Priority-order variants for one resource: declared, then OPA, then
/// deadline-monotonic, then seeded shuffles — deduplicated and capped.
fn order_variants(
    declared: Vec<String>,
    deadline_tasks: &[DeadlineTask],
    scheduling: Scheduling,
    any_deadline: bool,
    problem: &ExploreProblem,
    resource: &str,
    analysis: &hem_analysis::AnalysisConfig,
) -> Vec<Vec<String>> {
    let space = &problem.priorities;
    let mut variants = vec![declared.clone()];
    if declared.len() > 1 {
        if space.opa_seed && any_deadline {
            if let Ok(Some(order)) = audsley(deadline_tasks, scheduling, analysis) {
                variants.push(order);
            }
        }
        if space.dm_seed && any_deadline {
            variants.push(deadline_monotonic(deadline_tasks));
        }
        let mut rng = Rng(problem.seed ^ salt(resource));
        for _ in 0..space.random_orders {
            let mut shuffled = declared.clone();
            rng.shuffle(&mut shuffled);
            variants.push(shuffled);
        }
    }
    let mut seen = Vec::new();
    variants.retain(|v| {
        if seen.contains(v) {
            false
        } else {
            seen.push(v.clone());
            true
        }
    });
    variants.truncate(space.max_orders_per_resource.max(1));
    variants
}

/// Entity names of a resource in declared priority order (highest
/// first, declaration order breaking ties).
fn declared_order<'a>(items: impl Iterator<Item = (&'a str, Priority)>) -> Vec<String> {
    let mut named: Vec<(String, Priority, usize)> = items
        .enumerate()
        .map(|(i, (name, prio))| (name.to_string(), prio, i))
        .collect();
    named.sort_by_key(|&(_, prio, index)| (prio, index));
    named.into_iter().map(|(name, _, _)| name).collect()
}

// ---------------------------------------------------------------------------
// The search itself.

/// Explores the candidate space and returns every verdict plus the
/// best feasible configuration. See the module docs for the
/// determinism contract.
///
/// # Errors
///
/// Returns the first [`SystemError`] (in visit order) raised by a
/// candidate's spec validation, or the model error of a mutation
/// period no periodic source accepts; analysis divergence is a
/// verdict, not an error.
pub fn explore(
    problem: &ExploreProblem,
    config: &SystemConfig,
) -> Result<ExploreOutcome, SystemError> {
    let recorder = config.local.recorder.clone();
    let chunks = enumerate(problem, config)?;
    // Candidates inside a chunk share warm snapshots sequentially;
    // chunks are independent, so they fan out.
    let chunk_results = parallel_map(chunks, config.resolved_threads(), |chunk| {
        evaluate(problem, config, chunk)
    });

    let mut reports = Vec::new();
    for result in chunk_results {
        reports.extend(result?);
    }

    let mut outcome = ExploreOutcome {
        best: None,
        default_index: None,
        visited: reports.len() as u64,
        pruned: 0,
        feasible: 0,
        warm_hits: 0,
        mean_cone_fraction: 0.0,
        reports,
    };
    let mut cone_sum = 0.0;
    let mut analyzed = 0u64;
    let mut best: Option<(Time, usize)> = None;
    for (index, report) in outcome.reports.iter().enumerate() {
        if report.config.is_default {
            outcome.default_index = Some(index);
        }
        if report.warm {
            outcome.warm_hits += 1;
        }
        if let Some(cone) = report.cone_fraction {
            cone_sum += cone;
            analyzed += 1;
        }
        match report.verdict {
            Verdict::Pruned(_) => outcome.pruned += 1,
            Verdict::Feasible { score } => {
                outcome.feasible += 1;
                if best.is_none_or(|(b, _)| score < b) {
                    best = Some((score, index));
                }
            }
            _ => {}
        }
    }
    outcome.best = best.map(|(_, index)| index);
    if analyzed > 0 {
        outcome.mean_cone_fraction = cone_sum / analyzed as f64;
    }
    recorder.add(Counter::CandidatesVisited, outcome.visited);
    recorder.add(Counter::CandidatesPruned, outcome.pruned);
    recorder.add(Counter::ExploreWarmHits, outcome.warm_hits);
    Ok(outcome)
}

fn enumerate(problem: &ExploreProblem, config: &SystemConfig) -> Result<Vec<Chunk>, SystemError> {
    let base = &problem.base;
    let mut period_models = Vec::new();
    for choice in &problem.period_choices {
        let baseline = choice.periods.first();
        let models = choice
            .periods
            .iter()
            .map(|period| {
                if Some(period) == baseline {
                    return Ok(None);
                }
                Ok(Some(StandardEventModel::periodic(*period)?.shared()))
            })
            .collect::<Result<_, SystemError>>()?;
        period_models.push(models);
    }
    // Packing chunks.
    let mut chunks: Vec<Chunk> = Vec::new();
    match &problem.packing {
        PackingSpace::Fixed => chunks.push(Chunk {
            packing: None,
            invalid: None,
            spec: base.clone(),
            site_map: BTreeMap::new(),
            period_models: period_models.clone(),
            candidates: Vec::new(),
        }),
        PackingSpace::Partitions { bus, widths } => {
            let sites = flatten_sites(base, bus, widths.as_deref());
            if sites.is_empty() {
                return Err(SystemError::UnknownReference {
                    kind: "bus",
                    name: bus.clone(),
                });
            }
            let default = base_assignment(base, bus);
            for assignment in partitions(sites.len()) {
                let groups_n = assignment.iter().copied().max().unwrap_or(0) + 1;
                let mut groups = vec![Vec::new(); groups_n];
                for (site, &g) in sites.iter().zip(&assignment) {
                    groups[g].push(site.signal.name.clone());
                }
                let packing = Packing {
                    bus: bus.clone(),
                    assignment: assignment.clone(),
                    groups,
                };
                let (spec, site_map, invalid) = if assignment == default {
                    // The base grouping keeps the base frames verbatim
                    // (names, payloads, priorities), so the default
                    // configuration is searched exactly as declared.
                    (base.clone(), BTreeMap::new(), None)
                } else {
                    match apply_packing(base, bus, &sites, &packing) {
                        Ok((spec, map)) => (spec, map, None),
                        Err(reason) => (base.clone(), BTreeMap::new(), Some(reason)),
                    }
                };
                chunks.push(Chunk {
                    packing: Some(packing),
                    invalid,
                    spec,
                    site_map,
                    period_models: period_models.clone(),
                    candidates: Vec::new(),
                });
            }
        }
    }

    // Period combinations (cartesian, baseline-first).
    let mut period_combos: Vec<Vec<usize>> = vec![Vec::new()];
    for choice in &problem.period_choices {
        let mut next = Vec::new();
        for combo in &period_combos {
            for index in 0..choice.periods.len().max(1) {
                let mut c = combo.clone();
                c.push(index);
                next.push(c);
            }
        }
        period_combos = next;
    }

    let mut total = 0usize;
    'chunks: for chunk in &mut chunks {
        if chunk.invalid.is_some() {
            // One report stands in for the whole packing.
            chunk.candidates.push(CandidateConfig {
                packing: chunk.packing.clone(),
                periods: Vec::new(),
                orders: BTreeMap::new(),
                is_default: false,
            });
            total += 1;
            if total >= problem.max_candidates {
                break 'chunks;
            }
            continue;
        }
        let default_packing = chunk
            .packing
            .as_ref()
            .is_none_or(|p| p.assignment == base_assignment(base, &p.bus));

        // Priority variants per resource, on the chunk's spec (the
        // repacked bus has different frames per chunk).
        // (key, resource number, variants)
        let topology = Topology::of(&chunk.spec);
        let mut resources: Vec<(String, usize, Vec<Vec<String>>)> = Vec::new();
        for (c, cpu) in chunk.spec.cpus.iter().enumerate() {
            let tasks: Vec<&TaskSpec> = chunk
                .spec
                .tasks
                .iter()
                .filter(|t| t.cpu == cpu.name)
                .collect();
            if tasks.is_empty() {
                continue;
            }
            let declared = declared_order(tasks.iter().map(|t| (t.name.as_str(), t.priority)));
            let deadline_tasks: Vec<DeadlineTask> = tasks
                .iter()
                .map(|t| {
                    let mut guard = BTreeSet::new();
                    let input = source_components(&chunk.spec, &t.activation, &mut guard)
                        .into_iter()
                        .next()
                        .unwrap_or_else(far_periodic);
                    DeadlineTask::new(
                        &t.name,
                        t.bcet,
                        t.wcet,
                        problem
                            .deadlines
                            .get(&t.name)
                            .copied()
                            .unwrap_or(Time::new(FAR_DEADLINE)),
                        input,
                    )
                })
                .collect();
            let any_deadline = tasks
                .iter()
                .any(|t| problem.deadlines.contains_key(&t.name));
            let variants = order_variants(
                declared,
                &deadline_tasks,
                Scheduling::Preemptive,
                any_deadline,
                problem,
                &format!("cpu:{}", cpu.name),
                &config.local,
            );
            let number = topology.cpu_resource(c);
            resources.push((format!("cpu:{}", cpu.name), number, variants));
        }
        for (b, bus) in chunk.spec.buses.iter().enumerate() {
            let frames: Vec<&FrameSpec> = chunk
                .spec
                .frames
                .iter()
                .filter(|f| f.bus == bus.name)
                .collect();
            if frames.is_empty() {
                continue;
            }
            let declared = declared_order(frames.iter().map(|f| (f.name.as_str(), f.priority)));
            let variants = order_variants(
                declared,
                &[],
                Scheduling::NonPreemptive,
                false,
                problem,
                &format!("bus:{}", bus.name),
                &config.local,
            );
            resources.push((format!("bus:{}", bus.name), b, variants));
        }

        // Cartesian product of order variants, declared-first. A
        // resource varies more slowly than the resources that read it:
        // digits are sorted by the size of their dependents closure,
        // largest outermost (declaration order breaks ties), so a step
        // retimes as small a damage cone as it can.
        let mut digits: Vec<usize> = (0..resources.len()).collect();
        digits.sort_by_key(|&d| {
            let cone = topology.dependents_closure([resources[d].1]);
            Reverse(cone.iter().filter(|&&dirty| dirty).count())
        });
        let mut order_combos: Vec<Vec<usize>> = vec![vec![0; resources.len()]];
        for &d in &digits {
            let mut next = Vec::new();
            for combo in &order_combos {
                for index in 0..resources[d].2.len() {
                    let mut c = combo.clone();
                    c[d] = index;
                    next.push(c);
                }
            }
            order_combos = next;
        }

        for period_combo in &period_combos {
            for order_combo in &order_combos {
                let periods: Vec<(String, Time)> = problem
                    .period_choices
                    .iter()
                    .zip(period_combo)
                    .map(|(choice, &i)| (choice.site.label(), choice.periods[i]))
                    .collect();
                let orders: BTreeMap<String, Vec<String>> = resources
                    .iter()
                    .zip(order_combo)
                    .map(|((name, _, variants), &i)| (name.clone(), variants[i].clone()))
                    .collect();
                let is_default = default_packing
                    && period_combo.iter().all(|&i| i == 0)
                    && order_combo.iter().all(|&i| i == 0);
                chunk.candidates.push(CandidateConfig {
                    packing: chunk.packing.clone(),
                    periods,
                    orders,
                    is_default,
                });
                total += 1;
                if total >= problem.max_candidates {
                    break 'chunks;
                }
            }
        }
    }
    chunks.retain(|c| !c.candidates.is_empty());
    Ok(chunks)
}

fn far_periodic() -> ModelRef {
    StandardEventModel::periodic(Time::new(FAR_DEADLINE))
        .expect("constant far period is valid")
        .shared()
}

/// Builds the concrete spec of one candidate from its chunk's spec.
fn candidate_spec(
    problem: &ExploreProblem,
    chunk: &Chunk,
    candidate: &CandidateConfig,
) -> SystemSpec {
    let mut spec = chunk.spec.clone();
    // Period mutations: baseline keeps the original model, and every
    // other period its search-wide model (each keeps its Arc identity,
    // so the warm-start diff sees no change between equal periods).
    let choices = problem.period_choices.iter().zip(&chunk.period_models);
    for ((choice, models), (_, period)) in choices.zip(&candidate.periods) {
        let index = choice.periods.iter().position(|p| p == period);
        let Some(model) = index.and_then(|k| models[k].as_ref()) else {
            continue;
        };
        match &choice.site {
            PeriodSite::Task(task) => {
                if let Some(task) = spec.tasks.iter_mut().find(|t| &t.name == task) {
                    if matches!(task.activation, ActivationSpec::External(_)) {
                        task.activation = ActivationSpec::External(model.clone());
                    }
                }
            }
            PeriodSite::Signal { frame, signal } => {
                let target = chunk
                    .site_map
                    .get(&(frame.clone(), signal.clone()))
                    .cloned()
                    .unwrap_or_else(|| frame.clone());
                if let Some(signal) = spec
                    .frames
                    .iter_mut()
                    .filter(|f| f.name == target)
                    .flat_map(|f| f.signals.iter_mut())
                    .find(|s| &s.name == signal)
                {
                    if matches!(signal.source, ActivationSpec::External(_)) {
                        signal.source = ActivationSpec::External(model.clone());
                    }
                }
            }
        }
    }
    // Priority orders: position in the order list becomes the
    // priority value.
    for (resource, order) in &candidate.orders {
        if let Some(cpu) = resource.strip_prefix("cpu:") {
            for task in spec.tasks.iter_mut().filter(|t| t.cpu == cpu) {
                if let Some(pos) = order.iter().position(|n| n == &task.name) {
                    task.priority = Priority::new(pos as u32 + 1);
                }
            }
        } else if let Some(bus) = resource.strip_prefix("bus:") {
            for frame in spec.frames.iter_mut().filter(|f| f.bus == bus) {
                if let Some(pos) = order.iter().position(|n| n == &frame.name) {
                    frame.priority = Priority::new(pos as u32 + 1);
                }
            }
        }
    }
    spec
}

/// Evaluates one chunk sequentially, chaining warm snapshots.
///
/// The necessary tests run once per period combination: a
/// [`LoadTask`] carries no priority and every test holds under every
/// priority order (`hem_analysis::necessary`), so the candidates of one
/// combination, which differ only in priorities, share its verdict, and
/// a pruned one gets no spec built.
fn evaluate(
    problem: &ExploreProblem,
    config: &SystemConfig,
    mut chunk: Chunk,
) -> Result<Vec<CandidateReport>, SystemError> {
    let candidates = std::mem::take(&mut chunk.candidates);
    let mut reports = Vec::with_capacity(candidates.len());
    let unanalyzed = |config, verdict| CandidateReport {
        config,
        verdict,
        worst_task_response: None,
        response_times: None,
        warm: false,
        cone_fraction: None,
    };
    if let Some(reason) = &chunk.invalid {
        for candidate in candidates {
            reports.push(unanalyzed(
                candidate,
                Verdict::InvalidPacking(reason.clone()),
            ));
        }
        return Ok(reports);
    }
    let mut chain: Option<WarmStart> = None;
    // The last tested period combination and its shared verdict.
    let mut tested: Option<Vec<(String, Time)>> = None;
    let mut pruned_by = None;
    for candidate in candidates {
        let mut spec = None;
        if problem.use_necessary_tests {
            if tested.as_ref() != Some(&candidate.periods) {
                let built = candidate_spec(problem, &chunk, &candidate);
                pruned_by = prune_reason(&built, &problem.deadlines, &config.local);
                tested = Some(candidate.periods.clone());
                spec = Some(built);
            }
            if let Some(test) = pruned_by {
                reports.push(unanalyzed(candidate, Verdict::Pruned(test)));
                continue;
            }
        }
        let spec = spec.unwrap_or_else(|| candidate_spec(problem, &chunk, &candidate));
        let outcome = analyze_incremental(&spec, config, chain.as_ref())?;
        let warm = outcome.reuse.warm;
        let cone = outcome.reuse.cone_fraction();
        if let Some(snapshot) = outcome.snapshot {
            chain = Some(snapshot);
        }
        let results = outcome.analysis.results;
        let (verdict, worst) = judge(problem, &spec, &results);
        reports.push(CandidateReport {
            config: candidate,
            verdict,
            worst_task_response: Some(worst),
            response_times: Some(results.response_times()),
            warm,
            cone_fraction: Some(cone),
        });
    }
    Ok(reports)
}

/// The verdict on an analysed candidate, and its largest task `r⁺`.
fn judge(
    problem: &ExploreProblem,
    spec: &SystemSpec,
    results: &crate::SystemResults,
) -> (Verdict, Time) {
    let worst = results
        .tasks()
        .map(|(_, r)| r.response.r_plus)
        .max()
        .unwrap_or(Time::ZERO);
    let miss = problem
        .deadlines
        .iter()
        .filter_map(|(task, &deadline)| {
            let r = results.task(task)?.response.r_plus;
            (r > deadline).then(|| (task.clone(), r, deadline))
        })
        .next();
    let verdict = if !results.is_complete() {
        Verdict::Infeasible {
            converged: false,
            miss: None,
        }
    } else if let Some(miss) = miss {
        Verdict::Infeasible {
            converged: true,
            miss: Some(miss),
        }
    } else {
        Verdict::Feasible {
            score: score(problem, spec, results, worst),
        }
    };
    (verdict, worst)
}

fn score(
    problem: &ExploreProblem,
    spec: &SystemSpec,
    results: &crate::SystemResults,
    worst_task: Time,
) -> Time {
    match problem.objective {
        Objective::WorstTaskResponse => {
            if problem.deadlines.is_empty() {
                worst_task
            } else {
                problem
                    .deadlines
                    .keys()
                    .filter_map(|task| Some(results.task(task)?.response.r_plus))
                    .max()
                    .unwrap_or(worst_task)
            }
        }
        Objective::WorstPathLatency => signal_paths(spec)
            .iter()
            .filter_map(|path| analyze_path(spec, results, path).ok())
            .map(|latency| latency.total())
            .max()
            .unwrap_or(worst_task),
    }
}

#[cfg(test)]
mod tests {
    use crate::AnalysisMode;

    use super::*;

    #[test]
    fn partition_enumeration_is_lexicographic_and_complete() {
        let p = partitions(4);
        assert_eq!(p.len(), 15, "Bell(4) = 15");
        assert_eq!(p[0], vec![0, 0, 0, 0]);
        assert_eq!(p[14], vec![0, 1, 2, 3]);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn paper_scenario_derives_implicit_deadlines_and_a_packing_axis() {
        let text = "\
cpu cpu1
bus can bit_time=1

frame F1 bus=can type=direct payload=4 format=standard prio=1
  signal s1 triggering periodic:250
  signal s2 triggering periodic:450
  signal s3 pending periodic:600
frame F2 bus=can type=direct payload=2 format=standard prio=2
  signal s4 triggering periodic:400

task T1 cpu=cpu1 cet=24 prio=1 activation=F1/s1
task T2 cpu=cpu1 cet=32 prio=2 activation=F1/s2
task T3 cpu=cpu1 cet=40 prio=3 activation=F1/s3
";
        let scenario = crate::dsl::parse_scenario(text).expect("parses");
        let problem = ExploreProblem::from_scenario(&scenario, 7);
        assert_eq!(problem.deadlines.get("T1"), Some(&Time::new(250)));
        assert_eq!(problem.deadlines.get("T3"), Some(&Time::new(600)));
        match &problem.packing {
            PackingSpace::Partitions { bus, .. } => assert_eq!(bus, "can"),
            other => panic!("expected a packing axis, got {other:?}"),
        }
    }

    #[test]
    fn a_single_candidate_space_finds_the_default_feasible() {
        let text = "\
cpu c
task a cpu=c cet=10 prio=1 deadline=100 activation=periodic:100
task b cpu=c cet=10 prio=2 deadline=200 activation=periodic:200
";
        let scenario = crate::dsl::parse_scenario(text).expect("parses");
        let mut problem = ExploreProblem::from_scenario(&scenario, 0);
        problem.priorities = PrioritySpace::declared_only();
        let outcome = explore(
            &problem,
            &SystemConfig::new(AnalysisMode::Hierarchical).with_threads(1),
        )
        .expect("explores");
        assert_eq!(outcome.visited, 1);
        assert_eq!(outcome.default_index, Some(0));
        assert_eq!(outcome.best, Some(0));
        assert_eq!(outcome.feasible, 1);
        assert!(outcome.reports[0].config.is_default);
    }

    /// On the tight 10x Fig. 2 family at each of the 16 benchmark
    /// seeds, the verdict a period combination shares equals a fresh run
    /// of the necessary tests on each candidate's own spec, and every
    /// analysed candidate's response times and verdict (score included),
    /// reached through the warm chain in the search's visit order, equal
    /// a cold robust analysis of its spec — so do the best and default
    /// indices derived from the cold verdicts.
    #[test]
    fn shared_verdicts_and_chained_results_match_per_candidate_runs() {
        let text = include_str!("../../bench/scenarios/fig2_tight10x.hem");
        let scenario = crate::dsl::parse_scenario(text).expect("parses");
        let config = SystemConfig::new(AnalysisMode::Hierarchical).with_threads(1);
        for seed in 0..16 {
            let mut problem = ExploreProblem::from_scenario(&scenario, seed);
            problem.period_choices = vec![PeriodChoice {
                site: PeriodSite::Task("T1".into()),
                periods: vec![Time::new(2500), Time::new(700), Time::new(600)],
            }];
            let outcome = explore(&problem, &config).expect("explores");
            let chunks = enumerate(&problem, &config).expect("enumerates");
            let candidates: Vec<(&Chunk, &CandidateConfig)> = chunks
                .iter()
                .flat_map(|chunk| chunk.candidates.iter().map(move |c| (chunk, c)))
                .collect();
            assert_eq!(candidates.len(), outcome.reports.len());
            let (mut pruned, mut analyzed) = (0, 0);
            let (mut best, mut default_index): (Option<(Time, usize)>, _) = (None, None);
            let visits = candidates.into_iter().zip(&outcome.reports).enumerate();
            for (index, ((chunk, candidate), report)) in visits {
                assert_eq!(candidate.orders, report.config.orders);
                assert_eq!(candidate.periods, report.config.periods);
                if candidate.is_default {
                    default_index = Some(index);
                }
                if chunk.invalid.is_some() {
                    continue;
                }
                let spec = candidate_spec(&problem, chunk, candidate);
                match (
                    &report.verdict,
                    prune_reason(&spec, &problem.deadlines, &config.local),
                ) {
                    (Verdict::Pruned(shared), Some(own)) => {
                        assert_eq!(*shared, own);
                        pruned += 1;
                    }
                    (Verdict::Pruned(_), None) | (_, Some(_)) => {
                        panic!("seed {seed}: shared verdict {:?} differs", report.verdict)
                    }
                    (_, None) => {
                        let cold = crate::analyze_robust(&spec, &config).expect("valid");
                        assert_eq!(
                            report.response_times.as_ref(),
                            Some(&cold.results.response_times())
                        );
                        let (verdict, _) = judge(&problem, &spec, &cold.results);
                        assert_eq!(report.verdict, verdict, "seed {seed}: candidate {index}");
                        if let Verdict::Feasible { score } = verdict {
                            if best.is_none_or(|(b, _)| score < b) {
                                best = Some((score, index));
                            }
                        }
                        analyzed += 1;
                    }
                }
            }
            assert_eq!(outcome.best, best.map(|(_, index)| index), "seed {seed}");
            assert_eq!(outcome.default_index, default_index, "seed {seed}");
            assert!(
                pruned > 0 && analyzed > 0,
                "seed {seed}: both verdict kinds"
            );
        }
    }

    /// Candidates with the same mutated period share one source model:
    /// a warm chain through them keeps that task's lifted activation
    /// where the same chain with a fresh allocation of the model per
    /// candidate (an equal model the diff must treat as new) lifts it
    /// again. Verdicts and scores are unchanged: each equals a cold
    /// analysis of the candidate's spec.
    #[test]
    fn equal_mutated_periods_share_one_model() {
        // The tight 10x family in the packing `explore` finds for it.
        let text = "\
cpu cpu1
bus can bit_time=1

frame F bus=can type=direct payload=5 prio=1
  signal s1 triggering periodic:2500
  signal s2 triggering periodic:4500
  signal s4 triggering periodic:4000
  signal s5 triggering periodic:4200
  signal s3 pending periodic:6000

task T3 cpu=cpu1 cet=700 prio=1 deadline=1500 activation=F/s3
task T1 cpu=cpu1 cet=1200 prio=2 deadline=2500 activation=periodic:2500
task T2 cpu=cpu1 cet=600 prio=3 activation=periodic:4500
";
        let scenario = crate::dsl::parse_scenario(text).expect("parses");
        let mut problem = ExploreProblem::from_scenario(&scenario, 0);
        problem.packing = PackingSpace::Fixed;
        problem.period_choices = vec![PeriodChoice {
            site: PeriodSite::Task("T1".into()),
            periods: vec![Time::new(2500), Time::new(2600)],
        }];
        let config = |handle| {
            SystemConfig::new(AnalysisMode::Hierarchical)
                .with_threads(1)
                .with_analytic(Some(true))
                .with_recorder(handle)
        };
        let lifts = |recorder: &hem_obs::MemoryRecorder| {
            recorder.snapshot().counters.get("analytic_lifts").copied()
        };
        let (recorder, handle) = hem_obs::MemoryRecorder::handle();
        let outcome = explore(&problem, &config(handle)).expect("explores");
        assert_eq!(outcome.pruned, 0);

        let (fresh, fresh_handle) = hem_obs::MemoryRecorder::handle();
        let fresh_config = config(fresh_handle);
        let chunks = enumerate(&problem, &fresh_config).expect("enumerates");
        let candidates = chunks
            .iter()
            .flat_map(|chunk| chunk.candidates.iter().map(move |c| (chunk, c)));
        let mut chain: Option<WarmStart> = None;
        let mut mutated_feasible = 0;
        for ((chunk, candidate), report) in candidates.zip(&outcome.reports) {
            let mut spec = candidate_spec(&problem, chunk, candidate);
            let period = candidate.periods[0].1;
            if period != Time::new(2500) {
                let t1 = spec.tasks.iter_mut().find(|t| t.name == "T1");
                let model = StandardEventModel::periodic(period).expect("valid");
                t1.expect("T1").activation = ActivationSpec::External(model.shared());
                mutated_feasible += u32::from(matches!(report.verdict, Verdict::Feasible { .. }));
            }
            let run = analyze_incremental(&spec, &fresh_config, chain.as_ref()).expect("valid");
            chain = run.snapshot;
            let cold = crate::analyze_robust(&spec, &config(hem_obs::RecorderHandle::noop()))
                .expect("valid");
            let (verdict, _) = judge(&problem, &spec, &cold.results);
            assert_eq!(report.verdict, verdict);
            assert_eq!(judge(&problem, &spec, &run.analysis.results).0, verdict);
        }
        assert!(
            mutated_feasible > 1,
            "a chain of feasible mutated candidates"
        );
        // The first candidate lifts T1, T2 and the frame's outer stream
        // (T3's unpacked signal does not lift); every later one keeps
        // them. With fresh models, each 2600 candidate after the first
        // lifts T1 again.
        assert_eq!(lifts(&recorder), Some(3));
        assert_eq!(lifts(&fresh), Some(6));
    }

    #[test]
    fn overloaded_period_mutations_are_pruned() {
        let text = "\
cpu c
task a cpu=c cet=50 prio=1 deadline=100 activation=periodic:100
task b cpu=c cet=40 prio=2 deadline=200 activation=periodic:200
";
        let scenario = crate::dsl::parse_scenario(text).expect("parses");
        let mut problem = ExploreProblem::from_scenario(&scenario, 0);
        problem.priorities = PrioritySpace::declared_only();
        problem.period_choices = vec![PeriodChoice {
            site: PeriodSite::Task("a".into()),
            periods: vec![Time::new(100), Time::new(40)],
        }];
        let outcome = explore(
            &problem,
            &SystemConfig::new(AnalysisMode::Hierarchical).with_threads(1),
        )
        .expect("explores");
        assert_eq!(outcome.visited, 2);
        assert_eq!(outcome.pruned, 1);
        assert!(matches!(
            outcome.reports[1].verdict,
            Verdict::Pruned("utilization_bound")
        ));
        assert_eq!(outcome.pruned_pct(), 50.0);
    }
}
