//! The propagation dependency graph and its topological leveling.
//!
//! Within **one** global iteration, data flows in a single direction:
//! task outputs are derived from *previous-iteration* response times
//! (see `Resolver::prev_rt`), so the only same-iteration dependencies
//! are the ones flowing **into bus analyses** — packing a frame
//! resolves its signal sources, and a source that (transitively)
//! unpacks a signal of another frame needs that frame's bus analysed
//! first. CPUs consume bus outputs but nothing consumes a CPU's results
//! until the next iteration.
//!
//! This module derives the resulting resource-level dependency graph
//! from a [`SystemSpec`] — edges `bus → resource`, including the HEM
//! pack/unpack edges — and levels it topologically. Resources within a
//! level are mutually independent; the level order is the engine's
//! resolution order, which fixes where packings are counted and what
//! warm starts replay by. Resources caught in a resource-level cycle are
//! set aside: the engine analyses them through the lazy resolver, which
//! reports [`SystemError::DependencyCycle`] with the exact entity a
//! resolve-on-demand engine would name.
//!
//! Both graphs are part of one `Topology`: the spec's names, hosting,
//! wiring, levels, resource edges and sorted keys, derived in one pass
//! per wiring and carried along by warm starts. [`PropagationLevels`]
//! and [`ResourceGraph`] are views of it.
//!
//! [`SystemError::DependencyCycle`]: crate::SystemError::DependencyCycle

use std::collections::{BTreeSet, HashMap};

use crate::spec::{ActivationSpec, SystemSpec};

/// One dependency-free group of resources: every bus and CPU in a level
/// can be analysed once all earlier levels are done.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Level {
    /// Buses of this level, in spec order.
    pub buses: Vec<String>,
    /// CPUs of this level, in spec order.
    pub cpus: Vec<String>,
}

impl Level {
    /// Whether the level holds no resources.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buses.is_empty() && self.cpus.is_empty()
    }
}

/// The topologically leveled propagation graph of a system, by name: a
/// view of the levels the engine's `Topology` derives.
///
/// # Examples
///
/// ```
/// use hem_system::graph::PropagationLevels;
/// use hem_system::SystemSpec;
///
/// let levels = PropagationLevels::of(&SystemSpec::new().cpu("ecu"));
/// assert_eq!(levels.levels.len(), 1);
/// assert_eq!(levels.levels[0].cpus, ["ecu"]);
/// assert!(levels.cyclic_buses.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropagationLevels {
    /// Dependency-free resource groups, in execution order.
    pub levels: Vec<Level>,
    /// Buses caught in a resource-level dependency cycle (including
    /// self-loops such as two frames of one bus feeding each other),
    /// in spec order. Analysed sequentially after all levels.
    pub cyclic_buses: Vec<String>,
    /// CPUs depending on a cyclic bus, in spec order.
    pub cyclic_cpus: Vec<String>,
}

impl PropagationLevels {
    /// Derives and levels the propagation graph of `spec`.
    ///
    /// Expects a spec that passes the engine's validation; dangling
    /// references are ignored rather than reported (validation owns
    /// that diagnosis).
    #[must_use]
    pub fn of(spec: &SystemSpec) -> Self {
        let topology = Topology::of(spec);
        let buses = |ids: &[usize]| -> Vec<String> {
            ids.iter()
                .map(|&b| topology.buses.get(b).to_string())
                .collect()
        };
        let cpus = |ids: &[usize]| -> Vec<String> {
            ids.iter()
                .map(|&c| topology.cpus.get(c).to_string())
                .collect()
        };
        PropagationLevels {
            levels: topology
                .levels
                .iter()
                .map(|l| Level {
                    buses: buses(&l.buses),
                    cpus: cpus(&l.cpus),
                })
                .collect(),
            cyclic_buses: buses(&topology.cyclic_buses),
            cyclic_cpus: cpus(&topology.cyclic_cpus),
        }
    }

    /// Whether any resource needs the sequential fallback.
    #[must_use]
    pub fn has_cycles(&self) -> bool {
        !self.cyclic_buses.is_empty() || !self.cyclic_cpus.is_empty()
    }

    /// Total number of leveled resources (diagnostic).
    #[must_use]
    pub fn leveled_resources(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.buses.len() + l.cpus.len())
            .sum()
    }
}

/// The resource-level dependency graph **including cross-iteration
/// edges**, the basis of the incremental engine's damage-cone
/// computation (see `docs/INCREMENTAL.md`): a view of the edges the
/// engine's `Topology` derives.
///
/// [`PropagationLevels`] deliberately drops task-output edges: a
/// consumer reads the producer's *previous-iteration* response time, so
/// no same-iteration ordering is needed. For invalidation the direction
/// of data flow matters regardless of which iteration it crosses — if a
/// producer's results change, every consumer's trajectory changes one
/// iteration later. This graph therefore keeps both kinds of edges:
///
/// * `bus:<b> ∈ deps(R)` when an entity on `R` consumes a signal or the
///   arrival stream of a frame on `b` (same-iteration),
/// * `cpu:<c> ∈ deps(R)` when an entity on `R` consumes the output of a
///   task hosted on `c` (cross-iteration).
///
/// Nodes are prefixed resource keys (`bus:<name>` / `cpu:<name>`), the
/// same convention `Diagnostics` uses for entities. Only *direct* edges
/// are stored; [`ResourceGraph::dependents_closure`] transitively closes
/// over them.
///
/// # Examples
///
/// ```
/// use hem_system::graph::ResourceGraph;
/// use hem_system::SystemSpec;
///
/// let graph = ResourceGraph::of(&SystemSpec::new().cpu("ecu"));
/// assert_eq!(graph.len(), 1);
/// assert_eq!(
///     graph.dependents_closure(["cpu:ecu".to_string()]),
///     ["cpu:ecu".to_string()].into_iter().collect()
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceGraph {
    topology: Topology,
}

impl ResourceGraph {
    /// Derives the resource dependency graph of `spec`.
    ///
    /// Like [`PropagationLevels::of`], expects a spec that passes the
    /// engine's validation; dangling references are ignored.
    #[must_use]
    pub fn of(spec: &SystemSpec) -> Self {
        ResourceGraph {
            topology: Topology::of(spec),
        }
    }

    /// Every resource of the graph, as prefixed keys in sorted order.
    pub fn resources(&self) -> impl Iterator<Item = &str> {
        self.topology.resource_keys()
    }

    /// Number of resources.
    #[must_use]
    pub fn len(&self) -> usize {
        self.topology.resource_count()
    }

    /// Whether the graph holds no resources.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The *damage cone* of a set of directly mutated resources: every
    /// resource whose analysis trajectory can be affected by the
    /// mutation — the seeds plus all transitive dependents, following
    /// edges forward through both same- and cross-iteration
    /// dependencies. Seeds that are not resources of this graph are
    /// ignored.
    #[must_use]
    pub fn dependents_closure(&self, seeds: impl IntoIterator<Item = String>) -> BTreeSet<String> {
        let topology = &self.topology;
        let seeds = seeds
            .into_iter()
            .filter_map(|key| topology.resource_of_key(&key));
        let cone = topology.dependents_closure(seeds);
        topology
            .sorted_resources()
            .filter(|&r| cone[r])
            .map(|r| topology.resource_key(r).to_string())
            .collect()
    }
}

/// Strings stored back to back in one buffer: the names and keys a
/// topology keeps, without an allocation per string.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Strings {
    text: String,
    /// String `i` ends at byte `ends[i]` of `text` and starts where
    /// string `i - 1` ends.
    ends: Vec<u32>,
}

impl Strings {
    fn of<'a>(strings: impl Iterator<Item = &'a str>) -> Self {
        let mut out = Strings::default();
        for s in strings {
            out.push(&[s]);
        }
        out
    }

    /// Appends the concatenation of `parts` as one string.
    fn push(&mut self, parts: &[&str]) {
        for part in parts {
            self.text.push_str(part);
        }
        let end = u32::try_from(self.text.len()).expect("names fit in 4 GiB");
        self.ends.push(end);
    }

    /// String `i`.
    pub(crate) fn get(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.text[start..self.ends[i] as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The position of `name`, by a linear scan: only diagnostics and
    /// the name-keyed [`ResourceGraph`] view look names up.
    pub(crate) fn position(&self, name: &str) -> Option<usize> {
        (0..self.len()).find(|&i| self.get(i) == name)
    }

    /// Positions sorted by string.
    fn sorted(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| self.get(a).cmp(self.get(b)));
        order
    }
}

/// An [`ActivationSpec`]'s wiring by spec position: what the source
/// reads, without its external models (those are values, which the
/// topology does not own).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Wire {
    /// An external model.
    External,
    /// The output of `spec.tasks[i]`.
    TaskOutput(usize),
    /// Signal `signal` (its position within the frame) of
    /// `spec.frames[frame]`.
    Signal { frame: usize, signal: usize },
    /// Every arrival of `spec.frames[j]`.
    FrameArrivals(usize),
    /// OR-activation.
    AnyOf(Vec<Wire>),
    /// AND-activation.
    AllOf(Vec<Wire>),
    /// A reference the spec does not define (unvalidated specs only).
    Dangling,
}

/// One propagation level by spec position.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LevelIndex {
    /// Buses of this level, in spec order.
    pub(crate) buses: Vec<usize>,
    /// CPUs of this level, in spec order.
    pub(crate) cpus: Vec<usize>,
}

/// A task or frame by spec position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Entity {
    Frame(usize),
    Task(usize),
}

/// Everything the engine derives from a spec's names, hosting and
/// wiring — but not from its values (execution times, priorities,
/// payloads, bus timing, external models) — in one pass over
/// name → position maps: the entity index, the propagation levels, the
/// resource dependency edges and the sorted prefixed keys every
/// name-keyed output is built from.
///
/// A warm start carries its topology along: a spec whose names, hosting
/// and wiring are unchanged reuses it as is, and only a rewire or a
/// structural change derives (and validates) a new one.
///
/// Resources are numbered buses first (`bus b` → `b`), then CPUs
/// (`cpu c` → `buses + c`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Topology {
    /// Names of `spec.cpus`, `spec.buses`, `spec.tasks` and
    /// `spec.frames`, by spec position.
    pub(crate) cpus: Strings,
    pub(crate) buses: Strings,
    pub(crate) tasks: Strings,
    pub(crate) frames: Strings,
    /// Hosting CPU of `spec.tasks[i]` (`None` only in unvalidated specs).
    pub(crate) task_cpu: Vec<Option<usize>>,
    /// Hosting bus of `spec.frames[j]` (`None` only in unvalidated specs).
    pub(crate) frame_bus: Vec<Option<usize>>,
    /// Frames of `spec.buses[b]`, in spec order.
    pub(crate) bus_frames: Vec<Vec<usize>>,
    /// Tasks of `spec.cpus[c]`, in spec order.
    pub(crate) cpu_tasks: Vec<Vec<usize>>,
    /// Every frame's signal names, concatenated in spec order: frame
    /// `j`'s are `signal_start[j]..signal_start[j + 1]`.
    pub(crate) signal_names: Strings,
    signal_start: Vec<usize>,
    /// Wiring of `spec.tasks[i].activation`.
    pub(crate) task_wires: Vec<Wire>,
    /// Wiring of every signal source, laid out like `signal_names`.
    pub(crate) signal_wires: Vec<Wire>,
    /// External-model slots, numbered in spec order over task
    /// activations and then frame signals: task `i` owns slots
    /// `externals[i]..externals[i + 1]`, frame `j` owns
    /// `externals[tasks + j]..externals[tasks + j + 1]`.
    externals: Vec<usize>,
    /// Dependency-free resource groups, in execution order.
    pub(crate) levels: Vec<LevelIndex>,
    /// Buses in a resource-level dependency cycle, in spec order.
    pub(crate) cyclic_buses: Vec<usize>,
    /// CPUs depending on a cyclic bus, in spec order.
    pub(crate) cyclic_cpus: Vec<usize>,
    /// Direct dependents of every resource (cross-iteration edges
    /// included), deduplicated.
    dependents: Vec<Vec<usize>>,
    /// `bus:<name>` / `cpu:<name>` of every resource, by resource number.
    resource_keys: Strings,
    /// Resource numbers in prefixed-key order.
    resource_order: Vec<usize>,
    /// Every entity in prefixed-key order (frames, then tasks, each by
    /// name) — the order of every name-keyed output.
    pub(crate) entities: Vec<Entity>,
    /// `frame:<name>` / `task:<name>` of `entities[k]`.
    pub(crate) entity_keys: Strings,
}

/// Compiles [`ActivationSpec`]s into [`Wire`]s, numbering external
/// slots as it goes.
struct WireCompiler<'s> {
    tasks: HashMap<&'s str, usize>,
    frames: HashMap<&'s str, usize>,
    spec: &'s SystemSpec,
    externals: usize,
}

impl WireCompiler<'_> {
    fn wire(&mut self, source: &ActivationSpec) -> Wire {
        match source {
            ActivationSpec::External(_) => {
                self.externals += 1;
                Wire::External
            }
            ActivationSpec::TaskOutput(task) => self
                .tasks
                .get(task.as_str())
                .map_or(Wire::Dangling, |&i| Wire::TaskOutput(i)),
            ActivationSpec::Signal { frame, signal } => {
                let Some(&j) = self.frames.get(frame.as_str()) else {
                    return Wire::Dangling;
                };
                self.spec.frames[j]
                    .signals
                    .iter()
                    .position(|s| s.name == *signal)
                    .map_or(Wire::Dangling, |signal| Wire::Signal { frame: j, signal })
            }
            ActivationSpec::FrameArrivals(frame) => self
                .frames
                .get(frame.as_str())
                .map_or(Wire::Dangling, |&j| Wire::FrameArrivals(j)),
            ActivationSpec::AnyOf(sources) => {
                Wire::AnyOf(sources.iter().map(|s| self.wire(s)).collect())
            }
            ActivationSpec::AllOf(sources) => {
                Wire::AllOf(sources.iter().map(|s| self.wire(s)).collect())
            }
        }
    }
}

/// Collects the buses a resource depends on within one global
/// iteration. `seen` arrays hold the stamp of the resource that last
/// visited an entry, so they are never cleared between resources.
struct SameIterationDeps<'t> {
    topology: &'t Topology,
    stamp: u32,
    seen_tasks: Vec<u32>,
    seen_frames: Vec<u32>,
    seen_buses: Vec<u32>,
    out: Vec<usize>,
}

impl SameIterationDeps<'_> {
    /// Starts collecting the dependencies of the next resource.
    fn next_resource(&mut self) {
        self.stamp += 1;
        self.out.clear();
    }

    /// Adds every bus the source depends on within the same global
    /// iteration. `TaskOutput` recurses into the producing task's own
    /// activation (its output *model* is previous-iteration data, but
    /// building it still resolves the activation chain);
    /// `Signal`/`FrameArrivals` add the transporting frame's bus and
    /// recurse into the frame's packing (its signal sources are resolved
    /// when the frame is packed).
    fn source(&mut self, wire: &Wire) {
        match wire {
            Wire::External | Wire::Dangling => {}
            &Wire::TaskOutput(i) => {
                if self.seen_tasks[i] != self.stamp {
                    self.seen_tasks[i] = self.stamp;
                    let topology = self.topology;
                    self.source(&topology.task_wires[i]);
                }
            }
            &Wire::Signal { frame: j, .. } | &Wire::FrameArrivals(j) => {
                if let Some(b) = self.topology.frame_bus[j] {
                    if self.seen_buses[b] != self.stamp {
                        self.seen_buses[b] = self.stamp;
                        self.out.push(b);
                    }
                }
                self.frame(j);
            }
            Wire::AnyOf(wires) | Wire::AllOf(wires) => {
                for w in wires {
                    self.source(w);
                }
            }
        }
    }

    /// Adds the buses packing `spec.frames[j]` depends on.
    fn frame(&mut self, j: usize) {
        if self.seen_frames[j] == self.stamp {
            return;
        }
        self.seen_frames[j] = self.stamp;
        let topology = self.topology;
        for wire in topology.frame_signal_wires(j) {
            self.source(wire);
        }
    }
}

/// Pushes the resources a source reads directly (no recursion through
/// producers: their own inputs are their resources' edges).
fn direct_deps(topology: &Topology, wire: &Wire, out: &mut Vec<usize>) {
    match wire {
        Wire::External | Wire::Dangling => {}
        &Wire::TaskOutput(i) => {
            if let Some(c) = topology.task_cpu[i] {
                out.push(topology.buses.len() + c);
            }
        }
        &Wire::Signal { frame: j, .. } | &Wire::FrameArrivals(j) => {
            if let Some(b) = topology.frame_bus[j] {
                out.push(b);
            }
        }
        Wire::AnyOf(wires) | Wire::AllOf(wires) => {
            for w in wires {
                direct_deps(topology, w, out);
            }
        }
    }
}

impl Topology {
    /// Derives the topology of `spec`.
    ///
    /// Expects a spec that passes the engine's validation; dangling
    /// references are ignored rather than reported (validation owns that
    /// diagnosis).
    pub(crate) fn of(spec: &SystemSpec) -> Self {
        fn positions<'s>(names: impl Iterator<Item = &'s str>) -> HashMap<&'s str, usize> {
            names.enumerate().map(|(i, n)| (n, i)).collect()
        }
        let cpu_pos = positions(spec.cpus.iter().map(|c| c.name.as_str()));
        let bus_pos = positions(spec.buses.iter().map(|b| b.name.as_str()));
        let task_cpu: Vec<Option<usize>> = spec
            .tasks
            .iter()
            .map(|t| cpu_pos.get(t.cpu.as_str()).copied())
            .collect();
        let frame_bus: Vec<Option<usize>> = spec
            .frames
            .iter()
            .map(|f| bus_pos.get(f.bus.as_str()).copied())
            .collect();
        let mut bus_frames = vec![Vec::new(); spec.buses.len()];
        for (j, b) in frame_bus.iter().enumerate() {
            if let Some(b) = *b {
                bus_frames[b].push(j);
            }
        }
        let mut cpu_tasks = vec![Vec::new(); spec.cpus.len()];
        for (i, c) in task_cpu.iter().enumerate() {
            if let Some(c) = *c {
                cpu_tasks[c].push(i);
            }
        }
        let mut signal_start = Vec::with_capacity(spec.frames.len() + 1);
        let mut n_signals = 0;
        for f in &spec.frames {
            signal_start.push(n_signals);
            n_signals += f.signals.len();
        }
        signal_start.push(n_signals);

        let mut compiler = WireCompiler {
            tasks: positions(spec.tasks.iter().map(|t| t.name.as_str())),
            frames: positions(spec.frames.iter().map(|f| f.name.as_str())),
            spec,
            externals: 0,
        };
        let mut externals = Vec::with_capacity(spec.tasks.len() + spec.frames.len() + 1);
        let mut task_wires = Vec::with_capacity(spec.tasks.len());
        for t in &spec.tasks {
            externals.push(compiler.externals);
            task_wires.push(compiler.wire(&t.activation));
        }
        let mut signal_wires = Vec::with_capacity(n_signals);
        for f in &spec.frames {
            externals.push(compiler.externals);
            signal_wires.extend(f.signals.iter().map(|s| compiler.wire(&s.source)));
        }
        externals.push(compiler.externals);

        let cpus = Strings::of(spec.cpus.iter().map(|c| c.name.as_str()));
        let buses = Strings::of(spec.buses.iter().map(|b| b.name.as_str()));
        let tasks = Strings::of(spec.tasks.iter().map(|t| t.name.as_str()));
        let frames = Strings::of(spec.frames.iter().map(|f| f.name.as_str()));
        let signal_names = Strings::of(
            spec.frames
                .iter()
                .flat_map(|f| f.signals.iter().map(|s| s.name.as_str())),
        );
        let mut resource_keys = Strings::default();
        for b in &spec.buses {
            resource_keys.push(&["bus:", &b.name]);
        }
        for c in &spec.cpus {
            resource_keys.push(&["cpu:", &c.name]);
        }
        let resource_order: Vec<usize> = buses
            .sorted()
            .into_iter()
            .chain(cpus.sorted().into_iter().map(|c| buses.len() + c))
            .collect();
        let entities: Vec<Entity> = frames
            .sorted()
            .into_iter()
            .map(Entity::Frame)
            .chain(tasks.sorted().into_iter().map(Entity::Task))
            .collect();
        let mut entity_keys = Strings::default();
        for &e in &entities {
            match e {
                Entity::Frame(j) => entity_keys.push(&["frame:", &spec.frames[j].name]),
                Entity::Task(i) => entity_keys.push(&["task:", &spec.tasks[i].name]),
            }
        }

        let mut topology = Topology {
            cpus,
            buses,
            tasks,
            frames,
            task_cpu,
            frame_bus,
            bus_frames,
            cpu_tasks,
            signal_names,
            signal_start,
            task_wires,
            signal_wires,
            externals,
            levels: Vec::new(),
            cyclic_buses: Vec::new(),
            cyclic_cpus: Vec::new(),
            dependents: Vec::new(),
            resource_keys,
            resource_order,
            entities,
            entity_keys,
        };
        topology.level();
        topology.link();
        topology
    }

    /// Levels the same-iteration dependency graph: longest-path
    /// leveling of the buses (repeatedly place every bus whose
    /// dependencies are all placed; leftovers are cycle participants or
    /// downstream of one), then every CPU one level after the last bus
    /// it reads from, or with the cyclic buses.
    fn level(&mut self) {
        let (n_buses, n_cpus) = (self.buses.len(), self.cpus.len());
        let mut walk = SameIterationDeps {
            topology: self,
            stamp: 0,
            seen_tasks: vec![0; self.tasks.len()],
            seen_frames: vec![0; self.frames.len()],
            seen_buses: vec![0; n_buses],
            out: Vec::new(),
        };
        let mut bus_deps = Vec::with_capacity(n_buses);
        for b in 0..n_buses {
            walk.next_resource();
            for &j in &self.bus_frames[b] {
                walk.frame(j);
            }
            bus_deps.push(walk.out.clone());
        }
        let mut cpu_deps = Vec::with_capacity(n_cpus);
        for c in 0..n_cpus {
            walk.next_resource();
            for &i in &self.cpu_tasks[c] {
                walk.source(&self.task_wires[i]);
            }
            cpu_deps.push(walk.out.clone());
        }

        let mut bus_level: Vec<Option<usize>> = vec![None; n_buses];
        loop {
            let mut progressed = false;
            for (b, deps) in bus_deps.iter().enumerate() {
                if bus_level[b].is_some() || deps.contains(&b) {
                    continue;
                }
                if let Some(level) = deps
                    .iter()
                    .try_fold(0usize, |acc, &d| Some(acc.max(bus_level[d]? + 1)))
                {
                    bus_level[b] = Some(level);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        let cpu_level: Vec<Option<usize>> = cpu_deps
            .iter()
            .map(|deps| {
                deps.iter()
                    .try_fold(0usize, |acc, &d| Some(acc.max(bus_level[d]? + 1)))
            })
            .collect();
        let depth = bus_level
            .iter()
            .chain(&cpu_level)
            .flatten()
            .max()
            .map_or(0, |m| m + 1);
        let mut levels = vec![LevelIndex::default(); depth];
        for (b, level) in bus_level.iter().enumerate() {
            match level {
                Some(l) => levels[*l].buses.push(b),
                None => self.cyclic_buses.push(b),
            }
        }
        for (c, level) in cpu_level.iter().enumerate() {
            match level {
                Some(l) => levels[*l].cpus.push(c),
                None => self.cyclic_cpus.push(c),
            }
        }
        self.levels = levels;
    }

    /// Derives the direct dependents of every resource: a `TaskOutput`
    /// consumer depends on the producer's CPU, a `Signal` /
    /// `FrameArrivals` consumer on the transporting frame's bus.
    fn link(&mut self) {
        let n_buses = self.buses.len();
        let mut dependents = vec![Vec::new(); self.resource_count()];
        let mut deps = Vec::new();
        for r in 0..self.resource_count() {
            deps.clear();
            if r < n_buses {
                for &j in &self.bus_frames[r] {
                    for wire in self.frame_signal_wires(j) {
                        direct_deps(self, wire, &mut deps);
                    }
                }
            } else {
                for &i in &self.cpu_tasks[r - n_buses] {
                    direct_deps(self, &self.task_wires[i], &mut deps);
                }
            }
            deps.sort_unstable();
            deps.dedup();
            for &d in &deps {
                dependents[d].push(r);
            }
        }
        self.dependents = dependents;
    }

    /// The positions of `spec.frames[j]`'s signals in the frame-major
    /// signal numbering.
    pub(crate) fn frame_signals(&self, j: usize) -> std::ops::Range<usize> {
        self.signal_start[j]..self.signal_start[j + 1]
    }

    /// The wiring of `spec.frames[j]`'s signal sources.
    pub(crate) fn frame_signal_wires(&self, j: usize) -> &[Wire] {
        &self.signal_wires[self.frame_signals(j)]
    }

    /// Whether every signal of `spec.frames[j]` reads an external model:
    /// its packing (Def. 8 reads only the signal streams) then depends
    /// on nothing the fixed point changes.
    pub(crate) fn external_fed(&self, j: usize) -> bool {
        self.frame_signal_wires(j)
            .iter()
            .all(|w| matches!(w, Wire::External))
    }

    /// The external-model slots of `spec.tasks[i]`'s activation.
    pub(crate) fn task_externals(&self, i: usize) -> std::ops::Range<usize> {
        self.externals[i]..self.externals[i + 1]
    }

    /// The external-model slots of `spec.frames[j]`'s signal sources.
    pub(crate) fn frame_externals(&self, j: usize) -> std::ops::Range<usize> {
        let k = self.tasks.len() + j;
        self.externals[k]..self.externals[k + 1]
    }

    /// Whether any resource needs the sequential fallback.
    pub(crate) fn has_cycles(&self) -> bool {
        !self.cyclic_buses.is_empty() || !self.cyclic_cpus.is_empty()
    }

    /// Number of resources (buses and CPUs).
    pub(crate) fn resource_count(&self) -> usize {
        self.buses.len() + self.cpus.len()
    }

    /// The resource number of `spec.cpus[c]`.
    pub(crate) fn cpu_resource(&self, c: usize) -> usize {
        self.buses.len() + c
    }

    /// The prefixed key of resource `r`.
    pub(crate) fn resource_key(&self, r: usize) -> &str {
        self.resource_keys.get(r)
    }

    /// Resource numbers in prefixed-key order.
    pub(crate) fn sorted_resources(&self) -> impl Iterator<Item = usize> + '_ {
        self.resource_order.iter().copied()
    }

    /// Every resource's prefixed key, in sorted order.
    pub(crate) fn resource_keys(&self) -> impl Iterator<Item = &str> {
        self.sorted_resources().map(|r| self.resource_key(r))
    }

    /// The resource number of a prefixed key, if it names one.
    fn resource_of_key(&self, key: &str) -> Option<usize> {
        if let Some(bus) = key.strip_prefix("bus:") {
            self.buses.position(bus)
        } else {
            let cpu = key.strip_prefix("cpu:")?;
            Some(self.cpu_resource(self.cpus.position(cpu)?))
        }
    }

    /// Frame positions in name order.
    pub(crate) fn sorted_frames(&self) -> impl Iterator<Item = usize> + '_ {
        self.entities.iter().map_while(|e| match *e {
            Entity::Frame(j) => Some(j),
            Entity::Task(_) => None,
        })
    }

    /// The positions in `entities` of the frames.
    pub(crate) fn frame_entities(&self) -> std::ops::Range<usize> {
        0..self.frames.len()
    }

    /// The positions in `entities` of the tasks.
    pub(crate) fn task_entities(&self) -> std::ops::Range<usize> {
        self.frames.len()..self.entities.len()
    }

    /// The key of an entity as its prefix (`"frame:"` / `"task:"`) and
    /// name.
    fn key_parts(&self, entity: Entity) -> (&'static str, &str) {
        match entity {
            Entity::Frame(j) => ("frame:", self.frames.get(j)),
            Entity::Task(i) => ("task:", self.tasks.get(i)),
        }
    }

    /// The name of `entities[k]`.
    pub(crate) fn entity_name(&self, k: usize) -> &str {
        self.key_parts(self.entities[k]).1
    }

    /// The position in `entities` of the entity keyed `prefix` + `name`,
    /// by binary search over the sorted keys.
    pub(crate) fn find_entity(&self, prefix: &str, name: &str) -> Option<usize> {
        self.entities
            .binary_search_by(|&e| self.key_parts(e).cmp(&(prefix, name)))
            .ok()
    }

    /// `frames[j]` / `tasks[i]` of every entity, in entity order: a
    /// spec-position table laid out like every name-keyed output.
    pub(crate) fn by_entity<'t, T>(
        &'t self,
        frames: &'t [T],
        tasks: &'t [T],
    ) -> impl Iterator<Item = &'t T> + 't {
        self.entities.iter().map(move |e| match *e {
            Entity::Frame(j) => &frames[j],
            Entity::Task(i) => &tasks[i],
        })
    }

    /// The resource hosting an entity.
    pub(crate) fn host(&self, entity: Entity) -> Option<usize> {
        match entity {
            Entity::Frame(j) => self.frame_bus[j],
            Entity::Task(i) => self.task_cpu[i].map(|c| self.cpu_resource(c)),
        }
    }

    /// The *damage cone* of directly mutated resources: the seeds plus
    /// every transitive dependent, as a membership flag per resource.
    pub(crate) fn dependents_closure(&self, seeds: impl IntoIterator<Item = usize>) -> Vec<bool> {
        let mut cone = vec![false; self.resource_count()];
        let mut frontier = Vec::new();
        for r in seeds {
            if !std::mem::replace(&mut cone[r], true) {
                frontier.push(r);
            }
        }
        while let Some(r) = frontier.pop() {
            for &d in &self.dependents[r] {
                if !std::mem::replace(&mut cone[d], true) {
                    frontier.push(d);
                }
            }
        }
        cone
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FrameSpec, SignalSpec, TaskSpec};
    use hem_analysis::Priority;
    use hem_autosar_com::{FrameType, TransferProperty};
    use hem_can::{CanBusConfig, FrameFormat};
    use hem_event_models::{EventModelExt, StandardEventModel};
    use hem_time::Time;

    fn periodic(p: i64) -> ActivationSpec {
        ActivationSpec::External(StandardEventModel::periodic(Time::new(p)).unwrap().shared())
    }

    fn task(name: &str, cpu: &str, act: ActivationSpec) -> TaskSpec {
        TaskSpec {
            name: name.into(),
            cpu: cpu.into(),
            bcet: Time::new(10),
            wcet: Time::new(10),
            priority: Priority::new(1),
            activation: act,
        }
    }

    fn frame(name: &str, bus: &str, prio: u32, signals: Vec<(&str, ActivationSpec)>) -> FrameSpec {
        FrameSpec {
            name: name.into(),
            bus: bus.into(),
            frame_type: FrameType::Direct,
            payload_bytes: 4,
            format: FrameFormat::Standard,
            priority: Priority::new(prio),
            signals: signals
                .into_iter()
                .map(|(n, source)| SignalSpec {
                    name: n.into(),
                    transfer: TransferProperty::Triggering,
                    source,
                })
                .collect(),
        }
    }

    fn signal(frame: &str, signal: &str) -> ActivationSpec {
        ActivationSpec::Signal {
            frame: frame.into(),
            signal: signal.into(),
        }
    }

    #[test]
    fn fig2_shape_levels_bus_before_cpu() {
        // Externally-fed frames on one bus; tasks unpack its signals.
        let spec = SystemSpec::new()
            .cpu("cpu1")
            .bus("can", CanBusConfig::new(Time::new(1)))
            .frame(frame("F1", "can", 1, vec![("s1", periodic(250))]))
            .task(task("T1", "cpu1", signal("F1", "s1")));
        let levels = PropagationLevels::of(&spec);
        assert!(!levels.has_cycles());
        assert_eq!(levels.levels.len(), 2);
        assert_eq!(levels.levels[0].buses, ["can"]);
        assert!(levels.levels[0].cpus.is_empty());
        assert_eq!(levels.levels[1].cpus, ["cpu1"]);
        assert_eq!(levels.leveled_resources(), 2);
    }

    #[test]
    fn independent_resources_share_a_level() {
        let spec = SystemSpec::new()
            .cpu("a")
            .cpu("b")
            .bus("can0", CanBusConfig::new(Time::new(1)))
            .bus("can1", CanBusConfig::new(Time::new(1)))
            .frame(frame("F0", "can0", 1, vec![("s", periodic(100))]))
            .frame(frame("F1", "can1", 1, vec![("s", periodic(100))]))
            .task(task("t0", "a", periodic(100)))
            .task(task("t1", "b", periodic(100)));
        let levels = PropagationLevels::of(&spec);
        assert_eq!(levels.levels.len(), 1);
        assert_eq!(levels.levels[0].buses, ["can0", "can1"]);
        assert_eq!(levels.levels[0].cpus, ["a", "b"]);
    }

    #[test]
    fn gateway_chains_level_buses_in_order() {
        // can0's frame is external; a gateway task unpacks it and feeds
        // can1's frame; a final CPU reads can1. Three levels.
        let spec = SystemSpec::new()
            .cpu("gw")
            .cpu("sink")
            .bus("can0", CanBusConfig::new(Time::new(1)))
            .bus("can1", CanBusConfig::new(Time::new(1)))
            .frame(frame("F0", "can0", 1, vec![("s", periodic(500))]))
            .frame(frame(
                "F1",
                "can1",
                1,
                vec![("g", ActivationSpec::TaskOutput("relay".into()))],
            ))
            .task(task("relay", "gw", signal("F0", "s")))
            .task(task("rx", "sink", signal("F1", "g")));
        let levels = PropagationLevels::of(&spec);
        assert!(!levels.has_cycles());
        assert_eq!(levels.levels.len(), 3);
        assert_eq!(levels.levels[0].buses, ["can0"]);
        // The gateway CPU reads can0 only; it levels right after can0,
        // in the same level as can1 (whose packing depends on can0 too).
        assert_eq!(levels.levels[1].cpus, ["gw"]);
        assert_eq!(levels.levels[1].buses, ["can1"]);
        assert_eq!(levels.levels[2].cpus, ["sink"]);
    }

    #[test]
    fn mutually_dependent_buses_fall_back_to_sequential() {
        // B0's frame packs a signal gated through a task reading B1 and
        // vice versa: a resource-level cycle.
        let spec = SystemSpec::new()
            .cpu("gw")
            .bus("b0", CanBusConfig::new(Time::new(1)))
            .bus("b1", CanBusConfig::new(Time::new(1)))
            .frame(frame(
                "F0",
                "b0",
                1,
                vec![("x", ActivationSpec::TaskOutput("t1".into()))],
            ))
            .frame(frame(
                "F1",
                "b1",
                1,
                vec![("y", ActivationSpec::TaskOutput("t0".into()))],
            ))
            .task(task("t0", "gw", signal("F0", "x")))
            .task(task("t1", "gw", signal("F1", "y")));
        let levels = PropagationLevels::of(&spec);
        assert_eq!(levels.cyclic_buses, ["b0", "b1"]);
        assert_eq!(levels.cyclic_cpus, ["gw"]);
        assert!(levels.has_cycles());
        assert_eq!(levels.leveled_resources(), 0);
    }

    #[test]
    fn intra_bus_frame_coupling_is_a_self_loop() {
        // F2 packs a signal produced by a task that unpacks F1 — both
        // frames on the same bus: the bus depends on itself.
        let spec = SystemSpec::new()
            .cpu("c")
            .bus("can", CanBusConfig::new(Time::new(1)))
            .frame(frame("F1", "can", 1, vec![("s", periodic(200))]))
            .frame(frame(
                "F2",
                "can",
                2,
                vec![("t", ActivationSpec::TaskOutput("echo".into()))],
            ))
            .task(task("echo", "c", signal("F1", "s")));
        let levels = PropagationLevels::of(&spec);
        assert_eq!(levels.cyclic_buses, ["can"]);
        assert_eq!(levels.cyclic_cpus, ["c"]);
    }

    #[test]
    fn composite_and_chained_activations_collect_all_deps() {
        let spec = SystemSpec::new()
            .cpu("c")
            .bus("b0", CanBusConfig::new(Time::new(1)))
            .bus("b1", CanBusConfig::new(Time::new(1)))
            .frame(frame("F0", "b0", 1, vec![("s", periodic(100))]))
            .frame(frame("F1", "b1", 1, vec![("s", periodic(100))]))
            .task(task("up", "c", signal("F0", "s")))
            .task(task(
                "both",
                "c",
                ActivationSpec::AnyOf(vec![
                    ActivationSpec::TaskOutput("up".into()),
                    ActivationSpec::FrameArrivals("F1".into()),
                ]),
            ));
        let levels = PropagationLevels::of(&spec);
        assert_eq!(levels.levels[0].buses, ["b0", "b1"]);
        // The CPU reads both buses (one via the task-output chain).
        assert_eq!(levels.levels[1].cpus, ["c"]);
    }

    fn keys(set: &BTreeSet<String>) -> Vec<&str> {
        set.iter().map(String::as_str).collect()
    }

    #[test]
    fn resource_graph_includes_cross_iteration_edges() {
        // src → F0 on can0 → relay on gw → F1 on can1 → rx on sink.
        // `PropagationLevels` has no edge gw → can1 within an iteration,
        // but the damage cone must carry a gw mutation into can1.
        let spec = SystemSpec::new()
            .cpu("gw")
            .cpu("sink")
            .bus("can0", CanBusConfig::new(Time::new(1)))
            .bus("can1", CanBusConfig::new(Time::new(1)))
            .frame(frame("F0", "can0", 1, vec![("s", periodic(500))]))
            .frame(frame(
                "F1",
                "can1",
                1,
                vec![("g", ActivationSpec::TaskOutput("relay".into()))],
            ))
            .task(task("relay", "gw", signal("F0", "s")))
            .task(task("rx", "sink", signal("F1", "g")));
        let graph = ResourceGraph::of(&spec);
        assert_eq!(graph.len(), 4);
        assert!(!graph.is_empty());
        assert_eq!(
            graph.resources().collect::<Vec<_>>(),
            ["bus:can0", "bus:can1", "cpu:gw", "cpu:sink"]
        );
        // A mutation on can0 dirties everything downstream.
        let cone = graph.dependents_closure(["bus:can0".to_string()]);
        assert_eq!(keys(&cone), ["bus:can0", "bus:can1", "cpu:gw", "cpu:sink"]);
        // A mutation on the gateway CPU reaches can1 and sink, not can0.
        let cone = graph.dependents_closure(["cpu:gw".to_string()]);
        assert_eq!(keys(&cone), ["bus:can1", "cpu:gw", "cpu:sink"]);
        // The sink is a leaf.
        let cone = graph.dependents_closure(["cpu:sink".to_string()]);
        assert_eq!(keys(&cone), ["cpu:sink"]);
        // Unknown seeds are ignored.
        assert!(graph
            .dependents_closure(["bus:ghost".to_string()])
            .is_empty());
    }

    #[test]
    fn resource_graph_isolates_independent_islands() {
        let spec = SystemSpec::new()
            .cpu("a")
            .cpu("b")
            .bus("can0", CanBusConfig::new(Time::new(1)))
            .bus("can1", CanBusConfig::new(Time::new(1)))
            .frame(frame("F0", "can0", 1, vec![("s", periodic(100))]))
            .frame(frame("F1", "can1", 1, vec![("s", periodic(100))]))
            .task(task("t0", "a", signal("F0", "s")))
            .task(task("t1", "b", signal("F1", "s")));
        let graph = ResourceGraph::of(&spec);
        let cone = graph.dependents_closure(["bus:can0".to_string()]);
        assert_eq!(keys(&cone), ["bus:can0", "cpu:a"]);
    }

    #[test]
    fn resource_graph_closes_over_cycles() {
        // The mutually-dependent-buses topology: the cone from either
        // bus covers the whole strongly connected component.
        let spec = SystemSpec::new()
            .cpu("gw")
            .bus("b0", CanBusConfig::new(Time::new(1)))
            .bus("b1", CanBusConfig::new(Time::new(1)))
            .frame(frame(
                "F0",
                "b0",
                1,
                vec![("x", ActivationSpec::TaskOutput("t1".into()))],
            ))
            .frame(frame(
                "F1",
                "b1",
                1,
                vec![("y", ActivationSpec::TaskOutput("t0".into()))],
            ))
            .task(task("t0", "gw", signal("F0", "x")))
            .task(task("t1", "gw", signal("F1", "y")));
        let graph = ResourceGraph::of(&spec);
        let cone = graph.dependents_closure(["bus:b0".to_string()]);
        assert_eq!(keys(&cone), ["bus:b0", "bus:b1", "cpu:gw"]);
    }

    #[test]
    fn empty_and_cpu_only_systems() {
        let empty = PropagationLevels::of(&SystemSpec::new());
        assert!(empty.levels.is_empty());
        assert!(!empty.has_cycles());

        let cpu_only = PropagationLevels::of(&SystemSpec::new().cpu("a").task(task(
            "t",
            "a",
            periodic(10),
        )));
        assert_eq!(cpu_only.levels.len(), 1);
        assert_eq!(cpu_only.levels[0].cpus, ["a"]);
        assert!(cpu_only.levels[0].buses.is_empty());
        assert!(!cpu_only.levels[0].is_empty());
    }
}
