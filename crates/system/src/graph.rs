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
//! [`SystemError::DependencyCycle`]: crate::SystemError::DependencyCycle

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::spec::{ActivationSpec, FrameSpec, SystemSpec, TaskSpec};

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

/// The topologically leveled propagation graph of a system.
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

/// Shared lookup tables during graph construction.
struct Ctx<'a> {
    tasks: HashMap<&'a str, &'a TaskSpec>,
    frames: HashMap<&'a str, &'a FrameSpec>,
}

impl<'a> Ctx<'a> {
    /// Adds every bus the given activation source depends on — within
    /// the same global iteration — to `out`.
    ///
    /// `TaskOutput` recurses into the producing task's own activation
    /// (its output *model* is previous-iteration data, but building it
    /// still resolves the activation chain); `Signal`/`FrameArrivals`
    /// add the transporting frame's bus and recurse into the frame's
    /// packing (its signal sources are resolved when the frame is
    /// packed). Dangling references are ignored here — `validate`
    /// rejects them before the graph is ever built.
    fn source_deps(
        &self,
        source: &'a ActivationSpec,
        seen_tasks: &mut HashSet<&'a str>,
        seen_frames: &mut HashSet<&'a str>,
        out: &mut BTreeSet<&'a str>,
    ) {
        match source {
            ActivationSpec::External(_) => {}
            ActivationSpec::TaskOutput(task) => {
                if let Some(t) = self.tasks.get(task.as_str()) {
                    if seen_tasks.insert(task.as_str()) {
                        self.source_deps(&t.activation, seen_tasks, seen_frames, out);
                    }
                }
            }
            ActivationSpec::Signal { frame, .. } | ActivationSpec::FrameArrivals(frame) => {
                if let Some(f) = self.frames.get(frame.as_str()) {
                    out.insert(f.bus.as_str());
                    self.frame_deps(f, seen_tasks, seen_frames, out);
                }
            }
            ActivationSpec::AnyOf(sources) | ActivationSpec::AllOf(sources) => {
                for s in sources {
                    self.source_deps(s, seen_tasks, seen_frames, out);
                }
            }
        }
    }

    /// Adds the buses packing `frame` depends on to `out`.
    fn frame_deps(
        &self,
        frame: &'a FrameSpec,
        seen_tasks: &mut HashSet<&'a str>,
        seen_frames: &mut HashSet<&'a str>,
        out: &mut BTreeSet<&'a str>,
    ) {
        if !seen_frames.insert(frame.name.as_str()) {
            return;
        }
        for s in &frame.signals {
            self.source_deps(&s.source, seen_tasks, seen_frames, out);
        }
    }
}

impl PropagationLevels {
    /// Derives and levels the propagation graph of `spec`.
    ///
    /// Expects a spec that passes the engine's validation; dangling
    /// references are ignored rather than reported (validation owns
    /// that diagnosis).
    #[must_use]
    pub fn of(spec: &SystemSpec) -> Self {
        let ctx = Ctx {
            tasks: spec.tasks.iter().map(|t| (t.name.as_str(), t)).collect(),
            frames: spec.frames.iter().map(|f| (f.name.as_str(), f)).collect(),
        };

        // Same-iteration bus dependencies of every resource.
        let bus_deps: Vec<(&str, BTreeSet<&str>)> = spec
            .buses
            .iter()
            .map(|b| {
                let mut out = BTreeSet::new();
                let (mut st, mut sf) = (HashSet::new(), HashSet::new());
                for f in spec.frames.iter().filter(|f| f.bus == b.name) {
                    ctx.frame_deps(f, &mut st, &mut sf, &mut out);
                }
                (b.name.as_str(), out)
            })
            .collect();
        let cpu_deps: Vec<(&str, BTreeSet<&str>)> = spec
            .cpus
            .iter()
            .map(|c| {
                let mut out = BTreeSet::new();
                let (mut st, mut sf) = (HashSet::new(), HashSet::new());
                for t in spec.tasks.iter().filter(|t| t.cpu == c.name) {
                    ctx.source_deps(&t.activation, &mut st, &mut sf, &mut out);
                }
                (c.name.as_str(), out)
            })
            .collect();

        // Longest-path leveling of the bus subgraph (Kahn-style:
        // repeatedly place every bus whose dependencies are all placed).
        // Leftovers are cycle participants or downstream of one.
        let mut bus_level: HashMap<&str, usize> = HashMap::new();
        loop {
            let mut progressed = false;
            for (bus, deps) in &bus_deps {
                if bus_level.contains_key(bus) || deps.contains(bus) {
                    continue;
                }
                if let Some(level) = deps
                    .iter()
                    .try_fold(0usize, |acc, d| Some(acc.max(bus_level.get(d)? + 1)))
                {
                    bus_level.insert(bus, level);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        let cyclic_buses: Vec<String> = bus_deps
            .iter()
            .filter(|(b, _)| !bus_level.contains_key(b))
            .map(|(b, _)| (*b).to_string())
            .collect();

        // A CPU sits one level after the last bus it reads from; CPUs
        // reading from a cyclic bus join the sequential fallback.
        let mut cpu_level: Vec<(&str, Option<usize>)> = Vec::with_capacity(cpu_deps.len());
        for (cpu, deps) in &cpu_deps {
            let level = deps
                .iter()
                .try_fold(0usize, |acc, d| Some(acc.max(bus_level.get(d)? + 1)));
            cpu_level.push((cpu, level));
        }
        let cyclic_cpus: Vec<String> = cpu_level
            .iter()
            .filter(|(_, l)| l.is_none())
            .map(|(c, _)| (*c).to_string())
            .collect();

        let depth = bus_level
            .values()
            .copied()
            .chain(cpu_level.iter().filter_map(|(_, l)| *l))
            .max()
            .map_or(0, |m| m + 1);
        let mut levels = vec![Level::default(); depth];
        for (bus, _) in &bus_deps {
            if let Some(&l) = bus_level.get(bus) {
                levels[l].buses.push((*bus).to_string());
            }
        }
        for (cpu, level) in &cpu_level {
            if let Some(l) = level {
                levels[*l].cpus.push((*cpu).to_string());
            }
        }
        PropagationLevels {
            levels,
            cyclic_buses,
            cyclic_cpus,
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
/// computation (see `docs/INCREMENTAL.md`).
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
    /// Direct dependencies of every resource, keyed by prefixed name.
    deps: std::collections::BTreeMap<String, BTreeSet<String>>,
}

impl ResourceGraph {
    /// Derives the resource dependency graph of `spec`.
    ///
    /// Like [`PropagationLevels::of`], expects a spec that passes the
    /// engine's validation; dangling references are ignored.
    #[must_use]
    pub fn of(spec: &SystemSpec) -> Self {
        let tasks: HashMap<&str, &TaskSpec> =
            spec.tasks.iter().map(|t| (t.name.as_str(), t)).collect();
        let frames: HashMap<&str, &FrameSpec> =
            spec.frames.iter().map(|f| (f.name.as_str(), f)).collect();
        // Direct edges only: a `TaskOutput` consumer depends on the
        // producer's CPU, a `Signal`/`FrameArrivals` consumer on the
        // transporting frame's bus. The producer's own inputs are that
        // resource's edges; `dependents_closure` chains them.
        fn source_deps(
            source: &ActivationSpec,
            tasks: &HashMap<&str, &TaskSpec>,
            frames: &HashMap<&str, &FrameSpec>,
            out: &mut BTreeSet<String>,
        ) {
            match source {
                ActivationSpec::External(_) => {}
                ActivationSpec::TaskOutput(task) => {
                    if let Some(t) = tasks.get(task.as_str()) {
                        out.insert(format!("cpu:{}", t.cpu));
                    }
                }
                ActivationSpec::Signal { frame, .. } | ActivationSpec::FrameArrivals(frame) => {
                    if let Some(f) = frames.get(frame.as_str()) {
                        out.insert(format!("bus:{}", f.bus));
                    }
                }
                ActivationSpec::AnyOf(sources) | ActivationSpec::AllOf(sources) => {
                    for s in sources {
                        source_deps(s, tasks, frames, out);
                    }
                }
            }
        }
        let mut deps = std::collections::BTreeMap::new();
        for b in &spec.buses {
            let mut out = BTreeSet::new();
            for f in spec.frames.iter().filter(|f| f.bus == b.name) {
                for s in &f.signals {
                    source_deps(&s.source, &tasks, &frames, &mut out);
                }
            }
            deps.insert(format!("bus:{}", b.name), out);
        }
        for c in &spec.cpus {
            let mut out = BTreeSet::new();
            for t in spec.tasks.iter().filter(|t| t.cpu == c.name) {
                source_deps(&t.activation, &tasks, &frames, &mut out);
            }
            deps.insert(format!("cpu:{}", c.name), out);
        }
        ResourceGraph { deps }
    }

    /// Every resource of the graph, as prefixed keys in sorted order.
    pub fn resources(&self) -> impl Iterator<Item = &str> {
        self.deps.keys().map(String::as_str)
    }

    /// Number of resources.
    #[must_use]
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Whether the graph holds no resources.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// The *damage cone* of a set of directly mutated resources: every
    /// resource whose analysis trajectory can be affected by the
    /// mutation — the seeds plus all transitive dependents, following
    /// edges forward through both same- and cross-iteration
    /// dependencies. Seeds that are not resources of this graph are
    /// ignored.
    #[must_use]
    pub fn dependents_closure(&self, seeds: impl IntoIterator<Item = String>) -> BTreeSet<String> {
        let mut dependents: HashMap<&str, Vec<&str>> = HashMap::new();
        for (resource, deps) in &self.deps {
            for dep in deps {
                dependents.entry(dep).or_default().push(resource);
            }
        }
        let mut cone: BTreeSet<String> = seeds
            .into_iter()
            .filter(|s| self.deps.contains_key(s))
            .collect();
        let mut frontier: Vec<String> = cone.iter().cloned().collect();
        while let Some(resource) = frontier.pop() {
            for &dependent in dependents.get(resource.as_str()).into_iter().flatten() {
                if cone.insert(dependent.to_string()) {
                    frontier.push(dependent.to_string());
                }
            }
        }
        cone
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SignalSpec, TaskSpec};
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
