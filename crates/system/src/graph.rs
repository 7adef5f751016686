//! The spec's topology: names, hosting, wiring and resource edges.
//!
//! Everything the engine derives from a [`SystemSpec`]'s names, hosting
//! and wiring lives in one [`Topology`], derived in one pass per wiring
//! and carried along by warm starts: the entity index, the compiled
//! activation wiring the resolver follows, the sorted keys every
//! name-keyed output is built from, the resource dependency edges the
//! damage cones close over, and the readers of every task's output,
//! which seed the cone of what one global iteration can change in the
//! next.
//!
//! Resolution order needs no graph: within one global iteration, task
//! outputs are derived from *previous-iteration* response times, so the
//! only same-iteration dependencies flow into bus analyses — packing a
//! frame resolves its signal sources, which may unpack another frame —
//! and the engine's lazy resolver follows exactly those, cycle detection
//! included.

use std::collections::HashMap;

use crate::spec::{ActivationSpec, SystemSpec};

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

/// A task or frame by spec position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Entity {
    Frame(usize),
    Task(usize),
}

/// Everything the engine derives from a spec's names, hosting and
/// wiring — but not from its values (execution times, priorities,
/// payloads, bus timing, external models) — in one pass over
/// name → position maps: the entity index, the resource dependency
/// edges and the sorted prefixed keys every name-keyed output is built
/// from.
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
    /// Direct dependents of every resource, deduplicated: a consumer of
    /// a frame's signal or arrivals depends on the frame's bus (within
    /// one iteration), a consumer of a task's output on the task's CPU
    /// (one iteration later).
    dependents: Vec<Vec<usize>>,
    /// The resources that read `spec.tasks[i]`'s output, in resource
    /// order: the only state an iteration reads from the previous one.
    task_readers: Vec<Vec<usize>>,
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

/// Pushes the resources a source reads directly (no recursion through
/// producers: their own inputs are their resources' edges), and the
/// tasks whose outputs it reads.
fn direct_deps(topology: &Topology, wire: &Wire, deps: &mut Vec<usize>, tasks: &mut Vec<usize>) {
    match wire {
        Wire::External | Wire::Dangling => {}
        &Wire::TaskOutput(i) => {
            tasks.push(i);
            if let Some(c) = topology.task_cpu[i] {
                deps.push(topology.buses.len() + c);
            }
        }
        &Wire::Signal { frame: j, .. } | &Wire::FrameArrivals(j) => {
            if let Some(b) = topology.frame_bus[j] {
                deps.push(b);
            }
        }
        Wire::AnyOf(wires) | Wire::AllOf(wires) => {
            for w in wires {
                direct_deps(topology, w, deps, tasks);
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
            dependents: Vec::new(),
            task_readers: Vec::new(),
            resource_keys,
            resource_order,
            entities,
            entity_keys,
        };
        topology.link();
        topology
    }

    /// Derives the direct dependents of every resource — a `TaskOutput`
    /// consumer depends on the producer's CPU, a `Signal` /
    /// `FrameArrivals` consumer on the transporting frame's bus — and
    /// the readers of every task's output.
    fn link(&mut self) {
        let n_buses = self.buses.len();
        let mut dependents = vec![Vec::new(); self.resource_count()];
        let mut task_readers = vec![Vec::new(); self.tasks.len()];
        let (mut deps, mut tasks) = (Vec::new(), Vec::new());
        for r in 0..self.resource_count() {
            deps.clear();
            tasks.clear();
            if r < n_buses {
                for &j in &self.bus_frames[r] {
                    for wire in self.frame_signal_wires(j) {
                        direct_deps(self, wire, &mut deps, &mut tasks);
                    }
                }
            } else {
                for &i in &self.cpu_tasks[r - n_buses] {
                    direct_deps(self, &self.task_wires[i], &mut deps, &mut tasks);
                }
            }
            for list in [&mut deps, &mut tasks] {
                list.sort_unstable();
                list.dedup();
            }
            for &d in &deps {
                dependents[d].push(r);
            }
            for &i in &tasks {
                task_readers[i].push(r);
            }
        }
        self.dependents = dependents;
        self.task_readers = task_readers;
    }

    /// The resources that read `spec.tasks[i]`'s output.
    pub(crate) fn task_readers(&self, i: usize) -> &[usize] {
        &self.task_readers[i]
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
    ///
    /// The closure follows task-output edges too, although a consumer
    /// reads its producer's *previous-iteration* response time: if a
    /// producer's results change, every consumer's trajectory changes
    /// one iteration later (see `docs/INCREMENTAL.md`).
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

    /// The damage cone of the resources keyed `seeds`, as sorted keys.
    fn cone<'t>(topology: &'t Topology, seeds: &[&str]) -> Vec<&'t str> {
        let seeds = seeds.iter().map(|key| {
            (0..topology.resource_count())
                .find(|&r| topology.resource_key(r) == *key)
                .expect("a resource key")
        });
        let cone = topology.dependents_closure(seeds);
        topology
            .resource_keys()
            .zip(topology.sorted_resources())
            .filter(|&(_, r)| cone[r])
            .map(|(key, _)| key)
            .collect()
    }

    #[test]
    fn resource_graph_includes_cross_iteration_edges() {
        // src → F0 on can0 → relay on gw → F1 on can1 → rx on sink.
        // No edge gw → can1 orders one iteration, but the damage cone
        // must carry a gw mutation into can1.
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
        let topology = Topology::of(&spec);
        assert_eq!(topology.resource_count(), 4);
        assert_eq!(
            topology.resource_keys().collect::<Vec<_>>(),
            ["bus:can0", "bus:can1", "cpu:gw", "cpu:sink"]
        );
        // A mutation on can0 dirties everything downstream.
        assert_eq!(
            cone(&topology, &["bus:can0"]),
            ["bus:can0", "bus:can1", "cpu:gw", "cpu:sink"]
        );
        // A mutation on the gateway CPU reaches can1 and sink, not can0.
        assert_eq!(
            cone(&topology, &["cpu:gw"]),
            ["bus:can1", "cpu:gw", "cpu:sink"]
        );
        // The sink is a leaf.
        assert_eq!(cone(&topology, &["cpu:sink"]), ["cpu:sink"]);
        // No seeds, no cone.
        assert!(cone(&topology, &[]).is_empty());
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
        let topology = Topology::of(&spec);
        assert_eq!(cone(&topology, &["bus:can0"]), ["bus:can0", "cpu:a"]);
    }

    #[test]
    fn resource_graph_closes_over_cycles() {
        // Two buses feeding each other through gateway tasks: the cone
        // from either bus covers the whole strongly connected component.
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
        let topology = Topology::of(&spec);
        assert_eq!(cone(&topology, &["bus:b0"]), ["bus:b0", "bus:b1", "cpu:gw"]);
    }
}
