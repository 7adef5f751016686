//! End-to-end network simulation: sources → COM → buses → CPUs, with
//! gateway tasks coupling the hops.
//!
//! This is the simulator's one end-to-end harness. The paper's
//! evaluation system is its simplest network: one CAN bus and one
//! receiver CPU. Real integrations chain hops, where a gateway task
//! re-publishes a signal received on one bus onto another. Resources
//! are simulated in dependency *waves*: a bus once the write traces of
//! all its frames' signals are known (external traces or completions of
//! already simulated tasks); a CPU once all its tasks' activations are
//! known. Dangling references are rejected before the first wave,
//! cyclic dependencies when a wave makes no progress.

use std::collections::BTreeMap;

use hem_analysis::Priority;
use hem_autosar_com::{FrameType, TransferProperty};
use hem_obs::{Counter, RecorderHandle, TraceEvent};
use hem_time::Time;

use crate::canbus::{self, QueuedFrame};
use crate::com::{self, ComSignal};
use crate::cpu::{self, SimTask};
use crate::error::SimError;
use crate::fault::FaultPlan;

/// Where a signal's write events come from.
#[derive(Debug, Clone)]
pub enum NetSource {
    /// An external, pre-computed write trace.
    Trace(Vec<Time>),
    /// Each completion of the named task writes the signal (gateway
    /// forwarding).
    TaskCompletions(String),
}

/// A signal carried by a network frame.
#[derive(Debug, Clone)]
pub struct NetSignal {
    /// Signal name (unique within its frame).
    pub name: String,
    /// COM transfer property.
    pub transfer: TransferProperty,
    /// Write-event source.
    pub source: NetSource,
}

/// A frame on one of the network's buses.
#[derive(Debug, Clone)]
pub struct NetFrame {
    /// Frame name (globally unique).
    pub name: String,
    /// Hosting bus.
    pub bus: String,
    /// Arbitration priority (unique per bus).
    pub priority: Priority,
    /// Wire time of one instance.
    pub transmission_time: Time,
    /// COM transmission rule.
    pub frame_type: FrameType,
    /// Packed signals.
    pub signals: Vec<NetSignal>,
}

/// What activates a network task.
#[derive(Debug, Clone)]
pub enum NetActivation {
    /// A fixed activation trace.
    Trace(Vec<Time>),
    /// One activation per delivery of a frame's signal (interrupt
    /// reception with update bits).
    Delivery {
        /// Transporting frame.
        frame: String,
        /// Signal within the frame.
        signal: String,
    },
    /// One activation per transmission of the frame, fresh or not
    /// (interrupt reception *without* update bits — the flat baseline's
    /// behaviour).
    FrameTransmissions(String),
    /// One activation per completion of another task (a CPU-to-CPU
    /// chain). The producing task must live on a *different* CPU —
    /// same-CPU chains make the CPU depend on itself and are rejected as
    /// a dependency cycle.
    TaskCompletions(String),
}

/// A task on one of the network's CPUs.
#[derive(Debug, Clone)]
pub struct NetTask {
    /// Task name (globally unique).
    pub name: String,
    /// Hosting CPU.
    pub cpu: String,
    /// SPP priority on that CPU.
    pub priority: Priority,
    /// Execution time per job.
    pub execution_time: Time,
    /// Activation source.
    pub activation: NetActivation,
}

/// A feed-forward network of buses and CPUs.
#[derive(Debug, Clone, Default)]
pub struct NetSystem {
    /// All frames, across all buses.
    pub frames: Vec<NetFrame>,
    /// All tasks, across all CPUs.
    pub tasks: Vec<NetTask>,
}

/// Observations from a network run.
#[derive(Debug, Clone, Default)]
pub struct NetReport {
    /// Per-frame worst observed response.
    pub frame_worst_response: BTreeMap<String, Time>,
    /// Per-frame transmission completion times.
    pub frame_transmissions: BTreeMap<String, Vec<Time>>,
    /// Per-task worst observed response.
    pub task_worst_response: BTreeMap<String, Time>,
    /// Per-task worst observed *end-to-end* latency: from the write of
    /// the delivered value to the completion of the job it activated.
    /// Present for delivery-activated tasks that ran; a gateway-fed
    /// value is written when the gateway task completes.
    pub task_worst_latency: BTreeMap<String, Time>,
    /// Per-`"frame/signal"` delivery times.
    pub deliveries: BTreeMap<String, Vec<Time>>,
    /// Per-task completion times (what forwarding writes downstream).
    pub task_completions: BTreeMap<String, Vec<Time>>,
    /// Per-`"frame/signal"` values lost to register overwrite.
    pub overwritten: BTreeMap<String, u64>,
}

/// Runs the network over the given horizon.
///
/// All external writes and activations beyond `horizon` are cut off;
/// jobs still in flight at the end complete normally (their responses
/// are included).
///
/// # Panics
///
/// Panics on malformed input: unknown references, duplicate priorities
/// on one bus, unsorted traces, or a cyclic dependency between resources
/// (a gateway loop without an external source). [`try_run`] reports the
/// same conditions as a [`SimError`] instead.
#[must_use]
pub fn run(system: &NetSystem, horizon: Time) -> NetReport {
    run_with_faults(system, horizon, &FaultPlan::none())
}

/// Non-panicking [`run`].
///
/// # Errors
///
/// Returns a [`SimError`] on malformed input: unknown references,
/// duplicate priorities on one bus, unsorted traces, non-positive
/// times, or a cyclic dependency between resources.
pub fn try_run(system: &NetSystem, horizon: Time) -> Result<NetReport, SimError> {
    try_run_with_faults(system, horizon, &FaultPlan::none())
}

/// Like [`run`], but injecting the faults of `plan` (see
/// [`crate::fault`]): external write and activation traces are perturbed
/// by jitter/drift, frame transmissions suffer corruption overhead, and
/// babbling-idiot frames flood the targeted buses. Internally produced
/// events (deliveries, completions) shift only as a consequence of the
/// upstream faults. With [`FaultPlan::none`] this is exactly [`run`].
///
/// # Panics
///
/// Same conditions as [`run`], plus a rogue overload frame colliding
/// with a real frame's priority on its bus.
#[must_use]
pub fn run_with_faults(system: &NetSystem, horizon: Time, plan: &FaultPlan) -> NetReport {
    try_run_with_faults(system, horizon, plan).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking [`run_with_faults`].
///
/// # Errors
///
/// Same conditions as [`try_run`], plus a rogue overload frame
/// colliding with a real frame's priority on its bus.
pub fn try_run_with_faults(
    system: &NetSystem,
    horizon: Time,
    plan: &FaultPlan,
) -> Result<NetReport, SimError> {
    try_run_recorded(system, horizon, plan, &RecorderHandle::noop())
}

/// Like [`try_run_with_faults`], additionally emitting observability
/// signals to `recorder`: a Chrome trace event per frame transmission
/// (its bus's lane), per job (its CPU's lane) and per fired fault (the
/// fault lane), plus [`Counter::SimEvents`] / [`Counter::FaultInjections`]
/// totals. Lanes (`tid`s) count from 1: buses in first-appearance
/// order, then CPUs likewise, then `faults`; each is named after its
/// resource. With a disabled recorder this is exactly
/// [`try_run_with_faults`].
///
/// # Errors
///
/// Same conditions as [`try_run_with_faults`].
pub fn try_run_recorded(
    system: &NetSystem,
    horizon: Time,
    plan: &FaultPlan,
    recorder: &RecorderHandle,
) -> Result<NetReport, SimError> {
    check_references(system)?;
    let buses: Vec<String> = unique(system.frames.iter().map(|f| f.bus.clone()));
    let cpus: Vec<String> = unique(system.tasks.iter().map(|t| t.cpu.clone()));
    let lanes: Vec<&str> = buses
        .iter()
        .chain(&cpus)
        .map(String::as_str)
        .chain(["faults"])
        .collect();
    let mut sim = Simulation {
        horizon,
        plan,
        recorder,
        fault_lane: lane(lanes.len() - 1),
        report: NetReport::default(),
        delivery_writes: BTreeMap::new(),
    };
    if recorder.enabled() {
        for (i, name) in lanes.iter().enumerate() {
            recorder.emit(TraceEvent::thread_name(lane(i), *name));
        }
    }

    let mut done_buses: Vec<String> = Vec::new();
    let mut done_cpus: Vec<String> = Vec::new();
    while done_buses.len() < buses.len() || done_cpus.len() < cpus.len() {
        let mut progressed = false;

        // Buses whose every signal source is available.
        for (i, bus) in buses.iter().enumerate() {
            if done_buses.contains(bus) {
                continue;
            }
            let frames: Vec<&NetFrame> = system.frames.iter().filter(|f| &f.bus == bus).collect();
            let ready = frames.iter().all(|f| {
                f.signals.iter().all(|s| match &s.source {
                    NetSource::Trace(_) => true,
                    NetSource::TaskCompletions(t) => sim.report.task_completions.contains_key(t),
                })
            });
            if !ready {
                continue;
            }
            sim.simulate_bus(lane(i), bus, &frames)?;
            done_buses.push(bus.clone());
            progressed = true;
        }

        // CPUs whose every activation is available.
        for (j, cpu_name) in cpus.iter().enumerate() {
            if done_cpus.contains(cpu_name) {
                continue;
            }
            let tasks: Vec<&NetTask> = system.tasks.iter().filter(|t| &t.cpu == cpu_name).collect();
            let report = &sim.report;
            let ready = tasks.iter().all(|t| match &t.activation {
                NetActivation::Trace(_) => true,
                NetActivation::Delivery { frame, signal } => {
                    report.deliveries.contains_key(&format!("{frame}/{signal}"))
                }
                NetActivation::FrameTransmissions(frame) => {
                    report.frame_transmissions.contains_key(frame)
                }
                NetActivation::TaskCompletions(task) => report.task_completions.contains_key(task),
            });
            if !ready {
                continue;
            }
            sim.simulate_cpu(lane(buses.len() + j), &tasks)?;
            done_cpus.push(cpu_name.clone());
            progressed = true;
        }

        if !progressed {
            return Err(SimError::DependencyCycle {
                remaining: format!(
                    "remaining buses {:?}, cpus {:?}",
                    buses
                        .iter()
                        .filter(|b| !done_buses.contains(b))
                        .collect::<Vec<_>>(),
                    cpus.iter()
                        .filter(|c| !done_cpus.contains(c))
                        .collect::<Vec<_>>(),
                ),
            });
        }
    }
    Ok(sim.report)
}

/// Rejects references to frames, signals or tasks the system does not
/// contain; without this a dangling reference would leave its resource
/// unready and surface as a bogus dependency cycle.
fn check_references(system: &NetSystem) -> Result<(), SimError> {
    let frame = |name: &str| system.frames.iter().find(|f| f.name == name);
    let task_exists = |name: &str| system.tasks.iter().any(|t| t.name == name);
    let completion_source = |task: &str| {
        if task_exists(task) {
            Ok(())
        } else {
            Err(SimError::unknown(format!("completion source `{task}`")))
        }
    };
    for f in &system.frames {
        for s in &f.signals {
            if let NetSource::TaskCompletions(task) = &s.source {
                completion_source(task)?;
            }
        }
    }
    for t in &system.tasks {
        match &t.activation {
            NetActivation::Trace(_) => {}
            NetActivation::Delivery { frame: f, signal } => {
                if !frame(f).is_some_and(|known| known.signals.iter().any(|s| &s.name == signal)) {
                    return Err(SimError::unknown(format!("delivery source `{f}/{signal}`")));
                }
            }
            NetActivation::FrameTransmissions(f) => {
                if frame(f).is_none() {
                    return Err(SimError::unknown(format!("transmission source `{f}`")));
                }
            }
            NetActivation::TaskCompletions(task) => completion_source(task)?,
        }
    }
    Ok(())
}

fn unique(items: impl Iterator<Item = String>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for i in items {
        if !out.contains(&i) {
            out.push(i);
        }
    }
    out
}

/// The trace lane (`tid`) of the `index`-th resource.
fn lane(index: usize) -> u32 {
    u32::try_from(index + 1).unwrap_or(u32::MAX)
}

/// One simulated tick as a trace timestamp. The simulator maps one
/// virtual tick to one microsecond, so exported traces are deterministic
/// (no wall clock involved).
fn tick_us(t: Time) -> u64 {
    u64::try_from(t.ticks()).unwrap_or(0)
}

/// The state of one run: its inputs and the observations the waves
/// append to.
struct Simulation<'a> {
    horizon: Time,
    plan: &'a FaultPlan,
    recorder: &'a RecorderHandle,
    fault_lane: u32,
    report: NetReport,
    /// Per-`"frame/signal"`: for each delivery, when the delivered value
    /// was written (aligned with [`NetReport::deliveries`]).
    delivery_writes: BTreeMap<String, Vec<Time>>,
}

impl Simulation<'_> {
    /// Applies the plan's jitter/drift to the external trace `key`,
    /// marking each moved event on the fault lane as `"{what} {key}"`
    /// with its unperturbed time under `arg`.
    fn perturb(&self, what: &str, key: &str, trace: &[Time], arg: &'static str) -> Vec<Time> {
        let perturbed = self.plan.perturb_trace(key, trace);
        if self.recorder.enabled() {
            for (orig, new) in trace.iter().zip(&perturbed) {
                if orig != new {
                    self.recorder.add(Counter::FaultInjections, 1);
                    self.recorder.emit(
                        TraceEvent::instant(
                            format!("{what} {key}"),
                            "fault",
                            tick_us(*new),
                            self.fault_lane,
                        )
                        .arg(arg, tick_us(*orig)),
                    );
                }
            }
        }
        perturbed
    }

    fn simulate_bus(&mut self, tid: u32, bus: &str, frames: &[&NetFrame]) -> Result<(), SimError> {
        let mut com_traces: Vec<com::ComTrace> = Vec::with_capacity(frames.len());
        for f in frames {
            let mut com_signals: Vec<ComSignal> = Vec::with_capacity(f.signals.len());
            for s in &f.signals {
                let writes = match &s.source {
                    // Only external traces see injected jitter/drift;
                    // gateway completions already carry upstream faults.
                    NetSource::Trace(t) => {
                        let key = format!("{}/{}", f.name, s.name);
                        self.perturb("perturbed write", &key, t, "written_at")
                    }
                    NetSource::TaskCompletions(task) => self.report.task_completions[task]
                        .iter()
                        .copied()
                        .filter(|&t| t < self.horizon)
                        .collect(),
                };
                com_signals.push(ComSignal {
                    name: s.name.clone(),
                    transfer: s.transfer,
                    writes,
                });
            }
            com_traces.push(com::try_simulate(f.frame_type, &com_signals, self.horizon)?);
        }
        // Real frames first, rogue overload frames appended, so `tx.frame`
        // below `frames.len()` keeps indexing the real frames.
        let mut queued: Vec<QueuedFrame> = frames
            .iter()
            .zip(&com_traces)
            .map(|(f, trace)| QueuedFrame {
                name: f.name.clone(),
                priority: f.priority,
                transmission_time: f.transmission_time,
                queued_at: trace.instances.iter().map(|i| i.queued_at).collect(),
            })
            .collect();
        queued.extend(self.plan.overload_frames(bus, self.horizon));
        let wire: Vec<Vec<Time>> = queued
            .iter()
            .enumerate()
            .map(|(i, q)| {
                if i < frames.len() {
                    self.plan
                        .wire_times(&q.name, q.transmission_time, q.queued_at.len())
                } else {
                    vec![q.transmission_time; q.queued_at.len()]
                }
            })
            .collect();
        let obs = &mut self.report;
        for (fi, f) in frames.iter().enumerate() {
            for (si, s) in f.signals.iter().enumerate() {
                let key = format!("{}/{}", f.name, s.name);
                obs.overwritten
                    .insert(key.clone(), com_traces[fi].overwritten[si]);
                obs.deliveries.insert(key.clone(), Vec::new());
                self.delivery_writes.insert(key, Vec::new());
            }
            obs.frame_worst_response.insert(f.name.clone(), Time::ZERO);
            obs.frame_transmissions.insert(f.name.clone(), Vec::new());
        }
        let recording = self.recorder.enabled();
        for tx in canbus::try_simulate_with_times(&queued, |f, i| wire[f][i])? {
            let dur = tick_us(tx.completed_at) - tick_us(tx.started_at);
            if tx.frame >= frames.len() {
                // A rogue (babbling-idiot) overload frame won
                // arbitration: interference only.
                if recording {
                    self.recorder.add(Counter::FaultInjections, 1);
                    self.recorder.emit(
                        TraceEvent::complete(
                            format!("rogue {}", queued[tx.frame].name),
                            "fault",
                            tick_us(tx.started_at),
                            dur,
                            self.fault_lane,
                        )
                        .arg("instance", tx.instance as u64),
                    );
                }
                continue;
            }
            let f = frames[tx.frame];
            if recording {
                self.recorder.add(Counter::SimEvents, 1);
                let mut event =
                    TraceEvent::complete(f.name.clone(), "bus", tick_us(tx.started_at), dur, tid)
                        .arg("instance", tx.instance as u64)
                        .arg("queued_at", tick_us(tx.queued_at));
                // Corruption retransmissions show as inflated wire time.
                if wire[tx.frame][tx.instance] != f.transmission_time {
                    self.recorder.add(Counter::FaultInjections, 1);
                    event = event.arg("corrupted", 1u64);
                }
                self.recorder.emit(event);
            }
            let worst = obs.frame_worst_response.get_mut(&f.name).expect("inserted");
            *worst = (*worst).max(tx.response());
            obs.frame_transmissions
                .get_mut(&f.name)
                .expect("inserted")
                .push(tx.completed_at);
            for &(si, written_at) in &com_traces[tx.frame].instances[tx.instance].fresh {
                let key = format!("{}/{}", f.name, f.signals[si].name);
                obs.deliveries
                    .get_mut(&key)
                    .expect("inserted")
                    .push(tx.completed_at);
                self.delivery_writes
                    .get_mut(&key)
                    .expect("inserted")
                    .push(written_at);
            }
        }
        Ok(())
    }

    fn simulate_cpu(&mut self, tid: u32, tasks: &[&NetTask]) -> Result<(), SimError> {
        let sim_tasks: Vec<SimTask> = tasks
            .iter()
            .map(|t| SimTask {
                name: t.name.clone(),
                priority: t.priority,
                execution_time: t.execution_time,
                activations: match &t.activation {
                    NetActivation::Trace(trace) => {
                        let key = format!("task:{}", t.name);
                        self.perturb("perturbed activation", &key, trace, "activated_at")
                            .into_iter()
                            .filter(|&a| a < self.horizon)
                            .collect()
                    }
                    NetActivation::Delivery { frame, signal } => {
                        self.report.deliveries[&format!("{frame}/{signal}")].clone()
                    }
                    NetActivation::FrameTransmissions(frame) => {
                        self.report.frame_transmissions[frame].clone()
                    }
                    NetActivation::TaskCompletions(task) => {
                        self.report.task_completions[task].clone()
                    }
                },
            })
            .collect();
        let jobs = cpu::try_simulate(&sim_tasks)?;
        let recording = self.recorder.enabled();
        let obs = &mut self.report;
        let worst = cpu::worst_responses(&sim_tasks, &jobs);
        for (t, w) in tasks.iter().zip(worst) {
            obs.task_worst_response.insert(t.name.clone(), w);
            obs.task_completions.insert(t.name.clone(), Vec::new());
        }
        // `cpu::try_simulate` returns jobs in completion order, so each
        // task's completion list comes out sorted, as downstream COM
        // input requires.
        for job in &jobs {
            let t = tasks[job.task];
            if recording {
                self.recorder.add(Counter::SimEvents, 1);
                self.recorder.emit(
                    TraceEvent::complete(
                        t.name.clone(),
                        "cpu",
                        tick_us(job.activated_at),
                        tick_us(job.completed_at) - tick_us(job.activated_at),
                        tid,
                    )
                    .arg("instance", job.instance as u64),
                );
            }
            obs.task_completions
                .get_mut(&t.name)
                .expect("inserted")
                .push(job.completed_at);
            // The i-th activation of a delivery-activated task is the
            // i-th delivery of its signal.
            if let NetActivation::Delivery { frame, signal } = &t.activation {
                let written = self.delivery_writes[&format!("{frame}/{signal}")][job.instance];
                let latency = job.completed_at - written;
                let entry = obs
                    .task_worst_latency
                    .entry(t.name.clone())
                    .or_insert(Time::ZERO);
                *entry = (*entry).max(latency);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultTarget};
    use crate::trace;
    use hem_obs::MemoryRecorder;

    /// The paper's single-bus shape in miniature: one frame on `bus`,
    /// its receiver on `cpu`.
    fn mini_system() -> NetSystem {
        NetSystem {
            frames: vec![NetFrame {
                name: "F".into(),
                bus: "bus".into(),
                priority: Priority::new(1),
                transmission_time: Time::new(95),
                frame_type: FrameType::Direct,
                signals: vec![NetSignal {
                    name: "s".into(),
                    transfer: TransferProperty::Triggering,
                    source: NetSource::Trace(trace::periodic(Time::new(500), Time::new(10_000))),
                }],
            }],
            tasks: vec![NetTask {
                name: "rx".into(),
                cpu: "cpu".into(),
                priority: Priority::new(1),
                execution_time: Time::new(30),
                activation: NetActivation::Delivery {
                    frame: "F".into(),
                    signal: "s".into(),
                },
            }],
        }
    }

    fn background_task() -> NetTask {
        NetTask {
            name: "bg".into(),
            cpu: "cpu".into(),
            priority: Priority::new(2),
            execution_time: Time::new(40),
            activation: NetActivation::Trace(trace::periodic(Time::new(400), Time::new(10_000))),
        }
    }

    fn certain_corruption(frame: &str, seed: u64) -> FaultPlan {
        FaultPlan::new(seed).with(Fault::FrameCorruption {
            frame: FaultTarget::Named(frame.into()),
            probability: 1.0,
            error_frame: Time::new(31),
            max_retransmissions: 1,
        })
    }

    fn gateway_chain() -> NetSystem {
        NetSystem {
            frames: vec![
                NetFrame {
                    name: "F_in".into(),
                    bus: "bus0".into(),
                    priority: Priority::new(1),
                    transmission_time: Time::new(95),
                    frame_type: FrameType::Direct,
                    signals: vec![NetSignal {
                        name: "s".into(),
                        transfer: TransferProperty::Triggering,
                        source: NetSource::Trace(trace::periodic(
                            Time::new(5_000),
                            Time::new(50_000),
                        )),
                    }],
                },
                NetFrame {
                    name: "F_out".into(),
                    bus: "bus1".into(),
                    priority: Priority::new(1),
                    transmission_time: Time::new(95),
                    frame_type: FrameType::Direct,
                    signals: vec![NetSignal {
                        name: "s".into(),
                        transfer: TransferProperty::Triggering,
                        source: NetSource::TaskCompletions("gateway".into()),
                    }],
                },
            ],
            tasks: vec![
                NetTask {
                    name: "gateway".into(),
                    cpu: "cpu_gw".into(),
                    priority: Priority::new(1),
                    execution_time: Time::new(120),
                    activation: NetActivation::Delivery {
                        frame: "F_in".into(),
                        signal: "s".into(),
                    },
                },
                NetTask {
                    name: "receiver".into(),
                    cpu: "cpu_rx".into(),
                    priority: Priority::new(1),
                    execution_time: Time::new(80),
                    activation: NetActivation::Delivery {
                        frame: "F_out".into(),
                        signal: "s".into(),
                    },
                },
            ],
        }
    }

    #[test]
    fn end_to_end_pipeline() {
        let report = run(&mini_system(), Time::new(10_000));
        // 20 writes → 20 frames → 20 deliveries → 20 jobs.
        assert_eq!(report.frame_transmissions["F"].len(), 20);
        assert_eq!(report.deliveries["F/s"].len(), 20);
        // Uncontended: frame response = its transmission time.
        assert_eq!(report.frame_worst_response["F"], Time::new(95));
        assert_eq!(report.task_worst_response["rx"], Time::new(30));
        assert_eq!(report.overwritten["F/s"], 0);
        // Deliveries happen one transmission after each write.
        assert_eq!(report.deliveries["F/s"][0], Time::new(95));
        assert_eq!(report.deliveries["F/s"][1], Time::new(595));
    }

    #[test]
    fn end_to_end_latency_observed() {
        let report = run(&mini_system(), Time::new(10_000));
        // Uncontended triggering path: write → 95 transport → 30 reaction.
        assert_eq!(report.task_worst_latency["rx"], Time::new(125));
    }

    #[test]
    fn contended_bus_delays_low_priority_frame() {
        let mut sys = mini_system();
        sys.frames.push(NetFrame {
            name: "HI".into(),
            bus: "bus".into(),
            priority: Priority::new(0),
            transmission_time: Time::new(75),
            frame_type: FrameType::Direct,
            signals: vec![NetSignal {
                name: "h".into(),
                transfer: TransferProperty::Triggering,
                source: NetSource::Trace(trace::periodic(Time::new(500), Time::new(10_000))),
            }],
        });
        let report = run(&sys, Time::new(10_000));
        // Both queue at the same instants; HI wins arbitration each time.
        assert_eq!(report.frame_worst_response["HI"], Time::new(75));
        assert_eq!(report.frame_worst_response["F"], Time::new(75 + 95));
    }

    #[test]
    fn trace_activated_task() {
        let mut sys = mini_system();
        sys.tasks.push(background_task());
        let report = run(&sys, Time::new(10_000));
        // bg can be preempted by rx once: ≤ 40 + 30.
        assert!(report.task_worst_response["bg"] <= Time::new(70));
        assert!(report.task_worst_response["bg"] >= Time::new(40));
    }

    #[test]
    fn single_bus_fault_free_plan_matches_plain_run() {
        let horizon = Time::new(10_000);
        let plain = run(&mini_system(), horizon);
        let faulted = run_with_faults(&mini_system(), horizon, &FaultPlan::new(99));
        assert_eq!(plain.deliveries, faulted.deliveries);
        assert_eq!(plain.task_worst_response, faulted.task_worst_response);
        assert_eq!(plain.frame_worst_response, faulted.frame_worst_response);
    }

    #[test]
    fn certain_corruption_inflates_uncontended_response() {
        let plan = certain_corruption("F", 1);
        let report = run_with_faults(&mini_system(), Time::new(10_000), &plan);
        // Uncontended: every instance costs 2·95 + 31.
        assert_eq!(report.frame_worst_response["F"], Time::new(2 * 95 + 31));
        // Deliveries still happen (one per write), just later.
        assert_eq!(report.deliveries["F/s"].len(), 20);
        assert_eq!(report.deliveries["F/s"][0], Time::new(221));
    }

    #[test]
    fn babbling_idiot_starves_the_real_frame() {
        // Rogue 130-tick frames queued back-to-back around the write at
        // t = 500 win arbitration and delay F.
        let plan = FaultPlan::new(1).with(Fault::BusOverload {
            bus: FaultTarget::Named("bus".into()),
            priority: Priority::new(0),
            transmission_time: Time::new(130),
            period: Time::new(130),
            from: Time::new(450),
            until: Time::new(900),
        });
        let report = run_with_faults(&mini_system(), Time::new(10_000), &plan);
        assert!(
            report.frame_worst_response["F"] > Time::new(95),
            "got {}",
            report.frame_worst_response["F"]
        );
        // The rogue frames are not reported as real transmissions.
        assert_eq!(report.frame_transmissions.len(), 1);
    }

    #[test]
    fn jitter_on_trace_task_is_deterministic() {
        let mut sys = mini_system();
        sys.tasks.push(background_task());
        let plan = FaultPlan::new(5).with(Fault::ActivationJitter {
            target: FaultTarget::Named("task:bg".into()),
            max_delay: Time::new(60),
        });
        let a = run_with_faults(&sys, Time::new(10_000), &plan);
        let b = run_with_faults(&sys, Time::new(10_000), &plan);
        assert_eq!(a.task_worst_response, b.task_worst_response);
        // The delivery-activated task is untouched by the trace fault.
        assert_eq!(a.task_worst_response["rx"], Time::new(30));
    }

    #[test]
    fn recorded_run_emits_deterministic_trace_and_counters() {
        let plan = certain_corruption("F", 1);
        let run_once = || {
            let (rec, handle) = MemoryRecorder::handle();
            let report =
                try_run_recorded(&mini_system(), Time::new(10_000), &plan, &handle).unwrap();
            (report, rec.snapshot(), rec.chrome_trace())
        };
        let (report, snap, trace) = run_once();
        // Same observable results as the unrecorded run.
        let plain = run_with_faults(&mini_system(), Time::new(10_000), &plan);
        assert_eq!(report.deliveries, plain.deliveries);
        // 20 transmissions + 20 jobs, every transmission corrupted.
        assert_eq!(snap.counter(Counter::SimEvents), 40);
        assert_eq!(snap.counter(Counter::FaultInjections), 20);
        // The Chrome trace is well-formed and labels its lanes.
        let json = trace.to_json();
        hem_obs::json::validate(&json).expect("valid Chrome trace");
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"corrupted\":1"));
        // Virtual time makes the whole export deterministic.
        let (_, snap2, trace2) = run_once();
        assert_eq!(snap, snap2);
        assert_eq!(trace, trace2);
    }

    #[test]
    fn recorded_gateway_chain_lays_out_lanes_per_resource() {
        let (rec, handle) = MemoryRecorder::handle();
        let plan = certain_corruption("F_in", 4);
        try_run_recorded(&gateway_chain(), Time::new(50_000), &plan, &handle).expect("valid");
        let trace = rec.chrome_trace();
        let lanes: Vec<(u32, &str)> = trace
            .events
            .iter()
            .filter(|e| e.name == "thread_name")
            .map(|e| match &e.args[0].1 {
                hem_obs::ArgValue::Str(name) => (e.tid, name.as_str()),
                other => panic!("lane name {other:?}"),
            })
            .collect();
        assert_eq!(
            lanes,
            [
                (1, "bus0"),
                (2, "bus1"),
                (3, "cpu_gw"),
                (4, "cpu_rx"),
                (5, "faults")
            ]
        );
        // Every event sits on the lane of the resource that produced it.
        let lane_of = |name: &str| {
            let tids: Vec<u32> = trace
                .events
                .iter()
                .filter(|e| e.name == name)
                .map(|e| e.tid)
                .collect();
            assert_eq!(tids.len(), 10, "{name}");
            tids[0]
        };
        assert_eq!(lane_of("F_in"), 1);
        assert_eq!(lane_of("F_out"), 2);
        assert_eq!(lane_of("gateway"), 3);
        assert_eq!(lane_of("receiver"), 4);
        // 20 transmissions + 20 jobs, every F_in instance corrupted.
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::SimEvents), 40);
        assert_eq!(snap.counter(Counter::FaultInjections), 10);
    }

    #[test]
    fn gateway_chain_simulates_in_waves() {
        let report = run(&gateway_chain(), Time::new(50_000));
        // Ten writes propagate through both hops unchanged (uncontended).
        assert_eq!(report.deliveries["F_in/s"].len(), 10);
        assert_eq!(report.task_completions["gateway"].len(), 10);
        assert_eq!(report.deliveries["F_out/s"].len(), 10);
        assert_eq!(report.frame_worst_response["F_in"], Time::new(95));
        assert_eq!(report.frame_worst_response["F_out"], Time::new(95));
        assert_eq!(report.task_worst_response["gateway"], Time::new(120));
        assert_eq!(report.task_worst_response["receiver"], Time::new(80));
        // End-to-end: write 0 → F_in done 95 → gateway done 215 →
        // F_out done 310 → receiver done 390.
        assert_eq!(report.deliveries["F_out/s"][0], Time::new(310));
        // Latency counts from the delivered value's write, which for
        // the gateway-fed signal is the gateway's completion.
        assert_eq!(report.task_worst_latency["gateway"], Time::new(215));
        assert_eq!(report.task_worst_latency["receiver"], Time::new(390 - 215));
    }

    #[test]
    fn fault_free_plan_matches_plain_run() {
        let horizon = Time::new(50_000);
        let plain = run(&gateway_chain(), horizon);
        let faulted = run_with_faults(&gateway_chain(), horizon, &FaultPlan::new(123));
        assert_eq!(plain.deliveries, faulted.deliveries);
        assert_eq!(plain.frame_worst_response, faulted.frame_worst_response);
        assert_eq!(plain.task_worst_response, faulted.task_worst_response);
    }

    #[test]
    fn corrupted_gateway_chain_shifts_downstream() {
        // Certain corruption of F_in only: each instance costs
        // 2·95 + 31 = 221 on bus0; everything downstream shifts.
        let plan = certain_corruption("F_in", 4);
        let report = run_with_faults(&gateway_chain(), Time::new(50_000), &plan);
        assert_eq!(report.frame_worst_response["F_in"], Time::new(221));
        // F_out is on the other bus and untouched by the fault itself.
        assert_eq!(report.frame_worst_response["F_out"], Time::new(95));
        // End-to-end: write 0 → F_in done 221 → gateway done 341 →
        // F_out done 436.
        assert_eq!(report.deliveries["F_out/s"][0], Time::new(436));
        assert_eq!(report.deliveries["F_out/s"].len(), 10);
    }

    #[test]
    fn overload_on_one_bus_spares_the_other() {
        let plan = FaultPlan::new(4).with(Fault::BusOverload {
            bus: FaultTarget::Named("bus0".into()),
            priority: Priority::new(0),
            transmission_time: Time::new(120),
            period: Time::new(120),
            from: Time::ZERO,
            until: Time::new(600),
        });
        let report = run_with_faults(&gateway_chain(), Time::new(50_000), &plan);
        // The write at t = 0 on bus0 loses arbitration to the babbler.
        assert!(report.frame_worst_response["F_in"] > Time::new(95));
        assert_eq!(report.frame_worst_response["F_out"], Time::new(95));
    }

    #[test]
    fn cross_cpu_task_chain() {
        let sys = NetSystem {
            frames: vec![],
            tasks: vec![
                NetTask {
                    name: "producer".into(),
                    cpu: "cpu0".into(),
                    priority: Priority::new(1),
                    execution_time: Time::new(50),
                    activation: NetActivation::Trace(trace::periodic(
                        Time::new(1_000),
                        Time::new(10_000),
                    )),
                },
                NetTask {
                    name: "consumer".into(),
                    cpu: "cpu1".into(),
                    priority: Priority::new(1),
                    execution_time: Time::new(30),
                    activation: NetActivation::TaskCompletions("producer".into()),
                },
            ],
        };
        let report = run(&sys, Time::new(10_000));
        assert_eq!(report.task_completions["producer"].len(), 10);
        assert_eq!(report.task_completions["consumer"].len(), 10);
        // First chain: activation 0 → producer done 50 → consumer done 80.
        assert_eq!(report.task_completions["consumer"][0], Time::new(80));
    }

    #[test]
    #[should_panic(expected = "dependency cycle")]
    fn same_cpu_task_chain_rejected() {
        let sys = NetSystem {
            frames: vec![],
            tasks: vec![
                NetTask {
                    name: "producer".into(),
                    cpu: "cpu0".into(),
                    priority: Priority::new(1),
                    execution_time: Time::new(50),
                    activation: NetActivation::Trace(trace::periodic(
                        Time::new(1_000),
                        Time::new(10_000),
                    )),
                },
                NetTask {
                    name: "consumer".into(),
                    cpu: "cpu0".into(), // same CPU: unresolvable wave
                    priority: Priority::new(2),
                    execution_time: Time::new(30),
                    activation: NetActivation::TaskCompletions("producer".into()),
                },
            ],
        };
        let _ = run(&sys, Time::new(10_000));
    }

    #[test]
    #[should_panic(expected = "dependency cycle")]
    fn gateway_loop_rejected() {
        let mut sys = gateway_chain();
        // Make the first frame depend on the receiver: a loop.
        sys.frames[0].signals[0].source = NetSource::TaskCompletions("receiver".into());
        let _ = run(&sys, Time::new(10_000));
    }

    #[test]
    fn try_run_reports_cycle_without_panicking() {
        let mut sys = gateway_chain();
        sys.frames[0].signals[0].source = NetSource::TaskCompletions("receiver".into());
        let err = try_run(&sys, Time::new(10_000)).unwrap_err();
        assert!(matches!(err, SimError::DependencyCycle { .. }), "{err}");
        assert!(err.to_string().contains("bus0"), "{err}");
    }

    #[test]
    fn pending_forwarding_loses_values() {
        // A fast gateway output rides as pending on a slow timer frame.
        let horizon = Time::new(100_000);
        let sys = NetSystem {
            frames: vec![NetFrame {
                name: "slowF".into(),
                bus: "b".into(),
                priority: Priority::new(1),
                transmission_time: Time::new(50),
                frame_type: FrameType::Periodic(Time::new(10_000)),
                signals: vec![NetSignal {
                    name: "v".into(),
                    transfer: TransferProperty::Pending,
                    source: NetSource::Trace(trace::periodic(Time::new(1_000), horizon)),
                }],
            }],
            tasks: vec![],
        };
        let report = run(&sys, horizon);
        // 100 writes, 10 frames: roughly 90 values overwritten.
        assert!(report.overwritten["slowF/v"] >= 89);
        assert_eq!(report.deliveries["slowF/v"].len(), 10);
    }

    #[test]
    #[should_panic(expected = "unknown delivery source")]
    fn unknown_delivery_panics() {
        let mut sys = mini_system();
        sys.tasks[0].activation = NetActivation::Delivery {
            frame: "nope".into(),
            signal: "s".into(),
        };
        let _ = run(&sys, Time::new(1000));
    }

    /// Asserts that `sys` is rejected as a dangling reference to `what`.
    fn assert_unknown(sys: &NetSystem, what: &str) {
        let err = try_run(sys, Time::new(10_000)).expect_err("dangling reference");
        assert_eq!(err, SimError::unknown(what), "{err}");
    }

    #[test]
    fn unknown_delivery_source_reported() {
        let mut sys = mini_system();
        sys.tasks[0].activation = NetActivation::Delivery {
            frame: "nope".into(),
            signal: "s1".into(),
        };
        assert_unknown(&sys, "delivery source `nope/s1`");
        // A known frame without that signal dangles too.
        sys.tasks[0].activation = NetActivation::Delivery {
            frame: "F".into(),
            signal: "s1".into(),
        };
        assert_unknown(&sys, "delivery source `F/s1`");
    }

    #[test]
    fn unknown_transmission_frame_reported() {
        let mut sys = mini_system();
        sys.tasks[0].activation = NetActivation::FrameTransmissions("nope".into());
        assert_unknown(&sys, "transmission source `nope`");
    }

    #[test]
    fn unknown_completion_task_reported() {
        let mut sys = gateway_chain();
        sys.tasks[1].activation = NetActivation::TaskCompletions("nope".into());
        assert_unknown(&sys, "completion source `nope`");
        // A gateway signal forwarding an unknown task's completions.
        let mut sys = gateway_chain();
        sys.frames[1].signals[0].source = NetSource::TaskCompletions("nope".into());
        assert_unknown(&sys, "completion source `nope`");
    }
}
