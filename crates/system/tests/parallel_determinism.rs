//! Determinism of the order-deterministic fan-out.
//!
//! Parallelism lives only across independent analyses:
//! [`hem_system::parallel::parallel_map`] must hand back, at every
//! thread count, exactly what a sequential loop over the same items
//! would: response times, per-entity statuses, stop reason,
//! convergence trace, and recorder counter totals. This suite
//! generates batches of random task graphs — multiple buses, HEM
//! pack/unpack stages, task-output chains, occasionally overloaded or
//! cyclic — analyses each batch through `parallel_map` with 1, 2, 4,
//! and 8 threads, one recorder per item, and requires per-item
//! equality on everything except wall-clock observations
//! (`Diagnostics::elapsed`, `span_us/*` histograms).

use std::collections::BTreeMap;

use proptest::prelude::*;

use hem_analysis::Priority;
use hem_autosar_com::{FrameType, TransferProperty};
use hem_can::{CanBusConfig, FrameFormat};
use hem_event_models::{EventModelExt, StandardEventModel};
use hem_obs::{HistogramData, MemoryRecorder};
use hem_system::parallel::parallel_map;
use hem_system::{
    analyze_robust, ActivationSpec, AnalysisMode, FrameSpec, RobustAnalysis, SignalSpec,
    SystemConfig, SystemSpec, TaskSpec,
};
use hem_time::Time;

/// Tiny deterministic generator: the proptest case hands us a seed and
/// coarse sizes, this xorshift expands them into a concrete topology.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.0 = x;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x
    }

    fn pick(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// Builds a random — but always validation-clean — system: `buses`
/// CAN buses with 1–2 frames each (packed HEM signals from external
/// periodic sources or task outputs), `cpus` CPUs with 1–3 tasks each
/// (activated externally, by unpacked signals, by frame arrivals, or by
/// other tasks' outputs). Task-output sources may close resource-level
/// cycles; those exercise the resolver's cycle detection.
fn build_spec(seed: u64, buses: usize, cpus: usize, tight: bool) -> SystemSpec {
    let mut rng = Rng(seed);
    let mut spec = SystemSpec::new();

    // Task names exist up front so frames can pack task outputs.
    let mut task_names: Vec<String> = Vec::new();
    let mut tasks_on: Vec<Vec<String>> = Vec::new();
    for c in 0..cpus {
        spec = spec.cpu(format!("cpu{c}"));
        let mut on_cpu = Vec::new();
        for t in 0..=rng.pick(3) as usize {
            let name = format!("t{c}_{t}");
            task_names.push(name.clone());
            on_cpu.push(name);
        }
        tasks_on.push(on_cpu);
    }

    // Periods keep single-resource utilisation low unless `tight`,
    // which deliberately risks overload (the outcome must still be
    // deterministic, converged or not).
    let base = if tight { 260 } else { 2_000 };
    let period = |rng: &mut Rng| Time::new(base + rng.pick(2_000) as i64);

    let mut frame_signals: Vec<(String, Vec<String>)> = Vec::new();
    for b in 0..buses {
        spec = spec.bus(format!("bus{b}"), CanBusConfig::new(Time::new(1)));
        for f in 0..=rng.pick(2) as usize {
            let name = format!("f{b}_{f}");
            let mut signals = Vec::new();
            let mut signal_names = Vec::new();
            for s in 0..=rng.pick(2) as usize {
                let source = if !task_names.is_empty() && rng.pick(3) == 0 {
                    let t = &task_names[rng.pick(task_names.len() as u64) as usize];
                    ActivationSpec::TaskOutput(t.clone())
                } else {
                    ActivationSpec::External(
                        StandardEventModel::periodic(period(&mut rng))
                            .expect("positive period")
                            .shared(),
                    )
                };
                let sig = format!("s{s}");
                signal_names.push(sig.clone());
                signals.push(SignalSpec {
                    name: sig,
                    transfer: if rng.pick(2) == 0 {
                        TransferProperty::Triggering
                    } else {
                        TransferProperty::Pending
                    },
                    source,
                });
            }
            spec = spec.frame(FrameSpec {
                name: name.clone(),
                bus: format!("bus{b}"),
                frame_type: FrameType::Direct,
                payload_bytes: 1 + rng.pick(8) as u8,
                format: FrameFormat::Standard,
                priority: Priority::new(1 + f as u32),
                signals,
            });
            frame_signals.push((name, signal_names));
        }
    }

    for (c, on_cpu) in tasks_on.iter().enumerate() {
        for (t, name) in on_cpu.iter().enumerate() {
            let activation = match rng.pick(4) {
                0 if !frame_signals.is_empty() => {
                    let (frame, sigs) =
                        &frame_signals[rng.pick(frame_signals.len() as u64) as usize];
                    ActivationSpec::Signal {
                        frame: frame.clone(),
                        signal: sigs[rng.pick(sigs.len() as u64) as usize].clone(),
                    }
                }
                1 if !frame_signals.is_empty() => {
                    let (frame, _) = &frame_signals[rng.pick(frame_signals.len() as u64) as usize];
                    ActivationSpec::FrameArrivals(frame.clone())
                }
                2 if t > 0 => {
                    ActivationSpec::TaskOutput(on_cpu[rng.pick(t as u64) as usize].clone())
                }
                _ => ActivationSpec::External(
                    StandardEventModel::periodic(period(&mut rng))
                        .expect("positive period")
                        .shared(),
                ),
            };
            let wcet = Time::new(10 + rng.pick(if tight { 180 } else { 60 }) as i64);
            spec = spec.task(TaskSpec {
                name: name.clone(),
                cpu: format!("cpu{c}"),
                bcet: wcet,
                wcet,
                priority: Priority::new(1 + t as u32),
                activation,
            });
        }
    }
    spec
}

/// Runs the analysis with a fresh recorder.
fn run(spec: &SystemSpec, mode: AnalysisMode) -> Run {
    let (recorder, handle) = MemoryRecorder::handle();
    let config = SystemConfig::new(mode).with_recorder(handle);
    let outcome = analyze_robust(spec, &config);
    let snapshot = recorder.snapshot();
    Run { outcome, snapshot }
}

struct Run {
    outcome: Result<RobustAnalysis, hem_system::SystemError>,
    snapshot: hem_obs::MetricsSnapshot,
}

/// Histograms minus the wall-clock `span_us/*` families.
fn deterministic_histograms(
    snapshot: &hem_obs::MetricsSnapshot,
) -> BTreeMap<&'static str, &HistogramData> {
    snapshot
        .histograms
        .iter()
        .filter(|(name, _)| !name.starts_with("span_us/"))
        .map(|(name, data)| (*name, data))
        .collect()
}

/// Asserts that two runs are indistinguishable except for wall-clock.
fn assert_identical(reference: &Run, candidate: &Run, threads: usize) {
    match (&reference.outcome, &candidate.outcome) {
        (Ok(a), Ok(b)) => {
            let ra = &a.results;
            let rb = &b.results;
            assert_eq!(ra.is_complete(), rb.is_complete(), "{threads} threads");
            assert_eq!(ra.iterations(), rb.iterations(), "{threads} threads");
            assert_eq!(
                ra.tasks().collect::<Vec<_>>(),
                rb.tasks().collect::<Vec<_>>(),
                "{threads} threads: task results"
            );
            assert_eq!(
                ra.frames().collect::<Vec<_>>(),
                rb.frames().collect::<Vec<_>>(),
                "{threads} threads: frame results"
            );
            let da = &a.diagnostics;
            let db = &b.diagnostics;
            assert_eq!(da.stop, db.stop, "{threads} threads: stop reason");
            assert_eq!(da.iterations, db.iterations, "{threads} threads");
            assert_eq!(da.trace(), db.trace(), "{threads} threads: trace");
            assert_eq!(da.diverging, db.diverging, "{threads} threads");
            assert_eq!(
                da.last_response_times(),
                db.last_response_times(),
                "{threads} threads"
            );
            assert_eq!(
                da.previous_response_times(),
                db.previous_response_times(),
                "{threads} threads"
            );
            assert_eq!(
                da.suspected_bottleneck, db.suspected_bottleneck,
                "{threads} threads"
            );
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{threads} threads: error"
            );
        }
        (a, b) => panic!(
            "{threads} threads: outcome kind differs: {:?} vs {:?}",
            a.as_ref().map(|_| "ok"),
            b.as_ref().map(|_| "ok"),
        ),
    }
    assert_eq!(
        reference.snapshot.counters, candidate.snapshot.counters,
        "{threads} threads: counter totals"
    );
    assert_eq!(
        reference.snapshot.labeled, candidate.snapshot.labeled,
        "{threads} threads: labeled counters"
    );
    assert_eq!(
        deterministic_histograms(&reference.snapshot),
        deterministic_histograms(&candidate.snapshot),
        "{threads} threads: histograms"
    );
}

/// Analyses every `(spec, mode)` item through `parallel_map` at 1, 2,
/// 4, and 8 threads and requires each item to match the sequential
/// reference.
fn check_batch(batch: &[(SystemSpec, AnalysisMode)]) {
    let analyse = |(spec, mode): &(SystemSpec, AnalysisMode)| run(spec, *mode);
    let reference = parallel_map(batch.iter().collect(), 1, analyse);
    for threads in [2, 4, 8] {
        let candidate = parallel_map(batch.iter().collect(), threads, analyse);
        assert_eq!(candidate.len(), reference.len(), "{threads} threads");
        for (reference, candidate) in reference.iter().zip(&candidate) {
            assert_identical(reference, candidate, threads);
        }
    }
}

/// A batch of four generated systems seeded from `seed`, all in `mode`.
fn generated_batch(
    seed: u64,
    buses: usize,
    cpus: usize,
    tight: bool,
    mode: AnalysisMode,
) -> Vec<(SystemSpec, AnalysisMode)> {
    (0..4)
        .map(|i| (build_spec(seed.wrapping_add(i), buses, cpus, tight), mode))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_graphs_are_thread_count_invariant(
        seed in 0u64..1 << 48,
        buses in 1usize..=2,
        cpus in 1usize..=2,
    ) {
        check_batch(&generated_batch(seed, buses, cpus, false, AnalysisMode::Hierarchical));
    }

    #[test]
    fn tight_graphs_degrade_identically_across_threads(
        seed in 0u64..1 << 48,
        cpus in 1usize..=2,
    ) {
        // Overload-prone systems: divergence detection, local analysis
        // failures, and partial salvage must not depend on threads.
        check_batch(&generated_batch(seed, 1, cpus, true, AnalysisMode::Hierarchical));
    }

    #[test]
    fn flat_mode_is_thread_count_invariant(seed in 0u64..1 << 48) {
        check_batch(&generated_batch(seed, 2, 2, false, AnalysisMode::Flat));
    }
}

/// The paper's Fig. 2 system, all three modes as one batch, threads 1
/// vs 2, 4, 8 — the concrete anchor behind the random sweep above.
#[test]
fn fig2_shape_system_matches_across_thread_counts() {
    let spec = SystemSpec::new()
        .cpu("cpu1")
        .bus("can", CanBusConfig::new(Time::new(1)))
        .frame(FrameSpec {
            name: "F1".into(),
            bus: "can".into(),
            frame_type: FrameType::Direct,
            payload_bytes: 4,
            format: FrameFormat::Standard,
            priority: Priority::new(1),
            signals: vec![
                SignalSpec {
                    name: "s1".into(),
                    transfer: TransferProperty::Triggering,
                    source: ActivationSpec::External(
                        StandardEventModel::periodic(Time::new(2_500))
                            .expect("valid")
                            .shared(),
                    ),
                },
                SignalSpec {
                    name: "s2".into(),
                    transfer: TransferProperty::Pending,
                    source: ActivationSpec::External(
                        StandardEventModel::periodic(Time::new(6_000))
                            .expect("valid")
                            .shared(),
                    ),
                },
            ],
        })
        .task(TaskSpec {
            name: "T1".into(),
            cpu: "cpu1".into(),
            bcet: Time::new(240),
            wcet: Time::new(240),
            priority: Priority::new(1),
            activation: ActivationSpec::Signal {
                frame: "F1".into(),
                signal: "s1".into(),
            },
        })
        .task(TaskSpec {
            name: "T2".into(),
            cpu: "cpu1".into(),
            bcet: Time::new(400),
            wcet: Time::new(400),
            priority: Priority::new(2),
            activation: ActivationSpec::Signal {
                frame: "F1".into(),
                signal: "s2".into(),
            },
        });
    let batch: Vec<_> = [
        AnalysisMode::Flat,
        AnalysisMode::FlatSem,
        AnalysisMode::Hierarchical,
    ]
    .into_iter()
    .map(|mode| (spec.clone(), mode))
    .collect();
    check_batch(&batch);
}

/// Cyclic topologies meet the lazy resolver's cycle detection and must
/// report the identical `DependencyCycle` at every fan-out width.
#[test]
fn cyclic_systems_fail_identically_across_thread_counts() {
    let spec = SystemSpec::new()
        .cpu("gw")
        .bus("b0", CanBusConfig::new(Time::new(1)))
        .bus("b1", CanBusConfig::new(Time::new(1)))
        .frame(FrameSpec {
            name: "F0".into(),
            bus: "b0".into(),
            frame_type: FrameType::Direct,
            payload_bytes: 2,
            format: FrameFormat::Standard,
            priority: Priority::new(1),
            signals: vec![SignalSpec {
                name: "x".into(),
                transfer: TransferProperty::Triggering,
                source: ActivationSpec::TaskOutput("t1".into()),
            }],
        })
        .frame(FrameSpec {
            name: "F1".into(),
            bus: "b1".into(),
            frame_type: FrameType::Direct,
            payload_bytes: 2,
            format: FrameFormat::Standard,
            priority: Priority::new(1),
            signals: vec![SignalSpec {
                name: "y".into(),
                transfer: TransferProperty::Triggering,
                source: ActivationSpec::TaskOutput("t0".into()),
            }],
        })
        .task(TaskSpec {
            name: "t0".into(),
            cpu: "gw".into(),
            bcet: Time::new(10),
            wcet: Time::new(10),
            priority: Priority::new(1),
            activation: ActivationSpec::Signal {
                frame: "F0".into(),
                signal: "x".into(),
            },
        })
        .task(TaskSpec {
            name: "t1".into(),
            cpu: "gw".into(),
            bcet: Time::new(10),
            wcet: Time::new(10),
            priority: Priority::new(2),
            activation: ActivationSpec::Signal {
                frame: "F1".into(),
                signal: "y".into(),
            },
        });
    let reference = run(&spec, AnalysisMode::Hierarchical);
    assert!(
        reference.outcome.is_err(),
        "cycle must be rejected: {:?}",
        reference.outcome.as_ref().map(|_| "ok")
    );
    let batch: Vec<_> = [
        AnalysisMode::Flat,
        AnalysisMode::FlatSem,
        AnalysisMode::Hierarchical,
    ]
    .into_iter()
    .map(|mode| (spec.clone(), mode))
    .collect();
    check_batch(&batch);
}
