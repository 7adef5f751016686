//! Differential gate for the closed-form analytic fast path.
//!
//! The engine promises that swapping resolved event models for their
//! analytic curves (`SystemConfig::with_analytic`) changes *nothing*
//! observable: response times, per-entity statuses, stop reason,
//! convergence trace, and recorder counter totals are bit-for-bit
//! identical with the fast path forced on and forced off. Only the
//! `analytic_lifts` / `analytic_fallbacks` tallies (zero when
//! disabled), the cache *work* counters (`cache_hits` /
//! `cache_misses` / `curve_evaluations` — the fast path exists
//! precisely to answer queries without recursing through chained
//! caches), and wall-clock observations may differ. Within a leg,
//! every counter is identical from run to run.

use std::collections::BTreeMap;

use proptest::prelude::*;

use hem_analysis::Priority;
use hem_autosar_com::{FrameType, TransferProperty};
use hem_can::{CanBusConfig, FrameFormat};
use hem_event_models::{EventModelExt, PeriodicBurstModel, SporadicModel, StandardEventModel};
use hem_obs::{Counter, HistogramData, MemoryRecorder};
use hem_system::{
    analyze_robust, ActivationSpec, AnalysisMode, FrameSpec, RobustAnalysis, SignalSpec,
    SystemConfig, SystemSpec, TaskSpec,
};
use hem_time::Time;

struct Run {
    outcome: Result<RobustAnalysis, hem_system::SystemError>,
    snapshot: hem_obs::MetricsSnapshot,
}

/// Runs the analysis with the analytic fast path explicitly pinned.
fn run(spec: &SystemSpec, mode: AnalysisMode, analytic: bool) -> Run {
    let (recorder, handle) = MemoryRecorder::handle();
    let config = SystemConfig::new(mode)
        .with_recorder(handle)
        .with_analytic(Some(analytic));
    let outcome = analyze_robust(spec, &config);
    let snapshot = recorder.snapshot();
    Run { outcome, snapshot }
}

/// Counter totals minus the fast path's own bookkeeping (zero with the
/// path disabled, by design) and the cache work counters (a lifted
/// model answers queries in place instead of recursing through the
/// generic chain — and through any downstream caches on it — so the
/// amount of memoization *work* shrinks while every memoized *value*
/// stays identical).
fn comparable_counters(snapshot: &hem_obs::MetricsSnapshot) -> BTreeMap<&'static str, u64> {
    let excluded = [
        Counter::AnalyticLifts.name(),
        Counter::AnalyticFallbacks.name(),
        Counter::CacheHits.name(),
        Counter::CacheMisses.name(),
        Counter::CurveEvaluations.name(),
    ];
    snapshot
        .counters
        .iter()
        .filter(|(name, _)| !excluded.contains(name))
        .map(|(name, value)| (*name, *value))
        .collect()
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

/// Asserts two runs are indistinguishable except for wall-clock and —
/// unless `strict_counters` — the analytic bookkeeping and cache work
/// tallies.
fn assert_identical(on: &Run, off: &Run, strict_counters: bool, context: &str) {
    match (&on.outcome, &off.outcome) {
        (Ok(a), Ok(b)) => {
            let ra = &a.results;
            let rb = &b.results;
            assert_eq!(ra.is_complete(), rb.is_complete(), "{context}");
            assert_eq!(ra.iterations(), rb.iterations(), "{context}");
            assert_eq!(
                ra.tasks().collect::<Vec<_>>(),
                rb.tasks().collect::<Vec<_>>(),
                "{context}: task results"
            );
            assert_eq!(
                ra.frames().collect::<Vec<_>>(),
                rb.frames().collect::<Vec<_>>(),
                "{context}: frame results"
            );
            let da = &a.diagnostics;
            let db = &b.diagnostics;
            assert_eq!(da.stop, db.stop, "{context}: stop reason");
            assert_eq!(da.iterations, db.iterations, "{context}");
            assert_eq!(da.trace(), db.trace(), "{context}: convergence trace");
            assert_eq!(da.diverging, db.diverging, "{context}");
            assert_eq!(
                da.last_response_times(),
                db.last_response_times(),
                "{context}"
            );
            assert_eq!(
                da.suspected_bottleneck, db.suspected_bottleneck,
                "{context}"
            );
        }
        (Err(a), Err(b)) => {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{context}: error");
        }
        (a, b) => panic!(
            "{context}: outcome kind differs: {:?} vs {:?}",
            a.as_ref().map(|_| "ok"),
            b.as_ref().map(|_| "ok"),
        ),
    }
    if strict_counters {
        assert_eq!(
            on.snapshot.counters, off.snapshot.counters,
            "{context}: counter totals"
        );
    } else {
        assert_eq!(
            comparable_counters(&on.snapshot),
            comparable_counters(&off.snapshot),
            "{context}: counter totals"
        );
    }
    assert_eq!(
        on.snapshot.labeled, off.snapshot.labeled,
        "{context}: labeled counters"
    );
    assert_eq!(
        deterministic_histograms(&on.snapshot),
        deterministic_histograms(&off.snapshot),
        "{context}: histograms"
    );
}

/// The full gate: fast path on vs off, and the enabled leg identical
/// from run to run.
fn check_on_off(spec: &SystemSpec, mode: AnalysisMode) {
    let reference = run(spec, mode, true);
    let on = run(spec, mode, true);
    let off = run(spec, mode, false);
    assert_identical(&on, &off, false, "on-vs-off");
    // Within the enabled leg every counter — including the cache work
    // and lift tallies — must repeat exactly.
    assert_identical(&on, &reference, true, "rerun vs reference");
}

fn external(model: hem_event_models::ModelRef) -> ActivationSpec {
    ActivationSpec::External(model)
}

fn periodic(p: i64) -> ActivationSpec {
    external(
        StandardEventModel::periodic(Time::new(p))
            .expect("valid")
            .shared(),
    )
}

fn jittered(p: i64, j: i64) -> ActivationSpec {
    external(
        StandardEventModel::periodic_with_jitter(Time::new(p), Time::new(j))
            .expect("valid")
            .shared(),
    )
}

/// The paper's Fig. 2 system — the profile the ≥3x speedup targets.
fn fig2_spec() -> SystemSpec {
    SystemSpec::new()
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
                    source: periodic(2_500),
                },
                SignalSpec {
                    name: "s2".into(),
                    transfer: TransferProperty::Pending,
                    source: periodic(6_000),
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
        })
}

#[test]
fn fig2_system_identical_on_and_off() {
    let spec = fig2_spec();
    for mode in [
        AnalysisMode::Flat,
        AnalysisMode::FlatSem,
        AnalysisMode::Hierarchical,
    ] {
        check_on_off(&spec, mode);
    }
}

#[test]
fn fig2_enabled_run_actually_lifts() {
    // Guard against the fast path silently never engaging: the Fig. 2
    // profile is built entirely from liftable shapes.
    let on = run(&fig2_spec(), AnalysisMode::Hierarchical, true);
    let lifts = on.snapshot.counter(Counter::AnalyticLifts);
    assert!(lifts > 0, "expected analytic lifts, got none");
    let off = run(&fig2_spec(), AnalysisMode::Hierarchical, false);
    assert_eq!(off.snapshot.counter(Counter::AnalyticLifts), 0);
    assert_eq!(off.snapshot.counter(Counter::AnalyticFallbacks), 0);
}

/// Gateway chain with sporadic and bursty sources, a pending signal, and
/// a task-output-fed frame — exercises OR-joins, output propagation,
/// pack/unpack, and the burst lift in one topology.
#[test]
fn gateway_chain_identical_on_and_off() {
    let spec = SystemSpec::new()
        .cpu("sensor")
        .cpu("gateway")
        .bus("body", CanBusConfig::new(Time::new(1)))
        .bus("chassis", CanBusConfig::new(Time::new(2)))
        .task(TaskSpec {
            name: "acquire".into(),
            cpu: "sensor".into(),
            bcet: Time::new(40),
            wcet: Time::new(90),
            priority: Priority::new(1),
            activation: external(
                PeriodicBurstModel::new(Time::new(4_000), 3, Time::new(200))
                    .expect("valid")
                    .shared(),
            ),
        })
        .frame(FrameSpec {
            name: "Fin".into(),
            bus: "body".into(),
            frame_type: FrameType::Direct,
            payload_bytes: 6,
            format: FrameFormat::Standard,
            priority: Priority::new(1),
            signals: vec![
                SignalSpec {
                    name: "m".into(),
                    transfer: TransferProperty::Triggering,
                    source: ActivationSpec::TaskOutput("acquire".into()),
                },
                SignalSpec {
                    name: "aux".into(),
                    transfer: TransferProperty::Pending,
                    source: external(SporadicModel::new(Time::new(900)).expect("valid").shared()),
                },
            ],
        })
        .task(TaskSpec {
            name: "route".into(),
            cpu: "gateway".into(),
            bcet: Time::new(30),
            wcet: Time::new(120),
            priority: Priority::new(1),
            activation: ActivationSpec::Signal {
                frame: "Fin".into(),
                signal: "m".into(),
            },
        })
        .frame(FrameSpec {
            name: "Fout".into(),
            bus: "chassis".into(),
            frame_type: FrameType::Direct,
            payload_bytes: 4,
            format: FrameFormat::Standard,
            priority: Priority::new(2),
            signals: vec![SignalSpec {
                name: "fwd".into(),
                transfer: TransferProperty::Triggering,
                source: ActivationSpec::TaskOutput("route".into()),
            }],
        })
        .task(TaskSpec {
            name: "consume".into(),
            cpu: "gateway".into(),
            bcet: Time::new(25),
            wcet: Time::new(60),
            priority: Priority::new(2),
            activation: ActivationSpec::AnyOf(vec![
                ActivationSpec::FrameArrivals("Fout".into()),
                jittered(7_000, 1_500),
            ]),
        });
    check_on_off(&spec, AnalysisMode::Hierarchical);
    check_on_off(&spec, AnalysisMode::Flat);
}

/// Tiny deterministic xorshift used to expand a proptest seed into a
/// concrete random topology (same scheme as `parallel_determinism`).
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

/// Random multi-bus system mixing liftable sources (periodic, jitter,
/// burst, sporadic) with task outputs and pending transfers.
fn build_spec(seed: u64, buses: usize, cpus: usize) -> SystemSpec {
    let mut rng = Rng(seed);
    let mut spec = SystemSpec::new();

    let mut task_names: Vec<String> = Vec::new();
    let mut tasks_on: Vec<Vec<String>> = Vec::new();
    for c in 0..cpus {
        spec = spec.cpu(format!("cpu{c}"));
        let mut on_cpu = Vec::new();
        for t in 0..=rng.pick(2) as usize {
            let name = format!("t{c}_{t}");
            task_names.push(name.clone());
            on_cpu.push(name);
        }
        tasks_on.push(on_cpu);
    }

    let source = |rng: &mut Rng| {
        let p = Time::new(2_000 + rng.pick(3_000) as i64);
        match rng.pick(4) {
            0 => external(
                StandardEventModel::periodic_with_jitter(p, Time::new(rng.pick(4_000) as i64))
                    .expect("valid")
                    .shared(),
            ),
            1 => external(SporadicModel::new(p).expect("valid").shared()),
            2 => external(
                PeriodicBurstModel::new(p * 3, 2 + rng.pick(3), Time::new(50))
                    .expect("valid")
                    .shared(),
            ),
            _ => external(StandardEventModel::periodic(p).expect("valid").shared()),
        }
    };

    let mut frame_signals: Vec<(String, Vec<String>)> = Vec::new();
    for b in 0..buses {
        spec = spec.bus(format!("bus{b}"), CanBusConfig::new(Time::new(1)));
        for f in 0..=rng.pick(2) as usize {
            let name = format!("f{b}_{f}");
            let mut signals = Vec::new();
            let mut signal_names = Vec::new();
            for s in 0..=rng.pick(2) as usize {
                let src = if !task_names.is_empty() && rng.pick(3) == 0 {
                    let t = &task_names[rng.pick(task_names.len() as u64) as usize];
                    ActivationSpec::TaskOutput(t.clone())
                } else {
                    source(&mut rng)
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
                    source: src,
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
                _ => source(&mut rng),
            };
            let wcet = Time::new(10 + rng.pick(60) as i64);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_graphs_identical_on_and_off(
        seed in 0u64..1 << 48,
        buses in 1usize..=2,
        cpus in 1usize..=2,
    ) {
        let spec = build_spec(seed, buses, cpus);
        check_on_off(&spec, AnalysisMode::Hierarchical);
    }
}
