//! Equivalence of warm-started and from-scratch analysis.
//!
//! The incremental engine promises results **bit-for-bit identical** to
//! a from-scratch run: response times, per-entity statuses,
//! convergence traces, stop reasons, and iteration counts. This suite
//! generates random task graphs, applies random single- and
//! multi-entity mutations (periods, jitter, WCET, priorities, frame
//! packing, bus timing), chains them through warm-start snapshots, and
//! compares every link of the chain against a cold run of the same spec
//! — including the full-fallback paths (structural and configuration
//! changes) and warm runs into a dependency cycle, which must fail with
//! the cold run's error.
//!
//! Beyond results, every resolved model a warm run hands back — task
//! activations, frame activations and outputs, unpacked signals — must
//! equal the cold run's, replayed ones included.
//!
//! Counter contract (see `docs/INCREMENTAL.md`): `global_iterations`
//! and `packing_ops` must equal the cold run's exactly; work counters
//! (busy-window iterations, analytic lifts and fallbacks, curve-cache
//! traffic) shrink on a warm run in proportion to the damage cone.

use proptest::prelude::*;

use hem_analysis::Priority;
use hem_autosar_com::{FrameType, TransferProperty};
use hem_can::{CanBusConfig, FrameFormat};
use hem_event_models::{EventModel, EventModelExt, ModelRef, StandardEventModel};
use hem_obs::MemoryRecorder;
use hem_system::{
    analyze_incremental, analyze_robust, ActivationSpec, AnalysisMode, FallbackReason, FrameSpec,
    IncrementalOutcome, RobustAnalysis, SignalSpec, SystemConfig, SystemError, SystemSpec,
    TaskSpec, WarmStart,
};
use hem_time::Time;

/// Tiny deterministic generator: the proptest case hands us a seed and
/// coarse sizes, this xorshift expands them into a concrete topology
/// and mutation walk.
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

fn periodic(rng: &mut Rng) -> ActivationSpec {
    let period = Time::new(2_000 + rng.pick(2_000) as i64);
    let model = if rng.pick(2) == 0 {
        StandardEventModel::periodic(period).expect("positive period")
    } else {
        let jitter = Time::new(rng.pick(400) as i64);
        StandardEventModel::periodic_with_jitter(period, jitter).expect("valid model")
    };
    ActivationSpec::External(model.shared())
}

/// A random — but always validation-clean and acyclic — system:
/// `buses` CAN buses with 1–2 frames each (packed signals from external
/// sources), `cpus` CPUs with 1–3 tasks each (activated externally, by
/// unpacked signals, by frame arrivals, or by earlier tasks' outputs).
/// Acyclic by construction: task outputs only feed later tasks, never
/// frames, so no run here meets a dependency cycle (warm runs into one
/// have their own tests below).
fn build_spec(seed: u64, buses: usize, cpus: usize) -> SystemSpec {
    let mut rng = Rng(seed);
    let mut spec = SystemSpec::new();

    let mut frame_signals: Vec<(String, Vec<String>)> = Vec::new();
    for b in 0..buses {
        spec = spec.bus(format!("bus{b}"), CanBusConfig::new(Time::new(1)));
        for f in 0..=rng.pick(2) as usize {
            let name = format!("f{b}_{f}");
            let mut signals = Vec::new();
            let mut signal_names = Vec::new();
            for s in 0..=rng.pick(2) as usize {
                let sig = format!("s{s}");
                signal_names.push(sig.clone());
                // The first signal always triggers — a frame with only
                // pending signals is a spec error (`NoTrigger`).
                signals.push(SignalSpec {
                    name: sig,
                    transfer: if s == 0 || rng.pick(2) == 0 {
                        TransferProperty::Triggering
                    } else {
                        TransferProperty::Pending
                    },
                    source: periodic(&mut rng),
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

    for c in 0..cpus {
        spec = spec.cpu(format!("cpu{c}"));
        let n_tasks = 1 + rng.pick(3) as usize;
        for t in 0..n_tasks {
            let name = format!("t{c}_{t}");
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
                2 if t > 0 => ActivationSpec::TaskOutput(format!("t{c}_{}", rng.pick(t as u64))),
                _ => periodic(&mut rng),
            };
            let wcet = Time::new(10 + rng.pick(60) as i64);
            spec = spec.task(TaskSpec {
                name,
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

/// Applies one random non-structural mutation, cloning the spec so
/// untouched external models keep their `Arc` allocations (the diff's
/// unchanged fingerprint). A rewire (arm 7) keeps every name and host,
/// so it warm-starts too, on a freshly derived topology.
fn mutate(spec: &SystemSpec, rng: &mut Rng) -> SystemSpec {
    let mut out = spec.clone();
    for _ in 0..8 {
        match rng.pick(8) {
            0 if !out.tasks.is_empty() => {
                let i = rng.pick(out.tasks.len() as u64) as usize;
                let wcet = Time::new(10 + rng.pick(60) as i64);
                out.tasks[i].wcet = wcet;
                out.tasks[i].bcet = wcet;
                return out;
            }
            // Swap two same-CPU tasks' priorities (priorities must stay
            // unique per resource).
            1 if !out.tasks.is_empty() => {
                let i = rng.pick(out.tasks.len() as u64) as usize;
                let cpu = out.tasks[i].cpu.clone();
                let j = out
                    .tasks
                    .iter()
                    .position(|t| t.cpu == cpu && t.name != out.tasks[i].name);
                if let Some(j) = j {
                    let (pi, pj) = (out.tasks[i].priority, out.tasks[j].priority);
                    out.tasks[i].priority = pj;
                    out.tasks[j].priority = pi;
                    return out;
                }
            }
            // Replace an external activation (period / jitter change).
            2 if !out.tasks.is_empty() => {
                let i = rng.pick(out.tasks.len() as u64) as usize;
                if matches!(out.tasks[i].activation, ActivationSpec::External(_)) {
                    out.tasks[i].activation = periodic(rng);
                    return out;
                }
            }
            3 if !out.frames.is_empty() => {
                let i = rng.pick(out.frames.len() as u64) as usize;
                out.frames[i].payload_bytes = 1 + rng.pick(8) as u8;
                return out;
            }
            // Swap two same-bus frames' priorities.
            4 if !out.frames.is_empty() => {
                let i = rng.pick(out.frames.len() as u64) as usize;
                let bus = out.frames[i].bus.clone();
                let j = out
                    .frames
                    .iter()
                    .position(|f| f.bus == bus && f.name != out.frames[i].name);
                if let Some(j) = j {
                    let (pi, pj) = (out.frames[i].priority, out.frames[j].priority);
                    out.frames[i].priority = pj;
                    out.frames[j].priority = pi;
                    return out;
                }
            }
            // Repack a frame: replace a signal's source model.
            5 if !out.frames.is_empty() => {
                let i = rng.pick(out.frames.len() as u64) as usize;
                if !out.frames[i].signals.is_empty() {
                    let s = rng.pick(out.frames[i].signals.len() as u64) as usize;
                    out.frames[i].signals[s].source = periodic(rng);
                    return out;
                }
            }
            6 if !out.buses.is_empty() => {
                let i = rng.pick(out.buses.len() as u64) as usize;
                out.buses[i].config = CanBusConfig::new(Time::new(1 + rng.pick(2) as i64));
                return out;
            }
            // Rewire without a structural change: retarget a task's
            // signal activation to a signal of a frame on another bus.
            7 if !out.tasks.is_empty() => {
                let i = rng.pick(out.tasks.len() as u64) as usize;
                let ActivationSpec::Signal { frame, .. } = &out.tasks[i].activation else {
                    continue;
                };
                let bus = &out
                    .frames
                    .iter()
                    .find(|f| f.name == *frame)
                    .expect("wired")
                    .bus;
                let others: Vec<&FrameSpec> = out.frames.iter().filter(|f| f.bus != *bus).collect();
                if others.is_empty() {
                    continue;
                }
                let target = others[rng.pick(others.len() as u64) as usize];
                let signal = &target.signals[rng.pick(target.signals.len() as u64) as usize];
                out.tasks[i].activation = ActivationSpec::Signal {
                    frame: target.name.clone(),
                    signal: signal.name.clone(),
                };
                return out;
            }
            _ => {}
        }
    }
    out
}

struct Run<O> {
    outcome: O,
    snapshot: hem_obs::MetricsSnapshot,
}

fn run_cold(spec: &SystemSpec, mode: AnalysisMode) -> Run<RobustAnalysis> {
    let (recorder, handle) = MemoryRecorder::handle();
    let config = SystemConfig::new(mode).with_recorder(handle);
    let outcome = analyze_robust(spec, &config).expect("generated specs are well-formed");
    Run {
        outcome,
        snapshot: recorder.snapshot(),
    }
}

fn run_warm(
    spec: &SystemSpec,
    mode: AnalysisMode,
    warm: Option<&WarmStart>,
) -> Run<IncrementalOutcome> {
    let (recorder, handle) = MemoryRecorder::handle();
    let config = SystemConfig::new(mode).with_recorder(handle);
    let outcome =
        analyze_incremental(spec, &config, warm).expect("generated specs are well-formed");
    Run {
        outcome,
        snapshot: recorder.snapshot(),
    }
}

/// Asserts two resolved models agree on δ⁻(n) and δ⁺(n) for
/// n ∈ [2, 64], or are both absent.
fn assert_same_model(warm: Option<&ModelRef>, cold: Option<&ModelRef>, what: &str) {
    match (warm, cold) {
        (None, None) => {}
        (Some(w), Some(c)) => {
            for n in 2..=64 {
                assert_eq!(w.delta_min(n), c.delta_min(n), "{what}: δ⁻({n})");
                assert_eq!(w.delta_plus(n), c.delta_plus(n), "{what}: δ⁺({n})");
            }
        }
        (w, c) => panic!(
            "{what}: present in warm run {}, in cold run {}",
            w.is_some(),
            c.is_some()
        ),
    }
}

/// Asserts a warm run's results and diagnostics are bit-for-bit the
/// cold run's, that every resolved model of `spec` it returns equals the
/// cold run's, and that the deterministic counter subset matches.
fn assert_matches_cold(
    spec: &SystemSpec,
    warm: &Run<IncrementalOutcome>,
    cold: &Run<RobustAnalysis>,
    label: &str,
) {
    let (wa, ca) = (&warm.outcome.analysis, &cold.outcome);
    assert_eq!(
        wa.results.is_complete(),
        ca.results.is_complete(),
        "{label}: completeness"
    );
    assert_eq!(
        wa.results.iterations(),
        ca.results.iterations(),
        "{label}: iterations"
    );
    assert_eq!(
        wa.results.response_times(),
        ca.results.response_times(),
        "{label}: response times"
    );
    assert_eq!(
        wa.results.tasks().collect::<Vec<_>>(),
        ca.results.tasks().collect::<Vec<_>>(),
        "{label}: task results"
    );
    assert_eq!(
        wa.results.frames().collect::<Vec<_>>(),
        ca.results.frames().collect::<Vec<_>>(),
        "{label}: frame results"
    );
    assert_eq!(wa.diagnostics.stop, ca.diagnostics.stop, "{label}: stop");
    assert_eq!(
        wa.diagnostics.trace(),
        ca.diagnostics.trace(),
        "{label}: trace"
    );
    assert_eq!(
        wa.diagnostics.diverging, ca.diagnostics.diverging,
        "{label}: diverging"
    );
    assert_eq!(
        wa.diagnostics.last_response_times(),
        ca.diagnostics.last_response_times(),
        "{label}: last rts"
    );
    assert_eq!(
        wa.diagnostics.previous_response_times(),
        ca.diagnostics.previous_response_times(),
        "{label}: previous rts"
    );
    assert_eq!(
        wa.diagnostics.suspected_bottleneck, ca.diagnostics.suspected_bottleneck,
        "{label}: bottleneck"
    );
    // Replayed models must be the models resolution would rebuild — a
    // replayed model that feeds no dirty entity is checked here too.
    let (wr, cr) = (&wa.results, &ca.results);
    for t in &spec.tasks {
        let what = format!("{label}: task_activation({})", t.name);
        assert_same_model(
            wr.task_activation(&t.name),
            cr.task_activation(&t.name),
            &what,
        );
    }
    for f in &spec.frames {
        let what = format!("{label}: frame_activation({})", f.name);
        assert_same_model(
            wr.frame_activation(&f.name),
            cr.frame_activation(&f.name),
            &what,
        );
        let what = format!("{label}: frame_output({})", f.name);
        assert_same_model(wr.frame_output(&f.name), cr.frame_output(&f.name), &what);
        for sig in &f.signals {
            let what = format!("{label}: unpacked_signal({}, {})", f.name, sig.name);
            assert_same_model(
                wr.unpacked_signal(&f.name, &sig.name),
                cr.unpacked_signal(&f.name, &sig.name),
                &what,
            );
        }
    }
    // Replay skips resolution and busy-window *work* on clean
    // resources, but a replayed packing enters the iteration's state
    // like a computed one: iteration and packing counts must be exactly
    // the cold run's.
    for counter in ["global_iterations", "packing_ops"] {
        assert_eq!(
            warm.snapshot.counters.get(counter),
            cold.snapshot.counters.get(counter),
            "{label}: counter {counter}"
        );
    }
}

/// Runs the mutation chain warm and cold and cross-checks every link.
fn check_chain(specs: &[SystemSpec], mode: AnalysisMode) {
    let colds: Vec<Run<RobustAnalysis>> = specs.iter().map(|s| run_cold(s, mode)).collect();
    let mut warm: Option<WarmStart> = None;
    for (step, spec) in specs.iter().enumerate() {
        let mut run = run_warm(spec, mode, warm.as_ref());
        let label = format!("step {step}");
        assert_matches_cold(spec, &run, &colds[step], &label);
        if step == 0 {
            assert_eq!(
                run.outcome.reuse.fallback,
                Some(FallbackReason::NoSnapshot),
                "{label}: first link is cold"
            );
        } else if colds[step - 1].outcome.results.is_complete() {
            assert!(run.outcome.reuse.warm, "{label}: expected warm reuse");
        }
        // Converged runs snapshot; stopped runs must not.
        assert_eq!(
            run.outcome.snapshot.is_some(),
            run.outcome.analysis.results.is_complete(),
            "{label}: snapshot presence"
        );
        warm = run.outcome.snapshot.take();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Single-mutation chains: spec → mutate → mutate, each link
    /// warm-started from the previous converged snapshot.
    #[test]
    fn warm_chains_equal_cold_runs(
        seed in 0u64..1 << 48,
        buses in 1usize..=2,
        cpus in 1usize..=2,
    ) {
        let mut rng = Rng(seed ^ 0xD1F7);
        let base = build_spec(seed, buses, cpus);
        let step1 = mutate(&base, &mut rng);
        let step2 = mutate(&step1, &mut rng);
        check_chain(&[base, step1, step2], AnalysisMode::Hierarchical);
    }

    /// Multi-entity mutations: several parameters change at once, the
    /// damage cone is the union, and equivalence still holds.
    #[test]
    fn multi_entity_mutations_equal_cold_runs(seed in 0u64..1 << 48) {
        let mut rng = Rng(seed ^ 0xBEEF);
        let base = build_spec(seed, 2, 2);
        let mut multi = mutate(&base, &mut rng);
        for _ in 0..3 {
            multi = mutate(&multi, &mut rng);
        }
        check_chain(&[base, multi], AnalysisMode::Hierarchical);
    }

    /// Flat mode replays the same machinery.
    #[test]
    fn flat_mode_chains_equal_cold_runs(seed in 0u64..1 << 48) {
        let mut rng = Rng(seed ^ 0xF1A7);
        let base = build_spec(seed, 2, 1);
        let step = mutate(&base, &mut rng);
        check_chain(&[base, step], AnalysisMode::Flat);
    }

    /// Structural changes (a task added) force a full fallback whose
    /// results still equal the cold run's.
    #[test]
    fn structural_changes_fall_back_and_equal_cold(seed in 0u64..1 << 48) {
        let base = build_spec(seed, 1, 1);
        let mut grown = base.clone().cpu("extra_cpu");
        grown = grown.task(TaskSpec {
            name: "extra_task".into(),
            cpu: "extra_cpu".into(),
            bcet: Time::new(10),
            wcet: Time::new(10),
            priority: Priority::new(1),
            activation: ActivationSpec::External(
                StandardEventModel::periodic(Time::new(5_000)).expect("valid").shared(),
            ),
        });
        let first = run_warm(&base, AnalysisMode::Hierarchical, None);
        let snapshot = first.outcome.snapshot;
        prop_assume!(snapshot.is_some());
        let second = run_warm(&grown, AnalysisMode::Hierarchical, snapshot.as_ref());
        assert_eq!(
            second.outcome.reuse.fallback,
            Some(FallbackReason::StructuralChange)
        );
        assert!(!second.outcome.reuse.warm);
        assert_eq!(second.outcome.reuse.replayed_results, 0);
        assert!((second.outcome.reuse.cone_fraction() - 1.0).abs() < f64::EPSILON);
        let cold = run_cold(&grown, AnalysisMode::Hierarchical);
        assert_matches_cold(&grown, &second, &cold, "structural");
    }
}

/// An unchanged spec replays everything: empty damage cone, every
/// per-entity analysis a warm-start hit, identical outputs.
#[test]
fn unchanged_spec_replays_fully() {
    let spec = build_spec(7, 2, 2);
    let cold = run_cold(&spec, AnalysisMode::Hierarchical);
    let first = run_warm(&spec, AnalysisMode::Hierarchical, None);
    let snapshot = first.outcome.snapshot.expect("converged");
    let second = run_warm(&spec, AnalysisMode::Hierarchical, Some(&snapshot));
    assert!(second.outcome.reuse.warm);
    assert!(second.outcome.reuse.dirty_resources.is_empty());
    assert_eq!(second.outcome.reuse.cone_fraction(), 0.0);
    let entities = (spec.tasks.len() + spec.frames.len()) as u64;
    assert_eq!(
        second.outcome.reuse.replayed_results,
        entities * cold.outcome.results.iterations(),
        "every entity of every iteration replays"
    );
    assert_matches_cold(&spec, &second, &cold, "unchanged spec");
    assert_eq!(
        second.snapshot.counters.get("warm_start_hits").copied(),
        Some(second.outcome.reuse.replayed_results)
    );
    assert_eq!(second.snapshot.counters.get("cone_size").copied(), Some(0));
    assert_eq!(
        second.snapshot.counters.get("full_fallbacks").copied(),
        Some(0)
    );
}

/// A rewire to a signal the frame does not carry is caught by the same
/// validation a cold run does: the warm path reports the identical
/// error instead of reusing the snapshot's topology.
#[test]
fn rewire_to_a_missing_signal_errors_like_a_cold_run() {
    let spec = build_spec(5, 2, 2);
    let first = run_warm(&spec, AnalysisMode::Hierarchical, None);
    let snapshot = first.outcome.snapshot.expect("converged");
    let mut dangling = spec.clone();
    dangling.tasks[0].activation = ActivationSpec::Signal {
        frame: spec.frames[0].name.clone(),
        signal: "ghost".into(),
    };
    let config = SystemConfig::new(AnalysisMode::Hierarchical);
    let warm = analyze_incremental(&dangling, &config, Some(&snapshot)).expect_err("dangling");
    let cold = analyze_robust(&dangling, &config).expect_err("dangling");
    assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
}

/// A configuration change (different mode) refuses reuse.
#[test]
fn config_changes_fall_back() {
    let spec = build_spec(11, 1, 1);
    let first = run_warm(&spec, AnalysisMode::Hierarchical, None);
    let snapshot = first.outcome.snapshot.expect("converged");
    let second = run_warm(&spec, AnalysisMode::Flat, Some(&snapshot));
    assert_eq!(
        second.outcome.reuse.fallback,
        Some(FallbackReason::ConfigChanged)
    );
    let cold = run_cold(&spec, AnalysisMode::Flat);
    assert_matches_cold(&spec, &second, &cold, "config change");
    assert_eq!(
        second.snapshot.counters.get("full_fallbacks").copied(),
        Some(1)
    );
}

/// An edit that adds a task and closes a resource-level cycle refuses
/// reuse as a structural change, and the cyclic system then fails
/// exactly like a cold run.
#[test]
fn cyclic_target_falls_back() {
    // Start acyclic: gateway task fed externally.
    let frame = |name: &str, bus: &str, source: ActivationSpec| FrameSpec {
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
    };
    let external = || {
        ActivationSpec::External(
            StandardEventModel::periodic(Time::new(4_000))
                .expect("valid")
                .shared(),
        )
    };
    let base = SystemSpec::new()
        .cpu("gw")
        .bus("b0", CanBusConfig::new(Time::new(1)))
        .bus("b1", CanBusConfig::new(Time::new(1)))
        .frame(frame("F0", "b0", external()))
        .frame(frame("F1", "b1", ActivationSpec::TaskOutput("t0".into())))
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
        });
    let first = run_warm(&base, AnalysisMode::Hierarchical, None);
    let snapshot = first.outcome.snapshot.expect("converged");
    // Close the loop: F0 now carries t1's output, and t1 reads F1 —
    // b0 → gw → b1 → gw is a resource-level cycle. The spec changed
    // structurally too (a task appeared), so either fallback reason is
    // sound; what matters is that no replay happens.
    let cyclic = {
        let mut s = base.clone();
        s.frames[0].signals[0].source = ActivationSpec::TaskOutput("t1".into());
        s.task(TaskSpec {
            name: "t1".into(),
            cpu: "gw".into(),
            bcet: Time::new(10),
            wcet: Time::new(10),
            priority: Priority::new(2),
            activation: ActivationSpec::Signal {
                frame: "F1".into(),
                signal: "x".into(),
            },
        })
    };
    let (recorder, handle) = MemoryRecorder::handle();
    let config = SystemConfig::new(AnalysisMode::Hierarchical).with_recorder(handle);
    let second = analyze_incremental(&cyclic, &config, Some(&snapshot));
    drop(recorder);
    // The cyclic system errors identically to the cold engine (the
    // cycle is a hard error), or degrades identically — either way the
    // cold path decides.
    let cold = analyze_robust(&cyclic, &SystemConfig::new(AnalysisMode::Hierarchical));
    match (second, cold) {
        (Ok(w), Ok(c)) => {
            assert!(!w.reuse.warm);
            assert_eq!(
                w.analysis.results.response_times(),
                c.results.response_times()
            );
        }
        (Err(w), Err(c)) => assert_eq!(format!("{w:?}"), format!("{c:?}")),
        (w, c) => panic!(
            "outcome kind differs: warm {:?} vs cold {:?}",
            w.as_ref().map(|_| "ok"),
            c.as_ref().map(|_| "ok"),
        ),
    }
}

/// A warm run into a dependency cycle: a rewire-only edit (no entity
/// added or removed) closes a bus → CPU → bus loop. The rewired frame's
/// bus is in the damage cone, and the cone is closed under dependents,
/// so every member of the loop is re-resolved and the warm run fails
/// with the cold run's error in every mode.
#[test]
fn rewire_into_a_cycle_errors_like_a_cold_run() {
    let frame = |name: &str, bus: &str, source: ActivationSpec| FrameSpec {
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
    };
    let task = |name: &str, prio: u32, frame: &str| TaskSpec {
        name: name.into(),
        cpu: "gw".into(),
        bcet: Time::new(10),
        wcet: Time::new(10),
        priority: Priority::new(prio),
        activation: ActivationSpec::Signal {
            frame: frame.into(),
            signal: "x".into(),
        },
    };
    // b0 → t0 on gw → b1 → t1 on gw: acyclic while F0 is fed externally.
    let base = SystemSpec::new()
        .cpu("gw")
        .bus("b0", CanBusConfig::new(Time::new(1)))
        .bus("b1", CanBusConfig::new(Time::new(1)))
        .frame(frame(
            "F0",
            "b0",
            ActivationSpec::External(
                StandardEventModel::periodic(Time::new(4_000))
                    .expect("valid")
                    .shared(),
            ),
        ))
        .frame(frame("F1", "b1", ActivationSpec::TaskOutput("t0".into())))
        .task(task("t0", 1, "F0"))
        .task(task("t1", 2, "F1"));
    let mut cyclic = base.clone();
    cyclic.frames[0].signals[0].source = ActivationSpec::TaskOutput("t1".into());
    for mode in [
        AnalysisMode::Flat,
        AnalysisMode::FlatSem,
        AnalysisMode::Hierarchical,
    ] {
        let first = run_warm(&base, mode, None);
        let snapshot = first.outcome.snapshot.expect("converged");
        let config = SystemConfig::new(mode);
        let warm = analyze_incremental(&cyclic, &config, Some(&snapshot)).expect_err("cycle");
        let cold = analyze_robust(&cyclic, &config).expect_err("cycle");
        assert_eq!(format!("{warm:?}"), format!("{cold:?}"), "{mode:?}");
        assert!(
            matches!(&cold, SystemError::DependencyCycle { name } if name == "F0"),
            "{mode:?}: {cold:?}"
        );
    }
}

/// Plan-time refusal: a snapshot re-targeted at a spec with a task
/// removed reports `StructuralChange` (not a panic inside cone
/// planning) and equals the cold run.
#[test]
fn cycle_in_unchanged_topology_is_refused_at_plan_time() {
    // A snapshot comes from a converged, hence acyclic, run, so no warm
    // run starts from a cyclic topology; what plan time can refuse is a
    // structural change.
    let base = build_spec(3, 1, 1);
    let first = run_warm(&base, AnalysisMode::Hierarchical, None);
    let snapshot = first.outcome.snapshot.expect("converged");
    let mut shrunk = base.clone();
    shrunk.tasks.pop();
    if shrunk.tasks.is_empty() {
        return;
    }
    let second = run_warm(&shrunk, AnalysisMode::Hierarchical, Some(&snapshot));
    assert_eq!(
        second.outcome.reuse.fallback,
        Some(FallbackReason::StructuralChange)
    );
    let cold = run_cold(&shrunk, AnalysisMode::Hierarchical);
    assert_matches_cold(&shrunk, &second, &cold, "shrunk topology");
}

/// `replicas` identical islands: bus `b<r>` carrying frame `F<r>` (a
/// triggering and a pending signal), and CPU `c<r>` with a receiver per
/// signal plus a task chained on the first receiver's output.
fn replica_grid(replicas: usize) -> SystemSpec {
    let periodic = |p: i64| {
        ActivationSpec::External(
            StandardEventModel::periodic(Time::new(p))
                .expect("valid")
                .shared(),
        )
    };
    let task = |name: String, cpu: &str, wcet: i64, prio: u32, activation| TaskSpec {
        name,
        cpu: cpu.into(),
        bcet: Time::new(wcet),
        wcet: Time::new(wcet),
        priority: Priority::new(prio),
        activation,
    };
    let mut spec = SystemSpec::new();
    for r in 0..replicas {
        let (bus, cpu, frame) = (format!("b{r}"), format!("c{r}"), format!("F{r}"));
        let signal = |name: &str| ActivationSpec::Signal {
            frame: frame.clone(),
            signal: name.into(),
        };
        spec = spec
            .bus(bus.clone(), CanBusConfig::new(Time::new(1)))
            .cpu(cpu.clone())
            .frame(FrameSpec {
                name: frame.clone(),
                bus,
                frame_type: FrameType::Direct,
                payload_bytes: 4,
                format: FrameFormat::Standard,
                priority: Priority::new(1),
                signals: vec![
                    SignalSpec {
                        name: "trig".into(),
                        transfer: TransferProperty::Triggering,
                        source: periodic(2_000),
                    },
                    SignalSpec {
                        name: "pend".into(),
                        transfer: TransferProperty::Pending,
                        source: periodic(3_000),
                    },
                ],
            })
            .task(task(format!("rx{r}"), &cpu, 40, 1, signal("trig")))
            .task(task(format!("rp{r}"), &cpu, 60, 2, signal("pend")))
            .task(task(
                format!("ch{r}"),
                &cpu,
                30,
                3,
                ActivationSpec::TaskOutput(format!("rx{r}")),
            ));
    }
    spec
}

fn counter(run: &Run<impl Sized>, name: &str) -> u64 {
    run.snapshot.counters.get(name).copied().unwrap_or(0)
}

/// Warm resolution costs O(damage cone): a clean resource's models are
/// replayed, never re-resolved or re-lifted. A silent fall-back to
/// re-resolving the whole system would still produce cold-equal
/// results, so only the work counters can catch it.
#[test]
fn warm_resolution_is_cone_proportional() {
    const REPLICAS: u64 = 8;
    let config = |handle| {
        SystemConfig::new(AnalysisMode::Hierarchical)
            .with_recorder(handle)
            .with_analytic(Some(true))
    };
    let run = |spec: &SystemSpec, warm: Option<&WarmStart>| {
        let (recorder, handle) = MemoryRecorder::handle();
        let outcome = analyze_incremental(spec, &config(handle), warm).expect("well-formed");
        Run {
            outcome,
            snapshot: recorder.snapshot(),
        }
    };
    let run_cold = |spec: &SystemSpec| {
        let (recorder, handle) = MemoryRecorder::handle();
        let outcome = analyze_robust(spec, &config(handle)).expect("well-formed");
        Run {
            outcome,
            snapshot: recorder.snapshot(),
        }
    };
    let spec = replica_grid(REPLICAS as usize);
    let first = run(&spec, None);
    assert!(counter(&first, "analytic_lifts") > 0);
    let snapshot = first.outcome.snapshot.as_ref().expect("converged");

    // Unchanged spec: nothing is resolved, lifted, or analysed.
    let unchanged = run(&spec, Some(snapshot));
    assert!(unchanged.outcome.reuse.dirty_resources.is_empty());
    for name in [
        "analytic_lifts",
        "analytic_fallbacks",
        "busy_window_iterations",
    ] {
        assert_eq!(counter(&unchanged, name), 0, "unchanged spec: {name}");
    }

    // Re-time replica 0's pending signal: its bus and CPU — one replica
    // of eight — are the damage cone, and exactly that share of the
    // cold run's lifts is redone.
    let mut edited = spec.clone();
    edited.frames[0].signals[1].source = ActivationSpec::External(
        StandardEventModel::periodic(Time::new(3_500))
            .expect("valid")
            .shared(),
    );
    let warm = run(&edited, Some(snapshot));
    assert_eq!(warm.outcome.reuse.dirty_resources, ["bus:b0", "cpu:c0"]);
    let cold = run_cold(&edited);
    assert_matches_cold(&edited, &warm, &cold, "one-replica edit");
    assert_eq!(counter(&cold, "analytic_fallbacks"), 0);
    assert_eq!(
        counter(&warm, "analytic_lifts") * REPLICAS,
        counter(&cold, "analytic_lifts"),
        "a one-replica edit lifts one replica's models"
    );
}

/// One bus of three external-fed frames (one with a pending signal)
/// and a CPU receiving four of their signals.
fn one_bus_spec() -> SystemSpec {
    let periodic = |p: i64| {
        ActivationSpec::External(
            StandardEventModel::periodic(Time::new(p))
                .expect("valid")
                .shared(),
        )
    };
    let signal = |name: &str, transfer, period| SignalSpec {
        name: name.into(),
        transfer,
        source: periodic(period),
    };
    let frame = |name: &str, prio: u32, signals| FrameSpec {
        name: name.into(),
        bus: "can".into(),
        frame_type: FrameType::Direct,
        payload_bytes: 4,
        format: FrameFormat::Standard,
        priority: Priority::new(prio),
        signals,
    };
    let receiver = |name: &str, frame: &str, signal: &str, wcet: i64, prio: u32| TaskSpec {
        name: name.into(),
        cpu: "ecu".into(),
        bcet: Time::new(wcet),
        wcet: Time::new(wcet),
        priority: Priority::new(prio),
        activation: ActivationSpec::Signal {
            frame: frame.into(),
            signal: signal.into(),
        },
    };
    use TransferProperty::{Pending, Triggering};
    SystemSpec::new()
        .cpu("ecu")
        .bus("can", CanBusConfig::new(Time::new(1)))
        .frame(frame(
            "F0",
            1,
            vec![signal("a", Triggering, 2_000), signal("b", Pending, 3_000)],
        ))
        .frame(frame("F1", 2, vec![signal("c", Triggering, 2_500)]))
        .frame(frame(
            "F2",
            3,
            vec![
                signal("d", Triggering, 4_000),
                signal("e", Triggering, 5_000),
            ],
        ))
        .task(receiver("ra", "F0", "a", 300, 1))
        .task(receiver("rb", "F0", "b", 400, 2))
        .task(receiver("rc", "F1", "c", 200, 3))
        .task(receiver("rd", "F2", "d", 250, 4))
}

/// Analyses `edited` warm from a snapshot of `base` and cold, asserts
/// the two agree bit for bit, and returns how many frame outer streams
/// the warm run did not lift again. The bus and the CPU are in every
/// edit's damage cone, so both runs lift the same receiver models; a
/// cold run lifts each external-fed frame's outer stream once (later
/// iterations carry it), and a warm run only those it repacks.
fn outer_lifts_saved(base: &SystemSpec, edited: &SystemSpec, label: &str) -> u64 {
    let config = |handle| {
        SystemConfig::new(AnalysisMode::Hierarchical)
            .with_recorder(handle)
            .with_analytic(Some(true))
    };
    let first = analyze_incremental(base, &SystemConfig::new(AnalysisMode::Hierarchical), None)
        .expect("well-formed");
    let snapshot = first.snapshot.expect("converged");
    let (recorder, handle) = MemoryRecorder::handle();
    let outcome = analyze_incremental(edited, &config(handle), Some(&snapshot)).expect("valid");
    let warm = Run {
        outcome,
        snapshot: recorder.snapshot(),
    };
    let (recorder, handle) = MemoryRecorder::handle();
    let cold = Run {
        outcome: analyze_robust(edited, &config(handle)).expect("well-formed"),
        snapshot: recorder.snapshot(),
    };
    assert!(warm.outcome.reuse.warm, "{label}: warm reuse");
    assert_eq!(
        warm.outcome.reuse.dirty_resources,
        ["bus:can", "cpu:ecu"],
        "{label}: cone"
    );
    assert!(cold.outcome.results.is_complete(), "{label}: converges");
    assert!(cold.outcome.results.iterations() >= 2, "{label}: iterates");
    assert_matches_cold(edited, &warm, &cold, label);
    assert_eq!(counter(&cold, "analytic_fallbacks"), 0, "{label}: lifts");
    // Carried packings still count once per iteration.
    assert_eq!(
        counter(&cold, "packing_ops"),
        edited.frames.len() as u64 * cold.outcome.results.iterations(),
        "{label}: packing_ops"
    );
    counter(&cold, "analytic_lifts") - counter(&warm, "analytic_lifts")
}

/// A priority or bus bit-time change touches no packing input (Def. 8
/// reads only the signal streams): every frame keeps its packing and
/// lifted outer stream, and the results are the cold run's.
#[test]
fn priority_and_bit_time_edits_keep_every_packing() {
    let base = one_bus_spec();
    let mut repriced = base.clone();
    repriced.frames[0].priority = Priority::new(2);
    repriced.frames[1].priority = Priority::new(1);
    repriced.tasks[0].priority = Priority::new(2);
    repriced.tasks[1].priority = Priority::new(1);
    assert_eq!(outer_lifts_saved(&base, &repriced, "priorities"), 3);
    let mut slower = base.clone();
    slower.buses[0].config = CanBusConfig::new(Time::new(2));
    assert_eq!(outer_lifts_saved(&base, &slower, "bit time"), 3);
}

/// A change to a packing input repacks exactly the frame it touches.
#[test]
fn packing_input_edits_repack_only_their_frame() {
    let base = one_bus_spec();
    let mut edits: Vec<(&str, SystemSpec)> = Vec::new();
    let mut source = base.clone();
    source.frames[1].signals[0].source = ActivationSpec::External(
        StandardEventModel::periodic(Time::new(2_200))
            .expect("valid")
            .shared(),
    );
    edits.push(("new source", source));
    let mut transfer = base.clone();
    transfer.frames[2].signals[1].transfer = TransferProperty::Pending;
    edits.push(("transfer", transfer));
    let mut payload = base.clone();
    payload.frames[0].payload_bytes = 6;
    edits.push(("payload", payload));
    let mut format = base.clone();
    format.frames[2].format = FrameFormat::Extended;
    edits.push(("format", format));
    let mut kind = base.clone();
    kind.frames[1].frame_type = FrameType::Mixed(Time::new(3_000));
    edits.push(("frame type", kind));
    for (label, edited) in &edits {
        assert_eq!(outer_lifts_saved(&base, edited, label), 2, "{label}");
    }
}
