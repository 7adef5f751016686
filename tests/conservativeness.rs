//! Soundness of the whole pipeline on randomized systems: for randomly
//! generated COM/CAN/CPU systems, every response time and delivery trace
//! observed in behavioural simulation must stay within the bounds
//! computed by the hierarchical global analysis.
//!
//! This is the validation the paper's authors did against SymTA/S —
//! here executed mechanically against our own simulator.

use std::collections::BTreeMap;

use proptest::prelude::*;

use hem_repro::analysis::Priority;
use hem_repro::autosar_com::{FrameType, TransferProperty};
use hem_repro::can::{CanBusConfig, FrameFormat};
use hem_repro::event_models::{EventModelExt, StandardEventModel};
use hem_repro::sim::from_spec::net_system_from_spec;
use hem_repro::sim::network::run;
use hem_repro::sim::trace;
use hem_repro::system::{
    analyze, ActivationSpec, AnalysisMode, FrameSpec, SignalSpec, SystemConfig, SystemSpec,
    TaskSpec,
};
use hem_repro::time::Time;

/// A randomly drawn system small enough to stay schedulable.
#[derive(Debug, Clone)]
struct RandomSystem {
    /// Per frame: payload bytes and signal configs (period, pending).
    frames: Vec<(u8, Vec<(i64, bool)>)>,
    /// Per task: execution time and the (frame, signal) it listens to.
    tasks: Vec<(i64, usize, usize)>,
}

fn system_strategy() -> impl Strategy<Value = RandomSystem> {
    let signal = (2_000i64..8_000, any::<bool>());
    let frame = (1u8..=8, prop::collection::vec(signal, 1..=3));
    (
        prop::collection::vec(frame, 1..=3),
        prop::collection::vec((50i64..400, 0usize..3, 0usize..3), 1..=3),
    )
        .prop_map(|(mut frames, raw_tasks)| {
            // First signal of each frame must trigger (direct frames).
            for (_, signals) in &mut frames {
                signals[0].1 = false;
            }
            // Clamp task listeners to existing frames/signals.
            let tasks = raw_tasks
                .into_iter()
                .map(|(cet, f, s)| {
                    let f = f % frames.len();
                    let s = s % frames[f].1.len();
                    (cet, f, s)
                })
                .collect();
            RandomSystem { frames, tasks }
        })
}

fn to_spec(sys: &RandomSystem) -> SystemSpec {
    let mut spec = SystemSpec::new()
        .cpu("cpu")
        .bus("can", CanBusConfig::new(Time::new(1)));
    for (fi, (payload, signals)) in sys.frames.iter().enumerate() {
        spec = spec.frame(FrameSpec {
            name: format!("F{fi}"),
            bus: "can".into(),
            frame_type: FrameType::Direct,
            payload_bytes: *payload,
            format: FrameFormat::Standard,
            priority: Priority::new(fi as u32 + 1),
            signals: signals
                .iter()
                .enumerate()
                .map(|(si, (period, pending))| SignalSpec {
                    name: format!("s{si}"),
                    transfer: if *pending {
                        TransferProperty::Pending
                    } else {
                        TransferProperty::Triggering
                    },
                    source: ActivationSpec::External(
                        StandardEventModel::periodic(Time::new(*period))
                            .expect("positive period")
                            .shared(),
                    ),
                })
                .collect(),
        });
    }
    for (ti, (cet, f, s)) in sys.tasks.iter().enumerate() {
        spec = spec.task(TaskSpec {
            name: format!("T{ti}"),
            cpu: "cpu".into(),
            bcet: Time::new(*cet),
            wcet: Time::new(*cet),
            priority: Priority::new(ti as u32 + 1),
            activation: ActivationSpec::Signal {
                frame: format!("F{f}"),
                signal: format!("s{s}"),
            },
        });
    }
    spec
}

/// Seeded write traces for every signal of `sys`, keyed `F<i>/s<j>`
/// as [`net_system_from_spec`] expects.
fn source_traces(sys: &RandomSystem, horizon: Time, seed: u64) -> BTreeMap<String, Vec<Time>> {
    let mut traces = BTreeMap::new();
    for (fi, (_, signals)) in sys.frames.iter().enumerate() {
        for (si, (period, _)) in signals.iter().enumerate() {
            traces.insert(
                format!("F{fi}/s{si}"),
                trace::periodic_with_jitter(
                    Time::new(*period),
                    Time::ZERO,
                    horizon,
                    seed ^ (fi as u64) << 8 ^ si as u64,
                ),
            );
        }
    }
    traces
}

/// Guards the property below against silently degenerating into a no-op:
/// a healthy majority of random draws must be analysable (not overloaded).
#[test]
fn most_random_draws_are_analysable() {
    use proptest::strategy::ValueTree;
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::deterministic();
    let mut analysed = 0;
    for _ in 0..40 {
        let sys = system_strategy()
            .new_tree(&mut runner)
            .expect("strategy works")
            .current();
        if analyze(
            &to_spec(&sys),
            &SystemConfig::new(AnalysisMode::Hierarchical),
        )
        .is_ok()
        {
            analysed += 1;
        }
    }
    assert!(
        analysed >= 20,
        "only {analysed}/40 random systems analysable — the conservativeness \
         property would mostly skip"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simulated_behaviour_within_analysis_bounds(
        sys in system_strategy(),
        seed in 0u64..1_000,
    ) {
        let spec = to_spec(&sys);
        let results = match analyze(&spec, &SystemConfig::new(AnalysisMode::Hierarchical)) {
            Ok(r) => r,
            // Overloaded random draws are fine to skip — soundness only
            // claims anything about systems the analysis accepts.
            Err(_) => return Ok(()),
        };
        let horizon = Time::new(150_000);
        let traces = source_traces(&sys, horizon, seed);
        let sim = net_system_from_spec(&spec, &traces).expect("every source has a trace");
        let report = run(&sim, horizon);
        for (name, result) in results.frames() {
            let observed = report.frame_worst_response[name];
            prop_assert!(
                observed <= result.response.r_plus,
                "frame {} observed {} > bound {}", name, observed, result.response.r_plus
            );
        }
        for (name, result) in results.tasks() {
            let observed = report.task_worst_response[name];
            prop_assert!(
                observed <= result.response.r_plus,
                "task {} observed {} > bound {}", name, observed, result.response.r_plus
            );
        }
        // Delivery traces must be admissible for the unpacked models.
        for (fi, (_, signals)) in sys.frames.iter().enumerate() {
            for si in 0..signals.len() {
                let frame = format!("F{fi}");
                let signal = format!("s{si}");
                let deliveries = &report.deliveries[&format!("{frame}/{signal}")];
                if deliveries.len() < 2 {
                    continue;
                }
                let model = results
                    .unpacked_signal(&frame, &signal)
                    .expect("hierarchical mode stores all signals");
                prop_assert_eq!(
                    trace::check_admissible(deliveries, model.as_ref()),
                    None,
                    "deliveries of {}/{} violate the unpacked model", frame, signal
                );
            }
        }
    }
}
