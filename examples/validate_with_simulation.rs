//! Analysis vs. behaviour: builds a two-frame CAN system, computes
//! response-time bounds with hierarchical event models, then runs the
//! discrete-event simulator on concrete traces and checks that every
//! observation stays within the analytic bounds.
//!
//! Run with `cargo run --example validate_with_simulation`.

use std::collections::BTreeMap;

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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (period_a, period_b) = (3000i64, 5000i64);

    // --- Analysis side -------------------------------------------------
    let spec = SystemSpec::new()
        .cpu("rx")
        .bus("can", CanBusConfig::new(Time::new(1)))
        .frame(FrameSpec {
            name: "FA".into(),
            bus: "can".into(),
            frame_type: FrameType::Direct,
            payload_bytes: 8,
            format: FrameFormat::Standard,
            priority: Priority::new(1),
            signals: vec![SignalSpec {
                name: "a".into(),
                transfer: TransferProperty::Triggering,
                source: ActivationSpec::External(
                    StandardEventModel::periodic(Time::new(period_a))?.shared(),
                ),
            }],
        })
        .frame(FrameSpec {
            name: "FB".into(),
            bus: "can".into(),
            frame_type: FrameType::Direct,
            payload_bytes: 2,
            format: FrameFormat::Standard,
            priority: Priority::new(2),
            signals: vec![SignalSpec {
                name: "b".into(),
                transfer: TransferProperty::Triggering,
                source: ActivationSpec::External(
                    StandardEventModel::periodic(Time::new(period_b))?.shared(),
                ),
            }],
        })
        .task(TaskSpec {
            name: "handler_a".into(),
            cpu: "rx".into(),
            bcet: Time::new(200),
            wcet: Time::new(200),
            priority: Priority::new(1),
            activation: ActivationSpec::Signal {
                frame: "FA".into(),
                signal: "a".into(),
            },
        })
        .task(TaskSpec {
            name: "handler_b".into(),
            cpu: "rx".into(),
            bcet: Time::new(700),
            wcet: Time::new(700),
            priority: Priority::new(2),
            activation: ActivationSpec::Signal {
                frame: "FB".into(),
                signal: "b".into(),
            },
        });
    let bounds = analyze(&spec, &SystemConfig::new(AnalysisMode::Hierarchical))?;

    // --- Behaviour side -------------------------------------------------
    // The simulated system is derived from the same spec; only the
    // concrete source traces are supplied here.
    let horizon = Time::new(1_000_000);
    let traces: BTreeMap<String, Vec<Time>> = [("FA/a", period_a), ("FB/b", period_b)]
        .into_iter()
        .map(|(key, period)| (key.to_string(), trace::periodic(Time::new(period), horizon)))
        .collect();
    let report = run(&net_system_from_spec(&spec, &traces)?, horizon);

    // --- Comparison ------------------------------------------------------
    println!(
        "{:<10} {:>12} {:>12} {:>8}",
        "entity", "observed R", "bound R+", "slack"
    );
    let mut ok = true;
    for name in ["FA", "FB"] {
        let observed = report.frame_worst_response[name];
        let bound = bounds.frame(name).expect("analysed").response.r_plus;
        ok &= observed <= bound;
        println!(
            "{name:<10} {observed:>12} {bound:>12} {:>8}",
            bound - observed
        );
    }
    for name in ["handler_a", "handler_b"] {
        let observed = report.task_worst_response[name];
        let bound = bounds.task(name).expect("analysed").response.r_plus;
        ok &= observed <= bound;
        println!(
            "{name:<10} {observed:>12} {bound:>12} {:>8}",
            bound - observed
        );
    }
    println!();
    if ok {
        println!("OK: every observation is within its analytic bound.");
        Ok(())
    } else {
        Err("bound violated — analysis would be unsound".into())
    }
}
