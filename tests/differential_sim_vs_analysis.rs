//! Differential validation of the analysis engine against the
//! discrete-event simulator.
//!
//! A grid of seeded Fig. 2 variants — swept S3/S4 periods, CPU/bus
//! speed ratios, and source release jitter — is run through both the
//! hierarchical analysis and the fault-free simulation
//! (`hem_sim::network::run` on the system `hem_sim::from_spec` derives
//! from the same spec). For every variant the simulation must stay
//! within the analytic envelope:
//!
//! * observed worst-case response times ≤ analytic `r⁺` (tasks and
//!   frames),
//! * observed event counts ≤ the `η⁺` bound of the corresponding
//!   analytic stream (frame transmissions vs the frame-activation
//!   stream, signal deliveries vs the unpacked per-signal streams),
//! * and the hierarchical bounds never exceed the flat baseline.
//!
//! A violation in either direction is a soundness bug: simulation above
//! analysis means the analysis is optimistic; hierarchical above flat
//! means unpacking lost conservatism.

use std::collections::BTreeMap;

use hem_analysis::Priority;
use hem_autosar_com::{FrameType, TransferProperty};
use hem_bench::paper_system::PaperParams;
use hem_can::{CanBusConfig, FrameFormat};
use hem_event_models::{EventModelExt, StandardEventModel};
use hem_sim::from_spec::net_system_from_spec;
use hem_sim::network::{run, NetReport, NetSystem};
use hem_sim::trace;
use hem_system::{
    analyze, ActivationSpec, AnalysisMode, FrameSpec, SignalSpec, SystemConfig, SystemResults,
    SystemSpec, TaskSpec,
};
use hem_time::Time;

/// One grid point: a Fig. 2 variant plus the release jitter its
/// external sources may exhibit (paper units, like the periods).
#[derive(Debug, Clone, Copy)]
struct Variant {
    s3_period: i64,
    s4_period: i64,
    cpu_scale: i64,
    jitter: i64,
    seed: u64,
}

impl Variant {
    fn params(&self) -> PaperParams {
        PaperParams {
            s3_period: self.s3_period,
            s4_period: self.s4_period,
            cpu_scale: self.cpu_scale,
            ..PaperParams::default()
        }
    }

    fn jitter_ticks(&self) -> Time {
        Time::new(self.jitter * self.cpu_scale)
    }

    fn horizon(&self) -> Time {
        Time::new(25_000 * self.cpu_scale)
    }
}

/// The signals of the Fig. 2 system: (frame, signal, transfer, period
/// accessor).
fn signal_plan(p: &PaperParams) -> Vec<(&'static str, &'static str, TransferProperty, i64)> {
    vec![
        ("F1", "s1", TransferProperty::Triggering, 250),
        ("F1", "s2", TransferProperty::Triggering, 450),
        ("F1", "s3", TransferProperty::Pending, p.s3_period),
        ("F2", "s4", TransferProperty::Triggering, p.s4_period),
    ]
}

/// The analytic side of a variant: the paper spec with
/// periodic-with-jitter sources instead of strictly periodic ones.
fn analytic_spec(v: &Variant) -> SystemSpec {
    let p = v.params();
    let source = |period: i64| {
        ActivationSpec::External(
            StandardEventModel::periodic_with_jitter(p.period_ticks(period), v.jitter_ticks())
                .expect("valid source model")
                .shared(),
        )
    };
    let signals_of = |frame: &str| {
        signal_plan(&p)
            .into_iter()
            .filter(|(f, ..)| *f == frame)
            .map(|(_, name, transfer, period)| SignalSpec {
                name: name.into(),
                transfer,
                source: source(period),
            })
            .collect::<Vec<_>>()
    };
    let task = |name: &str, cet_index: usize, prio: u32, signal: &str| TaskSpec {
        name: name.into(),
        cpu: "cpu1".into(),
        bcet: p.cet_ticks(cet_index),
        wcet: p.cet_ticks(cet_index),
        priority: Priority::new(prio),
        activation: ActivationSpec::Signal {
            frame: "F1".into(),
            signal: signal.into(),
        },
    };
    SystemSpec::new()
        .cpu("cpu1")
        .bus("can", CanBusConfig::new(Time::new(p.bit_time)))
        .frame(FrameSpec {
            name: "F1".into(),
            bus: "can".into(),
            frame_type: FrameType::Direct,
            payload_bytes: 4,
            format: FrameFormat::Standard,
            priority: Priority::new(1),
            signals: signals_of("F1"),
        })
        .frame(FrameSpec {
            name: "F2".into(),
            bus: "can".into(),
            frame_type: FrameType::Direct,
            payload_bytes: 2,
            format: FrameFormat::Standard,
            priority: Priority::new(2),
            signals: signals_of("F2"),
        })
        .task(task("T1", 0, 1, "s1"))
        .task(task("T2", 1, 2, "s2"))
        .task(task("T3", 2, 3, "s3"))
}

/// The behavioural side of the same variant: [`analytic_spec`] run by
/// the fault-free simulator, its sources replaced by seeded jittered
/// write traces.
fn behavioural_system(v: &Variant) -> NetSystem {
    let p = v.params();
    let traces: BTreeMap<String, Vec<Time>> = signal_plan(&p)
        .into_iter()
        .enumerate()
        .map(|(salt, (frame, signal, _, period))| {
            let writes = trace::periodic_with_jitter(
                p.period_ticks(period),
                v.jitter_ticks(),
                v.horizon(),
                v.seed ^ (salt as u64 + 1),
            );
            (format!("{frame}/{signal}"), writes)
        })
        .collect();
    net_system_from_spec(&analytic_spec(v), &traces).expect("every source has a trace")
}

/// Simulates one variant and checks every observation against the
/// analytic envelope.
fn check_variant(v: &Variant) {
    let hem = analyze(
        &analytic_spec(v),
        &SystemConfig::new(AnalysisMode::Hierarchical),
    )
    .unwrap_or_else(|e| panic!("{v:?}: hierarchical analysis failed: {e}"));
    let flat = analyze(&analytic_spec(v), &SystemConfig::new(AnalysisMode::Flat))
        .unwrap_or_else(|e| panic!("{v:?}: flat analysis failed: {e}"));
    let report = run(&behavioural_system(v), v.horizon());

    // Response times: simulation ≤ hierarchical ≤ flat.
    for task in ["T1", "T2", "T3"] {
        let bound = hem.task(task).expect("task analysed").response.r_plus;
        let flat_bound = flat.task(task).expect("task analysed").response.r_plus;
        let observed = report.task_worst_response[task];
        assert!(
            observed <= bound,
            "{v:?}: {task} simulated {observed} > analytic {bound}"
        );
        assert!(
            bound <= flat_bound,
            "{v:?}: {task} hierarchical {bound} > flat {flat_bound}"
        );
    }
    for frame in ["F1", "F2"] {
        let bound = hem.frame(frame).expect("frame analysed").response.r_plus;
        let observed = report.frame_worst_response[frame];
        assert!(
            observed <= bound,
            "{v:?}: {frame} simulated {observed} > analytic {bound}"
        );
    }

    // Event counts: every observed stream stays under its η⁺ curve.
    check_counts(v, &hem, &report);
}

/// `η⁺` event-count bounds: transmissions against the frame-activation
/// stream, per-signal deliveries against the unpacked inner streams.
fn check_counts(v: &Variant, hem: &SystemResults, report: &NetReport) {
    let p = v.params();
    // All frame activations happen inside `[0, horizon)`; `+1` covers
    // closed-window edge effects conservatively.
    let activation_window = v.horizon() + Time::ONE;
    for frame in ["F1", "F2"] {
        let transmitted = report
            .frame_transmissions
            .get(frame)
            .map_or(0, |t| t.len() as u64);
        let bound = hem
            .frame_activation(frame)
            .expect("activation stream present")
            .eta_plus(activation_window);
        assert!(
            transmitted <= bound,
            "{v:?}: {frame} transmitted {transmitted} > η⁺ {bound}"
        );
        // Deliveries happen within a frame response time of the last
        // activation, so the delivery window extends by r⁺.
        let delivery_window =
            activation_window + hem.frame(frame).expect("frame analysed").response.r_plus;
        for (f, signal, ..) in signal_plan(&p) {
            if f != frame {
                continue;
            }
            let delivered = report
                .deliveries
                .get(&format!("{frame}/{signal}"))
                .map_or(0, |d| d.len() as u64);
            // The unpacked stream bounds the signal's deliveries; the
            // flat frame-output stream is the (coarser) fallback bound
            // for signals no task consumes.
            let model = hem
                .unpacked_signal(frame, signal)
                .or_else(|| hem.frame_output(frame))
                .expect("some output stream present");
            let bound = model.eta_plus(delivery_window);
            assert!(
                delivered <= bound,
                "{v:?}: {frame}/{signal} delivered {delivered} > η⁺ {bound}"
            );
        }
    }
}

/// The grid: S3/S4 period sweeps × bus/CPU speed ratio, jitter-free.
#[test]
fn jitter_free_grid_stays_within_bounds() {
    for s3_period in [450, 600, 750] {
        for s4_period in [300, 400] {
            for cpu_scale in [1, 10] {
                check_variant(&Variant {
                    s3_period,
                    s4_period,
                    cpu_scale,
                    jitter: 0,
                    seed: 0,
                });
            }
        }
    }
}

/// Seeded jittered variants: sources release up to 80 paper units late,
/// different seeds realise different interleavings — all must stay
/// inside the (jitter-aware) analytic envelope.
#[test]
fn seeded_jittered_grid_stays_within_bounds() {
    for s3_period in [450, 600] {
        for cpu_scale in [1, 10] {
            for seed in 0..3 {
                check_variant(&Variant {
                    s3_period,
                    s4_period: 400,
                    cpu_scale,
                    jitter: 80,
                    seed,
                });
            }
        }
    }
}

/// Heavy jitter on the literal (slow-bus) reading: bursts of
/// simultaneous frame activations stress the η⁺ count bounds rather
/// than just the response-time bounds.
#[test]
fn bursty_literal_variants_stay_within_bounds() {
    for seed in 0..4 {
        check_variant(&Variant {
            s3_period: 600,
            s4_period: 400,
            cpu_scale: 1,
            jitter: 260,
            seed,
        });
    }
}

/// Builds the external traces a corpus scenario's simulation needs:
/// one trace per `periodic:` signal source (keyed `frame/signal`) and
/// per `periodic:`-activated task (keyed `task:<name>`). Jittered
/// traces are admissible instances of the declared models by
/// construction.
fn corpus_traces(
    scenario: &hem_system::dsl::Scenario,
    horizon: Time,
    seed: u64,
) -> BTreeMap<String, Vec<Time>> {
    use hem_system::dsl::SourceDecl;
    let mut traces = BTreeMap::new();
    let mut salt = 0u64;
    let mut add = |key: String, period: i64, jitter: i64, salt: u64| {
        traces.insert(
            key,
            trace::periodic_with_jitter(Time::new(period), Time::new(jitter), horizon, seed ^ salt),
        );
    };
    for frame in &scenario.frames {
        for signal in &frame.signals {
            if let SourceDecl::Periodic { period, jitter } = signal.source {
                salt += 1;
                add(
                    format!("{}/{}", frame.name, signal.name),
                    period,
                    jitter,
                    salt,
                );
            }
        }
    }
    for task in &scenario.tasks {
        if let SourceDecl::Periodic { period, jitter } = task.activation {
            salt += 1;
            add(format!("task:{}", task.name), period, jitter, salt);
        }
    }
    traces
}

/// Every corpus scenario, simulated from its declared sources under an
/// empty fault plan, stays within both the flat and the hierarchical
/// analytic envelope — the directory-iterating counterpart of the
/// Fig. 2 variant grids above.
#[test]
fn corpus_simulations_stay_within_analysis_bounds() {
    use hem_sim::fault::FaultPlan;
    use hem_sim::from_spec::simulate_spec_under_faults;

    // Long enough that even the slowest corpus source (period 60000)
    // fires.
    let horizon = Time::new(100_000);
    for entry in hem_bench::scenarios::corpus() {
        let spec = entry.scenario.to_spec();
        let traces = corpus_traces(&entry.scenario, horizon, 0x5EED);
        let plan = FaultPlan::new(7); // no faults: plain worst-case run
        let report = simulate_spec_under_faults(&spec, &traces, horizon, &plan)
            .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", entry.name));
        for mode in [AnalysisMode::Flat, AnalysisMode::Hierarchical] {
            let bounds = analyze(&spec, &SystemConfig::new(mode))
                .unwrap_or_else(|e| panic!("{}: {mode:?} analysis failed: {e}", entry.name));
            for (frame, &observed) in &report.frame_worst_response {
                let bound = bounds.frame(frame).expect("frame analysed").response.r_plus;
                assert!(
                    observed <= bound,
                    "{}: {mode:?}: frame {frame} observed {observed} exceeds bound {bound}",
                    entry.name
                );
            }
            for (task, &observed) in &report.task_worst_response {
                let bound = bounds.task(task).expect("task analysed").response.r_plus;
                assert!(
                    observed <= bound,
                    "{}: {mode:?}: task {task} observed {observed} exceeds bound {bound}",
                    entry.name
                );
            }
        }
    }
}
