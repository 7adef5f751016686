//! The [`ConvergenceTrace`] in [`Diagnostics`] must reproduce the exact
//! per-iteration response-time vectors of the global fixed-point run.
//!
//! Exactness is checked two ways: against hand-derived values of a
//! system small enough to solve on paper, and against truncated re-runs
//! of the same analysis (`max_global_iterations = k` must reproduce the
//! first `k` snapshots byte for byte).

use hem_analysis::Priority;
use hem_autosar_com::{FrameType, TransferProperty};
use hem_can::{CanBusConfig, FrameFormat};
use hem_event_models::{EventModelExt, StandardEventModel};
use hem_obs::RtBound;
use hem_system::{
    analyze_robust, ActivationSpec, AnalysisMode, ConvergenceStatus, FrameSpec, SignalSpec,
    StopReason, SystemConfig, SystemSpec, TaskSpec,
};
use hem_time::Time;

/// One source → frame → bus → receiving task, all uncontended: the
/// response times are constant from the first iteration (frame
/// `[79, 95]`, task `[30, 30]`) and the fixed point is reached at
/// iteration 2.
fn mini_system() -> SystemSpec {
    SystemSpec::new()
        .cpu("cpu0")
        .bus("can0", CanBusConfig::new(Time::new(1)))
        .frame(FrameSpec {
            name: "F".into(),
            bus: "can0".into(),
            frame_type: FrameType::Direct,
            payload_bytes: 4,
            format: FrameFormat::Standard,
            priority: Priority::new(1),
            signals: vec![SignalSpec {
                name: "s".into(),
                transfer: TransferProperty::Triggering,
                source: ActivationSpec::External(
                    StandardEventModel::periodic(Time::new(500))
                        .expect("valid")
                        .shared(),
                ),
            }],
        })
        .task(TaskSpec {
            name: "rx".into(),
            cpu: "cpu0".into(),
            bcet: Time::new(30),
            wcet: Time::new(30),
            priority: Priority::new(1),
            activation: ActivationSpec::Signal {
                frame: "F".into(),
                signal: "s".into(),
            },
        })
}

#[test]
fn trace_matches_hand_derived_vectors() {
    let r = analyze_robust(
        &mini_system(),
        &SystemConfig::new(AnalysisMode::Hierarchical),
    )
    .expect("well-formed");
    assert!(r.diagnostics.converged());
    let trace = &r.diagnostics.trace();
    assert_eq!(trace.len() as u64, r.diagnostics.iterations);
    assert!(trace.len() >= 2, "fixed point needs a confirming iteration");
    for (i, snap) in trace.iterations().iter().enumerate() {
        assert_eq!(snap.iteration, i as u64 + 1, "iterations are 1-based");
        // Uncontended: every iteration computes the same local results.
        assert_eq!(
            snap.response_times.get("frame:F"),
            Some(&RtBound::new(79, 95)),
            "iteration {}",
            snap.iteration
        );
        assert_eq!(
            snap.response_times.get("task:rx"),
            Some(&RtBound::new(30, 30)),
            "iteration {}",
            snap.iteration
        );
        assert_eq!(
            snap.response_times.len(),
            2,
            "exactly the system's entities"
        );
    }
}

#[test]
fn trace_agrees_with_diagnostics_vectors() {
    let r = analyze_robust(
        &mini_system(),
        &SystemConfig::new(AnalysisMode::Hierarchical),
    )
    .expect("well-formed");
    let trace = r.diagnostics.trace();
    let last = trace.last().expect("non-empty");
    for (entity, rt) in &r.diagnostics.last_response_times() {
        assert_eq!(
            last.response_times.get(entity),
            Some(&RtBound::new(rt.r_minus.ticks(), rt.r_plus.ticks())),
            "trace must end on the converged vector ({entity})"
        );
    }
    assert_eq!(
        last.response_times.len(),
        r.diagnostics.last_response_times().len()
    );
}

#[test]
fn truncated_reruns_reproduce_trace_prefixes() {
    let spec = mini_system();
    let full =
        analyze_robust(&spec, &SystemConfig::new(AnalysisMode::Hierarchical)).expect("well-formed");
    let total = full.diagnostics.iterations;
    for k in 1..=total {
        let mut config = SystemConfig::new(AnalysisMode::Hierarchical);
        config.max_global_iterations = k;
        let partial = analyze_robust(&spec, &config).expect("well-formed");
        assert_eq!(partial.diagnostics.trace().len() as u64, k);
        assert_eq!(
            partial.diagnostics.trace().iterations(),
            &full.diagnostics.trace().iterations()[..k as usize],
            "the first {k} iterations must be reproduced exactly"
        );
    }
}

#[test]
fn converged_diagnostics_carry_iterations_and_elapsed() {
    let r = analyze_robust(
        &mini_system(),
        &SystemConfig::new(AnalysisMode::Hierarchical),
    )
    .expect("well-formed");
    assert!(r.diagnostics.converged());
    assert!(r.diagnostics.iterations >= 2);
    assert!(
        r.diagnostics.elapsed > std::time::Duration::ZERO,
        "successful runs report wall-clock time too"
    );
    let summary = r.diagnostics.summary();
    assert!(summary.contains("elapsed"), "{summary}");
}

/// A frame `x` carrying signal `s` on `can0`, and a task `x` on `cpu0`
/// activated by it, below a task `hog` of `hog_wcet` every 100 ticks.
/// Tasks and frames are separate namespaces, so the two `x` coexist.
fn colliding_names(x_wcet: i64, hog_wcet: i64) -> SystemSpec {
    let periodic = |p: i64| {
        ActivationSpec::External(
            StandardEventModel::periodic(Time::new(p))
                .expect("valid")
                .shared(),
        )
    };
    let task = |name: &str, wcet: i64, priority: u32, activation| TaskSpec {
        name: name.into(),
        cpu: "cpu0".into(),
        bcet: Time::new(wcet),
        wcet: Time::new(wcet),
        priority: Priority::new(priority),
        activation,
    };
    let signal = ActivationSpec::Signal {
        frame: "x".into(),
        signal: "s".into(),
    };
    SystemSpec::new()
        .cpu("cpu0")
        .bus("can0", CanBusConfig::new(Time::new(1)))
        .frame(FrameSpec {
            name: "x".into(),
            bus: "can0".into(),
            frame_type: FrameType::Direct,
            payload_bytes: 4,
            format: FrameFormat::Standard,
            priority: Priority::new(1),
            signals: vec![SignalSpec {
                name: "s".into(),
                transfer: TransferProperty::Triggering,
                source: periodic(200),
            }],
        })
        .task(task("hog", hog_wcet, 1, periodic(100)))
        .task(task("x", x_wcet, 2, signal))
}

#[test]
fn tasks_and_frames_sharing_a_name_keep_their_own_results() {
    let config = SystemConfig::new(AnalysisMode::Hierarchical);
    let r = analyze_robust(&colliding_names(30, 10), &config).expect("well-formed");
    assert!(r.results.is_complete());
    let task = r.results.task("x").expect("task x");
    let frame = r.results.frame("x").expect("frame x");
    assert_eq!((task.name.as_str(), frame.name.as_str()), ("x", "x"));
    assert_eq!(
        frame.response.r_plus,
        Time::new(95),
        "the frame's own bound"
    );
    assert!(
        task.response.r_plus >= Time::new(30),
        "the task's own bound"
    );
    assert_ne!(task.response, frame.response);
    assert!(r.results.task("s").is_none() && r.results.frame("hog").is_none());
    assert!(r.results.task_convergence("nope").is_none());
    assert!(r.results.frame_output("x").is_some() && r.results.frame_output("hog").is_none());
    assert!(r.results.unpacked_signal("x", "s").is_some());
    assert!(r.results.unpacked_signal("x", "t").is_none());

    let times = r.results.response_times();
    assert_eq!(times["task:x"], task.response);
    assert_eq!(times["frame:x"], frame.response);
    let trace = r.diagnostics.trace();
    let last = trace.last().expect("non-empty");
    assert_eq!(
        last.response_times.get("task:x"),
        Some(&RtBound::new(
            task.response.r_minus.ticks(),
            task.response.r_plus.ticks()
        ))
    );
    assert_eq!(
        last.response_times.get("frame:x"),
        Some(&RtBound::new(79, 95))
    );
    assert_eq!(r.diagnostics.last_response_times(), times);
}

#[test]
fn colliding_names_report_their_own_status_in_a_stopped_run() {
    // The overload of `budget_degradation.rs`: 90/100 + 50/200 = 115 %.
    let config = SystemConfig::new(AnalysisMode::Hierarchical);
    let r = analyze_robust(&colliding_names(50, 90), &config).expect("well-formed");
    assert!(!r.results.is_complete());
    assert!(matches!(
        &r.diagnostics.stop,
        StopReason::LocalAnalysisFailed { entity, .. } if entity == "task:x"
    ));
    assert_eq!(
        r.results.task_convergence("x"),
        Some(ConvergenceStatus::Failed)
    );
    assert_eq!(
        r.results.frame_convergence("x"),
        Some(ConvergenceStatus::Unknown),
        "the frame never completed an iteration"
    );
    assert!(r.results.task_convergence("nope").is_none());
    assert!(r.results.frame_convergence("hog").is_none());
    assert_eq!(
        r.diagnostics.suspected_bottleneck.as_deref(),
        Some("cpu:cpu0")
    );
}

#[test]
fn one_completed_iteration_has_no_previous_vector() {
    let mut config = SystemConfig::new(AnalysisMode::Hierarchical);
    config.max_global_iterations = 1;
    let r = analyze_robust(&colliding_names(30, 10), &config).expect("well-formed");
    assert_eq!(r.diagnostics.stop, StopReason::IterationLimitReached);
    let last = r.diagnostics.last_response_times();
    assert!(last.contains_key("task:x") && last.contains_key("frame:x"));
    assert!(r.diagnostics.previous_response_times().is_empty());
    assert_eq!(r.diagnostics.trace().len(), 1);
}
