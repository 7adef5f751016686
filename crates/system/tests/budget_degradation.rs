//! Acceptance test: an unschedulable spec analysed under a 100 ms
//! wall-clock budget returns promptly — not after the (deliberately
//! astronomical) iteration limits — and the diagnostics name the
//! diverging entity and the suspected bottleneck resource.

use std::time::{Duration, Instant};

use hem_analysis::AnalysisBudget;
use hem_event_models::EventModelExt as _;
use hem_system::{
    analyze, analyze_robust, ActivationSpec, AnalysisMode, SystemConfig, SystemError, SystemSpec,
    TaskSpec,
};
use hem_time::Time;

/// CPU utilization 90/100 + 50/200 = 115 %: the low-priority task's
/// busy window grows without bound.
fn unschedulable_spec() -> SystemSpec {
    let task = |name: &str, wcet: i64, prio: u32, period: i64| TaskSpec {
        name: name.into(),
        cpu: "cpu0".into(),
        bcet: Time::new(wcet),
        wcet: Time::new(wcet),
        priority: hem_analysis::Priority::new(prio),
        activation: ActivationSpec::External(
            hem_event_models::StandardEventModel::periodic(Time::new(period))
                .expect("valid")
                .shared(),
        ),
    };
    SystemSpec::new()
        .cpu("cpu0")
        .task(task("hog", 90, 1, 100))
        .task(task("victim", 50, 2, 200))
}

#[test]
fn unschedulable_spec_returns_within_budget_with_diagnostics() {
    // Raise the work limits so high that only the wall-clock budget can
    // stop the diverging busy window within the lifetime of the test.
    let mut config = SystemConfig::new(AnalysisMode::Flat);
    config.local.max_busy_window = Time::new(i64::MAX / 4);
    config.local.max_activations = u64::MAX / 2;
    config.local.max_iterations = u64::MAX / 2;
    config.local.budget = AnalysisBudget::within(Duration::from_millis(100));

    let started = Instant::now();
    let r = analyze_robust(&unschedulable_spec(), &config).expect("spec is well-formed");
    let elapsed = started.elapsed();

    // Cooperative cancellation polls every few busy-window iterations,
    // so the run ends within a small margin of the 100 ms deadline (the
    // generous cap guards against noisy CI machines, not precision).
    assert!(
        elapsed < Duration::from_secs(5),
        "analysis ran {elapsed:?} despite a 100 ms budget"
    );

    assert!(r.diagnostics.budget_exhausted());
    assert!(!r.results.is_complete());
    assert_eq!(
        r.diagnostics.prime_suspect(),
        Some("task:victim"),
        "diagnostics should name the diverging entity"
    );
    assert_eq!(
        r.diagnostics.suspected_bottleneck.as_deref(),
        Some("cpu:cpu0"),
        "diagnostics should point at the overloaded resource"
    );

    // The strict API reports the same condition as a typed error.
    let mut config = SystemConfig::new(AnalysisMode::Flat);
    config.local.max_busy_window = Time::new(i64::MAX / 4);
    config.local.max_activations = u64::MAX / 2;
    config.local.max_iterations = u64::MAX / 2;
    config.local.budget = AnalysisBudget::within(Duration::from_millis(100));
    let err = analyze(&unschedulable_spec(), &config).unwrap_err();
    assert!(matches!(
        err,
        SystemError::BudgetExhausted { .. } | SystemError::Analysis(_)
    ));
}

#[test]
fn schedulable_spec_is_untouched_by_a_generous_budget() {
    let mut spec = unschedulable_spec();
    spec.tasks[0].wcet = Time::new(30); // 30/100 + 50/200 = 55 %
    spec.tasks[0].bcet = Time::new(30);
    let mut config = SystemConfig::new(AnalysisMode::Flat);
    config.local.budget = AnalysisBudget::within(Duration::from_secs(30));
    let r = analyze_robust(&spec, &config).expect("well-formed");
    assert!(r.results.is_complete());
    assert!(r.diagnostics.converged());
    let unbudgeted = analyze(&spec, &SystemConfig::new(AnalysisMode::Flat)).expect("converges");
    assert_eq!(
        r.results.task("victim").map(|t| t.response),
        unbudgeted.task("victim").map(|t| t.response),
        "a non-binding budget must not change results"
    );
}

/// A two-island system (bus+cpu per island) whose warm-start replay has
/// real work to skip: mutating island 0 leaves island 1 clean.
fn two_island_spec() -> SystemSpec {
    use hem_analysis::Priority;
    use hem_autosar_com::{FrameType, TransferProperty};
    use hem_can::{CanBusConfig, FrameFormat};
    use hem_event_models::StandardEventModel;
    use hem_system::{FrameSpec, SignalSpec};

    let periodic = |p: i64| {
        ActivationSpec::External(
            StandardEventModel::periodic(Time::new(p))
                .expect("valid")
                .shared(),
        )
    };
    let frame = |name: &str, bus: &str, period: i64| FrameSpec {
        name: name.into(),
        bus: bus.into(),
        frame_type: FrameType::Direct,
        payload_bytes: 4,
        format: FrameFormat::Standard,
        priority: Priority::new(1),
        signals: vec![SignalSpec {
            name: "s".into(),
            transfer: TransferProperty::Triggering,
            source: periodic(period),
        }],
    };
    let task = |name: &str, cpu: &str, wcet: i64, frame: &str| TaskSpec {
        name: name.into(),
        cpu: cpu.into(),
        bcet: Time::new(wcet),
        wcet: Time::new(wcet),
        priority: hem_analysis::Priority::new(1),
        activation: ActivationSpec::Signal {
            frame: frame.into(),
            signal: "s".into(),
        },
    };
    SystemSpec::new()
        .cpu("cpu_a")
        .cpu("cpu_b")
        .bus("can0", CanBusConfig::new(Time::new(1)))
        .bus("can1", CanBusConfig::new(Time::new(1)))
        .frame(frame("F0", "can0", 500))
        .frame(frame("F1", "can1", 700))
        .task(task("t0", "cpu_a", 30, "F0"))
        .task(task("t1", "cpu_b", 40, "F1"))
}

/// Budget expiry during a warm-start replay degrades exactly like
/// `analyze_robust`: a graceful `BudgetExhausted` stop, no snapshot, no
/// panic — the replay loop polls the budget cooperatively.
#[test]
fn warm_replay_honors_exhausted_budget() {
    use hem_system::analyze_incremental;

    let spec = two_island_spec();
    let config = SystemConfig::new(AnalysisMode::Hierarchical);
    let first = analyze_incremental(&spec, &config, None).expect("well-formed");
    let snapshot = first.snapshot.expect("converged run snapshots");

    // Mutate island 0 only, then replay island 1 under a budget that is
    // already exhausted when the replay starts.
    let mut mutated = spec.clone();
    mutated.tasks[0].wcet = Time::new(35);
    let strict = SystemConfig::new(AnalysisMode::Hierarchical)
        .with_budget(AnalysisBudget::within(Duration::ZERO));
    let r = analyze_incremental(&mutated, &strict, Some(&snapshot)).expect("well-formed");
    assert!(
        r.analysis.diagnostics.budget_exhausted(),
        "expected BudgetExhausted, got {:?}",
        r.analysis.diagnostics.stop
    );
    assert!(!r.analysis.results.is_complete());
    assert!(
        r.snapshot.is_none(),
        "a stopped run must not produce a warm-start snapshot"
    );

    // A non-binding budget leaves the warm chain bit-identical to cold.
    let generous = SystemConfig::new(AnalysisMode::Hierarchical)
        .with_budget(AnalysisBudget::within(Duration::from_secs(30)));
    let warm = analyze_incremental(&mutated, &generous, Some(&snapshot)).expect("well-formed");
    assert!(warm.reuse.warm);
    assert!(warm.reuse.replayed_results > 0, "island 1 should replay");
    let cold = analyze_robust(&mutated, &config).expect("well-formed");
    assert_eq!(
        warm.analysis.results.response_times(),
        cold.results.response_times()
    );
    assert_eq!(warm.analysis.diagnostics.trace(), cold.diagnostics.trace());
}
