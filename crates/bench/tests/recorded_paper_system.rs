//! Recorded analysis of the paper's Fig. 2 / Table 3 system: the global
//! fixed point must record its work on both curve paths, and all
//! deterministic metrics must be identical across runs.

use hem_bench::paper_system::{spec, PaperParams};
use hem_obs::{Counter, MemoryRecorder, MetricsSnapshot};
use hem_system::{analyze_robust, AnalysisMode, SystemConfig};

fn recorded_run(mode: AnalysisMode) -> (MetricsSnapshot, u64) {
    // Pinned to the generic path, which queries every model directly
    // (docs/CURVES.md). The fast-path counters get their own test below.
    recorded_run_with(mode, false)
}

fn recorded_run_with(mode: AnalysisMode, analytic: bool) -> (MetricsSnapshot, u64) {
    let (recorder, handle) = MemoryRecorder::handle();
    let config = SystemConfig::new(mode)
        .with_recorder(handle)
        .with_analytic(Some(analytic));
    let robust = analyze_robust(&spec(&PaperParams::default()), &config).expect("well-formed");
    assert!(robust.diagnostics.converged(), "paper system converges");
    (recorder.snapshot(), robust.diagnostics.iterations)
}

#[test]
fn fig2_generic_fixed_point_records_its_work() {
    for mode in [AnalysisMode::Flat, AnalysisMode::Hierarchical] {
        let (snap, iterations) = recorded_run(mode);
        assert_eq!(
            snap.counter(Counter::AnalyticLifts) + snap.counter(Counter::AnalyticFallbacks),
            0,
            "{mode:?}: the generic path attempts no lifts"
        );
        assert_eq!(snap.counter(Counter::GlobalIterations), iterations);
        assert!(snap.counter(Counter::BusyWindowIterations) > 0);
        assert!(snap.counter(Counter::PackingOps) > 0);
    }
}

#[test]
fn fig2_fast_path_lifts_every_model() {
    for mode in [AnalysisMode::Flat, AnalysisMode::Hierarchical] {
        let (snap, _) = recorded_run_with(mode, true);
        // Every Fig. 2 model family has a closed-form lift, so the fast
        // path covers the whole system.
        assert!(
            snap.counter(Counter::AnalyticLifts) > 0,
            "{mode:?}: resolved models must lift"
        );
        assert_eq!(
            snap.counter(Counter::AnalyticFallbacks),
            0,
            "{mode:?}: the paper system lifts completely"
        );
    }
}

#[test]
fn recorded_metrics_are_deterministic_across_runs() {
    let (a, iters_a) = recorded_run(AnalysisMode::Hierarchical);
    let (b, iters_b) = recorded_run(AnalysisMode::Hierarchical);
    assert_eq!(iters_a, iters_b);
    // Counters and per-task breakdowns are exact event counts and must
    // match run for run; only the wall-clock span histograms may differ.
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.labeled, b.labeled);
    assert_eq!(
        a.histograms.get(hem_obs::HIST_BUSY_WINDOW_ITERATIONS),
        b.histograms.get(hem_obs::HIST_BUSY_WINDOW_ITERATIONS)
    );
}

#[test]
fn busy_window_iterations_break_down_per_task() {
    let (snap, _) = recorded_run(AnalysisMode::Hierarchical);
    let total = snap.counter(Counter::BusyWindowIterations);
    let labeled_sum: u64 = snap
        .labeled
        .iter()
        .filter(|((name, _), _)| *name == Counter::BusyWindowIterations.name())
        .map(|(_, v)| v)
        .sum();
    assert_eq!(
        total, labeled_sum,
        "every iteration is attributed to an entity"
    );
    assert!(
        snap.labeled
            .keys()
            .any(|(name, _)| *name == Counter::BusyWindowIterations.name()),
        "per-entity breakdown present"
    );
}
