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

/// The hierarchical convergence trace of Fig. 2: the first iteration
/// reaches Table 3's HEM bounds, and the second confirms them.
const FIG2_HIERARCHICAL_TRACE: &str = concat!(
    r#"{"iteration":1,"response_times":{"frame:F1":{"lower":79,"upper":265},"frame:F2":{"lower":63,"upper":265},"task:T1":{"lower":240,"upper":240},"task:T2":{"lower":320,"upper":560},"task:T3":{"lower":400,"upper":960}}}"#,
    "\n",
    r#"{"iteration":2,"response_times":{"frame:F1":{"lower":79,"upper":265},"frame:F2":{"lower":63,"upper":265},"task:T1":{"lower":240,"upper":240},"task:T2":{"lower":320,"upper":560},"task:T3":{"lower":400,"upper":960}}}"#,
    "\n",
);

/// Fig. 2 is feed-forward: no source reads a task's output, so the
/// second iteration reads nothing the first changed and replays it. A
/// cold run does exactly the work of a run stopped after one iteration,
/// yet still reports two iterations, four packings and the same trace.
#[test]
fn feed_forward_fixed_point_does_one_iteration_of_work() {
    let run = |mode, analytic, cap| {
        let (recorder, handle) = MemoryRecorder::handle();
        let mut config = SystemConfig::new(mode)
            .with_recorder(handle)
            .with_analytic(Some(analytic));
        if let Some(cap) = cap {
            config.max_global_iterations = cap;
        }
        let robust = analyze_robust(&spec(&PaperParams::default()), &config).expect("well-formed");
        (robust, recorder.snapshot())
    };
    let busy_windows = |snap: &MetricsSnapshot| -> Vec<(String, u64)> {
        snap.labeled
            .iter()
            .filter(|((name, _), _)| *name == Counter::BusyWindowIterations.name())
            .map(|((_, entity), &n)| (entity.clone(), n))
            .collect()
    };
    for mode in [AnalysisMode::Flat, AnalysisMode::Hierarchical] {
        for analytic in [false, true] {
            let (full, full_snap) = run(mode, analytic, None);
            let (one, one_snap) = run(mode, analytic, Some(1));
            let leg = format!("{mode:?}, analytic {analytic}");
            assert!(full.diagnostics.converged(), "{leg}");
            assert_eq!(full.diagnostics.iterations, 2, "{leg}");
            assert_eq!(full_snap.counter(Counter::GlobalIterations), 2, "{leg}");
            assert_eq!(full_snap.counter(Counter::PackingOps), 4, "{leg}");
            assert_eq!(one.diagnostics.iterations, 1, "{leg}");
            for counter in [Counter::BusyWindowIterations, Counter::AnalyticLifts] {
                assert_eq!(
                    full_snap.counter(counter),
                    one_snap.counter(counter),
                    "{leg}: {}",
                    counter.name()
                );
            }
            assert_eq!(busy_windows(&full_snap), busy_windows(&one_snap), "{leg}");
            assert_eq!(busy_windows(&full_snap).len(), 5, "{leg}");
            let (trace, first) = (full.diagnostics.trace(), one.diagnostics.trace());
            assert_eq!(trace.len(), 2, "{leg}");
            assert_eq!(trace.iterations()[0], first.iterations()[0], "{leg}");
            assert_eq!(
                trace.iterations()[0].response_times,
                trace.iterations()[1].response_times,
                "{leg}"
            );
            if mode == AnalysisMode::Hierarchical {
                assert_eq!(trace.to_jsonl(), FIG2_HIERARCHICAL_TRACE, "{leg}");
            }
        }
    }
}
