//! Golden-file tests for `render_result`, the served result body.
//!
//! The body is what a session materializes and what recovery must
//! reproduce byte for byte, so its exact bytes are pinned here for the
//! three shapes it takes: a converged analysis (the paper's Fig. 2
//! system), a run stopped by divergence detection (a partial body with
//! growing and unsettled statuses), and a run stopped by an exhausted
//! budget before any iteration completed. Regenerate the files after an
//! intentional format change with
//! `GOLDEN_REGEN=1 cargo test -p hem-server --test render_golden`.

use std::path::PathBuf;
use std::time::Duration;

use hem_analysis::AnalysisBudget;
use hem_server::session::render_result;
use hem_system::{analyze_robust, dsl, AnalysisMode, StopReason, SystemConfig};

fn golden(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, actual).expect("write golden file");
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file; if the change is intentional run \
         `GOLDEN_REGEN=1 cargo test -p hem-server --test render_golden`"
    );
}

/// The paper's Fig. 2 system.
const FIG2: &str = "\
cpu cpu1
bus can bit_time=1
frame F1 bus=can type=direct payload=4 prio=1
  signal s1 triggering periodic:2500
  signal s2 triggering periodic:4500
  signal s3 pending periodic:6000
frame F2 bus=can type=direct payload=2 prio=2
  signal s4 triggering periodic:4000
task T1 cpu=cpu1 cet=240 prio=1 activation=F1/s1
task T2 cpu=cpu1 cet=320 prio=2 activation=F1/s2
task T3 cpu=cpu1 cet=400 prio=3 activation=F1/s3
";

/// A jitter feedback loop: `echo` runs at top priority on `loop`'s own
/// output, so every iteration's response jitter of `loop` widens the
/// burst of `echo` that delays `loop` in the next. A frame and its
/// receiver on another CPU settle early.
const FEEDBACK: &str = "\
cpu c0
cpu c1
bus can bit_time=1
frame F bus=can type=direct payload=2 prio=1
  signal s triggering periodic:1000
task echo cpu=c0 cet=50 prio=1 activation=output:loop
task loop cpu=c0 bcet=1 wcet=45 prio=2 activation=periodic:100
task calm cpu=c1 cet=10 prio=1 activation=F/s
";

#[test]
fn converged_fig2_body() {
    let spec = dsl::parse(FIG2).expect("parses");
    let analysis =
        analyze_robust(&spec, &SystemConfig::new(AnalysisMode::Hierarchical)).expect("well-formed");
    assert!(analysis.results.is_complete());
    golden("result_converged.json", &render_result(&analysis));
}

#[test]
fn diverging_partial_body() {
    let spec = dsl::parse(FEEDBACK).expect("parses");
    let analysis =
        analyze_robust(&spec, &SystemConfig::new(AnalysisMode::Hierarchical)).expect("well-formed");
    assert!(!analysis.results.is_complete());
    assert!(
        matches!(
            analysis.diagnostics.stop,
            StopReason::DivergenceDetected { .. }
        ),
        "expected divergence detection, got {:?}",
        analysis.diagnostics.stop
    );
    golden("result_diverging.json", &render_result(&analysis));
}

#[test]
fn budget_stopped_body() {
    let spec = dsl::parse(FIG2).expect("parses");
    let config = SystemConfig::new(AnalysisMode::Hierarchical)
        .with_budget(AnalysisBudget::within(Duration::ZERO));
    let analysis = analyze_robust(&spec, &config).expect("well-formed");
    assert_eq!(analysis.diagnostics.stop, StopReason::BudgetExhausted);
    golden("result_budget.json", &render_result(&analysis));
}
