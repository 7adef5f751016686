//! Human-readable analysis reports.
//!
//! Turns a converged [`SystemResults`] (plus its [`SystemSpec`]) into
//! the text report integrators read: frame responses per bus, task
//! responses per CPU, and end-to-end signal latencies. Binaries and
//! examples share this instead of re-implementing table printing.

use std::fmt::Write as _;

use hem_can::{BusFrame, CanFrameConfig};
use hem_obs::{Counter, MetricsSnapshot};
use hem_time::Time;

use crate::diagnostics::ConvergenceStatus;
use crate::engine::RobustAnalysis;
use crate::path::{analyze_path, signal_paths};
use crate::result::SystemResults;
use crate::spec::SystemSpec;

/// Table suffix for entities that did not converge.
fn status_marker(status: Option<ConvergenceStatus>) -> &'static str {
    match status {
        Some(ConvergenceStatus::Converged) | None => "",
        Some(ConvergenceStatus::Growing { .. }) => "  [DIVERGING]",
        Some(ConvergenceStatus::Unsettled) => "  [unsettled]",
        Some(ConvergenceStatus::Failed) => "  [FAILED]",
        Some(ConvergenceStatus::Unknown) => "  [not analysed]",
    }
}

/// Renders a full analysis report.
///
/// The output is stable, plain text (suitable for snapshot tests and
/// terminal review): sections for each bus, each CPU, and the signal
/// paths. Paths whose latency is unbounded (pending on a rate-less
/// frame) are reported as such rather than omitted.
#[must_use]
pub fn render(spec: &SystemSpec, results: &SystemResults) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "analysis report ({:?} mode, {} global iterations)",
        results.mode(),
        results.iterations()
    );
    if !results.is_complete() {
        let _ = writeln!(
            out,
            "WARNING: analysis did not converge — response times below are \
             lower bounds, not safe worst cases"
        );
    }

    for bus in &spec.buses {
        let _ = writeln!(out, "\nbus {}:", bus.name);
        let mut bus_frames = Vec::new();
        for f in spec.frames.iter().filter(|f| f.bus == bus.name) {
            if let Some(r) = results.frame(&f.name) {
                let _ = writeln!(
                    out,
                    "  frame {:<12} response {:>18} ({} signals, {} B){}",
                    f.name,
                    r.response.to_string(),
                    f.signals.len(),
                    f.payload_bytes,
                    status_marker(results.frame_convergence(&f.name))
                );
            }
            if let (Some(input), Ok(config)) = (
                results.frame_activation(&f.name),
                CanFrameConfig::new(f.format, f.payload_bytes),
            ) {
                bus_frames.push(BusFrame::new(
                    f.name.clone(),
                    config,
                    f.priority,
                    input.clone(),
                ));
            }
        }
        if !bus_frames.is_empty() {
            let load = hem_can::load::bus_load(&bus_frames, &bus.config, Time::new(1_000_000));
            let _ = writeln!(out, "  load  {:.1} %", 100.0 * load.total);
        }
    }

    for cpu in &spec.cpus {
        let _ = writeln!(out, "\ncpu {}:", cpu.name);
        for t in spec.tasks.iter().filter(|t| t.cpu == cpu.name) {
            if let Some(r) = results.task(&t.name) {
                let _ = writeln!(
                    out,
                    "  task  {:<12} response {:>18} (busy period: {} activation(s)){}",
                    t.name,
                    r.response.to_string(),
                    r.busy_activations,
                    status_marker(results.task_convergence(&t.name))
                );
            }
        }
    }

    let paths = signal_paths(spec);
    if !paths.is_empty() {
        let _ = writeln!(out, "\nsignal paths:");
        for p in paths {
            match analyze_path(spec, results, &p) {
                Ok(lat) => {
                    let _ = writeln!(
                        out,
                        "  {:<24} total {:>8}  (sampling {} + transport {} + reaction {}){}",
                        format!("{}/{} -> {}", p.frame, p.signal, p.task),
                        lat.total().to_string(),
                        lat.sampling,
                        lat.transport,
                        lat.reaction,
                        if lat.guaranteed_delivery {
                            ""
                        } else {
                            "  [freshest value only]"
                        }
                    );
                }
                Err(e) => {
                    let _ = writeln!(
                        out,
                        "  {:<24} {}",
                        format!("{}/{} -> {}", p.frame, p.signal, p.task),
                        e
                    );
                }
            }
        }
    }
    out
}

/// Renders a report for a robust analysis: the (possibly partial)
/// result table followed by the diagnostics post-mortem when the
/// analysis did not converge.
#[must_use]
pub fn render_robust(spec: &SystemSpec, robust: &RobustAnalysis) -> String {
    let mut out = render(spec, &robust.results);
    if !robust.diagnostics.converged() {
        let _ = writeln!(out, "\ndiagnostics:");
        for line in robust.diagnostics.summary().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    out
}

/// Renders the metrics section of a recorded run: counter totals and
/// histogram summaries collected by a
/// [`MemoryRecorder`](hem_obs::MemoryRecorder) while the analysis ran.
///
/// Zero counters are omitted — an unrecorded run renders as an empty
/// section rather than a wall of zeros.
#[must_use]
pub fn render_metrics(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("metrics:\n");
    for c in Counter::ALL {
        let value = snapshot.counter(c);
        if value > 0 {
            let _ = writeln!(out, "  {:<28} {value:>10}", c.name());
        }
    }
    for (name, h) in &snapshot.histograms {
        let _ = writeln!(
            out,
            "  {name:<28} n={} min={} mean={:.1} max={}",
            h.count,
            h.min,
            h.mean(),
            h.max
        );
    }
    out
}

/// Renders a full profiled report: the robust report, the per-iteration
/// convergence trajectory, and the recorded metrics.
#[must_use]
pub fn render_profiled(
    spec: &SystemSpec,
    robust: &RobustAnalysis,
    snapshot: &MetricsSnapshot,
) -> String {
    let mut out = render_robust(spec, robust);
    let trace = robust.diagnostics.trace();
    if !trace.is_empty() {
        let _ = writeln!(out, "\nconvergence trace (r+ per global iteration):");
        out.push_str(&trace.render_table());
    }
    out.push('\n');
    out.push_str(&render_metrics(snapshot));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::analyze;
    use crate::result::SystemConfig;
    use crate::spec::{ActivationSpec, AnalysisMode, FrameSpec, SignalSpec, TaskSpec};
    use hem_analysis::Priority;
    use hem_autosar_com::{FrameType, TransferProperty};
    use hem_can::{CanBusConfig, FrameFormat};
    use hem_event_models::{EventModelExt, StandardEventModel};
    use hem_time::Time;

    fn spec() -> SystemSpec {
        SystemSpec::new()
            .cpu("ecu")
            .bus("can", CanBusConfig::new(Time::new(1)))
            .frame(FrameSpec {
                name: "F".into(),
                bus: "can".into(),
                frame_type: FrameType::Direct,
                payload_bytes: 4,
                format: FrameFormat::Standard,
                priority: Priority::new(1),
                signals: vec![SignalSpec {
                    name: "s".into(),
                    transfer: TransferProperty::Triggering,
                    source: ActivationSpec::External(
                        StandardEventModel::periodic(Time::new(2_000))
                            .expect("valid")
                            .shared(),
                    ),
                }],
            })
            .task(TaskSpec {
                name: "rx".into(),
                cpu: "ecu".into(),
                bcet: Time::new(100),
                wcet: Time::new(100),
                priority: Priority::new(1),
                activation: ActivationSpec::Signal {
                    frame: "F".into(),
                    signal: "s".into(),
                },
            })
    }

    #[test]
    fn report_contains_all_sections() {
        let s = spec();
        let results = analyze(&s, &SystemConfig::new(AnalysisMode::Hierarchical)).unwrap();
        let text = render(&s, &results);
        assert!(text.contains("Hierarchical mode"), "{text}");
        assert!(text.contains("bus can:"), "{text}");
        assert!(text.contains("frame F"), "{text}");
        assert!(text.contains("cpu ecu:"), "{text}");
        assert!(text.contains("task  rx"), "{text}");
        assert!(text.contains("signal paths:"), "{text}");
        assert!(text.contains("F/s -> rx"), "{text}");
        // Concrete numbers for this uncontended system.
        assert!(text.contains("[79, 95]"), "{text}");
        assert!(text.contains("total      195"), "{text}");
        // Bus-load line: one 95-bit frame every 2000 ticks ≈ 4.8 %.
        assert!(text.contains("load  4.8 %"), "{text}");
    }

    #[test]
    fn robust_report_marks_partial_results() {
        let s = SystemSpec::new()
            .cpu("ecu")
            .task(TaskSpec {
                name: "hog".into(),
                cpu: "ecu".into(),
                bcet: Time::new(90),
                wcet: Time::new(90),
                priority: Priority::new(1),
                activation: ActivationSpec::External(
                    StandardEventModel::periodic(Time::new(100))
                        .expect("valid")
                        .shared(),
                ),
            })
            .task(TaskSpec {
                name: "victim".into(),
                cpu: "ecu".into(),
                bcet: Time::new(50),
                wcet: Time::new(50),
                priority: Priority::new(2),
                activation: ActivationSpec::External(
                    StandardEventModel::periodic(Time::new(200))
                        .expect("valid")
                        .shared(),
                ),
            });
        let robust =
            crate::analyze_robust(&s, &SystemConfig::new(AnalysisMode::Flat)).expect("well-formed");
        let text = render_robust(&s, &robust);
        assert!(text.contains("WARNING"), "{text}");
        assert!(text.contains("diagnostics:"), "{text}");
        assert!(text.contains("task:victim"), "{text}");
    }

    #[test]
    fn profiled_report_has_trace_and_metrics_sections() {
        use hem_obs::MemoryRecorder;
        let s = spec();
        let (recorder, handle) = MemoryRecorder::handle();
        let config = SystemConfig::new(AnalysisMode::Hierarchical).with_recorder(handle);
        let robust = crate::analyze_robust(&s, &config).expect("well-formed");
        let text = render_profiled(&s, &robust, &recorder.snapshot());
        assert!(text.contains("convergence trace"), "{text}");
        assert!(text.contains("metrics:"), "{text}");
        assert!(text.contains("global_iterations"), "{text}");
        assert!(text.contains("busy_window_iterations"), "{text}");
        assert!(text.contains("span_us/analyze"), "{text}");
        // An unrecorded run renders an empty metrics section, not zeros.
        let empty = render_metrics(&hem_obs::MetricsSnapshot::default());
        assert_eq!(empty, "metrics:\n");
    }

    #[test]
    fn pending_path_marked() {
        let mut s = spec();
        s.frames[0].signals.push(SignalSpec {
            name: "p".into(),
            transfer: TransferProperty::Pending,
            source: ActivationSpec::External(
                StandardEventModel::periodic(Time::new(9_000))
                    .expect("valid")
                    .shared(),
            ),
        });
        s.tasks.push(TaskSpec {
            name: "rx_p".into(),
            cpu: "ecu".into(),
            bcet: Time::new(50),
            wcet: Time::new(50),
            priority: Priority::new(2),
            activation: ActivationSpec::Signal {
                frame: "F".into(),
                signal: "p".into(),
            },
        });
        let results = analyze(&s, &SystemConfig::new(AnalysisMode::Hierarchical)).unwrap();
        let text = render(&s, &results);
        assert!(text.contains("[freshest value only]"), "{text}");
    }
}
