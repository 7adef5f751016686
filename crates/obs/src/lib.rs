//! `hem-obs` — a lightweight, dependency-free observability layer.
//!
//! The global compositional analysis is an opaque fixed-point loop;
//! the simulator is an opaque event loop. This crate gives both a way
//! to explain themselves without perturbing the hot path:
//!
//! * [`Recorder`] — the signal sink trait: typed [`Counter`]s, named
//!   histograms, wall-clock spans, and raw Chrome trace events.
//!   [`NoopRecorder`] (the default) reduces every hot-path report to a
//!   single branch; [`MemoryRecorder`] collects everything in memory.
//! * [`RecorderHandle`] — the cloneable reference threaded through
//!   `AnalysisConfig` and the simulator entry points. An analysis runs
//!   sequentially and records straight into it; recorders are
//!   `Send + Sync`, so independent analyses fanned out over threads may
//!   share one — counter, label and histogram totals do not depend on
//!   the interleaving.
//! * [`ConvergenceTrace`] — the per-iteration response-time trajectory
//!   of a global analysis, so diagnostics can show *how* a run
//!   converged or diverged rather than just the last two vectors.
//! * Exporters — [`MetricsSnapshot::to_jsonl`] /
//!   [`MetricsSnapshot::to_json`] for metrics, and
//!   [`ChromeTrace::to_json`] emitting Chrome `trace_event` JSON that
//!   loads in Perfetto / `chrome://tracing`.
//! * [`json`] — the serde-free escaping and validation helpers behind
//!   the exporters.
//!
//! See `docs/OBSERVABILITY.md` for the end-to-end story.
//!
//! # Examples
//!
//! ```
//! use hem_obs::{Counter, MemoryRecorder, MetricsSnapshot};
//!
//! let (recorder, handle) = MemoryRecorder::handle();
//! handle.add(Counter::CacheHits, 3);
//! {
//!     let _span = handle.span("busy_window", "analysis");
//!     // ... timed work ...
//! }
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.counter(Counter::CacheHits), 3);
//! assert!(snapshot.to_jsonl().contains("cache_hits"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convergence;
pub mod json;
mod metrics;
mod recorder;
mod trace_event;

pub use convergence::{ConvergenceTrace, IterationSnapshot, RtBound};
pub use metrics::{Counter, Gauge, HistogramData, MetricsSnapshot};
pub use recorder::{MemoryRecorder, NoopRecorder, Recorder, RecorderHandle, Span};
pub use trace_event::{ArgValue, ChromeTrace, Phase, TraceEvent};

/// Histogram name for busy-window iteration counts per fixed point.
pub const HIST_BUSY_WINDOW_ITERATIONS: &str = "busy_window_iterations_per_fixed_point";
