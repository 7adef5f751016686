//! The [`Recorder`] trait and its two built-in implementations.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::{Counter, Gauge, HistogramData, MetricsSnapshot};
use crate::trace_event::{ChromeTrace, TraceEvent};

/// A sink for observability signals.
///
/// Instrumented code reports through a [`RecorderHandle`]; the handle
/// dispatches to a `Recorder`. All methods default to no-ops so the
/// zero-cost [`NoopRecorder`] is the trivial implementation, and
/// implementors override only what they collect.
///
/// Hot paths must gate per-query reporting on
/// [`Recorder::enabled`] (see [`RecorderHandle::enabled`]), which lets
/// the disabled case reduce to one predictable branch.
pub trait Recorder: Send + Sync + fmt::Debug {
    /// Whether this recorder collects anything. Hot paths skip
    /// reporting entirely when `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `by` to a typed counter.
    fn add(&self, counter: Counter, by: u64) {
        let _ = (counter, by);
    }

    /// Adds `by` to the `label` breakdown of a typed counter (the
    /// unlabeled total is tracked separately — implementations count
    /// both).
    fn add_labeled(&self, counter: Counter, label: &str, by: u64) {
        let _ = (counter, label, by);
    }

    /// Sets a typed gauge to an absolute level (last write wins).
    fn set_gauge(&self, gauge: Gauge, value: u64) {
        let _ = (gauge, value);
    }

    /// Records one sample into the named histogram.
    fn observe(&self, histogram: &'static str, value: u64) {
        let _ = (histogram, value);
    }

    /// Emits a pre-built trace event (used by the simulator, whose
    /// timestamps are virtual time).
    fn emit(&self, event: TraceEvent) {
        let _ = event;
    }

    /// Closes a wall-clock span opened via [`RecorderHandle::span`].
    fn complete_span(&self, name: &'static str, cat: &'static str, start: Instant, dur: Duration) {
        let _ = (name, cat, start, dur);
    }
}

/// A recorder that collects nothing.
///
/// [`RecorderHandle::noop`] wraps this; with it, instrumented hot paths
/// reduce to a single `enabled()` check.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A shared, cloneable reference to a [`Recorder`].
///
/// This is the type threaded through configs
/// (`AnalysisConfig::recorder`). Cloning is an `Arc` clone; equality is
/// identity (two handles are equal when they point at the same
/// recorder), which keeps configs comparable.
#[derive(Clone)]
pub struct RecorderHandle(Arc<dyn Recorder>);

impl RecorderHandle {
    /// A handle to the shared no-op recorder.
    #[must_use]
    pub fn noop() -> Self {
        use std::sync::OnceLock;
        static SHARED: OnceLock<Arc<NoopRecorder>> = OnceLock::new();
        RecorderHandle(SHARED.get_or_init(|| Arc::new(NoopRecorder)).clone())
    }

    /// Wraps a recorder.
    #[must_use]
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        RecorderHandle(recorder)
    }

    /// Whether the underlying recorder collects anything.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.0.enabled()
    }

    /// Adds `by` to a typed counter.
    pub fn add(&self, counter: Counter, by: u64) {
        if self.0.enabled() {
            self.0.add(counter, by);
        }
    }

    /// Adds `by` to the `label` breakdown of a typed counter.
    pub fn add_labeled(&self, counter: Counter, label: &str, by: u64) {
        if self.0.enabled() {
            self.0.add_labeled(counter, label, by);
        }
    }

    /// Sets a typed gauge to an absolute level.
    pub fn set_gauge(&self, gauge: Gauge, value: u64) {
        if self.0.enabled() {
            self.0.set_gauge(gauge, value);
        }
    }

    /// Records one histogram sample.
    pub fn observe(&self, histogram: &'static str, value: u64) {
        if self.0.enabled() {
            self.0.observe(histogram, value);
        }
    }

    /// Emits a pre-built trace event.
    pub fn emit(&self, event: TraceEvent) {
        if self.0.enabled() {
            self.0.emit(event);
        }
    }

    /// Opens a wall-clock span; the returned guard reports a complete
    /// trace event (and a `span_us/<name>` histogram sample) when
    /// dropped. With a disabled recorder no clock is read.
    pub fn span(&self, name: &'static str, cat: &'static str) -> Span<'_> {
        Span {
            rec: self,
            name,
            cat,
            start: self.0.enabled().then(Instant::now),
        }
    }
}

impl fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RecorderHandle({:?})", self.0)
    }
}

impl Default for RecorderHandle {
    fn default() -> Self {
        RecorderHandle::noop()
    }
}

impl PartialEq for RecorderHandle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || (!self.0.enabled() && !other.0.enabled())
    }
}

impl Eq for RecorderHandle {}

/// A scoped wall-clock timer; see [`RecorderHandle::span`].
#[must_use = "a span measures until dropped"]
#[derive(Debug)]
pub struct Span<'r> {
    rec: &'r RecorderHandle,
    name: &'static str,
    cat: &'static str,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let dur = start.elapsed();
            self.rec.0.complete_span(self.name, self.cat, start, dur);
        }
    }
}

#[derive(Debug, Default)]
struct MemoryState {
    counters: [u64; Counter::ALL.len()],
    gauges: [u64; Gauge::ALL.len()],
    labeled: std::collections::BTreeMap<(usize, String), u64>,
    histograms: std::collections::BTreeMap<&'static str, HistogramData>,
    // Span durations keyed by raw span name; folded into `histograms`
    // under `span_us/<name>` at snapshot time. Keeping the raw key
    // here means the hot complete_span path takes exactly one lock —
    // the name-interning registry is only consulted when exporting.
    span_durs: std::collections::BTreeMap<&'static str, HistogramData>,
    events: Vec<TraceEvent>,
}

/// An in-memory [`Recorder`] backing the exporters.
///
/// Collects counters, histograms, and trace events behind one mutex;
/// [`MemoryRecorder::snapshot`] and [`MemoryRecorder::chrome_trace`]
/// copy the collected state out for export. Wall-clock spans are
/// timestamped relative to the recorder's construction instant.
///
/// When no trace sink will ever export the events, construct with
/// [`MemoryRecorder::metrics_only`]: counters, gauges, and histograms
/// (including `span_us/*`) are still collected, but [`Recorder::emit`]
/// and the trace-event half of [`Recorder::complete_span`] become
/// no-ops — the event buffer neither grows nor allocates, which keeps
/// always-on telemetry cheap on long-running servers.
#[derive(Debug)]
pub struct MemoryRecorder {
    epoch: Instant,
    collect_events: bool,
    state: Mutex<MemoryState>,
}

impl MemoryRecorder {
    /// An empty recorder; its epoch (trace time zero) is now.
    #[must_use]
    pub fn new() -> Self {
        MemoryRecorder {
            epoch: Instant::now(),
            collect_events: true,
            state: Mutex::new(MemoryState::default()),
        }
    }

    /// An empty recorder that collects metrics but discards trace
    /// events (see the type docs).
    #[must_use]
    pub fn metrics_only() -> Self {
        MemoryRecorder {
            collect_events: false,
            ..MemoryRecorder::new()
        }
    }

    /// A shared handle to a fresh recorder, plus the recorder itself
    /// for later export.
    #[must_use]
    pub fn handle() -> (Arc<MemoryRecorder>, RecorderHandle) {
        let rec = Arc::new(MemoryRecorder::new());
        let handle = RecorderHandle::new(rec.clone());
        (rec, handle)
    }

    /// [`MemoryRecorder::handle`], but metrics-only (trace events are
    /// discarded).
    #[must_use]
    pub fn metrics_only_handle() -> (Arc<MemoryRecorder>, RecorderHandle) {
        let rec = Arc::new(MemoryRecorder::metrics_only());
        let handle = RecorderHandle::new(rec.clone());
        (rec, handle)
    }

    /// Copies out all counters and histograms.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let state = self.state.lock().expect("recorder poisoned");
        let mut snap = MetricsSnapshot::default();
        for c in Counter::ALL {
            snap.counters.insert(c.name(), state.counters[c.index()]);
        }
        for g in Gauge::ALL {
            snap.gauges.insert(g.name(), state.gauges[g.index()]);
        }
        for ((idx, label), value) in &state.labeled {
            snap.labeled
                .insert((Counter::ALL[*idx].name(), label.clone()), *value);
        }
        for (name, h) in &state.histograms {
            snap.histograms.insert(name, h.clone());
        }
        for (name, h) in &state.span_durs {
            snap.histograms.insert(span_histogram(name), h.clone());
        }
        snap
    }

    /// Copies out the collected trace events as a Chrome trace,
    /// prefixed with `thread_name` metadata for every span category
    /// lane seen.
    #[must_use]
    pub fn chrome_trace(&self) -> ChromeTrace {
        let state = self.state.lock().expect("recorder poisoned");
        let mut events = Vec::with_capacity(state.events.len());
        events.extend(state.events.iter().cloned());
        ChromeTrace::new(events)
    }
}

impl Default for MemoryRecorder {
    fn default() -> Self {
        MemoryRecorder::new()
    }
}

impl Recorder for MemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, counter: Counter, by: u64) {
        let mut state = self.state.lock().expect("recorder poisoned");
        state.counters[counter.index()] += by;
    }

    fn add_labeled(&self, counter: Counter, label: &str, by: u64) {
        let mut state = self.state.lock().expect("recorder poisoned");
        state.counters[counter.index()] += by;
        *state
            .labeled
            .entry((counter.index(), label.to_string()))
            .or_insert(0) += by;
    }

    fn set_gauge(&self, gauge: Gauge, value: u64) {
        let mut state = self.state.lock().expect("recorder poisoned");
        state.gauges[gauge.index()] = value;
    }

    fn observe(&self, histogram: &'static str, value: u64) {
        let mut state = self.state.lock().expect("recorder poisoned");
        state.histograms.entry(histogram).or_default().record(value);
    }

    fn emit(&self, event: TraceEvent) {
        if !self.collect_events {
            return;
        }
        let mut state = self.state.lock().expect("recorder poisoned");
        state.events.push(event);
    }

    fn complete_span(&self, name: &'static str, cat: &'static str, start: Instant, dur: Duration) {
        let ts_us = start.saturating_duration_since(self.epoch).as_micros() as u64;
        let dur_us = dur.as_micros() as u64;
        let mut state = self.state.lock().expect("recorder poisoned");
        state.span_durs.entry(name).or_default().record(dur_us);
        if self.collect_events {
            state
                .events
                .push(TraceEvent::complete(name, cat, ts_us, dur_us, 0));
        }
    }
}

/// The histogram name spans of `name` record into. Leaks at most one
/// small string per distinct span name per process.
fn span_histogram(name: &'static str) -> &'static str {
    use std::collections::BTreeMap;
    use std::sync::OnceLock;
    static NAMES: OnceLock<Mutex<BTreeMap<&'static str, &'static str>>> = OnceLock::new();
    let map = NAMES.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = map.lock().expect("span name registry poisoned");
    map.entry(name)
        .or_insert_with(|| Box::leak(format!("span_us/{name}").into_boxed_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_is_disabled_and_cheap() {
        let h = RecorderHandle::noop();
        assert!(!h.enabled());
        h.add(Counter::CacheHits, 1);
        h.observe("x", 1);
        h.emit(TraceEvent::instant("a", "c", 0, 0));
        let span = h.span("s", "c");
        assert!(span.start.is_none());
        drop(span);
        assert_eq!(h, RecorderHandle::default());
    }

    #[test]
    fn memory_recorder_collects_counters_and_labels() {
        let (rec, h) = MemoryRecorder::handle();
        assert!(h.enabled());
        h.add(Counter::CacheHits, 2);
        h.add(Counter::CacheHits, 3);
        h.add_labeled(Counter::BusyWindowIterations, "T1", 7);
        h.add_labeled(Counter::BusyWindowIterations, "T2", 1);
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::CacheHits), 5);
        assert_eq!(snap.counter(Counter::BusyWindowIterations), 8);
        assert_eq!(snap.labeled_counter(Counter::BusyWindowIterations, "T1"), 7);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let (rec, h) = MemoryRecorder::handle();
        h.set_gauge(Gauge::QueueDepth, 7);
        h.set_gauge(Gauge::QueueDepth, 2);
        h.set_gauge(Gauge::SessionsLive, 4);
        let snap = rec.snapshot();
        assert_eq!(snap.gauge(Gauge::QueueDepth), 2);
        assert_eq!(snap.gauge(Gauge::SessionsLive), 4);
        // Unset gauges still export (stable key set), at zero.
        assert_eq!(snap.gauge(Gauge::WalBytes), 0);
        assert_eq!(snap.gauges.len(), Gauge::ALL.len());
    }

    #[test]
    fn spans_record_events_and_histograms() {
        let (rec, h) = MemoryRecorder::handle();
        {
            let _span = h.span("global_iteration", "engine");
            std::thread::sleep(Duration::from_millis(1));
        }
        let trace = rec.chrome_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.events[0].name, "global_iteration");
        assert!(trace.events[0].dur_us >= 1_000);
        let snap = rec.snapshot();
        let hist = &snap.histograms["span_us/global_iteration"];
        assert_eq!(hist.count, 1);
        assert!(hist.max >= 1_000);
    }

    #[test]
    fn metrics_only_keeps_histograms_but_drops_events() {
        let (rec, h) = MemoryRecorder::metrics_only_handle();
        assert!(h.enabled());
        h.add(Counter::CacheHits, 3);
        h.emit(TraceEvent::instant("dropped", "c", 1, 1));
        {
            let _span = h.span("global_iteration", "engine");
        }
        assert_eq!(rec.chrome_trace().len(), 0, "no trace events collected");
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::CacheHits), 3);
        assert_eq!(
            snap.histograms["span_us/global_iteration"].count, 1,
            "span histograms still recorded"
        );
    }

    #[test]
    fn emitted_events_pass_through() {
        let (rec, h) = MemoryRecorder::handle();
        h.emit(TraceEvent::instant("write s1", "com", 42, 2));
        let trace = rec.chrome_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.events[0].ts_us, 42);
    }

    #[test]
    fn handle_equality_is_identity() {
        let (_rec, h1) = MemoryRecorder::handle();
        let (_rec2, h2) = MemoryRecorder::handle();
        assert_eq!(h1.clone(), h1);
        assert_ne!(h1, h2);
        // All disabled handles compare equal (configs stay comparable).
        assert_eq!(RecorderHandle::noop(), RecorderHandle::noop());
    }
}
