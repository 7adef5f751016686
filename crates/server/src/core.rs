//! The protocol core: one JSON request line in, one response line out.
//!
//! [`ServerCore::handle_line`] is the entire server logic, independent
//! of any transport — the TCP layer, the in-process tests, and the
//! `load_gen` bench all drive exactly this function, so what the tests
//! pin down is what the wire serves.
//!
//! Robustness posture:
//!
//! * every request against a session runs under `catch_unwind`; a panic
//!   **quarantines** the session (the in-memory object — possibly
//!   mid-mutation, possibly holding a poisoned lock — is discarded) and
//!   rebuilds it from its WAL, so one poisoned request can never take
//!   down the server or corrupt durable state;
//! * deadlines arrive as `deadline_ms` and become an
//!   [`AnalysisBudget`]; an expired budget degrades to the last
//!   materialized result with `"stale":true` rather than an error;
//! * all failures are explicit `{"ok":false,"error":<kind>}` responses
//!   with stable kinds — clients never have to parse prose.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hem_analysis::AnalysisBudget;
use hem_obs::json::{self, JsonValue};
use hem_obs::{Counter, Gauge, MemoryRecorder, RecorderHandle, TraceEvent};

use crate::event::SessionEvent;
use crate::flight::{FlightRecord, FlightRecorder, Outcome, FLIGHT_FILE};
use crate::hash::id_hex;
use crate::session::{valid_name, Analyzed, AppendOutcome, Session, SessionEnv};
use crate::storage::{RealStorage, Storage};
use crate::trace;

/// Default WAL size that triggers a checkpoint + compaction.
pub const DEFAULT_CHECKPOINT_BYTES: u64 = 64 * 1024;

/// Construction-time knobs of a [`ServerCore`].
#[derive(Debug, Clone)]
pub struct CoreOptions {
    /// Directory holding one WAL (plus checkpoints) per session.
    pub data_dir: PathBuf,
    /// Enables `debug_panic`, the fault-injection op used by tests and
    /// the smoke driver. Never on in normal serving.
    pub test_ops: bool,
    /// Whether mutation appends `fsync` before being acknowledged.
    /// Defaults to `true`: an acked mutation survives a power cut.
    pub sync_appends: bool,
    /// WAL size (bytes) that triggers a checkpoint; `0` disables.
    pub checkpoint_bytes: u64,
    /// The storage all durable I/O goes through. Defaults to
    /// [`RealStorage`]; tests and the chaos harness substitute
    /// [`ChaosStorage`](crate::storage::ChaosStorage).
    pub storage: Arc<dyn Storage>,
    /// Master switch for serving telemetry (request scopes, latency
    /// histograms, the flight recorder). On by default; the overhead
    /// bench turns it off to measure the instrumented path against a
    /// true no-op baseline.
    pub observe: bool,
    /// Where the Chrome/Perfetto trace is exported on every flight
    /// dump. `None` (the default) keeps trace-event emission off
    /// entirely; spans still tick the logical clock for flight records.
    pub trace_out: Option<PathBuf>,
}

impl CoreOptions {
    /// Production defaults: real storage, synced appends, 64 KiB
    /// checkpoint threshold, debug ops off.
    #[must_use]
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        CoreOptions {
            data_dir: data_dir.into(),
            test_ops: false,
            sync_appends: true,
            checkpoint_bytes: DEFAULT_CHECKPOINT_BYTES,
            storage: Arc::new(RealStorage),
            observe: true,
            trace_out: None,
        }
    }

    /// Enables or disables the test-only ops (`debug_panic`).
    #[must_use]
    pub fn test_ops(mut self, on: bool) -> Self {
        self.test_ops = on;
        self
    }

    /// Sets whether appends `fsync` before acknowledging.
    #[must_use]
    pub fn sync_appends(mut self, on: bool) -> Self {
        self.sync_appends = on;
        self
    }

    /// Sets the checkpoint threshold in bytes (`0` disables).
    #[must_use]
    pub fn checkpoint_bytes(mut self, bytes: u64) -> Self {
        self.checkpoint_bytes = bytes;
        self
    }

    /// Substitutes the storage implementation.
    #[must_use]
    pub fn storage(mut self, storage: Arc<dyn Storage>) -> Self {
        self.storage = storage;
        self
    }

    /// Enables or disables serving telemetry (on by default).
    #[must_use]
    pub fn observe(mut self, on: bool) -> Self {
        self.observe = on;
        self
    }

    /// Sets the trace export path (enables trace-event emission).
    #[must_use]
    pub fn trace_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_out = Some(path.into());
        self
    }
}

/// Shared server state: the session map plus instrumentation.
pub struct ServerCore {
    env: SessionEnv,
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    metrics: RecorderHandle,
    recorder: Arc<MemoryRecorder>,
    /// Enables `debug_panic`, the fault-injection op used by tests and
    /// the smoke driver. Never on in normal serving.
    test_ops: bool,
    panics_isolated: AtomicU64,
    flight: FlightRecorder,
    /// Server-wide logical clock the per-request tick traces are
    /// spliced onto, so the exported trace is one consistent timeline.
    trace_clock: AtomicU64,
    observe: bool,
    trace_out: Option<PathBuf>,
}

impl std::fmt::Debug for ServerCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerCore")
            .field("data_dir", &self.env.data_dir)
            .field("test_ops", &self.test_ops)
            .finish()
    }
}

fn ok_prefix(op: &str) -> String {
    format!("{{\"ok\":true,\"op\":\"{op}\"")
}

/// A response line plus what dispatch knew about it: the outcome its
/// flight record is tagged with and the seq it acknowledged.
struct Reply {
    line: String,
    outcome: Outcome,
    seq: Option<u64>,
}

impl Reply {
    fn new(outcome: Outcome, seq: Option<u64>, line: String) -> Self {
        Reply { line, outcome, seq }
    }
}

fn error_response(kind: &'static str, message: &str) -> Reply {
    let mut out = String::from("{\"ok\":false,\"error\":");
    json::write_escaped(&mut out, kind);
    out.push_str(",\"message\":");
    json::write_escaped(&mut out, message);
    out.push('}');
    Reply::new(Outcome::Error(kind), None, out)
}

/// What serves an op: a server-wide handler, or one run against the
/// session the request names.
#[derive(Clone, Copy)]
enum Handler {
    Server(fn(&ServerCore) -> Reply),
    Session(fn(&ServerCore, &str, &JsonValue) -> Reply),
}

/// An op's `'static` name (its span, histogram and flight label), its
/// `queue_wait_us/…` and `service_us/…` histograms, and its handler.
type Route = (&'static str, [&'static str; 2], Option<Handler>);

/// The histograms of every op without its own series.
const OTHER: [&str; 2] = ["queue_wait_us/other", "service_us/other"];

/// The route of a request naming no known op: its label is `"?"`, so
/// labels stay a closed set.
const UNROUTED: Route = ("?", OTHER, None);

/// A parsed request line's route and addressing fields.
struct Request {
    route: Route,
    session: Option<String>,
    parsed: JsonValue,
}

impl ServerCore {
    /// Creates a core with production defaults serving sessions out of
    /// `data_dir` (created if absent).
    ///
    /// # Errors
    ///
    /// When the data directory cannot be created.
    pub fn new(data_dir: impl Into<PathBuf>, test_ops: bool) -> std::io::Result<Self> {
        Self::with_options(CoreOptions::new(data_dir).test_ops(test_ops))
    }

    /// Creates a core with explicit [`CoreOptions`] — the entry point
    /// for chaos storage, alternative durability policies, and custom
    /// checkpoint thresholds.
    ///
    /// # Errors
    ///
    /// When the data directory cannot be created.
    pub fn with_options(options: CoreOptions) -> std::io::Result<Self> {
        let CoreOptions {
            data_dir,
            test_ops,
            sync_appends,
            checkpoint_bytes,
            storage,
            observe,
            trace_out,
        } = options;
        storage.create_dir_all(&data_dir)?;
        // Without a trace sink the collected events could never be
        // exported, so don't pay for collecting them: the metrics-only
        // recorder keeps every counter/gauge/histogram (including
        // span_us/*) but drops the per-span trace events.
        let (recorder, real_metrics) = if trace_out.is_some() {
            MemoryRecorder::handle()
        } else {
            MemoryRecorder::metrics_only_handle()
        };
        // With telemetry off every record call must reduce to one
        // branch, so the core keeps a noop handle; the recorder still
        // exists (stats reads it) but nothing ever reaches it.
        let metrics = if observe {
            real_metrics
        } else {
            RecorderHandle::noop()
        };
        storage.attach_recorder(metrics.clone());
        if trace_out.is_some() {
            metrics.emit(TraceEvent::thread_name(trace::REQUEST_LANE, "requests"));
        }
        let env = SessionEnv {
            storage,
            data_dir,
            sync_appends,
            checkpoint_bytes,
            metrics: metrics.clone(),
        };
        Ok(ServerCore {
            env,
            sessions: Mutex::new(HashMap::new()),
            metrics,
            recorder,
            test_ops,
            panics_isolated: AtomicU64::new(0),
            flight: FlightRecorder::new(),
            trace_clock: AtomicU64::new(0),
            observe,
            trace_out,
        })
    }

    /// The metrics handle (shared with the queue for shed counting).
    #[must_use]
    pub fn metrics(&self) -> RecorderHandle {
        self.metrics.clone()
    }

    /// Number of requests whose panic was isolated so far.
    #[must_use]
    pub fn panics_isolated(&self) -> u64 {
        self.panics_isolated.load(Ordering::Relaxed)
    }

    /// Handles one request line, returning exactly one response line
    /// (no trailing newline). Never panics: request panics are caught,
    /// the touched session is quarantined and rebuilt from its WAL.
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_timed(line, None)
    }

    /// [`ServerCore::handle_line`] with the time the request spent
    /// waiting in the work queue, which lands in the per-op
    /// `queue_wait_us/...` histograms (service time is measured here).
    pub fn handle_line_timed(&self, line: &str, queue_wait: Option<Duration>) -> String {
        let request = Self::parse_request(line);
        if !self.observe {
            return match request {
                Ok(req) => self.dispatch_guarded(&req).line,
                Err(reply) => reply.line,
            };
        }
        let (route, session, req_seq) = match &request {
            Ok(req) => (
                req.route,
                req.session.as_deref(),
                req.parsed
                    .get("seq")
                    .and_then(JsonValue::as_f64)
                    .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                    .map_or(0, |n| n as u64),
            ),
            Err(_) => (UNROUTED, None, 0),
        };
        let (op, [queue_wait_us, service_us], _) = route;
        let id = trace::trace_id(session, req_seq);
        trace::begin_request(id, op, self.trace_out.is_some());
        let started = Instant::now();
        let (reply, session) = match request {
            Ok(req) => (self.dispatch_guarded(&req), req.session),
            Err(reply) => (reply, None),
        };
        let service = started.elapsed();
        let collected = trace::finish_request()
            .unwrap_or_else(|| unreachable!("begin_request installed a scope on this thread"));
        if let Some(wait) = queue_wait {
            self.metrics.observe(queue_wait_us, wait.as_micros() as u64);
        }
        self.metrics.observe(service_us, service.as_micros() as u64);
        if self.trace_out.is_some() {
            // Claim a contiguous tick range on the server-wide clock,
            // then splice the request-local spans into it.
            let base = self
                .trace_clock
                .fetch_add(collected.ticks, Ordering::Relaxed);
            for event in &collected.events {
                let mut event = event.clone();
                event.ts_us += base;
                self.metrics.emit(event);
            }
        }
        self.flight.push(FlightRecord {
            ordinal: 0, // assigned by the ring
            trace_id: id,
            op,
            session,
            outcome: reply.outcome,
            seq: reply.seq,
            ticks: collected.ticks,
            wal_bytes: collected.wal_bytes,
            ckpt_gen: collected.ckpt_gen,
        });
        match reply.outcome {
            Outcome::Panic => self.write_flight_dump("panic"),
            Outcome::OkRecovered => self.write_flight_dump("wal_recovery"),
            _ => {}
        }
        reply.line
    }

    /// Splits a request line into its route and addressing fields, or
    /// the error reply to send back.
    fn parse_request(line: &str) -> Result<Request, Reply> {
        let parsed = json::parse(line)
            .map_err(|e| error_response("bad_request", &format!("request JSON: {e}")))?;
        let Some(op) = parsed.get("op").and_then(JsonValue::as_str) else {
            return Err(error_response(
                "bad_request",
                "request needs a string \"op\"",
            ));
        };
        let route = Self::route(op);
        let session = parsed
            .get("session")
            .and_then(JsonValue::as_str)
            .map(String::from);
        Ok(Request {
            route,
            session,
            parsed,
        })
    }

    /// The op table. Only the serving-relevant ops get their own
    /// histogram series; the rest pool under `other`.
    fn route(op: &str) -> Route {
        use Handler::{Server, Session};
        match op {
            "ping" => ("ping", OTHER, Some(Server(Self::op_ping))),
            "stats" => ("stats", OTHER, Some(Server(Self::op_stats))),
            "metrics" => ("metrics", OTHER, Some(Server(Self::op_metrics))),
            "debug_dump" => ("debug_dump", OTHER, Some(Server(Self::op_debug_dump))),
            "open" => (
                "open",
                ["queue_wait_us/open", "service_us/open"],
                Some(Session(Self::op_open)),
            ),
            "mutate" => (
                "mutate",
                ["queue_wait_us/mutate", "service_us/mutate"],
                Some(Session(Self::op_mutate)),
            ),
            "analyze" => (
                "analyze",
                ["queue_wait_us/analyze", "service_us/analyze"],
                Some(Session(Self::op_analyze)),
            ),
            "result" => (
                "result",
                ["queue_wait_us/result", "service_us/result"],
                Some(Session(Self::op_result)),
            ),
            "close" => ("close", OTHER, Some(Session(Self::op_close))),
            "debug_panic" => ("debug_panic", OTHER, Some(Session(Self::op_debug_panic))),
            _ => UNROUTED,
        }
    }

    fn dispatch_guarded(&self, request: &Request) -> Reply {
        panic::catch_unwind(AssertUnwindSafe(|| self.dispatch(request))).unwrap_or_else(|_| {
            self.panics_isolated.fetch_add(1, Ordering::Relaxed);
            let recovered = request
                .session
                .as_deref()
                .is_some_and(|name| self.quarantine_and_rebuild(name));
            Reply::new(
                Outcome::Panic,
                None,
                format!("{{\"ok\":false,\"error\":\"panic\",\"message\":\"request panicked; session quarantined\",\"recovered\":{recovered}}}"),
            )
        })
    }

    /// Discards the in-memory session (whatever state the panic left it
    /// in) and rebuilds it from its WAL. Returns whether a rebuilt
    /// session is live again.
    fn quarantine_and_rebuild(&self, name: &str) -> bool {
        let mut sessions = self.sessions.lock().unwrap_or_else(|p| p.into_inner());
        sessions.remove(name);
        match Session::recover(&self.env, name) {
            Ok(Some((session, _report))) => {
                self.metrics.add(Counter::WalRecoveries, 1);
                sessions.insert(name.to_string(), Arc::new(Mutex::new(session)));
                true
            }
            Ok(None) | Err(_) => false,
        }
    }

    fn session(&self, name: &str) -> Result<Arc<Mutex<Session>>, Reply> {
        let sessions = self.sessions.lock().unwrap_or_else(|p| p.into_inner());
        sessions
            .get(name)
            .cloned()
            .ok_or_else(|| error_response("unknown_session", &format!("no open session {name:?}")))
    }

    fn dispatch(&self, request: &Request) -> Reply {
        match request.route.2 {
            Some(Handler::Server(op)) => op(self),
            Some(Handler::Session(op)) => match request.session.as_deref() {
                None => error_response("bad_request", "request needs a string \"session\""),
                Some(name) if !valid_name(name) => error_response(
                    "bad_request",
                    "session names are 1-64 chars of [A-Za-z0-9_-]",
                ),
                Some(name) => op(self, name, &request.parsed),
            },
            None => {
                let op = request.parsed.get("op").and_then(JsonValue::as_str);
                error_response("bad_request", &format!("unknown op {:?}", op.unwrap_or("")))
            }
        }
    }

    fn op_ping(&self) -> Reply {
        Reply::new(Outcome::Ok, None, format!("{}}}", ok_prefix("ping")))
    }

    fn op_open(&self, name: &str, request: &JsonValue) -> Reply {
        let Some(scenario) = request.get("scenario").and_then(JsonValue::as_str) else {
            return error_response("bad_request", "open needs a string \"scenario\"");
        };
        // Hold the map lock across the open so two racing opens of the
        // same name cannot both create WALs; opens are rare and cheap
        // (no analysis happens here).
        let mut sessions = self.sessions.lock().unwrap_or_else(|p| p.into_inner());
        let (seq, replayed, torn) = if let Some(existing) = sessions.get(name).cloned() {
            // Already live: idempotent iff the scenario matches the
            // log's opening entry.
            let Ok(session) = existing.lock() else {
                return error_response("recovering", "session is being rebuilt; retry");
            };
            let requested = crate::event::entry_id(
                0,
                &SessionEvent::Open {
                    scenario: scenario.to_string(),
                },
            );
            if requested != session.open_id() {
                return error_response(
                    "conflict",
                    "session is already open with a different scenario",
                );
            }
            (session.current_seq(), 0, false)
        } else {
            match Session::open(&self.env, name, scenario) {
                Ok((session, report)) => {
                    if report.torn {
                        self.metrics.add(Counter::WalRecoveries, 1);
                    }
                    self.metrics.add(Counter::SessionsOpen, 1);
                    let seq = session.current_seq();
                    sessions.insert(name.to_string(), Arc::new(Mutex::new(session)));
                    (seq, report.replayed, report.torn)
                }
                Err(e) => return error_response(e.kind(), &e.to_string()),
            }
        };
        let recovered = replayed > 0;
        Reply::new(
            if recovered {
                Outcome::OkRecovered
            } else {
                Outcome::Ok
            },
            Some(seq),
            format!(
                "{},\"session\":{},\"seq\":{seq},\"recovered\":{recovered},\"torn\":{torn}}}",
                ok_prefix("open"),
                json::escaped(name),
            ),
        )
    }

    fn op_mutate(&self, name: &str, request: &JsonValue) -> Reply {
        let slot = match self.session(name) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        let Some(event_json) = request.get("event") else {
            return error_response("bad_request", "mutate needs an \"event\" object");
        };
        let event = match SessionEvent::from_json(event_json) {
            Ok(e) => e,
            Err(e) => return error_response(e.kind, &e.message),
        };
        if matches!(event, SessionEvent::Open { .. }) {
            return error_response("bad_event", "open travels via the open op, not mutate");
        }
        let seq = match request.get("seq") {
            None | Some(JsonValue::Null) => None,
            Some(v) => match v.as_f64().filter(|n| n.fract() == 0.0 && *n >= 0.0) {
                Some(n) => Some(n as u64),
                None => {
                    return error_response("bad_request", "\"seq\" must be a non-negative integer")
                }
            },
        };
        let Ok(mut session) = slot.lock() else {
            return error_response("recovering", "session is being rebuilt; retry");
        };
        let (seq, id, outcome) = match session.append(seq, event) {
            Ok(AppendOutcome::Applied { seq, id }) => (seq, id, Outcome::Ok),
            Ok(AppendOutcome::Duplicate { seq, id }) => (seq, id, Outcome::OkDuplicate),
            Err(e) => return error_response(e.kind(), &e.to_string()),
        };
        let duplicate = outcome == Outcome::OkDuplicate;
        Reply::new(
            outcome,
            Some(seq),
            format!(
                "{},\"seq\":{seq},\"id\":\"{}\",\"duplicate\":{duplicate}}}",
                ok_prefix("mutate"),
                id_hex(id)
            ),
        )
    }

    fn op_analyze(&self, name: &str, request: &JsonValue) -> Reply {
        let slot = match self.session(name) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        let budget = match request.get("deadline_ms") {
            None | Some(JsonValue::Null) => AnalysisBudget::UNLIMITED,
            Some(v) => match v.as_f64().filter(|n| *n >= 0.0 && n.is_finite()) {
                Some(ms) => AnalysisBudget::within(Duration::from_micros((ms * 1000.0) as u64)),
                None => {
                    return error_response(
                        "bad_request",
                        "\"deadline_ms\" must be a non-negative number",
                    )
                }
            },
        };
        let Ok(mut session) = slot.lock() else {
            return error_response("recovering", "session is being rebuilt; retry");
        };
        let current = session.current_seq();
        let prefix = ok_prefix("analyze");
        let (outcome, line) = match session.analyze(budget) {
            Ok(Analyzed::Fresh { body, replayed }) => (
                Outcome::Ok,
                format!("{prefix},\"seq\":{current},\"stale\":false,\"replayed\":{replayed},\"result\":{body}}}"),
            ),
            Ok(Analyzed::Stale { body, seq }) => {
                self.metrics.add(Counter::StaleServed, 1);
                (
                    Outcome::OkStale,
                    format!("{prefix},\"seq\":{current},\"stale\":true,\"result_seq\":{seq},\"result\":{body}}}"),
                )
            }
            Ok(Analyzed::Partial { body }) => (
                Outcome::Ok,
                format!("{prefix},\"seq\":{current},\"stale\":false,\"result\":{body}}}"),
            ),
            Err(e) => return error_response(e.kind(), &e.to_string()),
        };
        Reply::new(outcome, Some(current), line)
    }

    fn op_result(&self, name: &str, _: &JsonValue) -> Reply {
        let slot = match self.session(name) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        let Ok(session) = slot.lock() else {
            return error_response("recovering", "session is being rebuilt; retry");
        };
        let Some((m, stale)) = session.last_result() else {
            return error_response("no_result", "session has no materialized result yet");
        };
        let seq = session.current_seq();
        Reply::new(
            if stale { Outcome::OkStale } else { Outcome::Ok },
            Some(seq),
            format!(
                "{},\"seq\":{seq},\"stale\":{stale},\"result_seq\":{},\"result\":{}}}",
                ok_prefix("result"),
                m.seq,
                m.body
            ),
        )
    }

    fn op_close(&self, name: &str, _: &JsonValue) -> Reply {
        let mut sessions = self.sessions.lock().unwrap_or_else(|p| p.into_inner());
        match sessions.remove(name) {
            Some(_) => Reply::new(Outcome::Ok, None, format!("{}}}", ok_prefix("close"))),
            None => error_response("unknown_session", &format!("no open session {name:?}")),
        }
    }

    fn op_debug_panic(&self, name: &str, _: &JsonValue) -> Reply {
        if !self.test_ops {
            return error_response("bad_request", "debug ops are disabled");
        }
        let slot = match self.session(name) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        // Panic while *holding* the session lock: the worst case the
        // quarantine path must absorb (poisoned mutex, half-done op).
        let _guard = slot.lock();
        panic!("injected debug panic in session {name}");
    }

    fn op_stats(&self) -> Reply {
        self.refresh_gauges();
        let sessions = {
            let map = self.sessions.lock().unwrap_or_else(|p| p.into_inner());
            map.len()
        };
        let snapshot = self.recorder.snapshot();
        let mut out = format!(
            "{},\"sessions\":{sessions},\"panics_isolated\":{},\"uptime_ticks\":{},\"queue_depth\":{},\"checkpoint_generation\":{},\"counters\":{{",
            ok_prefix("stats"),
            self.panics_isolated(),
            self.flight.recorded(),
            snapshot.gauge(Gauge::QueueDepth),
            snapshot.gauge(Gauge::CheckpointGeneration),
        );
        for (i, (name, value)) in snapshot.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push_str("}}");
        Reply::new(Outcome::Ok, None, out)
    }

    fn op_metrics(&self) -> Reply {
        self.refresh_gauges();
        let snapshot = self.recorder.snapshot();
        let mut out = format!(
            "{},\"snapshot\":{},\"exposition\":",
            ok_prefix("metrics"),
            snapshot.to_json()
        );
        json::write_escaped(&mut out, &snapshot.to_prometheus());
        out.push('}');
        Reply::new(Outcome::Ok, None, out)
    }

    fn op_debug_dump(&self) -> Reply {
        let records = self.flight.snapshot();
        let mut out = format!(
            "{},\"recorded\":{},\"records\":[",
            ok_prefix("debug_dump"),
            self.flight.recorded()
        );
        for (i, record) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&record.to_json());
        }
        out.push_str("]}");
        Reply::new(Outcome::Ok, None, out)
    }

    /// Recomputes the session-derived gauges from the live map; the
    /// queue-depth gauge is owned by the work queue and left alone.
    fn refresh_gauges(&self) {
        if !self.observe {
            return;
        }
        let (live, wal_bytes, ckpt_gen) = {
            let map = self.sessions.lock().unwrap_or_else(|p| p.into_inner());
            let mut wal_bytes = 0u64;
            let mut ckpt_gen = 0u64;
            for slot in map.values() {
                if let Ok(session) = slot.lock() {
                    wal_bytes += session.wal_bytes();
                    ckpt_gen = ckpt_gen.max(session.checkpoint_generation().unwrap_or(0));
                }
            }
            (map.len() as u64, wal_bytes, ckpt_gen)
        };
        self.metrics.set_gauge(Gauge::SessionsLive, live);
        self.metrics.set_gauge(Gauge::WalBytes, wal_bytes);
        self.metrics
            .set_gauge(Gauge::CheckpointGeneration, ckpt_gen);
        self.metrics
            .set_gauge(Gauge::UptimeTicks, self.flight.recorded());
    }

    /// Dumps the flight ring (and the trace, when tracing) to durable
    /// storage. Best-effort by design: a dump is forensic output, so
    /// storage failures are swallowed rather than turned into request
    /// errors — on chaos storage a crashed disk simply keeps the
    /// previous dump.
    pub fn write_flight_dump(&self, reason: &str) {
        if !self.observe {
            return;
        }
        let dump = self.flight.render_dump(reason);
        let path = self.env.data_dir.join(FLIGHT_FILE);
        let _ = self.env.storage.write(&path, dump.as_bytes());
        if let Some(trace_path) = &self.trace_out {
            let trace_json = self.recorder.chrome_trace().to_json();
            let _ = self.env.storage.write(trace_path, trace_json.as_bytes());
        }
    }

    /// The Chrome trace collected so far, as Perfetto-loadable JSON.
    #[must_use]
    pub fn trace_json(&self) -> String {
        self.recorder.chrome_trace().to_json()
    }

    /// The flight recorder (tests assert on its contents directly).
    #[must_use]
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }
}

impl Drop for ServerCore {
    fn drop(&mut self) {
        self.write_flight_dump("shutdown");
    }
}
