//! The crash flight recorder: a bounded ring of recent requests.
//!
//! Every request the core handles leaves one structured
//! [`FlightRecord`] in an in-memory ring buffer. The ring is dumped as
//! deterministic JSONL to `flight.jsonl` in the data directory on the
//! three moments that matter for post-mortems — a panic-quarantine, a
//! WAL recovery, and graceful shutdown — and can be snapshotted live
//! through the `debug_dump` protocol op. Records carry only
//! deterministic fields (logical ticks, byte counts, outcomes — never
//! wall-clock latencies, which live in the metrics histograms), so a
//! dump is byte-identical across runs and thread counts and the chaos
//! harness can assert on it exactly.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

use hem_obs::json::write_escaped;

/// How many requests the ring retains (older records are evicted).
pub const FLIGHT_CAPACITY: usize = 256;

/// The dump file name inside the server's data directory. Chosen so it
/// can never collide with per-session files (session names are valid
/// file stems, but their artifacts are `<name>.wal` / `<name>.ckpt.*`).
pub const FLIGHT_FILE: &str = "flight.jsonl";

/// A request's stable outcome tag, as its flight record carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `ok`: served as asked.
    Ok,
    /// `ok_duplicate`: a mutate the log already held.
    OkDuplicate,
    /// `ok_stale`: an analyze or `result` that served a stale result.
    OkStale,
    /// `ok_recovered`: an open that replayed the WAL.
    OkRecovered,
    /// `panic`: the request panicked and its session was quarantined.
    Panic,
    /// `error:<kind>`: an error response of that kind.
    Error(&'static str),
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Ok => f.write_str("ok"),
            Outcome::OkDuplicate => f.write_str("ok_duplicate"),
            Outcome::OkStale => f.write_str("ok_stale"),
            Outcome::OkRecovered => f.write_str("ok_recovered"),
            Outcome::Panic => f.write_str("panic"),
            Outcome::Error(kind) => write!(f, "error:{kind}"),
        }
    }
}

/// One request, as the flight recorder remembers it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Position in the server's request history (0-based, monotone).
    pub ordinal: u64,
    /// The deterministic trace id (see [`crate::trace::trace_id`]).
    pub trace_id: u64,
    /// The request op (`"open"`, `"mutate"`, … or `"?"` when the
    /// request named no known op).
    pub op: &'static str,
    /// The session the request addressed, if any.
    pub session: Option<String>,
    /// What the response said.
    pub outcome: Outcome,
    /// The sequence number the response acknowledged, if any.
    pub seq: Option<u64>,
    /// Logical trace ticks the request consumed.
    pub ticks: u64,
    /// WAL bytes appended on behalf of the request.
    pub wal_bytes: u64,
    /// Checkpoint generation written during the request, if any.
    pub ckpt_gen: Option<u64>,
}

impl FlightRecord {
    /// The record's JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"request\",\"ordinal\":{},\"trace_id\":\"{:016x}\",\"op\":",
            self.ordinal, self.trace_id
        );
        write_escaped(&mut out, self.op);
        out.push_str(",\"session\":");
        match &self.session {
            Some(name) => write_escaped(&mut out, name),
            None => out.push_str("null"),
        }
        out.push_str(",\"outcome\":");
        write_escaped(&mut out, &self.outcome.to_string());
        out.push_str(",\"seq\":");
        match self.seq {
            Some(seq) => out.push_str(&seq.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"ticks\":{},\"wal_bytes\":{},\"ckpt_gen\":",
            self.ticks, self.wal_bytes
        ));
        match self.ckpt_gen {
            Some(g) => out.push_str(&g.to_string()),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

/// The bounded in-memory ring of recent [`FlightRecord`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    state: Mutex<FlightState>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct FlightState {
    ring: VecDeque<FlightRecord>,
    next_ordinal: u64,
}

impl FlightRecorder {
    /// An empty ring holding at most [`FLIGHT_CAPACITY`] records.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(FLIGHT_CAPACITY)
    }

    /// An empty ring with an explicit capacity (tests use small ones).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            state: Mutex::new(FlightState::default()),
            capacity: capacity.max(1),
        }
    }

    /// Appends one record, assigning its ordinal; the oldest record is
    /// evicted when the ring is full.
    pub fn push(&self, mut record: FlightRecord) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        record.ordinal = state.next_ordinal;
        state.next_ordinal += 1;
        if state.ring.len() == self.capacity {
            state.ring.pop_front();
        }
        state.ring.push_back(record);
    }

    /// Total requests recorded so far (including evicted ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .next_ordinal
    }

    /// A copy of the ring's current contents, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.ring.iter().cloned().collect()
    }

    /// Renders a dump: one header line naming the `reason`, then one
    /// line per retained record, oldest first. Byte-deterministic for
    /// a given request history.
    #[must_use]
    pub fn render_dump(&self, reason: &str) -> String {
        let state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::from("{\"type\":\"flight_header\",\"reason\":");
        write_escaped(&mut out, reason);
        out.push_str(&format!(
            ",\"recorded\":{},\"retained\":{},\"capacity\":{}}}\n",
            state.next_ordinal,
            state.ring.len(),
            self.capacity
        ));
        for record in &state.ring {
            out.push_str(&record.to_json());
            out.push('\n');
        }
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_obs::json;

    fn record(op: &'static str, outcome: Outcome) -> FlightRecord {
        FlightRecord {
            ordinal: 0,
            trace_id: 0xABCD,
            op,
            session: Some("s1".to_string()),
            outcome,
            seq: Some(4),
            ticks: 6,
            wal_bytes: 120,
            ckpt_gen: None,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_ordinals() {
        let ring = FlightRecorder::with_capacity(2);
        ring.push(record("open", Outcome::Ok));
        ring.push(record("mutate", Outcome::Ok));
        ring.push(record("analyze", Outcome::Ok));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].ordinal, 1);
        assert_eq!(snap[0].op, "mutate");
        assert_eq!(snap[1].ordinal, 2);
        assert_eq!(ring.recorded(), 3);
    }

    #[test]
    fn dump_is_valid_jsonl_with_header_first() {
        let ring = FlightRecorder::with_capacity(4);
        ring.push(record("open", Outcome::OkRecovered));
        ring.push(record("mutate", Outcome::Error("gap")));
        let dump = ring.render_dump("shutdown");
        json::validate_jsonl(&dump).expect("valid JSONL");
        let mut lines = dump.lines();
        let header = lines.next().expect("header line");
        assert!(header.starts_with("{\"type\":\"flight_header\",\"reason\":\"shutdown\""));
        assert!(header.contains("\"recorded\":2,\"retained\":2,\"capacity\":4"));
        assert!(dump.contains("\"outcome\":\"error:gap\""));
        assert_eq!(lines.count(), 2);
        // Dumps are deterministic for a given history.
        assert_eq!(dump, ring.render_dump("shutdown"));
    }

    #[test]
    fn record_json_encodes_optionals_and_hex_trace_id() {
        let mut r = record("mutate", Outcome::Ok);
        r.session = None;
        r.seq = None;
        r.ckpt_gen = Some(2);
        let line = r.to_json();
        json::validate(&line).expect("valid JSON");
        assert!(line.contains("\"trace_id\":\"000000000000abcd\""));
        assert!(line.contains("\"session\":null"));
        assert!(line.contains("\"seq\":null"));
        assert!(line.contains("\"ckpt_gen\":2"));
    }
}
