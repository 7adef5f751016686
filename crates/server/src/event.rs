//! Session events: the immutable vocabulary of spec mutations.
//!
//! A session is an event-sourced log: the only way to change a spec is
//! to append one of these events, and the materialized state is always
//! reproducible by replaying the log from the start. Events carry
//! deterministic content-hash IDs — `fnv1a64("<seq>:" ++ canonical
//! JSON)` — so a client that crashed mid-request can simply resend
//! everything: a resend of an already-applied `(seq, event)` pair
//! matches the stored ID and is acknowledged as a duplicate instead of
//! applied twice (SNIPPETS.md Snippet 1's idempotent-import pattern).
//!
//! Canonical form matters: every event encodes with a fixed key order
//! and all optional keys present (`null` when unset), so the hash of an
//! event is a function of its *meaning*, not of incidental formatting.
//!
//! The vocabulary is deliberately parametric, not structural: events
//! retune timing attributes of an existing topology (WCETs, priorities,
//! source periods, bus bit times, payload sizes) but never add or
//! remove entities. That keeps every post-`open` mutation inside
//! `analyze_incremental`'s warm-start diff — the Nth edit costs a
//! damage cone, not a full re-analysis. Topology changes are a new
//! session.

use hem_analysis::Priority;
use hem_event_models::EventModelExt as _;
use hem_event_models::{ModelRef, StandardEventModel};
use hem_obs::json::{self, JsonValue};
use hem_system::{ActivationSpec, SystemSpec};
use hem_time::Time;

use crate::hash::fnv1a64;

/// One spec mutation in a session's log.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// Opens the session with a scenario in the textual DSL
    /// ([`hem_system::dsl`]). Always the first event, never repeated.
    Open {
        /// Scenario source text.
        scenario: String,
    },
    /// Retunes a task's execution times and/or priority.
    SetTask {
        /// Task name.
        task: String,
        /// New best-case execution time in ticks, if changed.
        bcet: Option<i64>,
        /// New worst-case execution time in ticks, if changed.
        wcet: Option<i64>,
        /// New priority level, if changed.
        priority: Option<u32>,
    },
    /// Replaces a signal's external source with a fresh periodic model.
    SetSource {
        /// Frame carrying the signal.
        frame: String,
        /// Signal name within the frame.
        signal: String,
        /// New period in ticks (≥ 1).
        period: i64,
        /// New jitter in ticks (≥ 0).
        jitter: i64,
    },
    /// Changes a bus's wire bit time.
    SetBus {
        /// Bus name.
        bus: String,
        /// New bit time in ticks (≥ 1).
        bit_time: i64,
    },
    /// Changes a frame's payload size.
    SetPayload {
        /// Frame name.
        frame: String,
        /// New payload in bytes (1–8, classic CAN).
        payload: u8,
    },
}

/// A decode or apply failure, with a stable machine-readable kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventError {
    /// Stable lower-snake error kind, e.g. `"unknown_task"`.
    pub kind: &'static str,
    /// Human-oriented detail.
    pub message: String,
}

impl EventError {
    fn new(kind: &'static str, message: impl Into<String>) -> Self {
        EventError {
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for EventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for EventError {}

fn push_opt_i64(out: &mut String, key: &str, v: Option<i64>) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    match v {
        Some(n) => out.push_str(&n.to_string()),
        None => out.push_str("null"),
    }
}

impl SessionEvent {
    /// The canonical JSON encoding — fixed key order, all keys present.
    ///
    /// This exact byte string (prefixed with the sequence number) is
    /// what the event ID hashes, so it must never change shape for an
    /// existing event kind.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        let mut out = String::new();
        match self {
            SessionEvent::Open { scenario } => {
                out.push_str("{\"type\":\"open\",\"scenario\":");
                json::write_escaped(&mut out, scenario);
                out.push('}');
            }
            SessionEvent::SetTask {
                task,
                bcet,
                wcet,
                priority,
            } => {
                out.push_str("{\"type\":\"set_task\",\"task\":");
                json::write_escaped(&mut out, task);
                out.push(',');
                push_opt_i64(&mut out, "bcet", *bcet);
                out.push(',');
                push_opt_i64(&mut out, "wcet", *wcet);
                out.push(',');
                push_opt_i64(&mut out, "priority", priority.map(i64::from));
                out.push('}');
            }
            SessionEvent::SetSource {
                frame,
                signal,
                period,
                jitter,
            } => {
                out.push_str("{\"type\":\"set_source\",\"frame\":");
                json::write_escaped(&mut out, frame);
                out.push_str(",\"signal\":");
                json::write_escaped(&mut out, signal);
                out.push_str(&format!(",\"period\":{period},\"jitter\":{jitter}}}"));
            }
            SessionEvent::SetBus { bus, bit_time } => {
                out.push_str("{\"type\":\"set_bus\",\"bus\":");
                json::write_escaped(&mut out, bus);
                out.push_str(&format!(",\"bit_time\":{bit_time}}}"));
            }
            SessionEvent::SetPayload { frame, payload } => {
                out.push_str("{\"type\":\"set_payload\",\"frame\":");
                json::write_escaped(&mut out, frame);
                out.push_str(&format!(",\"payload\":{payload}}}"));
            }
        }
        out
    }

    /// Decodes an event from its parsed JSON object form.
    ///
    /// Accepts any key order and missing optional keys — decoding is
    /// liberal, the canonical form is produced on re-encode.
    ///
    /// # Errors
    ///
    /// On unknown `type`, missing required keys, or out-of-range
    /// values.
    pub fn from_json(value: &JsonValue) -> Result<Self, EventError> {
        let bad = |msg: String| EventError::new("bad_event", msg);
        let ty = value
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("event needs a string \"type\"".into()))?;
        let str_field = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .map(String::from)
                .ok_or_else(|| bad(format!("{ty} event needs a string \"{key}\"")))
        };
        let int_field = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_f64)
                .filter(|n| n.fract() == 0.0 && n.abs() <= 2f64.powi(53))
                .map(|n| n as i64)
                .ok_or_else(|| bad(format!("{ty} event needs an integer \"{key}\"")))
        };
        let opt_int_field = |key: &str| -> Result<Option<i64>, EventError> {
            match value.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(v) => v
                    .as_f64()
                    .filter(|n| n.fract() == 0.0 && n.abs() <= 2f64.powi(53))
                    .map(|n| Some(n as i64))
                    .ok_or_else(|| bad(format!("\"{key}\" must be an integer or null"))),
            }
        };
        match ty {
            "open" => Ok(SessionEvent::Open {
                scenario: str_field("scenario")?,
            }),
            "set_task" => {
                let priority = match opt_int_field("priority")? {
                    None => None,
                    Some(p) => Some(
                        u32::try_from(p).map_err(|_| bad("\"priority\" out of range".into()))?,
                    ),
                };
                Ok(SessionEvent::SetTask {
                    task: str_field("task")?,
                    bcet: opt_int_field("bcet")?,
                    wcet: opt_int_field("wcet")?,
                    priority,
                })
            }
            "set_source" => Ok(SessionEvent::SetSource {
                frame: str_field("frame")?,
                signal: str_field("signal")?,
                period: int_field("period")?,
                jitter: int_field("jitter")?,
            }),
            "set_bus" => Ok(SessionEvent::SetBus {
                bus: str_field("bus")?,
                bit_time: int_field("bit_time")?,
            }),
            "set_payload" => {
                let payload = int_field("payload")?;
                let payload = u8::try_from(payload)
                    .ok()
                    .filter(|p| (1..=8).contains(p))
                    .ok_or_else(|| bad("\"payload\" must be 1..=8 bytes".into()))?;
                Ok(SessionEvent::SetPayload {
                    frame: str_field("frame")?,
                    payload,
                })
            }
            other => Err(bad(format!("unknown event type {other:?}"))),
        }
    }

    /// Applies the event to a spec **in place**.
    ///
    /// In-place mutation is load-bearing: untouched entities keep their
    /// `Arc`-shared external models, which is exactly the identity
    /// `analyze_incremental`'s diff uses to bound the damage cone.
    /// A rejected event leaves the spec untouched.
    ///
    /// # Errors
    ///
    /// On unknown entity names or out-of-range values; `open` is
    /// rejected here (the session layer materializes it via the DSL).
    pub fn apply(&self, spec: &mut SystemSpec) -> Result<(), EventError> {
        self.check(spec)?.write(spec);
        Ok(())
    }

    /// Checks the event against a spec without touching it: finds the
    /// entity it retunes and validates the new values. The returned
    /// [`Edit`] writes them and cannot fail.
    pub(crate) fn check(&self, spec: &SystemSpec) -> Result<Edit, EventError> {
        match self {
            SessionEvent::Open { .. } => Err(EventError::new(
                "bad_event",
                "open is only valid as the first event of a session",
            )),
            SessionEvent::SetTask {
                task,
                bcet,
                wcet,
                priority,
            } => {
                let index = spec
                    .tasks
                    .iter()
                    .position(|t| t.name == *task)
                    .ok_or_else(|| EventError::new("unknown_task", format!("no task {task:?}")))?;
                let t = &spec.tasks[index];
                if bcet.is_some_and(|b| b < 0) {
                    return Err(EventError::new("bad_value", "bcet must be >= 0"));
                }
                if wcet.is_some_and(|w| w < 1) {
                    return Err(EventError::new("bad_value", "wcet must be >= 1"));
                }
                let bcet = bcet.map_or(t.bcet, Time::new);
                let wcet = wcet.map_or(t.wcet, Time::new);
                if bcet > wcet {
                    return Err(EventError::new("bad_value", "bcet must not exceed wcet"));
                }
                Ok(Edit::Task {
                    index,
                    bcet,
                    wcet,
                    priority: priority.map_or(t.priority, Priority::new),
                })
            }
            SessionEvent::SetSource {
                frame,
                signal,
                period,
                jitter,
            } => {
                let model = StandardEventModel::periodic_with_jitter(
                    Time::new(*period),
                    Time::new(*jitter),
                )
                .map_err(|e| EventError::new("bad_value", e.to_string()))?;
                let frame_index = spec
                    .frames
                    .iter()
                    .position(|f| f.name == *frame)
                    .ok_or_else(|| {
                        EventError::new("unknown_frame", format!("no frame {frame:?}"))
                    })?;
                let signals = &spec.frames[frame_index].signals;
                let signal_index =
                    signals
                        .iter()
                        .position(|s| s.name == *signal)
                        .ok_or_else(|| {
                            EventError::new(
                                "unknown_signal",
                                format!("no signal {signal:?} in frame {frame:?}"),
                            )
                        })?;
                if !matches!(signals[signal_index].source, ActivationSpec::External(_)) {
                    return Err(EventError::new(
                        "bad_value",
                        format!("signal {signal:?} is not externally sourced"),
                    ));
                }
                Ok(Edit::Source {
                    frame: frame_index,
                    signal: signal_index,
                    model: model.shared(),
                })
            }
            SessionEvent::SetBus { bus, bit_time } => {
                if *bit_time < 1 {
                    return Err(EventError::new("bad_value", "bit_time must be >= 1"));
                }
                let index = spec
                    .buses
                    .iter()
                    .position(|b| b.name == *bus)
                    .ok_or_else(|| EventError::new("unknown_bus", format!("no bus {bus:?}")))?;
                Ok(Edit::Bus {
                    index,
                    bit_time: Time::new(*bit_time),
                })
            }
            SessionEvent::SetPayload { frame, payload } => {
                let index = spec
                    .frames
                    .iter()
                    .position(|f| f.name == *frame)
                    .ok_or_else(|| {
                        EventError::new("unknown_frame", format!("no frame {frame:?}"))
                    })?;
                Ok(Edit::Payload {
                    index,
                    payload: *payload,
                })
            }
        }
    }
}

/// A checked event: the spec positions it retunes and their new
/// values. Written into the spec it was checked against, it cannot
/// fail.
#[derive(Debug)]
#[must_use]
pub(crate) enum Edit {
    Task {
        index: usize,
        bcet: Time,
        wcet: Time,
        priority: Priority,
    },
    Source {
        frame: usize,
        signal: usize,
        model: ModelRef,
    },
    Bus {
        index: usize,
        bit_time: Time,
    },
    Payload {
        index: usize,
        payload: u8,
    },
}

impl Edit {
    /// Writes the checked values into the spec the event was checked
    /// against.
    pub(crate) fn write(self, spec: &mut SystemSpec) {
        match self {
            Edit::Task {
                index,
                bcet,
                wcet,
                priority,
            } => {
                let t = &mut spec.tasks[index];
                t.bcet = bcet;
                t.wcet = wcet;
                t.priority = priority;
            }
            Edit::Source {
                frame,
                signal,
                model,
            } => spec.frames[frame].signals[signal].source = ActivationSpec::External(model),
            Edit::Bus { index, bit_time } => spec.buses[index].config.bit_time = bit_time,
            Edit::Payload { index, payload } => spec.frames[index].payload_bytes = payload,
        }
    }
}

/// One applied event in a session's log: position, identity, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// 0-based position in the log (`open` is always seq 0).
    pub seq: u64,
    /// Content-hash identity: [`entry_id`] of `(seq, event)`.
    pub id: u64,
    /// The event itself.
    pub event: SessionEvent,
}

/// The deterministic content-hash ID of an event at a log position.
#[must_use]
pub fn entry_id(seq: u64, event: &SessionEvent) -> u64 {
    let mut keyed = String::new();
    keyed.push_str(&seq.to_string());
    keyed.push(':');
    keyed.push_str(&event.canonical_json());
    fnv1a64(keyed.as_bytes())
}

impl LogEntry {
    /// Builds an entry, deriving its content-hash ID.
    #[must_use]
    pub fn new(seq: u64, event: SessionEvent) -> Self {
        let id = entry_id(seq, &event);
        LogEntry { seq, id, event }
    }

    /// The canonical WAL payload: `{"seq":N,"id":"<hex>","event":{…}}`.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"id\":\"{}\",\"event\":{}}}",
            self.seq,
            crate::hash::id_hex(self.id),
            self.event.canonical_json()
        )
    }

    /// Decodes a WAL payload, verifying the stored ID against the
    /// recomputed content hash (defense in depth on top of the WAL
    /// CRC: a record that decodes but mis-hashes is corruption, not a
    /// different event).
    ///
    /// # Errors
    ///
    /// On malformed JSON, a malformed entry shape, or an ID mismatch.
    pub fn decode(payload: &[u8]) -> Result<Self, EventError> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| EventError::new("bad_entry", "log entry is not UTF-8"))?;
        let value = json::parse(text)
            .map_err(|e| EventError::new("bad_entry", format!("log entry JSON: {e}")))?;
        let seq = value
            .get("seq")
            .and_then(JsonValue::as_f64)
            .filter(|n| n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53))
            .map(|n| n as u64)
            .ok_or_else(|| EventError::new("bad_entry", "entry needs an integer \"seq\""))?;
        let id = value
            .get("id")
            .and_then(JsonValue::as_str)
            .and_then(crate::hash::parse_id_hex)
            .ok_or_else(|| EventError::new("bad_entry", "entry needs a hex \"id\""))?;
        let event = value
            .get("event")
            .ok_or_else(|| EventError::new("bad_entry", "entry needs an \"event\""))
            .and_then(SessionEvent::from_json)?;
        let expected = entry_id(seq, &event);
        if id != expected {
            return Err(EventError::new(
                "bad_entry",
                format!(
                    "entry id mismatch at seq {seq}: stored {id:016x}, computed {expected:016x}"
                ),
            ));
        }
        Ok(LogEntry { seq, id, event })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_json_is_stable_and_decodable() {
        let events = vec![
            SessionEvent::Open {
                scenario: "cpu c1\n".into(),
            },
            SessionEvent::SetTask {
                task: "t0".into(),
                bcet: None,
                wcet: Some(42),
                priority: None,
            },
            SessionEvent::SetSource {
                frame: "F1".into(),
                signal: "s1".into(),
                period: 500,
                jitter: 20,
            },
            SessionEvent::SetBus {
                bus: "can".into(),
                bit_time: 2,
            },
            SessionEvent::SetPayload {
                frame: "F1".into(),
                payload: 4,
            },
        ];
        for e in events {
            let text = e.canonical_json();
            let parsed = json::parse(&text).expect("canonical JSON parses");
            let back = SessionEvent::from_json(&parsed).expect("decodes");
            assert_eq!(back, e);
            assert_eq!(
                back.canonical_json(),
                text,
                "canonical form is a fixed point"
            );
        }
    }

    #[test]
    fn entry_round_trips_through_wal_payload() {
        let entry = LogEntry::new(
            7,
            SessionEvent::SetTask {
                task: "brake".into(),
                bcet: Some(10),
                wcet: Some(99),
                priority: Some(3),
            },
        );
        let payload = entry.canonical_json();
        let back = LogEntry::decode(payload.as_bytes()).expect("decodes");
        assert_eq!(back, entry);
    }

    #[test]
    fn id_is_content_addressed() {
        let a = SessionEvent::SetBus {
            bus: "can".into(),
            bit_time: 2,
        };
        let b = SessionEvent::SetBus {
            bus: "can".into(),
            bit_time: 3,
        };
        assert_eq!(entry_id(4, &a), entry_id(4, &a));
        assert_ne!(entry_id(4, &a), entry_id(5, &a), "seq participates");
        assert_ne!(entry_id(4, &a), entry_id(4, &b), "content participates");
    }

    #[test]
    fn decode_rejects_id_mismatch() {
        let entry = LogEntry::new(
            1,
            SessionEvent::SetBus {
                bus: "can".into(),
                bit_time: 2,
            },
        );
        let tampered = entry
            .canonical_json()
            .replace("\"bit_time\":2", "\"bit_time\":3");
        let err = LogEntry::decode(tampered.as_bytes()).expect_err("mismatch");
        assert_eq!(err.kind, "bad_entry");
    }
}
