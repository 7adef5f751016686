//! Tier-1: the flight-recorder dump and the trace export stay valid
//! and **byte-deterministic** under chaos — injected storage faults, a
//! mid-workload crash, power-cycle, and WAL recovery. Running the same
//! scripted workload twice (fresh chaos disk, same seed) must produce
//! bit-identical artifacts; nothing in either file may depend on
//! wall-clock time, thread scheduling, or `HEM_THREADS` (the CI matrix
//! runs this test under both legs and the bytes must agree).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hem_obs::json::{self, JsonValue};
use hem_server::chaos::{event_json, SCENARIO, SESSION};
use hem_server::{ChaosOptions, ChaosStorage, CoreOptions, ServerCore, Storage};

const DATA_DIR: &str = "chaos-data";
const TRACE_FILE: &str = "chaos-data/trace.json";
const SEED: u64 = 0xF11E;
const MUTATIONS: u64 = 16;
/// Storage-op index the disk is armed to crash at once the first half
/// of the workload is in — far enough in for checkpoints to exist.
const CRASH_AT_EXTRA_OPS: u64 = 12;

fn open_line() -> String {
    let mut line = format!("{{\"op\":\"open\",\"session\":\"{SESSION}\",\"scenario\":");
    json::write_escaped(&mut line, SCENARIO);
    line.push('}');
    line
}

fn mutate_line(i: u64) -> String {
    format!(
        "{{\"op\":\"mutate\",\"session\":\"{SESSION}\",\"seq\":{i},\"event\":{}}}",
        event_json(i)
    )
}

fn core_on(storage: &ChaosStorage) -> ServerCore {
    // The data-dir creation itself can hit an injected fault; retries
    // consume deterministic op indices, so the run stays reproducible.
    for _ in 0..8 {
        let storage: Arc<dyn Storage> = Arc::new(storage.clone());
        if let Ok(core) = ServerCore::with_options(
            CoreOptions::new(PathBuf::from(DATA_DIR))
                .storage(storage)
                .checkpoint_bytes(500)
                .test_ops(true)
                .trace_out(PathBuf::from(TRACE_FILE)),
        ) {
            return core;
        }
    }
    panic!("chaos disk refused the data dir eight times");
}

/// Reads a file off the chaos disk, retrying past injected faults
/// (each attempt consumes a deterministic op index).
fn read_retrying(storage: &Arc<dyn Storage>, path: &Path, what: &str) -> String {
    for _ in 0..8 {
        if let Ok(bytes) = storage.read(path) {
            return String::from_utf8(bytes).expect("artifact is utf-8");
        }
    }
    panic!("chaos disk refused to read {what} eight times");
}

/// One full scripted run: faulty first life, armed crash, power-cycle,
/// recovering second life. Returns `(flight_dump, trace_json,
/// recovery_dump, recovered_seq)` — the recovery dump is the
/// `flight.jsonl` captured right after the recovering open, before
/// later requests overwrite it at shutdown.
fn scripted_run() -> (String, String, String, u64) {
    let disk = ChaosStorage::new(ChaosOptions {
        seed: SEED,
        crash_at_op: None,
        fault_every: 7,
    });

    // First life: open (retried past injected faults), a mutation
    // stream where some appends fail on the faulty disk, one isolated
    // panic, then a crash armed a few ops ahead.
    let first = core_on(&disk);
    for _ in 0..8 {
        if first.handle_line(&open_line()).starts_with("{\"ok\":true") {
            break;
        }
    }
    for i in 1..=MUTATIONS {
        let _ = first.handle_line(&mutate_line(i));
        if i % 4 == 0 {
            let _ = first.handle_line(&format!("{{\"op\":\"analyze\",\"session\":\"{SESSION}\"}}"));
        }
    }
    let _ = first.handle_line(&format!(
        "{{\"op\":\"debug_panic\",\"session\":\"{SESSION}\"}}"
    ));
    disk.set_crash_at_op(Some(disk.ops() + CRASH_AT_EXTRA_OPS));
    for i in 1..=MUTATIONS {
        let _ = first.handle_line(&mutate_line(i));
        if disk.crashed() {
            break;
        }
    }
    assert!(disk.crashed(), "the armed crash point was never reached");
    drop(first); // shutdown dump on a crashed disk: swallowed

    // Second life: recover on the power-cycled disk.
    disk.power_cycle();
    let second = core_on(&disk);
    let mut opened = second.handle_line(&open_line());
    for _ in 0..8 {
        if opened.starts_with("{\"ok\":true") {
            break;
        }
        // A transient injected fault — not the recovery under test.
        opened = second.handle_line(&open_line());
    }
    let parsed = json::parse(&opened).expect("open response parses");
    assert!(
        matches!(parsed.get("recovered"), Some(JsonValue::Bool(true))),
        "recovery expected after the crash, got {opened}"
    );
    let recovered_seq = parsed
        .get("seq")
        .and_then(JsonValue::as_f64)
        .map(|n| n as u64)
        .expect("open response carries a seq");
    let storage: Arc<dyn Storage> = Arc::new(disk.clone());
    let recovery_dump = read_retrying(
        &storage,
        &PathBuf::from(DATA_DIR).join(hem_server::FLIGHT_FILE),
        "the wal-recovery flight dump",
    );
    // Resend the tail and finish cleanly so the shutdown dump has a
    // rich ring behind it.
    for i in 1..=MUTATIONS {
        let _ = second.handle_line(&mutate_line(i));
    }
    let _ = second.handle_line(&format!("{{\"op\":\"analyze\",\"session\":\"{SESSION}\"}}"));
    let _ = second.handle_line(&format!("{{\"op\":\"result\",\"session\":\"{SESSION}\"}}"));
    drop(second); // shutdown dump

    let dump = read_retrying(
        &storage,
        &PathBuf::from(DATA_DIR).join(hem_server::FLIGHT_FILE),
        "the shutdown flight dump",
    );
    let trace = read_retrying(&storage, &PathBuf::from(TRACE_FILE), "the trace export");
    (dump, trace, recovery_dump, recovered_seq)
}

#[test]
fn chaos_flight_dump_and_trace_are_valid_and_byte_deterministic() {
    let (dump_a, trace_a, recovery_a, seq_a) = scripted_run();
    let (dump_b, trace_b, recovery_b, seq_b) = scripted_run();

    // Byte-identical across runs: nothing in either artifact may come
    // from a wall clock, an RNG, or scheduling.
    assert_eq!(dump_a, dump_b, "flight dump must be byte-deterministic");
    assert_eq!(trace_a, trace_b, "trace export must be byte-deterministic");
    assert_eq!(recovery_a, recovery_b);
    assert_eq!(seq_a, seq_b);

    // The dump is valid JSONL with the header first.
    json::validate_jsonl(&dump_a).expect("flight dump is valid JSONL");
    let mut lines = dump_a.lines();
    let header = lines.next().expect("dump has a header");
    assert!(header.starts_with("{\"type\":\"flight_header\",\"reason\":\"shutdown\""));

    // Every record is well-formed, spans are balanced (2 ticks per
    // span, so every request's tick count is even and at least 2), and
    // the chaos faults actually left failed requests behind.
    let mut outcomes = Vec::new();
    for line in lines {
        let record = json::parse(line).expect("record parses");
        let ticks = record
            .get("ticks")
            .and_then(JsonValue::as_f64)
            .expect("record has ticks") as u64;
        assert!(ticks >= 2 && ticks % 2 == 0, "unbalanced spans: {line}");
        outcomes.push(
            record
                .get("outcome")
                .and_then(JsonValue::as_str)
                .expect("record has an outcome")
                .to_string(),
        );
    }
    assert!(
        outcomes.iter().any(|o| o.starts_with("error:")),
        "chaos faults should leave failed requests in the ring"
    );
    assert!(outcomes.iter().any(|o| o == "ok_duplicate"));

    // The wal-recovery dump's last record is the recovering open, and
    // the seq it acknowledged is the recovered WAL tail.
    json::validate_jsonl(&recovery_a).expect("recovery dump is valid JSONL");
    assert!(recovery_a.starts_with("{\"type\":\"flight_header\",\"reason\":\"wal_recovery\""));
    let last = json::parse(recovery_a.lines().last().expect("records")).expect("parses");
    assert_eq!(last.get("op").and_then(JsonValue::as_str), Some("open"));
    assert_eq!(
        last.get("outcome").and_then(JsonValue::as_str),
        Some("ok_recovered")
    );
    assert_eq!(
        last.get("seq")
            .and_then(JsonValue::as_f64)
            .map(|n| n as u64),
        Some(seq_a)
    );

    // The trace is one valid Chrome-trace JSON document whose complete
    // slices all carry the deterministic tick timestamps.
    let trace = json::parse(&trace_a).expect("trace export is valid JSON");
    let Some(JsonValue::Array(events)) = trace.get("traceEvents") else {
        panic!("trace export lacks traceEvents");
    };
    assert!(!events.is_empty(), "trace export has no events");
    let mut roots = 0usize;
    for event in events {
        let Some(phase) = event.get("ph").and_then(JsonValue::as_str) else {
            panic!("trace event lacks a phase");
        };
        if phase == "X" {
            assert!(event.get("ts").is_some() && event.get("dur").is_some());
            if let Some(args) = event.get("args") {
                if args.get("trace_id").is_some() {
                    roots += 1;
                }
            }
        }
    }
    assert!(roots > 0, "no root request spans carrying trace ids");
}

#[test]
fn debug_dump_op_reports_the_live_ring() {
    let disk = ChaosStorage::new(ChaosOptions::quiet(SEED));
    let core = core_on(&disk);
    assert!(core.handle_line(&open_line()).starts_with("{\"ok\":true"));
    let _ = core.handle_line(&mutate_line(1));
    let response = core.handle_line("{\"op\":\"debug_dump\"}");
    let parsed = json::parse(&response).expect("debug_dump response parses");
    assert!(matches!(parsed.get("ok"), Some(JsonValue::Bool(true))));
    assert_eq!(
        parsed.get("recorded").and_then(JsonValue::as_f64),
        Some(2.0)
    );
    let Some(JsonValue::Array(records)) = parsed.get("records") else {
        panic!("debug_dump lacks records");
    };
    assert_eq!(records.len(), 2);
    assert_eq!(
        records[0].get("op").and_then(JsonValue::as_str),
        Some("open")
    );
}

#[test]
fn metrics_op_exposes_snapshot_and_prometheus_text() {
    let disk = ChaosStorage::new(ChaosOptions::quiet(SEED));
    let core = core_on(&disk);
    assert!(core.handle_line(&open_line()).starts_with("{\"ok\":true"));
    let _ = core.handle_line(&mutate_line(1));
    let response = core.handle_line("{\"op\":\"metrics\"}");
    let parsed = json::parse(&response).expect("metrics response parses");
    assert!(matches!(parsed.get("ok"), Some(JsonValue::Bool(true))));
    let snapshot = parsed.get("snapshot").expect("metrics carries a snapshot");
    let gauges = snapshot.get("gauges").expect("snapshot carries gauges");
    assert_eq!(
        gauges.get("sessions_live").and_then(JsonValue::as_f64),
        Some(1.0)
    );
    let exposition = parsed
        .get("exposition")
        .and_then(JsonValue::as_str)
        .expect("metrics carries a text exposition");
    assert!(exposition.contains("# TYPE sessions_live gauge"));
    assert!(exposition.contains("service_us"));
}

/// `(op, outcome, seq)` of every record a `debug_dump` returns.
fn dumped_records(core: &ServerCore) -> Vec<(String, String, JsonValue)> {
    let response = core.handle_line("{\"op\":\"debug_dump\"}");
    let parsed = json::parse(&response).expect("debug_dump response parses");
    let Some(JsonValue::Array(records)) = parsed.get("records") else {
        panic!("debug_dump lacks records: {response}");
    };
    records
        .iter()
        .map(|record| {
            let text = |key: &str| {
                record
                    .get(key)
                    .and_then(JsonValue::as_str)
                    .expect("record field is a string")
                    .to_string()
            };
            let seq = record.get("seq").cloned().expect("record has a seq");
            (text("op"), text("outcome"), seq)
        })
        .collect()
}

#[test]
fn debug_dump_tags_every_outcome() {
    let disk = ChaosStorage::new(ChaosOptions::quiet(SEED));
    let first = core_on(&disk);
    let on_session = |op: &str| format!("{{\"op\":\"{op}\",\"session\":\"{SESSION}\"}}");
    let requests = [
        open_line(),
        mutate_line(1),
        mutate_line(1), // a resend: duplicate
        on_session("analyze"),
        mutate_line(2),
        on_session("result"), // materialized at seq 1, log at seq 2: stale
        on_session("debug_panic"),
        "{\"op\":\"result\",\"session\":\"nobody\"}".to_string(),
        "{\"op\":\"nope\"}".to_string(),
    ];
    for line in &requests {
        let _ = first.handle_line(line);
    }
    let tags: Vec<(String, String)> = dumped_records(&first)
        .into_iter()
        .map(|(op, outcome, _)| (op, outcome))
        .collect();
    let expected = [
        ("open", "ok"),
        ("mutate", "ok"),
        ("mutate", "ok_duplicate"),
        ("analyze", "ok"),
        ("mutate", "ok"),
        ("result", "ok_stale"),
        ("debug_panic", "panic"),
        ("result", "error:unknown_session"),
        ("?", "error:bad_request"),
    ];
    assert_eq!(
        tags,
        expected.map(|(op, outcome)| (op.to_string(), outcome.to_string()))
    );
    drop(first);

    // A restart on the same disk: the open replays the WAL.
    let second = core_on(&disk);
    let _ = second.handle_line(&open_line());
    let records = dumped_records(&second);
    assert_eq!(records.len(), 1);
    assert_eq!(
        (records[0].0.as_str(), records[0].1.as_str()),
        ("open", "ok_recovered")
    );
}

#[test]
fn debug_dump_record_acknowledges_no_seq() {
    let disk = ChaosStorage::new(ChaosOptions::quiet(SEED));
    let core = core_on(&disk);
    assert!(core.handle_line(&open_line()).starts_with("{\"ok\":true"));
    let _ = dumped_records(&core);
    let records = dumped_records(&core);
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].2, JsonValue::Number(0.0), "the open acked seq 0");
    assert_eq!(records[1].0, "debug_dump");
    assert_eq!(records[1].2, JsonValue::Null, "a dump acknowledges no seq");
}
