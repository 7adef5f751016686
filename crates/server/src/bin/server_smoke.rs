//! End-to-end smoke test: kill -9 a live server mid-session, restart,
//! and prove the recovered session is bit-identical to an uninterrupted
//! one.
//!
//! The script (also run by the `server-smoke` CI job):
//!
//! 1. **Reference run** — start a server on a fresh data dir, open a
//!    session, apply six mutations, analyze, and capture the `result`
//!    response line.
//! 2. **Crash run** — start a second server on another fresh dir, open
//!    the same session, apply only the first three mutations, then
//!    `SIGKILL` the process and tear the WAL's tail (truncate
//!    mid-record, exactly what an interrupted `write(2)` leaves).
//! 3. **Recovery run** — restart on the crashed dir: the open must
//!    report a recovered, torn log. Resend *all six* mutations with
//!    their sequence numbers — the survivors acknowledge as idempotent
//!    duplicates, the lost tail re-applies. Analyze, capture `result`.
//! 4. The two `result` lines must be **byte-identical**, and the
//!    restarted server must report a WAL recovery in its stats.
//!
//! Exits 0 on success, 1 with a diagnostic on any deviation.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use hem_obs::json::{self, JsonValue};

const SCENARIO: &str = "\
cpu cpu0
cpu cpu1
bus can0 bit_time=1
bus can1 bit_time=1
frame F0 bus=can0 type=direct payload=4 prio=1
  signal s0 triggering periodic:500
frame F1 bus=can1 type=direct payload=4 prio=1
  signal s1 triggering periodic:700
task t0 cpu=cpu0 cet=30 prio=1 activation=F0/s0
task t1 cpu=cpu1 cet=40 prio=1 activation=F1/s1
";

/// The scripted mutations, in order; entry `i` is log seq `i + 1`.
fn mutations() -> Vec<String> {
    vec![
        r#"{"type":"set_task","task":"t0","bcet":null,"wcet":35,"priority":null}"#.into(),
        r#"{"type":"set_source","frame":"F0","signal":"s0","period":450,"jitter":10}"#.into(),
        r#"{"type":"set_bus","bus":"can0","bit_time":2}"#.into(),
        r#"{"type":"set_task","task":"t1","bcet":null,"wcet":45,"priority":null}"#.into(),
        r#"{"type":"set_payload","frame":"F1","payload":6}"#.into(),
        r#"{"type":"set_source","frame":"F1","signal":"s1","period":650,"jitter":0}"#.into(),
    ]
}

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(data_dir: &Path) -> Result<Self, String> {
        Server::start_with(data_dir, &[])
    }

    fn start_with(data_dir: &Path, extra_args: &[&str]) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let server_bin = exe
            .parent()
            .ok_or("no parent dir for current exe")?
            .join(format!("hem-server{}", std::env::consts::EXE_SUFFIX));
        if !server_bin.exists() {
            return Err(format!(
                "server binary not found at {} (build the hem-server package first)",
                server_bin.display()
            ));
        }
        let mut child = Command::new(&server_bin)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .arg("--workers")
            .arg("2")
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", server_bin.display()))?;
        let stdout = child.stdout.take().ok_or("no child stdout")?;
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .ok_or("server exited before announcing its address")?
            .map_err(|e| format!("read banner: {e}"))?;
        let addr = banner
            .strip_prefix("LISTENING ")
            .ok_or_else(|| format!("unexpected banner {banner:?}"))?
            .to_string();
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        Ok(Server { child, addr })
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn { stream, reader })
    }

    fn kill9(&mut self) -> Result<(), String> {
        // `Child::kill` is SIGKILL on unix: no atexit, no flush, no
        // goodbye — the crash we claim to survive.
        self.child.kill().map_err(|e| format!("kill: {e}"))?;
        self.child.wait().map_err(|e| format!("wait: {e}"))?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn rpc(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.stream, "{line}").map_err(|e| format!("send: {e}"))?;
        self.stream.flush().map_err(|e| format!("flush: {e}"))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| format!("recv: {e}"))?;
        if response.is_empty() {
            return Err("server hung up".into());
        }
        Ok(response.trim_end().to_string())
    }

    fn rpc_ok(&mut self, line: &str) -> Result<JsonValue, String> {
        let response = self.rpc(line)?;
        let value = json::parse(&response).map_err(|e| format!("response JSON: {e}"))?;
        if !matches!(value.get("ok"), Some(JsonValue::Bool(true))) {
            return Err(format!("request {line} failed: {response}"));
        }
        Ok(value)
    }
}

fn open_line(session: &str) -> String {
    let mut line = format!("{{\"op\":\"open\",\"session\":\"{session}\",\"scenario\":");
    json::write_escaped(&mut line, SCENARIO);
    line.push('}');
    line
}

fn mutate_line(session: &str, seq: usize, event: &str) -> String {
    format!("{{\"op\":\"mutate\",\"session\":\"{session}\",\"seq\":{seq},\"event\":{event}}}")
}

fn fresh_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = std::env::temp_dir().join(format!("hem-smoke-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clean {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    Ok(dir)
}

fn tear_wal_tail(data_dir: &Path, session: &str) -> Result<(), String> {
    let path = data_dir.join(format!("{session}.wal"));
    let len = std::fs::metadata(&path)
        .map_err(|e| format!("stat {}: {e}", path.display()))?
        .len();
    if len < 3 {
        return Err(format!(
            "wal at {} suspiciously short ({len}b)",
            path.display()
        ));
    }
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    // Chop two bytes off the last record: a torn write, not a clean
    // record-boundary truncation.
    file.set_len(len - 2)
        .map_err(|e| format!("truncate {}: {e}", path.display()))?;
    Ok(())
}

/// Checks the telemetry a SIGKILLed-then-recovered server left in its
/// data dir: a `wal_recovery` flight dump whose final record is the
/// recovering `open` at the recovered WAL tail seq, plus a valid
/// Chrome/Perfetto trace. With `HEM_SMOKE_ARTIFACTS` set, copies both
/// files there for CI upload.
fn verify_crash_telemetry(
    crash_dir: &Path,
    trace_path: &Path,
    recovered_seq: u64,
) -> Result<(), String> {
    let flight_path = crash_dir.join(hem_server::FLIGHT_FILE);
    let dump = std::fs::read_to_string(&flight_path)
        .map_err(|e| format!("read flight dump {}: {e}", flight_path.display()))?;
    let mut lines = dump.lines();
    let header_line = lines.next().ok_or("flight dump is empty")?;
    let header = json::parse(header_line).map_err(|e| format!("flight header JSON: {e}"))?;
    if header.get("reason").and_then(JsonValue::as_str) != Some("wal_recovery") {
        return Err(format!(
            "flight dump header is not a wal_recovery dump: {header_line}"
        ));
    }
    let records: Vec<JsonValue> = lines
        .map(|line| json::parse(line).map_err(|e| format!("flight record JSON: {e}")))
        .collect::<Result<_, _>>()?;
    let last = records.last().ok_or("flight dump has no records")?;
    let field = |name: &str| last.get(name).and_then(JsonValue::as_str).unwrap_or("");
    if field("op") != "open" || field("outcome") != "ok_recovered" {
        return Err(format!(
            "flight dump's last record is not the recovering open: {last:?}"
        ));
    }
    let last_seq = last.get("seq").and_then(JsonValue::as_f64).unwrap_or(-1.0) as i64;
    if last_seq != recovered_seq as i64 {
        return Err(format!(
            "flight dump's last record acked seq {last_seq}, recovered WAL tail is {recovered_seq}"
        ));
    }
    let trace_text = std::fs::read_to_string(trace_path)
        .map_err(|e| format!("read trace {}: {e}", trace_path.display()))?;
    let trace = json::parse(&trace_text).map_err(|e| format!("trace JSON: {e}"))?;
    let events = match trace.get("traceEvents") {
        Some(JsonValue::Array(events)) if !events.is_empty() => events,
        other => return Err(format!("trace has no traceEvents: {other:?}")),
    };
    println!(
        "OK: flight dump ends on the recovering open at seq {recovered_seq} ({} record(s)), trace holds {} event(s)",
        records.len(),
        events.len()
    );
    if let Ok(out_dir) = std::env::var("HEM_SMOKE_ARTIFACTS") {
        if !out_dir.is_empty() {
            let out_dir = PathBuf::from(out_dir);
            std::fs::create_dir_all(&out_dir)
                .map_err(|e| format!("mkdir {}: {e}", out_dir.display()))?;
            for (src, name) in [
                (&flight_path, "flight.jsonl"),
                (&trace_path.to_path_buf(), "trace.json"),
            ] {
                std::fs::copy(src, out_dir.join(name)).map_err(|e| {
                    format!("copy {} into {}: {e}", src.display(), out_dir.display())
                })?;
            }
            println!("telemetry artifacts copied to {}", out_dir.display());
        }
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let session = "smoke";
    let events = mutations();

    // 1. Reference: uninterrupted session, all six mutations.
    let ref_dir = fresh_dir("ref")?;
    let reference = {
        let server = Server::start(&ref_dir)?;
        let mut conn = server.connect()?;
        conn.rpc_ok(&open_line(session))?;
        for (i, event) in events.iter().enumerate() {
            conn.rpc_ok(&mutate_line(session, i + 1, event))?;
        }
        conn.rpc_ok(&format!("{{\"op\":\"analyze\",\"session\":\"{session}\"}}"))?;
        conn.rpc(&format!("{{\"op\":\"result\",\"session\":\"{session}\"}}"))?
    };
    println!("reference result captured ({} bytes)", reference.len());

    // 2. Crash run: three mutations, then SIGKILL + a torn WAL tail.
    let crash_dir = fresh_dir("crash")?;
    {
        let mut server = Server::start(&crash_dir)?;
        let mut conn = server.connect()?;
        conn.rpc_ok(&open_line(session))?;
        for (i, event) in events.iter().take(3).enumerate() {
            conn.rpc_ok(&mutate_line(session, i + 1, event))?;
        }
        server.kill9()?;
    }
    tear_wal_tail(&crash_dir, session)?;
    println!("server killed mid-session, wal tail torn");

    // 3. Recovery: restart on the crashed dir (with request tracing
    //    on), resend everything. The recovery open makes the server
    //    dump its flight recorder and trace to the data dir — and this
    //    server too dies by SIGKILL (the `Drop` kill), so those files
    //    are exactly what a post-mortem of the crashed box would find.
    let trace_path = crash_dir.join("trace.json");
    let trace_arg = trace_path.display().to_string();
    let (recovered, recovered_seq) = {
        let server = Server::start_with(&crash_dir, &["--trace-out", &trace_arg])?;
        let mut conn = server.connect()?;
        let open = conn.rpc_ok(&open_line(session))?;
        if !matches!(open.get("recovered"), Some(JsonValue::Bool(true))) {
            return Err(format!("open after crash did not recover: {open:?}"));
        }
        if !matches!(open.get("torn"), Some(JsonValue::Bool(true))) {
            return Err(format!(
                "open after crash did not report a torn tail: {open:?}"
            ));
        }
        let recovered_seq = open
            .get("seq")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("recovery open carries no seq: {open:?}"))?
            as u64;
        let mut duplicates = 0;
        for (i, event) in events.iter().enumerate() {
            let ack = conn.rpc_ok(&mutate_line(session, i + 1, event))?;
            if matches!(ack.get("duplicate"), Some(JsonValue::Bool(true))) {
                duplicates += 1;
            }
        }
        // Seqs 1-2 survived (seq 3's record was the torn one).
        if duplicates != 2 {
            return Err(format!(
                "expected 2 idempotent duplicates, saw {duplicates}"
            ));
        }
        conn.rpc_ok(&format!("{{\"op\":\"analyze\",\"session\":\"{session}\"}}"))?;
        let stats = conn.rpc_ok("{\"op\":\"stats\"}")?;
        let recoveries = stats
            .get("counters")
            .and_then(|c| c.get("wal_recoveries"))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        if recoveries < 1.0 {
            return Err(format!("stats report no wal recovery: {stats:?}"));
        }
        let result = conn.rpc(&format!("{{\"op\":\"result\",\"session\":\"{session}\"}}"))?;
        (result, recovered_seq)
    };
    println!("recovered result captured ({} bytes)", recovered.len());

    // 4. Bit-for-bit identity.
    if reference != recovered {
        return Err(format!(
            "recovered result differs from reference\n  reference: {reference}\n  recovered: {recovered}"
        ));
    }
    println!("OK: recovered result is byte-identical to the uninterrupted run");

    // 4b. Post-mortem telemetry: the WAL-recovery flight dump's last
    //     record must be the recovering open, acknowledging exactly
    //     the seq the recovered WAL tail reached, and the trace must
    //     be a loadable Chrome/Perfetto JSON document.
    verify_crash_telemetry(&crash_dir, &trace_path, recovered_seq)?;

    // 5. Checkpoint leg: a tiny threshold forces checkpoint+compaction
    //    during the same six mutations. The session must end with a
    //    smaller WAL than the checkpoint-free reference run, the same
    //    result line, and — after a SIGKILL and restart — recover
    //    byte-identically from checkpoint + WAL tail, acking every
    //    resend as an idempotent duplicate.
    let ckpt_dir = fresh_dir("ckpt")?;
    let ckpt_args: &[&str] = &["--checkpoint-bytes", "512"];
    let wal_len = |dir: &Path| -> Result<u64, String> {
        let path = dir.join(format!("{session}.wal"));
        Ok(std::fs::metadata(&path)
            .map_err(|e| format!("stat {}: {e}", path.display()))?
            .len())
    };
    {
        let mut server = Server::start_with(&ckpt_dir, ckpt_args)?;
        let mut conn = server.connect()?;
        conn.rpc_ok(&open_line(session))?;
        for (i, event) in events.iter().enumerate() {
            conn.rpc_ok(&mutate_line(session, i + 1, event))?;
        }
        conn.rpc_ok(&format!("{{\"op\":\"analyze\",\"session\":\"{session}\"}}"))?;
        let result = conn.rpc(&format!("{{\"op\":\"result\",\"session\":\"{session}\"}}"))?;
        if result != reference {
            return Err(format!(
                "checkpointed result differs from reference\n  reference: {reference}\n  checkpointed: {result}"
            ));
        }
        let stats = conn.rpc_ok("{\"op\":\"stats\"}")?;
        let counter = |name: &str| {
            stats
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        };
        if counter("checkpoints") < 1.0 {
            return Err(format!("stats report no checkpoints: {stats:?}"));
        }
        if counter("compacted_bytes") <= 0.0 {
            return Err(format!("stats report no compacted bytes: {stats:?}"));
        }
        let compacted = wal_len(&ckpt_dir)?;
        let uncompacted = wal_len(&ref_dir)?;
        if compacted >= uncompacted {
            return Err(format!(
                "compaction did not shrink the wal: {compacted}b vs reference {uncompacted}b"
            ));
        }
        println!(
            "checkpoint leg: result identical, wal compacted to {compacted}b (reference {uncompacted}b)"
        );
        server.kill9()?;
    }

    // 6. Restart on the checkpointed dir: recovery must splice the
    //    newest checkpoint with the WAL tail and land on the same
    //    result, with every resend a duplicate (nothing was lost).
    {
        let server = Server::start_with(&ckpt_dir, ckpt_args)?;
        let mut conn = server.connect()?;
        let open = conn.rpc_ok(&open_line(session))?;
        if !matches!(open.get("recovered"), Some(JsonValue::Bool(true))) {
            return Err(format!(
                "open after checkpointed kill did not recover: {open:?}"
            ));
        }
        let mut duplicates = 0;
        for (i, event) in events.iter().enumerate() {
            let ack = conn.rpc_ok(&mutate_line(session, i + 1, event))?;
            if matches!(ack.get("duplicate"), Some(JsonValue::Bool(true))) {
                duplicates += 1;
            }
        }
        if duplicates != events.len() {
            return Err(format!(
                "expected every resend to be a duplicate after a clean kill, saw {duplicates} of {}",
                events.len()
            ));
        }
        conn.rpc_ok(&format!("{{\"op\":\"analyze\",\"session\":\"{session}\"}}"))?;
        let result = conn.rpc(&format!("{{\"op\":\"result\",\"session\":\"{session}\"}}"))?;
        if result != reference {
            return Err(format!(
                "checkpoint recovery differs from reference\n  reference: {reference}\n  recovered: {result}"
            ));
        }
        println!("OK: checkpointed session recovered byte-identically after kill -9");
    }

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    Ok(())
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("server_smoke FAILED: {msg}");
            std::process::ExitCode::FAILURE
        }
    }
}
