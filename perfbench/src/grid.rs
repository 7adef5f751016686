//! `grid_edit`: the warm use of the engine through the server core.
//!
//! One client in a closed loop on `ServerCore::handle_line`. Set-up opens
//! a session on a 64-replica scaled Fig. 2 grid (12 receiver tasks per
//! CPU, 768 tasks, emitted as DSL text) and runs its cold analysis. One
//! op is a seeded single-replica `mutate` (the pending source s3 of one
//! replica re-timed) followed by `analyze`: each edit dirties 1/64 of
//! the system, so warm-start reuse has the most room to pay. Every
//! [`CHECK_EVERY`]-th analyze body is compared, after the timed phase,
//! with `render_result(analyze_robust(spec))` of a spec the benchmark
//! rebuilds through `SessionEvent::apply`.

use std::cell::Cell;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use hem_obs::json;
use hem_obs::{Counter, MemoryRecorder};
use hem_server::hash::fnv1a64;
use hem_server::session::render_result;
use hem_server::{CoreOptions, ServerCore, SessionEvent, Storage, WorkQueue};
use hem_system::{
    analyze_incremental, analyze_robust, dsl, AnalysisMode, SystemConfig, SystemSpec, WarmStart,
};

use crate::layers::{self, EngineCounters, EngineLayers};
use crate::stats::Rng;
use crate::timed_storage::TimedStorage;
use crate::{data_dir, for_seconds, wire, Args, ClosedLoop, Outcome};

/// Ops per window of the closed loop (about 0.3 s).
const WINDOW_OPS: usize = 32;

/// Depth of the traced run's work queue (the server default).
const QUEUE_DEPTH: usize = 64;

/// Replicas of the scaled Fig. 2 system.
pub const REPLICAS: usize = 64;

/// Receiver tasks per signal on each replica CPU (12 per CPU).
const TASKS_PER_SIGNAL: usize = 3;

/// Core execution times of the receivers of s1–s4 (ticks).
const RECEIVER_CET: [i64; 4] = [240, 320, 400, 200];

/// Every this many ops, an analyze body is checked against a cold
/// reference.
const CHECK_EVERY: u64 = 32;

/// Parses of the grid's text the traced run times for `dsl.parse_us`.
const DSL_PARSES: usize = 5;

/// Fixed tail percentile of this workload.
const TAIL: f64 = 90.0;

/// Share of a traced run spent on the untraced baseline.
const BASELINE_SHARE: f64 = 0.3;

const SESSION: &str = "grid";

/// The grid as DSL text: replica `r<i>` has CPU `r<i>_cpu`, bus
/// `r<i>_can`, frames `r<i>_F1` (s1, s2 triggering; s3 pending) and
/// `r<i>_F2` (s4), and tasks `r<i>_T1`–`r<i>_T12` (`T<k>` has priority
/// `k` and receives signal `s<1 + (k-1) mod 4>`). Each replica's
/// pending source s3 starts at a seeded period drawn like the edits', so
/// the grid is in its steady state from the first op on.
#[must_use]
pub fn scenario(seed: u64) -> String {
    let mut rng = Rng::new(seed, 7);
    let mut out = String::new();
    for i in 0..REPLICAS {
        let r = format!("r{i}");
        let s3 = s3_period(&mut rng);
        let _ = write!(
            out,
            "cpu {r}_cpu\nbus {r}_can bit_time=1\n\
             frame {r}_F1 bus={r}_can type=direct payload=4 prio=1\n  signal s1 triggering periodic:2500\n  signal s2 triggering periodic:4500\n  signal s3 pending periodic:{s3}\n\
             frame {r}_F2 bus={r}_can type=direct payload=2 prio=2\n  signal s4 triggering periodic:4000\n"
        );
        for k in 0..4 * TASKS_PER_SIGNAL {
            let sig = k % 4;
            let frame = if sig == 3 { "F2" } else { "F1" };
            let _ = writeln!(
                out,
                "task {r}_T{} cpu={r}_cpu cet={} prio={} activation={r}_{frame}/s{}",
                k + 1,
                RECEIVER_CET[sig],
                k + 1,
                sig + 1
            );
        }
    }
    out
}

/// A seeded s3 period of 4500–11990 ticks (the range that keeps every
/// replica schedulable).
fn s3_period(rng: &mut Rng) -> i64 {
    (450 + rng.below(750) as i64) * 10
}

/// The seeded edit: re-time one replica's pending source s3.
fn edit(rng: &mut Rng) -> SessionEvent {
    SessionEvent::SetSource {
        frame: format!("r{}_F1", rng.below(REPLICAS as u64)),
        signal: "s3".into(),
        period: s3_period(rng),
        jitter: 0,
    }
}

struct Grid {
    core: Arc<ServerCore>,
    spec: SystemSpec,
    storage: Option<Arc<TimedStorage>>,
}

fn setup(attempt: usize, seed: u64, traced: bool) -> Result<Grid, String> {
    let text = scenario(seed);
    let dir = data_dir(&format!("grid{attempt}"))?;
    let mut options = CoreOptions::new(&dir);
    let storage = traced.then(|| Arc::new(TimedStorage::default()));
    if let Some(s) = &storage {
        options = options.storage(s.clone() as Arc<dyn Storage>);
    }
    let core = Arc::new(ServerCore::with_options(options).map_err(|e| e.to_string())?);
    let opened = core.handle_line(&wire::open(SESSION, &text));
    if !wire::ok(&opened) {
        return Err(format!("grid open failed: {opened}"));
    }
    let analyzed = core.handle_line(&wire::simple("analyze", SESSION));
    if !wire::ok(&analyzed) {
        return Err(format!("grid cold analyze failed: {analyzed}"));
    }
    let spec = dsl::parse(&text).map_err(|e| e.to_string())?;
    Ok(Grid {
        core,
        spec,
        storage,
    })
}

/// One round trip through `send`, which returns a request's response;
/// returns the analyze body, or why the op failed.
fn round_trip(
    send: impl Fn(&str) -> Result<String, String>,
    mutate_line: &str,
    analyze_line: &str,
) -> Result<String, String> {
    let mutated = send(mutate_line)?;
    if !wire::ok(&mutated) {
        return Err(format!("mutate failed: {mutated}"));
    }
    let analyzed = send(analyze_line)?;
    if !wire::ok(&analyzed) || analyzed.contains("\"stale\":true") {
        return Err(format!(
            "analyze failed: {}",
            &analyzed[..analyzed.len().min(200)]
        ));
    }
    wire::result_body(&analyzed)
        .map(str::to_string)
        .ok_or_else(|| "analyze response without a result".into())
}

/// Accumulated traced figures (sums over ops).
#[derive(Default)]
struct Traced {
    ops: f64,
    op_s: f64,
    json_us: f64,
    decode_us: f64,
    analyze_us: f64,
    counters: EngineCounters,
    cone: f64,
    warm_hits: f64,
    full_fallbacks: f64,
    render_us: f64,
    render_bytes: f64,
    layers: EngineLayers,
    depth_max: usize,
}

/// Runs the `grid_edit` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let first = setup(0, args.seed, args.trace)?;
    // A traced run measures its untraced baseline on a grid over plain
    // storage, and its traced phase on the timed-storage grid.
    let (mut grid, traced_grid) = if args.trace {
        (setup(1, args.seed, false)?, Some(first))
    } else {
        (first, None)
    };
    let mut rng = Rng::new(args.seed, 2);
    let analyze_line = wire::simple("analyze", SESSION);

    let untraced_seconds = if args.trace {
        args.seconds * BASELINE_SHARE
    } else {
        args.seconds
    };
    let mut timed = ClosedLoop::new(WINDOW_OPS);
    // Every applied edit, and `(edits applied, body hash, body length)`
    // of the analyze bodies to check: replaying the edits afterwards
    // keeps memory flat however many ops a run completes.
    let mut events: Vec<SessionEvent> = Vec::new();
    let mut checks: Vec<(usize, u64, usize)> = Vec::new();
    for_seconds(untraced_seconds, || {
        if !args.trace {
            // Each repeat reuses one data directory, which `setup` empties.
            timed.setup_each_window(|| setup(2, args.seed, false))?;
        }
        let event = edit(&mut rng);
        let line = wire::mutate(SESSION, &event);
        let core = &grid.core;
        let outcome = timed.time(|| round_trip(|l| Ok(core.handle_line(l)), &line, &analyze_line));
        event.apply(&mut grid.spec).map_err(|e| e.to_string())?;
        events.push(event);
        match outcome {
            Ok(body) if (events.len() as u64).is_multiple_of(CHECK_EVERY) => {
                checks.push((events.len(), fnv1a64(body.as_bytes()), body.len()));
            }
            Ok(_) => {}
            Err(e) => out.fail(e),
        }
        Ok(())
    })?;
    out.attempted = events.len() as u64;

    if let Some(mut traced) = traced_grid {
        let untraced_ops_per_s = timed.wall_ops_per_s();
        let t = trace_phase(
            args.seconds - untraced_seconds,
            &mut traced,
            &mut rng,
            &mut out,
        )?;
        report_traced(&mut out, &traced, &t, untraced_ops_per_s)?;
        // The DSL layer runs here once per session open, in set-up: the
        // parse of the grid's text, per open.
        let text = scenario(args.seed);
        let start = Instant::now();
        for _ in 0..DSL_PARSES {
            std::hint::black_box(dsl::parse(&text).map_err(|e| e.to_string())?);
        }
        out.set(
            "dsl.parse_us",
            start.elapsed().as_secs_f64() * 1e6 / DSL_PARSES as f64,
        );
    } else {
        timed.report(&mut out, TAIL);
    }

    let reference = SystemConfig::new(AnalysisMode::Hierarchical);
    let mut spec = dsl::parse(&scenario(args.seed)).map_err(|e| e.to_string())?;
    let mut applied = 0;
    for (at, hash, len) in checks {
        for event in &events[applied..at] {
            event.apply(&mut spec).map_err(|e| e.to_string())?;
        }
        applied = at;
        out.attempted += 1;
        let body = render_result(&analyze_robust(&spec, &reference).map_err(|e| e.to_string())?);
        if (fnv1a64(body.as_bytes()), body.len()) != (hash, len) {
            out.fail(format!("grid analyze body after edit {at} differs from render_result(analyze_robust(spec))"));
        }
    }
    Ok(out)
}

fn trace_phase(
    seconds: f64,
    grid: &mut Grid,
    rng: &mut Rng,
    out: &mut Outcome,
) -> Result<Traced, String> {
    let analyze_line = wire::simple("analyze", SESSION);
    // The benchmark's own warm chain mirrors the session's.
    let mut warm: Option<WarmStart> = analyze_incremental(
        &grid.spec,
        &SystemConfig::new(AnalysisMode::Hierarchical).with_threads(1),
        None,
    )
    .map_err(|e| e.to_string())?
    .snapshot;
    let mut t = Traced::default();
    // The traced requests go through the server's work queue (one
    // worker, one request in flight), so the queue layer is measured.
    let queue = WorkQueue::new(grid.core.clone(), QUEUE_DEPTH, 1);
    let depth_max = Cell::new(0);
    let send = |line: &str| -> Result<String, String> {
        let rx = queue
            .submit(line.to_string())
            .map_err(|_| "request shed".to_string())?;
        depth_max.set(depth_max.get().max(queue.depth()));
        rx.recv().map_err(|e| e.to_string())
    };
    for_seconds(seconds, || {
        let event = edit(rng);
        let line = wire::mutate(SESSION, &event);
        let start = Instant::now();
        let outcome = round_trip(send, &line, &analyze_line);
        t.op_s += start.elapsed().as_secs_f64();
        t.ops += 1.0;
        out.attempted += 1;

        // Protocol layers: the two request parses and the event decode.
        let start = Instant::now();
        let parsed = json::parse(&line).map_err(|e| e.to_string())?;
        let _ = json::parse(&analyze_line).map_err(|e| e.to_string())?;
        t.json_us += start.elapsed().as_secs_f64() * 1e6;
        let event_json = parsed.get("event").ok_or("mutate line without an event")?;
        let start = Instant::now();
        let decoded = SessionEvent::from_json(event_json).map_err(|e| e.to_string())?;
        t.decode_us += start.elapsed().as_secs_f64() * 1e6;
        decoded.apply(&mut grid.spec).map_err(|e| e.to_string())?;

        // Engine layers: the same warm-started analysis, recorded.
        let (recorder, handle) = MemoryRecorder::metrics_only_handle();
        let config = SystemConfig::new(AnalysisMode::Hierarchical)
            .with_threads(1)
            .with_recorder(handle);
        let start = Instant::now();
        let inc =
            analyze_incremental(&grid.spec, &config, warm.as_ref()).map_err(|e| e.to_string())?;
        t.analyze_us += start.elapsed().as_secs_f64() * 1e6;
        let snap = recorder.snapshot();
        t.counters.add(&snap);
        t.warm_hits += snap.counter(Counter::WarmStartHits) as f64;
        t.full_fallbacks += snap.counter(Counter::FullFallbacks) as f64;
        t.cone += inc.reuse.cone_fraction();
        let dirty: HashSet<String> = inc.reuse.dirty_resources.iter().cloned().collect();
        t.layers.add(&layers::replay(
            &grid.spec,
            &inc.analysis.results,
            Some(&dirty),
        )?);

        let start = Instant::now();
        let body = render_result(&inc.analysis);
        t.render_us += start.elapsed().as_secs_f64() * 1e6;
        t.render_bytes += body.len() as f64;
        match outcome {
            Ok(served) if served == body => {}
            Ok(_) => out.fail("traced analyze body differs from the recorded replay".into()),
            Err(e) => out.fail(e),
        }
        warm = inc.snapshot;
        Ok(())
    })?;
    t.depth_max = depth_max.get();
    Ok(t)
}

fn report_traced(
    out: &mut Outcome,
    grid: &Grid,
    t: &Traced,
    untraced_ops_per_s: f64,
) -> Result<(), String> {
    let n = t.ops;
    let storage = grid
        .storage
        .as_ref()
        .ok_or("traced grid without timed storage")?;
    let [append_count, append_ns, sync_count, sync_ns, checkpoint_ns] = storage.snapshot();
    let snapshot = wire::scrape(&grid.core)?;
    // Storage totals cover the traced grid (its open and the traced
    // phase): per call for the layer figures, per traced op for the
    // attribution.
    let per_call = |ns: u64, calls: u64| ns as f64 / 1e3 / calls.max(1) as f64;
    let checkpoints = wire::counter(&snapshot, "checkpoints");
    let append_us = append_ns as f64 / 1e3 / n;
    let sync_us = sync_ns as f64 / 1e3 / n;
    let checkpoint_us = checkpoint_ns as f64 / 1e3 / n;
    let engine_unattributed = layers::report(out, &t.layers, &t.counters, t.analyze_us, n);
    let e2e_us = t.op_s * 1e6 / n;
    let sum_us = t.json_us / n
        + t.decode_us / n
        + append_us
        + sync_us
        + checkpoint_us
        + t.layers.attributed_us() / n
        + engine_unattributed
        + t.render_us / n;

    out.set("warm.cone_fraction", t.cone / n);
    out.set("warm.hits", t.warm_hits / n);
    out.set("warm.full_fallbacks", t.full_fallbacks);
    out.set("json.parse_us", t.json_us / n);
    out.set("event.decode_us", t.decode_us / n);
    out.set(
        "service.mutate_p50_us",
        wire::histogram(&snapshot, "service_us/mutate", "p50"),
    );
    out.set(
        "service.analyze_p50_us",
        wire::histogram(&snapshot, "service_us/analyze", "p50"),
    );
    out.set(
        "queue.wait_p50_us",
        wire::histogram(&snapshot, "queue_wait_us/mutate", "p50"),
    );
    out.set(
        "queue.wait_tail_us",
        wire::histogram(&snapshot, "queue_wait_us/mutate", "p99"),
    );
    out.set("queue.depth_max", t.depth_max as f64);
    out.set("storage.append_us", per_call(append_ns, append_count));
    out.set("storage.append_count", append_count as f64);
    out.set("storage.sync_us", per_call(sync_ns, sync_count));
    out.set("storage.sync_count", sync_count as f64);
    out.set("checkpoint.count", checkpoints);
    out.set("checkpoint.us", per_call(checkpoint_ns, checkpoints as u64));
    out.set(
        "checkpoint.compacted_bytes",
        wire::counter(&snapshot, "compacted_bytes"),
    );
    out.set("render.us", t.render_us / n);
    out.set("render.bytes", t.render_bytes / n);
    out.set(
        "trace.overhead_pct",
        (untraced_ops_per_s / (n / t.op_s) - 1.0) * 100.0,
    );
    out.set("attribution.sum_us", sum_us);
    out.set("attribution.coverage_pct", 100.0 * sum_us / e2e_us);
    out.notes.push(format!(
        "attribution grid_edit (us/op): json.parse {:.1} + event.decode {:.1} + storage.append {:.1} + storage.sync {:.1} + checkpoint {:.1} + analytic.lift {:.1} + hem.pack {:.1} + hem.inner_update {:.1} + hem.unpack {:.1} + busy_window {:.1} + engine.unattributed {:.1} + render {:.1} = {:.1} vs traced op {:.1}",
        t.json_us / n,
        t.decode_us / n,
        append_us,
        sync_us,
        checkpoint_us,
        t.layers.lift_us / n,
        t.layers.pack_us / n,
        t.layers.inner_update_us / n,
        t.layers.unpack_us / n,
        t.layers.busy_window_us / n,
        engine_unattributed,
        t.render_us / n,
        sum_us,
        e2e_us
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_has_768_tasks_on_64_cpus() {
        let spec = dsl::parse(&scenario(0)).expect("grid parses");
        assert_eq!(spec.cpus.len(), REPLICAS);
        assert_eq!(spec.buses.len(), REPLICAS);
        assert_eq!(spec.frames.len(), 2 * REPLICAS);
        assert_eq!(spec.tasks.len(), 768);
    }
}
