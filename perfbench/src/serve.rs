//! `serve`: an open loop into the server's bounded work queue.
//!
//! Requests arrive on a seeded schedule (gaps uniform in 0.5–1.5 of the
//! mean) into `WorkQueue` (one
//! worker, the default depth of 64) for a few sessions opened on seeded
//! corpus scenarios, under production defaults (fsync'd appends, 64 KiB
//! checkpoint threshold). The mix is write-heavy — mostly `mutate` (WAL
//! append + fsync) beside `analyze`/`result` reads and some `close` /
//! re-`open` churn that recovers sessions from checkpoint + WAL — so the
//! WAL, queueing and checkpoint layers show while the engine stays light.
//!
//! The mix, the session count and the arrival process are assumptions:
//! the repository holds no recorded trace of how the server is used.
//!
//! `BENCHMARK.json` does not list this workload: its figures are
//! wall-clock latencies of two threads and an fsync'd disk, and runs of
//! the same code on shared virtual machines spread far beyond any usable
//! regression bound (see the README).
//!
//! Every latency is timed from the request's *due* time, not from when
//! the generator got round to sending it; shed requests count as failed.
//! The run has two parts: a reference phase at [`REFERENCE_RPS`] (p50 and
//! tail) and a ladder that searches for capacity: it doubles the offered
//! rate from [`LADDER_START`] until a step fails (or halves it until one
//! passes), then bisects between the passing and the failing rate.
//! `max_ok_rps` is the rate achieved at the highest step whose tail stays
//! within [`TAIL_LIMIT_MS`] with no shedding and no growing backlog. A
//! step whose submits ran late by more than one inter-arrival gap fails:
//! a growing backlog when the full queue held them back, else the
//! generator itself fell behind and the step is invalid.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hem_obs::json;
use hem_server::session::render_result;
use hem_server::{CoreOptions, ServerCore, SessionEvent, Storage, WorkQueue};
use hem_system::dsl::{self, SourceDecl};
use hem_system::{analyze_robust, AnalysisMode, SystemConfig, SystemSpec};

use crate::stats::{self, Rng};
use crate::timed_storage::TimedStorage;
use crate::{data_dir, read, timed_setup, wire, Args, Outcome, CORPUS_DIR, SETUP_REPEATS};

/// Sessions served at once — few enough that each crosses the 64 KiB
/// checkpoint threshold during a run.
const SESSIONS: usize = 3;

/// Corpus scenarios the sessions are drawn from: the Fig. 2 family, so
/// every seed serves systems of the same size and shape.
const POOL: [&str; 6] = [
    "paper",
    "fig2_mixed",
    "fig2_jitter",
    "fig2_slow_pending",
    "fig2_periodic_frames",
    "fig2_scale1",
];

/// Queue depth (the server default).
const DEPTH: usize = 64;

/// The fixed reference rate of the p50/tail phase: a quarter of the
/// capacity (`max_ok_rps`, about 4000 req/s) the ladder found on a
/// 2-vCPU x86-64 virtual machine at the commit that introduced the
/// benchmark. Sessions keep their whole history in memory and
/// checkpoint it, so the reference phase decides how heavy the sessions
/// are when the ladder starts; after a phase at half capacity the
/// ladder's readings split between about 2700 and 4000 req/s across
/// runs of the same code, after a quarter they held at 4000.
pub const REFERENCE_RPS: f64 = 1000.0;

/// Share of the run spent at the reference rate.
const REFERENCE_SHARE: f64 = 0.5;

/// The ladder's first offered rate.
const LADDER_START: f64 = 1000.0;

/// Most doublings (or halvings, when the first step fails) of the
/// offered rate: up to 16 000 req/s, beyond what one generator thread
/// can schedule, or down to 62.5 req/s.
const DOUBLINGS: usize = 4;

/// Geometric bisections of the bracket between the passing and the
/// failing rate: 2^(1/8), a 9% resolution.
const BISECTIONS: usize = 3;

/// Steps the ladder's time is split into: a capacity of 2000–8000 req/s
/// takes 2–4 doublings and the bisections. Few, long steps: whether a
/// step passes turns on how many stalls (re-opens, checkpoints) fall
/// into it, and that count evens out only over hundreds of milliseconds.
const PLANNED_STEPS: usize = 7;

/// Fixed tail percentile of this workload.
const TAIL: f64 = 90.0;

/// A ladder step passes only with its tail within this limit.
pub const TAIL_LIMIT_MS: f64 = 5.0;

/// Queue depth at which the generator holds a due request back instead
/// of submitting it (one below where the queue would shed). A held
/// request's latency keeps counting from its due time, so a stall (a
/// re-open, a checkpoint, the host pausing the worker) costs the
/// requests it delays and no more; a backlog that keeps growing shows as
/// submits running late by more than a gap.
const HOLD_DEPTH: usize = DEPTH - 1;

/// The ops of the server's `service_us/<op>` histograms.
const SERVICE_OPS: [&str; 5] = ["open", "mutate", "analyze", "result", "other"];

/// Every this many analyze responses, one is checked against a cold
/// reference after the run.
const CHECK_EVERY: u64 = 8;

/// Most analyze responses checked in one run. Each check holds a copy
/// of the session's spec until the run ends; the cap keeps the run's
/// peak memory from following how many requests the ladder served.
const MAX_CHECKS: u64 = 200;

/// Request mix (an assumption, not a recorded trace): cumulative shares
/// of mutate, analyze, result; the rest (0.1%) closes and then re-opens
/// a session. A re-open replays the session's log and takes about 10 ms
/// on one worker; at 0.5% churn those stalls set both the tail and the
/// capacity, which then swung by a third between runs.
const MIX: [f64; 3] = [0.70, 0.85, 0.999];

/// Alternating blocks per side of the traced run's overhead comparison.
const OVERHEAD_BLOCKS: usize = 4;

/// A benchmark-side view of one session.
struct SessionState {
    name: String,
    scenario: String,
    spec: SystemSpec,
    /// `(task, bcet, wcet)` as opened.
    tasks: Vec<(String, i64, i64)>,
    /// Externally sourced signals `(frame, signal, period, jitter)`.
    sources: Vec<(String, String, i64, i64)>,
    /// Closed on the server; the next request re-opens it.
    closed: bool,
    /// Re-opened without a materialized result; the next request
    /// analyses.
    needs_analyze: bool,
}

impl SessionState {
    fn new(index: usize, name: &str) -> Result<Self, String> {
        let scenario = read(format!("{CORPUS_DIR}/{name}.hem"))?;
        let ast = dsl::parse_scenario(&scenario).map_err(|e| e.to_string())?;
        let tasks = ast
            .tasks
            .iter()
            .map(|t| (t.name.clone(), t.bcet, t.wcet))
            .collect();
        let sources = ast
            .frames
            .iter()
            .flat_map(|f| {
                f.signals.iter().filter_map(|s| match s.source {
                    SourceDecl::Periodic { period, jitter } => {
                        Some((f.name.clone(), s.name.clone(), period, jitter))
                    }
                    _ => None,
                })
            })
            .collect();
        Ok(SessionState {
            name: format!("s{index}"),
            spec: ast.to_spec(),
            scenario,
            tasks,
            sources,
            closed: false,
            needs_analyze: false,
        })
    }

    /// A seeded mutation that can only lighten the load: a WCET scaled
    /// by 0.8–1.0 of its opened value, or a source period stretched by
    /// 1.0–1.25.
    fn mutation(&self, rng: &mut Rng) -> SessionEvent {
        if self.sources.is_empty() || rng.below(2) == 0 {
            let (task, bcet, wcet) = &self.tasks[rng.below(self.tasks.len() as u64) as usize];
            let new_wcet = ((*wcet as f64) * (0.8 + 0.2 * rng.unit())).round().max(1.0) as i64;
            SessionEvent::SetTask {
                task: task.clone(),
                bcet: Some((*bcet).min(new_wcet)),
                wcet: Some(new_wcet),
                priority: None,
            }
        } else {
            let (frame, signal, period, jitter) =
                &self.sources[rng.below(self.sources.len() as u64) as usize];
            SessionEvent::SetSource {
                frame: frame.clone(),
                signal: signal.clone(),
                period: ((*period as f64) * (1.0 + 0.25 * rng.unit())).round() as i64,
                jitter: *jitter,
            }
        }
    }
}

/// What a request was, for checking its response.
enum Kind {
    Mutate,
    /// An analyze, with the spec it must reflect when it is checked.
    Analyze(Option<SystemSpec>),
    Result,
    Close,
    Open,
}

struct Client {
    sessions: Vec<SessionState>,
    rng: Rng,
    analyzes: u64,
}

impl Client {
    /// The next request line and its kind. State that depends on the
    /// server accepting the request is applied in [`Client::accepted`].
    fn next(&mut self) -> (usize, String, Kind, Option<SessionEvent>) {
        let s = self.rng.below(self.sessions.len() as u64) as usize;
        let session = &self.sessions[s];
        let name = session.name.clone();
        if session.closed {
            return (s, wire::open(&name, &session.scenario), Kind::Open, None);
        }
        if session.needs_analyze {
            return (s, wire::simple("analyze", &name), Kind::Analyze(None), None);
        }
        let r = self.rng.unit();
        if r < MIX[0] {
            let event = session.mutation(&mut self.rng);
            (s, wire::mutate(&name, &event), Kind::Mutate, Some(event))
        } else if r < MIX[1] {
            (s, wire::simple("analyze", &name), Kind::Analyze(None), None)
        } else if r < MIX[2] {
            (s, wire::simple("result", &name), Kind::Result, None)
        } else {
            (s, wire::simple("close", &name), Kind::Close, None)
        }
    }

    /// Applies the client-side effect of an accepted request (the queue
    /// is FIFO with one worker, so acceptance order is service order).
    fn accepted(
        &mut self,
        s: usize,
        kind: &mut Kind,
        event: Option<SessionEvent>,
    ) -> Result<(), String> {
        let session = &mut self.sessions[s];
        match kind {
            Kind::Mutate => {
                let event = event.ok_or("mutate without an event")?;
                event.apply(&mut session.spec).map_err(|e| e.to_string())?;
            }
            Kind::Analyze(check) => {
                session.needs_analyze = false;
                self.analyzes += 1;
                if self.analyzes.is_multiple_of(CHECK_EVERY)
                    && self.analyzes / CHECK_EVERY <= MAX_CHECKS
                {
                    *check = Some(session.spec.clone());
                }
            }
            Kind::Close => session.closed = true,
            Kind::Open => {
                session.closed = false;
                session.needs_analyze = true;
            }
            Kind::Result => {}
        }
        Ok(())
    }
}

/// Figures of one open-loop phase.
#[derive(Default)]
struct Phase {
    /// Due → response, seconds.
    latencies: Vec<f64>,
    /// Due → submit, seconds.
    late: Vec<f64>,
    sent: u64,
    shed: u64,
    depth_max: usize,
    elapsed_s: f64,
    /// Requests held back while the queue was at [`HOLD_DEPTH`].
    held: u64,
}

impl Phase {
    /// Pools another phase's figures into this one.
    fn absorb(&mut self, other: Phase) {
        self.latencies.extend(other.latencies);
        self.late.extend(other.late);
        self.sent += other.sent;
        self.shed += other.shed;
        self.depth_max = self.depth_max.max(other.depth_max);
        self.elapsed_s += other.elapsed_s;
        self.held += other.held;
    }
}

struct Server {
    core: Arc<ServerCore>,
    queue: WorkQueue,
    storage: Option<Arc<TimedStorage>>,
    client: Client,
}

fn setup(attempt: usize, seed: u64, traced: bool) -> Result<Server, String> {
    let dir = data_dir(&format!("serve{attempt}"))?;
    let mut options = CoreOptions::new(&dir);
    let storage = traced.then(|| Arc::new(TimedStorage::default()));
    if let Some(s) = &storage {
        options = options.storage(s.clone() as Arc<dyn Storage>);
    }
    let core = Arc::new(ServerCore::with_options(options).map_err(|e| e.to_string())?);
    let queue = WorkQueue::new(core.clone(), DEPTH, 1);
    let mut rng = Rng::new(seed, 4);
    let mut pool: Vec<&str> = POOL.to_vec();
    rng.shuffle(&mut pool);
    let sessions = pool[..SESSIONS]
        .iter()
        .enumerate()
        .map(|(i, name)| SessionState::new(i, name))
        .collect::<Result<Vec<_>, _>>()?;
    for session in &sessions {
        for line in [
            wire::open(&session.name, &session.scenario),
            wire::simple("analyze", &session.name),
        ] {
            let response = queue
                .submit(line)
                .map_err(|_| "set-up request shed".to_string())?
                .recv()
                .map_err(|e| e.to_string())?;
            if !wire::ok(&response) {
                return Err(format!("set-up request failed: {response}"));
            }
        }
    }
    Ok(Server {
        core,
        queue,
        storage,
        client: Client {
            sessions,
            rng: Rng::new(seed, 5),
            analyzes: 0,
        },
    })
}

/// A request in flight.
struct InFlight {
    due: Instant,
    rx: Receiver<String>,
    kind: Kind,
}

/// Everything the run keeps for after the timed phases.
#[derive(Default)]
struct Log {
    /// `(spec, served body)` pairs to check.
    checks: Vec<(SystemSpec, String)>,
    /// Every request line sent (traced runs only), for protocol replays.
    lines: Vec<String>,
    attempted: u64,
    failures: Vec<String>,
}

fn settle(flight: InFlight, response: &str, done: Instant, phase: &mut Phase, log: &mut Log) {
    phase.latencies.push((done - flight.due).as_secs_f64());
    log.attempted += 1;
    let analyze = matches!(flight.kind, Kind::Analyze(_));
    if !wire::ok(response) || (analyze && response.contains("\"stale\":true")) {
        log.failures.push(response.chars().take(160).collect());
        return;
    }
    if let Kind::Analyze(Some(spec)) = flight.kind {
        match wire::result_body(response) {
            Some(body) => log.checks.push((spec, body.to_string())),
            None => log.failures.push("analyze without a result".into()),
        }
    }
}

/// Drives one open-loop phase at `rate` for `seconds`.
fn drive(
    server: &mut Server,
    rate: f64,
    seconds: f64,
    log: &mut Log,
    keep_lines: bool,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut arrivals = Rng::new(server.client.rng.next_u64(), 6);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let gap = |rng: &mut Rng| Duration::from_secs_f64((0.5 + rng.unit()) / rate);
    let mut next_due = start + gap(&mut arrivals);
    let mut pending: VecDeque<InFlight> = VecDeque::new();
    let mut holding = false;
    while next_due < end {
        let now = Instant::now();
        if now >= next_due && server.queue.depth() >= HOLD_DEPTH {
            holding = true;
        } else if now >= next_due {
            if std::mem::take(&mut holding) {
                phase.held += 1;
            }
            let (s, line, mut kind, event) = server.client.next();
            if keep_lines {
                log.lines.push(line.clone());
            }
            phase.sent += 1;
            phase.late.push((now - next_due).as_secs_f64());
            match server.queue.submit(line) {
                Ok(rx) => {
                    server.client.accepted(s, &mut kind, event)?;
                    pending.push_back(InFlight {
                        due: next_due,
                        rx,
                        kind,
                    });
                    phase.depth_max = phase.depth_max.max(server.queue.depth());
                }
                Err(_) => {
                    phase.shed += 1;
                    log.attempted += 1;
                    log.failures.push("shed".into());
                }
            }
            next_due += gap(&mut arrivals);
            continue;
        }
        // The generator never sleeps: a sleeping thread's wake-up delay
        // on a virtual machine varies with the host's load and would land
        // in every latency it times. It spins while the worker is idle
        // and yields while a request is in flight, so a worker that the
        // scheduler put on the generator's core is not kept waiting.
        let Some(front) = pending.front() else {
            std::hint::spin_loop();
            continue;
        };
        match front.rx.try_recv() {
            Ok(response) => {
                let done = Instant::now();
                let flight = pending.pop_front().expect("front exists");
                settle(flight, &response, done, &mut phase, log);
            }
            Err(TryRecvError::Empty) => std::thread::yield_now(),
            Err(TryRecvError::Disconnected) => return Err("server worker hung up".into()),
        }
    }
    while let Some(flight) = pending.pop_front() {
        let response = flight
            .rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|e| format!("response never arrived: {e}"))?;
        let done = Instant::now();
        settle(flight, &response, done, &mut phase, log);
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    Ok(phase)
}

/// The ladder: doubles the offered rate while steps pass (halves it
/// while they fail), then bisects the bracket; returns the achieved rate
/// of the highest passing step (0 when none passes) and the phases run.
fn ladder(
    server: &mut Server,
    seconds: f64,
    log: &mut Log,
    out: &mut Outcome,
    keep_lines: bool,
) -> Result<(f64, Vec<Phase>), String> {
    let step_s = seconds / PLANNED_STEPS as f64;
    let (mut passing, mut failing) = (0.0, f64::INFINITY);
    let mut rate = LADDER_START;
    let (mut doublings, mut bisections) = (0, 0);
    let mut best = 0.0;
    let mut phases: Vec<Phase> = Vec::new();
    loop {
        let mut step = drive(server, rate, step_s, log, keep_lines)?;
        let late_tail = stats::percentile(&mut step.late, TAIL);
        let tail = stats::tail(&mut step.latencies, TAIL);
        // Submits late by more than a gap: a growing backlog when the
        // queue made the generator hold requests, else the generator
        // itself fell behind and the step is invalid.
        let late = late_tail > 1.0 / rate;
        let passed = !late && step.shed == 0 && tail.value * 1e3 <= TAIL_LIMIT_MS;
        let achieved = step.latencies.len() as f64 / step.elapsed_s;
        out.notes.push(format!(
            "ladder {rate:.0} rps: achieved {achieved:.1}, p{} {:.3} ms over {}, shed {}, depth_max {}, held {}, late p{TAIL} {:.3} ms{}",
            tail.percentile,
            tail.value * 1e3,
            tail.samples,
            step.shed,
            step.depth_max,
            step.held,
            late_tail * 1e3,
            if late && step.held > 0 {
                " (fail: backlog)"
            } else if late {
                " (invalid: generator late)"
            } else if passed {
                ""
            } else {
                " (fail)"
            }
        ));
        phases.push(step);
        if passed {
            (passing, best) = (rate, achieved);
        } else {
            failing = rate;
        }
        if failing.is_infinite() && doublings < DOUBLINGS {
            doublings += 1;
            rate *= 2.0;
        } else if passing == 0.0 && doublings < DOUBLINGS {
            doublings += 1;
            rate /= 2.0;
        } else if failing.is_finite() && passing > 0.0 && bisections < BISECTIONS {
            bisections += 1;
            rate = f64::sqrt(passing * failing);
        } else {
            break;
        }
    }
    Ok((best, phases))
}

/// Runs the `serve` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut server = timed_setup(&mut out, |i| setup(i, args.seed, args.trace))?;
    let mut log = Log::default();

    let reference_s = args.seconds * REFERENCE_SHARE;
    let (reference, baseline) = if args.trace {
        // Half the reference time on a server over plain storage, for
        // the tracing-overhead figure, half on the timed-storage server
        // (keeping request lines), in alternating blocks so a drift of
        // the host over the run falls on both alike.
        let mut plain = setup(SETUP_REPEATS, args.seed, false)?;
        let block_s = reference_s / (2 * OVERHEAD_BLOCKS) as f64;
        let (mut baseline, mut traced) = (Phase::default(), Phase::default());
        for _ in 0..OVERHEAD_BLOCKS {
            baseline.absorb(drive(&mut plain, REFERENCE_RPS, block_s, &mut log, false)?);
            traced.absorb(drive(&mut server, REFERENCE_RPS, block_s, &mut log, true)?);
        }
        (traced, Some(baseline))
    } else {
        (
            drive(&mut server, REFERENCE_RPS, reference_s, &mut log, false)?,
            None,
        )
    };
    // Sessions keep their whole history in memory, so memory after the
    // ladder follows how many requests the capacity search served; the
    // peak is read where every run has served the same schedule.
    out.set("peak_rss_mib", crate::peak_rss_mib());
    let (max_ok, steps) = ladder(
        &mut server,
        args.seconds - reference_s,
        &mut log,
        &mut out,
        args.trace,
    )?;

    let mut latencies = reference.latencies.clone();
    let p50_ms = stats::median(&mut latencies) * 1e3;
    let tail = stats::tail(&mut latencies, TAIL);
    let mut late: Vec<f64> = reference.late.clone();
    late.extend(steps.iter().flat_map(|s| s.late.iter().copied()));
    let sent = reference.sent + steps.iter().map(|s| s.sent).sum::<u64>();
    let shed = reference.shed + steps.iter().map(|s| s.shed).sum::<u64>();
    let depth_max = steps
        .iter()
        .map(|s| s.depth_max)
        .fold(reference.depth_max, usize::max);

    // Post-run oracle: served analyze bodies against cold references.
    let reference_config = SystemConfig::new(AnalysisMode::Hierarchical);
    let mut render_s = 0.0;
    let mut render_bytes = 0usize;
    for (spec, body) in &log.checks {
        log.attempted += 1;
        let robust = analyze_robust(spec, &reference_config).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let expected = render_result(&robust);
        render_s += start.elapsed().as_secs_f64();
        render_bytes += expected.len();
        if expected != *body {
            log.failures.push(
                "served analyze body differs from render_result(analyze_robust(spec))".into(),
            );
        }
    }
    out.attempted = log.attempted;
    for failure in std::mem::take(&mut log.failures) {
        out.fail(failure);
    }

    if !args.trace {
        // The offered schedule sets the completed-request rate, so
        // ops_per_s is the worker's: requests per second of service
        // time, from the server's own `service_us/*` histograms.
        let snapshot = wire::scrape(&server.core)?;
        let (mut count, mut sum_us) = (0.0, 0.0);
        for op in SERVICE_OPS {
            count += wire::histogram(&snapshot, &format!("service_us/{op}"), "count");
            sum_us += wire::histogram(&snapshot, &format!("service_us/{op}"), "sum");
        }
        out.set("ops_per_s", count / (sum_us / 1e6));
        out.set("p50_ms", p50_ms);
        out.set("tail_ms", tail.value * 1e3);
        out.notes.push(format!(
            "p50_ms and tail_ms (p{}) over {} samples at {REFERENCE_RPS} rps; max_ok_rps {max_ok:.1} (highest ladder step with p{TAIL} <= {TAIL_LIMIT_MS} ms); ops_per_s over {count} requests served in {:.1} ms of service time",
            tail.percentile,
            tail.samples,
            sum_us / 1e3
        ));
        return Ok(out);
    }

    let mut baseline = baseline.expect("traced runs measure a baseline");
    out.set(
        "trace.overhead_pct",
        (p50_ms / (stats::median(&mut baseline.latencies) * 1e3) - 1.0) * 100.0,
    );
    out.set("gen.late_tail_ms", stats::percentile(&mut late, TAIL) * 1e3);
    out.set("gen.sent", sent as f64);
    out.set("gen.shed", shed as f64);
    out.set("queue.depth_max", depth_max as f64);
    report_traced(&mut out, &server, &log, render_s, render_bytes)?;
    Ok(out)
}

fn report_traced(
    out: &mut Outcome,
    server: &Server,
    log: &Log,
    render_s: f64,
    render_bytes: usize,
) -> Result<(), String> {
    // Protocol replays over the request lines of the traced phases.
    let mut json_s = 0.0;
    let mut decode_s = 0.0;
    let mut mutates = 0usize;
    for line in &log.lines {
        let start = Instant::now();
        let parsed = json::parse(line).map_err(|e| e.to_string())?;
        json_s += start.elapsed().as_secs_f64();
        if let Some(event) = parsed.get("event") {
            let start = Instant::now();
            SessionEvent::from_json(event).map_err(|e| e.to_string())?;
            decode_s += start.elapsed().as_secs_f64();
            mutates += 1;
        }
    }
    let snapshot = wire::scrape(&server.core)?;
    let storage = server
        .storage
        .as_ref()
        .ok_or("traced serve without timed storage")?;
    let [append_count, append_ns, sync_count, sync_ns, checkpoint_ns] = storage.snapshot();
    let checkpoints = wire::counter(&snapshot, "checkpoints");
    let per = |ns: u64, n: f64| if n > 0.0 { ns as f64 / 1e3 / n } else { 0.0 };
    let lines = log.lines.len().max(1) as f64;
    let checks = log.checks.len().max(1) as f64;

    out.set("json.parse_us", json_s * 1e6 / lines);
    out.set("event.decode_us", decode_s * 1e6 / mutates.max(1) as f64);
    out.set(
        "queue.wait_p50_us",
        wire::histogram(&snapshot, "queue_wait_us/mutate", "p50"),
    );
    out.set(
        "queue.wait_tail_us",
        wire::histogram(&snapshot, "queue_wait_us/mutate", "p99"),
    );
    for op in ["open", "mutate", "analyze", "result"] {
        let name = format!("service.{op}_p50_us");
        out.set(
            &name,
            wire::histogram(&snapshot, &format!("service_us/{op}"), "p50"),
        );
    }
    out.set("storage.append_us", per(append_ns, append_count as f64));
    out.set("storage.append_count", append_count as f64);
    out.set("storage.sync_us", per(sync_ns, sync_count as f64));
    out.set("storage.sync_count", sync_count as f64);
    out.set("checkpoint.count", checkpoints);
    out.set("checkpoint.us", per(checkpoint_ns, checkpoints));
    out.set(
        "checkpoint.compacted_bytes",
        wire::counter(&snapshot, "compacted_bytes"),
    );
    out.set("render.us", render_s * 1e6 / checks);
    out.set("render.bytes", render_bytes as f64 / checks);

    // Attribution of the mean service time of a request.
    let mut service_sum = 0.0;
    let mut service_count = 0.0;
    let mut analyze_sum = 0.0;
    let mut analyze_count = 0.0;
    for op in SERVICE_OPS {
        let name = format!("service_us/{op}");
        service_sum += wire::histogram(&snapshot, &name, "sum");
        service_count += wire::histogram(&snapshot, &name, "count");
        if op == "analyze" {
            analyze_sum = wire::histogram(&snapshot, &name, "sum");
            analyze_count = wire::histogram(&snapshot, &name, "count");
        }
    }
    let requests = service_count.max(1.0);
    let e2e_us = service_sum / requests;
    let json_us = json_s * 1e6 / lines;
    let decode_us = decode_s * 1e6 / lines;
    let storage_us = (append_ns + sync_ns + checkpoint_ns) as f64 / 1e3 / requests;
    let render_us = render_s * 1e6 / checks * analyze_count / requests;
    let engine_us = (analyze_sum / requests - render_us).max(0.0);
    let sum_us = json_us + decode_us + storage_us + engine_us + render_us;
    out.set("attribution.sum_us", sum_us);
    out.set("attribution.coverage_pct", 100.0 * sum_us / e2e_us);
    out.notes.push(format!(
        "attribution serve (us/request, service time): json.parse {json_us:.1} + event.decode {decode_us:.1} + storage+checkpoint {storage_us:.1} + engine (analyze service less render) {engine_us:.1} + render {render_us:.1} = {sum_us:.1} vs mean service {e2e_us:.1}"
    ));
    Ok(())
}
