//! The repository benchmark: four seeded workloads over the public entry
//! points of the HEM engine, explorer and server.
//!
//! ```text
//! perfbench --workload <corpus|grid_edit|explore|serve> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --generate-expected     # rewrite perfbench/expected/* from this build
//! perfbench --self-test             # a corrupted expected value must fail a run
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object `{"correct","attempted","failed","metrics"}`; with
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. See `perfbench/README.md`.

mod corpus;
mod explore;
mod grid;
mod layers;
mod serve;
mod stats;
mod timed_storage;
mod wire;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Scratch directory (relative to the repository root) for session data;
/// removed at the end of every run.
pub const DATA_DIR: &str = ".perfbench_data";

/// The committed scenario corpus.
pub const CORPUS_DIR: &str = "crates/bench/scenarios";

/// Committed oracle files.
pub const EXPECTED_DIR: &str = "perfbench/expected";

/// How many times `serve` repeats its set-up in a row; `setup_s` is the
/// median. The closed loops repeat theirs once per window (see
/// [`ClosedLoop::setup_each_window`]).
pub const SETUP_REPEATS: usize = 15;

/// The end-to-end metrics every untraced run prints.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run prints (0 where a layer is not
/// on the workload's path; see the README's applicability table).
pub const PER_LAYER: [(&str, &str); 47] = [
    ("dsl.parse_us", "us"),
    ("engine.analyze_us", "us"),
    ("engine.global_iterations", "count"),
    ("engine.unattributed_us", "us"),
    ("analytic.lift_us", "us"),
    ("analytic.lifts", "count"),
    ("analytic.fallbacks", "count"),
    ("curve.query_us", "us"),
    ("curve.queries", "count"),
    ("cache.hit_pct", "%"),
    ("hem.pack_us", "us"),
    ("hem.inner_update_us", "us"),
    ("hem.unpack_us", "us"),
    ("hem.packing_ops", "count"),
    ("busy_window.us", "us"),
    ("busy_window.iterations", "count"),
    ("warm.cone_fraction", "ratio"),
    ("warm.hits", "count"),
    ("warm.full_fallbacks", "count"),
    ("explore.visited", "count"),
    ("explore.pruned_pct", "%"),
    ("explore.analyzed", "count"),
    ("json.parse_us", "us"),
    ("event.decode_us", "us"),
    ("queue.wait_p50_us", "us"),
    ("queue.wait_tail_us", "us"),
    ("queue.depth_max", "count"),
    ("service.open_p50_us", "us"),
    ("service.mutate_p50_us", "us"),
    ("service.analyze_p50_us", "us"),
    ("service.result_p50_us", "us"),
    ("storage.append_us", "us"),
    ("storage.append_count", "count"),
    ("storage.sync_us", "us"),
    ("storage.sync_count", "count"),
    ("checkpoint.count", "count"),
    ("checkpoint.us", "us"),
    ("checkpoint.compacted_bytes", "bytes"),
    ("render.us", "us"),
    ("render.bytes", "bytes"),
    ("gen.late_tail_ms", "ms"),
    ("gen.sent", "count"),
    ("gen.shed", "count"),
    ("failed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("attribution.sum_us", "us"),
    ("attribution.coverage_pct", "%"),
];

/// Parsed command line of a benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured phase (plus oracle checks).
    pub attempted: u64,
    /// Ops that errored, were shed, or did not match their reference.
    pub failed: u64,
    /// Metric name → value (units come from the metric tables).
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a failed check with its reason (only the first few
    /// reasons are kept).
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("FAILED: {reason}"));
        }
    }
}

/// Runs `op` until `seconds` of wall time have passed (at least once).
pub fn for_seconds(seconds: f64, mut op: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        op()?;
        if Instant::now() >= deadline {
            return Ok(());
        }
    }
}

/// CPU time used so far by all threads of this process, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// Set-ups and closed-loop ops are timed on this clock, not the wall
/// clock. On the shared virtual machines the benchmark runs on, the host
/// takes the vCPU away for stretches of seconds to minutes. The guest
/// kernel (paravirtual steal-time accounting) counts that as steal time,
/// outside every thread's CPU time, while it lands in wall-clock times:
/// closed-loop rates of the same code read a quarter apart between runs
/// on the wall clock. CPU time also leaves out time blocked, such as an
/// fsync's wait for the disk, and time other processes held the core.
#[must_use]
pub fn cpu_seconds() -> f64 {
    // `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and the clock id is one every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Repeats `setup` [`SETUP_REPEATS`] times; records the median CPU time
/// of a set-up (see [`cpu_seconds`]) as `setup_s` and returns the last
/// result.
pub fn timed_setup<T>(
    out: &mut Outcome,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        let start = cpu_seconds();
        let value = setup(i)?;
        times.push(cpu_seconds() - start);
        last = Some(value);
    }
    out.set("setup_s", stats::median(&mut times));
    Ok(last.expect("at least one set-up"))
}

/// Windows the closed-loop figures are taken from (see [`ClosedLoop`]).
pub const FAST_WINDOWS: usize = 8;

/// One window of a closed loop.
#[derive(Debug, Default)]
struct Window {
    /// CPU seconds per op.
    cpu: stats::Hist,
    /// The slowest op's CPU seconds.
    max: f64,
    /// Work units done (ops, or explored configurations).
    work: f64,
    /// CPU seconds of the set-up repeated at the window's start.
    setup_s: Option<f64>,
}

impl Window {
    /// What ranks a complete window: its mean op time without its
    /// slowest op.
    fn rank(&self) -> f64 {
        (self.cpu.sum() - self.max) / (self.cpu.len().max(2) - 1) as f64
    }
}

/// The op times of a closed loop, in CPU time (see [`cpu_seconds`]),
/// split into consecutive windows of a fixed number of ops. A workload
/// sizes its windows to whole cycles of its op order, so every window
/// holds the same mix of ops.
///
/// The end-to-end figures pool the [`FAST_WINDOWS`] complete windows
/// whose mean op time, leaving out the window's slowest op, is lowest.
/// The shared hosts this runs on switch, every second or so, between a
/// fast state and one in which the same ops take 1.15–1.6× the CPU
/// time, with no steal time: cache and memory contention from
/// neighbours. How much of a run falls in the slow state differs from
/// run to run, so figures over every window spread by a quarter or more.
/// The ranking sees the slow state in any part of a window, but not one
/// of the program's own rare slow ops (a checkpoint), so those stay in
/// the figures; a slowdown of the program in every window moves them.
#[derive(Debug)]
pub struct ClosedLoop {
    window_ops: usize,
    current: Window,
    /// The fastest complete windows so far, fastest first.
    fastest: Vec<Window>,
    /// Complete windows, and the lowest and highest of their ranks.
    windows: usize,
    rank_range: (f64, f64),
    ops: usize,
    wall_s: f64,
}

impl ClosedLoop {
    /// A loop whose windows hold `window_ops` ops.
    #[must_use]
    pub fn new(window_ops: usize) -> Self {
        ClosedLoop {
            window_ops: window_ops.max(1),
            current: Window::default(),
            fastest: Vec::with_capacity(FAST_WINDOWS + 1),
            windows: 0,
            rank_range: (f64::INFINITY, 0.0),
            ops: 0,
            wall_s: 0.0,
        }
    }

    /// Repeats the workload's set-up at the start of each window, timed
    /// in CPU time and dropped; `setup_s` is the median over the windows
    /// the figures come from, so it sees the host in the same state as
    /// the ops.
    pub fn setup_each_window<T>(
        &mut self,
        setup: impl FnOnce() -> Result<T, String>,
    ) -> Result<(), String> {
        if self.current.setup_s.is_none() {
            let start = cpu_seconds();
            drop(setup()?);
            self.current.setup_s = Some(cpu_seconds() - start);
        }
        Ok(())
    }

    /// Runs one op of one work unit, timing it on both clocks.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> T {
        self.time_work(op, |_| 1.0)
    }

    /// Runs one op that did `work(&result)` work units.
    pub fn time_work<T>(&mut self, op: impl FnOnce() -> T, work: impl FnOnce(&T) -> f64) -> T {
        let (cpu, wall) = (cpu_seconds(), Instant::now());
        let value = op();
        let cpu_s = cpu_seconds() - cpu;
        self.current.cpu.record(cpu_s);
        self.current.max = self.current.max.max(cpu_s);
        self.wall_s += wall.elapsed().as_secs_f64();
        self.current.work += work(&value);
        self.ops += 1;
        if self.current.cpu.len() == self.window_ops {
            let window = std::mem::take(&mut self.current);
            let rank = window.rank();
            self.windows += 1;
            self.rank_range = (self.rank_range.0.min(rank), self.rank_range.1.max(rank));
            self.fastest.push(window);
            self.fastest.sort_by(|a, b| a.rank().total_cmp(&b.rank()));
            self.fastest.truncate(FAST_WINDOWS);
        }
        value
    }

    /// Ops timed.
    #[must_use]
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Ops per wall-clock second over every op (what a traced run
    /// compares itself with, on the same clock).
    #[must_use]
    pub fn wall_ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    /// Fills the closed-loop end-to-end metrics from the fastest
    /// windows (the incomplete last window when none is complete):
    /// `ops_per_s` is work units per CPU second, `p50_ms` and `tail_ms`
    /// are percentiles of the CPU time per op, and `setup_s` (when set-ups
    /// were repeated per window) the median set-up time.
    pub fn report(&self, out: &mut Outcome, fixed_tail: f64) {
        let selected: Vec<&Window> = if self.fastest.is_empty() {
            vec![&self.current]
        } else {
            self.fastest.iter().collect()
        };
        let mut pooled = stats::Hist::default();
        let mut work = 0.0;
        let mut setups = Vec::new();
        for w in &selected {
            pooled.merge(&w.cpu);
            work += w.work;
            setups.extend(w.setup_s);
        }
        if !setups.is_empty() {
            out.set("setup_s", stats::median(&mut setups));
        }
        out.set("ops_per_s", work / pooled.sum());
        out.set("p50_ms", pooled.percentile(50.0) * 1e3);
        let tail = pooled.tail(fixed_tail);
        out.set("tail_ms", tail.value * 1e3);
        out.notes.push(format!(
            "{} ops in {:.2} s of wall time; figures from the {} fastest of {} windows of {} ops ({} ops, {} set-ups); window ranks (trimmed mean) {:.4}–{:.4} ms; tail_ms is p{}",
            self.ops,
            self.wall_s,
            self.fastest.len(),
            self.windows,
            self.window_ops,
            tail.samples,
            setups.len(),
            self.rank_range.0 * 1e3,
            self.rank_range.1 * 1e3,
            tail.percentile
        ));
        out.notes.push(format!(
            "pooled CPU ms per op at p10/50/90/95/99: {}",
            [10.0, 50.0, 90.0, 95.0, 99.0]
                .map(|p| format!("{:.4}", pooled.percentile(p) * 1e3))
                .join(" ")
        ));
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fresh, empty session-data directory for one set-up.
pub fn data_dir(name: &str) -> Result<PathBuf, String> {
    let dir = Path::new(DATA_DIR).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Reads a file of the checkout, naming it in the error.
pub fn read(path: impl AsRef<Path>) -> Result<String, String> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// FNV-1a over the repository sources: identifies the code under test
/// when the checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "hem")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("src-fnv1a:{hash:016x}")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The environment line printed with every result.
fn environment(args: &Args) -> String {
    let commit = match command_line("git", &["rev-parse", "HEAD"]) {
        Some(head) => {
            let changes = command_line("git", &["status", "--porcelain", "--untracked-files=no"]);
            if changes.is_some_and(|c| !c.is_empty()) {
                format!("{head}-dirty")
            } else {
                head
            }
        }
        None => source_digest(),
    };
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "env {{\"commit\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"rustc\":{}}}",
        hem_obs::json::escaped(&commit),
        hem_obs::json::escaped(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        hem_obs::json::escaped(&rustc),
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds must be positive")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload and renders the result line.
fn run(args: &Args) -> Result<(Outcome, String), String> {
    let mut out = match args.workload.as_str() {
        "corpus" => corpus::run(args),
        "grid_edit" => grid::run(args),
        "explore" => explore::run(args),
        "serve" => serve::run(args),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    let failed_pct = 100.0 * out.failed as f64 / out.attempted.max(1) as f64;
    out.notes.push(format!(
        "failed_pct {failed_pct:.4} ({} of {} attempted)",
        out.failed, out.attempted
    ));
    let table: &[(&str, &str)] = if args.trace {
        out.set("failed_pct", failed_pct);
        &PER_LAYER
    } else {
        if !out.metrics.contains_key("peak_rss_mib") {
            out.set("peak_rss_mib", peak_rss_mib());
        }
        &END_TO_END
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = out.metrics.get(*name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        if i > 0 {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    let line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
    Ok((out, line))
}

fn main() -> ExitCode {
    // `SystemConfig` reads these at run time; the benchmark measures the
    // defaults users get.
    std::env::remove_var("HEM_THREADS");
    std::env::remove_var("HEM_ANALYTIC");
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--generate-expected") => corpus::generate_expected()
            .and_then(|()| explore::generate_expected())
            .map(|()| None),
        Some("--self-test") => corpus::self_test().map(|()| None),
        _ => parse_args(&argv).and_then(|args| {
            println!("{}", environment(&args));
            let result = run(&args);
            let _ = std::fs::remove_dir_all(DATA_DIR);
            result.map(Some)
        }),
    };
    match result {
        Ok(Some((out, line))) => {
            for note in &out.notes {
                println!("{note}");
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            let _ = std::fs::remove_dir_all(DATA_DIR);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = read(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let json = hem_obs::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(hem_obs::json::JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(|v| v.as_str())
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(|v| v.as_str())
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
    }

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let argv: Vec<String> = [
            "--workload",
            "corpus",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = parse_args(&argv).expect("valid");
        assert_eq!(args.workload, "corpus");
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 3.0);
        assert!(args.trace);
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
    }
}
