//! Profiles the paper system (Fig. 2, Table 3) with recording on.
//!
//! Runs the flat and hierarchical analyses and a fault-injected
//! simulation of the paper's evaluation system, each against a
//! [`MemoryRecorder`], and writes:
//!
//! * `BENCH_analysis.json` — wall times, global iteration counts, and
//!   all counter/histogram totals per phase, plus a `sweep` section
//!   with the parallel scenario-sweep speedup at `HEM_THREADS` threads
//!   (and the `threads` value itself) and an `incremental` section with
//!   the warm-start chain speedup over a replicated scenario grid
//!   (cold vs. warm wall time, mean damage-cone fraction; see
//!   `docs/INCREMENTAL.md`) and a `serving` section with the CI-scale
//!   serving benchmark (sessions, throughput, latency percentiles,
//!   WAL recoveries, shed and stale counts; see `docs/SERVING.md`) and
//!   an `obs` section with the serving-telemetry overhead probe
//!   (instrumented vs no-op recorder, trace span and flight-dump
//!   totals; see `docs/OBSERVABILITY.md`),
//! * `BENCH_sim_trace.json` — a Chrome `trace_event` file of the
//!   simulated run (open in <https://ui.perfetto.dev> or
//!   `chrome://tracing`),
//! * `BENCH_convergence.jsonl` — the per-iteration response-time
//!   trajectory of the hierarchical analysis.
//!
//! Run with `cargo run -p hem-bench --bin profile_analysis [--release]
//! [output-dir]`.

use std::path::Path;
use std::time::Instant;

use hem_bench::explore::{run_explore, ExploreReport};
use hem_bench::incremental::{replicated_spec, run_chain_cold, run_chain_warm, scenario_chain};
use hem_bench::obs::{run_obs_overhead, ObsReport};
use hem_bench::paper_system::{simulation, spec, PaperParams};
use hem_bench::serving::{run_serving, ServingParams, ServingReport};
use hem_obs::{json, Counter, MemoryRecorder, MetricsSnapshot};
use hem_sim::fault::{Fault, FaultPlan, FaultTarget};
use hem_sim::network::try_run_recorded;
use hem_system::parallel::{env_threads, parallel_map};
use hem_system::{analyze_robust, AnalysisMode, SystemConfig};
use hem_time::Time;

/// One profiled phase: wall time plus everything the recorder saw.
struct Phase {
    name: &'static str,
    wall_ms: f64,
    iterations: u64,
    metrics: MetricsSnapshot,
}

fn run_analysis(mode: AnalysisMode, name: &'static str, params: &PaperParams) -> Phase {
    let (recorder, handle) = MemoryRecorder::handle();
    let config = SystemConfig::new(mode).with_recorder(handle);
    let started = Instant::now();
    let robust = analyze_robust(&spec(params), &config).unwrap_or_else(|e| {
        eprintln!("{name} analysis failed: {e}");
        std::process::exit(1);
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    if name == "hierarchical" {
        // Show the run's trajectory as a ConvergenceTrace.
        eprintln!(
            "{name} converged in {} iteration(s):",
            robust.diagnostics.iterations
        );
        let trace = robust.diagnostics.trace();
        eprint!("{}", trace.render_table());
        if let Err(e) = std::fs::write(out_path("BENCH_convergence.jsonl"), trace.to_jsonl()) {
            eprintln!("cannot write BENCH_convergence.jsonl: {e}");
            std::process::exit(1);
        }
    }
    Phase {
        name,
        wall_ms,
        iterations: robust.diagnostics.iterations,
        metrics: recorder.snapshot(),
    }
}

fn run_simulation(params: &PaperParams) -> Phase {
    let horizon = Time::new(200_000);
    // A seeded corruption fault so the exported trace demonstrates the
    // fault lane; the run stays fully deterministic.
    let plan = FaultPlan::new(42).with(Fault::FrameCorruption {
        frame: FaultTarget::Named("F1".into()),
        probability: 0.1,
        error_frame: Time::new(31),
        max_retransmissions: 2,
    });
    let (recorder, handle) = MemoryRecorder::handle();
    let system = simulation(params, horizon, 0);
    let started = Instant::now();
    if let Err(e) = try_run_recorded(&system, horizon, &plan, &handle) {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let trace = recorder.chrome_trace().to_json();
    if let Err(e) = json::validate(&trace) {
        eprintln!("internal error: sim trace is not valid JSON: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(out_path("BENCH_sim_trace.json"), &trace) {
        eprintln!("cannot write BENCH_sim_trace.json: {e}");
        std::process::exit(1);
    }
    Phase {
        name: "simulation",
        wall_ms,
        iterations: 0,
        metrics: recorder.snapshot(),
    }
}

/// The scenario-sweep speedup probe: many independent Fig. 2 variants
/// analysed once sequentially and once fanned over `HEM_THREADS`
/// scoped threads via [`parallel_map`].
///
/// On multi-core machines this is where analysis parallelism pays off —
/// a sweep of small systems saturates cores with zero coordination —
/// and because `parallel_map` is order-deterministic the two passes
/// must produce identical response times (checked here).
struct Sweep {
    scenarios: usize,
    threads: usize,
    wall_ms_sequential: f64,
    wall_ms_parallel: f64,
}

impl Sweep {
    fn speedup(&self) -> f64 {
        if self.wall_ms_parallel > 0.0 {
            self.wall_ms_sequential / self.wall_ms_parallel
        } else {
            1.0
        }
    }
}

fn run_sweep() -> Sweep {
    let mut scenarios = Vec::new();
    for cpu_scale in [1, 10] {
        for s3_period in (300..=1200).step_by(50) {
            scenarios.push(PaperParams {
                s3_period,
                cpu_scale,
                ..PaperParams::default()
            });
        }
    }
    let analyse = |params: PaperParams| {
        let config = SystemConfig::new(AnalysisMode::Hierarchical);
        let robust = analyze_robust(&spec(&params), &config).unwrap_or_else(|e| {
            eprintln!("sweep analysis failed ({params:?}): {e}");
            std::process::exit(1);
        });
        robust
            .results
            .tasks()
            .map(|(name, r)| (name.to_owned(), r.response))
            .collect::<Vec<_>>()
    };
    let threads = env_threads();
    let n = scenarios.len();

    let started = Instant::now();
    let sequential = parallel_map(scenarios.clone(), 1, analyse);
    let wall_ms_sequential = started.elapsed().as_secs_f64() * 1e3;

    let started = Instant::now();
    let parallel = parallel_map(scenarios, threads, analyse);
    let wall_ms_parallel = started.elapsed().as_secs_f64() * 1e3;

    if sequential != parallel {
        eprintln!("internal error: parallel sweep diverged from sequential results");
        std::process::exit(1);
    }
    Sweep {
        scenarios: n,
        threads,
        wall_ms_sequential,
        wall_ms_parallel,
    }
}

/// The warm-start probe: a chained mutation walk over a replicated
/// Fig. 2 grid (see [`hem_bench::incremental`]), analysed once from
/// scratch per scenario and once chaining snapshots. Both passes run
/// sequentially (one analysis thread) so the reported speedup isolates
/// incremental reuse from engine parallelism, and every deterministic
/// field below is identical on every CI leg.
struct Incremental {
    replicas: usize,
    scenarios: usize,
    wall_ms_cold: f64,
    wall_ms_warm: f64,
    mean_cone_fraction: f64,
    replayed_results: u64,
    full_fallbacks: u64,
}

impl Incremental {
    fn speedup(&self) -> f64 {
        if self.wall_ms_warm > 0.0 {
            self.wall_ms_cold / self.wall_ms_warm
        } else {
            1.0
        }
    }
}

fn run_incremental() -> Incremental {
    let replicas = 8;
    let steps = 16;
    let specs = scenario_chain(replicas, steps, &PaperParams::default());
    let config = SystemConfig::new(AnalysisMode::Hierarchical);
    let cold = run_chain_cold(&specs, &config);
    let warm = run_chain_warm(&specs, &config);
    if cold.response_times != warm.response_times {
        eprintln!("internal error: warm-start chain diverged from cold analysis results");
        std::process::exit(1);
    }
    Incremental {
        replicas,
        scenarios: specs.len(),
        wall_ms_cold: cold.wall_ms,
        wall_ms_warm: warm.wall_ms,
        mean_cone_fraction: warm.mean_chained_cone_fraction(),
        replayed_results: warm.replayed_results,
        full_fallbacks: warm.full_fallbacks,
    }
}

/// The analytic fast-path probe, run with the closed-form curve layer
/// pinned off and then pinned on (immune to `HEM_ANALYTIC`, so the
/// deterministic fields of this section are identical on every CI
/// leg). Response times are asserted identical between the passes; the
/// lift / fallback tallies come from the enabled passes. Two profiles
/// (see `docs/CURVES.md`):
///
/// * the **replicated grid** — 2/4/8 glued copies of the Fig. 2 system,
///   where query work on composed hierarchies (bus OR-joins, unpacked
///   signal chains) dominates. This is the headline `speedup`, gated by
///   `bench_compare` against an absolute ≥3x floor.
/// * the **Fig. 2 scenario grid** — 38 parameter variants of the bare
///   3-task paper system, reported under `fig2`. Its leaf models answer
///   `δ±` in closed form even on the generic path, so the whole-run
///   ratio is Amdahl-capped near 1x and only tracked informationally.
struct Analytic {
    scenarios: usize,
    lifts: u64,
    fallbacks: u64,
    wall_ms_generic: f64,
    wall_ms_analytic: f64,
    fig2_scenarios: usize,
    fig2_wall_ms_generic: f64,
    fig2_wall_ms_analytic: f64,
}

impl Analytic {
    fn hit_rate_pct(&self) -> f64 {
        let total = self.lifts + self.fallbacks;
        if total == 0 {
            0.0
        } else {
            100.0 * self.lifts as f64 / total as f64
        }
    }

    fn speedup(&self) -> f64 {
        ratio(self.wall_ms_generic, self.wall_ms_analytic)
    }

    fn fig2_speedup(&self) -> f64 {
        ratio(self.fig2_wall_ms_generic, self.fig2_wall_ms_analytic)
    }
}

fn ratio(generic_ms: f64, analytic_ms: f64) -> f64 {
    if analytic_ms > 0.0 {
        generic_ms / analytic_ms
    } else {
        1.0
    }
}

/// Analyses every spec with the analytic layer pinned to `analytic`,
/// asserting convergence. Returns the wall time, the response times of
/// every run (for the off-vs-on equality assertion), and the lift /
/// fallback totals.
type ResponseTimes = std::collections::BTreeMap<String, hem_analysis::ResponseTime>;

fn analytic_pass(
    specs: &[hem_system::SystemSpec],
    analytic: bool,
) -> (f64, Vec<ResponseTimes>, u64, u64) {
    let (recorder, handle) = MemoryRecorder::handle();
    let config = SystemConfig::new(AnalysisMode::Hierarchical)
        .with_recorder(handle)
        .with_analytic(Some(analytic));
    let started = Instant::now();
    let mut results = Vec::new();
    for system in specs {
        let robust = analyze_robust(system, &config).unwrap_or_else(|e| {
            eprintln!("analytic probe failed: {e}");
            std::process::exit(1);
        });
        results.push(robust.results.response_times());
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let snapshot = recorder.snapshot();
    (
        wall_ms,
        results,
        snapshot.counter(Counter::AnalyticLifts),
        snapshot.counter(Counter::AnalyticFallbacks),
    )
}

/// Both passes over `specs`, keeping the *faster of two rounds* per leg
/// (both legs run back-to-back in-process, so one timer-noise spike
/// cannot fabricate or destroy a speedup) and asserting the off/on
/// response times bit-identical.
fn analytic_profile(name: &str, specs: &[hem_system::SystemSpec]) -> (f64, f64, u64, u64) {
    let mut generic_ms = f64::INFINITY;
    let mut analytic_ms = f64::INFINITY;
    let (mut lifts, mut fallbacks) = (0, 0);
    for _ in 0..2 {
        let (g_ms, generic, _, _) = analytic_pass(specs, false);
        let (a_ms, fast, l, f) = analytic_pass(specs, true);
        if generic != fast {
            eprintln!("internal error: analytic fast path diverged from generic results ({name})");
            std::process::exit(1);
        }
        generic_ms = generic_ms.min(g_ms);
        analytic_ms = analytic_ms.min(a_ms);
        (lifts, fallbacks) = (l, f);
    }
    (generic_ms, analytic_ms, lifts, fallbacks)
}

fn run_analytic() -> Analytic {
    // Headline profile: the replicated grid (the incremental bench's
    // scale ladder — N glued copies of the Fig. 2 system).
    let grid: Vec<hem_system::SystemSpec> = [4usize, 8, 12]
        .iter()
        .map(|&replicas| replicated_spec(replicas, &PaperParams::default()))
        .collect();
    let (wall_ms_generic, wall_ms_analytic, grid_lifts, grid_fallbacks) =
        analytic_profile("replicated grid", &grid);

    // Informational profile: the bare Fig. 2 parameter sweep.
    let mut fig2 = Vec::new();
    for cpu_scale in [1, 10] {
        for s3_period in (300..=1200).step_by(50) {
            fig2.push(spec(&PaperParams {
                s3_period,
                cpu_scale,
                ..PaperParams::default()
            }));
        }
    }
    let (fig2_wall_ms_generic, fig2_wall_ms_analytic, fig2_lifts, fig2_fallbacks) =
        analytic_profile("Fig. 2 grid", &fig2);

    Analytic {
        scenarios: grid.len() + fig2.len(),
        lifts: grid_lifts + fig2_lifts,
        fallbacks: grid_fallbacks + fig2_fallbacks,
        wall_ms_generic,
        wall_ms_analytic,
        fig2_scenarios: fig2.len(),
        fig2_wall_ms_generic,
        fig2_wall_ms_analytic,
    }
}

/// The design-space exploration benchmark (see [`hem_bench::explore`]):
/// `hem explore` over the 10x-scaled Fig. 2 family widened with
/// overloaded period mutations, searched at `HEM_THREADS` workers.
/// Every count is deterministic in seed and thread count and joins the
/// `--cross` diff; `pruned_pct` is gated against an absolute ≥50%
/// floor (see `docs/EXPLORATION.md`).
fn run_explore_phase() -> ExploreReport {
    run_explore(env_threads())
}

/// The CI-scale serving benchmark (see [`hem_bench::serving`]): a
/// fleet of event-sourced sessions through mutation rounds, injected
/// kills with torn-WAL recovery, deterministic shedding, and
/// zero-deadline degradation. All its counts are deterministic; only
/// the wall-clock fields measure this machine.
fn run_serving_phase() -> ServingReport {
    let dir = std::env::temp_dir().join(format!("hem-profile-serving-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = run_serving(&dir, &ServingParams::ci());
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The telemetry-overhead probe (see [`hem_bench::obs`]): the scripted
/// serving workload with full telemetry vs a no-op recorder.
fn run_obs_phase() -> ObsReport {
    let dir = std::env::temp_dir().join(format!("hem-profile-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = run_obs_overhead(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn out_path(file: &str) -> String {
    let dir = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    Path::new(&dir).join(file).to_string_lossy().into_owned()
}

fn main() {
    let params = PaperParams::default();
    let phases = [
        run_analysis(AnalysisMode::Flat, "flat", &params),
        run_analysis(AnalysisMode::Hierarchical, "hierarchical", &params),
        run_simulation(&params),
    ];
    let sweep = run_sweep();
    let incremental = run_incremental();
    let analytic = run_analytic();
    let explore = run_explore_phase();
    let serving = run_serving_phase();
    let obs = run_obs_phase();

    let mut out = format!(
        "{{\"system\":\"paper-fig2\",\"threads\":{},\"phases\":{{",
        sweep.threads
    );
    for (i, phase) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"wall_ms\":{:.3},\"iterations\":{},\"metrics\":{}}}",
            phase.name,
            phase.wall_ms,
            phase.iterations,
            phase.metrics.to_json()
        ));
    }
    out.push_str(&format!(
        "}},\"sweep\":{{\"scenarios\":{},\"threads\":{},\"wall_ms_sequential\":{:.3},\"wall_ms_parallel\":{:.3},\"speedup\":{:.3}}}",
        sweep.scenarios,
        sweep.threads,
        sweep.wall_ms_sequential,
        sweep.wall_ms_parallel,
        sweep.speedup()
    ));
    out.push_str(&format!(
        ",\"incremental\":{{\"replicas\":{},\"scenarios\":{},\"wall_ms_cold\":{:.3},\"wall_ms_warm\":{:.3},\"speedup\":{:.3},\"mean_cone_fraction\":{:.6},\"replayed_results\":{},\"full_fallbacks\":{}}}",
        incremental.replicas,
        incremental.scenarios,
        incremental.wall_ms_cold,
        incremental.wall_ms_warm,
        incremental.speedup(),
        incremental.mean_cone_fraction,
        incremental.replayed_results,
        incremental.full_fallbacks
    ));
    out.push_str(&format!(
        ",\"analytic\":{{\"scenarios\":{},\"lifts\":{},\"fallbacks\":{},\"hit_rate_pct\":{:.3},\"wall_ms_generic\":{:.3},\"wall_ms_analytic\":{:.3},\"speedup\":{:.3},\"fig2\":{{\"scenarios\":{},\"wall_ms_generic\":{:.3},\"wall_ms_analytic\":{:.3},\"speedup\":{:.3}}}}}",
        analytic.scenarios,
        analytic.lifts,
        analytic.fallbacks,
        analytic.hit_rate_pct(),
        analytic.wall_ms_generic,
        analytic.wall_ms_analytic,
        analytic.speedup(),
        analytic.fig2_scenarios,
        analytic.fig2_wall_ms_generic,
        analytic.fig2_wall_ms_analytic,
        analytic.fig2_speedup()
    ));
    out.push_str(&format!(",\"explore\":{}", explore.to_json()));
    out.push_str(&format!(",\"serving\":{}", serving.to_json()));
    out.push_str(&format!(",\"obs\":{}}}", obs.to_json()));
    if let Err(e) = json::validate(&out) {
        eprintln!("internal error: BENCH_analysis.json is not valid JSON: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(out_path("BENCH_analysis.json"), &out) {
        eprintln!("cannot write BENCH_analysis.json: {e}");
        std::process::exit(1);
    }

    println!("profile of the paper system (Fig. 2 / Table 3)");
    println!();
    println!(
        "{:<14} {:>9} {:>6} {:>10} {:>9}",
        "phase", "wall ms", "iters", "busy iters", "packings"
    );
    for phase in &phases {
        println!(
            "{:<14} {:>9.3} {:>6} {:>10} {:>9}",
            phase.name,
            phase.wall_ms,
            phase.iterations,
            phase.metrics.counter(Counter::BusyWindowIterations),
            phase.metrics.counter(Counter::PackingOps),
        );
    }
    println!();
    println!(
        "scenario sweep: {} scenarios, {} thread(s): {:.3} ms sequential, {:.3} ms parallel ({:.2}x)",
        sweep.scenarios,
        sweep.threads,
        sweep.wall_ms_sequential,
        sweep.wall_ms_parallel,
        sweep.speedup()
    );
    println!(
        "incremental chain: {} scenarios over {} replicas: {:.3} ms cold, {:.3} ms warm ({:.2}x), mean cone {:.1}%, {} replayed, {} fallback(s)",
        incremental.scenarios,
        incremental.replicas,
        incremental.wall_ms_cold,
        incremental.wall_ms_warm,
        incremental.speedup(),
        100.0 * incremental.mean_cone_fraction,
        incremental.replayed_results,
        incremental.full_fallbacks
    );
    println!(
        "analytic fast path: replicated grid {:.3} ms generic, {:.3} ms analytic ({:.2}x); Fig. 2 grid ({} scenarios) {:.3} ms generic, {:.3} ms analytic ({:.2}x); {} lift(s), {} fallback(s), {:.1}% hit rate",
        analytic.wall_ms_generic,
        analytic.wall_ms_analytic,
        analytic.speedup(),
        analytic.fig2_scenarios,
        analytic.fig2_wall_ms_generic,
        analytic.fig2_wall_ms_analytic,
        analytic.fig2_speedup(),
        analytic.lifts,
        analytic.fallbacks,
        analytic.hit_rate_pct()
    );
    println!(
        "explore: {} configs in {:.3} ms ({:.0} configs/s), {} pruned ({:.1}%), {} feasible, mean cone {:.1}%",
        explore.configs,
        explore.wall_ms,
        explore.configs_per_s(),
        explore.pruned,
        explore.pruned_pct,
        explore.feasible,
        100.0 * explore.mean_cone_fraction
    );
    println!(
        "serving: {} sessions, {} requests ({:.0} req/s), p50 {:.3} ms, p99 {:.3} ms, {} recoveries, {} shed, {} stale",
        serving.sessions,
        serving.requests,
        serving.req_s,
        serving.p50_ms,
        serving.p99_ms,
        serving.recoveries,
        serving.shed,
        serving.stale_served
    );
    println!(
        "obs overhead: {:.2}% (IQR {:.2}, A/A {:.2}) vs noop recorder, {} trace spans, {} flight-dump bytes",
        obs.overhead_pct, obs.overhead_iqr_pct, obs.aa_pct, obs.spans, obs.dump_bytes
    );
    println!("wrote BENCH_analysis.json, BENCH_sim_trace.json, BENCH_convergence.jsonl");
}
