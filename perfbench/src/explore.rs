//! `explore`: the third use of the engine — many Fig. 2-size fixed
//! points through warm-start chains that reuse almost nothing.
//!
//! One op is one `hem_system::explore` search of the `fig2_tight10x.hem`
//! problem, widened (as the profile benchmark does) with two overloaded
//! period mutations of T1's activation. Searches draw their seed from a
//! fixed pool in a seeded order; each search's visited/pruned/feasible
//! counts must match the committed values for its seed, and its default
//! configuration must be infeasible but fixed by some candidate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use hem_obs::{Counter, MemoryRecorder};
use hem_system::explore::{
    explore, ExploreOutcome, ExploreProblem, PeriodChoice, PeriodSite, Verdict,
};
use hem_system::{dsl, AnalysisMode, SystemConfig};
use hem_time::Time;

use crate::stats::Rng;
use crate::{for_seconds, read, Args, ClosedLoop, Outcome, CORPUS_DIR, EXPECTED_DIR};

/// Search seeds with committed expectations.
pub const SEED_POOL: u64 = 16;

/// Fixed tail percentile of this workload.
const TAIL: f64 = 90.0;

/// Share of a traced run spent on the untraced baseline.
const BASELINE_SHARE: f64 = 0.3;

/// `(visited, pruned, feasible)` of one search.
type Counts = (u64, u64, u64);

fn expected_path() -> String {
    format!("{EXPECTED_DIR}/explore.tsv")
}

/// The exploration problem for one search seed.
fn problem(scenario: &dsl::Scenario, seed: u64) -> ExploreProblem {
    let mut problem = ExploreProblem::from_scenario(scenario, seed);
    problem.period_choices = vec![PeriodChoice {
        site: PeriodSite::Task("T1".into()),
        periods: vec![Time::new(2500), Time::new(700), Time::new(600)],
    }];
    problem
}

fn problems() -> Result<Vec<ExploreProblem>, String> {
    let text = read(format!("{CORPUS_DIR}/fig2_tight10x.hem"))?;
    let scenario = dsl::parse_scenario(&text).map_err(|e| e.to_string())?;
    Ok((0..SEED_POOL)
        .map(|seed| problem(&scenario, seed))
        .collect())
}

fn counts(outcome: &ExploreOutcome) -> Counts {
    (outcome.visited, outcome.pruned, outcome.feasible)
}

/// Whether the default configuration was analysed infeasible and some
/// candidate is feasible.
fn default_fixed(outcome: &ExploreOutcome) -> bool {
    let default_infeasible = outcome
        .default_index
        .is_some_and(|i| !matches!(outcome.reports[i].verdict, Verdict::Feasible { .. }));
    default_infeasible && outcome.best.is_some()
}

fn config() -> SystemConfig {
    SystemConfig::new(AnalysisMode::Hierarchical)
}

/// Writes the per-seed expectation file from this build.
pub fn generate_expected() -> Result<(), String> {
    let mut out = String::from("# seed\tvisited\tpruned\tfeasible\n");
    for (seed, p) in problems()?.iter().enumerate() {
        let outcome = explore(p, &config()).map_err(|e| e.to_string())?;
        if !default_fixed(&outcome) {
            return Err(format!(
                "seed {seed}: default configuration is not infeasible-and-fixed"
            ));
        }
        let (v, pr, f) = counts(&outcome);
        let _ = writeln!(out, "{seed}\t{v}\t{pr}\t{f}");
    }
    std::fs::create_dir_all(EXPECTED_DIR).map_err(|e| e.to_string())?;
    std::fs::write(expected_path(), out).map_err(|e| e.to_string())
}

fn load_expected() -> Result<BTreeMap<u64, Counts>, String> {
    let mut expected = BTreeMap::new();
    for line in read(expected_path())?
        .lines()
        .filter(|l| !l.starts_with('#'))
    {
        let n: Vec<u64> = line
            .split('\t')
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad expectation line {line:?}"))
            })
            .collect::<Result<_, _>>()?;
        let [seed, v, p, f] = n[..] else {
            return Err(format!("bad expectation line {line:?}"));
        };
        expected.insert(seed, (v, p, f));
    }
    (expected.len() as u64 == SEED_POOL)
        .then_some(expected)
        .ok_or_else(|| format!("{} must list {SEED_POOL} seeds", expected_path()))
}

/// Runs the `explore` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let expected = load_expected()?;
    let mut order: Vec<u64> = (0..SEED_POOL).collect();
    Rng::new(args.seed, 3).shuffle(&mut order);
    let setup = || {
        let pool = problems()?;
        // The cold first search, of the same problem for every seed.
        explore(&pool[0], &config()).map_err(|e| e.to_string())?;
        Ok::<_, String>(pool)
    };
    let pool = setup()?;

    let check = |outcome: &ExploreOutcome, seed: u64, out: &mut Outcome| {
        out.attempted += 1;
        if counts(outcome) != expected[&seed] || !default_fixed(outcome) {
            out.fail(format!(
                "search seed {seed}: counts {:?}, expected {:?}, default fixed {}",
                counts(outcome),
                expected[&seed],
                default_fixed(outcome)
            ));
        }
    };

    let untraced_seconds = if args.trace {
        args.seconds * BASELINE_SHARE
    } else {
        args.seconds
    };
    // Windows of one pass over the seed order (about 0.3 s).
    let mut timed = ClosedLoop::new(order.len());
    let mut i = 0usize;
    let cfg = config();
    for_seconds(untraced_seconds, || {
        if !args.trace {
            timed.setup_each_window(setup)?;
        }
        let seed = order[i % order.len()];
        i += 1;
        let outcome = timed
            .time_work(
                || explore(&pool[seed as usize], &cfg),
                |r| r.as_ref().map_or(0.0, |o| o.visited as f64),
            )
            .map_err(|e| e.to_string())?;
        check(&outcome, seed, &mut out);
        Ok(())
    })?;

    if !args.trace {
        timed.report(&mut out, TAIL);
        return Ok(out);
    }

    let untraced_ops_per_s = timed.wall_ops_per_s();
    let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
    let mut searches = 0.0;
    let mut search_s = 0.0;
    for_seconds(args.seconds - untraced_seconds, || {
        let seed = order[i % order.len()];
        i += 1;
        let (recorder, handle) = MemoryRecorder::metrics_only_handle();
        let traced = config().with_recorder(handle);
        let start = Instant::now();
        let outcome = explore(&pool[seed as usize], &traced).map_err(|e| e.to_string())?;
        search_s += start.elapsed().as_secs_f64();
        searches += 1.0;
        check(&outcome, seed, &mut out);
        let snap = recorder.snapshot();
        let analyzed = outcome
            .reports
            .iter()
            .filter(|r| {
                matches!(
                    r.verdict,
                    Verdict::Feasible { .. } | Verdict::Infeasible { .. }
                )
            })
            .count();
        for (name, value) in [
            (
                "engine.global_iterations",
                snap.counter(Counter::GlobalIterations) as f64,
            ),
            (
                "busy_window.iterations",
                snap.counter(Counter::BusyWindowIterations) as f64,
            ),
            (
                "analytic.lifts",
                snap.counter(Counter::AnalyticLifts) as f64,
            ),
            (
                "analytic.fallbacks",
                snap.counter(Counter::AnalyticFallbacks) as f64,
            ),
            ("hem.packing_ops", snap.counter(Counter::PackingOps) as f64),
            ("warm.hits", snap.counter(Counter::ExploreWarmHits) as f64),
            (
                "warm.full_fallbacks",
                snap.counter(Counter::FullFallbacks) as f64,
            ),
            ("warm.cone_fraction", outcome.mean_cone_fraction),
            ("explore.visited", outcome.visited as f64),
            ("explore.pruned_pct", outcome.pruned_pct()),
            ("explore.analyzed", analyzed as f64),
        ] {
            *sums.entry(name).or_default() += value;
        }
        Ok(())
    })?;
    for (name, sum) in sums {
        out.set(name, sum / searches);
    }
    // Explore exposes no per-candidate results to replay, so the whole
    // search is the engine's (unsplit) time.
    let search_us = search_s * 1e6 / searches;
    out.set("engine.analyze_us", search_us);
    out.set("engine.unattributed_us", search_us);
    out.set("attribution.sum_us", search_us);
    out.set("attribution.coverage_pct", 100.0);
    out.set(
        "trace.overhead_pct",
        (untraced_ops_per_s / (searches / search_s) - 1.0) * 100.0,
    );
    out.notes.push(format!(
        "attribution explore (us/search): engine.unattributed {search_us:.1} = {search_us:.1} (no per-candidate replay)"
    ));
    Ok(out)
}
