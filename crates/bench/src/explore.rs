//! The design-space exploration benchmark: `hem explore` at profile
//! scale.
//!
//! [`run_explore`] searches the 10x-scaled Fig. 2 exploration family
//! (`scenarios/fig2_tight10x.hem`) — the scenario whose default
//! packing puts the pending signal s3 on a two-trigger frame, bursting
//! its deliveries so that *no* priority permutation meets the three
//! deadlines — widened with period mutations of T1's activation
//! (baseline 2500 plus two overloaded alternatives). The mutated
//! combinations push CPU utilization well past 1, so the utilization
//! necessary test eliminates about two thirds of the candidate space
//! before any fixed point runs; `bench_compare` gates that
//! `pruned_pct` stays ≥ 50%.
//!
//! Every count in the report (`configs`, `feasible`, `pruned`,
//! `mean_cone_fraction`) is bit-for-bit deterministic in the seed and
//! thread count and participates in the `--cross` determinism diff;
//! only `wall_ms` and the derived `configs_per_s` measure the machine.

use std::time::Instant;

use hem_system::explore::{explore, ExploreProblem, PeriodChoice, PeriodSite};
use hem_system::{dsl, AnalysisMode, SystemConfig};
use hem_time::Time;

/// The 10x-scaled Fig. 2 exploration family (see the file's header
/// comment for why its default configuration is infeasible).
pub const TIGHT10X_SCENARIO: &str = include_str!("../scenarios/fig2_tight10x.hem");

/// The benchmark's exploration problem: the tight 10x family as
/// `hem explore` would load it, widened with two overloaded period
/// mutations of T1's activation.
///
/// # Panics
///
/// Panics if the embedded scenario no longer parses (a bug caught by
/// the corpus tests long before any bench runs).
#[must_use]
pub fn explore_problem(seed: u64) -> ExploreProblem {
    let scenario = dsl::parse_scenario(TIGHT10X_SCENARIO).expect("embedded scenario parses");
    let mut problem = ExploreProblem::from_scenario(&scenario, seed);
    problem.period_choices = vec![PeriodChoice {
        site: PeriodSite::Task("T1".into()),
        periods: vec![Time::new(2500), Time::new(700), Time::new(600)],
    }];
    problem
}

/// What the exploration benchmark measured.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Candidates visited (deterministic).
    pub configs: u64,
    /// Candidates with a feasible verdict (deterministic).
    pub feasible: u64,
    /// Candidates rejected by necessary tests (deterministic).
    pub pruned: u64,
    /// `pruned / configs` in percent (deterministic; gated ≥ 50%).
    pub pruned_pct: f64,
    /// Mean warm-start damage-cone fraction over analyzed candidates
    /// (deterministic).
    pub mean_cone_fraction: f64,
    /// Whether the default configuration was confirmed infeasible and
    /// a feasible alternative was found (both must hold).
    pub default_infeasible_and_fixed: bool,
    /// Wall-clock time of the search (this machine).
    pub wall_ms: f64,
}

impl ExploreReport {
    /// Candidate throughput derived from the wall time.
    #[must_use]
    pub fn configs_per_s(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.configs as f64 * 1e3 / self.wall_ms
        } else {
            0.0
        }
    }

    /// The `explore` section of `BENCH_analysis.json` (a JSON object,
    /// no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"configs\":{},\"feasible\":{},\"pruned\":{},\"pruned_pct\":{:.3},\"configs_per_s\":{:.3},\"mean_cone_fraction\":{:.6},\"wall_ms\":{:.3}}}",
            self.configs,
            self.feasible,
            self.pruned,
            self.pruned_pct,
            self.configs_per_s(),
            self.mean_cone_fraction,
            self.wall_ms
        )
    }
}

/// Runs the exploration benchmark with a `threads`-wide candidate fan-out.
///
/// # Panics
///
/// Panics (with a message for the profile log) if the search errors,
/// if the default configuration is unexpectedly feasible, or if no
/// feasible alternative exists — each would mean the benchmark no
/// longer measures what it gates.
#[must_use]
pub fn run_explore(threads: usize) -> ExploreReport {
    let problem = explore_problem(0);
    let config = SystemConfig::new(AnalysisMode::Hierarchical).with_threads(threads);
    let started = Instant::now();
    let outcome = explore(&problem, &config).expect("exploration benchmark runs");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let default_infeasible = outcome
        .default_index
        .map(|i| {
            !matches!(
                outcome.reports[i].verdict,
                hem_system::explore::Verdict::Feasible { .. }
            )
        })
        .expect("default configuration is among the candidates");
    assert!(
        default_infeasible,
        "the tight 10x family's default configuration must be infeasible"
    );
    assert!(
        outcome.best.is_some(),
        "the tight 10x family must have a feasible packing+priority configuration"
    );
    ExploreReport {
        configs: outcome.visited,
        feasible: outcome.feasible,
        pruned: outcome.pruned,
        pruned_pct: outcome.pruned_pct(),
        mean_cone_fraction: outcome.mean_cone_fraction,
        default_infeasible_and_fixed: true,
        wall_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_benchmark_problem_prunes_at_least_half_the_space() {
        let report = run_explore(1);
        assert!(report.configs > 0);
        assert!(
            report.pruned_pct >= 50.0,
            "pruned_pct {} below the gated floor",
            report.pruned_pct
        );
        assert!(report.feasible > 0);
        assert!(report.default_infeasible_and_fixed);
    }

    #[test]
    fn report_counts_are_thread_invariant() {
        let one = run_explore(1);
        let four = run_explore(4);
        assert_eq!(one.configs, four.configs);
        assert_eq!(one.feasible, four.feasible);
        assert_eq!(one.pruned, four.pruned);
        assert_eq!(one.mean_cone_fraction, four.mean_cone_fraction);
    }
}
