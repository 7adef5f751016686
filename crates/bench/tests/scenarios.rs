//! Corpus-wide analysis gates: every `.hem` file under
//! `crates/bench/scenarios/` (loaded through
//! [`hem_bench::scenarios::corpus`]) and `crates/bench/fixtures/`
//! ([`hem_bench::scenarios::fixtures`]) is analyzed in all three modes
//! with mode dominance checked per entity and re-run with the analytic
//! fast path toggled to prove determinism; the corpus's periodic CPU
//! workloads are re-checked with the EDF processor-demand criterion
//! against their SPP bounds.
//!
//! The DSL round-trip and golden-number gates live in the workspace
//! `tests/scenarios.rs`; the sim-vs-analysis leg lives in
//! `tests/differential_sim_vs_analysis.rs`. All three iterate the same
//! directory, so adding a scenario enrolls it everywhere at once.

use hem_analysis::{dbf, spp, AnalysisConfig, AnalysisTask, Priority};
use hem_bench::scenarios::{corpus, fixtures, CorpusEntry};
use hem_event_models::{EventModelExt, ModelRef, StandardEventModel};
use hem_system::dsl::{Scenario, SourceDecl};
use hem_system::{analyze, AnalysisMode, SystemConfig, SystemResults};
use hem_time::Time;

/// Runs one scenario in the given mode and returns its results.
fn run(entry: &CorpusEntry, config: &SystemConfig) -> SystemResults {
    analyze(&entry.scenario.to_spec(), config)
        .unwrap_or_else(|e| panic!("{}: analysis failed: {e}", entry.name))
}

#[test]
fn every_scenario_analyzes_with_mode_dominance() {
    for entry in corpus().into_iter().chain(fixtures()) {
        let hem = run(&entry, &SystemConfig::new(AnalysisMode::Hierarchical));
        let flat = run(&entry, &SystemConfig::new(AnalysisMode::Flat));
        let flat_sem = run(&entry, &SystemConfig::new(AnalysisMode::FlatSem));
        assert!(hem.is_complete(), "{}: incomplete HEM results", entry.name);
        // Unpacking only removes events from an activating stream, and
        // SEM fitting only adds them: per entity, HEM ≤ Flat ≤ FlatSem.
        for (name, r_hem) in hem.tasks() {
            let r_flat = flat.task(name).expect("task analysed in flat").response;
            let r_sem = flat_sem
                .task(name)
                .expect("task analysed in flatsem")
                .response;
            assert!(
                r_hem.response.r_plus <= r_flat.r_plus,
                "{}: task {name}: HEM bound {} exceeds flat bound {}",
                entry.name,
                r_hem.response.r_plus,
                r_flat.r_plus
            );
            assert!(
                r_flat.r_plus <= r_sem.r_plus,
                "{}: task {name}: flat bound {} exceeds flatsem bound {}",
                entry.name,
                r_flat.r_plus,
                r_sem.r_plus
            );
        }
        for (name, r_hem) in hem.frames() {
            let r_flat = flat.frame(name).expect("frame analysed in flat").response;
            let r_sem = flat_sem
                .frame(name)
                .expect("frame analysed in flatsem")
                .response;
            assert!(
                r_hem.response.r_plus <= r_flat.r_plus,
                "{}: frame {name}: HEM bound {} exceeds flat bound {}",
                entry.name,
                r_hem.response.r_plus,
                r_flat.r_plus
            );
            assert!(
                r_flat.r_plus <= r_sem.r_plus,
                "{}: frame {name}: flat bound {} exceeds flatsem bound {}",
                entry.name,
                r_flat.r_plus,
                r_sem.r_plus
            );
        }
    }
}

#[test]
fn every_scenario_is_deterministic_across_fast_path() {
    for entry in corpus().into_iter().chain(fixtures()) {
        let reference = run(
            &entry,
            &SystemConfig::new(AnalysisMode::Hierarchical).with_analytic(Some(false)),
        );
        for analytic in [false, true] {
            let config =
                SystemConfig::new(AnalysisMode::Hierarchical).with_analytic(Some(analytic));
            let results = run(&entry, &config);
            assert_eq!(
                reference.response_times(),
                results.response_times(),
                "{}: results diverge at analytic={analytic}",
                entry.name
            );
            assert_eq!(
                reference.iterations(),
                results.iterations(),
                "{}: iteration count diverges at analytic={analytic}",
                entry.name
            );
        }
    }
}

/// A periodic CPU workload extracted from a scenario: the per-CPU task
/// sets whose activations are external `periodic:` sources, each task
/// paired with its declared period, suitable for re-analysis under
/// alternative resource-sharing policies.
fn periodic_cpu_sets(scenario: &Scenario) -> Vec<(String, Vec<(AnalysisTask, Time)>)> {
    scenario
        .cpus
        .iter()
        .filter_map(|cpu| {
            let tasks: Vec<(AnalysisTask, Time)> = scenario
                .tasks
                .iter()
                .filter(|t| &t.cpu == cpu)
                .filter_map(|t| match t.activation {
                    SourceDecl::Periodic { period, jitter } => Some((
                        AnalysisTask::new(
                            &t.name,
                            Time::new(t.bcet),
                            Time::new(t.wcet),
                            Priority::new(t.prio),
                            periodic_model(period, jitter),
                        ),
                        Time::new(period),
                    )),
                    _ => None,
                })
                .collect();
            (tasks.len() >= 2).then(|| (cpu.clone(), tasks))
        })
        .collect()
}

fn periodic_model(period: i64, jitter: i64) -> ModelRef {
    StandardEventModel::periodic_with_jitter(Time::new(period), Time::new(jitter))
        .expect("valid corpus source")
        .shared()
}

#[test]
fn corpus_workloads_hold_under_edf() {
    let config = AnalysisConfig::default();
    let mut edf_sets = 0usize;
    for entry in corpus() {
        for (cpu, set) in periodic_cpu_sets(&entry.scenario) {
            let utilization: f64 = set
                .iter()
                .map(|(t, p)| t.wcet.ticks() as f64 / p.ticks() as f64)
                .sum();
            if utilization >= 0.99 {
                continue;
            }
            edf_sets += 1;

            // EDF (implicit deadlines) versus SPP: fixed-priority
            // schedulability is witnessed by r⁺ ≤ P, and EDF is optimal
            // on a dedicated resource, so an SPP witness forces the
            // processor-demand criterion to pass.
            let tasks: Vec<AnalysisTask> = set.iter().map(|(t, _)| t.clone()).collect();
            let spp_results = spp::analyze(&tasks, &config)
                .unwrap_or_else(|e| panic!("{}/{cpu}: SPP failed: {e}", entry.name));
            let spp_meets_deadlines = set
                .iter()
                .zip(&spp_results)
                .all(|((_, p), r)| r.response.r_plus <= *p);
            let edf_tasks: Vec<dbf::EdfTask> = set
                .iter()
                .map(|(t, p)| dbf::EdfTask::new(&t.name, t.wcet, *p, t.input.clone()))
                .collect();
            let verdict = dbf::edf_schedulable(&edf_tasks, &config)
                .unwrap_or_else(|e| panic!("{}/{cpu}: EDF test failed: {e}", entry.name));
            if spp_meets_deadlines {
                assert!(
                    verdict.is_schedulable(),
                    "{}/{cpu}: SPP meets every implicit deadline but the \
                     processor-demand criterion rejects the set: {verdict:?}",
                    entry.name
                );
            }
        }
    }
    // The corpus is expected to keep feeding this leg; if this trips,
    // scenarios with ≥ 2 periodic tasks per CPU were removed.
    assert!(edf_sets >= 10, "only {edf_sets} EDF-checked task sets");
}
