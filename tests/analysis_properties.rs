//! Property-based tests of the local analyses: monotonicity of the
//! bounds and conservativeness against the scheduling simulators.

use proptest::prelude::*;

use hem_repro::analysis::{spnp, spp, AnalysisConfig, AnalysisTask, Priority};
use hem_repro::event_models::{EventModelExt, StandardEventModel};
use hem_repro::sim::canbus::{self, QueuedFrame};
use hem_repro::sim::cpu::{self, SimTask};
use hem_repro::sim::trace;
use hem_repro::time::Time;

/// Up to four periodic tasks with utilization bounded well below 1.
#[derive(Debug, Clone)]
struct TaskSetCfg {
    /// (wcet, period) pairs, priority = index.
    tasks: Vec<(i64, i64)>,
}

fn task_set_strategy() -> impl Strategy<Value = TaskSetCfg> {
    prop::collection::vec((1i64..60, 300i64..2_000), 1..=4)
        .prop_map(|tasks| TaskSetCfg { tasks })
        .prop_filter("bounded utilization", |cfg| {
            cfg.tasks
                .iter()
                .map(|(c, p)| *c as f64 / *p as f64)
                .sum::<f64>()
                < 0.75
        })
}

fn analysis_tasks(cfg: &TaskSetCfg) -> Vec<AnalysisTask> {
    cfg.tasks
        .iter()
        .enumerate()
        .map(|(i, (c, p))| {
            AnalysisTask::new(
                format!("t{i}"),
                Time::new(*c),
                Time::new(*c),
                Priority::new(i as u32),
                StandardEventModel::periodic(Time::new(*p))
                    .expect("valid")
                    .shared(),
            )
        })
        .collect()
}

fn sim_tasks(cfg: &TaskSetCfg, horizon: Time) -> Vec<SimTask> {
    cfg.tasks
        .iter()
        .enumerate()
        .map(|(i, (c, p))| SimTask {
            name: format!("t{i}"),
            priority: Priority::new(i as u32),
            execution_time: Time::new(*c),
            // Synchronous release at 0 = the SPP critical instant.
            activations: trace::periodic(Time::new(*p), horizon),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SPP bounds are conservative against the preemptive simulator, and
    /// with synchronous release they are *exact* for strictly periodic
    /// tasks (the critical instant is realized at t = 0).
    #[test]
    fn spp_bounds_match_simulation(cfg in task_set_strategy()) {
        let tasks = analysis_tasks(&cfg);
        let bounds = spp::analyze(&tasks, &AnalysisConfig::default()).expect("schedulable");
        // Simulate past the hyperperiod-ish horizon.
        let horizon = Time::new(40_000);
        let sims = sim_tasks(&cfg, horizon);
        let jobs = cpu::simulate(&sims);
        let observed = cpu::worst_responses(&sims, &jobs);
        for (bound, obs) in bounds.iter().zip(&observed) {
            prop_assert!(
                *obs <= bound.response.r_plus,
                "{}: observed {} > bound {}", bound.name, obs, bound.response.r_plus
            );
            prop_assert_eq!(
                *obs, bound.response.r_plus,
                "exactness for synchronous periodic release"
            );
        }
    }

    /// SPNP (CAN) bounds are conservative against the non-preemptive
    /// arbitration simulator with synchronous release.
    #[test]
    fn spnp_bounds_cover_simulation(cfg in task_set_strategy()) {
        let tasks = analysis_tasks(&cfg);
        let bounds = spnp::analyze(&tasks, &AnalysisConfig::default()).expect("schedulable");
        let horizon = Time::new(40_000);
        let frames: Vec<QueuedFrame> = cfg
            .tasks
            .iter()
            .enumerate()
            .map(|(i, (c, p))| QueuedFrame {
                name: format!("t{i}"),
                priority: Priority::new(i as u32),
                transmission_time: Time::new(*c),
                queued_at: trace::periodic(Time::new(*p), horizon),
            })
            .collect();
        let txs = canbus::simulate(&frames);
        for (i, bound) in bounds.iter().enumerate() {
            let observed = txs
                .iter()
                .filter(|t| t.frame == i)
                .map(|t| t.response())
                .max()
                .expect("at least one transmission");
            prop_assert!(
                observed <= bound.response.r_plus,
                "{}: observed {} > bound {}", bound.name, observed, bound.response.r_plus
            );
        }
    }

    /// Randomized execution times within [1, WCET] stay within the WCET
    /// bounds too (any admissible behaviour is covered, not just the
    /// worst case).
    #[test]
    fn spp_bounds_cover_randomized_execution(cfg in task_set_strategy(), seed in 0u64..500) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let tasks = analysis_tasks(&cfg);
        let bounds = spp::analyze(&tasks, &AnalysisConfig::default()).expect("schedulable");
        let horizon = Time::new(40_000);
        let sims = sim_tasks(&cfg, horizon);
        let mut rng = StdRng::seed_from_u64(seed);
        let wcets: Vec<i64> = cfg.tasks.iter().map(|(c, _)| *c).collect();
        let jobs = cpu::simulate_with_exec(&sims, |task, _| {
            Time::new(rng.gen_range(1..=wcets[task]))
        });
        let observed = cpu::worst_responses(&sims, &jobs);
        for (bound, obs) in bounds.iter().zip(&observed) {
            prop_assert!(
                *obs <= bound.response.r_plus,
                "{}: observed {} > bound {}", bound.name, obs, bound.response.r_plus
            );
        }
    }

    /// WCRT bounds grow monotonically with execution demand.
    #[test]
    fn spp_monotone_in_wcet(cfg in task_set_strategy(), bump in 1i64..20) {
        let base = analysis_tasks(&cfg);
        let baseline = spp::analyze(&base, &AnalysisConfig::default()).expect("schedulable");
        // Bump the highest-priority task's WCET; every bound may only grow.
        let mut bumped = base.clone();
        bumped[0] = AnalysisTask::new(
            bumped[0].name.clone(),
            bumped[0].bcet,
            bumped[0].wcet + Time::new(bump),
            bumped[0].priority,
            bumped[0].input.clone(),
        );
        if let Ok(after) = spp::analyze(&bumped, &AnalysisConfig::default()) {
            for (b, a) in baseline.iter().zip(&after) {
                prop_assert!(a.response.r_plus >= b.response.r_plus, "{}", b.name);
            }
        }
    }

    /// If the demand-bound test says "schedulable", the simulated EDF
    /// scheduler meets every deadline with synchronous periodic release.
    #[test]
    fn edf_verdict_covers_simulation(cfg in task_set_strategy(), d_num in 1i64..4) {
        use hem_repro::analysis::dbf::{edf_schedulable, EdfTask};
        use hem_repro::sim::cpu_edf::{first_deadline_miss, simulate as edf_simulate, EdfSimTask};
        // Constrained deadlines: D = P·d_num/4 (at least C).
        let tasks: Vec<EdfTask> = cfg
            .tasks
            .iter()
            .enumerate()
            .map(|(i, (c, p))| EdfTask::new(
                format!("t{i}"),
                Time::new(*c),
                Time::new((p * d_num / 4).max(*c)),
                StandardEventModel::periodic(Time::new(*p)).expect("valid").shared(),
            ))
            .collect();
        let verdict = edf_schedulable(&tasks, &AnalysisConfig::default()).expect("bounded");
        let horizon = Time::new(40_000);
        let sim_tasks: Vec<EdfSimTask> = tasks
            .iter()
            .zip(&cfg.tasks)
            .map(|(t, (_, p))| EdfSimTask {
                name: t.name.clone(),
                execution_time: t.wcet,
                deadline: t.deadline,
                activations: trace::periodic(Time::new(*p), horizon),
            })
            .collect();
        let jobs = edf_simulate(&sim_tasks);
        if verdict.is_schedulable() {
            prop_assert_eq!(
                first_deadline_miss(&jobs), None,
                "analysis says schedulable but the simulation missed a deadline"
            );
        }
        // Conversely, a simulated miss must coincide with an Overload
        // verdict (the test is exact for synchronous periodic sets).
        if first_deadline_miss(&jobs).is_some() {
            prop_assert!(!verdict.is_schedulable());
        }
    }

    /// Audsley's OPA is sound (its order is feasible) and complete
    /// relative to deadline-monotonic (whenever DM works, OPA succeeds).
    #[test]
    fn opa_sound_and_dominates_dm(
        cfg in task_set_strategy(),
        deadline_scale in 2i64..8,
    ) {
        use hem_repro::analysis::assignment::{
            audsley, deadline_monotonic, order_is_feasible, DeadlineTask, Scheduling,
        };
        let tasks: Vec<DeadlineTask> = cfg
            .tasks
            .iter()
            .enumerate()
            .map(|(i, (c, p))| DeadlineTask::new(
                format!("t{i}"),
                Time::new(*c),
                Time::new(*c),
                Time::new(c * deadline_scale + p / 4),
                StandardEventModel::periodic(Time::new(*p)).expect("valid").shared(),
            ))
            .collect();
        let analysis_cfg = AnalysisConfig::with_max_busy_window(Time::new(500_000));
        let dm = deadline_monotonic(&tasks);
        let dm_ok = order_is_feasible(&tasks, &dm, Scheduling::Preemptive, &analysis_cfg)
            .unwrap_or(false);
        let opa = audsley(&tasks, Scheduling::Preemptive, &analysis_cfg).expect("no breakdown");
        if let Some(order) = &opa {
            prop_assert!(
                order_is_feasible(&tasks, order, Scheduling::Preemptive, &analysis_cfg).unwrap(),
                "OPA order must be feasible"
            );
        }
        if dm_ok {
            prop_assert!(opa.is_some(), "OPA must succeed whenever DM does");
        }
    }
}
