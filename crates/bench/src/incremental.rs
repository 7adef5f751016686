//! Chained incremental scenarios over a replicated Fig. 2 grid.
//!
//! The warm-start engine ([`hem_system::analyze_incremental`]) pays off
//! when successive scenarios share most of their topology: the damage
//! cone of a one-parameter mutation is a small fraction of the system
//! and everything outside it replays from the previous run's snapshot.
//! A single paper system is too small to show this — its one bus feeds
//! its one CPU, so any mutation dirties everything. This module builds
//! the natural scaled-up workload instead: `K` independent replicas of
//! the paper system (`r0/…`, `r1/…`, …), each with its own bus and CPU,
//! mutated one replica at a time. Every chained scenario re-analyses
//! exactly one replica (cone fraction `1/K`) and replays the other
//! `K − 1` from the snapshot.
//!
//! Scenario builders **clone and mutate** the previous spec so untouched
//! external event models keep their `Arc` allocations — the identity
//! fingerprint the spec diff relies on (see `docs/INCREMENTAL.md`).

use std::collections::BTreeMap;
use std::time::Instant;

use hem_analysis::{Priority, ResponseTime};
use hem_autosar_com::{FrameType, TransferProperty};
use hem_can::{CanBusConfig, FrameFormat};
use hem_event_models::{EventModelExt, StandardEventModel};
use hem_system::{
    analyze_incremental, analyze_robust, ActivationSpec, FrameSpec, SignalSpec, SystemConfig,
    SystemSpec, TaskSpec,
};
use hem_time::Time;

use crate::paper_system::PaperParams;

/// Receiver tasks per signal on every replica CPU.
///
/// The paper system wires one task per signal; here each signal
/// activates three (12 tasks per CPU). Busy-window cost grows
/// quadratically in the tasks per CPU — every lower-priority window
/// sums interference from all higher-priority tasks — while the
/// per-iteration resolution and bookkeeping that a warm start cannot
/// skip grow only linearly, so the richer CPUs put each replica in the
/// regime where skipping its local analyses dominates snapshot
/// overhead (the regime any real incremental workload lives in).
const TASKS_PER_SIGNAL: usize = 3;

/// Core execution times (paper units) of the receivers of s1–s4.
const RECEIVER_CET: [i64; 4] = [24, 32, 40, 20];

/// Builds `replicas` namespaced copies of the scaled-up paper system,
/// each on its own bus and CPU: frames `r<i>/F1`–`r<i>/F2` on bus
/// `r<i>/can`, tasks `r<i>/T1`–`r<i>/T12` on CPU `r<i>/cpu1` (task
/// `T<k>` has priority `k` and receives signal `s<1 + (k-1) mod 4>`).
#[must_use]
pub fn replicated_spec(replicas: usize, p: &PaperParams) -> SystemSpec {
    (0..replicas).fold(SystemSpec::new(), |spec, i| {
        replica(spec, &format!("r{i}"), p)
    })
}

fn replica(spec: SystemSpec, prefix: &str, p: &PaperParams) -> SystemSpec {
    let n = |s: &str| format!("{prefix}/{s}");
    let source = |period: i64| {
        ActivationSpec::External(
            StandardEventModel::periodic(p.period_ticks(period))
                .expect("positive period")
                .shared(),
        )
    };
    let signal = |name: &str, transfer, period| SignalSpec {
        name: name.into(),
        transfer,
        source: source(period),
    };
    let mut spec = spec
        .cpu(n("cpu1"))
        .bus(n("can"), CanBusConfig::new(Time::new(p.bit_time)))
        .frame(FrameSpec {
            name: n("F1"),
            bus: n("can"),
            frame_type: FrameType::Direct,
            payload_bytes: 4,
            format: FrameFormat::Standard,
            priority: Priority::new(1),
            signals: vec![
                signal("s1", TransferProperty::Triggering, p.s1_period),
                signal("s2", TransferProperty::Triggering, p.s2_period),
                signal("s3", TransferProperty::Pending, p.s3_period),
            ],
        })
        .frame(FrameSpec {
            name: n("F2"),
            bus: n("can"),
            frame_type: FrameType::Direct,
            payload_bytes: 2,
            format: FrameFormat::Standard,
            priority: Priority::new(2),
            signals: vec![signal("s4", TransferProperty::Triggering, p.s4_period)],
        });
    for k in 0..4 * TASKS_PER_SIGNAL {
        let sig = k % 4;
        let cet = Time::new(RECEIVER_CET[sig] * p.cpu_scale);
        spec = spec.task(TaskSpec {
            name: n(&format!("T{}", k + 1)),
            cpu: n("cpu1"),
            bcet: cet,
            wcet: cet,
            priority: Priority::new(k as u32 + 1),
            activation: ActivationSpec::Signal {
                frame: n(if sig == 3 { "F2" } else { "F1" }),
                signal: format!("s{}", sig + 1),
            },
        });
    }
    spec
}

/// Clones `spec` with replica `replica`'s pending source S3 re-timed to
/// `s3_period` (paper units). Only that signal's external model is
/// re-allocated; every other activation keeps its `Arc`, so the spec
/// diff seeds exactly `bus:r<replica>/can`.
#[must_use]
pub fn with_s3_period(
    spec: &SystemSpec,
    replica: usize,
    s3_period: i64,
    p: &PaperParams,
) -> SystemSpec {
    let mut next = spec.clone();
    let name = format!("r{replica}/F1");
    let frame = next
        .frames
        .iter_mut()
        .find(|f| f.name == name)
        .expect("replica exists");
    frame.signals[2].source = ActivationSpec::External(
        StandardEventModel::periodic(p.period_ticks(s3_period))
            .expect("positive period")
            .shared(),
    );
    next
}

/// The chained scenario grid: the base replicated system followed by
/// `steps` successive single-replica S3 mutations (round-robin over
/// replicas, periods walking a deterministic lattice). Each spec is a
/// clone-and-mutate of its predecessor, preserving `Arc` identity of
/// everything untouched.
#[must_use]
pub fn scenario_chain(replicas: usize, steps: usize, p: &PaperParams) -> Vec<SystemSpec> {
    let mut specs = vec![replicated_spec(replicas, p)];
    for j in 0..steps {
        // Stay above 450 paper units: the three s3 receivers put CPU
        // utilization at 0.65 + 120/P(S3), so a faster S3 would push
        // the busy windows of the low-priority tasks out of bound.
        let period = 450 + ((j as i64) * 97) % 750;
        let prev = specs.last().expect("chain starts with the base spec");
        specs.push(with_s3_period(prev, j % replicas, period, p));
    }
    specs
}

/// One measured pass over a scenario chain.
#[derive(Debug)]
pub struct ChainRun {
    /// Per-scenario response times (`frame:<f>` / `task:<t>` keys).
    pub response_times: Vec<BTreeMap<String, ResponseTime>>,
    /// Wall time of the whole pass in milliseconds.
    pub wall_ms: f64,
    /// Per-scenario damage-cone fractions (always 1.0 for a cold pass).
    pub cone_fractions: Vec<f64>,
    /// Total per-entity results replayed from snapshots (0 when cold).
    pub replayed_results: u64,
    /// Scenarios that fell back to a full run (the cold pass counts
    /// every scenario).
    pub full_fallbacks: u64,
}

impl ChainRun {
    /// Mean damage-cone fraction over the *chained* scenarios (the
    /// first scenario of a warm pass has no snapshot and always covers
    /// the full system, so it is excluded; `1.0` for a chain of one).
    #[must_use]
    pub fn mean_chained_cone_fraction(&self) -> f64 {
        let chained = &self.cone_fractions[1..];
        if chained.is_empty() {
            1.0
        } else {
            chained.iter().sum::<f64>() / chained.len() as f64
        }
    }
}

/// Analyses every scenario from scratch ([`analyze_robust`]).
///
/// # Panics
///
/// Panics when a scenario fails to analyse or does not converge — the
/// chain workload is a benchmark fixture, not an exploration.
#[must_use]
pub fn run_chain_cold(specs: &[SystemSpec], config: &SystemConfig) -> ChainRun {
    let started = Instant::now();
    let response_times = specs
        .iter()
        .map(|spec| {
            let robust = analyze_robust(spec, config).expect("chain scenario analyses");
            assert!(robust.results.is_complete(), "chain scenario converges");
            robust.results.response_times()
        })
        .collect::<Vec<_>>();
    ChainRun {
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        cone_fractions: vec![1.0; specs.len()],
        replayed_results: 0,
        full_fallbacks: specs.len() as u64,
        response_times,
    }
}

/// Analyses the chain with warm-start reuse: each scenario seeds from
/// the previous scenario's snapshot ([`analyze_incremental`]).
///
/// # Panics
///
/// Panics when a scenario fails to analyse or does not converge.
#[must_use]
pub fn run_chain_warm(specs: &[SystemSpec], config: &SystemConfig) -> ChainRun {
    let started = Instant::now();
    let mut snapshot = None;
    let mut response_times = Vec::with_capacity(specs.len());
    let mut cone_fractions = Vec::with_capacity(specs.len());
    let mut replayed_results = 0;
    let mut full_fallbacks = 0;
    for spec in specs {
        let outcome =
            analyze_incremental(spec, config, snapshot.as_ref()).expect("chain scenario analyses");
        assert!(
            outcome.analysis.results.is_complete(),
            "chain scenario converges"
        );
        response_times.push(outcome.analysis.results.response_times());
        cone_fractions.push(outcome.reuse.cone_fraction());
        replayed_results += outcome.reuse.replayed_results;
        full_fallbacks += u64::from(!outcome.reuse.warm);
        snapshot = outcome.snapshot;
    }
    ChainRun {
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        response_times,
        cone_fractions,
        replayed_results,
        full_fallbacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_system::AnalysisMode;

    #[test]
    fn replicated_spec_scales_entities() {
        let spec = replicated_spec(3, &PaperParams::default());
        assert_eq!(spec.cpus.len(), 3);
        assert_eq!(spec.buses.len(), 3);
        assert_eq!(spec.frames.len(), 6);
        assert_eq!(spec.tasks.len(), 36);
        assert!(spec.frames.iter().any(|f| f.name == "r2/F1"));
        assert!(spec.tasks.iter().any(|t| t.name == "r2/T12"));
    }

    #[test]
    fn mutation_preserves_other_arcs() {
        let p = PaperParams::default();
        let base = replicated_spec(2, &p);
        let next = with_s3_period(&base, 1, 420, &p);
        let arc = |spec: &SystemSpec, frame: &str, sig: usize| match &spec
            .frames
            .iter()
            .find(|f| f.name == frame)
            .expect("frame")
            .signals[sig]
            .source
        {
            ActivationSpec::External(m) => std::sync::Arc::as_ptr(m),
            other => panic!("external source expected, got {other:?}"),
        };
        // r0 untouched, r1's s3 re-allocated, r1's s1 untouched.
        assert!(std::ptr::addr_eq(
            arc(&base, "r0/F1", 2),
            arc(&next, "r0/F1", 2)
        ));
        assert!(std::ptr::addr_eq(
            arc(&base, "r1/F1", 0),
            arc(&next, "r1/F1", 0)
        ));
        assert!(!std::ptr::addr_eq(
            arc(&base, "r1/F1", 2),
            arc(&next, "r1/F1", 2)
        ));
    }

    #[test]
    fn warm_chain_matches_cold_with_small_cones() {
        let p = PaperParams::default();
        let specs = scenario_chain(4, 5, &p);
        let config = SystemConfig::new(AnalysisMode::Hierarchical);
        let cold = run_chain_cold(&specs, &config);
        let warm = run_chain_warm(&specs, &config);
        assert_eq!(cold.response_times, warm.response_times);
        assert_eq!(warm.full_fallbacks, 1); // only the snapshot-less first run
        assert!(warm.replayed_results > 0);
        // Each chained mutation dirties one replica of four: bus + CPU
        // out of 8 resources.
        assert!((warm.mean_chained_cone_fraction() - 0.25).abs() < f64::EPSILON);
    }
}
