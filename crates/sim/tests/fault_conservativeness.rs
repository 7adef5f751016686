//! Property tests: fault-injected simulations stay within analytic
//! bounds once the fault load is accounted for.
//!
//! The contract of [`hem_sim::fault`] is *bounded pessimism*: every
//! sampled fault effect is dominated by the matching closed-form bound
//! ([`FaultPlan::wire_time_bound`] for retransmission load,
//! [`FaultPlan::jitter_bound`] for displacement), so an analysis fed
//! those bounds stays conservative for every seed. These properties pin
//! that contract over randomly drawn systems and plans.

use proptest::prelude::*;

use hem_analysis::{spnp, AnalysisConfig, AnalysisTask, Priority};
use hem_event_models::{EventModel, EventModelExt, StandardEventModel};
use hem_sim::canbus::{self, QueuedFrame};
use hem_sim::fault::{Fault, FaultPlan, FaultTarget};
use hem_sim::trace;
use hem_time::Time;

/// Periods chosen so even fully corrupted frames keep the bus loaded
/// well under 100 % (the busy-window analysis must converge).
const PERIODS: [i64; 4] = [2_000, 3_000, 5_000, 8_000];
const HORIZON: i64 = 60_000;
const ERROR_FRAME: i64 = 31;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Simulated per-frame worst response under sampled corruption never
    /// exceeds the SPNP bound computed with the retransmission-inflated
    /// transmission time `C' = (k+1)·C + k·E`.
    #[test]
    fn corrupted_bus_stays_within_retransmission_bound(
        seed in 0u64..5_000,
        n_frames in 1usize..=4,
        prob_pct in 0u32..=100,
        max_retx in 0u32..=2,
    ) {
        let plan = FaultPlan::new(seed).with(Fault::FrameCorruption {
            frame: FaultTarget::All,
            probability: f64::from(prob_pct) / 100.0,
            error_frame: Time::new(ERROR_FRAME),
            max_retransmissions: max_retx,
        });

        let horizon = Time::new(HORIZON);
        let mut queued = Vec::new();
        let mut analytic = Vec::new();
        for (i, &period) in PERIODS.iter().enumerate().take(n_frames) {
            let name = format!("F{i}");
            let base = Time::new(40 + 15 * i as i64);
            let period = Time::new(period);
            queued.push(QueuedFrame {
                name: name.clone(),
                priority: Priority::new(i as u32 + 1),
                transmission_time: base,
                queued_at: trace::periodic(period, horizon),
            });
            analytic.push(AnalysisTask::new(
                name,
                base,
                plan.wire_time_bound(&format!("F{i}"), base),
                Priority::new(i as u32 + 1),
                StandardEventModel::periodic(period).expect("valid").shared(),
            ));
        }

        let wire: Vec<Vec<Time>> = queued
            .iter()
            .map(|f| plan.wire_times(&f.name, f.transmission_time, f.queued_at.len()))
            .collect();
        let sim = canbus::try_simulate_with_times(&queued, |f, i| wire[f][i])
            .expect("well-formed bus");
        let bounds = spnp::analyze(&analytic, &AnalysisConfig::default())
            .expect("under-loaded bus converges");

        for tx in &sim {
            let bound = bounds[tx.frame].response.r_plus;
            prop_assert!(
                tx.response() <= bound,
                "{} instance {}: simulated response {} exceeds analytic bound {}",
                queued[tx.frame].name, tx.instance, tx.response(), bound
            );
        }
    }

    /// A periodic trace perturbed by activation jitter and clock drift
    /// stays admissible for the standard event model whose jitter is
    /// widened by [`FaultPlan::jitter_bound`] — i.e. the perturbed trace
    /// still satisfies the widened η⁺/δ⁻ envelope.
    #[test]
    fn perturbed_trace_admissible_for_widened_model(
        seed in 0u64..5_000,
        period in 200i64..=1_000,
        max_delay in 0i64..=300,
        drift_ppm in -20_000i64..=20_000,
    ) {
        let horizon = Time::new(30_000);
        let plan = FaultPlan::new(seed)
            .with(Fault::ActivationJitter {
                target: FaultTarget::Named("src".into()),
                max_delay: Time::new(max_delay),
            })
            .with(Fault::ClockDrift {
                target: FaultTarget::All,
                drift_ppm,
            });

        let base = trace::periodic(Time::new(period), horizon);
        let perturbed = plan.perturb_trace("src", &base);
        prop_assert_eq!(perturbed.len(), base.len());

        let widened = StandardEventModel::periodic_with_jitter(
            Time::new(period),
            plan.jitter_bound("src", horizon),
        )
        .expect("valid model");
        prop_assert_eq!(
            trace::check_admissible(&perturbed, &widened),
            None,
            "perturbed trace violates the jitter-widened model"
        );
    }

    /// δ⁻ of the perturbed trace can shrink by at most the displacement
    /// bound relative to the pristine trace — pairwise, not just via the
    /// model envelope.
    #[test]
    fn perturbation_displacement_is_bounded(
        seed in 0u64..5_000,
        period in 100i64..=800,
        max_delay in 0i64..=250,
    ) {
        let horizon = Time::new(20_000);
        let plan = FaultPlan::new(seed).with(Fault::ActivationJitter {
            target: FaultTarget::All,
            max_delay: Time::new(max_delay),
        });
        let base = trace::periodic(Time::new(period), horizon);
        let perturbed = plan.perturb_trace("src", &base);
        let bound = plan.jitter_bound("src", horizon);
        for (b, p) in base.iter().zip(&perturbed) {
            prop_assert!(*p >= *b, "jitter only delays");
            prop_assert!(*p - *b <= bound, "displacement {} exceeds bound {}", *p - *b, bound);
        }
    }

    /// The sampled wire times themselves never exceed the closed-form
    /// bound, for any composition of corruption faults.
    #[test]
    fn sampled_wire_times_below_bound(
        seed in 0u64..10_000,
        prob_pct in 0u32..=100,
        k1 in 0u32..=3,
        k2 in 0u32..=3,
    ) {
        let plan = FaultPlan::new(seed)
            .with(Fault::FrameCorruption {
                frame: FaultTarget::All,
                probability: f64::from(prob_pct) / 100.0,
                error_frame: Time::new(ERROR_FRAME),
                max_retransmissions: k1,
            })
            .with(Fault::FrameCorruption {
                frame: FaultTarget::Named("F".into()),
                probability: 0.5,
                error_frame: Time::new(17),
                max_retransmissions: k2,
            });
        let base = Time::new(95);
        let bound = plan.wire_time_bound("F", base);
        for (i, t) in plan.wire_times("F", base, 64).into_iter().enumerate() {
            prop_assert!(t >= base, "faults only add load");
            prop_assert!(t <= bound, "instance {i}: sampled {t} exceeds bound {bound}");
        }
    }
}

/// Overload interference is dominated by modelling the babbling idiot as
/// a highest-priority periodic interferer in the analysis. Deterministic
/// across a seed sweep (the rogue queue itself is deterministic; seeds
/// vary nothing here, but the sweep guards against accidental seed
/// coupling).
#[test]
fn overloaded_bus_stays_within_interferer_bound() {
    let horizon = Time::new(60_000);
    let real_period = Time::new(2_000);
    let babble_period = Time::new(700);
    let babble_tt = Time::new(130);

    for seed in [0u64, 7, 42, 1_000] {
        let plan = FaultPlan::new(seed).with(Fault::BusOverload {
            bus: FaultTarget::Named("bus".into()),
            priority: Priority::new(0),
            transmission_time: babble_tt,
            period: babble_period,
            from: Time::ZERO,
            until: horizon,
        });

        let mut queued = vec![QueuedFrame {
            name: "F".into(),
            priority: Priority::new(1),
            transmission_time: Time::new(95),
            queued_at: trace::periodic(real_period, horizon),
        }];
        queued.extend(plan.overload_frames("bus", horizon));
        let sim = canbus::simulate(&queued);

        let analytic = [
            AnalysisTask::new(
                "F",
                Time::new(95),
                Time::new(95),
                Priority::new(1),
                StandardEventModel::periodic(real_period)
                    .expect("valid")
                    .shared(),
            ),
            AnalysisTask::new(
                "babble",
                babble_tt,
                babble_tt,
                Priority::new(0),
                StandardEventModel::periodic(babble_period)
                    .expect("valid")
                    .shared(),
            ),
        ];
        let bounds = spnp::analyze(&analytic, &AnalysisConfig::default()).expect("converges");

        let worst = sim
            .iter()
            .filter(|tx| tx.frame == 0)
            .map(|tx| tx.response())
            .max()
            .expect("frame transmitted");
        assert!(
            worst <= bounds[0].response.r_plus,
            "seed {seed}: simulated worst {worst} exceeds bound {}",
            bounds[0].response.r_plus
        );
        assert!(
            worst > Time::new(95),
            "seed {seed}: overload should actually delay the frame"
        );
    }
}

/// The widened model's η⁺ genuinely accounts for the extra events a
/// jittered window can contain: counting events of the perturbed trace
/// in every window stays below `eta_plus` of the widened model.
#[test]
fn perturbed_trace_event_counts_within_eta_plus() {
    let horizon = Time::new(25_000);
    let period = Time::new(500);
    for seed in [1u64, 9, 77, 512] {
        let plan = FaultPlan::new(seed)
            .with(Fault::ActivationJitter {
                target: FaultTarget::All,
                max_delay: Time::new(180),
            })
            .with(Fault::ClockDrift {
                target: FaultTarget::All,
                drift_ppm: -9_000,
            });
        let base = trace::periodic(period, horizon);
        let perturbed = plan.perturb_trace("src", &base);
        let widened =
            StandardEventModel::periodic_with_jitter(period, plan.jitter_bound("src", horizon))
                .expect("valid");

        // Slide a window over the trace: the densest observed packing
        // of any width w must not exceed η⁺(w).
        for (i, &start) in perturbed.iter().enumerate() {
            for w in [Time::new(400), Time::new(1_100), Time::new(4_900)] {
                let count = perturbed[i..]
                    .iter()
                    .take_while(|&&t| t - start < w)
                    .count() as u64;
                let allowed = widened.eta_plus(w);
                assert!(
                    count <= allowed,
                    "seed {seed}: {count} events in window {w} exceeds η⁺ = {allowed}"
                );
            }
        }
    }
}
