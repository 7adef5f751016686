//! Property-based tests of the hierarchical event model: Def. 8 (pack),
//! Def. 9 (inner update) and Def. 10 (unpack) invariants, plus the
//! soundness of the unpacked models against behavioural simulation.

use proptest::prelude::*;

use hem_repro::analysis::Priority;
use hem_repro::autosar_com::{FrameType, TransferProperty};
use hem_repro::core::{HierarchicalStreamConstructor, PackConstructor, PackInput, StreamRole};
use hem_repro::event_models::ops::OrJoin;
use hem_repro::event_models::{
    check_consistency, EventModel, EventModelExt, ModelRef, StandardEventModel,
};
use hem_repro::sim::canbus::{self, QueuedFrame};
use hem_repro::sim::com::{self, ComSignal};
use hem_repro::sim::trace;
use hem_repro::time::{Time, TimeBound};

#[derive(Debug, Clone)]
struct SignalCfg {
    period: i64,
    pending: bool,
}

fn signals_strategy() -> impl Strategy<Value = Vec<SignalCfg>> {
    // 1–4 signals; the first one is always triggering.
    prop::collection::vec((200i64..3000, any::<bool>()), 1..=4).prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (period, pending))| SignalCfg {
                period,
                pending: pending && i != 0,
            })
            .collect()
    })
}

fn build_hem(signals: &[SignalCfg]) -> hem_repro::core::HierarchicalEventModel {
    let inputs: Vec<PackInput> = signals
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let model = StandardEventModel::periodic(Time::new(s.period))
                .expect("positive period")
                .shared();
            let role = if s.pending {
                StreamRole::Pending
            } else {
                StreamRole::Triggering
            };
            PackInput::new(format!("s{i}"), model, role)
        })
        .collect();
    PackConstructor::new(inputs)
        .expect("first signal triggers")
        .construct()
        .expect("constructs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Def. 8: the outer stream equals the OR-combination of exactly the
    /// triggering inputs.
    #[test]
    fn outer_is_or_of_triggering(signals in signals_strategy()) {
        let hem = build_hem(&signals);
        let triggering: Vec<ModelRef> = signals
            .iter()
            .filter(|s| !s.pending)
            .map(|s| StandardEventModel::periodic(Time::new(s.period)).expect("valid").shared())
            .collect();
        let reference = OrJoin::new(triggering).expect("non-empty");
        for n in 2u64..12 {
            prop_assert_eq!(hem.outer().delta_min(n), reference.delta_min(n));
            prop_assert_eq!(hem.outer().delta_plus(n), reference.delta_plus(n));
        }
    }

    /// Eqs. (5),(6): triggering inner streams keep their own timing.
    #[test]
    fn triggering_inner_identity(signals in signals_strategy()) {
        let hem = build_hem(&signals);
        for (i, s) in signals.iter().enumerate() {
            if s.pending {
                continue;
            }
            let inner = hem.unpack(i).expect("in range");
            let original = StandardEventModel::periodic(Time::new(s.period)).expect("valid");
            for n in 2u64..10 {
                prop_assert_eq!(inner.delta_min(n), original.delta_min(n));
                prop_assert_eq!(inner.delta_plus(n), original.delta_plus(n));
            }
        }
    }

    /// Eqs. (7),(8): pending inner streams are frame-limited with
    /// unbounded δ⁺, and stay consistent models.
    #[test]
    fn pending_inner_bounds(signals in signals_strategy()) {
        let hem = build_hem(&signals);
        for (i, s) in signals.iter().enumerate() {
            if !s.pending {
                continue;
            }
            let inner = hem.unpack(i).expect("in range");
            prop_assert_eq!(inner.delta_plus(2), TimeBound::Infinite);
            check_consistency(inner.as_ref(), 10).expect("consistent");
            let frame_gap = hem.outer().delta_plus(2).expect_finite("periodic triggers");
            for n in 2u64..8 {
                // The frame-spacing bound.
                prop_assert!(inner.delta_min(n) >= hem.outer().delta_min(n));
                // The signal-spacing bound.
                let signal = StandardEventModel::periodic(Time::new(s.period)).expect("valid");
                prop_assert!(
                    inner.delta_min(n) >= (signal.delta_min(n) - frame_gap).clamp_non_negative()
                );
            }
        }
    }

    /// Def. 9: processing preserves consistency and the serialization
    /// floor; Def. 10: unpack returns exactly the stored inner models.
    #[test]
    fn process_and_unpack_invariants(
        signals in signals_strategy(),
        r_minus in 1i64..120,
        extra in 0i64..200,
    ) {
        let hem = build_hem(&signals);
        let (rm, rp) = (Time::new(r_minus), Time::new(r_minus + extra));
        let after = hem.process(rm, rp).expect("valid interval");
        prop_assert_eq!(after.inners().len(), hem.inners().len());
        check_consistency(after.outer().as_ref(), 10).expect("outer consistent");
        for (i, inner) in after.inners().iter().enumerate() {
            check_consistency(inner.model.as_ref(), 10).expect("inner consistent");
            // Serialization floor (Def. 9 second term).
            for n in 2u64..8 {
                prop_assert!(inner.model.delta_min(n) >= rm * (n as i64 - 1));
            }
            // Ψ_pa: unpack(i) = L(i).
            let unpacked = after.unpack(i).expect("in range");
            prop_assert_eq!(unpacked.delta_min(4), inner.model.delta_min(4));
        }
        // Names survive processing.
        for (a, b) in hem.inners().iter().zip(after.inners()) {
            prop_assert_eq!(&a.name, &b.name);
        }
    }

    /// Soundness against behaviour: simulate the COM layer + bus for one
    /// frame and check every per-signal delivery trace is admissible for
    /// the unpacked (post-transport) model.
    #[test]
    fn unpacked_models_cover_simulated_deliveries(
        signals in signals_strategy(),
        transmission in 20i64..150,
    ) {
        let horizon = Time::new(60_000);
        let hem = build_hem(&signals);
        // Behavioural side: COM layer then a sole frame on the bus.
        let com_signals: Vec<ComSignal> = signals
            .iter()
            .enumerate()
            .map(|(i, s)| ComSignal {
                name: format!("s{i}"),
                transfer: if s.pending {
                    TransferProperty::Pending
                } else {
                    TransferProperty::Triggering
                },
                writes: trace::periodic(Time::new(s.period), horizon),
            })
            .collect();
        let com_trace = com::simulate(FrameType::Direct, &com_signals, horizon);
        let tx = canbus::simulate(&[QueuedFrame {
            name: "F".into(),
            priority: Priority::new(1),
            transmission_time: Time::new(transmission),
            queued_at: com_trace.instances.iter().map(|i| i.queued_at).collect(),
        }]);
        // The frame is alone on the bus, but back-to-back queueing still
        // produces response times in [C, q·C]; take the observed range.
        let r_obs_min = tx.iter().map(|t| t.response()).min().unwrap_or(Time::new(transmission));
        let r_obs_max = tx.iter().map(|t| t.response()).max().unwrap_or(Time::new(transmission));
        let after = hem.process(r_obs_min, r_obs_max).expect("valid interval");
        // Analysis side: per-signal delivery traces must be admissible.
        for (i, _s) in signals.iter().enumerate() {
            let model = after.unpack(i).expect("in range");
            // Every delivery is a frame completion, so the unpacked
            // stream is never denser than the processed outer stream.
            for n in 2u64..64 {
                prop_assert!(
                    model.delta_min(n) >= after.outer().delta_min(n),
                    "signal s{} is denser than the frame's output stream at n = {}", i, n
                );
            }
            let deliveries: Vec<Time> = tx
                .iter()
                .filter(|t| com_trace.instances[t.instance].carries(i))
                .map(|t| t.completed_at)
                .collect();
            if deliveries.len() < 2 {
                continue;
            }
            let violation = trace::check_admissible(&deliveries, model.as_ref());
            prop_assert_eq!(
                violation, None,
                "signal s{} deliveries violate the unpacked model", i
            );
        }
    }
}

#[test]
fn flatten_discards_inner_structure() {
    let hem = build_hem(&[
        SignalCfg {
            period: 500,
            pending: false,
        },
        SignalCfg {
            period: 900,
            pending: true,
        },
    ]);
    let flat = hem.flatten();
    for n in 2u64..10 {
        assert_eq!(flat.delta_min(n), hem.outer().delta_min(n));
    }
}

/// Named regression triaged from `hem_properties.proptest-regressions`:
/// shrunk case `signals = [{379, triggering}, {669, triggering},
/// {200, pending}], r_minus = 90, extra = 0`. The pending signal is
/// written faster than either trigger, and the point response interval
/// [90, 90] makes the serialization floor `r⁻·(n−1)` bind exactly.
#[test]
fn regression_process_and_unpack_with_fast_pending_signal() {
    let signals = [
        SignalCfg {
            period: 379,
            pending: false,
        },
        SignalCfg {
            period: 669,
            pending: false,
        },
        SignalCfg {
            period: 200,
            pending: true,
        },
    ];
    let hem = build_hem(&signals);
    let (rm, rp) = (Time::new(90), Time::new(90));
    let after = hem.process(rm, rp).expect("valid interval");
    assert_eq!(after.inners().len(), hem.inners().len());
    check_consistency(after.outer().as_ref(), 10).expect("outer consistent");
    for (i, inner) in after.inners().iter().enumerate() {
        check_consistency(inner.model.as_ref(), 10).expect("inner consistent");
        // Serialization floor (Def. 9 second term).
        for n in 2u64..8 {
            assert!(
                inner.model.delta_min(n) >= rm * (n as i64 - 1),
                "signal {i}: serialization floor violated at n = {n}"
            );
        }
        // Ψ_pa: unpack(i) = L(i).
        let unpacked = after.unpack(i).expect("in range");
        assert_eq!(unpacked.delta_min(4), inner.model.delta_min(4));
    }
    for (a, b) in hem.inners().iter().zip(after.inners()) {
        assert_eq!(&a.name, &b.name);
    }
}
