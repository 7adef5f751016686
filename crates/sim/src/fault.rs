//! Seeded, deterministic fault injection for the simulators.
//!
//! A [`FaultPlan`] is a composable list of [`Fault`]s plus a seed. The
//! simulation harness ([`crate::network::run_with_faults`]) consults the
//! plan at its physical injection points:
//!
//! * **frame corruption** — each transmission attempt of a matching CAN
//!   frame is independently corrupted; a corrupted attempt occupies the
//!   bus for the full wire time plus an error-frame overhead before the
//!   controller retransmits (Tindell's CAN fault model, bounded by
//!   `max_retransmissions`),
//! * **activation jitter** — external write/activation events are
//!   delayed by a uniformly sampled amount,
//! * **bus overload** — a babbling idiot queues rogue frames
//!   back-to-back during a window,
//! * **clock drift** — external event times are scaled by a ppm factor
//!   (a fast or slow local oscillator).
//!
//! Every random draw is derived from `(seed, fault index, entity name)`,
//! so a run is reproducible bit-for-bit and independent of iteration
//! order: the same plan injects the same faults into the same entities
//! no matter how the system around them changes.
//!
//! # Target naming
//!
//! [`FaultTarget::Named`] is matched against:
//!
//! * the **frame name** for [`Fault::FrameCorruption`],
//! * `"<frame>/<signal>"` for signal write traces and `"task:<name>"`
//!   for external task activation traces
//!   ([`Fault::ActivationJitter`], [`Fault::ClockDrift`]),
//! * the **bus name** for [`Fault::BusOverload`]: every bus answers to
//!   its own [`crate::network::NetFrame::bus`] name; no name is special.
//!
//! Only *external* event sources are perturbed; internally produced
//! events (deliveries, task completions) shift as a consequence of the
//! upstream faults, which is exactly how a real system degrades.
//!
//! # Conservative analysis margins
//!
//! For every physical fault the plan can also produce the matching
//! *analytic* margin, so a fault-injected simulation can be checked
//! against a fault-aware worst-case analysis:
//!
//! * [`FaultPlan::wire_time_bound`] — the classical retransmission bound
//!   `C' = (k+1)·C + k·E`,
//! * [`FaultPlan::jitter_bound`] — an upper bound on how far any event
//!   before a horizon can be displaced (jitter plus accumulated drift),
//!   suitable as extra input jitter on the analytic event model.

use hem_analysis::Priority;
use hem_time::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::canbus::QueuedFrame;

/// Selects which named entities a fault applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTarget {
    /// Every entity the fault kind can apply to.
    All,
    /// Exactly the entity with this name (see the module docs for the
    /// naming convention).
    Named(String),
}

impl FaultTarget {
    /// Whether this target selects `name`.
    #[must_use]
    pub fn matches(&self, name: &str) -> bool {
        match self {
            FaultTarget::All => true,
            FaultTarget::Named(n) => n == name,
        }
    }
}

/// One injectable fault.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Electromagnetic interference corrupting CAN transmissions.
    ///
    /// Each transmission attempt of a matching frame is corrupted with
    /// `probability`; a corrupted attempt occupies the bus for the
    /// attempt's wire time plus `error_frame` ticks (error flag +
    /// interframe space) and the controller retransmits automatically.
    /// At most `max_retransmissions` retransmissions happen per
    /// instance, matching the fault hypothesis `k` of the analytic bound
    /// `C' = (k+1)·C + k·E`.
    FrameCorruption {
        /// Which frames are hit.
        frame: FaultTarget,
        /// Per-attempt corruption probability in `[0, 1]`.
        probability: f64,
        /// Bus occupancy of one error frame (error flag, delimiter,
        /// interframe space), in ticks.
        error_frame: Time,
        /// Cap on retransmissions per frame instance (`k`).
        max_retransmissions: u32,
    },
    /// Release jitter on an external event trace: every event is delayed
    /// by an independent uniform draw from `[0, max_delay]`.
    ActivationJitter {
        /// Which traces are hit (see module docs for naming).
        target: FaultTarget,
        /// Largest injected delay.
        max_delay: Time,
    },
    /// Babbling-idiot overload: a rogue node queues a frame of
    /// `transmission_time` ticks every `period` ticks during
    /// `[from, until)`, competing in arbitration at `priority`.
    ///
    /// The rogue priority must not collide with a real frame on the same
    /// bus — the bus simulation rejects duplicate priorities.
    BusOverload {
        /// Which buses are flooded.
        bus: FaultTarget,
        /// Arbitration priority of the rogue frame (lower wins; a
        /// babbling idiot typically uses the highest).
        priority: Priority,
        /// Wire time of one rogue transmission.
        transmission_time: Time,
        /// Queueing period of the rogue frame.
        period: Time,
        /// Start of the overload window (inclusive).
        from: Time,
        /// End of the overload window (exclusive).
        until: Time,
    },
    /// Clock drift: event times of matching external traces are scaled
    /// by `1 + drift_ppm / 1_000_000` (positive = slow clock, events
    /// late; negative = fast clock, events early, clamped at 0).
    ClockDrift {
        /// Which traces are hit (see module docs for naming).
        target: FaultTarget,
        /// Drift in parts per million, `|drift_ppm| < 1_000_000`.
        drift_ppm: i64,
    },
}

/// A composable, seeded, deterministic set of faults to inject into a
/// simulation run.
///
/// # Examples
///
/// ```
/// use hem_sim::fault::{Fault, FaultPlan, FaultTarget};
/// use hem_time::Time;
///
/// let plan = FaultPlan::new(42).with(Fault::FrameCorruption {
///     frame: FaultTarget::All,
///     probability: 0.1,
///     error_frame: Time::new(31),
///     max_retransmissions: 2,
/// });
/// // Deterministic: the same plan produces the same effective wire
/// // times for the same frame.
/// let a = plan.wire_times("F", Time::new(95), 100);
/// let b = plan.wire_times("F", Time::new(95), 100);
/// assert_eq!(a, b);
/// // And every sample respects the analytic retransmission bound.
/// let bound = plan.wire_time_bound("F", Time::new(95));
/// assert!(a.iter().all(|&t| t <= bound));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Creates an empty plan with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// The fault-free plan; simulating under it is identical to the
    /// plain simulation entry points.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault to the plan.
    ///
    /// # Panics
    ///
    /// Panics on malformed fault parameters: a corruption probability
    /// outside `[0, 1]`, a negative error-frame overhead or delay, a
    /// non-positive overload period or transmission time, or a drift of
    /// a million ppm or more.
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        match &fault {
            Fault::FrameCorruption {
                probability,
                error_frame,
                ..
            } => {
                assert!(
                    (0.0..=1.0).contains(probability),
                    "corruption probability must be within [0, 1], got {probability}"
                );
                assert!(
                    !error_frame.is_negative(),
                    "error-frame overhead must be non-negative, got {error_frame}"
                );
            }
            Fault::ActivationJitter { max_delay, .. } => {
                assert!(
                    !max_delay.is_negative(),
                    "jitter delay must be non-negative, got {max_delay}"
                );
            }
            Fault::BusOverload {
                transmission_time,
                period,
                ..
            } => {
                assert!(
                    *transmission_time >= Time::ONE,
                    "overload transmission time must be positive, got {transmission_time}"
                );
                assert!(
                    *period >= Time::ONE,
                    "overload period must be positive, got {period}"
                );
            }
            Fault::ClockDrift { drift_ppm, .. } => {
                assert!(
                    drift_ppm.unsigned_abs() < 1_000_000,
                    "clock drift must be below a million ppm, got {drift_ppm}"
                );
            }
        }
        self.faults.push(fault);
        self
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The faults in injection order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// A generator derived from `(seed, fault index, entity name)`:
    /// deterministic and independent of the order entities are visited
    /// in by the simulators.
    fn entity_rng(&self, fault_index: usize, entity: &str) -> StdRng {
        // FNV-1a over the entity name, mixed with the fault index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in entity.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h = (h ^ (fault_index as u64)).wrapping_mul(0x0000_0100_0000_01b3);
        StdRng::seed_from_u64(self.seed ^ h)
    }

    /// Effective per-instance bus occupancy of `frame` under the plan's
    /// corruption faults: for each instance the number of corrupted
    /// attempts `r ≤ k` is sampled and the occupancy becomes
    /// `(r+1)·C + r·E`. Without a matching fault every entry is `base`.
    #[must_use]
    pub fn wire_times(&self, frame: &str, base: Time, instances: usize) -> Vec<Time> {
        let mut times = vec![base; instances];
        for (idx, fault) in self.faults.iter().enumerate() {
            let Fault::FrameCorruption {
                frame: target,
                probability,
                error_frame,
                max_retransmissions,
            } = fault
            else {
                continue;
            };
            if !target.matches(frame) {
                continue;
            }
            let mut rng = self.entity_rng(idx, frame);
            for t in &mut times {
                let mut retries: u32 = 0;
                while retries < *max_retransmissions && rng.gen_bool(*probability) {
                    retries += 1;
                }
                let r = i64::from(retries);
                *t = *t * (r + 1) + *error_frame * r;
            }
        }
        times
    }

    /// Upper bound on the per-instance bus occupancy of `frame`: the
    /// classical retransmission bound `C' = (k+1)·C + k·E`, composed
    /// over every matching corruption fault. Every sample produced by
    /// [`FaultPlan::wire_times`] is `≤` this bound.
    #[must_use]
    pub fn wire_time_bound(&self, frame: &str, base: Time) -> Time {
        let mut c = base;
        for fault in &self.faults {
            if let Fault::FrameCorruption {
                frame: target,
                error_frame,
                max_retransmissions,
                ..
            } = fault
            {
                if target.matches(frame) {
                    let k = i64::from(*max_retransmissions);
                    c = c * (k + 1) + *error_frame * k;
                }
            }
        }
        c
    }

    /// Applies the plan's clock-drift and activation-jitter faults to an
    /// external event trace. The result is sorted; events never move
    /// before time zero.
    #[must_use]
    pub fn perturb_trace(&self, target_name: &str, trace: &[Time]) -> Vec<Time> {
        let mut out: Vec<Time> = trace.to_vec();
        for (idx, fault) in self.faults.iter().enumerate() {
            match fault {
                Fault::ClockDrift { target, drift_ppm } if target.matches(target_name) => {
                    for t in &mut out {
                        let shift = Time::new(t.ticks() * drift_ppm / 1_000_000);
                        *t = (*t + shift).clamp_non_negative();
                    }
                }
                Fault::ActivationJitter { target, max_delay } if target.matches(target_name) => {
                    let mut rng = self.entity_rng(idx, target_name);
                    for t in &mut out {
                        *t += Time::new(rng.gen_range(0..=max_delay.ticks()));
                    }
                }
                _ => {}
            }
        }
        out.sort_unstable();
        out
    }

    /// Upper bound on how far [`FaultPlan::perturb_trace`] can displace
    /// any event that happens before `horizon`: the sum of the matching
    /// jitter delays plus the drift accumulated over the horizon.
    ///
    /// Adding this bound as extra input jitter to the analytic event
    /// model makes the analysis conservative for the faulted trace.
    #[must_use]
    pub fn jitter_bound(&self, target_name: &str, horizon: Time) -> Time {
        let mut j = Time::ZERO;
        for fault in &self.faults {
            match fault {
                Fault::ActivationJitter { target, max_delay } if target.matches(target_name) => {
                    j += *max_delay;
                }
                Fault::ClockDrift { target, drift_ppm } if target.matches(target_name) => {
                    let ppm = i64::try_from(drift_ppm.unsigned_abs()).expect("< 1e6");
                    j += Time::new((horizon.ticks() * ppm + 999_999) / 1_000_000);
                }
                _ => {}
            }
        }
        j
    }

    /// The rogue frames the plan's babbling idiots queue on `bus` before
    /// `horizon`, ready to append to the bus simulation input.
    #[must_use]
    pub fn overload_frames(&self, bus: &str, horizon: Time) -> Vec<QueuedFrame> {
        let mut rogues = Vec::new();
        for (idx, fault) in self.faults.iter().enumerate() {
            let Fault::BusOverload {
                bus: target,
                priority,
                transmission_time,
                period,
                from,
                until,
            } = fault
            else {
                continue;
            };
            if !target.matches(bus) {
                continue;
            }
            let mut queued_at = Vec::new();
            let mut t = *from;
            while t < *until && t < horizon {
                queued_at.push(t);
                t += *period;
            }
            rogues.push(QueuedFrame {
                name: format!("!babble{idx}"),
                priority: *priority,
                transmission_time: *transmission_time,
                queued_at,
            });
        }
        rogues
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corruption(p: f64, e: i64, k: u32) -> Fault {
        Fault::FrameCorruption {
            frame: FaultTarget::All,
            probability: p,
            error_frame: Time::new(e),
            max_retransmissions: k,
        }
    }

    #[test]
    fn empty_plan_is_identity() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(
            plan.wire_times("F", Time::new(95), 3),
            vec![Time::new(95); 3]
        );
        let trace = vec![Time::new(0), Time::new(10)];
        assert_eq!(plan.perturb_trace("task:t", &trace), trace);
        assert_eq!(plan.jitter_bound("task:t", Time::new(1_000)), Time::ZERO);
        assert!(plan.overload_frames("bus", Time::new(1_000)).is_empty());
    }

    #[test]
    fn wire_times_deterministic_and_bounded() {
        let plan = FaultPlan::new(7).with(corruption(0.3, 31, 3));
        let a = plan.wire_times("F", Time::new(95), 500);
        let b = plan.wire_times("F", Time::new(95), 500);
        assert_eq!(a, b);
        let bound = plan.wire_time_bound("F", Time::new(95));
        assert_eq!(bound, Time::new(4 * 95 + 3 * 31));
        assert!(a.iter().all(|&t| t >= Time::new(95) && t <= bound));
        // With p = 0.3 over 500 instances some corruption must occur.
        assert!(a.iter().any(|&t| t > Time::new(95)));
    }

    #[test]
    fn certain_corruption_hits_the_bound_exactly() {
        let plan = FaultPlan::new(1).with(corruption(1.0, 31, 2));
        let times = plan.wire_times("F", Time::new(100), 4);
        assert_eq!(times, vec![Time::new(3 * 100 + 2 * 31); 4]);
    }

    #[test]
    fn zero_probability_never_corrupts() {
        let plan = FaultPlan::new(1).with(corruption(0.0, 31, 5));
        assert_eq!(
            plan.wire_times("F", Time::new(50), 10),
            vec![Time::new(50); 10]
        );
    }

    #[test]
    fn named_target_spares_other_frames() {
        let plan = FaultPlan::new(3).with(Fault::FrameCorruption {
            frame: FaultTarget::Named("victim".into()),
            probability: 1.0,
            error_frame: Time::new(10),
            max_retransmissions: 1,
        });
        assert_eq!(
            plan.wire_times("other", Time::new(40), 2),
            vec![Time::new(40); 2]
        );
        assert_eq!(
            plan.wire_times("victim", Time::new(40), 1),
            vec![Time::new(90)]
        );
        assert_eq!(plan.wire_time_bound("other", Time::new(40)), Time::new(40));
    }

    #[test]
    fn jitter_delays_within_bound_and_sorted() {
        let plan = FaultPlan::new(11).with(Fault::ActivationJitter {
            target: FaultTarget::All,
            max_delay: Time::new(40),
        });
        let trace: Vec<Time> = (0..50).map(|i| Time::new(i * 100)).collect();
        let jittered = plan.perturb_trace("task:t", &trace);
        assert!(jittered.windows(2).all(|w| w[0] <= w[1]));
        // Each event delayed by [0, 40]; sorting keeps index alignment
        // here because 40 < the 100-tick spacing.
        for (orig, new) in trace.iter().zip(&jittered) {
            assert!(*new >= *orig && *new <= *orig + Time::new(40));
        }
        assert_eq!(plan.jitter_bound("task:t", Time::new(5_000)), Time::new(40));
        // Deterministic per (seed, target).
        assert_eq!(jittered, plan.perturb_trace("task:t", &trace));
        // A different target draws a different delay sequence.
        assert_ne!(jittered, plan.perturb_trace("task:u", &trace));
    }

    #[test]
    fn drift_scales_and_clamps() {
        let slow = FaultPlan::new(0).with(Fault::ClockDrift {
            target: FaultTarget::All,
            drift_ppm: 100_000, // +10 %
        });
        let trace = vec![Time::ZERO, Time::new(1_000), Time::new(2_000)];
        assert_eq!(
            slow.perturb_trace("x", &trace),
            vec![Time::ZERO, Time::new(1_100), Time::new(2_200)]
        );
        let fast = FaultPlan::new(0).with(Fault::ClockDrift {
            target: FaultTarget::All,
            drift_ppm: -100_000,
        });
        assert_eq!(
            fast.perturb_trace("x", &trace),
            vec![Time::ZERO, Time::new(900), Time::new(1_800)]
        );
        // Drift bound over a 10_000 horizon at 10 %: 1000 ticks.
        assert_eq!(slow.jitter_bound("x", Time::new(10_000)), Time::new(1_000));
        assert_eq!(fast.jitter_bound("x", Time::new(10_000)), Time::new(1_000));
    }

    #[test]
    fn overload_frames_cover_the_window() {
        let plan = FaultPlan::new(0).with(Fault::BusOverload {
            bus: FaultTarget::Named("bus0".into()),
            priority: Priority::new(0),
            transmission_time: Time::new(130),
            period: Time::new(150),
            from: Time::new(1_000),
            until: Time::new(2_000),
        });
        let rogues = plan.overload_frames("bus0", Time::new(50_000));
        assert_eq!(rogues.len(), 1);
        let r = &rogues[0];
        assert_eq!(r.priority, Priority::new(0));
        assert_eq!(r.queued_at.first(), Some(&Time::new(1_000)));
        assert!(r.queued_at.iter().all(|&t| t < Time::new(2_000)));
        assert_eq!(r.queued_at.len(), 7); // 1000, 1150, …, 1900
        assert!(plan.overload_frames("bus1", Time::new(50_000)).is_empty());
        // The horizon also cuts the window.
        let cut = plan.overload_frames("bus0", Time::new(1_300));
        assert_eq!(cut[0].queued_at.len(), 2);
    }

    #[test]
    fn faults_compose_in_order() {
        let plan = FaultPlan::new(9)
            .with(corruption(1.0, 10, 1))
            .with(corruption(1.0, 5, 1));
        // First fault: 2C + E = 2·50 + 10 = 110; second: 2·110 + 5 = 225.
        assert_eq!(plan.wire_times("F", Time::new(50), 1), vec![Time::new(225)]);
        assert_eq!(plan.wire_time_bound("F", Time::new(50)), Time::new(225));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_rejected() {
        let _ = FaultPlan::new(0).with(corruption(1.5, 10, 1));
    }

    #[test]
    #[should_panic(expected = "period")]
    fn invalid_overload_period_rejected() {
        let _ = FaultPlan::new(0).with(Fault::BusOverload {
            bus: FaultTarget::All,
            priority: Priority::new(0),
            transmission_time: Time::new(10),
            period: Time::ZERO,
            from: Time::ZERO,
            until: Time::new(100),
        });
    }

    #[test]
    #[should_panic(expected = "drift")]
    fn invalid_drift_rejected() {
        let _ = FaultPlan::new(0).with(Fault::ClockDrift {
            target: FaultTarget::All,
            drift_ppm: 1_000_000,
        });
    }
}
