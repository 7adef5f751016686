//! The inner update function `B_Θτ,C_pa` (paper Def. 9).

use std::sync::Arc;

use hem_event_models::ops::OutputModel;
use hem_event_models::{AnalyticCurve, EventModel, ModelRef, PlusCombine};
use hem_time::{Time, TimeBound};

/// An inner stream adapted after the outer stream was processed by `Θ_τ`
/// with response times `[r⁻, r⁺]` (paper Def. 9), and bounded by the
/// frame's output stream `δ'_out = Θ_τ(F_out)`.
///
/// Two effects must be reflected into the embedded streams:
///
/// 1. the response-time jitter `r⁺ − r⁻` compresses minimum / stretches
///    maximum distances, exactly as for a flat stream;
/// 2. frames that arrived *simultaneously* at the resource serialize:
///    with up to `k` simultaneous outer events, a frame — and the signal
///    it carries — can be delayed by an extra `(k−1)·r⁻` behind its
///    peers.
///
/// Every inner event leaves the resource in a distinct outer event, so
/// any `n` inner events are `n` events of the output stream, and its
/// `δ'_out⁻` bounds them too (this repo's extension of Def. 9, see
/// `docs/THEORY.md` §3). `δ'_out⁻(n) ≥ (n−1)·r⁻`, so it also carries
/// the paper's serialization floor:
///
/// ```text
/// δ''ᵢ⁻(n) = max( δ'ᵢ⁻(n) − (r⁺−r⁻) − (k−1)·r⁻,  δ'_out⁻(n) )
/// δ''ᵢ⁺(n) = max( δ'ᵢ⁺(n) + (r⁺−r⁻) + (k−1)·r⁻,  δ''ᵢ⁻(n) )
/// ```
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use hem_core::InnerUpdated;
/// use hem_event_models::ops::OutputModel;
/// use hem_event_models::{EventModel, EventModelExt, StandardEventModel};
/// use hem_time::Time;
///
/// let inner = StandardEventModel::periodic(Time::new(250))?.shared();
/// // Two frames can be queued simultaneously; frame response [8, 40].
/// let frames = StandardEventModel::periodic_with_jitter(Time::new(250), Time::new(250))?;
/// let output = Arc::new(OutputModel::new(frames.shared(), Time::new(8), Time::new(40))?);
/// let updated = InnerUpdated::new(inner, output);
/// // 250 − 32 (jitter) − 8 (serialization behind one peer) = 210.
/// assert_eq!(updated.delta_min(2), Time::new(210));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct InnerUpdated {
    inner: ModelRef,
    output: Arc<OutputModel>,
    shift: Time,
}

impl InnerUpdated {
    /// Adapts `inner` to the frame's output stream `output`: the outer
    /// stream before processing (whose maximum number of simultaneous
    /// events is `k`) and the response times `[r⁻, r⁺]` come from it.
    #[must_use]
    pub fn new(inner: ModelRef, output: Arc<OutputModel>) -> Self {
        let k = output.input().max_simultaneous() as i64;
        let shift = output.response_jitter() + output.r_minus() * (k - 1);
        InnerUpdated {
            inner,
            output,
            shift,
        }
    }

    /// The total shift applied to distances:
    /// `(r⁺ − r⁻) + (k − 1)·r⁻`.
    #[must_use]
    pub fn shift(&self) -> Time {
        self.shift
    }
}

impl EventModel for InnerUpdated {
    fn delta_min(&self, n: u64) -> Time {
        if n <= 1 {
            return Time::ZERO;
        }
        (self.inner.delta_min(n) - self.shift).max(self.output.delta_min(n))
    }

    fn delta_plus(&self, n: u64) -> TimeBound {
        if n <= 1 {
            return TimeBound::ZERO;
        }
        // Keep δ⁺ ≥ δ⁻ even when the output-stream bound dominates (see
        // the analogous guard in `OutputModel::delta_plus`).
        (self.inner.delta_plus(n) + self.shift).max(self.delta_min(n).into())
    }

    fn analytic(&self) -> Option<AnalyticCurve> {
        // A pointwise max of the shifted inner curve and the output
        // stream's δ⁻ curve, with the δ⁺ side floored by the resulting
        // δ⁻ — exactly the `max_shifted` closed form.
        let inner = self.inner.analytic()?;
        let output = self.output.lower_curve()?;
        AnalyticCurve::max_shifted(
            &[(&inner, -self.shift), (output, Time::ZERO)],
            None,
            PlusCombine::Max {
                terms: &[(&inner, self.shift)],
                floor: None,
                include_min: true,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_event_models::{EventModelExt, PeriodicBurstModel, SporadicModel, StandardEventModel};

    fn periodic(p: i64) -> ModelRef {
        StandardEventModel::periodic(Time::new(p)).unwrap().shared()
    }

    fn jittered(p: i64, j: i64) -> ModelRef {
        StandardEventModel::periodic_with_jitter(Time::new(p), Time::new(j))
            .unwrap()
            .shared()
    }

    /// The output stream of `frames` processed with `[rm, rp]`.
    fn output(frames: ModelRef, rm: i64, rp: i64) -> Arc<OutputModel> {
        Arc::new(OutputModel::new(frames, Time::new(rm), Time::new(rp)).unwrap())
    }

    /// Period-`p` frames with up to `k` simultaneous arrivals (jitter
    /// `(k−1)·p`), processed with `[rm, rp]`.
    fn frames(p: i64, k: i64, rm: i64, rp: i64) -> Arc<OutputModel> {
        output(jittered(p, (k - 1) * p), rm, rp)
    }

    #[test]
    fn k1_reduces_to_plain_jitter_shift() {
        let u = InnerUpdated::new(periodic(250), frames(250, 1, 8, 40));
        assert_eq!(u.shift(), Time::new(32));
        assert_eq!(u.delta_min(2), Time::new(218));
        assert_eq!(u.delta_plus(2), TimeBound::finite(282));
    }

    #[test]
    fn serialization_penalty_grows_with_k() {
        let k1 = InnerUpdated::new(periodic(250), frames(250, 1, 8, 40));
        let k3 = InnerUpdated::new(periodic(250), frames(250, 3, 8, 40));
        assert_eq!(k3.shift(), Time::new(32 + 16));
        assert!(k3.delta_min(2) < k1.delta_min(2));
        assert!(k3.delta_plus(2) > k1.delta_plus(2));
    }

    #[test]
    fn floor_at_minimum_service_separation() {
        // A dense inner stream cannot be compressed below (n−1)·r⁻.
        let u = InnerUpdated::new(periodic(10), frames(10, 1, 15, 60));
        assert_eq!(u.delta_min(2), Time::new(15));
        assert_eq!(u.delta_min(5), Time::new(60));
    }

    #[test]
    fn output_stream_bounds_the_inner_update() {
        // The relay chain's source: up to k = 3 simultaneous frames, so
        // Def. 9 alone subtracts 162 + 2·63 from δ⁻; the output stream
        // subtracts only the jitter 162.
        let source = jittered(1_000, 2_500);
        let out = output(source.clone(), 63, 225);
        let u = InnerUpdated::new(source.clone(), out.clone());
        assert_eq!(u.shift(), Time::new(162 + 126));
        assert_eq!(source.delta_min(5) - u.shift(), Time::new(1_212));
        assert_eq!(u.delta_min(5), Time::new(1_338));
        for n in 0..=32u64 {
            assert_eq!(u.delta_min(n), out.delta_min(n), "δ⁻({n})");
        }
        // A burst whose increments are below r⁻: the output stream's
        // recursion is tighter than δ_out⁻(n) − (r⁺−r⁻) or (n−1)·r⁻.
        let burst = PeriodicBurstModel::new(Time::new(200), 2, Time::new(3))
            .unwrap()
            .shared();
        let u = InnerUpdated::new(burst.clone(), output(burst.clone(), 10, 10));
        assert_eq!(burst.delta_min(4), Time::new(203));
        assert_eq!(u.delta_min(4), Time::new(210));
    }

    #[test]
    fn infinite_delta_plus_preserved() {
        let sp = SporadicModel::new(Time::new(100)).unwrap().shared();
        let u = InnerUpdated::new(sp, frames(100, 2, 5, 20));
        assert_eq!(u.delta_plus(2), TimeBound::Infinite);
        assert!(u.delta_min(2) >= Time::new(5));
    }

    #[test]
    fn rejects_invalid_parameters() {
        // The response interval is checked where the output stream is
        // built; `k` is derived from the frames and is at least 1.
        assert!(OutputModel::new(periodic(100), Time::new(5), Time::new(1)).is_err());
        assert!(OutputModel::new(periodic(100), Time::new(-1), Time::new(1)).is_err());
        let sp = SporadicModel::new(Time::new(100)).unwrap().shared();
        let u = InnerUpdated::new(periodic(100), output(sp, 4, 10));
        assert_eq!(u.shift(), Time::new(6));
    }

    /// Asserts the analytic lift matches the generic model point-for-point
    /// over all five characteristic functions.
    fn assert_analytic_equiv(model: &dyn EventModel) {
        let a = model.analytic().expect("model should lift");
        for n in 0..=64u64 {
            assert_eq!(a.delta_min(n), model.delta_min(n), "δ⁻({n})");
            assert_eq!(a.delta_plus(n), model.delta_plus(n), "δ⁺({n})");
        }
        for t in (0..=2_000i64).step_by(37) {
            let dt = Time::new(t);
            assert_eq!(a.eta_plus(dt), model.eta_plus(dt), "η⁺({t})");
            assert_eq!(a.eta_minus(dt), model.eta_minus(dt), "η⁻({t})");
        }
        assert_eq!(a.max_simultaneous(), model.max_simultaneous());
    }

    #[test]
    fn analytic_lift_matches_generic() {
        // Jitter-dominated, floor-dominated, and mixed regimes.
        for (p, rm, rp, k) in [
            (250i64, 8i64, 40i64, 1i64),
            (250, 8, 40, 3),
            (10, 15, 60, 1),
            (100, 20, 20, 1),
            (100, 0, 350, 2),
        ] {
            let u = InnerUpdated::new(periodic(p), frames(p, k, rm, rp));
            assert_analytic_equiv(&u);
        }
        // Output-bounded: the frame's output stream dominates Def. 9 on
        // some or all n, including through its δ'⁻ recursion.
        let burst = PeriodicBurstModel::new(Time::new(200), 2, Time::new(3))
            .unwrap()
            .shared();
        for (inner, frames, rm, rp) in [
            (jittered(1_000, 2_500), jittered(1_000, 2_500), 63, 225),
            (periodic(1_000), jittered(500, 1_200), 40, 90),
            (jittered(300, 700), jittered(300, 700), 20, 20),
            (burst.clone(), burst, 10, 10),
        ] {
            let u = InnerUpdated::new(inner, output(frames, rm, rp));
            assert_analytic_equiv(&u);
        }
    }

    #[test]
    fn analytic_lift_of_sporadic_inner() {
        let sp = SporadicModel::new(Time::new(100)).unwrap().shared();
        let u = InnerUpdated::new(sp, frames(100, 2, 5, 20));
        assert_analytic_equiv(&u);
    }

    #[test]
    fn analytic_lift_with_jittery_inner() {
        let inner = StandardEventModel::new(Time::new(200), Time::new(500), Time::new(15))
            .unwrap()
            .shared();
        let u = InnerUpdated::new(inner, frames(200, 2, 10, 70));
        assert_analytic_equiv(&u);
    }

    #[test]
    fn zero_response_jitter_and_k1_is_identity_above_floor() {
        let inner = periodic(100);
        let u = InnerUpdated::new(inner.clone(), frames(100, 1, 20, 20));
        for n in 2..=8u64 {
            assert_eq!(u.delta_min(n), inner.delta_min(n));
            assert_eq!(u.delta_plus(n), inner.delta_plus(n));
        }
    }
}
