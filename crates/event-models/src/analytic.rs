//! Closed-form analytic δ-curves: the memo-free fast path.
//!
//! An [`AnalyticCurve`] stores a δ-curve as a flat head array plus a
//! periodic extension — the same eventually-periodic shape as
//! [`CurveModel`], but with *separate* extension
//! strides for `δ⁻` and `δ⁺` (an OR of sporadic and periodic inputs has
//! different long-run rates on the two sides) and with every value
//! materialized eagerly by closed-form construction instead of lazily by
//! memoized recursion. Queries are O(1) array lookups (`δ±`) or a short
//! staircase inversion over O(1) lookups (`η±`); the query path touches
//! only the curve's own flat storage — no `Arc` hops, locks, or memo
//! tables.
//!
//! # Exactness contract
//!
//! Every constructor either returns a curve that is **bit-for-bit equal**
//! to the generic lazy evaluation it replaces — for all `n` and `Δt`, not
//! just the materialized head — or returns `None` so the caller falls
//! back to the generic path. Constructions derive the extension stride
//! from the input family, prove continuation by induction on the
//! defining recurrence, and additionally verify the extension against
//! direct evaluation for a full stride past the head; any mismatch or
//! any cap overrun refuses the lift. A fallback is never wrong, only
//! slower.
//!
//! The arrival functions are not stored: `η⁺`/`η⁻`/`max_simultaneous`
//! are answered by the exact inversions of [`convert`] running over the
//! O(1) δ lookups. By the Galois connection between δ and η (paper
//! eqs. (1)–(4)) these agree with the closed-form η overrides of the
//! source models, so a lifted curve is indistinguishable from its source
//! on all four functions.
//!
//! See `docs/CURVES.md` for the representation, the fallback taxonomy,
//! and how to force the generic path for debugging.

use hem_time::{div_ceil, Time, TimeBound};

use crate::{convert, CurveModel, EventModel, ModelRef};

/// Largest head (explicit per-`n` values) an analytic curve may store.
/// Constructions needing more refuse the lift.
const HEAD_CAP: u64 = 4096;

/// Largest extension stride (events per period).
const STRIDE_CAP: u64 = 1024;

/// Largest extension period in ticks.
const PERIOD_CAP: i64 = 1 << 42;

/// Largest burst size lifted eagerly (head construction is O(b²)).
const BURST_CAP: u64 = 256;

/// δ⁺ values at or beyond the [`convert::DT_HORIZON`] doubling horizon
/// are reported as `∞` by the generic η⁻ inversion; OR-combinations
/// refuse to lift rather than disagree near that boundary.
const PLUS_VALUE_CAP: i64 = convert::DT_HORIZON;

/// A δ-curve in closed form: flat heads plus periodic extensions.
///
/// `δ⁻(n)` is stored for `n ∈ [2, dmin.len() + 1]` and extended with
/// `(e⁻, Π⁻)`: beyond the head, `δ⁻(n) = δ⁻(n − k·e⁻) + k·Π⁻` for the
/// smallest `k` landing in the head. `δ⁺` has its own head and stride,
/// plus an optional `first_infinite_plus` marker after which `δ⁺ = ∞`.
///
/// Obtain one via [`EventModel::analytic`]; it is `Some` exactly for the
/// model families with a closed-form lift (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AnalyticCurve {
    /// `dmin[i]` is `δ⁻(i + 2)`.
    dmin: Box<[Time]>,
    dmin_events: u64,
    dmin_period: Time,
    /// `dplus[i]` is `δ⁺(i + 2)`; covers only the finite range when
    /// `first_infinite_plus` is set.
    dplus: Box<[Time]>,
    dplus_events: u64,
    dplus_period: Time,
    /// Smallest `n` with `δ⁺(n) = ∞`, if any. When set, `dplus` holds
    /// exactly the finite values `n ∈ [2, first_infinite_plus − 1]` and
    /// the δ⁺ extension is never consulted.
    first_infinite_plus: Option<u64>,
}

/// Looks up a head value with periodic extension (saturating, matching
/// [`CurveModel`]'s extension arithmetic).
fn extended(head: &[Time], e: u64, period: Time, n: u64) -> Time {
    let last_n = head.len() as u64 + 1; // head covers n ∈ [2, last_n]
    if n <= last_n {
        return head[(n - 2) as usize];
    }
    let k = (n - last_n).div_ceil(e);
    let idx = n - k * e; // ∈ [last_n − e + 1, last_n], ≥ 2 by construction
    head[(idx - 2) as usize].saturating_add(period.saturating_mul(k as i64))
}

impl AnalyticCurve {
    /// Validating constructor: refuses (returns `None`) on any violation
    /// of the curve invariants instead of producing a curve that could
    /// disagree with the generic path.
    #[allow(clippy::too_many_arguments)]
    fn from_parts(
        dmin: Vec<Time>,
        dmin_events: u64,
        dmin_period: Time,
        dplus: Vec<Time>,
        dplus_events: u64,
        dplus_period: Time,
        first_infinite_plus: Option<u64>,
    ) -> Option<Self> {
        if dmin.is_empty() || dmin.len() as u64 + 1 > HEAD_CAP {
            return None;
        }
        if dmin_events == 0 || dmin_events > STRIDE_CAP || (dmin.len() as u64) < dmin_events {
            return None;
        }
        if dmin_period < Time::ONE || dmin_period.ticks() > PERIOD_CAP {
            return None;
        }
        if !monotone_non_negative(&dmin) {
            return None;
        }
        match first_infinite_plus {
            Some(f) => {
                // Finite prefix must cover exactly n ∈ [2, f − 1].
                if f < 2 || dplus.len() as u64 != f - 2 {
                    return None;
                }
                if !monotone_non_negative(&dplus) {
                    return None;
                }
            }
            None => {
                if dplus.is_empty() || dplus.len() as u64 + 1 > HEAD_CAP {
                    return None;
                }
                if dplus_events == 0
                    || dplus_events > STRIDE_CAP
                    || (dplus.len() as u64) < dplus_events
                {
                    return None;
                }
                if dplus_period < Time::ONE || dplus_period.ticks() > PERIOD_CAP {
                    return None;
                }
                if !monotone_non_negative(&dplus) {
                    return None;
                }
                // Extension continues monotonically past the head.
                let last_n = dplus.len() as u64 + 1;
                if extended(&dplus, dplus_events, dplus_period, last_n + 1) < dplus[dplus.len() - 1]
                {
                    return None;
                }
            }
        }
        let last_n = dmin.len() as u64 + 1;
        if extended(&dmin, dmin_events, dmin_period, last_n + 1) < dmin[dmin.len() - 1] {
            return None;
        }
        let curve = AnalyticCurve {
            dmin: dmin.into_boxed_slice(),
            dmin_events,
            dmin_period,
            dplus: dplus.into_boxed_slice(),
            dplus_events,
            dplus_period,
            first_infinite_plus,
        };
        // δ⁻ ≤ δ⁺ over the comparable heads.
        let shared = curve.dmin.len().max(curve.dplus.len()) as u64 + 1;
        for n in 2..=shared {
            if TimeBound::from(curve.delta_min(n)) > curve.delta_plus(n) {
                return None;
            }
        }
        Some(curve)
    }

    /// The stored `δ⁻` head (values for `n = 2, 3, …`).
    #[must_use]
    pub fn delta_min_head(&self) -> &[Time] {
        &self.dmin
    }

    /// The stored finite `δ⁺` head (values for `n = 2, 3, …`).
    #[must_use]
    pub fn delta_plus_head(&self) -> &[Time] {
        &self.dplus
    }

    /// The `δ⁻` extension as `(events, ticks)`.
    #[must_use]
    pub fn delta_min_extension(&self) -> (u64, Time) {
        (self.dmin_events, self.dmin_period)
    }

    /// The `δ⁺` extension as `(events, ticks)`; meaningless when
    /// [`AnalyticCurve::first_infinite_plus`] is set.
    #[must_use]
    pub fn delta_plus_extension(&self) -> (u64, Time) {
        (self.dplus_events, self.dplus_period)
    }

    /// Smallest `n` with `δ⁺(n) = ∞`, if any.
    #[must_use]
    pub fn first_infinite_plus(&self) -> Option<u64> {
        self.first_infinite_plus
    }
}

fn monotone_non_negative(values: &[Time]) -> bool {
    let mut prev = Time::ZERO;
    for &v in values {
        if v < prev || v.is_negative() {
            return false;
        }
        prev = v;
    }
    true
}

impl EventModel for AnalyticCurve {
    fn delta_min(&self, n: u64) -> Time {
        if n <= 1 {
            return Time::ZERO;
        }
        extended(&self.dmin, self.dmin_events, self.dmin_period, n)
    }

    fn delta_plus(&self, n: u64) -> TimeBound {
        if n <= 1 {
            return TimeBound::ZERO;
        }
        if matches!(self.first_infinite_plus, Some(f) if n >= f) {
            return TimeBound::Infinite;
        }
        TimeBound::Finite(extended(
            &self.dplus,
            self.dplus_events,
            self.dplus_period,
            n,
        ))
    }

    // η±/max_simultaneous deliberately use the exact generic inversions:
    // every probe is an O(1) head lookup, so the staircase searches cost
    // tens of nanoseconds — and sharing the inversion code guarantees
    // bit-for-bit agreement with the derived-model defaults.

    fn analytic(&self) -> Option<AnalyticCurve> {
        Some(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Base families.
// ---------------------------------------------------------------------------

impl AnalyticCurve {
    /// Lift of [`StandardEventModel`](crate::StandardEventModel)
    /// `(P, J, d_min)`.
    ///
    /// `δ⁺(n) = (n−1)P + J` is periodic with `(1, P)` from `n = 2`.
    /// `δ⁻(n) = max((n−1)d, (n−1)P − J)` enters the pure-period branch
    /// once `(n−1)(P − d) ≥ J`, after which `δ⁻(n+1) = δ⁻(n) + P`
    /// forever; the head covers the jitter-clamped region exactly.
    pub(crate) fn periodic_jitter(period: Time, jitter: Time, dmin: Time) -> Option<Self> {
        let stable_n = if period == dmin || jitter <= Time::ZERO {
            // max(d(n−1), P(n−1) − J) = P(n−1) − min(J, 0)·… — with
            // d = P or J = 0 the period branch wins from n = 2.
            2
        } else {
            // Smallest n with (n − 1)(P − d) ≥ J.
            1 + div_ceil(jitter.ticks(), (period - dmin).ticks()).max(1) as u64
        };
        if stable_n > HEAD_CAP {
            return None;
        }
        let head: Vec<Time> = (2..=stable_n)
            .map(|n| {
                let n1 = n as i64 - 1;
                (dmin * n1).max(period * n1 - jitter).clamp_non_negative()
            })
            .collect();
        Self::from_parts(head, 1, period, vec![period + jitter], 1, period, None)
    }

    /// Lift of [`SporadicModel`](crate::SporadicModel): `δ⁻(n) = (n−1)d`,
    /// `δ⁺(n) = ∞` for `n ≥ 2`.
    pub(crate) fn sporadic(dmin: Time) -> Option<Self> {
        Self::from_parts(vec![dmin], 1, dmin, Vec::new(), 1, Time::ONE, Some(2))
    }

    /// Lift of [`PeriodicBurstModel`](crate::PeriodicBurstModel): both
    /// curves are exactly periodic with `(b, P)` (`span(o, n + b) =
    /// span(o, n) + P` for every offset), so a head of one stride is
    /// exact everywhere.
    pub(crate) fn periodic_burst(model: &crate::PeriodicBurstModel) -> Option<Self> {
        let b = model.burst();
        if b > BURST_CAP {
            return None;
        }
        let head_n = b + 1;
        let mut dmin = Vec::with_capacity(b as usize);
        let mut dplus = Vec::with_capacity(b as usize);
        for n in 2..=head_n {
            dmin.push(model.delta_min(n));
            match model.delta_plus(n) {
                TimeBound::Finite(v) => dplus.push(v),
                TimeBound::Infinite => return None,
            }
        }
        Self::from_parts(dmin, b, model.period(), dplus, b, model.period(), None)
    }

    /// Lift of an explicit [`CurveModel`]: the representation is already
    /// eventually periodic, so the lift is a verbatim copy of prefixes
    /// and extension.
    pub(crate) fn from_curve_model(curve: &CurveModel) -> Option<Self> {
        let (e, period) = curve.extension();
        let dmin = curve.delta_min_prefix().to_vec();
        let fip = curve
            .delta_plus_prefix()
            .iter()
            .position(|v| v.is_infinite())
            .map(|i| i as u64 + 2);
        let dplus: Vec<Time> = curve
            .delta_plus_prefix()
            .iter()
            .take_while(|v| !v.is_infinite())
            .map(|v| match v {
                TimeBound::Finite(t) => *t,
                TimeBound::Infinite => unreachable!("take_while stops at ∞"),
            })
            .collect();
        Self::from_parts(dmin, e, period, dplus, e, period, fip)
    }
}

// ---------------------------------------------------------------------------
// Max-combination machinery (AND, shaper, inner update, pending, δ⁺ sides).
// ---------------------------------------------------------------------------

/// One term of a pointwise max-combination: an eventually periodic
/// integer sequence over `n ≥ 2`.
#[derive(Clone, Copy)]
enum Term<'a> {
    /// `head[i] = f(i + 2)` with extension `(e, Π)`, plus a constant
    /// offset (used for `± shift` in the inner update and pending
    /// combinations; the offset may be negative).
    Curve {
        head: &'a [Time],
        e: u64,
        period: Time,
        offset: Time,
    },
    /// The affine floor `(n − 1) · d` (exact rate `d` from `n = 2`;
    /// `d = 0` doubles as the non-negativity floor).
    Affine(Time),
}

impl Term<'_> {
    fn value(&self, n: u64) -> i64 {
        match *self {
            Term::Curve {
                head,
                e,
                period,
                offset,
            } => extended(head, e, period, n).ticks() + offset.ticks(),
            Term::Affine(d) => d.ticks() * (n as i64 - 1),
        }
    }

    /// Long-run rate as the fraction `num / den` (ticks per event).
    fn rate(&self) -> (i64, u64) {
        match *self {
            Term::Curve { e, period, .. } => (period.ticks(), e),
            Term::Affine(d) => (d.ticks(), 1),
        }
    }

    /// First `n` from which `f(n + e) = f(n) + Π` holds (the head's
    /// periodicity onset).
    fn onset(&self) -> u64 {
        match *self {
            Term::Curve { head, e, .. } => (head.len() as u64 + 1).saturating_sub(e - 1).max(2),
            Term::Affine(_) => 2,
        }
    }

    fn stride_events(&self) -> u64 {
        match *self {
            Term::Curve { e, .. } => e,
            Term::Affine(_) => 1,
        }
    }

    /// `max` over one stride of the scaled offset `e·f(n) − Π·n`; by
    /// periodicity this is the exact supremum for all `n ≥ onset`.
    fn scaled_sup(&self) -> i128 {
        let (num, den) = self.rate();
        let (num, den) = (num as i128, den as i128);
        let onset = self.onset();
        (onset..onset + self.stride_events())
            .map(|n| den * self.value(n) as i128 - num * n as i128)
            .max()
            .expect("stride ≥ 1")
    }
}

fn rate_cmp(a: (i64, u64), b: (i64, u64)) -> std::cmp::Ordering {
    (a.0 as i128 * b.1 as i128).cmp(&(b.0 as i128 * a.1 as i128))
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm_capped(a: u64, b: u64, cap: u64) -> Option<u64> {
    let g = gcd(a, b);
    let l = (a / g).checked_mul(b)?;
    (l <= cap).then_some(l)
}

fn floor_div(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    let q = a / b;
    if a % b != 0 && a < 0 {
        q - 1
    } else {
        q
    }
}

/// Pointwise max of the terms (always floored at zero), returned as an
/// eventually periodic head `(values for n ∈ [2, N], e, Π)`.
///
/// The stride is taken from the maximum-rate terms; slower terms are
/// proven to stay below the dominant composite past an exactly computed
/// crossover (affine bounds from the periodic scaled offsets), so the
/// extension is exact for every `n > N` — not merely spot-checked. A
/// defensive one-stride verification against direct evaluation guards
/// the implementation itself.
fn max_combine(terms: &[Term<'_>]) -> Option<(Vec<Time>, u64, Time)> {
    if terms.is_empty() {
        return None;
    }
    let max_rate = terms
        .iter()
        .map(Term::rate)
        .max_by(|a, b| rate_cmp(*a, *b))?;
    if max_rate.0 <= 0 {
        return None; // no positive long-run rate — cannot extend
    }
    let dominant: Vec<&Term<'_>> = terms
        .iter()
        .filter(|t| rate_cmp(t.rate(), max_rate) == std::cmp::Ordering::Equal)
        .collect();
    let mut e = 1u64;
    for t in &dominant {
        e = lcm_capped(e, t.stride_events(), STRIDE_CAP)?;
    }
    let (num, den) = dominant[0].rate();
    let period_ticks = num.checked_mul((e / den) as i64)?;
    if !(1..=PERIOD_CAP).contains(&period_ticks) {
        return None;
    }
    // Dominant composite g(n) = max over dominant terms: exactly
    // (e, Π)-periodic from the latest dominant onset.
    let onset_d = dominant.iter().map(|t| t.onset()).max().expect("non-empty");
    let g = |n: u64| -> i64 {
        dominant
            .iter()
            .map(|t| t.value(n))
            .max()
            .expect("non-empty")
    };
    let b_inf: i128 = (onset_d..onset_d + e)
        .map(|n| e as i128 * g(n) as i128 - period_ticks as i128 * n as i128)
        .min()
        .expect("stride ≥ 1");
    // Crossover for each strictly slower term (the implicit zero floor
    // is one of them): past n*, the dominant lower bound exceeds the
    // term's upper bound.
    let mut cross = 0u64;
    let mut onset_all = onset_d;
    let floor = Term::Affine(Time::ZERO);
    for t in terms.iter().chain(std::iter::once(&floor)) {
        onset_all = onset_all.max(t.onset());
        if rate_cmp(t.rate(), max_rate) == std::cmp::Ordering::Equal {
            continue;
        }
        let (tn, td) = t.rate();
        let denom = period_ticks as i128 * td as i128 - tn as i128 * e as i128;
        debug_assert!(denom > 0);
        let numer = t.scaled_sup() * e as i128 - b_inf * td as i128;
        let n_star = floor_div(numer, denom) + 1;
        if n_star > HEAD_CAP as i128 {
            return None;
        }
        cross = cross.max(n_star.max(0) as u64);
    }
    let head_n = (onset_d + e)
        .max(cross + e)
        .max(onset_all)
        .max(e + 1)
        .max(3);
    if head_n > HEAD_CAP {
        return None;
    }
    let direct = |n: u64| -> i64 {
        terms
            .iter()
            .map(|t| t.value(n))
            .max()
            .expect("non-empty")
            .max(0)
    };
    let head: Vec<Time> = (2..=head_n).map(|n| Time::new(direct(n))).collect();
    let period = Time::new(period_ticks);
    // Defensive: the extension must reproduce direct evaluation for a
    // full stride past the head.
    for n in head_n + 1..=head_n + e {
        if extended(&head, e, period, n) != Time::new(direct(n)) {
            return None;
        }
    }
    Some((head, e, period))
}

/// How the `δ⁺` side of [`AnalyticCurve::max_shifted`] is formed.
pub enum PlusCombine<'a> {
    /// `δ⁺(n) = ∞` for all `n ≥ 2` (pending-signal inner streams,
    /// paper eq. (8)).
    Infinite,
    /// Pointwise max of shifted `δ⁺` terms, an optional affine floor
    /// `(n − 1)·d`, and optionally the combination's own `δ⁻` (the
    /// `max(…, δ'⁻)` consistency floor of derived models).
    Max {
        /// `(curve, offset)` pairs: each contributes `δ⁺(n) + offset`.
        terms: &'a [(&'a AnalyticCurve, Time)],
        /// Optional affine floor `(n − 1)·d`.
        floor: Option<Time>,
        /// Also floor by the combined `δ⁻`.
        include_min: bool,
    },
}

impl AnalyticCurve {
    /// Exact lift of pointwise-max derivations:
    /// `δ⁻(n) = max(maxᵢ (cᵢ.δ⁻(n) + oᵢ), (n−1)·floor, 0)` with the
    /// `δ⁺` side given by `plus`.
    ///
    /// This is the shared closed form behind AND-joins, d_min shapers,
    /// the HEM inner update (Def. 9) and pending-signal streams
    /// (eqs. (7),(8)): each is a pointwise max of shifted child curves
    /// and affine floors. Returns `None` (fall back to the generic
    /// path) when the combination has no positive rate, overruns the
    /// head caps, or fails the defensive extension verification.
    #[must_use]
    pub fn max_shifted(
        min_terms: &[(&AnalyticCurve, Time)],
        min_floor: Option<Time>,
        plus: PlusCombine<'_>,
    ) -> Option<AnalyticCurve> {
        if min_terms.is_empty() {
            return None;
        }
        let mut terms: Vec<Term<'_>> = min_terms
            .iter()
            .map(|(c, offset)| Term::Curve {
                head: &c.dmin,
                e: c.dmin_events,
                period: c.dmin_period,
                offset: *offset,
            })
            .collect();
        if let Some(d) = min_floor {
            if d.is_negative() {
                return None;
            }
            terms.push(Term::Affine(d));
        }
        let (min_head, min_e, min_period) = max_combine(&terms)?;
        let (plus_head, plus_e, plus_period, fip) = match plus {
            PlusCombine::Infinite => (Vec::new(), 1, Time::ONE, Some(2)),
            PlusCombine::Max {
                terms: plus_terms,
                floor,
                include_min,
            } => {
                let fip = plus_terms
                    .iter()
                    .filter_map(|(c, _)| c.first_infinite_plus)
                    .min();
                match fip {
                    Some(f) => {
                        // Finite only on n ∈ [2, f − 1]: materialize the
                        // pointwise max there; no extension needed.
                        let direct = |n: u64| -> Option<i64> {
                            let mut best = 0i64;
                            for (c, offset) in plus_terms {
                                match c.delta_plus(n) {
                                    TimeBound::Finite(v) => {
                                        best = best.max(v.ticks() + offset.ticks());
                                    }
                                    TimeBound::Infinite => return None,
                                }
                            }
                            if let Some(d) = floor {
                                best = best.max(d.ticks() * (n as i64 - 1));
                            }
                            if include_min {
                                best = best.max(extended(&min_head, min_e, min_period, n).ticks());
                            }
                            Some(best)
                        };
                        let mut head = Vec::with_capacity((f - 2) as usize);
                        for n in 2..f {
                            head.push(Time::new(direct(n)?));
                        }
                        (head, 1, Time::ONE, Some(f))
                    }
                    None => {
                        let mut terms: Vec<Term<'_>> = plus_terms
                            .iter()
                            .map(|(c, offset)| Term::Curve {
                                head: &c.dplus,
                                e: c.dplus_events,
                                period: c.dplus_period,
                                offset: *offset,
                            })
                            .collect();
                        if let Some(d) = floor {
                            if d.is_negative() {
                                return None;
                            }
                            terms.push(Term::Affine(d));
                        }
                        if include_min {
                            terms.push(Term::Curve {
                                head: &min_head,
                                e: min_e,
                                period: min_period,
                                offset: Time::ZERO,
                            });
                        }
                        let (h, e, p) = max_combine(&terms)?;
                        (h, e, p, None)
                    }
                }
            }
        };
        Self::from_parts(
            min_head,
            min_e,
            min_period,
            plus_head,
            plus_e,
            plus_period,
            fip,
        )
    }

    /// Lift of [`ops::AndJoin`](crate::ops::AndJoin): `δ±(n) = maxᵢ δᵢ±(n)`.
    pub(crate) fn and_join(children: &[AnalyticCurve]) -> Option<AnalyticCurve> {
        let refs: Vec<(&AnalyticCurve, Time)> = children.iter().map(|c| (c, Time::ZERO)).collect();
        AnalyticCurve::max_shifted(
            &refs,
            None,
            PlusCombine::Max {
                terms: &refs,
                floor: None,
                include_min: false,
            },
        )
    }

    /// Lift of [`ops::DminShaper`](crate::ops::DminShaper):
    /// `δ'∓(n) = max(δ∓(n), (n−1)·d)`.
    pub(crate) fn shaped(&self, dmin: Time) -> Option<AnalyticCurve> {
        let refs = [(self, Time::ZERO)];
        AnalyticCurve::max_shifted(
            &refs,
            Some(dmin),
            PlusCombine::Max {
                terms: &refs,
                floor: Some(dmin),
                include_min: false,
            },
        )
    }
}

// ---------------------------------------------------------------------------
// OR-combination: k-way merge of the children's δ staircases.
// ---------------------------------------------------------------------------

/// Infinite nondecreasing value stream `δ(2), δ(3), …` of one child.
struct Stream<'a> {
    head: &'a [Time],
    e: u64,
    period: Time,
    next_n: u64,
    /// Stop after this many values (`u64::MAX` = never): finite δ⁺
    /// streams of eventually-sporadic children.
    remaining: u64,
    /// Memoized `extended(head, e, period, next_n)` — the merge peeks
    /// every stream once per emitted value, so recomputing the
    /// extension each time would dominate lift construction.
    cur: Option<i64>,
}

impl<'a> Stream<'a> {
    fn new(head: &'a [Time], e: u64, period: Time, remaining: u64) -> Self {
        let mut s = Stream {
            head,
            e,
            period,
            next_n: 2,
            remaining,
            cur: None,
        };
        s.refresh();
        s
    }

    fn refresh(&mut self) {
        self.cur = (self.remaining > 0)
            .then(|| extended(self.head, self.e, self.period, self.next_n).ticks());
    }

    fn peek(&self) -> Option<i64> {
        self.cur
    }

    fn pop(&mut self) {
        self.next_n += 1;
        self.remaining -= 1;
        self.refresh();
    }
}

/// Merges the streams in sorted order until `target` values are emitted
/// or every stream is exhausted. Values above `value_cap` abort (`None`).
fn merge_streams(streams: &mut [Stream<'_>], target: u64, value_cap: i64) -> Option<Vec<i64>> {
    let mut out = Vec::with_capacity(target as usize);
    while (out.len() as u64) < target {
        let mut best: Option<(usize, i64)> = None;
        for (i, s) in streams.iter().enumerate() {
            if let Some(v) = s.peek() {
                if best.is_none_or(|(_, bv)| v < bv) {
                    best = Some((i, v));
                }
            }
        }
        match best {
            Some((i, v)) => {
                if v > value_cap {
                    return None;
                }
                streams[i].pop();
                out.push(v);
            }
            None => break, // all exhausted (finite δ⁺ merge)
        }
    }
    Some(out)
}

/// Merges until `extra` values have been emitted from (and including)
/// the first value strictly above `onset_value`, bounded by `budget`.
/// Returns the merged prefix plus the onset index, or `None` when a
/// value exceeds `value_cap` or the onset was not reached in budget —
/// lift construction is on the hot path, so the merge must stop as
/// soon as the periodic tail is confirmed rather than filling the full
/// head cap.
fn merge_past_onset(
    streams: &mut [Stream<'_>],
    onset_value: i64,
    extra: u64,
    budget: u64,
    value_cap: i64,
) -> Option<(Vec<i64>, usize)> {
    let mut out: Vec<i64> = Vec::new();
    let mut idx_t: Option<usize> = None;
    while (out.len() as u64) < budget {
        let mut best: Option<(usize, i64)> = None;
        for (i, s) in streams.iter().enumerate() {
            if let Some(v) = s.peek() {
                if best.is_none_or(|(_, bv)| v < bv) {
                    best = Some((i, v));
                }
            }
        }
        let Some((i, v)) = best else {
            return None; // exhausted before the periodic tail
        };
        if v > value_cap {
            return None;
        }
        streams[i].pop();
        if idx_t.is_none() && v > onset_value {
            idx_t = Some(out.len());
        }
        out.push(v);
        if let Some(t) = idx_t {
            if out.len() as u64 >= t as u64 + extra {
                return Some((out, t));
            }
        }
    }
    None // budget exhausted before a full periodic stride
}

impl AnalyticCurve {
    /// Lift of [`ops::OrJoin`](crate::ops::OrJoin) (paper eqs. (3),(4)).
    ///
    /// The paper recovers the combined δ from the summed η; since
    /// `η⁺(Δt) − N = #{(i, m ≥ 2) : δᵢ⁻(m) < Δt}` and
    /// `η⁻(Δt) = #{(i, m ≥ 2) : δᵢ⁺(m) ≤ Δt}`, inverting the sums is
    /// exactly order-statistics selection on the merged per-child value
    /// streams: `δ⁻(n)` is the `(n − N)`-th smallest merged `δ⁻` value
    /// and `δ⁺(n)` the `(n − 1)`-th smallest merged `δ⁺` value. The
    /// merged stream repeats with `E = Σᵢ eᵢ·L/Πᵢ` events per
    /// `L = lcm(Πᵢ)` ticks once every child is past its head, which
    /// gives the extension.
    pub(crate) fn or_join(children: &[AnalyticCurve]) -> Option<AnalyticCurve> {
        if children.is_empty() {
            return None;
        }
        let n_children = children.len() as u64;

        // δ⁻ side: all streams are infinite.
        let mut l = 1u64;
        for c in children {
            l = lcm_capped(l, c.dmin_period.ticks() as u64, PERIOD_CAP as u64)?;
        }
        let mut e_total = 0u64;
        for c in children {
            e_total = e_total.checked_add(
                c.dmin_events
                    .checked_mul(l / c.dmin_period.ticks() as u64)?,
            )?;
        }
        if e_total == 0 || e_total > STRIDE_CAP {
            return None;
        }
        // All children are in their periodic extension for values above
        // the largest head-tail value; the merged pattern then repeats
        // (+L every E values).
        let onset_value = children
            .iter()
            .map(|c| c.dmin[c.dmin.len() - 1].ticks())
            .max()
            .expect("non-empty");
        let mut streams: Vec<Stream<'_>> = children
            .iter()
            .map(|c| Stream::new(&c.dmin, c.dmin_events, c.dmin_period, u64::MAX))
            .collect();
        let budget = HEAD_CAP.saturating_sub(n_children);
        let (merged, idx_t) =
            merge_past_onset(&mut streams, onset_value, e_total + 1, budget, i64::MAX)?;
        let merged = &merged[..];
        // Past the onset every child is in its pure periodic extension,
        // so the merged multiset over one `L`-window repeats exactly —
        // one period of head suffices. Verify the wraparound pair as a
        // defensive spot check (a full second period would only re-prove
        // the theorem at double the merge cost).
        debug_assert_eq!(merged.len(), idx_t + e_total as usize + 1);
        if merged[idx_t + e_total as usize] != merged[idx_t] + l as i64 {
            debug_assert!(
                false,
                "merged δ⁻ tail failed to repeat with (+{l} per {e_total})"
            );
            return None;
        }
        // δ⁻(n) = 0 for n ≤ N (the streams may fire simultaneously),
        // then the merged order statistics.
        let mut dmin = Vec::with_capacity((n_children - 1) as usize + merged.len());
        dmin.extend((2..=n_children).map(|_| Time::ZERO));
        dmin.extend(merged.iter().map(|&v| Time::new(v)));

        // δ⁺ side: children that go sporadic contribute finitely many
        // values; the long-run stride comes from the others.
        let finite_counts: Vec<u64> = children
            .iter()
            .map(|c| match c.first_infinite_plus {
                Some(f) => f - 2,
                None => u64::MAX,
            })
            .collect();
        let persistent: Vec<&AnalyticCurve> = children
            .iter()
            .zip(&finite_counts)
            .filter(|(_, &cnt)| cnt == u64::MAX)
            .map(|(c, _)| c)
            .collect();
        let mut pstreams: Vec<Stream<'_>> = children
            .iter()
            .zip(&finite_counts)
            .map(|(c, &cnt)| Stream::new(&c.dplus, c.dplus_events, c.dplus_period, cnt))
            .collect();
        let (dplus, plus_e, plus_period, fip) = if persistent.is_empty() {
            // Every child goes sporadic: finitely many finite values.
            let total: u64 = finite_counts.iter().sum();
            if total + 2 > HEAD_CAP {
                return None;
            }
            let merged = merge_streams(&mut pstreams, total, PLUS_VALUE_CAP)?;
            debug_assert_eq!(merged.len() as u64, total);
            let dplus: Vec<Time> = merged.into_iter().map(Time::new).collect();
            (dplus, 1, Time::ONE, Some(total + 2))
        } else {
            let mut lp = 1u64;
            for c in &persistent {
                lp = lcm_capped(lp, c.dplus_period.ticks() as u64, PERIOD_CAP as u64)?;
            }
            let mut ep = 0u64;
            for c in &persistent {
                ep = ep.checked_add(
                    c.dplus_events
                        .checked_mul(lp / c.dplus_period.ticks() as u64)?,
                )?;
            }
            if ep == 0 || ep > STRIDE_CAP {
                return None;
            }
            // Periodicity starts once the persistent children are past
            // their heads and the sporadic children are exhausted.
            let mut onset_value = persistent
                .iter()
                .map(|c| c.dplus[c.dplus.len() - 1].ticks())
                .max()
                .expect("non-empty");
            for (c, &cnt) in children.iter().zip(&finite_counts) {
                if cnt != u64::MAX && cnt > 0 {
                    onset_value = onset_value.max(c.dplus[c.dplus.len() - 1].ticks());
                }
            }
            let (merged, idx_t) =
                merge_past_onset(&mut pstreams, onset_value, ep + 1, HEAD_CAP, PLUS_VALUE_CAP)?;
            // Same single-period argument as the δ⁻ side.
            if merged[idx_t + ep as usize] != merged[idx_t] + lp as i64 {
                debug_assert!(
                    false,
                    "merged δ⁺ tail failed to repeat with (+{lp} per {ep})"
                );
                return None;
            }
            let dplus: Vec<Time> = merged.iter().map(|&v| Time::new(v)).collect();
            (dplus, ep, Time::new(lp as i64), None)
        };
        Self::from_parts(
            dmin,
            e_total,
            Time::new(l as i64),
            dplus,
            plus_e,
            plus_period,
            fip,
        )
    }
}

// ---------------------------------------------------------------------------
// Output-stream calculation Θ_τ (max-plus serialization filter).
// ---------------------------------------------------------------------------

impl AnalyticCurve {
    /// Lift of [`ops::OutputModel`](crate::ops::OutputModel):
    /// `δ'⁻(n) = max(δ⁻(n) − (r⁺−r⁻), δ'⁻(n−1) + r⁻)` and
    /// `δ'⁺(n) = max(δ⁺(n) + (r⁺−r⁻), δ'⁻(n))`.
    ///
    /// The recursion is run explicitly over the head (identical to the
    /// generic memoized recursion, with O(1) input lookups). Its tail is
    /// periodic with the input's stride when the input rate sustains
    /// `r⁻` — proven by induction from a single verified base point —
    /// and with `(1, r⁻)` when the serialization floor dominates, proven
    /// past an exact affine crossover.
    pub(crate) fn output(&self, r_minus: Time, r_plus: Time) -> Option<AnalyticCurve> {
        if r_minus.is_negative() || r_minus > r_plus {
            return None;
        }
        let jit = (r_plus - r_minus).ticks();
        let input_rate = (self.dmin_period.ticks(), self.dmin_events);
        let onset = (self.dmin.len() as u64 + 1)
            .saturating_sub(self.dmin_events - 1)
            .max(2);
        // x[n] = δ'⁻(n), computed by the exact recursion (x ≥ 0 always:
        // x(1) = 0 and r⁻ ≥ 0 keep the clamp vacuous).
        let mut x = vec![0i64; 2];
        let grow_to = |x: &mut Vec<i64>, n: u64| {
            while (x.len() as u64) <= n {
                let k = x.len() as u64;
                let prev = x[x.len() - 1];
                let v = (self.delta_min(k).ticks() - jit)
                    .max(prev + r_minus.ticks())
                    .max(0);
                x.push(v);
            }
        };
        let (head_n, e, period) =
            if rate_cmp(input_rate, (r_minus.ticks(), 1)) != std::cmp::Ordering::Less {
                // Input at least as fast-growing as the floor: the tail
                // follows the input stride. Find a base point n₀ ≥ onset
                // with x(n₀+e) = x(n₀) + Π; induction then gives
                // x(n+e) = x(n) + Π for all n ≥ n₀.
                let e = self.dmin_events;
                let pi = self.dmin_period.ticks();
                let mut base = None;
                for n in onset..HEAD_CAP.saturating_sub(e) {
                    grow_to(&mut x, n + e);
                    if x[(n + e) as usize] == x[n as usize] + pi {
                        base = Some(n);
                        break;
                    }
                }
                let n0 = base?;
                (n0 + e, e, self.dmin_period)
            } else {
                // Floor dominates (r⁻ > input rate, so r⁻ ≥ 1): once the
                // input's affine upper bound stays below the floor's path,
                // x(n+1) = x(n) + r⁻ forever.
                let sup = Term::Curve {
                    head: &self.dmin,
                    e: self.dmin_events,
                    period: self.dmin_period,
                    offset: Time::ZERO,
                }
                .scaled_sup();
                let (pi, e_in) = (input_rate.0 as i128, input_rate.1 as i128);
                let mut base = None;
                for n in onset..HEAD_CAP {
                    grow_to(&mut x, n);
                    // e·(x(n) + r⁻ + jit) ≥ A + Π·(n+1) ⇒ every later input
                    // value arrives before the serialization floor.
                    if e_in * (x[n as usize] + r_minus.ticks() + jit) as i128
                        >= sup + pi * (n as i128 + 1)
                    {
                        base = Some(n);
                        break;
                    }
                }
                let n0 = base?;
                (n0 + 1, 1, r_minus)
            };
        grow_to(&mut x, head_n + 2 * e);
        let min_head: Vec<Time> = (2..=head_n).map(|n| Time::new(x[n as usize])).collect();
        // Defensive: extension must reproduce the recursion for two
        // strides past the head.
        for n in head_n + 1..=head_n + 2 * e {
            if extended(&min_head, e, period, n).ticks() != x[n as usize] {
                return None;
            }
        }
        // δ⁺ side: the input's δ⁺ shifted by the response jitter, floored
        // by the freshly computed δ'⁻ (the consistency floor of the
        // generic operation).
        let (plus_head, plus_e, plus_period, fip) = match self.first_infinite_plus {
            Some(f) => {
                let mut head = Vec::with_capacity((f - 2) as usize);
                for n in 2..f {
                    let inp = match self.delta_plus(n) {
                        TimeBound::Finite(v) => v.ticks() + jit,
                        TimeBound::Infinite => return None,
                    };
                    head.push(Time::new(
                        inp.max(extended(&min_head, e, period, n).ticks()),
                    ));
                }
                (head, 1, Time::ONE, Some(f))
            }
            None => {
                let terms = [
                    Term::Curve {
                        head: &self.dplus,
                        e: self.dplus_events,
                        period: self.dplus_period,
                        offset: Time::new(jit),
                    },
                    Term::Curve {
                        head: &min_head,
                        e,
                        period,
                        offset: Time::ZERO,
                    },
                ];
                let (h, pe, pp) = max_combine(&terms)?;
                (h, pe, pp, None)
            }
        };
        Self::from_parts(min_head, e, period, plus_head, plus_e, plus_period, fip)
    }
}

/// Lifts a shared model handle, if its concrete type supports it.
///
/// Convenience wrapper over [`EventModel::analytic`] for call sites
/// holding a [`ModelRef`].
#[must_use]
pub fn lift(model: &ModelRef) -> Option<AnalyticCurve> {
    model.analytic()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{AndJoin, DminShaper, OrJoin, OutputModel};
    use crate::{EventModelExt, PeriodicBurstModel, SporadicModel, StandardEventModel};

    fn assert_equiv(analytic: &AnalyticCurve, generic: &dyn EventModel, n_max: u64, dt_max: i64) {
        for n in 0..=n_max {
            assert_eq!(analytic.delta_min(n), generic.delta_min(n), "δ⁻({n})");
            assert_eq!(analytic.delta_plus(n), generic.delta_plus(n), "δ⁺({n})");
        }
        for dt in 0..=dt_max {
            let dt = Time::new(dt);
            assert_eq!(analytic.eta_plus(dt), generic.eta_plus(dt), "η⁺({dt})");
            assert_eq!(analytic.eta_minus(dt), generic.eta_minus(dt), "η⁻({dt})");
        }
        assert_eq!(analytic.max_simultaneous(), generic.max_simultaneous());
    }

    #[test]
    fn sem_lift_is_exact() {
        for (p, j, d) in [
            (250, 0, 0),
            (100, 30, 0),
            (100, 250, 10),
            (7, 13, 3),
            (1, 0, 0),
            (400, 399, 1),
            (10, 10, 10),
        ] {
            let m = StandardEventModel::new(Time::new(p), Time::new(j), Time::new(d)).unwrap();
            let a = m.analytic().expect("SEM lifts");
            assert_equiv(&a, &m, 64, 1_500);
        }
    }

    #[test]
    fn sporadic_lift_is_exact() {
        let m = SporadicModel::new(Time::new(50)).unwrap();
        let a = m.analytic().expect("sporadic lifts");
        assert_equiv(&a, &m, 40, 800);
        assert_eq!(a.first_infinite_plus(), Some(2));
    }

    #[test]
    fn burst_lift_is_exact() {
        for (p, b, d) in [(100, 2, 1), (500, 3, 0), (1000, 4, 50), (70, 7, 9)] {
            let m = PeriodicBurstModel::new(Time::new(p), b, Time::new(d)).unwrap();
            let a = m.analytic().expect("burst lifts");
            assert_equiv(&a, &m, 50, 1_200);
        }
    }

    #[test]
    fn curve_model_lift_is_exact() {
        let m = crate::CurveBuilder::new()
            .delta_min_ticks([1, 100, 101])
            .delta_plus_ticks([99, 100, 199])
            .extension(2, Time::new(100))
            .build()
            .unwrap();
        let a = m.analytic().expect("curve lifts");
        assert_equiv(&a, &m, 40, 1_000);
    }

    #[test]
    fn curve_model_with_infinite_tail_lifts() {
        let m = crate::CurveBuilder::new()
            .delta_min_ticks([10, 20])
            .delta_plus_bounds([TimeBound::finite(30), TimeBound::Infinite])
            .extension(1, Time::new(10))
            .build()
            .unwrap();
        let a = m.analytic().expect("lift");
        assert_equiv(&a, &m, 30, 400);
        assert_eq!(a.first_infinite_plus(), Some(3));
    }

    #[test]
    fn or_join_lift_is_exact() {
        let children = vec![
            StandardEventModel::periodic(Time::new(250))
                .unwrap()
                .shared(),
            StandardEventModel::periodic_with_jitter(Time::new(450), Time::new(40))
                .unwrap()
                .shared(),
        ];
        let or = OrJoin::new(children).unwrap();
        let a = or.analytic().expect("OR lifts");
        assert_equiv(&a, &or, 64, 3_000);
    }

    #[test]
    fn or_join_with_sporadic_child_is_exact() {
        let or = OrJoin::new(vec![
            StandardEventModel::periodic(Time::new(100))
                .unwrap()
                .shared(),
            SporadicModel::new(Time::new(70)).unwrap().shared(),
        ])
        .unwrap();
        let a = or.analytic().expect("OR lifts");
        // The sporadic child contributes no δ⁺ values: the periodic
        // child alone guarantees arrivals, so δ⁺ stays finite.
        assert_eq!(a.first_infinite_plus(), None);
        assert_equiv(&a, &or, 50, 2_000);
    }

    #[test]
    fn or_join_all_sporadic_goes_infinite() {
        let or = OrJoin::new(vec![
            SporadicModel::new(Time::new(50)).unwrap().shared(),
            SporadicModel::new(Time::new(80)).unwrap().shared(),
        ])
        .unwrap();
        let a = or.analytic().expect("OR lifts");
        assert_eq!(a.first_infinite_plus(), Some(2));
        assert_equiv(&a, &or, 40, 1_000);
    }

    #[test]
    fn and_join_lift_is_exact() {
        let and = AndJoin::new(vec![
            StandardEventModel::periodic_with_jitter(Time::new(100), Time::new(30))
                .unwrap()
                .shared(),
            StandardEventModel::periodic(Time::new(160))
                .unwrap()
                .shared(),
        ])
        .unwrap();
        let a = and.analytic().expect("AND lifts");
        assert_equiv(&a, &and, 48, 2_500);
    }

    #[test]
    fn shaper_lift_is_exact() {
        let input = StandardEventModel::periodic_with_jitter(Time::new(100), Time::new(250))
            .unwrap()
            .shared();
        let shaped = DminShaper::new(input, Time::new(30)).unwrap();
        let a = shaped.analytic().expect("shaper lifts");
        assert_equiv(&a, &shaped, 48, 2_500);
    }

    #[test]
    fn output_lift_is_exact() {
        for (p, j, rm, rp) in [(250, 0, 10, 60), (100, 60, 5, 25), (100, 300, 7, 9)] {
            let input = StandardEventModel::periodic_with_jitter(Time::new(p), Time::new(j))
                .unwrap()
                .shared();
            let out = OutputModel::new(input, Time::new(rm), Time::new(rp)).unwrap();
            let a = out.analytic().expect("output lifts");
            assert_equiv(&a, &out, 64, 2_500);
        }
    }

    #[test]
    fn output_of_sporadic_keeps_infinite_plus() {
        let input = SporadicModel::new(Time::new(50)).unwrap().shared();
        let out = OutputModel::new(input, Time::ZERO, Time::new(10)).unwrap();
        let a = out.analytic().expect("output lifts");
        assert_eq!(a.first_infinite_plus(), Some(2));
        assert_equiv(&a, &out, 40, 1_000);
    }

    #[test]
    fn output_floor_dominated_regime_is_exact() {
        // r⁻ = 40 exceeds the input's 100/4 sustained rate? No — make
        // the floor genuinely dominant: burst input (rate 25/event) with
        // r⁻ = 40.
        let input = StandardEventModel::periodic_with_jitter(Time::new(25), Time::new(5))
            .unwrap()
            .shared();
        let out = OutputModel::new(input, Time::new(40), Time::new(45)).unwrap();
        let a = out.analytic().expect("output lifts");
        assert_equiv(&a, &out, 64, 3_000);
    }

    #[test]
    fn nested_combination_lifts() {
        // OR of (propagated SEM, burst) shaped and post-processed: the
        // whole derived tree lifts bottom-up.
        let sem = StandardEventModel::periodic_with_jitter(Time::new(300), Time::new(40))
            .unwrap()
            .shared();
        let propagated = OutputModel::new(sem, Time::new(10), Time::new(30))
            .unwrap()
            .shared();
        let burst = PeriodicBurstModel::new(Time::new(200), 2, Time::new(3))
            .unwrap()
            .shared();
        let or = OrJoin::new(vec![propagated, burst]).unwrap().shared();
        let shaped = DminShaper::new(or, Time::new(5)).unwrap();
        let a = shaped.analytic().expect("nested tree lifts");
        assert_equiv(&a, &shaped, 80, 4_000);
    }

    #[test]
    fn additive_closure_falls_back() {
        let loose = crate::CurveBuilder::new()
            .delta_min_ticks([100, 200, 220, 400])
            .delta_plus_ticks([100, 200, 300, 400])
            .extension(1, Time::new(100))
            .build()
            .unwrap();
        let tight = crate::ops::AdditiveClosure::new(loose.shared());
        assert!(
            tight.analytic().is_none(),
            "closure is a documented fallback"
        );
    }

    #[test]
    fn extension_boundary_around_stride_multiples() {
        // Satellite: δ(n) around events_per_period multiples of the head
        // end must agree with the generic extension on both sides.
        let m = crate::CurveBuilder::new()
            .delta_min_ticks([1, 100, 101, 200])
            .delta_plus_ticks([99, 100, 199, 200])
            .extension(2, Time::new(100))
            .build()
            .unwrap();
        let a = m.analytic().expect("lift");
        let head_n = a.delta_min_head().len() as u64 + 1;
        let (e, _) = a.delta_min_extension();
        for k in 0..5u64 {
            for off in [0, 1] {
                let n = head_n + k * e + off;
                assert_eq!(a.delta_min(n), m.delta_min(n), "δ⁻({n})");
                assert_eq!(a.delta_plus(n), m.delta_plus(n), "δ⁺({n})");
            }
        }
    }

    #[test]
    fn pseudo_inverse_consistency_at_breakpoints() {
        // Satellite: η⁺/δ⁻ round-trip exactly at segment breakpoints
        // Δt = δ⁻(n) and Δt = δ⁻(n) ± 1.
        let or = OrJoin::new(vec![
            StandardEventModel::periodic(Time::new(250))
                .unwrap()
                .shared(),
            StandardEventModel::periodic(Time::new(450))
                .unwrap()
                .shared(),
        ])
        .unwrap();
        let a = or.analytic().expect("lift");
        for n in 2..=40u64 {
            let d = a.delta_min(n);
            // The defining adjunction at the breakpoint Δt = δ⁻(n):
            // η⁺(δ⁻(n)) ≤ n − 1 (a window of exactly δ⁻(n) cannot be
            // *smaller* than the minimum span of n events) and
            // η⁺(δ⁻(n) + 1) ≥ n (one tick more admits them).
            assert!(a.eta_plus(d) < n);
            assert!(a.eta_plus(d + Time::ONE) >= n);
            assert_eq!(a.eta_plus(d + Time::ONE), or.eta_plus(d + Time::ONE));
            assert_eq!(
                convert::delta_min_from_eta_plus(
                    &|dt| a.eta_plus(dt),
                    n,
                    a.delta_min(n) + Time::ONE
                ),
                d,
                "δ⁻/η⁺ round trip at n = {n}"
            );
        }
    }

    #[test]
    fn max_shifted_infinite_plus() {
        let signal = StandardEventModel::periodic(Time::new(900)).unwrap();
        let frames = StandardEventModel::periodic(Time::new(250)).unwrap();
        let s = signal.analytic().unwrap();
        let f = frames.analytic().unwrap();
        let combined = AnalyticCurve::max_shifted(
            &[(&s, Time::new(-100)), (&f, Time::ZERO)],
            None,
            PlusCombine::Infinite,
        )
        .expect("combines");
        assert_eq!(combined.first_infinite_plus(), Some(2));
        for n in 2..=30u64 {
            let expected = (signal.delta_min(n) - Time::new(100))
                .max(frames.delta_min(n))
                .clamp_non_negative();
            assert_eq!(combined.delta_min(n), expected, "δ⁻({n})");
            assert_eq!(combined.delta_plus(n), TimeBound::Infinite);
        }
    }

    #[test]
    fn cached_model_delegates_lift() {
        let or = OrJoin::new(vec![
            StandardEventModel::periodic(Time::new(250))
                .unwrap()
                .shared(),
            StandardEventModel::periodic(Time::new(450))
                .unwrap()
                .shared(),
        ])
        .unwrap()
        .shared();
        let cached = crate::CachedModel::new(or.clone());
        let a = cached.analytic().expect("cache delegates to inner");
        assert_equiv(&a, &or, 40, 2_000);
    }

    #[test]
    fn lift_helper_works_on_model_refs() {
        let m: ModelRef = StandardEventModel::periodic(Time::new(100))
            .unwrap()
            .shared();
        assert!(lift(&m).is_some());
    }
}
