//! Memoizing wrapper for expensive derived models.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use hem_obs::{Counter, RecorderHandle};
use hem_time::{Time, TimeBound};

use crate::{EventModel, ModelRef};

/// The four curve memo tables plus locally accumulated counter deltas
/// (flushed in bulk by [`CachedModel::flush_recorded`] instead of per
/// query, so the hot path never touches the recorder's lock).
#[derive(Debug, Default)]
struct Memo {
    delta_min: HashMap<u64, Time>,
    delta_plus: HashMap<u64, TimeBound>,
    eta_plus: HashMap<Time, u64>,
    eta_minus: HashMap<Time, u64>,
    evaluations: u64,
    misses: u64,
}

/// A memoizing wrapper around any event model.
///
/// Derived models — OR-joins, packed hierarchies, inner updates — answer
/// each query by recursing into their children; inside a busy-window
/// fixed point the same `δ±(n)`/`η±(Δt)` values are requested thousands
/// of times. `CachedModel` memoizes all four functions, turning repeated
/// queries into hash lookups while remaining a drop-in [`EventModel`].
///
/// The analysis engine is sequential, so one lock guards all four
/// tables; it keeps the cache `Sync` (models are shared as
/// `Arc<dyn EventModel + Send + Sync>`) and **compute-once** — the lock
/// is held while the wrapped model is evaluated, so concurrent queries
/// for the same key perform exactly one inner evaluation and every
/// caller observes the same value. Holding the lock during evaluation
/// cannot deadlock: model graphs are acyclic (`Arc`-shared DAGs), so
/// recursion only ever acquires locks of *other* cache instances,
/// following the DAG's partial order.
///
/// Compute-once also makes the hit/miss accounting independent of
/// thread interleaving: misses equal the number of *distinct keys*
/// evaluated and evaluations equal the number of queries issued — both
/// properties of the workload, not of the schedule.
///
/// # Examples
///
/// ```
/// use hem_event_models::ops::OrJoin;
/// use hem_event_models::{CachedModel, EventModel, EventModelExt, StandardEventModel};
/// use hem_time::Time;
///
/// let or = OrJoin::new(vec![
///     StandardEventModel::periodic(Time::new(250))?.shared(),
///     StandardEventModel::periodic(Time::new(450))?.shared(),
/// ])?;
/// let cached = CachedModel::new(or.shared());
/// assert_eq!(cached.delta_min(5), cached.delta_min(5)); // second hit is O(1)
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CachedModel {
    inner: ModelRef,
    recorder: RecorderHandle,
    /// `recorder.enabled()`, resolved once at construction: curve
    /// queries are the hottest path of the analysis and must not pay a
    /// dynamic dispatch per query when recording is off.
    recording: bool,
    memo: Mutex<Memo>,
}

impl CachedModel {
    /// Wraps a model with memoization.
    #[must_use]
    pub fn new(inner: ModelRef) -> Self {
        CachedModel::recorded(inner, RecorderHandle::noop())
    }

    /// Wraps a model with memoization that reports
    /// [`Counter::CurveEvaluations`] / [`Counter::CacheHits`] /
    /// [`Counter::CacheMisses`] to the given recorder.
    ///
    /// Counts are accumulated inside the cache and reach the recorder
    /// when [`CachedModel::flush_recorded`] is called (the engine
    /// flushes at deterministic points) or when the cache is dropped.
    #[must_use]
    pub fn recorded(inner: ModelRef, recorder: RecorderHandle) -> Self {
        CachedModel {
            inner,
            recording: recorder.enabled(),
            recorder,
            memo: Mutex::new(Memo::default()),
        }
    }

    /// The wrapped model.
    #[must_use]
    pub fn inner(&self) -> &ModelRef {
        &self.inner
    }

    fn memo(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().expect("cache poisoned")
    }

    /// Flushes the accumulated evaluation/hit/miss counts to the
    /// recorder passed at construction.
    ///
    /// Totals are drained (a second flush reports nothing new). The
    /// engine calls this at the end of every global iteration, so
    /// counter order at the recorder is deterministic; dropping the
    /// cache flushes any remainder.
    pub fn flush_recorded(&self) {
        if !self.recording {
            return;
        }
        let (evaluations, misses) = {
            let mut memo = self.memo();
            (
                std::mem::take(&mut memo.evaluations),
                std::mem::take(&mut memo.misses),
            )
        };
        if evaluations > 0 {
            self.recorder.add(Counter::CurveEvaluations, evaluations);
            self.recorder.add(Counter::CacheHits, evaluations - misses);
            self.recorder.add(Counter::CacheMisses, misses);
        }
    }

    /// Clones this cache's memo tables into a fresh cache over the same
    /// model, reporting to `recorder`, with zeroed pending counter
    /// deltas.
    ///
    /// This is the cross-run retention primitive of the incremental
    /// engine: a converged run's resolved models are replayed into the
    /// next run for entities whose inputs are unchanged, and a replayed
    /// cache is forked so it reports to the new run's recorder with
    /// every curve already memoized. The fork carries **values only** —
    /// evaluation and miss deltas accumulated but not yet flushed stay
    /// with the original, so the new run's counter stream reflects only
    /// its own queries (pre-warmed keys count as hits, never as misses).
    #[must_use]
    pub fn fork(&self, recorder: RecorderHandle) -> CachedModel {
        let forked = CachedModel::recorded(self.inner.clone(), recorder);
        {
            let src = self.memo();
            let mut dst = forked.memo();
            dst.delta_min = src.delta_min.clone();
            dst.delta_plus = src.delta_plus.clone();
            dst.eta_plus = src.eta_plus.clone();
            dst.eta_minus = src.eta_minus.clone();
        }
        forked
    }

    /// Total number of memoized entries (diagnostic).
    #[must_use]
    pub fn cached_entries(&self) -> usize {
        let s = self.memo();
        s.delta_min.len() + s.delta_plus.len() + s.eta_plus.len() + s.eta_minus.len()
    }
}

impl Drop for CachedModel {
    fn drop(&mut self) {
        self.flush_recorded();
    }
}

macro_rules! memoized {
    ($self:ident, $table:ident, $key:expr) => {{
        let mut memo = $self.memo();
        memo.evaluations += 1;
        match memo.$table.get(&$key) {
            Some(v) => *v,
            None => {
                // Compute while holding the lock: concurrent queries
                // for this key block here and then hit.
                let v = $self.inner.$table($key);
                memo.$table.insert($key, v);
                memo.misses += 1;
                v
            }
        }
    }};
}

impl EventModel for CachedModel {
    fn delta_min(&self, n: u64) -> Time {
        memoized!(self, delta_min, n)
    }

    fn delta_plus(&self, n: u64) -> TimeBound {
        memoized!(self, delta_plus, n)
    }

    fn eta_plus(&self, dt: Time) -> u64 {
        memoized!(self, eta_plus, dt)
    }

    fn eta_minus(&self, dt: Time) -> u64 {
        memoized!(self, eta_minus, dt)
    }

    // An analytic lift sees through the cache: the wrapped model's curve
    // (if any) IS the cached model's curve, since memoization never
    // changes values. Exposing it lets the engine swap the inner model
    // for its lift while keeping this cache — and its key/counter
    // traffic — exactly in place.
    fn analytic(&self) -> Option<crate::AnalyticCurve> {
        self.inner.analytic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OrJoin;
    use crate::{EventModelExt, StandardEventModel};

    fn or_model() -> ModelRef {
        OrJoin::new(vec![
            StandardEventModel::periodic(Time::new(250))
                .unwrap()
                .shared(),
            StandardEventModel::periodic_with_jitter(Time::new(450), Time::new(40))
                .unwrap()
                .shared(),
        ])
        .unwrap()
        .shared()
    }

    #[test]
    fn transparent_equivalence() {
        let raw = or_model();
        let cached = CachedModel::new(raw.clone());
        for n in 0..=20u64 {
            assert_eq!(cached.delta_min(n), raw.delta_min(n));
            assert_eq!(cached.delta_plus(n), raw.delta_plus(n));
        }
        for dt in (0..1500).step_by(31).map(Time::new) {
            assert_eq!(cached.eta_plus(dt), raw.eta_plus(dt));
            assert_eq!(cached.eta_minus(dt), raw.eta_minus(dt));
        }
    }

    #[test]
    fn caches_fill_and_repeat_hits_are_stable() {
        let cached = CachedModel::new(or_model());
        assert_eq!(cached.cached_entries(), 0);
        let first = cached.delta_min(7);
        let entries_after_one = cached.cached_entries();
        assert!(entries_after_one >= 1);
        assert_eq!(cached.delta_min(7), first);
        assert_eq!(cached.cached_entries(), entries_after_one);
        let _ = cached.eta_plus(Time::new(999));
        assert!(cached.cached_entries() > entries_after_one);
    }

    #[test]
    fn inner_accessor() {
        let raw = or_model();
        let cached = CachedModel::new(raw.clone());
        assert_eq!(cached.inner().delta_min(3), raw.delta_min(3));
    }

    #[test]
    fn recorded_cache_counts_hits_and_misses_on_flush() {
        let (rec, handle) = hem_obs::MemoryRecorder::handle();
        let cached = CachedModel::recorded(or_model(), handle);
        let _ = cached.delta_min(7); // miss
        let _ = cached.delta_min(7); // hit
        let _ = cached.eta_plus(Time::new(100)); // miss
                                                 // Counts are buffered in the cache until flushed.
        assert_eq!(rec.snapshot().counter(Counter::CurveEvaluations), 0);
        cached.flush_recorded();
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::CurveEvaluations), 3);
        assert_eq!(snap.counter(Counter::CacheMisses), 2);
        assert_eq!(snap.counter(Counter::CacheHits), 1);
        // Flushing again reports nothing new.
        cached.flush_recorded();
        assert_eq!(rec.snapshot().counter(Counter::CurveEvaluations), 3);
    }

    #[test]
    fn drop_flushes_remaining_counts() {
        let (rec, handle) = hem_obs::MemoryRecorder::handle();
        {
            let cached = CachedModel::recorded(or_model(), handle);
            let _ = cached.delta_min(1);
            let _ = cached.delta_min(1);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::CurveEvaluations), 2);
        assert_eq!(snap.counter(Counter::CacheMisses), 1);
        assert_eq!(snap.counter(Counter::CacheHits), 1);
    }

    #[test]
    fn fork_carries_entries_but_not_pending_counts() {
        let (rec, handle) = hem_obs::MemoryRecorder::handle();
        let original = CachedModel::recorded(or_model(), handle);
        let v = original.delta_min(7); // miss, left unflushed
        let entries = original.cached_entries();

        let (rec2, handle2) = hem_obs::MemoryRecorder::handle();
        let forked = original.fork(handle2);
        assert_eq!(forked.cached_entries(), entries);
        // The pre-warmed key is a hit in the fork, not a miss.
        assert_eq!(forked.delta_min(7), v);
        forked.flush_recorded();
        let snap = rec2.snapshot();
        assert_eq!(snap.counter(Counter::CurveEvaluations), 1);
        assert_eq!(snap.counter(Counter::CacheHits), 1);
        assert_eq!(snap.counter(Counter::CacheMisses), 0);
        // The original keeps its own pending miss.
        original.flush_recorded();
        assert_eq!(rec.snapshot().counter(Counter::CacheMisses), 1);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CachedModel>();
    }
}
