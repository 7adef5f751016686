//! Typed counters, histograms, and their snapshot/export types.

use std::collections::BTreeMap;

use crate::json::write_escaped;

/// The typed counters of the analysis engine and simulator.
///
/// Counters are cheap monotone sums; each has a stable snake_case name
/// used by the JSONL exporter so downstream tooling can rely on keys
/// not changing between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// Completed global fixed-point iterations of the system engine.
    GlobalIterations,
    /// Busy-window fixed-point iterations across all local analyses.
    BusyWindowIterations,
    /// No longer recorded: it counted the queries of the engine's
    /// former curve memo. Event models are now queried directly; the
    /// name stays for readers of exported metrics.
    CurveEvaluations,
    /// No longer recorded (see [`Counter::CurveEvaluations`]): the
    /// former curve memo's hits.
    CacheHits,
    /// No longer recorded (see [`Counter::CurveEvaluations`]): the
    /// former curve memo's misses.
    CacheMisses,
    /// Invocations of the COM packing operator (frame HEM assembly).
    PackingOps,
    /// Events processed by the simulator (transmissions, jobs,
    /// deliveries).
    SimEvents,
    /// Fault-plan perturbations that actually fired during a simulated
    /// run (corrupted instances, rogue transmissions, perturbed
    /// activations).
    FaultInjections,
    /// Per-entity busy-window analyses the incremental engine replayed
    /// from a warm-start snapshot instead of recomputing (one per clean
    /// entity per global iteration).
    WarmStartHits,
    /// Resources inside the damage cone of a warm-started run (recorded
    /// once per incremental analysis; equals the total resource count
    /// on a cold run or full fallback).
    ConeSize,
    /// Incremental analyses that fell back to a full from-scratch run
    /// (no usable snapshot, structural change, or config change).
    FullFallbacks,
    /// Sessions opened on the analysis server (monotone count of
    /// `open` requests that created or recovered a session).
    SessionsOpen,
    /// Sessions rebuilt from their write-ahead log — at server startup,
    /// after a crash, or when a poisoned session was quarantined.
    WalRecoveries,
    /// Requests rejected with an explicit load-shedding response
    /// because the server's bounded work queue was full.
    RequestsShed,
    /// Requests answered with the last materialized (stale) result
    /// because recomputation exceeded the request deadline.
    StaleServed,
    /// WAL `sync_all` calls that failed before a mutation could be
    /// acknowledged (the append is rolled back and the client sees an
    /// explicit error instead of a silent durability hole).
    FsyncFailures,
    /// Session checkpoints written: snapshot of the event log fsynced
    /// to a temp file, atomically renamed under a generation number,
    /// and the WAL tail truncated.
    Checkpoints,
    /// Bytes of WAL reclaimed by checkpoint compaction (sum of
    /// truncated tail lengths).
    CompactedBytes,
    /// Storage faults injected by the deterministic chaos layer (torn
    /// writes, short reads, dropped fsyncs, ENOSPC). Always zero on
    /// real storage.
    InjectedFaults,
    /// TCP connections accepted by the serving layer (connections that
    /// were greeted with a shed notice still count — they were
    /// accepted before being turned away).
    ConnectionsAccepted,
    /// Resolved event models the engine replaced with a closed-form
    /// analytic curve (one per model per sequential resolution; see
    /// `docs/CURVES.md`).
    AnalyticLifts,
    /// Resolved event models with no exact analytic lift, queried
    /// directly on the generic path while the fast path was enabled.
    AnalyticFallbacks,
    /// Candidate configurations enumerated by the exploration engine
    /// (every candidate counts, including pruned and invalid ones; see
    /// `docs/EXPLORATION.md`).
    CandidatesVisited,
    /// Candidates rejected by a cheap necessary test before any fixed
    /// point ran.
    CandidatesPruned,
    /// Analyzed candidates whose fixed point reused the warm-start
    /// snapshot of the previous candidate in the visit order.
    ExploreWarmHits,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 25] = [
        Counter::GlobalIterations,
        Counter::BusyWindowIterations,
        Counter::CurveEvaluations,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::PackingOps,
        Counter::SimEvents,
        Counter::FaultInjections,
        Counter::WarmStartHits,
        Counter::ConeSize,
        Counter::FullFallbacks,
        Counter::SessionsOpen,
        Counter::WalRecoveries,
        Counter::RequestsShed,
        Counter::StaleServed,
        Counter::FsyncFailures,
        Counter::Checkpoints,
        Counter::CompactedBytes,
        Counter::InjectedFaults,
        Counter::ConnectionsAccepted,
        Counter::AnalyticLifts,
        Counter::AnalyticFallbacks,
        Counter::CandidatesVisited,
        Counter::CandidatesPruned,
        Counter::ExploreWarmHits,
    ];

    /// The stable snake_case export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::GlobalIterations => "global_iterations",
            Counter::BusyWindowIterations => "busy_window_iterations",
            Counter::CurveEvaluations => "curve_evaluations",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::PackingOps => "packing_ops",
            Counter::SimEvents => "sim_events",
            Counter::FaultInjections => "fault_injections",
            Counter::WarmStartHits => "warm_start_hits",
            Counter::ConeSize => "cone_size",
            Counter::FullFallbacks => "full_fallbacks",
            Counter::SessionsOpen => "sessions_open",
            Counter::WalRecoveries => "wal_recoveries",
            Counter::RequestsShed => "requests_shed",
            Counter::StaleServed => "stale_served",
            Counter::FsyncFailures => "fsync_failures",
            Counter::Checkpoints => "checkpoints",
            Counter::CompactedBytes => "compacted_bytes",
            Counter::InjectedFaults => "injected_faults",
            Counter::ConnectionsAccepted => "connections_accepted",
            Counter::AnalyticLifts => "analytic_lifts",
            Counter::AnalyticFallbacks => "analytic_fallbacks",
            Counter::CandidatesVisited => "candidates_visited",
            Counter::CandidatesPruned => "candidates_pruned",
            Counter::ExploreWarmHits => "explore_warm_hits",
        }
    }

    pub(crate) fn index(self) -> usize {
        Counter::ALL
            .iter()
            .position(|c| *c == self)
            .expect("listed")
    }
}

/// The typed gauges of the serving layer.
///
/// Unlike [`Counter`]s, gauges are point-in-time levels that can go
/// down as well as up (queue depth) or are overwritten wholesale on
/// each refresh (WAL bytes). Each has a stable snake_case export name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Gauge {
    /// Sessions currently open on the analysis server.
    SessionsLive,
    /// Requests currently waiting in the server's bounded work queue.
    QueueDepth,
    /// Total bytes across all live session write-ahead logs.
    WalBytes,
    /// Highest checkpoint generation written by any live session (0
    /// before the first checkpoint).
    CheckpointGeneration,
    /// Requests handled since the server core was constructed — a
    /// logical uptime clock that advances once per request, so it is
    /// deterministic where a wall clock would not be.
    UptimeTicks,
}

impl Gauge {
    /// Every gauge, in export order.
    pub const ALL: [Gauge; 5] = [
        Gauge::SessionsLive,
        Gauge::QueueDepth,
        Gauge::WalBytes,
        Gauge::CheckpointGeneration,
        Gauge::UptimeTicks,
    ];

    /// The stable snake_case export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Gauge::SessionsLive => "sessions_live",
            Gauge::QueueDepth => "queue_depth",
            Gauge::WalBytes => "wal_bytes",
            Gauge::CheckpointGeneration => "checkpoint_generation",
            Gauge::UptimeTicks => "uptime_ticks",
        }
    }

    pub(crate) fn index(self) -> usize {
        Gauge::ALL.iter().position(|g| *g == self).expect("listed")
    }
}

/// A fixed-bucket power-of-two histogram of `u64` samples.
///
/// Bucket `i` counts samples whose value needs `i` bits (bucket 0 is
/// the value 0, bucket 1 is 1, bucket 2 is 2–3, bucket 3 is 4–7, …).
/// Log-spaced buckets keep recording O(1) and allocation-free while
/// still answering "are busy windows converging in 3 iterations or
/// 300?".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramData {
    /// Per-bucket sample counts (`buckets[i]` ⇔ values in `[2^(i-1), 2^i)`).
    pub buckets: [u64; 65],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl Default for HistogramData {
    fn default() -> Self {
        HistogramData {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl HistogramData {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = 64 - value.leading_zeros() as usize;
        self.buckets[bucket] += 1;
        self.sum += value;
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.max = self.max.max(value);
        self.count += 1;
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper estimate of the `q`-quantile sample (`0.0 < q <= 1.0`).
    ///
    /// Exact for the edge cases tooling hits constantly: an empty
    /// histogram reports 0, a single sample reports that sample, and a
    /// histogram whose samples are all equal reports that value. For
    /// the general case the estimate is the lower bound of the bucket
    /// holding the rank-`ceil(q * count)` sample, clamped to
    /// `[min, max]` — always a real, finite `u64`, never NaN.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if self.count == 1 || self.min == self.max {
            return self.min;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                return lower.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The median sample (see [`HistogramData::percentile`]).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// The 99th-percentile sample (see [`HistogramData::percentile`]).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Folds another histogram into this one.
    ///
    /// Bucket counts, totals, and extrema combine commutatively, so
    /// the merged data does not depend on the order of the merges.
    pub fn merge(&mut self, other: &HistogramData) {
        if other.count == 0 {
            return;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
    }
}

/// A point-in-time copy of all recorded metrics.
///
/// Produced by [`MemoryRecorder::snapshot`](crate::MemoryRecorder::snapshot);
/// exported with [`MetricsSnapshot::to_jsonl`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Totals of each typed counter (export name → value), zero
    /// counters included so consumers see a stable key set.
    pub counters: BTreeMap<&'static str, u64>,
    /// Current levels of each typed gauge (export name → value).
    pub gauges: BTreeMap<&'static str, u64>,
    /// Labeled counter breakdowns: (export name, label) → value, e.g.
    /// busy-window iterations per task.
    pub labeled: BTreeMap<(&'static str, String), u64>,
    /// Named histograms (e.g. span durations in microseconds,
    /// busy-window iterations per fixed point).
    pub histograms: BTreeMap<&'static str, HistogramData>,
}

impl MetricsSnapshot {
    /// The total of a typed counter (0 when never incremented).
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c.name()).copied().unwrap_or(0)
    }

    /// The current level of a typed gauge (0 when never set).
    #[must_use]
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges.get(g.name()).copied().unwrap_or(0)
    }

    /// The labeled sub-total of a typed counter.
    #[must_use]
    pub fn labeled_counter(&self, c: Counter, label: &str) -> u64 {
        self.labeled
            .get(&(c.name(), label.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Folds another snapshot into this one (counters and labeled
    /// breakdowns add, histograms merge bucket-wise, gauges take the
    /// other snapshot's value — it is the more recent level).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            self.gauges.insert(name, *value);
        }
        for (key, value) in &other.labeled {
            *self.labeled.entry(key.clone()).or_insert(0) += value;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
    }

    /// Serializes the snapshot as JSONL: one self-describing JSON
    /// object per line.
    ///
    /// Line shapes:
    ///
    /// ```json
    /// {"type":"counter","name":"cache_hits","value":123}
    /// {"type":"gauge","name":"queue_depth","value":3}
    /// {"type":"counter","name":"busy_window_iterations","label":"T1","value":7}
    /// {"type":"histogram","name":"span_us/global_iteration","count":4,"sum":912,"min":101,"max":458,"mean":228.0,"p50":128,"p99":458}
    /// ```
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str("{\"type\":\"counter\",\"name\":");
            write_escaped(&mut out, name);
            out.push_str(&format!(",\"value\":{value}}}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str("{\"type\":\"gauge\",\"name\":");
            write_escaped(&mut out, name);
            out.push_str(&format!(",\"value\":{value}}}\n"));
        }
        for ((name, label), value) in &self.labeled {
            out.push_str("{\"type\":\"counter\",\"name\":");
            write_escaped(&mut out, name);
            out.push_str(",\"label\":");
            write_escaped(&mut out, label);
            out.push_str(&format!(",\"value\":{value}}}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str("{\"type\":\"histogram\",\"name\":");
            write_escaped(&mut out, name);
            out.push_str(&format!(
                ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"p50\":{},\"p99\":{}}}\n",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.p50(),
                h.p99()
            ));
        }
        out
    }

    /// Serializes the snapshot as one JSON object (counters nested
    /// under `"counters"`, gauges under `"gauges"`, labeled breakdowns
    /// under `"labeled"`, histogram summaries under `"histograms"`).
    /// Used by the `BENCH_analysis.json` profile format.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, name);
            out.push_str(&format!(":{value}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, name);
            out.push_str(&format!(":{value}"));
        }
        out.push_str("},\"labeled\":{");
        let mut first = true;
        for ((name, label), value) in &self.labeled {
            if !first {
                out.push(',');
            }
            first = false;
            write_escaped(&mut out, &format!("{name}/{label}"));
            out.push_str(&format!(":{value}"));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, name);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"p50\":{},\"p99\":{}}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.p50(),
                h.p99()
            ));
        }
        out.push_str("}}");
        out
    }

    /// Serializes the snapshot in the Prometheus text exposition
    /// format (version 0.0.4): counters and gauges as single samples
    /// with `# TYPE` headers, labeled counter breakdowns as extra
    /// samples of the parent family, and histograms as summaries with
    /// `quantile` samples plus `_sum`/`_count`.
    ///
    /// Metric names are sanitized to `[a-zA-Z0-9_:]` (every other byte
    /// becomes `_`), label values are escaped per the exposition
    /// format. Output order follows the snapshot's sorted maps, so the
    /// text is deterministic.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        }
        fn escape_label(value: &str) -> String {
            let mut out = String::with_capacity(value.len());
            for c in value.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    other => out.push(other),
                }
            }
            out
        }
        let mut out = String::new();
        for (name, value) in &self.counters {
            let metric = sanitize(name);
            out.push_str(&format!("# TYPE {metric} counter\n{metric} {value}\n"));
            for ((labeled_name, label), labeled_value) in &self.labeled {
                if labeled_name == name {
                    out.push_str(&format!(
                        "{metric}{{label=\"{}\"}} {labeled_value}\n",
                        escape_label(label)
                    ));
                }
            }
        }
        for (name, value) in &self.gauges {
            let metric = sanitize(name);
            out.push_str(&format!("# TYPE {metric} gauge\n{metric} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let metric = sanitize(name);
            out.push_str(&format!(
                "# TYPE {metric} summary\n\
                 {metric}{{quantile=\"0.5\"}} {}\n\
                 {metric}{{quantile=\"0.99\"}} {}\n\
                 {metric}_sum {}\n\
                 {metric}_count {}\n",
                h.p50(),
                h.p99(),
                h.sum,
                h.count
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn counter_names_are_unique_and_stable() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
        assert_eq!(Counter::CacheHits.name(), "cache_hits");
        assert_eq!(Counter::CacheHits.index(), 3);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = HistogramData::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.sum, 1049);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 2); // 4, 7
        assert_eq!(h.buckets[4], 1); // 8..16
        assert_eq!(h.buckets[11], 1); // 1024..2048
        assert!((h.mean() - 1049.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        assert_eq!(HistogramData::default().mean(), 0.0);
    }

    #[test]
    fn gauge_names_are_unique_and_stable() {
        let mut names: Vec<&str> = Gauge::ALL.iter().map(|g| g.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Gauge::ALL.len());
        assert_eq!(Gauge::QueueDepth.name(), "queue_depth");
        assert_eq!(Gauge::QueueDepth.index(), 1);
    }

    #[test]
    fn percentiles_are_exact_on_empty_and_single_sample() {
        let empty = HistogramData::default();
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.p99(), 0);
        let mut one = HistogramData::default();
        one.record(37);
        assert_eq!(one.p50(), 37);
        assert_eq!(one.p99(), 37);
        let mut same = HistogramData::default();
        same.record(9);
        same.record(9);
        same.record(9);
        assert_eq!(same.p50(), 9);
        assert_eq!(same.p99(), 9);
    }

    #[test]
    fn percentiles_walk_buckets_and_stay_in_range() {
        let mut h = HistogramData::default();
        for v in [1u64, 2, 2, 3, 7, 31] {
            h.record(v);
        }
        // rank ceil(0.5*6)=3 lands in bucket [2,4) → lower bound 2.
        assert_eq!(h.p50(), 2);
        // rank 6 lands in bucket [16,32) → lower bound 16, within [1,31].
        assert_eq!(h.p99(), 16);
        // Estimates never escape the observed range, even for q=1.0.
        assert!(h.percentile(1.0) <= h.max);
        assert!(h.percentile(0.01) >= h.min);
        // Large samples do not overflow the bucket lower-bound shift.
        let mut big = HistogramData::default();
        big.record(0);
        big.record(u64::MAX);
        assert_eq!(big.p99(), 1 << 63);
    }

    #[test]
    fn percentile_fields_in_exports_are_finite_json() {
        // Empty histograms must not smuggle NaN into the JSON output.
        let mut s = MetricsSnapshot::default();
        s.histograms
            .insert("span_us/empty", HistogramData::default());
        let json_out = s.to_json();
        json::validate(&json_out).expect("valid JSON");
        assert!(!json_out.contains("NaN"));
        assert!(json_out.contains("\"p50\":0,\"p99\":0"));
        json::validate_jsonl(&s.to_jsonl()).expect("valid JSONL");
    }

    #[test]
    fn prometheus_exposition_is_deterministic_and_escaped() {
        let mut s = MetricsSnapshot::default();
        s.counters.insert(Counter::CacheHits.name(), 12);
        s.gauges.insert(Gauge::QueueDepth.name(), 3);
        s.labeled
            .insert((Counter::CacheHits.name(), "frame \"F1\"".into()), 5);
        let mut h = HistogramData::default();
        h.record(4);
        s.histograms.insert("service_us/analyze", h);
        let text = s.to_prometheus();
        assert_eq!(text, s.to_prometheus());
        assert!(text.contains("# TYPE cache_hits counter\ncache_hits 12\n"));
        assert!(text.contains("cache_hits{label=\"frame \\\"F1\\\"\"} 5\n"));
        assert!(text.contains("# TYPE queue_depth gauge\nqueue_depth 3\n"));
        // The histogram name's '/' is sanitized for Prometheus.
        assert!(text.contains("# TYPE service_us_analyze summary\n"));
        assert!(text.contains("service_us_analyze{quantile=\"0.5\"} 4\n"));
        assert!(text.contains("service_us_analyze_sum 4\nservice_us_analyze_count 1\n"));
    }

    #[test]
    fn histogram_merge_equals_interleaved_recording() {
        let mut a = HistogramData::default();
        let mut b = HistogramData::default();
        let mut whole = HistogramData::default();
        for v in [3, 0, 17, 255] {
            a.record(v);
            whole.record(v);
        }
        for v in [1, 9, 1024] {
            b.record(v);
            whole.record(v);
        }
        let mut merged = HistogramData::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged, whole);
        // Merging an empty histogram is a no-op; merging into an empty
        // one copies.
        merged.merge(&HistogramData::default());
        assert_eq!(merged, whole);
        let mut fresh = HistogramData::default();
        fresh.merge(&whole);
        assert_eq!(fresh, whole);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_histograms() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert(Counter::CacheHits.name(), 2);
        a.labeled
            .insert((Counter::BusyWindowIterations.name(), "T1".into()), 5);
        let mut b = MetricsSnapshot::default();
        b.counters.insert(Counter::CacheHits.name(), 3);
        b.counters.insert(Counter::CacheMisses.name(), 1);
        b.labeled
            .insert((Counter::BusyWindowIterations.name(), "T1".into()), 2);
        let mut h = HistogramData::default();
        h.record(4);
        b.histograms.insert("span_us/test", h.clone());
        a.merge(&b);
        assert_eq!(a.counter(Counter::CacheHits), 5);
        assert_eq!(a.counter(Counter::CacheMisses), 1);
        assert_eq!(a.labeled_counter(Counter::BusyWindowIterations, "T1"), 7);
        assert_eq!(a.histograms["span_us/test"], h);
    }

    #[test]
    fn snapshot_exports_valid_json() {
        let mut s = MetricsSnapshot::default();
        s.counters.insert(Counter::CacheHits.name(), 12);
        s.labeled
            .insert((Counter::BusyWindowIterations.name(), "T1\"x".into()), 3);
        let mut h = HistogramData::default();
        h.record(5);
        s.histograms.insert("span_us/test", h);
        json::validate_jsonl(&s.to_jsonl()).expect("valid JSONL");
        json::validate(&s.to_json()).expect("valid JSON");
        assert_eq!(s.counter(Counter::CacheHits), 12);
        assert_eq!(s.labeled_counter(Counter::BusyWindowIterations, "T1\"x"), 3);
        assert_eq!(s.counter(Counter::SimEvents), 0);
    }
}
