//! The observability-overhead benchmark: what serving telemetry costs.
//!
//! [`run_obs_overhead`] drives the same scripted open/mutate/analyze
//! workload through two [`ServerCore`]s — one with the default-on
//! telemetry (request scopes, latency histograms, gauges, the flight
//! ring) and one with `observe(false)`, where every record call
//! reduces to a no-op handle branch. Each repetition times a noop
//! drive and an instrumented drive back to back, so slow epochs on a
//! busy machine hit both sides of the pair alike, and contributes one
//! paired percentage difference. Even repetitions run the noop drive
//! first and odd ones the instrumented drive, so whatever the second
//! drive of a pair gains or loses from the first (warm caches, a
//! grown heap) does not land on one side only. The reported
//! `overhead_pct` is the **median** of those differences and
//! `overhead_iqr_pct` their interquartile range
//! ([`paired_overhead`]). Neither is floored: noise
//! moves the median either way, so a cost that is truly near zero
//! reads near zero, sometimes below it, and a telemetry regression
//! shifts the whole distribution up. `bench_compare` gates
//! `overhead_pct` against an absolute 5% bound and reports the IQR.
//!
//! After the gated pairs, an **A/A leg** times noop against noop with
//! the same pairing and alternation and reports its median as
//! `aa_pct`: what the statistic reads when both sides run identical
//! code, so the noise floor under `overhead_pct` is a measured number.
//!
//! Trace-event *emission* (`--trace-out`) is an opt-in debug flag —
//! it clones every request's span tree into the recorder and is not
//! part of the cost every production request pays — so the timed runs
//! leave it off, and one extra untimed traced drive computes `spans`
//! (trace slices emitted) and `dump_bytes` (the flight dump's size),
//! both pure functions of the workload and compared exactly.
//!
//! Both cores run on a quiet in-memory [`ChaosStorage`]: the modes
//! differ only in telemetry, so the measurement must not be at the
//! mercy of page-cache and dirty-writeback noise, which on a busy
//! machine moves real-disk runs by ±10% in either direction.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hem_server::{ChaosOptions, ChaosStorage, CoreOptions, ServerCore};

use crate::serving::{event_for, scenario_for, SERVING_CHECKPOINT_BYTES};

/// Sessions in the scripted overhead workload — a serving-shaped mix
/// (compare [`crate::serving::ServingParams::ci`]): mutation-dominated
/// with periodic analyses.
const SESSIONS: usize = 48;
/// Mutation rounds per session — sized so one in-memory pass is long
/// enough that a scheduler hiccup cannot move the ratio by whole
/// percents.
const ROUNDS: usize = 12;
/// Every Nth session is analysed after each round.
const ANALYZE_EVERY: usize = 8;
/// Wall-clock repetitions. Each runs noop and instrumented
/// back-to-back, in alternating order, and contributes one paired
/// difference; the median over the repetitions is the reported
/// overhead.
const REPS: usize = 7;

/// What the overhead benchmark measured.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Relative wall-clock cost of default-on telemetry vs the no-op
    /// recorder, in percent: the median of the paired differences.
    pub overhead_pct: f64,
    /// Interquartile range of the paired differences, in percent.
    pub overhead_iqr_pct: f64,
    /// The same statistic with both sides of every pair running the
    /// no-op recorder (the A/A leg), in percent: the noise floor.
    pub aa_pct: f64,
    /// Trace slices the traced drive emitted (deterministic).
    pub spans: u64,
    /// Bytes of the flight-recorder dump (deterministic).
    pub dump_bytes: u64,
}

impl ObsReport {
    /// The `obs` section of `BENCH_analysis.json` (a JSON object, no
    /// trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"overhead_pct\":{:.2},\"overhead_iqr_pct\":{:.2},\"aa_pct\":{:.2},\"spans\":{},\"dump_bytes\":{}}}",
            self.overhead_pct, self.overhead_iqr_pct, self.aa_pct, self.spans, self.dump_bytes
        )
    }
}

fn open_line(i: usize) -> String {
    let mut line = format!("{{\"op\":\"open\",\"session\":\"s{i}\",\"scenario\":");
    hem_obs::json::write_escaped(&mut line, &scenario_for(i));
    line.push('}');
    line
}

/// One pass of the scripted workload. Returns the wall time in
/// milliseconds plus, for traced runs, `(spans, dump_bytes)`.
fn drive_once(dir: &Path, observe: bool, trace: bool) -> (f64, Option<(u64, u64)>) {
    let mut options = CoreOptions::new(dir)
        .sync_appends(false)
        .checkpoint_bytes(SERVING_CHECKPOINT_BYTES)
        .storage(Arc::new(ChaosStorage::new(ChaosOptions::quiet(0))))
        .observe(observe);
    if trace {
        options = options.trace_out(dir.join("trace.json"));
    }
    let core = ServerCore::with_options(options).expect("create obs bench core");
    let started = Instant::now();
    for i in 0..SESSIONS {
        let response = core.handle_line(&open_line(i));
        assert!(
            response.starts_with("{\"ok\":true"),
            "open failed: {response}"
        );
    }
    for r in 0..ROUNDS {
        for i in 0..SESSIONS {
            let line = format!(
                r#"{{"op":"mutate","session":"s{i}","seq":{},"event":{}}}"#,
                r + 1,
                event_for(i, r)
            );
            let response = core.handle_line(&line);
            assert!(
                response.starts_with("{\"ok\":true"),
                "mutate failed: {response}"
            );
        }
        for i in (0..SESSIONS).step_by(ANALYZE_EVERY) {
            let response = core.handle_line(&format!(r#"{{"op":"analyze","session":"s{i}"}}"#));
            assert!(
                response.starts_with("{\"ok\":true"),
                "analyze failed: {response}"
            );
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let artifacts = trace.then(|| {
        let spans = core.trace_json().matches("\"ph\":\"X\"").count() as u64;
        let dump_bytes = core.flight().render_dump("shutdown").len() as u64;
        (spans, dump_bytes)
    });
    (wall_ms, artifacts)
}

/// Runs the overhead benchmark under `base_dir` (one scratch
/// subdirectory per drive; the chaos disk is in-memory, so the
/// subdirectories are pure path namespaces and nothing touches the
/// real filesystem).
#[must_use]
pub fn run_obs_overhead(base_dir: &Path) -> ObsReport {
    // The deterministic artifacts come from one untimed traced drive.
    let (_, measured) = drive_once(&base_dir.join("obs-trace"), true, true);
    let (spans, dump_bytes) = measured.expect("traced run reports artifacts");
    // The timed pairs drive the default-on configuration: observed,
    // but no trace export.
    let (overhead_pct, overhead_iqr_pct) =
        paired_overhead(&timed_pairs(base_dir, ["noop", "full"], true));
    let (aa_pct, _) = paired_overhead(&timed_pairs(base_dir, ["aa-a", "aa-b"], false));
    ObsReport {
        overhead_pct,
        overhead_iqr_pct,
        aa_pct,
        spans,
        dump_bytes,
    }
}

/// `REPS` `(noop_ms, candidate_ms)` pairs, the candidate drive observed
/// or not as `observe` says. Even repetitions drive the noop side
/// first, odd ones the candidate. The two sides' directory names are
/// equally long: the in-memory disk keys every file by its path, so a
/// longer name alone costs measurable time.
fn timed_pairs(base_dir: &Path, sides: [&str; 2], observe: bool) -> Vec<(f64, f64)> {
    (0..REPS)
        .map(|rep| {
            let dir = |side: &str| base_dir.join(format!("obs-{side}-{rep}"));
            let noop = || drive_once(&dir(sides[0]), false, false).0;
            let candidate = || drive_once(&dir(sides[1]), observe, false).0;
            if rep % 2 == 0 {
                let noop_ms = noop();
                (noop_ms, candidate())
            } else {
                let candidate_ms = candidate();
                (noop(), candidate_ms)
            }
        })
        .collect()
}

/// The median and interquartile range of the paired percentage
/// differences `100 · (obs − noop) / noop` over `(noop_ms, obs_ms)`
/// pairs, quartiles linearly interpolated. Pairs with a non-positive
/// noop time are skipped; no usable pair gives `(0.0, 0.0)`.
#[must_use]
pub fn paired_overhead(pairs: &[(f64, f64)]) -> (f64, f64) {
    let mut diffs: Vec<f64> = pairs
        .iter()
        .filter(|(noop, _)| *noop > 0.0)
        .map(|(noop, obs)| 100.0 * (obs - noop) / noop)
        .collect();
    if diffs.is_empty() {
        return (0.0, 0.0);
    }
    diffs.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let at = q * (diffs.len() - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        diffs[lo] + (diffs[hi] - diffs[lo]) * (at - lo as f64)
    };
    (quantile(0.5), quantile(0.75) - quantile(0.25))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_valid_and_deterministic_fields_are_exact() {
        let report = ObsReport {
            overhead_pct: -0.5,
            overhead_iqr_pct: 1.25,
            aa_pct: 0.75,
            spans: 420,
            dump_bytes: 8192,
        };
        let json = report.to_json();
        hem_obs::json::validate(&json).expect("obs section is valid JSON");
        assert_eq!(
            json,
            "{\"overhead_pct\":-0.50,\"overhead_iqr_pct\":1.25,\"aa_pct\":0.75,\"spans\":420,\"dump_bytes\":8192}"
        );
    }

    #[test]
    fn constant_pairs_give_their_difference() {
        let pairs: Vec<(f64, f64)> = (1..=7)
            .map(|k| (100.0 * f64::from(k), 103.0 * f64::from(k)))
            .collect();
        let (median, iqr) = paired_overhead(&pairs);
        assert!((median - 3.0).abs() < 1e-9, "{median}");
        assert!(iqr.abs() < 1e-9, "{iqr}");
    }

    #[test]
    fn symmetric_noise_can_read_negative() {
        // Differences −3, −2, −1, −0.5, +1, +2, +3 %: no floor at zero.
        let pairs = [-3.0, 2.0, -1.0, 3.0, -0.5, 1.0, -2.0].map(|d| (100.0, 100.0 + d));
        let (median, iqr) = paired_overhead(&pairs);
        assert!((median + 0.5).abs() < 1e-9, "{median}");
        // Quartiles at ranks 1.5 and 4.5: −1.5 and +1.5.
        assert!((iqr - 3.0).abs() < 1e-9, "{iqr}");
        assert_eq!(paired_overhead(&[]), (0.0, 0.0));
        assert_eq!(paired_overhead(&[(0.0, 5.0)]), (0.0, 0.0));
    }
}
