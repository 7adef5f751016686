//! Per-iteration trajectory of a global fixed-point analysis.

use std::collections::BTreeMap;

use crate::json::write_escaped;

/// A response-time interval snapshot, in ticks.
///
/// Mirrors the analysis `ResponseTime` (`[r⁻, r⁺]`) without depending
/// on the analysis crate — this crate sits below it in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtBound {
    /// Best-case response time `r⁻`.
    pub lower: i64,
    /// Worst-case response time `r⁺`.
    pub upper: i64,
}

impl RtBound {
    /// A bound from its endpoints.
    #[must_use]
    pub fn new(lower: i64, upper: i64) -> Self {
        RtBound { lower, upper }
    }

    /// The response jitter `r⁺ − r⁻`.
    #[must_use]
    pub fn jitter(&self) -> i64 {
        self.upper - self.lower
    }
}

/// The response-time vector after one completed global iteration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IterationSnapshot {
    /// 1-based global iteration index.
    pub iteration: u64,
    /// Per-entity response times, keyed `task:<name>` / `frame:<name>`.
    pub response_times: BTreeMap<String, RtBound>,
}

/// The full per-iteration trajectory of a global analysis run.
///
/// Where `Diagnostics`' response-time vectors cover the last two
/// iterations, the trace covers all of them, so a diverging run shows
/// *how* an entity grew (linearly? with accelerating increments?) and a
/// slow converging run shows which entity kept the loop alive. It is an
/// export type: the engine stores each run's trajectory by position,
/// and `Diagnostics::trace()` builds this name-keyed view of it on call.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConvergenceTrace {
    iterations: Vec<IterationSnapshot>,
}

impl ConvergenceTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        ConvergenceTrace::default()
    }

    /// Appends the snapshot of one completed global iteration.
    pub fn push(&mut self, snapshot: IterationSnapshot) {
        self.iterations.push(snapshot);
    }

    /// Number of recorded iterations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.iterations.len()
    }

    /// Whether no iteration completed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.iterations.is_empty()
    }

    /// The recorded snapshots, oldest first.
    #[must_use]
    pub fn iterations(&self) -> &[IterationSnapshot] {
        &self.iterations
    }

    /// The last recorded snapshot.
    #[must_use]
    pub fn last(&self) -> Option<&IterationSnapshot> {
        self.iterations.last()
    }

    /// The per-iteration series of one entity (`task:<name>` /
    /// `frame:<name>`); entries are `None` for iterations where the
    /// entity was not analysed.
    #[must_use]
    pub fn series(&self, entity: &str) -> Vec<Option<RtBound>> {
        self.iterations
            .iter()
            .map(|s| s.response_times.get(entity).copied())
            .collect()
    }

    /// Serializes the trajectory as JSONL: one line per iteration,
    /// `{"iteration":1,"response_times":{"frame:F1":{"lower":79,"upper":95},…}}`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for snap in &self.iterations {
            out.push_str(&format!(
                "{{\"iteration\":{},\"response_times\":{{",
                snap.iteration
            ));
            for (i, (entity, rt)) in snap.response_times.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(&mut out, entity);
                out.push_str(&format!(
                    ":{{\"lower\":{},\"upper\":{}}}",
                    rt.lower, rt.upper
                ));
            }
            out.push_str("}}\n");
        }
        out
    }

    /// A compact per-entity convergence table (entity, then `r⁺` per
    /// iteration), for terminal diagnostics.
    #[must_use]
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.iterations.is_empty() {
            return out;
        }
        let mut entities: Vec<&String> = self
            .iterations
            .iter()
            .flat_map(|s| s.response_times.keys())
            .collect();
        entities.sort();
        entities.dedup();
        for entity in entities {
            let series: Vec<String> = self
                .iterations
                .iter()
                .map(|s| {
                    s.response_times
                        .get(entity)
                        .map_or_else(|| "-".to_string(), |rt| rt.upper.to_string())
                })
                .collect();
            let _ = writeln!(out, "  {entity:<24} r+ {}", series.join(" -> "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn snap(iteration: u64, entries: &[(&str, i64, i64)]) -> IterationSnapshot {
        IterationSnapshot {
            iteration,
            response_times: entries
                .iter()
                .map(|(k, lo, hi)| ((*k).to_string(), RtBound::new(*lo, *hi)))
                .collect(),
        }
    }

    #[test]
    fn records_and_queries_series() {
        let mut trace = ConvergenceTrace::new();
        assert!(trace.is_empty());
        trace.push(snap(1, &[("task:rx", 30, 30), ("frame:F", 79, 95)]));
        trace.push(snap(2, &[("task:rx", 30, 30), ("frame:F", 79, 95)]));
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.last().map(|s| s.iteration), Some(2));
        let series = trace.series("frame:F");
        assert_eq!(series, vec![Some(RtBound::new(79, 95)); 2]);
        assert_eq!(trace.series("task:ghost"), vec![None, None]);
        assert_eq!(RtBound::new(79, 95).jitter(), 16);
    }

    #[test]
    fn jsonl_export_is_valid_and_complete() {
        let mut trace = ConvergenceTrace::new();
        trace.push(snap(1, &[("task:rx", 30, 30)]));
        trace.push(snap(2, &[("task:rx", 30, 42)]));
        let out = trace.to_jsonl();
        json::validate_jsonl(&out).expect("valid");
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains("\"upper\":42"));
    }

    #[test]
    fn table_renders_growth() {
        let mut trace = ConvergenceTrace::new();
        trace.push(snap(1, &[("task:gw", 10, 100)]));
        trace.push(snap(2, &[("task:gw", 10, 180)]));
        let table = trace.render_table();
        assert!(table.contains("task:gw"), "{table}");
        assert!(table.contains("100 -> 180"), "{table}");
        assert!(ConvergenceTrace::new().render_table().is_empty());
    }
}
