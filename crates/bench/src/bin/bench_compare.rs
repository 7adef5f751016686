//! Compares `BENCH_analysis.json` profiles: the CI benchmark-regression
//! and cross-leg determinism gates.
//!
//! Three modes:
//!
//! * `bench_compare <fresh> <baseline>` — the **regression gate**:
//!   deterministic fields (iteration counts, recorder counters, cone
//!   fractions, scenario counts) must match the committed baseline
//!   exactly; wall-clock fields may regress by at most the tolerance
//!   (default 30 %, `HEM_BENCH_TOLERANCE` overrides, e.g. `0.5`) plus
//!   an absolute slack (default 25 ms, `HEM_BENCH_SLACK_MS` overrides)
//!   that keeps sub-millisecond micro-measurements from flaking on
//!   timer noise — their work is pinned exactly by the counter fields
//!   anyway; speedup fields are ratios of two such timings and may
//!   fall below the baseline by at most the *compounded* relative
//!   tolerance (`(1 + t)²`, both timings drifting adversarially). Prints a markdown delta table (appended to
//!   `$GITHUB_STEP_SUMMARY` when set) and exits `1` on any regression.
//! * `bench_compare --cross <a> <b>` — the **determinism gate**: every
//!   deterministic field must be bit-identical between two profiles
//!   (the `HEM_THREADS=1` and `=4` CI legs); wall-clock, speedup, and
//!   thread-count fields are ignored. This turns the
//!   `docs/PARALLELISM.md` guarantee into an enforced check.
//! * `bench_compare --ratchet <new> <old> [<waivers>]` — the **baseline
//!   ratchet**: compares a regenerated baseline against the parent
//!   commit's copy. A deterministic field may not change and a gated
//!   field (timings, speedups, the overhead ceiling and the floors) may
//!   not get worse, unless a line of the waiver file (default
//!   `bench/baselines/WAIVERS`) names the field's path, its old and new
//!   value and a reason: `<path> <old> -> <new> <reason>`, with `-` for
//!   a field that is absent on that side. The file is an append-only
//!   log; a waiver matches only its exact transition.
//! * `bench_compare --report <fresh>` — prints the sweep, incremental,
//!   and serving summaries of one profile, failing loudly when the
//!   file is missing, malformed, or lacks the expected sections
//!   (replacing the former inline-python report step that silently
//!   assumed them).
//!
//! Deterministic vs. not: `wall_ms*` / `*_ms` fields (latency
//! percentiles included) and the `span_us/*`, `queue_wait_us/*`, and
//! `service_us/*` histogram families measure wall time; `speedup`
//! fields are ratios of wall times; `threads` records the CI leg and
//! `req_s` is a throughput over wall time. `obs.overhead_pct` is a
//! ratio of wall times gated against an **absolute** ceiling
//! ([`OBS_OVERHEAD_LIMIT_PCT`]) rather than the baseline, so serving
//! telemetry can never silently grow past its budget, and its spread
//! `obs.overhead_iqr_pct` is reported only; likewise
//! `explore.pruned_pct` is gated against the absolute
//! [`EXPLORE_PRUNED_FLOOR_PCT`] floor and `explore.configs_per_s` is
//! throughput over wall time (reported only). Everything else
//! in the profile — including every count in the `serving` section and
//! `obs.spans` / `obs.dump_bytes` — is covered by the engine's
//! determinism guarantee and must not drift.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use hem_obs::json::{parse, JsonValue};

/// The waiver log `--ratchet` reads when no file is named.
const DEFAULT_WAIVERS: &str = "bench/baselines/WAIVERS";

/// Absolute ceiling on `obs.overhead_pct`: serving telemetry may cost
/// at most this much wall time relative to a no-op recorder.
const OBS_OVERHEAD_LIMIT_PCT: f64 = 5.0;

/// Absolute floor on `analytic.speedup`: the closed-form curve layer
/// must keep the replicated-grid profile at least this much faster
/// than the generic path (see `docs/CURVES.md`). Gated against the
/// floor rather than the baseline so a lucky baseline measurement can
/// never ratchet the requirement above what the layer promises.
const ANALYTIC_SPEEDUP_FLOOR: f64 = 3.0;

/// Absolute floor on `explore.pruned_pct`: the exploration benchmark's
/// necessary tests must keep eliminating at least half the candidate
/// space before any fixed point runs (see `docs/EXPLORATION.md`).
/// `pruned_pct` is a ratio of two deterministic counts, so unlike the
/// speedup floors a failure here means the pruning logic itself — not
/// the machine — changed; the counts next to it are gated exactly.
const EXPLORE_PRUNED_FLOOR_PCT: f64 = 50.0;

/// The absolute floor (and its display unit) a [`Class::Floored`]
/// field is gated against.
fn floor_for(path: &str) -> (f64, &str) {
    if path.contains("pruned_pct") {
        (EXPLORE_PRUNED_FLOOR_PCT, "%")
    } else {
        (ANALYTIC_SPEEDUP_FLOOR, "x")
    }
}

/// How a flattened profile field is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Deterministic: must match exactly.
    Exact,
    /// Wall-clock time: larger is worse, tolerance applies.
    Timing,
    /// Wall-clock ratio: smaller is worse, tolerance applies.
    Speedup,
    /// Wall-clock ratio gated against an absolute ceiling, independent
    /// of the baseline (which only documents the last measurement).
    Bounded,
    /// Ratio gated against an absolute floor ([`floor_for`] picks
    /// [`ANALYTIC_SPEEDUP_FLOOR`] or [`EXPLORE_PRUNED_FLOOR_PCT`] by
    /// path), independent of the baseline.
    Floored,
    /// Environment description (thread counts): never compared.
    Informational,
}

fn classify(path: &str) -> Class {
    if path.contains("span_us/") || path.contains("queue_wait_us/") || path.contains("service_us/")
    {
        // Wall-clock histogram families (engine spans plus the serving
        // latency split): reported, never compared.
        return Class::Informational;
    }
    if path == "analytic.speedup" {
        // The headline fast-path speedup carries an absolute promise.
        return Class::Floored;
    }
    if path == "explore.pruned_pct" {
        // The exploration pruning rate carries an absolute promise;
        // being a ratio of two exactly-gated counts it is also
        // deterministic, but the floor is the contract worth stating.
        return Class::Floored;
    }
    if path == "explore.configs_per_s" {
        // Candidate throughput is deterministic work over wall time:
        // reported, never compared (the counts pin the work exactly).
        return Class::Informational;
    }
    if path == "obs.overhead_iqr_pct" {
        // The spread of the overhead pairs: context for the gated
        // median next to it, never compared.
        return Class::Informational;
    }
    if path == "analytic.hit_rate_pct" || path == "analytic.fig2.speedup" {
        // The hit rate is pinned exactly by the `lifts` / `fallbacks`
        // counts next to it, and the bare Fig. 2 ratio is an
        // Amdahl-capped micro-measurement: both reported, never gated.
        return Class::Informational;
    }
    let last = path.rsplit('.').next().unwrap_or(path);
    if last.starts_with("wall_ms") || last.ends_with("_ms") {
        // `wall_ms*`, `p50_ms`, `p99_ms`, ... — anything measured in
        // wall-clock milliseconds.
        Class::Timing
    } else if last == "speedup" {
        Class::Speedup
    } else if last == "overhead_pct" {
        Class::Bounded
    } else if last == "threads" || last == "req_s" {
        // `req_s` is requests over wall time: pure timing residue with
        // no one-sided "worse" direction worth gating, so it is
        // reported but never compared.
        Class::Informational
    } else {
        Class::Exact
    }
}

/// A scalar leaf of the profile document.
#[derive(Debug, Clone, PartialEq)]
enum Leaf {
    Number(f64),
    Text(String),
}

impl std::fmt::Display for Leaf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Leaf::Number(n) => write!(f, "{n}"),
            Leaf::Text(s) => write!(f, "{s}"),
        }
    }
}

fn flatten(value: &JsonValue, path: String, out: &mut BTreeMap<String, Leaf>) {
    match value {
        JsonValue::Object(fields) => {
            for (key, child) in fields {
                let child_path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                flatten(child, child_path, out);
            }
        }
        JsonValue::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten(child, format!("{path}[{i}]"), out);
            }
        }
        JsonValue::Number(n) => {
            out.insert(path, Leaf::Number(*n));
        }
        JsonValue::String(s) => {
            out.insert(path, Leaf::Text(s.clone()));
        }
        JsonValue::Bool(b) => {
            out.insert(path, Leaf::Text(b.to_string()));
        }
        JsonValue::Null => {
            out.insert(path, Leaf::Text("null".into()));
        }
    }
}

/// One row of the delta table.
struct Delta {
    path: String,
    left: Option<Leaf>,
    right: Option<Leaf>,
    note: String,
    failed: bool,
}

/// Downgrades a field to [`Class::Informational`] when its path
/// contains any of the `--ignore` substrings (e.g. `--ignore analytic_`
/// for the CI analytic-vs-generic differential leg, where only the
/// lifted path attempts lifts).
fn effective_class(path: &str, ignores: &[String]) -> Class {
    if ignores.iter().any(|s| path.contains(s.as_str())) {
        Class::Informational
    } else {
        classify(path)
    }
}

/// Compares two flattened profiles. `cross` switches from the
/// regression rules to the determinism rules.
fn compare(
    fresh: &BTreeMap<String, Leaf>,
    baseline: &BTreeMap<String, Leaf>,
    tolerance: f64,
    slack_ms: f64,
    cross: bool,
    ignores: &[String],
) -> Vec<Delta> {
    let mut rows = Vec::new();
    let keys: std::collections::BTreeSet<&String> = fresh.keys().chain(baseline.keys()).collect();
    for key in keys {
        let class = effective_class(key, ignores);
        let f = fresh.get(key.as_str());
        let b = baseline.get(key.as_str());
        let mut push = |note: String, failed: bool| {
            rows.push(Delta {
                path: key.clone(),
                left: b.cloned(),
                right: f.cloned(),
                note,
                failed,
            });
        };
        if class == Class::Informational {
            continue;
        }
        if class == Class::Bounded || class == Class::Floored {
            // Gated against an absolute bound, not the baseline: the
            // baseline value only documents the last measurement. The
            // cross-leg gate skips these ratios and compares the exact
            // counts and timings they derive from instead.
            if cross {
                continue;
            }
            match (class, f) {
                (Class::Bounded, Some(Leaf::Number(value))) if *value > OBS_OVERHEAD_LIMIT_PCT => {
                    push(
                        format!("above the absolute {OBS_OVERHEAD_LIMIT_PCT}% ceiling"),
                        true,
                    );
                }
                (Class::Bounded, Some(Leaf::Number(_))) => {
                    push(
                        format!("within the {OBS_OVERHEAD_LIMIT_PCT}% ceiling"),
                        false,
                    );
                }
                (Class::Floored, Some(Leaf::Number(value))) => {
                    let (floor, unit) = floor_for(key);
                    if *value < floor {
                        push(format!("below the absolute {floor}{unit} floor"), true);
                    } else {
                        push(format!("above the {floor}{unit} floor"), false);
                    }
                }
                (_, Some(Leaf::Text(_))) => push("not a number".into(), true),
                (_, None) => push("missing in fresh profile".into(), true),
                (_, _) => unreachable!("bounded/floored arms cover all shapes"),
            }
            continue;
        }
        let (Some(f), Some(b)) = (f, b) else {
            let side = if f.is_none() { "fresh" } else { "baseline" };
            push(format!("missing in {side} profile"), true);
            continue;
        };
        match class {
            Class::Exact => {
                if f != b {
                    push("deterministic field differs".into(), true);
                }
            }
            Class::Timing | Class::Speedup if cross => {}
            Class::Timing => {
                let (Leaf::Number(f), Leaf::Number(b)) = (f, b) else {
                    push("not a number".into(), true);
                    continue;
                };
                let limit = b * (1.0 + tolerance) + slack_ms;
                if *f > limit {
                    push(
                        format!(
                            "slower than baseline by more than {:.0}% (+{slack_ms} ms slack)",
                            tolerance * 100.0
                        ),
                        true,
                    );
                } else {
                    push(delta_note(*b, *f), false);
                }
            }
            Class::Speedup => {
                let (Leaf::Number(f), Leaf::Number(b)) = (f, b) else {
                    push("not a number".into(), true);
                    continue;
                };
                // A speedup is a ratio of two timings, each of which is
                // individually allowed to drift by `tolerance`, so the
                // ratio may legitimately move by the compound factor.
                let limit = b / ((1.0 + tolerance) * (1.0 + tolerance));
                if *f < limit {
                    push(
                        format!(
                            "speedup below baseline by more than {:.0}% compounded",
                            tolerance * 100.0
                        ),
                        true,
                    );
                } else {
                    push(delta_note(*b, *f), false);
                }
            }
            Class::Bounded | Class::Floored | Class::Informational => {
                unreachable!("filtered above")
            }
        }
    }
    rows
}

/// One line of the waiver file: an accepted transition of one field.
#[derive(Debug, Clone, PartialEq)]
struct Waiver {
    path: String,
    old: String,
    new: String,
    reason: String,
}

/// Parses the waiver file: `<path> <old> -> <new> <reason>` per line;
/// blank lines and `#` comments are skipped.
fn parse_waivers(text: &str) -> Result<Vec<Waiver>, String> {
    let mut waivers = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        let (Some(path), Some(old), Some("->"), Some(new)) =
            (words.next(), words.next(), words.next(), words.next())
        else {
            return Err(format!(
                "waiver line {}: expected `<path> <old> -> <new> <reason>`",
                n + 1
            ));
        };
        let reason = words.collect::<Vec<_>>().join(" ");
        if reason.is_empty() {
            return Err(format!("waiver line {}: a waiver needs a reason", n + 1));
        }
        waivers.push(Waiver {
            path: path.into(),
            old: old.into(),
            new: new.into(),
            reason,
        });
    }
    Ok(waivers)
}

/// Whether a waiver's value text denotes `leaf` (`-` for absent).
fn denotes(text: &str, leaf: Option<&Leaf>) -> bool {
    match leaf {
        None => text == "-",
        Some(Leaf::Number(n)) => text.parse::<f64>().is_ok_and(|t| t == *n),
        Some(Leaf::Text(s)) => text == s,
    }
}

/// Compares a regenerated baseline against its predecessor: every
/// change of a deterministic field and every worsening of a gated one
/// fails unless a waiver names that exact transition.
fn ratchet(
    new: &BTreeMap<String, Leaf>,
    old: &BTreeMap<String, Leaf>,
    waivers: &[Waiver],
) -> Vec<Delta> {
    let mut rows = Vec::new();
    let keys: std::collections::BTreeSet<&String> = new.keys().chain(old.keys()).collect();
    for key in keys {
        let class = classify(key);
        let (n, o) = (new.get(key.as_str()), old.get(key.as_str()));
        // A new field adds a gate; a dropped one loosens it.
        let (Some(old_leaf), false) = (o, class == Class::Informational) else {
            continue;
        };
        let moved = match (n, old_leaf) {
            (None, _) => Some("field dropped"),
            (Some(Leaf::Number(nv)), Leaf::Number(ov)) => match class {
                Class::Timing | Class::Bounded => (nv > ov).then_some("got worse"),
                Class::Speedup | Class::Floored => (nv < ov).then_some("got worse"),
                _ => (nv != ov).then_some("deterministic field changed"),
            },
            (Some(leaf), _) => (leaf != old_leaf).then_some("field changed"),
        };
        let Some(what) = moved else {
            continue;
        };
        let waiver = waivers
            .iter()
            .find(|w| w.path == *key && denotes(&w.old, o) && denotes(&w.new, n));
        rows.push(Delta {
            path: key.clone(),
            left: o.cloned(),
            right: n.cloned(),
            note: waiver.map_or_else(|| what.to_string(), |w| format!("waived: {}", w.reason)),
            failed: waiver.is_none(),
        });
    }
    rows
}

fn delta_note(baseline: f64, fresh: f64) -> String {
    if baseline == 0.0 {
        return "ok".into();
    }
    format!("{:+.1}%", 100.0 * (fresh - baseline) / baseline)
}

fn markdown_table(title: &str, rows: &[Delta], exact_checked: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "### {title}\n");
    let _ = writeln!(out, "| field | baseline | fresh | status |");
    let _ = writeln!(out, "|---|---|---|---|");
    for row in rows {
        let show = |leaf: &Option<Leaf>| {
            leaf.as_ref()
                .map_or_else(|| "—".to_string(), ToString::to_string)
        };
        let status = if row.failed {
            format!("❌ {}", row.note)
        } else {
            format!("✅ {}", row.note)
        };
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} |",
            row.path,
            show(&row.left),
            show(&row.right),
            status
        );
    }
    let failures = rows.iter().filter(|r| r.failed).count();
    let _ = writeln!(
        out,
        "\n{exact_checked} deterministic field(s) checked, {failures} failure(s).\n"
    );
    out
}

fn load(path: &str) -> JsonValue {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read profile {path}: {e}")));
    parse(&text).unwrap_or_else(|e| die(&format!("profile {path} is not valid JSON: {e}")))
}

fn die(message: &str) -> ! {
    eprintln!("bench_compare: {message}");
    std::process::exit(2);
}

fn env_fraction(name: &str, default: f64, max: f64) -> f64 {
    match std::env::var(name) {
        Ok(v) => v
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|t| (0.0..max).contains(t))
            .unwrap_or_else(|| die(&format!("{name} must be a number in [0, {max}), got {v:?}"))),
        Err(_) => default,
    }
}

fn tolerance() -> f64 {
    env_fraction("HEM_BENCH_TOLERANCE", 0.30, 10.0)
}

fn slack_ms() -> f64 {
    env_fraction("HEM_BENCH_SLACK_MS", 25.0, 100_000.0)
}

/// Prints the sweep and incremental summary of one profile, failing
/// loudly when a section or field is missing.
fn report(doc: &JsonValue) -> String {
    let section = |name: &str| {
        doc.get(name)
            .unwrap_or_else(|| die(&format!("profile has no `{name}` section")))
    };
    let field = |obj: &JsonValue, section_name: &str, name: &str| {
        obj.get(name)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| die(&format!("profile field `{section_name}.{name}` is missing")))
    };
    let sweep = section("sweep");
    let incremental = section("incremental");
    let serving = section("serving");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scenario sweep: {} scenarios, {} thread(s), {:.2}x speedup",
        field(sweep, "sweep", "scenarios"),
        field(sweep, "sweep", "threads"),
        field(sweep, "sweep", "speedup"),
    );
    let _ = writeln!(
        out,
        "incremental chain: {} scenarios over {} replicas, {:.2}x warm speedup, mean cone {:.1}%, {} replayed, {} fallback(s)",
        field(incremental, "incremental", "scenarios"),
        field(incremental, "incremental", "replicas"),
        field(incremental, "incremental", "speedup"),
        100.0 * field(incremental, "incremental", "mean_cone_fraction"),
        field(incremental, "incremental", "replayed_results"),
        field(incremental, "incremental", "full_fallbacks"),
    );
    let analytic = section("analytic");
    let _ = writeln!(
        out,
        "analytic fast path: {:.2}x on the replicated grid (floor {ANALYTIC_SPEEDUP_FLOOR}x), {:.2}x on the Fig. 2 grid, {} lift(s), {} fallback(s), {:.1}% hit rate",
        field(analytic, "analytic", "speedup"),
        analytic
            .get("fig2")
            .and_then(|f| f.get("speedup"))
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| die("profile field `analytic.fig2.speedup` is missing")),
        field(analytic, "analytic", "lifts"),
        field(analytic, "analytic", "fallbacks"),
        field(analytic, "analytic", "hit_rate_pct"),
    );
    let explore = section("explore");
    let _ = writeln!(
        out,
        "exploration: {} candidate(s), {} pruned ({:.1}%, floor {EXPLORE_PRUNED_FLOOR_PCT}%), {} feasible, {:.0} configs/s, mean cone {:.1}%",
        field(explore, "explore", "configs"),
        field(explore, "explore", "pruned"),
        field(explore, "explore", "pruned_pct"),
        field(explore, "explore", "feasible"),
        field(explore, "explore", "configs_per_s"),
        100.0 * field(explore, "explore", "mean_cone_fraction"),
    );
    let _ = writeln!(
        out,
        "serving: {} sessions, {} requests, p50 {:.3} ms, p99 {:.3} ms, {} recoveries, {} shed, {} stale served",
        field(serving, "serving", "sessions"),
        field(serving, "serving", "requests"),
        field(serving, "serving", "p50_ms"),
        field(serving, "serving", "p99_ms"),
        field(serving, "serving", "recoveries"),
        field(serving, "serving", "shed"),
        field(serving, "serving", "stale_served"),
    );
    let _ = writeln!(
        out,
        "durability: {} checkpoints compacting {} WAL bytes, {} storage faults injected",
        field(serving, "serving", "checkpoints"),
        field(serving, "serving", "compacted_bytes"),
        field(serving, "serving", "injected_faults"),
    );
    let obs = section("obs");
    let _ = writeln!(
        out,
        "telemetry: {:.2}% overhead vs no-op recorder (bound {OBS_OVERHEAD_LIMIT_PCT}%), {} trace spans, {} flight-dump bytes",
        field(obs, "obs", "overhead_pct"),
        field(obs, "obs", "spans"),
        field(obs, "obs", "dump_bytes"),
    );
    out
}

fn append_step_summary(markdown: &str) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    use std::io::Write as _;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(markdown.as_bytes()));
    if let Err(e) = appended {
        eprintln!("bench_compare: cannot append to GITHUB_STEP_SUMMARY ({path}): {e}");
    }
}

fn main() -> ExitCode {
    // `--ignore <substring>` is repeatable and position-independent:
    // any field whose flattened path contains one of the substrings is
    // downgraded to Informational (reported, never gated). The CI
    // analytic differential leg relies on this to diff the generic
    // against the lifted profile while excusing the lift/fallback
    // tallies, which only the lifted path records.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut ignores: Vec<String> = Vec::new();
    let mut args: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--ignore" {
            match it.next() {
                Some(pattern) if !pattern.is_empty() => ignores.push(pattern),
                _ => die("--ignore requires a non-empty substring"),
            }
        } else {
            args.push(arg);
        }
    }
    match args.as_slice() {
        [flag, path] if flag == "--report" => {
            print!("{}", report(&load(path)));
            ExitCode::SUCCESS
        }
        [flag, new_path, old_path, rest @ ..] if flag == "--ratchet" && rest.len() <= 1 => {
            let mut new = BTreeMap::new();
            let mut old = BTreeMap::new();
            flatten(&load(new_path), String::new(), &mut new);
            flatten(&load(old_path), String::new(), &mut old);
            let waiver_path = rest.first().map_or(DEFAULT_WAIVERS, String::as_str);
            let text = match std::fs::read_to_string(waiver_path) {
                Ok(text) => text,
                Err(_) if rest.is_empty() => String::new(),
                Err(e) => die(&format!("cannot read waivers {waiver_path}: {e}")),
            };
            let waivers = parse_waivers(&text).unwrap_or_else(|e| die(&e));
            let rows = ratchet(&new, &old, &waivers);
            let failures = rows.iter().filter(|r| r.failed).count();
            let checked = old
                .keys()
                .filter(|k| classify(k) != Class::Informational)
                .count();
            let table = markdown_table("Baseline ratchet", &rows, checked);
            print!("{table}");
            append_step_summary(&table);
            if failures == 0 {
                println!("baseline ratchet: OK ({} waived change(s))", rows.len());
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "baseline ratchet: {failures} unwaived change(s) from {old_path} to {new_path}; \
                     add `<path> <old> -> <new> <reason>` lines to {waiver_path}"
                );
                ExitCode::FAILURE
            }
        }
        [flag, a, b] if flag == "--cross" => {
            let mut left = BTreeMap::new();
            let mut right = BTreeMap::new();
            flatten(&load(a), String::new(), &mut left);
            flatten(&load(b), String::new(), &mut right);
            let checked = left
                .keys()
                .filter(|k| effective_class(k, &ignores) == Class::Exact)
                .count();
            let rows = compare(&left, &right, 0.0, 0.0, true, &ignores);
            let failures: Vec<&Delta> = rows.iter().filter(|r| r.failed).collect();
            let table = markdown_table("Cross-leg determinism", &rows, checked);
            print!("{table}");
            append_step_summary(&table);
            if failures.is_empty() {
                println!("cross-leg determinism: OK ({checked} deterministic fields identical)");
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "cross-leg determinism: {} field(s) differ between {a} and {b}",
                    failures.len()
                );
                ExitCode::FAILURE
            }
        }
        [fresh_path, baseline_path] => {
            let fresh_doc = load(fresh_path);
            let mut fresh = BTreeMap::new();
            let mut baseline = BTreeMap::new();
            flatten(&fresh_doc, String::new(), &mut fresh);
            flatten(&load(baseline_path), String::new(), &mut baseline);
            let checked = fresh
                .keys()
                .filter(|k| effective_class(k, &ignores) == Class::Exact)
                .count();
            let rows = compare(&fresh, &baseline, tolerance(), slack_ms(), false, &ignores);
            let failures = rows.iter().filter(|r| r.failed).count();
            let table = markdown_table("Benchmark regression gate", &rows, checked);
            print!("{table}");
            append_step_summary(&table);
            print!("{}", report(&fresh_doc));
            if failures == 0 {
                println!("benchmark regression gate: OK");
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "benchmark regression gate: {failures} regression(s) against {baseline_path}"
                );
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!(
                "usage: bench_compare [--ignore <substring>]... <fresh.json> <baseline.json>\n       bench_compare [--ignore <substring>]... --cross <a.json> <b.json>\n       bench_compare --ratchet <new.json> <old.json> [<waivers>]\n       bench_compare --report <fresh.json>"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> BTreeMap<String, Leaf> {
        let mut out = BTreeMap::new();
        flatten(&parse(text).unwrap(), String::new(), &mut out);
        out
    }

    #[test]
    fn classification_covers_profile_shapes() {
        assert_eq!(classify("phases.flat.wall_ms"), Class::Timing);
        assert_eq!(classify("sweep.wall_ms_parallel"), Class::Timing);
        assert_eq!(classify("incremental.speedup"), Class::Speedup);
        assert_eq!(classify("threads"), Class::Informational);
        assert_eq!(classify("sweep.threads"), Class::Informational);
        assert_eq!(
            classify("phases.flat.metrics.histograms.span_us/analyze.mean"),
            Class::Informational
        );
        assert_eq!(
            classify("phases.flat.metrics.counters.cache_hits"),
            Class::Exact
        );
        assert_eq!(classify("incremental.mean_cone_fraction"), Class::Exact);
        assert_eq!(classify("serving.p50_ms"), Class::Timing);
        assert_eq!(classify("serving.p99_ms"), Class::Timing);
        assert_eq!(classify("serving.wall_ms"), Class::Timing);
        assert_eq!(classify("serving.req_s"), Class::Informational);
        assert_eq!(classify("serving.recoveries"), Class::Exact);
        assert_eq!(classify("serving.shed"), Class::Exact);
        assert_eq!(classify("serving.stale_served"), Class::Exact);
        assert_eq!(classify("serving.checkpoints"), Class::Exact);
        assert_eq!(classify("serving.compacted_bytes"), Class::Exact);
        assert_eq!(classify("serving.injected_faults"), Class::Exact);
        assert_eq!(classify("obs.overhead_pct"), Class::Bounded);
        assert_eq!(classify("obs.overhead_iqr_pct"), Class::Informational);
        assert_eq!(classify("obs.spans"), Class::Exact);
        assert_eq!(classify("obs.dump_bytes"), Class::Exact);
        assert_eq!(
            classify("serving.histograms.queue_wait_us/mutate.p99"),
            Class::Informational
        );
        assert_eq!(
            classify("serving.histograms.service_us/analyze.mean"),
            Class::Informational
        );
        assert_eq!(classify("analytic.speedup"), Class::Floored);
        assert_eq!(classify("analytic.hit_rate_pct"), Class::Informational);
        assert_eq!(classify("analytic.fig2.speedup"), Class::Informational);
        assert_eq!(classify("analytic.fig2.wall_ms_generic"), Class::Timing);
        assert_eq!(classify("analytic.lifts"), Class::Exact);
        assert_eq!(classify("analytic.fallbacks"), Class::Exact);
        assert_eq!(classify("analytic.scenarios"), Class::Exact);
        assert_eq!(classify("explore.pruned_pct"), Class::Floored);
        assert_eq!(classify("explore.configs_per_s"), Class::Informational);
        assert_eq!(classify("explore.wall_ms"), Class::Timing);
        assert_eq!(classify("explore.configs"), Class::Exact);
        assert_eq!(classify("explore.feasible"), Class::Exact);
        assert_eq!(classify("explore.pruned"), Class::Exact);
        assert_eq!(classify("explore.mean_cone_fraction"), Class::Exact);
    }

    #[test]
    fn explore_pruning_is_gated_against_its_own_floor() {
        // Above the 50% floor passes even when far below the baseline…
        let base = doc(r#"{"explore":{"pruned_pct":90.0}}"#);
        let lower = doc(r#"{"explore":{"pruned_pct":50.0}}"#);
        assert!(!compare(&lower, &base, 0.3, 0.0, false, &[])[0].failed);
        // …and below it fails even when above the baseline, with the
        // percent floor in the note rather than the speedup one.
        let low_base = doc(r#"{"explore":{"pruned_pct":30.0}}"#);
        let still_low = doc(r#"{"explore":{"pruned_pct":49.9}}"#);
        let rows = compare(&still_low, &low_base, 0.3, 0.0, false, &[]);
        assert!(rows[0].failed && rows[0].note.contains("50% floor"));
        // Derived from exactly-gated counts: the cross leg skips it.
        assert!(compare(&lower, &base, 0.0, 0.0, true, &[]).is_empty());
    }

    #[test]
    fn analytic_speedup_is_gated_against_the_absolute_floor() {
        // Above the floor passes even when far below the baseline…
        let base = doc(r#"{"analytic":{"speedup":9.0}}"#);
        let slower = doc(r#"{"analytic":{"speedup":3.1}}"#);
        assert!(!compare(&slower, &base, 0.3, 0.0, false, &[])[0].failed);
        // …and below the floor fails even when above the baseline.
        let low_base = doc(r#"{"analytic":{"speedup":2.0}}"#);
        let still_low = doc(r#"{"analytic":{"speedup":2.9}}"#);
        let rows = compare(&still_low, &low_base, 0.3, 0.0, false, &[]);
        assert!(rows[0].failed && rows[0].note.contains("floor"));
        // A wall-time ratio: the cross-leg determinism gate skips it.
        assert!(compare(&slower, &base, 0.0, 0.0, true, &[]).is_empty());
    }

    #[test]
    fn ignored_substrings_downgrade_fields_to_informational() {
        let a = doc(r#"{"counters":{"cache_hits":7,"packing_ops":3}}"#);
        let b = doc(r#"{"counters":{"cache_hits":9,"packing_ops":3}}"#);
        // Without the flag the differing counter fails both gates…
        assert!(compare(&a, &b, 0.3, 0.0, false, &[])
            .iter()
            .any(|r| r.failed));
        assert!(compare(&a, &b, 0.0, 0.0, true, &[])
            .iter()
            .any(|r| r.failed));
        // …with it the field is skipped entirely, while others stay gated.
        let ignores = vec!["cache_".to_string()];
        assert!(compare(&a, &b, 0.3, 0.0, false, &ignores)
            .iter()
            .all(|r| !r.failed));
        assert!(compare(&a, &b, 0.0, 0.0, true, &ignores)
            .iter()
            .all(|r| !r.failed));
        let c = doc(r#"{"counters":{"cache_hits":9,"packing_ops":4}}"#);
        assert!(compare(&a, &c, 0.0, 0.0, true, &ignores)
            .iter()
            .any(|r| r.path == "counters.packing_ops" && r.failed));
        // The floored headline is also ignorable (the differential leg
        // runs with the fast path disabled, where no speedup exists).
        let no_speedup = doc(r#"{"analytic":{"speedup":1.0}}"#);
        let ignores = vec!["analytic".to_string()];
        assert!(compare(&no_speedup, &no_speedup, 0.3, 0.0, false, &ignores)
            .iter()
            .all(|r| !r.failed));
    }

    #[test]
    fn overhead_is_gated_against_the_absolute_ceiling() {
        // Below the ceiling passes even when far above the baseline…
        let base = doc(r#"{"obs":{"overhead_pct":0.4}}"#);
        let grown = doc(r#"{"obs":{"overhead_pct":4.9}}"#);
        assert!(!compare(&grown, &base, 0.3, 0.0, false, &[])[0].failed);
        // …and above the ceiling fails even when below the baseline.
        let high_base = doc(r#"{"obs":{"overhead_pct":9.0}}"#);
        let still_high = doc(r#"{"obs":{"overhead_pct":5.1}}"#);
        let rows = compare(&still_high, &high_base, 0.3, 0.0, false, &[]);
        assert!(rows[0].failed && rows[0].note.contains("ceiling"));
        // A wall-time ratio: the cross-leg determinism gate skips it.
        assert!(compare(&grown, &base, 0.0, 0.0, true, &[]).is_empty());
    }

    #[test]
    fn exact_fields_must_match() {
        let a = doc(r#"{"x":{"iterations":5},"wall_ms":100}"#);
        let b = doc(r#"{"x":{"iterations":6},"wall_ms":100}"#);
        let rows = compare(&a, &b, 0.3, 0.0, false, &[]);
        assert!(rows.iter().any(|r| r.path == "x.iterations" && r.failed));
    }

    #[test]
    fn timing_tolerance_is_one_sided() {
        let base = doc(r#"{"wall_ms":100}"#);
        let slower_ok = doc(r#"{"wall_ms":125}"#);
        let slower_bad = doc(r#"{"wall_ms":131}"#);
        let faster = doc(r#"{"wall_ms":10}"#);
        assert!(!compare(&slower_ok, &base, 0.3, 0.0, false, &[])[0].failed);
        assert!(compare(&slower_bad, &base, 0.3, 0.0, false, &[])[0].failed);
        assert!(!compare(&faster, &base, 0.3, 0.0, false, &[])[0].failed);
    }

    #[test]
    fn timing_slack_absorbs_micro_noise() {
        // 0.1 ms → 0.3 ms is 3x but far below the absolute slack.
        let base = doc(r#"{"wall_ms":0.1}"#);
        let noisy = doc(r#"{"wall_ms":0.3}"#);
        assert!(compare(&noisy, &base, 0.3, 0.0, false, &[])[0].failed);
        assert!(!compare(&noisy, &base, 0.3, 25.0, false, &[])[0].failed);
        // The slack does not hide a real multi-second regression.
        let big = doc(r#"{"wall_ms":1000}"#);
        let regressed = doc(r#"{"wall_ms":1500}"#);
        assert!(compare(&regressed, &big, 0.3, 25.0, false, &[])[0].failed);
    }

    #[test]
    fn speedup_tolerance_is_one_sided_and_compounded() {
        // Floor at tolerance 0.3 is 2.6 / 1.3² ≈ 1.538: a ratio of two
        // timings each within tolerance may drift by the compound.
        let base = doc(r#"{"speedup":2.6}"#);
        assert!(!compare(&doc(r#"{"speedup":2.1}"#), &base, 0.3, 0.0, false, &[])[0].failed);
        assert!(!compare(&doc(r#"{"speedup":1.6}"#), &base, 0.3, 0.0, false, &[])[0].failed);
        assert!(compare(&doc(r#"{"speedup":1.5}"#), &base, 0.3, 0.0, false, &[])[0].failed);
        assert!(!compare(&doc(r#"{"speedup":9.0}"#), &base, 0.3, 0.0, false, &[])[0].failed);
    }

    #[test]
    fn cross_mode_ignores_wall_time_but_not_counters() {
        let a = doc(r#"{"wall_ms":100,"speedup":2.0,"threads":1,"counters":{"cache_hits":7}}"#);
        let b = doc(r#"{"wall_ms":900,"speedup":0.5,"threads":4,"counters":{"cache_hits":7}}"#);
        assert!(compare(&a, &b, 0.0, 0.0, true, &[])
            .iter()
            .all(|r| !r.failed));
        let c = doc(r#"{"wall_ms":900,"speedup":0.5,"threads":4,"counters":{"cache_hits":8}}"#);
        let rows = compare(&a, &c, 0.0, 0.0, true, &[]);
        assert!(rows
            .iter()
            .any(|r| r.path == "counters.cache_hits" && r.failed));
    }

    #[test]
    fn missing_fields_fail_loudly() {
        let a = doc(r#"{"counters":{"cache_hits":7}}"#);
        let b = doc(r#"{"counters":{}}"#);
        let rows = compare(&a, &b, 0.3, 0.0, false, &[]);
        assert!(rows.iter().any(|r| r.failed && r.note.contains("missing")));
    }

    #[test]
    fn waiver_lines_parse_and_need_a_reason() {
        let text = "# log\n\nanalytic.lifts 1052 -> 928 lifts carried across iterations\n";
        let waivers = parse_waivers(text).expect("well-formed");
        assert_eq!(
            waivers,
            [Waiver {
                path: "analytic.lifts".into(),
                old: "1052".into(),
                new: "928".into(),
                reason: "lifts carried across iterations".into(),
            }]
        );
        assert!(parse_waivers("analytic.lifts 1052 -> 928")
            .expect_err("no reason")
            .contains("reason"));
        assert!(parse_waivers("analytic.lifts 1052 928 why").is_err());
    }

    #[test]
    fn ratchet_fails_unwaived_exact_changes_and_worsened_gates() {
        let old = doc(r#"{"lifts":1052,"wall_ms":10,"speedup":2.0,"pruned_pct":60,
                          "obs":{"overhead_pct":5.0},"threads":1}"#);
        // Unchanged, improved gates and informational drift pass.
        let better = doc(r#"{"lifts":1052,"wall_ms":9,"speedup":2.5,"pruned_pct":60,
                             "obs":{"overhead_pct":4.0},"threads":4,"added":3}"#);
        assert!(ratchet(&better, &old, &[]).is_empty());
        // An exact change and each worsened gate fail without waivers.
        let worse = doc(r#"{"lifts":928,"wall_ms":11,"speedup":1.9,"pruned_pct":60,
                            "obs":{"overhead_pct":6.0}}"#);
        let rows = ratchet(&worse, &old, &[]);
        let failed: Vec<&str> = rows
            .iter()
            .filter(|r| r.failed)
            .map(|r| r.path.as_str())
            .collect();
        assert_eq!(failed, ["lifts", "obs.overhead_pct", "speedup", "wall_ms"]);
        // A waiver covers exactly its transition.
        let waive = |path: &str, old: &str, new: &str| Waiver {
            path: path.into(),
            old: old.into(),
            new: new.into(),
            reason: "measured".into(),
        };
        let waivers = [
            waive("lifts", "1052", "928"),
            waive("wall_ms", "10", "11"),
            waive("speedup", "2", "1.9"),
            waive("obs.overhead_pct", "5.0", "7.0"),
        ];
        let rows = ratchet(&worse, &old, &waivers);
        let failed: Vec<&str> = rows
            .iter()
            .filter(|r| r.failed)
            .map(|r| r.path.as_str())
            .collect();
        assert_eq!(failed, ["obs.overhead_pct"]);
        assert!(rows
            .iter()
            .any(|r| r.path == "lifts" && r.note == "waived: measured"));
    }

    #[test]
    fn ratchet_fails_a_dropped_field_unless_waived() {
        let old = doc(r#"{"explore":{"configs":897,"feasible":189}}"#);
        let new = doc(r#"{"explore":{"configs":897}}"#);
        let rows = ratchet(&new, &old, &[]);
        assert!(rows.len() == 1 && rows[0].failed && rows[0].note == "field dropped");
        let waiver = Waiver {
            path: "explore.feasible".into(),
            old: "189".into(),
            new: "-".into(),
            reason: "section merged".into(),
        };
        assert!(ratchet(&new, &old, &[waiver]).iter().all(|r| !r.failed));
    }

    #[test]
    fn report_renders_all_sections() {
        let doc = parse(
            r#"{"sweep":{"scenarios":38,"threads":4,"speedup":2.5},
                "incremental":{"scenarios":17,"replicas":8,"speedup":2.3,
                               "mean_cone_fraction":0.125,"replayed_results":3136,
                               "full_fallbacks":1},
                "serving":{"sessions":96,"requests":820,"wall_ms":150.0,
                           "req_s":5466.7,"p50_ms":0.02,"p99_ms":1.5,
                           "recoveries":8,"shed":16,"stale_served":8,
                           "checkpoints":96,"compacted_bytes":50240,
                           "injected_faults":0},
                "analytic":{"scenarios":41,"lifts":1052,"fallbacks":0,
                            "hit_rate_pct":100.0,"wall_ms_generic":23.5,
                            "wall_ms_analytic":6.3,"speedup":3.73,
                            "fig2":{"scenarios":38,"wall_ms_generic":2.5,
                                    "wall_ms_analytic":2.3,"speedup":1.09}},
                "explore":{"configs":897,"feasible":189,"pruned":588,
                           "pruned_pct":65.552,"configs_per_s":30800.7,
                           "mean_cone_fraction":0.994898,"wall_ms":29.1},
                "obs":{"overhead_pct":1.25,"spans":420,"dump_bytes":8192}}"#,
        )
        .unwrap();
        let text = report(&doc);
        assert!(text.contains("38 scenarios"));
        assert!(text.contains("3.73x on the replicated grid"));
        assert!(text.contains("1052 lift(s), 0 fallback(s), 100.0% hit rate"));
        assert!(text.contains("897 candidate(s), 588 pruned (65.6%, floor 50%)"));
        assert!(text.contains("189 feasible, 30801 configs/s, mean cone 99.5%"));
        assert!(text.contains("2.30x warm speedup"));
        assert!(text.contains("mean cone 12.5%"));
        assert!(text.contains("96 sessions"));
        assert!(text.contains("8 recoveries, 16 shed, 8 stale served"));
        assert!(text.contains("96 checkpoints compacting 50240 WAL bytes"));
        assert!(text.contains("telemetry: 1.25% overhead"));
        assert!(text.contains("420 trace spans, 8192 flight-dump bytes"));
    }
}
