//! `corpus`: the cold use of the engine.
//!
//! A closed loop over every committed `.hem` scenario × {Flat, FlatSem,
//! Hierarchical} in a seeded order. One op is scenario text →
//! `dsl::parse` → `analyze_robust`. Every op's response-time vector is
//! compared with the committed expectation; after the timed phase one
//! untimed pass checks mode dominance (HEM ≤ Flat ≤ FlatSem per task)
//! and the paper's Table 3 on `paper.hem`.
//!
//! `BENCHMARK.json` does not list this workload, to leave the run-time
//! budget to longer runs of the other two (see the README).

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

use hem_obs::MemoryRecorder;
use hem_system::{analyze_robust, dsl, AnalysisMode, SystemConfig, SystemResults};

use crate::layers::{self, EngineCounters, EngineLayers};
use crate::stats::Rng;
use crate::{for_seconds, read, Args, ClosedLoop, Outcome, CORPUS_DIR, EXPECTED_DIR};

/// Fixed tail percentile of this workload.
const TAIL: f64 = 99.0;

/// Share of a traced run spent measuring the untraced baseline for the
/// tracing-overhead figure.
const BASELINE_SHARE: f64 = 0.3;

/// Passes over the seeded op order per window (about 0.8 s).
const WINDOW_PASSES: usize = 100;

/// The analysis modes, with their names in the expectation file.
pub const MODES: [(AnalysisMode, &str); 3] = [
    (AnalysisMode::Flat, "flat"),
    (AnalysisMode::FlatSem, "flatsem"),
    (AnalysisMode::Hierarchical, "hem"),
];

/// The paper's Table 3: (task, Flat r⁺, HEM r⁺) on `paper.hem`.
const TABLE3: [(&str, i64, i64); 3] = [("T1", 401, 240), ("T2", 1041, 560), ("T3", 1841, 960)];

/// Response times per prefixed entity: `(r⁻, r⁺)` in ticks.
pub type Vector = BTreeMap<String, (i64, i64)>;

/// One corpus file.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// File stem.
    pub name: String,
    /// File text.
    pub text: String,
}

/// Loads every `.hem` file of the corpus, sorted by name.
pub fn load() -> Result<Vec<Scenario>, String> {
    let mut files: Vec<Scenario> = std::fs::read_dir(CORPUS_DIR)
        .map_err(|e| format!("{CORPUS_DIR}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "hem"))
        .map(|path| {
            Ok(Scenario {
                name: path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default(),
                text: read(&path)?,
            })
        })
        .collect::<Result<_, String>>()?;
    if files.is_empty() {
        return Err(format!("{CORPUS_DIR} holds no scenarios"));
    }
    files.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(files)
}

fn vector(results: &SystemResults) -> Vector {
    results
        .response_times()
        .into_iter()
        .map(|(k, rt)| (k, (rt.r_minus.ticks(), rt.r_plus.ticks())))
        .collect()
}

fn expected_path() -> String {
    format!("{EXPECTED_DIR}/corpus.tsv")
}

/// Parses the expectation file: `(file, mode)` → vector.
fn load_expected() -> Result<BTreeMap<(String, String), Vector>, String> {
    let mut expected: BTreeMap<(String, String), Vector> = BTreeMap::new();
    for line in read(expected_path())?
        .lines()
        .filter(|l| !l.starts_with('#'))
    {
        let fields: Vec<&str> = line.split('\t').collect();
        let [file, mode, entity, r_minus, r_plus] = fields[..] else {
            return Err(format!("malformed expectation line {line:?}"));
        };
        let parse = |v: &str| {
            v.parse::<i64>()
                .map_err(|_| format!("bad number in {line:?}"))
        };
        expected
            .entry((file.to_string(), mode.to_string()))
            .or_default()
            .insert(entity.to_string(), (parse(r_minus)?, parse(r_plus)?));
    }
    Ok(expected)
}

/// Writes the expectation file from this build.
pub fn generate_expected() -> Result<(), String> {
    let mut out = String::from("# file\tmode\tentity\tr_minus\tr_plus\n");
    for scenario in load()? {
        let spec = dsl::parse(&scenario.text).map_err(|e| format!("{}: {e}", scenario.name))?;
        for (mode, mode_name) in MODES {
            let robust = analyze_robust(&spec, &SystemConfig::new(mode))
                .map_err(|e| format!("{}: {e}", scenario.name))?;
            for (entity, (lo, hi)) in vector(&robust.results) {
                let _ = writeln!(out, "{}\t{mode_name}\t{entity}\t{lo}\t{hi}", scenario.name);
            }
        }
    }
    std::fs::create_dir_all(EXPECTED_DIR).map_err(|e| e.to_string())?;
    std::fs::write(expected_path(), out).map_err(|e| e.to_string())
}

/// One op of the loop: a (file, mode) pair with its expectation.
struct Op {
    label: String,
    text: String,
    mode: AnalysisMode,
    expected: Vector,
}

/// Loads the corpus and builds the seeded op order.
fn setup(seed: u64, expected: &BTreeMap<(String, String), Vector>) -> Result<Vec<Op>, String> {
    let mut ops = Vec::new();
    for scenario in load()? {
        for (mode, mode_name) in MODES {
            let key = (scenario.name.clone(), mode_name.to_string());
            ops.push(Op {
                label: format!("{}/{mode_name}", scenario.name),
                text: scenario.text.clone(),
                mode,
                expected: expected
                    .get(&key)
                    .cloned()
                    .ok_or_else(|| format!("no expectation for {}", key.0))?,
            });
        }
    }
    Rng::new(seed, 1).shuffle(&mut ops);
    // The cold first analysis of every op.
    for op in &ops {
        let spec = dsl::parse(&op.text).map_err(|e| format!("{}: {e}", op.label))?;
        analyze_robust(&spec, &SystemConfig::new(op.mode)).map_err(|e| e.to_string())?;
    }
    Ok(ops)
}

/// Parses and analyses one op; returns its vector.
fn analyze_op(op: &Op, config: &SystemConfig) -> Result<Vector, String> {
    let spec = dsl::parse(&op.text).map_err(|e| format!("{}: {e}", op.label))?;
    let robust = analyze_robust(&spec, config).map_err(|e| format!("{}: {e}", op.label))?;
    Ok(vector(&robust.results))
}

/// The untimed post-phase checks: dominance on every file, Table 3 on
/// `paper.hem`. Returns the number of checks made.
fn check_dominance(out: &mut Outcome) -> Result<u64, String> {
    let mut checks = 0;
    for scenario in load()? {
        let spec = dsl::parse(&scenario.text).map_err(|e| e.to_string())?;
        let run = |mode| {
            analyze_robust(&spec, &SystemConfig::new(mode))
                .map(|r| r.results)
                .map_err(|e| format!("{}: {e}", scenario.name))
        };
        let (flat, sem, hem) = (
            run(AnalysisMode::Flat)?,
            run(AnalysisMode::FlatSem)?,
            run(AnalysisMode::Hierarchical)?,
        );
        for (task, r_hem) in hem.tasks() {
            checks += 1;
            let r_flat = flat.task(task).map(|r| r.response.r_plus);
            let r_sem = sem.task(task).map(|r| r.response.r_plus);
            let ordered = matches!((r_flat, r_sem), (Some(f), Some(s)) if r_hem.response.r_plus <= f && f <= s);
            if !ordered {
                out.fail(format!(
                    "{}: HEM ≤ Flat ≤ FlatSem violated for {task}",
                    scenario.name
                ));
            }
        }
        if scenario.name == "paper" {
            for (task, flat_r, hem_r) in TABLE3 {
                checks += 1;
                let got = (
                    flat.task(task).map(|r| r.response.r_plus.ticks()),
                    hem.task(task).map(|r| r.response.r_plus.ticks()),
                );
                if got != (Some(flat_r), Some(hem_r)) {
                    out.fail(format!(
                        "paper {task}: Table 3 expects {flat_r}/{hem_r}, got {got:?}"
                    ));
                }
            }
        }
    }
    Ok(checks)
}

/// Per-op means of the traced run.
#[derive(Default)]
struct Traced {
    ops: f64,
    op_s: f64,
    parse_us: f64,
    analyze_us: f64,
    counters: EngineCounters,
    layers: EngineLayers,
}

fn measure(args: &Args, expected: &BTreeMap<(String, String), Vector>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ops = setup(args.seed, expected)?;
    let configs: Vec<SystemConfig> = ops.iter().map(|op| SystemConfig::new(op.mode)).collect();

    let untraced_seconds = if args.trace {
        args.seconds * BASELINE_SHARE
    } else {
        args.seconds
    };
    let mut timed = ClosedLoop::new(ops.len() * WINDOW_PASSES);
    let mut mismatches = Vec::new();
    let mut i = 0usize;
    for_seconds(untraced_seconds, || {
        if !args.trace {
            timed.setup_each_window(|| setup(args.seed, expected))?;
        }
        let op = &ops[i % ops.len()];
        let v = timed.time(|| analyze_op(op, &configs[i % ops.len()]))?;
        if v != op.expected {
            mismatches.push(op.label.clone());
        }
        i += 1;
        Ok(())
    })?;
    out.attempted = timed.ops() as u64;
    for label in mismatches {
        out.fail(format!(
            "{label}: response times differ from {}",
            expected_path()
        ));
    }

    if args.trace {
        let untraced_ops_per_s = timed.wall_ops_per_s();
        let t = trace_phase(args.seconds - untraced_seconds, &ops, i, &mut out)?;
        let n = t.ops;
        let engine_unattributed = layers::report(&mut out, &t.layers, &t.counters, t.analyze_us, n);
        let e2e_us = t.op_s * 1e6 / n;
        let sum_us = (t.parse_us + t.layers.attributed_us()) / n + engine_unattributed;
        out.set("dsl.parse_us", t.parse_us / n);
        out.set(
            "trace.overhead_pct",
            (untraced_ops_per_s / (n / t.op_s) - 1.0) * 100.0,
        );
        out.set("attribution.sum_us", sum_us);
        out.set("attribution.coverage_pct", 100.0 * sum_us / e2e_us);
        out.notes.push(format!(
            "attribution corpus (us/op): dsl.parse {:.2} + analytic.lift {:.2} + hem.pack {:.2} + hem.inner_update {:.2} + hem.unpack {:.2} + busy_window {:.2} + engine.unattributed {:.2} = {:.2} vs traced op {:.2}",
            t.parse_us / n,
            t.layers.lift_us / n,
            t.layers.pack_us / n,
            t.layers.inner_update_us / n,
            t.layers.unpack_us / n,
            t.layers.busy_window_us / n,
            engine_unattributed,
            sum_us,
            e2e_us
        ));
    } else {
        timed.report(&mut out, TAIL);
    }

    out.attempted += check_dominance(&mut out)?;
    Ok(out)
}

fn trace_phase(
    seconds: f64,
    ops: &[Op],
    first: usize,
    out: &mut Outcome,
) -> Result<Traced, String> {
    let mut t = Traced::default();
    let mut i = first;
    for_seconds(seconds, || {
        let op = &ops[i % ops.len()];
        i += 1;
        let (recorder, handle) = MemoryRecorder::metrics_only_handle();
        let config = SystemConfig::new(op.mode).with_recorder(handle);
        let start = Instant::now();
        let spec = dsl::parse(&op.text).map_err(|e| format!("{}: {e}", op.label))?;
        let parsed = Instant::now();
        let robust = analyze_robust(&spec, &config).map_err(|e| format!("{}: {e}", op.label))?;
        let done = Instant::now();
        t.ops += 1.0;
        t.op_s += (done - start).as_secs_f64();
        t.parse_us += (parsed - start).as_secs_f64() * 1e6;
        t.analyze_us += (done - parsed).as_secs_f64() * 1e6;
        t.counters.add(&recorder.snapshot());
        if vector(&robust.results) != op.expected {
            out.fail(format!("{}: traced response times differ", op.label));
        }
        out.attempted += 1;
        let replayed = layers::replay(&spec, &robust.results, None::<&HashSet<String>>)
            .map_err(|e| format!("{}: {e}", op.label))?;
        t.layers.add(&replayed);
        Ok(())
    })?;
    Ok(t)
}

/// Runs the `corpus` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    measure(args, &load_expected()?)
}

/// Shows that the oracle catches a wrong value: with one expected r⁺
/// corrupted, a short run must report `failed_pct` > 0 (and the intact
/// expectation none).
pub fn self_test() -> Result<(), String> {
    let args = Args {
        workload: "corpus".into(),
        seed: 1,
        seconds: 0.5,
        trace: false,
    };
    let expected = load_expected()?;
    let intact = measure(&args, &expected)?;
    let mut corrupted = expected.clone();
    let (key, vector) = corrupted.iter_mut().next().ok_or("empty expectation")?;
    let key = key.clone();
    let (entity, value) = vector.iter_mut().next().ok_or("empty vector")?;
    value.1 += 1;
    let entity = entity.clone();
    let broken = measure(&args, &corrupted)?;
    let pct = |o: &Outcome| 100.0 * o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "self-test: intact failed_pct {:.4}; with {}/{} {entity} r+ off by one failed_pct {:.4}",
        pct(&intact),
        key.0,
        key.1,
        pct(&broken)
    );
    if intact.failed == 0 && broken.failed > 0 {
        println!("self-test: ok");
        Ok(())
    } else {
        Err("self-test: the oracle did not separate intact from corrupted expectations".into())
    }
}
