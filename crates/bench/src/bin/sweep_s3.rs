//! Ext-A ablation: sweeps the period of the pending source S3 — the one
//! parameter the available scan of the paper lost — and shows that the
//! Table 3 *shape* (HEM dominates flat, biggest win for the pending
//! low-priority task) is robust to the choice.
//!
//! Run with `cargo run -p hem-bench --bin sweep_s3 [--warm]`. Set
//! `HEM_THREADS` to analyse the sweep points in parallel; the printed
//! table is identical for every thread count. With `--warm` the sweep
//! additionally chains every scenario through the incremental
//! warm-start engine and cross-checks that the chained results are
//! bit-identical to the from-scratch table (the single-island paper
//! system is always fully inside the damage cone, so this mode
//! verifies correctness rather than saving work — the replicated grid
//! in `profile_analysis` is where reuse pays; see
//! `docs/INCREMENTAL.md`).

use hem_bench::incremental::run_chain_warm;
use hem_bench::paper_system::{spec, table3, PaperParams};
use hem_system::parallel::{env_threads, parallel_map};
use hem_system::{AnalysisMode, SystemConfig, SystemSpec};

/// Chains `specs` through the warm-start engine in both modes and
/// verifies each scenario's task WCRTs against the cold table rows.
/// Exits nonzero on any mismatch.
fn verify_warm(specs: &[SystemSpec], rows: &[(Vec<hem_bench::paper_system::Table3Row>, usize)]) {
    for (mode, pick) in [
        (AnalysisMode::Flat, 0usize),
        (AnalysisMode::Hierarchical, 1),
    ] {
        let config = SystemConfig::new(mode);
        let run = run_chain_warm(specs, &config);
        for (table_rows, index) in rows {
            let rt = &run.response_times[*index];
            for row in table_rows {
                let expected = if pick == 0 { row.r_flat } else { row.r_hem };
                let got = rt[&format!("task:{}", row.task)].r_plus;
                if got != expected {
                    eprintln!(
                        "warm-start mismatch at sweep point {index} ({mode:?}, {}): \
                         chained {got} != cold {expected}",
                        row.task
                    );
                    std::process::exit(1);
                }
            }
        }
        println!(
            "warm chain ({mode:?}): {} scenario(s), mean cone {:.0}%, {} replayed, {} fallback(s) — identical to cold table",
            run.response_times.len(),
            100.0 * run.mean_chained_cone_fraction(),
            run.replayed_results,
            run.full_fallbacks
        );
    }
}

fn main() {
    let warm = std::env::args().any(|a| a == "--warm");
    println!("S3-period sweep — WCRT flat vs. HEM (reduction %)");
    println!();
    println!(
        "{:>6} | {:>8} {:>8} {:>7} | {:>8} {:>8} {:>7} | {:>8} {:>8} {:>7}",
        "P(S3)",
        "T1 flat",
        "T1 HEM",
        "red%",
        "T2 flat",
        "T2 HEM",
        "red%",
        "T3 flat",
        "T3 HEM",
        "red%"
    );
    let periods: Vec<i64> = (300..=1200).step_by(100).collect();
    let results = parallel_map(periods, env_threads(), |s3_period| {
        let params = PaperParams {
            s3_period,
            ..PaperParams::default()
        };
        (s3_period, table3(&params))
    });
    let mut verified = Vec::new();
    for (index, (s3_period, outcome)) in results.into_iter().enumerate() {
        match outcome {
            Ok(rows) => {
                print!("{s3_period:>6} |");
                for row in &rows {
                    print!(
                        " {:>8} {:>8} {:>6.1}% |",
                        row.r_flat,
                        row.r_hem,
                        row.reduction_percent()
                    );
                }
                println!();
                verified.push((rows, index));
            }
            Err(e) => println!("{s3_period:>6} | analysis failed: {e}"),
        }
    }
    if warm {
        println!();
        let specs: Vec<SystemSpec> = (300..=1200)
            .step_by(100)
            .map(|s3_period| {
                spec(&PaperParams {
                    s3_period,
                    ..PaperParams::default()
                })
            })
            .collect();
        verify_warm(&specs, &verified);
    }
}
