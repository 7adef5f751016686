//! Ext-B ablation: relative bus speed. `cpu_scale` is the number of bus
//! bit-time ticks per paper time unit — large values mean a fast bus
//! relative to the CPU work. The flat analysis loses the most when
//! frames arrive much faster than tasks execute; when the bus is slow
//! (`cpu_scale = 1`), frame serialization already spaces activations and
//! only the pending low-priority task benefits from HEMs.
//!
//! Run with `cargo run -p hem-bench --bin sweep_bus [--warm]`. Set
//! `HEM_THREADS` to analyse the sweep points in parallel; the printed
//! table is identical for every thread count. With `--warm` the sweep
//! additionally chains every scenario through the incremental
//! warm-start engine and cross-checks that the chained results are
//! bit-identical to the from-scratch table (a `cpu_scale` change
//! re-times every source, so each scenario's damage cone is the whole
//! single-island system — this mode verifies correctness rather than
//! saving work; see `docs/INCREMENTAL.md`).

use hem_bench::incremental::run_chain_warm;
use hem_bench::paper_system::{spec, table3, PaperParams, Table3Row};
use hem_system::parallel::{env_threads, parallel_map};
use hem_system::{AnalysisMode, SystemConfig, SystemSpec};

/// Chains `specs` through the warm-start engine in both modes and
/// verifies each scenario's task WCRTs against the cold table rows.
/// Exits nonzero on any mismatch.
fn verify_warm(specs: &[SystemSpec], rows: &[(Vec<Table3Row>, usize)]) {
    for mode in [AnalysisMode::Flat, AnalysisMode::Hierarchical] {
        let config = SystemConfig::new(mode);
        let run = run_chain_warm(specs, &config);
        for (table_rows, index) in rows {
            let rt = &run.response_times[*index];
            for row in table_rows {
                let expected = if mode == AnalysisMode::Flat {
                    row.r_flat
                } else {
                    row.r_hem
                };
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

fn scales() -> Vec<i64> {
    vec![1, 2, 3, 5, 8, 10, 15, 20, 30, 50]
}

fn main() {
    let warm = std::env::args().any(|a| a == "--warm");
    println!("Relative bus-speed sweep — cpu_scale (ticks per paper unit) vs. reduction");
    println!();
    println!(
        "{:>9} | {:>8} {:>8} {:>6} | {:>8} {:>8} {:>6} | {:>8} {:>8} {:>6}",
        "cpu_scale",
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
    let results = parallel_map(scales(), env_threads(), |cpu_scale| {
        let params = PaperParams {
            cpu_scale,
            ..PaperParams::default()
        };
        (cpu_scale, table3(&params))
    });
    let mut verified = Vec::new();
    for (index, (cpu_scale, outcome)) in results.into_iter().enumerate() {
        match outcome {
            Ok(rows) => {
                print!("{cpu_scale:>9} |");
                for row in &rows {
                    print!(
                        " {:>8} {:>8} {:>5.1}% |",
                        row.r_flat,
                        row.r_hem,
                        row.reduction_percent()
                    );
                }
                println!();
                verified.push((rows, index));
            }
            Err(e) => println!("{cpu_scale:>9} | analysis failed: {e}"),
        }
    }
    if warm {
        println!();
        let specs: Vec<SystemSpec> = scales()
            .into_iter()
            .map(|cpu_scale| {
                spec(&PaperParams {
                    cpu_scale,
                    ..PaperParams::default()
                })
            })
            .collect();
        verify_warm(&specs, &verified);
    }
}
