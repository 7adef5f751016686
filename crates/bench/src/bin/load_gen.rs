//! Load generator for the serving layer (`hem-server`).
//!
//! Drives [`hem_bench::serving::run_serving`] at fleet scale — by
//! default 1200 event-sourced sessions through mutation rounds,
//! injected kills with torn-WAL recovery, deterministic overload
//! shedding, and zero-deadline degradation probes — and prints the
//! `serving` report. Exits non-zero if the run does not demonstrate
//! the robustness machinery (at least 1000 sessions with non-zero
//! recoveries and shed), or if any request misbehaves (the bench
//! panics on protocol errors).
//!
//! ```text
//! cargo run --release -p hem-bench --bin load_gen -- \
//!     [--sessions N] [--rounds N] [--analyze-every N] [--kills N] \
//!     [--shed-capacity N] [--shed-probes N] [--stale-probes N] \
//!     [--data-dir DIR] [--chaos-seed N] [--fault-every N] \
//!     [--trace-out PATH] [--artifacts DIR]
//! ```
//!
//! With `--chaos-seed`, the run replaces the real disk with a seeded
//! deterministic `ChaosStorage` that injects transient storage faults
//! (short reads, torn writes, ENOSPC, dropped fsyncs) roughly every
//! `--fault-every` ops (default 97); per-request retries must absorb
//! every fault, and the run must report a non-zero injected count.
//!
//! `--trace-out` makes the core export its Perfetto-loadable request
//! trace; `--artifacts DIR` copies the flight-recorder dump (and the
//! trace, when enabled) out of the run's storage — including the
//! in-memory chaos disk — onto the real filesystem for CI upload.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hem_bench::serving::{run_serving_traced, ServingParams};
use hem_server::{ChaosOptions, ChaosStorage, RealStorage, Storage, FLIGHT_FILE};

/// Retry budget per request under chaos (1 = fail fast on a real disk).
const CHAOS_ATTEMPTS: usize = 5;

fn usage() -> ! {
    eprintln!(
        "usage: load_gen [--sessions N] [--rounds N] [--analyze-every N] [--kills N] \
         [--shed-capacity N] [--shed-probes N] [--stale-probes N] [--data-dir DIR] \
         [--chaos-seed N] [--fault-every N] [--trace-out PATH] [--artifacts DIR]"
    );
    std::process::exit(2);
}

/// Copies a file out of the run's storage backend (possibly the
/// in-memory chaos disk) onto the real filesystem, retrying past
/// injected transient read faults. Best-effort: a missing file is
/// reported, not fatal — under chaos the final telemetry write itself
/// may have been the faulted op.
fn export_artifact(storage: &Arc<dyn Storage>, src: &Path, out_dir: &Path, attempts: usize) {
    let mut last_err = String::new();
    for _ in 0..attempts.max(1) {
        match storage.read(src) {
            Ok(bytes) => {
                let name = src.file_name().unwrap_or(src.as_os_str());
                let dst = out_dir.join(name);
                match std::fs::write(&dst, &bytes) {
                    Ok(()) => {
                        eprintln!(
                            "load_gen: exported {} ({} bytes)",
                            dst.display(),
                            bytes.len()
                        );
                        return;
                    }
                    Err(e) => {
                        eprintln!("load_gen: cannot write {}: {e}", dst.display());
                        return;
                    }
                }
            }
            Err(e) => last_err = e.to_string(),
        }
    }
    eprintln!(
        "load_gen: artifact {} not exported: {last_err}",
        src.display()
    );
}

fn main() {
    let mut params = ServingParams::load();
    let mut data_dir: Option<PathBuf> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut fault_every: u64 = 97;
    let mut trace_out: Option<PathBuf> = None;
    let mut artifacts: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        let number = || -> usize {
            value.parse().unwrap_or_else(|_| {
                eprintln!("load_gen: {flag} needs an unsigned integer, got {value:?}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--sessions" => params.sessions = number(),
            "--rounds" => params.rounds = number().max(1),
            "--analyze-every" => params.analyze_every = number().max(1),
            "--kills" => params.kills = number(),
            "--shed-capacity" => params.shed_capacity = number().max(1),
            "--shed-probes" => params.shed_probes = number(),
            "--stale-probes" => params.stale_probes = number(),
            "--data-dir" => data_dir = Some(PathBuf::from(&value)),
            "--chaos-seed" => chaos_seed = Some(number() as u64),
            "--fault-every" => fault_every = number() as u64,
            "--trace-out" => trace_out = Some(PathBuf::from(&value)),
            "--artifacts" => artifacts = Some(PathBuf::from(&value)),
            _ => usage(),
        }
    }

    let (dir, ephemeral) = match data_dir {
        Some(dir) => (dir, false),
        None => (
            std::env::temp_dir().join(format!("hem-load-gen-{}", std::process::id())),
            true,
        ),
    };
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!(
        "load_gen: {} sessions, {} rounds, {} kills, queue {} (+{} overflow), {} stale probes",
        params.sessions,
        params.rounds,
        params.kills,
        params.shed_capacity,
        params.shed_probes,
        params.stale_probes
    );
    let (storage, attempts): (Arc<dyn Storage>, usize) = match chaos_seed {
        Some(seed) => {
            eprintln!(
                "load_gen: chaos disk enabled (seed {seed}, ~1 fault per {fault_every} ops, \
                 {CHAOS_ATTEMPTS} attempts per request)"
            );
            (
                Arc::new(ChaosStorage::new(ChaosOptions {
                    seed,
                    crash_at_op: None,
                    fault_every,
                })),
                CHAOS_ATTEMPTS,
            )
        }
        None => (Arc::new(RealStorage), 1),
    };
    let report = run_serving_traced(
        &dir,
        &params,
        storage.clone(),
        attempts,
        trace_out.as_deref(),
    );
    if let Some(out_dir) = &artifacts {
        if let Err(e) = std::fs::create_dir_all(out_dir) {
            eprintln!("load_gen: cannot create {}: {e}", out_dir.display());
        } else {
            export_artifact(&storage, &dir.join(FLIGHT_FILE), out_dir, attempts);
            if let Some(trace) = &trace_out {
                export_artifact(&storage, trace, out_dir, attempts);
            }
        }
    }
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }

    println!("serving: {}", report.to_json());
    println!(
        "{} sessions, {} requests in {:.1} ms ({:.0} req/s), p50 {:.3} ms, p99 {:.3} ms",
        report.sessions,
        report.requests,
        report.wall_ms,
        report.req_s,
        report.p50_ms,
        report.p99_ms
    );
    println!(
        "{} WAL recoveries, {} shed, {} stale served",
        report.recoveries, report.shed, report.stale_served
    );
    println!(
        "{} checkpoints, {} bytes compacted, {} storage faults injected",
        report.checkpoints, report.compacted_bytes, report.injected_faults
    );
    println!("--- metrics exposition ---");
    print!("{}", report.exposition);

    // The ISSUE acceptance bar: fleet scale with the failure paths
    // actually exercised.
    if report.sessions < 1000 || report.recoveries == 0 || report.shed == 0 {
        eprintln!(
            "load_gen: robustness bar not met (need >= 1000 sessions with non-zero recoveries and shed)"
        );
        std::process::exit(1);
    }
    if report.checkpoints == 0 || report.compacted_bytes == 0 {
        eprintln!("load_gen: checkpoint path not exercised");
        std::process::exit(1);
    }
    if chaos_seed.is_some() && report.injected_faults == 0 {
        eprintln!("load_gen: chaos disk injected no faults (raise the rate or the load)");
        std::process::exit(1);
    }
    if !report.exposition.contains("service_us") {
        eprintln!("load_gen: metrics exposition missing the service-latency histograms");
        std::process::exit(1);
    }
}
