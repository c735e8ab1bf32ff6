//! Service load generator: replays the same many-tenant job mix through
//! `mwrepaird` at 1/2/4/8 threads and writes `BENCH_service.json`.
//!
//! Each sweep builds a fresh work directory, submits an identical
//! generated batch (mixed synthetic scenario families, Standard / Slate /
//! Distributed sessions, one deliberately under-budgeted tenant), runs the
//! daemon under `rayon::with_max_threads`, and then byte-compares every
//! session's trace and report against the first sweep — so one invocation
//! yields the scaling curve *and* re-proves the determinism contract at
//! scale. The run aborts if any byte differs.
//!
//! Flags: `--sessions N` (default 1000), `--tenants N` (default 50),
//! `--seed S`, `--out DIR` (default `results`), `--slice N` (default 8),
//! `--fast` (fewer sessions, same per-session work, so `sessions_per_sec`
//! stays comparable to full runs), `--threads N` (restrict the sweep to
//! counts ≤ N), `--check BASELINE.json` (fail on a >2× regression in peak
//! sessions-per-second, or on a per-cell session-latency regression past
//! an explicit disk-noise margin — see [`LATENCY_NOISE_FACTOR`]),
//! `--max-fsync-share F` (fail if the 1-thread cell spends more than
//! fraction `F` of its wall clock inside fsync + the group-commit
//! barrier), `--quiet`.

use mwrepair::VariantChoice;
use mwrepair_service::{
    encode_line, BudgetSpec, Daemon, DaemonConfig, JobLine, JobSpec, ScenarioSpec,
};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One thread-count cell of the sweep.
#[derive(Serialize, Deserialize)]
struct ServiceCell {
    threads: usize,
    wall_ms: f64,
    sessions_per_sec: f64,
    latency_ms_p50: f64,
    latency_ms_p99: f64,
    completed: usize,
    repaired: usize,
    budget_exhausted: usize,
    rounds: u64,
    /// Thread-time spent inside `fsync` during this cell, attributed by
    /// the phase profiler (sums across workers, so it can exceed
    /// `wall_ms`). `Option` so old baselines still parse.
    fsync_thread_ms: Option<f64>,
    /// `wall_ms` minus the wall-clock share of durability work (fsync
    /// plus barrier thread-time, divided by the cell's thread count) —
    /// the compute-side residual of the cell. `Option` so old baselines
    /// still parse.
    compute_ms: Option<f64>,
    /// Thread-time spent inside the group-commit `sync_barrier` during
    /// this cell, attributed by the phase profiler. `Option` so old
    /// baselines still parse.
    sync_barrier_thread_ms: Option<f64>,
    /// Batched-sync accounting from the daemon summary: staged files
    /// made durable through barriers, and the barrier latency histogram.
    /// `Option` so old baselines still parse.
    io_syncs_batched: Option<u64>,
}

#[derive(Serialize, Deserialize)]
struct BenchService {
    schema: String,
    /// Shared provenance block. `Option` so `--check` still parses
    /// baselines committed before the block existed.
    meta: Option<mwu_experiments::BenchMeta>,
    sessions: usize,
    tenants: usize,
    slice_iterations: usize,
    pool_threads: usize,
    thread_counts: Vec<usize>,
    deterministic_across_thread_counts: bool,
    cells: Vec<ServiceCell>,
}

/// Six small synthetic scenario families; sessions cycle through them, so
/// the daemon's pool cache serves ~`sessions/6` sessions per entry.
fn families(seed: u64) -> Vec<ScenarioSpec> {
    (0..6u64)
        .map(|f| ScenarioSpec::Synthetic {
            name: format!("load-family-{f}"),
            options: 16 + 2 * f as usize,
            x_star: 4 + f as usize,
            statements: 150 + 25 * f as usize,
            tests: 8 + (f as usize % 3),
            // Pools hold ~options mutations, so the repairing families
            // need a rate ≳ 1/options to actually contain a repairer.
            repair_rate: if f % 2 == 0 { 0.0 } else { 0.05 },
            world_seed: seed.wrapping_add(100 + f),
            pool_size: Some(16 + 2 * f as usize),
        })
        .collect()
}

/// The generated batch: `sessions` jobs over `tenants` tenants plus a
/// deliberately tight budget for tenant `t000`, as canonical JSONL bytes.
fn generate_batch(sessions: usize, tenants: usize, seed: u64) -> Vec<u8> {
    let families = families(seed);
    let mut doc = String::new();
    doc.push_str(&encode_line(&JobLine::Budget(BudgetSpec {
        tenant: "t000".into(),
        max_evals: Some(1_500),
        max_ms: None,
    })));
    doc.push('\n');
    for i in 0..sessions {
        let algorithm = match i % 10 {
            3 => VariantChoice::Distributed,
            n if n % 2 == 0 => VariantChoice::Standard,
            _ => VariantChoice::Slate,
        };
        // Distributed probes its whole agent population each cycle, so it
        // gets a lower cycle cap for comparable per-session work.
        let max_iterations = if algorithm == VariantChoice::Distributed {
            6 + i % 5
        } else {
            10 + (i * 11) % 21
        };
        let job = JobSpec {
            id: format!("job-{i:05}"),
            tenant: format!("t{:03}", i % tenants.max(1)),
            scenario: families[i % families.len()].clone(),
            algorithm,
            seed: seed.wrapping_mul(1_000_000_007).wrapping_add(i as u64),
            max_iterations,
        };
        doc.push_str(&encode_line(&JobLine::Job(job)));
        doc.push('\n');
    }
    doc.into_bytes()
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Every session's `(trace bytes, report bytes)` in submission order.
fn collect_outputs(daemon: &Daemon) -> Vec<(String, Vec<u8>, Vec<u8>)> {
    daemon
        .sessions()
        .iter()
        .map(|s| {
            let trace = std::fs::read(s.trace_path()).unwrap_or_default();
            let report = std::fs::read(s.report_path()).unwrap_or_default();
            (s.job().id.clone(), trace, report)
        })
        .collect()
}

/// Multiplicative headroom a cell's session latency gets over the
/// baseline before `--check` fails. Low-thread cells are disk-bound:
/// their p50/p99 swing several-fold with host writeback pressure even
/// when the daemon is unchanged, so the latency gate is a coarse
/// catastrophic-regression tripwire, not a precision benchmark — noise
/// belongs in this named margin, never in a silently loose comparison.
const LATENCY_NOISE_FACTOR: f64 = 4.0;

/// Absolute latency slack (milliseconds) added on top of
/// [`LATENCY_NOISE_FACTOR`]: a near-zero baseline cell (sub-millisecond
/// p50 on a fast disk) would otherwise fail on any jitter at all.
const LATENCY_NOISE_FLOOR_MS: f64 = 250.0;

fn check_regression(baseline_path: &Path, report: &BenchService) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {}: {e}", baseline_path.display()))?;
    let baseline: BenchService =
        serde_json::from_str(text.trim()).map_err(|e| format!("baseline does not parse: {e}"))?;
    if baseline.schema != report.schema {
        return Err(format!(
            "baseline schema {:?} != {:?}",
            baseline.schema, report.schema
        ));
    }
    // Gate on the best cell of each sweep rather than per thread count:
    // low-thread cells are fsync-latency-bound (wall time ≫ CPU time), so
    // their sessions/s swings several-fold with disk writeback pressure,
    // while peak throughput tracks actual daemon capacity.
    let peak = |cells: &[ServiceCell]| {
        cells
            .iter()
            .map(|c| c.sessions_per_sec)
            .fold(0.0f64, f64::max)
    };
    let (base_peak, new_peak) = (peak(&baseline.cells), peak(&report.cells));
    if new_peak > 0.0 && base_peak / new_peak > 2.0 {
        return Err(format!(
            "peak throughput regression: {new_peak:.1} sessions/s vs baseline {base_peak:.1} (>2x)"
        ));
    }
    // Per-cell latency gate, with the disk-noise margin made explicit.
    // Cells are matched by thread count so a partial sweep still checks.
    for cell in &report.cells {
        let Some(base) = baseline.cells.iter().find(|b| b.threads == cell.threads) else {
            continue;
        };
        for (name, got, reference) in [
            ("p50", cell.latency_ms_p50, base.latency_ms_p50),
            ("p99", cell.latency_ms_p99, base.latency_ms_p99),
        ] {
            let allowed = reference * LATENCY_NOISE_FACTOR + LATENCY_NOISE_FLOOR_MS;
            if got > allowed {
                return Err(format!(
                    "session latency regression at {} threads: {name} {got:.0} ms vs \
                     baseline {reference:.0} ms (allowed {allowed:.0} ms = \
                     {reference:.0} x {LATENCY_NOISE_FACTOR} + {LATENCY_NOISE_FLOOR_MS} noise margin)",
                    cell.threads
                ));
            }
        }
    }
    Ok(())
}

fn main() {
    let mut sessions: usize = 1000;
    let mut tenants: usize = 50;
    let mut seed: u64 = 1;
    let mut out_dir = PathBuf::from("results");
    let mut slice: usize = 8;
    let mut fast = false;
    let mut threads: Option<usize> = None;
    let mut check: Option<PathBuf> = None;
    let mut max_fsync_share: Option<f64> = None;
    let mut quiet = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |flag: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        let num = |flag: &str, v: String| -> u64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} {v:?}: not a valid number");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--sessions" => sessions = num("--sessions", take("--sessions")) as usize,
            "--tenants" => tenants = num("--tenants", take("--tenants")) as usize,
            "--seed" => seed = num("--seed", take("--seed")),
            "--out" => out_dir = PathBuf::from(take("--out")),
            "--slice" => slice = (num("--slice", take("--slice")) as usize).max(1),
            "--fast" => fast = true,
            "--threads" => threads = Some(num("--threads", take("--threads")) as usize),
            "--check" => check = Some(PathBuf::from(take("--check"))),
            "--max-fsync-share" => {
                let v = take("--max-fsync-share");
                let share: f64 = v.parse().unwrap_or_else(|_| {
                    eprintln!("--max-fsync-share {v:?}: not a valid number");
                    std::process::exit(2);
                });
                if !(0.0..=1.0).contains(&share) {
                    eprintln!("--max-fsync-share {share}: must be in [0, 1]");
                    std::process::exit(2);
                }
                max_fsync_share = Some(share);
            }
            "--quiet" => quiet = true,
            other => {
                eprintln!(
                    "unknown flag {other:?}\nusage: loadgen [--sessions N] [--tenants N] \
                     [--seed S] [--out DIR] [--slice N] [--fast] [--threads N] \
                     [--check BASELINE.json] [--max-fsync-share F] [--quiet]"
                );
                std::process::exit(2);
            }
        }
    }
    if fast {
        sessions = sessions.min(120);
        tenants = tenants.min(12);
    }
    match threads {
        Some(n) => {
            rayon::set_num_threads(n.max(1));
        }
        None => {
            rayon::set_num_threads(8);
        }
    }
    let pool_threads = rayon::current_num_threads();
    let thread_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&c| c <= pool_threads)
        .collect();
    if !quiet {
        eprintln!(
            "loadgen: {sessions} sessions over {tenants} tenants, slice {slice}, \
             sweeping {thread_counts:?} threads (pool {pool_threads})"
        );
    }

    // The profiler attributes each cell's fsync cost. Observational only:
    // the byte-compare below re-proves traces and reports are unchanged.
    mwu_core::prof::set_enabled(true);

    let batch = generate_batch(sessions, tenants, seed);
    let work_root = out_dir.join("loadgen_work");
    let mut cells = Vec::new();
    let mut reference: Vec<(String, Vec<u8>, Vec<u8>)> = Vec::new();
    let mut deterministic = true;
    for &count in &thread_counts {
        mwu_core::prof::reset();
        let workdir = work_root.join(format!("t{count}"));
        let _ = std::fs::remove_dir_all(&workdir);
        let mut config = DaemonConfig::new(&workdir);
        config.slice_iterations = slice;
        config.quiet = true;
        let mut daemon = Daemon::open(config).unwrap_or_else(|e| {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        });
        daemon.submit_bytes(&batch).unwrap_or_else(|e| {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        });
        let start = Instant::now();
        let summary = rayon::with_max_threads(count, || daemon.run()).unwrap_or_else(|e| {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        });
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let profile = mwu_core::prof::snapshot();
        let fsync_thread_ms = profile.total_ns(mwu_core::prof::Phase::Fsync) as f64 / 1e6;
        let sync_barrier_thread_ms =
            profile.total_ns(mwu_core::prof::Phase::SyncBarrier) as f64 / 1e6;
        let durability_thread_ms = fsync_thread_ms + sync_barrier_thread_ms;
        let compute_ms = (wall_ms - durability_thread_ms / count as f64).max(0.0);

        let outputs = collect_outputs(&daemon);
        if reference.is_empty() {
            reference = outputs;
        } else if reference != outputs {
            deterministic = false;
            for (i, (id, trace, report)) in outputs.iter().enumerate() {
                let (rid, rtrace, rreport) = &reference[i];
                if id != rid || trace != rtrace || report != rreport {
                    eprintln!(
                        "error: session {id} bytes at {count} threads differ from 1-thread run"
                    );
                    break;
                }
            }
        }
        let _ = std::fs::remove_dir_all(&workdir);

        let mut latencies = summary.session_wall_ms.clone();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let finished = latencies.len();
        cells.push(ServiceCell {
            threads: count,
            wall_ms,
            sessions_per_sec: finished as f64 / (wall_ms / 1e3),
            latency_ms_p50: percentile(&latencies, 0.50),
            latency_ms_p99: percentile(&latencies, 0.99),
            completed: summary.completed,
            repaired: summary.repaired,
            budget_exhausted: summary.budget_exhausted,
            rounds: summary.rounds,
            fsync_thread_ms: Some(fsync_thread_ms),
            compute_ms: Some(compute_ms),
            sync_barrier_thread_ms: Some(sync_barrier_thread_ms),
            io_syncs_batched: Some(summary.io_syncs_batched),
        });
        if !quiet {
            let c = cells.last().expect("cell just pushed");
            eprintln!(
                "  {count} threads: {wall_ms:.0} ms ({compute_ms:.0} compute + \
                 {fsync_thread_ms:.0} fsync + {sync_barrier_thread_ms:.0} barrier thread-ms, \
                 {} files batched), {:.1} sessions/s, p50 {:.0} ms, \
                 p99 {:.0} ms, {} completed / {} budget-exhausted",
                summary.io_syncs_batched,
                c.sessions_per_sec,
                c.latency_ms_p50,
                c.latency_ms_p99,
                c.completed,
                c.budget_exhausted
            );
        }
    }
    let _ = std::fs::remove_dir_all(&work_root);

    let report = BenchService {
        schema: "bench_service/v1".into(),
        meta: Some(mwu_experiments::BenchMeta::capture()),
        sessions,
        tenants,
        slice_iterations: slice,
        pool_threads,
        thread_counts,
        deterministic_across_thread_counts: deterministic,
        cells,
    };
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let path = out_dir.join("BENCH_service.json");
    std::fs::write(
        &path,
        serde_json::to_string(&report).expect("serialize report"),
    )
    .expect("write BENCH_service.json");
    if !quiet {
        eprintln!("wrote {}", path.display());
    }
    if let Some(baseline) = check {
        if let Err(e) = check_regression(&baseline, &report) {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        }
        if !quiet {
            eprintln!("baseline check passed ({})", baseline.display());
        }
    }
    if let Some(ceiling) = max_fsync_share {
        // The 1-thread cell's wall-clock fraction spent on durability
        // (one-shot fsyncs + the batched barrier). Group commit must keep
        // it under the ceiling.
        let cell = report
            .cells
            .iter()
            .find(|c| c.threads == 1)
            .unwrap_or_else(|| {
                eprintln!("loadgen: --max-fsync-share needs the 1-thread cell in the sweep");
                std::process::exit(2);
            });
        let durability_ms =
            cell.fsync_thread_ms.unwrap_or(0.0) + cell.sync_barrier_thread_ms.unwrap_or(0.0);
        let share = if cell.wall_ms > 0.0 {
            durability_ms / cell.wall_ms
        } else {
            0.0
        };
        if share > ceiling {
            eprintln!(
                "loadgen: 1-thread fsync share {share:.3} exceeds ceiling {ceiling:.3} \
                 ({durability_ms:.0} durability ms of {:.0} wall ms)",
                cell.wall_ms
            );
            std::process::exit(1);
        }
        if !quiet {
            eprintln!("fsync-share check passed: {share:.3} <= {ceiling:.3}");
        }
    }
    assert!(
        deterministic,
        "service outputs must be byte-identical at every thread count"
    );
}
