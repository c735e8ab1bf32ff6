//! Wall-clock scaling of the experiment grid: times every Table II cell at
//! 1/2/4/8 threads inside one process and writes `BENCH_grid.json`.
//!
//! The pool is sized once at the largest measured count and each sweep runs
//! under `rayon::with_max_threads(c, ..)`, so a single invocation yields
//! the whole scaling curve. Every cell's `CellResult` is serialized and
//! compared across thread counts — the run aborts if any cell's output is
//! not byte-identical, so this binary doubles as a determinism check.
//!
//! Flags are the common set (`--replicates`, `--only`, `--fast`, `--out`,
//! `--seed`, `--quiet`); `--threads N` restricts the sweep to counts ≤ N.
//! `--profile PATH` additionally resets the phase profiler around each
//! thread-count sweep and writes a `profile-grid/v1` document with one
//! merged span report per count — the artifact that attributes where the
//! scaling curve flattens (see `docs/PERFORMANCE.md`; the committed
//! `PROFILE_grid.json` at the repo root is produced this way).

use mwu_core::Variant;
use mwu_datasets::full_catalog;
use mwu_experiments::{run_cell, BenchMeta, CommonArgs, GridConfig};
use serde::{Deserialize, Serialize};
use std::process::ExitCode;
use std::time::Instant;

/// Speedup-floor gate for `--check`: the widest-thread-count speedup may
/// drop at most this far below the committed baseline's value before the
/// run fails. Absolute wall-clock is never compared — machines differ —
/// the scaling *shape* is this artifact's contract, and the margin
/// absorbs scheduler noise on shared runners.
const SPEEDUP_NOISE_MARGIN: f64 = 0.25;

#[derive(Serialize)]
struct CellTiming {
    dataset: String,
    size: usize,
    algorithm: String,
    threads: usize,
    wall_ms: f64,
    replicates: u64,
    converged: u64,
    intractable: bool,
}

#[derive(Serialize, Deserialize)]
struct TotalTiming {
    threads: usize,
    wall_ms: f64,
    speedup_vs_1: f64,
}

/// The slice of a committed `BENCH_grid.json` the `--check` gate needs.
/// Fields the gate ignores are not declared, so the baseline can grow
/// without breaking older binaries; `meta`/`warmup_passes` are optional
/// because baselines predating them must still parse.
#[derive(Deserialize)]
struct BaselineGrid {
    schema: String,
    meta: Option<BenchMeta>,
    #[allow(dead_code)]
    warmup_passes: Option<usize>,
    totals: Vec<TotalTiming>,
}

/// One thread-count sweep's merged span report.
#[derive(Serialize)]
struct SweepProfile {
    threads: usize,
    profile: mwu_core::prof::ProfileReport,
}

/// The `--profile` artifact: per-thread-count phase attribution.
#[derive(Serialize)]
struct ProfileGrid {
    schema: String,
    meta: BenchMeta,
    replicates: usize,
    datasets: usize,
    sweeps: Vec<SweepProfile>,
}

#[derive(Serialize)]
struct BenchGrid {
    schema: String,
    meta: BenchMeta,
    pool_threads: usize,
    thread_counts: Vec<usize>,
    replicates: usize,
    datasets: usize,
    /// Untimed full passes run before the timed sweeps (cold-process
    /// warmup; see the module docs). Recorded so a baseline says whether
    /// its 1-thread column was measured warm.
    warmup_passes: usize,
    deterministic_across_thread_counts: bool,
    cells: Vec<CellTiming>,
    totals: Vec<TotalTiming>,
}

/// Compare the widest thread count both reports measured; `Some` is the
/// failure description. Build profiles must match — debug numbers gated
/// against a release baseline (or vice versa) are meaningless.
fn speedup_regression(current: &BenchGrid, baseline: &BaselineGrid) -> Option<String> {
    if let Some(meta) = &baseline.meta {
        if meta.build_profile != current.meta.build_profile {
            return Some(format!(
                "refusing to compare {} build against {} baseline",
                current.meta.build_profile, meta.build_profile
            ));
        }
    }
    let (cur, base) = current.totals.iter().rev().find_map(|c| {
        baseline
            .totals
            .iter()
            .find(|b| b.threads == c.threads)
            .map(|b| (c, b))
    })?;
    let floor = base.speedup_vs_1 - SPEEDUP_NOISE_MARGIN;
    if cur.speedup_vs_1 < floor {
        return Some(format!(
            "{}-thread speedup {:.2}x below floor {:.2}x (baseline {:.2}x - {SPEEDUP_NOISE_MARGIN} noise margin)",
            cur.threads, cur.speedup_vs_1, floor, base.speedup_vs_1
        ));
    }
    None
}

fn main() -> ExitCode {
    let args = CommonArgs::from_env();
    // Read the `--check` baseline before producing any output: CI points
    // `--out` at the directory holding the committed baseline, so writing
    // first would gate the run against itself.
    let baseline: Option<BaselineGrid> = args.check.as_deref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()));
        let parsed: BaselineGrid = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("parse baseline {}: {e:?}", path.display()));
        assert_eq!(parsed.schema, "bench_grid/v1", "baseline schema mismatch");
        parsed
    });
    // Sweep counts must not exceed the pool: a cap above the pool size
    // would silently measure the pool size instead.
    if args.threads.is_none() {
        rayon::set_num_threads(8);
    }
    let pool_threads = rayon::current_num_threads();
    let thread_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&c| c <= pool_threads)
        .collect();

    let datasets: Vec<_> = full_catalog()
        .into_iter()
        .filter(|d| args.selects(&d.name))
        .collect();
    let config = GridConfig {
        replicates: args.replicates,
        max_iterations: 10_000,
        seed: args.seed,
    };
    if !args.quiet {
        eprintln!(
            "bench_grid: {} datasets x 3 algorithms x {} replicates at {:?} threads (pool {})",
            datasets.len(),
            config.replicates,
            thread_counts,
            pool_threads
        );
    }

    // Untimed warmup: without it the first timed sweep runs in a cold
    // process, charging pool spawn, page faults, and lazy-init work to the
    // 1-thread baseline cell and flattering every speedup ratio. One full
    // pass at the unrestricted pool width touches all of that up front.
    let warmup_passes = 1usize;
    for _ in 0..warmup_passes {
        for d in &datasets {
            for &alg in &[Variant::Standard, Variant::Distributed, Variant::Slate] {
                let _ = run_cell(alg, d, &config);
            }
        }
    }

    let profiling = args.profile.is_some();
    let mut cells = Vec::new();
    let mut totals = Vec::new();
    let mut sweep_profiles = Vec::new();
    // Serialized CellResults of the first sweep; later sweeps must match.
    let mut reference: Vec<String> = Vec::new();
    let mut deterministic = true;
    let mut base_ms = None;
    for &threads in &thread_counts {
        if profiling {
            // Each sweep gets its own attribution window so the report
            // shows how phase shares shift as the thread count grows.
            mwu_core::prof::reset();
        }
        let sweep_start = Instant::now();
        let mut sweep_results = Vec::new();
        for d in &datasets {
            for &alg in &[Variant::Standard, Variant::Distributed, Variant::Slate] {
                let start = Instant::now();
                let cell = rayon::with_max_threads(threads, || run_cell(alg, d, &config));
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                cells.push(CellTiming {
                    dataset: d.name.clone(),
                    size: d.size(),
                    algorithm: alg.to_string(),
                    threads,
                    wall_ms,
                    replicates: cell.replicates,
                    converged: cell.converged,
                    intractable: cell.intractable,
                });
                sweep_results.push(serde_json::to_string(&cell).expect("serialize cell"));
            }
        }
        let wall_ms = sweep_start.elapsed().as_secs_f64() * 1e3;
        if profiling {
            sweep_profiles.push(SweepProfile {
                threads,
                profile: mwu_core::prof::snapshot(),
            });
        }
        if reference.is_empty() {
            reference = sweep_results;
        } else if reference != sweep_results {
            deterministic = false;
            eprintln!("error: cell results at {threads} threads differ from the first sweep");
        }
        let base = *base_ms.get_or_insert(wall_ms);
        totals.push(TotalTiming {
            threads,
            wall_ms,
            speedup_vs_1: base / wall_ms,
        });
        if !args.quiet {
            eprintln!("  {threads} threads: {wall_ms:.0} ms");
        }
    }

    let meta = BenchMeta::capture();
    let report = BenchGrid {
        schema: "bench_grid/v1".into(),
        meta: meta.clone(),
        pool_threads,
        thread_counts,
        replicates: config.replicates,
        datasets: datasets.len(),
        warmup_passes,
        deterministic_across_thread_counts: deterministic,
        cells,
        totals,
    };
    std::fs::create_dir_all(&args.out_dir).expect("create output directory");
    let path = args.out_dir.join("BENCH_grid.json");
    std::fs::write(
        &path,
        serde_json::to_string(&report).expect("serialize report"),
    )
    .expect("write BENCH_grid.json");
    if !args.quiet {
        eprintln!("wrote {}", path.display());
    }
    // `--profile` gets the per-sweep attribution document instead of the
    // generic end-of-process report `write_profile` would produce.
    if let Some(profile_path) = &args.profile {
        let doc = ProfileGrid {
            schema: "profile-grid/v1".into(),
            meta,
            replicates: config.replicates,
            datasets: datasets.len(),
            sweeps: sweep_profiles,
        };
        if let Some(parent) = profile_path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create profile directory");
            }
        }
        let json = serde_json::to_string_pretty(&doc).expect("serialize profile") + "\n";
        std::fs::write(profile_path, json)
            .unwrap_or_else(|e| panic!("cannot write profile {}: {e}", profile_path.display()));
        if !args.quiet {
            eprintln!("profile grid written to {}", profile_path.display());
        }
    }
    assert!(
        deterministic,
        "grid output must be identical at every thread count"
    );
    if let Some(baseline) = &baseline {
        if let Some(failure) = speedup_regression(&report, baseline) {
            eprintln!("bench_grid: REGRESSION {failure}");
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            eprintln!(
                "bench_grid: scaling within {SPEEDUP_NOISE_MARGIN} of {}",
                args.check.as_deref().unwrap().display()
            );
        }
    }
    ExitCode::SUCCESS
}
