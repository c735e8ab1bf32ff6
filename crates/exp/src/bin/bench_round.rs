//! Per-round kernel microbenchmark: times ns/round of `plan` + `update`
//! for each MWU variant across k ∈ {64, 256, 1024, 4096} and writes
//! `BENCH_round.json` (schema `bench_round/v1`, seed artifact committed at
//! the repo root like `BENCH_grid.json`).
//!
//! Unlike `bench_grid`, which measures outer-loop wall clock and thread
//! scaling, this binary isolates the *inner* round kernels: the bandit is
//! noise-free ([`NoiseModel::Exact`] draws no RNG), rewards go into a
//! reused buffer, and each cell is timed as one tight loop, so the number
//! reported is the per-round arithmetic + allocation cost of the algorithm
//! itself. Future PRs read the committed file as the perf trajectory.
//!
//! Flags (hand-rolled parser — this binary's flag set diverges from
//! `CommonArgs`): `--out DIR`, `--seed N`, `--fast` (rounds ÷ 10, CI
//! smoke), `--quiet`, `--only NAME` (one algorithm), and `--check PATH`
//! which exits non-zero if any (algorithm, k) cell regresses to more than
//! 2× the ns/round recorded in the baseline file at PATH.

use mwu_core::bandit::random_values;
use mwu_core::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Arm counts swept per algorithm.
const K_SWEEP: [usize; 4] = [64, 256, 1024, 4096];

/// Benchmarked algorithm labels (also the `--only` vocabulary).
const ALGORITHMS: [&str; 3] = ["standard", "slate", "distributed"];

/// Regression gate for `--check`: fail when current ns/round exceeds this
/// multiple of the baseline cell.
const REGRESSION_FACTOR: f64 = 2.0;

#[derive(Serialize, Deserialize)]
struct RoundCell {
    algorithm: String,
    k: usize,
    /// Agents one iteration occupies (k, slate size, or population).
    cpus_per_iteration: usize,
    warmup_rounds: u64,
    rounds: u64,
    wall_ms: f64,
    ns_per_round: f64,
}

#[derive(Serialize, Deserialize)]
struct BenchRound {
    schema: String,
    /// Shared provenance block. `Option` so `--check` still parses
    /// baselines committed before the block existed.
    meta: Option<mwu_experiments::BenchMeta>,
    seed: u64,
    fast: bool,
    cells: Vec<RoundCell>,
}

struct Args {
    out_dir: PathBuf,
    seed: u64,
    quiet: bool,
    fast: bool,
    only: Option<String>,
    check: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out_dir: PathBuf::from("."),
        seed: 1,
        quiet: false,
        fast: false,
        only: None,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--out" => args.out_dir = PathBuf::from(value("--out")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--quiet" => args.quiet = true,
            "--fast" => args.fast = true,
            "--only" => args.only = Some(value("--only")?),
            "--check" => args.check = Some(PathBuf::from(value("--check")?)),
            other => return Err(format!("unknown flag {other} (see bench_round.rs)")),
        }
    }
    if let Some(only) = &args.only {
        if !ALGORITHMS.contains(&only.as_str()) {
            return Err(format!("--only {only}: expected one of {ALGORITHMS:?}"));
        }
    }
    Ok(args)
}

fn make_algorithm(name: &str, k: usize) -> Box<dyn MwuAlgorithm> {
    match name {
        "standard" => Box::new(StandardMwu::new(k, StandardConfig::default())),
        "slate" => Box::new(SlateMwu::new(k, SlateConfig::default())),
        "distributed" => Box::new(DistributedMwu::new(k, DistributedConfig::default())),
        _ => unreachable!("unknown algorithm {name}"),
    }
}

/// Timed rounds per cell, sized so every cell finishes in well under a
/// second (Distributed rounds are O(k^1.5)).
fn rounds_for(name: &str, k_index: usize, fast: bool) -> u64 {
    let base: u64 = match name {
        "standard" | "slate" => [4000, 2000, 600, 150][k_index],
        "distributed" => [1000, 300, 60, 15][k_index],
        _ => unreachable!("unknown algorithm {name}"),
    };
    if fast {
        (base / 10).max(10)
    } else {
        base
    }
}

/// One measured cell: construct, warm up (fills caches and steady-state
/// scratch), then time `rounds` full plan → pull → update cycles.
fn bench_cell(name: &str, k: usize, rounds: u64, seed: u64) -> RoundCell {
    let mut alg = make_algorithm(name, k);
    let mut bandit = ValueBandit::exact(random_values(k, 9));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rewards: Vec<f64> = Vec::with_capacity(alg.cpus_per_iteration());
    let warmup = (rounds / 10).max(3);
    for _ in 0..warmup {
        one_round(alg.as_mut(), &mut bandit, &mut rewards, &mut rng);
    }
    let start = Instant::now();
    for _ in 0..rounds {
        one_round(alg.as_mut(), &mut bandit, &mut rewards, &mut rng);
    }
    let elapsed = start.elapsed();
    RoundCell {
        algorithm: name.to_string(),
        k,
        cpus_per_iteration: alg.cpus_per_iteration(),
        warmup_rounds: warmup,
        rounds,
        wall_ms: elapsed.as_secs_f64() * 1e3,
        ns_per_round: elapsed.as_nanos() as f64 / rounds as f64,
    }
}

fn one_round(
    alg: &mut dyn MwuAlgorithm,
    bandit: &mut ValueBandit,
    rewards: &mut Vec<f64>,
    rng: &mut SmallRng,
) {
    rewards.clear();
    let plan = alg.plan(rng);
    for &arm in plan {
        rewards.push(bandit.pull(arm, rng));
    }
    alg.update(rewards, rng);
}

/// Compare against a baseline report; returns human-readable regression
/// descriptions (empty = pass). Cells absent from the baseline are skipped,
/// so the gate stays usable while the sweep grows.
fn regressions(current: &BenchRound, baseline: &BenchRound) -> Vec<String> {
    let mut out = Vec::new();
    for cell in &current.cells {
        let Some(base) = baseline
            .cells
            .iter()
            .find(|b| b.algorithm == cell.algorithm && b.k == cell.k)
        else {
            continue;
        };
        if cell.ns_per_round > REGRESSION_FACTOR * base.ns_per_round {
            out.push(format!(
                "{} k={}: {:.0} ns/round vs baseline {:.0} (> {REGRESSION_FACTOR}x)",
                cell.algorithm, cell.k, cell.ns_per_round, base.ns_per_round
            ));
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_round: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut cells = Vec::new();
    for name in ALGORITHMS {
        if args.only.as_deref().is_some_and(|o| o != name) {
            continue;
        }
        for (ki, &k) in K_SWEEP.iter().enumerate() {
            let rounds = rounds_for(name, ki, args.fast);
            let cell = bench_cell(name, k, rounds, args.seed);
            if !args.quiet {
                eprintln!(
                    "  {name:<12} k={k:<5} {:>10.0} ns/round ({} rounds, {:.1} ms)",
                    cell.ns_per_round, cell.rounds, cell.wall_ms
                );
            }
            cells.push(cell);
        }
    }

    let report = BenchRound {
        schema: "bench_round/v1".into(),
        meta: Some(mwu_experiments::BenchMeta::capture()),
        seed: args.seed,
        fast: args.fast,
        cells,
    };
    std::fs::create_dir_all(&args.out_dir).expect("create output directory");
    let path = args.out_dir.join("BENCH_round.json");
    std::fs::write(
        &path,
        serde_json::to_string(&report).expect("serialize report"),
    )
    .expect("write BENCH_round.json");
    if !args.quiet {
        eprintln!("wrote {}", path.display());
    }

    if let Some(check) = &args.check {
        let text = std::fs::read_to_string(check)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", check.display()));
        let baseline: BenchRound = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("parse baseline {}: {e:?}", check.display()));
        assert_eq!(
            baseline.schema, "bench_round/v1",
            "baseline schema mismatch"
        );
        let failures = regressions(&report, &baseline);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("bench_round: REGRESSION {f}");
            }
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            eprintln!(
                "bench_round: all cells within {REGRESSION_FACTOR}x of {}",
                check.display()
            );
        }
    }
    ExitCode::SUCCESS
}
