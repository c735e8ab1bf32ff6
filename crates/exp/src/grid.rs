//! The (algorithm × dataset × replicate) experiment grid behind
//! Tables II, III and IV.

use mwu_core::stats::{RunningStats, Summary};
use mwu_core::trace::{CellEndEvent, CellStartEvent, Observer, ReplicateEvent};
use mwu_core::{
    run_to_convergence, DistributedConfig, RunConfig, RunOutcome, SlateConfig, StandardConfig,
    ThreadArena, Variant,
};
use mwu_datasets::Dataset;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Grid configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridConfig {
    /// Replicates per (algorithm, dataset) cell (paper: 100).
    pub replicates: usize,
    /// Update-cycle limit per run (paper: 10,000).
    pub max_iterations: usize,
    /// Base seed; replicate `r` of dataset `d` under algorithm `a` derives
    /// its own stream from (seed, a, d, r).
    pub seed: u64,
}

impl Default for GridConfig {
    fn default() -> Self {
        Self {
            replicates: 100,
            max_iterations: 10_000,
            seed: 0xEED5,
        }
    }
}

/// Aggregated results of one (algorithm, dataset) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellResult {
    /// Algorithm variant.
    pub algorithm: Variant,
    /// Dataset name.
    pub dataset: String,
    /// Instance size `k`.
    pub size: usize,
    /// `true` when the variant cannot run at this size (Distributed beyond
    /// its population cap) — rendered as `—` like the paper's tables.
    pub intractable: bool,
    /// Update cycles until convergence (non-converged runs contribute the
    /// iteration cap, mirroring the paper's "≥ 10000" entries).
    pub iterations: Summary,
    /// Table III accuracy (percent).
    pub accuracy: Summary,
    /// Table IV CPU-iterations (iterations × CPUs per iteration).
    pub cpu_iterations: Summary,
    /// Replicates that converged within the cap.
    pub converged: u64,
    /// Replicates executed.
    pub replicates: u64,
    /// Mean over replicates of each run's peak single-round congestion.
    pub peak_congestion: Summary,
}

impl CellResult {
    fn intractable_cell(algorithm: Variant, dataset: &Dataset) -> Self {
        let empty = RunningStats::new().summary();
        Self {
            algorithm,
            dataset: dataset.name.clone(),
            size: dataset.size(),
            intractable: true,
            iterations: empty,
            accuracy: empty,
            cpu_iterations: empty,
            converged: 0,
            replicates: 0,
            peak_congestion: empty,
        }
    }
}

/// The seed replicate `r` of `algorithm` on `dataset` runs under — derived
/// exactly as [`run_grid_observed`] derives it, and recorded in each
/// replicate's [`ReplicateEvent`] trace header so the replicate can be
/// re-run alone.
pub fn replicate_seed(algorithm: Variant, dataset: &Dataset, base_seed: u64, r: u64) -> u64 {
    let alg_tag = match algorithm {
        Variant::Standard => 1u64,
        Variant::Slate => 2,
        Variant::Distributed => 3,
    };
    let data_tag = mwu_core::rng::mix(&[dataset.size() as u64, dataset.best_arm() as u64]);
    mwu_core::rng::mix(&[base_seed, alg_tag, data_tag, r])
}

/// Per-item cost hint for grid replicates: a replicate is a full
/// run-to-convergence (milliseconds), so the pool should hand out
/// single-replicate chunks rather than probing with a large first chunk.
/// Scheduling only — results are byte-identical for any value.
const REPLICATE_COST_HINT_NS: u64 = 1_000_000;

/// One replicate of `algorithm` on `dataset`: the unit of parallel work.
///
/// The algorithm instance comes from (and returns to) the executing
/// thread's [`ThreadArena`], so a worker sweeping many replicates reuses
/// one set of kernel buffers instead of reallocating per run; a reset
/// instance's trajectory is bit-identical to a fresh one's, and the RNG
/// stream is derived from the replicate key alone, so arena reuse cannot
/// move a byte of output.
fn run_replicate(
    algorithm: Variant,
    dataset: &Dataset,
    config: &GridConfig,
    r: u64,
) -> (u64, u64, RunOutcome) {
    let k = dataset.size();
    let run_seed = replicate_seed(algorithm, dataset, config.seed, r);
    let mut bandit = dataset.bandit();
    let run_cfg = RunConfig {
        max_iterations: config.max_iterations,
        seed: run_seed,
        run_past_convergence: false,
    };
    let outcome = match algorithm {
        Variant::Standard => {
            let mut alg = ThreadArena::with(|a| a.take_standard(k, StandardConfig::default()));
            let out = run_to_convergence(&mut alg, &mut bandit, &run_cfg);
            ThreadArena::with(move |a| a.give_standard(alg));
            out
        }
        Variant::Slate => {
            let mut alg = ThreadArena::with(|a| a.take_slate(k, SlateConfig::default()));
            let out = run_to_convergence(&mut alg, &mut bandit, &run_cfg);
            ThreadArena::with(move |a| a.give_slate(alg));
            out
        }
        Variant::Distributed => {
            let mut alg =
                ThreadArena::with(|a| a.take_distributed(k, DistributedConfig::default()))
                    .expect("tractability pre-checked");
            let out = run_to_convergence(&mut alg, &mut bandit, &run_cfg);
            ThreadArena::with(move |a| a.give_distributed(alg));
            out
        }
    };
    (r, run_seed, outcome)
}

/// Fold replicate outcomes into a [`CellResult`], emitting the per-replicate
/// and cell-end telemetry in replicate order (scheduling-independent).
fn aggregate_and_emit<O: Observer>(
    algorithm: Variant,
    dataset: &Dataset,
    config: &GridConfig,
    outcomes: &[(u64, u64, RunOutcome)],
    observer: &mut O,
) -> CellResult {
    let mut iterations = RunningStats::new();
    let mut accuracy = RunningStats::new();
    let mut cpu_iterations = RunningStats::new();
    let mut peak_congestion = RunningStats::new();
    let mut converged = 0u64;
    for (r, run_seed, outcome) in outcomes {
        iterations.push(outcome.iterations as f64);
        accuracy.push(outcome.accuracy(&dataset.values));
        cpu_iterations.push(outcome.cpu_iterations as f64);
        peak_congestion.push(outcome.comm.peak_congestion as f64);
        if outcome.converged {
            converged += 1;
        }
        if observer.enabled() {
            observer.on_replicate(ReplicateEvent {
                algorithm: algorithm.to_string(),
                dataset: dataset.name.clone(),
                replicate: *r,
                run_seed: *run_seed,
                max_iterations: config.max_iterations,
                outcome: outcome.clone(),
            });
        }
    }

    if observer.enabled() {
        observer.on_cell_end(CellEndEvent {
            algorithm: algorithm.to_string(),
            dataset: dataset.name.clone(),
            converged,
            replicates: config.replicates as u64,
            intractable: false,
        });
    }

    CellResult {
        algorithm,
        dataset: dataset.name.clone(),
        size: dataset.size(),
        intractable: false,
        iterations: iterations.summary(),
        accuracy: accuracy.summary(),
        cpu_iterations: cpu_iterations.summary(),
        converged,
        replicates: config.replicates as u64,
        peak_congestion: peak_congestion.summary(),
    }
}

/// Run the full grid: `config.replicates` independent runs of every
/// algorithm on every dataset, in the paper's column order (Standard,
/// Distributed, Slate). Each replicate derives its seed from
/// [`replicate_seed`], so results are independent of scheduling.
///
/// Telemetry goes to `observer` (pass [`mwu_core::trace::NullObserver`]
/// for none, a [`mwu_core::trace::JsonlSink`] to capture a machine-readable
/// trace, a [`mwu_core::trace::ProgressSink`] for stderr narration, or a
/// [`mwu_core::trace::Tee`] of both): per cell, a [`CellStartEvent`], one
/// [`ReplicateEvent`] per replicate in replicate order, and a
/// [`CellEndEvent`].
pub fn run_grid_observed<O: Observer>(
    datasets: &[Dataset],
    config: &GridConfig,
    observer: &mut O,
) -> Vec<CellResult> {
    // Coarse-grained scheduling: every (cell, replicate) of the whole grid
    // is flattened into ONE parallel job, so the pool never drains to a
    // per-cell barrier — the tail of one cell overlaps the next cell's
    // replicates. Telemetry is withheld until the join and then emitted in
    // the canonical (cell, replicate) order, so traces stay byte-identical
    // at every thread count.
    let algs = [Variant::Standard, Variant::Distributed, Variant::Slate];
    let cells: Vec<(&Dataset, Variant, bool)> = datasets
        .iter()
        .flat_map(|d| {
            algs.iter().map(move |&alg| {
                let tractable = alg != Variant::Distributed
                    || DistributedConfig::default().is_tractable(d.size());
                (d, alg, tractable)
            })
        })
        .collect();

    let units: Vec<(usize, u64)> = cells
        .iter()
        .enumerate()
        .filter(|(_, &(_, _, tractable))| tractable)
        .flat_map(|(i, _)| (0..config.replicates as u64).map(move |r| (i, r)))
        .collect();
    let outcomes: Vec<(usize, (u64, u64, RunOutcome))> = units
        .par_iter()
        .with_cost_hint(REPLICATE_COST_HINT_NS)
        .map(|&(i, r)| {
            let (dataset, alg, _) = cells[i];
            (i, run_replicate(alg, dataset, config, r))
        })
        .collect();
    let mut per_cell: Vec<Vec<(u64, u64, RunOutcome)>> = vec![Vec::new(); cells.len()];
    for (i, outcome) in outcomes {
        per_cell[i].push(outcome);
    }

    cells
        .iter()
        .zip(per_cell)
        .map(|(&(dataset, alg, tractable), outs)| {
            if observer.enabled() {
                observer.on_cell_start(CellStartEvent {
                    algorithm: alg.to_string(),
                    dataset: dataset.name.clone(),
                    size: dataset.size(),
                    replicates: config.replicates,
                });
            }
            if !tractable {
                if observer.enabled() {
                    observer.on_cell_end(CellEndEvent {
                        algorithm: alg.to_string(),
                        dataset: dataset.name.clone(),
                        converged: 0,
                        replicates: 0,
                        intractable: true,
                    });
                }
                return CellResult::intractable_cell(alg, dataset);
            }
            aggregate_and_emit(alg, dataset, config, &outs, &mut *observer)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwu_core::trace::NullObserver;
    use mwu_datasets::catalog;

    /// The `algorithm` cell of a grid run over `dataset` alone.
    fn run_cell(algorithm: Variant, dataset: &Dataset, config: &GridConfig) -> CellResult {
        run_grid_observed(std::slice::from_ref(dataset), config, &mut NullObserver)
            .into_iter()
            .find(|c| c.algorithm == algorithm)
            .expect("the grid runs every variant")
    }

    fn tiny_config() -> GridConfig {
        GridConfig {
            replicates: 5,
            max_iterations: 3_000,
            seed: 1,
        }
    }

    #[test]
    fn standard_cell_on_random64() {
        let d = catalog::by_name("random64").unwrap();
        let c = run_cell(Variant::Standard, &d, &tiny_config());
        assert!(!c.intractable);
        assert_eq!(c.replicates, 5);
        assert!(c.accuracy.mean > 80.0, "accuracy {}", c.accuracy.mean);
        assert!(c.iterations.mean >= 1.0);
        // CPU-iterations = iterations × k for Standard.
        assert!(
            (c.cpu_iterations.mean - c.iterations.mean * 64.0).abs() < 1e-6,
            "cpu {} vs iter {}",
            c.cpu_iterations.mean,
            c.iterations.mean
        );
    }

    #[test]
    fn distributed_intractable_at_16384() {
        let d = catalog::by_name("random16384").unwrap();
        // The Standard and Slate cells run beside it; one cycle each will do.
        let config = GridConfig {
            max_iterations: 1,
            ..tiny_config()
        };
        let c = run_cell(Variant::Distributed, &d, &config);
        assert!(c.intractable);
        assert_eq!(c.replicates, 0);
    }

    #[test]
    fn cells_are_reproducible() {
        let d = catalog::by_name("random64").unwrap();
        let a = run_cell(Variant::Slate, &d, &tiny_config());
        let b = run_cell(Variant::Slate, &d, &tiny_config());
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.accuracy, b.accuracy);
    }
}
