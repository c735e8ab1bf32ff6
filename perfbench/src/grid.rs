//! The `grid` workload: a Tables II–IV subset through
//! `run_grid_observed` and `write_results_csv`, the paper's own
//! experiment path (MWU kernels and bandit pulls on the pool; no APR
//! substrate, no daemon, no durability).

use crate::daemon::{core_values, record_replay};
use crate::spans::now_ns;
use crate::wrap::{Clock, ReplayClock, TimedAlg};
use crate::{fnv, FNV0};
use mwu_core::trace::{Observer, ReplicateEvent};
use mwu_core::{
    run_to_convergence, DistributedConfig, DistributedMwu, MwuAlgorithm, RunConfig, RunOutcome,
    SlateConfig, SlateMwu, StandardConfig, StandardMwu, Variant,
};
use mwu_datasets::{full_catalog, Dataset};
use mwu_experiments::{
    replicate_seed, run_grid_observed, write_results_csv, CellResult, GridConfig,
};
use rayon::prelude::*;
use std::collections::HashMap;
use std::path::Path;
use std::rc::Rc;

/// The datasets of the subset. random4096 and gzip are left out: at ten
/// replicates they take minutes, not seconds. random1024 is left out
/// too: its Distributed cell alone was 45 % of a pass's work, in ten
/// replicates of ~0.4 s each, so a pass mostly timed those ten.
pub const DATASETS: [&str; 11] = [
    "random256",
    "unimodal1024",
    "unimodal4096",
    "unimodal16384",
    "libtiff-2005-12-14",
    "lighttpd-1806-1807",
    "Chart26",
    "Closure13",
    "Closure22",
    "Math8",
    "Math80",
];

/// Replicates per cell. At ten, a pass's work moves by 2.6 % (IQR over
/// median) across seeds; host timing noise is larger, so a run is many
/// short passes rather than a few long ones.
pub const REPLICATES: usize = 10;

/// Update-cycle cap per replicate (the paper's).
pub const MAX_ITERATIONS: usize = 10_000;

/// The grid configuration for a seed.
pub fn config(seed: u64) -> GridConfig {
    GridConfig {
        replicates: REPLICATES,
        max_iterations: MAX_ITERATIONS,
        seed,
    }
}

/// Dataset generation: the set-up of a grid run.
pub fn build_datasets() -> Vec<Dataset> {
    full_catalog()
        .into_iter()
        .filter(|d| DATASETS.contains(&d.name.as_str()))
        .collect()
}

/// Collects the replicate events a grid pass emits.
#[derive(Debug, Default)]
pub struct Collect(pub Vec<ReplicateEvent>);

impl Observer for Collect {
    fn on_replicate(&mut self, e: ReplicateEvent) {
        self.0.push(e);
    }
}

/// One CSV file: name, header, rows.
pub type CsvTable = (&'static str, Vec<&'static str>, Vec<Vec<String>>);

/// Tables II, III and IV as CSV rows, in `tables234`'s format.
pub fn csv_tables(datasets: &[Dataset], cells: &[CellResult]) -> Vec<CsvTable> {
    let algs = [Variant::Standard, Variant::Distributed, Variant::Slate];
    let (mut t2, mut t3, mut t4) = (Vec::new(), Vec::new(), Vec::new());
    for d in datasets {
        for &a in &algs {
            let c = cells
                .iter()
                .find(|c| c.dataset == d.name && c.algorithm == a)
                .expect("cell present");
            let lead = vec![d.name.clone(), d.size().to_string(), a.to_string()];
            let mean = |m: f64, digits: usize| {
                if c.intractable {
                    "intractable".to_string()
                } else {
                    format!("{m:.digits$}")
                }
            };
            let mut r2 = lead.clone();
            r2.extend([
                mean(c.iterations.mean, 2),
                format!("{:.2}", c.iterations.std_dev),
                c.converged.to_string(),
                c.replicates.to_string(),
            ]);
            let mut r3 = lead.clone();
            r3.extend([
                mean(c.accuracy.mean, 2),
                format!("{:.2}", c.accuracy.std_dev),
            ]);
            let mut r4 = lead;
            r4.extend([
                mean(c.cpu_iterations.mean, 0),
                format!("{:.0}", c.cpu_iterations.std_dev),
            ]);
            t2.push(r2);
            t3.push(r3);
            t4.push(r4);
        }
    }
    let lead = ["scenario", "size", "algorithm"];
    let head = |tail: &[&'static str]| lead.iter().chain(tail).copied().collect::<Vec<_>>();
    vec![
        (
            "table2.csv",
            head(&[
                "iterations_mean",
                "iterations_std",
                "converged",
                "replicates",
            ]),
            t2,
        ),
        ("table3.csv", head(&["accuracy_mean", "accuracy_std"]), t3),
        (
            "table4.csv",
            head(&["cpu_iterations_mean", "cpu_iterations_std"]),
            t4,
        ),
    ]
}

/// One grid pass: the grid, then its CSVs written into `out_dir`.
/// Returns the cells, the CSV digest and the CSV-writing time (ns).
pub fn pass<O: Observer>(
    datasets: &[Dataset],
    config: &GridConfig,
    observer: &mut O,
    out_dir: &Path,
) -> (Vec<CellResult>, u64, u64) {
    let cells = run_grid_observed(datasets, config, observer);
    let t0 = now_ns();
    let mut digest = FNV0;
    for (name, header, rows) in csv_tables(datasets, &cells) {
        let path = write_results_csv(out_dir, name, &header, &rows).expect("write csv");
        digest = fnv(digest, &std::fs::read(path).expect("read back csv"));
    }
    (cells, digest, now_ns() - t0)
}

/// Tractable replicates of the grid (the unit of `replicates_per_s`).
pub fn tractable_replicates(cells: &[CellResult]) -> u64 {
    cells.iter().map(|c| c.replicates).sum()
}

fn variant_of(name: &str) -> Variant {
    [Variant::Standard, Variant::Slate, Variant::Distributed]
        .into_iter()
        .find(|v| v.to_string() == name)
        .expect("grid emits known variant names")
}

fn run<A: MwuAlgorithm>(alg: A, d: &Dataset, cfg: &RunConfig, clock: Option<&Clock>) -> RunOutcome {
    let mut bandit = d.bandit();
    match clock {
        None => {
            let mut alg = alg;
            run_to_convergence(&mut alg, &mut bandit, cfg)
        }
        Some(c) => {
            let mut alg = TimedAlg::new(alg, Rc::clone(c));
            let out = run_to_convergence(&mut alg, &mut bandit, cfg);
            c.borrow_mut().finish(now_ns());
            out
        }
    }
}

/// Re-run one replicate alone, exactly as its event says it ran.
pub fn replay(ev: &ReplicateEvent, d: &Dataset, clock: Option<&Clock>) -> RunOutcome {
    let k = d.size();
    let cfg = RunConfig {
        max_iterations: ev.max_iterations,
        seed: ev.run_seed,
        run_past_convergence: false,
    };
    match variant_of(&ev.algorithm) {
        Variant::Standard => run(
            StandardMwu::new(k, StandardConfig::default()),
            d,
            &cfg,
            clock,
        ),
        Variant::Slate => run(SlateMwu::new(k, SlateConfig::default()), d, &cfg, clock),
        Variant::Distributed => run(
            DistributedMwu::try_new(k, DistributedConfig::default()).expect("tractable cell"),
            d,
            &cfg,
            clock,
        ),
    }
}

/// Check every replicate event against a replay at its derived seed.
pub fn verify(
    datasets: &[Dataset],
    config: &GridConfig,
    events: &[ReplicateEvent],
    expected: u64,
) -> Vec<String> {
    let by_name: HashMap<&str, &Dataset> = datasets.iter().map(|d| (d.name.as_str(), d)).collect();
    let mut failures: Vec<String> = events
        .par_iter()
        .map(|ev| {
            let d = by_name[ev.dataset.as_str()];
            let seed = replicate_seed(variant_of(&ev.algorithm), d, config.seed, ev.replicate);
            let ok = ev.run_seed == seed && replay(ev, d, None) == ev.outcome;
            (!ok).then(|| {
                format!(
                    "{}/{}#{}: outcome differs from replay",
                    ev.algorithm, ev.dataset, ev.replicate
                )
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flatten()
        .collect();
    if events.len() as u64 != expected {
        failures.push(format!(
            "{} replicate events for {expected} replicates",
            events.len()
        ));
    }
    failures
}

/// Kernel and pull time from a wrapped replay of every replicate. Each
/// replicate runs wholly on one pool thread, so replays run in parallel.
pub fn replay_layers(datasets: &[Dataset], events: &[ReplicateEvent]) -> Vec<(&'static str, f64)> {
    let by_name: HashMap<&str, &Dataset> = datasets.iter().map(|d| (d.name.as_str(), d)).collect();
    let clocks: Vec<ReplayClock> = events
        .par_iter()
        .map(|ev| {
            let clock: Clock = Rc::default();
            let req = format!("{}/{}#{}", ev.algorithm, ev.dataset, ev.replicate);
            let id = crate::spans::new_id();
            let start = now_ns();
            replay(ev, by_name[ev.dataset.as_str()], Some(&clock));
            let c = clock.borrow().clone();
            record_replay(id, start, now_ns(), &req, &c, "datasets.pull");
            c
        })
        .collect();
    let pull: u64 = clocks.iter().map(|c| c.gap_ns).sum();
    let mut out = core_values(&clocks);
    out.push(("datasets.pull_ms", pull as f64 / 1e6));
    out
}
