//! # mwu-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! paper. One binary per artifact:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table I — asymptotic complexity, evaluated at concrete (k, n, ε, δ) |
//! | `fig4a` | Fig. 4a — fraction passing vs. #applied safe mutations (plus untested-mutation comparison) |
//! | `fig4b` | Fig. 4b — repair density vs. #combined mutations |
//! | `tables234` | Tables II–IV from one grid pass — update cycles until convergence (mean ± std over replicates), accuracy (% of best-in-hindsight value), CPU-iteration cost |
//! | `cost_model` | §IV-E — weighted decision model and recommendations |
//! | `congestion` | §II-C — Distributed congestion vs. balls-into-bins theory |
//! | `sync_stall` | §III-C — synchronization-stall motivation for precomputation |
//! | `repair_comparison` | §IV-G — MWRepair vs. GenProg / RSRepair / AE |
//! | `chaos` | robustness — convergence degradation under injected faults (docs/FAULTS.md) |
//! | `mwrepair_run` | robustness — crash-safe MWRepair with `--checkpoint` / `--resume` / `--halt-after` |
//! | `mwrepaird` | service — multi-tenant repair daemon over a JSONL job spool (docs/SERVICE.md) |
//! | `loadgen` | service — thousand-session load replay at 1/2/4/8 threads, writes `BENCH_service.json` |
//!
//! Every binary prints the paper-shaped table to stdout and writes CSV into
//! `results/`. Common flags: `--replicates N` (default 100, the paper's
//! count), `--seed S`, `--out DIR`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod grid;
pub mod meta;
pub mod social;
pub mod tables;

pub use cli::{install_profile_hooks, CommonArgs};
pub use grid::{
    replicate_seed, run_cell, run_cell_observed, run_grid, run_grid_observed, CellResult,
    GridConfig,
};
pub use meta::BenchMeta;
pub use tables::{render_table, write_results_csv};
