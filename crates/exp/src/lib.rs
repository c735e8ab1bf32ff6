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
//! | `mwrepaird` | service — multi-tenant repair daemon over a JSONL job spool, and the one resumable way to run a repair: `--halt-after` stops it, a rerun resumes it byte-identically (docs/SERVICE.md) |
//!
//! Every artifact binary prints the paper-shaped table to stdout and writes
//! CSV into `results/`. Each binary accepts exactly the flags it reads; the
//! [`cli`] module lists them and their defaults.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod grid;
pub mod tables;

pub use cli::{install_profile_hooks, Args, Flag};
pub use grid::{replicate_seed, run_grid_observed, CellResult, GridConfig};
pub use tables::{render_table, write_results_csv};
