//! Thread-count invariance of the parallel harness.
//!
//! The vendored `rayon` work-sharing pool promises byte-identical output
//! for every thread count (see `docs/PARALLELISM.md`). These tests pin the
//! contract on the three hot paths the pool drives — the experiment grid
//! with its JSONL telemetry, the nested Fig. 4 Monte-Carlo curves, and the
//! MWRepair probe loop — by running each under several participation caps
//! (the grid at 1/2/4/8 plus uncapped) and demanding identical bytes.
//!
//! The pool is global and sized once per process, so every test funnels
//! through [`pool_of_eight`] before touching parallel code. Eight workers
//! may outnumber the host's cores: the caps then interleave on fewer
//! CPUs, which changes scheduling and must not change a byte.

use apr_sim::fig4::{repair_density_curve, survival_curve, untested_survival_curve};
use apr_sim::{BugScenario, ScenarioKind};
use mwrepair::{effective_arms, repair, MwRepairConfig};
use mwu_core::prelude::*;
use mwu_datasets::full_catalog;
use mwu_experiments::{run_grid_observed, GridConfig};
use rayon::prelude::*;
use std::sync::Once;

/// Size the global pool to 8 threads exactly once, before any parallel
/// call in this binary initializes it at the hardware default.
fn pool_of_eight() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        assert!(rayon::set_num_threads(8), "pool already initialized");
    });
    assert_eq!(rayon::current_num_threads(), 8);
}

#[test]
fn pool_reports_requested_thread_count() {
    pool_of_eight();
}

/// The grid's serialized cells and its full JSONL trace, run under a
/// participation cap (`None` = uncapped).
fn grid_output(cap: Option<usize>) -> (String, Vec<u8>) {
    let run = || {
        let datasets: Vec<_> = full_catalog()
            .into_iter()
            .filter(|d| d.name == "random64" || d.name == "unimodal256")
            .collect();
        assert!(!datasets.is_empty());
        let config = GridConfig {
            replicates: 8,
            max_iterations: 2_000,
            seed: 0xBEEF,
        };
        let mut sink = JsonlSink::new(Vec::new());
        let cells = run_grid_observed(&datasets, &config, &mut sink);
        (serde_json::to_string(&cells).unwrap(), sink.into_inner())
    };
    match cap {
        Some(c) => rayon::with_max_threads(c, run),
        None => run(),
    }
}

#[test]
fn grid_cells_and_trace_are_thread_count_invariant() {
    pool_of_eight();
    let (cells_1, trace_1) = grid_output(Some(1));
    assert!(!trace_1.is_empty());
    for cap in [Some(2), Some(4), Some(8), None] {
        let (cells, trace) = grid_output(cap);
        assert_eq!(cells_1, cells, "cell results: 1 thread vs cap {cap:?}");
        assert_eq!(trace_1, trace, "JSONL trace: 1 thread vs cap {cap:?}");
    }
}

/// All three Fig. 4 Monte-Carlo curves — the nested-parallelism path
/// (`par_iter` over x-values, `into_par_iter` over trials inside).
fn fig4_curves(cap: usize) -> String {
    rayon::with_max_threads(cap, || {
        let scenario =
            BugScenario::custom("par-inv", ScenarioKind::Synthetic, 60, 12, 250, 12, 0.3, 7);
        let pool = scenario.build_pool(1, None);
        let xs: Vec<usize> = (1..=8).collect();
        let a = survival_curve(&scenario, &pool, &xs, 200, 11);
        let u = untested_survival_curve(&scenario, &xs, 200, 12);
        let d = repair_density_curve(&scenario, &pool, &xs, 200, 13);
        serde_json::to_string(&(a, u, d)).unwrap()
    })
}

#[test]
fn fig4_nested_curves_are_thread_count_invariant() {
    pool_of_eight();
    let one = fig4_curves(1);
    let four = fig4_curves(4);
    assert_eq!(one, four);
}

/// A full MWRepair run (precompute + probe loop) under a cap.
fn repair_outcome(cap: usize) -> String {
    rayon::with_max_threads(cap, || {
        let scenario =
            BugScenario::custom("par-rep", ScenarioKind::Synthetic, 60, 12, 300, 15, 0.4, 3);
        let pool = scenario.build_pool(1, None);
        let config = MwRepairConfig {
            max_iterations: 60,
            seed: 19,
            reward: mwrepair::RewardMode::DensityProxy,
            max_composition: 512,
        };
        let mut alg = StandardMwu::new(
            effective_arms(pool.len(), &config),
            StandardConfig::default(),
        );
        let outcome = repair(&scenario, &pool, &mut alg, &config);
        serde_json::to_string(&outcome).unwrap()
    })
}

#[test]
fn repair_outcome_is_thread_count_invariant() {
    pool_of_eight();
    let one = repair_outcome(1);
    let four = repair_outcome(4);
    assert_eq!(one, four);
}

#[test]
fn par_pipeline_matches_sequential_on_large_input() {
    pool_of_eight();
    let n = 50_000u64;
    let par: Vec<u64> = (0..n).into_par_iter().map(|i| i.wrapping_mul(i)).collect();
    let seq: Vec<u64> = (0..n).map(|i| i.wrapping_mul(i)).collect();
    assert_eq!(par, seq);
    let par_sum: u64 = (0..n).into_par_iter().map(|i| i % 7).sum();
    let seq_sum: u64 = (0..n).map(|i| i % 7).sum();
    assert_eq!(par_sum, seq_sum);
}

#[test]
fn worker_panic_reaches_the_submitting_thread() {
    pool_of_eight();
    let r = std::panic::catch_unwind(|| {
        let _: Vec<u64> = (0..4096u64)
            .into_par_iter()
            .map(|i| if i == 2048 { panic!("probe failed") } else { i })
            .collect();
    });
    assert!(r.is_err(), "panic in a parallel item must propagate");
    // The pool survives a panicked job and keeps serving work.
    let sum: u64 = (0..1000u64).into_par_iter().sum();
    assert_eq!(sum, 499_500);
}

/// Chunk sizing must never affect output: boundary sizes around the pool
/// width and the legacy `width*4` divisor, crossed with cost-hint extremes
/// (0 = adaptive, 1 = everything-inline via the small-job route, huge =
/// one-item chunks), all byte-identical to sequential.
#[test]
fn chunk_sizing_edges_match_sequential() {
    pool_of_eight();
    let f = |i: u64| i.wrapping_mul(0x9E37_79B9).rotate_left(13);
    for n in [5u64, 15, 16, 17] {
        let seq: Vec<u64> = (0..n).map(f).collect();
        let par: Vec<u64> = (0..n).into_par_iter().map(f).collect();
        assert_eq!(par, seq, "n={n} unhinted");
        for hint in [0u64, 1, 50_000, u64::MAX] {
            let hinted: Vec<u64> = (0..n).into_par_iter().with_cost_hint(hint).map(f).collect();
            assert_eq!(hinted, seq, "n={n} hint={hint}");
        }
    }
}

/// Adaptive sizing (no cost hint) measures its first chunk under whatever
/// participation cap is active; nesting caps must not move a byte.
#[test]
fn adaptive_sizing_under_nested_caps_matches_sequential() {
    pool_of_eight();
    let n = 10_000u64;
    let f = |i: u64| (i ^ (i >> 7)).wrapping_mul(31);
    let seq: Vec<u64> = (0..n).map(f).collect();
    for cap in [1usize, 2, 3] {
        let par = rayon::with_max_threads(cap, || {
            rayon::with_max_threads(cap.min(2), || {
                (0..n).into_par_iter().map(f).collect::<Vec<u64>>()
            })
        });
        assert_eq!(par, seq, "cap={cap}");
    }
}

/// A panic raised in an item claimed through the mailbox fast-path must
/// reach the submitter, and the pool must keep serving work afterwards.
/// The hint forces ~20-item chunks, so parked workers claim most of the
/// job through the fast-path rather than the queue scan.
#[test]
fn worker_panic_propagates_through_claim_fast_path() {
    pool_of_eight();
    let r = std::panic::catch_unwind(|| {
        let _: Vec<u64> = (0..100_000u64)
            .into_par_iter()
            .with_cost_hint(10_000)
            .map(|i| {
                if i == 65_537 {
                    panic!("fast-path probe failed")
                } else {
                    i
                }
            })
            .collect();
    });
    assert!(r.is_err(), "panic in a fast-path chunk must propagate");
    let sum: u64 = (0..1000u64).into_par_iter().with_cost_hint(1_000).sum();
    assert_eq!(sum, 499_500);
}
