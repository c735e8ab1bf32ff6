//! Profile-shape parity between inline and pooled execution.
//!
//! The sequential fallbacks in the pool's `run_indexed` used to bypass
//! span emission entirely, so 1-thread profiles structurally lacked pool
//! phases and cross-thread-count comparisons were apples-to-oranges. These tests pin the fix: a capped-to-1 run
//! (inline route) and a capped-to-4 run (pooled route) must both surface
//! `pool_queue_wait`, `pool_chunk`, and `pool_submit` spans.
//!
//! This lives in its own test binary because the phase profiler is
//! process-global: enabling it here must not race the other integration
//! suites, and `cargo test` runs each tests/*.rs file as its own process.

use mwu_core::prof;
use rayon::prelude::*;

/// Phases with at least one completed span after a `cap`-thread run.
fn phases_emitted(cap: usize) -> Vec<String> {
    prof::reset();
    rayon::with_max_threads(cap, || {
        let v: Vec<u64> = (0..4096u64).into_par_iter().map(|i| i * 3).collect();
        assert_eq!(v[17], 51);
    });
    prof::snapshot()
        .spans
        .iter()
        .filter(|s| s.count > 0)
        .map(|s| s.phase.clone())
        .collect()
}

/// One test function on purpose: the profiler's enabled flag and span
/// store are process-global, and cargo runs `#[test]`s concurrently —
/// splitting the on/off halves into separate tests would race.
#[test]
fn inline_and_pooled_runs_emit_the_same_pool_phases() {
    assert!(rayon::set_num_threads(4), "pool already initialized");
    mwu_experiments::install_profile_hooks();

    // Profiling off: both routes must emit nothing at all.
    prof::set_enabled(false);
    for cap in [1usize, 4] {
        let phases = phases_emitted(cap);
        assert!(phases.is_empty(), "cap={cap} emitted {phases:?} while off");
    }

    // Profiling on: the inline (cap 1) and pooled (cap 4) routes must
    // surface the same pool phases.
    prof::set_enabled(true);
    let pooled = phases_emitted(4);
    let inline = phases_emitted(1);
    prof::set_enabled(false);
    for phase in ["pool_queue_wait", "pool_chunk", "pool_submit"] {
        assert!(
            pooled.iter().any(|p| p == phase),
            "pooled run missing {phase}: {pooled:?}"
        );
        assert!(
            inline.iter().any(|p| p == phase),
            "inline run missing {phase}: {inline:?}"
        );
    }
}
