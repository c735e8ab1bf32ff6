//! Probe attribution in the phase profiler: a profiled `repair` run
//! records exactly one `probe_sample` and one `probe_evaluate` span per
//! probe, and one `pool_precompute` span per pool it builds.
//!
//! This lives in its own test binary because the phase profiler is
//! process-global: spans from another test's probes would land in the
//! same counts.

use apr_sim::BugScenario;
use mwrepair::{repair_with_variant, MwRepairConfig, VariantChoice};
use mwu_core::prof;

#[test]
fn profiled_repair_records_one_probe_evaluate_per_probe() {
    let scenario = BugScenario::by_name("Closure13").expect("catalog scenario");
    let config = MwRepairConfig {
        max_iterations: 40,
        ..MwRepairConfig::seeded(5)
    };

    prof::set_enabled(true);
    prof::reset();
    let pool = scenario.build_pool(1, None);
    let outcome = repair_with_variant(&scenario, &pool, VariantChoice::Slate, &config, None)
        .expect("slate is tractable");
    let report = prof::snapshot();
    prof::set_enabled(false);

    let count = |phase: &str| {
        report
            .spans
            .iter()
            .find(|s| s.phase == phase)
            .map_or(0, |s| s.count)
    };
    assert!(outcome.probes > 100, "only {} probes", outcome.probes);
    assert_eq!(count("probe_evaluate"), outcome.probes);
    assert_eq!(count("probe_sample"), outcome.probes);
    assert_eq!(count("pool_precompute"), 1);
    assert_eq!(count("probe_loop") as usize, outcome.iterations);
}
