//! Integration: the three MWU variants against the §IV-A dataset catalog.

use integration_tests::{test_run_config, test_seed};
use mwu_core::prelude::*;
use mwu_datasets::{catalog, full_catalog, Family};

fn run_variant(name: &str, dataset: &mwu_datasets::Dataset, seed: u64) -> Option<RunOutcome> {
    let k = dataset.size();
    let cfg = test_run_config(seed);
    let mut bandit = dataset.bandit();
    Some(match name {
        "standard" => {
            let mut alg = StandardMwu::new(k, StandardConfig::default());
            run_to_convergence(&mut alg, &mut bandit, &cfg)
        }
        "slate" => {
            let mut alg = SlateMwu::new(k, SlateConfig::default());
            run_to_convergence(&mut alg, &mut bandit, &cfg)
        }
        "distributed" => {
            let mut alg = DistributedMwu::try_new(k, DistributedConfig::default()).ok()?;
            run_to_convergence(&mut alg, &mut bandit, &cfg)
        }
        other => panic!("unknown variant {other}"),
    })
}

#[test]
fn all_variants_exceed_90_percent_accuracy_on_small_datasets() {
    // The paper's headline: "the mean accuracy of each algorithm is always
    // at least 90%." Checked here on the small catalog instances (the full
    // grid is the tables234 binary's job).
    for dataset in full_catalog()
        .into_iter()
        .filter(|d| d.size() <= 256 || d.family == Family::Java)
    {
        for variant in ["standard", "distributed", "slate"] {
            let mut acc_sum = 0.0;
            let reps = 5;
            for rep in 0..reps {
                let out = run_variant(variant, &dataset, test_seed(1, rep))
                    .expect("small instances are tractable");
                acc_sum += out.accuracy(&dataset.values);
            }
            let mean = acc_sum / reps as f64;
            assert!(
                mean >= 90.0,
                "{variant} on {}: mean accuracy {mean:.1}% < 90%",
                dataset.name
            );
        }
    }
}

#[test]
fn distributed_is_fastest_in_update_cycles_on_random64() {
    let d = catalog::by_name("random64").unwrap();
    let mut iters = std::collections::HashMap::new();
    for variant in ["standard", "distributed", "slate"] {
        let mut total = 0usize;
        for rep in 0..5 {
            total += run_variant(variant, &d, test_seed(2, rep))
                .unwrap()
                .iterations;
        }
        iters.insert(variant, total);
    }
    assert!(
        iters["distributed"] < iters["standard"],
        "distributed {} !< standard {}",
        iters["distributed"],
        iters["standard"]
    );
    assert!(
        iters["distributed"] < iters["slate"],
        "distributed {} !< slate {}",
        iters["distributed"],
        iters["slate"]
    );
}

#[test]
fn slate_needs_the_most_update_cycles() {
    // "It is always the most expensive algorithm in terms of number of
    // iterations until convergence."
    for name in ["random64", "unimodal64", "lighttpd-1806-1807"] {
        let d = catalog::by_name(name).unwrap();
        let mut iters = std::collections::HashMap::new();
        for variant in ["standard", "distributed", "slate"] {
            let mut total = 0usize;
            for rep in 0..3 {
                total += run_variant(variant, &d, test_seed(3, rep))
                    .unwrap()
                    .iterations;
            }
            iters.insert(variant, total);
        }
        assert!(
            iters["slate"] >= iters["standard"] && iters["slate"] >= iters["distributed"],
            "{name}: slate {} vs standard {} vs distributed {}",
            iters["slate"],
            iters["standard"],
            iters["distributed"]
        );
    }
}

#[test]
fn distributed_intractable_exactly_at_the_largest_sizes() {
    // "the exponential dependence of the population size on the scenario
    // size led to two intractable computations" — random16384 and
    // unimodal16384.
    let mut intractable = Vec::new();
    for d in full_catalog() {
        if DistributedMwu::try_new(d.size(), DistributedConfig::default()).is_err() {
            intractable.push(d.name.clone());
        }
    }
    assert_eq!(intractable, vec!["random16384", "unimodal16384"]);
}

#[test]
fn standard_cpu_cost_scales_with_k_times_iterations() {
    for name in ["random64", "unimodal256"] {
        let d = catalog::by_name(name).unwrap();
        let out = run_variant("standard", &d, test_seed(4, 0)).unwrap();
        assert_eq!(
            out.cpu_iterations,
            (out.iterations * d.size()) as u64,
            "{name}: cpu-iterations accounting"
        );
    }
}

#[test]
fn distributed_congestion_far_below_standard_on_same_dataset() {
    let d = catalog::by_name("random256").unwrap();
    let std_out = run_variant("standard", &d, test_seed(5, 0)).unwrap();
    let dist_out = run_variant("distributed", &d, test_seed(5, 0)).unwrap();
    // Standard synchronizes all k agents; Distributed pays balls-into-bins.
    assert_eq!(std_out.comm.peak_congestion, 256);
    assert!(
        dist_out.comm.peak_congestion < 32,
        "distributed congestion {}",
        dist_out.comm.peak_congestion
    );
}

#[test]
fn runs_are_deterministic_across_invocations() {
    let d = catalog::by_name("Closure13").unwrap();
    for variant in ["standard", "distributed", "slate"] {
        let a = run_variant(variant, &d, 777).unwrap();
        let b = run_variant(variant, &d, 777).unwrap();
        assert_eq!(a.iterations, b.iterations, "{variant}");
        assert_eq!(a.leader, b.leader, "{variant}");
        assert_eq!(a.comm, b.comm, "{variant}");
    }
}

#[test]
fn catalog_apr_datasets_peak_at_scenario_optima() {
    use apr_sim::BugScenario;
    for s in BugScenario::catalog_all() {
        let d = catalog::by_name(&s.name).expect("dataset for scenario");
        assert_eq!(d.best_arm() + 1, s.density_optimum(), "{}", s.name);
    }
}
