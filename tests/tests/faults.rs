//! Fault-injection integration tests.
//!
//! Covers the robustness contract of the MWU variants under the `chaos`
//! adversary (kill/resume and storage faults are the daemon's, in
//! `service.rs` and `service_faults.rs`; draw determinism is pinned by
//! `simnet`'s `faults::tests` and by `chaos.csv` in
//! `crates/exp/tests/binaries.rs`):
//!
//! * Distributed MWU still converges on a unimodal instance with ≤ 10 %
//!   message drops flowing through the degradation-aware gossip update;
//! * property tests: weights stay on the finite simplex under arbitrary
//!   drop / duplicate / corruption sequences.

use mwu_core::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use simnet::{FaultConfig, FaultPlan, MessageFate};

/// Feed one gossip round through the degraded-observation path: drops
/// become missing observations, delays become staleness, duplicates arrive
/// twice.
fn degraded_gossip_round(
    alg: &mut DistributedMwu,
    bandit: &mut ValueBandit,
    plan: &FaultPlan,
    gossip: &GossipConfig,
    t: usize,
    rng: &mut SmallRng,
) {
    let planned = alg.plan(rng).to_vec();
    let mut obs = Vec::with_capacity(planned.len());
    for (agent, &arm) in planned.iter().enumerate() {
        let reward = bandit.pull(arm, rng);
        match plan.message_fate(t, agent, 0, agent as u64, 1) {
            MessageFate::Drop => {}
            MessageFate::Deliver => obs.push(GossipObservation::fresh(agent, reward)),
            MessageFate::Delay(d) => obs.push(GossipObservation {
                agent,
                reward,
                staleness: d,
            }),
            MessageFate::Duplicate => {
                obs.push(GossipObservation::fresh(agent, reward));
                obs.push(GossipObservation::fresh(agent, reward));
            }
        }
    }
    alg.update_gossip(&obs, gossip, rng);
}

#[test]
fn distributed_converges_on_unimodal_with_ten_percent_drops() {
    let k = 16;
    let values = mwu_datasets::unimodal::generate(k, 9);
    let best = values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    let gossip = GossipConfig::default();
    let mut converged_runs = 0;
    let mut accurate_runs = 0;
    const RUNS: usize = 5;
    for seed in 0..RUNS as u64 {
        let mut alg = DistributedMwu::try_new(k, DistributedConfig::default()).unwrap();
        let mut bandit = ValueBandit::bernoulli(values.clone());
        let mut rng = SmallRng::seed_from_u64(100 + seed);
        let plan = FaultPlan::new(200 + seed, FaultConfig::drops(0.10));
        for t in 0..3000 {
            degraded_gossip_round(&mut alg, &mut bandit, &plan, &gossip, t, &mut rng);
            let probs = alg.probabilities();
            assert!(probs.iter().all(|p| p.is_finite()));
            if alg.has_converged() {
                break;
            }
        }
        if alg.has_converged() {
            converged_runs += 1;
            // Converging near the optimum (within a small neighborhood of
            // the unimodal peak) counts as accurate.
            if alg.leader().abs_diff(best) <= 2 {
                accurate_runs += 1;
            }
        }
    }
    assert_eq!(
        converged_runs, RUNS,
        "10% drops must not prevent convergence"
    );
    assert!(
        accurate_runs * 2 >= RUNS,
        "most runs should land near the unimodal peak ({accurate_runs}/{RUNS})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Standard MWU: arbitrary per-agent drop/corrupt patterns keep the
    // weight vector a finite probability distribution.
    #[test]
    fn standard_simplex_survives_arbitrary_fault_patterns(
        seed in 0u64..1000,
        faults in prop::collection::vec(0u8..4, 8..40),
    ) {
        let k = 8;
        let mut alg = StandardMwu::new(k, StandardConfig::default());
        let mut rng = SmallRng::seed_from_u64(seed);
        for chunk in faults.chunks(k) {
            let n = alg.plan(&mut rng).len();
            let rewards: Vec<f64> = (0..n)
                .map(|j| match chunk.get(j % chunk.len()) {
                    Some(0) => 0.0,           // dropped
                    Some(1) => f64::NAN,      // corrupted
                    Some(2) => 1e12,          // garbled huge
                    _ => 0.7,                 // delivered
                })
                .collect();
            alg.update(&rewards, &mut rng);
            let probs = alg.probabilities();
            let sum: f64 = probs.iter().sum();
            prop_assert!(probs.iter().all(|p| p.is_finite() && *p >= 0.0));
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    // Distributed gossip: arbitrary drop/duplicate/staleness mixes keep
    // the population shares a finite distribution that sums to 1 and the
    // population count conserved.
    #[test]
    fn gossip_population_survives_arbitrary_degradation(
        seed in 0u64..1000,
        fates in prop::collection::vec(0u8..5, 4..32),
    ) {
        let k = 4;
        let mut alg = DistributedMwu::try_new(k, DistributedConfig::default()).unwrap();
        let pop = alg.cpus_per_iteration();
        let gossip = GossipConfig::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        for (round, window) in fates.windows(3).enumerate() {
            let planned = alg.plan(&mut rng).to_vec();
            let mut obs = Vec::new();
            for (agent, &arm) in planned.iter().enumerate() {
                let fate = window[agent % window.len()];
                let reward = match fate {
                    3 => f64::NAN,
                    4 => -1e9,
                    _ => (arm as f64 + 1.0) / (k as f64),
                };
                match fate {
                    0 => {} // dropped
                    1 => {
                        obs.push(GossipObservation::fresh(agent, reward));
                        obs.push(GossipObservation::fresh(agent, reward));
                    }
                    2 => obs.push(GossipObservation {
                        agent,
                        reward,
                        staleness: (round % 9) as u32,
                    }),
                    _ => obs.push(GossipObservation::fresh(agent, reward)),
                }
            }
            alg.update_gossip(&obs, &gossip, &mut rng);
            let probs = alg.probabilities();
            let sum: f64 = probs.iter().sum();
            prop_assert!(probs.iter().all(|p| p.is_finite() && *p >= 0.0));
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert_eq!(alg.cpus_per_iteration(), pop);
        }
    }
}
