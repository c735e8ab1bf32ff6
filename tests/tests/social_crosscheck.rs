//! Distributed MWU as *actual* message-passing agents on the `simnet`
//! runtime, cross-checked against the tight loop.
//!
//! [`mwu_core::DistributedMwu`] simulates the Fig. 3 protocol in a tight
//! loop with analytic congestion accounting. This harness re-expresses the
//! same protocol as [`simnet::Network`] agents whose neighbor observations
//! are real messages, so the two implementations can be checked against
//! each other: the population dynamics must agree statistically, and the
//! measured per-round congestion must match the balls-into-bins profile
//! the tight loop reports.

use bytes::Bytes;
use mwu_core::rng::mix;
use rand::Rng;
use simnet::{Context, NetStats, Network};
use std::sync::{Arc, Mutex};

/// Parameters of one simnet-hosted Distributed MWU run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SocialRunConfig {
    /// Number of agents.
    population: usize,
    /// Exploration probability μ.
    mu: f64,
    /// Adopt-on-failure probability α.
    alpha: f64,
    /// Adopt-on-success probability β.
    beta: f64,
    /// Rounds to run.
    rounds: usize,
    /// RNG seed.
    seed: u64,
}

/// Outcome of a simnet-hosted run.
#[derive(Debug, Clone, PartialEq)]
struct SocialRunReport {
    /// Final per-option population counts.
    counts: Vec<usize>,
    /// Leader option and its population share.
    leader: usize,
    /// Leader share at the end.
    leader_share: f64,
    /// Network-measured communication statistics.
    net: NetStats,
}

/// Run the Fig. 3 protocol over `values` (true option qualities) as simnet
/// agents. Observation traffic is real messages; adoption uses each
/// agent's deterministic per-round RNG.
fn run_distributed_on_simnet(values: &[f64], config: &SocialRunConfig) -> SocialRunReport {
    assert!(!values.is_empty());
    assert!(config.population >= values.len());
    let k = values.len();
    let choices: Arc<Mutex<Vec<usize>>> =
        Arc::new(Mutex::new((0..config.population).map(|j| j % k).collect()));

    let mut net = Network::new(config.population, mix(&[config.seed, 0x0050_C1A1]));
    for _ in 0..config.population {
        let choices = Arc::clone(&choices);
        let values = values.to_vec();
        let cfg = *config;
        net.add_agent(move |ctx: &mut Context<'_>| {
            let me = ctx.id();
            let n = ctx.n_agents();
            let observed = if ctx.rng().gen::<f64>() < cfg.mu {
                ctx.rng().gen_range(0..values.len())
            } else {
                let mut nb = ctx.rng().gen_range(0..n - 1);
                if nb >= me {
                    nb += 1;
                }
                // The observation is one message of traffic to the
                // observed neighbor (what congestion measures).
                ctx.send(nb, Bytes::from_static(b"obs"));
                choices.lock().unwrap()[nb]
            };
            let success = ctx.rng().gen::<f64>() < values[observed];
            let adopt_p = if success { cfg.beta } else { cfg.alpha };
            if ctx.rng().gen::<f64>() < adopt_p {
                choices.lock().unwrap()[me] = observed;
            }
        });
    }
    let net_stats = net.run(config.rounds);

    let final_choices = choices.lock().unwrap().clone();
    let mut counts = vec![0usize; k];
    for c in final_choices {
        counts[c] += 1;
    }
    let (leader, &count) = counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .expect("non-empty counts");
    SocialRunReport {
        leader,
        leader_share: count as f64 / config.population as f64,
        counts,
        net: net_stats,
    }
}

fn bump_values(k: usize, best: usize) -> Vec<f64> {
    (0..k).map(|i| if i == best { 0.9 } else { 0.1 }).collect()
}

fn config(population: usize, rounds: usize) -> SocialRunConfig {
    SocialRunConfig {
        population,
        mu: 0.05,
        alpha: 0.02,
        beta: 0.90,
        rounds,
        seed: 42,
    }
}

#[test]
fn population_converges_to_best_option() {
    let values = bump_values(10, 4);
    let report = run_distributed_on_simnet(&values, &config(300, 80));
    assert_eq!(report.leader, 4);
    assert!(
        report.leader_share >= 0.30,
        "share {} below the paper's threshold",
        report.leader_share
    );
    let total: usize = report.counts.iter().sum();
    assert_eq!(total, 300);
}

#[test]
fn congestion_matches_balls_into_bins_like_the_tight_loop() {
    let values = bump_values(8, 2);
    let report = run_distributed_on_simnet(&values, &config(500, 40));
    let theory = simnet::expected_max_load(500);
    assert!(
        report.net.mean_congestion() < 4.0 * theory,
        "mean congestion {} vs theory {theory}",
        report.net.mean_congestion()
    );
    // ~95 % of agents observe a neighbor each round.
    let expected_msgs = (0.95 * 500.0 * 40.0) as u64;
    assert!(
        report.net.messages.abs_diff(expected_msgs) < expected_msgs / 10,
        "messages {} vs expected ≈{expected_msgs}",
        report.net.messages
    );
}

#[test]
fn agrees_with_tight_loop_implementation() {
    // Same protocol, two implementations: both must converge to the
    // same leader with comparable shares on a clear instance.
    use mwu_core::prelude::*;
    let values = bump_values(12, 7);

    let report = run_distributed_on_simnet(&values, &config(432, 100));

    let mut alg = DistributedMwu::try_new(
        12,
        DistributedConfig {
            pop_size: Some(432),
            ..DistributedConfig::default()
        },
    )
    .unwrap();
    let mut bandit = ValueBandit::bernoulli(values);
    let out = run_to_convergence(
        &mut alg,
        &mut bandit,
        &RunConfig::seeded(9).with_max_iterations(100),
    );

    assert_eq!(
        report.leader, out.leader,
        "implementations disagree on the leader"
    );
    // Congestion profiles agree within a small factor.
    let tight = out.comm.mean_congestion();
    let message_based = report.net.mean_congestion();
    assert!(
        (tight - message_based).abs() < 4.0,
        "congestion tight-loop {tight} vs simnet {message_based}"
    );
}

#[test]
fn deterministic_given_seed() {
    let values = bump_values(6, 1);
    let a = run_distributed_on_simnet(&values, &config(120, 30));
    let b = run_distributed_on_simnet(&values, &config(120, 30));
    assert_eq!(a, b);
}
