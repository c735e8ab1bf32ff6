//! Chaos harness: convergence-time degradation under injected faults.
//!
//! Sweeps fault rate × MWU algorithm on a unimodal bandit instance and
//! reports how much longer each variant takes to converge as the network
//! degrades, relative to its own fault-free baseline. The fault model is
//! the deterministic [`simnet::FaultPlan`]: per-observation drop / delay /
//! duplication / corruption decisions are pure keyed hashes of
//! `(seed, round, agent)`, so every cell is exactly reproducible.
//!
//! How faults reach each variant:
//!
//! * **Standard / Slate** — a dropped observation reports reward 0 (no
//!   evidence of success); a corrupted one reports the corrupted value,
//!   which the loss-clamping guard (`mwu_core::sanitize_reward`) must
//!   neutralize inside the update.
//! * **Distributed** — observations flow through the degradation-aware
//!   gossip update: drops become missing observations, delays become
//!   staleness (down-weighted), duplicates arrive twice (deduplicated),
//!   corruption is screened or clamped, and a round below quorum is a
//!   no-op.
//!
//! The binary exits non-zero if any weight/share vector leaves the finite
//! simplex — that is the CI chaos-smoke invariant.
//!
//! Flags: `--rates LIST` (comma-separated fault rates in [0, 1], default
//! `0,0.05,0.1,0.2`), `--size K` (arms, default 8), `--max-iterations N`
//! (cap per run, default 2000), `--replicates N` (default 100; `--fast`
//! caps it at 25), `--seed S`, `--out DIR`, `--threads N`, `--profile
//! PATH` and `--quiet`. Any other flag exits 2.

use mwu_core::{
    Bandit, DistributedConfig, DistributedMwu, GossipConfig, GossipObservation, MwuAlgorithm,
    SlateConfig, SlateMwu, StandardConfig, StandardMwu, ValueBandit,
};
use mwu_experiments::cli::{Args, Flag, FAST, OUT, PROFILE, QUIET, REPLICATES, SEED, THREADS};
use mwu_experiments::render_table;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use simnet::{FaultConfig, FaultPlan, MessageFate};
use std::num::NonZeroUsize;

/// One (algorithm, rate, replicate) chaos run.
struct ChaosRun {
    converged: bool,
    iterations: usize,
}

/// Abort the process if the weight/share vector left the finite simplex —
/// the invariant the CI chaos-smoke job enforces.
fn check_finite<A: MwuAlgorithm>(alg: &A, t: usize, plan: &FaultPlan) {
    if alg.probabilities().iter().any(|p| !p.is_finite()) {
        eprintln!(
            "FATAL: non-finite probability in {} at iteration {} (fault seed {})",
            alg.name(),
            t + 1,
            plan.seed()
        );
        std::process::exit(1);
    }
}

/// Full-information variants (Standard / Slate): faults corrupt or erase
/// individual reward observations before the ordinary update.
fn run_full_info<A: MwuAlgorithm>(
    alg: &mut A,
    bandit: &mut ValueBandit,
    plan: &FaultPlan,
    max_iterations: usize,
    rng: &mut SmallRng,
) -> ChaosRun {
    for t in 0..max_iterations {
        let planned = alg.plan(rng).to_vec();
        let rewards: Vec<f64> = planned
            .iter()
            .enumerate()
            .map(|(agent, &arm)| {
                let mut reward = bandit.pull(arm, rng);
                if let Some(bad) = plan.corrupt(t, agent) {
                    reward = bad;
                }
                match plan.message_fate(t, agent, 0, agent as u64, 1) {
                    MessageFate::Drop => 0.0,
                    _ => reward,
                }
            })
            .collect();
        alg.update(&rewards, rng);
        check_finite(alg, t, plan);
        if alg.has_converged() {
            return ChaosRun {
                converged: true,
                iterations: t + 1,
            };
        }
    }
    ChaosRun {
        converged: false,
        iterations: max_iterations,
    }
}

/// Distributed variant: message-level faults shape the observation set
/// handed to the degradation-aware gossip update.
fn run_gossip(
    alg: &mut DistributedMwu,
    bandit: &mut ValueBandit,
    plan: &FaultPlan,
    gossip: &GossipConfig,
    max_iterations: usize,
    rng: &mut SmallRng,
) -> ChaosRun {
    let mut obs: Vec<GossipObservation> = Vec::new();
    for t in 0..max_iterations {
        let planned = alg.plan(rng).to_vec();
        obs.clear();
        let encode_span = mwu_core::prof::span(mwu_core::prof::Phase::GossipEncode);
        for (agent, &arm) in planned.iter().enumerate() {
            let mut reward = bandit.pull(arm, rng);
            if let Some(bad) = plan.corrupt(t, agent) {
                reward = bad;
            }
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
        drop(encode_span);
        alg.update_gossip(&obs, gossip, rng);
        check_finite(alg, t, plan);
        if alg.has_converged() {
            return ChaosRun {
                converged: true,
                iterations: t + 1,
            };
        }
    }
    ChaosRun {
        converged: false,
        iterations: max_iterations,
    }
}

const RATES: Flag = Flag::of::<String>("--rates", "LIST", "fault rates (default 0,0.05,0.1,0.2)");
const SIZE: Flag = Flag::of::<NonZeroUsize>("--size", "K", "arms (default 8)");
const MAX_ITERS: Flag = Flag::of::<usize>("--max-iterations", "N", "cap per run (default 2000)");

fn main() {
    let flags = &[
        RATES, SIZE, MAX_ITERS, REPLICATES, FAST, SEED, OUT, THREADS, PROFILE, QUIET,
    ];
    let args = Args::from_env("chaos", flags);
    let rates: Vec<f64> = match args.get::<String>(&RATES) {
        None => vec![0.0, 0.05, 0.1, 0.2],
        Some(list) => list
            .split(',')
            .map(|r| match r.trim().parse() {
                Ok(rate) if (0.0..=1.0).contains(&rate) => rate,
                _ => args.fail(format_args!(
                    "--rates {list:?}: {r:?} is not a rate in [0, 1]"
                )),
            })
            .collect(),
    };
    let size = args.get(&SIZE).map_or(8, NonZeroUsize::get);
    let max_iterations = args.get(&MAX_ITERS).unwrap_or(2000);
    let (seed, replicates) = (args.seed(), args.replicates());

    // One fixed unimodal instance per size: cells differ only in faults.
    let values = mwu_datasets::unimodal::generate(size, seed);
    let algorithms = ["standard", "slate", "distributed"];
    let gossip = GossipConfig::default();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv: Vec<Vec<String>> = Vec::new();

    println!(
        "chaos sweep: k = {size}, mixed-fault plan, {replicates} replicates, cap {max_iterations}\n"
    );

    for (alg_idx, alg_name) in algorithms.iter().enumerate() {
        let mut baseline: Option<f64> = None;
        for &rate in &rates {
            let mut iters_sum = 0usize;
            let mut converged = 0usize;
            for rep in 0..replicates {
                let run_seed =
                    mwu_core::rng::mix(&[seed, alg_idx as u64 + 1, rate.to_bits(), rep as u64]);
                let mut bandit = ValueBandit::bernoulli(values.clone());
                let mut rng = SmallRng::seed_from_u64(run_seed);
                let plan = FaultPlan::new(run_seed ^ 0xC4A05, FaultConfig::mixed(rate));
                let run = match *alg_name {
                    "standard" => {
                        let mut alg = StandardMwu::new(size, StandardConfig::default());
                        run_full_info(&mut alg, &mut bandit, &plan, max_iterations, &mut rng)
                    }
                    "slate" => {
                        let mut alg = SlateMwu::new(size, SlateConfig::default());
                        run_full_info(&mut alg, &mut bandit, &plan, max_iterations, &mut rng)
                    }
                    _ => {
                        let mut alg = DistributedMwu::try_new(size, DistributedConfig::default())
                            .expect("small-k population is tractable");
                        run_gossip(
                            &mut alg,
                            &mut bandit,
                            &plan,
                            &gossip,
                            max_iterations,
                            &mut rng,
                        )
                    }
                };
                iters_sum += run.iterations;
                converged += run.converged as usize;
            }
            let mean = iters_sum as f64 / replicates as f64;
            let inflation = match baseline {
                None => {
                    baseline = Some(mean.max(1.0));
                    1.0
                }
                Some(b) => mean / b,
            };
            args.progress(format_args!(
                "{alg_name} rate {rate}: mean {mean:.1} cycles, {converged}/{replicates} converged"
            ));
            rows.push(vec![
                (*alg_name).into(),
                format!("{rate}"),
                format!("{converged}/{replicates}"),
                format!("{mean:.1}"),
                format!("{inflation:.2}x"),
            ]);
            csv.push(vec![
                (*alg_name).into(),
                format!("{rate}"),
                format!("{replicates}"),
                format!("{converged}"),
                format!("{mean:.3}"),
                format!("{inflation:.4}"),
            ]);
        }
    }

    println!(
        "{}",
        render_table(
            &["algorithm", "rate", "converged", "mean cycles", "inflation"],
            &rows,
        )
    );
    args.write_csv(
        "chaos.csv",
        &[
            "algorithm",
            "fault_rate",
            "replicates",
            "converged",
            "mean_iterations",
            "inflation_vs_faultfree",
        ],
        &csv,
    );
    args.write_profile();
}
