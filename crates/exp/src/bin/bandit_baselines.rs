//! Context ablation (§V-A): the three parallel MWU realizations against
//! the classic bandit strategies they coexist with in the literature —
//! Hedge (the gains-form exponential-weights twin of Standard) and the
//! sequential ε-greedy and UCB1 strategies.
//!
//! Reports update cycles, *total pulls* (the true cost unit for sequential
//! strategies), accuracy, and CPUs — showing what the paper's parallel
//! formulations buy over one-pull-at-a-time learning.

use mwu_core::alternatives::{EpsilonGreedy, Exp3, HedgeConfig, HedgeMwu, Ucb1};
use mwu_core::prelude::*;
use mwu_core::stats::RunningStats;
use mwu_datasets::catalog;
use mwu_experiments::cli::{Args, SWEEP};
use mwu_experiments::render_table;

fn main() {
    let args = Args::from_env("bandit_baselines", SWEEP);
    let reps = args.replicates().clamp(3, 30);
    let datasets = [
        catalog::by_name("random256").unwrap(),
        catalog::by_name("unimodal256").unwrap(),
        catalog::by_name("Chart26").unwrap(),
    ];

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for d in &datasets {
        let k = d.size();
        for alg_name in [
            "standard",
            "hedge",
            "slate",
            "exp3",
            "distributed",
            "epsilon-greedy",
            "ucb1",
        ] {
            let mut iters = RunningStats::new();
            let mut pulls = RunningStats::new();
            let mut acc = RunningStats::new();
            let mut cpus = 0usize;
            let mut conv = 0usize;
            for rep in 0..reps {
                let seed = mwu_core::rng::mix(&[args.seed(), rep as u64, k as u64]);
                let cfg = RunConfig::seeded(seed).with_max_iterations(
                    // Sequential strategies pull once per cycle; give them
                    // a pull budget comparable to the parallel variants.
                    if alg_name == "epsilon-greedy" || alg_name == "ucb1" || alg_name == "exp3" {
                        200_000
                    } else {
                        10_000
                    },
                );
                let mut bandit = d.bandit();
                let out = match alg_name {
                    "standard" => {
                        let mut a = StandardMwu::new(k, StandardConfig::default());
                        cpus = a.cpus_per_iteration();
                        run_to_convergence(&mut a, &mut bandit, &cfg)
                    }
                    "hedge" => {
                        let mut a = HedgeMwu::new(k, HedgeConfig::default());
                        cpus = a.cpus_per_iteration();
                        run_to_convergence(&mut a, &mut bandit, &cfg)
                    }
                    "slate" => {
                        let mut a = SlateMwu::new(k, SlateConfig::default());
                        cpus = a.cpus_per_iteration();
                        run_to_convergence(&mut a, &mut bandit, &cfg)
                    }
                    "distributed" => {
                        let mut a =
                            DistributedMwu::try_new(k, DistributedConfig::default()).unwrap();
                        cpus = a.cpus_per_iteration();
                        run_to_convergence(&mut a, &mut bandit, &cfg)
                    }
                    "exp3" => {
                        let mut a = Exp3::new(k, 0.05);
                        cpus = a.cpus_per_iteration();
                        run_to_convergence(&mut a, &mut bandit, &cfg)
                    }
                    "epsilon-greedy" => {
                        let mut a = EpsilonGreedy::new(k, 0.05);
                        cpus = a.cpus_per_iteration();
                        run_to_convergence(&mut a, &mut bandit, &cfg)
                    }
                    _ => {
                        let mut a = Ucb1::new(k);
                        cpus = a.cpus_per_iteration();
                        run_to_convergence(&mut a, &mut bandit, &cfg)
                    }
                };
                iters.push(out.iterations as f64);
                pulls.push(out.pulls as f64);
                acc.push(out.accuracy(&d.values));
                conv += out.converged as usize;
            }
            rows.push(vec![
                d.name.clone(),
                alg_name.to_string(),
                format!("{:.0}", iters.mean()),
                format!("{:.0}", pulls.mean()),
                format!("{:.1}", acc.mean()),
                cpus.to_string(),
                format!("{}/{}", conv, reps),
            ]);
            csv.push(vec![
                d.name.clone(),
                alg_name.to_string(),
                format!("{:.1}", iters.mean()),
                format!("{:.1}", pulls.mean()),
                format!("{:.2}", acc.mean()),
                cpus.to_string(),
                conv.to_string(),
            ]);
        }
    }

    println!(
        "§V-A context: parallel MWU vs classic bandit strategies ({} replicates)\n",
        reps
    );
    println!(
        "{}",
        render_table(
            &[
                "dataset",
                "algorithm",
                "cycles",
                "pulls",
                "accuracy%",
                "cpus/cycle",
                "conv"
            ],
            &rows
        )
    );
    println!("reading: the sequential strategies attain comparable accuracy but");
    println!("their convergence is measured in *pulls*, each a full test-suite run");
    println!("in the APR setting — the parallel MWU variants compress that wall-");
    println!("clock cost into a handful of synchronized cycles.");

    args.write_csv(
        "bandit_baselines.csv",
        &[
            "dataset",
            "algorithm",
            "cycles",
            "pulls",
            "accuracy",
            "cpus",
            "converged",
        ],
        &csv,
    );
    args.write_profile();
}
