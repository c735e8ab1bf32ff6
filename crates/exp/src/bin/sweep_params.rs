//! §VI parameter-interaction study (the paper's stated future work):
//! "each algorithm has multiple interacting parameters (e.g., learning
//! rate, iteration limit, and the chance of choosing an option randomly
//! instead of obeying the weight distribution) ... Future research could
//! characterize the interaction between parameters more carefully."
//!
//! Sweeps, per variant, the parameter the paper calls out, on one random
//! and one unimodal instance, reporting convergence iterations and
//! accuracy.

use mwu_core::prelude::*;
use mwu_core::rng::mix;
use mwu_core::stats::RunningStats;
use mwu_core::LearningRate;
use mwu_datasets::{catalog, Dataset};
use mwu_experiments::cli::{Args, SWEEP};
use mwu_experiments::render_table;

struct SweepPoint {
    variant: &'static str,
    parameter: &'static str,
    value: f64,
    dataset: String,
    iterations: f64,
    accuracy: f64,
    converged_frac: f64,
}

/// Run `reps` replicates of the algorithm `make` builds on `d`, replicate
/// `r` seeded with `seed(r)`, and average them into one sweep point.
fn sweep_point<A: MwuAlgorithm>(
    (variant, parameter, value): (&'static str, &'static str, f64),
    d: &Dataset,
    reps: usize,
    seed: impl Fn(u64) -> u64,
    make: impl Fn() -> A,
) -> SweepPoint {
    let (mut iters, mut acc, mut conv) = (RunningStats::new(), RunningStats::new(), 0usize);
    for rep in 0..reps {
        let config = RunConfig::seeded(seed(rep as u64));
        let out = run_to_convergence(&mut make(), &mut d.bandit(), &config);
        iters.push(out.iterations as f64);
        acc.push(out.accuracy(&d.values));
        conv += out.converged as usize;
    }
    SweepPoint {
        variant,
        parameter,
        value,
        dataset: d.name.clone(),
        iterations: iters.mean(),
        accuracy: acc.mean(),
        converged_frac: conv as f64 / reps as f64,
    }
}

fn main() {
    let args = Args::from_env("sweep_params", SWEEP);
    let (reps, seed) = (args.replicates().clamp(3, 20), args.seed());
    let datasets = [
        catalog::by_name("random256").unwrap(),
        catalog::by_name("unimodal256").unwrap(),
    ];
    let mut points: Vec<SweepPoint> = Vec::new();

    for d in &datasets {
        let k = d.size();
        // Standard: learning rate η.
        for &eta in &[0.05, 0.1, 0.25, 0.5] {
            let config = StandardConfig {
                eta: LearningRate::Constant(eta),
                ..StandardConfig::default()
            };
            let make = || StandardMwu::new(k, config);
            let stream = |rep| mix(&[seed, rep]);
            points.push(sweep_point(("standard", "eta", eta), d, reps, stream, make));
        }
        // Slate: exploration rate γ (which also sets the slate size).
        for &gamma in &[0.02, 0.05, 0.1, 0.2] {
            let config = SlateConfig {
                gamma,
                ..SlateConfig::default()
            };
            let make = || SlateMwu::new(k, config);
            let stream = |rep| mix(&[seed, 7, rep]);
            points.push(sweep_point(
                ("slate", "gamma", gamma),
                d,
                reps,
                stream,
                make,
            ));
        }
        // Distributed: adoption contrast β (with μ fixed).
        for &beta in &[0.6, 0.75, 0.9, 0.98] {
            let config = DistributedConfig {
                beta,
                ..DistributedConfig::default()
            };
            let make = || DistributedMwu::try_new(k, config).expect("k=256 tractable");
            let stream = |rep| mix(&[seed, 13, rep]);
            points.push(sweep_point(
                ("distributed", "beta", beta),
                d,
                reps,
                stream,
                make,
            ));
        }
    }

    println!(
        "§VI parameter sweep ({} replicates per point, k = 256 instances)\n",
        reps
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.variant.to_string(),
                p.parameter.to_string(),
                format!("{:.2}", p.value),
                p.dataset.clone(),
                format!("{:.1}", p.iterations),
                format!("{:.1}", p.accuracy),
                format!("{:.2}", p.converged_frac),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "variant",
                "param",
                "value",
                "dataset",
                "iters",
                "accuracy%",
                "conv frac"
            ],
            &rows
        )
    );
    println!("reading: larger η converges faster at an accuracy price (exploit/");
    println!("explore); γ trades slate width against per-cycle information; larger");
    println!("β sharpens adoption and speeds population consensus.");

    let csv: Vec<Vec<String>> = rows;
    args.write_csv(
        "sweep_params.csv",
        &[
            "variant",
            "param",
            "value",
            "dataset",
            "iterations",
            "accuracy",
            "converged_frac",
        ],
        &csv,
    );
    args.write_profile();
}
