//! §II-C — communication congestion of Distributed MWU.
//!
//! Verifies empirically that the per-round congestion of the
//! random-neighbor observation pattern is the balls-into-bins maximum load,
//! `Θ(ln n / ln ln n)` with high probability — versus the `n − 1` congestion
//! of the Standard/Slate global synchronization.

use mwu_experiments::cli::{Args, SWEEP};
use mwu_experiments::render_table;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use simnet::congestion::{exceedance_rate, expected_max_load, mean_max_load};
use simnet::Topology;

fn main() {
    let args = Args::from_env("congestion", SWEEP);
    let seed = args.seed();
    let trials = args.replicates();

    println!("§II-C — congestion of the heaviest-hit node per round ({trials} trials)\n");
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &n in &[64usize, 256, 1024, 4096, 16384, 65536] {
        let theory = expected_max_load(n);
        let empirical = mean_max_load(n, trials, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ n as u64);
        let star = Topology::Star.congestion(n, &mut rng);
        let exceed = exceedance_rate(n, 3.0 * theory, trials, seed ^ 0xE);
        rows.push(vec![
            n.to_string(),
            format!("{:.2}", theory),
            format!("{:.2}", empirical),
            star.to_string(),
            format!("{:.3}", exceed),
        ]);
        csv.push(vec![
            n.to_string(),
            format!("{:.4}", theory),
            format!("{:.4}", empirical),
            star.to_string(),
            format!("{:.4}", exceed),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "n (agents)",
                "ln n / ln ln n",
                "Distributed (measured)",
                "Standard/Slate (star)",
                "P[> 3x theory]"
            ],
            &rows
        )
    );
    println!("reading: Distributed's measured congestion tracks the theory column");
    println!("within a small constant and is exceeded (by 3x) with vanishing");
    println!("probability, while global synchronization pays n − 1 every round.");

    args.write_csv(
        "congestion.csv",
        &[
            "n",
            "theory",
            "distributed_measured",
            "star",
            "exceedance_3x",
        ],
        &csv,
    );
    args.write_profile();
}
