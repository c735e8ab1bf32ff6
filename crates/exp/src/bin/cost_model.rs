//! §IV-E — the weighted cost model.
//!
//! Reproduces the section's reasoning numerically:
//! 1. the two-term (communication + convergence) model, which "clearly
//!    favors Distributed";
//! 2. the CPU-weighted model, which flips the recommendation to Standard —
//!    the regime APR inhabits because each occupied CPU runs a test suite
//!    per cycle;
//! 3. a sweep over the β/α (evaluation/communication price) ratio showing
//!    where the recommendation crosses over.
//!
//! Every variant is evaluated at its own default operating point
//! (Standard: n = k agents; Slate: n = γ·k slate; Distributed: n = k^{3/2}
//! population), matching the §IV-B parameter settings.

use mwu_core::cost::{CostWeights, Variant, WeightedCostModel};
use mwu_experiments::cli::{Args, OUT, PROFILE, QUIET, THREADS};
use mwu_experiments::render_table;

fn main() {
    let args = Args::from_env("cost_model", &[OUT, THREADS, PROFILE, QUIET]);

    println!("§IV-E — weighted cost model: cost = α·communication + β·convergence (+ γ·cpus)\n");

    // 1 & 2: the paper's regimes at k = 1024.
    let k = 1024;
    let regimes: Vec<(&str, CostWeights)> = vec![
        ("two-term (α=β=1)", CostWeights::two_term(1.0, 1.0)),
        (
            "communication-bound (α≫β)",
            CostWeights::communication_bound(),
        ),
        (
            "APR regime (expensive evaluation, CPU-priced)",
            CostWeights::apr_regime(),
        ),
        ("CPU-constrained", CostWeights::cpu_constrained()),
    ];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, w) in &regimes {
        let m = WeightedCostModel::new(*w);
        let costs: Vec<f64> = [Variant::Standard, Variant::Distributed, Variant::Slate]
            .iter()
            .map(|&v| m.cost_at_default(v, k))
            .collect();
        let rec = m.recommend_for_k(k);
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", costs[0]),
            format!("{:.0}", costs[1]),
            format!("{:.0}", costs[2]),
            rec.to_string(),
        ]);
        csv.push(vec![
            name.to_string().replace(',', ";"),
            format!("{:.2}", costs[0]),
            format!("{:.2}", costs[1]),
            format!("{:.2}", costs[2]),
            rec.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "regime (k = 1024)",
                "Standard",
                "Distributed",
                "Slate",
                "recommends"
            ],
            &rows
        )
    );

    // 3: crossover sweep over β/α with CPU price fixed.
    println!(
        "crossover sweep: β/α ratio (evaluation price vs. communication price), γ_cpu = 0.1\n"
    );
    let mut sweep_rows = Vec::new();
    let mut sweep_csv = Vec::new();
    for exp in -3..=3 {
        let ratio = 10f64.powi(exp);
        let w = CostWeights {
            communication: 1.0,
            convergence: ratio,
            cpus: 0.1,
            memory: 0.0,
        };
        let m = WeightedCostModel::new(w);
        let mut row = vec![format!("1e{exp}")];
        let mut crow = vec![format!("1e{exp}")];
        for &k in &[64usize, 1024, 16384] {
            let rec = m.recommend_for_k(k).to_string();
            row.push(rec.clone());
            crow.push(rec);
        }
        sweep_rows.push(row);
        sweep_csv.push(crow);
    }
    println!(
        "{}",
        render_table(&["β/α", "k=64", "k=1024", "k=16384"], &sweep_rows)
    );
    println!("reading: when communication dominates the price (small β/α), the");
    println!("model favors the small-footprint variants; when evaluation dominates");
    println!("and CPUs are priced, Distributed's k^(3/2) agent bill disqualifies it —");
    println!("\"the benefit of Distributed on reducing communication cost is not");
    println!("enough to compensate for its higher CPU demand\" (§IV-E.2).");

    args.write_csv(
        "cost_model.csv",
        &["regime", "standard", "distributed", "slate", "recommends"],
        &csv,
    );
    args.write_csv(
        "cost_model_sweep.csv",
        &["beta_over_alpha", "k64", "k1024", "k16384"],
        &sweep_csv,
    );
    args.write_profile();
}
