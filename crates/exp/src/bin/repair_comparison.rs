//! §IV-G — MWRepair vs. GenProg / RSRepair / AE on the ten APR scenarios.
//!
//! Reports, per algorithm: scenarios repaired, fitness evaluations to first
//! repair (the field's standard cost unit), and critical-path latency
//! (wall-clock-equivalent under each algorithm's own parallelism).
//!
//! Paper headline shapes: MWRepair repairs all scenarios while the
//! baselines miss some; MWRepair needs roughly half the fitness
//! evaluations of the GenProg family; and its parallel probes give an
//! order-of-magnitude (≈40×) latency advantage.

use apr_baselines::{AdaptiveSearch, GenProg, GenProgConfig, RandomSearch, SearchBudget};
use apr_sim::{BugScenario, CostLedger};
use mwrepair::{minimize_patch, repair_with_variant, MwRepairConfig, VariantChoice};
use mwu_experiments::cli::{Args, SWEEP};
use mwu_experiments::render_table;

struct AlgRow {
    name: &'static str,
    repaired: usize,
    total: usize,
    evals_sum: u64,
    latency_sum: u64,
}

fn main() {
    let args = Args::from_env("repair_comparison", SWEEP);
    // Fitness-evaluation budget per scenario. GenProg-scale budgets are a
    // few thousand evaluations; 10,000 gives the single-edit baselines a
    // generous shot while still separating the hard scenarios (whose
    // expected single-edit cost exceeds it).
    let budget_evals: u64 = 10_000;
    let scenarios = BugScenario::catalog_all();
    let reps = args.replicates().clamp(1, 10) as u64; // end-to-end runs are heavy

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv: Vec<Vec<String>> = Vec::new();
    let mut precompute_evals_sum: u64 = 0;
    let mut precompute_latency_sum: u64 = 0;
    let mut patch_sizes: Vec<(usize, usize)> = Vec::new(); // (raw, minimized)
    let mut totals: Vec<AlgRow> = ["mwrepair", "genprog", "rsrepair", "ae"]
        .iter()
        .map(|&name| AlgRow {
            name,
            repaired: 0,
            total: 0,
            evals_sum: 0,
            latency_sum: 0,
        })
        .collect();

    for (sidx, s) in scenarios.iter().enumerate() {
        args.progress(format_args!("scenario {} (k = {})...", s.name, s.options));
        // The precompute phase is a one-time, per-program cost amortized
        // over every bug repaired in that program (§III-C); it is built
        // once per scenario here and reported separately from the online
        // search, matching the paper's accounting ("including the overhead
        // of the online learning process").
        let precompute_ledger = CostLedger::new();
        let pool = s.build_pool(args.seed(), Some(&precompute_ledger));
        precompute_evals_sum += precompute_ledger.fitness_evals();
        precompute_latency_sum += precompute_ledger.critical_path_ms();

        for rep in 0..reps {
            let seed = mwu_core::rng::mix(&[args.seed(), rep, sidx as u64]);

            // MWRepair (Standard variant — the paper's finding: "the
            // algorithm that uses global memory and has high communication
            // cost outperforms the other two" in APR's cheap-communication,
            // expensive-evaluation regime; its wide per-cycle probe fan-out
            // is what buys the latency advantage).
            let ledger = CostLedger::new();
            let out = repair_with_variant(
                s,
                &pool,
                VariantChoice::Standard,
                &MwRepairConfig::seeded(seed),
                Some(&ledger),
            )
            .expect("standard is always tractable");
            if let Some(patch) = &out.repair {
                // MWRepair patches are compositions of many mutations;
                // ddmin reduces them to the 1-minimal repairing core
                // ("most multi-edit repairs ... can be minimized to one or
                // two single-statement edits", §V-B).
                let min = minimize_patch(s, &patch.mutations, None);
                patch_sizes.push((patch.mutations.len(), min.mutations.len()));
            }
            record(
                &mut totals[0],
                out.is_repaired(),
                ledger.fitness_evals(),
                ledger.critical_path_ms(),
            );
            push_row(
                &mut csv,
                &s.name,
                rep,
                "mwrepair",
                out.is_repaired(),
                ledger.fitness_evals(),
                ledger.critical_path_ms(),
            );

            // GenProg.
            let ledger = CostLedger::new();
            let gp = GenProg::new(GenProgConfig::default()).run(
                s,
                &SearchBudget::new(budget_evals, seed),
                Some(&ledger),
            );
            record(
                &mut totals[1],
                gp.is_repaired(),
                gp.evals,
                ledger.critical_path_ms(),
            );
            push_row(
                &mut csv,
                &s.name,
                rep,
                "genprog",
                gp.is_repaired(),
                gp.evals,
                ledger.critical_path_ms(),
            );

            // RSRepair.
            let ledger = CostLedger::new();
            let rs = RandomSearch::default().run(
                s,
                &SearchBudget::new(budget_evals, seed),
                Some(&ledger),
            );
            record(
                &mut totals[2],
                rs.is_repaired(),
                rs.evals,
                ledger.critical_path_ms(),
            );
            push_row(
                &mut csv,
                &s.name,
                rep,
                "rsrepair",
                rs.is_repaired(),
                rs.evals,
                ledger.critical_path_ms(),
            );

            // AE (deterministic; one run is representative, but re-run per
            // rep for uniform accounting — identical outcomes).
            let ledger = CostLedger::new();
            let ae = AdaptiveSearch::default().run(
                s,
                &SearchBudget::new(budget_evals, seed),
                Some(&ledger),
            );
            record(
                &mut totals[3],
                ae.is_repaired(),
                ae.evals,
                ledger.critical_path_ms(),
            );
            push_row(
                &mut csv,
                &s.name,
                rep,
                "ae",
                ae.is_repaired(),
                ae.evals,
                ledger.critical_path_ms(),
            );
        }
    }

    println!(
        "§IV-G — repair effectiveness and cost ({} scenarios × {} repetitions, budget {} evals)\n",
        scenarios.len(),
        reps,
        budget_evals
    );
    for t in &totals {
        rows.push(vec![
            t.name.to_string(),
            format!("{}/{}", t.repaired, t.total),
            format!("{:.0}", t.evals_sum as f64 / t.total as f64),
            format!("{:.0}", t.latency_sum as f64 / t.total as f64),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "algorithm",
                "repaired",
                "mean fitness evals",
                "mean latency (sim ms)"
            ],
            &rows
        )
    );
    println!("\nMWRepair one-time precompute (amortized over all bugs of a program):");
    println!(
        "  {} candidate evaluations total across the {} programs, critical-path {} sim-ms",
        precompute_evals_sum,
        scenarios.len(),
        precompute_latency_sum
    );

    if !patch_sizes.is_empty() {
        let raw_mean =
            patch_sizes.iter().map(|(r, _)| *r as f64).sum::<f64>() / patch_sizes.len() as f64;
        let min_mean =
            patch_sizes.iter().map(|(_, m)| *m as f64).sum::<f64>() / patch_sizes.len() as f64;
        println!(
            "\nMWRepair patch minimization (ddmin): mean raw composition {:.1} mutations\n  -> mean 1-minimal patch {:.1} mutations (paper: repairs minimize to 1-2 edits)",
            raw_mean, min_mean
        );
    }

    let mw = &totals[0];
    let gp = &totals[1];
    if gp.evals_sum > 0 && mw.latency_sum > 0 {
        println!("\nshape checks:");
        println!(
            "  MWRepair fitness evals / GenProg fitness evals = {:.2}  (paper: ≈ 0.52)",
            mw.evals_sum as f64 / gp.evals_sum as f64
        );
        println!(
            "  GenProg latency / MWRepair latency = {:.1}×  (paper: ≈ 40×)",
            gp.latency_sum as f64 / mw.latency_sum as f64
        );
        println!(
            "  repairs: MWRepair {}/{} vs GenProg {}/{} (paper: 10/10 vs 7–8/10 overall)",
            mw.repaired, mw.total, gp.repaired, gp.total
        );
    }

    args.write_csv(
        "repair_comparison.csv",
        &[
            "scenario",
            "rep",
            "algorithm",
            "repaired",
            "fitness_evals",
            "latency_ms",
        ],
        &csv,
    );
    args.write_profile();
}

fn record(t: &mut AlgRow, repaired: bool, evals: u64, latency: u64) {
    t.total += 1;
    if repaired {
        t.repaired += 1;
    }
    t.evals_sum += evals;
    t.latency_sum += latency;
}

fn push_row(
    csv: &mut Vec<Vec<String>>,
    scenario: &str,
    rep: u64,
    alg: &str,
    repaired: bool,
    evals: u64,
    latency: u64,
) {
    csv.push(vec![
        scenario.to_string(),
        rep.to_string(),
        alg.to_string(),
        repaired.to_string(),
        evals.to_string(),
        latency.to_string(),
    ]);
}
