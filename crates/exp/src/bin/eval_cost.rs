//! Evaluation-cost ablation: full-suite vs. early-exit probe evaluation.
//!
//! The test suite is the inner-loop cost (§I); real tools stop at the
//! first failing test. Because the composition-failure rate grows with the
//! number of composed mutations (Fig. 4a), the early-exit saving grows
//! with x — this sweep quantifies it on the gzip scenario.

use apr_sim::prioritize::{mean_eval_cost, TestOrder};
use apr_sim::BugScenario;
use mwu_experiments::cli::{Args, SWEEP};
use mwu_experiments::render_table;

fn main() {
    let args = Args::from_env("eval_cost", SWEEP);
    let seed = args.seed();
    let trials = (args.replicates() * 4).clamp(40, 400);
    let scenario = BugScenario::by_name("gzip-2009-08-16").expect("catalog scenario");
    args.progress(format_args!("precomputing pool for {} ...", scenario.name));
    let pool = scenario.build_pool(seed, None);
    let full_suite_ms = scenario.suite.full_run_cost_ms();

    println!(
        "evaluation cost per probe, full suite vs early exit ({} trials/point; full suite = {} sim-ms)\n",
        trials, full_suite_ms
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &x in &[1usize, 8, 24, 48, 80, 128, 200] {
        let full = mean_eval_cost(
            &scenario.world,
            &scenario.suite,
            &pool,
            None,
            x,
            trials,
            seed,
        );
        let suite_order = mean_eval_cost(
            &scenario.world,
            &scenario.suite,
            &pool,
            Some(TestOrder::SuiteOrder),
            x,
            trials,
            seed,
        );
        let cheapest = mean_eval_cost(
            &scenario.world,
            &scenario.suite,
            &pool,
            Some(TestOrder::CheapestFirst),
            x,
            trials,
            seed,
        );
        let survival = scenario.world.interaction.expected_survival(x);
        rows.push(vec![
            x.to_string(),
            format!("{:.2}", survival),
            format!("{:.0}", full),
            format!("{:.0}", suite_order),
            format!("{:.0}", cheapest),
            format!("{:.2}", cheapest / full),
        ]);
        csv.push(vec![
            x.to_string(),
            format!("{:.4}", survival),
            format!("{:.1}", full),
            format!("{:.1}", suite_order),
            format!("{:.1}", cheapest),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "x (mutations)",
                "P[survive]",
                "full suite",
                "early exit (suite order)",
                "early exit (cheapest first)",
                "cheapest/full"
            ],
            &rows
        )
    );
    println!("\nreading: surviving probes always pay the full suite, so at small x");
    println!("(high survival) early exit saves nothing; as x grows past the");
    println!("interaction scale most probes break and the cheapest-first order");
    println!("finds the failure after a few cheap tests.");

    args.write_csv(
        "eval_cost.csv",
        &[
            "x",
            "survival",
            "full_ms",
            "early_suite_order_ms",
            "early_cheapest_ms",
        ],
        &csv,
    );
    args.write_profile();
}
