//! Fig. 4b — repair density vs. number of combined mutations on the gzip
//! scenario: a unimodal curve whose optimum the paper reports at 48
//! combined mutations.

use apr_sim::fig4::{curve_peak, repair_density_curve};
use apr_sim::BugScenario;
use mwu_experiments::cli::{Args, SWEEP};
use mwu_experiments::render_table;

fn main() {
    let args = Args::from_env("fig4b", SWEEP);
    let seed = args.seed();
    let trials = args.replicates() * 10;
    let scenario = BugScenario::by_name("gzip-2009-08-16").expect("catalog scenario");
    let name = &scenario.name;
    args.progress(format_args!(
        "precomputing safe-mutation pool for {name} ..."
    ));
    let pool = scenario.build_pool(seed, None);

    let xs: Vec<usize> = (1..=120).step_by(3).collect();
    args.progress(format_args!(
        "estimating repair density ({trials} trials/point)..."
    ));
    let curve = repair_density_curve(&scenario, &pool, &xs, trials, seed);

    println!(
        "Fig. 4b — repair density vs. #combined mutations ({} trials/point)\n",
        trials
    );
    let rows: Vec<Vec<String>> = curve
        .iter()
        .map(|p| vec![p.x.to_string(), format!("{:.4}", p.value)])
        .collect();
    println!(
        "{}",
        render_table(&["x (mutations)", "repair density"], &rows)
    );

    let peak = curve_peak(&curve).unwrap_or(0);
    let analytic = scenario.density_optimum();
    println!("shape checks:");
    println!("  Monte-Carlo peak: x = {peak}   (paper: 48 for gzip)");
    println!("  analytic optimum: x = {analytic}");
    println!("  unimodal: density({peak}) > density(1) and > density(118)");

    let csv: Vec<Vec<String>> = curve
        .iter()
        .map(|p| vec![p.x.to_string(), format!("{:.6}", p.value)])
        .collect();
    args.write_csv("fig4b.csv", &["x", "repair_density"], &csv);
    args.write_profile();
}
