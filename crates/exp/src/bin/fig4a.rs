//! Fig. 4a — fraction of programs passing the test suite vs. the number of
//! mutations applied together, on the gzip scenario.
//!
//! Two series, as in the paper:
//! * safe (pooled) mutations — decays slowly; "even when 80 safe mutations
//!   are applied together, on average, over 50% of the resulting programs
//!   retain their original functionality";
//! * untested random mutations — already two of them break more than half
//!   of programs.
//!
//! Each point averages `--replicates × 10` independent trials (paper: 1,000
//! trials per point; the default 100 × 10 matches it).

use apr_sim::fig4::{survival_curve, untested_survival_curve};
use apr_sim::BugScenario;
use mwu_experiments::cli::{Args, SWEEP};
use mwu_experiments::render_table;

fn main() {
    let args = Args::from_env("fig4a", SWEEP);
    let seed = args.seed();
    let trials = args.replicates() * 10;
    let scenario = BugScenario::by_name("gzip-2009-08-16").expect("catalog scenario");
    let name = &scenario.name;
    args.progress(format_args!(
        "precomputing safe-mutation pool for {name} ..."
    ));
    let pool = scenario.build_pool(seed, None);

    let xs: Vec<usize> = (1..=9).chain((10..=100).step_by(5)).collect();
    args.progress(format_args!(
        "estimating survival curves ({trials} trials/point)..."
    ));
    let safe = survival_curve(&scenario, &pool, &xs, trials, seed);
    let raw_xs: Vec<usize> = (1..=10).collect();
    let raw = untested_survival_curve(&scenario, &raw_xs, trials, seed);

    println!(
        "Fig. 4a — fraction passing vs. #mutations ({} trials/point)\n",
        trials
    );
    let rows: Vec<Vec<String>> = safe
        .iter()
        .map(|p| {
            let raw_v = raw
                .iter()
                .find(|r| r.x == p.x)
                .map(|r| format!("{:.3}", r.value))
                .unwrap_or_else(|| "".to_string());
            vec![p.x.to_string(), format!("{:.3}", p.value), raw_v]
        })
        .collect();
    println!(
        "{}",
        render_table(&["x (mutations)", "safe pool", "untested"], &rows)
    );

    // Paper-shape checks, reported explicitly.
    let at = |x: usize| {
        safe.iter()
            .find(|p| p.x == x)
            .map(|p| p.value)
            .unwrap_or(0.0)
    };
    let raw2 = raw
        .iter()
        .find(|p| p.x == 2)
        .map(|p| p.value)
        .unwrap_or(0.0);
    println!("shape checks:");
    println!(
        "  survival at x=80 (safe): {:.3}  (paper: substantial — ≈0.5; slow decay)",
        at(80)
    );
    println!(
        "  survival at x=2 (untested): {:.3}  (paper: < 0.5 — most programs broken)",
        raw2
    );

    let mut csv = Vec::new();
    for p in &safe {
        csv.push(vec![
            "safe".to_string(),
            p.x.to_string(),
            format!("{:.6}", p.value),
        ]);
    }
    for p in &raw {
        csv.push(vec![
            "untested".to_string(),
            p.x.to_string(),
            format!("{:.6}", p.value),
        ]);
    }
    args.write_csv("fig4a.csv", &["series", "x", "fraction_passing"], &csv);
    args.write_profile();
}
