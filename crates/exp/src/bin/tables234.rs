//! Tables II + III + IV in a single grid pass.
//!
//! The three tables aggregate the *same* 3 × 20 × replicates experiment
//! grid (§IV-B: "Table II and Table III report the mean and standard
//! deviation of these experiments"), so this binary executes the grid once
//! and emits all three tables and their CSVs (`table2.csv`, `table3.csv`,
//! `table4.csv`). `--only SUBSTR` restricts the grid to matching datasets;
//! `--trace PATH` records the one grid pass every table is built from.

use mwu_core::Variant;
use mwu_datasets::full_catalog;
use mwu_experiments::{
    render_table, run_grid_observed, write_results_csv, CellResult, CommonArgs, GridConfig,
};

fn cell<'a>(cells: &'a [CellResult], dataset: &str, alg: Variant) -> &'a CellResult {
    cells
        .iter()
        .find(|c| c.dataset == dataset && c.algorithm == alg)
        .expect("cell present")
}

fn main() {
    let args = CommonArgs::from_env();
    let datasets: Vec<_> = full_catalog()
        .into_iter()
        .filter(|d| args.selects(&d.name))
        .collect();
    let config = GridConfig {
        replicates: args.replicates,
        max_iterations: 10_000,
        seed: args.seed,
    };
    if !args.quiet {
        eprintln!(
            "grid: {} datasets x 3 algorithms x {} replicates (single pass)",
            datasets.len(),
            config.replicates
        );
    }
    let mut observer = args.observer();
    let cells = run_grid_observed(&datasets, &config, &mut observer);
    if let Some(sink) = observer.0.as_mut() {
        sink.flush().expect("flush trace");
    }
    let algs = [Variant::Standard, Variant::Distributed, Variant::Slate];

    // ---- Table II ----
    let mut rows2 = Vec::new();
    let mut csv2 = Vec::new();
    for d in &datasets {
        let mut row = vec![d.name.clone(), d.size().to_string()];
        for &a in &algs {
            let c = cell(&cells, &d.name, a);
            row.push(if c.intractable {
                "—".into()
            } else if c.converged == 0 {
                "≥ 10000".into()
            } else {
                c.iterations.cell(1)
            });
            csv2.push(vec![
                d.name.clone(),
                d.size().to_string(),
                a.to_string(),
                if c.intractable {
                    "intractable".into()
                } else {
                    format!("{:.2}", c.iterations.mean)
                },
                format!("{:.2}", c.iterations.std_dev),
                c.converged.to_string(),
                c.replicates.to_string(),
            ]);
        }
        rows2.push(row);
    }
    println!(
        "Table II — update cycles until convergence (mean (std), {} replicates)\n",
        config.replicates
    );
    println!(
        "{}",
        render_table(
            &["scenario", "size", "Standard", "Distributed", "Slate"],
            &rows2
        )
    );
    println!("— : intractable (population exceeds the agent cap)");
    println!("≥ 10000 : no replicate converged within the iteration budget");

    // ---- Table III ----
    let mut rows3 = Vec::new();
    let mut csv3 = Vec::new();
    let mut min_acc = f64::INFINITY;
    for d in &datasets {
        let mut row = vec![d.name.clone(), d.size().to_string()];
        for &a in &algs {
            let c = cell(&cells, &d.name, a);
            row.push(if c.intractable {
                "—".into()
            } else {
                min_acc = min_acc.min(c.accuracy.mean);
                c.accuracy.cell(1)
            });
            csv3.push(vec![
                d.name.clone(),
                d.size().to_string(),
                a.to_string(),
                if c.intractable {
                    "intractable".into()
                } else {
                    format!("{:.2}", c.accuracy.mean)
                },
                format!("{:.2}", c.accuracy.std_dev),
            ]);
        }
        rows3.push(row);
    }
    println!(
        "\nTable III — accuracy, % of best-in-hindsight (mean (std), {} replicates)\n",
        config.replicates
    );
    println!(
        "{}",
        render_table(
            &["scenario", "size", "Standard", "Distributed", "Slate"],
            &rows3
        )
    );
    println!("shape check: minimum cell mean accuracy = {min_acc:.1}%  (paper: ≥ 90%)");

    // ---- Table IV ----
    let mut rows4 = Vec::new();
    let mut csv4 = Vec::new();
    for d in &datasets {
        let mut row = vec![d.name.clone(), d.size().to_string()];
        for &a in &algs {
            let c = cell(&cells, &d.name, a);
            row.push(if c.intractable {
                "—".into()
            } else {
                format!("{:.0}", c.cpu_iterations.mean)
            });
            csv4.push(vec![
                d.name.clone(),
                d.size().to_string(),
                a.to_string(),
                if c.intractable {
                    "intractable".into()
                } else {
                    format!("{:.0}", c.cpu_iterations.mean)
                },
                format!("{:.0}", c.cpu_iterations.std_dev),
            ]);
        }
        rows4.push(row);
    }
    println!(
        "\nTable IV — cost in CPU-iterations (mean over {} replicates)\n",
        config.replicates
    );
    println!(
        "{}",
        render_table(
            &["scenario", "size", "Standard", "Distributed", "Slate"],
            &rows4
        )
    );
    println!("reading: Distributed's low iteration counts hide an explosive CPU bill");
    println!("(population ~ k^(3/2) per iteration); Slate's high iteration counts");
    println!("amortize over a small slate; Standard sits between.");

    for (name, header, rows) in [
        (
            "table2.csv",
            vec![
                "scenario",
                "size",
                "algorithm",
                "iterations_mean",
                "iterations_std",
                "converged",
                "replicates",
            ],
            csv2,
        ),
        (
            "table3.csv",
            vec![
                "scenario",
                "size",
                "algorithm",
                "accuracy_mean",
                "accuracy_std",
            ],
            csv3,
        ),
        (
            "table4.csv",
            vec![
                "scenario",
                "size",
                "algorithm",
                "cpu_iterations_mean",
                "cpu_iterations_std",
            ],
            csv4,
        ),
    ] {
        let path = write_results_csv(&args.out_dir, name, &header, &rows).expect("write csv");
        if !args.quiet {
            eprintln!("wrote {}", path.display());
        }
    }
    args.write_profile();
}
