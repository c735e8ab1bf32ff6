//! Export the full §IV-A dataset catalog as CSV (one file per dataset plus
//! a summary), so the exact instances behind Tables II–IV can be inspected
//! or replotted without rerunning any generator.

use mwu_datasets::{full_catalog, io};
use mwu_experiments::cli::{Args, ONLY, OUT, PROFILE, QUIET, THREADS};
use mwu_experiments::render_table;
use std::fs;

fn main() {
    let args = Args::from_env("export_datasets", &[ONLY, OUT, THREADS, PROFILE, QUIET]);
    let dir = args.out_dir().join("datasets");
    fs::create_dir_all(&dir).expect("create datasets dir");

    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for d in full_catalog() {
        if !args.selects(&d.name) {
            continue;
        }
        let path = dir.join(format!("{}.csv", d.name));
        fs::write(&path, io::dataset_to_csv(&d)).expect("write dataset csv");
        let mean = d.values.iter().sum::<f64>() / d.values.len() as f64;
        rows.push(vec![
            d.name.clone(),
            d.family.label().to_string(),
            d.size().to_string(),
            format!("{:.4}", d.best_value()),
            (d.best_arm() + 1).to_string(),
            format!("{:.4}", mean),
        ]);
        summary.push(vec![
            d.name.clone(),
            d.family.label().to_string(),
            d.size().to_string(),
            format!("{:.6}", d.best_value()),
            (d.best_arm() + 1).to_string(),
            format!("{:.6}", mean),
        ]);
    }
    println!("exported {} datasets to {}\n", rows.len(), dir.display());
    println!(
        "{}",
        render_table(
            &[
                "dataset",
                "family",
                "size",
                "best value",
                "best arm (1-based)",
                "mean value"
            ],
            &rows
        )
    );
    args.write_csv(
        "datasets_summary.csv",
        &[
            "dataset",
            "family",
            "size",
            "best_value",
            "best_arm",
            "mean_value",
        ],
        &summary,
    );
    args.write_profile();
}
