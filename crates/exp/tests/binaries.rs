//! Experiment binaries end to end: what `--quiet` leaves on stderr, what
//! lands on stdout, and the CSVs they write.

use std::path::PathBuf;
use std::process::{Command, Output};

fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mwu-exp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(bin: &str, args: &[&str]) -> Output {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn sync_stall_quiet_writes_the_committed_csv_silently() {
    let dir = out_dir("sync-stall");
    let out = run(
        env!("CARGO_BIN_EXE_sync_stall"),
        &["--quiet", "--out", dir.to_str().unwrap()],
    );
    assert!(
        out.stderr.is_empty(),
        "--quiet left stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("barrier stall: mean "), "{stdout}");
    // The CSV is analytic (worst-decile hit probabilities), so it matches
    // the committed artifact byte for byte.
    let csv = std::fs::read(dir.join("sync_stall.csv")).unwrap();
    assert_eq!(csv, include_bytes!("../../../results/sync_stall.csv"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tables234_writes_all_three_tables_from_one_grid_pass() {
    let dir = out_dir("tables234");
    let trace = dir.join("grid.jsonl");
    let out = run(
        env!("CARGO_BIN_EXE_tables234"),
        &[
            "--only",
            "random64",
            "--replicates",
            "2",
            "--quiet",
            "--trace",
            trace.to_str().unwrap(),
            "--out",
            dir.to_str().unwrap(),
        ],
    );
    assert!(out.stderr.is_empty());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "Table II",
        "Table III",
        "Table IV",
        "— : intractable",
        "≥ 10000 : no replicate converged",
    ] {
        assert!(stdout.contains(needle), "no {needle:?} in\n{stdout}");
    }
    for (name, header) in [
        (
            "table2.csv",
            "scenario,size,algorithm,iterations_mean,iterations_std,converged,replicates",
        ),
        (
            "table3.csv",
            "scenario,size,algorithm,accuracy_mean,accuracy_std",
        ),
        (
            "table4.csv",
            "scenario,size,algorithm,cpu_iterations_mean,cpu_iterations_std",
        ),
    ] {
        let csv = std::fs::read_to_string(dir.join(name)).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], header, "{name}");
        assert_eq!(lines.len(), 4, "{name}: header + one row per algorithm");
    }
    // One grid pass: one CellStart per (algorithm, dataset) cell.
    let trace = std::fs::read_to_string(&trace).unwrap();
    let cells = trace
        .lines()
        .filter(|l| l.starts_with("{\"CellStart\""))
        .count();
    assert_eq!(cells, 3);
    let _ = std::fs::remove_dir_all(&dir);
}
