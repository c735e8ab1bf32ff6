//! Experiment binaries end to end: what `--quiet` leaves on stderr, what
//! lands on stdout, the CSVs they write, and the flags they refuse.

use std::path::{Path, PathBuf};
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

/// The path of binary `name`; cargo builds them all beside each other.
fn bin(name: &str) -> String {
    let dir = Path::new(env!("CARGO_BIN_EXE_table1")).parent().unwrap();
    let exe = format!("{name}{}", std::env::consts::EXE_SUFFIX);
    dir.join(exe).to_string_lossy().into_owned()
}

/// Every binary that finishes in seconds, and the CSVs it writes. Each is
/// seed-determined or analytic, and debug and release builds write the
/// same bytes, so each must match its committed artifact exactly.
const FAST: &[(&str, &[&str])] = &[
    ("table1", &["table1.csv"]),
    ("fig4a", &["fig4a.csv"]),
    ("fig4b", &["fig4b.csv"]),
    ("cost_model", &["cost_model.csv", "cost_model_sweep.csv"]),
    ("congestion", &["congestion.csv"]),
    ("chaos", &["chaos.csv"]),
    ("sync_stall", &["sync_stall.csv"]),
    ("amortization", &["amortization.csv"]),
    ("regret_curves", &["regret_curves.csv"]),
    ("eval_cost", &["eval_cost.csv"]),
    ("export_datasets", &["datasets_summary.csv"]),
];

#[test]
fn fast_binaries_reproduce_the_committed_csvs_quietly() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for (name, csvs) in FAST {
        let dir = out_dir(name);
        let out = run(&bin(name), &["--quiet", "--out", dir.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.is_empty(), "{name} --quiet left stderr: {stderr}");
        for csv in *csvs {
            let written = std::fs::read(dir.join(csv)).unwrap();
            let same = written == std::fs::read(results.join(csv)).unwrap();
            assert!(same, "{name}: {csv} differs from results/{csv}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Each binary, one flag it does not read, and the flags it needs.
const UNREAD: &[(&str, &str)] = &[
    ("amortization", "--replicates 3"),
    ("bandit_baselines", "--only random"),
    ("chaos", "--trace t.jsonl"),
    ("congestion", "--trace t.jsonl"),
    ("cost_model", "--seed 1"),
    ("eval_cost", "--checkpoint c.ckpt"),
    ("export_datasets", "--seed 1"),
    ("fig4a", "--trace t.jsonl"),
    ("fig4b", "--only gzip"),
    ("mwrepaird", "--work w --seed 1"),
    ("regret_curves", "--fast"),
    ("repair_comparison", "--trace t.jsonl"),
    ("sweep_params", "--resume c.ckpt"),
    ("sync_stall", "--replicates 3"),
    ("table1", "--seed 1"),
    ("tables234", "--checkpoint-every 5"),
    ("torture", "--quiet"),
];

#[test]
fn every_binary_refuses_a_flag_it_does_not_read_before_any_work() {
    for (name, line) in UNREAD {
        // Default output paths are relative, so an empty working directory
        // shows whether anything was written.
        let cwd = out_dir(&format!("unread-{name}"));
        std::fs::create_dir_all(&cwd).unwrap();
        let mut cmd = Command::new(bin(name));
        let out = cmd
            .args(line.split(' '))
            .current_dir(&cwd)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {line}: {stderr}");
        let flag = line.split(' ').rfind(|a| a.starts_with("--")).unwrap();
        let refusal = format!("{name}: unknown flag \"{flag}\"\nusage: {name} ");
        assert!(stderr.starts_with(&refusal), "{name} {line}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} {line} wrote stdout");
        let written = std::fs::read_dir(&cwd).unwrap().count();
        assert_eq!(written, 0, "{name} {line} wrote into its working directory");
        let _ = std::fs::remove_dir_all(&cwd);
    }
}
