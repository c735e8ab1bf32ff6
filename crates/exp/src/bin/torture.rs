//! `torture` — the hostile-disk certification sweep for `mwrepaird`.
//!
//! Sweeps storage-fault rate × fault class × thread count against the
//! multi-tenant daemon, killing and resuming it across *generations* (each
//! generation is one daemon process lifetime with a freshly-seeded
//! [`FaultVfs`], simulating a remount after a crash), and certifies the
//! three hostile-disk guarantees of docs/FAULTS.md:
//!
//! 1. **No corruption** — no fault schedule changes a surviving session's
//!    trace/report bytes: after the final clean-disk resume, every session
//!    is byte-identical to the fault-free reference run.
//! 2. **Quarantine is recoverable** — sessions quarantined mid-sweep
//!    resume to byte-identical completion once the faults clear.
//! 3. **The daemon never aborts** — `Daemon::run` neither panics nor
//!    leaves the process; storage failures surface as quarantines or
//!    graceful `Err` returns.
//!
//! The certificate is written as JSON (schema `torture/v1`) to the path
//! given by `--out FILE` (default `TORTURE.json`) and the process exits
//! non-zero if any guarantee is violated. `--fast` runs the reduced CI
//! sweep (see `.github/workflows/ci.yml`, job `torture-smoke`), and
//! `--work DIR` holds the cells' work directories (default a fresh one
//! under the temp dir). These three are its only flags; any other exits 2.
//! It always narrates on stderr: the per-cell lines are the certificate's
//! summary.
//!
//! The adversary is mounted *rooted* at each cell's work directory, so
//! the fault schedule is keyed by work-directory-relative paths — the
//! committed certificate's per-cell counters reproduce on any machine.

use mwrepair::VariantChoice;
use mwrepair_service::{
    encode_line, Daemon, DaemonConfig, FaultVfs, JobLine, JobSpec, ScenarioSpec,
    StorageFaultConfig, StorageFaultPlan,
};
use mwu_experiments::cli::{Args, Flag};
use serde::Serialize;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Iteration slice per round — small, so every session crosses many
/// durability barriers (more chances for a fault to land mid-protocol).
const SLICE: usize = 2;
/// Faulty daemon lifetimes per cell before the final clean resume.
const GENERATIONS: u64 = 5;

fn scenario() -> ScenarioSpec {
    ScenarioSpec::Synthetic {
        name: "torture".into(),
        options: 16,
        x_star: 4,
        statements: 150,
        tests: 8,
        repair_rate: 0.0,
        world_seed: 11,
        pool_size: Some(16),
    }
}

/// The six jobs' (id, tenant) pairs: two per tenant.
const JOBS: [(&str, &str); 6] = [
    ("tj-0", "acme"),
    ("tj-1", "acme"),
    ("tj-2", "globex"),
    ("tj-3", "globex"),
    ("tj-4", "initech"),
    ("tj-5", "initech"),
];

/// Six budget-free jobs across three tenants. Budget-free is deliberate:
/// a quarantined session perturbs *when* its tenant's budget trips for
/// siblings, so byte-identity certification must not involve budgets
/// (the budget × quarantine interaction is pinned separately in
/// `tests/tests/service_faults.rs`).
fn batch() -> Vec<u8> {
    let mut doc = String::new();
    for (i, (id, tenant)) in JOBS.iter().enumerate() {
        let job = JobSpec {
            id: (*id).into(),
            tenant: (*tenant).into(),
            scenario: scenario(),
            algorithm: VariantChoice::Standard,
            seed: 100 + i as u64,
            max_iterations: 10,
        };
        doc.push_str(&encode_line(&JobLine::Job(job)));
        doc.push('\n');
    }
    doc.into_bytes()
}

type SessionBytes = BTreeMap<(String, String), (Vec<u8>, Vec<u8>)>;

fn collect_bytes(workdir: &Path) -> Result<SessionBytes, String> {
    let mut out = BTreeMap::new();
    for (id, tenant) in JOBS {
        let dir = workdir.join("tenants").join(tenant).join(id);
        let trace = std::fs::read(dir.join("trace.jsonl"))
            .map_err(|e| format!("{tenant}/{id}/trace.jsonl: {e}"))?;
        let report = std::fs::read(dir.join("report.json"))
            .map_err(|e| format!("{tenant}/{id}/report.json: {e}"))?;
        if dir.join("quarantine.json").exists() {
            return Err(format!(
                "{tenant}/{id}: quarantine.json survived a clean run"
            ));
        }
        out.insert((tenant.to_string(), id.to_string()), (trace, report));
    }
    Ok(out)
}

#[derive(Debug, Default, Serialize)]
struct CellReport {
    class: String,
    rate: f64,
    threads: usize,
    generations: u64,
    /// Faulty-generation `Daemon::run` calls that returned `Err` (graceful
    /// daemon-level storage failure; everything persisted stays valid).
    run_errors: u64,
    /// Panics escaping `Daemon::run` — the abort class we certify against.
    daemon_panics: u64,
    quarantines: u64,
    io_retries: u64,
    io_faults_injected: u64,
    byte_identical: bool,
    mismatches: Vec<String>,
}

#[derive(Debug, Serialize)]
struct Certificate {
    schema: &'static str,
    fast: bool,
    jobs: usize,
    slice: usize,
    cells: Vec<CellReport>,
    all_byte_identical: bool,
    daemon_panics: u64,
    total_faults_injected: u64,
    total_quarantines: u64,
}

/// One `Daemon::open` + `submit` + `run` lifetime under the given VFS.
/// Returns (quarantined, retries, faults, run_err, panicked).
fn one_generation(
    workdir: &Path,
    vfs: Arc<dyn mwrepair_service::Vfs>,
    halt_after_rounds: Option<u64>,
    threads: usize,
) -> (u64, u64, u64, bool, bool) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut config = DaemonConfig::new(workdir);
        config.slice_iterations = SLICE;
        config.halt_after_rounds = halt_after_rounds;
        config.quiet = true;
        config.vfs = vfs;
        let mut daemon = match Daemon::open(config) {
            Ok(d) => d,
            Err(_) => return (0, 0, 0, true),
        };
        // Idempotent for byte-equal jobs, so resubmitting every
        // generation is safe and also repairs a lost spool.
        if daemon.submit_bytes(&batch()).is_err() {
            return (0, 0, 0, true);
        }
        match rayon::with_max_threads(threads, || daemon.run()) {
            Ok(summary) => (
                summary.sessions_quarantined as u64,
                summary.io_retries,
                summary.io_faults_injected,
                false,
            ),
            Err(_) => (0, 0, 0, true),
        }
    }));
    match result {
        Ok((q, r, f, e)) => (q, r, f, e, false),
        Err(_) => (0, 0, 0, false, true),
    }
}

fn run_cell(
    root: &Path,
    class: &str,
    rate: f64,
    threads: usize,
    cell_seed: u64,
    reference: &SessionBytes,
) -> CellReport {
    let workdir = root.join(format!("{class}-r{}-t{threads}", (rate * 1000.0) as u64));
    let mut cell = CellReport {
        class: class.into(),
        rate,
        threads,
        generations: GENERATIONS,
        byte_identical: true,
        ..CellReport::default()
    };
    for generation in 0..GENERATIONS {
        // Fresh adversary seed per generation: a crashed-and-remounted
        // disk does not replay the exact fault schedule, and re-seeding
        // prevents a deterministic re-quarantine livelock.
        let plan = StorageFaultPlan::new(
            cell_seed ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            StorageFaultConfig::named(class, rate).expect("a known fault class"),
        );
        // Early generations halt after a couple of rounds (cooperative
        // kill mid-run); later ones run until quarantine-or-done.
        let halt = if generation < 2 {
            Some(1 + generation)
        } else {
            None
        };
        let (q, r, f, run_err, panicked) = one_generation(
            &workdir,
            Arc::new(FaultVfs::rooted(plan, &workdir)),
            halt,
            threads,
        );
        cell.quarantines += q;
        cell.io_retries += r;
        cell.io_faults_injected += f;
        cell.run_errors += u64::from(run_err);
        cell.daemon_panics += u64::from(panicked);
    }
    // The disk heals: one clean-VFS resume must complete every session
    // (re-arming any quarantine) with byte-identical artifacts.
    let (q, _, _, run_err, panicked) =
        one_generation(&workdir, Arc::new(mwrepair_service::RealVfs), None, threads);
    cell.daemon_panics += u64::from(panicked);
    if run_err || panicked || q != 0 {
        cell.byte_identical = false;
        cell.mismatches.push(format!(
            "clean resume failed (err={run_err} panic={panicked} quarantined={q})"
        ));
        return cell;
    }
    match collect_bytes(&workdir) {
        Ok(bytes) => {
            for (key, (trace, report)) in reference {
                match bytes.get(key) {
                    Some((t, r)) if t == trace && r == report => {}
                    Some(_) => {
                        cell.byte_identical = false;
                        cell.mismatches
                            .push(format!("{}/{}: bytes differ from reference", key.0, key.1));
                    }
                    None => {
                        cell.byte_identical = false;
                        cell.mismatches
                            .push(format!("{}/{}: missing after clean resume", key.0, key.1));
                    }
                }
            }
        }
        Err(e) => {
            cell.byte_identical = false;
            cell.mismatches.push(e);
        }
    }
    cell
}

const FAST: Flag = Flag::switch("--fast", "run the reduced CI sweep");
const OUT: Flag = Flag::of::<PathBuf>(
    "--out",
    "FILE",
    "write the certificate to FILE (default TORTURE.json)",
);
const WORK: Flag = Flag::of::<PathBuf>(
    "--work",
    "DIR",
    "scratch directory for the cells (default a fresh one under the temp dir)",
);

fn main() {
    let args = Args::from_env("torture", &[FAST, OUT, WORK]);
    let fast = args.given(&FAST);
    let out = args
        .get(&OUT)
        .unwrap_or_else(|| PathBuf::from("TORTURE.json"));
    let root = args.get(&WORK).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("mwrd-torture-{}", std::process::id()))
    });
    rayon::set_num_threads(8);

    let _ = std::fs::remove_dir_all(&root);

    // Fault-free reference at 1 thread. The determinism contract makes
    // session bytes thread-count-invariant, so one reference serves every
    // cell (and any divergence at other thread counts is itself a
    // certification failure).
    let ref_dir = root.join("reference");
    let (q, _, f, run_err, panicked) =
        one_generation(&ref_dir, Arc::new(mwrepair_service::RealVfs), None, 1);
    assert!(
        !run_err && !panicked && q == 0 && f == 0,
        "fault-free reference run must complete cleanly"
    );
    let reference = collect_bytes(&ref_dir).expect("reference artifacts");
    eprintln!("torture: reference built ({} sessions)", reference.len());

    let (classes, rates, thread_counts): (Vec<&str>, Vec<f64>, Vec<usize>) = if fast {
        (vec!["eio", "mixed"], vec![0.15], vec![2])
    } else {
        (
            vec!["eio", "mixed", "torn", "lies"],
            vec![0.05, 0.25],
            vec![1, 4, 8],
        )
    };

    let mut cells = Vec::new();
    for (ci, class) in classes.iter().enumerate() {
        for (ri, &rate) in rates.iter().enumerate() {
            for &threads in &thread_counts {
                let cell_seed =
                    0x70A7_0A7Eu64 ^ ((ci as u64) << 24) ^ ((ri as u64) << 16) ^ (threads as u64);
                let cell = run_cell(&root, class, rate, threads, cell_seed, &reference);
                eprintln!(
                    "torture: {class} rate={rate} threads={threads}: faults={} retries={} \
                     quarantines={} panics={} byte_identical={}",
                    cell.io_faults_injected,
                    cell.io_retries,
                    cell.quarantines,
                    cell.daemon_panics,
                    cell.byte_identical,
                );
                cells.push(cell);
            }
        }
    }

    let certificate = Certificate {
        schema: "torture/v1",
        fast,
        jobs: reference.len(),
        slice: SLICE,
        all_byte_identical: cells.iter().all(|c| c.byte_identical),
        daemon_panics: cells.iter().map(|c| c.daemon_panics).sum(),
        total_faults_injected: cells.iter().map(|c| c.io_faults_injected).sum(),
        total_quarantines: cells.iter().map(|c| c.quarantines).sum(),
        cells,
    };
    let json = serde_json::to_string_pretty(&certificate).expect("certificate serializes");
    std::fs::write(&out, format!("{json}\n")).expect("write certificate");
    let _ = std::fs::remove_dir_all(&root);

    eprintln!(
        "torture: {} cells, {} faults injected, {} quarantines, certificate -> {}",
        certificate.cells.len(),
        certificate.total_faults_injected,
        certificate.total_quarantines,
        out.display()
    );
    if !certificate.all_byte_identical || certificate.daemon_panics != 0 {
        eprintln!("torture: CERTIFICATION FAILED");
        for cell in &certificate.cells {
            for m in &cell.mismatches {
                eprintln!(
                    "  {} rate={} threads={}: {m}",
                    cell.class, cell.rate, cell.threads
                );
            }
        }
        std::process::exit(1);
    }
    eprintln!("torture: certification PASSED");
}
