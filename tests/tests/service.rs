//! Integration: the `mwrepaird` determinism contract (docs/SERVICE.md).
//!
//! A session's JSONL trace and final report are a pure function of its
//! `JobSpec` and the daemon's slice length. These tests pin the contract
//! byte-for-byte in every configuration the service promises:
//!
//! * solo vs. surrounded by a few hundred sessions of a many-tenant
//!   load mix, and every file of that mix, at 1/4/8 threads
//!   (`solo_vs_concurrent_*`);
//! * across cooperative kills and checkpoint resumes under load, torn
//!   trace writes included (`kill_resume_under_load_*`);
//! * under tenant budget exhaustion — the halted tenant gets a
//!   `BudgetExhausted` report with a resumable checkpoint, and every other
//!   tenant's bytes are untouched (`budget_exhaustion_*`);
//!
//! plus property tests that the JSONL job protocol round-trips and that
//! no input — malformed, truncated, or arbitrary byte noise — can panic
//! the parser.

use mwrepair::VariantChoice;
use mwrepair_service::session::ScenarioData;
use mwrepair_service::{
    commit_epoch, encode_line, parse_jobs, parse_line, BudgetSpec, Daemon, DaemonConfig,
    DaemonSummary, JobLine, JobSpec, ProtocolError, RealVfs, ScenarioSpec, SessionReport,
    SessionRunner, Vfs,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// All tests sweep `rayon::with_max_threads(1..=8)`, so the shared pool
/// must be sized once at the largest count (the container may report a
/// single CPU). Only the first call can win; later calls are no-ops.
fn ensure_pool() {
    rayon::set_num_threads(8);
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mwrd-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scenario(world_seed: u64) -> ScenarioSpec {
    ScenarioSpec::Synthetic {
        name: format!("svc-it-{world_seed}"),
        options: 20,
        x_star: 5,
        statements: 180,
        tests: 9,
        repair_rate: 0.0,
        world_seed,
        pool_size: Some(20),
    }
}

fn job(id: &str, tenant: &str, seed: u64) -> JobSpec {
    JobSpec {
        id: id.into(),
        tenant: tenant.into(),
        scenario: scenario(3),
        algorithm: VariantChoice::Standard,
        seed,
        max_iterations: 12,
    }
}

fn batch(jobs: &[JobSpec], budgets: &[BudgetSpec]) -> Vec<u8> {
    let mut doc = String::new();
    for b in budgets {
        doc.push_str(&encode_line(&JobLine::Budget(b.clone())));
        doc.push('\n');
    }
    for j in jobs {
        doc.push_str(&encode_line(&JobLine::Job(j.clone())));
        doc.push('\n');
    }
    doc.into_bytes()
}

/// Open a daemon over `workdir`, submit `bytes`, and run it capped at
/// `threads` workers.
fn run_daemon(
    workdir: &Path,
    bytes: &[u8],
    slice: usize,
    halt_after_rounds: Option<u64>,
    threads: usize,
) -> DaemonSummary {
    let mut config = DaemonConfig::new(workdir);
    config.slice_iterations = slice;
    config.halt_after_rounds = halt_after_rounds;
    config.quiet = true;
    let mut daemon = Daemon::open(config).expect("open daemon");
    daemon.submit_bytes(bytes).expect("submit batch");
    rayon::with_max_threads(threads, || daemon.run()).expect("daemon run")
}

/// Resume a daemon purely from its spool (no resubmission).
fn resume_daemon(
    workdir: &Path,
    slice: usize,
    halt_after_rounds: Option<u64>,
    threads: usize,
) -> DaemonSummary {
    let mut config = DaemonConfig::new(workdir);
    config.slice_iterations = slice;
    config.halt_after_rounds = halt_after_rounds;
    config.quiet = true;
    let mut daemon = Daemon::open(config).expect("reopen daemon");
    rayon::with_max_threads(threads, || daemon.run()).expect("daemon run")
}

fn session_bytes(workdir: &Path, tenant: &str, id: &str) -> (Vec<u8>, Vec<u8>) {
    let dir = workdir.join("tenants").join(tenant).join(id);
    let trace = std::fs::read(dir.join("trace.jsonl")).expect("trace.jsonl");
    let report = std::fs::read(dir.join("report.json")).expect("report.json");
    (trace, report)
}

// ---------------------------------------------------------------------------
// Determinism contract: solo vs. a many-tenant load mix, across threads.
// ---------------------------------------------------------------------------

/// The load mix (the `daemon-mem` benchmark's, at seed 1): `sessions`
/// jobs over `tenants` tenants cycling through six small synthetic
/// scenario families — every tenth job Distributed, the odd ones Slate,
/// the rest Standard — plus a budget tight enough to exhaust tenant
/// `t000` mid-run.
fn load_mix(sessions: usize, tenants: usize) -> (Vec<JobSpec>, BudgetSpec) {
    let families: Vec<ScenarioSpec> = (0..6u64)
        .map(|f| ScenarioSpec::Synthetic {
            name: format!("load-family-{f}"),
            options: 16 + 2 * f as usize,
            x_star: 4 + f as usize,
            statements: 150 + 25 * f as usize,
            tests: 8 + (f as usize % 3),
            // Pools hold ~options mutations, so the repairing families
            // need a rate ≳ 1/options to actually contain a repairer.
            repair_rate: if f % 2 == 0 { 0.0 } else { 0.05 },
            world_seed: 101 + f,
            pool_size: Some(16 + 2 * f as usize),
        })
        .collect();
    let jobs = (0..sessions)
        .map(|i| {
            let algorithm = match i % 10 {
                3 => VariantChoice::Distributed,
                n if n % 2 == 0 => VariantChoice::Standard,
                _ => VariantChoice::Slate,
            };
            // Distributed probes its whole agent population each cycle,
            // so it gets a lower cycle cap for comparable per-session work.
            let max_iterations = if algorithm == VariantChoice::Distributed {
                6 + i % 5
            } else {
                10 + (i * 11) % 21
            };
            JobSpec {
                id: format!("job-{i:05}"),
                tenant: format!("t{:03}", i % tenants),
                scenario: families[i % families.len()].clone(),
                algorithm,
                seed: 1_000_000_007 + i as u64,
                max_iterations,
            }
        })
        .collect();
    let budget = BudgetSpec {
        tenant: "t000".into(),
        max_evals: Some(1_500),
        max_ms: None,
    };
    (jobs, budget)
}

/// Every file under `<workdir>/tenants`, keyed by its path relative to
/// the work directory.
fn tenant_tree(workdir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("under root").to_path_buf();
                out.insert(rel, std::fs::read(&path).expect("read file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(workdir, &workdir.join("tenants"), &mut out);
    out
}

#[test]
fn solo_vs_concurrent_tenants_across_thread_counts() {
    ensure_pool();
    const SLICE: usize = 4;
    const SESSIONS: usize = 300;
    const TENANTS: usize = 30;
    let target = job("target-job", "target-tenant", 42);

    // Reference: the target session alone in its own work directory.
    let solo_dir = tmp_dir("solo");
    run_daemon(
        &solo_dir,
        &batch(std::slice::from_ref(&target), &[]),
        SLICE,
        None,
        8,
    );
    let reference = session_bytes(&solo_dir, "target-tenant", "target-job");
    std::fs::remove_dir_all(&solo_dir).unwrap();

    // Crowd: the same job inside the load mix.
    let (mut jobs, budget) = load_mix(SESSIONS, TENANTS);
    jobs.push(target);
    let crowd = batch(&jobs, &[budget]);

    let run = |threads: usize| {
        let dir = tmp_dir(&format!("crowd-{threads}"));
        let summary = run_daemon(&dir, &crowd, SLICE, None, threads);
        assert_eq!(summary.sessions, jobs.len());
        assert_eq!(summary.completed + summary.budget_exhausted, jobs.len());
        assert_eq!(
            session_bytes(&dir, "target-tenant", "target-job"),
            reference,
            "target session bytes changed inside the load mix at {threads} threads"
        );
        let tree = tenant_tree(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        (summary, tree)
    };

    let (summary, reference_tree) = run(1);
    assert!(summary.budget_exhausted > 0, "t000's budget must bite");
    // Every session leaves trace.jsonl and report.json; a budget-exhausted
    // one also keeps session.json to resume from.
    assert_eq!(
        reference_tree.len(),
        2 * jobs.len() + summary.budget_exhausted,
        "files under tenants/"
    );
    let distributed: Vec<&JobSpec> = jobs
        .iter()
        .filter(|j| j.algorithm == VariantChoice::Distributed)
        .collect();
    assert_eq!(distributed.len(), SESSIONS / 10);
    for j in distributed {
        let path = Path::new("tenants")
            .join(&j.tenant)
            .join(&j.id)
            .join("report.json");
        let text = std::str::from_utf8(&reference_tree[&path]).unwrap();
        let report: SessionReport = serde_json::from_str(text.trim()).unwrap();
        assert!(report.iterations > 0, "{} never ran a cycle", j.id);
    }

    for threads in [4usize, 8] {
        let (other, tree) = run(threads);
        assert_eq!(other.budget_exhausted, summary.budget_exhausted);
        assert!(
            tree.keys().eq(reference_tree.keys()),
            "file set under tenants/ changed at {threads} threads"
        );
        for (path, bytes) in &tree {
            assert!(
                *bytes == reference_tree[path],
                "{} differs between 1 and {threads} threads",
                path.display()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Kill / resume under load.
// ---------------------------------------------------------------------------

#[test]
fn kill_resume_under_load_is_byte_identical() {
    ensure_pool();
    const SLICE: usize = 3;
    let jobs: Vec<JobSpec> = (0..24u64)
        .map(|i| {
            let mut j = job(
                &format!("kr-job-{i:02}"),
                &format!("kr-t{:02}", i % 6),
                7 + i,
            );
            j.max_iterations = 10 + (i as usize % 7);
            j
        })
        .collect();
    let bytes = batch(&jobs, &[]);

    // Uninterrupted reference run.
    let ref_dir = tmp_dir("kr-ref");
    let summary = run_daemon(&ref_dir, &bytes, SLICE, None, 8);
    assert_eq!(summary.completed, 24);

    // Interrupted run: cooperative halt after one round (all 24 sessions
    // mid-flight), resume, halt again, then run to completion — each
    // resume from a fresh daemon over the spooled work directory.
    let dir = tmp_dir("kr");
    let s1 = run_daemon(&dir, &bytes, SLICE, Some(1), 8);
    assert_eq!(s1.rounds, 1);
    assert_eq!(s1.halted_active, 24, "all sessions must be mid-flight");
    let s2 = resume_daemon(&dir, SLICE, Some(1), 4);
    assert_eq!(s2.rounds, 1);
    assert!(s2.halted_active > 0);

    // Torn write: a crash mid-append leaves bytes past the durable
    // checkpoint; re-open must truncate and re-produce them identically.
    {
        use std::io::Write;
        let victim = dir.join("tenants").join("kr-t00").join("kr-job-00");
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(victim.join("trace.jsonl"))
            .unwrap();
        f.write_all(b"{\"Iteration\":{\"iterati").unwrap();
    }

    let s3 = resume_daemon(&dir, SLICE, None, 8);
    assert_eq!(s3.completed, 24);

    for j in &jobs {
        let a = session_bytes(&ref_dir, &j.tenant, &j.id);
        let b = session_bytes(&dir, &j.tenant, &j.id);
        assert_eq!(a, b, "kill/resume changed bytes of {}", j.id);
    }
    std::fs::remove_dir_all(&ref_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Budget exhaustion.
// ---------------------------------------------------------------------------

#[test]
fn budget_exhaustion_halts_tenant_and_leaves_others_untouched() {
    ensure_pool();
    const SLICE: usize = 4;
    let bob_jobs: Vec<JobSpec> = (0..2u64)
        .map(|i| {
            let mut j = job(&format!("bob-job-{i}"), "bob", 100 + i);
            j.max_iterations = 40;
            j
        })
        .collect();
    let carol_jobs: Vec<JobSpec> = (0..2u64)
        .map(|i| job(&format!("carol-job-{i}"), "carol", 200 + i))
        .collect();
    let budget = BudgetSpec {
        tenant: "bob".into(),
        // One slice of one 20-arm session costs 80 evals; two sessions
        // blow through this on the first round barrier.
        max_evals: Some(100),
        max_ms: None,
    };

    let mut all = bob_jobs.clone();
    all.extend(carol_jobs.iter().cloned());
    let dir = tmp_dir("budget");
    let summary = run_daemon(&dir, &batch(&all, &[budget]), SLICE, None, 8);
    assert_eq!(summary.budget_exhausted, 2);
    assert_eq!(summary.completed, 2);

    for j in &bob_jobs {
        let session_dir = dir.join("tenants").join("bob").join(&j.id);
        let report: serde_json::Value = serde_json::from_str(
            &std::fs::read_to_string(session_dir.join("report.json")).unwrap(),
        )
        .unwrap();
        assert_eq!(
            report.field("status").as_str(),
            Some("BudgetExhausted"),
            "bob's sessions must report BudgetExhausted"
        );
        assert!(
            session_dir.join("session.json").exists(),
            "exhausted sessions keep their checkpoint"
        );
    }

    // Carol's bytes must match a run where bob never existed.
    let carol_only = tmp_dir("budget-carol");
    run_daemon(&carol_only, &batch(&carol_jobs, &[]), SLICE, None, 8);
    for j in &carol_jobs {
        let a = session_bytes(&dir, "carol", &j.id);
        let b = session_bytes(&carol_only, "carol", &j.id);
        assert_eq!(
            a, b,
            "bob's exhaustion leaked into carol's session {}",
            j.id
        );
    }
    std::fs::remove_dir_all(&carol_only).unwrap();

    // Re-arm (documented in docs/SERVICE.md): lift the budget from the
    // spool and delete the reports; the retained checkpoints resume and
    // the sessions run to completion.
    std::fs::write(dir.join("jobs.jsonl"), batch(&all, &[])).unwrap();
    for j in &bob_jobs {
        std::fs::remove_file(
            dir.join("tenants")
                .join("bob")
                .join(&j.id)
                .join("report.json"),
        )
        .unwrap();
    }
    let resumed = resume_daemon(&dir, SLICE, None, 8);
    // Summary status counts cover all four sessions (carol's two were
    // already done); only bob's two finished during this run.
    assert_eq!(resumed.completed, 4, "re-armed sessions must complete");
    assert_eq!(resumed.budget_exhausted, 0);
    assert_eq!(resumed.session_wall_ms.len(), 2);
    for j in &bob_jobs {
        let (_, report) = session_bytes(&dir, "bob", &j.id);
        let report: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&report).unwrap().trim()).unwrap();
        assert_eq!(report.field("status").as_str(), Some("Completed"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Protocol: precise rejections.
// ---------------------------------------------------------------------------

#[test]
fn protocol_rejections_carry_line_numbers() {
    let good = encode_line(&JobLine::Job(job("dup", "t", 1)));
    let doc = format!("{good}\n\n{good}\n");
    match parse_jobs(doc.as_bytes()) {
        Err(ProtocolError::DuplicateId { line, id }) => {
            assert_eq!(line, 3, "blank lines still count for numbering");
            assert_eq!(id, "dup");
        }
        other => panic!("expected DuplicateId, got {other:?}"),
    }

    match parse_jobs(b"{\"Job\":{\"id\":\"x\"") {
        Err(ProtocolError::Malformed { line: 1, .. }) => {}
        other => panic!("expected Malformed at line 1, got {other:?}"),
    }

    let deep = format!("{}1{}", "[".repeat(64), "]".repeat(64));
    match parse_jobs(deep.as_bytes()) {
        Err(ProtocolError::TooDeep { line: 1 }) => {}
        other => panic!("expected TooDeep, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Protocol: property tests.
// ---------------------------------------------------------------------------

fn arbitrary_job(a: u64, b: u64, c: u64) -> JobSpec {
    let algorithm = match a % 3 {
        0 => VariantChoice::Standard,
        1 => VariantChoice::Slate,
        _ => VariantChoice::Distributed,
    };
    JobSpec {
        id: format!("job-{a:x}"),
        tenant: format!("T-{:x}.{}", b % 4096, a % 10),
        scenario: ScenarioSpec::Synthetic {
            name: format!("scn_{}", c % 97),
            options: 2 + (a % 300) as usize,
            x_star: 1 + (b % (2 + a % 300)) as usize,
            statements: 1 + (c % 5000) as usize,
            tests: 1 + (a % 40) as usize,
            repair_rate: (b % 1000) as f64 / 1000.0,
            world_seed: c,
            pool_size: if c.is_multiple_of(2) {
                None
            } else {
                Some(1 + (c % 512) as usize)
            },
        },
        algorithm,
        seed: a ^ b,
        max_iterations: 1 + (c % 100_000) as usize,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Encoding any well-formed line and parsing it back yields the same
    // value — the JSONL protocol round-trips.
    #[test]
    fn job_lines_round_trip(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let line = if a % 5 == 0 {
            JobLine::Budget(BudgetSpec {
                tenant: format!("t{:x}", b % 65536),
                max_evals: if b % 3 == 0 { None } else { Some(b) },
                max_ms: if b % 3 == 1 { None } else { Some(c) },
            })
        } else {
            JobLine::Job(arbitrary_job(a, b, c))
        };
        let encoded = encode_line(&line);
        let decoded = parse_line(&encoded, 1);
        prop_assert_eq!(decoded.ok(), Some(line));
    }

    // Arbitrary byte noise never panics the parser — it returns a
    // precise error (or an empty batch for blank input).
    #[test]
    fn arbitrary_bytes_never_panic_parser(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = parse_jobs(&bytes);
    }

    // Truncating a valid batch at any byte offset never panics; a cut
    // that lands mid-line is rejected with that line's number.
    #[test]
    fn truncated_batches_error_without_panicking(
        a in any::<u64>(), b in any::<u64>(), cut in any::<usize>(),
    ) {
        let full = batch(
            &[arbitrary_job(a, b, 1), arbitrary_job(a.wrapping_add(1), b, 2)],
            &[],
        );
        let cut = cut % (full.len() + 1);
        match parse_jobs(&full[..cut]) {
            Ok(parsed) => {
                // Only boundary cuts parse, and only to a prefix.
                prop_assert!(parsed.jobs.len() <= 2);
            }
            Err(
                ProtocolError::Malformed { line, .. } | ProtocolError::Invalid { line, .. },
            ) => prop_assert!((1..=2).contains(&line)),
            Err(e) => prop_assert!(false, "unexpected error kind: {e:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Trace rotation: size-capped segments, crash-safe, concat-identical.
// ---------------------------------------------------------------------------

/// Run a daemon with trace rotation at `cap` bytes per segment.
fn run_daemon_rotated(
    workdir: &Path,
    bytes: &[u8],
    slice: usize,
    halt_after_rounds: Option<u64>,
    threads: usize,
    cap: u64,
) -> DaemonSummary {
    let mut config = DaemonConfig::new(workdir);
    config.slice_iterations = slice;
    config.halt_after_rounds = halt_after_rounds;
    config.quiet = true;
    config.trace_segment_bytes = Some(cap);
    let mut daemon = Daemon::open(config).expect("open daemon");
    daemon.submit_bytes(bytes).expect("submit batch");
    rayon::with_max_threads(threads, || daemon.run()).expect("daemon run")
}

/// Resume a rotated daemon purely from its spool.
fn resume_daemon_rotated(
    workdir: &Path,
    slice: usize,
    halt_after_rounds: Option<u64>,
    threads: usize,
    cap: u64,
) -> DaemonSummary {
    let mut config = DaemonConfig::new(workdir);
    config.slice_iterations = slice;
    config.halt_after_rounds = halt_after_rounds;
    config.quiet = true;
    config.trace_segment_bytes = Some(cap);
    let mut daemon = Daemon::open(config).expect("reopen daemon");
    rayon::with_max_threads(threads, || daemon.run()).expect("daemon run")
}

/// The logical trace of a possibly-rotated session: `trace.jsonl`
/// followed by `trace.001.jsonl`, `trace.002.jsonl`, ... in order.
fn concat_trace(workdir: &Path, tenant: &str, id: &str) -> Vec<u8> {
    let dir = workdir.join("tenants").join(tenant).join(id);
    let mut out = std::fs::read(dir.join("trace.jsonl")).unwrap_or_default();
    for i in 1usize.. {
        match std::fs::read(dir.join(format!("trace.{i:03}.jsonl"))) {
            Ok(seg) => out.extend_from_slice(&seg),
            Err(_) => break,
        }
    }
    out
}

/// Number of trace segments a session has on disk.
fn segment_count(workdir: &Path, tenant: &str, id: &str) -> usize {
    let dir = workdir.join("tenants").join(tenant).join(id);
    let mut n = usize::from(dir.join("trace.jsonl").exists());
    for i in 1usize.. {
        if dir.join(format!("trace.{i:03}.jsonl")).exists() {
            n += 1;
        } else {
            break;
        }
    }
    n
}

#[test]
fn rotated_segments_concat_identical_across_thread_counts() {
    ensure_pool();
    const SLICE: usize = 3;
    let jobs: Vec<JobSpec> = (0..6u64)
        .map(|i| {
            let mut j = job(&format!("rot-job-{i}"), &format!("rot-t{}", i % 3), 70 + i);
            j.max_iterations = 10 + (i as usize % 5);
            j
        })
        .collect();
    let bytes = batch(&jobs, &[]);

    // Uncapped reference: single-file traces.
    let ref_dir = tmp_dir("rotd-ref");
    run_daemon(&ref_dir, &bytes, SLICE, None, 8);

    for threads in [1usize, 4, 8] {
        let dir = tmp_dir(&format!("rotd-{threads}"));
        let summary = run_daemon_rotated(&dir, &bytes, SLICE, None, threads, 256);
        assert_eq!(summary.completed, jobs.len());
        let mut rotated_somewhere = false;
        for j in &jobs {
            let reference = session_bytes(&ref_dir, &j.tenant, &j.id);
            let got_trace = concat_trace(&dir, &j.tenant, &j.id);
            let got_report = std::fs::read(
                dir.join("tenants")
                    .join(&j.tenant)
                    .join(&j.id)
                    .join("report.json"),
            )
            .expect("report.json");
            assert_eq!(
                got_trace, reference.0,
                "rotated concat of {} differs from single-file trace at {threads} threads",
                j.id
            );
            assert_eq!(got_report, reference.1);
            rotated_somewhere |= segment_count(&dir, &j.tenant, &j.id) >= 2;
        }
        assert!(
            rotated_somewhere,
            "a 256-byte cap must actually rotate at {threads} threads"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&ref_dir).unwrap();
}

#[test]
fn kill_resume_across_rotation_boundaries_is_byte_identical() {
    ensure_pool();
    const SLICE: usize = 3;
    const CAP: u64 = 200;
    let jobs: Vec<JobSpec> = (0..8u64)
        .map(|i| {
            let mut j = job(&format!("rk-job-{i}"), &format!("rk-t{}", i % 4), 80 + i);
            j.max_iterations = 12;
            j
        })
        .collect();
    let bytes = batch(&jobs, &[]);

    let ref_dir = tmp_dir("rotk-ref");
    run_daemon(&ref_dir, &bytes, SLICE, None, 8);

    // Halt after every round, resuming each time from a fresh daemon, so
    // kills land before, on, and after segment boundaries; the final
    // resume runs a different thread count and a different cap.
    let dir = tmp_dir("rotk");
    let mut summary = run_daemon_rotated(&dir, &bytes, SLICE, Some(1), 8, CAP);
    let mut lifetimes = 1;
    while summary.halted_active > 0 {
        // Torn tail on some mid-flight session's *last* segment.
        if lifetimes == 2 {
            use std::io::Write;
            let victim = dir.join("tenants").join("rk-t0").join("rk-job-0");
            let last = (0usize..)
                .take_while(|i| {
                    victim
                        .join(if *i == 0 {
                            "trace.jsonl".to_string()
                        } else {
                            format!("trace.{i:03}.jsonl")
                        })
                        .exists()
                })
                .last()
                .unwrap();
            let path = victim.join(if last == 0 {
                "trace.jsonl".to_string()
            } else {
                format!("trace.{last:03}.jsonl")
            });
            let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
            f.write_all(b"{\"Iteration\":{\"tor").unwrap();
        }
        let (threads, cap) = if lifetimes % 2 == 0 {
            (4, CAP)
        } else {
            (1, 3 * CAP)
        };
        summary = resume_daemon_rotated(&dir, SLICE, Some(1), threads, cap);
        lifetimes += 1;
        assert!(lifetimes < 64, "runaway resume loop");
    }
    assert!(lifetimes >= 3, "want several kill/resume lifetimes");

    for j in &jobs {
        let reference = session_bytes(&ref_dir, &j.tenant, &j.id);
        assert_eq!(
            concat_trace(&dir, &j.tenant, &j.id),
            reference.0,
            "kill/resume across rotation boundaries changed bytes of {}",
            j.id
        );
    }
    std::fs::remove_dir_all(&ref_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn profiling_on_vs_off_leaves_every_byte_identical() {
    ensure_pool();
    const SLICE: usize = 4;
    let jobs = [job("prof-a", "pt", 91), job("prof-b", "pt", 92)];
    let bytes = batch(&jobs, &[]);

    let off_dir = tmp_dir("prof-off");
    run_daemon(&off_dir, &bytes, SLICE, None, 8);

    mwu_core::prof::set_enabled(true);
    let on_dir = tmp_dir("prof-on");
    run_daemon(&on_dir, &bytes, SLICE, None, 8);
    mwu_core::prof::set_enabled(false);

    for j in &jobs {
        assert_eq!(
            session_bytes(&off_dir, &j.tenant, &j.id),
            session_bytes(&on_dir, &j.tenant, &j.id),
            "profiling changed artifact bytes of {}",
            j.id
        );
    }
    std::fs::remove_dir_all(&off_dir).unwrap();
    std::fs::remove_dir_all(&on_dir).unwrap();
}

// ---------------------------------------------------------------------------
// Group commit: a barrier per write (standalone runners committing an
// epoch of one after every slice) writes the same bytes as the daemon's
// barrier per round, and crash points *inside* a commit epoch
// (staged-but-unsynced appends, staged-but-unpublished checkpoint
// replaces, lost renames) all resume byte-identically.
// ---------------------------------------------------------------------------

/// Forwards to the real filesystem, counting batched barriers, the paths
/// handed to them, and every call that is durable on its own.
#[derive(Debug, Default)]
struct CountingVfs {
    barriers: AtomicU64,
    paths: AtomicU64,
    write_atomic: AtomicU64,
    truncate_sync: AtomicU64,
    sync_file: AtomicU64,
}

impl Vfs for CountingVfs {
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.create_dir_all(path)
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        RealVfs.read(path)
    }
    fn truncate_sync(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.truncate_sync.fetch_add(1, Ordering::Relaxed);
        RealVfs.truncate_sync(path, len)
    }
    fn file_len(&self, path: &Path) -> std::io::Result<u64> {
        RealVfs.file_len(path)
    }
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.write_atomic.fetch_add(1, Ordering::Relaxed);
        RealVfs.write_atomic(path, bytes)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.remove_file(path)
    }
    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.remove_dir_all(path)
    }
    fn exists(&self, path: &Path) -> bool {
        RealVfs.exists(path)
    }
    fn append_deferred(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        RealVfs.append_deferred(path, bytes)
    }
    fn write_atomic_deferred(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        RealVfs.write_atomic_deferred(path, bytes)
    }
    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        self.sync_file.fetch_add(1, Ordering::Relaxed);
        RealVfs.sync_file(path)
    }
    fn commit_atomic(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.commit_atomic(path)
    }
    fn sync_barrier(&self, paths: &[PathBuf]) -> Vec<std::io::Result<()>> {
        self.barriers.fetch_add(1, Ordering::Relaxed);
        self.paths.fetch_add(paths.len() as u64, Ordering::Relaxed);
        RealVfs.sync_barrier(paths)
    }
}

#[test]
fn barrier_per_write_matches_barrier_per_round() {
    ensure_pool();
    const SLICE: usize = 4;
    let jobs: Vec<JobSpec> = (0..10u64)
        .map(|i| {
            let mut j = job(&format!("gc-job-{i}"), &format!("gc-t{}", i % 4), 50 + i);
            j.max_iterations = 8 + (i as usize % 6);
            j
        })
        .collect();
    // gc-t0's three sessions (2, 3 and 3 slices) cost 80 evals a slice
    // each: the budget holds for one round and is exceeded at the second
    // barrier, where gc-job-0 completes and the other two are exhausted.
    let budget = BudgetSpec {
        tenant: "gc-t0".into(),
        max_evals: Some(300),
        max_ms: None,
    };
    let bytes = batch(&jobs, std::slice::from_ref(&budget));

    // Barrier per write: every job as a standalone runner that commits
    // an epoch of one after each slice. The runners advance in lockstep
    // rounds so the budget is charged at the same points as the daemon's
    // round barrier.
    let solo_dir = tmp_dir("barrier-per-write");
    let mut solo_paths = 0;
    let mut runners: Vec<SessionRunner> = jobs
        .iter()
        .map(|j| {
            let scenario = j.scenario.build().expect("scenario builds");
            let pool = scenario.build_pool(1, None);
            let data = Arc::new(ScenarioData { scenario, pool });
            SessionRunner::open(j.clone(), data, &solo_dir).expect("open session")
        })
        .collect();
    while runners.iter().any(SessionRunner::is_active) {
        for s in runners.iter_mut().filter(|s| s.is_active()) {
            s.run_slice(SLICE);
            let (paths, _ms) = commit_epoch(std::slice::from_mut(s)).expect("staged slice");
            solo_paths += paths;
            assert!(s.take_error().is_none(), "{} failed", s.job().id);
        }
        let tenant = || runners.iter().filter(|s| s.job().tenant == budget.tenant);
        let evals = tenant().map(|s| s.cost().fitness_evals).sum();
        let ms = tenant().map(|s| s.cost().simulated_ms).sum();
        if budget.exceeded(evals, ms) {
            for s in runners.iter_mut() {
                if s.job().tenant == budget.tenant && s.is_active() {
                    s.finish_budget_exhausted().expect("budget report");
                }
            }
        }
    }

    // Barrier per round: the daemon, at several thread counts.
    for threads in [1usize, 4, 8] {
        let dir = tmp_dir(&format!("barrier-per-round-{threads}"));
        let vfs = Arc::new(CountingVfs::default());
        let mut config = DaemonConfig::new(&dir);
        config.slice_iterations = SLICE;
        config.quiet = true;
        config.vfs = Arc::clone(&vfs) as Arc<dyn Vfs>;
        let mut daemon = Daemon::open(config).expect("open daemon");
        daemon.submit_bytes(&bytes).expect("submit batch");
        let summary = rayon::with_max_threads(threads, || daemon.run()).expect("daemon run");
        let count = |calls: &AtomicU64| calls.load(Ordering::Relaxed);
        assert_eq!(summary.budget_exhausted, 2, "gc-t0's budget must bite");
        assert_eq!(summary.completed, jobs.len() - 2);
        assert!(
            summary.io_syncs_batched > 0,
            "group commit must batch syncs"
        );
        assert!(summary.sync_barrier.count > 0, "barrier latency sampled");
        // Every path counted as batched was handed to a barrier, and the
        // barriers are the rounds' plus the end-of-run flush.
        assert_eq!(summary.io_syncs_batched, count(&vfs.paths));
        assert_eq!(summary.sync_barrier.count, count(&vfs.barriers));
        assert_eq!(summary.sync_barrier.count, summary.rounds + 1);
        // The same staged paths, batched per round instead of per write.
        assert_eq!(summary.io_syncs_batched, solo_paths as u64 + 1);
        // Nothing outside the barrier syncs on its own except three
        // one-shot replaces: the spool (`write_spool`, first thing in
        // `run`), one report per budget-exhausted session
        // (`finish_budget_exhausted`) and `metrics.json` (`write_metrics`,
        // last thing in `run`). `sync_file` is the barrier's per-path
        // retry, which a healthy disk never needs, and a fresh session
        // with no trace on disk skips its reconciliation truncate.
        assert_eq!(
            count(&vfs.write_atomic),
            summary.budget_exhausted as u64 + 2
        );
        assert_eq!(count(&vfs.truncate_sync), 0);
        assert_eq!(count(&vfs.sync_file), 0);
        for j in &jobs {
            assert_eq!(
                session_bytes(&dir, &j.tenant, &j.id),
                session_bytes(&solo_dir, &j.tenant, &j.id),
                "barrier per round changed artifact bytes of {} at {threads} threads",
                j.id
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&solo_dir).unwrap();
}

#[test]
fn kill_inside_commit_epoch_resumes_byte_identically() {
    ensure_pool();
    const SLICE: usize = 3;
    let jobs: Vec<JobSpec> = (0..6u64)
        .map(|i| {
            let mut j = job(&format!("ep-job-{i}"), &format!("ep-t{}", i % 3), 60 + i);
            j.max_iterations = 12;
            j
        })
        .collect();
    let bytes = batch(&jobs, &[]);

    let ref_dir = tmp_dir("epoch-ref");
    run_daemon(&ref_dir, &bytes, SLICE, None, 8);

    for threads in [1usize, 4, 8] {
        let dir = tmp_dir(&format!("epoch-{threads}"));
        let s1 = run_daemon(&dir, &bytes, SLICE, Some(1), threads);
        assert_eq!(s1.halted_active, jobs.len(), "all mid-flight after round 1");
        let victim = dir.join("tenants").join("ep-t0").join("ep-job-0");
        let round1_meta = std::fs::read(victim.join("session.json")).expect("checkpoint");

        // Crash point A — between a staged append and its barrier: the
        // trace carries complete extra lines past the vouched trace_len.
        // Recovery must truncate to the vouch and replay them.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(victim.join("trace.jsonl"))
                .unwrap();
            f.write_all(b"{\"Iteration\":{\"iteration\":999,\"staged\":true}}\n")
                .unwrap();
        }
        let s2 = resume_daemon(&dir, SLICE, Some(1), threads);
        assert!(s2.halted_active > 0, "victim still mid-flight");

        // Crash point B — between the barrier and the checkpoint
        // publish: a staged session.json.tmp that never got renamed.
        std::fs::write(victim.join("session.json.tmp"), b"{\"staged\":").unwrap();
        // Crash point C — lost rename: the barrier made round 2's trace
        // bytes durable but the crash ate the session.json rename, so
        // the on-disk checkpoint still vouches for round 1.
        std::fs::write(victim.join("session.json"), &round1_meta).unwrap();

        let s3 = resume_daemon(&dir, SLICE, None, threads);
        assert_eq!(s3.completed, jobs.len());
        for j in &jobs {
            assert_eq!(
                session_bytes(&dir, &j.tenant, &j.id),
                session_bytes(&ref_dir, &j.tenant, &j.id),
                "mid-epoch crash changed bytes of {} at {threads} threads",
                j.id
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&ref_dir).unwrap();
}

static ROTATION_PROP_REFERENCE: std::sync::OnceLock<(Vec<u8>, Vec<u8>)> =
    std::sync::OnceLock::new();

/// Uncapped single-session reference bytes for the rotation property.
fn rotation_reference() -> &'static (Vec<u8>, Vec<u8>) {
    ROTATION_PROP_REFERENCE.get_or_init(|| {
        ensure_pool();
        let dir = tmp_dir("rotp-ref");
        run_daemon(&dir, &batch(&[job("rp", "rpt", 77)], &[]), 3, None, 1);
        let bytes = session_bytes(&dir, "rpt", "rp");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Any positive segment cap yields segments whose in-order
    // concatenation is byte-identical to the uninterrupted single-file
    // trace (caps smaller than one slice's bytes degenerate to
    // one-slice-per-segment; huge caps degenerate to no rotation).
    #[test]
    fn any_segment_cap_concats_to_uninterrupted_trace(cap in 1u64..4096) {
        ensure_pool();
        let (ref_trace, ref_report) = rotation_reference();
        let dir = tmp_dir(&format!("rotp-{cap}"));
        let summary =
            run_daemon_rotated(&dir, &batch(&[job("rp", "rpt", 77)], &[]), 3, None, 4, cap);
        prop_assert_eq!(summary.completed, 1);
        let trace = concat_trace(&dir, "rpt", "rp");
        let report = std::fs::read(
            dir.join("tenants").join("rpt").join("rp").join("report.json"),
        )
        .expect("report.json");
        prop_assert_eq!(&trace, ref_trace, "cap {} broke concat identity", cap);
        prop_assert_eq!(&report, ref_report);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
