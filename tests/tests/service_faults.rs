//! Integration: `mwrepaird` under a hostile disk (docs/FAULTS.md).
//!
//! The storage-fault adversary ([`FaultVfs`]) and the quarantine machinery
//! extend the determinism contract of `service.rs` to failing hardware:
//!
//! * fault-free runs report exactly zero storage counters, in the summary
//!   and through the `MetricsSink` observer (`fault_free_*`);
//! * no fault schedule changes a *surviving* session's bytes, and the
//!   quarantine set itself is thread-count-invariant
//!   (`surviving_sessions_*`);
//! * quarantined sessions re-arm and complete byte-identically once the
//!   disk heals (`quarantine_rearm_*`), including after the tenant's
//!   budget also ran out (`budget_exhaustion_and_quarantine_*`);
//! * a session that *panics* is quarantined behind a post-mortem, never
//!   killing the daemon (`panicking_session_*`);
//!
//! plus a property sweep over `(fault seed, fault rate)` pinning the
//! never-aborts + heals-byte-identically pair for arbitrary schedules.

use mwrepair::VariantChoice;
use mwrepair_service::{
    encode_line, BudgetSpec, Daemon, DaemonConfig, DaemonSummary, FaultVfs, JobLine, JobSpec,
    QuarantineRecord, RealVfs, ScenarioSpec, StorageFaultConfig, StorageFaultPlan, Vfs,
};
use mwu_core::trace::Observer;
use mwu_core::MetricsSink;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Size the shared pool once at the largest thread count used below
/// (later calls are no-ops).
fn ensure_pool() {
    rayon::set_num_threads(8);
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mwrd-ft-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scenario() -> ScenarioSpec {
    ScenarioSpec::Synthetic {
        name: "svc-faults".into(),
        options: 20,
        x_star: 5,
        statements: 180,
        tests: 9,
        repair_rate: 0.0,
        world_seed: 3,
        pool_size: Some(20),
    }
}

fn job(id: &str, tenant: &str, seed: u64) -> JobSpec {
    JobSpec {
        id: id.into(),
        tenant: tenant.into(),
        scenario: scenario(),
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

/// Open + submit + run one daemon lifetime over `workdir` through `vfs`.
fn run_daemon_on(
    workdir: &Path,
    bytes: &[u8],
    vfs: Arc<dyn Vfs>,
    threads: usize,
) -> Result<DaemonSummary, mwrepair_service::DaemonError> {
    let mut config = DaemonConfig::new(workdir);
    config.slice_iterations = 2;
    config.quiet = true;
    config.vfs = vfs;
    let mut daemon = Daemon::open(config)?;
    daemon.submit_bytes(bytes)?;
    rayon::with_max_threads(threads, || daemon.run())
}

/// Like [`run_daemon_on`] but also returns the per-session outcome split:
/// (completed ids, quarantined ids).
fn run_split(
    workdir: &Path,
    bytes: &[u8],
    vfs: Arc<dyn Vfs>,
    threads: usize,
) -> (DaemonSummary, BTreeSet<String>, BTreeSet<String>) {
    let mut config = DaemonConfig::new(workdir);
    config.slice_iterations = 2;
    config.quiet = true;
    config.vfs = vfs;
    let mut daemon = Daemon::open(config).expect("open daemon");
    daemon.submit_bytes(bytes).expect("submit batch");
    let summary = rayon::with_max_threads(threads, || daemon.run()).expect("daemon run");
    let mut completed = BTreeSet::new();
    let mut quarantined = BTreeSet::new();
    for s in daemon.sessions() {
        if s.quarantine().is_some() {
            quarantined.insert(s.job().id.clone());
        } else if s.report().is_some() {
            completed.insert(s.job().id.clone());
        }
    }
    (summary, completed, quarantined)
}

fn session_dir(workdir: &Path, tenant: &str, id: &str) -> PathBuf {
    workdir.join("tenants").join(tenant).join(id)
}

fn session_bytes(workdir: &Path, tenant: &str, id: &str) -> (Vec<u8>, Vec<u8>) {
    let dir = session_dir(workdir, tenant, id);
    let trace = std::fs::read(dir.join("trace.jsonl")).expect("trace.jsonl");
    let report = std::fs::read(dir.join("report.json")).expect("report.json");
    (trace, report)
}

// ---------------------------------------------------------------------------
// Fault-free runs report exactly zero storage counters (summary + sink).
// ---------------------------------------------------------------------------

#[test]
fn fault_free_runs_report_zero_storage_counters() {
    ensure_pool();
    let workdir = tmp_dir("zero");
    let jobs = [job("zc-1", "acme", 21), job("zc-2", "beta", 22)];
    let summary =
        run_daemon_on(&workdir, &batch(&jobs, &[]), Arc::new(RealVfs), 4).expect("clean run");
    assert_eq!(summary.sessions_quarantined, 0);
    assert_eq!(summary.io_retries, 0);
    assert_eq!(summary.io_faults_injected, 0);

    // The same three counters flow through the observer pipeline.
    let mut sink = MetricsSink::new();
    sink.on_storage(summary.storage_event());
    assert_eq!(sink.io_retries.get(), 0);
    assert_eq!(sink.io_faults_injected.get(), 0);
    assert_eq!(sink.sessions_quarantined.get(), 0);
    let report = sink.report();
    assert!(report.contains("io_retries=0"), "report: {report}");
    assert!(report.contains("io_faults_injected=0"), "report: {report}");
    assert!(
        report.contains("sessions_quarantined=0"),
        "report: {report}"
    );
    let _ = std::fs::remove_dir_all(&workdir);
}

#[test]
fn storage_counters_survive_metrics_merge() {
    let mut a = MetricsSink::new();
    a.on_storage(mwu_core::StorageEvent {
        io_retries: 3,
        io_faults_injected: 5,
        sessions_quarantined: 1,
    });
    let mut b = MetricsSink::new();
    b.on_storage(mwu_core::StorageEvent {
        io_retries: 2,
        io_faults_injected: 1,
        sessions_quarantined: 0,
    });
    a.merge(&b);
    assert_eq!(a.io_retries.get(), 5);
    assert_eq!(a.io_faults_injected.get(), 6);
    assert_eq!(a.sessions_quarantined.get(), 1);
}

// ---------------------------------------------------------------------------
// Surviving sessions are byte-identical to fault-free, across threads.
// ---------------------------------------------------------------------------

const FLEET: [(&str, &str, u64); 5] = [
    ("sv-1", "acme", 31),
    ("sv-2", "acme", 32),
    ("sv-3", "beta", 33),
    ("sv-4", "beta", 34),
    ("sv-5", "ceti", 35),
];

fn fleet_jobs() -> Vec<JobSpec> {
    FLEET.iter().map(|(id, t, s)| job(id, t, *s)).collect()
}

#[test]
fn surviving_sessions_byte_identical_under_faults_across_threads() {
    ensure_pool();
    // Fault-free reference bytes (the workdir path never appears in the
    // artifacts, so a separate reference directory is comparable).
    let ref_dir = tmp_dir("surv-ref");
    run_daemon_on(&ref_dir, &batch(&fleet_jobs(), &[]), Arc::new(RealVfs), 1).expect("reference");

    // One *shared* workdir path, recreated per thread count: the fault
    // schedule is keyed by (seed, path, op, attempt), so identical paths
    // mean the identical adversary at 1, 4 and 8 threads — which makes
    // the quarantine set itself certifiable as thread-count-invariant.
    let workdir = tmp_dir("surv");
    let mut baseline: Option<(BTreeSet<String>, BTreeSet<String>)> = None;
    for threads in [1usize, 4, 8] {
        let _ = std::fs::remove_dir_all(&workdir);
        let plan = StorageFaultPlan::new(4242, StorageFaultConfig::mixed(0.2));
        let (summary, completed, quarantined) = run_split(
            &workdir,
            &batch(&fleet_jobs(), &[]),
            Arc::new(FaultVfs::rooted(plan, &workdir)),
            threads,
        );
        assert!(
            summary.io_faults_injected > 0,
            "adversary must actually fire (threads={threads})"
        );
        assert_eq!(
            completed.len() + quarantined.len(),
            FLEET.len(),
            "every session ends completed or quarantined"
        );
        for (id, tenant, _) in FLEET.iter().filter(|(id, ..)| completed.contains(*id)) {
            assert_eq!(
                session_bytes(&workdir, tenant, id),
                session_bytes(&ref_dir, tenant, id),
                "surviving {id} must be byte-identical to fault-free at {threads} threads"
            );
        }
        for (id, tenant, _) in FLEET.iter().filter(|(id, ..)| quarantined.contains(*id)) {
            // The post-mortem write is best-effort on a disk that is
            // still faulting; when it landed it must be well-formed.
            let path = session_dir(&workdir, tenant, id).join("quarantine.json");
            if let Ok(q) = std::fs::read_to_string(&path) {
                let record = QuarantineRecord::from_json(&q).expect("post-mortem parses");
                assert_eq!(record.job_id, *id);
                assert!(!record.errors.is_empty(), "post-mortem carries error chain");
            }
        }
        match &baseline {
            None => baseline = Some((completed, quarantined)),
            Some((c0, q0)) => {
                assert_eq!(&completed, c0, "outcome split varies with threads");
                assert_eq!(&quarantined, q0, "quarantine set varies with threads");
            }
        }
    }
    let (_, quarantined) = baseline.expect("three runs");
    assert!(
        !quarantined.is_empty(),
        "this schedule is tuned to quarantine at least one session"
    );
    let _ = std::fs::remove_dir_all(&workdir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

// ---------------------------------------------------------------------------
// Quarantine → disk heals → re-arm → byte-identical completion.
// ---------------------------------------------------------------------------

#[test]
fn quarantine_rearm_completes_byte_identically() {
    ensure_pool();
    let ref_dir = tmp_dir("rearm-ref");
    run_daemon_on(&ref_dir, &batch(&fleet_jobs(), &[]), Arc::new(RealVfs), 1).expect("reference");

    let workdir = tmp_dir("rearm");
    let plan = StorageFaultPlan::new(4242, StorageFaultConfig::mixed(0.2));
    let (_, _, quarantined) = run_split(
        &workdir,
        &batch(&fleet_jobs(), &[]),
        Arc::new(FaultVfs::rooted(plan, &workdir)),
        4,
    );
    assert!(!quarantined.is_empty(), "need at least one quarantine");

    // The disk heals; a clean resume re-arms every quarantined session.
    let (summary, completed, still_quarantined) =
        run_split(&workdir, &batch(&fleet_jobs(), &[]), Arc::new(RealVfs), 4);
    assert_eq!(summary.sessions_quarantined, 0);
    assert!(still_quarantined.is_empty());
    assert_eq!(completed.len(), FLEET.len());
    for (id, tenant, _) in &FLEET {
        assert_eq!(
            session_bytes(&workdir, tenant, id),
            session_bytes(&ref_dir, tenant, id),
            "re-armed {id} must complete byte-identically"
        );
        assert!(
            !session_dir(&workdir, tenant, id)
                .join("quarantine.json")
                .exists(),
            "post-mortem must be swept on completion"
        );
    }
    let _ = std::fs::remove_dir_all(&workdir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

// ---------------------------------------------------------------------------
// A panicking session is quarantined, never fatal.
// ---------------------------------------------------------------------------

/// Delegates to the real filesystem but panics on trace appends touching
/// the victim's directory — modeling a bug (not an I/O error) inside one
/// session's persistence path. Atomic writes stay intact so the
/// quarantine post-mortem itself can land (the post-mortem write is
/// additionally panic-hardened in `quarantine_if_failed`).
#[derive(Debug)]
struct PanicVfs {
    inner: RealVfs,
    victim: String,
}

impl PanicVfs {
    fn trip(&self, path: &Path) {
        if path.to_string_lossy().contains(&self.victim) {
            panic!("injected persistence bug under {}", self.victim);
        }
    }
}

impl Vfs for PanicVfs {
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn truncate_sync(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.inner.truncate_sync(path, len)
    }
    fn file_len(&self, path: &Path) -> std::io::Result<u64> {
        self.inner.file_len(path)
    }
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.write_atomic(path, bytes)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_file(path)
    }
    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_dir_all(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn append_deferred(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.trip(path);
        self.inner.append_deferred(path, bytes)
    }
    fn write_atomic_deferred(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.write_atomic_deferred(path, bytes)
    }
    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.sync_file(path)
    }
    fn commit_atomic(&self, path: &Path) -> std::io::Result<()> {
        self.inner.commit_atomic(path)
    }
    fn sync_barrier(&self, paths: &[PathBuf]) -> Vec<std::io::Result<()>> {
        self.inner.sync_barrier(paths)
    }
}

#[test]
fn panicking_session_is_quarantined_not_fatal() {
    ensure_pool();
    let ref_dir = tmp_dir("panic-ref");
    run_daemon_on(&ref_dir, &batch(&fleet_jobs(), &[]), Arc::new(RealVfs), 1).expect("reference");

    let workdir = tmp_dir("panic");
    let vfs = Arc::new(PanicVfs {
        inner: RealVfs,
        victim: format!(
            "{}sv-3{}",
            std::path::MAIN_SEPARATOR,
            std::path::MAIN_SEPARATOR
        ),
    });
    let (summary, completed, quarantined) = run_split(&workdir, &batch(&fleet_jobs(), &[]), vfs, 4);
    assert_eq!(summary.sessions_quarantined, 1, "exactly the victim");
    assert!(quarantined.contains("sv-3"));
    assert_eq!(completed.len(), FLEET.len() - 1);

    let q = std::fs::read_to_string(session_dir(&workdir, "beta", "sv-3").join("quarantine.json"))
        .expect("post-mortem");
    let record = QuarantineRecord::from_json(&q).expect("post-mortem parses");
    assert_eq!(record.kind, "panic");
    assert!(
        record
            .errors
            .iter()
            .any(|e| e.contains("injected persistence bug")),
        "panic payload captured: {:?}",
        record.errors
    );

    // Bystanders never noticed.
    for (id, tenant, _) in FLEET.iter().filter(|(id, ..)| *id != "sv-3") {
        assert_eq!(
            session_bytes(&workdir, tenant, id),
            session_bytes(&ref_dir, tenant, id),
            "bystander {id} unaffected by the panic"
        );
    }

    // Re-arm under a fixed VFS: the victim completes byte-identically.
    let (summary, completed, _) =
        run_split(&workdir, &batch(&fleet_jobs(), &[]), Arc::new(RealVfs), 4);
    assert_eq!(summary.sessions_quarantined, 0);
    assert_eq!(completed.len(), FLEET.len());
    assert_eq!(
        session_bytes(&workdir, "beta", "sv-3"),
        session_bytes(&ref_dir, "beta", "sv-3"),
    );
    let _ = std::fs::remove_dir_all(&workdir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

// ---------------------------------------------------------------------------
// Budget exhaustion × quarantine (the two degraded states compose).
// ---------------------------------------------------------------------------

/// Fails every *write* under the victim's directory with EIO; reads and
/// everything else pass through. Persistent (not transient), so retries
/// exhaust and the session quarantines without ever advancing durably.
#[derive(Debug)]
struct FailVictimWrites {
    inner: RealVfs,
    victim: String,
}

impl FailVictimWrites {
    fn gate(&self, path: &Path) -> std::io::Result<()> {
        if path.to_string_lossy().contains(&self.victim) {
            return Err(std::io::Error::other("injected persistent EIO"));
        }
        Ok(())
    }
}

impl Vfs for FailVictimWrites {
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn truncate_sync(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.inner.truncate_sync(path, len)
    }
    fn file_len(&self, path: &Path) -> std::io::Result<u64> {
        self.inner.file_len(path)
    }
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.gate(path)?;
        self.inner.write_atomic(path, bytes)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_file(path)
    }
    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_dir_all(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn append_deferred(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.gate(path)?;
        self.inner.append_deferred(path, bytes)
    }
    fn write_atomic_deferred(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.gate(path)?;
        self.inner.write_atomic_deferred(path, bytes)
    }
    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.sync_file(path)
    }
    fn commit_atomic(&self, path: &Path) -> std::io::Result<()> {
        self.inner.commit_atomic(path)
    }
    fn sync_barrier(&self, paths: &[PathBuf]) -> Vec<std::io::Result<()>> {
        self.inner.sync_barrier(paths)
    }
}

#[test]
fn budget_exhaustion_and_quarantine_compose() {
    ensure_pool();
    let jobs = [job("bq-1", "acme", 51), job("bq-2", "acme", 52)];

    // Unbudgeted fault-free reference: the bytes both sessions must
    // eventually land on, no matter what degradations happen en route.
    let ref_dir = tmp_dir("bq-ref");
    run_daemon_on(&ref_dir, &batch(&jobs, &[]), Arc::new(RealVfs), 1).expect("reference");

    // Budgeted faulty run. Victim bq-1's writes all fail persistently:
    // it runs its first slice but can never persist it, so it
    // quarantines with ZERO durable progress — and zero charge against
    // the tenant budget (a slice that failed to persist is never
    // billed). Sibling bq-2 alone then walks the tenant into the
    // max_evals cap and halts budget-exhausted.
    let budget = BudgetSpec {
        tenant: "acme".into(),
        max_evals: Some(150),
        max_ms: None,
    };
    let workdir = tmp_dir("bq");
    let vfs = Arc::new(FailVictimWrites {
        inner: RealVfs,
        victim: format!(
            "{}bq-1{}",
            std::path::MAIN_SEPARATOR,
            std::path::MAIN_SEPARATOR
        ),
    });
    let mut config = DaemonConfig::new(&workdir);
    config.slice_iterations = 2;
    config.quiet = true;
    config.vfs = vfs;
    let mut daemon = Daemon::open(config).expect("open daemon");
    daemon
        .submit_bytes(&batch(&jobs, &[budget]))
        .expect("submit");
    let summary = rayon::with_max_threads(4, || daemon.run()).expect("daemon run");
    assert_eq!(summary.sessions_quarantined, 1);
    assert_eq!(summary.budget_exhausted, 1, "sibling hits the cap");
    let victim = daemon.session("bq-1").expect("victim session");
    let record = victim.quarantine().expect("victim quarantined");
    assert_eq!(
        victim.cost().fitness_evals,
        0,
        "the failed slice must not be charged to the tenant"
    );
    assert_eq!(record.last_checkpoint_iteration, None);
    assert_eq!(record.last_durable_trace_len, 0);
    drop(daemon);

    // Re-arm BOTH degraded states at once (the budget lift is the
    // docs/SERVICE.md procedure; the quarantine re-arms automatically):
    // lift the budget from the spool, delete the BudgetExhausted report,
    // heal the disk, resume from the spool.
    std::fs::write(workdir.join("jobs.jsonl"), batch(&jobs, &[])).expect("lift budget");
    std::fs::remove_file(session_dir(&workdir, "acme", "bq-2").join("report.json"))
        .expect("delete budget report");
    let mut config = DaemonConfig::new(&workdir);
    config.slice_iterations = 2;
    config.quiet = true;
    let mut daemon = Daemon::open(config).expect("reopen daemon");
    let summary = rayon::with_max_threads(4, || daemon.run()).expect("resume run");
    assert_eq!(summary.sessions_quarantined, 0);
    assert_eq!(summary.budget_exhausted, 0);
    assert_eq!(summary.completed, 2);
    for id in ["bq-1", "bq-2"] {
        assert_eq!(
            session_bytes(&workdir, "acme", id),
            session_bytes(&ref_dir, "acme", id),
            "{id} byte-identical after quarantine + budget-exhaustion re-arm"
        );
        assert!(!session_dir(&workdir, "acme", id)
            .join("quarantine.json")
            .exists());
    }
    let _ = std::fs::remove_dir_all(&workdir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

// ---------------------------------------------------------------------------
// Lying fsync mid-barrier: the group-commit epoch's scariest crash. An
// append or checkpoint replace staged during the slice reports durable at
// the barrier while its tail never landed, and the device then dies. The
// lied sessions must quarantine (thread-count-invariantly), bystanders
// stay byte-identical, and a healed resume completes everyone.
// ---------------------------------------------------------------------------

#[test]
fn lying_fsync_mid_barrier_quarantines_and_heals() {
    ensure_pool();
    let ref_dir = tmp_dir("lieb-ref");
    run_daemon_on(&ref_dir, &batch(&fleet_jobs(), &[]), Arc::new(RealVfs), 1).expect("reference");

    let workdir = tmp_dir("lieb");
    let mut baseline: Option<(BTreeSet<String>, BTreeSet<String>)> = None;
    for threads in [1usize, 4, 8] {
        let _ = std::fs::remove_dir_all(&workdir);
        let plan = StorageFaultPlan::new(1207, StorageFaultConfig::lies(0.05));
        let (summary, completed, quarantined) = run_split(
            &workdir,
            &batch(&fleet_jobs(), &[]),
            Arc::new(FaultVfs::rooted(plan, &workdir)),
            threads,
        );
        assert!(
            summary.io_faults_injected > 0,
            "the lie schedule must fire (threads={threads})"
        );
        assert_eq!(completed.len() + quarantined.len(), FLEET.len());
        for (id, tenant, _) in FLEET.iter().filter(|(id, ..)| completed.contains(*id)) {
            assert_eq!(
                session_bytes(&workdir, tenant, id),
                session_bytes(&ref_dir, tenant, id),
                "bystander {id} unaffected by the mid-barrier lie at {threads} threads"
            );
        }
        match &baseline {
            None => baseline = Some((completed, quarantined)),
            Some((c0, q0)) => {
                assert_eq!(&completed, c0, "outcome split varies with threads");
                assert_eq!(&quarantined, q0, "quarantine set varies with threads");
            }
        }
    }
    let (completed, quarantined) = baseline.expect("three runs");
    assert!(
        !quarantined.is_empty(),
        "this schedule is tuned to catch at least one session lying"
    );
    assert!(
        !completed.is_empty(),
        "and to leave at least one bystander alive"
    );

    // A new daemon generation discards the dead device; the healed disk
    // truncates every lied tail back to its last true vouch and replays.
    let (summary, completed, still_quarantined) =
        run_split(&workdir, &batch(&fleet_jobs(), &[]), Arc::new(RealVfs), 4);
    assert_eq!(summary.sessions_quarantined, 0);
    assert!(still_quarantined.is_empty());
    assert_eq!(completed.len(), FLEET.len());
    for (id, tenant, _) in &FLEET {
        assert_eq!(
            session_bytes(&workdir, tenant, id),
            session_bytes(&ref_dir, tenant, id),
            "lied {id} must heal byte-identically"
        );
    }
    let _ = std::fs::remove_dir_all(&workdir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

// ---------------------------------------------------------------------------
// Property: arbitrary fault schedules never abort the daemon, and a clean
// resume always heals to byte-identical artifacts.
// ---------------------------------------------------------------------------

const PROP_FLEET: [(&str, &str, u64); 2] = [("pf-1", "acme", 61), ("pf-2", "beta", 62)];

fn prop_jobs() -> Vec<JobSpec> {
    PROP_FLEET.iter().map(|(id, t, s)| job(id, t, *s)).collect()
}

type ByteMap = std::collections::BTreeMap<String, (Vec<u8>, Vec<u8>)>;

fn prop_reference() -> &'static ByteMap {
    static REF: OnceLock<ByteMap> = OnceLock::new();
    REF.get_or_init(|| {
        ensure_pool();
        let dir = tmp_dir("prop-ref");
        run_daemon_on(&dir, &batch(&prop_jobs(), &[]), Arc::new(RealVfs), 1).expect("reference");
        let map = PROP_FLEET
            .iter()
            .map(|(id, tenant, _)| (id.to_string(), session_bytes(&dir, tenant, id)))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        map
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_fault_schedule_heals_to_byte_identical(seed in 0u64..1u64 << 48, rate in 0.0f64..0.5) {
        ensure_pool();
        let reference = prop_reference();
        let workdir = tmp_dir(&format!("prop-{seed}"));
        let plan = StorageFaultPlan::new(seed, StorageFaultConfig::mixed(rate));
        // The faulty lifetime may quarantine anyone (and the daemon may
        // even fail its own spool write); it must never panic.
        let _ = run_daemon_on(
            &workdir,
            &batch(&prop_jobs(), &[]),
            Arc::new(FaultVfs::rooted(plan, &workdir)),
            4,
        );
        // The disk heals: one clean lifetime completes every session.
        let (summary, completed, quarantined) = run_split(
            &workdir,
            &batch(&prop_jobs(), &[]),
            Arc::new(RealVfs),
            4,
        );
        prop_assert_eq!(summary.sessions_quarantined, 0);
        prop_assert!(quarantined.is_empty());
        prop_assert_eq!(completed.len(), PROP_FLEET.len());
        for (id, tenant, _) in &PROP_FLEET {
            let got = session_bytes(&workdir, tenant, id);
            prop_assert_eq!(&got, &reference[*id], "session {} diverged", id);
        }
        let _ = std::fs::remove_dir_all(&workdir);
    }
}

// ---------------------------------------------------------------------------
// Trace rotation under a hostile disk: kill mid-rotation, heal, resume —
// segment concat stays byte-identical to the fault-free single-file trace.
// ---------------------------------------------------------------------------

/// One daemon lifetime with trace rotation at `cap` bytes per segment.
fn run_rotated_on(
    workdir: &Path,
    bytes: &[u8],
    vfs: Arc<dyn Vfs>,
    threads: usize,
    cap: u64,
    halt_after_rounds: Option<u64>,
) -> DaemonSummary {
    let mut config = DaemonConfig::new(workdir);
    config.slice_iterations = 2;
    config.quiet = true;
    config.vfs = vfs;
    config.trace_segment_bytes = Some(cap);
    config.halt_after_rounds = halt_after_rounds;
    // Transient-fault recipe: enough attempts that an eio(0.3) schedule
    // cannot permanently exhaust a session's retries.
    config.retry = simnet::faults::RetryPolicy {
        max_attempts: 10,
        base_delay: 1,
    };
    let mut daemon = Daemon::open(config).expect("open daemon");
    daemon.submit_bytes(bytes).expect("submit batch");
    rayon::with_max_threads(threads, || daemon.run()).expect("daemon run")
}

/// In-order concatenation of a session's rotated trace segments.
fn concat_trace(workdir: &Path, tenant: &str, id: &str) -> Vec<u8> {
    let dir = session_dir(workdir, tenant, id);
    let mut out = std::fs::read(dir.join("trace.jsonl")).unwrap_or_default();
    for i in 1usize.. {
        match std::fs::read(dir.join(format!("trace.{i:03}.jsonl"))) {
            Ok(seg) => out.extend_from_slice(&seg),
            Err(_) => break,
        }
    }
    out
}

#[test]
fn rotation_survives_kill_and_faults_across_threads() {
    ensure_pool();
    const CAP: u64 = 180;
    let ref_dir = tmp_dir("rotf-ref");
    run_daemon_on(&ref_dir, &batch(&fleet_jobs(), &[]), Arc::new(RealVfs), 1).expect("reference");

    for threads in [1usize, 4, 8] {
        let workdir = tmp_dir(&format!("rotf-{threads}"));
        // Lifetime 1: rotate under transient injected EIO, killed after
        // two rounds so sessions stop mid-rotation.
        let plan = StorageFaultPlan::new(97, StorageFaultConfig::eio(0.3));
        let summary = run_rotated_on(
            &workdir,
            &batch(&fleet_jobs(), &[]),
            Arc::new(FaultVfs::rooted(plan, &workdir)),
            threads,
            CAP,
            Some(2),
        );
        assert!(
            summary.io_faults_injected > 0,
            "adversary must actually fire (threads={threads})"
        );
        assert!(summary.halted_active > 0, "kill must land mid-flight");
        // Lifetime 2: the disk heals; resume re-derives segment
        // boundaries from durable lengths and finishes everything.
        let summary = run_rotated_on(&workdir, &[], Arc::new(RealVfs), threads, CAP, None);
        assert_eq!(summary.completed, FLEET.len());
        assert_eq!(summary.sessions_quarantined, 0);

        let mut rotated_somewhere = false;
        for (id, tenant, _) in &FLEET {
            let (ref_trace, ref_report) = session_bytes(&ref_dir, tenant, id);
            assert_eq!(
                concat_trace(&workdir, tenant, id),
                ref_trace,
                "rotated+faulted {id} concat differs at {threads} threads"
            );
            assert_eq!(
                std::fs::read(session_dir(&workdir, tenant, id).join("report.json"))
                    .expect("report.json"),
                ref_report
            );
            rotated_somewhere |= session_dir(&workdir, tenant, id)
                .join("trace.001.jsonl")
                .exists();
        }
        assert!(
            rotated_somewhere,
            "a {CAP}-byte cap must actually rotate (threads={threads})"
        );
        let _ = std::fs::remove_dir_all(&workdir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}
