//! One daemon-managed repair session: sliced execution, durable
//! checkpointing, and a byte-deterministic trace + report.
//!
//! This is the one place a resumable repair persists its state. The daemon
//! drives every session in fixed-size iteration slices. Each slice
//! constructs a fresh algorithm instance of the job's variant, hands it to
//! [`mwrepair::repair_resumable`] with the previous slice's [`Checkpoint`]
//! (the checkpoint *is* the carried state — there is no in-memory
//! algorithm between slices), buffers the slice's trace events in memory,
//! and then stages its persistence in the round's durability epoch:
//!
//! 1. append the slice's trace bytes to `trace.jsonl` (no fsync yet);
//! 2. write `session.json.tmp` (recorded trace length + the new
//!    checkpoint) — or, on completion, `report.json.tmp`.
//!
//! [`commit_epoch`] then makes every staged byte durable in one batched
//! barrier and only afterwards renames the staged documents into place.
//! A crash before a rename leaves trace bytes past the recorded length;
//! [`SessionRunner::open`] truncates the trace back to the length
//! `session.json` vouches for and re-runs the slice, which re-appends the
//! identical bytes. That is what makes the kill/resume half of the
//! determinism contract hold byte-for-byte.
//!
//! The driver emits `RunStart` only on the first slice (the one without a
//! checkpoint), so a sliced (and resumed) trace is byte-identical to an
//! uninterrupted `repair_observed` trace of the same job. Every resume
//! validates the checkpoint's format version, variant and configuration
//! first; a mismatch quarantines the session with kind `checkpoint`.
//!
//! ## Hostile disks and quarantine
//!
//! Every byte goes through the session's [`Vfs`]. Transient I/O failures
//! retry with bounded exponential backoff ([`crate::vfs::with_retries`]);
//! a failure that survives every retry — or a panic caught by the daemon
//! inside the parallel shard — **quarantines** the session: the error is
//! latched, the daemon calls [`SessionRunner::quarantine_if_failed`] at
//! the next round barrier, and a durable [`QuarantineRecord`] post-mortem
//! (`quarantine.json`) is written beside the retained checkpoint. The
//! checkpoint only advances once its epoch commits, so a
//! failed slice is never charged to the tenant's budget and a re-opened
//! session resumes from the last durable state to byte-identical
//! completion. Re-opening a quarantined session under a working disk
//! clears the post-mortem automatically (re-arm).

use crate::protocol::JobSpec;
use crate::vfs::{tmp_path, with_retries, RealVfs, StorageOp, Vfs};
use apr_sim::ledger::CostSnapshot;
use apr_sim::{BugScenario, CostLedger, MutationPool};
use mwrepair::{
    effective_arms, repair_resumable, Checkpoint, CheckpointError, MwRepairConfig, RepairOutcome,
    SessionResult, VariantChoice,
};
use mwu_core::trace::JsonlSink;
use mwu_core::{
    DistributedConfig, DistributedMwu, MwuAlgorithm, SlateConfig, SlateMwu, StandardConfig,
    StandardMwu,
};
use serde::{Deserialize, Serialize};
use simnet::faults::RetryPolicy;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// `session.json` format version.
const META_VERSION: u32 = 1;

/// `report.json` schema tag.
pub const REPORT_SCHEMA: &str = "mwrepaird/v1";

/// `quarantine.json` schema tag.
pub const QUARANTINE_SCHEMA: &str = "mwrepaird-quarantine/v1";

/// A scenario plus its precomputed mutation pool, shared (immutably) by
/// every session that references the same [`crate::ScenarioSpec`].
#[derive(Debug)]
pub struct ScenarioData {
    /// The bug scenario.
    pub scenario: BugScenario,
    /// Its precomputed safe-mutation pool.
    pub pool: MutationPool,
}

/// Why a session could not run or persist.
#[derive(Debug)]
pub enum SessionError {
    /// Filesystem failure (unretried — raised outside the vfs path).
    Io(std::io::Error),
    /// A storage operation failed through every retry.
    Storage(crate::vfs::StorageFailure),
    /// The session panicked inside the parallel shard.
    Panicked(String),
    /// Checkpoint capture / restore failure.
    Checkpoint(CheckpointError),
    /// On-disk session state contradicts itself.
    Corrupt(String),
    /// The job's variant cannot run at this arm count.
    Intractable(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Io(e) => write!(f, "session I/O error: {e}"),
            SessionError::Storage(e) => write!(f, "session storage failure: {e}"),
            SessionError::Panicked(m) => write!(f, "session panicked: {m}"),
            SessionError::Checkpoint(e) => write!(f, "session checkpoint error: {e}"),
            SessionError::Corrupt(m) => write!(f, "session state corrupt: {m}"),
            SessionError::Intractable(m) => write!(f, "session intractable: {m}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<std::io::Error> for SessionError {
    fn from(e: std::io::Error) -> Self {
        SessionError::Io(e)
    }
}

impl From<crate::vfs::StorageFailure> for SessionError {
    fn from(e: crate::vfs::StorageFailure) -> Self {
        SessionError::Storage(e)
    }
}

impl From<CheckpointError> for SessionError {
    fn from(e: CheckpointError) -> Self {
        SessionError::Checkpoint(e)
    }
}

/// How a finished session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionStatus {
    /// Ran to a repair or to its iteration cap.
    Completed,
    /// Halted at a round barrier because its tenant's budget ran out; the
    /// checkpoint in `session.json` is retained for a later resume.
    BudgetExhausted,
}

/// The durable per-session result (`report.json`). Contains no wall-clock
/// fields, so it is byte-deterministic like the trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// Schema tag ([`REPORT_SCHEMA`]).
    pub schema: String,
    /// Job id.
    pub job_id: String,
    /// Owning tenant.
    pub tenant: String,
    /// How the session ended.
    pub status: SessionStatus,
    /// Update cycles executed (absolute).
    pub iterations: usize,
    /// Probes issued (absolute).
    pub probes: u64,
    /// Session cost at the end.
    pub cost: CostSnapshot,
    /// Convenience flag: was a repair found?
    pub repaired: bool,
    /// Full outcome for completed sessions (`None` when budget-exhausted).
    pub outcome: Option<RepairOutcome>,
}

impl SessionReport {
    fn completed(job: &JobSpec, outcome: RepairOutcome) -> Self {
        SessionReport {
            schema: REPORT_SCHEMA.into(),
            job_id: job.id.clone(),
            tenant: job.tenant.clone(),
            status: SessionStatus::Completed,
            iterations: outcome.iterations,
            probes: outcome.probes,
            cost: outcome.cost,
            repaired: outcome.is_repaired(),
            outcome: Some(outcome),
        }
    }

    fn budget_exhausted(job: &JobSpec, ck: &Checkpoint) -> Self {
        SessionReport {
            schema: REPORT_SCHEMA.into(),
            job_id: job.id.clone(),
            tenant: job.tenant.clone(),
            status: SessionStatus::BudgetExhausted,
            iterations: ck.iteration,
            probes: ck.probes,
            cost: ck.cost,
            repaired: false,
            outcome: None,
        }
    }

    /// Canonical single-line JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }

    /// Parse a report document.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

/// Durable post-mortem of a quarantined session (`quarantine.json`).
///
/// Written atomically beside the retained checkpoint when a session is
/// quarantined; contains no wall-clock fields. A later
/// [`SessionRunner::open`] under a working disk removes it and resumes
/// the session from its last durable checkpoint (re-arm).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// Schema tag ([`QUARANTINE_SCHEMA`]).
    pub schema: String,
    /// Job id.
    pub job_id: String,
    /// Owning tenant.
    pub tenant: String,
    /// Failure class: `storage`, `panic`, `io`, `checkpoint`, `corrupt`,
    /// or `intractable`.
    pub kind: String,
    /// The storage operation that failed, for `storage` failures.
    pub op: Option<String>,
    /// The path it failed on, for `storage` failures.
    pub path: Option<String>,
    /// Attempts made (original + retries; 1 for non-storage failures).
    pub attempts: u32,
    /// The error chain, first attempt to last.
    pub errors: Vec<String>,
    /// Update cycles in the last checkpoint the session believed durable.
    pub last_checkpoint_iteration: Option<usize>,
    /// `trace.jsonl` bytes the last durable `session.json` vouches for —
    /// exactly where a re-armed resume restarts from.
    pub last_durable_trace_len: u64,
}

impl QuarantineRecord {
    /// Canonical single-line JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("quarantine record serializes")
    }

    /// Parse a quarantine document.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

/// Durable between-slice state (`session.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SessionMeta {
    version: u32,
    job_id: String,
    /// Logical trace bytes (sum over segments) this checkpoint vouches for.
    trace_len: u64,
    /// Per-segment durable lengths (segment index — `trace.jsonl`,
    /// `trace.001.jsonl`, …), present when the session has ever rotated.
    /// Omitted for single-segment sessions, whose metas stay byte-identical
    /// to the pre-rotation format; readers then treat `trace_len` as the
    /// length of segment 0.
    segments: Option<Vec<u64>>,
    checkpoint: Checkpoint,
}

impl SessionMeta {
    /// The durable per-segment lengths this meta vouches for.
    fn segment_lens(&self) -> Vec<u64> {
        match &self.segments {
            Some(s) => s.clone(),
            None if self.trace_len > 0 => vec![self.trace_len],
            None => Vec::new(),
        }
    }
}

/// One session under daemon management.
#[derive(Debug)]
pub struct SessionRunner {
    job: JobSpec,
    dir: PathBuf,
    data: Arc<ScenarioData>,
    config: MwRepairConfig,
    vfs: Arc<dyn Vfs>,
    retry: RetryPolicy,
    checkpoint: Option<Checkpoint>,
    /// Rotate the trace into a new segment once the current one reaches
    /// this many bytes (`None`: one unbounded `trace.jsonl`, the
    /// pre-rotation behaviour).
    segment_cap: Option<u64>,
    /// Current on-disk length of every trace segment, in segment order.
    /// The logical trace is their in-order concatenation.
    segments: Vec<u64>,
    /// Logical trace bytes (sum of `segments`).
    trace_len: u64,
    /// Trace bytes the last durable `session.json` / `report.json` write
    /// vouches for (`trace_len` may run ahead when a later write failed).
    durable_trace_len: u64,
    report: Option<SessionReport>,
    /// Report was already on disk when the session was opened (a previous
    /// daemon run finished it) — excluded from this run's latency stats.
    preexisting: bool,
    error: Option<SessionError>,
    quarantine: Option<QuarantineRecord>,
    /// Storage retries performed on this session's behalf.
    io_retries: u64,
    /// Artifacts staged in the current durability epoch.
    staged: EpochStage,
    /// Wall-clock from daemon start to the completion barrier, filled in
    /// by the daemon. Summary-only: never written into the work dir.
    pub(crate) wall_ms: Option<f64>,
}

/// Slice artifacts staged during one durability epoch: bytes written
/// since the last commit that are not yet durable and not yet vouched
/// for. The barrier makes `appends` and the `<doc>.tmp` files durable in
/// one batched pass; `publish_epoch` then renames the staged replaces
/// into place and promotes checkpoint/report state.
#[derive(Debug, Default)]
struct EpochStage {
    /// Trace segments this epoch appended to (barrier sync targets).
    appends: Vec<PathBuf>,
    /// Final paths of staged atomic replaces, in commit order; each has
    /// a written-but-unsynced `<path>.tmp` until the barrier.
    docs: Vec<PathBuf>,
    /// Files to remove once the staged replaces have committed (the
    /// spent `session.json` after a completion).
    removals: Vec<PathBuf>,
    /// Staged `session.json` vouch: `(trace_len, checkpoint)` to promote
    /// into `durable_trace_len` / `checkpoint` at commit.
    meta: Option<(u64, Checkpoint)>,
    /// Staged completion report, promoted at commit.
    report: Option<SessionReport>,
}

impl EpochStage {
    fn is_empty(&self) -> bool {
        self.appends.is_empty() && self.docs.is_empty() && self.removals.is_empty()
    }
}

impl SessionRunner {
    /// Open (or re-open) the session on the real filesystem with the
    /// default retry policy. See [`SessionRunner::open_on`].
    pub fn open(
        job: JobSpec,
        data: Arc<ScenarioData>,
        workdir: &Path,
    ) -> Result<Self, SessionError> {
        Self::open_on(
            job,
            data,
            workdir,
            Arc::new(RealVfs),
            RetryPolicy::default(),
        )
    }

    /// [`SessionRunner::open_on`] with trace rotation: once the current
    /// trace segment reaches `segment_cap` bytes, the next slice's events
    /// append to a fresh `trace.NNN.jsonl` segment. The in-order
    /// concatenation of all segments is byte-identical to the single
    /// `trace.jsonl` an uncapped session writes.
    pub fn open_with(
        job: JobSpec,
        data: Arc<ScenarioData>,
        workdir: &Path,
        vfs: Arc<dyn Vfs>,
        retry: RetryPolicy,
        segment_cap: Option<u64>,
    ) -> Result<Self, SessionError> {
        let mut runner = Self::open_on(job, data, workdir, vfs, retry)?;
        runner.segment_cap = segment_cap.map(|c| c.max(1));
        Ok(runner)
    }

    /// Open (or re-open) the session rooted at
    /// `workdir/tenants/<tenant>/<job-id>/` through `vfs`, reconciling any
    /// on-disk state from a previous daemon run: a report means the
    /// session is done; a `session.json` resumes from its checkpoint
    /// after truncating the trace to the recorded length; a
    /// `quarantine.json` without a report is cleared (re-arm); orphaned
    /// `*.tmp` staging files from crashed atomic writes are swept.
    ///
    /// Always returns `Ok`: reconciliation failures are latched into the
    /// runner (the disk may be mid-tantrum), so the daemon quarantines
    /// the one affected session at its first barrier instead of refusing
    /// the whole batch.
    pub fn open_on(
        job: JobSpec,
        data: Arc<ScenarioData>,
        workdir: &Path,
        vfs: Arc<dyn Vfs>,
        retry: RetryPolicy,
    ) -> Result<Self, SessionError> {
        let dir = workdir.join("tenants").join(&job.tenant).join(&job.id);
        let mut config = MwRepairConfig::seeded(job.seed);
        config.max_iterations = job.max_iterations;
        let mut runner = SessionRunner {
            job,
            dir,
            data,
            config,
            vfs,
            retry,
            checkpoint: None,
            segment_cap: None,
            segments: Vec::new(),
            trace_len: 0,
            durable_trace_len: 0,
            report: None,
            preexisting: false,
            error: None,
            quarantine: None,
            io_retries: 0,
            staged: EpochStage::default(),
            wall_ms: None,
        };
        if let Err(e) = runner.reconcile_disk() {
            runner.error = Some(e);
        }
        Ok(runner)
    }

    /// Bring in-memory state in line with whatever a previous run (or
    /// crash) left on disk.
    fn reconcile_disk(&mut self) -> Result<(), SessionError> {
        let dir = self.dir.clone();
        self.retrying(StorageOp::CreateDir, &dir, |vfs| vfs.create_dir_all(&dir))?;

        // Startup sweep: a crash between "write <doc>.tmp" and "rename"
        // strands a partial tmp file; remove them so a poisoned tmp can
        // never shadow (or be mistaken for) the real document.
        for doc in [self.meta_path(), self.report_path(), self.quarantine_path()] {
            let tmp = tmp_path(&doc);
            if self.vfs.exists(&tmp) {
                self.retrying(StorageOp::Remove, &tmp, |vfs| vfs.remove_file(&tmp))?;
            }
        }

        if self.vfs.exists(&self.report_path()) {
            let path = self.report_path();
            let bytes = self.retrying(StorageOp::Read, &path, |vfs| vfs.read(&path))?;
            let text = String::from_utf8_lossy(&bytes);
            let report = SessionReport::from_json(text.trim())
                .map_err(|e| SessionError::Corrupt(format!("report.json: {e}")))?;
            if report.job_id != self.job.id {
                return Err(SessionError::Corrupt(format!(
                    "report.json belongs to job {:?}, expected {:?}",
                    report.job_id, self.job.id
                )));
            }
            self.report = Some(report);
            self.preexisting = true;
            // Heal leftovers a hostile disk blocked the completing run
            // from removing: the report is terminal, nothing else counts.
            let stale = self.quarantine_path();
            if self.vfs.exists(&stale) {
                self.retrying(StorageOp::Remove, &stale, |vfs| vfs.remove_file(&stale))?;
            }
            // Recover segment lengths from disk so the session knows its
            // whole rotated trace (the report is written only after every
            // trace byte landed durably, so on-disk lengths are exact).
            let mut segs = Vec::new();
            for i in 0.. {
                let seg = self.trace_segment_path(i);
                if !self.vfs.exists(&seg) {
                    break;
                }
                segs.push(self.retrying(StorageOp::Len, &seg, |vfs| vfs.file_len(&seg))?);
            }
            self.trace_len = segs.iter().sum();
            self.durable_trace_len = self.trace_len;
            self.segments = segs;
            return Ok(());
        }

        // A post-mortem without a report: the session was quarantined.
        // Re-opening is the re-arm — clear it and resume from the
        // checkpoint as if the hostile disk had never interfered.
        let quarantine = self.quarantine_path();
        if self.vfs.exists(&quarantine) {
            self.retrying(StorageOp::Remove, &quarantine, |vfs| {
                vfs.remove_file(&quarantine)
            })?;
        }

        if self.vfs.exists(&self.meta_path()) {
            let path = self.meta_path();
            let bytes = self.retrying(StorageOp::Read, &path, |vfs| vfs.read(&path))?;
            let text = String::from_utf8_lossy(&bytes);
            let meta: SessionMeta = serde_json::from_str(text.trim())
                .map_err(|e| SessionError::Corrupt(format!("session.json: {e}")))?;
            if meta.version != META_VERSION {
                return Err(SessionError::Corrupt(format!(
                    "session.json version {} (this build writes {META_VERSION})",
                    meta.version
                )));
            }
            if meta.job_id != self.job.id {
                return Err(SessionError::Corrupt(format!(
                    "session.json belongs to job {:?}, expected {:?}",
                    meta.job_id, self.job.id
                )));
            }
            let durable = meta.segment_lens();
            if durable.iter().sum::<u64>() != meta.trace_len {
                return Err(SessionError::Corrupt(format!(
                    "session.json segment lengths {:?} do not sum to trace_len {}",
                    durable, meta.trace_len
                )));
            }
            // Per segment: drop any bytes a torn slice appended after the
            // last durable meta write; the re-run slice re-appends them
            // identically. Segments past the durable index are wholly
            // torn (rotation raced the crash) and are deleted outright.
            for (i, &len) in durable.iter().enumerate() {
                let seg = self.trace_segment_path(i);
                let on_disk = self.retrying(StorageOp::Len, &seg, |vfs| vfs.file_len(&seg))?;
                if on_disk < len {
                    return Err(SessionError::Corrupt(format!(
                        "{} is {on_disk} bytes but session.json recorded {len}",
                        seg.display()
                    )));
                }
                self.retrying(StorageOp::Truncate, &seg, |vfs| {
                    vfs.truncate_sync(&seg, len)
                })?;
            }
            self.remove_segments_from(durable.len().max(1))?;
            if durable.is_empty() {
                // A zero-length durable trace still pins segment 0 empty.
                let seg = self.trace_path();
                self.retrying(StorageOp::Truncate, &seg, |vfs| vfs.truncate_sync(&seg, 0))?;
            }
            self.segments = durable;
            self.trace_len = meta.trace_len;
            self.durable_trace_len = meta.trace_len;
            self.checkpoint = Some(meta.checkpoint);
        } else {
            // Fresh session (or a crash before the first meta write):
            // the trace restarts from byte zero, with no stray segments.
            // An absent or already-empty trace needs no truncate — and no
            // fsync: nothing vouches for byte zero, so a crash here just
            // re-runs this same reconciliation.
            let trace = self.trace_path();
            if self.retrying(StorageOp::Len, &trace, |vfs| vfs.file_len(&trace))? > 0 {
                self.retrying(StorageOp::Truncate, &trace, |vfs| {
                    vfs.truncate_sync(&trace, 0)
                })?;
            }
            self.remove_segments_from(1)?;
        }
        Ok(())
    }

    /// Delete every on-disk trace segment with index ≥ `from` (segments
    /// are created in order, so stop at the first gap).
    fn remove_segments_from(&mut self, from: usize) -> Result<(), SessionError> {
        for i in from.max(1).. {
            let seg = self.trace_segment_path(i);
            if !self.vfs.exists(&seg) {
                break;
            }
            self.retrying(StorageOp::Remove, &seg, |vfs| vfs.remove_file(&seg))?;
        }
        Ok(())
    }

    /// Run `f` against the session's vfs under the retry policy, counting
    /// retries toward this session's `io_retries`.
    fn retrying<T>(
        &mut self,
        op: StorageOp,
        path: &Path,
        mut f: impl FnMut(&dyn Vfs) -> std::io::Result<T>,
    ) -> Result<T, SessionError> {
        let vfs = Arc::clone(&self.vfs);
        let policy = self.retry;
        with_retries(&policy, op, path, &mut self.io_retries, || f(vfs.as_ref()))
            .map_err(SessionError::Storage)
    }

    /// The job this session runs.
    pub fn job(&self) -> &JobSpec {
        &self.job
    }

    /// Session directory (`tenants/<tenant>/<job-id>/`).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Still has work to do (no report, no error, not quarantined)?
    pub fn is_active(&self) -> bool {
        self.report.is_none() && self.error.is_none() && self.quarantine.is_none()
    }

    /// The durable report, once the session finished.
    pub fn report(&self) -> Option<&SessionReport> {
        self.report.as_ref()
    }

    /// The quarantine post-mortem, if this session was quarantined.
    pub fn quarantine(&self) -> Option<&QuarantineRecord> {
        self.quarantine.as_ref()
    }

    /// Storage retries performed on this session's behalf.
    pub fn io_retries(&self) -> u64 {
        self.io_retries
    }

    /// Did this daemon run finish the session (vs. a previous one)?
    pub fn completed_this_run(&self) -> bool {
        self.report.is_some() && !self.preexisting
    }

    /// Completion latency recorded by the daemon, if it finished this run.
    pub fn wall_ms(&self) -> Option<f64> {
        self.wall_ms
    }

    /// Take the first error this session hit, if any.
    pub fn take_error(&mut self) -> Option<SessionError> {
        self.error.take()
    }

    /// Latch an error raised on this session's behalf outside a slice
    /// (e.g. a budget-report write failure); the next barrier
    /// quarantines it.
    pub(crate) fn latch(&mut self, error: SessionError) {
        if self.error.is_none() {
            self.error = Some(error);
        }
    }

    /// The session's cost so far: the report's total when finished, else
    /// the last checkpoint's snapshot, else zero. Deterministic — this is
    /// the quantity tenant budgets sum at round barriers. The checkpoint
    /// only advances after a durable `session.json` write, so a slice
    /// that failed to persist is never charged.
    pub fn cost(&self) -> CostSnapshot {
        if let Some(r) = &self.report {
            return r.cost;
        }
        if let Some(ck) = &self.checkpoint {
            return ck.cost;
        }
        CostSnapshot {
            fitness_evals: 0,
            simulated_ms: 0,
            critical_path_ms: 0,
        }
    }

    /// Run one slice of at most `slice_iterations` update cycles, staging
    /// its trace bytes and checkpoint (or report) for the next
    /// [`commit_epoch`]. Errors are latched into the runner (this is
    /// called inside a parallel region); the daemon surfaces them at the
    /// next barrier.
    pub fn run_slice(&mut self, slice_iterations: usize) {
        if !self.is_active() {
            return;
        }
        let _span = mwu_core::prof::span(mwu_core::prof::Phase::SliceRun);
        if let Err(e) = self.try_slice(slice_iterations.max(1)) {
            self.error = Some(e);
        }
    }

    /// Latch a panic caught by the daemon's `catch_unwind` around this
    /// session's slice; the next barrier quarantines it. The runner's
    /// in-memory state may be mid-slice garbage afterwards, but nothing
    /// durable advanced (persistence is crash-ordered), so the retained
    /// checkpoint still resumes byte-identically.
    pub fn latch_panic(&mut self, payload: Box<dyn std::any::Any + Send>) {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        self.error = Some(SessionError::Panicked(message));
    }

    /// If an error is latched, quarantine the session: build the
    /// [`QuarantineRecord`], write `quarantine.json` atomically
    /// (best-effort — the disk that broke the session may refuse the
    /// post-mortem too; the in-memory record still reaches the summary),
    /// and deactivate the session while retaining its durable checkpoint.
    /// Returns `true` if a quarantine happened.
    pub fn quarantine_if_failed(&mut self) -> bool {
        let Some(error) = self.error.take() else {
            return false;
        };
        let (kind, op, path, attempts, errors) = match &error {
            SessionError::Storage(f) => (
                "storage",
                Some(f.op.name().to_string()),
                Some(f.path.clone()),
                f.attempts,
                f.errors.clone(),
            ),
            SessionError::Panicked(m) => ("panic", None, None, 1, vec![m.clone()]),
            SessionError::Io(e) => ("io", None, None, 1, vec![e.to_string()]),
            SessionError::Checkpoint(e) => ("checkpoint", None, None, 1, vec![e.to_string()]),
            SessionError::Corrupt(m) => ("corrupt", None, None, 1, vec![m.clone()]),
            SessionError::Intractable(m) => ("intractable", None, None, 1, vec![m.clone()]),
        };
        let record = QuarantineRecord {
            schema: QUARANTINE_SCHEMA.into(),
            job_id: self.job.id.clone(),
            tenant: self.job.tenant.clone(),
            kind: kind.into(),
            op,
            path,
            attempts,
            errors,
            last_checkpoint_iteration: self.checkpoint.as_ref().map(|c| c.iteration),
            last_durable_trace_len: self.durable_trace_len,
        };
        let mut doc = record.to_json();
        doc.push('\n');
        let target = self.quarantine_path();
        let vfs = Arc::clone(&self.vfs);
        let policy = self.retry;
        // catch_unwind: the same bug that panicked the session may live
        // in the persistence path itself — a quarantine must never be
        // able to take the daemon down with it.
        let mut retries = self.io_retries;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = with_retries(
                &policy,
                StorageOp::AtomicWrite,
                &target,
                &mut retries,
                || vfs.write_atomic(&target, doc.as_bytes()),
            );
        }));
        self.io_retries = retries;
        self.report = None;
        self.quarantine = Some(record);
        true
    }

    fn try_slice(&mut self, slice: usize) -> Result<(), SessionError> {
        let arms = effective_arms(self.data.pool.len(), &self.config);
        match self.job.algorithm {
            VariantChoice::Standard => {
                self.drive(StandardMwu::new(arms, StandardConfig::default()), slice)
            }
            VariantChoice::Slate => self.drive(SlateMwu::new(arms, SlateConfig::default()), slice),
            VariantChoice::Distributed => {
                let alg = DistributedMwu::try_new(arms, DistributedConfig::default())
                    .map_err(|e| SessionError::Intractable(e.to_string()))?;
                self.drive(alg, slice)
            }
        }
    }

    fn drive<A>(&mut self, mut alg: A, slice: usize) -> Result<(), SessionError>
    where
        A: MwuAlgorithm + Serialize + Deserialize,
    {
        // Fresh per-slice ledger; repair_resumable restores it from the
        // checkpoint when resuming, so totals stay absolute.
        let ledger = CostLedger::new();
        let mut sink = JsonlSink::new(Vec::new());
        let result = repair_resumable(
            &self.data.scenario,
            &self.data.pool,
            &mut alg,
            &self.config,
            Some(&ledger),
            &mut sink,
            Some(slice),
            self.checkpoint.as_ref(),
        )?;
        self.append_trace(&sink.into_inner())?;
        match result {
            SessionResult::Halted { checkpoint } => {
                let meta = SessionMeta {
                    version: META_VERSION,
                    job_id: self.job.id.clone(),
                    trace_len: self.trace_len,
                    // Single-segment sessions omit the list so their metas
                    // stay byte-identical to the pre-rotation format.
                    segments: (self.segments.len() > 1).then(|| self.segments.clone()),
                    checkpoint: *checkpoint,
                };
                let mut doc = serde_json::to_string(&meta).expect("meta serializes");
                doc.push('\n');
                let path = self.meta_path();
                let _span = mwu_core::prof::span(mwu_core::prof::Phase::SessionReplace);
                // Stage the vouch: the tmp is written now, but the rename
                // (and the checkpoint promotion that lets budgets charge
                // this slice) waits for the barrier that makes the trace
                // bytes it vouches for durable.
                self.retrying(StorageOp::AtomicWrite, &path, |vfs| {
                    vfs.write_atomic_deferred(&path, doc.as_bytes())
                })?;
                self.staged.docs.push(path);
                self.staged.meta = Some((meta.trace_len, meta.checkpoint));
            }
            SessionResult::Complete(outcome) => {
                let report = SessionReport::completed(&self.job, outcome);
                let mut doc = report.to_json();
                doc.push('\n');
                let path = self.report_path();
                self.retrying(StorageOp::AtomicWrite, &path, |vfs| {
                    vfs.write_atomic_deferred(&path, doc.as_bytes())
                })?;
                self.staged.docs.push(path);
                // The checkpoint is spent once the report publishes; its
                // absence (with a report present) is unambiguous on reload.
                self.staged.removals.push(self.meta_path());
                self.staged.report = Some(report);
            }
        }
        Ok(())
    }

    /// Paths whose staged bytes this epoch's barrier must make durable:
    /// the trace segments appended to plus the `<doc>.tmp` of every
    /// staged atomic replace.
    fn staged_sync_paths(&self) -> Vec<PathBuf> {
        let mut paths = self.staged.appends.clone();
        paths.extend(self.staged.docs.iter().map(|d| tmp_path(d)));
        paths
    }

    /// Re-run one staged path's barrier sync individually after the
    /// batched pass failed for it, under the session's retry policy.
    /// Exhaustion latches the error: the next barrier quarantines this
    /// session alone, without aborting the rest of the epoch.
    fn retry_staged_sync(&mut self, path: &Path) {
        if self.error.is_some() {
            return;
        }
        let p = path.to_path_buf();
        if let Err(e) = self.retrying(StorageOp::SyncFile, &p, |vfs| vfs.sync_file(&p)) {
            self.latch(e);
        }
    }

    /// Publish the current durability epoch after the barrier made its
    /// staged bytes durable: rename `<doc>.tmp` over `<doc>`, apply
    /// staged removals, then promote the staged checkpoint/report — the
    /// order that keeps the vouch contract (no `session.json` durable
    /// before its trace bytes). Removals go through the retry path so a
    /// hostile disk can't silently leave stale state: exhaustion
    /// quarantines, and the next fault-free open heals the leftovers.
    /// Sessions with a latched error discard their stage instead:
    /// `durable_trace_len` stays at the last vouched value, so the
    /// quarantine post-mortem and a later re-arm see exactly the durable
    /// prefix. No-op when nothing is staged.
    fn publish_epoch(&mut self) {
        let stage = std::mem::take(&mut self.staged);
        if stage.is_empty() || self.error.is_some() {
            return;
        }
        for doc in &stage.docs {
            if let Err(e) = self.retrying(StorageOp::Rename, doc, |vfs| vfs.commit_atomic(doc)) {
                self.latch(e);
                return;
            }
        }
        for path in &stage.removals {
            if self.vfs.exists(path) {
                if let Err(e) = self.retrying(StorageOp::Remove, path, |vfs| vfs.remove_file(path))
                {
                    self.latch(e);
                    return;
                }
            }
        }
        if let Some((trace_len, checkpoint)) = stage.meta {
            self.durable_trace_len = trace_len;
            self.checkpoint = Some(checkpoint);
        }
        if let Some(report) = stage.report {
            self.durable_trace_len = self.trace_len;
            self.report = Some(report);
        }
    }

    /// Finish the session as budget-exhausted: write the durable report
    /// from the last checkpoint, which stays on disk so the session can be
    /// resumed after a budget raise (delete `report.json` to re-arm it).
    pub fn finish_budget_exhausted(&mut self) -> Result<(), SessionError> {
        if self.report.is_some() {
            return Ok(());
        }
        let ck = self.checkpoint.as_ref().ok_or_else(|| {
            SessionError::Corrupt("budget halt before any slice completed".into())
        })?;
        let report = SessionReport::budget_exhausted(&self.job, ck);
        let mut doc = report.to_json();
        doc.push('\n');
        let path = self.report_path();
        self.retrying(StorageOp::AtomicWrite, &path, |vfs| {
            vfs.write_atomic(&path, doc.as_bytes())
        })?;
        self.report = Some(report);
        Ok(())
    }

    /// Path of the session's JSONL trace — segment 0. Rotated sessions
    /// continue in the numbered segments of [`SessionRunner::trace_segment_path`].
    pub fn trace_path(&self) -> PathBuf {
        self.dir.join("trace.jsonl")
    }

    /// Path of trace segment `i`: segment 0 is `trace.jsonl` (so uncapped
    /// sessions are laid out exactly as before rotation existed), later
    /// segments are `trace.001.jsonl`, `trace.002.jsonl`, …
    pub fn trace_segment_path(&self, i: usize) -> PathBuf {
        if i == 0 {
            self.trace_path()
        } else {
            self.dir.join(format!("trace.{i:03}.jsonl"))
        }
    }

    /// Paths of every trace segment the session currently has bytes in,
    /// in concatenation order.
    #[cfg(test)]
    fn trace_segment_paths(&self) -> Vec<PathBuf> {
        (0..self.segments.len().max(1))
            .map(|i| self.trace_segment_path(i))
            .collect()
    }

    /// Read the logical trace: the in-order concatenation of all segments.
    /// Byte-identical to the single `trace.jsonl` of an uncapped run.
    #[cfg(test)]
    fn read_trace(&mut self) -> Result<Vec<u8>, SessionError> {
        let mut out = Vec::new();
        for i in 0..self.segments.len().max(1) {
            let seg = self.trace_segment_path(i);
            if !self.vfs.exists(&seg) {
                continue;
            }
            let bytes = self.retrying(StorageOp::Read, &seg, |vfs| vfs.read(&seg))?;
            out.extend_from_slice(&bytes);
        }
        Ok(out)
    }

    /// Path of the session's durable report.
    pub fn report_path(&self) -> PathBuf {
        self.dir.join("report.json")
    }

    /// Path of the session's quarantine post-mortem.
    pub fn quarantine_path(&self) -> PathBuf {
        self.dir.join("quarantine.json")
    }

    fn meta_path(&self) -> PathBuf {
        self.dir.join("session.json")
    }

    fn append_trace(&mut self, bytes: &[u8]) -> Result<(), SessionError> {
        if bytes.is_empty() {
            return Ok(());
        }
        let _span = mwu_core::prof::span(mwu_core::prof::Phase::TraceAppend);
        // Rotation rule: a slice's bytes land wholly in the current (last)
        // segment; once a segment has reached the cap, the *next* append
        // opens a fresh one. Boundaries are therefore a pure function of
        // the durable per-segment lengths — a resumed session re-derives
        // them identically from `session.json`.
        if self.segments.is_empty() {
            self.segments.push(0);
        }
        let last = self.segments.len() - 1;
        let target = match self.segment_cap {
            Some(cap) if self.segments[last] >= cap => {
                self.segments.push(0);
                last + 1
            }
            _ => last,
        };
        let path = self.trace_segment_path(target);
        let expect = self.segments[target];
        let mut first = true;
        self.retrying(StorageOp::Append, &path, |vfs| {
            // A failed attempt may have persisted a torn prefix; restore
            // the file to the known-good length before re-appending so
            // every retry writes the identical bytes at the identical
            // offset.
            if !first {
                vfs.truncate_sync(&path, expect)?;
            }
            first = false;
            vfs.append_deferred(&path, bytes)
        })?;
        self.staged.appends.push(path);
        self.segments[target] += bytes.len() as u64;
        self.trace_len += bytes.len() as u64;
        Ok(())
    }
}

/// Commit one durability epoch over `sessions`, which write through one
/// shared vfs (a daemon's sessions do; a standalone runner commits an
/// epoch of one): a single batched [`Vfs::sync_barrier`] makes every
/// session's staged bytes — trace appends and the `<doc>.tmp` of staged
/// replaces — durable, then each session renames its staged documents
/// into place and promotes its checkpoint/report. The two-phase order
/// *is* the crash contract: no `session.json` (or `report.json`) becomes
/// visible before the trace bytes it vouches for are durable. A path the
/// batched pass fails is retried individually through its owning
/// session's budget; exhaustion quarantines that session alone, and the
/// epoch commits for everyone else.
///
/// Where barriers use `syncfs` (linux/x86_64) the renames become durable
/// at the next barrier (its `syncfs`, or the per-file fallback, which
/// fsyncs their directories), and whoever commits the last epoch issues
/// one more barrier over the work directory (the daemon's end-of-run
/// flush); elsewhere `commit_atomic` fsyncs each rename's directory
/// itself.
///
/// Returns the number of staged paths handed to the barrier and the
/// barrier's wall-clock in milliseconds (the batched pass plus per-path
/// retries), or `None` when nothing was staged and no barrier ran.
pub fn commit_epoch(sessions: &mut [SessionRunner]) -> Option<(usize, f64)> {
    let mut flat: Vec<PathBuf> = Vec::new();
    let mut owner: Vec<usize> = Vec::new();
    for (i, s) in sessions.iter().enumerate() {
        if !s.is_active() {
            continue; // errored slices discard their stage at publish
        }
        for p in s.staged_sync_paths() {
            flat.push(p);
            owner.push(i);
        }
    }
    let mut barrier = None;
    if let Some(&first) = owner.first() {
        let start = Instant::now();
        let vfs = Arc::clone(&sessions[first].vfs);
        for (k, result) in vfs.sync_barrier(&flat).into_iter().enumerate() {
            if result.is_err() {
                sessions[owner[k]].retry_staged_sync(&flat[k]);
            }
        }
        barrier = Some((flat.len(), start.elapsed().as_secs_f64() * 1e3));
    }
    for s in sessions.iter_mut() {
        s.publish_epoch();
    }
    barrier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ScenarioSpec;
    use crate::vfs::{FaultVfs, StorageFaultConfig, StorageFaultPlan};
    use std::io::Write;

    fn test_job(id: &str) -> JobSpec {
        JobSpec {
            id: id.into(),
            tenant: "t0".into(),
            scenario: ScenarioSpec::Synthetic {
                name: "session-test".into(),
                options: 24,
                x_star: 6,
                statements: 200,
                tests: 10,
                repair_rate: 0.0,
                world_seed: 5,
                pool_size: None,
            },
            algorithm: VariantChoice::Standard,
            seed: 11,
            max_iterations: 9,
        }
    }

    fn data_for(job: &JobSpec) -> Arc<ScenarioData> {
        let scenario = match &job.scenario {
            ScenarioSpec::Synthetic { .. } | ScenarioSpec::Catalog { .. } => {
                job.scenario.build().unwrap()
            }
        };
        let pool = scenario.build_pool(1, None);
        Arc::new(ScenarioData { scenario, pool })
    }

    fn tmp_workdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mwrd-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Run one slice and commit it as an epoch of one.
    fn step(s: &mut SessionRunner, slice: usize) {
        s.run_slice(slice);
        commit_epoch(std::slice::from_mut(s));
    }

    fn run_to_completion(workdir: &Path, job: &JobSpec, slice: usize) -> (Vec<u8>, String) {
        let data = data_for(job);
        let mut s = SessionRunner::open(job.clone(), data, workdir).unwrap();
        for _ in 0..1000 {
            if !s.is_active() {
                break;
            }
            step(&mut s, slice);
            if let Some(e) = s.take_error() {
                panic!("slice error: {e}");
            }
        }
        assert!(s.report().is_some(), "session did not finish");
        let trace = std::fs::read(s.trace_path()).unwrap();
        let report = std::fs::read_to_string(s.report_path()).unwrap();
        (trace, report)
    }

    #[test]
    fn sliced_trace_matches_uninterrupted_repair_observed() {
        let job = test_job("slice-eq");
        let data = data_for(&job);
        // Uninterrupted library-level run with a plain JSONL sink.
        let mut config = MwRepairConfig::seeded(job.seed);
        config.max_iterations = job.max_iterations;
        let arms = effective_arms(data.pool.len(), &config);
        let mut alg = StandardMwu::new(arms, StandardConfig::default());
        let mut sink = JsonlSink::new(Vec::new());
        mwrepair::repair_observed(
            &data.scenario,
            &data.pool,
            &mut alg,
            &config,
            None,
            &mut sink,
        );
        let reference = sink.into_inner();

        let workdir = tmp_workdir("slice-eq");
        let (trace, _) = run_to_completion(&workdir, &job, 2);
        assert_eq!(
            trace, reference,
            "sliced daemon trace differs from the uninterrupted library trace"
        );
        std::fs::remove_dir_all(&workdir).unwrap();
    }

    #[test]
    fn slice_size_does_not_change_trace_bytes() {
        let job = test_job("slice-size");
        let wa = tmp_workdir("slice-a");
        let wb = tmp_workdir("slice-b");
        let (ta, ra) = run_to_completion(&wa, &job, 2);
        let (tb, rb) = run_to_completion(&wb, &job, 7);
        assert_eq!(ta, tb);
        assert_eq!(ra, rb);
        std::fs::remove_dir_all(&wa).unwrap();
        std::fs::remove_dir_all(&wb).unwrap();
    }

    #[test]
    fn reopen_mid_flight_resumes_byte_identically() {
        let job = test_job("reopen");
        let reference_dir = tmp_workdir("reopen-ref");
        let (reference_trace, reference_report) = run_to_completion(&reference_dir, &job, 3);

        let workdir = tmp_workdir("reopen");
        let data = data_for(&job);
        // Two slices, then drop the runner (simulated daemon death).
        {
            let mut s = SessionRunner::open(job.clone(), Arc::clone(&data), &workdir).unwrap();
            step(&mut s, 3);
            step(&mut s, 3);
            assert!(s.is_active());
        }
        // Re-open and also simulate a torn post-meta append.
        {
            let trace_path = workdir
                .join("tenants")
                .join(&job.tenant)
                .join(&job.id)
                .join("trace.jsonl");
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&trace_path)
                .unwrap();
            f.write_all(b"{\"torn\":").unwrap();
        }
        let mut s = SessionRunner::open(job.clone(), data, &workdir).unwrap();
        while s.is_active() {
            step(&mut s, 3);
            assert!(s.take_error().is_none());
        }
        let trace = std::fs::read(s.trace_path()).unwrap();
        let report = std::fs::read_to_string(s.report_path()).unwrap();
        assert_eq!(trace, reference_trace, "resume changed the trace bytes");
        assert_eq!(report, reference_report);
        std::fs::remove_dir_all(&workdir).unwrap();
        std::fs::remove_dir_all(&reference_dir).unwrap();
    }

    #[test]
    fn reopen_after_completion_is_terminal() {
        let job = test_job("done");
        let workdir = tmp_workdir("done");
        let (_, report) = run_to_completion(&workdir, &job, 4);
        let data = data_for(&job);
        let s = SessionRunner::open(job.clone(), data, &workdir).unwrap();
        assert!(!s.is_active());
        assert!(!s.completed_this_run());
        assert_eq!(s.report().unwrap().to_json() + "\n", report);
        std::fs::remove_dir_all(&workdir).unwrap();
    }

    #[test]
    fn transient_faults_retry_to_byte_identical_completion() {
        let job = test_job("transient");
        let clean = tmp_workdir("transient-ref");
        let (reference_trace, reference_report) = run_to_completion(&clean, &job, 3);

        let workdir = tmp_workdir("transient");
        let data = data_for(&job);
        // 30% per-op EIO: with 10 retries allowed every op eventually
        // lands, and the bytes must not care that it took retries.
        // Slice of 1 maximizes op count (slice size is byte-invariant),
        // so the adversary is all but guaranteed to fire.
        let vfs = Arc::new(FaultVfs::new(StorageFaultPlan::new(
            41,
            StorageFaultConfig::eio(0.3),
        )));
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: 1,
        };
        let mut s =
            SessionRunner::open_on(job.clone(), data, &workdir, vfs.clone(), policy).unwrap();
        while s.is_active() {
            step(&mut s, 1);
            if let Some(e) = s.take_error() {
                panic!("retries should have absorbed the faults: {e}");
            }
        }
        assert!(vfs.injected_faults() > 0, "adversary never fired");
        assert!(s.io_retries() > 0, "no retries recorded");
        let trace = std::fs::read(s.trace_path()).unwrap();
        let report = std::fs::read_to_string(s.report_path()).unwrap();
        assert_eq!(trace, reference_trace);
        assert_eq!(report, reference_report);
        std::fs::remove_dir_all(&workdir).unwrap();
        std::fs::remove_dir_all(&clean).unwrap();
    }

    #[test]
    fn quarantine_then_rearm_completes_byte_identically() {
        let job = test_job("quarantine");
        let clean = tmp_workdir("quarantine-ref");
        let (reference_trace, reference_report) = run_to_completion(&clean, &job, 3);

        let workdir = tmp_workdir("quarantine");
        let data = data_for(&job);
        // Run two clean slices, then hand the session a disk hostile
        // enough to exhaust the (tiny) retry budget.
        {
            let mut s = SessionRunner::open(job.clone(), Arc::clone(&data), &workdir).unwrap();
            step(&mut s, 3);
            step(&mut s, 3);
            assert!(s.is_active());
        }
        let durable_len;
        {
            let vfs = Arc::new(FaultVfs::new(StorageFaultPlan::new(
                7,
                StorageFaultConfig::eio(0.95),
            )));
            let policy = RetryPolicy {
                max_attempts: 1,
                base_delay: 1,
            };
            let mut s =
                SessionRunner::open_on(job.clone(), Arc::clone(&data), &workdir, vfs, policy)
                    .unwrap();
            let mut guard = 0;
            while s.is_active() && guard < 100 {
                step(&mut s, 3);
                guard += 1;
            }
            assert!(s.quarantine_if_failed(), "a 95% adversary must fail it");
            let record = s.quarantine().unwrap();
            assert_eq!(record.schema, QUARANTINE_SCHEMA);
            assert_eq!(record.job_id, job.id);
            assert!(!record.errors.is_empty(), "post-mortem lost the chain");
            durable_len = record.last_durable_trace_len;
            assert!(!s.is_active(), "quarantined session must deactivate");
        }
        // Re-arm on a working disk: the post-mortem clears and the
        // session resumes from its durable checkpoint to the same bytes.
        let mut s = SessionRunner::open(job.clone(), data, &workdir).unwrap();
        assert!(s.is_active(), "re-open did not re-arm");
        while s.is_active() {
            step(&mut s, 3);
            assert!(s.take_error().is_none());
        }
        assert!(
            !s.quarantine_path().exists(),
            "quarantine.json survived re-arm"
        );
        let trace = std::fs::read(s.trace_path()).unwrap();
        assert!(durable_len <= trace.len() as u64);
        let report = std::fs::read_to_string(s.report_path()).unwrap();
        assert_eq!(trace, reference_trace, "re-armed trace bytes diverged");
        assert_eq!(report, reference_report);
        std::fs::remove_dir_all(&workdir).unwrap();
        std::fs::remove_dir_all(&clean).unwrap();
    }

    #[test]
    fn poisoned_tmp_files_never_shadow_a_resume() {
        let job = test_job("tmp-sweep");
        let clean = tmp_workdir("tmp-sweep-ref");
        let (reference_trace, reference_report) = run_to_completion(&clean, &job, 3);

        let workdir = tmp_workdir("tmp-sweep");
        let data = data_for(&job);
        {
            let mut s = SessionRunner::open(job.clone(), Arc::clone(&data), &workdir).unwrap();
            step(&mut s, 3);
            assert!(s.is_active());
        }
        // A crash mid-atomic-write strands partial tmp files; poison all
        // three staging names with garbage.
        let dir = workdir.join("tenants").join(&job.tenant).join(&job.id);
        for name in ["session.json.tmp", "report.json.tmp", "quarantine.json.tmp"] {
            std::fs::write(dir.join(name), b"{\"version\":9999,\"garbage").unwrap();
        }
        let mut s = SessionRunner::open(job.clone(), data, &workdir).unwrap();
        assert!(s.is_active(), "poisoned tmp derailed the resume");
        for name in ["session.json.tmp", "report.json.tmp", "quarantine.json.tmp"] {
            assert!(!dir.join(name).exists(), "{name} survived the sweep");
        }
        while s.is_active() {
            step(&mut s, 3);
            assert!(s.take_error().is_none());
        }
        let trace = std::fs::read(s.trace_path()).unwrap();
        let report = std::fs::read_to_string(s.report_path()).unwrap();
        assert_eq!(trace, reference_trace);
        assert_eq!(report, reference_report);
        std::fs::remove_dir_all(&workdir).unwrap();
        std::fs::remove_dir_all(&clean).unwrap();
    }

    #[test]
    fn checkpoint_of_another_version_is_quarantined() {
        let job = test_job("ck-version");
        let workdir = tmp_workdir("ck-version");
        let data = data_for(&job);
        {
            let mut s = SessionRunner::open(job.clone(), Arc::clone(&data), &workdir).unwrap();
            step(&mut s, 3);
            assert!(s.is_active());
        }
        // The meta's own version stays 1; only its embedded checkpoint
        // claims a format this build does not write.
        let dir = workdir.join("tenants").join(&job.tenant).join(&job.id);
        let meta = std::fs::read_to_string(dir.join("session.json")).unwrap();
        let bumped = meta.replace(
            "\"checkpoint\":{\"version\":1,",
            "\"checkpoint\":{\"version\":2,",
        );
        assert_ne!(bumped, meta, "no embedded checkpoint version to bump");
        std::fs::write(dir.join("session.json"), bumped).unwrap();
        let trace_before = std::fs::read(dir.join("trace.jsonl")).unwrap();

        let mut s = SessionRunner::open(job.clone(), data, &workdir).unwrap();
        assert!(s.is_active(), "the meta itself is valid");
        step(&mut s, 3);
        assert!(s.quarantine_if_failed(), "a version-2 checkpoint resumed");
        let record = s.quarantine().unwrap();
        assert_eq!(record.kind, "checkpoint");
        assert!(
            record.errors[0].contains("version 2"),
            "{:?}",
            record.errors
        );
        assert_eq!(record.last_durable_trace_len, trace_before.len() as u64);
        assert_eq!(
            std::fs::read(dir.join("trace.jsonl")).unwrap(),
            trace_before
        );
        std::fs::remove_dir_all(&workdir).unwrap();
    }

    /// Drive an `open_with`-rotated session to completion; returns the
    /// logical trace, the report, and the number of segments on disk.
    fn run_rotated_to_completion(
        workdir: &Path,
        job: &JobSpec,
        slice: usize,
        cap: u64,
    ) -> (Vec<u8>, String, usize) {
        let data = data_for(job);
        let mut s = SessionRunner::open_with(
            job.clone(),
            data,
            workdir,
            Arc::new(RealVfs),
            RetryPolicy::default(),
            Some(cap),
        )
        .unwrap();
        for _ in 0..1000 {
            if !s.is_active() {
                break;
            }
            step(&mut s, slice);
            if let Some(e) = s.take_error() {
                panic!("slice error: {e}");
            }
        }
        assert!(s.report().is_some(), "rotated session did not finish");
        let segments = s.trace_segment_paths().len();
        let trace = s.read_trace().unwrap();
        let report = std::fs::read_to_string(s.report_path()).unwrap();
        (trace, report, segments)
    }

    #[test]
    fn rotated_segments_concatenate_to_uncapped_trace() {
        let job = test_job("rot-concat");
        let ref_dir = tmp_workdir("rot-concat-ref");
        let (reference_trace, reference_report) = run_to_completion(&ref_dir, &job, 3);

        let workdir = tmp_workdir("rot-concat");
        let (trace, report, segments) = run_rotated_to_completion(&workdir, &job, 3, 200);
        assert!(
            segments >= 2,
            "a 200-byte cap must rotate this trace ({} bytes)",
            reference_trace.len()
        );
        assert_eq!(
            trace, reference_trace,
            "segment concatenation differs from the uncapped trace"
        );
        assert_eq!(report, reference_report);
        std::fs::remove_dir_all(&ref_dir).unwrap();
        std::fs::remove_dir_all(&workdir).unwrap();
    }

    #[test]
    fn uncapped_sessions_keep_the_single_file_layout() {
        // No cap => exactly the pre-rotation on-disk shape: one
        // trace.jsonl and no numbered segments.
        let job = test_job("rot-uncapped");
        let workdir = tmp_workdir("rot-uncapped");
        let _ = run_to_completion(&workdir, &job, 3);
        let dir = workdir.join("tenants").join(&job.tenant).join(&job.id);
        assert!(dir.join("trace.jsonl").exists());
        assert!(!dir.join("trace.001.jsonl").exists());
        std::fs::remove_dir_all(&workdir).unwrap();
    }

    #[test]
    fn rotation_kill_resume_rederives_boundaries() {
        let job = test_job("rot-resume");
        let ref_dir = tmp_workdir("rot-resume-ref");
        let (reference_trace, reference_report) = run_to_completion(&ref_dir, &job, 3);

        let workdir = tmp_workdir("rot-resume");
        let data = data_for(&job);
        let open = |cap: u64| {
            SessionRunner::open_with(
                job.clone(),
                Arc::clone(&data),
                &workdir,
                Arc::new(RealVfs),
                RetryPolicy::default(),
                Some(cap),
            )
            .unwrap()
        };
        // Two slices under a tiny cap, then drop mid-flight (daemon death).
        let last_segment = {
            let mut s = open(150);
            step(&mut s, 3);
            step(&mut s, 3);
            assert!(s.is_active());
            assert!(
                s.trace_segment_paths().len() >= 2,
                "kill must land after at least one rotation"
            );
            s.trace_segment_paths().last().unwrap().clone()
        };
        // Torn append past the durable boundary of the *last* segment.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&last_segment)
                .unwrap();
            f.write_all(b"{\"Iteration\":{\"torn").unwrap();
        }
        // Resume under a *different* cap: boundaries of existing segments
        // are re-derived from the durable lengths, new bytes follow the
        // new cap, and the logical concatenation still matches.
        let mut s = open(400);
        while s.is_active() {
            step(&mut s, 3);
            assert!(s.take_error().is_none());
        }
        assert_eq!(s.read_trace().unwrap(), reference_trace);
        assert_eq!(
            std::fs::read_to_string(s.report_path()).unwrap(),
            reference_report
        );
        std::fs::remove_dir_all(&ref_dir).unwrap();
        std::fs::remove_dir_all(&workdir).unwrap();
    }

    #[test]
    fn completed_rotated_session_reopens_with_full_trace() {
        let job = test_job("rot-done");
        let ref_dir = tmp_workdir("rot-done-ref");
        let (reference_trace, _) = run_to_completion(&ref_dir, &job, 3);

        let workdir = tmp_workdir("rot-done");
        let _ = run_rotated_to_completion(&workdir, &job, 3, 200);
        // A fresh daemon reopening the finished session must recover the
        // segment list from disk (the meta is gone once the report lands).
        let mut s = SessionRunner::open_with(
            job.clone(),
            data_for(&job),
            &workdir,
            Arc::new(RealVfs),
            RetryPolicy::default(),
            Some(200),
        )
        .unwrap();
        assert!(!s.is_active(), "completed session stays terminal");
        assert_eq!(s.read_trace().unwrap(), reference_trace);
        std::fs::remove_dir_all(&ref_dir).unwrap();
        std::fs::remove_dir_all(&workdir).unwrap();
    }

    #[test]
    fn rotation_under_transient_faults_is_byte_identical() {
        let job = test_job("rot-faults");
        let ref_dir = tmp_workdir("rot-faults-ref");
        let (reference_trace, reference_report) = run_to_completion(&ref_dir, &job, 2);

        let workdir = tmp_workdir("rot-faults");
        // 30% per-op EIO with generous retries: every op eventually
        // lands, and rotation must not care that it took retries.
        let plan = StorageFaultPlan::new(97, StorageFaultConfig::eio(0.3));
        let vfs = Arc::new(FaultVfs::rooted(plan, &workdir));
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: 1,
        };
        let mut s = SessionRunner::open_with(
            job.clone(),
            data_for(&job),
            &workdir,
            vfs,
            policy,
            Some(180),
        )
        .unwrap();
        for _ in 0..1000 {
            if !s.is_active() {
                break;
            }
            step(&mut s, 2);
            if let Some(e) = s.take_error() {
                panic!("retries should absorb this schedule: {e}");
            }
        }
        assert!(s.report().is_some());
        assert!(
            s.trace_segment_paths().len() >= 2,
            "cap must force rotation under faults too"
        );
        assert_eq!(s.read_trace().unwrap(), reference_trace);
        assert_eq!(
            std::fs::read_to_string(s.report_path()).unwrap(),
            reference_report
        );
        std::fs::remove_dir_all(&ref_dir).unwrap();
        std::fs::remove_dir_all(&workdir).unwrap();
    }
}
