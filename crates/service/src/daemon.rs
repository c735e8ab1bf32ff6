//! The `mwrepaird` daemon: job intake, round scheduling, and per-tenant
//! budget enforcement.
//!
//! A daemon owns a **work directory**. Jobs arrive as JSONL batches
//! ([`crate::protocol`]) — either handed to [`Daemon::submit_bytes`] or
//! found spooled in `<workdir>/jobs.jsonl` at [`Daemon::open`]. Every
//! accepted job becomes a [`SessionRunner`] rooted at
//! `<workdir>/tenants/<tenant>/<job-id>/`; [`Daemon::run`] first rewrites
//! the canonical spool (so a later daemon can reload the exact job set)
//! and then drives all sessions in rounds: each round runs one iteration
//! slice of every active session across the rayon pool, then — at the
//! round barrier — quarantines failed sessions, applies tenant budgets,
//! and records completion latencies.
//!
//! Scheduling is deterministic by construction: sessions share nothing
//! mutable (each has its own ledger, checkpoint, and trace file; cached
//! scenario pools are immutable), and budget decisions are made only at
//! barriers over commutative sums of the owning tenant's own session
//! costs. Thread count, session interleaving, and cooperative halts
//! therefore cannot change any session's trace or report bytes.
//!
//! ## Graceful degradation
//!
//! All storage flows through [`DaemonConfig::vfs`]; transient I/O
//! failures retry with bounded exponential backoff inside each session.
//! A session whose failure survives every retry — or that panics inside
//! the parallel shard (caught per-session via `catch_unwind`) — is
//! **quarantined** at the next round barrier: deactivated behind a
//! durable `quarantine.json` post-mortem with its checkpoint retained,
//! while every other session keeps running and keeps its fault-free
//! bytes. [`Daemon::run`] itself only errors on spool-level persistent
//! failures; it never panics or aborts on a per-session fault.

use crate::protocol::{parse_jobs, BudgetSpec, JobLine, JobSpec, ProtocolError};
use crate::session::{commit_epoch, ScenarioData, SessionError, SessionRunner, SessionStatus};
use crate::vfs::{with_retries, RealVfs, StorageFailure, StorageOp, Vfs};
use rayon::prelude::*;
use serde::Serialize;
use simnet::faults::RetryPolicy;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Schema tag of the summary document [`Daemon::run`] returns.
pub const SUMMARY_SCHEMA: &str = "mwrepaird-summary/v1";

/// Schema tag of the `metrics.json` exposition document.
pub const METRICS_SCHEMA: &str = "mwrepaird-metrics/v1";

/// Name of the canonical job spool inside the work directory.
pub const SPOOL_FILE: &str = "jobs.jsonl";

/// Name of the per-run metrics exposition file inside the work directory.
///
/// Unlike traces and reports this file carries wall-clock and is **not**
/// part of the byte-determinism contract; it is rewritten atomically at
/// the end of every [`Daemon::run`] and is purely advisory.
pub const METRICS_FILE: &str = "metrics.json";

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Work directory: spool, per-tenant session state, traces.
    pub workdir: PathBuf,
    /// Update cycles per session per round (min 1). Part of the
    /// determinism contract: the same jobs under a different slice length
    /// produce the same bytes, but checkpoint cadence — and therefore
    /// where a cooperative halt can land — differs.
    pub slice_iterations: usize,
    /// Cooperative kill: stop after this many rounds, leaving every
    /// unfinished session checkpointed and resumable.
    pub halt_after_rounds: Option<u64>,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
    /// The storage layer every byte goes through. [`RealVfs`] in
    /// production; a [`crate::vfs::FaultVfs`] under test/torture.
    pub vfs: Arc<dyn Vfs>,
    /// Retry policy for transient storage failures (bounded exponential
    /// backoff; exhaustion quarantines the affected session).
    pub retry: RetryPolicy,
    /// Rotate each session's trace into size-capped `trace.NNN.jsonl`
    /// segments once the current segment reaches this many bytes. `None`
    /// keeps the single-file layout. Rotation never splits a slice:
    /// concatenating the segments in order is byte-identical to the
    /// single-file trace, whatever the cap.
    pub trace_segment_bytes: Option<u64>,
}

impl DaemonConfig {
    /// Config with default knobs (slice of 16, no halt, progress on, the
    /// real filesystem, default retry policy).
    pub fn new(workdir: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            workdir: workdir.into(),
            slice_iterations: 16,
            halt_after_rounds: None,
            quiet: false,
            vfs: Arc::new(RealVfs),
            retry: RetryPolicy::default(),
            trace_segment_bytes: None,
        }
    }
}

/// Why the daemon refused a batch or gave up on a run.
#[derive(Debug)]
pub enum DaemonError {
    /// A JSONL batch failed to parse or validate.
    Protocol(ProtocolError),
    /// A well-formed line conflicts with daemon state (duplicate id with
    /// different content, conflicting budget, intractable variant, …).
    Rejected {
        /// Offending job id or tenant.
        id: String,
        /// What went wrong.
        message: String,
    },
    /// A session failed mid-run. (Per-session faults quarantine instead;
    /// this survives only for callers that drive sessions directly.)
    Session {
        /// The failing session's job id.
        job: String,
        /// The underlying failure.
        error: SessionError,
    },
    /// A daemon-level (spool / workdir) storage operation failed through
    /// every retry. Per-session storage failures quarantine instead.
    Storage(StorageFailure),
    /// Work-directory I/O failure outside any one session.
    Io(std::io::Error),
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Protocol(e) => write!(f, "{e}"),
            DaemonError::Rejected { id, message } => write!(f, "rejected {id:?}: {message}"),
            DaemonError::Session { job, error } => write!(f, "session {job:?}: {error}"),
            DaemonError::Storage(e) => write!(f, "spool storage failure: {e}"),
            DaemonError::Io(e) => write!(f, "work directory I/O error: {e}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<ProtocolError> for DaemonError {
    fn from(e: ProtocolError) -> Self {
        DaemonError::Protocol(e)
    }
}

impl From<std::io::Error> for DaemonError {
    fn from(e: std::io::Error) -> Self {
        DaemonError::Io(e)
    }
}

impl From<StorageFailure> for DaemonError {
    fn from(e: StorageFailure) -> Self {
        DaemonError::Storage(e)
    }
}

/// End-of-run accounting. Wall-clock lives only here (and in
/// `metrics.json`), never in the deterministic work-directory artifacts
/// (traces, checkpoints, reports). The storage-health counters
/// (`sessions_quarantined`, `io_retries`, `io_faults_injected`) are
/// reported only here and in `metrics.json`: the daemon emits no
/// `mwu_core::trace::StorageEvent`.
#[derive(Debug, Clone, Serialize)]
pub struct DaemonSummary {
    /// Schema tag ([`SUMMARY_SCHEMA`]).
    pub schema: String,
    /// Total sessions under management.
    pub sessions: usize,
    /// Sessions with a `Completed` report.
    pub completed: usize,
    /// Completed sessions that found a repair.
    pub repaired: usize,
    /// Sessions halted with a `BudgetExhausted` report.
    pub budget_exhausted: usize,
    /// Sessions still checkpointed mid-flight (cooperative halt).
    pub halted_active: usize,
    /// Sessions quarantined this run (durable `quarantine.json`,
    /// checkpoint retained for re-arm).
    pub sessions_quarantined: usize,
    /// Storage retries performed (sessions + spool). Zero in a fault-free
    /// run on a healthy disk.
    pub io_retries: u64,
    /// Faults injected by the configured vfs (zero under [`RealVfs`]).
    pub io_faults_injected: u64,
    /// Rounds executed by this run.
    pub rounds: u64,
    /// Paths handed to the batched group-commit barriers (the end-of-run
    /// flush counts one, the work directory).
    pub io_syncs_batched: u64,
    /// Group-commit barrier latency distribution.
    pub sync_barrier: SyncBarrierStats,
    /// Wall-clock of this run in milliseconds.
    pub wall_ms: f64,
    /// Per-session completion latency (ms since run start), one entry per
    /// session that finished during this run, in submission order.
    pub session_wall_ms: Vec<f64>,
}

/// Latency distribution of the group-commit barriers a run executed
/// (wall-clock, summary/metrics only — never in deterministic
/// artifacts). All fields zero when no barrier ran (a run with nothing
/// to commit).
#[derive(Debug, Clone, Default, Serialize)]
pub struct SyncBarrierStats {
    /// Barriers executed (including the end-of-run flush).
    pub count: u64,
    /// Median barrier latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile barrier latency, milliseconds.
    pub p99_ms: f64,
    /// Slowest barrier, milliseconds.
    pub max_ms: f64,
    /// Total time inside barriers, milliseconds.
    pub total_ms: f64,
}

impl SyncBarrierStats {
    /// Summarize a run's per-barrier wall-clock samples.
    fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let at = |q: f64| {
            sorted[((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1)]
        };
        SyncBarrierStats {
            count: samples.len() as u64,
            p50_ms: at(0.5),
            p99_ms: at(0.99),
            max_ms: *sorted.last().expect("non-empty"),
            total_ms: samples.iter().sum(),
        }
    }
}

impl DaemonSummary {
    /// Canonical single-line JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("summary serializes")
    }
}

/// The `metrics.json` exposition document: the run's operational
/// counters plus (when profiling is enabled) the merged span report.
///
/// This is the daemon's one intentionally non-deterministic artifact —
/// it carries wall-clock and machine-local timings and is excluded from
/// the byte-determinism contract that covers traces, checkpoints, and
/// reports.
#[derive(Debug, Clone, Serialize)]
pub struct DaemonMetrics {
    /// Schema tag ([`METRICS_SCHEMA`]).
    pub schema: String,
    /// The run's accounting, identical to what [`Daemon::run`] returned.
    pub summary: DaemonSummary,
    /// Merged profiling spans, present only when the profiler was
    /// enabled for this process.
    pub profile: Option<mwu_core::prof::ProfileReport>,
}

impl DaemonMetrics {
    /// Canonical single-line JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("metrics serialize")
    }
}

/// A multi-tenant session-manager daemon over one work directory.
pub struct Daemon {
    config: DaemonConfig,
    sessions: Vec<SessionRunner>,
    /// Job id → index into `sessions`, for duplicate detection.
    index: HashMap<String, usize>,
    /// At most one budget per tenant, in first-seen order.
    budgets: Vec<BudgetSpec>,
    /// Scenario-spec cache key → shared scenario + pool. Pools are built
    /// once per distinct spec with a fixed pool seed (part of the
    /// scenario's identity) and shared immutably across sessions.
    scenarios: HashMap<String, Arc<ScenarioData>>,
    /// Storage retries performed on the spool / workdir (not sessions).
    spool_retries: u64,
    /// File syncs made durable through batched barriers this run.
    io_syncs_batched: u64,
    /// Wall-clock of each group-commit barrier, milliseconds.
    barrier_ms: Vec<f64>,
}

impl Daemon {
    /// Open a daemon over `config.workdir`, creating it if needed and
    /// reloading any spooled job set from a previous run (sessions resume
    /// from their checkpoints; finished sessions stay finished;
    /// quarantined sessions are re-armed).
    pub fn open(config: DaemonConfig) -> Result<Self, DaemonError> {
        let mut daemon = Daemon {
            config,
            sessions: Vec::new(),
            index: HashMap::new(),
            budgets: Vec::new(),
            scenarios: HashMap::new(),
            spool_retries: 0,
            io_syncs_batched: 0,
            barrier_ms: Vec::new(),
        };
        let workdir = daemon.config.workdir.clone();
        daemon.spooling(StorageOp::CreateDir, workdir.clone(), |vfs, p| {
            vfs.create_dir_all(p)
        })?;
        let spool = workdir.join(SPOOL_FILE);
        if daemon.config.vfs.exists(&spool) {
            let _span = mwu_core::prof::span(mwu_core::prof::Phase::SpoolScan);
            let bytes = daemon.spooling(StorageOp::Read, spool, |vfs, p| vfs.read(p))?;
            daemon.submit_bytes(&bytes)?;
        }
        Ok(daemon)
    }

    /// Run a daemon-level (non-session) storage operation under the retry
    /// policy, counting retries toward the spool tally.
    fn spooling<T>(
        &mut self,
        op: StorageOp,
        path: PathBuf,
        mut f: impl FnMut(&dyn Vfs, &std::path::Path) -> std::io::Result<T>,
    ) -> Result<T, DaemonError> {
        let vfs = Arc::clone(&self.config.vfs);
        let policy = self.config.retry;
        with_retries(&policy, op, &path, &mut self.spool_retries, || {
            f(vfs.as_ref(), &path)
        })
        .map_err(DaemonError::Storage)
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// All sessions in submission order.
    pub fn sessions(&self) -> &[SessionRunner] {
        &self.sessions
    }

    /// Look up a session by job id.
    pub fn session(&self, id: &str) -> Option<&SessionRunner> {
        self.index.get(id).map(|&i| &self.sessions[i])
    }

    /// Submit a JSONL batch (see [`crate::protocol`]). Resubmitting a
    /// byte-equal job or budget is an idempotent no-op, so replaying the
    /// spool after a crash is safe; a known id with *different* content is
    /// rejected. Returns the number of newly accepted jobs.
    pub fn submit_bytes(&mut self, bytes: &[u8]) -> Result<usize, DaemonError> {
        let batch = parse_jobs(bytes)?;
        for budget in batch.budgets {
            match self.budgets.iter().find(|b| b.tenant == budget.tenant) {
                Some(existing) if *existing == budget => {}
                Some(_) => {
                    return Err(DaemonError::Rejected {
                        id: budget.tenant,
                        message: "conflicting budget for this tenant already registered".into(),
                    })
                }
                None => self.budgets.push(budget),
            }
        }
        let mut accepted = 0;
        for job in batch.jobs {
            if let Some(&i) = self.index.get(&job.id) {
                if *self.sessions[i].job() == job {
                    continue;
                }
                return Err(DaemonError::Rejected {
                    id: job.id,
                    message: "job id already registered with different content".into(),
                });
            }
            let session = self.open_session(job)?;
            self.index
                .insert(session.job().id.clone(), self.sessions.len());
            self.sessions.push(session);
            accepted += 1;
        }
        Ok(accepted)
    }

    fn open_session(&mut self, job: JobSpec) -> Result<SessionRunner, DaemonError> {
        let key = job.scenario.cache_key();
        let data = match self.scenarios.get(&key) {
            Some(d) => Arc::clone(d),
            None => {
                let scenario = job
                    .scenario
                    .build()
                    .map_err(|message| DaemonError::Rejected {
                        id: job.id.clone(),
                        message,
                    })?;
                // Pool seed is fixed: the pool is part of the scenario's
                // identity, shared by every job naming the same spec.
                let pool = scenario.build_pool(1, None);
                let data = Arc::new(ScenarioData { scenario, pool });
                self.scenarios.insert(key, Arc::clone(&data));
                data
            }
        };
        if job.algorithm == mwrepair::VariantChoice::Distributed {
            let config = mwrepair::MwRepairConfig::seeded(job.seed);
            let arms = mwrepair::effective_arms(data.pool.len(), &config);
            if !mwu_core::DistributedConfig::default().is_tractable(arms) {
                return Err(DaemonError::Rejected {
                    id: job.id,
                    message: format!("distributed variant intractable at {arms} arms"),
                });
            }
        }
        // open_on only errs on invariants caught before touching disk;
        // disk-reconciliation failures are latched inside the runner and
        // quarantined at the first barrier.
        SessionRunner::open_with(
            job,
            data,
            &self.config.workdir,
            Arc::clone(&self.config.vfs),
            self.config.retry,
            self.config.trace_segment_bytes,
        )
        .map_err(|error| DaemonError::Session {
            job: "<open>".into(),
            error,
        })
    }

    /// Persist the canonical spool (budgets first, then jobs, in
    /// submission order) so a later [`Daemon::open`] reloads this exact
    /// job set.
    fn write_spool(&mut self) -> Result<(), DaemonError> {
        let mut doc = String::new();
        for b in &self.budgets {
            doc.push_str(&crate::protocol::encode_line(&JobLine::Budget(b.clone())));
            doc.push('\n');
        }
        for s in &self.sessions {
            doc.push_str(&crate::protocol::encode_line(&JobLine::Job(
                s.job().clone(),
            )));
            doc.push('\n');
        }
        let spool = self.config.workdir.join(SPOOL_FILE);
        self.spooling(StorageOp::AtomicWrite, spool, |vfs, p| {
            vfs.write_atomic(p, doc.as_bytes())
        })?;
        Ok(())
    }

    /// Quarantine every session with a latched error. Runs at round
    /// barriers (and once before the first round, for sessions whose
    /// disk reconciliation failed at open).
    fn absorb_failures(&mut self) {
        let quiet = self.config.quiet;
        for s in &mut self.sessions {
            if s.quarantine_if_failed() && !quiet {
                let q = s.quarantine().expect("just quarantined");
                eprintln!(
                    "mwrepaird: quarantined session {:?} ({}: {})",
                    q.job_id,
                    q.kind,
                    q.errors.last().map(String::as_str).unwrap_or("?"),
                );
            }
        }
    }

    /// Drive all sessions to completion (or to `halt_after_rounds`),
    /// returning the run's accounting. Per-session faults and panics
    /// quarantine that one session at the next round barrier; the run
    /// keeps going for everyone else. The only fatal errors are
    /// spool-level storage failures — and even then everything already
    /// persisted stays valid and resumable.
    pub fn run(&mut self) -> Result<DaemonSummary, DaemonError> {
        self.write_spool()?;
        let start = Instant::now();
        let slice = self.config.slice_iterations.max(1);
        let mut rounds: u64 = 0;
        // Sessions whose open-time disk reconciliation failed are
        // quarantined up front so they can't spin the round loop.
        self.absorb_failures();
        loop {
            let active = self.sessions.iter().filter(|s| s.is_active()).count();
            if active == 0 {
                break;
            }
            if let Some(cap) = self.config.halt_after_rounds {
                if rounds >= cap {
                    break;
                }
            }
            if !self.config.quiet && rounds.is_multiple_of(50) {
                eprintln!("mwrepaird: round {rounds}, {active} active sessions");
            }
            // Each session is unwind-safe here: a panicking slice is
            // caught before it can poison the pool, latched, and
            // quarantined at the barrier below. Nothing durable advanced
            // (persistence is crash-ordered), so the session stays
            // resumable from its last checkpoint.
            self.sessions.par_iter_mut().for_each(|s| {
                let run =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.run_slice(slice)));
                if let Err(payload) = run {
                    s.latch_panic(payload);
                }
            });
            rounds += 1;
            // Round barrier: group commit first (staged bytes become
            // durable and vouched for — budgets only ever charge durable
            // slices), then quarantines, then budgets (which may
            // themselves latch write failures), then latency.
            let barrier_span = mwu_core::prof::span(mwu_core::prof::Phase::Schedule);
            if let Some((paths, ms)) = commit_epoch(&mut self.sessions) {
                self.io_syncs_batched += paths as u64;
                self.barrier_ms.push(ms);
            }
            self.absorb_failures();
            self.enforce_budgets();
            self.absorb_failures();
            drop(barrier_span);
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            for s in &mut self.sessions {
                if s.completed_this_run() && s.wall_ms.is_none() {
                    s.wall_ms = Some(elapsed_ms);
                }
            }
        }
        // End-of-run flush: the last epoch's renames (published reports,
        // replaced session.json files) ride the *next* barrier on the
        // syncfs path, whose per-file fallback fsyncs their directories
        // (per-file targets fsync at commit instead) — there is none
        // after the final round, so issue one covering the work
        // directory before the summary claims anything finished.
        // Persistent failure is daemon-level, like the spool.
        if rounds > 0 {
            let flush_start = Instant::now();
            let workdir = self.config.workdir.clone();
            self.spooling(StorageOp::SyncFile, workdir, |vfs, p| {
                vfs.sync_barrier(std::slice::from_ref(&p.to_path_buf()))
                    .pop()
                    .unwrap_or(Ok(()))
            })?;
            self.io_syncs_batched += 1;
            self.barrier_ms
                .push(flush_start.elapsed().as_secs_f64() * 1e3);
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let mut completed = 0;
        let mut repaired = 0;
        let mut budget_exhausted = 0;
        let mut session_wall_ms = Vec::new();
        let mut sessions_quarantined = 0;
        let mut io_retries = self.spool_retries;
        for s in &self.sessions {
            io_retries += s.io_retries();
            if s.quarantine().is_some() {
                sessions_quarantined += 1;
            }
            if let Some(r) = s.report() {
                match r.status {
                    SessionStatus::Completed => {
                        completed += 1;
                        if r.repaired {
                            repaired += 1;
                        }
                    }
                    SessionStatus::BudgetExhausted => budget_exhausted += 1,
                }
            }
            if let Some(ms) = s.wall_ms() {
                session_wall_ms.push(ms);
            }
        }
        let halted_active = self.sessions.iter().filter(|s| s.is_active()).count();
        let summary = DaemonSummary {
            schema: SUMMARY_SCHEMA.into(),
            sessions: self.sessions.len(),
            completed,
            repaired,
            budget_exhausted,
            halted_active,
            sessions_quarantined,
            io_retries,
            io_faults_injected: self.config.vfs.injected_faults(),
            rounds,
            io_syncs_batched: self.io_syncs_batched,
            sync_barrier: SyncBarrierStats::from_samples(&self.barrier_ms),
            wall_ms,
            session_wall_ms,
        };
        self.write_metrics(&summary);
        Ok(summary)
    }

    /// Atomically (re)write `<workdir>/metrics.json` through the vfs.
    /// Best-effort by design: exposition must never fail or quarantine a
    /// run, so storage errors are swallowed (the summary still reaches
    /// the caller).
    fn write_metrics(&mut self, summary: &DaemonSummary) {
        let metrics = DaemonMetrics {
            schema: METRICS_SCHEMA.into(),
            summary: summary.clone(),
            profile: mwu_core::prof::enabled().then(mwu_core::prof::snapshot),
        };
        let doc = metrics.to_json() + "\n";
        let path = self.config.workdir.join(METRICS_FILE);
        let _ = self.spooling(StorageOp::AtomicWrite, path, |vfs, p| {
            vfs.write_atomic(p, doc.as_bytes())
        });
    }

    /// Apply tenant budgets at a round barrier: sum every tenant session's
    /// deterministic cost snapshot (finished sessions included — budgets
    /// cover the tenant's whole job set) and finish the still-active ones
    /// as budget-exhausted once the cap is strictly exceeded. A report
    /// write the disk refuses is latched and quarantined like any other
    /// session fault. Quarantined sessions contribute only their last
    /// durable checkpoint's cost — a slice that failed to persist is
    /// never charged.
    fn enforce_budgets(&mut self) {
        for budget in &self.budgets {
            let (mut evals, mut ms) = (0u64, 0u64);
            for s in self
                .sessions
                .iter()
                .filter(|s| s.job().tenant == budget.tenant)
            {
                let c = s.cost();
                evals += c.fitness_evals;
                ms += c.simulated_ms;
            }
            if !budget.exceeded(evals, ms) {
                continue;
            }
            for s in &mut self.sessions {
                if s.job().tenant == budget.tenant && s.is_active() {
                    if let Err(error) = s.finish_budget_exhausted() {
                        s.latch(error);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::encode_line;
    use crate::protocol::tests::sample_job;

    fn tmp_workdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mwrd-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quiet_config(workdir: &std::path::Path) -> DaemonConfig {
        let mut c = DaemonConfig::new(workdir.to_path_buf());
        c.quiet = true;
        c.slice_iterations = 4;
        c
    }

    fn batch_of(jobs: &[JobSpec], budgets: &[BudgetSpec]) -> Vec<u8> {
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

    #[test]
    fn submit_is_idempotent_and_rejects_conflicts() {
        let workdir = tmp_workdir("idem");
        let mut d = Daemon::open(quiet_config(&workdir)).unwrap();
        let job = sample_job("j1", "alice");
        let bytes = batch_of(std::slice::from_ref(&job), &[]);
        assert_eq!(d.submit_bytes(&bytes).unwrap(), 1);
        assert_eq!(d.submit_bytes(&bytes).unwrap(), 0);
        let mut conflicting = job;
        conflicting.seed += 1;
        let err = d.submit_bytes(&batch_of(&[conflicting], &[])).unwrap_err();
        assert!(matches!(err, DaemonError::Rejected { .. }), "{err}");
        std::fs::remove_dir_all(&workdir).unwrap();
    }

    #[test]
    fn run_completes_jobs_and_spool_reloads() {
        let workdir = tmp_workdir("spool");
        let jobs = [sample_job("j1", "alice"), sample_job("j2", "bob")];
        {
            let mut d = Daemon::open(quiet_config(&workdir)).unwrap();
            d.submit_bytes(&batch_of(&jobs, &[])).unwrap();
            let summary = d.run().unwrap();
            assert_eq!(summary.sessions, 2);
            assert_eq!(summary.completed, 2);
            assert_eq!(summary.halted_active, 0);
            assert_eq!(summary.session_wall_ms.len(), 2);
            assert_eq!(summary.sessions_quarantined, 0);
            assert_eq!(summary.io_retries, 0, "fault-free run must not retry");
            assert_eq!(summary.io_faults_injected, 0);
        }
        // Reload from the spool alone: everything is already done.
        let mut d = Daemon::open(quiet_config(&workdir)).unwrap();
        assert_eq!(d.sessions().len(), 2);
        let summary = d.run().unwrap();
        assert_eq!(summary.completed, 2);
        assert_eq!(summary.rounds, 0);
        assert!(summary.session_wall_ms.is_empty());
        std::fs::remove_dir_all(&workdir).unwrap();
    }

    #[test]
    fn budget_exhaustion_halts_tenant_with_checkpoint() {
        let workdir = tmp_workdir("budget");
        let job = sample_job("j1", "alice");
        let budget = BudgetSpec {
            tenant: "alice".into(),
            max_evals: Some(1),
            max_ms: None,
        };
        let mut d = Daemon::open(quiet_config(&workdir)).unwrap();
        d.submit_bytes(&batch_of(&[job], &[budget])).unwrap();
        let summary = d.run().unwrap();
        assert_eq!(summary.budget_exhausted, 1);
        assert_eq!(summary.completed, 0);
        let s = d.session("j1").unwrap();
        let report = s.report().unwrap();
        assert_eq!(report.status, SessionStatus::BudgetExhausted);
        assert!(report.iterations < s.job().max_iterations);
        assert!(s.dir().join("session.json").exists(), "checkpoint retained");
        std::fs::remove_dir_all(&workdir).unwrap();
    }

    #[test]
    fn cooperative_halt_then_resume_matches_uninterrupted() {
        let ref_dir = tmp_workdir("halt-ref");
        let jobs = [sample_job("j1", "alice"), sample_job("j2", "bob")];
        {
            let mut d = Daemon::open(quiet_config(&ref_dir)).unwrap();
            d.submit_bytes(&batch_of(&jobs, &[])).unwrap();
            d.run().unwrap();
        }
        let workdir = tmp_workdir("halt");
        {
            let mut config = quiet_config(&workdir);
            config.halt_after_rounds = Some(1);
            let mut d = Daemon::open(config).unwrap();
            d.submit_bytes(&batch_of(&jobs, &[])).unwrap();
            let summary = d.run().unwrap();
            assert_eq!(summary.rounds, 1);
            assert_eq!(summary.halted_active, 2);
        }
        {
            // Resume purely from the spool: no resubmission.
            let mut d = Daemon::open(quiet_config(&workdir)).unwrap();
            let summary = d.run().unwrap();
            assert_eq!(summary.completed, 2);
        }
        for job in &jobs {
            let rel = PathBuf::from("tenants").join(&job.tenant).join(&job.id);
            let trace_a = std::fs::read(ref_dir.join(&rel).join("trace.jsonl")).unwrap();
            let trace_b = std::fs::read(workdir.join(&rel).join("trace.jsonl")).unwrap();
            assert_eq!(trace_a, trace_b, "trace bytes diverged for {}", job.id);
            let report_a = std::fs::read(ref_dir.join(&rel).join("report.json")).unwrap();
            let report_b = std::fs::read(workdir.join(&rel).join("report.json")).unwrap();
            assert_eq!(report_a, report_b);
        }
        std::fs::remove_dir_all(&ref_dir).unwrap();
        std::fs::remove_dir_all(&workdir).unwrap();
    }
}
