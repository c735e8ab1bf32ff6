//! Phase-attributed span profiler.
//!
//! Answers the question the scaling plateau left open (see
//! `docs/PERFORMANCE.md`): *where does the wall-clock go?* The profiler is a
//! process-global, hierarchical span accumulator with a fixed taxonomy of
//! [`Phase`]s spanning every layer of the stack — round kernels, the worker
//! pool, the simulated network, the repair driver, and the persistence
//! service.
//!
//! ## Discipline
//!
//! The profiler follows the same two rules as the [`crate::trace`] Observer
//! pipeline:
//!
//! 1. **Zero overhead when disabled.** [`span`] starts with one relaxed
//!    atomic load; when profiling is off it returns an unarmed guard without
//!    reading the clock or touching thread-local state. The
//!    `prof_overhead` bench in `crates/bench` gates this the same way
//!    `null_observer_overhead` gates the Observer.
//! 2. **Never on the bit-identity path.** Span data flows only into the
//!    in-memory registry and (on request) into a separate `profile/v1`
//!    report file. No CSV, JSONL trace, checkpoint, or session file ever
//!    contains profiler output, so enabling profiling leaves every
//!    deterministic artifact byte-identical.
//!
//! ## Span semantics
//!
//! [`span`] returns an RAII guard. Guards nest on a per-thread stack: when a
//! guard drops, its *total* duration is recorded under its phase, the time
//! spent in enclosed child spans is subtracted to produce *self* time, and
//! the total is charged to the parent frame's child accumulator. Layers that
//! cannot depend on this crate (the vendored pool, `simnet`) report leaf
//! durations through [`record_external`], which performs no parent
//! attribution — those phases overlap the span tree rather than partitioning
//! it, and the report marks them as external.
//!
//! ## Clocks
//!
//! This registry is the workspace's one source of wall-clock telemetry:
//! deterministic events ([`crate::trace`]) carry no time at all.
//! Production uses the monotonic [`std::time::Instant`] clock. Tests install
//! a deterministic counting clock ([`set_counting_clock`]) whose reads
//! return `step, 2·step, 3·step, …` on each thread, making span durations
//! exactly assertable on the thread that recorded them.

use crate::stats::Histogram;
use serde::Serialize;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Schema identifier written into every [`ProfileReport`].
pub const PROFILE_SCHEMA: &str = "profile/v1";

/// Statically-registered phase IDs — the complete span taxonomy.
///
/// One variant per instrumented region, spanning every layer: the MWU round
/// kernels, the vendored worker pool, the simnet executor, the repair
/// driver, and the persistence service. The discriminant indexes the
/// per-thread accumulator arrays, so the set is closed by design: adding a
/// phase means adding a variant here (and to [`Phase::ALL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Round kernel: planning which arm each agent evaluates ([`crate::MwuAlgorithm::plan`]).
    Plan,
    /// Round kernel: water-filling projection onto the capped simplex.
    WaterFill,
    /// Round kernel: weight-vector normalization / renormalization.
    Normalize,
    /// Round kernel: sampling arms or slates from the weight vector.
    Sample,
    /// Round kernel: multiplicative weight update ([`crate::MwuAlgorithm::update`]).
    Update,
    /// Worker pool (external): delay between job submission and its first
    /// claimed chunk.
    PoolQueueWait,
    /// Worker pool (external): worker parked waiting for work.
    PoolPark,
    /// Worker pool (external): executing one claimed chunk of a parallel job.
    PoolChunk,
    /// Worker pool (external): submitter blocked in `run_indexed` — covers
    /// its own participation plus the wait for stragglers.
    PoolSubmit,
    /// Simnet executor (external): thread blocked on the end-of-round
    /// barrier.
    SimRoundBarrier,
    /// Gossip observation encode (serialize outgoing observations).
    GossipEncode,
    /// Gossip observation decode / apply (incorporate observed neighbors).
    GossipDecode,
    /// Repair driver: one probe batch — patch evaluations for one iteration.
    ProbeLoop,
    /// Repair driver: serializing and atomically writing a checkpoint.
    CheckpointWrite,
    /// Service: running one bounded slice of repair iterations.
    SliceRun,
    /// Service: appending trace bytes to the session's trace segment.
    TraceAppend,
    /// Service: file-content fsync inside durable writes.
    Fsync,
    /// Service: atomic replace of `session.json` (tmp + fsync + rename).
    SessionReplace,
    /// Service: batched group-commit synchronization at the daemon's round
    /// barrier — one pass making every staged write durable.
    SyncBarrier,
    /// Service: daemon spool scan discovering session directories.
    SpoolScan,
    /// Service: daemon scheduling — one round's dispatch and barrier
    /// bookkeeping around the parallel session drive.
    Schedule,
}

/// Number of phases — length of every per-thread accumulator array.
pub const NUM_PHASES: usize = 21;

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Plan,
        Phase::WaterFill,
        Phase::Normalize,
        Phase::Sample,
        Phase::Update,
        Phase::PoolQueueWait,
        Phase::PoolPark,
        Phase::PoolChunk,
        Phase::PoolSubmit,
        Phase::SimRoundBarrier,
        Phase::GossipEncode,
        Phase::GossipDecode,
        Phase::ProbeLoop,
        Phase::CheckpointWrite,
        Phase::SliceRun,
        Phase::TraceAppend,
        Phase::Fsync,
        Phase::SessionReplace,
        Phase::SyncBarrier,
        Phase::SpoolScan,
        Phase::Schedule,
    ];

    /// Stable snake_case name, as written into `profile/v1` reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::WaterFill => "water_fill",
            Phase::Normalize => "normalize",
            Phase::Sample => "sample",
            Phase::Update => "update",
            Phase::PoolQueueWait => "pool_queue_wait",
            Phase::PoolPark => "pool_park",
            Phase::PoolChunk => "pool_chunk",
            Phase::PoolSubmit => "pool_submit",
            Phase::SimRoundBarrier => "sim_round_barrier",
            Phase::GossipEncode => "gossip_encode",
            Phase::GossipDecode => "gossip_decode",
            Phase::ProbeLoop => "probe_loop",
            Phase::CheckpointWrite => "checkpoint_write",
            Phase::SliceRun => "slice_run",
            Phase::TraceAppend => "trace_append",
            Phase::Fsync => "fsync",
            Phase::SessionReplace => "session_replace",
            Phase::SyncBarrier => "sync_barrier",
            Phase::SpoolScan => "spool_scan",
            Phase::Schedule => "schedule",
        }
    }

    /// True for phases reported through [`record_external`] by layers that
    /// cannot open spans (the vendored pool, simnet). External phases
    /// overlap the span tree instead of partitioning it.
    pub fn is_external(self) -> bool {
        matches!(
            self,
            Phase::PoolQueueWait
                | Phase::PoolPark
                | Phase::PoolChunk
                | Phase::PoolSubmit
                | Phase::SimRoundBarrier
        )
    }

    fn index(self) -> usize {
        self as usize
    }
}

// ---------------------------------------------------------------------------
// Global clock
// ---------------------------------------------------------------------------

const CLOCK_MONOTONIC: u8 = 0;
const CLOCK_COUNTING: u8 = 1;

static CLOCK_MODE: AtomicU8 = AtomicU8::new(CLOCK_MONOTONIC);
static CLOCK_STEP: AtomicU64 = AtomicU64::new(1);
/// Bumped by [`set_counting_clock`]; a thread whose tick counter belongs
/// to an older generation restarts it from zero on its next read.
static CLOCK_GENERATION: AtomicU64 = AtomicU64::new(0);
static CLOCK_EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// This thread's counting-clock state: `(generation, ticks)`.
    static CLOCK_TICKS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Read the profiler's global clock, in nanoseconds.
///
/// Monotonic mode (default): nanoseconds since the first read in this
/// process. Counting mode: each read advances the calling thread's own
/// counter by the configured step, so durations are exact functions of
/// that thread's read order — reads on other threads never perturb them.
pub fn now_ns() -> u64 {
    if CLOCK_MODE.load(Ordering::Relaxed) == CLOCK_COUNTING {
        let step = CLOCK_STEP.load(Ordering::Relaxed);
        let generation = CLOCK_GENERATION.load(Ordering::Relaxed);
        CLOCK_TICKS.with(|cell| {
            let (seen, ticks) = cell.get();
            let ticks = if seen == generation { ticks } else { 0 } + step;
            cell.set((generation, ticks));
            ticks
        })
    } else {
        let epoch = CLOCK_EPOCH.get_or_init(Instant::now);
        epoch.elapsed().as_nanos() as u64
    }
}

/// Switch the global clock to deterministic counting mode: successive reads
/// on each thread return `step_ns, 2·step_ns, …`. Test-only by convention;
/// restarts every thread's tick counter.
pub fn set_counting_clock(step_ns: u64) {
    CLOCK_STEP.store(step_ns.max(1), Ordering::Relaxed);
    CLOCK_GENERATION.fetch_add(1, Ordering::Relaxed);
    CLOCK_MODE.store(CLOCK_COUNTING, Ordering::Relaxed);
}

/// Restore the production monotonic clock.
pub fn set_monotonic_clock() {
    CLOCK_MODE.store(CLOCK_MONOTONIC, Ordering::Relaxed);
}

/// Name of the clock currently installed (`"monotonic"` / `"counting"`),
/// recorded in every report so consumers know whether durations are
/// wall-clock.
pub fn clock_name() -> &'static str {
    if CLOCK_MODE.load(Ordering::Relaxed) == CLOCK_COUNTING {
        "counting"
    } else {
        "monotonic"
    }
}

// ---------------------------------------------------------------------------
// Enable gate
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is profiling currently enabled? One relaxed load — the *only* cost paid
/// by instrumented code when profiling is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the profiler on or off. Spans opened while enabled record on drop
/// even if profiling is disabled in between (the guard is already armed).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Per-thread accumulators
// ---------------------------------------------------------------------------

/// Accumulated data for one phase on one thread.
#[derive(Debug, Clone)]
struct PhaseAcc {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    hist: Histogram,
}

impl PhaseAcc {
    fn new() -> Self {
        PhaseAcc {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            hist: Histogram::new(),
        }
    }

    fn record(&mut self, total_ns: u64, self_ns: u64) {
        self.count += 1;
        self.total_ns += total_ns;
        self.self_ns += self_ns;
        self.hist.record(total_ns as f64);
    }

    fn merge(&mut self, other: &PhaseAcc) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.hist.merge(&other.hist);
    }
}

/// One thread's slot in the global registry. The mutex is uncontended in
/// steady state (only the owning thread records; snapshots lock briefly at
/// barriers), which keeps the enabled path allocation- and syscall-free.
struct Slot {
    label: String,
    accs: Mutex<Vec<PhaseAcc>>,
}

impl Slot {
    fn new(label: String) -> Self {
        Slot {
            label,
            accs: Mutex::new(vec![PhaseAcc::new(); NUM_PHASES]),
        }
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Slot>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Slot>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

struct Frame {
    phase: Phase,
    start_ns: u64,
    child_ns: u64,
}

thread_local! {
    static THREAD_SLOT: RefCell<Option<Arc<Slot>>> = const { RefCell::new(None) };
    static SPAN_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

fn with_thread_slot<R>(f: impl FnOnce(&Slot) -> R) -> R {
    THREAD_SLOT.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.is_none() {
            let mut reg = registry().lock().unwrap();
            let label = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{:02}", reg.len()));
            let arc = Arc::new(Slot::new(label));
            reg.push(Arc::clone(&arc));
            *slot = Some(arc);
        }
        f(slot.as_ref().unwrap())
    })
}

fn record_on_thread(phase: Phase, total_ns: u64, self_ns: u64) {
    with_thread_slot(|slot| {
        slot.accs.lock().unwrap()[phase.index()].record(total_ns, self_ns);
    });
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII guard for one open span. Created by [`span`]; records on drop.
#[must_use = "a span measures the scope of its guard — bind it with `let _span = ...`"]
pub struct SpanGuard {
    phase: Option<Phase>,
}

/// Open a span for `phase` on the current thread.
///
/// Disabled path: one relaxed atomic load, an unarmed guard, no clock read.
/// Enabled path: pushes a frame on the thread's span stack; the matching
/// drop computes total and self time and charges the parent frame.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    if !enabled() {
        return SpanGuard { phase: None };
    }
    let start_ns = now_ns();
    SPAN_STACK.with(|stack| {
        stack.borrow_mut().push(Frame {
            phase,
            start_ns,
            child_ns: 0,
        });
    });
    SpanGuard { phase: Some(phase) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(phase) = self.phase else { return };
        let end_ns = now_ns();
        let finished = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards drop in LIFO order within a thread, so the top frame is
            // ours; a mismatch means a guard crossed threads, which we
            // tolerate by discarding rather than corrupting attribution.
            match stack.last() {
                Some(top) if top.phase == phase => {
                    let frame = stack.pop().unwrap();
                    let total_ns = end_ns.saturating_sub(frame.start_ns);
                    if let Some(parent) = stack.last_mut() {
                        parent.child_ns += total_ns;
                    }
                    Some((total_ns, total_ns.saturating_sub(frame.child_ns)))
                }
                _ => None,
            }
        });
        if let Some((total_ns, self_ns)) = finished {
            record_on_thread(phase, total_ns, self_ns);
        }
    }
}

/// Record an externally-measured leaf duration for `phase` on the current
/// thread (self time = total time; no parent attribution).
///
/// This is the bridge for layers that cannot depend on `mwu-core`: the
/// vendored pool and `simnet` expose fn-pointer hooks, and the experiment
/// harness forwards their events here. No-op while disabled.
#[inline]
pub fn record_external(phase: Phase, duration_ns: u64) {
    if !enabled() {
        return;
    }
    record_on_thread(phase, duration_ns, duration_ns);
}

// ---------------------------------------------------------------------------
// Snapshots and reports
// ---------------------------------------------------------------------------

/// Aggregated results for one phase — one row of a [`ProfileReport`].
#[derive(Debug, Clone, Serialize)]
pub struct SpanReport {
    /// Phase name ([`Phase::name`]).
    pub phase: String,
    /// True if reported via [`record_external`] (overlaps the span tree).
    pub external: bool,
    /// Number of completed spans.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Total minus time spent in child spans, nanoseconds.
    pub self_ns: u64,
    /// Median span duration, nanoseconds (log₂-bucket estimate).
    pub p50_ns: f64,
    /// 99th-percentile span duration, nanoseconds (log₂-bucket estimate).
    pub p99_ns: f64,
}

/// Per-thread slice of a [`ProfileReport`].
#[derive(Debug, Clone, Serialize)]
pub struct ThreadReport {
    /// Thread label (OS thread name, or `thread-NN` registration order).
    pub thread: String,
    /// Phases this thread recorded, in [`Phase::ALL`] order.
    pub spans: Vec<SpanReport>,
}

/// Serializable `profile/v1` snapshot of everything recorded since the last
/// [`reset`].
///
/// Durations are wall-clock nanoseconds (monotonic clock) and therefore
/// **non-deterministic**: profile reports are measurement artifacts, never
/// inputs to the byte-identity contract.
#[derive(Debug, Clone, Serialize)]
pub struct ProfileReport {
    /// Schema tag: [`PROFILE_SCHEMA`].
    pub schema: String,
    /// Clock the durations were read from (`"monotonic"` / `"counting"`).
    pub clock: String,
    /// Number of threads that recorded at least one span.
    pub threads: usize,
    /// Cross-thread aggregate, one row per phase with any activity, in
    /// [`Phase::ALL`] order.
    pub spans: Vec<SpanReport>,
    /// Per-thread breakdown, sorted by thread label.
    pub per_thread: Vec<ThreadReport>,
}

impl ProfileReport {
    /// Total nanoseconds attributed to `phase` in the cross-thread
    /// aggregate (0 if the phase never ran).
    pub fn total_ns(&self, phase: Phase) -> u64 {
        self.spans
            .iter()
            .find(|s| s.phase == phase.name())
            .map(|s| s.total_ns)
            .unwrap_or(0)
    }

    /// Render as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(&self.to_value())
    }
}

fn rows_of(accs: &[PhaseAcc]) -> Vec<SpanReport> {
    Phase::ALL
        .iter()
        .filter_map(|&phase| {
            let acc = &accs[phase.index()];
            if acc.count == 0 {
                return None;
            }
            Some(SpanReport {
                phase: phase.name().to_owned(),
                external: phase.is_external(),
                count: acc.count,
                total_ns: acc.total_ns,
                self_ns: acc.self_ns,
                p50_ns: acc.hist.try_quantile(0.5).unwrap_or(0.0),
                p99_ns: acc.hist.try_quantile(0.99).unwrap_or(0.0),
            })
        })
        .collect()
}

/// Merge every thread's accumulators into a [`ProfileReport`].
///
/// Call at a barrier (end of run, between sweeps): threads still inside
/// spans contribute only their already-completed spans.
pub fn snapshot() -> ProfileReport {
    let reg = registry().lock().unwrap();
    let mut merged = vec![PhaseAcc::new(); NUM_PHASES];
    let mut per_thread = Vec::new();
    for slot in reg.iter() {
        let accs = slot.accs.lock().unwrap();
        let mut active = false;
        for (m, a) in merged.iter_mut().zip(accs.iter()) {
            if a.count > 0 {
                active = true;
                m.merge(a);
            }
        }
        if active {
            per_thread.push(ThreadReport {
                thread: slot.label.clone(),
                spans: rows_of(&accs),
            });
        }
    }
    per_thread.sort_by(|a, b| a.thread.cmp(&b.thread));
    ProfileReport {
        schema: PROFILE_SCHEMA.to_owned(),
        clock: clock_name().to_owned(),
        threads: per_thread.len(),
        spans: rows_of(&merged),
        per_thread,
    }
}

/// Zero every registered thread's accumulators (the registry itself — slot
/// labels and thread bindings — is retained).
pub fn reset() {
    let reg = registry().lock().unwrap();
    for slot in reg.iter() {
        let mut accs = slot.accs.lock().unwrap();
        for acc in accs.iter_mut() {
            *acc = PhaseAcc::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler is process-global; serialize tests that toggle it.
    // Kernel tests on other threads still record spans while a test here
    // has profiling on, so exact assertions read this thread's own row.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The calling thread's rows of `report`.
    fn mine(report: &ProfileReport) -> &[SpanReport] {
        let me = std::thread::current().name().unwrap_or("main").to_owned();
        report
            .per_thread
            .iter()
            .find(|t| t.thread == me)
            .map_or(&[], |t| t.spans.as_slice())
    }

    fn row(rows: &[SpanReport], phase: Phase) -> &SpanReport {
        rows.iter()
            .find(|s| s.phase == phase.name())
            .unwrap_or_else(|| panic!("no {} row", phase.name()))
    }

    struct Armed;
    impl Armed {
        fn new(step_ns: u64) -> Self {
            set_counting_clock(step_ns);
            reset();
            set_enabled(true);
            Armed
        }
    }
    impl Drop for Armed {
        fn drop(&mut self) {
            set_enabled(false);
            set_monotonic_clock();
            reset();
        }
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = guard();
        set_enabled(false);
        reset();
        {
            let _s = span(Phase::Plan);
        }
        assert!(mine(&snapshot()).is_empty());
    }

    #[test]
    fn counting_clock_makes_durations_exact() {
        let _g = guard();
        let _armed = Armed::new(10);
        {
            // Clock reads: start=10, end=20 → total 10 ns.
            let _s = span(Phase::Plan);
        }
        let report = snapshot();
        assert_eq!(report.clock, "counting");
        let rows = mine(&report);
        assert_eq!(rows.len(), 1);
        let plan = row(rows, Phase::Plan);
        assert_eq!((plan.count, plan.total_ns, plan.self_ns), (1, 10, 10));
    }

    #[test]
    fn nesting_attributes_self_and_total() {
        let _g = guard();
        let _armed = Armed::new(1);
        {
            // Reads: outer start=1, inner start=2, inner end=3, outer end=4.
            let _outer = span(Phase::Update);
            let _inner = span(Phase::Normalize);
        }
        let report = snapshot();
        let rows = mine(&report);
        assert_eq!(row(rows, Phase::Update).total_ns, 3);
        assert_eq!(row(rows, Phase::Normalize).total_ns, 1);
        // 3 ns total minus the 1 ns inner span (its guard-drop clock read
        // is outside the child's measured window, hence 2 not 1).
        assert_eq!(row(rows, Phase::Update).self_ns, 2);
    }

    #[test]
    fn external_records_are_leaves() {
        let _g = guard();
        let _armed = Armed::new(1);
        record_external(Phase::PoolChunk, 500);
        record_external(Phase::PoolChunk, 700);
        let report = snapshot();
        let chunk = row(mine(&report), Phase::PoolChunk);
        assert!(chunk.external);
        assert_eq!(
            (chunk.count, chunk.total_ns, chunk.self_ns),
            (2, 1200, 1200)
        );
    }

    #[test]
    fn snapshot_merges_threads_and_reset_clears() {
        let _g = guard();
        let _armed = Armed::new(1);
        let names: Vec<String> = (0..4).map(|i| format!("prof-merge-{i}")).collect();
        let handles: Vec<_> = names
            .iter()
            .map(|name| {
                std::thread::Builder::new()
                    .name(name.clone())
                    .spawn(|| {
                        let _s = span(Phase::SliceRun);
                    })
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = snapshot();
        // No other test in this crate opens slice-run spans, so the
        // cross-thread aggregate is exactly the four spawned spans.
        assert_eq!(row(&report.spans, Phase::SliceRun).count, 4);
        for name in &names {
            let t = report
                .per_thread
                .iter()
                .find(|t| &t.thread == name)
                .unwrap_or_else(|| panic!("{name} missing from the merge"));
            assert_eq!(row(&t.spans, Phase::SliceRun).count, 1);
        }
        reset();
        let cleared = snapshot();
        assert!(cleared.spans.iter().all(|s| s.phase != "slice_run"));
        assert!(cleared
            .per_thread
            .iter()
            .all(|t| !names.contains(&t.thread)));
    }

    #[test]
    fn report_serializes_with_schema() {
        let _g = guard();
        let _armed = Armed::new(1);
        {
            let _s = span(Phase::Fsync);
        }
        let report = snapshot();
        let json = report.to_json();
        let v = serde::json::parse(&json).unwrap();
        assert_eq!(v.field("schema").as_str(), Some(PROFILE_SCHEMA));
        assert_eq!(v.field("clock").as_str(), Some("counting"));
        let me = std::thread::current().name().unwrap_or("main").to_owned();
        let threads = v.field("per_thread").as_array().expect("per_thread array");
        let row = threads
            .iter()
            .find(|t| t.field("thread").as_str() == Some(me.as_str()))
            .expect("this thread's row");
        assert_eq!(row.field("spans").as_array().map(|a| a.len()), Some(1));
    }

    #[test]
    fn phase_names_are_unique_and_ordered() {
        let mut seen = std::collections::HashSet::new();
        for (i, &p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "Phase::ALL order must match discriminants");
            assert!(seen.insert(p.name()), "duplicate phase name {}", p.name());
        }
        assert_eq!(seen.len(), NUM_PHASES);
    }
}
