//! Byte-neutral timing wrappers around the library's three seams.
//!
//! Each wrapper forwards *every* trait method to the wrapped value,
//! defaulted ones included: a wrapper that left `Vfs::append_deferred`
//! to its default would silently turn group commit back into per-write
//! fsync, and one that left `MwuAlgorithm::probabilities_into` or
//! `Observer::enabled` to the default would change the work measured.
//! `tests/identity.rs` proves wrapped runs write the same bytes.

use crate::spans::{self, now_ns, Span};
use mwrepair_service::Vfs;
use mwu_core::trace::{
    CellEndEvent, CellStartEvent, ConvergenceEvent, FaultEvent, IterationEvent, Observer,
    ProbeEvent, RepairEvent, ReplicateEvent, RunStartEvent, StorageEvent, TraceEvent,
};
use mwu_core::{CommStats, MwuAlgorithm, RunOutcome, Variant};
use rand::rngs::SmallRng;
use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// CPU time of the process at the start and end of one barrier call.
#[derive(Debug, Clone, Copy)]
pub struct BarrierMark {
    /// Barrier call start, ns since the span epoch.
    pub start_ns: u64,
    /// Process CPU time when it started, ns.
    pub cpu_start_ns: u64,
    /// Barrier call end, ns since the span epoch.
    pub end_ns: u64,
    /// Process CPU time when it ended, ns.
    pub cpu_end_ns: u64,
    /// The end-of-run flush (one path: the work directory itself).
    pub flush: bool,
}

/// Forwarding [`Vfs`] that records one span per call.
#[derive(Debug)]
pub struct TimedVfs {
    inner: std::sync::Arc<dyn Vfs>,
    /// Work directory; session paths below it name their job.
    root: PathBuf,
    /// Span id the next calls are children of (setup or run).
    parent: AtomicU64,
    barriers: Mutex<Vec<BarrierMark>>,
}

impl TimedVfs {
    /// Wrap `inner`, whose work directory is `root`.
    pub fn new(inner: std::sync::Arc<dyn Vfs>, root: PathBuf) -> Self {
        TimedVfs {
            inner,
            root,
            parent: AtomicU64::new(0),
            barriers: Mutex::new(Vec::new()),
        }
    }

    /// Make later calls children of span `id`.
    pub fn set_parent(&self, id: u64) {
        self.parent.store(id, Ordering::Relaxed);
    }

    /// Every barrier call so far, in call order.
    pub fn barriers(&self) -> Vec<BarrierMark> {
        self.barriers
            .lock()
            .expect("barrier marks are only pushed")
            .clone()
    }

    /// The job a path belongs to (`<root>/tenants/<tenant>/<job>/..`), or
    /// `daemon` for work-directory files.
    fn req(&self, path: &Path) -> String {
        path.strip_prefix(self.root.join("tenants"))
            .ok()
            .and_then(|rel| rel.iter().nth(1))
            .map_or_else(|| "daemon".into(), |job| job.to_string_lossy().into_owned())
    }

    fn timed<T>(&self, name: &'static str, path: &Path, size: u64, f: impl FnOnce() -> T) -> T {
        let start_ns = now_ns();
        let out = f();
        spans::record(Span {
            id: spans::new_id(),
            name,
            start_ns,
            end_ns: now_ns(),
            parent: self.parent.load(Ordering::Relaxed),
            req: self.req(path),
            n: 1,
            size,
        });
        out
    }
}

impl Vfs for TimedVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.timed("vfs.mkdir", path, 0, || self.inner.create_dir_all(path))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed("vfs.read", path, 0, || self.inner.read(path))
    }

    fn append_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let size = bytes.len() as u64;
        self.timed("vfs.fsync", path, size, || {
            self.inner.append_sync(path, bytes)
        })
    }

    fn truncate_sync(&self, path: &Path, len: u64) -> io::Result<()> {
        self.timed("vfs.fsync", path, 0, || self.inner.truncate_sync(path, len))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.timed("vfs.len", path, 0, || self.inner.file_len(path))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let size = bytes.len() as u64;
        self.timed("vfs.fsync", path, size, || {
            self.inner.write_atomic(path, bytes)
        })
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.timed("vfs.remove", path, 0, || self.inner.remove_file(path))
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.timed("vfs.remove", path, 0, || self.inner.remove_dir_all(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.timed("vfs.exists", path, 0, || self.inner.exists(path))
    }

    fn injected_faults(&self) -> u64 {
        self.inner.injected_faults()
    }

    fn append_deferred(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let size = bytes.len() as u64;
        self.timed("vfs.stage", path, size, || {
            self.inner.append_deferred(path, bytes)
        })
    }

    fn write_atomic_deferred(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let size = bytes.len() as u64;
        self.timed("vfs.stage", path, size, || {
            self.inner.write_atomic_deferred(path, bytes)
        })
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.timed("vfs.sync_file", path, 0, || self.inner.sync_file(path))
    }

    fn commit_atomic(&self, path: &Path) -> io::Result<()> {
        self.timed("vfs.commit", path, 0, || self.inner.commit_atomic(path))
    }

    fn sync_barrier(&self, paths: &[PathBuf]) -> Vec<io::Result<()>> {
        let flush = paths.len() == 1 && paths[0] == self.root;
        let cpu_start_ns = crate::host::process_cpu_ns();
        let start_ns = now_ns();
        let out = self.inner.sync_barrier(paths);
        let end_ns = now_ns();
        let cpu_end_ns = crate::host::process_cpu_ns();
        spans::record(Span {
            id: spans::new_id(),
            name: "vfs.barrier",
            start_ns,
            end_ns,
            parent: self.parent.load(Ordering::Relaxed),
            req: "daemon".into(),
            n: 1,
            size: paths.len() as u64,
        });
        self.barriers
            .lock()
            .expect("barrier marks are only pushed")
            .push(BarrierMark {
                start_ns,
                cpu_start_ns,
                end_ns,
                cpu_end_ns,
                flush,
            });
        out
    }
}

/// Per-replay clock shared by [`TimedAlg`] and [`TimedObserver`]: kernel
/// time, the gap between a plan and the next update (where probes or
/// bandit pulls run), and observer time, split by whether it fell inside
/// such a gap.
#[derive(Debug, Default, Clone)]
pub struct ReplayClock {
    /// The wrapped algorithm's name ("standard", "slate", "distributed").
    pub variant: &'static str,
    /// Summed `plan` time, ns.
    pub plan_ns: u64,
    /// Summed `update` time, ns.
    pub update_ns: u64,
    /// `plan` calls (rounds).
    pub rounds: u64,
    /// Summed plan-end → update-start (or → return) time, ns.
    pub gap_ns: u64,
    /// Summed observer time, ns.
    pub observer_ns: u64,
    /// Observer time that fell inside a gap, ns.
    pub observer_in_gap_ns: u64,
    /// Observer calls.
    pub observer_calls: u64,
    gap_open_at: Option<u64>,
}

impl ReplayClock {
    /// Close a gap left open by a final plan with no update (a repairing
    /// cycle breaks out before updating), at the replay's return.
    pub fn finish(&mut self, end_ns: u64) {
        if let Some(at) = self.gap_open_at.take() {
            self.gap_ns += end_ns.saturating_sub(at);
        }
    }
}

/// Shared handle on a [`ReplayClock`] (one replay runs on one thread).
pub type Clock = Rc<RefCell<ReplayClock>>;

/// Forwarding [`MwuAlgorithm`] that times `plan` and `update`.
#[derive(Debug)]
pub struct TimedAlg<A> {
    inner: A,
    clock: Clock,
}

impl<A: MwuAlgorithm> TimedAlg<A> {
    /// Wrap `inner`, accounting into `clock`.
    pub fn new(inner: A, clock: Clock) -> Self {
        clock.borrow_mut().variant = inner.name();
        TimedAlg { inner, clock }
    }
}

impl<A: MwuAlgorithm> MwuAlgorithm for TimedAlg<A> {
    fn num_arms(&self) -> usize {
        self.inner.num_arms()
    }

    fn plan(&mut self, rng: &mut SmallRng) -> &[usize] {
        let t0 = now_ns();
        let plan = self.inner.plan(rng);
        let t1 = now_ns();
        let mut c = self.clock.borrow_mut();
        c.plan_ns += t1 - t0;
        c.rounds += 1;
        c.gap_open_at = Some(t1);
        plan
    }

    fn update(&mut self, rewards: &[f64], rng: &mut SmallRng) {
        let t0 = now_ns();
        self.inner.update(rewards, rng);
        let t1 = now_ns();
        let mut c = self.clock.borrow_mut();
        c.update_ns += t1 - t0;
        if let Some(at) = c.gap_open_at.take() {
            c.gap_ns += t0.saturating_sub(at);
        }
    }

    fn leader(&self) -> usize {
        self.inner.leader()
    }

    fn leader_share(&self) -> f64 {
        self.inner.leader_share()
    }

    fn has_converged(&self) -> bool {
        self.inner.has_converged()
    }

    fn cpus_per_iteration(&self) -> usize {
        self.inner.cpus_per_iteration()
    }

    fn probabilities(&self) -> Vec<f64> {
        self.inner.probabilities()
    }

    fn probabilities_into(&self, out: &mut Vec<f64>) {
        self.inner.probabilities_into(out)
    }

    fn comm_stats(&self) -> CommStats {
        self.inner.comm_stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn variant(&self) -> Variant {
        self.inner.variant()
    }
}

/// Forwarding [`Observer`] that times every event call.
#[derive(Debug)]
pub struct TimedObserver<O> {
    inner: O,
    clock: Clock,
}

impl<O> TimedObserver<O> {
    /// Wrap `inner`, accounting into `clock`.
    pub fn new(inner: O, clock: Clock) -> Self {
        TimedObserver { inner, clock }
    }

    /// The wrapped observer.
    pub fn into_inner(self) -> O {
        self.inner
    }

    fn timed(&mut self, f: impl FnOnce(&mut O)) {
        let t0 = now_ns();
        f(&mut self.inner);
        let dt = now_ns() - t0;
        let mut c = self.clock.borrow_mut();
        c.observer_ns += dt;
        c.observer_calls += 1;
        if c.gap_open_at.is_some() {
            c.observer_in_gap_ns += dt;
        }
    }
}

impl<O: Observer> Observer for TimedObserver<O> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn on_event(&mut self, event: &TraceEvent) {
        self.timed(|o| o.on_event(event));
    }

    fn on_run_start(&mut self, e: RunStartEvent) {
        self.timed(|o| o.on_run_start(e));
    }

    fn on_iteration(&mut self, e: IterationEvent) {
        self.timed(|o| o.on_iteration(e));
    }

    fn on_convergence(&mut self, e: ConvergenceEvent) {
        self.timed(|o| o.on_convergence(e));
    }

    fn on_run_end(&mut self, outcome: RunOutcome) {
        self.timed(|o| o.on_run_end(outcome));
    }

    fn on_probe(&mut self, e: ProbeEvent) {
        self.timed(|o| o.on_probe(e));
    }

    fn on_repair(&mut self, e: RepairEvent) {
        self.timed(|o| o.on_repair(e));
    }

    fn on_faults(&mut self, e: FaultEvent) {
        self.timed(|o| o.on_faults(e));
    }

    fn on_storage(&mut self, e: StorageEvent) {
        self.timed(|o| o.on_storage(e));
    }

    fn on_cell_start(&mut self, e: CellStartEvent) {
        self.timed(|o| o.on_cell_start(e));
    }

    fn on_replicate(&mut self, e: ReplicateEvent) {
        self.timed(|o| o.on_replicate(e));
    }

    fn on_cell_end(&mut self, e: CellEndEvent) {
        self.timed(|o| o.on_cell_end(e));
    }
}
