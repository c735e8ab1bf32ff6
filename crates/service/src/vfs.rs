//! The storage seam, its implementations, and deterministic storage-fault
//! injection.
//!
//! Every durable byte in the workspace — the daemon's spool, each
//! session's trace, `session.json` (which carries the session's
//! checkpoint), `report.json` and `quarantine.json` — goes through the
//! [`Vfs`] trait: coarse, whole-operation primitives (append, atomic
//! replace, truncate, read, remove) rather than file handles, so a fault
//! adversary can interpose on exactly the operations whose failure modes
//! matter for the durability contract.
//!
//! There is one durability discipline, the staged epoch:
//! [`Vfs::append_deferred`] / [`Vfs::write_atomic_deferred`] put bytes on
//! disk without waiting for durability, [`Vfs::sync_barrier`] makes every
//! staged byte durable in one batched pass, and [`Vfs::commit_atomic`]
//! then publishes staged replaces by renaming `<path>.tmp` over `path`.
//! The crash-order contract is the caller's: never commit a replace whose
//! content (or the data it vouches for) has not passed a barrier. The
//! one-shot methods ([`Vfs::write_atomic`], [`Vfs::truncate_sync`],
//! [`Vfs::append_sync`]) are an epoch of one write, durable on return.
//!
//! Two implementations:
//!
//! * [`RealVfs`] — a passthrough to `std::fs` with the workspace's
//!   crash-ordering discipline (staged writes made durable by one
//!   `syncfs(2)` barrier; tmp + fsync + rename + parent-dir fsync for
//!   one-shot atomic replaces).
//! * [`FaultVfs`] — a hostile disk driven by a [`StorageFaultPlan`], the
//!   storage analogue of `simnet::FaultPlan`: every decision is a
//!   **pure keyed hash** of `(seed, path, op, attempt)`, where `attempt`
//!   is the per-`(path, op)` call ordinal. Because each session's
//!   operation sequence on its own files is deterministic, the injected
//!   fault schedule is too — independent of thread count, scheduling, or
//!   how many other tenants share the daemon. That is what lets the
//!   torture harness certify byte-identity of surviving sessions under
//!   any fault schedule.
//!
//! Fault classes (see [`StorageFaultConfig`]):
//!
//! * **EIO** — the operation fails with an I/O error and no side effect.
//!   Transient: the retry's next draw is independent.
//! * **ENOSPC** — write-class operations fail with "no space"; also
//!   transient (space "frees up" on a later draw).
//! * **Torn write** — an append or tmp-file write persists only a prefix
//!   of the bytes, then fails. Recovery must truncate and re-append.
//! * **Fsync lie, then crash** — the scariest class: the operation
//!   *reports success* but the tail of the data never reaches disk, and
//!   the device then fails persistently (as after a hostile remount).
//!   Every later operation under the same parent directory returns EIO
//!   until the fault plan is discarded (a new daemon generation), so the
//!   lie is always followed by the "crash" that exposes it — exactly the
//!   only scenario in which a lying fsync is observable.
//! * **Slowdown** — the operation succeeds after an injected stall
//!   (exercises retry/backoff timing without changing any bytes).
//!
//! [`with_retries`] is the shared bounded-exponential-backoff retry loop,
//! scheduled by a [`RetryPolicy`]; callers that exhaust it get a
//! [`StorageFailure`] carrying the full per-attempt error chain for the
//! quarantine post-mortem.

use mwu_core::rng::splitmix64;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The storage layer sessions and the daemon write through.
///
/// All methods are whole operations: they open, act, fsync, and close
/// internally, so implementations can fail (or lie) at any boundary
/// without leaking handles into the caller.
pub trait Vfs: fmt::Debug + Send + Sync {
    /// Create `path` and all missing ancestors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Read the whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Append `bytes` (creating the file if missing) and make them
    /// durable: an epoch of one staged append.
    fn append_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.append_deferred(path, bytes)?;
        self.sync_file(path)
    }
    /// Truncate (creating if missing) to `len` bytes and fsync.
    fn truncate_sync(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Current length in bytes; `Ok(0)` for a missing file.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
    /// Atomically and durably replace `path` with `bytes`: write
    /// `<path>.tmp`, fsync, rename over `path`, fsync the parent
    /// directory.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Remove a directory and everything under it.
    fn remove_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Does the path exist? (Metadata errors read as absent; existence
    /// probes are not fault-injected — only acting on the path is.)
    fn exists(&self, path: &Path) -> bool;
    /// Total faults injected so far (0 for non-injecting implementations).
    fn injected_faults(&self) -> u64 {
        0
    }

    /// Stage an append (creating the file if missing) without fsync; a
    /// later [`Vfs::sync_barrier`] or [`Vfs::sync_file`] makes it
    /// durable.
    fn append_deferred(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Stage an atomic replace: write `<path>.tmp` without fsync and
    /// without renaming. Commit order is `sync_barrier` (content
    /// durable) then [`Vfs::commit_atomic`] (rename).
    fn write_atomic_deferred(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Make one staged path durable (fsync; directories allowed). The
    /// barrier's per-path retry primitive.
    fn sync_file(&self, path: &Path) -> io::Result<()>;

    /// Finish a staged atomic replace by renaming `<path>.tmp` over
    /// `path`. Only call after the tmp content passed a barrier.
    fn commit_atomic(&self, path: &Path) -> io::Result<()>;

    /// Make every staged write durable in one batched pass; one result
    /// per path, index-aligned.
    fn sync_barrier(&self, paths: &[PathBuf]) -> Vec<io::Result<()>>;
}

/// `<path>.tmp` — the staging name every atomic replace goes through.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// The storage operations the service layer performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StorageOp {
    /// `create_dir_all`.
    CreateDir,
    /// Whole-file read.
    Read,
    /// Append bytes (staged, or durable for a one-shot append).
    Append,
    /// Truncate (or create) to a length and fsync.
    Truncate,
    /// File length query.
    Len,
    /// Atomic durable replace (tmp + fsync + rename + parent fsync).
    AtomicWrite,
    /// Remove a file.
    Remove,
    /// Remove a directory tree.
    RemoveDir,
    /// Barrier-time fsync of one staged file (group commit).
    SyncFile,
    /// Barrier-time rename finishing a staged atomic replace.
    Rename,
}

impl StorageOp {
    /// Stable lowercase name (used in post-mortems and fault keying).
    pub fn name(self) -> &'static str {
        match self {
            StorageOp::CreateDir => "create_dir",
            StorageOp::Read => "read",
            StorageOp::Append => "append",
            StorageOp::Truncate => "truncate",
            StorageOp::Len => "len",
            StorageOp::AtomicWrite => "atomic_write",
            StorageOp::Remove => "remove",
            StorageOp::RemoveDir => "remove_dir",
            StorageOp::SyncFile => "sync_file",
            StorageOp::Rename => "rename",
        }
    }

    /// Does this operation write (and therefore draw ENOSPC faults)?
    fn writes(self) -> bool {
        matches!(
            self,
            StorageOp::CreateDir | StorageOp::Append | StorageOp::Truncate | StorageOp::AtomicWrite
        )
    }
}

/// Passthrough to `std::fs` with the workspace durability discipline.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn truncate_sync(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        f.set_len(len)?;
        let _span = mwu_core::prof::span(mwu_core::prof::Phase::Fsync);
        f.sync_all()
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        match std::fs::metadata(path) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = tmp_path(path);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            let _span = mwu_core::prof::span(mwu_core::prof::Phase::Fsync);
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        let _span = mwu_core::prof::span(mwu_core::prof::Phase::Fsync);
        sync_parent_dir(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn append_deferred(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)?;
        f.write_all(bytes)
    }

    fn write_atomic_deferred(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::File::create(tmp_path(path))?;
        f.write_all(bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let _span = mwu_core::prof::span(mwu_core::prof::Phase::SyncBarrier);
        std::fs::File::open(path)?.sync_all()
    }

    fn commit_atomic(&self, path: &Path) -> io::Result<()> {
        if SYNCFS {
            // The next barrier (and the daemon's end-of-run flush) makes
            // the rename durable; a lost rename replays one slice
            // byte-identically.
            commit_deferred(&UNSYNCED_RENAMES, path)
        } else {
            commit_synced(path)
        }
    }

    fn sync_barrier(&self, paths: &[PathBuf]) -> Vec<io::Result<()>> {
        barrier(&UNSYNCED_RENAMES, paths)
    }
}

/// Whether [`RealVfs`] barriers issue one `syncfs(2)`: only on the target
/// [`syncfs_covering`] has a raw syscall for. Elsewhere every barrier is
/// per-file ([`sync_each`]) and syncs only the parents of staged paths, so
/// `commit_atomic` must fsync each rename's directory itself
/// ([`commit_synced`]), or a rename after the last barrier stays volatile.
const SYNCFS: bool = cfg!(all(target_os = "linux", target_arch = "x86_64"));

/// Directories of the renames [`RealVfs::commit_atomic`] left to the next
/// barrier. `RealVfs` is a unit struct, so the process keeps one list.
/// Each update (one push, or taking the whole list) leaves it valid, so a
/// lock poisoned by a panicking holder is recovered, not propagated.
static UNSYNCED_RENAMES: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// Rename `<path>.tmp` over `path` and record its directory in
/// `renames`, for the next [`barrier`] to make durable.
fn commit_deferred(renames: &Mutex<Vec<PathBuf>>, path: &Path) -> io::Result<()> {
    std::fs::rename(tmp_path(path), path)?;
    let dir = parent_dir(path).to_path_buf();
    renames.lock().unwrap_or_else(|e| e.into_inner()).push(dir);
    Ok(())
}

/// One barrier over the staged `paths`. A single `syncfs(2)` covers every
/// staged write and recorded rename on the filesystem in one batched pass
/// — the O(1) group commit. Where that is unavailable or fails at run
/// time (ENOSYS under a seccomp filter, EIO), the per-file pass fsyncs the
/// staged paths and the directories of the renames recorded in `renames`.
/// The record is taken before the `syncfs`, so a rename recorded while it
/// runs waits for the next barrier.
fn barrier(renames: &Mutex<Vec<PathBuf>>, paths: &[PathBuf]) -> Vec<io::Result<()>> {
    if paths.is_empty() {
        return Vec::new();
    }
    let renamed = std::mem::take(&mut *renames.lock().unwrap_or_else(|e| e.into_inner()));
    if SYNCFS {
        let _span = mwu_core::prof::span(mwu_core::prof::Phase::SyncBarrier);
        if syncfs_covering(&paths[0]).is_ok() {
            return paths.iter().map(|_| Ok(())).collect();
        }
    }
    sync_each(paths, &renamed, renames)
}

/// The per-file barrier: fsync each staged path, then once each distinct
/// directory among their parents and `renamed`. One result per path,
/// index-aligned. A parent's fsync is best effort. A renamed directory
/// is one no other call will sync: if its fsync fails, it goes back on
/// `renames` for the next barrier and every path fails, so the caller
/// retries or quarantines as for any failed sync.
fn sync_each(
    paths: &[PathBuf],
    renamed: &[PathBuf],
    renames: &Mutex<Vec<PathBuf>>,
) -> Vec<io::Result<()>> {
    let mut results: Vec<io::Result<()>> = paths.iter().map(|p| RealVfs.sync_file(p)).collect();
    let mut dirs: Vec<&Path> = paths
        .iter()
        .filter_map(|p| p.parent())
        .filter(|p| !p.as_os_str().is_empty())
        .chain(renamed.iter().map(PathBuf::as_path))
        .collect();
    dirs.sort_unstable();
    dirs.dedup();
    for dir in dirs {
        let _span = mwu_core::prof::span(mwu_core::prof::Phase::SyncBarrier);
        let Err(e) = sync_dir(dir) else { continue };
        if !renamed.iter().any(|r| r == dir) {
            continue;
        }
        renames
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(dir.to_path_buf());
        for r in results.iter_mut().filter(|r| r.is_ok()) {
            let msg = format!("fsync of renamed directory {}: {e}", dir.display());
            *r = Err(io::Error::new(e.kind(), msg));
        }
    }
    results
}

/// The per-file commit: rename `<path>.tmp` over `path`, then fsync the
/// directory so the rename is durable without a later barrier.
fn commit_synced(path: &Path) -> io::Result<()> {
    std::fs::rename(tmp_path(path), path)?;
    let _span = mwu_core::prof::span(mwu_core::prof::Phase::SyncBarrier);
    sync_parent_dir(path)
}

/// `syncfs(2)` on the filesystem holding `path`: flushes every dirty
/// page and metadata entry of that filesystem to disk in one pass. The
/// workspace has no `libc` stub, so the syscall is issued directly. It is
/// compiled exactly where [`SYNCFS`] holds; the stub elsewhere reports
/// `Unsupported` and is never called.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[allow(unsafe_code)] // raw syscall: std has no syncfs and there is no libc stub
fn syncfs_covering(path: &Path) -> io::Result<()> {
    use std::os::unix::io::AsRawFd;
    const SYS_SYNCFS: u64 = 306;
    #[cfg(test)]
    if tests::SYNCFS_FAILS.with(std::cell::Cell::get) {
        const ENOSYS: i32 = 38;
        return Err(io::Error::from_raw_os_error(ENOSYS));
    }
    let f = std::fs::File::open(path)?;
    let mut ret: i64 = SYS_SYNCFS as i64;
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") ret,
            in("rdi") f.as_raw_fd() as u64,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(())
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn syncfs_covering(_path: &Path) -> io::Result<()> {
    Err(io::Error::from(io::ErrorKind::Unsupported))
}

/// Fsync the directory containing `path`, making a just-completed rename
/// durable: until the directory inode is synced, a power loss can roll
/// the entry back even though the file data itself was fsynced.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    sync_dir(parent_dir(path))
}

/// Fsync the directory `dir`, making the renames within it durable. Off
/// unix, directory handles are not portably syncable; a rename stays
/// atomic, just not guaranteed durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(test)]
    {
        tests::DIRS_SYNCED.with(|d| d.borrow_mut().push(dir.to_path_buf()));
        if tests::DIR_FSYNC_FAILS.with(std::cell::Cell::get) {
            const EIO: i32 = 5;
            return Err(io::Error::from_raw_os_error(EIO));
        }
    }
    if !cfg!(unix) {
        return Ok(());
    }
    std::fs::File::open(dir)?.sync_all()
}

/// The directory holding `path`; `.` for a bare name.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Per-class storage-fault probabilities (all default 0, like
/// `simnet::faults::FaultConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageFaultConfig {
    /// Probability an operation fails with EIO (no side effect).
    pub eio_rate: f64,
    /// Probability a write-class operation fails with ENOSPC.
    pub enospc_rate: f64,
    /// Probability an append / tmp write persists a prefix then fails.
    pub torn_rate: f64,
    /// Probability an append / atomic write lies (reports success,
    /// loses the tail) and the device then fails persistently.
    pub fsync_lie_rate: f64,
    /// Probability an operation is stalled before succeeding.
    pub slow_rate: f64,
    /// Stall length for slow operations, microseconds.
    pub slow_us: u64,
}

impl Default for StorageFaultConfig {
    fn default() -> Self {
        Self {
            eio_rate: 0.0,
            enospc_rate: 0.0,
            torn_rate: 0.0,
            fsync_lie_rate: 0.0,
            slow_rate: 0.0,
            slow_us: 50,
        }
    }
}

impl StorageFaultConfig {
    /// A transient-EIO-only adversary.
    pub fn eio(rate: f64) -> Self {
        Self {
            eio_rate: rate,
            ..Self::default()
        }
    }

    /// A mixed adversary: EIO at `rate`, ENOSPC and torn writes at half,
    /// slowdowns at half, fsync lies at a tenth.
    pub fn mixed(rate: f64) -> Self {
        Self {
            eio_rate: rate,
            enospc_rate: rate / 2.0,
            torn_rate: rate / 2.0,
            fsync_lie_rate: rate / 10.0,
            slow_rate: rate / 2.0,
            ..Self::default()
        }
    }

    /// Torn-write-heavy adversary (crash-ordering stress).
    pub fn torn(rate: f64) -> Self {
        Self {
            torn_rate: rate,
            ..Self::default()
        }
    }

    /// Fsync-lie-heavy adversary (durability stress).
    pub fn lies(rate: f64) -> Self {
        Self {
            fsync_lie_rate: rate,
            ..Self::default()
        }
    }

    /// The adversary named `class` (`eio`, `mixed`, `torn` or `lies`) at
    /// `rate`; `None` for any other name.
    pub fn named(class: &str, rate: f64) -> Option<Self> {
        match class {
            "eio" => Some(Self::eio(rate)),
            "mixed" => Some(Self::mixed(rate)),
            "torn" => Some(Self::torn(rate)),
            "lies" => Some(Self::lies(rate)),
            _ => None,
        }
    }

    /// Are all rates zero?
    pub fn is_quiescent(&self) -> bool {
        self.eio_rate == 0.0
            && self.enospc_rate == 0.0
            && self.torn_rate == 0.0
            && self.fsync_lie_rate == 0.0
            && self.slow_rate == 0.0
    }

    fn validate(&self) {
        for (name, r) in [
            ("eio_rate", self.eio_rate),
            ("enospc_rate", self.enospc_rate),
            ("torn_rate", self.torn_rate),
            ("fsync_lie_rate", self.fsync_lie_rate),
            ("slow_rate", self.slow_rate),
        ] {
            assert!((0.0..=1.0).contains(&r), "{name} {r} outside [0, 1]");
        }
    }
}

/// What the plan decided for one storage operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StorageFault {
    /// Perform normally.
    None,
    /// Fail with EIO, no side effect.
    Eio,
    /// Fail with ENOSPC, no side effect.
    Enospc,
    /// Persist this fraction of the bytes, then fail with EIO.
    Torn(f64),
    /// Report success, persist this fraction, then fail persistently.
    FsyncLie(f64),
    /// Stall this many microseconds, then perform normally.
    Slow(u64),
}

/// Label-space tags keeping the per-class decision streams disjoint
/// (same construction as `simnet::faults`).
const TAG_EIO: u64 = 0xD150_0001;
const TAG_ENOSPC: u64 = 0xD150_0002;
const TAG_TORN: u64 = 0xD150_0003;
const TAG_TORN_LEN: u64 = 0xD150_0004;
const TAG_LIE: u64 = 0xD150_0005;
const TAG_LIE_LEN: u64 = 0xD150_0006;
const TAG_SLOW: u64 = 0xD150_0007;

/// A deterministic storage-fault schedule: seed + rates, no mutable
/// state. Every decision is a pure function of
/// `(seed, path, op, attempt)`, so the plan can be shared across threads
/// and re-queried freely without perturbing the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageFaultPlan {
    seed: u64,
    config: StorageFaultConfig,
}

impl StorageFaultPlan {
    /// Plan over `config`, keyed by `seed`.
    ///
    /// # Panics
    /// Panics on rates outside `[0, 1]`.
    pub fn new(seed: u64, config: StorageFaultConfig) -> Self {
        config.validate();
        Self { seed, config }
    }

    /// The fault-free plan.
    pub fn quiescent() -> Self {
        Self::new(0, StorageFaultConfig::default())
    }

    /// The configuration in force.
    pub fn config(&self) -> &StorageFaultConfig {
        &self.config
    }

    /// The seed in force.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn hash(&self, tag: u64, path_hash: u64, op: StorageOp, attempt: u32) -> u64 {
        let mut acc = splitmix64(self.seed ^ 0x5106_F417_B1A5_D15C);
        for l in [tag, path_hash, op as u64, attempt as u64] {
            acc = splitmix64(acc ^ l.rotate_left(17));
        }
        splitmix64(acc)
    }

    fn uniform(&self, tag: u64, path_hash: u64, op: StorageOp, attempt: u32) -> f64 {
        (self.hash(tag, path_hash, op, attempt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn bernoulli(&self, p: f64, tag: u64, path_hash: u64, op: StorageOp, attempt: u32) -> bool {
        p > 0.0 && self.uniform(tag, path_hash, op, attempt) < p
    }

    /// Fraction in `[0.25, 1)` of a torn/lied write that reaches disk.
    fn keep_fraction(&self, tag: u64, path_hash: u64, op: StorageOp, attempt: u32) -> f64 {
        0.25 + 0.75 * self.uniform(tag, path_hash, op, attempt)
    }

    /// The fate of call number `attempt` of `op` on `path`. Classes are
    /// drawn in severity order (lie, torn, EIO, ENOSPC, slow); classes
    /// that do not apply to `op` fall through to the next.
    pub fn decide(&self, path: &Path, op: StorageOp, attempt: u32) -> StorageFault {
        let ph = hash_path(path);
        let lies_apply = matches!(op, StorageOp::Append | StorageOp::AtomicWrite);
        if lies_apply && self.bernoulli(self.config.fsync_lie_rate, TAG_LIE, ph, op, attempt) {
            return StorageFault::FsyncLie(self.keep_fraction(TAG_LIE_LEN, ph, op, attempt));
        }
        if lies_apply && self.bernoulli(self.config.torn_rate, TAG_TORN, ph, op, attempt) {
            return StorageFault::Torn(self.keep_fraction(TAG_TORN_LEN, ph, op, attempt));
        }
        if self.bernoulli(self.config.eio_rate, TAG_EIO, ph, op, attempt) {
            return StorageFault::Eio;
        }
        if op.writes() && self.bernoulli(self.config.enospc_rate, TAG_ENOSPC, ph, op, attempt) {
            return StorageFault::Enospc;
        }
        if self.bernoulli(self.config.slow_rate, TAG_SLOW, ph, op, attempt) {
            return StorageFault::Slow(self.config.slow_us);
        }
        StorageFault::None
    }
}

/// Fold a path's bytes into one u64 label with the SplitMix64 chain.
fn hash_path(path: &Path) -> u64 {
    let bytes = path.to_string_lossy();
    let bytes = bytes.as_bytes();
    let mut acc = splitmix64(bytes.len() as u64 ^ 0x9E37_79B9);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        acc = splitmix64(acc ^ u64::from_le_bytes(word));
    }
    acc
}

/// A hostile disk: [`RealVfs`] behind a [`StorageFaultPlan`].
///
/// The only mutable state is bookkeeping that is itself deterministic
/// given the callers' deterministic operation sequences: a per-
/// `(path, op)` call counter (the `attempt` label, so retries redraw
/// independently) and the set of directories killed by an fsync lie.
/// Each session touches only paths under its own directory, so the
/// schedule one session experiences is independent of every other
/// session and of thread interleaving.
#[derive(Debug)]
pub struct FaultVfs {
    plan: StorageFaultPlan,
    inner: RealVfs,
    /// Schedule paths relative to this root (see [`FaultVfs::rooted`]).
    root: Option<PathBuf>,
    calls: Mutex<HashMap<(PathBuf, StorageOp), u32>>,
    /// Directories whose subtree fails persistently (post-fsync-lie).
    dead: Mutex<Vec<PathBuf>>,
    /// Paths whose *staged* write drew an fsync lie: the stage call
    /// already lost the tail, and the next barrier sync / commit on the
    /// path reports success then kills the directory — a lying fsync
    /// observed mid-barrier.
    lied: Mutex<Vec<PathBuf>>,
    injected: AtomicU64,
}

impl FaultVfs {
    /// A hostile disk driven by `plan`, keyed by absolute paths.
    pub fn new(plan: StorageFaultPlan) -> Self {
        Self {
            plan,
            inner: RealVfs,
            root: None,
            calls: Mutex::new(HashMap::new()),
            dead: Mutex::new(Vec::new()),
            lied: Mutex::new(Vec::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// A hostile disk whose schedule is keyed by paths *relative to
    /// `root`* ("tenants/acme/job-1/trace.jsonl" instead of the absolute
    /// path). This makes the fault schedule independent of where the
    /// work directory happens to live — the property that lets the
    /// torture sweep and the fault tests pin exact quarantine sets
    /// across machines and process ids.
    pub fn rooted(plan: StorageFaultPlan, root: impl Into<PathBuf>) -> Self {
        let mut vfs = Self::new(plan);
        vfs.root = Some(root.into());
        vfs
    }

    /// The plan in force.
    pub fn plan(&self) -> &StorageFaultPlan {
        &self.plan
    }

    fn next_attempt(&self, path: &Path, op: StorageOp) -> u32 {
        let mut calls = self.calls.lock().unwrap();
        let n = calls.entry((path.to_path_buf(), op)).or_insert(0);
        let attempt = *n;
        *n = n.wrapping_add(1);
        attempt
    }

    /// Persistent failure for paths under a lied-to directory.
    fn guard_dead(&self, path: &Path) -> io::Result<()> {
        let dead = self.dead.lock().unwrap();
        if dead.iter().any(|d| path.starts_with(d)) {
            return Err(io::Error::other(
                "injected: device failed after lost write (fsync lie)",
            ));
        }
        Ok(())
    }

    fn mark_dead(&self, path: &Path) {
        let dir = path.parent().unwrap_or(Path::new(".")).to_path_buf();
        let mut dead = self.dead.lock().unwrap();
        if !dead.contains(&dir) {
            dead.push(dir);
        }
    }

    fn count(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }

    /// The path the schedule sees: relative to `root` when rooted.
    fn plan_path<'a>(&self, path: &'a Path) -> &'a Path {
        match &self.root {
            Some(root) => path.strip_prefix(root).unwrap_or(path),
            None => path,
        }
    }

    fn decide(&self, path: &Path, op: StorageOp) -> io::Result<StorageFault> {
        self.guard_dead(path)?;
        let attempt = self.next_attempt(path, op);
        let fault = self.plan.decide(self.plan_path(path), op, attempt);
        match fault {
            StorageFault::None => {}
            StorageFault::Slow(us) => {
                self.count();
                std::thread::sleep(std::time::Duration::from_micros(us));
            }
            _ => self.count(),
        }
        Ok(fault)
    }

    fn keep_len(bytes: &[u8], fraction: f64) -> usize {
        ((bytes.len() as f64 * fraction) as usize).min(bytes.len())
    }

    fn record_lie(&self, path: &Path) {
        self.lied.lock().unwrap().push(path.to_path_buf());
    }

    /// Consume a pending staged-write lie on `path`, if any.
    fn take_lie(&self, path: &Path) -> bool {
        let mut lied = self.lied.lock().unwrap();
        match lied.iter().position(|p| p == path) {
            Some(i) => {
                lied.remove(i);
                true
            }
            None => false,
        }
    }
}

fn eio(what: &str) -> io::Error {
    io::Error::other(format!("injected EIO: {what}"))
}

fn enospc(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::StorageFull,
        format!("injected ENOSPC: {what}"),
    )
}

impl Vfs for FaultVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.decide(path, StorageOp::CreateDir)? {
            StorageFault::Eio | StorageFault::Torn(_) | StorageFault::FsyncLie(_) => {
                Err(eio("create_dir"))
            }
            StorageFault::Enospc => Err(enospc("create_dir")),
            StorageFault::None | StorageFault::Slow(_) => self.inner.create_dir_all(path),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.decide(path, StorageOp::Read)? {
            StorageFault::Eio | StorageFault::Torn(_) | StorageFault::FsyncLie(_) => {
                Err(eio("read"))
            }
            StorageFault::Enospc | StorageFault::None | StorageFault::Slow(_) => {
                self.inner.read(path)
            }
        }
    }

    fn truncate_sync(&self, path: &Path, len: u64) -> io::Result<()> {
        match self.decide(path, StorageOp::Truncate)? {
            StorageFault::Eio | StorageFault::Torn(_) | StorageFault::FsyncLie(_) => {
                Err(eio("truncate"))
            }
            StorageFault::Enospc => Err(enospc("truncate")),
            StorageFault::None | StorageFault::Slow(_) => self.inner.truncate_sync(path, len),
        }
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        match self.decide(path, StorageOp::Len)? {
            StorageFault::Eio | StorageFault::Torn(_) | StorageFault::FsyncLie(_) => {
                Err(eio("len"))
            }
            StorageFault::Enospc | StorageFault::None | StorageFault::Slow(_) => {
                self.inner.file_len(path)
            }
        }
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.decide(path, StorageOp::AtomicWrite)? {
            StorageFault::Eio => Err(eio("atomic write")),
            StorageFault::Enospc => Err(enospc("atomic write")),
            StorageFault::Torn(keep) => {
                // The crash hits mid-tmp-write: an orphaned partial
                // `<path>.tmp` is left behind and the final file is
                // untouched (the startup sweep's job to clean).
                let torn = &bytes[..Self::keep_len(bytes, keep)];
                let _ = std::fs::write(tmp_path(path), torn);
                Err(eio("atomic write torn in tmp file"))
            }
            StorageFault::FsyncLie(_) => {
                // The rename "succeeded" but the directory entry was
                // rolled back by the crash: the old content survives and
                // the device dies under the caller.
                self.mark_dead(path);
                Ok(())
            }
            StorageFault::None | StorageFault::Slow(_) => self.inner.write_atomic(path, bytes),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.decide(path, StorageOp::Remove)? {
            StorageFault::Eio | StorageFault::Torn(_) | StorageFault::FsyncLie(_) => {
                Err(eio("remove"))
            }
            StorageFault::Enospc | StorageFault::None | StorageFault::Slow(_) => {
                self.inner.remove_file(path)
            }
        }
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.decide(path, StorageOp::RemoveDir)? {
            StorageFault::Eio | StorageFault::Torn(_) | StorageFault::FsyncLie(_) => {
                Err(eio("remove_dir"))
            }
            StorageFault::Enospc | StorageFault::None | StorageFault::Slow(_) => {
                self.inner.remove_dir_all(path)
            }
        }
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn append_deferred(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.decide(path, StorageOp::Append)? {
            StorageFault::Eio => Err(eio("append")),
            StorageFault::Enospc => Err(enospc("append")),
            StorageFault::Torn(keep) => {
                let _ = self
                    .inner
                    .append_deferred(path, &bytes[..Self::keep_len(bytes, keep)]);
                Err(eio("append torn mid-write"))
            }
            StorageFault::FsyncLie(keep) => {
                // The stage call loses the tail silently; the lie
                // surfaces at the barrier (see [`Vfs::sync_barrier`]),
                // where the sync "succeeds" and the device then dies.
                let _ = self
                    .inner
                    .append_deferred(path, &bytes[..Self::keep_len(bytes, keep)]);
                self.record_lie(path);
                Ok(())
            }
            StorageFault::None | StorageFault::Slow(_) => self.inner.append_deferred(path, bytes),
        }
    }

    fn write_atomic_deferred(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.decide(path, StorageOp::AtomicWrite)? {
            StorageFault::Eio => Err(eio("atomic write")),
            StorageFault::Enospc => Err(enospc("atomic write")),
            StorageFault::Torn(keep) => {
                let torn = &bytes[..Self::keep_len(bytes, keep)];
                let _ = std::fs::write(tmp_path(path), torn);
                Err(eio("atomic write torn in tmp file"))
            }
            StorageFault::FsyncLie(_) => {
                // The staged tmp is written, but the commit-time rename
                // will "succeed" without landing: old content survives
                // and the device dies (see [`Vfs::commit_atomic`]).
                let _ = self.inner.write_atomic_deferred(path, bytes);
                self.record_lie(path);
                Ok(())
            }
            StorageFault::None | StorageFault::Slow(_) => {
                self.inner.write_atomic_deferred(path, bytes)
            }
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        if self.take_lie(path) {
            self.mark_dead(path);
            return Ok(());
        }
        match self.decide(path, StorageOp::SyncFile)? {
            StorageFault::Eio | StorageFault::Torn(_) | StorageFault::FsyncLie(_) => {
                Err(eio("sync_file"))
            }
            StorageFault::Enospc | StorageFault::None | StorageFault::Slow(_) => {
                self.inner.sync_file(path)
            }
        }
    }

    fn commit_atomic(&self, path: &Path) -> io::Result<()> {
        if self.take_lie(path) {
            // The rename "succeeded" but never landed: the old content
            // survives under a now-dead device.
            self.mark_dead(path);
            return Ok(());
        }
        match self.decide(path, StorageOp::Rename)? {
            StorageFault::Eio | StorageFault::Torn(_) | StorageFault::FsyncLie(_) => {
                Err(eio("rename"))
            }
            StorageFault::Enospc | StorageFault::None | StorageFault::Slow(_) => {
                self.inner.commit_atomic(path)
            }
        }
    }

    fn sync_barrier(&self, paths: &[PathBuf]) -> Vec<io::Result<()>> {
        // Draw per-path fates first (keeps the schedule keyed on paths,
        // independent of how the daemon batches them), then one batched
        // inner pass over the clean survivors.
        let mut results: Vec<io::Result<()>> = Vec::with_capacity(paths.len());
        let mut clean = Vec::new();
        let mut clean_idx = Vec::new();
        for (i, p) in paths.iter().enumerate() {
            if self.take_lie(p) {
                self.mark_dead(p);
                results.push(Ok(()));
                continue;
            }
            match self.decide(p, StorageOp::SyncFile) {
                Err(e) => results.push(Err(e)),
                Ok(StorageFault::Eio | StorageFault::Torn(_) | StorageFault::FsyncLie(_)) => {
                    results.push(Err(eio("sync_barrier")))
                }
                Ok(StorageFault::Enospc | StorageFault::None | StorageFault::Slow(_)) => {
                    results.push(Ok(()));
                    clean_idx.push(i);
                    clean.push(p.clone());
                }
            }
        }
        for (k, r) in self.inner.sync_barrier(&clean).into_iter().enumerate() {
            if r.is_err() {
                results[clean_idx[k]] = r;
            }
        }
        results
    }
}

/// A storage operation that kept failing through every retry: the raw
/// material of a quarantine post-mortem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageFailure {
    /// Which operation failed.
    pub op: StorageOp,
    /// The path it failed on.
    pub path: String,
    /// Attempts made (original + retries).
    pub attempts: u32,
    /// Per-attempt error messages, first to last.
    pub errors: Vec<String>,
}

impl fmt::Display for StorageFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {:?} failed after {} attempts (last: {})",
            self.op.name(),
            self.path,
            self.attempts,
            self.errors.last().map(String::as_str).unwrap_or("?"),
        )
    }
}

impl std::error::Error for StorageFailure {}

/// How [`with_retries`] retries a transient storage failure: at most
/// `max_attempts` retries after the first try, with exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt (0 disables retry).
    pub max_attempts: u32,
    /// Backoff base, in milliseconds.
    pub base_delay: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay: 1,
        }
    }
}

impl RetryPolicy {
    /// Milliseconds to sleep before retry `attempt` (1-based):
    /// `base_delay · 2^(attempt−1)`, capped at 50 ms so hostile-disk tests
    /// stay fast.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let base = u64::from(self.base_delay.max(1));
        (base << attempt.saturating_sub(1).min(16)).min(50)
    }
}

/// Run `f` under `policy`: one attempt, then up to `max_attempts` retries
/// after [`RetryPolicy::backoff_ms`] each, `retries` incremented once per
/// retry performed. Exhaustion returns the full error chain as a
/// [`StorageFailure`].
pub fn with_retries<T>(
    policy: &RetryPolicy,
    op: StorageOp,
    path: &Path,
    retries: &mut u64,
    mut f: impl FnMut() -> io::Result<T>,
) -> Result<T, StorageFailure> {
    let attempts = policy.max_attempts.saturating_add(1);
    let mut errors = Vec::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            *retries += 1;
            let ms = policy.backoff_ms(attempt);
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        match f() {
            Ok(v) => return Ok(v),
            Err(e) => errors.push(format!("attempt {}: {e}", attempt + 1)),
        }
    }
    Err(StorageFailure {
        op,
        path: path.display().to_string(),
        attempts,
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// Makes this thread's `syncfs(2)` attempts fail with ENOSYS, as
        /// under a seccomp filter.
        pub(super) static SYNCFS_FAILS: Cell<bool> = const { Cell::new(false) };
        /// Makes this thread's directory fsyncs fail with EIO.
        pub(super) static DIR_FSYNC_FAILS: Cell<bool> = const { Cell::new(false) };
        /// Directories this thread fsynced (or tried to), in order.
        pub(super) static DIRS_SYNCED: RefCell<Vec<PathBuf>> = const { RefCell::new(Vec::new()) };
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mwrd-vfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn quiescent_plan_injects_nothing() {
        let p = StorageFaultPlan::quiescent();
        for attempt in 0..100 {
            for op in [
                StorageOp::Read,
                StorageOp::Append,
                StorageOp::AtomicWrite,
                StorageOp::Remove,
            ] {
                assert_eq!(
                    p.decide(Path::new("a/b/c.json"), op, attempt),
                    StorageFault::None
                );
            }
        }
    }

    #[test]
    fn named_classes_match_their_constructors() {
        let named = |class| StorageFaultConfig::named(class, 0.3);
        assert_eq!(named("eio"), Some(StorageFaultConfig::eio(0.3)));
        assert_eq!(named("mixed"), Some(StorageFaultConfig::mixed(0.3)));
        assert_eq!(named("torn"), Some(StorageFaultConfig::torn(0.3)));
        assert_eq!(named("lies"), Some(StorageFaultConfig::lies(0.3)));
        assert_eq!(named("Mixed"), None);
    }

    #[test]
    fn decisions_are_pure_and_deterministic() {
        let a = StorageFaultPlan::new(7, StorageFaultConfig::mixed(0.4));
        let b = StorageFaultPlan::new(7, StorageFaultConfig::mixed(0.4));
        for attempt in 0..200 {
            assert_eq!(
                a.decide(Path::new("t/x/trace.jsonl"), StorageOp::Append, attempt),
                b.decide(Path::new("t/x/trace.jsonl"), StorageOp::Append, attempt),
            );
        }
        let c = StorageFaultPlan::new(8, StorageFaultConfig::mixed(0.4));
        let fates_a: Vec<_> = (0..200)
            .map(|n| a.decide(Path::new("p"), StorageOp::Append, n))
            .collect();
        let fates_c: Vec<_> = (0..200)
            .map(|n| c.decide(Path::new("p"), StorageOp::Append, n))
            .collect();
        assert_ne!(fates_a, fates_c, "different seeds must differ");
    }

    #[test]
    fn paths_decorrelate_decisions() {
        let p = StorageFaultPlan::new(3, StorageFaultConfig::eio(0.5));
        let a: Vec<_> = (0..200)
            .map(|n| p.decide(Path::new("tenants/a/j/trace.jsonl"), StorageOp::Append, n))
            .collect();
        let b: Vec<_> = (0..200)
            .map(|n| p.decide(Path::new("tenants/b/j/trace.jsonl"), StorageOp::Append, n))
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn eio_rate_is_roughly_honored() {
        let p = StorageFaultPlan::new(11, StorageFaultConfig::eio(0.25));
        let hits = (0..20_000)
            .filter(|&n| p.decide(Path::new("x"), StorageOp::Read, n) == StorageFault::Eio)
            .count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "observed EIO rate {rate}");
    }

    #[test]
    fn enospc_only_hits_write_ops() {
        let cfg = StorageFaultConfig {
            enospc_rate: 1.0,
            ..StorageFaultConfig::default()
        };
        let p = StorageFaultPlan::new(1, cfg);
        assert_eq!(
            p.decide(Path::new("x"), StorageOp::Read, 0),
            StorageFault::None
        );
        assert_eq!(
            p.decide(Path::new("x"), StorageOp::Append, 0),
            StorageFault::Enospc
        );
    }

    #[test]
    fn torn_append_persists_a_prefix_then_errors() {
        let dir = tmp_dir("torn");
        let path = dir.join("trace.jsonl");
        let vfs = FaultVfs::new(StorageFaultPlan::new(2, StorageFaultConfig::torn(1.0)));
        let err = vfs.append_sync(&path, b"0123456789abcdef").unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        let on_disk = std::fs::read(&path).unwrap();
        assert!(!on_disk.is_empty() && on_disk.len() < 16, "prefix only");
        assert!(b"0123456789abcdef".starts_with(&on_disk[..]));
        assert!(vfs.injected_faults() >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_lie_reports_success_then_kills_the_directory() {
        let dir = tmp_dir("lie");
        let path = dir.join("trace.jsonl");
        let vfs = FaultVfs::new(StorageFaultPlan::new(5, StorageFaultConfig::lies(1.0)));
        vfs.append_sync(&path, b"0123456789abcdef").unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        assert!(on_disk.len() < 16, "the lie must lose the tail");
        // Every subsequent operation under the session directory fails
        // persistently, so the lie is always followed by the "crash".
        for _ in 0..5 {
            assert!(vfs.append_sync(&path, b"more").is_err());
            assert!(vfs.write_atomic(&dir.join("session.json"), b"{}").is_err());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retries_redraw_attempts_independently() {
        // At 50% EIO, four attempts virtually always find a success.
        let dir = tmp_dir("retry");
        let path = dir.join("doc.json");
        let vfs = FaultVfs::new(StorageFaultPlan::new(13, StorageFaultConfig::eio(0.5)));
        let policy = RetryPolicy {
            max_attempts: 16,
            base_delay: 1,
        };
        let mut retries = 0;
        for i in 0..20 {
            with_retries(&policy, StorageOp::AtomicWrite, &path, &mut retries, || {
                vfs.write_atomic(&path, format!("doc {i}").as_bytes())
            })
            .unwrap();
        }
        assert!(retries > 0, "a 50% adversary must force some retries");
        assert_eq!(std::fs::read(&path).unwrap(), b"doc 19");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn with_retries_reports_full_error_chain_on_exhaustion() {
        let policy = RetryPolicy {
            max_attempts: 2,
            base_delay: 1,
        };
        let mut retries = 0;
        let mut n = 0;
        let failure = with_retries(
            &policy,
            StorageOp::Append,
            Path::new("t/x/trace.jsonl"),
            &mut retries,
            || -> io::Result<()> {
                n += 1;
                Err(io::Error::other(format!("boom {n}")))
            },
        )
        .unwrap_err();
        assert_eq!(failure.attempts, 3);
        assert_eq!(retries, 2);
        assert_eq!(failure.errors.len(), 3);
        assert!(failure.errors[2].contains("boom 3"));
        assert!(failure.to_string().contains("append"));
    }

    #[test]
    fn retry_backoff_doubles_up_to_the_cap() {
        let schedule = |base_delay| {
            let policy = RetryPolicy {
                base_delay,
                ..RetryPolicy::default()
            };
            (1..=9).map(|a| policy.backoff_ms(a)).collect::<Vec<_>>()
        };
        assert_eq!(schedule(1), [1, 2, 4, 8, 16, 32, 50, 50, 50]);
        assert_eq!(schedule(0), schedule(1), "a zero base backs off as 1");
        assert_eq!(schedule(3), [3, 6, 12, 24, 48, 50, 50, 50, 50]);
        assert_eq!(RetryPolicy::default().backoff_ms(u32::MAX), 50);

        let no_retry = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let (mut retries, mut calls) = (0, 0);
        let failure = with_retries(
            &no_retry,
            StorageOp::Read,
            Path::new("x"),
            &mut retries,
            || -> io::Result<()> {
                calls += 1;
                Err(io::Error::other("boom"))
            },
        )
        .unwrap_err();
        assert_eq!((calls, retries, failure.attempts), (1, 0, 1));
    }

    #[test]
    fn real_vfs_write_atomic_replaces_and_cleans_tmp() {
        let dir = tmp_dir("atomic");
        let p = dir.join("doc.json");
        RealVfs.write_atomic(&p, b"one").unwrap();
        RealVfs.write_atomic(&p, b"two").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"two");
        assert!(!tmp_path(&p).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A bare file name has an empty parent; the directory fsync must
    /// fall back to "." instead of erroring.
    #[test]
    fn sync_parent_dir_of_a_bare_name_syncs_the_cwd() {
        sync_parent_dir(Path::new("bare.ckpt")).unwrap();
    }

    #[test]
    fn real_vfs_truncate_creates_and_file_len_tolerates_missing() {
        let dir = tmp_dir("trunc");
        let p = dir.join("trace.jsonl");
        assert_eq!(RealVfs.file_len(&p).unwrap(), 0, "missing file reads 0");
        RealVfs.truncate_sync(&p, 0).unwrap();
        RealVfs.append_sync(&p, b"abcdef").unwrap();
        assert_eq!(RealVfs.file_len(&p).unwrap(), 6);
        RealVfs.truncate_sync(&p, 2).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"ab");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic]
    fn out_of_range_rate_rejected() {
        let _ = StorageFaultPlan::new(0, StorageFaultConfig::eio(1.5));
    }

    /// Two rooted adversaries over *different* work directories draw the
    /// same schedule for the same relative path — the invariance that
    /// makes quarantine sets reproducible across machines and pids.
    #[test]
    fn rooted_schedule_ignores_where_the_root_lives() {
        let plan = || StorageFaultPlan::new(99, StorageFaultConfig::mixed(0.3));
        let a = FaultVfs::rooted(plan(), "/mnt/alpha/work");
        let b = FaultVfs::rooted(plan(), "/tmp/very/different/place-12345");
        for n in 0..200 {
            let pa = format!("/mnt/alpha/work/tenants/t/j/trace-{}.jsonl", n % 7);
            let pb = format!(
                "/tmp/very/different/place-12345/tenants/t/j/trace-{}.jsonl",
                n % 7
            );
            let fa = plan_decision(&a, Path::new(&pa), StorageOp::Append);
            let fb = plan_decision(&b, Path::new(&pb), StorageOp::Append);
            assert_eq!(fa, fb, "draw {n} diverged");
        }
    }

    /// Draw through the full per-(path,op) attempt bookkeeping.
    fn plan_decision(vfs: &FaultVfs, path: &Path, op: StorageOp) -> StorageFault {
        let attempt = vfs.next_attempt(path, op);
        vfs.plan.decide(vfs.plan_path(path), op, attempt)
    }

    #[test]
    fn deferred_append_then_barrier_lands_every_byte() {
        let dir = tmp_dir("defer-append");
        let p = dir.join("trace.jsonl");
        RealVfs.append_deferred(&p, b"one\n").unwrap();
        RealVfs.append_deferred(&p, b"two\n").unwrap();
        for r in RealVfs.sync_barrier(std::slice::from_ref(&p)) {
            r.unwrap();
        }
        assert_eq!(std::fs::read(&p).unwrap(), b"one\ntwo\n");
        assert!(RealVfs.sync_barrier(&[]).is_empty(), "empty barrier no-ops");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deferred_atomic_stages_then_commit_publishes() {
        let dir = tmp_dir("defer-atomic");
        let p = dir.join("session.json");
        RealVfs.write_atomic(&p, b"old").unwrap();
        RealVfs.write_atomic_deferred(&p, b"new").unwrap();
        // Staged, not published: readers still see the old document.
        assert_eq!(std::fs::read(&p).unwrap(), b"old");
        assert_eq!(std::fs::read(tmp_path(&p)).unwrap(), b"new");
        for r in RealVfs.sync_barrier(&[tmp_path(&p)]) {
            r.unwrap();
        }
        RealVfs.commit_atomic(&p).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"new");
        assert!(!tmp_path(&p).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file under `root`, as sorted (relative path, bytes) pairs.
    fn tree(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut out = Vec::new();
        let mut dirs = vec![root.to_path_buf()];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else {
                    let bytes = std::fs::read(&path).unwrap();
                    out.push((path.strip_prefix(root).unwrap().to_path_buf(), bytes));
                }
            }
        }
        out.sort();
        out
    }

    /// The `syncfs` barrier and the per-file fallback (the only path on
    /// targets without `syncfs`, where both sides below take it) leave the
    /// same tree after one stage → barrier → commit cycle of a session
    /// that completes: trace append, checkpoint and report replaces, then
    /// the checkpoint's removal.
    #[test]
    fn per_file_fallback_and_syncfs_leave_identical_trees() {
        type Barrier = dyn Fn(&[PathBuf]) -> Vec<io::Result<()>>;
        type Commit = dyn Fn(&Path) -> io::Result<()>;
        let cycle = |root: &Path, barrier: &Barrier, commit: &Commit| {
            let dir = root.join("tenants/t/j1");
            RealVfs.create_dir_all(&dir).unwrap();
            let (trace, doc, report) = (
                dir.join("trace.jsonl"),
                dir.join("session.json"),
                dir.join("report.json"),
            );
            RealVfs.write_atomic(&doc, b"{\"round\":0}\n").unwrap();
            RealVfs.append_deferred(&trace, b"{\"probe\":1}\n").unwrap();
            RealVfs
                .write_atomic_deferred(&doc, b"{\"round\":1}\n")
                .unwrap();
            RealVfs
                .write_atomic_deferred(&report, b"{\"repaired\":true}\n")
                .unwrap();
            for r in barrier(&[trace, tmp_path(&doc), tmp_path(&report)]) {
                r.unwrap();
            }
            commit(&doc).unwrap();
            commit(&report).unwrap();
            RealVfs.remove_file(&doc).unwrap();
            tree(root)
        };
        let (a, b) = (tmp_dir("cycle-syncfs"), tmp_dir("cycle-per-file"));
        let via_syncfs = cycle(&a, &|p| RealVfs.sync_barrier(p), &|p| {
            RealVfs.commit_atomic(p)
        });
        let via_per_file = cycle(
            &b,
            &|p| sync_each(p, &[], &Mutex::new(Vec::new())),
            &commit_synced,
        );
        assert_eq!(via_syncfs, via_per_file);
        let names: Vec<_> = via_syncfs.iter().map(|(p, _)| p.clone()).collect();
        assert_eq!(
            names,
            [
                PathBuf::from("tenants/t/j1/report.json"),
                PathBuf::from("tenants/t/j1/trace.jsonl")
            ]
        );
        std::fs::remove_dir_all(&a).unwrap();
        std::fs::remove_dir_all(&b).unwrap();
    }

    /// A `syncfs(2)` that fails at run time sends the barrier down the
    /// per-file path after `commit_atomic` skipped the rename's directory
    /// fsync. That path must fsync it: here the daemon's end-of-run flush,
    /// whose one staged path is the work dir, still makes the last
    /// round's `report.json` rename durable. If that directory fsync
    /// fails as well, the flush must fail, and its retry must sync the
    /// directory again.
    #[test]
    fn failed_syncfs_falls_back_to_fsyncing_renamed_directories() {
        let renames = Mutex::new(Vec::new());
        let root = tmp_dir("syncfs-fails");
        let dir = root.join("tenants/t/j1");
        RealVfs.create_dir_all(&dir).unwrap();
        let (trace, report) = (dir.join("trace.jsonl"), dir.join("report.json"));
        RealVfs.append_deferred(&trace, b"{\"probe\":1}\n").unwrap();
        RealVfs
            .write_atomic_deferred(&report, b"{\"repaired\":true}\n")
            .unwrap();
        for r in barrier(&renames, &[trace, tmp_path(&report)]) {
            r.unwrap();
        }
        commit_deferred(&renames, &report).unwrap();
        SYNCFS_FAILS.with(|f| f.set(true));
        DIR_FSYNC_FAILS.with(|f| f.set(true));
        let failed = barrier(&renames, std::slice::from_ref(&root));
        DIR_FSYNC_FAILS.with(|f| f.set(false));
        assert!(failed.iter().all(Result::is_err), "failed fsync hidden");
        let pending = renames.lock().unwrap().clone();
        assert_eq!(pending, std::slice::from_ref(&dir), "rename dropped");
        DIRS_SYNCED.with(|d| d.borrow_mut().clear());
        let flush = barrier(&renames, std::slice::from_ref(&root));
        SYNCFS_FAILS.with(|f| f.set(false));
        for r in flush {
            r.unwrap();
        }
        let synced = DIRS_SYNCED.with(|d| d.take());
        assert!(synced.contains(&dir), "rename dir not fsynced: {synced:?}");
        assert!(renames.lock().unwrap().is_empty(), "renames left pending");
        assert_eq!(std::fs::read(&report).unwrap(), b"{\"repaired\":true}\n");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A lying fsync drawn at stage time surfaces at the barrier: the
    /// sync *reports success* while the tail never landed, and the
    /// device then dies persistently — the staged replace must not be
    /// published by `commit_atomic`.
    #[test]
    fn lie_staged_at_append_fires_at_the_barrier() {
        let dir = tmp_dir("lie-barrier");
        let trace = dir.join("trace.jsonl");
        let vfs = FaultVfs::new(StorageFaultPlan::new(5, StorageFaultConfig::lies(1.0)));
        vfs.append_deferred(&trace, b"0123456789abcdef").unwrap();
        let results = vfs.sync_barrier(std::slice::from_ref(&trace));
        assert!(results[0].is_ok(), "the lie reports success");
        let on_disk = std::fs::read(&trace).unwrap();
        assert!(on_disk.len() < 16, "the lie must lose the tail");
        // The device is now dead: the epoch's renames and every later
        // operation under the directory fail persistently.
        assert!(vfs.append_sync(&trace, b"more").is_err());
        assert!(vfs.write_atomic(&dir.join("session.json"), b"{}").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lie_staged_at_atomic_write_skips_the_rename() {
        let dir = tmp_dir("lie-rename");
        let doc = dir.join("session.json");
        let vfs = FaultVfs::new(StorageFaultPlan::new(5, StorageFaultConfig::lies(1.0)));
        RealVfs.write_atomic(&doc, b"old").unwrap();
        vfs.write_atomic_deferred(&doc, b"new").unwrap();
        // Lie consumed at commit: reports success, publishes nothing.
        vfs.commit_atomic(&doc).unwrap();
        assert_eq!(std::fs::read(&doc).unwrap(), b"old");
        assert!(vfs.append_sync(&dir.join("trace.jsonl"), b"x").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Barrier-time syncs must book under the `SyncBarrier` profiler
    /// phase, not `Fsync`, so a daemon profile can split one-shot
    /// fsyncs from batched-barrier wall time. Runs under the
    /// deterministic counting clock; per-thread rows isolate this test
    /// from concurrent tests in the same binary.
    #[test]
    fn barrier_time_books_under_sync_barrier_phase() {
        use mwu_core::prof;
        let dir = tmp_dir("prof-phase");
        let p = dir.join("trace.jsonl");
        prof::set_counting_clock(1_000);
        prof::set_enabled(true);
        RealVfs.append_deferred(&p, b"staged\n").unwrap();
        for r in RealVfs.sync_barrier(std::slice::from_ref(&p)) {
            r.unwrap();
        }
        RealVfs
            .write_atomic(&dir.join("session.json"), b"{}\n")
            .unwrap();
        prof::set_enabled(false);
        let report = prof::snapshot();
        let me = std::thread::current().name().unwrap_or("main").to_string();
        let mine = report
            .per_thread
            .iter()
            .find(|t| t.thread == me)
            .expect("this thread recorded spans");
        let total = |phase: &str| {
            mine.spans
                .iter()
                .filter(|s| s.phase == phase)
                .map(|s| (s.count, s.total_ns))
                .next()
                .unwrap_or((0, 0))
        };
        let (barrier_n, barrier_ns) = total("sync_barrier");
        let (fsync_n, fsync_ns) = total("fsync");
        assert!(barrier_n >= 1, "barrier sync must record a span");
        assert!(barrier_ns > 0, "counting clock must advance inside it");
        assert!(fsync_n >= 1, "a one-shot atomic replace books under fsync");
        assert!(fsync_ns > 0);
        prof::set_monotonic_clock();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
