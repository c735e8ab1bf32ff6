//! The storage seam every durable byte in the workspace goes through.
//!
//! [`Vfs`] exposes coarse, whole-operation primitives (append, atomic
//! replace, truncate, read, remove) rather than file handles, so a fault
//! adversary can interpose on exactly the operations whose failure modes
//! matter for the durability contract. Checkpoints
//! ([`crate::Checkpoint::save_atomic`]) and the `mwrepaird` daemon both
//! write through it; the implementations — the production passthrough and
//! the deterministic hostile disk — live in `mwrepair-service`.
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

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// The storage layer checkpoints, sessions and the daemon write through.
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
