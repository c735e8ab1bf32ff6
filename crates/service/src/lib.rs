//! # mwrepair-service
//!
//! `mwrepaird`: a long-lived, multi-tenant session manager over the
//! MWRepair online phase — the ROADMAP's "production-scale service" layer.
//!
//! The daemon accepts repair jobs over a JSONL line protocol
//! ([`protocol`]), shards the resulting sessions across the global rayon
//! pool in fixed-size iteration slices, drives every session through
//! [`mwrepair::repair_resumable`] so it is crash-safe at each slice
//! boundary ([`session`]), streams per-session [`mwu_core::trace`] events
//! to per-tenant JSONL trace files, and enforces per-tenant cost budgets
//! through [`apr_sim::CostLedger`] snapshots ([`daemon`]).
//!
//! ## Determinism contract
//!
//! A session's trace file and final report are a pure function of its
//! [`protocol::JobSpec`] and the daemon's slice length: byte-identical
//! whether the session runs alone or next to a thousand concurrent
//! sessions, at any thread count, and across any sequence of cooperative
//! halts and resumes. The contract holds because
//!
//! * every probe RNG is keyed by `(seed, iteration, agent)` and the master
//!   RNG travels in the checkpoint, so slicing never changes a draw;
//! * sessions never share mutable state — each has its own ledger, trace
//!   file, and checkpoint, and the pool-cache entries they share are
//!   immutable after construction;
//! * budget decisions happen only at round barriers, over commutative sums
//!   of per-session cost snapshots of the *same tenant*, so they are
//!   independent of scheduling and of other tenants' load.
//!
//! `tests/tests/service.rs` pins all three properties byte-for-byte;
//! `docs/SERVICE.md` documents the protocol and the work-directory layout.
//!
//! ## Hostile-disk survival
//!
//! Every byte the daemon persists flows through the [`vfs`] storage
//! abstraction. [`vfs::RealVfs`] is the production passthrough;
//! [`vfs::FaultVfs`] is a deterministic storage adversary (the disk
//! analogue of `simnet::faults`) injecting EIO, ENOSPC, torn writes,
//! fsync lies, and slowdowns from a pure keyed hash of
//! `(seed, path, op, attempt)`. Transient failures retry with bounded
//! exponential backoff; persistent failures and session panics
//! **quarantine** the one affected session behind a durable
//! `quarantine.json` post-mortem while every other session's bytes stay
//! identical to a fault-free run — certified by the `torture` binary and
//! `tests/tests/service_faults.rs`, documented in `docs/FAULTS.md`.

#![warn(missing_docs)]
// Denied (not forbidden) so the one scoped exemption in `vfs` — the raw
// `syncfs(2)` syscall behind the group-commit barrier, which std does not
// expose and the offline workspace has no libc stub for — can opt in.
#![deny(unsafe_code)]

pub mod daemon;
pub mod protocol;
pub mod session;
pub mod vfs;

pub use daemon::{Daemon, DaemonConfig, DaemonError, DaemonSummary, SyncBarrierStats};
pub use protocol::{
    encode_line, parse_jobs, parse_line, BudgetSpec, JobBatch, JobLine, JobSpec, ProtocolError,
    ScenarioSpec, MAX_LINE_BYTES, MAX_NESTING_DEPTH,
};
pub use session::{commit_epoch, QuarantineRecord, SessionReport, SessionRunner, SessionStatus};
pub use vfs::{
    FaultVfs, RealVfs, StorageFailure, StorageFault, StorageFaultConfig, StorageFaultPlan,
    StorageOp, Vfs,
};
