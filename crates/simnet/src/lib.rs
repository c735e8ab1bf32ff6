//! # simnet
//!
//! A small, deterministic simulated parallel runtime used to *measure* the
//! communication behaviour that the paper analyses formally (§II-C):
//! congestion (the maximum number of agents any one agent must communicate
//! with per round), message counts, and synchronization stalls.
//!
//! Two execution substrates are provided:
//!
//! * [`network::Network`] — a discrete-time, message-passing simulator.
//!   Agents implement [`agent::Agent`]; each round every agent runs once,
//!   reads the messages delivered to it at the end of the previous round,
//!   and sends new ones. The engine records per-round
//!   [`stats::RoundStats`] — exactly the congestion quantity of Table I.
//! * [`executor::ThreadPool`] — a real-thread executor built on crossbeam
//!   scoped threads and a barrier, used to measure the *wall-clock* effect
//!   of synchronization blocks: the paper's §III-C observation that with
//!   `m` synchronized threads, the per-round latency is the *maximum* of the
//!   per-thread work, so heavy-tailed work distributions cripple throughput
//!   (the motivation for precomputing safe mutations).
//!
//! [`congestion`] contains the balls-into-bins machinery behind
//! Distributed's `Θ(ln n / ln ln n)` congestion bound, both simulated and
//! in closed form.
//!
//! [`faults`] provides the deterministic adversary for the network: a
//! seeded [`faults::FaultPlan`] that the [`network::Network`] delivery path
//! consults to drop, delay, duplicate, and reorder messages and
//! crash/restart agents — with per-round counts folded into
//! [`stats::RoundStats`], so every injected fault is observable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agent;
pub mod congestion;
pub mod executor;
pub mod faults;
pub mod network;
pub mod profhook;
pub mod stats;
pub mod topology;

pub use agent::{Agent, AgentId, Context, Message};
pub use congestion::{balls_into_bins_max, expected_max_load};
pub use executor::{SyncMode, ThreadPool, WorkResult};
pub use faults::{FaultConfig, FaultPlan, FaultRoundStats, MessageFate, RetryPolicy};
pub use network::Network;
pub use profhook::{set_hook as set_profile_hook, SimEvent};
pub use stats::{NetStats, RoundStats};
pub use topology::Topology;
