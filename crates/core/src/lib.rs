//! # mwu-core
//!
//! Multiplicative Weights Update (MWU) algorithms for multi-armed bandit
//! problems, as studied in *"Multiplicative Weights Algorithms for Parallel
//! Automated Software Repair"* (Renzullo, Weimer, Forrest — IPDPS 2021).
//!
//! The crate provides three parallel MWU realizations behind one trait:
//!
//! * [`StandardMwu`] — the classic weighted-majority algorithm (Fig. 1 of the
//!   paper). Full information: every option is evaluated on every iteration,
//!   using one parallel agent per option, and the shared weight vector is
//!   updated globally.
//! * [`SlateMwu`] — the slate-selection variant (Fig. 2, after Kale et al.).
//!   A fixed-size subset (slate) of options is evaluated per iteration, and
//!   only the sampled options' weights are updated (importance-weighted).
//!   Includes the *O(k²)* convex decomposition of a capped weight vector into
//!   slate vertices as well as a fast systematic-sampling equivalent.
//! * [`DistributedMwu`] — the memoryless population protocol (Fig. 3, after
//!   the social-learning dynamics of Celis, Krafft & Vishnoi). The weight
//!   vector exists only implicitly as the population share of each option;
//!   agents observe random neighbors and adopt their options probabilistically.
//!
//! All three implement [`MwuAlgorithm`], so the driver in [`run`] and the
//! higher-level `mwrepair` crate are generic over the variant.
//!
//! The crate also contains the analytic machinery of the paper:
//!
//! * [`cost`] — Table I asymptotics (communication congestion, memory,
//!   convergence time, minimum agents) and the weighted decision model of
//!   §IV-E that recommends a variant given the relative price of
//!   communication, convergence time, CPUs and memory.
//! * [`stats`] — running mean/std-dev summaries used for the "mean (std)"
//!   cells of Tables II–IV.
//! * [`weights`] — normalized weight vectors with capping onto the
//!   probability simplex, entropy, and sampling.
//!
//! ## Quick example
//!
//! ```
//! use mwu_core::prelude::*;
//!
//! // A 32-arm bandit whose arm values form a unimodal bump, with Bernoulli
//! // feedback (the observation model of the paper's APR use case).
//! let values: Vec<f64> = (0..32)
//!     .map(|x| {
//!         let x = x as f64 + 1.0;
//!         x * (-x / 8.0).exp() / 3.0
//!     })
//!     .collect();
//! let mut bandit = ValueBandit::bernoulli(values.clone());
//!
//! let mut alg = StandardMwu::new(32, StandardConfig::default());
//! let outcome = run_to_convergence(&mut alg, &mut bandit, &RunConfig::seeded(42));
//!
//! // Standard MWU converges on (or very near) the best arm.
//! assert!(outcome.accuracy(&values) > 0.85);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alternatives;
pub mod arena;
pub mod bandit;
pub mod convergence;
pub mod cost;
pub mod distributed;
pub mod prof;
#[cfg(test)]
mod reference;
pub mod regret;
pub mod rng;
pub mod run;
pub mod schedule;
pub mod slate;
pub mod standard;
pub mod stats;
pub mod trace;
pub mod weights;

/// Version of the MWU round kernels, stamped into benchmark artifact
/// `meta` blocks so perf trajectories can be compared across kernel
/// revisions.
pub const KERNEL_VERSION: &str = env!("CARGO_PKG_VERSION");

pub use alternatives::{EpsilonGreedy, Exp3, HedgeConfig, HedgeMwu, Ucb1};
pub use arena::ThreadArena;
pub use bandit::{Bandit, NoiseModel, ValueBandit};
pub use convergence::{ConvergenceCriterion, ConvergenceState};
pub use cost::{AsymptoticCosts, CostWeights, Variant, WeightedCostModel};
pub use distributed::{
    DistributedConfig, DistributedMwu, GossipConfig, GossipObservation, GossipReport,
};
pub use prof::{Phase, ProfileReport, SpanGuard};
pub use regret::{run_with_regret, run_with_regret_observed, RegretCurve};
pub use run::{run_to_convergence, run_to_convergence_observed, RunConfig, RunOutcome};
pub use schedule::LearningRate;
pub use slate::{SlateConfig, SlateMwu};
pub use standard::{StandardConfig, StandardMwu};
pub use trace::{
    FaultEvent, JsonlSink, NullObserver, Observer, ProgressSink, StorageEvent, Tee, TraceEvent,
};
pub use weights::WeightVector;

use rand::rngs::SmallRng;

/// Common interface implemented by all three MWU realizations.
///
/// The paper's experimental harness (its §IV-B) and the MWRepair algorithm
/// (its Fig. 6: `MWU_Init`, `MWU_Sample`, `MWU_Update`) both treat the MWU
/// variant as a pluggable component; this trait is that interface.
///
/// One *iteration* (update cycle, in the paper's terminology) is:
///
/// 1. [`MwuAlgorithm::plan`] — decide which arm each parallel agent evaluates
///    this round. The returned slice has one entry per agent; its length is
///    [`MwuAlgorithm::cpus_per_iteration`].
/// 2. The caller evaluates every planned arm (in parallel, in the real
///    system) and collects one reward in `[0, 1]` per agent.
/// 3. [`MwuAlgorithm::update`] — incorporate the observed rewards into the
///    (explicit or implicit) weight vector.
pub trait MwuAlgorithm {
    /// Number of options (arms) the algorithm is choosing among.
    fn num_arms(&self) -> usize;

    /// Plan one iteration: which arm does each parallel agent evaluate?
    ///
    /// The slice is owned by the algorithm and valid until the next call;
    /// implementations reuse an internal buffer to avoid per-round
    /// allocation.
    fn plan(&mut self, rng: &mut SmallRng) -> &[usize];

    /// Incorporate observed rewards. `rewards[j]` is the reward for the arm
    /// planned at index `j` of the most recent [`MwuAlgorithm::plan`] call.
    ///
    /// # Panics
    /// Implementations may panic if `rewards.len()` differs from the length
    /// of the last plan.
    fn update(&mut self, rewards: &[f64], rng: &mut SmallRng);

    /// The arm the algorithm currently believes is best.
    fn leader(&self) -> usize;

    /// The probability mass (Standard/Slate: normalized weight; Distributed:
    /// population share) currently on the leader.
    fn leader_share(&self) -> f64;

    /// Has the algorithm met its variant-specific convergence criterion?
    ///
    /// Standard and Slate: the leader's selection probability is within
    /// `1e-5` of the maximum achievable. Distributed: at least 30 % of the
    /// population holds the same option (both per the paper's §IV-C).
    fn has_converged(&self) -> bool;

    /// How many parallel agents (CPUs) one iteration occupies.
    ///
    /// Standard: `k` (full information). Slate: the slate size `s`.
    /// Distributed: the population size.
    fn cpus_per_iteration(&self) -> usize;

    /// The explicit (Standard/Slate) or implicit (Distributed: population
    /// frequency) probability vector over arms.
    fn probabilities(&self) -> Vec<f64>;

    /// Write the probability vector into caller scratch (cleared first) —
    /// the allocation-free counterpart of [`MwuAlgorithm::probabilities`]
    /// used by hot observer paths. The default delegates to
    /// `probabilities()`; every built-in algorithm overrides it to copy
    /// straight from its internal state.
    fn probabilities_into(&self, out: &mut Vec<f64>) {
        let p = self.probabilities();
        out.clear();
        out.extend_from_slice(&p);
    }

    /// Communication statistics accumulated so far (messages sent and the
    /// peak single-node congestion observed in any round).
    fn comm_stats(&self) -> CommStats;

    /// Short human-readable variant name ("standard", "slate", "distributed").
    fn name(&self) -> &'static str;

    /// The [`cost::Variant`] tag for this algorithm, linking empirical runs
    /// to the analytic cost model.
    fn variant(&self) -> cost::Variant;
}

/// Clamp a reward observation into the valid `[0, 1]` range, treating
/// non-finite values as total failure.
///
/// This is the loss-clamping guard shared by all MWU variants: a corrupted
/// observation (NaN from a crashed evaluator, `±inf`/huge magnitudes from a
/// garbled message) must not be able to collapse the weight simplex. Note
/// that a bare `f64::clamp` is *not* enough — `NaN.clamp(0.0, 1.0)` is NaN,
/// which would propagate into every weight via the multiplicative update.
/// NaN maps to `0.0` (no evidence of success), overlarge values saturate at
/// the range ends.
#[inline]
pub fn sanitize_reward(r: f64) -> f64 {
    if r.is_finite() {
        r.clamp(0.0, 1.0)
    } else if r == f64::INFINITY {
        1.0
    } else {
        // NaN or -inf: no trustworthy evidence of success.
        0.0
    }
}

/// Communication accounting for one algorithm instance.
///
/// *Congestion* is the paper's notion of communication cost (§II-C): the
/// maximum number of agents that any single agent must exchange messages
/// with in one round. For Standard and Slate every round is a global
/// synchronization, so congestion equals the agent count; for Distributed it
/// is the maximum in-degree of the random observation graph (a balls-into-bins
/// process, Θ(ln n / ln ln n) with high probability).
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CommStats {
    /// Total point-to-point messages sent over the whole run.
    pub messages: u64,
    /// Worst single-node congestion observed in any single round.
    pub peak_congestion: usize,
    /// Sum over rounds of that round's max congestion (divide by rounds for
    /// the mean).
    pub total_congestion: u64,
    /// Number of rounds accounted.
    pub rounds: u64,
}

impl CommStats {
    /// Record one round with the given per-node max congestion and message
    /// count.
    pub fn record_round(&mut self, congestion: usize, messages: u64) {
        self.rounds += 1;
        self.messages += messages;
        self.total_congestion += congestion as u64;
        if congestion > self.peak_congestion {
            self.peak_congestion = congestion;
        }
    }

    /// Mean per-round congestion, or 0.0 if no rounds were recorded.
    pub fn mean_congestion(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.total_congestion as f64 / self.rounds as f64
        }
    }
}

/// Convenience prelude re-exporting the types needed for typical use.
pub mod prelude {
    pub use crate::bandit::{Bandit, NoiseModel, ValueBandit};
    pub use crate::cost::{CostWeights, Variant, WeightedCostModel};
    pub use crate::distributed::{
        DistributedConfig, DistributedMwu, GossipConfig, GossipObservation, GossipReport,
    };
    pub use crate::run::{run_to_convergence, run_to_convergence_observed, RunConfig, RunOutcome};
    pub use crate::slate::{SlateConfig, SlateMwu};
    pub use crate::standard::{StandardConfig, StandardMwu};
    pub use crate::trace::{JsonlSink, NullObserver, Observer, TraceEvent};
    pub use crate::weights::WeightVector;
    pub use crate::{CommStats, MwuAlgorithm};
}
