//! # mwrepair
//!
//! The MWRepair algorithm (paper Fig. 5 / Fig. 6): parallel, online-learning
//! automated program repair.
//!
//! MWRepair recasts search-based APR as a two-phase process:
//!
//! 1. **Precompute** (embarrassingly parallel, amortizable): build a pool
//!    of individually-safe mutations for the program —
//!    [`apr_sim::MutationPool::precompute`].
//! 2. **Online** (a multi-armed bandit): each arm is "compose `x` pooled
//!    mutations into one probe"; an MWU algorithm learns which `x`
//!    maximizes the repair-density proxy while, in parallel, every probe is
//!    also a chance to stumble on the repair and terminate early.
//!
//! The online phase is generic over [`mwu_core::MwuAlgorithm`], so any of
//! the three variants (Standard / Slate / Distributed) can drive it — that
//! is exactly the comparison of the paper's §IV.
//!
//! ```
//! use mwrepair::{effective_arms, repair, MwRepairConfig};
//! use apr_sim::{BugScenario, ScenarioKind};
//! use mwu_core::{SlateMwu, SlateConfig};
//!
//! let scenario =
//!     BugScenario::custom("demo", ScenarioKind::Synthetic, 60, 12, 400, 20, 0.06, 11)
//!         .with_pool_size(300);
//! let pool = scenario.build_pool(1, None);
//! // The bandit's arms are composition sizes 1..=effective_arms(...).
//! let config = MwRepairConfig::seeded(7);
//! let arms = effective_arms(pool.len(), &config);
//! let mut alg = SlateMwu::new(arms, SlateConfig::default());
//! let result = repair(&scenario, &pool, &mut alg, &config);
//! assert!(result.repair.is_some(), "demo scenario should be repairable");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod driver;
pub mod minimize;
pub mod report;

pub use checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_VERSION};
pub use driver::{
    effective_arms, repair, repair_observed, repair_resumable, repair_with_ledger,
    repair_with_variant, MwRepairConfig, RewardMode, SessionResult, VariantChoice,
};
pub use minimize::{minimize_patch, MinimizedPatch};
pub use report::{RepairOutcome, RepairReport};
