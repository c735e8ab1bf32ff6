//! # apr-sim
//!
//! A simulated automated-program-repair (APR) substrate reproducing the
//! statistical structure of the paper's real-world testbeds (ManyBugs C
//! programs and Defects4J Java programs).
//!
//! ## What is simulated, and why it is faithful
//!
//! The paper's search algorithms never inspect program text: they observe
//! only (a) whether a mutated program retains its fitness on a regression
//! test suite, (b) whether it additionally passes the bug-triggering tests
//! (a repair), and (c) how long the evaluation took. This substrate
//! reproduces exactly those observables:
//!
//! * [`program::Program`] — statements with per-statement test coverage;
//!   mutations are restricted to covered statements (paper §III: "all
//!   mutations ... are restricted to lines of code that are executed by the
//!   regression test suite").
//! * [`mutation::Mutation`] — the GenProg operator set (delete / insert /
//!   swap / replace). A mutation's individual safety is a deterministic
//!   hash-keyed Bernoulli at the paper's ≈30 % whole-statement safe rate
//!   (its refs 27 and 28): the same mutation is always safe or always
//!   unsafe in a given world, matching the determinism of a real test
//!   suite.
//! * [`interaction::InteractionModel`] — how individually-safe mutations
//!   interact when composed: either pairwise conflicts (survival
//!   ≈ (1−p)^C(x,2)) or per-mutation decay (survival (1−q)^x, the paper's
//!   fitted a·x·e^(−bx) form). Both reproduce Fig. 4a's slow decay and
//!   Fig. 4b's unimodal repair density.
//! * [`suite::TestSuite`] — tests with per-test simulated cost; the
//!   [`ledger::CostLedger`] accumulates simulated test-execution time so
//!   end-to-end comparisons (paper §IV-G) can report fitness evaluations
//!   and latency.
//! * [`pool::MutationPool`] — the paper's precompute phase: an
//!   embarrassingly-parallel (rayon) search for individually safe
//!   mutations, reusable across bugs and incrementally updatable as tests
//!   are added (§III-C).
//! * [`scenario::BugScenario`] — the catalog of C and Java bug scenarios
//!   with the option counts of Tables II–IV and per-scenario repair-density
//!   optima in the paper's reported 11–271 range.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apply;
pub mod evaluate;
pub mod fig4;
pub mod interaction;
pub mod ledger;
pub mod localize;
pub mod mutation;
pub mod pool;
pub mod prioritize;
pub mod program;
#[cfg(test)]
mod reference;
pub mod scenario;
pub mod suite;

pub use apply::{apply_mutations, Mutant};
pub use evaluate::{evaluate_composition, ProbeOutcome};
pub use interaction::InteractionModel;
pub use ledger::CostLedger;
pub use localize::{localize, Formula, Localization};
pub use mutation::{MutOp, Mutation, MutationId};
pub use pool::MutationPool;
pub use prioritize::{evaluate_early_exit, TestOrder};
pub use program::Program;
pub use scenario::{BugScenario, ScenarioKind};
pub use suite::{TestCase, TestSuite};
