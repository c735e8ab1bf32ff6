//! The precomputed safe-mutation pool (paper §III-C).
//!
//! "We propose a new approach, which precomputes a large pool of safe
//! mutations, a one-time cost that is easily run in parallel and can be
//! amortized over the cost of repairing multiple bugs in a given program."
//!
//! [`MutationPool::precompute`] is that phase: candidate mutations are
//! generated, deduplicated, and validated against the suite in parallel
//! (rayon), keeping the ≈30 % that are individually safe. Because each
//! candidate's validation is one independent suite run, the phase is
//! embarrassingly parallel: its critical path is one suite run per batch,
//! recorded in the [`CostLedger`].
//!
//! [`MutationPool::revalidate`] is the incremental update of §III-C: when
//! the suite grows, pool members are re-screened against the new test only.

use crate::evaluate::WorldParams;
use crate::ledger::CostLedger;
use crate::mutation::{Mutation, SafetyDraw};
use crate::program::Program;
use crate::suite::TestSuite;
use mwu_core::prof::{self, Phase};
use mwu_core::rng::keyed_bernoulli;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashSet;

/// Per-thread scratch of [`MutationPool::sample_composition_into`].
struct SampleScratch {
    /// The identity permutation of `0..len`, as long as the largest pool
    /// sampled on this thread. A draw swaps its prefix and undoes the
    /// swaps before returning, so it is the identity between draws.
    perm: Vec<usize>,
    /// The swap partner `j` of each step of the current draw.
    swaps: Vec<usize>,
}

thread_local! {
    static SAMPLE_SCRATCH: RefCell<SampleScratch> = const {
        RefCell::new(SampleScratch {
            perm: Vec::new(),
            swaps: Vec::new(),
        })
    };
}

/// A pool of individually-safe mutations for one program world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MutationPool {
    mutations: Vec<Mutation>,
    /// Candidates tested to build the pool (safe + unsafe).
    candidates_tested: u64,
}

impl MutationPool {
    /// Precompute a pool of (up to) `target_size` safe mutations.
    ///
    /// Candidates are generated deterministically from `seed`, restricted
    /// to suite-covered statements, deduplicated, and validated in parallel
    /// batches. Each validation is one suite run charged to `ledger`; each
    /// batch contributes one suite-run of critical-path latency (the
    /// batch's validations all run concurrently).
    ///
    /// Returns a smaller pool only if the mutation space is exhausted
    /// before `target_size` safe mutations exist.
    pub fn precompute(
        program: &Program,
        suite: &TestSuite,
        world: &WorldParams,
        target_size: usize,
        seed: u64,
        ledger: Option<&CostLedger>,
    ) -> Self {
        assert!(target_size > 0);
        let _span = prof::span(Phase::PoolPrecompute);
        let sites = program.covered_sites(suite);
        assert!(!sites.is_empty(), "suite covers no statements");

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut seen: HashSet<u64> = HashSet::new();
        let mut safe: Vec<Mutation> = Vec::with_capacity(target_size);
        let mut tested: u64 = 0;
        // Upper bound on distinct candidates we can hope to draw.
        let space = sites.len() as u64 * program.len() as u64 * 4;
        let batch = (4 * target_size).clamp(64, 8192);
        let safety = SafetyDraw::new(world.world_seed, world.safe_rate);

        while safe.len() < target_size && (seen.len() as u64) < space {
            // Generate a deduplicated batch sequentially (cheap)...
            let mut candidates = Vec::with_capacity(batch);
            let mut attempts = 0usize;
            while candidates.len() < batch && attempts < batch * 20 {
                attempts += 1;
                let m = Mutation::random(program, &sites, &mut rng);
                if seen.insert(m.id().0) {
                    candidates.push(m);
                }
            }
            if candidates.is_empty() {
                break;
            }
            // ...then validate it in parallel (each validation = one suite
            // run; the batch's critical path is a single run since all runs
            // are concurrent).
            let cost = suite.full_run_cost_ms();
            let verdicts: Vec<(Mutation, bool)> = candidates
                .par_iter()
                // Safety screening is a keyed hash: ~100ns/candidate. The
                // hint sizes chunks for that cost and keeps sub-batch-sized
                // jobs off the pool entirely.
                .with_cost_hint(100)
                .map(|&m| (m, safety.is_safe(&m)))
                .collect();
            tested += verdicts.len() as u64;
            if let Some(l) = ledger {
                for _ in 0..verdicts.len() {
                    l.record_eval(cost);
                }
                l.record_parallel_phase(cost);
            }
            for (m, ok) in verdicts {
                if ok && safe.len() < target_size {
                    safe.push(m);
                }
            }
        }

        Self {
            mutations: safe,
            candidates_tested: tested,
        }
    }

    /// The safe mutations.
    pub fn mutations(&self) -> &[Mutation] {
        &self.mutations
    }

    /// Pool size.
    pub fn len(&self) -> usize {
        self.mutations.len()
    }

    /// True if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.mutations.is_empty()
    }

    /// How many candidates were validated to build this pool.
    pub fn candidates_tested(&self) -> u64 {
        self.candidates_tested
    }

    /// Sample `x` distinct pool members uniformly (Fig. 6 line 5,
    /// `Random_Subset(M, probes)`), by partial Fisher–Yates.
    ///
    /// # Panics
    /// Panics if `x > len()`.
    pub fn sample_composition(&self, x: usize, rng: &mut SmallRng) -> Vec<Mutation> {
        let mut out = Vec::with_capacity(x);
        self.sample_composition_into(x, rng, &mut out);
        out
    }

    /// [`Self::sample_composition`] into a caller-owned buffer (cleared
    /// first), in O(x) time.
    ///
    /// The swaps run on this thread's persistent identity permutation and
    /// are undone in reverse after the composition is read out. Step `i`
    /// draws `gen_range(i..n)`, which depends only on `i` and `n`, so the
    /// RNG calls and the composition are those of a partial Fisher–Yates
    /// on a freshly built `0..n`. Allocates nothing once this thread's
    /// scratch and `out` have grown to the pool and composition sizes.
    ///
    /// # Panics
    /// Panics if `x > len()`.
    pub fn sample_composition_into(&self, x: usize, rng: &mut SmallRng, out: &mut Vec<Mutation>) {
        let n = self.mutations.len();
        assert!(x <= n, "requested {x} mutations from a pool of {n}");
        let _span = prof::span(Phase::ProbeSample);
        out.clear();
        out.reserve(x);
        SAMPLE_SCRATCH.with(|scratch| {
            let SampleScratch { perm, swaps } = &mut *scratch.borrow_mut();
            let len = perm.len();
            if len < n {
                perm.extend(len..n);
            }
            swaps.clear();
            swaps.reserve(x);
            // From the first swap to the last undo nothing may unwind: a
            // permutation left shuffled would corrupt every later draw on
            // this thread. `i < x <= n` keeps the range non-empty and every
            // index in bounds, and both pushes fit the reserved capacity.
            for i in 0..x {
                let j = rng.gen_range(i..n);
                perm.swap(i, j);
                swaps.push(j);
            }
            out.extend(perm[..x].iter().map(|&i| self.mutations[i]));
            for (i, &j) in swaps.iter().enumerate().rev() {
                perm.swap(i, j);
            }
        });
    }

    /// Incremental pool update when the suite gains a test (paper §III-C):
    /// re-screen each member against the new test only; members that break
    /// it are evicted. Each re-screen costs one *single-test* execution
    /// (`new_test_cost_ms`), run in parallel.
    ///
    /// `break_rate` is the probability a previously-safe mutation fails the
    /// new test (deterministic per (mutation, test)).
    pub fn revalidate(
        &mut self,
        world: &WorldParams,
        new_test_id: usize,
        new_test_cost_ms: u64,
        break_rate: f64,
        ledger: Option<&CostLedger>,
    ) -> usize {
        let before = self.mutations.len();
        let survivors: Vec<Mutation> = self
            .mutations
            .par_iter()
            .with_cost_hint(100)
            .copied()
            .filter(|m| {
                !keyed_bernoulli(
                    break_rate,
                    &[world.world_seed, 0xE57_ADD, new_test_id as u64, m.id().0],
                )
            })
            .collect();
        if let Some(l) = ledger {
            for _ in 0..before {
                l.record_eval(new_test_cost_ms);
            }
            l.record_parallel_phase(new_test_cost_ms);
        }
        self.mutations = survivors;
        before - self.mutations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::InteractionModel;

    /// A pool of `mutations` as given, without validating them.
    fn from_mutations(mutations: Vec<Mutation>) -> MutationPool {
        MutationPool {
            candidates_tested: mutations.len() as u64,
            mutations,
        }
    }

    fn setup() -> (Program, TestSuite, WorldParams) {
        let world = WorldParams {
            world_seed: 99,
            safe_rate: 0.3,
            interaction: InteractionModel::pairwise_with_optimum(30),
            defect_site: 10,
            repair_rate: 0.004,
        };
        let program = Program::synthetic("p", 500, world.world_seed);
        let suite = TestSuite::synthetic(40, 1, world.world_seed);
        (program, suite, world)
    }

    #[test]
    fn precompute_reaches_target_and_members_are_safe() {
        let (program, suite, world) = setup();
        let pool = MutationPool::precompute(&program, &suite, &world, 200, 1, None);
        assert_eq!(pool.len(), 200);
        assert!(pool
            .mutations()
            .iter()
            .all(|m| m.is_safe(world.world_seed, world.safe_rate)));
        // ~30 % of candidates are safe, so 200 safe needs ≥ ~450 tested.
        assert!(pool.candidates_tested() >= 400);
    }

    #[test]
    fn precompute_is_deterministic() {
        let (program, suite, world) = setup();
        let a = MutationPool::precompute(&program, &suite, &world, 100, 7, None);
        let b = MutationPool::precompute(&program, &suite, &world, 100, 7, None);
        assert_eq!(a, b);
        let c = MutationPool::precompute(&program, &suite, &world, 100, 8, None);
        assert_ne!(a, c);
    }

    #[test]
    fn pool_members_are_distinct() {
        let (program, suite, world) = setup();
        let pool = MutationPool::precompute(&program, &suite, &world, 300, 2, None);
        let mut ids: Vec<u64> = pool.mutations().iter().map(|m| m.id().0).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn ledger_charges_candidates_and_critical_path() {
        let (program, suite, world) = setup();
        let ledger = CostLedger::new();
        let pool = MutationPool::precompute(&program, &suite, &world, 50, 3, Some(&ledger));
        assert!(!pool.is_empty());
        assert_eq!(ledger.fitness_evals(), pool.candidates_tested());
        // Parallel critical path: far less than sequential cost.
        assert!(ledger.critical_path_ms() < ledger.simulated_ms());
    }

    #[test]
    fn sample_composition_distinct_members() {
        let (program, suite, world) = setup();
        let pool = MutationPool::precompute(&program, &suite, &world, 100, 4, None);
        let mut rng = SmallRng::seed_from_u64(5);
        for x in [1usize, 10, 50, 100] {
            let comp = pool.sample_composition(x, &mut rng);
            assert_eq!(comp.len(), x);
            let mut ids: Vec<u64> = comp.iter().map(|m| m.id().0).collect();
            ids.sort_unstable();
            let n = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), n, "composition of {x} has duplicates");
        }
    }

    proptest::proptest! {
        #[test]
        fn sampler_matches_the_oracle_and_restores_the_identity(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..400),
            x_pick in proptest::prelude::any::<usize>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Cases of every size share this thread's permutation, so its
            // prefix is reused across pools. Narrow words repeat members.
            let pool = from_mutations(
                words
                    .iter()
                    .map(|&w| Mutation {
                        op: crate::MutOp::ALL[(w & 3) as usize],
                        site: ((w >> 2) % 64) as usize,
                        donor: ((w >> 8) % 64) as usize,
                    })
                    .collect(),
            );
            let n = pool.len();
            let mut out = Vec::new();
            for x in [0, x_pick % (n + 1), n] {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut oracle_rng = rng.clone();
                pool.sample_composition_into(x, &mut rng, &mut out);
                let expected = crate::reference::sample_composition(&pool, x, &mut oracle_rng);
                proptest::prop_assert_eq!(&out, &expected);
                proptest::prop_assert_eq!(&rng, &oracle_rng);
                let identity = SAMPLE_SCRATCH.with(|s| {
                    s.borrow().perm.iter().enumerate().all(|(i, &v)| i == v)
                });
                proptest::prop_assert!(identity, "permutation left shuffled after x = {}", x);
            }
        }
    }

    #[test]
    #[should_panic]
    fn oversized_sample_panics() {
        let pool = from_mutations(vec![]);
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = pool.sample_composition(1, &mut rng);
    }

    #[test]
    fn revalidate_evicts_a_fraction() {
        let (program, suite, world) = setup();
        let mut pool = MutationPool::precompute(&program, &suite, &world, 400, 6, None);
        let before = pool.len();
        let evicted = pool.revalidate(&world, 1000, 50, 0.10, None);
        assert_eq!(before - pool.len(), evicted);
        let rate = evicted as f64 / before as f64;
        assert!((rate - 0.10).abs() < 0.06, "eviction rate {rate}");
    }

    #[test]
    fn revalidate_is_idempotent_for_same_test() {
        let (program, suite, world) = setup();
        let mut pool = MutationPool::precompute(&program, &suite, &world, 200, 6, None);
        pool.revalidate(&world, 55, 10, 0.2, None);
        let after_first = pool.len();
        let evicted_second = pool.revalidate(&world, 55, 10, 0.2, None);
        assert_eq!(evicted_second, 0, "survivors of test 55 must stay safe");
        assert_eq!(pool.len(), after_first);
    }
}
