//! Per-thread scratch arenas for pool participants.
//!
//! The experiment grid runs thousands of short independent replicates on
//! pool workers. Each one historically paid its own heap traffic — a fresh
//! algorithm instance per replicate — and on a busy pool those allocations
//! all contend on the global allocator and drag freshly-faulted pages
//! across cores.
//!
//! [`ThreadArena`] removes that contention structurally: every thread owns
//! one arena (a `thread_local`), so taking and returning an instance is a
//! plain `Vec` pop/push with **zero synchronization**. Algorithm instances
//! persist across work units on the same worker; a
//! returned algorithm is [reset](StandardMwu::reset) to the exact state of
//! a fresh construction before reuse, so trajectories are bit-identical
//! whether the instance came from the arena or from `new` — the
//! determinism contract of `docs/PARALLELISM.md` is indifferent to reuse.
//!
//! RNG streams are *not* arena state: they stay derived per work unit from
//! stable keys (`replicate_seed`), exactly as before.
//!
//! ## Ownership rules
//!
//! * `take_*` hands out a reset instance; `give_*` returns it for the
//!   next unit on this thread. Not returning a value is always safe — the
//!   arena then simply allocates anew next time.
//! * Keep arena borrows short: `ThreadArena::with` takes the thread-local
//!   `RefCell` mutably, so calls must not nest. Take scratch out, release
//!   the borrow, do the work, then return it with a second `with`.
//! * Cached algorithm instances are matched on `(k, config)`; a miss
//!   constructs fresh. The per-variant cache is bounded
//!   (`MAX_CACHED_PER_VARIANT`) so arenas cannot hoard memory when a
//!   sweep cycles through many instance sizes.

use crate::distributed::{DistributedConfig, DistributedMwu, Intractable};
use crate::slate::{SlateConfig, SlateMwu};
use crate::standard::{StandardConfig, StandardMwu};
use crate::MwuAlgorithm;
use std::cell::RefCell;

/// Cached instances kept per algorithm variant. Grid sweeps interleave at
/// most a handful of `(k, config)` shapes per thread.
const MAX_CACHED_PER_VARIANT: usize = 4;

/// Bounded pools of reusable algorithm instances owned by one thread.
#[derive(Default)]
pub struct ThreadArena {
    standard: Vec<StandardMwu>,
    slate: Vec<SlateMwu>,
    distributed: Vec<DistributedMwu>,
}

thread_local! {
    static ARENA: RefCell<ThreadArena> = RefCell::new(ThreadArena::new());
}

impl ThreadArena {
    /// An empty arena (tests construct their own; production code uses the
    /// thread-local via [`Self::with`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` with this thread's arena. Calls must not nest (the arena is
    /// a `RefCell`); take scratch out and release the borrow before doing
    /// heavy work.
    pub fn with<R>(f: impl FnOnce(&mut ThreadArena) -> R) -> R {
        ARENA.with(|a| f(&mut a.borrow_mut()))
    }

    /// A [`StandardMwu`] over `k` arms under `config`: a cached instance
    /// reset to its initial state when one matches, else a fresh one.
    pub fn take_standard(&mut self, k: usize, config: StandardConfig) -> StandardMwu {
        if let Some(i) = self
            .standard
            .iter()
            .position(|a| a.num_arms() == k && *a.config() == config)
        {
            let mut alg = self.standard.swap_remove(i);
            alg.reset();
            return alg;
        }
        StandardMwu::new(k, config)
    }

    /// Return a [`StandardMwu`] for reuse.
    pub fn give_standard(&mut self, alg: StandardMwu) {
        if self.standard.len() < MAX_CACHED_PER_VARIANT {
            self.standard.push(alg);
        }
    }

    /// A [`SlateMwu`] over `k` arms under `config` (cached + reset, or
    /// fresh).
    pub fn take_slate(&mut self, k: usize, config: SlateConfig) -> SlateMwu {
        if let Some(i) = self
            .slate
            .iter()
            .position(|a| a.num_arms() == k && *a.config() == config)
        {
            let mut alg = self.slate.swap_remove(i);
            alg.reset();
            return alg;
        }
        SlateMwu::new(k, config)
    }

    /// Return a [`SlateMwu`] for reuse.
    pub fn give_slate(&mut self, alg: SlateMwu) {
        if self.slate.len() < MAX_CACHED_PER_VARIANT {
            self.slate.push(alg);
        }
    }

    /// A [`DistributedMwu`] over `k` arms under `config` (cached + reset,
    /// or fresh). Propagates the intractability verdict exactly as
    /// [`DistributedMwu::try_new`].
    pub fn take_distributed(
        &mut self,
        k: usize,
        config: DistributedConfig,
    ) -> Result<DistributedMwu, Intractable> {
        if let Some(i) = self
            .distributed
            .iter()
            .position(|a| a.num_arms() == k && *a.config() == config)
        {
            let mut alg = self.distributed.swap_remove(i);
            alg.reset();
            return Ok(alg);
        }
        DistributedMwu::try_new(k, config)
    }

    /// Return a [`DistributedMwu`] for reuse.
    pub fn give_distributed(&mut self, alg: DistributedMwu) {
        if self.distributed.len() < MAX_CACHED_PER_VARIANT {
            self.distributed.push(alg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandit::ValueBandit;
    use crate::run::{run_to_convergence, RunConfig};

    fn run_cfg(seed: u64) -> RunConfig {
        RunConfig {
            max_iterations: 400,
            seed,
            run_past_convergence: false,
        }
    }

    fn bandit(k: usize, seed: u64) -> ValueBandit {
        ValueBandit::exact(crate::bandit::random_values(k, seed))
    }

    /// The reuse contract: an instance that already ran a full (different)
    /// trajectory, was given back, and taken again must reproduce a fresh
    /// instance's trajectory bit for bit.
    #[test]
    fn reused_standard_matches_fresh_bit_for_bit() {
        let k = 16;
        let cfg = StandardConfig::default();
        let mut arena = ThreadArena::new();

        let mut dirty = arena.take_standard(k, cfg);
        let mut b0 = bandit(k, 7);
        let _ = run_to_convergence(&mut dirty, &mut b0, &run_cfg(99));
        arena.give_standard(dirty);

        let mut fresh = StandardMwu::new(k, cfg);
        let mut reused = arena.take_standard(k, cfg);
        let mut b1 = bandit(k, 3);
        let mut b2 = bandit(k, 3);
        let out_fresh = run_to_convergence(&mut fresh, &mut b1, &run_cfg(42));
        let out_reused = run_to_convergence(&mut reused, &mut b2, &run_cfg(42));
        assert_eq!(out_fresh, out_reused);
        assert_eq!(
            fresh.weights().probabilities(),
            reused.weights().probabilities()
        );
    }

    #[test]
    fn reused_slate_matches_fresh_bit_for_bit() {
        let k = 32;
        let cfg = SlateConfig::default();
        let mut arena = ThreadArena::new();

        let mut dirty = arena.take_slate(k, cfg);
        let mut b0 = bandit(k, 11);
        let _ = run_to_convergence(&mut dirty, &mut b0, &run_cfg(5));
        arena.give_slate(dirty);

        let mut fresh = SlateMwu::new(k, cfg);
        let mut reused = arena.take_slate(k, cfg);
        let mut b1 = bandit(k, 8);
        let mut b2 = bandit(k, 8);
        let out_fresh = run_to_convergence(&mut fresh, &mut b1, &run_cfg(17));
        let out_reused = run_to_convergence(&mut reused, &mut b2, &run_cfg(17));
        assert_eq!(out_fresh, out_reused);
        assert_eq!(
            fresh.weights().probabilities(),
            reused.weights().probabilities()
        );
    }

    #[test]
    fn reused_distributed_matches_fresh_bit_for_bit() {
        let k = 8;
        let cfg = DistributedConfig::default();
        let mut arena = ThreadArena::new();

        let mut dirty = arena.take_distributed(k, cfg).unwrap();
        let mut b0 = bandit(k, 2);
        let _ = run_to_convergence(&mut dirty, &mut b0, &run_cfg(1));
        arena.give_distributed(dirty);

        let mut fresh = DistributedMwu::new(k, cfg);
        let mut reused = arena.take_distributed(k, cfg).unwrap();
        let mut b1 = bandit(k, 4);
        let mut b2 = bandit(k, 4);
        let out_fresh = run_to_convergence(&mut fresh, &mut b1, &run_cfg(23));
        let out_reused = run_to_convergence(&mut reused, &mut b2, &run_cfg(23));
        assert_eq!(out_fresh, out_reused);
        assert_eq!(fresh.counts(), reused.counts());
    }

    #[test]
    fn pools_stay_bounded() {
        let mut arena = ThreadArena::new();
        for _ in 0..20 {
            arena.give_standard(StandardMwu::new(4, StandardConfig::default()));
            arena.give_slate(SlateMwu::new(4, SlateConfig::default()));
            arena.give_distributed(DistributedMwu::new(4, DistributedConfig::default()));
        }
        assert_eq!(arena.standard.len(), MAX_CACHED_PER_VARIANT);
        assert_eq!(arena.slate.len(), MAX_CACHED_PER_VARIANT);
        assert_eq!(arena.distributed.len(), MAX_CACHED_PER_VARIANT);
    }

    #[test]
    fn config_mismatch_constructs_fresh() {
        let mut arena = ThreadArena::new();
        arena.give_standard(StandardMwu::new(4, StandardConfig::default()));
        // A different k must not reuse the cached 4-arm instance.
        let alg = arena.take_standard(8, StandardConfig::default());
        assert_eq!(alg.num_arms(), 8);
    }
}
