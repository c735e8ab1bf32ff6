//! Steady-state allocation audit for the MWU round kernels and the APR
//! probe.
//!
//! A counting global allocator wraps the system allocator; after a warmup
//! phase (which is allowed to grow every scratch buffer to its steady-state
//! capacity) the counter is armed and each algorithm runs additional
//! plan → pull → update rounds, and the probe samples and evaluates more
//! compositions. The assertion is exact: **zero** heap allocations on the
//! armed rounds and probes.
//!
//! Everything runs inside a single `#[test]` because a global allocator is
//! process-wide state: parallel test threads would alias the counter.

use apr_sim::{evaluate_composition, BugScenario};
use mwu_core::alternatives::{Exp3, HedgeConfig, HedgeMwu};
use mwu_core::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations while `ARMED`; delegates everything to [`System`].
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Run `rounds` plan → pull → update cycles against `bandit`, reusing a
/// preallocated rewards buffer so the harness itself allocates nothing.
fn run_rounds(
    alg: &mut dyn MwuAlgorithm,
    bandit: &mut ValueBandit,
    rewards: &mut Vec<f64>,
    rng: &mut SmallRng,
    rounds: usize,
) {
    for _ in 0..rounds {
        rewards.clear();
        {
            // `plan` borrows `alg` until the end of this block; pulling only
            // needs the bandit and the RNG, so the plan slice stays valid.
            let plan = alg.plan(rng);
            for &arm in plan {
                rewards.push(bandit.pull(arm, rng));
            }
        }
        alg.update(rewards, rng);
    }
}

/// Audit one algorithm: warmup unarmed (scratch grows to capacity), then
/// count allocations over the armed steady-state rounds.
fn audit(name: &str, alg: &mut dyn MwuAlgorithm, k: usize, warmup: usize, armed_rounds: usize) {
    let mut bandit = ValueBandit::exact(mwu_core::bandit::random_values(k, 9));
    let mut rng = SmallRng::seed_from_u64(7);
    // Capacity for the largest plan this algorithm can produce.
    let mut rewards: Vec<f64> = Vec::with_capacity(alg.cpus_per_iteration() * 2);

    run_rounds(alg, &mut bandit, &mut rewards, &mut rng, warmup);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    run_rounds(alg, &mut bandit, &mut rewards, &mut rng, armed_rounds);
    ARMED.store(false, Ordering::SeqCst);

    let count = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        count, 0,
        "{name}: {count} heap allocations in {armed_rounds} steady-state rounds"
    );
}

/// Audit the APR probe on the 2 000-member `units` pool: warm up unarmed
/// (this thread's sampler and pair-check scratch grow), then sample and
/// evaluate armed at x ∈ {1, 96, 512}.
fn audit_probes() {
    let scenario = BugScenario::by_name("units").expect("catalog scenario");
    let pool = scenario.build_pool(1, None);
    assert_eq!(pool.len(), 2_000);
    let mut comp = Vec::new();
    let mut probe = |x: usize, seed: u64| {
        let mut rng = SmallRng::seed_from_u64(seed);
        pool.sample_composition_into(x, &mut rng, &mut comp);
        evaluate_composition(&scenario.world, &scenario.suite, &comp, None).survived
    };
    for x in [1usize, 96, 512] {
        for seed in 0..20 {
            probe(x, seed);
        }
    }

    for x in [1usize, 96, 512] {
        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        let survived = (100..150).filter(|&seed| probe(x, seed)).count();
        ARMED.store(false, Ordering::SeqCst);
        let count = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            count, 0,
            "probe x={x}: {count} heap allocations in 50 probes"
        );
        // Small compositions survive and large ones break, so both exits
        // of the pair check ran armed.
        if x == 1 {
            assert_eq!(survived, 50);
        }
        if x == 512 {
            assert_eq!(survived, 0);
        }
    }
}

#[test]
fn steady_state_rounds_allocate_nothing() {
    let k = 256;

    let mut standard = StandardMwu::new(k, StandardConfig::default());
    audit("standard", &mut standard, k, 200, 100);

    let mut slate = SlateMwu::new(k, SlateConfig::default());
    audit("slate", &mut slate, k, 200, 100);

    let mut distributed = DistributedMwu::new(64, DistributedConfig::default());
    audit("distributed", &mut distributed, 64, 100, 50);

    let mut hedge = HedgeMwu::new(k, HedgeConfig::default());
    audit("hedge", &mut hedge, k, 200, 100);

    let mut exp3 = Exp3::new(k, 0.05);
    audit("exp3", &mut exp3, k, 200, 100);

    audit_probes();
}
