//! Property-based tests over the core data structures and invariants.

use apr_sim::interaction::InteractionModel;
use apr_sim::mutation::{MutOp, Mutation, MutationId};
use mwu_core::slate::{decompose_into_slates, systematic_sample};
use mwu_core::stats::{Histogram, RunningStats};
use mwu_core::weights::WeightVector;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn positive_weights(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1e-6f64..1e6, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // --- WeightVector ---

    #[test]
    fn weights_always_normalize(ws in positive_weights(64)) {
        let w = WeightVector::from_weights(&ws);
        let sum: f64 = w.probabilities().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(w.probabilities().iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn multiplicative_updates_preserve_simplex(
        ws in positive_weights(32),
        factors in prop::collection::vec(0.0f64..4.0, 1..32),
    ) {
        let mut w = WeightVector::from_weights(&ws);
        let k = w.len();
        w.scale_all(|i| factors[i % factors.len()]);
        let sum: f64 = w.probabilities().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert_eq!(w.len(), k);
    }

    #[test]
    fn capping_never_exceeds_cap_and_stays_on_simplex(
        ws in positive_weights(48),
        denom in 1usize..8,
    ) {
        let w = WeightVector::from_weights(&ws);
        let k = w.len();
        // A feasible cap: at least 1/k.
        let cap = (1.0 / denom as f64).max(1.0 / k as f64);
        let c = w.capped(cap);
        prop_assert!(!c.exceeds_cap(cap, 1e-9));
        let sum: f64 = c.probabilities().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        // Capping preserves the order of coordinates.
        for i in 0..k {
            for j in 0..k {
                if w.get(i) > w.get(j) {
                    prop_assert!(c.get(i) >= c.get(j) - 1e-12);
                }
            }
        }
    }

    // Regression for the cap == 1/k feasibility boundary: any cap with
    // cap·k ≥ 1 must produce a finite simplex vector without panicking,
    // including the exact boundary where the uniform vector is the only
    // feasible point.
    #[test]
    fn capping_at_feasibility_boundary_never_panics(
        ws in positive_weights(48),
        slack in 0.0f64..0.5,
    ) {
        let w = WeightVector::from_weights(&ws);
        let k = w.len();
        // Sweep from exactly 1/k (slack = 0) up to 1.5/k.
        let cap = (1.0 + slack) / k as f64;
        let c = w.capped(cap);
        prop_assert_eq!(c.len(), k);
        prop_assert!(c.probabilities().iter().all(|p| p.is_finite() && *p >= 0.0));
        let sum: f64 = c.probabilities().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(!c.exceeds_cap(cap, 1e-9));
        if slack == 0.0 {
            // Exact boundary: deterministically the uniform vector.
            let uniform = WeightVector::uniform(k);
            prop_assert_eq!(c.probabilities(), uniform.probabilities());
        }
    }

    #[test]
    fn mix_uniform_keeps_floor(ws in positive_weights(32), gamma in 0.0f64..1.0) {
        let w = WeightVector::from_weights(&ws);
        let m = w.mix_uniform(gamma);
        let k = m.len() as f64;
        for &p in m.probabilities() {
            prop_assert!(p >= gamma / k - 1e-12);
        }
    }

    // --- Slate machinery ---

    #[test]
    fn systematic_sampling_returns_s_distinct_members(
        ws in positive_weights(40),
        s_raw in 1usize..10,
        seed in any::<u64>(),
    ) {
        let w = WeightVector::from_weights(&ws);
        let k = w.len();
        let s = s_raw.min(k);
        let capped = w.capped((1.0 / s as f64).max(1.0 / k as f64));
        let q: Vec<f64> = capped.probabilities().iter().map(|&p| (s as f64 * p).min(1.0)).collect();
        // Only exercise when q genuinely sums to s (cap feasible).
        let total: f64 = q.iter().sum();
        prop_assume!((total - s as f64).abs() < 1e-6);
        let mut rng = SmallRng::seed_from_u64(seed);
        let slate = systematic_sample(&q, s, &mut rng);
        prop_assert_eq!(slate.len(), s);
        let mut sorted = slate.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), s, "duplicate slate members");
        prop_assert!(slate.iter().all(|&i| i < k));
    }

    #[test]
    fn decomposition_reconstructs_q_exactly(
        ws in positive_weights(24),
        s_raw in 1usize..6,
    ) {
        let w = WeightVector::from_weights(&ws);
        let k = w.len();
        let s = s_raw.min(k);
        let capped = w.capped((1.0 / s as f64).max(1.0 / k as f64));
        let q: Vec<f64> = capped.probabilities().iter().map(|&p| (s as f64 * p).min(1.0)).collect();
        let total: f64 = q.iter().sum();
        prop_assume!((total - s as f64).abs() < 1e-6);

        let d = decompose_into_slates(&q, s);
        let lambda_sum: f64 = d.iter().map(|(l, _)| l).sum();
        prop_assert!((lambda_sum - 1.0).abs() < 1e-6, "lambda sum {}", lambda_sum);
        let mut recon = vec![0.0; k];
        for (lambda, slate) in &d {
            prop_assert_eq!(slate.len(), s);
            prop_assert!(*lambda >= -1e-12);
            for &i in slate {
                recon[i] += lambda;
            }
        }
        for i in 0..k {
            prop_assert!((recon[i] - q[i]).abs() < 1e-6, "arm {}: {} vs {}", i, recon[i], q[i]);
        }
    }

    // --- Statistics ---

    #[test]
    fn running_stats_merge_is_associative_enough(
        xs in prop::collection::vec(-1e6f64..1e6, 2..200),
        split in 1usize..199,
    ) {
        let split = split.min(xs.len() - 1);
        let seq: RunningStats = xs.iter().copied().collect();
        let mut a: RunningStats = xs[..split].iter().copied().collect();
        let b: RunningStats = xs[split..].iter().copied().collect();
        a.merge(&b);
        prop_assert_eq!(a.count(), seq.count());
        prop_assert!((a.mean() - seq.mean()).abs() < 1e-6 * (1.0 + seq.mean().abs()));
        prop_assert!((a.variance() - seq.variance()).abs() < 1e-4 * (1.0 + seq.variance()));
    }

    // --- Telemetry aggregates (prof registry latency histograms) ---

    #[test]
    fn histogram_merge_is_associative_and_order_insensitive(
        xs in prop::collection::vec(1e-9f64..1e9, 0..60),
        ys in prop::collection::vec(1e-9f64..1e9, 0..60),
        zs in prop::collection::vec(1e-9f64..1e9, 0..60),
    ) {
        let h = |vals: &[f64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        // (x ⊕ y) ⊕ z
        let mut left = h(&xs);
        left.merge(&h(&ys));
        left.merge(&h(&zs));
        // x ⊕ (y ⊕ z)
        let mut yz = h(&ys);
        yz.merge(&h(&zs));
        let mut right = h(&xs);
        right.merge(&yz);
        prop_assert_eq!(left.bucket_counts(), right.bucket_counts());
        prop_assert_eq!(left.count(), right.count());
        // Order-insensitive: z ⊕ y ⊕ x has the same buckets.
        let mut rev = h(&zs);
        rev.merge(&h(&ys));
        rev.merge(&h(&xs));
        prop_assert_eq!(left.bucket_counts(), rev.bucket_counts());
        prop_assert_eq!(left.non_positive_count(), rev.non_positive_count());
        // Merging loses no mass and invents none.
        prop_assert_eq!(left.count(), (xs.len() + ys.len() + zs.len()) as u64);
        prop_assert!((left.stats().mean() - rev.stats().mean()).abs()
            <= 1e-6 * (1.0 + left.stats().mean().abs()));
    }

    #[test]
    fn histogram_counts_are_conserved_and_split_invariant(
        xs in prop::collection::vec(-1e6f64..1e6, 1..120),
        split in 0usize..120,
    ) {
        let split = split.min(xs.len());
        let mut whole = Histogram::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Histogram::new();
        for &x in &xs[..split] {
            a.record(x);
        }
        let mut b = Histogram::new();
        for &x in &xs[split..] {
            b.record(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), xs.len() as u64);
        prop_assert_eq!(a.bucket_counts(), whole.bucket_counts());
        prop_assert_eq!(a.non_positive_count(), whole.non_positive_count());
        let in_buckets: u64 = whole.bucket_counts().iter().sum();
        prop_assert_eq!(in_buckets + whole.non_positive_count(), xs.len() as u64);
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded(
        xs in prop::collection::vec(1e-6f64..1e6, 1..100),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let mut h = Histogram::new();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in &xs {
            h.record(x);
            lo = lo.min(x);
            hi = hi.max(x);
        }
        let (qlo, qhi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let vlo = h.quantile(qlo);
        let vhi = h.quantile(qhi);
        prop_assert!(vlo <= vhi, "quantile({qlo}) = {vlo} > quantile({qhi}) = {vhi}");
        for q in [0.0, qlo, qhi, 1.0] {
            let v = h.quantile(q);
            prop_assert!((lo..=hi).contains(&v), "quantile({q}) = {v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn histogram_ignores_non_finite_samples(
        xs in prop::collection::vec(1e-6f64..1e6, 0..40),
    ) {
        let mut clean = Histogram::new();
        let mut dirty = Histogram::new();
        for &x in &xs {
            clean.record(x);
            dirty.record(x);
        }
        dirty.record(f64::NAN);
        dirty.record(f64::INFINITY);
        dirty.record(f64::NEG_INFINITY);
        prop_assert_eq!(clean.count(), dirty.count());
        prop_assert_eq!(clean.bucket_counts(), dirty.bucket_counts());
    }

    // --- APR substrate ---

    #[test]
    fn interaction_survival_is_monotone_in_x(
        x1 in 1usize..200,
        x2 in 1usize..200,
        opt in 5usize..100,
    ) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        for m in [
            InteractionModel::pairwise_with_optimum(opt),
            InteractionModel::decay_with_optimum(opt),
        ] {
            prop_assert!(m.expected_survival(lo) >= m.expected_survival(hi) - 1e-12);
            prop_assert!(m.expected_survival(lo) <= 1.0 && m.expected_survival(hi) >= 0.0);
        }
    }

    #[test]
    fn interaction_survival_is_permutation_invariant(
        ids in prop::collection::hash_set(any::<u64>(), 2..12),
        world in any::<u64>(),
        opt in 5usize..60,
    ) {
        let m = InteractionModel::pairwise_with_optimum(opt);
        let mut v: Vec<MutationId> = ids.into_iter().map(MutationId).collect();
        let forward = m.composition_survives(world, &v);
        v.reverse();
        prop_assert_eq!(forward, m.composition_survives(world, &v));
    }

    #[test]
    fn mutation_id_roundtrip_is_injective(
        site1 in 0usize..10_000,
        donor1 in 0usize..10_000,
        site2 in 0usize..10_000,
        donor2 in 0usize..10_000,
        op1 in 0usize..4,
        op2 in 0usize..4,
    ) {
        let ops = [MutOp::Delete, MutOp::Insert, MutOp::Swap, MutOp::Replace];
        let m1 = Mutation { op: ops[op1], site: site1, donor: donor1 };
        let m2 = Mutation { op: ops[op2], site: site2, donor: donor2 };
        prop_assert_eq!(m1 == m2, m1.id() == m2.id());
    }

    #[test]
    fn mutation_safety_is_a_fixed_function_of_the_world(
        site in 0usize..1_000,
        donor in 0usize..1_000,
        world in any::<u64>(),
        rate in 0.0f64..1.0,
    ) {
        let m = Mutation { op: MutOp::Replace, site, donor };
        prop_assert_eq!(m.is_safe(world, rate), m.is_safe(world, rate));
    }
}

proptest! {
    // Heavier cases get fewer iterations.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pool_compositions_are_distinct_and_from_pool(
        target in 5usize..60,
        x in 1usize..5,
        seed in any::<u64>(),
    ) {
        use apr_sim::{BugScenario, ScenarioKind};
        let s = BugScenario::custom("prop", ScenarioKind::Synthetic, 30, 8, 200, 10, 0.01, 3);
        let pool = apr_sim::MutationPool::precompute(
            &s.program, &s.suite, &s.world, target, 1, None,
        );
        prop_assume!(pool.len() >= x);
        let mut rng = SmallRng::seed_from_u64(seed);
        let comp = pool.sample_composition(x, &mut rng);
        prop_assert_eq!(comp.len(), x);
        let mut ids: Vec<u64> = comp.iter().map(|m| m.id().0).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), n);
        for m in &comp {
            prop_assert!(pool.mutations().contains(m));
        }
    }

    #[test]
    fn evaluation_is_deterministic_for_any_composition(
        x in 0usize..8,
        seed in any::<u64>(),
    ) {
        use apr_sim::{BugScenario, ScenarioKind};
        let s = BugScenario::custom("prop2", ScenarioKind::Synthetic, 30, 8, 200, 10, 0.01, 9);
        let sites: Vec<usize> = (0..s.program.len()).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let comp: Vec<Mutation> = (0..x)
            .map(|_| Mutation::random(&s.program, &sites, &mut rng))
            .collect();
        let a = s.evaluate(&comp, None);
        let b = s.evaluate(&comp, None);
        prop_assert_eq!(a, b);
        prop_assert!(a.fitness <= s.suite.max_fitness());
        if a.repaired {
            prop_assert!(a.survived);
        }
    }
}
