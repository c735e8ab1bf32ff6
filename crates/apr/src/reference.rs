//! Test oracles: the APR probe as it ran before the O(x) sampler and the
//! prefix-keyed integer draws.
//!
//! Each function keeps the earlier shape of its production twin: a
//! partial Fisher–Yates over a freshly built `0..n`, a full `mix` over
//! every label of a draw, a float compare against `p`, and the row-major
//! pairwise loop. The property tests below check the production probe
//! against them draw for draw, and on every catalog scenario.
//!
//! This module is compiled only under `cfg(test)`.

use crate::evaluate::{ProbeOutcome, WorldParams};
use crate::interaction::InteractionModel;
use crate::mutation::{MutOp, Mutation, MutationId};
use crate::pool::MutationPool;
use crate::suite::TestSuite;
use mwu_core::rng::{keyed_uniform, mix};
use rand::rngs::SmallRng;
use rand::Rng;

/// Keyed Bernoulli(p) draw as a float compare.
pub fn keyed_bernoulli(p: f64, labels: &[u64]) -> bool {
    let u = (mix(labels) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    u < p
}

/// Partial Fisher–Yates over a freshly built index permutation.
pub fn sample_composition(pool: &MutationPool, x: usize, rng: &mut SmallRng) -> Vec<Mutation> {
    let n = pool.len();
    assert!(x <= n, "requested {x} mutations from a pool of {n}");
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..x {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx[..x].iter().map(|&i| pool.mutations()[i]).collect()
}

/// [`Mutation::is_safe`].
pub fn is_safe(m: &Mutation, world_seed: u64, safe_rate: f64) -> bool {
    let op_factor = match m.op {
        MutOp::Delete => 1.15,
        MutOp::Insert => 1.00,
        MutOp::Swap => 0.85,
        MutOp::Replace => 1.00,
    };
    let p = (safe_rate * op_factor).clamp(0.0, 1.0);
    keyed_bernoulli(p, &[world_seed, 0x5AFE, m.id().0])
}

/// [`Mutation::is_repair`].
pub fn is_repair(m: &Mutation, world_seed: u64, defect_site: usize, repair_rate: f64) -> bool {
    let near = m.site.abs_diff(defect_site) <= 5;
    let p = if near {
        (repair_rate * 2.0).min(1.0)
    } else {
        repair_rate
    };
    keyed_bernoulli(p, &[world_seed, 0xF1F0, defect_site as u64, m.id().0])
}

/// [`InteractionModel::composition_survives`]: every pair `(i, j)`,
/// `i < j`, in row-major order, five `splitmix64` rounds each.
pub fn composition_survives(
    model: &InteractionModel,
    world_seed: u64,
    muts: &[MutationId],
) -> bool {
    match *model {
        InteractionModel::PairwiseConflict { p } => {
            for i in 0..muts.len() {
                for j in (i + 1)..muts.len() {
                    let (a, b) = if muts[i].0 <= muts[j].0 {
                        (muts[i].0, muts[j].0)
                    } else {
                        (muts[j].0, muts[i].0)
                    };
                    if keyed_bernoulli(p, &[world_seed, 0xC0_4F11C7, a, b]) {
                        return false;
                    }
                }
            }
            true
        }
        InteractionModel::PerMutationDecay { q } => muts
            .iter()
            .skip(1)
            .all(|m| !keyed_bernoulli(q, &[world_seed, 0x000D_ECA1, m.0])),
    }
}

/// [`crate::evaluate_composition`] without a ledger.
pub fn evaluate_composition(
    world: &WorldParams,
    suite: &TestSuite,
    muts: &[Mutation],
) -> ProbeOutcome {
    let cost_ms = suite.full_run_cost_ms();
    let all_safe = muts
        .iter()
        .all(|m| is_safe(m, world.world_seed, world.safe_rate));
    let ids: Vec<_> = muts.iter().map(|m| m.id()).collect();
    let survived = all_safe && composition_survives(&world.interaction, world.world_seed, &ids);
    if !survived {
        let frac = keyed_uniform(&[
            world.world_seed,
            0xBAD_F17,
            ids.iter().fold(0u64, |a, m| a ^ m.0.rotate_left(13)),
        ]);
        let failed = 1 + (frac * 0.30 * suite.n_required() as f64) as u32;
        return ProbeOutcome {
            survived: false,
            repaired: false,
            fitness: suite.baseline_fitness().saturating_sub(failed),
            cost_ms,
        };
    }
    let repaired = muts
        .iter()
        .any(|m| is_repair(m, world.world_seed, world.defect_site, world.repair_rate));
    ProbeOutcome {
        survived: true,
        repaired,
        fitness: if repaired {
            suite.max_fitness()
        } else {
            suite.baseline_fitness()
        },
        cost_ms,
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::scenario::BugScenario;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// Probabilities where a threshold slip would show: 0, 1, the grid
    /// point `k/2⁵³`, one ulp either side of it, and `r` itself.
    fn edge_probabilities(k: u64, r: f64) -> Vec<f64> {
        let p = k as f64 / (1u64 << 53) as f64;
        let mut out = vec![0.0, 1.0, p, r];
        if p > 0.0 {
            out.push(f64::from_bits(p.to_bits() - 1));
        }
        if p < 1.0 {
            out.push(f64::from_bits(p.to_bits() + 1));
        }
        out
    }

    /// A mutation decoded from one random word (site and donor below 2¹⁶,
    /// so pools drawn from a narrow range carry duplicates).
    fn mutation(word: u64) -> Mutation {
        Mutation {
            op: MutOp::ALL[(word & 3) as usize],
            site: ((word >> 2) & 0xFFFF) as usize,
            donor: ((word >> 18) & 0xFFFF) as usize,
        }
    }

    proptest! {
        #[test]
        fn survival_matches_the_pairwise_loop(
            narrow in prop::collection::vec(0u64..24, 0..40),
            wide in prop::collection::vec(any::<u64>(), 0..24),
            world in any::<u64>(),
            k in 0u64..(1u64 << 53),
            r in 0.0f64..=1.0,
            x_star in 1usize..64,
        ) {
            // Narrow ids repeat, so compositions hold duplicate pairs.
            let ids: Vec<MutationId> =
                narrow.iter().chain(&wide).map(|&id| MutationId(id)).collect();
            let mut models = vec![
                InteractionModel::pairwise_with_optimum(x_star),
                InteractionModel::decay_with_optimum(x_star),
            ];
            for p in edge_probabilities(k, r) {
                models.push(InteractionModel::PairwiseConflict { p });
                models.push(InteractionModel::PerMutationDecay { q: p });
            }
            for model in &models {
                for cut in [0, 1, narrow.len(), ids.len()] {
                    let c = &ids[..cut];
                    prop_assert_eq!(
                        model.composition_survives(world, c.iter().copied()),
                        composition_survives(model, world, c),
                        "{:?} on {} members", model, cut
                    );
                }
            }
        }

        #[test]
        fn safety_and_repair_draws_match_the_float_draws(
            words in prop::collection::vec(any::<u64>(), 1..40),
            world in any::<u64>(),
            k in 0u64..(1u64 << 53),
            r in 0.0f64..=1.0,
            defect in 0usize..0x1_0000,
        ) {
            for rate in edge_probabilities(k, r) {
                for &w in &words {
                    let m = mutation(w);
                    prop_assert_eq!(m.is_safe(world, rate), is_safe(&m, world, rate));
                    for site in [defect, m.site] {
                        prop_assert_eq!(
                            m.is_repair(world, site, rate),
                            is_repair(&m, world, site, rate)
                        );
                    }
                }
            }
        }

        #[test]
        fn evaluation_matches_the_oracle(
            words in prop::collection::vec(any::<u64>(), 0..60),
            narrow in prop::collection::vec(0u64..16, 0..8),
            world_seed in any::<u64>(),
            safe_rate in 0.0f64..=1.0,
            repair_rate in 0.0f64..=0.5,
            x_star in 1usize..40,
            decay in any::<bool>(),
            tests in 1usize..30,
        ) {
            let world = WorldParams {
                world_seed,
                safe_rate,
                interaction: if decay {
                    InteractionModel::decay_with_optimum(x_star)
                } else {
                    InteractionModel::pairwise_with_optimum(x_star)
                },
                defect_site: (world_seed % 0x1_0000) as usize,
                repair_rate,
            };
            let suite = TestSuite::synthetic(tests, 1, world_seed);
            let muts: Vec<Mutation> = words.iter().chain(&narrow).map(|&w| mutation(w)).collect();
            for cut in [0, 1, words.len(), muts.len()] {
                prop_assert_eq!(
                    crate::evaluate_composition(&world, &suite, &muts[..cut], None),
                    evaluate_composition(&world, &suite, &muts[..cut])
                );
            }
        }
    }

    /// Every catalog scenario: 2 000 probes with x spread over 1..=512,
    /// sampled and evaluated by the production probe and by the oracles.
    #[test]
    fn catalog_probes_match_the_oracle() {
        for (s_idx, scenario) in BugScenario::catalog_all().iter().enumerate() {
            let pool = scenario.build_pool(1, None);
            let mut comp = Vec::new();
            for t in 0..2_000u64 {
                let x = (1 + (t as usize * 7) % 512).min(pool.len());
                let seed = mix(&[s_idx as u64, t]);
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut oracle_rng = SmallRng::seed_from_u64(seed);
                pool.sample_composition_into(x, &mut rng, &mut comp);
                let expected = sample_composition(&pool, x, &mut oracle_rng);
                assert_eq!(comp, expected, "{} probe {t}: composition", scenario.name);
                assert_eq!(rng, oracle_rng, "{} probe {t}: RNG state", scenario.name);
                assert_eq!(
                    scenario.evaluate(&comp, None),
                    evaluate_composition(&scenario.world, &scenario.suite, &expected),
                    "{} probe {t}: outcome",
                    scenario.name
                );
            }
        }
    }
}
