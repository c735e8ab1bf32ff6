//! Monte-Carlo estimators for the paper's Figure 4 curves.
//!
//! * Fig. 4a — "fraction of programs that pass the test suite" as a
//!   function of how many **safe** mutations are applied together, plus the
//!   comparison curve for *untested* (not-guaranteed-safe) mutations, where
//!   already two random mutations break more than half of programs.
//! * Fig. 4b — repair density: the fraction of probes at each composition
//!   size `x` that repair the defect, a unimodal curve whose optimum the
//!   online phase learns.
//!
//! Each point is the average of `trials` independent random compositions
//! (the paper uses 1,000 trials per point).

use crate::evaluate::evaluate_composition;
use crate::mutation::Mutation;
use crate::pool::MutationPool;
use crate::scenario::BugScenario;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One (x, estimate) point of a Figure-4 curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Number of mutations combined.
    pub x: usize,
    /// Estimated probability (fraction of trials).
    pub value: f64,
}

/// Fig. 4a, safe-mutation curve: fraction of x-compositions of *pool*
/// (safe) mutations that retain full required-test fitness.
pub fn survival_curve(
    scenario: &BugScenario,
    pool: &MutationPool,
    xs: &[usize],
    trials: usize,
    seed: u64,
) -> Vec<CurvePoint> {
    estimate_curve(xs, trials, |x, t| {
        let mut rng = SmallRng::seed_from_u64(mix3(seed, x as u64, t as u64));
        let comp = pool.sample_composition(x.min(pool.len()), &mut rng);
        evaluate_composition(&scenario.world, &scenario.suite, &comp, None).survived
    })
}

/// Shared Monte-Carlo driver for the Figure-4 curves: estimate, for every
/// `x` in `xs`, the fraction of `trials` independent draws on which
/// `trial(x, t)` holds.
///
/// The whole `(x, trial)` rectangle is flattened into **one** parallel job
/// instead of one nested job per x-value — each pool chunk amortizes many
/// trials, where the nested form submitted `xs.len() + 1` jobs whose inner
/// units were each a single evaluation (the chunk-bookkeeping and
/// park/wake traffic that per-thread-count profiles of the grid
/// attributed the scaling plateau to; docs/PERFORMANCE.md).
/// Every trial derives its RNG from `(x, t)` alone and the per-x counts
/// fold the ordered result buffer sequentially, so the curve is
/// byte-identical to the nested (and the sequential) form.
fn estimate_curve(
    xs: &[usize],
    trials: usize,
    trial: impl Fn(usize, usize) -> bool + Sync,
) -> Vec<CurvePoint> {
    let units: Vec<(usize, usize)> = xs
        .iter()
        .flat_map(|&x| (0..trials).map(move |t| (x, t)))
        .collect();
    let hits: Vec<bool> = units.par_iter().map(|&(x, t)| trial(x, t)).collect();
    xs.iter()
        .enumerate()
        .map(|(i, &x)| {
            let passed = hits[i * trials..(i + 1) * trials]
                .iter()
                .filter(|&&h| h)
                .count();
            CurvePoint {
                x,
                value: passed as f64 / trials as f64,
            }
        })
        .collect()
}

/// Fig. 4a, untested-mutation comparison curve: fraction of x-compositions
/// of *raw* random mutations (not screened for safety) that retain fitness.
pub fn untested_survival_curve(
    scenario: &BugScenario,
    xs: &[usize],
    trials: usize,
    seed: u64,
) -> Vec<CurvePoint> {
    let sites = scenario.program.covered_sites(&scenario.suite);
    estimate_curve(xs, trials, |x, t| {
        let mut rng = SmallRng::seed_from_u64(mix3(seed ^ 0xFF, x as u64, t as u64));
        let comp: Vec<Mutation> = (0..x)
            .map(|_| Mutation::random(&scenario.program, &sites, &mut rng))
            .collect();
        evaluate_composition(&scenario.world, &scenario.suite, &comp, None).survived
    })
}

/// Fig. 4b: fraction of x-compositions of pool mutations that repair the
/// defect.
pub fn repair_density_curve(
    scenario: &BugScenario,
    pool: &MutationPool,
    xs: &[usize],
    trials: usize,
    seed: u64,
) -> Vec<CurvePoint> {
    estimate_curve(xs, trials, |x, t| {
        let mut rng = SmallRng::seed_from_u64(mix3(seed ^ 0x4B, x as u64, t as u64));
        let comp = pool.sample_composition(x.min(pool.len()), &mut rng);
        evaluate_composition(&scenario.world, &scenario.suite, &comp, None).repaired
    })
}

/// The x at which a curve peaks (ties: smallest x).
pub fn curve_peak(points: &[CurvePoint]) -> Option<usize> {
    points
        .iter()
        .max_by(|a, b| a.value.total_cmp(&b.value))
        .map(|p| p.x)
}

fn mix3(a: u64, b: u64, c: u64) -> u64 {
    mwu_core::rng::mix(&[a, b, c])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioKind;

    fn scenario() -> (BugScenario, MutationPool) {
        let s = BugScenario::custom(
            "fig4-test",
            ScenarioKind::Synthetic,
            120,
            20,
            500,
            20,
            0.01,
            77,
        );
        let pool = s.build_pool(1, None);
        (s, pool)
    }

    #[test]
    fn survival_curve_is_monotone_decreasing_roughly() {
        let (s, pool) = scenario();
        let xs = [1usize, 10, 40, 100];
        let c = survival_curve(&s, &pool, &xs, 300, 3);
        assert_eq!(c.len(), 4);
        assert!(c[0].value > 0.95, "x=1 survival {}", c[0].value);
        assert!(c[0].value >= c[1].value);
        assert!(c[1].value > c[3].value);
    }

    #[test]
    fn survival_matches_analytic_expectation() {
        let (s, pool) = scenario();
        let xs = [15usize];
        let c = survival_curve(&s, &pool, &xs, 600, 4);
        let analytic = s.world.interaction.expected_survival(15);
        assert!(
            (c[0].value - analytic).abs() < 0.08,
            "empirical {} vs analytic {analytic}",
            c[0].value
        );
    }

    #[test]
    fn untested_curve_decays_much_faster() {
        let (s, pool) = scenario();
        let xs = [2usize, 10];
        let safe = survival_curve(&s, &pool, &xs, 300, 5);
        let raw = untested_survival_curve(&s, &xs, 300, 5);
        // Paper: two untested mutations already break > 50 % of programs
        // (safe rate 0.3 ⇒ both safe w.p. ≈ 9 %).
        assert!(raw[0].value < 0.5);
        assert!(safe[0].value > raw[0].value + 0.3);
        assert!(safe[1].value > raw[1].value);
    }

    #[test]
    fn repair_density_is_unimodal_near_tuned_optimum() {
        let (s, pool) = scenario();
        let xs: Vec<usize> = (1..=100).step_by(3).collect();
        let c = repair_density_curve(&s, &pool, &xs, 400, 6);
        let peak = curve_peak(&c).unwrap();
        // Tuned optimum 20; Monte-Carlo peak should land in its vicinity.
        assert!(
            (8..=45).contains(&peak),
            "repair-density peak at {peak}, expected near 20"
        );
        // Unimodal shape: density at peak well above both ends.
        let at = |x: usize| c.iter().find(|p| p.x == x).unwrap().value;
        let peak_v = at(peak);
        assert!(peak_v > at(1));
        assert!(peak_v > at(97));
    }

    #[test]
    fn curves_are_deterministic() {
        let (s, pool) = scenario();
        let xs = [5usize, 25];
        let a = survival_curve(&s, &pool, &xs, 100, 9);
        let b = survival_curve(&s, &pool, &xs, 100, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn curve_peak_of_empty_is_none() {
        assert_eq!(curve_peak(&[]), None);
    }
}
