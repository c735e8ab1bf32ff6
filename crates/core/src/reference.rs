//! Naive, allocation-heavy reference implementations of the MWU round
//! kernels, kept as test oracles for the production kernels.
//!
//! Each `Reference*` struct reproduces the straightforward shape of one
//! algorithm's round: fresh vectors every plan, allocating simplex helpers
//! ([`mix_uniform`], [`capped`], [`systematic_sample`]), one RNG draw per
//! sampling decision in the same order. The property tests below drive a
//! reference and its production twin with twin-seeded RNGs and assert that
//! the weight trajectories are **bit-identical** (`f64::to_bits`), not merely
//! close — the guarantee the determinism suites and the CI thread-matrix
//! byte-diffs rely on.
//!
//! The paper's §II-C slate selection lives here too: the `O(k²)` convex
//! decomposition of the capped vector into slates
//! ([`decompose_into_slates`], [`sample_decomposition`]). Production draws
//! slates by systematic sampling instead, with the same per-arm inclusion
//! probabilities; a property test checks that every capped vector the
//! production kernel emits decomposes exactly into slates.
//!
//! This module is compiled only under `cfg(test)`.

use crate::distributed::DistributedConfig;
use crate::schedule::LearningRate;
use crate::slate::SlateConfig;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// Divide by the sum: the float operations of `WeightVector`'s
/// renormalization.
fn renormalize(p: &mut [f64]) {
    let sum: f64 = p.iter().sum();
    let inv = 1.0 / sum;
    for x in p {
        *x *= inv;
    }
}

/// Mix with the uniform distribution: `(1−γ)·p + γ/k`.
pub fn mix_uniform(p: &[f64], gamma: f64) -> Vec<f64> {
    let k = p.len() as f64;
    p.iter().map(|&x| (1.0 - gamma) * x + gamma / k).collect()
}

/// Cap-and-renormalize by the fused water-filling loop: each pass fixes
/// every free coordinate at or above `cap` and rescales the free mass to
/// fill what the fixed coordinates left, until a pass fixes nothing. A cap
/// of exactly `1/k` returns the uniform vector.
pub fn capped(p: &[f64], cap: f64) -> Vec<f64> {
    let k = p.len();
    assert!(cap * k as f64 >= 1.0 - 1e-12, "cap {cap} too small for {k}");
    if cap * k as f64 <= 1.0 + 1e-12 {
        return vec![1.0 / k as f64; k];
    }
    let mut p = p.to_vec();
    let mut fixed = vec![false; k];
    loop {
        let mut over = false;
        let mut free_sum = 0.0;
        let mut fixed_sum = 0.0;
        for i in 0..k {
            if fixed[i] {
                fixed_sum += cap;
            } else if p[i] >= cap {
                fixed[i] = true;
                fixed_sum += cap;
                over = true;
            } else {
                free_sum += p[i];
            }
        }
        if !over {
            break;
        }
        let remaining = (1.0 - fixed_sum).max(0.0);
        if free_sum <= 0.0 {
            break;
        }
        let scale = remaining / free_sum;
        for i in 0..k {
            if fixed[i] {
                p[i] = cap;
            } else {
                p[i] *= scale;
            }
        }
    }
    for i in 0..k {
        if fixed[i] {
            p[i] = cap;
        }
    }
    renormalize(&mut p);
    p
}

/// Systematic sampling by linear scan: one uniform draw `u`, then arm `i`
/// is pushed once for every point `u, u+1, …` below its cumulative sum,
/// padding from the end if rounding pushed a point off the axis.
pub fn systematic_sample(q: &[f64], s: usize, rng: &mut SmallRng) -> Vec<usize> {
    let u: f64 = rng.gen::<f64>();
    let mut out = Vec::with_capacity(s);
    let mut acc = 0.0;
    let mut next = u;
    for (i, &qi) in q.iter().enumerate() {
        acc += qi.max(0.0);
        while next < acc - 1e-15 && out.len() < s {
            out.push(i);
            next += 1.0;
        }
    }
    let mut fill = q.len();
    while out.len() < s && fill > 0 {
        fill -= 1;
        if !out.contains(&fill) {
            out.push(fill);
        }
    }
    out
}

/// Convex decomposition of scaled inclusion probabilities into slates.
///
/// Given `q` with `Σq = s` and `0 ≤ q_i ≤ 1`, returns `(λ_j, S_j)` pairs with
/// `Σλ_j = 1`, `|S_j| = s` and `Σ_j λ_j·1{i ∈ S_j} = q_i` — the decomposition
/// the paper cites as requiring `O(k²)` time (§II-C).
///
/// Greedy peeling: repeatedly select the `s` currently-largest residuals as
/// a slate and peel off the largest coefficient `λ` that keeps the residual
/// problem feasible (every residual within `[0, B]` for remaining budget
/// `B`). Each step zeroes a residual or pins one to the budget, so at most
/// `2k` slates are produced.
pub fn decompose_into_slates(q: &[f64], s: usize) -> Vec<(f64, Vec<usize>)> {
    let k = q.len();
    assert!(s >= 1 && s <= k, "slate size {s} out of range for k={k}");
    let total: f64 = q.iter().sum();
    assert!(
        (total - s as f64).abs() < 1e-6,
        "q must sum to s (got {total})"
    );
    let mut r: Vec<f64> = q.iter().map(|&x| x.clamp(0.0, 1.0)).collect();
    let mut order: Vec<usize> = (0..k).collect();
    let mut out = Vec::new();
    let mut budget = 1.0f64;
    for _ in 0..2 * k + 2 {
        if budget <= 1e-12 {
            break;
        }
        // Sort indices by residual, descending; the slate is the top s.
        order.sort_unstable_by(|&a, &b| r[b].total_cmp(&r[a]));
        let min_in = order[..s]
            .iter()
            .map(|&i| r[i])
            .fold(f64::INFINITY, f64::min);
        // Largest residual outside the slate (0 if none).
        let max_out = if s < k { r[order[s]] } else { 0.0 };
        // λ must not drive an in-slate residual negative, nor leave an
        // out-of-slate residual above the shrunken budget (budget − λ ≥
        // max_out).
        let lambda = min_in.min(budget - max_out).min(budget).max(0.0);
        if lambda <= 1e-15 {
            // Degenerate (numerical dust): spend the remaining budget on the
            // current top-s slate and stop.
            out.push((budget, order[..s].to_vec()));
            budget = 0.0;
            break;
        }
        for &i in &order[..s] {
            r[i] -= lambda;
        }
        budget -= lambda;
        out.push((lambda, order[..s].to_vec()));
    }
    if budget > 1e-9 {
        // Should be unreachable; keep total mass consistent regardless.
        order.sort_unstable_by(|&a, &b| r[b].total_cmp(&r[a]));
        out.push((budget, order[..s].to_vec()));
    }
    out
}

/// Draw one slate from a convex decomposition (vertex sampled ∝ λ).
pub fn sample_decomposition(decomposition: &[(f64, Vec<usize>)], rng: &mut SmallRng) -> Vec<usize> {
    let total: f64 = decomposition.iter().map(|(l, _)| *l).sum();
    let mut u: f64 = rng.gen::<f64>() * total;
    for (lambda, slate) in decomposition {
        if u < *lambda {
            return slate.clone();
        }
        u -= lambda;
    }
    decomposition
        .last()
        .map(|(_, s)| s.clone())
        .unwrap_or_default()
}

/// Naive Standard MWU: raw probability vector, fresh plan vector per round,
/// the same multiplicative update and renormalization float ops as
/// `WeightVector::scale_all` + `renormalize`.
pub struct ReferenceStandard {
    p: Vec<f64>,
    eta: LearningRate,
    iteration: usize,
}

impl ReferenceStandard {
    pub fn new(k: usize, eta: LearningRate) -> Self {
        Self {
            p: vec![1.0 / k as f64; k],
            eta,
            iteration: 0,
        }
    }

    pub fn plan(&self) -> Vec<usize> {
        (0..self.p.len()).collect()
    }

    pub fn update(&mut self, rewards: &[f64]) {
        assert_eq!(rewards.len(), self.p.len());
        self.iteration += 1;
        let eta = self.eta.at(self.iteration);
        let base = 1.0 - eta;
        for (i, p) in self.p.iter_mut().enumerate() {
            let cost = 1.0 - crate::sanitize_reward(rewards[i]);
            let f = if cost == 0.0 {
                1.0
            } else if cost == 1.0 {
                base
            } else {
                base.powf(cost)
            };
            *p = (*p * f).max(1e-300);
        }
        renormalize(&mut self.p);
    }

    pub fn probabilities(&self) -> &[f64] {
        &self.p
    }
}

/// Draws one slate of size `s` from inclusion probabilities `q`.
pub type Sampler = fn(&[f64], usize, &mut SmallRng) -> Vec<usize>;

/// Naive Slate MWU: the allocating mix → cap → scale pipeline rebuilt from
/// scratch every round, sampled by `sampler`, updated through a fresh
/// multiplier vector. Uses the same slate-size / η derivation and the same
/// importance-weight floor as `SlateMwu`.
pub struct ReferenceSlate {
    p: Vec<f64>,
    gamma: f64,
    s: usize,
    eta: f64,
    sampler: Sampler,
    plan_q: Vec<f64>,
    last_plan: Vec<usize>,
}

impl ReferenceSlate {
    /// The oracle of `SlateMwu`: systematic sampling by linear scan.
    pub fn new(k: usize, config: SlateConfig) -> Self {
        Self::with_sampler(k, config, systematic_sample)
    }

    pub fn with_sampler(k: usize, config: SlateConfig, sampler: Sampler) -> Self {
        let s = config
            .slate_size
            .unwrap_or_else(|| ((config.gamma * k as f64).ceil() as usize).clamp(2, k))
            .min(k);
        let eta = config
            .eta
            .unwrap_or(2.0 * config.gamma * s as f64 / k as f64);
        Self {
            p: vec![1.0 / k as f64; k],
            gamma: config.gamma,
            s,
            eta,
            sampler,
            plan_q: Vec::new(),
            last_plan: Vec::new(),
        }
    }

    pub fn plan(&mut self, rng: &mut SmallRng) -> Vec<usize> {
        let s = self.s;
        let capped = capped(&mix_uniform(&self.p, self.gamma), 1.0 / s as f64);
        let q: Vec<f64> = capped.iter().map(|&p| (s as f64 * p).min(1.0)).collect();
        let slate = (self.sampler)(&q, s, rng);
        self.plan_q = slate.iter().map(|&i| q[i]).collect();
        self.last_plan = slate.clone();
        slate
    }

    pub fn update(&mut self, rewards: &[f64]) {
        assert_eq!(rewards.len(), self.last_plan.len());
        let q_floor = 0.5 * self.gamma * self.s as f64 / self.p.len() as f64;
        let updates: Vec<(usize, f64)> = self
            .last_plan
            .iter()
            .enumerate()
            .map(|(j, &arm)| {
                let q = self.plan_q[j].max(q_floor);
                let g_hat = crate::sanitize_reward(rewards[j]) / q;
                (arm, (self.eta * g_hat).exp())
            })
            .collect();
        for (arm, f) in updates {
            self.p[arm] = (self.p[arm] * f).max(1e-300);
        }
        renormalize(&mut self.p);
    }

    pub fn probabilities(&self) -> &[f64] {
        &self.p
    }
}

/// Naive Distributed MWU: fresh observation / plan vectors every round, the
/// same integer-threshold Bernoulli draws and multiply-shift range draws in
/// the same order as `DistributedMwu`.
pub struct ReferenceDistributed {
    k: usize,
    config: DistributedConfig,
    choices: Vec<u32>,
    counts: Vec<u32>,
    observed: Vec<u32>,
}

impl ReferenceDistributed {
    pub fn new(k: usize, config: DistributedConfig) -> Self {
        let pop = config.population_for(k);
        let choices: Vec<u32> = (0..pop).map(|j| (j % k) as u32).collect();
        let mut counts = vec![0u32; k];
        for &c in &choices {
            counts[c as usize] += 1;
        }
        Self {
            k,
            config,
            choices,
            counts,
            observed: vec![0; pop],
        }
    }

    pub fn plan(&mut self, rng: &mut SmallRng) -> Vec<usize> {
        let pop = self.choices.len();
        let mu_threshold = (self.config.mu * u64::MAX as f64) as u64;
        let k = self.k as u64;
        let pop_minus_1 = (pop - 1) as u64;
        for j in 0..pop {
            if rng.next_u64() < mu_threshold {
                let opt = ((rng.next_u64() as u128 * k as u128) >> 64) as usize;
                self.observed[j] = opt as u32;
            } else {
                let mut nb = ((rng.next_u64() as u128 * pop_minus_1 as u128) >> 64) as usize;
                if nb >= j {
                    nb += 1;
                }
                self.observed[j] = self.choices[nb];
            }
        }
        self.observed.iter().map(|&o| o as usize).collect()
    }

    pub fn update(&mut self, rewards: &[f64], rng: &mut SmallRng) {
        let pop = self.choices.len();
        assert_eq!(rewards.len(), pop);
        let a = self.config.alpha;
        let b = self.config.beta;
        let alpha_threshold = (a * u64::MAX as f64) as u64;
        let beta_threshold = (b * u64::MAX as f64) as u64;
        for (j, &r) in rewards.iter().enumerate() {
            let r = crate::sanitize_reward(r);
            let threshold = if r <= 0.0 {
                alpha_threshold
            } else if r >= 1.0 {
                beta_threshold
            } else {
                ((a + (b - a) * r) * u64::MAX as f64) as u64
            };
            if rng.next_u64() < threshold {
                let new = self.observed[j];
                let old = self.choices[j];
                if new != old {
                    self.counts[old as usize] -= 1;
                    self.counts[new as usize] += 1;
                    self.choices[j] = new;
                }
            }
        }
    }

    pub fn counts(&self) -> &[u32] {
        &self.counts
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::slate::SlateMwu;
    use crate::standard::{StandardConfig, StandardMwu};
    use crate::weights::WeightVector;
    use crate::{DistributedMwu, MwuAlgorithm};
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// Deterministic reward in [0, 1] keyed by (arm, round): identical
    /// inputs for the reference and its production twin without consuming
    /// either RNG stream.
    fn reward(arm: usize, t: usize) -> f64 {
        ((arm as u64 * 2654435761 + t as u64 * 97531 + 7) % 1000) as f64 / 999.0
    }

    fn bits(p: &[f64]) -> Vec<u64> {
        p.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn standard_trajectory_is_bit_identical(
            seed in 0u64..1_000_000,
            k in 2usize..48,
            rounds in 10usize..60,
        ) {
            let mut alg = StandardMwu::new(k, StandardConfig::default());
            let mut reference = ReferenceStandard::new(k, alg.config().eta);
            let mut rng = SmallRng::seed_from_u64(seed);
            for t in 0..rounds {
                let plan = alg.plan(&mut rng).to_vec();
                prop_assert_eq!(&plan, &reference.plan());
                let rewards: Vec<f64> =
                    plan.iter().map(|&a| reward(a, t)).collect();
                alg.update(&rewards, &mut rng);
                reference.update(&rewards);
                prop_assert_eq!(
                    bits(&alg.probabilities()),
                    bits(reference.probabilities())
                );
            }
        }

        #[test]
        fn slate_trajectory_is_bit_identical(
            seed in 0u64..1_000_000,
            k in 4usize..40,
            slate_size in 2usize..6,
        ) {
            prop_assume!(slate_size <= k);
            let config = SlateConfig {
                slate_size: Some(slate_size),
                ..SlateConfig::default()
            };
            let mut alg = SlateMwu::new(k, config);
            let mut reference = ReferenceSlate::new(k, config);
            let mut r1 = SmallRng::seed_from_u64(seed);
            let mut r2 = SmallRng::seed_from_u64(seed);
            for t in 0..40 {
                let plan = alg.plan(&mut r1).to_vec();
                prop_assert_eq!(&plan, &reference.plan(&mut r2));
                let rewards: Vec<f64> =
                    plan.iter().map(|&a| reward(a, t)).collect();
                alg.update(&rewards, &mut r1);
                reference.update(&rewards);
                prop_assert_eq!(
                    bits(&alg.probabilities()),
                    bits(reference.probabilities())
                );
            }
        }

        #[test]
        fn distributed_trajectory_is_bit_identical(
            seed in 0u64..1_000_000,
            k in 2usize..12,
        ) {
            let config = DistributedConfig::default();
            let mut alg = DistributedMwu::new(k, config);
            let mut reference = ReferenceDistributed::new(k, config);
            let mut r1 = SmallRng::seed_from_u64(seed);
            let mut r2 = SmallRng::seed_from_u64(seed);
            for t in 0..30 {
                let plan = alg.plan(&mut r1).to_vec();
                prop_assert_eq!(&plan, &reference.plan(&mut r2));
                let rewards: Vec<f64> =
                    plan.iter().map(|&a| reward(a, t)).collect();
                alg.update(&rewards, &mut r1);
                reference.update(&rewards, &mut r2);
                prop_assert_eq!(alg.counts(), reference.counts());
            }
        }

        // §II-C: the capped vector lies in the slate hull. Whatever the
        // production plan kernel emits, `q = s·p` decomposes into slates
        // whose coefficients sum to 1 and rebuild `q`.
        #[test]
        fn decomposition_reconstructs_q_exactly(
            ws in prop::collection::vec(1e-6f64..1e6, 1..24),
            s_raw in 1usize..6,
            gamma in 0.0f64..0.5,
        ) {
            let k = ws.len();
            let s = s_raw.min(k);
            let mut fixed = Vec::new();
            let mut capped = WeightVector::uniform(1);
            WeightVector::from_weights(&ws).mix_capped_into(
                gamma,
                1.0 / s as f64,
                &mut fixed,
                &mut capped,
            );
            let q: Vec<f64> =
                capped.probabilities().iter().map(|&p| (s as f64 * p).min(1.0)).collect();
            let total: f64 = q.iter().sum();
            prop_assert!((total - s as f64).abs() < 1e-6, "q sums to {}", total);

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
    }
}
