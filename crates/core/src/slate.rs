//! Slate MWU — fixed-size subset selection (paper Fig. 2, after Kale,
//! Reyzin & Schapire's "slates" bandit).
//!
//! Each iteration selects a *slate* of `s` options; only the slate members
//! are evaluated and only their weights are updated (importance-weighted by
//! their inclusion probability). The paper notes (§II-C) that choosing a
//! slate naively — projecting the weight vector onto each of the C(k, s)
//! subsets — is prohibitively expensive, but because the weight vector can
//! be **capped** at `1/s` and renormalized, the scaled vector `q = s·p` lies
//! in the convex hull of the slate indicator vectors and can be decomposed
//! into a convex combination of at most `k` slates in `O(k²)` time.
//!
//! This module draws each slate by systematic sampling instead
//! ([`systematic_sample_with_scratch`]): every arm enters the slate with
//! the same probability `q_i` as under the decomposition, at `O(k + s log k)`
//! per draw (EXPERIMENTS.md, deviation 7). The decomposition survives only
//! as a test oracle, where a property test checks that every capped vector
//! the plan kernel produces decomposes exactly into slates.
//!
//! ## Round-kernel allocation discipline
//!
//! One `plan` + `update` round performs zero heap allocations in the steady
//! state: the fused mix-and-cap kernel ([`WeightVector::mix_capped_into`])
//! and the sampler write into persistent scratch owned by [`SlateMwu`], and
//! the update batches its multipliers into one
//! [`WeightVector::scale_many`] (see `docs/PERFORMANCE.md`).

use crate::convergence::{ConvergenceCriterion, ConvergenceState};
use crate::cost::Variant;
use crate::weights::WeightVector;
use crate::{CommStats, MwuAlgorithm};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Error, Serialize, Value};

/// How the slate is drawn from the capped inclusion probabilities.
///
/// Systematic sampling is the only sampler; the field persists so every
/// Slate checkpoint and daemon `session.json` keeps its
/// `"sampling":"Systematic"` entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlateSampling {
    /// Systematic (stratified) sampling: inclusion probability of arm `i`
    /// exactly `q_i`.
    Systematic,
}

/// Configuration for [`SlateMwu`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlateConfig {
    /// Exploration rate γ: the probability mass mixed uniformly over all
    /// options (paper §IV-B sets γ = 0.05). Also determines the default
    /// slate size.
    pub gamma: f64,
    /// Slate size `s`. `None` derives the paper's setting `s = ⌈γ·k⌉`
    /// (clamped to `[2, k]`) — the fixed γ "sets the k/n ratio to a
    /// constant" (§IV-F.1).
    pub slate_size: Option<usize>,
    /// Learning rate for the exponential update. `None` derives
    /// `η = 2·γ·s/k`, which bounds each exponent by
    /// `η/q_min = 2·η·k/(2·s·γ) = 2` and so keeps single-round weight
    /// multipliers ≤ e².
    pub eta: Option<f64>,
    /// Convergence tolerance on the leader's slate-inclusion probability
    /// (paper §IV-C: 1e-5). Slate converges when that probability is within
    /// the tolerance of its maximum possible value — i.e. the leader's
    /// weight has saturated the 1/s cap, so the leader sits in *every*
    /// slate. Unlike Standard's full-probability ceiling, this target is
    /// reachable even among near-tied options (up to `s` options can
    /// saturate the cap simultaneously), so Slate keeps the paper's strict
    /// reading. It is also why Slate is the slowest variant in update
    /// cycles and sometimes fails to converge within the budget (§IV-C).
    pub tolerance: f64,
    /// Quiet-streak length if stabilization-based convergence is wanted
    /// instead (ablation); `0` (default) selects the cap-saturation rule.
    pub stability_window: usize,
    /// Sampling backend (one variant; see [`SlateSampling`]).
    pub sampling: SlateSampling,
}

impl Default for SlateConfig {
    fn default() -> Self {
        Self {
            gamma: 0.05,
            slate_size: None,
            eta: None,
            tolerance: crate::convergence::DEFAULT_TOLERANCE,
            stability_window: 0,
            sampling: SlateSampling::Systematic,
        }
    }
}

/// The Slate MWU algorithm.
///
/// ```
/// use mwu_core::prelude::*;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut alg = SlateMwu::new(20, SlateConfig::default());
/// assert!(alg.slate_size() >= 2);
/// let mut bandit = ValueBandit::exact(mwu_core::bandit::random_values(20, 9));
/// let mut rng = SmallRng::seed_from_u64(0);
/// for _ in 0..3000 {
///     let plan = alg.plan(&mut rng).to_vec();
///     let rewards: Vec<f64> =
///         plan.iter().map(|&a| bandit.pull(a, &mut rng)).collect();
///     alg.update(&rewards, &mut rng);
/// }
/// // The leader should be among the top arms.
/// let v = bandit.expected_value(alg.leader());
/// assert!(v > 0.8 * bandit.best_value());
/// ```
#[derive(Debug, Clone)]
pub struct SlateMwu {
    weights: WeightVector,
    config: SlateConfig,
    slate_size: usize,
    eta: f64,
    convergence: ConvergenceState,
    comm: CommStats,
    iteration: usize,
    plan_buf: Vec<usize>,
    /// Inclusion probability q_i of each planned arm, aligned with plan_buf.
    plan_q: Vec<f64>,
    /// Last computed full inclusion-probability vector (for leader share).
    inclusion: Vec<f64>,
    /// Scratch: γ-mixed-and-capped weights (fused plan pipeline stage 1).
    capped_scratch: WeightVector,
    /// Scratch: water-filling flags for `mix_capped_into`.
    cap_fixed: Vec<bool>,
    /// Scratch: cumulative-sum axis for systematic sampling.
    sys_acc: Vec<f64>,
    /// Scratch: batched `(arm, multiplier)` pairs for `update`.
    update_scratch: Vec<(usize, f64)>,
}

impl SlateMwu {
    /// Create over `k` options.
    ///
    /// # Panics
    /// Panics if `k == 0`, γ ∉ (0, 1), or an explicit slate size is outside
    /// `[1, k]`.
    pub fn new(k: usize, config: SlateConfig) -> Self {
        assert!(k > 0, "need at least one option");
        assert!(
            config.gamma > 0.0 && config.gamma < 1.0,
            "gamma must lie in (0, 1)"
        );
        let s = config
            .slate_size
            .unwrap_or_else(|| ((config.gamma * k as f64).ceil() as usize).clamp(2, k))
            .min(k);
        assert!(s >= 1, "slate size must be positive");
        let eta = config
            .eta
            .unwrap_or(2.0 * config.gamma * s as f64 / k as f64);
        assert!(eta > 0.0, "eta must be positive");
        // Ceiling on the leader's inclusion probability: capping at 1/s
        // means a fully-converged leader has q = 1 exactly (it is in every
        // slate), provided (1−γ) + γ/k ≥ 1/s; for s ≥ 2 and γ = 0.05 this
        // always holds, so max possible is 1.
        let max_possible = 1.0f64.min(s as f64 * ((1.0 - config.gamma) + config.gamma / k as f64));
        let criterion = if config.stability_window > 0 || s == k {
            // A full slate (s == k) degenerates to full information and
            // every option's inclusion probability is constantly 1 — the
            // cap-saturation rule would fire immediately. Track the weight
            // share's stabilization instead (see `leader_share`).
            ConvergenceCriterion::LeaderShareStabilized {
                tolerance: config.tolerance,
                window: if config.stability_window > 0 {
                    config.stability_window
                } else {
                    crate::convergence::DEFAULT_STABILITY_WINDOW
                },
            }
        } else {
            ConvergenceCriterion::WithinToleranceOfMax {
                tolerance: config.tolerance,
                max_possible,
            }
        };
        Self {
            weights: WeightVector::uniform(k),
            config,
            slate_size: s,
            eta,
            convergence: ConvergenceState::new(criterion),
            comm: CommStats::default(),
            iteration: 0,
            plan_buf: Vec::with_capacity(s),
            plan_q: Vec::with_capacity(s),
            inclusion: vec![s as f64 / k as f64; k],
            capped_scratch: WeightVector::uniform(k),
            cap_fixed: Vec::with_capacity(k),
            sys_acc: Vec::with_capacity(k),
            update_scratch: Vec::with_capacity(s),
        }
    }

    /// Reset to the exact state of a fresh `new(k, config)` while keeping
    /// every buffer's allocation — the [`crate::arena::ThreadArena`] reuse
    /// contract. Trajectories after a reset are bit-identical to a fresh
    /// instance's.
    pub fn reset(&mut self) {
        let k = self.weights.len();
        self.weights.reset_uniform();
        self.convergence = ConvergenceState::new(self.convergence.criterion());
        self.comm = CommStats::default();
        self.iteration = 0;
        self.plan_buf.clear();
        self.plan_q.clear();
        self.inclusion.fill(self.slate_size as f64 / k as f64);
        self.capped_scratch.reset_uniform();
        self.cap_fixed.clear();
        self.sys_acc.clear();
        self.update_scratch.clear();
    }

    /// The configuration in force.
    pub fn config(&self) -> &SlateConfig {
        &self.config
    }

    /// The slate size `s` in force.
    pub fn slate_size(&self) -> usize {
        self.slate_size
    }

    /// The derived learning rate η.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// The current (uncapped) weight vector.
    pub fn weights(&self) -> &WeightVector {
        &self.weights
    }

    /// Completed update cycles.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// The floor applied to a planned arm's inclusion probability before it
    /// divides the importance weight in [`MwuAlgorithm::update`].
    ///
    /// On the valid path every arm in a slate has `q_i ≥ s·γ/k` up to
    /// rounding (the γ-mix floors the mixed weight at `γ/k` and the 1/s cap
    /// only scales free coordinates *up*), so half that bound can never
    /// bind on a legitimately sampled arm — it exists to keep the update
    /// exponent ≤ `η/(γ·s/(2k)) = 4` (with the derived η) even if a
    /// numerically degenerate `q` sneaks through, instead of the unbounded
    /// exponent the historical `1e-12` clamp allowed.
    pub fn inclusion_floor(&self) -> f64 {
        0.5 * self.config.gamma * self.slate_size as f64 / self.weights.len() as f64
    }
}

impl MwuAlgorithm for SlateMwu {
    fn num_arms(&self) -> usize {
        self.weights.len()
    }

    fn plan(&mut self, rng: &mut SmallRng) -> &[usize] {
        let s = self.slate_size;
        // Inclusion pipeline, all in persistent scratch: mix the exploration
        // floor in, cap at 1/s (one fused pass), scale by s.
        self.weights.mix_capped_into(
            self.config.gamma,
            1.0 / s as f64,
            &mut self.cap_fixed,
            &mut self.capped_scratch,
        );
        self.inclusion.clear();
        self.inclusion.extend(
            self.capped_scratch
                .probabilities()
                .iter()
                .map(|&p| (s as f64 * p).min(1.0)),
        );
        {
            let _span = crate::prof::span(crate::prof::Phase::Sample);
            systematic_sample_with_scratch(
                &self.inclusion,
                s,
                rng,
                &mut self.sys_acc,
                &mut self.plan_buf,
            );
        }
        self.plan_q.clear();
        for &i in &self.plan_buf {
            self.plan_q.push(self.inclusion[i]);
        }
        &self.plan_buf
    }

    fn update(&mut self, rewards: &[f64], _rng: &mut SmallRng) {
        assert_eq!(
            rewards.len(),
            self.plan_buf.len(),
            "Slate expects one reward per slate member"
        );
        self.iteration += 1;
        // Importance-weighted exponential update on the sampled arms only:
        // ŵ_i ← ŵ_i · exp(η · r_i / q_i). Unbiased: E[r_i/q_i · 1{i∈S}] = v_i.
        // Batched so the O(k) renormalization happens once per round, not
        // once per sampled arm. The floor (see `inclusion_floor`) bounds the
        // exponent without ever binding on legitimately sampled arms.
        let q_floor = self.inclusion_floor();
        self.update_scratch.clear();
        for (j, &arm) in self.plan_buf.iter().enumerate() {
            let q = self.plan_q[j].max(q_floor);
            let g_hat = crate::sanitize_reward(rewards[j]) / q;
            self.update_scratch.push((arm, (self.eta * g_hat).exp()));
        }
        self.weights.scale_many(&self.update_scratch);
        // The slate's s agents synchronize with the weight master each round.
        self.comm
            .record_round(self.slate_size, 2 * self.slate_size as u64);
        self.convergence
            .observe(self.iteration, self.leader_share());
    }

    fn leader(&self) -> usize {
        self.weights.argmax()
    }

    /// The leader's *inclusion probability* in the next slate — the quantity
    /// the paper's convergence criterion tracks for Slate. With a full
    /// slate (s == k, where inclusion is constantly 1) the weight share is
    /// tracked instead.
    fn leader_share(&self) -> f64 {
        if self.slate_size == self.weights.len() {
            self.weights.max_probability()
        } else {
            self.inclusion[self.weights.argmax()]
        }
    }

    fn has_converged(&self) -> bool {
        self.convergence.has_converged()
    }

    fn cpus_per_iteration(&self) -> usize {
        self.slate_size
    }

    fn probabilities(&self) -> Vec<f64> {
        self.weights.probabilities().to_vec()
    }

    fn probabilities_into(&self, out: &mut Vec<f64>) {
        self.weights.probabilities_into(out);
    }

    fn comm_stats(&self) -> CommStats {
        self.comm
    }

    fn name(&self) -> &'static str {
        "slate"
    }

    fn variant(&self) -> Variant {
        Variant::Slate
    }
}

// The scratch buffers are derived state rebuilt by the next `plan`, so the
// serialized form carries exactly the ten logical fields the derive used to
// emit (the vendored serde_derive has no `#[serde(skip)]`, hence the manual
// impls). Checkpoint compatibility: field names and order are unchanged.
impl Serialize for SlateMwu {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("weights".to_string(), self.weights.to_value()),
            ("config".to_string(), self.config.to_value()),
            ("slate_size".to_string(), self.slate_size.to_value()),
            ("eta".to_string(), self.eta.to_value()),
            ("convergence".to_string(), self.convergence.to_value()),
            ("comm".to_string(), self.comm.to_value()),
            ("iteration".to_string(), self.iteration.to_value()),
            ("plan_buf".to_string(), self.plan_buf.to_value()),
            ("plan_q".to_string(), self.plan_q.to_value()),
            ("inclusion".to_string(), self.inclusion.to_value()),
        ])
    }
}

impl Deserialize for SlateMwu {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let weights = WeightVector::from_value(v.field("weights"))?;
        let k = weights.len();
        let slate_size = usize::from_value(v.field("slate_size"))?;
        Ok(Self {
            weights,
            config: SlateConfig::from_value(v.field("config"))?,
            slate_size,
            eta: f64::from_value(v.field("eta"))?,
            convergence: ConvergenceState::from_value(v.field("convergence"))?,
            comm: CommStats::from_value(v.field("comm"))?,
            iteration: usize::from_value(v.field("iteration"))?,
            plan_buf: Vec::<usize>::from_value(v.field("plan_buf"))?,
            plan_q: Vec::<f64>::from_value(v.field("plan_q"))?,
            inclusion: Vec::<f64>::from_value(v.field("inclusion"))?,
            capped_scratch: WeightVector::uniform(k),
            cap_fixed: Vec::with_capacity(k),
            sys_acc: Vec::with_capacity(k),
            update_scratch: Vec::with_capacity(slate_size),
        })
    }
}

/// Systematic sampling of a size-`s` subset with inclusion probabilities
/// exactly `q` (requires `Σq = s` and `0 ≤ q_i ≤ 1`): the `SlateMwu` plan
/// sampler.
///
/// One uniform draw `u` places `s` equally-spaced points `u, u+1, …, u+s−1`
/// on the cumulative-sum axis of `q`; the arms whose cumulative intervals
/// contain a point are selected. The prefix sums go into `acc_scratch`
/// (`acc += q_i.max(0.0)`, in index order) and each point is located by
/// binary search over the `next < acc_i − 1e-15` boundary predicate, which
/// is monotone in `i`, so `partition_point` finds exactly the arm a linear
/// scan of the same sums would push, including the duplicate-push and
/// fell-off-the-axis edge cases (the test oracle is that linear scan). The
/// points advance by the iterated `next += 1.0`, not `u + j`, whose single
/// rounding can differ from the iterated sum. `out` is cleared first.
pub fn systematic_sample_with_scratch(
    q: &[f64],
    s: usize,
    rng: &mut SmallRng,
    acc_scratch: &mut Vec<f64>,
    out: &mut Vec<usize>,
) {
    #[cfg(debug_assertions)]
    {
        debug_assert!(q.iter().all(|&x| (-1e-9..=1.0 + 1e-9).contains(&x)));
        let total: f64 = q.iter().sum();
        debug_assert!(
            (total - s as f64).abs() < 1e-6,
            "inclusion probabilities must sum to s (got {total}, s={s})"
        );
    }
    let u: f64 = rng.gen::<f64>();
    acc_scratch.clear();
    let mut acc = 0.0;
    acc_scratch.extend(q.iter().map(|&qi| {
        acc += qi.max(0.0);
        acc
    }));
    out.clear();
    let mut next = u;
    for _ in 0..s {
        let i = acc_scratch.partition_point(|&a| a - 1e-15 <= next);
        if i == q.len() {
            // This point fell off the axis through rounding; later points
            // lie even further out, so no more arms can be selected.
            break;
        }
        out.push(i);
        next += 1.0;
    }
    // Floating-point slack: pad from the end if a point fell off the axis.
    let mut fill = q.len();
    while out.len() < s && fill > 0 {
        fill -= 1;
        if !out.contains(&fill) {
            out.push(fill);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandit::{random_values, Bandit, ValueBandit};
    use crate::reference::{
        decompose_into_slates, sample_decomposition, systematic_sample, ReferenceSlate,
    };
    use rand::SeedableRng;

    /// The production sampler with fresh scratch.
    fn sample(q: &[f64], s: usize, rng: &mut SmallRng) -> Vec<usize> {
        let mut out = Vec::new();
        systematic_sample_with_scratch(q, s, rng, &mut Vec::new(), &mut out);
        out
    }

    fn drive(alg: &mut SlateMwu, bandit: &mut ValueBandit, rounds: usize, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..rounds {
            let plan = alg.plan(&mut rng).to_vec();
            let rewards: Vec<f64> = plan.iter().map(|&a| bandit.pull(a, &mut rng)).collect();
            alg.update(&rewards, &mut rng);
            if alg.has_converged() {
                break;
            }
        }
    }

    #[test]
    fn default_slate_size_follows_gamma() {
        assert_eq!(SlateMwu::new(100, SlateConfig::default()).slate_size(), 5);
        assert_eq!(SlateMwu::new(1000, SlateConfig::default()).slate_size(), 50);
        // Small k clamps to at least 2.
        assert_eq!(SlateMwu::new(10, SlateConfig::default()).slate_size(), 2);
    }

    #[test]
    fn plan_has_distinct_members_of_slate_size() {
        let mut alg = SlateMwu::new(50, SlateConfig::default());
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let plan = alg.plan(&mut rng).to_vec();
            assert_eq!(plan.len(), alg.slate_size());
            let mut sorted = plan.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), plan.len(), "slate has duplicates");
            let rewards = vec![0.5; plan.len()];
            alg.update(&rewards, &mut rng);
        }
    }

    #[test]
    fn systematic_sample_matches_inclusion_probabilities() {
        let q = vec![0.9, 0.5, 0.3, 0.2, 0.1];
        let s = 2;
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 40_000;
        let mut counts = vec![0usize; q.len()];
        for _ in 0..n {
            let slate = sample(&q, s, &mut rng);
            assert_eq!(slate.len(), s);
            for i in slate {
                counts[i] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let rate = c as f64 / n as f64;
            assert!(
                (rate - q[i]).abs() < 0.02,
                "arm {i}: rate {rate} vs q {}",
                q[i]
            );
        }
    }

    #[test]
    fn systematic_sample_into_matches_allocating_form() {
        // One pair of scratch buffers reused across inputs of different
        // lengths and slate sizes must leak nothing between calls: each
        // draw equals the allocating oracle's.
        let cases = [
            (vec![0.25; 8], 2),
            (vec![0.9, 0.5, 0.3, 0.2, 0.1], 2),
            (vec![0.5; 12], 6),
        ];
        let mut r1 = SmallRng::seed_from_u64(21);
        let mut r2 = SmallRng::seed_from_u64(21);
        let (mut acc, mut buf) = (Vec::new(), Vec::new());
        for _ in 0..500 {
            for (q, s) in &cases {
                systematic_sample_with_scratch(q, *s, &mut r1, &mut acc, &mut buf);
                assert_eq!(buf, systematic_sample(q, *s, &mut r2), "q={q:?}");
            }
        }
    }

    #[test]
    fn systematic_sample_with_scratch_matches_linear_scan() {
        // The binary-search form must select the identical arms as the
        // linear scan for the identical draw, across skewed, uniform and
        // rounding-slack inclusion vectors.
        let cases: Vec<(Vec<f64>, usize)> = vec![
            (vec![0.9, 0.5, 0.3, 0.2, 0.1], 2),
            (vec![0.5; 6], 3),
            (vec![1.0, 1.0, 0.5, 0.25, 0.25], 3),
            // Sums slightly short of s: exercises the pad-from-end path.
            (vec![0.9999999, 0.9999999, 0.5, 0.25, 0.25], 3),
            (
                (0..64)
                    .map(|i| 4.0 * (i + 1) as f64 / (64.0 * 65.0 / 2.0))
                    .collect(),
                4,
            ),
        ];
        for (q, s) in cases {
            let mut r1 = SmallRng::seed_from_u64(33);
            let mut r2 = SmallRng::seed_from_u64(33);
            let mut acc = vec![5.0; 2]; // stale contents must be discarded
            let mut fast = vec![99usize; 7];
            for _ in 0..2000 {
                systematic_sample_with_scratch(&q, s, &mut r1, &mut acc, &mut fast);
                assert_eq!(fast, systematic_sample(&q, s, &mut r2), "q={q:?} s={s}");
            }
        }
    }

    // §II-C's decomposition is a test oracle (`crate::reference`); these
    // check the oracle itself.
    #[test]
    fn decomposition_is_convex_and_exact() {
        let q = vec![1.0, 0.7, 0.5, 0.4, 0.25, 0.15];
        let s = 3;
        let d = decompose_into_slates(&q, s);
        let lambda_sum: f64 = d.iter().map(|(l, _)| l).sum();
        assert!((lambda_sum - 1.0).abs() < 1e-9, "λ sum {lambda_sum}");
        let mut reconstructed = vec![0.0; q.len()];
        for (lambda, slate) in &d {
            assert_eq!(slate.len(), s);
            for &i in slate {
                reconstructed[i] += lambda;
            }
        }
        for i in 0..q.len() {
            assert!(
                (reconstructed[i] - q[i]).abs() < 1e-9,
                "arm {i}: {} vs {}",
                reconstructed[i],
                q[i]
            );
        }
    }

    #[test]
    fn decomposition_handles_uniform_and_degenerate() {
        // Uniform q = s/k.
        let q = vec![0.5; 6];
        let d = decompose_into_slates(&q, 3);
        let lambda_sum: f64 = d.iter().map(|(l, _)| l).sum();
        assert!((lambda_sum - 1.0).abs() < 1e-9);

        // s == k: the only slate is everything.
        let q = vec![1.0; 4];
        let d = decompose_into_slates(&q, 4);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1.len(), 4);
    }

    #[test]
    fn decomposition_sampler_matches_inclusion() {
        let q = vec![0.8, 0.6, 0.4, 0.2];
        let d = decompose_into_slates(&q, 2);
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 40_000;
        let mut counts = vec![0usize; q.len()];
        for _ in 0..n {
            for i in sample_decomposition(&d, &mut rng) {
                counts[i] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let rate = c as f64 / n as f64;
            assert!((rate - q[i]).abs() < 0.02, "arm {i}: {rate} vs {}", q[i]);
        }
    }

    #[test]
    fn zero_probability_arm_never_enters_slate() {
        // Regression for the importance-weight clamp fix: arms with q = 0
        // must never be selected — not by the decomposition, not by its
        // sampler's rounding fallback, not by systematic sampling — because
        // update would divide their reward by the floor, not their true q.
        let q = vec![1.0, 1.0, 0.5, 0.5, 0.0, 0.0];
        let s = 3;
        let d = decompose_into_slates(&q, s);
        for (lambda, slate) in &d {
            assert!(*lambda >= 0.0);
            for &i in slate {
                assert!(q[i] > 0.0, "zero-probability arm {i} in slate (λ={lambda})");
            }
        }
        let mut rng = SmallRng::seed_from_u64(17);
        for _ in 0..20_000 {
            for i in sample_decomposition(&d, &mut rng) {
                assert!(q[i] > 0.0, "zero-probability arm {i} sampled");
            }
        }
        for _ in 0..20_000 {
            for i in sample(&q, s, &mut rng) {
                assert!(q[i] > 0.0, "zero-probability arm {i} sampled");
            }
        }
    }

    #[test]
    fn update_exponent_is_bounded_at_full_reward() {
        // The inclusion floor bounds the update exponent at η/q_floor = 4
        // with the derived η, so sustained maximal rewards can never push a
        // weight multiplier past e⁴ in one round — the simplex stays finite.
        let mut alg = SlateMwu::new(40, SlateConfig::default());
        assert!((alg.eta() / alg.inclusion_floor() - 4.0).abs() < 1e-12);
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..500 {
            let n = alg.plan(&mut rng).len();
            let rewards = vec![1.0; n];
            alg.update(&rewards, &mut rng);
            assert!(alg.weights().probabilities().iter().all(|p| p.is_finite()));
        }
    }

    #[test]
    fn both_samplers_find_good_arms() {
        // Production systematic sampling, and the same learner drawing its
        // slates from §II-C's decomposition (the test oracle).
        let values = random_values(30, 11);
        let best = values.iter().copied().fold(0.0, f64::max);
        let mut alg = SlateMwu::new(30, SlateConfig::default());
        drive(&mut alg, &mut ValueBandit::exact(values.clone()), 5000, 7);
        let mut oracle = ReferenceSlate::with_sampler(30, SlateConfig::default(), |q, s, rng| {
            sample_decomposition(&decompose_into_slates(q, s), rng)
        });
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..5000 {
            let rewards: Vec<f64> = oracle.plan(&mut rng).iter().map(|&a| values[a]).collect();
            oracle.update(&rewards);
        }
        let oracle_leader = WeightVector::from_weights(oracle.probabilities()).argmax();
        for (sampler, leader) in [
            ("systematic", alg.leader()),
            ("decomposition", oracle_leader),
        ] {
            let v = values[leader];
            assert!(
                v > 0.75 * best,
                "{sampler}: leader value {v} vs best {best}"
            );
        }
    }

    #[test]
    fn cpu_count_is_slate_size() {
        let alg = SlateMwu::new(200, SlateConfig::default());
        assert_eq!(alg.cpus_per_iteration(), 10);
    }

    #[test]
    fn congestion_is_slate_size() {
        let mut alg = SlateMwu::new(100, SlateConfig::default());
        let mut bandit = ValueBandit::exact(vec![0.5; 100]);
        drive(&mut alg, &mut bandit, 4, 0);
        let c = alg.comm_stats();
        assert_eq!(c.peak_congestion, alg.slate_size());
        assert_eq!(c.rounds, 4);
    }

    #[test]
    fn inclusion_probabilities_sum_to_s_and_capped() {
        let mut alg = SlateMwu::new(40, SlateConfig::default());
        let mut bandit = ValueBandit::bernoulli(random_values(40, 2));
        drive(&mut alg, &mut bandit, 200, 3);
        alg.plan(&mut SmallRng::seed_from_u64(4));
        let q = &alg.inclusion;
        let sum: f64 = q.iter().sum();
        assert!((sum - alg.slate_size() as f64).abs() < 1e-6);
        assert!(q.iter().all(|&x| x <= 1.0 + 1e-9));
    }

    #[test]
    fn serde_roundtrip_preserves_state() {
        let mut alg = SlateMwu::new(25, SlateConfig::default());
        let mut bandit = ValueBandit::bernoulli(random_values(25, 4));
        drive(&mut alg, &mut bandit, 50, 5);
        let restored = SlateMwu::from_value(&alg.to_value()).expect("roundtrip");
        assert_eq!(restored.weights(), alg.weights());
        assert_eq!(restored.iteration(), alg.iteration());
        // Stepping both with twin RNGs stays in lockstep: the scratch
        // buffers really are derived state.
        let mut a = alg.clone();
        let mut b = restored;
        let mut r1 = SmallRng::seed_from_u64(6);
        let mut r2 = SmallRng::seed_from_u64(6);
        for _ in 0..20 {
            let pa = a.plan(&mut r1).to_vec();
            let pb = b.plan(&mut r2).to_vec();
            assert_eq!(pa, pb);
            let rewards = vec![0.5; pa.len()];
            a.update(&rewards, &mut r1);
            b.update(&rewards, &mut r2);
            assert_eq!(a.weights(), b.weights());
        }
    }

    #[test]
    fn converges_eventually_on_clear_winner() {
        let mut values = vec![0.05; 40];
        values[17] = 0.95;
        let mut alg = SlateMwu::new(40, SlateConfig::default());
        let mut bandit = ValueBandit::exact(values);
        drive(&mut alg, &mut bandit, 100_000, 1);
        assert!(alg.has_converged(), "iterations: {}", alg.iteration());
        assert_eq!(alg.leader(), 17);
        // Convergence = cap saturation: the leader sits in every slate.
        assert!(
            alg.leader_share() > 1.0 - 2e-5,
            "share {}",
            alg.leader_share()
        );
    }

    #[test]
    #[should_panic]
    fn zero_arms_rejected() {
        let _ = SlateMwu::new(0, SlateConfig::default());
    }

    #[test]
    #[should_panic]
    fn bad_gamma_rejected() {
        let _ = SlateMwu::new(
            10,
            SlateConfig {
                gamma: 1.5,
                ..SlateConfig::default()
            },
        );
    }
}
