//! Alternative bandit algorithms for context and ablation.
//!
//! The paper situates MWU among online-learning methods that "have been
//! discovered independently in multiple fields, for example as 'fictitious
//! play' in game theory and as 'winnow' or 'hedge' in machine learning"
//! (§V-A). This module provides:
//!
//! * [`HedgeMwu`] — the gains-form exponential-weights algorithm (Freund &
//!   Schapire's Hedge): `w_i ← w_i·exp(η·g_i)` under full information.
//!   Equivalent to Standard up to the gain/cost parameterization; included
//!   so the classic realization is directly runnable.
//! * [`EpsilonGreedy`] — the simplest sequential bandit strategy: one agent,
//!   one pull per cycle, explore uniformly with probability ε.
//! * [`Ucb1`] — Auer et al.'s upper-confidence-bound strategy, the standard
//!   frequentist sequential baseline.
//!
//! The sequential strategies occupy **one CPU per cycle** — they are the
//! "no parallelism" corner of the paper's design space, and the
//! `bandit_baselines` experiment binary uses them to show what the parallel
//! MWU realizations buy.

use crate::convergence::{ConvergenceCriterion, ConvergenceState};
use crate::cost::Variant;
use crate::schedule::LearningRate;
use crate::weights::WeightVector;
use crate::{CommStats, MwuAlgorithm};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration for [`HedgeMwu`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HedgeConfig {
    /// Learning rate η for the exponential gain update.
    pub eta: LearningRate,
    /// Stabilization tolerance (see `convergence` module).
    pub tolerance: f64,
    /// Stabilization window.
    pub stability_window: usize,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        Self {
            eta: LearningRate::Constant(0.5),
            tolerance: crate::convergence::DEFAULT_TOLERANCE,
            stability_window: crate::convergence::DEFAULT_STABILITY_WINDOW,
        }
    }
}

/// Hedge: full-information exponential weights over gains.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct HedgeMwu {
    weights: WeightVector,
    config: HedgeConfig,
    convergence: ConvergenceState,
    comm: CommStats,
    iteration: usize,
    plan_buf: Vec<usize>,
}

impl HedgeMwu {
    /// Create over `k` options.
    ///
    /// # Panics
    /// Panics if `k == 0` or η is invalid.
    pub fn new(k: usize, config: HedgeConfig) -> Self {
        assert!(k > 0);
        assert!(config.eta.is_valid());
        Self {
            weights: WeightVector::uniform(k),
            config,
            convergence: ConvergenceState::new(ConvergenceCriterion::LeaderShareStabilized {
                tolerance: config.tolerance,
                window: config.stability_window,
            }),
            comm: CommStats::default(),
            iteration: 0,
            plan_buf: (0..k).collect(),
        }
    }

    /// Completed update cycles.
    pub fn iteration(&self) -> usize {
        self.iteration
    }
}

impl MwuAlgorithm for HedgeMwu {
    fn num_arms(&self) -> usize {
        self.weights.len()
    }

    fn plan(&mut self, _rng: &mut SmallRng) -> &[usize] {
        &self.plan_buf
    }

    fn update(&mut self, rewards: &[f64], _rng: &mut SmallRng) {
        let k = self.weights.len();
        assert_eq!(rewards.len(), k, "Hedge expects one reward per option");
        self.iteration += 1;
        let eta = self.config.eta.at(self.iteration);
        self.weights
            .scale_all(|i| (eta * rewards[i].clamp(0.0, 1.0)).exp());
        self.comm.record_round(k, 2 * k as u64);
        self.convergence
            .observe(self.iteration, self.weights.max_probability());
    }

    fn leader(&self) -> usize {
        self.weights.argmax()
    }

    fn leader_share(&self) -> f64 {
        self.weights.max_probability()
    }

    fn has_converged(&self) -> bool {
        self.convergence.has_converged()
    }

    fn cpus_per_iteration(&self) -> usize {
        self.weights.len()
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
        "hedge"
    }

    fn variant(&self) -> Variant {
        Variant::Standard
    }
}

/// Shared state of the sequential (one pull per cycle) strategies.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct SequentialState {
    pulls: Vec<u64>,
    sums: Vec<f64>,
    total: u64,
    last_arm: usize,
    plan_buf: [usize; 1],
    convergence: ConvergenceState,
    iteration: usize,
}

impl SequentialState {
    fn new(k: usize, share_threshold: f64) -> Self {
        Self {
            pulls: vec![0; k],
            sums: vec![0.0; k],
            total: 0,
            last_arm: 0,
            plan_buf: [0],
            convergence: ConvergenceState::new(ConvergenceCriterion::PopulationShare {
                share: share_threshold,
            }),
            iteration: 0,
        }
    }

    fn mean(&self, arm: usize) -> f64 {
        if self.pulls[arm] == 0 {
            0.0
        } else {
            self.sums[arm] / self.pulls[arm] as f64
        }
    }

    fn leader(&self) -> usize {
        let mut best = 0;
        for i in 1..self.pulls.len() {
            if self.mean(i) > self.mean(best) {
                best = i;
            }
        }
        best
    }

    /// Fraction of all pulls spent on the current leader — the sequential
    /// analogue of the population share.
    fn leader_share(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.pulls[self.leader()] as f64 / self.total as f64
        }
    }

    fn record(&mut self, arm: usize, reward: f64) {
        self.pulls[arm] += 1;
        self.sums[arm] += reward;
        self.total += 1;
        self.iteration += 1;
        // The pull-share criterion is meaningless before the strategy has
        // sampled broadly: gate it on a 10-pulls-per-arm warm-up (otherwise
        // the very first pull trivially owns 100 % of the history).
        if self.total >= 10 * self.pulls.len() as u64 {
            let share = self.leader_share();
            self.convergence.observe(self.iteration, share);
        }
    }
}

/// ε-greedy: explore a uniform arm with probability ε, otherwise pull the
/// empirically-best arm. One pull per update cycle.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EpsilonGreedy {
    epsilon: f64,
    state: SequentialState,
}

impl EpsilonGreedy {
    /// Create over `k` arms with exploration rate ε (paper-comparable
    /// default: 0.05, the same exploration probability as μ and γ).
    ///
    /// # Panics
    /// Panics if `k == 0` or ε ∉ [0, 1].
    pub fn new(k: usize, epsilon: f64) -> Self {
        assert!(k > 0);
        assert!((0.0..=1.0).contains(&epsilon));
        Self {
            epsilon,
            // Converged once 80 % of pulls concentrate on the leader.
            state: SequentialState::new(k, 0.80),
        }
    }
}

impl MwuAlgorithm for EpsilonGreedy {
    fn num_arms(&self) -> usize {
        self.state.pulls.len()
    }

    fn plan(&mut self, rng: &mut SmallRng) -> &[usize] {
        let k = self.state.pulls.len();
        let arm = if self.state.total < k as u64 {
            // Initial round-robin so every arm has one sample.
            self.state.total as usize
        } else if rng.gen::<f64>() < self.epsilon {
            rng.gen_range(0..k)
        } else {
            self.state.leader()
        };
        self.state.last_arm = arm;
        self.state.plan_buf = [arm];
        &self.state.plan_buf
    }

    fn update(&mut self, rewards: &[f64], _rng: &mut SmallRng) {
        assert_eq!(rewards.len(), 1, "sequential strategy pulls one arm");
        self.state
            .record(self.state.last_arm, rewards[0].clamp(0.0, 1.0));
    }

    fn leader(&self) -> usize {
        self.state.leader()
    }

    fn leader_share(&self) -> f64 {
        self.state.leader_share()
    }

    fn has_converged(&self) -> bool {
        self.state.convergence.has_converged()
    }

    fn cpus_per_iteration(&self) -> usize {
        1
    }

    fn probabilities(&self) -> Vec<f64> {
        let total = self.state.total.max(1) as f64;
        self.state.pulls.iter().map(|&p| p as f64 / total).collect()
    }

    fn probabilities_into(&self, out: &mut Vec<f64>) {
        let total = self.state.total.max(1) as f64;
        out.clear();
        out.extend(self.state.pulls.iter().map(|&p| p as f64 / total));
    }

    fn comm_stats(&self) -> CommStats {
        CommStats::default() // a single agent communicates with no one
    }

    fn name(&self) -> &'static str {
        "epsilon-greedy"
    }

    fn variant(&self) -> Variant {
        Variant::Standard
    }
}

/// UCB1 (Auer, Cesa-Bianchi & Fischer): pull the arm maximizing
/// `mean + √(2 ln t / n_i)`. One pull per update cycle.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Ucb1 {
    state: SequentialState,
}

impl Ucb1 {
    /// Create over `k` arms.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0);
        Self {
            state: SequentialState::new(k, 0.80),
        }
    }

    fn ucb(&self, arm: usize) -> f64 {
        let n = self.state.pulls[arm];
        if n == 0 {
            return f64::INFINITY;
        }
        let t = self.state.total.max(1) as f64;
        self.state.mean(arm) + (2.0 * t.ln() / n as f64).sqrt()
    }
}

impl MwuAlgorithm for Ucb1 {
    fn num_arms(&self) -> usize {
        self.state.pulls.len()
    }

    fn plan(&mut self, _rng: &mut SmallRng) -> &[usize] {
        let k = self.state.pulls.len();
        let mut best = 0;
        let mut best_v = f64::NEG_INFINITY;
        for i in 0..k {
            let v = self.ucb(i);
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        self.state.last_arm = best;
        self.state.plan_buf = [best];
        &self.state.plan_buf
    }

    fn update(&mut self, rewards: &[f64], _rng: &mut SmallRng) {
        assert_eq!(rewards.len(), 1, "sequential strategy pulls one arm");
        self.state
            .record(self.state.last_arm, rewards[0].clamp(0.0, 1.0));
    }

    fn leader(&self) -> usize {
        self.state.leader()
    }

    fn leader_share(&self) -> f64 {
        self.state.leader_share()
    }

    fn has_converged(&self) -> bool {
        self.state.convergence.has_converged()
    }

    fn cpus_per_iteration(&self) -> usize {
        1
    }

    fn probabilities(&self) -> Vec<f64> {
        let total = self.state.total.max(1) as f64;
        self.state.pulls.iter().map(|&p| p as f64 / total).collect()
    }

    fn probabilities_into(&self, out: &mut Vec<f64>) {
        let total = self.state.total.max(1) as f64;
        out.clear();
        out.extend(self.state.pulls.iter().map(|&p| p as f64 / total));
    }

    fn comm_stats(&self) -> CommStats {
        CommStats::default()
    }

    fn name(&self) -> &'static str {
        "ucb1"
    }

    fn variant(&self) -> Variant {
        Variant::Standard
    }
}

/// EXP3 (Auer et al., "The nonstochastic multiarmed bandit problem"): the
/// *bandit-feedback* member of the exponential-weights family — exactly
/// the algorithm Slate reduces to at slate size 1. One pull per cycle,
/// importance-weighted update of only the pulled arm.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Exp3 {
    weights: WeightVector,
    gamma: f64,
    eta: f64,
    last_arm: usize,
    last_p: f64,
    plan_buf: [usize; 1],
    convergence: ConvergenceState,
    iteration: usize,
    pulls: Vec<u64>,
    total: u64,
}

impl Exp3 {
    /// Create over `k` arms with exploration rate γ (paper-comparable
    /// default 0.05). η is set to γ/k, the standard anytime-safe choice
    /// that bounds single-step exponents by 1.
    ///
    /// # Panics
    /// Panics if `k == 0` or γ ∉ (0, 1).
    pub fn new(k: usize, gamma: f64) -> Self {
        assert!(k > 0);
        assert!(gamma > 0.0 && gamma < 1.0);
        Self {
            weights: WeightVector::uniform(k),
            gamma,
            eta: gamma / k as f64,
            last_arm: 0,
            last_p: 1.0 / k as f64,
            plan_buf: [0],
            convergence: ConvergenceState::new(ConvergenceCriterion::PopulationShare {
                share: 0.80,
            }),
            iteration: 0,
            pulls: vec![0; k],
            total: 0,
        }
    }

    /// Selection probability of arm `i`: `(1−γ)·ŵ_i + γ/k`.
    fn selection_p(&self, i: usize) -> f64 {
        (1.0 - self.gamma) * self.weights.get(i) + self.gamma / self.weights.len() as f64
    }
}

impl MwuAlgorithm for Exp3 {
    fn num_arms(&self) -> usize {
        self.weights.len()
    }

    fn plan(&mut self, rng: &mut SmallRng) -> &[usize] {
        // Sample the γ-mixture without materializing it: one draw, one
        // scan, zero alloc.
        let arm = self.weights.sample_mixed(self.gamma, rng);
        self.last_arm = arm;
        self.last_p = self.selection_p(arm);
        self.plan_buf = [arm];
        &self.plan_buf
    }

    fn update(&mut self, rewards: &[f64], _rng: &mut SmallRng) {
        assert_eq!(rewards.len(), 1, "EXP3 pulls one arm per cycle");
        self.iteration += 1;
        self.total += 1;
        self.pulls[self.last_arm] += 1;
        let g_hat = rewards[0].clamp(0.0, 1.0) / self.last_p.max(1e-12);
        self.weights
            .scale_one(self.last_arm, (self.eta * g_hat).exp());
        // Convergence: like the other sequential strategies, 80 % of pulls
        // concentrated on the leader, after a warm-up.
        if self.total >= 10 * self.weights.len() as u64 {
            self.convergence
                .observe(self.iteration, self.leader_share());
        }
    }

    fn leader(&self) -> usize {
        self.weights.argmax()
    }

    fn leader_share(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.pulls[self.weights.argmax()] as f64 / self.total as f64
        }
    }

    fn has_converged(&self) -> bool {
        self.convergence.has_converged()
    }

    fn cpus_per_iteration(&self) -> usize {
        1
    }

    fn probabilities(&self) -> Vec<f64> {
        (0..self.weights.len())
            .map(|i| self.selection_p(i))
            .collect()
    }

    fn probabilities_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.weights.len()).map(|i| self.selection_p(i)));
    }

    fn comm_stats(&self) -> CommStats {
        CommStats::default()
    }

    fn name(&self) -> &'static str {
        "exp3"
    }

    fn variant(&self) -> Variant {
        Variant::Slate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandit::{Bandit, ValueBandit};
    use rand::SeedableRng;

    fn drive<A: MwuAlgorithm>(alg: &mut A, bandit: &mut ValueBandit, rounds: usize, seed: u64) {
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
    fn hedge_finds_best_arm() {
        let mut alg = HedgeMwu::new(8, HedgeConfig::default());
        let mut bandit = ValueBandit::bernoulli(vec![0.1, 0.2, 0.3, 0.9, 0.2, 0.1, 0.3, 0.4]);
        drive(&mut alg, &mut bandit, 5000, 1);
        assert_eq!(alg.leader(), 3);
        assert!(alg.has_converged());
    }

    #[test]
    fn hedge_matches_standard_cpu_profile() {
        let alg = HedgeMwu::new(100, HedgeConfig::default());
        assert_eq!(alg.cpus_per_iteration(), 100);
        assert_eq!(alg.name(), "hedge");
    }

    #[test]
    fn epsilon_greedy_round_robins_then_exploits() {
        let mut alg = EpsilonGreedy::new(5, 0.05);
        let mut rng = SmallRng::seed_from_u64(2);
        // First k plans cover every arm exactly once.
        let mut seen = [false; 5];
        for _ in 0..5 {
            let arm = alg.plan(&mut rng)[0];
            assert!(!seen[arm]);
            seen[arm] = true;
            alg.update(&[0.5], &mut rng);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn epsilon_greedy_converges_to_best() {
        let mut alg = EpsilonGreedy::new(6, 0.05);
        let mut bandit = ValueBandit::bernoulli(vec![0.2, 0.3, 0.85, 0.3, 0.2, 0.1]);
        drive(&mut alg, &mut bandit, 20_000, 3);
        assert_eq!(alg.leader(), 2);
        assert!(alg.has_converged());
        assert!(alg.leader_share() >= 0.8);
    }

    #[test]
    fn ucb1_converges_to_best_and_uses_one_cpu() {
        let mut alg = Ucb1::new(6);
        let mut bandit = ValueBandit::bernoulli(vec![0.2, 0.3, 0.85, 0.3, 0.2, 0.1]);
        drive(&mut alg, &mut bandit, 20_000, 4);
        assert_eq!(alg.leader(), 2);
        assert_eq!(alg.cpus_per_iteration(), 1);
    }

    #[test]
    fn ucb1_pulls_every_arm_first() {
        let mut alg = Ucb1::new(4);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut seen = vec![false; 4];
        for _ in 0..4 {
            let arm = alg.plan(&mut rng)[0];
            seen[arm] = true;
            alg.update(&[0.0], &mut rng);
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn sequential_strategies_report_zero_communication() {
        let mut alg = Ucb1::new(4);
        let mut bandit = ValueBandit::bernoulli(vec![0.5; 4]);
        drive(&mut alg, &mut bandit, 100, 6);
        assert_eq!(alg.comm_stats().messages, 0);
        assert_eq!(alg.comm_stats().peak_congestion, 0);
    }

    #[test]
    fn probabilities_are_pull_fractions() {
        let mut alg = EpsilonGreedy::new(3, 0.0);
        let mut bandit = ValueBandit::exact(vec![0.1, 0.9, 0.1]);
        drive(&mut alg, &mut bandit, 200, 7);
        let p = alg.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[1] > p[0] && p[1] > p[2]);
    }

    #[test]
    fn exp3_converges_to_best_arm() {
        let mut alg = Exp3::new(6, 0.05);
        let mut bandit = ValueBandit::bernoulli(vec![0.2, 0.3, 0.85, 0.3, 0.2, 0.1]);
        drive(&mut alg, &mut bandit, 100_000, 11);
        assert_eq!(alg.leader(), 2);
        assert_eq!(alg.cpus_per_iteration(), 1);
    }

    #[test]
    fn exp3_probabilities_are_a_distribution_with_floor() {
        let mut alg = Exp3::new(8, 0.1);
        let mut bandit = ValueBandit::bernoulli(vec![0.5; 8]);
        drive(&mut alg, &mut bandit, 500, 12);
        let p = alg.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Exploration floor γ/k.
        assert!(p.iter().all(|&x| x >= 0.1 / 8.0 - 1e-12));
    }

    #[test]
    fn exp3_importance_weights_stay_bounded() {
        // η = γ/k and p ≥ γ/k bound the exponent at 1 — weights never blow
        // up even under adversarially lucky streaks.
        let mut alg = Exp3::new(4, 0.05);
        let mut rng = SmallRng::seed_from_u64(13);
        for _ in 0..20_000 {
            let _ = alg.plan(&mut rng);
            alg.update(&[1.0], &mut rng);
        }
        assert!(alg.probabilities().iter().all(|p| p.is_finite()));
    }
}
