//! The bandit environment: options of unknown value, sampled at a cost.
//!
//! The paper frames its evaluation as "estimating distributions" (§I): each
//! dataset is a vector of option values in `[0, 1]`, and pulling an option
//! returns stochastic feedback whose expectation is that value. In the APR
//! use case the feedback is genuinely Bernoulli — a probe either retains the
//! program's fitness or it does not — so Bernoulli is the default
//! [`NoiseModel`].

use crate::rng::keyed_uniform;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A multi-armed bandit environment.
///
/// `pull` is the expensive operation of the paper's framing: in APR it
/// corresponds to patching, compiling and running a test suite. The trait
/// also exposes ground truth (`expected_value`) so the harness can score
/// accuracy *after* a run (Table III); algorithms must never call it.
pub trait Bandit {
    /// Number of arms (options).
    fn num_arms(&self) -> usize;

    /// Sample arm `arm` once, returning a reward in `[0, 1]`.
    fn pull(&mut self, arm: usize, rng: &mut SmallRng) -> f64;

    /// Ground-truth expected reward of `arm` (for post-hoc scoring only).
    fn expected_value(&self, arm: usize) -> f64;

    /// Total number of pulls issued so far.
    fn pulls(&self) -> u64;

    /// Index of the best arm in hindsight.
    fn best_arm(&self) -> usize {
        let mut best = 0;
        for i in 1..self.num_arms() {
            if self.expected_value(i) > self.expected_value(best) {
                best = i;
            }
        }
        best
    }

    /// Expected value of the best arm.
    fn best_value(&self) -> f64 {
        self.expected_value(self.best_arm())
    }
}

/// How observed rewards are generated from an arm's true value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NoiseModel {
    /// Reward is exactly the arm's value (full-information oracle; used in
    /// tests and the cost-model sanity experiments).
    Exact,
    /// Reward ~ Bernoulli(value) — the APR observation model.
    Bernoulli,
    /// Reward = clamp(value + N(0, σ²)) using a Box–Muller gaussian.
    Gaussian(f64),
}

/// A bandit defined by an explicit vector of arm values.
///
/// This is the environment used for every Table II–IV experiment: the
/// dataset generators in `mwu-datasets` produce the value vector, and the
/// noise model turns it into stochastic feedback.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValueBandit {
    values: Vec<f64>,
    noise: NoiseModel,
    pulls: u64,
}

impl ValueBandit {
    /// Build with an explicit noise model.
    ///
    /// # Panics
    /// Panics if `values` is empty or any value lies outside `[0, 1]`.
    pub fn new(values: Vec<f64>, noise: NoiseModel) -> Self {
        assert!(!values.is_empty(), "bandit needs at least one arm");
        for &v in &values {
            assert!(
                (0.0..=1.0).contains(&v),
                "arm value {v} outside the unit interval"
            );
        }
        Self {
            values,
            noise,
            pulls: 0,
        }
    }

    /// Bernoulli-feedback bandit (the paper's observation model).
    pub fn bernoulli(values: Vec<f64>) -> Self {
        Self::new(values, NoiseModel::Bernoulli)
    }

    /// Noise-free bandit, useful in unit tests.
    pub fn exact(values: Vec<f64>) -> Self {
        Self::new(values, NoiseModel::Exact)
    }

    /// The underlying value vector.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl Bandit for ValueBandit {
    fn num_arms(&self) -> usize {
        self.values.len()
    }

    fn pull(&mut self, arm: usize, rng: &mut SmallRng) -> f64 {
        self.pulls += 1;
        let v = self.values[arm];
        match self.noise {
            NoiseModel::Exact => v,
            NoiseModel::Bernoulli => {
                if rng.gen::<f64>() < v {
                    1.0
                } else {
                    0.0
                }
            }
            NoiseModel::Gaussian(sigma) => {
                // Box–Muller from two uniforms; one gaussian per pull is
                // plenty — this path is not hot.
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (v + sigma * z).clamp(0.0, 1.0)
            }
        }
    }

    fn expected_value(&self, arm: usize) -> f64 {
        self.values[arm]
    }

    fn pulls(&self) -> u64 {
        self.pulls
    }
}

/// Deterministic pseudo-random value vector in the unit interval, keyed by a
/// seed. Convenience used by tests and examples; the real dataset catalog
/// lives in `mwu-datasets`.
pub fn random_values(k: usize, seed: u64) -> Vec<f64> {
    (0..k as u64).map(|i| keyed_uniform(&[seed, i])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn exact_bandit_returns_values() {
        let mut b = ValueBandit::exact(vec![0.2, 0.8]);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(b.pull(0, &mut rng), 0.2);
        assert_eq!(b.pull(1, &mut rng), 0.8);
        assert_eq!(b.pulls(), 2);
    }

    #[test]
    fn bernoulli_bandit_matches_mean() {
        let mut b = ValueBandit::bernoulli(vec![0.3]);
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let r = b.pull(0, &mut rng);
            assert!(r == 0.0 || r == 1.0);
            sum += r;
        }
        assert!((sum / n as f64 - 0.3).abs() < 0.01);
    }

    #[test]
    fn gaussian_bandit_clamps_and_centers() {
        let mut b = ValueBandit::new(vec![0.5], NoiseModel::Gaussian(0.2));
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let r = b.pull(0, &mut rng);
            assert!((0.0..=1.0).contains(&r));
            sum += r;
        }
        assert!((sum / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn best_arm_and_best_value() {
        let b = ValueBandit::exact(vec![0.1, 0.9, 0.45]);
        assert_eq!(b.best_arm(), 1);
        assert!((b.best_value() - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn out_of_range_value_panics() {
        let _ = ValueBandit::exact(vec![1.5]);
    }

    #[test]
    fn random_values_deterministic() {
        let a = random_values(16, 5);
        let b = random_values(16, 5);
        let c = random_values(16, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|v| (0.0..1.0).contains(v)));
    }
}
