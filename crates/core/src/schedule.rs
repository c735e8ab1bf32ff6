//! Learning-rate schedules.
//!
//! The paper fixes a constant learning rate per run (η ≤ 1/2, Fig. 1), but
//! notes in §VI that "each algorithm has multiple interacting parameters
//! (e.g., learning rate, iteration limit, ...)" and calls for characterizing
//! them. [`LearningRate`] supports the constant schedule used in the paper's
//! experiments plus two decaying schedules for ablation.

use serde::{Deserialize, Serialize};

/// A learning-rate schedule η(t), with t the 1-based iteration index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LearningRate {
    /// η(t) = η₀ (the paper's setting).
    Constant(f64),
    /// η(t) = η₀ / √t — the anytime schedule from the online-learning
    /// literature; trades convergence speed for robustness to noise.
    InverseSqrt(f64),
    /// η(t) = min(η₀, √(ln k / t)) — the theory-optimal horizon-free rate
    /// for k options (Arora–Hazan–Kale §3.1 specialized to unknown T).
    TheoryOptimal {
        /// Ceiling η₀ (also the early-iteration rate).
        eta0: f64,
        /// Number of options k.
        k: usize,
    },
}

impl LearningRate {
    /// Constant schedule at the classic η = 1/2 ceiling.
    pub fn half() -> Self {
        LearningRate::Constant(0.5)
    }

    /// Evaluate η(t) for 1-based iteration `t`. Always in `(0, 1/2]` for
    /// valid configurations.
    pub fn at(&self, t: usize) -> f64 {
        let t = t.max(1) as f64;
        match *self {
            LearningRate::Constant(e) => e,
            LearningRate::InverseSqrt(e0) => e0 / t.sqrt(),
            LearningRate::TheoryOptimal { eta0, k } => {
                let lnk = (k.max(2) as f64).ln();
                eta0.min((lnk / t).sqrt())
            }
        }
    }

    /// Validate that the schedule respects the MWU constraint η ≤ 1/2 at
    /// every iteration (schedules here are non-increasing, so checking t=1
    /// suffices).
    pub fn is_valid(&self) -> bool {
        let e1 = self.at(1);
        e1 > 0.0 && e1 <= 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = LearningRate::Constant(0.25);
        assert_eq!(s.at(1), 0.25);
        assert_eq!(s.at(1000), 0.25);
        assert!(s.is_valid());
    }

    #[test]
    fn inverse_sqrt_decays() {
        let s = LearningRate::InverseSqrt(0.5);
        assert_eq!(s.at(1), 0.5);
        assert!((s.at(4) - 0.25).abs() < 1e-12);
        assert!(s.at(100) < s.at(10));
        assert!(s.is_valid());
    }

    #[test]
    fn theory_optimal_caps_early_then_decays() {
        let s = LearningRate::TheoryOptimal { eta0: 0.5, k: 64 };
        assert_eq!(s.at(1), 0.5); // sqrt(ln 64 / 1) > 0.5, so capped
        let late = s.at(10_000);
        assert!(late < 0.05);
        assert!(s.is_valid());
    }

    #[test]
    fn zero_iteration_treated_as_one() {
        let s = LearningRate::InverseSqrt(0.5);
        assert_eq!(s.at(0), s.at(1));
    }

    #[test]
    fn invalid_rates_detected() {
        assert!(!LearningRate::Constant(0.75).is_valid());
        assert!(!LearningRate::Constant(0.0).is_valid());
    }
}
