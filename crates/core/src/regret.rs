//! Regret tracking: the online-learning quantity behind the paper's
//! convergence claims.
//!
//! MWU "is optimal (maximizes cumulative gain) in the asymptotic case"
//! (§I); the convergence entries of Table I are translations of regret
//! bounds ("convergence of Slate is presented in terms of regret", §II-C).
//! This module instruments a run with its **policy regret**: after each
//! update cycle, `Σ_i p_i·(v* − v_i)` under the algorithm's current
//! selection distribution `p` ([`MwuAlgorithm::probabilities`]). Policy
//! regret is the right cross-algorithm quantity here because the
//! full-information variants *evaluate* every arm every cycle by design —
//! their evaluation-plan regret is constant — while what improves over
//! time is the distribution they would act on.

use crate::bandit::Bandit;
use crate::run::{drive, RunConfig};
use crate::trace::{NullObserver, Observer};
use crate::MwuAlgorithm;
use serde::{Deserialize, Serialize};

/// Per-cycle policy regret of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegretCurve {
    /// Policy regret `Σ p_i (v* − v_i)` after each update cycle.
    pub per_cycle: Vec<f64>,
    /// Total probes issued.
    pub probes: u64,
    /// Sum of per-cycle policy regret (the cumulative regret a decision-
    /// maker following the policy one decision per cycle would incur).
    pub total: f64,
}

impl RegretCurve {
    /// Mean per-probe regret over the final quarter of the run — the
    /// "converged" regret level.
    pub fn tail_mean(&self) -> f64 {
        let n = self.per_cycle.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.per_cycle[(3 * n) / 4..];
        tail.iter().sum::<f64>() / tail.len().max(1) as f64
    }
}

/// Run `alg` against `bandit` for exactly `config.max_iterations` cycles
/// (ignoring convergence — regret curves need the full horizon), recording
/// the policy regret after every update.
pub fn run_with_regret<A: MwuAlgorithm, B: Bandit>(
    alg: &mut A,
    bandit: &mut B,
    config: &RunConfig,
) -> RegretCurve {
    run_with_regret_observed(alg, bandit, config, &mut NullObserver)
}

/// [`run_with_regret`] with run telemetry delivered to `observer`: the
/// [`crate::run::run_to_convergence_observed`] loop with the horizon
/// forced to its full length, so the event sequence (run header, one
/// event per cycle, first-convergence marker, run footer) is the same
/// bytes that function emits at `run_past_convergence: true`. With
/// [`NullObserver`] the telemetry path is compiled out.
pub fn run_with_regret_observed<A: MwuAlgorithm, B: Bandit, O: Observer>(
    alg: &mut A,
    bandit: &mut B,
    config: &RunConfig,
    observer: &mut O,
) -> RegretCurve {
    let best = bandit.best_value();
    let mut per_cycle = Vec::with_capacity(config.max_iterations);
    let mut probes: u64 = 0;
    let mut total = 0.0;
    // Reused probability snapshot: the per-cycle policy-regret sum needs the
    // full vector every cycle, so this buffer is on the hot path even when
    // no observer is attached.
    let mut probs: Vec<f64> = Vec::new();
    let full_horizon = RunConfig {
        run_past_convergence: true,
        ..*config
    };
    drive(
        alg,
        bandit,
        &full_horizon,
        observer,
        |alg, bandit, rewards| {
            probes += rewards.len() as u64;
            alg.probabilities_into(&mut probs);
            let cycle_regret: f64 = probs
                .iter()
                .enumerate()
                .map(|(i, &pi)| pi * (best - bandit.expected_value(i)))
                .sum();
            total += cycle_regret;
            per_cycle.push(cycle_regret);
        },
    );
    RegretCurve {
        per_cycle,
        probes,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandit::ValueBandit;
    use crate::standard::{StandardConfig, StandardMwu};

    fn curve(seed: u64, cycles: usize) -> RegretCurve {
        let mut alg = StandardMwu::new(8, StandardConfig::default());
        let mut bandit = ValueBandit::bernoulli(vec![0.1, 0.2, 0.3, 0.9, 0.2, 0.1, 0.3, 0.4]);
        let cfg = RunConfig {
            max_iterations: cycles,
            seed,
            run_past_convergence: true,
        };
        run_with_regret(&mut alg, &mut bandit, &cfg)
    }

    #[test]
    fn regret_declines_as_learning_proceeds() {
        let c = curve(3, 400);
        assert_eq!(c.per_cycle.len(), 400);
        let early: f64 = c.per_cycle[..50].iter().sum::<f64>() / 50.0;
        let late = c.tail_mean();
        assert!(
            late < early / 2.0,
            "late regret {late} not well below early {early}"
        );
    }

    #[test]
    fn totals_are_consistent() {
        let c = curve(5, 100);
        let reconstructed: f64 = c.per_cycle.iter().sum();
        assert!((c.total - reconstructed).abs() < 1e-9);
        // Standard issues k probes per cycle.
        assert_eq!(c.probes, 800);
    }

    #[test]
    fn empty_horizon_is_safe() {
        let c = curve(6, 0);
        assert_eq!(c.per_cycle.len(), 0);
        assert_eq!(c.tail_mean(), 0.0);
        assert_eq!(c.total, 0.0);
    }
}
