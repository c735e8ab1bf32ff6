//! Generic run driver: execute any [`MwuAlgorithm`] against any [`Bandit`]
//! until convergence or an iteration cap, recording the quantities reported
//! in Tables II–IV (update cycles, CPU-iterations, accuracy inputs,
//! communication stats).

use crate::bandit::Bandit;
use crate::trace::{
    CommDelta, ConvergenceEvent, IterationEvent, NullObserver, Observer, RewardSummary,
    RunStartEvent,
};
use crate::MwuAlgorithm;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Driver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Iteration (update-cycle) limit. Paper §IV-B: 10,000.
    pub max_iterations: usize,
    /// RNG seed for this replicate.
    pub seed: u64,
    /// Keep iterating after convergence (used when studying post-convergence
    /// dynamics); default stops at first convergence.
    pub run_past_convergence: bool,
}

impl RunConfig {
    /// Paper defaults with an explicit seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            max_iterations: 10_000,
            seed,
            run_past_convergence: false,
        }
    }

    /// Override the iteration cap.
    pub fn with_max_iterations(mut self, max: usize) -> Self {
        self.max_iterations = max;
        self
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::seeded(0)
    }
}

/// Everything measured about one run, i.e. one cell-contribution to
/// Tables II–IV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Variant name ("standard" / "slate" / "distributed").
    pub algorithm: &'static str,
    /// Update cycles executed (= cycles to convergence when `converged`).
    pub iterations: usize,
    /// Whether the variant's convergence criterion was met within the cap.
    pub converged: bool,
    /// The arm held highest when the run ended (at convergence, or at the
    /// cap — the paper reports "the option with the highest weight when the
    /// time limit is reached" for non-converged runs).
    pub leader: usize,
    /// Leader's share when the run ended.
    pub leader_share: f64,
    /// Iterations × CPUs-per-iteration — the Table IV cost unit.
    pub cpu_iterations: u64,
    /// Total bandit pulls issued (equals `cpu_iterations` for these
    /// variants; kept separate for substrates where probes batch).
    pub pulls: u64,
    /// Communication accounting.
    pub comm: crate::CommStats,
    /// CPUs one iteration occupied.
    pub cpus_per_iteration: usize,
}

impl RunOutcome {
    /// Table III accuracy against a ground-truth value vector:
    /// `100·(1 − |v* − v_leader|/v*)`, the percentage of the
    /// best-in-hindsight value the leader attains (100 when `v* ≤ 0`). The
    /// grid and every experiment binary score runs with it.
    pub fn accuracy(&self, values: &[f64]) -> f64 {
        let best = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if best <= 0.0 {
            return 100.0;
        }
        100.0 * (1.0 - (best - values[self.leader]).abs() / best)
    }
}

/// Run `alg` against `bandit` until it converges or `config.max_iterations`
/// update cycles have elapsed.
///
/// Each update cycle is: plan → evaluate every planned arm → update. The
/// evaluation step is where a real deployment parallelizes (one agent per
/// planned arm); here the pulls are issued sequentially from a per-run RNG
/// so that every replicate is exactly reproducible.
pub fn run_to_convergence<A: MwuAlgorithm, B: Bandit>(
    alg: &mut A,
    bandit: &mut B,
    config: &RunConfig,
) -> RunOutcome {
    run_to_convergence_observed(alg, bandit, config, &mut NullObserver)
}

/// [`run_to_convergence`] with run telemetry delivered to `observer`.
///
/// Event construction happens only when `observer.enabled()`; with
/// [`NullObserver`] the whole telemetry path is compiled out, so the
/// unobserved wrapper costs nothing over the pre-telemetry driver. Even
/// when enabled, the per-iteration probability snapshot behind the entropy
/// figure borrows a reused buffer (`probabilities_into`) — observing a run
/// does not reintroduce per-round allocation.
pub fn run_to_convergence_observed<A: MwuAlgorithm, B: Bandit, O: Observer>(
    alg: &mut A,
    bandit: &mut B,
    config: &RunConfig,
    observer: &mut O,
) -> RunOutcome {
    drive(alg, bandit, config, observer, |_, _, _| {})
}

/// The plan → pull → update loop behind [`run_to_convergence_observed`]
/// and [`crate::regret::run_with_regret_observed`]. `after_update` runs
/// once per cycle, after the update and before the cycle's events, with
/// the algorithm, the bandit and the cycle's rewards. It is a generic
/// parameter rather than a trait object, so the no-op hook of
/// [`run_to_convergence_observed`] compiles away.
pub(crate) fn drive<A: MwuAlgorithm, B: Bandit, O: Observer>(
    alg: &mut A,
    bandit: &mut B,
    config: &RunConfig,
    observer: &mut O,
    mut after_update: impl FnMut(&A, &B, &[f64]),
) -> RunOutcome {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut rewards: Vec<f64> = Vec::new();
    // Reused probability snapshot for the per-iteration entropy figure.
    let mut probs: Vec<f64> = Vec::new();
    let mut iterations = 0;
    let start_pulls = bandit.pulls();
    let mut convergence_reported = false;

    if observer.enabled() {
        observer.on_run_start(RunStartEvent {
            algorithm: alg.name(),
            num_arms: alg.num_arms(),
            cpus_per_iteration: alg.cpus_per_iteration(),
            seed: config.seed,
            max_iterations: config.max_iterations,
        });
    }

    for _ in 0..config.max_iterations {
        let comm_before = if observer.enabled() {
            alg.comm_stats()
        } else {
            crate::CommStats::default()
        };
        let plan = {
            let _span = crate::prof::span(crate::prof::Phase::Plan);
            alg.plan(&mut rng)
        };
        rewards.clear();
        rewards.reserve(plan.len());
        for &arm in plan {
            rewards.push(bandit.pull(arm, &mut rng));
        }
        {
            let _span = crate::prof::span(crate::prof::Phase::Update);
            alg.update(&rewards, &mut rng);
        }
        after_update(alg, bandit, &rewards);
        iterations += 1;
        if observer.enabled() {
            alg.probabilities_into(&mut probs);
            observer.on_iteration(IterationEvent {
                iteration: iterations,
                leader: alg.leader(),
                leader_share: alg.leader_share(),
                entropy: crate::trace::entropy(&probs),
                comm: CommDelta::between(&comm_before, &alg.comm_stats()),
                reward: RewardSummary::of(&rewards),
            });
        }
        if alg.has_converged() {
            if observer.enabled() && !convergence_reported {
                convergence_reported = true;
                observer.on_convergence(ConvergenceEvent {
                    iteration: iterations,
                    leader: alg.leader(),
                    leader_share: alg.leader_share(),
                });
            }
            if !config.run_past_convergence {
                break;
            }
        }
    }

    let outcome = RunOutcome {
        algorithm: alg.name(),
        iterations,
        converged: alg.has_converged(),
        leader: alg.leader(),
        leader_share: alg.leader_share(),
        cpu_iterations: iterations as u64 * alg.cpus_per_iteration() as u64,
        pulls: bandit.pulls() - start_pulls,
        comm: alg.comm_stats(),
        cpus_per_iteration: alg.cpus_per_iteration(),
    };
    if observer.enabled() {
        observer.on_run_end(outcome.clone());
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandit::ValueBandit;
    use crate::standard::{StandardConfig, StandardMwu};

    #[test]
    fn driver_runs_and_reports() {
        let mut alg = StandardMwu::new(4, StandardConfig::default());
        let mut bandit = ValueBandit::exact(vec![0.1, 0.9, 0.2, 0.3]);
        let out = run_to_convergence(&mut alg, &mut bandit, &RunConfig::seeded(1));
        assert!(out.converged);
        assert_eq!(out.leader, 1);
        assert_eq!(out.cpu_iterations, out.iterations as u64 * 4);
        assert_eq!(out.pulls, out.cpu_iterations);
        assert!((out.accuracy(&[0.1, 0.9, 0.2, 0.3]) - 100.0).abs() < 1e-9);
        // A leader holding half the best value scores 50 %.
        assert!((out.accuracy(&[0.1, 0.45, 0.9]) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn stops_at_first_convergence_by_default() {
        let mut alg = StandardMwu::new(3, StandardConfig::default());
        let mut bandit = ValueBandit::exact(vec![0.0, 1.0, 0.0]);
        let out = run_to_convergence(&mut alg, &mut bandit, &RunConfig::seeded(2));
        assert!(out.converged);
        assert!(out.iterations < 10_000);
    }

    #[test]
    fn run_past_convergence_uses_the_full_horizon() {
        let mut alg = StandardMwu::new(3, StandardConfig::default());
        let mut bandit = ValueBandit::exact(vec![0.0, 1.0, 0.0]);
        let cfg = RunConfig {
            max_iterations: 123,
            seed: 3,
            run_past_convergence: true,
        };
        let out = run_to_convergence(&mut alg, &mut bandit, &cfg);
        assert_eq!(out.iterations, 123);
        assert!(out.converged);
    }

    #[test]
    fn iteration_cap_reported_as_non_converged() {
        // Near-tied arms with a strict criterion never converge; the driver
        // must stop at the cap and say so.
        let mut alg = StandardMwu::new(
            2,
            StandardConfig {
                stability_window: 0, // strict: leader share ≥ 1 − 1e-5
                ..StandardConfig::default()
            },
        );
        let mut bandit = ValueBandit::bernoulli(vec![0.5000, 0.5001]);
        let cfg = RunConfig::seeded(4).with_max_iterations(50);
        let out = run_to_convergence(&mut alg, &mut bandit, &cfg);
        assert_eq!(out.iterations, 50);
        assert!(!out.converged);
    }

    #[test]
    fn accuracy_handles_all_zero_values() {
        let mut alg = StandardMwu::new(2, StandardConfig::default());
        let mut bandit = ValueBandit::exact(vec![0.0, 0.0]);
        let out = run_to_convergence(&mut alg, &mut bandit, &RunConfig::seeded(5));
        assert_eq!(out.accuracy(&[0.0, 0.0]), 100.0);
    }

    #[test]
    fn outcome_serializes() {
        let mut alg = StandardMwu::new(4, StandardConfig::default());
        let mut bandit = ValueBandit::exact(vec![0.1, 0.9, 0.2, 0.3]);
        let out = run_to_convergence(&mut alg, &mut bandit, &RunConfig::seeded(6));
        // RunOutcome is part of the persisted experiment record.
        let s = format!("{out:?}");
        assert!(s.contains("standard"));
    }
}
