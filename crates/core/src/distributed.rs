//! Distributed MWU — the memoryless population protocol (paper Fig. 3,
//! after the social-learning dynamics of Celis, Krafft & Vishnoi).
//!
//! There is no explicit weight vector: "the popularity of each option
//! encodes the weight vector implicitly, and agents observe random neighbors
//! to access this information" (§II-C). Per round, each agent either
//! explores a uniformly random option (probability μ) or observes the option
//! currently held by a uniformly random neighbor; it evaluates the observed
//! option and adopts it with probability β on success and α on failure
//! (α ≤ β).
//!
//! Communication is point-to-point: the expected congestion of the heaviest
//! hit node is the maximum in-degree of the random observation graph — a
//! balls-into-bins process, `Θ(ln n / ln ln n)` with probability at least
//! `1 − 1/n` (§II-C). This module measures that congestion exactly, per
//! round.
//!
//! The price of memorylessness is population size: representing a weight
//! vector over `k` options in the population head-count requires the
//! population to grow super-linearly in `k` ("the minimum number of agents
//! is higher ... which must be large enough to avoid premature decay of
//! diversity"). We use `pop = ⌈k^{3/2}⌉`; beyond
//! [`DistributedConfig::max_population`] the construction reports the
//! scenario intractable — exactly the `—` cells of the paper's Tables II–IV.

use crate::convergence::{ConvergenceCriterion, ConvergenceState};
use crate::cost::Variant;
use crate::{CommStats, MwuAlgorithm};
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};

/// Configuration for [`DistributedMwu`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistributedConfig {
    /// Probability μ of sampling a uniformly random option instead of
    /// observing a neighbor (paper §IV-B sets 0.05).
    pub mu: f64,
    /// Probability α of adopting an observed option that *failed*
    /// (Fig. 3; 0 ≤ α ≤ β).
    pub alpha: f64,
    /// Probability β of adopting an observed option that *succeeded*.
    pub beta: f64,
    /// Population size. `None` derives `⌈k^{3/2}⌉` (at least `4k`).
    pub pop_size: Option<usize>,
    /// Populations above this are declared intractable (the paper's `—`
    /// cells on the two largest scenarios).
    pub max_population: usize,
    /// Convergence threshold: fraction of the population holding the same
    /// option (paper §IV-C: 30 %).
    pub share_threshold: f64,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        Self {
            mu: 0.05,
            alpha: 0.02,
            beta: 0.90,
            pop_size: None,
            max_population: 1_000_000,
            share_threshold: crate::convergence::DEFAULT_POPULATION_SHARE,
        }
    }
}

impl DistributedConfig {
    /// The attention parameter δ = ln(β / (1 − β)) used by the convergence
    /// asymptotics of Table I.
    pub fn delta(&self) -> f64 {
        (self.beta / (1.0 - self.beta)).ln()
    }

    /// The population size this configuration yields for `k` options.
    pub fn population_for(&self, k: usize) -> usize {
        self.pop_size
            .unwrap_or_else(|| ((k as f64).powf(1.5).ceil() as usize).max(4 * k))
    }

    /// Would `k` options exceed the tractability cap?
    pub fn is_tractable(&self, k: usize) -> bool {
        self.population_for(k) <= self.max_population
    }
}

/// Error returned when a scenario requires more agents than the tractable
/// maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Intractable {
    /// Options requested.
    pub k: usize,
    /// Population the configuration would need.
    pub required_population: usize,
    /// The configured cap.
    pub max_population: usize,
}

impl std::fmt::Display for Intractable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "distributed MWU over k={} options needs {} agents (cap {})",
            self.k, self.required_population, self.max_population
        )
    }
}

impl std::error::Error for Intractable {}

/// The Distributed (population-protocol) MWU algorithm.
///
/// ```
/// use mwu_core::prelude::*;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut alg = DistributedMwu::try_new(8, DistributedConfig::default()).unwrap();
/// let mut bandit = ValueBandit::exact(vec![0.1, 0.1, 0.1, 0.9, 0.1, 0.1, 0.1, 0.1]);
/// let mut rng = SmallRng::seed_from_u64(0);
/// while !alg.has_converged() {
///     let plan = alg.plan(&mut rng).to_vec();
///     let rewards: Vec<f64> =
///         plan.iter().map(|&a| bandit.pull(a, &mut rng)).collect();
///     alg.update(&rewards, &mut rng);
/// }
/// assert_eq!(alg.leader(), 3);
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DistributedMwu {
    k: usize,
    config: DistributedConfig,
    /// The option currently held by each agent (C_j in Fig. 3).
    choices: Vec<u32>,
    /// Population head-count per option — the implicit weight vector.
    counts: Vec<u32>,
    /// Option observed by each agent in the current round (O_j in Fig. 3).
    observed: Vec<u32>,
    /// In-degree of each agent in the current observation round.
    in_degree: Vec<u32>,
    /// The current plan widened to `usize` for the trait interface.
    plan_usize: Vec<usize>,
    convergence: ConvergenceState,
    comm: CommStats,
    iteration: usize,
}

impl DistributedMwu {
    /// Create over `k` options, or report intractability if the derived
    /// population exceeds the cap.
    ///
    /// # Panics
    /// Panics if `k == 0`, parameters lie outside `[0, 1]`, α > β, or the
    /// population is smaller than `k` (every option must be representable).
    pub fn try_new(k: usize, config: DistributedConfig) -> Result<Self, Intractable> {
        assert!(k > 0, "need at least one option");
        assert!((0.0..=1.0).contains(&config.mu));
        assert!((0.0..=1.0).contains(&config.alpha));
        assert!((0.0..=1.0).contains(&config.beta));
        assert!(config.alpha <= config.beta, "require alpha <= beta");
        let pop = config.population_for(k);
        if pop > config.max_population {
            return Err(Intractable {
                k,
                required_population: pop,
                max_population: config.max_population,
            });
        }
        assert!(pop >= k, "population must be at least k");
        // Fig. 3 initialization: options are spread evenly over the
        // population (pop/k agents per option).
        let choices: Vec<u32> = (0..pop).map(|j| (j % k) as u32).collect();
        let mut counts = vec![0u32; k];
        for &c in &choices {
            counts[c as usize] += 1;
        }
        Ok(Self {
            k,
            config,
            observed: vec![0; pop],
            in_degree: vec![0; pop],
            plan_usize: Vec::with_capacity(pop),
            choices,
            counts,
            convergence: ConvergenceState::new(ConvergenceCriterion::PopulationShare {
                share: config.share_threshold,
            }),
            comm: CommStats::default(),
            iteration: 0,
        })
    }

    /// Create, panicking on intractable scenarios (convenience for tests
    /// and examples with known-small `k`).
    pub fn new(k: usize, config: DistributedConfig) -> Self {
        Self::try_new(k, config).expect("scenario intractable for Distributed MWU")
    }

    /// Reset to the exact state of a fresh `try_new(k, config)` while
    /// keeping every buffer's allocation — the
    /// [`crate::arena::ThreadArena`] reuse contract. Trajectories after a
    /// reset are bit-identical to a fresh instance's.
    pub fn reset(&mut self) {
        let k = self.k;
        for (j, c) in self.choices.iter_mut().enumerate() {
            *c = (j % k) as u32;
        }
        self.counts.fill(0);
        for &c in &self.choices {
            self.counts[c as usize] += 1;
        }
        self.observed.fill(0);
        self.in_degree.fill(0);
        self.plan_usize.clear();
        self.convergence = ConvergenceState::new(self.convergence.criterion());
        self.comm = CommStats::default();
        self.iteration = 0;
    }

    /// The population size in force.
    pub fn population(&self) -> usize {
        self.choices.len()
    }

    /// Completed update cycles.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Population head-count per option (the implicit weight vector,
    /// unnormalized).
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The configuration in force.
    pub fn config(&self) -> &DistributedConfig {
        &self.config
    }

    fn leader_index(&self) -> usize {
        let mut best = 0;
        for i in 1..self.k {
            if self.counts[i] > self.counts[best] {
                best = i;
            }
        }
        best
    }
}

impl MwuAlgorithm for DistributedMwu {
    fn num_arms(&self) -> usize {
        self.k
    }

    /// Sample step (Fig. 3 lines 7–15): each agent picks a random option
    /// (probability μ) or observes a uniformly random *other* agent's
    /// current option. Neighbor observations are messages; the round's
    /// congestion is the max in-degree.
    ///
    /// Hot loop: one round touches every agent, and populations reach
    /// hundreds of thousands (k^{3/2}); the Bernoulli and range draws use
    /// integer thresholds and the multiply-shift range trick to stay at a
    /// couple of nanoseconds per agent.
    fn plan(&mut self, rng: &mut SmallRng) -> &[usize] {
        use rand::RngCore;
        let _span = crate::prof::span(crate::prof::Phase::Sample);
        let pop = self.choices.len();
        self.in_degree.iter_mut().for_each(|d| *d = 0);
        let mut messages = 0u64;
        // P(explore) as a u64 threshold: next_u64 < mu_threshold ⟺ U < μ.
        let mu_threshold = (self.config.mu * u64::MAX as f64) as u64;
        let k = self.k as u64;
        let pop_minus_1 = (pop - 1) as u64;
        for j in 0..pop {
            if rng.next_u64() < mu_threshold {
                // Uniform option via multiply-shift (bias < 2^-40 for any
                // realistic k).
                let opt = ((rng.next_u64() as u128 * k as u128) >> 64) as usize;
                self.observed[j] = opt as u32;
            } else {
                // Uniform neighbor other than self, same trick.
                let mut nb = ((rng.next_u64() as u128 * pop_minus_1 as u128) >> 64) as usize;
                if nb >= j {
                    nb += 1;
                }
                self.observed[j] = self.choices[nb];
                self.in_degree[nb] += 1;
                messages += 1;
            }
        }
        let congestion = self.in_degree.iter().copied().max().unwrap_or(0) as usize;
        self.comm.record_round(congestion, messages);
        self.plan_cache();
        &self.plan_usize
    }

    fn update(&mut self, rewards: &[f64], rng: &mut SmallRng) {
        use rand::RngCore;
        let pop = self.choices.len();
        assert_eq!(
            rewards.len(),
            pop,
            "Distributed expects one reward per agent"
        );
        self.iteration += 1;
        let a = self.config.alpha;
        let b = self.config.beta;
        // Adopt step (Fig. 3 lines 16–22), generalized to rewards in [0,1]:
        // adopt probability interpolates α (failure) → β (success).
        // Bernoulli rewards are almost always exactly 0 or 1, so the two
        // common adopt thresholds are precomputed as integers.
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
        self.convergence
            .observe(self.iteration, self.leader_share());
    }

    fn leader(&self) -> usize {
        self.leader_index()
    }

    fn leader_share(&self) -> f64 {
        self.counts[self.leader_index()] as f64 / self.choices.len() as f64
    }

    fn has_converged(&self) -> bool {
        self.convergence.has_converged()
    }

    fn cpus_per_iteration(&self) -> usize {
        self.choices.len()
    }

    fn probabilities(&self) -> Vec<f64> {
        let pop = self.choices.len() as f64;
        self.counts.iter().map(|&c| c as f64 / pop).collect()
    }

    fn probabilities_into(&self, out: &mut Vec<f64>) {
        let pop = self.choices.len() as f64;
        out.clear();
        out.extend(self.counts.iter().map(|&c| c as f64 / pop));
    }

    fn comm_stats(&self) -> CommStats {
        self.comm
    }

    fn name(&self) -> &'static str {
        "distributed"
    }

    fn variant(&self) -> Variant {
        Variant::Distributed
    }
}

/// Degradation parameters for [`DistributedMwu::update_gossip`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GossipConfig {
    /// Minimum fraction of the population whose observations must be usable
    /// for the round to apply at all. Below quorum the round is a no-op —
    /// a heavily partitioned round must not produce a *skewed* update in
    /// which only the surviving minority's opinions move the counts.
    pub quorum: f64,
    /// Observations older than this many rounds are discarded outright.
    pub max_staleness: u32,
    /// Per-round-of-staleness multiplier on the adoption probability
    /// (`decay^staleness`): an evaluation that arrives late refers to an
    /// observation the agent has since replaced, so its influence decays.
    pub staleness_decay: f64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        Self {
            quorum: 0.5,
            max_staleness: 5,
            staleness_decay: 0.8,
        }
    }
}

/// One agent's (possibly late, duplicated, or corrupted) gossiped reward
/// for the option it observed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GossipObservation {
    /// The agent this evaluation belongs to.
    pub agent: usize,
    /// Observed reward in `[0, 1]` — possibly corrupted (NaN / huge).
    pub reward: f64,
    /// Rounds since the evaluation was made (0 = fresh).
    pub staleness: u32,
}

impl GossipObservation {
    /// A fresh observation for `agent`.
    pub fn fresh(agent: usize, reward: f64) -> Self {
        Self {
            agent,
            reward,
            staleness: 0,
        }
    }
}

/// What [`DistributedMwu::update_gossip`] did with one round's observations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GossipReport {
    /// Whether the round applied (false ⇒ quorum failed, state untouched).
    pub applied: bool,
    /// Agents whose observation was usable this round.
    pub used: usize,
    /// Agents with no usable observation (never arrived, or discarded).
    pub missing: usize,
    /// Extra copies dropped by per-agent deduplication.
    pub duplicates: usize,
    /// Observations discarded for exceeding `max_staleness`.
    pub stale_discarded: usize,
    /// Observations discarded because the reward was NaN.
    pub corrupt_discarded: usize,
    /// Rewards clamped back into `[0, 1]` (finite but out of range, or ±inf).
    pub clamped: usize,
}

impl DistributedMwu {
    /// Degradation-aware update: incorporate whatever subset of the
    /// population's evaluations survived the network this round.
    ///
    /// This is [`MwuAlgorithm::update`] hardened for lossy transport:
    ///
    /// * **Missing** observations (dropped messages, crashed agents) simply
    ///   leave those agents' choices untouched.
    /// * **Duplicates** are deduplicated per agent — the freshest copy wins,
    ///   so a duplicated packet cannot double an adoption's probability.
    /// * **Stale** observations (delayed messages) are either discarded
    ///   (`staleness > max_staleness`) or applied with adoption probability
    ///   attenuated by `staleness_decay^staleness` — by the time a late
    ///   evaluation arrives, the agent's observed option has moved on, so
    ///   its evidence is worth less.
    /// * **Corrupted** rewards cannot collapse the simplex: NaN is
    ///   discarded, out-of-range values are clamped into `[0, 1]`
    ///   (see [`crate::sanitize_reward`]).
    /// * **Quorum**: if fewer than `quorum · population` usable
    ///   observations remain, the whole round is a no-op rather than a
    ///   skewed update from a surviving minority.
    ///
    /// Agents are processed in id order and each usable observation draws
    /// exactly once from `rng`, so the update is deterministic in
    /// (observations, rng state).
    pub fn update_gossip(
        &mut self,
        observations: &[GossipObservation],
        gossip: &GossipConfig,
        rng: &mut SmallRng,
    ) -> GossipReport {
        use rand::RngCore;
        let pop = self.choices.len();
        let mut report = GossipReport::default();

        // Decode/apply side of the gossip exchange: deduplication and
        // screening are where incoming observations are unpacked.
        let decode_span = crate::prof::span(crate::prof::Phase::GossipDecode);

        // Deduplicate: freshest observation per agent wins.
        let mut slots: Vec<Option<(f64, u32)>> = vec![None; pop];
        for obs in observations {
            if obs.agent >= pop {
                debug_assert!(false, "gossip observation for unknown agent {}", obs.agent);
                continue;
            }
            match &mut slots[obs.agent] {
                slot @ None => *slot = Some((obs.reward, obs.staleness)),
                Some((r, s)) => {
                    report.duplicates += 1;
                    if obs.staleness < *s {
                        *r = obs.reward;
                        *s = obs.staleness;
                    }
                }
            }
        }

        // Screen each slot: staleness window, NaN discard, range clamp.
        for slot in &mut slots {
            let usable = match slot {
                None => false,
                Some((_, s)) if *s > gossip.max_staleness => {
                    report.stale_discarded += 1;
                    false
                }
                Some((r, _)) if r.is_nan() => {
                    report.corrupt_discarded += 1;
                    false
                }
                Some((r, _)) => {
                    let clean = crate::sanitize_reward(*r);
                    if clean != *r {
                        report.clamped += 1;
                        *r = clean;
                    }
                    true
                }
            };
            if !usable {
                *slot = None;
            }
        }
        report.used = slots.iter().filter(|s| s.is_some()).count();
        report.missing = pop - report.used;
        drop(decode_span);

        // Quorum gate: too few survivors ⇒ no-op round.
        let needed = (gossip.quorum * pop as f64).ceil() as usize;
        if report.used < needed {
            return report;
        }
        report.applied = true;

        self.iteration += 1;
        let a = self.config.alpha;
        let b = self.config.beta;
        for (j, slot) in slots.iter().enumerate() {
            let Some((r, staleness)) = *slot else {
                continue;
            };
            let decay = if staleness == 0 {
                1.0
            } else {
                gossip.staleness_decay.powi(staleness as i32)
            };
            let p_adopt = (a + (b - a) * r) * decay;
            let threshold = (p_adopt * u64::MAX as f64) as u64;
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
        self.convergence
            .observe(self.iteration, self.leader_share());
        report
    }
}

impl DistributedMwu {
    fn plan_cache(&mut self) {
        self.plan_usize.clear();
        self.plan_usize
            .extend(self.observed.iter().map(|&o| o as usize));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandit::{Bandit, ValueBandit};
    use rand::SeedableRng;

    fn drive(
        alg: &mut DistributedMwu,
        bandit: &mut ValueBandit,
        rounds: usize,
        seed: u64,
    ) -> usize {
        let mut rng = SmallRng::seed_from_u64(seed);
        for t in 0..rounds {
            let plan = alg.plan(&mut rng).to_vec();
            let rewards: Vec<f64> = plan.iter().map(|&a| bandit.pull(a, &mut rng)).collect();
            alg.update(&rewards, &mut rng);
            if alg.has_converged() {
                return t + 1;
            }
        }
        rounds
    }

    #[test]
    fn population_scales_with_k() {
        let cfg = DistributedConfig::default();
        assert_eq!(cfg.population_for(64), 512);
        assert_eq!(cfg.population_for(4), 16);
        assert!(cfg.population_for(16384) > 1_000_000);
        assert!(!cfg.is_tractable(16384));
        assert!(cfg.is_tractable(4096));
    }

    #[test]
    fn intractable_reported_not_panicked() {
        let err = DistributedMwu::try_new(16384, DistributedConfig::default()).unwrap_err();
        assert_eq!(err.k, 16384);
        assert!(err.required_population > err.max_population);
        let msg = err.to_string();
        assert!(msg.contains("16384"));
    }

    #[test]
    fn initial_population_spread_evenly() {
        let alg = DistributedMwu::new(8, DistributedConfig::default());
        let pop = alg.population();
        for &c in alg.counts() {
            // j % k spread: counts differ by at most 1.
            assert!((c as usize).abs_diff(pop / 8) <= 1);
        }
    }

    #[test]
    fn converges_to_clear_winner() {
        let mut values = vec![0.05; 16];
        values[5] = 0.95;
        let mut alg = DistributedMwu::new(16, DistributedConfig::default());
        let mut bandit = ValueBandit::bernoulli(values);
        let t = drive(&mut alg, &mut bandit, 10_000, 3);
        assert!(alg.has_converged(), "no convergence in {t} rounds");
        assert_eq!(alg.leader(), 5);
        assert!(alg.leader_share() >= 0.3);
    }

    #[test]
    fn counts_always_sum_to_population() {
        let mut alg = DistributedMwu::new(8, DistributedConfig::default());
        let mut bandit = ValueBandit::bernoulli(vec![0.3; 8]);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..50 {
            let plan = alg.plan(&mut rng).to_vec();
            let rewards: Vec<f64> = plan.iter().map(|&a| bandit.pull(a, &mut rng)).collect();
            alg.update(&rewards, &mut rng);
            let sum: u32 = alg.counts().iter().sum();
            assert_eq!(sum as usize, alg.population());
        }
    }

    #[test]
    fn congestion_is_logarithmic_not_linear() {
        // Balls-into-bins: with n agents each observing one uniform
        // neighbor, the max in-degree is Θ(ln n / ln ln n) ≪ n.
        let mut alg = DistributedMwu::new(32, DistributedConfig::default());
        let mut bandit = ValueBandit::bernoulli(vec![0.5; 32]);
        drive(&mut alg, &mut bandit, 30, 1);
        let stats = alg.comm_stats();
        let n = alg.population() as f64;
        assert!(stats.peak_congestion > 0);
        assert!(
            (stats.peak_congestion as f64) < n / 4.0,
            "congestion {} vs population {n}",
            stats.peak_congestion
        );
        // And mean congestion is within a constant factor of ln n / ln ln n.
        let theory = n.ln() / n.ln().ln();
        assert!(
            stats.mean_congestion() < 6.0 * theory,
            "mean {} vs theory {theory}",
            stats.mean_congestion()
        );
    }

    #[test]
    fn exploration_preserves_diversity() {
        // With μ > 0, even after convergence no option's count stays at
        // exactly zero forever — exploration keeps reintroducing options.
        let mut values = vec![0.1; 8];
        values[0] = 0.9;
        let mut alg = DistributedMwu::new(8, DistributedConfig::default());
        let mut bandit = ValueBandit::bernoulli(values);
        drive(&mut alg, &mut bandit, 5000, 2);
        let nonzero = alg.counts().iter().filter(|&&c| c > 0).count();
        assert!(nonzero >= 2, "population collapsed to a single option");
    }

    #[test]
    #[should_panic]
    fn alpha_above_beta_rejected() {
        let _ = DistributedMwu::new(
            4,
            DistributedConfig {
                alpha: 0.9,
                beta: 0.1,
                ..DistributedConfig::default()
            },
        );
    }

    #[test]
    fn delta_formula() {
        let cfg = DistributedConfig {
            beta: 0.9,
            ..DistributedConfig::default()
        };
        assert!((cfg.delta() - (0.9f64 / 0.1).ln()).abs() < 1e-12);
    }

    /// Drive with gossip: each round, every agent's reward survives with
    /// probability `deliver`, duplicated with probability `dup`.
    fn drive_gossip(
        alg: &mut DistributedMwu,
        bandit: &mut ValueBandit,
        gossip: &GossipConfig,
        deliver: f64,
        dup: f64,
        rounds: usize,
        seed: u64,
    ) -> usize {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net_rng = SmallRng::seed_from_u64(seed ^ 0xDEAD);
        for t in 0..rounds {
            let plan = alg.plan(&mut rng).to_vec();
            let mut obs = Vec::with_capacity(plan.len());
            for (j, &a) in plan.iter().enumerate() {
                let r = bandit.pull(a, &mut rng);
                if net_rng.gen::<f64>() < deliver {
                    obs.push(GossipObservation::fresh(j, r));
                    if net_rng.gen::<f64>() < dup {
                        obs.push(GossipObservation::fresh(j, r));
                    }
                }
            }
            alg.update_gossip(&obs, gossip, &mut rng);
            if alg.has_converged() {
                return t + 1;
            }
        }
        rounds
    }

    #[test]
    fn gossip_with_full_delivery_converges() {
        let mut values = vec![0.05; 16];
        values[5] = 0.95;
        let mut alg = DistributedMwu::new(16, DistributedConfig::default());
        let mut bandit = ValueBandit::bernoulli(values);
        let t = drive_gossip(
            &mut alg,
            &mut bandit,
            &GossipConfig::default(),
            1.0,
            0.0,
            10_000,
            3,
        );
        assert!(alg.has_converged(), "no convergence in {t} rounds");
        assert_eq!(alg.leader(), 5);
    }

    #[test]
    fn gossip_converges_under_ten_percent_drop() {
        // The ISSUE acceptance criterion: drop rate ≤ 10% must still
        // converge on unimodal-style instances without divergence or NaN.
        let mut values = vec![0.05; 16];
        values[5] = 0.95;
        let mut alg = DistributedMwu::new(16, DistributedConfig::default());
        let mut bandit = ValueBandit::bernoulli(values);
        let t = drive_gossip(
            &mut alg,
            &mut bandit,
            &GossipConfig::default(),
            0.9,
            0.05,
            20_000,
            4,
        );
        assert!(
            alg.has_converged(),
            "no convergence in {t} rounds at 10% drop"
        );
        assert_eq!(alg.leader(), 5);
        let sum: u32 = alg.counts().iter().sum();
        assert_eq!(sum as usize, alg.population(), "counts conserved");
        assert!(alg.probabilities().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn gossip_below_quorum_is_noop() {
        let mut alg = DistributedMwu::new(8, DistributedConfig::default());
        let mut rng = SmallRng::seed_from_u64(0);
        alg.plan(&mut rng);
        let counts_before = alg.counts().to_vec();
        let it_before = alg.iteration();
        // Only 3 observations for a population of ≥ 22: far below quorum.
        let obs: Vec<GossipObservation> =
            (0..3).map(|j| GossipObservation::fresh(j, 1.0)).collect();
        let report = alg.update_gossip(&obs, &GossipConfig::default(), &mut rng);
        assert!(!report.applied);
        assert_eq!(report.used, 3);
        assert_eq!(report.missing, alg.population() - 3);
        assert_eq!(
            alg.counts(),
            counts_before.as_slice(),
            "state must not move"
        );
        assert_eq!(alg.iteration(), it_before, "no-op must not consume a cycle");
    }

    #[test]
    fn gossip_duplicates_deduplicated() {
        let mut alg = DistributedMwu::new(4, DistributedConfig::default());
        let mut rng = SmallRng::seed_from_u64(1);
        alg.plan(&mut rng);
        let pop = alg.population();
        let mut obs: Vec<GossipObservation> =
            (0..pop).map(|j| GossipObservation::fresh(j, 0.5)).collect();
        // Triple agent 0's observation.
        obs.push(GossipObservation::fresh(0, 0.5));
        obs.push(GossipObservation::fresh(0, 0.5));
        let report = alg.update_gossip(&obs, &GossipConfig::default(), &mut rng);
        assert!(report.applied);
        assert_eq!(report.duplicates, 2);
        assert_eq!(report.used, pop);
    }

    #[test]
    fn gossip_corrupt_rewards_cannot_poison_counts() {
        let gossip = GossipConfig {
            quorum: 0.0,
            ..GossipConfig::default()
        };
        let mut alg = DistributedMwu::new(8, DistributedConfig::default());
        let mut rng = SmallRng::seed_from_u64(2);
        for round in 0..200 {
            let plan_len = {
                alg.plan(&mut rng);
                alg.population()
            };
            let obs: Vec<GossipObservation> = (0..plan_len)
                .map(|j| {
                    let reward = match (round + j) % 4 {
                        0 => f64::NAN,
                        1 => 1e15,
                        2 => -1e15,
                        _ => 0.5,
                    };
                    GossipObservation::fresh(j, reward)
                })
                .collect();
            let report = alg.update_gossip(&obs, &gossip, &mut rng);
            assert!(report.corrupt_discarded > 0);
            assert!(report.clamped > 0);
            let sum: u32 = alg.counts().iter().sum();
            assert_eq!(sum as usize, alg.population());
        }
        assert!(alg.probabilities().iter().all(|p| p.is_finite()));
        assert!(alg.leader_share().is_finite());
    }

    #[test]
    fn gossip_stale_observations_discarded_past_window() {
        let gossip = GossipConfig {
            quorum: 0.0,
            max_staleness: 2,
            staleness_decay: 0.5,
        };
        let mut alg = DistributedMwu::new(4, DistributedConfig::default());
        let mut rng = SmallRng::seed_from_u64(3);
        alg.plan(&mut rng);
        let obs = vec![
            GossipObservation {
                agent: 0,
                reward: 1.0,
                staleness: 1,
            },
            GossipObservation {
                agent: 1,
                reward: 1.0,
                staleness: 7,
            },
        ];
        let report = alg.update_gossip(&obs, &gossip, &mut rng);
        assert_eq!(report.stale_discarded, 1);
        assert_eq!(report.used, 1);
    }

    #[test]
    fn gossip_is_deterministic() {
        fn run_once() -> (Vec<u32>, usize) {
            let mut alg = DistributedMwu::new(8, DistributedConfig::default());
            let mut bandit = ValueBandit::bernoulli(vec![0.2, 0.2, 0.9, 0.2, 0.2, 0.2, 0.2, 0.2]);
            drive_gossip(
                &mut alg,
                &mut bandit,
                &GossipConfig::default(),
                0.8,
                0.1,
                300,
                7,
            );
            (alg.counts().to_vec(), alg.iteration())
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn plan_length_equals_population() {
        let mut alg = DistributedMwu::new(8, DistributedConfig::default());
        let mut rng = SmallRng::seed_from_u64(0);
        let plan = alg.plan(&mut rng).to_vec();
        assert_eq!(plan.len(), alg.population());
        assert!(plan.iter().all(|&a| a < 8));
    }
}
