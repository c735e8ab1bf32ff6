//! Analytic cost models for the three MWU variants.
//!
//! Two layers, matching the paper:
//!
//! 1. **Table I asymptotics** (§II-C): communication congestion, per-node
//!    memory overhead, convergence time, and minimum agents, expressed
//!    uniformly in `k` (options), `n` (nodes), ε (error tolerance) and
//!    δ = ln(β/(1−β)) (the attention parameter of Distributed). The
//!    functions here evaluate those bounds at concrete parameter values —
//!    the "solve for one in terms of the other, for clarity" exercise the
//!    paper performs so practitioners can compare variants directly.
//!
//! 2. **The weighted decision model** (§IV-E.1): a practitioner assigns
//!    weights encoding the relative importance of communication cost,
//!    convergence time, CPU demand and memory; the model then predicts
//!    which variant minimizes total cost. §IV-E.2's concrete
//!    recommendations — e.g. APR's expensive-evaluation/cheap-communication
//!    regime favors Standard or Slate — fall out of
//!    [`WeightedCostModel::recommend_for_k`].

use serde::{Deserialize, Serialize};

/// The three MWU realizations compared throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// Weighted-majority with full information (Fig. 1).
    Standard,
    /// Fixed-size subset selection (Fig. 2).
    Slate,
    /// Memoryless population protocol (Fig. 3).
    Distributed,
}

impl Variant {
    /// All variants, in the paper's column order.
    pub const ALL: [Variant; 3] = [Variant::Standard, Variant::Distributed, Variant::Slate];

    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Standard => "standard",
            Variant::Slate => "slate",
            Variant::Distributed => "distributed",
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Problem parameters at which the asymptotic bounds are evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Number of options `k`.
    pub k: usize,
    /// Number of nodes / parallel agents `n`.
    pub n: usize,
    /// Error tolerance ε (paper default 0.05).
    pub epsilon: f64,
    /// Attention parameter δ = ln(β/(1−β)) (β = 0.9 ⇒ δ ≈ 2.197).
    pub delta: f64,
}

impl CostParams {
    /// Paper-default tolerances with explicit `k` and `n`.
    pub fn new(k: usize, n: usize) -> Self {
        Self {
            k,
            n,
            epsilon: 0.05,
            delta: (0.9f64 / 0.1).ln(),
        }
    }
}

/// Each variant's default operating point for a `k`-option problem under
/// the paper's §IV-B parameter settings: Standard synchronizes `k` agents
/// (full information), Slate a γ·k-sized slate, Distributed a `k^{3/2}`
/// population.
pub fn default_operating_point(variant: Variant, k: usize) -> CostParams {
    let n = match variant {
        Variant::Standard => k,
        Variant::Slate => ((0.05 * k as f64).ceil() as usize).clamp(2, k),
        Variant::Distributed => (k as f64).powf(1.5).ceil() as usize,
    };
    CostParams::new(k, n)
}

/// Table I, one row set per variant, evaluated at concrete parameters.
///
/// Units are "abstract cost" — the constants hidden by O(·) are set to 1, so
/// only *comparisons across variants* and *scaling in k, n* are meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsymptoticCosts {
    /// Which variant this row describes.
    pub variant: Variant,
    /// Expected congestion of the heaviest-hit node per round.
    pub communication: f64,
    /// Per-node memory overhead (weight-vector coordinates held locally).
    pub memory: f64,
    /// Update cycles until the weights converge.
    pub convergence_time: f64,
    /// Minimum number of agents required to run the variant at all.
    pub min_agents: f64,
}

/// Evaluate Table I for one variant.
///
/// * Standard — communication `O(n)`, memory `O(k)`, convergence
///   `O(ln k / ε²)`, min agents `O(n)` (one agent per evaluated option,
///   `n = k` under full information).
/// * Slate — communication `O(n)` (the slate synchronizes globally), memory
///   `O(k)`, convergence `O((k/n)·ln k / ε²)` — slower than Standard by the
///   subset ratio because only `n` of `k` options learn per cycle — and min
///   agents `O(n)` with `n` the slate size.
/// * Distributed — communication `O(ln n / ln ln n)` w.h.p.
///   (balls-into-bins), memory `O(1)`, convergence `O(ln k / δ)`, and
///   min agents `O(k^{3/2})`: the population must be large enough that the
///   implicit weight vector does not lose diversity prematurely (§II-C;
///   this is the super-linear agent demand that makes the two largest
///   scenarios of Tables II–IV intractable).
pub fn asymptotic_costs(variant: Variant, p: &CostParams) -> AsymptoticCosts {
    let k = p.k as f64;
    let n = p.n.max(2) as f64;
    let ln_k = k.max(2.0).ln();
    let ln_n = n.ln();
    match variant {
        Variant::Standard => AsymptoticCosts {
            variant,
            communication: n,
            memory: k,
            convergence_time: ln_k / (p.epsilon * p.epsilon),
            min_agents: n,
        },
        Variant::Slate => AsymptoticCosts {
            variant,
            communication: n,
            memory: k,
            convergence_time: (k / n) * ln_k / (p.epsilon * p.epsilon),
            min_agents: n,
        },
        Variant::Distributed => AsymptoticCosts {
            variant,
            communication: ln_n / ln_n.ln().max(1.0),
            memory: 1.0,
            convergence_time: ln_k / p.delta,
            min_agents: k.powf(1.5),
        },
    }
}

/// Relative importance weights for the §IV-E.1 decision model:
/// `cost = α·communication + β·convergence (+ γ·cpus + θ·memory)`.
///
/// The paper's simple example uses only α (communication) and β
/// (convergence); the CPU and memory weights extend it per §IV-E.1's
/// discussion of CPU-constrained and memory-relevant regimes (set them to
/// zero to recover the two-term model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostWeights {
    /// α — price of one unit of per-round communication congestion.
    pub communication: f64,
    /// β — price of one update cycle of convergence time. In the paper's
    /// framing this is dominated by the cost of *evaluating an option*
    /// (e.g. running a test suite), which is why APR has large β.
    pub convergence: f64,
    /// γ — price of occupying one CPU for the whole run.
    pub cpus: f64,
    /// θ — price of one coordinate of per-node memory.
    pub memory: f64,
}

impl CostWeights {
    /// The paper's two-term example model (communication + convergence).
    pub fn two_term(communication: f64, convergence: f64) -> Self {
        Self {
            communication,
            convergence,
            cpus: 0.0,
            memory: 0.0,
        }
    }

    /// The APR regime of §IV-E.2: evaluating an option is expensive
    /// (running a test suite takes minutes–hours) while the information
    /// communicated per process is small, i.e. α ≪ β — **and** every
    /// occupied CPU pays that evaluation price on every cycle, so CPU
    /// demand is priced too. The paper's resolution of the two-term model
    /// (which "clearly favors Distributed") is exactly that "a model in
    /// which the number of CPUs used in each iteration is weighted ...
    /// will prefer Standard instead"; APR is such a model because each
    /// CPU-iteration is a test-suite execution.
    pub fn apr_regime() -> Self {
        Self {
            communication: 1.0,
            convergence: 100.0,
            cpus: 10.0,
            memory: 0.0,
        }
    }

    /// A communication-bound regime (e.g. geo-distributed agents with cheap
    /// local evaluation): α ≫ β.
    pub fn communication_bound() -> Self {
        Self::two_term(1_000.0, 1.0)
    }

    /// A CPU-constrained regime: parallel resources are the scarce quantity.
    pub fn cpu_constrained() -> Self {
        Self {
            communication: 1.0,
            convergence: 1.0,
            cpus: 100.0,
            memory: 0.0,
        }
    }
}

/// The §IV-E.1 weighted decision model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightedCostModel {
    /// The feature prices.
    pub weights: CostWeights,
}

impl WeightedCostModel {
    /// Build from weights.
    pub fn new(weights: CostWeights) -> Self {
        Self { weights }
    }

    /// Total predicted cost of running `variant` at parameters `p`.
    pub fn cost(&self, variant: Variant, p: &CostParams) -> f64 {
        let a = asymptotic_costs(variant, p);
        self.weights.communication * a.communication
            + self.weights.convergence * a.convergence_time
            + self.weights.cpus * a.min_agents
            + self.weights.memory * a.memory
    }

    /// Cost of every variant, in [`Variant::ALL`] order.
    pub fn costs(&self, p: &CostParams) -> [(Variant, f64); 3] {
        [
            (Variant::Standard, self.cost(Variant::Standard, p)),
            (Variant::Distributed, self.cost(Variant::Distributed, p)),
            (Variant::Slate, self.cost(Variant::Slate, p)),
        ]
    }

    /// Cost of a variant at its own default operating point for `k`
    /// options (Standard: n = k; Slate: n = slate size; Distributed:
    /// n = population).
    pub fn cost_at_default(&self, variant: Variant, k: usize) -> f64 {
        self.cost(variant, &default_operating_point(variant, k))
    }

    /// The cheapest variant for a `k`-option problem, each evaluated at its
    /// own default operating point.
    pub fn recommend_for_k(&self, k: usize) -> Variant {
        let mut best = Variant::Standard;
        let mut best_cost = self.cost_at_default(best, k);
        for v in [Variant::Distributed, Variant::Slate] {
            let c = self.cost_at_default(v, k);
            if c < best_cost {
                best_cost = c;
                best = v;
            }
        }
        best
    }
}

/// Probability that at least one of `m` trials lands in the worst `worst_k`
/// of `n` equally likely outcomes: `1 − ((n − worst_k)/n)^m`.
///
/// This is the paper's §III-C synchronization-tail argument: with 64
/// threads each drawing a mutation count in 1..=100, some thread draws from
/// the worst decile with probability ≈ 99.9 %, so *every* synchronized
/// iteration pays near-worst-case latency — the motivation for precomputing
/// safe mutations.
pub fn prob_worst_case_hit(n: u64, worst_k: u64, m: u64) -> f64 {
    assert!(worst_k <= n && n > 0);
    1.0 - ((n - worst_k) as f64 / n as f64).powi(m as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(k: usize, n: usize) -> CostParams {
        CostParams::new(k, n)
    }

    /// The variant `m` prices cheapest at `p`.
    fn cheapest(m: &WeightedCostModel, p: &CostParams) -> Variant {
        let costs = m.costs(p);
        costs.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0
    }

    #[test]
    fn table1_orderings_hold() {
        let p = params(1024, 64);
        let std = asymptotic_costs(Variant::Standard, &p);
        let slate = asymptotic_costs(Variant::Slate, &p);
        let dist = asymptotic_costs(Variant::Distributed, &p);

        // Communication: Distributed ≪ Standard = Slate.
        assert!(dist.communication < std.communication);
        assert_eq!(std.communication, slate.communication);
        // Memory: Distributed O(1) vs O(k).
        assert_eq!(dist.memory, 1.0);
        assert_eq!(std.memory, 1024.0);
        // Convergence: Slate slower than Standard (subset ratio),
        // Distributed comparable to Standard.
        assert!(slate.convergence_time > std.convergence_time);
        assert!(dist.convergence_time < slate.convergence_time);
        // Agents: Distributed needs super-linearly many.
        assert!(dist.min_agents > std.min_agents);
        assert!((dist.min_agents - 1024f64.powf(1.5)).abs() < 1e-6);
    }

    #[test]
    fn communication_bound_model_prefers_distributed() {
        let m = WeightedCostModel::new(CostWeights::communication_bound());
        assert_eq!(cheapest(&m, &params(1024, 256)), Variant::Distributed);
    }

    #[test]
    fn apr_regime_prefers_standard_or_slate() {
        // §IV-E.2: evaluation expensive, communication cheap ⇒ Distributed's
        // communication edge cannot pay for its CPU/convergence profile.
        let m = WeightedCostModel::new(CostWeights::apr_regime());
        let rec = cheapest(&m, &params(1024, 1024));
        assert!(
            rec == Variant::Standard || rec == Variant::Slate,
            "recommended {rec}"
        );
    }

    #[test]
    fn two_term_model_favors_distributed_as_paper_notes() {
        // §IV-E.1: "this analysis clearly favors Distributed" for the
        // bare communication+convergence model.
        let m = WeightedCostModel::new(CostWeights::two_term(1.0, 1.0));
        assert_eq!(cheapest(&m, &params(1024, 256)), Variant::Distributed);
    }

    #[test]
    fn cpu_constrained_model_penalizes_distributed() {
        let m = WeightedCostModel::new(CostWeights::cpu_constrained());
        let p = params(4096, 64);
        let c_dist = m.cost(Variant::Distributed, &p);
        let c_std = m.cost(Variant::Standard, &p);
        assert!(c_std < c_dist);
        assert_ne!(cheapest(&m, &p), Variant::Distributed);
    }

    #[test]
    fn default_operating_points() {
        assert_eq!(default_operating_point(Variant::Standard, 1024).n, 1024);
        assert_eq!(default_operating_point(Variant::Slate, 1024).n, 52);
        assert_eq!(default_operating_point(Variant::Distributed, 1024).n, 32768);
        // Tiny k clamps the slate to at least 2.
        assert_eq!(default_operating_point(Variant::Slate, 10).n, 2);
    }

    #[test]
    fn recommend_for_k_uses_per_variant_points() {
        // At each variant's own operating point, Slate's slate is small, so
        // its communication term is far below Standard's.
        let m = WeightedCostModel::new(CostWeights::two_term(1.0, 0.0));
        let c_std = m.cost_at_default(Variant::Standard, 1024);
        let c_slate = m.cost_at_default(Variant::Slate, 1024);
        assert!(c_slate < c_std);
        // Communication-only pricing recommends Distributed overall.
        assert_eq!(m.recommend_for_k(1024), Variant::Distributed);
    }

    #[test]
    fn worst_case_hit_matches_paper_example() {
        // "64 threads choosing between 1 and 100 mutations ... worst 10% of
        // outcomes with probability 1 − (90/100)^64 ≈ 99.9%."
        let p = prob_worst_case_hit(100, 10, 64);
        assert!((p - 0.99882).abs() < 1e-3, "got {p}");
    }

    #[test]
    fn worst_case_hit_edges() {
        assert_eq!(prob_worst_case_hit(10, 0, 5), 0.0);
        assert!((prob_worst_case_hit(10, 10, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn variant_display_names() {
        assert_eq!(Variant::Standard.to_string(), "standard");
        assert_eq!(Variant::Slate.to_string(), "slate");
        assert_eq!(Variant::Distributed.to_string(), "distributed");
    }
}
