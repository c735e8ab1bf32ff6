//! Communication topologies and their per-round congestion profiles.
//!
//! The three MWU variants induce three different communication patterns:
//! Standard and Slate synchronize through a (logical) master each round — a
//! star gather/scatter whose congestion equals the agent count — while
//! Distributed's random-neighbor observation induces a sparse random graph
//! whose congestion is the balls-into-bins maximum load.

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A communication pattern over `n` agents for one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// Every agent exchanges with a central master (Standard/Slate's
    /// global weight synchronization).
    Star,
    /// Every agent messages every other agent (the naive all-gather that a
    /// masterless full-information variant would need).
    Complete,
    /// Every agent observes one uniformly random *other* agent
    /// (Distributed's sample step).
    RandomNeighbor,
    /// Each agent messages its clockwise neighbor on a ring — the minimal-
    /// congestion structured topology (congestion exactly 1).
    Ring,
    /// Each agent observes `d` uniformly random distinct other agents —
    /// the gossip generalization of `RandomNeighbor` (congestion is the
    /// max load of d·n balls in n bins).
    KRegularRandom(usize),
}

impl Topology {
    /// Generate the directed edges (from → to) of one round.
    pub fn edges(&self, n: usize, rng: &mut SmallRng) -> Vec<(usize, usize)> {
        match self {
            Topology::Star => {
                // Gather to 0 and scatter back.
                let mut e = Vec::with_capacity(2 * (n.saturating_sub(1)));
                for i in 1..n {
                    e.push((i, 0));
                    e.push((0, i));
                }
                e
            }
            Topology::Complete => {
                let mut e = Vec::with_capacity(n * n.saturating_sub(1));
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            e.push((i, j));
                        }
                    }
                }
                e
            }
            Topology::RandomNeighbor => {
                let mut e = Vec::with_capacity(n);
                for i in 0..n {
                    if n < 2 {
                        break;
                    }
                    let mut j = rng.gen_range(0..n - 1);
                    if j >= i {
                        j += 1;
                    }
                    // Observation of j by i = a message j → i.
                    e.push((j, i));
                }
                e
            }
            Topology::Ring => {
                if n < 2 {
                    return Vec::new();
                }
                (0..n).map(|i| (i, (i + 1) % n)).collect()
            }
            Topology::KRegularRandom(d) => {
                let mut e = Vec::with_capacity(n * d);
                if n < 2 {
                    return e;
                }
                let d = (*d).min(n - 1);
                for i in 0..n {
                    // d distinct random neighbors via partial Fisher–Yates
                    // over a small rejection loop (d ≪ n in practice).
                    let mut picked = Vec::with_capacity(d);
                    while picked.len() < d {
                        let mut j = rng.gen_range(0..n - 1);
                        if j >= i {
                            j += 1;
                        }
                        if !picked.contains(&j) {
                            picked.push(j);
                        }
                    }
                    for j in picked {
                        e.push((j, i));
                    }
                }
                e
            }
        }
    }

    /// Max in-degree of one generated round.
    pub fn congestion(&self, n: usize, rng: &mut SmallRng) -> usize {
        let mut in_deg = vec![0usize; n];
        for (_, to) in self.edges(n, rng) {
            in_deg[to] += 1;
        }
        in_deg.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::expected_max_load;
    use rand::SeedableRng;

    #[test]
    fn star_congestion_is_linear() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(Topology::Star.congestion(16, &mut rng), 15);
    }

    #[test]
    fn complete_has_n_squared_edges() {
        let mut rng = SmallRng::seed_from_u64(0);
        let e = Topology::Complete.edges(8, &mut rng);
        assert_eq!(e.len(), 8 * 7);
        assert_eq!(Topology::Complete.congestion(8, &mut rng), 7);
    }

    #[test]
    fn random_neighbor_congestion_sublinear() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 4096;
        let c = Topology::RandomNeighbor.congestion(n, &mut rng);
        assert!(c >= 1);
        assert!((c as f64) < 6.0 * expected_max_load(n), "congestion {c}");
    }

    #[test]
    fn random_neighbor_never_self_observes() {
        let mut rng = SmallRng::seed_from_u64(5);
        for (from, to) in Topology::RandomNeighbor.edges(64, &mut rng) {
            assert_ne!(from, to);
        }
    }

    #[test]
    fn degenerate_sizes() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(Topology::Star.edges(1, &mut rng).len(), 0);
        assert_eq!(Topology::RandomNeighbor.edges(1, &mut rng).len(), 0);
        assert_eq!(Topology::Complete.congestion(1, &mut rng), 0);
        assert_eq!(Topology::Ring.edges(1, &mut rng).len(), 0);
        assert_eq!(Topology::KRegularRandom(3).edges(1, &mut rng).len(), 0);
    }

    #[test]
    fn ring_congestion_is_one() {
        let mut rng = SmallRng::seed_from_u64(1);
        let e = Topology::Ring.edges(10, &mut rng);
        assert_eq!(e.len(), 10);
        assert_eq!(Topology::Ring.congestion(10, &mut rng), 1);
        // Every node has out-degree exactly 1 and in-degree exactly 1.
        let mut out_deg = [0; 10];
        for (f, _) in e {
            out_deg[f] += 1;
        }
        assert!(out_deg.iter().all(|&d| d == 1));
    }

    #[test]
    fn k_regular_has_dn_edges_with_distinct_neighbors() {
        let mut rng = SmallRng::seed_from_u64(2);
        let d = 4;
        let n = 50;
        let e = Topology::KRegularRandom(d).edges(n, &mut rng);
        assert_eq!(e.len(), d * n);
        // No self-edges, no duplicate (observer, observed) pairs.
        let mut seen = std::collections::HashSet::new();
        for (from, to) in e {
            assert_ne!(from, to);
            assert!(seen.insert((from, to)), "duplicate edge ({from},{to})");
        }
    }

    #[test]
    fn k_regular_congestion_near_analytic() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 2048;
        let c = Topology::KRegularRandom(3).congestion(n, &mut rng);
        // d·n balls into n bins: leading term d + O(√(d ln n)); the simple
        // additive bound d + ln n / ln ln n.
        let analytic = 3.0 + expected_max_load(n);
        assert!(
            (c as f64) < 4.0 * analytic,
            "congestion {c} vs analytic {analytic}"
        );
        assert!(c >= 3, "in-degree max below the out-degree mean");
    }

    #[test]
    fn k_regular_caps_degree_at_n_minus_one() {
        let mut rng = SmallRng::seed_from_u64(4);
        let e = Topology::KRegularRandom(100).edges(5, &mut rng);
        assert_eq!(e.len(), 4 * 5); // d clamped to n−1 = 4
    }
}
