//! Mutation operators over simulated programs.
//!
//! The operator set is GenProg's (the paper §IV-G: "MWRepair uses the same
//! mutation operators as all four of the algorithms mentioned above"):
//! delete a statement, insert a copy of a donor statement after a site,
//! swap two statements, replace a statement with a donor. Mutations are
//! value types identified by a stable [`MutationId`] so safety and conflict
//! draws can be keyed deterministically.

use crate::program::Program;
use mwu_core::rng::{BernoulliThreshold, MixPrefix};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The GenProg operator set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MutOp {
    /// Remove the statement at `site`.
    Delete,
    /// Insert a copy of `donor` after `site`.
    Insert,
    /// Exchange the statements at `site` and `donor`.
    Swap,
    /// Overwrite `site` with a copy of `donor`.
    Replace,
}

impl MutOp {
    /// All operators.
    pub const ALL: [MutOp; 4] = [MutOp::Delete, MutOp::Insert, MutOp::Swap, MutOp::Replace];

    /// Stable small integer tag (used in deterministic keying).
    pub fn tag(self) -> u64 {
        match self {
            MutOp::Delete => 0,
            MutOp::Insert => 1,
            MutOp::Swap => 2,
            MutOp::Replace => 3,
        }
    }
}

/// Stable identifier of a mutation within one program world: encodes
/// (operator, site, donor) injectively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MutationId(pub u64);

/// One whole-statement mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mutation {
    /// Operator applied.
    pub op: MutOp,
    /// Target statement.
    pub site: usize,
    /// Donor statement (ignored for Delete; equal to `site` then).
    pub donor: usize,
}

impl Mutation {
    /// Stable id: injective over (op, site, donor) for programs below
    /// 2³⁰ statements.
    pub fn id(&self) -> MutationId {
        MutationId(self.op.tag() | ((self.site as u64) << 2) | ((self.donor as u64) << 32))
    }

    /// Draw a uniformly random mutation over the given legal sites.
    ///
    /// `sites` must be the covered statements (the paper restricts
    /// mutations to code executed by the suite); donors are drawn from the
    /// whole program (GenProg inserts code from anywhere in the same
    /// program).
    pub fn random(program: &Program, sites: &[usize], rng: &mut SmallRng) -> Self {
        assert!(!sites.is_empty(), "no covered mutation sites");
        let op = MutOp::ALL[rng.gen_range(0..MutOp::ALL.len())];
        let site = sites[rng.gen_range(0..sites.len())];
        let donor = if op == MutOp::Delete {
            site
        } else {
            rng.gen_range(0..program.len())
        };
        Self { op, site, donor }
    }

    /// Is this mutation *individually safe* — does the mutated program pass
    /// every required test?
    ///
    /// Deterministic per (world, mutation): a fixed ≈`safe_rate` fraction of
    /// the mutation space is safe, exactly as a real test suite would
    /// partition it. Delete of an uncovered statement cannot break covered
    /// behaviour, but sites are pre-restricted to covered code, so all
    /// operators share the base rate, modulated slightly by operator type
    /// (deletes of redundant code are safer in practice; swaps are the most
    /// disruptive — constants chosen to keep the blended rate at
    /// `safe_rate`).
    pub fn is_safe(&self, world_seed: u64, safe_rate: f64) -> bool {
        SafetyDraw::new(world_seed, safe_rate).is_safe(self)
    }

    /// Is this safe mutation one that *repairs the defect* (passes the
    /// bug-inducing tests as well)? Only meaningful for safe mutations —
    /// "any mutation that constitutes a bug repair must also be safe"
    /// (paper §III).
    ///
    /// Repairs cluster mildly near the defect site: the per-mutation repair
    /// probability is `repair_rate`, doubled within a small neighborhood of
    /// the defect. The boost models fault locality without handing
    /// enumeration-ordered searches an outsized win (GenProg-style repairs
    /// are frequently far from the faulty statement).
    pub fn is_repair(&self, world_seed: u64, defect_site: usize, repair_rate: f64) -> bool {
        RepairDraw::new(world_seed, defect_site, repair_rate).is_repair(self)
    }
}

/// [`Mutation::is_safe`] for one world, with the draw's key prefix
/// `[world_seed, 0x5AFE]` and its per-operator thresholds computed once,
/// so each mutation costs two `splitmix64` rounds.
#[derive(Debug)]
pub(crate) struct SafetyDraw {
    key: MixPrefix,
    /// Indexed by [`MutOp::tag`].
    thresholds: [BernoulliThreshold; 4],
}

impl SafetyDraw {
    pub(crate) fn new(world_seed: u64, safe_rate: f64) -> Self {
        let thresholds = MutOp::ALL.map(|op| {
            let op_factor = match op {
                MutOp::Delete => 1.15,
                MutOp::Insert => 1.00,
                MutOp::Swap => 0.85,
                MutOp::Replace => 1.00,
            };
            BernoulliThreshold::new((safe_rate * op_factor).clamp(0.0, 1.0))
        });
        Self {
            key: MixPrefix::new(&[world_seed, 0x5AFE]),
            thresholds,
        }
    }

    pub(crate) fn is_safe(&self, m: &Mutation) -> bool {
        self.thresholds[m.op.tag() as usize].hit(self.key.then(m.id().0).finish())
    }
}

/// [`Mutation::is_repair`] for one defect, with the draw's key prefix
/// `[world_seed, 0xF1F0, defect_site]` and both thresholds computed once.
#[derive(Debug)]
pub(crate) struct RepairDraw {
    key: MixPrefix,
    defect_site: usize,
    near: BernoulliThreshold,
    far: BernoulliThreshold,
}

impl RepairDraw {
    pub(crate) fn new(world_seed: u64, defect_site: usize, repair_rate: f64) -> Self {
        Self {
            // Keyed on the defect site as well: a repair fixes *this* bug,
            // so sibling bugs of the same program draw independent repair
            // sets over the shared safe-mutation space.
            key: MixPrefix::new(&[world_seed, 0xF1F0, defect_site as u64]),
            defect_site,
            near: BernoulliThreshold::new((repair_rate * 2.0).min(1.0)),
            far: BernoulliThreshold::new(repair_rate),
        }
    }

    pub(crate) fn is_repair(&self, m: &Mutation) -> bool {
        let threshold = if m.site.abs_diff(self.defect_site) <= 5 {
            self.near
        } else {
            self.far
        };
        threshold.hit(self.key.then(m.id().0).finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn program() -> Program {
        Program::synthetic("p", 300, 42)
    }

    #[test]
    fn id_is_injective_over_samples() {
        use std::collections::HashSet;
        let p = program();
        let sites: Vec<usize> = (0..p.len()).collect();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut seen: HashSet<(MutOp, usize, usize)> = HashSet::new();
        let mut ids: HashSet<u64> = HashSet::new();
        for _ in 0..5000 {
            let m = Mutation::random(&p, &sites, &mut rng);
            let fresh_triple = seen.insert((m.op, m.site, m.donor));
            let fresh_id = ids.insert(m.id().0);
            assert_eq!(fresh_triple, fresh_id, "id collision for {m:?}");
        }
    }

    #[test]
    fn safety_is_deterministic() {
        let m = Mutation {
            op: MutOp::Replace,
            site: 10,
            donor: 20,
        };
        assert_eq!(m.is_safe(1, 0.3), m.is_safe(1, 0.3));
        // Different worlds generally disagree somewhere.
        let disagreements = (0..200u64)
            .filter(|&w| m.is_safe(w, 0.3) != m.is_safe(w + 1000, 0.3))
            .count();
        assert!(disagreements > 0);
    }

    #[test]
    fn safe_rate_close_to_nominal() {
        let p = program();
        let sites: Vec<usize> = (0..p.len()).collect();
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 20_000;
        let safe = (0..n)
            .filter(|_| Mutation::random(&p, &sites, &mut rng).is_safe(7, 0.3))
            .count();
        let rate = safe as f64 / n as f64;
        assert!(
            (rate - 0.3).abs() < 0.03,
            "empirical safe rate {rate} far from 0.3"
        );
    }

    #[test]
    fn delete_uses_site_as_donor() {
        let p = program();
        let sites: Vec<usize> = (0..p.len()).collect();
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..200 {
            let m = Mutation::random(&p, &sites, &mut rng);
            if m.op == MutOp::Delete {
                assert_eq!(m.site, m.donor);
            }
        }
    }

    #[test]
    fn repairs_are_rare_and_cluster_near_defect() {
        let world = 5;
        let defect = 150;
        let rate = 0.02; // boosted to 0.04 near the defect
        let mut near_hits = 0;
        let mut far_hits = 0;
        let mut near_total = 0u64;
        let mut far_total = 0u64;
        for site in 0..300 {
            for donor in 0..500 {
                let m = Mutation {
                    op: MutOp::Insert,
                    site,
                    donor,
                };
                let near = site.abs_diff(defect) <= 5;
                if m.is_repair(world, defect, rate) {
                    if near {
                        near_hits += 1;
                    } else {
                        far_hits += 1;
                    }
                }
                if near {
                    near_total += 1;
                } else {
                    far_total += 1;
                }
            }
        }
        let near_rate = near_hits as f64 / near_total as f64;
        let far_rate = far_hits as f64 / far_total.max(1) as f64;
        // 2× boost within the neighborhood; wide tolerance for the small
        // near sample (11 sites × 500 donors).
        assert!(
            near_rate > 1.3 * far_rate,
            "near {near_rate} vs far {far_rate}"
        );
        assert!((far_rate - rate).abs() < 0.005, "far rate {far_rate}");
    }

    #[test]
    fn repairs_are_defect_specific() {
        // Different defects draw (mostly) different repair sets over the
        // same mutation space — the amortization setting's premise.
        let world = 5;
        let rate = 0.01;
        let mut shared = 0;
        let mut total_a = 0;
        for site in 0..400 {
            for donor in 0..50 {
                let m = Mutation {
                    op: MutOp::Replace,
                    site,
                    donor,
                };
                let a = m.is_repair(world, 100, rate);
                let b = m.is_repair(world, 300, rate);
                if a {
                    total_a += 1;
                    if b {
                        shared += 1;
                    }
                }
            }
        }
        assert!(total_a > 50, "sample too small: {total_a}");
        // Independent draws: overlap ≈ rate, far below identity.
        assert!(
            (shared as f64) < 0.2 * total_a as f64,
            "{shared}/{total_a} repairs shared between unrelated defects"
        );
    }

    #[test]
    #[should_panic]
    fn random_with_no_sites_panics() {
        let p = program();
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = Mutation::random(&p, &[], &mut rng);
    }
}
