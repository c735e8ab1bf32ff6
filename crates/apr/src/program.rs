//! The simulated program: statements, coverage, and a defect.
//!
//! A [`Program`] is a vector of statements, each tagged with the set of
//! tests that execute it. The defect lives at one (covered) statement.
//! Statement *content* is an opaque token — the search algorithms under
//! study treat programs as mutable statement sequences whose semantics are
//! only observable through tests, and the simulation preserves exactly that
//! interface.

use serde::{Deserialize, Serialize};

use crate::suite::TestSuite;
use mwu_core::rng::keyed_uniform;

/// One statement of the simulated program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Statement {
    /// Stable statement id (index into the program).
    pub id: usize,
    /// Opaque content token. Donor statements with equal tokens are the
    /// "similar regions of code" some APR tools exploit; tokens are drawn
    /// from a Zipf-ish pool so realistic duplication exists.
    pub token: u32,
    /// Fraction of the regression suite that executes this statement.
    pub coverage: f64,
}

impl Statement {
    /// Is this statement executed by test `test_id` (of `n_tests`)?
    ///
    /// Deterministic per (world, statement, test): coverage is a fixed
    /// property of the program, like a real coverage matrix.
    pub fn covered_by(&self, world_seed: u64, test_id: usize, _n_tests: usize) -> bool {
        keyed_uniform(&[world_seed, 0xC0DE_C0DE, self.id as u64, test_id as u64]) < self.coverage
    }
}

/// The simulated program under repair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Human-readable name (e.g. "gzip-2009-08-16").
    pub name: String,
    /// World seed: fixes every deterministic property (coverage, mutation
    /// safety, conflicts, repairs) of this program's universe.
    pub world_seed: u64,
    /// The statements.
    pub statements: Vec<Statement>,
    /// Statement at which the defect manifests.
    pub defect_site: usize,
}

impl Program {
    /// Generate a synthetic program with `n_statements` statements.
    ///
    /// Coverage per statement is drawn from a bimodal mixture (a core of
    /// hot statements covered by most tests, a long tail of cold ones),
    /// which is the shape real coverage matrices have.
    pub fn synthetic(name: &str, n_statements: usize, world_seed: u64) -> Self {
        assert!(n_statements > 0);
        let statements = (0..n_statements)
            .map(|id| {
                let hot = keyed_uniform(&[world_seed, 1, id as u64]) < 0.25;
                let coverage = if hot {
                    0.6 + 0.4 * keyed_uniform(&[world_seed, 2, id as u64])
                } else {
                    0.05 + 0.3 * keyed_uniform(&[world_seed, 3, id as u64])
                };
                // Token pool of size ~ n/4 so duplicates are common.
                let pool = (n_statements / 4).max(4) as u64;
                let token = (keyed_uniform(&[world_seed, 4, id as u64]) * pool as f64) as u32;
                Statement {
                    id,
                    token,
                    coverage,
                }
            })
            .collect::<Vec<_>>();
        let defect_site = (keyed_uniform(&[world_seed, 5]) * n_statements as f64) as usize;
        Self {
            name: name.to_string(),
            world_seed,
            statements,
            defect_site: defect_site.min(n_statements - 1),
        }
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.statements.len()
    }

    /// True if the program has no statements (unreachable for synthetic
    /// programs; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// Statement ids executed by at least one test of `suite` — the legal
    /// mutation sites (paper §III: mutations are restricted to covered
    /// code).
    pub fn covered_sites(&self, suite: &TestSuite) -> Vec<usize> {
        let n_tests = suite.len();
        self.statements
            .iter()
            .filter(|s| (0..n_tests).any(|t| s.covered_by(self.world_seed, t, n_tests)))
            .map(|s| s.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::TestSuite;

    #[test]
    fn synthetic_program_is_deterministic() {
        let a = Program::synthetic("p", 100, 7);
        let b = Program::synthetic("p", 100, 7);
        let c = Program::synthetic("p", 100, 8);
        assert_eq!(a, b);
        assert_ne!(a.statements, c.statements);
    }

    #[test]
    fn defect_site_in_range() {
        for seed in 0..20 {
            let p = Program::synthetic("p", 50, seed);
            assert!(p.defect_site < 50);
        }
    }

    #[test]
    fn coverage_is_fixed_per_statement_test_pair() {
        let p = Program::synthetic("p", 10, 3);
        let s = &p.statements[0];
        let a = s.covered_by(p.world_seed, 4, 20);
        let b = s.covered_by(p.world_seed, 4, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn covered_sites_subset_of_statements() {
        let p = Program::synthetic("p", 200, 11);
        let suite = TestSuite::synthetic(30, 1, 11);
        let sites = p.covered_sites(&suite);
        assert!(!sites.is_empty());
        assert!(sites.len() <= 200);
        assert!(sites.windows(2).all(|w| w[0] < w[1]), "sites sorted unique");
    }

    #[test]
    fn with_many_tests_most_statements_are_covered() {
        let p = Program::synthetic("p", 100, 5);
        let suite = TestSuite::synthetic(100, 1, 5);
        let sites = p.covered_sites(&suite);
        // Min coverage is 5 %; with 100 tests, P(uncovered) = 0.95^100 ≈ 0.6 %.
        assert!(sites.len() > 90, "only {} covered", sites.len());
    }

    #[test]
    fn tokens_have_duplicates() {
        let p = Program::synthetic("p", 400, 9);
        let mut tokens: Vec<u32> = p.statements.iter().map(|s| s.token).collect();
        tokens.sort_unstable();
        let unique = {
            let mut t = tokens.clone();
            t.dedup();
            t.len()
        };
        assert!(unique < tokens.len(), "expected duplicate tokens");
    }
}
