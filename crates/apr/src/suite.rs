//! Regression test suites with per-test simulated cost.
//!
//! "Testing the functionality of a large-scale software project can take
//! minutes to hours; this step occurs in the inner loop and is the dominant
//! cost" (paper §I). The simulated suite carries a per-test cost in
//! milliseconds so the harness can report latency and fitness-evaluation
//! counts in the paper's units without actually burning the time.

use mwu_core::rng::keyed_uniform;
use serde::{Deserialize, Serialize};

/// One test case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestCase {
    /// Stable id (index into the suite).
    pub id: usize,
    /// Simulated execution cost in milliseconds.
    pub cost_ms: u64,
    /// True for the bug-inducing test(s) the original program fails.
    pub triggers_bug: bool,
}

/// A regression suite: required tests plus bug-inducing test(s).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestSuite {
    tests: Vec<TestCase>,
    total_cost_ms: u64,
    n_bug_tests: usize,
}

impl TestSuite {
    /// Build from explicit test cases.
    ///
    /// # Panics
    /// Panics if empty or if *every* test triggers the bug (no required
    /// functionality to preserve).
    pub fn new(tests: Vec<TestCase>) -> Self {
        assert!(!tests.is_empty(), "suite needs at least one test");
        let n_bug = tests.iter().filter(|t| t.triggers_bug).count();
        assert!(n_bug < tests.len(), "at least one required test expected");
        let total = tests.iter().map(|t| t.cost_ms).sum();
        Self {
            tests,
            total_cost_ms: total,
            n_bug_tests: n_bug,
        }
    }

    /// Synthetic suite: `n_required` required tests plus `n_bug` bug
    /// triggers, with log-normal-ish per-test costs (most tests fast, a few
    /// slow — the shape of real suites).
    pub fn synthetic(n_required: usize, n_bug: usize, world_seed: u64) -> Self {
        assert!(n_required > 0);
        let mut tests = Vec::with_capacity(n_required + n_bug);
        for id in 0..n_required + n_bug {
            let u = keyed_uniform(&[world_seed, 0x7E57, id as u64]);
            // Costs from ~5ms to ~5s, heavy-tailed.
            let cost_ms = (5.0 * (1000.0f64).powf(u)) as u64;
            tests.push(TestCase {
                id,
                cost_ms,
                triggers_bug: id >= n_required,
            });
        }
        Self::new(tests)
    }

    /// All tests.
    pub fn tests(&self) -> &[TestCase] {
        &self.tests
    }

    /// Total number of tests (required + bug-inducing).
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// True when the suite is empty (never constructible).
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// Number of required (non-bug) tests.
    pub fn n_required(&self) -> usize {
        self.tests.len() - self.n_bug_tests
    }

    /// Number of bug-inducing tests.
    pub fn n_bug_tests(&self) -> usize {
        self.n_bug_tests
    }

    /// Cost of executing the full suite once, in simulated milliseconds.
    pub fn full_run_cost_ms(&self) -> u64 {
        self.total_cost_ms
    }

    /// Fitness of the *original* (defective) program: passes every required
    /// test, fails every bug test.
    pub fn baseline_fitness(&self) -> u32 {
        self.n_required() as u32
    }

    /// Maximum fitness (all tests pass) — the paper's `f(P', S) = |S|`
    /// early-termination condition.
    pub fn max_fitness(&self) -> u32 {
        self.tests.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_suite_shape() {
        let s = TestSuite::synthetic(20, 2, 1);
        assert_eq!(s.len(), 22);
        assert_eq!(s.n_required(), 20);
        assert_eq!(s.n_bug_tests(), 2);
        assert_eq!(s.baseline_fitness(), 20);
        assert_eq!(s.max_fitness(), 22);
        assert!(s.full_run_cost_ms() > 0);
    }

    #[test]
    fn synthetic_deterministic() {
        assert_eq!(
            TestSuite::synthetic(10, 1, 5),
            TestSuite::synthetic(10, 1, 5)
        );
        assert_ne!(
            TestSuite::synthetic(10, 1, 5),
            TestSuite::synthetic(10, 1, 6)
        );
    }

    #[test]
    fn costs_heavy_tailed_but_bounded() {
        let s = TestSuite::synthetic(200, 1, 3);
        let max = s.tests().iter().map(|t| t.cost_ms).max().unwrap();
        let min = s.tests().iter().map(|t| t.cost_ms).min().unwrap();
        assert!(min >= 5);
        assert!(max <= 5000);
        assert!(max > 10 * min, "expected heavy tail, got {min}..{max}");
    }

    #[test]
    #[should_panic]
    fn all_bug_tests_rejected() {
        let _ = TestSuite::new(vec![TestCase {
            id: 0,
            cost_ms: 1,
            triggers_bug: true,
        }]);
    }
}
