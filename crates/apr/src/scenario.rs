//! The bug-scenario catalog (paper §IV-A).
//!
//! Five C scenarios (four from ManyBugs plus `units` from an older
//! benchmark) and five Java scenarios from Defects4J, with the option
//! counts ("Size") of Tables II–IV. Option `x` of a scenario is "combine
//! `x` pooled safe mutations"; the scenario's value distribution over
//! options is its (normalized) repair-density curve, which is the proxy the
//! paper's online phase estimates (§III-B, §III-D).
//!
//! Per-scenario repair-density optima are placed inside the paper's
//! reported 11–271 range ("the optimum found anywhere from 11 to 271
//! mutations"), with gzip-2009-08-16 at the paper's headline 48.

use crate::evaluate::{evaluate_composition, ProbeOutcome, WorldParams};
use crate::interaction::InteractionModel;
use crate::ledger::CostLedger;
use crate::mutation::Mutation;
use crate::pool::MutationPool;
use crate::program::Program;
use crate::suite::TestSuite;
use serde::{Deserialize, Serialize};

/// Which benchmark family a scenario belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// ManyBugs / `units` (C).
    C,
    /// Defects4J (Java).
    Java,
    /// Synthetic (used by tests and custom experiments).
    Synthetic,
}

/// One bug-repair scenario: a defective program, its suite, and the world
/// parameters that fix the mutation space's statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BugScenario {
    /// Scenario name as the paper's tables print it.
    pub name: String,
    /// Benchmark family.
    pub kind: ScenarioKind,
    /// Number of options `k` (the Table II "Size" column): the bandit's
    /// arms are "combine x mutations" for x ∈ 1..=options.
    pub options: usize,
    /// Target size of the precomputed safe-mutation pool. The paper's
    /// precompute phase builds "a large sample of individually safe
    /// mutations"; the pool must be large enough that its repair density is
    /// representative of the mutation space (i.e. it actually contains
    /// repairers at rate ≈ `repair_rate`). Defaults to `options`; the
    /// catalog scenarios size it as ≳ 3/repair_rate.
    pub pool_size: usize,
    /// The defective program.
    pub program: Program,
    /// Its regression suite (including the bug-inducing test).
    pub suite: TestSuite,
    /// World parameters (safe rate, interaction model, repair rate).
    pub world: WorldParams,
}

/// One catalog scenario's constructor arguments: name, family, option
/// count `k`, density optimum `x*`, statements, tests, repair rate, world
/// seed, precompute-pool size (see [`BugScenario::custom`]).
#[rustfmt::skip]
type CatalogEntry = (&'static str, ScenarioKind, usize, usize, usize, usize, f64, u64, usize);

/// The ten §IV-A scenarios, C first (the paper's table order). The hard
/// ones — gzip-2009-08-16, gzip-2009-09-26, Chart26 and the borderline
/// Closure22 — need ≈33k, ≈22k, ≈28k and ≈13k expected single-edit evals.
#[rustfmt::skip]
const CATALOG: [CatalogEntry; 10] = [
    ("units", ScenarioKind::C, 1000, 96, 600, 30, 0.003, 0xC_0001, 2000),
    ("gzip-2009-08-16", ScenarioKind::C, 5000, 48, 2500, 60, 0.0001, 0xC_0002, 30_000),
    ("gzip-2009-09-26", ScenarioKind::C, 2000, 64, 2500, 60, 0.00015, 0xC_0003, 20_000),
    ("libtiff-2005-12-14", ScenarioKind::C, 100, 27, 1200, 45, 0.002, 0xC_0004, 3_000),
    ("lighttpd-1806-1807", ScenarioKind::C, 50, 11, 900, 35, 0.0008, 0xC_0005, 12_000),
    ("Chart26", ScenarioKind::Java, 100, 35, 800, 50, 0.00012, 0x7A_0001, 25_000),
    ("Closure13", ScenarioKind::Java, 100, 20, 1500, 70, 0.0015, 0x7A_0002, 3_000),
    ("Closure22", ScenarioKind::Java, 100, 48, 1500, 70, 0.00025, 0x7A_0003, 15_000),
    ("Math8", ScenarioKind::Java, 100, 60, 700, 40, 0.002, 0x7A_0004, 2_500),
    ("Math80", ScenarioKind::Java, 100, 14, 700, 40, 0.001, 0x7A_0005, 4_000),
];

fn build_entry(entry: &CatalogEntry) -> BugScenario {
    let &(name, kind, options, x_star, statements, tests, repair_rate, world_seed, pool) = entry;
    BugScenario::custom(
        name,
        kind,
        options,
        x_star,
        statements,
        tests,
        repair_rate,
        world_seed,
    )
    .with_pool_size(pool)
}

impl BugScenario {
    /// Construct a scenario with explicit knobs.
    ///
    /// `x_star` is where the repair-density optimum should fall;
    /// `n_statements`/`n_tests` size the substrate.
    #[allow(clippy::too_many_arguments)]
    pub fn custom(
        name: &str,
        kind: ScenarioKind,
        options: usize,
        x_star: usize,
        n_statements: usize,
        n_tests: usize,
        repair_rate: f64,
        world_seed: u64,
    ) -> Self {
        assert!(options >= 2);
        assert!(x_star >= 1 && x_star <= options);
        let program = Program::synthetic(name, n_statements, world_seed);
        let suite = TestSuite::synthetic(n_tests, 1, world_seed);
        let world = WorldParams {
            world_seed,
            safe_rate: 0.30,
            interaction: InteractionModel::pairwise_with_optimum(x_star),
            defect_site: program.defect_site,
            repair_rate,
        };
        Self {
            name: name.to_string(),
            kind,
            options,
            pool_size: options,
            program,
            suite,
            world,
        }
    }

    /// Override the precompute-pool target size (builder style).
    pub fn with_pool_size(mut self, pool_size: usize) -> Self {
        assert!(pool_size >= 1);
        self.pool_size = pool_size;
        self
    }

    /// The five C scenarios of §IV-A, with Table II option counts.
    ///
    /// Repair rates span "easy" bugs (single-edit searches find them within
    /// a GenProg-scale budget) and "hard" ones (repair density so low that
    /// one-edit-at-a-time search exhausts its budget, while multi-mutation
    /// probes still reach them) — the paper's §VI observation that "some
    /// bugs are easier to repair than others" and that "for harder
    /// scenarios ... the choice of algorithm matters a great deal."
    pub fn catalog_c() -> Vec<BugScenario> {
        CATALOG[..5].iter().map(build_entry).collect()
    }

    /// The five Defects4J scenarios of §IV-A: same option count (100),
    /// differing value distributions ("vary in the distribution of values
    /// over them") and difficulties.
    pub fn catalog_java() -> Vec<BugScenario> {
        CATALOG[5..].iter().map(build_entry).collect()
    }

    /// All ten APR scenarios, C first (the paper's table order).
    pub fn catalog_all() -> Vec<BugScenario> {
        CATALOG.iter().map(build_entry).collect()
    }

    /// Is `name` a catalog scenario? Builds nothing.
    pub fn in_catalog(name: &str) -> bool {
        CATALOG.iter().any(|e| e.0 == name)
    }

    /// Look up a catalog scenario by name, building only that one.
    pub fn by_name(name: &str) -> Option<BugScenario> {
        CATALOG.iter().find(|e| e.0 == name).map(build_entry)
    }

    /// Number of arms (alias for `options`).
    pub fn num_arms(&self) -> usize {
        self.options
    }

    /// Where this scenario's repair density peaks.
    pub fn density_optimum(&self) -> usize {
        self.world.interaction.density_optimum(self.options)
    }

    /// The scenario's value distribution over arms x ∈ 1..=options: the
    /// normalized repair-density proxy `v(x) ∝ x·survival(x)`, scaled so
    /// the peak sits at 0.9 (keeping Bernoulli feedback genuinely noisy
    /// even at the optimum).
    pub fn value_distribution(&self) -> Vec<f64> {
        let peak = self
            .world
            .interaction
            .repair_density(self.density_optimum());
        (1..=self.options)
            .map(|x| 0.9 * self.world.interaction.repair_density(x) / peak)
            .collect()
    }

    /// Precompute this scenario's safe-mutation pool (`pool_size` members).
    pub fn build_pool(&self, seed: u64, ledger: Option<&CostLedger>) -> MutationPool {
        MutationPool::precompute(
            &self.program,
            &self.suite,
            &self.world,
            self.pool_size,
            seed,
            ledger,
        )
    }

    /// Evaluate one composition against this scenario.
    pub fn evaluate(&self, muts: &[Mutation], ledger: Option<&CostLedger>) -> ProbeOutcome {
        evaluate_composition(&self.world, &self.suite, muts, ledger)
    }

    /// Derive a *sibling bug* in the same program: same program text, same
    /// suite shape, same mutation space and interaction statistics — but a
    /// different defect (different defect site, different repair draws).
    ///
    /// This is the §III-C amortization setting: "precomputes a large pool
    /// of safe mutations, a one-time cost that ... can be amortized over
    /// the cost of repairing multiple bugs in a given program." Safety is
    /// keyed only on `(world_seed, mutation)`, so a pool built for one bug
    /// is *exactly valid* for every sibling.
    pub fn sibling_bug(&self, bug_index: u64) -> BugScenario {
        let mut out = self.clone();
        out.name = format!("{}#bug{}", self.name, bug_index);
        // Move the defect deterministically; repair draws are keyed on the
        // repair tag + mutation id + defect proximity, so changing the
        // defect site (and a per-bug repair-rate salt via the tag below)
        // yields an independent repair set over the same safe pool.
        let k = self.program.len() as u64;
        let new_site =
            (mwu_core::rng::mix(&[self.world.world_seed, 0xB06, bug_index]) % k) as usize;
        out.program.defect_site = new_site;
        out.world.defect_site = new_site;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_paper_sizes() {
        let c = BugScenario::catalog_c();
        let sizes: Vec<(String, usize)> = c.iter().map(|s| (s.name.clone(), s.options)).collect();
        assert_eq!(
            sizes,
            vec![
                ("units".to_string(), 1000),
                ("gzip-2009-08-16".to_string(), 5000),
                ("gzip-2009-09-26".to_string(), 2000),
                ("libtiff-2005-12-14".to_string(), 100),
                ("lighttpd-1806-1807".to_string(), 50),
            ]
        );
        let j = BugScenario::catalog_java();
        assert_eq!(j.len(), 5);
        assert!(j.iter().all(|s| s.options == 100));
    }

    #[test]
    fn gzip_optimum_is_48() {
        let s = BugScenario::by_name("gzip-2009-08-16").unwrap();
        let opt = s.density_optimum();
        assert!(opt.abs_diff(48) <= 3, "gzip optimum {opt}");
    }

    #[test]
    fn optima_span_paper_range() {
        let all = BugScenario::catalog_all();
        for s in &all {
            let opt = s.density_optimum();
            assert!(
                (8..=300).contains(&opt),
                "{}: optimum {opt} outside the paper's 11–271 band",
                s.name
            );
        }
        // And they differ across scenarios ("for each program/bug
        // combination, the optimal density occurs at a different place").
        let mut opts: Vec<usize> = all.iter().map(|s| s.density_optimum()).collect();
        opts.sort_unstable();
        opts.dedup();
        assert!(opts.len() >= 7);
    }

    #[test]
    fn value_distribution_is_unimodal_peaking_at_optimum() {
        let s = BugScenario::by_name("libtiff-2005-12-14").unwrap();
        let v = s.value_distribution();
        assert_eq!(v.len(), 100);
        let peak_idx = v
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak_idx + 1, s.density_optimum());
        assert!((v[peak_idx] - 0.9).abs() < 1e-9);
        assert!(v.iter().all(|&x| (0.0..=0.9 + 1e-9).contains(&x)));
    }

    #[test]
    fn java_distributions_differ() {
        let j = BugScenario::catalog_java();
        let d0 = j[0].value_distribution();
        let d1 = j[1].value_distribution();
        assert_eq!(d0.len(), d1.len());
        assert_ne!(d0, d1);
    }

    #[test]
    fn by_name_roundtrip() {
        assert!(BugScenario::by_name("Math80").is_some());
        assert!(BugScenario::by_name("nonexistent").is_none());
    }

    /// Looking one scenario up builds exactly the catalog's entry, and
    /// the name check agrees with the lookup.
    #[test]
    fn by_name_equals_the_catalog_entry() {
        let all = BugScenario::catalog_all();
        assert_eq!(all.len(), 10);
        for s in &all {
            let one = BugScenario::by_name(&s.name).expect("catalog name resolves");
            assert_eq!(&one, s, "{}", s.name);
            assert!(BugScenario::in_catalog(&s.name));
        }
        for unknown in ["nonexistent", "", "math80", "gzip"] {
            assert!(BugScenario::by_name(unknown).is_none(), "{unknown:?}");
            assert!(!BugScenario::in_catalog(unknown), "{unknown:?}");
        }
    }

    #[test]
    fn small_scenario_pool_and_probe() {
        let s = BugScenario::custom("tiny", ScenarioKind::Synthetic, 30, 8, 300, 15, 0.02, 5);
        let pool = s.build_pool(1, None);
        assert_eq!(pool.len(), 30);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        use rand::SeedableRng;
        let comp = pool.sample_composition(8, &mut rng);
        let out = s.evaluate(&comp, None);
        assert!(out.fitness <= s.suite.max_fitness());
    }
}
