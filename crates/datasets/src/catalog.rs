//! The full twenty-dataset catalog of §IV-A, in the paper's table order.

use crate::{random, unimodal};
use apr_sim::BugScenario;
use mwu_core::bandit::ValueBandit;
use serde::{Deserialize, Serialize};

/// Which §IV-A family a dataset belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Family {
    /// iid uniform values.
    Random,
    /// a·x·e^(−bx)+c values.
    Unimodal,
    /// ManyBugs/`units`-shaped APR scenarios.
    C,
    /// Defects4J-shaped APR scenarios.
    Java,
}

impl Family {
    /// Display label matching the paper's table groupings.
    pub fn label(self) -> &'static str {
        match self {
            Family::Random => "random",
            Family::Unimodal => "unimodal",
            Family::C => "C",
            Family::Java => "Java",
        }
    }
}

/// One evaluation dataset: a named vector of option values in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Table name (e.g. "random1024", "gzip-2009-08-16").
    pub name: String,
    /// Family.
    pub family: Family,
    /// Option values (the "Size" column is `values.len()`).
    pub values: Vec<f64>,
}

impl Dataset {
    /// Instance size `k`.
    pub fn size(&self) -> usize {
        self.values.len()
    }

    /// The Bernoulli-feedback bandit over this dataset (the observation
    /// model of the paper's APR use case, used for all experiments).
    pub fn bandit(&self) -> ValueBandit {
        ValueBandit::bernoulli(self.values.clone())
    }

    /// Best arm in hindsight.
    pub fn best_arm(&self) -> usize {
        self.values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Value of the best arm.
    pub fn best_value(&self) -> f64 {
        self.values[self.best_arm()]
    }
}

/// Dataset-generation seed: fixed so the whole catalog is reproducible
/// (replicate seeds vary per run; the *instances* are shared by all
/// replicates, as in the paper: "All experiments share the same input
/// datasets").
pub const CATALOG_SEED: u64 = 0x0DA7_A5E7;

/// The five random datasets.
pub fn random_datasets() -> Vec<Dataset> {
    random::SIZES
        .iter()
        .map(|&k| Dataset {
            name: random::name(k),
            family: Family::Random,
            values: random::generate(k, CATALOG_SEED),
        })
        .collect()
}

/// The five unimodal datasets.
pub fn unimodal_datasets() -> Vec<Dataset> {
    unimodal::SIZES
        .iter()
        .map(|&k| Dataset {
            name: unimodal::name(k),
            family: Family::Unimodal,
            values: unimodal::generate(k, CATALOG_SEED),
        })
        .collect()
}

/// The five C datasets, derived from the simulated APR scenarios.
pub fn c_datasets() -> Vec<Dataset> {
    BugScenario::catalog_c()
        .into_iter()
        .map(|s| Dataset {
            name: s.name.clone(),
            family: Family::C,
            values: s.value_distribution(),
        })
        .collect()
}

/// The five Java datasets, derived from the simulated APR scenarios.
pub fn java_datasets() -> Vec<Dataset> {
    BugScenario::catalog_java()
        .into_iter()
        .map(|s| Dataset {
            name: s.name.clone(),
            family: Family::Java,
            values: s.value_distribution(),
        })
        .collect()
}

/// All twenty datasets in the paper's table order:
/// random, unimodal, C, Java.
pub fn full_catalog() -> Vec<Dataset> {
    let mut v = random_datasets();
    v.extend(unimodal_datasets());
    v.extend(c_datasets());
    v.extend(java_datasets());
    v
}

/// Look up a catalog dataset by name.
pub fn by_name(name: &str) -> Option<Dataset> {
    full_catalog().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_twenty_datasets_in_order() {
        let c = full_catalog();
        assert_eq!(c.len(), 20);
        assert!(c[..5].iter().all(|d| d.family == Family::Random));
        assert!(c[5..10].iter().all(|d| d.family == Family::Unimodal));
        assert!(c[10..15].iter().all(|d| d.family == Family::C));
        assert!(c[15..].iter().all(|d| d.family == Family::Java));
    }

    #[test]
    fn sizes_match_tables() {
        let c = full_catalog();
        let sizes: Vec<usize> = c.iter().map(|d| d.size()).collect();
        assert_eq!(
            sizes,
            vec![
                64, 256, 1024, 4096, 16384, // random
                64, 256, 1024, 4096, 16384, // unimodal
                1000, 5000, 2000, 100, 50, // C
                100, 100, 100, 100, 100 // Java
            ]
        );
    }

    #[test]
    fn all_values_are_valid_bernoulli_means() {
        for d in full_catalog() {
            assert!(
                d.values.iter().all(|v| (0.0..=1.0).contains(v)),
                "{} has out-of-range values",
                d.name
            );
        }
    }

    #[test]
    fn bandit_roundtrip() {
        let d = by_name("random64").unwrap();
        let b = d.bandit();
        use mwu_core::bandit::Bandit;
        assert_eq!(b.num_arms(), 64);
        assert_eq!(b.best_arm(), d.best_arm());
    }

    #[test]
    fn catalog_is_reproducible() {
        let a = full_catalog();
        let b = full_catalog();
        assert_eq!(a, b);
    }

    #[test]
    fn java_datasets_share_size_but_differ_in_values() {
        let j = java_datasets();
        assert!(j.iter().all(|d| d.size() == 100));
        for pair in j.windows(2) {
            assert_ne!(pair[0].values, pair[1].values);
        }
    }

    #[test]
    fn by_name_misses_gracefully() {
        assert!(by_name("nope").is_none());
        assert_eq!(by_name("Chart26").unwrap().family, Family::Java);
    }
}
