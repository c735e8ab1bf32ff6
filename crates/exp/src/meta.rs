//! Shared provenance block for benchmark artifacts.
//!
//! `BENCH_round.json`, `BENCH_grid.json` and the profile reports all
//! embed one [`BenchMeta`] so a perf trajectory can tell at a glance
//! *what* produced each number: how many pool threads were available,
//! whether the binary was a release build (debug numbers are
//! meaningless for regression gating), and which kernel revision ran.
//! The block carries its own schema tag so the shape can evolve without
//! revving every artifact schema in lockstep.

use serde::{Deserialize, Serialize};

/// Schema tag of the [`BenchMeta`] block.
pub const BENCH_META_SCHEMA: &str = "bench-meta/v1";

/// Provenance every benchmark artifact shares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchMeta {
    /// Schema tag ([`BENCH_META_SCHEMA`]).
    pub schema: String,
    /// Threads in the global pool when the benchmark ran (sweeps may
    /// restrict below this with `with_max_threads`).
    pub threads: usize,
    /// `"release"` or `"debug"`. Regression gates should refuse to
    /// compare across differing build profiles.
    pub build_profile: String,
    /// `mwu-core` kernel version ([`mwu_core::KERNEL_VERSION`]) the
    /// numbers were measured against.
    pub kernel_version: String,
}

impl BenchMeta {
    /// Capture the current process's provenance.
    pub fn capture() -> Self {
        BenchMeta {
            schema: BENCH_META_SCHEMA.into(),
            threads: rayon::current_num_threads(),
            build_profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
            kernel_version: mwu_core::KERNEL_VERSION.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_stamped_and_round_trips() {
        let meta = BenchMeta::capture();
        assert_eq!(meta.schema, BENCH_META_SCHEMA);
        assert!(meta.threads >= 1);
        assert!(meta.build_profile == "release" || meta.build_profile == "debug");
        assert_eq!(meta.kernel_version, mwu_core::KERNEL_VERSION);
        let json = serde_json::to_string(&meta).unwrap();
        let back: BenchMeta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn meta_is_optional_in_old_artifacts() {
        // Committed baselines predate the meta block; readers declare it
        // as `Option<BenchMeta>` and must tolerate its absence.
        #[derive(Deserialize)]
        struct Artifact {
            schema: String,
            meta: Option<BenchMeta>,
        }
        let old: Artifact = serde_json::from_str(r#"{"schema":"bench_round/v1"}"#).unwrap();
        assert_eq!(old.schema, "bench_round/v1");
        assert!(old.meta.is_none());
    }
}
