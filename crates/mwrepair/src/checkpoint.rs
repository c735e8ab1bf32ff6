//! Resumable state of the MWRepair online phase.
//!
//! A [`Checkpoint`] captures everything the driver loop in
//! [`crate::driver::repair_resumable`] needs to continue a halted run
//! *byte-identically*: the full MWU algorithm state (weights / population
//! counts / convergence tracker, via its serde impl), the master RNG state,
//! the absolute iteration and probe counters, and the cost-ledger snapshot.
//! Because per-agent probe RNGs are keyed by `(seed, iteration, agent)` and
//! never carried across iterations, the master RNG state plus the iteration
//! number fully determine every random draw the resumed run will make.
//!
//! ## Where checkpoints live
//!
//! This crate stores nothing. A checkpoint is one JSON object (see
//! [`Checkpoint`] for fields); the `mwrepaird` daemon embeds it in each
//! session's `session.json`, which its staged durability epoch writes
//! (`mwrepair-service`, docs/SERVICE.md). The leading `version` field gates
//! compatibility: [`Checkpoint::validate_against`], which every resume
//! runs, rejects a version other than [`CHECKPOINT_VERSION`] rather than
//! misinterpreting it.
//!
//! Floating-point state round-trips bit-exactly: the vendored serde JSON
//! codec prints `f64` via shortest-round-trip formatting and parses with
//! `str::parse`, so `weights -> JSON -> weights` is the identity.

use crate::driver::MwRepairConfig;
use apr_sim::ledger::CostSnapshot;
use mwu_core::MwuAlgorithm;
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Current checkpoint format version. Bump on any incompatible change to
/// [`Checkpoint`] or to the serialized algorithm state.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Serialized state of a paused MWRepair run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`] at write time).
    pub version: u32,
    /// `MwuAlgorithm::name()` of the checkpointed algorithm; resuming with
    /// a different variant is rejected.
    pub algorithm: String,
    /// The run configuration. Resume validates it matches the caller's.
    pub config: MwRepairConfig,
    /// Completed update cycles (absolute, from the start of the run).
    pub iteration: usize,
    /// Total probes issued so far (absolute).
    pub probes: u64,
    /// xoshiro256++ state of the master RNG, captured *after* the last
    /// completed iteration's update step.
    pub rng_state: [u64; 4],
    /// Full algorithm state as a serde value (weights or population counts,
    /// convergence tracker, communication stats, iteration counter).
    pub alg_state: Value,
    /// Cost-ledger totals at checkpoint time.
    pub cost: CostSnapshot,
    /// Whether the convergence telemetry event was already emitted.
    pub convergence_reported: bool,
}

/// Why a checkpoint could not be applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// The serialized algorithm state does not decode.
    Parse(String),
    /// The checkpoint is from an incompatible format version.
    VersionMismatch {
        /// Version found in the checkpoint.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// Checkpoint was written by a different algorithm variant or with a
    /// different run configuration than the resume attempt supplies.
    Incompatible(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Parse(m) => write!(f, "checkpoint parse error: {m}"),
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint version {found} unsupported (this build reads version {expected})"
            ),
            CheckpointError::Incompatible(m) => write!(f, "checkpoint incompatible: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Checkpoint {
    /// Capture the live state of a run between iterations.
    pub fn capture<A: MwuAlgorithm + Serialize>(
        alg: &A,
        config: &MwRepairConfig,
        iteration: usize,
        probes: u64,
        rng: &SmallRng,
        cost: CostSnapshot,
        convergence_reported: bool,
    ) -> Self {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            algorithm: alg.name().to_owned(),
            config: *config,
            iteration,
            probes,
            rng_state: rng.state(),
            alg_state: alg.to_value(),
            cost,
            convergence_reported,
        }
    }

    /// Reconstruct the algorithm this checkpoint was captured from.
    ///
    /// Fails if the serialized state does not deserialize as `A` (wrong
    /// variant, corrupted state).
    pub fn restore_algorithm<A: MwuAlgorithm + Deserialize>(&self) -> Result<A, CheckpointError> {
        let alg = A::from_value(&self.alg_state)
            .map_err(|e| CheckpointError::Parse(format!("algorithm state: {e}")))?;
        if alg.name() != self.algorithm {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint holds algorithm '{}', resume requested '{}'",
                self.algorithm,
                alg.name()
            )));
        }
        Ok(alg)
    }

    /// Reconstruct the master RNG at its checkpointed position.
    pub fn restore_rng(&self) -> SmallRng {
        SmallRng::from_state(self.rng_state)
    }

    /// Verify this checkpoint has this build's format version and belongs
    /// to a run of `config` with an algorithm named `alg_name`.
    pub fn validate_against(
        &self,
        alg_name: &str,
        config: &MwRepairConfig,
    ) -> Result<(), CheckpointError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: self.version,
                expected: CHECKPOINT_VERSION,
            });
        }
        if self.algorithm != alg_name {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint algorithm '{}' != requested '{alg_name}'",
                self.algorithm
            )));
        }
        if self.config != *config {
            return Err(CheckpointError::Incompatible(
                "checkpoint run configuration differs from the resume configuration".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwu_core::{SlateConfig, SlateMwu, StandardConfig, StandardMwu};
    use rand::{Rng, SeedableRng};

    fn sample_checkpoint() -> Checkpoint {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut alg = StandardMwu::new(8, StandardConfig::default());
        for _ in 0..5 {
            let n = alg.plan(&mut rng).len();
            let rewards: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
            alg.update(&rewards, &mut rng);
        }
        Checkpoint::capture(
            &alg,
            &MwRepairConfig::seeded(7),
            5,
            40,
            &rng,
            CostSnapshot {
                fitness_evals: 40,
                simulated_ms: 4000,
                critical_path_ms: 500,
            },
            false,
        )
    }

    /// Serialize and parse, as `session.json` carries a checkpoint.
    fn round_trip(ck: &Checkpoint) -> Checkpoint {
        serde_json::from_str(&serde_json::to_string(ck).unwrap()).unwrap()
    }

    #[test]
    fn json_round_trip_is_identity() {
        let ck = sample_checkpoint();
        assert_eq!(ck, round_trip(&ck));
    }

    #[test]
    fn restored_algorithm_continues_identically() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut alg = SlateMwu::new(16, SlateConfig::default());
        for _ in 0..10 {
            let n = alg.plan(&mut rng).len();
            let rewards: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
            alg.update(&rewards, &mut rng);
        }
        let ck = Checkpoint::capture(
            &alg,
            &MwRepairConfig::seeded(11),
            10,
            0,
            &rng,
            CostSnapshot {
                fitness_evals: 0,
                simulated_ms: 0,
                critical_path_ms: 0,
            },
            false,
        );
        let ck = round_trip(&ck);
        let mut alg2: SlateMwu = ck.restore_algorithm().unwrap();
        let mut rng2 = ck.restore_rng();

        // Both copies must produce identical plans, updates and shares.
        for _ in 0..10 {
            let p1 = alg.plan(&mut rng).to_vec();
            let p2 = alg2.plan(&mut rng2).to_vec();
            assert_eq!(p1, p2);
            let rewards: Vec<f64> = (0..p1.len()).map(|_| rng.gen::<f64>()).collect();
            let rewards2: Vec<f64> = (0..p2.len()).map(|_| rng2.gen::<f64>()).collect();
            assert_eq!(rewards, rewards2);
            alg.update(&rewards, &mut rng);
            alg2.update(&rewards2, &mut rng2);
            assert_eq!(alg.probabilities(), alg2.probabilities());
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut ck = sample_checkpoint();
        ck.version = 999;
        match ck.validate_against("standard", &MwRepairConfig::seeded(7)) {
            Err(CheckpointError::VersionMismatch { found, expected }) => {
                assert_eq!(found, 999);
                assert_eq!(expected, CHECKPOINT_VERSION);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn wrong_algorithm_is_rejected() {
        let ck = sample_checkpoint(); // standard
        assert!(matches!(
            ck.restore_algorithm::<SlateMwu>(),
            Err(CheckpointError::Parse(_) | CheckpointError::Incompatible(_))
        ));
        assert!(ck
            .validate_against("slate", &MwRepairConfig::seeded(7))
            .is_err());
        assert!(ck
            .validate_against("standard", &MwRepairConfig::seeded(8))
            .is_err());
        assert!(ck
            .validate_against("standard", &MwRepairConfig::seeded(7))
            .is_ok());
    }

    #[test]
    fn truncated_file_is_a_parse_error() {
        let json = serde_json::to_string(&sample_checkpoint()).unwrap();
        let truncated = &json[..json.len() / 2];
        assert!(serde_json::from_str::<Checkpoint>(truncated).is_err());
    }
}
