//! Crash-safe checkpoint / resume for the MWRepair online phase.
//!
//! A [`Checkpoint`] captures everything the driver loop in
//! [`crate::driver::repair_resumable`] needs to continue a killed run
//! *byte-identically*: the full MWU algorithm state (weights / population
//! counts / convergence tracker, via its serde impl), the master RNG state,
//! the absolute iteration and probe counters, and the cost-ledger snapshot.
//! Because per-agent probe RNGs are keyed by `(seed, iteration, agent)` and
//! never carried across iterations, the master RNG state plus the iteration
//! number fully determine every random draw the resumed run will make.
//!
//! ## File format
//!
//! One JSON object (see [`Checkpoint`] for fields), written atomically
//! through a [`Vfs`]: the bytes go to `<path>.tmp` which is fsynced and
//! then renamed over `<path>`, so a crash mid-write can never leave a
//! truncated checkpoint — readers observe either the previous complete
//! file or the new one. The leading `version` field gates compatibility:
//! [`Checkpoint::load`] rejects files whose version differs from
//! [`CHECKPOINT_VERSION`] rather than misinterpreting them.
//!
//! Floating-point state round-trips bit-exactly: the vendored serde JSON
//! codec prints `f64` via shortest-round-trip formatting and parses with
//! `str::parse`, so `weights -> JSON -> weights` is the identity.

use crate::driver::MwRepairConfig;
use crate::vfs::{tmp_path, Vfs};
use apr_sim::ledger::CostSnapshot;
use mwu_core::MwuAlgorithm;
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::path::Path;

/// Current on-disk checkpoint format version. Bump on any incompatible
/// change to [`Checkpoint`] or to the serialized algorithm state.
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

/// Why a checkpoint could not be loaded or applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (open / read / write / rename).
    Io(std::io::Error),
    /// File exists but is not a valid checkpoint document.
    Parse(String),
    /// File is a checkpoint, but from an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
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
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
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

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

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
    /// variant, corrupted file).
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

    /// Verify this checkpoint belongs to a run of `config` with an
    /// algorithm named `alg_name`.
    pub fn validate_against(
        &self,
        alg_name: &str,
        config: &MwRepairConfig,
    ) -> Result<(), CheckpointError> {
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

    /// Serialize to the canonical single-line JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialization is infallible")
    }

    /// Parse and version-check a checkpoint document.
    pub fn from_json(s: &str) -> Result<Self, CheckpointError> {
        // Version-gate before full decoding so a future-format file yields
        // a clear error instead of a field-level parse failure.
        let value =
            serde_json::from_str_value(s).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        let version = u32::from_value(value.field("version"))
            .map_err(|e| CheckpointError::Parse(format!("version field: {e}")))?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: version,
                expected: CHECKPOINT_VERSION,
            });
        }
        Checkpoint::from_value(&value).map_err(|e| CheckpointError::Parse(e.to_string()))
    }

    /// Write atomically and durably through `vfs` ([`Vfs::write_atomic`]:
    /// `<path>.tmp`, fsync, rename over `path`, fsync the parent
    /// directory). A crash at any point leaves either the old complete
    /// file or the new one, never a torn write — and once this returns,
    /// the rename itself survives a crash.
    pub fn save_atomic(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), CheckpointError> {
        let _span = mwu_core::prof::span(mwu_core::prof::Phase::CheckpointWrite);
        let mut doc = self.to_json();
        doc.push('\n');
        vfs.write_atomic(path, doc.as_bytes())?;
        Ok(())
    }

    /// Load and version-check a checkpoint file.
    pub fn load(vfs: &dyn Vfs, path: &Path) -> Result<Self, CheckpointError> {
        let bytes = vfs.read(path)?;
        let text = String::from_utf8(bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Checkpoint::from_json(&text)
    }

    /// Startup sweep: remove an orphaned `<path>.tmp` left by a crash
    /// between [`Checkpoint::save_atomic`]'s tmp write and its rename.
    /// The tmp file is by definition unvouched-for (possibly torn), so it
    /// must never shadow — or be mistaken for — the real checkpoint.
    /// Returns whether an orphan was removed.
    pub fn sweep_orphan_tmp(vfs: &dyn Vfs, path: &Path) -> Result<bool, CheckpointError> {
        let tmp = tmp_path(path);
        match vfs.remove_file(&tmp) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(CheckpointError::Io(e)),
        }
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

    #[test]
    fn json_round_trip_is_identity() {
        let ck = sample_checkpoint();
        let back = Checkpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(ck, back);
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
        let ck = Checkpoint::from_json(&ck.to_json()).unwrap();
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
        let ck = sample_checkpoint();
        let json = ck.to_json().replace("\"version\":1", "\"version\":999");
        match Checkpoint::from_json(&json) {
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
        let ck = sample_checkpoint();
        let json = ck.to_json();
        let truncated = &json[..json.len() / 2];
        assert!(matches!(
            Checkpoint::from_json(truncated),
            Err(CheckpointError::Parse(_))
        ));
    }
}
