//! Seeded fault injection for the simulated network.
//!
//! The paper's Distributed MWU analysis (§II-C, Table I) assumes a lossless
//! synchronous network, but the deployment target is a large parallel
//! cluster where message loss is routine. This module provides the
//! deterministic adversary the `chaos` binary uses to measure how the
//! algorithms degrade: a [`FaultPlan`] built from a seed and a
//! [`FaultConfig`] of per-event rates. `chaos` asks the plan for each
//! observation's fate and applies it itself; [`crate::Network`] delivers
//! every message.
//!
//! Every decision the plan makes is a *pure function* of
//! `(seed, event labels)` — no internal RNG state is consumed — so the same
//! seed and the same plan give the same decisions in any query order, and
//! the same `chaos.csv` (pinned against `results/chaos.csv` by
//! `crates/exp/tests/binaries.rs`).
//!
//! Fault classes:
//!
//! * **Drop** — the observation is lost.
//! * **Delay** — it arrives 1..=[`FaultConfig::max_delay`] rounds late
//!   (the receiver sees a *stale* observation).
//! * **Duplicate** — it arrives twice.
//! * **Corrupt** — a loss/reward value is replaced by garbage (NaN or a
//!   huge magnitude); consumed by the algorithm layer, which must clamp.

use serde::{Deserialize, Serialize};

/// Per-event-class fault probabilities and shape parameters.
///
/// All rates are probabilities in `[0, 1]`, applied independently per
/// message (per agent-round for corruption). The all-zero default injects
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability a message is dropped.
    pub drop_rate: f64,
    /// Probability a (non-dropped) message is delayed.
    pub delay_rate: f64,
    /// Maximum delay in rounds (actual delay uniform in `1..=max_delay`).
    pub max_delay: u32,
    /// Probability a (delivered) message is duplicated.
    pub duplicate_rate: f64,
    /// Probability a loss/reward observation is corrupted (NaN or huge).
    pub corrupt_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            drop_rate: 0.0,
            delay_rate: 0.0,
            max_delay: 3,
            duplicate_rate: 0.0,
            corrupt_rate: 0.0,
        }
    }
}

impl FaultConfig {
    /// A drop-only adversary (the headline knob of the chaos sweeps).
    pub fn drops(rate: f64) -> Self {
        Self {
            drop_rate: rate,
            ..Self::default()
        }
    }

    /// A mixed adversary: drop, delay and duplicate at `rate`, corruption
    /// at a tenth of it.
    pub fn mixed(rate: f64) -> Self {
        Self {
            drop_rate: rate,
            delay_rate: rate,
            duplicate_rate: rate,
            corrupt_rate: rate / 10.0,
            ..Self::default()
        }
    }

    /// # Panics
    /// Panics if any rate lies outside `[0, 1]`, or if `delay_rate` is
    /// positive while `max_delay` is zero.
    fn validate(&self) {
        for (name, r) in [
            ("drop_rate", self.drop_rate),
            ("delay_rate", self.delay_rate),
            ("duplicate_rate", self.duplicate_rate),
            ("corrupt_rate", self.corrupt_rate),
        ] {
            assert!((0.0..=1.0).contains(&r), "{name} {r} outside [0, 1]");
        }
        assert!(
            self.delay_rate == 0.0 || self.max_delay >= 1,
            "delay_rate > 0 requires max_delay >= 1"
        );
    }
}

/// What the plan decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Deliver normally next round.
    Deliver,
    /// The message is lost.
    Drop,
    /// Deliver after this many *extra* rounds (≥ 1).
    Delay(u32),
    /// Deliver two copies next round.
    Duplicate,
}

/// A deterministic fault schedule: seed + rates, no mutable state.
///
/// All queries are pure functions of the seed and the event's labels, so a
/// plan can be freely copied, shared across threads, and re-queried without
/// perturbing the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
}

/// Label-space tags keeping the independent decision streams disjoint.
const TAG_DROP: u64 = 0xFA01;
const TAG_DELAY: u64 = 0xFA02;
const TAG_DELAY_LEN: u64 = 0xFA03;
const TAG_DUP: u64 = 0xFA04;
const TAG_CORRUPT: u64 = 0xFA08;
const TAG_CORRUPT_KIND: u64 = 0xFA09;

impl FaultPlan {
    /// Plan over `config`, keyed by `seed`.
    ///
    /// # Panics
    /// Panics on rates outside `[0, 1]` (see [`FaultConfig`]).
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        config.validate();
        Self { seed, config }
    }

    /// The seed in force.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Keyed uniform in `[0, 1)` (53-bit), consuming no state.
    fn uniform(&self, labels: &[u64]) -> f64 {
        (self.hash(labels) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn bernoulli(&self, p: f64, labels: &[u64]) -> bool {
        p > 0.0 && self.uniform(labels) < p
    }

    fn hash(&self, labels: &[u64]) -> u64 {
        let mut acc = mix64(self.seed ^ 0xC2B2_AE3D_27D4_EB4F);
        for &l in labels {
            acc = mix64(acc ^ l.rotate_left(17));
        }
        mix64(acc)
    }

    /// The fate of message number `nonce` sent `from → to` in `round`.
    /// `attempt` is one more label of the draw: each value gives an
    /// independent fate for the same message (`chaos` passes 1).
    pub fn message_fate(
        &self,
        round: usize,
        from: usize,
        to: usize,
        nonce: u64,
        attempt: u32,
    ) -> MessageFate {
        let labels = [round as u64, from as u64, to as u64, nonce, attempt as u64];
        if self.bernoulli(
            self.config.drop_rate,
            &[
                TAG_DROP, labels[0], labels[1], labels[2], labels[3], labels[4],
            ],
        ) {
            return MessageFate::Drop;
        }
        if self.bernoulli(
            self.config.delay_rate,
            &[
                TAG_DELAY, labels[0], labels[1], labels[2], labels[3], labels[4],
            ],
        ) {
            let span = self.config.max_delay.max(1) as u64;
            let extra = 1
                + (self.hash(&[TAG_DELAY_LEN, labels[0], labels[1], labels[2], labels[3]]) % span)
                    as u32;
            return MessageFate::Delay(extra);
        }
        if self.bernoulli(
            self.config.duplicate_rate,
            &[
                TAG_DUP, labels[0], labels[1], labels[2], labels[3], labels[4],
            ],
        ) {
            return MessageFate::Duplicate;
        }
        MessageFate::Deliver
    }

    /// If the observation of `agent` in `round` is corrupted, the garbage
    /// value that replaces it (alternating NaN and a huge magnitude, the
    /// two failure shapes a clamping guard must absorb).
    pub fn corrupt(&self, round: usize, agent: usize) -> Option<f64> {
        if self.bernoulli(
            self.config.corrupt_rate,
            &[TAG_CORRUPT, round as u64, agent as u64],
        ) {
            let kind = self.hash(&[TAG_CORRUPT_KIND, round as u64, agent as u64]);
            Some(match kind % 3 {
                0 => f64::NAN,
                1 => 1e12,
                _ => -1e12,
            })
        } else {
            None
        }
    }
}

/// SplitMix64: one golden-ratio increment, then the finalizer. It keys the
/// fault draws and seeds each network agent's RNG; simnet stays
/// dependency-free of `mwu_core`, whose `rng::splitmix64` is the same
/// function.
#[inline]
pub(crate) fn mix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_plan_injects_nothing() {
        let p = FaultPlan::new(0, FaultConfig::default());
        for r in 0..50 {
            for a in 0..10 {
                assert_eq!(
                    p.message_fate(r, a, (a + 1) % 10, 0, 0),
                    MessageFate::Deliver
                );
                assert!(p.corrupt(r, a).is_none());
            }
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::new(7, FaultConfig::mixed(0.3));
        let b = FaultPlan::new(7, FaultConfig::mixed(0.3));
        for r in 0..100 {
            assert_eq!(a.message_fate(r, 1, 2, 5, 0), b.message_fate(r, 1, 2, 5, 0));
            assert_eq!(
                a.corrupt(r, 3).map(f64::to_bits),
                b.corrupt(r, 3).map(f64::to_bits)
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1, FaultConfig::drops(0.5));
        let b = FaultPlan::new(2, FaultConfig::drops(0.5));
        let fates_a: Vec<_> = (0..200).map(|n| a.message_fate(0, 0, 1, n, 0)).collect();
        let fates_b: Vec<_> = (0..200).map(|n| b.message_fate(0, 0, 1, n, 0)).collect();
        assert_ne!(fates_a, fates_b);
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let p = FaultPlan::new(11, FaultConfig::drops(0.25));
        let drops = (0..20_000u64)
            .filter(|&n| p.message_fate(0, 0, 1, n, 0) == MessageFate::Drop)
            .count();
        let rate = drops as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn delays_bounded_by_max_delay() {
        let cfg = FaultConfig {
            delay_rate: 1.0,
            max_delay: 4,
            ..FaultConfig::default()
        };
        let p = FaultPlan::new(3, cfg);
        for n in 0..500 {
            match p.message_fate(1, 0, 1, n, 0) {
                MessageFate::Delay(d) => assert!((1..=4).contains(&d), "delay {d}"),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn attempts_redraw_fate() {
        // The attempt label keys an independent draw for the same message.
        let p = FaultPlan::new(5, FaultConfig::drops(0.5));
        let differs =
            (0..200u64).any(|n| p.message_fate(0, 0, 1, n, 0) != p.message_fate(0, 0, 1, n, 1));
        assert!(differs);
    }

    #[test]
    fn corrupt_values_are_nan_or_huge() {
        let cfg = FaultConfig {
            corrupt_rate: 1.0,
            ..FaultConfig::default()
        };
        let p = FaultPlan::new(1, cfg);
        for a in 0..100 {
            let v = p.corrupt(0, a).expect("corrupt_rate 1.0");
            assert!(v.is_nan() || v.abs() >= 1e12);
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_rate_rejected() {
        let _ = FaultPlan::new(0, FaultConfig::drops(1.5));
    }
}
