//! Seeded fault injection for the simulated network.
//!
//! The paper's Distributed MWU analysis (§II-C, Table I) assumes a lossless
//! synchronous network, but the deployment target is a large parallel
//! cluster where message loss and agent crashes are routine.
//! This module provides the deterministic adversary used to measure how the
//! algorithms degrade: a [`FaultPlan`] built from a seed and a
//! [`FaultConfig`] of per-event rates.
//!
//! Every decision the plan makes is a *pure function* of
//! `(seed, event labels)` — no internal RNG state is consumed — so fault
//! injection composes with the engine's determinism guarantees: the same
//! seed and the same plan produce byte-identical runs regardless of
//! execution order, retries, or observer configuration. That property is
//! pinned by `tests/tests/faults.rs`.
//!
//! Fault classes:
//!
//! * **Drop** — the message disappears (optionally retried with
//!   exponential backoff, see [`RetryPolicy`]).
//! * **Delay** — delivery is postponed 1..=[`FaultConfig::max_delay`]
//!   rounds (the receiver sees a *stale* observation).
//! * **Duplicate** — the message is delivered twice.
//! * **Reorder** — a mailbox's delivery order is reversed for one round.
//! * **Crash / restart** — an agent goes down for
//!   [`FaultConfig::crash_length`] rounds: it does not execute and
//!   everything addressed to it while down is lost.
//! * **Corrupt** — a loss/reward value is replaced by garbage (NaN or a
//!   huge magnitude); consumed by the algorithm layer, which must clamp.
//!
//! Per-round injected-fault counts are reported as [`FaultRoundStats`]
//! inside [`crate::stats::RoundStats`], so the telemetry pipeline records
//! every injected fault alongside the traffic it perturbed.

use serde::{Deserialize, Serialize};

/// Per-event-class fault probabilities and shape parameters.
///
/// All rates are probabilities in `[0, 1]`, applied independently per
/// message (or per agent-round for crashes). The all-zero default injects
/// nothing, and the fault-free code path is unchanged when no plan is
/// installed.
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
    /// Probability a round's mailbox delivery order is reversed.
    pub reorder_rate: f64,
    /// Per-agent-per-round probability a crash *begins*.
    pub crash_rate: f64,
    /// Rounds an agent stays down after a crash begins.
    pub crash_length: u32,
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
            reorder_rate: 0.0,
            crash_rate: 0.0,
            crash_length: 5,
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

    /// A mixed adversary exercising every message-level fault class at
    /// `rate`, with crashes and corruption at a tenth of it.
    pub fn mixed(rate: f64) -> Self {
        Self {
            drop_rate: rate,
            delay_rate: rate,
            duplicate_rate: rate,
            reorder_rate: rate,
            crash_rate: rate / 10.0,
            corrupt_rate: rate / 10.0,
            ..Self::default()
        }
    }

    /// Are all rates zero (plan injects nothing)?
    pub fn is_quiescent(&self) -> bool {
        self.drop_rate == 0.0
            && self.delay_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.reorder_rate == 0.0
            && self.crash_rate == 0.0
            && self.corrupt_rate == 0.0
    }

    /// # Panics
    /// Panics if any rate lies outside `[0, 1]` or a length field is zero
    /// while its rate is positive.
    fn validate(&self) {
        for (name, r) in [
            ("drop_rate", self.drop_rate),
            ("delay_rate", self.delay_rate),
            ("duplicate_rate", self.duplicate_rate),
            ("reorder_rate", self.reorder_rate),
            ("crash_rate", self.crash_rate),
            ("corrupt_rate", self.corrupt_rate),
        ] {
            assert!((0.0..=1.0).contains(&r), "{name} {r} outside [0, 1]");
        }
        assert!(
            self.delay_rate == 0.0 || self.max_delay >= 1,
            "delay_rate > 0 requires max_delay >= 1"
        );
        assert!(
            self.crash_rate == 0.0 || self.crash_length >= 1,
            "crash_rate > 0 requires crash_length >= 1"
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
const TAG_REORDER: u64 = 0xFA05;
const TAG_CRASH: u64 = 0xFA06;
const TAG_CORRUPT: u64 = 0xFA08;
const TAG_CORRUPT_KIND: u64 = 0xFA09;
const TAG_JITTER: u64 = 0xFA0A;

impl FaultPlan {
    /// Plan over `config`, keyed by `seed`.
    ///
    /// # Panics
    /// Panics on rates outside `[0, 1]` (see [`FaultConfig`]).
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        config.validate();
        Self { seed, config }
    }

    /// The fault-free plan (injects nothing; every query is a constant).
    pub fn quiescent() -> Self {
        Self::new(0, FaultConfig::default())
    }

    /// The configuration in force.
    pub fn config(&self) -> &FaultConfig {
        &self.config
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
    /// `attempt` distinguishes retransmissions of the same logical message
    /// (attempt 0 is the original send), so a retry is re-exposed to an
    /// independent drop draw.
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

    /// Does a crash *begin* for `agent` at `round`?
    pub fn crash_begins(&self, agent: usize, round: usize) -> bool {
        self.bernoulli(
            self.config.crash_rate,
            &[TAG_CRASH, agent as u64, round as u64],
        )
    }

    /// Is `agent` down (crashed, not yet restarted) during `round`?
    ///
    /// An agent is down for [`FaultConfig::crash_length`] rounds starting
    /// at the round its crash begins. Overlapping crash draws extend
    /// naturally (the agent stays down until `crash_length` rounds after
    /// the latest begin).
    pub fn is_crashed(&self, agent: usize, round: usize) -> bool {
        if self.config.crash_rate == 0.0 {
            return false;
        }
        let len = self.config.crash_length.max(1) as usize;
        let earliest = round.saturating_sub(len - 1);
        (earliest..=round).any(|r| self.crash_begins(agent, r))
    }

    /// Is delivery order reversed for messages arriving in `round`?
    pub fn reorders(&self, round: usize) -> bool {
        self.bernoulli(self.config.reorder_rate, &[TAG_REORDER, round as u64])
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

    /// Seeded jitter in `[0, 1)` for retry backoff of `(round, from, to,
    /// nonce, attempt)`.
    pub fn retry_jitter(&self, round: usize, nonce: u64, attempt: u32) -> f64 {
        self.uniform(&[TAG_JITTER, round as u64, nonce, attempt as u64])
    }
}

/// Retransmission policy for dropped messages: exponential backoff with
/// seeded jitter and a capped attempt count.
///
/// Attempt `a` (1-based) of a dropped message is re-sent after
/// `base_delay · 2^(a−1)` rounds, plus 0 or 1 extra round of seeded jitter;
/// after [`RetryPolicy::max_attempts`] failed attempts the message is
/// abandoned and counted in [`FaultRoundStats::retry_exhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retransmissions allowed after the original send (0 disables retry).
    pub max_attempts: u32,
    /// Backoff base, in rounds (attempt `a` waits `base · 2^(a−1)`).
    pub base_delay: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay: 1,
        }
    }
}

impl RetryPolicy {
    /// Rounds to wait before retry attempt `attempt` (1-based), including
    /// the plan's seeded jitter.
    pub fn backoff_rounds(&self, attempt: u32, jitter: f64) -> usize {
        let base = (self.base_delay.max(1) as usize) << (attempt.saturating_sub(1).min(16));
        base + usize::from(jitter >= 0.5)
    }
}

/// Counts of faults injected during one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRoundStats {
    /// Messages dropped this round (after exhausting any retries' sends —
    /// each failed attempt of a retried message counts once).
    pub dropped: u64,
    /// Messages whose delivery was postponed.
    pub delayed: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Mailboxes whose delivery order was reversed.
    pub reordered: u64,
    /// Agents down (crashed) this round.
    pub crashed: u64,
    /// Messages lost because their recipient was down on delivery.
    pub lost_to_crash: u64,
    /// Retransmissions scheduled this round.
    pub retried: u64,
    /// Messages abandoned after the retry cap.
    pub retry_exhausted: u64,
    /// Straggler events (threads slowed) this round.
    pub stragglers: u64,
}

impl FaultRoundStats {
    /// Total injected fault events this round.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.delayed
            + self.duplicated
            + self.reordered
            + self.crashed
            + self.lost_to_crash
            + self.retried
            + self.retry_exhausted
            + self.stragglers
    }

    /// Fold another round's counts into this accumulator.
    pub fn absorb(&mut self, other: &FaultRoundStats) {
        self.dropped += other.dropped;
        self.delayed += other.delayed;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.crashed += other.crashed;
        self.lost_to_crash += other.lost_to_crash;
        self.retried += other.retried;
        self.retry_exhausted += other.retry_exhausted;
        self.stragglers += other.stragglers;
    }
}

/// SplitMix64 finalizer (the same mixer as `network::mwu_seed`, shared here
/// for keyed fault draws; simnet stays dependency-free of `mwu_core`).
#[inline]
fn mix64(state: u64) -> u64 {
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
        let p = FaultPlan::quiescent();
        for r in 0..50 {
            for a in 0..10 {
                assert_eq!(
                    p.message_fate(r, a, (a + 1) % 10, 0, 0),
                    MessageFate::Deliver
                );
                assert!(!p.is_crashed(a, r));
                assert!(p.corrupt(r, a).is_none());
            }
            assert!(!p.reorders(r));
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::new(7, FaultConfig::mixed(0.3));
        let b = FaultPlan::new(7, FaultConfig::mixed(0.3));
        for r in 0..100 {
            assert_eq!(a.message_fate(r, 1, 2, 5, 0), b.message_fate(r, 1, 2, 5, 0));
            assert_eq!(a.is_crashed(3, r), b.is_crashed(3, r));
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
    fn crash_lasts_crash_length_rounds() {
        let cfg = FaultConfig {
            crash_rate: 0.05,
            crash_length: 4,
            ..FaultConfig::default()
        };
        let p = FaultPlan::new(9, cfg);
        // Find a crash begin and verify the agent stays down for the window.
        let mut checked = false;
        'outer: for agent in 0..20 {
            for r in 10..200 {
                if p.crash_begins(agent, r) {
                    for dr in 0..4 {
                        assert!(p.is_crashed(agent, r + dr), "down at +{dr}");
                    }
                    checked = true;
                    break 'outer;
                }
            }
        }
        assert!(checked, "no crash found at rate 0.05 over 20×190 draws");
    }

    #[test]
    fn retry_backoff_is_exponential_and_jittered() {
        let pol = RetryPolicy {
            max_attempts: 4,
            base_delay: 2,
        };
        assert_eq!(pol.backoff_rounds(1, 0.0), 2);
        assert_eq!(pol.backoff_rounds(2, 0.0), 4);
        assert_eq!(pol.backoff_rounds(3, 0.0), 8);
        assert_eq!(pol.backoff_rounds(1, 0.9), 3); // jitter adds a round
    }

    #[test]
    fn attempts_redraw_fate() {
        // A message dropped on attempt 0 must get an independent draw on
        // attempt 1 — otherwise retry could never succeed.
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
    fn round_stats_absorb_totals() {
        let mut acc = FaultRoundStats::default();
        acc.absorb(&FaultRoundStats {
            dropped: 2,
            delayed: 1,
            duplicated: 3,
            ..FaultRoundStats::default()
        });
        acc.absorb(&FaultRoundStats {
            dropped: 1,
            stragglers: 4,
            ..FaultRoundStats::default()
        });
        assert_eq!(acc.dropped, 3);
        assert_eq!(acc.total(), 11);
    }

    #[test]
    #[should_panic]
    fn out_of_range_rate_rejected() {
        let _ = FaultPlan::new(0, FaultConfig::drops(1.5));
    }
}
