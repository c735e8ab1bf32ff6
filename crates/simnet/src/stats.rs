//! Per-round and cumulative network statistics.

use serde::{Deserialize, Serialize};

/// Communication statistics for one round of a [`crate::Network`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: usize,
    /// Messages sent this round.
    pub messages: u64,
    /// Total payload bytes sent this round.
    pub bytes: u64,
    /// Maximum in-degree: the most messages any single agent received —
    /// the paper's congestion measure (§II-C).
    pub max_in_degree: usize,
    /// Maximum out-degree: the most messages any single agent sent.
    pub max_out_degree: usize,
}

/// Cumulative statistics over a whole [`crate::Network`] execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NetStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Total messages.
    pub messages: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Peak per-round congestion (max in-degree over all rounds).
    pub peak_congestion: usize,
    /// Sum of per-round max in-degrees (divide by `rounds` for the mean).
    pub total_congestion: u64,
}

impl NetStats {
    /// Fold one round's statistics into the cumulative totals.
    pub fn absorb(&mut self, r: &RoundStats) {
        self.rounds += 1;
        self.messages += r.messages;
        self.bytes += r.bytes;
        self.total_congestion += r.max_in_degree as u64;
        if r.max_in_degree > self.peak_congestion {
            self.peak_congestion = r.max_in_degree;
        }
    }

    /// Mean per-round congestion.
    pub fn mean_congestion(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.total_congestion as f64 / self.rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut s = NetStats::default();
        s.absorb(&RoundStats {
            round: 0,
            messages: 10,
            bytes: 100,
            max_in_degree: 3,
            max_out_degree: 2,
        });
        s.absorb(&RoundStats {
            round: 1,
            messages: 5,
            bytes: 50,
            max_in_degree: 7,
            max_out_degree: 1,
        });
        assert_eq!(s.rounds, 2);
        assert_eq!(s.messages, 15);
        assert_eq!(s.bytes, 150);
        assert_eq!(s.peak_congestion, 7);
        assert!((s.mean_congestion() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_mean_is_zero() {
        assert_eq!(NetStats::default().mean_congestion(), 0.0);
    }
}
