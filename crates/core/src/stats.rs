//! Streaming statistics for experiment replication.
//!
//! Tables II–IV of the paper report "mean (std)" over 100 replicates of each
//! (algorithm, scenario) cell. [`RunningStats`] accumulates those summaries
//! in one pass (Welford's algorithm, numerically stable), and [`Summary`] is
//! the serializable snapshot the experiment harness writes to CSV.
//! [`Histogram`] is the mergeable latency histogram behind the
//! [`crate::prof`] registry's per-phase p50/p99.

use serde::{Deserialize, Serialize};

/// One-pass mean / variance / min / max accumulator (Welford).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance with Bessel's correction (0.0 with < 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (NaN-free input assumed; +inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Snapshot as a serializable [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.n,
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: if self.n == 0 { 0.0 } else { self.min },
            max: if self.n == 0 { 0.0 } else { self.max },
        }
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

/// Immutable snapshot of a [`RunningStats`], as written to result CSVs and
/// printed into table cells.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of replicates aggregated.
    pub count: u64,
    /// Mean over replicates.
    pub mean: f64,
    /// Sample standard deviation over replicates.
    pub std_dev: f64,
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
}

impl Summary {
    /// Format as the paper's "mean (std)" cell with the given precision.
    pub fn cell(&self, precision: usize) -> String {
        format!("{:.p$} ({:.p$})", self.mean, self.std_dev, p = precision)
    }
}

/// Number of log₂ buckets in a [`Histogram`]: one per binary exponent in
/// `[-32, 31]`, so positive magnitudes from `2⁻³²` to `2³²` land in distinct
/// buckets and everything outside clamps to the edge buckets.
pub const HISTOGRAM_BUCKETS: usize = 64;
const HISTOGRAM_MIN_EXP: i32 = -32;

/// Streaming log-bucketed histogram over non-negative observations, with
/// exact moments tracked by an embedded [`RunningStats`].
///
/// Bucket boundaries are powers of two, fixed at construction, so two
/// histograms built from different data interleavings have **identical**
/// bucket counts — merge is associative and order-insensitive on counts
/// (the embedded moments merge in floating point, so they agree to
/// round-off, not bit-exactly).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// counts[i] holds observations with floor(log₂ x) = i + HISTOGRAM_MIN_EXP.
    counts: Vec<u64>,
    /// Observations ≤ 0 (zero rewards, idle rounds) — kept out of the log
    /// buckets but in the moments.
    non_positive: u64,
    stats: RunningStats,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; HISTOGRAM_BUCKETS],
            non_positive: 0,
            stats: RunningStats::new(),
        }
    }

    fn bucket_of(x: f64) -> Option<usize> {
        if x <= 0.0 || !x.is_finite() {
            return None;
        }
        let exp = x.log2().floor() as i64 - HISTOGRAM_MIN_EXP as i64;
        Some(exp.clamp(0, HISTOGRAM_BUCKETS as i64 - 1) as usize)
    }

    /// Record one observation. Non-finite values are ignored.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.stats.push(x);
        match Self::bucket_of(x) {
            Some(i) => self.counts[i] += 1,
            None => self.non_positive += 1,
        }
    }

    /// Fold another histogram into this one (parallel reduction). Bucket
    /// counts add exactly; moments merge via [`RunningStats::merge`].
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.non_positive += other.non_positive;
        self.stats.merge(&other.stats);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Exact moments of everything recorded.
    pub fn stats(&self) -> &RunningStats {
        &self.stats
    }

    /// Estimated `q`-quantile (`q` clamped to `[0, 1]`): the upper edge of
    /// the bucket holding the rank-`⌈q·n⌉` observation, clamped into the
    /// observed `[min, max]`. Bucket edges are fixed, so the estimate is
    /// monotone non-decreasing in `q`. Returns 0.0 when empty — callers that
    /// must distinguish "no data" from a real zero should use
    /// [`Histogram::try_quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        self.try_quantile(q).unwrap_or(0.0)
    }

    /// [`Histogram::quantile`] that reports emptiness instead of conflating
    /// it with an observed zero: `None` when no observations were recorded.
    pub fn try_quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let clamp = |v: f64| v.clamp(self.stats.min(), self.stats.max());
        let mut cum = self.non_positive;
        if cum >= rank {
            // Rank falls among the non-positive observations.
            return Some(clamp(0.0));
        }
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let upper_exp = i as i32 + HISTOGRAM_MIN_EXP + 1;
                return Some(clamp((upper_exp as f64).exp2()));
            }
        }
        Some(self.stats.max())
    }

    /// Raw bucket counts (index `i` covers `[2^(i-32), 2^(i-31))`), for
    /// tests and reporting.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations ≤ 0.
    pub fn non_positive_count(&self) -> u64 {
        self.non_positive
    }
}

/// Mean of a slice (0.0 when empty). Convenience for small one-off uses.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation of a slice (0.0 with < 2 elements).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_safe() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn single_observation() {
        let s: RunningStats = [5.0].into_iter().collect();
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn matches_textbook_formulas() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s: RunningStats = xs.into_iter().collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let seq: RunningStats = xs.iter().copied().collect();
        let mut a: RunningStats = xs[..300].iter().copied().collect();
        let b: RunningStats = xs[300..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.variance() - seq.variance()).abs() < 1e-6);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: RunningStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);

        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn summary_cell_formatting() {
        let s: RunningStats = [1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(s.summary().cell(1), "2.0 (1.0)");
    }

    #[test]
    fn histogram_counts_and_moments() {
        let mut h = Histogram::new();
        for x in [0.5, 1.0, 2.0, 4.0, 0.0, -1.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.non_positive_count(), 2);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 4);
        assert!((h.stats().mean() - 6.5 / 6.0).abs() < 1e-12);
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn histogram_merge_matches_sequential() {
        let xs: Vec<f64> = (0..200).map(|i| (i as f64 * 0.37).abs() + 0.01).collect();
        let mut seq = Histogram::new();
        for &x in &xs {
            seq.record(x);
        }
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &x in &xs[..77] {
            a.record(x);
        }
        for &x in &xs[77..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.bucket_counts(), seq.bucket_counts());
        assert_eq!(a.count(), seq.count());
        assert!((a.stats().mean() - seq.stats().mean()).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = h.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            assert!((1.0..=100.0).contains(&v));
            prev = v;
        }
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn empty_histogram_is_distinguishable_from_zero() {
        let empty = Histogram::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.try_quantile(0.5), None);

        let mut zeros = Histogram::new();
        zeros.record(0.0);
        assert_eq!(zeros.count(), 1);
        assert_eq!(zeros.try_quantile(0.5), Some(0.0));
        assert_eq!(zeros.quantile(0.5), 0.0);
    }

    #[test]
    fn slice_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((std_dev(&[1.0, 3.0]) - (2.0f64).sqrt()).abs() < 1e-12);
    }
}
