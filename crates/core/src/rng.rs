//! Deterministic randomness utilities.
//!
//! Every experiment in the paper is run with 100 unique random seeds
//! (§IV-B). To make each (experiment, scenario, replicate) triple exactly
//! reproducible regardless of execution order — replicates run in parallel
//! under rayon — all randomness in this workspace is derived from explicit
//! seeds through the helpers here rather than from a shared global stream.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 step. A small, high-quality 64-bit mixer used to derive
/// independent sub-seeds from a base seed plus arbitrary stream labels.
///
/// This is the canonical seeding finalizer recommended by the xoshiro
/// authors; successive outputs are statistically independent enough to seed
/// separate generators.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix any number of 64-bit labels into a single derived seed.
///
/// `mix(&[experiment, scenario, replicate])` yields a seed that differs in
/// ~50 % of bits when any single label changes.
pub fn mix(labels: &[u64]) -> u64 {
    MixPrefix::new(labels).finish()
}

/// A [`mix`] stopped after a prefix of its labels.
///
/// `mix` folds its labels left to right, one [`splitmix64`] round each,
/// then finishes with one more round. Draws that share leading labels
/// (a world seed and a tag, say) can fold those once and pay only for the
/// rest: `MixPrefix::new(&[a, b]).then(c).finish() == mix(&[a, b, c])`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixPrefix(u64);

impl MixPrefix {
    /// The state after folding `labels`.
    pub fn new(labels: &[u64]) -> Self {
        labels
            .iter()
            .fold(Self(0x51_7C_C1_B7_27_22_0A_95), |acc, &l| acc.then(l))
    }

    /// Fold one more label (one `splitmix64` round).
    #[inline]
    pub fn then(self, label: u64) -> Self {
        Self(splitmix64(self.0 ^ label.rotate_left(17)))
    }

    /// The mixed value of the labels folded so far (one `splitmix64` round).
    #[inline]
    pub fn finish(self) -> u64 {
        splitmix64(self.0)
    }
}

/// The Bernoulli(p) verdict of [`keyed_bernoulli`] as an integer compare.
///
/// A keyed draw maps a hash `h` to `u = (h >> 11) · 2⁻⁵³`, and the draw hits
/// when `u < p`. Both sides are exact: `h >> 11` has 53 bits, so `u` is
/// exactly `k / 2⁵³` for the integer `k = h >> 11`, and scaling `p` by 2⁵³
/// rounds nothing. For an integer `k`, `k < p·2⁵³` holds exactly when
/// `k < ⌈p·2⁵³⌉`. So the threshold `⌈p·2⁵³⌉` gives the same verdict as the
/// float compare for every `p` and `h`. Out-of-range `p` saturates the same
/// way in release builds (debug builds assert `0 ≤ p ≤ 1`): a negative or
/// NaN `p` never hits, `p ≥ 1` always does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BernoulliThreshold(u64);

impl BernoulliThreshold {
    /// The threshold for probability `p`.
    pub fn new(p: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&p));
        Self((p * (1u64 << 53) as f64).ceil() as u64)
    }

    /// Does the draw keyed by hash `h` hit?
    #[inline]
    pub fn hit(self, h: u64) -> bool {
        (h >> 11) < self.0
    }
}

/// Construct a [`SmallRng`] from a base seed and a list of stream labels.
pub fn rng_for(seed: u64, labels: &[u64]) -> SmallRng {
    let mut all = Vec::with_capacity(labels.len() + 1);
    all.push(seed);
    all.extend_from_slice(labels);
    SmallRng::seed_from_u64(mix(&all))
}

/// Deterministic Bernoulli draw keyed by arbitrary labels.
///
/// Used by the APR substrate to make a mutation's safety and a mutation
/// pair's conflict a *fixed property of the scenario* (the same mutation is
/// always safe or always unsafe for a given world seed), while still being
/// marginally Bernoulli(p) across mutations. The draw consumes no RNG state.
pub fn keyed_bernoulli(p: f64, labels: &[u64]) -> bool {
    BernoulliThreshold::new(p).hit(mix(labels))
}

/// Deterministic uniform draw in `[0, 1)` keyed by labels (no RNG state).
pub fn keyed_uniform(labels: &[u64]) -> f64 {
    (mix(labels) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Oracle: the label loop `mix` ran before [`MixPrefix`].
    fn mix_loop(labels: &[u64]) -> u64 {
        let mut acc = 0x51_7C_C1_B7_27_22_0A_95u64;
        for &l in labels {
            acc = splitmix64(acc ^ l.rotate_left(17));
        }
        splitmix64(acc)
    }

    /// Oracle: the float compare `keyed_bernoulli` ran before
    /// [`BernoulliThreshold`], on a given hash.
    fn float_hit(p: f64, h: u64) -> bool {
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Probabilities on and next to the 2⁻⁵³ grid, where a rounding slip
    /// in the threshold would show: 0, 1, k/2⁵³ and one ulp either side.
    fn grid_edges(k: u64) -> Vec<f64> {
        let p = k as f64 / (1u64 << 53) as f64;
        let mut out = vec![0.0, 1.0, p];
        if p > 0.0 {
            out.push(f64::from_bits(p.to_bits() - 1));
        }
        if p < 1.0 {
            out.push(f64::from_bits(p.to_bits() + 1));
        }
        out
    }

    proptest! {
        #[test]
        fn mix_prefix_matches_the_label_loop_at_every_split(
            labels in prop::collection::vec(any::<u64>(), 0..7),
        ) {
            let whole = mix_loop(&labels);
            prop_assert_eq!(mix(&labels), whole);
            for cut in 0..=labels.len() {
                let prefix = MixPrefix::new(&labels[..cut]);
                let folded = labels[cut..].iter().fold(prefix, |acc, &l| acc.then(l));
                prop_assert_eq!(folded.finish(), whole);
            }
        }

        #[test]
        fn threshold_matches_the_float_compare(
            p in 0.0f64..=1.0,
            k in 0u64..(1u64 << 53),
            low in 0u64..(1u64 << 11),
            labels in prop::collection::vec(any::<u64>(), 1..5),
        ) {
            // Hashes at, just below and just above the grid point of p,
            // plus one keyed hash.
            let at = (p * (1u64 << 53) as f64) as u64;
            let mut hashes = vec![mix(&labels), (k << 11) | low];
            for kk in [at.saturating_sub(1), at, at + 1] {
                hashes.push((kk.min((1u64 << 53) - 1) << 11) | low);
            }
            for q in [p].into_iter().chain(grid_edges(k)).chain(grid_edges(at)) {
                let t = BernoulliThreshold::new(q);
                for &h in &hashes {
                    prop_assert_eq!(t.hit(h), float_hit(q, h), "p {} h {:#x}", q, h);
                }
                prop_assert_eq!(keyed_bernoulli(q, &labels), float_hit(q, mix(&labels)));
            }
        }
    }

    #[test]
    fn splitmix_is_deterministic() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
    }

    #[test]
    fn mix_depends_on_every_label() {
        let base = mix(&[1, 2, 3]);
        assert_ne!(base, mix(&[9, 2, 3]));
        assert_ne!(base, mix(&[1, 9, 3]));
        assert_ne!(base, mix(&[1, 2, 9]));
        assert_eq!(base, mix(&[1, 2, 3]));
    }

    #[test]
    fn mix_is_order_sensitive() {
        assert_ne!(mix(&[1, 2]), mix(&[2, 1]));
    }

    #[test]
    fn keyed_bernoulli_edge_probabilities() {
        for i in 0..100u64 {
            assert!(!keyed_bernoulli(0.0, &[i]));
            assert!(keyed_bernoulli(1.0, &[i]));
        }
    }

    #[test]
    fn keyed_bernoulli_marginal_rate_close_to_p() {
        let p = 0.3;
        let hits = (0..20_000u64)
            .filter(|&i| keyed_bernoulli(p, &[i, 77]))
            .count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - p).abs() < 0.02, "rate {rate} too far from {p}");
    }

    #[test]
    fn keyed_uniform_in_unit_interval_and_spread() {
        let mut lo = 0usize;
        for i in 0..10_000u64 {
            let u = keyed_uniform(&[i]);
            assert!((0.0..1.0).contains(&u));
            if u < 0.5 {
                lo += 1;
            }
        }
        assert!((lo as f64 / 10_000.0 - 0.5).abs() < 0.03);
    }

    #[test]
    fn rng_for_streams_are_reproducible_and_distinct() {
        use rand::Rng;
        let mut a1 = rng_for(7, &[1]);
        let mut a2 = rng_for(7, &[1]);
        let mut b = rng_for(7, &[2]);
        let xa1: u64 = a1.gen();
        let xa2: u64 = a2.gen();
        let xb: u64 = b.gen();
        assert_eq!(xa1, xa2);
        assert_ne!(xa1, xb);
    }
}
