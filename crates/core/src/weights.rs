//! Normalized weight vectors over the probability simplex.
//!
//! The explicit-memory MWU variants (Standard, Slate) maintain a weight
//! `w_i > 0` per option. [`WeightVector`] stores the weights *normalized*
//! (summing to 1) and renormalizes after every multiplicative update, which
//! keeps the representation immune to the underflow that raw multiplicative
//! weights suffer after a few thousand iterations.
//!
//! For the Slate variant the vector must additionally be *capped*: no
//! coordinate may exceed `1/s` (where `s` is the slate size) so that the
//! scaled vector `q = s·p` lies inside the convex hull of the slate
//! indicator vectors (§II-C of the paper).
//! [`WeightVector::mix_capped_into`] is that step, fused with Slate's
//! exploration mix: one water-filling pass into caller-owned scratch.
//!
//! ## Allocation discipline
//!
//! The round paths allocate nothing: [`WeightVector::mix_capped_into`] and
//! [`WeightVector::probabilities_into`] write into caller-owned scratch,
//! and [`WeightVector::sample_mixed`] draws from the γ-mixture without
//! materializing it. See `docs/PERFORMANCE.md` for the ownership rules.

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Error, Serialize, Value};

/// A probability vector over `k` options with multiplicative-update support.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WeightVector {
    p: Vec<f64>,
}

impl WeightVector {
    /// Uniform distribution over `k` options (the MWU initialization
    /// `w_i = 1` of Fig. 1, normalized).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn uniform(k: usize) -> Self {
        assert!(k > 0, "weight vector needs at least one option");
        Self {
            p: vec![1.0 / k as f64; k],
        }
    }

    /// Reset to the uniform distribution in place, keeping the allocation.
    /// Bit-identical to a fresh [`Self::uniform`] of the same length.
    pub fn reset_uniform(&mut self) {
        let k = self.p.len();
        self.p.fill(1.0 / k as f64);
    }

    /// Build from arbitrary non-negative weights (normalized on entry).
    ///
    /// # Panics
    /// Panics if the weights are empty, contain a negative or non-finite
    /// entry, or sum to zero.
    pub fn from_weights(weights: &[f64]) -> Self {
        assert!(!weights.is_empty());
        let sum: f64 = weights.iter().sum();
        assert!(
            sum.is_finite() && sum > 0.0,
            "weights must have a positive finite sum"
        );
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "weights must be non-negative");
        }
        Self {
            p: weights.iter().map(|w| w / sum).collect(),
        }
    }

    /// Number of options.
    pub fn len(&self) -> usize {
        self.p.len()
    }

    /// True when the vector has no options (never constructible; kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.p.is_empty()
    }

    /// Probability of option `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.p[i]
    }

    /// The normalized probabilities.
    pub fn probabilities(&self) -> &[f64] {
        &self.p
    }

    /// Copy the probabilities into caller scratch (cleared first). The
    /// allocation-free counterpart of `probabilities().to_vec()`.
    pub fn probabilities_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.p);
    }

    /// Index of the highest-probability option (ties: lowest index).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for i in 1..self.p.len() {
            if self.p[i] > self.p[best] {
                best = i;
            }
        }
        best
    }

    /// Probability of the argmax option.
    pub fn max_probability(&self) -> f64 {
        self.p[self.argmax()]
    }

    /// Shannon entropy in nats. Uniform → ln k; a point mass → 0.
    pub fn entropy(&self) -> f64 {
        self.p
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| -p * p.ln())
            .sum()
    }

    /// Multiplicative update: `w_i ← w_i · factor(i)`, then renormalize.
    ///
    /// `factor` must return a finite non-negative multiplier. A floor of
    /// `1e-300` per coordinate (before normalization) prevents the vector
    /// from collapsing to all-zero under extreme penalties.
    pub fn scale_all<F: FnMut(usize) -> f64>(&mut self, mut factor: F) {
        for (i, p) in self.p.iter_mut().enumerate() {
            let f = factor(i);
            debug_assert!(f.is_finite() && f >= 0.0, "bad multiplier {f}");
            *p = (*p * f).max(1e-300);
        }
        self.renormalize();
    }

    /// Multiplicative update of a single coordinate, then renormalize.
    pub fn scale_one(&mut self, i: usize, factor: f64) {
        debug_assert!(factor.is_finite() && factor >= 0.0);
        self.p[i] = (self.p[i] * factor).max(1e-300);
        self.renormalize();
    }

    /// Batch multiplicative update: scale each `(index, factor)` pair, then
    /// renormalize once. Equivalent to a sequence of [`Self::scale_one`]
    /// calls but with a single O(k) normalization pass — the hot path for
    /// Slate, which updates `s` sampled coordinates per round.
    pub fn scale_many(&mut self, updates: &[(usize, f64)]) {
        for &(i, f) in updates {
            debug_assert!(f.is_finite() && f >= 0.0, "bad multiplier {f}");
            self.p[i] = (self.p[i] * f).max(1e-300);
        }
        self.renormalize();
    }

    /// Mix with the uniform distribution, then cap and renormalize: writes
    /// the water-filled projection of `(1−γ)·p + γ/k` onto the capped
    /// simplex (every coordinate ≤ `cap`, summing to 1) into `out`. This is
    /// the Slate plan kernel, run with `cap = 1/s` so that `s · out` is a
    /// valid vector of inclusion probabilities (each ≤ 1).
    ///
    /// Mass removed from capped coordinates is redistributed proportionally
    /// among the uncapped ones, iterating until no coordinate exceeds the
    /// cap (at most `k` rounds, each capping ≥ 1 new coordinate). `fixed`
    /// is the water-filling work buffer (one flag per coordinate); `fixed`
    /// and `out` are cleared first, so only their capacity is reused. With
    /// `γ = 0` the mix is the identity, so the call is a plain cap.
    ///
    /// # Panics
    /// Panics if `cap · k < 1` (the simplex has no point below the cap).
    pub fn mix_capped_into(
        &self,
        gamma: f64,
        cap: f64,
        fixed: &mut Vec<bool>,
        out: &mut WeightVector,
    ) {
        debug_assert!((0.0..=1.0).contains(&gamma));
        let k = self.p.len();
        assert!(
            cap * k as f64 >= 1.0 - 1e-12,
            "cap {cap} too small for {k} options"
        );
        if cap * k as f64 <= 1.0 + 1e-12 {
            // Boundary cap == 1/k: the uniform vector is the only feasible
            // point. Return it directly — water-filling here would divide
            // a ~0 remainder by a ~0 free mass and let rounding decide
            // whether the result lands on the simplex at all.
            out.p.clear();
            out.p.resize(k, 1.0 / k as f64);
            return;
        }
        let kf = k as f64;
        let p = &mut out.p;
        p.clear();
        p.extend(self.p.iter().map(|&x| (1.0 - gamma) * x + gamma / kf));
        water_fill(p, cap, fixed);
        out.renormalize();
    }

    /// Sample from the γ-uniform mixture `(1−γ)·p + γ/k` without
    /// materializing it: one uniform draw, one O(k) scan, zero allocation.
    /// The scan accumulates the mixed terms in index order and stops at the
    /// first prefix sum above the draw; the rounding tail maps to the last
    /// option. With `γ = 0` it samples `p` itself. This is Exp3's plan path.
    pub fn sample_mixed(&self, gamma: f64, rng: &mut SmallRng) -> usize {
        debug_assert!((0.0..=1.0).contains(&gamma));
        let k = self.p.len() as f64;
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, &p) in self.p.iter().enumerate() {
            acc += (1.0 - gamma) * p + gamma / k;
            if u < acc {
                return i;
            }
        }
        self.p.len() - 1
    }

    fn renormalize(&mut self) {
        let _span = crate::prof::span(crate::prof::Phase::Normalize);
        let sum: f64 = self.p.iter().sum();
        debug_assert!(sum.is_finite() && sum > 0.0, "degenerate weight sum {sum}");
        let inv = 1.0 / sum;
        for p in &mut self.p {
            *p *= inv;
        }
    }
}

/// Water-filling onto the capped simplex, in place: the kernel of
/// [`WeightVector::mix_capped_into`].
///
/// Each round first runs a chain-free scan asking whether any free
/// coordinate sits at or above the cap; only when one does is the
/// (serially dependent) mass-accounting pass executed. The scan performs no
/// arithmetic, and the accounting pass accumulates `fixed_sum`/`free_sum`
/// in the exact index order the original fused loop used, so the values
/// written to `p` are bit-identical — the scan only skips work whose
/// results the original discarded on its terminating pass (the test oracle
/// is that fused loop).
fn water_fill(p: &mut [f64], cap: f64, fixed: &mut Vec<bool>) {
    let _span = crate::prof::span(crate::prof::Phase::WaterFill);
    let k = p.len();
    fixed.clear();
    fixed.resize(k, false);
    loop {
        // Would this pass fix a new coordinate? (Chain-free: no FP adds.)
        let over = p
            .iter()
            .zip(fixed.iter())
            .any(|(&pi, &fi)| !fi && pi >= cap);
        if !over {
            break;
        }
        // Mass already frozen at the cap, and the mass of free coords.
        let mut free_sum = 0.0;
        let mut fixed_sum = 0.0;
        for i in 0..k {
            if fixed[i] {
                fixed_sum += cap;
            } else if p[i] >= cap {
                fixed[i] = true;
                fixed_sum += cap;
            } else {
                free_sum += p[i];
            }
        }
        let remaining = (1.0 - fixed_sum).max(0.0);
        if free_sum <= 0.0 {
            // Everything capped: distribute the remainder uniformly over
            // non-fixed coords (possible only through rounding).
            break;
        }
        let scale = remaining / free_sum;
        for i in 0..k {
            if fixed[i] {
                p[i] = cap;
            } else {
                p[i] *= scale;
            }
        }
    }
    for i in 0..k {
        if fixed[i] {
            p[i] = cap;
        }
    }
}

// Deserialization rejects an empty vector, which no constructor can build.
impl Deserialize for WeightVector {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let p = Vec::<f64>::from_value(v.field("p"))?;
        if p.is_empty() {
            return Err(Error::custom("WeightVector: empty probability vector"));
        }
        Ok(Self { p })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use rand::SeedableRng;

    fn assert_simplex(w: &WeightVector) {
        let sum: f64 = w.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert!(w.probabilities().iter().all(|&p| p >= 0.0));
    }

    /// The plan kernel with no exploration mix (a plain cap), fresh scratch.
    fn capped(w: &WeightVector, cap: f64) -> WeightVector {
        let mut out = WeightVector::uniform(1);
        w.mix_capped_into(0.0, cap, &mut Vec::new(), &mut out);
        out
    }

    fn exceeds_cap(w: &WeightVector, cap: f64, eps: f64) -> bool {
        w.probabilities().iter().any(|&p| p > cap + eps)
    }

    fn bits(p: &[f64]) -> Vec<u64> {
        p.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn uniform_is_uniform() {
        let w = WeightVector::uniform(8);
        assert_eq!(w.len(), 8);
        for i in 0..8 {
            assert!((w.get(i) - 0.125).abs() < 1e-12);
        }
        assert_simplex(&w);
        assert!((w.entropy() - (8f64).ln()).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn uniform_zero_panics() {
        let _ = WeightVector::uniform(0);
    }

    #[test]
    fn from_weights_normalizes() {
        let w = WeightVector::from_weights(&[1.0, 3.0]);
        assert!((w.get(0) - 0.25).abs() < 1e-12);
        assert!((w.get(1) - 0.75).abs() < 1e-12);
        assert_eq!(w.argmax(), 1);
    }

    #[test]
    fn scale_all_concentrates_on_winner() {
        let mut w = WeightVector::uniform(4);
        for _ in 0..200 {
            w.scale_all(|i| if i == 2 { 1.0 } else { 0.5 });
        }
        assert_eq!(w.argmax(), 2);
        assert!(w.max_probability() > 1.0 - 1e-9);
        assert_simplex(&w);
    }

    #[test]
    fn no_underflow_after_many_updates() {
        let mut w = WeightVector::uniform(16);
        for _ in 0..100_000 {
            w.scale_all(|i| if i == 0 { 1.0 } else { 0.9 });
        }
        assert_simplex(&w);
        assert_eq!(w.argmax(), 0);
        // Losers remain representable (non-NaN, ≥ 0).
        assert!(w.probabilities().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn scale_many_matches_sequential_scale_one() {
        let mut a = WeightVector::from_weights(&[1.0, 2.0, 3.0, 4.0]);
        let mut b = a.clone();
        a.scale_one(1, 2.0);
        a.scale_one(3, 0.5);
        b.scale_many(&[(1, 2.0), (3, 0.5)]);
        for i in 0..4 {
            assert!((a.get(i) - b.get(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn capped_respects_cap_and_simplex() {
        let w = WeightVector::from_weights(&[100.0, 1.0, 1.0, 1.0]);
        let c = capped(&w, 0.5);
        assert_simplex(&c);
        assert!(!exceeds_cap(&c, 0.5, 1e-9));
        // The capped coordinate sits exactly at the cap.
        assert!((c.get(0) - 0.5).abs() < 1e-9);
        // The rest keep their relative proportions.
        assert!((c.get(1) - c.get(2)).abs() < 1e-12);
    }

    #[test]
    fn capped_cascades_to_second_coordinate() {
        // After capping coord 0, coord 1 can itself exceed the cap and must
        // be capped in a second round.
        let w = WeightVector::from_weights(&[1000.0, 500.0, 1.0, 1.0, 1.0, 1.0]);
        let c = capped(&w, 0.25);
        assert_simplex(&c);
        assert!(!exceeds_cap(&c, 0.25, 1e-9));
        assert!((c.get(0) - 0.25).abs() < 1e-9);
        assert!((c.get(1) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn capped_noop_when_already_below_cap() {
        let w = WeightVector::uniform(10);
        let c = capped(&w, 0.2);
        for i in 0..10 {
            assert!((c.get(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn capped_infeasible_cap_panics() {
        let w = WeightVector::uniform(4);
        let _ = capped(&w, 0.2); // 4 * 0.2 < 1
    }

    #[test]
    fn mix_uniform_keeps_simplex_and_floors() {
        // A cap of 1 never binds: the kernel reduces to the γ-mix.
        let w = WeightVector::from_weights(&[1.0, 0.0, 0.0, 0.0]);
        let mut m = WeightVector::uniform(1);
        w.mix_capped_into(0.2, 1.0, &mut Vec::new(), &mut m);
        assert_simplex(&m);
        for i in 1..4 {
            assert!((m.get(i) - 0.05).abs() < 1e-12);
        }
        assert!((m.get(0) - 0.85).abs() < 1e-12);
    }

    #[test]
    fn into_variants_match_allocating_forms_bitwise() {
        let mut w = WeightVector::uniform(16);
        w.scale_all(|i| (i * i + 1) as f64);
        // Scratch buffers deliberately pre-polluted with stale contents to
        // prove the _into forms fully overwrite them.
        let mut fixed = vec![true; 40];
        let mut capped = WeightVector::uniform(7);
        w.mix_capped_into(0.05, 0.125, &mut fixed, &mut capped);
        let allocating = reference::capped(&reference::mix_uniform(w.probabilities(), 0.05), 0.125);
        assert_eq!(bits(capped.probabilities()), bits(&allocating));

        let mut probs = vec![9.0; 2];
        w.probabilities_into(&mut probs);
        assert_eq!(probs.as_slice(), w.probabilities());
    }

    #[test]
    fn mix_capped_into_matches_two_step_form_bitwise() {
        // The fused plan kernel must reproduce the oracle's mix → cap
        // exactly, across uncapped, singly-capped and cascading-cap regimes.
        for (weights, cap) in [
            (vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 0.3), // nothing capped
            (vec![60.0, 1.0, 1.0, 1.0, 1.0, 1.0], 0.3), // one coordinate capped
            (vec![60.0, 30.0, 8.0, 1.0, 1.0, 1.0], 0.3), // cascading caps
        ] {
            let mut w = WeightVector::uniform(weights.len());
            w.scale_all(|i| weights[i]);
            for gamma in [0.0, 0.05, 0.5] {
                let two_step =
                    reference::capped(&reference::mix_uniform(w.probabilities(), gamma), cap);
                let mut fixed = vec![true; 2];
                let mut fused = WeightVector::uniform(3);
                w.mix_capped_into(gamma, cap, &mut fixed, &mut fused);
                assert_eq!(
                    bits(fused.probabilities()),
                    bits(&two_step),
                    "gamma={gamma} cap={cap}"
                );
            }
        }
    }

    #[test]
    fn capped_into_boundary_matches_uniform() {
        let mut w = WeightVector::uniform(9);
        w.scale_all(|i| (i + 1) as f64);
        let mut fixed = Vec::new();
        let mut out = WeightVector::uniform(2);
        w.mix_capped_into(0.05, 1.0 / 9.0, &mut fixed, &mut out);
        assert_eq!(
            out.probabilities(),
            WeightVector::uniform(9).probabilities()
        );
    }

    #[test]
    fn sample_follows_distribution() {
        let w = WeightVector::from_weights(&[0.1, 0.9]);
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 20_000;
        let ones = (0..n)
            .filter(|_| w.sample_mixed(0.0, &mut rng) == 1)
            .count();
        let rate = ones as f64 / n as f64;
        assert!((rate - 0.9).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn sample_handles_rounding_tail() {
        let w = WeightVector::uniform(3);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            assert!(w.sample_mixed(0.0, &mut rng) < 3);
        }
    }

    #[test]
    fn sample_mixed_matches_materialized_mixture() {
        let mut w = WeightVector::uniform(11);
        w.scale_all(|i| ((i % 4) + 1) as f64);
        let mixed = reference::mix_uniform(w.probabilities(), 0.05);
        // Linear scan over the materialized mixture, rounding tail last.
        let scan = |u: f64| {
            let mut acc = 0.0;
            mixed.iter().position(|&p| {
                acc += p;
                u < acc
            })
        };
        let mut r1 = SmallRng::seed_from_u64(13);
        let mut r2 = SmallRng::seed_from_u64(13);
        for _ in 0..20_000 {
            let expected = scan(r2.gen()).unwrap_or(mixed.len() - 1);
            assert_eq!(w.sample_mixed(0.05, &mut r1), expected);
        }
    }

    #[test]
    fn serde_roundtrip_excludes_cache() {
        let w = WeightVector::from_weights(&[1.0, 2.0, 3.0]);
        let back = WeightVector::from_value(&w.to_value()).expect("roundtrip");
        assert_eq!(back, w);
        // The serialized form carries exactly the probability field: no
        // derived state is persisted.
        match w.to_value() {
            Value::Object(fields) => {
                assert_eq!(fields.len(), 1);
                assert_eq!(fields[0].0, "p");
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn deserialize_rejects_empty_vector() {
        let v = Value::Object(vec![("p".to_string(), Value::Array(Vec::new()))]);
        assert!(WeightVector::from_value(&v).is_err());
    }

    #[test]
    fn entropy_of_point_mass_is_zero() {
        let mut w = WeightVector::uniform(4);
        for _ in 0..2000 {
            w.scale_all(|i| if i == 1 { 1.0 } else { 0.1 });
        }
        assert!(w.entropy() < 1e-6);
    }

    #[test]
    fn entropy_skips_exact_zero_coordinates() {
        // Regression: 0·ln(0) terms must be skipped, not folded in as NaN.
        let w = WeightVector::from_weights(&[0.5, 0.0, 0.5]);
        assert!((w.entropy() - (2f64).ln()).abs() < 1e-12);
        // Negative zero (reachable through float arithmetic) too.
        let z = WeightVector::from_weights(&[1.0, -0.0]);
        assert!(z.entropy().is_finite());
        assert!(z.entropy().abs() < 1e-12);
        let point = WeightVector::from_weights(&[0.0, 1.0, 0.0, 0.0]);
        assert_eq!(point.entropy(), 0.0);
    }

    #[test]
    fn capped_at_exact_boundary_returns_uniform() {
        // Regression: cap == 1/k sits on the feasibility boundary. The
        // result must be exactly the uniform vector (bitwise), with no
        // coordinate above the cap even at eps = 0.
        for k in 2..=64usize {
            let mut w = WeightVector::uniform(k);
            w.scale_all(|i| (i + 1) as f64);
            let cap = 1.0 / k as f64;
            let c = capped(&w, cap);
            let u = WeightVector::uniform(k);
            assert_eq!(c.probabilities(), u.probabilities(), "k = {k}");
            assert!(!exceeds_cap(&c, cap, 0.0), "k = {k}");
            assert_simplex(&c);
        }
    }

    #[test]
    fn capped_just_above_boundary_stays_feasible() {
        let w = WeightVector::from_weights(&[10.0, 1.0, 1.0, 1.0]);
        let cap = 0.25 * (1.0 + 1e-10);
        let c = capped(&w, cap);
        assert_simplex(&c);
        assert!(!exceeds_cap(&c, cap, 1e-12));
        assert!(c.probabilities().iter().all(|p| p.is_finite()));
    }
}
