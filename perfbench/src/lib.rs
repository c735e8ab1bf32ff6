//! # perfbench
//!
//! The repository's benchmark: one command runs a named workload at a
//! given seed, measures it for a given time, verifies every output
//! against a library replay, and prints end-to-end metrics — or, with
//! `--trace 1`, a per-layer ledger timed from outside the crates through
//! byte-neutral wrappers. See `perfbench/README.md`.

#![forbid(unsafe_code)]

pub mod daemon;
pub mod grid;
pub mod host;
pub mod memvfs;
pub mod record;
pub mod spans;
pub mod wrap;

/// FNV-1a, 64-bit: the digest outputs are compared by.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV0: u64 = 0xcbf2_9ce4_8422_2325;

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of a sample, `q` in `[0, 1]` (as `loadgen`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[((q * (v.len() - 1) as f64).round() as usize).min(v.len() - 1)]
}
