//! The run record: what ran, where, on what code, and what it measured.
//! Records from different hosts or filesystems are not comparable, and
//! [`compare`] refuses them.

use crate::{fnv, FNV0};
use serde::Value;
use std::path::Path;

/// Host facts a comparison must hold equal.
pub fn host() -> Value {
    Value::Object(vec![
        ("cpu_model".into(), Value::Str(crate::host::cpu_model())),
        ("nproc".into(), Value::UInt(crate::host::nproc() as u64)),
        (
            "available_parallelism".into(),
            Value::UInt(crate::host::available_parallelism() as u64),
        ),
        ("kernel".into(), Value::Str(crate::host::kernel())),
    ])
}

/// The checked-out commit, when the checkout is a git work tree.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None if !head.is_empty() => head.to_string(),
        None => "none (not a git checkout)".into(),
    }
}

/// Digest of the source the benchmark builds from: every file under
/// `crates/`, `vendor/` and `perfbench/` (build outputs excluded) plus
/// the root manifests, so two records name the same code even without
/// git.
pub fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    for root in ["crates", "vendor", "perfbench"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = FNV0;
    for f in &files {
        h = fnv(h, f.to_string_lossy().as_bytes());
        h = fnv(h, &std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

/// Compare two records: refuse (Err) across hosts, filesystems or build
/// profiles; otherwise list each shared metric's change.
pub fn compare(a: &Value, b: &Value) -> Result<String, String> {
    for key in [
        "host",
        "store_fs",
        "vfs_fs",
        "build_profile",
        "pool_threads",
        "workload",
    ] {
        let (x, y) = (a.field(key), b.field(key));
        if serde::json::to_string(x) != serde::json::to_string(y) {
            return Err(format!(
                "records differ in {key}: {} vs {}; refusing to compare",
                serde::json::to_string(x),
                serde::json::to_string(y)
            ));
        }
    }
    // Host contention is not a reason to refuse, but it explains a gap.
    let steal = |r: &Value| match r.field("host_steal_share") {
        Value::Float(f) => *f,
        _ => 0.0,
    };
    let mut out = format!(
        "{:<34} {:>14.4} {:>14.4}\n",
        "host_steal_share",
        steal(a),
        steal(b)
    );
    let (Some(ma), mb) = (a.field("metrics").as_object(), b.field("metrics")) else {
        return Err("record has no metrics".into());
    };
    for (name, va) in ma {
        let num = |v: &Value| match v.field("value") {
            Value::Float(f) => Some(*f),
            Value::UInt(n) => Some(*n as f64),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        };
        if let (Some(x), Some(y)) = (num(va), num(mb.field(name))) {
            let change = if x != 0.0 {
                (y - x) / x.abs() * 100.0
            } else {
                0.0
            };
            out.push_str(&format!("{name:<34} {x:>14.4} {y:>14.4} {change:>+8.2}%\n"));
        }
    }
    Ok(out)
}
