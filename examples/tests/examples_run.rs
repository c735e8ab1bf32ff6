//! Every example runs to completion. The README's first command is
//! `quickstart`, so an example that no longer runs is a broken front door.

use std::process::Command;

const EXAMPLES: &[(&str, &str)] = &[
    ("quickstart", env!("CARGO_BIN_EXE_quickstart")),
    ("repair_gzip", env!("CARGO_BIN_EXE_repair_gzip")),
    ("compare_variants", env!("CARGO_BIN_EXE_compare_variants")),
    ("social_learning", env!("CARGO_BIN_EXE_social_learning")),
    ("patch_workflow", env!("CARGO_BIN_EXE_patch_workflow")),
];

#[test]
fn every_example_exits_zero() {
    for (name, exe) in EXAMPLES {
        let out = Command::new(exe).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: {:?}\n{stderr}", out.status);
        assert!(!out.stdout.is_empty(), "{name} printed nothing");
    }
}
