//! The real workspace must be violation-free: this is the same scan CI runs
//! via `cargo run -p simlint -- --check`, executed as a tier-1 test so a
//! regression fails `cargo test` even before the lint job runs. The rules
//! clippy checks (hash collections, wall-clock reads, `unwrap`/`expect`/
//! `panic!`) fail CI's clippy step instead, not this test.

use std::path::Path;

#[test]
fn workspace_has_no_unwaived_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/simlint has a workspace root two levels up");
    assert!(root.join("Cargo.toml").is_file(), "bad workspace root {}", root.display());

    let report = simlint::lint_workspace(root).expect("lint I/O");
    assert!(
        report.findings.is_empty(),
        "workspace has unwaived simlint findings:\n{}",
        report.findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}
