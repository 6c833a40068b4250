//! Fixture corpus: every rule must trip on its violating snippet and stay
//! quiet on the clean variant. Fixtures live in `crates/simlint/fixtures/`
//! (excluded from workspace scans) and are linted here under synthetic
//! workspace-relative paths that put them in each rule's scope. The
//! violation fixtures of the rules clippy now checks live in the
//! `fixtures/clippy/` crate, which CI runs clippy on.

use std::path::Path;

use simlint::lint_source;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

fn rules_hit(rel_path: &str, name: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> =
        lint_source(rel_path, &fixture(name)).into_iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn a001_time_seq_casts() {
    assert_eq!(rules_hit("crates/transport/src/fx.rs", "a001_violation.rs"), ["A001"]);
    assert_eq!(rules_hit("crates/transport/src/fx.rs", "a001_clean.rs"), [""; 0]);
    // Out of scope: test files may cast known-small constants.
    assert_eq!(rules_hit("crates/transport/tests/fx.rs", "a001_violation.rs"), [""; 0]);
}

#[test]
fn f001_float_equality() {
    assert_eq!(rules_hit("crates/energy/src/fx.rs", "f001_violation.rs"), ["F001"]);
    assert_eq!(rules_hit("crates/energy/src/fx.rs", "f001_clean.rs"), [""; 0]);
}

#[test]
fn u001_cross_unit_assignment() {
    assert_eq!(rules_hit("crates/core/src/fx.rs", "u001_violation.rs"), ["U001"]);
    assert_eq!(rules_hit("crates/core/src/fx.rs", "u001_clean.rs"), [""; 0]);
    // Out of scope: tests may wire up deliberately odd unit mixes.
    assert_eq!(rules_hit("crates/core/tests/fx.rs", "u001_violation.rs"), [""; 0]);
}

#[test]
fn u002_cross_unit_arithmetic() {
    assert_eq!(rules_hit("crates/core/src/fx.rs", "u002_violation.rs"), ["U002"]);
    assert_eq!(rules_hit("crates/core/src/fx.rs", "u002_clean.rs"), [""; 0]);
    assert_eq!(rules_hit("crates/core/tests/fx.rs", "u002_violation.rs"), [""; 0]);
}

#[test]
fn d004_wall_clock_taint_flow() {
    // Call sites are clippy's `disallowed_methods`; only the dataflow rule
    // sees the wall-clock value reach sim state.
    assert_eq!(rules_hit("crates/bench/src/fx.rs", "d004_violation.rs"), ["D004"]);
    assert_eq!(rules_hit("crates/bench/src/fx.rs", "d004_clean.rs"), [""; 0]);
    assert_eq!(rules_hit("crates/bench/tests/fx.rs", "d004_violation.rs"), [""; 0]);
}

#[test]
fn e001_enum_exhaustiveness() {
    assert_eq!(rules_hit("crates/netsim/src/fx.rs", "e001_violation.rs"), ["E001"]);
    assert_eq!(rules_hit("crates/netsim/src/fx.rs", "e001_clean.rs"), [""; 0]);
    assert_eq!(rules_hit("crates/netsim/tests/fx.rs", "e001_violation.rs"), [""; 0]);
}

#[test]
fn c001_lock_order() {
    assert_eq!(rules_hit("crates/bench/src/fx.rs", "c001_violation.rs"), ["C001"]);
    assert_eq!(rules_hit("crates/bench/src/fx.rs", "c001_clean.rs"), [""; 0]);
    assert_eq!(rules_hit("crates/bench/tests/fx.rs", "c001_violation.rs"), [""; 0]);
}

#[test]
fn findings_carry_snippets() {
    let findings = lint_source("crates/core/src/fx.rs", &fixture("u002_violation.rs"));
    assert!(!findings.is_empty());
    assert!(
        findings[0].snippet.contains("used_bytes > cap_bits"),
        "snippet missing source text: {:?}",
        findings[0].snippet
    );
}

#[test]
fn waivers_silence_findings() {
    assert_eq!(rules_hit("crates/core/src/fx.rs", "waivers.rs"), [""; 0]);
}

#[test]
fn waiver_hygiene_is_enforced() {
    let findings = lint_source("crates/obs/src/fx.rs", &fixture("waivers_bad.rs"));
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    // Reasonless and unknown-rule waivers are W001 and do not suppress the
    // underlying F001; a waiver matching nothing (F001 or A001) is W002.
    assert_eq!(rules.iter().filter(|r| **r == "W001").count(), 2, "{findings:?}");
    assert_eq!(rules.iter().filter(|r| **r == "F001").count(), 2, "{findings:?}");
    assert_eq!(rules.iter().filter(|r| **r == "W002").count(), 2, "{findings:?}");
}

#[test]
fn diagnostics_have_file_line_rule_shape() {
    let findings = lint_source("crates/core/src/fx.rs", &fixture("f001_violation.rs"));
    assert!(!findings.is_empty());
    let rendered = findings[0].to_string();
    // `file:line:rule: message`, with a 1-based line number.
    assert!(
        rendered.starts_with("crates/core/src/fx.rs:3:F001: "),
        "unexpected diagnostic shape: {rendered}"
    );
}
