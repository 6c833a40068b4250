//! Cross-file analyses: the symbol index must make facts declared in one
//! file visible to rules running over another, and the parallel pipeline
//! must be an exact refactor of the serial one.

use std::path::Path;
use std::time::Instant;

use simlint::lint_sources;

/// Enum declared in one file, matched in another. The match lists every
/// variant with no wildcard, so it is clean — until a variant is deleted
/// from the *defining* file, at which point the stale arm in the *other*
/// file names an unknown variant and E001 fires. This is the liveness
/// property the whole index exists for: the lint moves a bug that rustc
/// only reports at the match site into the same diagnostic run that sees
/// the enum edit.
#[test]
fn e001_flips_when_variant_deleted_in_other_file() {
    let enum_src = "pub enum LinkPhase {\n    Up,\n    Down,\n    Probing,\n}\n";
    let match_src = "pub fn weight(p: LinkPhase) -> u32 {\n    match p {\n        \
                     LinkPhase::Up => 2,\n        LinkPhase::Down => 0,\n        \
                     LinkPhase::Probing => 1,\n    }\n}\n";

    let clean = lint_sources(&[
        ("crates/core/src/kind.rs".to_string(), enum_src.to_string()),
        ("crates/netsim/src/fx.rs".to_string(), match_src.to_string()),
    ]);
    assert!(clean.findings.is_empty(), "exhaustive cross-file match flagged: {:?}", clean.findings);

    let shrunk_enum = "pub enum LinkPhase {\n    Up,\n    Down,\n}\n";
    let report = lint_sources(&[
        ("crates/core/src/kind.rs".to_string(), shrunk_enum.to_string()),
        ("crates/netsim/src/fx.rs".to_string(), match_src.to_string()),
    ]);
    let e001: Vec<_> = report.findings.iter().filter(|f| f.rule == "E001").collect();
    assert_eq!(e001.len(), 1, "expected one E001 after variant deletion: {:?}", report.findings);
    assert_eq!(e001[0].file, "crates/netsim/src/fx.rs");
    assert!(e001[0].message.contains("LinkPhase::Probing"), "{}", e001[0].message);
}

/// A wildcard in the consuming file swallows variants of an enum it never
/// sees locally: the index supplies the variant list.
#[test]
fn e001_sees_wildcard_against_foreign_enum() {
    let enum_src = "pub enum LinkPhase {\n    Up,\n    Down,\n    Probing,\n}\n";
    let match_src = "pub fn up(p: LinkPhase) -> bool {\n    match p {\n        \
                     LinkPhase::Up => true,\n        _ => false,\n    }\n}\n";
    let report = lint_sources(&[
        ("crates/core/src/kind.rs".to_string(), enum_src.to_string()),
        ("crates/netsim/src/fx.rs".to_string(), match_src.to_string()),
    ]);
    let e001: Vec<_> = report.findings.iter().filter(|f| f.rule == "E001").collect();
    assert_eq!(e001.len(), 1, "{:?}", report.findings);
    assert!(e001[0].message.contains("Down"), "{}", e001[0].message);
    assert!(e001[0].message.contains("Probing"), "{}", e001[0].message);
}

/// Unit tags cross files through call arguments: a function declared with a
/// `_bytes` parameter in one file, fed a `_bits` value from another.
#[test]
fn u001_crosses_files_through_call_arguments() {
    let callee = "pub fn enqueue(buf_bytes: u64) -> u64 {\n    buf_bytes\n}\n";
    let caller = "pub fn feed(frame_bits: u64) -> u64 {\n    enqueue(frame_bits)\n}\n";
    let report = lint_sources(&[
        ("crates/core/src/queue.rs".to_string(), callee.to_string()),
        ("crates/netsim/src/fx.rs".to_string(), caller.to_string()),
    ]);
    let u001: Vec<_> = report.findings.iter().filter(|f| f.rule == "U001").collect();
    assert_eq!(u001.len(), 1, "{:?}", report.findings);
    assert_eq!(u001[0].file, "crates/netsim/src/fx.rs");

    // Converting at the call site silences it.
    let fixed = "pub fn feed(frame_bits: u64) -> u64 {\n    enqueue(frame_bits / 8)\n}\n";
    let report = lint_sources(&[
        ("crates/core/src/queue.rs".to_string(), callee.to_string()),
        ("crates/netsim/src/fx.rs".to_string(), fixed.to_string()),
    ]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

/// Two files re-declaring the same enum differently poison the index entry;
/// rules must go silent rather than guess which definition wins.
#[test]
fn ambiguous_symbols_disable_cross_file_rules() {
    let enum_a = "pub enum LinkPhase {\n    Up,\n    Down,\n}\n";
    let enum_b = "pub enum LinkPhase {\n    Up,\n    Down,\n    Probing,\n}\n";
    let match_src = "pub fn up(p: LinkPhase) -> bool {\n    match p {\n        \
                     LinkPhase::Up => true,\n        _ => false,\n    }\n}\n";
    let report = lint_sources(&[
        ("crates/core/src/kind.rs".to_string(), enum_a.to_string()),
        ("crates/transport/src/kind.rs".to_string(), enum_b.to_string()),
        ("crates/netsim/src/fx.rs".to_string(), match_src.to_string()),
    ]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

fn workspace_root() -> &'static Path {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/simlint has a workspace root two levels up");
    assert!(root.join("Cargo.toml").is_file(), "bad workspace root {}", root.display());
    root
}

/// The thread-pool pipeline must produce byte-identical output to the
/// serial path over the real workspace, regardless of scheduling.
#[test]
fn parallel_and_serial_scans_agree() {
    let root = workspace_root();
    let serial = simlint::lint_workspace_with_jobs(root, 1).expect("serial scan");
    let parallel = simlint::lint_workspace_with_jobs(root, 8).expect("parallel scan");
    assert_eq!(serial.findings, parallel.findings);
    assert_eq!(serial.waived, parallel.waived);
}

/// Acceptance bound: the full three-phase scan of the real workspace stays
/// interactive. CI enforces <5s; the local bound is tighter to leave slack.
#[test]
fn workspace_scan_is_fast() {
    let root = workspace_root();
    #[expect(
        clippy::disallowed_methods,
        reason = "the scan's own wall-clock time is what this test bounds"
    )]
    let start = Instant::now();
    let report = simlint::lint_workspace(root).expect("scan");
    let elapsed = start.elapsed();
    // Touch the result so the scan cannot be optimised away.
    assert!(report.findings.len() < 10_000);
    assert!(elapsed.as_secs_f64() < 5.0, "workspace scan took {elapsed:?} (budget 5s)");
}
