//! Build-profile parity: the benchmark is its own cargo workspace, so the
//! root manifest's `[profile.release]` does not apply to it. Thin LTO is the
//! decisive lever on the simulator's cross-crate hot path, so a benchmark
//! built with other settings would measure a different program. Every run
//! compares the two blocks and aborts if they differ.

use std::collections::BTreeMap;

/// The `key = value` pairs of `[profile.release]` in `manifest`, whitespace
/// and comments stripped.
pub fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
        .collect()
}

/// Checks the root manifest's release profile against the benchmark's own.
///
/// # Errors
///
/// If either manifest is unreadable or the two blocks differ.
pub fn check() -> Result<(), String> {
    let read = |p: std::path::PathBuf| {
        std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let root = release_profile(&read(crate::repo_root().join("Cargo.toml"))?);
    let own = release_profile(&read(crate::repo_root().join("benchmark/Cargo.toml"))?);
    if root == own && !own.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "build-profile mismatch: the root Cargo.toml has [profile.release] {root:?} but \
             benchmark/Cargo.toml has {own:?}; the benchmark would measure a differently \
             built program. Make the two blocks equal (as a change of its own) and re-run."
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_only_the_release_block() {
        let p = release_profile(
            "[package]\nname = \"x\"\n\n# c\n[profile.release]\ndebug = true # why\nlto = \"thin\"\n\
             codegen-units=1\n\n[profile.bench]\nlto = \"fat\"\n",
        );
        let want: BTreeMap<String, String> =
            [("debug", "true"), ("lto", "\"thin\""), ("codegen-units", "1")]
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v.to_owned()))
                .collect();
        assert_eq!(p, want);
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn this_checkout_is_in_parity() {
        check().unwrap();
    }
}
