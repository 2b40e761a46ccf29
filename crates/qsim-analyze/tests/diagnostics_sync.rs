//! `DIAGNOSTICS.md` is generated from the rule registry; these tests
//! keep the three parties honest: the checked-in file must match the
//! generator byte-for-byte, and the registry must cover exactly the
//! code constants declared across the workspace source.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use qsim_analyze::registry::{diagnostics_markdown, RULES};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn checked_in_diagnostics_md_matches_the_registry() {
    let path = repo_root().join("DIAGNOSTICS.md");
    let on_disk =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let generated = diagnostics_markdown();
    assert!(
        on_disk == generated,
        "DIAGNOSTICS.md is out of sync with the rule registry. Generated document:\n{generated}"
    );
}

/// Collect every `pub const NAME: &str = "Qxxxx";` declaration under the
/// workspace's `crates/*/src` trees (fixtures and tests excluded).
fn declared_codes(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            declared_codes(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            for line in text.lines() {
                let Some(rest) = line.trim_start().strip_prefix("pub const ") else { continue };
                let Some((_, value)) = rest.split_once(": &str = \"") else { continue };
                let Some((code, _)) = value.split_once('"') else { continue };
                let range_ok = ["QC", "QA", "QP"].iter().any(|p| code.starts_with(p));
                if range_ok && code.len() == 6 && code[2..].chars().all(|c| c.is_ascii_digit()) {
                    out.insert(code.to_string());
                }
            }
        }
    }
}

#[test]
fn registry_covers_exactly_the_declared_code_constants() {
    let crates = repo_root().join("crates");
    let mut declared = BTreeSet::new();
    for entry in std::fs::read_dir(&crates).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            declared_codes(&src, &mut declared);
        }
    }
    let registered: BTreeSet<String> = RULES.iter().map(|r| r.code.to_string()).collect();
    let missing: Vec<_> = declared.difference(&registered).collect();
    let phantom: Vec<_> = registered.difference(&declared).collect();
    assert!(
        missing.is_empty() && phantom.is_empty(),
        "registry drift — declared but unregistered: {missing:?}; \
         registered but never declared: {phantom:?}"
    );
}
