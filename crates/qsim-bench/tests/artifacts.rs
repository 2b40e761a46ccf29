//! The committed modeled artifacts regenerate byte for byte from the
//! suites, run in process, and every claim those suites check holds. A
//! change that moves a modeled number fails here, not only in CI.
//!
//! `fig7.csv`'s CPU and speedup rows follow the host's SIMD lane width (the
//! cpu flavor prices the lanes it runs on), so of `fig7.csv` only the rows
//! without "CPU" are compared.

use std::path::Path;

use qsim_bench::multi_gcd::{self, Opts};
use qsim_bench::{figures, Outcome};

/// The lines of `bytes` that do not contain `skip` (all lines if `None`).
fn rows(bytes: &[u8], skip: Option<&str>) -> Vec<String> {
    let text = String::from_utf8_lossy(bytes);
    text.lines().filter(|l| skip.is_none_or(|s| !l.contains(s))).map(String::from).collect()
}

fn assert_committed(outcome: Outcome, skip: Option<&str>) {
    for claim in &outcome.claims {
        assert!(claim.holds, "claim missed: {} (model: {})", claim.description, claim.model);
    }
    assert!(!outcome.artifacts.is_empty());
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (path, bytes) in &outcome.artifacts {
        let committed = std::fs::read(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"));
        match skip {
            None => assert!(*bytes == committed, "{path} no longer matches the committed file"),
            Some(_) => assert_eq!(rows(bytes, skip), rows(&committed, skip), "{path}"),
        }
    }
}

#[test]
fn fig7_gpu_rows() {
    assert_committed(figures::fig7(None).unwrap(), Some("CPU"));
}

#[test]
fn fig8() {
    assert_committed(figures::fig8().unwrap(), None);
}

#[test]
fn fig9() {
    assert_committed(figures::fig9(), None);
}

#[test]
fn ablations() {
    assert_committed(figures::ablations(), None);
}

#[test]
fn trace_fig1() {
    assert_committed(figures::trace(None, "results/trace_fig1.json").unwrap(), None);
}

#[test]
fn multi_gcd_strong() {
    assert_committed(multi_gcd::ci(&Opts::parse(&[]).unwrap()).unwrap(), None);
}
