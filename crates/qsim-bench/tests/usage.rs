//! Bad arguments get the usage text and exit code 2, not a panic.

use std::process::Command;

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    let cases: [&[&str]; 4] = [
        &["fig7", "--validate", "x"],
        &["trace", "--functional", "x"],
        &["trace", "-o"],
        &["figure10"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_qsim_bench")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: qsim_bench"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
