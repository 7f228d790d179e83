//! The argument-reading bins share one convention: an unknown flag
//! prints the usage text on stderr and exits with status 2, before any
//! work starts.

use std::process::Command;

fn assert_rejects_unknown_flag(bin: &str) {
    let out = Command::new(bin)
        .arg("--no-such-flag")
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
    assert!(
        stderr.contains("USAGE:"),
        "{bin} printed no usage: {stderr}"
    );
}

#[test]
fn eval_kernels_rejects_an_unknown_flag_with_its_usage() {
    assert_rejects_unknown_flag(env!("CARGO_BIN_EXE_eval_kernels"));
}
