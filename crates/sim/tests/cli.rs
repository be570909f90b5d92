//! `speedcheck`'s command-line contract: a command line it cannot honour
//! in full is a usage error (exit 2, the offending flag named on
//! stderr), decided before any workload is built or simulated — a
//! typo'd `--smok` must never run the full Small-scale pass.

use std::process::Command;

/// Runs `speedcheck` with `args`; returns `(exit code, stderr)`.
fn speedcheck(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_speedcheck"))
        .args(args)
        .output()
        .expect("speedcheck runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn usage_errors_exit_2_and_name_the_problem() {
    let cases: [(&[&str], &str); 7] = [
        (&["--smok"], "unknown flag: --smok"),
        (&["smoke"], "unknown flag: smoke"),
        (&["--jobs"], "--jobs needs a count"),
        (&["--jobs", "x"], "--jobs: positive integer"),
        (&["--smoke", "--jobs", "0"], "--jobs: positive integer"),
        (&["--smoke", "--json"], "--json needs a path"),
        (&["--compare-only", "prev.json"], "--compare-only needs"),
    ];
    for (args, needle) in cases {
        let (code, stderr) = speedcheck(args);
        assert_eq!(code, Some(2), "{args:?} must exit 2; stderr: {stderr}");
        assert!(
            stderr.contains(needle),
            "{args:?}: stderr must say {needle:?}, got: {stderr}"
        );
    }
}
