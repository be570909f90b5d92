//! `speedcheck`'s command-line contract: a command line it cannot honour
//! in full is a usage error (exit 2, the offending flag named on
//! stderr), decided before any workload is built or simulated — a
//! typo'd `--smok` must never run the full Small-scale pass. Also the
//! `--compare-only` gate across report schemas, which simulates nothing.

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

/// `--compare-only` gates a schema-9 report against a schema-8 baseline:
/// the per-workload `build_s` / `trace_bytes` fields schema 9 added are
/// not cells, and every cell row still pairs up.
#[test]
fn compare_only_reads_a_schema_8_baseline() {
    let report = |schema: u32, extra: &str| {
        format!(
            "{{\n  \"schema\": {schema},\n  \"tool\": \"speedcheck\",\n  \"scale\": \"tiny\",\n  \
             \"workloads\": [\n    {{\n      \"name\": \"IntSort\",\n      \
             \"trace_accesses\": 60000,\n{extra}      \"cycle\": [\n        \
             {{\"mode\": \"none\", \"cycles\": 10, \"host_iters\": 2, \"fast_forward\": 5.000, \
             \"accesses_per_s\": 1000.0, \"validated\": true}}\n      ],\n      \
             \"replay\": [\n      ]\n    }}\n  ]\n}}\n"
        )
    };
    let dir = std::env::temp_dir().join(format!("etpp-speedcheck-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (old, new) = (dir.join("old.json"), dir.join("new.json"));
    std::fs::write(&old, report(8, "")).unwrap();
    let extra = "      \"build_s\": 0.012000,\n      \"trace_bytes\": 2880000,\n";
    std::fs::write(&new, report(9, extra)).unwrap();
    let (code, stderr) = speedcheck(&[
        "--compare-only",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        stderr.contains("1 cells compared, 0 regressed"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("note "), "no coverage drift: {stderr}");
}
