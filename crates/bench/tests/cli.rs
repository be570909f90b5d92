//! `repro`'s command-line contract: a command line it cannot honour in
//! full is a usage error (exit 2, the offending flag named on stderr),
//! decided before any workload is built or simulated.

use std::process::Command;

/// Runs `repro` with `args`; returns `(exit code, stderr)`.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: a usage error prints no table"
    );
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn usage_errors_exit_2_and_name_the_problem() {
    let empty = std::env::temp_dir().join(format!("etpp-cli-empty-{}", std::process::id()));
    std::fs::create_dir_all(&empty).unwrap();
    let empty_dir = empty.to_str().unwrap();
    // A telemetry dir under a regular file can never be created.
    let file = empty.join("file");
    std::fs::write(&file, "").unwrap();
    let under_file = file.join("sub");
    let under_file = under_file.to_str().unwrap();
    let cases: [(&[&str], &str); 10] = [
        (&["--bogus"], "unknown flag: --bogus"),
        // Retired with trace-format v1: no longer a flag at all.
        (&["--trace-format", "2"], "unknown flag: --trace-format"),
        (&["--shard", "1/4"], "--shard only applies to --sweep"),
        (&["--replay", "fig7"], "--replay runs alone"),
        (&["--jobs", "0", "table1"], "--jobs: positive integer"),
        // Beyond `Duration`'s range: a usage error, not a panic.
        (
            &["--cell-budget", "1e20"],
            "--cell-budget: non-negative seconds",
        ),
        (&["--sweep-merge", empty_dir], "--sweep-merge:"),
        // A fault plan that names no job or workload of the composed
        // grid (6144 jobs, 2 workloads) would inject nothing.
        (
            &[
                "--sweep",
                "--scale",
                "tiny",
                "--fault-inject",
                "panic=99999@9;bpanic=7@3;hang=70000@1",
            ],
            "--fault-inject: panic=99999: no such job (0..6144)",
        ),
        (
            &["--sweep", "--fault-inject", "bpanic=2@1"],
            "--fault-inject: bpanic=2: no such workload (0..2)",
        ),
        (
            &["--scale", "tiny", "--telemetry", under_file, "telemetry"],
            "--telemetry: cannot create",
        ),
    ];
    for (args, needle) in cases {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?} must exit 2; stderr: {stderr}");
        assert!(
            stderr.contains(needle),
            "{args:?}: stderr must say {needle:?}, got: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&empty);
}
