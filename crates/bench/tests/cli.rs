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
    let cases: [(&[&str], &str); 20] = [
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
        // Flags the chosen mode would never read.
        (
            &["--replay", "--telemetry", "tel"],
            "--telemetry only applies to experiment runs, not --replay",
        ),
        (
            &["--sweep", "--telemetry", "tel"],
            "--telemetry only applies to experiment runs, not --sweep",
        ),
        (
            &["--sweep-merge", empty_dir, "--telemetry", "tel"],
            "--telemetry only applies to experiment runs, not --sweep-merge",
        ),
        (
            &["--cache-dir", "c", "fig7"],
            "--cache-dir only applies to --sweep",
        ),
        (
            &["--replay", "--sweep-dir", "s"],
            "--sweep-dir only applies to --sweep",
        ),
        (
            &["--trace-dir", "t", "table1"],
            "--trace-dir only applies to --replay and --sweep, not experiment runs",
        ),
        (
            &["--sweep-merge", empty_dir, "--trace-dir", "t"],
            "--trace-dir only applies to --replay and --sweep, not --sweep-merge",
        ),
        (&["--resume"], "--resume only applies to --sweep"),
        (
            &["--sweep-merge", empty_dir, "--jobs", "4"],
            "--jobs only applies to experiment runs, --replay and --sweep, not --sweep-merge",
        ),
        (
            &["--sweep-merge", empty_dir, "--scale", "paper"],
            "--scale only applies to experiment runs, --replay and --sweep, not --sweep-merge",
        ),
    ];
    for (args, needle) in cases {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?} must exit 2; stderr: {stderr}");
        assert!(
            stderr.contains(needle),
            "{args:?}: stderr must say {needle:?}, got: {stderr}"
        );
        assert!(
            stderr.contains(SYNOPSIS),
            "{args:?}: a usage error repeats the synopsis, got: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&empty);
}

/// A line every synopsis carries.
const SYNOPSIS: &str = "usage: repro [--scale tiny|small|paper]";

#[test]
fn help_prints_the_synopsis_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(flag)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(0), "{flag} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with(SYNOPSIS), "{flag}: got {stdout}");
        assert!(
            stdout.contains("repro --sweep-merge DIR"),
            "{flag}: got {stdout}"
        );
        assert!(out.stderr.is_empty(), "{flag} prints nothing else");
        // Each mode's line lists exactly the flags that mode reads.
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), MODES.len() + 1, "one line per mode and --help");
        for ((mode, _), line) in MODES.iter().zip(lines) {
            let listed = line.split([' ', '[', ']']).filter(|w| w.starts_with("--"));
            let reads = FLAGS.iter().filter(|(_, _, modes)| modes.contains(mode));
            let reads: Vec<&str> = reads.map(|(flag, _, _)| *flag).collect();
            assert_eq!(listed.collect::<Vec<_>>(), reads, "the {mode} line: {line}");
        }
    }
}

/// Each mode, named as `repro`'s errors name it, with the arguments
/// that select it, in synopsis order.
const MODES: [(&str, &[&str]); 4] = [
    (RUNS, &[]),
    ("--replay", &["--replay"]),
    ("--sweep", &["--sweep"]),
    ("--sweep-merge", &["--sweep-merge", "shards"]),
];
const RUNS: &str = "experiment runs";

/// `repro`'s flag table as this contract expects it, in synopsis order:
/// each flag, a valid value (`None` for a switch) and the modes that
/// read it.
const FLAGS: [(&str, Option<&str>, &[&str]); 14] = [
    ("--replay", None, &["--replay"]),
    ("--sweep", None, &["--sweep"]),
    ("--sweep-merge", Some("shards"), &["--sweep-merge"]),
    ("--scale", Some("tiny"), &[RUNS, "--replay", "--sweep"]),
    ("--jobs", Some("2"), &[RUNS, "--replay", "--sweep"]),
    ("--telemetry", Some("tel"), &[RUNS]),
    ("--trace-dir", Some("t"), &["--replay", "--sweep"]),
    ("--shard", Some("0/2"), &["--sweep"]),
    ("--sweep-dir", Some("s"), &["--sweep"]),
    ("--cache-dir", Some("c"), &["--sweep"]),
    ("--resume", None, &["--sweep"]),
    ("--strict", None, &["--sweep"]),
    ("--fault-inject", Some("panic=1@1"), &["--sweep"]),
    ("--cell-budget", Some("5"), &["--sweep"]),
];

#[test]
fn each_flag_is_refused_under_every_mode_that_does_not_read_it() {
    for (flag, value, modes) in FLAGS {
        let switch = modes == [flag];
        for (mode, select) in MODES.iter().filter(|(mode, _)| !modes.contains(mode)) {
            if switch && select.is_empty() {
                continue; // alone, a mode switch selects its own mode
            }
            let args = [*select, &[flag], value.as_slice()].concat();
            let (code, stderr) = repro(&args);
            assert_eq!(code, Some(2), "{args:?} must exit 2; stderr: {stderr}");
            // A second mode switch is refused as such.
            let refused = if switch {
                stderr.contains("runs alone")
            } else {
                stderr.contains(&format!("{flag} only applies to "))
                    && stderr.contains(&format!(", not {mode}\n"))
            };
            assert!(refused, "{args:?}: got {stderr}");
        }
    }
}
