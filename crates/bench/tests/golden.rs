//! The whole Tiny job pinned: `repro --scale tiny all`'s stdout must
//! match `tests/data/repro_tiny_all.txt` byte for byte, and `repro
//! --replay --scale tiny`'s must match `tests/data/repro_tiny_replay.txt`.
//!
//! The simulation is deterministic and every table is a pure function
//! of its cells, so any change to a timing constant, a policy, a
//! workload or a table's layout shows up here. A mismatch names the
//! first differing line and writes the actual document next to the
//! test binaries (its path is in the failure message). As with
//! `tests/sim_counts.rs`, only a deliberate behaviour change re-pins a
//! file: copy the actual document over it and say which rows moved, and
//! why, in CHANGES.md.

use std::path::Path;
use std::process::Command;

/// Runs `repro args` in the test binaries' scratch directory and
/// compares its stdout with `pinned`, the contents of
/// `tests/data/{name}`.
fn assert_stdout_matches(args: &[&str], pinned: &str, name: &str) {
    let tmp = env!("CARGO_TARGET_TMPDIR");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(tmp)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro exited {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    if actual == pinned {
        return;
    }
    let path = Path::new(tmp).join(name);
    std::fs::write(&path, &actual).expect("write the actual document");
    let (pinned, got): (Vec<&str>, Vec<&str>) =
        (pinned.lines().collect(), actual.lines().collect());
    let first = (0..pinned.len().max(got.len()))
        .find(|&i| pinned.get(i) != got.get(i))
        .unwrap_or(pinned.len().min(got.len()));
    panic!(
        "repro {} differs from tests/data/{name} at line {}:\n  \
         pinned: {:?}\n  actual: {:?}\n({} pinned lines, {} actual); actual document: {}",
        args.join(" "),
        first + 1,
        pinned.get(first),
        got.get(first),
        pinned.len(),
        got.len(),
        path.display()
    );
}

#[test]
fn tiny_all_stdout_matches_the_pinned_document() {
    assert_stdout_matches(
        &["--scale", "tiny", "--jobs", "2", "all"],
        include_str!("../../../tests/data/repro_tiny_all.txt"),
        "repro_tiny_all.txt",
    );
}

/// Every replay cell of the Tiny job. The trace directory is removed
/// first, so every capture is fresh and the corpus table's `Source`
/// column reads `Captured`.
#[test]
fn tiny_replay_stdout_matches_the_pinned_document() {
    let traces = Path::new(env!("CARGO_TARGET_TMPDIR")).join("traces");
    if traces.exists() {
        std::fs::remove_dir_all(&traces).expect("remove the old trace directory");
    }
    assert_stdout_matches(
        &[
            "--replay",
            "--scale",
            "tiny",
            "--jobs",
            "2",
            "--trace-dir",
            "traces",
        ],
        include_str!("../../../tests/data/repro_tiny_replay.txt"),
        "repro_tiny_replay.txt",
    );
}
