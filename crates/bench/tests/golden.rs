//! The whole Tiny job pinned: `repro --scale tiny all`'s stdout must
//! match `tests/data/repro_tiny_all.txt` byte for byte.
//!
//! The simulation is deterministic and every table is a pure function
//! of its cells, so any change to a timing constant, a policy, a
//! workload or a table's layout shows up here. A mismatch names the
//! first differing line and writes the actual document next to the
//! test binaries (its path is in the failure message). As with
//! `tests/sim_counts.rs`, only a deliberate behaviour change re-pins the
//! file: copy the actual document over it and say which rows moved, and
//! why, in CHANGES.md.

use std::process::Command;

const PINNED: &str = include_str!("../../../tests/data/repro_tiny_all.txt");

#[test]
fn tiny_all_stdout_matches_the_pinned_document() {
    let tmp = env!("CARGO_TARGET_TMPDIR");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "tiny", "--jobs", "2", "all"])
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
    if actual == PINNED {
        return;
    }
    let path = std::path::Path::new(tmp).join("repro_tiny_all.txt");
    std::fs::write(&path, &actual).expect("write the actual document");
    let (pinned, got): (Vec<&str>, Vec<&str>) =
        (PINNED.lines().collect(), actual.lines().collect());
    let first = (0..pinned.len().max(got.len()))
        .find(|&i| pinned.get(i) != got.get(i))
        .unwrap_or(pinned.len().min(got.len()));
    panic!(
        "repro --scale tiny all differs from tests/data/repro_tiny_all.txt at line {}:\n  \
         pinned: {:?}\n  actual: {:?}\n({} pinned lines, {} actual); actual document: {}",
        first + 1,
        pinned.get(first),
        got.get(first),
        pinned.len(),
        got.len(),
        path.display()
    );
}
