//! Pinned simulated counts: IntSort and HJ-8 at Tiny under eight
//! prefetch modes, on the cycle core and on trace replay — 32 cells.
//!
//! Every cell is one line of `tests/data/sim_counts.txt`: cycles, host
//! iterations, per-source driver visits (cycle core) or dependence
//! stalls (replay), validation, late prefetch merges, L1 read hits and
//! misses, L1 prefetch fills and uses, and DRAM reads. The simulation
//! is deterministic, so the document must match byte for byte; any
//! change to a timing constant, a policy or the driver shows up as the
//! named cells and fields that moved. A deliberate behaviour change
//! re-pins the file from the actual document the failing test writes
//! (its path is in the failure message).
//!
//! The same cells also carry checks that do not come from the pinned
//! file: every cell validates, every programmable mode replays, and the
//! memory statistics obey their conservation laws.

use etpp::mem::{CacheStats, MemStats};
use etpp::sim::experiments::map_indexed;
use etpp::sim::{replay as rp, run, PrefetchMode, SystemConfig};
use etpp::workloads::{workload_by_name, Scale};
use std::sync::OnceLock;

const WORKLOADS: [&str; 2] = ["IntSort", "HJ-8"];

const MODES: [PrefetchMode; 8] = [
    PrefetchMode::None,
    PrefetchMode::Stride,
    PrefetchMode::GhbRegular,
    PrefetchMode::Converted,
    PrefetchMode::Manual,
    PrefetchMode::RptStride,
    PrefetchMode::PcDelta,
    PrefetchMode::Adaptive,
];

const FRONT_ENDS: [&str; 2] = ["cycle", "replay"];

const PINNED: &str = include_str!("data/sim_counts.txt");

/// One simulated (workload, front end, mode) cell.
struct Cell {
    /// `"<workload> <front end> <mode key>"`.
    name: String,
    mode: PrefetchMode,
    front_end: &'static str,
    /// Validation and memory statistics; `None` when the mode cannot run
    /// on this workload.
    ran: Option<(bool, MemStats)>,
    /// The cell's line in the document.
    line: String,
}

/// ` validated=<bool>`, then ` key=value` for the front end's own
/// fields followed by the memory fields both front ends share.
fn line_tail(validated: bool, own: Vec<(String, u64)>, mem: &MemStats) -> String {
    let l1 = &mem.l1;
    let shared = [
        ("late_prefetch_merges", l1.late_prefetch_merges),
        ("l1.read_hits", l1.read_hits),
        ("l1.read_misses", l1.read_misses),
        ("l1.prefetch_fills", l1.prefetch_fills),
        ("l1.prefetches_used", l1.prefetches_used),
        ("dram.reads", mem.dram.reads),
    ];
    let mut tail = format!(" validated={validated}");
    for (k, v) in own {
        tail += &format!(" {k}={v}");
    }
    for (k, v) in shared {
        tail += &format!(" {k}={v}");
    }
    tail
}

/// Simulates the 32 cells once per test binary; every test below reads
/// the same results.
fn cells() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let cfg = SystemConfig::paper();
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workloads = map_indexed(jobs, WORKLOADS.len(), |i| {
            let wl = workload_by_name(WORKLOADS[i]).unwrap().build(Scale::Tiny);
            let capture = rp::try_load_or_capture_keyed(
                None,
                &cfg,
                &wl,
                Scale::Tiny.label(),
                etpp::trace::FORMAT_VERSION,
            )
            .expect("baseline capture");
            (wl, capture.trace.records)
        });
        let per_workload = FRONT_ENDS.len() * MODES.len();
        map_indexed(jobs, WORKLOADS.len() * per_workload, |k| {
            let (wl, records) = &workloads[k / per_workload];
            let front_end = FRONT_ENDS[k % per_workload / MODES.len()];
            let mode = MODES[k % MODES.len()];
            let counted = if front_end == "cycle" {
                run(&cfg, mode, wl).ok().map(|r| {
                    let mut own = vec![
                        ("cycles".into(), r.cycles),
                        ("host_iters".into(), r.host_iters),
                    ];
                    own.extend(r.visits.iter().map(|(s, n)| (format!("visits.{s}"), n)));
                    (line_tail(r.validated, own, &r.mem), (r.validated, r.mem))
                })
            } else {
                rp::replay_run(&cfg, mode, wl, records).ok().map(|r| {
                    let own = [
                        ("cycles", r.cycles),
                        ("host_iters", r.host_iters),
                        ("dep_stalls", r.dep_stalls),
                    ];
                    let own = own.map(|(k, v)| (k.to_string(), v)).to_vec();
                    (line_tail(r.validated, own, &r.mem), (r.validated, r.mem))
                })
            };
            let name = format!("{} {front_end} {}", wl.name, mode.key());
            let (tail, ran) = counted.map_or((" skipped".into(), None), |(t, r)| (t, Some(r)));
            Cell {
                line: name.clone() + &tail,
                name,
                mode,
                front_end,
                ran,
            }
        })
    })
}

fn document(cells: &[Cell]) -> String {
    let header = "# <workload> <front end> <mode> validated=<bool> <field>=<count>... \
                  (tests/sim_counts.rs)\n";
    cells
        .iter()
        .fold(header.to_string(), |doc, c| doc + &c.line + "\n")
}

/// Splits a document into `(cell name, line)` pairs, skipping comments.
fn cell_lines(doc: &str) -> Vec<(String, &str)> {
    doc.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| (l.split(' ').take(3).collect::<Vec<_>>().join(" "), l))
        .collect()
}

/// One entry per changed cell: its name and each field that moved.
fn describe_changes(pinned: &str, actual: &str) -> Vec<String> {
    let pinned = cell_lines(pinned);
    let actual = cell_lines(actual);
    let fields = |line: &str| -> Vec<(String, String)> {
        line.split(' ')
            .skip(3)
            .map(|t| match t.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => (t.to_string(), String::new()),
            })
            .collect()
    };
    let mut changes = Vec::new();
    for (name, line) in &actual {
        let Some((_, old)) = pinned.iter().find(|(n, _)| n == name) else {
            changes.push(format!("{name}: new cell"));
            continue;
        };
        if old == line {
            continue;
        }
        let (old, new) = (fields(old), fields(line));
        let mut moved = Vec::new();
        for (key, value) in &new {
            match old.iter().find(|(k, _)| k == key) {
                Some((_, was)) if was == value => {}
                Some((_, was)) => moved.push(format!("{key} {was} -> {value}")),
                None => moved.push(format!("{key} added ({value})")),
            }
        }
        for (key, _) in old.iter().filter(|(k, _)| !new.iter().any(|(n, _)| n == k)) {
            moved.push(format!("{key} removed"));
        }
        changes.push(format!("{name}: {}", moved.join(", ")));
    }
    for (name, _) in pinned
        .iter()
        .filter(|(n, _)| !actual.iter().any(|(a, _)| a == n))
    {
        changes.push(format!("{name}: cell missing"));
    }
    changes
}

#[test]
fn counts_match_the_pinned_document() {
    let actual = document(cells());
    if actual == PINNED {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim_counts.txt");
    std::fs::write(&path, &actual).expect("write the actual document");
    let mut changes = describe_changes(PINNED, &actual);
    if changes.is_empty() {
        changes.push("cell lines equal; the header or line order differs".into());
    }
    panic!(
        "simulated counts differ from tests/data/sim_counts.txt in {} cell(s):\n  {}\n\
         actual document: {}",
        changes.len(),
        changes.join("\n  "),
        path.display()
    );
}

#[test]
fn every_cell_validates_and_every_programmable_mode_replays() {
    for cell in cells() {
        match &cell.ran {
            Some((validated, _)) => assert!(validated, "{}: output does not validate", cell.name),
            None => assert!(
                !(cell.front_end == "replay" && cell.mode.is_programmable()),
                "{}: programmable-mode replay never ran",
                cell.name
            ),
        }
    }
}

/// Accounting identities the simulator must keep whatever its timing:
/// every DRAM access (read or writeback) either hits or misses the open
/// row, and a prefetched line is used or evicted unused at most once per
/// fill (lines still resident at the end are neither).
#[test]
fn memory_statistics_obey_conservation_laws() {
    let prefetch_accounting = |name: &str, level: &str, s: &CacheStats| {
        assert!(
            s.prefetches_used + s.prefetches_unused <= s.prefetch_fills,
            "{name}: {level} prefetches used {} + unused {} exceed fills {}",
            s.prefetches_used,
            s.prefetches_unused,
            s.prefetch_fills
        );
    };
    for cell in cells() {
        let Some((_, mem)) = &cell.ran else { continue };
        let dram = &mem.dram;
        assert_eq!(
            dram.row_hits + dram.row_misses,
            dram.reads + dram.writes,
            "{}: DRAM row hits + misses must equal reads + writes",
            cell.name
        );
        prefetch_accounting(&cell.name, "L1", &mem.l1);
        prefetch_accounting(&cell.name, "L2", &mem.l2);
    }
}

#[test]
fn a_moved_count_names_its_cell_and_field() {
    let pinned = "# header\nIntSort cycle none validated=true cycles=10 dram.reads=4\n\
                  HJ-8 replay manual validated=true cycles=7\n";
    let actual = "# header\nIntSort cycle none validated=true cycles=11 dram.reads=4\n\
                  HJ-8 replay manual validated=true cycles=7\n";
    assert_eq!(
        describe_changes(pinned, actual),
        ["IntSort cycle none: cycles 10 -> 11"]
    );
    assert_eq!(describe_changes(pinned, pinned), Vec::<String>::new());
}
