//! Pinned Tiny captures: every Table-2 workload's baseline capture
//! (`run_captured`, no prefetching) has a pinned record count and
//! content hash, so any change to what the core records — an access, its
//! retirement cycle, its store data or a load→load dependence distance —
//! names the workload whose stream moved. PageRank and G500-CSR carry
//! producers far enough back to exercise the tracker's long-range map;
//! IntSort, G500-CSR and G500-List contain store-forwarded loads.
//!
//! The same captures check that the record vector is reserved exactly
//! once, for every load, store and config op of the trace.
//!
//! Each Tiny workload's trace-cache key is pinned too: it names the
//! cached capture file, so a key that moves silently orphans every
//! cached `.etpt`.

use etpp::sim::replay::workload_trace_key;
use etpp::sim::{run_captured, PrefetchMode, SystemConfig};
use etpp::trace::content_hash;
use etpp::workloads::{all_workloads, Scale};

/// `(workload, records, content hash)`.
const PINNED: [(&str, usize, u64); 8] = [
    ("G500-CSR", 72864, 0xa0874894fc2892e3),
    ("G500-List", 71257, 0xbd37fb2edff5f70e),
    ("HJ-2", 47482, 0x37c182332b4ac4ed),
    ("HJ-8", 43653, 0x60e0365ef4453992),
    ("PageRank", 69260, 0x267003f2bbcde7cb),
    ("RandAcc", 64000, 0x3cfe16ff1a2bafe3),
    ("IntSort", 59998, 0xe8e2e99db23464bd),
    ("ConjGrad", 52000, 0x2cc1749f06a36364),
];

#[test]
fn tiny_captures_match_their_pinned_counts_and_hashes() {
    let cfg = SystemConfig::paper();
    let mut moved = Vec::new();
    let mut forwarding = Vec::new();
    for (w, &(name, records, hash)) in all_workloads().into_iter().zip(&PINNED) {
        let wl = w.build(Scale::Tiny);
        assert_eq!(wl.name, name, "Table-2 order");
        let (r, t) = run_captured(&cfg, PrefetchMode::None, &wl, "tiny").unwrap();
        assert!(r.validated, "{name}: capture run must validate");
        let c = wl.trace.class_counts();
        let reserved = (c.loads + c.stores + c.config) as usize;
        assert_eq!(
            t.records.capacity(),
            reserved,
            "{name}: reserve once, exactly"
        );
        // Only store-forwarded loads are left out of the capture.
        if t.records.len() < reserved {
            assert!(r.core.store_forwards > 0, "{name}: records missing");
            forwarding.push(name);
        }
        let got = (t.records.len(), content_hash(&t.records));
        if got != (records, hash) {
            moved.push(format!(
                "{name}: records {records} -> {}, hash {hash:#018x} -> {:#018x}",
                got.0, got.1
            ));
        }
    }
    assert!(moved.is_empty(), "captures moved:\n{}", moved.join("\n"));
    assert_eq!(forwarding, ["G500-CSR", "G500-List", "IntSort"]);
}

/// `(workload, workload_trace_key(wl, "tiny"))`: the trace-cache key of
/// each Tiny workload. It hashes the logical trace — each op's fields
/// with its dependences as absolute `index + 1` values — so a change to
/// how a built trace is laid out in memory renames no cached capture.
const TRACE_KEYS: [(&str, u64); 8] = [
    ("G500-CSR", 0x67b35ae30b4fff78),
    ("G500-List", 0x4a33995baa58460d),
    ("HJ-2", 0xd7fa44eb4261d8cd),
    ("HJ-8", 0x44f742ae1a5c0fa9),
    ("PageRank", 0xb6ad7a0d071fad4c),
    ("RandAcc", 0x5bfa3b8e78c19dd4),
    ("IntSort", 0x172cfc3c0039ed63),
    ("ConjGrad", 0xf725fa4b0bdce307),
];

#[test]
fn tiny_trace_keys_match_their_pins() {
    let mut moved = Vec::new();
    for (w, &(name, key)) in all_workloads().into_iter().zip(&TRACE_KEYS) {
        let wl = w.build(Scale::Tiny);
        assert_eq!(wl.name, name, "Table-2 order");
        let got = workload_trace_key(&wl, "tiny");
        if got != key {
            moved.push(format!("{name}: key {key:#018x} -> {got:#018x}"));
        }
    }
    assert!(moved.is_empty(), "trace keys moved:\n{}", moved.join("\n"));
}
