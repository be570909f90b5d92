//! Cross-engine differential suite for the prefetcher zoo (PR 10's
//! headline contract).
//!
//! Every zoo engine — the RPT-style stride cross-check, the PC-delta
//! accuracy-threshold engine and the phase-adaptive meta-engine — must:
//!
//! 1. be **bit-identical** on the horizon-aware fast path vs the
//!    per-cycle unit-tick reference, on both of the driver's front ends
//!    (cycle core and trace replay);
//! 2. be **observationally transparent** under telemetry on the
//!    synthetic two-phase workload (every mode's transparency on the
//!    Table 2 workloads is the equivalence suite's
//!    `telemetry_is_observationally_transparent`);
//! 3. produce **byte-identical experiment tables** for any `--jobs`
//!    worker count.
//!
//! On top of the per-engine contracts, the suite pins the differential
//! properties that justify having a zoo at all: the two independent
//! stride implementations agree on pure-stride streams (same issued
//! prefetch multiset once both are steady), the accuracy-threshold
//! engine provably throttles to silence on an adversarial low-accuracy
//! stream (and provably does not once the threshold is removed), and
//! the adaptive meta-engine switches exactly once on the synthetic
//! two-phase workload and beats every static configuration it chooses
//! between.

mod common;

use common::{assert_equivalent, Front};
use etpp::baselines::{
    PcDeltaParams, PcDeltaPrefetcher, RptStridePrefetcher, StrideParams, StridePrefetcher,
};
use etpp::mem::{DemandEvent, PrefetchEngine, LINE_SIZE};
use etpp::sim::experiments::{columns, cross, CycleGrid, Grid};
use etpp::sim::{
    replay_run, report, run, run_telemetry, try_load_or_capture_keyed, PrefetchMode, SystemConfig,
};
use etpp::trace::FORMAT_VERSION;
use etpp::workloads::{workload_by_name, BuiltWorkload, Scale, Workload};

fn built(name: &str) -> BuiltWorkload {
    workload_by_name(name).unwrap().build(Scale::Tiny)
}

fn two_phase() -> BuiltWorkload {
    etpp::workloads::phases::TwoPhase.build(Scale::Tiny)
}

/// The differential-suite workload set: the two stall-density extremes
/// of the Table 2 benchmarks plus the synthetic two-phase workload the
/// adaptive engine exists for.
fn suite_workloads() -> Vec<BuiltWorkload> {
    vec![built("IntSort"), built("HJ-8"), two_phase()]
}

/// The grid both zoo tables are read from: `repro zoo`'s columns.
fn zoo_grid(workloads: &[BuiltWorkload], jobs: usize) -> CycleGrid {
    let cfg = SystemConfig::paper();
    let cells = cross(workloads.len(), &columns("zoo"));
    Grid::run(workloads, &cells, jobs, |_, w, mode| run(&cfg, mode, w))
}

// ---------------------------------------------------------------------------
// 1. Fast path vs per-cycle reference, cycle-level and replay front ends
// ---------------------------------------------------------------------------

/// IntSort and HJ-8 × every mode (the zoo included) are the equivalence
/// suite's `cycle_path_is_horizon_equivalent_across_modes` on the cycle
/// core, so only the synthetic TwoPhase workload is this suite's own.
#[test]
fn zoo_cycle_path_is_bit_identical_to_per_cycle_reference() {
    let wl = &two_phase();
    for mode in PrefetchMode::ZOO {
        assert_equivalent(Front::Cycle, mode, wl);
    }
}

/// Every zoo mode on the replay front end, over the suite set.
#[test]
fn zoo_replay_fast_path_matches_per_cycle_reference() {
    for wl in &suite_workloads() {
        for mode in PrefetchMode::ZOO {
            assert_equivalent(Front::Replay, mode, wl);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Telemetry transparency
// ---------------------------------------------------------------------------

/// The two-phase workload is where the adaptive engine switches, so it
/// is where a decision that read telemetry would show.
#[test]
fn zoo_engines_are_telemetry_transparent() {
    let cfg = SystemConfig::paper();
    let wl = two_phase();
    let name = wl.name;
    for mode in PrefetchMode::ZOO {
        let plain = run(&cfg, mode, &wl).expect("zoo modes never skip");
        let (teled, report) = run_telemetry(&cfg, mode, &wl, 5_000).expect("zoo modes");
        assert_eq!(
            plain.cycles, teled.cycles,
            "{name}/{mode:?}: telemetry must not change the cycle count"
        );
        assert_eq!(plain.core, teled.core, "{name}/{mode:?}: core statistics");
        assert_eq!(plain.mem, teled.mem, "{name}/{mode:?}: memory statistics");
        assert_eq!(plain.pf, teled.pf, "{name}/{mode:?}: engine counters");
        assert_eq!(
            plain.host_iters, teled.host_iters,
            "{name}/{mode:?}: the driver must visit the same cycles"
        );
        assert_eq!(
            plain.visits, teled.visits,
            "{name}/{mode:?}: visit attribution"
        );
        assert_eq!(
            plain.final_lookahead, teled.final_lookahead,
            "{name}/{mode:?}: EWMA look-ahead"
        );
        assert_eq!(
            plain.adaptive, teled.adaptive,
            "{name}/{mode:?}: the adaptive decision log must not read telemetry"
        );
        assert!(plain.validated && teled.validated, "{name}/{mode:?}");
        assert!(
            !report.phases.samples.is_empty(),
            "{name}/{mode:?}: phase sampler must have fired"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Determinism across worker counts
// ---------------------------------------------------------------------------

#[test]
fn zoo_tables_are_byte_identical_for_any_job_count() {
    // Both zoo tables are projections of one grid over the zoo columns.
    let workloads = suite_workloads();
    let tables = |jobs: usize| {
        let grid = zoo_grid(&workloads, jobs);
        let rows: Vec<(&CycleGrid, &str)> = workloads.iter().map(|w| (&grid, w.name)).collect();
        report::grid_table("zoo", &grid) + &report::adaptive_table(&rows)
    };
    assert_eq!(
        tables(1),
        tables(4),
        "zoo grid must shard deterministically"
    );
}

// ---------------------------------------------------------------------------
// 4. Differential: the two stride implementations agree
// ---------------------------------------------------------------------------

/// Feeds one demand access and drains every pending request.
fn step(e: &mut dyn PrefetchEngine, now: u64, vaddr: u64, pc: u32) -> Vec<u64> {
    e.on_demand(
        now,
        &DemandEvent {
            at: now,
            vaddr,
            pc,
            is_write: false,
            l1_hit: false,
        },
    );
    let mut out = Vec::new();
    while let Some(r) = e.pop_request(now) {
        out.push(r.vaddr);
    }
    out
}

#[test]
fn stride_and_rpt_issue_the_same_multiset_on_pure_stride_streams() {
    for stride in [LINE_SIZE, 2 * LINE_SIZE, 3 * LINE_SIZE] {
        let mut classic = StridePrefetcher::new(StrideParams::paper());
        let mut rpt = RptStridePrefetcher::new(StrideParams::paper());
        let base = 0x10_0000_u64;
        // Warm-up: the engines steady at different accesses (RPT one
        // earlier), so their first issue batches — and the contents of
        // their dedup rings — differ transiently. 48 accesses flush
        // both 32-entry rings past the divergence.
        for k in 0..48_u64 {
            let a = base + k * stride;
            step(&mut classic, k, a, 0x40);
            step(&mut rpt, k, a, 0x40);
        }
        // Steady state: every access must net the identical issue set.
        let mut classic_issued = Vec::new();
        let mut rpt_issued = Vec::new();
        for k in 48..112_u64 {
            let a = base + k * stride;
            classic_issued.extend(step(&mut classic, k, a, 0x40));
            rpt_issued.extend(step(&mut rpt, k, a, 0x40));
        }
        classic_issued.sort_unstable();
        rpt_issued.sort_unstable();
        assert!(
            !classic_issued.is_empty(),
            "stride {stride}: steady-state stream must issue prefetches"
        );
        assert_eq!(
            classic_issued, rpt_issued,
            "stride {stride}: the two stride implementations must issue \
             the same prefetch multiset once steady"
        );
    }
}

// ---------------------------------------------------------------------------
// 5. Differential: the accuracy threshold is what throttles
// ---------------------------------------------------------------------------

#[test]
fn pc_delta_throttles_on_an_adversarial_stream_because_of_its_threshold() {
    // A deterministic LCG address stream from one PC: every observed
    // delta is (nearly) unique, so no (PC, delta) slot ever crosses the
    // paper threshold. The engine must stay silent.
    let drive = |params: PcDeltaParams| -> usize {
        let mut e = PcDeltaPrefetcher::new(params);
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut issued = 0;
        for k in 0..4096_u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let vaddr = 0x40_0000 + (x % (1 << 24));
            issued += step(&mut e, k, vaddr, 0x80).len();
        }
        issued
    };
    assert_eq!(
        drive(PcDeltaParams::paper()),
        0,
        "adversarial low-accuracy stream must be fully throttled"
    );
    // The differential half: with the threshold removed (0.0 admits
    // every seasoned slot), the very same stream issues — proving the
    // silence above is the accuracy threshold at work, not dead code.
    let unthrottled = PcDeltaParams {
        threshold: 0.0,
        ..PcDeltaParams::paper()
    };
    assert!(
        drive(unthrottled) > 0,
        "with the threshold removed the same stream must issue"
    );
}

// ---------------------------------------------------------------------------
// 6. Phase-adaptive reconfiguration on the two-phase workload
// ---------------------------------------------------------------------------

#[test]
fn adaptive_switches_once_at_the_phase_boundary_and_beats_both_statics() {
    let grid = zoo_grid(&[two_phase()], 2);
    let cell = |mode| grid.get("TwoPhase", mode).expect("zoo modes never skip");
    let adaptive = cell(PrefetchMode::Adaptive);
    let summary = adaptive.adaptive.as_ref().expect("decision log");

    // Pinned decision log: exactly one reconfiguration — streaming
    // phase on stride, pointer-chase phase on PC-delta — and PC-delta
    // is the engine left standing at the end.
    assert_eq!(
        summary.reconfigurations, 1,
        "the two-phase workload must trigger exactly one switch: {summary:?}"
    );
    assert_eq!(
        summary.final_choice,
        etpp::sim::AdaptiveChoice::PcDelta,
        "the pointer-chase tail must leave PC-delta active: {summary:?}"
    );

    // The meta-engine must beat every static configuration it chooses
    // between (that is the point of switching; the no-PF baseline is
    // context, not a contender).
    for mode in [PrefetchMode::Stride, PrefetchMode::PcDelta] {
        let cycles = cell(mode).cycles;
        assert!(
            adaptive.cycles < cycles,
            "adaptive ({}) must beat static {mode:?} ({cycles}) on TwoPhase",
            adaptive.cycles
        );
    }

    // And the rendered report carries the full comparison.
    let table = report::adaptive_table(&[(&grid, "TwoPhase")]);
    for needle in ["TwoPhase", "Adaptive (cycles)", "pc_delta", "No-PF"] {
        assert!(table.contains(needle), "missing {needle:?} in:\n{table}");
    }
}

// ---------------------------------------------------------------------------
// 7. The registry is the single source of truth
// ---------------------------------------------------------------------------

#[test]
fn every_zoo_mode_is_registered_and_replayable() {
    let cfg = SystemConfig::paper();
    let wl = built("IntSort");
    let trace = try_load_or_capture_keyed(None, &cfg, &wl, "tiny", FORMAT_VERSION)
        .unwrap()
        .trace;
    for mode in PrefetchMode::ZOO {
        assert!(
            PrefetchMode::ALL.contains(&mode),
            "{mode:?} missing from PrefetchMode::ALL"
        );
        assert_eq!(
            mode.key().parse::<PrefetchMode>().as_ref(),
            Ok(&mode),
            "{mode:?} must round-trip through the registry"
        );
        let r = replay_run(&cfg, mode, &wl, &trace.records).expect("zoo modes replay");
        assert!(r.validated, "{mode:?}: replay must reproduce the output");
    }
}
