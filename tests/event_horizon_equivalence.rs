//! Event-horizon scheduler equivalence (PR 2 + PR 3's correctness
//! contract).
//!
//! The batched fast paths — engine-round skipping inside
//! `MemorySystem::tick` and the horizon-aware driver (`FrontEnd::
//! next_event_at` + `MemorySystem::advance_to`) on both of its front
//! ends, the cycle core and trace replay — must be *bit-identical* to a
//! per-cycle unit-tick reference loop: same cycle counts, same core and
//! memory statistics, same retirement streams, same prefetch request
//! stream (cycle, address, tag, metadata), same engine counters, same
//! post-run image checksum. Any divergence means a horizon contract
//! (`PrefetchEngine::next_event_at` or a front end's `next_event_at`)
//! under-reported pending work. One helper, `common::
//! assert_equivalent_with`, makes every check on either front end.

mod common;

use common::{assert_equivalent, assert_equivalent_with, Front};
use etpp::sim::{
    make_engine, try_load_or_capture_keyed, Engine, PrefetchMode, RunResult, SystemConfig,
};
use etpp::trace::{replay, ReplayParams, TraceRecord, FORMAT_VERSION};
use etpp::workloads::{workload_by_name, BuiltWorkload, Scale};

fn built(name: &str) -> BuiltWorkload {
    workload_by_name(name).unwrap().build(Scale::Tiny)
}

// ---------------------------------------------------------------------------
// Replay path: the trace front end vs per-cycle reference
// ---------------------------------------------------------------------------

#[test]
fn null_engine_is_horizon_equivalent() {
    assert_equivalent(Front::Replay, PrefetchMode::None, &built("IntSort"));
}

#[test]
fn stride_is_horizon_equivalent() {
    assert_equivalent(Front::Replay, PrefetchMode::Stride, &built("IntSort"));
}

#[test]
fn ghb_is_horizon_equivalent() {
    assert_equivalent(Front::Replay, PrefetchMode::GhbRegular, &built("RandAcc"));
}

#[test]
fn programmable_is_horizon_equivalent_on_mixed_workloads() {
    // HJ-8 mixes strided probes, hash indirection and linked-list walks
    // (tagged chained prefetches); IntSort mixes dense histogramming
    // with indirect scatter stores; G500-List is the pure pointer-chase
    // extreme whose replay is dominated by store-parked front-end waits.
    for name in ["IntSort", "HJ-8", "G500-List"] {
        assert_equivalent(Front::Replay, PrefetchMode::Manual, &built(name));
    }
}

#[test]
fn blocked_mode_is_horizon_equivalent() {
    // Blocked mode exercises the timeout-as-scheduled-event path and
    // blocked-PPU horizon accounting.
    assert_equivalent(Front::Replay, PrefetchMode::Blocked, &built("HJ-8"));
}

#[test]
fn replay_pf_buffer_backlog_is_horizon_equivalent() {
    // A 1-entry prefetch buffer keeps the manual kernels' pop queue
    // permanently backlogged, exercising the wake-on-slot-free engine
    // horizon (`PrefetchEngine::next_tick_at` + the `PfBufFill` re-arm)
    // on the replay path: pop cycles, request streams and statistics
    // must stay bit-identical to per-cycle ticking.
    assert_equivalent_with(
        Front::Replay,
        PrefetchMode::Manual,
        &built("IntSort"),
        |cfg| {
            cfg.mem.pf_buffer_entries = 1;
        },
    );
    assert_equivalent_with(Front::Replay, PrefetchMode::Manual, &built("HJ-8"), |cfg| {
        cfg.mem.pf_buffer_entries = 2;
    });
}

// ---------------------------------------------------------------------------
// Cycle-level path: horizon-aware driver vs per-cycle reference
// ---------------------------------------------------------------------------

/// Every registered mode — the full Figure 7 set, the Figure 11
/// blocked ablation and the engine zoo (`PrefetchMode::ALL` is the
/// single source of truth) — on the two stall-density extremes: IntSort
/// (dense histogramming + indirect scatter stores) and HJ-8 (strided
/// probes, hash indirection and linked-list walks). Inexpressible
/// (workload, mode) pairs skip, as in the experiment grid.
#[test]
fn cycle_path_is_horizon_equivalent_across_modes() {
    for wl_name in ["IntSort", "HJ-8"] {
        let wl = workload_by_name(wl_name).unwrap().build(Scale::Tiny);
        for mode in PrefetchMode::ALL {
            assert_equivalent(Front::Cycle, mode, &wl);
        }
    }
}

/// Wake-driven structural stalls under load-queue saturation: a 2-entry
/// LQ keeps the memory queue pinned at capacity for most of the run, so
/// the driver spends the run parked on LQ-free wakes. The fast path
/// must stay bit-identical to the per-cycle reference *and* beat the
/// pre-wake fast-forward factor (before this change the structural
/// stalls pinned per-cycle revisits: ff 4.64 on HJ-8, 4.46 on IntSort
/// at exactly this configuration; the floors below demand at least
/// 2x that).
#[test]
fn lq_saturation_is_horizon_equivalent_and_faster() {
    for (wl_name, min_ff) in [("HJ-8", 9.3), ("IntSort", 8.9)] {
        let wl = workload_by_name(wl_name).unwrap().build(Scale::Tiny);
        let ff = assert_equivalent_with(Front::Cycle, PrefetchMode::Manual, &wl, |cfg| {
            cfg.core.lq_entries = 2;
        });
        assert!(
            ff > min_ff,
            "{wl_name}: LQ-saturated fast-forward {ff:.2}x must beat the pre-wake \
             per-cycle-revisit behaviour by 2x (floor {min_ff}x)"
        );
    }
}

/// A tiny window whose sizes are not powers of two (ROB 7, IQ 5, LQ 2,
/// SQ 3): the ROB slot index wraps every seven ops, the two-entry
/// in-flight-load list is full for most of the run and IntSort's scatter
/// stores keep the three-entry store queue at capacity — corners of the
/// core's flat per-slot state the paper window (ROB 40, LQ 16, SQ 32)
/// never reaches.
#[test]
fn tiny_non_power_of_two_window_is_horizon_equivalent() {
    let wl = workload_by_name("IntSort").unwrap().build(Scale::Tiny);
    for mode in [PrefetchMode::None, PrefetchMode::Manual] {
        assert_equivalent_with(Front::Cycle, mode, &wl, |cfg| {
            cfg.core.rob_entries = 7;
            cfg.core.iq_entries = 5;
            cfg.core.lq_entries = 2;
            cfg.core.sq_entries = 3;
        });
    }
}

/// Wake-driven engine rounds under prefetch-buffer backlog: a 1-entry
/// `pf_buffer` with 3 L1 MSHRs keeps the manual kernels' pop queue
/// permanently backlogged and the demand path bouncing off the MSHR
/// file (481,946 synthesised load retries on IntSort — bit-exact
/// against the reference). Before wake-on-slot-free the backlog pinned
/// per-cycle engine rounds and the MSHR bounces pinned per-cycle driver
/// revisits: ff 1.61 on IntSort, 4.90 on HJ-8 (2-entry buffer) at
/// exactly these configurations; the floors demand at least 2x that.
#[test]
fn pf_buffer_backlog_is_horizon_equivalent_and_faster() {
    let wl = workload_by_name("IntSort").unwrap().build(Scale::Tiny);
    let ff = assert_equivalent_with(Front::Cycle, PrefetchMode::Manual, &wl, |cfg| {
        cfg.mem.pf_buffer_entries = 1;
        cfg.mem.l1.mshrs = 3;
    });
    assert!(
        ff > 3.2,
        "IntSort: pf-buffer-backlogged fast-forward {ff:.2}x must beat the pre-wake \
         behaviour by 2x (floor 3.2x)"
    );
    let wl = workload_by_name("HJ-8").unwrap().build(Scale::Tiny);
    let ff = assert_equivalent_with(Front::Cycle, PrefetchMode::Manual, &wl, |cfg| {
        cfg.mem.pf_buffer_entries = 2;
    });
    assert!(
        ff > 9.8,
        "HJ-8: pf-buffer-backlogged fast-forward {ff:.2}x must beat the pre-wake \
         behaviour by 2x (floor 9.8x)"
    );
}

/// The two stall-density extremes the observer-transparency tests run
/// on, with their Tiny captures: built once and shared by both tests.
fn observed_workloads() -> &'static [(BuiltWorkload, Vec<TraceRecord>)] {
    static WORKLOADS: std::sync::OnceLock<Vec<(BuiltWorkload, Vec<TraceRecord>)>> =
        std::sync::OnceLock::new();
    WORKLOADS.get_or_init(|| {
        let cfg = SystemConfig::paper();
        ["IntSort", "HJ-8"]
            .into_iter()
            .map(|name| {
                let wl = workload_by_name(name).unwrap().build(Scale::Tiny);
                let records = try_load_or_capture_keyed(None, &cfg, &wl, "tiny", FORMAT_VERSION)
                    .unwrap()
                    .trace
                    .records;
                (wl, records)
            })
            .collect()
    })
}

/// Observers read the machine and never write it. A run carrying the
/// telemetry probe (histograms, lifecycle tracking, phase sampling and
/// span recording) must be bit-identical to a plain run in every
/// externally visible respect — cycles, driver visits and their
/// attribution, core and memory statistics, engine counters, EWMA
/// state and the adaptive decision log — for every registered mode on
/// both stall-density extremes.
#[test]
fn telemetry_is_observationally_transparent() {
    use etpp::sim::{run, run_telemetry};
    let cfg = SystemConfig::paper();
    for (wl, _) in observed_workloads() {
        for mode in PrefetchMode::ALL {
            let label = format!("{}/{mode:?}", wl.name);
            let Ok(plain) = run(&cfg, mode, wl) else {
                continue; // mode not expressible for this workload
            };
            // A deliberately short sampling interval: more samples
            // mean more chances for the probe to perturb the run.
            let (teled, report) = run_telemetry(&cfg, mode, wl, 5_000).expect("expressible above");
            assert_same_run(&format!("{label} (telemetry)"), &plain, &teled);
            // And the observation itself must have substance.
            assert!(
                report.registry.hist("mem.load_latency").unwrap().count() > 0,
                "{label}: load-latency histogram must be populated"
            );
            assert!(
                !report.phases.samples.is_empty(),
                "{label}: phase sampler must have fired"
            );
        }
    }
}

/// The same contract for an armed deadline that never fires, on the
/// cycle and the replay paths.
#[test]
fn armed_watchdog_is_bit_identical_when_the_budget_never_fires() {
    use etpp::sim::{replay_run, replay_run_watched, run, run_watched, Deadline};
    use std::time::Duration;
    // Generous enough that it cannot fire at Tiny scale; the strided
    // deadline polls and livelock bookkeeping still execute on every
    // driver visit, which is exactly what must stay invisible.
    let budget = Duration::from_secs(3600);
    let cfg = SystemConfig::paper();
    for (wl, records) in observed_workloads() {
        for mode in PrefetchMode::ALL {
            let label = format!("{}/{mode:?}", wl.name);
            if let Ok(plain) = run(&cfg, mode, wl) {
                let deadline = Deadline::after(budget);
                assert!(deadline.is_some(), "the deadline is armed");
                let watched = run_watched(&cfg, mode, wl, deadline).expect("expressible above");
                assert_same_run(&format!("{label} (deadline)"), &plain, &watched);
            }
            if let Ok(plain) = replay_run(&cfg, mode, wl, records) {
                let deadline = Deadline::after(budget);
                let watched = replay_run_watched(&cfg, mode, wl, records, deadline)
                    .expect("expressible above");
                assert_eq!(
                    (plain.cycles, plain.host_iters, plain.dep_stalls),
                    (watched.cycles, watched.host_iters, watched.dep_stalls),
                    "{label}: watched replay must be cycle-identical"
                );
                assert_eq!(
                    plain.mem, watched.mem,
                    "{label}: watched replay memory statistics must be bit-identical"
                );
                assert!(
                    plain.validated && watched.validated,
                    "{label}: both replays must reproduce the reference output"
                );
            }
        }
    }
}

/// Asserts an observed run is bit-identical to the plain one.
fn assert_same_run(label: &str, plain: &RunResult, observed: &RunResult) {
    assert_eq!(
        plain.cycles, observed.cycles,
        "{label}: an observer must not change the cycle count"
    );
    assert_eq!(
        plain.host_iters, observed.host_iters,
        "{label}: the driver must visit the same cycles"
    );
    assert_eq!(
        plain.visits, observed.visits,
        "{label}: visit attribution must be bit-identical"
    );
    assert_eq!(
        plain.core, observed.core,
        "{label}: core statistics must be bit-identical"
    );
    assert_eq!(
        plain.mem, observed.mem,
        "{label}: memory statistics must be bit-identical"
    );
    assert_eq!(
        plain.pf, observed.pf,
        "{label}: engine counters must be bit-identical"
    );
    assert_eq!(
        plain.final_lookahead, observed.final_lookahead,
        "{label}: EWMA look-ahead must match"
    );
    assert_eq!(
        plain.adaptive, observed.adaptive,
        "{label}: the adaptive decision log must not read an observer"
    );
    assert!(
        plain.validated && observed.validated,
        "{label}: both runs must reproduce the reference output"
    );
}

/// Small-scale spot check (the scale of the nightly telemetry grid): the
/// per-cycle reference takes seconds per run in release and minutes in
/// debug, so this is ignored by default — run it explicitly
/// (`cargo test --release -- --ignored`) before trusting a
/// horizon-contract change at full stall density.
#[test]
#[ignore = "minutes-long under the per-cycle reference; run with --ignored"]
fn cycle_path_is_horizon_equivalent_at_small_scale() {
    for wl_name in ["IntSort", "HJ-8"] {
        let wl = workload_by_name(wl_name).unwrap().build(Scale::Small);
        for mode in [
            PrefetchMode::None,
            PrefetchMode::Stride,
            PrefetchMode::Manual,
        ] {
            assert_equivalent(Front::Cycle, mode, &wl);
        }
    }
}

/// The programmable engine's hot path must be allocation-free in steady
/// state: after a warm-up pass over the trace, a second pass through the
/// same engine must not regrow any scratch buffer.
#[test]
#[cfg(debug_assertions)]
fn programmable_hot_path_is_allocation_free_when_warm() {
    let wl = workload_by_name("HJ-8").unwrap().build(Scale::Tiny);
    let cfg = SystemConfig::paper();
    let trace = try_load_or_capture_keyed(None, &cfg, &wl, "tiny", FORMAT_VERSION)
        .unwrap()
        .trace;
    let mut engine = make_engine(&cfg, PrefetchMode::Manual, &wl).unwrap();
    replay(
        &ReplayParams::default(),
        cfg.mem,
        wl.image.clone(),
        &trace.records,
        engine.as_dyn(),
    );
    let Engine::Prog(p) = &engine else {
        panic!("manual mode is programmable")
    };
    let warm = p.scratch_regrows();
    replay(
        &ReplayParams::default(),
        cfg.mem,
        wl.image.clone(),
        &trace.records,
        engine.as_dyn(),
    );
    let Engine::Prog(p) = &engine else {
        panic!("manual mode is programmable")
    };
    assert_eq!(
        p.scratch_regrows(),
        warm,
        "scratch buffers must not reallocate once warm"
    );
}
