//! Absolute-cycle agreement between trace replay and the cycle core.
//!
//! A bare issue window replays pointer-chase workloads optimistically:
//! every load in the window issues as soon as a slot frees, so
//! traversal serialisation is under-modelled and absolute cycle counts
//! sit well below the cycle core's (0.86 off on HJ-8 at Tiny when that
//! model was last measured). Traces record load→load dependence edges
//! and replay honours them, which must keep replay's absolute cycles
//! inside a pinned tolerance of the cycle core.
//!
//! Tolerances are pinned from measured values (same-host, deterministic
//! simulation) recorded next to each constant.

use etpp::sim::{replay as rp, run, run_captured, PrefetchMode, SystemConfig};
use etpp::workloads::{workload_by_name, Scale};

/// Runs the cycle core and replay over one (workload, mode) cell and
/// returns `(cycle-core cycles, relative absolute-cycle error of the
/// replayed count)`.
fn measure(wl: &etpp::workloads::BuiltWorkload, mode: PrefetchMode, label: &str) -> (u64, f64) {
    let cfg = SystemConfig::paper();
    let (baseline, trace) =
        run_captured(&cfg, PrefetchMode::None, wl, label).expect("baseline runs");
    assert!(baseline.validated);
    let cycle = if mode == PrefetchMode::None {
        baseline.cycles
    } else {
        run(&cfg, mode, wl).expect("mode expressible").cycles
    };
    assert_eq!(
        trace.meta.capture_cycles, baseline.cycles,
        "the capture must carry the cycle core's cycle count"
    );
    let replayed = rp::replay_run(&cfg, mode, wl, &trace.records).expect("replays");
    assert!(replayed.validated, "replay must reproduce output");
    assert!(
        replayed.dep_stalls > 0,
        "{}: dependence-aware replay must actually serialise some loads",
        wl.name
    );
    let err = (replayed.cycles as f64 - cycle as f64).abs() / cycle.max(1) as f64;
    (cycle, err)
}

/// Tiny-scale agreement gate, run on every `cargo test`. Measured on
/// the pinning host (debug and release identical — the simulator is
/// deterministic):
///
/// | workload | mode   | err    |
/// |----------|--------|--------|
/// | IntSort  | none   | 0.0774 |
/// | IntSort  | manual | 0.1244 |
/// | HJ-8     | none   | 0.1480 |
/// | HJ-8     | manual | 0.1451 |
const TINY_TOLERANCE: f64 = 0.25;

#[test]
fn tiny_replay_stays_within_tolerance_of_the_cycle_core() {
    for name in ["IntSort", "HJ-8"] {
        let wl = workload_by_name(name).unwrap().build(Scale::Tiny);
        for mode in [PrefetchMode::None, PrefetchMode::Manual] {
            let (cycle, err) = measure(&wl, mode, "tiny");
            eprintln!("tiny {name}/{mode:?}: cycle={cycle} err={err:.4}");
            assert!(
                err <= TINY_TOLERANCE,
                "{name}/{mode:?}: error {err:.4} above tolerance {TINY_TOLERANCE}"
            );
        }
    }
}

/// Small-scale pinned agreement — the scale the ROADMAP item is
/// measured at. Values measured on the pinning host (deterministic);
/// replay remains optimistic — no front-end or branch modelling.
///
/// `(workload, manual err)`
const SMALL_MANUAL_MEASURED: &[(&str, f64)] = &[("IntSort", 0.1361), ("HJ-8", 0.0858)];

/// Manual-mode absolute-cycle error ceiling at Small scale.
const SMALL_TOLERANCE: f64 = 0.15;

/// Slack around the pinned measured errors: simulation is
/// deterministic, so drift here means the front-end model changed —
/// re-measure and re-pin deliberately, don't widen the slack.
const PIN_SLACK: f64 = 0.02;

#[test]
#[ignore = "small-scale cycle runs; run with --ignored in release (CI does)"]
fn small_scale_manual_agreement_matches_pinned_values() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: small-scale fidelity is pinned in release builds only");
        return;
    }
    for &(name, pinned) in SMALL_MANUAL_MEASURED {
        let wl = workload_by_name(name).unwrap().build(Scale::Small);
        let (cycle, err) = measure(&wl, PrefetchMode::Manual, "small");
        eprintln!("small {name}/manual: cycle={cycle} err={err:.4}");
        assert!(
            err <= SMALL_TOLERANCE,
            "{name}: error {err:.4} above tolerance {SMALL_TOLERANCE}"
        );
        assert!(
            (err - pinned).abs() <= PIN_SLACK,
            "{name}: error {err:.4} drifted from pinned {pinned:.4}"
        );
    }
}
