//! End-to-end integration tests: every benchmark, every mode, validated.

use etpp::sim::{run, PrefetchMode, SystemConfig};
use etpp::workloads::{all_workloads, Scale};

/// Every workload must produce the reference result under every mode that
/// applies — prefetching is a pure performance hint and must never change
/// program output.
#[test]
fn all_workloads_validate_under_all_modes() {
    let cfg = SystemConfig::paper();
    for w in all_workloads() {
        let wl = w.build(Scale::Tiny);
        for mode in PrefetchMode::ALL {
            match run(&cfg, mode, &wl) {
                Ok(r) => {
                    assert!(
                        r.validated,
                        "{} under {:?} corrupted program output",
                        wl.name, mode
                    );
                    assert!(r.cycles > 0);
                    assert_eq!(
                        r.dyn_insts,
                        match mode {
                            PrefetchMode::Software => wl.sw_trace().unwrap().len() as u64,
                            _ => wl.trace.len() as u64,
                        },
                        "{} under {:?} retired a different instruction count",
                        wl.name,
                        mode
                    );
                }
                Err(_) => {
                    // Skips must match the paper's impossible combinations.
                    assert!(
                        matches!(
                            mode,
                            PrefetchMode::Software | PrefetchMode::Converted | PrefetchMode::Pragma
                        ),
                        "{} unexpectedly skipped {:?}",
                        wl.name,
                        mode
                    );
                }
            }
        }
    }
}

/// The blocked ablation must also run for every workload with a manual
/// program (Figure 11 covers all eight).
#[test]
fn blocked_mode_runs_everywhere() {
    let cfg = SystemConfig::paper();
    for w in all_workloads() {
        let wl = w.build(Scale::Tiny);
        let r = run(&cfg, PrefetchMode::Blocked, &wl).expect("manual program exists");
        assert!(r.validated, "{} blocked run corrupted output", wl.name);
    }
}

/// Figure 7's qualitative shape at Tiny scale: the programmable prefetcher
/// (manual) wins or ties every benchmark, and the history prefetcher with
/// SRAM-sized state does roughly nothing.
#[test]
fn fig7_shape_manual_wins() {
    let cfg = SystemConfig::paper();
    let mut manual_speedups = Vec::new();
    for w in all_workloads() {
        let wl = w.build(Scale::Tiny);
        let base = run(&cfg, PrefetchMode::None, &wl).expect("baseline").cycles as f64;
        let manual = run(&cfg, PrefetchMode::Manual, &wl).expect("manual").cycles as f64;
        let ghb = run(&cfg, PrefetchMode::GhbRegular, &wl)
            .expect("ghb")
            .cycles as f64;
        let manual_speedup = base / manual;
        let ghb_speedup = base / ghb;
        manual_speedups.push((wl.name, manual_speedup));
        assert!(
            manual_speedup > 0.95,
            "{}: manual must never meaningfully slow down ({manual_speedup:.2})",
            wl.name
        );
        assert!(
            ghb_speedup < manual_speedup + 0.1,
            "{}: GHB-regular ({ghb_speedup:.2}) should not beat manual ({manual_speedup:.2})",
            wl.name
        );
    }
    let wins = manual_speedups.iter().filter(|(_, s)| *s > 1.25).count();
    assert!(
        wins >= 6,
        "manual should speed up most benchmarks even at Tiny scale: {manual_speedups:?}"
    );
}

/// Stride prefetching must do something on a strided benchmark (ConjGrad's
/// sequential colidx/a streams) but nearly nothing on RandAcc.
#[test]
fn stride_baseline_behaves() {
    let cfg = SystemConfig::paper();
    let cg = etpp::workloads::workload_by_name("ConjGrad")
        .unwrap()
        .build(Scale::Tiny);
    let base = run(&cfg, PrefetchMode::None, &cg).unwrap().cycles as f64;
    let stride = run(&cfg, PrefetchMode::Stride, &cg).unwrap().cycles as f64;
    assert!(
        base / stride > 1.02,
        "stride should help ConjGrad's streams a little: {:.3}",
        base / stride
    );

    let ra = etpp::workloads::workload_by_name("RandAcc")
        .unwrap()
        .build(Scale::Tiny);
    let base = run(&cfg, PrefetchMode::None, &ra).unwrap().cycles as f64;
    let stride = run(&cfg, PrefetchMode::Stride, &ra).unwrap().cycles as f64;
    let s = base / stride;
    assert!(
        (0.9..1.15).contains(&s),
        "stride must be ~neutral on random access: {s:.3}"
    );
}

/// Doubling PPU count at half the clock should land near the same speedup
/// (§7.2: "doubling the number of PPUs and halving the frequency results in
/// the same speedup").
#[test]
fn ppu_count_frequency_tradeoff() {
    let wl = etpp::workloads::workload_by_name("G500-CSR")
        .unwrap()
        .build(Scale::Tiny);
    let base = run(&SystemConfig::paper(), PrefetchMode::None, &wl)
        .unwrap()
        .cycles as f64;
    let six_1g = run(
        &SystemConfig::with_ppus(6, 1_000_000_000),
        PrefetchMode::Manual,
        &wl,
    )
    .unwrap()
    .cycles as f64;
    let twelve_500m = run(
        &SystemConfig::with_ppus(12, 500_000_000),
        PrefetchMode::Manual,
        &wl,
    )
    .unwrap()
    .cycles as f64;
    let a = base / six_1g;
    let b = base / twelve_500m;
    assert!(
        (a - b).abs() / a.max(b) < 0.25,
        "6 PPUs @1GHz ({a:.2}x) should match 12 @500MHz ({b:.2}x)"
    );
}
