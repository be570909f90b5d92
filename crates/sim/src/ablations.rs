//! Ablations of the prefetcher's design parameters.
//!
//! The paper fixes the observation queue at 40 entries, the request queue
//! at 200, and motivates both dropping policies and the EWMA-driven
//! look-ahead. [`sweep`] varies one parameter at a time on a benchmark
//! that stresses it, quantifying how much each design choice contributes —
//! the "ablation benches for the design choices DESIGN.md calls out".
//!
//! Each grid is a single-axis [`crate::sweeps::SweepSpec`] over the
//! Manual engine, so ablations inherit the sweep farm's replay-first
//! execution and agreement-gated escalation instead of paying for a
//! cycle-level simulation per point, and every axis over a workload
//! shares that workload's one [`capture`].

use crate::config::{PrefetchMode, SystemConfig};
use crate::replay::{try_load_or_capture_keyed, KeyedCapture};
use crate::sweeps::{run_sweep, Axis, SweepOptions, SweepSpec};
use etpp_workloads::BuiltWorkload;

/// One ablation point: a parameter value and the speedup achieved with it.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Parameter value.
    pub value: u64,
    /// Speedup over the no-prefetch baseline.
    pub speedup: f64,
}

/// Captures `wl`'s demand stream (one cycle-level no-prefetch run) for
/// any number of [`sweep`]s over it.
pub fn capture(wl: &BuiltWorkload) -> KeyedCapture {
    let cfg = SystemConfig::paper();
    try_load_or_capture_keyed(None, &cfg, wl, "ablation", etpp_trace::FORMAT_VERSION)
        .expect("the no-prefetch capture run validates")
}

/// Runs a one-axis Manual-mode sweep over `wl`, replay-first: every
/// point replays against `cap` (`wl`'s [`capture`]), escalating to the
/// cycle core only when the stream-agreement gate says replay cannot be
/// trusted at this scale. The axes the paper motivates are in
/// [`crate::sweeps::axes`]: `obs_queue` (paper: 40 entries; overflow
/// drops the oldest observation), `req_queue` (200 entries),
/// `lookahead_scale` (§7.2's "overestimated relative to the EWMAs";
/// 0 = the raw ratio, honoured end-to-end by `EwmaBank`) and
/// `pf_buffer` (DESIGN.md's L2-issue interpretation; 0 entries disables
/// prefetching entirely).
pub fn sweep(
    wl: &BuiltWorkload,
    cap: &KeyedCapture,
    axis: Axis,
    jobs: usize,
) -> Vec<AblationPoint> {
    let spec = SweepSpec {
        name: "ablation",
        base: SystemConfig::paper(),
        modes: vec![PrefetchMode::Manual],
        axes: vec![axis],
    };
    let shard = run_sweep(
        &spec,
        std::slice::from_ref(wl),
        std::slice::from_ref(cap),
        &SweepOptions::new(jobs, "ablation"),
    );
    shard
        .cells
        .iter()
        .map(|c| {
            assert!(c.validated, "{} ablation corrupted output", wl.name);
            AblationPoint {
                value: c.settings[0].1,
                speedup: c.speedup.expect("manual program"),
            }
        })
        .collect()
}

/// Renders an ablation sweep as a Markdown table.
pub fn table(title: &str, param: &str, points: &[AblationPoint]) -> String {
    let mut out = format!("## Ablation: {title}\n\n| {param} | speedup |\n|---|---|\n");
    for p in points {
        out += &format!("| {} | {:.2} |\n", p.value, p.speedup);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweeps::axes;
    use etpp_workloads::{workload_by_name, Scale};

    #[test]
    fn zero_prefetch_buffer_disables_prefetching() {
        let wl = workload_by_name("IntSort").unwrap().build(Scale::Tiny);
        let pts = sweep(&wl, &capture(&wl), axes::pf_buffer(&[0, 32]), 2);
        assert!(
            (pts[0].speedup - 1.0).abs() < 0.08,
            "no buffer => no speedup, got {:.2}",
            pts[0].speedup
        );
        assert!(
            pts[1].speedup > pts[0].speedup + 0.1,
            "default buffer must beat none: {pts:?}"
        );
    }

    #[test]
    fn tiny_observation_queue_hurts() {
        let wl = workload_by_name("HJ-8").unwrap().build(Scale::Tiny);
        let pts = sweep(&wl, &capture(&wl), axes::obs_queue(&[1, 40]), 2);
        assert!(
            pts[1].speedup >= pts[0].speedup - 0.05,
            "40-entry queue should not lose to 1-entry: {pts:?}"
        );
    }

    #[test]
    fn raw_lookahead_scale_is_swept_not_clamped() {
        // `0` must reach the EWMA bank as the raw-ratio request, not be
        // rewritten to 1 on the way in: the two points may legitimately
        // tie (0 ≡ 1 arithmetically) but both must run and validate.
        let wl = workload_by_name("IntSort").unwrap().build(Scale::Tiny);
        let pts = sweep(&wl, &capture(&wl), axes::lookahead_scale(&[0, 4]), 2);
        assert_eq!(pts[0].value, 0);
        assert!(pts.iter().all(|p| p.speedup > 0.0), "{pts:?}");
    }
}
