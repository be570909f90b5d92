//! The fast-path-vs-reference check both horizon-loop suites share
//! (`event_horizon_equivalence.rs`, `engine_zoo.rs`), parametrised over
//! the front end that `drive()` steps.

use etpp::core::PfEngineStats;
use etpp::cpu::CoreStats;
use etpp::mem::{
    ConfigOp, DemandEvent, Line, MemStats, PrefetchEngine, PrefetchRequest, TagId, VisitCounts,
};
use etpp::sim::{
    make_engine, run_captured, try_load_or_capture_keyed, AdaptiveSummary, PrefetchMode,
    SystemConfig,
};
use etpp::trace::{replay_limited, ReplayParams, TraceRecord, FORMAT_VERSION};
use etpp::workloads::{checksum_region, BuiltWorkload};

/// The two front ends of the driver.
#[derive(Debug, Clone, Copy)]
pub enum Front {
    /// The cycle-level out-of-order core.
    Cycle,
    /// Trace replay's in-order window over the workload's capture.
    Replay,
}

/// A popped prefetch request: (cycle, vaddr, tag, metadata).
type Request = (u64, u64, Option<TagId>, u64);

/// Forwards to an inner engine, logging every popped request with its
/// issue cycle so two runs' request streams compare exactly.
struct Recording<'a> {
    inner: &'a mut dyn PrefetchEngine,
    log: Vec<Request>,
}

impl PrefetchEngine for Recording<'_> {
    fn on_demand(&mut self, now: u64, ev: &DemandEvent) {
        self.inner.on_demand(now, ev);
    }
    fn on_prefetch_fill(
        &mut self,
        now: u64,
        vaddr: u64,
        line: &Line,
        tag: Option<TagId>,
        meta: u64,
    ) {
        self.inner.on_prefetch_fill(now, vaddr, line, tag, meta);
    }
    fn tick(&mut self, now: u64) {
        self.inner.tick(now);
    }
    fn pop_request(&mut self, now: u64) -> Option<PrefetchRequest> {
        let r = self.inner.pop_request(now);
        if let Some(req) = r {
            self.log.push((now, req.vaddr, req.tag, req.meta));
        }
        r
    }
    fn config(&mut self, now: u64, op: &ConfigOp) {
        self.inner.config(now, op);
    }
    fn next_event_at(&self, now: u64) -> Option<u64> {
        self.inner.next_event_at(now)
    }
    fn next_tick_at(&self, now: u64) -> Option<u64> {
        self.inner.next_tick_at(now)
    }
}

/// What one run leaves to compare, on either front end.
struct Side {
    cycles: u64,
    /// Cycles the driver ticked: replay counts its finishing cycle
    /// itself, so it ticks `cycles + 1`.
    ticked: u64,
    host_iters: u64,
    visits: VisitCounts,
    mem: MemStats,
    pf: Option<PfEngineStats>,
    final_lookahead: u64,
    adaptive: Option<AdaptiveSummary>,
    /// Cycle core: its statistics.
    core: Option<CoreStats>,
    /// Replay: accesses issued and dependence stalls.
    replayed: Option<(u64, u64)>,
    /// Cycle core: the retirement stream, cycle stamps included.
    retired: Vec<TraceRecord>,
    /// Replay: every popped prefetch request.
    requests: Vec<Request>,
    /// Replay: the post-run image checksum.
    checksum: Option<u64>,
    validated: bool,
}

/// Runs `wl` under `mode` on `front`, fast path or per-cycle reference.
/// `None` when the mode is not expressible for this workload.
fn run_side(
    front: Front,
    cfg: &SystemConfig,
    mode: PrefetchMode,
    wl: &BuiltWorkload,
    records: &[TraceRecord],
) -> Option<Side> {
    match front {
        Front::Cycle => {
            let (r, trace) = run_captured(cfg, mode, wl, "equiv").ok()?;
            Some(Side {
                cycles: r.cycles,
                ticked: r.cycles,
                host_iters: r.host_iters,
                visits: r.visits,
                mem: r.mem,
                pf: r.pf,
                final_lookahead: r.final_lookahead,
                adaptive: r.adaptive,
                core: Some(r.core),
                replayed: None,
                retired: trace.records,
                requests: Vec::new(),
                checksum: None,
                validated: r.validated,
            })
        }
        Front::Replay => {
            let mut engine = make_engine(cfg, mode, wl).ok()?;
            let mut rec = Recording {
                inner: engine.as_dyn(),
                log: Vec::new(),
            };
            let r = replay_limited(
                &ReplayParams::default(),
                cfg.mem,
                wl.image.clone(),
                records,
                &mut rec,
                &cfg.limits(wl.name, mode, None),
            );
            let requests = rec.log;
            let checksum = checksum_region(&r.image, wl.check_region);
            Some(Side {
                cycles: r.cycles,
                ticked: r.cycles + 1,
                host_iters: r.host_iters,
                visits: r.visits,
                mem: r.mem,
                pf: engine.pf_stats(),
                final_lookahead: match &engine {
                    etpp::sim::Engine::Prog(p) => p.lookahead(0),
                    _ => 0,
                },
                adaptive: engine.adaptive_summary(),
                core: None,
                replayed: Some((r.accesses, r.dep_stalls)),
                retired: Vec::new(),
                requests,
                checksum: Some(checksum),
                validated: checksum == wl.expected,
            })
        }
    }
}

/// Runs `wl` under `mode` on `front` through both driver paths — the
/// horizon-aware fast path and the per-cycle unit-tick reference — and
/// asserts bit-identical outcomes: cycles, core statistics (cycle core)
/// or access and dependence-stall counts (replay), memory statistics, engine
/// counters, EWMA look-ahead, the adaptive decision log, the
/// retirement stream (cycle core, with capture enabled), the prefetch
/// request stream (replay) and the post-run image checksum, which must
/// also reproduce the workload's reference output. The reference must
/// have visited every cycle, the fast path skipped some, and every
/// fast-path visit must be attributed to a horizon source.
///
/// `tweak` applies to both runs (and to replay's capture). Returns the
/// fast path's deterministic fast-forward factor so saturation cases
/// can pin a floor on it; 0 when the mode is not expressible.
pub fn assert_equivalent_with(
    front: Front,
    mode: PrefetchMode,
    wl: &BuiltWorkload,
    tweak: impl Fn(&mut SystemConfig),
) -> f64 {
    let mut fast_cfg = SystemConfig::paper();
    tweak(&mut fast_cfg);
    let mut ref_cfg = SystemConfig::paper_per_cycle();
    tweak(&mut ref_cfg);
    let records = match front {
        Front::Cycle => Vec::new(),
        Front::Replay => {
            try_load_or_capture_keyed(None, &fast_cfg, wl, "equiv", FORMAT_VERSION)
                .expect("baseline capture")
                .trace
                .records
        }
    };
    let Some(fast) = run_side(front, &fast_cfg, mode, wl, &records) else {
        return 0.0; // mode not expressible for this workload
    };
    let reference = run_side(front, &ref_cfg, mode, wl, &records).expect("expressible above");

    let name = format!("{}/{mode:?} ({front:?})", wl.name);
    assert_eq!(
        fast.cycles, reference.cycles,
        "{name}: cycle counts must be identical"
    );
    assert_eq!(
        reference.host_iters, reference.ticked,
        "{name}: the reference loop must visit every cycle"
    );
    assert!(
        fast.host_iters < reference.host_iters,
        "{name}: the fast path must actually skip cycles ({} visited of {})",
        fast.host_iters,
        fast.cycles
    );
    assert_eq!(
        fast.core, reference.core,
        "{name}: core statistics must be bit-identical"
    );
    assert_eq!(
        fast.replayed, reference.replayed,
        "{name}: access counts and dependence stalls must match"
    );
    assert_eq!(
        fast.mem, reference.mem,
        "{name}: memory statistics must be bit-identical"
    );
    assert_eq!(
        fast.pf, reference.pf,
        "{name}: engine counters must be bit-identical"
    );
    assert_eq!(
        fast.final_lookahead, reference.final_lookahead,
        "{name}: EWMA look-ahead must match"
    );
    assert_eq!(
        fast.adaptive, reference.adaptive,
        "{name}: the adaptive decision log must be bit-identical"
    );
    assert_eq!(
        fast.retired.len(),
        reference.retired.len(),
        "{name}: retirement stream lengths must match"
    );
    for (i, (f, r)) in fast.retired.iter().zip(&reference.retired).enumerate() {
        assert_eq!(
            f, r,
            "{name}: retirement record #{i} diverged (cycle, pc, vaddr, kind)"
        );
    }
    assert_eq!(
        fast.requests.len(),
        reference.requests.len(),
        "{name}: prefetch request counts must match"
    );
    for (i, (f, r)) in fast.requests.iter().zip(&reference.requests).enumerate() {
        assert_eq!(
            f, r,
            "{name}: request #{i} diverged (cycle, vaddr, tag, meta)"
        );
    }
    assert_eq!(
        fast.checksum, reference.checksum,
        "{name}: post-run image checksums must match"
    );
    assert!(
        fast.validated && reference.validated,
        "{name}: both paths must reproduce the reference output"
    );
    assert_eq!(
        fast.visits.total(),
        fast.host_iters,
        "{name}: every driver visit must be attributed to a horizon source"
    );
    fast.cycles as f64 / fast.host_iters.max(1) as f64
}

/// [`assert_equivalent_with`] under the paper configuration.
pub fn assert_equivalent(front: Front, mode: PrefetchMode, wl: &BuiltWorkload) {
    assert_equivalent_with(front, mode, wl, |_| {});
}
