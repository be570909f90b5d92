//! The simulated system: one core + memory hierarchy + prefetch engine.
//!
//! [`run`] executes a built workload under a chosen [`PrefetchMode`] and
//! returns cycle counts plus every statistic the paper's figures need. The
//! memory image is cloned per run, so a [`BuiltWorkload`] can be reused
//! across an entire parameter sweep.

use crate::adaptive::{AdaptiveEngine, AdaptiveParams, AdaptiveSummary};
use crate::config::{PrefetchMode, SystemConfig};
use crate::telemetry::{hist_columns, PhaseSampler, TelemetryReport, TelemetrySpec};
use crate::watchdog::{LivelockDetector, Watchdog};
use etpp_baselines::{
    GhbParams, GhbPrefetcher, PcDeltaParams, PcDeltaPrefetcher, RptStridePrefetcher, StrideParams,
    StridePrefetcher,
};
use etpp_core::{PfEngineStats, PrefetcherParams, ProgrammablePrefetcher};
use etpp_cpu::{Core, CoreStats, HorizonSource, Trace};
use etpp_mem::{MemStats, MemorySystem, NullEngine, PrefetchEngine};
use etpp_telemetry::{Registry, SpanEvent, SpanSink};
use etpp_trace::TraceRecord;
use etpp_workloads::{checksum_region, BuiltWorkload, PrefetchSetup};

/// Per-source driver-visit attribution: how many visited cycles each
/// [`HorizonSource`] pinned. `host_iters == visits.total()` on the
/// horizon-aware path (the per-cycle reference does not attribute).
/// This is the ROADMAP's "idle-span instrumentation": it shows where
/// the next fast-forward factor lives, surfaced in `repro --telemetry`
/// registries as `driver.visits.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VisitCounts(pub [u64; HorizonSource::COUNT]);

impl VisitCounts {
    /// `(source key, count)` pairs in stable order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        HorizonSource::ALL
            .iter()
            .map(move |&s| (s.key(), self.0[s as usize]))
    }

    /// Total attributed visits.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark name.
    pub workload: &'static str,
    /// Mode simulated.
    pub mode: PrefetchMode,
    /// Total cycles to completion.
    pub cycles: u64,
    /// Driver-loop iterations — *visits*, each executing one dense span
    /// of busy cycles plus one horizon jump through the stall that ends
    /// it. `cycles / host_iters` is the horizon fast-forward factor;
    /// per-cycle reference runs have `host_iters == cycles`.
    pub host_iters: u64,
    /// Core-side statistics.
    pub core: CoreStats,
    /// Memory-side statistics.
    pub mem: MemStats,
    /// Programmable-prefetcher statistics (programmable modes only).
    pub pf: Option<PfEngineStats>,
    /// Dynamic instruction count (trace length actually retired).
    pub dyn_insts: u64,
    /// Branch misprediction rate.
    pub mispredict_rate: f64,
    /// Whether the post-run memory image matched the expected checksum.
    pub validated: bool,
    /// Final EWMA look-ahead of filter range 0 (programmable modes).
    pub final_lookahead: u64,
    /// Per-source attribution of every driver visit (zeros on the
    /// per-cycle reference path, which visits unconditionally).
    pub visits: VisitCounts,
    /// Phase-adaptive decision log ([`PrefetchMode::Adaptive`] only).
    pub adaptive: Option<AdaptiveSummary>,
}

impl RunResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.dyn_insts as f64 / self.cycles.max(1) as f64
    }

    /// Horizon fast-forward factor: simulated cycles per visited host
    /// iteration. Deterministic (unlike wall time), so regression gates
    /// key on it.
    pub fn ff(&self) -> f64 {
        self.cycles as f64 / self.host_iters.max(1) as f64
    }
}

/// Why a (workload, mode) combination cannot be simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Skip {
    /// The paper notes this combination is impossible (e.g. software
    /// prefetch through BGL iterators).
    NotExpressible(&'static str),
    /// No prefetch program available for this mode.
    NoProgram(&'static str),
}

impl std::fmt::Display for Skip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Skip::NotExpressible(why) => write!(f, "not expressible: {why}"),
            Skip::NoProgram(mode) => write!(f, "no {mode} program"),
        }
    }
}

/// A mode's prefetch engine, concretely typed so callers can reach
/// engine-specific statistics after a run.
pub enum Engine {
    /// No prefetching.
    Null(NullEngine),
    /// Reference-prediction-table stride baseline (two-bit confidence).
    Stride(StridePrefetcher),
    /// Four-state Chen & Baer RPT stride cross-check.
    Rpt(RptStridePrefetcher),
    /// PC-delta accuracy-threshold engine.
    PcDelta(PcDeltaPrefetcher),
    /// Phase-adaptive meta-engine (stride ↔ PC-delta).
    Adaptive(Box<AdaptiveEngine>),
    /// Markov global-history-buffer baseline.
    Ghb(Box<GhbPrefetcher>),
    /// The paper's programmable prefetcher.
    Prog(Box<ProgrammablePrefetcher>),
}

impl Engine {
    /// The engine as the trait object the memory system drives.
    pub fn as_dyn(&mut self) -> &mut dyn PrefetchEngine {
        match self {
            Engine::Null(e) => e,
            Engine::Stride(e) => e,
            Engine::Rpt(e) => e,
            Engine::PcDelta(e) => e,
            Engine::Adaptive(e) => e.as_mut(),
            Engine::Ghb(e) => e.as_mut(),
            Engine::Prog(e) => e.as_mut(),
        }
    }

    /// Programmable-prefetcher statistics snapshot (reporting boundary
    /// only — allocates the per-PPU vectors).
    pub fn pf_stats(&self) -> Option<PfEngineStats> {
        match self {
            Engine::Prog(p) => Some(p.stats()),
            _ => None,
        }
    }

    /// Phase-adaptive decision log, when this is the meta-engine.
    pub fn adaptive_summary(&self) -> Option<AdaptiveSummary> {
        match self {
            Engine::Adaptive(a) => Some(a.summary()),
            _ => None,
        }
    }
}

/// Builds the prefetch engine for `mode` without choosing a trace — shared
/// between the cycle-level path, trace replay and the equivalence tests.
/// `Software` has no engine (its prefetches live in the instruction
/// stream) and is rejected here; the cycle-level path special-cases it.
///
/// # Errors
/// [`Skip`] when the mode needs a prefetch program the workload lacks.
pub fn make_engine(
    cfg: &SystemConfig,
    mode: PrefetchMode,
    wl: &BuiltWorkload,
) -> Result<Engine, Skip> {
    match mode {
        PrefetchMode::None => Ok(Engine::Null(NullEngine)),
        PrefetchMode::Stride => Ok(Engine::Stride(StridePrefetcher::new(StrideParams::paper()))),
        PrefetchMode::RptStride => Ok(Engine::Rpt(RptStridePrefetcher::new(StrideParams::paper()))),
        PrefetchMode::PcDelta => Ok(Engine::PcDelta(PcDeltaPrefetcher::new(
            PcDeltaParams::paper(),
        ))),
        PrefetchMode::Adaptive => Ok(Engine::Adaptive(Box::new(AdaptiveEngine::new(
            AdaptiveParams::paper(),
        )))),
        PrefetchMode::GhbRegular => Ok(Engine::Ghb(Box::new(GhbPrefetcher::new(
            GhbParams::regular(),
        )))),
        PrefetchMode::GhbLarge => Ok(Engine::Ghb(Box::new(
            GhbPrefetcher::new(GhbParams::large()),
        ))),
        PrefetchMode::Software => Err(Skip::NotExpressible(
            "software prefetches are instructions, not an engine",
        )),
        PrefetchMode::Manual => match &wl.manual {
            Some(s) => Ok(Engine::Prog(Box::new(programmable(cfg.pf, s, false)))),
            None => Err(Skip::NoProgram("manual")),
        },
        PrefetchMode::Blocked => match &wl.manual {
            Some(s) => Ok(Engine::Prog(Box::new(programmable(cfg.pf, s, true)))),
            None => Err(Skip::NoProgram("manual")),
        },
        PrefetchMode::Converted => match &wl.converted {
            Some(s) => Ok(Engine::Prog(Box::new(programmable(cfg.pf, s, false)))),
            None => Err(Skip::NoProgram("converted")),
        },
        PrefetchMode::Pragma => match &wl.pragma {
            Some(s) => Ok(Engine::Prog(Box::new(programmable(cfg.pf, s, false)))),
            None => Err(Skip::NoProgram("pragma")),
        },
    }
}

fn programmable(
    params: PrefetcherParams,
    setup: &PrefetchSetup,
    blocked: bool,
) -> ProgrammablePrefetcher {
    let params = PrefetcherParams {
        blocked_mode: blocked,
        ..params
    };
    let mut pf = ProgrammablePrefetcher::new(params, setup.program.clone());
    for op in &setup.configs {
        pf.config(0, op);
    }
    pf
}

/// Selects the trace and engine for `mode`.
///
/// # Errors
/// Returns [`Skip`] when the combination is impossible for this workload
/// (matching the paper's missing bars).
fn select<'w>(
    cfg: &SystemConfig,
    mode: PrefetchMode,
    wl: &'w BuiltWorkload,
) -> Result<(&'w Trace, Engine), Skip> {
    match mode {
        PrefetchMode::Software => match wl.sw_trace() {
            Some(t) => Ok((t, Engine::Null(NullEngine))),
            None => Err(Skip::NotExpressible(wl.notes)),
        },
        _ => Ok((&wl.trace, make_engine(cfg, mode, wl)?)),
    }
}

/// Simulates `wl` under `mode`, returning full statistics.
///
/// # Errors
/// [`Skip`] when the mode is impossible for this workload.
///
/// # Panics
/// Panics if the simulation exceeds `cfg.max_cycles` (deadlock guard) or
/// the trace accesses unmapped memory (workload generator bug).
pub fn run(cfg: &SystemConfig, mode: PrefetchMode, wl: &BuiltWorkload) -> Result<RunResult, Skip> {
    Ok(run_inner(cfg, mode, wl, false, None, None)?.0)
}

/// [`run`] under a [`Watchdog`]: the token is polled once per driver
/// visit (and at every [`MemorySystem::advance_to`] entry) — never per
/// cycle — so an armed-but-quiet watchdog is pure observation and the
/// result is bit-identical to an unwatched [`run`] (pinned by the
/// equivalence suite). A fired token aborts the run by panicking with
/// the token's typed [`crate::watchdog::Cancelled`] payload, which the
/// sweep farm's isolation layer quarantines as a timeout/cancellation.
///
/// # Errors
/// [`Skip`] when the mode is impossible for this workload.
pub fn run_watched(
    cfg: &SystemConfig,
    mode: PrefetchMode,
    wl: &BuiltWorkload,
    wd: &Watchdog,
) -> Result<RunResult, Skip> {
    Ok(run_inner(cfg, mode, wl, false, None, Some(wd))?.0)
}

/// Simulates `wl` under `mode` with observability enabled, returning
/// the usual [`RunResult`] plus a [`TelemetryReport`] (merged counter
/// registry, phase time-series, prefetch lifecycle classification and —
/// when `spec.chrome_spans` — the span log for a Chrome trace).
///
/// Telemetry is pure observation: the `RunResult` is bit-identical to a
/// [`run`] of the same inputs (pinned by the equivalence suite).
///
/// # Errors
/// [`Skip`] when the mode is impossible for this workload.
pub fn run_telemetry(
    cfg: &SystemConfig,
    mode: PrefetchMode,
    wl: &BuiltWorkload,
    spec: &TelemetrySpec,
) -> Result<(RunResult, TelemetryReport), Skip> {
    let (result, _, report) = run_inner(cfg, mode, wl, false, Some(spec), None)?;
    Ok((result, report.expect("telemetry was requested")))
}

/// Simulates `wl` under `mode` while recording the retired demand-access
/// and configuration stream for later [`etpp_trace`] replay.
///
/// `scale_label` is stored in the trace metadata (a [`BuiltWorkload`] does
/// not remember the scale it was built at).
///
/// # Errors
/// [`Skip`] when the mode is impossible for this workload.
pub fn run_captured(
    cfg: &SystemConfig,
    mode: PrefetchMode,
    wl: &BuiltWorkload,
    scale_label: &str,
) -> Result<(RunResult, etpp_trace::CapturedTrace), Skip> {
    let (result, records, _) = run_inner(cfg, mode, wl, true, None, None)?;
    // The capture run's cycle count rides in the (v2) trace metadata so
    // replay consumers can report absolute-cycle agreement without
    // re-running the cycle core.
    let meta = etpp_trace::TraceMeta::new(wl.name, scale_label).with_capture_cycles(result.cycles);
    Ok((result, etpp_trace::CapturedTrace { meta, records }))
}

/// Phase-sample values, aligned with [`crate::telemetry::PHASE_COLUMNS`].
fn phase_values(core: &CoreStats, mem: &MemorySystem) -> Vec<u64> {
    let ms = mem.stats();
    let tel = mem.telemetry();
    let (ll, mo, lc) = match tel {
        Some(t) => (
            hist_columns(&t.load_latency),
            hist_columns(&t.mshr_occupancy),
            t.lifecycle.counts.clone(),
        ),
        None => ((0, 0, 0), (0, 0, 0), Default::default()),
    };
    vec![
        core.insts_retired,
        core.loads_issued,
        core.load_retries,
        ms.l1.read_hits,
        ms.l1.read_misses,
        ms.l1.late_prefetch_merges,
        ms.l1.prefetch_fills,
        ms.l1.prefetches_used,
        ms.dram.reads,
        lc.issued,
        lc.accurate,
        lc.late,
        ll.0,
        ll.1,
        ll.2,
        mo.0,
        mo.2,
    ]
}

fn run_inner(
    cfg: &SystemConfig,
    mode: PrefetchMode,
    wl: &BuiltWorkload,
    capture: bool,
    tel: Option<&TelemetrySpec>,
    wd: Option<&Watchdog>,
) -> Result<(RunResult, Vec<TraceRecord>, Option<TelemetryReport>), Skip> {
    let (trace, mut engine) = select(cfg, mode, wl)?;
    let mut mem = MemorySystem::new(cfg.mem, wl.image.clone());
    if cfg.per_cycle_reference {
        mem.set_engine_batching(false);
    }
    if let Some(wd) = wd {
        mem.set_cancel(Some(wd.token().clone()));
    }
    let mut core = Core::new(cfg.core, trace);
    if capture {
        core.enable_capture();
    }
    let mut sampler = tel.map(|s| PhaseSampler::new(s.sample_interval));
    let mut visit_spans = tel.and_then(|s| s.chrome_spans.then(|| SpanSink::new(s.span_cap)));
    if let Some(spec) = tel {
        mem.enable_telemetry(spec.chrome_spans, spec.span_cap);
        core.enable_telemetry();
        if let Engine::Prog(p) = &mut engine {
            p.enable_telemetry();
        }
    }

    // Horizon-aware driver loop: one *driver visit* per iteration. A
    // visit executes a whole *dense span* — back-to-back busy cycles
    // whose horizon is pinned to the very next cycle (retire, issue,
    // dispatch, store drains, FU wake chains) run cycle-locked inside
    // the visit, the core-side analogue of `MemorySystem::advance_to`
    // internalising transfers and engine rounds — and ends with one
    // horizon jump through the following stall. All intermediate
    // memory-system work (cache/DRAM transfers, engine rounds, prefetch
    // pops) runs inside `advance_to` at its exact cycle, and the visit
    // resumes early whenever a demand completion falls due. The
    // sequence of per-cycle `tick` calls is identical to the unfused
    // loop, so fusion is behaviour-preserving by construction. With
    // `per_cycle_reference` the clock advances one cycle per iteration
    // instead; both paths are pinned bit-identical by
    // `tests/event_horizon_equivalence.rs`.
    let mut now: u64 = 0;
    let mut host_iters: u64 = 0;
    let mut visits = VisitCounts::default();
    // Always-armed livelock guard: observes each visit's raw reported
    // horizon and aborts with a named diagnostic if it stops advancing
    // — a condition impossible while the horizon invariant holds, so
    // healthy runs are untouched (the only other runaway guard is the
    // `max_cycles` assert, 2×10¹⁰ cycles away).
    let mut livelock = LivelockDetector::new();
    while !core.finished() {
        host_iters += 1;
        // Cooperative cancellation, visit granularity: one null-check
        // when unwatched, a strided token poll when armed.
        if let Some(wd) = wd {
            wd.check(host_iters, now);
        }
        let visit_start = now;
        loop {
            mem.tick(now, engine.as_dyn());
            core.tick(now, &mut mem);
            let configs = core.take_configs();
            if !configs.is_empty() {
                for op in &configs {
                    engine.as_dyn().config(now, op);
                }
                // Configs mutate the engine behind the memory system's
                // back; invalidate its cached event horizon.
                mem.wake_engine();
            }
            // Phase sampler: snapshot the cumulative counters on the
            // first tick at/after each interval boundary. `None` when
            // telemetry is off — one Option check per visited cycle.
            if let Some(s) = sampler.as_mut() {
                if s.due(now) {
                    let values = phase_values(&core.stats, &mem);
                    s.sample(now, values);
                }
            }
            if cfg.per_cycle_reference {
                now += 1;
                break;
            }
            if core.finished() {
                // Do not fast-forward through in-flight prefetch drains
                // after the last retirement: the reference loop exits
                // one cycle after the finishing tick, and so must we.
                visits.0[HorizonSource::Finish as usize] += 1;
                if let Some(sink) = visit_spans.as_mut() {
                    sink.push(SpanEvent {
                        name: HorizonSource::Finish.key(),
                        ts: visit_start,
                        dur: now + 1 - visit_start,
                        tid: SpanSink::LANE_VISITS,
                    });
                }
                now += 1;
                break;
            }
            let horizon = core.next_event_at(now, &mem);
            livelock.observe(now, horizon, core.horizon_source(), wl.name, mode.key());
            if horizon == now + 1 {
                // Dense span: the core progresses on the very next
                // cycle, so stay inside this visit (`advance_to(now,
                // now + 1)` would return immediately anyway).
                now += 1;
                assert!(
                    now < cfg.max_cycles,
                    "simulation exceeded {} cycles for {} / {:?}",
                    cfg.max_cycles,
                    wl.name,
                    mode
                );
                continue;
            }
            let next = mem.advance_to(now, horizon, engine.as_dyn()).max(now + 1);
            // Attribute the visit to whatever ended its span: the
            // core's winning horizon arm, or — when `advance_to`
            // handed control back early — the memory event whose
            // completion fell due (an LQ-full wait keeps its label:
            // the completion is what frees the slot).
            let src = if next < horizon && core.horizon_source() != HorizonSource::LqFull {
                HorizonSource::MemEvent
            } else {
                core.horizon_source()
            };
            visits.0[src as usize] += 1;
            if let Some(sink) = visit_spans.as_mut() {
                sink.push(SpanEvent {
                    name: src.key(),
                    ts: visit_start,
                    dur: next - visit_start,
                    tid: SpanSink::LANE_VISITS,
                });
            }
            now = next;
            break;
        }
        assert!(
            now < cfg.max_cycles,
            "simulation exceeded {} cycles for {} / {:?}",
            cfg.max_cycles,
            wl.name,
            mode
        );
    }

    let validated = checksum_region(mem.image(), wl.check_region) == wl.expected;

    // Assemble the telemetry report before reading engine stats (the
    // engine collector detaches mutably). `take_telemetry` finalizes
    // the lifecycle tracker: unresolved evicted-unused prefetches
    // become useless, in-flight/resident populations are counted.
    let report = tel.map(|_| {
        let mut registry = Registry::new();
        let mem_tel = mem.take_telemetry();
        let core_tel = core.take_telemetry();
        let engine_tel = match &mut engine {
            Engine::Prog(p) => p.take_telemetry(),
            _ => None,
        };
        if let Some(t) = &mem_tel {
            t.publish(&mut registry);
        }
        if let Some(t) = &core_tel {
            t.publish(&mut registry);
        }
        if let Some(t) = &engine_tel {
            t.publish(&mut registry);
        }
        for (key, count) in visits.iter() {
            registry.set_counter(&format!("driver.visits.{key}"), count);
        }
        registry.set_counter("driver.host_iters", host_iters);
        registry.set_counter("run.cycles", now);
        let mut spans = Vec::new();
        let mut spans_dropped = 0;
        if let Some(sink) = visit_spans.take() {
            spans_dropped += sink.dropped();
            spans.extend(sink.into_events());
        }
        let (lifecycle, per_pc) = match mem_tel {
            Some(t) => {
                spans_dropped += t.spans.dropped();
                spans.extend(t.spans.into_events());
                (t.lifecycle.counts, t.lifecycle.per_pc)
            }
            None => Default::default(),
        };
        registry.set_counter("trace.spans_dropped", spans_dropped);
        TelemetryReport {
            registry,
            phases: sampler
                .take()
                .expect("sampler exists with telemetry")
                .series,
            lifecycle,
            per_pc,
            spans,
            spans_dropped,
        }
    });

    let pf = engine.pf_stats();
    let adaptive = engine.adaptive_summary();
    let final_lookahead = match &engine {
        Engine::Prog(p) => p.lookahead(0),
        _ => 0,
    };
    let records = core.take_captured();
    Ok((
        RunResult {
            workload: wl.name,
            mode,
            cycles: now,
            host_iters,
            core: core.stats,
            mem: mem.stats(),
            pf,
            dyn_insts: core.stats.insts_retired,
            mispredict_rate: core.bpred().mispredict_rate(),
            validated,
            final_lookahead,
            visits,
            adaptive,
        },
        records,
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpp_workloads::{Scale, Workload};

    #[test]
    fn intsort_validates_and_manual_speeds_up() {
        let wl = etpp_workloads::intsort::IntSort.build(Scale::Tiny);
        let cfg = SystemConfig::paper();
        let base = run(&cfg, PrefetchMode::None, &wl).unwrap();
        assert!(base.validated, "baseline run must produce correct counts");
        let manual = run(&cfg, PrefetchMode::Manual, &wl).unwrap();
        assert!(manual.validated);
        let speedup = base.cycles as f64 / manual.cycles as f64;
        assert!(
            speedup > 1.2,
            "manual events should speed IntSort up even at Tiny scale, got {speedup:.2}x"
        );
    }

    #[test]
    fn hj2_modes_rank_in_paper_order() {
        let wl = etpp_workloads::hashjoin::Hj2.build(Scale::Tiny);
        let cfg = SystemConfig::paper();
        let base = run(&cfg, PrefetchMode::None, &wl).unwrap().cycles as f64;
        let stride = run(&cfg, PrefetchMode::Stride, &wl).unwrap().cycles as f64;
        let sw = run(&cfg, PrefetchMode::Software, &wl).unwrap().cycles as f64;
        let manual = run(&cfg, PrefetchMode::Manual, &wl).unwrap().cycles as f64;
        // Paper: stride barely helps; software helps; manual helps most.
        assert!(base / manual > base / sw - 0.05, "manual >= software");
        assert!(base / manual > base / stride, "manual > stride");
        assert!(base / manual > 1.3, "manual speedup {:.2}", base / manual);
    }

    #[test]
    fn ghb_regular_is_useless_on_huge_footprints() {
        let wl = etpp_workloads::randacc::RandAcc.build(Scale::Tiny);
        let cfg = SystemConfig::paper();
        let base = run(&cfg, PrefetchMode::None, &wl).unwrap().cycles as f64;
        let ghb = run(&cfg, PrefetchMode::GhbRegular, &wl).unwrap().cycles as f64;
        let speedup = base / ghb;
        assert!(
            (0.85..=1.15).contains(&speedup),
            "GHB-regular should be ~neutral on RandAcc, got {speedup:.2}"
        );
    }

    #[test]
    fn pagerank_software_mode_is_skipped() {
        let wl = etpp_workloads::pagerank::PageRank.build(Scale::Tiny);
        let cfg = SystemConfig::paper();
        assert!(matches!(
            run(&cfg, PrefetchMode::Software, &wl),
            Err(Skip::NotExpressible(_))
        ));
    }

    #[test]
    fn telemetry_run_is_bit_identical_and_collects() {
        let wl = etpp_workloads::intsort::IntSort.build(Scale::Tiny);
        let cfg = SystemConfig::paper();
        let plain = run(&cfg, PrefetchMode::Manual, &wl).unwrap();
        let spec = TelemetrySpec::full(10_000);
        let (r, rep) = run_telemetry(&cfg, PrefetchMode::Manual, &wl, &spec).unwrap();
        // Pure observation: the run itself must not change at all.
        assert_eq!(plain.cycles, r.cycles);
        assert_eq!(plain.core, r.core);
        assert_eq!(plain.mem, r.mem);
        assert_eq!(plain.visits, r.visits);
        assert_eq!(plain.pf, r.pf);
        // ...while the report actually collected things.
        assert!(
            rep.phases.samples.len() >= 2,
            "expected multiple phase samples, got {}",
            rep.phases.samples.len()
        );
        assert!(rep.registry.hist("mem.load_latency").unwrap().count() > 0);
        assert!(rep.registry.hist("mem.l1_mshr_occupancy").unwrap().count() > 0);
        assert!(rep.registry.hist("engine.req_q_depth").unwrap().count() > 0);
        assert!(rep.lifecycle.issued > 0);
        assert!(rep.lifecycle.classified() > 0);
        assert_eq!(
            rep.lifecycle.late, r.mem.l1.late_prefetch_merges,
            "lifecycle late class must agree with the stats seam"
        );
        assert!(!rep.spans.is_empty());
        let json = rep.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        // Phase samples are cumulative: monotone non-decreasing.
        let col = |i: usize, name: &str| rep.phases.value(i, name).unwrap();
        for i in 1..rep.phases.samples.len() {
            assert!(col(i, "core.insts_retired") >= col(i - 1, "core.insts_retired"));
            assert!(col(i, "pf.issued") >= col(i - 1, "pf.issued"));
        }
    }

    #[test]
    fn blocked_mode_is_no_faster_than_events() {
        let wl = etpp_workloads::hashjoin::Hj8.build(Scale::Tiny);
        let cfg = SystemConfig::paper();
        let manual = run(&cfg, PrefetchMode::Manual, &wl).unwrap().cycles;
        let blocked = run(&cfg, PrefetchMode::Blocked, &wl).unwrap().cycles;
        assert!(
            blocked as f64 >= manual as f64 * 0.95,
            "blocking must not beat events: manual {manual}, blocked {blocked}"
        );
    }
}
