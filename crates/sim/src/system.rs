//! The simulated system: one core + memory hierarchy + prefetch engine.
//!
//! [`run`] executes a built workload under a chosen [`PrefetchMode`] and
//! returns cycle counts plus every statistic the paper's figures need. The
//! memory image is cloned per run, so a [`BuiltWorkload`] can be reused
//! across an entire parameter sweep.

use crate::adaptive::{AdaptiveEngine, AdaptiveParams, AdaptiveSummary};
use crate::config::{PrefetchMode, SystemConfig};
use crate::telemetry::{TelemetryProbe, TelemetryReport};
use etpp_baselines::{
    GhbParams, GhbPrefetcher, PcDeltaParams, PcDeltaPrefetcher, RptStridePrefetcher, StrideParams,
    StridePrefetcher,
};
use etpp_core::{PfEngineStats, PrefetcherParams, ProgrammablePrefetcher};
use etpp_cpu::{drive, Core, CoreStats, Probe, Trace, VisitCounts};
use etpp_mem::{Deadline, MemStats, MemorySystem, NullEngine, PrefetchEngine};
use etpp_telemetry::Registry;
use etpp_workloads::{checksum_region, BuiltWorkload, PrefetchSetup};
use std::borrow::Cow;

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

/// The micro-op trace a `mode` cell runs: the workload's plain trace, or
/// for `Software` its software-prefetch variant, generated for this cell
/// alone and dropped with it.
///
/// # Errors
/// [`Skip`] when the workload has no software-prefetch variant.
fn cell_trace(mode: PrefetchMode, wl: &BuiltWorkload) -> Result<Cow<'_, Trace>, Skip> {
    match mode {
        PrefetchMode::Software => wl
            .sw_trace()
            .map(Cow::Owned)
            .ok_or(Skip::NotExpressible(wl.notes)),
        _ => Ok(Cow::Borrowed(&wl.trace)),
    }
}

/// One cycle-core run: a core over the cell's trace, a fresh memory
/// system over the workload's image, and the mode's engine.
struct Machine<'w> {
    cfg: &'w SystemConfig,
    mode: PrefetchMode,
    wl: &'w BuiltWorkload,
    core: Core<'w>,
    mem: MemorySystem,
    engine: Engine,
}

impl<'w> Machine<'w> {
    /// Runs `trace`, the caller's [`cell_trace`] for `mode`, under the
    /// mode's engine.
    ///
    /// # Errors
    /// [`Skip`] when the combination is impossible for this workload
    /// (matching the paper's missing bars).
    fn new(
        cfg: &'w SystemConfig,
        mode: PrefetchMode,
        wl: &'w BuiltWorkload,
        trace: &'w Trace,
    ) -> Result<Self, Skip> {
        let engine = match mode {
            PrefetchMode::Software => Engine::Null(NullEngine),
            _ => make_engine(cfg, mode, wl)?,
        };
        Ok(Machine {
            cfg,
            mode,
            wl,
            core: Core::new(cfg.core, trace),
            mem: MemorySystem::new(cfg.mem, wl.image.clone()),
            engine,
        })
    }

    /// Runs the machine to completion through [`etpp_cpu::drive`] and
    /// returns its statistics.
    fn run(&mut self, deadline: Option<Deadline>, probe: &mut impl Probe<Core<'w>>) -> RunResult {
        let wl = self.wl;
        let limits = self.cfg.limits(wl.name, self.mode, deadline);
        let engine = self.engine.as_dyn();
        let (cycles, host_iters, visits) =
            drive(&mut self.core, &mut self.mem, engine, &limits, probe);
        RunResult {
            workload: wl.name,
            mode: self.mode,
            cycles,
            host_iters,
            core: self.core.stats,
            mem: self.mem.stats(),
            pf: self.engine.pf_stats(),
            dyn_insts: self.core.stats.insts_retired,
            mispredict_rate: self.core.bpred().mispredict_rate(),
            validated: checksum_region(self.mem.image(), wl.check_region) == wl.expected,
            final_lookahead: match &self.engine {
                Engine::Prog(p) => p.lookahead(0),
                _ => 0,
            },
            visits,
            adaptive: self.engine.adaptive_summary(),
        }
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
    run_watched(cfg, mode, wl, None)
}

/// [`run`] under an optional wall-clock [`Deadline`], polled once per
/// driver visit — never per cycle — so a deadline that never expires is
/// pure observation and the result is bit-identical to an unwatched
/// [`run`] (pinned by the equivalence suite). An expired deadline
/// aborts the run by panicking with its typed [`crate::Cancelled`]
/// payload, which the sweep farm's isolation layer quarantines as a
/// timeout. `None` is exactly [`run`].
///
/// # Errors
/// [`Skip`] when the mode is impossible for this workload.
pub fn run_watched(
    cfg: &SystemConfig,
    mode: PrefetchMode,
    wl: &BuiltWorkload,
    deadline: Option<Deadline>,
) -> Result<RunResult, Skip> {
    let trace = cell_trace(mode, wl)?;
    Ok(Machine::new(cfg, mode, wl, &trace)?.run(deadline, &mut ()))
}

/// Simulates `wl` under `mode` with observability enabled, returning
/// the usual [`RunResult`] plus a [`TelemetryReport`] (merged counter
/// registry, phase time-series sampled every `sample_interval` cycles,
/// prefetch lifecycle classification and the span log for a Chrome
/// trace).
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
    sample_interval: u64,
) -> Result<(RunResult, TelemetryReport), Skip> {
    let trace = cell_trace(mode, wl)?;
    let mut m = Machine::new(cfg, mode, wl, &trace)?;
    m.mem.enable_telemetry();
    m.core.enable_telemetry();
    if let Engine::Prog(p) = &mut m.engine {
        p.enable_telemetry();
    }
    let mut probe = TelemetryProbe::new(sample_interval);
    let result = m.run(None, &mut probe);
    // `take_telemetry` finalizes each collector: the memory system's
    // turns unresolved evicted-unused prefetches into useless ones and
    // counts the in-flight/resident populations.
    let mut registry = Registry::new();
    if let Some(t) = m.core.take_telemetry() {
        t.publish(&mut registry);
    }
    if let Engine::Prog(p) = &mut m.engine {
        if let Some(t) = p.take_telemetry() {
            t.publish(&mut registry);
        }
    }
    let report = probe.report(registry, m.mem.take_telemetry(), &result);
    Ok((result, report))
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
    let trace = cell_trace(mode, wl)?;
    let mut m = Machine::new(cfg, mode, wl, &trace)?;
    m.core.enable_capture();
    let result = m.run(None, &mut ());
    let records = m.core.take_captured();
    // The capture run's cycle count rides in the (v2) trace metadata so
    // replay consumers can report absolute-cycle agreement without
    // re-running the cycle core.
    let meta = etpp_trace::TraceMeta::new(wl.name, scale_label).with_capture_cycles(result.cycles);
    Ok((result, etpp_trace::CapturedTrace { meta, records }))
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
        let (r, rep) = run_telemetry(&cfg, PrefetchMode::Manual, &wl, 10_000).unwrap();
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
