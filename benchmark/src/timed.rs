//! The traced run's instruments: a [`TimedEngine`] adapter that records a
//! span around every [`PrefetchEngine`] call, and replicas of the two cell
//! drivers (`etpp_sim::run`'s visit loop, `etpp_sim::replay_run`) that
//! make the same calls in the same order with a span at each layer
//! boundary. Both are result-transparent — the harness checks every
//! traced cell's simulated counts against the untraced run of the same
//! cell.

use crate::spans::{span, Kind, Tracer};
use etpp_cpu::Core;
use etpp_mem::{ConfigOp, DemandEvent, Line, MemorySystem, PrefetchEngine, PrefetchRequest, TagId};
use etpp_sim::replay::replay_params;
use etpp_sim::{
    make_engine, Engine, HorizonSource, PrefetchMode, ReplayRun, RunResult, Skip, SystemConfig,
    VisitCounts,
};
use etpp_trace::TraceRecord;
use etpp_workloads::{checksum_region, BuiltWorkload};
use std::cell::RefCell;

/// Forwards all seven [`PrefetchEngine`] methods to `inner`, each inside
/// an `engine.*` span (the two horizon queries share `engine.horizon`).
pub struct TimedEngine<'a> {
    inner: &'a mut dyn PrefetchEngine,
    tracer: &'a RefCell<Tracer>,
}

impl<'a> TimedEngine<'a> {
    pub fn new(inner: &'a mut dyn PrefetchEngine, tracer: &'a RefCell<Tracer>) -> Self {
        TimedEngine { inner, tracer }
    }
}

impl PrefetchEngine for TimedEngine<'_> {
    fn on_demand(&mut self, now: u64, ev: &DemandEvent) {
        span(self.tracer, Kind::EngDemand, || {
            self.inner.on_demand(now, ev)
        })
    }

    fn on_prefetch_fill(
        &mut self,
        now: u64,
        vaddr: u64,
        line: &Line,
        tag: Option<TagId>,
        meta: u64,
    ) {
        span(self.tracer, Kind::EngFill, || {
            self.inner.on_prefetch_fill(now, vaddr, line, tag, meta)
        })
    }

    fn tick(&mut self, now: u64) {
        span(self.tracer, Kind::EngTick, || self.inner.tick(now))
    }

    fn pop_request(&mut self, now: u64) -> Option<PrefetchRequest> {
        span(self.tracer, Kind::EngPop, || self.inner.pop_request(now))
    }

    fn config(&mut self, now: u64, op: &ConfigOp) {
        span(self.tracer, Kind::EngConfig, || self.inner.config(now, op))
    }

    fn next_event_at(&self, now: u64) -> Option<u64> {
        span(self.tracer, Kind::EngHorizon, || {
            self.inner.next_event_at(now)
        })
    }

    // Forwarded explicitly: the trait's default would route to *our*
    // `next_event_at` and lose the inner engine's tighter tick horizon.
    fn next_tick_at(&self, now: u64) -> Option<u64> {
        span(self.tracer, Kind::EngHorizon, || {
            self.inner.next_tick_at(now)
        })
    }
}

/// One cycle-core cell, driven by a replica of `etpp_sim::run`'s
/// horizon-aware visit loop (telemetry, watchdog and capture seams left
/// out — all three are pinned as pure observation by the repo's
/// equivalence suite) with a span around each call into a layer.
///
/// # Errors
/// [`Skip`] when `mode` has no engine for this workload.
pub fn traced_cycle_cell(
    cfg: &SystemConfig,
    mode: PrefetchMode,
    wl: &BuiltWorkload,
    tracer: &RefCell<Tracer>,
) -> Result<RunResult, Skip> {
    let (mut engine, mut mem, mut core) = span(tracer, Kind::CellSetup, || {
        let engine = make_engine(cfg, mode, wl)?;
        let mem = MemorySystem::new(cfg.mem, wl.image.clone());
        Ok((engine, mem, Core::new(cfg.core, &wl.trace)))
    })?;

    let mut now: u64 = 0;
    let mut host_iters: u64 = 0;
    let mut visits = VisitCounts::default();
    span(tracer, Kind::Driver, || {
        let mut timed = TimedEngine::new(engine.as_dyn(), tracer);
        while !core.finished() {
            host_iters += 1;
            loop {
                span(tracer, Kind::MemTick, || mem.tick(now, &mut timed));
                span(tracer, Kind::CpuTick, || core.tick(now, &mut mem));
                let configs = core.take_configs();
                if !configs.is_empty() {
                    for op in &configs {
                        timed.config(now, op);
                    }
                    mem.wake_engine();
                }
                if core.finished() {
                    visits.0[HorizonSource::Finish as usize] += 1;
                    now += 1;
                    break;
                }
                let horizon = span(tracer, Kind::CpuHorizon, || core.next_event_at(now, &mem));
                if horizon == now + 1 {
                    now += 1;
                    assert!(now < cfg.max_cycles, "replica exceeded max_cycles");
                    continue;
                }
                let next = span(tracer, Kind::MemAdvance, || {
                    mem.advance_to(now, horizon, &mut timed)
                })
                .max(now + 1);
                let src = if next < horizon && core.horizon_source() != HorizonSource::LqFull {
                    HorizonSource::MemEvent
                } else {
                    core.horizon_source()
                };
                visits.0[src as usize] += 1;
                now = next;
                break;
            }
            assert!(now < cfg.max_cycles, "replica exceeded max_cycles");
        }
    });

    let validated = span(tracer, Kind::Validate, || {
        checksum_region(mem.image(), wl.check_region) == wl.expected
    });
    Ok(RunResult {
        workload: wl.name,
        mode,
        cycles: now,
        host_iters,
        core: core.stats,
        mem: mem.stats(),
        pf: engine.pf_stats(),
        dyn_insts: core.stats.insts_retired,
        mispredict_rate: core.bpred().mispredict_rate(),
        validated,
        final_lookahead: match &engine {
            Engine::Prog(p) => p.lookahead(0),
            _ => 0,
        },
        visits,
        adaptive: engine.adaptive_summary(),
    })
}

/// One trace-replay cell: `etpp_sim::replay_run`'s steps with the engine
/// wrapped, so `trace.replay` self time is the replay front end plus the
/// memory system, and the engine's share shows as child spans.
///
/// # Errors
/// [`Skip`] when `mode` has no engine for this workload.
pub fn traced_replay_cell(
    cfg: &SystemConfig,
    mode: PrefetchMode,
    wl: &BuiltWorkload,
    records: &[TraceRecord],
    tracer: &RefCell<Tracer>,
) -> Result<ReplayRun, Skip> {
    let (mut engine, image) = span(tracer, Kind::CellSetup, || {
        Ok((make_engine(cfg, mode, wl)?, wl.image.clone()))
    })?;
    let res = span(tracer, Kind::Replay, || {
        let mut timed = TimedEngine::new(engine.as_dyn(), tracer);
        etpp_trace::replay_cancellable(&replay_params(), cfg.mem, image, records, &mut timed, None)
    });
    let validated = span(tracer, Kind::Validate, || {
        checksum_region(&res.image, wl.check_region) == wl.expected
    });
    Ok(ReplayRun {
        workload: wl.name,
        mode,
        cycles: res.cycles,
        host_iters: res.host_iters,
        accesses: res.accesses,
        dep_stalls: res.dep_stalls,
        mem: res.mem,
        validated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{cycle_out, replay_out, Driver, Shape, BENCHMARKS, WORKLOADS};
    use etpp_workloads::{workload_by_name, Scale};

    /// Every mode the workloads' cells use on `driver`.
    fn modes_of(driver: Driver) -> Vec<PrefetchMode> {
        let mut modes = Vec::new();
        for w in WORKLOADS {
            if let Shape::Grid(d, list) = w.shape {
                for m in list.iter().filter(|_| d == driver) {
                    if !modes.contains(m) {
                        modes.push(*m);
                    }
                }
            }
        }
        modes
    }

    #[test]
    fn timed_engine_and_replica_driver_are_result_transparent() {
        let cfg = SystemConfig::paper();
        for name in BENCHMARKS {
            let wl = workload_by_name(name).unwrap().build(Scale::Tiny);
            for mode in modes_of(Driver::Cycle) {
                let plain = etpp_sim::run(&cfg, mode, &wl).unwrap();
                let tracer = RefCell::new(Tracer::new());
                let traced = traced_cycle_cell(&cfg, mode, &wl, &tracer).unwrap();
                let label = format!("{name}/{}", mode.key());
                assert_eq!(plain.cycles, traced.cycles, "{label}: cycles");
                assert_eq!(plain.host_iters, traced.host_iters, "{label}: host_iters");
                assert_eq!(plain.core, traced.core, "{label}: CoreStats");
                assert_eq!(plain.mem, traced.mem, "{label}: MemStats");
                assert_eq!(plain.visits, traced.visits, "{label}: visits");
                assert_eq!(plain.pf, traced.pf, "{label}: PfEngineStats");
                assert_eq!(cycle_out(&plain), cycle_out(&traced), "{label}: counts");
                assert!(traced.validated, "{label}: validated");

                // The driver span's children are the per-cycle calls,
                // and the engine is only ever reached through them.
                let t = tracer.into_inner();
                let totals = t.totals();
                assert_eq!(totals.get(Kind::Driver).count, 1);
                assert_eq!(
                    totals.get(Kind::MemTick).count,
                    totals.get(Kind::CpuTick).count,
                    "{label}: one mem.tick per cpu.tick"
                );
                assert!(totals.get(Kind::MemAdvance).count <= traced.host_iters);
                if mode.is_programmable() {
                    assert!(totals.get(Kind::EngDemand).count > 0, "{label}");
                }
                assert_eq!(
                    totals.self_sum_ns(),
                    totals.get(Kind::CellSetup).total_ns
                        + totals.get(Kind::Driver).total_ns
                        + totals.get(Kind::Validate).total_ns,
                    "{label}: self times partition the outermost spans"
                );
            }
        }
    }

    #[test]
    fn traced_replay_cell_is_result_transparent() {
        let cfg = SystemConfig::paper();
        for name in BENCHMARKS {
            let wl = workload_by_name(name).unwrap().build(Scale::Tiny);
            let (_, capture) =
                etpp_sim::run_captured(&cfg, PrefetchMode::None, &wl, "tiny").unwrap();
            for mode in modes_of(Driver::Replay) {
                let plain = etpp_sim::replay_run(&cfg, mode, &wl, &capture.records).unwrap();
                let tracer = RefCell::new(Tracer::new());
                let traced =
                    traced_replay_cell(&cfg, mode, &wl, &capture.records, &tracer).unwrap();
                let label = format!("{name}/{}", mode.key());
                assert_eq!(replay_out(&plain), replay_out(&traced), "{label}: counts");
                assert_eq!(plain.accesses, traced.accesses, "{label}: accesses");
                assert!(traced.validated, "{label}: validated");
                let totals = tracer.into_inner().totals();
                assert_eq!(totals.get(Kind::Replay).count, 1);
                assert_eq!(
                    totals.get(Kind::CpuTick).count,
                    0,
                    "{label}: no core in replay"
                );
            }
        }
    }

    #[test]
    fn modes_without_a_program_are_skipped_not_panicked() {
        let cfg = SystemConfig::paper();
        let mut wl = workload_by_name("IntSort").unwrap().build(Scale::Tiny);
        wl.manual = None;
        let tracer = RefCell::new(Tracer::new());
        assert!(traced_cycle_cell(&cfg, PrefetchMode::Manual, &wl, &tracer).is_err());
        assert!(traced_replay_cell(&cfg, PrefetchMode::Manual, &wl, &[], &tracer).is_err());
        // The failed set-up span was still closed.
        assert_eq!(tracer.into_inner().totals().get(Kind::CellSetup).count, 2);
    }
}
