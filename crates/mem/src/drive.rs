//! The driver: the one horizon loop every simulation goes through.
//!
//! [`drive`] runs a [`FrontEnd`] — the cycle-level core or trace
//! replay's in-order window — against a [`MemorySystem`] and a prefetch
//! engine until the front end has finished. One iteration is a *driver
//! visit*: it executes a whole *dense span* — back-to-back busy cycles
//! whose horizon is pinned to the very next cycle (retire, issue,
//! dispatch, store drains, FU wake chains) run cycle-locked inside the
//! visit — and ends with one horizon jump ([`MemorySystem::advance_to`])
//! through the stall that follows. All intermediate memory-system work
//! (cache/DRAM transfers, engine rounds, prefetch pops) runs inside
//! `advance_to` at its exact cycle, and the visit resumes early whenever
//! a demand completion falls due. The sequence of per-cycle `tick` calls
//! is that of a unit-tick loop, so the horizon path is
//! behaviour-preserving by construction; with
//! [`Limits::per_cycle_reference`] the clock advances one cycle per visit
//! instead, and the two are pinned bit-identical by the equivalence
//! suite.
//!
//! The driver also owns the run's guards: the `max_cycles` assert, a
//! deadlock check (the front end waits on no scheduled event while the
//! memory system is quiescent, so nothing can ever change), the
//! wall-clock [`Deadline`] (polled once per visit, never per cycle) and
//! an always-armed livelock detector. Observation rides a [`Probe`]: `()`
//! observes nothing and compiles away; a probe reads the machine and
//! never writes it, so probed runs are bit-identical to plain ones.

use crate::{ConfigOp, Deadline, MemorySystem, PrefetchEngine};
use std::fmt;
use std::panic::panic_any;

/// Consecutive non-advancing visits before the livelock detector aborts.
pub const LIVELOCK_THRESHOLD: u32 = 64;

/// Raw horizons kept in the livelock diagnostic's tail window.
pub const LIVELOCK_WINDOW: usize = 8;

/// A source of demand accesses and configuration ops, stepped by
/// [`drive()`]: it ticks once per simulated cycle and reports the next cycle
/// at which it can act.
pub trait FrontEnd {
    /// Simulates cycle `now`, after the memory system's own tick for it.
    fn tick(&mut self, now: u64, mem: &mut MemorySystem);

    /// Configuration ops the last tick produced, for the driver to
    /// apply to the engine at the same cycle.
    fn take_configs(&mut self) -> Vec<ConfigOp>;

    /// Whether the run is over: the driver stops one cycle after the
    /// tick that made this true.
    fn finished(&self) -> bool;

    /// The front end's event horizon after ticking `now`: the earliest
    /// cycle after `now` at which its tick can do anything. `now + 1`
    /// keeps the driver inside a dense span; `u64::MAX` means it waits
    /// on a memory completion (a deadlock if none is scheduled).
    fn next_event_at(&mut self, now: u64, mem: &MemorySystem) -> u64;

    /// The arm that pinned the last [`FrontEnd::next_event_at`].
    fn horizon_source(&self) -> HorizonSource;

    /// The op the front end waits on, for the deadlock diagnostic
    /// (e.g. `ROB head: op 3 (Load)`).
    fn head(&self) -> String;
}

/// Why a driver visit happened: the horizon source that pinned the
/// cycle. [`FrontEnd::next_event_at`] records the winning arm; the
/// [`drive()`] loop counts one per visit, so the pinned counts
/// (`tests/sim_counts.rs`) and `repro --telemetry` registries can
/// attribute where host iterations go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum HorizonSource {
    /// Retire/issue/dispatch proceeds next cycle — real core work.
    CoreProgress = 0,
    /// Every ready load is parked on a full MSHR file; woken by the
    /// next hierarchy state change (retries for the skipped span are
    /// synthesised so `load_retries` stays bit-exact).
    LoadRetry,
    /// Load queue (replay: issue window) at capacity; woken by the
    /// completion freeing a slot.
    LqFull,
    /// A store writeback is pending issue — draining next cycle, or
    /// parked on a full MSHR file (replay: on its line's fill) and
    /// woken by the next state change.
    StoreWriteback,
    /// Front-end refill ending after a mispredicted branch resolved.
    FetchStall,
    /// Next functional-unit completion (also resolves blocking branches).
    FuCompletion,
    /// Completion of the oldest in-flight demand miss the ROB (replay:
    /// a load's address producer) waits on.
    OldestMiss,
    /// A memory event (DRAM return / cache fill) produced a completion
    /// before the front end's own horizon fell due.
    MemEvent,
    /// A parked span pinned per-cycle by the engine round (requests
    /// draining through pops / a backlogged pop queue).
    EngineRound,
    /// A parked span pinned by snooped events awaiting delivery to the
    /// engine.
    PendingDelivery,
    /// The final drain visit after the last retirement.
    Finish,
}

impl HorizonSource {
    /// Number of sources (size of attribution counter arrays).
    pub const COUNT: usize = 11;

    /// Every source, indexable by `as usize`.
    pub const ALL: [HorizonSource; HorizonSource::COUNT] = [
        HorizonSource::CoreProgress,
        HorizonSource::LoadRetry,
        HorizonSource::LqFull,
        HorizonSource::StoreWriteback,
        HorizonSource::FetchStall,
        HorizonSource::FuCompletion,
        HorizonSource::OldestMiss,
        HorizonSource::MemEvent,
        HorizonSource::EngineRound,
        HorizonSource::PendingDelivery,
        HorizonSource::Finish,
    ];

    /// Stable machine-readable key (JSON field material).
    pub fn key(self) -> &'static str {
        match self {
            HorizonSource::CoreProgress => "core_progress",
            HorizonSource::LoadRetry => "load_retry",
            HorizonSource::LqFull => "lq_full",
            HorizonSource::StoreWriteback => "store_writeback",
            HorizonSource::FetchStall => "fetch_stall",
            HorizonSource::FuCompletion => "fu_completion",
            HorizonSource::OldestMiss => "oldest_miss",
            HorizonSource::MemEvent => "mem_event",
            HorizonSource::EngineRound => "engine_round",
            HorizonSource::PendingDelivery => "pending_delivery",
            HorizonSource::Finish => "finish",
        }
    }
}

/// What bounds one run, and the names its diagnostics carry.
#[derive(Debug, Clone, Copy)]
pub struct Limits<'a> {
    /// Benchmark name, for the `max_cycles`, deadlock and livelock
    /// diagnostics.
    pub workload: &'a str,
    /// Engine-mode key, likewise.
    pub mode: &'a str,
    /// Cycle cap: the run panics once the clock reaches this.
    pub max_cycles: u64,
    /// Unit-tick reference: one cycle per visit, engine batching off,
    /// no visit attribution.
    pub per_cycle_reference: bool,
    /// Wall-clock deadline, polled once per visit; expiry aborts the
    /// run with a [`crate::Cancelled`] payload.
    pub deadline: Option<Deadline>,
}

/// Observation hooks the driver calls on a run of front end `F`. A
/// probe reads the machine and never writes it; `()` is the no-op.
pub trait Probe<F: ?Sized> {
    /// After every simulated cycle the driver ticks, once that cycle's
    /// configuration ops have reached the engine.
    fn cycle(&mut self, now: u64, front: &F, mem: &MemorySystem);

    /// Once per attributed visit: `src` ended the span `[start, end)`.
    fn visit(&mut self, src: HorizonSource, start: u64, end: u64);
}

impl<F: ?Sized> Probe<F> for () {
    #[inline(always)]
    fn cycle(&mut self, _now: u64, _front: &F, _mem: &MemorySystem) {}

    #[inline(always)]
    fn visit(&mut self, _src: HorizonSource, _start: u64, _end: u64) {}
}

/// Per-source driver-visit attribution: how many visits each
/// [`HorizonSource`] ended. `host_iters == visits.total()` on the
/// horizon path (the per-cycle reference does not attribute). Surfaced
/// in `repro --telemetry` registries as `driver.visits.*`.
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

/// Runs `front` to completion and returns `(cycles, host_iters,
/// visits)`: the cycle after the finishing tick, the driver visits it
/// took, and their per-source attribution.
///
/// # Panics
/// When the clock reaches `limits.max_cycles`, when the run deadlocks
/// (the diagnostic names the cycle and [`FrontEnd::head`]), with a
/// [`LivelockAbort`] payload when the horizon stops advancing, and with
/// a [`crate::Cancelled`] payload once `limits.deadline` expires.
pub fn drive<F: FrontEnd + ?Sized>(
    front: &mut F,
    mem: &mut MemorySystem,
    engine: &mut dyn PrefetchEngine,
    limits: &Limits<'_>,
    probe: &mut impl Probe<F>,
) -> (u64, u64, VisitCounts) {
    if limits.per_cycle_reference {
        mem.set_engine_batching(false);
    }
    let mut now: u64 = 0;
    let mut host_iters: u64 = 0;
    let mut visits = VisitCounts::default();
    let mut livelock = LivelockDetector::new();
    while !front.finished() {
        host_iters += 1;
        if let Some(d) = limits.deadline {
            d.poll(host_iters, now);
        }
        let visit_start = now;
        loop {
            mem.tick(now, engine);
            front.tick(now, mem);
            let configs = front.take_configs();
            if !configs.is_empty() {
                for op in &configs {
                    engine.config(now, op);
                }
                // Configs mutate the engine behind the memory system's
                // back; invalidate its cached event horizon.
                mem.wake_engine();
            }
            probe.cycle(now, front, mem);
            if limits.per_cycle_reference {
                now += 1;
                break;
            }
            if front.finished() {
                // Do not fast-forward through in-flight prefetch drains
                // after the last retirement: the reference loop exits
                // one cycle after the finishing tick, and so must we.
                visits.0[HorizonSource::Finish as usize] += 1;
                probe.visit(HorizonSource::Finish, visit_start, now + 1);
                now += 1;
                break;
            }
            let horizon = front.next_event_at(now, mem);
            livelock.observe(
                now,
                horizon,
                front.horizon_source(),
                limits.workload,
                limits.mode,
            );
            if horizon == now + 1 {
                // Dense span: the front end progresses on the very next
                // cycle, so stay inside this visit.
                now += 1;
                limits.check(now);
                continue;
            }
            if horizon == u64::MAX && mem.next_horizon(now).is_none() {
                limits.deadlock(now, &front.head());
            }
            let next = mem.advance_to(now, horizon, engine).max(now + 1);
            // Attribute the visit to whatever ended its span: the front
            // end's winning horizon arm, or — when `advance_to` handed
            // control back early — the memory event whose completion
            // fell due (an LQ-full wait keeps its label: the completion
            // is what frees the slot).
            let src = if next < horizon && front.horizon_source() != HorizonSource::LqFull {
                HorizonSource::MemEvent
            } else {
                front.horizon_source()
            };
            visits.0[src as usize] += 1;
            probe.visit(src, visit_start, next);
            now = next;
            break;
        }
        limits.check(now);
    }
    (now, host_iters, visits)
}

impl Limits<'_> {
    #[inline]
    fn check(&self, now: u64) {
        assert!(
            now < self.max_cycles,
            "simulation exceeded {} cycles for {} / {}",
            self.max_cycles,
            self.workload,
            self.mode
        );
    }

    /// Aborts a run that can never move again: the front end waits on
    /// a memory completion nothing has scheduled, and the memory system
    /// has no event, engine round or delivery pending.
    #[cold]
    fn deadlock(&self, now: u64, head: &str) -> ! {
        panic!(
            "deadlock at cycle {now} for {} / {}: the front end waits on no scheduled event \
             and the memory system is quiescent ({head})",
            self.workload, self.mode
        );
    }
}

/// Typed panic payload of a livelock abort: the named diagnostic the
/// driver raises when the event horizon stops advancing.
#[derive(Debug, Clone)]
pub struct LivelockAbort {
    /// Benchmark name.
    pub workload: String,
    /// Engine-mode key.
    pub mode: String,
    /// Cycle the driver was stuck at.
    pub at_cycle: u64,
    /// The horizon source that "won" the stuck visits.
    pub source: HorizonSource,
    /// Consecutive visits whose horizon failed to advance.
    pub stalled_visits: u32,
    /// The last [`LIVELOCK_WINDOW`] raw horizons, oldest first.
    pub recent_horizons: Vec<u64>,
}

impl fmt::Display for LivelockAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "livelock: horizon stuck at cycle {} for {} consecutive visits \
             ({} / {}, winning source {}, last horizons {:?})",
            self.at_cycle,
            self.stalled_visits,
            self.workload,
            self.mode,
            self.source.key(),
            self.recent_horizons,
        )
    }
}

/// Watches the reported horizons and aborts the run with a
/// [`LivelockAbort`] once they stop advancing. A buggy `next_event_at`
/// arm that reports a horizon `<= now` would degrade the driver to
/// one-cycle-per-visit crawling, indistinguishable from a hang, long
/// before `max_cycles` fires. Healthy horizons exceed `now` by
/// construction, so the always-armed detector costs two compares per
/// visit and never fires on a healthy run.
#[derive(Debug)]
struct LivelockDetector {
    stalled: u32,
    recent: [u64; LIVELOCK_WINDOW],
    seen: usize,
}

impl LivelockDetector {
    fn new() -> Self {
        LivelockDetector {
            stalled: 0,
            recent: [0; LIVELOCK_WINDOW],
            seen: 0,
        }
    }

    /// Observes one visit's *raw* reported horizon (before the driver
    /// clamps it to `now + 1`). Aborts with a [`LivelockAbort`] after
    /// [`LIVELOCK_THRESHOLD`] consecutive visits whose horizon failed to
    /// exceed `now`.
    #[inline]
    fn observe(
        &mut self,
        now: u64,
        horizon: u64,
        source: HorizonSource,
        workload: &str,
        mode: &str,
    ) {
        if horizon > now {
            self.stalled = 0;
            return;
        }
        self.recent[self.seen % LIVELOCK_WINDOW] = horizon;
        self.seen += 1;
        self.stalled += 1;
        if self.stalled >= LIVELOCK_THRESHOLD {
            let kept = LIVELOCK_WINDOW.min(self.seen);
            let recent_horizons = (0..kept)
                .map(|i| self.recent[(self.seen - kept + i) % LIVELOCK_WINDOW])
                .collect();
            panic_any(LivelockAbort {
                workload: workload.to_string(),
                mode: mode.to_string(),
                at_cycle: now,
                source,
                stalled_visits: self.stalled,
                recent_horizons,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn detector_fires_on_a_synthetic_non_advancing_horizon() {
        let mut d = LivelockDetector::new();
        let err = catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..LIVELOCK_THRESHOLD + 10 {
                // A buggy horizon arm keeps reporting `horizon == now`.
                d.observe(1000, 1000, HorizonSource::CoreProgress, "IntSort", "manual");
            }
        }))
        .expect_err("a stuck horizon must abort");
        let abort = err
            .downcast_ref::<LivelockAbort>()
            .expect("typed LivelockAbort payload");
        assert_eq!(abort.at_cycle, 1000);
        assert_eq!(abort.stalled_visits, LIVELOCK_THRESHOLD);
        assert_eq!(abort.source, HorizonSource::CoreProgress);
        assert_eq!(abort.recent_horizons, vec![1000; LIVELOCK_WINDOW]);
        assert!(abort.to_string().contains("livelock: horizon stuck"));
    }

    #[test]
    fn detector_resets_on_any_advancing_visit() {
        let mut d = LivelockDetector::new();
        for round in 0..3u64 {
            for _ in 0..LIVELOCK_THRESHOLD - 1 {
                d.observe(round, round, HorizonSource::MemEvent, "wl", "none");
            }
            // One healthy visit clears the streak.
            d.observe(round, round + 5, HorizonSource::MemEvent, "wl", "none");
        }
    }
}
