//! The complete programmable prefetcher engine (§4).
//!
//! Wires the address filter, observation queue, scheduler, PPUs, EWMA
//! calculators, request tags and prefetch request queue into a single
//! [`etpp_mem::PrefetchEngine`] implementation that attaches to the
//! simulated L1 data cache.

use crate::ewma::EwmaBank;
use crate::filter::{FilterEntry, FilterTable};
use crate::ppu::Ppu;
use etpp_isa::{run_kernel, EventCtx, Kernel, KernelId, Program};
use etpp_mem::{ConfigOp, DemandEvent, Line, PrefetchEngine, PrefetchRequest, TagId};
use etpp_telemetry::{Hist, Registry};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Engine-side observability: occupancy distributions of the
/// observation and request queues, sampled at each enqueue. Attached
/// behind an `Option<Box<..>>` (one pointer null-check when disabled);
/// pure observation, so engine behaviour and [`PfEngineStats`] are
/// bit-identical with telemetry on or off.
#[derive(Debug, Default)]
pub struct EngineTelemetry {
    /// Observation-queue occupancy after each enqueue.
    pub obs_q_depth: Hist,
    /// Request-queue occupancy after each release.
    pub req_q_depth: Hist,
}

impl EngineTelemetry {
    /// Publishes both histograms into a registry under `engine.*`.
    pub fn publish(&self, reg: &mut Registry) {
        reg.put_hist("engine.obs_q_depth", &self.obs_q_depth);
        reg.put_hist("engine.req_q_depth", &self.req_q_depth);
    }
}

/// Number of distinct memory-request tags supported.
const NUM_TAGS: usize = 64;

/// Mask for the chain-birth timestamp carried in request metadata.
const BIRTH_MASK: u64 = (1 << 48) - 1;

/// Configuration of the prefetcher (Table 1 defaults via
/// [`PrefetcherParams::paper`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefetcherParams {
    /// Number of PPUs.
    pub num_ppus: usize,
    /// Main core clock in Hz (time base of the simulation).
    pub core_hz: u64,
    /// PPU clock in Hz.
    pub ppu_hz: u64,
    /// Observation queue capacity.
    pub observation_queue: usize,
    /// Prefetch request queue capacity.
    pub request_queue: usize,
    /// PPU-cycles of scheduler/pipeline-fill overhead per event (4-stage
    /// pipeline).
    pub dispatch_overhead: u64,
    /// Instruction budget per event (runaway-kernel guard; §5.1 traps).
    pub max_event_insts: u64,
    /// Figure 11 ablation: stall the issuing PPU on every chained prefetch.
    pub blocked_mode: bool,
    /// Look-ahead distance reported before the EWMAs are primed.
    pub default_lookahead: u64,
    /// Safety multiplier on the EWMA chain/iteration ratio (§7.2: distances
    /// are overestimated because chained prefetches serialise).
    pub lookahead_scale: u64,
    /// Upper clamp for the EWMA look-ahead distance.
    pub max_lookahead: u64,
    /// Number of global prefetcher registers.
    pub num_globals: usize,
    /// Filter-table slots.
    pub max_ranges: usize,
    /// Core cycles after which a blocked PPU whose fill never arrived is
    /// force-released (dropped prefetches must not wedge the unit).
    pub blocked_timeout: u64,
}

impl PrefetcherParams {
    /// The paper's configuration: 12 PPUs at 1 GHz against a 3.2 GHz core,
    /// 40-entry observation queue, 200-entry prefetch queue.
    pub fn paper() -> Self {
        PrefetcherParams {
            num_ppus: 12,
            core_hz: 3_200_000_000,
            ppu_hz: 1_000_000_000,
            observation_queue: 40,
            request_queue: 200,
            dispatch_overhead: 4,
            max_event_insts: 512,
            blocked_mode: false,
            default_lookahead: 16,
            lookahead_scale: 4,
            max_lookahead: 256,
            num_globals: 32,
            max_ranges: 16,
            blocked_timeout: 4096,
        }
    }

    /// Paper configuration with a different PPU count and clock (Figure 9).
    pub fn with_ppus(num_ppus: usize, ppu_hz: u64) -> Self {
        PrefetcherParams {
            num_ppus,
            ppu_hz,
            ..PrefetcherParams::paper()
        }
    }
}

impl Default for PrefetcherParams {
    fn default() -> Self {
        PrefetcherParams::paper()
    }
}

/// Builder assembling the kernels of a prefetch program.
#[derive(Debug, Default)]
pub struct PrefetchProgramBuilder {
    program: Program,
}

impl PrefetchProgramBuilder {
    /// Starts an empty program.
    pub fn new() -> Self {
        PrefetchProgramBuilder::default()
    }

    /// Adds a kernel, returning its id (used in filter/tag configuration).
    pub fn add_kernel(&mut self, kernel: Kernel) -> KernelId {
        self.program.add(kernel)
    }

    /// Finishes the program.
    pub fn build(self) -> Program {
        self.program
    }
}

/// Scalar event counters, updated on the hot path. Allocation-free and
/// cheap to read mid-run via [`ProgrammablePrefetcher::counters`];
/// per-PPU tallies live on the [`Ppu`]s themselves and are only gathered
/// into a [`PfEngineStats`] snapshot at reporting boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PfCounters {
    /// Events dispatched to PPUs.
    pub events_run: u64,
    /// Events terminated early (trap / instruction budget).
    pub events_terminated: u64,
    /// Total PPU instructions executed.
    pub insts_executed: u64,
    /// Prefetch requests emitted by kernels.
    pub prefetches_emitted: u64,
    /// Observations enqueued.
    pub obs_enqueued: u64,
    /// Observations dropped on queue overflow.
    pub obs_dropped: u64,
    /// Requests dropped on queue overflow.
    pub req_dropped: u64,
    /// Blocked PPUs force-released by timeout.
    pub blocked_timeouts: u64,
}

/// Statistics exported by the engine — a reporting-boundary snapshot
/// assembled by [`ProgrammablePrefetcher::stats`]. Building one
/// allocates the per-PPU vectors, so take it once per run, never inside
/// a simulation loop (use [`ProgrammablePrefetcher::counters`] there).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PfEngineStats {
    /// Events dispatched to PPUs.
    pub events_run: u64,
    /// Events terminated early (trap / instruction budget).
    pub events_terminated: u64,
    /// Total PPU instructions executed.
    pub insts_executed: u64,
    /// Prefetch requests emitted by kernels.
    pub prefetches_emitted: u64,
    /// Observations enqueued.
    pub obs_enqueued: u64,
    /// Observations dropped on queue overflow.
    pub obs_dropped: u64,
    /// Requests dropped on queue overflow.
    pub req_dropped: u64,
    /// Blocked PPUs force-released by timeout.
    pub blocked_timeouts: u64,
    /// Per-PPU busy (awake) core cycles — Figure 10's numerator.
    pub per_ppu_busy: Vec<u64>,
    /// Per-PPU events executed.
    pub per_ppu_events: Vec<u64>,
}

#[derive(Debug, Clone)]
struct Observation {
    /// Cycle the observation entered the queue. An observation can
    /// never dispatch before this — it floors the scheduling horizon
    /// when idle PPUs carry stale (past) `busy_until` stamps.
    at: u64,
    vaddr: u64,
    kernel: KernelId,
    line: Option<Line>,
    /// Chain-birth timestamp (0 = untimed).
    birth: u64,
}

#[derive(Debug, Clone, Copy)]
struct Emission {
    vaddr: u64,
    tag: Option<u16>,
    at_inst: u64,
}

#[derive(Debug, Clone, Copy)]
struct Release {
    vaddr: u64,
    tag: Option<TagId>,
    meta: u64,
}

impl Ord for ReleaseAt {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl PartialOrd for ReleaseAt {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for ReleaseAt {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for ReleaseAt {}

#[derive(Debug, Clone, Copy)]
struct ReleaseAt {
    at: u64,
    seq: u64,
    rel: Release,
}

/// Kernel execution context: a snapshot of observation + global state.
/// Emissions land in a scratch buffer owned by the engine so dispatch
/// does not allocate per event.
struct KernelCtx<'a> {
    vaddr: u64,
    line: Option<&'a Line>,
    globals: &'a [u64],
    ewma: &'a EwmaBank,
    emissions: &'a mut Vec<Emission>,
}

impl EventCtx for KernelCtx<'_> {
    fn vaddr(&self) -> u64 {
        self.vaddr
    }
    fn line_word(&self, off: u8) -> u64 {
        match self.line {
            Some(l) => {
                let o = off as usize;
                u64::from_le_bytes(l[o..o + 8].try_into().expect("interp masks offsets"))
            }
            None => 0,
        }
    }
    fn global(&self, idx: u8) -> u64 {
        self.globals.get(idx as usize).copied().unwrap_or(0)
    }
    fn ewma_lookahead(&self, range: u16) -> u64 {
        self.ewma.lookahead(range as usize)
    }
    fn prefetch(&mut self, vaddr: u64, tag: Option<u16>, at_inst: u64) {
        self.emissions.push(Emission {
            vaddr,
            tag,
            at_inst,
        });
    }
}

/// The event-triggered programmable prefetcher.
#[derive(Debug)]
pub struct ProgrammablePrefetcher {
    params: PrefetcherParams,
    program: Program,
    enabled: bool,
    filter: FilterTable,
    globals: Vec<u64>,
    tag_kernels: Vec<Option<(KernelId, bool)>>,
    ewma: EwmaBank,
    obs_q: VecDeque<Observation>,
    req_q: VecDeque<Release>,
    releases: BinaryHeap<Reverse<ReleaseAt>>,
    ppus: Vec<Ppu>,
    seq: u64,
    stats: PfCounters,
    /// Scratch: filter hits collected in `on_demand`/`on_prefetch_fill`.
    scratch_hits: Vec<(usize, FilterEntry)>,
    /// Scratch: (kernel, birth) events gathered per prefetch fill.
    scratch_events: Vec<(KernelId, u64)>,
    /// Scratch: kernel emissions collected per dispatch.
    scratch_emissions: Vec<Emission>,
    /// Optional observability collector (`None` = disabled, free).
    tel: Option<Box<EngineTelemetry>>,
    /// Debug builds count scratch-buffer reallocations so tests can
    /// assert the hot path is allocation-free once warm.
    #[cfg(debug_assertions)]
    scratch_regrows: u64,
}

impl ProgrammablePrefetcher {
    /// Creates an enabled prefetcher loaded with `program`.
    pub fn new(params: PrefetcherParams, program: Program) -> Self {
        ProgrammablePrefetcher {
            enabled: true,
            filter: FilterTable::new(params.max_ranges),
            globals: vec![0; params.num_globals],
            tag_kernels: vec![None; NUM_TAGS],
            ewma: EwmaBank::new(
                params.max_ranges,
                params.default_lookahead,
                params.max_lookahead,
                params.lookahead_scale,
            ),
            obs_q: VecDeque::with_capacity(params.observation_queue),
            req_q: VecDeque::with_capacity(params.request_queue),
            releases: BinaryHeap::new(),
            ppus: (0..params.num_ppus).map(Ppu::new).collect(),
            seq: 0,
            stats: PfCounters::default(),
            scratch_hits: Vec::with_capacity(params.max_ranges),
            scratch_events: Vec::with_capacity(params.max_ranges + 1),
            scratch_emissions: Vec::with_capacity(16),
            tel: None,
            #[cfg(debug_assertions)]
            scratch_regrows: 0,
            params,
            program,
        }
    }

    /// Parameters in use.
    pub fn params(&self) -> &PrefetcherParams {
        &self.params
    }

    /// Current EWMA look-ahead for a range (diagnostics/reporting).
    pub fn lookahead(&self, range: usize) -> u64 {
        self.ewma.lookahead(range)
    }

    /// Scalar event counters — allocation-free, safe to poll inside a
    /// simulation loop.
    pub fn counters(&self) -> &PfCounters {
        &self.stats
    }

    /// Full statistics snapshot including per-PPU tallies. Allocates the
    /// per-PPU vectors: take it once at a reporting boundary (end of a
    /// run), never per cycle — use [`Self::counters`] in loops.
    pub fn stats(&self) -> PfEngineStats {
        PfEngineStats {
            events_run: self.stats.events_run,
            events_terminated: self.stats.events_terminated,
            insts_executed: self.stats.insts_executed,
            prefetches_emitted: self.stats.prefetches_emitted,
            obs_enqueued: self.stats.obs_enqueued,
            obs_dropped: self.stats.obs_dropped,
            req_dropped: self.stats.req_dropped,
            blocked_timeouts: self.stats.blocked_timeouts,
            per_ppu_busy: self.ppus.iter().map(|p| p.busy_cycles).collect(),
            per_ppu_events: self.ppus.iter().map(|p| p.events_run).collect(),
        }
    }

    /// Debug builds only: how many times a hot-path scratch buffer had
    /// to reallocate. After a warm-up pass this must stay flat — the
    /// event path (`on_demand`, `on_prefetch_fill`, `dispatch`) is
    /// allocation-free in steady state.
    #[cfg(debug_assertions)]
    pub fn scratch_regrows(&self) -> u64 {
        self.scratch_regrows
    }

    /// Attaches an observability collector (see [`EngineTelemetry`]).
    pub fn enable_telemetry(&mut self) {
        self.tel = Some(Box::default());
    }

    /// The attached collector, if telemetry is enabled.
    pub fn telemetry(&self) -> Option<&EngineTelemetry> {
        self.tel.as_deref()
    }

    /// Detaches the collector for publishing.
    pub fn take_telemetry(&mut self) -> Option<Box<EngineTelemetry>> {
        self.tel.take()
    }

    /// Simulates a context switch (§5.3): transient state — queues, PPU
    /// registers, EWMA values — is discarded; the configuration (filter
    /// table, globals, tag bindings) survives.
    pub fn context_switch(&mut self) {
        self.obs_q.clear();
        self.req_q.clear();
        self.releases.clear();
        self.ewma.reset();
        for p in &mut self.ppus {
            p.reset();
        }
    }

    /// Converts PPU cycles into core cycles at the configured clock ratio.
    #[inline]
    fn ppu_to_core(&self, ppu_cycles: u64) -> u64 {
        (ppu_cycles * self.params.core_hz).div_ceil(self.params.ppu_hz)
    }

    fn enqueue_obs(&mut self, obs: Observation) {
        if self.obs_q.len() >= self.params.observation_queue {
            // §4.3: old observations can be safely dropped.
            self.obs_q.pop_front();
            self.stats.obs_dropped += 1;
        }
        self.stats.obs_enqueued += 1;
        self.obs_q.push_back(obs);
        if let Some(tel) = self.tel.as_deref_mut() {
            tel.obs_q_depth.record(self.obs_q.len() as u64);
        }
    }

    /// Whether a prefetch to `vaddr` with `tag` will trigger a further
    /// event when it returns (it is a *chained* prefetch).
    fn is_chained(&self, vaddr: u64, tag: Option<u16>) -> bool {
        if let Some(t) = tag {
            if self
                .tag_kernels
                .get(t as usize)
                .copied()
                .flatten()
                .is_some()
            {
                return true;
            }
        }
        self.filter
            .matches(vaddr)
            .any(|(_, e)| e.on_prefetch.is_some())
    }

    /// Executes `obs`'s kernel on `ppu_id` starting at `start`.
    fn dispatch(&mut self, start: u64, obs: &Observation, ppu_id: usize) {
        let mut emissions = std::mem::take(&mut self.scratch_emissions);
        emissions.clear();
        #[cfg(debug_assertions)]
        let cap_before = emissions.capacity();
        let kernel = self.program.kernel(obs.kernel);
        let mut ctx = KernelCtx {
            vaddr: obs.vaddr,
            line: obs.line.as_ref(),
            globals: &self.globals,
            ewma: &self.ewma,
            emissions: &mut emissions,
        };
        let out = run_kernel(kernel, &mut ctx, self.params.max_event_insts);

        self.stats.events_run += 1;
        self.stats.insts_executed += out.insts;
        if !out.completed {
            self.stats.events_terminated += 1;
        }

        let duration = self.ppu_to_core(self.params.dispatch_overhead + out.insts);
        let mut chained = 0u32;
        for em in &emissions {
            let rel_at = start + self.ppu_to_core(self.params.dispatch_overhead + em.at_inst);
            let chained_pf = self.params.blocked_mode && self.is_chained(em.vaddr, em.tag);
            if chained_pf {
                chained += 1;
            }
            let ppu_bits = if chained_pf {
                ((ppu_id as u64) + 1) << 48
            } else {
                0
            };
            let meta = (obs.birth & BIRTH_MASK) | ppu_bits;
            self.seq += 1;
            self.stats.prefetches_emitted += 1;
            self.releases.push(Reverse(ReleaseAt {
                at: rel_at,
                seq: self.seq,
                rel: Release {
                    vaddr: em.vaddr,
                    tag: em.tag.map(TagId),
                    meta,
                },
            }));
        }
        let ppu = &mut self.ppus[ppu_id];
        ppu.begin(start.max(ppu.busy_until()), duration);
        if chained > 0 {
            let until = self.ppus[ppu_id].busy_until();
            self.ppus[ppu_id].block(until, chained);
        }
        #[cfg(debug_assertions)]
        if emissions.capacity() != cap_before {
            self.scratch_regrows += 1;
        }
        self.scratch_emissions = emissions;
    }

    fn drain_releases(&mut self, now: u64) {
        while let Some(Reverse(r)) = self.releases.peek() {
            if r.at > now {
                break;
            }
            let r = self.releases.pop().expect("peeked").0;
            if self.req_q.len() >= self.params.request_queue {
                // §4.6: old requests dropped on overflow.
                if let Some(old) = self.req_q.pop_front() {
                    self.drop_request(now, &old);
                }
            }
            self.req_q.push_back(r.rel);
            if let Some(tel) = self.tel.as_deref_mut() {
                tel.req_q_depth.record(self.req_q.len() as u64);
            }
        }
    }

    fn drop_request(&mut self, now: u64, rel: &Release) {
        self.stats.req_dropped += 1;
        let ppu_bits = rel.meta >> 48;
        if ppu_bits != 0 {
            let ppu = (ppu_bits - 1) as usize;
            if ppu < self.ppus.len() && self.ppus[ppu].blocked_outstanding() > 0 {
                self.ppus[ppu].unblock_one(now);
            }
        }
    }

    /// Dispatches queued observations to free PPUs at `now`. During
    /// batched *catch-up* steps (`gate_arrivals`, replaying times before
    /// the current tick) an observation that had not been enqueued yet
    /// must not dispatch — FIFO order means the front carries the oldest
    /// stamp, so gating the front blocks nothing that could legally run.
    /// The final step at the tick's own time dispatches everything
    /// present, exactly as a unit tick would.
    fn schedule(&mut self, now: u64, gate_arrivals: bool) {
        loop {
            match self.obs_q.front() {
                Some(obs) if !gate_arrivals || obs.at <= now => {}
                _ => return,
            }
            let Some(ppu_id) = self.ppus.iter().position(|p| p.is_free(now)) else {
                return;
            };
            let obs = self.obs_q.pop_front().expect("checked non-empty");
            self.dispatch(now, &obs, ppu_id);
        }
    }

    fn check_blocked_timeouts(&mut self, now: u64) {
        if !self.params.blocked_mode {
            return;
        }
        let timeout = self.params.blocked_timeout;
        for i in 0..self.ppus.len() {
            let p = &self.ppus[i];
            if p.blocked_outstanding() > 0 && now > p.block_started() + timeout {
                self.ppus[i].force_unblock(now);
                self.stats.blocked_timeouts += 1;
            }
        }
    }

    /// One batched scheduling step at time `t` — exactly what a unit
    /// tick does: expire blocked-mode timeouts, move due emissions into
    /// the request queue, dispatch waiting observations to free PPUs.
    /// `catch_up` marks steps replaying skipped time, where
    /// not-yet-enqueued observations must stay parked.
    fn step_at(&mut self, t: u64, catch_up: bool) {
        self.check_blocked_timeouts(t);
        self.drain_releases(t);
        self.schedule(t, catch_up);
    }

    /// Earliest internal event strictly before `bound`: a release
    /// falling due, a busy PPU freeing up while observations wait, or a
    /// blocked PPU's timeout expiring. Request-queue drain is *not* an
    /// internal event — pops come from the memory system, which polls
    /// every cycle while [`PrefetchEngine::next_event_at`] reports one.
    fn next_internal_step(&self, bound: u64) -> Option<u64> {
        let mut next = u64::MAX;
        if let Some(Reverse(r)) = self.releases.peek() {
            next = next.min(r.at);
        }
        if let Some(front) = self.obs_q.front() {
            let mut free_at = u64::MAX;
            for p in &self.ppus {
                if p.blocked_outstanding() == 0 {
                    free_at = free_at.min(p.busy_until());
                }
            }
            if free_at != u64::MAX {
                // A PPU idle since before the observation arrived frees
                // "at" the observation's own enqueue cycle — never
                // earlier, or the dispatch would time-travel.
                next = next.min(free_at.max(front.at));
            }
        }
        if self.params.blocked_mode {
            for p in &self.ppus {
                if p.blocked_outstanding() > 0 {
                    next = next.min(p.block_started() + self.params.blocked_timeout + 1);
                }
            }
        }
        (next < bound).then_some(next)
    }

    /// Advances the engine to cycle `now`, processing every internal
    /// event in the skipped span in time order. Equivalent to calling
    /// [`PrefetchEngine::tick`] once per cycle from the last call up to
    /// `now`: at cycles with no due release, no freeable PPU with a
    /// waiting observation, and no expiring timeout, a unit tick is a
    /// no-op, so only the event times need visiting.
    pub fn advance_to(&mut self, now: u64) {
        if !self.enabled {
            return;
        }
        let mut guard = 0u64;
        while let Some(t) = self.next_internal_step(now) {
            self.step_at(t, true);
            debug_assert!(
                self.next_internal_step(now).is_none_or(|n| n > t),
                "engine event horizon must advance"
            );
            debug_assert!(guard < 1 << 32, "advance_to stuck at t={t}");
            guard += 1;
        }
        self.step_at(now, false);
    }
}

impl PrefetchEngine for ProgrammablePrefetcher {
    fn on_demand(&mut self, now: u64, ev: &DemandEvent) {
        if !self.enabled || ev.is_write {
            return;
        }
        let mut hits = std::mem::take(&mut self.scratch_hits);
        hits.clear();
        #[cfg(debug_assertions)]
        let cap_before = hits.capacity();
        hits.extend(self.filter.matches(ev.vaddr).map(|(i, e)| (i, *e)));
        for &(i, e) in &hits {
            if e.flags.ewma_iteration {
                self.ewma.record_iteration(i, now);
            }
            if let Some(kernel) = e.on_load {
                let birth = if e.flags.ewma_chain_start { now } else { 0 };
                self.enqueue_obs(Observation {
                    at: now,
                    vaddr: ev.vaddr,
                    kernel,
                    line: None,
                    birth,
                });
            }
        }
        #[cfg(debug_assertions)]
        if hits.capacity() != cap_before {
            self.scratch_regrows += 1;
        }
        self.scratch_hits = hits;
    }

    fn on_prefetch_fill(
        &mut self,
        now: u64,
        vaddr: u64,
        line: &Line,
        tag: Option<TagId>,
        meta: u64,
    ) {
        if !self.enabled {
            return;
        }
        let birth = meta & BIRTH_MASK;
        let ppu_bits = meta >> 48;
        let blocked_ppu = if ppu_bits != 0 {
            Some((ppu_bits - 1) as usize)
        } else {
            None
        };

        // Collect events triggered by this fill: tag binding first, then
        // filter ranges (an address in several ranges yields several events).
        let mut events = std::mem::take(&mut self.scratch_events);
        events.clear();
        #[cfg(debug_assertions)]
        let ev_cap_before = events.capacity();
        if let Some(TagId(t)) = tag {
            if let Some((kernel, chain_end)) = self.tag_kernels.get(t as usize).copied().flatten() {
                if chain_end && birth != 0 {
                    self.ewma.record_chain(now.saturating_sub(birth));
                }
                let next_birth = if chain_end { 0 } else { birth };
                events.push((kernel, next_birth));
            }
        }
        let mut range_hits = std::mem::take(&mut self.scratch_hits);
        range_hits.clear();
        #[cfg(debug_assertions)]
        let hit_cap_before = range_hits.capacity();
        range_hits.extend(self.filter.matches(vaddr).map(|(i, e)| (i, *e)));
        for &(_i, e) in &range_hits {
            if e.flags.ewma_chain_end && birth != 0 {
                self.ewma.record_chain(now.saturating_sub(birth));
            }
            if let Some(kernel) = e.on_prefetch {
                let next_birth = if e.flags.ewma_chain_end { 0 } else { birth };
                events.push((kernel, next_birth));
            }
        }
        #[cfg(debug_assertions)]
        if range_hits.capacity() != hit_cap_before {
            self.scratch_regrows += 1;
        }
        self.scratch_hits = range_hits;

        match blocked_ppu {
            Some(p) if p < self.ppus.len() => {
                // Blocked mode: the stalled unit resumes and runs every
                // continuation itself, in sequence.
                if self.ppus[p].blocked_outstanding() > 0 {
                    self.ppus[p].unblock_one(now);
                }
                for &(kernel, next_birth) in &events {
                    let start = now.max(self.ppus[p].busy_until());
                    let obs = Observation {
                        at: now,
                        vaddr,
                        kernel,
                        line: Some(*line),
                        birth: next_birth,
                    };
                    self.dispatch(start, &obs, p);
                }
            }
            _ => {
                for &(kernel, next_birth) in &events {
                    self.enqueue_obs(Observation {
                        at: now,
                        vaddr,
                        kernel,
                        line: Some(*line),
                        birth: next_birth,
                    });
                }
            }
        }
        #[cfg(debug_assertions)]
        if events.capacity() != ev_cap_before {
            self.scratch_regrows += 1;
        }
        self.scratch_events = events;
    }

    fn tick(&mut self, now: u64) {
        // `advance_to` degenerates to the classic
        // timeouts → drain → schedule phases when called every cycle,
        // and replays any skipped span's internal events in time order
        // when the caller jumped ahead by the event horizon.
        self.advance_to(now);
    }

    fn pop_request(&mut self, _now: u64) -> Option<PrefetchRequest> {
        if !self.enabled {
            return None;
        }
        self.req_q.pop_front().map(|r| PrefetchRequest {
            vaddr: r.vaddr,
            tag: r.tag,
            meta: r.meta,
        })
    }

    fn next_event_at(&self, now: u64) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        // Queued requests drain through per-cycle pops by the memory
        // system, so they pin the horizon to the very next cycle.
        let mut next = if self.req_q.is_empty() {
            u64::MAX
        } else {
            now + 1
        };
        if let Some(t) = self.next_internal_step(u64::MAX) {
            next = next.min(t.max(now + 1));
        }
        (next != u64::MAX).then_some(next)
    }

    fn next_tick_at(&self, now: u64) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        // Internal work only — due releases, a busy PPU freeing up for
        // a waiting observation, a blocked-mode timeout. The pop queue
        // is excluded: while the memory system's prefetch buffer is
        // full it cannot pop anyway, and it re-arms the round itself
        // when a slot frees.
        self.next_internal_step(u64::MAX).map(|t| t.max(now + 1))
    }

    fn config(&mut self, _now: u64, op: &ConfigOp) {
        match op {
            ConfigOp::SetRange {
                id,
                lo,
                hi,
                on_load,
                on_prefetch,
                flags,
            } => {
                self.filter.set(
                    id.0 as usize,
                    FilterEntry {
                        lo: *lo,
                        hi: *hi,
                        on_load: on_load.map(KernelId),
                        on_prefetch: on_prefetch.map(KernelId),
                        flags: *flags,
                    },
                );
            }
            ConfigOp::ClearRange { id } => self.filter.clear(id.0 as usize),
            ConfigOp::SetGlobal { idx, value } => {
                if let Some(g) = self.globals.get_mut(*idx as usize) {
                    *g = *value;
                }
            }
            ConfigOp::SetTagKernel {
                tag,
                kernel,
                chain_end,
            } => {
                if let Some(slot) = self.tag_kernels.get_mut(tag.0 as usize) {
                    *slot = Some((KernelId(*kernel), *chain_end));
                }
            }
            ConfigOp::Enable(on) => self.enabled = *on,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpp_isa::KernelBuilder;
    use etpp_mem::{FilterFlags, RangeId};

    fn fig4_engine(blocked: bool) -> (ProgrammablePrefetcher, u64, u64, u64) {
        // Arrays A (0x1000..0x2000), B (0x8000..0x10000), C (0x20000..0x28000).
        let a = 0x1000u64;
        let b = 0x8000u64;
        let c = 0x20000u64;
        let mut prog = PrefetchProgramBuilder::new();
        let on_a_load = prog.add_kernel(
            KernelBuilder::new("on_A_load")
                .ld_vaddr(0)
                .addi(0, 0, 128)
                .prefetch(0)
                .halt()
                .build(),
        );
        let on_a_pf = prog.add_kernel(
            KernelBuilder::new("on_A_prefetch")
                .ld_vaddr(1)
                .ld_data(0, 1)
                .shli(0, 0, 3)
                .ld_global(2, 1)
                .add(0, 0, 2)
                .prefetch(0)
                .halt()
                .build(),
        );
        let on_b_pf = prog.add_kernel(
            KernelBuilder::new("on_B_prefetch")
                .ld_vaddr(1)
                .ld_data(0, 1)
                .shli(0, 0, 3)
                .ld_global(2, 2)
                .add(0, 0, 2)
                .prefetch(0)
                .halt()
                .build(),
        );
        let params = PrefetcherParams {
            blocked_mode: blocked,
            ..PrefetcherParams::paper()
        };
        let mut pf = ProgrammablePrefetcher::new(params, prog.build());
        pf.config(0, &ConfigOp::SetGlobal { idx: 1, value: b });
        pf.config(0, &ConfigOp::SetGlobal { idx: 2, value: c });
        pf.config(
            0,
            &ConfigOp::SetRange {
                id: RangeId(0),
                lo: a,
                hi: a + 0x1000,
                on_load: Some(on_a_load.0),
                on_prefetch: Some(on_a_pf.0),
                flags: FilterFlags::default(),
            },
        );
        pf.config(
            0,
            &ConfigOp::SetRange {
                id: RangeId(1),
                lo: b,
                hi: b + 0x8000,
                on_load: None,
                on_prefetch: Some(on_b_pf.0),
                flags: FilterFlags::default(),
            },
        );
        (pf, a, b, c)
    }

    fn demand_read(vaddr: u64) -> DemandEvent {
        DemandEvent {
            at: 0,
            vaddr,
            pc: 1,
            is_write: false,
            l1_hit: false,
        }
    }

    fn run_until_request(pf: &mut ProgrammablePrefetcher, from: u64) -> (u64, PrefetchRequest) {
        for now in from..from + 10_000 {
            pf.tick(now);
            if let Some(r) = pf.pop_request(now) {
                return (now, r);
            }
        }
        panic!("no request produced");
    }

    #[test]
    fn load_event_produces_lookahead_prefetch() {
        let (mut pf, a, _, _) = fig4_engine(false);
        pf.on_demand(0, &demand_read(a + 8));
        let (at, req) = run_until_request(&mut pf, 0);
        assert_eq!(req.vaddr, a + 8 + 128);
        // 4 overhead + 3 insts at 1GHz vs 3.2GHz: ~23 core cycles.
        assert!(at >= 20, "PPU time must elapse, got {at}");
        assert_eq!(pf.stats().events_run, 1);
    }

    #[test]
    fn late_demand_does_not_dispatch_in_the_past() {
        // Regression: with every PPU idle since cycle 0 (stale
        // `busy_until` stamps), an observation arriving at cycle 1000
        // must still pay full PPU latency from cycle 1000 — batched
        // catch-up stepping must not dispatch it "in the past" and make
        // its request poppable the same cycle the demand arrived.
        let (mut pf, a, _, _) = fig4_engine(false);
        pf.on_demand(1000, &demand_read(a + 8));
        pf.tick(1000);
        assert!(
            pf.pop_request(1000).is_none(),
            "request must not be ready the cycle its demand arrived"
        );
        let (at, req) = run_until_request(&mut pf, 1001);
        assert_eq!(req.vaddr, a + 8 + 128);
        assert!(
            at >= 1020,
            "PPU latency counts from the enqueue cycle, got {at}"
        );
    }

    #[test]
    fn chain_a_to_b_to_c() {
        let (mut pf, a, b, c) = fig4_engine(false);
        pf.on_demand(0, &demand_read(a));
        let (t1, r1) = run_until_request(&mut pf, 0);
        assert_eq!(r1.vaddr, a + 128);
        // Simulate the fill returning with A[16] = 7.
        let mut line = [0u8; 64];
        line[0..8].copy_from_slice(&7u64.to_le_bytes());
        pf.on_prefetch_fill(t1 + 100, r1.vaddr, &line, r1.tag, r1.meta);
        let (t2, r2) = run_until_request(&mut pf, t1 + 100);
        assert_eq!(r2.vaddr, b + 7 * 8, "B[A[x]]");
        // Fill B with value 3 -> C prefetch.
        let mut line2 = [0u8; 64];
        let off = (r2.vaddr % 64) as usize;
        line2[off..off + 8].copy_from_slice(&3u64.to_le_bytes());
        pf.on_prefetch_fill(t2 + 100, r2.vaddr, &line2, r2.tag, r2.meta);
        let (_, r3) = run_until_request(&mut pf, t2 + 100);
        assert_eq!(r3.vaddr, c + 3 * 8, "C[B[A[x]]]");
        assert_eq!(pf.stats().events_run, 3);
    }

    #[test]
    fn write_events_are_ignored() {
        let (mut pf, a, _, _) = fig4_engine(false);
        pf.on_demand(
            0,
            &DemandEvent {
                at: 0,
                vaddr: a,
                pc: 1,
                is_write: true,
                l1_hit: false,
            },
        );
        for now in 0..200 {
            pf.tick(now);
            assert!(pf.pop_request(now).is_none());
        }
    }

    #[test]
    fn observation_queue_drops_oldest() {
        let (mut pf, a, _, _) = fig4_engine(false);
        // More observations than queue capacity before any tick.
        for i in 0..60 {
            pf.on_demand(0, &demand_read(a + 8 * i));
        }
        let s = pf.stats();
        assert_eq!(s.obs_enqueued, 60);
        assert_eq!(s.obs_dropped, 60 - 40);
    }

    #[test]
    fn out_of_range_loads_ignored() {
        let (mut pf, _, _, _) = fig4_engine(false);
        pf.on_demand(0, &demand_read(0xdead_0000));
        for now in 0..100 {
            pf.tick(now);
        }
        assert_eq!(pf.stats().events_run, 0);
    }

    #[test]
    fn slower_ppu_takes_proportionally_longer() {
        let mk = |hz: u64| {
            let (mut pf, a, _, _) = fig4_engine(false);
            let mut params = *pf.params();
            params.ppu_hz = hz;
            let mut prog = PrefetchProgramBuilder::new();
            let k = prog.add_kernel(
                KernelBuilder::new("k")
                    .ld_vaddr(0)
                    .addi(0, 0, 128)
                    .prefetch(0)
                    .halt()
                    .build(),
            );
            pf = ProgrammablePrefetcher::new(params, prog.build());
            pf.config(
                0,
                &ConfigOp::SetRange {
                    id: RangeId(0),
                    lo: a,
                    hi: a + 0x1000,
                    on_load: Some(k.0),
                    on_prefetch: None,
                    flags: FilterFlags::default(),
                },
            );
            pf.on_demand(0, &demand_read(a));
            run_until_request(&mut pf, 0).0
        };
        let fast = mk(2_000_000_000);
        let slow = mk(250_000_000);
        assert!(
            slow >= fast * 6,
            "250MHz ({slow}) should be ~8x slower than 2GHz ({fast})"
        );
    }

    #[test]
    fn blocked_mode_stalls_ppu_until_fill() {
        let (mut pf, a, _, _) = fig4_engine(true);
        pf.on_demand(0, &demand_read(a));
        let (t1, r1) = run_until_request(&mut pf, 0);
        // The A-prefetch is chained (A has on_prefetch), so PPU 0 blocks.
        assert_eq!(pf.ppus[0].state(t1 + 1), crate::ppu::PpuState::Blocked);
        // New observations go to PPU 1, not PPU 0.
        pf.on_demand(t1 + 1, &demand_read(a + 64));
        pf.tick(t1 + 2);
        assert_eq!(pf.ppus[1].events_run, 1);
        // Fill arrives: PPU 0 unblocks and runs the continuation itself.
        let line = [0u8; 64];
        pf.on_prefetch_fill(t1 + 300, r1.vaddr, &line, r1.tag, r1.meta);
        assert_eq!(pf.ppus[0].events_run, 2);
    }

    #[test]
    fn event_mode_leaves_ppu_free_after_chained_prefetch() {
        let (mut pf, a, _, _) = fig4_engine(false);
        pf.on_demand(0, &demand_read(a));
        let (t1, _r1) = run_until_request(&mut pf, 0);
        assert!(pf.ppus[0].is_free(t1 + 50), "event mode never blocks");
    }

    #[test]
    fn blocked_timeout_recovers_stuck_unit() {
        let (mut pf, a, _, _) = fig4_engine(true);
        pf.on_demand(0, &demand_read(a));
        let (t1, _r1) = run_until_request(&mut pf, 0);
        // Never deliver the fill; after the timeout the PPU frees itself.
        let deadline = t1 + pf.params().blocked_timeout + 10;
        pf.tick(deadline);
        assert!(pf.ppus[0].is_free(deadline + 1));
        assert_eq!(pf.stats().blocked_timeouts, 1);
    }

    #[test]
    fn context_switch_discards_transients_keeps_config() {
        let (mut pf, a, _, _) = fig4_engine(false);
        pf.on_demand(0, &demand_read(a));
        pf.context_switch();
        for now in 0..100 {
            pf.tick(now);
            assert!(pf.pop_request(now).is_none(), "queues were cleared");
        }
        // Config survives: a new observation still triggers.
        pf.on_demand(200, &demand_read(a));
        let (_, r) = run_until_request(&mut pf, 200);
        assert_eq!(r.vaddr, a + 128);
    }

    #[test]
    fn disable_gates_everything() {
        let (mut pf, a, _, _) = fig4_engine(false);
        pf.config(0, &ConfigOp::Enable(false));
        pf.on_demand(0, &demand_read(a));
        for now in 0..100 {
            pf.tick(now);
            assert!(pf.pop_request(now).is_none());
        }
        assert_eq!(pf.stats().events_run, 0);
    }

    #[test]
    fn scheduler_prefers_lowest_id_ppu() {
        let (mut pf, a, _, _) = fig4_engine(false);
        for i in 0..3 {
            pf.on_demand(0, &demand_read(a + 8 * i));
        }
        pf.tick(0);
        // Three observations dispatched to PPUs 0,1,2 in one tick.
        assert_eq!(pf.ppus[0].events_run, 1);
        assert_eq!(pf.ppus[1].events_run, 1);
        assert_eq!(pf.ppus[2].events_run, 1);
        assert_eq!(pf.ppus[3].events_run, 0);
    }

    #[test]
    fn tagged_fill_runs_tag_kernel() {
        // Linked-list walk kernel: prefetch the next pointer unless null.
        let mut b = KernelBuilder::new("walk");
        let done = b.label();
        let walk = b
            .ld_data_imm(0, 0)
            .li(1, 0)
            .beq(0, 1, done)
            .prefetch_tag(0, 5)
            .bind(done)
            .halt()
            .build();
        let mut prog = PrefetchProgramBuilder::new();
        let k = prog.add_kernel(walk);
        let mut pf = ProgrammablePrefetcher::new(PrefetcherParams::paper(), prog.build());
        pf.config(
            0,
            &ConfigOp::SetTagKernel {
                tag: TagId(5),
                kernel: k.0,
                chain_end: false,
            },
        );
        // A fill with a non-null next pointer chains; a null one stops.
        let mut line = [0u8; 64];
        line[0..8].copy_from_slice(&0x9000u64.to_le_bytes());
        pf.on_prefetch_fill(0, 0x5000, &line, Some(TagId(5)), 0);
        let (_, r) = run_until_request(&mut pf, 0);
        assert_eq!(r.vaddr, 0x9000);
        assert_eq!(r.tag, Some(TagId(5)));
        let nul = [0u8; 64];
        pf.on_prefetch_fill(500, 0x9000, &nul, Some(TagId(5)), 0);
        for now in 500..1000 {
            pf.tick(now);
            assert!(pf.pop_request(now).is_none(), "null pointer ends chain");
        }
    }

    #[test]
    fn ewma_chain_timing_flows_through_tags() {
        // Range with chain_start; tag with chain_end.
        let mut prog = PrefetchProgramBuilder::new();
        let start_k = prog.add_kernel(
            KernelBuilder::new("start")
                .ld_vaddr(0)
                .addi(0, 0, 4096)
                .prefetch_tag(0, 1)
                .halt()
                .build(),
        );
        let end_k = prog.add_kernel(KernelBuilder::new("end").halt().build());
        let mut pf = ProgrammablePrefetcher::new(PrefetcherParams::paper(), prog.build());
        pf.config(
            0,
            &ConfigOp::SetRange {
                id: RangeId(0),
                lo: 0x1000,
                hi: 0x2000,
                on_load: Some(start_k.0),
                on_prefetch: None,
                flags: FilterFlags {
                    ewma_iteration: true,
                    ewma_chain_start: true,
                    ewma_chain_end: false,
                },
            },
        );
        pf.config(
            0,
            &ConfigOp::SetTagKernel {
                tag: TagId(1),
                kernel: end_k.0,
                chain_end: true,
            },
        );
        // Iterations every 20 cycles; chain latency ~400.
        let mut now = 0;
        for i in 0..40u64 {
            pf.on_demand(now, &demand_read(0x1000 + (i % 64) * 8));
            pf.tick(now);
            if let Some(r) = pf.pop_request(now) {
                let line = [0u8; 64];
                pf.on_prefetch_fill(now + 400, r.vaddr, &line, r.tag, r.meta);
            }
            now += 20;
        }
        let la = pf.ewma.lookahead(0);
        let scale = pf.params().lookahead_scale;
        let expect = scale * 400 / 20;
        assert!(
            (expect.saturating_sub(15)..=expect + 15).contains(&la),
            "lookahead should approach {scale}*400/20={expect}, got {la}"
        );
    }
}
