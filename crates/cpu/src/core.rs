//! The out-of-order execution engine.
//!
//! A 3-wide machine with a 40-entry reorder buffer, 32-entry issue queue,
//! 16-entry load queue, 32-entry store queue, 3 integer / 2 FP / 1 mul-div
//! functional units and a tournament branch predictor — Table 1 of the
//! paper. It replays a [`Trace`] against an
//! [`etpp_mem::MemorySystem`]:
//!
//! * micro-ops dispatch in order into the ROB and wait for their
//!   dependencies;
//! * loads issue to the L1 when ready, retrying on MSHR-full rejections;
//! * stores commit their data to the memory image at retirement and drain
//!   through a store buffer;
//! * loads forward from older overlapping stores;
//! * mispredicted branches stall the front end until they resolve;
//! * prefetcher-configuration ops are collected at retirement for the
//!   attached engine.
//!
//! The engine makes no attempt to model wrong-path execution: the predictor
//! decides only whether fetch would have stalled, which is the
//! first-order effect for these memory-bound workloads.

use crate::bpred::{BranchPredictor, BranchPredictorParams};
use crate::capture::Capture;
use crate::trace::{OpClass, Trace};
use etpp_mem::{AccessKind, Completion, ConfigOp, MemorySystem, Rejection};
use etpp_telemetry::{Hist, Registry};
use etpp_trace::TraceRecord;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Core-side observability: occupancy distributions of the load and
/// store queues, sampled at each issue/enqueue. Attached to a [`Core`]
/// behind an `Option<Box<..>>` (one pointer null-check when disabled);
/// pure observation, so timing and [`CoreStats`] are bit-identical with
/// telemetry on or off.
#[derive(Debug, Default)]
pub struct CoreTelemetry {
    /// Load-queue occupancy after each successful load issue.
    pub lq_depth: Hist,
    /// Store-queue occupancy after each store dispatch.
    pub sq_depth: Hist,
}

impl CoreTelemetry {
    /// Publishes both histograms into a registry under `core.*`.
    pub fn publish(&self, reg: &mut Registry) {
        reg.put_hist("core.lq_depth", &self.lq_depth);
        reg.put_hist("core.sq_depth", &self.sq_depth);
    }
}

/// Core configuration (Table 1 defaults via [`CoreParams::paper`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreParams {
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Issue queue entries.
    pub iq_entries: usize,
    /// Load queue entries (concurrent outstanding loads).
    pub lq_entries: usize,
    /// Store queue entries (dispatch to writeback).
    pub sq_entries: usize,
    /// Fetch/dispatch/retire width.
    pub width: usize,
    /// Integer ALUs.
    pub int_alus: usize,
    /// FP ALUs.
    pub fp_alus: usize,
    /// Multiply/divide units.
    pub muldiv_alus: usize,
    /// Front-end refill penalty after a mispredicted branch resolves.
    pub mispredict_penalty: u64,
    /// Branch predictor geometry.
    pub bpred: BranchPredictorParams,
}

impl CoreParams {
    /// The paper's 3-wide out-of-order core.
    pub fn paper() -> Self {
        CoreParams {
            rob_entries: 40,
            iq_entries: 32,
            lq_entries: 16,
            sq_entries: 32,
            width: 3,
            int_alus: 3,
            fp_alus: 2,
            muldiv_alus: 1,
            mispredict_penalty: 12,
            bpred: BranchPredictorParams::paper(),
        }
    }
}

impl Default for CoreParams {
    fn default() -> Self {
        CoreParams::paper()
    }
}

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Micro-ops retired.
    pub insts_retired: u64,
    /// Loads issued to the memory system.
    pub loads_issued: u64,
    /// Load issue attempts rejected (MSHR/walker pressure).
    pub load_retries: u64,
    /// Loads satisfied by store-to-load forwarding.
    pub store_forwards: u64,
    /// Software prefetches issued.
    pub swpf_issued: u64,
    /// Software prefetches dropped for lack of resources.
    pub swpf_dropped: u64,
    /// Branches executed.
    pub branches: u64,
    /// Branches that stalled the front end (mispredicted).
    pub mispredicts: u64,
    /// Cycles with at least one op retired.
    pub active_cycles: u64,
}

/// Why a driver visit happened: the horizon source that pinned the
/// cycle. [`Core::next_event_at`] records the winning arm; the
/// `etpp_sim::run` driver counts one per visited cycle, so the pinned
/// counts (`tests/sim_counts.rs`) and `repro --telemetry` registries can
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
    /// Load queue at capacity; woken by the completion freeing a slot.
    LqFull,
    /// A store writeback is pending issue — draining next cycle, or
    /// parked on a full MSHR file and woken by the next state change.
    StoreWriteback,
    /// Front-end refill ending after a mispredicted branch resolved.
    FetchStall,
    /// Next functional-unit completion (also resolves blocking branches).
    FuCompletion,
    /// Completion of the oldest in-flight demand miss the ROB waits on.
    OldestMiss,
    /// A memory event (DRAM return / cache fill) produced a completion
    /// before the core's own horizon fell due.
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Waiting,
    Ready,
    Executing,
    Done,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    state: State,
    wait_count: u8,
    in_iq: bool,
    /// Load satisfied by store-to-load forwarding (excluded from capture).
    forwarded: bool,
    /// Capture only: the youngest load feeding a load's address, as
    /// computed at dispatch (see [`Capture::dispatch`]).
    producer: u32,
}

const FREE: Slot = Slot {
    state: State::Done,
    wait_count: 0,
    in_iq: false,
    forwarded: false,
    producer: 0,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SqState {
    WaitRetire,
    PendingIssue,
    Draining,
    Complete,
}

#[derive(Debug, Clone, Copy)]
struct SqEntry {
    addr8: u64,
    trace_idx: u32,
    state: SqState,
    access: u64,
}

/// The out-of-order core bound to a trace.
#[derive(Debug)]
pub struct Core<'t> {
    params: CoreParams,
    trace: &'t Trace,
    bpred: BranchPredictor,

    /// Oldest un-retired trace index.
    head: u32,
    /// ROB slot of `head` (`head % rob_entries`, advanced in `retire`
    /// so [`Core::slot_of`] needs no division).
    head_slot: usize,
    /// Next trace index to dispatch.
    cursor: u32,
    /// Stores retired so far: the index of the next retiring store's
    /// data in [`Trace::store_values`].
    retired_stores: usize,
    slots: Vec<Slot>,
    /// Per-slot wake lists; cleared in place so each keeps its capacity.
    dependents: Vec<Vec<u32>>,

    iq_count: usize,
    lq_inflight: usize,
    sq: VecDeque<SqEntry>,

    ready_int: VecDeque<u32>,
    ready_fp: VecDeque<u32>,
    ready_muldiv: VecDeque<u32>,
    ready_mem: VecDeque<u32>,
    exec_done: BinaryHeap<Reverse<(u64, u32)>>,
    /// `(access id, trace index)` of loads in flight: at most
    /// `lq_entries`, searched linearly, order irrelevant.
    inflight_loads: Vec<(u64, u32)>,

    fetch_stall_until: u64,
    blocking_branch: Option<u32>,

    pending_configs: Vec<ConfigOp>,
    /// Armed by [`Core::next_event_at`] when every ready load is parked
    /// on a full MSHR file: `(from, per_cycle)` — the next tick adds
    /// `per_cycle` retries for every cycle skipped after `from`, so
    /// `load_retries` matches the per-cycle reference bit for bit.
    pending_retry: Option<(u64, u64)>,
    /// The arm that pinned the last horizon (visit attribution).
    horizon_source: HorizonSource,
    /// Retirement capture for trace replay (`None` = disabled).
    capture: Option<Box<Capture>>,
    /// Scratch buffer for draining due memory completions without a
    /// per-cycle allocation.
    completions_scratch: Vec<Completion>,
    /// Optional observability collector (`None` = disabled, free).
    tel: Option<Box<CoreTelemetry>>,
    /// Statistics.
    pub stats: CoreStats,
}

impl<'t> Core<'t> {
    /// Creates a core positioned at the start of `trace`.
    pub fn new(params: CoreParams, trace: &'t Trace) -> Self {
        Core {
            bpred: BranchPredictor::new(params.bpred),
            head: 0,
            head_slot: 0,
            cursor: 0,
            retired_stores: 0,
            slots: vec![FREE; params.rob_entries],
            dependents: vec![Vec::new(); params.rob_entries],
            iq_count: 0,
            lq_inflight: 0,
            sq: VecDeque::with_capacity(params.sq_entries),
            ready_int: VecDeque::new(),
            ready_fp: VecDeque::new(),
            ready_muldiv: VecDeque::new(),
            ready_mem: VecDeque::new(),
            exec_done: BinaryHeap::new(),
            inflight_loads: Vec::with_capacity(params.lq_entries),
            fetch_stall_until: 0,
            blocking_branch: None,
            pending_configs: Vec::new(),
            pending_retry: None,
            horizon_source: HorizonSource::CoreProgress,
            capture: None,
            completions_scratch: Vec::new(),
            tel: None,
            stats: CoreStats::default(),
            params,
            trace,
        }
    }

    /// Whether every op has retired and all buffers have drained.
    pub fn finished(&self) -> bool {
        self.head as usize == self.trace.len()
            && self.sq.is_empty()
            && self.inflight_loads.is_empty()
    }

    /// Configuration ops retired since the last call (to be forwarded to the
    /// prefetch engine).
    pub fn take_configs(&mut self) -> Vec<ConfigOp> {
        std::mem::take(&mut self.pending_configs)
    }

    /// Starts capturing retired memory/config events for trace replay,
    /// including load→load dependence edges (register-producer tracking
    /// through the trace's dependence DAG). Must be called before the
    /// first tick — producers are tracked from dispatch onwards.
    pub fn enable_capture(&mut self) {
        debug_assert_eq!(self.cursor, 0, "enable capture before dispatching");
        self.capture
            .get_or_insert_with(|| Box::new(Capture::new(self.trace)));
    }

    /// Takes every record captured so far (retirement order; loads
    /// satisfied by store-to-load forwarding never reach the memory
    /// system and are not captured).
    pub fn take_captured(&mut self) -> Vec<TraceRecord> {
        self.capture.take().map(|c| c.finish()).unwrap_or_default()
    }

    /// Attaches an observability collector (see [`CoreTelemetry`]).
    pub fn enable_telemetry(&mut self) {
        self.tel = Some(Box::default());
    }

    /// The attached collector, if telemetry is enabled.
    pub fn telemetry(&self) -> Option<&CoreTelemetry> {
        self.tel.as_deref()
    }

    /// Detaches the collector for publishing.
    pub fn take_telemetry(&mut self) -> Option<Box<CoreTelemetry>> {
        self.tel.take()
    }

    /// Branch predictor accuracy access for reporting.
    pub fn bpred(&self) -> &BranchPredictor {
        &self.bpred
    }

    /// ROB slot of an in-window trace index (`idx % rob_entries`).
    #[inline]
    fn slot_of(&self, idx: u32) -> usize {
        let rob = self.params.rob_entries;
        debug_assert!(idx >= self.head && ((idx - self.head) as usize) < rob);
        let slot = self.head_slot + (idx - self.head) as usize;
        if slot >= rob {
            slot - rob
        } else {
            slot
        }
    }

    /// Removes the op from issue-queue accounting exactly once.
    #[inline]
    fn leave_iq(&mut self, slot: usize) {
        if self.slots[slot].in_iq {
            self.slots[slot].in_iq = false;
            self.iq_count -= 1;
        }
    }

    /// Advances one cycle. Order within the cycle: absorb memory
    /// completions, retire, complete FUs, issue, dispatch.
    pub fn tick(&mut self, now: u64, mem: &mut MemorySystem) {
        if let Some((from, per_cycle)) = self.pending_retry.take() {
            // The skipped span was a parked-load state: the per-cycle
            // reference bounces every ready load off the full MSHR file
            // at each cycle in (from, now); this tick counts cycle
            // `now`'s own attempts itself.
            self.stats.load_retries += per_cycle * now.saturating_sub(from + 1);
        }
        self.absorb_completions(now, mem);
        self.complete_fus(now);
        self.retire(now, mem);
        self.drain_store_buffer(now, mem);
        self.issue(now, mem);
        self.dispatch(now);
    }

    /// The core's *event horizon*: the earliest cycle strictly after
    /// `now` at which [`Core::tick`] can do anything at all. Drivers
    /// fold this with [`MemorySystem::next_horizon`] and jump the clock
    /// straight to the minimum; ticking the core at any skipped cycle
    /// is guaranteed to be a no-op (state *and* statistics — enforced
    /// bit-for-bit by `tests/event_horizon_equivalence.rs`).
    ///
    /// The horizon is `now + 1` whenever the core can make progress on
    /// the very next cycle — an op can retire, issue, or dispatch, or a
    /// store writeback can drain. Structural stalls no longer pin
    /// per-cycle revisits: a store writeback parked on a full MSHR
    /// file, or a ready queue whose every load would bounce off it,
    /// fast-forwards to the next cycle the hierarchy's state can change
    /// at all (its event heap, engine round or pending delivery — the
    /// wake-driven replacement for the old retry-every-cycle pins), and
    /// the retries the per-cycle reference would have counted in the
    /// skipped span are synthesised at the next tick. Otherwise the
    /// horizon is the min of the front-end stall end, the next
    /// functional-unit completion (which also resolves a blocking
    /// branch), and the completion of the oldest in-flight miss the
    /// ROB/LSQ is waiting on. `u64::MAX` means the core cannot proceed
    /// without a memory completion that is not currently scheduled —
    /// i.e. a deadlock if the memory system is also quiescent.
    ///
    /// The winning arm is recorded for [`Core::horizon_source`].
    pub fn next_event_at(&mut self, now: u64, mem: &MemorySystem) -> u64 {
        self.pending_retry = None;
        let (at, src) = self.horizon_with_source(now, mem);
        self.horizon_source = src;
        at
    }

    /// The arm that pinned the last [`Core::next_event_at`] horizon.
    pub fn horizon_source(&self) -> HorizonSource {
        self.horizon_source
    }

    fn horizon_with_source(&mut self, now: u64, mem: &MemorySystem) -> (u64, HorizonSource) {
        // Issue-stage progress next cycle. A load queue at capacity
        // blocks the (oldest-first) memory queue without touching any
        // counter, so that case fast-forwards to the completion that
        // frees an LQ slot; a queue of loads all parked on a full MSHR
        // file fast-forwards to the next hierarchy state change with
        // the skipped retries synthesised; any other non-empty ready
        // queue pins the horizon.
        if !self.ready_int.is_empty() || !self.ready_fp.is_empty() || !self.ready_muldiv.is_empty()
        {
            return (now + 1, HorizonSource::CoreProgress);
        }
        let mut lq_blocked = false;
        let mut defer_loads = false;
        if let Some(&idx) = self.ready_mem.front() {
            lq_blocked = self.trace.ops[idx as usize].class == OpClass::Load
                && self.lq_inflight >= self.params.lq_entries;
            if !lq_blocked {
                if self.mem_queue_all_parked(mem) {
                    defer_loads = true;
                    self.pending_retry = Some((now, self.ready_mem.len() as u64));
                } else {
                    return (now + 1, HorizonSource::CoreProgress);
                }
            }
        }
        // A store writeback pending issue drains next cycle — unless it
        // too is parked on a full MSHR file (`drain_store_buffer` only
        // ever attempts the first pending entry, and an MSHR-full bounce
        // is rejected before any side effect, so skipping the retries is
        // behaviour-preserving).
        let mut defer_store = false;
        if let Some(e) = self.sq.iter().find(|e| e.state == SqState::PendingIssue) {
            if mem.demand_would_bounce(e.addr8) {
                defer_store = true;
            } else {
                return (now + 1, HorizonSource::StoreWriteback);
            }
        }
        // The head of the ROB is done: retirement proceeds next cycle.
        if self.head < self.cursor && self.slots[self.head_slot].state == State::Done {
            return (now + 1, HorizonSource::CoreProgress);
        }
        let mut next = u64::MAX;
        let mut src = HorizonSource::CoreProgress;
        let mut fold = |at: u64, s: HorizonSource| {
            if at < next {
                next = at;
                src = s;
            }
        };
        // Dispatch can proceed once the front end unstalls, provided the
        // back-end resources it needs are free. When they are not, the
        // event that frees them (retire, issue, completion) is covered
        // by the arms above/below.
        if self.blocking_branch.is_none() && (self.cursor as usize) < self.trace.len() {
            let rob_free = ((self.cursor - self.head) as usize) < self.params.rob_entries;
            let op = &self.trace.ops[self.cursor as usize];
            let needs_iq = op.class != OpClass::Config;
            let iq_free = !needs_iq || self.iq_count < self.params.iq_entries;
            let sq_free = op.class != OpClass::Store || self.sq.len() < self.params.sq_entries;
            if rob_free && iq_free && sq_free {
                let at = self.fetch_stall_until.max(now + 1);
                fold(
                    at,
                    if at > now + 1 {
                        HorizonSource::FetchStall
                    } else {
                        HorizonSource::CoreProgress
                    },
                );
            }
        }
        // Next functional-unit completion (also resolves the blocking
        // branch and wakes dependents).
        if let Some(&Reverse((at, _))) = self.exec_done.peek() {
            fold(at.max(now + 1), HorizonSource::FuCompletion);
        }
        // Completion of an in-flight miss (wakes loads, releases LQ
        // slots, drains store writebacks, frees store-queue entries).
        if let Some(at) = mem.next_completion_at() {
            fold(
                at.max(now + 1),
                if lq_blocked {
                    HorizonSource::LqFull
                } else {
                    HorizonSource::OldestMiss
                },
            );
        }
        // Parked loads/stores wake the moment the hierarchy's state can
        // change: an internal transfer (which can free an MSHR or
        // install the line), an engine round (whose pops can create the
        // prefetch-buffer entry a retry would merge into), or a pending
        // engine delivery. `advance_to` additionally hands control back
        // at any completion falling due first, so the skipped span is
        // provably a frozen pure-retry state.
        if defer_loads || defer_store {
            let heap = mem.next_event_at().unwrap_or(u64::MAX);
            let engine = mem.engine_next_at().unwrap_or(u64::MAX);
            let deliveries = if mem.deliveries_pending() {
                now + 1
            } else {
                u64::MAX
            };
            let wake = heap.min(engine).min(deliveries);
            if wake != u64::MAX {
                let wsrc = if deliveries <= wake {
                    HorizonSource::PendingDelivery
                } else if engine < heap {
                    HorizonSource::EngineRound
                } else if defer_loads {
                    HorizonSource::LoadRetry
                } else {
                    HorizonSource::StoreWriteback
                };
                fold(wake.max(now + 1), wsrc);
            }
        }
        (next, src)
    }

    /// Whether every entry in the memory-ready queue is a load that
    /// would bounce off a full MSHR file this cycle with no side
    /// effects: no store-to-load forwarding hit (those issue) and an
    /// [`MemorySystem::demand_would_bounce`] structural rejection
    /// (checked before the TLB is touched). While this holds and no
    /// hierarchy state changes, every visited cycle is an identical
    /// retry round adding `ready_mem.len()` to `load_retries`.
    fn mem_queue_all_parked(&self, mem: &MemorySystem) -> bool {
        self.ready_mem.iter().all(|&idx| {
            let op = &self.trace.ops[idx as usize];
            if op.class != OpClass::Load {
                return false;
            }
            let addr8 = op.addr & !7;
            if self
                .sq
                .iter()
                .any(|e| e.trace_idx < idx && e.addr8 & !7 == addr8)
            {
                return false;
            }
            mem.demand_would_bounce(op.addr)
        })
    }

    fn absorb_completions(&mut self, now: u64, mem: &mut MemorySystem) {
        let mut due = std::mem::take(&mut self.completions_scratch);
        due.clear();
        mem.drain_completions_due(now, &mut due);
        for c in due.drain(..) {
            if let Some(i) = self.inflight_loads.iter().position(|l| l.0 == c.id.0) {
                let idx = self.inflight_loads.swap_remove(i).1;
                self.lq_inflight -= 1;
                self.mark_done(idx);
            } else if let Some(e) = self
                .sq
                .iter_mut()
                .find(|e| e.state == SqState::Draining && e.access == c.id.0)
            {
                e.state = SqState::Complete;
            }
        }
        self.completions_scratch = due;
        while self
            .sq
            .front()
            .is_some_and(|e| e.state == SqState::Complete)
        {
            self.sq.pop_front();
        }
    }

    fn complete_fus(&mut self, now: u64) {
        while let Some(&Reverse((at, idx))) = self.exec_done.peek() {
            if at > now {
                break;
            }
            self.exec_done.pop();
            self.mark_done(idx);
            if self.blocking_branch == Some(idx) {
                self.blocking_branch = None;
                self.fetch_stall_until = now + self.params.mispredict_penalty;
            }
        }
    }

    fn mark_done(&mut self, idx: u32) {
        let slot = self.slot_of(idx);
        debug_assert_ne!(self.slots[slot].state, State::Done);
        self.slots[slot].state = State::Done;
        for i in 0..self.dependents[slot].len() {
            let d = self.dependents[slot][i];
            let ds = self.slot_of(d);
            debug_assert!(self.slots[ds].wait_count > 0);
            self.slots[ds].wait_count -= 1;
            if self.slots[ds].wait_count == 0 && self.slots[ds].state == State::Waiting {
                self.slots[ds].state = State::Ready;
                self.enqueue_ready(d);
            }
        }
        self.dependents[slot].clear();
    }

    fn enqueue_ready(&mut self, idx: u32) {
        match self.trace.ops[idx as usize].class {
            OpClass::Int | OpClass::Branch | OpClass::Store => self.ready_int.push_back(idx),
            OpClass::Fp => self.ready_fp.push_back(idx),
            OpClass::MulDiv => self.ready_muldiv.push_back(idx),
            OpClass::Load | OpClass::Swpf => self.ready_mem.push_back(idx),
            OpClass::Config => unreachable!("config ops complete at dispatch"),
        }
    }

    fn retire(&mut self, now: u64, mem: &mut MemorySystem) {
        let mut retired = 0;
        while retired < self.params.width && (self.head as usize) < self.trace.len() {
            let slot = self.head_slot;
            // Slot must belong to head (dispatched) and be done.
            if self.head >= self.cursor || self.slots[slot].state != State::Done {
                break;
            }
            let op = self.trace.ops[self.head as usize];
            match op.class {
                OpClass::Store => {
                    // Commit the data so prefetch kernels see current state,
                    // then hand the writeback to the store buffer.
                    let value = self.trace.store_values[self.retired_stores];
                    self.retired_stores += 1;
                    mem.commit_store_data(op.addr, value, op.aux);
                    if let Some(e) = self
                        .sq
                        .iter_mut()
                        .find(|e| e.trace_idx == self.head && e.state == SqState::WaitRetire)
                    {
                        e.state = SqState::PendingIssue;
                    }
                    if let Some(cap) = self.capture.as_deref_mut() {
                        cap.retire_store(now, &op, value);
                    }
                }
                OpClass::Config => {
                    let cfg = &self.trace.configs[op.addr as usize];
                    if let Some(cap) = self.capture.as_deref_mut() {
                        cap.retire_config(now, cfg);
                    }
                    self.pending_configs.push(cfg.clone());
                }
                OpClass::Load => {
                    if let Some(cap) = self.capture.as_deref_mut() {
                        let s = self.slots[slot];
                        cap.retire_load(now, &op, s.producer, s.forwarded);
                    }
                }
                _ => {}
            }
            self.head += 1;
            self.head_slot = if slot + 1 == self.params.rob_entries {
                0
            } else {
                slot + 1
            };
            retired += 1;
            self.stats.insts_retired += 1;
        }
        if retired > 0 {
            self.stats.active_cycles += 1;
        }
    }

    fn drain_store_buffer(&mut self, now: u64, mem: &mut MemorySystem) {
        // One store writeback issued per cycle.
        if let Some(e) = self
            .sq
            .iter_mut()
            .find(|e| e.state == SqState::PendingIssue)
        {
            match mem.try_access(now, e.addr8, AccessKind::Store, 0) {
                Ok(id) => {
                    e.state = SqState::Draining;
                    e.access = id.0;
                }
                Err(Rejection::Fault) => panic!("store to unmapped address {:#x}", e.addr8),
                Err(_) => {}
            }
        }
    }

    fn issue(&mut self, now: u64, mem: &mut MemorySystem) {
        // Integer-class (also branches and store address generation).
        for _ in 0..self.params.int_alus {
            let Some(idx) = self.ready_int.pop_front() else {
                break;
            };
            self.begin_exec(idx, now);
        }
        for _ in 0..self.params.fp_alus {
            let Some(idx) = self.ready_fp.pop_front() else {
                break;
            };
            self.begin_exec(idx, now);
        }
        for _ in 0..self.params.muldiv_alus {
            let Some(idx) = self.ready_muldiv.pop_front() else {
                break;
            };
            self.begin_exec(idx, now);
        }

        // Memory ops: loads and software prefetches, oldest first.
        let mut attempts = self.ready_mem.len();
        let mut issued = 0;
        while attempts > 0 && issued < self.params.width {
            attempts -= 1;
            let Some(idx) = self.ready_mem.pop_front() else {
                break;
            };
            let op = self.trace.ops[idx as usize];
            match op.class {
                OpClass::Swpf => {
                    let slot = self.slot_of(idx);
                    self.slots[slot].state = State::Executing;
                    self.leave_iq(slot);
                    match mem.try_software_prefetch(now, op.addr) {
                        Ok(()) => self.stats.swpf_issued += 1,
                        Err(_) => self.stats.swpf_dropped += 1,
                    }
                    self.exec_done.push(Reverse((now + 1, idx)));
                    issued += 1;
                }
                OpClass::Load => {
                    if self.lq_inflight >= self.params.lq_entries {
                        self.ready_mem.push_front(idx);
                        break;
                    }
                    // Store-to-load forwarding against older stores.
                    let addr8 = op.addr & !7;
                    if let Some(st) = self
                        .sq
                        .iter()
                        .rev()
                        .find(|e| e.trace_idx < idx && e.addr8 & !7 == addr8)
                    {
                        let st_idx = st.trace_idx;
                        let st_done = st_idx < self.head
                            || self.slots[self.slot_of(st_idx)].state == State::Done
                            || st.state != SqState::WaitRetire;
                        let slot = self.slot_of(idx);
                        self.slots[slot].state = State::Executing;
                        self.slots[slot].forwarded = true;
                        self.leave_iq(slot);
                        if st_done {
                            self.stats.store_forwards += 1;
                            self.exec_done.push(Reverse((now + 1, idx)));
                        } else {
                            // Wait for the store's data, then forward.
                            let ss = self.slot_of(st_idx);
                            self.slots[slot].state = State::Waiting;
                            self.slots[slot].wait_count = 1;
                            self.dependents[ss].push(idx);
                            self.stats.store_forwards += 1;
                        }
                        issued += 1;
                        continue;
                    }
                    match mem.try_access(now, op.addr, AccessKind::Load, op.pc) {
                        Ok(id) => {
                            let slot = self.slot_of(idx);
                            self.slots[slot].state = State::Executing;
                            self.leave_iq(slot);
                            self.lq_inflight += 1;
                            self.inflight_loads.push((id.0, idx));
                            self.stats.loads_issued += 1;
                            if let Some(tel) = self.tel.as_deref_mut() {
                                tel.lq_depth.record(self.lq_inflight as u64);
                            }
                            issued += 1;
                        }
                        Err(Rejection::Fault) => {
                            panic!("load from unmapped address {:#x}", op.addr)
                        }
                        Err(_) => {
                            self.stats.load_retries += 1;
                            self.ready_mem.push_back(idx);
                        }
                    }
                }
                _ => unreachable!("only memory ops in ready_mem"),
            }
        }
    }

    fn begin_exec(&mut self, idx: u32, now: u64) {
        let op = self.trace.ops[idx as usize];
        let slot = self.slot_of(idx);
        self.slots[slot].state = State::Executing;
        self.leave_iq(slot);
        let lat = match op.class {
            OpClass::Branch => 1,
            OpClass::Store => 1,
            _ => op.aux.max(1) as u64,
        };
        self.exec_done.push(Reverse((now + lat, idx)));
    }

    fn dispatch(&mut self, now: u64) {
        if now < self.fetch_stall_until || self.blocking_branch.is_some() {
            return;
        }
        let mut dispatched = 0;
        while dispatched < self.params.width && (self.cursor as usize) < self.trace.len() {
            if (self.cursor - self.head) as usize >= self.params.rob_entries {
                break; // ROB full
            }
            let op = self.trace.ops[self.cursor as usize];
            let needs_iq = op.class != OpClass::Config;
            if needs_iq && self.iq_count >= self.params.iq_entries {
                break;
            }
            if op.class == OpClass::Store && self.sq.len() >= self.params.sq_entries {
                break;
            }

            let idx = self.cursor;
            let producer = match self.capture.as_deref_mut() {
                Some(cap) => cap.dispatch(idx, &op),
                None => 0,
            };
            let slot = self.slot_of(idx);
            self.dependents[slot].clear();
            self.slots[slot] = Slot {
                state: State::Waiting,
                wait_count: 0,
                in_iq: needs_iq,
                forwarded: false,
                producer,
            };
            if needs_iq {
                self.iq_count += 1;
            }

            if op.class == OpClass::Store {
                self.sq.push_back(SqEntry {
                    addr8: op.addr,
                    trace_idx: idx,
                    state: SqState::WaitRetire,
                    access: u64::MAX,
                });
                if let Some(tel) = self.tel.as_deref_mut() {
                    tel.sq_depth.record(self.sq.len() as u64);
                }
            }

            // Resolve dependencies.
            let mut waits = 0u8;
            for dep in op.deps() {
                if dep >= self.head {
                    let ds = self.slot_of(dep);
                    if self.slots[ds].state != State::Done {
                        self.dependents[ds].push(idx);
                        waits += 1;
                    }
                }
            }
            self.slots[slot].wait_count = waits;

            match op.class {
                OpClass::Config => {
                    // Completes instantly; applied at retire.
                    self.slots[slot].state = State::Done;
                    self.slots[slot].in_iq = false;
                }
                OpClass::Branch => {
                    self.stats.branches += 1;
                    let correct = self.bpred.predict_and_update(op.pc, op.aux != 0, op.addr);
                    if waits == 0 {
                        self.slots[slot].state = State::Ready;
                        self.enqueue_ready(idx);
                    }
                    if !correct {
                        self.stats.mispredicts += 1;
                        self.blocking_branch = Some(idx);
                        self.cursor += 1;
                        return; // front end stalls behind the misprediction
                    }
                }
                _ => {
                    if waits == 0 {
                        self.slots[slot].state = State::Ready;
                        self.enqueue_ready(idx);
                    }
                }
            }
            self.cursor += 1;
            dispatched += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;
    use etpp_mem::{MemParams, MemoryImage, NullEngine};

    /// Horizon-aware driver loop (the shape `etpp_sim::run` uses): the
    /// clock jumps to the min of the core and memory horizons instead of
    /// ticking every cycle.
    fn run(trace: &Trace, image: MemoryImage) -> (u64, CoreStats) {
        let mut mem = MemorySystem::new(MemParams::paper(), image);
        let mut core = Core::new(CoreParams::paper(), trace);
        let mut engine = NullEngine;
        let mut now = 0u64;
        while !core.finished() {
            mem.tick(now, &mut engine);
            core.tick(now, &mut mem);
            if core.finished() {
                now += 1;
                break;
            }
            let horizon = core.next_event_at(now, &mem);
            now = mem.advance_to(now, horizon, &mut engine).max(now + 1);
            assert!(now < 10_000_000, "runaway simulation");
        }
        (now, core.stats)
    }

    /// Per-cycle unit-tick reference loop.
    fn run_per_cycle(trace: &Trace, image: MemoryImage) -> (u64, CoreStats) {
        let mut mem = MemorySystem::new(MemParams::paper(), image);
        mem.set_engine_batching(false);
        let mut core = Core::new(CoreParams::paper(), trace);
        let mut engine = NullEngine;
        let mut now = 0u64;
        while !core.finished() {
            mem.tick(now, &mut engine);
            core.tick(now, &mut mem);
            now += 1;
            assert!(now < 10_000_000, "runaway simulation");
        }
        (now, core.stats)
    }

    fn image_with_array(n: u64) -> (MemoryImage, u64) {
        let mut image = MemoryImage::new();
        let base = image.alloc(n * 8, 4096);
        for i in 0..n {
            image.write_u64(base + 8 * i, i + 1);
        }
        (image, base)
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let t = TraceBuilder::new().build();
        let (cycles, _) = run(&t, MemoryImage::new());
        assert!(cycles <= 2);
    }

    #[test]
    fn independent_loads_overlap() {
        // 8 independent loads to distinct lines should take barely longer
        // than one (bank-parallel DRAM + 12 MSHRs).
        let (image, base) = image_with_array(1024);
        let mut b = TraceBuilder::new();
        b.load(base, 1, [None, None]);
        let t1 = b.build();
        let (serial_one, _) = run(&t1, image.clone());

        let mut b = TraceBuilder::new();
        for i in 0..8u64 {
            b.load(base + 256 * i, 1, [None, None]);
        }
        let t8 = b.build();
        let (par_eight, _) = run(&t8, image);
        assert!(
            par_eight < serial_one * 3,
            "8 independent loads ({par_eight}) should overlap vs 1 load ({serial_one})"
        );
    }

    #[test]
    fn dependent_loads_serialise() {
        let (image, base) = image_with_array(1024);
        let mut b = TraceBuilder::new();
        let mut prev = None;
        for i in 0..4u64 {
            let id = b.load(base + 1024 * i, 1, [prev, None]);
            prev = Some(id);
        }
        let dep_t = b.build();
        let (dep_cycles, _) = run(&dep_t, image.clone());

        let mut b = TraceBuilder::new();
        for i in 0..4u64 {
            b.load(base + 1024 * i, 1, [None, None]);
        }
        let indep_t = b.build();
        let (indep_cycles, _) = run(&indep_t, image);
        assert!(
            dep_cycles > indep_cycles * 2,
            "dependent chain ({dep_cycles}) must be much slower than independent ({indep_cycles})"
        );
    }

    #[test]
    fn rob_bounds_memory_level_parallelism() {
        // More independent loads than the ROB can hold: time scales linearly
        // once the window is exhausted, but stays well under serial time.
        let (image, base) = image_with_array(65536);
        let mut b = TraceBuilder::new();
        for i in 0..200u64 {
            b.load(base + 4096 * i % (65536 * 8), 1, [None, None]);
        }
        let t = b.build();
        let (cycles, stats) = run(&t, image);
        assert_eq!(stats.loads_issued, 200);
        assert!(cycles > 200, "200 DRAM loads can't finish in 200 cycles");
    }

    #[test]
    fn store_then_load_forwards() {
        let (image, base) = image_with_array(64);
        let mut b = TraceBuilder::new();
        let st = b.store(base + 8, 99, 1, [None, None]);
        b.load(base + 8, 2, [Some(st), None]);
        let t = b.build();
        let (_, stats) = run(&t, image);
        assert_eq!(stats.store_forwards, 1, "load should forward from store");
    }

    #[test]
    fn stores_update_image_at_retire() {
        let (image, base) = image_with_array(64);
        let t = {
            let mut b = TraceBuilder::new();
            b.store(base, 0xabcd, 1, [None, None]);
            b.build()
        };
        let mut mem = MemorySystem::new(MemParams::paper(), image);
        let mut core = Core::new(CoreParams::paper(), &t);
        let mut engine = NullEngine;
        let mut now = 0u64;
        while !core.finished() {
            mem.tick(now, &mut engine);
            core.tick(now, &mut mem);
            now += 1;
            assert!(now < 100_000);
        }
        assert_eq!(mem.image().read_u64(base), 0xabcd);
    }

    #[test]
    fn config_ops_surface_at_retire() {
        let (image, _) = image_with_array(8);
        let t = {
            let mut b = TraceBuilder::new();
            b.config(ConfigOp::SetGlobal { idx: 1, value: 5 });
            b.int_op(1, [None, None]);
            b.build()
        };
        let mut mem = MemorySystem::new(MemParams::paper(), image);
        let mut core = Core::new(CoreParams::paper(), &t);
        let mut engine = NullEngine;
        let mut now = 0u64;
        let mut configs = Vec::new();
        while !core.finished() {
            mem.tick(now, &mut engine);
            core.tick(now, &mut mem);
            configs.extend(core.take_configs());
            now += 1;
            assert!(now < 100_000);
        }
        assert_eq!(configs, vec![ConfigOp::SetGlobal { idx: 1, value: 5 }]);
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        let (image, base) = image_with_array(4096);
        // Random branch directions (unpredictable) vs all-taken (predictable),
        // same op counts.
        let mk = |random: bool| {
            let mut b = TraceBuilder::new();
            let mut x = 0x9e3779b97f4a7c15u64;
            for _ in 0..3000 {
                let w = b.int_op(1, [None, None]);
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let taken = if random { (x >> 62) & 1 == 1 } else { true };
                b.branch(0x40, taken, [Some(w), None]);
            }
            b.build()
        };
        let tr = mk(true);
        let tp = mk(false);
        let (rand_cycles, rs) = run(&tr, image.clone());
        let (pred_cycles, _) = run(&tp, image);
        assert!(rs.mispredicts > 500, "random branches should mispredict");
        assert!(
            rand_cycles > pred_cycles + rs.mispredicts * CoreParams::paper().mispredict_penalty / 2,
            "mispredictions must slow execution: {rand_cycles} vs {pred_cycles}"
        );
        let _ = base;
    }

    #[test]
    fn software_prefetch_hides_latency() {
        let (image, base) = image_with_array(1 << 16);
        // One missing line per iteration plus enough real work that the
        // 40-entry ROB holds only a handful of iterations: without prefetch
        // the exposed DRAM latency dominates; with it the loads hit.
        let stride = 64u64;
        let n = 512u64;
        let mk = |with_pf: bool| {
            let mut b = TraceBuilder::new();
            for i in 0..n {
                if with_pf {
                    b.swpf(base + ((i + 24) * stride) % (1 << 19), 3, [None, None]);
                }
                let ld = b.load(base + i * stride, 1, [None, None]);
                let mut dep = ld;
                for _ in 0..8 {
                    dep = b.int_op(1, [Some(dep), None]);
                }
                b.branch(2, true, [Some(dep), None]);
            }
            b.build()
        };
        let (plain_cycles, _) = run(&mk(false), image.clone());
        let (pf_cycles, stats) = run(&mk(true), image);
        assert!(stats.swpf_issued > 300, "issued {}", stats.swpf_issued);
        assert!(
            pf_cycles * 13 < plain_cycles * 10,
            "software prefetch should speed up strided misses: {pf_cycles} vs {plain_cycles}"
        );
    }

    /// Per-cycle run with retirement capture on, returning the records.
    fn run_captured_events(trace: &Trace, image: MemoryImage) -> Vec<TraceRecord> {
        let mut mem = MemorySystem::new(MemParams::paper(), image);
        let mut core = Core::new(CoreParams::paper(), trace);
        core.enable_capture();
        let mut engine = NullEngine;
        let mut now = 0u64;
        while !core.finished() {
            mem.tick(now, &mut engine);
            core.tick(now, &mut mem);
            now += 1;
            assert!(now < 10_000_000, "runaway simulation");
        }
        core.take_captured()
    }

    fn captured_load_deps(records: &[TraceRecord]) -> Vec<u32> {
        records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Access {
                    kind: AccessKind::Load,
                    dep,
                    ..
                } => Some(*dep),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn capture_records_pointer_chase_dependence_distances() {
        let (image, base) = image_with_array(1024);
        // A 3-deep pointer chase: each load's address flows from the
        // previous load's result through an ALU op, so the captured
        // stream must carry dependence distances (0, 1, 1).
        let mut b = TraceBuilder::new();
        let l1 = b.load(base, 1, [None, None]);
        let a1 = b.int_op(1, [Some(l1), None]);
        let l2 = b.load(base + 512, 2, [Some(a1), None]);
        let a2 = b.int_op(1, [Some(l2), None]);
        b.load(base + 1024, 3, [Some(a2), None]);
        let t = b.build();
        assert_eq!(
            captured_load_deps(&run_captured_events(&t, image)),
            vec![0, 1, 1],
            "a synthetic 3-deep chase must record dep distances (1,1)"
        );
    }

    #[test]
    fn capture_records_interleaved_chases_at_distance_two() {
        let (image, base) = image_with_array(4096);
        // Two independent chases interleaved A1 B1 A2 B2: each second-hop
        // load sits two captured loads after its producer.
        let mut b = TraceBuilder::new();
        let a1 = b.load(base, 1, [None, None]);
        let b1 = b.load(base + 8192, 2, [None, None]);
        let wa = b.int_op(1, [Some(a1), None]);
        let wb = b.int_op(1, [Some(b1), None]);
        b.load(base + 512, 3, [Some(wa), None]);
        b.load(base + 8704, 4, [Some(wb), None]);
        let t = b.build();
        assert_eq!(
            captured_load_deps(&run_captured_events(&t, image)),
            vec![0, 0, 2, 2]
        );
    }

    #[test]
    fn capture_records_no_dependences_for_streaming_loads() {
        let (image, base) = image_with_array(4096);
        // An independent streaming loop: addresses come from the
        // induction variable, never from a load, even though the
        // reduction chain consumes every load's data.
        let mut b = TraceBuilder::new();
        let mut sum = None;
        for i in 0..32u64 {
            let ld = b.load(base + i * 64, 1, [None, None]);
            sum = Some(b.int_op(1, [Some(ld), sum]));
        }
        let t = b.build();
        let deps = captured_load_deps(&run_captured_events(&t, image));
        assert_eq!(deps.len(), 32);
        assert!(
            deps.iter().all(|&d| d == 0),
            "streaming loads must record no dependence edges: {deps:?}"
        );
    }

    #[test]
    fn forwarded_producers_record_no_dependence_edge() {
        let (image, base) = image_with_array(4096);
        // The producer load forwards from an older store, so it never
        // reaches the memory system and is not captured; its consumer
        // must record dep 0 rather than point at a phantom record.
        let mut b = TraceBuilder::new();
        let st = b.store(base + 8, 0x40, 1, [None, None]);
        let fwd = b.load(base + 8, 2, [Some(st), None]);
        let w = b.int_op(1, [Some(fwd), None]);
        b.load(base + 0x40 * 8, 3, [Some(w), None]);
        let t = b.build();
        assert_eq!(captured_load_deps(&run_captured_events(&t, image)), vec![0]);
    }

    #[test]
    fn horizon_loop_matches_per_cycle_reference() {
        // A mixed trace exercising every horizon source: dependent and
        // independent loads (DRAM stalls, MSHR pressure), stores with
        // forwarding, unpredictable branches (fetch stalls), software
        // prefetches and multi-cycle FP/mul ops.
        let (image, base) = image_with_array(1 << 14);
        let mut b = TraceBuilder::new();
        let mut x = 0x2545f4914f6cdd1du64;
        let mut prev = None;
        for i in 0..600u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = base + (x % (1 << 14)) / 8 * 8;
            let ld = b.load(a, 1, [if i % 3 == 0 { prev } else { None }, None]);
            if i % 5 == 0 {
                b.store(a ^ 64, x, 1, [Some(ld), None]);
            }
            if i % 7 == 0 {
                b.swpf(base + (x >> 20) % (1 << 14), 2, [None, None]);
            }
            let w = b.int_op(((x >> 8) % 3 + 1) as u8, [Some(ld), None]);
            b.branch(0x80, (x >> 33) & 1 == 1, [Some(w), None]);
            prev = Some(ld);
        }
        let t = b.build();
        let (fast_cycles, fast_stats) = run(&t, image.clone());
        let (ref_cycles, ref_stats) = run_per_cycle(&t, image);
        assert_eq!(fast_cycles, ref_cycles, "cycle counts must be identical");
        assert_eq!(fast_stats, ref_stats, "core statistics must be identical");
    }
}
