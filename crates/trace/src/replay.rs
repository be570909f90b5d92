//! Trace-driven replay: the fast front end for prefetcher sweeps.
//!
//! [`replay`] feeds a captured demand-access stream through a fresh
//! [`MemorySystem`] and any [`PrefetchEngine`]. The memory hierarchy,
//! DRAM timing, TLBs and the prefetcher all simulate at full fidelity;
//! only the out-of-order core is replaced by a simple in-order issue
//! window. Recorded store data is committed as stores issue, so prefetch
//! kernels observe real program state and the post-replay image checksum
//! still validates.
//!
//! Timing is *re-simulated*, not replayed: recorded cycle stamps are
//! ignored (they embed the capture run's stall time, which would mask any
//! prefetcher benefit). Instead the front end issues up to one access per
//! cycle, `window` outstanding, and the replayed cycle count reflects how
//! the memory system — including the prefetcher under test — services the
//! stream. Relative speedups between prefetchers are preserved.
//!
//! The front end is *dependence-aware*: a load whose recorded address
//! producer is still in flight waits for that producer's fill before
//! issuing, exactly the serialisation that makes pointer chases slow on
//! the real core. On traversal workloads this is what brings replay's
//! *absolute* cycle counts within a pinned tolerance of the cycle-level
//! core (see `tests/replay_fidelity.rs`).
//!
//! The window is a [`FrontEnd`] of the one driver, [`etpp_mem::drive()`],
//! as the cycle core is: the driver owns the clock, dense spans, horizon
//! jumps, visit attribution, the `max_cycles` cap, the deadline, and the
//! deadlock and livelock guards. The window's horizon is the next cycle
//! it can act — an issue slot opening, a drainable store — or `u64::MAX`
//! while its head waits on a fill, on which `MemorySystem::advance_to`
//! hands control back. While a buffered store waits on its line's fill,
//! or once every record has drained, the horizon folds in the memory
//! system's own, so the driver witnesses every hierarchy event itself:
//! the run ends at the first cycle the hierarchy is idle, even if the
//! engine still holds a live prefetch chain (`MemorySystem::busy` does
//! not count engine state). [`Limits::per_cycle_reference`] is the
//! unit-tick reference; the equivalence suite pins both paths to
//! identical cycle counts, statistics and request streams.

use crate::format::TraceRecord;
use etpp_mem::{
    drive, AccessKind, Completion, ConfigOp, Deadline, FastHashMap, FastHashSet, FrontEnd,
    HorizonSource, Limits, MemParams, MemStats, MemoryImage, MemorySystem, PrefetchEngine,
    Rejection, VisitCounts,
};
use std::collections::VecDeque;

/// Minimum cycles between successive issues (models front-end width).
const ISSUE_GAP: u64 = 1;

/// Store-buffer entries: stores whose cache access has not drained yet.
/// Mirrors the cycle core's store queue — stores never block the load
/// window.
const STORE_BUFFER: usize = 32;

/// The runaway guard of [`replay_cancellable`], which has no
/// `SystemConfig` to take one from (the paper configuration's value).
const MAX_CYCLES: u64 = 20_000_000_000;

/// Replay front-end parameters.
#[derive(Debug, Clone, Copy, Hash)]
pub struct ReplayParams {
    /// Maximum outstanding demand accesses.
    pub window: usize,
}

impl Default for ReplayParams {
    /// The front end every experiment runner replays with. An 8-deep
    /// issue window tracks the effective memory-level parallelism of
    /// the 40-entry-ROB core through its address-independent runs;
    /// recorded dependence edges add the pointer-chase serialisation on
    /// top — measured at Small scale this combination dominates wider
    /// windows for absolute-cycle agreement (see
    /// `tests/replay_fidelity.rs`).
    fn default() -> Self {
        ReplayParams { window: 8 }
    }
}

/// Outcome of one replay run.
#[derive(Debug)]
pub struct ReplayResult {
    /// Replayed cycles (re-simulated; see module docs): the cycle at
    /// which the window found itself drained and the hierarchy idle.
    pub cycles: u64,
    /// Driver visits (see [`etpp_mem::drive()`]). The ratio
    /// `cycles / host_iters` is the event-horizon fast-forward factor;
    /// per-cycle reference runs have `host_iters == cycles + 1`.
    pub host_iters: u64,
    /// Per-source attribution of the visits (zeros on the per-cycle
    /// reference).
    pub visits: VisitCounts,
    /// Demand accesses issued.
    pub accesses: u64,
    /// Configuration records applied to the engine.
    pub configs: u64,
    /// Loads whose issue was serialised by a recorded dependence edge:
    /// they issued at exactly the cycle their address producer's fill
    /// completed.
    /// Deterministic and identical between the fast path and the
    /// per-cycle reference.
    pub dep_stalls: u64,
    /// Memory-side statistics (hits, misses, DRAM traffic, prefetch
    /// accounting) — directly comparable with a cycle-level run over the
    /// same stream.
    pub mem: MemStats,
    /// Post-replay memory image, for checksum validation.
    pub image: MemoryImage,
}

/// Completed-load ring for dependence tracking. Sized for the common
/// case (in-ROB producers sit tens of load records back); distances
/// beyond the ring — a base pointer loaded once feeding addresses much
/// later — fall back to an exact scan of the (window-bounded) in-flight
/// set, so the ring size never changes scheduling semantics.
const DEP_RING: usize = 1024;

/// Ring slot value while the load's fill is still in flight.
const DEP_INFLIGHT: u64 = u64::MAX;

/// When the load `dep` load-records before the next ordinal
/// (`issued_loads + 1`) completed its fill: `Some(cycle)` if complete,
/// `None` if still in flight. Distances of 0 or pointing before the
/// stream start are trivially satisfied; producers beyond the ring are
/// complete unless the in-flight set still holds their ordinal (the
/// ring slot has been reused, so their completion cycle is reported as
/// the distant past — fine, any issue after it is then window-gated,
/// not dependence-gated).
#[inline]
fn dep_completed_at(
    load_done_at: &[u64],
    inflight_ord: &FastHashMap<u64, u64>,
    issued_loads: u64,
    dep: u32,
) -> Option<u64> {
    let dep = dep as u64;
    if dep == 0 {
        return Some(0);
    }
    let next_ord = issued_loads + 1;
    if dep >= next_ord {
        return Some(0);
    }
    let producer = next_ord - dep;
    if dep >= DEP_RING as u64 {
        if inflight_ord.values().any(|&o| o == producer) {
            return None;
        }
        return Some(0);
    }
    match load_done_at[(producer as usize) & (DEP_RING - 1)] {
        DEP_INFLIGHT => None,
        at => Some(at),
    }
}

/// The in-order issue window: the replay [`FrontEnd`].
#[derive(Debug)]
struct Window<'r> {
    records: &'r [TraceRecord],
    /// Maximum outstanding demand loads.
    window: usize,
    /// Index of the next record to issue.
    next: usize,
    inflight: usize,
    next_issue_at: u64,
    /// Store buffer: data is committed when the record is reached (as
    /// the cycle core commits at retire), but the cache access drains
    /// later — one per cycle, FIFO, and only once the line is no longer
    /// being fetched. This keeps load-modify-store pairs from counting
    /// spurious write misses while never blocking the load window
    /// behind a store.
    store_q: VecDeque<u64>,
    stores_in_mem: FastHashSet<u64>,
    due: Vec<Completion>,
    /// Dependence tracking (skipped entirely on a stream that records no
    /// edge — the gate would never close): load records get 1-based
    /// issue ordinals, `load_done_at` rings their completion state, and
    /// `inflight_ord` maps an in-flight access id back to its ordinal.
    track_deps: bool,
    load_done_at: Vec<u64>,
    issued_loads: u64,
    inflight_ord: FastHashMap<u64, u64>,
    /// Configuration records reached this cycle, for the driver.
    pending_configs: Vec<ConfigOp>,
    /// The hierarchy refused an access this cycle: retry next cycle, as
    /// the LSQ would.
    structural_stall: bool,
    /// Every record issued, every access returned, the hierarchy idle.
    done: bool,
    horizon_source: HorizonSource,
    accesses: u64,
    configs: u64,
    dep_stalls: u64,
}

impl<'r> Window<'r> {
    fn new(params: &ReplayParams, records: &'r [TraceRecord]) -> Self {
        let track_deps = records
            .iter()
            .any(|r| matches!(r, TraceRecord::Load { dep, .. } if *dep > 0));
        Window {
            records,
            window: params.window,
            next: 0,
            inflight: 0,
            next_issue_at: 0,
            store_q: VecDeque::new(),
            stores_in_mem: FastHashSet::default(),
            due: Vec::new(),
            track_deps,
            load_done_at: vec![0; if track_deps { DEP_RING } else { 0 }],
            issued_loads: 0,
            inflight_ord: FastHashMap::default(),
            pending_configs: Vec::new(),
            structural_stall: false,
            done: false,
            horizon_source: HorizonSource::CoreProgress,
            accesses: 0,
            configs: 0,
            dep_stalls: 0,
        }
    }

    /// When the `dep`-back producer of the next load completed, as
    /// [`dep_completed_at`]; `Some(0)` on a stream without edges.
    #[inline]
    fn producer_done_at(&self, dep: u32) -> Option<u64> {
        if !self.track_deps {
            return Some(0);
        }
        dep_completed_at(
            &self.load_done_at,
            &self.inflight_ord,
            self.issued_loads,
            dep,
        )
    }

    /// Every record issued and every access returned.
    fn drained(&self) -> bool {
        self.next >= self.records.len()
            && self.inflight == 0
            && self.store_q.is_empty()
            && self.stores_in_mem.is_empty()
    }

    /// Absorbs the demand completions due at `now`.
    fn absorb(&mut self, now: u64, mem: &mut MemorySystem) {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        mem.drain_completions_due(now, &mut due);
        for c in &due {
            if !self.stores_in_mem.remove(&c.id.0) {
                self.inflight -= 1;
                if self.track_deps {
                    if let Some(o) = self.inflight_ord.remove(&c.id.0) {
                        self.load_done_at[(o as usize) & (DEP_RING - 1)] = now;
                    }
                }
            }
        }
        self.due = due;
    }

    /// Issues a store's cache access; `false` on a structural stall.
    fn issue_store(&mut self, now: u64, vaddr: u64, mem: &mut MemorySystem) -> bool {
        match mem.try_access(now, vaddr, AccessKind::Store, 0) {
            Ok(id) => {
                self.stores_in_mem.insert(id.0);
                true
            }
            Err(Rejection::Fault) => panic!("replay: store to unmapped address {vaddr:#x}"),
            Err(_) => {
                self.structural_stall = true;
                false
            }
        }
    }

    /// Issue phase: queue configs for the driver, issue accesses while
    /// the window and the hierarchy accept them.
    fn issue(&mut self, now: u64, mem: &mut MemorySystem) {
        while let Some(record) = self.records.get(self.next) {
            match record {
                TraceRecord::Config { op, .. } => {
                    self.pending_configs.push(ConfigOp::clone(op));
                    self.configs += 1;
                }
                TraceRecord::Store {
                    vaddr, value, size, ..
                } => {
                    if now < self.next_issue_at || self.store_q.len() >= STORE_BUFFER {
                        return;
                    }
                    // Eager path: a store whose line is present (or absent
                    // but not being fetched) drains inline; only stores
                    // racing an in-flight fill queue up, so the buffer is
                    // empty most of the time and idle fast-forwarding
                    // stays effective.
                    if self.store_q.is_empty() && !mem.line_in_flight(*vaddr) {
                        if !self.issue_store(now, *vaddr, mem) {
                            return;
                        }
                    } else {
                        self.store_q.push_back(*vaddr);
                    }
                    mem.commit_store_data(*vaddr, *value, *size);
                    self.accesses += 1;
                    self.next_issue_at = now + ISSUE_GAP;
                }
                TraceRecord::Load { pc, vaddr, dep, .. } => {
                    if now < self.next_issue_at || self.inflight >= self.window {
                        return;
                    }
                    // Dependence gate: the recorded address producer's fill
                    // must have completed, as the real core cannot compute
                    // this address before its feeding load returns. The
                    // wake is that producer's completion, on which
                    // `advance_to` hands control back.
                    let Some(producer_done_at) = self.producer_done_at(*dep) else {
                        return;
                    };
                    match mem.try_access(now, *vaddr, AccessKind::Load, *pc) {
                        Ok(id) => {
                            self.inflight += 1;
                            self.accesses += 1;
                            if self.track_deps {
                                // Issued the very cycle the producer's fill
                                // returned: the dependence edge, not the
                                // window, gated this issue.
                                if *dep > 0 && producer_done_at == now {
                                    self.dep_stalls += 1;
                                }
                                self.issued_loads += 1;
                                self.load_done_at[(self.issued_loads as usize) & (DEP_RING - 1)] =
                                    DEP_INFLIGHT;
                                self.inflight_ord.insert(id.0, self.issued_loads);
                            }
                            self.next_issue_at = now + ISSUE_GAP;
                        }
                        Err(Rejection::Fault) => {
                            panic!("replay: access to unmapped address {vaddr:#x}")
                        }
                        Err(_) => {
                            self.structural_stall = true;
                            return;
                        }
                    }
                }
            }
            self.next += 1;
        }
    }

    /// The horizon after ticking `now` and the arm that pinned it.
    fn horizon(&self, now: u64, mem: &MemorySystem) -> (u64, HorizonSource) {
        if self.structural_stall {
            return (now + 1, HorizonSource::CoreProgress);
        }
        // Only a record that can actually issue pins the issue horizon:
        // the issue phase leaves `next` at an access (it queues configs
        // inline), so ask whether *that* access has capacity — a load
        // needs a window slot (and, with dependence edges, its
        // producer's fill), a store a buffer slot. A blocked head record
        // wakes with the demand completion that frees its resource, on
        // which `advance_to` stops.
        let mut at = u64::MAX;
        let mut src = HorizonSource::CoreProgress;
        match self.records.get(self.next) {
            Some(TraceRecord::Load { .. }) if self.inflight >= self.window => {
                src = HorizonSource::LqFull;
            }
            Some(TraceRecord::Load { dep, .. }) if self.producer_done_at(*dep).is_none() => {
                src = HorizonSource::OldestMiss;
            }
            Some(TraceRecord::Store { .. }) if self.store_q.len() >= STORE_BUFFER => {
                src = HorizonSource::StoreWriteback;
            }
            Some(_) => at = self.next_issue_at,
            None => {}
        }
        let mut fold = self.drained();
        if fold {
            src = HorizonSource::MemEvent;
        }
        if let Some(&v) = self.store_q.front() {
            if mem.line_in_flight(v) {
                // The store wakes with its line's fill — a memory event
                // the driver must witness itself, so it cannot be
                // advanced through.
                fold = true;
                src = HorizonSource::StoreWriteback;
            } else if now + 1 < at {
                // A drainable store goes next cycle.
                at = now + 1;
                src = HorizonSource::StoreWriteback;
            }
        }
        if fold {
            // The wake event (a parked store's fill, or any residual
            // hierarchy/engine activity before the idle check) is in the
            // memory horizon.
            at = at.min(mem.next_horizon(now).unwrap_or(u64::MAX));
        }
        (at, src)
    }
}

impl FrontEnd for Window<'_> {
    fn tick(&mut self, now: u64, mem: &mut MemorySystem) {
        self.absorb(now, mem);
        self.structural_stall = false;
        // Drain at most one buffered store per cycle, oldest first.
        if let Some(&vaddr) = self.store_q.front() {
            if !mem.line_in_flight(vaddr) && self.issue_store(now, vaddr, mem) {
                self.store_q.pop_front();
            }
        }
        self.issue(now, mem);
        self.done = self.drained() && !mem.busy();
    }

    fn take_configs(&mut self) -> Vec<ConfigOp> {
        std::mem::take(&mut self.pending_configs)
    }

    fn finished(&self) -> bool {
        self.done
    }

    fn next_event_at(&mut self, now: u64, mem: &MemorySystem) -> u64 {
        let (at, src) = self.horizon(now, mem);
        self.horizon_source = src;
        at
    }

    fn horizon_source(&self) -> HorizonSource {
        self.horizon_source
    }

    fn head(&self) -> String {
        let kind = match self.records.get(self.next) {
            None => return "replay head: drained".to_string(),
            Some(TraceRecord::Load { .. }) => "Load",
            Some(TraceRecord::Store { .. }) => "Store",
            Some(TraceRecord::Config { .. }) => "Config",
        };
        format!("replay head: record {} ({kind})", self.next)
    }
}

/// Replays `records` through a fresh hierarchy attached to `engine`.
///
/// # Panics
/// As [`replay_limited`] under the default limits.
pub fn replay(
    params: &ReplayParams,
    mem_params: MemParams,
    image: MemoryImage,
    records: &[TraceRecord],
    engine: &mut dyn PrefetchEngine,
) -> ReplayResult {
    replay_cancellable(params, mem_params, image, records, engine, None)
}

/// [`replay`] under an optional wall-clock deadline, polled once per
/// driver visit (never per simulated cycle) through
/// [`etpp_mem::Deadline::poll`]. A deadline that never expires is pure
/// observation — the result is bit-identical to [`replay`]; an expired
/// one aborts by panicking with its typed [`etpp_mem::Cancelled`]
/// payload, which the sweep farm quarantines as a timeout.
///
/// # Panics
/// As [`replay_limited`], whose diagnostics name the run `trace /
/// replay`.
pub fn replay_cancellable(
    params: &ReplayParams,
    mem_params: MemParams,
    image: MemoryImage,
    records: &[TraceRecord],
    engine: &mut dyn PrefetchEngine,
    deadline: Option<Deadline>,
) -> ReplayResult {
    let limits = Limits {
        workload: "trace",
        mode: "replay",
        max_cycles: MAX_CYCLES,
        per_cycle_reference: false,
        deadline,
    };
    replay_limited(params, mem_params, image, records, engine, &limits)
}

/// Replays `records` through a fresh hierarchy attached to `engine`,
/// driven by [`etpp_mem::drive()`] under `limits`.
///
/// # Panics
/// On demand accesses to unmapped addresses (a corrupt trace or wrong
/// memory image), and as [`etpp_mem::drive()`]: at `limits.max_cycles`,
/// on a deadlock (naming the replay head record), a livelock or an
/// expired deadline.
pub fn replay_limited(
    params: &ReplayParams,
    mem_params: MemParams,
    image: MemoryImage,
    records: &[TraceRecord],
    engine: &mut dyn PrefetchEngine,
    limits: &Limits<'_>,
) -> ReplayResult {
    let mut mem = MemorySystem::new(mem_params, image);
    let mut window = Window::new(params, records);
    let (end, host_iters, visits) = drive(&mut window, &mut mem, engine, limits, &mut ());
    ReplayResult {
        // The driver stops one cycle after the finishing tick; replay
        // counts the finishing cycle itself.
        cycles: end - 1,
        host_iters,
        visits,
        accesses: window.accesses,
        configs: window.configs,
        dep_stalls: window.dep_stalls,
        mem: mem.stats(),
        image: mem.into_image(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etpp_mem::NullEngine;

    fn mk_records(n: u64, stride: u64, base: u64) -> Vec<TraceRecord> {
        mk_dep_records(n, stride, base, 0)
    }

    fn mk_dep_records(n: u64, stride: u64, base: u64, dep: u32) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord::Load {
                cycle: i,
                pc: 0x40,
                vaddr: base + i * stride,
                dep: if i == 0 { 0 } else { dep },
            })
            .collect()
    }

    fn limits<'a>(workload: &'a str, mode: &'a str) -> Limits<'a> {
        Limits {
            workload,
            mode,
            max_cycles: 1_000_000,
            per_cycle_reference: false,
            deadline: None,
        }
    }

    fn image_with(bytes: u64) -> (MemoryImage, u64) {
        let mut image = MemoryImage::new();
        let base = image.alloc(bytes, 4096);
        (image, base)
    }

    #[test]
    fn replays_all_accesses_and_counts_hits() {
        let (image, base) = image_with(1 << 20);
        // Two passes over a small array: second pass must hit.
        let mut recs = mk_records(64, 64, base);
        recs.extend(mk_records(64, 64, base));
        let mut engine = NullEngine;
        let r = replay(
            &ReplayParams::default(),
            MemParams::paper(),
            image,
            &recs,
            &mut engine,
        );
        assert_eq!(r.accesses, 128);
        // Every line misses once; a few pass-2 accesses can arrive while
        // the tail of pass 1 is still in flight and merge into those MSHRs
        // (counted as misses), exactly as in the cycle-level core.
        assert!(
            (64..=84).contains(&r.mem.l1.read_misses),
            "read misses {}",
            r.mem.l1.read_misses
        );
        assert_eq!(r.mem.l1.read_hits + r.mem.l1.read_misses, 128);
        assert!(r.cycles > 0);
    }

    #[test]
    fn stores_commit_their_data() {
        let (image, base) = image_with(4096);
        let recs = vec![TraceRecord::Store {
            cycle: 0,
            pc: 4,
            vaddr: base + 128,
            value: 0xdead_beef,
            size: 8,
        }];
        let mut engine = NullEngine;
        let r = replay(
            &ReplayParams::default(),
            MemParams::paper(),
            image,
            &recs,
            &mut engine,
        );
        assert_eq!(r.image.read_u64(base + 128), 0xdead_beef);
    }

    #[test]
    fn window_limits_outstanding_misses() {
        let (image, base) = image_with(1 << 22);
        // 64 independent miss lines; a window of 2 must take far longer
        // than a window of 16.
        let recs = mk_records(64, 4096, base);
        let mut e1 = NullEngine;
        let narrow = replay(
            &ReplayParams { window: 2 },
            MemParams::paper(),
            {
                let (img, _) = image_with(1 << 22);
                img
            },
            &recs,
            &mut e1,
        );
        let mut e2 = NullEngine;
        let wide = replay(
            &ReplayParams { window: 16 },
            MemParams::paper(),
            image,
            &recs,
            &mut e2,
        );
        let _ = base;
        assert!(
            narrow.cycles > wide.cycles * 2,
            "window 2 ({}) should be much slower than window 16 ({})",
            narrow.cycles,
            wide.cycles
        );
    }

    #[test]
    fn beyond_ring_producers_consult_the_inflight_set() {
        // A producer more than DEP_RING load-records back has lost its
        // ring slot; satisfaction must fall back to the exact in-flight
        // scan rather than assume completion.
        let ring = vec![0u64; DEP_RING];
        let mut inflight: etpp_mem::FastHashMap<u64, u64> = Default::default();
        let issued: u64 = 3000;
        let dep = (DEP_RING + 100) as u32; // producer ordinal 3001 - 1124 = 1877
        assert_eq!(dep_completed_at(&ring, &inflight, issued, dep), Some(0));
        inflight.insert(42, 1877);
        assert_eq!(
            dep_completed_at(&ring, &inflight, issued, dep),
            None,
            "an in-flight beyond-ring producer must still gate issue"
        );
        inflight.remove(&42);
        inflight.insert(42, 1878);
        assert_eq!(dep_completed_at(&ring, &inflight, issued, dep), Some(0));
        // Distances past the stream start are trivially satisfied.
        assert_eq!(dep_completed_at(&ring, &inflight, 5, 9), Some(0));
    }

    #[test]
    fn dependence_edges_serialise_pointer_chases() {
        // 64 loads to distinct DRAM lines. Independent (dep 0) they
        // overlap up to the window; as a recorded chase (dep 1 each)
        // every load must wait for the previous fill — replay must
        // approach 64 serial round trips.
        let (image, base) = image_with(1 << 22);
        let indep = mk_records(64, 4096, base);
        let chase = mk_dep_records(64, 4096, base, 1);
        let mut e1 = NullEngine;
        let overlapped = replay(
            &ReplayParams::default(),
            MemParams::paper(),
            image.clone(),
            &indep,
            &mut e1,
        );
        let mut e2 = NullEngine;
        let serialised = replay(
            &ReplayParams::default(),
            MemParams::paper(),
            image,
            &chase,
            &mut e2,
        );
        assert_eq!(serialised.accesses, 64);
        assert!(serialised.dep_stalls > 32, "chase must stall on producers");
        assert_eq!(overlapped.dep_stalls, 0);
        assert!(
            serialised.cycles > overlapped.cycles * 3,
            "dependent chase ({}) must be much slower than independent loads ({})",
            serialised.cycles,
            overlapped.cycles
        );
    }

    #[test]
    fn dependence_gated_fast_path_matches_per_cycle_reference() {
        // Mixed dep distances + interleaved stores: the event-horizon
        // fast-forward must stay bit-identical to unit ticking when the
        // front end parks on producer fills.
        let (image, base) = image_with(1 << 22);
        let mut recs = Vec::new();
        for i in 0..200u64 {
            recs.push(TraceRecord::Load {
                cycle: i,
                pc: 0x40,
                vaddr: base + (i * 2657) % (1 << 21),
                dep: match i % 5 {
                    0 => 0,
                    1 => 1,
                    2 => 2,
                    _ => (i % 4) as u32,
                },
            });
            if i % 7 == 0 {
                recs.push(TraceRecord::Store {
                    cycle: i,
                    pc: 0x44,
                    vaddr: base + (i * 389) % (1 << 21),
                    value: i,
                    size: 8,
                });
            }
        }
        let run = |per_cycle_reference: bool, image: MemoryImage| {
            let limits = Limits {
                per_cycle_reference,
                ..limits("mixed", "none")
            };
            let mut engine = NullEngine;
            replay_limited(
                &ReplayParams::default(),
                MemParams::paper(),
                image,
                &recs,
                &mut engine,
                &limits,
            )
        };
        let fast = run(false, image.clone());
        let reference = run(true, image);
        assert_eq!(fast.cycles, reference.cycles, "cycle counts must match");
        assert_eq!(fast.mem, reference.mem, "memory stats must match");
        assert_eq!(fast.dep_stalls, reference.dep_stalls);
        assert_eq!(
            reference.host_iters,
            reference.cycles + 1,
            "reference visits every cycle"
        );
        assert_eq!(
            fast.visits.total(),
            fast.host_iters,
            "every visit is attributed"
        );
        assert!(
            fast.host_iters < reference.host_iters,
            "fast path must skip cycles ({} vs {})",
            fast.host_iters,
            reference.host_iters
        );
    }

    #[test]
    fn empty_trace_terminates() {
        let (image, _) = image_with(4096);
        let mut engine = NullEngine;
        let r = replay(
            &ReplayParams::default(),
            MemParams::paper(),
            image,
            &[],
            &mut engine,
        );
        assert_eq!(r.accesses, 0);
        assert!(r.cycles < 10);
    }

    /// A window of zero entries can never issue the load: the head
    /// record waits on a completion nothing will schedule. The driver
    /// names the deadlock at once instead of crawling one cycle per
    /// visit to the cycle cap.
    #[test]
    fn a_deadlocked_replay_is_named_at_once() {
        let (image, base) = image_with(4096);
        let recs = mk_records(1, 64, base);
        let err = std::panic::catch_unwind(|| {
            replay_limited(
                &ReplayParams { window: 0 },
                MemParams::paper(),
                image,
                &recs,
                &mut NullEngine,
                &limits("one load", "none"),
            )
        })
        .expect_err("a deadlocked replay must abort");
        let msg = err.downcast_ref::<String>().expect("a message");
        assert!(
            msg.starts_with("deadlock at cycle 0 for one load / none:"),
            "{msg}"
        );
        assert!(msg.ends_with("(replay head: record 0 (Load))"), "{msg}");
    }
}
