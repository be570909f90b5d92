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
//! The clock never ticks through dead cycles: each iteration jumps
//! straight to the earliest *event horizon* across the memory system
//! (pending transfer or completion), the prefetch engine
//! ([`PrefetchEngine::next_event_at`] — a due emission, a PPU freeing
//! up, a queued request awaiting its pop), the issue window, and the
//! store buffer. Engines that once forced per-cycle ticking whenever
//! they held any state (the old `is_idle` gate) now fast-forward
//! through PPU execution and release delays too, which is where the
//! order-of-magnitude host speedup on programmable modes comes from.
//! Setting [`ReplayParams::per_cycle_reference`] restores the unit-tick
//! loop; the equivalence tests pin both paths to identical cycle
//! counts, statistics and request streams.

use crate::format::TraceRecord;
use etpp_mem::{
    AccessKind, MemParams, MemStats, MemoryImage, MemorySystem, PrefetchEngine, Rejection,
};

/// Minimum cycles between successive issues (models front-end width).
const ISSUE_GAP: u64 = 1;

/// Store-buffer entries: stores whose cache access has not drained yet.
/// Mirrors the cycle core's store queue — stores never block the load
/// window.
const STORE_BUFFER: usize = 32;

/// Replay front-end parameters.
#[derive(Debug, Clone, Copy, Hash)]
pub struct ReplayParams {
    /// Maximum outstanding demand accesses.
    pub window: usize,
    /// Runaway guard.
    pub max_cycles: u64,
    /// Disable all event-horizon batching: advance the clock one cycle
    /// at a time and run the engine round every tick, exactly as the
    /// pre-batching simulator did. Slow; exists so the equivalence
    /// tests can pin the fast path against a unit-tick reference.
    pub per_cycle_reference: bool,
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
        ReplayParams {
            window: 8,
            max_cycles: 20_000_000_000,
            per_cycle_reference: false,
        }
    }
}

/// Outcome of one replay run.
#[derive(Debug)]
pub struct ReplayResult {
    /// Replayed cycles (re-simulated; see module docs).
    pub cycles: u64,
    /// Host loop iterations — simulated cycles actually *visited*. The
    /// ratio `cycles / host_iters` is the event-horizon fast-forward
    /// factor; per-cycle reference runs have `host_iters == cycles + 1`.
    pub host_iters: u64,
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
    inflight_ord: &etpp_mem::FastHashMap<u64, u64>,
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

/// Replays `records` through a fresh hierarchy attached to `engine`.
///
/// # Panics
/// Panics on demand accesses to unmapped addresses (a corrupt trace or
/// wrong memory image) and when `params.max_cycles` is exceeded.
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
/// replay host iteration (never per simulated cycle) through
/// [`etpp_mem::Deadline::poll`]. A deadline that never expires is pure
/// observation — the result is bit-identical to [`replay`]; an expired
/// one aborts by panicking with its typed [`etpp_mem::Cancelled`]
/// payload, which the sweep farm quarantines as a timeout.
///
/// # Panics
/// As [`replay`], plus the deadline's payload once it expires.
pub fn replay_cancellable(
    params: &ReplayParams,
    mem_params: MemParams,
    image: MemoryImage,
    records: &[TraceRecord],
    engine: &mut dyn PrefetchEngine,
    deadline: Option<etpp_mem::Deadline>,
) -> ReplayResult {
    let mut mem = MemorySystem::new(mem_params, image);
    if params.per_cycle_reference {
        mem.set_engine_batching(false);
    }
    let mut now: u64 = 0;
    let mut inflight: usize = 0;
    let mut next_issue_at: u64 = 0;
    let mut accesses: u64 = 0;
    let mut configs: u64 = 0;
    let mut host_iters: u64 = 0;
    let mut i = 0usize;
    // Store buffer: data is committed when the record is reached (as the
    // cycle core commits at retire), but the cache access drains later —
    // one per cycle, FIFO, and only once the line is no longer being
    // fetched. This keeps load-modify-store pairs from counting spurious
    // write misses while never blocking the load window behind a store.
    let mut store_q: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
    let mut stores_in_mem: etpp_mem::FastHashSet<u64> = etpp_mem::FastHashSet::default();
    let mut due: Vec<etpp_mem::Completion> = Vec::new();
    // Dependence tracking (skipped entirely on a stream that records no
    // edge — the gate would never close): load records get 1-based issue
    // ordinals, `load_done_at` rings their completion state, and
    // `inflight_ord` maps an in-flight access id back to its ordinal.
    let track_deps = records
        .iter()
        .any(|r| matches!(r, TraceRecord::Load { dep, .. } if *dep > 0));
    let mut load_done_at = vec![0u64; if track_deps { DEP_RING } else { 0 }];
    let mut issued_loads: u64 = 0;
    let mut inflight_ord: etpp_mem::FastHashMap<u64, u64> = etpp_mem::FastHashMap::default();
    let mut dep_stalls: u64 = 0;

    loop {
        host_iters += 1;
        if let Some(d) = deadline {
            d.poll(host_iters, now);
        }
        mem.tick(now, engine);
        due.clear();
        mem.drain_completions_due(now, &mut due);
        for c in &due {
            if !stores_in_mem.remove(&c.id.0) {
                inflight -= 1;
                if track_deps {
                    if let Some(o) = inflight_ord.remove(&c.id.0) {
                        load_done_at[(o as usize) & (DEP_RING - 1)] = now;
                    }
                }
            }
        }

        // Drain at most one buffered store per cycle, oldest first.
        let mut structural_stall = false;
        if let Some(&vaddr) = store_q.front() {
            if !mem.line_in_flight(vaddr) {
                match mem.try_access(now, vaddr, AccessKind::Store, 0) {
                    Ok(id) => {
                        store_q.pop_front();
                        stores_in_mem.insert(id.0);
                    }
                    Err(Rejection::Fault) => {
                        panic!("replay: store to unmapped address {vaddr:#x}")
                    }
                    Err(_) => structural_stall = true,
                }
            }
        }

        // Issue phase: apply configs immediately, issue accesses while the
        // window and the hierarchy accept them.
        while i < records.len() {
            match &records[i] {
                TraceRecord::Config { op, .. } => {
                    engine.config(now, op);
                    // The config may have armed the engine (or re-enabled
                    // it with queued state); drop the cached horizon.
                    mem.wake_engine();
                    configs += 1;
                    i += 1;
                }
                TraceRecord::Store {
                    vaddr, value, size, ..
                } => {
                    if now < next_issue_at || store_q.len() >= STORE_BUFFER {
                        break;
                    }
                    // Eager path: a store whose line is present (or absent
                    // but not being fetched) drains inline; only stores
                    // racing an in-flight fill queue up, so the buffer is
                    // empty most of the time and idle fast-forwarding
                    // stays effective.
                    if store_q.is_empty() && !mem.line_in_flight(*vaddr) {
                        match mem.try_access(now, *vaddr, AccessKind::Store, 0) {
                            Ok(id) => {
                                stores_in_mem.insert(id.0);
                            }
                            Err(Rejection::Fault) => {
                                panic!("replay: store to unmapped address {vaddr:#x}")
                            }
                            Err(_) => {
                                structural_stall = true;
                                break;
                            }
                        }
                    } else {
                        store_q.push_back(*vaddr);
                    }
                    mem.commit_store_data(*vaddr, *value, *size);
                    accesses += 1;
                    next_issue_at = now + ISSUE_GAP;
                    i += 1;
                }
                TraceRecord::Load { pc, vaddr, dep, .. } => {
                    if now < next_issue_at || inflight >= params.window {
                        break;
                    }
                    // Dependence gate: the recorded address producer's fill
                    // must have completed, as the real core cannot compute
                    // this address before its feeding load returns. The
                    // wake is that producer's completion, on which
                    // `advance_to` hands control back.
                    let producer_done_at = if track_deps {
                        match dep_completed_at(&load_done_at, &inflight_ord, issued_loads, *dep) {
                            Some(at) => at,
                            None => break,
                        }
                    } else {
                        0
                    };
                    match mem.try_access(now, *vaddr, AccessKind::Load, *pc) {
                        Ok(id) => {
                            inflight += 1;
                            accesses += 1;
                            if track_deps {
                                // Issued the very cycle the producer's fill
                                // returned: the dependence edge, not the
                                // window, gated this issue.
                                if *dep > 0 && producer_done_at == now {
                                    dep_stalls += 1;
                                }
                                issued_loads += 1;
                                load_done_at[(issued_loads as usize) & (DEP_RING - 1)] =
                                    DEP_INFLIGHT;
                                inflight_ord.insert(id.0, issued_loads);
                            }
                            next_issue_at = now + ISSUE_GAP;
                            i += 1;
                        }
                        Err(Rejection::Fault) => {
                            panic!("replay: access to unmapped address {vaddr:#x}")
                        }
                        Err(_) => {
                            structural_stall = true;
                            break;
                        }
                    }
                }
            }
        }

        if i >= records.len()
            && inflight == 0
            && store_q.is_empty()
            && stores_in_mem.is_empty()
            && !mem.busy()
        {
            break;
        }

        // Advance time: jump to the next moment the *front end* can act
        // — an issue slot opening or a drainable store — and let
        // `MemorySystem::advance_to` run every intermediate transfer and
        // engine round (bulk prefetch pops included) at its exact cycle,
        // handing control back early when a demand completion falls due.
        // Structural stalls retry next cycle, as the LSQ would.
        if params.per_cycle_reference || structural_stall {
            now += 1;
        } else {
            let mut front_at = u64::MAX;
            if i < records.len() {
                // Only a record that can actually issue pins the issue
                // horizon: the phase above leaves `i` at an access (it
                // applies configs inline), so ask whether *that* access
                // has capacity — a load needs a window slot (and, with
                // dependence edges, its producer's fill), a store a
                // buffer slot. A blocked head record wakes with the
                // demand completion that frees its resource, on which
                // `advance_to` stops.
                let can_issue = match &records[i] {
                    TraceRecord::Config { .. } => true,
                    TraceRecord::Load { dep, .. } => {
                        inflight < params.window
                            && (!track_deps
                                || dep_completed_at(
                                    &load_done_at,
                                    &inflight_ord,
                                    issued_loads,
                                    *dep,
                                )
                                .is_some())
                    }
                    TraceRecord::Store { .. } => store_q.len() < STORE_BUFFER,
                };
                if can_issue {
                    front_at = front_at.min(next_issue_at);
                }
            }
            let mut blocked_store = false;
            if let Some(&v) = store_q.front() {
                if mem.line_in_flight(v) {
                    // The store wakes with its line's fill — a memory
                    // event the driver must witness itself, so it cannot
                    // be advanced through.
                    blocked_store = true;
                } else {
                    // A drainable store goes next cycle.
                    front_at = front_at.min(now + 1);
                }
            }
            // Once the front end has fully drained, the run ends at the
            // first cycle the hierarchy goes idle — even if the engine
            // still holds a live prefetch chain (`MemorySystem::busy`
            // does not count engine state, exactly as the per-cycle
            // reference terminates). The driver must therefore witness
            // every horizon cycle itself rather than let `advance_to`
            // run the chain to exhaustion behind its back.
            let front_done = i >= records.len()
                && inflight == 0
                && store_q.is_empty()
                && stores_in_mem.is_empty();
            now = if blocked_store || front_done {
                // Classic fold: the wake event (a parked store's fill,
                // or any residual hierarchy/engine activity before the
                // termination check) is in the memory horizon.
                let next = front_at.min(mem.next_horizon(now).unwrap_or(u64::MAX));
                if next == u64::MAX {
                    now + 1
                } else {
                    next.max(now + 1)
                }
            } else {
                mem.advance_to(now, front_at, engine).max(now + 1)
            };
        }
        assert!(
            now < params.max_cycles,
            "replay exceeded {} cycles",
            params.max_cycles
        );
    }

    let stats = mem.stats();
    let image = mem.into_image();
    ReplayResult {
        cycles: now,
        host_iters,
        accesses,
        configs,
        dep_stalls,
        mem: stats,
        image,
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
            &ReplayParams {
                window: 2,
                ..ReplayParams::default()
            },
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
            &ReplayParams {
                window: 16,
                ..ReplayParams::default()
            },
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
            let mut engine = NullEngine;
            replay(
                &ReplayParams {
                    per_cycle_reference,
                    ..ReplayParams::default()
                },
                MemParams::paper(),
                image,
                &recs,
                &mut engine,
            )
        };
        let fast = run(false, image.clone());
        let reference = run(true, image);
        assert_eq!(fast.cycles, reference.cycles, "cycle counts must match");
        assert_eq!(fast.mem, reference.mem, "memory stats must match");
        assert_eq!(fast.dep_stalls, reference.dep_stalls);
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
}
