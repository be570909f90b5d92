//! PC-delta accuracy-threshold prefetcher (My5/Pythia lineage).
//!
//! Each load PC owns a small set of *delta* slots. When a PC touches
//! address `a` after previously touching `a'`, the delta `a - a'` is
//! trained into the PC's slot set: every slot ages (`seen + 1`) and the
//! matching slot — allocated on first sight — scores (`hit + 1`). A
//! slot's accuracy is therefore `hit / seen`, the fraction of the PC's
//! recent transitions this delta explained. On every load the engine
//! issues a prefetch for *each* delta whose accuracy clears the
//! threshold — variable degree, not a fixed lookahead — with two caps:
//! targets must stay inside the triggering access's 4 KiB page, and at
//! most `max_degree` issues per trigger.
//!
//! Training is driven purely by the demand stream (a delta is accurate
//! if it recurs), never by `tick` counts or fill callbacks, so the
//! engine's decisions are bit-identical between the horizon-skipping
//! fast path and the per-cycle reference — the contract
//! `tests/engine_zoo.rs` pins. The learning table itself is public as
//! [`AccuracyTable`] so `tests/properties.rs` can drive it with
//! arbitrary sequences.

use etpp_mem::{ConfigOp, DemandEvent, Line, PrefetchEngine, PrefetchRequest, TagId, LINE_SIZE};
use std::collections::VecDeque;

/// Virtual page size used for the per-trigger issue window.
pub const PAGE_SIZE: u64 = 4096;

/// PC-delta prefetcher parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcDeltaParams {
    /// PC table entries (direct-mapped by PC, power of two).
    pub pc_entries: usize,
    /// Delta slots tracked per PC.
    pub delta_slots: usize,
    /// Issue a delta only when `hit / seen` strictly exceeds this.
    pub threshold: f64,
    /// Issue a delta only after it has aged through this many trainings.
    pub min_samples: u32,
    /// Hard cap on issues per triggering access (a page of lines).
    pub max_degree: usize,
    /// Pending-request queue capacity.
    pub queue: usize,
}

impl PcDeltaParams {
    /// Default configuration: 256 PCs × 8 deltas, 50% accuracy floor,
    /// degree capped at one 4 KiB page of lines.
    pub fn paper() -> Self {
        PcDeltaParams {
            pc_entries: 256,
            delta_slots: 8,
            threshold: 0.5,
            min_samples: 4,
            max_degree: (PAGE_SIZE / LINE_SIZE) as usize,
            queue: 64,
        }
    }
}

impl Default for PcDeltaParams {
    fn default() -> Self {
        PcDeltaParams::paper()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct DeltaSlot {
    delta: i64,
    hit: u32,
    seen: u32,
}

impl DeltaSlot {
    fn accuracy(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.hit as f64 / self.seen as f64
        }
    }
}

#[derive(Debug, Clone, Default)]
struct PcEntry {
    pc: u32,
    valid: bool,
    slots: Vec<DeltaSlot>,
}

/// The per-(PC, delta) accuracy learner, separated from the engine so
/// property tests can hammer it directly with arbitrary sequences.
#[derive(Debug)]
pub struct AccuracyTable {
    pc_entries: usize,
    delta_slots: usize,
    table: Vec<PcEntry>,
}

/// Counter ceiling: halve `hit`/`seen` when `seen` reaches this, so
/// accuracies keep tracking recent behaviour instead of ancient history.
const SEEN_CEILING: u32 = 1 << 30;

impl AccuracyTable {
    /// Creates an empty table. `pc_entries` must be a power of two.
    pub fn new(pc_entries: usize, delta_slots: usize) -> Self {
        assert!(pc_entries.is_power_of_two(), "pc_entries must be 2^k");
        assert!(delta_slots > 0, "need at least one delta slot");
        AccuracyTable {
            pc_entries,
            delta_slots,
            table: vec![PcEntry::default(); pc_entries],
        }
    }

    fn entry_mut(&mut self, pc: u32) -> &mut PcEntry {
        let idx = (pc as usize) & (self.pc_entries - 1);
        &mut self.table[idx]
    }

    fn entry(&self, pc: u32) -> Option<&PcEntry> {
        let idx = (pc as usize) & (self.pc_entries - 1);
        let e = &self.table[idx];
        (e.valid && e.pc == pc).then_some(e)
    }

    /// Trains one observed transition `delta` for `pc`. Every tracked
    /// slot ages by one; the matching slot (allocated on first sight,
    /// evicting the lowest-accuracy slot at capacity) also scores.
    /// Zero deltas (same-address re-references) are not trained.
    pub fn observe(&mut self, pc: u32, delta: i64) {
        if delta == 0 {
            return;
        }
        let slots = self.delta_slots;
        let e = self.entry_mut(pc);
        if !e.valid || e.pc != pc {
            *e = PcEntry {
                pc,
                valid: true,
                slots: Vec::with_capacity(slots),
            };
        }
        let mut matched = false;
        for s in &mut e.slots {
            s.seen += 1;
            if s.delta == delta {
                s.hit += 1;
                matched = true;
            }
            if s.seen >= SEEN_CEILING {
                // Round the halved hit up so a live delta never decays
                // to exactly zero accuracy.
                s.hit = s.hit.div_ceil(2);
                s.seen = s.seen.div_ceil(2);
            }
        }
        if !matched {
            let fresh = DeltaSlot {
                delta,
                hit: 1,
                seen: 1,
            };
            if e.slots.len() < slots {
                e.slots.push(fresh);
            } else {
                // Deterministic eviction: lowest accuracy, first slot on
                // ties (stable index order).
                let victim = e
                    .slots
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        a.accuracy()
                            .partial_cmp(&b.accuracy())
                            .expect("accuracy is never NaN")
                    })
                    .map(|(i, _)| i)
                    .expect("capacity > 0");
                e.slots[victim] = fresh;
            }
        }
    }

    /// The learned accuracy for `(pc, delta)`, if tracked.
    pub fn accuracy(&self, pc: u32, delta: i64) -> Option<f64> {
        self.entry(pc)?
            .slots
            .iter()
            .find(|s| s.delta == delta)
            .map(|s| s.accuracy())
    }

    /// Deltas whose accuracy strictly exceeds `threshold` after at least
    /// `min_samples` trainings, in slot (allocation) order. A threshold
    /// of 1.0 therefore issues nothing, and 0.0 passes every seasoned
    /// slot (accuracies are kept strictly positive).
    pub fn candidates(
        &self,
        pc: u32,
        threshold: f64,
        min_samples: u32,
    ) -> impl Iterator<Item = i64> + '_ {
        self.entry(pc)
            .into_iter()
            .flat_map(|e| &e.slots)
            .filter(move |s| s.seen >= min_samples && s.accuracy() > threshold)
            .map(|s| s.delta)
    }

    /// Number of delta slots currently tracked for `pc`.
    pub fn tracked(&self, pc: u32) -> usize {
        self.entry(pc).map(|e| e.slots.len()).unwrap_or(0)
    }
}

/// The PC-delta accuracy-threshold prefetcher engine.
#[derive(Debug)]
pub struct PcDeltaPrefetcher {
    params: PcDeltaParams,
    learner: AccuracyTable,
    /// Last address per PC entry, kept beside the learner so `observe`
    /// sees deltas while the engine sees trigger addresses.
    last: Vec<(u32, bool, u64)>,
    queue: VecDeque<u64>,
    /// Last few issued line addresses, to suppress duplicates cheaply.
    recent: VecDeque<u64>,
    /// Prefetch requests issued.
    pub issued: u64,
}

impl PcDeltaPrefetcher {
    /// Creates an empty prefetcher.
    pub fn new(params: PcDeltaParams) -> Self {
        PcDeltaPrefetcher {
            learner: AccuracyTable::new(params.pc_entries, params.delta_slots),
            last: vec![(0, false, 0); params.pc_entries],
            queue: VecDeque::with_capacity(params.queue),
            recent: VecDeque::with_capacity(32),
            issued: 0,
            params,
        }
    }

    /// Queues `vaddr` unless its line was issued recently. Takes the
    /// fields it touches so `on_demand` can call it while borrowing the
    /// learner's candidate iterator.
    fn enqueue(queue: &mut VecDeque<u64>, recent: &mut VecDeque<u64>, cap: usize, vaddr: u64) {
        let line = vaddr & !(LINE_SIZE - 1);
        if recent.contains(&line) {
            return;
        }
        if recent.len() >= 32 {
            recent.pop_front();
        }
        recent.push_back(line);
        if queue.len() >= cap {
            queue.pop_front();
        }
        queue.push_back(vaddr);
    }

    /// Drops all pending (not yet popped) requests without counting them
    /// as issued. The phase-adaptive meta-engine calls this on a switch
    /// so targets trained during the previous phase do not leak out.
    pub fn clear_pending(&mut self) {
        self.queue.clear();
    }
}

impl PrefetchEngine for PcDeltaPrefetcher {
    fn on_demand(&mut self, _now: u64, ev: &DemandEvent) {
        if ev.is_write {
            return;
        }
        let idx = (ev.pc as usize) & (self.params.pc_entries - 1);
        let (pc, valid, last_addr) = self.last[idx];
        if valid && pc == ev.pc {
            let delta = ev.vaddr as i64 - last_addr as i64;
            self.learner.observe(ev.pc, delta);
        }
        self.last[idx] = (ev.pc, true, ev.vaddr);

        let page = ev.vaddr & !(PAGE_SIZE - 1);
        let params = &self.params;
        let targets = self
            .learner
            .candidates(ev.pc, params.threshold, params.min_samples)
            .map(|delta| ev.vaddr.wrapping_add(delta as u64))
            .filter(|target| target & !(PAGE_SIZE - 1) == page)
            .take(params.max_degree);
        for target in targets {
            Self::enqueue(&mut self.queue, &mut self.recent, params.queue, target);
        }
    }

    fn on_prefetch_fill(
        &mut self,
        _now: u64,
        _vaddr: u64,
        _line: &Line,
        _tag: Option<TagId>,
        _meta: u64,
    ) {
    }

    fn tick(&mut self, _now: u64) {}

    fn pop_request(&mut self, _now: u64) -> Option<PrefetchRequest> {
        self.queue.pop_front().map(|vaddr| {
            self.issued += 1;
            PrefetchRequest {
                vaddr,
                tag: None,
                meta: 0,
            }
        })
    }

    fn config(&mut self, _now: u64, _op: &ConfigOp) {}

    fn next_event_at(&self, now: u64) -> Option<u64> {
        // Purely reactive: the only pending work is queued requests,
        // which the memory system pops one per cycle.
        (!self.queue.is_empty()).then_some(now + 1)
    }

    fn next_tick_at(&self, _now: u64) -> Option<u64> {
        // `tick` is a no-op: training and issue both ride demand snoops.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(pc: u32, vaddr: u64) -> DemandEvent {
        DemandEvent {
            at: 0,
            vaddr,
            pc,
            is_write: false,
            l1_hit: false,
        }
    }

    fn drain(p: &mut PcDeltaPrefetcher) -> Vec<u64> {
        let mut v = vec![];
        while let Some(r) = p.pop_request(0) {
            v.push(r.vaddr);
        }
        v
    }

    #[test]
    fn single_delta_stream_issues_that_delta() {
        let mut p = PcDeltaPrefetcher::new(PcDeltaParams::paper());
        for i in 0..16u64 {
            p.on_demand(0, &load(7, 0x10_0000 + i * 192));
        }
        let t = drain(&mut p);
        assert!(!t.is_empty(), "a perfectly accurate delta must issue");
        assert!(t.iter().all(|a| (a - 0x10_0000) % 192 == 0));
    }

    #[test]
    fn alternating_deltas_issue_both() {
        // a, a+192, a+192+320, ... — each individual delta is ~50%
        // accurate, which clears a 0.45 threshold: both must issue.
        let mut p = PcDeltaPrefetcher::new(PcDeltaParams {
            threshold: 0.45,
            ..PcDeltaParams::paper()
        });
        let mut a = 0x20_0000u64;
        let mut issued_deltas = std::collections::HashSet::new();
        for i in 0..32 {
            p.on_demand(0, &load(7, a));
            for t in drain(&mut p) {
                issued_deltas.insert(t.wrapping_sub(a));
            }
            a += if i % 2 == 0 { 192 } else { 320 };
        }
        assert!(issued_deltas.contains(&192), "delta 192 must issue");
        assert!(issued_deltas.contains(&320), "delta 320 must issue");
    }

    #[test]
    fn random_stream_throttles_to_silence() {
        let mut p = PcDeltaPrefetcher::new(PcDeltaParams::paper());
        let mut x = 1u64;
        let mut n = 0;
        for _ in 0..256 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.on_demand(0, &load(7, x % (1 << 30)));
            n += drain(&mut p).len();
        }
        assert_eq!(n, 0, "never-repeating deltas must stay under threshold");
    }

    #[test]
    fn targets_stay_in_the_triggering_page() {
        let mut p = PcDeltaPrefetcher::new(PcDeltaParams::paper());
        for i in 0..64u64 {
            p.on_demand(0, &load(7, 0x40_0000 + i * 256));
        }
        drain(&mut p);
        // A trigger near a page end: the learned +256 delta would cross
        // the page boundary, so nothing may issue for it.
        p.on_demand(0, &load(7, 0x90_0F80));
        assert!(
            drain(&mut p).is_empty(),
            "cross-page target must be dropped"
        );
    }

    #[test]
    fn threshold_one_issues_nothing() {
        let mut p = PcDeltaPrefetcher::new(PcDeltaParams {
            threshold: 1.0,
            ..PcDeltaParams::paper()
        });
        for i in 0..64u64 {
            p.on_demand(0, &load(7, 0x10_0000 + i * 64));
        }
        assert!(drain(&mut p).is_empty(), "accuracy can never exceed 1.0");
    }
}
