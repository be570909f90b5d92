//! Markov global-history-buffer prefetcher (Nesbit & Smith, G/AC).
//!
//! A circular *global history buffer* records the stream of L1 demand-miss
//! line addresses; an *index table* maps a miss address to its most recent
//! occurrence, and each GHB entry links to the previous occurrence of the
//! same address. On a miss, the prefetcher walks up to `depth` prior
//! occurrences and issues the `width` addresses that followed each one —
//! classic Markov address correlation.
//!
//! The paper evaluates a *regular* configuration (2048-entry index/GHB,
//! SRAM-realistic) and a *large* one with 1 GiB of state, free to access, as
//! an upper bound on modern history prefetchers that keep state in DRAM.
//! Here "large" uses 2²⁴ entries — far more than the distinct lines any
//! scaled workload touches, so it behaves as unbounded history (the
//! substitution is recorded in DESIGN.md).
//!
//! The tables cost what a run writes, not their capacity: the history
//! grows by push until it holds `ghb_entries` misses and only then
//! wraps, and the index table holds only the slots a miss has hashed to.

use etpp_mem::{
    ConfigOp, DemandEvent, FastHashMap, Line, PrefetchEngine, PrefetchRequest, TagId, LINE_SIZE,
};
use std::collections::VecDeque;

/// GHB configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhbParams {
    /// Index table entries (power of two).
    pub index_entries: usize,
    /// History buffer entries (power of two).
    pub ghb_entries: usize,
    /// Prior occurrences of the miss address to walk.
    pub depth: usize,
    /// Successor addresses fetched per occurrence.
    pub width: usize,
    /// Pending request queue capacity.
    pub queue: usize,
}

impl GhbParams {
    /// Table 1 "regular": index/GHB 2048/2048, depth 16, width 6.
    pub fn regular() -> Self {
        GhbParams {
            index_entries: 2048,
            ghb_entries: 2048,
            depth: 16,
            width: 6,
            queue: 128,
        }
    }

    /// Table 1 "large": effectively unbounded history (paper: 1 GiB with
    /// free access; here 2²⁴ entries ≫ any workload's footprint).
    pub fn large() -> Self {
        GhbParams {
            index_entries: 1 << 24,
            ghb_entries: 1 << 24,
            depth: 16,
            width: 6,
            queue: 128,
        }
    }
}

/// The Markov GHB prefetcher engine.
#[derive(Debug)]
pub struct GhbPrefetcher {
    params: GhbParams,
    /// Line address (compressed to u32 line index) per GHB slot. Grows
    /// by push to `ghb_entries` entries, then wraps.
    lines: Vec<u32>,
    /// Link to the previous occurrence (absolute position), or
    /// `u64::MAX`; laid out as `lines`.
    links: Vec<u64>,
    /// Index table: line-index hash → last absolute position. A slot
    /// no miss has hashed to is absent.
    index: FastHashMap<usize, u64>,
    /// Absolute write position (monotonic; slot = pos % ghb_entries).
    pos: u64,
    queue: VecDeque<u64>,
    /// Prefetch requests issued.
    pub issued: u64,
}

impl GhbPrefetcher {
    /// Creates an empty history.
    pub fn new(params: GhbParams) -> Self {
        assert!(params.index_entries.is_power_of_two());
        assert!(params.ghb_entries.is_power_of_two());
        GhbPrefetcher {
            lines: Vec::new(),
            links: Vec::new(),
            index: FastHashMap::default(),
            pos: 0,
            queue: VecDeque::with_capacity(params.queue),
            issued: 0,
            params,
        }
    }

    #[inline]
    fn line_index(vaddr: u64) -> u32 {
        (vaddr / LINE_SIZE) as u32
    }

    #[inline]
    fn hash(&self, line: u32) -> usize {
        // Fibonacci hash into the index table.
        ((line as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize
            & (self.params.index_entries - 1)
    }

    #[inline]
    fn in_window(&self, abs: u64) -> bool {
        abs != u64::MAX && abs < self.pos && self.pos - abs <= self.params.ghb_entries as u64
    }

    fn enqueue(&mut self, line: u32) {
        let vaddr = line as u64 * LINE_SIZE;
        if self.queue.contains(&vaddr) {
            return;
        }
        if self.queue.len() >= self.params.queue {
            self.queue.pop_front();
        }
        self.queue.push_back(vaddr);
    }
}

impl PrefetchEngine for GhbPrefetcher {
    fn on_demand(&mut self, _now: u64, ev: &DemandEvent) {
        if ev.is_write || ev.l1_hit {
            return; // Markov GHB trains on the miss stream.
        }
        let line = Self::line_index(ev.vaddr);
        let h = self.hash(line);
        // The miss becomes its slot's newest occurrence; the walk below
        // reads only the occurrence it replaces.
        let head = self.index.insert(h, self.pos).unwrap_or(u64::MAX);

        // Predict: walk prior occurrences (newest first), fetching their
        // successors until `width` total prefetches are gathered. `depth`
        // bounds the chain walk; `width` bounds traffic per miss, as in the
        // G/AC organisation.
        let mut occurrence = head;
        let mut walked = 0;
        let mut budget = self.params.width;
        while walked < self.params.depth && budget > 0 && self.in_window(occurrence) {
            let slot = (occurrence % self.params.ghb_entries as u64) as usize;
            if self.lines[slot] != line {
                break; // hash collision: stale chain
            }
            for w in 1..=self.params.width as u64 {
                if budget == 0 {
                    break;
                }
                let succ = occurrence + w;
                if succ < self.pos {
                    let sslot = (succ % self.params.ghb_entries as u64) as usize;
                    self.enqueue(self.lines[sslot]);
                    budget -= 1;
                }
            }
            occurrence = self.links[slot];
            walked += 1;
        }

        // Record the miss.
        let slot = (self.pos % self.params.ghb_entries as u64) as usize;
        if slot == self.lines.len() {
            self.lines.push(line);
            self.links.push(head);
        } else {
            self.lines[slot] = line;
            self.links[slot] = head;
        }
        self.pos += 1;
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
        // `tick` is a no-op: with pops gated by a full prefetch buffer
        // there is nothing to run until the next snooped access.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss(vaddr: u64) -> DemandEvent {
        DemandEvent {
            at: 0,
            vaddr,
            pc: 1,
            is_write: false,
            l1_hit: false,
        }
    }

    fn drain(g: &mut GhbPrefetcher) -> Vec<u64> {
        let mut v = vec![];
        while let Some(r) = g.pop_request(0) {
            v.push(r.vaddr);
        }
        v
    }

    /// Reference GHB with every table allocated dense and filled at
    /// construction: the grown, sparse layout must match it prediction
    /// for prediction.
    struct DenseGhb {
        params: GhbParams,
        lines: Vec<u32>,
        links: Vec<u64>,
        index: Vec<u64>,
        pos: u64,
        queue: VecDeque<u64>,
    }

    impl DenseGhb {
        fn new(params: GhbParams) -> Self {
            DenseGhb {
                lines: vec![0; params.ghb_entries],
                links: vec![u64::MAX; params.ghb_entries],
                index: vec![u64::MAX; params.index_entries],
                pos: 0,
                queue: VecDeque::new(),
                params,
            }
        }

        fn in_window(&self, abs: u64) -> bool {
            abs != u64::MAX && abs < self.pos && self.pos - abs <= self.params.ghb_entries as u64
        }

        fn enqueue(&mut self, line: u32) {
            let vaddr = line as u64 * LINE_SIZE;
            if self.queue.contains(&vaddr) {
                return;
            }
            if self.queue.len() >= self.params.queue {
                self.queue.pop_front();
            }
            self.queue.push_back(vaddr);
        }

        fn miss(&mut self, vaddr: u64) {
            let n = self.params.ghb_entries as u64;
            let line = (vaddr / LINE_SIZE) as u32;
            let h = ((line as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize
                & (self.params.index_entries - 1);
            let mut occurrence = self.index[h];
            let (mut walked, mut budget) = (0, self.params.width);
            while walked < self.params.depth && budget > 0 && self.in_window(occurrence) {
                let slot = (occurrence % n) as usize;
                if self.lines[slot] != line {
                    break;
                }
                for w in 1..=self.params.width as u64 {
                    if budget == 0 {
                        break;
                    }
                    if occurrence + w < self.pos {
                        self.enqueue(self.lines[((occurrence + w) % n) as usize]);
                        budget -= 1;
                    }
                }
                occurrence = self.links[slot];
                walked += 1;
            }
            let slot = (self.pos % n) as usize;
            self.lines[slot] = line;
            self.links[slot] = self.index[h];
            self.index[h] = self.pos;
            self.pos += 1;
        }
    }

    #[test]
    fn grown_sparse_tables_match_the_dense_layout() {
        let mut seed = 0x5eed_u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (seed ^ (seed >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 29)
        };
        for (index_entries, ghb_entries, queue) in [(8, 16, 4), (64, 32, 16), (16, 256, 128)] {
            let params = GhbParams {
                index_entries,
                ghb_entries,
                depth: 4,
                width: 3,
                queue,
            };
            let mut g = GhbPrefetcher::new(params);
            let mut d = DenseGhb::new(params);
            let mut dense_issued = 0u64;
            // A small pool of lines repeats often enough to correlate,
            // and 20 wraps of the history run past `ghb_entries`.
            let pool = 1 + next() % 96;
            for i in 0..20 * ghb_entries as u64 {
                let vaddr = 0x40_0000 + (next() % pool) * LINE_SIZE + next() % LINE_SIZE;
                g.on_demand(0, &miss(vaddr));
                d.miss(vaddr);
                assert_eq!(g.queue, d.queue, "params {params:?}, miss {i}");
                for _ in 0..next() % 3 {
                    let popped = g.pop_request(0).map(|r| r.vaddr);
                    dense_issued += u64::from(popped.is_some());
                    assert_eq!(popped, d.queue.pop_front());
                }
            }
            assert!(dense_issued > 0, "the stream must exercise predictions");
            assert_eq!(g.issued, dense_issued);
            assert!(g.lines.len() == ghb_entries && g.index.len() <= index_entries);
        }
    }

    #[test]
    fn repeated_sequence_is_predicted() {
        let mut g = GhbPrefetcher::new(GhbParams::regular());
        let seq = [0x1000u64, 0x9000, 0x3000, 0x7000, 0x5000];
        // First pass trains.
        for &a in &seq {
            g.on_demand(0, &miss(a));
        }
        drain(&mut g);
        // Second pass: after the first miss, successors are predicted.
        g.on_demand(0, &miss(seq[0]));
        let preds = drain(&mut g);
        assert!(preds.contains(&0x9000), "successor predicted: {preds:x?}");
        assert!(preds.contains(&0x3000));
    }

    #[test]
    fn novel_misses_predict_nothing() {
        let mut g = GhbPrefetcher::new(GhbParams::regular());
        for i in 0..100u64 {
            g.on_demand(0, &miss(0x10_0000 + i * 4096));
        }
        // Every address distinct: no correlation exists on first touch.
        // (Queue may hold stale-hash noise; must be tiny.)
        assert!(drain(&mut g).len() < 8);
    }

    #[test]
    fn regular_capacity_forgets_long_streams() {
        // Stream longer than the GHB: the first addresses have been
        // overwritten by the time the stream repeats.
        let mut g = GhbPrefetcher::new(GhbParams::regular());
        let n = 4096u64; // 2x GHB capacity
        for i in 0..n {
            g.on_demand(0, &miss(0x100_0000 + i * 64 * 7));
        }
        drain(&mut g);
        g.on_demand(0, &miss(0x100_0000));
        let preds = drain(&mut g);
        assert!(
            preds.is_empty(),
            "evicted history must not predict: {preds:x?}"
        );
    }

    #[test]
    fn large_capacity_remembers_the_same_stream() {
        let mut g = GhbPrefetcher::new(GhbParams::large());
        let n = 4096u64;
        for i in 0..n {
            g.on_demand(0, &miss(0x100_0000 + i * 64 * 7));
        }
        drain(&mut g);
        g.on_demand(0, &miss(0x100_0000));
        let preds = drain(&mut g);
        assert!(
            preds.contains(&(0x100_0000 + 64 * 7)),
            "large GHB must remember: {preds:x?}"
        );
    }

    #[test]
    fn hits_do_not_train() {
        let mut g = GhbPrefetcher::new(GhbParams::regular());
        for i in 0..10u64 {
            g.on_demand(
                0,
                &DemandEvent {
                    at: 0,
                    vaddr: 0x1000 + i * 64,
                    pc: 1,
                    is_write: false,
                    l1_hit: true,
                },
            );
        }
        g.on_demand(0, &miss(0x1000));
        assert!(drain(&mut g).is_empty());
    }
}
