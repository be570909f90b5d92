//! TLB hierarchy and page-table-walker occupancy model.
//!
//! Matches Table 1 of the paper: a 64-entry fully-associative L1 TLB, a
//! 4096-entry 8-way L2 TLB with an 8-cycle hit latency, and a walker that
//! supports three concurrent walks. The simulated machine uses an identity
//! virtual→physical mapping, so translation affects *timing* (and prefetch
//! droppability on faults), not addresses.
//!
//! The prefetcher shares this TLB (paper §4.6): prefetch translations that
//! fault are dropped, and translations that need a walk while all walker
//! slots are busy are rejected so the caller can retry.

use crate::addr::page_of;
use crate::stats::TlbStats;

/// TLB geometry and timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbParams {
    /// L1 TLB entries (fully associative).
    pub l1_entries: usize,
    /// L2 TLB entries.
    pub l2_entries: usize,
    /// L2 TLB associativity.
    pub l2_ways: usize,
    /// L2 TLB hit latency in core cycles.
    pub l2_latency: u64,
    /// Concurrent page-table walks supported.
    pub walkers: usize,
    /// Latency of a full page-table walk in core cycles. A real walk is a
    /// handful of dependent memory accesses; we charge a fixed cost sized to
    /// an L2-resident page table.
    pub walk_latency: u64,
}

impl TlbParams {
    /// Table 1's TLB configuration.
    pub fn paper() -> Self {
        TlbParams {
            l1_entries: 64,
            l2_entries: 4096,
            l2_ways: 8,
            l2_latency: 8,
            walkers: 3,
            walk_latency: 90,
        }
    }
}

impl Default for TlbParams {
    fn default() -> Self {
        TlbParams::paper()
    }
}

/// Result of a translation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Translation {
    /// Translation available after `latency` additional core cycles.
    Ready {
        /// Extra core cycles before the translated access may proceed.
        latency: u64,
    },
    /// All walker slots busy; retry later.
    WalkerBusy,
    /// The page is unmapped. Demand accesses would fault; prefetches drop.
    Fault,
}

/// An L2 TLB entry.
#[derive(Debug, Clone, Copy, Default)]
struct TlbEntry {
    page: u64,
    valid: bool,
    lru: u64,
}

/// `l1_pages` value of an invalid L1 entry (pages are 4 KiB aligned, so
/// no translated page can equal it).
const NO_PAGE: u64 = u64::MAX;

/// Two-level TLB plus walker slots.
#[derive(Debug, Clone)]
pub struct TlbHierarchy {
    params: TlbParams,
    /// L1 page per entry ([`NO_PAGE`] = invalid), dense so the
    /// fully-associative scan reads eight entries per host cache line.
    l1_pages: Vec<u64>,
    /// L1 LRU stamps, parallel to `l1_pages`; larger is more recent.
    l1_lru: Vec<u64>,
    l2: Vec<TlbEntry>,
    walker_busy_until: Vec<u64>,
    stamp: u64,
    /// Host-side shortcut: index of the most recently hit L1 entry,
    /// probed before the fully-associative scan. Purely an access-path
    /// optimisation — hit/miss outcomes and LRU state are unchanged.
    mru: usize,
    /// Hit/miss/walk statistics.
    pub stats: TlbStats,
}

impl TlbHierarchy {
    /// Creates an empty TLB hierarchy.
    pub fn new(params: TlbParams) -> Self {
        assert!(params.l2_entries.is_multiple_of(params.l2_ways));
        assert!((params.l2_entries / params.l2_ways).is_power_of_two());
        TlbHierarchy {
            l1_pages: vec![NO_PAGE; params.l1_entries],
            l1_lru: vec![0; params.l1_entries],
            l2: vec![TlbEntry::default(); params.l2_entries],
            walker_busy_until: vec![0; params.walkers],
            stamp: 1,
            mru: 0,
            params,
            stats: TlbStats::default(),
        }
    }

    /// Parameters in use.
    pub fn params(&self) -> &TlbParams {
        &self.params
    }

    /// Attempts to translate `vaddr` at time `now`. `mapped` reports whether
    /// the containing page exists in the memory image.
    pub fn translate(&mut self, now: u64, vaddr: u64, mapped: bool) -> Translation {
        self.translate_with(now, vaddr, || mapped)
    }

    /// [`TlbHierarchy::translate`] with the mapped-page question asked
    /// lazily: `mapped` runs only when both TLB levels miss, the one
    /// path that reads it.
    pub fn translate_with(
        &mut self,
        now: u64,
        vaddr: u64,
        mapped: impl FnOnce() -> bool,
    ) -> Translation {
        let page = page_of(vaddr);
        self.stamp += 1;
        let stamp = self.stamp;

        // L1: fully associative; probe the last-hit entry first (pages
        // repeat run-to-run, so this skips the scan almost always).
        let hit = if self.l1_pages[self.mru] == page {
            Some(self.mru)
        } else {
            self.l1_pages.iter().position(|&p| p == page)
        };
        if let Some(i) = hit {
            self.l1_lru[i] = stamp;
            self.mru = i;
            self.stats.l1_hits += 1;
            return Translation::Ready { latency: 0 };
        }

        // L2: set associative on page number.
        let sets = self.params.l2_entries / self.params.l2_ways;
        let set = ((page >> 12) as usize) & (sets - 1);
        let ways = &mut self.l2[set * self.params.l2_ways..(set + 1) * self.params.l2_ways];
        if let Some(e) = ways.iter_mut().find(|e| e.valid && e.page == page) {
            e.lru = stamp;
            self.stats.l2_hits += 1;
            self.fill_l1(page, stamp);
            return Translation::Ready {
                latency: self.params.l2_latency,
            };
        }

        if !mapped() {
            self.stats.faults += 1;
            return Translation::Fault;
        }

        // Page-table walk: find a free walker slot.
        match self.walker_busy_until.iter_mut().find(|slot| **slot <= now) {
            Some(slot) => {
                let latency = self.params.l2_latency + self.params.walk_latency;
                *slot = now + self.params.walk_latency;
                self.stats.walks += 1;
                self.fill_l2(page, stamp);
                self.fill_l1(page, stamp);
                Translation::Ready { latency }
            }
            None => {
                self.stats.walker_busy += 1;
                Translation::WalkerBusy
            }
        }
    }

    fn fill_l1(&mut self, page: u64, stamp: u64) {
        // Victim: first invalid entry, else the first minimum stamp.
        let idx = match self.l1_pages.iter().position(|&p| p == NO_PAGE) {
            Some(i) => i,
            None => (0..self.l1_lru.len())
                .min_by_key(|&i| self.l1_lru[i])
                .expect("l1 tlb"),
        };
        self.l1_pages[idx] = page;
        self.l1_lru[idx] = stamp;
        self.mru = idx;
    }

    fn fill_l2(&mut self, page: u64, stamp: u64) {
        let sets = self.params.l2_entries / self.params.l2_ways;
        let set = ((page >> 12) as usize) & (sets - 1);
        let ways = &mut self.l2[set * self.params.l2_ways..(set + 1) * self.params.l2_ways];
        let victim = match ways.iter_mut().find(|e| !e.valid) {
            Some(v) => v,
            None => ways.iter_mut().min_by_key(|e| e.lru).expect("l2 tlb"),
        };
        *victim = TlbEntry {
            page,
            valid: true,
            lru: stamp,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_walks_then_hits() {
        let mut t = TlbHierarchy::new(TlbParams::paper());
        let r = t.translate(0, 0x10_0000, true);
        assert!(matches!(r, Translation::Ready { latency } if latency > 0));
        assert_eq!(t.stats.walks, 1);
        let r2 = t.translate(1000, 0x10_0008, true);
        assert_eq!(r2, Translation::Ready { latency: 0 });
        assert_eq!(t.stats.l1_hits, 1);
    }

    #[test]
    fn unmapped_page_faults() {
        let mut t = TlbHierarchy::new(TlbParams::paper());
        assert_eq!(t.translate(0, 0xdead_0000, false), Translation::Fault);
        assert_eq!(t.stats.faults, 1);
    }

    #[test]
    fn walker_slots_bound_concurrency() {
        let mut t = TlbHierarchy::new(TlbParams::paper());
        // Three walks at t=0 occupy all slots...
        for i in 0..3u64 {
            let r = t.translate(0, 0x100_0000 + i * 4096, true);
            assert!(matches!(r, Translation::Ready { .. }));
        }
        // ...the fourth is rejected...
        assert_eq!(
            t.translate(0, 0x100_0000 + 3 * 4096, true),
            Translation::WalkerBusy
        );
        // ...until a slot frees up.
        let later = t.params().walk_latency + 1;
        assert!(matches!(
            t.translate(later, 0x100_0000 + 3 * 4096, true),
            Translation::Ready { .. }
        ));
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut t = TlbHierarchy::new(TlbParams::paper());
        // Touch l1_entries+1 distinct pages; page 0 gets evicted from L1 but
        // stays in L2.
        let n = t.params().l1_entries as u64 + 1;
        for i in 0..n {
            t.translate(i * 1000, 0x200_0000 + i * 4096, true);
        }
        let r = t.translate(1_000_000, 0x200_0000, true);
        assert_eq!(
            r,
            Translation::Ready {
                latency: t.params().l2_latency
            },
            "evicted-from-L1 page should hit in L2"
        );
    }
}
