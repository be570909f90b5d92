//! Set-associative, write-back cache state with prefetch accounting.
//!
//! The cache model holds *presence* state (tags, LRU, dirty/prefetched/used
//! bits); timing is orchestrated by [`crate::system::MemorySystem`]. Each
//! line carries a `prefetched` bit that is cleared on the first demand hit;
//! evicting a line whose bit is still set counts as an *unused* prefetch,
//! which is exactly the denominator of Figure 8(a) in the paper.

use crate::addr::LINE_SIZE;
use crate::stats::CacheStats;

/// A 64-byte cache line's worth of data.
pub type Line = [u8; LINE_SIZE as usize];

/// Static parameters of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Hit latency in core cycles.
    pub hit_latency: u64,
    /// Number of miss status holding registers.
    pub mshrs: usize,
}

impl CacheParams {
    /// The paper's L1D: 32 KB, 2-way, 2-cycle hit, 12 MSHRs.
    pub fn paper_l1() -> Self {
        CacheParams {
            size: 32 * 1024,
            ways: 2,
            hit_latency: 2,
            mshrs: 12,
        }
    }

    /// The paper's L2: 1 MB, 16-way, 12-cycle hit, 16 MSHRs.
    pub fn paper_l2() -> Self {
        CacheParams {
            size: 1024 * 1024,
            ways: 16,
            hit_latency: 12,
            mshrs: 16,
        }
    }

    /// Number of sets implied by size/ways/line-size.
    pub fn sets(&self) -> usize {
        (self.size / LINE_SIZE) as usize / self.ways
    }
}

/// Per-way state other than the tag (which lives in `Cache::tags`).
#[derive(Debug, Clone, Copy, Default)]
struct Way {
    /// LRU stamp; larger is more recent.
    lru: u64,
    dirty: bool,
    /// Set when the fill was triggered by a prefetch and no demand access has
    /// touched the line yet.
    prefetched: bool,
}

/// `tags` value of an invalid way (line addresses are 64-byte aligned,
/// so no resident line can equal it).
const NO_TAG: u64 = u64::MAX;

/// What a lookup found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Line present. `was_prefetched` reports whether this is the first
    /// demand touch of a prefetched line.
    Hit {
        /// True if this demand access is the first use of a prefetched line.
        was_prefetched: bool,
    },
    /// Line absent.
    Miss,
}

/// An evicted line: address and whether it must be written back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line-aligned address of the victim.
    pub line_addr: u64,
    /// Victim was dirty and needs a writeback to the next level.
    pub dirty: bool,
    /// Victim still had its prefetched bit set (prefetch was never used).
    pub unused_prefetch: bool,
}

/// Set-associative cache presence state.
#[derive(Debug, Clone)]
pub struct Cache {
    params: CacheParams,
    /// `sets() - 1`, computed once (set counts are powers of two).
    set_mask: usize,
    /// Line address per way, set-major ([`NO_TAG`] = invalid): the only
    /// array a presence probe reads.
    tags: Vec<u64>,
    /// Way metadata, parallel to `tags`.
    ways: Vec<Way>,
    stamp: u64,
    /// Running statistics (demand/prefetch hits and misses, utilisation).
    pub stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    /// Panics if the geometry does not divide evenly.
    pub fn new(params: CacheParams) -> Self {
        let sets = params.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert_eq!(
            sets as u64 * params.ways as u64 * LINE_SIZE,
            params.size,
            "size must equal sets*ways*line"
        );
        Cache {
            params,
            set_mask: sets - 1,
            tags: vec![NO_TAG; sets * params.ways],
            ways: vec![Way::default(); sets * params.ways],
            stamp: 1,
            stats: CacheStats::default(),
        }
    }

    /// The parameters this cache was built with.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Index range of `line_addr`'s set in `tags` / `ways`.
    #[inline]
    fn set_of(&self, line_addr: u64) -> std::ops::Range<usize> {
        let base = ((line_addr / LINE_SIZE) as usize & self.set_mask) * self.params.ways;
        base..base + self.params.ways
    }

    /// Index of the way holding `line_addr`, if resident.
    #[inline]
    fn way_of(&self, line_addr: u64) -> Option<usize> {
        debug_assert_ne!(line_addr, NO_TAG);
        let set = self.set_of(line_addr);
        let base = set.start;
        self.tags[set]
            .iter()
            .position(|&t| t == line_addr)
            .map(|w| base + w)
    }

    /// Probes for `line_addr` without updating statistics. Demand accesses
    /// update LRU and consume the prefetched bit; probe-only lookups (e.g.
    /// from the prefetch path) use [`Cache::contains`].
    pub fn lookup_demand(&mut self, line_addr: u64) -> LookupResult {
        let stamp = self.bump();
        let Some(i) = self.way_of(line_addr) else {
            return LookupResult::Miss;
        };
        let way = &mut self.ways[i];
        way.lru = stamp;
        let was_prefetched = std::mem::take(&mut way.prefetched);
        if was_prefetched {
            self.stats.prefetches_used += 1;
        }
        LookupResult::Hit { was_prefetched }
    }

    /// Whether the line is present (no LRU or bit side effects).
    pub fn contains(&self, line_addr: u64) -> bool {
        self.way_of(line_addr).is_some()
    }

    /// Marks the line dirty (committed store hit). No-op if absent.
    pub fn mark_dirty(&mut self, line_addr: u64) {
        if let Some(i) = self.way_of(line_addr) {
            self.ways[i].dirty = true;
        }
    }

    /// Inserts `line_addr`, evicting the LRU way if the set is full.
    ///
    /// `prefetched` marks the fill as prefetch-triggered for utilisation
    /// accounting; `dirty` pre-dirties the line (writeback fills).
    pub fn fill(&mut self, line_addr: u64, prefetched: bool, dirty: bool) -> Option<Eviction> {
        let stamp = self.bump();
        // Already present (e.g. racing fills): refresh bits, no eviction.
        if let Some(i) = self.way_of(line_addr) {
            self.ways[i].lru = stamp;
            self.ways[i].dirty |= dirty;
            return None;
        }
        // Victim: first invalid way, else the first minimum stamp.
        let set = self.set_of(line_addr);
        let victim = match self.tags[set.clone()].iter().position(|&t| t == NO_TAG) {
            Some(w) => set.start + w,
            None => set.min_by_key(|&i| self.ways[i].lru).expect("ways"),
        };
        let evicted = (self.tags[victim] != NO_TAG).then(|| Eviction {
            line_addr: self.tags[victim],
            dirty: self.ways[victim].dirty,
            unused_prefetch: self.ways[victim].prefetched,
        });
        self.tags[victim] = line_addr;
        self.ways[victim] = Way {
            lru: stamp,
            dirty,
            prefetched,
        };
        if evicted.is_some_and(|e| e.unused_prefetch) {
            self.stats.prefetches_unused += 1;
        }
        if prefetched {
            self.stats.prefetch_fills += 1;
        }
        evicted
    }

    /// Invalidates the line if present, returning its eviction record.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<Eviction> {
        let i = self.way_of(line_addr)?;
        self.tags[i] = NO_TAG;
        Some(Eviction {
            line_addr,
            dirty: self.ways[i].dirty,
            unused_prefetch: self.ways[i].prefetched,
        })
    }

    /// Number of currently valid lines (test/diagnostic helper).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != NO_TAG).count()
    }

    fn bump(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheParams {
            size: 512,
            ways: 2,
            hit_latency: 1,
            mshrs: 4,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.lookup_demand(0x1000), LookupResult::Miss);
        assert!(c.fill(0x1000, false, false).is_none());
        assert!(matches!(c.lookup_demand(0x1000), LookupResult::Hit { .. }));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 4 sets * 64 = 256B).
        c.fill(0x0000, false, false);
        c.fill(0x0100, false, false);
        // Touch 0x0000 so 0x0100 becomes LRU.
        c.lookup_demand(0x0000);
        let ev = c.fill(0x0200, false, false).expect("eviction");
        assert_eq!(ev.line_addr, 0x0100);
        assert!(c.contains(0x0000));
        assert!(c.contains(0x0200));
        assert!(!c.contains(0x0100));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(0x0000, false, false);
        c.mark_dirty(0x0000);
        c.fill(0x0100, false, false);
        let ev = c.fill(0x0200, false, false).expect("eviction");
        assert!(ev.dirty, "dirty victim must ask for writeback");
    }

    #[test]
    fn prefetched_bit_consumed_on_first_hit() {
        let mut c = tiny();
        c.fill(0x40, true, false);
        assert_eq!(
            c.lookup_demand(0x40),
            LookupResult::Hit {
                was_prefetched: true
            }
        );
        assert_eq!(
            c.lookup_demand(0x40),
            LookupResult::Hit {
                was_prefetched: false
            }
        );
        assert_eq!(c.stats.prefetches_used, 1);
    }

    #[test]
    fn unused_prefetch_counted_on_eviction() {
        let mut c = tiny();
        c.fill(0x0000, true, false);
        c.fill(0x0100, false, false);
        c.fill(0x0200, false, false); // evicts one of them
        c.fill(0x0300, false, false); // evicts the other
        assert_eq!(c.stats.prefetch_fills, 1);
        assert_eq!(c.stats.prefetches_unused, 1);
        assert_eq!(c.stats.prefetches_used, 0);
    }

    #[test]
    fn refill_of_present_line_does_not_evict() {
        let mut c = tiny();
        c.fill(0x0000, false, false);
        assert!(c.fill(0x0000, false, true).is_none());
        let ev = c.invalidate(0x0000).unwrap();
        assert!(ev.dirty, "refill with dirty=true must stick");
    }

    #[test]
    fn paper_geometries_are_valid() {
        let l1 = Cache::new(CacheParams::paper_l1());
        assert_eq!(l1.params().sets(), 256);
        let l2 = Cache::new(CacheParams::paper_l2());
        assert_eq!(l2.params().sets(), 1024);
    }
}
