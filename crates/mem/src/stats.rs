//! Statistics counters for every level of the memory hierarchy.
//!
//! These counters feed the paper's evaluation directly: Figure 8(a) is
//! `prefetches_used / (prefetches_used + prefetches_unused)`, Figure 8(b) is
//! the L1 demand read hit rate, and §7.2's "extra memory accesses" is the
//! ratio of [`DramStats::reads`] between prefetching and non-prefetching
//! runs.

/// Per-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand read accesses that hit.
    pub read_hits: u64,
    /// Demand read accesses that missed.
    pub read_misses: u64,
    /// Demand write (store) accesses that hit.
    pub write_hits: u64,
    /// Demand write accesses that missed.
    pub write_misses: u64,
    /// Lines filled by prefetch requests.
    pub prefetch_fills: u64,
    /// Prefetched lines touched by a demand access before eviction.
    pub prefetches_used: u64,
    /// Prefetched lines evicted untouched.
    pub prefetches_unused: u64,
    /// Demand misses that merged into an in-flight prefetch (late prefetch:
    /// useful for latency hiding but not a full hit).
    pub late_prefetch_merges: u64,
    /// Prefetch-originated lookups that hit (L2 classification).
    pub pf_lookup_hits: u64,
    /// Prefetch-originated lookups that missed.
    pub pf_lookup_misses: u64,
}

impl CacheStats {
    /// Demand read hit rate in `[0,1]`; 0 if there were no reads.
    pub fn read_hit_rate(&self) -> f64 {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            0.0
        } else {
            self.read_hits as f64 / total as f64
        }
    }

    /// Fraction of prefetched lines used before eviction (Figure 8a).
    ///
    /// Prefetched lines still resident at the end of a run are counted as
    /// neither used nor unused, matching the paper's eviction-based metric.
    pub fn prefetch_utilisation(&self) -> f64 {
        let total = self.prefetches_used + self.prefetches_unused;
        if total == 0 {
            0.0
        } else {
            self.prefetches_used as f64 / total as f64
        }
    }
}

/// DRAM traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Line reads served by DRAM.
    pub reads: u64,
    /// Line writebacks received by DRAM.
    pub writes: u64,
    /// Accesses (reads and writebacks) whose row was already open
    /// (row-buffer hits).
    pub row_hits: u64,
    /// Accesses that required an activate (row-buffer misses).
    pub row_misses: u64,
    /// Total cycles requests spent queued behind bank/bus conflicts.
    pub queue_cycles: u64,
}

impl DramStats {
    /// Total line transfers in either direction.
    pub fn total_accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

/// TLB counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// L1 TLB hits.
    pub l1_hits: u64,
    /// L1 TLB misses that hit in the L2 TLB.
    pub l2_hits: u64,
    /// Full misses requiring a page-table walk.
    pub walks: u64,
    /// Translations rejected because all walker slots were busy.
    pub walker_busy: u64,
    /// Translation requests for unmapped pages (prefetches to be dropped).
    pub faults: u64,
}

/// Aggregate snapshot of every memory-side counter, taken at end of run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1 data cache counters.
    pub l1: CacheStats,
    /// L2 cache counters.
    pub l2: CacheStats,
    /// DRAM counters.
    pub dram: DramStats,
    /// TLB counters.
    pub tlb: TlbStats,
    /// Prefetch requests dropped for TLB faults or unmapped pages.
    pub prefetch_drops: u64,
    /// Prefetch requests that found their line already in L1.
    pub prefetch_l1_redundant: u64,
    /// Prefetch requests issued to the hierarchy.
    pub prefetches_issued: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(CacheStats::default().read_hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_basic() {
        let s = CacheStats {
            read_hits: 3,
            read_misses: 1,
            ..Default::default()
        };
        assert!((s.read_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn utilisation_ignores_resident_lines() {
        let s = CacheStats {
            prefetch_fills: 10,
            prefetches_used: 4,
            prefetches_unused: 1,
            ..Default::default()
        };
        assert!((s.prefetch_utilisation() - 0.8).abs() < 1e-12);
    }
}
