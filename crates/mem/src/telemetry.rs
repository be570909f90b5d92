//! Memory-side observability: histograms, prefetch-lifecycle tracking
//! and trace spans published by [`crate::system::MemorySystem`].
//!
//! Everything in here is *pure observation* — the tracker reads hook
//! arguments and writes only into its own state, never back into the
//! hierarchy — which is what lets the equivalence suite pin
//! telemetry-on runs bit-identical to telemetry-off runs.
//!
//! ## Lifecycle taxonomy
//!
//! Each prefetch that installs a line is followed to one terminal class
//! (the paper's timeliness/accuracy axes, §7):
//!
//! * **accurate** — the first demand touch hit the still-resident
//!   prefetched line (full latency hidden);
//! * **late** — a demand access merged into the prefetch while it was
//!   still in flight (partial latency hidden; extends the
//!   `late_prefetch_merges` counter with per-PC attribution);
//! * **early-evicted** — the line was evicted untouched and a demand
//!   access arrived *afterwards* (right address, wrong time);
//! * **useless** — evicted untouched and never demanded (wrong
//!   address, pure pollution).
//!
//! Prefetches still in flight or still resident-unused at the end of a
//! run are reported separately and belong to no class, matching the
//! eviction-based accounting of Figure 8(a).

use crate::fasthash::{FastHashMap, FastHashSet};
use etpp_telemetry::{Hist, Registry, SpanSink};
use std::collections::BTreeMap;

/// Per-PC lifecycle attribution (keyed by the *demand* PC that touched
/// the prefetched line — prefetch requests themselves carry no PC).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcLifecycle {
    /// Demand hits on resident prefetched lines at this PC.
    pub accurate: u64,
    /// Demand merges into in-flight prefetches at this PC.
    pub late: u64,
}

/// Terminal-class counters for every prefetch the hierarchy accepted.
#[derive(Debug, Clone, Default)]
pub struct LifecycleCounts {
    /// Requests popped from the engine (before any filtering).
    pub issued: u64,
    /// Dropped for TLB faults / unmapped pages / busy walkers.
    pub dropped: u64,
    /// Found their line already resident in L1.
    pub redundant: u64,
    /// Merged into a demand miss already fetching the line (the demand
    /// got there first; the prefetch added nothing).
    pub merged_demand: u64,
    /// First demand touch hit the resident prefetched line.
    pub accurate: u64,
    /// Demand merged into the prefetch while still in flight.
    pub late: u64,
    /// Evicted untouched, then demanded later.
    pub early_evicted: u64,
    /// Evicted untouched, never demanded.
    pub useless: u64,
    /// Still in flight when the run ended.
    pub inflight_at_end: u64,
    /// Filled, untouched, still resident when the run ended.
    pub resident_at_end: u64,
}

impl LifecycleCounts {
    /// Total prefetches assigned a terminal class.
    pub fn classified(&self) -> u64 {
        self.accurate + self.late + self.early_evicted + self.useless
    }

    /// Percentage of classified prefetches in a class (0 when none).
    pub fn pct(&self, class: u64) -> f64 {
        let total = self.classified();
        if total == 0 {
            0.0
        } else {
            100.0 * class as f64 / total as f64
        }
    }
}

/// Follows every prefetch from issue to its terminal class.
///
/// Internal maps use [`FastHashMap`]/[`FastHashSet`] (hot path); all
/// *exposed* aggregates are plain counters or [`BTreeMap`]s so
/// publishing is deterministic regardless of hash iteration order.
#[derive(Debug, Clone, Default)]
pub struct LifecycleTracker {
    /// Aggregate terminal-class counters.
    pub counts: LifecycleCounts,
    /// Per-demand-PC attribution for accurate/late (sorted).
    pub per_pc: BTreeMap<u32, PcLifecycle>,
    /// Lines evicted with their prefetched bit still set: candidates
    /// for early-evicted (touched later) vs useless (never touched).
    evicted_unused: FastHashSet<u64>,
}

impl LifecycleTracker {
    /// A prefetch request was popped from the engine.
    pub fn on_issued(&mut self) {
        self.counts.issued += 1;
    }

    /// The request was dropped (fault / walker busy).
    pub fn on_dropped(&mut self) {
        self.counts.dropped += 1;
    }

    /// The request's line was already resident in L1.
    pub fn on_redundant(&mut self) {
        self.counts.redundant += 1;
    }

    /// The request merged into a demand miss already in flight.
    pub fn on_merged_demand(&mut self) {
        self.counts.merged_demand += 1;
    }

    /// A demand access hit a resident line whose prefetched bit was
    /// still set — the prefetch was accurate.
    pub fn on_accurate(&mut self, pc: u32) {
        self.counts.accurate += 1;
        self.per_pc.entry(pc).or_default().accurate += 1;
    }

    /// A demand access merged into an in-flight prefetch — late.
    pub fn on_late(&mut self, pc: u32) {
        self.counts.late += 1;
        self.per_pc.entry(pc).or_default().late += 1;
    }

    /// A line was evicted with its prefetched bit still set.
    pub fn on_evicted_unused(&mut self, line_addr: u64) {
        self.evicted_unused.insert(line_addr);
    }

    /// Every accepted demand access calls this: a touch of a line that
    /// was previously evicted-unused resolves it to *early-evicted*.
    #[inline]
    pub fn on_demand_touch(&mut self, line_addr: u64) {
        if !self.evicted_unused.is_empty() && self.evicted_unused.remove(&line_addr) {
            self.counts.early_evicted += 1;
        }
    }

    /// Ends the run: unresolved evicted-unused lines become *useless*,
    /// and the still-in-flight / still-resident populations are filled
    /// in from the hierarchy's own accounting.
    pub fn finalize(&mut self, inflight: u64, resident_unused: u64) {
        self.counts.useless += self.evicted_unused.len() as u64;
        self.evicted_unused.clear();
        self.counts.inflight_at_end = inflight;
        self.counts.resident_at_end = resident_unused;
    }

    /// Publishes the terminal-class counters into a registry under
    /// `pf.lifecycle.*`.
    pub fn publish(&self, reg: &mut Registry) {
        let c = &self.counts;
        reg.set_counter("pf.lifecycle.issued", c.issued);
        reg.set_counter("pf.lifecycle.dropped", c.dropped);
        reg.set_counter("pf.lifecycle.redundant", c.redundant);
        reg.set_counter("pf.lifecycle.merged_demand", c.merged_demand);
        reg.set_counter("pf.lifecycle.accurate", c.accurate);
        reg.set_counter("pf.lifecycle.late", c.late);
        reg.set_counter("pf.lifecycle.early_evicted", c.early_evicted);
        reg.set_counter("pf.lifecycle.useless", c.useless);
        reg.set_counter("pf.lifecycle.inflight_at_end", c.inflight_at_end);
        reg.set_counter("pf.lifecycle.resident_at_end", c.resident_at_end);
    }
}

/// All memory-side telemetry, attached to a [`crate::MemorySystem`]
/// behind an `Option<Box<..>>` so the disabled path costs one pointer
/// null-check per hook site.
#[derive(Debug)]
pub struct MemTelemetry {
    /// Demand access latency (issue → completion), cycles.
    pub load_latency: Hist,
    /// L1 MSHR occupancy sampled at each accepted demand access.
    pub mshr_occupancy: Hist,
    /// Prefetch-buffer residency (entry insert → fill), cycles.
    pub pf_buf_residency: Hist,
    /// Prefetch-buffer depth sampled at each injected prefetch.
    pub pf_buf_depth: Hist,
    /// Prefetch lifecycle classification.
    pub lifecycle: LifecycleTracker,
    /// DRAM-read spans and fill instants for the Chrome trace.
    pub spans: SpanSink,
    /// Issue cycle of each in-flight demand access (by `AccessId`).
    pub(crate) issue_at: FastHashMap<u64, u64>,
    /// Insert cycle of each live prefetch-buffer entry.
    pub(crate) pf_born: FastHashMap<u64, u64>,
}

impl MemTelemetry {
    /// A fresh collector: counters, histograms and the Chrome-trace
    /// event log (bounded by [`SpanSink::CAP`]).
    pub(crate) fn new() -> Self {
        MemTelemetry {
            load_latency: Hist::new(),
            mshr_occupancy: Hist::new(),
            pf_buf_residency: Hist::new(),
            pf_buf_depth: Hist::new(),
            lifecycle: LifecycleTracker::default(),
            spans: SpanSink::new(SpanSink::CAP),
            issue_at: FastHashMap::default(),
            pf_born: FastHashMap::default(),
        }
    }

    /// Publishes every counter and histogram into a registry under the
    /// `mem.*` / `pf.*` namespaces (see README "Observability").
    pub fn publish(&self, reg: &mut Registry) {
        reg.put_hist("mem.load_latency", &self.load_latency);
        reg.put_hist("mem.l1_mshr_occupancy", &self.mshr_occupancy);
        reg.put_hist("pf.buffer_residency", &self.pf_buf_residency);
        reg.put_hist("pf.buffer_depth", &self.pf_buf_depth);
        self.lifecycle.publish(reg);
        reg.set_counter("trace.spans_dropped", self.spans.dropped());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_classes_resolve() {
        let mut t = LifecycleTracker::default();
        t.on_issued();
        t.on_issued();
        t.on_issued();
        t.on_accurate(0x40);
        t.on_late(0x44);
        t.on_evicted_unused(0x1000);
        t.on_evicted_unused(0x2000);
        t.on_demand_touch(0x1000); // early
        t.on_demand_touch(0x3000); // unrelated line: no effect
        t.finalize(1, 2);
        let c = &t.counts;
        assert_eq!(c.accurate, 1);
        assert_eq!(c.late, 1);
        assert_eq!(c.early_evicted, 1);
        assert_eq!(c.useless, 1, "unresolved eviction becomes useless");
        assert_eq!(c.inflight_at_end, 1);
        assert_eq!(c.resident_at_end, 2);
        assert_eq!(c.classified(), 4);
        assert!((c.pct(c.accurate) - 25.0).abs() < 1e-12);
        assert_eq!(t.per_pc.get(&0x40).unwrap().accurate, 1);
        assert_eq!(t.per_pc.get(&0x44).unwrap().late, 1);
    }

    #[test]
    fn publish_is_deterministic() {
        let mut t = MemTelemetry::new();
        t.load_latency.record(100);
        t.lifecycle.on_issued();
        let mut a = Registry::new();
        t.publish(&mut a);
        let mut b = Registry::new();
        t.publish(&mut b);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.counter("pf.lifecycle.issued"), 1);
        assert_eq!(a.hist("mem.load_latency").unwrap().count(), 1);
    }
}
