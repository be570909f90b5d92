//! Run-level observability: the telemetry probe the cycle driver
//! carries, and the report it assembles for one simulation run.
//!
//! [`crate::run_telemetry`] attaches the memory, core and engine
//! collectors and drives the run with a `TelemetryProbe`, the one
//! non-trivial [`etpp_cpu::Probe`]: it samples the phase time-series at
//! interval boundaries and logs each driver visit as a span. The
//! [`TelemetryReport`] it hands back holds every component's
//! counters/histograms merged into one deterministic [`Registry`], the
//! interval [`PhaseSeries`], the prefetch lifecycle classification, and
//! the span log rendered via [`etpp_telemetry::chrome_trace_json`].

use crate::system::RunResult;
use etpp_cpu::{Core, CoreStats, HorizonSource, Probe};
use etpp_mem::{LifecycleCounts, MemTelemetry, MemorySystem, PcLifecycle};
use etpp_telemetry::{chrome_trace_json, Hist, PhaseSeries, Registry, SpanEvent, SpanSink};
use std::collections::BTreeMap;

/// Columns of the phase time-series, in emission order. Scalar counters
/// are cumulative; histogram-derived columns (`*.count`, `*.p50`,
/// `*.p99`) snapshot the named histogram at the sample cycle.
pub const PHASE_COLUMNS: &[&str] = &[
    "core.insts_retired",
    "core.loads_issued",
    "core.load_retries",
    "mem.l1_read_hits",
    "mem.l1_read_misses",
    "mem.l1_late_pf_merges",
    "mem.l1_prefetch_fills",
    "mem.l1_prefetches_used",
    "mem.dram_reads",
    "pf.issued",
    "pf.accurate",
    "pf.late",
    "mem.load_latency.count",
    "mem.load_latency.p50",
    "mem.load_latency.p99",
    "mem.l1_mshr_occupancy.count",
    "mem.l1_mshr_occupancy.p99",
];

/// Everything observed during one telemetry-enabled run.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// All component counters and histograms, merged. Deterministic
    /// layout: two runs of the same workload produce byte-identical
    /// JSON, and shard merges are order-free.
    pub registry: Registry,
    /// The interval time-series of [`PHASE_COLUMNS`].
    pub phases: PhaseSeries,
    /// Prefetch lifecycle terminal-class counts.
    pub lifecycle: LifecycleCounts,
    /// Per-demand-PC accurate/late attribution (sorted by PC).
    pub per_pc: BTreeMap<u32, PcLifecycle>,
    /// Span events: driver visits, then the memory system's lanes.
    pub spans: Vec<SpanEvent>,
    /// Events dropped after a span sink's cap was reached.
    pub spans_dropped: u64,
}

impl TelemetryReport {
    /// The span log in Chrome trace-event JSON (Perfetto-loadable).
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.spans)
    }

    /// The merged registry as deterministic JSON.
    pub fn registry_json(&self) -> String {
        self.registry.to_json()
    }

    /// The phase time-series as JSON.
    pub fn phases_json(&self) -> String {
        self.phases.to_json()
    }
}

/// The probe of a telemetry run: a phase sample on the first cycle
/// at/after each interval boundary, one span per driver visit.
pub(crate) struct TelemetryProbe {
    interval: u64,
    next_at: u64,
    series: PhaseSeries,
    visit_spans: SpanSink,
}

impl TelemetryProbe {
    pub(crate) fn new(sample_interval: u64) -> Self {
        let interval = sample_interval.max(1);
        TelemetryProbe {
            interval,
            next_at: interval,
            series: PhaseSeries::new(
                interval,
                PHASE_COLUMNS.iter().map(|s| s.to_string()).collect(),
            ),
            visit_spans: SpanSink::new(SpanSink::CAP),
        }
    }

    /// Whether the clock has crossed the next sample boundary.
    #[inline]
    fn due(&self, now: u64) -> bool {
        now >= self.next_at
    }

    /// Records a sample stamped at `now` and re-arms for the next
    /// boundary after `now` (visits can jump several intervals at
    /// once; cumulative counters make the skipped boundaries
    /// recoverable by interpolation).
    fn sample(&mut self, now: u64, values: Vec<u64>) {
        self.series.push(now, values);
        self.next_at = (now / self.interval + 1) * self.interval;
    }

    /// Assembles the run's report. `registry` already holds the core and
    /// engine collectors; `mem` is the memory system's finalized one.
    pub(crate) fn report(
        self,
        mut registry: Registry,
        mem: Option<Box<MemTelemetry>>,
        run: &RunResult,
    ) -> TelemetryReport {
        for (key, count) in run.visits.iter() {
            registry.set_counter(&format!("driver.visits.{key}"), count);
        }
        registry.set_counter("driver.host_iters", run.host_iters);
        registry.set_counter("run.cycles", run.cycles);
        let mut spans_dropped = self.visit_spans.dropped();
        let mut spans = self.visit_spans.into_events();
        let (lifecycle, per_pc) = match mem {
            Some(t) => {
                t.publish(&mut registry);
                spans_dropped += t.spans.dropped();
                spans.extend(t.spans.into_events());
                (t.lifecycle.counts, t.lifecycle.per_pc)
            }
            None => Default::default(),
        };
        registry.set_counter("trace.spans_dropped", spans_dropped);
        TelemetryReport {
            registry,
            phases: self.series,
            lifecycle,
            per_pc,
            spans,
            spans_dropped,
        }
    }
}

impl Probe<Core<'_>> for TelemetryProbe {
    #[inline]
    fn cycle(&mut self, now: u64, core: &Core<'_>, mem: &MemorySystem) {
        if self.due(now) {
            self.sample(now, phase_values(&core.stats, mem));
        }
    }

    fn visit(&mut self, src: HorizonSource, start: u64, end: u64) {
        self.visit_spans.push(SpanEvent {
            name: src.key(),
            ts: start,
            dur: end - start,
            tid: SpanSink::LANE_VISITS,
        });
    }
}

/// Phase-sample values, aligned with [`PHASE_COLUMNS`].
fn phase_values(core: &CoreStats, mem: &MemorySystem) -> Vec<u64> {
    let ms = mem.stats();
    let (ll, mo, lc) = match mem.telemetry() {
        Some(t) => (
            hist_columns(&t.load_latency),
            hist_columns(&t.mshr_occupancy),
            t.lifecycle.counts.clone(),
        ),
        None => ((0, 0, 0), (0, 0, 0), Default::default()),
    };
    vec![
        core.insts_retired,
        core.loads_issued,
        core.load_retries,
        ms.l1.read_hits,
        ms.l1.read_misses,
        ms.l1.late_prefetch_merges,
        ms.l1.prefetch_fills,
        ms.l1.prefetches_used,
        ms.dram.reads,
        lc.issued,
        lc.accurate,
        lc.late,
        ll.0,
        ll.1,
        ll.2,
        mo.0,
        mo.2,
    ]
}

/// Snapshot helper: histogram-derived phase columns.
fn hist_columns(h: &Hist) -> (u64, u64, u64) {
    (h.count(), h.quantile(0.5), h.quantile(0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_crosses_multiple_intervals() {
        let mut s = TelemetryProbe::new(100);
        assert!(!s.due(99));
        assert!(s.due(100));
        s.sample(105, vec![0; PHASE_COLUMNS.len()]);
        assert!(!s.due(150));
        assert!(s.due(200));
        // A jump over several boundaries re-arms past the jump.
        s.sample(437, vec![1; PHASE_COLUMNS.len()]);
        assert!(!s.due(499));
        assert!(s.due(500));
        assert_eq!(s.series.samples.len(), 2);
        assert_eq!(s.series.samples[1].cycle, 437);
    }
}
