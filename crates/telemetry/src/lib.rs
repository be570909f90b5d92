//! Observability primitives for the ETPP simulator.
//!
//! This crate is deliberately dependency-free and simulation-agnostic: it
//! provides the *containers* every other crate publishes into —
//!
//! * [`Hist`] — a fixed-bucket log2 histogram (65 buckets cover the full
//!   `u64` range) with O(1) record, exact count/sum, approximate
//!   quantiles, and loss-free merging across shards;
//! * [`Registry`] — a named snapshot of counters and histograms, with a
//!   deterministic (sorted) layout so merged snapshots are byte-identical
//!   regardless of worker count or insertion order;
//! * [`PhaseSeries`] — an interval time-series of counter snapshots (the
//!   feed phase-adaptive reconfiguration needs), serialisable to JSON;
//! * [`SpanSink`] / [`SpanEvent`] — a bounded event log rendered in the
//!   Chrome trace-event format (`chrome://tracing` / Perfetto).
//!
//! Everything here is *pure observation*: nothing in this crate can feed
//! back into simulation behaviour, which is what lets the equivalence
//! suite pin telemetry-on runs bit-identical to telemetry-off runs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of buckets in a [`Hist`]: bucket 0 holds zeros, bucket `b`
/// (1..=64) holds values with `floor(log2(v)) == b - 1`, i.e. the range
/// `[2^(b-1), 2^b)`.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram over `u64` samples.
///
/// Recording is a branch-free bucket increment plus a count/sum update,
/// cheap enough for per-access hot paths. Bucket boundaries are fixed
/// (powers of two), so histograms from different shards merge exactly:
/// `merge` is element-wise addition and loses nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value lands in.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `b` (0 for buckets 0 and 1).
    pub fn bucket_lo(b: usize) -> u64 {
        if b <= 1 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Exclusive upper bound of bucket `b` (`u64::MAX` for the last).
    pub fn bucket_hi(b: usize) -> u64 {
        if b == 0 {
            1
        } else if b >= 64 {
            u64::MAX
        } else {
            1u64 << b
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0,1]`): the exclusive upper bound
    /// of the bucket in which the `q`-th sample falls, clamped to the
    /// observed maximum. Exact to within one power of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_hi(b).min(self.max.max(1));
            }
        }
        self.max
    }

    /// Per-bucket counts (index = bucket).
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Element-wise merge of another histogram into this one. Loss-free:
    /// the result is identical to having recorded both sample streams
    /// into a single histogram, regardless of merge order.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// A named, mergeable snapshot of counters and histograms.
///
/// Keys are sorted (`BTreeMap`), so two registries built from the same
/// data in different orders — or merged from shards scheduled
/// differently — serialise to byte-identical JSON. That property is
/// pinned by the sharded-sweep determinism tests in `etpp-sim`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (or overwrites) a counter.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Inserts a histogram snapshot, merging into any existing entry of
    /// the same name.
    pub fn put_hist(&mut self, name: &str, hist: &Hist) {
        self.hists.entry(name.to_string()).or_default().merge(hist);
    }

    /// Reads a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// Merges another registry into this one: counters add, histograms
    /// merge bucket-wise. Associative and commutative, so shard order
    /// never shows in the result.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Deterministic JSON rendering (sorted keys; histograms as
    /// `{count, sum, max, p50, p99, buckets: {"lo": n, ...}}` with only
    /// non-empty buckets listed, keyed by inclusive lower bound).
    pub fn to_json(&self) -> String {
        let mut j = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let _ = write!(j, "\n    \"{}\": {v}", json_escape(k));
        }
        j.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            let _ = write!(
                j,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \
                 \"p50\": {}, \"p99\": {}, \"buckets\": {{",
                json_escape(k),
                h.count(),
                h.sum(),
                h.max(),
                h.quantile(0.5),
                h.quantile(0.99)
            );
            let mut first = true;
            for (b, &n) in h.buckets().iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    j.push_str(", ");
                }
                first = false;
                let _ = write!(j, "\"{}\": {n}", Hist::bucket_lo(b));
            }
            j.push_str("}}");
        }
        j.push_str("\n  }\n}\n");
        j
    }
}

/// One sample of a [`PhaseSeries`]: every column's value at a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSample {
    /// Simulated cycle the snapshot was taken at.
    pub cycle: u64,
    /// Values, aligned with [`PhaseSeries::columns`].
    pub values: Vec<u64>,
}

/// An interval time-series of counter snapshots: the phase-sampler
/// output (cumulative counters sampled every N simulated cycles).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseSeries {
    /// Nominal sampling interval in simulated cycles.
    pub interval: u64,
    /// Column names, fixed at construction.
    pub columns: Vec<String>,
    /// Samples in cycle order.
    pub samples: Vec<PhaseSample>,
}

impl PhaseSeries {
    /// Creates an empty series with the given columns.
    pub fn new(interval: u64, columns: Vec<String>) -> Self {
        PhaseSeries {
            interval,
            columns,
            samples: Vec::new(),
        }
    }

    /// Appends a sample. `values.len()` must equal `columns.len()`.
    pub fn push(&mut self, cycle: u64, values: Vec<u64>) {
        assert_eq!(values.len(), self.columns.len(), "column arity mismatch");
        self.samples.push(PhaseSample { cycle, values });
    }

    /// Value of a named column in a given sample (None if absent).
    pub fn value(&self, sample: usize, column: &str) -> Option<u64> {
        let c = self.columns.iter().position(|n| n == column)?;
        Some(self.samples.get(sample)?.values[c])
    }

    /// JSON rendering: `{"interval": N, "columns": [...], "samples":
    /// [{"cycle": N, "values": [...]}, ...]}`. Deterministic.
    pub fn to_json(&self) -> String {
        let mut j = String::from("{\n");
        let _ = writeln!(j, "  \"interval\": {},", self.interval);
        j.push_str("  \"columns\": [");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                j.push_str(", ");
            }
            let _ = write!(j, "\"{}\"", json_escape(c));
        }
        j.push_str("],\n  \"samples\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let _ = write!(j, "    {{\"cycle\": {}, \"values\": [", s.cycle);
            for (k, v) in s.values.iter().enumerate() {
                if k > 0 {
                    j.push_str(", ");
                }
                let _ = write!(j, "{v}");
            }
            j.push_str("]}");
            j.push_str(if i + 1 < self.samples.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        j.push_str("  ]\n}\n");
        j
    }
}

/// A Chrome-trace event: a complete span (`dur > 0`) or an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Event name (static so the hot path never allocates).
    pub name: &'static str,
    /// Start, in simulated cycles (exported as microseconds).
    pub ts: u64,
    /// Duration in cycles; 0 renders as an instant event.
    pub dur: u64,
    /// Virtual thread lane (see [`SpanSink::LANES`]).
    pub tid: u32,
}

/// A bounded span log. Recording past the cap drops events (counted),
/// so a pathological run cannot exhaust host memory.
#[derive(Debug, Clone)]
pub struct SpanSink {
    events: Vec<SpanEvent>,
    cap: usize,
    dropped: u64,
}

impl SpanSink {
    /// Lane names, indexed by `SpanEvent::tid`.
    pub const LANES: [&'static str; 4] = ["driver visits", "engine", "dram", "fills"];
    /// Lane for driver-visit spans (tagged by horizon source).
    pub const LANE_VISITS: u32 = 0;
    /// Lane for prefetch-engine rounds.
    pub const LANE_ENGINE: u32 = 1;
    /// Lane for DRAM read spans.
    pub const LANE_DRAM: u32 = 2;
    /// Lane for cache-fill events.
    pub const LANE_FILLS: u32 = 3;
    /// Cap on recorded events per sink in a simulation run, chosen so a
    /// paper-scale Chrome trace stays well under 100 MB of JSON.
    pub const CAP: usize = 200_000;

    /// A sink holding at most `cap` events.
    pub fn new(cap: usize) -> Self {
        SpanSink {
            events: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Records an event, dropping it (counted) once the cap is reached.
    #[inline]
    pub fn push(&mut self, ev: SpanEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Events recorded so far.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Events dropped after the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the sink, returning its events.
    pub fn into_events(self) -> Vec<SpanEvent> {
        self.events
    }
}

/// Renders events in the Chrome trace-event JSON format (the
/// `{"traceEvents": [...]}` object form), loadable in `chrome://tracing`
/// and [Perfetto](https://ui.perfetto.dev). One simulated cycle maps to
/// one microsecond of trace time. Events are sorted by `(ts, tid)` so
/// the output is deterministic regardless of recording interleaving.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut sorted: Vec<&SpanEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.ts, e.tid, e.dur, e.name));
    let mut j = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (tid, lane) in SpanSink::LANES.iter().enumerate() {
        let _ = writeln!(
            j,
            "  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{}\"}}}},",
            json_escape(lane)
        );
    }
    for (i, e) in sorted.iter().enumerate() {
        if e.dur > 0 {
            let _ = write!(
                j,
                "  {{\"name\": \"{}\", \"cat\": \"sim\", \"ph\": \"X\", \"ts\": {}, \
                 \"dur\": {}, \"pid\": 0, \"tid\": {}}}",
                json_escape(e.name),
                e.ts,
                e.dur,
                e.tid
            );
        } else {
            let _ = write!(
                j,
                "  {{\"name\": \"{}\", \"cat\": \"sim\", \"ph\": \"i\", \"ts\": {}, \
                 \"s\": \"t\", \"pid\": 0, \"tid\": {}}}",
                json_escape(e.name),
                e.ts,
                e.tid
            );
        }
        j.push_str(if i + 1 < sorted.len() { ",\n" } else { "\n" });
    }
    j.push_str("]}\n");
    j
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_bucket_boundaries() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(255), 8);
        assert_eq!(Hist::bucket_of(256), 9);
        assert_eq!(Hist::bucket_of(u64::MAX), 64);
        for b in 0..HIST_BUCKETS {
            let lo = Hist::bucket_lo(b);
            // Every bucket's lower bound maps back to that bucket.
            if b != 1 {
                // bucket 0 and 1 share lo = 0 (0 → b0, 1 → b1)
                assert_eq!(Hist::bucket_of(lo.max(1)), b.max(1), "bucket {b}");
            }
        }
    }

    #[test]
    fn hist_records_and_quantiles() {
        let mut h = Hist::new();
        for v in [1u64, 2, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1108);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 1108.0 / 6.0).abs() < 1e-9);
        // p50 falls in the [2,4) bucket → upper bound 4.
        assert_eq!(h.quantile(0.5), 4);
        // p100 clamps to the observed max's bucket bound.
        assert!(h.quantile(1.0) >= 1000);
        assert_eq!(Hist::new().quantile(0.5), 0);
    }

    #[test]
    fn hist_merge_is_lossless_and_order_free() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut whole = Hist::new();
        for v in 0..100u64 {
            whole.record(v * 7);
            if v % 2 == 0 {
                a.record(v * 7);
            } else {
                b.record(v * 7);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn registry_merge_is_deterministic() {
        let mut h = Hist::new();
        h.record(5);
        let mut a = Registry::new();
        a.set_counter("zz", 1);
        a.set_counter("aa", 2);
        a.put_hist("lat", &h);
        let mut b = Registry::new();
        b.set_counter("aa", 3);
        b.put_hist("lat", &h);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_json(), ba.to_json(), "merge order must not show");
        assert_eq!(ab.counter("aa"), 5);
        assert_eq!(ab.counter("zz"), 1);
        assert_eq!(ab.hist("lat").unwrap().count(), 2);
        // Sorted keys: "aa" renders before "zz".
        let json = ab.to_json();
        assert!(json.find("\"aa\"").unwrap() < json.find("\"zz\"").unwrap());
    }

    #[test]
    fn phase_series_round_trips_columns() {
        let mut s = PhaseSeries::new(1000, vec!["a".into(), "b".into()]);
        s.push(1000, vec![1, 2]);
        s.push(2000, vec![3, 4]);
        assert_eq!(s.value(1, "b"), Some(4));
        assert_eq!(s.value(0, "c"), None);
        let j = s.to_json();
        assert!(j.contains("\"interval\": 1000"));
        assert!(j.contains("{\"cycle\": 2000, \"values\": [3, 4]}"));
    }

    #[test]
    #[should_panic(expected = "column arity mismatch")]
    fn phase_series_rejects_wrong_arity() {
        let mut s = PhaseSeries::new(10, vec!["a".into()]);
        s.push(10, vec![1, 2]);
    }

    #[test]
    fn span_sink_caps_and_counts_drops() {
        let mut s = SpanSink::new(2);
        for i in 0..5 {
            s.push(SpanEvent {
                name: "x",
                ts: i,
                dur: 1,
                tid: 0,
            });
        }
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.dropped(), 3);
    }

    #[test]
    fn chrome_trace_renders_spans_and_instants() {
        let events = vec![
            SpanEvent {
                name: "visit",
                ts: 10,
                dur: 5,
                tid: SpanSink::LANE_VISITS,
            },
            SpanEvent {
                name: "fill",
                ts: 3,
                dur: 0,
                tid: SpanSink::LANE_FILLS,
            },
        ];
        let j = chrome_trace_json(&events);
        assert!(j.contains("\"traceEvents\""));
        // Sorted by ts: the instant (ts=3) renders before the span.
        assert!(j.find("\"fill\"").unwrap() < j.find("\"visit\"").unwrap());
        assert!(j.contains("\"ph\": \"X\""));
        assert!(j.contains("\"ph\": \"i\""));
        assert!(j.contains("\"thread_name\""));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
