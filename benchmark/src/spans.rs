//! In-memory span recording for the traced run.
//!
//! Every boundary the harness can see from outside — a call from the
//! driver loop into `MemorySystem`, `Core` or the prefetch engine, a trace
//! decode, a sweep pass — is one span: name, start, end, parent, cell.
//! Spans nest strictly (the harness is single-threaded around them), so a
//! stack suffices. Closing a span folds it into a per-(cell, name)
//! aggregate of count / total time / time covered by child spans; a
//! layer's *self* time is total minus children. Only the first
//! [`SAMPLE_CAP`] raw spans of each cell are kept, so memory stays bounded
//! however many million boundaries a cell crosses.

use crate::json::Json;
use std::cell::RefCell;
use std::time::Instant;

/// Raw spans kept per cell (the aggregates always cover every span).
pub const SAMPLE_CAP: usize = 64;

macro_rules! kinds {
    ($($variant:ident => $name:literal,)*) => {
        /// The boundaries the traced run records.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Kind { $($variant,)* }

        impl Kind {
            /// Every kind, in declaration order (the aggregate index).
            pub const ALL: &'static [Kind] = &[$(Kind::$variant,)*];

            /// The span's name: the layer (crate/module) and the call.
            pub fn name(self) -> &'static str {
                match self { $(Kind::$variant => $name,)* }
            }
        }
    };
}

kinds! {
    Pass => "pass",
    Cell => "cell",
    CellSetup => "sim.cell_setup",
    Driver => "sim.driver",
    Validate => "sim.validate",
    MemTick => "mem.tick",
    MemAdvance => "mem.advance_to",
    CpuTick => "cpu.tick",
    CpuHorizon => "cpu.next_event_at",
    EngDemand => "engine.on_demand",
    EngFill => "engine.on_prefetch_fill",
    EngTick => "engine.tick",
    EngPop => "engine.pop_request",
    EngHorizon => "engine.horizon",
    EngConfig => "engine.config",
    Decode => "trace.decode",
    ContentHash => "trace.content_hash",
    Replay => "trace.replay",
    RunSweep => "sim.sweeps.run_sweep",
    ToJson => "sim.sweeps.to_json",
    ParseShard => "sim.sweeps.parse_shard",
}

const KINDS: usize = Kind::ALL.len();

/// Count / total / child-covered time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub child_ns: u64,
}

impl Agg {
    /// Time spent in the span itself, outside any child span.
    pub fn self_ns(&self) -> u64 {
        self.total_ns - self.child_ns
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns() as f64 * 1e-9
    }
}

/// One raw span of the bounded per-cell sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSpan {
    /// Sequence number (unique per tracer, in open order).
    pub seq: u64,
    /// Sequence number of the enclosing span.
    pub parent: Option<u64>,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans recorded under one cell (or outside any cell: the pass itself,
/// trace decodes).
#[derive(Debug, Clone)]
pub struct Group {
    pub label: String,
    pub agg: [Agg; KINDS],
    pub sample: Vec<RawSpan>,
}

impl Group {
    fn new(label: String) -> Self {
        Group {
            label,
            agg: [Agg::default(); KINDS],
            sample: Vec::new(),
        }
    }

    pub fn get(&self, kind: Kind) -> Agg {
        self.agg[kind as usize]
    }

    /// Sum of every span's self time — by construction the total duration
    /// of the group's outermost spans.
    pub fn self_sum_ns(&self) -> u64 {
        self.agg.iter().map(Agg::self_ns).sum()
    }
}

struct Open {
    kind: Kind,
    seq: u64,
    start_ns: u64,
    child_ns: u64,
    group: usize,
}

/// The span recorder. Group 0 holds spans opened outside any cell.
pub struct Tracer {
    t0: Instant,
    stack: Vec<Open>,
    next_seq: u64,
    current: usize,
    groups: Vec<Group>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            stack: Vec::new(),
            next_seq: 0,
            current: 0,
            groups: vec![Group::new("pass".to_string())],
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Spans opened from here on belong to a new cell group.
    pub fn begin_cell(&mut self, label: &str) {
        self.groups.push(Group::new(label.to_string()));
        self.current = self.groups.len() - 1;
    }

    /// Back to the outside-any-cell group.
    pub fn end_cell(&mut self) {
        self.current = 0;
    }

    pub fn enter(&mut self, kind: Kind) {
        let now = self.now_ns();
        self.enter_at(kind, now);
    }

    pub fn exit(&mut self) {
        let now = self.now_ns();
        self.exit_at(now);
    }

    /// [`Tracer::enter`] at an explicit timestamp (tests drive the
    /// arithmetic with these).
    pub fn enter_at(&mut self, kind: Kind, now_ns: u64) {
        self.stack.push(Open {
            kind,
            seq: self.next_seq,
            start_ns: now_ns,
            child_ns: 0,
            group: self.current,
        });
        self.next_seq += 1;
    }

    /// Closes the innermost open span at `now_ns`.
    ///
    /// # Panics
    /// Panics when no span is open (a harness bug).
    pub fn exit_at(&mut self, now_ns: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = now_ns.saturating_sub(open.start_ns);
        let group = &mut self.groups[open.group];
        let agg = &mut group.agg[open.kind as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.child_ns += open.child_ns;
        if group.sample.len() < SAMPLE_CAP {
            group.sample.push(RawSpan {
                seq: open.seq,
                parent: self.stack.last().map(|p| p.seq),
                kind: open.kind,
                start_ns: open.start_ns,
                end_ns: now_ns,
            });
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    #[cfg(test)]
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Aggregates summed over every group.
    pub fn totals(&self) -> Group {
        let mut sum = Group::new("total".to_string());
        for g in &self.groups {
            for (s, a) in sum.agg.iter_mut().zip(&g.agg) {
                s.count += a.count;
                s.total_ns += a.total_ns;
                s.child_ns += a.child_ns;
            }
        }
        sum
    }

    /// The span file: per-group aggregates plus the bounded raw sample.
    pub fn to_json(&self) -> Json {
        let groups = self.groups.iter().map(|g| {
            let spans = Kind::ALL.iter().filter(|k| g.get(**k).count > 0).map(|k| {
                let a = g.get(*k);
                (
                    k.name(),
                    Json::obj([
                        ("count", Json::Num(a.count as f64)),
                        ("total_s", Json::Num(a.total_s())),
                        ("self_s", Json::Num(a.self_s())),
                    ]),
                )
            });
            let sample = g.sample.iter().map(|s| {
                Json::obj([
                    ("seq", Json::Num(s.seq as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::str(s.kind.name())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            });
            Json::obj([
                ("cell", Json::str(g.label.clone())),
                ("spans", Json::obj(spans)),
                ("sample", Json::Arr(sample.collect())),
            ])
        });
        Json::Arr(groups.collect())
    }
}

/// Runs `f` inside a `kind` span. The tracer is only borrowed at the two
/// edges, so `f` may open nested spans through the same cell. The span
/// closes when `f` unwinds too: a pass catches a panicking cell, and the
/// spans that cell left open must not be charged to the cells after it.
pub fn span<R>(tracer: &RefCell<Tracer>, kind: Kind, f: impl FnOnce() -> R) -> R {
    struct Close<'a>(&'a RefCell<Tracer>);
    impl Drop for Close<'_> {
        fn drop(&mut self) {
            self.0.borrow_mut().exit();
        }
    }
    tracer.borrow_mut().enter(kind);
    let _close = Close(tracer);
    f()
}

/// [`span`] when a tracer is present (the traced pass), a plain call
/// otherwise (the timed passes).
pub fn span_if<R>(tracer: Option<&RefCell<Tracer>>, kind: Kind, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => span(t, kind, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_children_and_zero_length_spans_sum_to_the_parent() {
        let mut t = Tracer::new();
        t.begin_cell("c0");
        t.enter_at(Kind::Cell, 100);
        t.enter_at(Kind::Driver, 110);
        t.enter_at(Kind::MemTick, 120);
        t.enter_at(Kind::EngTick, 125); // grandchild
        t.exit_at(135);
        t.enter_at(Kind::EngPop, 135); // zero-length span
        t.exit_at(135);
        t.exit_at(150); // mem.tick: 30 total, 10 in children
        t.enter_at(Kind::CpuTick, 150); // starts exactly where its sibling ended
        t.exit_at(190);
        t.exit_at(200); // driver: 90 total, 70 in children
        t.exit_at(230); // cell: 130 total, 90 in children
        t.end_cell();

        let g = &t.groups()[1];
        assert_eq!(g.label, "c0");
        assert_eq!(
            g.get(Kind::MemTick),
            Agg {
                count: 1,
                total_ns: 30,
                child_ns: 10
            }
        );
        assert_eq!(g.get(Kind::EngPop).count, 1);
        assert_eq!(g.get(Kind::EngPop).total_ns, 0);
        assert_eq!(g.get(Kind::Driver).self_ns(), 20);
        assert_eq!(g.get(Kind::Cell).self_ns(), 40);
        // Self times partition the outermost span exactly.
        assert_eq!(g.self_sum_ns(), g.get(Kind::Cell).total_ns);
        assert_eq!(g.self_sum_ns(), 130);
        // Nothing leaked into the outside-any-cell group.
        assert_eq!(t.groups()[0].self_sum_ns(), 0);
    }

    #[test]
    fn repeated_spans_accumulate_and_totals_merge_groups() {
        let mut t = Tracer::new();
        t.enter_at(Kind::Pass, 0);
        for (cell, base) in [("a", 10u64), ("b", 100)] {
            t.begin_cell(cell);
            t.enter_at(Kind::Cell, base);
            for i in 0..3 {
                t.enter_at(Kind::CpuTick, base + 10 * i);
                t.exit_at(base + 10 * i + 4);
            }
            t.exit_at(base + 50);
            t.end_cell();
        }
        t.exit_at(200);
        let totals = t.totals();
        assert_eq!(totals.get(Kind::CpuTick).count, 6);
        assert_eq!(totals.get(Kind::CpuTick).total_ns, 24);
        assert_eq!(totals.get(Kind::Cell).self_ns(), 2 * (50 - 12));
        // The pass span lives in group 0 and is the parent of both cells.
        assert_eq!(t.groups()[0].get(Kind::Pass).child_ns, 100);
        assert_eq!(totals.self_sum_ns(), 200, "self times sum to the pass");
    }

    #[test]
    fn raw_sample_is_bounded_and_links_parents() {
        let mut t = Tracer::new();
        t.begin_cell("c");
        t.enter_at(Kind::Cell, 0);
        for i in 0..(SAMPLE_CAP as u64 * 3) {
            t.enter_at(Kind::MemTick, i);
            t.exit_at(i + 1);
        }
        t.exit_at(1000);
        let g = &t.groups()[1];
        assert_eq!(g.sample.len(), SAMPLE_CAP);
        assert_eq!(g.get(Kind::MemTick).count, SAMPLE_CAP as u64 * 3);
        assert!(g.sample.iter().all(|s| s.parent == Some(0)));
        let doc = t.to_json();
        let cell = &doc.as_arr().unwrap()[1];
        assert_eq!(cell.get("cell").unwrap().as_str(), Some("c"));
        assert!(cell.get("spans").unwrap().get("mem.tick").is_some());
        assert!(cell.get("spans").unwrap().get("cpu.tick").is_none());
    }

    #[test]
    fn a_panic_inside_nested_spans_closes_them_all() {
        let t = RefCell::new(Tracer::new());
        t.borrow_mut().begin_cell("panics");
        let caught = span(&t, Kind::Cell, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                span(&t, Kind::Driver, || {
                    span(&t, Kind::MemTick, || panic!("cell died"));
                })
            }))
        });
        assert!(caught.is_err());
        t.borrow_mut().end_cell();
        // The next cell's spans land under their own kinds and group.
        t.borrow_mut().begin_cell("next");
        span(&t, Kind::Cell, || span(&t, Kind::CpuTick, || ()));
        t.borrow_mut().end_cell();

        let t = t.into_inner();
        assert!(t.stack.is_empty());
        let (died, next) = (&t.groups()[1], &t.groups()[2]);
        for kind in [Kind::Cell, Kind::Driver, Kind::MemTick] {
            assert_eq!(died.get(kind).count, 1, "{}", kind.name());
        }
        assert_eq!(died.self_sum_ns(), died.get(Kind::Cell).total_ns);
        assert_eq!(next.get(Kind::Cell).count, 1);
        assert_eq!(next.get(Kind::CpuTick).count, 1);
        assert_eq!(next.get(Kind::MemTick).count, 0);
    }

    #[test]
    fn span_names_are_unique_metric_stems() {
        let mut names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Kind::ALL.len());
    }
}
