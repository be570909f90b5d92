//! Retirement capture for trace replay: the core retires straight into
//! [`TraceRecord`]s, the one copy of the stream a capture holds.
//!
//! Each captured load carries a load→load dependence distance: how many
//! captured loads back sits the youngest load whose result feeds its
//! address through any chain of ALU ops (0 = none). Producers are
//! tracked as *load numbers* — the program-order count of loads, 1-based
//! — so everything the tracker keeps is bounded by the window, not the
//! trace:
//!
//! * a ring of [`RING`] load numbers indexed by trace index holds, per
//!   recent op, the youngest load feeding its output;
//! * the few producers some consumer reads [`RING`] or more ops later
//!   are taken from the trace's far-edge table (every such edge is
//!   escaped there, since [`RING`] exceeds the longest one-byte
//!   back-distance) and kept in a small sorted map;
//! * a retiring load's producer is computed at dispatch and stashed in
//!   its ROB slot, since the ring may have moved on by retire;
//! * store-forwarded loads never reach the memory system and are not
//!   captured; their load numbers are kept sorted, so a load's captured
//!   ordinal is its load number minus the forwarded numbers below it.

use crate::trace::{MicroOp, OpClass, OpId, PackedOp, Trace};
use etpp_mem::ConfigOp;
use etpp_trace::TraceRecord;
use std::collections::BTreeSet;

/// Trace-index span of the producer ring (a power of two).
pub(crate) const RING: usize = 256;
const _: () = assert!(RING.is_power_of_two());
const _: () = assert!(RING >= PackedOp::ESCAPED as usize);

/// The capture sink and its dependence tracker.
#[derive(Debug)]
pub(crate) struct Capture {
    records: Vec<TraceRecord>,
    /// Youngest load feeding each recent op's output, as a load number
    /// (0 = none), at `trace index % RING`.
    ring: [u32; RING],
    /// `(trace index, load number)` of every producer read `RING` or
    /// more ops after it, sorted by trace index; the load numbers are
    /// filled in as the producers dispatch.
    far: Vec<(u32, u32)>,
    /// Next entry of `far` to fill (dispatch runs in program order).
    far_next: usize,
    /// Loads dispatched so far: the load number of the last one.
    dispatched_loads: u32,
    /// Loads retired so far: the load number of the last one.
    retired_loads: u32,
    /// Load numbers of store-forwarded loads, ascending.
    forwarded: Vec<u32>,
    last_cycle: u64,
}

impl Capture {
    /// An empty capture for `trace`: the record vector is reserved for
    /// every load, store and config op (forwarded loads are the only
    /// ones left out), and the far producers are collected from the
    /// trace's escaped edges.
    pub(crate) fn new(trace: &Trace) -> Self {
        let c = trace.class_counts();
        let far: BTreeSet<u32> = trace
            .far
            .iter()
            .filter(|&&(i, p)| (i - p) as usize >= RING)
            .map(|&(_, p)| p)
            .collect();
        Capture {
            records: Vec::with_capacity((c.loads + c.stores + c.config) as usize),
            ring: [0; RING],
            far: far.into_iter().map(|d| (d, 0)).collect(),
            far_next: 0,
            dispatched_loads: 0,
            retired_loads: 0,
            forwarded: Vec::new(),
            last_cycle: 0,
        }
    }

    /// The youngest load (number) feeding the output of op `d`, read
    /// while dispatching op `idx`.
    #[inline]
    fn feed(&self, idx: u32, d: u32) -> u32 {
        if ((idx - d) as usize) < RING {
            self.ring[d as usize % RING]
        } else {
            let at = self
                .far
                .binary_search_by_key(&d, |&(i, _)| i)
                .expect("every far producer is collected in `new`");
            self.far[at].1
        }
    }

    /// Tracks op `idx`, whose producers are `deps`, entering the window
    /// (every op dispatches, in program order). Returns the youngest load
    /// feeding its inputs — for a load, the address producer
    /// [`Capture::retire_load`] needs.
    pub(crate) fn dispatch(&mut self, idx: u32, op: &MicroOp, deps: [Option<OpId>; 2]) -> u32 {
        let producer = deps
            .into_iter()
            .flatten()
            .map(|OpId(d)| self.feed(idx, d))
            .max()
            .unwrap_or(0);
        let out = if op.class == OpClass::Load {
            self.dispatched_loads += 1;
            self.dispatched_loads
        } else {
            producer
        };
        self.ring[idx as usize % RING] = out;
        if self.far.get(self.far_next).is_some_and(|&(i, _)| i == idx) {
            self.far[self.far_next].1 = out;
            self.far_next += 1;
        }
        producer
    }

    fn push(&mut self, r: TraceRecord) {
        debug_assert!(
            r.cycle() >= self.last_cycle,
            "capture stream must be in time order"
        );
        self.last_cycle = r.cycle();
        self.records.push(r);
    }

    /// Records a retiring load (loads retire in program order).
    /// `producer` is what [`Capture::dispatch`] returned for it; a
    /// `forwarded` load is not captured.
    pub(crate) fn retire_load(&mut self, cycle: u64, op: &MicroOp, producer: u32, forwarded: bool) {
        self.retired_loads += 1;
        if forwarded {
            self.forwarded.push(self.retired_loads);
            return;
        }
        let dep = match self.forwarded.binary_search(&producer) {
            Err(below) if producer > 0 => {
                let ordinal = self.retired_loads - self.forwarded.len() as u32;
                ordinal - (producer - below as u32)
            }
            // No producer, or a forwarded one that was never captured.
            _ => 0,
        };
        self.push(TraceRecord::Load {
            cycle,
            pc: op.pc,
            vaddr: op.addr,
            dep,
        });
    }

    /// Records a retiring store and its data.
    pub(crate) fn retire_store(&mut self, cycle: u64, op: &MicroOp, value: u64) {
        self.push(TraceRecord::Store {
            cycle,
            pc: op.pc,
            vaddr: op.addr,
            value,
            size: op.aux,
        });
    }

    /// Records a retiring prefetcher-configuration op.
    pub(crate) fn retire_config(&mut self, cycle: u64, op: &ConfigOp) {
        self.push(TraceRecord::Config {
            cycle,
            op: Box::new(op.clone()),
        });
    }

    /// The records captured so far, in retirement order.
    pub(crate) fn finish(self) -> Vec<TraceRecord> {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    /// Drives a [`Capture`] the way the core does: ops dispatch in
    /// order up to `window` ahead of retirement, each load's producer is
    /// kept per in-flight op, and op `i` retires at cycle `i`.
    fn capture(trace: &Trace, forwarded: &[u32], window: usize) -> Vec<TraceRecord> {
        let mut cap = Capture::new(trace);
        let mut stash = vec![0u32; window];
        let mut stores = 0;
        let n = trace.len();
        for i in 0..n + window {
            if let Some(r) = i.checked_sub(window) {
                let op = &trace.op(r as u32);
                match op.class {
                    OpClass::Load => {
                        let fwd = forwarded.contains(&(r as u32));
                        cap.retire_load(r as u64, op, stash[r % window], fwd)
                    }
                    OpClass::Store => {
                        cap.retire_store(r as u64, op, trace.store_values[stores]);
                        stores += 1;
                    }
                    OpClass::Config => {
                        cap.retire_config(r as u64, &trace.configs[op.addr as usize])
                    }
                    _ => {}
                }
            }
            if i < n {
                stash[i % window] =
                    cap.dispatch(i as u32, &trace.op(i as u32), trace.deps(i as u32));
            }
        }
        cap.finish()
    }

    /// The captured loads' dependence distances by the full-trace
    /// definition: per-op arrays of the youngest feeding load's trace
    /// index, and of each captured load's ordinal.
    fn reference_deps(trace: &Trace, forwarded: &[u32]) -> Vec<u32> {
        let mut feed = vec![None::<usize>; trace.len()];
        let mut ordinal = vec![None::<u32>; trace.len()];
        let mut captured = 0;
        let mut deps = Vec::new();
        for (i, op) in trace.ops().enumerate() {
            let producer = trace
                .deps(i as u32)
                .into_iter()
                .flatten()
                .filter_map(|OpId(d)| feed[d as usize])
                .max();
            if op.class == OpClass::Load {
                feed[i] = Some(i);
                if !forwarded.contains(&(i as u32)) {
                    captured += 1;
                    ordinal[i] = Some(captured);
                    deps.push(
                        producer
                            .and_then(|p| ordinal[p])
                            .map_or(0, |o| captured - o),
                    );
                }
            } else {
                feed[i] = producer;
            }
        }
        deps
    }

    fn load_deps(records: &[TraceRecord]) -> Vec<u32> {
        records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Load { dep, .. } => Some(*dep),
                _ => None,
            })
            .collect()
    }

    /// Checks the tracker against the reference at a core-sized window
    /// and at windows wider than the ring, and returns the distances.
    fn checked_deps(trace: &Trace, forwarded: &[u32]) -> Vec<u32> {
        let want = reference_deps(trace, forwarded);
        for window in [1, 40, RING + 3] {
            assert_eq!(
                load_deps(&capture(trace, forwarded, window)),
                want,
                "window {window}"
            );
        }
        want
    }

    fn fillers(b: &mut TraceBuilder, n: usize) {
        for _ in 0..n {
            b.int_op(1, [None, None]);
        }
    }

    #[test]
    fn producers_one_ring_length_back_and_just_beyond() {
        let mut b = TraceBuilder::new();
        let p = b.load(0x1000, 1, [None, None]);
        let q = b.load(0x1040, 2, [None, None]);
        fillers(&mut b, RING - 2);
        // Op RING reads op 0 from exactly one ring-length back; op
        // RING + 1 reads op 1 from one ring-length back and op 0 from
        // just beyond.
        let at = b.load(0x2000, 3, [Some(p), None]);
        let beyond = b.load(0x3000, 4, [Some(q), Some(p)]);
        assert_eq!((at.0, beyond.0), (RING as u32, RING as u32 + 1));
        let t = b.build();
        assert_eq!(Capture::new(&t).far.len(), 2);
        assert_eq!(checked_deps(&t, &[]), vec![0, 0, 2, 2]);
    }

    #[test]
    fn an_old_load_reaches_a_new_consumer_through_short_alu_edges() {
        let mut b = TraceBuilder::new();
        let ld = b.load(0x1000, 1, [None, None]);
        let mut w = ld;
        for i in 0..3 * RING {
            if i % 50 == 0 {
                b.load(0x8000 + i as u64 * 64, 2, [None, None]);
            }
            w = b.int_op(1, [Some(w), None]);
        }
        b.load(0x2000, 3, [Some(w), None]);
        let t = b.build();
        assert!(Capture::new(&t).far.is_empty(), "every edge is short");
        let deps = checked_deps(&t, &[]);
        assert_eq!(deps.last(), Some(&(deps.len() as u32 - 1)));
    }

    #[test]
    fn a_store_forwarded_feeding_load_gives_dep_0() {
        let mut b = TraceBuilder::new();
        let st = b.store(0x1000, 0x40, 1, [None, None]);
        let early = b.load(0x500, 2, [None, None]);
        let fwd = b.load(0x1000, 3, [Some(st), None]);
        b.load(0x600, 7, [None, None]);
        let w = b.int_op(1, [Some(fwd), None]);
        let fed = b.load(0x40, 4, [Some(w), None]);
        // Later consumers count their distance in captured loads,
        // skipping the forwarded one, whether their producer sits after
        // it or before it.
        b.load(0x80, 5, [Some(fed), None]);
        b.load(0xc0, 6, [Some(early), None]);
        let t = b.build();
        assert_eq!(checked_deps(&t, &[fwd.0]), vec![0, 0, 0, 1, 4]);
    }

    #[test]
    fn a_config_op_inside_the_window_keeps_its_place_and_the_edges() {
        let mut b = TraceBuilder::new();
        let ld = b.load(0x1000, 1, [None, None]);
        b.config(ConfigOp::Enable(true));
        let w = b.int_op(1, [Some(ld), None]);
        b.load(0x2000, 2, [Some(w), None]);
        let t = b.build();
        assert_eq!(checked_deps(&t, &[]), vec![0, 1]);
        let r = capture(&t, &[], 40);
        assert_eq!(r.len(), 3);
        assert!(
            matches!(&r[1], TraceRecord::Config { cycle: 1, op } if **op == ConfigOp::Enable(true))
        );
    }

    #[test]
    fn random_dataflow_matches_the_full_array_reference() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        let mut b = TraceBuilder::new();
        let mut ids = Vec::new();
        let mut forwarded = Vec::new();
        for i in 0..4 * RING as u64 {
            // Mostly near producers, some far beyond the ring.
            let span = if next(8) == 0 {
                ids.len()
            } else {
                ids.len().min(20)
            } as u64;
            let dep = (span > 0).then(|| ids[ids.len() - 1 - next(span) as usize]);
            let id = match next(4) {
                0 => {
                    let ld = b.load(i * 8, 1, [dep, None]);
                    if next(6) == 0 {
                        forwarded.push(ld.0);
                    }
                    ld
                }
                1 => b.store(i * 8, i, 2, [dep, None]),
                _ => b.int_op(1, [dep, None]),
            };
            ids.push(id);
        }
        let t = b.build();
        assert!(!Capture::new(&t).far.is_empty());
        let deps = checked_deps(&t, &forwarded);
        assert!(deps.iter().filter(|&&d| d > 0).count() > 100);
    }

    #[test]
    fn loads_drop_store_payload() {
        let mut b = TraceBuilder::new();
        b.load_sized(0x40, 4, 1, [None, None]);
        let r = capture(&b.build(), &[], 1);
        assert!(matches!(
            r[0],
            TraceRecord::Load {
                pc: 1,
                vaddr: 0x40,
                dep: 0,
                ..
            }
        ));
    }

    #[test]
    fn stores_drop_dep_edges() {
        let mut b = TraceBuilder::new();
        let ld = b.load(0x40, 1, [None, None]);
        b.store(0x80, 7, 2, [Some(ld), None]);
        b.load(0xc0, 3, [Some(ld), None]);
        let r = capture(&b.build(), &[], 4);
        assert!(matches!(
            r[1],
            TraceRecord::Store {
                value: 7,
                size: 8,
                ..
            }
        ));
        assert!(matches!(r[2], TraceRecord::Load { dep: 1, .. }));
    }

    #[test]
    fn interleaves_configs_in_order() {
        let mut b = TraceBuilder::new();
        b.load(0x40, 1, [None, None]);
        b.config(ConfigOp::Enable(true));
        b.store(0x80, 7, 2, [None, None]);
        let t = b.build();
        let r = capture(&t, &[], 2);
        assert_eq!(r.len(), 3);
        assert!(matches!(r[1], TraceRecord::Config { .. }));
        assert!(r.windows(2).all(|w| w[0].cycle() <= w[1].cycle()));
        assert_eq!(
            r.capacity(),
            3,
            "reserved exactly for loads, stores and configs"
        );
    }

    #[test]
    #[should_panic(expected = "time order")]
    #[cfg(debug_assertions)]
    fn retiring_back_in_time_is_refused() {
        let mut b = TraceBuilder::new();
        b.load(0x40, 1, [None, None]);
        b.load(0x80, 1, [None, None]);
        let t = b.build();
        let mut cap = Capture::new(&t);
        cap.dispatch(0, &t.op(0), [None, None]);
        cap.dispatch(1, &t.op(1), [None, None]);
        cap.retire_load(5, &t.op(0), 0, false);
        cap.retire_load(4, &t.op(1), 0, false);
    }
}
