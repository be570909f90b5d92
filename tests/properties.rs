//! Property-based tests over the simulator's core invariants.

use etpp::cpu::{drive, Core, CoreParams, Limits, MicroOp, OpClass, OpId, TraceBuilder};
use etpp::isa::{run_kernel, EventCtx, Inst, Kernel};
use etpp::mem::cache::{Eviction, LookupResult};
use etpp::mem::mshr::Waiter;
use etpp::mem::tlb::Translation;
use etpp::mem::{
    Cache, CacheParams, CacheStats, ConfigOp, MemParams, MemoryImage, MemorySystem, MshrFile,
    MshrId, NullEngine, TlbHierarchy, TlbParams, TlbStats,
};
use etpp::trace::{content_hash, TraceMeta, TraceReader, TraceRecord, TraceWriter};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Cache invariants
// ---------------------------------------------------------------------------

proptest! {
    /// A line is present after fill until something else evicts it; lookups
    /// never spuriously report lines the cache was never given.
    #[test]
    fn cache_tracks_membership(addrs in proptest::collection::vec(0u64..1u64 << 20, 1..200)) {
        let mut cache = Cache::new(CacheParams { size: 4096, ways: 2, hit_latency: 1, mshrs: 4 });
        let mut resident: std::collections::HashSet<u64> = Default::default();
        for a in addrs {
            let line = a & !63;
            if let Some(ev) = cache.fill(line, false, false) {
                prop_assert!(resident.remove(&ev.line_addr), "evicted a line never filled");
            }
            resident.insert(line);
            prop_assert!(cache.contains(line));
        }
        // Everything the model thinks is resident must really be there.
        for &line in &resident {
            prop_assert!(cache.contains(line), "bookkeeping lost line {line:#x}");
        }
        prop_assert_eq!(cache.occupancy(), resident.len());
    }

    /// Prefetch accounting: used + unused never exceeds fills.
    #[test]
    fn prefetch_accounting_is_consistent(
        ops in proptest::collection::vec((0u64..1u64 << 14, any::<bool>()), 1..300)
    ) {
        let mut cache = Cache::new(CacheParams { size: 2048, ways: 2, hit_latency: 1, mshrs: 4 });
        for (a, is_pf) in ops {
            let line = a & !63;
            if is_pf {
                cache.fill(line, true, false);
            } else {
                cache.lookup_demand(line);
            }
        }
        let s = cache.stats;
        prop_assert!(s.prefetches_used + s.prefetches_unused <= s.prefetch_fills);
    }
}

// ---------------------------------------------------------------------------
// Differential oracles: the array-of-structs TLB, MSHR file and cache the
// flat per-slot structures in `etpp-mem` replaced, kept as reference models
// ---------------------------------------------------------------------------

/// One tag-store entry as all three structures used to keep it.
#[derive(Debug, Clone, Copy, Default)]
struct RefEntry {
    key: u64,
    valid: bool,
    lru: u64,
    dirty: bool,
    prefetched: bool,
}

/// Index of `key` among the valid entries.
fn ref_find(ways: &[RefEntry], key: u64) -> Option<usize> {
    ways.iter().position(|e| e.valid && e.key == key)
}

/// Victim choice shared by the TLB levels and the cache: the first
/// invalid entry, else the first minimum LRU stamp.
fn ref_victim(ways: &[RefEntry]) -> usize {
    ways.iter()
        .position(|e| !e.valid)
        .unwrap_or_else(|| (0..ways.len()).min_by_key(|&i| ways[i].lru).unwrap())
}

struct RefTlb {
    p: TlbParams,
    l1: Vec<RefEntry>,
    l2: Vec<RefEntry>,
    walkers: Vec<u64>,
    stamp: u64,
    stats: TlbStats,
}

impl RefTlb {
    fn translate(&mut self, now: u64, vaddr: u64, mapped: bool) -> Translation {
        let page = vaddr & !4095;
        self.stamp += 1;
        let fresh = RefEntry {
            key: page,
            valid: true,
            lru: self.stamp,
            ..Default::default()
        };
        if let Some(i) = ref_find(&self.l1, page) {
            self.l1[i].lru = self.stamp;
            self.stats.l1_hits += 1;
            return Translation::Ready { latency: 0 };
        }
        let set = (page >> 12) as usize & (self.p.l2_entries / self.p.l2_ways - 1);
        let ways = &mut self.l2[set * self.p.l2_ways..(set + 1) * self.p.l2_ways];
        if let Some(i) = ref_find(ways, page) {
            ways[i].lru = self.stamp;
            self.stats.l2_hits += 1;
        } else if !mapped {
            self.stats.faults += 1;
            return Translation::Fault;
        } else if let Some(w) = self.walkers.iter_mut().find(|w| **w <= now) {
            *w = now + self.p.walk_latency;
            self.stats.walks += 1;
            ways[ref_victim(ways)] = fresh;
            let v = ref_victim(&self.l1);
            self.l1[v] = fresh;
            return Translation::Ready {
                latency: self.p.l2_latency + self.p.walk_latency,
            };
        } else {
            self.stats.walker_busy += 1;
            return Translation::WalkerBusy;
        }
        let v = ref_victim(&self.l1);
        self.l1[v] = fresh;
        Translation::Ready {
            latency: self.p.l2_latency,
        }
    }
}

/// The old `MshrFile` entry: (line, valid, waiters, has_demand, dirty_on_fill).
type RefMshr = Vec<(u64, bool, Vec<Waiter>, bool, bool)>;

struct RefCache {
    ways: usize,
    sets: Vec<RefEntry>,
    stamp: u64,
    stats: CacheStats,
}

impl RefCache {
    fn set(&mut self, line: u64) -> &mut [RefEntry] {
        let set = (line / 64) as usize & (self.sets.len() / self.ways - 1);
        &mut self.sets[set * self.ways..(set + 1) * self.ways]
    }

    fn lookup_demand(&mut self, line: u64) -> LookupResult {
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = self.set(line);
        let Some(i) = ref_find(ways, line) else {
            return LookupResult::Miss;
        };
        ways[i].lru = stamp;
        let was_prefetched = std::mem::take(&mut ways[i].prefetched);
        self.stats.prefetches_used += was_prefetched as u64;
        LookupResult::Hit { was_prefetched }
    }

    fn fill(&mut self, line: u64, prefetched: bool, dirty: bool) -> Option<Eviction> {
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = self.set(line);
        if let Some(i) = ref_find(ways, line) {
            ways[i].lru = stamp;
            ways[i].dirty |= dirty;
            return None;
        }
        let v = &mut ways[ref_victim(ways)];
        let evicted = v.valid.then_some(Eviction {
            line_addr: v.key,
            dirty: v.dirty,
            unused_prefetch: v.prefetched,
        });
        *v = RefEntry {
            key: line,
            valid: true,
            lru: stamp,
            dirty,
            prefetched,
        };
        self.stats.prefetches_unused += evicted.is_some_and(|e| e.unused_prefetch) as u64;
        self.stats.prefetch_fills += prefetched as u64;
        evicted
    }

    fn invalidate(&mut self, line: u64) -> Option<Eviction> {
        let ways = self.set(line);
        let v = &mut ways[ref_find(ways, line)?];
        v.valid = false;
        Some(Eviction {
            line_addr: v.key,
            dirty: v.dirty,
            unused_prefetch: v.prefetched,
        })
    }
}

proptest! {
    /// The dense-array TLB gives the reference's result and statistics on
    /// every translation (L1 evictions, L2 set conflicts, faults, walker
    /// exhaustion), and asks whether the
    /// page is mapped only where the reference reads the answer.
    #[test]
    fn tlb_matches_the_array_of_structs_reference(
        ops in proptest::collection::vec((0u64..24, 0u64..4096, 0u64..40), 1..400)
    ) {
        let p = TlbParams { l1_entries: 4, l2_entries: 8, l2_ways: 2, l2_latency: 8, walkers: 2, walk_latency: 30 };
        let mut tlb = TlbHierarchy::new(p);
        let mut oracle = RefTlb {
            p,
            l1: vec![RefEntry::default(); p.l1_entries],
            l2: vec![RefEntry::default(); p.l2_entries],
            walkers: vec![0; p.walkers],
            stamp: 1,
            stats: TlbStats::default(),
        };
        let (mut now, mut asked) = (0, 0);
        for (page, offset, gap) in ops {
            now += gap;
            let (vaddr, mapped) = (page * 4096 + offset, page % 5 != 0);
            let got = tlb.translate_with(now, vaddr, || {
                asked += 1;
                mapped
            });
            prop_assert_eq!(got, oracle.translate(now, vaddr, mapped));
            prop_assert_eq!(tlb.stats, oracle.stats);
        }
        prop_assert_eq!(asked, tlb.stats.faults + tlb.stats.walks + tlb.stats.walker_busy);
    }

    /// The parallel-array MSHR file hands out the reference's ids (lowest
    /// free index), finds the same entries, tracks the same demand/dirty
    /// bits and releases the same waiters in attachment order.
    #[test]
    fn mshr_file_matches_the_array_of_structs_reference(
        ops in proptest::collection::vec((0u8..4, 0u64..6, any::<bool>()), 1..300)
    ) {
        let mut file = MshrFile::new(3);
        let mut oracle: RefMshr = vec![(0, false, Vec::new(), false, false); 3];
        let mut released = vec![Waiter::Demand(u64::MAX)];
        for (n, (op, k, demand)) in ops.into_iter().enumerate() {
            let line = k * 64;
            let found = oracle.iter().position(|e| e.1 && e.0 == line);
            prop_assert_eq!(file.find(line), found.map(MshrId));
            let waiter = if demand {
                Waiter::Demand(n as u64)
            } else {
                Waiter::Prefetch { vaddr: line + 8, tag: None, meta: n as u64 }
            };
            match (op, found) {
                (0 | 1, Some(i)) => {
                    file.merge(MshrId(i), waiter);
                    oracle[i].2.push(waiter);
                    oracle[i].3 |= demand;
                }
                (0 | 1, None) => {
                    let free = oracle.iter().position(|e| !e.1);
                    prop_assert_eq!(file.allocate(line, waiter), free.map(MshrId));
                    if let Some(i) = free {
                        oracle[i] = (line, true, vec![waiter], demand, false);
                    }
                }
                (2, Some(i)) => {
                    file.set_dirty_on_fill(MshrId(i));
                    oracle[i].4 = true;
                }
                (3, Some(i)) => {
                    prop_assert_eq!(file.line_addr(MshrId(i)), line);
                    prop_assert_eq!(file.has_demand(MshrId(i)), oracle[i].3);
                    prop_assert_eq!(file.dirty_on_fill(MshrId(i)), oracle[i].4);
                    file.release(MshrId(i), &mut released);
                    oracle[i].1 = false;
                    prop_assert_eq!(&released, &oracle[i].2);
                }
                _ => {}
            }
            prop_assert_eq!(file.free(), oracle.iter().filter(|e| !e.1).count());
        }
    }

    /// The dense-tag cache returns the reference's lookup results,
    /// evictions (same victim, also after invalidations) and statistics.
    #[test]
    fn cache_matches_the_array_of_structs_reference(
        ops in proptest::collection::vec((0u8..6, 0u64..24, any::<bool>(), any::<bool>()), 1..400)
    ) {
        let mut cache = Cache::new(CacheParams { size: 512, ways: 4, hit_latency: 1, mshrs: 4 });
        let mut oracle = RefCache {
            ways: 4,
            sets: vec![RefEntry::default(); 8],
            stamp: 1,
            stats: CacheStats::default(),
        };
        for (op, k, prefetched, dirty) in ops {
            let line = k * 64;
            match op {
                0 | 1 => prop_assert_eq!(cache.fill(line, prefetched, dirty), oracle.fill(line, prefetched, dirty)),
                2 | 3 => prop_assert_eq!(cache.lookup_demand(line), oracle.lookup_demand(line)),
                4 => prop_assert_eq!(cache.invalidate(line), oracle.invalidate(line)),
                _ => {
                    cache.mark_dirty(line);
                    let ways = oracle.set(line);
                    if let Some(i) = ref_find(ways, line) {
                        ways[i].dirty = true;
                    }
                }
            }
            prop_assert_eq!(cache.contains(line), ref_find(oracle.set(line), line).is_some());
            prop_assert_eq!(cache.stats, oracle.stats);
        }
        prop_assert_eq!(cache.occupancy(), oracle.sets.iter().filter(|e| e.valid).count());
    }
}

// ---------------------------------------------------------------------------
// Memory image
// ---------------------------------------------------------------------------

proptest! {
    /// Reads always return the last written value, at any alignment.
    #[test]
    fn image_read_after_write(
        writes in proptest::collection::vec((0u64..1 << 16, any::<u64>()), 1..100)
    ) {
        let mut img = MemoryImage::new();
        let base = img.alloc(1 << 17, 4096);
        let mut last_write: std::collections::HashMap<u64, (usize, u64)> = Default::default();
        for (i, (off, val)) in writes.iter().enumerate() {
            img.write_u64(base + off, *val);
            last_write.insert(*off, (i, *val));
        }
        // Verify offsets whose 8-byte windows were not clobbered by a later
        // write to an overlapping offset.
        for (&off, &(idx, val)) in &last_write {
            let clobbered = last_write
                .iter()
                .any(|(&o, &(i, _))| o != off && o.abs_diff(off) < 8 && i > idx);
            if !clobbered {
                prop_assert_eq!(img.read_u64(base + off), val);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// PPU interpreter
// ---------------------------------------------------------------------------

fn arb_inst() -> impl Strategy<Value = Inst> {
    let r = 0u8..16;
    prop_oneof![
        (r.clone(), any::<u64>()).prop_map(|(rd, imm)| Inst::Li { rd, imm }),
        (r.clone(), r.clone(), r.clone()).prop_map(|(rd, ra, rb)| Inst::Add { rd, ra, rb }),
        (r.clone(), r.clone(), r.clone()).prop_map(|(rd, ra, rb)| Inst::Xor { rd, ra, rb }),
        (r.clone(), r.clone(), any::<i64>()).prop_map(|(rd, ra, imm)| Inst::AddI { rd, ra, imm }),
        (r.clone(), r.clone(), 0u8..64).prop_map(|(rd, ra, sh)| Inst::ShlI { rd, ra, sh }),
        (r.clone(), r.clone(), 0u8..64).prop_map(|(rd, ra, sh)| Inst::ShrI { rd, ra, sh }),
        (r.clone()).prop_map(|rd| Inst::LdVaddr { rd }),
        (r.clone(), r.clone()).prop_map(|(rd, roff)| Inst::LdData { rd, roff }),
        (r.clone(), 0u8..32).prop_map(|(rd, idx)| Inst::LdGlobal { rd, idx }),
        (r.clone()).prop_map(|ra| Inst::Prefetch { ra }),
        (r.clone(), r.clone(), 0u16..40).prop_map(|(ra, rb, target)| Inst::Beq { ra, rb, target }),
        (0u16..40).prop_map(|target| Inst::Jmp { target }),
        Just(Inst::Halt),
    ]
}

struct CountCtx(u64);
impl EventCtx for CountCtx {
    fn vaddr(&self) -> u64 {
        0x4040
    }
    fn line_word(&self, _off: u8) -> u64 {
        0x1234
    }
    fn global(&self, idx: u8) -> u64 {
        idx as u64 * 1000
    }
    fn ewma_lookahead(&self, _range: u16) -> u64 {
        8
    }
    fn prefetch(&mut self, _v: u64, _t: Option<u16>, _i: u64) {
        self.0 += 1;
    }
}

proptest! {
    /// The interpreter never runs away, never panics, and its instruction
    /// count is bounded by the budget on arbitrary (even nonsense) kernels.
    #[test]
    fn interpreter_is_total(insts in proptest::collection::vec(arb_inst(), 0..40)) {
        let kernel = Kernel { name: "fuzz".into(), insts };
        let mut ctx = CountCtx(0);
        let out = run_kernel(&kernel, &mut ctx, 256);
        prop_assert!(out.insts <= 256);
        prop_assert_eq!(out.prefetches, ctx.0);
    }
}

// ---------------------------------------------------------------------------
// Core + memory: random dependency DAGs always drain
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Any well-formed trace (deps point backwards) finishes, retires every
    /// op exactly once, and committed stores reach the image.
    #[test]
    fn random_traces_always_finish(
        ops in proptest::collection::vec((0u8..5, 0u64..1 << 14, 1u32..8), 1..150)
    ) {
        let mut img = MemoryImage::new();
        let base = img.alloc(1 << 15, 4096);
        let mut b = TraceBuilder::new();
        let mut emitted = Vec::new();
        let mut stored = std::collections::HashMap::new();
        for (i, (kind, addr, dep_back)) in ops.iter().enumerate() {
            let dep = if i > 0 {
                Some(emitted[i.saturating_sub(*dep_back as usize).min(i - 1)])
            } else {
                None
            };
            let a = base + (addr & !7);
            let id = match kind {
                0 => b.load(a, 1, [dep, None]),
                1 => {
                    stored.insert(a, i as u64);
                    b.store(a, i as u64, 2, [dep, None])
                }
                2 => b.int_op(1, [dep, None]),
                3 => b.branch(3, i % 3 == 0, [dep, None]),
                _ => b.swpf(a, 4, [dep, None]),
            };
            emitted.push(id);
        }
        let n = ops.len() as u64;
        let trace = b.build();
        let mut mem = MemorySystem::new(MemParams::paper(), img);
        let mut core = Core::new(CoreParams::paper(), &trace);
        let limits = Limits {
            workload: "random trace",
            mode: "none",
            max_cycles: 2_000_000,
            per_cycle_reference: false,
            deadline: None,
        };
        drive(&mut core, &mut mem, &mut NullEngine, &limits, &mut ());
        prop_assert_eq!(core.stats.insts_retired, n);
        for (a, v) in stored {
            // The trace's final store to `a` is the max index — we recorded
            // last-write-wins into the map as we built it.
            prop_assert_eq!(mem.image().read_u64(a), v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// However far back a producer sits — a few ops, either side of the
    /// one-byte escape boundary, or thousands — `Trace::deps` decodes
    /// exactly the edges the builder was given, in operand order, and
    /// every escaped edge costs 8 bytes in `Trace::bytes`.
    #[test]
    fn decoded_edges_equal_the_built_edges(
        ops in proptest::collection::vec(((0u8..4, 0u32..3000), (0u8..4, 0u32..3000)), 1..1500)
    ) {
        let mut b = TraceBuilder::new();
        let mut built = Vec::with_capacity(ops.len());
        let mut escaped = 0;
        for (i, &operands) in ops.iter().enumerate() {
            let i = i as u32;
            let [x, y] = [operands.0, operands.1].map(|(kind, r)| {
                let back = match kind {
                    0 => return None,
                    1 => 1 + r % 8,
                    2 => 250 + r % 10,
                    _ => 1 + r,
                };
                (i > 0).then(|| OpId(i - back.min(i)))
            });
            let deps = [x, y];
            escaped += deps.iter().flatten().filter(|p| i - p.0 >= 255).count();
            if i.is_multiple_of(3) {
                b.load(u64::from(i) * 8, 1, deps);
            } else {
                b.int_op(1, deps);
            }
            built.push(deps);
        }
        let t = b.build();
        for (i, deps) in built.iter().enumerate() {
            prop_assert_eq!(t.deps(i as u32), *deps);
        }
        // 8 bytes per op, per kind (the load's and the int op's) and per
        // escaped edge.
        let kinds = ops.len().min(2);
        prop_assert_eq!(t.bytes(), t.len() * 8 + kinds * 8 + escaped * 8);
    }
}

/// Emits one op of class `class` (0–7, in `OpClass` order) through its
/// builder call and returns what that op must decode to: the call for
/// each class fixes the fields the class does not take (an ALU op has
/// no address or PC, a store's size is 1, 4 or 8, a branch's aux is its
/// taken bit, a config op's address is its side-table index).
fn emit_op(
    b: &mut TraceBuilder,
    (class, aux, pc): (u8, u8, u32),
    addr: u64,
    deps: [Option<OpId>; 2],
    configs: &mut u64,
) -> (OpId, MicroOp) {
    let op = |class, addr, pc, aux| MicroOp {
        addr,
        pc,
        class,
        aux,
    };
    match class {
        0 => (b.int_op(aux, deps), op(OpClass::Int, 0, 0, aux)),
        1 => (b.fp_op(aux, deps), op(OpClass::Fp, 0, 0, aux)),
        2 => (b.muldiv(aux, deps), op(OpClass::MulDiv, 0, 0, aux)),
        3 => (
            b.load_sized(addr, aux, pc, deps),
            op(OpClass::Load, addr, pc, aux),
        ),
        4 => {
            let size = [1, 4, 8][usize::from(aux % 3)];
            let id = b.store_sized(addr, !addr, size, pc, deps);
            (id, op(OpClass::Store, addr, pc, size))
        }
        5 => (b.swpf(addr, pc, deps), op(OpClass::Swpf, addr, pc, 0)),
        6 => (
            b.branch(pc, aux & 1 == 1, deps),
            op(OpClass::Branch, 0, pc, aux & 1),
        ),
        _ => {
            let id = b.config(ConfigOp::SetGlobal {
                idx: aux,
                value: addr,
            });
            *configs += 1;
            (id, op(OpClass::Config, *configs - 1, 0, 0))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// A packed op decodes to exactly what was emitted: every class, aux
    /// 0–255, PCs up to 2^20, addresses from 0 to 2^40 − 1, edges a few
    /// ops back, either side of the escape boundary and thousands back,
    /// and up to the kind table's full 256 distinct `(class, aux, pc)`
    /// triples (ops draw their triple from a palette of at most 256).
    #[test]
    fn packed_ops_decode_to_exactly_what_was_emitted(
        palette in proptest::collection::vec((0u8..8, any::<u8>(), 0u32..1 << 20), 1..257),
        raw in proptest::collection::vec(
            (0usize..256, (0u8..3, 0u64..1 << 40), ((0u8..4, 0u32..3000), (0u8..4, 0u32..3000))),
            1..1200,
        )
    ) {
        let mut b = TraceBuilder::new();
        let mut emitted = Vec::with_capacity(raw.len());
        let mut configs = 0;
        for (i, &(pick, (sel, addr), (x, y))) in raw.iter().enumerate() {
            let i = i as u32;
            let kind = palette[pick % palette.len()];
            let addr = match sel {
                0 => 0,
                1 => (1 << 40) - 1,
                _ => addr,
            };
            let deps = if kind.0 == 7 {
                [None, None]
            } else {
                [x, y].map(|(sel, r)| {
                    let back = match sel {
                        0 => return None,
                        1 => 1 + r % 8,
                        2 => 250 + r % 10,
                        _ => 1 + r,
                    };
                    (i > 0).then(|| OpId(i - back.min(i)))
                })
            };
            let (id, op) = emit_op(&mut b, kind, addr, deps, &mut configs);
            prop_assert_eq!(id, OpId(i));
            emitted.push((op, deps));
        }
        let t = b.build();
        prop_assert_eq!(t.len(), emitted.len());
        prop_assert_eq!(t.configs.len() as u64, configs);
        for (i, (decoded, &(op, deps))) in t.ops().zip(&emitted).enumerate() {
            prop_assert_eq!(decoded, op);
            prop_assert_eq!(t.op(i as u32), op);
            prop_assert_eq!(t.deps(i as u32), deps);
        }
        let stores: Vec<u64> = emitted
            .iter()
            .filter(|(op, _)| op.class == OpClass::Store)
            .map(|(op, _)| !op.addr)
            .collect();
        prop_assert_eq!(&t.store_values, &stores);
    }
}

// ---------------------------------------------------------------------------
// Trace format: dependence-annotated streams round-trip exactly
// ---------------------------------------------------------------------------

/// Raw generator output folded into a well-formed v2 record stream:
/// cycles non-decreasing, loads carrying dependence distances (far
/// beyond real ROB bounds too), stores carrying payloads but no edges.
/// Raw v2 generator output: `((dcycle, pc, vaddr), (selector, value, dep))`.
type RawV2 = ((u64, u32, u64), (u8, u64, u32));

fn materialise_v2(raw: Vec<RawV2>) -> Vec<TraceRecord> {
    let mut cycle = 0u64;
    let mut out = Vec::with_capacity(raw.len());
    for ((dcycle, pc, vaddr), (sel, value, dep)) in raw {
        cycle += dcycle;
        out.push(if sel % 4 == 0 {
            TraceRecord::Store {
                cycle,
                pc,
                vaddr,
                value,
                size: [1u8, 4, 8][sel as usize % 3],
            }
        } else {
            TraceRecord::Load {
                cycle,
                pc,
                vaddr,
                dep,
            }
        });
    }
    out
}

proptest! {
    /// Arbitrary dependence-annotated streams survive the encoding
    /// bit-identically: write → read is the identity (edges included),
    /// re-encoding is byte-stable, and the content hash agrees between
    /// writer, reader and the standalone hasher.
    #[test]
    fn v2_streams_roundtrip_with_dependence_edges(
        raw in proptest::collection::vec(
            ((0u64..10_000, any::<u32>(), any::<u64>()), (0u8..8, any::<u64>(), 0u32..5_000)),
            0..300,
        )
    ) {
        let records = materialise_v2(raw);
        let meta = TraceMeta::new("prop-v2", "tiny").with_capture_cycles(records.len() as u64);

        let write = || {
            let mut buf = Vec::new();
            let mut w = TraceWriter::new(&mut buf, &meta).unwrap();
            for r in &records {
                w.record(r).unwrap();
            }
            let (_, hash) = w.finish().unwrap();
            (buf, hash)
        };
        let (bytes, written_hash) = write();
        prop_assert_eq!(write().0, bytes.clone(), "encoding must be deterministic");
        prop_assert_eq!(written_hash, content_hash(&records));

        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        prop_assert_eq!(reader.meta(), &meta);
        let back = reader.read_to_end().unwrap();
        prop_assert_eq!(back.records, records);
        prop_assert_eq!(&back.meta, &meta);
    }
}

// ---------------------------------------------------------------------------
// Corruption tolerance: damaged streams error, they never panic or lie
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// A corrupted byte stream must surface as a reader error, never a
    /// panic and never different records. The footer hash covers the
    /// header and every record byte, so *every* one-byte flip is an
    /// `Err`; a truncated tail is an `Err` too, except the no-op
    /// truncation (`keep == len`), which must read back clean.
    #[test]
    fn corrupted_streams_error_instead_of_panicking(
        raw in proptest::collection::vec(
            ((0u64..10_000, any::<u32>(), any::<u64>()), (0u8..8, any::<u64>(), 0u32..5_000)),
            0..120,
        ),
        at in any::<u64>(),
        mask in 0u8..255,
        truncate in any::<bool>(),
    ) {
        let records = materialise_v2(raw);
        let meta = TraceMeta::new("prop-corrupt", "tiny").with_capture_cycles(records.len() as u64);
        let mut bytes = Vec::new();
        let mut w = TraceWriter::new(&mut bytes, &meta).unwrap();
        for r in &records {
            w.record(r).unwrap();
        }
        w.finish().unwrap();

        if truncate {
            let keep = (at % (bytes.len() as u64 + 1)) as usize;
            bytes.truncate(keep);
        } else {
            let i = (at % bytes.len() as u64) as usize;
            bytes[i] ^= mask + 1; // mask+1 in 1..=255: always a real change
        }

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match TraceReader::new(bytes.as_slice()) {
                Ok(r) => r.read_to_end().map(|b| b.records).map_err(|e| e.to_string()),
                Err(e) => Err(e.to_string()),
            }
        }));
        let read = match outcome {
            Ok(r) => r,
            Err(_) => panic!(
                "decoder panicked on corrupt input (truncate {truncate}, at {at}, mask {mask})"
            ),
        };
        if truncate {
            if let Ok(back) = read {
                prop_assert_eq!(back, records, "truncation silently changed the stream");
            }
        } else {
            prop_assert!(read.is_err(), "a flipped byte read back as a valid trace");
        }
    }
}

// ---------------------------------------------------------------------------
// Sweep-farm storage: the row codec and its readers never panic
// ---------------------------------------------------------------------------

use etpp::sim::faults::{FailureClass, FailureRecord, Journal};
use etpp::sim::rows::{seal, unseal, Row, RowWriter};
use etpp::sim::sweeps::{self, CellData, CellPath, CellResult, ShardRun, WorkloadBaseline};
use etpp::sim::PrefetchMode;

/// Any code points at all, weighted towards the ones a codec gets
/// wrong: quotes, backslashes, control characters, separators.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u8..4, any::<u32>()), 0..40).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(kind, x)| match kind {
                0 => b"\"\\\n\t\r|{}[],: u/"[x as usize % 15] as char,
                1 => char::from_u32(x % 0x20).unwrap(),
                2 => char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}'),
                _ => (b'a' + (x % 26) as u8) as char,
            })
            .collect()
    })
}

/// A small but fully populated shard: two baselines (one without a
/// reference), a replayed, a skipped and a failed cell, one quarantine.
fn probe_shard(error: &str) -> ShardRun {
    let cell = |index, path, cycles, speedup| CellResult {
        index,
        workload: "IntSort",
        mode: PrefetchMode::Manual,
        settings: vec![("obs_queue", 10), ("pf_buffer", 16)],
        path,
        cycles,
        host_iters: cycles / 7,
        dep_stalls: 3,
        validated: path != CellPath::Failed,
        speedup,
        cached: index == 1,
    };
    let baseline = |workload: &str, agreement| WorkloadBaseline {
        workload: workload.to_string(),
        replay_cycles: 1000,
        capture_cycles: 1100,
        agreement,
        escalate: false,
        reference_cycles: 1000,
    };
    ShardRun {
        sweep: "probe",
        scale: "tiny".into(),
        trace_format: 2,
        shard: (0, 1),
        total_jobs: 3,
        traces: vec![0x1234, 0x5678],
        baselines: vec![
            baseline("IntSort", Some(1000.0 / 1100.0)),
            baseline("HJ-8", None),
        ],
        cells: vec![
            cell(0, CellPath::Replay, 500, Some(2.0)),
            cell(1, CellPath::Skip, 0, None),
            cell(2, CellPath::Failed, 0, None),
        ],
        failures: vec![FailureRecord {
            index: Some(2),
            workload: "IntSort".into(),
            mode: "manual".into(),
            settings: "obs_queue=10 pf_buffer=16".into(),
            config_hash: 0xfeed,
            class: FailureClass::Livelock,
            attempts: 2,
            error: error.to_string(),
        }],
        registry: etpp_telemetry::Registry::new(),
    }
}

/// What a shard file's rows say, for "is this the same row" checks.
fn shard_rows(f: &sweeps::ShardFile) -> (Vec<String>, Vec<WorkloadBaseline>, Vec<FailureRecord>) {
    let cells = f.cells.iter().map(|c| format!("{c:?}")).collect();
    (cells, f.baselines.clone(), f.failures.clone())
}

/// A journal file with a header and four entries, and the entries.
fn probe_journal(path: &std::path::Path, texts: &[String]) -> Vec<String> {
    let entries: Vec<String> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut line = String::new();
            let mut w = RowWriter::open(&mut line);
            w.str("kind", "cell").raw("index", i).str("error", t);
            w.close();
            line
        })
        .collect();
    let mut j = Journal::create(path, "HDR").unwrap();
    for e in &entries {
        j.append(e, true).unwrap();
    }
    entries
}

/// One result-cache row: its `(trace hash, config hash)` key and payload.
type KeyedRow = ((u64, u64), CellData);

/// A result-cache log of three keyed rows, and the rows.
fn probe_cache_log(cycles: u64, at: u64) -> (Vec<u8>, Vec<KeyedRow>) {
    let rows: Vec<KeyedRow> = [CellPath::Cycle, CellPath::Replay, CellPath::Skip]
        .into_iter()
        .enumerate()
        .map(|(i, path)| {
            let d = CellData {
                path,
                cycles: cycles.wrapping_add(i as u64),
                host_iters: cycles / 3,
                dep_stalls: at,
                validated: i % 2 == 0,
            };
            ((at ^ i as u64, cycles.rotate_left(i as u32)), d)
        })
        .collect();
    let log = rows
        .iter()
        .map(|(k, d)| d.to_record(*k))
        .collect::<String>();
    (log.into_bytes(), rows)
}

/// What a run serves from a cache log: every line that reads back as a
/// whole keyed row.
fn served(log: &[u8]) -> Vec<KeyedRow> {
    (log.split_inclusive(|&b| b == b'\n'))
        .filter_map(CellData::from_record)
        .collect()
}

/// Flips one byte (`mask + 1` is in `1..=255`, always a real change).
fn flipped(bytes: &[u8], at: u64, mask: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let i = (at % out.len() as u64) as usize;
    out[i] ^= mask + 1;
    out
}

fn scratch_file(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("etpp-props-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("journal.jsonl")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// Any string survives writer → reader (and the integrity frame)
    /// byte for byte, as a value next to other fields and nested.
    #[test]
    fn any_string_survives_the_row_codec(text in arb_text(), other in arb_text(), n in any::<u64>()) {
        let mut line = String::new();
        let mut w = RowWriter::open(&mut line);
        w.raw("n", n)
            .str("text", &text)
            .nested("inner", |i| {
                i.str("other", &other);
            })
            .str("tail", &other);
        w.close();
        prop_assert!(!line.contains('\n'), "rows are single lines: {line:?}");
        let sealed = seal(&line);
        prop_assert_eq!(unseal(&sealed), Some(line.as_str()));
        let row = Row::parse(&line).expect("own row parses");
        prop_assert_eq!(row.get::<u64>("n"), Ok(n));
        prop_assert_eq!(row.str("text").as_deref(), Ok(text.as_str()));
        prop_assert_eq!(row.str("tail").as_deref(), Ok(other.as_str()));
        let inner = Row::parse(row.nested("inner").unwrap()).expect("nested row parses");
        prop_assert_eq!(inner.str("other").as_deref(), Ok(other.as_str()));

        // The same text through the one place a failure row is written:
        // nested in its job's row of the shard log.
        let run = probe_shard(&text);
        let back = sweeps::parse_shard(&run.to_json()).expect("own shard parses");
        prop_assert_eq!(&back.failures, &run.failures);
    }

    /// The three readers take arbitrary bytes and single-byte flips of
    /// valid files without panicking, and what they do accept is a row
    /// that was written: the cache log serves written rows only, and a
    /// flip costs at most the rows of the line it lands in (two, when it
    /// breaks a newline); the shard log refuses any flip; resume keeps a
    /// prefix.
    #[test]
    fn storage_readers_never_panic_or_invent_rows(
        junk in proptest::collection::vec(any::<u8>(), 0..300),
        texts in proptest::collection::vec(arb_text(), 4..5),
        cycles in any::<u64>(),
        at in any::<u64>(),
        mask in 0u8..255,
    ) {
        // Cache log.
        let (log, rows) = probe_cache_log(cycles, at);
        prop_assert_eq!(&served(&log), &rows);
        prop_assert!(served(&junk).is_empty(), "junk served a row");
        let got = served(&flipped(&log, at, mask));
        prop_assert!(got.iter().all(|r| rows.contains(r)), "flip invented {got:?}");
        prop_assert!(got.len() + 2 >= rows.len(), "a flip cost {} rows", rows.len() - got.len());

        // Shard log: every line sealed, so junk and every single-byte
        // flip are errors — never a silently different table.
        let shard = probe_shard(&texts[0]).to_json();
        prop_assert!(sweeps::parse_shard(&String::from_utf8_lossy(&junk)).is_err());
        let flip = String::from_utf8_lossy(&flipped(shard.as_bytes(), at, mask)).into_owned();
        prop_assert!(sweeps::parse_shard(&flip).is_err(), "a flip read back: {:?}", flip);

        // Journal.
        let path = scratch_file("fuzz");
        let entries = probe_journal(&path, &texts);
        let intact = std::fs::read(&path).unwrap();
        std::fs::write(&path, flipped(&intact, at, mask)).unwrap();
        let (_, kept) = Journal::resume(&path, "HDR").unwrap();
        prop_assert!(entries.starts_with(&kept), "flip invented an entry: {kept:?}");
        // Whatever survived is what the file now holds.
        let (_, again) = Journal::resume(&path, "HDR").unwrap();
        prop_assert_eq!(&again, &kept);
        std::fs::write(&path, &junk).unwrap();
        let (_, kept) = Journal::resume(&path, "HDR").unwrap();
        prop_assert!(kept.is_empty(), "junk donated {kept:?}");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}

/// Every truncation length of a valid cache log, shard file and
/// journal: the sealed readers return a prefix of whole rows (cache log,
/// journal); the shard reader returns an error or a prefix of the rows.
#[test]
fn every_truncation_of_a_valid_file_reads_as_a_prefix_or_nothing() {
    let (log, rows) = probe_cache_log(123_456, 42);
    for cut in 0..=log.len() {
        let whole_lines = log[..cut].iter().filter(|&&b| b == b'\n').count();
        assert_eq!(served(&log[..cut]), rows[..whole_lines], "cut {cut}");
    }

    let shard = probe_shard("a \"quoted\" \\ line\nbreak é").to_json();
    let whole = shard_rows(&sweeps::parse_shard(&shard).unwrap());
    for cut in (0..shard.len()).filter(|&c| shard.is_char_boundary(c)) {
        if let Ok(f) = sweeps::parse_shard(&shard[..cut]) {
            let part = shard_rows(&f);
            assert!(
                whole.0.starts_with(&part.0)
                    && whole.1.starts_with(&part.1)
                    && whole.2.starts_with(&part.2),
                "cut {cut} read rows that were never written"
            );
        }
    }

    let path = scratch_file("truncate");
    let texts: Vec<String> = ["plain", "a|b", "q\"uote", "new\nline"]
        .map(String::from)
        .to_vec();
    let entries = probe_journal(&path, &texts);
    let intact = std::fs::read(&path).unwrap();
    let header_len = seal("HDR").len();
    for cut in 0..=intact.len() {
        std::fs::write(&path, &intact[..cut]).unwrap();
        let (_, kept) = Journal::resume(&path, "HDR").unwrap();
        assert!(entries.starts_with(&kept), "cut {cut}");
        // Exactly the whole lines before the cut survive, and the torn
        // tail is gone from the file.
        let whole_lines = intact[..cut].iter().filter(|&&b| b == b'\n').count();
        assert_eq!(kept.len(), whole_lines.saturating_sub(1), "cut {cut}");
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        let expect = if whole_lines == 0 {
            header_len
        } else {
            intact[..cut].iter().rposition(|&b| b == b'\n').unwrap() + 1
        };
        assert_eq!(len, expect, "cut {cut}");
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

// ---------------------------------------------------------------------------
// PC-delta accuracy table (engine zoo)
// ---------------------------------------------------------------------------

proptest! {
    /// Virtual-training bookkeeping stays sane under arbitrary observation
    /// sequences: every reported accuracy lies in [0, 1], and the
    /// threshold extremes behave as the engine's issue logic assumes —
    /// a 1.0 threshold admits nothing (the strict `>` can never pass)
    /// while a 0.0 threshold admits every tracked slot (accuracies are
    /// kept strictly positive by round-up halving, so `> 0.0` always
    /// passes once a slot exists).
    #[test]
    fn accuracy_table_invariants(
        obs in proptest::collection::vec((0u32..64, -4096i64..4096), 1..400)
    ) {
        let mut t = etpp::baselines::AccuracyTable::new(16, 4);
        for &(pc, delta) in &obs {
            t.observe(pc, delta);
            if let Some(a) = t.accuracy(pc, delta) {
                prop_assert!((0.0..=1.0).contains(&a), "accuracy {a} out of range");
            }
        }
        for &(pc, _) in &obs {
            for d in t.candidates(pc, 0.0, 0) {
                let a = t.accuracy(pc, d).expect("candidate must be tracked");
                prop_assert!((0.0..=1.0).contains(&a));
            }
            prop_assert!(
                t.candidates(pc, 1.0, 0).next().is_none(),
                "threshold 1.0 must admit nothing"
            );
            prop_assert_eq!(
                t.candidates(pc, 0.0, 0).count(),
                t.tracked(pc),
                "threshold 0.0 must admit every tracked slot"
            );
        }
    }

    /// Slot and PC-entry eviction never panics and never leaks capacity:
    /// a deliberately tiny table flooded with far more distinct PCs and
    /// deltas than it can hold stays within its configured bounds.
    #[test]
    fn accuracy_table_eviction_respects_capacity(
        obs in proptest::collection::vec((0u32..1024, -(1i64 << 20)..(1 << 20)), 1..600)
    ) {
        let mut t = etpp::baselines::AccuracyTable::new(4, 2);
        for &(pc, delta) in &obs {
            t.observe(pc, delta);
        }
        for pc in 0u32..1024 {
            prop_assert!(t.tracked(pc) <= 2, "pc {pc} holds more than delta_slots");
        }
    }
}

/// `tests/data/golden_v1.etpt` is a real file a format-v1 build wrote:
/// outside input this build no longer reads. It must be refused by
/// name, and a trace cache that holds it must discard and recapture —
/// the same path as any corrupt cache file — not panic.
#[test]
fn golden_v1_fixture_is_refused_by_name() {
    use etpp::sim::replay::{trace_path, try_load_or_capture_keyed, CaptureSource};
    let bytes: &[u8] = include_bytes!("data/golden_v1.etpt");
    let Err(err) = TraceReader::new(bytes) else {
        panic!("a v1 header must be refused");
    };
    assert!(
        err.to_string().contains("unsupported trace version 1"),
        "{err}"
    );

    let wl = etpp::workloads::workload_by_name("RandAcc")
        .unwrap()
        .build(etpp::workloads::Scale::Tiny);
    let cfg = etpp::sim::SystemConfig::paper();
    let dir = std::env::temp_dir().join(format!("etpp-golden-v1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = trace_path(&dir, &wl, "tiny");
    std::fs::write(&path, bytes).unwrap();
    let cap = try_load_or_capture_keyed(Some(&dir), &cfg, &wl, "tiny", etpp::trace::FORMAT_VERSION)
        .expect("a refused cache file falls through to a fresh capture");
    assert_eq!(cap.source, CaptureSource::Recaptured);
    let reread = TraceReader::new(std::fs::File::open(&path).unwrap())
        .and_then(|r| r.read_to_end())
        .expect("the recapture replaces the refused file");
    assert_eq!(reread.records, cap.trace.records);
    let _ = std::fs::remove_dir_all(&dir);
}
