//! Micro-op traces: the programs the simulated core executes.
//!
//! A trace is generated by running the *real* algorithm against the
//! simulated memory image and recording, per dynamic instruction:
//!
//! * its class (integer/FP/multiply ALU op, load, store, software prefetch,
//!   branch, prefetcher-configuration),
//! * its virtual address where applicable,
//! * its branch outcome where applicable, and
//! * up to two *register dependencies* on earlier trace entries.
//!
//! A stored op is 8 bytes: one `u64` packing its two dependence bytes,
//! an 8-bit index into the trace's table of distinct `(class, aux, pc)`
//! triples, and a 40-bit `addr`. A trace has only a handful of static
//! instructions, so each op's class, latency/size/taken bit and PC are
//! kept once in that table (at most 256 entries); [`Trace::op`] decodes
//! an op back into a [`MicroOp`] by value. Store data lives beside the
//! ops in [`Trace::store_values`], one entry per store in program order,
//! because most ops carry none; a consumer walks it with a running store
//! index. Each dependence is one byte: how many ops back its producer
//! sits. Almost every producer is a few ops back; the rare one 255 or
//! more ops back is *escaped* and kept exactly in a side table of
//! `(op index, producer index)` pairs. [`Trace::deps`] is the one
//! decoder, and it returns exactly the edges the builder was given.
//!
//! Dependencies are what give the trace its timing semantics: a load whose
//! address comes from another load (pointer chasing) depends on it and
//! cannot issue until it completes, while independent iterations overlap up
//! to the ROB/LQ/MSHR limits — the memory-level parallelism the paper's
//! prefetcher is designed to exploit where the core alone cannot.

use etpp_mem::ConfigOp;

/// Handle to an emitted trace entry, used to express dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

/// Execution class of a micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Simple integer ALU op (latency in `aux`).
    Int,
    /// Floating-point op (latency in `aux`).
    Fp,
    /// Multiply/divide (latency in `aux`, single shared unit).
    MulDiv,
    /// Memory load (`addr`; size in `aux`).
    Load,
    /// Memory store (`addr`; size in `aux`; data in
    /// [`Trace::store_values`]).
    Store,
    /// Software prefetch instruction (`addr`). Non-binding.
    Swpf,
    /// Conditional branch; `aux != 0` means taken, `addr` is the target PC.
    Branch,
    /// Prefetcher configuration instruction; `addr` indexes
    /// [`Trace::configs`].
    Config,
}

/// One dynamic micro-operation, as [`Trace::op`] decodes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Virtual address (memory ops), branch target (branches) or
    /// [`Trace::configs`] index (config ops).
    pub addr: u64,
    /// Static program counter (drives the branch predictor and the
    /// PC-indexed prefetcher baselines).
    pub pc: u32,
    /// Class.
    pub class: OpClass,
    /// Latency, size, or taken-bit depending on class.
    pub aux: u8,
}

/// The fields an op shares with every other dynamic instance of the
/// same static instruction: one entry of a trace's kind table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpKind {
    pc: u32,
    class: OpClass,
    aux: u8,
}

/// One op as a trace stores it. Bits 0–15: the two dependence operands
/// as back-distances (0 = none, `1..=254` = the producer is that many
/// ops earlier, [`PackedOp::ESCAPED`] = the producer is in the trace's
/// far-edge table). Bits 16–23: index into the trace's kind table.
/// Bits 24–63: `addr`. Only [`TraceBuilder`] writes it; only
/// [`Trace::op`] and [`Trace::deps`] read it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedOp(u64);

const _: () = assert!(std::mem::size_of::<PackedOp>() == 8);

impl PackedOp {
    /// The back-distance byte of an operand whose producer is this many
    /// ops back or more: an escaped edge, kept exactly in the trace's
    /// far-edge table.
    pub(crate) const ESCAPED: u8 = u8::MAX;
    /// Width of the stored `addr`.
    const ADDR_BITS: u32 = 40;
    /// Most distinct `(class, aux, pc)` triples one trace can hold.
    const KINDS: usize = 1 << 8;

    fn new(back: [u8; 2], kind: u8, addr: u64) -> Self {
        PackedOp(u64::from(back[0]) | u64::from(back[1]) << 8 | u64::from(kind) << 16 | addr << 24)
    }

    #[inline]
    fn back(self) -> [u8; 2] {
        [self.0 as u8, (self.0 >> 8) as u8]
    }

    #[inline]
    fn kind(self) -> usize {
        usize::from((self.0 >> 16) as u8)
    }

    #[inline]
    fn addr(self) -> u64 {
        self.0 >> 24
    }
}

/// A complete program trace plus its side tables.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The dynamic micro-ops in program order, packed.
    ops: Vec<PackedOp>,
    /// The distinct `(class, aux, pc)` triples the ops index, in order
    /// of first use.
    kinds: Vec<OpKind>,
    /// Data of each `Store` op, in program order: the `k`-th store in
    /// the trace writes `store_values[k]`.
    pub store_values: Vec<u64>,
    /// Prefetcher configuration operations referenced by `Config` ops.
    pub configs: Vec<ConfigOp>,
    /// `(op index, producer index)` of every escaped dependence, in
    /// program order (an op's two operands in operand order).
    pub(crate) far: Vec<(u32, u32)>,
}

impl Trace {
    /// Number of dynamic micro-ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Heap bytes the micro-ops, their kind table, store data and far
    /// edges occupy.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.ops.as_slice())
            + std::mem::size_of_val(self.kinds.as_slice())
            + std::mem::size_of_val(self.store_values.as_slice())
            + std::mem::size_of_val(self.far.as_slice())
    }

    /// Op `idx`, decoded: exactly the fields its [`TraceBuilder`] call
    /// emitted.
    #[inline]
    pub fn op(&self, idx: u32) -> MicroOp {
        let op = self.ops[idx as usize];
        let OpKind { pc, class, aux } = self.kinds[op.kind()];
        MicroOp {
            addr: op.addr(),
            pc,
            class,
            aux,
        }
    }

    /// Every op in program order, decoded as by [`Trace::op`].
    pub fn ops(&self) -> impl ExactSizeIterator<Item = MicroOp> + '_ {
        (0..self.len() as u32).map(|i| self.op(i))
    }

    /// The producers of op `idx`, in operand order: exactly the edges
    /// its [`TraceBuilder`] call was given.
    #[inline]
    pub fn deps(&self, idx: u32) -> [Option<OpId>; 2] {
        let back = self.ops[idx as usize].back();
        let mut far = if back.contains(&PackedOp::ESCAPED) {
            self.far.partition_point(|&(i, _)| i < idx)
        } else {
            0
        };
        back.map(|b| match b {
            0 => None,
            PackedOp::ESCAPED => {
                far += 1;
                Some(OpId(self.far[far - 1].1))
            }
            b => Some(OpId(idx - b as u32)),
        })
    }

    /// Counts ops per class (used for the §7.1 dynamic-instruction-overhead
    /// comparison between plain and software-prefetch traces).
    pub fn class_counts(&self) -> TraceClassCounts {
        let mut c = TraceClassCounts::default();
        for op in self.ops() {
            match op.class {
                OpClass::Int => c.int += 1,
                OpClass::Fp => c.fp += 1,
                OpClass::MulDiv => c.muldiv += 1,
                OpClass::Load => c.loads += 1,
                OpClass::Store => c.stores += 1,
                OpClass::Swpf => c.swpf += 1,
                OpClass::Branch => c.branches += 1,
                OpClass::Config => c.config += 1,
            }
        }
        c
    }
}

/// Per-class op counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceClassCounts {
    /// Integer ALU ops.
    pub int: u64,
    /// FP ops.
    pub fp: u64,
    /// Multiply/divide ops.
    pub muldiv: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Software prefetches.
    pub swpf: u64,
    /// Branches.
    pub branches: u64,
    /// Prefetcher configuration ops.
    pub config: u64,
}

impl TraceClassCounts {
    /// Total dynamic instructions (config ops excluded: they exist only in
    /// prefetcher-enabled builds and are negligible).
    pub fn total(&self) -> u64 {
        self.int + self.fp + self.muldiv + self.loads + self.stores + self.swpf + self.branches
    }
}

/// Incremental builder used by workload generators. Every dependence must
/// name an op emitted earlier; a self or forward edge panics, naming the
/// op and the edge.
///
/// # Example
/// ```
/// use etpp_cpu::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// let idx = b.load(0x1000, 1, [None, None]);        // k = A[0]
/// let hash = b.int_op(1, [Some(idx), None]);        // h = hash(k)
/// b.load(0x2000, 2, [Some(hash), None]);            // bucket = htab[h]
/// let t = b.build();
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.deps(2), [Some(hash), None]);
/// ```
#[derive(Debug)]
pub struct TraceBuilder {
    trace: Trace,
    /// Open-addressed index of `trace.kinds`, keyed by a multiplicative
    /// hash of the triple: kind index + 1, or 0 for an empty slot. Twice
    /// the table's capacity, so a probe always ends.
    lookup: [u16; 2 * PackedOp::KINDS],
}

impl Default for TraceBuilder {
    fn default() -> Self {
        TraceBuilder {
            trace: Trace::default(),
            lookup: [0; 2 * PackedOp::KINDS],
        }
    }
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Number of ops emitted so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Appends one op, encoding its dependences as back-distances and
    /// its `(class, aux, pc)` as a kind-table index.
    ///
    /// # Panics
    /// If a dependence names this op itself or one not emitted yet, if
    /// `addr` does not fit in 40 bits, or if the op would be the trace's
    /// 257th distinct `(class, aux, pc)`.
    fn emit(
        &mut self,
        class: OpClass,
        aux: u8,
        pc: u32,
        addr: u64,
        deps: [Option<OpId>; 2],
    ) -> OpId {
        let idx = self.trace.ops.len() as u32;
        assert!(
            addr >> PackedOp::ADDR_BITS == 0,
            "op {idx} ({class:?}, pc {pc:#x}): address {addr:#x} does not fit in {} bits",
            PackedOp::ADDR_BITS
        );
        let kind = self.kind_index(idx, OpKind { pc, class, aux });
        let far = &mut self.trace.far;
        let back = deps.map(|d| {
            let Some(OpId(p)) = d else { return 0 };
            assert!(
                p < idx,
                "op {idx} depends on op {p}, which is not emitted before it"
            );
            match u8::try_from(idx - p) {
                Ok(b) if b < PackedOp::ESCAPED => b,
                _ => {
                    far.push((idx, p));
                    PackedOp::ESCAPED
                }
            }
        });
        self.trace.ops.push(PackedOp::new(back, kind, addr));
        OpId(idx)
    }

    /// The kind-table index of `kind`, appending it on first use.
    fn kind_index(&mut self, idx: u32, kind: OpKind) -> u8 {
        let key = u64::from(kind.pc) << 16 | u64::from(kind.class as u8) << 8 | u64::from(kind.aux);
        let bits = self.lookup.len().trailing_zeros();
        let mut slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize;
        loop {
            match self.lookup[slot] {
                0 => break,
                k if self.trace.kinds[usize::from(k) - 1] == kind => return (k - 1) as u8,
                _ => slot = (slot + 1) % self.lookup.len(),
            }
        }
        let k = self.trace.kinds.len();
        assert!(
            k < PackedOp::KINDS,
            "op {idx} ({:?}, aux {}, pc {:#x}) would be the trace's {}th distinct \
             (class, aux, pc); a trace holds at most {}",
            kind.class,
            kind.aux,
            kind.pc,
            k + 1,
            PackedOp::KINDS
        );
        self.trace.kinds.push(kind);
        self.lookup[slot] = k as u16 + 1;
        k as u8
    }

    /// Emits an integer ALU op with the given latency.
    pub fn int_op(&mut self, lat: u8, deps: [Option<OpId>; 2]) -> OpId {
        self.emit(OpClass::Int, lat, 0, 0, deps)
    }

    /// Emits a floating-point op.
    pub fn fp_op(&mut self, lat: u8, deps: [Option<OpId>; 2]) -> OpId {
        self.emit(OpClass::Fp, lat, 0, 0, deps)
    }

    /// Emits a multiply/divide op.
    pub fn muldiv(&mut self, lat: u8, deps: [Option<OpId>; 2]) -> OpId {
        self.emit(OpClass::MulDiv, lat, 0, 0, deps)
    }

    /// Emits an 8-byte load from `addr` at static PC `pc`.
    pub fn load(&mut self, addr: u64, pc: u32, deps: [Option<OpId>; 2]) -> OpId {
        self.load_sized(addr, 8, pc, deps)
    }

    /// Emits a load of `size` bytes.
    pub fn load_sized(&mut self, addr: u64, size: u8, pc: u32, deps: [Option<OpId>; 2]) -> OpId {
        self.emit(OpClass::Load, size, pc, addr, deps)
    }

    /// Emits an 8-byte store of `value` to `addr`.
    pub fn store(&mut self, addr: u64, value: u64, pc: u32, deps: [Option<OpId>; 2]) -> OpId {
        self.store_sized(addr, value, 8, pc, deps)
    }

    /// Emits a store of `size` bytes.
    ///
    /// # Panics
    /// If `size` is not 1, 4 or 8, the store widths the memory image
    /// commits and the trace format records.
    pub fn store_sized(
        &mut self,
        addr: u64,
        value: u64,
        size: u8,
        pc: u32,
        deps: [Option<OpId>; 2],
    ) -> OpId {
        assert!(
            matches!(size, 1 | 4 | 8),
            "store op {} (pc {pc:#x}, addr {addr:#x}): size {size} is not 1, 4 or 8",
            self.trace.ops.len()
        );
        let id = self.emit(OpClass::Store, size, pc, addr, deps);
        self.trace.store_values.push(value);
        id
    }

    /// Emits a software prefetch of `addr`.
    pub fn swpf(&mut self, addr: u64, pc: u32, deps: [Option<OpId>; 2]) -> OpId {
        self.emit(OpClass::Swpf, 0, pc, addr, deps)
    }

    /// Emits a conditional branch at `pc` with the given outcome.
    pub fn branch(&mut self, pc: u32, taken: bool, deps: [Option<OpId>; 2]) -> OpId {
        self.emit(OpClass::Branch, taken as u8, pc, 0, deps)
    }

    /// Emits a prefetcher configuration instruction.
    pub fn config(&mut self, op: ConfigOp) -> OpId {
        let idx = self.trace.configs.len() as u64;
        self.trace.configs.push(op);
        self.emit(OpClass::Config, 0, 0, idx, [None, None])
    }

    /// Finalises the trace, releasing the builder's spare capacity.
    pub fn build(mut self) -> Trace {
        self.trace.ops.shrink_to_fit();
        self.trace.kinds.shrink_to_fit();
        self.trace.store_values.shrink_to_fit();
        self.trace.far.shrink_to_fit();
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deps_encode_and_decode() {
        let mut b = TraceBuilder::new();
        let a = b.int_op(1, [None, None]);
        let c = b.int_op(1, [Some(a), None]);
        b.int_op(1, [Some(a), Some(c)]);
        b.int_op(1, [None, Some(c)]);
        let t = b.build();
        assert_eq!(t.deps(0), [None, None]);
        assert_eq!(t.deps(1), [Some(a), None]);
        assert_eq!(t.deps(2), [Some(a), Some(c)]);
        assert_eq!(t.deps(3), [None, Some(c)]);
        assert_eq!(t.ops[3].back(), [0, 2]);
        assert!(t.far.is_empty());
    }

    #[test]
    fn every_back_distance_decodes_to_its_exact_producer() {
        let dists = [1u32, 254, 255, 256, 65_535, 70_000];
        let mut b = TraceBuilder::new();
        for _ in 0..70_000 {
            b.int_op(1, [None, None]);
        }
        // One consumer per distance, and one op with both operands
        // escaped (the far table keeps them in operand order).
        let mut consumers = Vec::new();
        for &d in &dists {
            let at = b.len() as u32;
            let p = OpId(at - d);
            consumers.push((b.int_op(1, [Some(p), None]), p));
        }
        let at = b.len() as u32;
        let (p, q) = (OpId(at - 70_000), OpId(at - 300));
        let both = b.int_op(1, [Some(p), Some(q)]);
        let t = b.build();
        for (&d, &(c, p)) in dists.iter().zip(&consumers) {
            assert_eq!(t.deps(c.0), [Some(p), None], "distance {d}");
            let escaped = d >= PackedOp::ESCAPED as u32;
            assert_eq!(t.ops[c.0 as usize].back()[0] == PackedOp::ESCAPED, escaped);
        }
        assert_eq!(t.deps(both.0), [Some(p), Some(q)]);
        assert_eq!(
            t.far.len(),
            6,
            "255, 256, 65 535, 70 000 and both of `both`"
        );
        // Every op is the one kind `(Int, 1, 0)`.
        assert_eq!(t.bytes(), t.len() * 8 + 8 + 6 * 8);
    }

    #[test]
    #[should_panic(expected = "op 1 depends on op 1, which is not emitted before it")]
    fn a_self_edge_is_refused_by_name() {
        let mut b = TraceBuilder::new();
        b.int_op(1, [None, None]);
        b.load(0x40, 1, [None, Some(OpId(1))]);
    }

    #[test]
    #[should_panic(expected = "op 1 depends on op 5, which is not emitted before it")]
    fn a_forward_edge_is_refused_by_name() {
        let mut b = TraceBuilder::new();
        b.int_op(1, [None, None]);
        b.int_op(1, [Some(OpId(5)), None]);
    }

    #[test]
    fn a_full_kind_table_and_the_top_address_fit() {
        let top = (1 << PackedOp::ADDR_BITS) - 1;
        let mut b = TraceBuilder::new();
        for pc in 0..PackedOp::KINDS as u32 {
            b.load(top - u64::from(pc), pc, [None, None]);
        }
        // Repeating a triple adds no kind.
        b.load(top, 0, [None, None]);
        let t = b.build();
        assert_eq!(t.kinds.len(), PackedOp::KINDS);
        assert_eq!(t.op(255).pc, 255);
        assert_eq!(t.op(255).addr, top - 255);
        assert_eq!(t.op(256).addr, top);
        assert_eq!(t.ops[256].kind(), 0);
    }

    #[test]
    #[should_panic(expected = "op 1 (Load, pc 0x7): address 0x10000000000 does not fit in 40 bits")]
    fn an_address_past_40_bits_is_refused_by_name() {
        let mut b = TraceBuilder::new();
        b.load((1 << 40) - 1, 7, [None, None]);
        b.load(1 << 40, 7, [None, None]);
    }

    #[test]
    #[should_panic(
        expected = "op 257 (Int, aux 1, pc 0x0) would be the trace's 257th distinct \
                               (class, aux, pc); a trace holds at most 256"
    )]
    fn a_257th_distinct_triple_is_refused_by_name() {
        let mut b = TraceBuilder::new();
        for pc in 0..256 {
            b.load(0x40, pc, [None, None]);
        }
        b.load(0x40, 0, [None, None]);
        b.int_op(1, [None, None]);
    }

    #[test]
    fn class_counts() {
        let mut b = TraceBuilder::new();
        b.load(0x40, 1, [None, None]);
        b.store(0x80, 7, 2, [None, None]);
        b.swpf(0xc0, 3, [None, None]);
        b.branch(4, true, [None, None]);
        b.int_op(1, [None, None]);
        let t = b.build();
        let c = t.class_counts();
        assert_eq!(c.loads, 1);
        assert_eq!(c.stores, 1);
        assert_eq!(c.swpf, 1);
        assert_eq!(c.branches, 1);
        assert_eq!(c.int, 1);
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn config_side_table() {
        let mut b = TraceBuilder::new();
        b.config(ConfigOp::SetGlobal { idx: 3, value: 42 });
        b.config(ConfigOp::Enable(true));
        let t = b.build();
        assert_eq!(t.configs.len(), 2);
        assert_eq!(t.op(0).addr, 0);
        assert_eq!(t.op(1).addr, 1);
        assert_eq!(t.op(0).class, OpClass::Config);
    }

    #[test]
    fn store_values_follow_program_order() {
        let mut b = TraceBuilder::new();
        b.store(0x80, 7, 1, [None, None]);
        b.load(0x80, 2, [None, None]);
        b.store_sized(0x88, 9, 4, 3, [None, None]);
        let t = b.build();
        assert_eq!(t.store_values, vec![7, 9]);
        // Three ops of three kinds, two store values.
        assert_eq!(t.bytes(), 3 * 8 + 3 * 8 + 2 * 8);
    }

    #[test]
    #[should_panic(expected = "store op 1 (pc 0x3, addr 0x88): size 2 is not 1, 4 or 8")]
    fn stores_of_unsupported_size_are_refused() {
        let mut b = TraceBuilder::new();
        b.store_sized(0x80, 7, 1, 2, [None, None]);
        b.store_sized(0x88, 9, 2, 3, [None, None]);
    }
}
