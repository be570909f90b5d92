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
//! A [`MicroOp`] is 24 bytes. Store data lives beside the ops in
//! [`Trace::store_values`], one entry per store in program order, because
//! most ops carry none; a consumer walks it with a running store index.
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

/// One dynamic micro-operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Static program counter (drives the branch predictor and the
    /// PC-indexed prefetcher baselines).
    pub pc: u32,
    /// Class.
    pub class: OpClass,
    /// Latency, size, or taken-bit depending on class.
    pub aux: u8,
    /// First dependency as `index+1` into the trace; 0 = none.
    pub dep1: u32,
    /// Second dependency as `index+1`; 0 = none.
    pub dep2: u32,
    /// Virtual address (memory ops), branch target (branches) or
    /// [`Trace::configs`] index (config ops).
    pub addr: u64,
}

const _: () = assert!(std::mem::size_of::<MicroOp>() == 24);

impl MicroOp {
    /// Iterator over this op's dependencies as trace indices.
    #[inline]
    pub fn deps(&self) -> impl Iterator<Item = u32> {
        [self.dep1, self.dep2]
            .into_iter()
            .filter(|&d| d != 0)
            .map(|d| d - 1)
    }
}

/// A complete program trace plus its side tables.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The dynamic micro-ops in program order.
    pub ops: Vec<MicroOp>,
    /// Data of each `Store` op, in program order: the `k`-th store in
    /// `ops` writes `store_values[k]`.
    pub store_values: Vec<u64>,
    /// Prefetcher configuration operations referenced by `Config` ops.
    pub configs: Vec<ConfigOp>,
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

    /// Heap bytes the micro-ops and store data occupy.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.ops.as_slice())
            + std::mem::size_of_val(self.store_values.as_slice())
    }

    /// Counts ops per class (used for the §7.1 dynamic-instruction-overhead
    /// comparison between plain and software-prefetch traces).
    pub fn class_counts(&self) -> TraceClassCounts {
        let mut c = TraceClassCounts::default();
        for op in &self.ops {
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

/// Incremental builder used by workload generators.
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
/// assert_eq!(t.ops[2].deps().collect::<Vec<_>>(), vec![1]);
/// ```
#[derive(Debug, Default)]
pub struct TraceBuilder {
    trace: Trace,
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

    fn push(&mut self, op: MicroOp) -> OpId {
        let id = OpId(self.trace.ops.len() as u32);
        self.trace.ops.push(op);
        id
    }

    fn dep_fields(deps: [Option<OpId>; 2]) -> (u32, u32) {
        let enc = |d: Option<OpId>| d.map(|o| o.0 + 1).unwrap_or(0);
        (enc(deps[0]), enc(deps[1]))
    }

    /// Emits an integer ALU op with the given latency.
    pub fn int_op(&mut self, lat: u8, deps: [Option<OpId>; 2]) -> OpId {
        let (dep1, dep2) = Self::dep_fields(deps);
        self.push(MicroOp {
            pc: 0,
            class: OpClass::Int,
            aux: lat,
            dep1,
            dep2,
            addr: 0,
        })
    }

    /// Emits a floating-point op.
    pub fn fp_op(&mut self, lat: u8, deps: [Option<OpId>; 2]) -> OpId {
        let (dep1, dep2) = Self::dep_fields(deps);
        self.push(MicroOp {
            pc: 0,
            class: OpClass::Fp,
            aux: lat,
            dep1,
            dep2,
            addr: 0,
        })
    }

    /// Emits a multiply/divide op.
    pub fn muldiv(&mut self, lat: u8, deps: [Option<OpId>; 2]) -> OpId {
        let (dep1, dep2) = Self::dep_fields(deps);
        self.push(MicroOp {
            pc: 0,
            class: OpClass::MulDiv,
            aux: lat,
            dep1,
            dep2,
            addr: 0,
        })
    }

    /// Emits an 8-byte load from `addr` at static PC `pc`.
    pub fn load(&mut self, addr: u64, pc: u32, deps: [Option<OpId>; 2]) -> OpId {
        self.load_sized(addr, 8, pc, deps)
    }

    /// Emits a load of `size` bytes.
    pub fn load_sized(&mut self, addr: u64, size: u8, pc: u32, deps: [Option<OpId>; 2]) -> OpId {
        let (dep1, dep2) = Self::dep_fields(deps);
        self.push(MicroOp {
            pc,
            class: OpClass::Load,
            aux: size,
            dep1,
            dep2,
            addr,
        })
    }

    /// Emits an 8-byte store of `value` to `addr`.
    pub fn store(&mut self, addr: u64, value: u64, pc: u32, deps: [Option<OpId>; 2]) -> OpId {
        self.store_sized(addr, value, 8, pc, deps)
    }

    /// Emits a store of `size` bytes.
    pub fn store_sized(
        &mut self,
        addr: u64,
        value: u64,
        size: u8,
        pc: u32,
        deps: [Option<OpId>; 2],
    ) -> OpId {
        let (dep1, dep2) = Self::dep_fields(deps);
        self.trace.store_values.push(value);
        self.push(MicroOp {
            pc,
            class: OpClass::Store,
            aux: size,
            dep1,
            dep2,
            addr,
        })
    }

    /// Emits a software prefetch of `addr`.
    pub fn swpf(&mut self, addr: u64, pc: u32, deps: [Option<OpId>; 2]) -> OpId {
        let (dep1, dep2) = Self::dep_fields(deps);
        self.push(MicroOp {
            pc,
            class: OpClass::Swpf,
            aux: 0,
            dep1,
            dep2,
            addr,
        })
    }

    /// Emits a conditional branch at `pc` with the given outcome.
    pub fn branch(&mut self, pc: u32, taken: bool, deps: [Option<OpId>; 2]) -> OpId {
        let (dep1, dep2) = Self::dep_fields(deps);
        self.push(MicroOp {
            pc,
            class: OpClass::Branch,
            aux: taken as u8,
            dep1,
            dep2,
            addr: 0,
        })
    }

    /// Emits a prefetcher configuration instruction.
    pub fn config(&mut self, op: ConfigOp) -> OpId {
        let idx = self.trace.configs.len() as u64;
        self.trace.configs.push(op);
        self.push(MicroOp {
            pc: 0,
            class: OpClass::Config,
            aux: 0,
            dep1: 0,
            dep2: 0,
            addr: idx,
        })
    }

    /// Finalises the trace, releasing the builder's spare capacity.
    pub fn build(mut self) -> Trace {
        self.trace.ops.shrink_to_fit();
        self.trace.store_values.shrink_to_fit();
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
        let d = b.int_op(1, [Some(a), Some(c)]);
        let t = b.build();
        assert_eq!(t.ops[0].deps().count(), 0);
        assert_eq!(t.ops[1].deps().collect::<Vec<_>>(), vec![0]);
        assert_eq!(t.ops[2].deps().collect::<Vec<_>>(), vec![0, 1]);
        let _ = d;
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
        assert_eq!(t.ops[0].addr, 0);
        assert_eq!(t.ops[1].addr, 1);
        assert_eq!(t.ops[0].class, OpClass::Config);
    }

    #[test]
    fn store_values_follow_program_order() {
        let mut b = TraceBuilder::new();
        b.store(0x80, 7, 1, [None, None]);
        b.load(0x80, 2, [None, None]);
        b.store_sized(0x88, 9, 4, 3, [None, None]);
        let t = b.build();
        assert_eq!(t.store_values, vec![7, 9]);
        assert_eq!(t.bytes(), 3 * 24 + 2 * 8);
    }
}
