//! The eight Table-2 benchmarks of the paper, as trace generators.
//!
//! Each workload builds its real data structures in a simulated
//! [`etpp_mem::MemoryImage`], executes the algorithm to produce a
//! dependency-annotated trace for the out-of-order core, and supplies the
//! prefetch programs for the Manual (hand-written), Converted
//! (software-prefetch conversion) and Pragma (from-scratch generation)
//! modes.
//!
//! | Benchmark | Pattern | Module |
//! |-----------|---------|--------|
//! | G500-CSR  | BFS over CSR arrays | [`g500_csr`] |
//! | G500-List | BFS over adjacency linked lists | [`g500_list`] |
//! | PageRank  | stride-indirect over CSR | [`pagerank`] |
//! | HJ-2      | stride-hash-indirect | [`hashjoin`] |
//! | HJ-8      | stride-hash-indirect + list walks | [`hashjoin`] |
//! | RandAcc   | stride-hash-indirect (HPCC RandomAccess) | [`randacc`] |
//! | IntSort   | stride-indirect (NAS IS) | [`intsort`] |
//! | ConjGrad  | stride-indirect (NAS CG) | [`conjgrad`] |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod common;
pub mod conjgrad;
pub mod g500_csr;
pub mod g500_list;
pub mod graph;
pub mod hashjoin;
pub mod intsort;
pub mod loop_ir;
pub mod pagerank;
pub mod phases;
pub mod randacc;

pub use common::{checksum_region, BuiltWorkload, PrefetchSetup, Scale, Workload};

/// All eight benchmarks in Table 2's order. The synthetic
/// [`phases::TwoPhase`] workload is deliberately *not* listed here — it
/// exists for the adaptive-engine experiments, not the paper's figures.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(g500_csr::G500Csr),
        Box::new(g500_list::G500List),
        Box::new(hashjoin::Hj2),
        Box::new(hashjoin::Hj8),
        Box::new(pagerank::PageRank),
        Box::new(randacc::RandAcc),
        Box::new(intsort::IntSort),
        Box::new(conjgrad::ConjGrad),
    ]
}

/// Looks a workload up by its Table 2 name.
pub fn workload_by_name(name: &str) -> Option<Box<dyn Workload>> {
    all_workloads().into_iter().find(|w| w.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_workloads_registered() {
        assert_eq!(all_workloads().len(), 8);
    }

    #[test]
    fn lookup_by_name() {
        assert!(workload_by_name("HJ-8").is_some());
        assert!(workload_by_name("nope").is_none());
    }

    /// FNV-1a over every op's (pc, class, aux, dep1, dep2, address,
    /// payload), the payload being a store's data or a config op's
    /// side-table index (0 otherwise).
    fn op_hash(t: &etpp_cpu::Trace) -> u64 {
        use etpp_cpu::OpClass;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        let mut stores = t.store_values.iter();
        for op in &t.ops {
            let (addr, payload) = match op.class {
                OpClass::Store => (op.addr, *stores.next().unwrap()),
                OpClass::Config => (0, op.addr),
                _ => (op.addr, 0),
            };
            eat(&op.pc.to_le_bytes());
            eat(&[op.class as u8, op.aux]);
            eat(&op.dep1.to_le_bytes());
            eat(&op.dep2.to_le_bytes());
            eat(&addr.to_le_bytes());
            eat(&payload.to_le_bytes());
        }
        assert!(stores.next().is_none(), "one store value per store");
        h
    }

    /// The software-prefetch traces built on first use are op for op the
    /// ones the builders used to build eagerly: op counts and hashes were
    /// recorded from the eager `sw_trace` field at Tiny.
    #[test]
    fn lazily_built_software_traces_are_the_eager_ones() {
        let eager = [
            ("IntSort", 180_000, 0x3bd9_8028_8bab_4166u64),
            ("HJ-2", 227_482, 0x0e9e_2db1_40f5_52e9),
            ("HJ-8", 176_609, 0x6c65_3150_3634_9a91),
            ("RandAcc", 214_000, 0x1da8_f70d_4335_8f25),
            ("ConjGrad", 164_000, 0x7a28_ca51_eafc_31b3),
        ];
        for (name, len, hash) in eager {
            let wl = workload_by_name(name).unwrap().build(Scale::Tiny);
            assert!(wl.software.built.get().is_none(), "{name}: eager");
            // Every caller sees the one trace the first call built.
            let traces: Vec<&etpp_cpu::Trace> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..3).map(|_| s.spawn(|| wl.sw_trace().unwrap())).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(traces.iter().all(|t| std::ptr::eq(*t, traces[0])));
            let sw = traces[0];
            assert_eq!((sw.len(), op_hash(sw)), (len, hash), "{name}");
            assert!(wl.software.built.get().is_some(), "{name}: kept");
        }
    }

    #[test]
    fn scale_parsing() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Paper] {
            assert_eq!(scale.label().parse(), Ok(scale));
        }
        assert!("huge".parse::<Scale>().is_err());
    }
}
