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

    #[test]
    fn scale_parsing() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Paper] {
            assert_eq!(scale.label().parse(), Ok(scale));
        }
        assert!("huge".parse::<Scale>().is_err());
    }
}
