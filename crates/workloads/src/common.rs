//! Shared workload infrastructure: scales, built artifacts, validation.
//!
//! Every benchmark in Table 2 implements [`Workload`]: it constructs its
//! data structures inside a fresh [`MemoryImage`], executes the real
//! algorithm against them to produce a dependency-annotated [`Trace`] (and,
//! where the paper could, a software-prefetch variant), and packages the
//! prefetch programs for the Manual/Converted/Pragma modes.
//!
//! Trace generation *mutates* a working copy of the image (stores really
//! happen); the pristine pre-execution image is what simulation starts
//! from, and the post-execution image provides the validation checksum that
//! proves the trace encodes a correct execution.
//!
//! Only the paper's Software bars and its §7.1 instruction-overhead table
//! read the software-prefetch variant, so a builder hands over a generator
//! for it instead of the trace, and [`BuiltWorkload::sw_trace`] runs it
//! from the pristine image for each caller, who owns the trace and drops
//! it when done: a built workload never holds a software trace.

use etpp_cpu::Trace;
use etpp_isa::Program;
use etpp_mem::{ConfigOp, MemoryImage, Region};
use std::sync::Arc;

/// Input scale for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Minutes-long unit tests: working sets of a few × L1.
    Tiny,
    /// Default for experiments: working sets ≥ 8 × L2 (≥ 8 MiB), seconds
    /// of host time per run.
    Small,
    /// The paper's published input parameters (hours of host time).
    Paper,
}

impl Scale {
    /// The lower-case name every CLI, trace-cache key and report uses;
    /// round-tripped by `FromStr`.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [Scale::Tiny, Scale::Small, Scale::Paper]
            .into_iter()
            .find(|sc| sc.label() == s)
            .ok_or_else(|| format!("unknown scale `{s}` (expected tiny|small|paper)"))
    }
}

/// A prefetch program plus the configuration instructions that install it.
///
/// Configuration (filter ranges, globals, tag bindings) corresponds to the
/// instructions the compiler emits "immediately before the loop" (§6.3);
/// the simulator applies them before releasing the core, charging no time —
/// a handful of register writes is negligible against millions of cycles.
#[derive(Debug, Clone, Default)]
pub struct PrefetchSetup {
    /// All event kernels.
    pub program: Program,
    /// Configuration executed before the kernel loop.
    pub configs: Vec<ConfigOp>,
}

/// Builds a software-prefetch trace from a workload's pristine image.
type TraceGen = dyn Fn(&MemoryImage) -> Trace + Send + Sync;

/// A workload's software-prefetch trace: absent, or the generator that
/// builds it whenever [`BuiltWorkload::sw_trace`] asks.
#[derive(Clone, Default)]
pub(crate) struct SoftwareTrace(Option<Arc<TraceGen>>);

impl SoftwareTrace {
    /// A variant `generate` builds on each use.
    pub(crate) fn generated_by(
        generate: impl Fn(&MemoryImage) -> Trace + Send + Sync + 'static,
    ) -> Self {
        SoftwareTrace(Some(Arc::new(generate)))
    }
}

impl std::fmt::Debug for SoftwareTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoftwareTrace")
            .field("available", &self.0.is_some())
            .finish()
    }
}

/// Everything needed to simulate one benchmark in every mode.
#[derive(Debug, Clone)]
pub struct BuiltWorkload {
    /// Benchmark name as in Table 2.
    pub name: &'static str,
    /// Pristine pre-execution memory image (simulation starts here).
    pub image: MemoryImage,
    /// Plain trace (no software prefetches).
    pub trace: Trace,
    /// Software-prefetch variant's generator (see
    /// [`BuiltWorkload::sw_trace`]).
    pub(crate) software: SoftwareTrace,
    /// Hand-written prefetch program (the paper's `Manual` bars).
    pub manual: Option<PrefetchSetup>,
    /// Program generated by converting software prefetches (§6.1–6.3).
    pub converted: Option<PrefetchSetup>,
    /// Program generated from a `#pragma prefetch` (§6.4).
    pub pragma: Option<PrefetchSetup>,
    /// Region whose post-execution bytes are checksummed for validation.
    pub check_region: Region,
    /// Expected FNV-1a checksum of `check_region` after a correct run.
    pub expected: u64,
    /// Reproduction notes (skips, substitutions) surfaced in reports.
    pub notes: &'static str,
}

impl BuiltWorkload {
    /// The software-prefetch variant; `None` where the paper notes it is
    /// not possible (PageRank's iterator-hidden addresses). Each call
    /// generates it afresh from [`BuiltWorkload::image`] (the same trace
    /// every time) and hands it to the caller, so it lives only as long
    /// as the cell or table that asked for it.
    pub fn sw_trace(&self) -> Option<Trace> {
        self.software
            .0
            .as_ref()
            .map(|generate| generate(&self.image))
    }
}

/// A Table 2 benchmark.
pub trait Workload: Send + Sync {
    /// Name as in Table 2 (e.g. `"HJ-8"`).
    fn name(&self) -> &'static str;
    /// Builds image, traces and prefetch programs at the given scale.
    fn build(&self, scale: Scale) -> BuiltWorkload;
}

/// FNV-1a over a region of the image — the validation checksum.
pub fn checksum_region(image: &MemoryImage, region: Region) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for slice in image.region_slices(region) {
        for &b in slice {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Deterministic 64-bit mix used by workload generators (splitmix64).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_content_sensitive() {
        let mut img = MemoryImage::new();
        let r = img.alloc_region(128);
        let a = checksum_region(&img, r);
        img.write_u64(r.base + 64, 1);
        let b = checksum_region(&img, r);
        assert_ne!(a, b);
    }

    /// Reference checksum: one `read_u8` per byte.
    fn checksum_bytewise(image: &MemoryImage, region: Region) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for addr in region.base..region.end() {
            h ^= image.read_u8(addr) as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    #[test]
    fn checksum_by_page_slices_matches_bytewise() {
        use etpp_mem::PAGE_SIZE;
        let mut img = MemoryImage::new();
        let base = img.alloc(2 * PAGE_SIZE, PAGE_SIZE);
        // Pages 0 and 1 are allocated and page 3 is mapped by the writes
        // into it; page 2 and everything past page 3 stay unmapped.
        for i in (0..2 * PAGE_SIZE).chain(3 * PAGE_SIZE..4 * PAGE_SIZE) {
            img.write_u8(base + i, mix64(i) as u8);
        }
        assert!(!img.is_mapped(base + 2 * PAGE_SIZE));
        let cases = [
            // Mid-page to mid-page over pages 0, 1 and unmapped 2.
            (base + 100, 2 * PAGE_SIZE + 50),
            // Mid-page to mid-page over pages 1, unmapped 2 and 3.
            (base + PAGE_SIZE + 7, 2 * PAGE_SIZE + 9),
            // Wholly unmapped, wholly inside one page, and empty.
            (base + 5 * PAGE_SIZE + 1, 3 * PAGE_SIZE),
            (base + 33, 64),
            (base, 0),
        ];
        for (start, len) in cases {
            let r = Region { base: start, len };
            assert_eq!(
                checksum_region(&img, r),
                checksum_bytewise(&img, r),
                "{r:?}"
            );
            let bytes: usize = img.region_slices(r).map(<[u8]>::len).sum();
            assert_eq!(bytes as u64, len);
        }
    }

    #[test]
    fn mix64_spreads_sequential_inputs() {
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a & 0xffff, b & 0xffff, "low bits differ");
    }
}
