//! Sparse byte-addressable virtual memory image.
//!
//! Workloads build their real data structures (graphs, hash tables, sparse
//! matrices) inside a [`MemoryImage`], then walk them to generate the
//! instruction trace. During simulation the image serves two purposes:
//!
//! 1. Cache fills read the *actual bytes* of the touched line, so PPU event
//!    kernels compute follow-on prefetch addresses from real data — a wrong
//!    kernel prefetches the wrong addresses, exactly as in hardware.
//! 2. Committed stores update the image, so data structures that mutate
//!    during execution (FIFO queues, visited arrays, RandomAccess batches)
//!    stay current for the prefetcher.

use crate::addr::{page_of, LINE_SIZE, PAGE_SIZE};
use crate::fasthash::FastHashMap;

/// A contiguous virtual allocation returned by [`MemoryImage::alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// First byte of the region.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Region {
    /// Address one past the last byte of the region.
    #[inline]
    pub fn end(&self) -> u64 {
        self.base + self.len
    }

    /// Whether `addr` falls inside the region.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// Sparse byte-addressable memory with a bump allocator.
///
/// Pages are materialised on first allocation; reading an unmapped address is
/// a simulator bug and panics (debug builds) or returns zero via the checked
/// accessors. Cloning an image snapshots program state cheaply enough for
/// per-run resets (tens of MiB).
#[derive(Debug, Clone, Default)]
pub struct MemoryImage {
    pages: FastHashMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
    /// Next free virtual address for `alloc`.
    brk: u64,
}

/// Base of the allocation arena. Nonzero so that null pointers (0) used by
/// linked structures are never valid data addresses.
const ARENA_BASE: u64 = 0x0001_0000;

impl MemoryImage {
    /// Creates an empty image with the allocator at the arena base.
    pub fn new() -> Self {
        MemoryImage {
            pages: FastHashMap::default(),
            brk: ARENA_BASE,
        }
    }

    /// Allocates `len` bytes aligned to `align` (which must be a power of
    /// two), mapping all touched pages. Returns the region.
    ///
    /// # Panics
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, len: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.brk + align - 1) & !(align - 1);
        self.brk = base + len.max(1);
        let mut page = page_of(base);
        while page < base + len.max(1) {
            self.pages
                .entry(page)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]));
            page += PAGE_SIZE;
        }
        base
    }

    /// Allocates a region of `len` bytes with cache-line alignment.
    pub fn alloc_region(&mut self, len: u64) -> Region {
        let base = self.alloc(len, LINE_SIZE);
        Region { base, len }
    }

    /// Whether the page containing `addr` is mapped.
    #[inline]
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.pages.contains_key(&page_of(addr))
    }

    /// Total number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte. Unmapped addresses read as zero.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&page_of(addr)) {
            Some(p) => p[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Writes one byte, mapping the page on demand.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        let page = self
            .pages
            .entry(page_of(addr))
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]));
        page[(addr % PAGE_SIZE) as usize] = val;
    }

    /// Reads `N` bytes: one page lookup when they sit inside a page,
    /// byte by byte when they straddle two.
    #[inline]
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let off = (addr % PAGE_SIZE) as usize;
        if off + N <= PAGE_SIZE as usize {
            return match self.pages.get(&page_of(addr)) {
                Some(p) => p[off..off + N].try_into().expect("N bytes"),
                None => [0; N],
            };
        }
        std::array::from_fn(|i| self.read_u8(addr + i as u64))
    }

    /// Writes `N` bytes, mapping pages on demand; lookups as in
    /// [`MemoryImage::read_bytes`].
    #[inline]
    fn write_bytes<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        let off = (addr % PAGE_SIZE) as usize;
        if off + N <= PAGE_SIZE as usize {
            let page = self
                .pages
                .entry(page_of(addr))
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]));
            page[off..off + N].copy_from_slice(&bytes);
            return;
        }
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr + i as u64, *b);
        }
    }

    /// Reads a little-endian `u64`. The access may straddle pages.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u64`, mapping pages on demand.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_bytes(addr, val.to_le_bytes());
    }

    /// Reads a little-endian `u32`. The access may straddle pages.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u32`, mapping pages on demand.
    pub fn write_u32(&mut self, addr: u64, val: u32) {
        self.write_bytes(addr, val.to_le_bytes());
    }

    /// Copies the 64-byte cache line containing `addr` into `buf`.
    pub fn read_line(&self, addr: u64, buf: &mut [u8; LINE_SIZE as usize]) {
        let base = crate::addr::line_of(addr);
        // A line never straddles a page (64 divides 4096).
        match self.pages.get(&page_of(base)) {
            Some(p) => {
                let off = (base % PAGE_SIZE) as usize;
                buf.copy_from_slice(&p[off..off + LINE_SIZE as usize]);
            }
            None => buf.fill(0),
        }
    }

    /// The bytes of `region` in address order, one page slice at a
    /// time: one page lookup per page, not per byte. Unmapped pages read
    /// as zeros, as [`MemoryImage::read_u8`] reads them.
    pub fn region_slices(&self, region: Region) -> impl Iterator<Item = &[u8]> + '_ {
        static ZEROS: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];
        let end = region.end();
        let mut addr = region.base;
        std::iter::from_fn(move || {
            if addr >= end {
                return None;
            }
            let off = (addr % PAGE_SIZE) as usize;
            let len = (PAGE_SIZE - off as u64).min(end - addr) as usize;
            let page = self.pages.get(&page_of(addr)).map_or(&ZEROS, |p| &**p);
            addr += len as u64;
            Some(&page[off..off + len])
        })
    }

    /// Writes `n` consecutive little-endian `u64`s starting at `addr`.
    pub fn write_u64_slice(&mut self, addr: u64, vals: &[u64]) {
        for (i, v) in vals.iter().enumerate() {
            self.write_u64(addr + 8 * i as u64, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut m = MemoryImage::new();
        let a = m.alloc(10, 64);
        assert_eq!(a % 64, 0);
        let b = m.alloc(100, 4096);
        assert_eq!(b % 4096, 0);
        assert!(b >= a + 10);
    }

    #[test]
    fn null_page_is_never_allocated() {
        let mut m = MemoryImage::new();
        let a = m.alloc(8, 8);
        assert!(a >= 0x0001_0000, "allocations avoid the null page");
        assert!(!m.is_mapped(0));
    }

    #[test]
    fn u64_roundtrip() {
        let mut m = MemoryImage::new();
        let a = m.alloc(64, 64);
        m.write_u64(a, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(a), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u32(a), 0xcafe_f00d);
    }

    #[test]
    fn u64_roundtrip_across_page_boundary() {
        let mut m = MemoryImage::new();
        let base = m.alloc(2 * PAGE_SIZE, PAGE_SIZE);
        let addr = base + PAGE_SIZE - 4;
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
    }

    #[test]
    fn u32_roundtrip_in_page_and_across_page_boundary() {
        let mut m = MemoryImage::new();
        let base = m.alloc(2 * PAGE_SIZE, PAGE_SIZE);
        for addr in [base + PAGE_SIZE - 4, base + PAGE_SIZE - 2] {
            m.write_u32(addr, 0x1122_3344);
            assert_eq!(m.read_u32(addr), 0x1122_3344);
            assert_eq!(m.read_u8(addr), 0x44);
            assert_eq!(m.read_u8(addr + 3), 0x11);
        }
    }

    #[test]
    fn unmapped_reads_zero() {
        let m = MemoryImage::new();
        assert_eq!(m.read_u64(0xffff_0000), 0);
        assert_eq!(m.read_u8(12345), 0);
    }

    #[test]
    fn read_line_matches_bytes() {
        let mut m = MemoryImage::new();
        let a = m.alloc(128, 64);
        for i in 0..64u64 {
            m.write_u8(a + i, i as u8);
        }
        let mut buf = [0u8; 64];
        m.read_line(a + 17, &mut buf);
        for (i, b) in buf.iter().enumerate() {
            assert_eq!(*b, i as u8);
        }
    }

    #[test]
    fn region_contains() {
        let r = Region { base: 100, len: 50 };
        assert!(r.contains(100));
        assert!(r.contains(149));
        assert!(!r.contains(150));
        assert!(!r.contains(99));
        assert_eq!(r.end(), 150);
    }

    #[test]
    fn clone_snapshots_state() {
        let mut m = MemoryImage::new();
        let a = m.alloc(8, 8);
        m.write_u64(a, 1);
        let snap = m.clone();
        m.write_u64(a, 2);
        assert_eq!(snap.read_u64(a), 1);
        assert_eq!(m.read_u64(a), 2);
    }
}
