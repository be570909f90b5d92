//! Miss status holding registers (MSHRs).
//!
//! MSHRs bound the number of outstanding misses per cache and implement miss
//! merging: a second access to an in-flight line attaches to the existing
//! entry instead of issuing a duplicate request. Each entry can also carry a
//! *memory request tag* (§4.7 of the paper) naming the data structure a
//! prefetch targets, so pointer-linked structures trigger the right event
//! kernel when the data returns.

use crate::engine::TagId;

/// Index of an allocated MSHR entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MshrId(pub usize);

/// A waiter attached to an in-flight miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waiter {
    /// A demand access (load or store) identified by its access token.
    Demand(u64),
    /// A prefetch request; carries the precise requested virtual address and
    /// the optional request tag whose kernel runs when data returns.
    Prefetch {
        /// Exact (non-line-aligned) address the kernel asked for.
        vaddr: u64,
        /// Structure tag for pointer-linked data (None = filter-range match).
        tag: Option<TagId>,
        /// Opaque engine metadata carried through the hierarchy (the
        /// programmable prefetcher stores EWMA chain-timing birth stamps).
        meta: u64,
    },
}

/// `lines` value of a free entry (line addresses are 64-byte aligned,
/// so no in-flight line can equal it).
const FREE: u64 = u64::MAX;

/// A fixed-capacity file of MSHR entries, one parallel array per field
/// so `find`/`allocate` scan eight line addresses per host cache line.
#[derive(Debug, Clone)]
pub struct MshrFile {
    /// Line address per entry; [`FREE`] marks an unallocated one.
    lines: Vec<u64>,
    /// Waiter lists; buffers are recycled across allocations.
    waiters: Vec<Vec<Waiter>>,
    /// True while any demand waiter is attached (affects the prefetched bit).
    has_demand: Vec<bool>,
    /// A store is waiting: the line must be installed dirty.
    dirty_on_fill: Vec<bool>,
    in_use: usize,
}

impl MshrFile {
    /// Creates a file with `n` entries.
    pub fn new(n: usize) -> Self {
        MshrFile {
            lines: vec![FREE; n],
            waiters: vec![Vec::new(); n],
            has_demand: vec![false; n],
            dirty_on_fill: vec![false; n],
            in_use: 0,
        }
    }

    /// Number of entries currently allocated.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Number of free entries.
    pub fn free(&self) -> usize {
        self.lines.len() - self.in_use
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.lines.len()
    }

    /// Finds the entry tracking `line_addr`, if any.
    pub fn find(&self, line_addr: u64) -> Option<MshrId> {
        debug_assert_ne!(line_addr, FREE);
        self.lines.iter().position(|&l| l == line_addr).map(MshrId)
    }

    /// Allocates a new entry (the lowest free index) for `line_addr`
    /// with one initial waiter. Returns `None` when the file is full.
    ///
    /// # Panics
    /// Panics (debug) if an entry for the line already exists; callers must
    /// merge via [`MshrFile::merge`] instead.
    pub fn allocate(&mut self, line_addr: u64, waiter: Waiter) -> Option<MshrId> {
        debug_assert!(self.find(line_addr).is_none(), "double allocation");
        let idx = self.lines.iter().position(|&l| l == FREE)?;
        self.lines[idx] = line_addr;
        self.has_demand[idx] = matches!(waiter, Waiter::Demand(_));
        self.dirty_on_fill[idx] = false;
        debug_assert!(self.waiters[idx].is_empty(), "release leaves it empty");
        self.waiters[idx].push(waiter);
        self.in_use += 1;
        Some(MshrId(idx))
    }

    /// Attaches an additional waiter to an existing entry.
    pub fn merge(&mut self, id: MshrId, waiter: Waiter) {
        debug_assert_ne!(self.lines[id.0], FREE);
        if matches!(waiter, Waiter::Demand(_)) {
            self.has_demand[id.0] = true;
        }
        self.waiters[id.0].push(waiter);
    }

    /// Whether any demand waiter is attached to the entry.
    pub fn has_demand(&self, id: MshrId) -> bool {
        self.has_demand[id.0]
    }

    /// Marks the entry as store-bound: the line is installed dirty.
    pub fn set_dirty_on_fill(&mut self, id: MshrId) {
        self.dirty_on_fill[id.0] = true;
    }

    /// Whether the line must be installed dirty (a store is waiting).
    pub fn dirty_on_fill(&self, id: MshrId) -> bool {
        self.dirty_on_fill[id.0]
    }

    /// Line address tracked by the entry.
    pub fn line_addr(&self, id: MshrId) -> u64 {
        self.lines[id.0]
    }

    /// Releases the entry, handing its waiters (attachment order) to the
    /// caller by swapping buffers with `out`, whose previous contents are
    /// dropped: neither side allocates once the buffers have grown.
    pub fn release(&mut self, id: MshrId, out: &mut Vec<Waiter>) {
        debug_assert_ne!(self.lines[id.0], FREE);
        self.lines[id.0] = FREE;
        self.in_use -= 1;
        out.clear();
        std::mem::swap(&mut self.waiters[id.0], out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_full() {
        let mut m = MshrFile::new(2);
        assert!(m.allocate(0x000, Waiter::Demand(1)).is_some());
        assert!(m.allocate(0x040, Waiter::Demand(2)).is_some());
        assert_eq!(m.free(), 0);
        assert!(m.allocate(0x080, Waiter::Demand(3)).is_none());
    }

    #[test]
    fn merge_tracks_demand_bit() {
        let mut m = MshrFile::new(2);
        let id = m
            .allocate(
                0x40,
                Waiter::Prefetch {
                    vaddr: 0x48,
                    tag: None,
                    meta: 0,
                },
            )
            .unwrap();
        assert!(!m.has_demand(id));
        m.merge(id, Waiter::Demand(7));
        assert!(m.has_demand(id));
        let mut waiters = vec![Waiter::Demand(99)];
        m.release(id, &mut waiters);
        assert_eq!(
            waiters,
            [
                Waiter::Prefetch {
                    vaddr: 0x48,
                    tag: None,
                    meta: 0,
                },
                Waiter::Demand(7)
            ]
        );
        assert_eq!(m.free(), 2);
    }

    #[test]
    fn release_frees_slot_for_reuse() {
        let mut m = MshrFile::new(1);
        let id = m.allocate(0x40, Waiter::Demand(1)).unwrap();
        m.release(id, &mut Vec::new());
        assert!(m.allocate(0x80, Waiter::Demand(2)).is_some());
    }

    #[test]
    fn find_locates_by_line() {
        let mut m = MshrFile::new(4);
        m.allocate(0x100, Waiter::Demand(1));
        let id = m.find(0x100).expect("present");
        assert_eq!(m.line_addr(id), 0x100);
        assert!(m.find(0x140).is_none());
    }
}
