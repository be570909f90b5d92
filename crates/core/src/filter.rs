//! The address filter and filter table (§4.2).
//!
//! The filter snoops every demand load from the main core and every
//! prefetch completing at the L1. The filter table holds virtual-address
//! ranges, each with two kernel entry points — `Load Ptr` (run on a snooped
//! demand load in the range) and `PF Ptr` (run when a prefetch into the
//! range returns data) — plus EWMA scheduling flags. Ranges may overlap; an
//! address matching several entries produces one observation per entry.

use etpp_isa::KernelId;
use etpp_mem::FilterFlags;

/// One configured filter-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterEntry {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Exclusive upper bound.
    pub hi: u64,
    /// Kernel run on demand-load observations.
    pub on_load: Option<KernelId>,
    /// Kernel run on prefetch-return observations.
    pub on_prefetch: Option<KernelId>,
    /// EWMA roles.
    pub flags: FilterFlags,
}

impl FilterEntry {
    /// Whether `addr` falls inside this range.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.lo && addr < self.hi
    }
}

/// The filter table: a small array of optional entries, indexed by
/// [`etpp_mem::RangeId`].
#[derive(Debug, Clone)]
pub struct FilterTable {
    entries: Vec<Option<FilterEntry>>,
}

impl FilterTable {
    /// A table with `capacity` slots, all empty.
    pub fn new(capacity: usize) -> Self {
        FilterTable {
            entries: vec![None; capacity],
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Installs an entry (overwrites).
    ///
    /// # Panics
    /// Panics if `id` is beyond the table's capacity — configuration bugs
    /// are programming errors, as they would be in hardware bring-up.
    pub fn set(&mut self, id: usize, entry: FilterEntry) {
        assert!(
            id < self.entries.len(),
            "filter table slot {id} out of range"
        );
        self.entries[id] = Some(entry);
    }

    /// Clears a slot.
    pub fn clear(&mut self, id: usize) {
        if let Some(e) = self.entries.get_mut(id) {
            *e = None;
        }
    }

    /// Entry at `id`, if configured.
    pub fn get(&self, id: usize) -> Option<&FilterEntry> {
        self.entries.get(id).and_then(|e| e.as_ref())
    }

    /// Iterates `(range_index, entry)` pairs matching `addr`.
    pub fn matches(&self, addr: u64) -> impl Iterator<Item = (usize, &FilterEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(move |(i, e)| match e {
                Some(entry) if entry.contains(addr) => Some((i, entry)),
                _ => None,
            })
    }

    /// Number of configured entries.
    pub fn configured(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(lo: u64, hi: u64) -> FilterEntry {
        FilterEntry {
            lo,
            hi,
            on_load: Some(KernelId(0)),
            on_prefetch: None,
            flags: FilterFlags::default(),
        }
    }

    #[test]
    fn match_respects_bounds() {
        let mut t = FilterTable::new(4);
        t.set(1, entry(0x1000, 0x2000));
        assert_eq!(t.matches(0x0fff).count(), 0);
        assert_eq!(t.matches(0x1000).count(), 1);
        assert_eq!(t.matches(0x1fff).count(), 1);
        assert_eq!(t.matches(0x2000).count(), 0);
    }

    #[test]
    fn overlapping_ranges_match_all() {
        let mut t = FilterTable::new(4);
        t.set(0, entry(0x1000, 0x3000));
        t.set(2, entry(0x2000, 0x4000));
        let hits: Vec<usize> = t.matches(0x2800).map(|(i, _)| i).collect();
        assert_eq!(hits, vec![0, 2]);
    }

    #[test]
    fn clear_removes_entry() {
        let mut t = FilterTable::new(2);
        t.set(0, entry(0, 100));
        assert_eq!(t.configured(), 1);
        t.clear(0);
        assert_eq!(t.configured(), 0);
        assert_eq!(t.matches(50).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_beyond_capacity_panics() {
        let mut t = FilterTable::new(2);
        t.set(5, entry(0, 1));
    }
}
