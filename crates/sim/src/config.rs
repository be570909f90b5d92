//! System configuration (Table 1) and prefetching modes (Figure 7's bars).

use etpp_core::PrefetcherParams;
use etpp_cpu::CoreParams;
use etpp_mem::{Deadline, Limits, MemParams};

/// Which prefetching scheme a run uses — one per bar group in Figure 7,
/// plus the Figure 11 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchMode {
    /// No prefetching (the speedup baseline).
    None,
    /// Reference-prediction-table stride prefetcher, degree 8.
    Stride,
    /// Markov GHB G/AC prefetcher with SRAM-realistic tables.
    GhbRegular,
    /// Markov GHB with 1 GiB of history state and free access to it.
    GhbLarge,
    /// Software prefetch instructions in the instruction stream.
    Software,
    /// Programmable prefetcher, kernels generated by the pragma pass.
    Pragma,
    /// Programmable prefetcher, kernels converted from software prefetches.
    Converted,
    /// Programmable prefetcher, hand-written kernels.
    Manual,
    /// Manual kernels but PPUs block on intermediate loads (Figure 11).
    Blocked,
    /// Four-state Chen & Baer RPT stride engine (zoo cross-check for
    /// the two-bit [`PrefetchMode::Stride`] baseline).
    RptStride,
    /// PC-delta accuracy-threshold prefetcher (My5/Pythia lineage):
    /// variable degree, capped at a page.
    PcDelta,
    /// Phase-adaptive meta-engine: switches between stride and PC-delta
    /// at interval boundaries based on the counter feed.
    Adaptive,
}

impl PrefetchMode {
    /// Every mode, in presentation order. This is the single source of
    /// truth for mode enumeration: repro, sweeps, tests and report
    /// tables all derive their mode lists from this array (or from
    /// [`PrefetchMode::FIGURE7`] below), and [`PrefetchMode::from_key`]
    /// parses by scanning it — adding a variant here wires it through
    /// every surface at once.
    pub const ALL: [PrefetchMode; 12] = [
        PrefetchMode::None,
        PrefetchMode::Stride,
        PrefetchMode::RptStride,
        PrefetchMode::PcDelta,
        PrefetchMode::Adaptive,
        PrefetchMode::GhbRegular,
        PrefetchMode::GhbLarge,
        PrefetchMode::Software,
        PrefetchMode::Pragma,
        PrefetchMode::Converted,
        PrefetchMode::Manual,
        PrefetchMode::Blocked,
    ];

    /// Figure 7's bar order: the paper's seven compared schemes.
    pub const FIGURE7: [PrefetchMode; 7] = [
        PrefetchMode::Stride,
        PrefetchMode::GhbRegular,
        PrefetchMode::GhbLarge,
        PrefetchMode::Software,
        PrefetchMode::Pragma,
        PrefetchMode::Converted,
        PrefetchMode::Manual,
    ];

    /// The engine-zoo additions beyond the paper's Figure 7 set.
    pub const ZOO: [PrefetchMode; 3] = [
        PrefetchMode::RptStride,
        PrefetchMode::PcDelta,
        PrefetchMode::Adaptive,
    ];

    /// Whether this mode attaches the programmable prefetcher.
    pub fn is_programmable(&self) -> bool {
        matches!(
            self,
            PrefetchMode::Pragma
                | PrefetchMode::Converted
                | PrefetchMode::Manual
                | PrefetchMode::Blocked
        )
    }

    /// Stable machine-readable key (JSON field material, cache-key
    /// material, artifact file names). One key per mode, round-tripped
    /// by [`PrefetchMode::from_key`].
    pub fn key(&self) -> &'static str {
        match self {
            PrefetchMode::None => "none",
            PrefetchMode::Stride => "stride",
            PrefetchMode::GhbRegular => "ghb_regular",
            PrefetchMode::GhbLarge => "ghb_large",
            PrefetchMode::Software => "software",
            PrefetchMode::Pragma => "pragma",
            PrefetchMode::Converted => "converted",
            PrefetchMode::Manual => "manual",
            PrefetchMode::Blocked => "blocked",
            PrefetchMode::RptStride => "rpt_stride",
            PrefetchMode::PcDelta => "pc_delta",
            PrefetchMode::Adaptive => "adaptive",
        }
    }

    /// Alias for [`PrefetchMode::key`], for symmetry with `from_str`.
    pub fn as_str(&self) -> &'static str {
        self.key()
    }

    /// Parses a [`PrefetchMode::key`] back into the mode (shard-file
    /// ingestion) by scanning [`PrefetchMode::ALL`].
    pub fn from_key(key: &str) -> Option<PrefetchMode> {
        PrefetchMode::ALL.into_iter().find(|m| m.key() == key)
    }

    /// Display label matching the paper's legend.
    pub fn label(&self) -> &'static str {
        match self {
            PrefetchMode::None => "No-PF",
            PrefetchMode::Stride => "Stride",
            PrefetchMode::GhbRegular => "GHB (regular)",
            PrefetchMode::GhbLarge => "GHB (large)",
            PrefetchMode::Software => "Software",
            PrefetchMode::Pragma => "Pragma",
            PrefetchMode::Converted => "Converted",
            PrefetchMode::Manual => "Manual",
            PrefetchMode::Blocked => "Blocked",
            PrefetchMode::RptStride => "Stride (RPT)",
            PrefetchMode::PcDelta => "PC-delta",
            PrefetchMode::Adaptive => "Adaptive",
        }
    }
}

impl std::str::FromStr for PrefetchMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PrefetchMode::from_key(s).ok_or_else(|| format!("unknown prefetch mode `{s}`"))
    }
}

/// Complete system configuration.
#[derive(Debug, Clone, Copy, Hash)]
pub struct SystemConfig {
    /// Out-of-order core parameters.
    pub core: CoreParams,
    /// Cache/DRAM/TLB parameters.
    pub mem: MemParams,
    /// Programmable prefetcher parameters (used by programmable modes).
    pub pf: PrefetcherParams,
    /// Upper bound on simulated cycles (runaway guard), on the cycle
    /// core and replay alike.
    pub max_cycles: u64,
    /// Disable horizon-aware fast-forwarding in the driver, for the
    /// cycle core and replay alike: advance the clock one cycle at a
    /// time and run the engine round every tick, exactly as the
    /// pre-horizon simulator did ([`etpp_mem::Limits::per_cycle_reference`]).
    /// Slow, and kept as the authoritative reference the equivalence
    /// suite pins the fast path against.
    pub per_cycle_reference: bool,
}

impl SystemConfig {
    /// Table 1 of the paper: 3.2 GHz 3-wide core, 32 KB L1 / 1 MB L2,
    /// DDR3-1600, 12 PPUs at 1 GHz.
    pub fn paper() -> Self {
        SystemConfig {
            core: CoreParams::paper(),
            mem: MemParams::paper(),
            pf: PrefetcherParams::paper(),
            max_cycles: 20_000_000_000,
            per_cycle_reference: false,
        }
    }

    /// The horizon-loop limits of one run of `mode` on `workload`, on either
    /// front end: this configuration's cycle cap and per-cycle reference,
    /// and the run's `deadline`.
    pub fn limits<'a>(
        &self,
        workload: &'a str,
        mode: PrefetchMode,
        deadline: Option<Deadline>,
    ) -> Limits<'a> {
        Limits {
            workload,
            mode: mode.key(),
            max_cycles: self.max_cycles,
            per_cycle_reference: self.per_cycle_reference,
            deadline,
        }
    }

    /// Paper configuration driven by the per-cycle unit-tick reference
    /// loop (see [`SystemConfig::per_cycle_reference`]).
    pub fn paper_per_cycle() -> Self {
        SystemConfig {
            per_cycle_reference: true,
            ..SystemConfig::paper()
        }
    }

    /// Paper configuration with a different PPU count/clock (Figure 9).
    pub fn with_ppus(num_ppus: usize, ppu_hz: u64) -> Self {
        SystemConfig {
            pf: PrefetcherParams::with_ppus(num_ppus, ppu_hz),
            ..SystemConfig::paper()
        }
    }

    /// The configuration `mode` can actually read: every field the mode
    /// provably never reads is reset to its paper value, so two configs
    /// that differ only there project to the same one. Today that is
    /// `pf` for non-programmable modes — `make_engine`'s programmable
    /// arms are its only reader — and the identity otherwise. The sweep
    /// farm keys *and* runs every cell on this projection;
    /// `tests/sweep_farm.rs` is the tripwire for an engine that starts
    /// reading a projected field.
    pub fn effective_for(&self, mode: PrefetchMode) -> Self {
        SystemConfig {
            pf: if mode.is_programmable() {
                self.pf
            } else {
                PrefetcherParams::paper()
            },
            ..*self
        }
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = SystemConfig::paper();
        assert_eq!(c.core.rob_entries, 40);
        assert_eq!(c.core.width, 3);
        assert_eq!(c.mem.l1.size, 32 * 1024);
        assert_eq!(c.mem.l2.size, 1024 * 1024);
        assert_eq!(c.pf.num_ppus, 12);
        assert_eq!(c.pf.observation_queue, 40);
        assert_eq!(c.pf.request_queue, 200);
    }

    #[test]
    fn mode_labels_are_distinct() {
        use std::collections::HashSet;
        let labels: HashSet<_> = PrefetchMode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), PrefetchMode::ALL.len());
    }

    #[test]
    fn mode_keys_round_trip() {
        for m in PrefetchMode::ALL {
            assert_eq!(PrefetchMode::from_key(m.key()), Some(m));
            assert_eq!(m.key().parse::<PrefetchMode>(), Ok(m));
            assert_eq!(m.as_str(), m.key());
        }
        assert_eq!(PrefetchMode::from_key("nonsense"), None);
        assert!("nonsense".parse::<PrefetchMode>().is_err());
    }

    #[test]
    fn registry_subsets_are_within_all() {
        for m in PrefetchMode::FIGURE7.iter().chain(PrefetchMode::ZOO.iter()) {
            assert!(PrefetchMode::ALL.contains(m), "{m:?} missing from ALL");
        }
    }
}
