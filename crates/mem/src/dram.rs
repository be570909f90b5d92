//! DDR3-1600 bank/row timing model.
//!
//! Models the paper's `DDR3-1600 11-11-11-28 @ 800MHz` part: eight banks,
//! open-row policy, a shared data bus, and the CL/tRCD/tRP/tRAS timing
//! constraints. Requests to distinct banks overlap; row-buffer hits pay only
//! CAS latency. All times are converted from DRAM-bus cycles to core cycles
//! so the rest of the simulator runs in a single clock domain.
//!
//! This is intentionally simpler than a full DRAM simulator (no refresh, no
//! rank interleaving, FCFS per bank rather than FR-FCFS) — the behaviour the
//! evaluation depends on is (a) ~tens-of-ns latency, (b) bank-level
//! parallelism that rewards overlapped misses, and (c) finite bandwidth that
//! punishes gross over-fetching.

use crate::stats::DramStats;

/// DDR3 timing and geometry parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramParams {
    /// CAS latency in DRAM cycles.
    pub t_cl: u64,
    /// RAS-to-CAS delay in DRAM cycles.
    pub t_rcd: u64,
    /// Row precharge in DRAM cycles.
    pub t_rp: u64,
    /// Row active time in DRAM cycles.
    pub t_ras: u64,
    /// Column-to-column delay in DRAM cycles (back-to-back CAS to an open
    /// row).
    pub t_ccd: u64,
    /// Number of banks.
    pub banks: usize,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// DRAM bus cycles to burst one 64-byte line (BL8 on a 64-bit bus = 4).
    pub burst_cycles: u64,
    /// Core cycles per DRAM cycle (3.2 GHz core / 800 MHz bus = 4).
    pub core_cycles_per_dram_cycle: u64,
    /// Fixed controller + interconnect overhead in core cycles each way.
    pub controller_latency: u64,
}

impl DramParams {
    /// The paper's DDR3-1600 11-11-11-28 with a 3.2 GHz core clock.
    pub fn paper() -> Self {
        DramParams {
            t_cl: 11,
            t_rcd: 11,
            t_rp: 11,
            t_ras: 28,
            t_ccd: 4,
            banks: 8,
            row_bytes: 8192,
            burst_cycles: 4,
            core_cycles_per_dram_cycle: 4,
            controller_latency: 10,
        }
    }
}

impl Default for DramParams {
    fn default() -> Self {
        DramParams::paper()
    }
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// The DRAM device: accepts line requests and returns their completion time.
#[derive(Debug, Clone)]
pub struct Dram {
    params: DramParams,
    banks: Vec<Bank>,
    bus_free_at: u64,
    /// Traffic and row-buffer statistics.
    pub stats: DramStats,
}

impl Dram {
    /// Creates an idle DRAM with all rows closed.
    pub fn new(params: DramParams) -> Self {
        Dram {
            banks: vec![
                Bank {
                    open_row: None,
                    busy_until: 0
                };
                params.banks
            ],
            bus_free_at: 0,
            params,
            stats: DramStats::default(),
        }
    }

    /// Parameters in use.
    pub fn params(&self) -> &DramParams {
        &self.params
    }

    #[inline]
    fn bank_and_row(&self, line_addr: u64) -> (usize, u64) {
        let row_id = line_addr / self.params.row_bytes;
        let bank = (row_id as usize) % self.params.banks;
        let row = row_id / self.params.banks as u64;
        (bank, row)
    }

    /// Issues a line *read* arriving at core-cycle `now`; returns the core
    /// cycle at which the full line is available at the controller.
    pub fn access_read(&mut self, now: u64, line_addr: u64) -> u64 {
        self.stats.reads += 1;
        self.access(now, line_addr)
    }

    /// Issues a line *writeback* arriving at `now`; returns the core cycle at
    /// which the bank is free again (the requester never waits on it).
    pub fn access_write(&mut self, now: u64, line_addr: u64) -> u64 {
        self.stats.writes += 1;
        self.access(now, line_addr)
    }

    fn access(&mut self, now: u64, line_addr: u64) -> u64 {
        let cpd = self.params.core_cycles_per_dram_cycle;
        let (bank_idx, row) = self.bank_and_row(line_addr);
        let bank = &mut self.banks[bank_idx];

        let arrive = now + self.params.controller_latency;
        let start = arrive.max(bank.busy_until);
        if start > arrive {
            self.stats.queue_cycles += start - arrive;
        }

        let (array_cycles, row_hit) = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                (self.params.t_cl, true)
            }
            Some(_) => {
                self.stats.row_misses += 1;
                (
                    self.params.t_rp + self.params.t_rcd + self.params.t_cl,
                    false,
                )
            }
            None => {
                self.stats.row_misses += 1;
                (self.params.t_rcd + self.params.t_cl, false)
            }
        };
        bank.open_row = Some(row);

        let data_ready = start + array_cycles * cpd;
        // The shared data bus serialises bursts.
        let burst_start = data_ready.max(self.bus_free_at);
        if burst_start > data_ready {
            self.stats.queue_cycles += burst_start - data_ready;
        }
        let burst = self.params.burst_cycles * cpd;
        self.bus_free_at = burst_start + burst;
        // Row hits can pipeline at tCCD; activates hold the bank for tRC.
        bank.busy_until = if row_hit {
            start + self.params.t_ccd * cpd
        } else {
            let ras_done = start + self.params.t_ras.saturating_sub(self.params.t_rcd) * cpd;
            (start + self.params.t_ccd * cpd).max(ras_done)
        };

        burst_start + burst + self.params.controller_latency
    }

    /// Idle single-read latency in core cycles (closed row, empty bus).
    pub fn idle_read_latency(&self) -> u64 {
        let p = &self.params;
        2 * p.controller_latency
            + (p.t_rcd + p.t_cl + p.burst_cycles) * p.core_cycles_per_dram_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_latency_is_tens_of_ns() {
        let d = Dram::new(DramParams::paper());
        let lat = d.idle_read_latency();
        // 3.2GHz: 1 cycle = 0.3125ns. Expect roughly 40-60ns => 130-200 cycles.
        assert!(lat > 100 && lat < 250, "idle latency {lat} out of range");
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut d = Dram::new(DramParams::paper());
        let first = d.access_read(0, 0);
        // Same row, long after the first access completes.
        let t0 = 10_000;
        let hit = d.access_read(t0, 64) - t0;
        // Different row, same bank.
        let t1 = 20_000;
        let row_stride = d.params().row_bytes * d.params().banks as u64;
        let miss = d.access_read(t1, row_stride) - t1;
        assert!(hit < first, "row hit {hit} should beat cold {first}");
        assert!(hit < miss, "row hit {hit} should beat conflict {miss}");
        assert_eq!(d.stats.row_hits, 1);
        assert_eq!(d.stats.row_misses, 2);
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = Dram::new(DramParams::paper());
        let a = d.access_read(0, 0);
        let b = d.access_read(0, d.params().row_bytes); // next bank
                                                        // Bank-parallel: b completes well before 2x the single latency.
        assert!(b < a + d.idle_read_latency() / 2);
    }

    #[test]
    fn same_bank_serialises() {
        let mut d = Dram::new(DramParams::paper());
        let row_stride = d.params().row_bytes * d.params().banks as u64;
        let a = d.access_read(0, 0);
        let b = d.access_read(0, 2 * row_stride); // same bank, different row
        assert!(b > a, "bank conflict must serialise ({a} vs {b})");
        assert!(d.stats.queue_cycles > 0);
    }

    #[test]
    fn bus_bounds_bandwidth() {
        let mut d = Dram::new(DramParams::paper());
        // Saturate with many row hits to different banks.
        let mut last = 0;
        for i in 0..64 {
            last = d.access_read(0, i * 64);
        }
        // 64 lines x 16 core cycles of burst = at least 1024 cycles of bus.
        assert!(last >= 64 * 16, "bus must serialise bursts, got {last}");
    }

    #[test]
    fn reads_and_writes_counted() {
        let mut d = Dram::new(DramParams::paper());
        d.access_read(0, 0);
        d.access_write(0, 64);
        assert_eq!(d.stats.reads, 1);
        assert_eq!(d.stats.writes, 1);
        assert_eq!(d.stats.total_accesses(), 2);
    }
}
