//! The watchdog layer: per-run deadlines and livelock detection for every
//! execution path in the simulator.
//!
//! Two independent guards live here:
//!
//! * A [`Deadline`] (from `etpp_mem`) is handed to
//!   [`crate::system::run_watched`] and the trace-replay loop, which
//!   poll it once per *driver visit* — never per simulated cycle — with
//!   the clock read strided to every 64th visit, so an armed deadline
//!   costs a null-check per visit and watched runs are bit-identical to
//!   unwatched ones (pinned by the equivalence suite). Once it expires,
//!   the run aborts with a typed [`Cancelled`] payload that the
//!   isolation layer ([`crate::faults::run_isolated_budgeted`])
//!   classifies as a `timeout` instead of a crash.
//!
//! * A [`LivelockDetector`] is armed *unconditionally* in the
//!   event-horizon driver loop. The driver's only prior runaway guard
//!   was the `max_cycles` assert — 2×10¹⁰ cycles away. A buggy
//!   `next_event_at` arm (or a degenerate config from a freshly widened
//!   ablation axis) that reports a horizon `<= now` degrades the driver
//!   to one-cycle-per-visit crawling, which is indistinguishable from a
//!   hang at any human timescale. Healthy horizons are strictly greater
//!   than `now` by construction, so the detector observes every visit's
//!   *raw* reported horizon and aborts with a named [`LivelockAbort`]
//!   diagnostic (cycle, winning [`HorizonSource`], engine mode, last K
//!   horizons) once [`LIVELOCK_THRESHOLD`] consecutive visits fail to
//!   advance it — a condition impossible in a healthy run, which keeps
//!   the always-armed detector observationally free.

use etpp_cpu::HorizonSource;
pub use etpp_mem::cancel::{Cancelled, Deadline};
use std::fmt;
use std::panic::panic_any;

/// Consecutive non-advancing visits before [`LivelockDetector`] aborts.
pub const LIVELOCK_THRESHOLD: u32 = 64;

/// Raw horizons kept in the livelock diagnostic's tail window.
pub const LIVELOCK_WINDOW: usize = 8;

/// Budget escalation factor for the single timeout retry: the second
/// attempt of a timed-out cell runs under `factor × budget` before the
/// cell is quarantined for good.
pub const BUDGET_ESCALATION: u32 = 4;

// ---------------------------------------------------------------------------
// Livelock detection
// ---------------------------------------------------------------------------

/// Typed panic payload of a livelock abort: the named diagnostic the
/// driver raises when the event horizon stops advancing.
#[derive(Debug, Clone)]
pub struct LivelockAbort {
    /// Benchmark name.
    pub workload: String,
    /// Engine-mode key.
    pub mode: String,
    /// Cycle the driver was stuck at.
    pub at_cycle: u64,
    /// The horizon source that "won" the stuck visits.
    pub source: HorizonSource,
    /// Consecutive visits whose horizon failed to advance.
    pub stalled_visits: u32,
    /// The last [`LIVELOCK_WINDOW`] raw horizons, oldest first.
    pub recent_horizons: Vec<u64>,
}

impl fmt::Display for LivelockAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "livelock: horizon stuck at cycle {} for {} consecutive visits \
             ({} / {}, winning source {}, last horizons {:?})",
            self.at_cycle,
            self.stalled_visits,
            self.workload,
            self.mode,
            self.source.key(),
            self.recent_horizons,
        )
    }
}

/// Watches the driver loop's reported horizons and aborts the run with
/// a [`LivelockAbort`] once they stop advancing. Armed on every run:
/// observation is two compares per visit, and the trigger condition is
/// impossible while the horizon invariant (`horizon > now`) holds, so
/// detection is free on healthy runs.
#[derive(Debug)]
pub struct LivelockDetector {
    stalled: u32,
    recent: [u64; LIVELOCK_WINDOW],
    seen: usize,
}

impl Default for LivelockDetector {
    fn default() -> Self {
        LivelockDetector::new()
    }
}

impl LivelockDetector {
    /// A fresh detector (one per run).
    pub fn new() -> Self {
        LivelockDetector {
            stalled: 0,
            recent: [0; LIVELOCK_WINDOW],
            seen: 0,
        }
    }

    /// Observes one driver visit's *raw* reported horizon (before the
    /// driver clamps it to `now + 1`). Aborts with a [`LivelockAbort`]
    /// after [`LIVELOCK_THRESHOLD`] consecutive visits whose horizon
    /// failed to exceed `now`.
    #[inline]
    pub fn observe(
        &mut self,
        now: u64,
        horizon: u64,
        source: HorizonSource,
        workload: &str,
        mode: &str,
    ) {
        if horizon > now {
            self.stalled = 0;
            return;
        }
        self.recent[self.seen % LIVELOCK_WINDOW] = horizon;
        self.seen += 1;
        self.stalled += 1;
        if self.stalled >= LIVELOCK_THRESHOLD {
            let mut recent_horizons = Vec::with_capacity(LIVELOCK_WINDOW.min(self.seen));
            let kept = LIVELOCK_WINDOW.min(self.seen);
            for i in 0..kept {
                recent_horizons.push(self.recent[(self.seen - kept + i) % LIVELOCK_WINDOW]);
            }
            panic_any(LivelockAbort {
                workload: workload.to_string(),
                mode: mode.to_string(),
                at_cycle: now,
                source,
                stalled_visits: self.stalled,
                recent_horizons,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn detector_fires_on_a_synthetic_non_advancing_horizon() {
        let mut d = LivelockDetector::new();
        let err = catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..LIVELOCK_THRESHOLD + 10 {
                // A buggy horizon arm keeps reporting `horizon == now`.
                d.observe(1000, 1000, HorizonSource::CoreProgress, "IntSort", "manual");
            }
        }))
        .expect_err("a stuck horizon must abort");
        let abort = err
            .downcast_ref::<LivelockAbort>()
            .expect("typed LivelockAbort payload");
        assert_eq!(abort.at_cycle, 1000);
        assert_eq!(abort.stalled_visits, LIVELOCK_THRESHOLD);
        assert_eq!(abort.source, HorizonSource::CoreProgress);
        assert_eq!(abort.recent_horizons, vec![1000; LIVELOCK_WINDOW]);
        assert!(abort.to_string().contains("livelock: horizon stuck"));
    }

    #[test]
    fn detector_resets_on_any_advancing_visit() {
        let mut d = LivelockDetector::new();
        for round in 0..3u64 {
            for _ in 0..LIVELOCK_THRESHOLD - 1 {
                d.observe(round, round, HorizonSource::MemEvent, "wl", "none");
            }
            // One healthy visit clears the streak.
            d.observe(round, round + 5, HorizonSource::MemEvent, "wl", "none");
        }
    }
}
