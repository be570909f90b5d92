//! Wall-clock deadlines for bounded-runtime simulation.
//!
//! A [`Deadline`] is a `Copy` instant fixed when a sweep attempt
//! starts. Execution layers poll it at *coarse* boundaries — one driver
//! visit, one replay host iteration — never per simulated cycle, and
//! [`Deadline::poll`] strides the (syscall-backed) clock read to every
//! [`CHECK_STRIDE`]th visit, so an armed deadline costs one
//! null-check per visit and an expired one aborts the run within a
//! bounded number of visits.
//!
//! Expiry is a typed panic payload ([`Cancelled`]) raised by
//! [`Deadline::check`]: the sweep farm's panic-isolation layer
//! (`etpp_sim::faults`) catches it, classifies the attempt as a
//! `timeout`, and quarantines the cell instead of crashing the worker.
//! A deadline that never expires is pure observation — watched runs are
//! bit-identical to unwatched ones (pinned by the equivalence suite).

use std::fmt;
use std::panic::panic_any;
use std::time::{Duration, Instant};

/// Visits between wall-clock polls in [`Deadline::poll`]. Power of two
/// (the stride is a mask); at typical visit rates this bounds abort
/// latency to well under a millisecond while keeping `Instant::now`
/// off the per-visit path.
pub const CHECK_STRIDE: u64 = 64;

/// Typed panic payload raised by [`Deadline::check`] once the deadline
/// has passed. Carried through `catch_unwind` so the isolation layer
/// can classify the abort as a timeout instead of seeing an opaque
/// string.
#[derive(Debug, Clone, Copy)]
pub struct Cancelled {
    /// Simulated cycle at which the expiry was observed (0 when the
    /// aborting layer has no cycle clock, e.g. a spin loop).
    pub at_cycle: u64,
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wall-clock budget exhausted at cycle {}", self.at_cycle)
    }
}

/// The wall-clock instant one run must finish by. Escalated retries do
/// not extend a deadline — they start a new one with a larger budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline(Instant);

impl Deadline {
    /// The deadline `budget` from now; `None` when that instant cannot
    /// be represented (the run is then unbounded).
    pub fn after(budget: Duration) -> Option<Self> {
        Instant::now().checked_add(budget).map(Deadline)
    }

    /// Aborts the current computation with a [`Cancelled`] payload if
    /// the deadline has passed. `at_cycle` stamps the diagnostic.
    pub fn check(self, at_cycle: u64) {
        if Instant::now() >= self.0 {
            panic_any(Cancelled { at_cycle });
        }
    }

    /// Per-visit poll: [`Deadline::check`] on every [`CHECK_STRIDE`]th
    /// `visit`. Cheap enough for once-per-driver-visit use; never call
    /// it per cycle.
    #[inline]
    pub fn poll(self, visit: u64, at_cycle: u64) {
        if visit & (CHECK_STRIDE - 1) == 0 {
            self.check(at_cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn deadline_fires_as_deadline_and_check_panics_typed() {
        let d = Deadline::after(Duration::ZERO).unwrap();
        let err = catch_unwind(AssertUnwindSafe(|| d.check(42))).unwrap_err();
        let c = err.downcast_ref::<Cancelled>().expect("typed payload");
        assert_eq!(c.at_cycle, 42);
        assert!(c.to_string().contains("budget exhausted"), "{c}");
    }

    #[test]
    fn poll_checks_only_on_the_stride() {
        let expired = Deadline::after(Duration::ZERO).unwrap();
        for visit in 1..CHECK_STRIDE {
            expired.poll(visit, 0); // off-stride visits never read the clock
        }
        let err = catch_unwind(AssertUnwindSafe(|| expired.poll(CHECK_STRIDE, 7))).unwrap_err();
        assert_eq!(err.downcast_ref::<Cancelled>().unwrap().at_cycle, 7);
    }

    #[test]
    fn generous_budget_never_fires() {
        let generous = Deadline::after(Duration::from_secs(3600)).unwrap();
        generous.check(0);
        for visit in 0..1000 {
            generous.poll(visit, visit); // must not panic
        }
    }

    #[test]
    fn unrepresentable_budget_gives_no_deadline() {
        assert_eq!(Deadline::after(Duration::MAX), None);
    }
}
