//! The one driver, [`etpp_mem::drive()`], re-exported with its limits,
//! probe and visit attribution: [`crate::Core`] is one of its
//! [`FrontEnd`]s.

pub use etpp_mem::drive::{
    drive, FrontEnd, Limits, LivelockAbort, Probe, VisitCounts, LIVELOCK_THRESHOLD, LIVELOCK_WINDOW,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{Core, CoreParams};
    use crate::trace::TraceBuilder;
    use etpp_mem::{MemParams, MemoryImage, MemorySystem, NullEngine};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A load queue of zero entries can never issue the load: the core
    /// waits on a completion nothing will schedule. The driver names the
    /// deadlock at once instead of crawling one visit per cycle to
    /// `max_cycles` (whose message this test would then see).
    #[test]
    fn a_deadlocked_core_is_named_at_once() {
        let mut image = MemoryImage::new();
        let base = image.alloc(4096, 4096);
        let mut b = TraceBuilder::new();
        b.load(base, 1, [None, None]);
        let trace = b.build();
        let params = CoreParams {
            lq_entries: 0,
            ..CoreParams::paper()
        };
        let mut core = Core::new(params, &trace);
        let mut mem = MemorySystem::new(MemParams::paper(), image);
        let limits = Limits {
            workload: "one load",
            mode: "none",
            max_cycles: 1_000_000,
            per_cycle_reference: false,
            deadline: None,
        };
        let err = catch_unwind(AssertUnwindSafe(|| {
            drive(&mut core, &mut mem, &mut NullEngine, &limits, &mut ())
        }))
        .expect_err("a deadlocked core must abort");
        let msg = err.downcast_ref::<String>().expect("a message");
        assert!(
            msg.starts_with("deadlock at cycle 0 for one load / none:"),
            "{msg}"
        );
        assert!(msg.ends_with("(ROB head: op 0 (Load))"), "{msg}");
    }
}
