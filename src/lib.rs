//! # nanotask
//!
//! A from-scratch Rust reproduction of *Advanced Synchronization
//! Techniques for Task-based Runtime Systems* (Álvarez, Sala, Maroñas,
//! Roca, Beltran — PPoPP 2021): a Nanos6/OmpSs-2-style task runtime
//! whose three synchronization-heavy components are each implemented in
//! both the paper's optimized form and the baseline it replaced:
//!
//! * **Dependency system** — wait-free Atomic State Machines
//!   (`nanotask_core::deps::wait_free`) vs fine-grained locking
//!   (`nanotask_core::deps::locking`);
//! * **Scheduler** — SPSC ready-buffers + Delegation Ticket Lock
//!   (`nanotask_core::sched::sync_sched`, [`locks::DtLock`]) vs a central
//!   PTLock-protected queue vs work-stealing;
//! * **Allocator** — per-thread pooled slabs ([`alloc::PoolAllocator`])
//!   vs a lock-serialized system allocator.
//!
//! This facade crate re-exports the whole workspace and hosts the
//! runnable examples and cross-crate integration tests.
//!
//! ```
//! use nanotask::{Runtime, RuntimeConfig, Deps, SendPtr};
//!
//! let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
//! let total = Box::leak(Box::new(0u64)) as *mut u64;
//! let p = SendPtr::new(total);
//! rt.run(move |ctx| {
//!     for _ in 0..8 {
//!         // inout-chained tasks: the runtime serializes them.
//!         ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
//!             *p.get() += 1;
//!         });
//!     }
//! });
//! assert_eq!(unsafe { *total }, 8);
//! ```

/// Pooled / system / serialized allocators (§4).
pub use nanotask_alloc as alloc;
/// The task runtime: dependencies, schedulers, workers (§2–3).
pub use nanotask_core as runtime_core;
/// Lock designs: Ticket, PTLock, MCS, TWA, DTLock (§3.2–3.3).
pub use nanotask_locks as locks;
/// Metrics registry, Perfetto/Prometheus exporters, flight recorder.
pub use nanotask_obs as obs;
/// Task-graph record & replay for iterative applications.
pub use nanotask_replay as replay;
/// Bounded wait-free SPSC queue (§3.1).
pub use nanotask_spsc as spsc;
/// CTF-lite tracing, timelines, OS-noise injection (§5).
pub use nanotask_trace as trace;
/// The §6.1 benchmark applications.
pub use nanotask_workloads as workloads;

pub use nanotask_core::{
    Deps, DepsKind, FAULT_PANIC_PREFIX, FailureKind, FaultPlan, Platform, RedOp, RunOutcome,
    RunReport, Runtime, RuntimeConfig, RuntimeStats, SchedKind, SchedOpStats, SendPtr, TaskCtx,
    TaskFailure,
};
pub use nanotask_replay::{ReplayReport, RunIterative};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_work() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(1));
        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let d = std::sync::Arc::clone(&done);
        rt.run(move |_| d.store(true, std::sync::atomic::Ordering::SeqCst));
        assert!(done.load(std::sync::atomic::Ordering::SeqCst));
    }
}
