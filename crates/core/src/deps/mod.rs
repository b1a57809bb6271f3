//! Data dependency systems.
//!
//! Two interchangeable implementations of the same task-ordering
//! semantics, matching the paper's §6.2 ablation axis:
//!
//! * [`wait_free`] — the paper's contribution: per-access Atomic State
//!   Machines driven by message deliveries (fetch-OR), wait-free
//!   registration and release, full support for dependencies across
//!   nesting levels and reduction chains.
//! * [`locking`] — the *previous* Nanos6 design the paper replaced:
//!   per-address queues under sharded fine-grained locks.
//!
//! Both plug into the runtime through [`DependencySystem`].

pub mod access;
pub mod flags;
pub mod locking;
pub mod reduction;
pub mod wait_free;

use std::sync::Arc;

use crate::task::Task;
pub use reduction::RedOp;
use reduction::ReductionInfo;

/// How a task uses an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// `in`: concurrent with other reads, ordered after prior writes.
    Read,
    /// `out`: exclusive.
    Write,
    /// `inout`: exclusive.
    ReadWrite,
    /// Reduction: concurrent with same-op reductions, combined on exit.
    Reduction(RedOp),
}

impl AccessMode {
    /// The ASM type bits for this mode.
    pub fn type_bits(self) -> u64 {
        match self {
            AccessMode::Read => flags::TYPE_READ,
            AccessMode::Write => flags::TYPE_WRITE,
            AccessMode::ReadWrite => flags::TYPE_READWRITE,
            AccessMode::Reduction(_) => flags::TYPE_REDUCTION,
        }
    }

    /// True for `Reduction`.
    pub fn is_reduction(self) -> bool {
        matches!(self, AccessMode::Reduction(_))
    }

    /// The reduction operation, if any.
    pub fn red_op(self) -> Option<RedOp> {
        match self {
            AccessMode::Reduction(op) => Some(op),
            _ => None,
        }
    }
}

/// One declared access of a task.
#[derive(Clone)]
pub struct AccessDecl {
    /// Base address (the dependency key).
    pub addr: usize,
    /// Region length in bytes (used by reductions).
    pub len: usize,
    /// Access mode.
    pub mode: AccessMode,
    /// Reduction chain state, attached during registration.
    pub reduction: Option<Arc<ReductionInfo>>,
}

impl AccessDecl {
    /// Build a declaration.
    pub fn new(addr: usize, len: usize, mode: AccessMode) -> Self {
        Self {
            addr,
            len,
            mode,
            reduction: None,
        }
    }
}

/// Builder for a task's dependency list — the library-level equivalent of
/// the `in(...)/out(...)/inout(...)/reduction(...)` pragma clauses.
///
/// ```
/// use nanotask_core::{Deps, RedOp};
/// let x = 1.0f64;
/// let mut acc = 0.0f64;
/// let deps = Deps::new().read(&x).reduce(&acc, RedOp::SumF64);
/// assert_eq!(deps.len(), 2);
/// ```
#[derive(Default, Clone)]
pub struct Deps {
    list: Vec<AccessDecl>,
}

impl Deps {
    /// Empty dependency list.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(mut self, addr: usize, len: usize, mode: AccessMode) -> Self {
        debug_assert!(
            !self.list.iter().any(|d| d.addr == addr),
            "duplicate dependency on address {addr:#x}"
        );
        self.list.push(AccessDecl::new(addr, len, mode));
        self
    }

    /// Declare a read (`in`) dependency on `v`.
    pub fn read<T>(self, v: &T) -> Self {
        self.push(
            v as *const T as usize,
            core::mem::size_of::<T>(),
            AccessMode::Read,
        )
    }

    /// Declare a write (`out`) dependency on `v`.
    pub fn write<T>(self, v: &T) -> Self {
        self.push(
            v as *const T as usize,
            core::mem::size_of::<T>(),
            AccessMode::Write,
        )
    }

    /// Declare a read-write (`inout`) dependency on `v`.
    pub fn readwrite<T>(self, v: &T) -> Self {
        self.push(
            v as *const T as usize,
            core::mem::size_of::<T>(),
            AccessMode::ReadWrite,
        )
    }

    /// Declare a reduction on scalar `v`.
    pub fn reduce<T>(self, v: &T, op: RedOp) -> Self {
        self.push(
            v as *const T as usize,
            core::mem::size_of::<T>(),
            AccessMode::Reduction(op),
        )
    }

    /// Declare a read dependency on a raw address (multi-dependency use).
    pub fn read_addr(self, addr: usize) -> Self {
        self.push(addr, 0, AccessMode::Read)
    }

    /// Declare a write dependency on a raw address.
    pub fn write_addr(self, addr: usize) -> Self {
        self.push(addr, 0, AccessMode::Write)
    }

    /// Declare a read-write dependency on a raw address.
    pub fn readwrite_addr(self, addr: usize) -> Self {
        self.push(addr, 0, AccessMode::ReadWrite)
    }

    /// Declare a reduction over `len` bytes at a raw address.
    pub fn reduce_addr(self, addr: usize, len: usize, op: RedOp) -> Self {
        self.push(addr, len, AccessMode::Reduction(op))
    }

    /// Number of declared accesses.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if no accesses were declared.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Borrow the declaration list (inspection, e.g. graph capture).
    pub fn decls(&self) -> &[AccessDecl] {
        &self.list
    }

    /// Consume into the declaration list.
    pub fn into_decls(self) -> Vec<AccessDecl> {
        self.list
    }

    /// Rebuild a `Deps` from a previously captured declaration list
    /// (the replay system's re-record fallback path).
    pub fn from_decls(list: Vec<AccessDecl>) -> Self {
        Self { list }
    }
}

/// Which dependency implementation a runtime uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DepsKind {
    /// The paper's wait-free Atomic State Machine system (§2).
    #[default]
    WaitFree,
    /// The fine-grained-locking baseline ("w/o wait-free dependencies").
    Locking,
}

/// Callbacks the dependency systems raise into the runtime.
///
/// # Safety
/// Pointers are live tasks; `task_ready` may be called from any thread,
/// at most once per task; `task_free` exactly once when the last removal
/// reference drops.
pub unsafe trait DepHooks {
    /// The task's last blocker cleared: hand it to the scheduler.
    fn task_ready(&self, task: *mut Task);
    /// Several tasks lost their last blocker in one release operation
    /// (e.g. a completing writer waking a reader batch). The default
    /// forwards to [`DepHooks::task_ready`] per task; the runtime
    /// overrides it to hand the whole batch to the scheduler in one
    /// operation when batched release is enabled.
    fn task_ready_batch(&self, tasks: &[*mut Task]) {
        for &t in tasks {
            self.task_ready(t);
        }
    }
    /// All references dropped: reclaim the task's memory.
    fn task_free(&self, task: *mut Task);
    /// A dependency edge was discovered (successor/child link); used by
    /// the Figure 1 graph dump. `kind` is 0 = successor, 1 = child.
    fn edge(&self, _from: *mut Task, _to: *mut Task, _addr: usize, _kind: u8) {}
    /// Number of workers (for reduction slot sizing).
    fn nworkers(&self) -> usize;
    /// The allocator runtime objects (ASM arrays) are drawn from.
    fn allocator(&self) -> &dyn nanotask_alloc::RuntimeAllocator;
}

/// A pluggable dependency system.
///
/// # Safety
/// All methods take raw task pointers that must be live; `register` must
/// be called from the creating (parent-executing) thread — the
/// single-creator invariant both implementations rely on.
pub unsafe trait DependencySystem: Send + Sync {
    /// Register every declared access of `task`, linking it into the
    /// dependency structures. After this returns the creator must drop
    /// the creation guard (`Task::unblock`) and schedule if ready.
    ///
    /// # Safety
    /// `task` must be live and unpublished; the caller must be the thread
    /// executing the task's parent (single-creator invariant).
    unsafe fn register(&self, task: *mut Task, hooks: &dyn DepHooks);

    /// The task's body finished executing on the current thread.
    ///
    /// # Safety
    /// `task` must be live, registered, and its body returned; called
    /// exactly once, by the executing worker.
    unsafe fn body_done(&self, task: *mut Task, hooks: &dyn DepHooks);

    /// The task's whole subtree finished.
    ///
    /// # Safety
    /// `task` must be live with `body_done` already called and every
    /// child fully done; called exactly once.
    unsafe fn fully_done(&self, task: *mut Task, hooks: &dyn DepHooks);

    /// Implementation identifier.
    fn kind(&self) -> DepsKind;

    /// Delivery statistics snapshot: (accesses, deliveries, duplicates).
    /// Only the wait-free system delivers messages; the default is zero.
    fn delivery_stats(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }

    /// Clear run-scoped failure-propagation state at a run boundary
    /// (called by the runtime between runs, never concurrently with
    /// register/complete traffic). The wait-free system's POISON flags
    /// live on the per-run access chains and are reclaimed with the
    /// tasks, so the default is a no-op; the locking system's sticky
    /// poisoned address queues outlive their tasks by design (late
    /// registrants of the same run must still observe the failure) and
    /// are dropped here so the next run starts clean.
    fn reset_faults(&self) {}

    /// Barrier-scoped variant of [`DependencySystem::reset_faults`] for
    /// recovery *inside* a run: `parent`'s child dependency domain is
    /// still open (its body has not returned), so poison state reachable
    /// only through that domain — the wait-free system's chain-bottom
    /// accesses, which future registrants link after — is healed too.
    /// The default forwards to [`DependencySystem::reset_faults`], which
    /// covers the locking system's address queues.
    ///
    /// # Safety
    /// `parent` must be live, the caller must be the thread executing
    /// its body (single-creator invariant), and no tasks may be in
    /// flight (taskwait barrier): the reset clears otherwise-monotone
    /// ASM flag bits and must not race deliveries.
    unsafe fn reset_faults_under(&self, _parent: *mut Task) {
        self.reset_faults();
    }
}

/// Instantiate the dependency system of the given kind.
pub fn make_deps(kind: DepsKind) -> Arc<dyn DependencySystem> {
    match kind {
        DepsKind::WaitFree => Arc::new(wait_free::WaitFreeDeps::new()),
        DepsKind::Locking => Arc::new(locking::LockingDeps::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deps_builder_modes() {
        let a = 1u64;
        let b = 2u64;
        let c = 3.0f64;
        let deps = Deps::new().read(&a).write(&b).reduce(&c, RedOp::SumF64);
        let decls = deps.into_decls();
        assert_eq!(decls.len(), 3);
        assert_eq!(decls[0].mode, AccessMode::Read);
        assert_eq!(decls[0].addr, &a as *const u64 as usize);
        assert_eq!(decls[1].mode, AccessMode::Write);
        assert_eq!(decls[2].mode, AccessMode::Reduction(RedOp::SumF64));
        assert_eq!(decls[2].len, 8);
    }

    #[test]
    fn raw_addr_builders() {
        let deps = Deps::new()
            .read_addr(0x10)
            .write_addr(0x20)
            .readwrite_addr(0x30)
            .reduce_addr(0x40, 16, RedOp::SumU64);
        assert_eq!(deps.len(), 4);
        assert!(!deps.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate dependency")]
    #[cfg(debug_assertions)]
    fn duplicate_addr_panics_in_debug() {
        let a = 1u64;
        let _ = Deps::new().read(&a).write(&a);
    }

    #[test]
    fn mode_type_bits() {
        assert_eq!(AccessMode::Read.type_bits(), flags::TYPE_READ);
        assert_eq!(AccessMode::Write.type_bits(), flags::TYPE_WRITE);
        assert_eq!(AccessMode::ReadWrite.type_bits(), flags::TYPE_READWRITE);
        assert_eq!(
            AccessMode::Reduction(RedOp::SumF64).type_bits(),
            flags::TYPE_REDUCTION
        );
        assert!(AccessMode::Reduction(RedOp::SumF64).is_reduction());
        assert_eq!(AccessMode::Read.red_op(), None);
    }
}
