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

use core::mem::MaybeUninit;
use nanotask_obs::Registry;
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

/// Declarations a [`Deps`] holds without a heap allocation: the most
/// any in-tree workload declares (Heat's stencil: own block, four
/// neighbours, the residual reduction).
const INLINE_DECLS: usize = 6;

/// Builder for a task's dependency list — the library-level equivalent of
/// the `in(...)/out(...)/inout(...)/reduction(...)` pragma clauses.
///
/// Up to 6 declarations live inline, so building and spawning them makes
/// no heap allocation; a 7th moves the list to the heap. An empty list
/// is one length word.
///
/// ```
/// use nanotask_core::{Deps, RedOp};
/// let x = 1.0f64;
/// let mut acc = 0.0f64;
/// let deps = Deps::new().read(&x).reduce(&acc, RedOp::SumF64);
/// assert_eq!(deps.len(), 2);
/// ```
pub struct Deps {
    len: usize,
    /// `len <= INLINE_DECLS`: the first `len` slots are initialized.
    /// Otherwise the first slot's bytes hold a `Vec` of all `len`.
    slots: [MaybeUninit<AccessDecl>; INLINE_DECLS],
}

const _: () = assert!(size_of::<Vec<AccessDecl>>() <= size_of::<AccessDecl>());

impl Default for Deps {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Deps {
    fn clone(&self) -> Self {
        Self::from_decls(self.decls().iter().cloned())
    }
}

impl Drop for Deps {
    fn drop(&mut self) {
        if self.spilled() {
            // SAFETY: a spilled list keeps its `Vec` in the first slot.
            unsafe { self.spill_ptr().drop_in_place() }
        } else {
            // SAFETY: the first `len` slots are initialized.
            unsafe {
                core::ptr::slice_from_raw_parts_mut(self.inline_ptr(), self.len).drop_in_place()
            }
        }
    }
}

impl Deps {
    /// Empty dependency list.
    #[inline]
    pub fn new() -> Self {
        Self {
            len: 0,
            slots: [const { MaybeUninit::uninit() }; INLINE_DECLS],
        }
    }

    #[inline]
    fn spilled(&self) -> bool {
        self.len > INLINE_DECLS
    }

    #[inline]
    fn inline_ptr(&mut self) -> *mut AccessDecl {
        self.slots.as_mut_ptr().cast()
    }

    #[inline]
    fn spill_ptr(&mut self) -> *mut Vec<AccessDecl> {
        self.slots.as_mut_ptr().cast()
    }

    /// Append a declaration; duplicates are the caller's concern.
    fn push_decl(&mut self, d: AccessDecl) {
        if self.len < INLINE_DECLS {
            self.slots[self.len].write(d);
        } else if self.len == INLINE_DECLS {
            let mut v = Vec::with_capacity(2 * INLINE_DECLS);
            // SAFETY: all inline slots are initialized and move out once;
            // the `Vec` then takes over the first slot's bytes.
            unsafe {
                v.extend(self.slots.iter().map(|s| s.assume_init_read()));
                v.push(d);
                self.spill_ptr().write(v);
            }
        } else {
            // SAFETY: a spilled list keeps its `Vec` in the first slot.
            unsafe { (*self.spill_ptr()).push(d) };
        }
        self.len += 1;
    }

    #[inline]
    fn push(mut self, addr: usize, len: usize, mode: AccessMode) -> Self {
        debug_assert!(
            !self.decls().iter().any(|d| d.addr == addr),
            "duplicate dependency on address {addr:#x}"
        );
        self.push_decl(AccessDecl::new(addr, len, mode));
        self
    }

    /// Declare a read (`in`) dependency on `v`.
    #[inline]
    pub fn read<T>(self, v: &T) -> Self {
        self.push(
            v as *const T as usize,
            core::mem::size_of::<T>(),
            AccessMode::Read,
        )
    }

    /// Declare a write (`out`) dependency on `v`.
    #[inline]
    pub fn write<T>(self, v: &T) -> Self {
        self.push(
            v as *const T as usize,
            core::mem::size_of::<T>(),
            AccessMode::Write,
        )
    }

    /// Declare a read-write (`inout`) dependency on `v`.
    #[inline]
    pub fn readwrite<T>(self, v: &T) -> Self {
        self.push(
            v as *const T as usize,
            core::mem::size_of::<T>(),
            AccessMode::ReadWrite,
        )
    }

    /// Declare a reduction on scalar `v`.
    #[inline]
    pub fn reduce<T>(self, v: &T, op: RedOp) -> Self {
        self.push(
            v as *const T as usize,
            core::mem::size_of::<T>(),
            AccessMode::Reduction(op),
        )
    }

    /// Declare a read dependency on a raw address (multi-dependency use).
    #[inline]
    pub fn read_addr(self, addr: usize) -> Self {
        self.push(addr, 0, AccessMode::Read)
    }

    /// Declare a write dependency on a raw address.
    #[inline]
    pub fn write_addr(self, addr: usize) -> Self {
        self.push(addr, 0, AccessMode::Write)
    }

    /// Declare a read-write dependency on a raw address.
    #[inline]
    pub fn readwrite_addr(self, addr: usize) -> Self {
        self.push(addr, 0, AccessMode::ReadWrite)
    }

    /// Declare a reduction over `len` bytes at a raw address.
    #[inline]
    pub fn reduce_addr(self, addr: usize, len: usize, op: RedOp) -> Self {
        self.push(addr, len, AccessMode::Reduction(op))
    }

    /// Number of declared accesses.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no accesses were declared.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow the declaration list (inspection, e.g. graph capture), in
    /// declaration order.
    #[inline]
    pub fn decls(&self) -> &[AccessDecl] {
        let p = self.slots.as_ptr();
        // SAFETY: see `slots`: the `Vec` in a spilled list, else the
        // first `len` slots.
        unsafe {
            if self.spilled() {
                &*p.cast::<Vec<AccessDecl>>()
            } else {
                core::slice::from_raw_parts(p.cast(), self.len)
            }
        }
    }

    /// Rebuild a `Deps` from declarations, e.g. a captured list (the
    /// replay system's re-record fallback path). Unlike the builder
    /// methods, it accepts several declarations of one address.
    pub fn from_decls(list: impl IntoIterator<Item = AccessDecl>) -> Self {
        let mut deps = Self::new();
        for d in list {
            deps.push_decl(d);
        }
        deps
    }

    /// Move the declarations onto the end of `out`, leaving `self`
    /// empty. `out` keeps its buffer: once it has held one list, it
    /// holds any list of up to 6 without a new allocation. Taking by
    /// reference spares the spawn path a copy of the inline slots per
    /// call it passes through.
    pub(crate) fn take_into(&mut self, out: &mut Vec<AccessDecl>) {
        let n = core::mem::replace(&mut self.len, 0);
        if n > INLINE_DECLS {
            // SAFETY: a spilled list keeps its `Vec` in the first slot;
            // `len` is 0 now, so it moves out once.
            out.extend(unsafe { self.spill_ptr().read() });
        } else if n > 0 {
            out.reserve(n.max(INLINE_DECLS));
            // SAFETY: the first `n` slots are initialized and move out
            // once (`len` is 0 now); `out` has room for them.
            unsafe {
                core::ptr::copy_nonoverlapping(
                    self.inline_ptr(),
                    out.as_mut_ptr().add(out.len()),
                    n,
                );
                out.set_len(out.len() + n);
            }
        }
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
    /// All references dropped: reclaim the task's memory.
    fn task_free(&self, task: *mut Task);
    /// A dependency edge was discovered (successor/child link); used by
    /// the Figure 1 graph dump. `kind` is 0 = successor, 1 = child.
    fn edge(&self, _from: *mut Task, _to: *mut Task, _addr: usize, _kind: u8) {}
    /// Number of workers (for reduction slot sizing).
    fn nworkers(&self) -> usize;
    /// The calling worker's id: the metric shard its counts go to.
    fn worker(&self) -> usize;
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

/// Instantiate the dependency system of the given kind. Both count
/// their accesses in `reg`; the wait-free system also counts its
/// deliveries there.
pub fn make_deps(kind: DepsKind, reg: &Registry) -> Arc<dyn DependencySystem> {
    match kind {
        DepsKind::WaitFree => Arc::new(wait_free::WaitFreeDeps::new(reg)),
        DepsKind::Locking => Arc::new(locking::LockingDeps::new(reg)),
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
        let decls = deps.decls();
        assert_eq!(decls.len(), 3);
        assert_eq!(decls[0].mode, AccessMode::Read);
        assert_eq!(decls[0].addr, &a as *const u64 as usize);
        assert_eq!(decls[1].mode, AccessMode::Write);
        assert_eq!(decls[2].mode, AccessMode::Reduction(RedOp::SumF64));
        assert_eq!(decls[2].len, 8);
    }

    /// 0 and 6 declarations stay inline, a 7th spills to the heap;
    /// every size keeps declaration order through `decls`, `Clone` and
    /// `from_decls`, which also takes a duplicate address.
    #[test]
    fn inline_and_spilled_lists() {
        let build = |n: usize| {
            (0..n).fold(Deps::new(), |d, i| {
                if i % 2 == 0 {
                    d.read_addr(0x100 + i * 8)
                } else {
                    d.reduce_addr(0x100 + i * 8, 8, RedOp::SumF64)
                }
            })
        };
        for n in [0, 6, 7] {
            let deps = build(n);
            assert_eq!(deps.len(), n);
            assert_eq!(deps.is_empty(), n == 0);
            assert_eq!(deps.spilled(), n > INLINE_DECLS);
            let addrs: Vec<usize> = (0..n).map(|i| 0x100 + i * 8).collect();
            let of = |d: &[AccessDecl]| d.iter().map(|d| d.addr).collect::<Vec<_>>();
            assert_eq!(of(deps.decls()), addrs);
            let copy = deps.clone();
            drop(deps);
            assert_eq!(of(copy.decls()), addrs);
            assert!(
                copy.decls()
                    .iter()
                    .skip(1)
                    .step_by(2)
                    .all(|d| d.mode.is_reduction())
            );
            let list = copy.decls().to_vec();
            assert_eq!(of(&list), addrs);
            let back = Deps::from_decls(list);
            assert_eq!(of(back.decls()), addrs);
        }
        // Seven declarations of one address: allowed here, spilled.
        let arc = Arc::new(ReductionInfo::new(0x40, 8, RedOp::SumF64, 1));
        let mut dup = AccessDecl::new(0x40, 8, AccessMode::Reduction(RedOp::SumF64));
        dup.reduction = Some(Arc::clone(&arc));
        let deps = Deps::from_decls(vec![dup; 7]);
        assert_eq!(deps.len(), 7);
        assert!(deps.decls().iter().all(|d| d.addr == 0x40));
        assert_eq!(Arc::strong_count(&arc), 8);
        let copy = deps.clone();
        assert_eq!(Arc::strong_count(&arc), 15);
        drop((deps, copy));
        assert_eq!(Arc::strong_count(&arc), 1);
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
