//! Task representation and life cycle.
//!
//! "The first stage of a task's life cycle is its creation, which involves
//! the memory allocator. The runtime then checks its data dependencies to
//! determine if the task is ready or blocked [...]. Once all its
//! dependencies are satisfied, the task becomes ready and is added to the
//! scheduler [...]. Once the task has executed, it releases its
//! dependencies so that its successor tasks may become ready." (§1)
//!
//! A task's life cycle is tracked by **one packed atomic word**
//! ([`TaskState`]): three bit-packed counters plus a flag bit, so every
//! completion-protocol step is a single `fetch_add`/`fetch_sub` against a
//! per-field constant instead of three separate atomics:
//!
//! * `blockers` (bits 0–19) — unsatisfied accesses + one *creation
//!   guard*; the transition to zero makes the task ready (exactly once).
//! * `live_children` (bits 20–43) — running direct children + one *body
//!   guard*; the transition to zero marks the task *fully done* (its
//!   subtree finished, recorded in the `FULLY_DONE` flag bit), which is
//!   when the parent is notified and taskwaits unblock.
//! * `removal_refs` (bits 44–61) — one per data access plus one for the
//!   subtree; the transition to zero allows the memory to be reclaimed.
//!   Accesses drop their reference when their Atomic State Machine
//!   reaches its terminal state (see [`crate::deps::wait_free`]), so a
//!   task object can outlive its execution while successors still read
//!   its access metadata — without any global reclamation scheme.
//! * `CANCELLED` (bit 62) — sticky flag set when a predecessor failed
//!   (or the task itself panicked): the body is skipped but the whole
//!   countdown/completion protocol above still runs, so poisoned
//!   subtrees drain without leaks or deadlock.
//!
//! Each field decrements independently because the protocol guarantees no
//! field ever underflows (a decrement would otherwise borrow into the
//! neighbouring field); under/overflow is asserted in debug builds. At
//! the 10^6–10^7-task graphs the runtime targets, the packed word plus
//! the demand-created [`BottomMap`] and the [`TaskCold`] side box keep
//! the task header small enough that a million in-flight tasks fit in a
//! couple hundred megabytes of slab-recycled memory.

use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::collections::HashMap;
use std::sync::Arc;

use crate::deps::AccessDecl;
use crate::deps::access::DataAccess;
use crate::runtime::TaskCtx;

/// Unique (per-runtime) task identifier.
pub type TaskId = u64;

/// Type-erased task body.
pub type TaskBody = Box<dyn FnOnce(&TaskCtx) + Send + 'static>;

/// Bottom map of a dependency domain: address → last access registered to
/// that address among this task's children. Thread-confined to the task's
/// executing thread (the *single-creator invariant*: only a task's own
/// body creates its children, as in OmpSs-2).
pub type BottomMap = HashMap<usize, *mut DataAccess>;

// --- Packed life-cycle word -----------------------------------------------

const BLOCKERS_SHIFT: u32 = 0;
const BLOCKERS_BITS: u32 = 20;
const CHILDREN_SHIFT: u32 = 20;
const CHILDREN_BITS: u32 = 24;
const REMOVAL_SHIFT: u32 = 44;
const REMOVAL_BITS: u32 = 18;
/// Flag bit: set when the task is poisoned (a transitive predecessor
/// failed, or its own body panicked). Sticky; the body is skipped but
/// the completion protocol still runs.
const CANCELLED: u64 = 1 << 62;
/// Flag bit: set (once) when `live_children` reached zero.
const FULLY_DONE: u64 = 1 << 63;

const fn field_max(bits: u32) -> u64 {
    (1u64 << bits) - 1
}

/// Total number of lazily-created bottom maps, process-wide. Leaf tasks
/// (the overwhelming majority of a graph) never create one;
/// `tests/scale_guards.rs` asserts exactly that.
static BOTTOM_MAPS_CREATED: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of demand-created child bottom maps (monotone).
pub fn bottom_maps_created() -> u64 {
    BOTTOM_MAPS_CREATED.load(Ordering::Relaxed)
}

/// The packed life-cycle word: `blockers`, `live_children` and
/// `removal_refs` bit-packed into one `AtomicU64` plus a `FULLY_DONE`
/// flag. Every transition is a single RMW against a per-field constant;
/// the three-counter protocol semantics (see the module doc) are
/// unchanged from the unpacked representation.
pub struct TaskState(AtomicU64);

impl TaskState {
    /// Largest representable `blockers` count (accesses + guard).
    pub const MAX_BLOCKERS: u64 = field_max(BLOCKERS_BITS);
    /// Largest representable `live_children` count (children + guard).
    pub const MAX_CHILDREN: u64 = field_max(CHILDREN_BITS);
    /// Largest representable `removal_refs` count (accesses + subtree).
    pub const MAX_REMOVAL_REFS: u64 = field_max(REMOVAL_BITS);

    const BLOCKER: u64 = 1 << BLOCKERS_SHIFT;
    const CHILD: u64 = 1 << CHILDREN_SHIFT;
    const REMOVAL: u64 = 1 << REMOVAL_SHIFT;

    #[inline]
    fn blockers_of(w: u64) -> u64 {
        (w >> BLOCKERS_SHIFT) & field_max(BLOCKERS_BITS)
    }

    #[inline]
    fn children_of(w: u64) -> u64 {
        (w >> CHILDREN_SHIFT) & field_max(CHILDREN_BITS)
    }

    #[inline]
    fn removal_of(w: u64) -> u64 {
        (w >> REMOVAL_SHIFT) & field_max(REMOVAL_BITS)
    }

    /// A state word with explicit per-field counts. Debug-asserts each
    /// count fits its bit field.
    pub fn with_counts(blockers: u64, live_children: u64, removal_refs: u64) -> Self {
        debug_assert!(blockers <= Self::MAX_BLOCKERS, "blockers overflow");
        debug_assert!(
            live_children <= Self::MAX_CHILDREN,
            "live_children overflow"
        );
        debug_assert!(
            removal_refs <= Self::MAX_REMOVAL_REFS,
            "removal_refs overflow"
        );
        Self(AtomicU64::new(
            (blockers << BLOCKERS_SHIFT)
                | (live_children << CHILDREN_SHIFT)
                | (removal_refs << REMOVAL_SHIFT),
        ))
    }

    /// Initial state of a dependency-registered task with `n_accesses`
    /// declared accesses: `n+1` blockers (creation guard), one
    /// live-children body guard, `n+1` removal refs (subtree ref).
    pub fn new_registered(n_accesses: usize) -> Self {
        let n = n_accesses as u64;
        Self::with_counts(n + 1, 1, n + 1)
    }

    /// Initial state of a *held* task (replay execution): readiness is
    /// one release call + the creation guard, no ASMs are materialized
    /// so reclamation needs only the subtree reference.
    pub fn new_held() -> Self {
        Self::with_counts(2, 1, 1)
    }

    /// Remove one blocker; returns true when the task just became ready
    /// (the field transitioned to zero).
    #[inline]
    pub fn unblock(&self) -> bool {
        let prev = self.0.fetch_sub(Self::BLOCKER, Ordering::AcqRel);
        debug_assert!(Self::blockers_of(prev) > 0, "blockers underflow");
        Self::blockers_of(prev) == 1
    }

    /// Account a new live child (called while the body guard is held).
    #[inline]
    pub fn add_child(&self) {
        let prev = self.0.fetch_add(Self::CHILD, Ordering::AcqRel);
        debug_assert!(
            Self::children_of(prev) >= 1,
            "child added to a finished task"
        );
        debug_assert!(
            Self::children_of(prev) < Self::MAX_CHILDREN,
            "live_children overflow"
        );
    }

    /// Drop one live-children reference. Returns true when the task just
    /// became *fully done* (also sets the `FULLY_DONE` flag).
    #[inline]
    pub fn drop_child_ref(&self) -> bool {
        let prev = self.0.fetch_sub(Self::CHILD, Ordering::AcqRel);
        debug_assert!(Self::children_of(prev) > 0, "live_children underflow");
        if Self::children_of(prev) == 1 {
            self.0.fetch_or(FULLY_DONE, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Outstanding live-children count (includes the body guard until
    /// the body finished).
    #[inline]
    pub fn pending_children(&self) -> usize {
        Self::children_of(self.0.load(Ordering::Acquire)) as usize
    }

    /// Drop one removal reference. Returns true when the memory may be
    /// reclaimed (the field transitioned to zero).
    #[inline]
    pub fn drop_removal_ref(&self) -> bool {
        let prev = self.0.fetch_sub(Self::REMOVAL, Ordering::AcqRel);
        debug_assert!(Self::removal_of(prev) > 0, "removal_refs underflow");
        Self::removal_of(prev) == 1
    }

    /// Whether the whole subtree has completed.
    #[inline]
    pub fn is_fully_done(&self) -> bool {
        self.0.load(Ordering::Acquire) & FULLY_DONE != 0
    }

    /// Poison the task: its body will be skipped, the completion
    /// protocol still runs. Idempotent (single `fetch_or`).
    #[inline]
    pub fn mark_cancelled(&self) {
        self.0.fetch_or(CANCELLED, Ordering::AcqRel);
    }

    /// Whether the task was poisoned by a failed predecessor (or its
    /// own panic).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire) & CANCELLED != 0
    }
}

/// Rarely-populated task fields, boxed behind one pointer-sized option
/// in [`Task`] so the common task pays 8 bytes instead of carrying both
/// fields inline. Recycled shells keep the box (contents cleared).
#[derive(Default)]
pub struct TaskCold {
    /// External completion signal, set just before the subtree reference
    /// is dropped. Used by `Runtime::run` to wait for the root task
    /// without touching task memory that may be reclaimed concurrently.
    pub completion_flag: Option<Arc<AtomicBool>>,
    /// Post-body hook + tag ([`crate::runtime::TaskEpilogue`]), run on
    /// the executing worker right after the body returns. The replay
    /// engine's steady-state seam: one shared `Arc` per iteration
    /// replaces a boxed wrapper closure per task.
    pub epilogue: Option<(Arc<dyn crate::runtime::TaskEpilogue>, u64)>,
}

/// A task: body + declared accesses + the packed life-cycle word.
///
/// Tasks are allocated through the runtime's
/// [`nanotask_alloc::RuntimeAllocator`] (recycled via the task slab) and
/// referenced by raw pointers inside the runtime; the reference-counting
/// protocol above makes the frees race-free.
pub struct Task {
    /// Unique id (also used as trace payload).
    pub id: TaskId,
    /// Human-readable label for traces/debugging.
    pub label: &'static str,
    /// Parent task; null for the root task.
    pub parent: *mut Task,
    /// Nesting level: 0 for the root task, `parent.level + 1` otherwise.
    /// Bounds the walk of [`Task::descends_from`].
    pub level: u32,
    /// Worker that created the task.
    pub created_by: u32,
    /// The body; taken exactly once by the executing worker.
    pub body: UnsafeCell<Option<TaskBody>>,
    /// Packed life-cycle word (blockers / live_children / removal_refs).
    pub state: TaskState,
    /// Declared accesses (modes resolved, reduction info attached during
    /// registration). Mutated only by the creator before the task is
    /// published and read afterwards.
    pub decls: UnsafeCell<Vec<AccessDecl>>,
    /// Wait-free system: array of `decls.len()` Atomic State Machines.
    /// Null when the locking dependency system is active.
    pub accesses: *mut DataAccess,
    /// Number of entries in `accesses`.
    pub n_accesses: usize,
    /// Dependency domain for this task's children (wait-free system).
    /// Demand-created on the first child registration: leaf tasks never
    /// allocate one.
    pub child_bottom: UnsafeCell<Option<Box<BottomMap>>>,
    /// Cold fields (completion flag, epilogue); `None` for the common
    /// task.
    pub cold: Option<Box<TaskCold>>,
    /// Scheduling priority (OmpSs-2 `priority` clause); higher runs
    /// earlier under [`crate::sched::Policy::Priority`]. Immutable after
    /// creation.
    pub priority: i32,
    /// Whether the task was registered with the dependency system.
    /// False for *held* tasks (replay execution): their `decls` are data
    /// for `red_slot` only, and the dependency system must not try to
    /// release them.
    pub registered: bool,
    /// Metrics: tracer-epoch timestamp of the (sampled) moment this task
    /// was handed to the scheduler — 0 when never stamped. Read and
    /// reset by the executing worker to measure ready-queue wait.
    pub ready_ns: u64,
}

unsafe impl Send for Task {}
unsafe impl Sync for Task {}

impl Task {
    /// Build a task object (not yet registered with the dependency
    /// system). `n_accesses`/`accesses` are filled in by the dependency
    /// system if it materializes ASMs.
    pub fn new(
        id: TaskId,
        label: &'static str,
        parent: *mut Task,
        created_by: u32,
        body: TaskBody,
        decls: Vec<AccessDecl>,
    ) -> Self {
        let n = decls.len();
        Task {
            id,
            label,
            parent,
            level: 0,
            created_by,
            body: UnsafeCell::new(Some(body)),
            state: TaskState::new_registered(n),
            decls: UnsafeCell::new(decls),
            accesses: core::ptr::null_mut(),
            n_accesses: 0,
            child_bottom: UnsafeCell::new(None),
            cold: None,
            priority: 0,
            registered: true,
            ready_ns: 0,
        }
    }

    /// Re-initialize a recycled shell in place for a new task, keeping
    /// the interior capacity the previous occupant accumulated (decls
    /// buffer, bottom map, cold box). The shell must have gone through
    /// [`Task::reset_for_recycle`].
    pub(crate) fn reinit_recycled(
        &mut self,
        id: TaskId,
        label: &'static str,
        parent: *mut Task,
        created_by: u32,
        body: TaskBody,
        decls: Vec<AccessDecl>,
    ) {
        let n = decls.len();
        self.id = id;
        self.label = label;
        self.parent = parent;
        self.created_by = created_by;
        *self.body.get_mut() = Some(body);
        self.state = TaskState::new_registered(n);
        let dv = self.decls.get_mut();
        debug_assert!(dv.is_empty(), "recycled shell with live decls");
        if !decls.is_empty() {
            *dv = decls;
        }
        self.accesses = core::ptr::null_mut();
        self.n_accesses = 0;
        self.priority = 0;
        self.registered = true;
        self.ready_ns = 0;
    }

    /// Clear a dead task into a recyclable shell: drop the *contents*
    /// (decl elements, bottom-map entries, cold fields) but keep the
    /// *containers* (decl buffer, map table, cold box) so the next
    /// occupant skips their allocations. The access array must already
    /// have been freed.
    pub(crate) fn reset_for_recycle(&mut self) {
        debug_assert!(self.accesses.is_null(), "access array leaked into recycle");
        *self.body.get_mut() = None;
        self.decls.get_mut().clear();
        if let Some(map) = self.child_bottom.get_mut().as_deref_mut() {
            map.clear();
        }
        if let Some(cold) = self.cold.as_deref_mut() {
            cold.completion_flag = None;
            cold.epilogue = None;
        }
        self.ready_ns = 0;
    }

    /// Declared accesses. Safe to read once the task is published (the
    /// creator no longer mutates them).
    ///
    /// # Safety
    /// Must not be called concurrently with the creator's registration.
    pub unsafe fn decls(&self) -> &[AccessDecl] {
        unsafe { &*self.decls.get() }
    }

    /// Remove one blocker; returns true when the task just became ready
    /// (transitioned to zero). The caller must then schedule it.
    #[inline]
    pub fn unblock(&self) -> bool {
        self.state.unblock()
    }

    /// Account a new live child (called by the creator, which is the
    /// task's own body — so the body guard is still held).
    #[inline]
    pub fn add_child(&self) {
        self.state.add_child();
    }

    /// Drop one live-children reference (a finished child, or the body
    /// guard). Returns true when the task just became *fully done*.
    #[inline]
    pub fn drop_child_ref(&self) -> bool {
        self.state.drop_child_ref()
    }

    /// Number of children currently outstanding (excludes the body guard
    /// once the body finished). Used by taskwait.
    #[inline]
    pub fn pending_children(&self) -> usize {
        self.state.pending_children()
    }

    /// Drop one removal reference. Returns true when the memory may be
    /// reclaimed (transitioned to zero).
    #[inline]
    pub fn drop_removal_ref(&self) -> bool {
        self.state.drop_removal_ref()
    }

    /// Whether `t` is a strict descendant of `scope`: `t`'s parent chain
    /// reaches `scope` after exactly `level(t) − level(scope)` hops.
    ///
    /// # Safety
    /// `t` and `scope` must point to live tasks. Every ancestor of a live
    /// task is live (a parent is not reclaimed before its children have
    /// finished), so the walk only touches live tasks.
    #[inline]
    pub unsafe fn descends_from(t: *const Task, scope: *const Task) -> bool {
        unsafe {
            let Some(hops) = (*t).level.checked_sub((*scope).level) else {
                return false;
            };
            let mut t = t;
            for _ in 0..hops {
                t = (*t).parent;
            }
            hops > 0 && core::ptr::eq(t, scope)
        }
    }

    /// Take the body for execution. Returns `None` if already taken.
    ///
    /// # Safety
    /// Only the worker that dequeued the task may call this.
    pub unsafe fn take_body(&self) -> Option<TaskBody> {
        unsafe { (*self.body.get()).take() }
    }

    /// Whether the whole subtree has completed.
    #[inline]
    pub fn is_fully_done(&self) -> bool {
        self.state.is_fully_done()
    }

    /// Poison the task (failed predecessor / own panic): skip the body,
    /// keep the completion protocol. Sticky and idempotent.
    #[inline]
    pub fn mark_cancelled(&self) {
        self.state.mark_cancelled();
    }

    /// Whether the task was poisoned.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.state.is_cancelled()
    }

    /// Attach the external completion signal (creator, before publish).
    pub fn set_completion_flag(&mut self, flag: Arc<AtomicBool>) {
        self.cold.get_or_insert_with(Box::default).completion_flag = Some(flag);
    }

    /// The external completion signal, if any.
    #[inline]
    pub fn completion_flag(&self) -> Option<&Arc<AtomicBool>> {
        self.cold.as_ref().and_then(|c| c.completion_flag.as_ref())
    }

    /// Attach the post-body epilogue hook (creator, before publish).
    pub fn set_epilogue(&mut self, epilogue: (Arc<dyn crate::runtime::TaskEpilogue>, u64)) {
        self.cold.get_or_insert_with(Box::default).epilogue = Some(epilogue);
    }

    /// Detach the epilogue for running (executing worker, post-body).
    #[inline]
    pub fn take_epilogue(&mut self) -> Option<(Arc<dyn crate::runtime::TaskEpilogue>, u64)> {
        match &mut self.cold {
            Some(c) => c.epilogue.take(),
            None => None,
        }
    }

    /// The child dependency domain, demand-created on first use.
    ///
    /// # Safety
    /// Thread-confined to the task's executing thread (single-creator
    /// invariant): only the task's own body registers children.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn child_bottom_or_init(&self) -> &mut BottomMap {
        let slot = unsafe { &mut *self.child_bottom.get() };
        slot.get_or_insert_with(|| {
            BOTTOM_MAPS_CREATED.fetch_add(1, Ordering::Relaxed);
            Box::default()
        })
    }

    /// The child dependency domain if any child ever registered.
    ///
    /// # Safety
    /// Same thread confinement as [`Task::child_bottom_or_init`].
    pub unsafe fn child_bottom_ref(&self) -> Option<&BottomMap> {
        unsafe { (*self.child_bottom.get()).as_deref() }
    }

    /// The ASM for access index `i` (wait-free system only).
    ///
    /// # Safety
    /// `i < n_accesses` and `accesses` non-null.
    pub unsafe fn access(&self, i: usize) -> &DataAccess {
        debug_assert!(i < self.n_accesses);
        unsafe { &*self.accesses.add(i) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::AccessMode;

    fn dummy(n_accesses: usize) -> Task {
        let decls = (0..n_accesses)
            .map(|i| AccessDecl::new(0x1000 + i * 8, 8, AccessMode::Write))
            .collect();
        Task::new(1, "t", core::ptr::null_mut(), 0, Box::new(|_| {}), decls)
    }

    #[test]
    fn becomes_ready_after_guard_and_accesses() {
        let t = dummy(2);
        assert!(!t.unblock()); // access 1 satisfied
        assert!(!t.unblock()); // access 2 satisfied
        assert!(t.unblock()); // creation guard dropped → ready
    }

    #[test]
    fn zero_access_task_ready_on_guard_drop() {
        let t = dummy(0);
        assert!(t.unblock());
    }

    #[test]
    fn fully_done_after_children_and_body() {
        let t = dummy(0);
        t.add_child();
        t.add_child();
        assert!(!t.drop_child_ref()); // child 1 done
        assert!(!t.drop_child_ref()); // child 2 done
        assert!(!t.is_fully_done());
        assert!(t.drop_child_ref()); // body guard
        assert!(t.is_fully_done());
    }

    #[test]
    fn removal_refs_count_accesses_plus_one() {
        let t = dummy(2);
        assert!(!t.drop_removal_ref());
        assert!(!t.drop_removal_ref());
        assert!(t.drop_removal_ref());
    }

    #[test]
    fn body_taken_once() {
        let t = dummy(0);
        unsafe {
            assert!(t.take_body().is_some());
            assert!(t.take_body().is_none());
        }
    }

    #[test]
    fn pending_children_tracks_guard() {
        let t = dummy(0);
        assert_eq!(t.pending_children(), 1); // body guard
        t.add_child();
        assert_eq!(t.pending_children(), 2);
        t.drop_child_ref();
        assert_eq!(t.pending_children(), 1);
    }

    #[test]
    fn packed_fields_decrement_independently() {
        // Interleave all three protocols on one word: no decrement may
        // disturb a neighbouring field.
        let s = TaskState::with_counts(2, 3, 4);
        assert!(!s.unblock());
        assert!(!s.drop_removal_ref());
        assert!(!s.drop_child_ref());
        assert_eq!(s.pending_children(), 2);
        assert!(s.unblock()); // blockers → 0
        assert!(!s.drop_child_ref());
        assert!(!s.drop_removal_ref());
        assert!(s.drop_child_ref()); // children → 0
        assert!(s.is_fully_done());
        assert!(!s.drop_removal_ref());
        assert!(s.drop_removal_ref()); // removal → 0
    }

    #[test]
    fn cancelled_bit_is_sticky_and_disturbs_no_counter() {
        let s = TaskState::with_counts(2, 2, 2);
        assert!(!s.is_cancelled());
        s.mark_cancelled();
        s.mark_cancelled(); // idempotent
        assert!(s.is_cancelled());
        // The full protocol still drains underneath the flag.
        assert!(!s.unblock());
        assert!(s.unblock());
        assert!(!s.drop_child_ref());
        assert!(s.drop_child_ref());
        assert!(s.is_fully_done());
        assert!(s.is_cancelled());
        assert!(!s.drop_removal_ref());
        assert!(s.drop_removal_ref());
    }

    #[test]
    fn recycled_shell_clears_cancelled_bit() {
        let mut t = dummy(0);
        t.mark_cancelled();
        assert!(t.is_cancelled());
        t.accesses = core::ptr::null_mut();
        t.reset_for_recycle();
        t.reinit_recycled(
            2,
            "t2",
            core::ptr::null_mut(),
            0,
            Box::new(|_| {}),
            Vec::new(),
        );
        assert!(!t.is_cancelled());
    }

    #[test]
    fn held_state_matches_protocol() {
        let s = TaskState::new_held();
        assert!(!s.unblock()); // creation guard
        assert!(s.unblock()); // the one release call
        assert!(s.drop_child_ref()); // body guard
        assert!(s.drop_removal_ref()); // subtree ref
    }

    #[test]
    fn leaf_task_has_no_bottom_map() {
        let t = dummy(0);
        unsafe {
            assert!(t.child_bottom_ref().is_none());
            let before = bottom_maps_created();
            t.child_bottom_or_init().insert(0x10, core::ptr::null_mut());
            assert_eq!(bottom_maps_created(), before + 1);
            assert_eq!(t.child_bottom_ref().unwrap().len(), 1);
            // Second use reuses the map.
            t.child_bottom_or_init().insert(0x20, core::ptr::null_mut());
            assert_eq!(bottom_maps_created(), before + 1);
        }
    }

    #[test]
    fn cold_box_holds_epilogue_and_flag() {
        let mut t = dummy(0);
        assert!(t.cold.is_none());
        assert!(t.take_epilogue().is_none());
        let flag = Arc::new(AtomicBool::new(false));
        t.set_completion_flag(Arc::clone(&flag));
        assert!(t.completion_flag().is_some());
        assert!(t.cold.is_some());
    }
}
