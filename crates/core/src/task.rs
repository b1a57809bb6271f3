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
//!
//! A body of at most 48 bytes (8-aligned) lives in the shell, and the
//! declared accesses move into a decls buffer the shell keeps, so a
//! spawn makes no heap allocation; a larger body is boxed.

use core::cell::UnsafeCell;
use core::mem::MaybeUninit;
use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::deps::access::DataAccess;
use crate::deps::{AccessDecl, Deps};
use crate::fxhash::FxHashMap;
use crate::runtime::TaskCtx;

/// Unique (per-runtime) task identifier.
pub type TaskId = u64;

/// A boxed task body: what [`Task::set_body`] stores in place of a
/// closure too large or too aligned for the slot.
pub(crate) type TaskBody = Box<dyn FnOnce(&TaskCtx) + Send + 'static>;

/// Capacity of the in-shell body slot, in 8-byte words.
const BODY_WORDS: usize = 6;

const _: () = assert!(size_of::<TaskBody>() <= BODY_WORDS * 8 && align_of::<TaskBody>() <= 8);

/// How to use one closure type stored in a [`BodySlot`]: move it out
/// and `call` it, or `drop` it in place.
struct BodyVtable {
    call: unsafe fn(*mut u8, &TaskCtx),
    drop: unsafe fn(*mut u8),
}

/// The vtable of closure type `F`.
struct VtableOf<F>(core::marker::PhantomData<F>);

impl<F: FnOnce(&TaskCtx)> VtableOf<F> {
    const VTABLE: &'static BodyVtable = &BodyVtable {
        // SAFETY (both): `BodySlot` pairs this vtable only with an `F`
        // written at `p`, and calls an entry at most once per write.
        call: |p, ctx| unsafe { p.cast::<F>().read()(ctx) },
        drop: |p| unsafe { p.cast::<F>().drop_in_place() },
    };
}

/// A body in place: the closure's bytes and its type's vtable (`None`: empty).
pub(crate) struct BodySlot {
    words: MaybeUninit<[u64; BODY_WORDS]>,
    vtable: Option<&'static BodyVtable>,
}

/// Bottom map of a dependency domain: address → last access registered to
/// that address among this task's children. Thread-confined to the task's
/// executing thread (the *single-creator invariant*: only a task's own
/// body creates its children, as in OmpSs-2).
///
/// Keyed with [`FxHasher`](crate::fxhash::FxHasher), not SipHash: a
/// Heat spawn probes it about 8 times, and its keys are addresses the
/// program declared on its own data, so there is no adversary whose
/// crafted collisions SipHash would have to resist.
pub type BottomMap = FxHashMap<usize, *mut DataAccess>;

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
    /// The post-body hook of this task's *held* children
    /// ([`TaskCtx::set_held_epilogue`]), which each runs with its own
    /// [`Task::held`] tag: one per iteration on the replay root.
    pub(crate) held_epilogue: Option<Arc<dyn crate::runtime::TaskEpilogue>>,
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
    /// The body, in place; run (or dropped) exactly once by the
    /// executing worker.
    pub(crate) body: UnsafeCell<BodySlot>,
    /// Packed life-cycle word (blockers / live_children / removal_refs).
    pub state: TaskState,
    /// Declared accesses. Written by the creator before the task is
    /// published; a reduction declaration gets its chain state here from
    /// the locking system (on activation) or the replay feed, while the
    /// wait-free system keeps it on the access.
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
    /// Cold fields (completion flag, held-children epilogue); `None`
    /// for the common task.
    pub cold: Option<Box<TaskCold>>,
    /// Scheduling priority (OmpSs-2 `priority` clause); higher runs
    /// earlier under [`crate::sched::Policy::Priority`]. Immutable after
    /// creation.
    pub priority: i32,
    /// `None` for a task registered with the dependency system.
    /// `Some(tag)` for a *held* task (replay execution): its `decls` are
    /// kept but impose no ordering, the dependency system must not try
    /// to release them, and it runs its parent's held-children epilogue
    /// with `tag` (the replay engine's node index).
    pub(crate) held: Option<u32>,
}

// SAFETY: raw pointers follow the module doc's protocol; the body slot
// holds `Send` closures and is touched by one thread at a time.
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

impl Drop for Task {
    fn drop(&mut self) {
        // SAFETY: `&mut self` is the only access.
        unsafe { self.drop_body() };
    }
}

impl Task {
    /// Build a task object with an empty body slot (not yet registered
    /// with the dependency system), taking the declarations out of
    /// `deps`. `n_accesses`/`accesses` are filled in by the dependency
    /// system if it materializes ASMs.
    pub fn new(id: TaskId, label: &'static str, parent: *mut Task, deps: &mut Deps) -> Self {
        let n = deps.len();
        let mut decls = Vec::new();
        deps.take_into(&mut decls);
        Task {
            id,
            label,
            parent,
            level: 0,
            body: UnsafeCell::new(BodySlot {
                words: MaybeUninit::uninit(),
                vtable: None,
            }),
            state: TaskState::new_registered(n),
            decls: UnsafeCell::new(decls),
            accesses: core::ptr::null_mut(),
            n_accesses: 0,
            child_bottom: UnsafeCell::new(None),
            cold: None,
            priority: 0,
            held: None,
        }
    }

    /// Re-initialize a recycled shell in place for a new task, keeping
    /// the decls buffer, bottom map and cold box the previous occupants
    /// allocated: the declarations move out of `deps` into the kept
    /// buffer, which grows only for a list longer than any it held
    /// before. The shell must have
    /// gone through [`Task::reset_for_recycle`].
    pub(crate) fn reinit_recycled(
        &mut self,
        id: TaskId,
        label: &'static str,
        parent: *mut Task,
        deps: &mut Deps,
    ) {
        self.id = id;
        self.label = label;
        self.parent = parent;
        self.state = TaskState::new_registered(deps.len());
        let dv = self.decls.get_mut();
        debug_assert!(dv.is_empty(), "recycled shell with live decls");
        deps.take_into(dv);
        self.accesses = core::ptr::null_mut();
        self.n_accesses = 0;
        self.priority = 0;
        self.held = None;
    }

    /// Clear a dead task into a recyclable shell: drop the *contents*
    /// (a body that never ran, decl elements, bottom-map entries, cold
    /// fields) but keep the *containers* (decl buffer, map table, cold
    /// box) so the next occupant skips their allocations: a recycled
    /// spawn of up to 6 accesses reuses the decl buffer. The access
    /// array must already have been freed.
    pub(crate) fn reset_for_recycle(&mut self) {
        debug_assert!(self.accesses.is_null(), "access array leaked into recycle");
        // SAFETY: `&mut self` is the only access.
        unsafe { self.drop_body() };
        self.decls.get_mut().clear();
        if let Some(map) = self.child_bottom.get_mut().as_deref_mut() {
            map.clear();
        }
        if let Some(cold) = self.cold.as_deref_mut() {
            cold.completion_flag = None;
            cold.held_epilogue = None;
        }
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

    /// Store the body in the empty slot (creator, before publish): in
    /// place when `F` fits, else boxed as a [`TaskBody`] stored in place.
    pub(crate) fn set_body<F: FnOnce(&TaskCtx) + Send + 'static>(&mut self, f: F) {
        if size_of::<F>() > BODY_WORDS * 8 || align_of::<F>() > 8 {
            // A `TaskBody` fits (asserted at `BODY_WORDS`): one level deep.
            return self.set_body::<TaskBody>(Box::new(f));
        }
        let slot = self.body.get_mut();
        debug_assert!(slot.vtable.is_none(), "body slot already full");
        // SAFETY: `F` fits the slot's size and alignment (checked above).
        unsafe { slot.words.as_mut_ptr().cast::<F>().write(f) };
        slot.vtable = Some(VtableOf::<F>::VTABLE);
    }

    /// Run the body. The slot is emptied before the body is called, so a
    /// body that unwinds is dropped once, by the unwind.
    ///
    /// # Safety
    /// Only the worker that dequeued the task may call this.
    pub(crate) unsafe fn run_body(&self, ctx: &TaskCtx) {
        let slot = self.body.get();
        // SAFETY: the caller is the slot's only user (`# Safety`); a present
        // vtable matches `words`, and taking it first makes this the one use.
        let vtable = unsafe { (*slot).vtable.take() }.expect("task executed twice");
        unsafe { (vtable.call)((*slot).words.as_mut_ptr().cast(), ctx) }
    }

    /// Drop a body that will not run (a cancelled task, or a shell
    /// cleared before its body ran). No-op on an empty slot.
    ///
    /// # Safety
    /// Only the worker that dequeued or reclaims the task may call this.
    pub(crate) unsafe fn drop_body(&self) {
        let slot = self.body.get();
        // SAFETY: as in `run_body`.
        if let Some(vtable) = unsafe { (*slot).vtable.take() } {
            unsafe { (vtable.drop)((*slot).words.as_mut_ptr().cast()) }
        }
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

    /// The post-body hook of this task's held children, if any.
    #[inline]
    pub(crate) fn held_epilogue(&self) -> Option<&Arc<dyn crate::runtime::TaskEpilogue>> {
        self.cold.as_ref().and_then(|c| c.held_epilogue.as_ref())
    }

    /// The child dependency domain, demand-created on first use.
    ///
    /// # Safety
    /// Thread-confined to the task's executing thread (single-creator
    /// invariant): only the task's own body registers children.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn child_bottom_or_init(&self) -> &mut BottomMap {
        let slot = unsafe { &mut *self.child_bottom.get() };
        slot.get_or_insert_with(Box::default)
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
        let decls = (0..n_accesses).map(|i| AccessDecl::new(0x1000 + i * 8, 8, AccessMode::Write));
        Task::new(1, "t", core::ptr::null_mut(), &mut Deps::from_decls(decls))
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

    /// A body that never runs is dropped exactly once: by `drop_body`
    /// (a second call finds the slot empty), by the recycle reset, or
    /// with the shell. Bodies that run are covered by the runtime tests.
    #[test]
    fn body_slot_drops_an_unrun_body_once() {
        let capture = Arc::new(());
        let mut t = dummy(0);
        let c = Arc::clone(&capture);
        t.set_body(move |_| drop(c));
        assert_eq!(Arc::strong_count(&capture), 2);
        unsafe {
            t.drop_body();
            t.drop_body();
        }
        assert_eq!(Arc::strong_count(&capture), 1);
        // 56 bytes: the boxed fallback.
        let (c, pad) = (Arc::clone(&capture), [0u64; 6]);
        let body = move |_: &TaskCtx| drop((c, pad));
        assert_eq!(core::mem::size_of_val(&body), 56);
        t.set_body(body);
        t.reset_for_recycle();
        assert_eq!(Arc::strong_count(&capture), 1);
        let c = Arc::clone(&capture);
        t.set_body(move |_| drop(c));
        drop(t);
        assert_eq!(Arc::strong_count(&capture), 1);
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
        t.reinit_recycled(2, "t2", core::ptr::null_mut(), &mut Deps::new());
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
            t.child_bottom_or_init().insert(0x10, core::ptr::null_mut());
            assert_eq!(t.child_bottom_ref().unwrap().len(), 1);
            // Second use reuses the map.
            t.child_bottom_or_init().insert(0x20, core::ptr::null_mut());
            assert_eq!(t.child_bottom_ref().unwrap().len(), 2);
        }
    }

    #[test]
    fn cold_box_holds_epilogue_and_flag() {
        let mut t = dummy(0);
        assert!(t.cold.is_none());
        assert!(t.held_epilogue().is_none());
        let flag = Arc::new(AtomicBool::new(false));
        t.set_completion_flag(Arc::clone(&flag));
        assert!(t.completion_flag().is_some());
        assert!(t.cold.is_some());
    }
}
