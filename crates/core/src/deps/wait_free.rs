//! The wait-free dependency system (§2 of the paper).
//!
//! Every declared access is an Atomic State Machine: one monotone `u64`
//! flags word mutated exclusively through `fetch_or` *deliveries* of
//! [`Message`]s queued in a per-thread [`MailBox`] (Figure 2). A delivery
//! returns the exact `(old, new)` flag pair, and every protocol rule fires
//! on the unique delivery that *crosses* its monotone guard — so each
//! propagation happens exactly once, with no CAS retry loops at all.
//!
//! Wait-freedom (the paper's Lemma 2.3 bounds deliveries per access by
//! |F|): our delivery is a single unconditional `fetch_or`, and each
//! non-duplicate message sets at least one fresh bit of a finite flag set,
//! so registration and unregistration complete in a bounded number of
//! steps regardless of what other threads do.
//!
//! ## Protocol summary
//!
//! * **Registration** (creator thread, single-creator invariant): each
//!   access is appended to the parent domain's bottom map. A displaced
//!   predecessor gets `SUCC_LINKED` (+ successor-type hints); a chain head
//!   links under the parent's own access via `CHILD_LINKED`, or — with no
//!   predecessor at all — is seeded `READ_SAT | WRITE_SAT` directly.
//! * **Satisfiability** flows down chains: readers forward `READ_SAT`
//!   to reader successors *before* completing (reader concurrency);
//!   same-op reduction chains forward both satisfiabilities immediately
//!   (participants run concurrently on private slots); everything else
//!   waits for the predecessor's *full completion* (body finished, child
//!   subtree finished, fully satisfied — [`flags::is_fully_done`]).
//! * **Nesting**: a parent access forwards satisfiability to its child
//!   chain; when the parent task finishes creating children the domain
//!   closes (`NO_MORE_SUCC`), and the last access of each chain reports
//!   `CHILD_DONE` upward through `notify_up`.
//! * **Reductions**: `RED_TOKEN` travels along same-op chains; the
//!   delivery that moves satisfiability *out* of a chain folds the
//!   private slots into the target first.
//! * **Reclamation**: when an access's flags satisfy
//!   [`flags::is_terminal`] (no message can ever arrive again — all
//!   propagations it originated are acknowledged via the
//!   `flagsAfterPropagation` mechanism of Listing 2), the crossing
//!   delivery drops one removal reference of the owning task.

use core::alloc::Layout;
use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::access::{DataAccess, MailBox, Message};
use super::flags::{self, crossed};
use super::reduction::ReductionInfo;
use super::{AccessMode, DepHooks, DependencySystem, DepsKind};
use crate::task::Task;

/// Counters for the §2 wait-freedom evidence (`delivery_bound` test) and
/// the dependency microbenchmarks.
#[derive(Debug, Default)]
pub struct WaitFreeStats {
    /// Registered accesses.
    pub accesses: AtomicU64,
    /// Non-duplicate message deliveries.
    pub deliveries: AtomicU64,
    /// Messages that were duplicates (no bit changed).
    pub duplicates: AtomicU64,
}

/// The wait-free dependency system.
pub struct WaitFreeDeps {
    stats: WaitFreeStats,
}

impl WaitFreeDeps {
    /// Create the system.
    pub fn new() -> Self {
        Self {
            stats: WaitFreeStats::default(),
        }
    }

    /// Deliver one message: a single fetch-OR plus crossing-rule
    /// evaluation. New messages go to `mb`.
    ///
    /// # Safety
    /// `a_ptr` must point to a live access (guaranteed by the terminal
    /// protocol: a message in flight keeps its target non-terminal).
    unsafe fn deliver(
        &self,
        a_ptr: *mut DataAccess,
        add: u64,
        mb: &mut MailBox,
        hooks: &dyn DepHooks,
    ) {
        debug_assert!(!a_ptr.is_null());
        debug_assert_ne!(add, 0);
        let a = unsafe { &*a_ptr };
        let old = a.flags.fetch_or(add, Ordering::AcqRel);
        let new = old | add;
        if old == new {
            self.stats.duplicates.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.stats.deliveries.fetch_add(1, Ordering::Relaxed);

        // Rule 0: poison — a predecessor's failure reached this access.
        // On blocking edges the poisoned message *is* the releasing
        // satisfiability, so the mark always lands before Rule 1 can
        // hand the task to the scheduler. An access that was already
        // satisfied before this delivery belongs to a task that may
        // legitimately be running (reader concurrency, same-op reduction
        // chains): it is *not* cancelled — the access keeps the POISON
        // bit and still forwards it down-chain (Rule 6), so blocking
        // successors are poisoned either way.
        if old & flags::POISON == 0 && new & flags::POISON != 0 && !flags::is_satisfied(old) {
            unsafe { (*a.task).mark_cancelled() };
        }

        // Rule 1: readiness — the owning task lost one blocker. One
        // completion's `deliver_all` may fire this for many successors
        // (e.g. a writer releasing a reader batch); the runtime's hooks
        // collect them during the completion window and hand them to the
        // scheduler as one batch when batched release is enabled.
        if crossed(old, new, flags::is_satisfied) {
            debug_assert_eq!(new & flags::COMPLETE, 0, "satisfied after completion");
            let t = unsafe { &*a.task };
            if t.unblock() {
                hooks.task_ready(a.task);
            }
        }

        // Rule 2: early read forwarding (reader concurrency / red chains).
        if crossed(old, new, flags::early_read_guard) {
            let succ = a.successor.load(Ordering::Acquire);
            mb.push(Message::with_ack(
                succ,
                flags::READ_SAT,
                a_ptr,
                flags::ACK_R_SUCC,
            ));
        }

        // Rule 3: early write forwarding along same-op reduction chains.
        if crossed(old, new, flags::early_write_guard) {
            let succ = a.successor.load(Ordering::Acquire);
            mb.push(Message::with_ack(
                succ,
                flags::WRITE_SAT,
                a_ptr,
                flags::ACK_W_SUCC_EARLY,
            ));
        }

        // Rules 4/5: forward satisfiability into the child chain.
        if crossed(old, new, flags::child_read_guard) {
            let child = a.child.load(Ordering::Acquire);
            mb.push(Message::with_ack(
                child,
                flags::READ_SAT,
                a_ptr,
                flags::ACK_R_CHILD,
            ));
        }
        if crossed(old, new, flags::child_write_guard) {
            let child = a.child.load(Ordering::Acquire);
            mb.push(Message::with_ack(
                child,
                flags::WRITE_SAT,
                a_ptr,
                flags::ACK_W_CHILD,
            ));
        }

        // Rule 6: final propagation to the successor.
        if crossed(old, new, flags::succ_final_guard) {
            // Leaving a reduction chain: fold private slots first.
            // Invariant (not user-reachable): `register` attaches
            // `ReductionInfo` to every access whose TYPE bits say
            // reduction before the access is published on a chain, so a
            // reduction-typed state word implies the info is present.
            if flags::is_reduction(new) && new & flags::SUCC_SAME_RED == 0 {
                let info = a.reduction.as_ref().expect("reduction access without info");
                unsafe { info.combine_into_target() };
            }
            let succ = a.successor.load(Ordering::Acquire);
            let mut f = flags::READ_SAT | flags::WRITE_SAT;
            // A reduction successor starts (or continues) a chain: give it
            // the token that says every earlier chain member finished.
            if new & (flags::SUCC_RED | flags::SUCC_SAME_RED) != 0 {
                f |= flags::RED_TOKEN;
            }
            // Failure propagation: the final message is the only one that
            // carries poison (early forwards target accesses whose tasks
            // may already run).
            if new & flags::POISON != 0 {
                f |= flags::POISON;
            }
            mb.push(Message::with_ack(succ, f, a_ptr, flags::ACK_SUCC));
        }

        // Rule 7: domain closed with no successor — report upward.
        if crossed(old, new, flags::parent_notify_guard) {
            // Same registration invariant as Rule 6 above.
            if flags::is_reduction(new) && new & flags::UP_SAME_RED == 0 {
                let info = a.reduction.as_ref().expect("reduction access without info");
                unsafe { info.combine_into_target() };
            }
            if new & flags::HAS_NOTIFY_UP != 0 {
                let up = a.notify_up.load(Ordering::Acquire);
                mb.push(Message::with_ack(
                    up,
                    flags::CHILD_DONE,
                    a_ptr,
                    flags::ACK_PARENT,
                ));
            } else {
                // Root/orphan chain end: self-acknowledge so the terminal
                // predicate is uniform.
                mb.push(Message::oneway(a_ptr, flags::ACK_PARENT));
            }
        }

        // Rule 8: terminal — no further message can ever arrive.
        if crossed(old, new, flags::is_terminal) {
            let t = a.task;
            if unsafe { &*t }.drop_removal_ref() {
                hooks.task_free(t);
            }
        }
    }

    /// Drain the mailbox to empty (the Figure 2 loop).
    ///
    /// # Safety
    /// Messages must target live accesses (protocol invariant).
    pub unsafe fn deliver_all(&self, mb: &mut MailBox, hooks: &dyn DepHooks) {
        while let Some(m) = mb.pop() {
            if !m.to.is_null() && m.flags_for_next != 0 {
                unsafe { self.deliver(m.to, m.flags_for_next, mb, hooks) };
            }
            if !m.from.is_null() && m.flags_after != 0 {
                unsafe { self.deliver(m.from, m.flags_after, mb, hooks) };
            }
        }
    }

    /// Find the parent's own access (ASM) for `addr`, if declared.
    unsafe fn parent_access(parent: *mut Task, addr: usize) -> *mut DataAccess {
        if parent.is_null() {
            return core::ptr::null_mut();
        }
        let p = unsafe { &*parent };
        if p.accesses.is_null() {
            return core::ptr::null_mut();
        }
        let decls = unsafe { p.decls() };
        for (i, d) in decls.iter().enumerate() {
            if d.addr == addr {
                return unsafe { p.accesses.add(i) };
            }
        }
        core::ptr::null_mut()
    }
}

impl Default for WaitFreeDeps {
    fn default() -> Self {
        Self::new()
    }
}

unsafe impl DependencySystem for WaitFreeDeps {
    unsafe fn register(&self, task: *mut Task, hooks: &dyn DepHooks) {
        let t = unsafe { &mut *task };
        let decls = unsafe { &mut *t.decls.get() };
        let n = decls.len();
        if n == 0 {
            return;
        }
        self.stats.accesses.fetch_add(n as u64, Ordering::Relaxed);
        let alloc = hooks.allocator();
        // Invariant (not user-reachable in practice): `Layout::array`
        // only fails when `n * size_of::<DataAccess>()` overflows
        // `isize`, i.e. an access list of ~10^17 entries — allocation
        // would fail long before. Kept as `expect` rather than a typed
        // error so the wait-free registration path stays infallible.
        let layout = Layout::array::<DataAccess>(n).expect("access array layout");
        let arr = alloc.alloc(layout) as *mut DataAccess;
        t.accesses = arr;
        t.n_accesses = n;

        let parent = t.parent;
        // The parent's child bottom map is thread-confined to us (the
        // single-creator invariant: we *are* the parent's body). This is
        // the demand-creation site: a task only pays for a map once it
        // registers a child with accesses (leaf tasks never do).
        let bottom = unsafe { (*parent).child_bottom_or_init() };
        let mut mb = MailBox::new();

        for (i, d) in decls.iter_mut().enumerate() {
            let a_ptr = unsafe { arr.add(i) };
            // Resolve reduction chain state before publication.
            let red: Option<Arc<ReductionInfo>> = match d.mode {
                AccessMode::Reduction(op) => {
                    // Share the predecessor's chain when compatible.
                    let prev_info = bottom
                        .get(&d.addr)
                        .map(|&p| unsafe { &*p })
                        .and_then(|p| p.reduction.as_ref())
                        .filter(|info| info.op == op)
                        .cloned();
                    let inherited = prev_info.or_else(|| {
                        // Chain head: share the parent's access chain if it
                        // is a same-op reduction.
                        if bottom.contains_key(&d.addr) {
                            return None;
                        }
                        let pa = unsafe { Self::parent_access(parent, d.addr) };
                        if pa.is_null() {
                            return None;
                        }
                        unsafe { &*pa }
                            .reduction
                            .as_ref()
                            .filter(|info| info.op == op)
                            .cloned()
                    });
                    Some(inherited.unwrap_or_else(|| {
                        Arc::new(ReductionInfo::new(
                            d.addr,
                            d.len.max(op.elem_size()),
                            op,
                            hooks.nworkers(),
                        ))
                    }))
                }
                _ => None,
            };
            d.reduction = red.clone();
            unsafe {
                a_ptr.write(DataAccess::new(d.addr, d.mode.type_bits(), task, red));
            }

            match bottom.insert(d.addr, a_ptr) {
                Some(prev) => {
                    // Sibling chain: we are prev's successor.
                    unsafe { (*prev).successor.store(a_ptr, Ordering::Release) };
                    let mut lf = flags::SUCC_LINKED;
                    match d.mode {
                        AccessMode::Read => lf |= flags::SUCC_READER,
                        AccessMode::Reduction(op) => {
                            lf |= flags::SUCC_RED;
                            let prev_same = unsafe { &*prev }
                                .reduction
                                .as_ref()
                                .map(|info| info.op == op)
                                .unwrap_or(false);
                            if prev_same {
                                lf |= flags::SUCC_SAME_RED;
                            }
                        }
                        _ => {}
                    }
                    hooks.edge(unsafe { (*prev).task }, task, d.addr, 0);
                    mb.push(Message::oneway(prev, lf));
                }
                None => {
                    // Chain head of this domain.
                    if d.mode.is_reduction() {
                        // A chain head has no earlier chain members.
                        mb.push(Message::oneway(a_ptr, flags::RED_TOKEN));
                    }
                    let pa = unsafe { Self::parent_access(parent, d.addr) };
                    if !pa.is_null() {
                        unsafe { (*pa).child.store(a_ptr, Ordering::Release) };
                        let mut lf = flags::CHILD_LINKED;
                        if d.mode.is_reduction() {
                            lf |= flags::CHILD_RED;
                        }
                        hooks.edge(parent, task, d.addr, 1);
                        mb.push(Message::oneway(pa, lf));
                    } else {
                        // No predecessor anywhere: immediately satisfied.
                        mb.push(Message::oneway(a_ptr, flags::READ_SAT | flags::WRITE_SAT));
                    }
                }
            }
        }
        unsafe { self.deliver_all(&mut mb, hooks) };
    }

    unsafe fn body_done(&self, task: *mut Task, hooks: &dyn DepHooks) {
        let t = unsafe { &*task };
        let mut mb = MailBox::new();
        // Close this task's child dependency domain: the children set is
        // final (only the body creates children, and it just returned).
        // Leaf tasks never created a map — `bottom` is `None` and every
        // own access closes with NO_MORE_CHILD below.
        let bottom = unsafe { t.child_bottom_ref() };
        for (&addr, &last) in bottom.into_iter().flatten() {
            let mut lf = flags::NO_MORE_SUCC;
            let own = unsafe { Self::parent_access(task, addr) };
            if !own.is_null() {
                unsafe { (*last).notify_up.store(own, Ordering::Release) };
                lf |= flags::HAS_NOTIFY_UP;
                let last_ref = unsafe { &*last };
                let own_ref = unsafe { &*own };
                let same_red = match (&last_ref.reduction, &own_ref.reduction) {
                    (Some(a), Some(b)) => a.op == b.op,
                    _ => false,
                };
                if same_red {
                    lf |= flags::UP_SAME_RED;
                }
            }
            mb.push(Message::oneway(last, lf));
        }
        // Complete own accesses. NO_MORE_CHILD when no child access ever
        // linked below (i.e. the address never appeared in our domain).
        if !t.accesses.is_null() {
            let decls = unsafe { t.decls() };
            // A failed (or poisoned) task taints every access it owns, so
            // Rule 6 forwards the poison to all blocking successors.
            let poison = if t.is_cancelled() { flags::POISON } else { 0 };
            for (i, d) in decls.iter().enumerate() {
                let a_ptr = unsafe { t.accesses.add(i) };
                let mut cf = flags::COMPLETE | poison;
                if !bottom.is_some_and(|b| b.contains_key(&d.addr)) {
                    cf |= flags::NO_MORE_CHILD;
                }
                mb.push(Message::oneway(a_ptr, cf));
            }
        }
        // Drop the stale child-access pointers now rather than at
        // reclamation (the map itself is retained for recycling).
        if let Some(map) = unsafe { &mut *t.child_bottom.get() }.as_deref_mut() {
            map.clear();
        }
        unsafe { self.deliver_all(&mut mb, hooks) };
    }

    unsafe fn fully_done(&self, _task: *mut Task, _hooks: &dyn DepHooks) {
        // Subtree completion propagates through the ASMs themselves
        // (CHILD_DONE messages); nothing to do here.
    }

    fn kind(&self) -> DepsKind {
        DepsKind::WaitFree
    }

    fn delivery_stats(&self) -> (u64, u64, u64) {
        (
            self.stats.accesses.load(Ordering::Relaxed),
            self.stats.deliveries.load(Ordering::Relaxed),
            self.stats.duplicates.load(Ordering::Relaxed),
        )
    }

    unsafe fn reset_faults_under(&self, parent: *mut Task) {
        // POISON persists on the chain-bottom accesses of `parent`'s
        // still-open domain (they outlive their completed tasks until
        // the parent's own body_done, and every future registrant links
        // after them — Rule 6 would forward the poison). At a quiescent
        // barrier no deliveries are in flight, so clearing the flag is
        // the one safe non-monotone transition: the failure's lineage
        // ends here and the next phase registers on clean chains.
        let bottom = unsafe { (*parent).child_bottom_ref() };
        for (_, &last) in bottom.into_iter().flatten() {
            unsafe { &*last }
                .flags
                .fetch_and(!flags::POISON, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::Deps;
    use crate::deps::RedOp;
    use nanotask_alloc::{RuntimeAllocator, SystemAllocator};
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicUsize;

    /// Minimal single-threaded harness standing in for the runtime: it
    /// drives tasks through create → ready → execute → complete and
    /// records the order in which tasks became ready.
    struct Harness {
        deps: WaitFreeDeps,
        hooks: TestHooks,
        tasks: Mutex<Vec<*mut Task>>,
        next_id: AtomicUsize,
        root: *mut Task,
    }

    struct TestHooks {
        alloc: SystemAllocator,
        ready: Mutex<Vec<u64>>,
        freed: Mutex<Vec<u64>>,
        edges: Mutex<Vec<(u64, u64, u8)>>,
    }

    unsafe impl DepHooks for TestHooks {
        fn task_ready(&self, task: *mut Task) {
            self.ready.lock().push(unsafe { (*task).id });
        }
        fn task_free(&self, task: *mut Task) {
            self.freed.lock().push(unsafe { (*task).id });
            // The harness owns task memory (Boxes); freeing is done at
            // teardown so tests can inspect state.
        }
        fn edge(&self, from: *mut Task, to: *mut Task, _addr: usize, kind: u8) {
            self.edges
                .lock()
                .push(unsafe { ((*from).id, (*to).id, kind) });
        }
        fn nworkers(&self) -> usize {
            4
        }
        fn allocator(&self) -> &dyn RuntimeAllocator {
            &self.alloc
        }
    }

    impl Harness {
        fn new() -> Self {
            let root = Box::into_raw(Box::new(Task::new(
                0,
                "root",
                core::ptr::null_mut(),
                0,
                Box::new(|_| {}),
                vec![],
            )));
            Self {
                deps: WaitFreeDeps::new(),
                hooks: TestHooks {
                    alloc: SystemAllocator::default(),
                    ready: Mutex::new(Vec::new()),
                    freed: Mutex::new(Vec::new()),
                    edges: Mutex::new(Vec::new()),
                },
                tasks: Mutex::new(Vec::new()),
                next_id: AtomicUsize::new(1),
                root,
            }
        }

        /// Create + register a task under `parent` (None = root).
        fn spawn(&self, parent: Option<*mut Task>, deps: Deps) -> *mut Task {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed) as u64;
            let parent = parent.unwrap_or(self.root);
            let t = Box::into_raw(Box::new(Task::new(
                id,
                "t",
                parent,
                0,
                Box::new(|_| {}),
                deps.into_decls(),
            )));
            self.tasks.lock().push(t);
            unsafe {
                self.deps.register(t, &self.hooks);
                if (*t).unblock() {
                    self.hooks.task_ready(t);
                }
            }
            t
        }

        /// Simulate executing a task body (children must have been
        /// spawned already through `spawn(Some(t), ..)` by the test),
        /// including the runtime's subtree-reference drop.
        fn complete(&self, t: *mut Task) {
            unsafe {
                self.deps.body_done(t, &self.hooks);
                if (*t).drop_child_ref() && (*t).drop_removal_ref() {
                    self.hooks.task_free(t);
                }
            }
        }

        fn ready_ids(&self) -> Vec<u64> {
            self.hooks.ready.lock().clone()
        }

        fn is_ready(&self, t: *mut Task) -> bool {
            self.ready_ids().contains(&unsafe { (*t).id })
        }
    }

    impl Drop for Harness {
        fn drop(&mut self) {
            // Close the root domain so chains terminate, then release.
            unsafe {
                self.deps.body_done(self.root, &self.hooks);
            }
            let alloc = SystemAllocator::default();
            for &t in self.tasks.lock().iter() {
                unsafe {
                    let task = &mut *t;
                    if !task.accesses.is_null() {
                        for i in 0..task.n_accesses {
                            core::ptr::drop_in_place(task.accesses.add(i));
                        }
                        alloc.dealloc(
                            task.accesses as *mut u8,
                            Layout::array::<DataAccess>(task.n_accesses).unwrap(),
                        );
                    }
                    drop(Box::from_raw(t));
                }
            }
            unsafe { drop(Box::from_raw(self.root)) };
        }
    }

    #[test]
    fn independent_tasks_ready_immediately() {
        let h = Harness::new();
        let x = 1u64;
        let y = 2u64;
        let a = h.spawn(None, Deps::new().write(&x));
        let b = h.spawn(None, Deps::new().write(&y));
        assert!(h.is_ready(a));
        assert!(h.is_ready(b));
    }

    #[test]
    fn write_after_write_serializes() {
        let h = Harness::new();
        let x = 1u64;
        let a = h.spawn(None, Deps::new().write(&x));
        let b = h.spawn(None, Deps::new().write(&x));
        assert!(h.is_ready(a));
        assert!(!h.is_ready(b));
        h.complete(a);
        assert!(h.is_ready(b));
    }

    #[test]
    fn readers_run_concurrently_after_writer() {
        let h = Harness::new();
        let x = 1u64;
        let w = h.spawn(None, Deps::new().write(&x));
        let r1 = h.spawn(None, Deps::new().read(&x));
        let r2 = h.spawn(None, Deps::new().read(&x));
        let w2 = h.spawn(None, Deps::new().write(&x));
        assert!(h.is_ready(w));
        assert!(!h.is_ready(r1));
        assert!(!h.is_ready(r2));
        h.complete(w);
        assert!(h.is_ready(r1), "reader 1 satisfied after writer");
        assert!(h.is_ready(r2), "reader concurrency: both readers ready");
        assert!(!h.is_ready(w2), "second writer waits for readers");
        h.complete(r1);
        assert!(!h.is_ready(w2));
        h.complete(r2);
        assert!(h.is_ready(w2), "writer ready after all readers released");
    }

    #[test]
    fn readwrite_behaves_like_write() {
        let h = Harness::new();
        let x = 1u64;
        let a = h.spawn(None, Deps::new().readwrite(&x));
        let b = h.spawn(None, Deps::new().readwrite(&x));
        assert!(h.is_ready(a));
        assert!(!h.is_ready(b));
        h.complete(a);
        assert!(h.is_ready(b));
    }

    #[test]
    fn chain_of_many_writers_releases_in_order() {
        let h = Harness::new();
        let x = 1u64;
        let ts: Vec<_> = (0..10)
            .map(|_| h.spawn(None, Deps::new().write(&x)))
            .collect();
        for (i, &t) in ts.iter().enumerate() {
            assert!(h.is_ready(t), "writer {i} should be ready");
            if i + 1 < ts.len() {
                assert!(!h.is_ready(ts[i + 1]), "writer {} ready too early", i + 1);
            }
            h.complete(t);
        }
    }

    #[test]
    fn multiple_addresses_all_must_satisfy() {
        let h = Harness::new();
        let x = 1u64;
        let y = 2u64;
        let a = h.spawn(None, Deps::new().write(&x));
        let b = h.spawn(None, Deps::new().write(&y));
        let c = h.spawn(None, Deps::new().read(&x).read(&y));
        assert!(!h.is_ready(c));
        h.complete(a);
        assert!(!h.is_ready(c), "one of two deps still pending");
        h.complete(b);
        assert!(h.is_ready(c));
    }

    #[test]
    fn child_inherits_parent_satisfiability() {
        let h = Harness::new();
        let x = 1u64;
        let p = h.spawn(None, Deps::new().readwrite(&x));
        assert!(h.is_ready(p));
        // While p "executes", it spawns a child accessing the same data.
        let c = h.spawn(Some(p), Deps::new().readwrite(&x));
        assert!(
            h.is_ready(c),
            "child gets satisfiability from parent access"
        );
        h.complete(c);
        h.complete(p);
    }

    #[test]
    fn successor_waits_for_child_subtree() {
        let h = Harness::new();
        let x = 1u64;
        let p = h.spawn(None, Deps::new().readwrite(&x));
        let s = h.spawn(None, Deps::new().readwrite(&x));
        let c = h.spawn(Some(p), Deps::new().readwrite(&x));
        // Parent body finishes, but its child still runs.
        h.complete(p);
        assert!(!h.is_ready(s), "successor must wait for the child subtree");
        h.complete(c);
        assert!(h.is_ready(s), "child completion releases the successor");
    }

    #[test]
    fn grandchildren_block_successor_too() {
        let h = Harness::new();
        let x = 1u64;
        let p = h.spawn(None, Deps::new().readwrite(&x));
        let s = h.spawn(None, Deps::new().readwrite(&x));
        let c = h.spawn(Some(p), Deps::new().readwrite(&x));
        let g = h.spawn(Some(c), Deps::new().readwrite(&x));
        h.complete(p);
        h.complete(c);
        assert!(!h.is_ready(s), "grandchild still holds the address");
        h.complete(g);
        assert!(h.is_ready(s));
    }

    #[test]
    fn sibling_children_serialize_within_domain() {
        let h = Harness::new();
        let x = 1u64;
        let p = h.spawn(None, Deps::new().readwrite(&x));
        let c1 = h.spawn(Some(p), Deps::new().readwrite(&x));
        let c2 = h.spawn(Some(p), Deps::new().readwrite(&x));
        assert!(h.is_ready(c1));
        assert!(!h.is_ready(c2), "children to same address serialize");
        h.complete(c1);
        assert!(h.is_ready(c2));
        h.complete(c2);
        h.complete(p);
    }

    #[test]
    fn child_without_parent_access_is_independent() {
        let h = Harness::new();
        let x = 1u64;
        let y = 2u64;
        let p = h.spawn(None, Deps::new().readwrite(&x));
        // Child uses an address the parent does not access.
        let c = h.spawn(Some(p), Deps::new().write(&y));
        assert!(h.is_ready(c), "orphan chain head is immediately satisfied");
    }

    #[test]
    fn reduction_chain_runs_concurrently_and_combines() {
        let h = Harness::new();
        let mut acc = 100.0f64;
        let addr_holder = &mut acc;
        let r1 = h.spawn(None, Deps::new().reduce(addr_holder, RedOp::SumF64));
        let r2 = h.spawn(None, Deps::new().reduce(addr_holder, RedOp::SumF64));
        let r3 = h.spawn(None, Deps::new().reduce(addr_holder, RedOp::SumF64));
        let reader = h.spawn(None, Deps::new().read(addr_holder));
        assert!(h.is_ready(r1) && h.is_ready(r2) && h.is_ready(r3));
        assert!(!h.is_ready(reader));
        // Simulate each participant adding into its private slot.
        for (w, &t) in [r1, r2, r3].iter().enumerate() {
            unsafe {
                let decls = (*t).decls();
                let info = decls[0].reduction.as_ref().unwrap();
                *(info.slot(w) as *mut f64) += (w + 1) as f64;
            }
        }
        h.complete(r1);
        h.complete(r3);
        assert!(!h.is_ready(reader), "chain not finished yet");
        h.complete(r2);
        assert!(h.is_ready(reader), "reader released after whole chain");
        assert_eq!(acc, 106.0, "slots combined into target exactly once");
    }

    #[test]
    fn reduction_after_writer_waits() {
        let h = Harness::new();
        let acc = 0.0f64;
        let w = h.spawn(None, Deps::new().write(&acc));
        let r = h.spawn(None, Deps::new().reduce(&acc, RedOp::SumF64));
        assert!(!h.is_ready(r));
        h.complete(w);
        assert!(h.is_ready(r));
        h.complete(r);
    }

    #[test]
    fn different_op_reductions_serialize() {
        let h = Harness::new();
        let acc = 0.0f64;
        let a = h.spawn(None, Deps::new().reduce(&acc, RedOp::SumF64));
        let b = h.spawn(None, Deps::new().reduce(&acc, RedOp::MaxF64));
        assert!(h.is_ready(a));
        assert!(!h.is_ready(b), "different op breaks the chain");
        h.complete(a);
        assert!(h.is_ready(b));
        h.complete(b);
    }

    #[test]
    fn edges_reported_for_graph_dump() {
        let h = Harness::new();
        let x = 1u64;
        let a = h.spawn(None, Deps::new().write(&x));
        let _b = h.spawn(None, Deps::new().read(&x));
        let _c = h.spawn(Some(a), Deps::new().read(&x));
        let edges = h.hooks.edges.lock().clone();
        assert!(edges.iter().any(|&(_, _, k)| k == 0), "successor edge seen");
        assert!(edges.iter().any(|&(_, _, k)| k == 1), "child edge seen");
    }

    #[test]
    fn delivery_bound_holds() {
        // Lemma 2.3: deliveries per access bounded by the flag count.
        let h = Harness::new();
        let x = 1u64;
        let ts: Vec<_> = (0..50)
            .map(|i| {
                let mode = if i % 3 == 0 {
                    Deps::new().write(&x)
                } else {
                    Deps::new().read(&x)
                };
                h.spawn(None, mode)
            })
            .collect();
        for &t in &ts {
            h.complete(t);
        }
        let (accesses, deliveries, _dups) = h.deps.delivery_stats();
        assert_eq!(accesses, 50);
        assert!(
            deliveries <= accesses * flags::FLAG_COUNT as u64,
            "avg deliveries per access exceeds |F|: {deliveries} for {accesses}"
        );
    }

    #[test]
    fn poison_propagates_along_blocking_chain() {
        let h = Harness::new();
        let x = 1u64;
        let a = h.spawn(None, Deps::new().write(&x));
        let b = h.spawn(None, Deps::new().write(&x));
        let c = h.spawn(None, Deps::new().write(&x));
        unsafe { (*a).mark_cancelled() };
        h.complete(a);
        assert!(h.is_ready(b), "poisoned successor is still released");
        assert!(unsafe { (*b).is_cancelled() }, "direct successor poisoned");
        h.complete(b);
        assert!(h.is_ready(c));
        assert!(
            unsafe { (*c).is_cancelled() },
            "poison is transitive through cancelled tasks"
        );
        h.complete(c);
    }

    #[test]
    fn poison_reaches_readers_behind_failed_writer() {
        let h = Harness::new();
        let x = 1u64;
        let w = h.spawn(None, Deps::new().write(&x));
        let r = h.spawn(None, Deps::new().read(&x));
        unsafe { (*w).mark_cancelled() };
        h.complete(w);
        assert!(h.is_ready(r));
        assert!(
            unsafe { (*r).is_cancelled() },
            "reader blocked on failed writer is poisoned"
        );
        h.complete(r);
    }

    #[test]
    fn concurrent_reader_peers_are_not_cancelled() {
        let h = Harness::new();
        let x = 1u64;
        let w = h.spawn(None, Deps::new().write(&x));
        let r1 = h.spawn(None, Deps::new().read(&x));
        let r2 = h.spawn(None, Deps::new().read(&x));
        let w2 = h.spawn(None, Deps::new().write(&x));
        h.complete(w);
        assert!(h.is_ready(r1) && h.is_ready(r2));
        // r1 fails while r2 (already released) runs concurrently.
        unsafe { (*r1).mark_cancelled() };
        h.complete(r1);
        assert!(
            !unsafe { (*r2).is_cancelled() },
            "a failed reader must not cancel an already-released peer"
        );
        h.complete(r2);
        assert!(h.is_ready(w2));
        assert!(
            unsafe { (*w2).is_cancelled() },
            "the blocking successor of a failed reader is poisoned"
        );
        h.complete(w2);
    }

    #[test]
    fn poison_crosses_addresses_through_multi_access_tasks() {
        let h = Harness::new();
        let x = 1u64;
        let y = 2u64;
        let a = h.spawn(None, Deps::new().write(&x));
        let b = h.spawn(None, Deps::new().write(&x).write(&y));
        let c = h.spawn(None, Deps::new().write(&y));
        unsafe { (*a).mark_cancelled() };
        h.complete(a);
        assert!(unsafe { (*b).is_cancelled() }, "poisoned via x");
        h.complete(b);
        assert!(
            unsafe { (*c).is_cancelled() },
            "b's cancellation taints its y access too"
        );
        h.complete(c);
    }

    #[test]
    fn tasks_eventually_freed() {
        let h = Harness::new();
        let x = 1u64;
        let a = h.spawn(None, Deps::new().write(&x));
        let b = h.spawn(None, Deps::new().write(&x));
        h.complete(a);
        h.complete(b);
        // b's access chain is still open (domain not closed); a's access
        // became terminal when it propagated to b.
        let freed = h.hooks.freed.lock().clone();
        assert!(
            freed.contains(&unsafe { (*a).id }),
            "a reclaimed: {freed:?}"
        );
        drop(h); // root domain close reclaims b (checked by LSan/Miri-style drop)
    }
}
