//! Fine-grained-locking dependency system — the *previous* Nanos6
//! implementation the paper's wait-free design replaced ("The previous
//! implementation of dependencies inside Nanos6 was based on fine-grained
//! locking, but it was very complex to avoid possible deadlocks", §2.2).
//!
//! This is the baseline behind the "w/o wait-free dependencies" curves of
//! Figures 4–6. Semantics match the wait-free system for the supported
//! patterns: per-address FIFO ordering with reader batching and same-op
//! reduction batching, dependency domains scoped per parent task (so
//! nesting works), and child subtrees holding their parent's addresses
//! until the subtree finishes (release happens at *fully done*, which is
//! a conservative — strictly stronger — version of the wait-free
//! system's per-address child tracking).
//!
//! Structure: a hash of `(parent, address)` → a queue protected by one of
//! 64 shard mutexes. Every registration and every release serializes on a
//! shard — the contention the wait-free redesign eliminates.

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use super::reduction::ReductionInfo;
use super::{AccessMode, DepHooks, DependencySystem, DepsKind};
use crate::task::Task;

const SHARDS: usize = 64;

/// What the currently-active batch of a queue is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ActiveKind {
    None,
    Readers,
    Writer,
    Reduction(super::reduction::RedOp),
}

struct Waiter {
    task: *mut Task,
    decl_idx: usize,
    mode: AccessMode,
}

unsafe impl Send for Waiter {}

struct AddrQueue {
    /// Entries not yet satisfied, FIFO.
    waiting: VecDeque<Waiter>,
    /// Tasks currently holding the address.
    active: Vec<*mut Task>,
    kind: ActiveKind,
    /// Reduction chain state of the active batch.
    red: Option<Arc<ReductionInfo>>,
    /// Sticky failure-propagation flag: a cancelled/failed task released
    /// this address, so every task ordered after it (FIFO) is a
    /// transitive successor and must be cancelled on activation. Mirrors
    /// the wait-free system's POISON bit, which persists on the chain's
    /// last access; a poisoned queue is therefore never removed from the
    /// shard while its domain may still gain registrants.
    poisoned: bool,
}

impl AddrQueue {
    fn new() -> Self {
        Self {
            waiting: VecDeque::new(),
            active: Vec::new(),
            kind: ActiveKind::None,
            red: None,
            poisoned: false,
        }
    }

    fn compatible(&self, mode: AccessMode) -> bool {
        match (self.kind, mode) {
            (ActiveKind::None, _) => true,
            (ActiveKind::Readers, AccessMode::Read) => true,
            (ActiveKind::Reduction(a), AccessMode::Reduction(b)) => a == b,
            _ => false,
        }
    }
}

type Shard = HashMap<(usize, usize), AddrQueue>;

/// The fine-grained-locking dependency system.
pub struct LockingDeps {
    shards: Box<[Mutex<Shard>]>,
}

// Raw task pointers inside the shards are only dereferenced while the
// protocol guarantees liveness (registered / active / waiting tasks).
unsafe impl Send for LockingDeps {}
unsafe impl Sync for LockingDeps {}

impl LockingDeps {
    /// Create the system.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: (usize, usize)) -> &Mutex<Shard> {
        // Mix both key halves; shards are a power of two.
        let h = key
            .0
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key.1.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        &self.shards[(h >> 7) & (SHARDS - 1)]
    }

    /// Activate `w` inside `q` (shard lock held). Returns the task if it
    /// lost its last blocker and is now ready.
    unsafe fn activate(
        q: &mut AddrQueue,
        w: Waiter,
        addr: usize,
        nworkers: usize,
    ) -> Option<*mut Task> {
        match w.mode {
            AccessMode::Read => q.kind = ActiveKind::Readers,
            AccessMode::Write | AccessMode::ReadWrite => q.kind = ActiveKind::Writer,
            AccessMode::Reduction(op) => {
                q.kind = ActiveKind::Reduction(op);
                let t = unsafe { &*w.task };
                let decls = unsafe { &mut *t.decls.get() };
                let d = &mut decls[w.decl_idx];
                let info = q
                    .red
                    .get_or_insert_with(|| {
                        Arc::new(ReductionInfo::new(
                            addr,
                            d.len.max(op.elem_size()),
                            op,
                            nworkers,
                        ))
                    })
                    .clone();
                d.reduction = Some(info);
            }
        }
        q.active.push(w.task);
        let t = unsafe { &*w.task };
        if t.unblock() { Some(w.task) } else { None }
    }
}

impl Default for LockingDeps {
    fn default() -> Self {
        Self::new()
    }
}

unsafe impl DependencySystem for LockingDeps {
    unsafe fn register(&self, task: *mut Task, hooks: &dyn DepHooks) {
        let t = unsafe { &*task };
        let n = unsafe { t.decls() }.len();
        let parent = t.parent as usize;
        let mut newly_ready: Option<*mut Task> = None;
        for i in 0..n {
            let (addr, mode) = {
                let d = &unsafe { t.decls() }[i];
                (d.addr, d.mode)
            };
            let key = (parent, addr);
            let mut shard = self.shard(key).lock();
            let q = shard.entry(key).or_insert_with(AddrQueue::new);
            let w = Waiter {
                task,
                decl_idx: i,
                mode,
            };
            if q.waiting.is_empty() && q.compatible(mode) {
                if let Some(prev) = q.active.last().copied() {
                    hooks.edge(prev, task, addr, 0);
                }
                if q.poisoned {
                    // Ordered after a failed task on this address: cancel
                    // before the readiness transition can publish it.
                    unsafe { (*task).mark_cancelled() };
                }
                if let Some(ready) = unsafe { Self::activate(q, w, addr, hooks.nworkers()) } {
                    newly_ready = Some(ready);
                }
            } else {
                if let Some(prev) = q
                    .waiting
                    .back()
                    .map(|e| e.task)
                    .or_else(|| q.active.last().copied())
                {
                    hooks.edge(prev, task, addr, 0);
                }
                q.waiting.push_back(w);
            }
        }
        if let Some(ready) = newly_ready {
            // All accesses registered; satisfied count already folded into
            // the blocker counter. (The creation guard is still held by
            // the caller, so `ready` can only be the task itself after its
            // final access — defensive anyway.)
            hooks.task_ready(ready);
        }
    }

    unsafe fn body_done(&self, _task: *mut Task, _hooks: &dyn DepHooks) {
        // Conservative nesting rule: addresses are held until the whole
        // subtree finishes; the release happens in `fully_done`.
    }

    unsafe fn fully_done(&self, task: *mut Task, hooks: &dyn DepHooks) {
        let t = unsafe { &*task };
        let n = unsafe { t.decls() }.len();
        let parent = t.parent as usize;
        let mut to_ready: Vec<*mut Task> = Vec::new();
        for i in 0..n {
            let addr = unsafe { t.decls() }[i].addr;
            let key = (parent, addr);
            let mut shard = self.shard(key).lock();
            let Some(q) = shard.get_mut(&key) else {
                debug_assert!(false, "release of unregistered access");
                continue;
            };
            // Invariant: `register` put this task into `active` before it
            // could run, and `fully_done` runs exactly once per task — so
            // the entry must still be there. Not user-reachable; a miss
            // here means the release protocol itself is broken.
            let pos = q
                .active
                .iter()
                .position(|&p| p == task)
                .expect("release protocol invariant: task not in active set");
            q.active.swap_remove(pos);
            // Failure propagation: a cancelled task releasing an address
            // taints everything ordered after it on that address.
            if t.is_cancelled() {
                q.poisoned = true;
            }
            if q.active.is_empty() {
                // Batch finished: combine a reduction batch exactly once.
                if let ActiveKind::Reduction(_) = q.kind
                    && let Some(info) = q.red.take()
                {
                    unsafe { info.combine_into_target() };
                }
                q.kind = ActiveKind::None;
                // Wake the next batch: the front entry plus every
                // immediately-following compatible entry.
                while let Some(front) = q.waiting.front() {
                    if q.active.is_empty() || q.compatible(front.mode) {
                        // Invariant: `front()` above observed an entry and
                        // the shard lock is held — the pop cannot miss.
                        let w = q
                            .waiting
                            .pop_front()
                            .expect("queue invariant: observed front vanished");
                        if q.poisoned {
                            unsafe { (*w.task).mark_cancelled() };
                        }
                        if let Some(ready) = unsafe { Self::activate(q, w, addr, hooks.nworkers()) }
                        {
                            to_ready.push(ready);
                        }
                    } else {
                        break;
                    }
                }
                // A poisoned queue is kept so late registrants in the
                // same domain still observe the failure (the wait-free
                // POISON bit persists on the chain the same way).
                if q.active.is_empty() && q.waiting.is_empty() && !q.poisoned {
                    shard.remove(&key);
                }
            }
            drop(shard);
            // One removal reference per access, as in the wait-free system.
            if t.drop_removal_ref() {
                hooks.task_free(task);
            }
        }
        // Hand every successor this completion released to the runtime
        // once no shard lock is held.
        for t in to_ready {
            hooks.task_ready(t);
        }
    }

    fn kind(&self) -> DepsKind {
        DepsKind::Locking
    }

    fn reset_faults(&self) {
        // Poisoned queues persist within a run so late registrants on a
        // failed address still observe the failure (the locking mirror
        // of the wait-free chain's persistent POISON flag). At a run
        // boundary that lineage ends: clear the flags and drop queues
        // that were only kept alive by them.
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            shard.retain(|_, q| {
                q.poisoned = false;
                !q.active.is_empty() || !q.waiting.is_empty()
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::Deps;
    use crate::deps::reduction::RedOp;
    use nanotask_alloc::{RuntimeAllocator, SystemAllocator};
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct TestHooks {
        alloc: SystemAllocator,
        ready: Mutex<Vec<u64>>,
        freed: Mutex<Vec<u64>>,
    }

    unsafe impl DepHooks for TestHooks {
        fn task_ready(&self, task: *mut Task) {
            self.ready.lock().push(unsafe { (*task).id });
        }
        fn task_free(&self, task: *mut Task) {
            self.freed.lock().push(unsafe { (*task).id });
        }
        fn nworkers(&self) -> usize {
            4
        }
        fn allocator(&self) -> &dyn RuntimeAllocator {
            &self.alloc
        }
    }

    struct Harness {
        deps: LockingDeps,
        hooks: TestHooks,
        tasks: Mutex<Vec<*mut Task>>,
        next_id: AtomicUsize,
        root: *mut Task,
    }

    impl Harness {
        fn new() -> Self {
            Self {
                deps: LockingDeps::new(),
                hooks: TestHooks {
                    alloc: SystemAllocator::default(),
                    ready: Mutex::new(Vec::new()),
                    freed: Mutex::new(Vec::new()),
                },
                tasks: Mutex::new(Vec::new()),
                next_id: AtomicUsize::new(1),
                root: Box::into_raw(Box::new(Task::new(
                    0,
                    "root",
                    core::ptr::null_mut(),
                    vec![],
                ))),
            }
        }

        fn spawn(&self, parent: Option<*mut Task>, deps: Deps) -> *mut Task {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed) as u64;
            let t = Box::into_raw(Box::new(Task::new(
                id,
                "t",
                parent.unwrap_or(self.root),
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

        fn complete(&self, t: *mut Task) {
            unsafe {
                self.deps.body_done(t, &self.hooks);
                if (*t).drop_child_ref() {
                    self.deps.fully_done(t, &self.hooks);
                    if (*t).drop_removal_ref() {
                        self.hooks.task_free(t);
                    }
                }
            }
        }

        fn is_ready(&self, t: *mut Task) -> bool {
            self.hooks.ready.lock().contains(&unsafe { (*t).id })
        }
    }

    impl Drop for Harness {
        fn drop(&mut self) {
            for &t in self.tasks.lock().iter() {
                unsafe { drop(Box::from_raw(t)) };
            }
            unsafe { drop(Box::from_raw(self.root)) };
        }
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
        h.complete(b);
    }

    #[test]
    fn reader_batch_after_writer() {
        let h = Harness::new();
        let x = 1u64;
        let w = h.spawn(None, Deps::new().write(&x));
        let r1 = h.spawn(None, Deps::new().read(&x));
        let r2 = h.spawn(None, Deps::new().read(&x));
        let w2 = h.spawn(None, Deps::new().write(&x));
        assert!(!h.is_ready(r1) && !h.is_ready(r2));
        h.complete(w);
        assert!(h.is_ready(r1) && h.is_ready(r2));
        assert!(!h.is_ready(w2));
        h.complete(r1);
        assert!(!h.is_ready(w2));
        h.complete(r2);
        assert!(h.is_ready(w2));
        h.complete(w2);
    }

    #[test]
    fn concurrent_readers_at_head() {
        let h = Harness::new();
        let x = 1u64;
        let r1 = h.spawn(None, Deps::new().read(&x));
        let r2 = h.spawn(None, Deps::new().read(&x));
        assert!(h.is_ready(r1) && h.is_ready(r2));
    }

    #[test]
    fn multi_address_requires_all() {
        let h = Harness::new();
        let x = 1u64;
        let y = 2u64;
        let a = h.spawn(None, Deps::new().write(&x));
        let b = h.spawn(None, Deps::new().write(&y));
        let c = h.spawn(None, Deps::new().read(&x).read(&y));
        assert!(!h.is_ready(c));
        h.complete(a);
        assert!(!h.is_ready(c));
        h.complete(b);
        assert!(h.is_ready(c));
    }

    #[test]
    fn nested_domains_are_independent() {
        let h = Harness::new();
        let x = 1u64;
        let p = h.spawn(None, Deps::new().readwrite(&x));
        assert!(h.is_ready(p));
        let c = h.spawn(Some(p), Deps::new().readwrite(&x));
        assert!(h.is_ready(c), "child domain starts fresh");
        h.complete(c);
        h.complete(p);
    }

    #[test]
    fn successor_waits_for_subtree_via_fully_done() {
        let h = Harness::new();
        let x = 1u64;
        let p = h.spawn(None, Deps::new().readwrite(&x));
        let s = h.spawn(None, Deps::new().readwrite(&x));
        let c = h.spawn(Some(p), Deps::new().readwrite(&x));
        // p's body ends but its child is alive: p is NOT fully done.
        unsafe {
            (*p).add_child(); // simulate runtime child accounting
            h.deps.body_done(p, &h.hooks);
            assert!(!(*p).drop_child_ref()); // body guard; child still live
        }
        assert!(!h.is_ready(s));
        h.complete(c);
        // Now the child finished: complete p's subtree.
        unsafe {
            if (*p).drop_child_ref() {
                h.deps.fully_done(p, &h.hooks);
            }
        }
        assert!(h.is_ready(s));
    }

    #[test]
    fn reduction_batch_combines_once() {
        let h = Harness::new();
        let acc = 50.0f64;
        let r1 = h.spawn(None, Deps::new().reduce(&acc, RedOp::SumF64));
        let r2 = h.spawn(None, Deps::new().reduce(&acc, RedOp::SumF64));
        let reader = h.spawn(None, Deps::new().read(&acc));
        assert!(h.is_ready(r1) && h.is_ready(r2));
        assert!(!h.is_ready(reader));
        for (w, &t) in [r1, r2].iter().enumerate() {
            unsafe {
                let info = (*t).decls()[0].reduction.as_ref().unwrap();
                *(info.slot(w) as *mut f64) += 10.0;
            }
        }
        h.complete(r1);
        assert!(!h.is_ready(reader));
        h.complete(r2);
        assert!(h.is_ready(reader));
        assert_eq!(acc, 70.0);
    }

    #[test]
    fn different_op_reductions_serialize() {
        let h = Harness::new();
        let acc = 0.0f64;
        let a = h.spawn(None, Deps::new().reduce(&acc, RedOp::SumF64));
        let b = h.spawn(None, Deps::new().reduce(&acc, RedOp::MaxF64));
        assert!(h.is_ready(a));
        assert!(!h.is_ready(b));
        h.complete(a);
        assert!(h.is_ready(b));
        h.complete(b);
    }

    #[test]
    fn fifo_order_preserved() {
        let h = Harness::new();
        let x = 1u64;
        let ts: Vec<_> = (0..8)
            .map(|_| h.spawn(None, Deps::new().write(&x)))
            .collect();
        for (i, &t) in ts.iter().enumerate() {
            assert!(h.is_ready(t), "writer {i} ready");
            if i + 1 < ts.len() {
                assert!(!h.is_ready(ts[i + 1]));
            }
            h.complete(t);
        }
    }

    #[test]
    fn poison_propagates_along_queue() {
        let h = Harness::new();
        let x = 1u64;
        let a = h.spawn(None, Deps::new().write(&x));
        let b = h.spawn(None, Deps::new().write(&x));
        let c = h.spawn(None, Deps::new().write(&x));
        unsafe { (*a).mark_cancelled() };
        h.complete(a);
        assert!(h.is_ready(b), "poisoned successor is still released");
        assert!(unsafe { (*b).is_cancelled() });
        h.complete(b);
        assert!(
            unsafe { (*c).is_cancelled() },
            "poison is transitive through cancelled tasks"
        );
        h.complete(c);
    }

    #[test]
    fn poison_outlives_a_drained_queue() {
        let h = Harness::new();
        let x = 1u64;
        let a = h.spawn(None, Deps::new().write(&x));
        unsafe { (*a).mark_cancelled() };
        h.complete(a); // queue drains with no waiters
        let late = h.spawn(None, Deps::new().write(&x));
        assert!(h.is_ready(late));
        assert!(
            unsafe { (*late).is_cancelled() },
            "late registrant on a poisoned address is cancelled"
        );
        h.complete(late);
    }

    #[test]
    fn reader_batch_poisoned_by_failed_writer() {
        let h = Harness::new();
        let x = 1u64;
        let w = h.spawn(None, Deps::new().write(&x));
        let r1 = h.spawn(None, Deps::new().read(&x));
        let r2 = h.spawn(None, Deps::new().read(&x));
        unsafe { (*w).mark_cancelled() };
        h.complete(w);
        assert!(h.is_ready(r1) && h.is_ready(r2));
        assert!(unsafe { (*r1).is_cancelled() } && unsafe { (*r2).is_cancelled() });
        h.complete(r1);
        h.complete(r2);
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
    fn tasks_freed_after_release() {
        let h = Harness::new();
        let x = 1u64;
        let a = h.spawn(None, Deps::new().write(&x));
        h.complete(a);
        assert!(h.hooks.freed.lock().contains(&unsafe { (*a).id }));
    }
}
