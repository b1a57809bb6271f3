//! The Synchronized Scheduler (Listing 5 + §3.1/§3.4 of the paper):
//! wait-free SPSC ready-buffers plus the Delegation Ticket Lock.
//!
//! * **Insertion** (`add_ready`): the task goes into a bounded wait-free
//!   SPSC queue — one per NUMA node, producers serialized by a PTLock —
//!   so "any contention generated by many worker threads calling the
//!   scheduler does not affect the performance of cores that are creating
//!   tasks". If the buffer is full, the producer opportunistically tries
//!   to take the scheduler lock and drain the buffers itself.
//! * **Retrieval** (`get_ready_within`): workers call `lockOrDelegate`,
//!   with their pop's [`Scope`] published in a per-worker slot. The one
//!   that acquires the lock drains the SPSC buffers into the policy queue
//!   and then *serves* every waiting worker a task in that worker's scope
//!   through the DTLock (`front`/`set_item`/`pop_front` — the yellow
//!   arrows of Figure 10), takes one for itself, and releases the lock.
//!
//! §3.4 reports a 4× speedup over a PTLock-protected scheduler and 12×
//! over serial insertion from these two mechanisms combined; the
//! `t34_sched_speedup` harness regenerates that comparison.

use core::cell::UnsafeCell;

use nanotask_locks::dtlock::LockOrDelegate;
use nanotask_locks::{CachePadded, DtLock, PtLock, RawLock};
use nanotask_obs::Registry;
use nanotask_spsc as spsc;
use nanotask_trace::EventKind;

use super::{
    Policy, PolicyQueue, Rec, SchedCounters, SchedKind, SchedOpStats, Scheduler, Scope, TaskPtr,
};
use crate::task::Task;

/// Maximum workers the DTLock can register (its waiting-array size).
pub const MAX_WORKERS: usize = 128;

/// Capacity of each per-NUMA SPSC add buffer (Listing 5 uses 100); the
/// runtime builds its delegation scheduler with it.
pub(crate) const SPSC_CAPACITY: usize = 100;

/// One per-NUMA add buffer: a wait-free SPSC queue whose producer side is
/// shared by the node's workers under a PTLock (§3.1: "We use the lock to
/// synchronize between producers, but the synchronization between
/// producer and consumers remains wait-free"). The producer end (written
/// by the PTLock holder) and the consumer end (written by the DTLock
/// holder) sit on lines of their own.
struct AddQueue {
    lock: PtLock<64>,
    prod: CachePadded<UnsafeCell<spsc::Producer<TaskPtr>>>,
    cons: CachePadded<UnsafeCell<spsc::Consumer<TaskPtr>>>,
}

unsafe impl Send for AddQueue {}
unsafe impl Sync for AddQueue {}

/// The synchronized delegation scheduler.
pub struct SyncScheduler {
    lock: DtLock<TaskPtr, MAX_WORKERS>,
    /// The policy queue, written by whoever holds the DTLock; on a line
    /// of its own so that a creator's `add_ready` reads of the fields
    /// below do not miss.
    ready: CachePadded<UnsafeCell<PolicyQueue>>,
    addqs: Box<[AddQueue]>,
    workers: usize,
    numa_nodes: usize,
    /// Per-worker scope of the worker's latest DTLock request
    /// ([`Scope::into_raw`]; null is [`Scope::ANY`]): the scope travels
    /// with the request, and the owner that serves worker `w` pops within
    /// slot `w`. Written by its worker only when the value changes, so
    /// idle polling writes no shared line.
    scopes: Box<[CachePadded<core::sync::atomic::AtomicPtr<Task>>]>,
    counters: SchedCounters,
}

unsafe impl Send for SyncScheduler {}
unsafe impl Sync for SyncScheduler {}

impl SyncScheduler {
    /// Create the scheduler for `workers` workers spread over
    /// `numa_nodes` nodes, with per-node SPSC buffers of `spsc_capacity`.
    pub fn new(workers: usize, numa_nodes: usize, policy: Policy, spsc_capacity: usize) -> Self {
        assert!(workers <= MAX_WORKERS, "at most {MAX_WORKERS} workers");
        let nodes = numa_nodes.clamp(1, workers.max(1));
        let addqs = (0..nodes)
            .map(|_| {
                let (prod, cons) = spsc::channel(spsc_capacity.max(1));
                AddQueue {
                    lock: PtLock::new(),
                    prod: CachePadded::new(UnsafeCell::new(prod)),
                    cons: CachePadded::new(UnsafeCell::new(cons)),
                }
            })
            .collect();
        Self {
            lock: DtLock::new(),
            ready: CachePadded::new(UnsafeCell::new(PolicyQueue::new(policy))),
            addqs,
            workers: workers.max(1),
            numa_nodes: nodes,
            scopes: (0..workers.max(1))
                .map(|_| {
                    CachePadded::new(core::sync::atomic::AtomicPtr::new(Scope::ANY.into_raw()))
                })
                .collect(),
            counters: SchedCounters::detached(workers.max(1)),
        }
    }

    /// Bind the operation counters to a shared metrics registry
    /// (`None` keeps the private detached counters).
    pub fn with_registry(mut self, reg: Option<&Registry>) -> Self {
        if let Some(reg) = reg {
            self.counters = SchedCounters::new(reg);
        }
        self
    }

    /// NUMA node a worker belongs to (contiguous block partitioning).
    #[inline]
    pub fn numa_of(&self, worker: usize) -> usize {
        (worker * self.numa_nodes) / self.workers.max(1)
    }

    /// Number of SPSC add buffers.
    pub fn add_buffers(&self) -> usize {
        self.addqs.len()
    }

    /// Drain every SPSC buffer into the policy queue. Caller must hold
    /// the DTLock (consumer side ownership). Returns tasks moved.
    unsafe fn process_ready_tasks(&self) -> u64 {
        let ready = unsafe { &mut *self.ready.get() };
        let mut moved = 0u64;
        for q in self.addqs.iter() {
            let cons = unsafe { &mut *q.cons.get() };
            moved += cons.consume_all(|t| ready.push(t)) as u64;
        }
        moved
    }

    /// The scope worker `wid` published with its pending DTLock request.
    /// Relaxed suffices: the waiter stores the slot before the Release
    /// store that registers it in the DTLock log queue, and the owner
    /// reads the slot only after the Acquire load in `front` that found
    /// that registration.
    fn scope_of(&self, wid: usize) -> Scope {
        Scope::from_raw(self.scopes[wid].load(core::sync::atomic::Ordering::Relaxed))
    }
}

impl Scheduler for SyncScheduler {
    fn add_ready(&self, task: TaskPtr, worker: usize, rec: Rec<'_>) {
        if let Some(r) = rec {
            r.record(EventKind::AddReady, unsafe { (*task.0).id });
        }
        self.counters.add(worker);
        let q = &self.addqs[self.numa_of(worker)];
        let mut item = task;
        loop {
            q.lock.lock();
            // SAFETY: producer side owned by the PTLock holder.
            let res = unsafe { &mut *q.prod.get() }.push(item);
            q.lock.unlock();
            match res {
                Ok(()) => return,
                Err(back) => item = back,
            }
            // Buffer full: try to become the scheduler owner and drain it
            // ourselves (Listing 5, lines 17–20).
            if self.lock.try_lock() {
                self.counters.lock(worker);
                unsafe { self.process_ready_tasks() };
                self.lock.unlock();
            }
        }
    }

    fn get_ready_within(&self, worker: usize, scope: Scope, rec: Rec<'_>) -> Option<TaskPtr> {
        debug_assert!(worker < self.workers);
        let slot = &self.scopes[worker];
        if slot.load(core::sync::atomic::Ordering::Relaxed) != scope.into_raw() {
            slot.store(scope.into_raw(), core::sync::atomic::Ordering::Relaxed);
        }
        match self.lock.lock_or_delegate(worker) {
            LockOrDelegate::Served(t) => {
                // Another worker executed our request inside the lock.
                self.counters.pop(worker);
                Some(t)
            }
            LockOrDelegate::Acquired => {
                self.counters.lock(worker);
                // SAFETY: we own the DTLock → exclusive policy queue and
                // SPSC consumer access.
                let drained = unsafe { self.process_ready_tasks() };
                let mut local_rec = rec;
                if drained > 0
                    && let Some(r) = local_rec.as_deref_mut()
                {
                    r.record(EventKind::SchedDrain, drained);
                }
                let ready = unsafe { &mut *self.ready.get() };
                // Serve every waiting worker while tasks remain.
                while !self.lock.empty() {
                    let wid = self.lock.front();
                    if wid >= MAX_WORKERS {
                        // Unservable plain-lock waiter: admit it and stop.
                        break;
                    }
                    // SAFETY: queued tasks are live, and so is the task
                    // `wid` waits in while it is parked here.
                    let wscope = self.scope_of(wid);
                    let task = match unsafe { ready.pop_within(wscope) } {
                        Some(t) => t,
                        None => {
                            // Extension mentioned in §3.4: re-drain when
                            // the queue runs dry before giving up. (A
                            // capped waiter with no descendant queued is
                            // not served either; it takes the lock and
                            // comes back empty-handed.)
                            if unsafe { self.process_ready_tasks() } == 0 {
                                break;
                            }
                            match unsafe { ready.pop_within(wscope) } {
                                Some(t) => t,
                                None => break,
                            }
                        }
                    };
                    self.lock.set_item(wid, task);
                    self.lock.pop_front();
                    if let Some(r) = local_rec.as_deref_mut() {
                        r.record(EventKind::SchedServe, wid as u64);
                    }
                }
                // One for ourselves, then release.
                // SAFETY: queued tasks and our own scope's task are live.
                let own = unsafe { ready.pop_within(scope) };
                self.lock.unlock();
                if own.is_some() {
                    self.counters.pop(worker);
                }
                own
            }
        }
    }

    fn approx_len(&self) -> usize {
        self.counters.queued()
    }

    fn kind(&self) -> SchedKind {
        SchedKind::Delegation
    }

    fn op_stats(&self) -> SchedOpStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;
    use std::sync::Arc;

    fn fake(n: usize) -> TaskPtr {
        TaskPtr(n as *mut Task)
    }

    /// Every field of the delegation scheduler that more than one thread
    /// writes starts a 128-byte line of its own: the policy queue (the
    /// DTLock holder), each add buffer's producer end (the PTLock holder)
    /// and consumer end (the DTLock holder). The DTLock and PTLock pad
    /// their own words. The structs are destructured without `..`, so a
    /// new field does not compile until it is placed.
    #[test]
    fn shared_writes_own_their_lines() {
        use core::mem::{align_of, offset_of, size_of};
        let _pin = |s: &SyncScheduler, q: &AddQueue| {
            let SyncScheduler {
                lock: _,
                ready: _,
                addqs: _,
                workers: _,    // read-only
                numa_nodes: _, // read-only
                scopes: _,     // one padded slot per worker
                counters: _,   // sharded registry cells
            } = s;
            let AddQueue {
                lock: _,
                prod: _,
                cons: _,
            } = q;
        };
        let line =
            |offset: usize, size: usize| offset.is_multiple_of(128) && size.is_multiple_of(128);
        assert!(line(
            offset_of!(SyncScheduler, ready),
            size_of::<CachePadded<UnsafeCell<PolicyQueue>>>()
        ));
        assert_eq!(align_of::<AddQueue>() % 128, 0, "addqs[*] start lines");
        assert!(line(
            offset_of!(AddQueue, prod),
            size_of::<CachePadded<UnsafeCell<spsc::Producer<TaskPtr>>>>()
        ));
        assert!(line(
            offset_of!(AddQueue, cons),
            size_of::<CachePadded<UnsafeCell<spsc::Consumer<TaskPtr>>>>()
        ));
    }

    #[test]
    fn single_thread_roundtrip() {
        let s = SyncScheduler::new(2, 1, Policy::Fifo, 8);
        s.add_ready(fake(1), 0, None);
        s.add_ready(fake(2), 0, None);
        assert_eq!(s.get_ready(0, None), Some(fake(1)));
        assert_eq!(s.get_ready(1, None), Some(fake(2)));
        assert_eq!(s.get_ready(0, None), None);
    }

    #[test]
    fn numa_partitioning() {
        let s = SyncScheduler::new(8, 2, Policy::Fifo, 8);
        assert_eq!(s.add_buffers(), 2);
        assert_eq!(s.numa_of(0), 0);
        assert_eq!(s.numa_of(3), 0);
        assert_eq!(s.numa_of(4), 1);
        assert_eq!(s.numa_of(7), 1);
    }

    #[test]
    fn tasks_from_all_numa_buffers_are_drained() {
        let s = SyncScheduler::new(4, 4, Policy::Fifo, 8);
        assert_eq!(s.add_buffers(), 4);
        for w in 0..4 {
            s.add_ready(fake(100 + w), w, None);
        }
        let mut got = vec![];
        while let Some(t) = s.get_ready(0, None) {
            got.push(t.0 as usize);
        }
        got.sort();
        assert_eq!(got, vec![100, 101, 102, 103]);
    }

    #[test]
    fn overflow_drains_via_trylock() {
        // Capacity-1 buffer forces the overflow path on the second add.
        let s = SyncScheduler::new(1, 1, Policy::Fifo, 1);
        for i in 0..50 {
            s.add_ready(fake(i + 1), 0, None);
        }
        let mut n = 0;
        while s.get_ready(0, None).is_some() {
            n += 1;
        }
        assert_eq!(n, 50);
    }

    #[test]
    fn concurrent_producer_consumers() {
        const COUNT: usize = 20_000;
        let s = Arc::new(SyncScheduler::new(4, 2, Policy::Fifo, 64));
        let prod = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for i in 0..COUNT {
                    s.add_ready(fake(i + 1), 0, None);
                }
            })
        };
        let consumers: Vec<_> = (1..4)
            .map(|w| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut dry = 0;
                    while dry < 10_000 {
                        match s.get_ready(w, None) {
                            Some(t) => {
                                got.push(t.0 as usize);
                                dry = 0;
                            }
                            None => {
                                dry += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        prod.join().unwrap();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        // Workers may stop early; drain the rest single-threaded.
        while let Some(t) = s.get_ready(0, None) {
            all.push(t.0 as usize);
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), COUNT, "all tasks delivered exactly once");
    }

    #[test]
    fn delegation_actually_serves() {
        // One worker holds the lock and keeps serving; others must get
        // tasks without ever acquiring. We can't force interleavings, but
        // we can check aggregate conservation under heavy contention.
        const ROUNDS: usize = 2_000;
        let s = Arc::new(SyncScheduler::new(4, 1, Policy::Fifo, 128));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let feeder = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    s.add_ready(fake(i + 1), 0, None);
                }
            })
        };
        let takers: Vec<_> = (1..4)
            .map(|w| {
                let s = Arc::clone(&s);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut n = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        if s.get_ready(w, None).is_some() {
                            n += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    n
                })
            })
            .collect();
        feeder.join().unwrap();
        // Let consumers finish the backlog, then stop them.
        while s.approx_len() > 0 {
            std::thread::yield_now();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let consumed: usize = takers.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(consumed <= ROUNDS);
        // Whatever remains must be drainable here (nothing lost).
        let mut rest = 0;
        while s.get_ready(0, None).is_some() {
            rest += 1;
        }
        assert_eq!(consumed + rest, ROUNDS);
    }
}
