//! Central lock-protected scheduler.
//!
//! "Using a global lock is the most straightforward approach to
//! synchronize the scheduler. [...] When task granularity is coarse
//! enough, this approach works well and keeps the scheduling system's
//! design simple and the scheduling policies accurate." (§3)
//!
//! Instantiated with the [`nanotask_locks::PtLock`] this is exactly the
//! paper's "w/o DTLock" ablation (every `addReadyTask` and every
//! `getReadyTask` fights for the same lock — the behaviour Figure 10's
//! lower trace visualizes); the generic parameter also allows the
//! Ticket/MCS/TWA lock studies of §3.2 at the scheduler level.

use core::cell::UnsafeCell;
use nanotask_locks::RawLock;
use nanotask_obs::Registry;
use nanotask_trace::EventKind;

use super::{
    Policy, PolicyQueue, Rec, SchedCounters, SchedKind, SchedOpStats, Scheduler, Scope, TaskPtr,
};

/// A policy queue behind one global lock `L`.
pub struct CentralScheduler<L: RawLock> {
    lock: L,
    queue: UnsafeCell<PolicyQueue>,
    kind: SchedKind,
    counters: SchedCounters,
    len: core::sync::atomic::AtomicUsize,
}

unsafe impl<L: RawLock> Send for CentralScheduler<L> {}
unsafe impl<L: RawLock> Sync for CentralScheduler<L> {}

impl<L: RawLock> CentralScheduler<L> {
    /// Counter shards when built standalone: the constructor does not
    /// know the worker count, and out-of-range worker ids clamp to the
    /// last shard anyway, so a fixed width only affects contention.
    const DETACHED_SHARDS: usize = 16;

    /// Create an empty scheduler.
    pub fn new(policy: Policy, kind: SchedKind) -> Self {
        Self {
            lock: L::default(),
            queue: UnsafeCell::new(PolicyQueue::new(policy)),
            kind,
            counters: SchedCounters::detached(Self::DETACHED_SHARDS, 0),
            len: core::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Bind the operation counters to a shared metrics registry
    /// (`None` keeps the private detached counters).
    pub fn with_registry(mut self, reg: Option<&Registry>) -> Self {
        if let Some(reg) = reg {
            self.counters = SchedCounters::new(reg, 0);
        }
        self
    }
}

impl<L: RawLock> Scheduler for CentralScheduler<L> {
    fn add_ready(&self, task: TaskPtr, worker: usize, rec: Rec<'_>) {
        self.counters.add(worker);
        self.lock.lock();
        self.counters.lock(worker);
        // SAFETY: queue accessed only under `lock`.
        unsafe { (*self.queue.get()).push(task) };
        self.lock.unlock();
        self.len.fetch_add(1, core::sync::atomic::Ordering::Relaxed);
        if let Some(r) = rec {
            r.record(EventKind::AddReady, unsafe { (*task.0).id });
        }
    }

    fn add_ready_batch(&self, tasks: &[TaskPtr], worker: usize, rec: Rec<'_>) {
        match tasks {
            [] => return,
            [t] => return self.add_ready(*t, worker, rec),
            _ => {}
        }
        self.counters.batch(worker, tasks.len());
        // One lock acquisition covers the whole released batch — the
        // amortization the "w/o DTLock" ablation gets from batching.
        self.lock.lock();
        self.counters.lock(worker);
        // SAFETY: queue accessed only under `lock`.
        let q = unsafe { &mut *self.queue.get() };
        for &t in tasks {
            q.push(t);
        }
        self.lock.unlock();
        self.len
            .fetch_add(tasks.len(), core::sync::atomic::Ordering::Relaxed);
        if let Some(r) = rec {
            r.record(EventKind::ReadyBatch, tasks.len() as u64);
        }
    }

    fn add_ready_batch_to(&self, node: usize, tasks: &[TaskPtr], worker: usize, rec: Rec<'_>) {
        if tasks.is_empty() {
            return;
        }
        // One queue, no per-node structure: the node target is advisory.
        // The batch still amortizes the lock, and the targeted counters
        // keep the replay partitioner's routing observable.
        self.counters.targeted(worker, tasks.len());
        self.lock.lock();
        self.counters.lock(worker);
        // SAFETY: queue accessed only under `lock`.
        let q = unsafe { &mut *self.queue.get() };
        for &t in tasks {
            q.push(t);
        }
        self.lock.unlock();
        self.len
            .fetch_add(tasks.len(), core::sync::atomic::Ordering::Relaxed);
        if let Some(r) = rec {
            r.record(
                EventKind::NodeReadyBatch,
                ((node as u64) << 32) | tasks.len() as u64,
            );
        }
    }

    fn get_ready_within(&self, worker: usize, scope: Scope, _rec: Rec<'_>) -> Option<TaskPtr> {
        self.lock.lock();
        self.counters.lock(worker);
        // SAFETY: queue accessed only under `lock`; queued tasks and the
        // waiter's task are live (the scheduler contract).
        let t = unsafe { (*self.queue.get()).pop_within(scope) };
        self.lock.unlock();
        if t.is_some() {
            self.len.fetch_sub(1, core::sync::atomic::Ordering::Relaxed);
            self.counters.pop(worker);
        }
        t
    }

    fn approx_len(&self) -> usize {
        self.len.load(core::sync::atomic::Ordering::Relaxed)
    }

    fn kind(&self) -> SchedKind {
        self.kind
    }

    fn op_stats(&self) -> SchedOpStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::super::LockKind;
    use super::*;
    use crate::task::Task;
    use nanotask_locks::PtLock;
    use std::sync::Arc;

    fn fake(n: usize) -> TaskPtr {
        TaskPtr(n as *mut Task)
    }

    #[test]
    fn fifo_roundtrip() {
        let s =
            CentralScheduler::<PtLock<16>>::new(Policy::Fifo, SchedKind::Central(LockKind::PtLock));
        s.add_ready(fake(1), 0, None);
        s.add_ready(fake(2), 0, None);
        assert_eq!(s.approx_len(), 2);
        assert_eq!(s.get_ready(0, None), Some(fake(1)));
        assert_eq!(s.get_ready(1, None), Some(fake(2)));
        assert_eq!(s.get_ready(1, None), None);
        assert_eq!(s.approx_len(), 0);
    }

    #[test]
    fn batch_add_amortizes_lock() {
        let s =
            CentralScheduler::<PtLock<16>>::new(Policy::Fifo, SchedKind::Central(LockKind::PtLock));
        let batch: Vec<TaskPtr> = (1..=6).map(fake).collect();
        s.add_ready_batch(&batch, 0, None);
        let after_add = s.op_stats();
        assert_eq!(after_add.batch_adds, 1);
        assert_eq!(after_add.batch_tasks, 6);
        assert_eq!(after_add.lock_acquisitions, 1, "one lock for the batch");
        let mut got = vec![];
        while let Some(t) = s.get_ready(0, None) {
            got.push(t.0 as usize);
        }
        assert_eq!(got, (1..=6).collect::<Vec<_>>());
    }

    #[test]
    fn targeted_batch_is_accepted_and_counted() {
        let s =
            CentralScheduler::<PtLock<16>>::new(Policy::Fifo, SchedKind::Central(LockKind::PtLock));
        let batch: Vec<TaskPtr> = (1..=4).map(fake).collect();
        s.add_ready_batch_to(1, &batch, 0, None);
        let ops = s.op_stats();
        assert_eq!(ops.targeted_batch_adds, 1);
        assert_eq!(ops.targeted_tasks, 4);
        assert_eq!(ops.batch_adds, 0, "targeted adds counted separately");
        let mut got = vec![];
        while let Some(t) = s.get_ready(0, None) {
            got.push(t.0 as usize);
        }
        assert_eq!(got, (1..=4).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_producers_consumers_lose_nothing() {
        let s = Arc::new(CentralScheduler::<PtLock<64>>::new(
            Policy::Fifo,
            SchedKind::Central(LockKind::PtLock),
        ));
        const PER: usize = 5_000;
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        s.add_ready(fake(p * PER + i + 1), p, None);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|c| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while got.len() < PER {
                        if let Some(t) = s.get_ready(c, None) {
                            got.push(t.0 as usize);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 2 * PER, "every task delivered exactly once");
    }
}
