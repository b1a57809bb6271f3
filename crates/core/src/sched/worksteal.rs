//! Work-stealing scheduler — the §6.3 comparator.
//!
//! "Both the LLVM, AMD AOCC and Intel OpenMP runtime are based on a
//! work-stealing scheduler, which will allow us to determine if our
//! centralized delegation-based implementation can outperform
//! work-stealing runtimes."
//!
//! Per-worker deques protected by small mutexes (which is what GOMP and
//! the LLVM OpenMP runtime actually do — neither uses a lock-free
//! Chase–Lev deque for tasks), local push/pop on one end, steals from the
//! other end of a victim chosen by round-robin probing from a random
//! start. The §3 observation this exists to demonstrate: "on the typical
//! application design pattern in which a single thread creates all tasks,
//! work-stealing behaves similarly to the global lock approach because
//! most threads need to steal work from a single creator queue".

use core::sync::atomic::{AtomicU64, Ordering};
use nanotask_locks::CachePadded;
use nanotask_obs::Registry;
use parking_lot::Mutex;
use std::collections::VecDeque;

use super::{
    Rec, SchedCounters, SchedKind, SchedOpStats, Scheduler, Scope, TaskPtr, WsVariant, take_within,
};

/// Work-stealing scheduler with one deque per worker.
pub struct WorkStealScheduler {
    deques: Box<[CachePadded<Mutex<VecDeque<TaskPtr>>>]>,
    seeds: Box<[CachePadded<AtomicU64>]>,
    variant: WsVariant,
    counters: SchedCounters,
}

impl WorkStealScheduler {
    /// Create a scheduler for `workers` workers.
    pub fn new(workers: usize, variant: WsVariant) -> Self {
        let n = workers.max(1);
        Self {
            deques: (0..n)
                .map(|_| CachePadded::new(Mutex::new(VecDeque::new())))
                .collect(),
            seeds: (0..n)
                .map(|i| CachePadded::new(AtomicU64::new(0x9E37_79B9 ^ (i as u64 + 1))))
                .collect(),
            variant,
            counters: SchedCounters::detached(n),
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

    /// xorshift step on the worker's private seed.
    fn next_rand(&self, worker: usize) -> u64 {
        let s = &self.seeds[worker % self.seeds.len()];
        let mut x = s.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.store(x, Ordering::Relaxed);
        x
    }

    /// Pop from `worker`'s own deque: newest-first for a waiter's scope
    /// (the work-first owner), the variant's end otherwise.
    fn pop_local(&self, worker: usize, scope: Scope) -> Option<TaskPtr> {
        let mut dq = self.deques[worker].lock();
        if scope != Scope::ANY {
            // SAFETY: queued tasks and the waiter's task are live (the
            // scheduler contract).
            return unsafe { take_within(&mut dq, scope) };
        }
        match self.variant {
            WsVariant::LifoLocal => dq.pop_back(),
            WsVariant::FifoLocal => dq.pop_front(),
        }
    }

    /// Steal from another worker's deque; a capped waiter steals only
    /// descendants of its scope.
    fn steal(&self, thief: usize, scope: Scope) -> Option<TaskPtr> {
        let n = self.deques.len();
        if n <= 1 {
            return None;
        }
        let start = (self.next_rand(thief) as usize) % n;
        for i in 0..n {
            let victim = (start + i) % n;
            if victim == thief {
                continue;
            }
            // Steal the *oldest* task (opposite end of LIFO local pops):
            // the standard work-stealing discipline. A capped waiter takes
            // a descendant or nothing.
            let mut dq = self.deques[victim].lock();
            let t = if scope.is_capped() {
                // SAFETY: as in `pop_local`.
                unsafe { take_within(&mut dq, scope) }
            } else {
                dq.pop_front()
            };
            if t.is_some() {
                return t;
            }
        }
        None
    }
}

impl Scheduler for WorkStealScheduler {
    fn add_ready(&self, task: TaskPtr, worker: usize, rec: Rec<'_>) {
        if let Some(r) = rec {
            r.record(nanotask_trace::EventKind::AddReady, unsafe { (*task.0).id });
        }
        self.counters.add(worker);
        let w = worker % self.deques.len();
        let mut dq = self.deques[w].lock();
        self.counters.lock(worker);
        dq.push_back(task);
    }

    fn get_ready_within(&self, worker: usize, scope: Scope, _rec: Rec<'_>) -> Option<TaskPtr> {
        let w = worker % self.deques.len();
        let t = self.pop_local(w, scope).or_else(|| self.steal(w, scope));
        if t.is_some() {
            self.counters.pop(worker);
        }
        t
    }

    fn approx_len(&self) -> usize {
        self.counters.queued()
    }

    fn kind(&self) -> SchedKind {
        SchedKind::WorkSteal(self.variant)
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

    #[test]
    fn local_lifo_order() {
        let s = WorkStealScheduler::new(2, WsVariant::LifoLocal);
        s.add_ready(fake(1), 0, None);
        s.add_ready(fake(2), 0, None);
        assert_eq!(s.get_ready(0, None), Some(fake(2)));
        assert_eq!(s.get_ready(0, None), Some(fake(1)));
    }

    #[test]
    fn local_fifo_order() {
        let s = WorkStealScheduler::new(2, WsVariant::FifoLocal);
        s.add_ready(fake(1), 0, None);
        s.add_ready(fake(2), 0, None);
        assert_eq!(s.get_ready(0, None), Some(fake(1)));
        assert_eq!(s.get_ready(0, None), Some(fake(2)));
    }

    #[test]
    fn steals_oldest_from_victim() {
        let s = WorkStealScheduler::new(2, WsVariant::LifoLocal);
        s.add_ready(fake(1), 0, None);
        s.add_ready(fake(2), 0, None);
        // Worker 1 has nothing: it must steal worker 0's oldest task.
        assert_eq!(s.get_ready(1, None), Some(fake(1)));
        assert_eq!(s.get_ready(0, None), Some(fake(2)));
        assert_eq!(s.get_ready(1, None), None);
    }

    #[test]
    fn single_worker_cannot_steal() {
        let s = WorkStealScheduler::new(1, WsVariant::LifoLocal);
        assert_eq!(s.get_ready(0, None), None);
        s.add_ready(fake(1), 0, None);
        assert_eq!(s.get_ready(0, None), Some(fake(1)));
    }

    #[test]
    fn concurrent_conservation() {
        const COUNT: usize = 20_000;
        let s = Arc::new(WorkStealScheduler::new(4, WsVariant::LifoLocal));
        let prod = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for i in 0..COUNT {
                    s.add_ready(fake(i + 1), 0, None);
                }
            })
        };
        let thieves: Vec<_> = (1..4)
            .map(|w| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut dry = 0;
                    while dry < 5_000 {
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
        let mut all: Vec<usize> = thieves
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        while let Some(t) = s.get_ready(0, None) {
            all.push(t.0 as usize);
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), COUNT);
    }
}
