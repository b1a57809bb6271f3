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

use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use nanotask_locks::CachePadded;
use nanotask_obs::Registry;
use parking_lot::Mutex;
use std::collections::VecDeque;

use super::{
    NodeOpStats, Rec, SchedCounters, SchedKind, SchedOpStats, Scheduler, Scope, TaskPtr, WsVariant,
    take_within,
};
use crate::platform::Topology;

/// Work-stealing scheduler with one deque per worker.
pub struct WorkStealScheduler {
    deques: Box<[CachePadded<Mutex<VecDeque<TaskPtr>>>]>,
    seeds: Box<[CachePadded<AtomicU64>]>,
    /// Worker→NUMA-node placement: node-targeted batches go to a deque
    /// of a worker on the target node (round-robin within the node).
    topo: Topology,
    /// Round-robin cursor per node for targeted insertion.
    rr: Box<[CachePadded<AtomicUsize>]>,
    /// Workers of each node, precomputed so the targeted hot path never
    /// allocates.
    node_members: Box<[Box<[usize]>]>,
    variant: WsVariant,
    counters: SchedCounters,
    len: AtomicUsize,
}

impl WorkStealScheduler {
    /// Create a scheduler for `workers` workers over `numa_nodes` nodes
    /// (the node map only matters for node-targeted insertion; local
    /// pushes and steals are per-worker as before).
    pub fn new(workers: usize, numa_nodes: usize, variant: WsVariant) -> Self {
        let n = workers.max(1);
        let topo = Topology::contiguous(n, numa_nodes);
        let nodes = topo.nodes();
        let node_members: Box<[Box<[usize]>]> =
            (0..nodes).map(|nd| topo.workers_of(nd).collect()).collect();
        Self {
            deques: (0..n)
                .map(|_| CachePadded::new(Mutex::new(VecDeque::new())))
                .collect(),
            seeds: (0..n)
                .map(|i| CachePadded::new(AtomicU64::new(0x9E37_79B9 ^ (i as u64 + 1))))
                .collect(),
            topo,
            rr: (0..nodes)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
            node_members,
            variant,
            counters: SchedCounters::detached(n, nodes),
            len: AtomicUsize::new(0),
        }
    }

    /// Bind the operation counters to a shared metrics registry
    /// (`None` keeps the private detached counters).
    pub fn with_registry(mut self, reg: Option<&Registry>) -> Self {
        if let Some(reg) = reg {
            self.counters = SchedCounters::new(reg, self.topo.nodes());
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
        self.len.fetch_add(1, Ordering::Relaxed);
        let w = worker % self.deques.len();
        self.counters.node_home(worker, self.topo.node_of(w), 1);
        let mut dq = self.deques[w].lock();
        self.counters.lock(worker);
        dq.push_back(task);
    }

    fn add_ready_batch(&self, tasks: &[TaskPtr], worker: usize, rec: Rec<'_>) {
        match tasks {
            [] => return,
            [t] => return self.add_ready(*t, worker, rec),
            _ => {}
        }
        if let Some(r) = rec {
            r.record(nanotask_trace::EventKind::ReadyBatch, tasks.len() as u64);
        }
        self.counters.batch(worker, tasks.len());
        self.len.fetch_add(tasks.len(), Ordering::Relaxed);
        let w = worker % self.deques.len();
        self.counters
            .node_home(worker, self.topo.node_of(w), tasks.len() as u64);
        // One deque-lock acquisition pushes the whole released batch.
        let mut dq = self.deques[w].lock();
        self.counters.lock(worker);
        dq.extend(tasks.iter().copied());
    }

    fn add_ready_batch_to(&self, node: usize, tasks: &[TaskPtr], worker: usize, rec: Rec<'_>) {
        if tasks.is_empty() {
            return;
        }
        if let Some(r) = rec {
            r.record(
                nanotask_trace::EventKind::NodeReadyBatch,
                ((node as u64) << 32) | tasks.len() as u64,
            );
        }
        self.counters.targeted(worker, tasks.len());
        self.len.fetch_add(tasks.len(), Ordering::Relaxed);
        // A deque of a worker on the target node, round-robin within the
        // node so one hot partition does not pile onto a single deque.
        let node = node.min(self.topo.nodes() - 1);
        self.counters
            .node_targeted(worker, node, tasks.len() as u64);
        let members = &self.node_members[node];
        let k = self.rr[node].fetch_add(1, Ordering::Relaxed) % members.len().max(1);
        let target = members.get(k).copied().unwrap_or(0);
        let mut dq = self.deques[target].lock();
        self.counters.lock(worker);
        dq.extend(tasks.iter().copied());
    }

    fn get_ready_within(&self, worker: usize, scope: Scope, _rec: Rec<'_>) -> Option<TaskPtr> {
        let w = worker % self.deques.len();
        let t = self.pop_local(w, scope).or_else(|| self.steal(w, scope));
        if t.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
            self.counters.pop(worker);
        }
        t
    }

    fn approx_len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn kind(&self) -> SchedKind {
        SchedKind::WorkSteal(self.variant)
    }

    fn op_stats(&self) -> SchedOpStats {
        self.counters.snapshot()
    }

    fn node_stats(&self) -> Vec<NodeOpStats> {
        self.counters.node_snapshot()
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
        let s = WorkStealScheduler::new(2, 1, WsVariant::LifoLocal);
        s.add_ready(fake(1), 0, None);
        s.add_ready(fake(2), 0, None);
        assert_eq!(s.get_ready(0, None), Some(fake(2)));
        assert_eq!(s.get_ready(0, None), Some(fake(1)));
    }

    #[test]
    fn local_fifo_order() {
        let s = WorkStealScheduler::new(2, 1, WsVariant::FifoLocal);
        s.add_ready(fake(1), 0, None);
        s.add_ready(fake(2), 0, None);
        assert_eq!(s.get_ready(0, None), Some(fake(1)));
        assert_eq!(s.get_ready(0, None), Some(fake(2)));
    }

    #[test]
    fn steals_oldest_from_victim() {
        let s = WorkStealScheduler::new(2, 1, WsVariant::LifoLocal);
        s.add_ready(fake(1), 0, None);
        s.add_ready(fake(2), 0, None);
        // Worker 1 has nothing: it must steal worker 0's oldest task.
        assert_eq!(s.get_ready(1, None), Some(fake(1)));
        assert_eq!(s.get_ready(0, None), Some(fake(2)));
        assert_eq!(s.get_ready(1, None), None);
    }

    #[test]
    fn single_worker_cannot_steal() {
        let s = WorkStealScheduler::new(1, 1, WsVariant::LifoLocal);
        assert_eq!(s.get_ready(0, None), None);
        s.add_ready(fake(1), 0, None);
        assert_eq!(s.get_ready(0, None), Some(fake(1)));
    }

    #[test]
    fn batch_add_one_deque_lock() {
        let s = WorkStealScheduler::new(2, 1, WsVariant::FifoLocal);
        let batch: Vec<TaskPtr> = (1..=5).map(fake).collect();
        s.add_ready_batch(&batch, 0, None);
        let ops = s.op_stats();
        assert_eq!(ops.batch_adds, 1);
        assert_eq!(ops.batch_tasks, 5);
        assert_eq!(ops.lock_acquisitions, 1);
        let mut got = vec![];
        while let Some(t) = s.get_ready(0, None) {
            got.push(t.0 as usize);
        }
        assert_eq!(got, (1..=5).collect::<Vec<_>>());
    }

    #[test]
    fn targeted_batch_lands_on_target_node_deques() {
        // 4 workers over 2 nodes: node 1 = workers {2, 3}. A batch
        // targeted at node 1 must be poppable locally by those workers
        // without stealing.
        let s = WorkStealScheduler::new(4, 2, WsVariant::FifoLocal);
        let batch: Vec<TaskPtr> = (1..=4).map(fake).collect();
        s.add_ready_batch_to(1, &batch, 0, None);
        let ns = s.node_stats();
        assert_eq!(ns.len(), 2);
        assert_eq!(ns[1].targeted_tasks, 4, "{ns:?}");
        assert_eq!(ns[0].targeted_tasks, 0, "{ns:?}");
        let mut local = vec![];
        while let Some(t) = s
            .pop_local(2, Scope::ANY)
            .or_else(|| s.pop_local(3, Scope::ANY))
        {
            local.push(t.0 as usize);
        }
        local.sort();
        assert_eq!(local, (1..=4).collect::<Vec<_>>(), "all on node-1 deques");
        let ops = s.op_stats();
        assert_eq!(ops.targeted_batch_adds, 1);
        assert_eq!(ops.targeted_tasks, 4);
    }

    #[test]
    fn targeted_round_robin_spreads_within_node() {
        let s = WorkStealScheduler::new(4, 2, WsVariant::FifoLocal);
        s.add_ready_batch_to(0, &[fake(1), fake(2)], 3, None);
        s.add_ready_batch_to(0, &[fake(3), fake(4)], 3, None);
        // Two batches round-robin over node 0's workers {0, 1}.
        assert!(s.pop_local(0, Scope::ANY).is_some(), "worker 0 got a batch");
        assert!(
            s.pop_local(1, Scope::ANY).is_some(),
            "worker 1 got the next batch"
        );
    }

    #[test]
    fn concurrent_conservation() {
        const COUNT: usize = 20_000;
        let s = Arc::new(WorkStealScheduler::new(4, 1, WsVariant::LifoLocal));
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
