//! Task scheduling system (§3 of the paper).
//!
//! "When a task becomes ready, it is forwarded to the scheduling system.
//! Then, when a core becomes idle, it calls the scheduler to ask for more
//! work." Three interchangeable synchronization strategies implement that
//! contract:
//!
//! * [`sync_sched::SyncScheduler`] — the paper's design (Listing 5):
//!   per-NUMA wait-free SPSC buffers decouple task *insertion* from the
//!   scheduler, and a Delegation Ticket Lock both protects the policy
//!   queue and lets the lock owner *serve* tasks directly to waiting
//!   workers.
//! * [`central::CentralScheduler`] — a single lock around the policy
//!   queue; instantiated with the PTLock it is the "w/o DTLock" ablation
//!   of §6.2, and it accepts any [`RawLock`] for the lock-design studies.
//! * [`worksteal::WorkStealScheduler`] — per-worker deques with stealing,
//!   the architecture of the OpenMP runtimes the paper compares against
//!   in §6.3.

pub mod central;
pub mod sync_sched;
pub mod worksteal;

use nanotask_obs::{Counter, Registry};
use nanotask_trace::CoreRecorder;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use crate::task::Task;

/// Snapshot of scheduler operation counters — the machine-checkable side
/// of the zero-queue fast-path claim: how many tasks entered the ready
/// structures one at a time vs. in batches, how many pops were served
/// from a per-worker cache, and how often the scheduler's lock was
/// actually acquired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedOpStats {
    /// Tasks added one at a time (`add_ready`).
    pub adds: u64,
    /// `add_ready_batch` calls.
    pub batch_adds: u64,
    /// Tasks added through batches.
    pub batch_tasks: u64,
    /// Successful pops (`get_ready` returned a task).
    pub pops: u64,
    /// Pops served from the per-worker pop cache (no lock touched).
    pub pop_cache_hits: u64,
    /// *Global* scheduler-lock acquisitions (DTLock ownership
    /// transitions for the delegation scheduler, central-lock
    /// acquisitions otherwise; work-stealing counts per-deque lock
    /// acquisitions). Deliberately excludes the delegation scheduler's
    /// per-node partition-queue locks and SPSC producer locks: those are
    /// node-local — the whole point of node-targeted insertion is
    /// replacing machine-wide serialization with node-scoped locks, and
    /// this counter measures exactly the machine-wide part.
    pub lock_acquisitions: u64,
    /// `add_ready_batch_to` calls (node-targeted insertion, the NUMA-aware
    /// replay partitioning release path).
    pub targeted_batch_adds: u64,
    /// Tasks added through node-targeted batches.
    pub targeted_tasks: u64,
    /// Partition-routed releases kept as the releasing worker's inline
    /// next task instead of entering their node's queue — the zero-queue
    /// fast path composed with the static schedule. Runtime-side: the
    /// scheduler never sees these (that is the point), so scheduler
    /// snapshots report 0 and `Runtime::run_report` folds the counter in.
    pub inline_routed: u64,
}

/// Per-NUMA-node insertion counters of one scheduler, the
/// machine-checkable side of the NUMA-aware replay partitioning claim:
/// how many tasks entered this node's ready structure because a caller
/// *targeted* it (the replay partitioner's release path) vs because the
/// producing worker happened to live there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeOpStats {
    /// Tasks inserted into this node's structure via
    /// [`Scheduler::add_ready_batch_to`].
    pub targeted_tasks: u64,
    /// Tasks inserted via producer-home routing (`add_ready` /
    /// `add_ready_batch` from a worker placed on this node).
    pub home_tasks: u64,
}

/// Registry-backed counters behind [`SchedOpStats`] and [`NodeOpStats`].
/// Every update is a plain load+store on the calling worker's shard of a
/// [`nanotask_obs::Counter`] (the §5 tracer discipline applied to
/// metrics); the snapshot aggregates shards and is advisory (diagnostics
/// and benchmark reporting, never control flow). Schedulers built
/// through [`make_scheduler`] with a registry share it with the runtime,
/// so `Runtime::run_report` *is* a registry snapshot; schedulers built
/// standalone get [`SchedCounters::detached`] over a private registry.
#[derive(Clone)]
pub(crate) struct SchedCounters {
    adds: Counter,
    batch_adds: Counter,
    batch_tasks: Counter,
    pops: Counter,
    pop_cache_hits: Counter,
    lock_acquisitions: Counter,
    targeted_batch_adds: Counter,
    targeted_tasks: Counter,
    node_targeted: Arc<[Counter]>,
    node_home: Arc<[Counter]>,
}

impl SchedCounters {
    /// Counters registered in `reg`, with one labeled per-node counter
    /// pair per NUMA node (`nodes == 0` for schedulers without per-node
    /// structures).
    pub(crate) fn new(reg: &Registry, nodes: usize) -> Self {
        let node_counter = |name: &'static str, node: usize| {
            reg.counter_with(name, vec![("node", node.to_string())])
        };
        Self {
            adds: reg.counter("nanotask_sched_adds_total"),
            batch_adds: reg.counter("nanotask_sched_batch_adds_total"),
            batch_tasks: reg.counter("nanotask_sched_batch_tasks_total"),
            pops: reg.counter("nanotask_sched_pops_total"),
            pop_cache_hits: reg.counter("nanotask_sched_pop_cache_hits_total"),
            lock_acquisitions: reg.counter("nanotask_sched_lock_acquisitions_total"),
            targeted_batch_adds: reg.counter("nanotask_sched_targeted_batch_adds_total"),
            targeted_tasks: reg.counter("nanotask_sched_targeted_tasks_total"),
            node_targeted: (0..nodes)
                .map(|n| node_counter("nanotask_node_targeted_tasks_total", n))
                .collect(),
            node_home: (0..nodes)
                .map(|n| node_counter("nanotask_node_home_tasks_total", n))
                .collect(),
        }
    }

    /// Counters over a private registry, for schedulers constructed
    /// outside a runtime (unit tests, microbenchmarks).
    pub(crate) fn detached(shards: usize, nodes: usize) -> Self {
        Self::new(&Registry::new(shards), nodes)
    }

    #[inline]
    pub(crate) fn add(&self, worker: usize) {
        self.adds.inc(worker);
    }
    #[inline]
    pub(crate) fn batch(&self, worker: usize, n: usize) {
        self.batch_adds.inc(worker);
        self.batch_tasks.add(worker, n as u64);
    }
    #[inline]
    pub(crate) fn pop(&self, worker: usize) {
        self.pops.inc(worker);
    }
    #[inline]
    pub(crate) fn cache_hit(&self, worker: usize) {
        self.pop_cache_hits.inc(worker);
    }
    #[inline]
    pub(crate) fn lock(&self, worker: usize) {
        self.lock_acquisitions.inc(worker);
    }
    #[inline]
    pub(crate) fn targeted(&self, worker: usize, n: usize) {
        self.targeted_batch_adds.inc(worker);
        self.targeted_tasks.add(worker, n as u64);
    }
    #[inline]
    pub(crate) fn node_home(&self, worker: usize, node: usize, n: u64) {
        if let Some(c) = self.node_home.get(node) {
            c.add(worker, n);
        }
    }
    #[inline]
    pub(crate) fn node_targeted(&self, worker: usize, node: usize, n: u64) {
        if let Some(c) = self.node_targeted.get(node) {
            c.add(worker, n);
        }
    }

    pub(crate) fn snapshot(&self) -> SchedOpStats {
        SchedOpStats {
            adds: self.adds.value(),
            batch_adds: self.batch_adds.value(),
            batch_tasks: self.batch_tasks.value(),
            pops: self.pops.value(),
            pop_cache_hits: self.pop_cache_hits.value(),
            lock_acquisitions: self.lock_acquisitions.value(),
            targeted_batch_adds: self.targeted_batch_adds.value(),
            targeted_tasks: self.targeted_tasks.value(),
            inline_routed: 0,
        }
    }

    pub(crate) fn node_snapshot(&self) -> Vec<NodeOpStats> {
        self.node_targeted
            .iter()
            .zip(self.node_home.iter())
            .map(|(t, h)| NodeOpStats {
                targeted_tasks: t.value(),
                home_tasks: h.value(),
            })
            .collect()
    }
}

/// Send/Sync wrapper for task pointers travelling through queues.
/// `repr(transparent)` so a `&[*mut Task]` can be reinterpreted as a
/// `&[TaskPtr]` without copying (the batched-release hand-off).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(transparent)]
pub struct TaskPtr(pub *mut Task);

unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// Ordering policy of the (unsynchronized) ready queue — the paper keeps
/// the policy pluggable behind the scheduler lock, which is the stated
/// reason for rejecting a lock-free scheduler design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// First-in first-out (creation order; the paper's Figure 3 example).
    #[default]
    Fifo,
    /// Last-in first-out (depth-first, cache-friendlier for some loads).
    /// Idle workers then pop the newest task too; a waiter inside
    /// `taskwait` pops newest-first under every policy but `Priority`
    /// (see [`Scope`]), so `Lifo` only changes what idle workers and the
    /// root task's waits take.
    Lifo,
    /// Highest task priority first, FIFO among equals — the OmpSs-2
    /// `priority` clause. Exists partly to demonstrate the paper's §3.2
    /// argument for a lock-protected scheduler: "adding new scheduling
    /// policies should be easy" (a lock-free design would need a new
    /// ad-hoc structure per policy; this one is a 20-line change).
    Priority,
}

/// Where a pop may take work from: the work-first discipline of
/// work-stealing runtimes (Cilk-5: the owner runs its newest work, thieves
/// take the oldest) applied to a waiter inside `taskwait`.
///
/// [`Scope::ANY`] is an idle worker, a thief, or a wait in the root task
/// (every task descends from it): it gets the policy's own order (oldest
/// first under [`Policy::Fifo`]). Any other waiter passes
/// [`Scope::within`] the task it waits in and is answered in this order:
///
/// 1. the newest queued descendant of that task, among the newest 32
///    entries;
/// 2. below the nesting cap, the newest queued task of any kind;
/// 3. at the cap, the newest descendant anywhere in the queue, and
///    otherwise nothing (OpenMP's task scheduling constraint for tied
///    tasks: the waiter may only run what its own wait needs).
///
/// [`Policy::Priority`] ignores the scope: priority order is its point.
/// The task pointer and the capped flag share one word (tasks are at
/// least 2-aligned), so the delegation scheduler can publish a waiter's
/// scope in one atomic slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope(*const Task);

impl Scope {
    /// No scope: the policy's own order.
    pub const ANY: Scope = Scope(core::ptr::null());
    const CAPPED: usize = 1;

    /// The scope of a waiter in `task`; `capped` when the waiter sits at
    /// the nesting cap and may only run descendants of `task`.
    pub fn within(task: *const Task, capped: bool) -> Self {
        const { assert!(core::mem::align_of::<Task>() > Self::CAPPED) };
        debug_assert!(!task.is_null());
        Scope(task.map_addr(|a| a | capped as usize))
    }

    /// The task waited in (null for [`Scope::ANY`]).
    pub(crate) fn task(self) -> *const Task {
        self.0.map_addr(|a| a & !Self::CAPPED)
    }

    /// Whether only descendants of [`Scope::task`] may be returned.
    pub(crate) fn is_capped(self) -> bool {
        self.0.addr() & Self::CAPPED != 0
    }

    /// The packed word, for a slot another thread reads.
    pub(crate) fn into_raw(self) -> *mut Task {
        self.0.cast_mut()
    }

    /// Inverse of [`Scope::into_raw`].
    pub(crate) fn from_raw(p: *mut Task) -> Self {
        Scope(p)
    }
}

/// How many of the newest queued tasks a scoped pop searches for a
/// descendant before it falls back (step 1 of [`Scope`]).
const SCOPE_SCAN: usize = 32;

/// The scoped pop of [`Scope`] over a queue whose back holds the newest
/// task. `scope` must not be [`Scope::ANY`].
///
/// # Safety
/// Every queued pointer and `scope.task()` must point to live tasks.
pub(crate) unsafe fn take_within(q: &mut VecDeque<TaskPtr>, scope: Scope) -> Option<TaskPtr> {
    let waited = scope.task();
    // SAFETY: queued tasks and the waited-in task are live (caller).
    let descends = |t: &TaskPtr| unsafe { Task::descends_from(t.0, waited) };
    let near = q.len().saturating_sub(SCOPE_SCAN);
    if let Some(i) = q.range(near..).rposition(descends) {
        return q.remove(near + i);
    }
    if !scope.is_capped() {
        return q.pop_back();
    }
    let i = q.range(..near).rposition(descends)?;
    q.remove(i)
}

/// Heap entry: priority first, then insertion order (older wins ties).
struct PrioEntry {
    prio: i32,
    seq: u64,
    task: TaskPtr,
}

impl PartialEq for PrioEntry {
    fn eq(&self, other: &Self) -> bool {
        self.prio == other.prio && self.seq == other.seq
    }
}
impl Eq for PrioEntry {}
impl PartialOrd for PrioEntry {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PrioEntry {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Max-heap: higher priority first, then lower seq (FIFO).
        self.prio
            .cmp(&other.prio)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The *unsynchronized* scheduler of Listing 5: a plain queue with a
/// policy. All synchronization lives in the wrapper.
pub struct PolicyQueue {
    q: VecDeque<TaskPtr>,
    heap: BinaryHeap<PrioEntry>,
    policy: Policy,
    seq: u64,
}

impl PolicyQueue {
    /// Empty queue with the given policy.
    pub fn new(policy: Policy) -> Self {
        Self {
            q: VecDeque::new(),
            heap: BinaryHeap::new(),
            policy,
            seq: 0,
        }
    }

    /// Insert a ready task.
    #[inline]
    pub fn push(&mut self, t: TaskPtr) {
        match self.policy {
            Policy::Priority => {
                // SAFETY-free read: priority is an immutable task field
                // written before publication; test doubles pass null-ish
                // fake pointers only under Fifo/Lifo.
                let prio = unsafe { (*t.0).priority };
                self.seq += 1;
                self.heap.push(PrioEntry {
                    prio,
                    seq: self.seq,
                    task: t,
                });
            }
            _ => self.q.push_back(t),
        }
    }

    /// Remove the next task per policy.
    #[inline]
    pub fn pop(&mut self) -> Option<TaskPtr> {
        match self.policy {
            Policy::Fifo => self.q.pop_front(),
            Policy::Lifo => self.q.pop_back(),
            Policy::Priority => self.heap.pop().map(|e| e.task),
        }
    }

    /// Remove the next task for a pop in `scope` (see [`Scope`]).
    /// [`Scope::ANY`], and every scope under [`Policy::Priority`], is
    /// exactly [`PolicyQueue::pop`].
    ///
    /// # Safety
    /// For any other scope, every queued pointer and `scope.task()` must
    /// point to live tasks.
    #[inline]
    pub unsafe fn pop_within(&mut self, scope: Scope) -> Option<TaskPtr> {
        if scope == Scope::ANY || self.policy == Policy::Priority {
            return self.pop();
        }
        // SAFETY: forwarded from the caller.
        unsafe { take_within(&mut self.q, scope) }
    }

    /// Tasks currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.q.len() + self.heap.len()
    }

    /// True when no tasks are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty() && self.heap.is_empty()
    }
}

/// Which lock protects a [`central::CentralScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LockKind {
    /// Partitioned Ticket Lock (the "w/o DTLock" ablation).
    #[default]
    PtLock,
    /// Classic ticket lock.
    Ticket,
    /// MCS queue lock.
    Mcs,
    /// Ticket lock with waiting array.
    Twa,
    /// Test-and-set spin lock.
    Spin,
}

/// Work-stealing flavour, modelling the §6.3 OpenMP comparators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WsVariant {
    /// Local LIFO, steal oldest — LLVM/Intel-style.
    #[default]
    LifoLocal,
    /// Local FIFO, steal oldest — GOMP-style shared-queue behaviour.
    FifoLocal,
}

/// Scheduler configuration, the §6 ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedKind {
    /// SPSC buffers + Delegation Ticket Lock (the optimized runtime).
    /// §3.1 discusses one global add-buffer up to one per core; the paper
    /// uses one per NUMA node.
    #[default]
    Delegation,
    /// Delegation scheduler using the flat-combining DTLock extension
    /// (§8 future work, implemented): the owner serves *batches* of
    /// waiters in one pass instead of one `front`/`set_item`/`pop_front`
    /// round-trip each.
    DelegationFlat,
    /// Central lock-protected scheduler.
    Central(LockKind),
    /// Work-stealing comparator.
    WorkSteal(WsVariant),
}

/// Optional per-call trace recorder.
pub type Rec<'a> = Option<&'a mut CoreRecorder>;

/// The scheduler contract shared by every implementation.
pub trait Scheduler: Send + Sync {
    /// Add a ready task (any worker, any time).
    fn add_ready(&self, task: TaskPtr, worker: usize, rec: Rec<'_>);
    /// Add several ready tasks released by one completion, amortizing
    /// lock acquisitions, buffer operations and trace records across the
    /// whole batch. The default forwards to [`Scheduler::add_ready`] one
    /// task at a time; the real implementations override it.
    fn add_ready_batch(&self, tasks: &[TaskPtr], worker: usize, mut rec: Rec<'_>) {
        for &t in tasks {
            self.add_ready(t, worker, rec.as_deref_mut());
        }
    }
    /// Add several ready tasks *targeted at NUMA node `node`* instead of
    /// the producing worker's home node — the NUMA-aware replay
    /// partitioning release path: the frozen replay graph knows where
    /// each released task will run, so its batch goes straight into that
    /// node's ready structure. `worker` is still the *producing* worker
    /// (trace attribution, deque fallback). The default ignores the
    /// target and falls back to [`Scheduler::add_ready_batch`];
    /// implementations with per-node structures override it.
    ///
    /// Ordering contract: node-targeted tasks are served FIFO per node,
    /// *ahead of* the globally-ordered queue, so — like the zero-queue
    /// fast path — this trades strict global policy ordering (including
    /// [`Policy::Priority`] order) for placement. Callers opt in via
    /// `RuntimeConfig::replay_partitioning`.
    fn add_ready_batch_to(&self, node: usize, tasks: &[TaskPtr], worker: usize, rec: Rec<'_>) {
        let _ = node;
        self.add_ready_batch(tasks, worker, rec);
    }
    /// Ask for a task for `worker` on behalf of a pop in `scope`; `None`
    /// means no work this scope may take is available now. Every
    /// implementation answers a waiter's scope in the order [`Scope`]
    /// documents and [`Scope::ANY`] in its usual order; this is each
    /// scheduler's one pop path. A scope's task must stay live for the
    /// call (it is the caller's own running task).
    fn get_ready_within(&self, worker: usize, scope: Scope, rec: Rec<'_>) -> Option<TaskPtr>;
    /// Ask for a task for an idle `worker`, in the policy's own order;
    /// `None` means no work available now.
    fn get_ready(&self, worker: usize, rec: Rec<'_>) -> Option<TaskPtr> {
        self.get_ready_within(worker, Scope::ANY, rec)
    }
    /// Approximate number of queued tasks (diagnostics only).
    fn approx_len(&self) -> usize;
    /// Which configuration this is.
    fn kind(&self) -> SchedKind;
    /// Operation counters (see [`SchedOpStats`]); implementations that
    /// don't track them return zeros.
    fn op_stats(&self) -> SchedOpStats {
        SchedOpStats::default()
    }
    /// Per-NUMA-node insertion counters (see [`NodeOpStats`]), one entry
    /// per node; empty for schedulers without per-node structures.
    fn node_stats(&self) -> Vec<NodeOpStats> {
        Vec::new()
    }
}

/// Build a scheduler.
///
/// `workers` is the worker-thread count, `numa_nodes` partitions the
/// delegation scheduler's SPSC add-buffers, `spsc_capacity` bounds each
/// buffer (Listing 5 uses 100), and `pop_cache` enables the delegation
/// scheduler's per-worker pop cache (0 = disabled; part of the
/// zero-queue fast path, see [`crate::RuntimeConfig::fast_path`]).
/// `registry` binds the scheduler's operation counters to a shared
/// metrics registry (the runtime passes its own, so scheduler activity
/// shows up live in snapshots and the Prometheus export); `None` keeps
/// them on a private detached registry.
pub fn make_scheduler(
    kind: SchedKind,
    workers: usize,
    numa_nodes: usize,
    policy: Policy,
    spsc_capacity: usize,
    pop_cache: usize,
    registry: Option<&Registry>,
) -> Arc<dyn Scheduler> {
    use nanotask_locks::{McsLock, PtLock, SpinLock, TicketLock, TwaLock};
    match kind {
        SchedKind::Delegation => Arc::new(
            sync_sched::SyncScheduler::new(workers, numa_nodes, policy, spsc_capacity)
                .with_pop_cache(pop_cache)
                .with_registry(registry),
        ),
        SchedKind::DelegationFlat => Arc::new(
            sync_sched::SyncScheduler::new_flat(workers, numa_nodes, policy, spsc_capacity)
                .with_pop_cache(pop_cache)
                .with_registry(registry),
        ),
        SchedKind::Central(LockKind::PtLock) => Arc::new(
            central::CentralScheduler::<PtLock<64>>::new(policy, kind).with_registry(registry),
        ),
        SchedKind::Central(LockKind::Ticket) => Arc::new(
            central::CentralScheduler::<TicketLock>::new(policy, kind).with_registry(registry),
        ),
        SchedKind::Central(LockKind::Mcs) => Arc::new(
            central::CentralScheduler::<McsLock>::new(policy, kind).with_registry(registry),
        ),
        SchedKind::Central(LockKind::Twa) => Arc::new(
            central::CentralScheduler::<TwaLock>::new(policy, kind).with_registry(registry),
        ),
        SchedKind::Central(LockKind::Spin) => Arc::new(
            central::CentralScheduler::<SpinLock>::new(policy, kind).with_registry(registry),
        ),
        SchedKind::WorkSteal(v) => Arc::new(
            worksteal::WorkStealScheduler::new(workers, numa_nodes, v).with_registry(registry),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(n: usize) -> TaskPtr {
        TaskPtr(n as *mut Task)
    }

    #[test]
    fn policy_fifo() {
        let mut q = PolicyQueue::new(Policy::Fifo);
        q.push(fake(1));
        q.push(fake(2));
        assert_eq!(q.pop(), Some(fake(1)));
        assert_eq!(q.pop(), Some(fake(2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn policy_lifo() {
        let mut q = PolicyQueue::new(Policy::Lifo);
        q.push(fake(1));
        q.push(fake(2));
        assert_eq!(q.pop(), Some(fake(2)));
        assert_eq!(q.pop(), Some(fake(1)));
    }

    /// The seq-order-among-equals contract of [`PrioEntry`]: the
    /// priority policy pops strictly by priority, and *insertion order*
    /// among equal priorities — which is what makes Priority-policy
    /// execution deterministic when the replay engine feeds ready tasks
    /// in creation order.
    #[test]
    fn priority_ties_pop_in_insertion_order() {
        let mut q = PolicyQueue::new(Policy::Priority);
        // Real task objects: the priority policy reads `task.priority`.
        let prios = [5, 1, 5, 3, 5, 3, 1];
        let tasks: Vec<*mut Task> = prios
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let mut t = Task::new(
                    i as u64,
                    "t",
                    core::ptr::null_mut(),
                    0,
                    Box::new(|_| {}),
                    vec![],
                );
                t.priority = p;
                Box::into_raw(Box::new(t))
            })
            .collect();
        for &t in &tasks {
            q.push(TaskPtr(t));
        }
        let mut got = Vec::new();
        while let Some(t) = q.pop() {
            got.push(unsafe { ((*t.0).priority, (*t.0).id) });
        }
        // Priority-descending; ids ascending (insertion order) per tier.
        assert_eq!(
            got,
            vec![(5, 0), (5, 2), (5, 4), (3, 3), (3, 5), (1, 1), (1, 6)],
            "FIFO among equal priorities"
        );
        for t in tasks {
            unsafe { drop(Box::from_raw(t)) };
        }
    }

    /// A task under `parent` (null for a root), leaked until [`free`].
    fn node(parent: *mut Task, priority: i32) -> *mut Task {
        let mut t = Task::new(0, "t", parent, 0, Box::new(|_| {}), vec![]);
        if !parent.is_null() {
            t.level = unsafe { (*parent).level } + 1;
        }
        t.priority = priority;
        Box::into_raw(Box::new(t))
    }

    fn free(tasks: &[*mut Task]) {
        for &t in tasks {
            unsafe { drop(Box::from_raw(t)) };
        }
    }

    #[test]
    fn pop_within_takes_newest_descendant_over_newer_strangers() {
        let root = node(core::ptr::null_mut(), 0);
        let (a, b) = (node(root, 0), node(root, 0));
        let (a1, b1) = (node(a, 0), node(b, 0));
        let (a2, b2) = (node(a1, 0), node(b, 0));
        let mut q = PolicyQueue::new(Policy::Fifo);
        for t in [a1, b1, a2, b2] {
            q.push(TaskPtr(t));
        }
        let scope = Scope::within(a, false);
        let mut got = vec![];
        while let Some(t) = unsafe { q.pop_within(scope) } {
            got.push(t.0);
        }
        // a2 is a grandchild of a; then a1; then the strangers, newest
        // first.
        assert_eq!(got, vec![a2, a1, b2, b1]);
        free(&[root, a, b, a1, b1, a2, b2]);
    }

    #[test]
    fn pop_within_falls_back_to_newest_below_the_cap_and_waits_at_it() {
        let root = node(core::ptr::null_mut(), 0);
        let (a, b) = (node(root, 0), node(root, 0));
        let strangers: Vec<*mut Task> = (0..SCOPE_SCAN + 8).map(|_| node(b, 0)).collect();
        let mut q = PolicyQueue::new(Policy::Fifo);
        for &t in &strangers {
            q.push(TaskPtr(t));
        }
        assert_eq!(unsafe { q.pop_within(Scope::within(a, true)) }, None);
        assert_eq!(q.len(), strangers.len(), "a capped miss takes nothing");
        assert_eq!(
            unsafe { q.pop_within(Scope::within(a, false)) },
            Some(TaskPtr(*strangers.last().unwrap()))
        );
        // A descendant older than the scan window: only the capped pop
        // searches that far.
        let mut q = PolicyQueue::new(Policy::Fifo);
        let a1 = node(a, 0);
        q.push(TaskPtr(a1));
        for &t in &strangers {
            q.push(TaskPtr(t));
        }
        assert_eq!(
            unsafe { q.pop_within(Scope::within(a, true)) },
            Some(TaskPtr(a1))
        );
        free(&[root, a, b, a1]);
        free(&strangers);
    }

    #[test]
    fn pop_within_ignores_the_scope_under_priority() {
        let root = node(core::ptr::null_mut(), 0);
        let a = node(root, 0);
        let (low_child, high_stranger) = (node(a, 1), node(root, 9));
        for capped in [false, true] {
            let mut q = PolicyQueue::new(Policy::Priority);
            q.push(TaskPtr(low_child));
            q.push(TaskPtr(high_stranger));
            assert_eq!(
                unsafe { q.pop_within(Scope::within(a, capped)) },
                Some(TaskPtr(high_stranger))
            );
        }
        free(&[root, a, low_child, high_stranger]);
    }

    #[test]
    fn pop_within_any_is_pop() {
        for policy in [Policy::Fifo, Policy::Lifo] {
            let (mut a, mut b) = (PolicyQueue::new(policy), PolicyQueue::new(policy));
            for i in 1..=5 {
                a.push(fake(i));
                b.push(fake(i));
            }
            loop {
                let got = unsafe { a.pop_within(Scope::ANY) };
                assert_eq!(got, b.pop(), "{policy:?}");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    /// Every scheduler answers a scope in [`Scope`]'s order. Worker 1 pops
    /// what worker 0 queued, so work stealing shows its capped steal.
    #[test]
    fn every_scheduler_pops_within_the_scope() {
        let root = node(core::ptr::null_mut(), 0);
        let (a, b) = (node(root, 0), node(root, 0));
        let (a1, b1, a2, b2) = (node(a, 0), node(b, 0), node(a, 0), node(b, 0));
        for kind in [
            SchedKind::Delegation,
            SchedKind::DelegationFlat,
            SchedKind::Central(LockKind::PtLock),
            SchedKind::WorkSteal(WsVariant::LifoLocal),
            SchedKind::WorkSteal(WsVariant::FifoLocal),
        ] {
            let s = make_scheduler(kind, 2, 1, Policy::Fifo, 8, 0, None);
            for t in [a1, b1, a2, b2] {
                s.add_ready(TaskPtr(t), 0, None);
            }
            let (near, capped) = (Scope::within(a, false), Scope::within(a, true));
            assert_eq!(
                s.get_ready_within(0, near, None),
                Some(TaskPtr(a2)),
                "{kind:?}"
            );
            assert_eq!(
                s.get_ready_within(1, capped, None),
                Some(TaskPtr(a1)),
                "{kind:?}"
            );
            assert_eq!(s.get_ready_within(1, capped, None), None, "{kind:?}");
            assert_eq!(
                s.get_ready_within(0, near, None),
                Some(TaskPtr(b2)),
                "{kind:?}"
            );
            assert_eq!(s.get_ready(1, None), Some(TaskPtr(b1)), "{kind:?}");
            assert_eq!(s.approx_len(), 0, "{kind:?}");
        }
        free(&[root, a, b, a1, b1, a2, b2]);
    }

    #[test]
    fn len_and_empty() {
        let mut q = PolicyQueue::new(Policy::Fifo);
        assert!(q.is_empty());
        q.push(fake(1));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn factory_builds_every_kind() {
        for kind in [
            SchedKind::Delegation,
            SchedKind::DelegationFlat,
            SchedKind::Central(LockKind::PtLock),
            SchedKind::Central(LockKind::Ticket),
            SchedKind::Central(LockKind::Mcs),
            SchedKind::Central(LockKind::Twa),
            SchedKind::Central(LockKind::Spin),
            SchedKind::WorkSteal(WsVariant::LifoLocal),
            SchedKind::WorkSteal(WsVariant::FifoLocal),
        ] {
            let s = make_scheduler(kind, 4, 2, Policy::Fifo, 64, 0, None);
            assert_eq!(s.kind(), kind);
            assert_eq!(s.approx_len(), 0);
        }
    }

    #[test]
    fn factory_roundtrip_tasks() {
        for kind in [
            SchedKind::Delegation,
            SchedKind::DelegationFlat,
            SchedKind::Central(LockKind::PtLock),
            SchedKind::WorkSteal(WsVariant::LifoLocal),
        ] {
            let s = make_scheduler(kind, 2, 1, Policy::Fifo, 8, 0, None);
            s.add_ready(fake(0x1000), 0, None);
            s.add_ready(fake(0x2000), 1, None);
            let mut got = vec![];
            while let Some(t) = s.get_ready(0, None) {
                got.push(t.0 as usize);
            }
            while let Some(t) = s.get_ready(1, None) {
                got.push(t.0 as usize);
            }
            got.sort();
            assert_eq!(got, vec![0x1000, 0x2000], "kind {kind:?}");
        }
    }
}
