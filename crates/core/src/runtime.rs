//! The runtime: configuration, worker threads, task life cycle.
//!
//! [`Runtime::new`] builds the configured dependency system, scheduler
//! and allocator and spawns `workers - 1` worker threads (the caller of
//! [`Runtime::run`] acts as worker 0, which matches the paper's
//! single-creator application pattern: the main task creates the work
//! while the other cores consume it).
//!
//! The per-configuration presets map one-to-one onto the §6.2 ablations:
//! [`RuntimeConfig::optimized`], [`RuntimeConfig::without_jemalloc`],
//! [`RuntimeConfig::without_waitfree_deps`],
//! [`RuntimeConfig::without_dtlock`], plus the §6.3 OpenMP-style
//! work-stealing comparators.

use core::alloc::Layout;
use core::cell::RefCell;
use parking_lot::Mutex;
use std::sync::Arc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use nanotask_alloc::{AllocStats, AllocatorKind, RuntimeAllocator, TaskSlab, make_allocator};
use nanotask_locks::{Backoff, CachePadded};
use nanotask_obs::{Counter, Gauge, Histogram, MaxGauge, Registry, Snapshot};
use nanotask_trace::noise::{NoiseConfig, NoiseInjector};
use nanotask_trace::{CoreRecorder, EventKind, Trace, Tracer};

use crate::deps::access::DataAccess;
use crate::deps::wait_free::DeliveryCounters;
use crate::deps::{DepHooks, DependencySystem, Deps, DepsKind, make_deps};
use crate::graph::{EdgeKind, GraphEdge};
use crate::platform::Platform;
use crate::sched::{Policy, SchedKind, Scheduler, Scope, TaskPtr, make_scheduler};
use crate::task::{Task, TaskBody, TaskId, TaskState};

/// Observer of task spawns issued by the *root* task — the hook the
/// record & replay subsystem (`nanotask-replay`) uses to capture a task
/// graph without the runtime knowing anything about replay.
///
/// Installed with [`Runtime::set_spawn_capture`]. While installed, every
/// `spawn`/`spawn_labeled`/`spawn_prioritized` call made by the root task
/// body is first offered to [`SpawnCapture::on_spawn`]:
///
/// * returning `Some((deps, body))` lets the spawn proceed normally
///   (record mode — the capture noted the metadata and handed the parts
///   back);
/// * returning `None` consumes the spawn (replay mode — the capture
///   took ownership of the body and schedules it by other means, e.g.
///   [`TaskCtx::spawn_held`], which it may call from inside `on_spawn`
///   through the provided `ctx`).
///
/// Spawns from non-root tasks (nested parallelism) and the helper task
/// of a `taskwait_on` are never offered. A capture finds them as the
/// surplus of [`TaskCtx::tasks_created`] over the spawns it was offered.
/// While a capture is installed, a root `taskwait_on` first waits for all
/// of the root's children, because a consumed spawn never registered its
/// accesses with the dependency system.
///
/// The root task always runs on the thread that calls [`Runtime::run`],
/// and the capture lives on that thread's worker context, so `on_spawn`
/// is only ever called from there: implementations may keep their hot
/// state thread-confined.
pub trait SpawnCapture: Send + Sync {
    /// Offer one root spawn. See the trait docs for the return contract.
    fn on_spawn(
        &self,
        ctx: &TaskCtx,
        label: &'static str,
        priority: i32,
        deps: Deps,
        body: TaskBody,
    ) -> Option<(Deps, TaskBody)>;
}

/// Post-body hook of a held task ([`TaskCtx::spawn_held`]):
/// runs on the executing worker immediately after the task's body
/// returns, before the completion protocol. This is the replay engine's
/// steady-state seam — the per-iteration successor-release logic lives
/// in one shared object referenced by every task of the iteration (one
/// `Arc` clone per task), instead of a freshly boxed wrapper closure per
/// task per iteration. `tag` is caller-chosen (the replay engine passes
/// the graph node index).
pub trait TaskEpilogue: Send + Sync {
    /// Run the hook for the task tagged `tag`.
    fn run(&self, ctx: &TaskCtx, tag: u64);
}

/// Handle to a task created by [`TaskCtx::spawn_held`]: the task is
/// fully created but *held* — it is handed to the scheduler only when
/// [`TaskCtx::release_held`] is called on the handle, exactly once.
///
/// The raw pointer is only valid until the task executes; see
/// [`HeldTask::into_raw`] for the safety contract of round-tripping it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeldTask(*mut Task);

unsafe impl Send for HeldTask {}
unsafe impl Sync for HeldTask {}

impl HeldTask {
    /// The raw task pointer, e.g. for storing in an `AtomicPtr` slot.
    pub fn into_raw(self) -> *mut Task {
        self.0
    }

    /// Rebuild a handle from [`HeldTask::into_raw`].
    ///
    /// # Safety
    /// `p` must come from `into_raw` of a handle whose task has not yet
    /// been released (a held task stays alive until released + executed).
    pub unsafe fn from_raw(p: *mut Task) -> Self {
        Self(p)
    }

    /// Transfer a cancellation mark onto the held task before releasing
    /// it: the body will be skipped, while the completion protocol
    /// (countdowns, taskwaits, reclamation) still runs. The replay
    /// engine uses this to mirror the dependency systems' failure
    /// poisoning onto frozen-graph successors.
    pub fn mark_cancelled(&self) {
        // SAFETY: the handle owns a live, unreleased task.
        unsafe { (*self.0).mark_cancelled() };
    }
}

/// Deterministic fault-injection plan ([`RuntimeConfig::with_fault_plan`]).
///
/// Faults are injected at the top of the task-body `catch_unwind` scope,
/// so an injected panic exercises exactly the same isolation, failure
/// recording and cancellation propagation paths as a real body panic.
/// Only *eligible* bodies tick the injection counter: the root task and
/// internal `taskwait_on` helper tasks are skipped, and when
/// [`FaultPlan::panic_in_worker`] is set only bodies executing on that
/// worker count. The counter resets at the start of every
/// [`Runtime::run_outcome`], so `panic_at_nth` means "the nth eligible
/// body of this run" — fully deterministic whenever body execution order
/// is (serialized chains, or a single worker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the derived selections (delay injection).
    pub seed: u64,
    /// Panic in the nth eligible task body of the run (0-based).
    pub panic_at_nth: Option<u64>,
    /// Restrict the injection counter to bodies executing on this worker.
    pub panic_in_worker: Option<usize>,
    /// Busy-delay injected into a seed-derived ~1/8 of eligible bodies
    /// (jitter amplification for schedule-perturbation testing);
    /// 0 disables.
    pub delay_ns: u64,
}

impl FaultPlan {
    /// A plan that panics in the nth eligible task body (0-based).
    pub fn panic_at(n: u64) -> Self {
        Self {
            seed: 0,
            panic_at_nth: Some(n),
            panic_in_worker: None,
            delay_ns: 0,
        }
    }

    /// A plan that never fires — every injection check still runs, so
    /// this carries the full bookkeeping of an armed plan.
    pub fn never() -> Self {
        Self {
            seed: 0,
            panic_at_nth: None,
            panic_in_worker: None,
            delay_ns: 0,
        }
    }

    /// Restrict the injection counter to worker `w`.
    pub fn in_worker(mut self, w: usize) -> Self {
        self.panic_in_worker = Some(w);
        self
    }

    /// Set the selection seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the injected busy-delay (0 disables).
    pub fn with_delay_ns(mut self, ns: u64) -> Self {
        self.delay_ns = ns;
        self
    }
}

/// Message prefix of panics raised by the fault injector. A process-wide
/// panic hook (installed once, the first time a runtime with a
/// [`FaultPlan`] is built) suppresses the default stderr backtrace spew
/// for payloads carrying this prefix — injected faults are expected and
/// reported through [`RunOutcome`], not the console. All other panics
/// pass through to the previously installed hook untouched. Tests that
/// plant their own panics can reuse the prefix for quiet output.
pub const FAULT_PANIC_PREFIX: &str = "nanotask fault injection";

/// Runtime configuration: the complete §6 ablation space.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Total workers (including the thread that calls `run`).
    pub workers: usize,
    /// NUMA nodes for SPSC add-buffer partitioning.
    pub numa_nodes: usize,
    /// Scheduler implementation.
    pub sched: SchedKind,
    /// Dependency system implementation.
    pub deps: DepsKind,
    /// Allocator implementation.
    pub alloc: AllocatorKind,
    /// Ready-queue ordering policy.
    pub policy: Policy,
    /// Record trace events.
    pub trace: bool,
    /// Record dependency edges (Figure 1 graph dump).
    pub record_graph: bool,
    /// Synthetic OS-noise injection (Figure 11).
    pub noise: Option<NoiseConfig>,
    /// Latency histograms (task execution time, ready-queue wait):
    /// sampled clock reads on the hot path when on.
    /// Plain counters are registry-backed and always on regardless —
    /// this knob only gates the paths that need a timestamp.
    pub metrics: bool,
    /// Stall watchdog: when set, a monitor thread trips after tasks have
    /// been pending with no completed body for this long, failing the
    /// run with a [`FailureKind::WatchdogStall`] diagnostic (life-cycle
    /// counts + queue depth) instead of hanging forever. `None`
    /// (default) disables the monitor entirely — no extra thread.
    pub watchdog: Option<std::time::Duration>,
    /// Deterministic fault injection ([`FaultPlan`]); `None` (default)
    /// removes every injection check from the body hot path.
    pub fault_plan: Option<FaultPlan>,
    /// Name shown by benchmark harnesses.
    pub label: &'static str,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self::optimized()
    }
}

impl RuntimeConfig {
    /// The fully-optimized runtime: wait-free dependencies, delegation
    /// scheduler, pooled allocator — the paper's "optimized" curve.
    pub fn optimized() -> Self {
        Self {
            workers: 4,
            numa_nodes: 1,
            sched: SchedKind::Delegation,
            deps: DepsKind::WaitFree,
            alloc: AllocatorKind::Pool,
            policy: Policy::Fifo,
            trace: false,
            record_graph: false,
            noise: None,
            metrics: false,
            watchdog: None,
            fault_plan: None,
            label: "optimized",
        }
    }

    /// Ablation: serialized system allocator ("w/o jemalloc").
    pub fn without_jemalloc() -> Self {
        Self {
            alloc: AllocatorKind::Serialized,
            label: "w/o jemalloc",
            ..Self::optimized()
        }
    }

    /// Ablation: fine-grained-locking dependency system
    /// ("w/o wait-free dependencies").
    pub fn without_waitfree_deps() -> Self {
        Self {
            deps: DepsKind::Locking,
            label: "w/o wait-free dependencies",
            ..Self::optimized()
        }
    }

    /// Ablation: PTLock-protected central scheduler ("w/o DTLock").
    pub fn without_dtlock() -> Self {
        Self {
            sched: SchedKind::Central(crate::sched::LockKind::PtLock),
            label: "w/o DTLock",
            ..Self::optimized()
        }
    }

    /// §6.3 comparator: work-stealing runtime in the style of the LLVM /
    /// Intel OpenMP runtimes (local LIFO, steal oldest).
    pub fn openmp_llvm_like() -> Self {
        Self {
            sched: SchedKind::WorkSteal(crate::sched::WsVariant::LifoLocal),
            deps: DepsKind::Locking,
            alloc: AllocatorKind::Pool,
            label: "LLVM-like (worksteal)",
            ..Self::optimized()
        }
    }

    /// §6.3 comparator: GOMP-style work-stealing (local FIFO), with the
    /// serializing allocator GOMP effectively has through glibc malloc.
    pub fn openmp_gcc_like() -> Self {
        Self {
            sched: SchedKind::WorkSteal(crate::sched::WsVariant::FifoLocal),
            deps: DepsKind::Locking,
            alloc: AllocatorKind::System,
            label: "GCC-like (worksteal)",
            ..Self::optimized()
        }
    }

    /// Set total worker count.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Apply a platform profile (workers + NUMA nodes).
    pub fn platform(mut self, p: Platform) -> Self {
        self.workers = p.cores.max(1);
        self.numa_nodes = p.numa_nodes.max(1);
        self
    }

    /// Enable tracing.
    pub fn tracing(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enable dependency-graph recording.
    pub fn graph(mut self, on: bool) -> Self {
        self.record_graph = on;
        self
    }

    /// Enable synthetic OS noise.
    pub fn with_noise(mut self, cfg: NoiseConfig) -> Self {
        self.noise = Some(cfg);
        self
    }

    /// Select the scheduler.
    pub fn scheduler(mut self, kind: SchedKind) -> Self {
        self.sched = kind;
        self
    }

    /// Select the dependency system.
    pub fn dependency_system(mut self, kind: DepsKind) -> Self {
        self.deps = kind;
        self
    }

    /// Select the allocator.
    pub fn allocator(mut self, kind: AllocatorKind) -> Self {
        self.alloc = kind;
        self
    }

    /// Set the ready-queue policy.
    pub fn with_policy(mut self, p: Policy) -> Self {
        self.policy = p;
        self
    }

    /// Set the NUMA-node count (min 1).
    pub fn with_numa_nodes(mut self, n: usize) -> Self {
        self.numa_nodes = n.max(1);
        self
    }

    /// Toggle the latency histograms (see [`RuntimeConfig::metrics`];
    /// off by default — counters stay on either way).
    pub fn with_metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Arm the stall watchdog (see [`RuntimeConfig::watchdog`]): fail a
    /// run with a diagnostic after `timeout` of pending-but-stalled
    /// tasks instead of hanging.
    pub fn with_watchdog(mut self, timeout: std::time::Duration) -> Self {
        self.watchdog = Some(timeout);
        self
    }

    /// Install a deterministic fault-injection plan (see [`FaultPlan`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The four §6.2 ablation configurations, in paper order.
    pub fn ablations() -> Vec<RuntimeConfig> {
        vec![
            Self::optimized(),
            Self::without_jemalloc(),
            Self::without_waitfree_deps(),
            Self::without_dtlock(),
        ]
    }
}

/// Everything a harness needs to make a per-run performance claim
/// machine-checkable: the aggregate runtime counters plus the scheduler
/// operation counters. Returned by [`Runtime::run_report`]; counters are
/// cumulative across a runtime's lifetime (diff two reports to isolate
/// one run).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Task life-cycle and allocator counters.
    pub stats: RuntimeStats,
    /// Scheduler operation counters (adds, pops, lock acquisitions).
    pub sched: crate::sched::SchedOpStats,
    /// Always 0: every task activation goes through the scheduler. Read
    /// by `benchmark/src/adapters.rs::Counts::of_runtime`.
    pub inline_runs: u64,
    /// Deepest `taskwait` nesting observed on one worker's stack.
    pub max_taskwait_depth: u64,
}

/// How a [`TaskFailure`] came about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A task body panicked; the panic was caught at the body seam and
    /// the worker kept running.
    Panic,
    /// A worker thread terminated abnormally outside a task body
    /// (body panics are caught, so this indicates runtime-internal
    /// failure). Recorded at shutdown by the graceful join.
    WorkerLost,
    /// The stall watchdog tripped: tasks were pending but no body
    /// completed within the configured window. The message carries the
    /// stall diagnostic (life-cycle counters, queue depth).
    WatchdogStall,
}

/// One recorded failure: which task failed, where, and why. Collected
/// into [`RunOutcome::failures`] by [`Runtime::run_outcome`].
#[derive(Debug, Clone)]
pub struct TaskFailure {
    /// Id of the failing task (0 for non-task failures such as
    /// [`FailureKind::WatchdogStall`] / [`FailureKind::WorkerLost`]).
    pub task: TaskId,
    /// The failing task's label.
    pub label: &'static str,
    /// Worker the failure was observed on.
    pub worker: usize,
    /// Panic payload message or diagnostic text.
    pub message: String,
    /// Failure class.
    pub kind: FailureKind,
}

/// Result of one fallible run ([`Runtime::run_outcome`]).
///
/// A failed task body does not kill its worker or the process: the panic
/// becomes a [`TaskFailure`], the failed task's transitive successors
/// are *cancelled* (they still run the full completion protocol — the
/// graph drains, taskwaits release, no task leaks — but their bodies are
/// skipped), and the run terminates normally with the failures listed
/// here. The infallible [`Runtime::run`] is a thin wrapper that panics
/// with [`RunOutcome::summary`] when this is not [`RunOutcome::is_ok`].
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Every failure observed during the run, in recording order.
    pub failures: Vec<TaskFailure>,
    /// Task bodies skipped by failure-propagation cancellation during
    /// this run (the failed tasks themselves are not counted here).
    pub tasks_cancelled: u64,
    /// Whether the task graph drained completely. `false` only on the
    /// watchdog-stall path, where the run gave up on a stuck graph (its
    /// remaining tasks are abandoned, not reclaimed).
    pub completed: bool,
}

impl RunOutcome {
    /// No failures were recorded (cancellation count is necessarily 0).
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line human-readable account of the failures.
    pub fn summary(&self) -> String {
        if self.is_ok() {
            return "ok".to_string();
        }
        let mut s = format!(
            "{} failure(s), {} task(s) cancelled",
            self.failures.len(),
            self.tasks_cancelled
        );
        for f in &self.failures {
            s.push_str(&format!(
                "; [{:?}] task {} ({}) on worker {}: {}",
                f.kind, f.task, f.label, f.worker, f.message
            ));
        }
        s
    }
}

/// Aggregate runtime counters.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Tasks created.
    pub tasks_created: u64,
    /// Task bodies executed.
    pub tasks_executed: u64,
    /// Tasks whose memory was reclaimed.
    pub tasks_freed: u64,
    /// Allocator counters.
    pub alloc: AllocStats,
    /// Wait-free dependency deliveries (0 under the locking system):
    /// (accesses, deliveries, duplicates).
    pub deps_deliveries: (u64, u64, u64),
}

/// Registry-backed runtime metrics: one handle per counter family, the
/// same sharded single-writer discipline as the §5 tracer (each worker
/// increments only its own cache-padded cell; readers aggregate).
/// Counters and gauges are always live — they replace the old `Shared`
/// atomics one for one. Histograms need a clock read, so they are gated
/// by [`RuntimeConfig::metrics`] and sampled every 32nd task per worker
/// ([`Metrics::SAMPLE_MASK`]).
pub(crate) struct Metrics {
    pub registry: Registry,
    /// Histogram/timestamp gate ([`RuntimeConfig::metrics`]).
    pub enabled: bool,
    pub tasks_created: Counter,
    pub tasks_executed: Counter,
    pub tasks_freed: Counter,
    pub max_taskwait_depth: MaxGauge,
    /// Task bodies that panicked (caught at the body seam).
    pub tasks_failed: Counter,
    /// Task bodies skipped by failure-propagation cancellation.
    pub tasks_cancelled: Counter,
    /// Stall-watchdog trips.
    pub watchdog_trips: Counter,
    /// The cells the wait-free system counts in (0 under locking).
    pub deps_deliveries: DeliveryCounters,
    /// Task-body execution time (sampled).
    pub task_exec_ns: Histogram,
    /// Ready-queue wait: scheduler hand-off → body start (sampled).
    pub queue_wait_ns: Histogram,
    /// Gauges published as absolute values at snapshot time
    /// ([`Runtime::metrics_snapshot`]) — no hot-path writes: the live
    /// task count (`tasks_created − tasks_freed`) and the allocator
    /// pressure from [`AllocStats`], so both appear in the same scrape
    /// as the scheduler counters.
    pub live_tasks: Gauge,
    pub alloc_pool_hits: Gauge,
    pub alloc_pool_misses: Gauge,
    pub alloc_slab_bytes: Gauge,
    pub alloc_live_blocks: Gauge,
    pub alloc_oversize: Gauge,
    pub alloc_tasks_recycled: Gauge,
    pub alloc_task_recycle_misses: Gauge,
    pub alloc_peak_live_tasks: Gauge,
}

impl Metrics {
    /// Sampling mask for the timed paths: one sample per 32 tasks, so
    /// `tick & SAMPLE_MASK == 0` selects samples with an AND instead of a
    /// division on the per-task hot path.
    const SAMPLE_MASK: u64 = 31;

    fn new(cfg: &RuntimeConfig) -> Self {
        let registry = Registry::with_base(
            cfg.workers.max(1),
            vec![
                ("scheduler", format!("{:?}", cfg.sched)),
                ("deps", format!("{:?}", cfg.deps)),
            ],
        );
        Self {
            enabled: cfg.metrics,
            tasks_created: registry.counter("nanotask_tasks_created_total"),
            tasks_executed: registry.counter("nanotask_tasks_executed_total"),
            tasks_freed: registry.counter("nanotask_tasks_freed_total"),
            max_taskwait_depth: registry.max_gauge("nanotask_max_taskwait_depth"),
            tasks_failed: registry.counter("nanotask_tasks_failed_total"),
            tasks_cancelled: registry.counter("nanotask_tasks_cancelled_total"),
            watchdog_trips: registry.counter("nanotask_watchdog_trips_total"),
            deps_deliveries: DeliveryCounters::new(&registry),
            task_exec_ns: registry.histogram("nanotask_task_exec_ns"),
            queue_wait_ns: registry.histogram("nanotask_queue_wait_ns"),
            live_tasks: registry.gauge("nanotask_live_tasks"),
            alloc_pool_hits: registry.gauge("nanotask_alloc_pool_hits"),
            alloc_pool_misses: registry.gauge("nanotask_alloc_pool_misses"),
            alloc_slab_bytes: registry.gauge("nanotask_alloc_slab_bytes"),
            alloc_live_blocks: registry.gauge("nanotask_alloc_live_blocks"),
            alloc_oversize: registry.gauge("nanotask_alloc_oversize"),
            alloc_tasks_recycled: registry.gauge("nanotask_alloc_tasks_recycled"),
            alloc_task_recycle_misses: registry.gauge("nanotask_alloc_task_recycle_misses"),
            alloc_peak_live_tasks: registry.gauge("nanotask_alloc_peak_live_tasks"),
            registry,
        }
    }

    /// Tasks created and not yet freed. `freed` is read first: both
    /// counters only grow, so the later `created` read can only be
    /// larger, and the difference saturates at 0.
    fn live(&self) -> u64 {
        let freed = self.tasks_freed.value();
        self.tasks_created.value().saturating_sub(freed)
    }

    /// Publish the live task count and an [`AllocStats`] reading into
    /// their gauges (absolute writes; call from snapshot paths only).
    fn publish(&self, s: &AllocStats) {
        self.live_tasks.set(self.live());
        self.alloc_pool_hits.set(s.pool_hits);
        self.alloc_pool_misses.set(s.pool_misses);
        self.alloc_slab_bytes.set(s.slab_bytes);
        self.alloc_live_blocks.set(s.live);
        self.alloc_oversize.set(s.oversize);
        self.alloc_tasks_recycled.set(s.recycle_hits);
        self.alloc_task_recycle_misses.set(s.recycle_misses);
        self.alloc_peak_live_tasks.set(s.peak_live_tasks);
    }
}

pub(crate) struct Shared {
    pub cfg: RuntimeConfig,
    pub sched: Arc<dyn Scheduler>,
    pub deps: Arc<dyn DependencySystem>,
    pub alloc: Arc<dyn RuntimeAllocator>,
    /// Recycling free list for `Task` shells, layered on `alloc`: shells
    /// come back with their bottom map and cold box instead of
    /// round-tripping through dealloc/alloc, and with their decls buffer,
    /// which the next occupant's declarations move into.
    pub task_slab: TaskSlab,
    pub tracer: Tracer,
    pub noise: Option<NoiseInjector>,
    /// Dependency edges, recorded while `cfg.record_graph` is on.
    pub graph: Mutex<Vec<GraphEdge>>,
    /// Task-id counter: one `fetch_add` per spawn from any creator, so
    /// it has a line of its own.
    pub next_id: CachePadded<AtomicU64>,
    pub shutdown: AtomicBool,
    /// Failures recorded since the current run started (drained into
    /// [`RunOutcome::failures`] when it ends).
    pub failures: Mutex<Vec<TaskFailure>>,
    /// Eligible-body counter of the fault injector (reset per run).
    pub fault_tick: AtomicU64,
    /// Watchdog coordination: whether a fallible run is in flight,
    /// whether the monitor tripped for it, and the stall diagnostic.
    pub run_active: AtomicBool,
    pub watchdog_tripped: AtomicBool,
    pub watchdog_diag: Mutex<String>,
    /// Trace flush handshake: [`Runtime::trace`] bumps `flush_epoch`;
    /// each worker thread, once idle, flushes its recorder and then
    /// stores the epoch into its own cell of `flush_acked` (worker `id`
    /// owns cell `id - 1`; worker 0 is the thread that calls `trace`).
    pub flush_epoch: AtomicU64,
    pub flush_acked: Box<[CachePadded<AtomicU64>]>,
    /// Registry-backed counters, gauges and histograms. The life-cycle
    /// counters (created/executed/freed/failed) and `max_taskwait_depth`
    /// live here; the replay engine reads deltas of `tasks_created` to
    /// find spawns its capture was not offered, and of `tasks_failed`
    /// to find faulted iterations.
    pub metrics: Metrics,
}

impl Shared {
    /// Reclaim a task object and its access array. The shell is cleared
    /// ([`Task::reset_for_recycle`]) and returned to the task slab, not
    /// deallocated.
    ///
    /// # Safety
    /// Called exactly once per task, when its removal refs hit zero.
    unsafe fn free_task(&self, t: *mut Task, worker: usize) {
        self.metrics.tasks_freed.inc(worker);
        unsafe {
            let task = &mut *t;
            if !task.accesses.is_null() {
                for i in 0..task.n_accesses {
                    core::ptr::drop_in_place(task.accesses.add(i));
                }
                let layout = Layout::array::<DataAccess>(task.n_accesses).unwrap();
                self.alloc.dealloc(task.accesses as *mut u8, layout);
                task.accesses = core::ptr::null_mut();
                task.n_accesses = 0;
            }
            task.reset_for_recycle();
            self.task_slab.recycle(worker, t as *mut u8);
        }
    }
}

/// Per-worker context (thread-confined).
pub(crate) struct WorkerCtx {
    pub id: usize,
    pub shared: Arc<Shared>,
    pub recorder: RefCell<CoreRecorder>,
    /// `taskwait` / `taskwait_on` calls active on this worker's stack
    /// (maintained by [`TaskCtx::help_until`]).
    taskwait_depth: core::cell::Cell<usize>,
    /// Metrics sampling cursors (thread-confined): enqueue-side for the
    /// queue-wait stamp, execute-side for the body-time histogram. One
    /// clock read per 32 tasks each.
    metrics_enq_tick: core::cell::Cell<u64>,
    metrics_exec_tick: core::cell::Cell<u64>,
    /// The installed root-spawn capture. Only `Runtime::main` ever holds
    /// one: the root task runs there and nowhere else.
    capture: RefCell<Option<Arc<dyn SpawnCapture>>>,
}

impl WorkerCtx {
    fn new(id: usize, shared: Arc<Shared>, recorder: CoreRecorder) -> Self {
        Self {
            id,
            shared,
            recorder: RefCell::new(recorder),
            taskwait_depth: core::cell::Cell::new(0),
            metrics_enq_tick: core::cell::Cell::new(0),
            metrics_exec_tick: core::cell::Cell::new(0),
            capture: RefCell::new(None),
        }
    }

    fn record(&self, kind: EventKind, payload: u64) {
        self.recorder.borrow_mut().record(kind, payload);
    }

    /// The one task-creation sequence: a fresh id, the created counter,
    /// a task shell (recycled from the slab or freshly allocated) with
    /// the body written into it, and the priority. A child's
    /// `CreateBegin` is recorded here, before the allocation, and its
    /// creator records `CreateEnd`; the root records neither.
    ///
    /// # Safety
    /// `parent` is null or a live task. The returned pointer is valid
    /// until handed to [`Shared::free_task`].
    #[inline]
    unsafe fn create_task<F: FnOnce(&TaskCtx) + Send + 'static>(
        &self,
        label: &'static str,
        parent: *mut Task,
        priority: i32,
        body: F,
        deps: &mut Deps,
    ) -> *mut Task {
        let shared = &*self.shared;
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        if !parent.is_null() {
            self.record(EventKind::CreateBegin, id);
        }
        shared.metrics.tasks_created.inc(self.id);
        let (p, recycled) = shared.task_slab.acquire(self.id);
        let t = p as *mut Task;
        unsafe {
            if recycled {
                (*t).reinit_recycled(id, label, parent, deps);
            } else {
                t.write(Task::new(id, label, parent, deps));
            }
            (*t).set_body(body);
            (*t).level = if parent.is_null() {
                0
            } else {
                (*parent).level + 1
            };
            (*t).priority = priority;
        }
        t
    }

    /// Queue-wait sampling, producer side: every 32nd
    /// release stamps its task with the tracer clock; the executing
    /// worker reads the stamp back in `run_body`. One clock read per
    /// sample interval, nothing at all with metrics off.
    fn stamp_ready(&self, t: *mut Task) {
        let m = &self.shared.metrics;
        if !m.enabled {
            return;
        }
        let tick = self.metrics_enq_tick.get().wrapping_add(1);
        self.metrics_enq_tick.set(tick);
        if tick & Metrics::SAMPLE_MASK == 0 {
            // `max(1)`: 0 means "never stamped".
            unsafe { (*t).ready_ns = self.shared.tracer.now().max(1) };
        }
    }

    /// The one work-assisting wait loop: run tasks popped in `scope`
    /// until `done`. The noise injector is polled before every `done`
    /// test, so even a wait that is already over when it starts polls it
    /// once. [`worker_loop`] is the idle loop of the other workers.
    fn help(&self, scope: Scope, mut done: impl FnMut() -> bool) {
        let (sched, noise) = (&*self.shared.sched, &self.shared.noise);
        let mut backoff = Backoff::new();
        loop {
            if let Some(noise) = noise {
                noise.check(self.id as u16, &mut self.recorder.borrow_mut());
            }
            if done() {
                return;
            }
            let got = {
                let mut rec = self.recorder.borrow_mut();
                sched.get_ready_within(self.id, scope, Some(&mut rec))
            };
            match got {
                Some(t) => {
                    execute_task(self, t.0);
                    backoff.reset();
                }
                None => backoff.snooze(),
            }
        }
    }

    /// A task became ready: stamp it for the queue-wait histogram and
    /// hand it to the scheduler.
    fn add_ready(&self, t: *mut Task) {
        self.stamp_ready(t);
        let mut rec = self.recorder.borrow_mut();
        self.shared
            .sched
            .add_ready(TaskPtr(t), self.id, Some(&mut rec));
    }
}

/// Dependency-system callbacks bound to a worker.
struct Hooks<'a> {
    w: &'a WorkerCtx,
}

unsafe impl DepHooks for Hooks<'_> {
    fn task_ready(&self, task: *mut Task) {
        self.w.add_ready(task);
    }

    fn task_free(&self, task: *mut Task) {
        unsafe { self.w.shared.free_task(task, self.w.id) };
    }

    fn edge(&self, from: *mut Task, to: *mut Task, addr: usize, kind: u8) {
        if !self.w.shared.cfg.record_graph {
            return;
        }
        let (f, t) = unsafe { (&*from, &*to) };
        // Labels are `&'static str` end to end: no allocation per edge.
        self.w.shared.graph.lock().push(GraphEdge {
            from: f.id,
            from_label: f.label,
            to: t.id,
            to_label: t.label,
            addr,
            kind: EdgeKind::from_u8(kind),
        });
    }

    fn nworkers(&self) -> usize {
        self.w.shared.cfg.workers
    }

    fn worker(&self) -> usize {
        self.w.id
    }

    fn allocator(&self) -> &dyn RuntimeAllocator {
        &*self.w.shared.alloc
    }
}

/// `taskwait` nesting depth on one worker at which a waiter stops taking
/// unrelated tasks and runs only its own descendants (see
/// [`TaskCtx::taskwait`]).
const TASKWAIT_NESTING_CAP: usize = 32;

/// Handle to a running task, passed to every task body. Provides task
/// spawning (nested parallelism), taskwait and reduction-slot access —
/// the library-level OmpSs-2 surface.
pub struct TaskCtx<'a> {
    task: *mut Task,
    worker: &'a WorkerCtx,
}

impl TaskCtx<'_> {
    /// This task's id.
    pub fn task_id(&self) -> TaskId {
        unsafe { (*self.task).id }
    }

    /// The executing worker's id.
    pub fn worker_id(&self) -> usize {
        self.worker.id
    }

    /// Total workers in the runtime.
    pub fn nworkers(&self) -> usize {
        self.worker.shared.cfg.workers
    }

    /// Spawn a child task with dependencies.
    pub fn spawn(&self, deps: Deps, body: impl FnOnce(&TaskCtx) + Send + 'static) {
        self.spawn_labeled("task", deps, body);
    }

    /// Spawn with a label (shows up in traces and graph dumps).
    pub fn spawn_labeled(
        &self,
        label: &'static str,
        deps: Deps,
        body: impl FnOnce(&TaskCtx) + Send + 'static,
    ) {
        self.spawn_prioritized(label, 0, deps, body);
    }

    /// Spawn with an explicit scheduling priority (the OmpSs-2 `priority`
    /// clause); higher-priority ready tasks are scheduled first under
    /// [`crate::sched::Policy::Priority`].
    ///
    /// Over 256 unfinished children, a spawn from the root task is a
    /// task scheduling point: it may first run one ready task of any kind.
    pub fn spawn_prioritized(
        &self,
        label: &'static str,
        priority: i32,
        mut deps: Deps,
        body: impl FnOnce(&TaskCtx) + Send + 'static,
    ) {
        if self.is_root()
            && let Some(cap) = &*self.worker.capture.borrow()
        {
            if let Some((mut deps, body)) =
                cap.on_spawn(self, label, priority, deps, Box::new(body))
            {
                self.spawn_internal(label, priority, &mut deps, body, None);
            }
            return;
        }
        self.spawn_internal(label, priority, &mut deps, body, None);
    }

    /// Whether this is the root task (the body passed to [`Runtime::run`]).
    fn is_root(&self) -> bool {
        // SAFETY: `self.task` is the live task this ctx executes.
        unsafe { (*self.task).parent.is_null() }
    }

    /// Create a child task with *manually managed* readiness: the task
    /// is fully created (allocated, accounted, linked to its parent) but
    /// not registered with the dependency system and not scheduled.
    /// `decls` are attached as data only (so [`TaskCtx::red_slot`] works
    /// when reduction state was pre-attached) — they impose no ordering.
    ///
    /// The task runs after [`TaskCtx::release_held`] is called on the
    /// returned handle, exactly once, from any task context of the same
    /// runtime. This is the execution seam the replay subsystem feeds:
    /// readiness comes from its frozen graph's in-degree counters
    /// instead of from dependency-system deliveries.
    ///
    /// `epilogue`, when given, is a [`TaskEpilogue`] (plus its tag) that
    /// runs right after the body on the executing worker. The body is
    /// taken as the already-boxed [`TaskBody`], and the box is stored in
    /// the task as it is — together these let a caller that manages many
    /// similar tasks (the replay engine's steady state) avoid wrapping
    /// every body in a fresh closure allocation per task per iteration.
    pub fn spawn_held(
        &self,
        label: &'static str,
        priority: i32,
        mut decls: Deps,
        body: TaskBody,
        epilogue: Option<(Arc<dyn TaskEpilogue>, u64)>,
    ) -> HeldTask {
        unsafe {
            let t = self
                .worker
                .create_task(label, self.task, priority, body, &mut decls);
            if let Some(epilogue) = epilogue {
                (*t).set_epilogue(epilogue);
            }
            // No dependency registration: readiness is one release call
            // (+ the creation guard we drop below), and reclamation needs
            // only the subtree reference (no ASMs are materialized).
            (*t).registered = false;
            (*t).state = TaskState::new_held();
            (*self.task).add_child();
            let became_ready = (*t).unblock();
            debug_assert!(!became_ready, "held task ready before release");
            self.worker.record(EventKind::CreateEnd, (*t).id);
            HeldTask(t)
        }
    }

    /// Record a marker event on the executing worker's trace stream.
    pub fn trace_mark(&self, kind: EventKind, payload: u64) {
        self.worker.record(kind, payload);
    }

    /// Monotone count of tasks this runtime has created, held tasks and
    /// `taskwait_on` helpers included. Read after a `taskwait`, its delta
    /// over a phase counts every task the phase created: the replay
    /// engine compares it with the spawns its capture was offered.
    pub fn tasks_created(&self) -> u64 {
        self.worker.shared.metrics.tasks_created.value()
    }

    /// Whether the current task was cancelled by failure propagation
    /// (its body was skipped; bodies observing this are epilogue-driven
    /// helpers such as the replay engine's per-node hooks).
    pub fn task_cancelled(&self) -> bool {
        unsafe { (*self.task).is_cancelled() }
    }

    /// Monotone count of task-body failures recorded by this runtime.
    /// Snapshot-diff it around a phase to detect failures cheaply (the
    /// replay engine probes this once per iteration). Exact for the
    /// tasks a `taskwait` has waited for: a failure is counted before
    /// its task completes.
    pub fn failure_count(&self) -> u64 {
        self.worker.shared.metrics.tasks_failed.value()
    }

    /// Clear the dependency systems' run-scoped failure-propagation
    /// state (poisoned address chains/queues) from *inside* a run.
    ///
    /// Only call this from the root body at a barrier — directly after
    /// [`TaskCtx::taskwait`] with no tasks in flight — so the reset
    /// cannot race dependency registration or release traffic. The
    /// replay engine uses it at the end of a faulted iteration: the
    /// iteration boundary becomes the recovery point, and the next
    /// iteration's tasks register on clean addresses instead of
    /// inheriting the poison for the rest of the run.
    pub fn reset_fault_propagation(&self) {
        // SAFETY: `self.task` is the live task this ctx executes, we are
        // its body thread, and the caller guarantees the barrier (no
        // tasks in flight) — the contract of `reset_faults_under`.
        unsafe { self.worker.shared.deps.reset_faults_under(self.task) };
    }

    /// Release a task created by [`TaskCtx::spawn_held`], handing it to
    /// the scheduler. Must be called exactly once per handle.
    pub fn release_held(&self, h: HeldTask) {
        let t = h.0;
        if unsafe { (*t).unblock() } {
            self.worker.add_ready(t);
        } else {
            debug_assert!(false, "held task released twice");
        }
    }

    /// OmpSs-2 `taskwait on(...)`: block until every earlier task whose
    /// accesses conflict with `deps` has completed — without waiting for
    /// unrelated children. Implemented exactly as the model defines it: an
    /// empty child task carrying `deps` is inserted into the dependency
    /// system and the worker helps execute ready tasks until it runs, in
    /// the order and under the nesting cap of [`TaskCtx::taskwait`].
    ///
    /// A root `taskwait_on` under an installed [`SpawnCapture`] first
    /// waits for all of the root's children: a consumed spawn never
    /// registered its accesses, so the helper could not wait for it.
    pub fn taskwait_on(&self, mut deps: Deps) {
        if self.is_root() && self.worker.capture.borrow().is_some() {
            self.taskwait();
        }
        let task = unsafe { &*self.task };
        self.worker.record(EventKind::TaskwaitBegin, task.id);
        let done = Arc::new(AtomicBool::new(false));
        self.spawn_internal(
            "taskwait_on",
            i32::MAX,
            &mut deps,
            |_| {},
            Some(Arc::clone(&done)),
        );
        self.help_until(|| done.load(Ordering::Acquire));
        self.worker.record(EventKind::TaskwaitEnd, task.id);
    }

    fn spawn_internal<F: FnOnce(&TaskCtx) + Send + 'static>(
        &self,
        label: &'static str,
        priority: i32,
        deps: &mut Deps,
        body: F,
        completion: Option<Arc<AtomicBool>>,
    ) {
        unsafe {
            let t = self
                .worker
                .create_task(label, self.task, priority, body, deps);
            let id = (*t).id;
            if let Some(flag) = completion {
                (*t).set_completion_flag(flag);
            }
            (*self.task).add_child();
            let hooks = Hooks { w: self.worker };
            self.worker.shared.deps.register(t, &hooks);
            if (*t).unblock() {
                hooks.task_ready(t);
            }
            self.worker.record(EventKind::CreateEnd, id);
            // The root over `RUN_AHEAD` runs at most one ready task and
            // never waits (a held child may need it to release it).
            if self.is_root() && (*self.task).pending_children() > RUN_AHEAD {
                let mut first = Some(());
                self.worker.help(Scope::ANY, || first.take().is_none());
            }
        }
    }

    /// Wait until every child spawned so far (and their descendants) has
    /// completed. The worker executes ready tasks while it waits
    /// (work-assisting), on its own stack, work-first: the newest queued
    /// descendant of this task; else, below a nesting cap of 32 waits on
    /// this worker, the newest queued task of any kind; else it snoozes
    /// (the order of [`crate::sched::Scope`]). Descendants first keep a
    /// recursive fork-join tree depth-first, so live tasks and stack depth
    /// follow the tree's depth instead of its width; the cap bounds how
    /// many unrelated waits pile up on one stack. The root task's waits
    /// keep the policy's order: every task descends from the root.
    ///
    /// The cap cannot deadlock. This runtime has no weak accesses and
    /// dependency domains are per parent, so the unfinished descendants
    /// of the waited-in task `T` depend only on each other: while any is
    /// unfinished, one is queued or running. A queued one is found by
    /// `T`'s waiter even at the cap, which searches the whole queue. A
    /// running one started after `T` and sits on some worker's stack
    /// below that worker's innermost wait, which started after it.
    /// Following "my descendant runs below your innermost wait" from
    /// waiter to waiter therefore strictly increases start times and
    /// cannot cycle: the innermost wait that started last always has a
    /// queued descendant or none left. A root spawn that runs a task
    /// ([`TaskCtx::spawn_prioritized`]) never waits: it adds no edge.
    pub fn taskwait(&self) {
        let task = unsafe { &*self.task };
        if task.pending_children() <= 1 {
            return;
        }
        self.worker.record(EventKind::TaskwaitBegin, task.id);
        self.help_until(|| task.pending_children() <= 1);
        self.worker.record(EventKind::TaskwaitEnd, task.id);
    }

    /// The wait of [`TaskCtx::taskwait`] and [`TaskCtx::taskwait_on`]:
    /// [`WorkerCtx::help`] in this task's scope until `done`, accounting
    /// the worker's nesting depth.
    fn help_until(&self, done: impl FnMut() -> bool) {
        let w = self.worker;
        let depth = w.taskwait_depth.get() + 1;
        w.taskwait_depth.set(depth);
        w.shared
            .metrics
            .max_taskwait_depth
            .record(w.id, depth as u64);
        // Every queued task descends from the root, so a scope there would
        // only reverse the policy's order: the root waits like an idle
        // worker.
        let scope = if self.is_root() {
            Scope::ANY
        } else {
            Scope::within(self.task, depth >= TASKWAIT_NESTING_CAP)
        };
        w.help(scope, done);
        w.taskwait_depth.set(depth - 1);
    }

    /// The private reduction slot of the current worker for the reduction
    /// access declared on `target`. Panics if this task has no reduction
    /// access on that address.
    pub fn red_slot<T>(&self, target: &T) -> *mut T {
        let addr = target as *const T as usize;
        let task = unsafe { &*self.task };
        let decls = unsafe { task.decls() };
        let i = decls
            .iter()
            .position(|d| d.addr == addr && d.mode.is_reduction())
            .expect("no reduction access declared on this address");
        // The wait-free system keeps the chain state on the access; the
        // locking system and held tasks keep it on the declaration.
        let info = if task.accesses.is_null() {
            &decls[i].reduction
        } else {
            unsafe { &task.access(i).reduction }
        };
        // Invariant (not user-reachable): a body only runs after
        // registration (or the replay feed) attached `ReductionInfo` to
        // every reduction access.
        let info = info
            .as_ref()
            .expect("reduction info not attached (task not registered?)");
        unsafe { info.slot(self.worker.id) as *mut T }
    }
}

/// Unfinished children above which the root runs a ready task after
/// each spawn, so it cannot outrun the workers and grow the task slab
/// without bound. A quarter of a Heat step (1 024 tasks): with 1 024 a
/// wait-free Heat run held two steps of shells in most processes and
/// one step in a few, so its peak memory swung by a fifth between
/// processes; with 256 nearly every process holds one step.
const RUN_AHEAD: usize = 256;

/// Install the process-wide panic hook that silences injected-fault
/// panics (see [`FAULT_PANIC_PREFIX`]). Installed at most once; every
/// other panic is forwarded to the previously installed hook.
fn install_fault_panic_hook() {
    static HOOK: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|s| s.starts_with(FAULT_PANIC_PREFIX));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// SplitMix64 finalizer — the fault injector's seed-derived selection.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Fault-injection check, run at the top of the body `catch_unwind`
/// scope (so an injected panic takes exactly the real-failure path).
/// See [`FaultPlan`] for the eligibility and determinism contract.
fn maybe_inject_fault(w: &WorkerCtx, t: *mut Task, plan: &FaultPlan) {
    let (parent, label, id) = unsafe { ((*t).parent, (*t).label, (*t).id) };
    if parent.is_null() || label == "taskwait_on" {
        return;
    }
    if let Some(wid) = plan.panic_in_worker
        && w.id != wid
    {
        return;
    }
    let tick = w.shared.fault_tick.fetch_add(1, Ordering::Relaxed);
    if plan.panic_at_nth == Some(tick) {
        std::panic::panic_any(format!(
            "{FAULT_PANIC_PREFIX}: task {id} ({label}) on worker {}",
            w.id
        ));
    }
    if plan.delay_ns > 0 && splitmix(plan.seed ^ tick) & 7 == 0 {
        let t0 = std::time::Instant::now();
        while (t0.elapsed().as_nanos() as u64) < plan.delay_ns {
            core::hint::spin_loop();
        }
    }
}

/// A task body panicked: convert the payload into a [`TaskFailure`],
/// mark the task cancelled (so `body_done` poisons its successors
/// through the dependency system) and count the failure.
#[cold]
fn record_body_failure(w: &WorkerCtx, t: *mut Task, payload: Box<dyn std::any::Any + Send>) {
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string());
    let (id, label) = unsafe { ((*t).id, (*t).label) };
    unsafe { (*t).mark_cancelled() };
    w.shared.metrics.tasks_failed.inc(w.id);
    w.shared.failures.lock().push(TaskFailure {
        task: id,
        label,
        worker: w.id,
        message,
        kind: FailureKind::Panic,
    });
}

/// Run one task body (no completion protocol), then its epilogue hook
/// if one is attached ([`TaskCtx::spawn_held`]).
fn run_body(w: &WorkerCtx, t: *mut Task) {
    let id = unsafe { (*t).id };
    let m = &w.shared.metrics;
    // Sampled latency instrumentation: a queue-wait stamp left by the
    // producer side, and the per-worker execute-side sampling cursor.
    // Both histograms share one clock read when they fire together.
    let mut exec_t0 = 0u64;
    if m.enabled {
        let ready_ns = unsafe { core::mem::replace(&mut (*t).ready_ns, 0) };
        let tick = w.metrics_exec_tick.get().wrapping_add(1);
        w.metrics_exec_tick.set(tick);
        let sampled = tick & Metrics::SAMPLE_MASK == 0;
        if ready_ns != 0 || sampled {
            let now = w.shared.tracer.now();
            if ready_ns != 0 {
                m.queue_wait_ns.record(w.id, now.saturating_sub(ready_ns));
            }
            if sampled {
                exec_t0 = now.max(1);
            }
        }
    }
    w.record(EventKind::TaskStart, id);
    {
        let ctx = TaskCtx { task: t, worker: w };
        if unsafe { (*t).is_cancelled() } {
            // Cancelled by failure propagation: skip the body (dropping
            // it releases its captured state) but still run the epilogue
            // and, in the caller, the full completion protocol — the
            // graph must drain cleanly, only the work is skipped.
            unsafe { (*t).drop_body() };
            m.tasks_cancelled.inc(w.id);
        } else if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(plan) = &w.shared.cfg.fault_plan {
                maybe_inject_fault(w, t, plan);
            }
            unsafe { (*t).run_body(&ctx) };
        })) {
            // A fault injected before the body left it in the slot.
            unsafe { (*t).drop_body() };
            record_body_failure(w, t, payload);
        }
        // SAFETY: only the executing worker touches the epilogue after
        // publication (same confinement as the body). The epilogue
        // runs even for cancelled/failed tasks: it drives the replay
        // engine's per-iteration countdown, which must drain.
        if let Some((epi, tag)) = unsafe { (*t).take_epilogue() } {
            epi.run(&ctx, tag);
        }
    }
    w.record(EventKind::TaskEnd, id);
    m.tasks_executed.inc(w.id);
    if exec_t0 != 0 {
        m.task_exec_ns
            .record(w.id, w.shared.tracer.now().saturating_sub(exec_t0));
    }
}

/// Execute a task body and run the completion protocol: every successor
/// the completion releases goes to the scheduler.
fn execute_task(w: &WorkerCtx, t: *mut Task) {
    run_body(w, t);
    let hooks = Hooks { w };
    unsafe {
        w.shared.deps.body_done(t, &hooks);
        if (*t).drop_child_ref() {
            finish_subtree(w, t);
        }
    }
}

/// A task's subtree completed: release (locking system), notify the
/// parent chain, and drop the subtree removal reference.
fn finish_subtree(w: &WorkerCtx, t: *mut Task) {
    let hooks = Hooks { w };
    unsafe {
        // Held (replay) tasks never registered: their decls are data for
        // `red_slot` only and must not be released.
        if (*t).registered {
            w.shared.deps.fully_done(t, &hooks);
        }
        let parent = (*t).parent;
        // The flag lives outside task memory: take it before the task
        // can be reclaimed, and signal waiters only after this worker
        // freed it, so a waiter sees the free in the life-cycle counts.
        let flag = (*t).completion_flag().cloned();
        if (*t).drop_removal_ref() {
            w.shared.free_task(t, w.id);
        }
        if let Some(flag) = flag {
            flag.store(true, Ordering::Release);
        }
        if !parent.is_null() && (*parent).drop_child_ref() {
            finish_subtree(w, parent);
        }
    }
}

/// Build the stall diagnostic the watchdog attaches to its
/// [`FailureKind::WatchdogStall`] failure: life-cycle counters and the
/// scheduler's queue depth.
fn build_stall_diagnostic(shared: &Shared) -> String {
    let m = &shared.metrics;
    format!(
        "stall: {} live task(s), {} executed, {} created, {} freed, {} failed; \
         scheduler ~{} queued",
        m.live(),
        m.tasks_executed.value(),
        m.tasks_created.value(),
        m.tasks_freed.value(),
        m.tasks_failed.value(),
        shared.sched.approx_len(),
    )
}

/// Stall-watchdog monitor loop ([`RuntimeConfig::watchdog`]): while a
/// fallible run is active, trip when tasks are live but the executed
/// counter has not moved for the configured window. Tripping records a
/// diagnostic and raises `watchdog_tripped`; the run's wait loop turns
/// that into a [`FailureKind::WatchdogStall`] failure and returns
/// instead of hanging. Cancelled-body completions count as progress, so
/// a draining cancellation wave never trips the watchdog.
fn watchdog_loop(shared: &Shared, timeout: std::time::Duration) {
    let poll = (timeout / 4).max(std::time::Duration::from_millis(1));
    let mut last_executed = shared.metrics.tasks_executed.value();
    let mut last_progress = std::time::Instant::now();
    loop {
        std::thread::sleep(poll);
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let executed = shared.metrics.tasks_executed.value();
        let idle = !shared.run_active.load(Ordering::Acquire)
            || shared.metrics.live() == 0
            || shared.watchdog_tripped.load(Ordering::Acquire);
        if executed != last_executed || idle {
            last_executed = executed;
            last_progress = std::time::Instant::now();
            continue;
        }
        if last_progress.elapsed() >= timeout {
            *shared.watchdog_diag.lock() = build_stall_diagnostic(shared);
            shared.metrics.watchdog_trips.inc(0);
            shared.watchdog_tripped.store(true, Ordering::Release);
        }
    }
}

/// Worker-thread main loop.
fn worker_loop(w: WorkerCtx) {
    let shared = Arc::clone(&w.shared);
    let mut idle = false;
    let mut acked = 0;
    let mut backoff = Backoff::new();
    loop {
        let got = {
            let mut rec = w.recorder.borrow_mut();
            shared.sched.get_ready(w.id, Some(&mut rec))
        };
        match got {
            Some(t) => {
                if idle {
                    w.record(EventKind::IdleEnd, 0);
                    idle = false;
                }
                execute_task(&w, t.0);
                backoff.reset();
            }
            None => {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                if !idle {
                    w.record(EventKind::IdleBegin, 0);
                    idle = true;
                    // Flush between tasks, as the paper's backend does.
                    w.recorder.borrow_mut().flush();
                }
                let epoch = shared.flush_epoch.load(Ordering::Acquire);
                if epoch != acked {
                    // `Runtime::trace` is waiting for this worker's events.
                    // Release: the flush happens before `trace` reads the
                    // sink after its Acquire load of this cell.
                    w.recorder.borrow_mut().flush();
                    shared.flush_acked[w.id - 1].store(epoch, Ordering::Release);
                    acked = epoch;
                }
                backoff.snooze();
            }
        }
        if let Some(noise) = &shared.noise {
            let mut rec = w.recorder.borrow_mut();
            noise.check(w.id as u16, &mut rec);
        }
    }
    // Recorder flushes on drop.
}

/// The task runtime. See the crate docs for an example.
pub struct Runtime {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    watchdog: Option<std::thread::JoinHandle<()>>,
    main: WorkerCtx,
}

impl Runtime {
    /// Build a runtime and start its worker threads.
    pub fn new(cfg: RuntimeConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(
            cfg.workers <= crate::sched::sync_sched::MAX_WORKERS,
            "at most {} workers",
            crate::sched::sync_sched::MAX_WORKERS
        );
        // The registry exists before the scheduler so the scheduler's
        // operation counters land in the same snapshot space.
        let metrics = Metrics::new(&cfg);
        let sched = make_scheduler(
            cfg.sched,
            cfg.workers,
            cfg.numa_nodes,
            cfg.policy,
            crate::sched::sync_sched::SPSC_CAPACITY,
            0,
            Some(&metrics.registry),
        );
        let deps = make_deps(cfg.deps, &metrics.registry);
        let alloc = make_allocator(cfg.alloc, cfg.workers + 1);
        // SAFETY(drop_shell): every pointer the slab retains is a fully
        // initialized (dead, reset) `Task` — `alloc_task` writes fresh
        // shells and `free_task` only recycles after `reset_for_recycle`.
        unsafe fn drop_task_shell(p: *mut u8) {
            unsafe { core::ptr::drop_in_place(p as *mut Task) }
        }
        let task_slab = TaskSlab::new(
            Layout::new::<Task>(),
            Arc::clone(&alloc),
            cfg.workers + 1,
            drop_task_shell,
        );
        let tracer = Tracer::new(cfg.workers, cfg.trace);
        let noise = cfg.noise.map(NoiseInjector::new);
        let shared = Arc::new(Shared {
            sched,
            deps,
            alloc,
            task_slab,
            tracer: tracer.clone(),
            noise,
            graph: Mutex::new(Vec::new()),
            next_id: CachePadded::new(AtomicU64::new(1)),
            shutdown: AtomicBool::new(false),
            failures: Mutex::new(Vec::new()),
            fault_tick: AtomicU64::new(0),
            run_active: AtomicBool::new(false),
            watchdog_tripped: AtomicBool::new(false),
            watchdog_diag: Mutex::new(String::new()),
            flush_epoch: AtomicU64::new(0),
            flush_acked: (1..cfg.workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            metrics,
            cfg,
        });
        if shared.cfg.fault_plan.is_some() {
            install_fault_panic_hook();
        }
        let watchdog = shared.cfg.watchdog.map(|timeout| {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("nanotask-watchdog".to_string())
                .spawn(move || watchdog_loop(&s, timeout))
                .expect("spawn watchdog")
        });
        let threads = (1..shared.cfg.workers)
            .map(|id| {
                let w = WorkerCtx::new(id, Arc::clone(&shared), tracer.recorder(id as u16));
                std::thread::Builder::new()
                    .name(format!("nanotask-w{id}"))
                    .spawn(move || worker_loop(w))
                    .expect("spawn worker")
            })
            .collect();
        let main = WorkerCtx::new(0, Arc::clone(&shared), tracer.recorder(0));
        Self {
            shared,
            threads,
            watchdog,
            main,
        }
    }

    /// Execute `root` as the root task on the calling thread (worker 0)
    /// and block until the entire task graph has completed.
    ///
    /// Infallible wrapper over [`Runtime::run_outcome`]: panics with
    /// [`RunOutcome::summary`] if any task failed or the watchdog
    /// tripped. (Before fault isolation existed, a failing body killed
    /// its worker and hung or aborted the process — the wrapper keeps
    /// the panicking contract while making it survivable upstream.)
    pub fn run(&self, root: impl FnOnce(&TaskCtx) + Send + 'static) {
        let outcome = self.run_outcome(root);
        assert!(
            outcome.is_ok(),
            "nanotask run failed: {}",
            outcome.summary()
        );
    }

    /// Execute `root` as the root task and report failures instead of
    /// panicking: every caught body panic becomes a
    /// [`TaskFailure`] and the failed task's transitive successors are
    /// cancelled (completion protocol intact, bodies skipped). See
    /// [`RunOutcome`].
    pub fn run_outcome(&self, root: impl FnOnce(&TaskCtx) + Send + 'static) -> RunOutcome {
        let shared = &self.shared;
        shared.failures.lock().clear();
        if shared.metrics.tasks_failed.value() > 0 {
            // A previous run failed: clear run-scoped poison state so
            // this run starts clean (no-op on the wait-free system).
            shared.deps.reset_faults();
        }
        shared.fault_tick.store(0, Ordering::Relaxed);
        shared.watchdog_tripped.store(false, Ordering::Release);
        let cancelled0 = shared.metrics.tasks_cancelled.value();
        shared.run_active.store(true, Ordering::Release);
        let done = Arc::new(AtomicBool::new(false));
        let t = unsafe {
            let t = self
                .main
                .create_task("root", core::ptr::null_mut(), 0, root, &mut Deps::new());
            (*t).set_completion_flag(Arc::clone(&done));
            t
        };
        // The root has no dependencies: execute it right away on this
        // thread, then help until its subtree completes. The completion
        // flag lives outside task memory, so polling it races with
        // nothing even after the task object is reclaimed.
        execute_task(&self.main, t);
        let mut stalled = false;
        self.main.help(Scope::ANY, || {
            // A tripped watchdog means a stuck graph: abandon it (its
            // tasks cannot drain by definition of the trip) and fail the
            // run instead of hanging forever.
            done.load(Ordering::Acquire) || {
                stalled = shared.watchdog_tripped.load(Ordering::Acquire);
                stalled
            }
        });
        shared.run_active.store(false, Ordering::Release);
        self.main.recorder.borrow_mut().flush();
        let mut failures = std::mem::take(&mut *shared.failures.lock());
        if stalled {
            failures.push(TaskFailure {
                task: 0,
                label: "watchdog",
                worker: 0,
                message: std::mem::take(&mut *shared.watchdog_diag.lock()),
                kind: FailureKind::WatchdogStall,
            });
        }
        RunOutcome {
            failures,
            tasks_cancelled: shared.metrics.tasks_cancelled.value() - cancelled0,
            completed: !stalled,
        }
    }

    /// Runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.shared.cfg
    }

    /// Aggregate counters.
    pub fn stats(&self) -> RuntimeStats {
        let m = &self.shared.metrics;
        let mut alloc = self.shared.alloc.stats();
        // Fold the task-slab recycling counters into the allocator view:
        // one `AllocStats` carries both layers.
        let slab = self.shared.task_slab.stats();
        alloc.recycle_hits = slab.recycled;
        alloc.recycle_misses = slab.fresh;
        alloc.peak_live_tasks = slab.peak_live;
        RuntimeStats {
            tasks_created: m.tasks_created.value(),
            tasks_executed: m.tasks_executed.value(),
            tasks_freed: m.tasks_freed.value(),
            alloc,
            deps_deliveries: m.deps_deliveries.snapshot(),
        }
    }

    /// Aggregate counters plus scheduler-operation counters — the
    /// machine-checkable evidence behind perf claims.
    pub fn run_report(&self) -> RunReport {
        RunReport {
            stats: self.stats(),
            sched: self.shared.sched.op_stats(),
            inline_runs: 0,
            max_taskwait_depth: self.shared.metrics.max_taskwait_depth.value(),
        }
    }

    /// The runtime's metrics registry: every counter family the runtime,
    /// the scheduler and (when attached) the replay engine maintain.
    /// Feed [`Runtime::metrics_snapshot`] to
    /// `nanotask_obs::prometheus::render` for text exposition.
    pub fn metrics_registry(&self) -> &Registry {
        &self.shared.metrics.registry
    }

    /// One consistent read of every registered metric. Publishes the
    /// live task count and the current allocator pressure
    /// ([`AllocStats`], including task-slab recycling) into their gauges
    /// first, so one scrape carries scheduler counters and allocator
    /// state together.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.shared.metrics.publish(&self.stats().alloc);
        self.shared.metrics.registry.snapshot()
    }

    /// Whether the sampled latency histograms are live
    /// ([`RuntimeConfig::metrics`]).
    pub fn metrics_enabled(&self) -> bool {
        self.shared.metrics.enabled
    }

    /// Collect the trace recorded so far. Between runs it is exact: it
    /// asks every worker to flush and waits until each has, so every
    /// event of every finished run appears. The wait costs only this
    /// call; workers answer from their idle loop.
    ///
    /// After a run the watchdog abandoned ([`FailureKind::WatchdogStall`])
    /// it does not wait, because a worker may still be stuck in the
    /// stalled graph; it returns the events flushed so far. Nor does it
    /// wait for a worker thread that has died.
    pub fn trace(&self) -> Trace {
        let shared = &*self.shared;
        let epoch = shared.flush_epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.main.recorder.borrow_mut().flush();
        if !shared.watchdog_tripped.load(Ordering::Acquire) {
            let mut backoff = Backoff::new();
            for (cell, thread) in shared.flush_acked.iter().zip(&self.threads) {
                while cell.load(Ordering::Acquire) < epoch && !thread.is_finished() {
                    backoff.snooze();
                }
            }
        }
        shared.tracer.finish()
    }

    /// Drain the recorded dependency edges (requires `record_graph`).
    /// Takes the accumulated edges out instead of cloning the whole `Vec`
    /// under the mutex; a second call without new recording returns an
    /// empty list.
    pub fn graph_edges(&self) -> Vec<GraphEdge> {
        std::mem::take(&mut *self.shared.graph.lock())
    }

    /// Install (or clear) the root-spawn capture hook. See
    /// [`SpawnCapture`] for the contract.
    pub fn set_spawn_capture(&self, cap: Option<Arc<dyn SpawnCapture>>) {
        *self.main.capture.borrow_mut() = cap;
    }

    /// Record a marker event on worker 0's trace stream (flushed
    /// immediately so phase boundaries are visible even mid-run).
    pub fn trace_mark(&self, kind: EventKind, payload: u64) {
        let mut rec = self.main.recorder.borrow_mut();
        rec.record(kind, payload);
        rec.flush();
    }

    /// Drop the recorded dependency edges (e.g. between `run`s when only
    /// the last program's graph is of interest).
    pub fn clear_graph_edges(&self) {
        self.shared.graph.lock().clear();
    }

    /// Number of task objects currently alive: `tasks_created −
    /// tasks_freed` (0 after all runs completed and chains were closed).
    pub fn live_tasks(&self) -> usize {
        self.shared.metrics.live() as usize
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            if t.join().is_err() {
                // Task-body panics are caught at the body seam, so a
                // dead worker means runtime-internal failure. Record it
                // (visible to `metrics_snapshot` readers and any
                // subsequent outcome drain) instead of aborting the
                // process from a destructor.
                self.shared.metrics.tasks_failed.inc(0);
                self.shared.failures.lock().push(TaskFailure {
                    task: 0,
                    label: "worker",
                    worker: 0,
                    message: "worker thread terminated by panic outside a task body".to_string(),
                    kind: FailureKind::WorkerLost,
                });
            }
        }
        if let Some(wd) = self.watchdog.take() {
            let _ = wd.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::RedOp;
    use std::sync::atomic::AtomicU64 as TestAtomicU64;
    use std::sync::atomic::AtomicUsize;

    fn small(cfg: RuntimeConfig) -> Runtime {
        Runtime::new(cfg.workers(3))
    }

    /// Pins the configuration surface: a new `RuntimeConfig` field, lock
    /// kind or policy does not compile until this test names it, so every
    /// new knob shows up in review. Also pins the `optimized()` values
    /// that no preset varies, and the former knobs' constants.
    #[test]
    fn config_surface_is_pinned() {
        let RuntimeConfig {
            workers: _,
            numa_nodes,
            sched: _,
            deps: _,
            alloc: _,
            policy,
            trace: _,
            record_graph: _,
            noise: _,
            metrics: _,
            watchdog: _,
            fault_plan: _,
            label: _,
        } = RuntimeConfig::optimized();
        assert_eq!(numa_nodes, 1);
        assert_eq!(policy, Policy::Fifo);
        // No wildcard arms: a new variant fails to compile here.
        match crate::sched::LockKind::default() {
            crate::sched::LockKind::PtLock | crate::sched::LockKind::Ticket => {}
        }
        match policy {
            Policy::Fifo | Policy::Priority => {}
        }
        assert_eq!(crate::sched::sync_sched::SPSC_CAPACITY, 100);
        assert_eq!(Metrics::SAMPLE_MASK + 1, 32);
    }

    /// Pins the cache-line layout of the runtime's shared state: every
    /// atomic that more than one thread writes per task starts a 128-byte
    /// line of its own, and each one that shares a line on purpose is
    /// marked "shared on purpose" below with its reason. The structs are
    /// destructured without `..`, so a new field does not compile until
    /// it is placed.
    #[test]
    fn shared_writes_own_their_lines() {
        use core::mem::{offset_of, size_of};
        let _shared = |s: &Shared| {
            let Shared {
                cfg: _,
                sched: _, // sync_sched::tests::shared_writes_own_their_lines
                deps: _,
                alloc: _,     // nanotask_alloc's shared_writes_own_their_lines
                task_slab: _, // nanotask_alloc's shared_writes_own_their_lines
                tracer: _,    // per-core buffers
                noise: _,
                graph: _,            // written per edge only with `record_graph`
                next_id: _,          // own line, asserted below
                shutdown: _,         // shared on purpose: written once, at drop
                failures: _,         // written per failure
                fault_tick: _,       // shared on purpose: written only under a fault plan
                run_active: _,       // shared on purpose: written twice per run
                watchdog_tripped: _, // shared on purpose: written per run and trip
                watchdog_diag: _,    // written per trip
                flush_epoch: _,      // shared on purpose: written per `trace()` call
                flush_acked: _,      // one padded cell per worker thread (its only writer)
                metrics: _,          // sharded registry cells
            } = s;
        };
        let _task = |t: &Task| {
            let Task {
                id: _,
                label: _,
                parent: _,
                level: _,
                body: _, // written before publish, then only by the executor
                // Shared on purpose: the protocol word every party of
                // this one task writes; a line per task would grow every
                // shell. It is one word (asserted below).
                state: _,
                decls: _,
                accesses: _,
                n_accesses: _,
                child_bottom: _,
                cold: _,
                priority: _,
                registered: _,
                ready_ns: _,
            } = t;
        };
        // Written per spawn by every creator.
        assert_eq!(offset_of!(Shared, next_id) % 128, 0);
        assert_eq!(size_of::<CachePadded<AtomicU64>>() % 128, 0);
        assert_eq!(size_of::<TaskState>(), 8);
        // The shell, with its 48-byte in-place body slot.
        assert_eq!(size_of::<Task>(), 176);
    }

    #[test]
    fn run_executes_root() {
        let rt = small(RuntimeConfig::optimized());
        let hit = Arc::new(AtomicBool::new(false));
        let h = Arc::clone(&hit);
        rt.run(move |_| h.store(true, Ordering::SeqCst));
        assert!(hit.load(Ordering::SeqCst));
    }

    #[test]
    fn spawned_tasks_all_execute() {
        let rt = small(RuntimeConfig::optimized());
        let count = Arc::new(TestAtomicU64::new(0));
        let c = Arc::clone(&count);
        rt.run(move |ctx| {
            for _ in 0..100 {
                let c = Arc::clone(&c);
                ctx.spawn(Deps::new(), move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn dependencies_order_writes() {
        // A chain of writers incrementing a plain (non-atomic) counter:
        // only correct if the runtime serializes them.
        let rt = small(RuntimeConfig::optimized());
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = crate::SendPtr::new(data);
        rt.run(move |ctx| {
            for _ in 0..50 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1
                });
            }
        });
        assert_eq!(unsafe { *data }, 50);
        unsafe { drop(Box::from_raw(data)) };
    }

    #[test]
    fn taskwait_blocks_until_children_done() {
        let rt = small(RuntimeConfig::optimized());
        let flag = Arc::new(AtomicBool::new(false));
        let ok = Arc::new(AtomicBool::new(false));
        let (f, o) = (Arc::clone(&flag), Arc::clone(&ok));
        rt.run(move |ctx| {
            let f2 = Arc::clone(&f);
            ctx.spawn(Deps::new(), move |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                f2.store(true, Ordering::SeqCst);
            });
            ctx.taskwait();
            o.store(f.load(Ordering::SeqCst), Ordering::SeqCst);
        });
        assert!(ok.load(Ordering::SeqCst), "taskwait returned before child");
    }

    #[test]
    fn reduction_sums_across_tasks() {
        let rt = small(RuntimeConfig::optimized());
        let acc = Box::leak(Box::new(0.0f64)) as *mut f64;
        let p = crate::SendPtr::new(acc);
        rt.run(move |ctx| {
            for i in 0..32 {
                ctx.spawn(
                    Deps::new().reduce_addr(p.addr(), 8, RedOp::SumF64),
                    move |c| unsafe {
                        let slot = c.red_slot(&*(p.addr() as *const f64));
                        *slot += (i + 1) as f64;
                    },
                );
            }
            // A reader after the chain forces combination.
            ctx.spawn(Deps::new().read_addr(p.addr()), move |_| {});
        });
        assert_eq!(unsafe { *acc }, 528.0); // 1+2+..+32
        unsafe { drop(Box::from_raw(acc)) };
    }

    #[test]
    fn all_ablation_configs_run() {
        for cfg in RuntimeConfig::ablations() {
            let label = cfg.label;
            let rt = Runtime::new(cfg.workers(2));
            let count = Arc::new(TestAtomicU64::new(0));
            let c = Arc::clone(&count);
            let data = Box::leak(Box::new(0u64)) as *mut u64;
            let p = crate::SendPtr::new(data);
            rt.run(move |ctx| {
                for _ in 0..20 {
                    let c2 = Arc::clone(&c);
                    ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| {
                        unsafe { *p.get() += 1 };
                        c2.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(count.load(Ordering::Relaxed), 20, "config {label}");
            assert_eq!(unsafe { *data }, 20, "config {label}");
            unsafe { drop(Box::from_raw(data)) };
        }
    }

    /// Pops of a dependency chain mixed with access-free tasks, on three
    /// workers and every ablation: each task runs once and none is left live.
    /// The name is kept from when this ran with a per-scheduler pop cache;
    /// pops are now always served under the scheduler lock.
    #[test]
    fn pop_cache_correct_on_all_ablations() {
        for base in RuntimeConfig::ablations() {
            let label = base.label;
            let rt = Runtime::new(base.workers(3));
            let count = Arc::new(TestAtomicU64::new(0));
            let c = Arc::clone(&count);
            let data = Box::leak(Box::new(0u64)) as *mut u64;
            let p = crate::SendPtr::new(data);
            rt.run(move |ctx| {
                for _ in 0..40 {
                    let c2 = Arc::clone(&c);
                    ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| {
                        unsafe { *p.get() += 1 };
                        c2.fetch_add(1, Ordering::Relaxed);
                    });
                }
                for _ in 0..10 {
                    let c2 = Arc::clone(&c);
                    ctx.spawn(Deps::new(), move |_| {
                        c2.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(count.load(Ordering::Relaxed), 50, "{label}");
            assert_eq!(unsafe { *data }, 40, "{label}");
            assert_eq!(rt.live_tasks(), 0, "{label}");
            unsafe { drop(Box::from_raw(data)) };
        }
    }

    #[test]
    fn stats_track_tasks() {
        let rt = small(RuntimeConfig::optimized());
        rt.run(|ctx| {
            for _ in 0..10 {
                ctx.spawn(Deps::new(), |_| {});
            }
        });
        let s = rt.stats();
        assert_eq!(s.tasks_executed, 11); // 10 + root
        assert_eq!(s.tasks_created, 11);
    }

    #[test]
    fn trace_records_task_events() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2).tracing(true));
        rt.run(|ctx| {
            for _ in 0..5 {
                ctx.spawn(Deps::new(), |_| {});
            }
        });
        let trace = rt.trace();
        let starts = trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::TaskStart)
            .count();
        assert!(starts >= 6, "root + 5 tasks traced, got {starts}");
    }

    /// `trace()` waits until every worker has flushed, so after each run
    /// the trace holds exactly one `TaskStart` per task of every run so
    /// far, root included, however the run's end races the workers'
    /// idle flushes.
    #[test]
    fn trace_after_run_is_exact() {
        const RUNS: usize = 50;
        const TASKS: usize = 10_000;
        let rt = Runtime::new(RuntimeConfig::optimized().workers(4).tracing(true));
        for k in 1..=RUNS {
            rt.run(|ctx| {
                for _ in 0..TASKS {
                    ctx.spawn(Deps::new(), |_| {});
                }
            });
            let starts = rt
                .trace()
                .events()
                .iter()
                .filter(|e| e.kind == EventKind::TaskStart)
                .count();
            assert_eq!(starts, k * (TASKS + 1), "after run {k}");
        }
    }

    /// `run` returns only after the task that completes the root's
    /// subtree has freed the root, so the life-cycle counts are exact
    /// right after every run, even when a worker other than the caller
    /// finishes the subtree: a root with one ~2 µs child, and a
    /// readwrite chain plus a reader under both dependency systems.
    #[test]
    fn counts_exact_after_run() {
        fn exact_after_each_run(
            cfg: RuntimeConfig,
            runs: usize,
            root: impl Fn(&TaskCtx) + Copy + Send + 'static,
        ) {
            let rt = Runtime::new(cfg.workers(2));
            for run in 0..runs {
                rt.run(root);
                let s = rt.stats();
                assert_eq!(rt.live_tasks(), 0, "{:?}: run {run}", rt.config().deps);
                assert_eq!(s.tasks_created, s.tasks_freed, "run {run}");
            }
        }
        exact_after_each_run(RuntimeConfig::optimized(), 40_000, |ctx| {
            ctx.spawn(Deps::new(), |_| {
                let t0 = std::time::Instant::now();
                while t0.elapsed().as_nanos() < 2_000 {
                    core::hint::spin_loop();
                }
            })
        });
        let cell = Box::leak(Box::new(0u64)) as *mut u64;
        let p = crate::SendPtr::new(cell);
        let chain = move |ctx: &TaskCtx| {
            for _ in 0..3 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1
                });
            }
            ctx.spawn(Deps::new().read_addr(p.addr()), move |_| {
                core::hint::black_box(unsafe { *p.get() });
            });
        };
        exact_after_each_run(RuntimeConfig::optimized(), 30_000, chain);
        exact_after_each_run(RuntimeConfig::without_waitfree_deps(), 30_000, chain);
        assert_eq!(unsafe { *cell }, 3 * 60_000);
        unsafe { drop(Box::from_raw(cell)) };
    }

    /// The wait loop polls the noise injector before it tests `done`, so
    /// worker 0 polls it once even when the root leaves nothing to wait
    /// for.
    #[test]
    fn childless_root_still_polls_noise() {
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(1)
                .tracing(true)
                .with_noise(NoiseConfig {
                    target_core: 0,
                    period: std::time::Duration::from_micros(1),
                    duration: std::time::Duration::from_micros(10),
                    max_events: 1,
                }),
        );
        // The root outlives the first deadline.
        rt.run(|_| std::thread::sleep(std::time::Duration::from_millis(1)));
        let begins = rt
            .trace()
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::KernelInterruptBegin)
            .count();
        assert!(begins >= 1, "no interrupt recorded");
    }

    #[test]
    fn graph_edges_recorded() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(1).graph(true));
        let x = Box::leak(Box::new(0u64)) as *mut u64;
        let p = crate::SendPtr::new(x);
        rt.run(move |ctx| {
            for _ in 0..4 {
                ctx.spawn_labeled("w", Deps::new().readwrite_addr(p.addr()), move |_| {});
            }
        });
        let edges = rt.graph_edges();
        assert_eq!(edges.len(), 3, "3 successor edges in a 4-task chain");
        unsafe { drop(Box::from_raw(x)) };
    }

    #[test]
    fn nested_spawn_and_wait() {
        let rt = small(RuntimeConfig::optimized());
        let count = Arc::new(TestAtomicU64::new(0));
        let c = Arc::clone(&count);
        rt.run(move |ctx| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                ctx.spawn(Deps::new(), move |inner| {
                    for _ in 0..4 {
                        let c = Arc::clone(&c);
                        inner.spawn(Deps::new(), move |_| {
                            c.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    inner.taskwait();
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn sequential_runs_reuse_runtime() {
        let rt = small(RuntimeConfig::optimized());
        let count = Arc::new(TestAtomicU64::new(0));
        for _ in 0..3 {
            let c = Arc::clone(&count);
            rt.run(move |ctx| {
                for _ in 0..10 {
                    let c = Arc::clone(&c);
                    ctx.spawn(Deps::new(), move |_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn priority_policy_orders_execution() {
        // Single worker: the root queues everything, then the helping
        // loop must pop strictly by priority (FIFO among equals).
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(1)
                .with_policy(crate::sched::Policy::Priority),
        );
        let order: Arc<Mutex<Vec<i32>>> = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        rt.run(move |ctx| {
            for &p in &[1, 5, 3, 5, 2, 4] {
                let o = Arc::clone(&o);
                ctx.spawn_prioritized("p", p, Deps::new(), move |_| {
                    o.lock().push(p);
                });
            }
        });
        assert_eq!(*order.lock(), vec![5, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn priority_policy_on_delegation_and_central() {
        for sched in [
            SchedKind::Delegation,
            SchedKind::Central(crate::sched::LockKind::PtLock),
        ] {
            let rt = Runtime::new(
                RuntimeConfig::optimized()
                    .scheduler(sched)
                    .workers(3)
                    .with_policy(crate::sched::Policy::Priority),
            );
            let count = Arc::new(TestAtomicU64::new(0));
            let c = Arc::clone(&count);
            rt.run(move |ctx| {
                for i in 0..200 {
                    let c = Arc::clone(&c);
                    ctx.spawn_prioritized("p", i % 7, Deps::new(), move |_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(count.load(Ordering::Relaxed), 200, "{sched:?}");
        }
    }

    #[test]
    fn taskwait_on_waits_for_conflicting_tasks_only() {
        let rt = small(RuntimeConfig::optimized());
        let x = Box::leak(Box::new(0u64)) as *mut u64;
        let y = Box::leak(Box::new(0u64)) as *mut u64;
        let px = crate::SendPtr::new(x);
        let py = crate::SendPtr::new(y);
        let unrelated_done = Arc::new(AtomicBool::new(false));
        let observed = Arc::new(TestAtomicU64::new(u64::MAX));
        let (u, o) = (Arc::clone(&unrelated_done), Arc::clone(&observed));
        rt.run(move |ctx| {
            // Conflicting chain on x.
            for _ in 0..10 {
                ctx.spawn(Deps::new().readwrite_addr(px.addr()), move |_| unsafe {
                    *px.get() += 1;
                });
            }
            // A slow unrelated task on y.
            let u2 = Arc::clone(&u);
            ctx.spawn(Deps::new().readwrite_addr(py.addr()), move |_| {
                std::thread::sleep(std::time::Duration::from_millis(30));
                u2.store(true, Ordering::SeqCst);
            });
            // Wait only on x: all 10 increments visible; the slow task
            // may still be running.
            ctx.taskwait_on(Deps::new().read_addr(px.addr()));
            o.store(unsafe { *px.get() }, Ordering::SeqCst);
        });
        assert_eq!(
            observed.load(Ordering::SeqCst),
            10,
            "all x-writers finished"
        );
        assert!(
            unrelated_done.load(Ordering::SeqCst),
            "run() still waits for everything"
        );
        unsafe {
            drop(Box::from_raw(x));
            drop(Box::from_raw(y));
        }
    }

    #[test]
    fn taskwait_on_with_no_conflicts_returns_quickly() {
        let rt = small(RuntimeConfig::optimized());
        let x = Box::leak(Box::new(0u64)) as *mut u64;
        let p = crate::SendPtr::new(x);
        rt.run(move |ctx| {
            ctx.taskwait_on(Deps::new().read_addr(p.addr()));
            unsafe { *p.get() = 7 };
        });
        assert_eq!(unsafe { *x }, 7);
        unsafe { drop(Box::from_raw(x)) };
    }

    #[test]
    fn run_report_counts_scheduler_ops() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        rt.run(|ctx| {
            for _ in 0..20 {
                ctx.spawn(Deps::new(), |_| {});
            }
        });
        let report = rt.run_report();
        assert_eq!(report.inline_runs, 0, "every activation is queued");
        assert_eq!(report.sched.adds, 20);
        assert_eq!(report.sched.pops, 20);
    }

    #[test]
    fn tasks_reclaimed_after_run() {
        let rt = small(RuntimeConfig::optimized());
        let x = Box::leak(Box::new(0u64)) as *mut u64;
        let p = crate::SendPtr::new(x);
        rt.run(move |ctx| {
            for _ in 0..50 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        // The root closed its domain when its body+children finished, so
        // every chain terminated and every task should be reclaimed.
        assert_eq!(rt.live_tasks(), 0, "all task objects reclaimed");
        let s = rt.stats();
        assert_eq!(s.tasks_created, s.tasks_freed);
        unsafe { drop(Box::from_raw(x)) };
    }

    /// A panicking body mid-chain is isolated, reported, and cancels
    /// exactly its transitive successors — on both dependency systems —
    /// and the runtime stays fully usable afterwards.
    #[test]
    fn body_panic_cancels_successors_and_reports() {
        for cfg in [
            RuntimeConfig::optimized(),
            RuntimeConfig::without_waitfree_deps(),
        ] {
            let label = cfg.label;
            // Armed-but-never-firing plan: installs the quiet panic hook.
            let rt = small(cfg.with_fault_plan(FaultPlan::never()));
            let data = Box::leak(Box::new(0u64)) as *mut u64;
            let p = crate::SendPtr::new(data);
            let outcome = rt.run_outcome(move |ctx| {
                for i in 0..10 {
                    ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| {
                        if i == 3 {
                            std::panic::panic_any(format!("{FAULT_PANIC_PREFIX}: planted"));
                        }
                        unsafe { *p.get() += 1 };
                    });
                }
            });
            assert_eq!(outcome.failures.len(), 1, "{label}: {}", outcome.summary());
            assert_eq!(outcome.failures[0].kind, FailureKind::Panic);
            assert_eq!(outcome.failures[0].label, "task");
            assert_eq!(outcome.tasks_cancelled, 6, "{label}: tasks 4..9 cancelled");
            assert!(outcome.completed, "{label}");
            assert_eq!(unsafe { *data }, 3, "{label}: predecessors ran");
            assert_eq!(rt.live_tasks(), 0, "{label}: no leaked tasks");
            let s = rt.stats();
            assert_eq!(s.tasks_created, s.tasks_freed, "{label}");
            // The runtime survives: a fault-free run works afterwards.
            let again = rt.run_outcome(move |ctx| {
                for _ in 0..10 {
                    ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                        *p.get() += 1;
                    });
                }
            });
            assert!(again.is_ok(), "{label}: {}", again.summary());
            assert_eq!(again.tasks_cancelled, 0, "{label}");
            assert_eq!(unsafe { *data }, 13, "{label}");
            unsafe { drop(Box::from_raw(data)) };
        }
    }

    /// `FaultPlan::panic_at` fires in the nth eligible body, counted per
    /// run (deterministic on a single worker).
    #[test]
    fn fault_plan_injects_deterministically() {
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(1)
                .with_fault_plan(FaultPlan::panic_at(2)),
        );
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = crate::SendPtr::new(data);
        for round in 0..2 {
            let outcome = rt.run_outcome(move |ctx| {
                for _ in 0..8 {
                    ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                        *p.get() += 1;
                    });
                }
            });
            assert_eq!(outcome.failures.len(), 1, "round {round}");
            assert!(
                outcome.failures[0].message.starts_with(FAULT_PANIC_PREFIX),
                "round {round}: {}",
                outcome.failures[0].message
            );
            assert_eq!(outcome.tasks_cancelled, 5, "round {round}: tasks 3..8");
            assert_eq!(rt.live_tasks(), 0, "round {round}");
        }
        // Two runs, two predecessor pairs: the tick reset per run.
        assert_eq!(unsafe { *data }, 4);
        unsafe { drop(Box::from_raw(data)) };
    }

    /// The watchdog converts a never-completing graph into a
    /// `WatchdogStall` failure instead of hanging the run.
    #[test]
    fn watchdog_trips_on_stuck_graph() {
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(2)
                .with_watchdog(std::time::Duration::from_millis(50)),
        );
        let outcome = rt.run_outcome(|ctx| {
            // A held task that is never released: the graph can't drain.
            let _stuck = ctx.spawn_held("stuck", 0, Deps::new(), Box::new(|_| {}), None);
        });
        assert_eq!(outcome.failures.len(), 1, "{}", outcome.summary());
        assert_eq!(outcome.failures[0].kind, FailureKind::WatchdogStall);
        assert!(
            outcome.failures[0].message.contains("live task"),
            "diagnostic attached: {}",
            outcome.failures[0].message
        );
        assert!(!outcome.completed);
        assert_eq!(
            rt.metrics_snapshot()
                .counter("nanotask_watchdog_trips_total"),
            Some(1)
        );
    }

    /// The infallible `run` wrapper panics with the failure summary.
    #[test]
    fn run_wrapper_panics_on_failure() {
        let rt = small(RuntimeConfig::optimized().with_fault_plan(FaultPlan::never()));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|ctx| {
                ctx.spawn(Deps::new(), |_| {
                    std::panic::panic_any(format!("{FAULT_PANIC_PREFIX}: planted"));
                });
            });
        }));
        assert!(caught.is_err(), "run() surfaces the failure by panicking");
        // The runtime itself survived the failed run.
        assert_eq!(rt.live_tasks(), 0);
        rt.run(|ctx| {
            ctx.spawn(Deps::new(), |_| {});
        });
    }

    /// An armed but never-firing plan plus watchdog changes no observable
    /// life-cycle behavior on a fault-free run.
    #[test]
    fn fault_free_run_with_armed_plan_is_identical() {
        let run_counters = |cfg: RuntimeConfig| {
            let rt = Runtime::new(cfg.workers(1));
            let outcome = rt.run_outcome(|ctx| {
                for _ in 0..25 {
                    ctx.spawn(Deps::new(), |_| {});
                }
            });
            assert!(outcome.is_ok(), "{}", outcome.summary());
            let s = rt.stats();
            (s.tasks_created, s.tasks_executed, s.tasks_freed)
        };
        let plain = run_counters(RuntimeConfig::optimized());
        let armed = run_counters(
            RuntimeConfig::optimized()
                .with_fault_plan(FaultPlan::never())
                .with_watchdog(std::time::Duration::from_secs(5)),
        );
        assert_eq!(plain, armed);
    }

    /// The root over `RUN_AHEAD` unfinished children runs a ready task
    /// after each spawn, so with one worker 10 000 access-free spawns
    /// never hold more than `RUN_AHEAD` + 2 tasks (the children and the
    /// root) at once.
    #[test]
    fn run_ahead_is_bounded() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(1));
        rt.run(|ctx| {
            for _ in 0..10_000 {
                ctx.spawn(Deps::new(), |_| {});
            }
        });
        let s = rt.stats();
        assert_eq!(s.tasks_executed, 10_001);
        assert!(
            s.alloc.peak_live_tasks <= RUN_AHEAD as u64 + 2,
            "{:?}",
            s.alloc
        );
    }

    /// The run-ahead pass never waits: a root holding more than
    /// `RUN_AHEAD` unreleased held children can still spawn, and release
    /// them afterwards.
    #[test]
    fn run_ahead_never_waits_for_held_children() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        rt.run(move |ctx| {
            let held: Vec<HeldTask> = (0..RUN_AHEAD + 100)
                .map(|_| ctx.spawn_held("held", 0, Deps::new(), Box::new(|_| {}), None))
                .collect();
            ctx.spawn(Deps::new(), move |_| {
                r.fetch_add(1, Ordering::SeqCst);
            });
            for h in held {
                ctx.release_held(h);
            }
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(rt.live_tasks(), 0);
    }

    /// A capture that counts its drops in a shared counter.
    struct Tally(Arc<AtomicUsize>);

    impl Drop for Tally {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Runs `root` with a [`Tally`] to hand to one spawned body, then
    /// asserts that body's capture was dropped exactly once.
    fn capture_dropped_once(
        cfg: RuntimeConfig,
        root: impl FnOnce(&TaskCtx, Tally) + Send + 'static,
    ) -> RunOutcome {
        let drops = Arc::new(AtomicUsize::new(0));
        let tally = Tally(Arc::clone(&drops));
        let rt = Runtime::new(cfg.workers(2));
        let outcome = rt.run_outcome(move |ctx| root(ctx, tally));
        assert_eq!(drops.load(Ordering::SeqCst), 1, "{}", outcome.summary());
        assert_eq!(Arc::strong_count(&drops), 1);
        assert_eq!(rt.live_tasks(), 0);
        outcome
    }

    #[test]
    fn inline_body_runs_and_drops_its_capture_once() {
        let outcome = capture_dropped_once(RuntimeConfig::optimized(), |ctx, tally| {
            let body = move |_: &TaskCtx| assert_eq!(tally.0.load(Ordering::SeqCst), 0);
            assert!(core::mem::size_of_val(&body) <= 48);
            ctx.spawn(Deps::new(), body);
        });
        assert!(outcome.is_ok(), "{}", outcome.summary());
    }

    #[test]
    fn cancelled_body_drops_its_capture_once() {
        let cfg = RuntimeConfig::optimized().with_fault_plan(FaultPlan::never());
        static X: u64 = 0;
        let outcome = capture_dropped_once(cfg, |ctx, tally| {
            let x = &X as *const u64 as usize;
            ctx.spawn(Deps::new().readwrite_addr(x), |_| {
                std::panic::panic_any(format!("{FAULT_PANIC_PREFIX}: planted"));
            });
            ctx.spawn(Deps::new().readwrite_addr(x), move |_| {
                let _ = &tally;
                unreachable!("successor of a failed task ran");
            });
        });
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.tasks_cancelled, 1);
    }

    #[test]
    fn panicking_body_drops_its_capture_once() {
        let cfg = RuntimeConfig::optimized().with_fault_plan(FaultPlan::never());
        let outcome = capture_dropped_once(cfg, |ctx, tally| {
            ctx.spawn(Deps::new(), move |_| {
                let _ = &tally;
                std::panic::panic_any(format!("{FAULT_PANIC_PREFIX}: planted"));
            });
        });
        assert_eq!(outcome.failures.len(), 1);
    }

    /// A fault injected before the body runs leaves it in the slot; the
    /// executing worker drops it before the task completes, so a
    /// taskwait already sees the drop although the task's access keeps
    /// its shell alive until the root finishes.
    #[test]
    fn body_skipped_by_injected_fault_drops_its_capture_once() {
        let cfg = RuntimeConfig::optimized().with_fault_plan(FaultPlan::panic_at(0));
        static X: u64 = 0;
        let outcome = capture_dropped_once(cfg, |ctx, tally| {
            let drops = Arc::clone(&tally.0);
            let x = &X as *const u64 as usize;
            ctx.spawn(Deps::new().readwrite_addr(x), move |_| {
                let _ = &tally;
                unreachable!("the injected fault fires first");
            });
            ctx.taskwait();
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        });
        assert_eq!(outcome.failures.len(), 1);
    }

    #[test]
    fn oversized_body_is_boxed_and_drops_its_capture_once() {
        let outcome = capture_dropped_once(RuntimeConfig::optimized(), |ctx, tally| {
            let pad = [7u64; 6];
            let body = move |_: &TaskCtx| {
                let _ = &tally;
                assert_eq!(std::hint::black_box(&pad)[5], 7);
            };
            assert_eq!(core::mem::size_of_val(&body), 56);
            ctx.spawn(Deps::new(), body);
        });
        assert!(outcome.is_ok(), "{}", outcome.summary());
    }

    #[test]
    fn overaligned_body_is_boxed_and_drops_its_capture_once() {
        #[repr(align(64))]
        struct Aligned(Tally);
        let outcome = capture_dropped_once(RuntimeConfig::optimized(), |ctx, tally| {
            let aligned = Aligned(tally);
            let body = move |_: &TaskCtx| {
                let a = std::hint::black_box(&aligned);
                assert_eq!(&a.0 as *const Tally as usize % 64, 0);
            };
            assert_eq!(core::mem::align_of_val(&body), 64);
            ctx.spawn(Deps::new(), body);
        });
        assert!(outcome.is_ok(), "{}", outcome.summary());
    }
}
