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
use nanotask_locks::Backoff;
use nanotask_obs::{
    Counter, FlightFrame, FlightRecorder, Gauge, Histogram, MaxGauge, Registry, Snapshot,
};
use nanotask_trace::noise::{NoiseConfig, NoiseInjector};
use nanotask_trace::{CoreRecorder, EventKind, Trace, Tracer};

use crate::deps::access::DataAccess;
use crate::deps::{DepHooks, DependencySystem, Deps, DepsKind, make_deps};
use crate::graph::{EdgeKind, GraphEdge};
use crate::platform::Platform;
use crate::sched::{Policy, SchedKind, Scheduler, Scope, TaskPtr, make_scheduler};
use crate::task::{Task, TaskBody, TaskId, TaskState};

/// Observer of task spawns issued by the *root* task — the hook the
/// record & replay subsystem (`nanotask-replay`) uses to capture a task
/// graph without the runtime knowing anything about replay.
///
/// Installed with [`Runtime::set_spawn_capture`]. While [`SpawnCapture::active`]
/// returns true, every `spawn`/`spawn_labeled`/`spawn_prioritized` call
/// made by the root task body is first offered to [`SpawnCapture::on_spawn`]:
///
/// * returning `Some((deps, body))` lets the spawn proceed normally
///   (record mode — the capture noted the metadata and handed the parts
///   back);
/// * returning `None` consumes the spawn (replay mode — the capture
///   took ownership of the body and schedules it by other means, e.g.
///   [`TaskCtx::spawn_held`], which it may call from inside `on_spawn`
///   through the provided `ctx`).
///
/// Spawns from non-root tasks (nested parallelism) and internal spawns
/// (`taskwait_on`) are never offered to the capture.
///
/// The runtime only ever invokes these methods from the thread that is
/// executing the root task body, so implementations may keep their hot
/// state thread-confined.
pub trait SpawnCapture: Send + Sync {
    /// Whether spawns should currently be offered to this capture.
    fn active(&self) -> bool;

    /// Offer one root spawn. See the trait docs for the return contract.
    fn on_spawn(
        &self,
        ctx: &TaskCtx,
        label: &'static str,
        priority: i32,
        deps: Deps,
        body: TaskBody,
    ) -> Option<(Deps, TaskBody)>;

    /// The task id the (non-consumed) spawn ended up with — lets a
    /// recorder correlate captured nodes with dependency-graph edges.
    fn on_spawned(&self, _id: TaskId) {}
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
/// `repr(transparent)` so a `&[HeldTask]` batch can be handed to the
/// scheduler as `&[TaskPtr]` without copying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
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
    /// Capacity of each SPSC add buffer (Listing 5 uses 100).
    pub spsc_capacity: usize,
    /// Record trace events.
    pub trace: bool,
    /// Record dependency edges (Figure 1 graph dump).
    pub record_graph: bool,
    /// Synthetic OS-noise injection (Figure 11).
    pub noise: Option<NoiseConfig>,
    /// Immediate-successor execution: a completing task keeps one of the
    /// successors it released as its worker's next task, run inline with
    /// no queue and no lock (the zero-queue hot path; Nanos6 ships the
    /// same fast path). Off by default — enabling it trades strict
    /// global queue ordering (and, under [`Policy::Priority`], strict
    /// priority order) for a shorter per-task critical path.
    pub inline_successors: bool,
    /// Bound on consecutive inline executions before the worker must go
    /// back through the scheduler — preserves fairness and guarantees
    /// taskwait loops re-check their condition at bounded intervals.
    pub inline_max_depth: usize,
    /// Batched release: all successors released by one task completion
    /// are handed to the scheduler as a single slice (one lock
    /// acquisition / buffer pass / trace record). Off by default.
    pub batched_release: bool,
    /// Per-worker pop-cache capacity of the delegation scheduler: one
    /// delegation-lock acquisition pre-pops up to this many extra tasks
    /// for the acquiring worker. 0 (default) disables the cache.
    pub pop_cache: usize,
    /// Frozen replay graphs the replay engine keeps, LRU-keyed by
    /// structural hash (`nanotask-replay`'s `GraphCache`). Values > 1
    /// let phase-alternating iterative bodies (miniAMR-style
    /// refine/coarsen cycles) replay every phase instead of re-recording
    /// on each alternation; 1 is the same engine with a one-entry cache
    /// (every shape change evicts and re-records).
    pub replay_cache_size: usize,
    /// After this many *consecutive* iterations that could not replay
    /// (record or divergence), the replay engine pins the body to the
    /// dependency system and stops recording. 0 disables the give-up
    /// policy.
    pub replay_giveup_after: usize,
    /// While pinned, every this-many iterations the engine runs one
    /// cheap hash-only probe (no graph build) to detect that the body
    /// re-stabilized onto a cached or repeating shape.
    pub replay_recheck_every: usize,
    /// NUMA-aware replay partitioning: partition every frozen replay
    /// graph across the runtime's NUMA nodes and route each released
    /// batch to its partition's node via the scheduler's node-targeted
    /// insertion, turning replay into a locality-aware static schedule.
    /// Like the zero-queue fast path, this trades strict global queue
    /// ordering (and, under [`crate::sched::Policy::Priority`], strict
    /// priority order) for placement: routed tasks are served FIFO per
    /// node ahead of the global policy queue. Off by default.
    pub replay_partitioning: bool,
    /// Latency histograms (task execution time, ready-queue wait,
    /// release-batch size): sampled clock reads on the hot path when on.
    /// Plain counters are registry-backed and always on regardless —
    /// this knob only gates the paths that need a timestamp.
    pub metrics: bool,
    /// Histogram sampling interval: one timed task per this many
    /// (per worker), rounded up to a power of two so the hot-path
    /// sample check is a mask instead of a division. 1 times every task.
    pub metrics_sample: usize,
    /// Flight-recorder snapshot interval in executed tasks (and replay
    /// iterations); 0 disables the recorder.
    pub flight_every: u64,
    /// Snapshots the flight-recorder ring retains.
    pub flight_capacity: usize,
    /// Stall watchdog: when set, a monitor thread trips after tasks have
    /// been pending with no completed body for this long, failing the
    /// run with a [`FailureKind::WatchdogStall`] diagnostic (flight
    /// snapshot + queue depths) instead of hanging forever. `None`
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
            spsc_capacity: 100,
            trace: false,
            record_graph: false,
            noise: None,
            inline_successors: false,
            inline_max_depth: 64,
            batched_release: false,
            pop_cache: 0,
            replay_cache_size: 4,
            replay_giveup_after: 8,
            replay_recheck_every: 16,
            replay_partitioning: false,
            metrics: false,
            metrics_sample: 32,
            flight_every: 0,
            flight_capacity: 64,
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

    /// §8 future work, implemented: the optimized runtime with the
    /// flat-combining DTLock serve path (batched waiter service).
    pub fn flat_combining() -> Self {
        Self {
            sched: SchedKind::DelegationFlat,
            label: "flat combining",
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

    /// Toggle the whole zero-queue fast path at once: immediate-successor
    /// inline execution + batched ready-task release + a small per-worker
    /// pop cache. Everything defaults to off;
    /// `tests/fastpath_properties.rs` flips it.
    pub fn fast_path(mut self, on: bool) -> Self {
        self.inline_successors = on;
        self.batched_release = on;
        self.pop_cache = if on { 4 } else { 0 };
        self
    }

    /// Toggle immediate-successor inline execution only.
    pub fn with_inline_successors(mut self, on: bool) -> Self {
        self.inline_successors = on;
        self
    }

    /// Set the inline-chain depth bound (min 1).
    pub fn with_inline_max_depth(mut self, n: usize) -> Self {
        self.inline_max_depth = n.max(1);
        self
    }

    /// Toggle batched ready-task release only.
    pub fn with_batched_release(mut self, on: bool) -> Self {
        self.batched_release = on;
        self
    }

    /// Set the delegation scheduler's per-worker pop-cache capacity
    /// (0 disables).
    pub fn with_pop_cache(mut self, n: usize) -> Self {
        self.pop_cache = n;
        self
    }

    /// Set the replay engine's frozen-graph cache capacity (min 1).
    pub fn with_replay_cache_size(mut self, n: usize) -> Self {
        self.replay_cache_size = n.max(1);
        self
    }

    /// Set how many consecutive non-replayed iterations make the replay
    /// engine give up and pin the body to the dependency system
    /// (0 = never give up).
    pub fn with_replay_giveup_after(mut self, n: usize) -> Self {
        self.replay_giveup_after = n;
        self
    }

    /// Set the pinned-mode re-stabilization probe interval (min 1).
    pub fn with_replay_recheck_every(mut self, n: usize) -> Self {
        self.replay_recheck_every = n.max(1);
        self
    }

    /// Toggle NUMA-aware replay partitioning (see
    /// [`RuntimeConfig::replay_partitioning`]; off by default). Only
    /// affects `run_iterative` — plain `run` never partitions.
    pub fn with_replay_partitioning(mut self, on: bool) -> Self {
        self.replay_partitioning = on;
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

    /// Set the histogram sampling interval (min 1 = time every task;
    /// rounded up to a power of two).
    pub fn with_metrics_sample(mut self, n: usize) -> Self {
        self.metrics_sample = n.max(1);
        self
    }

    /// Enable the in-run flight recorder: snapshot the registry every
    /// `every` executed tasks (or replay iterations), keeping the last
    /// `capacity` snapshots. `every = 0` disables it.
    pub fn with_flight_recorder(mut self, every: u64, capacity: usize) -> Self {
        self.flight_every = every;
        self.flight_capacity = capacity.max(1);
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
/// operation counters and the zero-queue fast-path counters. Returned by
/// [`Runtime::run_report`]; counters are cumulative across a runtime's
/// lifetime (diff two reports to isolate one run).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Task life-cycle and allocator counters.
    pub stats: RuntimeStats,
    /// Scheduler operation counters (adds, batch adds, pops, pop-cache
    /// hits, lock acquisitions, node-targeted adds).
    pub sched: crate::sched::SchedOpStats,
    /// Per-NUMA-node insertion counters (one entry per node; empty for
    /// schedulers without per-node structures) — the evidence behind the
    /// NUMA-aware replay partitioning claim
    /// (`tests/replay_partition_properties.rs`).
    pub node_stats: Vec<crate::sched::NodeOpStats>,
    /// Task activations that skipped the scheduler queue entirely
    /// (immediate-successor inline runs).
    pub inline_runs: u64,
    /// Longest inline chain observed.
    pub max_inline_depth: u64,
    /// Deepest `taskwait` nesting observed on one worker's stack.
    pub max_taskwait_depth: u64,
}

impl RunReport {
    /// Fraction of queue-or-inline task activations that bypassed the
    /// scheduler queue: `inline_runs / (inline_runs + pops)` (≥ 0.5 on
    /// chain-heavy workloads with the fast path on).
    pub fn queue_bypass_fraction(&self) -> f64 {
        let total = self.inline_runs + self.sched.pops;
        if total == 0 {
            0.0
        } else {
            self.inline_runs as f64 / total as f64
        }
    }
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
    /// stall diagnostic (queue depths, counters, flight snapshot).
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
/// by [`RuntimeConfig::metrics`] and sampled every
/// [`RuntimeConfig::metrics_sample`] tasks per worker.
pub(crate) struct Metrics {
    pub registry: Registry,
    /// Histogram/timestamp gate ([`RuntimeConfig::metrics`]).
    pub enabled: bool,
    /// Sampling mask for the timed paths: `metrics_sample` rounded up to
    /// a power of two, minus one — `tick & mask == 0` selects samples
    /// with an AND instead of a division on the per-task hot path.
    pub sample_mask: u64,
    pub tasks_created: Counter,
    pub tasks_executed: Counter,
    pub tasks_freed: Counter,
    pub live_tasks: Gauge,
    pub inline_runs: Counter,
    pub max_inline_depth: MaxGauge,
    pub max_taskwait_depth: MaxGauge,
    pub inline_routed: Counter,
    pub nested_spawns: Counter,
    /// Task bodies that panicked (caught at the body seam).
    pub tasks_failed: Counter,
    /// Task bodies skipped by failure-propagation cancellation.
    pub tasks_cancelled: Counter,
    /// Stall-watchdog trips.
    pub watchdog_trips: Counter,
    /// Task-body execution time (sampled).
    pub task_exec_ns: Histogram,
    /// Ready-queue wait: scheduler hand-off → body start (sampled).
    pub queue_wait_ns: Histogram,
    /// Ready-task release batch sizes (no clock; recorded when
    /// `enabled`).
    pub release_batch_tasks: Histogram,
    pub flight: FlightRecorder,
    /// Allocator-pressure gauges, published as absolute values from
    /// [`AllocStats`] at snapshot time ([`Runtime::metrics_snapshot`]) so
    /// allocator state appears in the same scrape as the scheduler
    /// counters — no hot-path writes.
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
            sample_mask: (cfg.metrics_sample.max(1) as u64).next_power_of_two() - 1,
            tasks_created: registry.counter("nanotask_tasks_created_total"),
            tasks_executed: registry.counter("nanotask_tasks_executed_total"),
            tasks_freed: registry.counter("nanotask_tasks_freed_total"),
            live_tasks: registry.gauge("nanotask_live_tasks"),
            inline_runs: registry.counter("nanotask_inline_runs_total"),
            max_inline_depth: registry.max_gauge("nanotask_max_inline_depth"),
            max_taskwait_depth: registry.max_gauge("nanotask_max_taskwait_depth"),
            inline_routed: registry.counter("nanotask_inline_routed_total"),
            nested_spawns: registry.counter("nanotask_nested_spawns_total"),
            tasks_failed: registry.counter("nanotask_tasks_failed_total"),
            tasks_cancelled: registry.counter("nanotask_tasks_cancelled_total"),
            watchdog_trips: registry.counter("nanotask_watchdog_trips_total"),
            task_exec_ns: registry.histogram("nanotask_task_exec_ns"),
            queue_wait_ns: registry.histogram("nanotask_queue_wait_ns"),
            release_batch_tasks: registry.histogram("nanotask_release_batch_tasks"),
            flight: if cfg.flight_every > 0 {
                FlightRecorder::new(cfg.flight_every, cfg.flight_capacity.max(1))
            } else {
                FlightRecorder::disabled()
            },
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

    /// Publish an [`AllocStats`] reading into the alloc gauges (absolute
    /// writes; call from snapshot paths only).
    fn publish_alloc(&self, s: &AllocStats) {
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
    /// The realized worker→NUMA-node placement (contiguous blocks over
    /// `cfg.numa_nodes`); every placement-aware layer reads this one map.
    pub topology: crate::platform::Topology,
    pub sched: Arc<dyn Scheduler>,
    pub deps: Arc<dyn DependencySystem>,
    pub alloc: Arc<dyn RuntimeAllocator>,
    /// Recycling free list for `Task` shells, layered on `alloc`:
    /// reclaimed task objects come back with their interior capacity
    /// (decls buffer, bottom map, cold box) instead of round-tripping
    /// through dealloc/alloc on every spawn.
    pub task_slab: TaskSlab,
    pub tracer: Tracer,
    pub noise: Option<NoiseInjector>,
    pub graph: Mutex<Vec<GraphEdge>>,
    /// Dependency-edge recording switch (seeded from `cfg.record_graph`,
    /// toggled at runtime by the replay recorder).
    pub graph_enabled: AtomicBool,
    /// Root-spawn capture hook; `has_capture` is the hot-path fast flag
    /// and `capture_generation` invalidates per-task caches of the Arc
    /// so spawns don't take the mutex on every call.
    pub capture: Mutex<Option<Arc<dyn SpawnCapture>>>,
    pub has_capture: AtomicBool,
    pub capture_generation: AtomicU64,
    pub next_id: AtomicU64,
    pub shutdown: AtomicBool,
    /// Failures recorded since the current run started (drained into
    /// [`RunOutcome::failures`] when it ends).
    pub failures: Mutex<Vec<TaskFailure>>,
    /// Monotone count of task-body failures over the runtime's lifetime
    /// — the cheap per-iteration probe the replay engine reads
    /// ([`TaskCtx::failure_count`]).
    pub failed_count: AtomicU64,
    /// Eligible-body counter of the fault injector (reset per run).
    pub fault_tick: AtomicU64,
    /// Watchdog coordination: whether a fallible run is in flight,
    /// whether the monitor tripped for it, and the stall diagnostic.
    pub run_active: AtomicBool,
    pub watchdog_tripped: AtomicBool,
    pub watchdog_diag: Mutex<String>,
    /// Registry-backed counters, gauges and histograms. The life-cycle
    /// counters (created/executed/freed/live), the fast-path counters
    /// (`inline_runs`, `max_inline_depth`, `inline_routed` — the
    /// partition-routed releases kept inline by
    /// [`TaskCtx::release_held_inline_to`]) and `nested_spawns` (the
    /// nested-task-domain detector the replay engine reads deltas of)
    /// all live here.
    pub metrics: Metrics,
}

impl Shared {
    /// Allocate a task object — as a recycled shell when the slab has
    /// one (re-initialized in place, interior capacity retained), or as
    /// a fresh allocation otherwise.
    ///
    /// # Safety
    /// The returned pointer is valid until handed to [`Shared::free_task`].
    #[allow(clippy::too_many_arguments)]
    unsafe fn alloc_task(
        &self,
        worker: usize,
        id: TaskId,
        label: &'static str,
        parent: *mut Task,
        created_by: u32,
        body: TaskBody,
        decls: Vec<crate::deps::AccessDecl>,
    ) -> *mut Task {
        let (p, recycled) = self.task_slab.acquire(worker);
        let t = p as *mut Task;
        unsafe {
            if recycled {
                (*t).reinit_recycled(id, label, parent, created_by, body, decls);
            } else {
                t.write(Task::new(id, label, parent, created_by, body, decls));
            }
            (*t).level = if parent.is_null() {
                0
            } else {
                (*parent).level + 1
            };
        }
        t
    }

    /// Reclaim a task object and its access array. The shell is cleared
    /// ([`Task::reset_for_recycle`]) and returned to the task slab, not
    /// deallocated.
    ///
    /// # Safety
    /// Called exactly once per task, when its removal refs hit zero.
    unsafe fn free_task(&self, t: *mut Task, worker: usize) {
        self.metrics.tasks_freed.inc(worker);
        self.metrics.live_tasks.dec(worker);
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
    /// Completion-window flag (fast path): while set, dependency-release
    /// `task_ready` callbacks collect into `pending` instead of entering
    /// the scheduler one by one.
    collecting: core::cell::Cell<bool>,
    /// Body-execution flag (fast path): while set, `release_held` defers
    /// released tasks into `pending`; they are handed over (or run
    /// inline) when the executing body's completion window closes.
    defer_held: core::cell::Cell<bool>,
    /// Inline-chain depth of the task currently executing on this worker
    /// (fast path; maintained by `execute_task`). Read by
    /// [`TaskCtx::release_held_inline_to`] to decline inline keeps that
    /// the depth bound would hand to the scheduler anyway — keeping the
    /// `inline_routed` counter equal to releases that actually run
    /// inline.
    inline_depth: core::cell::Cell<usize>,
    /// `taskwait` / `taskwait_on` calls active on this worker's stack
    /// (maintained by [`TaskCtx::help_until`]).
    taskwait_depth: core::cell::Cell<usize>,
    /// Newly-released tasks awaiting one batched scheduler hand-off,
    /// minus at most one kept as the worker's inline next task.
    pending: RefCell<Vec<TaskPtr>>,
    /// Reusable drain buffer `pending` is swapped into during hand-off,
    /// so the hot path never re-allocates per completion.
    scratch: RefCell<Vec<TaskPtr>>,
    /// Metrics sampling cursors (thread-confined): enqueue-side for the
    /// queue-wait stamp, execute-side for the body-time histogram. One
    /// clock read per `metrics_sample` tasks each.
    metrics_enq_tick: core::cell::Cell<u64>,
    metrics_exec_tick: core::cell::Cell<u64>,
}

impl WorkerCtx {
    fn new(id: usize, shared: Arc<Shared>, recorder: CoreRecorder) -> Self {
        Self {
            id,
            shared,
            recorder: RefCell::new(recorder),
            collecting: core::cell::Cell::new(false),
            defer_held: core::cell::Cell::new(false),
            inline_depth: core::cell::Cell::new(0),
            taskwait_depth: core::cell::Cell::new(0),
            pending: RefCell::new(Vec::new()),
            scratch: RefCell::new(Vec::new()),
            metrics_enq_tick: core::cell::Cell::new(0),
            metrics_exec_tick: core::cell::Cell::new(0),
        }
    }

    fn record(&self, kind: EventKind, payload: u64) {
        self.recorder.borrow_mut().record(kind, payload);
    }

    /// Queue-wait sampling, producer side: every `metrics_sample`-th
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
        if tick & m.sample_mask == 0 {
            // `max(1)`: 0 means "never stamped".
            unsafe { (*t).ready_ns = self.shared.tracer.now().max(1) };
        }
    }

    /// Hand `batch` to the scheduler: as one slice when batched release
    /// is enabled, per task otherwise (so the inline-only ablation
    /// measures inline execution alone, not hidden batching).
    fn hand_off(&self, batch: &[TaskPtr]) {
        if batch.is_empty() {
            return;
        }
        let mut rec = self.recorder.borrow_mut();
        if self.shared.cfg.batched_release {
            if self.shared.metrics.enabled {
                self.shared
                    .metrics
                    .release_batch_tasks
                    .record(self.id, batch.len() as u64);
            }
            self.shared
                .sched
                .add_ready_batch(batch, self.id, Some(&mut rec));
        } else {
            for &t in batch {
                self.shared.sched.add_ready(t, self.id, Some(&mut rec));
            }
        }
    }

    /// Hand any deferred/collected ready tasks to the scheduler. Called
    /// before a worker starts waiting (taskwait), so deferred releases
    /// can never deadlock the waiter against its own buffer.
    fn flush_pending(&self) {
        if self.pending.borrow().is_empty() {
            return;
        }
        let mut scratch = self.scratch.borrow_mut();
        std::mem::swap(&mut *self.pending.borrow_mut(), &mut *scratch);
        self.hand_off(&scratch);
        scratch.clear();
    }
}

/// Dependency-system callbacks bound to a worker.
struct Hooks<'a> {
    w: &'a WorkerCtx,
}

unsafe impl DepHooks for Hooks<'_> {
    fn task_ready(&self, task: *mut Task) {
        self.w.stamp_ready(task);
        if self.w.collecting.get() {
            // Fast path, completion window: collect instead of queueing.
            self.w.pending.borrow_mut().push(TaskPtr(task));
            return;
        }
        let mut rec = self.w.recorder.borrow_mut();
        self.w
            .shared
            .sched
            .add_ready(TaskPtr(task), self.w.id, Some(&mut rec));
    }

    fn task_ready_batch(&self, tasks: &[*mut Task]) {
        if tasks.is_empty() {
            return;
        }
        self.w.stamp_ready(tasks[0]);
        if self.w.collecting.get() {
            self.w
                .pending
                .borrow_mut()
                .extend(tasks.iter().map(|&t| TaskPtr(t)));
            return;
        }
        if self.w.shared.cfg.batched_release {
            if self.w.shared.metrics.enabled {
                self.w
                    .shared
                    .metrics
                    .release_batch_tasks
                    .record(self.w.id, tasks.len() as u64);
            }
            // SAFETY: `TaskPtr` is `repr(transparent)` over `*mut Task`.
            let batch: &[TaskPtr] = unsafe {
                core::slice::from_raw_parts(tasks.as_ptr() as *const TaskPtr, tasks.len())
            };
            let mut rec = self.w.recorder.borrow_mut();
            self.w
                .shared
                .sched
                .add_ready_batch(batch, self.w.id, Some(&mut rec));
        } else {
            // Feature disabled: byte-for-byte the pre-batching behavior.
            for &t in tasks {
                self.task_ready(t);
            }
        }
    }

    fn task_free(&self, task: *mut Task) {
        unsafe { self.w.shared.free_task(task, self.w.id) };
    }

    fn edge(&self, from: *mut Task, to: *mut Task, addr: usize, kind: u8) {
        if !self.w.shared.graph_enabled.load(Ordering::Relaxed) {
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

    fn allocator(&self) -> &dyn RuntimeAllocator {
        &*self.w.shared.alloc
    }
}

/// Handle to a running task, passed to every task body. Provides task
/// spawning (nested parallelism), taskwait and reduction-slot access —
/// the library-level OmpSs-2 surface.
/// Generation-stamped cache of the installed spawn capture. A `Cell` so
/// the per-spawn hit path is a take/put move pair with no refcount
/// traffic: the entry is taken out for the duration of the `on_spawn`
/// call and put back afterwards — a re-entrant root spawn (none exist
/// in-tree; captures call `spawn_held`, which skips this path) would
/// find the cell empty and re-fetch from the runtime, which is correct,
/// just slower.
type CaptureCache = core::cell::Cell<Option<(u64, Option<Arc<dyn SpawnCapture>>)>>;

/// `taskwait` nesting depth on one worker at which a waiter stops taking
/// unrelated tasks and runs only its own descendants (see
/// [`TaskCtx::taskwait`]).
const TASKWAIT_NESTING_CAP: usize = 32;

pub struct TaskCtx<'a> {
    task: *mut Task,
    worker: &'a WorkerCtx,
    /// Cached spawn-capture handle (generation-stamped), so repeated
    /// root spawns don't take the capture mutex each time.
    capture_cache: CaptureCache,
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
    pub fn spawn_prioritized(
        &self,
        label: &'static str,
        priority: i32,
        deps: Deps,
        body: impl FnOnce(&TaskCtx) + Send + 'static,
    ) {
        let body: TaskBody = Box::new(body);
        if self.worker.shared.has_capture.load(Ordering::Acquire) {
            if !unsafe { (*self.task).parent.is_null() } {
                // Nested spawn under an installed capture: count it so
                // the replay engine can detect nested task domains.
                self.worker.shared.metrics.nested_spawns.inc(self.worker.id);
            } else {
                return self.spawn_captured(label, priority, deps, body);
            }
        }
        self.spawn_internal(label, priority, deps, body, None);
    }

    /// Offer one root spawn to the installed capture (spawning normally
    /// if none is active). The capture handle is cached per task
    /// context, generation-stamped against [`Runtime::set_spawn_capture`];
    /// the hit path is two atomic loads plus a cell take/put — no
    /// refcount traffic per spawn.
    fn spawn_captured(&self, label: &'static str, priority: i32, deps: Deps, body: TaskBody) {
        let shared = &self.worker.shared;
        let generation = shared.capture_generation.load(Ordering::Acquire);
        let (g, cap) = match self.capture_cache.take() {
            Some((g, cap)) if g == generation => (g, cap),
            _ => (generation, shared.capture.lock().clone()),
        };
        if !cap.as_ref().is_some_and(|c| c.active()) {
            self.capture_cache.set(Some((g, cap)));
            self.spawn_internal(label, priority, deps, body, None);
            return;
        }
        let c = cap.as_ref().expect("active capture");
        if let Some((deps, body)) = c.on_spawn(self, label, priority, deps, body) {
            let id = self.spawn_internal(label, priority, deps, body, None);
            c.on_spawned(id);
        }
        self.capture_cache.set(Some((g, cap)));
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
    /// taken as the already-boxed [`TaskBody`] — together these let a
    /// caller that manages many similar tasks (the replay engine's
    /// steady state) avoid wrapping every body in a fresh closure
    /// allocation per task per iteration.
    pub fn spawn_held(
        &self,
        label: &'static str,
        priority: i32,
        decls: Vec<crate::deps::AccessDecl>,
        body: TaskBody,
        epilogue: Option<(Arc<dyn TaskEpilogue>, u64)>,
    ) -> HeldTask {
        let shared = &self.worker.shared;
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        self.worker.record(EventKind::CreateBegin, id);
        shared.metrics.tasks_created.inc(self.worker.id);
        shared.metrics.live_tasks.inc(self.worker.id);
        let t = unsafe {
            let t = shared.alloc_task(
                self.worker.id,
                id,
                label,
                self.task,
                self.worker.id as u32,
                body,
                decls,
            );
            (*t).priority = priority;
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
            t
        };
        self.worker.record(EventKind::CreateEnd, id);
        HeldTask(t)
    }

    /// Record a marker event on the executing worker's trace stream.
    pub fn trace_mark(&self, kind: EventKind, payload: u64) {
        self.worker.record(kind, payload);
    }

    /// Toggle dependency-edge recording (see
    /// [`Runtime::set_graph_recording`]) from within a task.
    pub fn set_graph_recording(&self, on: bool) {
        self.worker
            .shared
            .graph_enabled
            .store(on, Ordering::Relaxed);
    }

    /// Whether dependency edges are currently being recorded.
    pub fn graph_recording(&self) -> bool {
        self.worker.shared.graph_enabled.load(Ordering::Relaxed)
    }

    /// Drain the recorded dependency edges (the in-task equivalent of
    /// [`Runtime::graph_edges`] + [`Runtime::clear_graph_edges`]).
    pub fn take_graph_edges(&self) -> Vec<GraphEdge> {
        std::mem::take(&mut *self.worker.shared.graph.lock())
    }

    /// Cumulative count of spawns issued by non-root tasks while a spawn
    /// capture was installed (nested task domains). The replay engine
    /// reads deltas of this around record iterations.
    pub fn nested_spawn_count(&self) -> u64 {
        self.worker.shared.metrics.nested_spawns.value()
    }

    /// Whether the current task was cancelled by failure propagation
    /// (its body was skipped; bodies observing this are epilogue-driven
    /// helpers such as the replay engine's per-node hooks).
    pub fn task_cancelled(&self) -> bool {
        unsafe { (*self.task).is_cancelled() }
    }

    /// Monotone count of task-body failures recorded by this runtime.
    /// Snapshot-diff it around a phase to detect failures cheaply (the
    /// replay engine probes this once per iteration).
    pub fn failure_count(&self) -> u64 {
        self.worker.shared.failed_count.load(Ordering::Acquire)
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
    ///
    /// With the zero-queue fast path enabled
    /// ([`RuntimeConfig::inline_successors`] / `batched_release`), a
    /// release issued from a non-root task body is *deferred*: the task
    /// is handed over (in a batch, or run inline as the worker's
    /// immediate successor) when the releasing body completes — this is
    /// how replayed task chains bypass the scheduler entirely. Releases
    /// from the root task, and all releases with the feature disabled,
    /// reach the scheduler immediately.
    pub fn release_held(&self, h: HeldTask) {
        let t = h.0;
        if unsafe { (*t).unblock() } {
            let w = self.worker;
            w.stamp_ready(t);
            if w.defer_held.get() || w.collecting.get() {
                w.pending.borrow_mut().push(TaskPtr(t));
                return;
            }
            let mut rec = w.recorder.borrow_mut();
            w.shared.sched.add_ready(TaskPtr(t), w.id, Some(&mut rec));
        } else {
            debug_assert!(false, "held task released twice");
        }
    }

    /// Release a batch of tasks created by [`TaskCtx::spawn_held`],
    /// handing them to the scheduler *targeted at NUMA node `node`*
    /// ([`crate::sched::Scheduler::add_ready_batch_to`]) — the NUMA-aware
    /// replay partitioning release path: the replay engine knows which
    /// partition each released task belongs to, so the batch goes
    /// straight into that node's add buffer instead of the releasing
    /// worker's home buffer.
    ///
    /// Unlike [`TaskCtx::release_held`], targeted releases are never
    /// deferred by the zero-queue fast path: the whole point is placing
    /// the tasks on their assigned node *now*, and direct insertion
    /// during a task body is always safe (it is the pre-fast-path
    /// behavior). Each handle must be released exactly once.
    pub fn release_held_batch_to(&self, node: usize, tasks: &[HeldTask]) {
        if tasks.is_empty() {
            return;
        }
        for h in tasks {
            let became_ready = unsafe { (*h.0).unblock() };
            debug_assert!(became_ready, "held task released twice");
        }
        let w = self.worker;
        w.stamp_ready(tasks[0].0);
        if w.shared.metrics.enabled {
            w.shared
                .metrics
                .release_batch_tasks
                .record(w.id, tasks.len() as u64);
        }
        // SAFETY: `HeldTask` and `TaskPtr` are both `repr(transparent)`
        // over `*mut Task`.
        let batch: &[TaskPtr] =
            unsafe { core::slice::from_raw_parts(tasks.as_ptr() as *const TaskPtr, tasks.len()) };
        let mut rec = w.recorder.borrow_mut();
        w.shared
            .sched
            .add_ready_batch_to(node, batch, w.id, Some(&mut rec));
    }

    /// Try to keep one node-targeted held-task release as this worker's
    /// *inline* next task instead of inserting it into node `node`'s
    /// queue — the composition of the zero-queue fast path with the
    /// NUMA-aware replay partitioning: when the released task's assigned
    /// node is the releasing worker's own node, running it inline
    /// preserves the static schedule's placement *and* skips the queue
    /// round-trip (dependence locality composes with partition locality
    /// instead of bypassing it).
    ///
    /// Returns `true` when the task was taken (released exactly like
    /// [`TaskCtx::release_held`] in deferred mode: it becomes the
    /// worker's inline next task when the executing body's completion
    /// window closes — the caller offers at most one candidate per
    /// completion, so acceptance here means the task runs inline and
    /// the `inline_routed` counter is exact). Returns `false` — and
    /// does **not** release the handle — when the fast path is off, the
    /// caller is the root task (whose releases must reach the other
    /// workers eagerly), the inline depth bound has been reached (the
    /// completion window would hand the task to the scheduler anyway),
    /// or `node` is not this worker's node; the caller then routes the
    /// task normally ([`TaskCtx::release_held_batch_to`]).
    pub fn release_held_inline_to(&self, node: usize, h: HeldTask) -> bool {
        let w = self.worker;
        if !w.shared.cfg.inline_successors || !w.defer_held.get() {
            return false;
        }
        if w.inline_depth.get() >= w.shared.cfg.inline_max_depth {
            return false;
        }
        if w.shared.topology.node_of(w.id) != node {
            return false;
        }
        self.release_held(h);
        w.shared.metrics.inline_routed.inc(w.id);
        true
    }

    /// OmpSs-2 `taskwait on(...)`: block until every earlier task whose
    /// accesses conflict with `deps` has completed — without waiting for
    /// unrelated children. Implemented exactly as the model defines it: an
    /// empty child task carrying `deps` is inserted into the dependency
    /// system and the worker helps execute ready tasks until it runs, in
    /// the order and under the nesting cap of [`TaskCtx::taskwait`].
    pub fn taskwait_on(&self, deps: Deps) {
        // Deferred releases must be visible to the scheduler before this
        // worker starts waiting on them.
        self.worker.flush_pending();
        let task = unsafe { &*self.task };
        self.worker.record(EventKind::TaskwaitBegin, task.id);
        let done = Arc::new(AtomicBool::new(false));
        self.spawn_internal(
            "taskwait_on",
            i32::MAX,
            deps,
            Box::new(|_| {}),
            Some(Arc::clone(&done)),
        );
        self.help_until(|| done.load(Ordering::Acquire));
        self.worker.record(EventKind::TaskwaitEnd, task.id);
    }

    fn spawn_internal(
        &self,
        label: &'static str,
        priority: i32,
        deps: Deps,
        body: crate::task::TaskBody,
        completion: Option<Arc<AtomicBool>>,
    ) -> TaskId {
        let shared = &self.worker.shared;
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        self.worker.record(EventKind::CreateBegin, id);
        shared.metrics.tasks_created.inc(self.worker.id);
        shared.metrics.live_tasks.inc(self.worker.id);

        unsafe {
            let t = shared.alloc_task(
                self.worker.id,
                id,
                label,
                self.task,
                self.worker.id as u32,
                body,
                deps.into_decls(),
            );
            (*t).priority = priority;
            if let Some(flag) = completion {
                (*t).set_completion_flag(flag);
            }
            (*self.task).add_child();
            let hooks = Hooks { w: self.worker };
            shared.deps.register(t, &hooks);
            if (*t).unblock() {
                hooks.task_ready(t);
            }
        }
        self.worker.record(EventKind::CreateEnd, id);
        id
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
    /// `T`'s waiter even at the cap (a capped waiter searches the whole
    /// queue and first hands its private pop cache back to it). A running
    /// one started after `T` and sits on some worker's stack below that
    /// worker's innermost wait, which started after it. Following "my
    /// descendant runs below your innermost wait" from waiter to waiter
    /// therefore strictly increases start times and cannot cycle: the
    /// innermost wait that started last always has a queued descendant
    /// or none left.
    pub fn taskwait(&self) {
        // Deferred releases must be visible to the scheduler before this
        // worker starts waiting on them (they may be the very children
        // the taskwait is for).
        self.worker.flush_pending();
        let task = unsafe { &*self.task };
        if task.pending_children() <= 1 {
            return;
        }
        self.worker.record(EventKind::TaskwaitBegin, task.id);
        self.help_until(|| task.pending_children() <= 1);
        self.worker.record(EventKind::TaskwaitEnd, task.id);
    }

    /// The work-assisting wait loop shared by [`TaskCtx::taskwait`] and
    /// [`TaskCtx::taskwait_on`]: run tasks in this task's scope until
    /// `done`, accounting the worker's nesting depth.
    fn help_until(&self, done: impl Fn() -> bool) {
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
        // SAFETY: `self.task` is the task running this wait.
        let scope = if unsafe { (*self.task).parent.is_null() } {
            Scope::ANY
        } else {
            Scope::within(self.task, depth >= TASKWAIT_NESTING_CAP)
        };
        let mut backoff = Backoff::new();
        while !done() {
            let got = {
                let mut rec = w.recorder.borrow_mut();
                w.shared.sched.get_ready_within(w.id, scope, Some(&mut rec))
            };
            match got {
                Some(t) => {
                    execute_task(w, t.0);
                    backoff.reset();
                }
                None => backoff.snooze(),
            }
            if let Some(noise) = &w.shared.noise {
                let mut rec = w.recorder.borrow_mut();
                noise.check(w.id as u16, &mut rec);
            }
        }
        w.taskwait_depth.set(depth - 1);
    }

    /// The private reduction slot of the current worker for the reduction
    /// access declared on `target`. Panics if this task has no reduction
    /// access on that address.
    pub fn red_slot<T>(&self, target: &T) -> *mut T {
        let addr = target as *const T as usize;
        let task = unsafe { &*self.task };
        let decls = unsafe { task.decls() };
        let d = decls
            .iter()
            .find(|d| d.addr == addr && d.mode.is_reduction())
            .expect("no reduction access declared on this address");
        // Invariant (not user-reachable): a body only runs after
        // `register` attached `ReductionInfo` to every reduction decl.
        let info = d
            .reduction
            .as_ref()
            .expect("reduction info not attached (task not registered?)");
        unsafe { info.slot(self.worker.id) as *mut T }
    }
}

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
/// through the dependency system) and bump the failure counters.
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
    // AcqRel: a `failure_count` reader that observes this increment also
    // observes the failure record and the cancelled bit.
    w.shared.failed_count.fetch_add(1, Ordering::AcqRel);
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
        let sampled = tick & m.sample_mask == 0;
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
        let ctx = TaskCtx {
            task: t,
            worker: w,
            capture_cache: core::cell::Cell::new(None),
        };
        let body = unsafe { (*t).take_body() }.expect("task executed twice");
        if unsafe { (*t).is_cancelled() } {
            // Cancelled by failure propagation: skip the body (dropping
            // it releases its captured state) but still run the epilogue
            // and, in the caller, the full completion protocol — the
            // graph must drain cleanly, only the work is skipped.
            drop(body);
            m.tasks_cancelled.inc(w.id);
        } else if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(plan) = &w.shared.cfg.fault_plan {
                maybe_inject_fault(w, t, plan);
            }
            body(&ctx);
        })) {
            record_body_failure(w, t, payload);
        }
        // SAFETY: only the executing worker touches the epilogue after
        // publication (same confinement as `take_body`). The epilogue
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
    m.flight.tick(&m.registry);
}

/// Pick the task to keep as the worker's inline next task: the first one
/// this completion released (its immediate successor), or — under the
/// priority policy — the highest-priority one (FIFO among equals).
fn pick_inline(pending: &mut Vec<TaskPtr>, policy: Policy) -> TaskPtr {
    let idx = match policy {
        Policy::Priority => pending
            .iter()
            .enumerate()
            .max_by_key(|(i, t)| (unsafe { (*t.0).priority }, core::cmp::Reverse(*i)))
            .map(|(i, _)| i)
            .unwrap_or(0),
        _ => 0,
    };
    pending.remove(idx)
}

/// Execute a task body and run the completion protocol.
///
/// With the zero-queue fast path enabled
/// ([`RuntimeConfig::inline_successors`] / `batched_release`), every
/// successor released by the completion is collected; one is kept and run
/// inline on this worker (hot cache, no queue, no lock — the
/// immediate-successor chain, bounded by `inline_max_depth`), the rest
/// are handed to the scheduler as a single batch.
fn execute_task(w: &WorkerCtx, t: *mut Task) {
    let shared = &w.shared;
    let inline_on = shared.cfg.inline_successors;
    if !inline_on && !shared.cfg.batched_release {
        // Feature off: the exact pre-fast-path protocol.
        run_body(w, t);
        let hooks = Hooks { w };
        unsafe {
            shared.deps.body_done(t, &hooks);
            if (*t).drop_child_ref() {
                finish_subtree(w, t);
            }
        }
        return;
    }

    let mut t = t;
    let mut depth: usize = 0;
    let saved_defer = w.defer_held.get();
    let saved_depth = w.inline_depth.get();
    loop {
        // Held-task releases issued by this body become inline/batch
        // candidates — except from the root task, whose spawn-phase
        // releases must reach the other workers eagerly.
        w.defer_held.set(!unsafe { (*t).parent.is_null() });
        w.inline_depth.set(depth);
        run_body(w, t);
        w.defer_held.set(saved_defer);
        w.inline_depth.set(saved_depth);

        // Completion window: collect every task this completion releases.
        w.collecting.set(true);
        let hooks = Hooks { w };
        unsafe {
            shared.deps.body_done(t, &hooks);
            if (*t).drop_child_ref() {
                finish_subtree(w, t);
            }
        }
        w.collecting.set(false);

        let mut next = None;
        {
            let mut scratch = w.scratch.borrow_mut();
            {
                let mut pending = w.pending.borrow_mut();
                if inline_on && depth < shared.cfg.inline_max_depth && !pending.is_empty() {
                    next = Some(pick_inline(&mut pending, shared.cfg.policy));
                }
                std::mem::swap(&mut *pending, &mut *scratch);
            }
            w.hand_off(&scratch);
            scratch.clear();
        }
        match next {
            Some(nt) => {
                depth += 1;
                shared.metrics.inline_runs.inc(w.id);
                shared.metrics.max_inline_depth.record(w.id, depth as u64);
                w.record(EventKind::InlineRun, unsafe { (*nt.0).id });
                if let Some(noise) = &shared.noise {
                    let mut rec = w.recorder.borrow_mut();
                    noise.check(w.id as u16, &mut rec);
                }
                t = nt.0;
            }
            None => break,
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
        // Signal external waiters before the memory can be reclaimed.
        if let Some(flag) = (*t).completion_flag() {
            let flag = Arc::clone(flag);
            flag.store(true, Ordering::Release);
        }
        if (*t).drop_removal_ref() {
            w.shared.free_task(t, w.id);
        }
        if !parent.is_null() && (*parent).drop_child_ref() {
            finish_subtree(w, parent);
        }
    }
}

/// Build the stall diagnostic the watchdog attaches to its
/// [`FailureKind::WatchdogStall`] failure: life-cycle counters,
/// per-scheduler queue depths and the flight-recorder tail.
fn build_stall_diagnostic(shared: &Shared) -> String {
    let m = &shared.metrics;
    let mut s = format!(
        "stall: {} live task(s), {} executed, {} created, {} freed, {} failed; \
         scheduler ~{} queued",
        m.live_tasks.value(),
        m.tasks_executed.value(),
        m.tasks_created.value(),
        m.tasks_freed.value(),
        m.tasks_failed.value(),
        shared.sched.approx_len(),
    );
    let nodes = shared.sched.node_stats();
    if !nodes.is_empty() {
        s.push_str(&format!("; node stats {nodes:?}"));
    }
    let frames = m.flight.frames();
    if let Some(last) = frames.last() {
        s.push_str(&format!(
            "; flight[{} frame(s), last @tick {}]",
            frames.len(),
            last.tick
        ));
    }
    s
}

/// Stall-watchdog monitor loop ([`RuntimeConfig::watchdog`]): while a
/// fallible run is active, trip when tasks are live but the executed
/// counter has not moved for the configured window. Tripping records a
/// diagnostic and raises `watchdog_tripped`; the run's poll loop turns
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
            || shared.metrics.live_tasks.value() == 0
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
            cfg.spsc_capacity,
            cfg.pop_cache,
            Some(&metrics.registry),
        );
        let deps = make_deps(cfg.deps);
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
        let topology = crate::platform::Topology::contiguous(cfg.workers, cfg.numa_nodes);
        let shared = Arc::new(Shared {
            topology,
            sched,
            deps,
            alloc,
            task_slab,
            tracer: tracer.clone(),
            noise,
            graph: Mutex::new(Vec::new()),
            graph_enabled: AtomicBool::new(cfg.record_graph),
            capture: Mutex::new(None),
            has_capture: AtomicBool::new(false),
            capture_generation: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            failures: Mutex::new(Vec::new()),
            failed_count: AtomicU64::new(0),
            fault_tick: AtomicU64::new(0),
            run_active: AtomicBool::new(false),
            watchdog_tripped: AtomicBool::new(false),
            watchdog_diag: Mutex::new(String::new()),
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
        if shared.failed_count.load(Ordering::Acquire) > 0 {
            // A previous run failed: clear run-scoped poison state so
            // this run starts clean (no-op on the wait-free system).
            shared.deps.reset_faults();
        }
        shared.fault_tick.store(0, Ordering::Relaxed);
        shared.watchdog_tripped.store(false, Ordering::Release);
        let cancelled0 = shared.metrics.tasks_cancelled.value();
        shared.run_active.store(true, Ordering::Release);
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        shared.metrics.tasks_created.inc(0);
        shared.metrics.live_tasks.inc(0);
        let done = Arc::new(AtomicBool::new(false));
        let t = unsafe {
            let t = shared.alloc_task(
                0,
                id,
                "root",
                core::ptr::null_mut(),
                0,
                Box::new(root),
                vec![],
            );
            (*t).set_completion_flag(Arc::clone(&done));
            t
        };
        // The root has no dependencies: execute it right away on this
        // thread, then help until its subtree completes. The completion
        // flag lives outside task memory, so polling it races with
        // nothing even after the task object is reclaimed.
        execute_task(&self.main, t);
        let mut backoff = Backoff::new();
        let mut stalled = false;
        while !done.load(Ordering::Acquire) {
            if shared.watchdog_tripped.load(Ordering::Acquire) {
                // Stuck graph: abandon it (its tasks cannot drain by
                // definition of the trip) and fail the run instead of
                // hanging forever.
                stalled = true;
                break;
            }
            let got = {
                let mut rec = self.main.recorder.borrow_mut();
                shared.sched.get_ready(0, Some(&mut rec))
            };
            match got {
                Some(task) => {
                    execute_task(&self.main, task.0);
                    backoff.reset();
                }
                None => backoff.snooze(),
            }
            if let Some(noise) = &shared.noise {
                let mut rec = self.main.recorder.borrow_mut();
                noise.check(0, &mut rec);
            }
        }
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

    /// The realized worker→NUMA-node placement of this runtime.
    pub fn topology(&self) -> &crate::platform::Topology {
        &self.shared.topology
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
            deps_deliveries: self.shared.deps.delivery_stats(),
        }
    }

    /// Task spawns served as recycled shells from the task slab
    /// (monotone).
    pub fn tasks_recycled(&self) -> u64 {
        self.shared.task_slab.stats().recycled
    }

    /// High-water mark of task-object memory: peak simultaneously live
    /// tasks × task-shell size (headers only; interior capacity such as
    /// decls buffers is owned by the shells and recycled with them).
    pub fn peak_task_bytes(&self) -> u64 {
        self.shared.task_slab.stats().peak_live * core::mem::size_of::<Task>() as u64
    }

    /// Aggregate counters plus scheduler-operation and fast-path
    /// counters — the machine-checkable evidence behind perf claims.
    pub fn run_report(&self) -> RunReport {
        let m = &self.shared.metrics;
        let mut sched = self.shared.sched.op_stats();
        // Runtime-side counter folded into the scheduler snapshot: the
        // scheduler never sees an inline-kept routed release (that is
        // the point), so it cannot count them itself.
        sched.inline_routed = m.inline_routed.value();
        RunReport {
            stats: self.stats(),
            sched,
            node_stats: self.shared.sched.node_stats(),
            inline_runs: m.inline_runs.value(),
            max_inline_depth: m.max_inline_depth.value(),
            max_taskwait_depth: m.max_taskwait_depth.value(),
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
    /// current allocator pressure ([`AllocStats`], including task-slab
    /// recycling) into the alloc gauges first, so one scrape carries
    /// scheduler counters and allocator state together.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.shared.metrics.publish_alloc(&self.stats().alloc);
        self.shared.metrics.registry.snapshot()
    }

    /// Whether the sampled latency histograms are live
    /// ([`RuntimeConfig::metrics`]).
    pub fn metrics_enabled(&self) -> bool {
        self.shared.metrics.enabled
    }

    /// Flight-recorder contents, oldest first (empty when
    /// [`RuntimeConfig::flight_every`] is 0).
    pub fn flight_frames(&self) -> Vec<FlightFrame> {
        self.shared.metrics.flight.frames()
    }

    /// Collect the trace recorded so far (call between/after `run`s; only
    /// flushed events appear — workers flush when idle).
    pub fn trace(&self) -> Trace {
        self.shared.tracer.finish()
    }

    /// Drain the recorded dependency edges (requires `record_graph` or
    /// [`Runtime::set_graph_recording`]). Takes the accumulated edges out
    /// instead of cloning the whole `Vec` under the mutex; a second call
    /// without new recording returns an empty list.
    pub fn graph_edges(&self) -> Vec<GraphEdge> {
        std::mem::take(&mut *self.shared.graph.lock())
    }

    /// Turn dependency-edge recording on or off at runtime (the replay
    /// recorder instruments exactly one iteration this way).
    pub fn set_graph_recording(&self, on: bool) {
        self.shared.graph_enabled.store(on, Ordering::Relaxed);
    }

    /// Whether dependency edges are currently being recorded.
    pub fn graph_recording(&self) -> bool {
        self.shared.graph_enabled.load(Ordering::Relaxed)
    }

    /// Install (or clear) the root-spawn capture hook. See
    /// [`SpawnCapture`] for the contract.
    pub fn set_spawn_capture(&self, cap: Option<Arc<dyn SpawnCapture>>) {
        let has = cap.is_some();
        *self.shared.capture.lock() = cap;
        self.shared
            .capture_generation
            .fetch_add(1, Ordering::Release);
        self.shared.has_capture.store(has, Ordering::Release);
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

    /// Number of task objects currently alive (diagnostics; 0 after all
    /// runs completed and chains were closed).
    pub fn live_tasks(&self) -> usize {
        self.shared.metrics.live_tasks.value() as usize
    }

    /// Cumulative nested-spawn count (see [`TaskCtx::nested_spawn_count`]).
    pub fn nested_spawn_count(&self) -> u64 {
        self.shared.metrics.nested_spawns.value()
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
                self.shared.failed_count.fetch_add(1, Ordering::AcqRel);
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

    fn small(cfg: RuntimeConfig) -> Runtime {
        Runtime::new(cfg.workers(3))
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
    fn fast_path_runs_chains_inline() {
        // A pure readwrite chain: with the fast path on, every activation
        // after the head should bypass the queue.
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2).fast_path(true));
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = crate::SendPtr::new(data);
        rt.run(move |ctx| {
            for _ in 0..100 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        assert_eq!(unsafe { *data }, 100);
        let report = rt.run_report();
        assert!(
            report.inline_runs >= 50,
            "chain mostly ran inline: {report:?}"
        );
        assert!(report.max_inline_depth <= 64);
        assert_eq!(rt.live_tasks(), 0, "fast path leaks no tasks");
        unsafe { drop(Box::from_raw(data)) };
    }

    #[test]
    fn fast_path_correct_on_all_ablations_and_knob_combos() {
        for base in RuntimeConfig::ablations() {
            for (inline, batch) in [(true, false), (false, true), (true, true)] {
                let label = base.label;
                let rt = Runtime::new(
                    base.clone()
                        .workers(3)
                        .with_inline_successors(inline)
                        .with_batched_release(batch)
                        .with_pop_cache(2),
                );
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
                    // Independent tasks too (batch-released by register).
                    for _ in 0..10 {
                        let c2 = Arc::clone(&c);
                        ctx.spawn(Deps::new(), move |_| {
                            c2.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
                assert_eq!(
                    count.load(Ordering::Relaxed),
                    50,
                    "{label} inline={inline} batch={batch}"
                );
                assert_eq!(unsafe { *data }, 40, "{label}");
                assert_eq!(rt.live_tasks(), 0, "{label}");
                if !batch {
                    // The inline-only ablation must not batch covertly.
                    assert_eq!(
                        rt.run_report().sched.batch_adds,
                        0,
                        "{label} inline={inline}: no batches with batched_release off"
                    );
                }
                unsafe { drop(Box::from_raw(data)) };
            }
        }
    }

    #[test]
    fn inline_depth_bound_is_respected() {
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(1)
                .fast_path(true)
                .with_inline_max_depth(4),
        );
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = crate::SendPtr::new(data);
        rt.run(move |ctx| {
            for _ in 0..64 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        assert_eq!(unsafe { *data }, 64);
        let report = rt.run_report();
        assert!(report.inline_runs > 0, "fast path engaged");
        assert!(
            report.max_inline_depth <= 4,
            "depth bound violated: {}",
            report.max_inline_depth
        );
        assert!(
            report.sched.pops > 0,
            "bounded chains must return to the scheduler"
        );
        unsafe { drop(Box::from_raw(data)) };
    }

    #[test]
    fn taskwait_progresses_under_inline_chains() {
        // The depth bound guarantees a task-waiting worker re-checks its
        // condition at bounded intervals even when every completion keeps
        // releasing an inline-able successor. A tiny bound + a single
        // worker is the worst case: the root's taskwait must still return.
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(1)
                .fast_path(true)
                .with_inline_max_depth(2),
        );
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = crate::SendPtr::new(data);
        let observed = Arc::new(TestAtomicU64::new(0));
        let o = Arc::clone(&observed);
        rt.run(move |ctx| {
            for _ in 0..500 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
            ctx.taskwait();
            o.store(unsafe { *p.get() }, Ordering::SeqCst);
        });
        assert_eq!(
            observed.load(Ordering::SeqCst),
            500,
            "taskwait saw every chained child complete"
        );
        unsafe { drop(Box::from_raw(data)) };
    }

    #[test]
    fn fast_path_respects_priority_pick() {
        // Inline pick under the priority policy keeps the highest-priority
        // released task; the rest still execute.
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(2)
                .fast_path(true)
                .with_policy(crate::sched::Policy::Priority),
        );
        let count = Arc::new(TestAtomicU64::new(0));
        let c = Arc::clone(&count);
        rt.run(move |ctx| {
            for i in 0..100 {
                let c = Arc::clone(&c);
                ctx.spawn_prioritized("p", i % 5, Deps::new(), move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn fast_path_reductions_and_taskwait_on() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3).fast_path(true));
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
            ctx.taskwait_on(Deps::new().read_addr(p.addr()));
            assert_eq!(unsafe { *p.get() }, 528.0);
        });
        assert_eq!(unsafe { *acc }, 528.0);
        unsafe { drop(Box::from_raw(acc)) };
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
        assert_eq!(report.inline_runs, 0, "fast path off by default");
        assert_eq!(report.sched.batch_adds, 0, "no batches with feature off");
        assert_eq!(report.sched.adds, 20);
        assert_eq!(report.sched.pops, 20);
        assert_eq!(report.queue_bypass_fraction(), 0.0);
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
            let _stuck = ctx.spawn_held("stuck", 0, vec![], Box::new(|_| {}), None);
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
}
