//! Every call the benchmark makes into the workspace goes through this
//! file, and only through public items: the benchmark measures each layer
//! from outside. When a public API changes, this is the one file of the
//! benchmark that follows it.
//!
//! The wrappers are `#[inline]` and add no work of their own, so a span
//! around `spawn_rw` times `TaskCtx::spawn` and nothing else.

use core::alloc::Layout;
use std::sync::Arc;

use nanotask_alloc::{AllocatorKind, RuntimeAllocator, TaskSlab, make_allocator};
use nanotask_core::sched::{LockKind, Policy, SchedKind, Scheduler, TaskPtr, WsVariant};
use nanotask_core::{AccessDecl, AccessMode, Deps, RedOp, RuntimeConfig};
use nanotask_locks::{DtLock, PtLock, RawLock, TicketLock};
use nanotask_replay::{CapturedSpawn, Partitioning, ReplayGraph, ReplayReport, RunIterative};
use nanotask_workloads::cholesky::Cholesky;
use nanotask_workloads::heat::Heat;
use nanotask_workloads::miniamr::MiniAmr;
use nanotask_workloads::{IterativeWorkload, kernels};

pub type Rt = nanotask_core::Runtime;
pub type Ctx<'a> = nanotask_core::TaskCtx<'a>;

// ---------------------------------------------------------------- runtime

/// The measured preset: `RuntimeConfig::optimized()` with no fast-path or
/// partitioning knobs, the paper's "optimized" curve.
pub fn new_runtime(workers: usize) -> Rt {
    Rt::new(RuntimeConfig::optimized().workers(workers))
}

/// The locking-dependency ablation, for the `deps.locking_*` probes.
pub fn new_runtime_locking_deps(workers: usize) -> Rt {
    Rt::new(RuntimeConfig::without_waitfree_deps().workers(workers))
}

#[inline]
pub fn run(rt: &Rt, root: impl FnOnce(&Ctx) + Send + 'static) {
    rt.run(root);
}

/// `iters` iterations of `body` under record & replay; returns the
/// engine's report as `replay_*` counts.
pub fn run_replayed(rt: &Rt, iters: usize, body: impl Fn(&Ctx) + Send + Sync + 'static) -> Counts {
    Counts::of_replay(&rt.run_iterative(iters, body))
}

#[inline]
pub fn spawn_free(ctx: &Ctx, body: impl FnOnce(&Ctx) + Send + 'static) {
    ctx.spawn(Deps::new(), body);
}

#[inline]
pub fn spawn_rw(ctx: &Ctx, addr: usize, body: impl FnOnce(&Ctx) + Send + 'static) {
    ctx.spawn(Deps::new().readwrite_addr(addr), body);
}

#[inline]
pub fn spawn_read(ctx: &Ctx, addr: usize, body: impl FnOnce(&Ctx) + Send + 'static) {
    ctx.spawn(Deps::new().read_addr(addr), body);
}

/// Heat's access set: `inout(own) in(neighbours...) reduction(+: sum)`.
#[inline]
pub fn spawn_stencil(
    ctx: &Ctx,
    own: usize,
    neighbours: &[usize],
    sum_addr: usize,
    body: impl FnOnce(&Ctx) + Send + 'static,
) {
    let mut deps = Deps::new()
        .readwrite_addr(own)
        .reduce_addr(sum_addr, 8, RedOp::SumF64);
    for &n in neighbours {
        deps = deps.read_addr(n);
    }
    ctx.spawn(deps, body);
}

/// Add `v` to this worker's private slot of the `f64` sum reduction the
/// running task declared on the 8 live, aligned bytes at `sum_addr`.
#[inline]
pub fn reduce_add(ctx: &Ctx, sum_addr: usize, v: f64) {
    // SAFETY: `red_slot` only takes the target's address to find the
    // declared reduction and returns this worker's private slot, valid
    // while the declaring task runs; no other thread uses that slot.
    unsafe { *ctx.red_slot(&*(sum_addr as *const f64)) += v };
}

#[inline]
pub fn taskwait(ctx: &Ctx) {
    ctx.taskwait();
}

#[inline]
pub fn worker_id(ctx: &Ctx) -> usize {
    ctx.worker_id()
}

pub fn snapshot_metrics(rt: &Rt) -> usize {
    rt.metrics_snapshot().entries.len()
}

/// Named public counters, flattened. The runtime's are cumulative (diff
/// two readings to isolate the timed window); the replay engine reports
/// per call (sum the calls of a window).
#[derive(Debug, Clone, Default)]
pub struct Counts(Vec<(&'static str, u64)>);

/// Readings that are levels, not running totals: never diffed or summed.
const LEVELS: [&str; 3] = [
    "peak_live_tasks",
    "replay_graph_tasks",
    "replay_graph_bytes",
];

impl Counts {
    /// `Runtime::run_report`: task life cycle, dependency deliveries,
    /// scheduler operations, allocator and slab pressure.
    pub fn of_runtime(rt: &Rt) -> Self {
        let r = rt.run_report();
        let (dep_accesses, dep_deliveries, dep_duplicates) = r.stats.deps_deliveries;
        Self(vec![
            ("tasks_created", r.stats.tasks_created),
            ("tasks_executed", r.stats.tasks_executed),
            ("dep_accesses", dep_accesses),
            ("dep_deliveries", dep_deliveries),
            ("dep_duplicates", dep_duplicates),
            ("sched_adds", r.sched.adds),
            ("sched_batch_tasks", r.sched.batch_tasks),
            ("sched_pops", r.sched.pops),
            ("sched_pop_cache_hits", r.sched.pop_cache_hits),
            ("sched_lock_acquisitions", r.sched.lock_acquisitions),
            ("pool_hits", r.stats.alloc.pool_hits),
            ("pool_misses", r.stats.alloc.pool_misses),
            ("slab_recycled", r.stats.alloc.recycle_hits),
            ("slab_fresh", r.stats.alloc.recycle_misses),
            ("peak_live_tasks", r.stats.alloc.peak_live_tasks),
            ("inline_runs", r.inline_runs),
        ])
    }

    fn of_replay(r: &ReplayReport) -> Self {
        Self(vec![
            ("replay_iterations", r.iterations as u64),
            ("replay_replayed", r.replayed as u64),
            ("replay_cache_hits", r.cache_hits as u64),
            ("replay_cache_misses", r.cache_misses as u64),
            ("replay_rerecords", r.rerecords as u64),
            ("replay_routed_releases", r.routed_releases),
            ("replay_freeze_ns", r.freeze_ns),
            ("replay_graph_tasks", r.tasks as u64),
            ("replay_graph_bytes", r.graph_bytes),
        ])
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    pub fn entries(&self) -> &[(&'static str, u64)] {
        &self.0
    }

    /// What happened between the `earlier` reading and this one.
    pub fn since(&self, earlier: &Self) -> Self {
        Self(
            self.0
                .iter()
                .map(|&(n, v)| match LEVELS.contains(&n) {
                    true => (n, v),
                    false => (n, v - earlier.get(n)),
                })
                .collect(),
        )
    }

    /// Fold another window's counts into this one.
    pub fn absorb(&mut self, other: &Self) {
        for &(n, v) in &other.0 {
            match self.0.iter_mut().find(|(m, _)| *m == n) {
                Some(slot) if LEVELS.contains(&n) => slot.1 = v,
                Some(slot) => slot.1 += v,
                None => self.0.push((n, v)),
            }
        }
    }
}

// ------------------------------------------------------ library workloads

/// One of the paper's applications at a pinned problem size, driven
/// through `Workload::run` or `IterativeWorkload::run_replay_report`.
pub struct Library {
    app: Box<dyn IterativeWorkload>,
    block: usize,
    replay: bool,
    runs_per_rep: usize,
}

impl Library {
    /// Heat 256², `bs` 8, 32 steps: 32 768 tasks per rep.
    pub fn heat(replay: bool) -> Self {
        Self {
            app: Box::new(Heat::new(4).with_steps(32)),
            block: 8,
            replay,
            runs_per_rep: 1,
        }
    }

    /// miniAMR scale 4, `bs` 32, 256 phases under replay.
    pub fn amr_replay() -> Self {
        let mut app = MiniAmr::new(4);
        app.set_iterations(256);
        Self {
            app: Box::new(app),
            block: 32,
            replay: true,
            runs_per_rep: 1,
        }
    }

    /// Cholesky 512², `bs` 64: 120 coarse tasks, 8 factorizations a rep.
    pub fn cholesky_coarse() -> Self {
        Self {
            app: Box::new(Cholesky::new(8)),
            block: 64,
            replay: false,
            runs_per_rep: 8,
        }
    }

    /// One rep; returns the replay engine's counts (empty without replay).
    pub fn rep(&mut self, rt: &Rt) -> Counts {
        let mut total = Counts::default();
        for _ in 0..self.runs_per_rep {
            if self.replay {
                total.absorb(&Counts::of_replay(
                    &self.app.run_replay_report(rt, self.block),
                ));
            } else {
                self.app.run(rt, self.block);
            }
        }
        total
    }

    pub fn runs_per_rep(&self) -> u64 {
        self.runs_per_rep as u64
    }

    pub fn verify(&self) -> Result<(), String> {
        self.app.verify()
    }
}

// ------------------------------------------------------- scheduler probes

#[derive(Debug, Clone, Copy)]
pub enum SchedProbe {
    Delegation,
    CentralPtLock,
    WorkSteal,
}

/// A standalone scheduler built through the public factory. Tasks are
/// opaque tokens: the scheduler never dereferences what it queues.
pub struct Sched(Arc<dyn Scheduler>);

impl Sched {
    pub fn new(kind: SchedProbe, workers: usize) -> Self {
        let kind = match kind {
            SchedProbe::Delegation => SchedKind::Delegation,
            SchedProbe::CentralPtLock => SchedKind::Central(LockKind::PtLock),
            SchedProbe::WorkSteal => SchedKind::WorkSteal(WsVariant::LifoLocal),
        };
        Self(nanotask_core::sched::make_scheduler(
            kind,
            workers,
            1,
            Policy::Fifo,
            100,
            0,
            None,
        ))
    }

    fn token(i: usize) -> TaskPtr {
        TaskPtr(((i + 1) << 4) as *mut _)
    }

    #[inline]
    pub fn add(&self, i: usize, worker: usize) {
        self.0.add_ready(Self::token(i), worker, None);
    }

    pub fn add_batch(&self, first: usize, n: usize, worker: usize) {
        let batch: Vec<TaskPtr> = (first..first + n).map(Self::token).collect();
        self.0.add_ready_batch(&batch, worker, None);
    }

    #[inline]
    pub fn get(&self, worker: usize) -> bool {
        self.0.get_ready(worker, None).is_some()
    }
}

// ------------------------------------------------------- allocator probes

#[derive(Debug, Clone, Copy)]
pub enum AllocProbe {
    Pool,
    Serialized,
}

/// Task-object sized blocks (≈ the runtime's task shell).
fn task_layout() -> Layout {
    Layout::from_size_align(192, 8).expect("192 B at 8 B alignment is a valid layout")
}

#[derive(Clone)]
pub struct Alloc(Arc<dyn RuntimeAllocator>);

/// A block handed out by [`Alloc::alloc`]; `Send` so the remote-free probe
/// can free it on another thread, as a worker frees a task another spawned.
pub struct Block(*mut u8);
// SAFETY: a block is plain owned memory; the allocators accept frees from
// any thread (that cross-thread path is exactly what the probe measures).
unsafe impl Send for Block {}

impl Alloc {
    pub fn new(kind: AllocProbe, threads: usize) -> Self {
        Self(make_allocator(
            match kind {
                AllocProbe::Pool => AllocatorKind::Pool,
                AllocProbe::Serialized => AllocatorKind::Serialized,
            },
            threads,
        ))
    }

    #[inline]
    pub fn alloc(&self) -> Block {
        Block(self.0.alloc(task_layout()))
    }

    #[inline]
    pub fn free(&self, b: Block) {
        // SAFETY: `b` came from `self.alloc()` with the same layout and is
        // consumed here, so it cannot be freed twice.
        unsafe { self.0.dealloc(b.0, task_layout()) };
    }
}

pub struct Slab(TaskSlab);

impl Slab {
    /// A slab with one primed shell, so every round trip is a recycle hit.
    pub fn primed() -> Self {
        unsafe fn drop_noop(_p: *mut u8) {}
        let slab = TaskSlab::new(
            task_layout(),
            make_allocator(AllocatorKind::Pool, 2),
            2,
            drop_noop,
        );
        let (p, _) = slab.acquire(0);
        // SAFETY: `p` was just acquired from this slab; the shell type has
        // a no-op destructor, so any bytes are a valid shell.
        unsafe { slab.recycle(0, p) };
        Self(slab)
    }

    #[inline]
    pub fn roundtrip(&self) -> bool {
        let (p, hit) = self.0.acquire(0);
        // SAFETY: as in `primed`.
        unsafe { self.0.recycle(0, p) };
        hit
    }
}

// ------------------------------------------------------------ lock probes

pub trait ProbeLock: Send + Sync + 'static {
    fn acquire(&self);
    fn release(&self);
}

impl<L: RawLock + 'static> ProbeLock for L {
    #[inline]
    fn acquire(&self) {
        self.lock();
    }
    #[inline]
    fn release(&self) {
        self.unlock();
    }
}

pub fn dtlock() -> Arc<dyn ProbeLock> {
    Arc::new(DtLock::<u64, 64>::default())
}

pub fn ptlock() -> Arc<dyn ProbeLock> {
    Arc::new(PtLock::<64>::default())
}

pub fn ticket_lock() -> Arc<dyn ProbeLock> {
    Arc::new(TicketLock::default())
}

// ------------------------------------------------------------ spsc probes

pub struct SpscTx(nanotask_spsc::Producer<u64>);
pub struct SpscRx(nanotask_spsc::Consumer<u64>);

pub fn spsc(capacity: usize) -> (SpscTx, SpscRx) {
    let (p, c) = nanotask_spsc::channel(capacity);
    (SpscTx(p), SpscRx(c))
}

impl SpscTx {
    #[inline]
    pub fn push(&self, v: u64) -> bool {
        self.0.push(v).is_ok()
    }
}

impl SpscRx {
    #[inline]
    pub fn pop(&mut self) -> Option<u64> {
        self.0.pop()
    }

    #[inline]
    pub fn drain(&mut self) -> usize {
        self.0.consume_all(|_| {})
    }
}

// ---------------------------------------------------------- replay probes

/// Heat's per-timestep access sets for an `nb × nb` block grid, as the
/// recorder would capture them (synthetic block addresses).
pub fn stencil_captures(nb: usize) -> Vec<CapturedSpawn> {
    let addr = |bi: usize, bj: usize| 0x10_0000 + (bi * nb + bj) * 64;
    let mut out = Vec::with_capacity(nb * nb);
    for bi in 0..nb {
        for bj in 0..nb {
            let mut decls = vec![AccessDecl::new(addr(bi, bj), 1, AccessMode::ReadWrite)];
            let mut read = |a| decls.push(AccessDecl::new(a, 1, AccessMode::Read));
            if bi > 0 {
                read(addr(bi - 1, bj));
            }
            if bi + 1 < nb {
                read(addr(bi + 1, bj));
            }
            if bj > 0 {
                read(addr(bi, bj - 1));
            }
            if bj + 1 < nb {
                read(addr(bi, bj + 1));
            }
            out.push(CapturedSpawn::bare("gs", 0, decls));
        }
    }
    out
}

pub struct Frozen(ReplayGraph);

pub fn freeze(captured: &[CapturedSpawn]) -> Frozen {
    Frozen(ReplayGraph::build(captured, &[]))
}

impl Frozen {
    pub fn tasks(&self) -> usize {
        self.0.len()
    }

    pub fn bytes(&self) -> u64 {
        self.0.bytes()
    }

    /// Partition across `parts` nodes; returns the cut-edge count.
    pub fn partition(&self, parts: usize) -> usize {
        Partitioning::compute(&self.0, parts).cut_edges()
    }
}

/// Structural hash of a captured iteration: the per-spawn signature
/// hashes chained in creation order. Only the byte-FNV reference hash is
/// public; the engine's word-folded one cannot be reached from outside.
pub fn structural_hash(captured: &[CapturedSpawn]) -> u64 {
    nanotask_replay::GraphRecorder::structural_hash(captured)
}

// ---------------------------------------------------- obs and trace probes

pub struct ObsProbe {
    counter: nanotask_obs::Counter,
    histogram: nanotask_obs::Histogram,
    _registry: nanotask_obs::Registry,
}

impl ObsProbe {
    pub fn new() -> Self {
        let registry = nanotask_obs::Registry::new(2);
        Self {
            counter: registry.counter("perf_ledger_probe_total"),
            histogram: registry.histogram("perf_ledger_probe_ns"),
            _registry: registry,
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.counter.inc(0);
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.histogram.record(0, v);
    }
}

/// One enabled per-core trace recorder, as a worker holds it.
pub struct TraceProbe {
    tracer: nanotask_trace::Tracer,
    rec: nanotask_trace::CoreRecorder,
}

impl TraceProbe {
    pub fn new() -> Self {
        let tracer = nanotask_trace::Tracer::new(1, true);
        let rec = tracer.recorder(0);
        Self { tracer, rec }
    }

    #[inline]
    pub fn record(&mut self, payload: u64) {
        self.rec
            .record(nanotask_trace::EventKind::UserMarker, payload);
    }

    pub fn finish(self) -> TraceBuf {
        drop(self.rec); // flushes the core's buffer into the tracer
        TraceBuf(self.tracer.finish())
    }
}

pub struct TraceBuf(nanotask_trace::Trace);

impl TraceBuf {
    /// Serialize as CTF-lite into memory; returns the byte count.
    pub fn write_ctf(&self) -> usize {
        let mut out = Vec::new();
        nanotask_trace::ctf::write_trace(&self.0, &mut out).expect("writing to a Vec cannot fail");
        out.len()
    }
}

// ---------------------------------------------------------- kernel probes

/// One Gauss–Seidel sweep over the 8×8 interior of a 10×10 grid.
pub fn gs_block8(grid: &mut [f64; 100]) -> f64 {
    // SAFETY: the pointer is the top-left interior cell (row 1, col 1) of
    // a 10-wide grid, so an 8×8 block has a full ring of cells around it.
    unsafe { kernels::gauss_seidel_block(grid.as_mut_ptr().add(11), 8, 8, 10) }
}

pub fn gemm_block64(c: &mut [f64], a: &[f64], b: &[f64]) {
    kernels::gemm_block(c, a, b, 64);
}
