//! The replay engine: [`RunIterative::run_iterative`].
//!
//! Iteration 0 records the body's task graph through the full dependency
//! system; later iterations replay a frozen [`ReplayGraph`]. Frozen
//! graphs live in a [`GraphCache`] keyed by structural hash, giving
//! divergence *hysteresis*: a body that alternates between a small set
//! of shapes (miniAMR-style refine/coarsen phases) re-records each shape
//! once and then replays every phase, instead of re-recording on every
//! alternation (what a one-entry cache, `replay_cache_size = 1`, still
//! does: every flip evicts). A body that keeps diverging is eventually
//! *pinned* to the dependency system
//! ([`nanotask_core::RuntimeConfig::replay_giveup_after`]), with a cheap
//! hash-only probe every [`nanotask_core::RuntimeConfig::replay_recheck_every`]
//! iterations to detect re-stabilization. A recorded iteration that
//! spawned nested task domains (cross-sibling dependencies of nested
//! tasks are invisible to the frozen graph) is never replayed: the body
//! is pinned immediately, detected via the dependency-edge tap's foreign
//! edges plus the runtime's nested-spawn counter.

use core::cell::UnsafeCell;
use std::sync::Arc;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use nanotask_core::deps::reduction::ReductionInfo;
use nanotask_core::{
    Deps, HeldTask, RunOutcome, Runtime, SpawnCapture, TaskBody, TaskCtx, TaskEpilogue, TaskId,
};
use nanotask_obs::{Counter, Histogram, MaxGauge, Registry};
use nanotask_trace::EventKind;

use crate::cache::GraphCache;
use crate::graph::ReplayGraph;
use crate::partition::Partitioning;
use crate::recorder::{
    CaptureMode, CapturedSpawn, GraphRecorder, STRUCTURAL_HASH_SEED, mix, spawn_sig_hash,
};

/// What a [`RunIterative::run_iterative`] call did.
///
/// Every iteration is classified exactly once:
/// `cache_hits + cache_misses + pinned_iterations == iterations`.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Iterations executed in total.
    pub iterations: usize,
    /// Iterations replayed from a frozen graph.
    pub replayed: usize,
    /// Iterations whose graph was (re)built and frozen: the initial
    /// record plus every divergence that missed the cache.
    pub rerecords: usize,
    /// Iterations that diverged from the graph being fed and fell back
    /// to the dependency system mid-iteration.
    pub diverged: usize,
    /// Tasks per iteration in the last frozen graph.
    pub tasks: usize,
    /// Edges in the last frozen graph.
    pub edges: usize,
    /// Edges as `(from, to)` creation-order pairs (test/analysis support).
    pub edge_list: Vec<(u32, u32)>,
    /// Successor edges the dependency system reported that involve tasks
    /// outside the captured set (nested children linking into the
    /// recorded iteration). Any non-zero value pins the body to the
    /// dependency system.
    pub foreign_edges: usize,
    /// Iterations served by the graph cache: fully replayed iterations
    /// plus diverged iterations whose structure matched a cached graph.
    pub cache_hits: usize,
    /// Iterations that needed the dependency system because no cached
    /// graph matched: records plus diverged cache misses.
    pub cache_misses: usize,
    /// Frozen graphs evicted from the cache (capacity pressure).
    pub cache_evictions: u64,
    /// Iterations executed while pinned to the dependency system
    /// (give-up policy or nested-domain fallback), including the
    /// hash-only re-stabilization probes.
    pub pinned_iterations: usize,
    /// Times the engine pinned the body (consecutive-divergence
    /// threshold or nested-domain detection).
    pub giveups: usize,
    /// Spawns issued by nested (non-root) tasks during graph-building
    /// iterations. Non-zero means the body uses nested task domains.
    pub nested_spawns: u64,
    /// The body was pinned because a recorded iteration contained nested
    /// task domains (nested spawns or foreign dependency edges) — replay
    /// cannot see cross-sibling dependencies of nested tasks, so the
    /// dependency system stays in charge permanently.
    pub pinned_nested: bool,
    /// Per cached graph: `(structural_hash, tasks, iterations replayed
    /// from it)`, most recently used first. Graphs evicted before the
    /// run ended are not listed.
    pub per_graph_replays: Vec<(u64, usize, u64)>,
    /// NUMA partitions the replay engine routed to (0 = partitioning
    /// off, see [`nanotask_core::RuntimeConfig::replay_partitioning`]).
    pub partitions: usize,
    /// Held-task releases routed to their partition's node through the
    /// scheduler's node-targeted insertion.
    pub routed_releases: u64,
    /// Cut edges of the last replayed graph's partitioning (edges whose
    /// endpoints live on different NUMA nodes).
    pub partition_cut_edges: usize,
    /// Heap pushes + pops the partitioner performed across this run —
    /// the machine-checkable side of its O(n log n) claim.
    pub heap_ops: u64,
    /// Partitionings seeded from an assignment that survived cache
    /// eviction (a graph re-entering the `GraphCache` adopts its old
    /// placement instead of recomputing, keeping worker caches warm).
    pub partition_seeds: u64,
    /// Nodes adopted from eviction seeds / total nodes of seeded
    /// computations (equal on unchanged graphs: 100 % reuse).
    pub partition_seed_reused: u64,
    /// See [`ReplayReport::partition_seed_reused`].
    pub partition_seed_total: u64,
    /// Wall time spent freezing captured iterations into CSR graphs
    /// (the initial record plus every divergence re-freeze), summed.
    pub freeze_ns: u64,
    /// Frozen footprint of the last built graph in bytes
    /// ([`crate::graph::ReplayGraph::bytes`]).
    pub graph_bytes: u64,
    /// High-water mark of task-object memory over the runtime's lifetime
    /// (peak simultaneously live tasks × task-shell size).
    pub peak_task_bytes: u64,
    /// Task spawns served as recycled shells from the task slab during
    /// this run (delta of the runtime's monotone counter).
    pub tasks_recycled: u64,
    /// Iterations during which at least one task-body failure was
    /// recorded. Each faulted iteration invalidates the graph it was
    /// running from (if any) and falls back to the dependency system —
    /// the next occurrence of the shape re-records from scratch.
    /// Orthogonal to the hit/miss/pinned classification.
    pub faulted: usize,
}

impl ReplayReport {
    /// The per-iteration classification invariant: every iteration is
    /// counted exactly once as a cache hit, a cache miss, or a pinned
    /// iteration.
    pub fn classification_ok(&self) -> bool {
        self.cache_hits + self.cache_misses + self.pinned_iterations == self.iterations
    }

    /// Assert [`ReplayReport::classification_ok`] plus the bookkeeping
    /// bounds every report must satisfy — the one place the conformance
    /// suites (and harnesses) check report integrity.
    pub fn assert_classification(&self) {
        assert!(
            self.classification_ok(),
            "hits + misses + pinned == iterations violated: {self}"
        );
        assert!(
            self.replayed + self.diverged <= self.iterations,
            "replay/divergence counts exceed iterations: {self}"
        );
        let cached: u64 = self.per_graph_replays.iter().map(|&(_, _, r)| r).sum();
        assert!(
            cached <= self.replayed as u64,
            "cached graphs claim more replays than happened: {self}"
        );
    }
}

impl core::fmt::Display for ReplayReport {
    /// One-line summary of everything the report counts — including the
    /// cache counters (hits/misses/evictions, pinned iterations,
    /// give-ups) and the partitioning counters.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "replay: iters={} replayed={} rerecords={} diverged={} | \
             cache: hits={} misses={} evictions={} pinned={} giveups={} | \
             nested: spawns={} pinned_nested={} | \
             graph: tasks={} edges={} foreign={}",
            self.iterations,
            self.replayed,
            self.rerecords,
            self.diverged,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.pinned_iterations,
            self.giveups,
            self.nested_spawns,
            self.pinned_nested,
            self.tasks,
            self.edges,
            self.foreign_edges,
        )?;
        write!(
            f,
            " | mem: freeze_ns={} graph_bytes={} peak_task_bytes={} recycled={}",
            self.freeze_ns, self.graph_bytes, self.peak_task_bytes, self.tasks_recycled,
        )?;
        if self.faulted > 0 {
            write!(f, " | faulted={}", self.faulted)?;
        }
        if self.partitions > 0 {
            write!(
                f,
                " | numa: partitions={} routed={} cut_edges={} \
                 heap_ops={} seeds={}",
                self.partitions,
                self.routed_releases,
                self.partition_cut_edges,
                self.heap_ops,
                self.partition_seeds,
            )?;
        }
        Ok(())
    }
}

/// Registry handles mirroring the monotone [`ReplayReport`] counters
/// (`nanotask_replay_*_total`) plus the per-iteration feed-time
/// histogram. The bespoke report stays the source of truth — the
/// registry view is written from it once per `run_iterative` call, so
/// the two can be compared field-by-field (`registry_mirrors_the_report`) and
/// the registry accumulates across calls on the same runtime.
#[derive(Clone)]
struct ReplayObs {
    iterations: Counter,
    replayed: Counter,
    rerecords: Counter,
    diverged: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    pinned_iterations: Counter,
    giveups: Counter,
    nested_spawns: Counter,
    routed_releases: Counter,
    heap_ops: Counter,
    partition_seeds: Counter,
    partition_seed_reused: Counter,
    partition_seed_total: Counter,
    freeze_ns: Counter,
    tasks_recycled: Counter,
    faulted: Counter,
    /// High-water marks, not sums: the largest frozen graph and the task
    /// memory peak the runtime ever reached.
    graph_bytes: MaxGauge,
    peak_task_bytes: MaxGauge,
    /// Wall time the root body spent feeding one replayed iteration into
    /// the frozen graph (sampled only while
    /// [`nanotask_core::Runtime::metrics_enabled`]).
    feed_ns: Histogram,
}

impl ReplayObs {
    fn new(reg: &Registry) -> Self {
        ReplayObs {
            iterations: reg.counter("nanotask_replay_iterations_total"),
            replayed: reg.counter("nanotask_replay_replayed_total"),
            rerecords: reg.counter("nanotask_replay_rerecords_total"),
            diverged: reg.counter("nanotask_replay_diverged_total"),
            cache_hits: reg.counter("nanotask_replay_cache_hits_total"),
            cache_misses: reg.counter("nanotask_replay_cache_misses_total"),
            cache_evictions: reg.counter("nanotask_replay_cache_evictions_total"),
            pinned_iterations: reg.counter("nanotask_replay_pinned_iterations_total"),
            giveups: reg.counter("nanotask_replay_giveups_total"),
            nested_spawns: reg.counter("nanotask_replay_nested_spawns_total"),
            routed_releases: reg.counter("nanotask_replay_routed_releases_total"),
            heap_ops: reg.counter("nanotask_replay_heap_ops_total"),
            partition_seeds: reg.counter("nanotask_replay_partition_seeds_total"),
            partition_seed_reused: reg.counter("nanotask_replay_partition_seed_reused_total"),
            partition_seed_total: reg.counter("nanotask_replay_partition_seed_total_total"),
            freeze_ns: reg.counter("nanotask_replay_freeze_ns_total"),
            tasks_recycled: reg.counter("nanotask_replay_tasks_recycled_total"),
            faulted: reg.counter("nanotask_replay_faulted_iterations_total"),
            graph_bytes: reg.max_gauge("nanotask_replay_graph_bytes"),
            peak_task_bytes: reg.max_gauge("nanotask_replay_peak_task_bytes"),
            feed_ns: reg.histogram("nanotask_replay_feed_ns"),
        }
    }

    /// Fold a finished run's report into the registry (main thread →
    /// shard 0). Counters only ever grow, so adding the per-run totals
    /// keeps the registry a running sum over the runtime's lifetime.
    fn mirror(&self, r: &ReplayReport) {
        self.iterations.add(0, r.iterations as u64);
        self.replayed.add(0, r.replayed as u64);
        self.rerecords.add(0, r.rerecords as u64);
        self.diverged.add(0, r.diverged as u64);
        self.cache_hits.add(0, r.cache_hits as u64);
        self.cache_misses.add(0, r.cache_misses as u64);
        self.cache_evictions.add(0, r.cache_evictions);
        self.pinned_iterations.add(0, r.pinned_iterations as u64);
        self.giveups.add(0, r.giveups as u64);
        self.nested_spawns.add(0, r.nested_spawns);
        self.routed_releases.add(0, r.routed_releases);
        self.heap_ops.add(0, r.heap_ops);
        self.partition_seeds.add(0, r.partition_seeds);
        self.partition_seed_reused.add(0, r.partition_seed_reused);
        self.partition_seed_total.add(0, r.partition_seed_total);
        self.freeze_ns.add(0, r.freeze_ns);
        self.tasks_recycled.add(0, r.tasks_recycled);
        self.faulted.add(0, r.faulted as u64);
        self.graph_bytes.record(0, r.graph_bytes);
        self.peak_task_bytes.record(0, r.peak_task_bytes);
    }
}

/// Extension trait adding record & replay execution to [`Runtime`].
pub trait RunIterative {
    /// Run `body` `iters` times. Iteration 0 executes through the full
    /// dependency system while a [`GraphRecorder`] captures the task
    /// graph; later iterations replay frozen graphs, feeding ready tasks
    /// straight to the scheduler and bypassing dependency
    /// registration/release entirely. Each iteration is a barrier (the
    /// next iteration's tasks spawn only after the previous iteration's
    /// subtree completed) and the call returns after the last one.
    ///
    /// The body does *not* have to spawn the same graph every call: up
    /// to [`nanotask_core::RuntimeConfig::replay_cache_size`] distinct
    /// shapes are kept frozen (keyed by structural hash) and a
    /// divergence probes the cache before re-recording, so stable phase
    /// cycles replay every phase. Divergence is still detected per spawn
    /// (cheap signature hash over label, priority and access set) and
    /// always degrades safely: the already replayed prefix is awaited
    /// and the rest of that iteration runs through the dependency
    /// system.
    fn run_iterative<F>(&self, iters: usize, body: F) -> ReplayReport
    where
        F: Fn(&TaskCtx) + Send + Sync + 'static;

    /// Fallible variant of [`RunIterative::run_iterative`]: returns the
    /// replay report together with the run's [`RunOutcome`] instead of
    /// panicking on task failures.
    ///
    /// Failure propagation works during replay too: a fed task whose
    /// body panics is converted into a structured failure and its
    /// transitive successors *in the frozen graph* are cancelled through
    /// the graph's own countdown protocol (their bodies are skipped,
    /// their completion bookkeeping still runs, nothing leaks). The
    /// faulted iteration's graph is invalidated from the cache and the
    /// engine falls back to the dependency system, re-recording the
    /// shape from a fresh run the next time it appears — so one failed
    /// iteration never taints later replays. On a *divergent* faulted
    /// iteration only the fed prefix's successors are cancelled; tasks
    /// of the dependency-system remainder only observe the failure
    /// through their own registered accesses.
    fn run_iterative_outcome<F>(&self, iters: usize, body: F) -> (ReplayReport, RunOutcome)
    where
        F: Fn(&TaskCtx) + Send + Sync + 'static;
}

/// Reduction state of one replayed iteration: a fresh chain instance per
/// recorded group (private per-worker slots, combined exactly once).
struct GroupState {
    info: Arc<ReductionInfo>,
    remaining: AtomicU32,
}

/// Shared state of one replayed iteration.
struct IterState {
    graph: Arc<ReplayGraph>,
    groups: Vec<GroupState>,
    /// Released-node count (debug cross-check against graph size).
    launched: AtomicUsize,
    /// NUMA partitioning of the graph — `Some` activates node-targeted
    /// release routing ([`nanotask_core::RuntimeConfig::replay_partitioning`]).
    part: Option<Arc<Partitioning>>,
    /// Held-task releases routed through the node-targeted path.
    routed: AtomicU64,
    /// Per-node cancellation marks — the replay mirror of the dependency
    /// systems' failure poisoning. A failed (or already-cancelled) task
    /// sets its successors' flags *before* dropping their pending
    /// references; whichever thread drops the last reference transfers
    /// the mark onto the released task ([`HeldTask::mark_cancelled`]).
    /// The countdown's AcqRel release sequence orders the flag store
    /// before the releasing load, so the transfer never races.
    poisoned: Box<[AtomicBool]>,
}

impl IterState {
    fn new(graph: Arc<ReplayGraph>, workers: usize, part: Option<Arc<Partitioning>>) -> Self {
        graph.reset();
        let groups = graph
            .groups()
            .iter()
            .map(|g| GroupState {
                info: Arc::new(ReductionInfo::new(g.addr, g.len, g.op, workers)),
                remaining: AtomicU32::new(g.members),
            })
            .collect();
        let poisoned = (0..graph.len()).map(|_| AtomicBool::new(false)).collect();
        Self {
            graph,
            groups,
            launched: AtomicUsize::new(0),
            part,
            routed: AtomicU64::new(0),
            poisoned,
        }
    }

    /// Release-time half of the poison transfer: mark the just-released
    /// node's task cancelled when a predecessor flagged it.
    fn take_poison(&self, i: usize, h: &HeldTask) {
        if self.poisoned[i].load(Ordering::Acquire) {
            h.mark_cancelled();
        }
    }

    /// Fold partially-fed reduction groups into their targets. On a
    /// divergent or truncated iteration some group members may have run
    /// (accumulating into this iteration's private slots) without the
    /// last member ever firing the combine — their contributions must
    /// not be dropped. Callers guarantee every fed task has completed
    /// (taskwait) and no successor that reads the target is running.
    fn combine_partial(&self) {
        for (g, meta) in self.groups.iter().zip(self.graph.groups()) {
            let remaining = g.remaining.load(Ordering::Acquire);
            if remaining > 0 && remaining < meta.members && !g.info.is_combined() {
                // SAFETY: all fed members completed and nothing else
                // touches the target until the caller resumes spawning.
                unsafe { g.info.combine_into_target() };
            }
        }
    }

    /// Drop one pending reference of node `i`, releasing its held task
    /// if that was the last one.
    ///
    /// This is the replay engine's release path onto the zero-queue fast
    /// path: with [`nanotask_core::RuntimeConfig::fast_path`] enabled,
    /// `release_held` *defers* releases issued from a completing task's
    /// body — the runtime then keeps one released successor as the
    /// worker's inline next task and hands the rest to the scheduler as
    /// one batch, so a replayed chain never round-trips the ready queue.
    fn countdown(&self, ctx: &TaskCtx, i: u32) {
        if let Some(t) = self.graph.countdown(i as usize) {
            self.launched.fetch_add(1, Ordering::Relaxed);
            // SAFETY: `t` was published by the creator from a live
            // HeldTask and each node is released exactly once (the
            // pending counter reaches zero once per iteration).
            let h = unsafe { HeldTask::from_raw(t) };
            self.take_poison(i as usize, &h);
            ctx.release_held(h);
        }
    }

    /// Partition-routed variant of [`IterState::countdown`] over a whole
    /// successor list: newly-released tasks are grouped by their
    /// partition's NUMA node and each group is handed to the scheduler
    /// as one node-targeted batch — the locality-aware static schedule
    /// of the frozen graph. Scratch buffers are thread-local so the
    /// per-completion hot path never allocates.
    ///
    /// With the zero-queue fast path on, one *same-node* successor is
    /// kept as the releasing worker's inline next task
    /// ([`TaskCtx::release_held_inline_to`]): dependence
    /// locality composes with partition locality — the task still runs
    /// on its assigned node, it just skips the node queue.
    ///
    /// # Re-entrancy audit (thread-local scratch)
    ///
    /// The `SCRATCH` borrow spans calls into `release_held_inline_to`
    /// and `release_held_batch_to`. Neither can re-enter this function
    /// on the same thread: an inline-kept release only *defers* the task
    /// into the worker's pending buffer (the body runs after the current
    /// completion window closes, long after the borrow is dropped), and
    /// node-targeted insertion never executes task bodies synchronously
    /// — every scheduler path ends at a queue push. The `try_borrow_mut`
    /// below is the audit's backstop: if a future runtime change ever
    /// makes a release path execute bodies synchronously, the fallback
    /// keeps routing correct (with a one-off allocation) instead of
    /// panicking mid-release.
    fn countdown_routed(&self, ctx: &TaskCtx, succs: &[u32], part: &Partitioning) {
        /// Reusable (node, handle) release buffer + contiguous handle
        /// batch, one pair per worker thread.
        type RouteScratch = (Vec<(usize, HeldTask)>, Vec<HeldTask>);
        thread_local! {
            static SCRATCH: core::cell::RefCell<RouteScratch> =
                const { core::cell::RefCell::new((Vec::new(), Vec::new())) };
        }
        SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => {
                let (ready, handles) = &mut *scratch;
                self.route(ctx, succs, part, ready, handles);
            }
            // Re-entered (see the audit above — impossible today):
            // degrade to fresh buffers rather than poisoning the borrow.
            Err(_) => self.route(ctx, succs, part, &mut Vec::new(), &mut Vec::new()),
        });
    }

    /// The body of [`IterState::countdown_routed`], parameterized over
    /// the scratch buffers.
    fn route(
        &self,
        ctx: &TaskCtx,
        succs: &[u32],
        part: &Partitioning,
        ready: &mut Vec<(usize, HeldTask)>,
        handles: &mut Vec<HeldTask>,
    ) {
        ready.clear();
        for &s in succs {
            if let Some(t) = self.graph.countdown(s as usize) {
                self.launched.fetch_add(1, Ordering::Relaxed);
                // SAFETY: as in `countdown` — published by the
                // creator, released exactly once.
                let h = unsafe { HeldTask::from_raw(t) };
                self.take_poison(s as usize, &h);
                ready.push((part.node_of(s as usize), h));
            }
        }
        if ready.is_empty() {
            return;
        }
        self.routed.fetch_add(ready.len() as u64, Ordering::Relaxed);
        // Fast-path composition: keep the first same-node successor
        // inline (no-op when the fast path is off or the releaser is the
        // root — `release_held_inline_to` declines and the task falls
        // through to normal routing below).
        let kept = ready
            .iter()
            .position(|&(node, h)| ctx.release_held_inline_to(node, h));
        if let Some(pos) = kept {
            ready.remove(pos);
            if ready.is_empty() {
                return;
            }
        }
        if let [(node, h)] = ready[..] {
            // Single release (chains — the common case): no grouping.
            ctx.release_held_batch_to(node, &[h]);
            return;
        }
        // Group by node, preserving release order within each node
        // (stable sort; successor lists are short).
        ready.sort_by_key(|&(node, _)| node);
        handles.clear();
        handles.extend(ready.iter().map(|&(_, h)| h));
        let mut start = 0;
        while start < ready.len() {
            let node = ready[start].0;
            let mut end = start + 1;
            while end < ready.len() && ready[end].0 == node {
                end += 1;
            }
            ctx.release_held_batch_to(node, &handles[start..end]);
            start = end;
        }
    }

    /// The post-body half of one fed task: fold finished reduction
    /// groups, then release the node's successors (routed when
    /// partitioning is on).
    fn after_body(&self, tc: &TaskCtx, i: usize) {
        // Failure propagation during replay: a failed task (marked
        // cancelled by the runtime's panic isolation) or a task that was
        // itself cancelled poisons its graph successors before their
        // pending references drop — the flags travel transitively
        // because cancelled tasks still run this epilogue.
        if tc.task_cancelled() {
            for &s in self.graph.succs(i) {
                self.poisoned[s as usize].store(true, Ordering::Release);
            }
        }
        // Last chain member folds the private slots into the target —
        // before releasing successors, which may read it.
        for &(_, gi) in self.graph.red_of(i) {
            let g = &self.groups[gi as usize];
            if g.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // SAFETY: every group member completed (counter hit
                // zero) and successors are not yet released, so the
                // target region is exclusively owned.
                unsafe { g.info.combine_into_target() };
            }
        }
        match &self.part {
            // Partitioning off: release through the producer's home
            // buffer.
            None => {
                for &s in self.graph.succs(i) {
                    self.countdown(tc, s);
                }
            }
            // Partitioning on: group the newly-released successors by
            // their partition and batch each group to its node.
            Some(p) => self.countdown_routed(tc, self.graph.succs(i), p),
        }
    }

    /// Feed one matched spawn into the frozen graph: spawn the body held
    /// (with reduction chain state attached) and drop its creation hold.
    fn feed(&self, self_arc: &Arc<IterState>, ctx: &TaskCtx, i: usize, body: TaskBody) {
        let node = &self.graph.nodes()[i];
        // Reduction accesses need chain state for `red_slot`: attach this
        // iteration's group instances to bare copies of the declarations.
        // Non-reduction declarations impose no ordering during replay and
        // are dropped to keep held-task creation allocation-free.
        let decls: Vec<_> = self
            .graph
            .red_of(i)
            .iter()
            .map(|(d, gi)| {
                let mut d = d.clone();
                d.reduction = Some(Arc::clone(&self.groups[*gi as usize].info));
                d
            })
            .collect();
        // Pass the user's already-boxed body straight through and hang
        // the successor-release logic on the shared per-iteration
        // epilogue — no wrapper allocation.
        let epilogue = (Arc::clone(self_arc) as Arc<dyn TaskEpilogue>, i as u64);
        let held = ctx.spawn_held(node.label, node.priority, decls, body, Some(epilogue));
        self.graph.publish(i, held.into_raw());
        // Drop the creation hold; releases the task if all its
        // predecessors already finished (or it has none) — routed to its
        // partition's node when partitioning is on.
        match &self.part {
            None => self.countdown(ctx, i as u32),
            // Decrement first — only the rare hold drop that
            // actually releases (a root of the graph, or a node whose
            // predecessors all finished during the spawn phase) pays the
            // routing path; interior nodes cost one atomic decrement.
            Some(p) => {
                if let Some(t) = self.graph.countdown(i) {
                    self.launched.fetch_add(1, Ordering::Relaxed);
                    self.routed.fetch_add(1, Ordering::Relaxed);
                    // SAFETY: as in `countdown` — published by the
                    // creator (just above), released exactly once.
                    let h = unsafe { HeldTask::from_raw(t) };
                    self.take_poison(i, &h);
                    let node = p.node_of(i);
                    if !ctx.release_held_inline_to(node, h) {
                        ctx.release_held_batch_to(node, &[h]);
                    }
                }
            }
        }
    }
}

impl TaskEpilogue for IterState {
    /// The steady-state hook: one shared object per iteration
    /// runs every fed task's post-body logic (`tag` = graph node index)
    /// — no per-task wrapper closure survives freezing.
    fn run(&self, ctx: &TaskCtx, tag: u64) {
        self.after_body(ctx, tag as usize);
    }
}

/// Emit one [`EventKind::ReplayPartitionAssign`] record per partition of
/// the iteration about to feed (`(partition << 32) | tasks_in_partition`)
/// — called on both ways a graph becomes the feed target: the scheduled
/// replay branch and the mid-start phase-switch takeover.
fn mark_partitions(ctx: &TaskCtx, state: &IterState) {
    if let Some(p) = &state.part {
        for n in 0..p.parts() {
            ctx.trace_mark(
                EventKind::ReplayPartitionAssign,
                ((n as u64) << 32) | p.tasks_in(n) as u64,
            );
        }
    }
}

/// The engine's capture: recording through the embedded
/// [`GraphRecorder`], hash-only probing, or feeding spawns straight into
/// a frozen graph.
enum Mode {
    Off,
    Record,
    /// Pinned-mode re-stabilization probe: chain the per-spawn signature
    /// hashes into the iteration's structural hash without buffering
    /// anything; every spawn proceeds through the dependency system.
    Probe {
        hash: u64,
    },
    Feed {
        state: Arc<IterState>,
        next: usize,
        diverged: bool,
        /// The feed target was swapped mid-start: the first spawn did not
        /// match the scheduled graph but matched another cached one.
        switched: bool,
        /// After a divergence: the full spawn metadata of this iteration
        /// — the fed prefix reconstructed from the graph plus every
        /// fallback spawn — so the engine can freeze the diverged shape
        /// without a dedicated re-record pass.
        captured: Vec<CapturedSpawn>,
    },
}

/// Everything [`EngineCapture::end_feed`] hands back to the engine loop.
struct FeedEnd {
    state: Arc<IterState>,
    spawned: usize,
    diverged: bool,
    switched: bool,
    captured: Vec<CapturedSpawn>,
}

/// The capture installed by [`RunIterative::run_iterative`].
///
/// Hot state lives in `UnsafeCell`s: the runtime calls `SpawnCapture`
/// methods only from the thread executing the root task body, and the
/// engine switches modes / consults the cache only from that same body —
/// all accesses are sequential on one thread (see the `SpawnCapture`
/// docs).
struct EngineCapture {
    mode: UnsafeCell<Mode>,
    recorder: GraphRecorder,
    cache: UnsafeCell<GraphCache>,
    /// Worker count, needed to build per-iteration reduction state when
    /// swapping feed targets.
    workers: usize,
    /// NUMA partitions for release routing; 0 = partitioning off
    /// ([`nanotask_core::RuntimeConfig::replay_partitioning`]).
    parts: usize,
}

unsafe impl Send for EngineCapture {}
unsafe impl Sync for EngineCapture {}

impl EngineCapture {
    fn new(workers: usize, cache_size: usize, parts: usize) -> Self {
        Self {
            mode: UnsafeCell::new(Mode::Off),
            recorder: GraphRecorder::new(),
            cache: UnsafeCell::new(GraphCache::new(cache_size)),
            workers,
            parts,
        }
    }

    /// Build the per-iteration state for feeding `g`: attaches the
    /// graph's (entry-cached) NUMA partitioning when partitioning is on.
    ///
    /// # Safety-adjacent note
    /// Calls `self.cache()` — root-thread confinement (see type docs).
    fn make_state(&self, g: Arc<ReplayGraph>) -> Arc<IterState> {
        let part = if self.parts > 0 {
            Some(unsafe { self.cache() }.partitioning(&g, self.parts))
        } else {
            None
        };
        Arc::new(IterState::new(g, self.workers, part))
    }

    /// # Safety
    /// Root-thread confinement (see type docs).
    #[allow(clippy::mut_from_ref)]
    unsafe fn mode(&self) -> &mut Mode {
        unsafe { &mut *self.mode.get() }
    }

    /// # Safety
    /// Root-thread confinement (see type docs).
    #[allow(clippy::mut_from_ref)]
    unsafe fn cache(&self) -> &mut GraphCache {
        unsafe { &mut *self.cache.get() }
    }

    fn set_record(&self) {
        self.recorder.begin(CaptureMode::Record);
        unsafe { *self.mode() = Mode::Record };
    }

    fn set_probe(&self) {
        unsafe {
            *self.mode() = Mode::Probe {
                hash: STRUCTURAL_HASH_SEED,
            }
        };
    }

    /// Leave probe mode; returns the iteration's structural hash.
    fn end_probe(&self) -> u64 {
        let mode = unsafe { self.mode() };
        let h = match mode {
            Mode::Probe { hash } => *hash,
            _ => STRUCTURAL_HASH_SEED,
        };
        *mode = Mode::Off;
        h
    }

    fn set_feed(&self, state: Arc<IterState>) {
        unsafe {
            *self.mode() = Mode::Feed {
                state,
                next: 0,
                diverged: false,
                switched: false,
                captured: Vec::new(),
            }
        };
    }

    /// Leave feed mode, handing back what happened (`None` if feed mode
    /// was never entered).
    fn end_feed(&self) -> Option<FeedEnd> {
        let mode = unsafe { self.mode() };
        match core::mem::replace(mode, Mode::Off) {
            Mode::Feed {
                state,
                next,
                diverged,
                switched,
                captured,
            } => Some(FeedEnd {
                state,
                spawned: next,
                diverged,
                switched,
                captured,
            }),
            _ => None,
        }
    }

    fn end_record(&self) -> Vec<CapturedSpawn> {
        unsafe { *self.mode() = Mode::Off };
        self.recorder.take()
    }
}

impl SpawnCapture for EngineCapture {
    fn active(&self) -> bool {
        !matches!(unsafe { self.mode() }, Mode::Off)
    }

    fn on_spawn(
        &self,
        ctx: &TaskCtx,
        label: &'static str,
        priority: i32,
        deps: Deps,
        body: TaskBody,
    ) -> Option<(Deps, TaskBody)> {
        // SAFETY: root-thread confinement; nothing reached from the calls
        // below (spawn_held, taskwait, recorder, cache) re-enters this
        // capture — nested tasks executed while task-waiting are non-root
        // and the runtime only offers root spawns.
        let mode = unsafe { self.mode() };
        match mode {
            Mode::Off => Some((deps, body)),
            Mode::Record => self.recorder.on_spawn(ctx, label, priority, deps, body),
            Mode::Probe { hash } => {
                *hash = mix(*hash, spawn_sig_hash(label, priority, deps.decls()));
                Some((deps, body))
            }
            Mode::Feed {
                state,
                next,
                diverged,
                switched,
                captured,
            } => {
                if *diverged {
                    captured.push(CapturedSpawn::bare(label, priority, deps.decls().to_vec()));
                    return Some((deps, body));
                }
                let i = *next;
                *next = i + 1;
                let sig = spawn_sig_hash(label, priority, deps.decls());
                let matched = {
                    let nodes = state.graph.nodes();
                    i < nodes.len() && nodes[i].sig == sig
                };
                if matched {
                    state.feed(&Arc::clone(state), ctx, i, body);
                    return None;
                }
                if i == 0 {
                    // Nothing has been fed yet: a cached graph whose
                    // first spawn matches can take over wholesale — the
                    // phase-switch fast path of alternating bodies.
                    if let Some(g) = unsafe { self.cache() }.get_by_first_sig(sig) {
                        let st = self.make_state(g);
                        mark_partitions(ctx, &st);
                        *state = Arc::clone(&st);
                        *switched = true;
                        st.feed(&st, ctx, 0, body);
                        return None;
                    }
                }
                // Divergence mid-iteration: wait for the already-fed
                // prefix (its ordering was enforced by the graph), fold
                // any partially-fed reduction groups, then let this and
                // all later spawns go through the dependency system —
                // conservative and correct. The full shape of this
                // iteration is captured on the side so the engine can
                // probe the cache / freeze it afterwards: the fed prefix
                // references the frozen decl arena by CSR index (no
                // cloning); only the one diverging spawn's live
                // declarations are copied — the `deps` must proceed into
                // the dependency system.
                *diverged = true;
                *captured = state.graph.prefix_captured(i);
                captured.push(CapturedSpawn::bare(label, priority, deps.decls().to_vec()));
                ctx.taskwait();
                state.combine_partial();
                Some((deps, body))
            }
        }
    }

    fn on_spawned(&self, id: TaskId) {
        if matches!(unsafe { self.mode() }, Mode::Record) {
            self.recorder.on_spawned(id);
        }
    }
}

impl RunIterative for Runtime {
    fn run_iterative<F>(&self, iters: usize, body: F) -> ReplayReport
    where
        F: Fn(&TaskCtx) + Send + Sync + 'static,
    {
        let (report, outcome) = self.run_iterative_outcome(iters, body);
        assert!(
            outcome.is_ok(),
            "nanotask run_iterative failed: {}",
            outcome.summary()
        );
        report
    }

    fn run_iterative_outcome<F>(&self, iters: usize, body: F) -> (ReplayReport, RunOutcome)
    where
        F: Fn(&TaskCtx) + Send + Sync + 'static,
    {
        if iters == 0 {
            return (ReplayReport::default(), RunOutcome::default());
        }
        let cfg = self.config();
        let workers = cfg.workers;
        let cache_size = cfg.replay_cache_size.max(1);
        let giveup_after = cfg.replay_giveup_after;
        let recheck_every = cfg.replay_recheck_every.max(1);
        // NUMA-aware replay partitioning: one partition per node of the
        // runtime's topology. 0 disables routing entirely.
        let parts = if cfg.replay_partitioning {
            self.topology().nodes()
        } else {
            0
        };

        let body = Arc::new(body);
        let capture = Arc::new(EngineCapture::new(workers, cache_size, parts));
        self.set_spawn_capture(Some(Arc::clone(&capture) as _));
        let prev_graph_recording = self.graph_recording();
        self.clear_graph_edges();
        let obs = ReplayObs::new(self.metrics_registry());
        let recycled0 = self.tasks_recycled();
        let feed_hist = if self.metrics_enabled() {
            Some(obs.feed_ns.clone())
        } else {
            None
        };

        // All iterations run inside ONE root task, separated by taskwait
        // barriers: workers never tear down between iterations, which
        // keeps the per-iteration overhead to the barrier itself.
        let out: Arc<std::sync::Mutex<ReplayReport>> = Arc::default();
        let result = Arc::clone(&out);
        let cap = Arc::clone(&capture);
        let outcome = self.run_outcome(move |ctx| {
            // SAFETY (all `cap.cache()` calls below): root-thread
            // confinement — this closure is the root body.
            macro_rules! cache {
                () => {
                    unsafe { cap.cache() }
                };
            }
            /// The graph to schedule after finishing an iteration with
            /// structural hash `h`: the predicted successor phase if the
            /// cache knows one, else the graph of `h` itself.
            fn pick_next(
                cache: &mut GraphCache,
                h: u64,
                fallback: Arc<ReplayGraph>,
            ) -> Arc<ReplayGraph> {
                cache.predict_next(h).unwrap_or(fallback)
            }

            let mut cur: Option<Arc<ReplayGraph>> = None;
            let mut last_graph: Option<Arc<ReplayGraph>> = None;
            // Structural hash of the previous iteration, when known
            // (feeds the cache's phase predictor).
            let mut prev_hash: Option<u64> = None;
            // Consecutive iterations that failed to replay.
            let mut fails = 0usize;
            let mut pinned = false;
            // Nested-domain pins are permanent: no re-stabilization
            // probes, replay can never be safe for this body.
            let mut pinned_forever = false;
            let mut since_probe = 0usize;
            let mut last_probe_hash: Option<u64> = None;
            let mut report = ReplayReport::default();

            for iter in 0..iters {
                // Fault watch: any task-body failure recorded during
                // this iteration invalidates the graph it ran from and
                // drops the engine back to the dependency system — the
                // shape re-records from a clean run on its next
                // occurrence.
                let fails0 = ctx.failure_count();
                macro_rules! check_faults {
                    () => {
                        if ctx.failure_count() != fails0 {
                            report.faulted += 1;
                            if let Some(h) = prev_hash {
                                cache!().invalidate(h);
                            }
                            cur = None;
                            prev_hash = None;
                            last_probe_hash = None;
                            // The taskwait barrier just drained every
                            // task, so the iteration boundary is safe to
                            // act as the poison-recovery point: the next
                            // iteration registers on clean addresses.
                            ctx.reset_fault_propagation();
                        }
                    };
                }
                if pinned {
                    report.pinned_iterations += 1;
                    since_probe += 1;
                    if !pinned_forever && since_probe >= recheck_every {
                        // Cheap hash-only probe: did the body
                        // re-stabilize onto a cached (or repeating)
                        // shape?
                        since_probe = 0;
                        cap.set_probe();
                        body(ctx);
                        let h = cap.end_probe();
                        ctx.taskwait();
                        if let Some(g) = cache!().get(h) {
                            ctx.trace_mark(EventKind::ReplayCacheHit, iter as u64);
                            if let Some(p) = prev_hash {
                                cache!().note_transition(p, h);
                            }
                            prev_hash = Some(h);
                            cur = Some(pick_next(cache!(), h, g));
                            pinned = false;
                            fails = 0;
                            last_probe_hash = None;
                        } else if last_probe_hash == Some(h) {
                            // Two consecutive probes saw the same
                            // uncached shape: record it next iteration.
                            cur = None;
                            prev_hash = None;
                            pinned = false;
                            fails = 0;
                            last_probe_hash = None;
                        } else {
                            last_probe_hash = Some(h);
                        }
                    } else {
                        // Plain dependency-system iteration, capture off.
                        body(ctx);
                        ctx.taskwait();
                    }
                    check_faults!();
                    report.iterations += 1;
                    continue;
                }
                match cur.clone() {
                    None => {
                        // Record: execute through the full dependency
                        // system with the edge tap enabled.
                        ctx.trace_mark(EventKind::ReplayRecordBegin, iter as u64);
                        let nested0 = ctx.nested_spawn_count();
                        let _ = ctx.take_graph_edges();
                        ctx.set_graph_recording(true);
                        cap.set_record();
                        body(ctx);
                        let captured = cap.end_record();
                        ctx.taskwait();
                        ctx.set_graph_recording(prev_graph_recording);
                        let tap = ctx.take_graph_edges();
                        let nested = ctx.nested_spawn_count() - nested0;
                        let freeze_t0 = std::time::Instant::now();
                        let g = Arc::new(ReplayGraph::build(&captured, &tap));
                        report.freeze_ns += freeze_t0.elapsed().as_nanos() as u64;
                        ctx.trace_mark(EventKind::ReplayRecordEnd, g.len() as u64);
                        report.rerecords += 1;
                        report.cache_misses += 1;
                        report.nested_spawns += nested;
                        fails += 1;
                        last_graph = Some(Arc::clone(&g));
                        if g.foreign_edge_count() > 0 || nested > 0 {
                            // Nested task domains: the frozen graph
                            // cannot see cross-sibling dependencies of
                            // nested tasks — fall back permanently.
                            report.pinned_nested = true;
                            report.giveups += 1;
                            pinned = true;
                            pinned_forever = true;
                            cur = None;
                            prev_hash = None;
                            ctx.trace_mark(EventKind::ReplayGiveUp, iter as u64);
                        } else {
                            let h = g.structural_hash();
                            if let Some(p) = prev_hash {
                                cache!().note_transition(p, h);
                            }
                            cache!().insert(Arc::clone(&g));
                            prev_hash = Some(h);
                            cur = Some(pick_next(cache!(), h, g));
                        }
                    }
                    Some(g) => {
                        // Replay: spawns are matched against the frozen
                        // graph one by one and fed straight to it; a
                        // first-spawn mismatch may swap in another cached
                        // graph (phase switch), any other mismatch
                        // degrades to the dependency system.
                        ctx.trace_mark(EventKind::ReplayIterBegin, iter as u64);
                        let nested0 = ctx.nested_spawn_count();
                        let state = cap.make_state(g);
                        mark_partitions(ctx, &state);
                        cap.set_feed(Arc::clone(&state));
                        let feed_t0 = feed_hist.as_ref().map(|_| std::time::Instant::now());
                        body(ctx);
                        if let (Some(h), Some(t0)) = (&feed_hist, feed_t0) {
                            h.record(0, t0.elapsed().as_nanos() as u64);
                        }
                        let end = cap.end_feed().expect("feed mode active");
                        ctx.taskwait();
                        // The feed target may have been swapped by the
                        // first-spawn phase switch: count the state that
                        // actually fed (`end.state`), not the scheduled
                        // one.
                        report.routed_releases += end.state.routed.load(Ordering::Relaxed);
                        if let Some(p) = &end.state.part {
                            report.partitions = p.parts();
                            report.partition_cut_edges = p.cut_edges();
                        }
                        let complete = !end.diverged && end.spawned == end.state.graph.len();
                        let nested = ctx.nested_spawn_count() - nested0;
                        // Macro (not a closure: it mutates half the loop
                        // state) for the permanent nested-domain pin —
                        // shared by every path that observes nesting.
                        macro_rules! pin_nested {
                            () => {{
                                report.nested_spawns += nested;
                                report.pinned_nested = true;
                                report.giveups += 1;
                                pinned = true;
                                pinned_forever = true;
                                cur = None;
                                prev_hash = None;
                                ctx.trace_mark(EventKind::ReplayGiveUp, iter as u64);
                            }};
                        }
                        if complete {
                            debug_assert_eq!(
                                end.state.launched.load(Ordering::Relaxed),
                                end.state.graph.len(),
                                "every node released exactly once"
                            );
                            report.replayed += 1;
                            report.cache_hits += 1;
                            fails = 0;
                            let h = end.state.graph.structural_hash();
                            cache!().note_replay(h);
                            if end.switched {
                                ctx.trace_mark(EventKind::ReplayCacheHit, iter as u64);
                            }
                            if nested > 0 {
                                // The body started spawning nested
                                // children only *after* its graph was
                                // frozen: replay cannot order them, so
                                // stop replaying from here on.
                                pin_nested!();
                            } else {
                                if let Some(p) = prev_hash {
                                    cache!().note_transition(p, h);
                                }
                                cur = Some(pick_next(cache!(), h, Arc::clone(&end.state.graph)));
                                prev_hash = Some(h);
                            }
                        } else {
                            // Divergent (or truncated) iteration: it ran
                            // correctly via prefix + barrier + dependency
                            // system; fold any reduction groups the fed
                            // prefix touched (no-op if the divergence
                            // path already did).
                            end.state.combine_partial();
                            report.diverged += 1;
                            fails += 1;
                            // This iteration's full shape is known:
                            // probe the cache and only freeze a new
                            // graph on a miss.
                            let captured = if end.diverged {
                                end.captured
                            } else {
                                end.state.graph.prefix_captured(end.spawned)
                            };
                            let h = GraphRecorder::structural_hash(&captured);
                            if let Some(hit) = cache!().get(h) {
                                report.cache_hits += 1;
                                ctx.trace_mark(EventKind::ReplayCacheHit, iter as u64);
                                if nested > 0 {
                                    pin_nested!();
                                } else {
                                    if let Some(p) = prev_hash {
                                        cache!().note_transition(p, h);
                                    }
                                    prev_hash = Some(h);
                                    cur = Some(pick_next(cache!(), h, hit));
                                }
                            } else {
                                report.rerecords += 1;
                                report.cache_misses += 1;
                                let freeze_t0 = std::time::Instant::now();
                                let ng = Arc::new(ReplayGraph::build(&captured, &[]));
                                report.freeze_ns += freeze_t0.elapsed().as_nanos() as u64;
                                last_graph = Some(Arc::clone(&ng));
                                if nested > 0 {
                                    pin_nested!();
                                } else {
                                    if let Some(p) = prev_hash {
                                        cache!().note_transition(p, h);
                                    }
                                    cache!().insert(Arc::clone(&ng));
                                    prev_hash = Some(h);
                                    cur = Some(pick_next(cache!(), h, ng));
                                }
                            }
                            if !pinned && giveup_after > 0 && fails >= giveup_after {
                                // Too many consecutive failures to replay:
                                // stop paying record costs, pin to the
                                // dependency system. The predictor must
                                // not learn across the unobserved pinned
                                // stretch, so forget the last-seen hash.
                                report.giveups += 1;
                                pinned = true;
                                since_probe = 0;
                                last_probe_hash = None;
                                cur = None;
                                prev_hash = None;
                                ctx.trace_mark(EventKind::ReplayGiveUp, iter as u64);
                            }
                        }
                        ctx.trace_mark(EventKind::ReplayIterEnd, iter as u64);
                    }
                }
                check_faults!();
                report.iterations += 1;
            }
            if let Some(g) = last_graph {
                report.tasks = g.len();
                report.edges = g.edge_count();
                report.edge_list = g.edge_pairs();
                report.foreign_edges = g.foreign_edge_count();
                report.graph_bytes = g.bytes();
            }
            report.cache_evictions = cache!().evictions();
            report.per_graph_replays = cache!().per_graph_replays();
            let (heap_ops, seeds, seed_reused, seed_total) = cache!().partition_stats();
            report.heap_ops = heap_ops;
            report.partition_seeds = seeds;
            report.partition_seed_reused = seed_reused;
            report.partition_seed_total = seed_total;
            *result.lock().unwrap() = report;
        });
        self.set_spawn_capture(None);
        let mut report = Arc::try_unwrap(out)
            .map(|m| m.into_inner().unwrap())
            .unwrap_or_default();
        // Allocator-side evidence, read from the runtime after the run:
        // recycled spawns as a per-run delta, the memory peak as the
        // runtime-lifetime high-water mark.
        report.tasks_recycled = self.tasks_recycled().saturating_sub(recycled0);
        report.peak_task_bytes = self.peak_task_bytes();
        obs.mirror(&report);
        (report, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanotask_core::{RuntimeConfig, SendPtr};
    use std::sync::atomic::AtomicU64;

    /// Every iteration must be classified exactly once — asserted by the
    /// report itself ([`ReplayReport::assert_classification`]), in one
    /// place instead of per-test copies.
    fn check_invariants(report: &ReplayReport) {
        report.assert_classification();
    }

    #[test]
    fn empty_iterations_are_fine() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        let report = rt.run_iterative(3, |_| {});
        assert_eq!(report.iterations, 3);
        assert_eq!(report.replayed, 2);
        assert_eq!(report.tasks, 0);
        check_invariants(&report);
    }

    #[test]
    fn zero_iters_is_a_noop() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        let report = rt.run_iterative(0, |_| panic!("must not run"));
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn chain_replays_in_order() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = SendPtr::new(data);
        let report = rt.run_iterative(5, move |ctx| {
            for _ in 0..10 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        assert_eq!(unsafe { *data }, 50);
        assert_eq!(report.iterations, 5);
        assert_eq!(report.replayed, 4);
        assert_eq!(report.rerecords, 1);
        assert_eq!(report.diverged, 0);
        assert_eq!(report.tasks, 10);
        assert_eq!(report.edges, 9);
        assert_eq!(report.cache_hits, 4);
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.per_graph_replays.len(), 1);
        assert_eq!(report.per_graph_replays[0].1, 10, "tasks per graph");
        assert_eq!(report.per_graph_replays[0].2, 4, "replays of the graph");
        check_invariants(&report);
        unsafe { drop(Box::from_raw(data)) };
    }

    /// The registry view written by [`ReplayObs::mirror`] must agree
    /// with the bespoke report field-by-field, and accumulate across
    /// runs on one runtime.
    #[test]
    fn registry_mirrors_the_report() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3).with_metrics(true));
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        let report = rt.run_iterative(6, move |ctx| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                ctx.spawn(Deps::new(), move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        check_invariants(&report);
        let snap = rt.metrics_snapshot();
        let pairs: [(&str, u64); 10] = [
            ("nanotask_replay_iterations_total", report.iterations as u64),
            ("nanotask_replay_replayed_total", report.replayed as u64),
            ("nanotask_replay_rerecords_total", report.rerecords as u64),
            ("nanotask_replay_diverged_total", report.diverged as u64),
            ("nanotask_replay_cache_hits_total", report.cache_hits as u64),
            (
                "nanotask_replay_cache_misses_total",
                report.cache_misses as u64,
            ),
            (
                "nanotask_replay_cache_evictions_total",
                report.cache_evictions,
            ),
            (
                "nanotask_replay_pinned_iterations_total",
                report.pinned_iterations as u64,
            ),
            ("nanotask_replay_giveups_total", report.giveups as u64),
            ("nanotask_replay_nested_spawns_total", report.nested_spawns),
        ];
        for (name, want) in pairs {
            assert_eq!(snap.counter(name), Some(want), "{name}");
        }
        // Memory/freeze evidence: populated in the report and mirrored
        // (counters as running sums, sizes as high-water marks).
        assert!(report.freeze_ns > 0, "record iteration froze a graph");
        assert!(report.graph_bytes > 0, "frozen graph has a footprint");
        assert!(report.peak_task_bytes > 0, "tasks were live");
        assert!(report.tasks_recycled > 0, "iterations recycle shells");
        assert_eq!(
            snap.counter("nanotask_replay_freeze_ns_total"),
            Some(report.freeze_ns)
        );
        assert_eq!(
            snap.counter("nanotask_replay_tasks_recycled_total"),
            Some(report.tasks_recycled)
        );
        assert_eq!(
            snap.gauge("nanotask_replay_graph_bytes"),
            Some(report.graph_bytes)
        );
        assert_eq!(
            snap.gauge("nanotask_replay_peak_task_bytes"),
            Some(report.peak_task_bytes)
        );
        // Metrics are on: every replay-arm iteration (complete or
        // diverged) records exactly one feed-time sample.
        let feed = snap.histogram("nanotask_replay_feed_ns").unwrap();
        assert_eq!(feed.count, (report.replayed + report.diverged) as u64);
        // A second run on the same runtime accumulates into the registry.
        let c = Arc::clone(&count);
        let second = rt.run_iterative(4, move |ctx| {
            let c = Arc::clone(&c);
            ctx.spawn(Deps::new(), move |_| {
                c.fetch_add(1, Ordering::Relaxed);
            });
        });
        let snap = rt.metrics_snapshot();
        assert_eq!(
            snap.counter("nanotask_replay_iterations_total"),
            Some((report.iterations + second.iterations) as u64)
        );
    }

    #[test]
    fn independent_tasks_all_execute() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        let report = rt.run_iterative(4, move |ctx| {
            for _ in 0..32 {
                let c = Arc::clone(&c);
                ctx.spawn(Deps::new(), move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 4 * 32);
        assert_eq!(report.edges, 0);
        check_invariants(&report);
    }

    #[test]
    fn reductions_replay_with_slots() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let acc = Box::leak(Box::new(0.0f64)) as *mut f64;
        let p = SendPtr::new(acc);
        let iters = 6u64;
        let n = 16u64;
        rt.run_iterative(iters as usize, move |ctx| {
            for i in 0..n {
                ctx.spawn(
                    Deps::new().reduce_addr(p.addr(), 8, nanotask_core::RedOp::SumF64),
                    move |c| unsafe {
                        let slot = c.red_slot(&*(p.addr() as *const f64));
                        *slot += (i + 1) as f64;
                    },
                );
            }
            // Reader forces the chain to combine before the iteration ends.
            ctx.spawn(Deps::new().read_addr(p.addr()), move |_| {});
        });
        let per_iter: f64 = (n * (n + 1) / 2) as f64;
        assert_eq!(unsafe { *acc }, per_iter * iters as f64);
        unsafe { drop(Box::from_raw(acc)) };
    }

    #[test]
    fn one_entry_cache_thrashes_on_alternating_body() {
        // `replay_cache_size = 1` is the same engine with an undersized
        // cache: every phase flip diverges, misses, freezes the new shape
        // and evicts the other — the alternating body never replays, but
        // stays serially correct and every iteration is classified.
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(2)
                .with_replay_cache_size(1),
        );
        let a = Box::leak(Box::new(0u64)) as *mut u64;
        let b = Box::leak(Box::new(0u64)) as *mut u64;
        let (pa, pb) = (SendPtr::new(a), SendPtr::new(b));
        let iter = Arc::new(AtomicU64::new(0));
        let report = rt.run_iterative(6, move |ctx| {
            let i = iter.fetch_add(1, Ordering::Relaxed);
            let p = if i.is_multiple_of(2) { pa } else { pb };
            for _ in 0..4 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        assert_eq!(unsafe { (*a, *b) }, (12, 12));
        assert_eq!(report.iterations, 6);
        // Record on iteration 0, then a divergent cache miss (freeze +
        // evict) on every flip.
        assert_eq!(report.rerecords, 6);
        assert_eq!(report.diverged, 5);
        assert_eq!(report.cache_evictions, 5);
        assert_eq!(report.replayed, 0);
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.pinned_iterations, 0, "below the give-up threshold");
        check_invariants(&report);
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn one_entry_cache_gives_up_like_any_other_size() {
        // The give-up policy is not a property of the cache size: a
        // thrashing one-entry cache pins after `replay_giveup_after`
        // consecutive failures, and the re-stabilization probe brings a
        // body that settles on one shape back to replay.
        const ITERS: usize = 12;
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(2)
                .with_replay_cache_size(1)
                .with_replay_giveup_after(3)
                .with_replay_recheck_every(2),
        );
        let a = Box::leak(Box::new(0u64)) as *mut u64;
        let b = Box::leak(Box::new(0u64)) as *mut u64;
        let (pa, pb) = (SendPtr::new(a), SendPtr::new(b));
        let iter = Arc::new(AtomicU64::new(0));
        let report = rt.run_iterative(ITERS, move |ctx| {
            let i = iter.fetch_add(1, Ordering::Relaxed);
            // Alternate for 3 iterations, then settle on `a`.
            let p = if i < 3 && !i.is_multiple_of(2) {
                pb
            } else {
                pa
            };
            ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                *p.get() += 1;
            });
        });
        assert_eq!(unsafe { (*a, *b) }, (ITERS as u64 - 1, 1));
        // it0 record a, it1/it2 divergent misses → pin at the 3rd
        // consecutive failure; it3 pinned, it4 probe hits the cached `a`
        // (frozen at it2), it5.. replay.
        assert_eq!(report.giveups, 1, "{report}");
        assert_eq!(report.rerecords, 3, "{report}");
        assert_eq!(report.pinned_iterations, 2, "{report}");
        assert_eq!(report.replayed, ITERS - 5, "{report}");
        assert!(!report.pinned_nested);
        check_invariants(&report);
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn alternating_body_served_from_cache() {
        // The same alternating body as the one-entry-cache test, with
        // the default cache: each phase records once, then every
        // iteration replays — divergence hysteresis.
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        let a = Box::leak(Box::new(0u64)) as *mut u64;
        let b = Box::leak(Box::new(0u64)) as *mut u64;
        let (pa, pb) = (SendPtr::new(a), SendPtr::new(b));
        let iter = Arc::new(AtomicU64::new(0));
        let report = rt.run_iterative(8, move |ctx| {
            let i = iter.fetch_add(1, Ordering::Relaxed);
            let p = if i.is_multiple_of(2) { pa } else { pb };
            for _ in 0..4 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        assert_eq!(unsafe { (*a, *b) }, (16, 16));
        assert_eq!(report.rerecords, 2, "each phase recorded exactly once");
        assert_eq!(report.diverged, 1, "only the first phase flip diverges");
        assert_eq!(report.replayed, 6, "steady state replays every phase");
        assert_eq!(report.cache_hits, 6);
        assert_eq!(report.cache_misses, 2);
        assert_eq!(report.cache_evictions, 0);
        assert_eq!(report.per_graph_replays.len(), 2);
        let total: u64 = report.per_graph_replays.iter().map(|&(_, _, r)| r).sum();
        assert_eq!(total, 6);
        check_invariants(&report);
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn shared_prefix_alternation_stabilizes_via_predictor() {
        // Phases A and B share their first three spawns and only differ
        // at the tail, so the first-spawn switch probe cannot tell them
        // apart — steady-state replay relies on the cache's phase
        // predictor instead.
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        let a = Box::leak(Box::new(0u64)) as *mut u64;
        let b = Box::leak(Box::new(0u64)) as *mut u64;
        let (pa, pb) = (SendPtr::new(a), SendPtr::new(b));
        let iter = Arc::new(AtomicU64::new(0));
        let report = rt.run_iterative(10, move |ctx| {
            let i = iter.fetch_add(1, Ordering::Relaxed);
            for _ in 0..3 {
                ctx.spawn(Deps::new().readwrite_addr(pa.addr()), move |_| unsafe {
                    *pa.get() += 1;
                });
            }
            if !i.is_multiple_of(2) {
                ctx.spawn(Deps::new().readwrite_addr(pb.addr()), move |_| unsafe {
                    *pb.get() += 1;
                });
            }
        });
        assert_eq!(unsafe { (*a, *b) }, (30, 5));
        assert_eq!(report.rerecords, 2, "each phase recorded exactly once");
        assert_eq!(report.diverged, 2, "one flip per direction, then steady");
        assert_eq!(report.replayed, 7, "iterations 3.. replay via prediction");
        check_invariants(&report);
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn truncated_iteration_counts_as_divergence() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = SendPtr::new(data);
        let iter = Arc::new(AtomicU64::new(0));
        let report = rt.run_iterative(3, move |ctx| {
            // Iteration 1 spawns a strict prefix of the recorded graph.
            let i = iter.fetch_add(1, Ordering::Relaxed);
            let n = if i == 1 { 2 } else { 4 };
            for _ in 0..n {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        assert_eq!(unsafe { *data }, 10);
        // Iteration 1 truncates (freezing the 2-task prefix as its own
        // graph); iteration 2 then overruns that short graph but its
        // full shape hash-matches the original recording — a cache hit,
        // not a third record.
        assert_eq!(report.diverged, 2);
        assert_eq!(report.rerecords, 2);
        assert_eq!(report.cache_hits, 1);
        check_invariants(&report);
        unsafe { drop(Box::from_raw(data)) };
    }

    #[test]
    fn duplicate_address_decls_do_not_deadlock_replay() {
        // Duplicate addresses within one task are a contract violation
        // (Deps::push debug_asserts them); mixed-mode duplicates deadlock
        // the dependency system itself, so only the reader+reader form —
        // which the wait-free system tolerates via early read forwarding —
        // can be driven end-to-end. The builder coalesces it to a single
        // access instead of emitting degenerate edges (the mixed-mode
        // coalescing is pinned by the graph unit test
        // `duplicate_address_decls_never_self_edge`).
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        let data = Box::leak(Box::new(7u64)) as *mut u64;
        let seen = Arc::new(AtomicU64::new(0));
        let p = SendPtr::new(data);
        let report = {
            let seen = Arc::clone(&seen);
            rt.run_iterative(4, move |ctx| {
                let writer_decls = vec![nanotask_core::AccessDecl::new(
                    p.addr(),
                    8,
                    nanotask_core::AccessMode::ReadWrite,
                )];
                ctx.spawn_labeled("w", Deps::from_decls(writer_decls), move |_| unsafe {
                    *p.get() += 1;
                });
                let dup_read_decls = vec![
                    nanotask_core::AccessDecl::new(p.addr(), 8, nanotask_core::AccessMode::Read),
                    nanotask_core::AccessDecl::new(p.addr(), 8, nanotask_core::AccessMode::Read),
                ];
                let seen = Arc::clone(&seen);
                ctx.spawn_labeled("rr", Deps::from_decls(dup_read_decls), move |_| {
                    seen.fetch_add(unsafe { *p.get() }, Ordering::Relaxed);
                });
            })
        };
        assert_eq!(unsafe { *data }, 11);
        // The reader always observes the just-incremented value: 8+9+10+11.
        assert_eq!(seen.load(Ordering::Relaxed), 38);
        assert_eq!(report.replayed, 3, "no divergence, no deadlock");
        assert_eq!(report.edges, 1, "duplicate reads coalesced into one edge");
        unsafe { drop(Box::from_raw(data)) };
    }

    #[test]
    fn divergence_preserves_partial_reduction_contributions() {
        // Recorded graph: a 4-member SumF64 group (+ trailing reader).
        // The next iteration feeds only 2 members before diverging; their
        // private-slot contributions must still reach the target. The
        // third iteration diverges from the frozen 2-member shape but
        // hash-matches the original graph — the cache-hit divergence path
        // must preserve reduction contributions just the same.
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        let acc = Box::leak(Box::new(0.0f64)) as *mut f64;
        let other = Box::leak(Box::new(0u64)) as *mut u64;
        let (pa, po) = (SendPtr::new(acc), SendPtr::new(other));
        let iter = Arc::new(AtomicU64::new(0));
        let report = rt.run_iterative(3, move |ctx| {
            let it = iter.fetch_add(1, Ordering::Relaxed);
            let members = if it == 1 { 2 } else { 4 };
            for i in 0..members {
                ctx.spawn(
                    Deps::new().reduce_addr(pa.addr(), 8, nanotask_core::RedOp::SumF64),
                    move |c| unsafe {
                        *c.red_slot(&*(pa.addr() as *const f64)) += (i + 1) as f64;
                    },
                );
            }
            if it == 1 {
                // Divergent third spawn: different shape than the
                // recorded node 2.
                ctx.spawn(Deps::new().readwrite_addr(po.addr()), move |_| unsafe {
                    *po.get() += 1;
                });
            } else {
                ctx.spawn(Deps::new().read_addr(pa.addr()), move |_| {});
            }
        });
        // Iterations 0 and 2: 1+2+3+4 = 10 each; iteration 1: 1+2 = 3.
        assert_eq!(unsafe { *acc }, 23.0, "partial group contributions kept");
        assert_eq!(unsafe { *other }, 1);
        assert_eq!(report.diverged, 2);
        assert_eq!(report.rerecords, 2);
        assert_eq!(report.cache_hits, 1, "iteration 2 matches the recording");
        check_invariants(&report);
        unsafe {
            drop(Box::from_raw(acc));
            drop(Box::from_raw(other));
        }
    }

    #[test]
    fn permanently_dynamic_body_gives_up_and_pins() {
        // A body whose shape never repeats: after `replay_giveup_after`
        // consecutive failures the engine pins it to the dependency
        // system; hash probes never see a repeat, so it stays pinned.
        const ITERS: usize = 20;
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(2)
                .with_replay_giveup_after(3)
                .with_replay_recheck_every(4),
        );
        let slots = Box::leak(vec![0u64; ITERS].into_boxed_slice());
        let base = SendPtr::new(slots.as_mut_ptr());
        let iter = Arc::new(AtomicU64::new(0));
        let report = rt.run_iterative(ITERS, move |ctx| {
            let i = iter.fetch_add(1, Ordering::Relaxed) as usize;
            let p = unsafe { base.add(i) };
            for _ in 0..2 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(*s, 2, "slot {i} ran in every mode");
        }
        assert_eq!(report.replayed, 0);
        assert_eq!(report.giveups, 1);
        // Record + two divergences hit the threshold of 3; the rest of
        // the run is pinned.
        assert_eq!(report.rerecords, 3);
        assert_eq!(report.pinned_iterations, ITERS - 3);
        check_invariants(&report);
        unsafe { drop(Box::from_raw(slots as *mut [u64])) };
    }

    #[test]
    fn pinned_body_restabilizes_to_cached_graph() {
        // Stable phase A, a dynamic burst that pins the body, then back
        // to A: the periodic hash probe finds A in the cache and replay
        // resumes.
        const ITERS: usize = 8;
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(2)
                .with_replay_giveup_after(2)
                .with_replay_recheck_every(2),
        );
        let a = Box::leak(Box::new(0u64)) as *mut u64;
        let noise = Box::leak(vec![0u64; ITERS].into_boxed_slice());
        let pa = SendPtr::new(a);
        let pn = SendPtr::new(noise.as_mut_ptr());
        let iter = Arc::new(AtomicU64::new(0));
        let report = rt.run_iterative(ITERS, move |ctx| {
            let i = iter.fetch_add(1, Ordering::Relaxed) as usize;
            if (2..4).contains(&i) {
                // Dynamic burst: a unique shape per iteration.
                let p = unsafe { pn.add(i) };
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            } else {
                ctx.spawn(Deps::new().readwrite_addr(pa.addr()), move |_| unsafe {
                    *pa.get() += 1;
                });
            }
        });
        assert_eq!(unsafe { *a }, (ITERS - 2) as u64);
        assert_eq!((noise[2], noise[3]), (1, 1));
        // it0 record A, it1 replay A, it2/it3 diverge (pin at the 2nd
        // consecutive failure), it4 pinned, it5 probe hits A, it6..7
        // replay A again.
        assert_eq!(report.giveups, 1);
        assert_eq!(report.replayed, 3);
        assert_eq!(report.pinned_iterations, 2);
        assert!(!report.pinned_nested);
        check_invariants(&report);
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(noise as *mut [u64]));
        }
    }

    #[test]
    fn nested_spawning_body_is_pinned_not_replayed() {
        // Replay cannot see cross-sibling dependencies of nested tasks,
        // so a body whose tasks spawn children must be pinned to the
        // dependency system after the record iteration detects nesting.
        const ITERS: usize = 5;
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        let report = rt.run_iterative(ITERS, move |ctx| {
            for _ in 0..3 {
                let c = Arc::clone(&c);
                ctx.spawn(Deps::new(), move |tc| {
                    let c = Arc::clone(&c);
                    tc.spawn(Deps::new(), move |_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), (3 * ITERS) as u64);
        assert!(report.pinned_nested, "nested domains force fallback");
        assert!(report.nested_spawns >= 3);
        assert_eq!(report.replayed, 0);
        assert_eq!(report.rerecords, 1);
        assert_eq!(report.pinned_iterations, ITERS - 1);
        check_invariants(&report);
    }

    #[test]
    fn late_nesting_body_stops_replaying() {
        // Nested children appear only *after* the graph was recorded
        // (record saw no nesting, so the graph got cached): the replay
        // path must notice the nested-spawn delta and pin, not keep
        // replaying a graph that cannot order the children — at every
        // cache size, a one-entry cache included.
        const ITERS: usize = 6;
        for cache_size in [1, 2, 4] {
            let rt = Runtime::new(
                RuntimeConfig::optimized()
                    .workers(2)
                    .with_replay_cache_size(cache_size),
            );
            let count = Arc::new(AtomicU64::new(0));
            let iter = Arc::new(AtomicU64::new(0));
            let report = {
                let (count, iter) = (Arc::clone(&count), Arc::clone(&iter));
                rt.run_iterative(ITERS, move |ctx| {
                    let i = iter.fetch_add(1, Ordering::Relaxed);
                    for _ in 0..2 {
                        let count = Arc::clone(&count);
                        ctx.spawn(Deps::new(), move |tc| {
                            if i >= 2 {
                                let count = Arc::clone(&count);
                                tc.spawn(Deps::new(), move |_| {
                                    count.fetch_add(1, Ordering::Relaxed);
                                });
                            } else {
                                count.fetch_add(1, Ordering::Relaxed);
                            }
                        });
                    }
                })
            };
            assert_eq!(count.load(Ordering::Relaxed), (2 * ITERS) as u64);
            // Iterations 0/1 record + replay cleanly; iteration 2 replays
            // but observes nested spawns and pins; 3.. stay pinned.
            assert!(report.pinned_nested, "cache={cache_size}: {report:?}");
            assert_eq!(report.nested_spawns, 2, "cache={cache_size}: {report:?}");
            assert_eq!(report.replayed, 2, "cache={cache_size}: {report:?}");
            assert_eq!(
                report.pinned_iterations,
                ITERS - 3,
                "cache={cache_size}: {report:?}"
            );
            assert_eq!(report.giveups, 1, "cache={cache_size}");
            check_invariants(&report);
        }
    }

    #[test]
    fn replay_chains_bypass_queue_with_fast_path() {
        let rt = Runtime::new(
            nanotask_core::RuntimeConfig::optimized()
                .workers(2)
                .fast_path(true),
        );
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = SendPtr::new(data);
        let report = rt.run_iterative(6, move |ctx| {
            for _ in 0..20 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        assert_eq!(unsafe { *data }, 120);
        assert_eq!(report.replayed, 5);
        assert_eq!(report.diverged, 0);
        let rr = rt.run_report();
        assert!(
            rr.inline_runs > 0,
            "replayed chain successors ran inline: {rr:?}"
        );
        assert_eq!(rt.live_tasks(), 0);
        unsafe { drop(Box::from_raw(data)) };
    }

    #[test]
    fn divergent_replay_correct_under_fast_path() {
        // One-entry cache: every phase flip diverges on its first spawn
        // and taskwaits before falling back — the deferred-release flush
        // at taskwait entry must make that safe, repeatedly.
        let rt = Runtime::new(
            nanotask_core::RuntimeConfig::optimized()
                .workers(2)
                .fast_path(true)
                .with_replay_cache_size(1),
        );
        let a = Box::leak(Box::new(0u64)) as *mut u64;
        let b = Box::leak(Box::new(0u64)) as *mut u64;
        let (pa, pb) = (SendPtr::new(a), SendPtr::new(b));
        let iter = Arc::new(AtomicU64::new(0));
        let report = rt.run_iterative(6, move |ctx| {
            let i = iter.fetch_add(1, Ordering::Relaxed);
            let p = if i.is_multiple_of(2) { pa } else { pb };
            for _ in 0..4 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        assert_eq!(unsafe { (*a, *b) }, (12, 12));
        assert_eq!(report.diverged, 5);
        assert_eq!(rt.live_tasks(), 0);
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn alternating_replay_correct_under_fast_path() {
        // Cached mode + zero-queue fast path: the phase switch swaps the
        // feed target before anything was committed, so every phase
        // replays and the deferred-release machinery sees only complete
        // iterations.
        let rt = Runtime::new(
            nanotask_core::RuntimeConfig::optimized()
                .workers(2)
                .fast_path(true),
        );
        let a = Box::leak(Box::new(0u64)) as *mut u64;
        let b = Box::leak(Box::new(0u64)) as *mut u64;
        let (pa, pb) = (SendPtr::new(a), SendPtr::new(b));
        let iter = Arc::new(AtomicU64::new(0));
        let report = rt.run_iterative(6, move |ctx| {
            let i = iter.fetch_add(1, Ordering::Relaxed);
            let p = if i.is_multiple_of(2) { pa } else { pb };
            for _ in 0..4 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        assert_eq!(unsafe { (*a, *b) }, (12, 12));
        assert_eq!(report.diverged, 1);
        assert_eq!(report.replayed, 4);
        assert_eq!(rt.live_tasks(), 0);
        check_invariants(&report);
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn tasks_reclaimed_after_replay() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = SendPtr::new(data);
        rt.run_iterative(4, move |ctx| {
            for _ in 0..8 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        assert_eq!(rt.live_tasks(), 0, "all task objects reclaimed");
        let s = rt.stats();
        assert_eq!(s.tasks_created, s.tasks_freed);
        unsafe { drop(Box::from_raw(data)) };
    }

    #[test]
    fn partitioned_replay_routes_every_release() {
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(4)
                .with_numa_nodes(2)
                .with_replay_partitioning(true),
        );
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = SendPtr::new(data);
        let report = rt.run_iterative(6, move |ctx| {
            for _ in 0..10 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        assert_eq!(unsafe { *data }, 60);
        assert_eq!(report.replayed, 5);
        assert_eq!(report.partitions, 2);
        // Every replayed release was routed: 10 tasks × 5 replays.
        assert_eq!(report.routed_releases, 50, "{report}");
        assert_eq!(report.partition_cut_edges, 1, "a split chain cuts once");
        let rr = rt.run_report();
        assert_eq!(
            rr.sched.targeted_tasks, report.routed_releases,
            "engine-side and scheduler-side routing counts agree"
        );
        let targeted: u64 = rr.node_stats.iter().map(|n| n.targeted_tasks).sum();
        assert_eq!(targeted, 50, "{:?}", rr.node_stats);
        assert!(
            rr.node_stats.iter().all(|n| n.targeted_tasks > 0),
            "a split chain feeds both node buffers: {:?}",
            rr.node_stats
        );
        check_invariants(&report);
        assert_eq!(rt.live_tasks(), 0);
        unsafe { drop(Box::from_raw(data)) };
    }

    #[test]
    fn partitioning_off_keeps_paths_untouched() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(4).with_numa_nodes(2));
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = SendPtr::new(data);
        let report = rt.run_iterative(4, move |ctx| {
            for _ in 0..8 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        assert_eq!(unsafe { *data }, 32);
        assert_eq!(report.partitions, 0, "knob off: no partitioning");
        assert_eq!(report.routed_releases, 0);
        let rr = rt.run_report();
        assert_eq!(rr.sched.targeted_batch_adds, 0, "no targeted inserts");
        assert_eq!(rr.sched.targeted_tasks, 0);
        check_invariants(&report);
        unsafe { drop(Box::from_raw(data)) };
    }

    #[test]
    fn partitioned_replay_correct_under_fast_path_and_divergence() {
        // Partitioning + zero-queue fast path + an alternating body that
        // exercises the phase switch and the divergence path: routed
        // releases must stay correct through all of it.
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(4)
                .with_numa_nodes(2)
                .with_replay_partitioning(true)
                .fast_path(true),
        );
        let a = Box::leak(Box::new(0u64)) as *mut u64;
        let b = Box::leak(Box::new(0u64)) as *mut u64;
        let (pa, pb) = (SendPtr::new(a), SendPtr::new(b));
        let iter = Arc::new(AtomicU64::new(0));
        let report = rt.run_iterative(8, move |ctx| {
            let i = iter.fetch_add(1, Ordering::Relaxed);
            let p = if i.is_multiple_of(2) { pa } else { pb };
            for _ in 0..6 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        assert_eq!(unsafe { (*a, *b) }, (24, 24));
        assert_eq!(report.partitions, 2);
        assert!(report.routed_releases > 0, "{report}");
        check_invariants(&report);
        assert_eq!(rt.live_tasks(), 0);
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn partitioned_reductions_replay_correctly() {
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(4)
                .with_numa_nodes(2)
                .with_replay_partitioning(true),
        );
        let acc = Box::leak(Box::new(0.0f64)) as *mut f64;
        let p = SendPtr::new(acc);
        let iters = 5u64;
        let n = 12u64;
        rt.run_iterative(iters as usize, move |ctx| {
            for i in 0..n {
                ctx.spawn(
                    Deps::new().reduce_addr(p.addr(), 8, nanotask_core::RedOp::SumF64),
                    move |c| unsafe {
                        *c.red_slot(&*(p.addr() as *const f64)) += (i + 1) as f64;
                    },
                );
            }
            ctx.spawn(Deps::new().read_addr(p.addr()), move |_| {});
        });
        let per_iter: f64 = (n * (n + 1) / 2) as f64;
        assert_eq!(unsafe { *acc }, per_iter * iters as f64);
        unsafe { drop(Box::from_raw(acc)) };
    }

    #[test]
    fn partitioned_fast_path_keeps_same_node_successors_inline() {
        // Zero-queue fast path × NUMA partitioning: a replayed chain's
        // same-node successors must run inline (dependence locality
        // composing with partition locality) instead of round-tripping
        // their node queue — counted by `SchedOpStats::inline_routed`.
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(4)
                .with_numa_nodes(2)
                .with_replay_partitioning(true)
                .fast_path(true),
        );
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = SendPtr::new(data);
        let report = rt.run_iterative(6, move |ctx| {
            for _ in 0..20 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        assert_eq!(unsafe { *data }, 120);
        assert_eq!(report.replayed, 5);
        assert!(report.routed_releases > 0, "{report}");
        assert!(report.heap_ops > 0, "{report}");
        let rr = rt.run_report();
        assert!(
            rr.sched.inline_routed > 0,
            "same-node successors kept inline: {:?}",
            rr.sched
        );
        assert!(
            rr.sched.inline_routed <= report.routed_releases,
            "inline-kept releases are a subset of routed releases"
        );
        check_invariants(&report);
        assert_eq!(rt.live_tasks(), 0);
        unsafe { drop(Box::from_raw(data)) };
    }

    #[test]
    fn eviction_reentry_seeds_partitioning() {
        // Period-3 phase cycle with a 2-entry cache and partitioning on:
        // shapes keep evicting each other, and every re-entry must adopt
        // the evicted assignment (100 % reuse — the graphs re-enter
        // unchanged) instead of recomputing from scratch.
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(2)
                .with_numa_nodes(2)
                .with_replay_partitioning(true)
                .with_replay_cache_size(2)
                .with_replay_giveup_after(0),
        );
        let slots = Box::leak(vec![0u64; 3].into_boxed_slice());
        let base = SendPtr::new(slots.as_mut_ptr());
        let iter = Arc::new(AtomicU64::new(0));
        let report = rt.run_iterative(12, move |ctx| {
            let i = iter.fetch_add(1, Ordering::Relaxed) as usize;
            let p = unsafe { base.add(i % 3) };
            for _ in 0..4 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        for s in slots.iter() {
            assert_eq!(*s, 16);
        }
        assert!(report.cache_evictions > 0, "{report:?}");
        assert!(report.partition_seeds > 0, "re-entries seeded: {report}");
        assert_eq!(
            report.partition_seed_reused, report.partition_seed_total,
            "unchanged graphs reuse the full assignment: {report}"
        );
        check_invariants(&report);
        unsafe { drop(Box::from_raw(slots as *mut [u64])) };
    }

    #[test]
    fn report_display_includes_cache_and_partition_counters() {
        let report = ReplayReport {
            iterations: 4,
            replayed: 3,
            cache_hits: 3,
            cache_misses: 1,
            cache_evictions: 2,
            pinned_iterations: 0,
            giveups: 1,
            partitions: 2,
            routed_releases: 30,
            partition_cut_edges: 5,
            ..ReplayReport::default()
        };
        let s = report.to_string();
        assert!(s.contains("hits=3"), "{s}");
        assert!(s.contains("misses=1"), "{s}");
        assert!(s.contains("evictions=2"), "{s}");
        assert!(s.contains("pinned=0"), "{s}");
        assert!(s.contains("giveups=1"), "{s}");
        assert!(s.contains("partitions=2"), "{s}");
        assert!(s.contains("routed=30"), "{s}");
        report.assert_classification();
    }

    #[test]
    #[should_panic(expected = "hits + misses + pinned == iterations")]
    fn classification_violations_are_caught() {
        let report = ReplayReport {
            iterations: 4,
            cache_hits: 1,
            ..ReplayReport::default()
        };
        report.assert_classification();
    }

    #[test]
    fn cache_evictions_are_counted() {
        // Period-3 phase cycle with a 2-entry cache: the third shape
        // always evicts, so the cycle can never fully stabilize and the
        // eviction counter grows.
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(2)
                .with_replay_cache_size(2)
                .with_replay_giveup_after(0),
        );
        let slots = Box::leak(vec![0u64; 3].into_boxed_slice());
        let base = SendPtr::new(slots.as_mut_ptr());
        let iter = Arc::new(AtomicU64::new(0));
        let report = rt.run_iterative(9, move |ctx| {
            let i = iter.fetch_add(1, Ordering::Relaxed) as usize;
            let p = unsafe { base.add(i % 3) };
            ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                *p.get() += 1;
            });
        });
        for s in slots.iter() {
            assert_eq!(*s, 3);
        }
        assert!(report.cache_evictions > 0, "{report:?}");
        assert_eq!(report.pinned_iterations, 0, "give-up disabled");
        check_invariants(&report);
        unsafe { drop(Box::from_raw(slots as *mut [u64])) };
    }

    #[test]
    fn fault_during_replay_cancels_successors_and_rerecords() {
        // Iterations 0 records, 1 replays, 2 replays but node 4 panics:
        // the fed successors 5..9 must be cancelled through the frozen
        // graph's countdown protocol, the graph evicted from the cache,
        // and iteration 3 re-records from a clean dependency-system run.
        // The armed (but never-firing) plan installs the panic hook that
        // keeps planted-panic backtraces out of the test output.
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(2)
                .with_fault_plan(nanotask_core::FaultPlan::never()),
        );
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = SendPtr::new(data);
        let iter = Arc::new(AtomicU64::new(0));
        let (report, outcome) = rt.run_iterative_outcome(5, move |ctx| {
            let it = iter.fetch_add(1, Ordering::Relaxed);
            for k in 0..10u64 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| {
                    if it == 2 && k == 4 {
                        std::panic::panic_any(format!(
                            "{}: planted",
                            nanotask_core::FAULT_PANIC_PREFIX
                        ));
                    }
                    unsafe { *p.get() += 1 };
                });
            }
        });
        // 10 + 10 + 4 (nodes 0..3 of the faulted iteration) + 10 + 10.
        assert_eq!(unsafe { *data }, 44);
        assert_eq!(outcome.failures.len(), 1, "{}", outcome.summary());
        assert_eq!(outcome.tasks_cancelled, 5, "successors 5..9 skipped");
        assert!(outcome.completed);
        assert_eq!(report.faulted, 1, "{report}");
        assert_eq!(report.rerecords, 2, "faulted graph re-recorded: {report}");
        assert_eq!(report.replayed, 3, "{report}");
        assert_eq!(rt.live_tasks(), 0, "no leaked tasks");
        let s = rt.stats();
        assert_eq!(s.tasks_created, s.tasks_freed);
        check_invariants(&report);
        unsafe { drop(Box::from_raw(data)) };
    }

    #[test]
    fn fault_during_record_falls_back_and_recovers() {
        // The panic fires while iteration 0 records through the full
        // dependency system: POISON cancels the chain's tail, the tainted
        // recording is invalidated, and iteration 1 records again.
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(2)
                .with_fault_plan(nanotask_core::FaultPlan::never()),
        );
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = SendPtr::new(data);
        let iter = Arc::new(AtomicU64::new(0));
        let (report, outcome) = rt.run_iterative_outcome(4, move |ctx| {
            let it = iter.fetch_add(1, Ordering::Relaxed);
            for k in 0..8u64 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| {
                    if it == 0 && k == 3 {
                        std::panic::panic_any(format!(
                            "{}: planted",
                            nanotask_core::FAULT_PANIC_PREFIX
                        ));
                    }
                    unsafe { *p.get() += 1 };
                });
            }
        });
        // 3 (faulted record) + 8 + 8 + 8.
        assert_eq!(unsafe { *data }, 27);
        assert_eq!(outcome.failures.len(), 1, "{}", outcome.summary());
        assert_eq!(outcome.tasks_cancelled, 4, "chain tail 4..7 skipped");
        assert_eq!(report.faulted, 1, "{report}");
        assert_eq!(report.rerecords, 2, "{report}");
        assert_eq!(report.replayed, 2, "{report}");
        assert_eq!(rt.live_tasks(), 0);
        check_invariants(&report);
        // A later infallible run on the same runtime is clean.
        let report = rt.run_iterative(2, move |ctx| {
            ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                *p.get() += 1;
            });
        });
        assert_eq!(report.iterations, 2);
        assert_eq!(unsafe { *data }, 29);
        unsafe { drop(Box::from_raw(data)) };
    }

    #[test]
    fn partitioned_replay_fault_routes_cancellation() {
        // The poison transfer must also cover the node-targeted release
        // paths (routed batches and the inline fast-path keep).
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .workers(4)
                .with_numa_nodes(2)
                .with_replay_partitioning(true)
                .fast_path(true)
                .with_fault_plan(nanotask_core::FaultPlan::never()),
        );
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = SendPtr::new(data);
        let iter = Arc::new(AtomicU64::new(0));
        let (report, outcome) = rt.run_iterative_outcome(4, move |ctx| {
            let it = iter.fetch_add(1, Ordering::Relaxed);
            for k in 0..12u64 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| {
                    if it == 2 && k == 6 {
                        std::panic::panic_any(format!(
                            "{}: planted",
                            nanotask_core::FAULT_PANIC_PREFIX
                        ));
                    }
                    unsafe { *p.get() += 1 };
                });
            }
        });
        // 12 + 12 + 6 (faulted replay prefix) + 12.
        assert_eq!(unsafe { *data }, 42);
        assert_eq!(outcome.failures.len(), 1, "{}", outcome.summary());
        assert_eq!(outcome.tasks_cancelled, 5);
        assert_eq!(report.faulted, 1);
        assert_eq!(rt.live_tasks(), 0);
        check_invariants(&report);
        unsafe { drop(Box::from_raw(data)) };
    }
}
