//! The replay engine: [`RunIterative::run_iterative`].
//!
//! Iteration 0 records the body's task graph through the full dependency
//! system; later iterations replay a frozen [`ReplayGraph`]. Frozen
//! graphs live in a [`GraphCache`] keyed by structural hash, giving
//! divergence *hysteresis*: a body that alternates between a small set
//! of shapes (miniAMR-style refine/coarsen phases) re-records each shape
//! once and then replays every phase, instead of re-recording on every
//! alternation. The cache holds [`GRAPH_CACHE_CAPACITY`] (4) graphs; a
//! phase cycle longer than that still evicts on every change. A body that
//! keeps diverging is *pinned* to the dependency system after
//! [`GIVEUP_AFTER`] (8) consecutive iterations that did not replay, with a
//! probe every [`RECHECK_EVERY`] (16) pinned iterations — a record whose
//! shape is only hashed, never frozen — to detect re-stabilization.
//!
//! Every record or fed iteration also counts the tasks the capture did
//! not see, including root `taskwait_on`: the runtime's `tasks_created`
//! delta over the iteration minus the spawns the capture was offered.
//! Nested children and `taskwait_on` helpers are ordered by the
//! dependency system only, which a replayed iteration bypasses, so any
//! surplus pins the body to the dependency system for good.

use core::cell::{Cell, UnsafeCell};
use std::sync::Arc;
use std::time::Instant;

use nanotask_core::{OfferedTask, RunOutcome, Runtime, SpawnCapture, TaskCtx};
use nanotask_obs::{Counter, MaxGauge, Registry};
use nanotask_trace::EventKind;

use crate::cache::GraphCache;
use crate::graph::ReplayGraph;
use crate::recorder::{CapturedSpawn, GraphRecorder, spawn_sig_hash};

/// Frozen graphs the engine keeps, LRU-keyed by structural hash: enough
/// for the phase cycles of the shipped workloads (miniAMR cycles through
/// four shapes, phased Heat through two block sizes).
const GRAPH_CACHE_CAPACITY: usize = 4;

/// Consecutive iterations that could not replay (a record or a
/// divergence) after which the engine pins the body to the dependency
/// system and stops recording.
const GIVEUP_AFTER: usize = 8;

/// While pinned, every this-many iterations the engine records one
/// iteration and only hashes its shape (no graph build) to detect that
/// the body re-stabilized onto a cached or repeating shape.
const RECHECK_EVERY: usize = 16;

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
    /// re-stabilization probes.
    pub pinned_iterations: usize,
    /// Times the engine pinned the body (consecutive-divergence
    /// threshold or nested-domain detection).
    pub giveups: usize,
    /// Tasks the capture did not see, including root `taskwait_on`
    /// helpers, in the recorded or fed iteration that pinned the body.
    /// Non-zero means the body uses nested task domains or `taskwait_on`.
    pub nested_spawns: u64,
    /// The body was pinned because a recorded or fed iteration created
    /// tasks the capture did not see: replay cannot order nested children
    /// or `taskwait_on` helpers against replayed tasks, so the dependency
    /// system stays in charge permanently.
    pub pinned_nested: bool,
    /// Per cached graph: `(structural_hash, tasks, iterations replayed
    /// from it)`, most recently used first. Graphs evicted before the
    /// run ended are not listed.
    pub per_graph_replays: Vec<(u64, usize, u64)>,
    /// Always 0; read by `benchmark/src/adapters.rs::Counts::of_replay`.
    pub routed_releases: u64,
    /// Wall time spent freezing captured iterations into CSR graphs
    /// (the initial record plus every divergence re-freeze), summed.
    pub freeze_ns: u64,
    /// Frozen footprint of the last built graph in bytes
    /// ([`crate::graph::ReplayGraph::bytes`]).
    pub graph_bytes: u64,
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
    /// give-ups).
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "replay: iters={} replayed={} rerecords={} diverged={} | \
             cache: hits={} misses={} evictions={} pinned={} giveups={} | \
             nested: spawns={} pinned_nested={} | \
             graph: tasks={} edges={}",
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
        )?;
        write!(
            f,
            " | mem: freeze_ns={} graph_bytes={}",
            self.freeze_ns, self.graph_bytes,
        )?;
        if self.faulted > 0 {
            write!(f, " | faulted={}", self.faulted)?;
        }
        Ok(())
    }
}

/// Registry handles mirroring the monotone [`ReplayReport`] counters
/// (`nanotask_replay_*_total`). The report stays the source of truth:
/// the registry view is written from it once per `run_iterative` call,
/// so the two compare field by field (`registry_mirrors_the_report`)
/// and the registry accumulates across calls on the same runtime.
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
    freeze_ns: Counter,
    faulted: Counter,
    /// A high-water mark, not a sum: the largest frozen graph.
    graph_bytes: MaxGauge,
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
            freeze_ns: reg.counter("nanotask_replay_freeze_ns_total"),
            faulted: reg.counter("nanotask_replay_faulted_iterations_total"),
            graph_bytes: reg.max_gauge("nanotask_replay_graph_bytes"),
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
        self.freeze_ns.add(0, r.freeze_ns);
        self.faulted.add(0, r.faulted as u64);
        self.graph_bytes.record(0, r.graph_bytes);
    }
}

/// Extension trait adding record & replay execution to [`Runtime`].
pub trait RunIterative {
    /// Run `body` `iters` times. Iteration 0 executes through the full
    /// dependency system while the engine captures every root spawn; later iterations replay frozen graphs, feeding ready tasks
    /// straight to the scheduler and bypassing dependency
    /// registration/release entirely. Each iteration is a barrier (the
    /// next iteration's tasks spawn only after the previous iteration's
    /// subtree completed) and the call returns after the last one.
    ///
    /// The body does *not* have to spawn the same graph every call: up
    /// to four distinct shapes are kept frozen (keyed by structural hash) and a
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

/// The engine's capture: recording every root spawn, or feeding spawns
/// straight into a frozen graph.
enum Mode {
    Off,
    Record(Vec<CapturedSpawn>),
    Feed(Feed),
}

/// One fed iteration: what [`EngineCapture::end_feed`] hands back.
struct Feed {
    /// The graph being fed: the scheduled one, or another cached one
    /// after a first-spawn phase switch.
    graph: Arc<ReplayGraph>,
    /// Node index the next spawn is matched against: the spawns fed
    /// before any divergence (plus the diverging one).
    next: usize,
    diverged: bool,
    /// The feed target was swapped mid-start: the first spawn did not
    /// match the scheduled graph but matched another cached one.
    switched: bool,
    /// After a divergence: the full spawn metadata of this iteration —
    /// the fed prefix reconstructed from the graph plus every fallback
    /// spawn — so the engine can freeze the diverged shape without a
    /// dedicated re-record pass.
    captured: Vec<CapturedSpawn>,
}

impl Feed {
    /// Root spawns the capture was offered during the iteration: every
    /// one after a divergence is in `captured`, before it in `next`.
    fn offered(&self) -> usize {
        if self.diverged {
            self.captured.len()
        } else {
            self.next
        }
    }
}

/// The capture installed by [`RunIterative::run_iterative`].
///
/// Hot state lives in `UnsafeCell`s: the runtime calls `on_spawn` only
/// from the thread executing the root task body, and the engine switches
/// modes / consults the cache only from that same body — all accesses
/// are sequential on one thread (see the `SpawnCapture` docs).
struct EngineCapture {
    mode: UnsafeCell<Mode>,
    cache: UnsafeCell<GraphCache>,
    /// Spawns in the last record: the next one reserves room for them.
    last_record_len: Cell<usize>,
}

unsafe impl Send for EngineCapture {}
unsafe impl Sync for EngineCapture {}

impl EngineCapture {
    fn new() -> Self {
        Self {
            mode: UnsafeCell::new(Mode::Off),
            cache: UnsafeCell::new(GraphCache::new(GRAPH_CACHE_CAPACITY)),
            last_record_len: Cell::new(0),
        }
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

    /// Start recording, with room for as many spawns as the last record
    /// held: a million-spawn record pays one allocation instead of a
    /// doubling-growth series.
    fn set_record(&self) {
        let rec = Vec::with_capacity(self.last_record_len.get());
        unsafe { *self.mode() = Mode::Record(rec) };
    }

    /// Leave record mode; returns the captured spawns in creation order.
    fn end_record(&self) -> Vec<CapturedSpawn> {
        let captured = match core::mem::replace(unsafe { self.mode() }, Mode::Off) {
            Mode::Record(rec) => rec,
            _ => Vec::new(),
        };
        self.last_record_len.set(captured.len());
        captured
    }

    /// Start feeding `graph`: re-arm it and make it the root's
    /// held-children epilogue. The caller is at an iteration barrier (no
    /// unfinished child).
    fn set_feed(&self, ctx: &TaskCtx, graph: Arc<ReplayGraph>) {
        graph.reset();
        ctx.set_held_epilogue(Arc::clone(&graph) as _);
        unsafe {
            *self.mode() = Mode::Feed(Feed {
                graph,
                next: 0,
                diverged: false,
                switched: false,
                captured: Vec::new(),
            })
        };
    }

    /// Leave feed mode, handing back what happened.
    fn end_feed(&self) -> Feed {
        match core::mem::replace(unsafe { self.mode() }, Mode::Off) {
            Mode::Feed(feed) => feed,
            _ => unreachable!("feed mode active"),
        }
    }
}

impl SpawnCapture for EngineCapture {
    fn on_spawn(&self, ctx: &TaskCtx, task: OfferedTask) -> Option<OfferedTask> {
        // SAFETY: root-thread confinement; nothing reached from the calls
        // below (hold, taskwait, cache) re-enters this capture — nested
        // tasks executed while task-waiting are non-root and the runtime
        // only offers root spawns.
        let mode = unsafe { self.mode() };
        let captured = |task: &OfferedTask| {
            let (label, priority, decls) = task.spawn();
            CapturedSpawn::bare(label, priority, decls.to_vec())
        };
        match mode {
            Mode::Off => Some(task),
            Mode::Record(rec) => {
                rec.push(captured(&task));
                Some(task)
            }
            Mode::Feed(f) => {
                if f.diverged {
                    f.captured.push(captured(&task));
                    return Some(task);
                }
                let i = f.next;
                f.next = i + 1;
                let (label, priority, decls) = task.spawn();
                let sig = spawn_sig_hash(label, priority, decls);
                let matched = {
                    let nodes = f.graph.nodes();
                    i < nodes.len() && nodes[i].sig == sig
                };
                if matched {
                    f.graph.feed(ctx, i, task);
                    return None;
                }
                if i == 0 {
                    // Nothing has been fed yet: a cached graph whose
                    // first spawn matches can take over wholesale — the
                    // phase-switch fast path of alternating bodies.
                    if let Some(g) = unsafe { self.cache() }.get_by_first_sig(sig) {
                        // Nothing fed yet: the root has no child.
                        g.reset();
                        ctx.set_held_epilogue(Arc::clone(&g) as _);
                        f.graph = g;
                        f.switched = true;
                        f.graph.feed(ctx, 0, task);
                        return None;
                    }
                }
                // Divergence mid-iteration: wait for the already-fed
                // prefix (its ordering was enforced by the graph), fold
                // any partially-fed reduction groups, then let this and
                // all later spawns go through the dependency system —
                // conservative and correct. The full shape of this
                // iteration is captured on the side (the fed prefix
                // reconstructed from the graph) so the engine can probe
                // the cache / freeze it afterwards.
                f.diverged = true;
                f.captured = f.graph.prefix_captured(i);
                f.captured.push(captured(&task));
                ctx.taskwait();
                f.graph.combine_partial();
                Some(task)
            }
        }
    }
}

/// What the engine does with the next iteration.
enum Plan {
    /// Run it through the dependency system and record its shape.
    Record,
    /// Feed its spawns into this frozen graph.
    Replay(Arc<ReplayGraph>),
    /// Given up after [`GIVEUP_AFTER`] iterations that did not replay:
    /// run through the dependency system, and every [`RECHECK_EVERY`]
    /// iterations probe whether the body re-stabilized.
    Pinned {
        /// Pinned iterations since the last probe.
        since_probe: usize,
        /// Hash the last probe saw, when it missed the cache.
        last_probe: Option<u64>,
    },
    /// The body creates tasks the capture cannot see: replay can never
    /// be safe for it, so the dependency system stays in charge.
    PinnedForever,
}

/// The engine loop's state. It lives in the root body, so every method
/// runs on the root thread (the capture's confinement rule).
struct Engine<'a> {
    ctx: &'a TaskCtx<'a>,
    cap: &'a EngineCapture,
    plan: Plan,
    /// Structural hash of the previous iteration, when known (feeds the
    /// cache's phase predictor).
    prev_hash: Option<u64>,
    /// Consecutive iterations that failed to replay.
    fails: usize,
    /// The last graph this run froze: the report's graph fields.
    last_graph: Option<Arc<ReplayGraph>>,
    report: ReplayReport,
}

impl Engine<'_> {
    fn cache(&mut self) -> &mut GraphCache {
        // SAFETY: root-thread confinement (see the type docs).
        unsafe { self.cap.cache() }
    }

    /// Run one iteration the way the plan says.
    fn iteration(&mut self, iter: usize, body: &dyn Fn(&TaskCtx)) {
        let fails0 = self.ctx.failure_count();
        match &self.plan {
            Plan::Record => self.record(iter, body),
            Plan::Replay(g) => {
                let g = Arc::clone(g);
                self.replay(iter, g, body);
            }
            Plan::Pinned { .. } | Plan::PinnedForever => self.pinned(iter, body),
        }
        if self.ctx.failure_count() != fails0 {
            self.fault();
        }
        self.report.iterations += 1;
    }

    /// Record: execute through the full dependency system, noting every
    /// root spawn, then freeze the shape.
    fn record(&mut self, iter: usize, body: &dyn Fn(&TaskCtx)) {
        let ctx = self.ctx;
        // Read after the iteration's taskwait, the delta counts every
        // task it created; the capture saw `captured.len()` of them.
        let created0 = ctx.tasks_created();
        ctx.trace_mark(EventKind::ReplayRecordBegin, iter as u64);
        self.cap.set_record();
        body(ctx);
        let captured = self.cap.end_record();
        ctx.taskwait();
        self.fails += 1;
        let surplus = ctx.tasks_created() - created0 - captured.len() as u64;
        let g = self.freeze_and_settle(iter, &captured, surplus);
        ctx.trace_mark(EventKind::ReplayRecordEnd, g.len() as u64);
    }

    /// Replay: spawns are matched against the frozen graph one by one
    /// and fed straight to it; a first-spawn mismatch may swap in another
    /// cached graph (phase switch), any other mismatch degrades to the
    /// dependency system.
    fn replay(&mut self, iter: usize, g: Arc<ReplayGraph>, body: &dyn Fn(&TaskCtx)) {
        let ctx = self.ctx;
        let created0 = ctx.tasks_created();
        ctx.trace_mark(EventKind::ReplayIterBegin, iter as u64);
        self.cap.set_feed(ctx, g);
        body(ctx);
        let feed = self.cap.end_feed();
        ctx.taskwait();
        let surplus = ctx.tasks_created() - created0 - feed.offered() as u64;
        // The feed target may have been swapped by the first-spawn phase
        // switch: judge the graph that actually fed, not the scheduled
        // one.
        let graph = &feed.graph;
        if !feed.diverged && feed.next == graph.len() {
            self.report.replayed += 1;
            self.report.cache_hits += 1;
            self.fails = 0;
            let h = graph.structural_hash();
            self.cache().note_replay(h);
            if feed.switched {
                ctx.trace_mark(EventKind::ReplayCacheHit, iter as u64);
            }
            self.settle(iter, surplus, Arc::clone(graph), false);
        } else {
            // Divergent (or truncated) iteration: it ran correctly via
            // prefix + barrier + dependency system; fold any reduction
            // groups the fed prefix touched (no-op if the divergence path
            // already did).
            graph.combine_partial();
            self.report.diverged += 1;
            self.fails += 1;
            // This iteration's full shape is known: probe the cache and
            // only freeze a new graph on a miss.
            let captured = if feed.diverged {
                feed.captured
            } else {
                graph.prefix_captured(feed.next)
            };
            let h = GraphRecorder::structural_hash(&captured);
            if let Some(hit) = self.cache().get(h) {
                self.report.cache_hits += 1;
                ctx.trace_mark(EventKind::ReplayCacheHit, iter as u64);
                self.settle(iter, surplus, hit, false);
            } else {
                self.freeze_and_settle(iter, &captured, surplus);
            }
            if !matches!(self.plan, Plan::PinnedForever) && self.fails >= GIVEUP_AFTER {
                // Too many consecutive failures to replay: stop paying
                // record costs, pin to the dependency system. The
                // predictor must not learn across the unobserved pinned
                // stretch, so forget the last-seen hash.
                self.report.giveups += 1;
                self.plan = Plan::Pinned {
                    since_probe: 0,
                    last_probe: None,
                };
                self.prev_hash = None;
                ctx.trace_mark(EventKind::ReplayGiveUp, iter as u64);
            }
        }
        ctx.trace_mark(EventKind::ReplayIterEnd, iter as u64);
    }

    /// A pinned iteration: the dependency system with the capture off,
    /// or, every [`RECHECK_EVERY`] iterations of a give-up pin, a probe —
    /// a record whose shape is only hashed — asking whether the body
    /// re-stabilized onto a cached (or repeating) shape.
    fn pinned(&mut self, iter: usize, body: &dyn Fn(&TaskCtx)) {
        let ctx = self.ctx;
        self.report.pinned_iterations += 1;
        let probe = match &mut self.plan {
            Plan::Pinned {
                since_probe,
                last_probe,
            } => {
                *since_probe += 1;
                (*since_probe >= RECHECK_EVERY).then_some(*last_probe)
            }
            _ => None,
        };
        let Some(last_probe) = probe else {
            body(ctx);
            ctx.taskwait();
            return;
        };
        self.cap.set_record();
        body(ctx);
        let h = GraphRecorder::structural_hash(&self.cap.end_record());
        ctx.taskwait();
        if let Some(g) = self.cache().get(h) {
            ctx.trace_mark(EventKind::ReplayCacheHit, iter as u64);
            self.fails = 0;
            self.follow(h, g);
        } else if last_probe == Some(h) {
            // Two consecutive probes saw the same uncached shape: record
            // it next iteration.
            self.plan = Plan::Record;
            self.prev_hash = None;
            self.fails = 0;
        } else {
            self.plan = Plan::Pinned {
                since_probe: 0,
                last_probe: Some(h),
            };
        }
    }

    /// A shape no cached graph holds (a record or a divergent miss):
    /// freeze it, then settle. Returns the frozen graph.
    fn freeze_and_settle(
        &mut self,
        iter: usize,
        captured: &[CapturedSpawn],
        surplus: u64,
    ) -> Arc<ReplayGraph> {
        let freeze_t0 = Instant::now();
        let mut g = ReplayGraph::build(captured, &[]);
        g.arm(self.ctx.nworkers());
        let g = Arc::new(g);
        self.report.freeze_ns += freeze_t0.elapsed().as_nanos() as u64;
        self.report.rerecords += 1;
        self.report.cache_misses += 1;
        self.last_graph = Some(Arc::clone(&g));
        self.settle(iter, surplus, Arc::clone(&g), true);
        g
    }

    /// The common end of a recorded or fed iteration. With `surplus`
    /// tasks the capture did not see, pin the body for good; else plan
    /// the graph to follow `g`'s shape, admitting `g` to the cache if
    /// `insert`.
    fn settle(&mut self, iter: usize, surplus: u64, g: Arc<ReplayGraph>, insert: bool) {
        if surplus > 0 {
            self.report.nested_spawns += surplus;
            self.report.pinned_nested = true;
            self.report.giveups += 1;
            self.plan = Plan::PinnedForever;
            self.prev_hash = None;
            self.ctx.trace_mark(EventKind::ReplayGiveUp, iter as u64);
            return;
        }
        if insert {
            self.cache().insert(Arc::clone(&g));
        }
        self.follow(g.structural_hash(), g);
    }

    /// An iteration of shape `h` (graph `g`) just ran: teach the phase
    /// predictor and replay next the predicted successor phase if the
    /// cache knows one, else `g` itself.
    fn follow(&mut self, h: u64, g: Arc<ReplayGraph>) {
        if let Some(p) = self.prev_hash {
            self.cache().note_transition(p, h);
        }
        self.prev_hash = Some(h);
        self.plan = Plan::Replay(self.cache().predict_next(h).unwrap_or(g));
    }

    /// A task body failed during the iteration: drop the graph it ran
    /// from and fall back to the dependency system — the shape
    /// re-records from a clean run on its next occurrence.
    fn fault(&mut self) {
        self.report.faulted += 1;
        if let Some(h) = self.prev_hash.take() {
            self.cache().invalidate(h);
        }
        self.plan = match self.plan {
            Plan::Pinned { since_probe, .. } => Plan::Pinned {
                since_probe,
                last_probe: None,
            },
            Plan::PinnedForever => Plan::PinnedForever,
            Plan::Record | Plan::Replay(_) => Plan::Record,
        };
        // The taskwait barrier just drained every task, so the iteration
        // boundary is safe to act as the poison-recovery point: the next
        // iteration registers on clean addresses.
        self.ctx.reset_fault_propagation();
    }

    /// The finished report: the last frozen graph's shape and the
    /// cache's counters folded in.
    fn finish(mut self) -> ReplayReport {
        if let Some(g) = self.last_graph.take() {
            self.report.tasks = g.len();
            self.report.edges = g.edge_count();
            self.report.edge_list = g.edge_pairs();
            self.report.graph_bytes = g.bytes();
        }
        self.report.cache_evictions = self.cache().evictions();
        self.report.per_graph_replays = self.cache().per_graph_replays();
        self.report
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
        let capture = Arc::new(EngineCapture::new());
        self.set_spawn_capture(Some(Arc::clone(&capture) as _));
        let obs = ReplayObs::new(self.metrics_registry());

        // All iterations run inside ONE root task, separated by taskwait
        // barriers: workers never tear down between iterations, which
        // keeps the per-iteration overhead to the barrier itself.
        let out: Arc<std::sync::Mutex<ReplayReport>> = Arc::default();
        let result = Arc::clone(&out);
        let cap = Arc::clone(&capture);
        let outcome = self.run_outcome(move |ctx| {
            let mut engine = Engine {
                ctx,
                cap: &cap,
                plan: Plan::Record,
                prev_hash: None,
                fails: 0,
                last_graph: None,
                report: ReplayReport::default(),
            };
            for iter in 0..iters {
                engine.iteration(iter, &body);
            }
            *result.lock().expect("only the root body locks the report") = engine.finish();
        });
        self.set_spawn_capture(None);
        let report = Arc::try_unwrap(out)
            .map(|m| m.into_inner().unwrap())
            .unwrap_or_default();
        obs.mirror(&report);
        (report, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanotask_core::{Deps, RuntimeConfig, SendPtr};
    use std::sync::atomic::{AtomicU64, Ordering};

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
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        let recycled0 = rt.run_report().stats.alloc.recycle_hits;
        // "Iterations recycle shells" by pigeonhole. The root spawns
        // every task on worker 0, and each iteration's taskwait returns
        // only after its tasks' shells are freed. A freed shell goes to
        // the freeing worker's shelf; workers 1 and 2 keep at most 63
        // (`SHELF_MAX` − 1 in `nanotask-alloc`) before half spills to the
        // shared overflow. So once 2 × 63 + 1 = 127 shells are freed with
        // none reused yet, at least one sits on worker 0's shelf or in
        // the overflow, and the next spawn reuses it. 64 tasks per
        // iteration free 128 by the end of iteration 1 of 6.
        let report = rt.run_iterative(6, move |ctx| {
            for _ in 0..64 {
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
        assert!(
            rt.run_report().stats.alloc.recycle_hits > recycled0,
            "iterations recycle shells"
        );
        assert_eq!(
            snap.counter("nanotask_replay_freeze_ns_total"),
            Some(report.freeze_ns)
        );
        assert_eq!(
            snap.gauge("nanotask_replay_graph_bytes"),
            Some(report.graph_bytes)
        );
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
    fn alternating_body_served_from_cache() {
        // A body alternating between two shapes: each phase records
        // once, then every iteration replays — divergence hysteresis.
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

    /// Runs a body whose first [`GIVEUP_AFTER`] iterations each spawn a
    /// shape never seen before (one task on a fresh slot), enough
    /// consecutive failures to pin it; from then on every iteration spawns
    /// the shape of slot `settle`, or a fresh shape per iteration when
    /// `settle` is `None`. Checks serial correctness slot by slot.
    fn pin_then_settle(iters: usize, settle: Option<usize>) -> ReplayReport {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        let slots = Box::leak(vec![0u64; iters].into_boxed_slice());
        let base = SendPtr::new(slots.as_mut_ptr());
        let slot_of = move |i: usize| match settle {
            Some(s) if i >= GIVEUP_AFTER => s,
            _ => i,
        };
        let iter = Arc::new(AtomicU64::new(0));
        let report = rt.run_iterative(iters, move |ctx| {
            let i = iter.fetch_add(1, Ordering::Relaxed) as usize;
            let p = unsafe { base.add(slot_of(i)) };
            ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                *p.get() += 1;
            });
        });
        let mut want = vec![0u64; iters];
        for i in 0..iters {
            want[slot_of(i)] += 1;
        }
        assert_eq!(&slots[..], &want[..], "every iteration ran exactly once");
        check_invariants(&report);
        unsafe { drop(Box::from_raw(slots as *mut [u64])) };
        report
    }

    #[test]
    fn permanently_dynamic_body_gives_up_and_pins() {
        // A body whose shape never repeats: the record plus
        // `GIVEUP_AFTER - 1` divergences pin it to the dependency system;
        // the two re-check probes never see a repeat, so it stays pinned.
        let iters = GIVEUP_AFTER + 2 * RECHECK_EVERY + 1;
        let report = pin_then_settle(iters, None);
        assert_eq!(report.replayed, 0, "{report}");
        assert_eq!(report.giveups, 1, "{report}");
        assert_eq!(report.rerecords, GIVEUP_AFTER, "{report}");
        assert_eq!(report.pinned_iterations, iters - GIVEUP_AFTER, "{report}");
        assert!(!report.pinned_nested);
    }

    #[test]
    fn pinned_body_restabilizes_to_cached_graph() {
        // After the give-up the body keeps spawning the shape of the
        // iteration that pinned it, which that iteration froze into the
        // cache: the first re-check probe finds it and replay resumes
        // without another record.
        const STABLE: usize = 4;
        let iters = GIVEUP_AFTER + RECHECK_EVERY + STABLE;
        let report = pin_then_settle(iters, Some(GIVEUP_AFTER - 1));
        assert_eq!(report.giveups, 1, "{report}");
        assert_eq!(report.rerecords, GIVEUP_AFTER, "{report}");
        assert_eq!(report.pinned_iterations, RECHECK_EVERY, "{report}");
        assert_eq!(report.replayed, STABLE, "{report}");
        assert!(!report.pinned_nested);
    }

    #[test]
    fn pinned_body_restabilizes_onto_a_new_shape() {
        // After the give-up the body settles on a shape it never spawned
        // before: the first probe misses the cache, the second sees the
        // same hash again and unpins, the next iteration records the shape
        // and the rest replay.
        const STABLE: usize = 4;
        let iters = GIVEUP_AFTER + 2 * RECHECK_EVERY + STABLE;
        let report = pin_then_settle(iters, Some(GIVEUP_AFTER));
        assert_eq!(report.giveups, 1, "{report}");
        assert_eq!(report.rerecords, GIVEUP_AFTER + 1, "{report}");
        assert_eq!(report.pinned_iterations, 2 * RECHECK_EVERY, "{report}");
        assert_eq!(report.replayed, STABLE - 1, "{report}");
        assert!(!report.pinned_nested);
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
        // replaying a graph that cannot order the children.
        const ITERS: usize = 6;
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
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
        assert!(report.pinned_nested, "{report:?}");
        assert_eq!(report.nested_spawns, 2, "{report:?}");
        assert_eq!(report.replayed, 2, "{report:?}");
        assert_eq!(report.pinned_iterations, ITERS - 3, "{report:?}");
        assert_eq!(report.giveups, 1);
        check_invariants(&report);
    }

    /// Eight iterations of 16 readwrite tasks (~50 µs each) on one
    /// counter; from iteration `from` on, the root calls
    /// `taskwait_on(read)` and reads the counter. Returns the report and
    /// every `(iteration, value read)`.
    fn root_taskwait_on_from(from: u64) -> (ReplayReport, Vec<(u64, u64)>) {
        const ITERS: u64 = 8;
        const TASKS: u64 = 16;
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = SendPtr::new(data);
        let iter = Arc::new(AtomicU64::new(0));
        let reads = Arc::new(std::sync::Mutex::new(Vec::new()));
        let report = {
            let reads = Arc::clone(&reads);
            rt.run_iterative(ITERS as usize, move |ctx| {
                let i = iter.fetch_add(1, Ordering::Relaxed);
                for _ in 0..TASKS {
                    ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| {
                        let t0 = std::time::Instant::now();
                        while t0.elapsed().as_micros() < 50 {
                            core::hint::spin_loop();
                        }
                        unsafe { *p.get() += 1 };
                    });
                }
                if i >= from {
                    ctx.taskwait_on(Deps::new().read_addr(p.addr()));
                    reads.lock().unwrap().push((i, unsafe { *p.get() }));
                }
            })
        };
        assert_eq!(unsafe { *data }, TASKS * ITERS);
        for &(i, v) in reads.lock().unwrap().iter() {
            assert_eq!(v, TASKS * (i + 1), "stale read in iteration {i}: {report}");
        }
        check_invariants(&report);
        unsafe { drop(Box::from_raw(data)) };
        let reads = reads.lock().unwrap().clone();
        (report, reads)
    }

    #[test]
    fn root_taskwait_on_under_replay_reads_fresh_data() {
        // Iterations 0/1 record and replay; iteration 2 is fed from the
        // frozen graph, whose tasks never registered with the dependency
        // system. Its `taskwait_on` must still see all 16 writes, and the
        // helper task the capture did not see pins the body.
        let (report, reads) = root_taskwait_on_from(2);
        assert_eq!(reads.len(), 6);
        assert!(report.pinned_nested, "{report}");
        assert_eq!(report.nested_spawns, 1, "{report}");
        assert_eq!(report.replayed, 2, "{report}");
        assert_eq!(report.pinned_iterations, 5, "{report}");
    }

    #[test]
    fn root_taskwait_on_in_the_record_pins_the_body() {
        let (report, reads) = root_taskwait_on_from(0);
        assert_eq!(reads.len(), 8);
        assert!(report.pinned_nested, "{report}");
        assert_eq!(report.nested_spawns, 1, "{report}");
        assert_eq!(report.replayed, 0, "{report}");
        assert_eq!(report.rerecords, 1, "{report}");
    }

    #[test]
    fn run_iterative_keeps_recorded_dependency_edges() {
        // Edge recording belongs to the user (`graph(true)`): replay must
        // neither clear nor drain what an earlier run recorded.
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2).graph(true));
        let data = Box::leak(Box::new(0u64)) as *mut u64;
        let p = SendPtr::new(data);
        rt.run(move |ctx| {
            for label in ["first", "second"] {
                ctx.spawn_labeled(
                    label,
                    Deps::new().readwrite_addr(p.addr()),
                    move |_| unsafe {
                        *p.get() += 1;
                    },
                );
            }
        });
        rt.run_iterative(3, move |ctx| {
            ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                *p.get() += 1;
            });
        });
        assert_eq!(unsafe { *data }, 5);
        let edges = rt.graph_edges();
        assert!(
            edges
                .iter()
                .any(|e| e.from_label == "first" && e.to_label == "second"),
            "first run's edges lost: {edges:?}"
        );
        unsafe { drop(Box::from_raw(data)) };
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
    fn report_display_includes_cache_counters() {
        let report = ReplayReport {
            iterations: 4,
            replayed: 3,
            cache_hits: 3,
            cache_misses: 1,
            cache_evictions: 2,
            pinned_iterations: 0,
            giveups: 1,
            ..ReplayReport::default()
        };
        let s = report.to_string();
        assert!(s.contains("hits=3"), "{s}");
        assert!(s.contains("misses=1"), "{s}");
        assert!(s.contains("evictions=2"), "{s}");
        assert!(s.contains("pinned=0"), "{s}");
        assert!(s.contains("giveups=1"), "{s}");
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
        // A phase cycle one shape longer than the cache: by the time a
        // shape comes round again the LRU has evicted it, so every
        // iteration diverges, misses, freezes its shape and evicts the
        // oldest. The body never replays, but stays serially correct and
        // every iteration is classified. The run stops one iteration short
        // of the give-up threshold.
        const PERIOD: usize = GRAPH_CACHE_CAPACITY + 1;
        const ITERS: usize = GIVEUP_AFTER - 1;
        const { assert!(ITERS > PERIOD, "some shape must come round again") };
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        let slots = Box::leak(vec![0u64; PERIOD].into_boxed_slice());
        let base = SendPtr::new(slots.as_mut_ptr());
        let iter = Arc::new(AtomicU64::new(0));
        let report = rt.run_iterative(ITERS, move |ctx| {
            let i = iter.fetch_add(1, Ordering::Relaxed) as usize;
            let p = unsafe { base.add(i % PERIOD) };
            for _ in 0..4 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        });
        for (k, s) in slots.iter().enumerate() {
            let visits = (0..ITERS).filter(|i| i % PERIOD == k).count() as u64;
            assert_eq!(*s, 4 * visits, "slot {k}");
        }
        // Record on iteration 0, then a divergent miss (freeze, and evict
        // once the cache is full) on every later iteration.
        assert_eq!(report.rerecords, ITERS, "{report}");
        assert_eq!(report.diverged, ITERS - 1, "{report}");
        assert_eq!(
            report.cache_evictions,
            (ITERS - GRAPH_CACHE_CAPACITY) as u64,
            "{report}"
        );
        assert_eq!(report.replayed, 0, "{report}");
        assert_eq!(report.cache_hits, 0, "{report}");
        assert_eq!(report.pinned_iterations, 0, "below the give-up threshold");
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

    /// Two shapes alternate for 200 iterations on 4 workers, so each of
    /// two cached graphs is re-armed in place every other iteration. Each
    /// shape is a 1 024-member `SumF64` group on its own target plus one
    /// reader of the target, which notes what it read. Every iteration
    /// must read its serial sum: a slot `init` flag left set (a slot
    /// keeps last iteration's partial sum) or a `combined` flag left set
    /// (the fold is skipped) breaks that. One planted panic in iteration
    /// 100 costs only that iteration's read: no poison outlives it.
    #[test]
    fn rearmed_iteration_state_stays_exact() {
        const ITERS: usize = 200;
        const MEMBERS: u64 = 1024;
        const FAULTED: usize = 100;
        // Every iteration before the fault runs MEMBERS + 1 bodies.
        let plan = nanotask_core::FaultPlan::panic_at(FAULTED as u64 * (MEMBERS + 1) + 7);
        let rt = Runtime::new(RuntimeConfig::optimized().workers(4).with_fault_plan(plan));
        let targets = SendPtr::new(Box::leak(Box::new([0.0f64; 2])).as_mut_ptr());
        let read: Arc<Vec<AtomicU64>> =
            Arc::new((0..ITERS).map(|_| AtomicU64::new(u64::MAX)).collect());
        let iter = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&read);
        let (report, outcome) = rt.run_iterative_outcome(ITERS, move |ctx| {
            let it = iter.fetch_add(1, Ordering::Relaxed);
            let t = SendPtr::new(unsafe { targets.get().add(it as usize % 2) });
            unsafe { *t.get() = 0.0 };
            for j in 0..MEMBERS {
                let deps = Deps::new().reduce_addr(t.addr(), 8, nanotask_core::RedOp::SumF64);
                ctx.spawn(deps, move |c| unsafe {
                    *c.red_slot(&*(t.addr() as *const f64)) += (j + it) as f64;
                });
            }
            let r = Arc::clone(&r);
            ctx.spawn(Deps::new().read_addr(t.addr()), move |_| {
                r[it as usize].store(unsafe { *t.get() } as u64, Ordering::Relaxed);
            });
        });
        for (it, got) in read.iter().enumerate() {
            let got = got.load(Ordering::Relaxed);
            if it == FAULTED {
                assert_eq!(got, u64::MAX, "the faulted iteration's read is cancelled");
            } else {
                let serial = MEMBERS * (MEMBERS - 1) / 2 + MEMBERS * it as u64;
                assert_eq!(got, serial, "iteration {it}: {report}");
            }
        }
        assert_eq!(outcome.failures.len(), 1, "{}", outcome.summary());
        assert!(outcome.tasks_cancelled <= 1, "{}", outcome.summary());
        assert_eq!(report.faulted, 1, "{report}");
        assert!(report.replayed >= ITERS - 8, "{report}");
        check_invariants(&report);
        assert_eq!(rt.live_tasks(), 0);
    }
}
