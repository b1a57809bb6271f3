//! The seven workloads (and the traced-only wavefront probe).
//!
//! Three are generated here, so the benchmark owns the spawn loop and the
//! task bodies and can put spans and exactly-once checks inside them; four
//! drive the paper's applications through their public `Workload` API and
//! are checked with `verify()` plus the runtime's task counters.
//!
//! Shared state is leaked to get `&'static` references: every child
//! process runs one workload once and exits, and a `&'static` capture is
//! free where an `Arc` clone per spawned task would be measured work.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::adapters::{self, Counts, Ctx, Library, Rt};
use crate::metrics::SPAN_SAMPLE;
use crate::spans::{Name, Spans, now_ns};

/// Span context of one traced rep.
#[derive(Clone, Copy)]
pub struct Traced {
    pub spans: &'static Spans,
    /// Id of the enclosing `rep` span.
    pub rep: u32,
}

pub trait Bench {
    /// Tasks one rep spawns (root tasks of `run` calls not counted).
    fn tasks_per_rep(&self) -> u64;
    /// `run` calls per rep: each executes one root task on top.
    fn runs_per_rep(&self) -> u64 {
        1
    }
    fn rep(&mut self, rt: &Rt, traced: Option<Traced>);
    /// Replay-engine counts accumulated over the reps so far.
    fn replay_counts(&self) -> Counts {
        Counts::default()
    }
    /// Plant a fault the checks must catch (`--inject-fail`).
    fn inject_fail(&mut self, rt: &Rt);
    /// Check every output after `reps` reps; returns how many tasks'
    /// outputs are wrong.
    fn failed_tasks(&self, reps: u64) -> u64;
}

pub fn build(name: &str, seed: u64) -> Option<Box<dyn Bench>> {
    Some(match name {
        "spawn_storm" => Box::new(SpawnStorm::new(seed)),
        "chains" => Box::new(Chains::new(seed)),
        "nested_tree" => Box::new(NestedTree::new(seed)),
        "heat_deps" => Box::new(Lib::new(Library::heat(false), Some(32 * 32 * 32))),
        "heat_replay" => Box::new(Lib::new(Library::heat(true), Some(32 * 32 * 32))),
        "amr_replay" => Box::new(Lib::new(Library::amr_replay(), None)),
        "cholesky_coarse" => Box::new(Lib::new(Library::cholesky_coarse(), Some(8 * 120))),
        _ => return None,
    })
}

// ------------------------------------------------------------- task bodies

/// splitmix64: the seeded source of every generated input.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The task body's work: a dependent multiply-add chain, ~2 ns a step.
#[inline]
fn spin(mut x: u64, steps: u8) -> u64 {
    for _ in 0..steps {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    x
}

/// Seeded spin lengths, 6..=14 steps (~20 ns ± 40 %), and the value each
/// task must produce. Values are odd, so `k × value` identifies `k`.
struct Bodies {
    seed: u64,
    steps: Vec<u8>,
    /// Per task: the sum of the values of all its executions so far.
    slots: Vec<AtomicU64>,
}

impl Bodies {
    fn new(seed: u64, tasks: usize) -> Self {
        Self {
            seed,
            steps: (0..tasks)
                .map(|i| 6 + (mix(seed ^ i as u64) % 9) as u8)
                .collect(),
            slots: (0..tasks).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn value(&self, i: usize) -> u64 {
        spin(self.seed ^ i as u64, self.steps[i]) | 1
    }

    /// Run task `i`'s body: compute its value and add it to its slot.
    /// Load + store, not an atomic add: a task that ran twice at once
    /// should lose an update and be caught, not be papered over.
    #[inline]
    fn execute(&self, i: usize) -> u64 {
        let v = self.value(i);
        let slot = &self.slots[i];
        slot.store(slot.load(Relaxed).wrapping_add(v), Relaxed);
        v
    }

    /// Tasks whose slot is not exactly `reps × value`: not executed
    /// exactly once per rep.
    fn wrong_slots(&self, reps: u64) -> u64 {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].load(Relaxed) != self.value(i).wrapping_mul(reps))
            .count() as u64
    }
}

/// Time `spawn` as a `spawn_call` span under `parent`.
#[inline]
fn timed_spawn(t: Traced, worker: usize, parent: u32, spawn: impl FnOnce()) {
    let start = now_ns();
    spawn();
    t.spans
        .record(worker, Name::SpawnCall, parent, start, now_ns());
}

/// Run `body` as a `body` span under the rep.
#[inline]
fn timed_body(t: Traced, c: &Ctx, body: impl FnOnce()) -> u64 {
    let start = now_ns();
    body();
    let end = now_ns();
    t.spans
        .record(adapters::worker_id(c), Name::Body, t.rep, start, end);
    end
}

/// `run` the root closure `spawn_all` and, when traced, record the rep's
/// `spawn_loop` span (the closure hands its spawn calls the loop's id)
/// and its `drain` span (root closure end → `run` returns).
fn run_spawn_loop(
    rt: &Rt,
    traced: Option<Traced>,
    spawn_all: impl FnOnce(&Ctx, Option<(Traced, u32)>) + Send + 'static,
) {
    static LOOP_END_NS: AtomicU64 = AtomicU64::new(0);
    adapters::run(rt, move |ctx| match traced {
        None => spawn_all(ctx, None),
        Some(t) => {
            let id = t.spans.reserve(0);
            let start = now_ns();
            spawn_all(ctx, Some((t, id)));
            let end = now_ns();
            t.spans.record_as(0, id, Name::SpawnLoop, t.rep, start, end);
            LOOP_END_NS.store(end, Relaxed);
        }
    });
    if let Some(t) = traced {
        t.spans
            .record(0, Name::Drain, t.rep, LOOP_END_NS.load(Relaxed), now_ns());
    }
}

// ------------------------------------------------------------- spawn_storm

const STORM_TASKS: usize = 100_000;

struct SpawnStorm {
    bodies: &'static Bodies,
}

impl SpawnStorm {
    fn new(seed: u64) -> Self {
        Self {
            bodies: Box::leak(Box::new(Bodies::new(seed, STORM_TASKS))),
        }
    }
}

impl Bench for SpawnStorm {
    fn tasks_per_rep(&self) -> u64 {
        STORM_TASKS as u64
    }

    fn rep(&mut self, rt: &Rt, traced: Option<Traced>) {
        let b = self.bodies;
        run_spawn_loop(rt, traced, move |ctx, looped| {
            for i in 0..STORM_TASKS {
                match looped.filter(|_| i.is_multiple_of(SPAN_SAMPLE)) {
                    None => adapters::spawn_free(ctx, move |_| {
                        b.execute(i);
                    }),
                    Some((t, loop_id)) => timed_spawn(t, 0, loop_id, || {
                        adapters::spawn_free(ctx, move |c| {
                            timed_body(t, c, || {
                                b.execute(i);
                            });
                        })
                    }),
                }
            }
        });
    }

    fn inject_fail(&mut self, _rt: &Rt) {
        self.bodies.execute(7); // task 7 runs twice
    }

    fn failed_tasks(&self, reps: u64) -> u64 {
        self.bodies.wrong_slots(reps)
    }
}

// ------------------------------------------------------------------ chains

const CHAINS: usize = 8;
const CHAIN_LEN: usize = 12_500;

/// One chain's cell on its own cache line: its address is the dependency
/// key, its value an order-dependent fold of the chain's task values.
#[repr(align(128))]
#[derive(Default)]
struct ChainCell {
    fold: AtomicU64,
    /// When the last sampled task of the chain ended (traced only).
    pred_end_ns: AtomicU64,
}

const FOLD_MUL: u64 = 0x0100_0000_01b3;

struct ChainsShared {
    bodies: Bodies,
    cells: [ChainCell; CHAINS],
}

struct Chains {
    shared: &'static ChainsShared,
}

impl Chains {
    fn new(seed: u64) -> Self {
        Self {
            shared: Box::leak(Box::new(ChainsShared {
                bodies: Bodies::new(seed, CHAINS * CHAIN_LEN),
                cells: Default::default(),
            })),
        }
    }
}

impl ChainsShared {
    #[inline]
    fn execute(&self, i: usize) {
        let v = self.bodies.execute(i);
        let cell = &self.cells[i % CHAINS].fold;
        cell.store(
            cell.load(Relaxed).wrapping_mul(FOLD_MUL).wrapping_add(v),
            Relaxed,
        );
    }
}

impl Bench for Chains {
    fn tasks_per_rep(&self) -> u64 {
        (CHAINS * CHAIN_LEN) as u64
    }

    fn rep(&mut self, rt: &Rt, traced: Option<Traced>) {
        let s = self.shared;
        run_spawn_loop(rt, traced, move |ctx, looped| {
            // Round-robin over the chains: task i is link i / 8 of chain i % 8.
            for i in 0..CHAINS * CHAIN_LEN {
                let cell = &s.cells[i % CHAINS];
                let addr = &cell.fold as *const AtomicU64 as usize;
                let link = i / CHAINS;
                match looped {
                    // Sampled link: a body span, and its end is kept ...
                    Some((t, loop_id)) if link.is_multiple_of(SPAN_SAMPLE) => {
                        timed_spawn(t, 0, loop_id, || {
                            adapters::spawn_rw(ctx, addr, move |c| {
                                let end = timed_body(t, c, || s.execute(i));
                                cell.pred_end_ns.store(end, Relaxed);
                            })
                        })
                    }
                    // ... for its successor, which records the handoff.
                    Some((t, _)) if link % SPAN_SAMPLE == 1 => {
                        adapters::spawn_rw(ctx, addr, move |c| {
                            let start = now_ns();
                            s.execute(i);
                            t.spans.record(
                                adapters::worker_id(c),
                                Name::Handoff,
                                t.rep,
                                cell.pred_end_ns.load(Relaxed),
                                start,
                            );
                        })
                    }
                    _ => adapters::spawn_rw(ctx, addr, move |_| s.execute(i)),
                }
            }
        });
    }

    fn inject_fail(&mut self, _rt: &Rt) {
        self.shared.cells[3].fold.fetch_add(1, Relaxed); // a wrong cell
    }

    fn failed_tasks(&self, reps: u64) -> u64 {
        let s = self.shared;
        // Serial fold: every rep appends the chain's links in order.
        let wrong_chains = (0..CHAINS)
            .filter(|&chain| {
                let mut fold = 0u64;
                for _ in 0..reps {
                    for link in 0..CHAIN_LEN {
                        let v = s.bodies.value(link * CHAINS + chain);
                        fold = fold.wrapping_mul(FOLD_MUL).wrapping_add(v);
                    }
                }
                fold != s.cells[chain].fold.load(Relaxed)
            })
            .count() as u64;
        // A broken chain means some link ran out of order: count the chain.
        s.bodies.wrong_slots(reps) + wrong_chains * CHAIN_LEN as u64
    }
}

// ------------------------------------------------------------- nested_tree

const TREE_DEPTH: usize = 8;

/// A tree in breadth-first order: level `d` holds `4^d` nodes whose
/// fan-outs are a seeded shuffle of (¼ threes, ½ fours, ¼ fives), so
/// every seed gives another shape with the same 87 381 nodes.
struct Tree {
    bodies: Bodies,
    first_child: Vec<u32>,
    fanout: Vec<u8>,
    /// Per node and rep: own value folded with the children's results.
    result: Vec<AtomicU64>,
    /// Per node: when its last child ended (traced only).
    last_child_end_ns: Vec<AtomicU64>,
}

impl Tree {
    fn new(seed: u64) -> Self {
        let mut fanout = Vec::new();
        let mut first_child = Vec::new();
        let mut rng = seed;
        let mut level_start = 0usize;
        for depth in 0..=TREE_DEPTH {
            let width = 4usize.pow(depth as u32);
            let mut level: Vec<u8> = match depth {
                TREE_DEPTH => vec![0; width],
                0 => vec![4],
                _ => (0..width).map(|i| [3, 4, 5, 4][i % 4]).collect(),
            };
            for i in (1..level.len()).rev() {
                rng = mix(rng);
                level.swap(i, (rng % (i as u64 + 1)) as usize);
            }
            let mut next = level_start + width;
            for &f in &level {
                first_child.push(next as u32);
                next += f as usize;
            }
            fanout.extend(level);
            level_start += width;
        }
        let nodes = fanout.len();
        Self {
            bodies: Bodies::new(seed, nodes),
            first_child,
            fanout,
            result: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            last_child_end_ns: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn children(&self, node: usize) -> std::ops::Range<usize> {
        let first = self.first_child[node] as usize;
        first..first + self.fanout[node] as usize
    }

    #[inline]
    fn fold(&self, node: usize, own: u64, rep: u64) -> u64 {
        let kids = self.children(node).fold(0u64, |acc, c| {
            acc.wrapping_mul(FOLD_MUL) ^ self.result[c].load(Relaxed)
        });
        mix(own ^ kids).wrapping_add(rep)
    }

    /// What the root must hold after rep number `rep`: the same fold,
    /// bottom-up (children have higher indices than their parent).
    fn expected_root(&self, rep: u64) -> u64 {
        let n = self.fanout.len();
        let mut result = vec![0u64; n];
        for node in (0..n).rev() {
            let kids = self
                .children(node)
                .fold(0u64, |acc, c| acc.wrapping_mul(FOLD_MUL) ^ result[c]);
            result[node] = mix(self.bodies.value(node) ^ kids).wrapping_add(rep);
        }
        result[0]
    }

    /// The task of `node`: own work, spawn the children, wait for them,
    /// fold their results. The rep number is folded in so a result left
    /// over from the previous rep cannot pass for this rep's.
    fn task(&'static self, c: &Ctx, node: usize, parent: usize, rep: u64, traced: Option<Traced>) {
        let sampled = traced.filter(|_| node.is_multiple_of(SPAN_SAMPLE));
        let spawn_children = |c: &Ctx, timed: Option<(Traced, u32)>| {
            for child in self.children(node) {
                let spawn = || {
                    adapters::spawn_free(c, move |c| self.task(c, child, node, rep, traced));
                };
                match timed {
                    Some((t, body_id)) => timed_spawn(t, adapters::worker_id(c), body_id, spawn),
                    None => spawn(),
                }
            }
        };
        let own = match sampled {
            None => {
                let own = self.bodies.execute(node);
                spawn_children(c, None);
                own
            }
            // A sampled node's body span covers its own work and its spawn
            // loop; the spawn calls are its children, so its self time is
            // the work alone.
            Some(t) => {
                let w = adapters::worker_id(c);
                let id = t.spans.reserve(w);
                let start = now_ns();
                let own = self.bodies.execute(node);
                spawn_children(c, Some((t, id)));
                t.spans.record_as(w, id, Name::Body, t.rep, start, now_ns());
                own
            }
        };
        if self.fanout[node] > 0 {
            adapters::taskwait(c);
            if let Some(t) = sampled {
                t.spans.record(
                    adapters::worker_id(c),
                    Name::Taskwait,
                    t.rep,
                    self.last_child_end_ns[node].load(Relaxed),
                    now_ns(),
                );
            }
        }
        self.result[node].store(self.fold(node, own, rep), Relaxed);
        if traced.is_some() && parent.is_multiple_of(SPAN_SAMPLE) && node != 0 {
            self.last_child_end_ns[parent].fetch_max(now_ns(), Relaxed);
        }
    }
}

struct NestedTree {
    tree: &'static Tree,
    reps: u64,
}

impl NestedTree {
    fn new(seed: u64) -> Self {
        Self {
            tree: Box::leak(Box::new(Tree::new(seed))),
            reps: 0,
        }
    }
}

impl Bench for NestedTree {
    fn tasks_per_rep(&self) -> u64 {
        self.tree.fanout.len() as u64 - 1 // the root node is `run`'s root task
    }

    fn rep(&mut self, rt: &Rt, traced: Option<Traced>) {
        self.reps += 1;
        let (tree, rep) = (self.tree, self.reps);
        adapters::run(rt, move |c| tree.task(c, 0, 0, rep, traced));
    }

    fn inject_fail(&mut self, _rt: &Rt) {
        self.tree.bodies.execute(7); // node 7 runs twice
    }

    fn failed_tasks(&self, reps: u64) -> u64 {
        let wrong_root = self.tree.result[0].load(Relaxed) != self.tree.expected_root(self.reps);
        // A wrong root means some taskwait returned before its children
        // were done; which one is unknown, so the whole last rep counts.
        self.tree.bodies.wrong_slots(reps) + u64::from(wrong_root) * self.tasks_per_rep()
    }
}

// ------------------------------------------------------- library workloads

struct Lib {
    app: Library,
    /// Known task count per rep, where the problem size fixes it.
    tasks: Option<u64>,
    measured_tasks: u64,
    replay: Counts,
}

impl Lib {
    fn new(app: Library, tasks: Option<u64>) -> Self {
        Self {
            app,
            tasks,
            measured_tasks: 0,
            replay: Counts::default(),
        }
    }
}

impl Bench for Lib {
    /// miniAMR's count depends on its refinement front, so it is taken
    /// from the runtime's counters over the first (warm-up) rep; the
    /// child then checks every later rep executes exactly as many.
    fn tasks_per_rep(&self) -> u64 {
        self.tasks.unwrap_or(self.measured_tasks)
    }

    fn runs_per_rep(&self) -> u64 {
        self.app.runs_per_rep()
    }

    fn rep(&mut self, rt: &Rt, _traced: Option<Traced>) {
        let before = adapters::Counts::of_runtime(rt).get("tasks_executed");
        let replay = self.app.rep(rt);
        self.replay.absorb(&replay);
        if self.measured_tasks == 0 {
            let executed = adapters::Counts::of_runtime(rt).get("tasks_executed") - before;
            self.measured_tasks = executed - self.runs_per_rep();
        }
    }

    fn replay_counts(&self) -> Counts {
        self.replay.clone()
    }

    fn inject_fail(&mut self, rt: &Rt) {
        // A stray execution the task counters must notice.
        adapters::run(rt, |ctx| adapters::spawn_free(ctx, |_| {}));
    }

    fn failed_tasks(&self, _reps: u64) -> u64 {
        match self.app.verify() {
            Ok(()) => 0,
            Err(why) => {
                eprintln!("perf_ledger: verify() failed: {why}");
                self.tasks_per_rep()
            }
        }
    }
}

// --------------------------------------------------------- wavefront probe

/// Heat's dependency pattern with bodies that only stamp the clock, so
/// the dependency system's own spawn and handoff costs stand alone.
/// A probe, not a workload: in `run` every task reads the clock twice.
#[derive(Clone, Copy)]
pub struct Wavefront {
    nb: usize,
    steps: usize,
    shared: &'static WavefrontShared,
}

struct WavefrontShared {
    /// One dependency key and one end stamp per block.
    end_ns: Vec<AtomicU64>,
    /// Target of the `f64` sum reduction (the runtime writes it through
    /// its address, hence a cell with interior mutability).
    sum: AtomicU64,
    /// Per task: last predecessor's end → start.
    handoff_ns: Vec<AtomicU64>,
    /// Per sampled spawn call: its duration.
    spawn_ns: Vec<AtomicU64>,
}

impl Wavefront {
    pub fn new(nb: usize, steps: usize) -> Self {
        let tasks = nb * nb * steps;
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Self {
            nb,
            steps,
            shared: Box::leak(Box::new(WavefrontShared {
                end_ns: zeros(nb * nb),
                sum: AtomicU64::new(0),
                handoff_ns: zeros(tasks),
                spawn_ns: zeros(tasks.div_ceil(SPAN_SAMPLE)),
            })),
        }
    }

    /// The blocks whose tasks a task of block (`bi`, `bj`) reads.
    fn neighbours(&self, bi: usize, bj: usize) -> ([usize; 4], usize) {
        let (nb, own) = (self.nb, bi * self.nb + bj);
        let mut near = [0usize; 4];
        let mut n = 0;
        for (inside, block) in [
            (bi > 0, own.wrapping_sub(nb)),
            (bi + 1 < nb, own + nb),
            (bj > 0, own.wrapping_sub(1)),
            (bj + 1 < nb, own + 1),
        ] {
            if inside {
                near[n] = block;
                n += 1;
            }
        }
        (near, n)
    }

    fn sum_addr(&self) -> usize {
        self.shared.sum.as_ptr() as usize
    }

    /// Spawn every task of every step, timing one spawn call in
    /// `SPAN_SAMPLE`; `body_of(task, own, near, n)` makes each body.
    fn spawn_all<B: FnOnce(&Ctx) + Send + 'static>(
        &self,
        ctx: &Ctx,
        body_of: impl Fn(usize, usize, [usize; 4], usize) -> B,
    ) {
        let s = self.shared;
        let key = |b: usize| &s.end_ns[b] as *const AtomicU64 as usize;
        let sum_addr = self.sum_addr();
        for step in 0..self.steps {
            for bi in 0..self.nb {
                for bj in 0..self.nb {
                    let own = bi * self.nb + bj;
                    let task = step * self.nb * self.nb + own;
                    let (near, n) = self.neighbours(bi, bj);
                    let keys = near.map(key);
                    let body = body_of(task, own, near, n);
                    if task.is_multiple_of(SPAN_SAMPLE) {
                        let t0 = now_ns();
                        adapters::spawn_stencil(ctx, key(own), &keys[..n], sum_addr, body);
                        s.spawn_ns[task / SPAN_SAMPLE].store(now_ns() - t0, Relaxed);
                    } else {
                        adapters::spawn_stencil(ctx, key(own), &keys[..n], sum_addr, body);
                    }
                }
            }
        }
    }

    /// One run through the dependency system; returns (spawn-call ns
    /// samples, handoff ns samples), the handoff being last predecessor's
    /// end → this task's start, for the tasks of steps after the first.
    pub fn run(&self, rt: &Rt) -> (Vec<f64>, Vec<f64>) {
        let (me, s, sum_addr) = (*self, self.shared, self.sum_addr());
        adapters::run(rt, move |ctx| {
            me.spawn_all(ctx, |task, own, near, n| {
                move |c: &Ctx| {
                    let start = now_ns();
                    // Every predecessor's stamp is final here: a later
                    // writer of those blocks depends on this task.
                    let ready = near[..n]
                        .iter()
                        .chain([&own])
                        .map(|&b| s.end_ns[b].load(Relaxed))
                        .max()
                        .unwrap_or(0);
                    s.handoff_ns[task].store(start.saturating_sub(ready), Relaxed);
                    adapters::reduce_add(c, sum_addr, 1.0);
                    s.end_ns[own].store(now_ns(), Relaxed);
                }
            });
        });
        let read = |v: &[AtomicU64]| v.iter().map(|a| a.load(Relaxed) as f64).collect::<Vec<_>>();
        (read(&s.spawn_ns), read(&s.handoff_ns[self.nb * self.nb..]))
    }

    /// `iters` iterations of the same steps under record & replay, with
    /// bodies that only feed the reduction; returns the engine's counts.
    pub fn run_replayed(&self, rt: &Rt, iters: usize) -> Counts {
        let (me, sum_addr) = (*self, self.sum_addr());
        adapters::run_replayed(rt, iters, move |ctx| {
            me.spawn_all(ctx, |_, _, _, _| {
                move |c: &Ctx| adapters::reduce_add(c, sum_addr, 1.0)
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_has_the_same_size_for_every_seed_and_fanout_3_to_5() {
        for seed in [1, 2, 99] {
            let t = Tree::new(seed);
            assert_eq!(t.fanout.len(), 87_381);
            let internal = &t.fanout[..t.fanout.len() - 4usize.pow(TREE_DEPTH as u32)];
            assert!(internal.iter().all(|f| (3..=5).contains(f)));
            assert!(t.fanout[internal.len()..].iter().all(|&f| f == 0));
            // every node but the root is the child of exactly one node
            let mut seen = vec![0u8; t.fanout.len()];
            for node in 0..t.fanout.len() {
                for c in t.children(node) {
                    seen[c] += 1;
                }
            }
            assert_eq!(seen[0], 0);
            assert!(seen[1..].iter().all(|&s| s == 1));
        }
        assert_ne!(Tree::new(1).fanout, Tree::new(2).fanout);
    }

    #[test]
    fn slots_catch_a_double_and_a_missing_execution() {
        let b = Bodies::new(5, 100);
        for i in 0..100 {
            b.execute(i);
        }
        assert_eq!(b.wrong_slots(1), 0);
        b.execute(7);
        assert_eq!(b.wrong_slots(1), 1);
        assert_eq!(b.wrong_slots(2), 99);
        assert!((6..=14).contains(&b.steps[0]));
        assert_ne!(
            Bodies::new(6, 100).steps,
            b.steps,
            "the seed drives the jitter"
        );
    }
}
