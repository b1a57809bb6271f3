//! Bounds of the work-assisting `taskwait`. A waiter runs its own newest
//! descendants first and, at a nesting cap of 32 waits per worker, only
//! those; so a recursive fork-join tree stays depth-first on every
//! worker's stack:
//!
//! * an 87 381-task fan-out-4, depth-8 tree and a seeded fan-out 3–5
//!   tree run on 2 MiB stacks in a debug build, on every scheduler ×
//!   dependency system × {1, 2, 4} workers, with the exact body count and
//!   fold, at most 4 096 live tasks, and waits nested past the cap only
//!   by the capped waiter's own subtree (at most `depth − 1` more);
//! * a chain of 200 nested waits (deeper than the cap) completes;
//! * two creators whose tasks share the queue: at the cap a waiter never
//!   runs the other creator's tasks, and nothing stalls.
//!
//! Each case builds its runtime and calls `run` on a thread with a 2 MiB
//! stack; the workers get the default stack. Nothing here times a run:
//! the hang guard only turns a stall into a failure instead of a hung
//! test binary.

use std::cell::RefCell;
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use nanotask::runtime_core::sched::{LockKind, WsVariant};
use nanotask::{Deps, DepsKind, RunReport, Runtime, RuntimeConfig, SchedKind, TaskCtx};

/// The runtime's taskwait nesting cap (private to `nanotask-core`).
const CAP: u64 = 32;
const STACK_BYTES: usize = 2 << 20;
/// Generous hang guard: the slowest case finishes in seconds.
const HANG_GUARD: Duration = Duration::from_secs(300);
const MAX_LIVE_TASKS: u64 = 4096;

const SCHEDS: [SchedKind; 5] = [
    SchedKind::Delegation,
    SchedKind::DelegationFlat,
    SchedKind::Central(LockKind::PtLock),
    SchedKind::WorkSteal(WsVariant::LifoLocal),
    SchedKind::WorkSteal(WsVariant::FifoLocal),
];
const DEPS: [DepsKind; 2] = [DepsKind::WaitFree, DepsKind::Locking];
const WORKERS: [usize; 3] = [1, 2, 4];

fn config(sched: SchedKind, deps: DepsKind, workers: usize) -> RuntimeConfig {
    RuntimeConfig::optimized()
        .scheduler(sched)
        .dependency_system(deps)
        .workers(workers)
}

/// What one run leaves behind, read after `run` returns.
struct Ran<T> {
    value: T,
    report: RunReport,
    live_tasks: usize,
}

/// Build a runtime from `cfg` and `run` `root` on a fresh thread with a
/// 2 MiB stack; `finish` turns the root's shared state into the result.
fn run_on_small_stack<S, T>(
    cfg: RuntimeConfig,
    state: S,
    root: impl FnOnce(&TaskCtx, S) + Send + 'static,
    finish: impl FnOnce(S) -> T + Send + 'static,
) -> Ran<T>
where
    S: Clone + Send + 'static,
    T: Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::Builder::new()
        .stack_size(STACK_BYTES)
        .spawn(move || {
            let rt = Runtime::new(cfg);
            let s = state.clone();
            rt.run(move |c| root(c, s));
            let ran = Ran {
                value: finish(state),
                report: rt.run_report(),
                live_tasks: rt.live_tasks(),
            };
            drop(rt);
            let _ = tx.send(ran);
        })
        .expect("spawn the 2 MiB test thread");
    match rx.recv_timeout(HANG_GUARD) {
        Ok(ran) => {
            worker.join().expect("test thread");
            ran
        }
        Err(RecvTimeoutError::Timeout) => panic!("stalled: no result within {HANG_GUARD:?}"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("the thread sent nothing"))
        }
    }
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A fork-join tree, generated from node ids: fan-out 4 everywhere, or a
/// seeded fan-out of 3–5 per node.
#[derive(Clone, Copy, Debug)]
struct Tree {
    depth: u32,
    seed: Option<u64>,
}

impl Tree {
    const ROOT: u64 = 1;

    fn fanout(self, id: u64, level: u32) -> usize {
        match (level == self.depth, self.seed) {
            (true, _) => 0,
            (false, None) => 4,
            (false, Some(s)) => 3 + (mix(id ^ s) % 3) as usize,
        }
    }

    fn child(id: u64, k: usize) -> u64 {
        mix(id.wrapping_mul(8) + k as u64 + 1)
    }

    fn fold(id: u64, kids: impl Iterator<Item = u64>) -> u64 {
        kids.fold(mix(id), |acc, r| mix(acc ^ r))
    }

    /// (bodies, fold) of the subtree at `id`, computed serially.
    fn expect(self, id: u64, level: u32) -> (u64, u64) {
        let mut bodies = 1;
        let kids: Vec<u64> = (0..self.fanout(id, level))
            .map(|k| {
                let (b, r) = self.expect(Self::child(id, k), level + 1);
                bodies += b;
                r
            })
            .collect();
        (bodies, Self::fold(id, kids.into_iter()))
    }

    /// The task of node `id`: spawn the children, wait, fold their
    /// results into `slot`. Children read a parent-owned address, so both
    /// dependency systems register every task in its parent's domain.
    fn node(
        self,
        c: &TaskCtx,
        id: u64,
        level: u32,
        slot: (Arc<[AtomicU64]>, usize),
        bodies: &Arc<AtomicU64>,
    ) {
        bodies.fetch_add(1, Relaxed);
        let n = self.fanout(id, level);
        let kids: Arc<[AtomicU64]> = (0..n).map(|_| AtomicU64::new(0)).collect();
        for k in 0..n {
            let (kids2, bodies) = (Arc::clone(&kids), Arc::clone(bodies));
            let deps = Deps::new().read_addr(kids.as_ptr() as usize);
            c.spawn(deps, move |c| {
                self.node(c, Self::child(id, k), level + 1, (kids2, k), &bodies)
            });
        }
        if n > 0 {
            c.taskwait();
        }
        let result = Self::fold(id, kids.iter().map(|r| r.load(Relaxed)));
        slot.0[slot.1].store(result, Relaxed);
    }
}

fn run_tree(sched: SchedKind, deps: DepsKind, workers: usize, tree: Tree) {
    let what = format!("{sched:?} / {deps:?} / {workers} worker(s) / {tree:?}");
    let (bodies, fold) = tree.expect(Tree::ROOT, 0);
    let out: Arc<[AtomicU64]> = Arc::new([AtomicU64::new(0)]);
    let ran = run_on_small_stack(
        config(sched, deps, workers),
        (out, Arc::new(AtomicU64::new(0))),
        move |c, (out, count)| tree.node(c, Tree::ROOT, 0, (out, 0), &count),
        |(out, count)| (count.load(Relaxed), out[0].load(Relaxed)),
    );
    assert_eq!(ran.value, (bodies, fold), "{what}: body count and fold");
    let peak = ran.report.stats.alloc.peak_live_tasks;
    assert!(peak <= MAX_LIVE_TASKS, "{what}: {peak} live tasks at peak");
    // Below the cap a waiter may take unrelated work; from the cap on only
    // the capped waiter's descendants run, and levels 0..depth wait.
    let nested = ran.report.max_taskwait_depth;
    let bound = CAP + u64::from(tree.depth) - 1;
    assert!(nested <= bound, "{what}: taskwait nested {nested} deep");
    assert_eq!(ran.live_tasks, 0, "{what}");
}

fn tree_matrix(sched: SchedKind) {
    for deps in DEPS {
        for workers in WORKERS {
            run_tree(
                sched,
                deps,
                workers,
                Tree {
                    depth: 8,
                    seed: None,
                },
            );
            run_tree(
                sched,
                deps,
                workers,
                Tree {
                    depth: 7,
                    seed: Some(7),
                },
            );
        }
    }
}

#[test]
fn tree_on_delegation() {
    tree_matrix(SchedKind::Delegation);
}

#[test]
fn tree_on_delegation_flat() {
    tree_matrix(SchedKind::DelegationFlat);
}

#[test]
fn tree_on_central_ptlock() {
    tree_matrix(SchedKind::Central(LockKind::PtLock));
}

#[test]
fn tree_on_worksteal_lifo() {
    tree_matrix(SchedKind::WorkSteal(WsVariant::LifoLocal));
}

#[test]
fn tree_on_worksteal_fifo() {
    tree_matrix(SchedKind::WorkSteal(WsVariant::FifoLocal));
}

/// The config of the cap scenarios: the stall watchdog is armed, so a
/// stall the root's wait sees fails the run. (Short, because dropping a
/// runtime waits out one watchdog poll of a quarter of it.)
fn watched(sched: SchedKind, deps: DepsKind, workers: usize) -> RuntimeConfig {
    config(sched, deps, workers).with_watchdog(Duration::from_secs(1))
}

fn chain(c: &TaskCtx, left: u64, bodies: Arc<AtomicU64>) {
    bodies.fetch_add(1, Relaxed);
    if left > 0 {
        let b = Arc::clone(&bodies);
        c.spawn(Deps::new(), move |c| chain(c, left - 1, b));
        c.taskwait();
    }
}

#[test]
fn chain_deeper_than_the_cap_completes() {
    const WAITS: u64 = 200;
    for sched in SCHEDS {
        for deps in DEPS {
            for workers in WORKERS {
                let what = format!("{sched:?} / {deps:?} / {workers} worker(s)");
                let ran = run_on_small_stack(
                    watched(sched, deps, workers),
                    Arc::new(AtomicU64::new(0)),
                    |c, bodies| chain(c, WAITS, bodies),
                    |bodies| bodies.load(Relaxed),
                );
                assert_eq!(ran.value, WAITS + 1, "{what}");
                assert_eq!(ran.live_tasks, 0, "{what}");
                if workers == 1 {
                    // One stack holds the whole chain: only descendants
                    // run past the cap, and every wait nests.
                    assert_eq!(ran.report.max_taskwait_depth, WAITS, "{what}");
                }
            }
        }
    }
}

/// Which creator a task belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Creator {
    A,
    B,
}

thread_local! {
    /// The creators of the waits active on this thread, innermost last.
    static WAITS: RefCell<Vec<Creator>> = const { RefCell::new(Vec::new()) };
}

/// A task of `who` starts: at the cap, the innermost wait on this thread
/// must be in `who`'s own subtree.
fn starts(who: Creator, bodies: &AtomicU64) {
    bodies.fetch_add(1, Relaxed);
    WAITS.with(|w| {
        let w = w.borrow();
        if w.len() as u64 >= CAP {
            assert_eq!(w.last(), Some(&who), "a stranger ran at the cap");
        }
    });
}

fn wait_as(who: Creator, c: &TaskCtx) {
    WAITS.with(|w| w.borrow_mut().push(who));
    c.taskwait();
    WAITS.with(|w| w.borrow_mut().pop());
}

fn spin() {
    for i in 0..200u32 {
        std::hint::black_box(i);
    }
}

/// Creator A: a chain of `left` nested waits, one leaf beside each link.
fn chain_a(c: &TaskCtx, left: u64, bodies: Arc<AtomicU64>) {
    starts(Creator::A, &bodies);
    if left == 0 {
        return;
    }
    let b = Arc::clone(&bodies);
    c.spawn(Deps::new(), move |_| {
        starts(Creator::A, &b);
        spin();
    });
    let b = Arc::clone(&bodies);
    c.spawn(Deps::new(), move |c| chain_a(c, left - 1, b));
    wait_as(Creator::A, c);
}

#[test]
fn two_creators_at_the_cap_run_only_their_own() {
    const LINKS: u64 = 48;
    const LEAVES: u64 = 512;
    for sched in SCHEDS {
        for deps in DEPS {
            for workers in WORKERS {
                let what = format!("{sched:?} / {deps:?} / {workers} worker(s)");
                let ran = run_on_small_stack(
                    watched(sched, deps, workers),
                    Arc::new(AtomicU64::new(0)),
                    |c, bodies| {
                        let b = Arc::clone(&bodies);
                        c.spawn(Deps::new(), move |c| chain_a(c, LINKS, b));
                        c.spawn(Deps::new(), move |c| {
                            starts(Creator::B, &bodies);
                            for _ in 0..LEAVES {
                                let b = Arc::clone(&bodies);
                                c.spawn(Deps::new(), move |_| {
                                    starts(Creator::B, &b);
                                    spin();
                                });
                            }
                            wait_as(Creator::B, c);
                        });
                    },
                    |bodies| bodies.load(Relaxed),
                );
                // A: LINKS + 1 links and LINKS leaves; B: itself + leaves.
                assert_eq!(ran.value, 2 * LINKS + 1 + 1 + LEAVES, "{what}");
                assert_eq!(ran.live_tasks, 0, "{what}");
                if workers == 1 {
                    assert!(ran.report.max_taskwait_depth >= CAP, "{what}");
                }
            }
        }
    }
}
