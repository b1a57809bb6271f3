//! Conformance suite of the **steady-state replay hot loop** (CSR
//! graphs + memcpy reset, word-folded signature hashing). The engine has
//! one data path, so its oracle is a set of executable models rather
//! than a second production path:
//!
//! 1. **Frozen-graph model**: an interpreter that executes random
//!    task programs honouring *only* the CSR successor arrays of its
//!    [`ReplayGraph`], in adversarial (reverse-creation-biased, seeded)
//!    topological orders, must reproduce the serial interpreter's
//!    memory, reader observations and per-task execution counts —
//!    writers apply a non-commutative update, so the frozen edges alone
//!    must order every conflict.
//! 2. **Live engine vs the models**: phase-alternating random bodies
//!    (exercising the cache, divergence and re-record paths) run through
//!    `run_iterative` across the full {Delegation, Central, WorkSteal} ×
//!    {WaitFree, Locking} matrix must match the serial interpreter, must
//!    have frozen exactly the edge list the model graph has, and must
//!    classify every iteration identically over two NUMA add buffers
//!    and over one (live-vs-live differential).

use proptest::prelude::*;

use nanotask::replay::{CapturedSpawn, ReplayGraph, ReplayReport};
use nanotask::runtime_core::sched::{LockKind, WsVariant};
use nanotask::{Deps, DepsKind, RunIterative, Runtime, RuntimeConfig, SchedKind, SendPtr};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

const ADDRS: usize = 4;

#[derive(Debug, Clone, Copy)]
enum Acc {
    Read(usize),
    Write(usize),
    ReadWrite(usize),
}

impl Acc {
    fn addr_idx(&self) -> usize {
        match *self {
            Acc::Read(a) | Acc::Write(a) | Acc::ReadWrite(a) => a,
        }
    }

    fn mode(&self) -> nanotask::runtime_core::AccessMode {
        use nanotask::runtime_core::AccessMode;
        match self {
            Acc::Read(_) => AccessMode::Read,
            Acc::Write(_) => AccessMode::Write,
            Acc::ReadWrite(_) => AccessMode::ReadWrite,
        }
    }
}

fn acc_strategy() -> impl Strategy<Value = Acc> {
    (0usize..ADDRS, 0u8..3).prop_map(|(a, m)| match m {
        0 => Acc::Read(a),
        1 => Acc::Write(a),
        _ => Acc::ReadWrite(a),
    })
}

type Program = Vec<(Vec<Acc>, u64)>;

fn task_strategy() -> impl Strategy<Value = (Vec<Acc>, u64)> {
    (proptest::collection::vec(acc_strategy(), 1..3), 1u64..1000).prop_map(|(mut accs, seed)| {
        accs.dedup_by_key(|a| a.addr_idx());
        (accs, seed)
    })
}

fn program_strategy() -> impl Strategy<Value = Program> {
    proptest::collection::vec(task_strategy(), 1..12)
}

/// Deterministic, non-commutative update.
fn mix(old: u64, seed: u64) -> u64 {
    old.wrapping_mul(6364136223846793005)
        .wrapping_add(seed)
        .rotate_left(13)
}

/// The effect of one task, shared verbatim by the serial interpreter,
/// the frozen-graph interpreter and the live task bodies: writers fold
/// their seed into the cell (pinning every write order), readers fold
/// the value they saw into the task's observation slot (pinning every
/// read-after-write and write-after-read order).
///
/// # Safety
/// `mem` points at `ADDRS` cells and `seen` at the task's slot; the
/// caller's ordering must make the accessed cells race-free — exactly
/// the property under test.
unsafe fn exec_task(accs: &[Acc], seed: u64, mem: *mut u64, seen: *mut u64) {
    for acc in accs {
        unsafe {
            match *acc {
                Acc::Read(a) => *seen = mix(*seen, *mem.add(a)),
                Acc::Write(a) | Acc::ReadWrite(a) => *mem.add(a) = mix(*mem.add(a), seed),
            }
        }
    }
}

/// Everything an execution of a phase-alternating run leaves behind.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Trace {
    mem: [u64; ADDRS],
    /// Per task slot: fold of every value its reads observed.
    seen: Vec<u64>,
    /// Per task slot: executions.
    runs: Vec<u64>,
}

impl Trace {
    fn new(phases: &[Program]) -> Self {
        let n = phases.iter().map(Vec::len).max().unwrap_or(0);
        Trace {
            mem: [0; ADDRS],
            seen: vec![0; n],
            runs: vec![0; n],
        }
    }

    fn exec(&mut self, p: &Program, ti: usize) {
        let (accs, seed) = &p[ti];
        // SAFETY: single-threaded, exclusive borrow of the whole trace.
        unsafe { exec_task(accs, *seed, self.mem.as_mut_ptr(), &mut self.seen[ti]) };
        self.runs[ti] += 1;
    }
}

/// Serial reference over a phase-alternating run: iteration `i` executes
/// program `phases[i % phases.len()]` in creation order.
fn serial(phases: &[Program], iters: usize) -> Trace {
    let mut t = Trace::new(phases);
    for i in 0..iters {
        let p = &phases[i % phases.len()];
        for ti in 0..p.len() {
            t.exec(p, ti);
        }
    }
    t
}

/// Freeze a program's shape into a [`ReplayGraph`] directly (decl-derived
/// edges, no runtime involved).
fn freeze(p: &Program) -> ReplayGraph {
    let base = 0x1000usize;
    let captured: Vec<CapturedSpawn> = p
        .iter()
        .map(|(accs, _)| {
            CapturedSpawn::bare(
                "t",
                0,
                accs.iter()
                    .map(|a| {
                        nanotask::runtime_core::AccessDecl::new(
                            base + 8 * a.addr_idx(),
                            8,
                            a.mode(),
                        )
                    })
                    .collect(),
            )
        })
        .collect();
    ReplayGraph::build(&captured, &[])
}

/// The frozen-graph model: execute one iteration of `p` honouring
/// *only* `g`'s CSR successor arrays and in-degrees — no dependency
/// system, no creation order. Among the ready nodes it picks like a
/// hostile scheduler: usually the one created *last*, otherwise a
/// seeded-random one, so any conflict the frozen edges fail to order
/// runs backwards against the serial reference.
fn interpret_frozen(g: &ReplayGraph, p: &Program, t: &mut Trace, rng: &mut u64) {
    assert_eq!(g.len(), p.len(), "one node per spawn");
    let mut pending: Vec<u32> = g.nodes().iter().map(|n| n.indeg).collect();
    let mut ready: BTreeSet<usize> = (0..g.len()).filter(|&i| pending[i] == 0).collect();
    let mut done = 0;
    while !ready.is_empty() {
        *rng = mix(*rng, 0x9e37_79b9);
        let i = if *rng & 1 == 0 {
            *ready.last().expect("non-empty")
        } else {
            let k = (*rng >> 1) as usize % ready.len();
            *ready.iter().nth(k).expect("k < len")
        };
        ready.remove(&i);
        t.exec(p, i);
        done += 1;
        for &s in g.succs(i) {
            pending[s as usize] -= 1;
            if pending[s as usize] == 0 {
                ready.insert(s as usize);
            }
        }
    }
    assert_eq!(done, g.len(), "the frozen edges release every node");
}

/// Everything one engine run produced that the suite compares.
struct Outcome {
    report: ReplayReport,
    trace: Trace,
}

/// Run a phase-alternating body (`phases[i % len]` at iteration `i`)
/// under one configuration and collect the outcome.
fn run_engine(
    phases: &[Program],
    iters: usize,
    sched: SchedKind,
    deps: DepsKind,
    knobs_on: bool,
) -> Outcome {
    let mut cfg = RuntimeConfig::optimized()
        .scheduler(sched)
        .dependency_system(deps)
        .workers(3);
    if knobs_on {
        cfg = cfg.with_numa_nodes(2);
    }
    let rt = Runtime::new(cfg);
    let mut trace = Trace::new(phases);
    let base = SendPtr::new(trace.mem.as_mut_ptr());
    let seen = SendPtr::new(trace.seen.as_mut_ptr());
    let runs: Arc<Vec<AtomicU64>> =
        Arc::new((0..trace.runs.len()).map(|_| AtomicU64::new(0)).collect());
    let iter_ix = Arc::new(AtomicU64::new(0));
    let report = {
        let phases = phases.to_vec();
        let runs = Arc::clone(&runs);
        rt.run_iterative(iters, move |ctx| {
            let i = iter_ix.fetch_add(1, Ordering::Relaxed) as usize;
            for (ti, (accs, seed)) in phases[i % phases.len()].iter().enumerate() {
                let mut d = Deps::new();
                for acc in accs {
                    let addr = unsafe { base.add(acc.addr_idx()).addr() };
                    d = match acc {
                        Acc::Read(_) => d.read_addr(addr),
                        Acc::Write(_) => d.write_addr(addr),
                        Acc::ReadWrite(_) => d.readwrite_addr(addr),
                    };
                }
                let accs = accs.clone();
                let seed = *seed;
                let runs = Arc::clone(&runs);
                ctx.spawn(d, move |_| {
                    runs[ti].fetch_add(1, Ordering::Relaxed);
                    // SAFETY: the declared accesses order the cells; slot
                    // `ti` is touched by one task per (barriered)
                    // iteration.
                    unsafe { exec_task(&accs, seed, base.get(), seen.add(ti).get()) };
                });
            }
        })
    };
    assert_eq!(rt.live_tasks(), 0, "tasks leak under {sched:?}/{deps:?}");
    trace.runs = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
    Outcome { report, trace }
}

/// Live-vs-live differential: the NUMA add buffers change *how* released
/// tasks reach workers, never how iterations are classified or what gets
/// frozen. Structural-hash values are excluded (each run hashes its own
/// heap addresses); cached-graph entries are compared by (tasks,
/// replays) shape instead.
fn assert_same_classification(on: &ReplayReport, off: &ReplayReport, what: &str) {
    on.assert_classification();
    off.assert_classification();
    assert_eq!(on.iterations, off.iterations, "{what}: iterations");
    assert_eq!(on.replayed, off.replayed, "{what}: replayed");
    assert_eq!(on.rerecords, off.rerecords, "{what}: rerecords");
    assert_eq!(on.diverged, off.diverged, "{what}: diverged");
    assert_eq!(on.tasks, off.tasks, "{what}: tasks");
    assert_eq!(on.edges, off.edges, "{what}: edges");
    assert_eq!(on.edge_list, off.edge_list, "{what}: edge_list");
    assert_eq!(on.cache_hits, off.cache_hits, "{what}: cache_hits");
    assert_eq!(on.cache_misses, off.cache_misses, "{what}: cache_misses");
    assert_eq!(on.cache_evictions, off.cache_evictions, "{what}: evictions");
    assert_eq!(
        on.pinned_iterations, off.pinned_iterations,
        "{what}: pinned"
    );
    assert_eq!(on.giveups, off.giveups, "{what}: giveups");
    assert_eq!(on.nested_spawns, off.nested_spawns, "{what}: nested");
    assert_eq!(on.pinned_nested, off.pinned_nested, "{what}: pinned_nested");
    let shape = |r: &ReplayReport| {
        r.per_graph_replays
            .iter()
            .map(|&(_, t, n)| (t, n))
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(on), shape(off), "{what}: per-graph replay shape");
}

const SCHEDS: [SchedKind; 3] = [
    SchedKind::Delegation,
    SchedKind::Central(LockKind::PtLock),
    SchedKind::WorkSteal(WsVariant::LifoLocal),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1: the frozen-graph interpreter reproduces the serial
    /// result of a phase-alternating run from the CSR edges alone, under
    /// several hostile orders per program pair (no runtime involved, so
    /// it affords many more cases than the live matrix below).
    #[test]
    fn frozen_graph_interpreter_reproduces_serial(
        a in program_strategy(),
        b in program_strategy(),
    ) {
        let phases = [a, b];
        let iters = 4;
        let want = serial(&phases, iters);
        let graphs = [freeze(&phases[0]), freeze(&phases[1])];
        let mut rng = phases[0][0].1;
        for _order in 0..8 {
            let mut got = Trace::new(&phases);
            for i in 0..iters {
                let k = i % phases.len();
                interpret_frozen(&graphs[k], &phases[k], &mut got, &mut rng);
            }
            prop_assert_eq!(&got, &want, "frozen edges do not order every conflict");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 2: the live engine — across the scheduler × deps matrix,
    /// knobs on and off — matches the serial interpreter, freezes exactly
    /// the edges of the model graph Property 1 validates, and classifies
    /// identically on both sides.
    #[test]
    fn live_engine_matches_serial_and_frozen_model(
        a in program_strategy(),
        b in program_strategy(),
    ) {
        let phases = [a, b];
        let iters = 6;
        let want = serial(&phases, iters);
        // The last graph the live engine freezes is phase B's shape
        // (iteration 1 diverges from or truncates A) unless both phases
        // spawn the same shape.
        let model = [freeze(&phases[0]), freeze(&phases[1])];
        let same_shape = model[0].structural_hash() == model[1].structural_hash();
        let last = &model[if same_shape { 0 } else { 1 }];
        for sched in SCHEDS {
            for deps in [DepsKind::WaitFree, DepsKind::Locking] {
                let what = format!("{sched:?}/{deps:?}");
                let on = run_engine(&phases, iters, sched, deps, true);
                let off = run_engine(&phases, iters, sched, deps, false);
                prop_assert_eq!(&on.trace, &want, "knobs on differs from serial ({})", &what);
                prop_assert_eq!(&off.trace, &want, "knobs off differs from serial ({})", &what);
                prop_assert_eq!(
                    &on.report.edge_list,
                    &last.edge_pairs(),
                    "engine froze other edges than the model ({})",
                    &what
                );
                assert_same_classification(&on.report, &off.report, &what);
            }
        }
    }
}
