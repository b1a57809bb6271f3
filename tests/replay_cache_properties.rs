//! Replay conformance suite for the multi-graph cache: property-based
//! tests over the scheduler × dependency-system matrix driving
//! *phase-alternating* and *randomly-perturbed* bodies through
//! `Runtime::run_iterative`, plus a differential oracle against plain
//! `run` and the nested-domain fallback regression test.
//!
//! Checked properties:
//!
//! 1. **Serial equivalence** — final memory equals a serial execution of
//!    the alternating program sequence (every iteration, including the
//!    ones replayed from the cache and the divergent cache-probe paths);
//! 2. **Exec exactly once** — each task of the active phase executes
//!    exactly once per iteration, never zero, never twice;
//! 3. **Report invariants** — `cache_hits + cache_misses +
//!    pinned_iterations == iterations`; after warmup on a 2-phase body
//!    re-records equal the number of distinct shapes and divergences
//!    stop growing;
//! 4. **Differential oracle** — `run_iterative` with the cache enabled
//!    produces bit-identical workload output to running the same body
//!    once per iteration through plain `run`, including
//!    partial-reduction carryover across divergence→cache-hit paths;
//! 5. **Nested-domain fallback** — a body whose tasks spawn nested
//!    children with cross-sibling dependencies is pinned to the
//!    dependency system (report counter): caught at record time when it
//!    nests from iteration 0, and at the end of the first
//!    nesting-observed iteration when nesting appears later.

use proptest::prelude::*;

use nanotask::runtime_core::sched::LockKind;
use nanotask::{
    Deps, DepsKind, ReplayReport, RunIterative, Runtime, RuntimeConfig, SchedKind, SendPtr,
};
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

const ADDRS: usize = 4;

/// One randomly-generated access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
}

fn acc_strategy() -> impl Strategy<Value = Acc> {
    (0usize..ADDRS, 0u8..3).prop_map(|(a, m)| match m {
        0 => Acc::Read(a),
        1 => Acc::Write(a),
        _ => Acc::ReadWrite(a),
    })
}

type Program = Vec<(Vec<Acc>, u64)>;

/// A task: up to 2 accesses (distinct addresses) + a seed for its update.
fn task_strategy() -> impl Strategy<Value = (Vec<Acc>, u64)> {
    (proptest::collection::vec(acc_strategy(), 1..3), 1u64..1000).prop_map(|(mut accs, seed)| {
        accs.dedup_by_key(|a| a.addr_idx());
        (accs, seed)
    })
}

fn program_strategy() -> impl Strategy<Value = Program> {
    proptest::collection::vec(task_strategy(), 1..16)
}

/// Deterministic update applied by writers.
fn mix(old: u64, seed: u64) -> u64 {
    old.wrapping_mul(6364136223846793005)
        .wrapping_add(seed)
        .rotate_left(13)
}

/// Serial execution of the alternating program sequence.
fn serial_alternating(a: &Program, b: &Program, iters: usize) -> [u64; ADDRS] {
    let mut mem = [0u64; ADDRS];
    for it in 0..iters {
        let p = if it.is_multiple_of(2) { a } else { b };
        for (accs, seed) in p {
            for acc in accs {
                if let Acc::Write(x) | Acc::ReadWrite(x) = *acc {
                    mem[x] = mix(mem[x], *seed);
                }
            }
        }
    }
    mem
}

/// Structural shape of a program, as the replay engine's signature hash
/// sees it (labels and priorities are constant here).
fn shape(p: &Program) -> Vec<Vec<Acc>> {
    p.iter().map(|(accs, _)| accs.clone()).collect()
}

/// Spawn one phase of the alternating body, bumping the per-task
/// execution counter of that phase.
fn spawn_program(
    ctx: &nanotask::TaskCtx,
    program: &Program,
    base: SendPtr<u64>,
    execs: &Arc<Vec<AtomicU64>>,
) {
    for (ti, (accs, seed)) in program.iter().enumerate() {
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
        let execs = Arc::clone(execs);
        ctx.spawn(d, move |_| {
            execs[ti].fetch_add(1, Ordering::Relaxed);
            for acc in &accs {
                if let Acc::Write(x) | Acc::ReadWrite(x) = *acc {
                    let p = unsafe { base.add(x).get() };
                    unsafe { *p = mix(*p, seed) };
                }
            }
        });
    }
}

/// Drive `iters` iterations of the A/B-alternating body and check serial
/// equivalence, exec-exactly-once and the report invariants.
fn check_alternating(a: Program, b: Program, sched: SchedKind, deps: DepsKind, iters: usize) {
    let want = serial_alternating(&a, &b, iters);
    let rt = Runtime::new(
        RuntimeConfig::optimized()
            .scheduler(sched)
            .dependency_system(deps)
            .workers(3),
    );
    let mut mem = Box::new([0u64; ADDRS]);
    let exec_a: Arc<Vec<AtomicU64>> = Arc::new((0..a.len()).map(|_| AtomicU64::new(0)).collect());
    let exec_b: Arc<Vec<AtomicU64>> = Arc::new((0..b.len()).map(|_| AtomicU64::new(0)).collect());
    let distinct = shape(&a) != shape(&b);
    let report = {
        let base = SendPtr::new(mem.as_mut_ptr());
        let (a, b) = (a.clone(), b.clone());
        let (exec_a, exec_b) = (Arc::clone(&exec_a), Arc::clone(&exec_b));
        let iter = AtomicU64::new(0);
        rt.run_iterative(iters, move |ctx| {
            let it = iter.fetch_add(1, Ordering::Relaxed);
            if it.is_multiple_of(2) {
                spawn_program(ctx, &a, base, &exec_a);
            } else {
                spawn_program(ctx, &b, base, &exec_b);
            }
        })
    };
    let label = format!("{sched:?}/{deps:?} distinct={distinct}");
    assert_eq!(*mem, want, "{label}: serial equivalence");
    let a_phases = iters.div_ceil(2) as u64;
    let b_phases = (iters / 2) as u64;
    for (ti, c) in exec_a.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::Relaxed),
            a_phases,
            "{label}: A task {ti} exactly once per A-phase"
        );
    }
    for (ti, c) in exec_b.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::Relaxed),
            b_phases,
            "{label}: B task {ti} exactly once per B-phase"
        );
    }
    check_report(&report, &label);
    assert_eq!(report.iterations, iters, "{label}");
    assert_eq!(report.pinned_iterations, 0, "{label}: no give-up expected");
    if distinct {
        // Warmup records each shape once; hysteresis must keep the
        // divergence count from growing with the iteration count.
        assert_eq!(report.rerecords, 2, "{label}: one record per shape");
        assert!(
            report.diverged <= 2,
            "{label}: divergences stop after warmup: {report:?}"
        );
        assert!(
            report.replayed >= iters - 3,
            "{label}: steady-state replay: {report:?}"
        );
    } else {
        assert_eq!(report.rerecords, 1, "{label}: identical shapes");
        assert_eq!(report.diverged, 0, "{label}");
        assert_eq!(report.replayed, iters - 1, "{label}");
    }
}

/// The per-iteration classification must be total and exclusive —
/// asserted centrally by `ReplayReport::assert_classification`; the
/// label-tagged pre-check keeps the matrix coordinates in the failure
/// message.
fn check_report(report: &ReplayReport, label: &str) {
    assert!(
        report.classification_ok(),
        "{label}: classification violated: {report}"
    );
    report.assert_classification();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn alternating_bodies_conform_delegation_waitfree(
        a in program_strategy(), b in program_strategy()
    ) {
        check_alternating(a, b, SchedKind::Delegation, DepsKind::WaitFree, 8);
    }

    #[test]
    fn alternating_bodies_conform_delegation_locking(
        a in program_strategy(), b in program_strategy()
    ) {
        check_alternating(a, b, SchedKind::Delegation, DepsKind::Locking, 8);
    }

    #[test]
    fn alternating_bodies_conform_central_waitfree(
        a in program_strategy(), b in program_strategy()
    ) {
        check_alternating(a, b, SchedKind::Central(LockKind::PtLock), DepsKind::WaitFree, 8);
    }

    #[test]
    fn alternating_bodies_conform_central_locking(
        a in program_strategy(), b in program_strategy()
    ) {
        check_alternating(a, b, SchedKind::Central(LockKind::PtLock), DepsKind::Locking, 8);
    }

    #[test]
    fn alternating_bodies_conform_worksteal_waitfree(
        a in program_strategy(), b in program_strategy()
    ) {
        check_alternating(
            a, b,
            SchedKind::WorkSteal(nanotask::runtime_core::sched::WsVariant::LifoLocal),
            DepsKind::WaitFree,
            8,
        );
    }

    #[test]
    fn alternating_bodies_conform_worksteal_locking(
        a in program_strategy(), b in program_strategy()
    ) {
        check_alternating(
            a, b,
            SchedKind::WorkSteal(nanotask::runtime_core::sched::WsVariant::LifoLocal),
            DepsKind::Locking,
            8,
        );
    }

    /// Shared-prefix perturbation: phase B is phase A with extra tasks
    /// appended, so the first-spawn switch probe cannot distinguish them
    /// and the divergence→cache-probe path plus the phase predictor
    /// carry steady-state replay.
    #[test]
    fn perturbed_suffix_bodies_conform(
        a in program_strategy(),
        extra in proptest::collection::vec(task_strategy(), 1..4)
    ) {
        let mut b = a.clone();
        b.extend(extra);
        check_alternating(a, b, SchedKind::Delegation, DepsKind::WaitFree, 8);
    }

    /// Differential oracle: `run_iterative` (cache enabled, alternating
    /// body, divergence→cache-probe path exercised) must produce
    /// bit-identical memory to running the same alternating body once
    /// per iteration through plain `run`.
    #[test]
    fn differential_oracle_matches_plain_run(
        a in program_strategy(), b in program_strategy()
    ) {
        const ITERS: usize = 6;
        // Reference: plain `run`, one call per iteration.
        let rt_ref = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut ref_mem = Box::new([0u64; ADDRS]);
        {
            let base = SendPtr::new(ref_mem.as_mut_ptr());
            let dummy: Arc<Vec<AtomicU64>> =
                Arc::new((0..a.len().max(b.len())).map(|_| AtomicU64::new(0)).collect());
            for it in 0..ITERS {
                let p = if it.is_multiple_of(2) { a.clone() } else { b.clone() };
                let d = Arc::clone(&dummy);
                rt_ref.run(move |ctx| spawn_program(ctx, &p, base, &d));
            }
        }
        // Subject: record & replay with the graph cache.
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut mem = Box::new([0u64; ADDRS]);
        {
            let base = SendPtr::new(mem.as_mut_ptr());
            let dummy: Arc<Vec<AtomicU64>> =
                Arc::new((0..a.len().max(b.len())).map(|_| AtomicU64::new(0)).collect());
            let iter = AtomicU64::new(0);
            let (a, b) = (a.clone(), b.clone());
            rt.run_iterative(ITERS, move |ctx| {
                let it = iter.fetch_add(1, Ordering::Relaxed);
                let p = if it.is_multiple_of(2) { &a } else { &b };
                spawn_program(ctx, p, base, &dummy);
            });
        }
        prop_assert_eq!(*mem, *ref_mem, "replay cache output differs from plain run");
    }
}

/// Partial-reduction carryover across the divergence→cache-probe *hit*
/// path: the body alternates between a 4-member and a 2-member SumF64
/// group for many iterations, so after warmup every divergence resolves
/// as a cache hit — and the partially-fed group contributions must reach
/// the target on every single one of them.
#[test]
fn partial_reduction_carryover_on_cache_hits() {
    const ITERS: usize = 12;
    for sched in [
        SchedKind::Delegation,
        SchedKind::Central(LockKind::PtLock),
        SchedKind::WorkSteal(nanotask::runtime_core::sched::WsVariant::LifoLocal),
    ] {
        let rt = Runtime::new(RuntimeConfig::optimized().scheduler(sched).workers(3));
        let acc = Box::leak(Box::new(0.0f64)) as *mut f64;
        let pa = SendPtr::new(acc);
        let iter = Arc::new(AtomicU64::new(0));
        let report = rt.run_iterative(ITERS, move |ctx| {
            let it = iter.fetch_add(1, Ordering::Relaxed);
            let members = if it.is_multiple_of(2) { 4 } else { 2 };
            for i in 0..members {
                ctx.spawn(
                    Deps::new().reduce_addr(pa.addr(), 8, nanotask::RedOp::SumF64),
                    move |c| unsafe {
                        *c.red_slot(&*(pa.addr() as *const f64)) += (i + 1) as f64;
                    },
                );
            }
            ctx.spawn(Deps::new().read_addr(pa.addr()), move |_| {});
        });
        // Even iterations contribute 1+2+3+4 = 10, odd ones 1+2 = 3.
        let want = (ITERS / 2) as f64 * 10.0 + (ITERS / 2) as f64 * 3.0;
        assert_eq!(unsafe { *acc }, want, "{sched:?}: reduction carryover");
        check_report(&report, &format!("{sched:?}"));
        assert_eq!(report.rerecords, 2, "{sched:?}: both shapes frozen once");
        assert!(
            report.replayed >= ITERS - 4,
            "{sched:?}: steady state reached: {report:?}"
        );
        unsafe { drop(Box::from_raw(acc)) };
    }
}

/// Regression: a body whose tasks spawn nested children with
/// cross-sibling dependencies (two root tasks' children conflict on one
/// address) must be pinned to the dependency system — the frozen graph
/// cannot order the children, so silently replaying it would race.
#[test]
fn nested_children_with_cross_sibling_deps_are_pinned() {
    const ITERS: usize = 6;
    let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
    let shared = Box::leak(Box::new(0u64)) as *mut u64;
    let p = SendPtr::new(shared);
    let report = rt.run_iterative(ITERS, move |ctx| {
        // Two independent root tasks; each spawns a nested child that
        // read-modify-writes the same address. Only the (global)
        // dependency system serializes the children.
        for _ in 0..2 {
            ctx.spawn(Deps::new(), move |tc| {
                tc.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            });
        }
    });
    assert_eq!(unsafe { *shared }, 2 * ITERS as u64, "children all ran");
    assert!(
        report.pinned_nested,
        "nested domains must pin the body: {report:?}"
    );
    assert!(report.nested_spawns >= 2, "{report:?}");
    assert_eq!(report.replayed, 0, "never silently replayed");
    assert_eq!(report.rerecords, 1, "one record, then fallback");
    assert_eq!(report.pinned_iterations, ITERS - 1);
    assert_eq!(report.giveups, 1);
    check_report(&report, "nested");
    unsafe { drop(Box::from_raw(shared)) };
}

/// The give-up policy interacts correctly with the conformance
/// properties: a never-repeating body stays correct while pinned and the
/// classification invariant holds throughout. 24 iterations cross the
/// engine's give-up threshold (8 consecutive failures) and its first
/// re-check probe (16 pinned iterations later).
#[test]
fn giveup_keeps_serial_equivalence() {
    const ITERS: usize = 24;
    let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
    let slots = Box::leak(vec![0u64; ITERS].into_boxed_slice());
    let base = SendPtr::new(slots.as_mut_ptr());
    let iter = Arc::new(AtomicU64::new(0));
    let report = rt.run_iterative(ITERS, move |ctx| {
        let i = iter.fetch_add(1, Ordering::Relaxed) as usize;
        // A unique chain per iteration: never replays.
        let p = unsafe { base.add(i) };
        for _ in 0..3 {
            ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                *p.get() += 1;
            });
        }
    });
    for (i, s) in slots.iter().enumerate() {
        assert_eq!(*s, 3, "slot {i}");
    }
    assert_eq!(report.replayed, 0);
    assert!(report.giveups >= 1, "{report:?}");
    assert!(report.pinned_iterations > 0, "{report:?}");
    check_report(&report, "giveup");
    unsafe { drop(Box::from_raw(slots as *mut [u64])) };
}
