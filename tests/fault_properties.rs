//! Chaos property tests for the fault-tolerance layer: for *random task
//! programs* under *random fault plans*, across schedulers × dependency
//! systems × (`run` | `run_iterative`), the runtime must
//!
//! 1. always terminate with balanced life-cycle accounting (no leaked
//!    tasks, no hung taskwait) no matter where a panic lands;
//! 2. cancel **exactly** the transitive successor closure of the failed
//!    task over blocking edges — no task more, no task fewer;
//! 3. behave identically to a plain runtime when the armed plan never
//!    fires (fault tolerance is semantically free).

use proptest::prelude::*;

use nanotask::{
    Deps, DepsKind, FAULT_PANIC_PREFIX, FailureKind, FaultPlan, RunIterative, Runtime,
    RuntimeConfig, SchedKind, SendPtr,
};
use nanotask_core::sched::{LockKind, WsVariant};
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

const ADDRS: usize = 4;
const MAX_TASKS: usize = 20;

/// A random program: per task, 1–2 distinct address indices, accessed
/// write/readwrite-only so every shared address is a strict blocking
/// chain in spawn order (the successor relation is then exact and
/// computable without modelling reader concurrency).
fn program_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(
        proptest::collection::vec(0usize..ADDRS, 1..3).prop_map(|mut a| {
            a.dedup();
            a
        }),
        2..MAX_TASKS,
    )
}

fn sched_for(ix: usize) -> SchedKind {
    match ix % 3 {
        0 => SchedKind::Delegation,
        1 => SchedKind::Central(LockKind::PtLock),
        _ => SchedKind::WorkSteal(WsVariant::LifoLocal),
    }
}

fn deps_for(ix: usize) -> DepsKind {
    if ix.is_multiple_of(2) {
        DepsKind::WaitFree
    } else {
        DepsKind::Locking
    }
}

/// Spawn `program` under `ctx`, setting bit `k` of `ran` when task `k`'s
/// body executes and panicking in task `victim` (if any).
fn spawn_program(
    ctx: &nanotask::TaskCtx,
    program: &[Vec<usize>],
    cells: SendPtr<u64>,
    ran: &Arc<AtomicU64>,
    victim: Option<usize>,
) {
    for (k, accs) in program.iter().enumerate() {
        let mut deps = Deps::new();
        for &a in accs {
            // SAFETY: a < ADDRS, in-bounds of the cells array.
            deps = deps.readwrite_addr(unsafe { cells.add(a) }.addr());
        }
        let ran = Arc::clone(ran);
        ctx.spawn(deps, move |_| {
            if victim == Some(k) {
                std::panic::panic_any(format!("{FAULT_PANIC_PREFIX}: chaos victim {k}"));
            }
            ran.fetch_or(1 << k, Ordering::Relaxed);
        });
    }
}

/// The exact transitive successor closure of `victim` over blocking
/// edges: each address is a spawn-ordered chain, a failed or cancelled
/// task poisons the next accessor of *every* address it declared, and
/// cancelled tasks keep forwarding (they still run the completion
/// protocol). Forward BFS over "next accessor per declared address".
fn successor_closure(program: &[Vec<usize>], victim: usize) -> u64 {
    let mut seen = vec![false; program.len()];
    seen[victim] = true;
    let mut stack = vec![victim];
    let mut mask = 0u64;
    while let Some(i) = stack.pop() {
        for &a in &program[i] {
            if let Some(j) = (i + 1..program.len()).find(|&j| program[j].contains(&a))
                && !seen[j]
            {
                seen[j] = true;
                mask |= 1 << j;
                stack.push(j);
            }
        }
    }
    mask
}

/// Run `program` on a fresh runtime, return (outcome, ran-mask, stats).
fn run_once(
    cfg: RuntimeConfig,
    program: Vec<Vec<usize>>,
    victim: Option<usize>,
) -> (nanotask::RunOutcome, u64, nanotask::RuntimeStats) {
    let rt = Runtime::new(cfg);
    let cells = Box::into_raw(vec![0u64; ADDRS].into_boxed_slice()) as *mut u64;
    let p = SendPtr::new(cells);
    let ran = Arc::new(AtomicU64::new(0));
    let ran2 = Arc::clone(&ran);
    let outcome = rt.run_outcome(move |ctx| {
        spawn_program(ctx, &program, SendPtr::new(p.get()), &ran2, victim);
    });
    assert_eq!(rt.live_tasks(), 0, "no leaked tasks");
    let stats = rt.stats();
    unsafe {
        drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
            cells, ADDRS,
        )));
    }
    (outcome, ran.load(Ordering::Acquire), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: random fault plans on random programs, across the
    /// scheduler × dependency-system × entry-point matrix, always
    /// terminate with balanced accounting — at most one recorded
    /// failure, zero live tasks, create/free counters equal.
    #[test]
    fn chaos_always_terminates(
        program in program_strategy(),
        combo in 0usize..6,
        workers in 1usize..4,
        fault_at in 0u64..(2 * MAX_TASKS as u64),
        in_worker in proptest::option::of(0usize..4),
        delay in 0u64..2,
        iterative in 0u8..2,
    ) {
        let mut plan = FaultPlan::panic_at(fault_at).with_delay_ns(delay * 500);
        if let Some(w) = in_worker {
            plan = plan.in_worker(w % workers);
        }
        let cfg = RuntimeConfig::optimized()
            .scheduler(sched_for(combo))
            .dependency_system(deps_for(combo))
            .workers(workers)
            .with_fault_plan(plan);
        let n = program.len() as u64;

        if iterative == 0 {
            let (outcome, _, stats) = run_once(cfg, program, None);
            prop_assert!(outcome.failures.len() <= 1, "{}", outcome.summary());
            prop_assert!(outcome.completed);
            prop_assert!(outcome.tasks_cancelled < n);
            prop_assert_eq!(stats.tasks_created, stats.tasks_freed);
        } else {
            let rt = Runtime::new(cfg);
            let cells = Box::into_raw(vec![0u64; ADDRS].into_boxed_slice()) as *mut u64;
            let p = SendPtr::new(cells);
            let ran = Arc::new(AtomicU64::new(0));
            const ITERS: usize = 3;
            let (report, outcome) = rt.run_iterative_outcome(ITERS, move |ctx| {
                spawn_program(ctx, &program, SendPtr::new(p.get()), &ran, None);
            });
            prop_assert_eq!(report.iterations, ITERS, "{}", report);
            prop_assert!(outcome.failures.len() <= 1, "{}", outcome.summary());
            prop_assert!(outcome.completed);
            prop_assert!(report.faulted <= 1, "{}", report);
            prop_assert_eq!(rt.live_tasks(), 0);
            let stats = rt.stats();
            prop_assert_eq!(stats.tasks_created, stats.tasks_freed);
            unsafe {
                drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                    cells, ADDRS,
                )));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property 2: a panic planted in a statically-chosen victim cancels
    /// exactly the victim's transitive successor closure over blocking
    /// edges — verified against an independent forward-BFS model, on
    /// both dependency systems.
    #[test]
    fn cancellation_is_exact_transitive_closure(
        program in program_strategy(),
        victim_ix in 0usize..MAX_TASKS,
        combo in 0usize..6,
        workers in 1usize..4,
    ) {
        let victim = victim_ix % program.len();
        let expected = successor_closure(&program, victim);
        let all: u64 = (1 << program.len()) - 1;

        let cfg = RuntimeConfig::optimized()
            .scheduler(sched_for(combo))
            .dependency_system(deps_for(combo))
            .workers(workers)
            // Never fires: installs the quiet hook for the planted panic.
            .with_fault_plan(FaultPlan::never());
        let (outcome, ran, stats) = run_once(cfg, program, Some(victim));

        prop_assert_eq!(outcome.failures.len(), 1, "{}", outcome.summary());
        prop_assert_eq!(
            outcome.tasks_cancelled,
            expected.count_ones() as u64,
            "cancelled count = |closure|; ran={:b} expected-cancelled={:b}",
            ran,
            expected
        );
        // Exactly the non-victim, non-closure tasks ran.
        prop_assert_eq!(ran, all & !expected & !(1 << victim));
        prop_assert!(outcome.completed);
        prop_assert_eq!(stats.tasks_created, stats.tasks_freed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 3: an armed-but-silent plan (plus injected busy-delay)
    /// changes nothing observable on a fault-free run — same ran set,
    /// same life-cycle counters, clean outcome.
    #[test]
    fn fault_free_runs_identical(
        program in program_strategy(),
        combo in 0usize..6,
        delay in 0u64..2,
    ) {
        let base = RuntimeConfig::optimized()
            .scheduler(sched_for(combo))
            .dependency_system(deps_for(combo))
            .workers(1);
        let armed = base
            .clone()
            .with_fault_plan(FaultPlan::never().with_seed(7).with_delay_ns(delay * 1000));

        let (o1, ran1, s1) = run_once(base, program.clone(), None);
        let (o2, ran2, s2) = run_once(armed, program, None);
        prop_assert!(o1.is_ok() && o2.is_ok());
        prop_assert_eq!(o1.tasks_cancelled, 0);
        prop_assert_eq!(o2.tasks_cancelled, 0);
        prop_assert_eq!(ran1, ran2);
        prop_assert_eq!(s1.tasks_created, s2.tasks_created);
        prop_assert_eq!(s1.tasks_executed, s2.tasks_executed);
        prop_assert_eq!(s1.tasks_freed, s2.tasks_freed);
    }
}

/// An injected mid-chain panic on every scheduler × dependency-system
/// combination cancels exactly the victim's successors and leaks
/// nothing, and the same still-armed runtime then records afresh and
/// replays a fault-free `run_iterative` with no residual poison.
#[test]
fn injected_panic_then_clean_replay_on_same_runtime() {
    const CHAIN: u64 = 24;
    const KILL_AT: u64 = 15;
    // 3 × 4 = 12 eligible bodies: the follow-up stays below KILL_AT, so
    // the still-armed plan cannot re-fire.
    const ITERS: usize = 3;
    const ITER_CHAIN: u64 = 4;

    for combo in 0..6 {
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .scheduler(sched_for(combo))
                .dependency_system(deps_for(combo))
                .workers(3)
                .with_fault_plan(FaultPlan::panic_at(KILL_AT)),
        );
        let cell = Box::into_raw(Box::new(0u64));
        let p = SendPtr::new(cell);
        let chain = move |ctx: &nanotask::TaskCtx, len: u64| {
            for _ in 0..len {
                // SAFETY: serialized by the readwrite chain.
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1
                });
            }
        };

        let outcome = rt.run_outcome(move |ctx| chain(ctx, CHAIN));
        assert_eq!(outcome.failures.len(), 1, "{combo}: {}", outcome.summary());
        assert_eq!(outcome.failures[0].kind, FailureKind::Panic, "{combo}");
        assert_eq!(outcome.tasks_cancelled, CHAIN - KILL_AT - 1, "{combo}");
        assert!(outcome.completed, "{combo}: graph drained");
        assert_eq!(unsafe { *cell }, KILL_AT, "{combo}: only predecessors ran");
        assert_eq!(rt.live_tasks(), 0, "{combo}: no leaked tasks");
        let s = rt.stats();
        assert_eq!(s.tasks_created, s.tasks_freed, "{combo}");

        let (report, outcome) = rt.run_iterative_outcome(ITERS, move |ctx| chain(ctx, ITER_CHAIN));
        assert!(outcome.is_ok(), "{combo}: {}", outcome.summary());
        assert_eq!(report.faulted, 0, "{combo}: {report}");
        assert_eq!(report.rerecords, 1, "{combo}: fresh recording: {report}");
        assert_eq!(report.replayed, ITERS - 1, "{combo}: {report}");
        assert_eq!(
            unsafe { *cell },
            KILL_AT + ITERS as u64 * ITER_CHAIN,
            "{combo}: every follow-up body ran"
        );
        assert_eq!(rt.live_tasks(), 0, "{combo}");
        unsafe { drop(Box::from_raw(cell)) };
    }
}

/// One node of a fan-out-4 fork-join tree: spawn the children, then wait
/// for them. Siblings form a `readwrite` chain on a cell their parent
/// owns, so a panicking child cancels its later siblings, and cancelled
/// bodies spawn no subtree.
fn nested_node(ctx: &nanotask::TaskCtx, depth: u32) {
    if depth == 0 {
        return;
    }
    let cell = Arc::new(AtomicU64::new(0));
    for _ in 0..4 {
        let keep = Arc::clone(&cell);
        ctx.spawn(
            Deps::new().readwrite_addr(Arc::as_ptr(&cell) as usize),
            move |c| {
                keep.fetch_add(1, Ordering::Relaxed);
                nested_node(c, depth - 1);
            },
        );
    }
    ctx.taskwait();
}

/// A panic injected anywhere in a nested fork-join tree, on every
/// scheduler × dependency-system combination, is reported once and the
/// tree still drains: the cancelled siblings and their waiting ancestors
/// complete through the scoped `taskwait` pop, and nothing leaks.
#[test]
fn injected_panic_in_a_nested_tree_drains() {
    // Depth 4: 340 eligible bodies below the root.
    for combo in 0..6 {
        for kill_at in [0, 7, 60, 300] {
            let what = format!("combo {combo}, panic at {kill_at}");
            let rt = Runtime::new(
                RuntimeConfig::optimized()
                    .scheduler(sched_for(combo))
                    .dependency_system(deps_for(combo))
                    .workers(3)
                    .with_fault_plan(FaultPlan::panic_at(kill_at)),
            );
            let outcome = rt.run_outcome(|ctx| nested_node(ctx, 4));
            assert_eq!(outcome.failures.len(), 1, "{what}: {}", outcome.summary());
            assert_eq!(outcome.failures[0].kind, FailureKind::Panic, "{what}");
            assert!(outcome.completed, "{what}: tree drained");
            if kill_at == 0 {
                // Only the root's first child is ready at first: its three
                // later siblings are cancelled before spawning anything.
                assert_eq!(outcome.tasks_cancelled, 3, "{what}");
            }
            assert_eq!(rt.live_tasks(), 0, "{what}: no leaked tasks");
            let s = rt.stats();
            assert_eq!(s.tasks_created, s.tasks_freed, "{what}");
        }
    }
}
