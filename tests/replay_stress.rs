//! Stress tests for `Runtime::run_iterative` across the full scheduler ×
//! dependency-system configuration matrix, plus the Priority-policy
//! determinism contract under replay feeding.

use nanotask::runtime_core::sched::{LockKind, Policy, WsVariant};
use nanotask::{Deps, RedOp, RunIterative, Runtime, RuntimeConfig, SchedKind, SendPtr};
use std::sync::{Arc, Mutex};

/// A mixed graph: an inout chain, a reader fan, a reduction group and
/// independent tasks — per iteration.
fn mixed_iteration(
    ctx: &nanotask::TaskCtx,
    chain: SendPtr<u64>,
    fan: SendPtr<u64>,
    acc: SendPtr<f64>,
) {
    for _ in 0..6 {
        ctx.spawn(Deps::new().readwrite_addr(chain.addr()), move |_| unsafe {
            *chain.get() += 1;
        });
    }
    ctx.spawn(Deps::new().write_addr(fan.addr()), move |_| unsafe {
        *fan.get() += 10;
    });
    for _ in 0..4 {
        ctx.spawn(Deps::new().read_addr(fan.addr()), move |_| {});
    }
    ctx.spawn(Deps::new().readwrite_addr(fan.addr()), move |_| unsafe {
        *fan.get() *= 2;
    });
    for i in 0..5u64 {
        ctx.spawn(
            Deps::new().reduce_addr(acc.addr(), 8, RedOp::SumF64),
            move |c| unsafe {
                *c.red_slot(&*(acc.addr() as *const f64)) += (i + 1) as f64;
            },
        );
    }
    ctx.spawn(Deps::new().read_addr(acc.addr()), move |_| {});
    for _ in 0..3 {
        ctx.spawn(Deps::new(), |_| {});
    }
}

#[test]
fn replay_stress_all_sched_and_deps_kinds() {
    let scheds = [
        SchedKind::Delegation,
        SchedKind::Central(LockKind::PtLock),
        SchedKind::WorkSteal(WsVariant::LifoLocal),
        SchedKind::WorkSteal(WsVariant::FifoLocal),
    ];
    let deps_kinds = [nanotask::DepsKind::WaitFree, nanotask::DepsKind::Locking];
    const ITERS: usize = 8;
    for sched in scheds {
        for deps in deps_kinds {
            let rt = Runtime::new(
                RuntimeConfig::optimized()
                    .scheduler(sched)
                    .dependency_system(deps)
                    .workers(4),
            );
            let chain = Box::leak(Box::new(0u64)) as *mut u64;
            let fan = Box::leak(Box::new(0u64)) as *mut u64;
            let acc = Box::leak(Box::new(0.0f64)) as *mut f64;
            let (pc, pf, pa) = (SendPtr::new(chain), SendPtr::new(fan), SendPtr::new(acc));
            let report = rt.run_iterative(ITERS, move |ctx| {
                mixed_iteration(ctx, pc, pf, pa);
            });
            let label = format!("{sched:?}/{deps:?}");
            assert_eq!(unsafe { *chain }, 6 * ITERS as u64, "{label}: chain");
            // Per iteration: fan = (fan + 10) * 2.
            let mut want_fan = 0u64;
            for _ in 0..ITERS {
                want_fan = (want_fan + 10) * 2;
            }
            assert_eq!(unsafe { *fan }, want_fan, "{label}: fan");
            assert_eq!(unsafe { *acc }, (15 * ITERS) as f64, "{label}: reduction");
            assert_eq!(report.iterations, ITERS, "{label}");
            assert_eq!(report.replayed, ITERS - 1, "{label}: replays");
            assert_eq!(report.diverged, 0, "{label}");
            assert_eq!(rt.live_tasks(), 0, "{label}: reclamation");
            unsafe {
                drop(Box::from_raw(chain));
                drop(Box::from_raw(fan));
                drop(Box::from_raw(acc));
            }
        }
    }
}

/// Cache-stress matrix: a period-5 phase cycle (mixed graph / inout
/// chain / reduction fan / fan writer / independent tasks) across
/// scheduler and dependency-system kinds. Five shapes do not fit the
/// engine's four-entry graph cache, so the engine thrashes (evictions) or
/// gives up (pinned), and either way every phase must stay serially
/// correct.
#[test]
fn replay_stress_cycle_longer_than_the_cache() {
    const PERIOD: u64 = 5;
    const ITERS: usize = 10;
    let scheds = [
        SchedKind::Delegation,
        SchedKind::Central(LockKind::PtLock),
        SchedKind::WorkSteal(WsVariant::LifoLocal),
    ];
    for sched in scheds {
        for deps in [nanotask::DepsKind::WaitFree, nanotask::DepsKind::Locking] {
            let rt = Runtime::new(
                RuntimeConfig::optimized()
                    .scheduler(sched)
                    .dependency_system(deps)
                    .workers(4),
            );
            let chain = Box::leak(Box::new(0u64)) as *mut u64;
            let fan = Box::leak(Box::new(0u64)) as *mut u64;
            let acc = Box::leak(Box::new(0.0f64)) as *mut f64;
            let (pc, pf, pa) = (SendPtr::new(chain), SendPtr::new(fan), SendPtr::new(acc));
            let iter = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let report = rt.run_iterative(ITERS, move |ctx| {
                let it = iter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                match it % PERIOD {
                    0 => mixed_iteration(ctx, pc, pf, pa),
                    1 => {
                        for _ in 0..6 {
                            ctx.spawn(Deps::new().readwrite_addr(pc.addr()), move |_| unsafe {
                                *pc.get() += 1;
                            });
                        }
                    }
                    2 => {
                        for i in 0..5u64 {
                            ctx.spawn(
                                Deps::new().reduce_addr(pa.addr(), 8, RedOp::SumF64),
                                move |c| unsafe {
                                    *c.red_slot(&*(pa.addr() as *const f64)) += (i + 1) as f64;
                                },
                            );
                        }
                        ctx.spawn(Deps::new().read_addr(pa.addr()), move |_| {});
                    }
                    3 => {
                        ctx.spawn(Deps::new().readwrite_addr(pf.addr()), move |_| unsafe {
                            *pf.get() += 1;
                        });
                        for _ in 0..2 {
                            ctx.spawn(Deps::new().read_addr(pf.addr()), move |_| {});
                        }
                    }
                    _ => {
                        for _ in 0..4 {
                            ctx.spawn(Deps::new(), |_| {});
                        }
                        ctx.spawn(Deps::new().readwrite_addr(pc.addr()), move |_| unsafe {
                            *pc.get() += 1;
                        });
                    }
                }
            });
            let label = format!("{sched:?}/{deps:?}");
            // 2 full cycles: chain gets 6 per phase-0 and phase-1
            // iteration and 1 per phase-4 one; fan transforms on phase 0
            // and increments on phase 3; the reduction adds 15 on phase-0
            // and phase-2 iterations.
            assert_eq!(unsafe { *chain }, 2 * (6 + 6 + 1), "{label}: chain");
            let mut want_fan = 0u64;
            for _ in 0..2 {
                want_fan = (want_fan + 10) * 2 + 1;
            }
            assert_eq!(unsafe { *fan }, want_fan, "{label}: fan");
            assert_eq!(unsafe { *acc }, (15 * 4) as f64, "{label}: reduction");
            assert_eq!(report.iterations, ITERS, "{label}");
            assert_eq!(
                report.cache_hits + report.cache_misses + report.pinned_iterations,
                report.iterations,
                "{label}: classification invariant: {report:?}"
            );
            assert!(
                report.cache_evictions + report.giveups as u64 > 0,
                "{label}: thrash or give up: {report:?}"
            );
            assert_eq!(rt.live_tasks(), 0, "{label}: reclamation");
            unsafe {
                drop(Box::from_raw(chain));
                drop(Box::from_raw(fan));
                drop(Box::from_raw(acc));
            }
        }
    }
}

#[test]
fn replay_feeding_is_deterministic_under_priority_policy() {
    // One worker + Priority policy: the replay engine releases all
    // ready tasks during enumeration (nothing executes until the root
    // task-waits), so the pop order must be priority-descending with
    // FIFO among equals — identical every iteration.
    const ITERS: usize = 5;
    let rt = Runtime::new(
        RuntimeConfig::optimized()
            .workers(1)
            .with_policy(Policy::Priority),
    );
    let order: Arc<Mutex<Vec<i32>>> = Arc::new(Mutex::new(Vec::new()));
    let o = Arc::clone(&order);
    let prios = [1, 5, 3, 5, 2, 4, 5];
    let report = rt.run_iterative(ITERS, move |ctx| {
        for (k, &p) in prios.iter().enumerate() {
            let o = Arc::clone(&o);
            // Tag equal priorities with their spawn rank to observe ties.
            ctx.spawn_prioritized("p", p, Deps::new(), move |_| {
                o.lock().unwrap().push(p * 100 + k as i32);
            });
        }
    });
    assert_eq!(report.replayed, ITERS - 1);
    // 5s in spawn order (ranks 1, 3, 6), then 4, 3, 2, 1.
    let per_iter = vec![501, 503, 506, 405, 302, 204, 100];
    let want: Vec<i32> = (0..ITERS).flat_map(|_| per_iter.clone()).collect();
    assert_eq!(
        *order.lock().unwrap(),
        want,
        "priority ties must pop in spawn order"
    );
}

#[test]
fn replay_with_priority_policy_all_scheds_complete() {
    for sched in [
        SchedKind::Delegation,
        SchedKind::Central(LockKind::PtLock),
        SchedKind::WorkSteal(WsVariant::LifoLocal),
    ] {
        let rt = Runtime::new(
            RuntimeConfig::optimized()
                .scheduler(sched)
                .workers(3)
                .with_policy(Policy::Priority),
        );
        let count = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let c = Arc::clone(&count);
        rt.run_iterative(4, move |ctx| {
            for i in 0..50 {
                let c = Arc::clone(&c);
                ctx.spawn_prioritized("p", i % 7, Deps::new(), move |_| {
                    c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        assert_eq!(
            count.load(std::sync::atomic::Ordering::Relaxed),
            200,
            "{sched:?}"
        );
    }
}
