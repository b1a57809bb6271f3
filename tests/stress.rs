//! Stress tests: oversubscription, deep nesting, taskwait storms,
//! scheduler/allocator churn — the conditions the paper's fine-grained
//! evaluation puts the runtime under, checked for liveness and
//! conservation rather than timing.

use nanotask::runtime_core::sched::LockKind;
use nanotask::{Deps, Runtime, RuntimeConfig, SchedKind, SendPtr};
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn ten_thousand_tiny_independent_tasks() {
    let rt = Runtime::new(RuntimeConfig::optimized().workers(4));
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    rt.run(move |ctx| {
        for _ in 0..10_000 {
            let c = Arc::clone(&c);
            ctx.spawn(Deps::new(), move |_| {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(count.load(Ordering::Relaxed), 10_000);
    assert_eq!(rt.live_tasks(), 0);
}

#[test]
fn long_dependency_chain_5000() {
    let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
    let x = Box::leak(Box::new(0u64)) as *mut u64;
    let p = SendPtr::new(x);
    rt.run(move |ctx| {
        for _ in 0..5_000 {
            ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                *p.get() += 1;
            });
        }
    });
    assert_eq!(unsafe { *x }, 5_000);
    unsafe { drop(Box::from_raw(x)) };
}

#[test]
fn deep_nesting_pyramid() {
    // Each level spawns a child that spawns a child... 200 levels deep,
    // each level taskwaiting on the next.
    fn descend(ctx: &nanotask::TaskCtx<'_>, level: usize, hits: Arc<AtomicU64>) {
        hits.fetch_add(1, Ordering::Relaxed);
        if level == 0 {
            return;
        }
        let h = Arc::clone(&hits);
        ctx.spawn(Deps::new(), move |inner| descend(inner, level - 1, h));
        ctx.taskwait();
    }
    let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    rt.run(move |ctx| descend(ctx, 200, h));
    assert_eq!(hits.load(Ordering::Relaxed), 201);
}

#[test]
fn taskwait_storm() {
    // Many tasks each spawning + waiting on children repeatedly.
    let rt = Runtime::new(RuntimeConfig::optimized().workers(4));
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    rt.run(move |ctx| {
        for _ in 0..50 {
            let c = Arc::clone(&c);
            ctx.spawn(Deps::new(), move |inner| {
                for _ in 0..10 {
                    let c2 = Arc::clone(&c);
                    inner.spawn(Deps::new(), move |_| {
                        c2.fetch_add(1, Ordering::Relaxed);
                    });
                    inner.taskwait();
                }
            });
        }
    });
    assert_eq!(count.load(Ordering::Relaxed), 500);
}

#[test]
fn heavy_oversubscription_sixteen_workers() {
    // 16 workers on (likely) far fewer cores: yielding spin loops must
    // keep everything live.
    let rt = Runtime::new(RuntimeConfig::optimized().workers(16));
    let x = Box::leak(Box::new(0u64)) as *mut u64;
    let p = SendPtr::new(x);
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    rt.run(move |ctx| {
        for i in 0..2_000 {
            if i % 4 == 0 {
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            } else {
                let c = Arc::clone(&c);
                ctx.spawn(Deps::new().read_addr(p.addr()), move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
    });
    assert_eq!(unsafe { *x }, 500);
    assert_eq!(count.load(Ordering::Relaxed), 1_500);
    unsafe { drop(Box::from_raw(x)) };
}

#[test]
fn every_scheduler_survives_fine_grained_burst() {
    for kind in [
        SchedKind::Delegation,
        SchedKind::Central(LockKind::PtLock),
        SchedKind::Central(LockKind::Ticket),
        SchedKind::WorkSteal(nanotask::runtime_core::sched::WsVariant::LifoLocal),
        SchedKind::WorkSteal(nanotask::runtime_core::sched::WsVariant::FifoLocal),
    ] {
        let rt = Runtime::new(RuntimeConfig::optimized().scheduler(kind).workers(4));
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        rt.run(move |ctx| {
            for _ in 0..3_000 {
                let c = Arc::clone(&c);
                ctx.spawn(Deps::new(), move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 3_000, "{kind:?}");
    }
}

#[test]
fn allocator_churn_no_leaks_all_kinds() {
    for cfg in [
        RuntimeConfig::optimized(),
        RuntimeConfig::without_jemalloc(),
    ] {
        let rt = Runtime::new(cfg.workers(4));
        let x = Box::leak(Box::new(0u64)) as *mut u64;
        let p = SendPtr::new(x);
        for _ in 0..5 {
            rt.run(move |ctx| {
                for _ in 0..1_000 {
                    ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                        *p.get() += 1;
                    });
                }
            });
        }
        assert_eq!(unsafe { *x }, 5_000);
        assert_eq!(rt.live_tasks(), 0);
        let s = rt.stats();
        // Outstanding allocator blocks == task shells parked in the
        // recycling slab; the recycled/fresh split proves the churn ran
        // through the slab. The first run is all fresh (the spawner
        // outpaces completion), the remaining four mostly recycle.
        assert_eq!(s.alloc.live, s.alloc.recycle_misses);
        assert!(
            s.alloc.recycle_rate() >= 0.75,
            "recycle rate {:.2} too low",
            s.alloc.recycle_rate()
        );
        unsafe { drop(Box::from_raw(x)) };
    }
}

#[test]
fn wide_fan_in_and_out() {
    // 1 writer → 500 readers → 1 writer, twice.
    let rt = Runtime::new(RuntimeConfig::optimized().workers(4));
    let x = Box::leak(Box::new(0u64)) as *mut u64;
    let p = SendPtr::new(x);
    let reads = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&reads);
    rt.run(move |ctx| {
        for round in 1..=2u64 {
            ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                *p.get() = round;
            });
            for _ in 0..500 {
                let r = Arc::clone(&r);
                ctx.spawn(Deps::new().read_addr(p.addr()), move |_| {
                    let v = unsafe { *p.get() };
                    r.fetch_add(v, Ordering::Relaxed);
                });
            }
        }
    });
    assert_eq!(reads.load(Ordering::Relaxed), 500 + 1000);
    unsafe { drop(Box::from_raw(x)) };
}
