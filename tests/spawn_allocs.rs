//! Pins how many global-allocator calls a spawn makes. A task body of
//! at most 48 bytes lives in the recycled task shell, and up to 6
//! declared accesses live inline in `Deps` and move into the shell's
//! kept decls buffer; the wait-free system drains its messages through
//! a reused per-thread buffer. So once the shells have been warmed up,
//! 10 000 spawns make only the run's fixed handful of allocations,
//! whether they declare no access, one readwrite (the chains shape) or
//! six with a reduction (the Heat shape). A 56-byte body takes the
//! boxed fallback: one allocation per spawn. Replay feeds the Heat
//! shape without an allocation per task or per iteration: the capture
//! holds the task the spawn built, and the frozen graph's iteration
//! state is re-armed in place.
//!
//! A run that holds more tasks at once than the runs before it takes
//! fresh task shells, and with them fresh decls buffers, slab and
//! free-list memory; one that queues more tasks than before grows the
//! containers that hold them. So the count is the fewest any of 8
//! runs that took no fresh shell made (the shells are warm), and the
//! bound pins the spawn path, not how far the spawner ran ahead. Under
//! heavy load no run may get there; the count is then the fewest any
//! run made less one allocation per fresh shell.
//!
//! This is a test binary of its own because `#[global_allocator]`
//! applies to the whole binary, and it holds a single test so nothing
//! else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use nanotask::{Deps, RedOp, RunIterative, Runtime, RuntimeConfig, TaskCtx};

/// Forwards to the system allocator and counts every allocation,
/// reallocation included, on every thread.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TASKS: u64 = 10_000;

/// Global allocations made by one run of `TASKS` calls of `spawn`
/// (given the loop index) once the shells are warm: the fewest any of
/// 8 runs after two warm-up runs made without taking a fresh task
/// shell, or, if each took one, the fewest any made less one
/// allocation per fresh shell. A run that queues more tasks than any
/// before it may grow a container once without taking a fresh shell
/// (seen as 20–620 allocations in about 1 run of 10 on 2 cores), so
/// the first such run is not enough; an allocation per spawn shows in
/// every run.
fn allocs_per_run(rt: &Runtime, spawn: impl Fn(&TaskCtx, u64) + Copy + Send + 'static) -> u64 {
    let run = || {
        rt.run(move |ctx| {
            for i in 0..TASKS {
                spawn(ctx, i);
            }
        })
    };
    run();
    run();
    let (mut warm, mut fewest) = (u64::MAX, u64::MAX);
    for _ in 0..8 {
        let fresh = rt.stats().alloc.recycle_misses;
        let before = ALLOCS.load(Ordering::Relaxed);
        run();
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let fresh = rt.stats().alloc.recycle_misses - fresh;
        if fresh == 0 {
            warm = warm.min(allocs);
        }
        fewest = fewest.min(allocs.saturating_sub(fresh));
    }
    if warm < u64::MAX { warm } else { fewest }
}

/// Global allocations made by `run_iterative(iters)` of `REPLAYED`
/// Heat-shaped spawns per iteration: the fewest any of 8 calls made,
/// after one warm-up call.
fn allocs_per_replay(rt: &Runtime, iters: usize, sum: usize) -> u64 {
    let run = || {
        rt.run_iterative(iters, move |ctx| {
            for i in 0..REPLAYED {
                ctx.spawn(heat_deps(i, sum), move |c| unsafe {
                    *c.red_slot(&*(sum as *const f64)) += 1.0;
                });
            }
        })
    };
    run();
    (0..8)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            let report = run();
            assert_eq!(report.replayed, iters - 1, "{report}");
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap()
}

/// Root spawns per replayed iteration.
const REPLAYED: u64 = 1_000;

/// The Heat shape: inout own block, in four neighbours, a sum reduction.
fn heat_deps(i: u64, sum: usize) -> Deps {
    let deps = Deps::new()
        .readwrite_addr(block(i))
        .read_addr(block(i + 1))
        .read_addr(block(i + 2))
        .read_addr(block(i + 3))
        .read_addr(block(i + 4))
        .reduce_addr(sum, 8, RedOp::SumF64);
    assert_eq!(deps.len(), 6);
    deps
}

/// An access-free spawn of a body that captures `[u64; WORDS]`.
fn spawn_words<const WORDS: usize>(ctx: &TaskCtx, i: u64) {
    let words = [i; WORDS];
    let body = move |_: &TaskCtx| {
        black_box(words);
    };
    assert_eq!(core::mem::size_of_val(&body), WORDS * 8);
    ctx.spawn(Deps::new(), body);
}

/// Distinct dependency keys, 64 bytes apart; only the reduction target
/// is ever written.
const BLOCKS: u64 = 64;
const BLOCK_BASE: usize = 0x1000_0000;

fn block(i: u64) -> usize {
    BLOCK_BASE + (i % BLOCKS) as usize * 64
}

#[test]
fn inline_bodies_skip_the_heap_and_oversized_bodies_box() {
    let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
    let inline = allocs_per_run(&rt, spawn_words::<6>);
    assert!(
        inline <= 16,
        "{inline} global allocations for {TASKS} spawns of 48-byte bodies"
    );
    // The chains shape: one readwrite on one of 8 chains.
    let chains = allocs_per_run(&rt, |ctx, i| {
        ctx.spawn(Deps::new().readwrite_addr(block(i % 8)), |_| {});
    });
    assert!(
        chains <= 16,
        "{chains} global allocations for {TASKS} spawns with 1 access"
    );
    let sum = Box::leak(Box::new(0.0f64)) as *mut f64 as usize;
    let heat = allocs_per_run(&rt, move |ctx, i| {
        ctx.spawn(heat_deps(i, sum), |_| {});
    });
    assert!(
        heat <= 16,
        "{heat} global allocations for {TASKS} spawns with 6 accesses"
    );
    // The Heat shape replayed: 10 more iterations, 10 000 more fed tasks.
    let (one, eleven) = (
        allocs_per_replay(&rt, 1, sum),
        allocs_per_replay(&rt, 11, sum),
    );
    assert!(
        eleven.saturating_sub(one) <= 16,
        "{eleven} global allocations for 11 replay iterations, {one} for 1"
    );
    let boxed = allocs_per_run(&rt, spawn_words::<7>);
    assert!(
        boxed >= TASKS,
        "{boxed} global allocations for {TASKS} spawns of 56-byte bodies"
    );
    assert_eq!(rt.live_tasks(), 0);
}
