//! Pins how many global-allocator calls an access-free spawn makes. A
//! task body of at most 48 bytes lives in the recycled task shell, so
//! once the shells have been warmed up, 10 000 such spawns make only
//! the run's fixed handful of allocations. A 56-byte body takes the
//! boxed fallback: one allocation per spawn.
//!
//! A run that holds more tasks at once than the warm-up runs did
//! takes fresh task shells, and with them fresh slab and free-list
//! memory. The count excludes one allocation per fresh shell, so the
//! bound pins the bodies, not how far the spawner ran ahead.
//!
//! This is a test binary of its own because `#[global_allocator]`
//! applies to the whole binary, and it holds a single test so nothing
//! else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use nanotask::{Deps, Runtime, RuntimeConfig};

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

/// Global allocations made by one run of `TASKS` access-free tasks whose
/// bodies capture `[u64; WORDS]`, after two warm-up runs, less the task
/// shells that run had to allocate fresh.
fn allocs_per_run<const WORDS: usize>(rt: &Runtime) -> u64 {
    let run = || {
        rt.run(|ctx| {
            for i in 0..TASKS {
                let words = [i; WORDS];
                let body = move |_: &nanotask::TaskCtx| {
                    black_box(words);
                };
                assert_eq!(core::mem::size_of_val(&body), WORDS * 8);
                ctx.spawn(Deps::new(), body);
            }
        })
    };
    run();
    run();
    let fresh = rt.stats().alloc.recycle_misses;
    let before = ALLOCS.load(Ordering::Relaxed);
    run();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    allocs.saturating_sub(rt.stats().alloc.recycle_misses - fresh)
}

#[test]
fn inline_bodies_skip_the_heap_and_oversized_bodies_box() {
    let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
    let inline = allocs_per_run::<6>(&rt);
    assert!(
        inline <= 16,
        "{inline} global allocations for {TASKS} spawns of 48-byte bodies"
    );
    let boxed = allocs_per_run::<7>(&rt);
    assert!(
        boxed >= TASKS,
        "{boxed} global allocations for {TASKS} spawns of 56-byte bodies"
    );
    assert_eq!(rt.live_tasks(), 0);
}
