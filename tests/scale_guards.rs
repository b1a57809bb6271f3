//! Memory-side guards of the million-task work (packed task state,
//! `TaskSlab` recycling, O(n + e) freeze), at sizes a test can afford:
//! three synthetic graph families swept in doublings, asserting only
//! deterministic counters — frozen-graph bytes per task stay flat, task
//! shells recycle, and leaf tasks never allocate a bottom map. Freeze
//! *time* is tracked by the `benchmark/` ledger
//! (`replay.freeze_ns_per_task`), not asserted here.

use std::sync::Mutex;

use nanotask::runtime_core::task::bottom_maps_created;
use nanotask::{Deps, RunIterative, Runtime, RuntimeConfig, SendPtr, TaskCtx};

const ITERS: usize = 3;
const SIZES: [usize; 5] = [1024, 2048, 4096, 8192, 16384];

/// Synthetic graph family: an iteration body spawning exactly `tasks`
/// dependency-registered tasks against `cells(tasks)` f64 cells.
#[derive(Clone, Copy, Debug)]
enum Family {
    /// 8 independent readwrite chains — 1 dependency per task.
    Chains,
    /// 1D three-point stencil, 4 sweeps — ~3 accesses per task.
    Stencil,
    /// 2D wavefront over a square tile grid — ~3 accesses per task.
    Tiles,
}

impl Family {
    fn cells(self, tasks: usize) -> usize {
        match self {
            Family::Chains => 8,
            Family::Stencil => tasks.div_ceil(4).max(2),
            Family::Tiles => {
                let w = (tasks as f64).sqrt().ceil() as usize + 1;
                w * w
            }
        }
    }

    fn spawn(self, ctx: &TaskCtx<'_>, base: SendPtr<f64>, tasks: usize) {
        match self {
            Family::Chains => {
                let chains = self.cells(tasks);
                for t in 0..tasks {
                    let cell = unsafe { base.add(t % chains) };
                    ctx.spawn_labeled("link", Deps::new().readwrite_addr(cell.addr()), move |_| {
                        unsafe { *cell.get() += 1.0 };
                    });
                }
            }
            Family::Stencil => {
                let width = self.cells(tasks);
                for t in 0..tasks {
                    let i = t % width;
                    let cell = unsafe { base.add(i) };
                    let mut deps = Deps::new().readwrite_addr(cell.addr());
                    if i > 0 {
                        deps = deps.read_addr(unsafe { base.add(i - 1) }.addr());
                    }
                    if i + 1 < width {
                        deps = deps.read_addr(unsafe { base.add(i + 1) }.addr());
                    }
                    ctx.spawn_labeled("relax", deps, move |_| {
                        unsafe { *cell.get() = *cell.get() * 0.5 + 1.0 };
                    });
                }
            }
            Family::Tiles => {
                let w = (tasks as f64).sqrt().ceil() as usize + 1;
                let grid = (1..w).flat_map(|i| (1..w).map(move |j| (i, j)));
                for (i, j) in grid.take(tasks) {
                    let cell = unsafe { base.add(i * w + j) };
                    let up = unsafe { base.add((i - 1) * w + j) };
                    let left = unsafe { base.add(i * w + j - 1) };
                    let deps = Deps::new()
                        .readwrite_addr(cell.addr())
                        .read_addr(up.addr())
                        .read_addr(left.addr());
                    ctx.spawn_labeled("tile", deps, move |_| unsafe {
                        *cell.get() = (*up.get() + *left.get()) * 0.25 + 1.0;
                    });
                }
            }
        }
    }
}

/// One (family, size) point on a fresh runtime with every memory-side
/// layer engaged; returns frozen-graph bytes per task.
fn run_point(family: Family, tasks: usize) -> f64 {
    let at = format!("{family:?}/{tasks}");
    let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
    let mut cells = vec![0.0f64; family.cells(tasks)];
    let base = SendPtr::new(cells.as_mut_ptr());
    let maps0 = bottom_maps_created();
    let report = rt.run_iterative(ITERS, move |ctx| family.spawn(ctx, base, tasks));
    let maps = bottom_maps_created() - maps0;

    report.assert_classification();
    assert_eq!(report.tasks, tasks, "{at}: task count");
    assert_eq!(report.replayed, ITERS - 1, "{at}: must replay: {report}");
    assert!(cells.iter().all(|v| v.is_finite()), "{at}: cell diverged");
    // Only the root's map (demand-created at record registration) may
    // appear, no matter how many leaves the point spawns.
    assert!(maps <= 2, "{at}: leaf tasks allocated bottom maps ({maps})");

    // Fresh allocations up to the peak concurrent working set are
    // unavoidable (a shell can only be recycled after some task
    // finished); only misses beyond that warm-up are recycling failures.
    let a = rt.stats().alloc;
    assert!(a.recycle_hits > 0, "{at}: no slab recycling");
    let late_misses = a.recycle_misses.saturating_sub(a.peak_live_tasks);
    let rate = a.recycle_hits as f64 / (a.recycle_hits + late_misses) as f64;
    assert!(
        rate >= 0.9,
        "{at}: post-warm-up recycle rate {rate:.3} < 0.9"
    );

    report.graph_bytes as f64 / tasks as f64
}

/// `bottom_maps_created()` is a process-wide counter: the per-family
/// tests below take this lock so their deltas do not see each other.
static SERIAL: Mutex<()> = Mutex::new(());

fn memory_guards_hold_across_doublings(family: Family) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let per_task: Vec<f64> = SIZES.iter().map(|&n| run_point(family, n)).collect();
    // The CSR arenas carry no superlinear structure.
    let anchor = *per_task.last().unwrap();
    for (&n, &b) in SIZES.iter().zip(&per_task) {
        assert!(
            (b - anchor).abs() <= 16.0,
            "{family:?}/{n}: {b:.1} B/task drifts from {anchor:.1} at the largest size"
        );
    }
}

#[test]
fn chains_memory_guards_hold_across_doublings() {
    memory_guards_hold_across_doublings(Family::Chains);
}

#[test]
fn stencil_memory_guards_hold_across_doublings() {
    memory_guards_hold_across_doublings(Family::Stencil);
}

#[test]
fn tiles_memory_guards_hold_across_doublings() {
    memory_guards_hold_across_doublings(Family::Tiles);
}
