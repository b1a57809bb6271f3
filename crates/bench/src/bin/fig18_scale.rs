//! Figure 18 (new experiment): **million-task graphs** — memory-side
//! scaling of the packed one-word task state, slab-recycled task
//! objects, and the O(n) record→freeze path.
//!
//! §4 of the paper argues that once the scheduler and dependency system
//! stop serializing, the *allocator* is the next bottleneck. At the
//! ROADMAP's 10^6–10^7-node production target three memory costs
//! dominate everything figs 4–15 optimized:
//!
//! * **Task header size** — the life-cycle quartet
//!   (`blockers`/`live_children`/`removal_refs`/`fully_done`) is now one
//!   packed `AtomicU64`, the bottom map is demand-created (leaves never
//!   touch it), and cold fields hide behind one pointer-sized option.
//! * **Allocator churn** — freed task shells park in a `TaskSlab`
//!   free-list *with their interior capacity* and are recycled on the
//!   next spawn instead of round-tripping through dealloc/alloc.
//! * **Freeze cost** — the recorded trace freezes into CSR arenas in
//!   O(n + e): stamp-based edge dedup, counting-sort CSR scatter, and
//!   reusable scratch buffers replace the global sort + per-node
//!   transient allocations.
//!
//! Three synthetic families sweep task counts in doublings from 1024 up
//! to `NANOTASK_FIG18_MAX_TASKS` (default `8192 × scale`, capped at
//! 2^20; the acceptance run uses `1048576`): `chains` (1 dep/task, the
//! distilled successor pattern), `stencil` (heat-like 1D, ~3 deps/task)
//! and `tiles` (cholesky-like 2D wavefront, ~2 deps/task). Every sweep
//! point runs in a **fresh child process** (see [`CHILD_ENV`]): a long
//! in-process sweep fragments the allocator, and late points then pay
//! several-fold inflated freeze times that measure sweep order rather
//! than graph size. CSV:
//! `family,tasks,freeze_ms,ns_per_task,bytes_per_task,recycle_rate,maps`;
//! also writes `BENCH_fig18_scale.json`.
//!
//! **Hard guards** (CI runs this harness at smoke sizes):
//!
//! * near-linear freeze time, in three clauses that separate
//!   compounding algorithmic growth from one-time cache cliffs: no
//!   single size doubling grows > 3.5× (plus a 0.5 ms additive slack
//!   that absorbs timer noise at the sub-millisecond sizes — the
//!   working set leaving a cache level steps per-task cost once, e.g.
//!   chains around 2^15→2^16, and is allowed; a blow-up is not),
//!   compounded growth across the whole sweep stays within a
//!   2.6×-per-doubling budget (cliffs don't compound, O(n^1.4+) does),
//!   and when the sweep reaches 2^20 tasks,
//!   `freeze(2^20) ≤ 1.3 × 8 × freeze(2^17)` — within 1.3× of linear
//!   extrapolation from 10^5-scale, the sharpest clause;
//! * per-task frozen-graph bytes flat across each family's sweep
//!   (± 16 B of the largest size's value) — the CSR arenas carry no
//!   superlinear structure;
//! * slab recycle hits > 0 on every row and post-warmup recycle rate
//!   ≥ 90%. The unavoidable fresh allocations are the peak concurrent
//!   working set (`peak_live_tasks`): a shell can only be recycled once
//!   some task has finished, so the warmup is every allocation that
//!   merely grew the working set, and the rate charges only the misses
//!   beyond it;
//! * leaf tasks allocate **zero** bottom maps: at most 2 maps per run
//!   (the root's, demand-created at record registration) no matter how
//!   many tasks the sweep point spawns.
//!
//! Extra knobs: `NANOTASK_WORKERS` (default: host parallelism, ≤ 4),
//! `NANOTASK_FIG18_MAX_TASKS`, `NANOTASK_ITERS` (timesteps per point,
//! default 3, min 3), `NANOTASK_REPS` (best-of, default 3).

use nanotask_bench::Opts;
use nanotask_bench::json::{self, Json};
use nanotask_core::task::bottom_maps_created;
use nanotask_core::{Deps, Runtime, RuntimeConfig, SendPtr, TaskCtx};
use nanotask_replay::{ReplayReport, RunIterative};

/// Additive slack of the per-doubling growth guard: sub-millisecond
/// freezes jitter by fractions of this on a shared host, while at the
/// sizes the guard is really about it disappears into the ratio term.
const FREEZE_SLACK_NS: f64 = 500_000.0;

/// Synthetic graph family: a name plus an iteration body spawning
/// exactly `tasks` dependency-registered tasks against `cells`.
#[derive(Clone, Copy, PartialEq)]
enum Family {
    /// 8 independent readwrite chains — 1 dependency per task.
    Chains,
    /// 1D three-point stencil, 4 sweeps — ~3 accesses per task.
    Stencil,
    /// 2D wavefront over a square tile grid — ~3 accesses per task.
    Tiles,
}

impl Family {
    const ALL: [Family; 3] = [Family::Chains, Family::Stencil, Family::Tiles];

    fn name(self) -> &'static str {
        match self {
            Family::Chains => "chains",
            Family::Stencil => "stencil",
            Family::Tiles => "tiles",
        }
    }

    /// Number of f64 cells the family needs for `tasks` tasks.
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

    /// Spawn one iteration's task graph; must create exactly `tasks`
    /// tasks regardless of the family's shape.
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
                let mut spawned = 0usize;
                'grid: for i in 1..w {
                    for j in 1..w {
                        if spawned == tasks {
                            break 'grid;
                        }
                        spawned += 1;
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
                assert_eq!(spawned, tasks, "grid too small for {tasks} tasks");
            }
        }
    }
}

/// Directive env var marking a child-process measurement run
/// (`family,tasks,iters,workers`). Every sweep point executes in a
/// fresh process: a long sweep leaves the parent's allocator with a
/// large fragmented heap, and captured-spawn storage allocated from it
/// scatters enough to inflate late freeze timings several-fold — an
/// artifact of sweep order, not of graph size.
const CHILD_ENV: &str = "NANOTASK_FIG18_CHILD";

/// Parsed result line of one child measurement.
struct ChildResult {
    freeze_ns: u64,
    graph_bytes: u64,
    peak_task_bytes: u64,
    tasks_recycled: u64,
    rate: f64,
    maps: u64,
}

/// Child mode: run exactly one (family, tasks) point on this fresh
/// process and print the counters as one `key=value` line.
fn child_main(cfg: &RuntimeConfig, spec: &str) -> ! {
    let parts: Vec<&str> = spec.split(',').collect();
    assert_eq!(parts.len(), 4, "bad {CHILD_ENV} spec: {spec}");
    let family = Family::ALL
        .iter()
        .copied()
        .find(|f| f.name() == parts[0])
        .unwrap_or_else(|| panic!("unknown family {}", parts[0]));
    let tasks: usize = parts[1].parse().expect("tasks");
    let iters: usize = parts[2].parse().expect("iters");
    let workers: usize = parts[3].parse().expect("workers");
    let (report, rate, maps) = run_point(cfg, workers, family, tasks, iters);
    println!(
        "freeze_ns={} graph_bytes={} peak_task_bytes={} tasks_recycled={} rate={} maps={}",
        report.freeze_ns,
        report.graph_bytes,
        report.peak_task_bytes,
        report.tasks_recycled,
        rate,
        maps
    );
    std::process::exit(0);
}

/// Run one sweep point in a fresh child process and parse its counters.
fn run_point_isolated(family: Family, tasks: usize, iters: usize, workers: usize) -> ChildResult {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .env(
            CHILD_ENV,
            format!("{},{tasks},{iters},{workers}", family.name()),
        )
        .output()
        .expect("spawn fig18 child");
    assert!(
        out.status.success(),
        "fig18 child {}/{tasks} failed:\n{}",
        family.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("freeze_ns="))
        .unwrap_or_else(|| panic!("no result line from child {}/{tasks}", family.name()));
    let field = |key: &str| -> &str {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key).and_then(|t| t.strip_prefix('=')))
            .unwrap_or_else(|| panic!("missing {key} in child line: {line}"))
    };
    ChildResult {
        freeze_ns: field("freeze_ns").parse().expect("freeze_ns"),
        graph_bytes: field("graph_bytes").parse().expect("graph_bytes"),
        peak_task_bytes: field("peak_task_bytes").parse().expect("peak_task_bytes"),
        tasks_recycled: field("tasks_recycled").parse().expect("tasks_recycled"),
        rate: field("rate").parse().expect("rate"),
        maps: field("maps").parse().expect("maps"),
    }
}

/// One measured sweep point: reports + allocator view from the rep that
/// produced the retained (minimum) freeze time.
struct SweepPoint {
    family: &'static str,
    tasks: usize,
    freeze_ns: u64,
    graph_bytes: u64,
    peak_task_bytes: u64,
    tasks_recycled: u64,
    recycle_rate: f64,
    bottom_maps: u64,
    reps: usize,
}

impl SweepPoint {
    fn bytes_per_task(&self) -> f64 {
        self.graph_bytes as f64 / self.tasks as f64
    }

    fn json(&self) -> Json {
        Json::obj([
            ("family", Json::from(self.family)),
            ("tasks", Json::from(self.tasks)),
            ("freeze_ns", Json::from(self.freeze_ns)),
            ("graph_bytes", Json::from(self.graph_bytes)),
            ("bytes_per_task", Json::from(self.bytes_per_task())),
            ("peak_task_bytes", Json::from(self.peak_task_bytes)),
            ("tasks_recycled", Json::from(self.tasks_recycled)),
            ("recycle_rate", Json::from(self.recycle_rate)),
            ("bottom_maps_created", Json::from(self.bottom_maps)),
            ("reps", Json::from(self.reps)),
        ])
    }
}

/// Run one (family, size) point on a fresh runtime; returns the replay
/// report plus the post-warmup recycle rate and the bottom-map delta.
fn run_point(
    cfg: &RuntimeConfig,
    workers: usize,
    family: Family,
    tasks: usize,
    iters: usize,
) -> (ReplayReport, f64, u64) {
    let rt = Runtime::new(cfg.clone().workers(workers));
    let mut cells = vec![0.0f64; family.cells(tasks)];
    let base = SendPtr::new(cells.as_mut_ptr());
    let maps0 = bottom_maps_created();
    let report = rt.run_iterative(iters, move |ctx| family.spawn(ctx, base, tasks));
    let maps = bottom_maps_created() - maps0;
    report.assert_classification();
    assert_eq!(report.tasks, tasks, "{}: task count", family.name());
    assert_eq!(report.replayed, iters - 1, "{}: must replay", family.name());
    for (i, &v) in cells.iter().enumerate() {
        assert!(v.is_finite(), "{} cell {i} diverged: {v}", family.name());
    }
    // Post-warmup recycle rate: fresh allocations up to the peak
    // concurrent working set are unavoidable (a shell can only be
    // recycled after some task finished — e.g. a single-writer-per-cell
    // family keeps the whole record iteration pinned in its ASMs while
    // the first replay materializes); only misses beyond the peak are
    // recycling failures.
    let a = rt.stats().alloc;
    let late_misses = a.recycle_misses.saturating_sub(a.peak_live_tasks);
    let rate = a.recycle_hits as f64 / (a.recycle_hits + late_misses).max(1) as f64;
    assert!(a.recycle_hits > 0, "{}: no slab recycling", family.name());
    (report, rate, maps)
}

fn main() {
    if let Ok(spec) = std::env::var(CHILD_ENV) {
        // The hot configuration: every memory-side layer engaged.
        let cfg = RuntimeConfig::optimized()
            .with_replay_partitioning(true)
            .fast_path(true);
        child_main(&cfg, &spec);
    }
    let opts = Opts::from_env();
    // Default to the host's real parallelism (capped at 4): freeze runs
    // on the recording thread, and oversubscribed spinning workers
    // corrupt long freeze timings on small hosts.
    let workers = opts
        .workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(4)
        })
        .clamp(1, 128);
    let iters = std::env::var("NANOTASK_ITERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(3)
        .max(3);
    let max_tasks = std::env::var("NANOTASK_FIG18_MAX_TASKS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| 8192 * opts.scale.max(1))
        .clamp(1024, 1 << 20);
    println!(
        "# fig18_scale: workers={workers} iters={iters} max_tasks={max_tasks} scale={} reps={}",
        opts.scale, opts.reps
    );
    println!("# family,tasks,freeze_ms,ns_per_task,bytes_per_task,recycle_rate,maps");

    let mut sizes = Vec::new();
    let mut n = 1024usize;
    while n <= max_tasks {
        sizes.push(n);
        n *= 2;
    }

    let mut points: Vec<SweepPoint> = Vec::new();
    for family in Family::ALL {
        for &tasks in &sizes {
            // Freeze times jitter up to ~1.7x run-to-run on shared
            // hosts; take the best of ≥ 3 fresh processes at small
            // sizes and up to 3 at the expensive ones.
            let reps = if tasks <= 65_536 {
                opts.reps.max(3)
            } else {
                opts.reps.clamp(1, 3)
            };
            let mut best: Option<ChildResult> = None;
            for _ in 0..reps {
                let r = run_point_isolated(family, tasks, iters, workers);
                assert!(
                    r.maps <= 2,
                    "{}/{tasks}: leaf tasks must not allocate bottom maps ({} created)",
                    family.name(),
                    r.maps
                );
                if best.as_ref().is_none_or(|b| r.freeze_ns < b.freeze_ns) {
                    best = Some(r);
                }
            }
            let r = best.expect("reps >= 1");
            let point = SweepPoint {
                family: family.name(),
                tasks,
                freeze_ns: r.freeze_ns,
                graph_bytes: r.graph_bytes,
                peak_task_bytes: r.peak_task_bytes,
                tasks_recycled: r.tasks_recycled,
                recycle_rate: r.rate,
                bottom_maps: r.maps,
                reps,
            };
            println!(
                "{},{},{:.3},{:.1},{:.1},{:.3},{}",
                point.family,
                point.tasks,
                point.freeze_ns as f64 / 1e6,
                point.freeze_ns as f64 / point.tasks as f64,
                point.bytes_per_task(),
                point.recycle_rate,
                point.bottom_maps
            );
            points.push(point);
        }
    }

    // Guard 1: near-linear freeze. Superlinear algorithmic growth
    // (O(n log n), O(n^2)) compounds across every doubling; the memory
    // hierarchy instead contributes one-time per-task steps where the
    // working set leaves a cache level, plus up-to-~1.7x run-to-run
    // jitter. Three clauses separate the two:
    //  (a) no single doubling exceeds 3.5x (+ the absolute noise slack
    //      for the sub-ms sizes) — a cliff is allowed once, a blow-up
    //      is not;
    //  (b) compounded growth across the whole sweep stays within a
    //      2.6x-per-doubling budget — cliffs don't compound, O(n^1.4+)
    //      does;
    //  (c) when the sweep reaches 2^20 tasks,
    //      `freeze(2^20) ≤ 1.3 × 8 × freeze(2^17)` — within 1.3x of
    //      linear extrapolation from 10^5-scale, the sharpest clause
    //      (per-task cost may grow ≤ 30% over that 8x).
    let mut growth_checked = 0usize;
    for fam in Family::ALL.map(Family::name) {
        let fam_points: Vec<&SweepPoint> = points.iter().filter(|p| p.family == fam).collect();
        for pair in fam_points.windows(2) {
            let (small, big) = (pair[0], pair[1]);
            growth_checked += 1;
            let limit = 3.5 * small.freeze_ns as f64 + FREEZE_SLACK_NS;
            assert!(
                (big.freeze_ns as f64) <= limit,
                "{fam}: freeze grew {:.2}x from {} to {} tasks (single-doubling cap 3.5x)",
                big.freeze_ns as f64 / small.freeze_ns as f64,
                small.tasks,
                big.tasks
            );
        }
        if let (Some(first), Some(last)) = (fam_points.first(), fam_points.last()) {
            let doublings = (last.tasks / first.tasks).ilog2();
            let budget = 2.6f64.powi(doublings as i32) * first.freeze_ns as f64;
            assert!(
                (last.freeze_ns as f64) <= budget,
                "{fam}: freeze grew {:.0}x over {doublings} doublings (budget 2.6x/doubling = {:.0}x)",
                last.freeze_ns as f64 / first.freeze_ns as f64,
                2.6f64.powi(doublings as i32)
            );
        }
        let at = |n: usize| fam_points.iter().find(|p| p.tasks == n);
        if let (Some(lo), Some(hi)) = (at(1 << 17), at(1 << 20)) {
            let limit = 1.3 * 8.0 * lo.freeze_ns as f64;
            assert!(
                (hi.freeze_ns as f64) <= limit,
                "{fam}: freeze(2^20)={} ns exceeds 1.3x linear extrapolation {} ns",
                hi.freeze_ns,
                limit
            );
        }
    }

    // Guard 2: per-task frozen-graph bytes flat across each sweep.
    for fam in Family::ALL.map(Family::name) {
        let fam_points: Vec<&SweepPoint> = points.iter().filter(|p| p.family == fam).collect();
        let anchor = fam_points.last().expect("non-empty sweep").bytes_per_task();
        for p in &fam_points {
            let delta = (p.bytes_per_task() - anchor).abs();
            assert!(
                delta <= 16.0,
                "{fam}/{}: per-task bytes {:.1} drifts {delta:.1} B from {anchor:.1}",
                p.tasks,
                p.bytes_per_task()
            );
        }
    }

    // Guard 3: ≥ 90% post-warmup slab recycling everywhere.
    for p in &points {
        assert!(
            p.recycle_rate >= 0.9,
            "{}/{}: post-warmup recycle rate {:.3} < 0.9",
            p.family,
            p.tasks,
            p.recycle_rate
        );
    }

    println!(
        "# near-linear freeze: <= 3.5x/single doubling, <= 2.6x/doubling compounded \
         ({growth_checked} pairs): MET"
    );
    println!("# per-task graph bytes flat within +/-16 B of each family's largest size: MET");
    println!("# post-warmup recycle rate >= 0.9 on all rows: MET");

    let doc = Json::obj([
        ("figure", Json::from("fig18_scale")),
        ("workers", Json::from(workers)),
        ("iters", Json::from(iters)),
        ("max_tasks", Json::from(max_tasks)),
        ("scale", Json::from(opts.scale)),
        ("reps", Json::from(opts.reps)),
        ("growth_pairs_checked", Json::from(growth_checked)),
        // Every guard above is a hard assert: reaching this line means
        // all of them held.
        ("target_met", Json::from(true)),
        (
            "rows",
            Json::Arr(points.iter().map(SweepPoint::json).collect()),
        ),
    ]);
    match json::write_bench_json("fig18_scale", &doc) {
        Ok(Some(path)) => eprintln!("# wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("# BENCH json write failed: {e}"),
    }
}
