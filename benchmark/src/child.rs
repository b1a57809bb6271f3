//! One trial: a fresh process that builds one workload's inputs, starts a
//! runtime, pins its threads, warms up, times reps, checks the outputs and
//! prints one JSON line. Everything the parent reports is a median over
//! such processes, so no state — allocator, slab, page cache of the heap,
//! thread placement — leaks from one sample into the next.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::adapters::{self, Counts};
use crate::host;
use crate::json::Json;
use crate::metrics::{MIN_REPS, SPAN_SAMPLE, WARMUP_REPS};
use crate::spans::{self, Name, Spans};
use crate::stats::{median, tail};
use crate::workloads::{self, Traced};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub trial: usize,
    /// Timed window: reps continue until this has passed (and at least
    /// `MIN_REPS` are done).
    pub budget: Duration,
    /// Record spans, and append them to this file when the trial ends.
    pub span_file: Option<String>,
    pub inject_fail: bool,
}

/// Workers the measured runtime gets: one per usable CPU, at most 4.
pub fn workers_for(cpus: usize) -> usize {
    cpus.clamp(1, 4)
}

/// Stack reserved (not touched) per thread of a child. A worker inside
/// `taskwait` runs other tasks on its own stack, and under the FIFO policy
/// those are mostly further parents that wait in turn: `nested_tree` nests
/// some twenty thousand frames deep, far beyond the 2 MiB default.
const STACK_BYTES: usize = 1 << 30;

/// Run the trial with [`STACK_BYTES`] of stack for the calling thread
/// (worker 0) and, through `RUST_MIN_STACK`, for the runtime's workers.
pub fn run_on_deep_stack(args: Args) -> Result<Json, String> {
    // SAFETY: the process is still single-threaded here — this runs first
    // thing in `main` of a child — so nothing reads the environment
    // concurrently. std reads the variable when the first thread spawns.
    unsafe { std::env::set_var("RUST_MIN_STACK", STACK_BYTES.to_string()) };
    std::thread::Builder::new()
        .name("perf_ledger-w0".into())
        .stack_size(STACK_BYTES)
        .spawn(move || run(&args))
        .map_err(|e| format!("cannot start the trial thread: {e}"))?
        .join()
        .map_err(|_| "the trial thread panicked".to_string())?
}

fn run(args: &Args) -> Result<Json, String> {
    let started = Instant::now();
    let cpus =
        host::allowed_cpus().map_err(|e| format!("cannot read the CPU affinity mask: {e}"))?;
    let workers = workers_for(cpus.len());

    let mut bench = workloads::build(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let new_started = Instant::now();
    let rt = adapters::new_runtime(workers);
    let new_ms = new_started.elapsed().as_secs_f64() * 1e3;
    let pinned = host::pin_runtime_threads(workers, &cpus)
        .map_err(|e| format!("cannot pin the runtime's threads: {e}"))?;

    let spans: Option<&'static Spans> = args
        .span_file
        .as_ref()
        .map(|_| &*Box::leak(Box::new(Spans::new(workers))));
    // A traced rep is a `rep` span under the `trial` span.
    let trial_span = spans.map(|s| (s.reserve(0), spans::now_ns()));
    let one_rep = |bench: &mut dyn workloads::Bench| match (spans, trial_span) {
        (Some(s), Some((trial_id, _))) => {
            let id = s.reserve(0);
            let start = spans::now_ns();
            bench.rep(&rt, Some(Traced { spans: s, rep: id }));
            s.record_as(0, id, Name::Rep, trial_id, start, spans::now_ns());
        }
        _ => bench.rep(&rt, None),
    };

    for _ in 0..WARMUP_REPS {
        one_rep(&mut *bench);
    }
    // Spans of the warm-up would skew the distributions: drop them.
    if let Some(s) = spans {
        s.drain();
    }
    let setup_s = started.elapsed().as_secs_f64();

    let before = Counts::of_runtime(&rt);
    let replay_before = bench.replay_counts();
    let cpu_before = host::process_cpu_time();
    let window = Instant::now();
    let mut rep_s = Vec::new();
    while rep_s.len() < MIN_REPS || window.elapsed() < args.budget {
        let t = Instant::now();
        one_rep(&mut *bench);
        rep_s.push(t.elapsed().as_secs_f64());
    }
    let cpu_s = (host::process_cpu_time() - cpu_before).as_secs_f64();
    if args.inject_fail {
        bench.inject_fail(&rt);
    }
    let mut counts = Counts::of_runtime(&rt).since(&before);
    counts.absorb(&bench.replay_counts().since(&replay_before));

    // Exactly once: every output slot holds one execution per rep, and the
    // runtime executed as many bodies as the reps spawned (plus one root
    // task per `run` call) — no more, no fewer.
    let timed = rep_s.len() as u64;
    let tasks_per_rep = bench.tasks_per_rep();
    let expected = timed * (tasks_per_rep + bench.runs_per_rep());
    let miscounted = counts.get("tasks_executed").abs_diff(expected);
    let failed = bench.failed_tasks(timed + WARMUP_REPS as u64) + miscounted;
    let attempted = (timed + WARMUP_REPS as u64) * tasks_per_rep;

    let wall_s: f64 = rep_s.iter().sum();
    let mut out = vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("trial", Json::Num(args.trial as f64)),
        ("traced", Json::Bool(spans.is_some())),
        ("workers", Json::Num(workers as f64)),
        (
            "pinned_cpus",
            Json::nums(&pinned.iter().map(|&c| c as f64).collect::<Vec<_>>()),
        ),
        ("setup_s", Json::Num(setup_s)),
        ("new_ms", Json::Num(new_ms)),
        ("tasks_per_rep", Json::Num(tasks_per_rep as f64)),
        ("rep_s", Json::nums(&rep_s)),
        ("wall_s", Json::Num(wall_s)),
        ("cpu_s", Json::Num(cpu_s)),
        ("peak_rss_mb", Json::Num(host::peak_rss_mb())),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed.min(attempted) as f64)),
        (
            "counts",
            Json::obj(
                counts
                    .entries()
                    .iter()
                    .map(|&(n, v)| (n, Json::Num(v as f64))),
            ),
        ),
    ];

    if let (Some(s), Some((trial_id, trial_start)), Some(path)) =
        (spans, trial_span, &args.span_file)
    {
        s.record_as(0, trial_id, Name::Trial, 0, trial_start, spans::now_ns());
        let (all, dropped) = s.drain();
        let mut layer = in_situ(&counts, timed);
        layer.extend(from_spans(&all, workers));
        layer.push(("spans_dropped", dropped as f64));
        out.push((
            "layer",
            Json::obj(layer.into_iter().map(|(n, v)| (n, Json::Num(v)))),
        ));
        spans::append_jsonl(Path::new(path), args.trial, &all)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(Json::obj(out))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer values read off the public counters of the timed window.
fn in_situ(c: &Counts, reps: u64) -> Vec<(&'static str, f64)> {
    let tasks = c.get("tasks_executed");
    vec![
        (
            "runtime.inline_run_share",
            ratio(c.get("inline_runs"), tasks),
        ),
        (
            "deps.deliveries_per_task",
            ratio(c.get("dep_deliveries"), tasks),
        ),
        (
            "deps.dup_delivery_share",
            ratio(c.get("dep_duplicates"), c.get("dep_deliveries")),
        ),
        (
            "sched.lock_acq_per_task",
            ratio(c.get("sched_lock_acquisitions"), tasks),
        ),
        (
            "sched.pop_cache_hit_share",
            ratio(c.get("sched_pop_cache_hits"), c.get("sched_pops")),
        ),
        (
            "sched.batch_task_share",
            ratio(
                c.get("sched_batch_tasks"),
                c.get("sched_adds") + c.get("sched_batch_tasks"),
            ),
        ),
        (
            "alloc.pool_miss_per_ktask",
            1e3 * ratio(c.get("pool_misses"), tasks),
        ),
        (
            "alloc.slab_recycle_share",
            ratio(
                c.get("slab_recycled"),
                c.get("slab_recycled") + c.get("slab_fresh"),
            ),
        ),
        ("alloc.peak_live_tasks", c.get("peak_live_tasks") as f64),
        (
            "replay.replayed_iter_share",
            ratio(c.get("replay_replayed"), c.get("replay_iterations")),
        ),
        (
            "replay.cache_hit_share",
            ratio(
                c.get("replay_cache_hits"),
                c.get("replay_cache_hits") + c.get("replay_cache_misses"),
            ),
        ),
        ("replay.rerecords", ratio(c.get("replay_rerecords"), reps)),
        (
            "replay.routed_release_share",
            ratio(c.get("replay_routed_releases"), tasks),
        ),
    ]
}

/// Per-layer values read off the trial's spans. A kind of span the
/// workload does not produce reads 0.
fn from_spans(all: &[spans::Span], workers: usize) -> Vec<(&'static str, f64)> {
    let spawn = spans::durations_ns(all, Name::SpawnCall);
    let handoff = spans::durations_ns(all, Name::Handoff);
    let taskwait = spans::durations_ns(all, Name::Taskwait);
    let drain = spans::durations_ns(all, Name::Drain);
    let body = spans::self_times_ns(all, Name::Body);
    let rep_ns: f64 = spans::durations_ns(all, Name::Rep).iter().sum();
    let on_w0 = all
        .iter()
        .filter(|s| s.name == Name::Body && s.worker == 0)
        .count();
    // One spawn call and one body in SPAN_SAMPLE is recorded; scaled back
    // up they are the time the workers spent in benchmark-visible work.
    let attributed = SPAN_SAMPLE as f64 * (spawn.iter().sum::<f64>() + body.iter().sum::<f64>());
    let unattributed = match body.is_empty() || rep_ns == 0.0 {
        true => 0.0,
        false => 1.0 - attributed / (workers as f64 * rep_ns),
    };
    vec![
        ("runtime.spawn_ns_p50", median(&spawn)),
        ("runtime.spawn_ns_p99", tail(&spawn, 99.0).0),
        ("runtime.handoff_ns_p50", median(&handoff)),
        ("runtime.handoff_ns_p99", tail(&handoff, 99.0).0),
        ("runtime.taskwait_ns_p50", median(&taskwait)),
        ("runtime.drain_us", median(&drain) / 1e3),
        (
            "runtime.w0_exec_share",
            ratio(on_w0 as u64, body.len() as u64),
        ),
        ("workloads.body_ns_p50", median(&body)),
        ("harness.unattributed_share", unattributed),
        ("spawn_samples", spawn.len() as f64),
        ("handoff_samples", handoff.len() as f64),
    ]
}
