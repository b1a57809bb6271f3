//! Figure 19 (new experiment): **fault-tolerant execution** under
//! deterministic fault injection.
//!
//! Four row families, every one a hard acceptance guard:
//!
//! * **fault-matrix** — an injected mid-chain panic
//!   ([`FaultPlan::panic_at`]) on every scheduler × dependency-system
//!   combination: the run must terminate with exactly one recorded
//!   failure, the exact transitive-successor cancellation count, zero
//!   leaked tasks (create/free counters balance), and a subsequent
//!   fault-free `run_iterative` on the *same* runtime must replay from
//!   a fresh recording.
//! * **replay-recovery** — a planted body panic mid-`run_iterative`:
//!   the faulted iteration cancels the frozen graph's successors, the
//!   cached graph is invalidated, and the engine re-records and returns
//!   to steady-state replay on the next shape occurrence.
//! * **watchdog** — a planted never-completing task: the stall watchdog
//!   converts the hang into a [`FailureKind::WatchdogStall`] diagnostic
//!   within a bounded wall-clock window.
//! * **overhead** — an armed-but-never-firing plan + watchdog versus a
//!   plain runtime on a fault-free task soup: per-run best-of ratio
//!   must stay ≤ 1.03 (the paper-style "robustness is free" claim).
//!
//! CSV: `row,variant,detail,value,target,met`; also writes
//! `BENCH_fig19_chaos.json`.
//!
//! Extra knobs: `NANOTASK_WORKERS` (default 4), `NANOTASK_REPS`
//! (overhead best-of, default 5), `NANOTASK_SCALE` (overhead task
//! count multiplier).

use std::time::Instant;

use nanotask_bench::Opts;
use nanotask_bench::json::{self, Json};
use nanotask_core::sched::{LockKind, WsVariant};
use nanotask_core::{
    Deps, DepsKind, FAULT_PANIC_PREFIX, FailureKind, FaultPlan, Runtime, RuntimeConfig, SchedKind,
    SendPtr,
};
use nanotask_replay::RunIterative;

/// Chain length for the fault-matrix rows.
const CHAIN: u64 = 64;
/// 0-based index of the eligible body the injector kills. Chosen so the
/// follow-up `run_iterative` (3 × 12 = 36 eligible bodies) stays below
/// it and the still-armed plan never re-fires.
const KILL_AT: u64 = 40;
/// Follow-up iterative shape: iterations × chain tasks per iteration.
const ITER_ROUNDS: usize = 3;
const ITER_CHAIN: u64 = 12;

struct Row {
    row: &'static str,
    variant: String,
    detail: String,
    value: f64,
    target: f64,
    met: bool,
    extra: Vec<(&'static str, Json)>,
}

impl Row {
    fn json(&self) -> Json {
        let mut fields = vec![
            ("row", Json::from(self.row)),
            ("variant", Json::from(self.variant.clone())),
            ("detail", Json::from(self.detail.clone())),
            ("value", Json::from(self.value)),
            ("target", Json::from(self.target)),
            ("met", Json::from(self.met)),
        ];
        fields.extend(self.extra.iter().map(|(k, v)| (*k, v.clone())));
        Json::obj(fields)
    }

    fn print(&self) {
        println!(
            "{},{},{},{:.6},{:.6},{}",
            self.row, self.variant, self.detail, self.value, self.target, self.met
        );
    }
}

/// The §6 fault-matrix axes: one representative per scheduler family,
/// crossed with both dependency systems.
fn matrix() -> Vec<(String, SchedKind, DepsKind)> {
    let scheds = [
        ("delegation", SchedKind::Delegation),
        ("central-ptlock", SchedKind::Central(LockKind::PtLock)),
        ("worksteal-lifo", SchedKind::WorkSteal(WsVariant::LifoLocal)),
    ];
    let deps = [
        ("waitfree", DepsKind::WaitFree),
        ("locking", DepsKind::Locking),
    ];
    let mut v = Vec::new();
    for (sn, s) in scheds {
        for (dn, d) in deps {
            v.push((format!("{sn}+{dn}"), s, d));
        }
    }
    v
}

/// Fault-matrix row: serialized `CHAIN`-long writer chain with the
/// injector armed at `KILL_AT`, then a fault-free iterative follow-up on
/// the same (still-armed) runtime. Every assertion here is an ISSUE-10
/// acceptance criterion — the harness panics on violation.
fn fault_matrix_row(variant: &str, sched: SchedKind, deps: DepsKind, workers: usize) -> Row {
    let rt = Runtime::new(
        RuntimeConfig::optimized()
            .scheduler(sched)
            .dependency_system(deps)
            .workers(workers)
            .with_fault_plan(FaultPlan::panic_at(KILL_AT)),
    );

    let cell = Box::into_raw(Box::new(0u64));
    let p = SendPtr::new(cell);
    let outcome = rt.run_outcome(move |ctx| {
        let addr = p.addr();
        for _ in 0..CHAIN {
            let q = SendPtr::new(p.get());
            ctx.spawn(Deps::new().readwrite_addr(addr), move |_| {
                // SAFETY: serialized by the readwrite chain.
                unsafe { *q.get() += 1 };
            });
        }
    });
    let executed = unsafe { *cell };

    assert_eq!(
        outcome.failures.len(),
        1,
        "{variant}: exactly one failure, got: {}",
        outcome.summary()
    );
    assert_eq!(outcome.failures[0].kind, FailureKind::Panic, "{variant}");
    let expect_cancelled = CHAIN - KILL_AT - 1;
    assert_eq!(
        outcome.tasks_cancelled, expect_cancelled,
        "{variant}: cancelled set = transitive successors of the victim"
    );
    assert!(outcome.completed, "{variant}: graph drained");
    assert_eq!(
        executed, KILL_AT,
        "{variant}: predecessors ran, victim + successors did not"
    );
    assert_eq!(rt.live_tasks(), 0, "{variant}: no leaked tasks");
    let s = rt.stats();
    assert_eq!(
        s.tasks_created, s.tasks_freed,
        "{variant}: create/free counters balance"
    );

    // Fault-free `run_iterative` on the same runtime: a fresh recording,
    // steady-state replay, no residual poison from the failed run.
    let (report, iter_outcome) = rt.run_iterative_outcome(ITER_ROUNDS, move |ctx| {
        let addr = p.addr();
        for _ in 0..ITER_CHAIN {
            let q = SendPtr::new(p.get());
            ctx.spawn(Deps::new().readwrite_addr(addr), move |_| {
                // SAFETY: serialized by the readwrite chain.
                unsafe { *q.get() += 1 };
            });
        }
    });
    assert!(
        iter_outcome.is_ok(),
        "{variant}: follow-up iterative run is fault-free: {}",
        iter_outcome.summary()
    );
    assert_eq!(report.faulted, 0, "{variant}: {report}");
    assert_eq!(report.rerecords, 1, "{variant}: fresh recording: {report}");
    assert_eq!(
        report.replayed,
        ITER_ROUNDS - 1,
        "{variant}: steady-state replay: {report}"
    );
    let after = unsafe { *cell };
    assert_eq!(
        after,
        KILL_AT + ITER_ROUNDS as u64 * ITER_CHAIN,
        "{variant}: every follow-up body ran"
    );
    assert_eq!(rt.live_tasks(), 0, "{variant}");
    unsafe { drop(Box::from_raw(cell)) };

    Row {
        row: "fault-matrix",
        variant: variant.to_string(),
        detail: format!("panic_at={KILL_AT} chain={CHAIN}"),
        value: outcome.tasks_cancelled as f64,
        target: expect_cancelled as f64,
        met: true,
        extra: vec![
            ("failures", Json::from(outcome.failures.len())),
            ("executed_before_fault", Json::from(executed)),
            ("iter_rerecords", Json::from(report.rerecords)),
            ("iter_replayed", Json::from(report.replayed)),
        ],
    }
}

/// Replay-recovery row: a planted panic in iteration 2 of 6 must fault
/// exactly that iteration, cancel the frozen graph's successor set, and
/// re-record back to steady state.
fn replay_recovery_row(workers: usize) -> Row {
    let rt = Runtime::new(
        RuntimeConfig::optimized()
            .workers(workers)
            // Never fires; installs the quiet-panic hook for the plant.
            .with_fault_plan(FaultPlan::never()),
    );
    const ITERS: usize = 6;
    const TASKS: u64 = 10;
    const FAULT_ITER: usize = 2;
    const FAULT_TASK: u64 = 4;

    let cell = Box::into_raw(Box::new(0u64));
    let p = SendPtr::new(cell);
    let it = std::sync::atomic::AtomicUsize::new(0);
    let (report, outcome) = rt.run_iterative_outcome(ITERS, move |ctx| {
        let round = it.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let addr = p.addr();
        for k in 0..TASKS {
            let q = SendPtr::new(p.get());
            ctx.spawn(Deps::new().readwrite_addr(addr), move |_| {
                if round == FAULT_ITER && k == FAULT_TASK {
                    std::panic::panic_any(format!("{FAULT_PANIC_PREFIX}: planted"));
                }
                // SAFETY: serialized by the readwrite chain.
                unsafe { *q.get() += 1 };
            });
        }
    });

    assert_eq!(report.faulted, 1, "one faulted iteration: {report}");
    assert_eq!(outcome.failures.len(), 1, "{}", outcome.summary());
    let expect_cancelled = TASKS - FAULT_TASK - 1;
    assert_eq!(outcome.tasks_cancelled, expect_cancelled, "{report}");
    assert!(outcome.completed);
    // 5 clean iterations ran all TASKS bodies; the faulted one ran only
    // the victim's predecessors.
    let expect = (ITERS as u64 - 1) * TASKS + FAULT_TASK;
    assert_eq!(unsafe { *cell }, expect, "{report}");
    // Initial record + post-fault re-record; everything else replayed
    // (the faulted iteration itself ran from the frozen graph, so it
    // counts as replayed too).
    assert_eq!(report.rerecords, 2, "{report}");
    assert_eq!(report.replayed, ITERS - 2, "{report}");
    assert_eq!(rt.live_tasks(), 0);
    unsafe { drop(Box::from_raw(cell)) };

    Row {
        row: "replay-recovery",
        variant: "optimized".to_string(),
        detail: format!("iters={ITERS} fault_iter={FAULT_ITER}"),
        value: report.faulted as f64,
        target: 1.0,
        met: true,
        extra: vec![
            ("cancelled", Json::from(outcome.tasks_cancelled)),
            ("rerecords", Json::from(report.rerecords)),
            ("replayed", Json::from(report.replayed)),
        ],
    }
}

/// Watchdog row: a never-released held task must trip the stall
/// watchdog instead of hanging the run forever.
fn watchdog_row() -> Row {
    let timeout = std::time::Duration::from_millis(80);
    let rt = Runtime::new(RuntimeConfig::optimized().workers(2).with_watchdog(timeout));
    let t0 = Instant::now();
    let outcome = rt.run_outcome(|ctx| {
        let _stuck = ctx.spawn_held("stuck", 0, vec![], Box::new(|_| {}), None);
    });
    let elapsed = t0.elapsed().as_secs_f64();

    assert_eq!(outcome.failures.len(), 1, "{}", outcome.summary());
    assert_eq!(outcome.failures[0].kind, FailureKind::WatchdogStall);
    assert!(!outcome.completed);
    // Trip must be bounded: well under 100 windows even on a loaded CI
    // box (the monitor polls at timeout/4 granularity).
    let bound = timeout.as_secs_f64() * 100.0;
    assert!(elapsed < bound, "watchdog tripped in {elapsed:.3}s");

    Row {
        row: "watchdog",
        variant: "optimized".to_string(),
        detail: format!("timeout={}ms", timeout.as_millis()),
        value: elapsed,
        target: bound,
        met: true,
        extra: vec![(
            "diagnostic_len",
            Json::from(outcome.failures[0].message.len()),
        )],
    }
}

/// Overhead row: armed-but-silent plan + watchdog vs plain runtime on a
/// fault-free soup of small compute tasks. Best-of-`reps` wall ratio.
fn overhead_row(workers: usize, reps: usize, scale: usize) -> Row {
    let tasks = 4000 * scale;
    let soup = move |rt: &Runtime| {
        let outcome = rt.run_outcome(move |ctx| {
            for i in 0..tasks {
                ctx.spawn(Deps::new(), move |_| {
                    // ~200 adds: enough work that one injection check
                    // is marginal, small enough to stress the per-task
                    // fault bookkeeping.
                    let mut acc = i as u64;
                    for j in 0..200u64 {
                        acc = acc.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(j);
                    }
                    std::hint::black_box(acc);
                });
            }
        });
        assert!(outcome.is_ok(), "{}", outcome.summary());
    };
    let best = |rt: &Runtime| {
        soup(rt); // warmup
        let mut b = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            soup(rt);
            b = b.min(t0.elapsed().as_secs_f64());
        }
        b
    };

    let plain = Runtime::new(RuntimeConfig::optimized().workers(workers));
    let plain_s = best(&plain);
    drop(plain);
    let armed = Runtime::new(
        RuntimeConfig::optimized()
            .workers(workers)
            .with_fault_plan(FaultPlan::never())
            .with_watchdog(std::time::Duration::from_secs(10)),
    );
    let armed_s = best(&armed);
    drop(armed);

    let ratio = armed_s / plain_s;
    Row {
        row: "overhead",
        variant: "optimized".to_string(),
        detail: format!("tasks={tasks} reps={reps}"),
        value: ratio,
        target: 1.03,
        met: ratio <= 1.03,
        extra: vec![
            ("plain_seconds", Json::from(plain_s)),
            ("armed_seconds", Json::from(armed_s)),
        ],
    }
}

fn main() {
    let opts = Opts::from_env();
    let workers = opts.workers.unwrap_or(4).clamp(1, 128);
    let reps = opts.reps.max(5);
    println!(
        "# fig19_chaos: workers={workers} reps={reps} scale={}",
        opts.scale
    );
    println!("# row,variant,detail,value,target,met");

    let mut rows = Vec::new();
    for (variant, sched, deps) in matrix() {
        let r = fault_matrix_row(&variant, sched, deps, workers.min(4));
        r.print();
        rows.push(r);
    }
    let r = replay_recovery_row(workers.min(4));
    r.print();
    rows.push(r);
    let r = watchdog_row();
    r.print();
    rows.push(r);
    let r = overhead_row(workers, reps, opts.scale);
    r.print();
    rows.push(r);

    let overhead = rows.last().unwrap();
    println!(
        "# no-fault overhead <= 3%: {} ({:.4}x)",
        if overhead.met { "MET" } else { "NOT MET" },
        overhead.value
    );
    let target_met = rows.iter().all(|r| r.met);

    let doc = Json::obj([
        ("figure", Json::from("fig19_chaos")),
        ("workers", Json::from(workers)),
        ("scale", Json::from(opts.scale)),
        ("reps", Json::from(reps)),
        ("target_met", Json::from(target_met)),
        ("rows", Json::Arr(rows.iter().map(Row::json).collect())),
    ]);
    match json::write_bench_json("fig19_chaos", &doc) {
        Ok(Some(path)) => eprintln!("# wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("# BENCH json write failed: {e}"),
    }

    // The correctness rows hard-assert inline; the overhead guard is
    // the one soft measurement — enforce it here so CI smoke fails loud.
    assert!(
        overhead.value <= 1.03,
        "no-fault overhead {:.4}x exceeds 1.03x",
        overhead.value
    );
}
