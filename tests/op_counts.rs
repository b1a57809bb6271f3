//! Pins the work the runtime does for four fixed shapes: how many tasks
//! it creates, executes and frees, how many scheduler adds, pops and
//! lock acquisitions it makes, and how much dependency traffic it
//! sends. With one worker every count is exact, so a change that adds
//! or drops a step on the task path (one more `add_ready` per task, a
//! second registration, a lost free) moves a pin; a change that only
//! moves time around moves none.
//!
//! Each shape runs under the wait-free and the locking dependency
//! system. A pin changes only together with the code that changes the
//! work, and the change says why.

use nanotask::workloads::heat::Heat;
use nanotask::workloads::{IterativeWorkload, Workload};
use nanotask::{Deps, RunReport, Runtime, RuntimeConfig, SendPtr};

/// Access-free spawns of the storm shape.
const STORM: u64 = 10_000;
/// Independent readwrite chains and the tasks on each.
const CHAINS: u64 = 8;
const PER_CHAIN: u64 = 1_000;
/// Heat timesteps (live) and iterations (replayed), at block size 8 on
/// the 64 x 64 grid: 64 tasks per step.
const HEAT_STEPS: usize = 8;
const HEAT_BS: usize = 8;

/// One row: tasks created, executed, freed; scheduler adds, pops, lock
/// acquisitions; dependency accesses, deliveries, duplicates.
type Counts = [u64; 9];

#[rustfmt::skip]
const PINS: &[(&str, &str, Counts)] = &[
    ("storm", "waitfree", [10001, 10001, 10001, 10000, 10000, 10002, 0, 0, 0]),
    ("storm", "locking", [10001, 10001, 10001, 10000, 10000, 10002, 0, 0, 0]),
    ("chains", "waitfree", [8001, 8001, 8001, 8000, 8000, 8000, 8000, 32000, 0]),
    ("chains", "locking", [8001, 8001, 8001, 8000, 8000, 8000, 8000, 0, 0]),
    ("heat", "waitfree", [513, 513, 513, 512, 512, 512, 2816, 15745, 0]),
    ("heat", "locking", [513, 513, 513, 512, 512, 512, 2816, 0, 0]),
    ("heat_replayed", "waitfree", [513, 513, 513, 512, 512, 512, 352, 1857, 0]),
    ("heat_replayed", "locking", [513, 513, 513, 512, 512, 512, 352, 0, 0]),
];

/// Runs one shape on the runtime it is given.
type Shape = fn(&Runtime);

/// The counts one call of `run` adds to `rt`'s report.
fn counts(rt: &Runtime, run: impl FnOnce(&Runtime)) -> Counts {
    let flat = |r: &RunReport| {
        let s = &r.stats;
        let (accesses, deliveries, duplicates) = s.deps_deliveries;
        [
            s.tasks_created,
            s.tasks_executed,
            s.tasks_freed,
            r.sched.adds,
            r.sched.pops,
            r.sched.lock_acquisitions,
            accesses,
            deliveries,
            duplicates,
        ]
    };
    let before = flat(&rt.run_report());
    run(rt);
    let after = flat(&rt.run_report());
    assert_eq!(rt.live_tasks(), 0);
    core::array::from_fn(|i| after[i] - before[i])
}

fn storm(rt: &Runtime) {
    rt.run(|ctx| {
        for _ in 0..STORM {
            ctx.spawn(Deps::new(), |_| {});
        }
    });
}

fn chains(rt: &Runtime) {
    let cells = Box::leak(vec![0u64; CHAINS as usize].into_boxed_slice());
    let base = SendPtr::new(cells.as_mut_ptr());
    rt.run(move |ctx| {
        for _ in 0..PER_CHAIN {
            for c in 0..CHAINS as usize {
                let p = SendPtr::new(unsafe { base.get().add(c) });
                ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                    *p.get() += 1;
                });
            }
        }
    });
    assert!(cells.iter().all(|&n| n == PER_CHAIN));
}

fn heat_live(rt: &Runtime) {
    let mut heat = Heat::new(1).with_steps(HEAT_STEPS);
    heat.run(rt, HEAT_BS);
    heat.verify().unwrap();
}

fn heat_replayed(rt: &Runtime) {
    let mut heat = Heat::new(1).with_steps(HEAT_STEPS);
    let report = heat.run_replay_report(rt, HEAT_BS);
    heat.verify().unwrap();
    assert_eq!(report.replayed, HEAT_STEPS - 1, "{report}");
}

#[test]
fn op_counts_are_pinned() {
    let shapes: [(&str, Shape); 4] = [
        ("storm", storm),
        ("chains", chains),
        ("heat", heat_live),
        ("heat_replayed", heat_replayed),
    ];
    let configs = [
        ("waitfree", RuntimeConfig::optimized()),
        ("locking", RuntimeConfig::without_waitfree_deps()),
    ];
    let mut got = Vec::new();
    for (shape, run) in shapes {
        for (deps, cfg) in &configs {
            let rt = Runtime::new(cfg.clone().workers(1));
            got.push((shape, *deps, counts(&rt, run)));
        }
    }
    let table: String = got
        .iter()
        .map(|(s, d, c)| format!("    ({s:?}, {d:?}, {c:?}),\n"))
        .collect();
    assert_eq!(got, PINS, "op counts moved; the table now reads:\n{table}");
}
