//! Layer probes: each public building block timed alone, from outside,
//! in one pinned process of its own. They say what a layer costs when
//! nothing else is in the way; the in-situ counters and spans of the
//! traced trials say what it costs inside a workload.
//!
//! A probe that needs two CPUs reads 0 on a one-CPU host.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use crate::adapters::{self, AllocProbe, ProbeLock, SchedProbe};
use crate::child::workers_for;
use crate::host;
use crate::spans::now_ns;
use crate::stats::median;
use crate::workloads::Wavefront;

/// Median over `ROUNDS` rounds of (round time ÷ `ops`), in ns. `round`
/// performs `ops` operations.
fn ns_per_op(ops: usize, mut round: impl FnMut()) -> f64 {
    const ROUNDS: usize = 7;
    round(); // warm caches and lazy set-up
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            round();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Run `a` on this thread and `b` on a thread pinned to `other_cpu`, both
/// released by one barrier; returns ns from release to both done.
fn timed_pair(other_cpu: usize, a: impl FnOnce() + Send, b: impl FnOnce() + Send) -> f64 {
    let gate = Barrier::new(2);
    std::thread::scope(|s| {
        let helper = s.spawn(|| {
            host::pin_thread(0, other_cpu).expect("the CPU came from this process's affinity mask");
            gate.wait();
            b();
        });
        gate.wait();
        let t = Instant::now();
        a();
        helper.join().expect("probe helper thread panicked");
        t.elapsed().as_nanos() as f64
    })
}

fn pingpong(other_cpu: usize) -> f64 {
    const TRIPS: u64 = 20_000;
    let (ping, pong) = (AtomicU64::new(0), AtomicU64::new(0));
    let wait = |flag: &AtomicU64, v: u64| {
        while flag.load(Ordering::Acquire) != v {
            std::hint::spin_loop();
        }
    };
    let ns = timed_pair(
        other_cpu,
        || {
            for i in 1..=TRIPS {
                ping.store(i, Ordering::Release);
                wait(&pong, i);
            }
        },
        || {
            for i in 1..=TRIPS {
                wait(&ping, i);
                pong.store(i, Ordering::Release);
            }
        },
    );
    ns / TRIPS as f64
}

/// Two threads on two CPUs take the lock in turns as fast as they can:
/// ns per acquisition is the contended handoff cost.
fn lock_handoff(lock: Arc<dyn ProbeLock>, other_cpu: usize) -> f64 {
    const PER_THREAD: usize = 20_000;
    let counter = AtomicU64::new(0);
    let work = || {
        for _ in 0..PER_THREAD {
            lock.acquire();
            counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            lock.release();
        }
    };
    let ns = timed_pair(other_cpu, work, work);
    assert_eq!(
        counter.load(Ordering::Relaxed),
        2 * PER_THREAD as u64,
        "lock lost an update"
    );
    ns / (2 * PER_THREAD) as f64
}

fn sched_add_get(kind: SchedProbe) -> f64 {
    const BATCH: usize = 64;
    let sched = adapters::Sched::new(kind, 2);
    ns_per_op(BATCH * 100, || {
        for round in 0..100 {
            for i in 0..BATCH {
                sched.add(round * BATCH + i, 0);
            }
            for _ in 0..BATCH {
                black_box(sched.get(0));
            }
        }
    })
}

/// ns per task of a 1-worker run that spawns `tasks` empty tasks.
fn run_ns_per_task(
    rt: &adapters::Rt,
    tasks: usize,
    spawn_all: impl Fn(&adapters::Ctx) + Send + Copy + 'static,
) -> f64 {
    ns_per_op(tasks, || adapters::run(rt, spawn_all))
}

/// A chain: every task `readwrite`s the same address.
fn chain_pattern(ctx: &adapters::Ctx) {
    static CELL: AtomicU64 = AtomicU64::new(0);
    for _ in 0..PATTERN_TASKS {
        adapters::spawn_rw(ctx, &CELL as *const AtomicU64 as usize, |_| {});
    }
}

/// Fan-in: one writer, then 99 readers of the same address, repeated.
fn fanin_pattern(ctx: &adapters::Ctx) {
    static CELL: AtomicU64 = AtomicU64::new(0);
    let addr = &CELL as *const AtomicU64 as usize;
    for i in 0..PATTERN_TASKS {
        match i % 100 {
            0 => adapters::spawn_rw(ctx, addr, |_| {}),
            _ => adapters::spawn_read(ctx, addr, |_| {}),
        }
    }
}

const PATTERN_TASKS: usize = 5_000;

/// All probe values, by per-layer metric name.
pub fn run_all() -> Result<Vec<(&'static str, f64)>, String> {
    let cpus =
        host::allowed_cpus().map_err(|e| format!("cannot read the CPU affinity mask: {e}"))?;
    host::pin_thread(0, cpus[0]).map_err(|e| format!("cannot pin the probe thread: {e}"))?;
    let other_cpu = cpus.get(1).copied();
    let two = |probe: &dyn Fn(usize) -> f64| other_cpu.map_or(0.0, probe);
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // harness calibrators
    out.push((
        "harness.clock_ns",
        ns_per_op(50_000, || {
            for _ in 0..50_000 {
                black_box(now_ns());
            }
        }),
    ));
    out.push(("harness.pingpong_ns", two(&pingpong)));

    // locks
    let dt = adapters::dtlock();
    out.push((
        "locks.dtlock_uncontended_ns",
        ns_per_op(50_000, || {
            for _ in 0..50_000 {
                dt.acquire();
                dt.release();
            }
        }),
    ));
    out.push((
        "locks.dtlock_handoff_ns",
        two(&|cpu| lock_handoff(adapters::dtlock(), cpu)),
    ));
    out.push((
        "locks.ptlock_handoff_ns",
        two(&|cpu| lock_handoff(adapters::ptlock(), cpu)),
    ));
    out.push((
        "locks.ticket_handoff_ns",
        two(&|cpu| lock_handoff(adapters::ticket_lock(), cpu)),
    ));

    // spsc
    let (tx, mut rx) = adapters::spsc(1024);
    out.push((
        "spsc.local_push_pop_ns",
        ns_per_op(50_000, || {
            for i in 0..50_000 {
                tx.push(i);
                black_box(rx.pop());
            }
        }),
    ));
    out.push((
        "spsc.cross_core_item_ns",
        two(&|cpu| {
            const ITEMS: usize = 200_000;
            let (tx, mut rx) = adapters::spsc(1024);
            let ns = timed_pair(
                cpu,
                move || {
                    let mut got = 0;
                    while got < ITEMS {
                        got += rx.drain();
                    }
                },
                move || {
                    for i in 0..ITEMS as u64 {
                        while !tx.push(i) {
                            std::hint::spin_loop();
                        }
                    }
                },
            );
            ns / ITEMS as f64
        }),
    ));

    // sched
    out.push((
        "sched.delegation_add_get_ns",
        sched_add_get(SchedProbe::Delegation),
    ));
    out.push((
        "sched.central_add_get_ns",
        sched_add_get(SchedProbe::CentralPtLock),
    ));
    out.push((
        "sched.worksteal_add_get_ns",
        sched_add_get(SchedProbe::WorkSteal),
    ));
    let sched = adapters::Sched::new(SchedProbe::Delegation, 2);
    out.push((
        "sched.delegation_batch_add_ns",
        ns_per_op(64 * 100, || {
            for round in 0..100 {
                sched.add_batch(round * 64, 64, 0);
                for _ in 0..64 {
                    black_box(sched.get(0));
                }
            }
        }),
    ));
    out.push((
        "sched.empty_get_ns",
        ns_per_op(20_000, || {
            for _ in 0..20_000 {
                black_box(sched.get(1));
            }
        }),
    ));

    // alloc
    for (name, kind) in [
        ("alloc.pool_roundtrip_ns", AllocProbe::Pool),
        ("alloc.serialized_roundtrip_ns", AllocProbe::Serialized),
    ] {
        let a = adapters::Alloc::new(kind, 2);
        out.push((
            name,
            ns_per_op(50_000, || {
                for _ in 0..50_000 {
                    a.free(black_box(a.alloc()));
                }
            }),
        ));
    }
    let slab = adapters::Slab::primed();
    out.push((
        "alloc.slab_recycle_ns",
        ns_per_op(50_000, || {
            for _ in 0..50_000 {
                black_box(slab.roundtrip());
            }
        }),
    ));
    out.push((
        "alloc.remote_free_ns",
        two(&|cpu| {
            // Blocks allocated here, freed on the other CPU: the path a task
            // takes when another worker than its creator completes it.
            const BLOCKS: usize = 20_000;
            let a = adapters::Alloc::new(AllocProbe::Pool, 2);
            let blocks: Vec<_> = (0..BLOCKS).map(|_| a.alloc()).collect();
            let freed_ns = AtomicU64::new(0);
            let remote = a.clone();
            timed_pair(
                cpu,
                || {},
                || {
                    let t = Instant::now();
                    for b in blocks {
                        remote.free(b);
                    }
                    freed_ns.store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                },
            );
            freed_ns.load(Ordering::Relaxed) as f64 / BLOCKS as f64
        }),
    ));

    // deps at 1 worker, empty bodies: wait-free ASMs vs the locking baseline
    let rt1 = adapters::new_runtime(1);
    let rt1_locking = adapters::new_runtime_locking_deps(1);
    out.push((
        "deps.waitfree_chain_ns",
        run_ns_per_task(&rt1, PATTERN_TASKS, chain_pattern),
    ));
    out.push((
        "deps.locking_chain_ns",
        run_ns_per_task(&rt1_locking, PATTERN_TASKS, chain_pattern),
    ));
    out.push((
        "deps.waitfree_fanin_ns",
        run_ns_per_task(&rt1, PATTERN_TASKS, fanin_pattern),
    ));
    out.push((
        "deps.locking_fanin_ns",
        run_ns_per_task(&rt1_locking, PATTERN_TASKS, fanin_pattern),
    ));
    drop(rt1_locking);

    // replay: record, freeze, partition, hash, feed
    const NB: usize = 32;
    let captured = adapters::stencil_captures(NB);
    let tasks = captured.len();
    out.push((
        "replay.sig_hash_ns",
        ns_per_op(tasks * 20, || {
            for _ in 0..20 {
                black_box(adapters::structural_hash(black_box(&captured)));
            }
        }),
    ));
    out.push((
        "replay.freeze_ns_per_task",
        ns_per_op(tasks, || {
            black_box(adapters::freeze(&captured).tasks());
        }),
    ));
    let frozen = adapters::freeze(&captured);
    out.push((
        "replay.partition_ns_per_task",
        ns_per_op(tasks, || {
            black_box(frozen.partition(2));
        }),
    ));
    out.push((
        "replay.frozen_bytes_per_task",
        frozen.bytes() as f64 / frozen.tasks() as f64,
    ));
    // One recorded iteration, then the same plus EXTRA replayed ones: the
    // difference is the steady-state feed, the first minus its freeze time
    // the cost of recording.
    const EXTRA: usize = 8;
    let wave = Wavefront::new(NB, 1);
    let mut record_ns = Vec::new();
    let mut feed_ns = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let first = wave.run_replayed(&rt1, 1);
        let one = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        wave.run_replayed(&rt1, 1 + EXTRA);
        let many = t.elapsed().as_nanos() as f64;
        record_ns.push((one - first.get("replay_freeze_ns") as f64) / tasks as f64);
        feed_ns.push((many - one) / (EXTRA * tasks) as f64);
    }
    out.push(("replay.record_ns_per_task", median(&record_ns)));
    out.push(("replay.feed_ns_per_task", median(&feed_ns)));
    drop(rt1);

    // the measured preset's own run call, and Heat's pattern without Heat
    let workers = workers_for(cpus.len());
    let rt = adapters::new_runtime(workers);
    host::pin_runtime_threads(workers, &cpus)
        .map_err(|e| format!("cannot pin the runtime's threads: {e}"))?;
    out.push((
        "runtime.run_call_us",
        ns_per_op(200, || {
            for _ in 0..200 {
                adapters::run(&rt, |_| {});
            }
        }) / 1e3,
    ));
    let wave = Wavefront::new(NB, 8);
    wave.run(&rt); // warm the slab and the pools
    let (spawn, handoff) = wave.run(&rt);
    out.push(("deps.wavefront_spawn_ns", median(&spawn)));
    out.push(("deps.wavefront_handoff_ns", median(&handoff)));

    // obs, trace: what turning them on would cost
    let obs = adapters::ObsProbe::new();
    out.push((
        "obs.counter_inc_ns",
        ns_per_op(50_000, || {
            for _ in 0..50_000 {
                obs.inc();
            }
        }),
    ));
    out.push((
        "obs.histogram_record_ns",
        ns_per_op(50_000, || {
            for i in 0..50_000 {
                obs.record(i);
            }
        }),
    ));
    out.push((
        "obs.snapshot_us",
        ns_per_op(20, || {
            for _ in 0..20 {
                black_box(adapters::snapshot_metrics(&rt));
            }
        }) / 1e3,
    ));
    const EVENTS: u64 = 100_000;
    let mut trace = adapters::TraceProbe::new();
    let t = Instant::now();
    for i in 0..EVENTS {
        trace.record(i);
    }
    out.push((
        "trace.record_event_ns",
        t.elapsed().as_nanos() as f64 / EVENTS as f64,
    ));
    let buf = trace.finish();
    let t = Instant::now();
    let bytes = buf.write_ctf();
    out.push((
        "trace.ctf_write_mb_s",
        bytes as f64 / 1e6 / t.elapsed().as_secs_f64(),
    ));

    // kernels
    let mut grid = [0.0f64; 100];
    grid.iter_mut().enumerate().for_each(|(i, v)| *v = i as f64);
    out.push((
        "workloads.gs_block8_ns",
        ns_per_op(10_000, || {
            for _ in 0..10_000 {
                black_box(adapters::gs_block8(black_box(&mut grid)));
            }
        }),
    ));
    let a: Vec<f64> = (0..64 * 64).map(|i| 1.0 + (i % 7) as f64).collect();
    let mut c = vec![0.0f64; 64 * 64];
    out.push((
        "workloads.gemm_block64_us",
        ns_per_op(10, || {
            for _ in 0..10 {
                adapters::gemm_block64(black_box(&mut c), &a, &a);
            }
        }) / 1e3,
    ));
    Ok(out)
}
