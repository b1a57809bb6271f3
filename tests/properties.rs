//! Property-based tests: for *random task programs*, the parallel
//! runtime must be serially equivalent — every conflicting pair of
//! accesses executes in spawn order, readers observe exactly the value a
//! serial execution would produce, every task runs exactly once, and
//! reductions fold to the serial total. Checked on both dependency
//! systems under each of the paper's three schedulers.

use proptest::prelude::*;

use nanotask::runtime_core::sched::{LockKind, WsVariant};
use nanotask::{Deps, DepsKind, RedOp, Runtime, RuntimeConfig, SchedKind, SendPtr};
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

const ADDRS: usize = 4;

/// One randomly-generated access.
#[derive(Debug, Clone, Copy)]
enum Acc {
    Read(usize),
    Write(usize),
    ReadWrite(usize),
}

impl Acc {
    fn addr_idx(&self) -> usize {
        match *self {
            Acc::Read(a) | Acc::Write(a) | Acc::ReadWrite(a) => a,
        }
    }
}

fn acc_strategy() -> impl Strategy<Value = Acc> {
    (0usize..ADDRS, 0u8..3).prop_map(|(a, m)| match m {
        0 => Acc::Read(a),
        1 => Acc::Write(a),
        _ => Acc::ReadWrite(a),
    })
}

/// A task: up to 2 accesses (distinct addresses) + a seed for its update.
fn task_strategy() -> impl Strategy<Value = (Vec<Acc>, u64)> {
    (proptest::collection::vec(acc_strategy(), 1..3), 1u64..1000).prop_map(|(mut accs, seed)| {
        accs.dedup_by_key(|a| a.addr_idx());
        (accs, seed)
    })
}

/// Deterministic update applied by writers.
fn mix(old: u64, seed: u64) -> u64 {
    old.wrapping_mul(6364136223846793005)
        .wrapping_add(seed)
        .rotate_left(13)
}

/// Serial execution of the program: returns final memory and, for each
/// task and read-access, the value it must observe.
fn serial(program: &[(Vec<Acc>, u64)]) -> ([u64; ADDRS], Vec<Vec<u64>>) {
    let mut mem = [0u64; ADDRS];
    let mut reads = Vec::new();
    for (accs, seed) in program {
        let mut observed = Vec::new();
        for acc in accs {
            match *acc {
                Acc::Read(a) => observed.push(mem[a]),
                Acc::Write(a) | Acc::ReadWrite(a) => {
                    mem[a] = mix(mem[a], *seed);
                }
            }
        }
        reads.push(observed);
    }
    (mem, reads)
}

const SCHEDS: [SchedKind; 3] = [
    SchedKind::Delegation,
    SchedKind::Central(LockKind::PtLock),
    SchedKind::WorkSteal(WsVariant::LifoLocal),
];

/// Run the program on the runtime and compare against serial execution.
fn check(program: &[(Vec<Acc>, u64)], sched: SchedKind, deps_kind: DepsKind, workers: usize) {
    let (want_mem, want_reads) = serial(program);
    let rt = Runtime::new(
        RuntimeConfig::optimized()
            .scheduler(sched)
            .dependency_system(deps_kind)
            .workers(workers),
    );
    let mut mem = Box::new([0u64; ADDRS]);
    let observed: Arc<Vec<Vec<AtomicU64>>> = Arc::new(
        program
            .iter()
            .map(|(accs, _)| accs.iter().map(|_| AtomicU64::new(u64::MAX)).collect())
            .collect(),
    );
    let runs: Arc<Vec<AtomicU64>> = Arc::new(program.iter().map(|_| AtomicU64::new(0)).collect());
    {
        let base = SendPtr::new(mem.as_mut_ptr());
        let program = program.to_vec();
        let observed = Arc::clone(&observed);
        let runs = Arc::clone(&runs);
        rt.run(move |ctx| {
            for (ti, (accs, seed)) in program.iter().enumerate() {
                let mut d = Deps::new();
                for acc in accs {
                    let addr = unsafe { base.add(acc.addr_idx()).addr() };
                    d = match acc {
                        Acc::Read(_) => d.read_addr(addr),
                        Acc::Write(_) => d.write_addr(addr),
                        Acc::ReadWrite(_) => d.readwrite_addr(addr),
                    };
                }
                let accs = accs.clone();
                let seed = *seed;
                let observed = Arc::clone(&observed);
                let runs = Arc::clone(&runs);
                ctx.spawn(d, move |_| {
                    runs[ti].fetch_add(1, Ordering::Relaxed);
                    for (ai, acc) in accs.iter().enumerate() {
                        let p = unsafe { base.add(acc.addr_idx()).get() };
                        match acc {
                            Acc::Read(_) => {
                                observed[ti][ai].store(unsafe { *p }, Ordering::Relaxed);
                            }
                            Acc::Write(_) | Acc::ReadWrite(_) => unsafe {
                                *p = mix(*p, seed);
                            },
                        }
                    }
                });
            }
        });
    }
    let what = format!("{sched:?} {deps_kind:?}");
    assert_eq!(
        *mem, want_mem,
        "{what}: final memory differs from serial execution"
    );
    for (ti, (accs, _)) in program.iter().enumerate() {
        assert_eq!(
            runs[ti].load(Ordering::Relaxed),
            1,
            "{what}: task {ti} not run exactly once"
        );
        let mut ri = 0;
        for (ai, acc) in accs.iter().enumerate() {
            if matches!(acc, Acc::Read(_)) {
                let got = observed[ti][ai].load(Ordering::Relaxed);
                let want = want_reads[ti][ri];
                assert_eq!(
                    got, want,
                    "{what}: task {ti} read access {ai} observed wrong value"
                );
                ri += 1;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn waitfree_serially_equivalent(program in proptest::collection::vec(task_strategy(), 1..40)) {
        for sched in SCHEDS {
            check(&program, sched, DepsKind::WaitFree, 3);
        }
    }

    #[test]
    fn locking_serially_equivalent(program in proptest::collection::vec(task_strategy(), 1..40)) {
        for sched in SCHEDS {
            check(&program, sched, DepsKind::Locking, 3);
        }
    }

    #[test]
    fn reductions_fold_to_serial_total(
        seeds in proptest::collection::vec(1u64..100, 1..30),
        writers in proptest::collection::vec(any::<bool>(), 1..30),
    ) {
        // Random interleaving of sum-reductions and writers on one f64.
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut acc = Box::new(0.0f64);
        // Serial expectation.
        let mut want = 0.0f64;
        let mut ops = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let is_writer = *writers.get(i % writers.len()).unwrap_or(&false);
            ops.push((seed, is_writer));
            if is_writer {
                want = want * 0.5 + seed as f64;
            } else {
                want += seed as f64;
            }
        }
        {
            let p = SendPtr::new(&mut *acc as *mut f64);
            rt.run(move |ctx| {
                for (seed, is_writer) in ops {
                    if is_writer {
                        ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                            *p.get() = *p.get() * 0.5 + seed as f64;
                        });
                    } else {
                        ctx.spawn(
                            Deps::new().reduce_addr(p.addr(), 8, RedOp::SumF64),
                            move |c| unsafe {
                                *c.red_slot(&*(p.addr() as *const f64)) += seed as f64;
                            },
                        );
                    }
                }
            });
        }
        prop_assert!((*acc - want).abs() < 1e-9, "got {} want {want}", *acc);
    }

    #[test]
    fn nested_children_respect_parent_chains(
        nchildren in 1usize..8,
        nsiblings in 2usize..6,
    ) {
        // Sibling inout chain where each sibling spawns children that
        // append to a shared log under the same address: the log must be
        // exactly ordered by (sibling, child) despite full parallelism.
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut log: Box<Vec<(usize, usize)>> = Box::default();
        {
            let lp = SendPtr::new(&mut *log as *mut Vec<(usize, usize)>);
            rt.run(move |ctx| {
                for s in 0..nsiblings {
                    ctx.spawn(Deps::new().readwrite_addr(lp.addr()), move |inner| {
                        for c in 0..nchildren {
                            inner.spawn(
                                Deps::new().readwrite_addr(lp.addr()),
                                move |_| unsafe {
                                    (*lp.get()).push((s, c));
                                },
                            );
                        }
                    });
                }
            });
        }
        let want: Vec<(usize, usize)> = (0..nsiblings)
            .flat_map(|s| (0..nchildren).map(move |c| (s, c)))
            .collect();
        prop_assert_eq!(&*log, &want);
    }
}
