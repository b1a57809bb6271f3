//! miniAMR proxy — §6.1 benchmark (5): "a taskified miniAMR that mimics
//! the different patterns of Adaptive Mesh Refinement applications".
//!
//! miniAMR's defining runtime behaviour (and why the paper uses it for
//! the Figure 10/11 trace studies) is *irregularity*: the set of mesh
//! blocks — and therefore the number and size of tasks — changes every
//! refinement phase, and a single creator thread must push bursts of
//! fine-grained tasks. This proxy reproduces that structurally: a
//! moving refinement front assigns each block a level per phase, and a
//! block at level `L` is processed by `2^L` *sub-block* tasks (more,
//! finer, per-cell-more-expensive tasks in refined regions — the AMR
//! split). The task **graph shape therefore changes between phases**
//! with period 4, which makes this the workspace's phase-alternating
//! stress for the replay engine's graph cache: driven through
//! [`nanotask_replay::RunIterative`] (one iteration = one phase), each
//! distinct phase shape records once and then replays from the cache.
//!
//! Cross-phase ordering is exact: every sub-block task declares `inout`
//! on the representative address of each finest-level quarter it
//! covers, so re-partitioning between phases serializes correctly, and
//! a halo `in` on the left neighbour keeps the AMR exchange pattern in
//! the graph. A checksum is accumulated through a task reduction.

use nanotask_core::{Deps, RedOp, Runtime, SendPtr, TaskCtx};
use nanotask_replay::{ReplayReport, RunIterative};

use crate::kernels::hash_f64;
use crate::{IterativeWorkload, Workload};

/// Maximum refinement level of the proxy (level `L` → `2^L` sub-tasks).
const MAX_LEVEL: u8 = 2;

/// Finest-level quarters per block: the ordering granules every task
/// declares its coverage in.
const QUARTERS: usize = 1 << MAX_LEVEL;

/// Blocked AMR-style proxy with phase-varying task population.
pub struct MiniAmr {
    base_blocks: usize,
    phases: usize,
    /// Backing storage: every possible block slot, each `max_bs` cells.
    storage: Vec<f64>,
    max_bs: usize,
    checksum: Box<f64>,
    last_bs: usize,
}

/// Deterministic refinement level of block `b` during `phase` — mimics a
/// moving refinement front. Periodic in `phase` with period 4 (the
/// front advances by `nblocks/4` per phase).
fn level_of(b: usize, phase: usize, nblocks: usize) -> u8 {
    let front = (phase % 4) * nblocks / 4;
    let dist = (b + nblocks - front) % nblocks;
    if dist < nblocks / 8 + 1 {
        MAX_LEVEL
    } else if dist < nblocks / 4 + 1 {
        1
    } else {
        0
    }
}

impl MiniAmr {
    /// `scale` multiplies block count and block size.
    pub fn new(scale: usize) -> Self {
        let base_blocks = 16 * scale.clamp(1, 16);
        let phases = 8;
        let max_bs = 256 * scale.clamp(1, 16);
        let storage: Vec<f64> = (0..base_blocks * max_bs).map(hash_f64).collect();
        Self {
            base_blocks,
            phases,
            storage,
            max_bs,
            checksum: Box::new(0.0),
            last_bs: 0,
        }
    }

    /// Smooth one sub-block in place; returns its cell sum. Refined
    /// levels run more relaxation passes (costlier per cell).
    fn smooth(block: &mut [f64], level: u8) -> f64 {
        let mut sum = 0.0;
        let reps = 1 + level as usize;
        for _ in 0..reps {
            for i in 1..block.len() - 1 {
                block[i] = 0.5 * block[i] + 0.25 * (block[i - 1] + block[i + 1]);
            }
        }
        for v in block.iter() {
            sum += *v;
        }
        sum
    }

    /// Serial reference for a given block size, from the initial state:
    /// the exact sub-block decomposition the task version spawns, run in
    /// spawn order.
    fn serial(&self, bs: usize) -> (Vec<f64>, f64) {
        let mut st: Vec<f64> = (0..self.base_blocks * self.max_bs).map(hash_f64).collect();
        let mut checksum = 0.0;
        for phase in 0..self.phases {
            for b in 0..self.base_blocks {
                let level = level_of(b, phase, self.base_blocks);
                let subs = 1usize << level;
                let seg = bs / subs;
                for s in 0..subs {
                    let lo = b * self.max_bs + s * seg;
                    checksum += Self::smooth(&mut st[lo..lo + seg], level);
                }
            }
        }
        (st, checksum)
    }

    fn reset(&mut self, bs: usize) -> usize {
        // Round down to a whole number of quarters: sub-block segment
        // boundaries must align with the declared quarter granules, or
        // tasks of different levels could overlap cells without sharing
        // a dependency address (a cross-phase race).
        let bs = bs.clamp(QUARTERS * 8, self.max_bs) / QUARTERS * QUARTERS;
        self.storage = (0..self.base_blocks * self.max_bs).map(hash_f64).collect();
        *self.checksum = 0.0;
        self.last_bs = bs;
        bs
    }

    /// Work units reported per run.
    fn work(&self, bs: usize) -> u64 {
        (self.phases * self.base_blocks * bs * 4) as u64
    }
}

/// Spawn one refinement phase: `2^level` sub-block tasks per block, each
/// `inout` on the finest-level quarters it covers, `in` on the left
/// neighbour's halo (first task of each block), and a checksum
/// reduction. Shared between the pipelined driver ([`Workload::run`])
/// and the replay driver ([`IterativeWorkload::run_replay_report`]).
fn spawn_phase(
    ctx: &TaskCtx,
    st: SendPtr<f64>,
    ck: SendPtr<f64>,
    bs: usize,
    nblocks: usize,
    max_bs: usize,
    phase: usize,
) {
    let quarter = bs / QUARTERS;
    // Representative address of quarter `q` of block `b`.
    let rep = |b: usize, q: usize| unsafe { st.add(b * max_bs + q * quarter) };
    for b in 0..nblocks {
        let level = level_of(b, phase, nblocks);
        let subs = 1usize << level;
        let seg = bs / subs;
        let q_per_sub = QUARTERS / subs;
        for s in 0..subs {
            let mut deps = Deps::new().reduce_addr(ck.addr(), 8, RedOp::SumF64);
            for q in 0..q_per_sub {
                deps = deps.readwrite_addr(rep(b, s * q_per_sub + q).addr());
            }
            if s == 0 {
                // AMR halo exchange flavour: read the left neighbour.
                deps = deps.read_addr(rep((b + nblocks - 1) % nblocks, 0).addr());
            }
            let lo = unsafe { st.add(b * max_bs + s * seg) };
            ctx.spawn_labeled("amr_smooth", deps, move |c| unsafe {
                let block = core::slice::from_raw_parts_mut(lo.get(), seg);
                let sum = MiniAmr::smooth(block, level);
                *c.red_slot(&*(ck.addr() as *const f64)) += sum;
            });
        }
    }
}

impl Workload for MiniAmr {
    fn name(&self) -> &'static str {
        "miniAMR"
    }

    fn block_sizes(&self) -> Vec<usize> {
        let mut v = Vec::new();
        let mut bs = QUARTERS * 8;
        while bs <= self.max_bs {
            v.push(bs);
            bs *= 2;
        }
        v
    }

    fn run(&mut self, rt: &Runtime, bs: usize) -> u64 {
        let bs = self.reset(bs);
        let nblocks = self.base_blocks;
        let phases = self.phases;
        let max_bs = self.max_bs;
        let st = SendPtr::new(self.storage.as_mut_ptr());
        let ck = SendPtr::new(&mut *self.checksum as *mut f64);
        rt.run(move |ctx| {
            for phase in 0..phases {
                spawn_phase(ctx, st, ck, bs, nblocks, max_bs, phase);
            }
        });
        self.work(bs)
    }

    fn ops_per_task(&self, bs: usize) -> u64 {
        // Average over one period of the moving front: a level-L
        // sub-task processes bs/2^L cells with 1+L relaxation passes
        // (~6 ops per cell per pass).
        let mut ops = 0u64;
        let mut tasks = 0u64;
        for phase in 0..4 {
            for b in 0..self.base_blocks {
                let l = level_of(b, phase, self.base_blocks) as u64;
                let subs = 1u64 << l;
                tasks += subs;
                ops += subs * 6 * (bs as u64 >> l) * (1 + l);
            }
        }
        (ops / tasks.max(1)).max(1)
    }

    fn verify(&self) -> Result<(), String> {
        if self.last_bs == 0 {
            return Err("not run yet".into());
        }
        // Per-quarter inout chains give the same per-address sequential
        // order as the serial loop, so the state matches exactly; the
        // checksum is a float reduction (combine order varies), compared
        // with a relative tolerance.
        let (est, ec) = self.serial(self.last_bs);
        for (i, (got, want)) in self.storage.iter().zip(&est).enumerate() {
            if (got - want).abs() > 1e-9 {
                return Err(format!("storage[{i}] = {got}, expected {want}"));
            }
        }
        let got = *self.checksum;
        if (got - ec).abs() > 1e-6 * ec.abs().max(1.0) {
            return Err(format!("checksum {got} != expected {ec}"));
        }
        Ok(())
    }
}

impl IterativeWorkload for MiniAmr {
    fn iterations(&self) -> usize {
        self.phases
    }

    fn set_iterations(&mut self, iters: usize) {
        self.phases = iters.max(1);
    }

    /// Drive one run through `Runtime::run_iterative` (one iteration =
    /// one refinement phase) and hand back the full [`ReplayReport`]:
    /// with a graph cache of at least 4 the four distinct phase shapes
    /// each record once and every later phase replays from the cache.
    fn run_replay_report(&mut self, rt: &Runtime, bs: usize) -> ReplayReport {
        let bs = self.reset(bs);
        let nblocks = self.base_blocks;
        let max_bs = self.max_bs;
        let st = SendPtr::new(self.storage.as_mut_ptr());
        let ck = SendPtr::new(&mut *self.checksum as *mut f64);
        let phase = std::sync::atomic::AtomicUsize::new(0);
        rt.run_iterative(self.phases, move |ctx| {
            let p = phase.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            spawn_phase(ctx, st, ck, bs, nblocks, max_bs, p);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanotask_core::RuntimeConfig;

    #[test]
    fn refinement_front_moves_with_period_four() {
        let levels =
            |p: usize| -> Vec<u8> { (0..16).map(|b| level_of(b, p, 16)).collect::<Vec<_>>() };
        assert_ne!(levels(0), levels(1), "levels change between phases");
        assert_eq!(levels(0), levels(4), "front is periodic with period 4");
        assert!(levels(0).contains(&MAX_LEVEL));
        assert!(levels(0).contains(&0));
    }

    #[test]
    fn checksum_matches_serial_at_all_blocks() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = MiniAmr::new(1);
        for bs in [32, 64, 256] {
            w.run(&rt, bs);
            w.verify().unwrap_or_else(|e| panic!("bs={bs}: {e}"));
        }
    }

    #[test]
    fn non_quarter_aligned_block_size_rounds_down_and_verifies() {
        // bs must be a whole number of quarters or sub-block segments
        // would overlap cells without sharing a dependency address.
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = MiniAmr::new(1);
        w.run(&rt, 50);
        assert_eq!(w.last_bs, 48, "rounded to a quarter multiple");
        w.verify().unwrap();
    }

    #[test]
    fn deterministic_state_across_runs() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = MiniAmr::new(1);
        w.run(&rt, 64);
        let first_state = w.storage.clone();
        let first_ck = *w.checksum;
        w.run(&rt, 64);
        assert_eq!(first_state, w.storage, "same work, same state");
        // The checksum is a parallel float reduction: combine order may
        // differ between runs, values agree to rounding.
        assert!((first_ck - *w.checksum).abs() <= 1e-9 * first_ck.abs().max(1.0));
    }

    #[test]
    fn task_count_alternates_between_phases() {
        let count =
            |p: usize| -> usize { (0..16).map(|b| 1usize << level_of(b, p, 16)).sum::<usize>() };
        let counts: Vec<usize> = (0..4).map(count).collect();
        assert!(
            counts.iter().any(|&c| c != counts[0]) || {
                // Even with equal totals the *placement* differs, which
                // is what the structural hash sees; require that at
                // least the level vectors differ.
                (0..16).map(|b| level_of(b, 0, 16)).collect::<Vec<_>>()
                    != (0..16).map(|b| level_of(b, 1, 16)).collect::<Vec<_>>()
            },
            "phases must differ structurally: {counts:?}"
        );
    }

    #[test]
    fn replay_matches_serial_and_uses_the_graph_cache() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = MiniAmr::new(1);
        let report = w.run_replay_report(&rt, 64);
        w.verify().unwrap_or_else(|e| panic!("replay bs=64: {e}"));
        // 8 phases cycle through 4 distinct shapes: each records once,
        // every later phase replays from the cache.
        assert_eq!(report.iterations, 8);
        assert_eq!(report.rerecords, 4, "one record per distinct phase shape");
        assert_eq!(report.replayed, 4, "the second cycle replays fully");
        assert_eq!(report.pinned_iterations, 0);
        assert!(!report.pinned_nested);
    }
}
