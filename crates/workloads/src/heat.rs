//! Heat equation via Gauss–Seidel — §6.1 benchmark (2): "an iterative
//! Gauss-Seidel method solving the heat equation of a 2-D matrix in
//! blocks and task reductions to calculate the residual of each time
//! step".
//!
//! Each timestep spawns one task per block with
//! `inout(B[i][j]) in(B[i±1][j], B[i][j±1])`, producing the classic
//! wavefront: consecutive timesteps pipeline diagonally across the grid.
//! The squared-residual is accumulated through a task reduction.

use nanotask_core::{Deps, RedOp, Runtime, SendPtr, TaskCtx};
use nanotask_replay::RunIterative;

use crate::kernels::{gauss_seidel_block, hash_f64};
use crate::{IterativeWorkload, Workload};

/// Blocked Gauss–Seidel heat solver.
pub struct Heat {
    /// Interior size (grid is (n+2)² with fixed boundary).
    n: usize,
    steps: usize,
    grid: Vec<f64>,
    residual: Box<f64>,
    expected_grid: Vec<f64>,
    expected_residual: f64,
}

impl Heat {
    /// `scale` multiplies the grid edge (scale 1 ≈ 64 interior cells).
    pub fn new(scale: usize) -> Self {
        let n = 64 * scale.clamp(1, 16);
        let mut me = Self {
            n,
            steps: 3,
            grid: Self::initial(n),
            residual: Box::new(0.0),
            expected_grid: vec![],
            expected_residual: 0.0,
        };
        me.recompute_reference();
        me
    }

    /// Change the timestep count (benchmarking knob; more steps amortize
    /// the replay subsystem's record iteration further).
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = steps.max(1);
        self.recompute_reference();
        self
    }

    /// Serial reference: same sweep order as the task version's
    /// dependency order (row-major blocks, Gauss–Seidel in-place).
    fn recompute_reference(&mut self) {
        let stride = self.n + 2;
        self.expected_grid = Self::initial(self.n);
        self.expected_residual = 0.0;
        for _ in 0..self.steps {
            self.expected_residual += unsafe {
                gauss_seidel_block(
                    self.expected_grid.as_mut_ptr().add(stride + 1),
                    self.n,
                    self.n,
                    stride,
                )
            };
        }
    }

    fn initial(n: usize) -> Vec<f64> {
        let stride = n + 2;
        let mut g = vec![0.0; stride * stride];
        // Hot top boundary, noisy left boundary.
        for cell in g.iter_mut().take(stride) {
            *cell = 1.0;
        }
        for r in 0..stride {
            g[r * stride] = hash_f64(r);
        }
        g
    }
}

/// Spawn one Gauss–Seidel timestep: one task per block with
/// `inout(B[i][j]) in(neighbours) reduction(residual)`. Shared between
/// the pipelined driver ([`Workload::run`]) and the record/replay
/// driver ([`IterativeWorkload::run_replay`]).
fn spawn_timestep(
    ctx: &TaskCtx,
    g: SendPtr<f64>,
    res: SendPtr<f64>,
    bs: usize,
    nb: usize,
    stride: usize,
) {
    // Representative address of block (bi, bj): its first cell.
    let rep = |bi: usize, bj: usize| unsafe { g.add((1 + bi * bs) * stride + 1 + bj * bs) };
    for bi in 0..nb {
        for bj in 0..nb {
            let me = rep(bi, bj);
            let mut deps =
                Deps::new()
                    .readwrite_addr(me.addr())
                    .reduce_addr(res.addr(), 8, RedOp::SumF64);
            if bi > 0 {
                deps = deps.read_addr(rep(bi - 1, bj).addr());
            }
            if bi + 1 < nb {
                deps = deps.read_addr(rep(bi + 1, bj).addr());
            }
            if bj > 0 {
                deps = deps.read_addr(rep(bi, bj - 1).addr());
            }
            if bj + 1 < nb {
                deps = deps.read_addr(rep(bi, bj + 1).addr());
            }
            ctx.spawn_labeled("gs", deps, move |c| unsafe {
                let r = gauss_seidel_block(me.get(), bs, bs, stride);
                let slot = c.red_slot(&*(res.addr() as *const f64));
                *slot += r;
            });
        }
    }
}

impl Workload for Heat {
    fn name(&self) -> &'static str {
        "Heat"
    }

    fn block_sizes(&self) -> Vec<usize> {
        let mut v = Vec::new();
        let mut bs = 8;
        while bs <= self.n {
            v.push(bs);
            bs *= 2;
        }
        v
    }

    fn run(&mut self, rt: &Runtime, bs: usize) -> u64 {
        let bs = bs.clamp(1, self.n);
        assert_eq!(self.n % bs, 0);
        self.grid = Self::initial(self.n);
        *self.residual = 0.0;
        let n = self.n;
        let nb = n / bs;
        let steps = self.steps;
        let stride = n + 2;
        let g = SendPtr::new(self.grid.as_mut_ptr());
        let res = SendPtr::new(&mut *self.residual as *mut f64);
        rt.run(move |ctx| {
            for _ in 0..steps {
                spawn_timestep(ctx, g, res, bs, nb, stride);
            }
        });
        // 6 flops per cell per sweep (4 adds, mul, diff) + residual.
        (8 * self.n * self.n * self.steps) as u64
    }

    fn ops_per_task(&self, bs: usize) -> u64 {
        8 * (bs as u64).pow(2)
    }

    fn verify(&self) -> Result<(), String> {
        // Gauss–Seidel with block tasks applies updates in the same
        // row-major cell order as the serial sweep (dependencies force
        // left/top blocks first), so results match tightly.
        for (i, (got, want)) in self.grid.iter().zip(&self.expected_grid).enumerate() {
            if (got - want).abs() > 1e-9 {
                return Err(format!("grid[{i}] = {got}, expected {want}"));
            }
        }
        let (got, want) = (*self.residual, self.expected_residual);
        if (got - want).abs() > 1e-9 * want.abs().max(1.0) {
            return Err(format!("residual {got} != {want}"));
        }
        Ok(())
    }
}

impl IterativeWorkload for Heat {
    fn iterations(&self) -> usize {
        self.steps
    }

    fn set_iterations(&mut self, iters: usize) {
        self.steps = iters.max(1);
        self.recompute_reference();
    }

    fn run_replay(&mut self, rt: &Runtime, bs: usize) -> u64 {
        self.run_replay_report(rt, bs);
        (8 * self.n * self.n * self.steps) as u64
    }

    fn run_replay_report(&mut self, rt: &Runtime, bs: usize) -> nanotask_replay::ReplayReport {
        let bs = bs.clamp(1, self.n);
        assert_eq!(self.n % bs, 0);
        self.grid = Self::initial(self.n);
        *self.residual = 0.0;
        let n = self.n;
        let nb = n / bs;
        let stride = n + 2;
        let g = SendPtr::new(self.grid.as_mut_ptr());
        let res = SendPtr::new(&mut *self.residual as *mut f64);
        // One iteration = one timestep: recorded once, replayed steps-1
        // times. Unlike `run`, timesteps do not pipeline — the win is
        // zero dependency-system work per replayed step.
        rt.run_iterative(self.steps, move |ctx| {
            spawn_timestep(ctx, g, res, bs, nb, stride);
        })
    }
}

impl Heat {
    /// Phase-alternating replay driver: timestep `t` uses block size
    /// `sizes[t % sizes.len()]`, so the spawned task graph alternates
    /// between `sizes.len()` distinct shapes — the graph-cache
    /// stress. Every block size still performs one full Gauss–Seidel
    /// sweep in row-major cell order, so [`Workload::verify`] holds
    /// regardless of the phase pattern. Returns the full
    /// [`nanotask_replay::ReplayReport`]: a cycle that fits the replay
    /// engine's graph cache (four shapes) records each shape once and
    /// replays all later timesteps; a longer cycle re-records on every
    /// phase change.
    pub fn run_phased_replay(
        &mut self,
        rt: &Runtime,
        sizes: &[usize],
    ) -> nanotask_replay::ReplayReport {
        assert!(!sizes.is_empty());
        let sizes: Vec<usize> = sizes.iter().map(|&bs| bs.clamp(1, self.n)).collect();
        for &bs in &sizes {
            assert_eq!(self.n % bs, 0);
        }
        self.grid = Self::initial(self.n);
        *self.residual = 0.0;
        let n = self.n;
        let stride = n + 2;
        let g = SendPtr::new(self.grid.as_mut_ptr());
        let res = SendPtr::new(&mut *self.residual as *mut f64);
        let step = std::sync::atomic::AtomicUsize::new(0);
        rt.run_iterative(self.steps, move |ctx| {
            let t = step.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let bs = sizes[t % sizes.len()];
            spawn_timestep(ctx, g, res, bs, n / bs, stride);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanotask_core::RuntimeConfig;

    #[test]
    fn replay_matches_serial_sweep_at_all_block_sizes() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = Heat::new(1);
        for bs in w.block_sizes() {
            w.run_replay(&rt, bs);
            w.verify().unwrap_or_else(|e| panic!("replay bs={bs}: {e}"));
        }
    }

    #[test]
    fn phased_replay_alternating_block_sizes_verifies_and_caches() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = Heat::new(1).with_steps(8);
        let report = w.run_phased_replay(&rt, &[8, 16]);
        w.verify().unwrap_or_else(|e| panic!("phased replay: {e}"));
        // Two shapes: each records once, the other 6 timesteps replay.
        assert_eq!(report.rerecords, 2);
        assert_eq!(report.replayed, 6);
        assert_eq!(report.diverged, 1, "only the first phase flip diverges");
    }

    #[test]
    fn phased_replay_cycle_longer_than_the_cache_rerecords_every_flip() {
        // Five shapes, four cache slots: a shape is evicted before it
        // comes round again, so every flip misses, freezes the new shape
        // and evicts the oldest — correct, but never replays. Seven steps
        // stay below the engine's give-up threshold of eight.
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = Heat::new(1).with_steps(7);
        let report = w.run_phased_replay(&rt, &[4, 8, 16, 32, 64]);
        w.verify().unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(report.rerecords, 7);
        assert_eq!(report.cache_evictions, 3);
        assert_eq!(report.pinned_iterations, 0);
    }

    #[test]
    fn replay_with_more_steps_still_verifies() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = Heat::new(1).with_steps(7);
        w.run_replay(&rt, 16);
        w.verify().unwrap();
        // And the normal driver agrees on the same step count.
        w.run(&rt, 16);
        w.verify().unwrap();
    }

    #[test]
    fn matches_serial_sweep_at_all_block_sizes() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = Heat::new(1);
        for bs in w.block_sizes() {
            w.run(&rt, bs);
            w.verify().unwrap_or_else(|e| panic!("bs={bs}: {e}"));
        }
    }

    #[test]
    fn residual_positive_and_decreasing_problem() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        let mut w = Heat::new(1);
        w.run(&rt, 16);
        assert!(*w.residual > 0.0);
    }

    #[test]
    fn correct_with_locking_deps() {
        let rt = Runtime::new(RuntimeConfig::without_waitfree_deps().workers(2));
        let mut w = Heat::new(1);
        w.run(&rt, 32);
        w.verify().unwrap();
    }
}
