//! N-body — §6.1 benchmark (7): "an NBody benchmark that mimics dynamic
//! particle system simulations".
//!
//! Blocked all-pairs force calculation: for every target block `i`, one
//! task per source block `j` accumulates forces (`inout(F[i])
//! in(P[j])` — a per-F-block chain), followed by one integration task per
//! block (`inout(P[i]) in(F[i])`). Multiple timesteps pipeline through
//! the dependency system.

use nanotask_core::{Deps, Runtime, SendPtr, TaskCtx};
use nanotask_replay::RunIterative;

use crate::kernels::{hash_f64, nbody_block_forces};
use crate::{IterativeWorkload, Workload};

const SOFTENING: f64 = 1e-3;
const DT: f64 = 1e-3;

/// Blocked all-pairs N-body simulation.
pub struct NBody {
    n: usize,
    steps: usize,
    pos: Vec<f64>,
    vel: Vec<f64>,
    force: Vec<f64>,
    expected_pos: Vec<f64>,
}

impl NBody {
    /// `scale` multiplies the particle count (scale 1 ≈ 256 particles).
    pub fn new(scale: usize) -> Self {
        let n = 256 * scale.clamp(1, 16);
        let mut me = Self {
            n,
            steps: 2,
            pos: Self::initial(n),
            vel: vec![0.0; 3 * n],
            force: vec![0.0; 3 * n],
            expected_pos: vec![],
        };
        me.recompute_reference();
        me
    }

    /// Change the timestep count (benchmarking knob).
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = steps.max(1);
        self.recompute_reference();
        self
    }

    /// Serial reference.
    fn recompute_reference(&mut self) {
        let n = self.n;
        let mut epos = Self::initial(n);
        let mut evel = vec![0.0; 3 * n];
        let mut ef = vec![0.0; 3 * n];
        for _ in 0..self.steps {
            ef.iter_mut().for_each(|f| *f = 0.0);
            let snapshot = epos.clone();
            nbody_block_forces(&mut ef, &snapshot, &snapshot, n, n, SOFTENING);
            for i in 0..3 * n {
                evel[i] += DT * ef[i];
                epos[i] += DT * evel[i];
            }
        }
        self.expected_pos = epos;
    }

    fn initial(n: usize) -> Vec<f64> {
        (0..3 * n).map(|i| hash_f64(i) * 10.0 - 5.0).collect()
    }
}

/// Spawn one N-body timestep: snapshot, zero+accumulate forces,
/// integrate. Shared between the pipelined driver ([`Workload::run`])
/// and the record/replay driver ([`IterativeWorkload::run_replay_report`]).
fn spawn_step(
    ctx: &TaskCtx,
    pos: SendPtr<f64>,
    vel: SendPtr<f64>,
    frc: SendPtr<f64>,
    snp: SendPtr<f64>,
    bs: usize,
    nb: usize,
) {
    let blk = |base: SendPtr<f64>, b: usize| unsafe { base.add(3 * b * bs) };
    // Snapshot tasks: copy pos block → snapshot block.
    for b in 0..nb {
        let (p, s) = (blk(pos, b), blk(snp, b));
        ctx.spawn_labeled(
            "snap",
            Deps::new().read_addr(p.addr()).write_addr(s.addr()),
            move |_| unsafe {
                core::ptr::copy_nonoverlapping(p.get(), s.get(), 3 * bs);
            },
        );
    }
    // Force tasks: zero then accumulate per source block.
    for i in 0..nb {
        let f = blk(frc, i);
        ctx.spawn_labeled("zero", Deps::new().write_addr(f.addr()), move |_| unsafe {
            core::ptr::write_bytes(f.get(), 0, 3 * bs);
        });
        for j in 0..nb {
            let sj = blk(snp, j);
            let si = blk(snp, i);
            // The kernel reads both the target block's positions (i) and
            // the source block's (j).
            let mut deps = Deps::new().readwrite_addr(f.addr()).read_addr(sj.addr());
            if i != j {
                deps = deps.read_addr(si.addr());
            }
            ctx.spawn_labeled("force", deps, move |_| unsafe {
                let fs = core::slice::from_raw_parts_mut(f.get(), 3 * bs);
                let pi = core::slice::from_raw_parts(si.get(), 3 * bs);
                let pj = core::slice::from_raw_parts(sj.get(), 3 * bs);
                nbody_block_forces(fs, pi, pj, bs, bs, SOFTENING);
            });
        }
    }
    // Integration tasks.
    for b in 0..nb {
        let (p, v, f) = (blk(pos, b), blk(vel, b), blk(frc, b));
        ctx.spawn_labeled(
            "integrate",
            Deps::new()
                .readwrite_addr(p.addr())
                .readwrite_addr(v.addr())
                .read_addr(f.addr()),
            move |_| unsafe {
                for k in 0..3 * bs {
                    let fv = *f.get().add(k);
                    let vp = v.get().add(k);
                    *vp += DT * fv;
                    *p.get().add(k) += DT * *vp;
                }
            },
        );
    }
}

impl Workload for NBody {
    fn name(&self) -> &'static str {
        "NBody"
    }

    fn block_sizes(&self) -> Vec<usize> {
        let mut v = Vec::new();
        let mut bs = 16;
        while bs <= self.n {
            v.push(bs);
            bs *= 2;
        }
        v
    }

    fn run(&mut self, rt: &Runtime, bs: usize) -> u64 {
        let bs = bs.clamp(1, self.n);
        assert_eq!(self.n % bs, 0);
        self.pos = Self::initial(self.n);
        self.vel.iter_mut().for_each(|v| *v = 0.0);
        let n = self.n;
        let nb = n / bs;
        let steps = self.steps;
        // Double-buffer positions so force tasks read a stable snapshot.
        let mut snap = self.pos.clone();
        {
            let pos = SendPtr::new(self.pos.as_mut_ptr());
            let vel = SendPtr::new(self.vel.as_mut_ptr());
            let frc = SendPtr::new(self.force.as_mut_ptr());
            let snp = SendPtr::new(snap.as_mut_ptr());
            rt.run(move |ctx| {
                for _ in 0..steps {
                    spawn_step(ctx, pos, vel, frc, snp, bs, nb);
                }
            });
        }
        (20 * self.n as u64 * self.n as u64 * self.steps as u64).max(1)
    }

    fn ops_per_task(&self, bs: usize) -> u64 {
        20 * (bs as u64).pow(2)
    }

    fn verify(&self) -> Result<(), String> {
        for (i, (got, want)) in self.pos.iter().zip(&self.expected_pos).enumerate() {
            if (got - want).abs() > 1e-6 * want.abs().max(1.0) {
                return Err(format!("pos[{i}] = {got}, expected {want}"));
            }
        }
        Ok(())
    }
}

impl IterativeWorkload for NBody {
    fn iterations(&self) -> usize {
        self.steps
    }

    fn set_iterations(&mut self, iters: usize) {
        self.steps = iters.max(1);
        self.recompute_reference();
    }

    fn run_replay_report(&mut self, rt: &Runtime, bs: usize) -> nanotask_replay::ReplayReport {
        let bs = bs.clamp(1, self.n);
        assert_eq!(self.n % bs, 0);
        self.pos = Self::initial(self.n);
        self.vel.iter_mut().for_each(|v| *v = 0.0);
        let nb = self.n / bs;
        let mut snap = self.pos.clone();
        let pos = SendPtr::new(self.pos.as_mut_ptr());
        let vel = SendPtr::new(self.vel.as_mut_ptr());
        let frc = SendPtr::new(self.force.as_mut_ptr());
        let snp = SendPtr::new(snap.as_mut_ptr());
        rt.run_iterative(self.steps, move |ctx| {
            spawn_step(ctx, pos, vel, frc, snp, bs, nb);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanotask_core::RuntimeConfig;

    #[test]
    fn replay_matches_serial_reference() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = NBody::new(1);
        for bs in [32, 128] {
            w.run_replay_report(&rt, bs);
            w.verify().unwrap_or_else(|e| panic!("replay bs={bs}: {e}"));
        }
    }

    #[test]
    fn replay_with_more_steps_still_verifies() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = NBody::new(1).with_steps(4);
        w.run_replay_report(&rt, 64);
        w.verify().unwrap();
    }

    #[test]
    fn matches_serial_reference() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = NBody::new(1);
        for bs in [32, 64, 128, 256] {
            w.run(&rt, bs);
            w.verify().unwrap_or_else(|e| panic!("bs={bs}: {e}"));
        }
    }

    #[test]
    fn forces_reset_between_steps() {
        // Two runs with different granularity must agree: stale forces
        // from a previous step/run would break this.
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        let mut w = NBody::new(1);
        w.run(&rt, 64);
        let first = w.pos.clone();
        w.run(&rt, 128);
        for (a, b) in first.iter().zip(&w.pos) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
