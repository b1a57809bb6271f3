//! HPCCG — §6.1 benchmark (3): "a taskified HPCCG with several kernels
//! using task reductions and multi-dependencies".
//!
//! A conjugate-gradient solve on the banded sparse matrix HPCCG uses
//! (27-point-stencil structure). Each iteration is a pipeline of blocked
//! kernels wired purely through data dependencies — no barriers:
//!
//! * `spmv`: `q[b] = A·p` — *multi-dependency* on the neighbouring `p`
//!   blocks the band reaches;
//! * dot products `p·q` and `r·r` as task reductions;
//! * scalar tasks computing α and β (reads on the reduced scalars);
//! * `axpy` updates of `x`, `r` and `p`.

use nanotask_core::{Deps, RedOp, Runtime, SendPtr, TaskCtx};
use nanotask_replay::RunIterative;

use crate::kernels::{hash_f64, spmv_banded};
use crate::{IterativeWorkload, Workload};

/// Taskified CG on a banded SPD system.
pub struct Hpccg {
    n: usize,
    iters: usize,
    bands: Vec<usize>,
    diag: f64,
    b: Vec<f64>,
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    q: Vec<f64>,
    scalars: Box<Scalars>,
    expected_x: Vec<f64>,
}

/// Reduction / scalar targets (kept together on the heap so addresses
/// are stable across `run` calls).
#[derive(Default)]
struct Scalars {
    rtrans: f64,
    pq: f64,
    alpha: f64,
    beta: f64,
    old_rtrans: f64,
}

impl Hpccg {
    /// `scale` multiplies the unknown count (scale 1 ≈ 4096 rows).
    pub fn new(scale: usize) -> Self {
        let n = 4096 * scale.clamp(1, 64);
        let iters = 4;
        // Banded SPD matrix: strong diagonal, unit off-diagonals at the
        // stencil bands (HPCCG's structure collapsed to 1-D index space).
        let bands = vec![1, 16, 17];
        let diag = 27.0;
        let b: Vec<f64> = (0..n).map(hash_f64).collect();
        let mut me = Self {
            n,
            iters,
            bands,
            diag,
            b,
            x: vec![0.0; n],
            r: vec![0.0; n],
            p: vec![0.0; n],
            q: vec![0.0; n],
            scalars: Box::new(Scalars::default()),
            expected_x: vec![],
        };
        me.expected_x = me.serial_reference();
        me
    }

    /// Change the CG iteration count (benchmarking knob).
    pub fn with_iters(mut self, iters: usize) -> Self {
        self.iters = iters.max(1);
        self.expected_x = self.serial_reference();
        self
    }

    /// Serial CG with identical arithmetic, for verification.
    fn serial_reference(&self) -> Vec<f64> {
        let n = self.n;
        let mut x = vec![0.0; n];
        let mut r = self.b.clone();
        let mut p = r.clone();
        let mut q = vec![0.0; n];
        let mut rtrans: f64 = r.iter().map(|v| v * v).sum();
        for _ in 0..self.iters {
            spmv_banded(&mut q, &p, 0, n, n, &self.bands, self.diag);
            let pq: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
            let alpha = rtrans / pq;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * q[i];
            }
            let old = rtrans;
            rtrans = r.iter().map(|v| v * v).sum();
            let beta = rtrans / old;
            for i in 0..n {
                p[i] = r[i] + beta * p[i];
            }
        }
        x
    }
}

/// Pointer bundle for the CG task spawners (`Copy`, moved into task
/// closures wholesale).
#[derive(Clone, Copy)]
struct CgPtrs {
    x: SendPtr<f64>,
    r: SendPtr<f64>,
    p: SendPtr<f64>,
    q: SendPtr<f64>,
    rtrans: SendPtr<f64>,
    pq: SendPtr<f64>,
    alpha: SendPtr<f64>,
    beta: SendPtr<f64>,
    old_rt: SendPtr<f64>,
}

/// Block `bidx` of a vector.
fn blk(base: SendPtr<f64>, bidx: usize, bs: usize) -> SendPtr<f64> {
    unsafe { base.add(bidx * bs) }
}

/// Spawn the prologue reduction `rtrans = r·r`.
fn spawn_initial_rtrans(ctx: &TaskCtx, cg: CgPtrs, bs: usize, nb: usize) {
    for bi in 0..nb {
        let rb = blk(cg.r, bi, bs);
        let rtrans = cg.rtrans;
        ctx.spawn_labeled(
            "dot_rr",
            Deps::new()
                .read_addr(rb.addr())
                .reduce_addr(rtrans.addr(), 8, RedOp::SumF64),
            move |c| unsafe {
                let v = core::slice::from_raw_parts(rb.get(), bs);
                *c.red_slot(&*(rtrans.addr() as *const f64)) +=
                    v.iter().map(|a| a * a).sum::<f64>();
            },
        );
    }
}

/// Spawn one full CG iteration: spmv, dot reductions, α/β scalar tasks
/// and axpy updates, wired purely through data dependencies. Shared
/// between the pipelined driver ([`Workload::run`]) and the
/// record/replay driver ([`IterativeWorkload::run_replay_report`]).
fn spawn_cg_iteration(
    ctx: &TaskCtx,
    cg: CgPtrs,
    bands: &[usize],
    diag: f64,
    bs: usize,
    nb: usize,
    n: usize,
) {
    let CgPtrs {
        x,
        r,
        p,
        q,
        rtrans,
        pq,
        alpha,
        beta,
        old_rt,
    } = cg;
    // q = A·p: multi-dependency on the p blocks the bands touch.
    let max_band = *bands.iter().max().unwrap_or(&0);
    let reach = max_band.div_ceil(bs);
    for bi in 0..nb {
        let qb = blk(q, bi, bs);
        let mut deps = Deps::new().write_addr(qb.addr());
        let lo = bi.saturating_sub(reach);
        let hi = (bi + reach).min(nb - 1);
        for nbi in lo..=hi {
            deps = deps.read_addr(blk(p, nbi, bs).addr());
        }
        let bands = bands.to_vec();
        ctx.spawn_labeled("spmv", deps, move |_| unsafe {
            let pall = core::slice::from_raw_parts(p.get(), n);
            let qall = core::slice::from_raw_parts_mut(q.get(), n);
            spmv_banded(qall, pall, bi * bs, bs, n, &bands, diag);
        });
    }
    // pq = p·q (reduction).
    for bi in 0..nb {
        let (pb, qb) = (blk(p, bi, bs), blk(q, bi, bs));
        ctx.spawn_labeled(
            "dot_pq",
            Deps::new()
                .read_addr(pb.addr())
                .read_addr(qb.addr())
                .reduce_addr(pq.addr(), 8, RedOp::SumF64),
            move |c| unsafe {
                let pv = core::slice::from_raw_parts(pb.get(), bs);
                let qv = core::slice::from_raw_parts(qb.get(), bs);
                *c.red_slot(&*(pq.addr() as *const f64)) +=
                    pv.iter().zip(qv).map(|(a, b)| a * b).sum::<f64>();
            },
        );
    }
    // alpha = rtrans / pq; stash old rtrans; reset for re-reduce.
    ctx.spawn_labeled(
        "alpha",
        Deps::new()
            .readwrite_addr(rtrans.addr())
            .readwrite_addr(pq.addr())
            .write_addr(alpha.addr())
            .write_addr(old_rt.addr()),
        move |_| unsafe {
            *alpha.get() = *rtrans.get() / *pq.get();
            *old_rt.get() = *rtrans.get();
            *rtrans.get() = 0.0;
            *pq.get() = 0.0;
        },
    );
    // x += alpha p; r -= alpha q; then reduce new rtrans.
    for bi in 0..nb {
        let (xb, rb, pb, qb) = (
            blk(x, bi, bs),
            blk(r, bi, bs),
            blk(p, bi, bs),
            blk(q, bi, bs),
        );
        ctx.spawn_labeled(
            "axpy",
            Deps::new()
                .readwrite_addr(xb.addr())
                .readwrite_addr(rb.addr())
                .read_addr(pb.addr())
                .read_addr(qb.addr())
                .read_addr(alpha.addr()),
            move |_| unsafe {
                let a = *alpha.get();
                for k in 0..bs {
                    *xb.get().add(k) += a * *pb.get().add(k);
                    *rb.get().add(k) -= a * *qb.get().add(k);
                }
            },
        );
        ctx.spawn_labeled(
            "dot_rr",
            Deps::new()
                .read_addr(rb.addr())
                .reduce_addr(rtrans.addr(), 8, RedOp::SumF64),
            move |c| unsafe {
                let v = core::slice::from_raw_parts(rb.get(), bs);
                *c.red_slot(&*(rtrans.addr() as *const f64)) +=
                    v.iter().map(|a| a * a).sum::<f64>();
            },
        );
    }
    // beta = rtrans / old_rtrans.
    ctx.spawn_labeled(
        "beta",
        Deps::new()
            .read_addr(rtrans.addr())
            .read_addr(old_rt.addr())
            .write_addr(beta.addr()),
        move |_| unsafe {
            *beta.get() = *rtrans.get() / *old_rt.get();
        },
    );
    // p = r + beta p.
    for bi in 0..nb {
        let (pb, rb) = (blk(p, bi, bs), blk(r, bi, bs));
        ctx.spawn_labeled(
            "update_p",
            Deps::new()
                .readwrite_addr(pb.addr())
                .read_addr(rb.addr())
                .read_addr(beta.addr()),
            move |_| unsafe {
                let be = *beta.get();
                for k in 0..bs {
                    let pk = pb.get().add(k);
                    *pk = *rb.get().add(k) + be * *pk;
                }
            },
        );
    }
}

impl Hpccg {
    /// Reset vectors/scalars and build the pointer bundle for a run.
    fn prepare(&mut self) -> CgPtrs {
        self.x.iter_mut().for_each(|v| *v = 0.0);
        self.r.copy_from_slice(&self.b);
        self.p.copy_from_slice(&self.b);
        self.q.iter_mut().for_each(|v| *v = 0.0);
        *self.scalars = Scalars::default();
        let s = &mut *self.scalars;
        CgPtrs {
            x: SendPtr::new(self.x.as_mut_ptr()),
            r: SendPtr::new(self.r.as_mut_ptr()),
            p: SendPtr::new(self.p.as_mut_ptr()),
            q: SendPtr::new(self.q.as_mut_ptr()),
            rtrans: SendPtr::new(&mut s.rtrans as *mut f64),
            pq: SendPtr::new(&mut s.pq as *mut f64),
            alpha: SendPtr::new(&mut s.alpha as *mut f64),
            beta: SendPtr::new(&mut s.beta as *mut f64),
            old_rt: SendPtr::new(&mut s.old_rtrans as *mut f64),
        }
    }
}

impl Workload for Hpccg {
    fn name(&self) -> &'static str {
        "HPCCG"
    }

    fn block_sizes(&self) -> Vec<usize> {
        let mut v = Vec::new();
        let mut bs = 64;
        while bs <= self.n {
            v.push(bs);
            bs *= 4;
        }
        v
    }

    fn run(&mut self, rt: &Runtime, bs: usize) -> u64 {
        let bs = bs.clamp(1, self.n);
        assert_eq!(self.n % bs, 0);
        let n = self.n;
        let nb = n / bs;
        let iters = self.iters;
        let bands = self.bands.clone();
        let diag = self.diag;
        let cg = self.prepare();
        rt.run(move |ctx| {
            spawn_initial_rtrans(ctx, cg, bs, nb);
            for _ in 0..iters {
                spawn_cg_iteration(ctx, cg, &bands, diag, bs, nb, n);
            }
        });
        // ~ (2*bands + misc) flops per row per iteration.
        (16 * self.n * self.iters) as u64
    }

    fn ops_per_task(&self, bs: usize) -> u64 {
        16 * bs as u64
    }

    fn verify(&self) -> Result<(), String> {
        for (i, (got, want)) in self.x.iter().zip(&self.expected_x).enumerate() {
            if (got - want).abs() > 1e-6 * want.abs().max(1e-9) {
                return Err(format!("x[{i}] = {got}, expected {want}"));
            }
        }
        Ok(())
    }
}

impl IterativeWorkload for Hpccg {
    fn iterations(&self) -> usize {
        self.iters
    }

    fn set_iterations(&mut self, iters: usize) {
        self.iters = iters.max(1);
        self.expected_x = self.serial_reference();
    }

    fn run_replay_report(&mut self, rt: &Runtime, bs: usize) -> nanotask_replay::ReplayReport {
        let bs = bs.clamp(1, self.n);
        assert_eq!(self.n % bs, 0);
        let n = self.n;
        let nb = n / bs;
        let bands = self.bands.clone();
        let diag = self.diag;
        let cg = self.prepare();
        // Prologue (initial rtrans) runs once, outside the iteration body,
        // so every recorded/replayed iteration has identical structure.
        rt.run(move |ctx| spawn_initial_rtrans(ctx, cg, bs, nb));
        rt.run_iterative(self.iters, move |ctx| {
            spawn_cg_iteration(ctx, cg, &bands, diag, bs, nb, n);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanotask_core::RuntimeConfig;

    #[test]
    fn replay_matches_serial_cg() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = Hpccg::new(1);
        for bs in [64, 256, 1024] {
            w.run_replay_report(&rt, bs);
            w.verify().unwrap_or_else(|e| panic!("replay bs={bs}: {e}"));
        }
    }

    #[test]
    fn replay_with_more_iters_still_verifies() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = Hpccg::new(1).with_iters(7);
        w.run_replay_report(&rt, 256);
        w.verify().unwrap();
    }

    #[test]
    fn matches_serial_cg() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = Hpccg::new(1);
        for bs in [64, 256, 1024] {
            w.run(&rt, bs);
            w.verify().unwrap_or_else(|e| panic!("bs={bs}: {e}"));
        }
    }

    #[test]
    fn cg_reduces_residual() {
        let w = Hpccg::new(1);
        // After `iters` iterations the solution must be non-trivial.
        assert!(w.expected_x.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn correct_with_locking_deps() {
        let rt = Runtime::new(RuntimeConfig::without_waitfree_deps().workers(2));
        let mut w = Hpccg::new(1);
        w.run(&rt, 256);
        w.verify().unwrap();
    }
}
