//! Blocked Cholesky factorization — §6.1 benchmark (8): "a blocked
//! Cholesky decomposition that is generally compute bound".
//!
//! The classic four-kernel tile algorithm (potrf / trsm / syrk / gemm)
//! whose dependency pattern — diagonal panels fanning out to off-diagonal
//! updates — is the canonical showcase of data-flow task parallelism
//! (the paper's Figure 4, bottom right).

use nanotask_core::{Deps, Runtime, SendPtr, TaskCtx};
use nanotask_replay::RunIterative;

use crate::kernels::{gemm_nt_sub_block, hash_f64, potrf_block, syrk_block, trsm_block};
use crate::{IterativeWorkload, Workload};

/// Blocked Cholesky on a tiled SPD matrix.
pub struct Cholesky {
    n: usize,
    a: Vec<f64>,
    factored: Vec<f64>,
    reference: Vec<f64>,
    last_bs: usize,
    /// Factorizations per `run_replay` call (each iteration re-factors a
    /// fresh copy of A, so every iteration spawns the identical graph).
    iters: usize,
}

impl Cholesky {
    /// `scale` multiplies the matrix dimension (scale 1 ≈ 64×64).
    pub fn new(scale: usize) -> Self {
        let n = 64 * scale.clamp(1, 16);
        // SPD matrix: A = M·Mᵀ/n + n·I.
        let m: Vec<f64> = (0..n * n).map(hash_f64).collect();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..n {
                    s += m[i * n + k] * m[j * n + k];
                }
                let v = s / n as f64 + if i == j { n as f64 } else { 0.0 };
                a[i * n + j] = v;
                a[j * n + i] = v;
            }
        }
        // Serial reference factorization (unblocked).
        let mut reference = a.clone();
        potrf_block(&mut reference, n).expect("reference factorization");
        Self {
            n,
            a,
            factored: vec![],
            reference,
            last_bs: 0,
            iters: 4,
        }
    }

    fn tile(src: &[f64], n: usize, bs: usize) -> Vec<f64> {
        let nb = n / bs;
        let mut out = vec![0.0; n * n];
        for bi in 0..nb {
            for bj in 0..nb {
                let base = (bi * nb + bj) * bs * bs;
                for r in 0..bs {
                    for c in 0..bs {
                        out[base + r * bs + c] = src[(bi * bs + r) * n + bj * bs + c];
                    }
                }
            }
        }
        out
    }

    fn untile(src: &[f64], n: usize, bs: usize) -> Vec<f64> {
        let nb = n / bs;
        let mut out = vec![0.0; n * n];
        for bi in 0..nb {
            for bj in 0..nb {
                let base = (bi * nb + bj) * bs * bs;
                for r in 0..bs {
                    for c in 0..bs {
                        out[(bi * bs + r) * n + bj * bs + c] = src[base + r * bs + c];
                    }
                }
            }
        }
        out
    }
}

/// Spawn the four-kernel tile factorization (potrf / trsm / syrk / gemm)
/// of the `nb × nb` tiled matrix at `pt` (tile-major layout, `bs²`
/// elements per tile). Shared by the one-shot driver ([`Workload::run`])
/// and the record/replay driver ([`IterativeWorkload::run_replay`]).
fn spawn_factorization(ctx: &TaskCtx, pt: SendPtr<f64>, bs: usize, nb: usize) {
    let tile = bs * bs;
    let at = |bi: usize, bj: usize| unsafe { pt.add((bi * nb + bj) * tile) };
    for k in 0..nb {
        let akk = at(k, k);
        ctx.spawn_labeled(
            "potrf",
            Deps::new().readwrite_addr(akk.addr()),
            move |_| unsafe {
                let blk = core::slice::from_raw_parts_mut(akk.get(), tile);
                potrf_block(blk, bs).expect("tile not positive definite");
            },
        );
        for i in (k + 1)..nb {
            let aik = at(i, k);
            ctx.spawn_labeled(
                "trsm",
                Deps::new().read_addr(akk.addr()).readwrite_addr(aik.addr()),
                move |_| unsafe {
                    let l = core::slice::from_raw_parts(akk.get(), tile);
                    let x = core::slice::from_raw_parts_mut(aik.get(), tile);
                    trsm_block(x, l, bs);
                },
            );
        }
        for i in (k + 1)..nb {
            let aik = at(i, k);
            let aii = at(i, i);
            ctx.spawn_labeled(
                "syrk",
                Deps::new().read_addr(aik.addr()).readwrite_addr(aii.addr()),
                move |_| unsafe {
                    let a = core::slice::from_raw_parts(aik.get(), tile);
                    let c = core::slice::from_raw_parts_mut(aii.get(), tile);
                    syrk_block(c, a, bs);
                },
            );
            for j in (k + 1)..i {
                let ajk = at(j, k);
                let aij = at(i, j);
                ctx.spawn_labeled(
                    "gemm",
                    Deps::new()
                        .read_addr(aik.addr())
                        .read_addr(ajk.addr())
                        .readwrite_addr(aij.addr()),
                    move |_| unsafe {
                        let a = core::slice::from_raw_parts(aik.get(), tile);
                        let b = core::slice::from_raw_parts(ajk.get(), tile);
                        let c = core::slice::from_raw_parts_mut(aij.get(), tile);
                        gemm_nt_sub_block(c, a, b, bs);
                    },
                );
            }
        }
    }
}

impl Workload for Cholesky {
    fn name(&self) -> &'static str {
        "Cholesky"
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
        let n = self.n;
        let nb = n / bs;
        let mut t = Self::tile(&self.a, n, bs);
        {
            let pt = SendPtr::new(t.as_mut_ptr());
            rt.run(move |ctx| spawn_factorization(ctx, pt, bs, nb));
        }
        self.factored = Self::untile(&t, n, bs);
        self.last_bs = bs;
        (n as u64).pow(3) / 3
    }

    fn ops_per_task(&self, bs: usize) -> u64 {
        // gemm tiles dominate.
        2 * (bs as u64).pow(3)
    }

    fn verify(&self) -> Result<(), String> {
        // Compare the lower triangle against the serial factorization.
        let n = self.n;
        if self.factored.len() != n * n {
            return Err("not factored yet".into());
        }
        for i in 0..n {
            for j in 0..=i {
                let got = self.factored[i * n + j];
                let want = self.reference[i * n + j];
                if (got - want).abs() > 1e-6 * want.abs().max(1.0) {
                    return Err(format!(
                        "L[{i}][{j}] = {got}, expected {want} (bs {})",
                        self.last_bs
                    ));
                }
            }
        }
        Ok(())
    }
}

impl IterativeWorkload for Cholesky {
    fn iterations(&self) -> usize {
        self.iters
    }

    fn set_iterations(&mut self, iters: usize) {
        // Every iteration factors the same fresh copy of A, so the
        // serial reference needs no recomputation.
        self.iters = iters.max(1);
    }

    fn run_replay(&mut self, rt: &Runtime, bs: usize) -> u64 {
        self.run_replay_report(rt, bs);
        (self.n as u64).pow(3) / 3 * self.iters as u64
    }

    fn run_replay_report(&mut self, rt: &Runtime, bs: usize) -> nanotask_replay::ReplayReport {
        let bs = bs.clamp(1, self.n);
        assert_eq!(self.n % bs, 0);
        let n = self.n;
        let nb = n / bs;
        // Source tiles stay immutable; each iteration re-factors a fresh
        // copy in `work`, so every timestep spawns the identical graph —
        // the pattern of re-factorizing solvers (same sparsity, new
        // values each step).
        let src = Self::tile(&self.a, n, bs);
        let mut work = vec![0.0f64; n * n];
        let report = {
            let ps = SendPtr::new(src.as_ptr() as *mut f64);
            let pw = SendPtr::new(work.as_mut_ptr());
            rt.run_iterative(self.iters, move |ctx| {
                // Root-body reset: runs before any spawn of the
                // iteration, and the previous iteration's subtree has
                // completed (iterations are barriers).
                unsafe { core::ptr::copy_nonoverlapping(ps.get(), pw.get(), n * n) };
                spawn_factorization(ctx, pw, bs, nb);
            })
        };
        self.factored = Self::untile(&work, n, bs);
        self.last_bs = bs;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanotask_core::RuntimeConfig;

    #[test]
    fn factorization_matches_serial_reference() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = Cholesky::new(1);
        for bs in [16, 32, 64] {
            w.run(&rt, bs);
            w.verify().unwrap_or_else(|e| panic!("bs={bs}: {e}"));
        }
    }

    #[test]
    fn correct_without_dtlock() {
        let rt = Runtime::new(RuntimeConfig::without_dtlock().workers(2));
        let mut w = Cholesky::new(1);
        w.run(&rt, 16);
        w.verify().unwrap();
    }

    #[test]
    fn replay_matches_serial_reference() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(3));
        let mut w = Cholesky::new(1);
        w.set_iterations(3);
        for bs in [16, 32] {
            w.run_replay(&rt, bs);
            w.verify().unwrap_or_else(|e| panic!("replay bs={bs}: {e}"));
        }
    }
}
