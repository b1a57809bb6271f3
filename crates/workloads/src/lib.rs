//! Taskified benchmark applications — §6.1 of the paper.
//!
//! "To evaluate the task-based runtimes and check the capability of
//! scaling to more finely partitioned work, we will use the following
//! benchmarks, running constant problem sizes and varying the task
//! granularity":
//!
//! 1. [`dotprod`] — dot product with a task reduction per block.
//! 2. [`heat`] — iterative Gauss–Seidel solving the heat equation on a
//!    blocked 2-D grid, with a task reduction for the residual.
//! 3. [`hpccg`] — a taskified conjugate-gradient solver (HPCCG) with
//!    multi-dependencies and task reductions.
//! 4. [`lulesh`] — a LULESH-2.0-style proxy: multi-phase unstructured
//!    stencil with neighbour dependencies.
//! 5. [`miniamr`] — a miniAMR-style proxy mimicking adaptive mesh
//!    refinement: irregular task counts that change across phases.
//! 6. [`matmul`] — classic blocked matrix multiplication.
//! 7. [`nbody`] — blocked N-body force calculation, mimicking dynamic
//!    particle simulations.
//! 8. [`cholesky`] — blocked Cholesky factorization (potrf/trsm/syrk/gemm
//!    task graph), generally compute-bound.
//!
//! Every workload implements [`Workload`]: it runs on a configured
//! [`Runtime`] at a chosen *block size* (the granularity knob), reports
//! the work done so the harness can compute performance, estimates the
//! paper's x-axis metric (operations per task ≈ instructions per task),
//! and can verify its result against a serial reference.
//!
//! Vendor kernels (Intel MKL / ARM Performance Libraries) are replaced by
//! the hand-written blocked kernels in [`kernels`] — a documented
//! substitution: the kernels only set the per-task cost scale.

pub mod cholesky;
pub mod dotprod;
pub mod heat;
pub mod hpccg;
pub mod kernels;
pub mod lulesh;
pub mod matmul;
pub mod miniamr;
pub mod nbody;
pub mod sweep;

use nanotask_core::Runtime;

/// A benchmark application with a granularity knob.
pub trait Workload {
    /// Short name (matches the paper's figure labels).
    fn name(&self) -> &'static str;

    /// The block sizes (granularity settings) this workload supports,
    /// coarsest last. Each maps to a point on the paper's x-axis.
    fn block_sizes(&self) -> Vec<usize>;

    /// Run once on `rt` with block size `bs`; returns the work done in
    /// abstract operations (used as the numerator of performance).
    fn run(&mut self, rt: &Runtime, bs: usize) -> u64;

    /// Approximate operations per task at block size `bs` — the paper's
    /// "granularity expressed in instructions executed per task".
    fn ops_per_task(&self, bs: usize) -> u64;

    /// Check the result of the last `run` against a serial reference.
    /// Returns `Err(description)` on mismatch.
    fn verify(&self) -> Result<(), String>;
}

/// A workload whose timesteps spawn an identical — or, since the replay
/// engine grew a multi-graph cache, *cyclically phase-alternating* —
/// task graph, so it can be driven through the record & replay
/// subsystem ([`nanotask_replay::RunIterative`]): each distinct graph
/// shape is captured once and replayed with plain atomic in-degree
/// counters afterwards, eliminating per-iteration dependency-system
/// cost. `run_replay` must produce the same result `verify` expects
/// from [`Workload::run`].
pub trait IterativeWorkload: Workload {
    /// Number of timesteps/iterations one run performs.
    fn iterations(&self) -> usize;

    /// Change the iteration count (recomputes the serial reference so
    /// [`Workload::verify`] keeps working).
    fn set_iterations(&mut self, iters: usize);

    /// Run once at block size `bs` via `Runtime::run_iterative`; returns
    /// the same abstract-operation count as [`Workload::run`].
    fn run_replay(&mut self, rt: &Runtime, bs: usize) -> u64;

    /// Like [`IterativeWorkload::run_replay`], but hands back the replay
    /// engine's [`nanotask_replay::ReplayReport`] — the counters the
    /// replay property tests and the `benchmark/` ledger read.
    fn run_replay_report(&mut self, rt: &Runtime, bs: usize) -> nanotask_replay::ReplayReport;
}

/// All eight §6.1 workloads at a given problem scale (1 = tiny CI scale,
/// larger = closer to paper scale).
pub fn all_workloads(scale: usize) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(dotprod::DotProduct::new(scale)),
        Box::new(heat::Heat::new(scale)),
        Box::new(hpccg::Hpccg::new(scale)),
        Box::new(lulesh::Lulesh::new(scale)),
        Box::new(miniamr::MiniAmr::new(scale)),
        Box::new(matmul::Matmul::new(scale)),
        Box::new(nbody::NBody::new(scale)),
        Box::new(cholesky::Cholesky::new(scale)),
    ]
}

/// The replay-capable workloads (those with per-timestep-identical
/// graphs) at a given problem scale.
pub fn iterative_workloads(scale: usize) -> Vec<Box<dyn IterativeWorkload>> {
    vec![
        Box::new(heat::Heat::new(scale)),
        Box::new(hpccg::Hpccg::new(scale)),
        Box::new(nbody::NBody::new(scale)),
        Box::new(miniamr::MiniAmr::new(scale)),
        Box::new(cholesky::Cholesky::new(scale)),
    ]
}

/// Construct a replay-capable workload by its paper name.
pub fn iterative_workload_by_name(name: &str, scale: usize) -> Option<Box<dyn IterativeWorkload>> {
    Some(match name.to_ascii_lowercase().as_str() {
        "heat" | "gauss-seidel" => Box::new(heat::Heat::new(scale)),
        "hpccg" => Box::new(hpccg::Hpccg::new(scale)),
        "nbody" => Box::new(nbody::NBody::new(scale)),
        "miniamr" => Box::new(miniamr::MiniAmr::new(scale)),
        "cholesky" => Box::new(cholesky::Cholesky::new(scale)),
        _ => return None,
    })
}

/// Construct a workload by its paper name.
pub fn workload_by_name(name: &str, scale: usize) -> Option<Box<dyn Workload>> {
    Some(match name.to_ascii_lowercase().as_str() {
        "dotproduct" | "dotprod" | "dot" => Box::new(dotprod::DotProduct::new(scale)),
        "heat" | "gauss-seidel" => Box::new(heat::Heat::new(scale)),
        "hpccg" => Box::new(hpccg::Hpccg::new(scale)),
        "lulesh" => Box::new(lulesh::Lulesh::new(scale)),
        "miniamr" => Box::new(miniamr::MiniAmr::new(scale)),
        "matmul" => Box::new(matmul::Matmul::new(scale)),
        "nbody" => Box::new(nbody::NBody::new(scale)),
        "cholesky" => Box::new(cholesky::Cholesky::new(scale)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanotask_core::RuntimeConfig;

    #[test]
    fn all_workloads_constructible() {
        let ws = all_workloads(1);
        assert_eq!(ws.len(), 8);
        let names: Vec<_> = ws.iter().map(|w| w.name()).collect();
        assert!(names.contains(&"DotProduct"));
        assert!(names.contains(&"Cholesky"));
    }

    #[test]
    fn by_name_lookup() {
        assert!(workload_by_name("matmul", 1).is_some());
        assert!(workload_by_name("MiniAMR", 1).is_some());
        assert!(workload_by_name("nope", 1).is_none());
    }

    #[test]
    fn every_workload_runs_and_verifies_smallest_scale() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        for mut w in all_workloads(1) {
            let sizes = w.block_sizes();
            assert!(!sizes.is_empty(), "{} has block sizes", w.name());
            let bs = sizes[sizes.len() / 2];
            let work = w.run(&rt, bs);
            assert!(work > 0, "{} reports work", w.name());
            assert!(w.ops_per_task(bs) > 0);
            w.verify()
                .unwrap_or_else(|e| panic!("{} verify: {e}", w.name()));
        }
    }
}
