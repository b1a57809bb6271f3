//! Design-choice ablation next to `t34_sched_speedup`: how many SPSC add
//! buffers should the delegation scheduler use? §3.1 of the paper: "The
//! number of SPSC queues can be configured from a single one to one per
//! core. [...] In our experiments, we use one SPSC queue and lock per
//! NUMA node." This binary sweeps the partitioning on the
//! scheduler-bound DotProduct workload.

use nanotask_bench::Opts;
use nanotask_core::{Runtime, RuntimeConfig};
use nanotask_workloads::workload_by_name;
use std::time::Instant;

fn measure(cfg: RuntimeConfig, scale: usize, reps: usize) -> f64 {
    let rt = Runtime::new(cfg);
    let mut w = workload_by_name("dotprod", scale).unwrap();
    let bs = w.block_sizes()[0]; // finest tasks: scheduler-bound
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        w.run(&rt, bs);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    w.verify().expect("verify");
    best
}

fn main() {
    let opts = Opts::from_env();
    let workers = opts.workers.unwrap_or(4).max(2);
    println!("# SPSC add-buffer partitioning ablation (dotprod, finest blocks, {workers} workers)");
    println!("# {:<28} {:>12}", "configuration", "seconds");
    for nodes in [1, 2, workers] {
        let cfg = RuntimeConfig::optimized()
            .workers(workers)
            .with_numa_nodes(nodes);
        let t = measure(cfg, opts.scale, opts.reps);
        let what = match nodes {
            1 => "1 buffer (global)".to_string(),
            n if n == workers => format!("{n} buffers (per core)"),
            n => format!("{n} buffers (per NUMA)"),
        };
        println!("  {:<28} {:>12.4}", what, t);
    }
}
