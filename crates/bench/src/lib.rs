//! Benchmark harness regenerating every figure and quantitative claim of
//! the paper's evaluation (§6): `fig03`–`fig11`, the §3.4 in-text
//! scheduler claim (`t34_sched_speedup`) and one design-choice ablation
//! (`ablation_spsc_partitioning`). Tracked numbers come from the
//! `benchmark/` ledger, not from these binaries.
//!
//! Each `fig*` binary prints the same series the corresponding figure
//! plots, as CSV: `benchmark,variant,granularity,block,perf,efficiency`.
//! Absolute numbers depend on the host; the reproduced claim is the
//! *shape* — which variant wins at fine granularities, and where the
//! curves converge.
//!
//! Environment knobs (all optional):
//! * `NANOTASK_WORKERS` — worker threads (default: scaled platform
//!   profile, bounded by host parallelism × 4).
//! * `NANOTASK_SCALE` — problem scale multiplier (default 1 = CI-sized).
//! * `NANOTASK_REPS` — repetitions per point (default 3; the paper uses
//!   a minimum of 5).

use nanotask_core::{Platform, Runtime, RuntimeConfig};
use nanotask_workloads::sweep::{SweepPoint, efficiency, sweep, to_csv};
use nanotask_workloads::workload_by_name;

/// Harness options read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Problem scale (1 = tiny/CI).
    pub scale: usize,
    /// Worker override (None = platform profile scaled to host).
    pub workers: Option<usize>,
    /// Repetitions per sweep point.
    pub reps: usize,
}

impl Opts {
    /// Read `NANOTASK_*` environment variables.
    pub fn from_env() -> Self {
        let get = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<usize>().ok());
        Self {
            scale: get("NANOTASK_SCALE").unwrap_or(1).max(1),
            workers: get("NANOTASK_WORKERS"),
            reps: get("NANOTASK_REPS").unwrap_or(3).max(1),
        }
    }

    /// Workers to use for a platform profile.
    pub fn workers_for(&self, p: Platform) -> usize {
        self.workers
            .unwrap_or_else(|| p.for_host(4).cores)
            .clamp(1, 128)
    }
}

/// Run one figure: `benchmarks × variants` granularity sweeps on a
/// platform profile, printing CSV with efficiency normalized per
/// benchmark across variants (exactly how the paper's plots are scaled).
pub fn run_figure(
    figure: &str,
    platform: Platform,
    benchmarks: &[&str],
    variants: &[RuntimeConfig],
    opts: Opts,
) {
    let workers = opts.workers_for(platform);
    println!(
        "# {figure}: platform={} workers={workers} numa={} scale={} reps={}",
        platform.name, platform.numa_nodes, opts.scale, opts.reps
    );
    println!("# benchmark,variant,ops_per_task,block,perf,efficiency");
    for bench in benchmarks {
        let mut all_points: Vec<Vec<SweepPoint>> = Vec::new();
        let mut labels = Vec::new();
        for cfg in variants {
            let cfg = cfg
                .clone()
                .workers(workers)
                .with_numa_nodes(platform.numa_nodes.min(workers));
            labels.push(cfg.label);
            let rt = Runtime::new(cfg);
            let mut w = workload_by_name(bench, opts.scale)
                .unwrap_or_else(|| panic!("unknown benchmark {bench}"));
            let points = sweep(&mut *w, &rt, opts.reps);
            w.verify()
                .unwrap_or_else(|e| panic!("{bench} verification failed: {e}"));
            all_points.push(points);
        }
        let effs = efficiency(&all_points);
        for ((points, eff), label) in all_points.iter().zip(&effs).zip(&labels) {
            print!("{}", to_csv(bench, label, points, eff));
        }
    }
}

/// Summarize which variant "wins" at the finest granularity of each
/// benchmark — the headline claim of Figures 4–9.
pub fn fine_grain_winner(series: &[(&'static str, Vec<SweepPoint>)]) -> &'static str {
    series
        .iter()
        .max_by(|a, b| {
            let pa = a.1.first().map(|p| p.perf).unwrap_or(0.0);
            let pb = b.1.first().map(|p| p.perf).unwrap_or(0.0);
            pa.total_cmp(&pb)
        })
        .map(|(label, _)| *label)
        .unwrap_or("none")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_defaults() {
        let o = Opts {
            scale: 1,
            workers: None,
            reps: 3,
        };
        let w = o.workers_for(Platform::XEON);
        assert!((1..=48).contains(&w));
        let forced = Opts {
            workers: Some(2),
            ..o
        };
        assert_eq!(forced.workers_for(Platform::ROME), 2);
    }

    #[test]
    fn winner_picks_best_fine_grain_perf() {
        let mk = |perf: f64| {
            vec![SweepPoint {
                block_size: 1,
                ops_per_task: 1,
                work: 1,
                seconds: 1.0,
                perf,
            }]
        };
        let s = vec![("a", mk(10.0)), ("b", mk(30.0)), ("c", mk(20.0))];
        assert_eq!(fine_grain_winner(&s), "b");
    }
}
