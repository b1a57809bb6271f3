//! Granularity sweep driver and the paper's *efficiency* metric.
//!
//! §6.2: "we use a metric we will refer to as efficiency. It is
//! calculated by dividing the performance of a specific run of a
//! benchmark by the peak performance obtained across all executions.
//! [...] Combining this metric with varying task granularity gives a good
//! view of each runtime version's scalability. The granularity is
//! expressed in instructions executed per task."

use std::time::Instant;

use nanotask_core::Runtime;

use crate::Workload;

/// One measured point of a granularity sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Block size used.
    pub block_size: usize,
    /// Paper x-axis: operations per task (≈ instructions per task).
    pub ops_per_task: u64,
    /// Total abstract operations of the run.
    pub work: u64,
    /// Best wall-clock seconds over the repetitions.
    pub seconds: f64,
    /// Performance = work / seconds (abstract ops per second).
    pub perf: f64,
}

/// Sweep a workload over all of its block sizes on one runtime
/// configuration, repeating each point `reps` times and keeping the best
/// (the paper runs each benchmark "a minimum of five times").
pub fn sweep(w: &mut dyn Workload, rt: &Runtime, reps: usize) -> Vec<SweepPoint> {
    let reps = reps.max(1);
    let mut points = Vec::new();
    for bs in w.block_sizes() {
        let mut best = f64::INFINITY;
        let mut work = 0;
        for _ in 0..reps {
            let t0 = Instant::now();
            work = w.run(rt, bs);
            let dt = t0.elapsed().as_secs_f64();
            if dt < best {
                best = dt;
            }
        }
        let perf = if best > 0.0 { work as f64 / best } else { 0.0 };
        points.push(SweepPoint {
            block_size: bs,
            ops_per_task: w.ops_per_task(bs),
            work,
            seconds: best,
            perf,
        });
    }
    points
}

/// Normalize performances to the peak across *all* provided series —
/// the efficiency metric of §6.2 (0..100, higher is better).
pub fn efficiency(series: &[Vec<SweepPoint>]) -> Vec<Vec<f64>> {
    let peak = series
        .iter()
        .flat_map(|s| s.iter().map(|p| p.perf))
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    series
        .iter()
        .map(|s| s.iter().map(|p| 100.0 * p.perf / peak).collect())
        .collect()
}

/// Format a sweep as CSV rows: `benchmark,variant,granularity,block,perf`.
pub fn to_csv(benchmark: &str, variant: &str, points: &[SweepPoint], eff: &[f64]) -> String {
    let mut out = String::new();
    for (p, e) in points.iter().zip(eff) {
        out.push_str(&format!(
            "{benchmark},{variant},{},{},{:.3},{:.1}\n",
            p.ops_per_task, p.block_size, p.perf, e
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dotprod::DotProduct;
    use nanotask_core::RuntimeConfig;

    #[test]
    fn sweep_produces_one_point_per_block_size() {
        let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
        let mut w = DotProduct::new(1);
        let sizes = w.block_sizes().len();
        let pts = sweep(&mut w, &rt, 1);
        assert_eq!(pts.len(), sizes);
        for p in &pts {
            assert!(p.perf > 0.0);
            assert!(p.seconds > 0.0);
        }
    }

    #[test]
    fn efficiency_peaks_at_100() {
        let series = vec![
            vec![
                SweepPoint {
                    block_size: 1,
                    ops_per_task: 10,
                    work: 100,
                    seconds: 1.0,
                    perf: 100.0,
                },
                SweepPoint {
                    block_size: 2,
                    ops_per_task: 20,
                    work: 100,
                    seconds: 0.5,
                    perf: 200.0,
                },
            ],
            vec![SweepPoint {
                block_size: 1,
                ops_per_task: 10,
                work: 100,
                seconds: 2.0,
                perf: 50.0,
            }],
        ];
        let eff = efficiency(&series);
        assert_eq!(eff[0][1], 100.0);
        assert_eq!(eff[0][0], 50.0);
        assert_eq!(eff[1][0], 25.0);
    }

    #[test]
    fn csv_has_expected_columns() {
        let pts = vec![SweepPoint {
            block_size: 4,
            ops_per_task: 8,
            work: 100,
            seconds: 1.0,
            perf: 100.0,
        }];
        let csv = to_csv("Dot", "optimized", &pts, &[100.0]);
        assert_eq!(csv.trim(), "Dot,optimized,8,4,100.000,100.0");
    }
}
