//! The parent: starts one fresh child process per trial, never two at a
//! time, and turns their result lines into the run's metrics.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{CHILD_TIMEOUT_S, END_TO_END, PER_LAYER, TRACED_TRIALS, TRIALS};
use crate::stats::{iqr_rel, median, percentile};

const RESULTS_DIR: &str = "benchmark/results";

pub struct TrialSpec<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub trial: usize,
    pub budget: Duration,
    pub traced: bool,
    pub inject_fail: bool,
}

fn span_file(workload: &str) -> String {
    format!("{RESULTS_DIR}/spans-{workload}.jsonl")
}

/// Run `perf_ledger <args>` as a child and parse the JSON object on the
/// last line of its standard output. A child that crashes, prints no
/// result or outlives the timeout is an `Err`.
fn child_json(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    // Result lines are a few KB, well under a pipe's capacity, so the
    // child never blocks on us and polling for its exit is enough.
    let deadline = Instant::now() + Duration::from_secs(CHILD_TIMEOUT_S);
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "child {args:?} timed out after {CHILD_TIMEOUT_S} s"
                ));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("cannot wait for child: {e}"));
            }
        }
    };
    let mut text = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut text)
            .map_err(|e| format!("cannot read the child's output: {e}"))?;
    }
    if !status.success() {
        return Err(format!("child {args:?} exited with {status}"));
    }
    let line = text.lines().last().unwrap_or_default();
    Json::parse(line).map_err(|e| format!("child {args:?} printed no result line: {e}"))
}

pub fn run_trial(spec: &TrialSpec) -> Result<Json, String> {
    let mut args = vec![
        "--child".to_string(),
        spec.workload.to_string(),
        "--seed".to_string(),
        spec.seed.to_string(),
        "--trial".to_string(),
        spec.trial.to_string(),
        "--budget-ms".to_string(),
        spec.budget.as_millis().to_string(),
    ];
    if spec.traced {
        args.extend(["--span-file".to_string(), span_file(spec.workload)]);
    }
    if spec.inject_fail {
        args.push("--inject-fail".to_string());
    }
    child_json(&args)
}

pub fn run_probes() -> Result<Json, String> {
    child_json(&["--child-probes".to_string()])
}

/// The trials of one workload's run and the errors of children that
/// crashed or timed out.
#[derive(Default)]
pub struct Run {
    pub trials: Vec<Json>,
    pub errors: Vec<String>,
}

impl Run {
    pub fn push(&mut self, outcome: Result<Json, String>) {
        match outcome {
            Ok(t) => self.trials.push(t),
            Err(e) => {
                eprintln!("perf_ledger: {e}");
                self.errors.push(e);
            }
        }
    }

    /// Tasks attempted and failed over all trials. A crashed or timed-out
    /// child counts as a trial's worth of tasks, all failed.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let per_trial: Vec<f64> = self.trials.iter().map(|t| t.num_at("attempted")).collect();
        let lost = (median(&per_trial) as u64).max(1) * self.errors.len() as u64;
        let sum = |key: &str| self.trials.iter().map(|t| t.num_at(key)).sum::<f64>() as u64;
        (sum("attempted") + lost, sum("failed") + lost)
    }

    fn per_trial(&self, value: impl Fn(&Json) -> f64) -> Vec<f64> {
        self.trials.iter().map(value).collect()
    }

    /// Per end-to-end metric: one value per trial. Timing metrics use the
    /// trial's median rep.
    pub fn end_to_end_trial_values(&self, metric: &str) -> Vec<f64> {
        self.per_trial(|t| {
            let tasks = t.num_at("tasks_per_rep");
            match metric {
                "setup_s" => t.num_at("setup_s"),
                "tasks_per_s" => tasks / median(&t.nums_at("rep_s")),
                "cpu_us_per_task" => {
                    1e6 * t.num_at("cpu_s") / (tasks * t.nums_at("rep_s").len() as f64)
                }
                "peak_rss_mb" => t.num_at("peak_rss_mb"),
                other => unreachable!("{other} is not an end-to-end metric"),
            }
        })
    }

    /// The run's value of an end-to-end metric: the median over trials of
    /// the trial's own median. A trial that landed in a slow regime moves
    /// one input of the outer median, not the result.
    ///
    /// `peak_rss_mb` is the exception: it reports the smallest peak any
    /// trial needed. How far the spawner runs ahead of the workers differs
    /// from process to process (994 to 16 074 live tasks on `heat_deps`),
    /// and with it the peak, by a factor of three; the floor repeats.
    pub fn end_to_end(&self, metric: &str) -> f64 {
        let trials = self.end_to_end_trial_values(metric);
        match metric {
            "peak_rss_mb" => trials.iter().copied().reduce(f64::min).unwrap_or(0.0),
            _ => median(&trials),
        }
    }
}

pub fn budget_per_trial(seconds: u32, trials: usize) -> Duration {
    Duration::from_secs_f64(f64::from(seconds) / trials as f64)
}

/// One end-to-end run: `TRIALS` untraced trials.
pub fn run_end_to_end(workload: &str, seed: u64, seconds: u32, inject_fail: bool) -> Run {
    let mut run = Run::default();
    for trial in 0..TRIALS {
        run.push(run_trial(&TrialSpec {
            workload,
            seed,
            trial,
            budget: budget_per_trial(seconds, TRIALS),
            traced: false,
            inject_fail,
        }));
    }
    run
}

/// One traced pass: the probes, then `TRACED_TRIALS` traced trials
/// interleaved with as many untraced ones (the reference the tracing
/// overhead is taken against).
pub struct TracedPass {
    pub traced: Run,
    pub reference: Run,
    pub probes: Result<Json, String>,
}

pub fn run_traced(workload: &str, seed: u64, seconds: u32) -> TracedPass {
    // The probes take about a fifth of the pass; the trials share the rest.
    let budget = budget_per_trial(seconds, 2 * TRACED_TRIALS).mul_f64(0.8);
    let _ = std::fs::create_dir_all(RESULTS_DIR);
    let _ = std::fs::remove_file(span_file(workload));
    let mut pass = TracedPass {
        traced: Run::default(),
        reference: Run::default(),
        probes: run_probes(),
    };
    for trial in 0..TRACED_TRIALS {
        for traced in [true, false] {
            let outcome = run_trial(&TrialSpec {
                workload,
                seed,
                trial,
                budget,
                traced,
                inject_fail: false,
            });
            match traced {
                true => pass.traced.push(outcome),
                false => pass.reference.push(outcome),
            }
        }
    }
    pass
}

impl TracedPass {
    /// Every per-layer metric, in table order. In-situ values are medians
    /// over the traced trials; what a workload does not exercise reads 0.
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        let reference_reps: Vec<f64> = self
            .reference
            .trials
            .iter()
            .flat_map(|t| t.nums_at("rep_s"))
            .map(|s| s * 1e3)
            .collect();
        let trial_medians = self.reference.per_trial(|t| median(&t.nums_at("rep_s")));
        let run_median = median(&trial_medians);
        let share = |pick: &dyn Fn(f64) -> bool| {
            trial_medians.iter().filter(|&&m| pick(m)).count() as f64
                / trial_medians.len().max(1) as f64
        };
        let traced_tps = self.traced.end_to_end("tasks_per_s");
        let reference_tps = self.reference.end_to_end("tasks_per_s");
        PER_LAYER
            .iter()
            .map(|m| {
                let in_situ = || {
                    median(
                        &self
                            .traced
                            .per_trial(|t| t.get("layer").map_or(0.0, |l| l.num_at(m.name))),
                    )
                };
                let value = match m.name {
                    "runtime.new_ms" => median(&self.reference.per_trial(|t| t.num_at("new_ms"))),
                    "harness.rep_ms_p50" => median(&reference_reps),
                    "harness.rep_ms_p90" => percentile(&reference_reps, 90.0),
                    "harness.trial_iqr_rel" => iqr_rel(&trial_medians),
                    "harness.slow_trial_share" => share(&|m| m > 1.5 * run_median),
                    "harness.fast_trial_share" => share(&|m| m < 0.67 * run_median),
                    "harness.trace_overhead_share" if reference_tps > 0.0 => {
                        1.0 - traced_tps / reference_tps
                    }
                    name => match &self.probes {
                        Ok(p) if p.get(name).is_some() => p.num_at(name),
                        _ => in_situ(),
                    },
                };
                (m.name, value)
            })
            .collect()
    }

    pub fn attempted_failed(&self) -> (u64, u64) {
        let (a1, f1) = self.traced.attempted_failed();
        let (a2, f2) = self.reference.attempted_failed();
        // A probe child that died measured nothing: one failed attempt.
        let probes_lost = u64::from(self.probes.is_err());
        (a1 + a2 + probes_lost, f1 + f2 + probes_lost)
    }
}

pub fn metrics_json(values: &[(&'static str, f64)]) -> Json {
    let unit = |name: &str| {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    };
    Json::obj(values.iter().map(|&(name, value)| {
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit(name).into())),
            ]),
        )
    }))
}

/// The line the driver reads: the last line of standard output.
pub fn result_line(attempted: u64, failed: u64, values: &[(&'static str, f64)]) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json(values)),
    ])
    .render()
}

pub fn end_to_end_values(run: &Run) -> Vec<(&'static str, f64)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, run.end_to_end(m.name)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(rep_s: &[f64], setup_s: f64) -> Json {
        Json::obj([
            ("tasks_per_rep", Json::Num(1000.0)),
            ("rep_s", Json::nums(rep_s)),
            ("cpu_s", Json::Num(2.0 * rep_s.iter().sum::<f64>())),
            ("setup_s", Json::Num(setup_s)),
            ("peak_rss_mb", Json::Num(10.0)),
            ("attempted", Json::Num(5000.0)),
            ("failed", Json::Num(0.0)),
        ])
    }

    #[test]
    fn a_run_reports_the_median_of_trial_medians() {
        let mut run = Run::default();
        run.push(Ok(trial(&[0.010, 0.011, 0.0105, 0.030], 0.2))); // median 0.01075
        run.push(Ok(trial(&[0.0102, 0.0104, 0.0103], 0.3))); // median 0.0103
        run.push(Ok(trial(&[0.020, 0.021, 0.019], 0.9))); // the slow-regime process
        assert!((run.end_to_end("tasks_per_s") - 1000.0 / 0.01075).abs() < 1e-6);
        assert_eq!(run.end_to_end("setup_s"), 0.3);
        assert_eq!(run.end_to_end("peak_rss_mb"), 10.0);
        // 2 CPU-seconds per wall second, 1000 tasks per rep: 20.6, 30.75, 40 us
        assert!((run.end_to_end("cpu_us_per_task") - 30.75).abs() < 1e-9);
        assert_eq!(run.attempted_failed(), (15_000, 0));
    }

    #[test]
    fn a_lost_child_counts_as_a_trial_of_failed_tasks() {
        let mut run = Run::default();
        run.push(Ok(trial(&[0.01], 0.1)));
        run.push(Err("child timed out".into()));
        assert_eq!(run.attempted_failed(), (10_000, 5_000));
        let line = result_line(10_000, 5_000, &end_to_end_values(&run));
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(false)));
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
            panic!("metrics must be an object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
    }
}
