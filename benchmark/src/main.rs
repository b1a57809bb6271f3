//! `perf_ledger`: the repo's one benchmark.
//!
//! ```text
//! perf_ledger                                   every workload, end to end and traced;
//!                                               prints every metric, writes a result file
//! perf_ledger --workload W --seed N --seconds S --trace 0|1
//!                                               one run of one workload (the driver's call)
//! perf_ledger --selfcheck                       two sets of the same code must agree
//! perf_ledger --compare base.json cand.json     verdict per (metric, workload)
//! perf_ledger --emit-benchmark-json             the contract, as committed in BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for the protocol and every metric.

mod adapters;
mod child;
mod host;
mod json;
mod metrics;
mod parent;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use json::Json;
use metrics::{ALTERNATE_SEED, DEFAULT_SEED, RUN_SECONDS, TRIALS, WORKLOADS};

/// `--key value` pairs and bare `--flags`, in any order.
struct Cli(Vec<String>);

impl Cli {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn values(&self, name: &str, n: usize) -> Option<&[String]> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1..at + 1 + n)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values(name, 1).map(|v| v[0].as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }

    fn seconds(&self) -> Result<u32, String> {
        match self.parsed("--seconds", RUN_SECONDS)? {
            s @ 1..=60 => Ok(s),
            s => Err(format!("--seconds {s}: must be 1 to 60")),
        }
    }
}

fn main() -> ExitCode {
    let cli = Cli(std::env::args().skip(1).collect());
    match dispatch(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("perf_ledger: {why}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)`: ran, and the outputs were wrong or a check failed.
fn dispatch(cli: &Cli) -> Result<bool, String> {
    if let Some(workload) = cli.value("--child") {
        let args = child::Args {
            workload: workload.to_string(),
            seed: cli.parsed("--seed", DEFAULT_SEED)?,
            trial: cli.parsed("--trial", 0)?,
            budget: Duration::from_millis(cli.parsed("--budget-ms", 1000)?),
            span_file: cli.value("--span-file").map(str::to_string),
            inject_fail: cli.flag("--inject-fail"),
        };
        println!("{}", child::run_on_deep_stack(args)?.render());
        return Ok(true);
    }
    if cli.flag("--child-probes") {
        let values = probes::run_all()?;
        let doc = Json::obj(values.into_iter().map(|(n, v)| (n, Json::Num(v))));
        println!("{}", doc.render());
        return Ok(true);
    }
    if cli.flag("--emit-benchmark-json") {
        print!("{}", metrics::benchmark_json().render_pretty());
        return Ok(true);
    }
    if let Some(files) = cli.values("--compare", 2) {
        let load = |path: &String| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        };
        return Ok(report::compare(
            &load(&files[0])?,
            &load(&files[1])?,
            report::Mode::Compare,
        ));
    }
    if cli.flag("--selfcheck") {
        return selfcheck(cli.seconds()?);
    }
    match cli.value("--workload") {
        Some(workload) => driver_run(cli, workload),
        None if cli.flag("--workload") => Err("--workload needs a name".into()),
        None => full_run(cli),
    }
}

/// The driver's call: one run of one workload; the result is the last
/// line of standard output.
fn driver_run(cli: &Cli, workload: &str) -> Result<bool, String> {
    if !metrics::is_workload(workload) {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload:?}; one of {names:?}"));
    }
    let seed = cli.parsed("--seed", DEFAULT_SEED)?;
    let seconds = cli.seconds()?;
    let (attempted, failed, values) = match cli.parsed("--trace", 0u8)? {
        0 => {
            let run = parent::run_end_to_end(workload, seed, seconds, cli.flag("--inject-fail"));
            let (attempted, failed) = run.attempted_failed();
            (attempted, failed, parent::end_to_end_values(&run))
        }
        1 => {
            let pass = parent::run_traced(workload, seed, seconds);
            let (attempted, failed) = pass.attempted_failed();
            (attempted, failed, pass.per_layer())
        }
        t => return Err(format!("--trace {t}: must be 0 or 1")),
    };
    println!("{}", parent::result_line(attempted, failed, &values));
    Ok(failed == 0)
}

/// Every workload, end to end and traced: prints every metric by name
/// and writes the result file.
fn full_run(cli: &Cli) -> Result<bool, String> {
    let seed = cli.parsed("--seed", DEFAULT_SEED)?;
    let seconds = cli.seconds()?;
    let out = cli
        .value("--out")
        .unwrap_or("benchmark/results/latest.json");
    let host = report::host_json(seed, seconds)?;
    println!("perf_ledger: host {}", host.render());
    let mut sections = Vec::new();
    let mut failed_total = 0.0;
    for w in &WORKLOADS {
        let run = parent::run_end_to_end(w.name, seed, seconds, cli.flag("--inject-fail"));
        let pass = parent::run_traced(w.name, seed, seconds);
        let section = report::workload_json(&run, Some(&pass));
        report::print_workload(w.name, &section);
        failed_total += section.num_at("failed");
        sections.push((w.name, section));
    }
    let file = report::result_json(host, sections);
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, file.render_pretty()).map_err(|e| format!("{out}: {e}"))?;
    println!("\nperf_ledger: wrote {out}");
    let summary = Json::obj([
        ("workloads", Json::Num(WORKLOADS.len() as f64)),
        ("failed", Json::Num(failed_total)),
        ("result_file", Json::Str(out.into())),
        ("claim", Json::Null),
    ]);
    println!("{}", summary.render());
    Ok(failed_total == 0.0)
}

/// Two complete end-to-end sets of the same code, the second on the
/// alternate seed, their trials interleaved across workloads and sets so
/// that drift of the host hits both alike.
fn selfcheck(seconds: u32) -> Result<bool, String> {
    let seeds = [DEFAULT_SEED, ALTERNATE_SEED];
    let mut runs: Vec<[parent::Run; 2]> = WORKLOADS.iter().map(|_| Default::default()).collect();
    for trial in 0..TRIALS {
        for (w, pair) in WORKLOADS.iter().zip(&mut runs) {
            for (set, run) in pair.iter_mut().enumerate() {
                run.push(parent::run_trial(&parent::TrialSpec {
                    workload: w.name,
                    seed: seeds[set],
                    trial,
                    budget: parent::budget_per_trial(seconds, TRIALS),
                    traced: false,
                    inject_fail: false,
                }));
            }
        }
    }
    let set = |i: usize| -> Result<Json, String> {
        let sections = WORKLOADS
            .iter()
            .zip(&runs)
            .map(|(w, pair)| (w.name, report::workload_json(&pair[i], None)))
            .collect();
        Ok(report::result_json(
            report::host_json(seeds[i], seconds)?,
            sections,
        ))
    };
    let ok = report::compare(&set(0)?, &set(1)?, report::Mode::SameCode);
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}
