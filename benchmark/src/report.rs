//! Result files, the printed tables, and the comparison of two results
//! (`--compare`, `--selfcheck`).

use crate::child::workers_for;
use crate::host;
use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER, TRACED_TRIALS, TRIALS, WORKLOADS};
use crate::parent::{Run, TracedPass};
use crate::stats::{self, iqr_rel};

/// Where and how a result was measured.
pub fn host_json(seed: u64, seconds: u32) -> Result<Json, String> {
    let cpus =
        host::allowed_cpus().map_err(|e| format!("cannot read the CPU affinity mask: {e}"))?;
    let workers = workers_for(cpus.len());
    let num = |v: usize| Json::Num(v as f64);
    Ok(Json::obj([
        ("host_threads", num(cpus.len())),
        ("cpu_model", Json::Str(host::cpu_model())),
        ("workers", num(workers)),
        (
            "pinned_cpus",
            Json::Arr(cpus[..workers].iter().map(|&c| num(c)).collect()),
        ),
        ("git_revision", Json::Str(host::git_revision())),
        ("rustc", Json::Str(host::rustc_version())),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(f64::from(seconds))),
        ("trials", num(TRIALS)),
        ("traced_trials", num(TRACED_TRIALS)),
    ]))
}

/// One workload's section of a result file.
pub fn workload_json(run: &Run, traced: Option<&TracedPass>) -> Json {
    let (mut attempted, mut failed) = run.attempted_failed();
    let end_to_end = Json::obj(END_TO_END.iter().map(|m| {
        let trials = run.end_to_end_trial_values(m.name);
        (
            m.name,
            Json::obj([
                ("value", Json::Num(run.end_to_end(m.name))),
                ("unit", Json::Str(m.unit.into())),
                ("better", Json::Str(m.better.label().into())),
                ("bound", Json::Num(m.bound)),
                ("spread", Json::Num(iqr_rel(&trials))),
                ("trials", Json::nums(&trials)),
            ]),
        )
    }));
    let mut fields = vec![("end_to_end", end_to_end)];
    let strs = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
    let mut errors = run.errors.clone();
    if let Some(pass) = traced {
        let (a, f) = pass.attempted_failed();
        attempted += a;
        failed += f;
        errors.extend(
            pass.traced
                .errors
                .iter()
                .chain(&pass.reference.errors)
                .cloned(),
        );
        errors.extend(pass.probes.as_ref().err().cloned());
        fields.push(("per_layer", crate::parent::metrics_json(&pass.per_layer())));
        fields.push(("traced_trials", Json::Arr(pass.traced.trials.clone())));
        fields.push(("reference_trials", Json::Arr(pass.reference.trials.clone())));
    }
    fields.extend([
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "failed_share",
            Json::Num(failed as f64 / attempted.max(1) as f64),
        ),
        ("errors", strs(&errors)),
        ("trials", Json::Arr(run.trials.clone())),
    ]);
    Json::obj(fields)
}

/// A whole result file. It makes no claim: it is the ruler.
pub fn result_json(host: Json, workloads: Vec<(&str, Json)>) -> Json {
    Json::obj([
        ("schema", Json::Str("perf_ledger/1".into())),
        ("host", host),
        ("workloads", Json::obj(workloads)),
        ("claim", Json::Null),
    ])
}

fn fmt(v: f64) -> String {
    match v.abs() {
        0.0 => "0".into(),
        a if a >= 1e5 => format!("{v:.0}"),
        a if a >= 100.0 => format!("{v:.1}"),
        a if a >= 1.0 => format!("{v:.3}"),
        _ => format!("{v:.4}"),
    }
}

/// Every metric of one workload by name, with unit, direction and bound.
pub fn print_workload(name: &str, section: &Json) {
    println!("\n== {name} ==");
    println!(
        "  attempted {}  failed {}  failed_share {}",
        section.num_at("attempted"),
        section.num_at("failed"),
        section.num_at("failed_share")
    );
    println!(
        "  {:<34} {:>14} {:<8} {:<7} {:>6} {:>8}",
        "end-to-end metric", "value", "unit", "better", "bound", "spread"
    );
    for m in &END_TO_END {
        let Some(v) = section.get("end_to_end").and_then(|e| e.get(m.name)) else {
            continue;
        };
        println!(
            "  {:<34} {:>14} {:<8} {:<7} {:>5.0}% {:>7.2}%",
            m.name,
            fmt(v.num_at("value")),
            m.unit,
            m.better.label(),
            100.0 * m.bound,
            100.0 * v.num_at("spread")
        );
    }
    let Some(layers) = section.get("per_layer") else {
        return;
    };
    println!(
        "  {:<34} {:>14} {:<8} {:<7} moves",
        "per-layer metric", "value", "unit", "better"
    );
    for m in &PER_LAYER {
        let value = layers.get(m.name).map_or(0.0, |v| v.num_at("value"));
        println!(
            "  {:<34} {:>14} {:<8} {:<7} {}",
            m.name,
            fmt(value),
            m.unit,
            m.better.label(),
            m.moves
        );
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--compare base cand`: improved / unchanged / unresolved / regressed;
    /// fails on any regression.
    Compare,
    /// `--selfcheck`: two sets of the same code; fails when a pair differs
    /// by more than the bound in either direction.
    SameCode,
}

/// Print the (metric, workload) table of two result files; returns
/// whether the comparison passes.
pub fn compare(base: &Json, cand: &Json, mode: Mode) -> bool {
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>6} {:>7}  verdict",
        "workload", "metric", "base", "candidate", "diff", "bound", "spread"
    );
    let mut ok = true;
    let mut rows = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let side = |doc: &Json| {
                doc.get("workloads")
                    .and_then(|ws| ws.get(w.name))
                    .and_then(|s| s.get("end_to_end"))
                    .and_then(|e| e.get(m.name))
                    .map(|v| (v.num_at("value"), v.num_at("spread")))
            };
            let (Some((a, spread_a)), Some((b, spread_b))) = (side(base), side(cand)) else {
                continue;
            };
            rows += 1;
            let spread = spread_a.max(spread_b);
            let worse = stats::worsening(a, b, m.better);
            let verdict = match mode {
                Mode::Compare => {
                    let v = stats::verdict(a, b, m.better, m.bound, spread);
                    ok &= v != stats::Verdict::Regressed;
                    v.label()
                }
                Mode::SameCode if worse.abs() <= m.bound => "within bound",
                Mode::SameCode => {
                    ok = false;
                    "EXCEEDS BOUND"
                }
            };
            let signed = match m.better {
                Better::Lower => worse,
                Better::Higher => -worse,
            };
            println!(
                "{:<16} {:<16} {:>14} {:>14} {:>+7.2}% {:>5.0}% {:>6.2}%  {verdict}",
                w.name,
                m.name,
                fmt(a),
                fmt(b),
                100.0 * signed,
                100.0 * m.bound,
                100.0 * spread
            );
        }
        let failed = |doc: &Json| {
            doc.get("workloads")
                .and_then(|ws| ws.get(w.name))
                .map_or(0.0, |s| s.num_at("failed"))
        };
        if failed(base) + failed(cand) > 0.0 {
            println!(
                "{:<16} failed tasks: base {} candidate {}",
                w.name,
                failed(base),
                failed(cand)
            );
            ok = false;
        }
    }
    if rows == 0 {
        println!("no (workload, metric) pair is present in both results");
        ok = false;
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(tasks_per_s: f64, spread: f64, failed: f64) -> Json {
        let metric = Json::obj([
            ("value", Json::Num(tasks_per_s)),
            ("spread", Json::Num(spread)),
        ]);
        let section = Json::obj([
            ("end_to_end", Json::obj([("tasks_per_s", metric)])),
            ("failed", Json::Num(failed)),
        ]);
        result_json(Json::Null, vec![("chains", section)])
    }

    #[test]
    fn compare_fails_only_on_regressions_and_selfcheck_on_any_excess() {
        let base = doc(1000.0, 0.01, 0.0);
        assert!(compare(&base, &doc(1050.0, 0.01, 0.0), Mode::Compare));
        assert!(
            compare(&base, &doc(1300.0, 0.01, 0.0), Mode::Compare),
            "a gain passes"
        );
        assert!(!compare(&base, &doc(800.0, 0.01, 0.0), Mode::Compare));
        assert!(
            !compare(&base, &doc(1300.0, 0.01, 0.0), Mode::SameCode),
            "same code cannot gain 30 %"
        );
        assert!(compare(&base, &doc(1020.0, 0.01, 0.0), Mode::SameCode));
        assert!(
            !compare(&base, &doc(1000.0, 0.01, 3.0), Mode::Compare),
            "failed tasks fail"
        );
        assert!(
            !compare(&base, &Json::Null, Mode::Compare),
            "nothing to compare fails"
        );
    }

    #[test]
    fn result_file_round_trips_and_ends_with_no_claim() {
        let mut run = Run::default();
        run.push(Ok(Json::obj([
            ("tasks_per_rep", Json::Num(10.0)),
            ("rep_s", Json::nums(&[0.5, 0.25, 0.125])),
            ("cpu_s", Json::Num(1.0)),
            ("setup_s", Json::Num(0.1)),
            ("peak_rss_mb", Json::Num(12.5)),
            ("attempted", Json::Num(50.0)),
            ("failed", Json::Num(0.0)),
        ])));
        let file = result_json(Json::Null, vec![("chains", workload_json(&run, None))]);
        let text = file.render_pretty();
        assert_eq!(Json::parse(&text).unwrap(), file);
        assert!(text.trim_end().ends_with("\"claim\": null\n}"));
        let chains = file.get("workloads").unwrap().get("chains").unwrap();
        assert_eq!(chains.num_at("failed_share"), 0.0);
        let tps = chains
            .get("end_to_end")
            .unwrap()
            .get("tasks_per_s")
            .unwrap();
        assert_eq!(tps.num_at("value"), 40.0);
        assert_eq!(tps.nums_at("trials"), vec![40.0]);
    }
}
