//! Figure 10: scheduler lock comparison on miniAMR traces.
//!
//! Runs the miniAMR proxy with tracing — once with the wait-free queues +
//! DTLock (upper trace of the figure) and once with the PTLock-protected
//! central scheduler (lower trace) — and prints the quantities the figure
//! visualizes. The paper's khaki "starving" cores show up here in two
//! forms: explicit idle intervals, and *unaccounted* wall-clock (time a
//! worker is stuck spinning in the scheduler lock, which is exactly what
//! the PTLock variant suffers: "adding and getting a ready task requires
//! obtaining a shared lock ... most cores starve").
//!
//! The second section is replay-aware: a traced `run_iterative` of the
//! heat workload is split into its **record** and **replay** phases via
//! the `ReplayRecordBegin/End` / `ReplayIterBegin/End` events
//! (`Timeline::record_vs_replay`), quantifying what the replay subsystem
//! claims — replayed iterations spend a larger fraction of their
//! wall-clock running task bodies because dependency registration and
//! release are gone.

use nanotask_bench::Opts;
use nanotask_core::{Platform, Runtime, RuntimeConfig};
use nanotask_trace::timeline::{PhaseStats, Timeline};
use nanotask_workloads::heat::Heat;
use nanotask_workloads::{Workload, workload_by_name};
use std::time::Instant;

struct Row {
    label: String,
    tasks_per_s: f64,
    run_frac: f64,
    serves: usize,
    drained: u64,
    tl: Timeline,
}

fn run_one(cfg: RuntimeConfig, opts: Opts) -> Row {
    let label = cfg.label.to_string();
    let workers = opts.workers_for(Platform::XEON);
    let rt = Runtime::new(cfg.workers(workers).tracing(true));
    let mut w: Box<dyn Workload> = workload_by_name("miniamr", opts.scale).unwrap();
    let bs = w.block_sizes()[0]; // finest granularity = max scheduler stress
    let t0 = Instant::now();
    for _ in 0..20 {
        w.run(&rt, bs); // repeat to build a statistically useful trace
    }
    let dt = t0.elapsed().as_secs_f64();
    w.verify().expect("miniAMR verification");
    let tl = Timeline::build(&rt.trace());
    let total = tl.total_stats();
    let (s, e) = tl.span();
    let wall = ((e - s).max(1) as f64) * workers as f64;
    Row {
        label,
        tasks_per_s: total.tasks_run as f64 / dt,
        run_frac: total.running_ns as f64 / wall,
        serves: tl.serves().len(),
        drained: tl.drains().iter().map(|&(_, n)| n).sum(),
        tl,
    }
}

fn main() {
    let opts = Opts::from_env();
    println!("# fig10: PTLock vs DTLock scheduler traces (miniAMR, finest blocks, 20 rounds)");
    let rows = [
        run_one(RuntimeConfig::optimized(), opts),
        run_one(RuntimeConfig::without_dtlock(), opts),
    ];
    println!(
        "# {:<28} {:>12} {:>10} {:>8} {:>9}",
        "variant", "tasks/s", "running%", "serves", "drained"
    );
    for r in &rows {
        println!(
            "  {:<28} {:>12.0} {:>9.1}% {:>8} {:>9}",
            r.label,
            r.tasks_per_s,
            100.0 * r.run_frac,
            r.serves,
            r.drained
        );
    }
    println!("# paper's observation: the DTLock version keeps task insertion wait-free and");
    println!("# serves ready tasks to waiters (yellow arrows); the PTLock version serializes");
    println!("# both paths, so cores spend their time fighting for the lock instead of running.");
    for r in &rows {
        println!("\n## timeline: {}", r.label);
        print!("{}", r.tl.render_ascii(100));
    }

    replay_phase_split(opts);
}

/// Replay-aware timeline analysis: split a traced `run_iterative` of the
/// heat workload into record vs replay phases and compare how the cores
/// spend their time in each.
fn replay_phase_split(opts: Opts) {
    let workers = opts.workers_for(Platform::XEON);
    let rt = Runtime::new(RuntimeConfig::optimized().workers(workers).tracing(true));
    let mut heat = Heat::new(opts.scale).with_steps(12);
    let bs = heat.block_sizes()[0]; // finest blocks = most runtime stress
    nanotask_workloads::IterativeWorkload::run_replay_report(&mut heat, &rt, bs);
    heat.verify().expect("heat verification");
    let tl = Timeline::build(&rt.trace());
    println!("\n## record vs replay phase split (heat, 12 timesteps, finest blocks)");
    match tl.record_vs_replay() {
        None => println!("# no phase events in trace (tracing off?)"),
        Some((rec, rep)) => {
            let fmt = |label: &str, p: &PhaseStats| {
                let run_frac = if p.wall_ns == 0 {
                    0.0
                } else {
                    p.stats.running_ns as f64 / (p.wall_ns as f64 * workers as f64)
                };
                println!(
                    "  {label:<8} windows={:<3} mean_window={:>9}ns tasks={:<6} running%={:>5.1} idle%={:>5.1}",
                    p.windows,
                    p.mean_window_ns(),
                    p.stats.tasks_run,
                    100.0 * run_frac,
                    100.0 * p.stats.starvation(),
                );
            };
            fmt("record", &rec);
            fmt("replay", &rep);
            if rec.mean_window_ns() > 0 && rep.mean_window_ns() > 0 {
                println!(
                    "# mean replayed iteration is {:.2}x the mean recorded one (wall-clock)",
                    rec.mean_window_ns() as f64 / rep.mean_window_ns() as f64
                );
            }
            // The first phase windows in time order, as a sanity trail.
            for p in tl.replay_phases().iter().take(6) {
                println!("#   phase={:?} iter={} span={}ns", p.phase, p.iter, p.len());
            }
        }
    }
}
