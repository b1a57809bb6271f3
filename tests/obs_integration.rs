//! Observability end to end: the sampled histograms, the flight
//! recorder and both exporters on a live replayed run, plus the
//! metric-schema table every external reader of `metrics_snapshot()`
//! (dashboards, `benchmark/src/adapters.rs`) depends on.

use std::collections::BTreeSet;
use std::time::Instant;

use nanotask::obs::{perfetto, prometheus};
use nanotask::workloads::iterative_workload_by_name;
use nanotask::{Deps, RunIterative, Runtime, RuntimeConfig};

const WORKERS: usize = 4;

/// Bracket/string balance of a JSON document: every `{`/`[` outside a
/// string closes in order, strings terminate, nothing trails the root.
fn json_is_balanced(s: &str) -> bool {
    let mut stack = Vec::new();
    let mut chars = s.chars();
    let mut closed_root = false;
    while let Some(c) = chars.next() {
        if closed_root {
            return false;
        }
        match c {
            '"' => loop {
                match chars.next() {
                    Some('\\') => drop(chars.next()),
                    Some('"') => break,
                    Some(_) => {}
                    None => return false,
                }
            },
            '{' | '[' => stack.push(c),
            '}' | ']' => {
                let open = if c == '}' { '{' } else { '[' };
                if stack.pop() != Some(open) {
                    return false;
                }
                closed_root = stack.is_empty();
            }
            _ => {}
        }
    }
    closed_root
}

#[test]
fn balance_scanner_rejects_malformed_documents() {
    assert!(json_is_balanced(r#"{"a":[1,{"b":"]}\""}]}"#));
    for bad in [
        r#"{"a":[1}"#,
        r#"{"a":"x}"#,
        r#"{"a":1}}"#,
        r#"{"a":[1]"#,
        "",
    ] {
        assert!(!json_is_balanced(bad), "{bad}");
    }
}

/// One replayed Heat run with every observability layer on.
fn observed_heat_run() -> Runtime {
    let rt = Runtime::new(
        RuntimeConfig::optimized()
            .workers(WORKERS)
            .tracing(true)
            .with_metrics(true)
            .with_metrics_sample(1)
            .with_flight_recorder(256, 64),
    );
    let mut heat = iterative_workload_by_name("heat", 1).expect("heat workload");
    heat.set_iterations(8);
    let bs = heat.block_sizes()[0]; // finest blocks = most counter traffic
    let report = heat.run_replay_report(&rt, bs);
    heat.verify().unwrap();
    report.assert_classification();
    assert!(report.replayed > 0, "{report}");
    rt
}

#[test]
fn gated_histograms_sample_on_a_replayed_run() {
    let snap = observed_heat_run().metrics_snapshot();
    for name in ["nanotask_task_exec_ns", "nanotask_replay_feed_ns"] {
        let h = snap.histogram(name).unwrap_or_else(|| panic!("{name}"));
        assert!(h.count > 0, "metrics on: {name} must sample");
    }
}

#[test]
fn prometheus_dump_of_a_live_snapshot_validates() {
    let snap = observed_heat_run().metrics_snapshot();
    let lines = prometheus::validate(&prometheus::render(&snap)).expect("well-formed exposition");
    assert!(lines > 0, "prometheus dump must contain sample lines");
}

#[test]
fn flight_recorder_captures_frames() {
    assert!(
        !observed_heat_run().flight_frames().is_empty(),
        "flight recorder on (every=256) must have captured frames"
    );
}

#[test]
fn perfetto_export_has_a_span_on_every_worker_track() {
    let rt = observed_heat_run();
    // Heat's dependence chains can stay on few workers; a wide
    // independent fan-out of briefly-spinning bodies keeps each batch in
    // flight long enough for every worker to pick work up (repeat until
    // all tracks are covered).
    let span_on =
        |json: &str, w: usize| json.contains(&format!("{{\"ph\":\"X\",\"pid\":0,\"tid\":{w},"));
    let mut json = String::new();
    for _attempt in 0..32 {
        rt.run(|ctx| {
            for _ in 0..WORKERS * 16 {
                ctx.spawn(Deps::new(), |_| {
                    let t0 = Instant::now();
                    while t0.elapsed().as_micros() < 50 {
                        std::hint::spin_loop();
                    }
                });
            }
        });
        json = perfetto::trace_json(&rt.trace());
        if (0..WORKERS).all(|w| span_on(&json, w)) {
            break;
        }
    }
    assert!(json_is_balanced(&json), "perfetto export is malformed");
    for w in 0..WORKERS {
        assert!(span_on(&json, w), "worker {w} has no complete span");
    }
}

/// Schema stability: metric names and label keys are the wire format of
/// `metrics_snapshot()`. Renaming a metric, dropping a label or
/// registering a new metric must show up here — append or edit the row
/// together with the readers (`benchmark/src/adapters.rs`, README).
#[test]
fn metric_schema_is_pinned() {
    let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
    let cell = Box::leak(Box::new(0u64)) as *mut u64;
    let p = nanotask::SendPtr::new(cell);
    let body = move |ctx: &nanotask::TaskCtx| {
        for _ in 0..8 {
            ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
                *p.get() += 1;
            });
        }
    };
    rt.run(body);
    rt.run_iterative(3, body);

    let snap = rt.metrics_snapshot();
    let base: Vec<&str> = snap.base_labels.iter().map(|(k, _)| *k).collect();
    assert_eq!(base, ["scheduler", "deps"], "base labels on every sample");
    let got: BTreeSet<(&str, Vec<&str>)> = snap
        .entries
        .iter()
        .map(|e| (e.name, e.labels.iter().map(|(k, _)| *k).collect()))
        .collect();
    let pinned: &[(&str, &[&str])] = &[
        ("nanotask_alloc_live_blocks", &[]),
        ("nanotask_alloc_oversize", &[]),
        ("nanotask_alloc_peak_live_tasks", &[]),
        ("nanotask_alloc_pool_hits", &[]),
        ("nanotask_alloc_pool_misses", &[]),
        ("nanotask_alloc_slab_bytes", &[]),
        ("nanotask_alloc_task_recycle_misses", &[]),
        ("nanotask_alloc_tasks_recycled", &[]),
        ("nanotask_inline_routed_total", &[]),
        ("nanotask_inline_runs_total", &[]),
        ("nanotask_live_tasks", &[]),
        ("nanotask_max_inline_depth", &[]),
        ("nanotask_max_taskwait_depth", &[]),
        ("nanotask_nested_spawns_total", &[]),
        ("nanotask_node_home_tasks_total", &["node"]),
        ("nanotask_node_targeted_tasks_total", &["node"]),
        ("nanotask_queue_wait_ns", &[]),
        ("nanotask_release_batch_tasks", &[]),
        ("nanotask_replay_cache_evictions_total", &[]),
        ("nanotask_replay_cache_hits_total", &[]),
        ("nanotask_replay_cache_misses_total", &[]),
        ("nanotask_replay_diverged_total", &[]),
        ("nanotask_replay_faulted_iterations_total", &[]),
        ("nanotask_replay_feed_ns", &[]),
        ("nanotask_replay_freeze_ns_total", &[]),
        ("nanotask_replay_giveups_total", &[]),
        ("nanotask_replay_graph_bytes", &[]),
        ("nanotask_replay_heap_ops_total", &[]),
        ("nanotask_replay_iterations_total", &[]),
        ("nanotask_replay_nested_spawns_total", &[]),
        ("nanotask_replay_partition_seed_reused_total", &[]),
        ("nanotask_replay_partition_seed_total_total", &[]),
        ("nanotask_replay_partition_seeds_total", &[]),
        ("nanotask_replay_peak_task_bytes", &[]),
        ("nanotask_replay_pinned_iterations_total", &[]),
        ("nanotask_replay_replayed_total", &[]),
        ("nanotask_replay_rerecords_total", &[]),
        ("nanotask_replay_routed_releases_total", &[]),
        ("nanotask_replay_tasks_recycled_total", &[]),
        ("nanotask_sched_adds_total", &[]),
        ("nanotask_sched_batch_adds_total", &[]),
        ("nanotask_sched_batch_tasks_total", &[]),
        ("nanotask_sched_lock_acquisitions_total", &[]),
        ("nanotask_sched_pop_cache_hits_total", &[]),
        ("nanotask_sched_pops_total", &[]),
        ("nanotask_sched_targeted_batch_adds_total", &[]),
        ("nanotask_sched_targeted_tasks_total", &[]),
        ("nanotask_task_exec_ns", &[]),
        ("nanotask_tasks_cancelled_total", &[]),
        ("nanotask_tasks_created_total", &[]),
        ("nanotask_tasks_executed_total", &[]),
        ("nanotask_tasks_failed_total", &[]),
        ("nanotask_tasks_freed_total", &[]),
        ("nanotask_watchdog_trips_total", &[]),
    ];
    let pinned: BTreeSet<(&str, Vec<&str>)> =
        pinned.iter().map(|&(n, l)| (n, l.to_vec())).collect();
    assert_eq!(got, pinned, "sorted (metric name, label keys) set");
}
