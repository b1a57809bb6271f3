//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics with the end-to-end metric each
//! is expected to move. `BENCHMARK.json` is rendered from these tables
//! (`perf_ledger --emit-benchmark-json`) and a unit test keeps the
//! committed file equal to them.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric this should move, and on which workload.
    pub moves: &'static str,
}

/// Fresh child processes per end-to-end run.
pub const TRIALS: usize = 15;
/// Traced (and, interleaved, untraced reference) children per traced run.
pub const TRACED_TRIALS: usize = 3;
/// Warm-up reps per child before the timed window.
pub const WARMUP_REPS: usize = 2;
/// Minimum timed reps per child, whatever the time budget.
pub const MIN_REPS: usize = 5;
/// One span in this many spawns/bodies is recorded in a traced child.
pub const SPAN_SAMPLE: usize = 16;
/// What the driver passes as `--seconds`; also the default.
pub const RUN_SECONDS: u32 = 10;
/// A child that has not answered after this long counts as all-failed.
pub const CHILD_TIMEOUT_S: u64 = 60;
pub const DEFAULT_SEED: u64 = 20_210_227;
/// The second seed of `--selfcheck`.
pub const ALTERNATE_SEED: u64 = 7_919;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
pub const PATHS: [&str; 1] = ["benchmark"];

pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "spawn_storm",
        why: "one creator spawns 100k access-free ~20 ns tasks: slab alloc and SPSC->DTLock->pop do all the work, deps and replay none",
    },
    WorkloadDef {
        name: "chains",
        why: "8 readwrite chains x 12.5k tiny tasks: each completion releases one successor, so deps register/release and the handoff dominate; replay idle",
    },
    WorkloadDef {
        name: "heat_deps",
        why: "the paper's flagship wavefront (Heat 256x256, bs 8, 32 steps, 32768 tasks): multi-access registration, reader fan-in, reduction slots",
    },
    WorkloadDef {
        name: "heat_replay",
        why: "the same Heat problem through record/replay: bypasses deps after iteration 0, so a gain on one Heat path that costs the other shows",
    },
    WorkloadDef {
        name: "amr_replay",
        why: "miniAMR, 256 phase-alternating iterations under replay: cache hits/misses, re-record and freeze sit on the timed path",
    },
    WorkloadDef {
        name: "nested_tree",
        why: "recursive fork-join (seeded fan-out 3-5, depth 8, 87381 tasks): many creators, nested domains, the taskwait path; no single-creator bottleneck",
    },
    WorkloadDef {
        name: "cholesky_coarse",
        why: "control: 120 tasks of ~75 us (Cholesky 512x512, bs 64, 8 factorizations/rep); runtime layers are <2% of time, so they should not move it",
    },
];

/// `failed_share` is carried by the result line's `attempted`/`failed`
/// keys, not listed here: a metric that is always 0 has no relative bound.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tasks_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "cpu_us_per_task",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const FINE: &str = "tasks_per_s on spawn_storm, chains, heat_deps";
const HANDOFF: &str = "tasks_per_s on chains, heat_deps, heat_replay";
const DEPS: &str = "tasks_per_s on chains, heat_deps; none on spawn_storm, *_replay";
const SCHED: &str = "tasks_per_s on spawn_storm, nested_tree; cpu_us_per_task everywhere";
const ALLOC: &str = "tasks_per_s on spawn_storm, nested_tree";
const LOCKS: &str = "sched.* and through it tasks_per_s on spawn_storm";
const REPLAY_SETUP: &str = "setup_s on heat_replay; tasks_per_s on amr_replay";
const OFF: &str = "nothing while metrics and tracing are off; bounds the cost of turning them on";
const KERNEL: &str = "tasks_per_s on cholesky_coarse only";
const HARNESS: &str = "nothing: describes the measurement, not the program";

pub const PER_LAYER: [Layer; 66] = [
    // runtime: spans and counters around the public spawn/run/taskwait calls
    layer("runtime.spawn_ns_p50", "ns", Lower, FINE),
    layer("runtime.spawn_ns_p99", "ns", Lower, FINE),
    layer("runtime.handoff_ns_p50", "ns", Lower, HANDOFF),
    layer("runtime.handoff_ns_p99", "ns", Lower, HANDOFF),
    layer(
        "runtime.taskwait_ns_p50",
        "ns",
        Lower,
        "tasks_per_s on nested_tree",
    ),
    layer(
        "runtime.drain_us",
        "us",
        Lower,
        "tasks_per_s on spawn_storm, chains",
    ),
    layer(
        "runtime.run_call_us",
        "us",
        Lower,
        "tasks_per_s on cholesky_coarse (8 run calls per rep)",
    ),
    layer("runtime.new_ms", "ms", Lower, "setup_s everywhere"),
    layer(
        "runtime.w0_exec_share",
        "share",
        Lower,
        "tasks_per_s on spawn_storm (creator also executing)",
    ),
    layer(
        "runtime.inline_run_share",
        "share",
        Higher,
        "none today: the fast path is off in the measured preset",
    ),
    // deps: in situ counters, then probes at 1 worker with empty bodies
    layer("deps.deliveries_per_task", "1/task", Lower, DEPS),
    layer("deps.dup_delivery_share", "share", Lower, DEPS),
    layer("deps.waitfree_chain_ns", "ns", Lower, DEPS),
    layer(
        "deps.locking_chain_ns",
        "ns",
        Lower,
        "none: the locking baseline is not in the measured preset",
    ),
    layer(
        "deps.waitfree_fanin_ns",
        "ns",
        Lower,
        "tasks_per_s on heat_deps",
    ),
    layer(
        "deps.locking_fanin_ns",
        "ns",
        Lower,
        "none: the locking baseline is not in the measured preset",
    ),
    layer(
        "deps.wavefront_spawn_ns",
        "ns",
        Lower,
        "tasks_per_s on heat_deps",
    ),
    layer(
        "deps.wavefront_handoff_ns",
        "ns",
        Lower,
        "tasks_per_s on heat_deps",
    ),
    // sched: in situ counters, then probes through make_scheduler
    layer("sched.lock_acq_per_task", "1/task", Lower, SCHED),
    layer("sched.pop_cache_hit_share", "share", Higher, SCHED),
    layer("sched.batch_task_share", "share", Higher, SCHED),
    layer("sched.delegation_add_get_ns", "ns", Lower, SCHED),
    layer(
        "sched.central_add_get_ns",
        "ns",
        Lower,
        "none: ablation scheduler",
    ),
    layer(
        "sched.worksteal_add_get_ns",
        "ns",
        Lower,
        "none: ablation scheduler",
    ),
    layer(
        "sched.delegation_batch_add_ns",
        "ns",
        Lower,
        "none today: batched release is off in the measured preset",
    ),
    layer(
        "sched.empty_get_ns",
        "ns",
        Lower,
        "cpu_us_per_task everywhere (idle workers poll)",
    ),
    // alloc
    layer("alloc.pool_miss_per_ktask", "1/ktask", Lower, ALLOC),
    layer("alloc.slab_recycle_share", "share", Higher, ALLOC),
    layer(
        "alloc.peak_live_tasks",
        "count",
        Lower,
        "peak_rss_mb on spawn_storm, nested_tree",
    ),
    layer("alloc.pool_roundtrip_ns", "ns", Lower, ALLOC),
    layer("alloc.slab_recycle_ns", "ns", Lower, ALLOC),
    layer(
        "alloc.serialized_roundtrip_ns",
        "ns",
        Lower,
        "none: ablation allocator",
    ),
    layer("alloc.remote_free_ns", "ns", Lower, ALLOC),
    // locks, spsc
    layer("locks.dtlock_uncontended_ns", "ns", Lower, LOCKS),
    layer("locks.dtlock_handoff_ns", "ns", Lower, LOCKS),
    layer("locks.ptlock_handoff_ns", "ns", Lower, LOCKS),
    layer(
        "locks.ticket_handoff_ns",
        "ns",
        Lower,
        "none: comparison lock",
    ),
    layer("spsc.local_push_pop_ns", "ns", Lower, LOCKS),
    layer("spsc.cross_core_item_ns", "ns", Lower, LOCKS),
    // replay
    layer(
        "replay.replayed_iter_share",
        "share",
        Higher,
        "tasks_per_s on heat_replay, amr_replay",
    ),
    layer(
        "replay.cache_hit_share",
        "share",
        Higher,
        "tasks_per_s on amr_replay",
    ),
    layer(
        "replay.rerecords",
        "count",
        Lower,
        "tasks_per_s on amr_replay",
    ),
    layer(
        "replay.routed_release_share",
        "share",
        Higher,
        "none today: partitioning is off in the measured preset",
    ),
    layer("replay.record_ns_per_task", "ns", Lower, REPLAY_SETUP),
    layer("replay.freeze_ns_per_task", "ns", Lower, REPLAY_SETUP),
    layer(
        "replay.partition_ns_per_task",
        "ns",
        Lower,
        "none today: partitioning is off in the measured preset",
    ),
    layer(
        "replay.sig_hash_ns",
        "ns",
        Lower,
        "setup_s on heat_replay (public byte-FNV hash; the engine's fast hash is not public)",
    ),
    layer(
        "replay.frozen_bytes_per_task",
        "B/task",
        Lower,
        "peak_rss_mb on heat_replay, amr_replay",
    ),
    layer(
        "replay.feed_ns_per_task",
        "ns",
        Lower,
        "tasks_per_s on heat_replay; none on *_deps",
    ),
    // obs, trace
    layer(
        "obs.counter_inc_ns",
        "ns",
        Lower,
        "tasks_per_s everywhere (plain counters are always on)",
    ),
    layer("obs.histogram_record_ns", "ns", Lower, OFF),
    layer("obs.snapshot_us", "us", Lower, OFF),
    layer("trace.record_event_ns", "ns", Lower, OFF),
    layer("trace.ctf_write_mb_s", "MB/s", Higher, OFF),
    // workloads
    layer(
        "workloads.body_ns_p50",
        "ns",
        Lower,
        "tasks_per_s on the workload measured",
    ),
    layer(
        "workloads.gs_block8_ns",
        "ns",
        Lower,
        "tasks_per_s on heat_deps, heat_replay",
    ),
    layer("workloads.gemm_block64_us", "us", Lower, KERNEL),
    // harness
    layer("harness.rep_ms_p50", "ms", Lower, HARNESS),
    layer("harness.rep_ms_p90", "ms", Lower, HARNESS),
    layer("harness.trial_iqr_rel", "share", Lower, HARNESS),
    layer("harness.slow_trial_share", "share", Lower, HARNESS),
    layer("harness.fast_trial_share", "share", Lower, HARNESS),
    layer("harness.trace_overhead_share", "share", Lower, HARNESS),
    layer("harness.unattributed_share", "share", Lower, HARNESS),
    layer(
        "harness.pingpong_ns",
        "ns",
        Lower,
        "host calibrator: every cross-core number scales with it",
    ),
    layer(
        "harness.clock_ns",
        "ns",
        Lower,
        "host calibrator: floor of every span",
    ),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// The committed `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.label().into())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.label().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(!m.moves.is_empty(), "{} must say what it moves", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(!name_ok("-x") && !name_ok("a b") && !name_ok("") && !unit_ok("µs"));
    }

    #[test]
    fn setup_time_is_listed_with_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with: perf_ledger --emit-benchmark-json > BENCHMARK.json"
        );
        for part in COMMAND {
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
