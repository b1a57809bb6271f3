//! Task-graph **record & replay** (`nanotask-replay`).
//!
//! The paper this workspace reproduces (PPoPP '21) shows that at fine
//! task granularity the *dependency system* is a dominant runtime
//! overhead — its wait-free Atomic State Machines (§2) exist purely to
//! shrink it. This crate removes that overhead entirely for the common
//! HPC pattern of **iterative** applications: every timestep of heat,
//! HPCCG or N-body re-registers and re-releases an *identical*
//! dependency graph.
//!
//! In the spirit of OmpSs-2's `taskiter`/TDG-caching follow-on work, the
//! subsystem:
//!
//! 1. **Records** one instrumented iteration: a [`GraphRecorder`]
//!    installed through the runtime's [`SpawnCapture`] seam captures
//!    every root task's creation order, label, priority and access set,
//!    while the dependency-edge tap (`Runtime::set_graph_recording`,
//!    the Figure-1 `GraphEdge` machinery) records the successor/child
//!    links the dependency system actually created. The recorded
//!    iteration still executes through the full dependency system.
//! 2. **Freezes** the graph into a [`ReplayGraph`]: compressed-sparse-row
//!    arenas for successor lists, access declarations and reduction
//!    memberships (built once, no per-node allocations survive
//!    freezing), per-task atomic in-degree counters reset between
//!    iterations by a single `memcpy` from a precomputed template, and
//!    reduction-chain groups that keep the paper's concurrent-reduction
//!    semantics (private per-worker slots, combined once when the last
//!    chain member finishes).
//! 3. **Replays** iterations `1..n`: task bodies are captured by simply
//!    enumerating the user closure again, matched to graph nodes by
//!    creation order, and spawned *held* (`TaskCtx::spawn_held`) —
//!    fully bypassing dependency registration and release. A task is
//!    handed to the configured scheduler (delegation, central or
//!    work-stealing — replay is scheduler-agnostic) the moment its
//!    in-degree counter hits zero.
//!
//! Divergence is detected by a cheap structural hash (word-folded over
//! labels, priorities and access sets, in creation order) and handled
//! with *hysteresis*: up to [`nanotask_core::RuntimeConfig::replay_cache_size`]
//! frozen graphs are kept in a [`GraphCache`] keyed by that hash, so a
//! body alternating between a few shapes (miniAMR-style refine/coarsen
//! phases) records each shape once and then replays every phase — a
//! diverging iteration first probes the cache (by first-spawn signature
//! mid-switch, by full structural hash afterwards, and through a
//! one-step phase predictor) and only freezes a new graph on a miss.
//! A body that keeps diverging is pinned to the dependency system after
//! [`nanotask_core::RuntimeConfig::replay_giveup_after`] consecutive
//! failures (with a cheap hash-only re-stabilization probe every
//! [`nanotask_core::RuntimeConfig::replay_recheck_every`] iterations),
//! and a recorded iteration containing nested task domains — detected
//! via foreign dependency edges plus the runtime's nested-spawn counter
//! — is pinned immediately. Correctness never depends on the graphs
//! actually matching: a divergent iteration awaits its replayed prefix
//! and runs the rest through the dependency system. The policy is the
//! same at every cache size; `replay_cache_size = 1` is merely a cache
//! too small for an alternating body (every shape change evicts and
//! re-records).
//!
//! The public surface is the [`RunIterative`] extension trait:
//!
//! ```
//! use nanotask_core::{Runtime, RuntimeConfig, Deps, SendPtr};
//! use nanotask_replay::RunIterative;
//!
//! let rt = Runtime::new(RuntimeConfig::optimized().workers(2));
//! let data = Box::leak(Box::new(0u64)) as *mut u64;
//! let p = SendPtr::new(data);
//! let report = rt.run_iterative(10, move |ctx| {
//!     // One "timestep": a two-task chain on `data`.
//!     ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
//!         *p.get() += 1;
//!     });
//!     ctx.spawn(Deps::new().readwrite_addr(p.addr()), move |_| unsafe {
//!         *p.get() *= 2;
//!     });
//! });
//! assert_eq!(report.replayed, 9); // recorded once, replayed 9 times
//! assert_eq!(unsafe { *data }, 2046);
//! unsafe { drop(Box::from_raw(data)) };
//! ```
//!
//! ## Scope and limitations
//!
//! * Only *root-level* spawns are captured. Nested task domains are
//!   **detected** — foreign dependency edges at record time, plus the
//!   runtime's nested-spawn counter on every graph-building and
//!   replayed iteration — and force permanent dependency-system
//!   fallback ([`ReplayReport::pinned_nested`]): replay cannot enforce
//!   the *parents'* recorded ordering around nested children. A body
//!   that nests from the start is caught at record time and never
//!   replays. A body that *starts* nesting mid-run is pinned at the end
//!   of the first iteration whose replay observed nested spawns —
//!   detection cannot precede the first nested spawn, so that one
//!   iteration is a known hazard window: a nested child conflicting
//!   with a *replayed root* task is unordered during it (the root
//!   bypassed dependency registration), unlike at record time where the
//!   dependency system ordered both. *Recording* nested domains (which
//!   would close the window) remains open — see ROADMAP "nested
//!   domains".
//! * Iteration boundaries are barriers: replay trades the dependency
//!   system's cross-iteration pipelining for zero dependency-system
//!   cost, which is the winning trade at fine granularity (the
//!   `heat_replay` vs `heat_deps` workloads of the `benchmark/` ledger).

mod cache;
mod engine;
mod graph;
mod partition;
mod recorder;

pub use cache::GraphCache;
pub use engine::{ReplayReport, RunIterative};
pub use graph::{NodeMeta, RedGroup, ReplayGraph};
pub use partition::{PartitionStats, Partitioning};
pub use recorder::{CaptureMode, CapturedDecls, CapturedSpawn, GraphRecorder};

// Re-exported for doc links and downstream convenience.
pub use nanotask_core::{RunOutcome, Runtime, SpawnCapture, TaskCtx};
