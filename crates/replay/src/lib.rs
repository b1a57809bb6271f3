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
//! 1. **Records** one instrumented iteration: the engine's capture,
//!    installed through the runtime's [`SpawnCapture`] seam, notes every
//!    root task's creation order, label, priority and access set as a
//!    [`CapturedSpawn`]. The recorded iteration still executes through
//!    the full dependency system.
//! 2. **Freezes** the graph into a [`ReplayGraph`]: compressed-sparse-row
//!    arenas for successor lists, access declarations and reduction
//!    memberships, plus the state one iteration mutates — per-task
//!    atomic in-degree counters and one reduction chain per group
//!    (private per-worker slots, combined once when the last member
//!    finishes) — built once and re-armed in place between iterations.
//! 3. **Replays** iterations `1..n`: the user closure runs again, each
//!    spawn builds its task as usual and the capture, offered that
//!    task, matches it to a graph node by creation order and keeps it
//!    *held* (`TaskCtx::hold`) — no dependency registration or release,
//!    no heap allocation and no per-task reference count. A task is
//!    handed to the configured scheduler (replay is scheduler-agnostic)
//!    the moment its in-degree counter hits zero; the graph, installed
//!    as the root's held-children epilogue, releases its successors.
//!
//! Divergence is detected by a cheap structural hash (word-folded over
//! labels, priorities and access sets, in creation order) and handled
//! with *hysteresis*: up to four frozen graphs are kept in a
//! [`GraphCache`] keyed by that hash, so a body alternating between a few
//! shapes (miniAMR-style refine/coarsen phases) records each shape once
//! and then replays every phase — a diverging iteration first probes the
//! cache (by first-spawn signature mid-switch, by full structural hash
//! afterwards, and through a one-step phase predictor) and only freezes a
//! new graph on a miss. A phase cycle longer than the cache evicts and
//! re-records on every shape change. A body that keeps diverging is
//! pinned to the dependency system after 8 consecutive failures; every
//! 16 pinned iterations one probe iteration is recorded and its shape
//! only hashed ([`GraphRecorder::structural_hash`]), never frozen, to
//! see whether the body re-stabilized. A recorded or replayed iteration
//! that created tasks the capture did not see, including root
//! `taskwait_on` — the runtime's `tasks_created` delta exceeds the
//! spawns the capture was offered — is pinned for good. Correctness
//! never depends on the graphs actually matching: a divergent iteration awaits its replayed prefix
//! and runs the rest through the dependency system. The three limits are
//! constants of the engine, not configuration.
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
//! * Only *root-level* spawns are captured. Tasks the capture did not
//!   see, including root `taskwait_on`, are **detected** exactly, on
//!   every recorded and replayed iteration, as the surplus of the
//!   runtime's `tasks_created` delta over the spawns the capture was
//!   offered. They force permanent dependency-system fallback
//!   ([`ReplayReport::pinned_nested`]): replay cannot enforce the
//!   *parents'* recorded ordering around nested children, and a
//!   `taskwait_on` helper cannot wait for tasks that bypassed the
//!   dependency system. (While a capture is installed, a root
//!   `taskwait_on` therefore first waits for all of the root's
//!   children, which keeps the iteration that calls it correct.) A body
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
pub use recorder::{CapturedSpawn, GraphRecorder};

// Re-exported for doc links and downstream convenience.
pub use nanotask_core::{RunOutcome, Runtime, SpawnCapture, TaskCtx};
