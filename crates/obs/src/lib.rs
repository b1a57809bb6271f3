//! Runtime observatory: live, uniformly-named, exportable telemetry.
//!
//! The paper's §5 instrumentation backend writes trace events into
//! **per-core lock-free buffers** so recording is a plain store on
//! thread-private memory. This crate applies the same discipline to
//! *metrics*: every counter, gauge and histogram is a [`registry`] entry
//! backed by one cache-padded cell per worker shard, incremented with a
//! plain load+store by its owning worker and only aggregated when a
//! [`registry::Snapshot`] is taken. That turns the runtime's ad-hoc
//! report structs (`RunReport`, `SchedOpStats`, `ReplayReport`) into
//! *views over one registry* that exists while the run is still going,
//! which is what the exporters need:
//!
//! * [`registry`] — sharded [`registry::Counter`] / [`registry::Gauge`] /
//!   [`registry::MaxGauge`] cells plus log-bucketed fixed-64-bucket
//!   pow-2 [`registry::Histogram`]s (HDR-style: bucket `i` holds values
//!   whose bit-length is `i`, so relative error is bounded by 2× at any
//!   magnitude) for task execution time, ready-queue wait, release-batch
//!   size and replay feed time.
//! * [`perfetto`] — converts a CTF-lite `Trace` into a Chrome/Perfetto
//!   `trace.json` (one track per core, complete spans from task and
//!   replay-iteration events, instants for cache hits and giveups).
//!   Open it at `https://ui.perfetto.dev` or `chrome://tracing`.
//! * [`prometheus`] — text-exposition dump of a snapshot (`nanotask_*`
//!   metric names, each sample carrying the scheduler/dep-system base
//!   labels) plus a line-by-line validator (`tests/obs_integration.rs`
//!   runs it on a live snapshot).

pub mod perfetto;
pub mod prometheus;
pub mod registry;

pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MaxGauge, MetricValue, Registry, SnapEntry,
    Snapshot,
};
