//! CTF-lite low-overhead tracing for the task runtime.
//!
//! §5 of *Advanced Synchronization Techniques for Task-based Runtime
//! Systems* (PPoPP '21) introduces an instrumentation backend that writes
//! events into **lock-free per-core circular buffers**, divided into
//! sub-buffers that are flushed between task executions, producing traces
//! in the Common Trace Format. Kernel events (interrupts, preemptions) are
//! merged from `perf_event_open` ring buffers so OS noise can be
//! correlated with runtime behaviour (Figure 11).
//!
//! This crate reproduces that design:
//!
//! * [`Tracer`] / [`CoreRecorder`] — one recorder per worker ("core");
//!   recording is a bounds-check + vector write on thread-private memory,
//!   with full sub-buffers flushed to a shared sink *by the worker itself
//!   between tasks* (no daemon threads, unlike LTTng — the §7 comparison).
//! * [`ctf`] — a compact binary trace format ("CTF-lite": fixed 24-byte
//!   little-endian records) with writer and reader.
//! * [`timeline`] — interval reconstruction, per-core utilisation /
//!   starvation statistics and the ASCII rendering used to regenerate
//!   Figures 10 and 11.
//! * [`noise`] — a synthetic OS-noise injector standing in for the kernel
//!   side of `perf_event_open` (documented substitution: it stalls a
//!   worker and emits the same `KernelInterrupt*` events a hardware
//!   interrupt would, which is all Figure 11's analysis needs).

pub mod ctf;
pub mod event;
pub mod noise;
pub mod timeline;

pub use event::{Event, EventKind};

use parking_lot::Mutex;
use std::sync::Arc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Events per sub-buffer; a full sub-buffer triggers a flush to the sink.
pub const SUBBUF_EVENTS: usize = 4096;

struct TracerShared {
    epoch: Instant,
    enabled: AtomicBool,
    sink: Mutex<Vec<Event>>,
    ncores: u32,
}

/// Trace collection facade. Create one per runtime instance, hand one
/// [`CoreRecorder`] to each worker, and call [`Tracer::finish`] after the
/// workers are done.
#[derive(Clone)]
pub struct Tracer {
    shared: Arc<TracerShared>,
}

impl Tracer {
    /// Create a tracer for `ncores` workers. `enabled = false` makes all
    /// recording a no-op (one relaxed load), so instrumentation can stay
    /// compiled in.
    pub fn new(ncores: usize, enabled: bool) -> Self {
        Self {
            shared: Arc::new(TracerShared {
                epoch: Instant::now(),
                enabled: AtomicBool::new(enabled),
                sink: Mutex::new(Vec::new()),
                ncores: ncores.try_into().unwrap_or(u32::MAX),
            }),
        }
    }

    /// Create a recorder bound to worker/core `core`.
    pub fn recorder(&self, core: u16) -> CoreRecorder {
        CoreRecorder {
            shared: Arc::clone(&self.shared),
            core,
            buf: Vec::with_capacity(SUBBUF_EVENTS),
        }
    }

    /// Whether events are currently recorded.
    pub fn enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable recording at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.shared.enabled.store(on, Ordering::Relaxed);
    }

    /// Collect every flushed event into a [`Trace`], sorted by timestamp.
    /// Recorders must have been dropped (or explicitly flushed) first.
    pub fn finish(&self) -> Trace {
        let mut events = self.shared.sink.lock().clone();
        events.sort_by_key(|e| e.ns);
        Trace {
            ncores: self.shared.ncores,
            events,
        }
    }
}

/// Per-worker event recorder. Thread-confined: the owning worker is the
/// only writer, which is what makes recording lock-free (the paper's
/// per-core circular buffer).
pub struct CoreRecorder {
    shared: Arc<TracerShared>,
    core: u16,
    buf: Vec<Event>,
}

impl CoreRecorder {
    /// Record an event; flushes the sub-buffer if it filled up.
    #[inline]
    pub fn record(&mut self, kind: EventKind, payload: u64) {
        if !self.shared.enabled.load(Ordering::Relaxed) {
            return;
        }
        let ns = self.shared.epoch.elapsed().as_nanos() as u64;
        self.buf.push(Event {
            ns,
            payload,
            core: self.core,
            kind,
        });
        if self.buf.len() >= SUBBUF_EVENTS {
            self.flush();
        }
    }

    /// The core id this recorder is bound to.
    pub fn core(&self) -> u16 {
        self.core
    }

    /// Move buffered events to the shared sink. Called automatically when
    /// a sub-buffer fills and on drop; the runtime also calls it between
    /// tasks, mirroring the paper ("flushed ... by Nanos6 threads between
    /// tasks execution").
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut sink = self.shared.sink.lock();
        sink.append(&mut self.buf);
    }

    /// Number of events currently buffered (not yet flushed).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

impl Drop for CoreRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A finished, time-sorted trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    ncores: u32,
    events: Vec<Event>,
}

impl Trace {
    /// Build a trace directly from events (used by the CTF reader and
    /// tests). Events are sorted by timestamp.
    pub fn from_events(ncores: u32, mut events: Vec<Event>) -> Self {
        events.sort_by_key(|e| e.ns);
        Self { ncores, events }
    }

    /// All events, sorted by timestamp.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of cores the trace was recorded on. Wider than the
    /// CTF-lite header's on-disk `u16`: an in-memory trace may carry any
    /// core count, and [`ctf::write_trace`] rejects values past
    /// `u16::MAX` with [`ctf::CtfError::NcoresOverflow`] instead of
    /// silently truncating.
    pub fn ncores(&self) -> u32 {
        self.ncores
    }

    /// Events of a single core, in time order.
    pub fn core_events(&self, core: u16) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.core == core)
    }

    /// Total time span covered (ns), 0 for an empty trace.
    pub fn span_ns(&self) -> u64 {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => b.ns - a.ns,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_finish_sorted() {
        let tracer = Tracer::new(2, true);
        let mut r0 = tracer.recorder(0);
        let mut r1 = tracer.recorder(1);
        r0.record(EventKind::TaskStart, 1);
        r1.record(EventKind::TaskStart, 2);
        r0.record(EventKind::TaskEnd, 1);
        drop(r0);
        drop(r1);
        let trace = tracer.finish();
        assert_eq!(trace.events().len(), 3);
        assert!(trace.events().windows(2).all(|w| w[0].ns <= w[1].ns));
        assert_eq!(trace.core_events(0).count(), 2);
        assert_eq!(trace.core_events(1).count(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(1, false);
        let mut r = tracer.recorder(0);
        r.record(EventKind::TaskStart, 0);
        r.flush();
        assert!(tracer.finish().events().is_empty());
    }

    #[test]
    fn toggling_enabled_at_runtime() {
        let tracer = Tracer::new(1, false);
        let mut r = tracer.recorder(0);
        r.record(EventKind::TaskStart, 0);
        tracer.set_enabled(true);
        r.record(EventKind::TaskEnd, 0);
        r.flush();
        assert_eq!(tracer.finish().events().len(), 1);
    }

    #[test]
    fn subbuffer_autoflush() {
        let tracer = Tracer::new(1, true);
        let mut r = tracer.recorder(0);
        for i in 0..(SUBBUF_EVENTS + 10) {
            r.record(EventKind::UserMarker, i as u64);
        }
        // The first sub-buffer must already be in the sink.
        assert!(r.buffered() < SUBBUF_EVENTS);
        drop(r);
        assert_eq!(tracer.finish().events().len(), SUBBUF_EVENTS + 10);
    }

    #[test]
    fn timestamps_monotone_per_core() {
        let tracer = Tracer::new(1, true);
        let mut r = tracer.recorder(0);
        for i in 0..100 {
            r.record(EventKind::UserMarker, i);
        }
        drop(r);
        let t = tracer.finish();
        let ns: Vec<u64> = t.events().iter().map(|e| e.ns).collect();
        assert!(ns.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn span_of_empty_trace_is_zero() {
        let tracer = Tracer::new(1, true);
        assert_eq!(tracer.finish().span_ns(), 0);
    }
}
