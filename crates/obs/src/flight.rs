//! In-run flight recorder: a bounded ring of recent registry snapshots.
//!
//! A post-run report collapses the whole execution into one total; the
//! flight recorder keeps the last N [`Snapshot`]s taken every `every`
//! ticks (a tick is whatever the caller makes it — the runtime ticks
//! once per executed task), so an anomaly like a divergence storm or a
//! giveup spiral shows up as a *delta between adjacent frames* and can be
//! localized to a window.
//!
//! Ticks are counted per shard with the registry's single-writer
//! discipline: worker `i` ticks shard `i`, and a frame is taken on every
//! `every`-th tick of one shard, so a recorder that is switched on adds
//! no shared write per task.

use crate::registry::{Registry, Snapshot};
use nanotask_locks::CachePadded;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

/// One recorded frame: which tick triggered it, and the snapshot.
#[derive(Clone, Debug)]
pub struct FlightFrame {
    /// Total tick count over all shards at capture time (1-based).
    pub tick: u64,
    /// Registry state at capture time.
    pub snapshot: Snapshot,
}

struct FlightInner {
    every: u64,
    capacity: usize,
    ticks: Box<[CachePadded<AtomicU64>]>,
    ring: Mutex<VecDeque<FlightFrame>>,
}

/// Periodic snapshot ring. Cloning shares the ring. A recorder built
/// with `every == 0` is disabled: [`FlightRecorder::tick`] is one
/// branch and no snapshot is ever taken.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<FlightInner>,
}

impl FlightRecorder {
    /// Record a snapshot every `every` ticks of one shard, keeping the
    /// last `capacity` frames; `shards` is the number of tick counters
    /// (one per writing thread). `every == 0` disables recording.
    pub fn new(every: u64, capacity: usize, shards: usize) -> Self {
        Self {
            inner: Arc::new(FlightInner {
                every,
                capacity: capacity.max(1),
                ticks: (0..shards.max(1))
                    .map(|_| CachePadded::new(AtomicU64::new(0)))
                    .collect(),
                ring: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// A recorder that never records.
    pub fn disabled() -> Self {
        Self::new(0, 1, 1)
    }

    /// Whether ticks can ever produce frames.
    pub fn enabled(&self) -> bool {
        self.inner.every != 0
    }

    /// Count one tick on `shard` (only one thread may tick a shard;
    /// out-of-range shards clamp to the last); snapshots `registry` into
    /// the ring when the shard's count crosses the interval.
    pub fn tick(&self, shard: usize, registry: &Registry) {
        if self.inner.every == 0 {
            return;
        }
        let ticks = &self.inner.ticks;
        let c = &ticks[shard.min(ticks.len() - 1)];
        let t = c.load(Ordering::Relaxed) + 1;
        c.store(t, Ordering::Relaxed);
        if !t.is_multiple_of(self.inner.every) {
            return;
        }
        let frame = FlightFrame {
            tick: self.ticks(),
            snapshot: registry.snapshot(),
        };
        let mut ring = self.inner.ring.lock();
        if ring.len() == self.inner.capacity {
            ring.pop_front();
        }
        ring.push_back(frame);
    }

    /// Total ticks counted so far, over all shards.
    pub fn ticks(&self) -> u64 {
        self.inner
            .ticks
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// The recorded frames, oldest first.
    pub fn frames(&self) -> Vec<FlightFrame> {
        self.inner.ring.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_every_interval_and_bounds_ring() {
        let reg = Registry::new(1);
        let c = reg.counter("nanotask_iters_total");
        let fr = FlightRecorder::new(2, 3, 1);
        assert!(fr.enabled());
        for _ in 0..10 {
            c.add(0, 1);
            fr.tick(0, &reg);
        }
        assert_eq!(fr.ticks(), 10);
        let frames = fr.frames();
        // Ticks 2,4,6,8,10 fired; capacity 3 keeps the last three.
        assert_eq!(frames.len(), 3);
        assert_eq!(
            frames.iter().map(|f| f.tick).collect::<Vec<_>>(),
            vec![6, 8, 10]
        );
        // Frames capture monotone counter progress: deltas localize
        // anomalies to a tick window.
        let values: Vec<u64> = frames
            .iter()
            .map(|f| f.snapshot.counter("nanotask_iters_total").unwrap())
            .collect();
        assert_eq!(values, vec![6, 8, 10]);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let reg = Registry::new(1);
        let fr = FlightRecorder::disabled();
        assert!(!fr.enabled());
        for _ in 0..5 {
            fr.tick(0, &reg);
        }
        assert!(fr.frames().is_empty());
        assert_eq!(fr.ticks(), 0);
    }

    #[test]
    fn shards_tick_apart_and_frames_carry_the_total() {
        let reg = Registry::new(2);
        let fr = FlightRecorder::new(3, 8, 2);
        for _ in 0..4 {
            fr.tick(0, &reg);
        }
        assert_eq!(fr.frames().len(), 1, "shard 0 reached 3");
        for _ in 0..2 {
            fr.tick(1, &reg);
        }
        assert_eq!(fr.frames().len(), 1, "shard 1 has not reached 3");
        fr.tick(1, &reg);
        assert_eq!(fr.ticks(), 7);
        let ticks: Vec<u64> = fr.frames().iter().map(|f| f.tick).collect();
        assert_eq!(ticks, vec![3, 7]);
    }
}
