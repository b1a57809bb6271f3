//! Timeline reconstruction and analysis — the machinery behind the
//! paper's Figures 10 and 11.
//!
//! Figure 10's view "displays running tasks (in red), specific runtime
//! subsystems such as task creation (in cyan), or other generic runtime
//! parts (in deep blue) along time (X axis) for a number of cores
//! (Y axis)"; starving cores are khaki and DTLock serves are yellow
//! arrows. This module rebuilds exactly those per-core state intervals
//! from a [`Trace`] and renders them as ASCII art, plus the aggregate
//! statistics (starvation fraction, serve counts/bursts) used to compare
//! the PTLock and DTLock schedulers quantitatively.

use std::collections::HashMap;

use crate::Trace;
use crate::event::EventKind;

/// What a core was doing during an interval. Maps 1:1 onto the colour
/// legend of Figure 10/11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreState {
    /// Executing a task body (red).
    Running,
    /// Creating child tasks (cyan).
    Creating,
    /// Inside the scheduler (deep blue).
    Scheduler,
    /// Starving: asked for work and found none (khaki).
    Idle,
    /// Stalled by a (synthetic) kernel interrupt (purple).
    Interrupted,
    /// Blocked in a taskwait.
    Taskwait,
    /// Anything else (runtime glue).
    Other,
}

impl CoreState {
    /// One-character glyph used by the ASCII rendering.
    pub fn glyph(self) -> char {
        match self {
            CoreState::Running => 'R',
            CoreState::Creating => 'C',
            CoreState::Scheduler => 's',
            CoreState::Idle => '.',
            CoreState::Interrupted => '!',
            CoreState::Taskwait => 'w',
            CoreState::Other => ' ',
        }
    }
}

/// A maximal interval of one core in one state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start, ns since trace epoch.
    pub start: u64,
    /// End, ns since trace epoch.
    pub end: u64,
    /// State during the interval.
    pub state: CoreState,
}

impl Interval {
    /// Interval length in ns.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// True if the interval is degenerate.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Aggregate statistics for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreStats {
    /// ns spent in each state.
    pub running_ns: u64,
    /// ns spent creating tasks.
    pub creating_ns: u64,
    /// ns spent inside the scheduler.
    pub scheduler_ns: u64,
    /// ns starving.
    pub idle_ns: u64,
    /// ns stalled by interrupts.
    pub interrupted_ns: u64,
    /// ns blocked in taskwait.
    pub taskwait_ns: u64,
    /// Number of task bodies executed.
    pub tasks_run: u64,
}

impl CoreStats {
    /// ns accounted to any known state.
    pub fn accounted_ns(&self) -> u64 {
        self.running_ns
            + self.creating_ns
            + self.scheduler_ns
            + self.idle_ns
            + self.interrupted_ns
            + self.taskwait_ns
    }

    /// Fraction of accounted time spent running tasks.
    pub fn utilisation(&self) -> f64 {
        let total = self.accounted_ns();
        if total == 0 {
            0.0
        } else {
            self.running_ns as f64 / total as f64
        }
    }

    /// Fraction of accounted time spent starving.
    pub fn starvation(&self) -> f64 {
        let total = self.accounted_ns();
        if total == 0 {
            0.0
        } else {
            self.idle_ns as f64 / total as f64
        }
    }

    /// Accumulate `overlap` ns of `state` (plus one task start when the
    /// interval began inside the accounted window) — the one shared rule
    /// for clipped-window accounting ([`Timeline::stats_in`],
    /// [`Timeline::record_vs_replay`]).
    fn accumulate(&mut self, state: CoreState, overlap: u64, started_in_window: bool) {
        match state {
            CoreState::Running => {
                self.running_ns += overlap;
                if started_in_window {
                    self.tasks_run += 1;
                }
            }
            CoreState::Creating => self.creating_ns += overlap,
            CoreState::Scheduler => self.scheduler_ns += overlap,
            CoreState::Idle => self.idle_ns += overlap,
            CoreState::Interrupted => self.interrupted_ns += overlap,
            CoreState::Taskwait => self.taskwait_ns += overlap,
            CoreState::Other => {}
        }
    }

    /// Accumulate another set of counters into this one.
    pub fn add(&mut self, other: &CoreStats) {
        self.running_ns += other.running_ns;
        self.creating_ns += other.creating_ns;
        self.scheduler_ns += other.scheduler_ns;
        self.idle_ns += other.idle_ns;
        self.interrupted_ns += other.interrupted_ns;
        self.taskwait_ns += other.taskwait_ns;
        self.tasks_run += other.tasks_run;
    }
}

/// Aggregate statistics of one side of the record-vs-replay split.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Phase windows summed.
    pub windows: u64,
    /// Total wall-clock ns covered by the windows.
    pub wall_ns: u64,
    /// Core statistics clipped to the windows.
    pub stats: CoreStats,
}

impl PhaseStats {
    /// Mean wall-clock ns per phase window (0 when empty).
    pub fn mean_window_ns(&self) -> u64 {
        self.wall_ns.checked_div(self.windows).unwrap_or(0)
    }
}

/// Which replay-engine mode a window of the trace belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplayPhase {
    /// Graph capture through the full dependency system
    /// (`ReplayRecordBegin`/`End`).
    Record,
    /// Frozen-graph replay, dependency system bypassed
    /// (`ReplayIterBegin`/`End`).
    Replay,
}

/// One record- or replay-phase window of the trace, reconstructed from
/// the replay engine's phase-boundary events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Record or replay.
    pub phase: ReplayPhase,
    /// Iteration index (the `Begin` event's payload).
    pub iter: u64,
    /// Start, ns since trace epoch.
    pub start: u64,
    /// End, ns since trace epoch.
    pub end: u64,
}

impl PhaseSpan {
    /// Window length in ns.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// True if the window is degenerate.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Whole-trace analysis result.
#[derive(Debug, Clone)]
pub struct Timeline {
    ncores: u16,
    span: (u64, u64),
    intervals: Vec<Vec<Interval>>,
    per_core: Vec<CoreStats>,
    serves: Vec<(u64, u64)>,
    drains: Vec<(u64, u64)>,
    phases: Vec<PhaseSpan>,
}

impl Timeline {
    /// Reconstruct per-core intervals from a trace.
    pub fn build(trace: &Trace) -> Self {
        // Event cores are u16 on the wire, so the u16 clamp only ever
        // trims synthetic `Trace::from_events` core counts past 65535.
        let ncores = trace
            .ncores()
            .max(
                trace
                    .events()
                    .iter()
                    .map(|e| e.core as u32 + 1)
                    .max()
                    .unwrap_or(0),
            )
            .min(u16::MAX as u32) as u16;
        let start = trace.events().first().map(|e| e.ns).unwrap_or(0);
        let end = trace.events().last().map(|e| e.ns).unwrap_or(0);
        let mut intervals: Vec<Vec<Interval>> = vec![Vec::new(); ncores as usize];
        let mut per_core: Vec<CoreStats> = vec![CoreStats::default(); ncores as usize];
        let mut serves = Vec::new();
        let mut drains = Vec::new();
        let mut phases: Vec<PhaseSpan> = Vec::new();
        // Currently-open phase window: (phase, iter, since). The engine
        // never nests record inside replay or vice versa, so one slot
        // suffices; a Begin while another phase is open closes it.
        let mut open_phase: Option<(ReplayPhase, u64, u64)> = None;
        let close_phase =
            |open: &mut Option<(ReplayPhase, u64, u64)>, now: u64, phases: &mut Vec<PhaseSpan>| {
                if let Some((phase, iter, since)) = open.take()
                    && now > since
                {
                    phases.push(PhaseSpan {
                        phase,
                        iter,
                        start: since,
                        end: now,
                    });
                }
            };
        // Per-core state machine: (state, since).
        let mut cur: Vec<(CoreState, u64)> = vec![(CoreState::Other, start); ncores as usize];

        let switch = |core: usize,
                      now: u64,
                      next: CoreState,
                      intervals: &mut Vec<Vec<Interval>>,
                      per_core: &mut Vec<CoreStats>,
                      cur: &mut Vec<(CoreState, u64)>| {
            let (state, since) = cur[core];
            if now > since && state != CoreState::Other {
                intervals[core].push(Interval {
                    start: since,
                    end: now,
                    state,
                });
                let len = now - since;
                let s = &mut per_core[core];
                match state {
                    CoreState::Running => s.running_ns += len,
                    CoreState::Creating => s.creating_ns += len,
                    CoreState::Scheduler => s.scheduler_ns += len,
                    CoreState::Idle => s.idle_ns += len,
                    CoreState::Interrupted => s.interrupted_ns += len,
                    CoreState::Taskwait => s.taskwait_ns += len,
                    CoreState::Other => {}
                }
            }
            cur[core] = (next, now);
        };

        for e in trace.events() {
            let core = e.core as usize;
            match e.kind {
                EventKind::TaskStart => {
                    per_core[core].tasks_run += 1;
                    switch(
                        core,
                        e.ns,
                        CoreState::Running,
                        &mut intervals,
                        &mut per_core,
                        &mut cur,
                    );
                }
                EventKind::TaskEnd => switch(
                    core,
                    e.ns,
                    CoreState::Other,
                    &mut intervals,
                    &mut per_core,
                    &mut cur,
                ),
                EventKind::CreateBegin => switch(
                    core,
                    e.ns,
                    CoreState::Creating,
                    &mut intervals,
                    &mut per_core,
                    &mut cur,
                ),
                EventKind::CreateEnd => {
                    // Creation happens inside a running task body: fall back
                    // to Running rather than Other.
                    switch(
                        core,
                        e.ns,
                        CoreState::Running,
                        &mut intervals,
                        &mut per_core,
                        &mut cur,
                    )
                }
                EventKind::SchedEnter => switch(
                    core,
                    e.ns,
                    CoreState::Scheduler,
                    &mut intervals,
                    &mut per_core,
                    &mut cur,
                ),
                EventKind::SchedExit => switch(
                    core,
                    e.ns,
                    CoreState::Other,
                    &mut intervals,
                    &mut per_core,
                    &mut cur,
                ),
                EventKind::IdleBegin => switch(
                    core,
                    e.ns,
                    CoreState::Idle,
                    &mut intervals,
                    &mut per_core,
                    &mut cur,
                ),
                EventKind::IdleEnd => switch(
                    core,
                    e.ns,
                    CoreState::Other,
                    &mut intervals,
                    &mut per_core,
                    &mut cur,
                ),
                EventKind::KernelInterruptBegin => switch(
                    core,
                    e.ns,
                    CoreState::Interrupted,
                    &mut intervals,
                    &mut per_core,
                    &mut cur,
                ),
                EventKind::KernelInterruptEnd => switch(
                    core,
                    e.ns,
                    CoreState::Other,
                    &mut intervals,
                    &mut per_core,
                    &mut cur,
                ),
                EventKind::TaskwaitBegin => switch(
                    core,
                    e.ns,
                    CoreState::Taskwait,
                    &mut intervals,
                    &mut per_core,
                    &mut cur,
                ),
                EventKind::TaskwaitEnd => switch(
                    core,
                    e.ns,
                    CoreState::Running,
                    &mut intervals,
                    &mut per_core,
                    &mut cur,
                ),
                EventKind::SchedServe => serves.push((e.ns, e.payload)),
                EventKind::SchedDrain => drains.push((e.ns, e.payload)),
                EventKind::ReplayRecordBegin => {
                    close_phase(&mut open_phase, e.ns, &mut phases);
                    open_phase = Some((ReplayPhase::Record, e.payload, e.ns));
                }
                EventKind::ReplayIterBegin => {
                    close_phase(&mut open_phase, e.ns, &mut phases);
                    open_phase = Some((ReplayPhase::Replay, e.payload, e.ns));
                }
                // RecordEnd's payload is the captured task count, so the
                // iteration index comes from the opening event.
                EventKind::ReplayRecordEnd | EventKind::ReplayIterEnd => {
                    close_phase(&mut open_phase, e.ns, &mut phases);
                }
                EventKind::AddReady
                | EventKind::DepRegister
                | EventKind::DepRelease
                | EventKind::UserMarker
                | EventKind::ReplayCacheHit
                | EventKind::ReplayGiveUp => {}
            }
        }
        // Close any open interval (and phase window) at the trace end.
        for core in 0..ncores as usize {
            let state = cur[core].0;
            switch(core, end, state, &mut intervals, &mut per_core, &mut cur);
        }
        close_phase(&mut open_phase, end, &mut phases);
        Self {
            ncores,
            span: (start, end),
            intervals,
            per_core,
            serves,
            drains,
            phases,
        }
    }

    /// Number of cores.
    pub fn ncores(&self) -> u16 {
        self.ncores
    }

    /// (start, end) of the trace, ns.
    pub fn span(&self) -> (u64, u64) {
        self.span
    }

    /// Intervals of one core.
    pub fn core_intervals(&self, core: u16) -> &[Interval] {
        &self.intervals[core as usize]
    }

    /// Statistics of one core.
    pub fn core_stats(&self, core: u16) -> &CoreStats {
        &self.per_core[core as usize]
    }

    /// Sum of the per-core statistics.
    pub fn total_stats(&self) -> CoreStats {
        let mut t = CoreStats::default();
        for s in &self.per_core {
            t.running_ns += s.running_ns;
            t.creating_ns += s.creating_ns;
            t.scheduler_ns += s.scheduler_ns;
            t.idle_ns += s.idle_ns;
            t.interrupted_ns += s.interrupted_ns;
            t.taskwait_ns += s.taskwait_ns;
            t.tasks_run += s.tasks_run;
        }
        t
    }

    /// All DTLock serve events `(ns, served_worker)` — the yellow arrows.
    pub fn serves(&self) -> &[(u64, u64)] {
        &self.serves
    }

    /// All SPSC drain events `(ns, ntasks)` — green in Figure 10.
    pub fn drains(&self) -> &[(u64, u64)] {
        &self.drains
    }

    /// The record/replay phase windows of the trace, in time order —
    /// empty when the trace was not produced by `run_iterative` (or
    /// tracing was off during it).
    pub fn replay_phases(&self) -> &[PhaseSpan] {
        &self.phases
    }

    /// Aggregate core statistics restricted to the `[start, end)` window:
    /// interval time is clipped to the window; `tasks_run` counts task
    /// bodies that *started* inside it.
    pub fn stats_in(&self, start: u64, end: u64) -> CoreStats {
        let mut t = CoreStats::default();
        for core_ivs in &self.intervals {
            for iv in core_ivs {
                let overlap = iv.end.min(end).saturating_sub(iv.start.max(start));
                if overlap == 0 {
                    continue;
                }
                t.accumulate(iv.state, overlap, (start..end).contains(&iv.start));
            }
        }
        t
    }

    /// The record-vs-replay split of an iterative run: summed core
    /// statistics (and total wall-clock ns) over every record window and
    /// every replay window. `None` when the trace has no phase events.
    ///
    /// One pass over the intervals: each interval binary-searches its
    /// first overlapping window (the windows are disjoint and
    /// time-ordered) instead of every window rescanning every interval —
    /// `O(intervals · (log windows + overlaps))`, linear for the typical
    /// interval-inside-one-window trace.
    pub fn record_vs_replay(&self) -> Option<(PhaseStats, PhaseStats)> {
        if self.phases.is_empty() {
            return None;
        }
        let mut rec = PhaseStats::default();
        let mut rep = PhaseStats::default();
        for p in &self.phases {
            let side = match p.phase {
                ReplayPhase::Record => &mut rec,
                ReplayPhase::Replay => &mut rep,
            };
            side.windows += 1;
            side.wall_ns += p.len();
        }
        for core_ivs in &self.intervals {
            for iv in core_ivs {
                // First window that ends after the interval starts.
                let first = self.phases.partition_point(|p| p.end <= iv.start);
                for p in &self.phases[first..] {
                    if p.start >= iv.end {
                        break;
                    }
                    let overlap = iv.end.min(p.end).saturating_sub(iv.start.max(p.start));
                    if overlap == 0 {
                        continue;
                    }
                    let side = match p.phase {
                        ReplayPhase::Record => &mut rec,
                        ReplayPhase::Replay => &mut rep,
                    };
                    side.stats
                        .accumulate(iv.state, overlap, (p.start..p.end).contains(&iv.start));
                }
            }
        }
        Some((rec, rep))
    }

    /// Histogram of serve events over `bins` equal time windows: the
    /// "yellow lines pattern" Figure 11 reads (irregular before the
    /// interrupt, regular after).
    pub fn serve_histogram(&self, bins: usize) -> Vec<u64> {
        let mut hist = vec![0u64; bins.max(1)];
        let (s, e) = self.span;
        let width = (e - s).max(1);
        for &(ns, _) in &self.serves {
            let idx = ((ns - s) as u128 * bins as u128 / width as u128) as usize;
            hist[idx.min(bins - 1)] += 1;
        }
        hist
    }

    /// Render the timeline as ASCII art: one row per core, `width`
    /// columns, glyph = dominant state in each time bin. Legend:
    /// `R` running, `C` creating, `s` scheduler, `.` starving,
    /// `!` interrupted, `w` taskwait.
    #[allow(clippy::needless_range_loop)] // bin index is used for time math
    pub fn render_ascii(&self, width: usize) -> String {
        let width = width.max(1);
        let (s, e) = self.span;
        let span = (e - s).max(1);
        let mut out = String::new();
        for core in 0..self.ncores as usize {
            let mut dominant = vec![(CoreState::Other, 0u64); width];
            for iv in &self.intervals[core] {
                let b0 = ((iv.start - s) as u128 * width as u128 / span as u128) as usize;
                let b1 = ((iv.end - s) as u128 * width as u128 / span as u128) as usize;
                for b in b0..=b1.min(width - 1) {
                    // Bin boundaries in ns:
                    let bin_start = s + (b as u64 * span) / width as u64;
                    let bin_end = s + ((b + 1) as u64 * span) / width as u64;
                    let overlap = iv.end.min(bin_end).saturating_sub(iv.start.max(bin_start));
                    if overlap > dominant[b].1 {
                        dominant[b] = (iv.state, overlap);
                    }
                }
            }
            out.push_str(&format!("core {core:>3} |"));
            for (state, _) in dominant {
                out.push(state.glyph());
            }
            out.push_str("|\n");
        }
        out
    }
}

/// Where a run's time went, per sample, in ns: three layers of a task's
/// life read from the trace alone (see [`layers`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Layers {
    /// One sample per task body that ended: `TaskStart` → `TaskEnd` of
    /// the same id on one core. A span holds the tasks its taskwait ran.
    pub body_ns: Vec<u64>,
    /// One sample per task handed to the scheduler that started:
    /// `AddReady` → `TaskStart` of the same id, on any cores. The root is
    /// never added, so it has none.
    pub queue_wait_ns: Vec<u64>,
    /// One sample per iteration fed from a frozen graph (replayed or
    /// diverged): `ReplayIterBegin` → the first `TaskwaitBegin` on that
    /// core whose payload is the outermost task open there (the root),
    /// or → `ReplayIterEnd` when there is none. So a diverged
    /// iteration's sample ends at its divergence barrier, and one whose
    /// tasks had all finished ends after the engine's bookkeeping.
    pub feed_ns: Vec<u64>,
}

/// Rebuild the [`Layers`] of a trace. Task spans are matched per core
/// innermost-first, as the Perfetto exporter matches them, since a
/// taskwait nests the spans of the tasks it runs.
pub fn layers(trace: &Trace) -> Layers {
    let mut out = Layers::default();
    // Per core: open task spans (id, start), innermost last, and the
    // open feed window (start, root id).
    let mut open: HashMap<u16, Vec<(u64, u64)>> = HashMap::new();
    let mut feed: HashMap<u16, (u64, Option<u64>)> = HashMap::new();
    // Task id -> when it was handed to the scheduler.
    let mut ready: HashMap<u64, u64> = HashMap::new();
    for e in trace.events() {
        let spans = open.entry(e.core).or_default();
        match e.kind {
            EventKind::AddReady => {
                ready.insert(e.payload, e.ns);
            }
            EventKind::TaskStart => {
                if let Some(at) = ready.remove(&e.payload) {
                    out.queue_wait_ns.push(e.ns.saturating_sub(at));
                }
                spans.push((e.payload, e.ns));
            }
            EventKind::TaskEnd => {
                if let Some(i) = spans.iter().rposition(|&(id, _)| id == e.payload) {
                    let (_, start) = spans.remove(i);
                    out.body_ns.push(e.ns.saturating_sub(start));
                }
            }
            EventKind::ReplayIterBegin => {
                feed.insert(e.core, (e.ns, spans.first().map(|&(id, _)| id)));
            }
            EventKind::TaskwaitBegin | EventKind::ReplayIterEnd => {
                if let Some(&(start, root)) = feed.get(&e.core)
                    && (e.kind == EventKind::ReplayIterEnd || root == Some(e.payload))
                {
                    feed.remove(&e.core);
                    out.feed_ns.push(e.ns.saturating_sub(start));
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn ev(ns: u64, core: u16, kind: EventKind, payload: u64) -> Event {
        Event {
            ns,
            payload,
            core,
            kind,
        }
    }

    fn simple_trace() -> Trace {
        Trace::from_events(
            2,
            vec![
                ev(0, 0, EventKind::TaskStart, 1),
                ev(100, 0, EventKind::TaskEnd, 1),
                ev(100, 0, EventKind::IdleBegin, 0),
                ev(200, 0, EventKind::IdleEnd, 0),
                ev(0, 1, EventKind::SchedEnter, 1),
                ev(50, 1, EventKind::SchedServe, 0),
                ev(60, 1, EventKind::SchedDrain, 4),
                ev(80, 1, EventKind::SchedExit, 1),
                ev(80, 1, EventKind::TaskStart, 2),
                ev(200, 1, EventKind::TaskEnd, 2),
            ],
        )
    }

    /// Root 1 on core 0 feeds one replayed iteration; task 2 waits in the
    /// queue, runs on core 1 and takes its own taskwait, during which
    /// task 3 runs nested. A second iteration's tasks had all finished,
    /// so its feed ends at `ReplayIterEnd`.
    #[test]
    fn layers_match_spans_and_close_feeds_at_the_root_taskwait() {
        use EventKind::*;
        let trace = Trace::from_events(
            2,
            vec![
                ev(0, 0, TaskStart, 1),
                ev(10, 0, ReplayIterBegin, 0),
                ev(20, 0, AddReady, 2),
                ev(25, 0, AddReady, 3),
                ev(40, 0, TaskwaitBegin, 1),
                ev(50, 1, TaskStart, 2),
                ev(60, 1, TaskwaitBegin, 2),
                ev(65, 1, TaskStart, 3),
                ev(75, 1, TaskEnd, 3),
                ev(80, 1, TaskwaitEnd, 2),
                ev(90, 1, TaskEnd, 2),
                ev(95, 0, TaskwaitEnd, 1),
                ev(100, 0, ReplayIterEnd, 0),
                ev(110, 0, ReplayIterBegin, 1),
                ev(130, 0, ReplayIterEnd, 1),
                ev(140, 0, TaskEnd, 1),
            ],
        );
        let l = layers(&trace);
        assert_eq!(l.body_ns, [10, 40, 140]);
        assert_eq!(l.queue_wait_ns, [30, 40]);
        assert_eq!(l.feed_ns, [30, 20]);
    }

    #[test]
    fn per_core_accounting() {
        let tl = Timeline::build(&simple_trace());
        let c0 = tl.core_stats(0);
        assert_eq!(c0.running_ns, 100);
        assert_eq!(c0.idle_ns, 100);
        assert_eq!(c0.tasks_run, 1);
        let c1 = tl.core_stats(1);
        assert_eq!(c1.scheduler_ns, 80);
        assert_eq!(c1.running_ns, 120);
        assert_eq!(c1.tasks_run, 1);
    }

    #[test]
    fn serves_and_drains_collected() {
        let tl = Timeline::build(&simple_trace());
        assert_eq!(tl.serves(), &[(50, 0)]);
        assert_eq!(tl.drains(), &[(60, 4)]);
    }

    #[test]
    fn utilisation_and_starvation_fractions() {
        let tl = Timeline::build(&simple_trace());
        let c0 = tl.core_stats(0);
        assert!((c0.utilisation() - 0.5).abs() < 1e-9);
        assert!((c0.starvation() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn total_stats_sums_cores() {
        let tl = Timeline::build(&simple_trace());
        let t = tl.total_stats();
        assert_eq!(t.tasks_run, 2);
        assert_eq!(t.running_ns, 220);
    }

    #[test]
    fn serve_histogram_bins() {
        let tl = Timeline::build(&simple_trace());
        let h = tl.serve_histogram(4);
        assert_eq!(h.iter().sum::<u64>(), 1);
        // Serve at t=50 of span [0,200] lands in bin 1 of 4.
        assert_eq!(h[1], 1);
    }

    #[test]
    fn ascii_rendering_has_one_row_per_core() {
        let tl = Timeline::build(&simple_trace());
        let art = tl.render_ascii(40);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('R'));
        assert!(lines[0].contains('.'));
        assert!(lines[1].contains('s'));
    }

    #[test]
    fn empty_trace_builds() {
        let tl = Timeline::build(&Trace::from_events(1, vec![]));
        assert_eq!(tl.total_stats(), CoreStats::default());
        let art = tl.render_ascii(10);
        assert_eq!(art.lines().count(), 1);
    }

    #[test]
    fn interrupt_intervals_tracked() {
        let t = Trace::from_events(
            1,
            vec![
                ev(0, 0, EventKind::TaskStart, 1),
                ev(10, 0, EventKind::KernelInterruptBegin, 0),
                ev(60, 0, EventKind::KernelInterruptEnd, 0),
                ev(100, 0, EventKind::TaskEnd, 1),
            ],
        );
        let tl = Timeline::build(&t);
        assert_eq!(tl.core_stats(0).interrupted_ns, 50);
    }

    #[test]
    fn replay_phase_spans_reconstructed() {
        let t = Trace::from_events(
            1,
            vec![
                ev(0, 0, EventKind::ReplayRecordBegin, 0),
                ev(10, 0, EventKind::TaskStart, 1),
                ev(90, 0, EventKind::TaskEnd, 1),
                // Payload of RecordEnd is the captured task count.
                ev(100, 0, EventKind::ReplayRecordEnd, 1),
                ev(100, 0, EventKind::ReplayIterBegin, 1),
                ev(110, 0, EventKind::TaskStart, 2),
                ev(140, 0, EventKind::TaskEnd, 2),
                ev(150, 0, EventKind::ReplayIterEnd, 1),
                ev(150, 0, EventKind::ReplayIterBegin, 2),
                ev(160, 0, EventKind::TaskStart, 3),
                ev(190, 0, EventKind::TaskEnd, 3),
                ev(200, 0, EventKind::ReplayIterEnd, 2),
            ],
        );
        let tl = Timeline::build(&t);
        let phases = tl.replay_phases();
        assert_eq!(phases.len(), 3);
        assert_eq!(
            (phases[0].phase, phases[0].iter, phases[0].len()),
            (ReplayPhase::Record, 0, 100)
        );
        assert_eq!(
            (phases[1].phase, phases[1].iter, phases[1].len()),
            (ReplayPhase::Replay, 1, 50)
        );
        let (rec, rep) = tl.record_vs_replay().expect("phases present");
        assert_eq!(rec.windows, 1);
        assert_eq!(rep.windows, 2);
        assert_eq!(rec.wall_ns, 100);
        assert_eq!(rep.wall_ns, 100);
        assert_eq!(rec.stats.running_ns, 80);
        assert_eq!(rep.stats.running_ns, 60);
        assert_eq!(rec.stats.tasks_run, 1);
        assert_eq!(rep.stats.tasks_run, 2);
        assert_eq!(rep.mean_window_ns(), 50);
    }

    #[test]
    fn unterminated_phase_closes_at_trace_end() {
        let t = Trace::from_events(
            1,
            vec![
                ev(0, 0, EventKind::ReplayIterBegin, 4),
                ev(10, 0, EventKind::TaskStart, 1),
                ev(50, 0, EventKind::TaskEnd, 1),
            ],
        );
        let tl = Timeline::build(&t);
        let phases = tl.replay_phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].end, 50);
        assert_eq!(phases[0].iter, 4);
    }

    #[test]
    fn stats_in_clips_intervals_to_window() {
        let tl = Timeline::build(&simple_trace());
        // Core 0 runs [0,100), idles [100,200): the [50,150) window sees
        // 50 ns of each.
        let s = tl.stats_in(50, 150);
        // Core 1 contributes scheduler [0,80) → 30 ns and running
        // [80,200) → 70 ns inside the window.
        assert_eq!(s.idle_ns, 50);
        assert_eq!(s.scheduler_ns, 30);
        assert_eq!(s.running_ns, 50 + 70);
        // Only core 1's task *starts* inside the window (at 80).
        assert_eq!(s.tasks_run, 1);
    }

    #[test]
    fn traces_without_phase_events_have_no_split() {
        let tl = Timeline::build(&simple_trace());
        assert!(tl.replay_phases().is_empty());
        assert!(tl.record_vs_replay().is_none());
    }

    #[test]
    fn interval_len_and_empty() {
        let iv = Interval {
            start: 5,
            end: 15,
            state: CoreState::Running,
        };
        assert_eq!(iv.len(), 10);
        assert!(!iv.is_empty());
        let z = Interval {
            start: 5,
            end: 5,
            state: CoreState::Idle,
        };
        assert!(z.is_empty());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::Trace;
    use crate::event::{Event, EventKind};
    use proptest::prelude::*;

    /// One busy segment on a core: `(state, duration, gap)` — which
    /// state the core occupies, for how long, and the unaccounted
    /// (`Other`) gap before the next segment.
    fn arb_segments() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
        proptest::collection::vec((0u8..4, 1u64..60, 0u64..20), 1..20)
    }

    /// Turn per-core segment lists into well-formed begin/end event
    /// pairs. Every `Running` interval starts at exactly one
    /// `TaskStart`, which is what makes `tasks_run` window-additive.
    fn build_events(per_core: &[Vec<(u8, u64, u64)>]) -> Vec<Event> {
        let mut events = Vec::new();
        let mut id = 0u64;
        for (core, segs) in per_core.iter().enumerate() {
            let core = core as u16;
            let mut t = 0u64;
            for &(state, dur, gap) in segs {
                let (begin, end) = match state {
                    0 => {
                        id += 1;
                        (EventKind::TaskStart, EventKind::TaskEnd)
                    }
                    1 => (EventKind::IdleBegin, EventKind::IdleEnd),
                    2 => (EventKind::SchedEnter, EventKind::SchedExit),
                    _ => (
                        EventKind::KernelInterruptBegin,
                        EventKind::KernelInterruptEnd,
                    ),
                };
                let payload = if state == 0 { id } else { 0 };
                events.push(Event {
                    ns: t,
                    payload,
                    core,
                    kind: begin,
                });
                events.push(Event {
                    ns: t + dur,
                    payload,
                    core,
                    kind: end,
                });
                t += dur + gap;
            }
        }
        events
    }

    proptest! {
        /// Clipped-window accounting is exact: any partition of the
        /// span into half-open windows sums ([`CoreStats::add`]) back
        /// to the unwindowed [`Timeline::total_stats`]. Durations of
        /// boundary-straddling intervals split across windows without
        /// loss or double counting, and each task is counted exactly
        /// once — in the window containing its start.
        #[test]
        fn window_partition_sums_to_total(
            per_core in proptest::collection::vec(arb_segments(), 1..4),
            cuts in proptest::collection::vec(any::<u64>(), 0..8),
        ) {
            let events = build_events(&per_core);
            let tl = Timeline::build(&Trace::from_events(per_core.len() as u32, events));
            let (start, end) = tl.span();
            // Cover every interval, including ones ending at `end`,
            // with half-open windows over [start, end + 1).
            let hi = end + 1;
            let mut bounds: Vec<u64> = cuts
                .into_iter()
                .map(|c| start + c % (hi - start).max(1))
                .collect();
            bounds.push(start);
            bounds.push(hi);
            bounds.sort_unstable();
            bounds.dedup();
            let mut summed = CoreStats::default();
            for w in bounds.windows(2) {
                summed.add(&tl.stats_in(w[0], w[1]));
            }
            prop_assert_eq!(summed, tl.total_stats());

            // A window collection that *misses* part of the span
            // undercounts — the equality above is not vacuous.
            if end > start + 2 {
                let mid = start + (end - start) / 2;
                let partial = tl.stats_in(start, mid);
                let total = tl.total_stats();
                prop_assert!(partial.accounted_ns() < total.accounted_ns());
            }
        }
    }
}
