//! The benchmark's own span timers, used only by traced children.
//!
//! Spans live in per-worker memory while the child measures and are
//! appended to `benchmark/results/spans-<workload>.jsonl` when the trial
//! ends. Hierarchy: `trial → rep → {spawn_loop, drain} → spawn_call`, with
//! `body` under `rep` (in `nested_tree` a body's own `spawn_call`s hang
//! under it). `handoff` and `taskwait` are latency intervals between two
//! tasks (predecessor end → successor start; last child end → taskwait
//! return), recorded under `rep`.

use std::io::Write;
use std::sync::Mutex;
use std::sync::OnceLock;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Trial,
    Rep,
    SpawnLoop,
    Drain,
    SpawnCall,
    Body,
    Handoff,
    Taskwait,
}

impl Name {
    pub fn label(self) -> &'static str {
        match self {
            Name::Trial => "trial",
            Name::Rep => "rep",
            Name::SpawnLoop => "spawn_loop",
            Name::Drain => "drain",
            Name::SpawnCall => "spawn_call",
            Name::Body => "body",
            Name::Handoff => "handoff",
            Name::Taskwait => "taskwait",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u32,
    /// 0 for the root.
    pub parent: u32,
    pub name: Name,
    pub worker: u16,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Most spans one worker keeps per trial; later ones are dropped (and
/// counted), so a long trial cannot grow without bound.
const MAX_SPANS_PER_WORKER: usize = 1 << 19;

#[derive(Default)]
struct WorkerBuf {
    spans: Vec<Span>,
    next_seq: u32,
    dropped: u64,
}

/// Span memory of one traced trial: one buffer per worker. A worker only
/// ever touches its own buffer, so the mutexes are never contended; they
/// exist to make that sharing safe without `unsafe`.
pub struct Spans {
    workers: Vec<Mutex<WorkerBuf>>,
}

impl Spans {
    pub fn new(workers: usize) -> Self {
        now_ns(); // fix the epoch before any worker reads the clock
        Self {
            workers: (0..workers).map(|_| Mutex::default()).collect(),
        }
    }

    fn buf(&self, worker: usize) -> std::sync::MutexGuard<'_, WorkerBuf> {
        self.workers[worker % self.workers.len()]
            .lock()
            .expect("a span buffer's owner panicked mid-push")
    }

    /// Record a finished span; returns its id (0 if it was dropped).
    pub fn record(
        &self,
        worker: usize,
        name: Name,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.reserve(worker);
        self.record_as(worker, id, name, parent, start_ns, end_ns);
        id
    }

    /// Take an id first, so children can name their parent before the
    /// parent's end is known.
    pub fn reserve(&self, worker: usize) -> u32 {
        let mut buf = self.buf(worker);
        buf.next_seq += 1;
        // Worker in the top byte: ids are unique without a shared counter.
        ((worker as u32 + 1) << 24) | (buf.next_seq & 0x00ff_ffff)
    }

    pub fn record_as(
        &self,
        worker: usize,
        id: u32,
        name: Name,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        let mut buf = self.buf(worker);
        if buf.spans.len() >= MAX_SPANS_PER_WORKER {
            buf.dropped += 1;
            return;
        }
        buf.spans.push(Span {
            id,
            parent,
            name,
            worker: worker as u16,
            start_ns,
            end_ns,
        });
    }

    /// All spans of the trial, by start time, and how many were dropped.
    pub fn drain(&self) -> (Vec<Span>, u64) {
        let mut all = Vec::new();
        let mut dropped = 0;
        for w in &self.workers {
            let mut buf = w.lock().expect("a span buffer's owner panicked mid-push");
            all.append(&mut buf.spans);
            dropped += buf.dropped;
        }
        all.sort_by_key(|s| (s.start_ns, s.id));
        (all, dropped)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (children may overlap each other and may stick
/// out of the parent; neither is counted twice or beyond the parent).
pub fn self_time_ns(span: &Span, children: &[Span]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .filter(|c| c.parent == span.id)
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    cuts.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in cuts {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    span.duration_ns() - covered
}

/// Self time of every `name` span. Spans are grouped by parent first so
/// the cost stays linear in the number of spans.
pub fn self_times_ns(spans: &[Span], name: Name) -> Vec<f64> {
    let mut by_parent: std::collections::HashMap<u32, Vec<Span>> = std::collections::HashMap::new();
    for s in spans {
        by_parent.entry(s.parent).or_default().push(*s);
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| self_time_ns(s, by_parent.get(&s.id).map_or(&[], Vec::as_slice)) as f64)
        .collect()
}

pub fn durations_ns(spans: &[Span], name: Name) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Spans of one trial that go to the file: the first reps' worth is
/// enough to read a timeline; the statistics use all of them in memory.
const MAX_SPANS_PER_TRIAL_IN_FILE: usize = 20_000;

/// Append one trial's spans (by start time, capped) to a JSON-lines file.
pub fn append_jsonl(path: &std::path::Path, trial: usize, spans: &[Span]) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans.iter().take(MAX_SPANS_PER_TRIAL_IN_FILE) {
        writeln!(
            out,
            "{{\"trial\":{trial},\"id\":{},\"parent\":{},\"name\":\"{}\",\"worker\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            s.name.label(),
            s.worker,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: Name, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            worker: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(1, 0, Name::Rep, 100, 200);
        let kids = [
            span(2, 1, Name::SpawnLoop, 110, 140),
            span(3, 1, Name::Drain, 130, 150), // overlaps the first by 10
            span(4, 1, Name::Body, 190, 260),  // sticks out by 60
            span(5, 1, Name::Body, 50, 90),    // entirely before: ignored
            span(6, 9, Name::Body, 100, 200),  // someone else's child
        ];
        // covered: [110,150) = 40 and [190,200) = 10
        assert_eq!(self_time_ns(&parent, &kids), 100 - 50);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        let full = [span(7, 1, Name::Drain, 0, 1000)];
        assert_eq!(self_time_ns(&parent, &full), 0);
    }

    #[test]
    fn self_times_group_children_by_parent() {
        let spans = [
            span(1, 0, Name::Body, 0, 100),
            span(2, 1, Name::SpawnCall, 10, 30),
            span(3, 1, Name::SpawnCall, 40, 50),
            span(4, 0, Name::Body, 200, 250),
        ];
        assert_eq!(self_times_ns(&spans, Name::Body), vec![70.0, 50.0]);
        assert_eq!(self_times_ns(&spans, Name::SpawnCall), vec![20.0, 10.0]);
        assert_eq!(durations_ns(&spans, Name::SpawnCall), vec![20.0, 10.0]);
    }

    #[test]
    fn ids_are_unique_across_workers_and_drain_sorts_by_start() {
        let spans = Spans::new(2);
        let a = spans.record(0, Name::Body, 0, 50, 60);
        let b = spans.record(1, Name::Body, 0, 10, 20);
        let c = spans.record(0, Name::Body, 0, 30, 40);
        assert!(a != b && b != c && a != c);
        let (all, dropped) = spans.drain();
        assert_eq!(dropped, 0);
        assert_eq!(
            all.iter().map(|s| s.start_ns).collect::<Vec<_>>(),
            vec![10, 30, 50]
        );
    }
}
