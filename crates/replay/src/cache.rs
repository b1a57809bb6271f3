//! The [`GraphCache`]: an LRU of frozen [`ReplayGraph`]s keyed by
//! structural hash, plus the one-step phase predictor the engine uses to
//! pick the graph an alternating body will spawn *next*.
//!
//! The cache gives divergence hysteresis: a body alternating between a
//! few shapes (miniAMR-style refine/coarsen phases) does not re-record
//! on every flip, because a diverging iteration first probes for an
//! already-frozen graph that matches (by the first spawn's signature hash
//! mid-switch, or by the full structural hash after the fact) and only
//! re-records on a miss. A phase cycle longer than the capacity evicts on
//! every shape change, re-records every iteration and never replays. Each
//! entry also remembers the structural hash of the iteration that
//! *followed* it last time — for any stable phase cycle that fits in the
//! cache, predicting `next_of(current)` converges to full replay of
//! every phase.

use std::sync::Arc;

use crate::graph::ReplayGraph;

/// One cached frozen graph.
struct Entry {
    graph: Arc<ReplayGraph>,
    /// LRU stamp (monotonic use tick).
    last_used: u64,
    /// Iterations fully replayed from this graph.
    replays: u64,
    /// Structural hash of the iteration observed right after one of this
    /// graph's iterations — the phase predictor.
    next: Option<u64>,
}

/// A bounded LRU of frozen replay graphs, keyed by structural hash.
pub struct GraphCache {
    cap: usize,
    tick: u64,
    entries: Vec<Entry>,
    evictions: u64,
}

impl GraphCache {
    /// An empty cache holding at most `cap` graphs (min 1).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            tick: 0,
            entries: Vec::new(),
            evictions: 0,
        }
    }

    /// Graphs currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Graphs evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn touch(&mut self, idx: usize) {
        self.tick += 1;
        self.entries[idx].last_used = self.tick;
    }

    fn position(&self, hash: u64) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.graph.structural_hash() == hash)
    }

    /// Whether a graph with this structural hash is cached.
    pub fn contains(&self, hash: u64) -> bool {
        self.position(hash).is_some()
    }

    /// Look up a graph by structural hash (refreshes its LRU position).
    pub fn get(&mut self, hash: u64) -> Option<Arc<ReplayGraph>> {
        let idx = self.position(hash)?;
        self.touch(idx);
        Some(Arc::clone(&self.entries[idx].graph))
    }

    /// Look up a graph whose *first spawn* has signature hash `sig`,
    /// preferring the most recently used on ties (refreshes LRU). This
    /// is the mid-iteration phase-switch probe: when the first spawn of
    /// an iteration does not match the current graph, a cached graph
    /// starting with that spawn can be fed instead — before anything was
    /// committed to the wrong graph.
    pub fn get_by_first_sig(&mut self, sig: u64) -> Option<Arc<ReplayGraph>> {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.graph.first_sig() == Some(sig))
            .max_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i)?;
        self.touch(idx);
        Some(Arc::clone(&self.entries[idx].graph))
    }

    /// Insert a frozen graph, evicting the least recently used entry if
    /// the cache is full. Re-inserting an already-cached hash just
    /// refreshes it (replay counts survive).
    pub fn insert(&mut self, graph: Arc<ReplayGraph>) {
        if let Some(idx) = self.position(graph.structural_hash()) {
            self.entries[idx].graph = graph;
            self.touch(idx);
            return;
        }
        if self.entries.len() >= self.cap {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("cache is non-empty when full");
            self.entries.swap_remove(lru);
            self.evictions += 1;
        }
        self.tick += 1;
        self.entries.push(Entry {
            graph,
            last_used: self.tick,
            replays: 0,
            next: None,
        });
    }

    /// Drop the graph with this structural hash (not counted as an
    /// eviction). The engine calls this when an iteration of the graph
    /// faulted: a cancellation wave ran a subset of the recorded bodies,
    /// so the frozen schedule is no longer trusted and the next
    /// occurrence of the shape re-records from the dependency system.
    /// Dangling predictor edges
    /// pointing at the removed graph are harmless —
    /// [`GraphCache::predict_next`] resolves through `get`, which misses.
    pub fn invalidate(&mut self, hash: u64) {
        if let Some(idx) = self.position(hash) {
            self.entries.swap_remove(idx);
        }
    }

    /// Count one fully-replayed iteration against the graph with this
    /// structural hash.
    pub fn note_replay(&mut self, hash: u64) {
        if let Some(idx) = self.position(hash) {
            self.entries[idx].replays += 1;
            self.touch(idx);
        }
    }

    /// Teach the predictor that an iteration with hash `next` followed
    /// one with hash `prev` (no-op if `prev` is not cached — predictor
    /// state lives and dies with the cache entries, so it stays bounded).
    pub fn note_transition(&mut self, prev: u64, next: u64) {
        if let Some(idx) = self.position(prev) {
            self.entries[idx].next = Some(next);
        }
    }

    /// The graph predicted to follow an iteration with hash `hash`, if
    /// both the transition and the successor graph are cached.
    pub fn predict_next(&mut self, hash: u64) -> Option<Arc<ReplayGraph>> {
        let next = self.position(hash).and_then(|i| self.entries[i].next)?;
        self.get(next)
    }

    /// Per-graph replay counts for the currently cached graphs:
    /// `(structural_hash, tasks, replays)`, most recently used first.
    pub fn per_graph_replays(&self) -> Vec<(u64, usize, u64)> {
        let mut v: Vec<_> = self
            .entries
            .iter()
            .map(|e| {
                (
                    e.last_used,
                    e.graph.structural_hash(),
                    e.graph.len(),
                    e.replays,
                )
            })
            .collect();
        v.sort_unstable_by_key(|&(used, ..)| core::cmp::Reverse(used));
        v.into_iter().map(|(_, h, n, r)| (h, n, r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::CapturedSpawn;
    use nanotask_core::{AccessDecl, AccessMode};

    fn graph(addr: usize) -> Arc<ReplayGraph> {
        let captured = vec![CapturedSpawn::bare(
            "t",
            0,
            vec![AccessDecl::new(addr, 8, AccessMode::ReadWrite)],
        )];
        Arc::new(ReplayGraph::build(&captured, &[]))
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = GraphCache::new(2);
        let g = graph(0x10);
        let h = g.structural_hash();
        c.insert(Arc::clone(&g));
        assert!(c.contains(h));
        assert_eq!(c.get(h).unwrap().structural_hash(), h);
        assert!(c.get(h ^ 1).is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = GraphCache::new(2);
        let (a, b, d) = (graph(0x10), graph(0x20), graph(0x30));
        let (ha, hb, hd) = (
            a.structural_hash(),
            b.structural_hash(),
            d.structural_hash(),
        );
        c.insert(a);
        c.insert(b);
        // Touch `a` so `b` becomes the LRU victim.
        assert!(c.get(ha).is_some());
        c.insert(d);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.contains(ha) && c.contains(hd) && !c.contains(hb));
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let mut c = GraphCache::new(1);
        let g = graph(0x10);
        let h = g.structural_hash();
        c.insert(Arc::clone(&g));
        c.note_replay(h);
        c.insert(g);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.per_graph_replays(), vec![(h, 1, 1)]);
    }

    #[test]
    fn first_sig_lookup_prefers_most_recent() {
        let mut c = GraphCache::new(4);
        let (a, b) = (graph(0x10), graph(0x20));
        let sig_a = a.first_sig().unwrap();
        c.insert(Arc::clone(&a));
        c.insert(b);
        assert_eq!(
            c.get_by_first_sig(sig_a).unwrap().structural_hash(),
            a.structural_hash()
        );
        assert!(c.get_by_first_sig(sig_a ^ 1).is_none());
    }

    #[test]
    fn invalidate_drops_entry_and_dangling_predictions() {
        let mut c = GraphCache::new(4);
        let (a, b) = (graph(0x10), graph(0x20));
        let (ha, hb) = (a.structural_hash(), b.structural_hash());
        c.insert(a);
        c.insert(b);
        c.note_transition(ha, hb);
        c.invalidate(hb);
        assert!(!c.contains(hb));
        assert!(c.contains(ha));
        assert_eq!(c.evictions(), 0, "invalidation is not an eviction");
        assert!(
            c.predict_next(ha).is_none(),
            "dangling prediction resolves to a miss"
        );
        // Invalidating a missing hash is a no-op.
        c.invalidate(hb);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn predictor_follows_cached_transitions() {
        let mut c = GraphCache::new(4);
        let (a, b) = (graph(0x10), graph(0x20));
        let (ha, hb) = (a.structural_hash(), b.structural_hash());
        c.insert(a);
        c.insert(b);
        c.note_transition(ha, hb);
        c.note_transition(hb, ha);
        assert_eq!(c.predict_next(ha).unwrap().structural_hash(), hb);
        assert_eq!(c.predict_next(hb).unwrap().structural_hash(), ha);
        // Unknown transition or evicted successor: no prediction.
        assert!(c.predict_next(hb ^ 1).is_none());
    }
}
