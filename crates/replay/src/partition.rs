//! Graph partitioning over a frozen [`ReplayGraph`]: the NUMA-aware
//! replay partitioning of the frozen schedule.
//!
//! Replay uniquely knows the *complete* future schedule of an iteration
//! — the one thing the online scheduler never has. This module exploits
//! it: the graph's nodes are split into one partition per NUMA node by a
//! deterministic greedy BFS growth from the roots, weighted by the
//! granule hints in each node's recorded access declarations and biased
//! toward keeping data-sharing tasks together (cut-edge/affinity
//! minimization). The replay engine then routes every released batch to
//! its partition's node through the scheduler's node-targeted insertion
//! (`add_ready_batch_to`), so a replayed iteration becomes a
//! locality-aware *static* schedule instead of landing wherever the
//! releasing worker happens to live.
//!
//! **Pick complexity.** [`Partitioning::compute`] drives the growth with
//! a score-indexed binary max-heap under lazy invalidation: affinity
//! scores only ever *increase* while one partition grows, so every score
//! change pushes a fresh heap entry and stale entries are discarded at
//! pop time — each pick is O(log n) heap work instead of a full
//! re-scoring scan of the ready frontier. The original full-rescan
//! partitioner (O(n²) on wide flat graphs) survives only as the test
//! oracle in this module's `tests`: both produce the *identical*
//! assignment (same scores, same tie-breaks — property-tested), and
//! [`PartitionStats`] counts `heap_ops` so the complexity claim is
//! machine-checkable.
//!
//! **Eviction survival.** A graph that re-enters the `GraphCache` after
//! eviction does not recompute from scratch:
//! [`Partitioning::compute_seeded`] adopts the evicted entry's saved
//! assignment (the graph is keyed by structural hash, so an unchanged
//! graph reuses 100 % of it) and only recomputes the bookkeeping —
//! worker caches stay warm across evictions.
//!
//! The partitioner runs once per frozen graph (cached in the
//! `GraphCache` entry) and is pure analysis: correctness never depends
//! on the partition — any assignment yields a valid execution because
//! readiness still comes from the graph's in-degree counters.

use crate::graph::ReplayGraph;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Operation counters of one partitioning computation — the
/// machine-checkable side of the O(n log n) claim and the
/// eviction-seeding claim. Excluded from [`Partitioning`]'s equality
/// (two computations are equal when their *assignments* agree,
/// regardless of how they were produced).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Heap pushes + pops performed (0 when the assignment was adopted
    /// from a seed).
    pub heap_ops: u64,
    /// This partitioning was seeded from a saved (evicted) assignment.
    pub seeded: bool,
    /// Nodes whose assignment was adopted from the seed (equals the
    /// graph size when the graph re-entered unchanged).
    pub seed_reused: usize,
}

/// A computed node→partition assignment of one frozen graph.
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// `assign[i]` = partition (NUMA node) of graph node `i`.
    assign: Vec<u32>,
    /// Number of partitions (≥ 1).
    parts: usize,
    /// Edges whose endpoints landed in different partitions.
    cut_edges: usize,
    /// Total node weight per partition.
    weights: Vec<u64>,
    /// Node count per partition.
    counts: Vec<usize>,
    /// How the computation went (not part of equality).
    stats: PartitionStats,
}

impl PartialEq for Partitioning {
    /// Assignment equality: two partitionings are equal when they place
    /// every node identically (stats — how many heap ops, seeded or not
    /// — are deliberately excluded; the heap/oracle parity tests compare
    /// exactly this).
    fn eq(&self, other: &Self) -> bool {
        self.assign == other.assign
            && self.parts == other.parts
            && self.cut_edges == other.cut_edges
            && self.weights == other.weights
            && self.counts == other.counts
    }
}

impl Eq for Partitioning {}

/// Weight of one graph node: the granule hint from its recorded access
/// declarations (total bytes declared), floored at 1 so empty-access
/// tasks still carry load-balancing weight.
fn node_weight(g: &ReplayGraph, i: usize) -> u64 {
    g.decls_of(i)
        .iter()
        .map(|d| d.len as u64)
        .sum::<u64>()
        .max(1)
}

/// Count edges whose endpoints live in different partitions (straight
/// CSR walk, no intermediate edge list).
fn count_cuts(graph: &ReplayGraph, assign: &[u32]) -> usize {
    let mut cuts = 0;
    for i in 0..graph.len() {
        for &s in graph.succs(i) {
            if assign[i] != assign[s as usize] {
                cuts += 1;
            }
        }
    }
    cuts
}

impl Partitioning {
    /// Partition `graph` into `parts` parts (clamped to `1..=len` for
    /// non-empty graphs) by greedy BFS growth from the roots.
    ///
    /// Deterministic algorithm: partitions are grown one at a time up to
    /// a balanced weight target. The frontier only ever contains nodes
    /// whose predecessors are all assigned (creation order is a
    /// topological order of the frozen graph, so the frontier can never
    /// dry up early). Among releasable nodes the growth prefers the one
    /// with the strongest affinity to the partition being grown — counted
    /// as incoming edges from nodes already inside it plus shared
    /// declared addresses (read-sharing creates no edge but still means
    /// shared data) — breaking ties by creation order.
    ///
    /// Each pick is served by a score-indexed max-heap with lazy
    /// invalidation: scores are monotonically non-decreasing while one
    /// partition grows, every increase pushes a fresh entry, and stale
    /// entries (stored score ≠ current score, or already assigned) are
    /// discarded at pop time: O(log n) per pick instead of a full
    /// frontier rescan.
    pub fn compute(graph: &ReplayGraph, parts: usize) -> Self {
        let n = graph.len();
        let parts = parts.max(1).min(n.max(1));
        let mut assign = vec![u32::MAX; n];
        let mut weights = vec![0u64; parts];
        let mut counts = vec![0usize; parts];
        let mut heap_ops = 0u64;

        if n > 0 {
            let node_w: Vec<u64> = (0..n).map(|i| node_weight(graph, i)).collect();
            let total: u64 = node_w.iter().sum();
            let target = total.div_ceil(parts as u64);

            // Remaining unassigned-predecessor count per node; nodes with
            // zero are releasable (the BFS frontier).
            let mut preds_left: Vec<u32> = graph.nodes().iter().map(|nd| nd.indeg).collect();
            // addr → declaring nodes, one entry per declaration
            // occurrence (duplicate addresses within one task count
            // twice, exactly like the test oracle's rescans over raw
            // decls).
            // Built once: O(total decls).
            let mut addr_nodes: HashMap<usize, Vec<u32>> = HashMap::new();
            for i in 0..n {
                for d in graph.decls_of(i) {
                    addr_nodes.entry(d.addr).or_default().push(i as u32);
                }
            }
            // Current affinity score per node, for the partition being
            // grown: 2 per incoming edge from the partition + 1 per decl
            // on an address the partition already touches.
            let mut score = vec![0u64; n];
            let mut heap: BinaryHeap<(u64, Reverse<usize>)> = BinaryHeap::with_capacity(n + 1);
            let mut assigned = 0usize;

            'parts: for part in 0..parts {
                let last = part == parts - 1;
                // Fresh partition: no members yet, so every unassigned
                // node's affinity restarts at zero. Rebuilding the heap
                // is a push of the current frontier — no scoring scan.
                heap.clear();
                for i in 0..n {
                    if assign[i] == u32::MAX {
                        score[i] = 0;
                        if preds_left[i] == 0 {
                            heap.push((0, Reverse(i)));
                            heap_ops += 1;
                        }
                    }
                }
                let mut part_addrs: HashSet<usize> = HashSet::new();

                while assigned < n && (last || weights[part] < target) {
                    // Pop until a live entry surfaces. Invariant: every
                    // releasable unassigned node has an entry carrying
                    // its *current* score (each increase pushed one), so
                    // the first live entry is the true frontier maximum —
                    // highest score, then creation order.
                    let cand = loop {
                        let Some((s, Reverse(i))) = heap.pop() else {
                            // Frontier exhausted ⇒ all nodes assigned
                            // (creation order is topological).
                            break 'parts;
                        };
                        heap_ops += 1;
                        if assign[i] == u32::MAX && s == score[i] {
                            break i;
                        }
                        // Stale: superseded by a later push, or placed.
                    };

                    assign[cand] = part as u32;
                    weights[part] += node_w[cand];
                    counts[part] += 1;
                    assigned += 1;

                    // Addresses newly shared with the partition raise the
                    // affinity of every node declaring them.
                    for d in graph.decls_of(cand) {
                        if part_addrs.insert(d.addr)
                            && let Some(list) = addr_nodes.get(&d.addr)
                        {
                            for &x in list {
                                let x = x as usize;
                                if assign[x] == u32::MAX {
                                    score[x] += 1;
                                    if preds_left[x] == 0 {
                                        heap.push((score[x], Reverse(x)));
                                        heap_ops += 1;
                                    }
                                }
                            }
                        }
                    }
                    // Successors gain edge affinity; the last predecessor
                    // also releases them into the frontier.
                    for &s in graph.succs(cand) {
                        let s = s as usize;
                        score[s] += 2;
                        preds_left[s] -= 1;
                        if preds_left[s] == 0 {
                            heap.push((score[s], Reverse(s)));
                            heap_ops += 1;
                        }
                    }
                }
            }
            debug_assert!(
                assign.iter().all(|&p| p != u32::MAX),
                "every node assigned (creation order is topological)"
            );
        }

        let cut_edges = count_cuts(graph, &assign);
        Self {
            assign,
            parts,
            cut_edges,
            weights,
            counts,
            stats: PartitionStats {
                heap_ops,
                ..PartitionStats::default()
            },
        }
    }

    /// Partition `graph` seeded from a previously computed assignment
    /// (eviction survival): when the seed matches the graph — same node
    /// count, same part count, every label in range — it is adopted
    /// wholesale and only the cut/weight bookkeeping is recomputed, so a
    /// graph re-entering the cache keeps the exact placement its worker
    /// caches are already warm for. A mismatched seed (structural-hash
    /// collision, changed part count) falls back to a fresh
    /// [`Partitioning::compute`]. `stats.seed_reused` counts the adopted
    /// nodes.
    pub fn compute_seeded(graph: &ReplayGraph, parts: usize, seed: &Partitioning) -> Self {
        let n = graph.len();
        let clamped = parts.max(1).min(n.max(1));
        let usable = seed.assign.len() == n
            && seed.parts == clamped
            && seed.assign.iter().all(|&p| (p as usize) < clamped);
        if !usable {
            let mut p = Self::compute(graph, parts);
            p.stats.seeded = true;
            return p;
        }
        let assign = seed.assign.clone();
        let mut weights = vec![0u64; clamped];
        let mut counts = vec![0usize; clamped];
        for (i, &p) in assign.iter().enumerate() {
            weights[p as usize] += node_weight(graph, i);
            counts[p as usize] += 1;
        }
        let cut_edges = count_cuts(graph, &assign);
        Self {
            assign,
            parts: clamped,
            cut_edges,
            weights,
            counts,
            stats: PartitionStats {
                seeded: true,
                seed_reused: n,
                ..PartitionStats::default()
            },
        }
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Partition (NUMA node) of graph node `i`.
    pub fn node_of(&self, i: usize) -> usize {
        self.assign[i] as usize
    }

    /// Edges crossing partition boundaries.
    pub fn cut_edges(&self) -> usize {
        self.cut_edges
    }

    /// Graph nodes in partition `p`.
    pub fn tasks_in(&self, p: usize) -> usize {
        self.counts[p]
    }

    /// Total node weight of partition `p`.
    pub fn weight_of(&self, p: usize) -> u64 {
        self.weights[p]
    }

    /// The full node→partition assignment, node index order.
    pub fn assignments(&self) -> &[u32] {
        &self.assign
    }

    /// Operation counters of the computation that produced this
    /// partitioning.
    pub fn stats(&self) -> PartitionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::CapturedSpawn;
    use nanotask_core::{AccessDecl, AccessMode};
    use proptest::prelude::*;

    fn cap(label: &'static str, decls: Vec<AccessDecl>) -> CapturedSpawn {
        CapturedSpawn::bare(label, 0, decls)
    }

    fn rw(addr: usize) -> AccessDecl {
        AccessDecl::new(addr, 8, AccessMode::ReadWrite)
    }
    fn rd(addr: usize) -> AccessDecl {
        AccessDecl::new(addr, 8, AccessMode::Read)
    }

    fn exact_cover(p: &Partitioning, n: usize) {
        assert_eq!(p.assignments().len(), n);
        let mut counts = vec![0usize; p.parts()];
        for i in 0..n {
            let part = p.node_of(i);
            assert!(part < p.parts(), "assignment in range");
            counts[part] += 1;
        }
        for (part, &count) in counts.iter().enumerate() {
            assert_eq!(count, p.tasks_in(part), "count bookkeeping");
        }
        assert_eq!(counts.iter().sum::<usize>(), n, "exact cover");
    }

    /// The original full-rescan partitioner, kept verbatim as the test
    /// oracle for [`Partitioning::compute`]: every pick re-scores the
    /// entire ready frontier (O(n²) on wide flat graphs). Returns the
    /// partitioning plus the number of full-frontier rescans it paid.
    fn compute_naive(graph: &ReplayGraph, parts: usize) -> (Partitioning, u64) {
        let n = graph.len();
        let parts = parts.max(1).min(n.max(1));
        let mut assign = vec![u32::MAX; n];
        let mut weights = vec![0u64; parts];
        let mut counts = vec![0usize; parts];
        let mut rescans = 0u64;

        if n > 0 {
            let total: u64 = (0..n).map(|i| node_weight(graph, i)).sum();
            let target = total.div_ceil(parts as u64);

            let mut preds_left: Vec<u32> = graph.nodes().iter().map(|nd| nd.indeg).collect();
            let mut ready: Vec<usize> = (0..n).filter(|&i| preds_left[i] == 0).collect();

            for part in 0..parts {
                // Data the affinity scoring of the current partition sees:
                // addresses its members declared so far.
                let mut part_addrs: HashSet<usize> = HashSet::new();
                // Incoming-edge count from the current partition, per
                // frontier candidate.
                let mut edge_gain: HashMap<usize, u32> = HashMap::new();
                let last = part == parts - 1;

                while !ready.is_empty() && (last || weights[part] < target) {
                    // Pick the releasable node with the best affinity to
                    // this partition; ties fall back to creation order.
                    // This is the full-frontier rescan the heap
                    // partitioner eliminates.
                    rescans += 1;
                    let pos = ready
                        .iter()
                        .enumerate()
                        .max_by_key(|&(_, &i)| {
                            let edges = edge_gain.get(&i).copied().unwrap_or(0) as u64;
                            let shared = graph
                                .decls_of(i)
                                .iter()
                                .filter(|d| part_addrs.contains(&d.addr))
                                .count() as u64;
                            // Creation order is the tiebreak: smaller
                            // index wins, encoded as a reversed key.
                            (edges * 2 + shared, Reverse(i))
                        })
                        .map(|(pos, _)| pos)
                        .expect("frontier non-empty");
                    let cand = ready.swap_remove(pos);

                    assign[cand] = part as u32;
                    weights[part] += node_weight(graph, cand);
                    counts[part] += 1;
                    for d in graph.decls_of(cand) {
                        part_addrs.insert(d.addr);
                    }
                    for &s in graph.succs(cand) {
                        let s = s as usize;
                        *edge_gain.entry(s).or_insert(0) += 1;
                        preds_left[s] -= 1;
                        if preds_left[s] == 0 {
                            ready.push(s);
                        }
                    }
                }
            }
            assert!(
                assign.iter().all(|&p| p != u32::MAX),
                "every node assigned (creation order is topological)"
            );
        }

        let cut_edges = count_cuts(graph, &assign);
        let p = Partitioning {
            assign,
            parts,
            cut_edges,
            weights,
            counts,
            stats: PartitionStats::default(),
        };
        (p, rescans)
    }

    /// Both partitioners on the same input: assignments must be
    /// identical, and the oracle pays at least one rescan per node.
    fn both(g: &ReplayGraph, parts: usize) -> Partitioning {
        let heap = Partitioning::compute(g, parts);
        let (naive, rescans) = compute_naive(g, parts);
        assert_eq!(heap, naive, "heap/oracle assignment parity");
        if !g.is_empty() {
            assert!(heap.stats().heap_ops > 0);
            assert!(rescans as usize >= g.len());
        }
        heap
    }

    #[test]
    fn empty_graph_partitions() {
        let g = ReplayGraph::build(&[], &[]);
        let p = both(&g, 4);
        assert_eq!(p.assignments().len(), 0);
        assert_eq!(p.cut_edges(), 0);
    }

    #[test]
    fn single_partition_takes_everything() {
        let g = ReplayGraph::build(&[cap("a", vec![rw(0x10)]), cap("b", vec![rw(0x10)])], &[]);
        let p = both(&g, 1);
        exact_cover(&p, 2);
        assert_eq!(p.cut_edges(), 0);
        assert_eq!(p.tasks_in(0), 2);
    }

    #[test]
    fn independent_chains_split_without_cuts() {
        // Two disjoint 3-task chains: the affinity growth must keep each
        // chain whole, giving a zero-cut 2-way partition.
        let mk = |addr: usize| cap("t", vec![rw(addr)]);
        let g = ReplayGraph::build(
            &[mk(0x10), mk(0x20), mk(0x10), mk(0x20), mk(0x10), mk(0x20)],
            &[],
        );
        let p = both(&g, 2);
        exact_cover(&p, 6);
        assert_eq!(p.cut_edges(), 0, "{:?}", p.assignments());
        assert_eq!(p.tasks_in(0), 3);
        assert_eq!(p.tasks_in(1), 3);
        // Each chain entirely inside one partition.
        assert_eq!(p.node_of(0), p.node_of(2));
        assert_eq!(p.node_of(2), p.node_of(4));
        assert_eq!(p.node_of(1), p.node_of(3));
        assert_ne!(p.node_of(0), p.node_of(1));
    }

    #[test]
    fn read_sharing_attracts_without_edges() {
        // Two independent writer groups, then readers of group A's
        // address interleaved with independent tasks: the readers share
        // no *edge* with each other but share A's address, so affinity
        // should co-locate them with the A side when balance allows.
        let g = ReplayGraph::build(
            &[
                cap("wa", vec![rw(0x10)]),
                cap("wb", vec![rw(0x20)]),
                cap("ra", vec![rd(0x10)]),
                cap("rb", vec![rd(0x20)]),
                cap("ra2", vec![rd(0x10)]),
                cap("rb2", vec![rd(0x20)]),
            ],
            &[],
        );
        let p = both(&g, 2);
        exact_cover(&p, 6);
        assert_eq!(p.cut_edges(), 0, "{:?}", p.assignments());
        assert_eq!(p.node_of(0), p.node_of(2));
        assert_eq!(p.node_of(0), p.node_of(4));
        assert_eq!(p.node_of(1), p.node_of(3));
        assert_eq!(p.node_of(1), p.node_of(5));
    }

    #[test]
    fn weights_balance_by_granule_hint() {
        // One heavy node (1 KiB decl) and four light ones, independent:
        // with 2 parts the heavy node should sit alone-ish while the
        // light ones gather on the other side.
        let heavy = cap(
            "h",
            vec![AccessDecl::new(0x100, 1024, AccessMode::ReadWrite)],
        );
        let light = |a: usize| cap("l", vec![rw(a)]);
        let g = ReplayGraph::build(
            &[heavy, light(0x10), light(0x20), light(0x30), light(0x40)],
            &[],
        );
        let p = both(&g, 2);
        exact_cover(&p, 5);
        let heavy_part = p.node_of(0);
        assert_eq!(p.tasks_in(heavy_part), 1, "{:?}", p.assignments());
        assert_eq!(p.tasks_in(1 - heavy_part), 4);
    }

    #[test]
    fn more_parts_than_nodes_clamps() {
        let g = ReplayGraph::build(&[cap("a", vec![rw(0x10)])], &[]);
        let p = both(&g, 8);
        assert_eq!(p.parts(), 1);
        exact_cover(&p, 1);
    }

    #[test]
    fn cut_count_matches_recount() {
        // A denser graph: serialized chain over one address + cross
        // readers; recount the cut from the assignment and compare.
        let g = ReplayGraph::build(
            &[
                cap("w1", vec![rw(0x10)]),
                cap("r1", vec![rd(0x10), rw(0x20)]),
                cap("r2", vec![rd(0x10), rw(0x30)]),
                cap("w2", vec![rw(0x10)]),
                cap("t1", vec![rw(0x20)]),
                cap("t2", vec![rw(0x30)]),
            ],
            &[],
        );
        for parts in 1..=4 {
            let p = both(&g, parts);
            exact_cover(&p, 6);
            let recount = g
                .edge_pairs()
                .iter()
                .filter(|&&(a, b)| p.node_of(a as usize) != p.node_of(b as usize))
                .count();
            assert_eq!(p.cut_edges(), recount, "parts={parts}");
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let g = ReplayGraph::build(
            &[
                cap("a", vec![rw(0x10)]),
                cap("b", vec![rw(0x20)]),
                cap("c", vec![rd(0x10), rd(0x20)]),
                cap("d", vec![rw(0x10)]),
            ],
            &[],
        );
        let p1 = both(&g, 2);
        let p2 = both(&g, 2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn wide_flat_graph_stays_n_log_n() {
        // The O(n²) regression shape: n independent tasks, empty
        // frontier affinity all the way. The heap partitioner must do
        // O(n log n) heap ops, while the oracle pays one full-frontier
        // rescan per pick.
        let n = 4096usize;
        let caps: Vec<CapturedSpawn> = (0..n)
            .map(|i| cap("flat", vec![rw(0x1000 + i * 8)]))
            .collect();
        let g = ReplayGraph::build(&caps, &[]);
        assert_eq!(g.edge_count(), 0, "wide and flat");
        let heap = Partitioning::compute(&g, 2);
        let (naive, rescans) = compute_naive(&g, 2);
        assert_eq!(heap, naive);
        exact_cover(&heap, n);
        let bound = 8 * (n as u64) * (usize::BITS - n.leading_zeros()) as u64;
        assert!(
            heap.stats().heap_ops <= bound,
            "heap ops {} within O(n log n) bound {}",
            heap.stats().heap_ops,
            bound
        );
        assert_eq!(rescans, n as u64, "one per pick");
    }

    #[test]
    fn seeded_compute_adopts_assignment_wholesale() {
        let mk = |addr: usize| cap("t", vec![rw(addr)]);
        let g = ReplayGraph::build(
            &[mk(0x10), mk(0x20), mk(0x10), mk(0x20), mk(0x10), mk(0x20)],
            &[],
        );
        let original = Partitioning::compute(&g, 2);
        let seeded = Partitioning::compute_seeded(&g, 2, &original);
        assert_eq!(seeded, original, "unchanged graph: identical placement");
        assert!(seeded.stats().seeded);
        assert_eq!(seeded.stats().seed_reused, 6, "100% reuse");
        assert_eq!(seeded.stats().heap_ops, 0, "no growth at all");
    }

    #[test]
    fn mismatched_seed_falls_back_to_fresh_compute() {
        let g = ReplayGraph::build(&[cap("a", vec![rw(0x10)]), cap("b", vec![rw(0x20)])], &[]);
        let seed = Partitioning::compute(&g, 1);
        // Wrong part count: recompute, but still flag the seed attempt.
        let p = Partitioning::compute_seeded(&g, 2, &seed);
        exact_cover(&p, 2);
        assert_eq!(p.parts(), 2);
        assert!(p.stats().seeded);
        assert_eq!(p.stats().seed_reused, 0, "nothing adopted");
        assert_eq!(p, Partitioning::compute(&g, 2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The heap partitioner and the full-rescan oracle place every
        /// node identically on randomized graphs (exact cover + cut
        /// parity are implied by full assignment equality, and asserted
        /// anyway).
        #[test]
        fn heap_partitioner_matches_naive_oracle(
            tasks in proptest::collection::vec(
                proptest::collection::vec((0usize..4, 0u8..3), 1..3),
                1..12,
            ),
        ) {
            let caps: Vec<CapturedSpawn> = tasks
                .iter()
                .map(|accs| {
                    let mut accs = accs.clone();
                    accs.dedup_by_key(|a| a.0);
                    let decls = accs
                        .iter()
                        .map(|&(a, m)| {
                            let mode = match m {
                                0 => AccessMode::Read,
                                1 => AccessMode::Write,
                                _ => AccessMode::ReadWrite,
                            };
                            AccessDecl::new(0x1000 + 8 * a, 8, mode)
                        })
                        .collect();
                    cap("t", decls)
                })
                .collect();
            let g = ReplayGraph::build(&caps, &[]);
            for parts in 1..=4usize {
                let heap = Partitioning::compute(&g, parts);
                let (naive, _) = compute_naive(&g, parts);
                prop_assert_eq!(&heap, &naive, "assignment parity, parts={}", parts);
                exact_cover(&heap, g.len());
                let recount = g
                    .edge_pairs()
                    .iter()
                    .filter(|&&(x, y)| heap.node_of(x as usize) != heap.node_of(y as usize))
                    .count();
                prop_assert_eq!(heap.cut_edges(), recount);
                prop_assert_eq!(naive.cut_edges(), recount);
            }
        }
    }
}
