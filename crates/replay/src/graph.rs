//! The frozen [`ReplayGraph`]: a compressed-sparse-row task graph plus
//! per-task atomic in-degree counters.
//!
//! The builder derives replay edges from the captured access sets with
//! the same semantics the dependency systems implement:
//!
//! * exclusive accesses (`write`/`readwrite`) serialize;
//! * consecutive readers form a *group* that runs concurrently and is
//!   collectively a predecessor of the next exclusive access;
//! * consecutive same-op reductions form a group that runs concurrently
//!   on private per-worker slots and is combined into the target once,
//!   when its last member finishes (see the engine).
//!
//! **Steady-state layout.** Everything a replayed iteration walks lives
//! in shared CSR arenas built once at freeze time — successor lists
//! (`succ_off`/`succ_data`), access declarations (`decl_off`/
//! `decl_data`) and reduction memberships (`red_off`/`red_data`) are
//! contiguous slices indexed by node, not per-node heap vectors. No
//! per-node allocation survives freezing, successor walks are linear
//! scans, and the per-iteration reset of the in-degree counters is a
//! single `memcpy` from a precomputed template ([`ReplayGraph::reset`]).
//!
//! The graph also owns what a replayed iteration mutates — in-degree
//! counters, each node's held task, one reduction chain per group —
//! armed once and re-armed in place by [`ReplayGraph::reset`], and is
//! the root's held-children [`TaskEpilogue`]: a fed task carries only
//! its node index.
//!
//! The edges come from the captured access sets alone. The replay
//! engine detects tasks its capture did not see by counting them (the
//! `tasks_created` delta minus the spawns it was offered), not by
//! comparing against the dependency system's edges.

use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

use nanotask_core::deps::reduction::ReductionInfo;
use nanotask_core::fxhash::FxHashMap;
use nanotask_core::graph::GraphEdge;
use nanotask_core::task::Task;
use nanotask_core::{AccessDecl, AccessMode, HeldTask, OfferedTask, RedOp, TaskCtx, TaskEpilogue};

use crate::recorder::{CapturedSpawn, STRUCTURAL_HASH_SEED, mix, spawn_sig_hash};

/// Scalar metadata of one frozen node (creation order = node index).
/// Variable-length data — successors, declarations, reduction
/// memberships — lives in the graph's CSR arenas, reached through
/// [`ReplayGraph::succs`], [`ReplayGraph::decls_of`] and
/// [`ReplayGraph::red_of`].
pub struct NodeMeta {
    /// Task label.
    pub label: &'static str,
    /// Scheduling priority.
    pub priority: i32,
    /// Signature hash of (label, priority, access set) — what the replay
    /// engine matches incoming spawns against.
    pub sig: u64,
    /// Number of predecessor edges.
    pub indeg: u32,
}

/// A reduction chain instance: consecutive same-op reduction accesses on
/// one address within the iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedGroup {
    /// Target base address.
    pub addr: usize,
    /// Region length in bytes.
    pub len: usize,
    /// The operation.
    pub op: RedOp,
    /// Number of participating tasks.
    pub members: u32,
}

/// In-degree counter bit that poisons its node (the replay mirror of the
/// dependency systems' failure poisoning): a failed or cancelled task
/// sets it on each successor before dropping its reference there, and
/// the last reference marks the released task cancelled. Every counter
/// RMW reads the latest value, so the bit needs no ordering of its own;
/// the `memcpy` reset clears it. Counts stay far below it: a task holds
/// at most `TaskState::MAX_CHILDREN` (2^24) children, one per node.
const POISONED: u32 = 1 << 31;

/// One reduction group's chain for the current iteration: private
/// per-worker slots, folded into the target by the last member.
struct GroupState {
    info: ReductionInfo,
    /// Members that have not finished yet.
    remaining: AtomicU32,
}

/// The frozen, replayable task graph of one iteration.
pub struct ReplayGraph {
    /// Per-node scalars, creation order.
    meta: Vec<NodeMeta>,
    /// CSR successor arena: node `i`'s successors are
    /// `succ_data[succ_off[i]..succ_off[i + 1]]`.
    succ_off: Vec<u32>,
    succ_data: Vec<u32>,
    /// CSR declaration arena (bare, no chain state): one contiguous copy
    /// of every recorded access set.
    decl_off: Vec<u32>,
    decl_data: Vec<AccessDecl>,
    /// CSR reduction arena: `(target address, group index)` memberships.
    red_off: Vec<u32>,
    red_data: Vec<(usize, u32)>,
    groups: Vec<RedGroup>,
    hash: u64,
    edges: usize,
    /// Precomputed reset image of `pending`: `indeg + 1` per node (the
    /// +1 is the creation hold, dropped by the engine after the node's
    /// held task exists). One `memcpy` of this restores all counters.
    pending_template: Vec<u32>,
    /// In-degree countdown per node for the current iteration, plus the
    /// [`POISONED`] bit.
    pending: Vec<AtomicU32>,
    /// The held task of each node for the current iteration.
    slots: Vec<AtomicPtr<Task>>,
    /// One chain per group for the current iteration; empty until the
    /// engine arms the graph ([`ReplayGraph::arm`]).
    red_state: Box<[GroupState]>,
}

/// Sentinel for an unassigned [`AddrIndex`] dense-table slot.
const ADDR_UNASSIGNED: u32 = u32::MAX;

/// Address → dense state index for the freeze sweep.
///
/// Applications register dependencies on their own data structures —
/// overwhelmingly contiguous arrays — so the address set almost always
/// spans a compact, uniformly aligned range. A direct-mapped table over
/// `(addr - min) >> alignment` turns the per-access map probe (at 10^6
/// addresses: a guaranteed cache miss into a tens-of-MB hash table, the
/// dominant freeze cost) into one indexed load with the application's
/// own locality. The hash map stays as the fallback for sparse or
/// irregular address sets.
enum AddrIndex {
    Dense {
        min: usize,
        shift: u32,
        table: Vec<u32>,
    },
    Map(FxHashMap<usize, u32>),
}

impl AddrIndex {
    /// Pick the representation from the address range observed in the
    /// first pass: the `min..=max` span and the XOR-accumulated
    /// alignment of all address differences. Dense wins whenever the
    /// aligned span stays within a small multiple of the access count —
    /// the table is then at most a few times the size the hash map
    /// would have been, with none of its probe misses.
    fn new(min: usize, max: usize, xor: usize, accesses: usize) -> Self {
        if accesses == 0 {
            return Self::Map(FxHashMap::default());
        }
        let shift = if xor == 0 { 0 } else { xor.trailing_zeros() };
        let table_len = ((max - min) >> shift) + 1;
        if table_len <= accesses.saturating_mul(4) + 1024 {
            Self::Dense {
                min,
                shift,
                table: vec![ADDR_UNASSIGNED; table_len],
            }
        } else {
            Self::Map(FxHashMap::default())
        }
    }

    /// The assignment slot for `addr` (`ADDR_UNASSIGNED` when no state
    /// index has been handed out yet).
    #[inline]
    fn slot(&mut self, addr: usize) -> &mut u32 {
        match self {
            Self::Dense { min, shift, table } => &mut table[(addr - *min) >> *shift],
            Self::Map(m) => m.entry(addr).or_insert(ADDR_UNASSIGNED),
        }
    }
}

/// Node list with two inline slots. Barrier/group sets are almost
/// always tiny (a single writer, a pair of stencil readers); keeping
/// them inline means single-access addresses — the common case at
/// million-task scale — cost the builder zero heap allocations.
#[derive(Default)]
struct TinyVec {
    inline: [u32; 2],
    len: u8,
    spill: Vec<u32>,
}

impl TinyVec {
    #[inline]
    fn push(&mut self, v: u32) {
        if !self.spill.is_empty() {
            self.spill.push(v);
        } else if (self.len as usize) < 2 {
            self.inline[self.len as usize] = v;
            self.len += 1;
        } else {
            self.spill.extend_from_slice(&self.inline);
            self.spill.push(v);
        }
    }

    #[inline]
    fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0 && self.spill.is_empty()
    }

    #[inline]
    fn as_slice(&self) -> &[u32] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }
}

/// Per-address sweep state of the builder. Stored in a dense first-touch
/// array (the hash table maps address → index only): the table entries
/// stay small enough to cache at million-address scale, and first-touch
/// order matches the application's own traversal, so neighbour lookups
/// (stencils, wavefronts) land near each other instead of at random
/// hash positions.
struct AddrState {
    /// The completed exclusive set every current-group member depends on.
    barrier: TinyVec,
    /// The currently accumulating concurrent group.
    group: TinyVec,
    class: GroupClass,
}

impl Default for AddrState {
    fn default() -> Self {
        Self {
            barrier: TinyVec::default(),
            group: TinyVec::default(),
            class: GroupClass::Exclusive,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupClass {
    Exclusive,
    Readers,
    Red(RedOp, usize),
}

/// Merge two access modes of *one task* on *one address* into the
/// effective mode: equal modes keep themselves, anything mixed is
/// exclusive. (Duplicate addresses within a task are a contract
/// violation the dependency systems `debug_assert` against; the replay
/// builder must still never emit a self-edge for them.)
fn merge_modes(a: AccessMode, b: AccessMode) -> AccessMode {
    if a == b { a } else { AccessMode::ReadWrite }
}

/// A declaration stripped of any attached reduction-chain state (replay
/// graphs never own chain instances — the engine attaches fresh ones per
/// iteration).
fn bare_decl(d: &AccessDecl) -> AccessDecl {
    AccessDecl::new(d.addr, d.len, d.mode)
}

/// One task's declarations with duplicate addresses coalesced
/// (first-occurrence order, strongest mode wins), written into a
/// caller-owned scratch buffer so the freeze sweep performs no per-node
/// allocation.
fn coalesce_into(decls: &[AccessDecl], eff: &mut Vec<AccessDecl>) {
    eff.clear();
    for d in decls {
        if let Some(prev) = eff.iter_mut().find(|p| p.addr == d.addr) {
            prev.mode = merge_modes(prev.mode, d.mode);
            prev.len = prev.len.max(d.len);
        } else {
            eff.push(d.clone());
        }
    }
}

impl ReplayGraph {
    /// Freeze a captured iteration. `_tap` is ignored: it is kept only
    /// because the benchmark's `freeze` probe calls
    /// `build(captured, &[])`, and goes when that call does.
    pub fn build(captured: &[CapturedSpawn], _tap: &[GraphEdge]) -> Self {
        let n = captured.len();
        // One pass over the captured spawns builds both the per-node
        // scalars (label, priority, signature hash) and the declaration
        // arena — the bare access sets, one contiguous run per node (the
        // partitioner indexes into it). After a long
        // record iteration the captured decl vectors sit scattered across
        // the heap in allocation order; every separate sweep over them
        // re-pays those cache misses, so everything downstream (the edge
        // sweep, the structural hash) reads the contiguous arena or the
        // already-computed sigs instead of touching `captured` again.
        let mut meta: Vec<NodeMeta> = Vec::with_capacity(n);
        let mut decl_off: Vec<u32> = Vec::with_capacity(n + 1);
        let mut decl_data: Vec<AccessDecl> = Vec::new();
        decl_off.push(0);
        // Address-range statistics for [`AddrIndex`]: min/max give the
        // span; the XOR of every address against the first gives the
        // common alignment of all pairwise differences (`x ^ y` with k
        // trailing zeros ⇒ `x ≡ y (mod 2^k)`), order-independently and
        // with no per-address storage.
        let mut addr_min = usize::MAX;
        let mut addr_max = 0usize;
        let mut addr_xor = 0usize;
        let mut addr_first = None;
        for c in captured {
            let ds = &c.decls;
            meta.push(NodeMeta {
                label: c.label,
                priority: c.priority,
                sig: spawn_sig_hash(c.label, c.priority, ds),
                indeg: 0,
            });
            for d in ds {
                let first = *addr_first.get_or_insert(d.addr);
                addr_xor |= d.addr ^ first;
                addr_min = addr_min.min(d.addr);
                addr_max = addr_max.max(d.addr);
            }
            decl_data.extend(ds.iter().map(bare_decl));
            decl_off.push(decl_data.len() as u32);
        }

        let mut groups: Vec<RedGroup> = Vec::new();
        let mut red_off: Vec<u32> = Vec::with_capacity(n + 1);
        let mut red_data: Vec<(usize, u32)> = Vec::new();
        red_off.push(0);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut per_addr = AddrIndex::new(addr_min, addr_max, addr_xor, decl_data.len());
        let mut addr_states: Vec<AddrState> = Vec::new();
        // Generation-time dedup: edges into node `i` are only emitted
        // while sweeping node `i`, so one stamp per predecessor suffices —
        // `stamp[from] == i + 1` marks `(from, i)` as already recorded.
        // This replaces the former O(E log E) sort+dedup of the edge list
        // with O(E) work total.
        let mut stamp: Vec<u32> = vec![0; n];
        // Out-degree per node, reused as the counting-sort cursor below.
        let mut succ_count: Vec<u32> = vec![0; n];
        // Per-node coalesce scratch (no transient allocation per node).
        let mut eff: Vec<AccessDecl> = Vec::new();

        for i in 0..n {
            // The arena copy made above carries everything this sweep
            // needs (addr/len/mode) — read it, not the scattered
            // captured vectors.
            let node_decls = &decl_data[decl_off[i] as usize..decl_off[i + 1] as usize];
            let i = i as u32;
            let mut push_edge = |from: u32| {
                debug_assert!(from < i, "edges point forward in creation order");
                if stamp[from as usize] != i + 1 {
                    stamp[from as usize] = i + 1;
                    succ_count[from as usize] += 1;
                    meta[i as usize].indeg += 1;
                    edges.push((from, i));
                }
            };
            coalesce_into(node_decls, &mut eff);
            for d in &eff {
                let class = match d.mode {
                    AccessMode::Read => GroupClass::Readers,
                    AccessMode::Reduction(op) => {
                        // Group index resolved below (joins or new).
                        GroupClass::Red(op, usize::MAX)
                    }
                    _ => GroupClass::Exclusive,
                };
                let slot = per_addr.slot(d.addr);
                if *slot == ADDR_UNASSIGNED {
                    addr_states.push(AddrState::default());
                    *slot = (addr_states.len() - 1) as u32;
                }
                let si = *slot;
                let st = &mut addr_states[si as usize];
                let joins = !st.group.is_empty()
                    && match (st.class, class) {
                        (GroupClass::Readers, GroupClass::Readers) => true,
                        (GroupClass::Red(a, _), GroupClass::Red(b, _)) => a == b,
                        _ => false,
                    };
                if joins {
                    for &b in st.barrier.as_slice() {
                        push_edge(b);
                    }
                    st.group.push(i);
                } else {
                    for &g in st.group.as_slice() {
                        push_edge(g);
                    }
                    // Rotate group → barrier keeping both buffers (the
                    // former `mem::take` dropped one allocation per
                    // rotation per address).
                    std::mem::swap(&mut st.barrier, &mut st.group);
                    st.group.clear();
                    st.group.push(i);
                    st.class = match class {
                        GroupClass::Red(op, _) => {
                            groups.push(RedGroup {
                                addr: d.addr,
                                len: d.len.max(op.elem_size()),
                                op,
                                members: 0,
                            });
                            GroupClass::Red(op, groups.len() - 1)
                        }
                        other => other,
                    };
                }
                if let GroupClass::Red(_, gi) = st.class {
                    groups[gi].members += 1;
                    red_data.push((d.addr, gi as u32));
                }
            }
            red_off.push(red_data.len() as u32);
        }

        // Counting sort by `from` builds the successor CSR in O(n + E).
        // Edges were emitted in increasing `to` order, so a stable
        // scatter reproduces the (from, to)-lexicographic layout the
        // sorted builder produced.
        let mut succ_off: Vec<u32> = Vec::with_capacity(n + 1);
        succ_off.push(0);
        let mut acc = 0u32;
        for count in succ_count.iter_mut() {
            let c = *count;
            *count = acc; // becomes this node's scatter cursor
            acc += c;
            succ_off.push(acc);
        }
        let mut succ_data: Vec<u32> = vec![0; edges.len()];
        for &(from, to) in &edges {
            let cur = &mut succ_count[from as usize];
            succ_data[*cur as usize] = to;
            *cur += 1;
        }

        let pending_template: Vec<u32> = meta.iter().map(|m| m.indeg + 1).collect();
        let pending = (0..n).map(|_| AtomicU32::new(0)).collect();
        let slots = (0..n)
            .map(|_| AtomicPtr::new(core::ptr::null_mut()))
            .collect();
        // Fold the structural hash from the per-node sigs computed in
        // the first pass — identical by construction to
        // `GraphRecorder::structural_hash(captured)` (which chains
        // `sig(c)` per node from the same seed) without a third sweep
        // over the scattered captured decls.
        let h = meta.iter().fold(STRUCTURAL_HASH_SEED, |h, m| mix(h, m.sig));
        Self {
            hash: h,
            edges: edges.len(),
            meta,
            succ_off,
            succ_data,
            decl_off,
            decl_data,
            red_off,
            red_data,
            groups,
            pending_template,
            pending,
            slots,
            red_state: Box::default(),
        }
    }

    /// Build the reduction chains of a graph replayed on `workers`
    /// workers, once per frozen graph; [`ReplayGraph::reset`] re-arms them.
    pub(crate) fn arm(&mut self, workers: usize) {
        self.red_state = self
            .groups
            .iter()
            .map(|g| GroupState {
                info: ReductionInfo::new(g.addr, g.len, g.op, workers),
                remaining: AtomicU32::new(g.members),
            })
            .collect();
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True for a graph with no tasks.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Per-node scalar metadata, in creation order.
    pub fn nodes(&self) -> &[NodeMeta] {
        &self.meta
    }

    /// Successors of node `i` (nodes that become releasable when it
    /// completes): a contiguous CSR slice, no pointer chase.
    #[inline]
    pub fn succs(&self, i: usize) -> &[u32] {
        &self.succ_data[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// The full recorded access set of node `i`, exactly as captured
    /// (bare, no chain state): a slice of the frozen declaration arena.
    #[inline]
    pub fn decls_of(&self, i: usize) -> &[AccessDecl] {
        &self.decl_data[self.decl_off[i] as usize..self.decl_off[i + 1] as usize]
    }

    /// Reduction memberships of node `i`: `(target address, index of
    /// the [`RedGroup`] it participates in)`.
    #[inline]
    pub fn red_of(&self, i: usize) -> &[(usize, u32)] {
        &self.red_data[self.red_off[i] as usize..self.red_off[i + 1] as usize]
    }

    /// The reduction groups.
    pub fn groups(&self) -> &[RedGroup] {
        &self.groups
    }

    /// Structural hash of the recorded iteration.
    pub fn structural_hash(&self) -> u64 {
        self.hash
    }

    /// Signature hash of the first recorded spawn (`None` for an empty
    /// graph) — the cache's phase-switch lookup key.
    pub fn first_sig(&self) -> Option<u64> {
        self.meta.first().map(|n| n.sig)
    }

    /// Reconstruct the first `n` recorded spawns as [`CapturedSpawn`]s
    /// (metadata only). Used by the replay engine to
    /// freeze a divergent iteration's graph: its already-fed prefix
    /// matched these nodes by signature hash, so the recorded metadata
    /// stands in for the spawns actually observed.
    pub fn prefix_captured(&self, n: usize) -> Vec<CapturedSpawn> {
        (0..n.min(self.meta.len()))
            .map(|i| {
                let m = &self.meta[i];
                CapturedSpawn::bare(m.label, m.priority, self.decls_of(i).to_vec())
            })
            .collect()
    }

    /// Total (deduplicated) edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Frozen footprint in bytes: every arena the steady state walks
    /// (per-node metadata, successor/declaration/reduction CSR arenas,
    /// reduction groups and their chains, in-degree template + counters,
    /// task slots). Interior heap of `AccessDecl` and of the chains'
    /// slot buffers is not counted.
    pub fn bytes(&self) -> u64 {
        use core::mem::size_of;
        (self.meta.len() * size_of::<NodeMeta>()
            + self.succ_off.len() * size_of::<u32>()
            + self.succ_data.len() * size_of::<u32>()
            + self.decl_off.len() * size_of::<u32>()
            + self.decl_data.len() * size_of::<AccessDecl>()
            + self.red_off.len() * size_of::<u32>()
            + self.red_data.len() * size_of::<(usize, u32)>()
            + self.groups.len() * size_of::<RedGroup>()
            + self.red_state.len() * size_of::<GroupState>()
            + self.pending_template.len() * size_of::<u32>()
            + self.pending.len() * size_of::<AtomicU32>()
            + self.slots.len() * size_of::<AtomicPtr<Task>>()) as u64
    }

    /// All edges as `(from, to)` node-index pairs (test/analysis support).
    pub fn edge_pairs(&self) -> Vec<(u32, u32)> {
        let mut v = Vec::with_capacity(self.edges);
        for i in 0..self.meta.len() {
            for &s in self.succs(i) {
                v.push((i as u32, s));
            }
        }
        v
    }

    /// Re-arm the iteration state — run once before each replayed
    /// iteration: every in-degree counter back to `indeg + 1` with no
    /// poison, the task slots cleared, and every reduction chain fresh
    /// with its slot buffers kept. The `+1` is the *creation hold*: it
    /// guarantees a node cannot be released before its held task exists,
    /// even if all its predecessors finish while the creator is still
    /// spawning.
    ///
    /// The counters and slots are two plain `memcpy`s from the
    /// freeze-time template, not a node-by-node sweep: the caller holds
    /// the iteration barrier (the previous iteration's subtree completed,
    /// nothing else touches the graph), so the non-atomic bulk writes
    /// race with nothing — all prior worker accesses happen-before the
    /// barrier, and all later ones happen-after the tasks are published.
    pub fn reset(&self) {
        let n = self.pending.len();
        // SAFETY: `AtomicU32` has the same size and bit validity as
        // `u32`, `AtomicPtr<T>` as `*mut T`, and the null pointer is the
        // all-zero bit pattern on every supported target. Exclusive
        // access per the barrier contract above.
        unsafe {
            core::ptr::copy_nonoverlapping(
                self.pending_template.as_ptr(),
                self.pending.as_ptr() as *mut u32,
                n,
            );
            core::ptr::write_bytes(self.slots.as_ptr() as *mut *mut Task, 0, n);
        }
        // `Relaxed`: as for the bulk writes above.
        for (st, g) in self.red_state.iter().zip(&self.groups) {
            st.remaining.store(g.members, Ordering::Relaxed);
            st.info.rearm();
        }
    }

    /// Publish node `i`'s held task for this iteration.
    pub(crate) fn publish(&self, i: usize, task: *mut Task) {
        self.slots[i].store(task, Ordering::Release);
    }

    /// Drop one pending reference of node `i`; returns the task pointer
    /// when the node just became releasable, marked cancelled if a
    /// predecessor poisoned it.
    pub(crate) fn countdown(&self, i: usize) -> Option<*mut Task> {
        let prev = self.pending[i].fetch_sub(1, Ordering::AcqRel);
        if prev & !POISONED != 1 {
            return None;
        }
        let t = self.slots[i].load(Ordering::Acquire);
        debug_assert!(!t.is_null(), "released before publication");
        if prev & POISONED != 0 {
            // SAFETY: a published node task is held until this release.
            unsafe { (*t).mark_cancelled() };
        }
        Some(t)
    }

    /// Feed one matched spawn into node `i`: hold the offered task,
    /// publish it and drop the creation hold, which releases it if all
    /// its predecessors already finished (or it has none).
    pub(crate) fn feed(&self, ctx: &TaskCtx, i: usize, task: OfferedTask) {
        let held = ctx.hold(task, i as u32);
        self.publish(i, held.into_raw());
        self.release(ctx, i);
    }

    /// Drop one pending reference of node `i`, handing its held task to
    /// the scheduler if that was the last one.
    fn release(&self, ctx: &TaskCtx, i: usize) {
        if let Some(t) = self.countdown(i) {
            // SAFETY: `t` was published from a live held task and each
            // node is released once (its counter reaches zero once per
            // iteration).
            ctx.release_held(unsafe { HeldTask::from_raw(t) });
        }
    }

    /// Fold partially-fed reduction groups into their targets. On a
    /// divergent or truncated iteration some group members may have run
    /// (accumulating into this iteration's private slots) without the
    /// last member ever firing the combine — their contributions must
    /// not be dropped. Callers guarantee every fed task has completed
    /// (taskwait) and no successor that reads the target is running.
    pub(crate) fn combine_partial(&self) {
        for (st, g) in self.red_state.iter().zip(&self.groups) {
            let remaining = st.remaining.load(Ordering::Acquire);
            if remaining > 0 && remaining < g.members && !st.info.is_combined() {
                // SAFETY: all fed members completed and nothing else
                // touches the target until the caller resumes spawning.
                unsafe { st.info.combine_into_target() };
            }
        }
    }
}

impl TaskEpilogue for ReplayGraph {
    /// The post-body half of fed node `i`: poison its successors if it
    /// failed or was cancelled, fold its finished reduction groups, then
    /// release its successors.
    fn run(&self, ctx: &TaskCtx, i: u32) {
        let i = i as usize;
        // A failed task (marked cancelled by the runtime's panic
        // isolation) or a cancelled one poisons its successors before
        // their pending references drop; the poison travels transitively
        // because cancelled tasks still run this epilogue.
        if ctx.task_cancelled() {
            for &s in self.succs(i) {
                // `Relaxed`: see `POISONED`.
                self.pending[s as usize].fetch_or(POISONED, Ordering::Relaxed);
            }
        }
        // The last group member folds the private slots into the target
        // — before releasing successors, which may read it.
        for &(_, gi) in self.red_of(i) {
            let st = &self.red_state[gi as usize];
            if st.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // SAFETY: every group member completed (counter hit
                // zero) and successors are not yet released, so the
                // target region is exclusively owned.
                unsafe { st.info.combine_into_target() };
            }
        }
        for &s in self.succs(i) {
            self.release(ctx, s as usize);
        }
    }

    fn reduction(&self, i: u32, addr: usize) -> Option<&ReductionInfo> {
        let &(_, gi) = self.red_of(i as usize).iter().find(|m| m.0 == addr)?;
        Some(&self.red_state[gi as usize].info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn cap(label: &'static str, decls: Vec<AccessDecl>) -> CapturedSpawn {
        CapturedSpawn::bare(label, 0, decls)
    }

    fn rw(addr: usize) -> AccessDecl {
        AccessDecl::new(addr, 8, AccessMode::ReadWrite)
    }
    fn rd(addr: usize) -> AccessDecl {
        AccessDecl::new(addr, 8, AccessMode::Read)
    }
    fn red(addr: usize) -> AccessDecl {
        AccessDecl::new(addr, 8, AccessMode::Reduction(RedOp::SumF64))
    }

    #[test]
    fn writer_chain_serializes() {
        let g = ReplayGraph::build(
            &[
                cap("a", vec![rw(0x10)]),
                cap("b", vec![rw(0x10)]),
                cap("c", vec![rw(0x10)]),
            ],
            &[],
        );
        assert_eq!(g.edge_pairs(), vec![(0, 1), (1, 2)]);
        assert_eq!(g.nodes()[0].indeg, 0);
        assert_eq!(g.nodes()[2].indeg, 1);
    }

    #[test]
    fn readers_run_concurrently_between_writers() {
        let g = ReplayGraph::build(
            &[
                cap("w1", vec![rw(0x10)]),
                cap("r1", vec![rd(0x10)]),
                cap("r2", vec![rd(0x10)]),
                cap("w2", vec![rw(0x10)]),
            ],
            &[],
        );
        // No edge between the two readers; the second writer waits for both.
        assert_eq!(g.edge_pairs(), vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn leading_readers_have_no_predecessors() {
        let g = ReplayGraph::build(
            &[
                cap("r1", vec![rd(0x10)]),
                cap("r2", vec![rd(0x10)]),
                cap("w", vec![rw(0x10)]),
            ],
            &[],
        );
        assert_eq!(g.edge_pairs(), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn same_op_reductions_group() {
        let g = ReplayGraph::build(
            &[
                cap("w", vec![rw(0x20)]),
                cap("s1", vec![red(0x20)]),
                cap("s2", vec![red(0x20)]),
                cap("r", vec![rd(0x20)]),
            ],
            &[],
        );
        // Reductions concurrent among themselves, after the writer,
        // before the reader.
        assert_eq!(g.edge_pairs(), vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(g.groups().len(), 1);
        assert_eq!(g.groups()[0].members, 2);
        assert_eq!(g.red_of(1).len(), 1);
        assert_eq!(g.red_of(2).len(), 1);
    }

    #[test]
    fn different_op_reductions_serialize() {
        let a = AccessDecl::new(0x20, 8, AccessMode::Reduction(RedOp::SumF64));
        let b = AccessDecl::new(0x20, 8, AccessMode::Reduction(RedOp::MaxF64));
        let g = ReplayGraph::build(&[cap("s", vec![a]), cap("m", vec![b])], &[]);
        assert_eq!(g.edge_pairs(), vec![(0, 1)]);
        assert_eq!(g.groups().len(), 2);
    }

    #[test]
    fn duplicate_address_decls_never_self_edge() {
        // read + write on the same address within one task (a contract
        // violation the dep systems only debug_assert against) must not
        // produce a self-edge — that would deadlock replay.
        let both = vec![rd(0x10), rw(0x10)];
        let g = ReplayGraph::build(&[cap("a", both.clone()), cap("b", both)], &[]);
        assert_eq!(
            g.edge_pairs(),
            vec![(0, 1)],
            "coalesced to one exclusive access"
        );
        assert_eq!(g.nodes()[0].indeg, 0);
        assert_eq!(g.nodes()[1].indeg, 1);
    }

    #[test]
    fn multi_address_edges_dedup() {
        // Two shared addresses between the same pair → one edge.
        let g = ReplayGraph::build(
            &[
                cap("a", vec![rw(0x10), rw(0x18)]),
                cap("b", vec![rw(0x10), rw(0x18)]),
            ],
            &[],
        );
        assert_eq!(g.edge_pairs(), vec![(0, 1)]);
        assert_eq!(g.nodes()[1].indeg, 1);
    }

    #[test]
    fn csr_arenas_match_per_node_views() {
        // The decl arena holds each node's captured set verbatim (bare)
        // and the successor arena is one contiguous run per node.
        let g = ReplayGraph::build(
            &[
                cap("a", vec![rw(0x10), rd(0x20)]),
                cap("b", vec![rw(0x10)]),
                cap("c", vec![rd(0x10)]),
            ],
            &[],
        );
        let addrs = |i: usize| g.decls_of(i).iter().map(|d| d.addr).collect::<Vec<_>>();
        assert_eq!(addrs(0), vec![0x10, 0x20]);
        assert_eq!(addrs(1), vec![0x10]);
        assert_eq!(g.succs(0), &[1]);
        assert_eq!(g.succs(1), &[2]);
        assert_eq!(g.succs(2), &[] as &[u32]);
    }

    #[test]
    fn reset_restores_counters() {
        let g = ReplayGraph::build(&[cap("a", vec![rw(0x10)]), cap("b", vec![rw(0x10)])], &[]);
        g.reset();
        // Node 0: indeg 0 + creation hold → one countdown releases it.
        let fake = 0x1000 as *mut Task;
        g.publish(0, fake);
        assert_eq!(g.countdown(0), Some(fake));
        // Node 1: indeg 1 + hold → two countdowns.
        g.publish(1, fake);
        assert_eq!(g.countdown(1), None);
        assert_eq!(g.countdown(1), Some(fake));
        g.reset();
        assert!(
            g.slots.iter().all(|s| s.load(Ordering::Relaxed).is_null()),
            "reset cleared the published slots"
        );
        g.publish(1, fake);
        assert_eq!(g.countdown(1), None);
        assert_eq!(g.countdown(1), Some(fake));
    }

    #[test]
    fn prefix_captured_round_trips() {
        let g = Arc::new(ReplayGraph::build(
            &[cap("a", vec![rw(0x10)]), cap("b", vec![rw(0x10), rd(0x20)])],
            &[],
        ));
        let prefix = g.prefix_captured(2);
        assert_eq!(prefix.len(), 2);
        assert_eq!(prefix[1].decls.len(), g.decls_of(1).len());
        // Re-freezing from the reconstructed prefix reproduces the shape.
        let g2 = ReplayGraph::build(&prefix, &[]);
        assert_eq!(g2.structural_hash(), g.structural_hash());
        assert_eq!(g2.edge_pairs(), g.edge_pairs());
    }

    #[test]
    fn edges_are_lexicographically_sorted_and_deduped() {
        // A denser mixed-mode sweep: the stamp-dedup + counting-sort CSR
        // must reproduce the (from, to)-sorted duplicate-free layout of
        // the former sort+dedup builder.
        let mut caps = Vec::new();
        for i in 0..64usize {
            let decls = match i % 4 {
                0 => vec![rw(0x10)],
                1 => vec![rd(0x10), rw(0x20)],
                2 => vec![rd(0x10), rd(0x20), red(0x30)],
                _ => vec![rw(0x10), rw(0x20), rw(0x30)],
            };
            caps.push(cap("t", decls));
        }
        let g = ReplayGraph::build(&caps, &[]);
        let pairs = g.edge_pairs();
        assert_eq!(g.edge_count(), pairs.len());
        for w in pairs.windows(2) {
            assert!(w[0] < w[1], "sorted and deduplicated: {w:?}");
        }
        let indeg_sum: u32 = g.nodes().iter().map(|m| m.indeg).sum();
        assert_eq!(indeg_sum as usize, pairs.len());
        assert!(g.bytes() > 0);
    }
}
