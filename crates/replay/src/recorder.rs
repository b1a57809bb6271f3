//! The [`GraphRecorder`]: a [`SpawnCapture`] that turns root spawns into
//! captured graph nodes.

use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use nanotask_core::{AccessDecl, AccessMode, Deps, SpawnCapture, TaskBody, TaskCtx, TaskId};

use crate::graph::ReplayGraph;

/// The access declarations of one captured spawn: owned (a live spawn
/// observed by the recorder or the divergence side-capture), or
/// referenced by CSR index into a frozen graph's declaration arena (a
/// prefix reconstructed by [`ReplayGraph::prefix_captured`]) — the
/// frozen arena is the single copy, nothing re-clones it.
pub enum CapturedDecls {
    /// Declarations owned by this capture.
    Owned(Vec<AccessDecl>),
    /// Declarations of node `node` in `graph`'s frozen decl arena.
    Frozen {
        /// The graph whose arena holds the declarations.
        graph: Arc<ReplayGraph>,
        /// CSR node index.
        node: u32,
    },
}

impl CapturedDecls {
    /// The declarations as a slice, wherever they live.
    #[inline]
    pub fn as_slice(&self) -> &[AccessDecl] {
        match self {
            Self::Owned(v) => v,
            Self::Frozen { graph, node } => graph.decls_of(*node as usize),
        }
    }
}

impl From<Vec<AccessDecl>> for CapturedDecls {
    fn from(v: Vec<AccessDecl>) -> Self {
        Self::Owned(v)
    }
}

/// One captured root spawn, in creation order.
pub struct CapturedSpawn {
    /// Task label (traces / graph dumps).
    pub label: &'static str,
    /// OmpSs-2 `priority` clause value.
    pub priority: i32,
    /// The declared access set, exactly as the user built it (owned or
    /// referenced from a frozen graph's arena).
    pub decls: CapturedDecls,
    /// The task body — present only in [`CaptureMode::Consume`].
    pub body: Option<TaskBody>,
    /// The runtime task id — present only in [`CaptureMode::Record`]
    /// (filled by the `on_spawned` callback), used to correlate captured
    /// nodes with tapped dependency-graph edges.
    pub id: Option<TaskId>,
}

impl CapturedSpawn {
    /// A metadata-only capture (no body, no id) owning its declarations
    /// — the shape every test fixture and divergence side-capture uses.
    pub fn bare(label: &'static str, priority: i32, decls: Vec<AccessDecl>) -> Self {
        Self {
            label,
            priority,
            decls: decls.into(),
            body: None,
            id: None,
        }
    }
}

/// What the recorder does with offered spawns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureMode {
    /// Note metadata, hand the parts back: the spawn proceeds through
    /// the full dependency system (the instrumented record iteration).
    Record,
    /// Keep body and access set, consume the spawn (the caller will
    /// schedule the bodies by other means).
    Consume,
}

/// Captures the root task's spawns while active. Install with
/// [`nanotask_core::Runtime::set_spawn_capture`] (directly, or via the
/// replay engine which embeds one); drive with [`GraphRecorder::begin`]
/// / [`GraphRecorder::take`].
#[derive(Default)]
pub struct GraphRecorder {
    active: AtomicBool,
    mode: AtomicU8, // 0 = Record, 1 = Consume
    buf: Mutex<Vec<CapturedSpawn>>,
    /// Length of the last taken capture: [`GraphRecorder::begin`]
    /// pre-reserves it so a million-spawn record pays one allocation
    /// instead of a doubling-growth series (`take` hands the buffer —
    /// and its capacity — to the caller).
    last_len: AtomicUsize,
}

/// Seed of both [`spawn_sig_hash`] and the iteration-level structural
/// hash (the FNV-1a offset basis).
pub const STRUCTURAL_HASH_SEED: u64 = 0xcbf29ce484222325;

/// One multiply-rotate mixing step of the word-folded hash. Chaining
/// every spawn's [`spawn_sig_hash`] through this from
/// [`STRUCTURAL_HASH_SEED`] yields [`GraphRecorder::structural_hash`] —
/// the incremental form the replay engine's pinned-mode probe computes
/// without buffering anything.
#[inline]
pub(crate) fn mix(h: u64, w: u64) -> u64 {
    (h.rotate_left(26) ^ w).wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Signature hash of one spawn: label, priority and access set, mixed
/// 8 bytes at a time (one multiply per word). The replay engine matches
/// incoming spawns against recorded nodes with this (cheap,
/// allocation-free) hash — the per-spawn divergence check is its hottest
/// steady-state instruction stream. Equal spawn metadata ⇒ equal hash.
pub fn spawn_sig_hash(label: &str, priority: i32, decls: &[AccessDecl]) -> u64 {
    let b = label.as_bytes();
    let mut h = STRUCTURAL_HASH_SEED;
    for chunk in b.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(w));
    }
    h = mix(h, b.len() as u64);
    h = mix(h, priority as u64);
    h = mix(h, decls.len() as u64);
    for d in decls {
        h = mix(h, d.addr as u64);
        h = mix(h, d.len as u64);
        h = mix(h, mode_tag(d.mode));
    }
    h
}

impl GraphRecorder {
    /// A new, inactive recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start capturing in `mode` (clears any previous capture).
    pub fn begin(&self, mode: CaptureMode) {
        {
            let mut buf = self.buf.lock().unwrap();
            buf.clear();
            let hint = self.last_len.load(Ordering::Relaxed);
            if buf.capacity() < hint {
                // `buf` was just cleared: reserve the full hint.
                buf.reserve_exact(hint);
            }
        }
        self.mode.store(
            if mode == CaptureMode::Consume { 1 } else { 0 },
            Ordering::Relaxed,
        );
        self.active.store(true, Ordering::Release);
    }

    /// Stop capturing.
    pub fn stop(&self) {
        self.active.store(false, Ordering::Release);
    }

    /// Stop capturing and take the captured spawns.
    pub fn take(&self) -> Vec<CapturedSpawn> {
        self.stop();
        let taken = std::mem::take(&mut *self.buf.lock().unwrap());
        self.last_len.store(taken.len(), Ordering::Relaxed);
        taken
    }

    /// Structural hash of a captured spawn sequence: the per-spawn
    /// `spawn_sig_hash`es chained in creation order — the same value
    /// [`ReplayGraph::structural_hash`] reports for the sequence once
    /// frozen, and the key of the engine's graph cache. Two iterations
    /// with equal hashes spawn the same graph shape over the same
    /// addresses — the replay engine's divergence check.
    pub fn structural_hash(captured: &[CapturedSpawn]) -> u64 {
        captured.iter().fold(STRUCTURAL_HASH_SEED, |h, c| {
            mix(h, spawn_sig_hash(c.label, c.priority, c.decls.as_slice()))
        })
    }
}

/// Stable discriminant for hashing an access mode.
fn mode_tag(m: AccessMode) -> u64 {
    match m {
        AccessMode::Read => 1,
        AccessMode::Write => 2,
        AccessMode::ReadWrite => 3,
        AccessMode::Reduction(op) => 100 + op as u64,
    }
}

impl SpawnCapture for GraphRecorder {
    fn active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    fn on_spawn(
        &self,
        _ctx: &TaskCtx,
        label: &'static str,
        priority: i32,
        deps: Deps,
        body: TaskBody,
    ) -> Option<(Deps, TaskBody)> {
        let consume = self.mode.load(Ordering::Relaxed) == 1;
        let mut buf = self.buf.lock().unwrap();
        if consume {
            buf.push(CapturedSpawn {
                label,
                priority,
                decls: deps.into_decls().into(),
                body: Some(body),
                id: None,
            });
            None
        } else {
            buf.push(CapturedSpawn {
                label,
                priority,
                decls: deps.decls().to_vec().into(),
                body: None,
                id: None,
            });
            Some((deps, body))
        }
    }

    fn on_spawned(&self, id: TaskId) {
        if let Some(last) = self.buf.lock().unwrap().last_mut() {
            last.id = Some(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap(label: &'static str, prio: i32, decls: Vec<AccessDecl>) -> CapturedSpawn {
        CapturedSpawn::bare(label, prio, decls)
    }

    #[test]
    fn hash_sensitive_to_structure() {
        let a = vec![cap(
            "t",
            0,
            vec![AccessDecl::new(0x10, 8, AccessMode::Read)],
        )];
        let b = vec![cap(
            "t",
            0,
            vec![AccessDecl::new(0x10, 8, AccessMode::Write)],
        )];
        let c = vec![cap(
            "t",
            1,
            vec![AccessDecl::new(0x10, 8, AccessMode::Read)],
        )];
        let d = vec![cap(
            "u",
            0,
            vec![AccessDecl::new(0x10, 8, AccessMode::Read)],
        )];
        let ha = GraphRecorder::structural_hash(&a);
        assert_ne!(ha, GraphRecorder::structural_hash(&b), "mode");
        assert_ne!(ha, GraphRecorder::structural_hash(&c), "priority");
        assert_ne!(ha, GraphRecorder::structural_hash(&d), "label");
        assert_eq!(ha, GraphRecorder::structural_hash(&a), "stable");
    }

    #[test]
    fn incremental_hash_matches_structural_hash() {
        let seq = vec![
            cap("a", 0, vec![AccessDecl::new(0x10, 8, AccessMode::Read)]),
            cap("b", 2, vec![AccessDecl::new(0x20, 8, AccessMode::Write)]),
            cap("c", 0, vec![]),
        ];
        let mut h = STRUCTURAL_HASH_SEED;
        for c in &seq {
            h = mix(h, spawn_sig_hash(c.label, c.priority, c.decls.as_slice()));
        }
        assert_eq!(h, GraphRecorder::structural_hash(&seq));
        assert_eq!(STRUCTURAL_HASH_SEED, GraphRecorder::structural_hash(&[]));
        // The frozen graph keys itself by the same value: the engine's
        // probe hash, divergence-capture hash and cache key all agree.
        assert_eq!(h, ReplayGraph::build(&seq, &[]).structural_hash());
    }

    #[test]
    fn sig_hash_distinguishes_access_sets() {
        let a = [AccessDecl::new(0x10, 8, AccessMode::Read)];
        let b = [
            AccessDecl::new(0x10, 8, AccessMode::Read),
            AccessDecl::new(0x20, 8, AccessMode::Write),
        ];
        assert_ne!(spawn_sig_hash("t", 0, &a), spawn_sig_hash("t", 0, &b));
        assert_eq!(spawn_sig_hash("t", 0, &a), spawn_sig_hash("t", 0, &a));
    }

    #[test]
    fn sig_hash_distinguishes_zero_padded_labels() {
        // Labels are folded 8 bytes at a time with zero padding; the
        // length word keeps a label apart from its padded twin, and a
        // 9-byte label apart from its 8-byte prefix.
        assert_ne!(spawn_sig_hash("a", 0, &[]), spawn_sig_hash("a\0", 0, &[]));
        assert_ne!(
            spawn_sig_hash("12345678", 0, &[]),
            spawn_sig_hash("12345678\0", 0, &[])
        );
    }
}
