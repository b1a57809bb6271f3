//! The [`GraphRecorder`]: the buffer of captured root spawns one record
//! iteration fills.

use std::sync::Arc;

use nanotask_core::{AccessDecl, AccessMode, TaskId};

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
    /// The runtime task id, for correlating captured nodes with tapped
    /// dependency-graph edges ([`ReplayGraph::build`]'s cross-check).
    /// The replay engine leaves it `None`.
    pub id: Option<TaskId>,
}

impl CapturedSpawn {
    /// A metadata-only capture (no id) owning its declarations — the
    /// shape every recorded spawn, test fixture and divergence
    /// side-capture uses.
    pub fn bare(label: &'static str, priority: i32, decls: Vec<AccessDecl>) -> Self {
        Self {
            label,
            priority,
            decls: decls.into(),
            id: None,
        }
    }
}

/// The root spawns of one record iteration, in creation order: a plain
/// buffer the replay engine fills from its spawn capture.
#[derive(Default)]
pub struct GraphRecorder {
    buf: Vec<CapturedSpawn>,
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
    /// An empty recorder with room for `n` spawns: the engine passes the
    /// length of its last record, so a million-spawn record pays one
    /// allocation instead of a doubling-growth series.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            buf: Vec::with_capacity(n),
        }
    }

    /// Note one spawn's metadata.
    pub fn record(&mut self, label: &'static str, priority: i32, decls: &[AccessDecl]) {
        self.buf
            .push(CapturedSpawn::bare(label, priority, decls.to_vec()));
    }

    /// The captured spawns, in creation order.
    pub fn into_captured(self) -> Vec<CapturedSpawn> {
        self.buf
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
