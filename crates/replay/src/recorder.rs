//! What the replay engine captures of a root spawn ([`CapturedSpawn`])
//! and the hashes it matches spawns and iterations by.

use nanotask_core::{AccessDecl, AccessMode};

/// One captured root spawn, in creation order.
pub struct CapturedSpawn {
    /// Task label (traces / graph dumps).
    pub label: &'static str,
    /// OmpSs-2 `priority` clause value.
    pub priority: i32,
    /// The declared access set, exactly as the user built it.
    pub decls: Vec<AccessDecl>,
}

impl CapturedSpawn {
    /// A capture of one spawn's metadata.
    pub fn bare(label: &'static str, priority: i32, decls: Vec<AccessDecl>) -> Self {
        Self {
            label,
            priority,
            decls,
        }
    }
}

/// The namespace of [`GraphRecorder::structural_hash`]. The replay
/// engine records into a plain `Vec<CapturedSpawn>`.
pub struct GraphRecorder;

/// Seed of both [`spawn_sig_hash`] and the iteration-level structural
/// hash (the FNV-1a offset basis).
pub const STRUCTURAL_HASH_SEED: u64 = 0xcbf29ce484222325;

/// One multiply-rotate mixing step of the word-folded hash. Chaining
/// every spawn's [`spawn_sig_hash`] through this from
/// [`STRUCTURAL_HASH_SEED`] yields [`GraphRecorder::structural_hash`] —
/// the form a frozen graph folds from its per-node signatures.
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
    /// Structural hash of a captured spawn sequence: the per-spawn
    /// `spawn_sig_hash`es chained in creation order — the same value
    /// [`crate::ReplayGraph::structural_hash`] reports for the sequence once
    /// frozen, and the key of the engine's graph cache. Two iterations
    /// with equal hashes spawn the same graph shape over the same
    /// addresses — the replay engine's divergence check.
    pub fn structural_hash(captured: &[CapturedSpawn]) -> u64 {
        captured.iter().fold(STRUCTURAL_HASH_SEED, |h, c| {
            mix(h, spawn_sig_hash(c.label, c.priority, &c.decls))
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
    use crate::graph::ReplayGraph;

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
            h = mix(h, spawn_sig_hash(c.label, c.priority, &c.decls));
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
