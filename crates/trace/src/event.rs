//! Trace event model.
//!
//! Events mirror the runtime subsystems the paper's Figures 10–11
//! visualise: running tasks (red in the paper), task creation (cyan),
//! generic runtime (deep blue), starvation (khaki), DTLock task serving
//! (yellow arrows), wait-free queue draining (green) and kernel
//! interrupts (purple).

/// What happened. The discriminants are stable: they are the on-disk
/// encoding of the CTF-lite format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A task body started executing. Payload: task id.
    TaskStart = 0,
    /// A task body finished. Payload: task id.
    TaskEnd = 1,
    /// Task creation (allocation + dependency registration) began.
    /// Payload: child task id.
    CreateBegin = 2,
    /// Task creation finished. Payload: child task id.
    CreateEnd = 3,
    /// Worker entered the scheduler asking for work. Payload: worker id.
    SchedEnter = 4,
    /// Worker left the scheduler. Payload: 1 if it got a task, 0 if not.
    SchedExit = 5,
    /// The DTLock owner served a ready task to a waiting worker
    /// (the yellow arrows of Figure 10). Payload: served worker id.
    SchedServe = 6,
    /// The scheduler owner drained the wait-free SPSC buffers into the
    /// ready queue (green in Figure 10). Payload: number of tasks moved.
    SchedDrain = 7,
    /// A ready task was added (producer side). Payload: task id.
    AddReady = 8,
    /// Dependency registration of one access. Payload: task id.
    DepRegister = 9,
    /// Dependency release (unregister) of one task. Payload: task id.
    DepRelease = 10,
    /// Worker found no work and is starving (khaki in Figure 10).
    IdleBegin = 11,
    /// Worker stopped starving.
    IdleEnd = 12,
    /// Synthetic kernel interrupt began on this core (purple, Figure 11).
    KernelInterruptBegin = 13,
    /// Synthetic kernel interrupt ended.
    KernelInterruptEnd = 14,
    /// Taskwait began. Payload: waiting task id.
    TaskwaitBegin = 15,
    /// Taskwait ended.
    TaskwaitEnd = 16,
    /// Free-form user marker.
    UserMarker = 17,
    /// A replay-system *record* iteration began (graph capture through
    /// the full dependency system). Payload: iteration index.
    ReplayRecordBegin = 18,
    /// The record iteration finished. Payload: tasks captured.
    ReplayRecordEnd = 19,
    /// A *replayed* iteration began (dependency system bypassed, ready
    /// tasks fed from the frozen graph). Payload: iteration index.
    ReplayIterBegin = 20,
    /// The replayed iteration finished. Payload: iteration index.
    ReplayIterEnd = 21,
    // 22 and 23 are retired (immediate-successor inline runs, batched
    // ready-task adds); never reassign them.
    /// The replay engine's graph cache matched an iteration to an
    /// already-frozen graph (phase switch, divergence probe, or pinned
    /// re-stabilization probe) — no re-record needed. Payload: iteration
    /// index.
    ReplayCacheHit = 24,
    /// The replay engine gave up on recording (too many consecutive
    /// divergences, or nested task domains detected) and pinned the body
    /// to the dependency system. Payload: iteration index.
    ReplayGiveUp = 25,
}

impl EventKind {
    /// Decode a stored discriminant.
    pub fn from_u8(v: u8) -> Option<Self> {
        use EventKind::*;
        Some(match v {
            0 => TaskStart,
            1 => TaskEnd,
            2 => CreateBegin,
            3 => CreateEnd,
            4 => SchedEnter,
            5 => SchedExit,
            6 => SchedServe,
            7 => SchedDrain,
            8 => AddReady,
            9 => DepRegister,
            10 => DepRelease,
            11 => IdleBegin,
            12 => IdleEnd,
            13 => KernelInterruptBegin,
            14 => KernelInterruptEnd,
            15 => TaskwaitBegin,
            16 => TaskwaitEnd,
            17 => UserMarker,
            18 => ReplayRecordBegin,
            19 => ReplayRecordEnd,
            20 => ReplayIterBegin,
            21 => ReplayIterEnd,
            24 => ReplayCacheHit,
            25 => ReplayGiveUp,
            _ => return None,
        })
    }

    /// All kinds, for exhaustive round-trip tests.
    pub fn all() -> &'static [EventKind] {
        use EventKind::*;
        &[
            TaskStart,
            TaskEnd,
            CreateBegin,
            CreateEnd,
            SchedEnter,
            SchedExit,
            SchedServe,
            SchedDrain,
            AddReady,
            DepRegister,
            DepRelease,
            IdleBegin,
            IdleEnd,
            KernelInterruptBegin,
            KernelInterruptEnd,
            TaskwaitBegin,
            TaskwaitEnd,
            UserMarker,
            ReplayRecordBegin,
            ReplayRecordEnd,
            ReplayIterBegin,
            ReplayIterEnd,
            ReplayCacheHit,
            ReplayGiveUp,
        ]
    }
}

/// One trace record: 24 bytes on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the tracer epoch.
    pub ns: u64,
    /// Kind-specific payload (task id, worker id, count...).
    pub payload: u64,
    /// Core/worker the event was recorded on.
    pub core: u16,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip() {
        for &k in EventKind::all() {
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        assert_eq!(EventKind::from_u8(200), None);
        assert_eq!(EventKind::from_u8(28), None);
        // Retired wire values: immediate-successor inline runs (22),
        // batched ready-task adds (23), replay-partition assignment (26)
        // and node-targeted ready batches (27).
        assert_eq!(EventKind::from_u8(22), None);
        assert_eq!(EventKind::from_u8(23), None);
        assert_eq!(EventKind::from_u8(26), None);
        assert_eq!(EventKind::from_u8(27), None);
    }

    /// On-disk stability: `kind` is stored as a raw `u8`, so reordering
    /// the enum silently corrupts every existing trace. This table pins
    /// each variant to its wire value — adding a variant means appending
    /// here with the next discriminant; renumbering means bumping
    /// [`crate::ctf::VERSION`].
    #[test]
    fn discriminants_are_pinned() {
        use EventKind::*;
        let pinned: &[(EventKind, u8)] = &[
            (TaskStart, 0),
            (TaskEnd, 1),
            (CreateBegin, 2),
            (CreateEnd, 3),
            (SchedEnter, 4),
            (SchedExit, 5),
            (SchedServe, 6),
            (SchedDrain, 7),
            (AddReady, 8),
            (DepRegister, 9),
            (DepRelease, 10),
            (IdleBegin, 11),
            (IdleEnd, 12),
            (KernelInterruptBegin, 13),
            (KernelInterruptEnd, 14),
            (TaskwaitBegin, 15),
            (TaskwaitEnd, 16),
            (UserMarker, 17),
            (ReplayRecordBegin, 18),
            (ReplayRecordEnd, 19),
            (ReplayIterBegin, 20),
            (ReplayIterEnd, 21),
            (ReplayCacheHit, 24),
            (ReplayGiveUp, 25),
        ];
        assert_eq!(
            pinned.len(),
            EventKind::all().len(),
            "every variant must appear in the pinned table"
        );
        for &(kind, value) in pinned {
            assert_eq!(kind as u8, value, "{kind:?} moved its wire value");
            assert_eq!(EventKind::from_u8(value), Some(kind));
        }
        // The value one past the highest ever assigned (27) stays
        // unassigned until a variant claims it (and is added above).
        assert_eq!(EventKind::from_u8(28), None);
    }

    #[test]
    fn all_kinds_distinct() {
        let mut seen = std::collections::HashSet::new();
        for &k in EventKind::all() {
            assert!(seen.insert(k as u8), "duplicate discriminant for {k:?}");
        }
    }
}
