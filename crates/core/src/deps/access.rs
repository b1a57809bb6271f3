//! The `DataAccess` structure and the message/mailbox machinery of the
//! Atomic State Machine (Listings 1–2 and Figure 2 of the paper).

use core::cell::Cell;
use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use super::flags;
use super::reduction::ReductionInfo;
use crate::task::Task;

/// One data access of one task: a memory address plus an atomic flags
/// word (the ASM state), the `successor`/`child` links of the access tree
/// (Figure 1) and an upward notification link installed when the
/// surrounding dependency domain closes.
///
/// Mirrors Listing 1 of the paper; the extra `notify_up` pointer is how a
/// finished child chain reports `CHILD_DONE` to the parent access without
/// the parent polling.
pub struct DataAccess {
    /// ASM state. Low two bits: immutable access type; rest: monotone
    /// state flags (see [`crate::deps::flags`]).
    pub flags: AtomicU64,
    /// Address this access depends on.
    pub addr: usize,
    /// Owning task.
    pub task: *mut Task,
    /// Next access to `addr` among sibling tasks.
    pub successor: AtomicPtr<DataAccess>,
    /// First access to `addr` among child tasks.
    pub child: AtomicPtr<DataAccess>,
    /// Access (in the parent task) to report CHILD_DONE to when this is
    /// the last access of a closed domain chain.
    pub notify_up: AtomicPtr<DataAccess>,
    /// Reduction chain state (reduction accesses only).
    pub reduction: Option<Arc<ReductionInfo>>,
}

unsafe impl Send for DataAccess {}
unsafe impl Sync for DataAccess {}

impl DataAccess {
    /// Create an access with the given immutable type bits already set.
    pub fn new(
        addr: usize,
        type_bits: u64,
        task: *mut Task,
        reduction: Option<Arc<ReductionInfo>>,
    ) -> Self {
        debug_assert_eq!(type_bits & !flags::TYPE_MASK, 0);
        Self {
            flags: AtomicU64::new(type_bits),
            addr,
            task,
            successor: AtomicPtr::new(core::ptr::null_mut()),
            child: AtomicPtr::new(core::ptr::null_mut()),
            notify_up: AtomicPtr::new(core::ptr::null_mut()),
            reduction,
        }
    }

    /// Current flags (Acquire).
    #[inline]
    pub fn load_flags(&self) -> u64 {
        self.flags.load(Ordering::Acquire)
    }

    /// Immutable type bits.
    #[inline]
    pub fn type_bits(&self) -> u64 {
        flags::type_of(self.flags.load(Ordering::Relaxed))
    }
}

/// A message: flags to OR into the target access, plus flags to OR into
/// the originator as a delivery notification — exactly the
/// `DataAccessMessage` of Listing 2.
///
/// `from` may be null when no acknowledgement is needed (e.g. initial
/// satisfiability seeded at registration).
#[derive(Clone, Copy, Debug)]
pub struct Message {
    /// Target access.
    pub to: *mut DataAccess,
    /// Flags delivered to the target (`flagsForNext`).
    pub flags_for_next: u64,
    /// Originator to acknowledge (`flagsAfterPropagation` target).
    pub from: *mut DataAccess,
    /// Flags OR-ed into `from` after the delivery.
    pub flags_after: u64,
}

impl Message {
    /// A message with no acknowledgement side.
    pub fn oneway(to: *mut DataAccess, flags_for_next: u64) -> Self {
        Self {
            to,
            flags_for_next,
            from: core::ptr::null_mut(),
            flags_after: 0,
        }
    }

    /// A message that acknowledges `from` with `flags_after` once
    /// delivered.
    pub fn with_ack(
        to: *mut DataAccess,
        flags_for_next: u64,
        from: *mut DataAccess,
        flags_after: u64,
    ) -> Self {
        Self {
            to,
            flags_for_next,
            from,
            flags_after,
        }
    }
}

/// Per-thread queue of undelivered messages (Figure 2). Plain LIFO: the
/// order of deliveries does not affect correctness (flags are monotone and
/// rules are crossing-triggered), so the cheapest container wins.
#[derive(Default)]
pub struct MailBox {
    queue: Vec<Message>,
}

thread_local! {
    /// The calling thread's message buffer between two drains.
    static SPARE: Cell<Vec<Message>> = const { Cell::new(Vec::new()) };
}

impl MailBox {
    /// An empty mailbox on this thread's reused buffer, so a drain
    /// allocates only when it queues more messages than any drain before
    /// it. The buffer is taken, not borrowed: a drain nested in this one
    /// gets a fresh buffer instead of an alias. Hand it back with
    /// [`MailBox::recycle`].
    #[inline]
    pub(crate) fn reused() -> Self {
        Self {
            queue: SPARE.take(),
        }
    }

    /// Give an emptied mailbox's buffer back to this thread.
    #[inline]
    pub(crate) fn recycle(self) {
        debug_assert!(self.queue.is_empty(), "recycled a mailbox with mail");
        SPARE.set(self.queue);
    }

    /// Enqueue a message for later delivery.
    #[inline]
    pub fn push(&mut self, m: Message) {
        self.queue.push(m);
    }

    /// Dequeue the next message.
    #[inline]
    pub fn pop(&mut self) -> Option<Message> {
        self.queue.pop()
    }

    /// True when no messages are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Pending message count.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_starts_with_type_bits_only() {
        let a = DataAccess::new(0x100, flags::TYPE_WRITE, core::ptr::null_mut(), None);
        assert_eq!(a.load_flags(), flags::TYPE_WRITE);
        assert_eq!(a.type_bits(), flags::TYPE_WRITE);
        assert!(a.successor.load(Ordering::Relaxed).is_null());
    }

    #[test]
    fn mailbox_lifo() {
        let mut mb = MailBox::reused();
        assert!(mb.is_empty());
        let a = Message::oneway(core::ptr::null_mut(), 1);
        let b = Message::oneway(core::ptr::null_mut(), 2);
        mb.push(a);
        mb.push(b);
        assert_eq!(mb.len(), 2);
        // A nested drain gets a buffer of its own, not an alias.
        assert_eq!(MailBox::reused().queue.capacity(), 0);
        assert_eq!(mb.pop().unwrap().flags_for_next, 2);
        assert_eq!(mb.pop().unwrap().flags_for_next, 1);
        assert!(mb.pop().is_none());
        let buf = mb.queue.as_ptr();
        mb.recycle();
        // The thread's next drain reuses the buffer.
        assert_eq!(MailBox::reused().queue.as_ptr(), buf);
    }

    #[test]
    fn message_constructors() {
        let m = Message::oneway(core::ptr::null_mut(), flags::READ_SAT);
        assert!(m.from.is_null());
        assert_eq!(m.flags_after, 0);
        let a = DataAccess::new(0, flags::TYPE_READ, core::ptr::null_mut(), None);
        let ack = Message::with_ack(
            core::ptr::null_mut(),
            flags::READ_SAT,
            &a as *const _ as *mut _,
            flags::ACK_R_SUCC,
        );
        assert!(!ack.from.is_null());
        assert_eq!(ack.flags_after, flags::ACK_R_SUCC);
    }
}
