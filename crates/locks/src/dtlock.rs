//! Delegation Ticket Lock (DTLock) — the paper's novel lock (§3.3,
//! Listing 4).
//!
//! The DTLock extends the [`PtLock`] with *fine-grained, dynamic
//! delegation*: a thread calling [`DtLock::lock_or_delegate`] either
//! acquires the lock (like a normal PTLock `lock`) or — if another thread
//! currently owns it — *publishes its identity* in a log queue (`logq`)
//! and waits. The owner can observe the waiting threads ([`DtLock::empty`],
//! [`DtLock::front`]), execute the delegated operation on their behalf,
//! deposit the result in a per-thread slot ([`DtLock::set_item`]) and
//! release them ([`DtLock::pop_front`]) without ever handing the lock
//! over. If the owner releases the lock without serving a waiter, that
//! waiter acquires the lock normally and executes its operation itself —
//! this is what makes the delegation *dynamic*, unlike classic delegation
//! (ffwd) which needs a dedicated server core.
//!
//! Protocol recap (Listing 4 with the paper's text):
//! * `lock_or_delegate(id)` takes a ticket, stores `ticket + id` into
//!   `logq[ticket % N]`, and busy-waits on the PTLock waiting array.
//!   Waking up, it checks `readyq[id].ticket`: if it equals its own
//!   ticket, the operation was delegated and the item is the result;
//!   otherwise it now owns the lock.
//! * The owner: `empty()` is true iff `logq[tail % N] < tail` (stale
//!   entry); `front()` recovers the waiter id as `logq[tail % N] - tail`
//!   (exact inverse of the registration store, valid because the waiter at
//!   the queue head always has `ticket == tail`); `set_item(id, item)`
//!   writes the result and marks it valid by setting the slot ticket to
//!   `tail`; `pop_front()` is `unlock()`, which advances `tail` and lets
//!   the served waiter out of its busy-wait.
//!
//! ### Deviation from Listing 4 as printed
//!
//! The listing's acquired path executes an extra `_tail++` after
//! `_waitTurn`. With the listing's own `unlock` (which already advances
//! `_tail` when it published our slot) that second increment desynchronizes
//! `tail` from the admitted ticket: the owner then inspects the wrong
//! `logq` slot (missing real waiters) and a subsequent `unlock` publishes a
//! slot no waiter is parked on. We keep the PTLock invariant —
//! **`tail` is always the next ticket to be admitted** — which makes the
//! acquired path increment-free and keeps `empty`/`front`/`set_item`
//! consistent in every interleaving (see `tests::serve_and_handoff_mix`).

use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicU64, Ordering};

use crate::ptlock::PtLock;
use crate::{CachePadded, RawLock};

/// Result of [`DtLock::lock_or_delegate`].
#[derive(Debug, PartialEq, Eq)]
pub enum LockOrDelegate<T> {
    /// The caller now owns the lock and must eventually `unlock` it.
    Acquired,
    /// The operation was executed by the lock owner on the caller's
    /// behalf; the payload is the result. The caller does **not** own the
    /// lock.
    Served(T),
}

struct ReadySlot<T> {
    /// Ticket for which `item` is valid; `u64::MAX` means "never served".
    ticket: AtomicU64,
    item: UnsafeCell<Option<T>>,
}

impl<T> Default for ReadySlot<T> {
    fn default() -> Self {
        Self {
            ticket: AtomicU64::new(u64::MAX),
            item: UnsafeCell::new(None),
        }
    }
}

/// Delegation Ticket Lock over result type `T`, with `N` slots.
///
/// At most `N` threads may use the lock, each with a unique id in
/// `0..N` (the paper: "we need to know in advance the maximum number of
/// threads that can call the DTLock").
pub struct DtLock<T, const N: usize = { crate::ptlock::DEFAULT_SLOTS }> {
    inner: PtLock<N>,
    /// Waiter registration: slot `t % N` holds `t + id` for ticket `t`.
    logq: Box<[CachePadded<AtomicU64>]>,
    /// Per-thread-id delegation results.
    readyq: Box<[CachePadded<ReadySlot<T>>]>,
}

unsafe impl<T: Send, const N: usize> Send for DtLock<T, N> {}
unsafe impl<T: Send, const N: usize> Sync for DtLock<T, N> {}

impl<T, const N: usize> Default for DtLock<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> DtLock<T, N> {
    /// Create an unlocked DTLock.
    pub fn new() -> Self {
        Self {
            inner: PtLock::new(),
            logq: (0..N)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            readyq: (0..N)
                .map(|_| CachePadded::new(ReadySlot::default()))
                .collect(),
        }
    }

    /// Maximum number of participating threads (== distinct ids).
    pub const fn capacity(&self) -> usize {
        N
    }

    /// Sentinel returned by [`DtLock::front`] for a waiter that entered
    /// through plain [`RawLock::lock`] and therefore cannot be served; the
    /// owner must eventually admit it by unlocking.
    pub const UNSERVABLE: usize = N;

    /// Acquire the lock or wait to be served by the current owner.
    ///
    /// `id` must be unique per participating thread and in `0..N`.
    pub fn lock_or_delegate(&self, id: usize) -> LockOrDelegate<T> {
        debug_assert!(id < N, "thread id {id} out of range 0..{N}");
        let ticket = self.inner.get_ticket();
        // Register: one store combining ticket and id. Cannot be overrun
        // because at most N threads hold outstanding tickets.
        self.logq[(ticket % N as u64) as usize].store(ticket + id as u64, Ordering::Release);
        self.inner.wait_turn(ticket);
        // Either the owner served us (readyq[id].ticket == our ticket,
        // published before the wait_turn release we just synchronized
        // with), or we have been admitted and now own the lock.
        let slot = &self.readyq[id];
        if slot.ticket.load(Ordering::Acquire) != ticket {
            return LockOrDelegate::Acquired;
        }
        // SAFETY: the owner wrote the item before the ticket store we just
        // observed with Acquire and will never touch this slot again for
        // this ticket; we are the only reader.
        let item = unsafe { (*slot.item.get()).take() };
        LockOrDelegate::Served(item.expect("served slot must hold an item"))
    }

    /// True iff no thread is currently registered behind the owner.
    ///
    /// Owner-only. "Intrinsically racy but harmless": a waiter registering
    /// concurrently may be missed, in which case it is admitted by the
    /// owner's eventual `unlock`.
    pub fn empty(&self) -> bool {
        let tail = self.inner.tail();
        self.logq[(tail % N as u64) as usize].load(Ordering::Acquire) < tail
    }

    /// Id of the first waiting thread, or [`Self::UNSERVABLE`] for a
    /// plain-`lock()` waiter. Owner-only; call only after
    /// [`DtLock::empty`] returned `false`.
    pub fn front(&self) -> usize {
        let tail = self.inner.tail();
        let entry = self.logq[(tail % N as u64) as usize].load(Ordering::Acquire);
        debug_assert!(entry >= tail, "front() without a registered waiter");
        (entry - tail) as usize
    }

    /// Deposit the delegated result for waiter `id` (which must be the
    /// current [`DtLock::front`]). Owner-only. Follow with
    /// [`DtLock::pop_front`] to release the waiter.
    pub fn set_item(&self, id: usize, item: T) {
        debug_assert!(id < N);
        let slot = &self.readyq[id];
        // SAFETY: `id` is the front waiter, which is parked in wait_turn
        // and cannot read the slot until pop_front publishes; the owner is
        // the only writer.
        unsafe { *slot.item.get() = Some(item) };
        // Mark valid: the front waiter's ticket always equals `tail`.
        slot.ticket.store(self.inner.tail(), Ordering::Release);
    }

    /// Release the front waiter (after [`DtLock::set_item`], it leaves as
    /// *served*; without it, it leaves as the new lock owner). Owner-only.
    pub fn pop_front(&self) {
        self.inner.publish_tail();
    }
}

impl<T: Send, const N: usize> RawLock for DtLock<T, N> {
    #[inline]
    fn lock(&self) {
        // A plain lock() waits without offering itself for delegation: it
        // registers the UNSERVABLE sentinel (id == N) so an owner
        // inspecting the queue head knows this waiter can only be admitted
        // via unlock, never served via set_item.
        let ticket = self.inner.get_ticket();
        self.logq[(ticket % N as u64) as usize]
            .store(ticket + Self::UNSERVABLE as u64, Ordering::Release);
        self.inner.wait_turn(ticket);
    }

    #[inline]
    fn unlock(&self) {
        self.inner.publish_tail();
    }

    #[inline]
    fn try_lock(&self) -> bool {
        // Delegate to the PTLock fast path; on success we own the lock and
        // no logq registration is needed (nobody will try to serve us —
        // servers only inspect logq entries at `tail`, and our admission
        // already advanced past our ticket... registration happens below
        // for consistency of front()).
        if !self.inner.try_lock() {
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    /// Pins the DTLock's layout: every waiter slot (written by its
    /// waiter) and every delegation result (written by the owner for one
    /// waiter) starts a 128-byte line of its own, and the PTLock's ticket
    /// words start lines of their own too. The struct is destructured
    /// without `..`, so a new field does not compile until it is placed.
    #[test]
    fn shared_writes_own_their_lines() {
        use core::mem::{align_of, offset_of, size_of};
        fn padded_slots<U>(_: &[CachePadded<U>]) {}
        let _pin = |l: &DtLock<u64, 8>| {
            let DtLock {
                inner: _, // head and tail padded inside the PtLock
                logq,     // one padded slot per ticket
                readyq,   // one padded slot per thread id
            } = l;
            padded_slots(logq);
            padded_slots(readyq);
        };
        assert!(offset_of!(DtLock<u64, 8>, inner).is_multiple_of(128));
        assert!(size_of::<PtLock<8>>().is_multiple_of(128));
        assert_eq!(align_of::<CachePadded<AtomicU64>>(), 128);
        assert!(size_of::<CachePadded<AtomicU64>>().is_multiple_of(128));
        assert_eq!(align_of::<CachePadded<ReadySlot<u64>>>(), 128);
        assert!(size_of::<CachePadded<ReadySlot<u64>>>().is_multiple_of(128));
    }

    #[test]
    fn uncontended_acquire() {
        let l: DtLock<u64, 8> = DtLock::new();
        assert!(matches!(l.lock_or_delegate(0), LockOrDelegate::Acquired));
        assert!(l.empty());
        l.unlock();
    }

    #[test]
    fn try_lock_and_unlock() {
        let l: DtLock<u64, 8> = DtLock::new();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        l.unlock();
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn owner_serves_one_waiter() {
        let l: Arc<DtLock<u64, 8>> = Arc::new(DtLock::new());
        assert!(matches!(l.lock_or_delegate(0), LockOrDelegate::Acquired));

        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || l2.lock_or_delegate(3));

        // Wait for the registration to land.
        while l.empty() {
            std::hint::spin_loop();
        }
        assert_eq!(l.front(), 3);
        l.set_item(3, 42);
        l.pop_front();

        assert_eq!(waiter.join().unwrap(), LockOrDelegate::Served(42));
        // We still own the lock.
        assert!(!l.try_lock());
        l.unlock();
    }

    #[test]
    fn unserved_waiter_acquires_on_unlock() {
        let l: Arc<DtLock<u64, 8>> = Arc::new(DtLock::new());
        assert!(matches!(l.lock_or_delegate(0), LockOrDelegate::Acquired));

        let l2 = Arc::clone(&l);
        let released = Arc::new(AtomicBool::new(false));
        let released2 = Arc::clone(&released);
        let waiter = std::thread::spawn(move || {
            let r = l2.lock_or_delegate(5);
            assert!(matches!(r, LockOrDelegate::Acquired));
            released2.store(true, Ordering::SeqCst);
            l2.unlock();
        });

        while l.empty() {
            std::hint::spin_loop();
        }
        assert!(!released.load(Ordering::SeqCst));
        l.unlock(); // hand the lock over instead of serving
        waiter.join().unwrap();
        assert!(released.load(Ordering::SeqCst));
        // Lock must be free again.
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn serve_many_waiters_in_fifo_order() {
        const THREADS: usize = 6;
        let l: Arc<DtLock<u64, 8>> = Arc::new(DtLock::new());
        assert!(matches!(l.lock_or_delegate(7), LockOrDelegate::Acquired));

        let hs: Vec<_> = (0..THREADS)
            .map(|id| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || match l.lock_or_delegate(id) {
                    LockOrDelegate::Served(v) => v,
                    LockOrDelegate::Acquired => {
                        l.unlock();
                        u64::MAX
                    }
                })
            })
            .collect();

        // Serve every waiter a value derived from its id.
        let mut served = 0;
        while served < THREADS {
            if !l.empty() {
                let id = l.front();
                l.set_item(id, 1000 + id as u64);
                l.pop_front();
                served += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        l.unlock();

        for (id, h) in hs.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), 1000 + id as u64);
        }
    }

    #[test]
    fn serve_and_handoff_mix() {
        // Stress the exact interleaving the printed Listing 4 breaks on:
        // the owner serves some waiters, then unlocks with waiters still
        // queued; the woken waiter becomes owner and must see a consistent
        // tail (correct empty()/front()).
        const ROUNDS: usize = 300;
        const THREADS: usize = 4;
        let l: Arc<DtLock<u64, 8>> = Arc::new(DtLock::new());
        let total = Arc::new(AtomicUsize::new(0));

        let hs: Vec<_> = (0..THREADS)
            .map(|id| {
                let l = Arc::clone(&l);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for r in 0..ROUNDS {
                        match l.lock_or_delegate(id) {
                            LockOrDelegate::Served(_) => {
                                total.fetch_add(1, Ordering::Relaxed);
                            }
                            LockOrDelegate::Acquired => {
                                // Serve at most one waiter, then hand off.
                                if r % 2 == 0 && !l.empty() {
                                    let w = l.front();
                                    l.set_item(w, w as u64);
                                    l.pop_front();
                                }
                                total.fetch_add(1, Ordering::Relaxed);
                                l.unlock();
                            }
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), ROUNDS * THREADS);
        // Lock ends free.
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn empty_is_racy_but_harmless() {
        // empty() may transiently report true while a registration is in
        // flight; the waiter must still make progress via unlock.
        let l: Arc<DtLock<u64, 4>> = Arc::new(DtLock::new());
        for _ in 0..100 {
            assert!(matches!(l.lock_or_delegate(0), LockOrDelegate::Acquired));
            let l2 = Arc::clone(&l);
            let h = std::thread::spawn(move || match l2.lock_or_delegate(1) {
                LockOrDelegate::Acquired => {
                    l2.unlock();
                }
                LockOrDelegate::Served(_) => {}
            });
            // Unlock immediately — maybe before the waiter registered.
            l.unlock();
            h.join().unwrap();
        }
    }

    #[test]
    fn capacity_reports_n() {
        let l: DtLock<u32, 16> = DtLock::new();
        assert_eq!(l.capacity(), 16);
    }
}
