//! Scalable lock designs for task-based runtime systems.
//!
//! This crate implements the three locks §3 of *Advanced Synchronization
//! Techniques for Task-based Runtime Systems* (PPoPP '21) builds on and
//! measures:
//!
//! * [`TicketLock`] — the classic fair FIFO ticket lock
//!   (Reed & Kanodia), used as the baseline that "has contention problems
//!   under high-load conditions".
//! * [`PtLock`] — the *Partitioned Ticket Lock* (Dice,
//!   SPAA '11), Listing 3 of the paper: a ticket lock whose waiters spin on
//!   a padded circular array so each core busy-waits on a private cache
//!   line.
//! * [`DtLock`] — the paper's novel **Delegation Ticket
//!   Lock** (Listing 4): a PTLock extended with a waiter log (`_logq`) and
//!   a result array (`_readyq`) so the lock owner can *serve* operations on
//!   behalf of the threads that are still waiting.
//!
//! The ticket lock and the PTLock implement the [`RawLock`] trait, the seam
//! through which the runtime's central scheduler is instantiated with
//! either (the paper's "w/o DTLock" ablation uses the PTLock).
//!
//! # Spinning policy
//!
//! The paper evaluates on 48–256 hardware threads where pure busy-waiting
//! is fine. This reproduction must also run correctly on heavily
//! oversubscribed hosts (CI containers with a single core), so every spin
//! loop uses [`Backoff`]: a short burst of
//! `core::hint::spin_loop` followed by `std::thread::yield_now`. This
//! preserves the algorithms' fairness and cache behaviour while remaining
//! live under oversubscription.

pub mod backoff;
pub mod dtlock;
pub mod pad;
pub mod ptlock;
pub mod ticket;

pub use backoff::Backoff;
pub use dtlock::DtLock;
pub use pad::CachePadded;
pub use ptlock::PtLock;
pub use ticket::TicketLock;

/// A raw mutual-exclusion primitive.
///
/// The runtime's central scheduler is generic over this trait, so its
/// PTLock ("w/o DTLock") and ticket-lock (`t34_sched_speedup`) variants
/// differ in one type parameter.
pub trait RawLock: Send + Sync + Default {
    /// Acquire the lock, blocking (spinning) until it is held.
    fn lock(&self);
    /// Release the lock. Must only be called by the current holder.
    fn unlock(&self);
    /// Try to acquire the lock without waiting.
    fn try_lock(&self) -> bool;

    /// Run `f` while holding the lock.
    #[inline]
    fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        self.lock();
        let r = f();
        self.unlock();
        r
    }
}

/// RAII guard returned by [`LockExt::guard`].
pub struct Guard<'a, L: RawLock> {
    lock: &'a L,
}

impl<L: RawLock> Drop for Guard<'_, L> {
    #[inline]
    fn drop(&mut self) {
        self.lock.unlock();
    }
}

/// Guard-style convenience over any [`RawLock`].
pub trait LockExt: RawLock + Sized {
    /// Acquire the lock and return an RAII guard that releases on drop.
    #[inline]
    fn guard(&self) -> Guard<'_, Self> {
        self.lock();
        Guard { lock: self }
    }
}

impl<L: RawLock + Sized> LockExt for L {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Generic mutual-exclusion smoke test shared by all lock tests.
    pub(crate) fn mutual_exclusion<L: RawLock + 'static>(threads: usize, iters: usize) {
        let lock = Arc::new(L::default());
        let counter = Arc::new(AtomicUsize::new(0));
        let inside = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                let inside = Arc::clone(&inside);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        lock.lock();
                        assert_eq!(inside.fetch_add(1, Ordering::Relaxed), 0, "lock violated");
                        counter.fetch_add(1, Ordering::Relaxed);
                        inside.fetch_sub(1, Ordering::Relaxed);
                        lock.unlock();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), threads * iters);
    }

    #[test]
    fn guard_releases_on_drop() {
        let l = TicketLock::new();
        {
            let _g = l.guard();
            assert!(!l.try_lock());
        }
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn with_returns_value() {
        let l = TicketLock::new();
        let v = l.with(|| 42);
        assert_eq!(v, 42);
        assert!(l.try_lock());
        l.unlock();
    }
}
