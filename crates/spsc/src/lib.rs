//! Bounded wait-free single-producer single-consumer queue.
//!
//! §3.1 of *Advanced Synchronization Techniques for Task-based Runtime
//! Systems* (PPoPP '21) decouples *adding* ready tasks from *scheduling*
//! them: a task that becomes ready is pushed into a bounded wait-free SPSC
//! queue (the paper uses `boost::lockfree::spsc_queue`) and only moved
//! into the real scheduler when a worker enters it. This crate is that
//! queue: a classic Lamport ring buffer with cache-padded head/tail
//! indices and cached remote indices (the "fast-forward" optimisation) so
//! the producer and consumer touch each other's cache lines only when the
//! queue is near-full or near-empty.
//!
//! Both `push` and `pop` are a bounded number of instructions with no
//! retries — wait-free, which is what keeps the *producer* (the task
//! creator, the scarce resource in §3) insulated from consumer-side
//! contention.

use core::cell::{Cell, UnsafeCell};
use core::mem::MaybeUninit;
use core::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Cache-line size assumed for padding (two 64-byte lines, as
/// `nanotask_locks::CachePadded` assumes, for adjacent-line prefetch).
const LINE: usize = 128;

/// Pads to a cache line (kept local to avoid a cross-crate dependency for
/// one type; same layout rationale as `nanotask_locks::CachePadded`).
#[repr(align(128))]
struct Pad<T>(T);

/// Shared state of the ring buffer.
struct Ring<T> {
    /// Next slot to write. Owned by the producer, read by the consumer.
    head: Pad<AtomicUsize>,
    /// Next slot to read. Owned by the consumer, read by the producer.
    tail: Pad<AtomicUsize>,
    /// The slots plus up to a line of slack on either side: slot `i` is
    /// `buf[off + i]`, and `off` puts slot 0 on a line boundary. The slots
    /// then share no line with a neighbouring heap block, so which slots
    /// false-share no longer depends on where the allocator placed them.
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    off: usize,
    cap: usize,
}

impl<T> Ring<T> {
    #[inline]
    fn slot(&self, i: usize) -> &UnsafeCell<MaybeUninit<T>> {
        &self.buf[self.off + i]
    }
}

unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

/// Producer endpoint of the queue. `!Sync`: exactly one thread may push.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    /// Cached copy of the consumer's tail, refreshed only when the queue
    /// looks full; avoids loading the remote line on every push.
    cached_tail: Cell<usize>,
}

/// Consumer endpoint of the queue. `!Sync`: exactly one thread may pop.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Cached copy of the producer's head, refreshed only when the queue
    /// looks empty.
    cached_head: Cell<usize>,
}

unsafe impl<T: Send> Send for Producer<T> {}
unsafe impl<T: Send> Send for Consumer<T> {}

/// Create a bounded SPSC queue with room for `capacity` elements.
///
/// ```
/// let (p, mut c) = nanotask_spsc::channel::<u32>(8);
/// assert!(p.push(1).is_ok());
/// assert!(p.push(2).is_ok());
/// assert_eq!(c.pop(), Some(1));
/// assert_eq!(c.pop(), Some(2));
/// assert_eq!(c.pop(), None);
/// ```
pub fn channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "capacity must be positive");
    // One slot is sacrificed to distinguish full from empty.
    let cap = capacity + 1;
    let slack = LINE.div_ceil(core::mem::size_of::<T>().max(1));
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap + 2 * slack)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    // `usize::MAX` (alignment unreachable, e.g. odd-sized `T`): start at 0.
    let off = match buf.as_ptr().align_offset(LINE) {
        o if o <= slack => o,
        _ => 0,
    };
    let ring = Arc::new(Ring {
        head: Pad(AtomicUsize::new(0)),
        tail: Pad(AtomicUsize::new(0)),
        buf,
        off,
        cap,
    });
    (
        Producer {
            ring: Arc::clone(&ring),
            cached_tail: Cell::new(0),
        },
        Consumer {
            ring,
            cached_head: Cell::new(0),
        },
    )
}

#[inline]
fn next(i: usize, cap: usize) -> usize {
    let n = i + 1;
    if n == cap { 0 } else { n }
}

impl<T> Producer<T> {
    /// Push an element; returns it back if the queue is full.
    ///
    /// Wait-free: one load, one store, at most one remote refresh.
    #[inline]
    pub fn push(&self, value: T) -> Result<(), T> {
        let ring = &*self.ring;
        let head = ring.head.0.load(Ordering::Relaxed);
        let nxt = next(head, ring.cap);
        if nxt == self.cached_tail.get() {
            // Looks full — refresh the remote tail once.
            self.cached_tail.set(ring.tail.0.load(Ordering::Acquire));
            if nxt == self.cached_tail.get() {
                return Err(value);
            }
        }
        // SAFETY: slot `head` is outside the consumer's visible window
        // (tail..head), and we are the only producer.
        unsafe { (*ring.slot(head).get()).write(value) };
        ring.head.0.store(nxt, Ordering::Release);
        Ok(())
    }

    /// Number of free slots (approximate from the producer side).
    #[inline]
    pub fn free(&self) -> usize {
        let ring = &*self.ring;
        let head = ring.head.0.load(Ordering::Relaxed);
        let tail = ring.tail.0.load(Ordering::Acquire);
        ring.cap - 1 - (head + ring.cap - tail) % ring.cap
    }

    /// Capacity the queue was created with.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.ring.cap - 1
    }
}

impl<T> Consumer<T> {
    /// Pop the oldest element, or `None` if the queue is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        let ring = &*self.ring;
        let tail = ring.tail.0.load(Ordering::Relaxed);
        if tail == self.cached_head.get() {
            // Looks empty — refresh the remote head once.
            self.cached_head.set(ring.head.0.load(Ordering::Acquire));
            if tail == self.cached_head.get() {
                return None;
            }
        }
        // SAFETY: head > tail so the producer has published this slot; we
        // are the only consumer.
        let value = unsafe { (*ring.slot(tail).get()).assume_init_read() };
        ring.tail.0.store(next(tail, ring.cap), Ordering::Release);
        Some(value)
    }

    /// Drain every currently-visible element into `f`, returning the count.
    ///
    /// This is the `consume_all` of Listing 5: the scheduler-owning worker
    /// moves every buffered ready task into the real scheduler in one call.
    #[inline]
    pub fn consume_all(&mut self, mut f: impl FnMut(T)) -> usize {
        let mut n = 0;
        // Snapshot the head once: elements pushed after the call started
        // are picked up by the next drain, keeping the call bounded.
        let ring = &*self.ring;
        let head = ring.head.0.load(Ordering::Acquire);
        self.cached_head.set(head);
        let mut tail = ring.tail.0.load(Ordering::Relaxed);
        while tail != head {
            let value = unsafe { (*ring.slot(tail).get()).assume_init_read() };
            tail = next(tail, ring.cap);
            ring.tail.0.store(tail, Ordering::Release);
            f(value);
            n += 1;
        }
        n
    }

    /// True if no element is currently visible to the consumer.
    #[inline]
    pub fn is_empty(&self) -> bool {
        let ring = &*self.ring;
        ring.tail.0.load(Ordering::Relaxed) == ring.head.0.load(Ordering::Acquire)
    }

    /// Number of elements currently visible (approximate).
    #[inline]
    pub fn len(&self) -> usize {
        let ring = &*self.ring;
        let tail = ring.tail.0.load(Ordering::Relaxed);
        let head = ring.head.0.load(Ordering::Acquire);
        (head + ring.cap - tail) % ring.cap
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Drop any elements still in the queue.
        let mut tail = *self.tail.0.get_mut();
        let head = *self.head.0.get_mut();
        while tail != head {
            unsafe { (*self.slot(tail).get()).assume_init_drop() };
            tail = next(tail, self.cap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the ring's layout: `head` (written by the producer) and
    /// `tail` (written by the consumer) each start a 128-byte line of
    /// their own, so the read-only fields after them share neither. The
    /// struct is destructured without `..`, so a new field does not
    /// compile until it is placed.
    #[test]
    fn shared_writes_own_their_lines() {
        use core::mem::{align_of, offset_of, size_of};
        fn own_line<T>(_: &Pad<T>) {}
        let _pin = |r: &Ring<usize>| {
            let Ring {
                head,
                tail,
                buf: _, // read-only; slot lines: `slots_own_their_cache_lines`
                off: _, // read-only
                cap: _, // read-only
            } = r;
            own_line(head);
            own_line(tail);
        };
        assert_eq!(align_of::<Pad<AtomicUsize>>(), LINE);
        assert!(size_of::<Pad<AtomicUsize>>().is_multiple_of(LINE));
        assert!(offset_of!(Ring<usize>, head).is_multiple_of(LINE));
        assert!(offset_of!(Ring<usize>, tail).is_multiple_of(LINE));
    }

    #[test]
    fn slots_own_their_cache_lines() {
        for capacity in [1, 7, 100] {
            let (p, _c) = channel::<usize>(capacity);
            let ring = &*p.ring;
            let first = ring.slot(0) as *const _ as usize;
            let end = first + ring.cap * core::mem::size_of::<usize>();
            let buf_end = ring.buf.as_ptr_range().end as usize;
            assert_eq!(first % LINE, 0, "capacity {capacity}");
            assert!(buf_end >= end.next_multiple_of(LINE), "capacity {capacity}");
        }
    }

    #[test]
    fn fifo_order() {
        let (p, mut c) = channel::<u32>(4);
        for i in 0..4 {
            p.push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn full_rejects_and_returns_value() {
        let (p, mut c) = channel::<String>(2);
        p.push("a".into()).unwrap();
        p.push("b".into()).unwrap();
        assert_eq!(p.push("c".into()), Err("c".to_string()));
        assert_eq!(c.pop().as_deref(), Some("a"));
        // Space freed: push succeeds again.
        p.push("c".into()).unwrap();
    }

    #[test]
    fn capacity_exact() {
        let (p, _c) = channel::<u8>(7);
        assert_eq!(p.capacity(), 7);
        for _ in 0..7 {
            p.push(0).unwrap();
        }
        assert!(p.push(0).is_err());
        assert_eq!(p.free(), 0);
    }

    #[test]
    fn consume_all_drains_snapshot() {
        let (p, mut c) = channel::<u32>(16);
        for i in 0..10 {
            p.push(i).unwrap();
        }
        let mut out = Vec::new();
        let n = c.consume_all(|v| out.push(v));
        assert_eq!(n, 10);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert!(c.is_empty());
    }

    #[test]
    fn len_tracks_contents() {
        let (p, mut c) = channel::<u32>(8);
        assert_eq!(c.len(), 0);
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(c.len(), 2);
        c.pop();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn wraparound_many_rounds() {
        let (p, mut c) = channel::<usize>(3);
        for round in 0..1000 {
            p.push(round).unwrap();
            assert_eq!(c.pop(), Some(round));
        }
    }

    #[test]
    fn drop_releases_queued_elements() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let (p, _c) = channel::<D>(8);
            assert!(p.push(D).is_ok());
            assert!(p.push(D).is_ok());
            assert!(p.push(D).is_ok());
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn cross_thread_transfer_preserves_sequence() {
        const COUNT: usize = 100_000;
        let (p, mut c) = channel::<usize>(64);
        let producer = std::thread::spawn(move || {
            for i in 0..COUNT {
                let mut v = i;
                loop {
                    match p.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut expected = 0;
        while expected < COUNT {
            match c.pop() {
                Some(v) => {
                    assert_eq!(v, expected);
                    expected += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn cross_thread_consume_all_batches() {
        const COUNT: usize = 50_000;
        let (p, mut c) = channel::<usize>(128);
        let producer = std::thread::spawn(move || {
            for i in 0..COUNT {
                let mut v = i;
                while let Err(back) = p.push(v) {
                    v = back;
                    std::thread::yield_now();
                }
            }
        });
        let mut received = Vec::with_capacity(COUNT);
        while received.len() < COUNT {
            let got = c.consume_all(|v| received.push(v));
            if got == 0 {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(received, (0..COUNT).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod prop_tests {
    //! Model-based testing: the queue must behave exactly like a bounded
    //! `VecDeque` under any single-threaded sequence of operations, and
    //! preserve the exact element sequence under concurrent use.

    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(u32),
        Pop,
        ConsumeAll,
        Len,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => any::<u32>().prop_map(Op::Push),
            3 => Just(Op::Pop),
            1 => Just(Op::ConsumeAll),
            1 => Just(Op::Len),
        ]
    }

    proptest! {
        #[test]
        fn behaves_like_bounded_vecdeque(
            cap in 1usize..32,
            ops in proptest::collection::vec(op(), 1..200),
        ) {
            let (p, mut c) = channel::<u32>(cap);
            let mut model: VecDeque<u32> = VecDeque::new();
            for o in ops {
                match o {
                    Op::Push(v) => {
                        let real = p.push(v);
                        if model.len() < cap {
                            model.push_back(v);
                            prop_assert!(real.is_ok());
                        } else {
                            prop_assert_eq!(real, Err(v));
                        }
                    }
                    Op::Pop => {
                        prop_assert_eq!(c.pop(), model.pop_front());
                    }
                    Op::ConsumeAll => {
                        let mut got = Vec::new();
                        c.consume_all(|v| got.push(v));
                        let want: Vec<u32> = model.drain(..).collect();
                        prop_assert_eq!(got, want);
                    }
                    Op::Len => {
                        prop_assert_eq!(c.len(), model.len());
                        prop_assert_eq!(c.is_empty(), model.is_empty());
                        prop_assert_eq!(p.free(), cap - model.len());
                    }
                }
            }
        }

        #[test]
        fn concurrent_sequence_preserved(
            cap in 1usize..16,
            count in 1usize..2_000,
        ) {
            let (p, mut c) = channel::<usize>(cap);
            let producer = std::thread::spawn(move || {
                for i in 0..count {
                    let mut v = i;
                    while let Err(back) = p.push(v) {
                        v = back;
                        std::thread::yield_now();
                    }
                }
            });
            let mut next = 0usize;
            while next < count {
                match c.pop() {
                    Some(v) => {
                        prop_assert_eq!(v, next);
                        next += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            producer.join().unwrap();
            prop_assert_eq!(c.pop(), None);
        }
    }
}
