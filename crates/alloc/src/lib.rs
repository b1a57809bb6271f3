//! Scalable memory allocation for task-shaped objects.
//!
//! §4 of *Advanced Synchronization Techniques for Task-based Runtime
//! Systems* (PPoPP '21) observes that once the scheduler and the
//! dependency system stop serializing the runtime, the *memory allocator*
//! becomes the next bottleneck: "many implementations require the
//! serialization of every allocation in the system". The paper's fix is to
//! substitute the default allocator with jemalloc.
//!
//! This crate provides the equivalent seam for the reproduction:
//!
//! * [`PoolAllocator`] — the jemalloc stand-in: a size-class slab
//!   allocator with per-thread magazines, so task/access allocations and
//!   frees on the hot path touch only thread-private state and fall back
//!   to a shared slab carver only on magazine misses.
//! * [`SystemAllocator`] — direct `std::alloc` passthrough.
//! * [`SerializedAllocator`] — `std::alloc` behind one global lock; this
//!   models the serializing allocators the paper blames, and is what the
//!   "w/o jemalloc" ablation (Figures 4–6) runs with.
//!
//! All three implement [`RuntimeAllocator`], the object-safe trait the
//! runtime uses for every task, access and mailbox allocation.

use core::alloc::Layout;
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;

pub mod stats;
pub use stats::AllocStats;

/// Object-safe allocation interface used by the runtime.
///
/// # Safety
///
/// Implementations must return memory valid for `layout` and accept in
/// `dealloc` exactly the pointers (with the same layout) they handed out.
pub unsafe trait RuntimeAllocator: Send + Sync {
    /// Allocate `layout.size()` bytes with `layout.align()` alignment.
    /// Never returns null; aborts on OOM like `std::alloc`.
    fn alloc(&self, layout: Layout) -> *mut u8;

    /// Return memory previously obtained from [`RuntimeAllocator::alloc`]
    /// with the same layout.
    ///
    /// # Safety
    /// `ptr` must come from `self.alloc(layout)` and not be freed twice.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout);

    /// Snapshot of allocation statistics (zeroes if untracked).
    fn stats(&self) -> AllocStats {
        AllocStats::default()
    }
}

/// Which allocator a runtime configuration uses. Mirrors the paper's
/// ablation axis: `Pool` ≙ jemalloc, `Serialized` ≙ "w/o jemalloc".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocatorKind {
    /// Size-class pool with per-thread magazines (the optimized runtime).
    #[default]
    Pool,
    /// Plain system allocator.
    System,
    /// System allocator behind a global lock (the ablation baseline).
    Serialized,
}

/// Build an allocator of the requested kind. `max_threads` bounds the
/// number of per-thread magazine slots the pool keeps.
pub fn make_allocator(
    kind: AllocatorKind,
    max_threads: usize,
) -> std::sync::Arc<dyn RuntimeAllocator> {
    match kind {
        AllocatorKind::Pool => std::sync::Arc::new(PoolAllocator::new(max_threads)),
        AllocatorKind::System => std::sync::Arc::new(SystemAllocator::default()),
        AllocatorKind::Serialized => std::sync::Arc::new(SerializedAllocator::default()),
    }
}

// ---------------------------------------------------------------------------
// System allocators
// ---------------------------------------------------------------------------

/// Passthrough to the global allocator.
#[derive(Default)]
pub struct SystemAllocator {
    live: AtomicUsize,
}

unsafe impl RuntimeAllocator for SystemAllocator {
    fn alloc(&self, layout: Layout) -> *mut u8 {
        self.live.fetch_add(1, Ordering::Relaxed);
        let p = unsafe { std::alloc::alloc(layout) };
        assert!(!p.is_null(), "system allocation failed");
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(1, Ordering::Relaxed);
        unsafe { std::alloc::dealloc(ptr, layout) };
    }

    fn stats(&self) -> AllocStats {
        AllocStats {
            live: self.live.load(Ordering::Relaxed) as u64,
            ..AllocStats::default()
        }
    }
}

/// System allocator with every call serialized through one lock.
///
/// This deliberately reproduces the §4 pathology: every task creation in
/// the runtime contends on this lock, which is what the "w/o jemalloc"
/// curves in Figures 4–6 show at fine granularities.
#[derive(Default)]
pub struct SerializedAllocator {
    lock: Mutex<()>,
    live: AtomicUsize,
}

unsafe impl RuntimeAllocator for SerializedAllocator {
    fn alloc(&self, layout: Layout) -> *mut u8 {
        let _g = self.lock.lock();
        self.live.fetch_add(1, Ordering::Relaxed);
        let p = unsafe { std::alloc::alloc(layout) };
        assert!(!p.is_null(), "system allocation failed");
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _g = self.lock.lock();
        self.live.fetch_sub(1, Ordering::Relaxed);
        unsafe { std::alloc::dealloc(ptr, layout) };
    }

    fn stats(&self) -> AllocStats {
        AllocStats {
            live: self.live.load(Ordering::Relaxed) as u64,
            ..AllocStats::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Pool allocator
// ---------------------------------------------------------------------------

/// Size classes (bytes). Multiples of 16 so any ≤16-byte alignment works;
/// geometric above 256 to bound internal fragmentation at ~33%.
const CLASSES: &[usize] = &[
    16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096,
];

/// Blocks per magazine refill/flush batch.
const BATCH: usize = 32;

/// Magazine high-watermark: flush half once a class cache reaches this.
const MAG_MAX: usize = 128;

/// Bytes carved per slab.
const SLAB_BYTES: usize = 64 * 1024;

/// Maximum supported alignment of pooled blocks.
const MAX_POOL_ALIGN: usize = 16;

#[inline]
fn class_of(layout: Layout) -> Option<usize> {
    if layout.align() > MAX_POOL_ALIGN {
        return None;
    }
    CLASSES.iter().position(|&c| c >= layout.size())
}

/// Per-thread cache of free blocks, one vec per size class.
#[derive(Default)]
struct Magazine {
    classes: Vec<Vec<*mut u8>>,
}

impl Magazine {
    fn new() -> Self {
        Self {
            classes: (0..CLASSES.len()).map(|_| Vec::new()).collect(),
        }
    }
}

// Raw block pointers are plain memory owned by the allocator's slabs.
unsafe impl Send for Magazine {}

/// Global (shared) free lists + slab carver for one size class.
#[derive(Default)]
struct GlobalClass {
    free: Vec<*mut u8>,
}

unsafe impl Send for GlobalClass {}

struct Slabs {
    chunks: Vec<(*mut u8, Layout)>,
}

unsafe impl Send for Slabs {}

impl Drop for Slabs {
    fn drop(&mut self) {
        for &(ptr, layout) in &self.chunks {
            unsafe { std::alloc::dealloc(ptr, layout) };
        }
    }
}

/// Size-class slab allocator with per-thread magazines: the crate's
/// jemalloc stand-in.
///
/// Hot path: pop/push on a thread-private magazine (an uncontended
/// `parking_lot::Mutex`, ~1 CAS). Miss path: batch transfer of `BATCH`
/// (32) blocks between the magazine and a per-class global free list; if
/// the global list is empty a new `SLAB_BYTES` (64 KiB) slab is carved.
pub struct PoolAllocator {
    id: u64,
    magazines: Box<[Mutex<Magazine>]>,
    globals: Box<[Mutex<GlobalClass>]>,
    slabs: Mutex<Slabs>,
    max_threads: usize,
    next_slot: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    slab_bytes: AtomicU64,
    live: AtomicUsize,
    oversize: AtomicU64,
}

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Maps pool-allocator id → this thread's magazine slot.
    static THREAD_SLOTS: RefCell<HashMap<u64, usize>> = RefCell::new(HashMap::new());
}

impl PoolAllocator {
    /// Create a pool with one magazine slot per expected thread.
    pub fn new(max_threads: usize) -> Self {
        let max_threads = max_threads.max(1);
        Self {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            magazines: (0..max_threads)
                .map(|_| Mutex::new(Magazine::new()))
                .collect(),
            globals: (0..CLASSES.len())
                .map(|_| Mutex::new(GlobalClass::default()))
                .collect(),
            slabs: Mutex::new(Slabs { chunks: Vec::new() }),
            max_threads,
            next_slot: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            slab_bytes: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            oversize: AtomicU64::new(0),
        }
    }

    fn slot(&self) -> usize {
        THREAD_SLOTS.with(|s| {
            *s.borrow_mut().entry(self.id).or_insert_with(|| {
                // Wrap when more threads than slots register: correctness is
                // preserved (magazines are locked), only locality degrades.
                self.next_slot.fetch_add(1, Ordering::Relaxed) % self.max_threads
            })
        })
    }

    /// Carve a fresh slab into blocks of class `ci`, pushing them onto the
    /// (held) global free list.
    fn carve(&self, ci: usize, global: &mut GlobalClass) {
        let block = CLASSES[ci];
        let layout = Layout::from_size_align(SLAB_BYTES, 64).expect("slab layout");
        let base = unsafe { std::alloc::alloc(layout) };
        assert!(!base.is_null(), "slab allocation failed");
        self.slabs.lock().chunks.push((base, layout));
        self.slab_bytes
            .fetch_add(SLAB_BYTES as u64, Ordering::Relaxed);
        let count = SLAB_BYTES / block;
        global.free.reserve(count);
        for i in 0..count {
            global.free.push(unsafe { base.add(i * block) });
        }
    }

    fn refill(&self, ci: usize, mag: &mut Vec<*mut u8>) {
        let mut global = self.globals[ci].lock();
        if global.free.is_empty() {
            self.carve(ci, &mut global);
        }
        let take = BATCH.min(global.free.len());
        let at = global.free.len() - take;
        mag.extend(global.free.drain(at..));
    }

    fn flush(&self, ci: usize, mag: &mut Vec<*mut u8>) {
        let keep = mag.len() / 2;
        let mut global = self.globals[ci].lock();
        global.free.extend(mag.drain(keep..));
    }
}

unsafe impl RuntimeAllocator for PoolAllocator {
    fn alloc(&self, layout: Layout) -> *mut u8 {
        self.live.fetch_add(1, Ordering::Relaxed);
        let Some(ci) = class_of(layout) else {
            // Oversized or over-aligned: go straight to the system.
            self.oversize.fetch_add(1, Ordering::Relaxed);
            let p = unsafe { std::alloc::alloc(layout) };
            assert!(!p.is_null(), "system allocation failed");
            return p;
        };
        let slot = self.slot();
        let mut mag = self.magazines[slot].lock();
        let cls = &mut mag.classes[ci];
        if let Some(p) = cls.pop() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return p;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.refill(ci, cls);
        cls.pop().expect("refill produced no blocks")
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(1, Ordering::Relaxed);
        let Some(ci) = class_of(layout) else {
            unsafe { std::alloc::dealloc(ptr, layout) };
            return;
        };
        let slot = self.slot();
        let mut mag = self.magazines[slot].lock();
        let cls = &mut mag.classes[ci];
        cls.push(ptr);
        if cls.len() >= MAG_MAX {
            self.flush(ci, cls);
        }
    }

    fn stats(&self) -> AllocStats {
        AllocStats {
            pool_hits: self.hits.load(Ordering::Relaxed),
            pool_misses: self.misses.load(Ordering::Relaxed),
            slab_bytes: self.slab_bytes.load(Ordering::Relaxed),
            live: self.live.load(Ordering::Relaxed) as u64,
            oversize: self.oversize.load(Ordering::Relaxed),
            // Task recycling is layered above (TaskSlab); the runtime
            // folds those counters in.
            ..AllocStats::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Task slab
// ---------------------------------------------------------------------------

/// Free slots a shelf holds before flushing half to the shared overflow.
const SHELF_MAX: usize = 64;

/// Slots moved per shelf ↔ overflow batch transfer.
const SHELF_BATCH: usize = 32;

/// Per-shelf free list of recycled object shells.
#[derive(Default)]
struct Shelf {
    free: Vec<*mut u8>,
}

unsafe impl Send for Shelf {}

/// Counters snapshot of a [`TaskSlab`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TaskSlabStats {
    /// Acquisitions served from the free list (recycled shells).
    pub recycled: u64,
    /// Acquisitions that fell through to the underlying allocator.
    pub fresh: u64,
    /// Slots currently handed out.
    pub live: u64,
    /// High-water mark of simultaneously handed-out slots.
    pub peak_live: u64,
}

/// Object free-list layered on a [`RuntimeAllocator`]: fixed-layout
/// slots (the runtime's task objects) are recycled as *initialized
/// shells* instead of round-tripping through dealloc/alloc on every
/// spawn. The owner clears a dead object down to its containers before
/// recycling, so a recycled shell hands its interior capacity (vec
/// buffers, hash-map tables) to the next occupant — the steady-state
/// spawn path of a replayed million-task graph allocates nothing.
///
/// Hot path mirrors [`PoolAllocator`]'s magazines: a per-worker shelf
/// (uncontended mutex) with batched spill to a shared overflow list, so
/// producer/consumer imbalance across workers (one worker spawns, many
/// free) still recycles instead of growing.
pub struct TaskSlab {
    layout: Layout,
    alloc: std::sync::Arc<dyn RuntimeAllocator>,
    /// Destructor for a recycled (still-initialized) shell; run when the
    /// slab itself drops, before returning the memory.
    drop_shell: unsafe fn(*mut u8),
    shelves: Box<[Mutex<Shelf>]>,
    overflow: Mutex<Shelf>,
    recycled: AtomicU64,
    fresh: AtomicU64,
    live: AtomicU64,
    peak_live: AtomicU64,
}

impl TaskSlab {
    /// A slab for `layout`-shaped slots on top of `alloc`, with one
    /// shelf per expected worker. `drop_shell` must run the shell type's
    /// destructor (slots on the free list are initialized objects).
    pub fn new(
        layout: Layout,
        alloc: std::sync::Arc<dyn RuntimeAllocator>,
        workers: usize,
        drop_shell: unsafe fn(*mut u8),
    ) -> Self {
        Self {
            layout,
            alloc,
            drop_shell,
            shelves: (0..workers.max(1)).map(|_| Mutex::default()).collect(),
            overflow: Mutex::default(),
            recycled: AtomicU64::new(0),
            fresh: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak_live: AtomicU64::new(0),
        }
    }

    /// Slot layout this slab serves.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Hand out a slot. Returns `(ptr, recycled)`: when `recycled` the
    /// memory holds an initialized shell to re-init in place; otherwise
    /// it is uninitialized and must be `write`-constructed.
    pub fn acquire(&self, worker: usize) -> (*mut u8, bool) {
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_live.fetch_max(live, Ordering::Relaxed);
        let mut shelf = self.shelves[worker % self.shelves.len()].lock();
        if let Some(p) = shelf.free.pop() {
            self.recycled.fetch_add(1, Ordering::Relaxed);
            return (p, true);
        }
        // Shelf empty: pull a batch from the shared overflow (the frees
        // may all be landing on other workers' shelves).
        {
            let mut over = self.overflow.lock();
            let take = SHELF_BATCH.min(over.free.len());
            if take > 0 {
                let at = over.free.len() - take;
                shelf.free.extend(over.free.drain(at..));
            }
        }
        if let Some(p) = shelf.free.pop() {
            self.recycled.fetch_add(1, Ordering::Relaxed);
            return (p, true);
        }
        drop(shelf);
        self.fresh.fetch_add(1, Ordering::Relaxed);
        (self.alloc.alloc(self.layout), false)
    }

    /// Return a cleared shell to the free list without deallocating.
    ///
    /// # Safety
    /// `p` must come from [`TaskSlab::acquire`] on this slab, hold an
    /// initialized shell (safe to drop via `drop_shell`), and not be
    /// used afterwards.
    pub unsafe fn recycle(&self, worker: usize, p: *mut u8) {
        self.live.fetch_sub(1, Ordering::Relaxed);
        let mut shelf = self.shelves[worker % self.shelves.len()].lock();
        shelf.free.push(p);
        if shelf.free.len() >= SHELF_MAX {
            let keep = shelf.free.len() / 2;
            let mut over = self.overflow.lock();
            over.free.extend(shelf.free.drain(keep..));
        }
    }

    /// Counters snapshot.
    pub fn stats(&self) -> TaskSlabStats {
        TaskSlabStats {
            recycled: self.recycled.load(Ordering::Relaxed),
            fresh: self.fresh.load(Ordering::Relaxed),
            live: self.live.load(Ordering::Relaxed),
            peak_live: self.peak_live.load(Ordering::Relaxed),
        }
    }
}

impl Drop for TaskSlab {
    fn drop(&mut self) {
        let mut all: Vec<*mut u8> = Vec::new();
        for shelf in self.shelves.iter() {
            all.append(&mut shelf.lock().free);
        }
        all.append(&mut self.overflow.lock().free);
        for p in all {
            unsafe {
                (self.drop_shell)(p);
                self.alloc.dealloc(p, self.layout);
            }
        }
    }
}

/// Typed convenience: allocate and construct a `T`.
pub fn alloc_box<T>(alloc: &dyn RuntimeAllocator, value: T) -> *mut T {
    let layout = Layout::new::<T>();
    let p = alloc.alloc(layout) as *mut T;
    unsafe { p.write(value) };
    p
}

/// Typed convenience: destruct and free a `T` from [`alloc_box`].
///
/// # Safety
/// `ptr` must come from `alloc_box` on the same allocator and not be used
/// afterwards.
pub unsafe fn dealloc_box<T>(alloc: &dyn RuntimeAllocator, ptr: *mut T) {
    unsafe {
        core::ptr::drop_in_place(ptr);
        alloc.dealloc(ptr as *mut u8, Layout::new::<T>());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn roundtrip(alloc: &dyn RuntimeAllocator) {
        let sizes = [1usize, 8, 16, 17, 64, 100, 256, 1000, 4096, 5000, 100_000];
        let mut ptrs = Vec::new();
        for &s in &sizes {
            let layout = Layout::from_size_align(s, 8).unwrap();
            let p = alloc.alloc(layout);
            // Write the whole block to catch under-sized classes.
            unsafe { core::ptr::write_bytes(p, 0xAB, s) };
            ptrs.push((p, layout));
        }
        for (p, layout) in ptrs {
            unsafe { alloc.dealloc(p, layout) };
        }
    }

    #[test]
    fn system_roundtrip() {
        roundtrip(&SystemAllocator::default());
    }

    #[test]
    fn serialized_roundtrip() {
        roundtrip(&SerializedAllocator::default());
    }

    #[test]
    fn pool_roundtrip() {
        roundtrip(&PoolAllocator::new(4));
    }

    #[test]
    fn class_selection() {
        let l = |s, a| Layout::from_size_align(s, a).unwrap();
        assert_eq!(class_of(l(1, 1)), Some(0)); // 16B class
        assert_eq!(class_of(l(16, 16)), Some(0));
        assert_eq!(class_of(l(17, 8)), Some(1)); // 32B class
        assert_eq!(class_of(l(4096, 8)), Some(CLASSES.len() - 1));
        assert_eq!(class_of(l(4097, 8)), None); // oversize
        assert_eq!(class_of(l(8, 64)), None); // over-aligned
    }

    #[test]
    fn pool_reuses_blocks() {
        let pool = PoolAllocator::new(1);
        let layout = Layout::from_size_align(64, 8).unwrap();
        let p1 = pool.alloc(layout);
        unsafe { pool.dealloc(p1, layout) };
        let p2 = pool.alloc(layout);
        assert_eq!(p1, p2, "magazine should return the just-freed block");
        unsafe { pool.dealloc(p2, layout) };
        let s = pool.stats();
        assert!(s.pool_hits >= 1);
        assert_eq!(s.live, 0);
    }

    #[test]
    fn pool_blocks_are_distinct_and_aligned() {
        let pool = PoolAllocator::new(2);
        let layout = Layout::from_size_align(48, 16).unwrap();
        let mut ptrs: Vec<*mut u8> = (0..500).map(|_| pool.alloc(layout)).collect();
        let mut sorted = ptrs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ptrs.len(), "duplicate blocks handed out");
        for &p in &ptrs {
            assert_eq!(p as usize % 16, 0, "misaligned block");
        }
        for p in ptrs.drain(..) {
            unsafe { pool.dealloc(p, layout) };
        }
    }

    #[test]
    fn pool_cross_thread_churn() {
        let pool = Arc::new(PoolAllocator::new(4));
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let layout = Layout::from_size_align(96, 8).unwrap();
                    let mut held = Vec::new();
                    for i in 0..5_000 {
                        held.push(pool.alloc(layout));
                        unsafe { core::ptr::write_bytes(*held.last().unwrap(), 7, 96) };
                        if i % 3 == 0
                            && let Some(p) = held.pop()
                        {
                            unsafe { pool.dealloc(p, layout) };
                        }
                    }
                    for p in held {
                        unsafe { pool.dealloc(p, layout) };
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(pool.stats().live, 0);
    }

    #[test]
    fn pool_magazine_flush_path() {
        // Free more than MAG_MAX blocks of one class to force a flush.
        let pool = PoolAllocator::new(1);
        let layout = Layout::from_size_align(32, 8).unwrap();
        let ptrs: Vec<_> = (0..(MAG_MAX * 2)).map(|_| pool.alloc(layout)).collect();
        for p in ptrs {
            unsafe { pool.dealloc(p, layout) };
        }
        assert_eq!(pool.stats().live, 0);
        // Blocks must be reusable after the flush round-trip.
        let p = pool.alloc(layout);
        unsafe { pool.dealloc(p, layout) };
    }

    #[test]
    fn alloc_box_roundtrip() {
        let pool = PoolAllocator::new(1);
        let p = alloc_box(&pool, vec![1u32, 2, 3]);
        unsafe {
            assert_eq!((&*p)[2], 3);
            dealloc_box(&pool, p);
        }
        assert_eq!(pool.stats().live, 0);
    }

    #[test]
    fn make_allocator_kinds() {
        for kind in [
            AllocatorKind::Pool,
            AllocatorKind::System,
            AllocatorKind::Serialized,
        ] {
            let a = make_allocator(kind, 2);
            let layout = Layout::from_size_align(40, 8).unwrap();
            let p = a.alloc(layout);
            unsafe { a.dealloc(p, layout) };
        }
    }

    /// Shell type for slab tests: interior capacity + drop tracking.
    struct Shell {
        payload: Vec<u64>,
        drops: Arc<core::sync::atomic::AtomicUsize>,
    }

    impl Drop for Shell {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    unsafe fn drop_shell(p: *mut u8) {
        unsafe { core::ptr::drop_in_place(p as *mut Shell) };
    }

    fn shell_slab(alloc: Arc<dyn RuntimeAllocator>) -> TaskSlab {
        TaskSlab::new(Layout::new::<Shell>(), alloc, 2, drop_shell)
    }

    #[test]
    fn slab_recycles_shells_with_capacity() {
        let drops = Arc::new(core::sync::atomic::AtomicUsize::new(0));
        let pool: Arc<dyn RuntimeAllocator> = Arc::new(PoolAllocator::new(2));
        let slab = shell_slab(Arc::clone(&pool));
        let (p, recycled) = slab.acquire(0);
        assert!(!recycled, "first acquire must be fresh");
        let sp = p as *mut Shell;
        unsafe {
            sp.write(Shell {
                payload: Vec::with_capacity(100),
                drops: Arc::clone(&drops),
            });
            // Owner clears contents but keeps containers, then recycles.
            (*sp).payload.clear();
            slab.recycle(0, p);
        }
        let (q, recycled) = slab.acquire(0);
        assert!(recycled, "second acquire must reuse the shell");
        assert_eq!(p, q, "shelf should return the just-recycled slot");
        unsafe {
            // Interior capacity survived the recycle round-trip.
            assert!((*(q as *mut Shell)).payload.capacity() >= 100);
        }
        let s = slab.stats();
        assert_eq!((s.recycled, s.fresh, s.live, s.peak_live), (1, 1, 1, 1));
        unsafe { slab.recycle(0, q) };
        assert_eq!(
            drops.load(Ordering::Relaxed),
            0,
            "shells live until slab drop"
        );
        drop(slab);
        assert_eq!(
            drops.load(Ordering::Relaxed),
            1,
            "slab drop runs destructors"
        );
        assert_eq!(pool.stats().live, 0, "slab drop returns memory");
    }

    #[test]
    fn slab_shares_across_workers_via_overflow() {
        // Worker 1 frees, worker 0 allocates: after worker 1's shelf
        // spills, worker 0 must recycle from the shared overflow.
        let drops = Arc::new(core::sync::atomic::AtomicUsize::new(0));
        let pool: Arc<dyn RuntimeAllocator> = Arc::new(PoolAllocator::new(2));
        let slab = shell_slab(pool);
        let ptrs: Vec<*mut u8> = (0..SHELF_MAX + 8)
            .map(|_| {
                let (p, _) = slab.acquire(0);
                unsafe {
                    (p as *mut Shell).write(Shell {
                        payload: Vec::new(),
                        drops: Arc::clone(&drops),
                    });
                }
                p
            })
            .collect();
        for p in ptrs {
            unsafe { slab.recycle(1, p) };
        }
        let mut recycled_count = 0;
        for _ in 0..SHELF_MAX {
            let (p, recycled) = slab.acquire(0);
            if recycled {
                recycled_count += 1;
                unsafe { slab.recycle(0, p) };
            } else {
                unsafe {
                    (p as *mut Shell).write(Shell {
                        payload: Vec::new(),
                        drops: Arc::clone(&drops),
                    });
                    slab.recycle(0, p);
                }
            }
        }
        assert!(
            recycled_count >= SHELF_BATCH,
            "overflow batch must reach the allocating worker (got {recycled_count})"
        );
    }

    #[test]
    fn slab_conforms_on_every_allocator_kind() {
        for kind in [
            AllocatorKind::Pool,
            AllocatorKind::System,
            AllocatorKind::Serialized,
        ] {
            let drops = Arc::new(core::sync::atomic::AtomicUsize::new(0));
            let alloc = make_allocator(kind, 2);
            let slab = shell_slab(Arc::clone(&alloc));
            for round in 0..3 {
                let (p, recycled) = slab.acquire(0);
                assert_eq!(recycled, round > 0, "kind {kind:?} round {round}");
                if !recycled {
                    unsafe {
                        (p as *mut Shell).write(Shell {
                            payload: vec![7; 4],
                            drops: Arc::clone(&drops),
                        });
                    }
                }
                unsafe {
                    (*(p as *mut Shell)).payload.clear();
                    slab.recycle(0, p);
                }
            }
            drop(slab);
            assert_eq!(drops.load(Ordering::Relaxed), 1);
            assert_eq!(alloc.stats().live, 0, "kind {kind:?} leaked");
        }
    }

    #[test]
    fn oversize_goes_to_system() {
        let pool = PoolAllocator::new(1);
        let layout = Layout::from_size_align(1 << 20, 8).unwrap();
        let p = pool.alloc(layout);
        unsafe { core::ptr::write_bytes(p, 1, 1 << 20) };
        unsafe { pool.dealloc(p, layout) };
        assert_eq!(pool.stats().oversize, 1);
    }
}

#[cfg(test)]
mod prop_tests {
    //! Property: under any sequence of allocations and frees, live blocks
    //! never overlap and always satisfy size/alignment — for every
    //! allocator kind.

    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Alloc { size: usize, align_pow: u8 },
        FreeOldest,
        FreeNewest,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (1usize..6000, 0u8..5).prop_map(|(size, align_pow)| Op::Alloc { size, align_pow }),
            1 => Just(Op::FreeOldest),
            1 => Just(Op::FreeNewest),
        ]
    }

    fn check(kind: AllocatorKind, ops: Vec<Op>) -> Result<(), TestCaseError> {
        let a = make_allocator(kind, 2);
        let mut live: Vec<(usize, Layout)> = Vec::new();
        for o in ops {
            match o {
                Op::Alloc { size, align_pow } => {
                    let align = 1usize << align_pow;
                    let layout = Layout::from_size_align(size, align).unwrap();
                    let p = a.alloc(layout) as usize;
                    prop_assert!(p != 0);
                    prop_assert_eq!(p % align, 0, "misaligned block");
                    for &(q, ql) in &live {
                        let disjoint = p + size <= q || q + ql.size() <= p;
                        prop_assert!(
                            disjoint,
                            "blocks overlap: {p:#x}+{size} vs {q:#x}+{}",
                            ql.size()
                        );
                    }
                    live.push((p, layout));
                }
                Op::FreeOldest => {
                    if !live.is_empty() {
                        let (p, l) = live.remove(0);
                        unsafe { a.dealloc(p as *mut u8, l) };
                    }
                }
                Op::FreeNewest => {
                    if let Some((p, l)) = live.pop() {
                        unsafe { a.dealloc(p as *mut u8, l) };
                    }
                }
            }
        }
        for (p, l) in live {
            unsafe { a.dealloc(p as *mut u8, l) };
        }
        prop_assert_eq!(a.stats().live, 0, "leak detected");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pool_blocks_never_overlap(ops in proptest::collection::vec(op(), 1..150)) {
            check(AllocatorKind::Pool, ops)?;
        }

        #[test]
        fn system_blocks_never_overlap(ops in proptest::collection::vec(op(), 1..60)) {
            check(AllocatorKind::System, ops)?;
        }

        #[test]
        fn serialized_blocks_never_overlap(ops in proptest::collection::vec(op(), 1..60)) {
            check(AllocatorKind::Serialized, ops)?;
        }
    }
}
