//! Task reductions (OmpSs-2 treats reductions as data accesses, §2).
//!
//! Consecutive reduction accesses of the same operation on the same
//! address form a *chain* that executes concurrently: each participating
//! worker accumulates into a private slot, and the runtime folds the slots
//! into the target exactly once, when satisfiability leaves the chain
//! (a non-reduction successor links, or the dependency domain closes).
//! Dot product, Gauss–Seidel's residual and HPCCG's dot products (§6.1)
//! all use this machinery.

use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicBool, Ordering};

/// Reduction operations supported by the runtime. Workloads in the paper
/// only need floating-point/integer sums, but min/max come for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedOp {
    /// `f64` addition, identity 0.0.
    SumF64,
    /// `f64` maximum, identity -inf.
    MaxF64,
    /// `f64` minimum, identity +inf.
    MinF64,
    /// `u64` addition, identity 0.
    SumU64,
    /// `i64` addition, identity 0.
    SumI64,
}

impl RedOp {
    /// Element size in bytes.
    pub fn elem_size(self) -> usize {
        8
    }

    /// Write the identity element over `len` bytes (a whole slot).
    ///
    /// # Safety
    /// `dst` must be valid for `len` bytes, `len` a multiple of
    /// [`RedOp::elem_size`], and suitably aligned.
    pub unsafe fn fill_identity(self, dst: *mut u8, len: usize) {
        let n = len / self.elem_size();
        unsafe {
            match self {
                RedOp::SumF64 => {
                    let p = dst as *mut f64;
                    for i in 0..n {
                        p.add(i).write(0.0);
                    }
                }
                RedOp::MaxF64 => {
                    let p = dst as *mut f64;
                    for i in 0..n {
                        p.add(i).write(f64::NEG_INFINITY);
                    }
                }
                RedOp::MinF64 => {
                    let p = dst as *mut f64;
                    for i in 0..n {
                        p.add(i).write(f64::INFINITY);
                    }
                }
                RedOp::SumU64 => {
                    let p = dst as *mut u64;
                    for i in 0..n {
                        p.add(i).write(0);
                    }
                }
                RedOp::SumI64 => {
                    let p = dst as *mut i64;
                    for i in 0..n {
                        p.add(i).write(0);
                    }
                }
            }
        }
    }

    /// Combine `src` into `dst` element-wise over `len` bytes.
    ///
    /// # Safety
    /// Both pointers valid for `len` bytes, properly aligned, non-aliasing.
    pub unsafe fn combine(self, dst: *mut u8, src: *const u8, len: usize) {
        let n = len / self.elem_size();
        unsafe {
            match self {
                RedOp::SumF64 => {
                    let d = dst as *mut f64;
                    let s = src as *const f64;
                    for i in 0..n {
                        *d.add(i) += *s.add(i);
                    }
                }
                RedOp::MaxF64 => {
                    let d = dst as *mut f64;
                    let s = src as *const f64;
                    for i in 0..n {
                        let v = *s.add(i);
                        if v > *d.add(i) {
                            *d.add(i) = v;
                        }
                    }
                }
                RedOp::MinF64 => {
                    let d = dst as *mut f64;
                    let s = src as *const f64;
                    for i in 0..n {
                        let v = *s.add(i);
                        if v < *d.add(i) {
                            *d.add(i) = v;
                        }
                    }
                }
                RedOp::SumU64 => {
                    let d = dst as *mut u64;
                    let s = src as *const u64;
                    for i in 0..n {
                        *d.add(i) = (*d.add(i)).wrapping_add(*s.add(i));
                    }
                }
                RedOp::SumI64 => {
                    let d = dst as *mut i64;
                    let s = src as *const i64;
                    for i in 0..n {
                        *d.add(i) = (*d.add(i)).wrapping_add(*s.add(i));
                    }
                }
            }
        }
    }
}

/// One private accumulation slot (per worker).
struct Slot {
    init: AtomicBool,
    data: UnsafeCell<Vec<u8>>,
}

// Slots are indexed by worker id; each worker touches only its own slot
// until combination, which happens after the chain quiesced.
unsafe impl Sync for Slot {}
unsafe impl Send for Slot {}

/// Shared state of one reduction chain: the target region and the lazy
/// per-worker private slots.
pub struct ReductionInfo {
    /// Target region base address.
    pub addr: usize,
    /// Region length in bytes.
    pub len: usize,
    /// The operation.
    pub op: RedOp,
    slots: Box<[Slot]>,
    combined: AtomicBool,
}

impl ReductionInfo {
    /// Create chain state for `nworkers` potential participants.
    pub fn new(addr: usize, len: usize, op: RedOp, nworkers: usize) -> Self {
        assert!(
            len.is_multiple_of(op.elem_size()),
            "region not a multiple of element size"
        );
        let slots = (0..nworkers.max(1))
            .map(|_| Slot {
                init: AtomicBool::new(false),
                data: UnsafeCell::new(Vec::new()),
            })
            .collect();
        Self {
            addr,
            len,
            op,
            slots,
            combined: AtomicBool::new(false),
        }
    }

    /// The private slot of `worker`, identity-initialised on first use.
    ///
    /// # Safety
    /// Each worker id must be used by at most one thread at a time, and
    /// not concurrently with [`ReductionInfo::combine_into_target`].
    pub unsafe fn slot(&self, worker: usize) -> *mut u8 {
        let slot = &self.slots[worker % self.slots.len()];
        let data = unsafe { &mut *slot.data.get() };
        if !slot.init.load(Ordering::Acquire) {
            data.resize(self.len, 0);
            unsafe { self.op.fill_identity(data.as_mut_ptr(), self.len) };
            slot.init.store(true, Ordering::Release);
        }
        data.as_mut_ptr()
    }

    /// Fold every initialised slot into the target region. Called exactly
    /// once, by the delivery that moves satisfiability out of the chain.
    ///
    /// # Safety
    /// The target region must be exclusively owned (guaranteed by the
    /// dependency protocol: the chain holds WRITE_SAT and every
    /// participant completed) and all slot-writing finished.
    pub unsafe fn combine_into_target(&self) {
        if self.combined.swap(true, Ordering::AcqRel) {
            debug_assert!(false, "reduction combined twice");
            return;
        }
        let dst = self.addr as *mut u8;
        for slot in self.slots.iter() {
            if slot.init.load(Ordering::Acquire) {
                let data = unsafe { &*slot.data.get() };
                unsafe { self.op.combine(dst, data.as_ptr(), self.len) };
            }
        }
    }

    /// Whether combination already happened (diagnostics/tests).
    pub fn is_combined(&self) -> bool {
        self.combined.load(Ordering::Acquire)
    }

    /// Make the chain fresh for another round (every slot back to
    /// identity on first use, not combined), keeping the slot buffers.
    /// Only at a barrier, no slot in use; `Relaxed`, because handing the
    /// next round its tasks orders the stores before their loads.
    pub fn rearm(&self) {
        for slot in self.slots.iter() {
            slot.init.store(false, Ordering::Relaxed);
        }
        self.combined.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_f64_identity_and_combine() {
        let mut target = 10.0f64;
        let info = ReductionInfo::new(&mut target as *mut f64 as usize, 8, RedOp::SumF64, 4);
        unsafe {
            *(info.slot(0) as *mut f64) += 1.5;
            *(info.slot(2) as *mut f64) += 2.5;
            info.combine_into_target();
        }
        assert_eq!(target, 14.0);
        assert!(info.is_combined());
    }

    #[test]
    fn max_f64() {
        let mut target = 1.0f64;
        let info = ReductionInfo::new(&mut target as *mut f64 as usize, 8, RedOp::MaxF64, 2);
        unsafe {
            *(info.slot(0) as *mut f64) = 5.0;
            *(info.slot(1) as *mut f64) = 3.0;
            info.combine_into_target();
        }
        assert_eq!(target, 5.0);
    }

    #[test]
    fn min_f64() {
        let mut target = 1.0f64;
        let info = ReductionInfo::new(&mut target as *mut f64 as usize, 8, RedOp::MinF64, 2);
        unsafe {
            *(info.slot(0) as *mut f64) = -2.0;
            info.combine_into_target();
        }
        assert_eq!(target, -2.0);
    }

    #[test]
    fn sum_u64_array_region() {
        let mut target = [1u64, 2, 3];
        let info = ReductionInfo::new(target.as_mut_ptr() as usize, 24, RedOp::SumU64, 2);
        unsafe {
            let s0 = info.slot(0) as *mut u64;
            *s0 = 10;
            *s0.add(2) = 30;
            let s1 = info.slot(1) as *mut u64;
            *s1.add(1) = 20;
            info.combine_into_target();
        }
        assert_eq!(target, [11, 22, 33]);
    }

    #[test]
    fn sum_i64_wraps() {
        let mut target = -5i64;
        let info = ReductionInfo::new(&mut target as *mut i64 as usize, 8, RedOp::SumI64, 1);
        unsafe {
            *(info.slot(0) as *mut i64) = 7;
            info.combine_into_target();
        }
        assert_eq!(target, 2);
    }

    #[test]
    fn untouched_slots_do_not_contribute() {
        let mut target = 1.0f64;
        let info = ReductionInfo::new(&mut target as *mut f64 as usize, 8, RedOp::SumF64, 8);
        unsafe {
            *(info.slot(3) as *mut f64) = 4.0;
            info.combine_into_target();
        }
        assert_eq!(target, 5.0);
    }

    /// A re-armed chain starts from identity on every slot and combines
    /// again, reusing the slot buffers.
    #[test]
    fn rearmed_chain_combines_afresh() {
        let mut target = 0.0f64;
        let info = ReductionInfo::new(&mut target as *mut f64 as usize, 8, RedOp::SumF64, 2);
        unsafe {
            *(info.slot(0) as *mut f64) += 3.0;
            *(info.slot(1) as *mut f64) += 4.0;
            info.combine_into_target();
        }
        let buffer = unsafe { info.slot(0) };
        info.rearm();
        assert!(!info.is_combined());
        unsafe {
            assert_eq!(info.slot(0), buffer, "slot buffer kept");
            *(info.slot(0) as *mut f64) += 1.0;
            info.combine_into_target();
        }
        assert_eq!(target, 8.0, "slot 1 untouched this round, slot 0 reset");
    }

    #[test]
    fn worker_ids_wrap_to_slot_count() {
        let mut target = 0.0f64;
        let info = ReductionInfo::new(&mut target as *mut f64 as usize, 8, RedOp::SumF64, 2);
        unsafe {
            *(info.slot(0) as *mut f64) += 1.0;
            *(info.slot(2) as *mut f64) += 1.0; // wraps onto slot 0
            info.combine_into_target();
        }
        assert_eq!(target, 2.0);
    }
}
