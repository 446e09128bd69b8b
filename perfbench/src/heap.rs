//! Heap accounting: the system allocator plus a count of the bytes the
//! process holds allocated, and a sampler for its peak.
//!
//! The count lives in per-thread slots, so an allocation costs one
//! uncontended atomic add; a reading sums the slots. It measures what
//! the program asks for, not how the allocator's arenas happen to be
//! laid out: the resident set of a process whose threads come and go
//! (one daemon thread per connection) moves in whole-arena steps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

const SLOTS: usize = 1024;

/// One thread's net allocated bytes, on a cache line of its own. A
/// block freed by another thread than the one that allocated it makes
/// one slot go up and another down; the sum stays exact.
#[repr(align(64))]
struct Slot(AtomicIsize);

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot(AtomicIsize::new(0));
static LIVE: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count(delta: isize) {
    let slot = MY_SLOT
        .try_with(|mine| {
            if mine.get() == usize::MAX {
                // Past SLOTS threads, slots are shared: still exact.
                mine.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            mine.get()
        })
        .unwrap_or(0);
    LIVE[slot].0.fetch_add(delta, Ordering::Relaxed);
}

pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the wrapper
// only counts sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Bytes the process holds allocated now, MiB.
pub fn live_mb() -> f64 {
    let bytes: isize = LIVE.iter().map(|s| s.0.load(Ordering::Relaxed)).sum();
    bytes as f64 / (1024.0 * 1024.0)
}

/// Samples `live_mb` every few milliseconds on a thread of its own and
/// keeps the largest reading: allocations that matter here (a chip, a
/// store index) live for the length of a run, far longer. Reports the
/// peak above what was live at the start, so what earlier sessions'
/// records still hold does not count.
pub struct PeakSampler {
    stop: Arc<AtomicBool>,
    sampler: std::thread::JoinHandle<f64>,
}

impl PeakSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let base = live_mb();
        let sampler = std::thread::spawn(move || {
            let mut peak = base;
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(5));
                peak = peak.max(live_mb());
            }
            peak.max(live_mb()) - base
        });
        Self { stop, sampler }
    }

    /// Stops the sampler; the peak it saw above the start, MiB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.sampler.join().expect("heap sampler panicked")
    }
}
