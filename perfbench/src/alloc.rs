//! Counting global allocator: every heap allocation the benchmark process
//! makes goes through here, so a run's allocation count, bytes allocated
//! and peak live heap are measured from outside the program under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Wraps the system allocator with four counters.
///
/// The counters are statistics that publish no other data, so `Relaxed`
/// suffices. They are updated with a plain load and store rather than a
/// locked read-modify-write, which would add several nanoseconds to every
/// allocation of the program under test: updates from concurrent threads
/// can be lost, so the counts are exact only while one thread allocates.
/// Every run whose counts the benchmark reports is single-threaded.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn add(counter: &AtomicU64, n: u64) -> u64 {
    let v = counter.load(Relaxed).wrapping_add(n);
    counter.store(v, Relaxed);
    v
}

fn grew(size: usize) {
    add(&ALLOCS, 1);
    add(&BYTES, size as u64);
    let live = add(&LIVE, size as u64);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

fn shrank(size: usize) {
    add(&LIVE, (size as u64).wrapping_neg());
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping around
// the calls only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }

    /// A reallocation counts as one allocation of the new size.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation totals over one measured interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Usage {
    /// Allocations (including reallocations).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// Highest live heap reached during the interval, above the live heap
    /// at its start.
    pub peak: u64,
}

/// An open measurement interval; [`Meter::finish`] closes it.
pub struct Meter {
    allocs: u64,
    bytes: u64,
    live: u64,
}

impl Meter {
    /// Start measuring: resets the peak to the current live heap.
    pub fn start() -> Meter {
        let live = LIVE.load(Relaxed);
        PEAK.store(live, Relaxed);
        Meter {
            allocs: ALLOCS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
            live,
        }
    }

    /// Totals since [`Meter::start`].
    pub fn finish(self) -> Usage {
        Usage {
            allocs: ALLOCS.load(Relaxed).wrapping_sub(self.allocs),
            bytes: BYTES.load(Relaxed).wrapping_sub(self.bytes),
            peak: PEAK.load(Relaxed).saturating_sub(self.live),
        }
    }
}

/// Serialises this crate's tests. The counters are process-wide and not
/// exact under concurrent allocation, so every test that allocates
/// much, or reads the counters, holds this.
#[cfg(test)]
pub fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_bytes_and_peak() {
        let _serial = serial();
        let m = Meter::start();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let w: Vec<u8> = Vec::with_capacity(1024);
        drop(v);
        drop(w);
        let u = m.finish();
        // The test harness may allocate on another thread meanwhile, so
        // only lower bounds hold.
        assert!(u.allocs >= 2, "{u:?}");
        assert!(u.bytes >= 5120, "{u:?}");
        assert!(u.peak >= 5120, "{u:?}");
    }
}
