//! A counting global allocator for the traced pass.
//!
//! Counting is switched on only around traced ops, so the untraced timed
//! pass pays one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Wraps the system allocator; counts allocations and tracks live and peak
/// heap bytes while [`enable`] is in effect.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
// Live bytes allocated minus freed while counting; frees of blocks
// allocated before counting started can drive it below its start, so it is
// kept signed through wrapping arithmetic and read relative to a mark.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

// Each thread batches its updates and publishes them to the shared
// counters only every `BATCH_BYTES` of net change or `BATCH_ALLOCS`
// allocations, so parallel ops do not contend on one cache line per
// allocation. A published peak can miss less than one batch per thread.
const BATCH_BYTES: i64 = 64 * 1024;
const BATCH_ALLOCS: u64 = 256;

thread_local! {
    // (net bytes, allocations) not yet published. Const-initialised and
    // without a destructor, so reachable from the allocator at any time.
    static PENDING: Cell<(i64, u64)> = const { Cell::new((0, 0)) };
}

fn record(bytes: i64, allocs: u64) {
    let publish = PENDING
        .try_with(|p| {
            let (b, a) = p.get();
            let (b, a) = (b + bytes, a + allocs);
            if b.abs() >= BATCH_BYTES || a >= BATCH_ALLOCS {
                p.set((0, 0));
                Some((b, a))
            } else {
                p.set((b, a));
                None
            }
        })
        .unwrap_or(Some((bytes, allocs)));
    if let Some((b, a)) = publish {
        ALLOCS.fetch_add(a, Ordering::Relaxed);
        let live = LIVE
            .fetch_add(b as u64, Ordering::Relaxed)
            .wrapping_add(b as u64);
        // Compare as signed so a transiently "negative" live count never
        // registers as a huge peak.
        let mut peak = PEAK.load(Ordering::Relaxed);
        while (live as i64) > (peak as i64) {
            match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(p) => peak = p,
            }
        }
    }
}

fn on_alloc(size: usize) {
    record(size as i64, 1);
}

fn on_free(size: usize) {
    record(-(size as i64), 0);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only atomics and a const-initialised
// thread-local, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            on_free(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// A reading of the counters. Exact for allocations made on the calling
/// thread; other threads' unpublished batches are not included.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    pub allocs: u64,
    pub live: i64,
}

fn own_pending() -> (i64, u64) {
    PENDING.with(Cell::get)
}

/// Start counting from zero: allocation count, live bytes and peak reset.
/// Call it from the thread that reads the counters.
pub fn enable() {
    PENDING.with(|p| p.set((0, 0)));
    ALLOCS.store(0, Ordering::SeqCst);
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop counting; the counters keep their last values.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

pub fn snapshot() -> Snapshot {
    let (b, a) = own_pending();
    Snapshot {
        allocs: ALLOCS.load(Ordering::SeqCst) + a,
        live: LIVE.load(Ordering::SeqCst) as i64 + b,
    }
}

/// Highest live byte count since [`enable`], relative to the live count
/// at that moment.
pub fn peak() -> i64 {
    (PEAK.load(Ordering::SeqCst) as i64).max(snapshot().live)
}
