//! The benchmark's global allocator: droplens' own [`TrackingAlloc`]
//! (so `droplens_obs::alloc::snapshot` byte and op counts keep working)
//! wrapped with one process-wide live-byte counter and its high-water
//! mark.
//!
//! `TrackingAlloc` keeps per-thread shards, and its `peak_live_bytes` is
//! the sum of every shard's own high-water: an upper bound that grows
//! with each pool thread the pipeline spawns, so it would rise with the
//! number of repetitions a run happens to fit. The single counter here
//! is the true concurrent peak.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

use droplens_obs::alloc::TrackingAlloc;

/// Bytes allocated and not yet freed, all threads.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Highest value `LIVE` reached since the last [`take_peak_mib`].
static PEAK: AtomicI64 = AtomicI64::new(0);

/// `TrackingAlloc<System>` plus the process-wide live/peak counters.
pub struct PeakAlloc(TrackingAlloc);

impl PeakAlloc {
    /// The wrapper around droplens' tracking allocator over `System`.
    pub const fn new() -> PeakAlloc {
        PeakAlloc(TrackingAlloc::system())
    }
}

/// Move the live count by `delta` bytes and raise the peak if needed.
/// Relaxed is enough: the counters publish no other data.
fn account(delta: i64) {
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to the inner
// allocator and returns its result unchanged, so the inner allocator's
// guarantees are the wrapper's; the counters only read `Layout` sizes.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is the inner allocator's.
        let p = unsafe { self.0.alloc(layout) };
        if !p.is_null() {
            account(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { self.0.alloc_zeroed(layout) };
        if !p.is_null() {
            account(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from the inner one) with `layout`.
        unsafe { self.0.dealloc(ptr, layout) };
        account(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's `new_size` bounds.
        let p = unsafe { self.0.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            account(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Bytes in a MiB.
pub const MIB: f64 = (1u64 << 20) as f64;

/// The highest live-byte count since the previous call, in MiB,
/// restarting the mark at the current live level. Bracket a phase with
/// two calls to get that phase's high-water.
pub fn take_peak_mib() -> f64 {
    PEAK.swap(LIVE.load(Relaxed), Relaxed) as f64 / MIB
}
