//! The workspace's only sanctioned clock.
//!
//! `droplens lint`'s `no-wallclock` rule bans `Instant::now` /
//! `SystemTime::now` outside this crate, so that output-affecting code
//! can never branch on the time of day. Code that legitimately needs a
//! duration — queue-wait measurement in `droplens-par`, experiment
//! timing in `droplens-core` — takes it through a [`Stopwatch`], which
//! keeps the clock read here and hands out only elapsed durations.
//!
//! Code that needs an *advancing timeline* — the windowed metrics in
//! [`crate::window`], the serve telemetry plane built on them — takes a
//! [`Clock`] instead: a shareable time source that reads the real
//! monotonic clock by default and a test-controlled counter under
//! [`Clock::mock`], so window expiry and rate math are deterministic in
//! tests without sleeping.

use std::fs::File;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A started monotonic stopwatch. `Copy`, so it can be captured by the
/// many closures of a fork-join fan-out and read on any worker.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed nanoseconds, saturating at `u64::MAX`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A shareable time source reporting nanoseconds since its creation.
///
/// [`Clock::real`] anchors at the monotonic clock, so `now_ns` is the
/// process-relative elapsed time; cloning shares the anchor. Under
/// [`Clock::mock`] time stands still until [`Clock::advance`] moves it,
/// which is what makes ring-buffer window expiry testable: record, jump
/// the clock past the window, and assert the samples are gone — no
/// sleeps, no flakes.
#[derive(Debug, Clone)]
pub struct Clock(Arc<ClockInner>);

#[derive(Debug)]
enum ClockInner {
    Real(Instant),
    Mock(AtomicU64),
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::real()
    }
}

impl Clock {
    /// A real monotonic clock anchored now.
    pub fn real() -> Clock {
        Clock(Arc::new(ClockInner::Real(Instant::now())))
    }

    /// A mock clock starting at zero; only [`Clock::advance`] moves it.
    pub fn mock() -> Clock {
        Clock(Arc::new(ClockInner::Mock(AtomicU64::new(0))))
    }

    /// Nanoseconds since the clock's creation (saturating at
    /// `u64::MAX`); the mock's current reading.
    pub fn now_ns(&self) -> u64 {
        match &*self.0 {
            ClockInner::Real(anchor) => {
                u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            ClockInner::Mock(ns) => ns.load(Ordering::Relaxed),
        }
    }

    /// Advance a mock clock by `d`. No-op on a real clock (the
    /// monotonic clock advances itself).
    pub fn advance(&self, d: Duration) {
        if let ClockInner::Mock(ns) = &*self.0 {
            let add = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            ns.fetch_add(add, Ordering::Relaxed);
        }
    }

    /// The calling thread's on-CPU nanoseconds, from the scheduler's
    /// runtime in `/proc/thread-self/schedstat`; `None` where that file
    /// is absent. The kernel folds in the running thread's time at
    /// scheduler ticks, so one reading can trail by a tick, but the
    /// error of a difference averages out over many spans. Under
    /// [`Clock::mock`] a thread is always on-CPU: the mock reading.
    pub fn thread_cpu_ns(&self) -> Option<u64> {
        match &*self.0 {
            ClockInner::Real(_) => schedstat_runtime_ns(),
            ClockInner::Mock(ns) => Some(ns.load(Ordering::Relaxed)),
        }
    }

    /// True for clocks built with [`Clock::mock`].
    pub fn is_mock(&self) -> bool {
        matches!(&*self.0, ClockInner::Mock(_))
    }
}

/// The first field of `/proc/thread-self/schedstat`. Reads into a
/// stack buffer: spans call this around their memory attribution, so
/// it must not allocate.
fn schedstat_runtime_ns() -> Option<u64> {
    let mut buf = [0u8; 64];
    let n = File::open("/proc/thread-self/schedstat")
        .and_then(|mut f| f.read(&mut buf))
        .ok()?;
    // The field must end in a space: a short read cannot cut it.
    let (runtime, _) = std::str::from_utf8(buf.get(..n)?).ok()?.split_once(' ')?;
    runtime.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
        assert!(sw.elapsed().as_nanos() as u64 >= a);
    }

    #[test]
    fn real_clock_advances_on_its_own() {
        let clock = Clock::real();
        assert!(!clock.is_mock());
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
        // advance is a documented no-op for real clocks.
        clock.advance(Duration::from_secs(1));
        assert!(clock.now_ns() < 1_000_000_000 + a + 60_000_000_000);
    }

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let mock = Clock::mock();
        mock.advance(Duration::from_nanos(5));
        assert_eq!(mock.thread_cpu_ns(), Some(5));
        let clock = Clock::real();
        if !cfg!(target_os = "linux") {
            return; // no schedstat
        }
        let before = clock.thread_cpu_ns().unwrap_or(u64::MAX);
        assert_ne!(before, u64::MAX, "schedstat unreadable");
        // Spin past several scheduler ticks.
        let sw = Stopwatch::start();
        let mut x = 0u64;
        while sw.elapsed() < Duration::from_millis(40) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let after = clock.thread_cpu_ns().unwrap_or(0);
        assert!(after > before, "{before} -> {after}");
    }

    #[test]
    fn mock_clock_only_moves_when_told() {
        let clock = Clock::mock();
        assert!(clock.is_mock());
        assert_eq!(clock.now_ns(), 0);
        clock.advance(Duration::from_millis(3));
        assert_eq!(clock.now_ns(), 3_000_000);
        // Clones share the timeline.
        let twin = clock.clone();
        twin.advance(Duration::from_nanos(7));
        assert_eq!(clock.now_ns(), 3_000_007);
    }
}
