//! Injectable time sources.
//!
//! Components that consult wall-clock time (e.g. the `aion-serve`
//! session registry's idle eviction) take a [`Clock`] instead of calling
//! [`std::time::Instant::now`] directly, so the deterministic simulation
//! harness (`aion-dst`, see `docs/testing.md`) can interpose a
//! [`SimClock`] it advances explicitly. Production code uses
//! [`RealClock`]; the indirection is one virtual call per *time read*,
//! never per transaction on a checker hot path — the online checkers
//! themselves are driven purely by the caller-supplied virtual `now_ms`
//! and do not use a `Clock` at all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
#[expect(clippy::disallowed_types, reason = "the clock seam: this module reads wall time")]
use std::time::{Duration, Instant};

/// A monotonic millisecond clock.
///
/// Implementations must be monotonic (successive `now_ms` calls never
/// decrease) but need not be anchored to any epoch: callers only compare
/// differences.
pub trait Clock: Send + Sync {
    /// Milliseconds elapsed on this clock (monotonic, arbitrary origin).
    fn now_ms(&self) -> u64;
}

/// The production clock: milliseconds since the clock was constructed,
/// read from [`std::time::Instant`].
#[derive(Debug)]
#[expect(clippy::disallowed_types, reason = "the clock seam: `RealClock` wraps wall time")]
pub struct RealClock {
    origin: Instant,
}

#[expect(clippy::disallowed_types, reason = "the clock seam: `RealClock` wraps wall time")]
impl RealClock {
    /// A clock whose origin is "now".
    pub fn new() -> RealClock {
        RealClock { origin: Instant::now() }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock::new()
    }
}

impl Clock for RealClock {
    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }
}

/// A started wall-time measurement.
///
/// This is the sanctioned wrapper for "how long did that take?"
/// measurements (sort/check phase timings, throughput reports): code
/// that only *reports* elapsed wall time takes a `Stopwatch` rather
/// than touching `Instant` directly, which keeps `std::time` confined
/// to this module (the workspace `clippy.toml` enforces that) and
/// makes the DST-reachable surface easy to audit. State that *decides*
/// anything based on time must take a [`Clock`] instead, so the
/// simulator can drive it.
#[derive(Copy, Debug)]
#[expect(clippy::disallowed_types, reason = "the clock seam: `Stopwatch` wraps wall time")]
pub struct Stopwatch {
    started: Instant,
}

// Written out: `derive(Clone)` names the field type in an impl that the
// struct's `expect` does not cover.
impl Clone for Stopwatch {
    fn clone(&self) -> Stopwatch {
        *self
    }
}

#[expect(clippy::disallowed_types, reason = "the clock seam: `Stopwatch` wraps wall time")]
impl Stopwatch {
    /// Start measuring now.
    pub fn start() -> Stopwatch {
        Stopwatch { started: Instant::now() }
    }

    /// Wall time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

/// A manually advanced clock for deterministic tests and simulation.
///
/// Cloning is cheap and all clones share the same instant, so a test can
/// hand one clone to the component under test and keep another to drive
/// time forward.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now: Arc<AtomicU64>,
}

impl SimClock {
    /// A simulated clock starting at `start_ms`.
    pub fn at(start_ms: u64) -> SimClock {
        SimClock { now: Arc::new(AtomicU64::new(start_ms)) }
    }

    /// Advance the clock by `delta_ms`.
    pub fn advance(&self, delta_ms: u64) {
        self.now.fetch_add(delta_ms, Ordering::SeqCst);
    }

    /// Jump the clock forward to `now_ms`; moving backwards is a no-op
    /// (the clock stays monotonic).
    pub fn set(&self, now_ms: u64) {
        self.now.fetch_max(now_ms, Ordering::SeqCst);
    }
}

impl Clock for SimClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic_from_zero() {
        let c = RealClock::new();
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a);
    }

    #[test]
    fn sim_clock_advances_and_shares_state_across_clones() {
        let c = SimClock::at(10);
        let peer = c.clone();
        assert_eq!(c.now_ms(), 10);
        c.advance(5);
        assert_eq!(peer.now_ms(), 15);
        peer.set(100);
        assert_eq!(c.now_ms(), 100);
        peer.set(50); // backwards jumps are ignored
        assert_eq!(c.now_ms(), 100);
    }

    #[test]
    fn stopwatch_reports_nondecreasing_elapsed() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }

    #[test]
    fn clocks_erase_behind_the_trait_object() {
        let clocks: Vec<Arc<dyn Clock>> =
            vec![Arc::new(RealClock::new()), Arc::new(SimClock::at(7))];
        for c in clocks {
            let _ = c.now_ms();
        }
    }
}
