//! The metric primitives: atomic counters and high-water-mark gauges, plus
//! the nanosecond helpers timing sites share. Timings themselves are
//! [`LogHistogram`](crate::LogHistogram)s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonically increasing atomic counter.
///
/// All operations use relaxed ordering: counters are statistics, not
/// synchronization primitives, and no reader infers cross-thread ordering
/// from them.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero (between experiment phases).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A gauge tracking the latest value and its all-time peak (high-water mark).
#[derive(Debug, Default)]
pub struct Gauge {
    current: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the current value, raising the peak if exceeded.
    pub fn set(&self, value: u64) {
        self.current.store(value, Ordering::Relaxed);
        self.peak.fetch_max(value, Ordering::Relaxed);
    }

    /// Latest value set.
    pub fn get(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Highest value ever set.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Reset both current and peak to zero.
    pub fn reset(&self) {
        self.current.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
    }
}

/// Nanoseconds since `start`, saturating at `u64::MAX` (584 years).
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Render nanoseconds human-readably (`412 ns`, `3.21 us`, `1.05 ms`, `2.3 s`).
pub fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_resets() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_tracks_peak() {
        let g = Gauge::new();
        g.set(10);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.peak(), 10);
        g.reset();
        assert_eq!((g.get(), g.peak()), (0, 0));
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(412), "412 ns");
        assert_eq!(fmt_ns(3_210), "3.21 us");
        assert_eq!(fmt_ns(1_050_000), "1.05 ms");
        assert_eq!(fmt_ns(2_300_000_000), "2.30 s");
    }
}
