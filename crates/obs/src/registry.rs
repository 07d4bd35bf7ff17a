//! The stats registry: named metrics created on demand, snapshotted into a
//! sorted, renderable report.

use crate::histogram::{HistogramSnapshot, LogHistogram};
use crate::stats::{fmt_ns, Counter, Gauge};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A registry of named [`Counter`]s, [`Gauge`]s and [`LogHistogram`]s: the
/// one sink every instrumented layer records into. Timings are histograms.
///
/// Metric handles are `Arc`s: a call site looks its handle up once (taking a
/// short mutex) and afterwards updates it lock-free, or records by name
/// through [`add`](Self::add), [`gauge_set`](Self::gauge_set) and
/// [`record_histogram`](Self::record_histogram). Site names are
/// dot-separated paths (`"buffer.lru.hit"`, `"lang.exec.eval"`); the report
/// sorts lexicographically, so related metrics group together.
#[derive(Debug, Default)]
pub struct StatsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<LogHistogram>>>,
}

impl StatsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `site`.
    pub fn counter(&self, site: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("stats registry poisoned");
        Arc::clone(map.entry(site.to_owned()).or_default())
    }

    /// Get or create the gauge named `site`.
    pub fn gauge(&self, site: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("stats registry poisoned");
        Arc::clone(map.entry(site.to_owned()).or_default())
    }

    /// Get or create the latency histogram named `site`. Histograms are
    /// log-linear ([`LogHistogram`]): p50/p95/p99 in the report are within
    /// 6.25% of the true sample values at any magnitude.
    pub fn histogram(&self, site: &str) -> Arc<LogHistogram> {
        let mut map = self.histograms.lock().expect("stats registry poisoned");
        Arc::clone(map.entry(site.to_owned()).or_default())
    }

    /// Add `delta` to the counter at `site`.
    pub fn add(&self, site: &str, delta: u64) {
        self.counter(site).add(delta);
    }

    /// Set the gauge at `site` (the gauge tracks its own peak).
    pub fn gauge_set(&self, site: &str, value: u64) {
        self.gauge(site).set(value);
    }

    /// Record one sample into the histogram at `site`.
    pub fn record_histogram(&self, site: &str, value: u64) {
        self.histogram(site).record(value);
    }

    /// Snapshot every metric into a sorted report.
    pub fn report(&self) -> StatsReport {
        let counters = self
            .counters
            .lock()
            .expect("stats registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("stats registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), (v.get(), v.peak())))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("stats registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        StatsReport { counters, gauges, histograms }
    }

    /// Reset every registered metric to its empty state (handles stay
    /// valid), **including histograms**, and clear the process-global trace
    /// buffers and per-worker busy counters
    /// ([`trace::clear`](crate::trace::clear)) — so back-to-back profiled
    /// runs do not bleed samples into each other.
    pub fn reset(&self) {
        for c in self.counters.lock().expect("stats registry poisoned").values() {
            c.reset();
        }
        for g in self.gauges.lock().expect("stats registry poisoned").values() {
            g.reset();
        }
        for h in self.histograms.lock().expect("stats registry poisoned").values() {
            h.reset();
        }
        crate::trace::clear();
    }
}

/// A point-in-time snapshot of a [`StatsRegistry`], sorted by site name.
///
/// The `Display` impl renders a SystemML `-stats`-style block; the accessor
/// methods serve tests and programmatic consumers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReport {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, (u64, u64))>, // (current, peak)
    histograms: Vec<(String, HistogramSnapshot)>,
}

impl StatsReport {
    /// Value of a counter, if registered.
    pub fn counter(&self, site: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == site).map(|(_, v)| *v)
    }

    /// `(current, peak)` of a gauge, if registered.
    pub fn gauge(&self, site: &str) -> Option<(u64, u64)> {
        self.gauges.iter().find(|(k, _)| k == site).map(|(_, v)| *v)
    }

    /// Snapshot of a latency histogram, if registered.
    pub fn histogram(&self, site: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(k, _)| k == site).map(|(_, v)| v)
    }

    /// All counters, sorted by site.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// All gauges as `(site, (current, peak))`, sorted by site.
    pub fn gauges(&self) -> &[(String, (u64, u64))] {
        &self.gauges
    }

    /// All latency histograms, sorted by site.
    pub fn histograms(&self) -> &[(String, HistogramSnapshot)] {
        &self.histograms
    }

    /// True when no metric was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

impl fmt::Display for StatsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "(no stats recorded)");
        }
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (site, v) in &self.counters {
                writeln!(f, "  {site:<40} {v:>12}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges (current / peak):")?;
            for (site, (cur, peak)) in &self.gauges {
                writeln!(f, "  {site:<40} {cur:>12} / {peak}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms (count, p50 / p95 / p99, min..max):")?;
            for (site, h) in &self.histograms {
                writeln!(
                    f,
                    "  {site:<40} {:>6}x {} / {} / {} {}..{}",
                    h.count,
                    fmt_ns(h.p50()),
                    fmt_ns(h.p95()),
                    fmt_ns(h.p99()),
                    fmt_ns(h.min),
                    fmt_ns(h.max),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared() {
        let r = StatsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(r.report().counter("x"), Some(5));
    }

    #[test]
    fn by_name_methods_update_the_handles() {
        let r = StatsRegistry::new();
        let c = r.counter("c");
        r.add("c", 2);
        r.gauge_set("g", 7);
        r.record_histogram("h", 100);
        assert_eq!(c.get(), 2);
        let rep = r.report();
        assert_eq!(rep.gauge("g"), Some((7, 7)));
        assert_eq!(rep.histogram("h").unwrap().sum, 100);
    }

    #[test]
    fn report_is_sorted_and_queryable() {
        let r = StatsRegistry::new();
        r.counter("b.two").incr();
        r.counter("a.one").add(7);
        r.gauge("mem").set(100);
        r.gauge("mem").set(40);
        r.record_histogram("t", 500);
        let rep = r.report();
        let names: Vec<&str> = rep.counters().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a.one", "b.two"]);
        assert_eq!(rep.gauge("mem"), Some((40, 100)));
        assert_eq!(rep.histogram("t").unwrap().count, 1);
        assert_eq!(rep.counter("missing"), None);
        let text = rep.to_string();
        assert!(text.contains("a.one") && text.contains("40 / 100"));
    }

    #[test]
    fn empty_report_renders_placeholder() {
        let rep = StatsRegistry::new().report();
        assert!(rep.is_empty());
        assert!(rep.to_string().contains("no stats recorded"));
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_live() {
        // `reset` clears the process-global trace state too.
        let _g = crate::trace::tests::lock();
        let r = StatsRegistry::new();
        let c = r.counter("n");
        c.add(9);
        let h = r.histogram("lat");
        h.record(1_000);
        r.reset();
        assert_eq!(r.report().counter("n"), Some(0));
        // Histograms reset too — back-to-back runs must not bleed samples.
        assert_eq!(r.report().histogram("lat").unwrap().count, 0);
        c.incr();
        h.record(5);
        assert_eq!(r.report().counter("n"), Some(1));
        assert_eq!(r.report().histogram("lat").unwrap().count, 1);
    }

    #[test]
    fn histogram_sites_render_quantiles() {
        let r = StatsRegistry::new();
        let h = r.histogram("exec.node_self_ns");
        for v in [100u64, 200, 400, 800, 100_000] {
            h.record(v);
        }
        let rep = r.report();
        let snap = rep.histogram("exec.node_self_ns").unwrap();
        assert_eq!(snap.count, 5);
        assert!(snap.p99() > snap.p50());
        let text = rep.to_string();
        assert!(text.contains("histograms (count, p50 / p95 / p99"), "{text}");
        assert!(text.contains("exec.node_self_ns"), "{text}");
    }
}
