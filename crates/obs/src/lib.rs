//! # dm-obs
//!
//! The workspace-wide observability layer, modeled on the introspection
//! machinery of the surveyed declarative ML systems (`explain` plans,
//! `-stats` runtime reports, and fine-grained lineage tracing). It has one
//! metrics sink, the [`StatsRegistry`]: a dependency-free registry of atomic
//! counters, high-water-mark gauges and log-linear histograms
//! ([`LogHistogram`], p50/p95/p99 with ≤6.25% relative error). Every timing
//! is a histogram of nanoseconds.
//!
//! The [`trace`] module adds structured tracing on top: RAII [`trace::Span`]s
//! with trace/span/parent ids collected into sharded process-global buffers,
//! explicit [`trace::SpanHandle`] propagation for cross-thread nesting, and
//! a Chrome trace-event JSON exporter ([`trace::chrome_trace`]) loadable in
//! Perfetto. [`export`] renders any [`StatsReport`] as Prometheus text or
//! JSON ([`export::prometheus_text`], [`export::stats_json`]); [`serve`]
//! exposes both over a stdlib-only HTTP scrape endpoint
//! ([`serve::MetricsServer`], `DMML_METRICS_ADDR`). The [`profile`] module
//! closes the observe→calibrate loop: a versioned, checksummed on-disk
//! store ([`profile::ProfileStore`], `DMML_PROFILE_DIR`) of per-(op, kernel,
//! size-class) throughput profiles that downstream cost models divide flop
//! counts by. [`json`] is the workspace's one JSON codec (the wire's f64
//! dialect included), [`fnv`] its one FNV-1a hash, and [`lock`] its one
//! poison-tolerant mutex lock.
//!
//! A hot call site asks the registry once for a [`Counter`] / [`Gauge`] /
//! [`LogHistogram`] handle and then updates it with relaxed atomic
//! operations, no map lookup. A component that publishes a summary after
//! the fact (`Executor::record_stats`, the rewrite and compression traces)
//! takes `&StatsRegistry` and records by site name through
//! [`StatsRegistry::add`], [`StatsRegistry::gauge_set`] and
//! [`StatsRegistry::record_histogram`]. A caller that wants no metrics
//! simply does not call it.
//!
//! ```
//! use dm_obs::{elapsed_ns, StatsRegistry};
//! use std::time::Instant;
//!
//! let reg = StatsRegistry::new();
//! let hits = reg.counter("pool.hit");
//! hits.add(3);
//! let t0 = Instant::now();
//! // ... timed work ...
//! reg.record_histogram("exec.eval", elapsed_ns(t0));
//! let report = reg.report();
//! assert_eq!(report.counter("pool.hit"), Some(3));
//! assert_eq!(report.histogram("exec.eval").unwrap().count, 1);
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod flightrec;
pub mod fnv;
pub mod histogram;
pub mod json;
pub mod profile;
pub mod registry;
pub mod serve;
pub mod stats;
pub mod trace;

pub use flightrec::{FlightRecorder, Phase, RequestRecord};
pub use histogram::{HistogramSnapshot, LogHistogram};
pub use profile::{ProfileError, ProfileStore};
pub use registry::{StatsRegistry, StatsReport};
pub use serve::MetricsServer;
pub use stats::{elapsed_ns, fmt_ns, Counter, Gauge};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, re-entering it when a thread panicked while holding it. Only
/// for state that every update leaves consistent, so that one panicking
/// caller does not turn every later caller's lock into a panic too.
#[inline]
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
