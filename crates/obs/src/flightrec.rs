//! Per-request flight recorder: a fixed-size, lock-sharded ring of completed
//! request records for the scoring server, always on and bounded.
//!
//! Process-global metrics (`/metrics`) can show p99 rising, but cannot answer
//! *why this request was slow* — queueing, a cold plan-cache compile,
//! batch-wait, or the kernel itself. The flight recorder closes that gap the
//! way database engines keep a statement log: every completed request leaves
//! a [`RequestRecord`] with its per-phase latency breakdown
//! ([`Phase`]), plan-cache key and hit/miss, byte counts, kernel summary,
//! calibrated-vs-actual cost, and its full span buffer (the per-request
//! slice of the [`trace`] ring), so a Chrome trace of any
//! recent request can be rendered on demand — no restart, no `DMML_TRACE`.
//!
//! Requests slower than the configured threshold (`DMML_SERVE_SLOW_MS`, or a
//! self-tuning p99-based threshold when unset) are additionally retained in a
//! separate *slow ring* that outlives the recent ring's churn, so the worst
//! offenders of the last window stay diagnosable even under high QPS.
//!
//! Everything is bounded: the recent ring holds [`FlightRecorder::capacity`]
//! records, the slow ring [`SLOW_RING_CAP`], and each record's span buffer is
//! whatever the bounded trace ring had for that request.
//!
//! ```
//! use dm_obs::flightrec::{FlightRecorder, Phase, RequestRecord};
//!
//! let fr = FlightRecorder::new(16, None);
//! let id = fr.next_id();
//! let mut rec = RequestRecord::new(id, "tenant-a");
//! rec.phase_ns[Phase::Execute.index()] = 1_000_000;
//! rec.total_ns = 1_200_000;
//! fr.record(rec);
//! assert_eq!(fr.recent(8).len(), 1);
//! assert!(fr.get(id).is_some());
//! ```

use crate::json::escape_json;
use crate::trace::{self, TraceEvent};
use crate::LogHistogram;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Environment variable naming the slow-request threshold in milliseconds.
/// When unset, the recorder self-tunes: once enough samples accumulate, any
/// request above the observed p99 is captured as slow.
pub const SLOW_MS_ENV: &str = "DMML_SERVE_SLOW_MS";

/// Environment variable bounding the recent-request ring (total records).
pub const FLIGHT_CAP_ENV: &str = "DMML_SERVE_FLIGHT_CAP";

/// Default recent-ring capacity when `DMML_SERVE_FLIGHT_CAP` is unset.
pub const DEFAULT_FLIGHT_CAP: usize = 256;

/// Capacity of the slow ring (worst-of-window retention).
pub const SLOW_RING_CAP: usize = 32;

/// Samples required before the self-tuning p99 threshold activates.
const SELF_TUNE_MIN_SAMPLES: u64 = 64;

/// Lock shards for the recent ring; writers hash by request id.
const SHARDS: usize = 8;

/// One phase of a served request's lifecycle, in pipeline order. Names
/// match the `serve.phase.<name>` histogram sites in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Receiving and decoding the request payload, from its length prefix
    /// on: the JSON parse, plus reading every matrix value (from text, or
    /// off the socket as a slab streams in).
    Decode,
    /// Plan-cache probe (key construction + LRU lookup).
    CacheLookup,
    /// Full compile on a cache miss (parse → optimize → plan → certify),
    /// plus a batch leader's plan of its stacked product (plan → certify).
    Compile,
    /// Admission control: session-ledger reservation against the budget.
    Admission,
    /// Waiting for the micro-batch to fill (leader deadline or follower
    /// wait, which includes the leader's execution of the fused batch).
    BatchWait,
    /// Plan execution (kernel time proper).
    Execute,
    /// Response serialization + frame write.
    Encode,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 7] = [
        Phase::Decode,
        Phase::CacheLookup,
        Phase::Compile,
        Phase::Admission,
        Phase::BatchWait,
        Phase::Execute,
        Phase::Encode,
    ];

    /// Number of phases (length of [`RequestRecord::phase_ns`]).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable index into [`RequestRecord::phase_ns`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Snake-case phase name used in JSON and histogram sites.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Decode => "decode",
            Phase::CacheLookup => "cache_lookup",
            Phase::Compile => "compile",
            Phase::Admission => "admission",
            Phase::BatchWait => "batch_wait",
            Phase::Execute => "execute",
            Phase::Encode => "encode",
        }
    }

    /// Registry histogram site for this phase (`serve.phase.<name>`).
    pub fn site(self) -> &'static str {
        match self {
            Phase::Decode => "serve.phase.decode",
            Phase::CacheLookup => "serve.phase.cache_lookup",
            Phase::Compile => "serve.phase.compile",
            Phase::Admission => "serve.phase.admission",
            Phase::BatchWait => "serve.phase.batch_wait",
            Phase::Execute => "serve.phase.execute",
            Phase::Encode => "serve.phase.encode",
        }
    }
}

/// The completed-request record the serving path deposits after every
/// request, successful or not. All fields are plain data; the record is
/// immutable once recorded (the recorder hands out `Arc`s).
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Server-assigned request id, dense per recorder.
    pub id: u64,
    /// Tenant the request authenticated as.
    pub tenant: String,
    /// Plan-cache key (structural hash + size classes), empty for requests
    /// that never reached planning.
    pub plan_key: String,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Whether the request was served through the micro-batcher.
    pub batched: bool,
    /// Error string for failed requests.
    pub error: Option<String>,
    /// Per-phase wall time, indexed by [`Phase::index`].
    pub phase_ns: [u64; Phase::COUNT],
    /// End-to-end wall time (length prefix read → response flushed).
    pub total_ns: u64,
    /// Request frame size in bytes.
    pub bytes_in: u64,
    /// Response frame size in bytes.
    pub bytes_out: u64,
    /// Payload layout the request arrived in and the response went out in:
    /// `"text"` (JSON numbers) or `"slab"` (raw `f64`s). A megabyte of
    /// `bytes_in` under `"text"` is a client that should be sending slabs.
    pub layout: &'static str,
    /// Kernel summary from the plan (op/kernel pairs), empty if unavailable.
    pub kernel_summary: String,
    /// Calibrated cost-model estimate for the executed plan, in
    /// nanoseconds; 0 when no estimate was available.
    pub est_cost_ns: u64,
    /// Memory certificate summary (certified peak bytes), 0 if unplanned.
    pub certified_peak: u64,
    /// Serialized bytes this request's blocked kernels wrote to the spill
    /// store, including other requests' pages they evicted; 0 without a
    /// spill pool. A batch's traffic is on its leader's record.
    pub spilled_bytes: u64,
    /// Serialized bytes this request's blocked kernels read back from the
    /// spill store.
    pub faulted_bytes: u64,
    /// Marked slow at record time (explicit or self-tuned threshold).
    pub slow: bool,
    /// The request's retained span buffer: every event of the trace rooted
    /// at the request's root span, extracted from the global ring.
    pub events: Vec<TraceEvent>,
}

impl RequestRecord {
    /// A zeroed record for request `id` from `tenant`; the serving path
    /// fills fields in as the request progresses.
    pub fn new(id: u64, tenant: &str) -> RequestRecord {
        RequestRecord {
            id,
            tenant: tenant.to_owned(),
            plan_key: String::new(),
            cache_hit: false,
            batched: false,
            error: None,
            phase_ns: [0; Phase::COUNT],
            total_ns: 0,
            bytes_in: 0,
            bytes_out: 0,
            layout: "text",
            kernel_summary: String::new(),
            est_cost_ns: 0,
            certified_peak: 0,
            spilled_bytes: 0,
            faulted_bytes: 0,
            slow: false,
            events: Vec::new(),
        }
    }

    /// Sum of the per-phase times (should approximate
    /// [`total_ns`](RequestRecord::total_ns); the gap is unattributed time).
    pub fn phase_sum_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Render this record as a JSON object (one entry of `/debug/requests`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"id\":{},\"tenant\":\"{}\",\"plan_key\":\"{}\",\"cache_hit\":{},\"batched\":{},\"slow\":{}",
            self.id,
            escape_json(&self.tenant),
            escape_json(&self.plan_key),
            self.cache_hit,
            self.batched,
            self.slow,
        );
        match &self.error {
            Some(e) => {
                let _ = write!(out, ",\"error\":\"{}\"", escape_json(e));
            }
            None => out.push_str(",\"error\":null"),
        }
        let _ = write!(
            out,
            ",\"total_ns\":{},\"bytes_in\":{},\"bytes_out\":{},\"layout\":\"{}\",\"est_cost_ns\":{},\"certified_peak\":{},\"spilled_bytes\":{},\"faulted_bytes\":{},\"kernels\":\"{}\"",
            self.total_ns,
            self.bytes_in,
            self.bytes_out,
            self.layout,
            self.est_cost_ns,
            self.certified_peak,
            self.spilled_bytes,
            self.faulted_bytes,
            escape_json(&self.kernel_summary),
        );
        out.push_str(",\"phases\":{");
        for (i, p) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", p.name(), self.phase_ns[p.index()]);
        }
        let _ = write!(
            out,
            "}},\"phase_sum_ns\":{},\"trace_events\":{}}}",
            self.phase_sum_ns(),
            self.events.len()
        );
        out
    }
}

/// The fixed-size, lock-sharded ring of completed [`RequestRecord`]s, plus
/// the slow ring and the self-tuning latency threshold. One instance lives
/// in the scoring server's shared state; the [`MetricsServer`](crate::serve)
/// renders it under `/debug/*`.
pub struct FlightRecorder {
    shards: [Mutex<VecDeque<Arc<RequestRecord>>>; SHARDS],
    slow: Mutex<VecDeque<Arc<RequestRecord>>>,
    next_id: AtomicU64,
    capacity: usize,
    slow_threshold: Option<Duration>,
    latency: LogHistogram,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("slow_threshold", &self.slow_threshold)
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// A recorder holding up to `capacity` recent records. `slow_threshold`
    /// is the explicit slow-capture bar; `None` enables the self-tuning
    /// p99-based threshold.
    pub fn new(capacity: usize, slow_threshold: Option<Duration>) -> FlightRecorder {
        FlightRecorder {
            shards: [const { Mutex::new(VecDeque::new()) }; SHARDS],
            slow: Mutex::new(VecDeque::new()),
            next_id: AtomicU64::new(1),
            capacity: capacity.max(SHARDS),
            slow_threshold,
            latency: LogHistogram::new(),
        }
    }

    /// A recorder configured from `DMML_SERVE_FLIGHT_CAP` and
    /// `DMML_SERVE_SLOW_MS`.
    pub fn from_env() -> FlightRecorder {
        let cap = std::env::var(FLIGHT_CAP_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_FLIGHT_CAP);
        let slow = std::env::var(SLOW_MS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(Duration::from_millis);
        FlightRecorder::new(cap, slow)
    }

    /// Total recent-ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocate the next request id. Ids are dense and unique per recorder,
    /// not per process: every recorder starts at 1. A request's span tree
    /// is therefore keyed by a trace id of its own, minted by
    /// [`trace`]'s process-wide counter when the root span opens.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The slow-capture bar in nanoseconds right now: the explicit
    /// threshold when configured, otherwise the observed p99 once
    /// `SELF_TUNE_MIN_SAMPLES` (64) requests have completed (`None` before
    /// that — nothing is slow until there is a distribution to be slow
    /// *against*).
    pub fn slow_threshold_ns(&self) -> Option<u64> {
        if let Some(d) = self.slow_threshold {
            return Some(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        }
        if self.latency.count() >= SELF_TUNE_MIN_SAMPLES {
            return Some(self.latency.snapshot().quantile(0.99));
        }
        None
    }

    /// Deposit a completed record. Sets the record's `slow` flag from the
    /// current threshold, feeds the latency distribution, and retains slow
    /// records in the slow ring. Returns the shared record.
    pub fn record(&self, mut rec: RequestRecord) -> Arc<RequestRecord> {
        // Threshold is computed before this sample lands, so a single
        // outlier cannot raise the bar enough to hide itself.
        rec.slow = self.slow_threshold_ns().is_some_and(|t| rec.total_ns > t) || rec.slow;
        self.latency.record(rec.total_ns);
        let rec = Arc::new(rec);
        let per_shard = (self.capacity / SHARDS).max(1);
        let shard = (rec.id as usize) % SHARDS;
        {
            let mut ring = self.shards[shard].lock().expect("flight ring poisoned");
            while ring.len() >= per_shard {
                ring.pop_front();
            }
            ring.push_back(Arc::clone(&rec));
        }
        if rec.slow {
            let mut slow = self.slow.lock().expect("slow ring poisoned");
            while slow.len() >= SLOW_RING_CAP {
                // Evict the *fastest* slow record so the worst offenders of
                // the window survive; ties fall back to oldest-first.
                let min = slow
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| r.total_ns)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                slow.remove(min);
            }
            slow.push_back(Arc::clone(&rec));
        }
        rec
    }

    /// The most recent `n` records, newest first.
    pub fn recent(&self, n: usize) -> Vec<Arc<RequestRecord>> {
        let mut all: Vec<Arc<RequestRecord>> = Vec::new();
        for shard in &self.shards {
            all.extend(shard.lock().expect("flight ring poisoned").iter().cloned());
        }
        all.sort_by_key(|r| std::cmp::Reverse(r.id));
        all.truncate(n);
        all
    }

    /// The slow-ring contents, worst (highest `total_ns`) first.
    pub fn slow_records(&self) -> Vec<Arc<RequestRecord>> {
        let mut all: Vec<Arc<RequestRecord>> =
            self.slow.lock().expect("slow ring poisoned").iter().cloned().collect();
        all.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
        all
    }

    /// Look up a record by id, searching the slow ring first (slow records
    /// outlive the recent ring's churn).
    pub fn get(&self, id: u64) -> Option<Arc<RequestRecord>> {
        if let Some(r) = self.slow.lock().expect("slow ring poisoned").iter().find(|r| r.id == id) {
            return Some(Arc::clone(r));
        }
        let shard = (id as usize) % SHARDS;
        self.shards[shard]
            .lock()
            .expect("flight ring poisoned")
            .iter()
            .find(|r| r.id == id)
            .map(Arc::clone)
    }

    /// JSON body of `/debug/requests`: the `n` most recent records.
    pub fn requests_json(&self, n: usize) -> String {
        let recs = self.recent(n);
        let mut out = String::from("{\"requests\":[\n");
        for (i, r) in recs.iter().enumerate() {
            out.push_str(&r.to_json());
            if i + 1 < recs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        let _ = writeln!(out, "],\"capacity\":{}}}", self.capacity);
        out
    }

    /// JSON body of `/debug/slow`: threshold in effect plus the slow ring,
    /// worst first.
    pub fn slow_json(&self) -> String {
        let recs = self.slow_records();
        let mut out = String::from("{");
        match self.slow_threshold_ns() {
            Some(t) => {
                let _ = write!(out, "\"threshold_ns\":{t}");
            }
            None => out.push_str("\"threshold_ns\":null"),
        }
        let _ = writeln!(
            out,
            ",\"self_tuned\":{},\"samples\":{},\"slow\":[",
            self.slow_threshold.is_none(),
            self.latency.count()
        );
        for (i, r) in recs.iter().enumerate() {
            out.push_str(&r.to_json());
            if i + 1 < recs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    /// Chrome trace-event JSON for the retained span buffer of request
    /// `id`, loadable in Perfetto; `None` when the id is not (or no longer)
    /// captured.
    pub fn trace_json(&self, id: u64) -> Option<String> {
        let rec = self.get(id)?;
        Some(trace::chrome_trace(&rec.events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, total_ns: u64) -> RequestRecord {
        let mut r = RequestRecord::new(id, "t0");
        r.total_ns = total_ns;
        r.phase_ns[Phase::Execute.index()] = total_ns;
        r
    }

    #[test]
    fn ring_bounded_and_newest_first() {
        let fr = FlightRecorder::new(SHARDS * 2, Some(Duration::from_secs(3600)));
        for _ in 0..100 {
            let id = fr.next_id();
            fr.record(rec(id, 1000));
        }
        let recent = fr.recent(usize::MAX);
        assert!(recent.len() <= SHARDS * 2);
        assert_eq!(recent[0].id, 100);
        assert!(recent.windows(2).all(|w| w[0].id > w[1].id));
        // Nothing crossed the (absurd) explicit threshold.
        assert!(fr.slow_records().is_empty());
    }

    #[test]
    fn explicit_threshold_marks_slow_and_retains_worst() {
        let fr = FlightRecorder::new(64, Some(Duration::from_millis(10)));
        for i in 0..(SLOW_RING_CAP as u64 + 10) {
            let id = fr.next_id();
            // Every request is slow; total grows with id.
            fr.record(rec(id, 20_000_000 + i * 1_000_000));
        }
        let slow = fr.slow_records();
        assert_eq!(slow.len(), SLOW_RING_CAP);
        // Worst first, and the fastest ones were evicted.
        assert!(slow.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));
        assert_eq!(slow[0].total_ns, 20_000_000 + (SLOW_RING_CAP as u64 + 9) * 1_000_000);
    }

    #[test]
    fn self_tuning_threshold_needs_samples() {
        let fr = FlightRecorder::new(64, None);
        assert_eq!(fr.slow_threshold_ns(), None);
        for _ in 0..SELF_TUNE_MIN_SAMPLES {
            let id = fr.next_id();
            fr.record(rec(id, 1_000));
        }
        let t = fr.slow_threshold_ns().expect("threshold self-tunes after warmup");
        // An order-of-magnitude outlier is now flagged.
        let id = fr.next_id();
        let r = fr.record(rec(id, t * 10 + 1));
        assert!(r.slow);
        assert!(fr.get(id).unwrap().slow);
        assert_eq!(fr.slow_records()[0].id, id);
    }

    #[test]
    fn get_finds_slow_records_after_recent_churn() {
        let fr = FlightRecorder::new(SHARDS, Some(Duration::from_millis(1)));
        let slow_id = fr.next_id();
        fr.record(rec(slow_id, 5_000_000));
        // Churn the recent ring far past capacity with fast requests.
        for _ in 0..100 {
            let id = fr.next_id();
            fr.record(rec(id, 10));
        }
        assert!(fr.recent(usize::MAX).iter().all(|r| r.id != slow_id));
        assert_eq!(fr.get(slow_id).expect("slow ring retains it").id, slow_id);
    }

    #[test]
    fn json_renders_and_parses() {
        let fr = FlightRecorder::new(16, Some(Duration::from_millis(1)));
        let id = fr.next_id();
        let mut r = rec(id, 7_000_000);
        r.plan_key = "abc/main:r2c2".into();
        r.cache_hit = true;
        r.error = Some("boom \"quoted\"".into());
        (r.spilled_bytes, r.faulted_bytes) = (4096, 2048);
        fr.record(r);
        let parsed = crate::json::parse(&fr.requests_json(8)).expect("valid json");
        let reqs = parsed.get("requests").and_then(|j| j.as_arr()).unwrap();
        assert_eq!(reqs.len(), 1);
        let r0 = &reqs[0];
        assert_eq!(r0.get("id").and_then(|j| j.as_f64()), Some(id as f64));
        assert_eq!(r0.get("plan_key").and_then(|j| j.as_str()), Some("abc/main:r2c2"));
        assert!(r0.get("phases").and_then(|j| j.get("execute")).is_some());
        let spill = ["spilled_bytes", "faulted_bytes"].map(|k| r0.get(k).and_then(|j| j.as_f64()));
        assert_eq!(spill, [Some(4096.0), Some(2048.0)]);
        let slow = crate::json::parse(&fr.slow_json()).expect("valid json");
        assert_eq!(slow.get("threshold_ns").and_then(|j| j.as_f64()), Some(1_000_000.0));
        assert_eq!(slow.get("slow").and_then(|j| j.as_arr()).map(<[_]>::len), Some(1));
    }
}
