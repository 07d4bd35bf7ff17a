//! Structured tracing: RAII spans with trace/span/parent ids, collected into
//! mutex-sharded global buffers and exportable as Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`).
//!
//! The span model mirrors the introspection machinery of the surveyed
//! systems' fine-grained lineage tracing: every interesting unit of work —
//! one HOP-node evaluation, one `dm-par` worker task, one compression
//! planning phase — opens a [`Span`] on entry and records a *complete* event
//! (start + duration) when the span drops. Within one thread spans nest via
//! an implicit thread-local stack; across threads the parent is propagated
//! *explicitly*: the spawning side captures [`current`] (a [`SpanHandle`],
//! `Copy` and `Send`) and the worker opens its span with
//! [`Span::child_of`], so worker tasks nest under the executor node that
//! spawned them even though they run on other threads.
//!
//! Tracing is globally gated by an atomic flag ([`set_enabled`]); when
//! disabled, every entry point is a single relaxed atomic load and no
//! allocation or clock read happens. Buffers are process-global so that
//! leaf crates (`dm-par`, `dm-buffer`) need no handle threading; call
//! [`clear`] (or [`StatsRegistry::reset`](crate::StatsRegistry::reset),
//! which forwards to it) between profiled runs so samples do not bleed from
//! one run into the next.
//!
//! ```
//! use dm_obs::trace;
//!
//! trace::set_enabled(true);
//! trace::clear();
//! {
//!     let mut root = trace::Span::enter("eval", "exec");
//!     root.arg("op", "matmul");
//!     let parent = trace::current(); // explicit handle for cross-thread work
//!     std::thread::scope(|s| {
//!         s.spawn(move || {
//!             let _task = trace::Span::child_of(parent, "par.task", "par");
//!         });
//!     });
//!     trace::instant("pool.spill", &[("bytes", "4096".into())]);
//! }
//! let events = trace::take_events();
//! assert_eq!(events.len(), 3);
//! let json = trace::chrome_trace(&events);
//! assert!(json.contains("\"traceEvents\""));
//! trace::set_enabled(false);
//! ```

use crate::json::escape_json;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Environment variable naming the file the Chrome trace should be written
/// to. When set, [`env_trace_path`] returns the path, executors enable span
/// emission automatically, and [`write_env_trace`] performs the export.
pub const TRACE_ENV: &str = "DMML_TRACE";

/// Environment variable bounding the process-global event buffers (total
/// across shards). When the bound is hit the *oldest* events are evicted
/// ring-style and counted in [`dropped_events`]. `0` means unbounded.
pub const TRACE_MAX_EVENTS_ENV: &str = "DMML_TRACE_MAX_EVENTS";

/// Default total event-buffer capacity when `DMML_TRACE_MAX_EVENTS` is not
/// set: generous enough for any single profiled run, small enough that an
/// always-on server cannot grow without bound (~100 MB worst case).
pub const DEFAULT_MAX_EVENTS: usize = 262_144;

/// Number of mutex shards the global event buffer is split across. Threads
/// hash to a shard by thread id, so concurrent workers rarely contend.
const SHARDS: usize = 8;

/// Worker slots tracked by the per-worker busy-time counters.
const MAX_WORKERS: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
// Global open/close sequence: assigned when a span opens and again when it
// closes, so sorting events by sequence reproduces the true nesting order
// even when nanosecond timestamps tie.
static SEQ: AtomicU64 = AtomicU64::new(1);

static BUFFERS: [Mutex<VecDeque<TraceEvent>>; SHARDS] =
    [const { Mutex::new(VecDeque::new()) }; SHARDS];

/// Events evicted from the ring since process start (monotonic; not reset by
/// [`clear`], so long-lived servers can export it as a counter).
static DROPPED: AtomicU64 = AtomicU64::new(0);

static WORKER_BUSY_NS: [AtomicU64; MAX_WORKERS] = [const { AtomicU64::new(0) }; MAX_WORKERS];

thread_local! {
    static STACK: RefCell<Vec<SpanHandle>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The clock origin shared by every event in the process, so timestamps from
/// different threads land on one timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn tid() -> u64 {
    TID.with(|t| *t)
}

/// Turn span collection on or off process-wide. Disabled tracing costs one
/// relaxed atomic load per instrumentation point.
pub fn set_enabled(on: bool) {
    // Pin the epoch before the first event so timestamps are small offsets.
    if on {
        epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently collected.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The path named by the `DMML_TRACE` environment variable, if set and
/// non-empty.
pub fn env_trace_path() -> Option<String> {
    match std::env::var(TRACE_ENV) {
        Ok(p) if !p.trim().is_empty() => Some(p),
        _ => None,
    }
}

/// An identifier triple locating a span: the trace it belongs to, its own
/// id, and its parent's id (0 for roots). `Copy` and `Send` so it can be
/// captured by worker closures — this is the explicit parent propagation
/// that makes cross-thread tasks nest under the span that spawned them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandle {
    /// Trace (one per root span) this span belongs to.
    pub trace: u64,
    /// This span's unique id.
    pub span: u64,
}

/// The span currently open on this thread, if any. Capture this before
/// spawning workers and pass it to [`Span::child_of`] inside them.
pub fn current() -> Option<SpanHandle> {
    if !is_enabled() {
        return None;
    }
    STACK.with(|s| s.borrow().last().copied())
}

/// A span/instant argument value, stored unformatted until export so the
/// hot path (node ids, flop counts, byte sizes) never touches the string
/// formatting machinery. Rendered by [`chrome_trace`]: strings quoted,
/// numbers as bare JSON numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgVal {
    /// A string value, JSON-quoted in the export.
    Str(Cow<'static, str>),
    /// An unsigned integer, exported as a bare number.
    U64(u64),
}

impl From<&'static str> for ArgVal {
    fn from(s: &'static str) -> ArgVal {
        ArgVal::Str(Cow::Borrowed(s))
    }
}

impl From<String> for ArgVal {
    fn from(s: String) -> ArgVal {
        ArgVal::Str(Cow::Owned(s))
    }
}

impl From<Cow<'static, str>> for ArgVal {
    fn from(s: Cow<'static, str>) -> ArgVal {
        ArgVal::Str(s)
    }
}

impl From<u64> for ArgVal {
    fn from(n: u64) -> ArgVal {
        ArgVal::U64(n)
    }
}

impl From<usize> for ArgVal {
    fn from(n: usize) -> ArgVal {
        ArgVal::U64(n as u64)
    }
}

impl std::fmt::Display for ArgVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgVal::Str(s) => f.write_str(s),
            ArgVal::U64(n) => write!(f, "{n}"),
        }
    }
}

/// What kind of event a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: begin/end pair in the Chrome export.
    Span {
        /// Nanoseconds from the process trace epoch to span open.
        start_ns: u64,
        /// Span duration in nanoseconds.
        dur_ns: u64,
        /// Global sequence number at open.
        seq_open: u64,
        /// Global sequence number at close.
        seq_close: u64,
    },
    /// A point-in-time instant event (`ph: "i"`).
    Instant {
        /// Nanoseconds from the process trace epoch.
        ts_ns: u64,
        /// Global sequence number.
        seq: u64,
    },
}

/// One collected event, as drained by [`take_events`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Small dense per-thread id (assigned in thread-creation order).
    pub tid: u64,
    /// Event name (op label, task label, event site). `Cow` so the common
    /// case — a static site name — records without a heap allocation.
    pub name: Cow<'static, str>,
    /// Category shown by trace viewers (`exec`, `par`, `buffer`, `compress`).
    pub cat: &'static str,
    /// Trace id of the owning trace (0 for instants outside any span).
    pub trace: u64,
    /// Span id (0 for instants).
    pub span: u64,
    /// Parent span id (0 for roots).
    pub parent: u64,
    /// Span or instant payload.
    pub kind: EventKind,
    /// Key/value arguments (op name, dims, flops, worker id, bytes, ...).
    pub args: Vec<(&'static str, ArgVal)>,
}

impl TraceEvent {
    /// Duration of a span event, 0 for instants. Never negative by
    /// construction (computed from a monotonic clock).
    pub fn dur_ns(&self) -> u64 {
        match self.kind {
            EventKind::Span { dur_ns, .. } => dur_ns,
            EventKind::Instant { .. } => 0,
        }
    }

    /// Value of an argument by key rendered to a string, if attached.
    pub fn arg(&self, key: &str) -> Option<String> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v.to_string())
    }
}

/// Total event capacity across all shards. Initialized from
/// `DMML_TRACE_MAX_EVENTS` on first use; overridable via [`set_max_events`].
fn max_events() -> usize {
    cap_cell().load(Ordering::Relaxed)
}

fn cap_cell() -> &'static std::sync::atomic::AtomicUsize {
    static CAP: OnceLock<std::sync::atomic::AtomicUsize> = OnceLock::new();
    CAP.get_or_init(|| {
        let cap = std::env::var(TRACE_MAX_EVENTS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_MAX_EVENTS);
        std::sync::atomic::AtomicUsize::new(cap)
    })
}

/// Override the total event-buffer capacity (`0` = unbounded). Normally set
/// through `DMML_TRACE_MAX_EVENTS`; exposed so embedders and tests can bound
/// the ring without touching the process environment.
pub fn set_max_events(cap: usize) {
    cap_cell().store(cap, Ordering::Relaxed);
}

/// Events evicted because the ring was full, since process start. Monotonic
/// (never reset by [`clear`]) so it can be exported as a counter.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Publish the process's drop total into `reg` as the gauge
/// `obs.trace.dropped`. Idempotent: every call sets the same process-wide
/// total, so any number of registries (one per server) each read the full
/// count, however often they publish. Until the first drop the gauge is not
/// created, so a per-request publish costs no registry lookup.
pub fn record_dropped(reg: &crate::StatsRegistry) {
    let total = dropped_events();
    if total > 0 {
        reg.gauge_set("obs.trace.dropped", total);
    }
}

fn push_event(ev: TraceEvent) {
    let shard = (ev.tid as usize) % SHARDS;
    let cap = max_events();
    // Per-shard slice of the total budget; ring-evict the oldest events so
    // an always-on server keeps the most recent window.
    let per_shard = if cap == 0 { usize::MAX } else { (cap / SHARDS).max(1) };
    let mut buf = BUFFERS[shard].lock().expect("trace buffer poisoned");
    while buf.len() >= per_shard {
        buf.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    buf.push_back(ev);
}

/// Record a point-in-time instant event, attached to the current span when
/// one is open. No-op when tracing is disabled.
pub fn instant(name: impl Into<Cow<'static, str>>, args: &[(&'static str, ArgVal)]) {
    if !is_enabled() {
        return;
    }
    let (trace, parent) = STACK.with(|s| s.borrow().last().map_or((0, 0), |h| (h.trace, h.span)));
    push_event(TraceEvent {
        tid: tid(),
        name: name.into(),
        cat: "instant",
        trace,
        span: 0,
        parent,
        kind: EventKind::Instant { ts_ns: now_ns(), seq: SEQ.fetch_add(1, Ordering::Relaxed) },
        args: args.to_vec(),
    });
}

/// An open span. Records a complete event (with duration) when dropped.
/// Inert (no allocation, no clock read, nothing recorded) when tracing was
/// disabled at open time.
#[derive(Debug)]
pub struct Span {
    live: Option<LiveSpan>,
}

#[derive(Debug)]
struct LiveSpan {
    handle: SpanHandle,
    parent: u64,
    name: Cow<'static, str>,
    cat: &'static str,
    start_ns: u64,
    seq_open: u64,
    args: Vec<(&'static str, ArgVal)>,
}

impl Span {
    fn open(parent: Option<SpanHandle>, name: Cow<'static, str>, cat: &'static str) -> Span {
        if !is_enabled() {
            return Span { live: None };
        }
        let (trace, parent_id) = match parent {
            Some(p) => (p.trace, p.span),
            None => (NEXT_TRACE.fetch_add(1, Ordering::Relaxed), 0),
        };
        let handle = SpanHandle { trace, span: NEXT_SPAN.fetch_add(1, Ordering::Relaxed) };
        STACK.with(|s| s.borrow_mut().push(handle));
        Span {
            live: Some(LiveSpan {
                handle,
                parent: parent_id,
                name,
                cat,
                start_ns: now_ns(),
                seq_open: SEQ.fetch_add(1, Ordering::Relaxed),
                args: Vec::new(),
            }),
        }
    }

    /// Open a span as a child of the span currently on this thread's stack
    /// (a fresh root trace when the stack is empty).
    pub fn enter(name: impl Into<Cow<'static, str>>, cat: &'static str) -> Span {
        if !is_enabled() {
            return Span { live: None };
        }
        let parent = STACK.with(|s| s.borrow().last().copied());
        Span::open(parent, name.into(), cat)
    }

    /// Open a span under an explicitly propagated parent handle (`None`
    /// starts a fresh root trace). This is how work shipped to another
    /// thread stays attached to the span that spawned it.
    pub fn child_of(
        parent: Option<SpanHandle>,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
    ) -> Span {
        if !is_enabled() {
            return Span { live: None };
        }
        Span::open(parent, name.into(), cat)
    }

    /// The handle identifying this span, for explicit propagation to
    /// workers. `None` when the span is inert (tracing disabled).
    pub fn handle(&self) -> Option<SpanHandle> {
        self.live.as_ref().map(|l| l.handle)
    }

    /// Attach (or overwrite) a key/value argument carried into the export.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgVal>) {
        if let Some(l) = &mut self.live {
            if let Some(slot) = l.args.iter_mut().find(|(k, _)| *k == key) {
                slot.1 = value.into();
            } else {
                l.args.push((key, value.into()));
            }
        }
    }

    /// True when the span actually records (tracing was enabled at open).
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(l) = self.live.take() else { return };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // RAII guarantees LIFO on this thread; pop defensively anyway.
            if stack.last() == Some(&l.handle) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|h| *h == l.handle) {
                stack.remove(pos);
            }
        });
        push_event(TraceEvent {
            tid: tid(),
            name: l.name,
            cat: l.cat,
            trace: l.handle.trace,
            span: l.handle.span,
            parent: l.parent,
            kind: EventKind::Span {
                start_ns: l.start_ns,
                dur_ns: end_ns.saturating_sub(l.start_ns),
                seq_open: l.seq_open,
                seq_close: SEQ.fetch_add(1, Ordering::Relaxed),
            },
            args: l.args,
        });
    }
}

/// Scratch for completed spans recorded by one thread and flushed to the
/// shared buffers with a single lock acquisition, instead of one per span.
/// Built for the serving layer's per-phase timers: a request times 5–7
/// phases, and paying a buffer lock (plus thread-local stack traffic) per
/// phase is measurable at microsecond request latencies.
///
/// Pending spans do NOT join the thread-local span stack: spans opened
/// while one is pending attach to the pending span's *parent* rather than
/// the pending span itself. Sequence numbers are still drawn from the
/// global counter at begin/end time, so batched events interleave in true
/// open/close order with children recorded live in between.
#[derive(Debug, Default)]
pub struct LocalSpans {
    events: Vec<TraceEvent>,
}

/// A span opened through [`LocalSpans::begin`] and not yet completed.
#[derive(Debug)]
pub struct PendingSpan {
    handle: SpanHandle,
    parent: u64,
    name: Cow<'static, str>,
    cat: &'static str,
    start_ns: u64,
    seq_open: u64,
}

impl LocalSpans {
    /// An empty scratch buffer.
    pub fn new() -> LocalSpans {
        LocalSpans::default()
    }

    /// Open a pending span under `parent` (a fresh root trace when `None`).
    /// Returns `None` when tracing is disabled.
    pub fn begin(
        &mut self,
        parent: Option<SpanHandle>,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
    ) -> Option<PendingSpan> {
        if !is_enabled() {
            return None;
        }
        let (trace, parent_id) = match parent {
            Some(p) => (p.trace, p.span),
            None => (NEXT_TRACE.fetch_add(1, Ordering::Relaxed), 0),
        };
        Some(PendingSpan {
            handle: SpanHandle { trace, span: NEXT_SPAN.fetch_add(1, Ordering::Relaxed) },
            parent: parent_id,
            name: name.into(),
            cat,
            start_ns: now_ns(),
            seq_open: SEQ.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Complete a pending span, buffering its event locally. Returns the
    /// span's duration in nanoseconds (on the same clock as the timeline),
    /// so callers timing a region need no extra clock reads.
    pub fn end(&mut self, p: PendingSpan) -> u64 {
        let dur_ns = now_ns().saturating_sub(p.start_ns);
        self.events.push(TraceEvent {
            tid: tid(),
            name: p.name,
            cat: p.cat,
            trace: p.handle.trace,
            span: p.handle.span,
            parent: p.parent,
            kind: EventKind::Span {
                start_ns: p.start_ns,
                dur_ns,
                seq_open: p.seq_open,
                seq_close: SEQ.fetch_add(1, Ordering::Relaxed),
            },
            args: Vec::new(),
        });
        dur_ns
    }

    /// Move every buffered event into the shared buffers. All events were
    /// recorded by this thread, so they land in one shard: one lock.
    pub fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let shard = (tid() as usize) % SHARDS;
        let cap = max_events();
        let per_shard = if cap == 0 { usize::MAX } else { (cap / SHARDS).max(1) };
        let mut buf = BUFFERS[shard].lock().expect("trace buffer poisoned");
        for ev in self.events.drain(..) {
            while buf.len() >= per_shard {
                buf.pop_front();
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
            buf.push_back(ev);
        }
    }
}

/// Add `ns` nanoseconds of busy time to worker slot `worker` (clamped into
/// the tracked range). `dm-par` calls this once per completed task.
pub fn worker_busy_add(worker: usize, ns: u64) {
    WORKER_BUSY_NS[worker.min(MAX_WORKERS - 1)].fetch_add(ns, Ordering::Relaxed);
}

/// Snapshot of the non-zero per-worker busy-time counters as
/// `(worker, busy_ns)` pairs.
pub fn worker_busy_snapshot() -> Vec<(usize, u64)> {
    WORKER_BUSY_NS
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let v = c.load(Ordering::Relaxed);
            (v > 0).then_some((i, v))
        })
        .collect()
}

/// Publish each worker's cumulative busy time into `reg` as the gauge
/// `par.worker.<i>.busy_ns`. Idempotent like [`record_dropped`]: a second
/// call sets the same totals again.
pub fn record_worker_busy(reg: &crate::StatsRegistry) {
    for (i, ns) in worker_busy_snapshot() {
        reg.gauge_set(&format!("par.worker.{i}.busy_ns"), ns);
    }
}

/// Drain every buffered event (across all shards), ordered by open
/// sequence. Open spans that have not dropped yet are not included.
pub fn take_events() -> Vec<TraceEvent> {
    let mut all = Vec::new();
    for shard in &BUFFERS {
        all.extend(shard.lock().expect("trace buffer poisoned").drain(..));
    }
    all.sort_by_key(|e| match e.kind {
        EventKind::Span { seq_open, .. } => seq_open,
        EventKind::Instant { seq, .. } => seq,
    });
    all
}

/// Drain only the events belonging to one trace id (across all shards),
/// ordered by open sequence, leaving other traces buffered. This is how the
/// serving layer extracts one request's span tree from the shared buffers
/// without disturbing requests still in flight on other threads.
pub fn extract_trace(trace: u64) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for shard in &BUFFERS {
        let mut buf = shard.lock().expect("trace buffer poisoned");
        // Most shards hold no events for this trace (events land in the
        // serving thread's shard); skip the rebuild for those entirely.
        if !buf.iter().any(|ev| ev.trace == trace) {
            continue;
        }
        let mut kept = VecDeque::with_capacity(buf.len());
        for ev in buf.drain(..) {
            if ev.trace == trace {
                out.push(ev);
            } else {
                kept.push_back(ev);
            }
        }
        *buf = kept;
    }
    out.sort_by_key(|e| match e.kind {
        EventKind::Span { seq_open, .. } => seq_open,
        EventKind::Instant { seq, .. } => seq,
    });
    out
}

/// Clone of the buffered events without draining them, ordered like
/// [`take_events`].
pub fn snapshot_events() -> Vec<TraceEvent> {
    let mut all = Vec::new();
    for shard in &BUFFERS {
        all.extend(shard.lock().expect("trace buffer poisoned").iter().cloned());
    }
    all.sort_by_key(|e| match e.kind {
        EventKind::Span { seq_open, .. } => seq_open,
        EventKind::Instant { seq, .. } => seq,
    });
    all
}

/// Discard every buffered event and zero the per-worker busy counters.
/// Call between back-to-back profiled runs so samples do not bleed across.
pub fn clear() {
    for shard in &BUFFERS {
        shard.lock().expect("trace buffer poisoned").clear();
    }
    for c in &WORKER_BUSY_NS {
        c.store(0, Ordering::Relaxed);
    }
}

fn write_args(out: &mut String, ev: &TraceEvent) {
    let _ = write!(
        out,
        "\"args\":{{\"trace\":{},\"span\":{},\"parent\":{}",
        ev.trace, ev.span, ev.parent
    );
    for (k, v) in &ev.args {
        match v {
            ArgVal::Str(s) => {
                let _ = write!(out, ",\"{}\":\"{}\"", escape_json(k), escape_json(s));
            }
            ArgVal::U64(n) => {
                let _ = write!(out, ",\"{}\":{}", escape_json(k), n);
            }
        }
    }
    out.push('}');
}

/// Render events as Chrome trace-event JSON (the `traceEvents` array form
/// Perfetto and `chrome://tracing` load). Spans become matched `B`/`E`
/// pairs on their thread's track, instants become `i` events; every event
/// carries its trace/span/parent ids plus the span's own arguments in
/// `args`. Events are emitted in true open/close order (the global
/// sequence), so begin/end pairs are strictly nested per thread even when
/// nanosecond timestamps tie.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    // (seq, entry) triples so B and E interleave in real order.
    let mut entries: Vec<(u64, String)> = Vec::with_capacity(events.len() * 2);
    for ev in events {
        let name = escape_json(&ev.name);
        let cat = escape_json(ev.cat);
        match ev.kind {
            EventKind::Span { start_ns, dur_ns, seq_open, seq_close } => {
                let mut b = format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"B\",\"ts\":{},\"pid\":1,\"tid\":{},",
                    fmt_us(start_ns),
                    ev.tid
                );
                write_args(&mut b, ev);
                b.push('}');
                entries.push((seq_open, b));
                let e = format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"E\",\"ts\":{},\"pid\":1,\"tid\":{}}}",
                    fmt_us(start_ns + dur_ns),
                    ev.tid
                );
                entries.push((seq_close, e));
            }
            EventKind::Instant { ts_ns, seq } => {
                let mut i = format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},",
                    fmt_us(ts_ns),
                    ev.tid
                );
                write_args(&mut i, ev);
                i.push('}');
                entries.push((seq, i));
            }
        }
    }
    entries.sort_by_key(|(seq, _)| *seq);
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, (_, e)) in entries.iter().enumerate() {
        out.push_str(e);
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Nanoseconds rendered as fractional microseconds (the Chrome trace `ts`
/// unit), keeping full nanosecond precision.
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Write the Chrome trace of all buffered events to `path` (buffers are
/// left intact; callers that want a fresh start should [`clear`]).
pub fn write_chrome_trace(path: &str) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace(&snapshot_events()))
}

/// Write the Chrome trace to the path named by `DMML_TRACE`, when set.
/// Returns the path written to.
pub fn write_env_trace() -> Option<std::io::Result<String>> {
    let path = env_trace_path()?;
    Some(write_chrome_trace(&path).map(|()| path))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The trace buffers are process-global; tests that assert on their
    // contents serialize through this lock and clear first.
    pub(crate) fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        crate::lock(&LOCK)
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = lock();
        set_enabled(false);
        clear();
        {
            let mut s = Span::enter("noop", "test");
            assert!(!s.is_recording());
            assert!(s.handle().is_none());
            s.arg("k", "v");
            instant("nothing", &[]);
        }
        assert!(take_events().is_empty());
        assert_eq!(current(), None);
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let _g = lock();
        set_enabled(true);
        clear();
        {
            let outer = Span::enter("outer", "test");
            let outer_h = outer.handle().unwrap();
            {
                let inner = Span::enter("inner", "test");
                let inner_h = inner.handle().unwrap();
                assert_eq!(inner_h.trace, outer_h.trace);
                assert_eq!(current(), Some(inner_h));
            }
            assert_eq!(current(), Some(outer_h));
        }
        set_enabled(false);
        let evs = take_events();
        assert_eq!(evs.len(), 2);
        // Inner closed first but events sort by open order.
        assert_eq!(evs[0].name, "outer");
        assert_eq!(evs[1].name, "inner");
        assert_eq!(evs[1].parent, evs[0].span);
        assert_eq!(evs[0].parent, 0);
    }

    #[test]
    fn cross_thread_child_links_to_explicit_parent() {
        let _g = lock();
        set_enabled(true);
        clear();
        {
            let root = Span::enter("spawn", "test");
            let parent = root.handle();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let mut t = Span::child_of(parent, "task", "par");
                    t.arg("worker", "1");
                });
            });
        }
        set_enabled(false);
        let evs = take_events();
        assert_eq!(evs.len(), 2);
        let root = evs.iter().find(|e| e.name == "spawn").unwrap();
        let task = evs.iter().find(|e| e.name == "task").unwrap();
        assert_eq!(task.parent, root.span);
        assert_eq!(task.trace, root.trace);
        assert_ne!(task.tid, root.tid);
        assert_eq!(task.arg("worker").as_deref(), Some("1"));
    }

    #[test]
    fn instants_attach_to_current_span() {
        let _g = lock();
        set_enabled(true);
        clear();
        {
            let s = Span::enter("holder", "test");
            let h = s.handle().unwrap();
            instant("evt", &[("bytes", "12".into())]);
            drop(s);
            let evs = snapshot_events();
            let i = evs.iter().find(|e| e.name == "evt").unwrap();
            assert_eq!(i.parent, h.span);
            assert_eq!(i.dur_ns(), 0);
        }
        set_enabled(false);
        clear();
    }

    #[test]
    fn chrome_export_pairs_begin_end() {
        let _g = lock();
        set_enabled(true);
        clear();
        {
            let _a = Span::enter("a", "test");
            let _b = Span::enter("b", "test");
        }
        instant("mark", &[]);
        set_enabled(false);
        let json = chrome_trace(&take_events());
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
        // b opened after a and closed before it: B a, B b, E b, E a.
        let pos = |needle: &str| json.find(needle).unwrap();
        assert!(
            pos("\"name\":\"a\",\"cat\":\"test\",\"ph\":\"B\"")
                < pos("\"name\":\"b\",\"cat\":\"test\",\"ph\":\"B\"")
        );
        assert!(
            pos("\"name\":\"b\",\"cat\":\"test\",\"ph\":\"E\"")
                < pos("\"name\":\"a\",\"cat\":\"test\",\"ph\":\"E\"")
        );
    }

    #[test]
    fn worker_busy_counters_accumulate_and_clear() {
        let _g = lock();
        clear();
        worker_busy_add(0, 100);
        worker_busy_add(0, 50);
        worker_busy_add(3, 7);
        let snap = worker_busy_snapshot();
        assert_eq!(snap, vec![(0, 150), (3, 7)]);
        clear();
        assert!(worker_busy_snapshot().is_empty());
    }

    #[test]
    fn ring_cap_evicts_oldest_and_counts_drops() {
        let _g = lock();
        set_enabled(true);
        clear();
        // Everything lands in one shard (single thread), so the effective
        // bound here is cap / SHARDS.
        set_max_events(4 * SHARDS);
        let before = dropped_events();
        for i in 0..10 {
            let mut s = Span::enter("spin", "test");
            s.arg("i", i.to_string());
        }
        set_enabled(false);
        set_max_events(0);
        let evs = take_events();
        assert_eq!(evs.len(), 4, "ring holds exactly the per-shard cap");
        // The survivors are the most recent spans.
        assert_eq!(evs.last().unwrap().arg("i").as_deref(), Some("9"));
        assert_eq!(dropped_events() - before, 6);
        set_max_events(DEFAULT_MAX_EVENTS);
    }

    #[test]
    fn publishers_set_process_totals_in_every_registry() {
        let _g = lock();
        set_enabled(true);
        clear();
        set_max_events(SHARDS);
        for _ in 0..5 {
            let _s = Span::enter("spin", "test");
        }
        set_enabled(false);
        set_max_events(DEFAULT_MAX_EVENTS);
        clear();
        worker_busy_add(1, 40);
        // Two registries in one process (two servers) each read the full
        // totals, and publishing again does not change them.
        let (a, b) = (crate::StatsRegistry::new(), crate::StatsRegistry::new());
        for reg in [&a, &b, &a] {
            record_dropped(reg);
            record_worker_busy(reg);
        }
        let total = dropped_events();
        assert!(total >= 4, "a one-slot ring drops at least 4 of 5 spans");
        for rep in [a.report(), b.report()] {
            assert_eq!(rep.gauge("obs.trace.dropped").map(|(cur, _)| cur), Some(total));
            assert_eq!(rep.gauge("par.worker.1.busy_ns").map(|(cur, _)| cur), Some(40));
        }
        clear();
    }

    #[test]
    fn extract_trace_takes_only_matching_events() {
        let _g = lock();
        set_enabled(true);
        clear();
        let a_trace = {
            let a = Span::enter("req.a", "test");
            let h = a.handle().unwrap();
            let _child = Span::child_of(Some(h), "a.work", "test");
            h.trace
        };
        {
            let _b = Span::enter("req.b", "test");
        }
        set_enabled(false);
        let a_events = extract_trace(a_trace);
        assert_eq!(a_events.len(), 2);
        assert!(a_events.iter().all(|e| e.trace == a_trace));
        assert_eq!(a_events[0].name, "req.a");
        let rest = take_events();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].name, "req.b");
    }

    #[test]
    fn fmt_us_keeps_ns_precision() {
        assert_eq!(fmt_us(0), "0.000");
        assert_eq!(fmt_us(1_234_567), "1234.567");
        assert_eq!(fmt_us(999), "0.999");
    }
}
