//! The scoring server: accept loop, worker pool, and the request path.
//!
//! One process hosts every tenant. The shared state is deliberately the
//! same set of objects a single-shot run uses — one
//! [`PlanCache`], one [`StatsRegistry`], one [`ProfileStore`], one
//! [`SessionLedger`], one spill pool — so multi-tenancy is resource
//! *sharing*, not resource duplication:
//!
//! 1. **accept** — a dedicated thread accepts TCP connections and hands
//!    each one to a [`dm_par::WorkerPool`] worker, which serves frames
//!    off that connection until the client hangs up.
//! 2. **parse** — the frame decodes to a [`Request`], whichever of the two
//!    payload layouts it arrived in (nothing past this step can tell); the
//!    program text parses to an expression DAG (cheap, linear in the text).
//! 3. **plan-cache probe** — the request's [`PlanKey`] (structural
//!    program hash + per-input size classes and sparsity buckets) probes
//!    the shared LRU. A hit skips rewriting, size propagation, physical
//!    selection, and certification entirely; a miss compiles and inserts.
//! 4. **certify / admit** — the plan's certified peak bytes are charged
//!    against the [`SessionLedger`]. Requests that do not fit next to
//!    in-flight work queue; requests certified over the whole budget were
//!    already planned with [`Kernel::Blocked`](dm_lang::physical::Kernel)
//!    kernels and are admitted to run alone, streaming through the shared
//!    spill pool instead of OOMing neighbors.
//! 5. **batch** — eligible vector-scoring requests (`... %*% x` against a
//!    cached plan) may coalesce into one gemm under the configured
//!    deadline (see [`crate::batch`]).
//! 6. **execute / respond** — a fresh [`Executor`] runs the cached plan;
//!    stats and kernel profiles flow into the shared registry and profile
//!    store; the result frames back to the client bit-exactly, in the
//!    layout of the request.

use crate::batch::{Batcher, Joined};
use crate::protocol::{
    decode_request_frame, read_frame, response_frame, write_frame, Cmd, InputValue, Layout,
    Request, Response, ScoreResult, FRAME_PREFIX_BYTES,
};
use dm_buffer::policy::PolicyKind;
use dm_buffer::session::SessionLedger;
use dm_buffer::storage::{FileStore, MemStore, Storage};
use dm_buffer::{BufferPool, SharedBufferPool};
use dm_lang::cache::{compile, program_hash, CompiledProgram, InputClass, PlanCache, PlanKey};
use dm_lang::cost::{CostModel, DRIFT_FACTOR};
use dm_lang::exec::{Env, Executor, Val};
use dm_lang::expr::Op;
use dm_lang::memory::MemoryBudget;
use dm_lang::parser;
use dm_lang::size::InputSizes;
use dm_matrix::{Dense, Matrix};
use dm_obs::flightrec::{FlightRecorder, Phase, RequestRecord};
use dm_obs::profile::ProfileStore;
use dm_obs::trace;
use dm_obs::{Recorder, StatsRegistry};
use dm_par::WorkerPool;
use std::collections::BTreeSet;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `DMML_SERVE_ADDR` — listen address (default `127.0.0.1:7878`; port 0
/// picks a free port).
pub const SERVE_ADDR_ENV: &str = "DMML_SERVE_ADDR";
/// `DMML_SERVE_WORKERS` — connection-worker threads; a connection is
/// sticky to its worker, so this caps concurrent tenant connections
/// (default: [`dm_par::default_degree`], floored at 8).
pub const SERVE_WORKERS_ENV: &str = "DMML_SERVE_WORKERS";
/// `DMML_SERVE_BATCH_DEADLINE_MS` — how long a micro-batch leader waits
/// for followers, in milliseconds (default 2).
pub const SERVE_BATCH_DEADLINE_ENV: &str = "DMML_SERVE_BATCH_DEADLINE_MS";
/// `DMML_SERVE_BATCH_MAX` — max requests coalesced into one gemm
/// (default 8; `1` disables micro-batching).
pub const SERVE_BATCH_MAX_ENV: &str = "DMML_SERVE_BATCH_MAX";
/// `DMML_SERVE_PLAN_CACHE` — plan-cache capacity in plans (default 64).
pub const SERVE_PLAN_CACHE_ENV: &str = "DMML_SERVE_PLAN_CACHE";
/// `DMML_SERVE_TENANT_SERIES` — max distinct tenants given their own
/// `serve.tenant.<id>.latency_ns` histogram (default 64). Registry entries
/// are never evicted, so without a cap any client minting fresh tenant
/// names would grow the registry and `/metrics` output without bound;
/// tenants past the cap share the `serve.tenant.other.latency_ns` bucket.
pub const SERVE_TENANT_SERIES_ENV: &str = "DMML_SERVE_TENANT_SERIES";
/// `DMML_SERVE_SLOW_MS` — explicit slow-request capture threshold in
/// milliseconds; unset enables the flight recorder's self-tuning p99-based
/// threshold (re-exported from [`dm_obs::flightrec::SLOW_MS_ENV`]).
pub const SERVE_SLOW_MS_ENV: &str = dm_obs::flightrec::SLOW_MS_ENV;
/// `DMML_SERVE_FLIGHT_CAP` — flight-recorder recent-ring capacity in
/// records (default [`dm_obs::flightrec::DEFAULT_FLIGHT_CAP`]).
pub const SERVE_FLIGHT_CAP_ENV: &str = dm_obs::flightrec::FLIGHT_CAP_ENV;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

/// Server configuration; build with [`from_env`](Self::from_env) in
/// binaries and [`for_tests`](Self::for_tests) in tests.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 for ephemeral).
    pub addr: String,
    /// Connection-worker threads.
    pub workers: usize,
    /// Micro-batch leader deadline.
    pub batch_deadline: Duration,
    /// Max requests per micro-batch (`<= 1` disables batching).
    pub batch_max: usize,
    /// Plan-cache capacity in plans.
    pub plan_cache: usize,
    /// Max distinct tenants with their own latency histogram; the rest
    /// share the `other` bucket.
    pub tenant_series: usize,
    /// Shared memory budget for certification and admission.
    pub budget: MemoryBudget,
    /// Degree of parallelism plans are compiled for.
    pub degree: usize,
    /// Explicit slow-request capture threshold; `None` self-tunes to the
    /// observed p99 once enough requests have completed.
    pub slow_threshold: Option<Duration>,
    /// Flight-recorder recent-ring capacity in records.
    pub flight_capacity: usize,
}

impl ServeConfig {
    /// Read every `DMML_SERVE_*` knob (plus `DMML_MEM_BUDGET` and
    /// `DMML_THREADS`) from the environment.
    pub fn from_env() -> Self {
        ServeConfig {
            addr: std::env::var(SERVE_ADDR_ENV)
                .ok()
                .filter(|a| !a.trim().is_empty())
                .unwrap_or_else(|| "127.0.0.1:7878".to_owned()),
            // A connection is sticky to its worker, so the worker count caps
            // concurrent tenants. Handlers mostly block on socket reads, so
            // the floor is well above the compute degree even on small boxes.
            workers: env_usize(SERVE_WORKERS_ENV, dm_par::default_degree().max(8)).max(1),
            batch_deadline: Duration::from_millis(env_usize(SERVE_BATCH_DEADLINE_ENV, 2) as u64),
            batch_max: env_usize(SERVE_BATCH_MAX_ENV, 8),
            plan_cache: env_usize(SERVE_PLAN_CACHE_ENV, 64).max(1),
            tenant_series: env_usize(SERVE_TENANT_SERIES_ENV, 64).max(1),
            budget: MemoryBudget::from_env(),
            degree: dm_par::default_degree(),
            slow_threshold: std::env::var(SERVE_SLOW_MS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
                .map(Duration::from_millis),
            flight_capacity: env_usize(SERVE_FLIGHT_CAP_ENV, dm_obs::flightrec::DEFAULT_FLIGHT_CAP)
                .max(1),
        }
    }

    /// An ephemeral-port config suitable for tests: 4 workers, 5 ms batch
    /// deadline, unbounded budget, serial plans.
    pub fn for_tests() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            batch_deadline: Duration::from_millis(5),
            batch_max: 8,
            plan_cache: 64,
            tenant_series: 64,
            budget: MemoryBudget::unbounded(),
            degree: 1,
            slow_threshold: None,
            flight_capacity: 64,
        }
    }
}

/// State shared by every connection worker.
struct Shared {
    cfg: ServeConfig,
    registry: Arc<StatsRegistry>,
    cache: Mutex<PlanCache>,
    profiles: Mutex<ProfileStore>,
    ledger: Arc<SessionLedger>,
    spill: Option<SharedBufferPool<Box<dyn Storage>>>,
    batcher: Batcher,
    model: CostModel,
    spill_slots: SpillSlots,
    /// Tenants granted their own latency series, capped at
    /// `cfg.tenant_series`; later tenants share the `other` bucket.
    tenants: Mutex<BTreeSet<String>>,
    /// Per-request flight recorder: bounded ring of completed request
    /// records, served by the metrics endpoint under `/debug/*`.
    flight: Arc<FlightRecorder>,
    /// Histogram handles resolved once at startup — the request path
    /// records 8+ histogram samples, and a by-name registry lookup per
    /// sample is measurable at microsecond request latencies.
    phase_hists: [Arc<dm_obs::LogHistogram>; Phase::COUNT],
    latency_hist: Arc<dm_obs::LogHistogram>,
}

/// Everything the request path threads through its phases: the record
/// under construction, the span scratch (phase spans batch into one
/// buffer-lock at request end), and the request's root span handle that
/// phase spans parent under.
struct ReqCtx {
    rec: RequestRecord,
    spans: trace::LocalSpans,
    root: Option<trace::SpanHandle>,
}

/// Allocator of disjoint spill-pool matrix-id namespaces for concurrent
/// executors sharing one pool (see [`Executor::with_spill_pool`]: ranges
/// **must never** alias). Each slot owns the 2^32-id range
/// `slot << 32 ..`, and slots return to a free list when their request
/// finishes, so a long-lived server reuses the handful of slots its
/// concurrency actually needs instead of marching a counter into wrap-
/// around after 2^32 requests. Reuse is safe: blocked kernels write every
/// panel they later read and discard their stores when done, so a slot's
/// keys are dead by the time it is released.
struct SpillSlots {
    free: Mutex<Vec<u64>>,
    next: AtomicU64,
}

impl SpillSlots {
    fn new() -> Self {
        SpillSlots { free: Mutex::new(Vec::new()), next: AtomicU64::new(0) }
    }

    /// Claim a slot; its id range is `slot << 32 .. (slot + 1) << 32`.
    fn acquire(&self) -> u64 {
        if let Some(slot) = self.free.lock().expect("slots poisoned").pop() {
            return slot;
        }
        let slot = self.next.fetch_add(1, Ordering::Relaxed);
        // Fresh slots are minted only up to peak concurrency (workers +
        // batch followers), which is nowhere near 2^32; the shift below
        // would silently alias ranges if that ever stopped being true.
        assert!(slot < u32::MAX as u64, "spill slot allocator exhausted");
        slot
    }

    fn release(&self, slot: u64) {
        self.free.lock().expect("slots poisoned").push(slot);
    }
}

/// RAII claim on a [`SpillSlots`] slot: releases on drop so error paths
/// and panics in kernel code still return the namespace to the free list.
struct SlotGuard<'a> {
    slots: &'a SpillSlots,
    slot: u64,
}

impl<'a> SlotGuard<'a> {
    fn acquire(slots: &'a SpillSlots) -> Self {
        let slot = slots.acquire();
        SlotGuard { slots, slot }
    }

    /// First matrix id of this slot's disjoint range.
    fn first_matrix_id(&self) -> u64 {
        self.slot << 32
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.slots.release(self.slot);
    }
}

/// The multi-tenant scoring server. Construct with [`start`](Self::start);
/// dropping it (or calling [`shutdown`](Self::shutdown)) stops the accept
/// loop, drains in-flight connections, and persists the kernel profile
/// store when `DMML_PROFILE_DIR` is set.
pub struct ScoringServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ScoringServer {
    /// Bind the configured address and start serving in the background.
    pub fn start(cfg: ServeConfig, registry: Arc<StatsRegistry>) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        // One bounded spill pool for every blocked kernel in the process,
        // sized off the shared budget. Unbounded budget ⇒ nothing is ever
        // planned blocked ⇒ no pool needed.
        let spill = cfg.budget.get().map(|budget| {
            let dir = std::env::temp_dir().join(format!("dmml_serve_spill_{}", std::process::id()));
            let storage: Box<dyn Storage> = match FileStore::new(dir) {
                Ok(fs) => Box::new(fs),
                Err(_) => Box::<MemStore>::default(),
            };
            SharedBufferPool::new(BufferPool::new(
                dm_lang::memory::spill_pool_capacity(budget),
                PolicyKind::Lru,
                storage,
            ))
        });
        // Seed the cost model from DMML_PROFILE_DIR when present so the
        // first compiles already use calibrated crossovers.
        let model = CostModel::from_env().unwrap_or_else(|| CostModel::new(ProfileStore::new()));
        // The flight recorder needs spans to exist to retain them, so
        // tracing is always on in a server process. The trace ring is
        // bounded (DMML_TRACE_MAX_EVENTS) and every completed request
        // drains its own events out of it, so steady-state occupancy is
        // just the requests currently in flight.
        trace::set_enabled(true);
        let shared = Arc::new(Shared {
            flight: Arc::new(FlightRecorder::new(cfg.flight_capacity, cfg.slow_threshold)),
            phase_hists: Phase::ALL.map(|p| registry.histogram(p.site())),
            latency_hist: registry.histogram("serve.latency_ns"),
            ledger: Arc::new(SessionLedger::new(cfg.budget.get().unwrap_or(usize::MAX))),
            cache: Mutex::new(PlanCache::new(cfg.plan_cache)),
            profiles: Mutex::new(ProfileStore::new()),
            batcher: Batcher::new(cfg.batch_deadline, cfg.batch_max),
            registry,
            spill,
            model,
            spill_slots: SpillSlots::new(),
            tenants: Mutex::new(BTreeSet::new()),
            cfg,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, &shared, &stop))?
        };
        Ok(ScoringServer { addr, stop, accept: Some(accept), shared })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The banner line binaries print so scripts (`loadgen.py`) can
    /// discover the ephemeral port.
    pub fn banner(&self) -> String {
        format!("scoring listening on {}", self.addr)
    }

    /// The shared stats registry (for mounting a
    /// [`MetricsServer`](dm_obs::serve::MetricsServer) or asserting in
    /// tests).
    pub fn registry(&self) -> &Arc<StatsRegistry> {
        &self.shared.registry
    }

    /// The per-request flight recorder, for mounting on a
    /// [`MetricsServer`](dm_obs::serve::MetricsServer) (`/debug/*`) or
    /// asserting in tests.
    pub fn flight(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.flight)
    }

    /// Plan-cache counters: `(hits, misses, evictions)`.
    pub fn plan_cache_stats(&self) -> (u64, u64, u64) {
        let c = self.shared.cache.lock().expect("cache poisoned");
        (c.hits(), c.misses(), c.evictions())
    }

    /// The shared admission ledger.
    pub fn ledger(&self) -> &Arc<SessionLedger> {
        &self.shared.ledger
    }

    /// Stop accepting, drain workers, and persist profiles. Idempotent;
    /// also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(handle) = self.accept.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
        // Profile-store lifecycle: merge this process's kernel throughput
        // samples into DMML_PROFILE_DIR so the next start's cost model is
        // calibrated by real serving traffic.
        if let Some(dir) = dm_obs::profile::env_profile_dir() {
            let ps = self.shared.profiles.lock().expect("profiles poisoned");
            if !ps.is_empty() {
                if let Err(e) = ps.save(&dir) {
                    eprintln!("DMML_PROFILE_DIR save failed: {e}");
                }
            }
        }
    }
}

impl Drop for ScoringServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, stop: &Arc<AtomicBool>) {
    let pool = WorkerPool::new(shared.cfg.workers, "serve");
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                // Transient errors (ECONNABORTED on a reset handshake,
                // EMFILE/ENFILE under fd pressure) must not kill the accept
                // thread while the process looks healthy: log, back off a
                // beat so fd exhaustion doesn't spin, and keep accepting.
                // Only the stop flag ends the loop.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                shared.registry.add("serve.accept.errors", 1);
                eprintln!("serve: accept error (retrying): {e}");
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let (shared, stop) = (Arc::clone(shared), Arc::clone(stop));
        pool.submit(move || handle_connection(stream, &shared, &stop));
    }
    // WorkerPool drop drains connections already handed to workers.
}

/// How long an idle or wedged client may hold a worker: idle between
/// frames, stalled inside one, or not reading its response.
const STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// How often a connection idle between frames checks the stop flag, which
/// bounds how long shutdown waits on it.
const IDLE_POLL: Duration = Duration::from_millis(50);

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(STALL_TIMEOUT));
    // Scoring responses must not sit in Nagle's buffer waiting for ACKs.
    let _ = stream.set_nodelay(true);
    loop {
        let mut conn = Patient { stream: &stream, stop, between_frames: true };
        let Ok(Some(raw)) = read_frame(&mut conn) else { break };
        if serve_frame(shared, &mut stream, &raw).is_err() {
            break;
        }
    }
}

/// A connection's reads as [`read_frame`] sees them. Each socket read waits
/// at most `IDLE_POLL`, and a read retries until a byte arrives or
/// `STALL_TIMEOUT` passes without one. Between frames a stopping server
/// reads as the client hanging up, so shutdown never waits on an idle
/// client; inside a frame the stall timeout holds.
struct Patient<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
    between_frames: bool,
}

impl Read for Patient<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let since = Instant::now();
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
                        && since.elapsed() < STALL_TIMEOUT =>
                {
                    if self.between_frames && self.stop.load(Ordering::SeqCst) {
                        return Ok(0);
                    }
                }
                Ok(n) => {
                    self.between_frames = false;
                    return Ok(n);
                }
                err => return err,
            }
        }
    }
}

/// Run `f` as phase `p` of the request: its wall time accumulates into the
/// record's phase slot and a `serve.phase.<name>` span lands in the
/// request's trace. The span is batched in the context's scratch (one
/// buffer lock per request, not per phase) and its own clock reads supply
/// the phase duration.
fn time_phase<T>(ctx: &mut ReqCtx, p: Phase, f: impl FnOnce() -> T) -> T {
    let pending = ctx.spans.begin(ctx.root, p.site(), "serve");
    let t0 = if pending.is_none() { Some(Instant::now()) } else { None };
    let out = f();
    let ns = match pending {
        Some(pd) => ctx.spans.end(pd),
        None => t0.expect("timer set when span inert").elapsed().as_nanos() as u64,
    };
    ctx.rec.phase_ns[p.index()] += ns;
    out
}

/// Serve one framed request end to end: assign its id, open its root span,
/// handle it, encode + write the response (rid included), and deposit the
/// completed [`RequestRecord`] — phase breakdown, byte counts, and its
/// extracted span tree — into the flight recorder. The returned error is
/// the socket write failing (connection torn down); the request is recorded
/// either way, so even a request whose client vanished stays diagnosable.
fn serve_frame(shared: &Arc<Shared>, stream: &mut TcpStream, raw: &[u8]) -> io::Result<()> {
    let started = Instant::now();
    let reg = shared.registry.as_ref();
    let rid = shared.flight.next_id();
    let mut ctx =
        ReqCtx { rec: RequestRecord::new(rid, ""), spans: trace::LocalSpans::new(), root: None };
    ctx.rec.bytes_in = raw.len() as u64;
    // The response goes back in the layout the request came in, so a client
    // that only speaks JSON text never meets a slab.
    let layout = Layout::of(raw);
    ctx.rec.layout = layout.name();
    let write_res;
    {
        // Root span of this request's trace. A root gets its trace id from
        // the process-wide counter in `dm_obs::trace`, so the whole tree —
        // including spans opened by the executor and instants from leaf
        // crates on this thread — is extractable when the request completes
        // without touching any other request's events. The rid cannot be
        // the trace id: rids are dense per server, and two servers in one
        // process (tests, embedded use) share the trace buffers.
        let mut root = trace::Span::child_of(None, "serve.request", "serve");
        root.arg("rid", rid);
        ctx.root = root.handle();
        let resp = handle_request(shared, raw, &mut ctx);
        // `serve.latency_ns` keeps its pre-flight-recorder boundaries —
        // decode through scoring, excluding response encode and the socket
        // write — so dashboards and E17 stay comparable across versions.
        // The record's `total_ns` below is the full end-to-end time.
        let handling_ns = started.elapsed().as_nanos() as u64;
        shared.latency_hist.record(handling_ns);
        if !ctx.rec.tenant.is_empty() {
            reg.record_histogram(
                &format!("serve.tenant.{}.latency_ns", tenant_series(shared, &ctx.rec.tenant)),
                handling_ns,
            );
        }
        if let Response::Error { error } = &resp {
            ctx.rec.error = Some(error.clone());
        }
        root.arg("tenant", ctx.rec.tenant.clone());
        let frame = time_phase(&mut ctx, Phase::Encode, || response_frame(&resp, rid, layout));
        ctx.rec.bytes_out = (frame.len() - FRAME_PREFIX_BYTES) as u64;
        // The frame write counts as encode time too: a response stuck in a
        // slow client's socket shows up attributed, not as mystery gap.
        let t0 = Instant::now();
        write_res = write_frame(stream, &frame);
        ctx.rec.phase_ns[Phase::Encode.index()] += t0.elapsed().as_nanos() as u64;
    }
    let ReqCtx { mut rec, mut spans, root } = ctx;
    spans.flush();
    rec.total_ns = started.elapsed().as_nanos() as u64;
    for p in Phase::ALL {
        let ns = rec.phase_ns[p.index()];
        if ns > 0 {
            shared.phase_hists[p.index()].record(ns);
        }
    }
    trace::record_dropped(reg);
    // The root span has dropped and the phase batch is flushed, so the full
    // tree is in the buffers; drain this request's slice into its record
    // (keeping the global ring lean).
    if let Some(root) = root {
        rec.events = trace::extract_trace(root.trace);
    }
    shared.flight.record(rec);
    write_res
}

fn valid_tenant(t: &str) -> bool {
    !t.is_empty()
        && t.len() <= 64
        && t.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

fn handle_request(shared: &Arc<Shared>, raw: &[u8], ctx: &mut ReqCtx) -> Response {
    let reg = shared.registry.as_ref();
    reg.add("serve.requests", 1);
    let req = match time_phase(ctx, Phase::Decode, || decode_request_frame(raw)) {
        Ok(r) => r,
        Err(e) => {
            reg.add("serve.errors", 1);
            return Response::Error { error: format!("bad request: {e}") };
        }
    };
    if !valid_tenant(&req.tenant) {
        reg.add("serve.errors", 1);
        return Response::Error { error: "invalid tenant name".to_owned() };
    }
    ctx.rec.tenant = req.tenant.clone();
    let resp = match req.cmd {
        Cmd::Ping => Response::Pong,
        Cmd::Score => handle_score(shared, req, ctx),
    };
    if matches!(resp, Response::Error { .. }) {
        reg.add("serve.errors", 1);
    }
    resp
}

/// The metric label a tenant's latency records under. The first
/// `cfg.tenant_series` distinct tenants get their own series; anyone past
/// the cap shares `other`, so a client minting fresh 64-char tenant names
/// cannot grow the never-evicting registry (and `/metrics` output)
/// without bound.
fn tenant_series<'a>(shared: &Arc<Shared>, tenant: &'a str) -> &'a str {
    let mut tracked = shared.tenants.lock().expect("tenants poisoned");
    if admit_tenant_series(&mut tracked, shared.cfg.tenant_series, tenant) {
        tenant
    } else {
        shared.registry.add("serve.tenant_overflow", 1);
        "other"
    }
}

/// Whether `tenant` gets (or already has) its own metric series under the
/// cardinality cap; `false` means it records under the `other` bucket.
fn admit_tenant_series(tracked: &mut BTreeSet<String>, cap: usize, tenant: &str) -> bool {
    if tracked.contains(tenant) {
        return true;
    }
    if tracked.len() < cap {
        tracked.insert(tenant.to_owned());
        return true;
    }
    false
}

/// Measure a bound input's non-zero fraction for the sparsity bucket.
fn measured_sparsity(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    data.iter().filter(|v| **v != 0.0).count() as f64 / data.len() as f64
}

fn handle_score(shared: &Arc<Shared>, mut req: Request, ctx: &mut ReqCtx) -> Response {
    let reg = shared.registry.as_ref();
    // Plan-cache lookup phase: classify the bound inputs, parse for the
    // structural hash (cheap, linear in the text), and probe the LRU —
    // everything a request pays whether it hits or misses.
    let mut sizes = InputSizes::new();
    let lookup = time_phase(ctx, Phase::CacheLookup, || {
        let mut classes = Vec::with_capacity(req.inputs.len());
        for (name, v) in &req.inputs {
            match v {
                InputValue::Matrix { rows, cols, data } => {
                    let sp = measured_sparsity(data);
                    sizes.declare(name, *rows, *cols, sp);
                    classes.push(InputClass::new(name, *rows, *cols, sp));
                }
                InputValue::Scalar(_) => {
                    sizes.declare_scalar(name);
                    // Sentinel classes keep a scalar binding from colliding
                    // with a 1x1 matrix binding of the same name.
                    classes.push(InputClass {
                        name: name.clone(),
                        rows_class: u32::MAX,
                        cols_class: u32::MAX,
                        sparsity: 0,
                    });
                }
            }
        }
        let (raw_graph, raw_root) = match parser::parse(&req.program) {
            Ok(p) => p,
            Err(e) => return Err(format!("parse error: {e}")),
        };
        let key = PlanKey::new(program_hash(&raw_graph, raw_root), classes);
        let cached = probe_cache(shared, &key);
        Ok((key, cached))
    });
    let (key, cached) = match lookup {
        Ok(k) => k,
        Err(error) => return Response::Error { error },
    };

    let (prog, cache_hit) = match cached {
        Some(p) => (p, true),
        None => {
            let compiled = time_phase(ctx, Phase::Compile, || {
                compile(&req.program, &sizes, shared.cfg.degree, shared.cfg.budget, &shared.model)
                    .map(Arc::new)
            });
            let compiled = match compiled {
                Ok(c) => c,
                Err(e) => return Response::Error { error: e.to_string() },
            };
            insert_cache(shared, key.clone(), Arc::clone(&compiled));
            (compiled, false)
        }
    };
    ctx.rec.plan_key = key.to_string();
    ctx.rec.cache_hit = cache_hit;
    ctx.rec.kernel_summary = prog.kernel_summary();
    ctx.rec.est_cost_ns = prog.est_cost_ns;
    ctx.rec.certified_peak = prog.certified_peak().unwrap_or(0) as u64;

    // Admission phase: charge the certified peak against the shared ledger.
    // Queue when it does not fit; oversized plans (already degraded to
    // blocked kernels) run alone. Time spent here is queueing behind other
    // tenants' in-flight work — the classic noisy-neighbor signature.
    let peak = prog.certified_peak().unwrap_or(0);
    let _admission =
        time_phase(ctx, Phase::Admission, || match shared.ledger.try_admit(&req.tenant, peak) {
            Some(g) => g,
            None => {
                reg.add("serve.admission.queued", 1);
                reg.gauge_set("serve.admission.waiting", shared.ledger.waiting() as u64 + 1);
                shared.ledger.admit(&req.tenant, peak)
            }
        });
    reg.gauge_set("serve.admission.waiting", shared.ledger.waiting() as u64);
    reg.gauge_set("serve.admission.in_flight_bytes", shared.ledger.in_flight_bytes() as u64);

    let (result, batched) = match try_batched(shared, &mut req, &prog, &key, ctx) {
        Some(r) => r,
        None => {
            let out =
                time_phase(ctx, Phase::Execute, || execute(shared, &prog, build_env(req.inputs)));
            match out {
                Ok(v) => (val_to_result(v), false),
                Err(e) => return Response::Error { error: e },
            }
        }
    };
    ctx.rec.batched = batched;
    record_cost_drift(reg, &ctx.rec, &prog);
    match result {
        Ok(result) => {
            Response::Score { result, cache_hit, batched, blocked_nodes: prog.blocked_nodes }
        }
        Err(e) => Response::Error { error: e },
    }
}

/// Compare this request's observed execute time against the plan's
/// compile-time calibrated estimate. Beyond [`DRIFT_FACTOR`] in either
/// direction counts as cost-model drift: bump `serve.cost_model.drift` and
/// drop an instant into the request's trace. The kernel-profile samples the
/// executor already feeds into the shared [`ProfileStore`] are what
/// re-calibrate the model (and drive the analyzer's H204 staleness hint) —
/// this counter is the per-request, per-plan-cache-entry visibility of the
/// same gap. Skipped for followers (their execute ns is the leader's) and
/// unpriced plans.
fn record_cost_drift(reg: &StatsRegistry, rec: &RequestRecord, prog: &CompiledProgram) {
    let exec_ns = rec.phase_ns[Phase::Execute.index()];
    if exec_ns == 0 || prog.est_cost_ns == 0 {
        return;
    }
    let ratio = exec_ns as f64 / prog.est_cost_ns as f64;
    if !(1.0 / DRIFT_FACTOR..=DRIFT_FACTOR).contains(&ratio) {
        reg.add("serve.cost_model.drift", 1);
        trace::instant(
            "serve.cost_drift",
            &[
                ("plan", rec.plan_key.clone().into()),
                ("est_ns", prog.est_cost_ns.into()),
                ("observed_ns", exec_ns.into()),
            ],
        );
    }
}

fn probe_cache(shared: &Arc<Shared>, key: &PlanKey) -> Option<Arc<CompiledProgram>> {
    let mut cache = shared.cache.lock().expect("cache poisoned");
    let hit = cache.get(key);
    let reg = shared.registry.as_ref();
    reg.add(if hit.is_some() { "serve.plan_cache.hit" } else { "serve.plan_cache.miss" }, 1);
    reg.gauge_set("serve.plan_cache.size", cache.len() as u64);
    hit
}

fn insert_cache(shared: &Arc<Shared>, key: PlanKey, prog: Arc<CompiledProgram>) {
    let mut cache = shared.cache.lock().expect("cache poisoned");
    let before = cache.evictions();
    cache.insert(key, prog);
    let evicted = cache.evictions() - before;
    let reg = shared.registry.as_ref();
    if evicted > 0 {
        reg.add("serve.plan_cache.evictions", evicted);
    }
    reg.gauge_set("serve.plan_cache.size", cache.len() as u64);
}

/// Bind a request's inputs, moving each matrix's values into the
/// environment: a decoded request is consumed by its execution, never copied.
fn build_env(inputs: Vec<(String, InputValue)>) -> Env {
    let mut env = Env::new();
    for (name, v) in inputs {
        match v {
            InputValue::Matrix { rows, cols, data } => {
                let d = Dense::from_vec(rows, cols, data).expect("length validated at decode");
                env.bind(&name, Matrix::Dense(d));
            }
            InputValue::Scalar(x) => {
                env.bind_scalar(&name, x);
            }
        }
    }
    env
}

/// Run the compiled plan against `env` with the shared resources: a fresh
/// executor per request (hit and miss paths identical by construction),
/// stats into the shared registry, kernel profiles into the shared store,
/// and — when a budget is set — the process-wide spill pool with a
/// per-request matrix-id range so concurrent blocked kernels cannot alias
/// pages.
fn execute(shared: &Arc<Shared>, prog: &CompiledProgram, env: Env) -> Result<Val, String> {
    // `.traced()`: per-node `exec.<op>` spans (kernel, dims, flops) nest
    // under the request's execute-phase span, so `/debug/trace?id=` shows
    // which kernel the time went to.
    let mut ex =
        Executor::with_plan(&prog.graph, prog.plan.clone()).without_env_sinks().profiled().traced();
    // Held for the whole execution: the guard's id range is this request's
    // private spill namespace, returned to the free list on drop.
    let _slot = match &shared.spill {
        Some(pool) => {
            let guard = SlotGuard::acquire(&shared.spill_slots);
            ex = ex.with_spill_pool(pool.clone(), guard.first_matrix_id());
            Some(guard)
        }
        None => None,
    };
    let out = ex.eval(prog.root, &env).map_err(|e| e.to_string())?;
    ex.record_stats(shared.registry.as_ref());
    let mut profiles = shared.profiles.lock().expect("profiles poisoned");
    ex.record_kernel_profiles(&mut profiles);
    Ok(out)
}

/// Take a result matrix out of its `Arc`. The executor that shared it is
/// gone by now, so a dense result moves out without a copy.
fn into_dense(m: Arc<Matrix>) -> Dense {
    match Arc::unwrap_or_clone(m) {
        Matrix::Dense(d) => d,
        Matrix::Sparse(s) => s.to_dense(),
    }
}

fn val_to_result(v: Val) -> Result<ScoreResult, String> {
    Ok(match v {
        Val::Scalar(s) => ScoreResult::Scalar(s),
        Val::Matrix(m) => {
            let d = into_dense(m);
            let (rows, cols) = d.shape();
            ScoreResult::Matrix { rows, cols, data: d.into_vec() }
        }
    })
}

/// The batched input of an eligible program: the root is
/// `MatMul(_, Input(v))` and `v` is referenced exactly once (so stacking
/// its columns affects nothing else). Plans with blocked kernels are
/// excluded — batching multiplies the root's working set by the group
/// size, which the admission charge did not cover.
fn batchable_input(prog: &CompiledProgram) -> Option<String> {
    if prog.blocked_nodes > 0 {
        return None;
    }
    let Op::MatMul(_, rhs) = prog.graph.op(prog.root) else { return None };
    let Op::Input(name) = prog.graph.op(*rhs) else { return None };
    let uses: usize = prog
        .graph
        .reachable(prog.root)
        .iter()
        .map(|&id| prog.graph.op(id).children().iter().filter(|&&c| c == *rhs).count())
        .sum();
    (uses == 1).then(|| name.clone())
}

/// FNV-1a over the group guard bytes (the batcher verifies the full bytes
/// on join, so a collision only costs a solo execution).
fn guard_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Attempt the micro-batched path. `None` means "not eligible — execute
/// individually"; `Some((result, batched))` is a finished outcome.
///
/// Phase attribution: a follower's wait on the leader counts as
/// [`Phase::BatchWait`] even though it *contains* the leader's execution of
/// the fused gemm — from the follower's seat that time is indistinguishable
/// from waiting, and the leader's own record carries the execute time. The
/// leader's deadline wait ([`Batcher::collect`]) is its batch-wait.
#[allow(clippy::type_complexity)]
fn try_batched(
    shared: &Arc<Shared>,
    req: &mut Request,
    prog: &Arc<CompiledProgram>,
    key: &PlanKey,
    ctx: &mut ReqCtx,
) -> Option<(Result<ScoreResult, String>, bool)> {
    if !req.batch || !shared.batcher.enabled() {
        return None;
    }
    let bname = batchable_input(prog)?;
    // The batched input must be bound as a column vector.
    let (_, InputValue::Matrix { rows, cols: 1, data }) =
        req.inputs.iter().find(|(n, _)| *n == bname)?
    else {
        return None;
    };
    if *rows == 0 {
        return None;
    }
    // Guard bytes: plan identity + every shared (non-batch) input,
    // bit-exact. Only requests whose entire context matches may share a
    // gemm.
    let mut guard = Vec::new();
    guard.extend_from_slice(format!("{key}").as_bytes());
    guard.push(0);
    guard.extend_from_slice(bname.as_bytes());
    guard.extend_from_slice(&rows.to_le_bytes());
    let mut rest: Vec<&(String, InputValue)> =
        req.inputs.iter().filter(|(n, _)| *n != bname).collect();
    rest.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, v) in rest {
        guard.push(0xfe);
        guard.extend_from_slice(name.as_bytes());
        guard.push(0);
        match v {
            InputValue::Matrix { rows, cols, data } => {
                guard.extend_from_slice(&rows.to_le_bytes());
                guard.extend_from_slice(&cols.to_le_bytes());
                for x in data {
                    guard.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            InputValue::Scalar(x) => {
                guard.extend_from_slice(&[0xfd]);
                guard.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
    }
    let gkey = guard_hash(&guard);
    let m = *rows;
    let reg = shared.registry.as_ref();
    let joined = shared.batcher.join(gkey, &guard, data.clone());
    // Committed to the batched path: whichever role this request got, its
    // inputs move into the one environment built below and nothing reads
    // them afterwards (the batched column travels separately, above).
    let inputs = std::mem::take(&mut req.inputs);
    match joined {
        Joined::Solo(col) => {
            // Group was full or guarded against us: run the same column
            // individually.
            let out = time_phase(ctx, Phase::Execute, || {
                let mut env = build_env(inputs);
                env.bind(&bname, Matrix::Dense(Dense::from_vec(m, 1, col).expect("shape")));
                execute(shared, prog, env).and_then(val_to_result)
            });
            Some((out, false))
        }
        Joined::Follower(rx) => {
            let col = time_phase(ctx, Phase::BatchWait, || {
                rx.recv().map_err(|_| "batch leader died".to_owned()).and_then(|r| r)
            });
            Some((
                col.map(|c| {
                    let rows = c.len();
                    ScoreResult::Matrix { rows, cols: 1, data: c }
                }),
                true,
            ))
        }
        Joined::Leader(token, rx) => {
            // The deadline wait for followers is the leader's batch-wait.
            let job = time_phase(ctx, Phase::BatchWait, || shared.batcher.collect(token));
            let k = job.len();
            reg.add("serve.batch.flushes", 1);
            if k > 1 {
                reg.add("serve.batch.batched_requests", k as u64);
            }
            let outcome = time_phase(ctx, Phase::Execute, || {
                // Stack the k column vectors into one m x k input and run
                // the cached plan once.
                let mut stacked = vec![0.0; m * k];
                for (j, col) in job.columns.iter().enumerate() {
                    for (i, v) in col.iter().enumerate() {
                        stacked[i * k + j] = *v;
                    }
                }
                let mut env = build_env(inputs);
                env.bind(&bname, Matrix::Dense(Dense::from_vec(m, k, stacked).expect("shape")));
                execute(shared, prog, env).and_then(|v| {
                    let Val::Matrix(mat) = v else {
                        return Err("batched program did not yield a matrix".to_owned());
                    };
                    let d = into_dense(mat);
                    if d.cols() != k {
                        return Err(format!(
                            "batched result has {} columns, expected {k}",
                            d.cols()
                        ));
                    }
                    // Column j is participant j's result, bit-for-bit.
                    Ok((0..k)
                        .map(|j| (0..d.rows()).map(|i| d.data()[i * k + j]).collect::<Vec<f64>>())
                        .collect::<Vec<_>>())
                })
            });
            job.complete(outcome);
            let col = rx.recv().map_err(|_| "batch result lost".to_owned()).and_then(|r| r);
            Some((
                col.map(|c| {
                    let rows = c.len();
                    ScoreResult::Matrix { rows, cols: 1, data: c }
                }),
                k > 1,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_validation() {
        assert!(valid_tenant("acme-1_B"));
        assert!(!valid_tenant(""));
        assert!(!valid_tenant("has space"));
        assert!(!valid_tenant(&"x".repeat(65)));
    }

    #[test]
    fn config_from_env_defaults() {
        // No DMML_SERVE_* set in the test environment by default.
        let cfg = ServeConfig::for_tests();
        assert!(cfg.workers >= 1);
        assert!(cfg.plan_cache >= 1);
    }

    #[test]
    fn batchable_input_analysis() {
        let model = CostModel::new(ProfileStore::new());
        let mut sizes = InputSizes::new();
        sizes.declare("W", 4, 4, 1.0);
        sizes.declare("x", 4, 1, 1.0);
        let p = compile("W %*% x", &sizes, 1, MemoryBudget::unbounded(), &model).unwrap();
        assert_eq!(batchable_input(&p).as_deref(), Some("x"));

        // Root is not a matmul: not batchable.
        let p = compile("sum(W %*% x)", &sizes, 1, MemoryBudget::unbounded(), &model).unwrap();
        assert_eq!(batchable_input(&p), None);

        // The vector is used twice: stacking would change the other use.
        let mut sizes2 = InputSizes::new();
        sizes2.declare("W", 4, 4, 1.0);
        sizes2.declare("x", 4, 4, 1.0);
        let p = compile("(W %*% x) + x", &sizes2, 1, MemoryBudget::unbounded(), &model).unwrap();
        assert_eq!(batchable_input(&p), None);
    }

    #[test]
    fn solo_result_leaves_without_a_copy() {
        let server =
            ScoringServer::start(ServeConfig::for_tests(), Arc::new(StatsRegistry::new())).unwrap();
        let mut sizes = InputSizes::new();
        sizes.declare("W", 64, 8, 1.0);
        sizes.declare("x", 8, 1, 1.0);
        let model = &server.shared.model;
        let prog = compile("W %*% x", &sizes, 1, MemoryBudget::unbounded(), model).unwrap();
        let w = (0..512).map(f64::from).collect();
        let env = build_env(vec![
            ("W".to_owned(), InputValue::Matrix { rows: 64, cols: 8, data: w }),
            ("x".to_owned(), InputValue::Matrix { rows: 8, cols: 1, data: vec![1.0; 8] }),
        ]);
        let out = execute(&server.shared, &prog, env).unwrap();
        let Val::Matrix(m) = &out else { panic!("W %*% x is a matrix") };
        // The eval's value table is gone: the caller holds the only
        // reference, so the result's buffer is the response's buffer.
        assert_eq!(Arc::strong_count(m), 1);
        let Matrix::Dense(d) = &**m else { panic!("gemv yields a dense column") };
        let executor_ptr = d.data().as_ptr();
        let Ok(ScoreResult::Matrix { data, .. }) = val_to_result(out) else {
            panic!("matrix result")
        };
        assert_eq!(data.as_ptr(), executor_ptr);
        server.shutdown();
    }

    #[test]
    fn measured_sparsity_counts_nonzeros() {
        assert_eq!(measured_sparsity(&[0.0, 1.0, 0.0, 2.0]), 0.5);
        assert_eq!(measured_sparsity(&[]), 1.0);
    }

    #[test]
    fn tenant_series_cardinality_is_capped() {
        let mut tracked = BTreeSet::new();
        assert!(admit_tenant_series(&mut tracked, 2, "a"));
        assert!(admit_tenant_series(&mut tracked, 2, "b"));
        // Cap reached: a fresh tenant overflows to the shared bucket...
        assert!(!admit_tenant_series(&mut tracked, 2, "c"));
        // ...while already-tracked tenants keep their own series.
        assert!(admit_tenant_series(&mut tracked, 2, "a"));
        assert_eq!(tracked.len(), 2, "overflow tenants are not tracked");
    }

    #[test]
    fn spill_slots_reuse_released_ranges() {
        let slots = SpillSlots::new();
        let a = SlotGuard::acquire(&slots);
        let b = SlotGuard::acquire(&slots);
        let (ida, idb) = (a.first_matrix_id(), b.first_matrix_id());
        assert_ne!(ida, idb, "concurrent slots get disjoint ranges");
        assert_eq!(idb - ida, 1 << 32, "each slot owns a 2^32-id range");
        drop(a);
        // A released slot is reused instead of minting a fresh range, so
        // the namespace never marches toward wrap-around on a long-lived
        // server.
        let c = SlotGuard::acquire(&slots);
        assert_eq!(c.first_matrix_id(), ida);
        drop(b);
        drop(c);
        assert_eq!(slots.next.load(Ordering::Relaxed), 2, "only 2 slots ever minted");
    }
}
