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
//! 4. **batch** — eligible vector-scoring requests (`... %*% x`) may
//!    coalesce into one stacked product under the configured deadline (see
//!    [`crate::batch`]). This is decided before admission: a follower is
//!    never admitted and waits for its column; a leader plans the program
//!    again at the stacked size and goes on with that plan.
//! 5. **certify / admit** — the certified peak bytes of the plan the
//!    request runs are charged against the [`SessionLedger`]. Requests
//!    that do not fit next to in-flight work queue; requests certified over
//!    the whole budget were already planned with
//!    [`Kernel::Blocked`](dm_lang::physical::Kernel) kernels and are
//!    admitted to run alone, streaming through the shared spill pool
//!    instead of OOMing neighbors.
//! 6. **execute / respond** — a fresh [`Executor`] runs the admitted plan;
//!    stats and kernel profiles flow into the shared registry and profile
//!    store; the result frames back to the client bit-exactly, in the
//!    layout of the request.

use crate::batch::{Batcher, ColResult, GroupKey, Joined};
use crate::protocol::{
    read_frame_len, read_request_frame, write_response_frame, Cmd, InputValue, Received, Request,
    Response, ScoreResult, CHUNK_BYTES,
};
use dm_buffer::session::SessionLedger;
use dm_buffer::storage::Storage;
use dm_buffer::{PoolStats, SharedBufferPool};
use dm_lang::cache::{
    compile_graph, program_hash, CompileError, CompiledProgram, InputClass, PlanCache, PlanKey,
};
use dm_lang::cost::{drifted, CostModel};
use dm_lang::exec::{Env, Executor, Val};
use dm_lang::expr::Op;
use dm_lang::memory::MemoryBudget;
use dm_lang::parser;
use dm_lang::physical::PlanOptions;
use dm_lang::size::{InputSizes, SizeError};
use dm_matrix::{Dense, Matrix};
use dm_obs::flightrec::{FlightRecorder, Phase, RequestRecord};
use dm_obs::profile::ProfileStore;
use dm_obs::trace;
use dm_obs::StatsRegistry;
use dm_par::WorkerPool;
use std::collections::BTreeSet;
use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
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
    /// The process-wide spill pool; every request's executor runs its
    /// blocked kernels through an account of its own on it.
    spill: Option<SharedBufferPool<Box<dyn Storage>>>,
    batcher: Batcher,
    model: CostModel,
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
        let spill = cfg.budget.get().map(dm_lang::memory::spill_pool);
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

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(STALL_TIMEOUT));
    // Scoring responses must not sit in Nagle's buffer waiting for ACKs.
    let _ = stream.set_nodelay(true);
    // One socket read usually brings a small frame's prefix and payload
    // together; a slab's chunk-sized reads bypass the buffer.
    let mut conn = BufReader::with_capacity(
        CHUNK_BYTES,
        Patient { stream: &stream, stop, between_frames: true },
    );
    loop {
        conn.get_mut().between_frames = true;
        let Ok(Some(len)) = read_frame_len(&mut conn) else { break };
        if serve_frame(shared, &stream, &mut conn, len).is_err() {
            break;
        }
    }
}

/// A connection's reads as the frame reader sees them. Each socket read waits
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

/// Serve one framed request end to end, once its `len`-byte payload's
/// length prefix is in: assign its id, open its root span, receive and
/// decode the payload off `conn`, handle it, write the response (rid
/// included), and deposit the completed [`RequestRecord`] — phase
/// breakdown, byte counts, and its extracted span tree — into the flight
/// recorder. The returned error is the socket failing (connection torn
/// down), on either read or write; the request is recorded either way, so
/// even a request whose client vanished stays diagnosable.
fn serve_frame(
    shared: &Arc<Shared>,
    mut stream: &TcpStream,
    conn: &mut dyn Read,
    len: usize,
) -> io::Result<()> {
    // Receiving the payload is part of the request: the clock starts at
    // the length prefix, and the decode phase covers the receive.
    let started = Instant::now();
    let reg = shared.registry.as_ref();
    let rid = shared.flight.next_id();
    let mut ctx =
        ReqCtx { rec: RequestRecord::new(rid, ""), spans: trace::LocalSpans::new(), root: None };
    ctx.rec.bytes_in = len as u64;
    let io_res;
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
        reg.add("serve.requests", 1);
        let Received { layout, request } =
            time_phase(&mut ctx, Phase::Decode, || read_request_frame(conn, len));
        // A frame lost mid-receive is on record in its layout too.
        ctx.rec.layout = layout.name();
        io_res = match request {
            Ok(request) => {
                // The response goes back in the layout the request came in,
                // so a client that only speaks JSON text never meets a slab.
                let resp = handle_request(shared, request, &mut ctx);
                // `serve.latency_ns` runs from the length prefix through
                // scoring, excluding response encode and the socket write.
                // The record's `total_ns` below is the full end-to-end time.
                let handling_ns = started.elapsed().as_nanos() as u64;
                shared.latency_hist.record(handling_ns);
                if !ctx.rec.tenant.is_empty() {
                    let series = tenant_series(shared, &ctx.rec.tenant);
                    reg.record_histogram(&format!("serve.tenant.{series}.latency_ns"), handling_ns);
                }
                if let Response::Error { error } = &resp {
                    ctx.rec.error = Some(error.clone());
                }
                root.arg("tenant", ctx.rec.tenant.clone());
                // The frame write counts as encode time too: a response stuck
                // in a slow client's socket shows up attributed, not as
                // mystery gap.
                time_phase(&mut ctx, Phase::Encode, || {
                    write_response_frame(&mut stream, &resp, rid, layout)
                })
                .map(|written| ctx.rec.bytes_out = written as u64)
            }
            Err(e) => {
                reg.add("serve.errors", 1);
                ctx.rec.error = Some(format!("recv: {e}"));
                Err(e)
            }
        };
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
    io_res
}

fn valid_tenant(t: &str) -> bool {
    !t.is_empty()
        && t.len() <= 64
        && t.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// Answer a received request, or the reason its payload is not one.
fn handle_request(
    shared: &Arc<Shared>,
    request: Result<(Request, Vec<usize>), String>,
    ctx: &mut ReqCtx,
) -> Response {
    let reg = shared.registry.as_ref();
    let (req, nnz) = match request {
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
        Cmd::Score => handle_score(shared, req, &nnz, ctx),
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

/// `nnz` is each input's non-zero count, taken while the frame was decoded
/// (see [`Received`]): the sparsity buckets of the plan key and the
/// executor's input profile read it instead of scanning the values again.
fn handle_score(
    shared: &Arc<Shared>,
    mut req: Request,
    nnz: &[usize],
    ctx: &mut ReqCtx,
) -> Response {
    let reg = shared.registry.as_ref();
    // Plan-cache lookup phase: classify the bound inputs, parse for the
    // structural hash (cheap, linear in the text), probe the LRU and print
    // the key for the record — everything a request pays whether it hits
    // or misses. A miss compiles from this parse.
    let mut sizes = InputSizes::new();
    let lookup = time_phase(ctx, Phase::CacheLookup, || {
        let mut classes = Vec::with_capacity(req.inputs.len());
        for ((name, v), &nnz) in req.inputs.iter().zip(nnz) {
            match v {
                InputValue::Matrix { rows, cols, data } => {
                    // An empty matrix declares dense, as it always has.
                    let sp = if data.is_empty() { 1.0 } else { nnz as f64 / data.len() as f64 };
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
            Err(e) => return Err(format!("bad request: {e}")),
        };
        let key = PlanKey::new(program_hash(&raw_graph, raw_root), classes);
        let cached = probe_cache(shared, &key);
        Ok((key.to_string(), key, cached, raw_graph, raw_root))
    });
    let (key_text, key, cached, raw_graph, raw_root) = match lookup {
        Ok(k) => k,
        Err(error) => return Response::Error { error },
    };

    let (mut prog, cache_hit) = match cached {
        Some(p) => (p, true),
        None => {
            let compiled = time_phase(ctx, Phase::Compile, || {
                let (degree, budget) = (shared.cfg.degree, shared.cfg.budget);
                compile_graph(&raw_graph, raw_root, &sizes, degree, budget, &shared.model)
                    .map(Arc::new)
            });
            let compiled = match compiled {
                Ok(c) => c,
                Err(e) => return Response::Error { error: CompileError::Size(e).to_string() },
            };
            insert_cache(shared, key.clone(), Arc::clone(&compiled));
            (compiled, false)
        }
    };
    ctx.rec.plan_key = key_text;
    ctx.rec.cache_hit = cache_hit;

    // Batching is decided before admission (see `crate::batch`). A follower
    // is never admitted: it waits for its column of the leader's product,
    // which contains the leader's execution. A leader plans the program
    // again at the stacked size and runs that plan below like a solo one.
    let (mut env, mut group) = (None, None);
    if let Some((name, column, nnz)) = batch_column(shared, &prog, &mut req, nnz) {
        let gkey = group_key(&key, column.len(), &req.inputs, &nnz);
        let inputs = std::mem::take(&mut req.inputs);
        match shared.batcher.join(gkey, build_env(inputs, &nnz), column) {
            Joined::Follower(rx) => {
                let col = time_phase(ctx, Phase::BatchWait, || received(&rx, "leader died"));
                ctx.rec.batched = true;
                return scored(col, cache_hit, true, prog.blocked_nodes);
            }
            Joined::Leader(token, rx) => {
                let mut job = time_phase(ctx, Phase::BatchWait, || shared.batcher.collect(token));
                let k = job.columns.len();
                reg.add("serve.batch.flushes", 1);
                if k > 1 {
                    reg.add("serve.batch.batched_requests", k as u64);
                }
                let (stacked, stacked_nnz) = stack(&job.columns);
                let planned = time_phase(ctx, Phase::Compile, || {
                    replan(shared, &prog, &mut sizes, &name, &stacked, stacked_nnz)
                });
                // A plan cached for this size class need not fit this
                // request's exact sizes: then neither does the group's.
                prog = match planned {
                    Ok(p) => Arc::new(p),
                    Err(e) => {
                        let error = CompileError::Size(e).to_string();
                        job.complete(Err(error.clone()));
                        return Response::Error { error };
                    }
                };
                let mut stacked_env = std::mem::take(&mut job.env);
                stacked_env.bind_counted(&name, Matrix::Dense(stacked), stacked_nnz);
                env = Some(stacked_env);
                group = Some((job, rx));
            }
        }
    }
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

    let (out, traffic) = time_phase(ctx, Phase::Execute, || {
        execute(shared, &prog, env.unwrap_or_else(|| build_env(req.inputs, nnz)))
    });
    // A leader's record carries the group's traffic, as its execute phase
    // carries the group's time.
    note_spill(&mut ctx.rec, traffic);
    if out.is_ok() {
        record_cost_drift(reg, &ctx.rec, &prog);
    }
    let result = match group {
        None => out.and_then(val_to_result),
        Some((job, rx)) => {
            let k = job.columns.len();
            ctx.rec.batched = k > 1;
            job.complete(out.and_then(|v| split(v, k)));
            received(&rx, "result lost")
        }
    };
    scored(result, cache_hit, ctx.rec.batched, prog.blocked_nodes)
}

/// A scoring request's response: its result, or why there is none.
fn scored(
    result: Result<ScoreResult, String>,
    cache_hit: bool,
    batched: bool,
    blocked_nodes: usize,
) -> Response {
    match result {
        Ok(result) => Response::Score { result, cache_hit, batched, blocked_nodes },
        Err(error) => Response::Error { error },
    }
}

/// Compare this request's observed execute time against the plan's
/// compile-time calibrated estimate. When it [`drifted`] off the estimate,
/// count cost-model drift: bump `serve.cost_model.drift` and
/// drop an instant into the request's trace. The kernel-profile samples the
/// executor already feeds into the shared [`ProfileStore`] are what
/// re-calibrate the model (and drive the analyzer's H204 staleness hint) —
/// this counter is the per-request, per-plan-cache-entry visibility of the
/// same gap. Skipped for followers (their execute ns is the leader's) and
/// unpriced plans.
fn record_cost_drift(reg: &StatsRegistry, rec: &RequestRecord, prog: &CompiledProgram) {
    let exec_ns = rec.phase_ns[Phase::Execute.index()];
    if drifted(prog.est_cost_ns.into(), exec_ns.into()) {
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
/// Each matrix carries its decode-time non-zero count from `nnz`.
fn build_env(inputs: Vec<(String, InputValue)>, nnz: &[usize]) -> Env {
    let mut env = Env::new();
    for ((name, v), &nnz) in inputs.into_iter().zip(nnz) {
        match v {
            InputValue::Matrix { rows, cols, data } => {
                let d = Dense::from_vec(rows, cols, data).expect("length validated at decode");
                env.bind_counted(&name, Matrix::Dense(d), nnz);
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
/// and — when a budget is set — the process-wide spill pool, which names
/// every request's block stores itself so concurrent blocked kernels cannot
/// alias pages. The executor runs through its own account on that pool and
/// publishes it with its stats after the eval, failed or not, so the
/// registry's `lang.exec.ooc.*` counters equal the pool's totals once no
/// request is in flight. The account comes back with the result, for the
/// request's record.
fn execute(
    shared: &Arc<Shared>,
    prog: &CompiledProgram,
    env: Env,
) -> (Result<Val, String>, PoolStats) {
    // `.traced()`: per-node `exec.<op>` spans (kernel, dims, flops) nest
    // under the request's execute-phase span, so `/debug/trace?id=` shows
    // which kernel the time went to.
    let mut ex =
        Executor::with_plan(&prog.graph, prog.plan.clone()).without_env_sinks().profiled().traced();
    if let Some(pool) = &shared.spill {
        ex = ex.with_spill_pool(pool.clone());
    }
    let out = ex.eval(prog.root, &env).map_err(|e| e.to_string());
    ex.record_stats(shared.registry.as_ref());
    if out.is_ok() {
        let mut profiles = shared.profiles.lock().expect("profiles poisoned");
        ex.record_kernel_profiles(&mut profiles);
    }
    (out, ex.ooc_pool().map(SharedBufferPool::traffic).unwrap_or_default())
}

/// Copy a request's own spill traffic into its record.
fn note_spill(rec: &mut RequestRecord, traffic: PoolStats) {
    rec.spilled_bytes = traffic.spilled_bytes;
    rec.faulted_bytes = traffic.faulted_bytes;
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
/// its columns affects nothing else). Blocked plans batch too: the leader
/// is admitted at the stacked plan's own certificate.
fn batchable_input(prog: &CompiledProgram) -> Option<String> {
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

/// The batched column of a request that asked to batch, when batching is on
/// and its plan is eligible ([`batchable_input`]) with that input bound as a
/// non-empty column vector: the input's name and values, taken out of
/// `req.inputs`, and the non-zero counts of the inputs left there.
fn batch_column(
    shared: &Shared,
    prog: &CompiledProgram,
    req: &mut Request,
    nnz: &[usize],
) -> Option<(String, Vec<f64>, Vec<usize>)> {
    if !req.batch || !shared.batcher.enabled() {
        return None;
    }
    let name = batchable_input(prog)?;
    let at = req.inputs.iter().position(|(n, v)| {
        *n == name && matches!(v, InputValue::Matrix { rows: 1.., cols: 1, .. })
    })?;
    let (name, InputValue::Matrix { data, .. }) = req.inputs.remove(at) else {
        unreachable!("the batched input is a matrix")
    };
    let mut nnz = nnz.to_vec();
    nnz.remove(at);
    Some((name, data, nnz))
}

/// A batched request's [`GroupKey`], from what decoding already knows: its
/// plan key, its column's length `m`, and each shared input's shape and
/// non-zero count, in name order. No value is read.
fn group_key(key: &PlanKey, m: usize, inputs: &[(String, InputValue)], nnz: &[usize]) -> GroupKey {
    let mut shapes: Vec<(&str, [usize; 3])> = inputs
        .iter()
        .zip(nnz)
        .map(|((name, v), &nnz)| match v {
            InputValue::Matrix { rows, cols, .. } => (name.as_str(), [*rows, *cols, nnz]),
            InputValue::Scalar(_) => (name.as_str(), [0, 0, nnz]),
        })
        .collect();
    shapes.sort_by_key(|&(name, _)| name);
    (key.clone(), m, shapes.into_iter().map(|(_, s)| s).collect())
}

/// A group's columns side by side, as the `m x k` input the leader's
/// program reads, with its non-zero count.
fn stack(columns: &[Vec<f64>]) -> (Dense, usize) {
    let (m, k) = (columns[0].len(), columns.len());
    let (mut stacked, mut nnz) = (vec![0.0; m * k], 0);
    for (j, col) in columns.iter().enumerate() {
        for (i, &v) in col.iter().enumerate() {
            stacked[i * k + j] = v;
            nnz += usize::from(v != 0.0);
        }
    }
    (Dense::from_vec(m, k, stacked).expect("m x k"), nnz)
}

/// The program planned again with `name` declared as the stacked input:
/// physical selection, certification and pricing of its optimized graph.
/// No logical rewrite runs, so the chain association, and with it the bits
/// of every column, stay the solo plan's.
fn replan(
    shared: &Shared,
    prog: &CompiledProgram,
    sizes: &mut InputSizes,
    name: &str,
    stacked: &Dense,
    nnz: usize,
) -> Result<CompiledProgram, SizeError> {
    let (m, k) = stacked.shape();
    sizes.declare(name, m, k, nnz as f64 / (m * k) as f64);
    let (degree, budget) = (shared.cfg.degree, shared.cfg.budget);
    let opts = PlanOptions { degree, budget, cost: Some(&shared.model), ..PlanOptions::new(sizes) };
    CompiledProgram::new(prog.graph.clone(), prog.root, &opts)
}

/// Member `j`'s answer is column `j` of the stacked product, bit for bit.
fn split(v: Val, k: usize) -> Result<Vec<Vec<f64>>, String> {
    match v {
        Val::Matrix(m) if m.cols() == k => {
            let d = into_dense(m);
            Ok((0..k).map(|j| d.data().iter().skip(j).step_by(k).copied().collect()).collect())
        }
        _ => Err("the stacked product has not one column per member".to_owned()),
    }
}

/// This member's column of its group's product, or why there is none.
fn received(rx: &Receiver<ColResult>, lost: &str) -> Result<ScoreResult, String> {
    let col = rx.recv().map_err(|_| format!("batch {lost}"))??;
    Ok(ScoreResult::Matrix { rows: col.len(), cols: 1, data: col })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_lang::cache::compile;

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
        let env = build_env(
            vec![
                ("W".to_owned(), InputValue::Matrix { rows: 64, cols: 8, data: w }),
                ("x".to_owned(), InputValue::Matrix { rows: 8, cols: 1, data: vec![1.0; 8] }),
            ],
            &[511, 8],
        );
        let out = execute(&server.shared, &prog, env).0.unwrap();
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
    fn spill_counters_equal_the_shared_pool_totals() {
        use crate::client::ScoringClient;
        use crate::protocol::{Request, Response};
        let budget = MemoryBudget::bytes(96 * 1024);
        let registry = Arc::new(StatsRegistry::new());
        let cfg = ServeConfig { budget, ..ServeConfig::for_tests() };
        let server = ScoringServer::start(cfg, Arc::clone(&registry)).unwrap();
        let n = 120;
        let data: Vec<f64> = (0..n * n).map(|i| (i % 13) as f64 * 0.5 - 3.0).collect();
        let req = Request::score("spill", "sum(X %*% X)").matrix("X", n, n, data);
        // One blocked request; its flight record lands after the response.
        let score = || {
            let mut client = ScoringClient::connect(server.addr()).unwrap();
            let (resp, rid) = client.request_with_rid(&req).unwrap();
            let Response::Score { blocked_nodes, .. } = resp else { panic!("{resp:?}") };
            assert!(blocked_nodes > 0, "the plan must run blocked");
            let rid = rid.expect("the server assigns ids");
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if let Some(rec) = server.flight().get(rid) {
                    return rec;
                }
                assert!(Instant::now() < deadline, "request {rid} left no record");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let pool = server.shared.spill.as_ref().expect("a budget makes a pool");
        let registry_equals_pool = || {
            let (ps, rep) = (pool.stats(), registry.report());
            let sites = ["spilled_bytes", "faulted_bytes", "evictions", "pins"];
            let got = sites.map(|s| rep.counter(&format!("lang.exec.ooc.{s}")).unwrap_or(0));
            assert_eq!(got, [ps.spilled_bytes, ps.faulted_bytes, ps.evictions, ps.pins]);
        };
        let mut records = Vec::new();
        for _ in 0..3 {
            records.push(score());
            registry_equals_pool();
        }
        assert!(pool.stats().spilled_bytes > 0, "the plan must spill: {:?}", pool.stats());
        let start = std::sync::Barrier::new(3);
        let concurrent: Vec<_> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        score()
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        });
        registry_equals_pool();
        for rec in &concurrent {
            assert!(rec.spilled_bytes + rec.faulted_bytes > 0, "request {} moved nothing", rec.id);
        }
        records.extend(concurrent);
        let ps = pool.stats();
        let spilled = records.iter().map(|r| r.spilled_bytes).sum::<u64>();
        let faulted = records.iter().map(|r| r.faulted_bytes).sum::<u64>();
        assert_eq!((spilled, faulted), (ps.spilled_bytes, ps.faulted_bytes));
        server.shutdown();
    }

    /// A batched column equals the solo result bit for bit, on the leader's
    /// own path: stack the group's columns, plan the solo program again at
    /// the stacked size, execute, split. `X` is random, dense or below the
    /// sparse threshold, with signed zeros; the vectors hold `NaN` and
    /// `±inf` against the zeros of `X`; groups hold 1 to 8 members. Each
    /// case runs on a server with an unbounded budget and on one under
    /// which the stacked product of a dense `X` blocks, against a solo eval
    /// of the solo plan that server compiles.
    #[test]
    fn a_batched_column_is_the_solo_result_bit_for_bit() {
        use proptest::prelude::*;
        let start = |budget| {
            let cfg = ServeConfig { budget, ..ServeConfig::for_tests() };
            ScoringServer::start(cfg, Arc::new(StatsRegistry::new())).unwrap()
        };
        let servers = [start(MemoryBudget::unbounded()), start(MemoryBudget::bytes(12 << 10))];
        let signed = prop_oneof![6 => -3.0..3.0f64, 1 => Just(0.0), 1 => Just(-0.0)];
        let sparse = prop_oneof![9 => Just(0.0), 1 => -3.0..3.0f64];
        let entry = prop_oneof![
            6 => -3.0..3.0f64,
            1 => Just(-0.0),
            1 => Just(f64::NAN),
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
        ];
        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut runner = proptest::test_runner::TestRunner::new("a_batched_column");
        for _ in 0..24 {
            let (n, d, k, dense) =
                (128usize..256, 16usize..40, 1usize..9, 0..2u8).generate(runner.rng());
            let dense = dense == 1;
            let x: Vec<f64> = if dense {
                proptest::collection::vec(signed.clone(), n * d).generate(runner.rng())
            } else {
                proptest::collection::vec(sparse.clone(), n * d).generate(runner.rng())
            };
            let columns: Vec<Vec<f64>> = (0..k)
                .map(|_| proptest::collection::vec(entry.clone(), d).generate(runner.rng()))
                .collect();
            let x_nnz = x.iter().filter(|&&v| v != 0.0).count();
            let x = Arc::new(Matrix::Dense(Dense::from_vec(n, d, x).unwrap()));
            for server in &servers {
                let shared = &server.shared;
                let mut sizes = InputSizes::new();
                sizes.declare("X", n, d, x_nnz as f64 / (n * d) as f64).declare("v", d, 1, 1.0);
                let (degree, budget) = (shared.cfg.degree, shared.cfg.budget);
                let solo = compile("X %*% v", &sizes, degree, budget, &shared.model).unwrap();
                let env = |v: Matrix, nnz: usize| {
                    let mut env = Env::new();
                    env.bind("X", Arc::clone(&x)).bind_counted("v", v, nnz);
                    env
                };
                let (stacked, nnz) = stack(&columns);
                let prog = replan(shared, &solo, &mut sizes, "v", &stacked, nnz).unwrap();
                if dense && budget.get().is_some() {
                    assert!(prog.blocked_nodes > 0, "{n}x{d} times {d}x{k} must block");
                }
                let got = execute(shared, &prog, env(Matrix::Dense(stacked), nnz)).0.unwrap();
                let got = split(got, k).unwrap();
                for (j, col) in columns.iter().enumerate() {
                    let v = Dense::from_vec(d, 1, col.clone()).unwrap();
                    let nnz = col.iter().filter(|&&c| c != 0.0).count();
                    let want = execute(shared, &solo, env(Matrix::Dense(v), nnz)).0.unwrap();
                    let want = want.as_dense().unwrap();
                    let plans = (solo.kernel_summary(), prog.kernel_summary());
                    let case = format!("{n}x{d}, {budget:?}, plans {plans:?}, column {j} of {k}");
                    assert_eq!(bits(&got[j]), bits(want.data()), "{case}");
                }
            }
        }
        for server in servers {
            if let Some(pool) = &server.shared.spill {
                assert!(pool.stats().spilled_bytes + pool.stats().faulted_bytes > 0);
                assert_eq!(pool.used(), 0);
            }
            server.shutdown();
        }
    }

    /// A batched request that hits a plan cached for its size class but
    /// does not fit it (`W` 24 wide, `x` 25 long) leads its own group, and
    /// its leader's plan of the stacked product fails to propagate sizes:
    /// the request is answered with that error, and the server goes on
    /// scoring.
    #[test]
    fn a_group_the_cached_plan_does_not_fit_is_answered_with_an_error() {
        use crate::client::ScoringClient;
        let cfg =
            ServeConfig { batch_deadline: Duration::from_millis(1), ..ServeConfig::for_tests() };
        let server = ScoringServer::start(cfg, Arc::new(StatsRegistry::new())).unwrap();
        let w: Vec<f64> = (0..24 * 24).map(f64::from).collect();
        let req = |len: usize| {
            Request::score("acme", "W %*% x")
                .matrix("W", 24, 24, w.clone())
                .matrix("x", len, 1, vec![1.0; len])
                .batched()
        };
        let mut client = ScoringClient::connect(server.addr()).unwrap();
        let Response::Score { cache_hit: false, .. } = client.request(&req(24)).unwrap() else {
            panic!("the first request compiles and is scored")
        };
        match client.request(&req(25)).unwrap() {
            Response::Error { error } => assert!(error.starts_with("size error"), "{error}"),
            other => panic!("expected a size error, got {other:?}"),
        }
        let Response::Score { cache_hit: true, .. } = client.request(&req(24)).unwrap() else {
            panic!("the server goes on scoring")
        };
        server.shutdown();
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
}
