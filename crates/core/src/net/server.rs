//! The blocking TCP server: one [`crate::engine::Session`] served to many
//! connections over the [`super::protocol`] wire format.
//!
//! # Architecture
//!
//! One thread (the caller of [`Server::serve`]) runs a non-blocking accept
//! loop; every accepted connection gets a scoped handler thread that speaks
//! strict request/response framing. Handlers never touch each other's
//! state, so **a bad frame kills its connection, never the server**:
//! framing errors (bad magic, wrong version, oversized length, mid-frame
//! truncation) answer with a typed error frame and close that one
//! connection, while content errors inside a well-formed frame (unknown
//! opcode, bad payload, rejected pattern, expired deadline) answer and keep
//! the connection open. Request handlers never write error frames
//! themselves: each returns its reply — a success frame or a typed
//! refusal — and the connection loop sends it.
//!
//! Queries execute on the shared multi-tenant
//! [`WorkerPool`] through an **admission
//! gate** sized to the pool's `max_in_flight`. The gate, not the pool, is
//! where excess queries wait — unlike the pool's own blocking submit path,
//! a gated wait can observe the query's deadline, so a queued query whose
//! deadline expires is cancelled *without ever executing* (true
//! cancellation, not post-hoc reporting). Deadlines are also re-checked
//! after execution, so a reply never claims to have met a deadline it
//! missed. A query that panics inside the engine is isolated twice: the
//! pool contains it to the job's slot, and the handler's `catch_unwind`
//! converts it into an [`ErrorCode::Internal`] response.
//!
//! Graceful shutdown (the `SHUTDOWN` opcode or [`ServerHandle::shutdown`])
//! flips the draining flag: the accept loop stops and **closes the
//! listener** (new connects are refused at the OS level), in-flight queries
//! run to completion and their replies are delivered, idle connections are
//! told [`ErrorCode::ShuttingDown`] and closed, and — when a persistence
//! path is configured — the plan cache's keys are saved for the next
//! process's warm start ([`crate::persist`]).

use crate::config::{PoolOptions, ServeOptions};
use crate::dynamic::DynamicEngine;
use crate::engine::{
    CacheStats, CountOptions, GraphPi, PlanCache, PlanOptions, SavedPlanKey, Session,
    WarmStartReport,
};
use crate::exec::pool::WorkerPool;
use crate::net::protocol::{
    max_embeddings_per_page, op, CountExt, CountOk, CountRequest, EnumPage, EnumerateRequest,
    ErrorCode, Frame, HealthOk, HealthState, LatencyHistogram, NetError, OrbitSummary, PromoteOk,
    QueryMode, ReplAck, ReplBatch, ReplPayload, ReplRole, ReplSubscribe, SampleSummary, StatsOk,
    TcpTransport, Transport, UpdateOk, UpdateRequest, WireError, HISTOGRAM_BUCKETS,
    REPL_CHUNK_BYTES,
};
use crate::persist;
use graphpi_graph::delta::{DeltaError, EdgeBatch};
use graphpi_graph::wal::{DurableError, ShipPoint, WalReader};
use graphpi_pattern::Pattern;
use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long the accept loop naps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// How often the snapshot thread wakes to check the drain flag (the
/// snapshot interval itself is user-configured and usually much longer).
const SNAPSHOT_POLL: Duration = Duration::from_millis(20);

/// Completed COUNT requests remembered per server for idempotent
/// retries. Bounded FIFO; old entries fall out once a retry can no
/// longer plausibly arrive.
const LEDGER_CAPACITY: usize = 1024;

/// Retry-after hint when the latency histogram is still empty.
const DEFAULT_RETRY_HINT_MS: u32 = 50;

/// How long a `COUNT` carrying a generation floor waits for replication
/// to catch up before answering `RETRY_LATER`.
const MIN_GENERATION_WAIT: Duration = Duration::from_millis(250);

/// Poll granularity while waiting out a generation floor.
const MIN_GENERATION_POLL: Duration = Duration::from_millis(5);

/// How long a caught-up replication stream naps between heartbeats.
const REPL_HEARTBEAT_PAUSE: Duration = Duration::from_millis(25);

/// How long a `PROMOTE` request waits for the replica's apply loop to
/// seal the stream and flip the role before reporting failure.
const PROMOTE_WAIT: Duration = Duration::from_secs(5);

/// Server counters, shared between the accept loop, the connection
/// handlers, and `STATS` replies. Plain relaxed atomics: these are
/// monotonic counters and gauges, not synchronization.
#[derive(Default)]
struct Metrics {
    connections_total: AtomicU64,
    active_connections: AtomicUsize,
    queries_total: AtomicU64,
    updates_total: AtomicU64,
    enumerations_total: AtomicU64,
    pages_sent: AtomicU64,
    deadline_exceeded: AtomicU64,
    protocol_errors: AtomicU64,
    overload_rejections: AtomicU64,
    warm_started: AtomicUsize,
    latency: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Metrics {
    fn record_latency(&self, micros: u64) {
        self.latency[LatencyHistogram::bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
    }

    fn latency_snapshot(&self) -> LatencyHistogram {
        let mut hist = LatencyHistogram::default();
        for (bucket, counter) in hist.buckets.iter_mut().zip(self.latency.iter()) {
            *bucket = counter.load(Ordering::Relaxed);
        }
        hist
    }
}

/// Shared replication role and telemetry for one serving process:
/// written by the serve loop (primary side), the replica apply loop
/// ([`crate::net::replica`]), and signal handlers; read by every
/// connection handler. Atomics and one tiny mutex — nothing here blocks
/// the request path.
pub struct ReplState {
    role: AtomicU8,
    /// On a replica: the primary's generation as of the last
    /// `REPL_BATCH` heard (the minuend of the lag gauge).
    primary_generation: AtomicU64,
    /// On a replica: where writes should go, handed to clients inside
    /// `NOT_PRIMARY` errors. Empty when unknown.
    primary_addr: Mutex<String>,
    promote_requested: AtomicBool,
    subscribers: AtomicUsize,
    /// Primary side: the freshest subscriber lag observed at an ack.
    subscriber_lag: AtomicU64,
    batches_shipped: AtomicU64,
}

impl ReplState {
    /// A read-write primary (also the default for servers that never
    /// heard of replication).
    pub fn primary() -> Arc<ReplState> {
        Arc::new(ReplState {
            role: AtomicU8::new(ReplRole::Primary.code()),
            primary_generation: AtomicU64::new(0),
            primary_addr: Mutex::new(String::new()),
            promote_requested: AtomicBool::new(false),
            subscribers: AtomicUsize::new(0),
            subscriber_lag: AtomicU64::new(0),
            batches_shipped: AtomicU64::new(0),
        })
    }

    /// A read replica following the primary at `primary_addr`.
    pub fn replica(primary_addr: &str) -> Arc<ReplState> {
        let state = Self::primary();
        state.set_role(ReplRole::Replica);
        *state
            .primary_addr
            .lock()
            .expect("replication state poisoned") = primary_addr.to_string();
        state
    }

    /// The current role.
    pub fn role(&self) -> ReplRole {
        ReplRole::from_code(self.role.load(Ordering::Acquire)).unwrap_or(ReplRole::Primary)
    }

    /// Flips the role (the replica apply loop moves Replica → Promoting
    /// → Primary; nothing ever demotes a primary in-process).
    pub fn set_role(&self, role: ReplRole) {
        self.role.store(role.code(), Ordering::Release);
    }

    /// Where writes should go when this node is not the primary (empty
    /// when unknown).
    pub fn primary_addr(&self) -> String {
        self.primary_addr
            .lock()
            .expect("replication state poisoned")
            .clone()
    }

    /// Asks the replica's apply loop to seal the stream and flip this
    /// node to primary (`graphpi-cli promote` and `SIGUSR1` both land
    /// here). Harmless on a primary.
    pub fn request_promote(&self) {
        self.promote_requested.store(true, Ordering::Release);
    }

    /// Whether a promotion has been requested and not yet completed.
    pub fn promote_requested(&self) -> bool {
        self.promote_requested.load(Ordering::Acquire)
    }

    /// Records the primary's generation heard in a `REPL_BATCH`.
    pub fn note_primary_generation(&self, generation: u64) {
        self.primary_generation.store(generation, Ordering::Release);
    }

    fn note_shipment(&self, lag: u64) {
        self.subscriber_lag.store(lag, Ordering::Relaxed);
        self.batches_shipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Connected replication subscribers (primary side).
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.load(Ordering::Relaxed)
    }

    /// `REPL_BATCH` frames shipped over this process's lifetime.
    pub fn batches_shipped(&self) -> u64 {
        self.batches_shipped.load(Ordering::Relaxed)
    }

    /// The lag gauge served in `HEALTH`/`STATS`: on a primary, the
    /// freshest subscriber lag; on a replica, how many generations the
    /// primary is known to be ahead of `local_generation`.
    pub fn replication_lag(&self, local_generation: u64) -> u64 {
        match self.role() {
            ReplRole::Primary => self.subscriber_lag.load(Ordering::Relaxed),
            _ => self
                .primary_generation
                .load(Ordering::Acquire)
                .saturating_sub(local_generation),
        }
    }
}

/// The outcome of asking the admission gate for a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    /// A permit was taken; the caller must `release()` after executing.
    Admitted,
    /// The query's deadline expired while queued; no permit consumed.
    DeadlineExpired,
    /// The wait queue is at its bound; the caller should answer
    /// [`ErrorCode::RetryLater`] *immediately* instead of queueing.
    Overloaded,
}

/// Waiters and permits behind the admission gate's one lock.
struct AdmissionState {
    permits: usize,
    waiting: usize,
}

/// A counting gate in front of the worker pool, sized to the pool's
/// `max_in_flight`, with a *bounded* wait queue. Handlers wait *here*
/// instead of inside the pool's blocking submit path because a gate wait
/// can time out: that is what turns a queued query's deadline into real
/// cancellation. The queue bound is what turns overload into immediate,
/// typed shedding ([`Admit::Overloaded`]) instead of unbounded queueing:
/// by construction the `queued` gauge can never exceed `max_waiting`.
struct Admission {
    state: Mutex<AdmissionState>,
    available: Condvar,
    max_waiting: usize,
}

impl Admission {
    fn new(permits: usize, max_waiting: usize) -> Self {
        Self {
            state: Mutex::new(AdmissionState {
                permits: permits.max(1),
                waiting: 0,
            }),
            available: Condvar::new(),
            max_waiting: max_waiting.max(1),
        }
    }

    /// Acquires a permit, giving up at `deadline`, refusing outright when
    /// the wait queue is full.
    fn acquire_until(&self, deadline: Option<Instant>) -> Admit {
        let mut state = self.state.lock().expect("admission gate poisoned");
        if state.permits > 0 {
            state.permits -= 1;
            return Admit::Admitted;
        }
        if state.waiting >= self.max_waiting {
            return Admit::Overloaded;
        }
        state.waiting += 1;
        loop {
            if state.permits > 0 {
                state.permits -= 1;
                state.waiting -= 1;
                return Admit::Admitted;
            }
            match deadline {
                None => {
                    state = self.available.wait(state).expect("admission gate poisoned");
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        state.waiting -= 1;
                        return Admit::DeadlineExpired;
                    }
                    state = self
                        .available
                        .wait_timeout(state, deadline - now)
                        .expect("admission gate poisoned")
                        .0;
                }
            }
        }
    }

    fn release(&self) {
        let mut state = self.state.lock().expect("admission gate poisoned");
        state.permits += 1;
        self.available.notify_one();
    }

    /// Current wait-queue depth (the `queued` stat).
    fn waiting(&self) -> usize {
        self.state.lock().expect("admission gate poisoned").waiting
    }

    /// Whether a new query would be shed right now.
    fn is_full(&self) -> bool {
        let state = self.state.lock().expect("admission gate poisoned");
        state.permits == 0 && state.waiting >= self.max_waiting
    }
}

/// FNV-1a over the request fields that determine the answer, plus the
/// serving `generation`. Ledger entries only replay for the *same*
/// logical query on the *same* graph, so neither an ID collision between
/// two clients nor an ID reused after a commit can serve a stale count.
fn request_fingerprint(request: &CountRequest, generation: u64) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x1000_0000_01B3);
    };
    for byte in generation.to_le_bytes() {
        eat(byte);
    }
    eat(u8::from(request.no_iep));
    eat(u8::from(request.hub_bitsets));
    // The execution mode changes the answer, so orbit/sample replies can
    // never replay for a plain count retry (or vice versa).
    match request.mode {
        QueryMode::Count => eat(0),
        QueryMode::Orbit => eat(1),
        QueryMode::Sample { seed, rate_bits } => {
            eat(2);
            for byte in seed
                .to_le_bytes()
                .into_iter()
                .chain(rate_bits.to_le_bytes())
            {
                eat(byte);
            }
        }
    }
    for byte in &request.pattern {
        eat(*byte);
    }
    hash
}

/// FNV-1a over an update's edge lists. The leading tag byte separates the
/// update domain from [`request_fingerprint`]'s count domain, so a count
/// retry can never replay an update reply (or vice versa) even if the two
/// requests reused one ID.
fn update_fingerprint(request: &UpdateRequest) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x1000_0000_01B3);
    };
    eat(0xD5);
    for side in [&request.inserts, &request.deletes] {
        for &(a, b) in side.iter() {
            for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
                eat(byte);
            }
        }
        eat(0xFE);
    }
    hash
}

/// A reply the ledger can replay: counts and updates share the ID space
/// but never each other's entries (the fingerprint domains differ, and
/// the variant is re-checked on lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LedgerReply {
    Count(CountOk),
    Update(UpdateOk),
}

/// Completed-request ledger: request ID → (fingerprint, reply). A retry
/// carrying a known ID is answered from here without re-executing (or
/// double-counting) the query — that is what makes resending after an
/// ambiguous failure safe. For updates this is the idempotency mechanism:
/// a replayed `UPDATE` reports the generation it originally produced
/// instead of committing twice. Bounded FIFO eviction.
struct RequestLedger {
    inner: Mutex<LedgerInner>,
    capacity: usize,
}

struct LedgerInner {
    replies: HashMap<u64, (u64, LedgerReply)>,
    order: VecDeque<u64>,
}

impl RequestLedger {
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(LedgerInner {
                replies: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// The recorded reply for `id`, if it exists *and* belongs to the
    /// same logical request.
    fn lookup(&self, id: u64, fingerprint: u64) -> Option<LedgerReply> {
        let inner = self.inner.lock().expect("ledger poisoned");
        match inner.replies.get(&id) {
            Some((stored, reply)) if *stored == fingerprint => Some(*reply),
            _ => None,
        }
    }

    fn record(&self, id: u64, fingerprint: u64, reply: LedgerReply) {
        let mut inner = self.inner.lock().expect("ledger poisoned");
        if inner.replies.insert(id, (fingerprint, reply)).is_none() {
            inner.order.push_back(id);
            if inner.order.len() > self.capacity {
                if let Some(evict) = inner.order.pop_front() {
                    inner.replies.remove(&evict);
                }
            }
        }
    }
}

/// What a server is serving: one immutable engine behind a long-lived
/// [`Session`], or a [`DynamicEngine`] whose generations come and go.
///
/// The static arm keeps the original zero-overhead path: one session,
/// planned options resolved once. The dynamic arm pins the current
/// generation *per query* and builds a transient session against the
/// pinned engine — the pin is what guarantees a query sees exactly one
/// generation even while batches commit mid-flight, and the shared pool
/// and plan cache are what keep a re-pinned query as cheap as a static
/// one (same workers, warm plans keyed by the generation's stats
/// fingerprint).
enum ServeBackend<'a> {
    Static(Session<'a>),
    Dynamic {
        engine: &'a DynamicEngine,
        pool: Arc<WorkerPool>,
        cache: Arc<PlanCache>,
    },
}

impl ServeBackend<'_> {
    /// Runs `f` against a session pinned to a single consistent
    /// generation: the long-lived session on a static backend, a transient
    /// session over the pinned current generation on a dynamic one (the
    /// shared pool and plan cache keep the transient session as cheap as
    /// the static path).
    fn with_session<R>(&self, f: impl FnOnce(&Session<'_>) -> R) -> R {
        match self {
            ServeBackend::Static(session) => f(session),
            ServeBackend::Dynamic {
                engine,
                pool,
                cache,
            } => {
                let pin = engine.pin();
                let session = pin.engine().session_shared(
                    Arc::clone(pool),
                    Arc::clone(cache),
                    PlanOptions::default(),
                    CountOptions::default(),
                );
                f(&session)
            }
        }
    }

    /// Runs one count-family query in the requested execution mode,
    /// returning the wire reply body: the headline count plus the
    /// mode-specific extension (orbit summary / sample estimate).
    ///
    /// Orbit replies summarise the per-vertex vector instead of shipping
    /// it — a full vector over a large graph exceeds the frame cap; the
    /// full vector stays a local-API affordance
    /// ([`Session::count_per_vertex`]).
    fn count_mode(
        &self,
        pattern: &Pattern,
        options: CountOptions,
        mode: QueryMode,
    ) -> Result<(u64, CountExt), crate::error::EngineError> {
        self.with_session(|session| match mode {
            QueryMode::Count => session
                .count_with(pattern, options)
                .map(|count| (count, CountExt::None)),
            QueryMode::Orbit => {
                let counts = session.count_per_vertex_with(pattern, options)?;
                let sum: u64 = counts.iter().sum();
                let nonzero_vertices = counts.iter().filter(|&&c| c > 0).count() as u64;
                let (max_vertex, max_count) = counts
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &c)| c)
                    .map(|(v, &c)| (v as u32, c))
                    .unwrap_or((0, 0));
                // Every embedding touches pattern-size vertices, so the
                // headline count is the exact global count.
                let size = pattern.num_vertices() as u64;
                Ok((
                    sum / size.max(1),
                    CountExt::Orbit(OrbitSummary {
                        sum,
                        nonzero_vertices,
                        max_count,
                        max_vertex,
                    }),
                ))
            }
            QueryMode::Sample { seed, rate_bits } => {
                let rate = f64::from_bits(rate_bits);
                let approx = session.count_approx_with(pattern, rate, seed, options)?;
                Ok((
                    approx.estimate.round().max(0.0) as u64,
                    CountExt::Sample(SampleSummary {
                        estimate_bits: approx.estimate.to_bits(),
                        stderr_bits: approx.stderr.to_bits(),
                        sampled_tasks: approx.sampled_tasks,
                        total_tasks: approx.total_tasks,
                    }),
                ))
            }
        })
    }

    /// Enumerates up to `limit` embeddings against a single consistent
    /// generation (flattened page source for the `ENUMERATE` stream).
    fn enumerate_with(
        &self,
        pattern: &Pattern,
        limit: u64,
        options: CountOptions,
    ) -> Result<Vec<Vec<u32>>, crate::error::EngineError> {
        self.with_session(|session| session.enumerate_with(pattern, limit, options))
    }

    /// The dynamic engine, when updates are accepted.
    fn dynamic(&self) -> Option<&DynamicEngine> {
        match self {
            ServeBackend::Static(_) => None,
            ServeBackend::Dynamic { engine, .. } => Some(engine),
        }
    }

    /// The serving generation (0 for a static, immutable graph).
    fn generation(&self) -> u64 {
        match self {
            ServeBackend::Static(_) => 0,
            ServeBackend::Dynamic { engine, .. } => engine.generation(),
        }
    }

    fn pool(&self) -> &WorkerPool {
        match self {
            ServeBackend::Static(session) => session.pool(),
            ServeBackend::Dynamic { pool, .. } => pool,
        }
    }

    fn cache_stats(&self) -> CacheStats {
        match self {
            ServeBackend::Static(session) => session.cache_stats(),
            ServeBackend::Dynamic { cache, .. } => cache.stats(),
        }
    }

    /// Warm-starts the plan cache against the engine serving right now
    /// (for a dynamic backend: the recovered generation).
    fn warm_start(&self, keys: &[SavedPlanKey]) -> WarmStartReport {
        match self {
            ServeBackend::Static(session) => session.warm_start(keys),
            ServeBackend::Dynamic {
                engine,
                pool,
                cache,
            } => {
                let pin = engine.pin();
                let session = pin.engine().session_shared(
                    Arc::clone(pool),
                    Arc::clone(cache),
                    PlanOptions::default(),
                    CountOptions::default(),
                );
                session.warm_start(keys)
            }
        }
    }
}

/// Remote control for a running [`Server`]: clonable, valid across
/// threads, obtained from [`Server::handle`] before `serve` consumes the
/// server.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    draining: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The address the server is listening on (with the OS-assigned port
    /// when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain: stop accepting, finish in-flight
    /// queries, persist the plan cache, return from `serve`.
    pub fn shutdown(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }
}

/// What [`Server::serve`] reports after draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Count queries that entered execution.
    pub queries: u64,
    /// Update batches that committed (always zero for a static server).
    pub updates: u64,
    /// The warm-start outcome at boot (zero when no persistence path or no
    /// snapshot existed).
    pub warm_start: WarmStartReport,
    /// Plan-cache keys persisted at shutdown (zero without a path).
    pub saved_plans: usize,
    /// Periodic background snapshots written while serving (zero without
    /// a path or a snapshot interval).
    pub snapshots_written: u64,
}

/// A bound-but-not-yet-serving GraphPi TCP server. Construction binds the
/// listener (so the OS-assigned port is known and a [`ServerHandle`] can
/// be taken); [`Server::serve`] then consumes the server and blocks until
/// drained.
pub struct Server {
    listener: TcpListener,
    pool: Arc<WorkerPool>,
    cache: Arc<PlanCache>,
    options: ServeOptions,
    draining: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .field("draining", &self.draining.load(Ordering::Relaxed))
            .finish()
    }
}

impl Server {
    /// Binds `addr` with a fresh pool and plan cache per
    /// `options.pool`.
    pub fn bind(addr: impl ToSocketAddrs, options: ServeOptions) -> Result<Server, NetError> {
        let PoolOptions {
            threads,
            cache_capacity,
            max_in_flight,
        } = options.pool;
        Self::bind_shared(
            addr,
            Arc::new(WorkerPool::with_max_in_flight(threads, max_in_flight)),
            Arc::new(PlanCache::new(cache_capacity)),
            options,
        )
    }

    /// Binds `addr` on an existing pool and cache — the constructor tests
    /// use to keep their own handle on the pool (e.g. to assert
    /// `live_workers()` across fault injection), and the one that lets
    /// several servers share one pool.
    pub fn bind_shared(
        addr: impl ToSocketAddrs,
        pool: Arc<WorkerPool>,
        cache: Arc<PlanCache>,
        options: ServeOptions,
    ) -> Result<Server, NetError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            pool,
            cache,
            options,
            draining: Arc::new(AtomicBool::new(false)),
            metrics: Arc::new(Metrics::default()),
        })
    }

    /// The bound address (with the OS-assigned port when bound to port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// A clonable remote control (take it before [`Server::serve`]).
    pub fn handle(&self) -> Result<ServerHandle, NetError> {
        Ok(ServerHandle {
            draining: Arc::clone(&self.draining),
            addr: self.listener.local_addr()?,
        })
    }

    /// The worker pool queries execute on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Serves `engine` until drained (via the `SHUTDOWN` opcode or
    /// [`ServerHandle::shutdown`]), then returns lifetime totals. Consumes
    /// the server so the listener is provably closed when this returns.
    /// The graph is immutable: `UPDATE` requests are refused with
    /// [`ErrorCode::ReadOnly`].
    pub fn serve(self, engine: &GraphPi) -> Result<ServerReport, NetError> {
        let session = engine.session_shared(
            Arc::clone(&self.pool),
            Arc::clone(&self.cache),
            PlanOptions::default(),
            CountOptions::default(),
        );
        self.serve_backend(ServeBackend::Static(session), ReplState::primary())
    }

    /// Serves a [`DynamicEngine`] until drained: counts pin the current
    /// generation per query, and the `UPDATE` opcode commits edge
    /// batches (durably, when the engine was opened with a WAL).
    pub fn serve_dynamic(self, engine: &DynamicEngine) -> Result<ServerReport, NetError> {
        self.serve_dynamic_with_repl(engine, ReplState::primary())
    }

    /// Serves a [`DynamicEngine`] with an explicit replication role: the
    /// primary side answers `REPL_SUBSCRIBE` with WAL fan-out, and a
    /// replica whose apply loop shares `repl` refuses `UPDATE` with
    /// `NOT_PRIMARY` until promotion flips the role.
    pub fn serve_dynamic_with_repl(
        self,
        engine: &DynamicEngine,
        repl: Arc<ReplState>,
    ) -> Result<ServerReport, NetError> {
        let backend = ServeBackend::Dynamic {
            engine,
            pool: Arc::clone(&self.pool),
            cache: Arc::clone(&self.cache),
        };
        self.serve_backend(backend, repl)
    }

    fn serve_backend(
        self,
        backend: ServeBackend<'_>,
        repl: Arc<ReplState>,
    ) -> Result<ServerReport, NetError> {
        let Server {
            listener,
            pool,
            cache,
            options,
            draining,
            metrics,
        } = self;

        // Warm start: re-plan the previous process's working set so its
        // patterns are cache hits from the first query. A missing snapshot
        // is a cold start; a corrupt one is ignored (it must never prevent
        // serving) and will be overwritten at shutdown.
        let mut warm = WarmStartReport::default();
        if let Some(path) = &options.persist_path {
            if let Some(snapshot) = persist::try_load_plan_cache(path) {
                warm = backend.warm_start(&snapshot.keys);
                metrics.warm_started.store(warm.warmed, Ordering::Relaxed);
            }
        }

        // The wait queue is bounded: beyond it, queries are shed with
        // RETRY_LATER instead of queueing without limit. 0 = auto-size.
        let max_waiting = if options.max_queue_depth > 0 {
            options.max_queue_depth
        } else {
            (4 * pool.max_in_flight()).max(16)
        };
        let admission = Admission::new(pool.max_in_flight(), max_waiting);
        let ledger = RequestLedger::new(LEDGER_CAPACITY);
        let shared = Shared {
            backend: &backend,
            metrics: &metrics,
            admission: &admission,
            ledger: &ledger,
            draining: &draining,
            repl: &repl,
        };
        let snapshots_written = AtomicU64::new(0);
        std::thread::scope(|scope| {
            // Crash safety: a background thread re-snapshots the plan
            // cache every `snapshot_interval`, so a `kill -9` loses at
            // most one interval of cache warmth, not the whole set.
            if let (Some(path), Some(interval)) = (&options.persist_path, options.snapshot_interval)
            {
                let cache = &cache;
                let draining = &draining;
                let snapshots_written = &snapshots_written;
                scope.spawn(move || {
                    let mut last = Instant::now();
                    while !draining.load(Ordering::Acquire) {
                        std::thread::sleep(SNAPSHOT_POLL);
                        if last.elapsed() >= interval {
                            if persist::save_plan_cache(cache, path).is_ok() {
                                snapshots_written.fetch_add(1, Ordering::Relaxed);
                            }
                            last = Instant::now();
                        }
                    }
                });
            }
            // Background maintenance: WAL checkpointing and overlay
            // compaction run here, off the committing thread, so a large
            // checkpoint stalls neither commits (the commit lock is held
            // only for the final swap) nor queries.
            if let (Some(interval), Some(engine)) = (options.checkpoint_interval, backend.dynamic())
            {
                let draining = &draining;
                scope.spawn(move || {
                    let mut last = Instant::now();
                    while !draining.load(Ordering::Acquire) {
                        std::thread::sleep(SNAPSHOT_POLL);
                        if last.elapsed() >= interval {
                            if engine.is_durable() {
                                let _ = engine.checkpoint();
                            }
                            engine.compact();
                            last = Instant::now();
                        }
                    }
                });
            }
            // The accept loop owns the listener; dropping it on drain is
            // what makes "rejects new connections" an OS-level refusal
            // rather than an unanswered socket.
            let listener = listener;
            loop {
                if draining.load(Ordering::Acquire) {
                    drop(listener);
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        metrics.connections_total.fetch_add(1, Ordering::Relaxed);
                        let limit = options.max_connections;
                        if limit > 0 && metrics.active_connections.load(Ordering::Relaxed) >= limit
                        {
                            let mut transport = TcpTransport::new(stream);
                            let _ = transport.send(&Frame::error(
                                ErrorCode::TooManyConnections,
                                &format!("connection limit {limit} reached"),
                            ));
                            continue;
                        }
                        metrics.active_connections.fetch_add(1, Ordering::Relaxed);
                        let shared = &shared;
                        let read_timeout = options.read_timeout;
                        scope.spawn(move || {
                            handle_connection(stream, shared, read_timeout);
                            shared
                                .metrics
                                .active_connections
                                .fetch_sub(1, Ordering::Relaxed);
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // Transient per-connection accept failures (e.g. the
                    // peer reset before accept) must not stop the server.
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
            // Scope exit waits for every handler: that wait IS the drain.
        });

        let saved_plans = match &options.persist_path {
            Some(path) => persist::save_plan_cache(&cache, path).unwrap_or(0),
            None => 0,
        };
        Ok(ServerReport {
            connections: metrics.connections_total.load(Ordering::Relaxed),
            queries: metrics.queries_total.load(Ordering::Relaxed),
            updates: metrics.updates_total.load(Ordering::Relaxed),
            warm_start: warm,
            saved_plans,
            snapshots_written: snapshots_written.load(Ordering::Relaxed),
        })
    }
}

/// Everything a connection handler shares with the rest of the server.
struct Shared<'s> {
    backend: &'s ServeBackend<'s>,
    metrics: &'s Metrics,
    admission: &'s Admission,
    ledger: &'s RequestLedger,
    draining: &'s AtomicBool,
    repl: &'s ReplState,
}

/// Why a request got no success reply.
enum Refusal {
    /// Answer with this typed error frame.
    Error(WireError),
    /// The connection failed mid-reply; close it without another frame.
    Broken,
}

impl From<NetError> for Refusal {
    fn from(_: NetError) -> Self {
        Refusal::Broken
    }
}

/// A handler's answer: the success frame, or why there is none.
type Reply = Result<Frame, Refusal>;

/// A typed refusal without a retry-after hint.
fn refuse(code: ErrorCode, message: &str) -> Refusal {
    Refusal::Error(WireError::new(code, message))
}

impl Shared<'_> {
    /// A content error inside a well-formed frame: counted as a protocol
    /// error and answered with `code`; the connection stays open.
    fn malformed(&self, code: ErrorCode, message: &str) -> Refusal {
        self.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
        refuse(code, message)
    }

    /// Decodes a request's pattern bytes.
    fn pattern(&self, bytes: &[u8]) -> Result<Pattern, Refusal> {
        Pattern::from_canonical_bytes(bytes).ok_or_else(|| {
            self.malformed(
                ErrorCode::BadPayload,
                "pattern bytes are not a valid canonical pattern",
            )
        })
    }

    /// Queues for an admission permit, which the caller must `release()`
    /// after executing. On expiry the work is cancelled having consumed no
    /// pool slot and no worker time; a full wait queue sheds it at once
    /// with a typed `RETRY_LATER` and a hint. `skipped` names what did not
    /// happen, for the refusal message.
    fn admit(&self, deadline: Option<Instant>, skipped: &str) -> Result<(), Refusal> {
        match self.admission.acquire_until(deadline) {
            Admit::Admitted => Ok(()),
            Admit::DeadlineExpired => {
                self.metrics
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                Err(refuse(
                    ErrorCode::DeadlineExceeded,
                    &format!("deadline expired while queued; {skipped}"),
                ))
            }
            Admit::Overloaded => {
                self.metrics
                    .overload_rejections
                    .fetch_add(1, Ordering::Relaxed);
                let error = WireError::new(
                    ErrorCode::RetryLater,
                    &format!("admission queue is full; {skipped}"),
                );
                Err(Refusal::Error(
                    error.with_retry_after(retry_after_hint_ms(self.metrics)),
                ))
            }
        }
    }

    /// Ends a replication stream when the server drains or stops being
    /// the primary.
    fn check_still_shipping(&self) -> Result<(), Refusal> {
        if self.draining.load(Ordering::Acquire) {
            return Err(refuse(
                ErrorCode::ShuttingDown,
                "server is draining; resubscribe later",
            ));
        }
        if self.repl.role() != ReplRole::Primary {
            return Err(refuse(ErrorCode::NotPrimary, &self.repl.primary_addr()));
        }
        Ok(())
    }
}

/// The absolute deadline for a request's relative `deadline_ms` (0 = none).
fn deadline_after(deadline_ms: u32) -> Option<Instant> {
    (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)))
}

/// Speaks the protocol with one client until EOF, a framing error, or
/// drain. Never panics outward and never takes the server down. Every
/// reply, success or typed error, is sent from this one loop; only the
/// frames before a stream's last (enumeration pages, replication
/// batches) are sent by their handlers.
fn handle_connection(stream: TcpStream, shared: &Shared<'_>, read_timeout: Duration) {
    // The read timeout is the handler's poll granularity: an idle wait
    // wakes up this often to notice a drain. Zero would mean non-blocking
    // reads (a busy loop), so it is clamped away.
    let timeout = if read_timeout.is_zero() {
        Duration::from_millis(50)
    } else {
        read_timeout
    };
    stream.set_read_timeout(Some(timeout)).ok();
    let mut transport = TcpTransport::new(stream);
    loop {
        let (reply, keep_alive) = if shared.draining.load(Ordering::Acquire) {
            let error = refuse(
                ErrorCode::ShuttingDown,
                "server is draining; reconnect later",
            );
            (Err(error), false)
        } else {
            match transport.recv() {
                Ok(frame) => dispatch(&mut transport, frame, shared),
                Err(NetError::Idle) => continue,
                Err(NetError::Closed) => return,
                Err(error) => {
                    // Framing is broken: answer with the matching typed
                    // code (best-effort — the peer may already be gone)
                    // and drop this one connection.
                    let code = match &error {
                        NetError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
                        NetError::FrameTooLarge(_) => ErrorCode::FrameTooLarge,
                        _ => ErrorCode::BadFrame,
                    };
                    (Err(shared.malformed(code, &error.to_string())), false)
                }
            }
        };
        let sent = match reply {
            Ok(frame) => transport.send(&frame),
            Err(Refusal::Error(error)) => transport.send(&Frame::new(op::ERROR, error.encode())),
            Err(Refusal::Broken) => return,
        };
        if sent.is_err() || !keep_alive {
            return;
        }
    }
}

/// Routes one well-formed request frame to its handler. Returns the reply
/// and whether the connection stays open after it.
fn dispatch(transport: &mut TcpTransport, frame: Frame, shared: &Shared<'_>) -> (Reply, bool) {
    let payload = frame.payload.as_slice();
    match frame.opcode {
        op::PING => (Ok(Frame::new(op::PONG, frame.payload)), true),
        op::STATS => (Ok(stats_frame(shared)), true),
        op::HEALTH => (Ok(health_frame(shared)), true),
        op::COUNT => (handle_count(payload, shared), true),
        op::ENUMERATE => (handle_enumerate(transport, payload, shared), true),
        op::UPDATE => (handle_update(payload, shared), true),
        // Subscribing hands the whole connection over to the replication
        // stream; it never returns to request/response framing, so the
        // connection closes once the stream ends.
        op::REPL_SUBSCRIBE => (Err(handle_replication(transport, payload, shared)), false),
        op::PROMOTE => (handle_promote(payload, shared), true),
        op::SHUTDOWN => {
            shared.draining.store(true, Ordering::Release);
            (Ok(Frame::new(op::SHUTDOWN_OK, vec![])), false)
        }
        other => {
            let message = format!(
                "opcode {other:#04x} is not part of protocol v{}",
                super::protocol::VERSION
            );
            (
                Err(shared.malformed(ErrorCode::UnknownOpcode, &message)),
                true,
            )
        }
    }
}

/// The retry-after hint for shed queries: the observed median execution
/// latency (one queue "turn"), clamped to a sane band. An empty
/// histogram (cold server under a thundering herd) falls back to a flat
/// default.
fn retry_after_hint_ms(metrics: &Metrics) -> u32 {
    let histogram = metrics.latency_snapshot();
    let median_us = histogram
        .percentile_upper_bound_micros(0.5)
        .unwrap_or(u64::from(DEFAULT_RETRY_HINT_MS) * 1000);
    (median_us / 1000).clamp(1, 5_000) as u32
}

/// Runs one `COUNT` request end to end.
fn handle_count(payload: &[u8], shared: &Shared<'_>) -> Reply {
    let request = CountRequest::decode(payload).ok_or_else(|| {
        shared.malformed(
            ErrorCode::BadPayload,
            "count payload must be [flags u8][deadline_ms u32][id u64?][pattern bytes]",
        )
    })?;
    // Idempotent retry: a request ID we have already answered at this
    // generation replays the recorded reply — no admission, no execution,
    // no double count. A retry landing after a commit re-executes.
    let fingerprint = request_fingerprint(&request, shared.backend.generation());
    if request.request_id != 0 {
        if let Some(LedgerReply::Count(recorded)) =
            shared.ledger.lookup(request.request_id, fingerprint)
        {
            return Ok(Frame::new(op::COUNT_OK, recorded.encode()));
        }
    }
    let pattern = shared.pattern(&request.pattern)?;
    // A nonsensical sample rate is a content error in a well-formed
    // frame: typed reply, connection stays open, nothing executes.
    if let Some(rate) = request.mode.sample_rate() {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(shared.malformed(
                ErrorCode::InvalidArgument,
                "sample rate must be a finite value in (0, 1]",
            ));
        }
    }
    let deadline = deadline_after(request.deadline_ms);

    // Read-your-writes: a client may set a generation floor. Small
    // replication lag is absorbed by waiting briefly (before admission,
    // so the wait burns no pool slot); past the wait budget the client
    // is told RETRY_LATER — retrying another replica beats pinning a
    // handler thread here.
    if request.min_generation > 0 {
        let engine = shared.backend.dynamic().ok_or_else(|| {
            refuse(
                ErrorCode::BadPayload,
                "a generation floor needs a dynamic server; this graph is immutable",
            )
        })?;
        let wait_until = {
            let cap = Instant::now() + MIN_GENERATION_WAIT;
            deadline.map_or(cap, |d| d.min(cap))
        };
        while engine.generation() < request.min_generation {
            if Instant::now() >= wait_until {
                let message = format!(
                    "graph is at generation {}, below the requested floor {}",
                    engine.generation(),
                    request.min_generation
                );
                let error = WireError::new(ErrorCode::RetryLater, &message)
                    .with_retry_after(MIN_GENERATION_WAIT.as_millis() as u32);
                return Err(Refusal::Error(error));
            }
            std::thread::sleep(MIN_GENERATION_POLL);
        }
    }

    shared.admit(deadline, "the query was not executed")?;
    shared.metrics.queries_total.fetch_add(1, Ordering::Relaxed);
    let count_options = CountOptions {
        use_iep: !request.no_iep,
        hub_bitsets: request.hub_bitsets,
        ..CountOptions::default()
    };
    let start = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        shared
            .backend
            .count_mode(&pattern, count_options, request.mode)
    }));
    let elapsed = start.elapsed();
    shared.admission.release();

    let (count, ext) = match outcome {
        Err(_) => {
            return Err(refuse(
                ErrorCode::Internal,
                "query panicked; the worker pool isolated it",
            ))
        }
        Ok(Err(engine_error)) => {
            return Err(refuse(
                ErrorCode::PatternRejected,
                &engine_error.to_string(),
            ))
        }
        Ok(Ok(result)) => result,
    };
    let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
    shared.metrics.record_latency(micros);
    if deadline.is_some_and(|d| Instant::now() >= d) {
        shared
            .metrics
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        return Err(refuse(
            ErrorCode::DeadlineExceeded,
            "query completed after its deadline",
        ));
    }
    let ok = CountOk {
        count,
        elapsed_micros: micros,
        ext,
    };
    if request.request_id != 0 {
        shared
            .ledger
            .record(request.request_id, fingerprint, LedgerReply::Count(ok));
    }
    Ok(Frame::new(op::COUNT_OK, ok.encode()))
}

/// Runs one `ENUMERATE` request end to end: decode, admit, enumerate up
/// to the limit, then stream the embeddings as `ENUM_PAGE` frames. Every
/// page but the last is sent here; the last is the returned reply.
///
/// The admission permit covers only the matching itself — page streaming
/// is network-bound and must not hold a pool slot hostage to a slow
/// reader. The deadline is re-checked **between pages**, so a client can
/// bound how long a huge stream occupies its connection: an expired
/// deadline mid-stream answers a typed `DEADLINE_EXCEEDED` frame in
/// place of the next page (clients treat any error frame as terminating
/// the stream).
///
/// Enumeration is **not idempotent at the wire level** — there is no
/// request ID and no ledger entry: replaying pages after an ambiguous
/// failure could interleave two streams, and a truncated-limit re-run may
/// legitimately return different embeddings. Clients resume by issuing a
/// fresh request.
fn handle_enumerate(transport: &mut TcpTransport, payload: &[u8], shared: &Shared<'_>) -> Reply {
    let request = EnumerateRequest::decode(payload).ok_or_else(|| {
        shared.malformed(
            ErrorCode::BadPayload,
            "enumerate payload must be [flags u8][deadline_ms u32][limit u64]\
             [page_size u32][pattern bytes] with a nonzero limit",
        )
    })?;
    let pattern = shared.pattern(&request.pattern)?;
    let deadline = deadline_after(request.deadline_ms);

    shared.admit(deadline, "the enumeration was not executed")?;
    shared
        .metrics
        .enumerations_total
        .fetch_add(1, Ordering::Relaxed);
    let count_options = CountOptions {
        hub_bitsets: request.hub_bitsets,
        ..CountOptions::default()
    };
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        shared
            .backend
            .enumerate_with(&pattern, request.limit, count_options)
    }));
    shared.admission.release();

    let embeddings = match outcome {
        Err(_) => {
            return Err(refuse(
                ErrorCode::Internal,
                "enumeration panicked; the worker pool isolated it",
            ))
        }
        Ok(Err(engine_error)) => {
            return Err(refuse(
                ErrorCode::PatternRejected,
                &engine_error.to_string(),
            ))
        }
        Ok(Ok(embeddings)) => embeddings,
    };

    // Page streaming: the requested page size is clamped to what a frame
    // can carry; 0 means "largest legal page".
    let k = pattern.num_vertices().max(1);
    let cap = max_embeddings_per_page(k).max(1);
    let per_page = match request.page_size {
        0 => cap,
        requested => (requested as usize).min(cap),
    };
    let total_pages = embeddings.len().div_ceil(per_page).max(1);
    let mut page_index = 0;
    loop {
        let start = page_index * per_page;
        let end = (start + per_page).min(embeddings.len());
        let page = EnumPage {
            last: page_index + 1 == total_pages,
            pattern_size: k as u8,
            vertices: embeddings[start..end].concat(),
        };
        let frame = Frame::new(op::ENUM_PAGE, page.encode());
        shared.metrics.pages_sent.fetch_add(1, Ordering::Relaxed);
        if page.last {
            return Ok(frame);
        }
        transport.send(&frame)?;
        page_index += 1;
        if deadline.is_some_and(|d| Instant::now() >= d) {
            shared
                .metrics
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            return Err(refuse(
                ErrorCode::DeadlineExceeded,
                "deadline expired mid-stream; remaining pages dropped",
            ));
        }
    }
}

/// Runs one `UPDATE` request end to end: decode, replay-check the
/// ledger, admit, commit through the dynamic engine, answer with the
/// applied generation.
///
/// Updates are **not naturally idempotent** — recommitting a batch that
/// already applied would burn a generation and, for delete-then-insert
/// mixes, can change the graph — so the ledger matters more here than
/// for counts: a retry carrying a known request ID is answered with the
/// originally applied generation without touching the graph or the WAL,
/// whatever has committed since.
fn handle_update(payload: &[u8], shared: &Shared<'_>) -> Reply {
    // A replica never commits client batches locally — the message field
    // carries the primary's address (possibly empty) so a
    // failover-aware client can re-route the write.
    if shared.repl.role() != ReplRole::Primary {
        return Err(refuse(ErrorCode::NotPrimary, &shared.repl.primary_addr()));
    }
    let engine = shared.backend.dynamic().ok_or_else(|| {
        refuse(
            ErrorCode::ReadOnly,
            "this server serves an immutable graph; restart it with --wal to accept updates",
        )
    })?;
    let request = UpdateRequest::decode(payload).ok_or_else(|| {
        shared.malformed(
            ErrorCode::BadPayload,
            "update payload must be [flags u8][deadline_ms u32][id u64?]\
             [n_ins u32][n_del u32][edge pairs]",
        )
    })?;
    let fingerprint = update_fingerprint(&request);
    if request.request_id != 0 {
        if let Some(LedgerReply::Update(recorded)) =
            shared.ledger.lookup(request.request_id, fingerprint)
        {
            return Ok(Frame::new(op::UPDATE_OK, recorded.encode()));
        }
    }

    // Updates queue at the same admission gate as counts, so a client
    // flooding commits is shed (or deadline-cancelled) exactly like a
    // client flooding queries — commit order itself is serialised inside
    // the engine.
    shared.admit(
        deadline_after(request.deadline_ms),
        "the update was not applied",
    )?;
    let mut batch = EdgeBatch::new();
    for &(a, b) in &request.inserts {
        batch.insert(a, b);
    }
    for &(a, b) in &request.deletes {
        batch.delete(a, b);
    }
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| engine.apply(&batch)));
    shared.admission.release();

    let report = match outcome {
        Err(_) => {
            return Err(refuse(
                ErrorCode::Internal,
                "update panicked; the graph was not modified",
            ))
        }
        // Validation failures (vertex beyond the growth limit) reject the
        // whole batch before anything is logged or applied.
        Ok(Err(DurableError::Delta(DeltaError::VertexOutOfRange { vertex, limit }))) => {
            return Err(refuse(
                ErrorCode::BadPayload,
                &format!("vertex {vertex} exceeds the growth limit {limit}; batch rejected"),
            ))
        }
        // A WAL append/fsync failure means durability cannot be promised;
        // the batch was not applied in memory either.
        Ok(Err(wal_error)) => {
            return Err(refuse(
                ErrorCode::Internal,
                &format!("write-ahead log failure: {wal_error}"),
            ))
        }
        Ok(Ok(report)) => report,
    };
    shared.metrics.updates_total.fetch_add(1, Ordering::Relaxed);
    let ok = UpdateOk {
        generation: report.generation,
        inserted: report.inserted,
        deleted: report.deleted,
    };
    if request.request_id != 0 {
        shared
            .ledger
            .record(request.request_id, fingerprint, LedgerReply::Update(ok));
    }
    Ok(Frame::new(op::UPDATE_OK, ok.encode()))
}

/// Dispatches a `REPL_SUBSCRIBE`: validates the subscription, then hands
/// the connection over to [`serve_replication`]. Returns the refusal that
/// ends the subscription.
fn handle_replication(
    transport: &mut TcpTransport,
    payload: &[u8],
    shared: &Shared<'_>,
) -> Refusal {
    let Some(sub) = ReplSubscribe::decode(payload) else {
        return shared.malformed(
            ErrorCode::BadPayload,
            "subscribe payload must be [flags u8][generation u64][offset u64]",
        );
    };
    let Some(engine) = shared
        .backend
        .dynamic()
        .filter(|engine| engine.is_durable())
    else {
        return refuse(
            ErrorCode::ReadOnly,
            "replication requires a durable (--wal) primary",
        );
    };
    if shared.repl.role() != ReplRole::Primary {
        return refuse(ErrorCode::NotPrimary, &shared.repl.primary_addr());
    }
    shared.repl.subscribers.fetch_add(1, Ordering::Relaxed);
    let end = match serve_replication(transport, sub, engine, shared) {
        Ok(never) => match never {},
        Err(end) => end,
    };
    shared.repl.subscribers.fetch_sub(1, Ordering::Relaxed);
    end
}

/// The refusal for a WAL or checkpoint file the primary cannot read.
fn unreadable(what: &str, error: impl std::fmt::Display) -> Refusal {
    refuse(
        ErrorCode::Internal,
        &format!("primary {what} unreadable: {error}"),
    )
}

/// Ships the primary's WAL to one subscribed replica until the peer goes
/// away, the server drains, or this node stops being the primary; only
/// ever returns the refusal that ends the stream.
///
/// The shipped unit is a **byte range of the log**, not a decoded
/// record: the replica reassembles record frames with
/// [`graphpi_graph::wal::RecordStreamParser`], so a chunk boundary mid-
/// record lands exactly like a torn local WAL tail and the end-to-end
/// checksums are the original on-disk ones. Strict alternation
/// (`REPL_BATCH` → `REPL_ACK`) keeps the stream self-pacing; an empty
/// Records batch is the caught-up heartbeat.
///
/// Checkpoints reset the log in place, invalidating every raw offset.
/// The WAL epoch (bumped on every reset) makes that visible: each read
/// brackets the epoch, and a change discards the bytes and re-resolves
/// the cursor from the replica's last acknowledged generation — bytes
/// from one epoch are never shipped under another epoch's offsets.
fn serve_replication(
    transport: &mut TcpTransport,
    sub: ReplSubscribe,
    engine: &DynamicEngine,
    shared: &Shared<'_>,
) -> Result<Infallible, Refusal> {
    let wal_path = engine.wal_path().expect("durable engine has a WAL path");
    let mut cursor_gen = sub.generation;
    let mut offset_hint = sub.offset;
    'resolve: loop {
        shared.check_still_shipping()?;
        let epoch = engine.wal_epoch().unwrap_or(0);
        // A reset mid-open or mid-scan leaves the file momentarily at odds
        // with the cursor; retry against the new epoch instead of failing
        // the subscriber.
        let point = match WalReader::open(&wal_path).and_then(|mut reader| {
            let point = reader.resolve_cursor(cursor_gen, offset_hint)?;
            Ok((reader, point))
        }) {
            Ok(resolved) => resolved,
            Err(_) if engine.wal_epoch() != Some(epoch) => continue 'resolve,
            Err(error) => return Err(unreadable("log", error)),
        };
        if engine.wal_epoch() != Some(epoch) {
            continue 'resolve;
        }
        let (mut reader, point) = point;
        let mut offset = match point {
            ShipPoint::NeedsCheckpoint => {
                // Bootstrap complete: record shipping resumes at the top
                // of the reset log. A newer checkpoint landing mid-stream
                // restarts the bootstrap instead (the replica resets its
                // staging file on the chunk whose start offset is zero).
                if let Some(generation) = ship_checkpoint(transport, engine, shared)? {
                    cursor_gen = generation;
                    offset_hint = 0;
                }
                continue 'resolve;
            }
            ShipPoint::Records { offset } => offset,
        };
        loop {
            shared.check_still_shipping()?;
            if engine.wal_epoch() != Some(epoch) {
                offset_hint = 0;
                continue 'resolve;
            }
            let end = engine.wal_len().unwrap_or(offset);
            let horizon = engine.replication_horizon().unwrap_or(0);
            let (bytes, next_offset) = if offset < end {
                let want = usize::try_from(end - offset).map_or(REPL_CHUNK_BYTES, |remaining| {
                    remaining.min(REPL_CHUNK_BYTES)
                });
                let read = reader.read_raw(offset, want);
                // The bytes may straddle a reset; discard them.
                if engine.wal_epoch() != Some(epoch) {
                    offset_hint = 0;
                    continue 'resolve;
                }
                read.map_err(|error| unreadable("log", error))?
            } else {
                (Vec::new(), offset)
            };
            let heartbeat = bytes.is_empty();
            let batch = ReplBatch {
                payload: ReplPayload::Records,
                primary_generation: engine.generation(),
                generation: horizon,
                next_offset,
                bytes,
            };
            transport.send(&Frame::new(op::REPL_BATCH, batch.encode()))?;
            let ack = recv_ack(transport, shared.draining)?;
            shared
                .repl
                .note_shipment(engine.generation().saturating_sub(ack.generation));
            cursor_gen = ack.generation;
            offset = ack.offset;
            if heartbeat {
                std::thread::sleep(REPL_HEARTBEAT_PAUSE);
            }
        }
    }
}

/// Streams the primary's checkpoint file to a bootstrapping replica.
/// Returns `Ok(Some(generation))` when the replica acknowledged the
/// complete file (the record cursor then restarts at that generation,
/// offset 0) and `Ok(None)` when a newer checkpoint landed mid-stream
/// and the bootstrap must restart.
///
/// The generation is captured *before* the file is opened: any
/// checkpoint completing after the capture moves the horizon and fails
/// the final check, so stale bytes can never be installed under a fresh
/// generation. The open handle pins one inode, so the streamed bytes
/// are internally consistent even while a rename replaces the file.
fn ship_checkpoint(
    transport: &mut TcpTransport,
    engine: &DynamicEngine,
    shared: &Shared<'_>,
) -> Result<Option<u64>, Refusal> {
    let path = engine
        .checkpoint_file()
        .expect("durable engine has a checkpoint path");
    let generation = engine.replication_horizon().unwrap_or(0);
    let mut file = std::fs::File::open(&path).map_err(|error| unreadable("checkpoint", error))?;
    let mut sent = 0u64;
    loop {
        shared.check_still_shipping()?;
        let mut chunk = vec![0u8; REPL_CHUNK_BYTES];
        let n = file
            .read(&mut chunk)
            .map_err(|error| unreadable("checkpoint", error))?;
        if n == 0 {
            break;
        }
        chunk.truncate(n);
        sent += n as u64;
        let batch = ReplBatch {
            payload: ReplPayload::Checkpoint { done: false },
            primary_generation: engine.generation(),
            generation,
            next_offset: sent,
            bytes: chunk,
        };
        transport.send(&Frame::new(op::REPL_BATCH, batch.encode()))?;
        recv_ack(transport, shared.draining)?;
    }
    if engine.replication_horizon() != Some(generation) {
        return Ok(None);
    }
    let done = ReplBatch {
        payload: ReplPayload::Checkpoint { done: true },
        primary_generation: engine.generation(),
        generation,
        next_offset: sent,
        bytes: Vec::new(),
    };
    transport.send(&Frame::new(op::REPL_BATCH, done.encode()))?;
    recv_ack(transport, shared.draining)?;
    Ok(Some(generation))
}

/// Waits for the strict-alternation `REPL_ACK` that follows every
/// `REPL_BATCH`. Idle timeouts keep polling so a drain is noticed; any
/// other frame from the replica is a protocol violation that ends the
/// subscription.
fn recv_ack(transport: &mut TcpTransport, draining: &AtomicBool) -> Result<ReplAck, NetError> {
    loop {
        match transport.recv() {
            Ok(frame) if frame.opcode == op::REPL_ACK => {
                let Some(ack) = ReplAck::decode(&frame.payload) else {
                    return Err(NetError::Closed);
                };
                return Ok(ack);
            }
            Ok(_) => return Err(NetError::Closed),
            Err(NetError::Idle) => {
                if draining.load(Ordering::Acquire) {
                    return Err(NetError::Closed);
                }
            }
            Err(error) => return Err(error),
        }
    }
}

/// Handles an explicit `PROMOTE`: idempotent on a primary; on a replica
/// it requests promotion and waits for the apply loop to seal the
/// stream and flip the role.
fn handle_promote(payload: &[u8], shared: &Shared<'_>) -> Reply {
    if !payload.is_empty() {
        return Err(shared.malformed(ErrorCode::BadPayload, "promote carries no payload"));
    }
    let engine = shared.backend.dynamic().ok_or_else(|| {
        refuse(
            ErrorCode::ReadOnly,
            "promotion requires a dynamic (--wal) server",
        )
    })?;
    let repl = shared.repl;
    if repl.role() != ReplRole::Primary {
        repl.request_promote();
        let deadline = Instant::now() + PROMOTE_WAIT;
        while repl.role() != ReplRole::Primary {
            if Instant::now() >= deadline {
                return Err(refuse(
                    ErrorCode::Internal,
                    "promotion did not complete in time",
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let ok = PromoteOk {
        generation: engine.generation(),
    };
    Ok(Frame::new(op::PROMOTE_OK, ok.encode()))
}

/// Builds a `STATS_OK` reply from the live counters.
fn stats_frame(shared: &Shared<'_>) -> Frame {
    let Shared {
        backend,
        metrics,
        admission,
        repl,
        ..
    } = shared;
    let pool = backend.pool();
    let cache = backend.cache_stats();
    let stats = StatsOk {
        live_workers: pool.live_workers() as u32,
        max_in_flight: pool.max_in_flight() as u32,
        in_flight: pool.in_flight() as u32,
        queued: admission.waiting() as u32,
        cache_len: cache.len as u32,
        cache_capacity: cache.capacity as u32,
        warm_started: metrics.warm_started.load(Ordering::Relaxed) as u32,
        connections_total: metrics.connections_total.load(Ordering::Relaxed),
        queries_total: metrics.queries_total.load(Ordering::Relaxed),
        deadline_exceeded: metrics.deadline_exceeded.load(Ordering::Relaxed),
        protocol_errors: metrics.protocol_errors.load(Ordering::Relaxed),
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        overload_rejections: metrics.overload_rejections.load(Ordering::Relaxed),
        latency: metrics.latency_snapshot(),
        replication_lag: repl.replication_lag(backend.generation()),
        repl_role: repl.role(),
        enumerations_total: metrics.enumerations_total.load(Ordering::Relaxed),
        pages_sent: metrics.pages_sent.load(Ordering::Relaxed),
    };
    Frame::new(op::STATS_OK, stats.encode())
}

/// Builds a `HEALTH_OK` reply: drain beats overload, overload beats
/// ready, and any not-ready state carries a retry-after hint.
fn health_frame(shared: &Shared<'_>) -> Frame {
    let state = if shared.draining.load(Ordering::Acquire) {
        HealthState::Draining
    } else if shared.admission.is_full() {
        HealthState::Overloaded
    } else {
        HealthState::Ready
    };
    let retry_after_ms = match state {
        HealthState::Ready => 0,
        _ => retry_after_hint_ms(shared.metrics),
    };
    let health = HealthOk {
        state,
        retry_after_ms,
        role: shared.repl.role(),
        replication_lag: shared.repl.replication_lag(shared.backend.generation()),
    };
    Frame::new(op::HEALTH_OK, health.encode())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_gate_respects_deadlines() {
        let gate = Admission::new(1, 8);
        assert_eq!(gate.acquire_until(None), Admit::Admitted);
        // Second acquire with an already-expired deadline fails fast.
        let past = Instant::now();
        assert_eq!(gate.acquire_until(Some(past)), Admit::DeadlineExpired);
        // ... and with a short future deadline, fails after it passes.
        let start = Instant::now();
        assert_eq!(
            gate.acquire_until(Some(start + Duration::from_millis(20))),
            Admit::DeadlineExpired
        );
        assert!(start.elapsed() >= Duration::from_millis(20));
        // Releasing lets a waiter through.
        gate.release();
        assert_eq!(
            gate.acquire_until(Some(Instant::now() + Duration::from_secs(1))),
            Admit::Admitted
        );
    }

    #[test]
    fn zero_capacity_gate_still_admits_one() {
        let gate = Admission::new(0, 0);
        assert_eq!(gate.acquire_until(None), Admit::Admitted);
    }

    #[test]
    fn full_wait_queue_sheds_instead_of_queueing() {
        // One permit, one queue slot. Take the permit, fill the slot
        // with a waiter, then watch the third caller get shed instantly.
        let gate = Arc::new(Admission::new(1, 1));
        assert_eq!(gate.acquire_until(None), Admit::Admitted);
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.acquire_until(Some(Instant::now() + Duration::from_secs(5)))
            })
        };
        // Wait until the waiter is actually parked in the queue.
        while gate.waiting() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(gate.is_full());
        let start = Instant::now();
        assert_eq!(
            gate.acquire_until(Some(Instant::now() + Duration::from_secs(5))),
            Admit::Overloaded
        );
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "shedding must not wait out the deadline"
        );
        // Releasing admits the queued waiter, not the shed caller.
        gate.release();
        assert_eq!(waiter.join().unwrap(), Admit::Admitted);
        assert_eq!(gate.waiting(), 0);
        assert!(!gate.is_full());
    }

    #[test]
    fn ledger_replays_only_matching_fingerprints() {
        let ledger = RequestLedger::new(2);
        let reply = LedgerReply::Count(CountOk::new(42, 7));
        ledger.record(1, 0xAAAA, reply);
        assert_eq!(ledger.lookup(1, 0xAAAA), Some(reply));
        // Same ID from a different logical query: no replay.
        assert_eq!(ledger.lookup(1, 0xBBBB), None);
        assert_eq!(ledger.lookup(2, 0xAAAA), None);
        // FIFO eviction at capacity.
        ledger.record(2, 0xCCCC, LedgerReply::Count(CountOk::new(1, 1)));
        ledger.record(
            3,
            0xDDDD,
            LedgerReply::Update(UpdateOk {
                generation: 9,
                inserted: 2,
                deleted: 0,
            }),
        );
        assert_eq!(ledger.lookup(1, 0xAAAA), None, "oldest entry evicted");
        assert!(ledger.lookup(3, 0xDDDD).is_some());
    }

    #[test]
    fn update_fingerprints_separate_batches_and_domains() {
        let base = UpdateRequest {
            deadline_ms: 0,
            request_id: 5,
            inserts: vec![(1, 2), (3, 4)],
            deletes: vec![(5, 6)],
        };
        let same_but_other_id = UpdateRequest {
            request_id: 6,
            deadline_ms: 31,
            ..base.clone()
        };
        assert_eq!(
            update_fingerprint(&base),
            update_fingerprint(&same_but_other_id),
            "ids and deadlines don't change what a batch does"
        );
        let different_edges = UpdateRequest {
            inserts: vec![(1, 2), (3, 5)],
            ..base.clone()
        };
        assert_ne!(
            update_fingerprint(&base),
            update_fingerprint(&different_edges)
        );
        // Moving an edge across the insert/delete boundary changes the
        // batch even though the flat edge list is identical.
        let moved_edge = UpdateRequest {
            inserts: vec![(1, 2)],
            deletes: vec![(3, 4), (5, 6)],
            ..base.clone()
        };
        assert_ne!(update_fingerprint(&base), update_fingerprint(&moved_edge));
    }

    #[test]
    fn request_fingerprints_separate_different_queries() {
        let base = CountRequest {
            no_iep: false,
            hub_bitsets: false,
            deadline_ms: 0,
            request_id: 9,
            min_generation: 0,
            mode: QueryMode::Count,
            pattern: vec![3, 0b110, 0b101, 0b011],
        };
        let same_but_other_id = CountRequest {
            request_id: 10,
            deadline_ms: 77,
            ..base.clone()
        };
        // IDs and deadlines don't change the answer, so they are not
        // part of the fingerprint.
        assert_eq!(
            request_fingerprint(&base, 0),
            request_fingerprint(&same_but_other_id, 0)
        );
        let different_flags = CountRequest {
            no_iep: true,
            ..base.clone()
        };
        assert_ne!(
            request_fingerprint(&base, 0),
            request_fingerprint(&different_flags, 0)
        );
        let different_pattern = CountRequest {
            pattern: vec![3, 0b110, 0b101, 0b111],
            ..base.clone()
        };
        assert_ne!(
            request_fingerprint(&base, 0),
            request_fingerprint(&different_pattern, 0)
        );
        // The execution mode (and a sample mode's parameters) change the
        // answer, so they separate fingerprints too.
        let orbit = CountRequest {
            mode: QueryMode::Orbit,
            ..base.clone()
        };
        assert_ne!(
            request_fingerprint(&base, 0),
            request_fingerprint(&orbit, 0)
        );
        let sample_a = CountRequest {
            mode: QueryMode::sample(1, 0.5),
            ..base.clone()
        };
        let sample_b = CountRequest {
            mode: QueryMode::sample(2, 0.5),
            ..base
        };
        assert_ne!(
            request_fingerprint(&sample_a, 0),
            request_fingerprint(&sample_b, 0)
        );
        // A commit in between makes the same request a different query.
        assert_ne!(
            request_fingerprint(&sample_a, 3),
            request_fingerprint(&sample_a, 4)
        );
    }
}
