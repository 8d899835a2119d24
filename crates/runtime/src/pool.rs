//! Pools: supervised connections and reusable marshal buffers.
//!
//! A [`ConnectionPool`] owns a *dynamic set* of endpoints (server
//! addresses), each with its own connection slots and its own
//! [`CircuitBreaker`]. The set is fed by a [`Resolver`]: whenever the
//! resolver's version moves the pool re-resolves, creating endpoints
//! (and breakers) for replicas that joined and retiring those that
//! left — an in-flight call may finish on a retired endpoint, but no
//! new call routes there, and dropping the last reference frees its
//! breaker and slots. A pool built from a plain address list sits on
//! the trivial [`StaticResolver`], whose version never moves,
//! preserving the historical fixed-endpoint behaviour.
//!
//! Calls spread round-robin across routable endpoints, skipping
//! endpoints whose breaker is open; a slot whose connection died is
//! cleared and reconnected on the next call that lands on it. An
//! endpoint whose handshake reports version skew is quarantined
//! outright — a peer compiled against different declarations cannot
//! become healthy by waiting, only by re-joining the directory as a
//! fresh endpoint. With a [`HedgePolicy`] in the call options the pool
//! launches a second attempt on a different connection when the first
//! has not answered within the hedge delay — tail latency insurance
//! for idempotent operations. The pool itself implements
//! [`Connection`], so a [`RemoteRef`](crate::proxy::RemoteRef) can sit
//! directly on a pool and share it between any number of threads.
//!
//! Connections are made by a pluggable [`Connector`], which is how the
//! chaos harness splices fault injection under a real pool, and how
//! the fingerprint handshake reaches pooled connections.
//!
//! A [`BufferPool`] recycles the `Vec<u8>` request bodies of the fused
//! marshal path: once a connection's buffers have warmed to its message
//! sizes, encode allocates nothing. [`RequestEncoder`] is the checkout
//! handle — a `CdrWriter` over a pooled buffer that returns the buffer
//! to the pool if dropped unused.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use mockingbird_obs::{SpanKind, SpanRecord};
use mockingbird_values::Endian;
use mockingbird_wire::{CdrWriter, HandshakeInfo, Message, MessageKind};

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::budget::RetryBudget;
use crate::error::RuntimeError;
use crate::metrics::MetricsRegistry;
use crate::options::{CallOptions, HedgePolicy};
use crate::resolver::{ObjectName, Resolver, StaticResolver};
use crate::sync::{LockExt, RwLockExt};
use crate::transport::{Connection, MultiplexedConnection};

/// Buffers kept per pool; overflow is simply dropped (freed).
const MAX_POOLED_BUFFERS: usize = 16;

/// Largest capacity worth retaining: an occasional giant message must
/// not pin its buffer forever.
const MAX_POOLED_CAPACITY: usize = 1 << 20;

/// A stack of reusable byte buffers for request bodies and frames.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl BufferPool {
    /// An empty pool that counts nothing.
    #[must_use]
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Counts reuses and misses in `registry` (remote references wire
    /// their buffer pool to their own registry this way).
    #[must_use]
    pub fn with_metrics(mut self, registry: &Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(Arc::clone(registry));
        self
    }

    /// Checks out a cleared buffer, reusing a warmed one when available.
    pub fn get(&self) -> Vec<u8> {
        match self.free.plock().pop() {
            Some(buf) => {
                if let Some(m) = &self.metrics {
                    m.add_pool_reuse();
                }
                buf
            }
            None => {
                if let Some(m) = &self.metrics {
                    m.add_pool_miss();
                }
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the pool (cleared, capacity kept). Oversized
    /// or surplus buffers are dropped instead of retained.
    pub fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        buf.clear();
        let mut free = self.free.plock();
        if free.len() < MAX_POOLED_BUFFERS {
            free.push(buf);
        }
    }

    /// Buffers currently resting in the pool.
    pub fn idle(&self) -> usize {
        self.free.plock().len()
    }

    /// Checks out a [`RequestEncoder`]: a CDR writer over a pooled
    /// buffer.
    pub fn encoder(&self, endian: Endian) -> RequestEncoder<'_> {
        RequestEncoder {
            pool: self,
            writer: Some(CdrWriter::from_vec(self.get(), endian)),
        }
    }
}

/// A CDR writer checked out of a [`BufferPool`]. [`finish`] hands the
/// encoded bytes to the caller (who sends them and later [`put`]s the
/// buffer back); dropping an unfinished encoder returns the buffer to
/// the pool automatically.
///
/// [`finish`]: RequestEncoder::finish
/// [`put`]: BufferPool::put
#[derive(Debug)]
pub struct RequestEncoder<'p> {
    pool: &'p BufferPool,
    writer: Option<CdrWriter>,
}

impl RequestEncoder<'_> {
    /// The underlying CDR writer.
    pub fn writer(&mut self) -> &mut CdrWriter {
        self.writer.as_mut().expect("encoder already finished")
    }

    /// Consumes the encoder, returning the encoded bytes (the caller now
    /// owns the buffer and should return it via [`BufferPool::put`]).
    pub fn finish(mut self) -> Vec<u8> {
        self.writer
            .take()
            .expect("encoder already finished")
            .into_bytes()
    }
}

impl Drop for RequestEncoder<'_> {
    fn drop(&mut self) {
        if let Some(w) = self.writer.take() {
            self.pool.put(w.into_bytes());
        }
    }
}

/// Opens one connection to an address. The default connector dials a
/// [`MultiplexedConnection`]; tests and the chaos harness substitute
/// their own (e.g. wrapping each connection in fault injection).
pub type Connector =
    Arc<dyn Fn(SocketAddr) -> Result<Arc<dyn Connection>, RuntimeError> + Send + Sync>;

/// Successful call latencies remembered for the hedge p95 estimate.
const LATENCY_WINDOW: usize = 128;

/// Hedge delay used by [`HedgePolicy::P95`] before any latency history
/// exists.
const DEFAULT_HEDGE_DELAY: Duration = Duration::from_millis(10);

/// One server address with its connection slots and circuit breaker.
struct Endpoint {
    addr: SocketAddr,
    slots: Vec<Mutex<Option<Arc<dyn Connection>>>>,
    /// Slot rotation, separate from the pool's endpoint rotation so a
    /// hedged second attempt always advances to a *different* endpoint.
    next: AtomicUsize,
    breaker: CircuitBreaker,
    /// The peer answered the handshake with version skew: quarantined
    /// for good. A skewed peer stays skewed; only a directory change
    /// (the replica re-joining as a fresh endpoint) clears it.
    skewed: AtomicBool,
    /// The endpoint left the resolved set. In-flight attempts holding
    /// this `Endpoint` may finish, but routing never sees it again.
    retired: AtomicBool,
}

impl Endpoint {
    fn new(addr: SocketAddr, slots: usize, breaker: CircuitBreaker) -> Arc<Self> {
        Arc::new(Endpoint {
            addr,
            slots: (0..slots).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            breaker,
            skewed: AtomicBool::new(false),
            retired: AtomicBool::new(false),
        })
    }

    fn routable(&self) -> bool {
        !self.skewed.load(Ordering::Relaxed) && !self.retired.load(Ordering::Relaxed)
    }

    fn note_failure(&self, error: &RuntimeError) {
        if matches!(error, RuntimeError::VersionSkew(_)) {
            self.skewed.store(true, Ordering::Relaxed);
        }
        self.breaker.record_failure();
    }
}

/// The pool's binding to its naming layer: which resolver feeds the
/// endpoint set, which object name it resolves, and which resolver
/// version the current set reflects.
struct Directory {
    resolver: Arc<dyn Resolver>,
    name: ObjectName,
    /// Resolver version last applied to the endpoint set (0 = never).
    synced: AtomicU64,
    /// Serialises sync application; the fast-path version check stays
    /// lock-free.
    apply: Mutex<()>,
}

/// The shared heart of a [`ConnectionPool`] (hedge workers hold their
/// own `Arc` so an attempt can outlive the caller that abandoned it).
struct PoolCore {
    endpoints: RwLock<Vec<Arc<Endpoint>>>,
    directory: Directory,
    slots: usize,
    breaker_cfg: BreakerConfig,
    next: AtomicUsize,
    connector: Connector,
    latencies: Mutex<VecDeque<Duration>>,
    metrics: Arc<MetricsRegistry>,
    /// The pool-wide token bucket bounding aggregate retry
    /// amplification: successes deposit here (in [`attempt_at`]), and
    /// every retry, hedge, or failover redial over this pool withdraws
    /// first.
    ///
    /// [`attempt_at`]: PoolCore::attempt_at
    retry_budget: Arc<RetryBudget>,
}

impl PoolCore {
    /// The current endpoint set, re-resolved first if the directory
    /// version moved since the last sync.
    fn live(&self) -> Vec<Arc<Endpoint>> {
        self.sync_if_stale();
        self.endpoints.pread().clone()
    }

    /// Applies any pending directory change: endpoints still resolved
    /// keep their slots and breaker state; joiners get a fresh endpoint
    /// (and breaker); leavers are retired — no new call routes to them,
    /// and dropping the last reference frees breaker and slots, so
    /// churn cannot leak breakers.
    fn sync_if_stale(&self) {
        let v = self.directory.resolver.version();
        if self.directory.synced.load(Ordering::Acquire) == v {
            return;
        }
        let _guard = self.directory.apply.plock();
        if self.directory.synced.load(Ordering::Acquire) == v {
            return;
        }
        let resolved = self.directory.resolver.resolve(&self.directory.name);
        self.metrics.add_mesh_resolution();
        let mut eps = self.endpoints.pwrite();
        let next: Vec<Arc<Endpoint>> = resolved
            .iter()
            .map(
                |r| match eps.iter().find(|e| e.addr == r.addr && e.routable()) {
                    Some(e) => Arc::clone(e),
                    None => Endpoint::new(
                        r.addr,
                        self.slots,
                        CircuitBreaker::with_metrics(
                            self.breaker_cfg.clone(),
                            Arc::clone(&self.metrics),
                        ),
                    ),
                },
            )
            .collect();
        for e in eps.iter() {
            if !next.iter().any(|n| Arc::ptr_eq(n, e)) {
                e.retired.store(true, Ordering::Relaxed);
            }
        }
        *eps = next;
        self.directory.synced.store(v, Ordering::Release);
    }

    /// The next routable endpoint round-robin, skipping endpoints whose
    /// breaker refuses traffic. When every breaker is open the
    /// round-robin choice is used anyway — someone has to probe, and
    /// total refusal would turn a transient outage permanent. Skewed
    /// endpoints are never probed: a peer compiled against different
    /// declarations cannot recover by waiting.
    fn pick_endpoint(&self) -> Result<Arc<Endpoint>, RuntimeError> {
        let eps = self.live();
        let routable: Vec<&Arc<Endpoint>> = eps.iter().filter(|e| e.routable()).collect();
        if routable.is_empty() {
            return Err(if eps.is_empty() {
                RuntimeError::Transport(format!(
                    "no live endpoint resolves `{}`",
                    self.directory.name
                ))
            } else {
                RuntimeError::VersionSkew(format!(
                    "every resolved replica of `{}` is version-skewed",
                    self.directory.name
                ))
            });
        }
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        for k in 0..routable.len() {
            let ep = routable[(start + k) % routable.len()];
            if ep.breaker.allow() {
                return Ok(Arc::clone(ep));
            }
        }
        Ok(Arc::clone(routable[start % routable.len()]))
    }

    /// A live connection from one of `ep`'s slots, dialing through the
    /// connector when the slot is empty or unhealthy.
    fn checkout(&self, ep: &Endpoint) -> Result<Arc<dyn Connection>, RuntimeError> {
        let idx = ep.next.fetch_add(1, Ordering::Relaxed) % ep.slots.len();
        let mut slot = ep.slots[idx].plock();
        if let Some(conn) = slot.as_ref() {
            if conn.healthy() {
                return Ok(conn.clone());
            }
            *slot = None;
        }
        match (self.connector)(ep.addr) {
            Ok(conn) => {
                *slot = Some(conn.clone());
                Ok(conn)
            }
            Err(e) => {
                // A refused dial is as much a failure as a broken call
                // (and a skewed handshake quarantines the endpoint).
                ep.note_failure(&e);
                Err(e)
            }
        }
    }

    /// One full attempt: route, check out, call, and feed the outcome
    /// back into the endpoint's breaker. Sampled requests get one
    /// client span per attempt, carrying the endpoint and the breaker
    /// state the router saw — hedged duplicates and retries each leave
    /// their own span under the same trace id.
    fn attempt(
        &self,
        msg: &Message,
        options: &CallOptions,
    ) -> Result<Option<Message>, RuntimeError> {
        let ep = self.pick_endpoint()?;
        let breaker_seen = ep.breaker.state();
        let start = Instant::now();
        let outcome = self.attempt_at(&ep, msg, options);
        let duration_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        if let Some(t) = msg
            .trace
            .filter(|t| t.sampled && self.metrics.wants_span(duration_us))
        {
            let operation = match &msg.kind {
                MessageKind::Request { operation, .. } => operation.as_str(),
                _ => "",
            };
            let mut span = SpanRecord::new(t, SpanKind::Client, operation);
            span.endpoint = ep.addr.to_string();
            span.breaker = format!("{breaker_seen:?}");
            span.start_us = self.metrics.spans().now_us().saturating_sub(duration_us);
            span.duration_us = duration_us;
            span.bytes_out = msg.body.len() as u64;
            match &outcome {
                Ok(Some(reply)) => span.bytes_in = reply.body.len() as u64,
                Ok(None) => {}
                Err(e) => span.error = Some(e.to_string()),
            }
            self.metrics.record_span(span);
        }
        outcome
    }

    fn attempt_at(
        &self,
        ep: &Endpoint,
        msg: &Message,
        options: &CallOptions,
    ) -> Result<Option<Message>, RuntimeError> {
        let conn = self.checkout(ep)?;
        let start = Instant::now();
        let outcome = conn.call_with(msg, options);
        match &outcome {
            Ok(_) => {
                ep.breaker.record_success();
                self.record_latency(start.elapsed());
                // Successful traffic refills the retry budget (~0.1
                // token per success), so steady state keeps retries
                // flowing while a fault storm drains the bucket fast.
                self.retry_budget.deposit();
            }
            // A broken socket: count it and clear the slot so the next
            // caller reconnects.
            Err(RuntimeError::Transport(_)) => {
                ep.breaker.record_failure();
                self.invalidate(ep, &conn);
            }
            // The endpoint answered late, shed, or turned out to be
            // skewed mid-stream: unhealthy (skew also quarantines).
            Err(
                e @ (RuntimeError::Timeout(_)
                | RuntimeError::Overloaded(_)
                | RuntimeError::VersionSkew(_)),
            ) => {
                ep.note_failure(e);
            }
            // Application and protocol failures say nothing about the
            // endpoint's health.
            Err(_) => {}
        }
        outcome
    }

    fn invalidate(&self, ep: &Endpoint, conn: &Arc<dyn Connection>) {
        for slot in &ep.slots {
            let mut guard = slot.plock();
            if guard.as_ref().is_some_and(|c| Arc::ptr_eq(c, conn)) {
                *guard = None;
            }
        }
    }

    fn record_latency(&self, d: Duration) {
        let mut l = self.latencies.plock();
        if l.len() == LATENCY_WINDOW {
            l.pop_front();
        }
        l.push_back(d);
    }

    /// The 95th-percentile successful-call latency, if any history.
    fn p95(&self) -> Option<Duration> {
        let l = self.latencies.plock();
        if l.is_empty() {
            return None;
        }
        let mut v: Vec<Duration> = l.iter().copied().collect();
        v.sort_unstable();
        Some(v[(v.len() * 95 / 100).min(v.len() - 1)])
    }

    /// One health sweep over the *live* endpoint set: probe endpoints
    /// whose breaker is not closed (open past cooldown, or half-open)
    /// with a fresh dial, feeding the result back into the breaker.
    /// Closed endpoints are left to regular traffic; retired and skewed
    /// endpoints are never probed — their breakers are on the way out,
    /// and sweeping them would keep dead replicas on life support.
    fn health_sweep(&self) {
        for ep in self.live() {
            if !ep.routable() {
                continue;
            }
            if ep.breaker.state() == BreakerState::Closed || !ep.breaker.allow() {
                continue;
            }
            match (self.connector)(ep.addr) {
                Ok(conn) => {
                    ep.breaker.record_success();
                    // Park the probe connection in an empty slot rather
                    // than wasting the dial.
                    for slot in &ep.slots {
                        let mut guard = slot.plock();
                        if guard.is_none() {
                            *guard = Some(conn);
                            break;
                        }
                    }
                }
                Err(e) => ep.note_failure(&e),
            }
        }
    }
}

/// Builds a [`ConnectionPool`] over one or more endpoints, or over a
/// [`Resolver`] that names them.
pub struct PoolBuilder {
    addrs: Vec<SocketAddr>,
    slots: usize,
    breaker: BreakerConfig,
    connector: Option<Connector>,
    handshake: Option<HandshakeInfo>,
    metrics: Option<Arc<MetricsRegistry>>,
    resolver: Option<(Arc<dyn Resolver>, ObjectName)>,
    retry_budget: Option<Arc<RetryBudget>>,
}

impl PoolBuilder {
    /// Connection slots per endpoint (default 2).
    #[must_use]
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = slots.max(1);
        self
    }

    /// Circuit-breaker tuning for every endpoint (default
    /// [`BreakerConfig::default`]; use [`BreakerConfig::disabled`] for
    /// an unsupervised baseline).
    #[must_use]
    pub fn with_breaker(mut self, cfg: BreakerConfig) -> Self {
        self.breaker = cfg;
        self
    }

    /// A custom connector (fault injection, alternative transports).
    /// Overrides [`with_handshake`](Self::with_handshake).
    #[must_use]
    pub fn with_connector(mut self, connector: Connector) -> Self {
        self.connector = Some(connector);
        self
    }

    /// Performs the fingerprint handshake with `info` on every dial the
    /// default connector makes.
    #[must_use]
    pub fn with_handshake(mut self, info: HandshakeInfo) -> Self {
        self.handshake = Some(info);
        self
    }

    /// The registry the pool (its breakers, hedging, and the
    /// connections its default connector dials) records into. Defaults
    /// to a fresh registry per pool.
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// The token bucket gating retries, hedges, and failover redials
    /// sent through this pool (default [`RetryBudget::default_for_pool`];
    /// share one bucket across pools to bound a whole client's
    /// amplification, or size it down to make exhaustion observable in
    /// tests).
    #[must_use]
    pub fn with_retry_budget(mut self, budget: Arc<RetryBudget>) -> Self {
        self.retry_budget = Some(budget);
        self
    }

    /// Feeds the pool's endpoint set from `resolver` under `name`
    /// instead of the construction-time address list: the pool
    /// re-resolves whenever the resolver's version moves, creating
    /// breakers for replicas that join and retiring those that leave.
    /// When a resolver is set the address list may be empty.
    #[must_use]
    pub fn with_resolver(mut self, resolver: Arc<dyn Resolver>, name: ObjectName) -> Self {
        self.resolver = Some((resolver, name));
        self
    }

    /// The pool. Connections are dialed lazily on first use.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] when neither an endpoint nor
    /// a resolver was given.
    pub fn build(self) -> Result<ConnectionPool, RuntimeError> {
        if self.addrs.is_empty() && self.resolver.is_none() {
            return Err(RuntimeError::Transport(
                "pool needs an endpoint or a resolver".into(),
            ));
        }
        let metrics = self.metrics.unwrap_or_else(MetricsRegistry::shared);
        let connector = self.connector.unwrap_or_else(|| {
            let handshake = self.handshake;
            let metrics = Arc::clone(&metrics);
            Arc::new(move |addr| {
                MultiplexedConnection::connect_with_metrics(
                    addr,
                    handshake.as_ref(),
                    Arc::clone(&metrics),
                )
                .map(|c| Arc::new(c) as Arc<dyn Connection>)
            })
        });
        let (resolver, name) = match self.resolver {
            Some((r, n)) => (r, n),
            None => (
                Arc::new(StaticResolver::new(self.addrs)) as Arc<dyn Resolver>,
                ObjectName::any(""),
            ),
        };
        let core = Arc::new(PoolCore {
            endpoints: RwLock::new(Vec::new()),
            directory: Directory {
                resolver,
                name,
                synced: AtomicU64::new(0),
                apply: Mutex::new(()),
            },
            slots: self.slots,
            breaker_cfg: self.breaker,
            next: AtomicUsize::new(0),
            connector,
            latencies: Mutex::new(VecDeque::new()),
            metrics,
            retry_budget: self
                .retry_budget
                .unwrap_or_else(|| Arc::new(RetryBudget::default_for_pool())),
        });
        core.sync_if_stale();
        Ok(ConnectionPool { core })
    }
}

/// A supervised pool of connections across a dynamic set of endpoints:
/// per-endpoint circuit breakers, breaker-aware round-robin routing,
/// lazy reconnection, resolver-driven membership, and optional hedged
/// attempts.
pub struct ConnectionPool {
    core: Arc<PoolCore>,
}

impl ConnectionPool {
    /// A builder over `addrs` with default slots and breaker tuning.
    #[must_use]
    pub fn builder(addrs: Vec<SocketAddr>) -> PoolBuilder {
        PoolBuilder {
            addrs,
            slots: 2,
            breaker: BreakerConfig::default(),
            connector: None,
            handshake: None,
            metrics: None,
            resolver: None,
            retry_budget: None,
        }
    }

    /// Connects a single-endpoint pool with `size` slots, dialing the
    /// first slot eagerly (surfacing config errors now).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] if the first connect fails.
    pub fn connect(addr: SocketAddr, size: usize) -> Result<Self, RuntimeError> {
        let pool = Self::builder(vec![addr]).with_slots(size).build()?;
        let ep = pool.core.pick_endpoint()?;
        pool.core.checkout(&ep)?;
        Ok(pool)
    }

    /// The registry this pool records breaker transitions, hedging,
    /// spans, and (through its dialed connections) transport counters
    /// into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.core.metrics
    }

    /// Total connection slots across all live endpoints.
    pub fn size(&self) -> usize {
        self.core.live().iter().map(|e| e.slots.len()).sum()
    }

    /// The first live endpoint's address (the only one for
    /// single-endpoint pools).
    ///
    /// # Panics
    ///
    /// Panics when the resolver currently resolves to nothing.
    pub fn addr(&self) -> SocketAddr {
        self.core.live()[0].addr
    }

    /// Every live endpoint address, in routing order.
    pub fn endpoints(&self) -> Vec<SocketAddr> {
        self.core.live().iter().map(|e| e.addr).collect()
    }

    /// The breaker state of live endpoint `index` (routing order).
    pub fn breaker_state(&self, index: usize) -> BreakerState {
        self.core.live()[index].breaker.state()
    }

    /// The resolver version the current endpoint set reflects.
    pub fn observed_version(&self) -> u64 {
        self.core.sync_if_stale();
        self.core.directory.synced.load(Ordering::Acquire)
    }

    /// Applies any pending directory change now (routing also does this
    /// lazily before every call; this is for callers that want the
    /// membership observation point to be explicit).
    pub fn resync(&self) {
        self.core.sync_if_stale();
    }

    /// Whether this pool's endpoint set can change after construction.
    pub fn is_dynamic(&self) -> bool {
        self.core.directory.resolver.is_dynamic()
    }

    /// Runs one health sweep now: endpoints whose breaker is open (past
    /// cooldown) or half-open are probed with a fresh dial and the
    /// breaker told the result.
    pub fn health_check(&self) {
        self.core.health_sweep();
    }

    /// Starts a background thread sweeping [`health_check`] every
    /// `interval`. The thread holds only a weak reference: it exits on
    /// the first tick after the pool is dropped.
    ///
    /// [`health_check`]: ConnectionPool::health_check
    pub fn start_health_checker(&self, interval: Duration) {
        let weak = Arc::downgrade(&self.core);
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            let Some(core) = weak.upgrade() else { break };
            core.health_sweep();
        });
    }

    /// The hedge delay `policy` implies given current latency history.
    fn hedge_delay(&self, policy: HedgePolicy) -> Duration {
        match policy {
            HedgePolicy::After(d) => d,
            HedgePolicy::P95 => self.core.p95().unwrap_or(DEFAULT_HEDGE_DELAY),
        }
    }
}

impl Connection for ConnectionPool {
    fn call(&self, msg: &Message) -> Result<Option<Message>, RuntimeError> {
        self.call_with(msg, &CallOptions::default())
    }

    fn call_with(
        &self,
        msg: &Message,
        options: &CallOptions,
    ) -> Result<Option<Message>, RuntimeError> {
        // Hedging needs a reply to race for and a second connection to
        // race on; otherwise fall through to a single attempt.
        let hedge = match options.hedge {
            Some(policy)
                if self.size() > 1
                    && matches!(
                        msg.kind,
                        MessageKind::Request {
                            response_expected: true,
                            ..
                        }
                    ) =>
            {
                Some(policy)
            }
            _ => None,
        };
        let Some(policy) = hedge else {
            return self.core.attempt(msg, options);
        };

        let delay = self.hedge_delay(policy);
        // The duplicate keeps the logical call's trace id but gets its
        // own span id, so the span log shows two racing attempts of one
        // trace rather than two unrelated calls.
        let hedge_trace = msg.trace.map(|t| t.child());
        let (tx, rx) = mpsc::channel();
        let spawn_attempt = |tag: u8| {
            let core = self.core.clone();
            let msg = if tag == 1 {
                match hedge_trace {
                    Some(t) => msg.clone().with_trace(t),
                    None => msg.clone(),
                }
            } else {
                msg.clone()
            };
            let mut opts = options.clone();
            opts.hedge = None;
            let tx = tx.clone();
            std::thread::spawn(move || {
                let _ = tx.send((tag, core.attempt(&msg, &opts)));
            });
        };
        let mark_winner = |tag: u8| {
            let winner = if tag == 1 { hedge_trace } else { msg.trace };
            if let Some(t) = winner.filter(|t| t.sampled) {
                self.core.metrics.mark_winner(t.trace_id, t.span_id);
            }
        };
        spawn_attempt(0);
        match rx.recv_timeout(delay) {
            // The primary answered (either way) within the hedge delay:
            // failures go to the retry layer, not a hedge.
            Ok((_, outcome)) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // A hedge is a duplicate send — it amplifies offered
                // load exactly like a retry, so it buys a token from
                // the same budget. An empty bucket means no second
                // attempt: wait out the primary instead.
                if !self.core.retry_budget.try_withdraw() {
                    self.core.metrics.add_retry_budget_exhausted();
                    return match rx.recv() {
                        Ok((_, outcome)) => outcome,
                        Err(_) => Err(RuntimeError::Transport("hedge attempts vanished".into())),
                    };
                }
                self.core.metrics.add_hedge_fired();
                spawn_attempt(1);
                // A hedge that loses its race consumed no server
                // capacity worth charging for: its token goes back.
                let refund_if_lost = |winner: u8| {
                    if winner != 1 {
                        self.core.retry_budget.refund();
                    }
                };
                let first = rx
                    .recv()
                    .map_err(|_| RuntimeError::Transport("hedge attempts vanished".into()))?;
                match first {
                    (tag, Ok(reply)) => {
                        if tag == 1 {
                            self.core.metrics.add_hedge_won();
                        }
                        refund_if_lost(tag);
                        mark_winner(tag);
                        Ok(reply)
                    }
                    // First arrival failed: give the straggler its
                    // chance before reporting the failure.
                    (_, Err(first_err)) => match rx.recv() {
                        Ok((tag, Ok(reply))) => {
                            if tag == 1 {
                                self.core.metrics.add_hedge_won();
                            }
                            refund_if_lost(tag);
                            mark_winner(tag);
                            Ok(reply)
                        }
                        _ => {
                            refund_if_lost(0);
                            Err(first_err)
                        }
                    },
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(RuntimeError::Transport("hedge attempts vanished".into()))
            }
        }
    }

    fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        Some(Arc::clone(&self.core.metrics))
    }

    fn supports_failover(&self) -> bool {
        // A dynamic directory means another replica may serve the name:
        // worth re-resolving and retrying. The static path keeps the
        // historical fail-fast semantics.
        self.core.directory.resolver.is_dynamic()
    }

    fn retry_budget(&self) -> Option<Arc<RetryBudget>> {
        Some(Arc::clone(&self.core.retry_budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{Dispatcher, Servant, WireOp, WireServant};
    use crate::transport::{InMemoryConnection, TcpServer};
    use mockingbird_mtype::{IntRange, MtypeGraph};
    use mockingbird_values::{Endian, MValue};
    use mockingbird_wire::{CdrReader, CdrWriter, MessageKind};
    use std::collections::HashMap;

    #[test]
    fn buffer_pool_recycles_capacity() {
        let pool = BufferPool::new();
        let mut enc = pool.encoder(Endian::Little);
        enc.writer().put_bytes(&[0u8; 100]);
        let body = enc.finish();
        let cap = body.capacity();
        let ptr = body.as_ptr();
        pool.put(body);
        assert_eq!(pool.idle(), 1);
        // The next checkout gets the same storage back, cleared.
        let reused = pool.get();
        assert_eq!(reused.len(), 0);
        assert_eq!(reused.capacity(), cap);
        assert_eq!(reused.as_ptr(), ptr);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn dropped_encoder_returns_its_buffer() {
        let pool = BufferPool::new();
        {
            let mut enc = pool.encoder(Endian::Big);
            enc.writer().put_bytes(b"abandoned");
            // Dropped without finish(): the buffer must not leak away.
        }
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let pool = BufferPool::new();
        pool.put(Vec::with_capacity(MAX_POOLED_CAPACITY + 1));
        assert_eq!(pool.idle(), 0);
    }

    fn echo_server() -> (TcpServer, Arc<MtypeGraph>, mockingbird_mtype::MtypeId) {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let rec = g.record(vec![i]);
        let graph = Arc::new(g);
        let servant: Arc<dyn Servant> = Arc::new(|_: &str, v: MValue| Ok(v));
        let mut ops = HashMap::new();
        ops.insert("echo".to_string(), WireOp::new(graph.clone(), rec, rec));
        let d = Arc::new(Dispatcher::new());
        d.register(b"obj".to_vec(), WireServant::new(servant, ops));
        let server = TcpServer::bind("127.0.0.1:0", d).unwrap();
        (server, graph, rec)
    }

    fn echo(
        pool: &ConnectionPool,
        graph: &MtypeGraph,
        rec: mockingbird_mtype::MtypeId,
        n: i128,
    ) -> i128 {
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(graph, rec, &MValue::Record(vec![MValue::Int(n)]))
            .unwrap();
        let req = Message::request(
            1,
            true,
            b"obj".to_vec(),
            "echo",
            Endian::Little,
            w.into_bytes(),
        );
        let reply = pool.call(&req).unwrap().unwrap();
        let MessageKind::Reply { .. } = reply.kind else {
            panic!()
        };
        let mut r = CdrReader::new(&reply.body, reply.endian);
        let MValue::Record(items) = r.get_value(graph, rec).unwrap() else {
            panic!()
        };
        let MValue::Int(v) = items[0] else { panic!() };
        v
    }

    #[test]
    fn pool_round_robins_and_lazily_fills() {
        let (mut server, graph, rec) = echo_server();
        let pool = ConnectionPool::connect(server.addr(), 3).unwrap();
        assert_eq!(pool.size(), 3);
        for k in 0..9 {
            assert_eq!(echo(&pool, &graph, rec, k), k);
        }
        // Every slot got used and filled in.
        assert!(pool.core.live()[0]
            .slots
            .iter()
            .all(|s| s.plock().is_some()));
        server.shutdown();
    }

    #[test]
    fn pool_reconnects_after_server_restart() {
        let (mut server, graph, rec) = echo_server();
        let addr = server.addr();
        let pool = ConnectionPool::connect(addr, 1).unwrap();
        assert_eq!(echo(&pool, &graph, rec, 7), 7);
        server.shutdown();

        // Calls now fail with transport errors; the slot is invalidated.
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(&graph, rec, &MValue::Record(vec![MValue::Int(1)]))
            .unwrap();
        let req = Message::request(
            1,
            true,
            b"obj".to_vec(),
            "echo",
            Endian::Little,
            w.into_bytes(),
        );
        for _ in 0..20 {
            if pool.call(&req).is_err() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        // A new server on the *same* port; the pool reconnects lazily.
        let mut g2 = MtypeGraph::new();
        let i = g2.integer(IntRange::signed_bits(32));
        let rec2 = g2.record(vec![i]);
        let graph2 = Arc::new(g2);
        let servant: Arc<dyn Servant> = Arc::new(|_: &str, v: MValue| Ok(v));
        let mut ops = HashMap::new();
        ops.insert("echo".to_string(), WireOp::new(graph2.clone(), rec2, rec2));
        let d = Arc::new(Dispatcher::new());
        d.register(b"obj".to_vec(), WireServant::new(servant, ops));
        let Ok(mut server2) = TcpServer::bind(&addr.to_string(), d) else {
            // The OS may hold the port in TIME_WAIT; reconnection is
            // already proven by the slot invalidation above.
            return;
        };
        let mut ok = false;
        for _ in 0..50 {
            if echo_try(&pool, &graph, rec, 9) == Some(9) {
                ok = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert!(ok, "pool reconnected to the restarted server");
        server2.shutdown();
    }

    /// An in-memory echo dispatcher plus its wire types, for connector-
    /// based pool tests that need no sockets.
    fn echo_dispatcher() -> (Arc<Dispatcher>, Arc<MtypeGraph>, mockingbird_mtype::MtypeId) {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let rec = g.record(vec![i]);
        let graph = Arc::new(g);
        let servant: Arc<dyn Servant> = Arc::new(|_: &str, v: MValue| Ok(v));
        let mut ops = HashMap::new();
        ops.insert("echo".to_string(), WireOp::new(graph.clone(), rec, rec));
        let d = Arc::new(Dispatcher::new());
        d.register(b"obj".to_vec(), WireServant::new(servant, ops));
        (d, graph, rec)
    }

    fn fast_breaker() -> crate::breaker::BreakerConfig {
        crate::breaker::BreakerConfig {
            consecutive_failures: 3,
            cooldown: std::time::Duration::from_millis(10),
            half_open_successes: 2,
            ..Default::default()
        }
    }

    #[test]
    fn breaker_routes_around_a_refused_endpoint() {
        let (d, graph, rec) = echo_dispatcher();
        let dead: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let live: SocketAddr = "127.0.0.1:10".parse().unwrap();
        let connector: Connector = Arc::new(move |addr| {
            if addr == dead {
                Err(RuntimeError::Transport("dial refused".into()))
            } else {
                Ok(Arc::new(InMemoryConnection::new(d.clone())) as Arc<dyn Connection>)
            }
        });
        let pool = ConnectionPool::builder(vec![dead, live])
            .with_slots(1)
            .with_breaker(crate::breaker::BreakerConfig {
                consecutive_failures: 3,
                cooldown: std::time::Duration::from_secs(30),
                ..Default::default()
            })
            .with_connector(connector)
            .build()
            .unwrap();
        // Calls routed to the dead endpoint fail until its breaker
        // trips; tolerate those.
        let mut failures = 0;
        for k in 0..12 {
            if echo_try(&pool, &graph, rec, k).is_none() {
                failures += 1;
            }
        }
        assert!(failures >= 3, "the dead endpoint failed at least 3 dials");
        assert_eq!(pool.breaker_state(0), BreakerState::Open);
        assert_eq!(pool.breaker_state(1), BreakerState::Closed);
        // With the breaker open, routing skips the dead endpoint: every
        // call now succeeds.
        for k in 0..10 {
            assert_eq!(echo(&pool, &graph, rec, k), k);
        }
    }

    #[test]
    fn health_checks_recover_a_revived_endpoint() {
        use std::sync::atomic::AtomicBool;
        let (d, graph, rec) = echo_dispatcher();
        let alive = Arc::new(AtomicBool::new(false));
        let alive2 = alive.clone();
        let connector: Connector = Arc::new(move |_| {
            if alive2.load(Ordering::SeqCst) {
                Ok(Arc::new(InMemoryConnection::new(d.clone())) as Arc<dyn Connection>)
            } else {
                Err(RuntimeError::Transport("endpoint down".into()))
            }
        });
        let pool = ConnectionPool::builder(vec!["127.0.0.1:9".parse().unwrap()])
            .with_slots(1)
            .with_breaker(fast_breaker())
            .with_connector(connector)
            .build()
            .unwrap();
        for k in 0..3 {
            assert!(echo_try(&pool, &graph, rec, k).is_none());
        }
        assert_eq!(pool.breaker_state(0), BreakerState::Open);
        // A sweep while still down re-opens after the failed probe.
        std::thread::sleep(std::time::Duration::from_millis(15));
        pool.health_check();
        assert_eq!(pool.breaker_state(0), BreakerState::Open);
        // The endpoint comes back: two successful probes close it.
        alive.store(true, Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(15));
        pool.health_check();
        pool.health_check();
        assert_eq!(pool.breaker_state(0), BreakerState::Closed);
        assert_eq!(echo(&pool, &graph, rec, 5), 5);
    }

    /// A connection that answers after a fixed pause — a stand-in for a
    /// slow endpoint in hedging tests.
    struct SlowConnection {
        inner: InMemoryConnection,
        delay: std::time::Duration,
    }

    impl Connection for SlowConnection {
        fn call(&self, msg: &Message) -> Result<Option<Message>, RuntimeError> {
            std::thread::sleep(self.delay);
            self.inner.call(msg)
        }
    }

    #[test]
    fn hedged_call_beats_a_slow_endpoint() {
        use crate::options::HedgePolicy;
        let (d, graph, rec) = echo_dispatcher();
        let slow: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let connector: Connector = Arc::new(move |addr| {
            if addr == slow {
                Ok(Arc::new(SlowConnection {
                    inner: InMemoryConnection::new(d.clone()),
                    delay: std::time::Duration::from_millis(300),
                }) as Arc<dyn Connection>)
            } else {
                Ok(Arc::new(InMemoryConnection::new(d.clone())) as Arc<dyn Connection>)
            }
        });
        let pool = ConnectionPool::builder(vec![slow, "127.0.0.1:10".parse().unwrap()])
            .with_slots(1)
            .with_connector(connector)
            .build()
            .unwrap();
        let opts =
            CallOptions::new().with_hedge(HedgePolicy::After(std::time::Duration::from_millis(10)));
        // Force the primary attempt onto the slow endpoint: the hedge
        // must fire and win on the fast one.
        pool.core.next.store(0, Ordering::SeqCst);
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(&graph, rec, &MValue::Record(vec![MValue::Int(9)]))
            .unwrap();
        let req = Message::request(
            1,
            true,
            b"obj".to_vec(),
            "echo",
            Endian::Little,
            w.into_bytes(),
        );
        let start = std::time::Instant::now();
        let reply = pool.call_with(&req, &opts).unwrap().unwrap();
        let elapsed = start.elapsed();
        let mut r = CdrReader::new(&reply.body, reply.endian);
        let MValue::Record(items) = r.get_value(&graph, rec).unwrap() else {
            panic!()
        };
        assert_eq!(items[0], MValue::Int(9));
        assert!(
            elapsed < std::time::Duration::from_millis(200),
            "hedge should beat the 300 ms endpoint, took {elapsed:?}"
        );
    }

    /// A resolver whose answer a test can swap out, bumping the version
    /// so pools pick the change up on their next call.
    struct TestResolver {
        current: Mutex<Vec<SocketAddr>>,
        version: AtomicU64,
    }

    impl TestResolver {
        fn new(addrs: Vec<SocketAddr>) -> Self {
            TestResolver {
                current: Mutex::new(addrs),
                version: AtomicU64::new(1),
            }
        }

        fn set(&self, addrs: Vec<SocketAddr>) {
            *self.current.plock() = addrs;
            self.version.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl Resolver for TestResolver {
        fn resolve(&self, _name: &ObjectName) -> Vec<crate::resolver::ResolvedEndpoint> {
            self.current
                .plock()
                .iter()
                .copied()
                .map(crate::resolver::ResolvedEndpoint::plain)
                .collect()
        }

        fn version(&self) -> u64 {
            self.version.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn resolver_changes_create_and_retire_endpoints() {
        let (d, graph, rec) = echo_dispatcher();
        let connector: Connector = Arc::new(move |_| {
            Ok(Arc::new(InMemoryConnection::new(d.clone())) as Arc<dyn Connection>)
        });
        let a: SocketAddr = "127.0.0.1:11".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:12".parse().unwrap();
        let resolver = Arc::new(TestResolver::new(vec![a, b]));
        let pool = ConnectionPool::builder(Vec::new())
            .with_slots(1)
            .with_connector(connector)
            .with_resolver(resolver.clone(), ObjectName::any("echo"))
            .build()
            .unwrap();
        assert!(pool.is_dynamic());
        assert_eq!(pool.endpoints(), vec![a, b]);
        assert_eq!(echo(&pool, &graph, rec, 1), 1);
        // Capture a weak handle to the endpoint about to leave: once it
        // has left, nothing may keep its breaker alive.
        let departing = Arc::downgrade(&pool.core.endpoints.pread()[1]);
        resolver.set(vec![a]);
        assert_eq!(pool.endpoints(), vec![a]);
        for k in 0..8 {
            assert_eq!(echo(&pool, &graph, rec, k), k);
        }
        assert!(
            departing.upgrade().is_none(),
            "a departed endpoint's breaker and slots are freed, not leaked"
        );
        // A rejoin arrives as a fresh endpoint with a fresh breaker.
        resolver.set(vec![a, b]);
        assert_eq!(pool.endpoints(), vec![a, b]);
        assert_eq!(pool.breaker_state(1), BreakerState::Closed);
    }

    #[test]
    fn version_skew_quarantines_an_endpoint() {
        let (d, graph, rec) = echo_dispatcher();
        let skewed: SocketAddr = "127.0.0.1:13".parse().unwrap();
        let connector: Connector = Arc::new(move |addr| {
            if addr == skewed {
                Err(RuntimeError::VersionSkew(
                    "peer compiled against different declarations".into(),
                ))
            } else {
                Ok(Arc::new(InMemoryConnection::new(d.clone())) as Arc<dyn Connection>)
            }
        });
        let pool = ConnectionPool::builder(vec![skewed, "127.0.0.1:14".parse().unwrap()])
            .with_slots(1)
            .with_connector(connector)
            .build()
            .unwrap();
        // At most the first routed call lands on the skewed endpoint;
        // after that it is quarantined for good — no breaker cooldown
        // ever routes traffic back to it.
        let mut failures = 0;
        for k in 0..10 {
            if echo_try(&pool, &graph, rec, k).is_none() {
                failures += 1;
            }
        }
        assert!(failures <= 1, "one skewed dial at most, saw {failures}");
        for k in 0..10 {
            assert_eq!(echo(&pool, &graph, rec, k), k);
        }
    }

    #[test]
    fn all_skewed_replicas_surface_version_skew() {
        let (_d, graph, rec) = echo_dispatcher();
        let connector: Connector =
            Arc::new(move |_| Err(RuntimeError::VersionSkew("skewed".into())));
        let pool = ConnectionPool::builder(vec!["127.0.0.1:15".parse().unwrap()])
            .with_slots(1)
            .with_connector(connector)
            .build()
            .unwrap();
        assert!(echo_try(&pool, &graph, rec, 1).is_none());
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(&graph, rec, &MValue::Record(vec![MValue::Int(1)]))
            .unwrap();
        let req = Message::request(
            1,
            true,
            b"obj".to_vec(),
            "echo",
            Endian::Little,
            w.into_bytes(),
        );
        assert!(matches!(pool.call(&req), Err(RuntimeError::VersionSkew(_))));
    }

    fn echo_try(
        pool: &ConnectionPool,
        graph: &MtypeGraph,
        rec: mockingbird_mtype::MtypeId,
        n: i128,
    ) -> Option<i128> {
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(graph, rec, &MValue::Record(vec![MValue::Int(n)]))
            .ok()?;
        let req = Message::request(
            1,
            true,
            b"obj".to_vec(),
            "echo",
            Endian::Little,
            w.into_bytes(),
        );
        let reply = pool.call(&req).ok()??;
        let mut r = CdrReader::new(&reply.body, reply.endian);
        let MValue::Record(items) = r.get_value(graph, rec).ok()? else {
            return None;
        };
        let MValue::Int(v) = items[0] else {
            return None;
        };
        Some(v)
    }
}
