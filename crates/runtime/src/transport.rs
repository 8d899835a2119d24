//! Connections carrying framed messages.
//!
//! Two client transports implement [`Connection`]:
//!
//! - [`InMemoryConnection`] — frames and marshals like a network
//!   transport but dispatches synchronously (marshalling cost without
//!   socket noise);
//! - [`MultiplexedConnection`] — a shared nonblocking socket on which
//!   each caller writes its own request frame (when nothing is queued
//!   ahead of it; else it queues behind, and the process-wide
//!   [`reactor`](crate::reactor) finishes the queue on write
//!   readiness) and reads its own reply: the first caller to find no
//!   reader reads the socket, hands the replies it passes to their
//!   callers by GIOP request id, and hands the role on when it leaves,
//!   so N threads pipeline calls over one connection without a reader
//!   thread per socket.
//!
//! Per-call deadlines arrive via [`CallOptions`] and bound the caller's
//! own wait, in `poll(2)` or parked — per-call state, never a mutation
//! of the shared socket, so concurrent calls cannot observe each
//! other's timeouts.
//!
//! [`TcpServer`] reads with the same machinery: an acceptor thread
//! arms each socket in an epoll set that a few poller threads share,
//! and the poller that reads a request runs it and writes the reply,
//! on the same terms as a client caller.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mockingbird_values::Endian;
use mockingbird_wire::{
    HandshakeInfo, HandshakeVerdict, Message, MessageKind, RequestIds, WireDeadline,
};

use mockingbird_artifact::ArtifactStore;

use crate::budget::RetryBudget;
use crate::dispatch::Dispatcher;
use crate::error::RuntimeError;
use crate::limiter::AimdLimiter;
use crate::metrics::MetricsRegistry;
use crate::options::CallOptions;
use crate::reactor::{
    client_reactor, Command, FrameReader, MuxCore, Outbound, ReactorHandle, Server, Slot,
};
use crate::sync::{cv_wait, LockExt};

/// How long a client waits for the peer's half of the connect-time
/// handshake before declaring the connection broken.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// The client's half of the connect-time handshake: sends our
/// [`HandshakeInfo`] as a `Hello` proposal and interprets the peer's
/// verdict, failing unless the peer accepts.
///
/// Runs serially on the raw (still-blocking) stream *before* the
/// reactor adopts it, so no request can cross a connection whose
/// declarations were never checked.
fn client_handshake(
    stream: &mut TcpStream,
    info: &HandshakeInfo,
    metrics: &MetricsRegistry,
) -> Result<(), RuntimeError> {
    metrics.add_handshake();
    let hello = Message::hello(*info, HandshakeVerdict::Propose, Endian::Little);
    write_frame(stream, &hello, metrics)?;
    let reply = read_frame(stream, Instant::now() + HANDSHAKE_TIMEOUT, metrics)?
        .ok_or_else(|| RuntimeError::Transport("connection closed during the handshake".into()))?;
    let MessageKind::Hello {
        info: peer,
        verdict,
    } = reply.kind
    else {
        return Err(RuntimeError::Protocol(
            "expected a Hello reply to the handshake".into(),
        ));
    };
    match verdict {
        HandshakeVerdict::Accept => Ok(()),
        HandshakeVerdict::Reject => {
            metrics.add_handshake_reject();
            Err(RuntimeError::VersionSkew(format!(
                "peer speaks protocol {} with interface fingerprint {:032x}; \
                 we speak protocol {} with {:032x}",
                peer.protocol, peer.interface_fp, info.protocol, info.interface_fp
            )))
        }
        HandshakeVerdict::Propose => Err(RuntimeError::Protocol(
            "peer answered the handshake with a proposal".into(),
        )),
    }
}

/// A client-side connection: sends a framed message, returning the reply
/// frame (or `None` for oneway requests).
pub trait Connection: Send + Sync {
    /// Performs one request/response exchange.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] on connection failures.
    fn call(&self, msg: &Message) -> Result<Option<Message>, RuntimeError>;

    /// Performs one exchange under per-call options (deadline, retry
    /// hints). Transports without timeout machinery ignore the options.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Timeout`] when the deadline elapses and
    /// [`RuntimeError::Transport`] on connection failures.
    fn call_with(
        &self,
        msg: &Message,
        options: &CallOptions,
    ) -> Result<Option<Message>, RuntimeError> {
        let _ = options;
        self.call(msg)
    }

    /// Whether the connection is still usable. Pools drop unhealthy
    /// connections and reconnect; the default is always-healthy for
    /// transports without liveness tracking.
    fn healthy(&self) -> bool {
        true
    }

    /// Nothing reads this: a stub always runs the marshal tier it was
    /// built with, because a handshake either accepts or rejects. Kept
    /// only so that existing implementations still compile.
    fn fused_allowed(&self) -> bool {
        true
    }

    /// The metrics registry this connection records into, when it has
    /// one. Proxies built over the connection adopt it so client-side
    /// histograms and transport counters land in the same place.
    fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        None
    }

    /// Whether a failed call may be recoverable by *re-routing*: true
    /// only for connections that sit on a dynamic endpoint set (a
    /// resolver-fed [`ConnectionPool`](crate::pool::ConnectionPool)),
    /// where another replica can serve the same object. A
    /// [`RemoteRef`](crate::proxy::RemoteRef) over such a connection
    /// treats connect-time failures like `VersionSkew` as failover
    /// triggers instead of hard errors. Single-socket transports keep
    /// the default: there is nowhere else to go.
    fn supports_failover(&self) -> bool {
        false
    }

    /// The retry budget gating re-sends over this connection, when it
    /// has one. Budgets are a *pool-level* control (they bound the
    /// aggregate retry amplification of many callers sharing the
    /// endpoint set), so single-socket transports keep the default:
    /// their callers retry ungated, as before.
    fn retry_budget(&self) -> Option<Arc<RetryBudget>> {
        None
    }
}

/// An in-process loopback connection: frames and marshals exactly like a
/// network transport but dispatches synchronously, isolating marshalling
/// cost from socket cost (used by the §6 overhead benches).
#[derive(Clone)]
pub struct InMemoryConnection {
    dispatcher: Arc<Dispatcher>,
}

impl InMemoryConnection {
    /// Connects to a dispatcher.
    pub fn new(dispatcher: Arc<Dispatcher>) -> Self {
        InMemoryConnection { dispatcher }
    }
}

impl Connection for InMemoryConnection {
    fn call(&self, msg: &Message) -> Result<Option<Message>, RuntimeError> {
        // Serialise and reparse: the bytes really cross a boundary.
        let bytes = msg.to_bytes();
        let parsed =
            Message::from_bytes(&bytes).map_err(|e| RuntimeError::Protocol(e.to_string()))?;
        match self.dispatcher.dispatch(&parsed) {
            Some(reply) => {
                let reply_bytes = reply.to_bytes();
                Ok(Some(
                    Message::from_bytes(&reply_bytes)
                        .map_err(|e| RuntimeError::Protocol(e.to_string()))?,
                ))
            }
            None => Ok(None),
        }
    }

    fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        // The loopback has no transport of its own: client and server
        // share the dispatcher's registry (its counters see both sides).
        Some(Arc::clone(self.dispatcher.metrics()))
    }
}

/// Reads one frame from a blocking stream before `deadline` (the client
/// handshake and artifact fetches; the reactor paths pump their own
/// [`FrameReader`]s).
///
/// Each pump makes one `read` that stops at the frame's end (a budget
/// of one byte), so no byte of the next frame leaves the socket — the
/// reactor adopts a client's socket right after the handshake read.
/// Nothing received by the deadline is [`RuntimeError::Timeout`]; a
/// deadline passed mid-frame is [`RuntimeError::Transport`], because
/// the stream is no longer at a frame boundary.
pub(crate) fn read_frame(
    stream: &mut TcpStream,
    deadline: Instant,
    metrics: &MetricsRegistry,
) -> Result<Option<Message>, RuntimeError> {
    let mut reader = FrameReader::new();
    let mut frames = Vec::with_capacity(1);
    let mut received = 0u64;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(if reader.mid_frame() {
                RuntimeError::Transport("read stalled mid-frame".into())
            } else {
                RuntimeError::Timeout("no frame within the read timeout".into())
            });
        }
        stream
            .set_read_timeout(Some(left))
            .map_err(|e| RuntimeError::Transport(e.to_string()))?;
        let pump = reader.pump(stream, &mut frames, 1)?;
        received += pump.bytes as u64;
        if let Some(msg) = frames.pop() {
            metrics.add_bytes_received(received);
            return Ok(Some(msg));
        }
        if pump.eof {
            return Ok(None);
        }
    }
}

/// Writes one frame to a blocking stream (the client handshake and
/// artifact fetches; each sends one small frame).
pub(crate) fn write_frame(
    stream: &mut TcpStream,
    msg: &Message,
    metrics: &MetricsRegistry,
) -> Result<(), RuntimeError> {
    let frame = msg.to_bytes();
    stream
        .write_all(&frame)
        .map_err(|e| RuntimeError::Transport(e.to_string()))?;
    metrics.add_bytes_sent(frame.len() as u64);
    Ok(())
}

/// The deadline slot to frame now: the caller's budget less everything
/// since the caller measured it (a wait for a pool slot, a dial, a
/// delay injected upstream, a wait for a lock). A budget that is
/// already spent is refused here without wasting the server's time.
fn deadline_at_write(msg: &Message) -> Result<Option<WireDeadline>, RuntimeError> {
    let Some(deadline) = msg.deadline else {
        return Ok(None);
    };
    match deadline.remaining() {
        Some(left) if left.is_zero() => Err(RuntimeError::DeadlineExpired(
            "budget spent before the request was written".into(),
        )),
        Some(left) => Ok(Some(WireDeadline::new(left, deadline.sheddable))),
        None => Ok(None),
    }
}

/// A multiplexed TCP client connection: many threads share one socket.
///
/// Callers frame each request under a connection-unique id, register a
/// waiter slot and write the frame themselves (the process-wide reactor
/// finishes any tail the socket refuses). Then each caller reads its
/// own reply: one that finds no other caller reading takes the
/// connection's frame reader, waits in `poll(2)`, hands the replies it
/// passes to their slots (unparking exactly the owning threads), and
/// stops at its own; the others park. The caller's own request id is
/// restored on the reply, so [`RemoteRef`](crate::proxy::RemoteRef)'s
/// correlation check is oblivious to the rewrite. The reactor itself
/// reads only when the peer hangs up while no caller is reading.
///
/// Deadlines bound each caller's own wait — per-call state, never
/// socket state: one slow call cannot stall the others, concurrent
/// calls cannot observe each other's timeouts, and a reply that arrives
/// after its waiter gave up is dropped.
///
/// Connection death is broadcast synchronously: every registered
/// waiter fails under the same lock new waiters register under, so no
/// call can slip into the gap between a write failure and the failure
/// broadcast and hang.
pub struct MultiplexedConnection {
    reactor: ReactorHandle,
    core: Arc<MuxCore>,
    ids: RequestIds,
    closed: AtomicBool,
    metrics: Arc<MetricsRegistry>,
}

impl MultiplexedConnection {
    /// Connects to a [`TcpServer`] without a handshake and registers
    /// the socket with the process-wide reactor.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] if the connect fails.
    pub fn connect(addr: SocketAddr) -> Result<Self, RuntimeError> {
        Self::connect_with(addr, None)
    }

    /// Connects to a [`TcpServer`], performing the fingerprint handshake
    /// when `handshake` is given — serially, on the still-blocking
    /// stream, before the reactor adopts it.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] if the connect fails and
    /// [`RuntimeError::VersionSkew`] if the peer's declarations do not
    /// match ours.
    pub fn connect_with(
        addr: SocketAddr,
        handshake: Option<&HandshakeInfo>,
    ) -> Result<Self, RuntimeError> {
        Self::connect_with_metrics(addr, handshake, MetricsRegistry::shared())
    }

    /// Connects, recording transport counters into `metrics` (pools use
    /// this so every slot of an endpoint shares the pool's registry).
    ///
    /// # Errors
    ///
    /// As [`connect_with`](Self::connect_with).
    pub fn connect_with_metrics(
        addr: SocketAddr,
        handshake: Option<&HandshakeInfo>,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<Self, RuntimeError> {
        let mut stream =
            TcpStream::connect(addr).map_err(|e| RuntimeError::Transport(e.to_string()))?;
        stream.set_nodelay(true).ok();
        if let Some(info) = handshake {
            client_handshake(&mut stream, info, &metrics)?;
        }
        let reactor = client_reactor().clone();
        let out = Outbound::new(reactor.alloc_id(), stream, Some(Arc::clone(&metrics)));
        let core = Arc::new(MuxCore::new(out));
        reactor.send(Command::Register(Arc::clone(&core)))?;
        Ok(MultiplexedConnection {
            reactor,
            core,
            ids: RequestIds::new(),
            closed: AtomicBool::new(false),
            metrics,
        })
    }

    /// Whether the underlying stream is still usable (pools drop dead
    /// connections and reconnect lazily).
    pub fn is_alive(&self) -> bool {
        !self.closed.load(Ordering::SeqCst) && self.core.state.plock().dead.is_none()
    }

    /// Removes a waiter slot this caller registered but can no longer
    /// wait on.
    fn abandon(&self, wire_id: u32) {
        self.core.state.plock().pending.remove(&wire_id);
    }

    fn local_timeout(&self, deadline: Option<Duration>) -> RuntimeError {
        self.metrics.add_timeout();
        RuntimeError::Timeout(format!(
            "no reply within {:?}",
            deadline.unwrap_or_default()
        ))
    }
}

impl Connection for MultiplexedConnection {
    fn call(&self, msg: &Message) -> Result<Option<Message>, RuntimeError> {
        self.call_with(msg, &CallOptions::default())
    }

    fn call_with(
        &self,
        msg: &Message,
        options: &CallOptions,
    ) -> Result<Option<Message>, RuntimeError> {
        let MessageKind::Request {
            request_id: caller_id,
            response_expected,
            ..
        } = msg.kind
        else {
            return Err(RuntimeError::Protocol(
                "clients send Request messages".into(),
            ));
        };

        // Frame under a connection-unique id: several RemoteRefs (each
        // with its own id counter) may share this socket.
        let restamp = deadline_at_write(msg)?;
        let wire_id = self.ids.next();
        let frame = msg.to_bytes_with_id(wire_id, restamp);

        // Register the waiter *before* the frame is written: if the
        // connection dies at any point after this, its close resolves
        // this slot under the registration lock — no gap to hang in.
        {
            let mut st = self.core.state.plock();
            if let Some(e) = &st.dead {
                return Err(e.clone());
            }
            if response_expected {
                st.pending
                    .insert(wire_id, Slot::Waiting(std::thread::current()));
            }
        }

        // The caller's wait ends with its budget: the earlier of the
        // per-call deadline and the budget left at this write, so time
        // spent upstream (a dial, an injected delay, a lock) is not
        // granted a second time.
        let wait = [options.deadline, restamp.and_then(|d| d.budget())]
            .into_iter()
            .flatten()
            .min();
        let deadline = wait
            .filter(|_| response_expected)
            .map(|d| Instant::now() + d);

        // This thread writes the frame; the reactor is woken only for a
        // tail the socket refused or a failed write.
        if let Err(e) = self.reactor.write(&self.core.out, frame) {
            if response_expected {
                self.abandon(wire_id);
            }
            return Err(e);
        }
        if !response_expected {
            return Ok(None);
        }
        match self.core.await_reply(wire_id, deadline)? {
            Some(mut reply) => {
                reply.set_request_id(caller_id);
                Ok(Some(reply))
            }
            None => Err(self.local_timeout(wait)),
        }
    }

    fn healthy(&self) -> bool {
        self.is_alive()
    }

    fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        Some(Arc::clone(&self.metrics))
    }
}

impl Drop for MultiplexedConnection {
    fn drop(&mut self) {
        self.closed.store(true, Ordering::SeqCst);
        // The reactor prunes the slot and closes the socket; no thread
        // to join — churn leaves the process thread count flat.
        let _ = self.reactor.send(Command::Close {
            conn: self.core.out.id(),
        });
    }
}

/// Default dispatch worker count: how many requests make progress
/// concurrently. Multiplexed clients pipeline in-flight requests;
/// without concurrent dispatch they would serialise behind each
/// other's service time.
const DISPATCH_WORKERS: usize = 4;

/// Server-side tuning: handshake policy, overload limits, worker count
/// and artifact serving.
#[derive(Clone)]
pub struct ServerConfig {
    /// The server's side of the fingerprint handshake. `None` accepts
    /// every `Hello` by echoing the client's own info (permissive mode
    /// for peers that trust their build system).
    pub handshake: Option<HandshakeInfo>,
    /// Frames one connection may have queued awaiting a dispatch
    /// worker; requests beyond this are shed with an `Overloaded`
    /// reply instead of stalling the socket.
    pub max_queue: usize,
    /// Requests the whole server may have in dispatch at once; beyond
    /// this every connection sheds until workers catch up.
    pub max_in_flight: usize,
    /// Dispatch slots: how many request/reply calls the server runs at
    /// once. One more poller thread than this reads the sockets, so one
    /// is always free to read, and one more worker drains oneways in
    /// order.
    pub workers: usize,
    /// Adapt the in-flight cap with an AIMD limiter driven by measured
    /// dispatch latency instead of pinning it at `max_in_flight`. Off
    /// by default: the pinned limiter reproduces the historical static
    /// cap exactly.
    pub adaptive_limit: bool,
    /// The dispatch-latency p99 the adaptive limiter steers toward:
    /// windows whose p99 overshoots this cut the limit
    /// multiplicatively; healthy windows raise it by one.
    pub target_p99: Duration,
    /// The artifact store this server answers `MBAR` fetch frames from.
    /// `None` (the default) answers every fetch with an empty reply, so
    /// peers fall back to local compilation.
    pub artifacts: Option<Arc<dyn ArtifactStore>>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("handshake", &self.handshake)
            .field("max_queue", &self.max_queue)
            .field("max_in_flight", &self.max_in_flight)
            .field("workers", &self.workers)
            .field("adaptive_limit", &self.adaptive_limit)
            .field("target_p99", &self.target_p99)
            .field("artifacts", &self.artifacts.as_ref().map(|s| s.len()))
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            handshake: None,
            max_queue: 64,
            max_in_flight: 256,
            workers: DISPATCH_WORKERS,
            adaptive_limit: false,
            target_p99: Duration::from_millis(50),
            artifacts: None,
        }
    }
}

impl ServerConfig {
    /// A config that answers the handshake with `info`'s verdicts.
    #[must_use]
    pub fn with_handshake(mut self, info: HandshakeInfo) -> Self {
        self.handshake = Some(info);
        self
    }

    /// Sets the per-connection dispatch queue bound.
    #[must_use]
    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }

    /// Sets the server-wide in-flight dispatch cap.
    #[must_use]
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Sets the dispatch worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables (or disables) the adaptive AIMD in-flight limiter.
    #[must_use]
    pub fn with_adaptive_limit(mut self, enabled: bool) -> Self {
        self.adaptive_limit = enabled;
        self
    }

    /// Sets the dispatch-latency target the adaptive limiter steers
    /// toward (ignored while `adaptive_limit` is off).
    #[must_use]
    pub fn with_target_p99(mut self, target: Duration) -> Self {
        self.target_p99 = target;
        self
    }

    /// Serves `MBAR` artifact fetches from `store` (peers whose
    /// fingerprints prove agreement can pull compiled artifacts instead
    /// of recompiling them).
    #[must_use]
    pub fn with_artifact_store(mut self, store: Arc<dyn ArtifactStore>) -> Self {
        self.artifacts = Some(store);
        self
    }

    /// Builds this config's admission limiter: adaptive when asked,
    /// otherwise pinned at `max_in_flight` (byte-for-byte the old
    /// static-cap admission).
    #[must_use]
    pub fn limiter(&self) -> AimdLimiter {
        if self.adaptive_limit {
            AimdLimiter::adaptive(self.max_in_flight, self.target_p99)
        } else {
            AimdLimiter::pinned(self.max_in_flight)
        }
    }
}

/// A closable queue handing admitted oneways from the pollers to the
/// oneway worker. It has no capacity of its own: admission control
/// bounds what enters it.
pub(crate) struct FrameQueue<T> {
    state: Mutex<(VecDeque<T>, bool)>,
    cv: Condvar,
}

impl<T> FrameQueue<T> {
    pub(crate) fn new() -> Self {
        FrameQueue {
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    /// Enqueues unless the queue is closed; hands the item back on
    /// refusal. The large `Err` variant is the point: the rejected item
    /// is returned by value, not dropped.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_push(&self, item: T) -> Result<(), T> {
        let mut st = self.state.plock();
        if st.1 {
            return Err(item);
        }
        st.0.push_back(item);
        drop(st);
        self.cv.notify_one();
        Ok(())
    }

    pub(crate) fn close(&self) {
        self.state.plock().1 = true;
        self.cv.notify_all();
    }

    /// Next item; drains remaining items after close, then `None` —
    /// this drain is what makes [`TcpServer::shutdown`] graceful:
    /// requests already accepted still get their replies.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut st = self.state.plock();
        loop {
            if let Some(m) = st.0.pop_front() {
                return Some(m);
            }
            if st.1 {
                return None;
            }
            st = cv_wait(&self.cv, st);
        }
    }
}

/// Serves the metrics endpoint: a minimal HTTP/1.0 responder answering
/// `/metrics` with the Prometheus text exposition and `/metrics.json`
/// with the JSON snapshot. One request per connection, `Connection:
/// close` — enough for a scraper, deliberately not a web server.
fn serve_metrics(listener: TcpListener, registry: Arc<MetricsRegistry>, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        stream.set_read_timeout(Some(Duration::from_secs(2))).ok();
        stream.set_write_timeout(Some(Duration::from_secs(2))).ok();
        // Read the request head (until the blank line); the path is all
        // we look at.
        let mut head = Vec::new();
        let mut buf = [0u8; 512];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    head.extend_from_slice(&buf[..n]);
                    if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        let request = String::from_utf8_lossy(&head);
        let path = request
            .lines()
            .next()
            .and_then(|line| line.split_whitespace().nth(1))
            .unwrap_or("/");
        let (status, content_type, body) = match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                registry.prometheus_text(),
            ),
            "/metrics.json" => ("200 OK", "application/json", registry.json_snapshot()),
            _ => ("404 Not Found", "text/plain", String::from("not found\n")),
        };
        let response = format!(
            "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let _ = stream.write_all(response.as_bytes());
    }
}

/// A TCP server: accepts connections and dispatches each frame through
/// a [`Dispatcher`]. An acceptor thread arms every accepted socket in
/// one epoll set, which `workers + 1` poller threads share; the poller
/// that reads a request runs it and writes the reply itself, and
/// `Hello` and artifact fetches are answered inline. Requests pass
/// admission control first, and wait in a queue only while every
/// dispatch slot is busy. [`shutdown`] is deterministic: accepted work
/// drains to real replies before the threads are joined.
///
/// Alongside the GIOP listener, every server exposes a metrics listener
/// on an ephemeral port of the same interface: `/metrics` serves the
/// Prometheus text exposition, `/metrics.json` a JSON snapshot. See
/// [`metrics_addr`].
///
/// [`shutdown`]: TcpServer::shutdown
/// [`metrics_addr`]: TcpServer::metrics_addr
pub struct TcpServer {
    addr: SocketAddr,
    metrics_addr: SocketAddr,
    metrics: Arc<MetricsRegistry>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
    server: Arc<Server>,
    /// The pollers and the oneway worker.
    threads: Vec<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop, with default limits and no handshake requirement.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] if the bind fails.
    pub fn bind(addr: &str, dispatcher: Arc<Dispatcher>) -> Result<Self, RuntimeError> {
        Self::bind_with(addr, dispatcher, ServerConfig::default())
    }

    /// Binds to `addr` under an explicit [`ServerConfig`]: handshake
    /// policy, per-connection queue bound, global in-flight cap,
    /// dispatch slot count, and the artifact store.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] if the bind fails.
    pub fn bind_with(
        addr: &str,
        dispatcher: Arc<Dispatcher>,
        config: ServerConfig,
    ) -> Result<Self, RuntimeError> {
        let transport = |e: std::io::Error| RuntimeError::Transport(e.to_string());
        let listener = TcpListener::bind(addr).map_err(transport)?;
        let local = listener.local_addr().map_err(transport)?;
        let metrics = Arc::clone(dispatcher.metrics());
        // Metrics listener: same interface, ephemeral port.
        let metrics_listener =
            TcpListener::bind(SocketAddr::new(local.ip(), 0)).map_err(transport)?;
        let metrics_addr = metrics_listener.local_addr().map_err(transport)?;
        let shutdown = Arc::new(AtomicBool::new(false));

        let (server, threads) = Server::start(config, dispatcher)?;
        let flag = shutdown.clone();
        let srv = Arc::clone(&server);
        let accept_thread = std::thread::Builder::new()
            .name("mb-srv-accept".into())
            .spawn(move || {
                // The listener unblocks when a shutdown probe connects.
                for conn in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    stream.set_nodelay(true).ok();
                    srv.register(stream);
                }
            });
        let metrics_registry = Arc::clone(&metrics);
        let metrics_stop = shutdown.clone();
        let metrics_thread = std::thread::Builder::new()
            .name("mb-srv-metrics".into())
            .spawn(move || serve_metrics(metrics_listener, metrics_registry, metrics_stop));
        let mut server = TcpServer {
            addr: local,
            metrics_addr,
            metrics,
            shutdown,
            accept_thread: None,
            metrics_thread: None,
            server,
            threads,
        };
        // A thread that failed to start leaves a server that shuts down
        // whatever did start.
        server.accept_thread = Some(accept_thread.map_err(transport)?);
        server.metrics_thread = Some(metrics_thread.map_err(transport)?);
        Ok(server)
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The address of the metrics listener (`/metrics` and
    /// `/metrics.json`).
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_addr
    }

    /// The metrics registry this server records into — shared with its
    /// dispatcher.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Connections the server currently holds open (a slot is pruned
    /// the moment its socket closes). A cheap RSS proxy for churn and
    /// soak tests.
    pub fn open_connections(&self) -> usize {
        self.server.open_conns()
    }

    /// Stops accepting, then shuts the server down deterministically:
    /// reads stop first, then the dispatch queues close and the pollers
    /// and the oneway worker drain them (accepted requests still get
    /// their replies) and are joined, then pending reply bytes are
    /// flushed and every socket closes.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Probe connections to unblock both accept() loops.
        let _ = TcpStream::connect(self.addr);
        let _ = TcpStream::connect(self.metrics_addr);
        for t in [self.accept_thread.take(), self.metrics_thread.take()]
            .into_iter()
            .flatten()
        {
            let _ = t.join();
        }
        // Phases one and two: no new frames are read, and accepted work
        // drains through the threads that hold it.
        self.server.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Phase three: flush replies, close sockets.
        self.server.drain();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{Servant, WireOp, WireServant};
    use mockingbird_mtype::{IntRange, MtypeGraph};
    use mockingbird_values::{Endian, MValue};
    use mockingbird_wire::{CdrReader, CdrWriter, ReplyStatus};
    use std::collections::HashMap;
    use std::io::Write;
    use std::net::Shutdown;
    use std::sync::atomic::AtomicUsize;

    fn adder_dispatcher() -> (
        Arc<Dispatcher>,
        Arc<MtypeGraph>,
        mockingbird_mtype::MtypeId,
        mockingbird_mtype::MtypeId,
    ) {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(64));
        let args = g.record(vec![i, i]);
        let result = g.record(vec![i]);
        let graph = Arc::new(g);
        let servant: Arc<dyn Servant> = Arc::new(|_op: &str, args: MValue| {
            let MValue::Record(items) = args else {
                return Err(RuntimeError::Conversion("bad args".into()));
            };
            let (MValue::Int(a), MValue::Int(b)) = (&items[0], &items[1]) else {
                return Err(RuntimeError::Conversion("bad ints".into()));
            };
            Ok(MValue::Record(vec![MValue::Int(a + b)]))
        });
        let mut ops = HashMap::new();
        ops.insert("add".to_string(), WireOp::new(graph.clone(), args, result));
        let d = Arc::new(Dispatcher::new());
        d.register(b"adder".to_vec(), WireServant::new(servant, ops));
        (d, graph, args, result)
    }

    fn call_add(
        conn: &dyn Connection,
        graph: &MtypeGraph,
        args_ty: mockingbird_mtype::MtypeId,
        result_ty: mockingbird_mtype::MtypeId,
        a: i64,
        b: i64,
    ) -> i128 {
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(
            graph,
            args_ty,
            &MValue::Record(vec![MValue::Int(a as i128), MValue::Int(b as i128)]),
        )
        .unwrap();
        let req = Message::request(
            1,
            true,
            b"adder".to_vec(),
            "add",
            Endian::Little,
            w.into_bytes(),
        );
        let reply = conn.call(&req).unwrap().unwrap();
        let MessageKind::Reply { status, .. } = reply.kind else {
            panic!()
        };
        assert_eq!(status, ReplyStatus::NoException);
        let mut r = CdrReader::new(&reply.body, reply.endian);
        let MValue::Record(items) = r.get_value(graph, result_ty).unwrap() else {
            panic!()
        };
        let MValue::Int(v) = items[0] else { panic!() };
        v
    }

    /// A dispatcher whose single op sleeps `ms` then echoes.
    fn sleepy_dispatcher(
        ms: u64,
    ) -> (Arc<Dispatcher>, Arc<MtypeGraph>, mockingbird_mtype::MtypeId) {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(64));
        let rec = g.record(vec![i]);
        let graph = Arc::new(g);
        let servant: Arc<dyn Servant> = Arc::new(move |_: &str, v: MValue| {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(v)
        });
        let mut ops = HashMap::new();
        ops.insert("echo".to_string(), WireOp::new(graph.clone(), rec, rec));
        let d = Arc::new(Dispatcher::new());
        d.register(b"slow".to_vec(), WireServant::new(servant, ops));
        (d, graph, rec)
    }

    fn echo_request(
        graph: &MtypeGraph,
        rec: mockingbird_mtype::MtypeId,
        object: &[u8],
        id: u32,
        v: i64,
    ) -> Message {
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(graph, rec, &MValue::Record(vec![MValue::Int(v as i128)]))
            .unwrap();
        Message::request(
            id,
            true,
            object.to_vec(),
            "echo",
            Endian::Little,
            w.into_bytes(),
        )
    }

    #[test]
    fn in_memory_connection_round_trip() {
        let (d, graph, args, result) = adder_dispatcher();
        let conn = InMemoryConnection::new(d);
        assert_eq!(call_add(&conn, &graph, args, result, 20, 22), 42);
    }

    #[test]
    fn tcp_multiple_clients() {
        let (d, graph, args, result) = adder_dispatcher();
        let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
        let addr = server.addr();
        let graph2 = graph.clone();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let g = graph2.clone();
                std::thread::spawn(move || {
                    let conn = MultiplexedConnection::connect(addr).unwrap();
                    for k in 0..16i64 {
                        assert_eq!(call_add(&conn, &g, args, result, t, k), (t + k) as i128);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn multiplexed_connection_round_trip() {
        let (d, graph, args, result) = adder_dispatcher();
        let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
        let conn = MultiplexedConnection::connect(server.addr()).unwrap();
        assert!(conn.is_alive());
        for k in 0..32 {
            assert_eq!(call_add(&conn, &graph, args, result, k, 1), (k + 1) as i128);
        }
        server.shutdown();
    }

    #[test]
    fn multiplexed_connection_shared_by_threads() {
        let (d, graph, args, result) = adder_dispatcher();
        let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
        let conn = Arc::new(MultiplexedConnection::connect(server.addr()).unwrap());
        let handles: Vec<_> = (0..8)
            .map(|t: i64| {
                let c = conn.clone();
                let g = graph.clone();
                std::thread::spawn(move || {
                    for k in 0..32i64 {
                        assert_eq!(
                            call_add(&*c, &g, args, result, t * 100, k),
                            (t * 100 + k) as i128
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn multiplexed_frames_larger_than_the_socket_buffers_echo_intact() {
        // Several MiB per body, more than a loopback send buffer holds:
        // requests and replies both leave tails for the reactors to
        // finish, while other threads' frames queue behind them.
        const THREADS: i64 = 4;
        const CALLS: i64 = 3;
        const ELEMENTS: i64 = 512 * 1024; // 4 MiB of 64-bit integers
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(64));
        let list = g.list_of(i);
        let graph = Arc::new(g);
        let servant: Arc<dyn Servant> = Arc::new(|_: &str, v: MValue| Ok(v));
        let mut ops = HashMap::new();
        ops.insert("echo".to_string(), WireOp::new(graph.clone(), list, list));
        let d = Arc::new(Dispatcher::new());
        d.register(b"echo".to_vec(), WireServant::new(servant, ops));
        let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
        let conn = Arc::new(MultiplexedConnection::connect(server.addr()).unwrap());
        let callers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (c, g) = (Arc::clone(&conn), Arc::clone(&graph));
                std::thread::spawn(move || {
                    for k in 0..CALLS {
                        let first = (t * CALLS + k) * ELEMENTS;
                        let value = MValue::List(
                            (first..first + ELEMENTS)
                                .map(|x| MValue::Int(x.into()))
                                .collect(),
                        );
                        let mut w = CdrWriter::new(Endian::Little);
                        w.put_value(&g, list, &value).unwrap();
                        let id = k as u32;
                        let req = Message::request(
                            id,
                            true,
                            b"echo".to_vec(),
                            "echo",
                            Endian::Little,
                            w.into_bytes(),
                        );
                        let reply = c.call(&req).unwrap().expect("a reply");
                        assert_eq!(
                            reply.kind,
                            MessageKind::Reply {
                                request_id: id,
                                status: ReplyStatus::NoException
                            }
                        );
                        assert!(
                            reply.body == req.body,
                            "thread {t}, call {k}: the reply is not its own request"
                        );
                    }
                })
            })
            .collect();
        for h in callers {
            h.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn multiplexed_restores_the_caller_request_id() {
        let (d, graph, args, _result) = adder_dispatcher();
        let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
        let conn = MultiplexedConnection::connect(server.addr()).unwrap();
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(
            &graph,
            args,
            &MValue::Record(vec![MValue::Int(1), MValue::Int(2)]),
        )
        .unwrap();
        // A caller id far from the connection's own counter.
        let req = Message::request(
            0xBEEF,
            true,
            b"adder".to_vec(),
            "add",
            Endian::Little,
            w.into_bytes(),
        );
        let reply = conn.call(&req).unwrap().unwrap();
        let MessageKind::Reply { request_id, .. } = reply.kind else {
            panic!()
        };
        assert_eq!(request_id, 0xBEEF);
        server.shutdown();
    }

    #[test]
    fn oneway_over_tcp_returns_immediately() {
        let (d, graph, args, _result) = adder_dispatcher();
        let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
        let conn = MultiplexedConnection::connect(server.addr()).unwrap();
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(
            &graph,
            args,
            &MValue::Record(vec![MValue::Int(1), MValue::Int(2)]),
        )
        .unwrap();
        let req = Message::request(
            9,
            false,
            b"adder".to_vec(),
            "add",
            Endian::Little,
            w.into_bytes(),
        );
        assert!(conn.call(&req).unwrap().is_none());
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_connection_threads() {
        let (d, graph, args, result) = adder_dispatcher();
        let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
        let conn = MultiplexedConnection::connect(server.addr()).unwrap();
        assert_eq!(call_add(&conn, &graph, args, result, 1, 1), 2);
        // The connection is still open; shutdown must not hang on it.
        let start = Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown joined promptly"
        );
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocation() {
        let (d, graph, args, result) = adder_dispatcher();
        let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
        // A rogue peer declares a ~4 GiB frame; the server must drop the
        // connection (protocol error) instead of allocating.
        {
            let mut rogue = TcpStream::connect(server.addr()).unwrap();
            let mut forged = Vec::new();
            forged.extend_from_slice(b"GIOP");
            forged.extend_from_slice(&[1, 0, 0x01, 0]);
            forged.extend_from_slice(&u32::MAX.to_be_bytes());
            rogue.write_all(&forged).unwrap();
            // The server closes its side once it sees the forged length.
            let mut buf = [0u8; 1];
            let _ = rogue.set_read_timeout(Some(Duration::from_secs(5)));
            assert_eq!(rogue.read(&mut buf).unwrap_or(0), 0, "server hung up");
        }
        // Well-behaved clients are unaffected.
        let conn = MultiplexedConnection::connect(server.addr()).unwrap();
        assert_eq!(call_add(&conn, &graph, args, result, 2, 3), 5);
        server.shutdown();
    }

    #[test]
    fn connect_to_dead_server_fails() {
        assert!(MultiplexedConnection::connect("127.0.0.1:1".parse().unwrap()).is_err());
    }

    /// A peer that accepts one connection, sends the first six bytes of
    /// a GIOP header and stalls until the client hangs up.
    fn stalled_peer() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(b"GIOP\x01\x00").unwrap();
            let _ = stream.read_to_end(&mut Vec::new());
        });
        (addr, peer)
    }

    #[test]
    fn multiplexed_calls_against_a_peer_stalled_mid_frame_each_cost_one_deadline() {
        let (addr, peer) = stalled_peer();
        let conn = MultiplexedConnection::connect(addr).unwrap();
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(64));
        let rec = g.record(vec![i]);
        let opts = CallOptions::new().with_deadline(Duration::from_millis(50));
        for id in 1..=2 {
            let req = echo_request(&g, rec, b"void", id, 1);
            let start = Instant::now();
            let out = conn.call_with(&req, &opts);
            let elapsed = start.elapsed();
            assert!(
                matches!(out, Err(RuntimeError::Timeout(_))),
                "call {id}: got {out:?}"
            );
            assert!(
                elapsed < Duration::from_millis(500),
                "call {id}: the 50 ms deadline bounded the call: {elapsed:?}"
            );
        }
        // The reactor owns the half-read frame, so the socket is kept:
        // a pool's next call over it costs one more deadline.
        assert!(conn.healthy());
        drop(conn);
        peer.join().unwrap();
    }

    #[test]
    fn handshake_read_is_bounded_by_the_handshake_timeout() {
        let (addr, peer) = stalled_peer();
        // The dial runs on its own thread so that a read outliving its
        // bound fails the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let dialer = std::thread::spawn(move || {
            let info = HandshakeInfo::new(1, 7);
            let out = MultiplexedConnection::connect_with(addr, Some(&info)).map(|_| ());
            tx.send(out).unwrap();
        });
        let out = rx
            .recv_timeout(HANDSHAKE_TIMEOUT + Duration::from_secs(1))
            .expect("the handshake read ended within HANDSHAKE_TIMEOUT + 1 s");
        assert!(
            matches!(out, Err(RuntimeError::Transport(_))),
            "got {out:?}"
        );
        dialer.join().unwrap();
        peer.join().unwrap();
    }

    #[test]
    fn handshake_accepts_matching_peers() {
        let (d, graph, args, result) = adder_dispatcher();
        let info = HandshakeInfo::new(d.interface_fingerprint(), 7);
        let mut server = TcpServer::bind_with(
            "127.0.0.1:0",
            d,
            ServerConfig::default().with_handshake(info),
        )
        .unwrap();
        let conn = MultiplexedConnection::connect_with(server.addr(), Some(&info)).unwrap();
        assert_eq!(call_add(&conn, &graph, args, result, 2, 2), 4);
        server.shutdown();
    }

    #[test]
    fn handshake_rejects_skewed_peers() {
        let (d, graph, args, result) = adder_dispatcher();
        let mine = HandshakeInfo::new(d.interface_fingerprint(), 7);
        let mut server = TcpServer::bind_with(
            "127.0.0.1:0",
            d,
            ServerConfig::default().with_handshake(mine),
        )
        .unwrap();
        // A peer compiled against different declarations.
        let skewed = HandshakeInfo::new(mine.interface_fp ^ 0xDEAD_BEEF, 7);
        let Err(err) = MultiplexedConnection::connect_with(server.addr(), Some(&skewed)) else {
            panic!("skewed connect was accepted")
        };
        assert!(matches!(err, RuntimeError::VersionSkew(_)), "got {err}");
        // Matching peers still connect after the rejection.
        let conn = MultiplexedConnection::connect_with(server.addr(), Some(&mine)).unwrap();
        assert_eq!(call_add(&conn, &graph, args, result, 3, 4), 7);
        server.shutdown();
    }

    #[test]
    fn handshake_accepts_a_rules_only_mismatch() {
        let (d, graph, args, result) = adder_dispatcher();
        let mine = HandshakeInfo::new(d.interface_fingerprint(), 7);
        let mut server = TcpServer::bind_with(
            "127.0.0.1:0",
            d,
            ServerConfig::default().with_handshake(mine),
        )
        .unwrap();
        // Same declarations, different comparer rules: the wire types
        // agree, so the client connects and calls as usual.
        let other_rules = HandshakeInfo::new(mine.interface_fp, 8);
        let conn = MultiplexedConnection::connect_with(server.addr(), Some(&other_rules)).unwrap();
        assert_eq!(call_add(&conn, &graph, args, result, 6, 6), 12);
        let m = server.metrics().snapshot();
        assert_eq!((m.handshakes, m.handshake_rejects), (1, 0));
        server.shutdown();
    }

    #[test]
    fn saturated_server_sheds_with_overloaded_replies() {
        let (d, graph, args, _result) = adder_dispatcher();
        // A zero-length queue sheds every request deterministically.
        let mut server = TcpServer::bind_with(
            "127.0.0.1:0",
            d,
            ServerConfig {
                max_queue: 0,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let conn = MultiplexedConnection::connect(server.addr()).unwrap();
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(
            &graph,
            args,
            &MValue::Record(vec![MValue::Int(1), MValue::Int(2)]),
        )
        .unwrap();
        let req = Message::request(
            11,
            true,
            b"adder".to_vec(),
            "add",
            Endian::Little,
            w.into_bytes(),
        );
        let reply = conn.call(&req).unwrap().unwrap();
        let MessageKind::Reply { status, .. } = reply.kind else {
            panic!()
        };
        assert_eq!(status, ReplyStatus::Overloaded, "request shed, not stalled");
        server.shutdown();
    }

    #[test]
    fn expired_deadline_is_refused_at_admission() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(64));
        let rec = g.record(vec![i]);
        let graph = Arc::new(g);
        let ran = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&ran);
        let servant: Arc<dyn Servant> = Arc::new(move |_: &str, v: MValue| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(v)
        });
        let mut ops = HashMap::new();
        ops.insert("echo".to_string(), WireOp::new(graph.clone(), rec, rec));
        let d = Arc::new(Dispatcher::new());
        d.register(b"echo".to_vec(), WireServant::new(servant, ops));
        // A zero-length queue sheds whatever gets past the deadline
        // check, so an `Overloaded` reply would mean admission let the
        // expired frame through to the queue.
        let mut server = TcpServer::bind_with(
            "127.0.0.1:0",
            d,
            ServerConfig {
                max_queue: 0,
                ..ServerConfig::default()
            },
        )
        .unwrap();

        // One raw frame whose propagated budget is already spent.
        let req = echo_request(&graph, rec, b"echo", 5, 1)
            .with_deadline(WireDeadline::new(Duration::ZERO, false));
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(&req.to_bytes()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let reply = read_frame(&mut raw, deadline, &MetricsRegistry::new())
            .unwrap()
            .expect("a reply frame");
        let MessageKind::Reply {
            request_id, status, ..
        } = reply.kind
        else {
            panic!("expected a reply, got {:?}", reply.kind)
        };
        assert_eq!(request_id, 5);
        assert_eq!(status, ReplyStatus::DeadlineExpired);
        assert_eq!(ran.load(Ordering::SeqCst), 0, "the servant never ran");
        assert_eq!(server.metrics().snapshot().deadline_expired_server, 1);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_work() {
        let (d, graph, rec) = sleepy_dispatcher(150);
        let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
        let addr = server.addr();
        let g2 = graph.clone();
        let client = std::thread::spawn(move || {
            let conn = MultiplexedConnection::connect(addr).unwrap();
            let req = echo_request(&g2, rec, b"slow", 1, 9);
            conn.call(&req)
        });
        // Let the request reach the dispatch queue, then shut down
        // while it is still in flight.
        std::thread::sleep(Duration::from_millis(50));
        server.shutdown();
        let reply = client.join().unwrap().unwrap().unwrap();
        let MessageKind::Reply { status, .. } = reply.kind else {
            panic!()
        };
        assert_eq!(
            status,
            ReplyStatus::NoException,
            "in-flight work drains to a real reply, not a dropped socket"
        );
    }

    #[test]
    fn concurrent_deadlines_are_per_call_not_per_socket() {
        // Two calls share one multiplexed socket: a 10 ms deadline and
        // a 5 s deadline, against a servant that takes ~200 ms. The
        // short call must time out; the long call must NOT inherit the
        // short call's deadline (the old transport's shared
        // set_read_timeout bug).
        let (d, graph, rec) = sleepy_dispatcher(200);
        let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
        let conn = Arc::new(MultiplexedConnection::connect(server.addr()).unwrap());

        let long_conn = conn.clone();
        let (lg, lr) = (graph.clone(), rec);
        let long_call = std::thread::spawn(move || {
            let req = echo_request(&lg, lr, b"slow", 2, 7);
            let opts = CallOptions::new().with_deadline(Duration::from_secs(5));
            long_conn.call_with(&req, &opts)
        });

        let req = echo_request(&graph, rec, b"slow", 1, 6);
        let opts = CallOptions::new().with_deadline(Duration::from_millis(10));
        let start = Instant::now();
        let short = conn.call_with(&req, &opts);
        let short_elapsed = start.elapsed();
        assert!(
            matches!(short, Err(RuntimeError::Timeout(_))),
            "short call timed out, got {short:?}"
        );
        assert!(
            short_elapsed < Duration::from_millis(150),
            "short deadline fired promptly: {short_elapsed:?}"
        );

        let long = long_call.join().unwrap();
        let reply = long.expect("long call succeeded").expect("reply");
        let MessageKind::Reply { status, .. } = reply.kind else {
            panic!()
        };
        assert_eq!(
            status,
            ReplyStatus::NoException,
            "the 5 s call did not inherit the 10 ms deadline"
        );
        assert!(conn.is_alive(), "timeouts do not kill the connection");
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_on_one_connection_dispatch_in_parallel() {
        let (d, graph, rec) = sleepy_dispatcher(50);
        let config = ServerConfig::default().with_workers(4);
        let mut server = TcpServer::bind_with("127.0.0.1:0", d, config).unwrap();
        let conn = Arc::new(MultiplexedConnection::connect(server.addr()).unwrap());
        let start = Instant::now();
        let callers: Vec<_> = (0..4u32)
            .map(|k| {
                let (c, g) = (Arc::clone(&conn), Arc::clone(&graph));
                std::thread::spawn(move || c.call(&echo_request(&g, rec, b"slow", k, k.into())))
            })
            .collect();
        for h in callers {
            let reply = h.join().unwrap().unwrap().expect("a reply");
            let MessageKind::Reply { status, .. } = reply.kind else {
                panic!()
            };
            assert_eq!(status, ReplyStatus::NoException);
        }
        // One at a time, the four 50 ms dispatches would take 200 ms.
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(150),
            "four pipelined requests dispatched in parallel: {elapsed:?}"
        );
        server.shutdown();
    }

    #[test]
    fn a_caller_whose_deadline_passes_leaves_the_socket_to_the_others() {
        // Each request announces its value on arrival, then takes
        // 200 ms.
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(64));
        let rec = g.record(vec![i]);
        let graph = Arc::new(g);
        let (arrived_tx, arrived) = std::sync::mpsc::channel();
        let arrived_tx = Mutex::new(arrived_tx);
        let servant: Arc<dyn Servant> = Arc::new(move |_: &str, v: MValue| {
            if let MValue::Record(items) = &v {
                let _ = arrived_tx.plock().send(items[0].clone());
            }
            std::thread::sleep(Duration::from_millis(200));
            Ok(v)
        });
        let mut ops = HashMap::new();
        ops.insert("echo".to_string(), WireOp::new(graph.clone(), rec, rec));
        let d = Arc::new(Dispatcher::new());
        d.register(b"slow".to_vec(), WireServant::new(servant, ops));
        let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
        let conn = Arc::new(MultiplexedConnection::connect(server.addr()).unwrap());

        // A calls first, with a 50 ms deadline, and is waiting on the
        // socket by the time its request reaches the servant.
        let (a_conn, a_graph) = (Arc::clone(&conn), Arc::clone(&graph));
        let a = std::thread::spawn(move || {
            let opts = CallOptions::new().with_deadline(Duration::from_millis(50));
            let start = Instant::now();
            let out = a_conn.call_with(&echo_request(&a_graph, rec, b"slow", 1, 1), &opts);
            (out, start.elapsed())
        });
        assert_eq!(arrived.recv().unwrap(), MValue::Int(1));
        // B calls with no deadline while A waits.
        let (b_conn, b_graph) = (Arc::clone(&conn), Arc::clone(&graph));
        let b =
            std::thread::spawn(move || b_conn.call(&echo_request(&b_graph, rec, b"slow", 2, 2)));

        let (out, elapsed) = a.join().unwrap();
        assert!(
            matches!(out, Err(RuntimeError::Timeout(_))),
            "A timed out, got {out:?}"
        );
        assert!(
            elapsed < Duration::from_millis(150),
            "A's deadline ended its wait: {elapsed:?}"
        );
        let reply = b.join().unwrap().unwrap().expect("B's reply");
        let MessageKind::Reply { status, .. } = reply.kind else {
            panic!()
        };
        assert_eq!(status, ReplyStatus::NoException, "B still got its reply");
        assert_eq!(reply.body, echo_request(&graph, rec, b"slow", 2, 2).body);
        server.shutdown();
    }

    #[test]
    fn replies_a_peer_sent_before_closing_still_reach_their_callers() {
        // A raw peer reads two pipelined requests, answers both, and
        // closes: the replies and the end of the stream arrive together.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            let metrics = MetricsRegistry::new();
            let mut replies = Vec::new();
            for _ in 0..2 {
                let req = read_frame(&mut sock, deadline, &metrics)
                    .unwrap()
                    .expect("a request");
                let MessageKind::Request { request_id, .. } = req.kind else {
                    panic!("expected a request, got {:?}", req.kind)
                };
                let reply =
                    Message::reply(request_id, ReplyStatus::NoException, req.endian, req.body);
                replies.extend_from_slice(&reply.to_bytes());
            }
            sock.write_all(&replies).unwrap();
        });

        let conn = Arc::new(MultiplexedConnection::connect(addr).unwrap());
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(64));
        let rec = g.record(vec![i]);
        let graph = Arc::new(g);
        let callers: Vec<_> = (1..=2u32)
            .map(|k| {
                let (c, g) = (Arc::clone(&conn), Arc::clone(&graph));
                std::thread::spawn(move || {
                    let req = echo_request(&g, rec, b"raw", k, k.into());
                    (c.call(&req), req.body)
                })
            })
            .collect();
        for h in callers {
            let (out, body) = h.join().unwrap();
            let reply = out.expect("a reply, not a transport error").unwrap();
            assert_eq!(reply.body, body, "each caller got its own reply");
        }
        peer.join().unwrap();
    }

    #[test]
    fn connection_death_fails_every_waiter_synchronously() {
        // A raw server that accepts, reads forever, never replies —
        // then tears the socket down while several calls are parked.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let killer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(100));
            stream.shutdown(Shutdown::Both).ok();
        });

        let conn = Arc::new(MultiplexedConnection::connect(addr).unwrap());
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(64));
        let rec = g.record(vec![i]);
        let graph = Arc::new(g);
        let callers: Vec<_> = (0..4)
            .map(|k| {
                let c = conn.clone();
                let g = graph.clone();
                std::thread::spawn(move || {
                    let req = echo_request(&g, rec, b"void", k, 1);
                    let start = Instant::now();
                    let out = c.call(&req);
                    (out, start.elapsed())
                })
            })
            .collect();
        for h in callers {
            let (out, elapsed) = h.join().unwrap();
            assert!(out.is_err(), "waiter failed rather than hanging");
            assert!(
                elapsed < Duration::from_secs(3),
                "death broadcast promptly, not via a poll interval: {elapsed:?}"
            );
        }
        assert!(!conn.is_alive());
        // New calls fail fast on the dead flag, under the same lock the
        // broadcast held — no registration can race past it.
        let req = echo_request(&graph, rec, b"void", 9, 1);
        assert!(conn.call(&req).is_err());
        killer.join().unwrap();
    }

    #[test]
    fn handler_panic_yields_system_exception_for_that_call_only() {
        // A servant that panics on value 13 and echoes otherwise.
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(64));
        let rec = g.record(vec![i]);
        let graph = Arc::new(g);
        let servant: Arc<dyn Servant> = Arc::new(|_: &str, v: MValue| {
            if let MValue::Record(items) = &v {
                if items.first() == Some(&MValue::Int(13)) {
                    panic!("unlucky number");
                }
            }
            Ok(v)
        });
        let mut ops = HashMap::new();
        ops.insert("echo".to_string(), WireOp::new(graph.clone(), rec, rec));
        let d = Arc::new(Dispatcher::new());
        d.register(b"moody".to_vec(), WireServant::new(servant, ops));
        let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
        let conn = MultiplexedConnection::connect(server.addr()).unwrap();

        let boom = conn
            .call(&echo_request(&graph, rec, b"moody", 1, 13))
            .unwrap()
            .unwrap();
        let MessageKind::Reply { status, .. } = boom.kind else {
            panic!()
        };
        assert_eq!(
            status,
            ReplyStatus::SystemException,
            "the panicking call gets a typed failure, not a dead socket"
        );
        // The same connection, server, and worker pool keep serving.
        for k in 0..8 {
            let ok = conn
                .call(&echo_request(&graph, rec, b"moody", 2 + k, i64::from(k)))
                .unwrap()
                .unwrap();
            let MessageKind::Reply { status, .. } = ok.kind else {
                panic!()
            };
            assert_eq!(status, ReplyStatus::NoException, "call {k} unaffected");
        }
        server.shutdown();
    }

    #[test]
    fn reactor_server_prunes_closed_connection_slots() {
        let (d, graph, args, result) = adder_dispatcher();
        let mut server = TcpServer::bind("127.0.0.1:0", d).unwrap();
        for k in 0..32 {
            let conn = MultiplexedConnection::connect(server.addr()).unwrap();
            assert_eq!(call_add(&conn, &graph, args, result, k, k), (2 * k) as i128);
            drop(conn);
        }
        // The reactor prunes slots as soon as it sees the close; poll
        // briefly rather than racing it.
        let mut open = server.open_connections();
        for _ in 0..100 {
            if open == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
            open = server.open_connections();
        }
        assert_eq!(open, 0, "closed slots pruned, not accumulated");
        server.shutdown();
    }
}
