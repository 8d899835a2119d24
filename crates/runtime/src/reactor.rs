//! The readiness-driven I/O behind the TCP transports.
//!
//! A call wakes one runtime thread on each side: on the server, the
//! poller that reads a request runs it and writes its reply; on the
//! client, the caller that wrote a request reads its own reply. No
//! frame crosses a thread to reach the wire or to leave it. On Linux
//! readiness comes from epoll, `poll(2)` and an eventfd waker, bound
//! through a few hand-declared `extern "C"` functions (no external
//! crate); elsewhere a portable backend parks briefly and then reports
//! every connection ready. The pieces:
//!
//! - [`FrameReader`] / [`FrameWriter`]: per-connection GIOP frame state
//!   machines. A read that stops mid-header or mid-body parks the
//!   partial bytes in the machine and resumes on the next readiness
//!   event; writes queue encoded frames and retire them byte-by-byte
//!   as the socket accepts them.
//! - the outbound half (`Outbound`): each connection's socket, with
//!   its `FrameWriter` and write-stall clock behind one mutex, shared
//!   by every thread that writes frames for it. A caller writes its
//!   request, and a server thread its reply, straight to the socket
//!   when nothing is queued ahead of it; only a tail the socket
//!   refused waits for write readiness.
//! - the server's pollers (`Server`): `workers + 1` threads wait on
//!   one epoll set in which every socket is armed one-shot, so the
//!   kernel hands each ready socket to exactly one of them. A poller
//!   that finds a request while one of the `workers` dispatch slots is
//!   free re-arms the socket (the connection's next frame can go to
//!   another poller), runs the request and writes the reply. Without a
//!   free slot it queues or sheds what it reads, under the admission
//!   rules, and a thread that finishes a dispatch takes the next
//!   queued job before it waits again. One thread is therefore always
//!   free to read, answer handshakes and shed.
//! - the client's waker table (`MuxCore`): the in-flight calls of one
//!   connection, keyed by request id, plus the connection's read half.
//!   A caller that finds no reader becomes the reader: it waits in
//!   `poll(2)` until its own deadline, hands the replies it passes to
//!   their callers' slots (unparking exactly those threads), and stops
//!   at its own. A caller that finds a reader parks until its own
//!   deadline. A reader that leaves while others wait hands the role
//!   to one of them. Deadlines thus run on the callers' own clocks.
//! - the client reactor: one process-wide thread that watches every
//!   client socket for hang-ups, and for write readiness while a tail
//!   is queued. It reads only when a peer hangs up while no caller is
//!   reading: it delivers the frames already received and fails the
//!   rest.
//! - the write-stall clock: a peer that stops reading produces no
//!   readiness event at all, so the waits that watch a tail also end
//!   when the oldest blocked writer's [`WRITE_STALL`] runs out, and
//!   that connection is closed.
//!
//! Client connections from every [`MultiplexedConnection`] in the
//! process share the one reactor thread (connection churn leaves the
//! thread count flat); each [`TcpServer`] runs its pollers, one oneway
//! worker and an acceptor thread.
//!
//! [`MultiplexedConnection`]: crate::transport::MultiplexedConnection
//! [`TcpServer`]: crate::transport::TcpServer

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock, TryLockError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use mockingbird_values::Endian;
use mockingbird_wire::{
    CdrWriter, HandshakeInfo, HandshakeVerdict, Message, MessageKind, ReplyStatus,
};

use crate::dispatch::{deadline_expired_reply, Dispatcher};
use crate::error::RuntimeError;
use crate::limiter::{Admission, AimdLimiter};
use crate::metrics::MetricsRegistry;
use crate::sync::LockExt;
use crate::transport::{FrameQueue, ServerConfig};

/// GIOP frame header length (magic + version + flags + declared size).
const HEADER_LEN: usize = 12;

/// Bytes one connection may consume per readiness event before its
/// reader moves on: bounds how long one firehose socket can starve its
/// neighbours (the socket stays readable, so the re-armed registration
/// reports it again).
const READ_BUDGET: usize = 256 * 1024;

/// Frame buffers above this capacity are released after the frame is
/// parsed instead of being kept warm, so one jumbo frame does not pin
/// megabytes to an otherwise-idle connection.
const BUF_KEEP: usize = 64 * 1024;

/// Encoded-but-unwritten bytes a connection may accumulate before it
/// is declared dead (a reader that stopped reading must not buffer the
/// server into the ground).
const WRITE_BACKLOG_MAX: usize = 64 * 1024 * 1024;

/// How long a nonempty write queue may make zero progress before the
/// connection is declared stalled and closed (the old transport's 5 s
/// socket write timeout, relocated to the state machine).
pub const WRITE_STALL: Duration = Duration::from_secs(5);

/// How long the drain phase of a server shutdown keeps flushing
/// pending reply bytes before giving up on the stragglers.
const DRAIN_FLUSH: Duration = Duration::from_secs(5);

/// Events the client reactor takes per wait. More ready sockets stay
/// ready (level-triggered) and are reported by the next wait. A server
/// poller takes one per wait, so the others can take the rest.
const MAX_EVENTS: usize = 256;

fn is_would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Why a client connection failed when its peer closed it cleanly.
fn closed_by_peer() -> RuntimeError {
    RuntimeError::Transport("server closed the connection".into())
}

// ---------------------------------------------------------------------------
// Frame state machines
// ---------------------------------------------------------------------------

/// What one [`FrameReader::pump`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadPump {
    /// Bytes consumed from the source this pump.
    pub bytes: usize,
    /// The source reported a clean end-of-stream at a frame boundary.
    pub eof: bool,
}

/// A resumable GIOP frame reader: accumulates exactly one frame at a
/// time, surviving arbitrary splits — a pump may deliver half a
/// header, a header plus a third of the body, or six whole frames, and
/// the machine picks up where it left off on the next pump.
///
/// Hostile input is rejected before allocation: the declared frame
/// length is validated against the 16 MiB cap while only the 12-byte
/// header has been buffered (see
/// [`Message::frame_len`]).
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    filled: usize,
    need: usize,
}

impl FrameReader {
    /// A reader at a frame boundary.
    #[must_use]
    pub fn new() -> Self {
        FrameReader {
            buf: Vec::new(),
            filled: 0,
            need: HEADER_LEN,
        }
    }

    /// Whether the machine is mid-frame (a close now is abnormal).
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        self.filled > 0
    }

    /// Reads as much as the source offers (up to `budget` bytes),
    /// appending every completed frame to `out`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Protocol`] for forged headers or unparseable
    /// frames, [`RuntimeError::Transport`] for mid-frame closes and
    /// socket errors. Either error poisons the connection; the machine
    /// is not meant to be pumped again after one.
    pub fn pump<R: Read + ?Sized>(
        &mut self,
        src: &mut R,
        out: &mut Vec<Message>,
        budget: usize,
    ) -> Result<ReadPump, RuntimeError> {
        let mut consumed = 0usize;
        loop {
            if consumed >= budget {
                return Ok(ReadPump {
                    bytes: consumed,
                    eof: false,
                });
            }
            let (n, step) = self.read_once(src)?;
            consumed += n;
            match step {
                None => {}
                Some(Step::Frame(msg)) => out.push(msg),
                Some(Step::Blocked | Step::Eof) => {
                    return Ok(ReadPump {
                        bytes: consumed,
                        eof: matches!(step, Some(Step::Eof)),
                    })
                }
            }
        }
    }

    /// Reads until one frame completes, the source would block, or it
    /// ends, adding the bytes read to `bytes`. A frame costs two reads,
    /// its header and then its body, and no read is made past it, so a
    /// thread that wants one frame pays no trailing `WouldBlock` probe.
    ///
    /// # Errors
    ///
    /// As [`pump`](Self::pump).
    pub(crate) fn next_frame<R: Read + ?Sized>(
        &mut self,
        src: &mut R,
        bytes: &mut usize,
    ) -> Result<Step, RuntimeError> {
        loop {
            let (n, step) = self.read_once(src)?;
            *bytes += n;
            if let Some(step) = step {
                return Ok(step);
            }
        }
    }

    /// Makes one read, of at most the rest of the current header or
    /// body, so no byte of the next frame leaves the source. Returns
    /// the bytes read, and how the read ended unless it only advanced
    /// a partial frame.
    fn read_once<R: Read + ?Sized>(
        &mut self,
        src: &mut R,
    ) -> Result<(usize, Option<Step>), RuntimeError> {
        if self.need == HEADER_LEN && self.filled == 0 {
            self.buf.resize(HEADER_LEN, 0);
        }
        loop {
            match src.read(&mut self.buf[self.filled..self.need]) {
                Ok(0) if self.filled == 0 => return Ok((0, Some(Step::Eof))),
                Ok(0) => {
                    return Err(RuntimeError::Transport(
                        "connection closed mid-frame".into(),
                    ))
                }
                Ok(n) => {
                    self.filled += n;
                    if self.filled < self.need {
                        return Ok((n, None));
                    }
                    if self.need == HEADER_LEN {
                        // The declared length is validated before any
                        // body buffer exists: a forged 4 GiB header
                        // costs 12 bytes, not an allocation.
                        let total = Message::frame_len(&self.buf[..HEADER_LEN])
                            .map_err(|e| RuntimeError::Protocol(e.to_string()))?;
                        if total > HEADER_LEN {
                            self.need = total;
                            self.buf.resize(total, 0);
                            return Ok((n, None));
                        }
                    }
                    return self.finish().map(|msg| (n, Some(Step::Frame(msg))));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if is_would_block(&e) => return Ok((0, Some(Step::Blocked))),
                Err(e) => return Err(RuntimeError::Transport(e.to_string())),
            }
        }
    }

    fn finish(&mut self) -> Result<Message, RuntimeError> {
        let msg = Message::from_bytes(&self.buf[..self.need])
            .map_err(|e| RuntimeError::Protocol(e.to_string()))?;
        self.filled = 0;
        self.need = HEADER_LEN;
        if self.buf.capacity() > BUF_KEEP {
            self.buf = Vec::new();
        }
        Ok(msg)
    }
}

/// How a [`FrameReader::next_frame`] ended.
pub(crate) enum Step {
    Frame(Message),
    /// The source has nothing more for now; a partial frame stays in
    /// the machine.
    Blocked,
    /// A clean end of stream, at a frame boundary.
    Eof,
}

/// What one [`FrameWriter::pump`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WritePump {
    /// Bytes the sink accepted this pump.
    pub bytes: usize,
    /// The sink refused further bytes (`WouldBlock`); frames remain
    /// queued for the next pump.
    pub blocked: bool,
}

/// A resumable GIOP frame writer: encoded frames queue in order and
/// retire as the socket accepts their bytes, with a cursor into the
/// front frame surviving partial writes.
#[derive(Debug, Default)]
pub struct FrameWriter {
    queue: VecDeque<Vec<u8>>,
    offset: usize,
    queued: usize,
}

impl FrameWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        FrameWriter::default()
    }

    /// Queues one encoded frame for transmission.
    pub fn enqueue(&mut self, frame: Vec<u8>) {
        self.queued += frame.len();
        self.queue.push_back(frame);
    }

    /// Whether every queued byte has been handed to the sink.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Bytes queued but not yet accepted by the sink.
    #[must_use]
    pub fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// Writes queued bytes until the sink blocks or the queue drains.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Transport`] when the sink fails or reports a
    /// zero-byte write (peer gone).
    pub fn pump<W: Write + ?Sized>(&mut self, dst: &mut W) -> Result<WritePump, RuntimeError> {
        let mut written = 0usize;
        loop {
            let Some(front) = self.queue.front() else {
                return Ok(WritePump {
                    bytes: written,
                    blocked: false,
                });
            };
            let front_len = front.len();
            match dst.write(&front[self.offset..]) {
                Ok(0) => {
                    return Err(RuntimeError::Transport(
                        "peer stopped accepting bytes".into(),
                    ))
                }
                Ok(n) => {
                    written += n;
                    self.offset += n;
                    self.queued -= n;
                    if self.offset == front_len {
                        self.queue.pop_front();
                        self.offset = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if is_would_block(&e) => {
                    return Ok(WritePump {
                        bytes: written,
                        blocked: true,
                    });
                }
                Err(e) => return Err(RuntimeError::Transport(e.to_string())),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Outbound half
// ---------------------------------------------------------------------------

/// Why [`Outbound::send`] put nothing more on the wire.
pub(crate) enum Refused {
    /// The connection had already closed.
    Closed(RuntimeError),
    /// This send failed (a socket error, or the backlog cap): the
    /// connection must close.
    Failed(RuntimeError),
}

struct WriteState {
    writer: FrameWriter,
    /// Set while the queue is nonempty: when it last made progress (or
    /// first failed to).
    stalled_since: Option<Instant>,
    /// Why the connection closed; nothing is written once it is set.
    closed: Option<RuntimeError>,
}

/// One connection's outbound half, shared by every thread that
/// produces frames for it and by the thread that watches its write
/// readiness: the socket, plus the [`FrameWriter`] and write-stall
/// clock behind one mutex.
///
/// Bytes reach the socket only under that mutex, so frames never
/// interleave. The thread that built a frame writes it straight to the
/// socket when nothing is queued ahead of it; whatever the socket
/// refuses stays queued, and a queue that was already nonempty is
/// retired only on write readiness. Reads take the socket without the
/// lock.
pub(crate) struct Outbound {
    id: u64,
    stream: TcpStream,
    /// Where client connections count `bytes_sent` (servers do not).
    metrics: Option<Arc<MetricsRegistry>>,
    state: Mutex<WriteState>,
}

impl Outbound {
    /// Wraps connection `id`'s socket, switching it to nonblocking mode
    /// so no writer can block on it.
    pub fn new(id: u64, stream: TcpStream, metrics: Option<Arc<MetricsRegistry>>) -> Self {
        stream.set_nonblocking(true).ok();
        Outbound {
            id,
            stream,
            metrics,
            state: Mutex::new(WriteState {
                writer: FrameWriter::new(),
                stalled_since: None,
                closed: None,
            }),
        }
    }

    /// The connection's id: its key in the poller.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Queues one encoded frame and, when nothing was queued ahead of
    /// it, writes it to the socket from the calling thread. Returns
    /// whether that write left a tail, which only write readiness can
    /// finish (the caller must arm it); a frame queued behind an
    /// earlier tail needs nothing armed, because whoever left that tail
    /// already armed it.
    pub fn send(&self, frame: Vec<u8>) -> Result<bool, Refused> {
        let mut st = self.state.plock();
        if let Some(e) = &st.closed {
            return Err(Refused::Closed(e.clone()));
        }
        if st.writer.queued_bytes() + frame.len() > WRITE_BACKLOG_MAX {
            let e = RuntimeError::Transport("write backlog limit exceeded".into());
            st.closed = Some(e.clone());
            return Err(Refused::Failed(e));
        }
        let idle = st.writer.is_empty();
        st.writer.enqueue(frame);
        if !idle {
            return Ok(false);
        }
        self.pump(&mut st).map_err(Refused::Failed)?;
        Ok(!st.writer.is_empty())
    }

    /// The write-readiness side: retires queued bytes as far as the
    /// socket takes them.
    fn flush(&self) -> Result<(), RuntimeError> {
        let mut st = self.state.plock();
        if let Some(e) = &st.closed {
            return Err(e.clone());
        }
        self.pump(&mut st)
    }

    /// Writes queued bytes until the socket blocks, counting them and
    /// restarting the stall clock on progress (the stall expiries of
    /// both sides read it). A failed write closes the
    /// half, so no later frame follows a torn one onto the wire.
    fn pump(&self, st: &mut WriteState) -> Result<(), RuntimeError> {
        if st.writer.is_empty() {
            st.stalled_since = None;
            return Ok(());
        }
        let pump = match st.writer.pump(&mut &self.stream) {
            Ok(pump) => pump,
            Err(e) => {
                st.closed = Some(e.clone());
                return Err(e);
            }
        };
        if let (Some(metrics), true) = (&self.metrics, pump.bytes > 0) {
            metrics.add_bytes_sent(pump.bytes as u64);
        }
        if st.writer.is_empty() {
            st.stalled_since = None;
        } else if pump.bytes > 0 || st.stalled_since.is_none() {
            st.stalled_since = Some(Instant::now());
        }
        Ok(())
    }

    /// Whether bytes are queued that the socket has not accepted.
    fn queued(&self) -> bool {
        !self.state.plock().writer.is_empty()
    }

    fn stalled_since(&self) -> Option<Instant> {
        self.state.plock().stalled_since
    }

    /// Refuses every later send with `why`.
    fn close(&self, why: &RuntimeError) {
        self.state.plock().closed.get_or_insert_with(|| why.clone());
    }
}

// ---------------------------------------------------------------------------
// Waker table and reader role
// ---------------------------------------------------------------------------

/// What a waiter slot holds while its call is in flight.
pub(crate) enum Slot {
    /// The reply has not arrived; the caller's thread handle is here so
    /// exactly that thread can be unparked on completion (or handed the
    /// reader role).
    Waiting(Thread),
    /// The reader delivered the reply (still carrying the
    /// connection-unique wire id).
    Ready(Message),
    /// The connection failed before the reply arrived.
    Failed(RuntimeError),
}

pub(crate) struct MuxState {
    /// In-flight calls keyed by connection-unique request id.
    pub pending: HashMap<u32, Slot>,
    /// Set once when the stream breaks; later calls fail fast.
    pub dead: Option<RuntimeError>,
    /// The connection's read half while no thread holds the reader
    /// role; `None` while one does, and once the connection is dead.
    reader: Option<FrameReader>,
    /// The reactor saw the peer hang up while a thread held the reader
    /// role: that thread reads the stream to its end before it leaves.
    hung_up: bool,
}

/// One client connection as its callers and the client reactor share
/// it: the outbound half, and the waker table with the read half. A
/// caller registers a [`Slot::Waiting`] entry, writes its request, and
/// then either reads the socket itself ([`await_reply`]) or parks until
/// the thread that does read resolves its slot.
///
/// [`await_reply`]: MuxCore::await_reply
pub(crate) struct MuxCore {
    pub out: Outbound,
    pub state: Mutex<MuxState>,
}

impl MuxCore {
    pub fn new(out: Outbound) -> Self {
        MuxCore {
            out,
            state: Mutex::new(MuxState {
                pending: HashMap::new(),
                dead: None,
                reader: Some(FrameReader::new()),
                hung_up: false,
            }),
        }
    }

    /// Delivers a reply to its waiter; a missing slot means the waiter
    /// gave up (deadline) and the late reply is dropped.
    fn complete(&self, request_id: u32, reply: Message) {
        let mut st = self.state.plock();
        if let Some(slot) = st.pending.get_mut(&request_id) {
            if let Slot::Waiting(t) = std::mem::replace(slot, Slot::Ready(reply)) {
                t.unpark();
            }
        }
    }

    /// Closes the connection: later sends are refused, the connection
    /// is marked dead and every registered waiter fails, and a thread
    /// blocked reading the socket wakes. The waiters fail synchronously,
    /// under the same lock new waiters register under, so a call can
    /// never slip between the death of the stream and the failure
    /// broadcast and hang.
    fn close(&self, why: &RuntimeError) {
        // Closed before the waiters fail: a caller that registered
        // after the broadcast finds the connection dead, one that
        // registered before it finds nothing left to write to.
        self.out.close(why);
        let mut st = self.state.plock();
        st.dead.get_or_insert_with(|| why.clone());
        for slot in st.pending.values_mut() {
            if matches!(slot, Slot::Waiting(_)) {
                if let Slot::Waiting(t) = std::mem::replace(slot, Slot::Failed(why.clone())) {
                    t.unpark();
                }
            }
        }
        drop(st);
        self.out.stream.shutdown(Shutdown::Both).ok();
    }

    /// Why the connection died, if it has.
    fn dead(&self) -> Option<RuntimeError> {
        self.state.plock().dead.clone()
    }

    /// Waits for the reply to `wire_id`, whose slot the caller
    /// registered before writing the request. Whenever no thread holds
    /// the reader role this caller takes it and reads the socket
    /// itself; otherwise it parks. Either wait ends at `deadline`, and
    /// `Ok(None)` means it passed first: the slot is gone, so a late
    /// reply is dropped.
    ///
    /// # Errors
    ///
    /// Why the connection died before the reply arrived.
    pub fn await_reply(
        &self,
        wire_id: u32,
        deadline: Option<Instant>,
    ) -> Result<Option<Message>, RuntimeError> {
        loop {
            let mut st = self.state.plock();
            if !matches!(st.pending.get(&wire_id), Some(Slot::Waiting(_))) {
                return match st.pending.remove(&wire_id) {
                    Some(Slot::Ready(reply)) => Ok(Some(reply)),
                    Some(Slot::Failed(e)) => Err(e),
                    _ => Err(RuntimeError::Protocol("waiter slot vanished".into())),
                };
            }
            let now = Instant::now();
            if deadline.is_some_and(|at| now >= at) {
                st.pending.remove(&wire_id);
                // A reader that just handed this caller the role must
                // not leave the others without one.
                hand_off(&st);
                return Ok(None);
            }
            let Some(mut reader) = st.reader.take() else {
                drop(st);
                match deadline {
                    Some(at) => std::thread::park_timeout(at - now),
                    None => std::thread::park(),
                }
                continue;
            };
            drop(st);
            let turn = self.read_turn(&mut reader, Some(wire_id), true, deadline);
            let (own, ended) = match turn {
                Ok(own) => (own, None),
                Err(e) => (None, Some(e)),
            };
            self.finish_turn(reader, ended, own.is_some().then_some(wire_id));
            if own.is_some() {
                return Ok(own);
            }
        }
    }

    /// The client reactor's read, on a hang-up (or, on the portable
    /// backend, on every report): when no caller holds the reader role,
    /// takes it and reads whatever the socket holds without blocking.
    /// A peer that hung up has its last frames delivered and then fails
    /// the rest. When a caller holds the role, the hang-up is left to it.
    fn read_if_idle(&self, hangup: bool) {
        let mut st = self.state.plock();
        let Some(mut reader) = st.reader.take() else {
            st.hung_up |= hangup && st.dead.is_none();
            return;
        };
        drop(st);
        let ended = self.read_turn(&mut reader, None, false, None).err();
        self.finish_turn(reader, ended, None);
    }

    /// One turn in the reader role: reads frames, handing other callers'
    /// replies to their slots, until the frame for `own` arrives (it is
    /// returned), the socket has nothing more (when not `block`ing), or
    /// `deadline` passes (when blocking in `poll(2)`).
    ///
    /// # Errors
    ///
    /// The stream ended: a clean close, a protocol error or a socket
    /// error.
    fn read_turn(
        &self,
        reader: &mut FrameReader,
        own: Option<u32>,
        block: bool,
        deadline: Option<Instant>,
    ) -> Result<Option<Message>, RuntimeError> {
        let stream = &self.out.stream;
        let mut bytes = 0usize;
        let turn = 'turn: loop {
            if block {
                let left = deadline.map(|at| at.saturating_duration_since(Instant::now()));
                if left.is_some_and(|l| l.is_zero()) {
                    break Ok(None);
                }
                match wait_readable(stream, left) {
                    Ok(true) => {}
                    Ok(false) => continue,
                    Err(e) => break Err(RuntimeError::Transport(e.to_string())),
                }
            }
            loop {
                match reader.next_frame(&mut &*stream, &mut bytes) {
                    Ok(Step::Frame(msg)) => {
                        // Clients only expect replies; anything else
                        // is dropped.
                        if let MessageKind::Reply { request_id, .. } = msg.kind {
                            if own == Some(request_id) {
                                break 'turn Ok(Some(msg));
                            }
                            self.complete(request_id, msg);
                        }
                    }
                    Ok(Step::Blocked) => break,
                    Ok(Step::Eof) => break 'turn Err(closed_by_peer()),
                    Err(e) => break 'turn Err(e),
                }
            }
            if !block {
                break Ok(None);
            }
        };
        if let (Some(metrics), true) = (&self.out.metrics, bytes > 0) {
            metrics.add_bytes_received(bytes as u64);
        }
        turn
    }

    /// Ends a reader turn, removing slot `own` when the turn delivered
    /// its reply. The read half goes back for the next reader, unless
    /// the stream ended, which closes the connection; a hang-up the
    /// reactor saw during the turn is first read to its end. Then one
    /// waiter, if any, is unparked to take the role.
    fn finish_turn(
        &self,
        mut reader: FrameReader,
        mut ended: Option<RuntimeError>,
        own: Option<u32>,
    ) {
        loop {
            let mut st = self.state.plock();
            if let Some(id) = own {
                st.pending.remove(&id);
            }
            if ended.is_none() && std::mem::take(&mut st.hung_up) {
                drop(st);
                ended = self.read_turn(&mut reader, None, false, None).err();
                continue;
            }
            match ended {
                None => {
                    st.reader = Some(reader);
                    hand_off(&st);
                }
                Some(e) => {
                    drop(st);
                    self.close(&e);
                }
            }
            return;
        }
    }
}

/// Unparks one waiting caller when the reader role is free, so that
/// replies still due are read. Called wherever a thread leaves the wait
/// while others may rely on it.
fn hand_off(st: &MuxState) {
    if st.reader.is_none() {
        return;
    }
    if let Some(Slot::Waiting(t)) = st.pending.values().find(|s| matches!(s, Slot::Waiting(_))) {
        t.unpark();
    }
}

// ---------------------------------------------------------------------------
// Readiness poller
// ---------------------------------------------------------------------------

/// Which readiness a registration reports besides hang-ups, which it
/// always reports: reads while a server still takes frames from the
/// connection, writes only while its [`FrameWriter`] holds bytes the
/// socket has not accepted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Interest {
    read: bool,
    write: bool,
}

/// One readiness report for a registered connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    key: u64,
    read: bool,
    write: bool,
    /// The peer hung up, or the socket failed.
    hangup: bool,
}

#[cfg(target_os = "linux")]
use epoll::{wait_readable, Poller, Waker};
#[cfg(not(target_os = "linux"))]
use timed::{wait_readable, Poller, Waker};

/// Readiness from the kernel: one epoll set per client reactor or per
/// server, with sockets registered under their connection id (level-
/// triggered for the client reactor, one-shot for a server's pollers,
/// which share the set), an eventfd that ends the waits, and `poll(2)`
/// for a caller that reads its own socket.
#[cfg(target_os = "linux")]
mod epoll {
    use std::ffi::{c_int, c_short, c_uint, c_ulong, c_void};
    use std::io;
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::sync::Arc;
    use std::time::Duration;

    use super::{Event, Interest};

    const EPOLL_CLOEXEC: c_int = 0o2_000_000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLONESHOT: u32 = 1 << 30;
    const EFD_CLOEXEC: c_int = 0o2_000_000;
    const EFD_NONBLOCK: c_int = 0o4_000;
    const POLLIN: c_short = 0x001;

    /// The eventfd's key. Connection ids are allocated upward from 1 and
    /// never reach it; keys are never fd numbers, which the kernel
    /// reuses after a close.
    const WAKE_KEY: u64 = u64::MAX;

    /// The kernel's `struct epoll_event`, which is packed on x86-64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// The kernel's `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    unsafe extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(epfd: c_int, events: *mut EpollEvent, max: c_int, timeout: c_int) -> c_int;
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    /// Maps a libc-style return value to `errno` on failure.
    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// A wait's timeout in whole milliseconds, rounded up (waking
    /// before the timer is due would only spin); `None` is -1, no limit.
    fn millis(timeout: Option<Duration>) -> c_int {
        timeout.map_or(-1, |t| {
            c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
        })
    }

    /// A file descriptor this module created, closed on drop.
    struct Fd(c_int);

    impl Drop for Fd {
        fn drop(&mut self) {
            // SAFETY: the descriptor came from a successful
            // `epoll_create1` or `eventfd`, is owned by this value
            // alone, and is closed exactly once, here.
            unsafe { close(self.0) };
        }
    }

    /// Ends [`Poller::wait`]; every handle shares one. Dropping the
    /// last one wakes it too, so a reactor sees its command channel
    /// close instead of sleeping forever.
    pub struct Waker(Arc<Fd>);

    impl Waker {
        pub fn wake(&self) {
            let one = 1u64;
            // SAFETY: writes the 8 bytes of a live `u64` to the eventfd,
            // which stays open while this waker holds it. The only
            // possible failure is a full counter (`EAGAIN`), which
            // already means a wake is pending.
            unsafe { write(self.0 .0, (&raw const one).cast(), 8) };
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            self.wake();
        }
    }

    pub struct Poller {
        epoll: Fd,
        wake: Arc<Fd>,
        oneshot: bool,
    }

    impl Poller {
        /// A poller whose registrations are level-triggered, or, with
        /// `oneshot`, disarmed after each report until modified again,
        /// so that threads sharing the set never get one socket twice.
        /// The waker stays level-triggered: until
        /// [`clear_wake`](Self::clear_wake), every wait reports it.
        pub fn new(oneshot: bool) -> io::Result<(Poller, Arc<Waker>)> {
            // SAFETY: a plain syscall with constant flags, no pointers.
            let epoll = Fd(cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?);
            // SAFETY: as above.
            let wake = Arc::new(Fd(cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?));
            let poller = Poller {
                epoll,
                wake: Arc::clone(&wake),
                oneshot,
            };
            poller.ctl(EPOLL_CTL_ADD, wake.0, EPOLLIN, WAKE_KEY)?;
            Ok((poller, Arc::new(Waker(wake))))
        }

        fn ctl(&self, op: c_int, fd: c_int, events: u32, key: u64) -> io::Result<()> {
            let mut event = EpollEvent { events, data: key };
            // SAFETY: `event` is a live, correctly laid-out
            // `epoll_event` for the whole call; the kernel copies it and
            // keeps no pointer.
            cvt(unsafe { epoll_ctl(self.epoll.0, op, fd, &mut event) }).map(drop)
        }

        fn mask(&self, interest: Interest) -> u32 {
            let read = if interest.read { EPOLLIN } else { 0 };
            let write = if interest.write { EPOLLOUT } else { 0 };
            let oneshot = if self.oneshot { EPOLLONESHOT } else { 0 };
            EPOLLRDHUP | read | write | oneshot
        }

        /// Registers connection `key`.
        pub fn add(&self, stream: &TcpStream, key: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, stream.as_raw_fd(), self.mask(interest), key)
        }

        /// Replaces connection `key`'s interest (and re-arms a one-shot
        /// registration).
        pub fn modify(&self, stream: &TcpStream, key: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, stream.as_raw_fd(), self.mask(interest), key)
        }

        /// Deregisters a connection.
        pub fn delete(&self, stream: &TcpStream, key: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, stream.as_raw_fd(), 0, key)
        }

        /// Blocks until a registered connection is ready, the waker
        /// fires, or `timeout` passes (`None` waits without limit), and
        /// appends at most `max` reports to `ready`. Returns whether
        /// the waker had fired. Safe to call from several threads at
        /// once: the kernel wakes one waiter per ready item.
        pub fn wait(
            &self,
            timeout: Option<Duration>,
            max: usize,
            ready: &mut Vec<Event>,
        ) -> io::Result<bool> {
            let mut events = [EpollEvent { events: 0, data: 0 }; super::MAX_EVENTS];
            let max = max.clamp(1, super::MAX_EVENTS);
            // SAFETY: `events` holds `MAX_EVENTS` initialised entries and
            // the kernel writes at most `max` of them.
            let n = unsafe {
                epoll_wait(
                    self.epoll.0,
                    events.as_mut_ptr(),
                    max as c_int,
                    millis(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                return match err.kind() {
                    io::ErrorKind::Interrupted => Ok(false),
                    _ => Err(err),
                };
            }
            let mut woken = false;
            for event in &events[..n as usize] {
                let (key, bits) = (event.data, event.events);
                if key == WAKE_KEY {
                    woken = true;
                    continue;
                }
                ready.push(Event {
                    key,
                    read: bits & EPOLLIN != 0,
                    write: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(woken)
        }

        /// Resets the waker, so waits block again.
        pub fn clear_wake(&self) {
            let mut count = 0u64;
            // SAFETY: reads 8 bytes into a live `u64` from the
            // nonblocking eventfd this poller holds open; an empty
            // counter fails with `EAGAIN`, which is what resetting it
            // wants anyway.
            unsafe { read(self.wake.0, (&raw mut count).cast(), 8) };
        }
    }

    /// Blocks until `stream` is readable, hung up or failed, or until
    /// `timeout` passes (`None` waits without limit). Returns whether
    /// it is ready; `false` after a timeout or a signal.
    pub fn wait_readable(stream: &TcpStream, timeout: Option<Duration>) -> io::Result<bool> {
        let mut fd = PollFd {
            fd: stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        // SAFETY: `fd` is one live, correctly laid-out `pollfd` for the
        // whole call, naming a descriptor the borrowed stream keeps
        // open; the kernel writes only its `revents`.
        let n = unsafe { poll(&mut fd, 1, millis(timeout)) };
        if n < 0 {
            let err = io::Error::last_os_error();
            return match err.kind() {
                io::ErrorKind::Interrupted => Ok(false),
                _ => Err(err),
            };
        }
        Ok(n > 0)
    }
}

/// The portable backend: no readiness source, so after a timed park
/// of at most `PARK` (cut short by the waker) every armed connection is
/// reported ready for everything but a hang-up, and a caller waiting to
/// read sleeps as long. Selected off Linux; built everywhere so its
/// test runs too.
#[cfg_attr(target_os = "linux", allow(dead_code))]
mod timed {
    use super::{Event, Interest};
    use crate::sync::LockExt;
    use std::collections::BTreeMap;
    use std::io::Result;
    use std::net::TcpStream;
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::Duration;

    const PARK: Duration = Duration::from_millis(1);

    /// Holds at most one pending wake, which ends the next park.
    pub struct Waker(mpsc::SyncSender<()>);

    impl Waker {
        pub fn wake(&self) {
            let _ = self.0.try_send(());
        }
    }

    pub struct Poller {
        /// Registered keys, each with whether it is armed: a one-shot
        /// key is disarmed when reported, until modified again.
        keys: Mutex<BTreeMap<u64, bool>>,
        wake: Mutex<mpsc::Receiver<()>>,
        oneshot: bool,
    }

    impl Poller {
        pub fn new(oneshot: bool) -> Result<(Poller, Arc<Waker>)> {
            let (tx, rx) = mpsc::sync_channel(1);
            let poller = Poller {
                keys: Mutex::new(BTreeMap::new()),
                wake: Mutex::new(rx),
                oneshot,
            };
            Ok((poller, Arc::new(Waker(tx))))
        }

        pub fn add(&self, _: &TcpStream, key: u64, _: Interest) -> Result<()> {
            self.keys.plock().insert(key, true);
            Ok(())
        }

        pub fn modify(&self, stream: &TcpStream, key: u64, interest: Interest) -> Result<()> {
            self.add(stream, key, interest)
        }

        pub fn delete(&self, _: &TcpStream, key: u64) -> Result<()> {
            self.keys.plock().remove(&key);
            Ok(())
        }

        pub fn wait(
            &self,
            timeout: Option<Duration>,
            max: usize,
            ready: &mut Vec<Event>,
        ) -> Result<bool> {
            let park = timeout.map_or(PARK, |t| t.min(PARK));
            let woken = self.wake.plock().recv_timeout(park).is_ok();
            let mut keys = self.keys.plock();
            for (&key, armed) in keys.iter_mut().filter(|(_, armed)| **armed).take(max) {
                *armed = !self.oneshot;
                ready.push(Event {
                    key,
                    read: true,
                    write: true,
                    hangup: false,
                });
            }
            Ok(woken)
        }

        pub fn clear_wake(&self) {}
    }

    pub fn wait_readable(_: &TcpStream, timeout: Option<Duration>) -> Result<bool> {
        std::thread::sleep(timeout.map_or(PARK, |t| t.min(PARK)));
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// Client reactor
// ---------------------------------------------------------------------------

pub(crate) enum Command {
    /// Watch a connected, handshaken client connection.
    Register(Arc<MuxCore>),
    /// A caller wrote a frame on `conn` itself and hands over what it
    /// cannot finish: a tail the socket refused (the reactor arms write
    /// readiness), or the failed write that closes the connection.
    Wrote {
        conn: u64,
        failed: Option<RuntimeError>,
    },
    /// Drop a connection (client handle dropped).
    Close { conn: u64 },
}

/// The caller-side handle to the client reactor thread: a command
/// queue plus the waker that ends the reactor's wait after each send.
#[derive(Clone)]
pub(crate) struct ReactorHandle {
    /// Declared before `waker`: fields drop in order, so when the last
    /// handle's waker wakes the reactor, every sender is already gone.
    tx: Sender<Command>,
    waker: Arc<Waker>,
    next_id: Arc<AtomicU64>,
}

impl ReactorHandle {
    /// Allocates a process-unique connection id.
    pub fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Sends a command and wakes the reactor.
    pub fn send(&self, cmd: Command) -> Result<(), RuntimeError> {
        self.tx
            .send(cmd)
            .map_err(|_| RuntimeError::Transport("transport reactor is gone".into()))?;
        self.waker.wake();
        Ok(())
    }

    /// Writes one encoded frame on `out` from the calling thread
    /// ([`Outbound::send`]) and wakes the reactor only for what that
    /// thread cannot finish: a tail the socket refused, or a failed
    /// write, which closes the connection.
    ///
    /// # Errors
    ///
    /// Why the connection closed, or why this write failed.
    pub fn write(&self, out: &Outbound, frame: Vec<u8>) -> Result<(), RuntimeError> {
        let conn = out.id;
        match out.send(frame) {
            Ok(false) => Ok(()),
            Ok(true) => self.send(Command::Wrote { conn, failed: None }),
            Err(Refused::Closed(e)) => Err(e),
            Err(Refused::Failed(e)) => {
                let _ = self.send(Command::Wrote {
                    conn,
                    failed: Some(e.clone()),
                });
                Err(e)
            }
        }
    }
}

/// The process-wide reactor every client connection registers with.
pub(crate) fn client_reactor() -> &'static ReactorHandle {
    static CLIENT: OnceLock<ReactorHandle> = OnceLock::new();
    CLIENT.get_or_init(|| {
        spawn_reactor("mb-reactor")
            .expect("start the client reactor")
            .0
    })
}

/// Spawns a client reactor thread. Returns the handle and the thread's
/// join handle (the process-wide reactor detaches it).
///
/// # Errors
///
/// [`RuntimeError::Transport`] when the poller or the thread cannot be
/// created (descriptor or thread limits).
pub(crate) fn spawn_reactor(name: &str) -> Result<(ReactorHandle, JoinHandle<()>), RuntimeError> {
    let startup = |e: std::io::Error| RuntimeError::Transport(format!("start reactor: {e}"));
    let (poller, waker) = Poller::new(false).map_err(startup)?;
    let (tx, rx) = std::sync::mpsc::channel();
    let join = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            Reactor {
                conns: HashMap::new(),
                poller,
                unflushed: HashSet::new(),
            }
            .run(&rx);
        })
        .map_err(startup)?;
    Ok((
        ReactorHandle {
            tx,
            waker,
            next_id: Arc::new(AtomicU64::new(1)),
        },
        join,
    ))
}

/// A connection the client reactor watches.
struct Watched {
    core: Arc<MuxCore>,
    /// What the poller reports for it; `None` once a hang-up was
    /// consumed and the socket deregistered.
    interest: Option<Interest>,
}

struct Reactor {
    conns: HashMap<u64, Watched>,
    poller: Poller,
    /// Connections whose writer holds unsent bytes: the only ones with
    /// write interest armed, and the only ones the stall clock watches.
    unflushed: HashSet<u64>,
}

impl Reactor {
    fn run(mut self, rx: &Receiver<Command>) {
        let mut ready: Vec<Event> = Vec::new();
        loop {
            // Commands first: registrations, tails, closes.
            loop {
                match rx.try_recv() {
                    Ok(cmd) => self.handle(cmd),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        // Every handle is gone: nobody can submit work
                        // or wait on a reply. Fail what's left and
                        // exit.
                        self.fail_everything(&RuntimeError::Transport(
                            "transport reactor shut down".into(),
                        ));
                        return;
                    }
                }
            }

            // The connections the last wait reported. A key whose
            // connection closed since then finds no entry.
            for event in std::mem::take(&mut ready) {
                self.service(event);
            }
            self.expire_stalls(Instant::now());

            let timeout = self
                .next_stall()
                .map(|at| at.saturating_duration_since(Instant::now()));
            match self.poller.wait(timeout, MAX_EVENTS, &mut ready) {
                Ok(woken) => {
                    if woken {
                        self.poller.clear_wake();
                    }
                }
                Err(e) => {
                    self.fail_everything(&RuntimeError::Transport(format!(
                        "transport reactor poll failed: {e}"
                    )));
                    return;
                }
            }
        }
    }

    /// When the earliest write stall expires; `None` while no writer is
    /// blocked.
    fn next_stall(&self) -> Option<Instant> {
        self.unflushed
            .iter()
            .filter_map(|id| self.conns.get(id)?.core.out.stalled_since())
            .min()
            .map(|since| since + WRITE_STALL)
    }

    /// Closes every connection whose writer has made no progress for
    /// [`WRITE_STALL`]: a peer that stopped reading never makes the
    /// socket writable again, so no readiness event would. No last
    /// write is tried, because a receiving kernel that compacts its
    /// queue takes a few more bytes with nobody reading, which would
    /// restart the clock; as with a blocking write's timeout, only room
    /// the socket reports is progress (a frame queued behind a tail is
    /// not written at all).
    fn expire_stalls(&mut self, now: Instant) {
        let due: Vec<u64> = self
            .unflushed
            .iter()
            .copied()
            .filter(|id| {
                self.conns
                    .get(id)
                    .and_then(|c| c.core.out.stalled_since())
                    .is_some_and(|since| now >= since + WRITE_STALL)
            })
            .collect();
        for id in due {
            self.close(id, &stalled());
        }
    }

    fn handle(&mut self, cmd: Command) {
        match cmd {
            Command::Register(core) => {
                let id = core.out.id;
                let interest = Interest::default();
                if let Err(e) = self.poller.add(&core.out.stream, id, interest) {
                    core.close(&RuntimeError::Transport(format!(
                        "readiness registration failed: {e}"
                    )));
                    return;
                }
                self.conns.insert(
                    id,
                    Watched {
                        core,
                        interest: Some(interest),
                    },
                );
                self.rearm(id);
            }
            Command::Wrote { conn, failed } => match failed {
                Some(e) => self.close(conn, &e),
                // Unknown conn: it died and its waiters already failed.
                None => self.rearm(conn),
            },
            Command::Close { conn } => {
                self.close(conn, &RuntimeError::Transport("connection closed".into()));
            }
        }
    }

    /// Re-derives a connection's write interest from its writer, while
    /// it is still registered.
    fn rearm(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let want = Interest {
            read: false,
            write: conn.core.out.queued(),
        };
        if want.write {
            self.unflushed.insert(id);
        } else {
            self.unflushed.remove(&id);
        }
        if conn.interest.is_none_or(|have| have == want) {
            return;
        }
        match self.poller.modify(&conn.core.out.stream, id, want) {
            Ok(()) => conn.interest = Some(want),
            Err(e) => self.close(
                id,
                &RuntimeError::Transport(format!("readiness registration failed: {e}")),
            ),
        }
    }

    /// Handles one readiness report: a hang-up is consumed once (the
    /// socket leaves the poller, or a level-triggered report would
    /// spin the loop) and read out unless a caller is reading; write
    /// readiness retires a tail.
    fn service(&mut self, event: Event) {
        let Some(conn) = self.conns.get_mut(&event.key) else {
            return;
        };
        let core = Arc::clone(&conn.core);
        if event.hangup && conn.interest.take().is_some() {
            self.poller.delete(&core.out.stream, event.key).ok();
        }
        if event.write {
            if let Err(e) = core.out.flush() {
                return self.close(event.key, &e);
            }
        }
        if event.read || event.hangup {
            core.read_if_idle(event.hangup);
            if let Some(e) = core.dead() {
                return self.close(event.key, &e);
            }
        }
        self.rearm(event.key);
    }

    /// Stops watching a connection and closes it, failing its waiters
    /// synchronously.
    fn close(&mut self, id: u64, why: &RuntimeError) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        self.unflushed.remove(&id);
        // Deregister before the descriptor closes: the kernel would
        // drop it anyway, but only once no duplicate refers to it.
        if conn.interest.is_some() {
            self.poller.delete(&conn.core.out.stream, id).ok();
        }
        conn.core.close(why);
    }

    fn fail_everything(&mut self, err: &RuntimeError) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close(id, err);
        }
    }
}

fn stalled() -> RuntimeError {
    RuntimeError::Transport("write stalled: peer stopped reading".into())
}

// ---------------------------------------------------------------------------
// Server pollers
// ---------------------------------------------------------------------------

/// One accepted server connection, shared by the pollers and by the
/// jobs read from it.
struct ServerConn {
    out: Outbound,
    /// The read half: only the poller that got the socket's report
    /// reads, and the one-shot registration hands the socket to one
    /// poller at a time, so this lock is taken, not waited for.
    reader: Mutex<FrameReader>,
    /// Frames of this connection waiting in a dispatch queue (admission
    /// control).
    queued: AtomicUsize,
    /// A rejected handshake: nothing more is read, and the connection
    /// closes once its last reply is written.
    closing: AtomicBool,
}

/// One unit of admitted server work: a request frame tagged with the
/// connection it arrived on.
struct ServerJob {
    /// Where the reply goes.
    conn: Arc<ServerConn>,
    msg: Message,
    /// When the request's propagated deadline runs out (admission
    /// stamped it from the wire slot); a job that waited in a queue
    /// past this instant is refused instead of dispatched.
    expires_at: Option<Instant>,
    /// When admission accepted the frame: the dispatching thread
    /// reports the full sojourn (queue wait + dispatch) to the AIMD
    /// limiter, so queueing delay — the first symptom of overload —
    /// moves the limit.
    admitted: Instant,
}

/// The request/reply dispatch slots and the queue of admitted requests
/// waiting for one. One lock covers both, and a job is queued only
/// while no slot is free, so no admitted job waits while a slot idles.
struct Jobs {
    queue: VecDeque<ServerJob>,
    free: usize,
}

/// A [`TcpServer`](crate::transport::TcpServer)'s shared state: its
/// connections, the epoll set its pollers share, and the admission and
/// dispatch machinery.
pub(crate) struct Server {
    cfg: ServerConfig,
    dispatcher: Arc<Dispatcher>,
    metrics: Arc<MetricsRegistry>,
    /// The admission limiter (pinned at the static cap unless the
    /// config asked for adaptive control).
    limiter: AimdLimiter,
    poller: Poller,
    waker: Arc<Waker>,
    conns: Mutex<HashMap<u64, Arc<ServerConn>>>,
    next_conn: AtomicU64,
    /// Connections whose writer holds a tail: the ones the write-stall
    /// clock watches.
    unflushed: Mutex<HashSet<u64>>,
    jobs: Mutex<Jobs>,
    /// Oneway requests carry no reply for the caller to correlate, so
    /// their only ordering guarantee is dispatch order: they bypass the
    /// slots and drain through a single dedicated worker in receipt
    /// order.
    ordered: FrameQueue<ServerJob>,
    /// Requests in dispatch right now.
    in_flight: AtomicUsize,
    /// Shutdown: no frame is read again, and a poller exits once it
    /// holds no work.
    stopping: AtomicBool,
}

impl Server {
    /// Starts a server's threads: `workers + 1` pollers (`mb-srv-poll`)
    /// and the oneway worker (`mb-srv-oneway`). Returns the shared
    /// state, which the acceptor registers sockets with, and the
    /// threads, which [`stop`](Self::stop) ends.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Transport`] when the poller or a thread cannot
    /// be created (descriptor or thread limits).
    pub fn start(
        cfg: ServerConfig,
        dispatcher: Arc<Dispatcher>,
    ) -> Result<(Arc<Server>, Vec<JoinHandle<()>>), RuntimeError> {
        let startup = |e: std::io::Error| RuntimeError::Transport(format!("start server: {e}"));
        let (poller, waker) = Poller::new(true).map_err(startup)?;
        let workers = cfg.workers.max(1);
        let server = Arc::new(Server {
            limiter: cfg.limiter(),
            metrics: Arc::clone(dispatcher.metrics()),
            cfg,
            dispatcher,
            poller,
            waker,
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(1 << 32),
            unflushed: Mutex::new(HashSet::new()),
            jobs: Mutex::new(Jobs {
                queue: VecDeque::new(),
                free: workers,
            }),
            ordered: FrameQueue::new(),
            in_flight: AtomicUsize::new(0),
            stopping: AtomicBool::new(false),
        });
        let mut threads = Vec::with_capacity(workers + 2);
        for k in 0..=workers + 1 {
            let srv = Arc::clone(&server);
            let (name, body): (&str, fn(&Server)) = if k <= workers {
                ("mb-srv-poll", Server::poll_loop)
            } else {
                ("mb-srv-oneway", Server::oneway_loop)
            };
            match std::thread::Builder::new()
                .name(name.to_string())
                .spawn(move || body(&srv))
            {
                Ok(t) => threads.push(t),
                Err(e) => {
                    server.stop();
                    for t in threads {
                        let _ = t.join();
                    }
                    return Err(startup(e));
                }
            }
        }
        Ok((server, threads))
    }

    /// Connections the server currently holds open.
    pub fn open_conns(&self) -> usize {
        self.conns.plock().len()
    }

    /// Adopts an accepted socket: the acceptor arms it itself.
    pub fn register(&self, stream: TcpStream) {
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::new(ServerConn {
            out: Outbound::new(id, stream, None),
            reader: Mutex::new(FrameReader::new()),
            queued: AtomicUsize::new(0),
            closing: AtomicBool::new(false),
        });
        self.conns.plock().insert(id, Arc::clone(&conn));
        let interest = Interest {
            read: true,
            write: false,
        };
        if let Err(e) = self.poller.add(&conn.out.stream, id, interest) {
            self.close(
                id,
                &RuntimeError::Transport(format!("readiness registration failed: {e}")),
            );
        }
    }

    /// Shutdown, phases one and two: no frame is read again, and
    /// every poller's wait ends, so each finishes the work it holds,
    /// drains what is queued behind it, and exits (the oneway worker
    /// drains its closed queue). The waker stays set, so every later
    /// wait returns at once.
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.ordered.close();
        self.waker.wake();
    }

    /// Shutdown, phase three, once every poller has exited: flushes
    /// pending reply bytes (bounded) and closes every connection.
    pub fn drain(&self) {
        self.poller.clear_wake();
        let give_up = Instant::now() + DRAIN_FLUSH;
        let mut ready = Vec::new();
        loop {
            for conn in self.unflushed_conns() {
                match conn.out.flush() {
                    Ok(()) => self.arm(&conn),
                    Err(e) => self.close(conn.out.id, &e),
                }
            }
            let now = Instant::now();
            if self.unflushed.plock().is_empty() || now >= give_up {
                break;
            }
            ready.clear();
            if self
                .poller
                .wait(Some(give_up - now), MAX_EVENTS, &mut ready)
                .is_err()
            {
                break;
            }
        }
        self.close_all(&RuntimeError::Transport("server shut down".into()));
    }

    /// A poller: waits for one socket at a time and serves it, until
    /// shutdown. The wait ends by itself only when a write stall falls
    /// due.
    fn poll_loop(&self) {
        let mut ready = Vec::with_capacity(1);
        while !self.stopping.load(Ordering::SeqCst) {
            let timeout = self
                .next_stall()
                .map(|at| at.saturating_duration_since(Instant::now()));
            if let Err(e) = self.poller.wait(timeout, 1, &mut ready) {
                return self
                    .close_all(&RuntimeError::Transport(format!("server poll failed: {e}")));
            }
            self.expire_stalls(Instant::now());
            for event in ready.drain(..) {
                self.service(event);
            }
        }
    }

    /// The oneway worker: dispatches oneways one at a time, in receipt
    /// order, until its queue is closed and empty.
    fn oneway_loop(&self) {
        while let Some(job) = self.ordered.pop() {
            job.conn.queued.fetch_sub(1, Ordering::SeqCst);
            self.dispatch(&job);
        }
    }

    /// Serves one report: retires a tail on write readiness, reads what
    /// the socket holds, re-arms the socket, and then runs the request
    /// the read kept for this thread, if any.
    fn service(&self, event: Event) {
        let Some(conn) = self.conns.plock().get(&event.key).cloned() else {
            return;
        };
        if event.write {
            if let Err(e) = conn.out.flush() {
                return self.close(event.key, &e);
            }
        }
        let mut job = None;
        if (event.read || event.hangup) && self.reading(&conn) {
            let mut reader = match conn.reader.try_lock() {
                Ok(reader) => reader,
                Err(TryLockError::Poisoned(p)) => p.into_inner(),
                // A tail's arm re-enabled the socket while another
                // poller reads it; that poller re-arms when it lets go.
                Err(TryLockError::WouldBlock) => return,
            };
            let read = self.read(&conn, &mut reader);
            drop(reader);
            match read {
                Ok(next) => job = next,
                Err(e) => return self.close(event.key, &e),
            }
        }
        // Re-armed before the dispatch, so the connection's next frame
        // can go to another poller while this one runs the request.
        self.arm(&conn);
        if let Some(job) = job {
            self.run(job);
        }
    }

    fn reading(&self, conn: &ServerConn) -> bool {
        !self.stopping.load(Ordering::SeqCst) && !conn.closing.load(Ordering::SeqCst)
    }

    /// Reads frames until one is a request this thread may run itself
    /// (returned), the socket has nothing more, or the read budget is
    /// spent; every other frame is answered inline, queued or shed.
    ///
    /// # Errors
    ///
    /// The stream ended, cleanly or not: the connection must close.
    fn read(
        &self,
        conn: &Arc<ServerConn>,
        reader: &mut FrameReader,
    ) -> Result<Option<ServerJob>, RuntimeError> {
        let mut bytes = 0usize;
        let read = loop {
            if bytes >= READ_BUDGET || conn.closing.load(Ordering::SeqCst) {
                break Ok(None);
            }
            match reader.next_frame(&mut &conn.out.stream, &mut bytes) {
                Ok(Step::Frame(msg)) => match self.admit(conn, msg) {
                    Ok(None) => {}
                    done => break done,
                },
                Ok(Step::Blocked) => break Ok(None),
                Ok(Step::Eof) => break Err(closed_by_peer()),
                Err(e) => break Err(e),
            }
        };
        if bytes > 0 {
            self.metrics.add_bytes_received(bytes as u64);
        }
        read
    }

    /// Handles one inbound frame: handshake, artifact fetch, admission,
    /// then a free dispatch slot (the job is returned for this thread
    /// to run), the queue, or a shed. Replies built here are written by
    /// this thread.
    fn admit(
        &self,
        conn: &Arc<ServerConn>,
        msg: Message,
    ) -> Result<Option<ServerJob>, RuntimeError> {
        if let MessageKind::Hello { info, .. } = &msg.kind {
            let (reply, keep) = hello_reply(info, msg.endian, &self.cfg, &self.metrics);
            if !keep {
                conn.closing.store(true, Ordering::SeqCst);
            }
            return self.write(conn, reply).map(|()| None);
        }
        if let MessageKind::Artifact {
            request_id,
            reply: false,
        } = &msg.kind
        {
            // Answered inline like Hello: a store read, no dispatch slot.
            let reply = crate::artifacts::artifact_fetch_reply(
                *request_id,
                msg.endian,
                &msg.body,
                self.cfg.artifacts.as_deref(),
            );
            return self.write(conn, reply).map(|()| None);
        }
        // Admission control: an already-expired propagated deadline is
        // refused at the door, the rest pass the limiter (brownout cuts
        // sheddable traffic first) and the per-connection queue bound —
        // everything sheds rather than stalls, so a flooded server
        // answers fast instead of wedging every socket behind slow
        // dispatches.
        let expires_at = msg
            .deadline
            .and_then(|d| d.budget())
            .map(|b| Instant::now() + b);
        if expires_at.is_some_and(|at| Instant::now() >= at) {
            return match deadline_expired_reply(&msg, &self.metrics) {
                Some(reply) => self.write(conn, reply).map(|()| None),
                None => Ok(None),
            };
        }
        let sheddable = msg.deadline.is_some_and(|d| d.sheddable);
        let mut jobs = self.jobs.plock();
        let admission = self.limiter.admit(
            self.in_flight.load(Ordering::SeqCst),
            jobs.queue.len(),
            sheddable,
        );
        if admission == Admission::Brownout {
            self.metrics.add_brownout_shed();
        }
        if admission != Admission::Admit || conn.queued.load(Ordering::SeqCst) >= self.cfg.max_queue
        {
            drop(jobs);
            return match shed_reply(&msg, &self.metrics) {
                Some(reply) => self.write(conn, reply).map(|()| None),
                None => Ok(None),
            };
        }
        let oneway = matches!(
            msg.kind,
            MessageKind::Request {
                response_expected: false,
                ..
            }
        );
        let job = ServerJob {
            conn: Arc::clone(conn),
            msg,
            expires_at,
            admitted: Instant::now(),
        };
        if oneway {
            drop(jobs);
            conn.queued.fetch_add(1, Ordering::SeqCst);
            if let Err(job) = self.ordered.try_push(job) {
                // The queue closed under us (shutdown): undo and drop.
                job.conn.queued.fetch_sub(1, Ordering::SeqCst);
            }
            return Ok(None);
        }
        // A free slot runs the request on this thread; otherwise it
        // waits in the queue for the next thread that finishes one.
        if jobs.free > 0 {
            jobs.free -= 1;
            return Ok(Some(job));
        }
        conn.queued.fetch_add(1, Ordering::SeqCst);
        jobs.queue.push_back(job);
        Ok(None)
    }

    /// Runs a job in a claimed dispatch slot, then every job queued
    /// behind it, and releases the slot once the queue is empty.
    fn run(&self, mut job: ServerJob) {
        loop {
            self.dispatch(&job);
            let mut jobs = self.jobs.plock();
            let Some(next) = jobs.queue.pop_front() else {
                jobs.free += 1;
                return;
            };
            drop(jobs);
            next.conn.queued.fetch_sub(1, Ordering::SeqCst);
            job = next;
        }
    }

    /// Dispatches one job and writes its reply.
    fn dispatch(&self, job: &ServerJob) {
        // A request whose budget died waiting in a queue is refused
        // without running.
        let reply = if job.expires_at.is_some_and(|at| Instant::now() >= at) {
            deadline_expired_reply(&job.msg, &self.metrics)
        } else {
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            let reply = self
                .dispatcher
                .dispatch_with_deadline(&job.msg, job.expires_at);
            // Sojourn time (queue wait + dispatch): queueing delay is
            // the first symptom of overload, so it must reach the
            // limiter.
            self.limiter.observe(job.admitted.elapsed(), &self.metrics);
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            reply
        };
        if let Some(reply) = reply {
            if let Err(e) = self.write(&job.conn, reply) {
                self.close(job.conn.out.id, &e);
            }
        }
    }

    /// Writes a reply from the calling thread; a tail the socket
    /// refused arms write readiness.
    fn write(&self, conn: &ServerConn, reply: Message) -> Result<(), RuntimeError> {
        match conn.out.send(reply.to_bytes()) {
            Ok(false) => Ok(()),
            Ok(true) => {
                self.arm(conn);
                Ok(())
            }
            Err(Refused::Closed(e) | Refused::Failed(e)) => Err(e),
        }
    }

    /// Re-arms a connection's one-shot registration from its state:
    /// reads while the server still takes frames from it, writes while
    /// its writer holds a tail. A rejected handshake's connection
    /// closes once nothing is left to write.
    fn arm(&self, conn: &ServerConn) {
        let id = conn.out.id;
        let read = self.reading(conn);
        // Decided and registered under the write lock, so an arm that
        // saw no tail cannot overtake the arm of a send that left one.
        let (write, armed) = {
            let st = conn.out.state.plock();
            let write = !st.writer.is_empty();
            let mut unflushed = self.unflushed.plock();
            if write {
                unflushed.insert(id);
            } else {
                unflushed.remove(&id);
            }
            drop(unflushed);
            let interest = Interest { read, write };
            let armed = (read || write)
                .then(|| self.poller.modify(&conn.out.stream, id, interest))
                .transpose();
            (write, armed)
        };
        match armed {
            Err(e) => self.close(
                id,
                &RuntimeError::Transport(format!("readiness registration failed: {e}")),
            ),
            Ok(None) if !write && conn.closing.load(Ordering::SeqCst) => {
                self.close(id, &closed_by_peer());
            }
            Ok(_) => {}
        }
    }

    /// The connections holding a tail.
    fn unflushed_conns(&self) -> Vec<Arc<ServerConn>> {
        let ids: Vec<u64> = self.unflushed.plock().iter().copied().collect();
        if ids.is_empty() {
            return Vec::new();
        }
        let conns = self.conns.plock();
        ids.iter().filter_map(|id| conns.get(id).cloned()).collect()
    }

    /// When the earliest write stall expires: the pollers' wait
    /// timeout. `None` while no writer is blocked.
    fn next_stall(&self) -> Option<Instant> {
        self.unflushed_conns()
            .iter()
            .filter_map(|c| c.out.stalled_since())
            .min()
            .map(|since| since + WRITE_STALL)
    }

    /// Closes every connection whose writer has made no progress for
    /// [`WRITE_STALL`] (see the client reactor's `expire_stalls`).
    fn expire_stalls(&self, now: Instant) {
        for conn in self.unflushed_conns() {
            if conn
                .out
                .stalled_since()
                .is_some_and(|since| now >= since + WRITE_STALL)
            {
                self.close(conn.out.id, &stalled());
            }
        }
    }

    fn close_all(&self, why: &RuntimeError) {
        let ids: Vec<u64> = self.conns.plock().keys().copied().collect();
        for id in ids {
            self.close(id, why);
        }
    }

    /// Removes a connection and closes its socket; queued jobs that
    /// still hold it find nothing to write to.
    fn close(&self, id: u64, why: &RuntimeError) {
        let Some(conn) = self.conns.plock().remove(&id) else {
            return;
        };
        self.unflushed.plock().remove(&id);
        // Deregistered before the descriptor can close: a poller or a
        // queued job may still hold the connection, and with it the fd.
        self.poller.delete(&conn.out.stream, id).ok();
        conn.out.close(why);
        conn.out.stream.shutdown(Shutdown::Both).ok();
    }
}

/// Builds the server's half of the handshake. Returns the reply frame
/// and whether the connection stays open.
fn hello_reply(
    client: &HandshakeInfo,
    endian: Endian,
    cfg: &ServerConfig,
    metrics: &MetricsRegistry,
) -> (Message, bool) {
    metrics.add_handshake();
    let (mine, verdict) = match &cfg.handshake {
        Some(mine) => (*mine, mine.evaluate(client)),
        // Permissive mode: echo the client's info back with an Accept.
        None => (*client, HandshakeVerdict::Accept),
    };
    let keep = verdict != HandshakeVerdict::Reject;
    if !keep {
        metrics.add_handshake_reject();
    }
    (Message::hello(mine, verdict, endian), keep)
}

/// Builds the `Overloaded` reply for one shed request (`None` for
/// oneways, which are silently dropped, as messaging semantics allow).
fn shed_reply(msg: &Message, metrics: &MetricsRegistry) -> Option<Message> {
    metrics.add_shed();
    let MessageKind::Request {
        request_id,
        response_expected: true,
        ..
    } = &msg.kind
    else {
        return None;
    };
    let mut w = CdrWriter::new(msg.endian);
    w.put_bytes(b"dispatch queue full");
    Some(Message::reply(
        *request_id,
        ReplyStatus::Overloaded,
        msg.endian,
        w.into_bytes(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{wire_fault, Fault};
    use std::io::Cursor;

    fn request_frame(id: u32, body: &[u8]) -> Message {
        Message::request(
            id,
            true,
            b"object".to_vec(),
            "op",
            Endian::Little,
            body.to_vec(),
        )
    }

    /// A reader that hands out its backing bytes in fixed-size slivers
    /// and then reports `WouldBlock`, like a socket drained dry.
    struct Chunked {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        served_this_call: bool,
    }

    impl Chunked {
        fn new(data: Vec<u8>, chunk: usize) -> Self {
            Chunked {
                data,
                pos: 0,
                chunk,
                served_this_call: false,
            }
        }
        fn exhausted(&self) -> bool {
            self.pos >= self.data.len()
        }
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.served_this_call || self.exhausted() {
                self.served_this_call = false;
                return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
            }
            let n = self.chunk.min(self.data.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            self.served_this_call = true;
            Ok(n)
        }
    }

    #[test]
    fn reader_reassembles_byte_by_byte_splits() {
        let msg = request_frame(7, b"hello frame body");
        let bytes = msg.to_bytes();
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        let mut src = Chunked::new(bytes.clone(), 1);
        // Each pump consumes one byte then blocks; the machine must
        // resume mid-header and mid-body without losing its place.
        let mut pumps = 0;
        while out.is_empty() {
            let p = reader.pump(&mut src, &mut out, READ_BUDGET).unwrap();
            assert!(!p.eof);
            pumps += 1;
            assert!(pumps < 10_000, "reader wedged");
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to_bytes(), bytes);
        assert!(!reader.mid_frame());
    }

    #[test]
    fn reader_extracts_many_frames_from_one_burst() {
        let mut bytes = Vec::new();
        for id in 0..6u32 {
            bytes.extend_from_slice(&request_frame(id, &[id as u8; 40]).to_bytes());
        }
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        let mut src = Cursor::new(bytes);
        let p = reader.pump(&mut src, &mut out, usize::MAX).unwrap();
        assert!(p.eof, "cursor ends cleanly at a frame boundary");
        assert_eq!(out.len(), 6);
        for (i, m) in out.iter().enumerate() {
            let MessageKind::Request { request_id, .. } = m.kind else {
                panic!("not a request");
            };
            assert_eq!(request_id, i as u32);
        }
    }

    #[test]
    fn reader_respects_the_byte_budget() {
        let mut bytes = Vec::new();
        for id in 0..4u32 {
            bytes.extend_from_slice(&request_frame(id, &[0u8; 64]).to_bytes());
        }
        let total = bytes.len();
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        let mut src = Cursor::new(bytes);
        let p = reader.pump(&mut src, &mut out, total / 2).unwrap();
        assert!(
            p.bytes >= total / 2 && p.bytes < total,
            "budget bounded the pump"
        );
        let p2 = reader.pump(&mut src, &mut out, usize::MAX).unwrap();
        assert!(p2.eof);
        assert_eq!(out.len(), 4, "the rest arrived on the next pump");
    }

    #[test]
    fn reader_rejects_forged_length_before_allocating() {
        // A rogue header declaring a ~4 GiB frame.
        let mut forged = Vec::new();
        forged.extend_from_slice(b"GIOP");
        forged.extend_from_slice(&[1, 0, 0x01, 0]);
        forged.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        let err = reader
            .pump(&mut Cursor::new(forged), &mut out, usize::MAX)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Protocol(_)), "got {err}");
        assert!(
            reader.buf.capacity() <= 1024,
            "no body allocation for a forged length"
        );
    }

    #[test]
    fn reader_rejects_bad_magic() {
        let mut junk = b"HTTP/1.1 200 OK\r\n\r\n".to_vec();
        junk.resize(64, 0);
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        let err = reader
            .pump(&mut Cursor::new(junk), &mut out, usize::MAX)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Protocol(_)), "got {err}");
    }

    #[test]
    fn reader_treats_mid_frame_close_as_transport_error() {
        let bytes = request_frame(3, b"truncated").to_bytes();
        for cut in [1, 6, 13, bytes.len() - 1] {
            let mut reader = FrameReader::new();
            let mut out = Vec::new();
            let err = reader
                .pump(
                    &mut Cursor::new(bytes[..cut].to_vec()),
                    &mut out,
                    usize::MAX,
                )
                .unwrap_err();
            assert!(
                matches!(err, RuntimeError::Transport(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn reader_survives_seeded_wire_faults_without_panicking() {
        // The chaos fault injectors mutate raw frames exactly as they
        // would on the wire; the state machine must fail cleanly (or,
        // for faults that leave the frame intact, still parse) on
        // every seed.
        for seed in 0..64u64 {
            for fault in [Fault::Truncate, Fault::Corrupt, Fault::Drop] {
                let mut bytes = request_frame(9, &[0xAB; 200]).to_bytes();
                wire_fault(&mut bytes, fault, seed);
                let mut reader = FrameReader::new();
                let mut out = Vec::new();
                let trailing_ok = request_frame(10, b"next").to_bytes();
                let mut stream = bytes.clone();
                stream.extend_from_slice(&trailing_ok);
                // Whatever the fault did, the reader either yields
                // frames or errors; it never panics or spins.
                let _ = reader.pump(&mut Cursor::new(stream), &mut out, usize::MAX);
            }
        }
    }

    #[test]
    fn writer_resumes_partial_writes() {
        /// A sink that accepts at most 3 bytes per call, blocking
        /// every other call.
        struct Dribble {
            out: Vec<u8>,
            turn: bool,
        }
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.turn = !self.turn;
                if !self.turn {
                    return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
                }
                let n = buf.len().min(3);
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut writer = FrameWriter::new();
        let a = request_frame(1, b"first").to_bytes();
        let b = request_frame(2, b"second, longer body").to_bytes();
        writer.enqueue(a.clone());
        writer.enqueue(b.clone());
        assert_eq!(writer.queued_bytes(), a.len() + b.len());
        let mut sink = Dribble {
            out: Vec::new(),
            turn: false,
        };
        let mut pumps = 0;
        while !writer.is_empty() {
            writer.pump(&mut sink).unwrap();
            pumps += 1;
            assert!(pumps < 10_000, "writer wedged");
        }
        assert_eq!(writer.queued_bytes(), 0);
        let mut expect = a;
        expect.extend_from_slice(&b);
        assert_eq!(sink.out, expect, "frames arrive whole and in order");
    }

    #[test]
    fn writer_reports_peer_gone_on_zero_write() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut writer = FrameWriter::new();
        writer.enqueue(vec![1, 2, 3]);
        let err = writer.pump(&mut Dead).unwrap_err();
        assert!(matches!(err, RuntimeError::Transport(_)));
    }

    #[test]
    fn sends_leave_a_tail_that_the_reactor_side_pump_finishes() {
        let (near, mut far) = socket_pair();
        let metrics = MetricsRegistry::shared();
        let out = Outbound::new(1, near, Some(Arc::clone(&metrics)));
        // Far more than the kernel buffers for a peer that is not
        // reading, but under the 16 MiB frame cap.
        let big = request_frame(1, &vec![0x5A; 8 << 20]).to_bytes();
        let small = request_frame(2, b"queued behind the tail").to_bytes();

        // The caller writes until the socket refuses more, and reports
        // a tail only the reactor can finish.
        assert!(matches!(out.send(big.clone()), Ok(true)));
        let written = metrics.snapshot().bytes_sent as usize;
        let queued = out.state.plock().writer.queued_bytes();
        assert!(
            written > 0 && queued > 0,
            "{written} written, {queued} queued"
        );
        assert_eq!(written + queued, big.len());
        assert!(out.stalled_since().is_some(), "the stall clock runs");

        // A second frame queues behind the tail without a write, and
        // without asking for a wake: the tail's writer already woke
        // the reactor.
        assert!(matches!(out.send(small.clone()), Ok(false)));
        assert_eq!(metrics.snapshot().bytes_sent as usize, written);
        assert_eq!(
            out.state.plock().writer.queued_bytes(),
            queued + small.len()
        );

        // Once the peer reads, the reactor's pump drains the queue.
        let total = big.len() + small.len();
        let peer = std::thread::spawn(move || {
            let mut buf = vec![0u8; total];
            far.read_exact(&mut buf).unwrap();
            buf
        });
        let t = Instant::now();
        while out.queued() {
            out.flush().unwrap();
            assert!(t.elapsed() < Duration::from_secs(10), "tail never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        let bytes = peer.join().unwrap();
        assert!(out.stalled_since().is_none(), "the stall clock stopped");
        assert_eq!(metrics.snapshot().bytes_sent as usize, total);

        // Both frames arrive whole, byte-identical and in order.
        let mut frames = Vec::new();
        let p = FrameReader::new()
            .pump(&mut Cursor::new(bytes), &mut frames, usize::MAX)
            .unwrap();
        assert!(p.eof);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].to_bytes(), big);
        assert_eq!(frames[1].to_bytes(), small);
    }

    /// A connected loopback pair: (the side the poller watches, its peer).
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (far, _) = listener.accept().unwrap();
        near.set_nonblocking(true).unwrap();
        (near, far)
    }

    const READ: Interest = Interest {
        read: true,
        write: false,
    };

    fn keys(ready: &[Event]) -> Vec<u64> {
        ready.iter().map(|e| e.key).collect()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_poller_reports_ready_keys_and_wakes_on_demand() {
        let (near, mut far) = socket_pair();
        let (poller, waker) = Poller::new(false).unwrap();
        poller.add(&near, 7, READ).unwrap();
        let mut ready = Vec::new();

        // Nothing to read: the wait runs out its timeout.
        let t = Instant::now();
        poller
            .wait(Some(Duration::from_millis(30)), MAX_EVENTS, &mut ready)
            .unwrap();
        assert!(ready.is_empty());
        assert!(t.elapsed() >= Duration::from_millis(30));

        // A byte from the peer: reported under the connection's key.
        far.write_all(b"x").unwrap();
        poller.wait(None, MAX_EVENTS, &mut ready).unwrap();
        assert_eq!(keys(&ready), vec![7]);
        assert!(ready[0].read && !ready[0].hangup);

        // The waker ends an unbounded wait from another thread and
        // reports no connection.
        ready.clear();
        let mut buf = [0u8; 1];
        (&near).read_exact(&mut buf).unwrap();
        let t = Instant::now();
        let kick = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
            waker
        });
        assert!(poller.wait(None, MAX_EVENTS, &mut ready).unwrap(), "woken");
        let _waker = kick.join().unwrap();
        assert!(ready.is_empty());
        assert!(t.elapsed() < Duration::from_secs(5), "woken, not timed out");
        poller.clear_wake();

        // Write interest on an empty send buffer is ready at once;
        // deregistered sockets are never reported.
        let both = Interest {
            read: true,
            write: true,
        };
        poller.modify(&near, 7, both).unwrap();
        poller
            .wait(Some(Duration::from_secs(5)), MAX_EVENTS, &mut ready)
            .unwrap();
        assert_eq!(keys(&ready), vec![7]);
        assert!(ready[0].write);
        ready.clear();
        poller.delete(&near, 7).unwrap();
        far.write_all(b"y").unwrap();
        poller
            .wait(Some(Duration::from_millis(30)), MAX_EVENTS, &mut ready)
            .unwrap();
        assert!(ready.is_empty());

        // Without read interest, bytes go unreported, but a hang-up is.
        poller.add(&near, 7, Interest::default()).unwrap();
        poller
            .wait(Some(Duration::from_millis(30)), MAX_EVENTS, &mut ready)
            .unwrap();
        assert!(ready.is_empty());
        drop(far);
        poller
            .wait(Some(Duration::from_secs(5)), MAX_EVENTS, &mut ready)
            .unwrap();
        assert_eq!(keys(&ready), vec![7]);
        assert!(ready[0].hangup && !ready[0].read);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn one_shot_registrations_report_a_socket_once_until_rearmed() {
        let (near, mut far) = socket_pair();
        let (poller, _waker) = Poller::new(true).unwrap();
        poller.add(&near, 7, READ).unwrap();
        far.write_all(b"x").unwrap();
        let mut ready = Vec::new();
        poller
            .wait(Some(Duration::from_secs(5)), 1, &mut ready)
            .unwrap();
        assert_eq!(keys(&ready), vec![7]);

        // Still readable, but disarmed: the next waiter gets nothing.
        ready.clear();
        poller
            .wait(Some(Duration::from_millis(30)), 1, &mut ready)
            .unwrap();
        assert!(ready.is_empty());

        // Re-armed while still readable: reported again at once.
        poller.modify(&near, 7, READ).unwrap();
        poller
            .wait(Some(Duration::from_secs(5)), 1, &mut ready)
            .unwrap();
        assert_eq!(keys(&ready), vec![7]);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn poll_waits_for_one_socket_until_its_timeout() {
        let (near, mut far) = socket_pair();
        let t = Instant::now();
        assert!(!wait_readable(&near, Some(Duration::from_millis(30))).unwrap());
        assert!(t.elapsed() >= Duration::from_millis(30));
        far.write_all(b"x").unwrap();
        assert!(wait_readable(&near, None).unwrap());
    }

    #[test]
    fn timed_poller_reports_every_registered_connection() {
        let (a, _pa) = socket_pair();
        let (b, _pb) = socket_pair();
        let (poller, waker) = timed::Poller::new(false).unwrap();
        poller.add(&a, 1, READ).unwrap();
        poller.add(&b, 2, READ).unwrap();
        let mut ready = Vec::new();
        poller.wait(None, MAX_EVENTS, &mut ready).unwrap();
        assert_eq!(
            keys(&ready),
            vec![1, 2],
            "every registered key, after a park"
        );

        // However long the timeout, the park lasts at most PARK (a
        // pending wake ends it sooner), so every connection is polled
        // at least that often; a deregistered key is no longer reported.
        ready.clear();
        poller.delete(&b, 2).unwrap();
        waker.wake();
        let t = Instant::now();
        poller
            .wait(Some(Duration::from_secs(5)), MAX_EVENTS, &mut ready)
            .unwrap();
        assert!(t.elapsed() < Duration::from_secs(1));
        assert_eq!(keys(&ready), vec![1]);

        // One-shot keys are reported once, until modified again.
        let (once, _waker) = timed::Poller::new(true).unwrap();
        once.add(&a, 1, READ).unwrap();
        ready.clear();
        once.wait(None, 1, &mut ready).unwrap();
        once.wait(None, 1, &mut ready).unwrap();
        assert_eq!(keys(&ready), vec![1]);
        once.modify(&a, 1, READ).unwrap();
        once.wait(None, 1, &mut ready).unwrap();
        assert_eq!(keys(&ready), vec![1, 1]);
    }

    #[test]
    fn reactor_exits_once_every_handle_is_gone() {
        let (handle, join) = spawn_reactor("mb-reactor-test").unwrap();
        let (near, _far) = socket_pair();
        let out = Outbound::new(handle.alloc_id(), near, None);
        let core = Arc::new(MuxCore::new(out));
        handle.send(Command::Register(Arc::clone(&core))).unwrap();
        // Give the loop time to adopt the connection and block in its
        // wait: no byte, no timer and no command will end that wait
        // from here on.
        std::thread::sleep(Duration::from_millis(50));
        let spare = handle.clone();
        drop(handle);
        drop(spare);
        let t = Instant::now();
        while !join.is_finished() {
            assert!(
                t.elapsed() < Duration::from_secs(5),
                "the reactor outlived its last handle"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        join.join().unwrap();
        assert!(
            core.state.plock().dead.is_some(),
            "the connection was failed on the way out"
        );
    }
}
