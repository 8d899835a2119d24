//! The readiness-driven reactor behind the TCP transports.
//!
//! One reactor thread watches a set of nonblocking sockets from one
//! event loop: it does every read, and every write the producing
//! thread could not finish. The loop blocks in a `Poller` until a
//! socket is ready, a command arrives, or one of its own timers falls
//! due, and then services only the connections reported ready, so an
//! idle connection costs nothing per iteration. On Linux the poller is
//! an epoll instance plus an eventfd waker, bound through a few
//! hand-declared `extern "C"` functions (no external crate); elsewhere
//! a portable backend parks briefly and then reports every connection
//! ready. Five pieces make the loop workable:
//!
//! - [`FrameReader`] / [`FrameWriter`]: per-connection GIOP frame state
//!   machines. A read that stops mid-header or mid-body parks the
//!   partial bytes in the machine and resumes on the next readiness
//!   event; writes queue encoded frames and retire them byte-by-byte
//!   as the socket accepts them.
//! - the outbound half (`Outbound`): each connection's socket, with
//!   its `FrameWriter` and write-stall clock behind one mutex, shared
//!   by the reactor and the threads that build its frames. A client
//!   caller writes its request, and a dispatch worker its reply,
//!   straight to the socket when nothing is queued ahead of it, so a
//!   call crosses no thread to reach the wire. They wake the reactor
//!   only when it has work: a tail the socket refused (it arms write
//!   readiness and finishes it), a deadline for the wheel, or a failed
//!   write (it closes the connection and fails its waiters).
//! - a waker table (`MuxCore`): each in-flight client call parks its
//!   own thread and is unparked exactly when its reply, failure, or
//!   deadline arrives — replacing the broadcast `Condvar` the old
//!   transport shared across every waiter on a connection.
//! - a hashed [`DeadlineWheel`]: per-call deadlines are wheel entries
//!   owned by the reactor, not `set_read_timeout` mutations of a
//!   shared socket, so concurrent calls on one connection can no
//!   longer observe each other's timeouts. The loop's wait ends at the
//!   next armed tick.
//! - the write-stall clock: a peer that stops reading produces no
//!   readiness event at all, so the wait also ends when the oldest
//!   blocked writer's [`WRITE_STALL`] runs out, and that connection is
//!   closed.
//!
//! Client connections from every [`MultiplexedConnection`] in the
//! process share one global reactor thread (connection churn leaves
//! the thread count flat); each [`TcpServer`] runs its own reactor fed
//! by an acceptor thread, whose admitted requests a bounded worker
//! pool dispatches and answers.
//!
//! [`MultiplexedConnection`]: crate::transport::MultiplexedConnection
//! [`TcpServer`]: crate::transport::TcpServer

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

use mockingbird_values::Endian;
use mockingbird_wire::{
    CdrWriter, HandshakeInfo, HandshakeVerdict, Message, MessageKind, ReplyStatus,
};

use crate::dispatch::deadline_expired_reply;
use crate::error::RuntimeError;
use crate::limiter::{Admission, AimdLimiter};
use crate::metrics::MetricsRegistry;
use crate::sync::LockExt;
use crate::transport::{FrameQueue, ServerConfig};

/// GIOP frame header length (magic + version + flags + declared size).
const HEADER_LEN: usize = 12;

/// Bytes one connection may consume per readiness event before the
/// reactor moves on: bounds how long one firehose socket can starve
/// its neighbours (the socket stays readable, so the next wait reports
/// it again).
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

fn is_would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
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
            if self.need == HEADER_LEN && self.filled == 0 {
                self.buf.resize(HEADER_LEN, 0);
            }
            match src.read(&mut self.buf[self.filled..self.need]) {
                Ok(0) => {
                    if self.filled == 0 {
                        return Ok(ReadPump {
                            bytes: consumed,
                            eof: true,
                        });
                    }
                    return Err(RuntimeError::Transport(
                        "connection closed mid-frame".into(),
                    ));
                }
                Ok(n) => {
                    self.filled += n;
                    consumed += n;
                    if self.filled < self.need {
                        continue;
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
                            continue;
                        }
                    }
                    self.finish(out)?;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if is_would_block(&e) => {
                    return Ok(ReadPump {
                        bytes: consumed,
                        eof: false,
                    });
                }
                Err(e) => return Err(RuntimeError::Transport(e.to_string())),
            }
        }
    }

    fn finish(&mut self, out: &mut Vec<Message>) -> Result<(), RuntimeError> {
        let msg = Message::from_bytes(&self.buf[..self.need])
            .map_err(|e| RuntimeError::Protocol(e.to_string()))?;
        out.push(msg);
        self.filled = 0;
        self.need = HEADER_LEN;
        if self.buf.capacity() > BUF_KEEP {
            self.buf = Vec::new();
        }
        Ok(())
    }
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
    /// The connection had already closed; the reactor knows.
    Closed(RuntimeError),
    /// This send failed (a socket error, or the backlog cap): the
    /// connection must close as it does for the reactor's own write
    /// errors.
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

/// One connection's outbound half, shared by its reactor and by every
/// thread that produces frames for it: the socket, plus the
/// [`FrameWriter`] and write-stall clock behind one mutex.
///
/// Bytes reach the socket only under that mutex, so frames never
/// interleave. The thread that built a frame writes it straight to the
/// socket when nothing is queued ahead of it; whatever the socket
/// refuses stays queued, and a queue that was already nonempty is
/// retired only by the reactor, on write readiness. The reactor reads
/// the socket without the lock.
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

    /// The connection's reactor-wide id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Queues one encoded frame and, when nothing was queued ahead of
    /// it, writes it to the socket from the calling thread. Returns
    /// whether that write left a tail, which only the reactor can
    /// finish (it must arm write readiness); a frame queued behind an
    /// earlier tail needs no wake, because whoever left that tail
    /// already woke the reactor.
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

    /// The reactor's side: retires queued bytes as far as the socket
    /// takes them.
    fn flush(&self) -> Result<(), RuntimeError> {
        let mut st = self.state.plock();
        if let Some(e) = &st.closed {
            return Err(e.clone());
        }
        self.pump(&mut st)
    }

    /// Writes queued bytes until the socket blocks, counting them and
    /// restarting the stall clock on progress
    /// ([`Reactor::expire_stalls`] reads it). A failed write closes the
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
// Deadline wheel
// ---------------------------------------------------------------------------

/// Wheel slots; deadlines hash into `tick % WHEEL_SLOTS`.
const WHEEL_SLOTS: u64 = 256;

/// Wheel tick granularity: deadlines fire within one tick of their
/// nominal instant.
const WHEEL_TICK: Duration = Duration::from_millis(1);

/// A hashed timing wheel holding per-call deadlines.
///
/// Each armed deadline is an entry in the slot its tick hashes to; the
/// reactor advances the cursor every loop iteration and fires entries
/// whose tick has passed (entries a full rotation out stay put until the
/// cursor comes around again). Cancellation is lazy: a call that
/// completes simply abandons its entry, and firing an entry whose
/// waiter is gone is a no-op — so completion never pays a wheel
/// traversal.
#[derive(Debug)]
pub struct DeadlineWheel {
    slots: Vec<Vec<WheelEntry>>,
    origin: Instant,
    cursor: u64,
    live: usize,
}

#[derive(Debug)]
struct WheelEntry {
    tick: u64,
    conn: u64,
    request_id: u32,
}

impl DeadlineWheel {
    /// An empty wheel anchored at `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        DeadlineWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            origin,
            cursor: 0,
            live: 0,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        let elapsed = at.saturating_duration_since(self.origin);
        (elapsed.as_micros() / WHEEL_TICK.as_micros()) as u64
    }

    /// Arms a deadline for `(conn, request_id)` at instant `at`.
    /// Instants already in the past fire on the next expiry pass.
    pub fn insert(&mut self, conn: u64, request_id: u32, at: Instant) {
        let tick = self.tick_of(at).max(self.cursor);
        self.slots[(tick % WHEEL_SLOTS) as usize].push(WheelEntry {
            tick,
            conn,
            request_id,
        });
        self.live += 1;
    }

    /// Whether any deadline is armed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// When the earliest armed entry falls due: the end of its tick,
    /// which is never before its deadline, and at which
    /// [`expire`](Self::expire) fires it. `None` when nothing is armed.
    /// Looks one rotation ahead; when every entry is further out,
    /// reports the end of that rotation, and the caller looks again.
    #[must_use]
    pub fn next_due(&self) -> Option<Instant> {
        if self.live == 0 {
            return None;
        }
        // Every armed entry's tick is at or past the cursor, so the
        // first slot holding an entry for its own tick is the earliest.
        let tick = (self.cursor..self.cursor + WHEEL_SLOTS)
            .find(|&t| {
                self.slots[(t % WHEEL_SLOTS) as usize]
                    .iter()
                    .any(|e| e.tick <= t)
            })
            .unwrap_or(self.cursor + WHEEL_SLOTS);
        let end = Duration::from_micros((tick + 1) * WHEEL_TICK.as_micros() as u64);
        Some(self.origin + end)
    }

    /// Fires every entry whose tick is at or before `now`, invoking
    /// `expired(conn, request_id)` for each.
    pub fn expire(&mut self, now: Instant, mut expired: impl FnMut(u64, u32)) {
        let now_tick = self.tick_of(now);
        if self.live == 0 {
            // Nothing armed: skip the cursor forward so a long idle
            // stretch is not replayed tick by tick later.
            self.cursor = self.cursor.max(now_tick);
            return;
        }
        while self.cursor <= now_tick {
            let slot = &mut self.slots[(self.cursor % WHEEL_SLOTS) as usize];
            let mut i = 0;
            while i < slot.len() {
                if slot[i].tick <= self.cursor {
                    let e = slot.swap_remove(i);
                    self.live -= 1;
                    expired(e.conn, e.request_id);
                } else {
                    i += 1;
                }
            }
            self.cursor += 1;
            if self.live == 0 {
                self.cursor = self.cursor.max(now_tick);
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Waker table
// ---------------------------------------------------------------------------

/// What a waiter slot holds while its call is in flight.
pub(crate) enum Slot {
    /// The reply has not arrived; the caller's thread handle is here so
    /// exactly that thread can be unparked on completion.
    Waiting(Thread),
    /// The reactor delivered the reply (still carrying the
    /// connection-unique wire id).
    Ready(Message),
    /// The connection failed — or the deadline fired — before the
    /// reply arrived.
    Failed(RuntimeError),
}

pub(crate) struct MuxState {
    /// In-flight calls keyed by connection-unique request id.
    pub pending: HashMap<u32, Slot>,
    /// Set once when the stream breaks; later calls fail fast.
    pub dead: Option<RuntimeError>,
}

/// The per-connection waker table shared between callers and the
/// reactor: callers register a [`Slot::Waiting`] entry and park; the
/// reactor resolves the slot and unparks exactly the owning thread.
pub(crate) struct MuxCore {
    pub state: Mutex<MuxState>,
}

impl MuxCore {
    pub fn new() -> Self {
        MuxCore {
            state: Mutex::new(MuxState {
                pending: HashMap::new(),
                dead: None,
            }),
        }
    }

    /// Delivers a reply to its waiter; a missing slot means the waiter
    /// gave up (deadline) and the late reply is dropped.
    pub fn complete(&self, request_id: u32, reply: Message) {
        let mut st = self.state.plock();
        if let Some(slot) = st.pending.get_mut(&request_id) {
            if let Slot::Waiting(t) = std::mem::replace(slot, Slot::Ready(reply)) {
                t.unpark();
            }
        }
    }

    /// Fails one waiter (deadline expiry). No-op if the call already
    /// resolved.
    pub fn fail_one(&self, request_id: u32, err: RuntimeError) {
        let mut st = self.state.plock();
        if let Some(slot @ Slot::Waiting(_)) = st.pending.get_mut(&request_id) {
            if let Slot::Waiting(t) = std::mem::replace(slot, Slot::Failed(err)) {
                t.unpark();
            }
        }
    }

    /// Marks the connection dead and fails every registered waiter —
    /// synchronously, under the same lock new waiters register under,
    /// so a call can never slip between the death of the stream and
    /// the failure broadcast and hang.
    pub fn fail_all(&self, err: &RuntimeError) {
        let mut st = self.state.plock();
        if st.dead.is_none() {
            st.dead = Some(err.clone());
        }
        for slot in st.pending.values_mut() {
            if matches!(slot, Slot::Waiting(_)) {
                if let Slot::Waiting(t) = std::mem::replace(slot, Slot::Failed(err.clone())) {
                    t.unpark();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Readiness poller
// ---------------------------------------------------------------------------

/// Which readiness a connection wants reported: reads while the reactor
/// still takes frames from it, writes only while its [`FrameWriter`]
/// holds bytes the socket has not accepted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Interest {
    read: bool,
    write: bool,
}

impl Interest {
    fn is_none(self) -> bool {
        !self.read && !self.write
    }
}

#[cfg(target_os = "linux")]
use epoll::{Poller, Waker};
#[cfg(not(target_os = "linux"))]
use timed::{Poller, Waker};

/// Readiness from the kernel: one epoll instance per reactor, with
/// sockets registered level-triggered under their connection id, and an
/// eventfd that command senders write so a blocked wait returns at once.
#[cfg(target_os = "linux")]
mod epoll {
    use std::ffi::{c_int, c_uint, c_void};
    use std::io;
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::sync::Arc;
    use std::time::Duration;

    use super::Interest;

    const EPOLL_CLOEXEC: c_int = 0o2_000_000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: c_int = 0o2_000_000;
    const EFD_NONBLOCK: c_int = 0o4_000;

    /// The eventfd's key. Connection ids are allocated upward from 1 and
    /// never reach it; keys are never fd numbers, which the kernel
    /// reuses after a close.
    const WAKE_KEY: u64 = u64::MAX;

    /// Events taken per wait. More ready sockets stay ready
    /// (level-triggered) and are reported by the next wait.
    const MAX_EVENTS: usize = 256;

    /// The kernel's `struct epoll_event`, which is packed on x86-64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    unsafe extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(epfd: c_int, events: *mut EpollEvent, max: c_int, timeout: c_int) -> c_int;
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

    /// Wakes the reactor out of [`Poller::wait`]; every handle shares
    /// one. Dropping the last one wakes it too, so the loop sees its
    /// command channel close instead of sleeping forever.
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
        events: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<(Poller, Arc<Waker>)> {
            // SAFETY: a plain syscall with constant flags, no pointers.
            let epoll = Fd(cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?);
            // SAFETY: as above.
            let wake = Arc::new(Fd(cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?));
            let poller = Poller {
                epoll,
                wake: Arc::clone(&wake),
                events: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
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

        /// Moves connection `key`'s registration from `old` to `new`:
        /// added on first interest, removed when none is left.
        pub fn update(
            &mut self,
            stream: &TcpStream,
            key: u64,
            old: Interest,
            new: Interest,
        ) -> io::Result<()> {
            if old == new {
                return Ok(());
            }
            let op = if old.is_none() {
                EPOLL_CTL_ADD
            } else if new.is_none() {
                EPOLL_CTL_DEL
            } else {
                EPOLL_CTL_MOD
            };
            let read = if new.read { EPOLLIN | EPOLLRDHUP } else { 0 };
            let write = if new.write { EPOLLOUT } else { 0 };
            self.ctl(op, stream.as_raw_fd(), read | write, key)
        }

        /// Blocks until a registered connection is ready, the waker
        /// fires, or `timeout` passes (`None` waits without limit), and
        /// appends the ready connections' keys to `ready`.
        pub fn wait(&mut self, timeout: Option<Duration>, ready: &mut Vec<u64>) -> io::Result<()> {
            // Round up: waking before the timer is due would only spin.
            let ms = timeout.map_or(-1, |t| {
                c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
            });
            // SAFETY: `events` holds `MAX_EVENTS` initialised entries and
            // the kernel writes at most that many.
            let n = unsafe {
                epoll_wait(
                    self.epoll.0,
                    self.events.as_mut_ptr(),
                    MAX_EVENTS as c_int,
                    ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                return match err.kind() {
                    io::ErrorKind::Interrupted => Ok(()),
                    _ => Err(err),
                };
            }
            for event in &self.events[..n as usize] {
                let key = event.data;
                if key != WAKE_KEY {
                    ready.push(key);
                    continue;
                }
                let mut count = 0u64;
                // SAFETY: reads 8 bytes into a live `u64` from the
                // nonblocking eventfd this poller holds open; resetting
                // the counter re-arms it for the next wake.
                unsafe { read(self.wake.0, (&raw mut count).cast(), 8) };
            }
            Ok(())
        }
    }
}

/// The portable backend: no readiness source, so after a timed park
/// of at most `PARK` (cut short by the waker) every registered
/// connection is reported ready. Selected off Linux; built everywhere
/// so its test runs too.
#[cfg_attr(target_os = "linux", allow(dead_code))]
mod timed {
    use super::Interest;
    use std::collections::BTreeSet;
    use std::io::Result;
    use std::net::TcpStream;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    const PARK: Duration = Duration::from_millis(1);

    /// Holds at most one pending wake, which ends the next park.
    pub struct Waker(mpsc::SyncSender<()>);

    impl Waker {
        pub fn wake(&self) {
            let _ = self.0.try_send(());
        }
    }

    pub struct Poller(BTreeSet<u64>, mpsc::Receiver<()>);

    impl Poller {
        pub fn new() -> Result<(Poller, Arc<Waker>)> {
            let (tx, rx) = mpsc::sync_channel(1);
            Ok((Poller(BTreeSet::new(), rx), Arc::new(Waker(tx))))
        }

        pub fn update(&mut self, _: &TcpStream, id: u64, _: Interest, to: Interest) -> Result<()> {
            self.0.remove(&id);
            self.0.extend((!to.is_none()).then_some(id));
            Ok(())
        }

        pub fn wait(&mut self, timeout: Option<Duration>, ready: &mut Vec<u64>) -> Result<()> {
            let _ = self.1.recv_timeout(timeout.map_or(PARK, |t| t.min(PARK)));
            ready.extend(self.0.iter().copied());
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

/// One unit of accepted server work: a request frame tagged with the
/// connection it arrived on, headed for the dispatch worker pool.
pub(crate) struct ServerJob {
    /// Where the worker writes the reply.
    pub out: Arc<Outbound>,
    /// This connection's queued-frame count (admission control);
    /// decremented by the worker that picks the job up.
    pub queued: Arc<AtomicUsize>,
    pub msg: Message,
    /// When the request's propagated deadline runs out (admission
    /// stamped it from the wire slot); workers refuse the job past
    /// this instant instead of dispatching it.
    pub expires_at: Option<Instant>,
    /// When admission accepted the frame: the worker reports the full
    /// sojourn (queue wait + dispatch) to the AIMD limiter, so queueing
    /// delay — the first symptom of overload — moves the limit.
    pub admitted: Instant,
}

/// Everything a server-mode reactor needs that a client reactor does
/// not: admission config, the dispatch queue, and the server registry.
pub(crate) struct ServerCtx {
    pub cfg: ServerConfig,
    pub queue: Arc<FrameQueue<ServerJob>>,
    /// Oneway requests carry no reply for the caller to correlate, so
    /// their only ordering guarantee is dispatch order: they bypass the
    /// parallel pool and drain through a single dedicated worker in
    /// receipt order.
    pub ordered: Arc<FrameQueue<ServerJob>>,
    pub in_flight: Arc<AtomicUsize>,
    pub metrics: Arc<MetricsRegistry>,
    /// The admission limiter (pinned at the static cap unless the
    /// config asked for adaptive control).
    pub limiter: Arc<AimdLimiter>,
}

pub(crate) enum Command {
    /// Adopt a connected, handshaken client connection.
    RegisterClient {
        out: Arc<Outbound>,
        core: Arc<MuxCore>,
        metrics: Arc<MetricsRegistry>,
    },
    /// Adopt an accepted server-side stream (server reactors only).
    RegisterServer { stream: TcpStream },
    /// A caller or dispatch worker wrote a frame on `conn` itself and
    /// hands over what it cannot finish: a tail the socket refused (the
    /// reactor re-derives write interest), a deadline for the wheel,
    /// or the failed write that closes the connection.
    Wrote {
        conn: u64,
        deadline: Option<(u32, Instant)>,
        failed: Option<RuntimeError>,
    },
    /// Drop a connection (client handle dropped).
    Close { conn: u64 },
    /// Server shutdown, phase one: stop reading new frames.
    StopReading,
    /// Server shutdown, phase two: flush pending writes and exit.
    Drain,
}

/// The caller-side handle to a reactor thread: a command queue plus
/// the waker that ends the reactor's wait after each send.
#[derive(Clone)]
pub(crate) struct ReactorHandle {
    /// Declared before `waker`: fields drop in order, so when the last
    /// handle's waker wakes the reactor, every sender is already gone.
    tx: Sender<Command>,
    waker: Arc<Waker>,
    next_id: Arc<AtomicU64>,
    open_conns: Arc<AtomicUsize>,
}

impl ReactorHandle {
    /// Allocates a process-unique connection id.
    pub fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Connections the reactor currently owns (a liveness/RSS proxy:
    /// closed slots are pruned immediately, so churn keeps this flat).
    pub fn open_conns(&self) -> usize {
        self.open_conns.load(Ordering::SeqCst)
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
    /// thread cannot finish: a tail the socket refused, a deadline to
    /// arm (after the write, which is safe because the wheel cancels
    /// lazily), or a failed write, which closes the connection.
    ///
    /// # Errors
    ///
    /// Why the connection closed, or why this write failed.
    pub fn write(
        &self,
        out: &Outbound,
        frame: Vec<u8>,
        deadline: Option<(u32, Instant)>,
    ) -> Result<(), RuntimeError> {
        let conn = out.id;
        match out.send(frame) {
            Ok(false) if deadline.is_none() => Ok(()),
            Ok(_) => self.send(Command::Wrote {
                conn,
                deadline,
                failed: None,
            }),
            Err(Refused::Closed(e)) => Err(e),
            Err(Refused::Failed(e)) => {
                let _ = self.send(Command::Wrote {
                    conn,
                    deadline: None,
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
        spawn_reactor("mb-reactor", None)
            .expect("start the client reactor")
            .0
    })
}

/// Spawns a reactor thread; `server` selects server mode. Returns the
/// handle and the thread's join handle (client callers detach it).
///
/// # Errors
///
/// [`RuntimeError::Transport`] when the poller or the thread cannot be
/// created (descriptor or thread limits).
pub(crate) fn spawn_reactor(
    name: &str,
    server: Option<ServerCtx>,
) -> Result<(ReactorHandle, std::thread::JoinHandle<()>), RuntimeError> {
    let startup = |e: std::io::Error| RuntimeError::Transport(format!("start reactor: {e}"));
    let (poller, waker) = Poller::new().map_err(startup)?;
    let (tx, rx) = std::sync::mpsc::channel();
    let open_conns = Arc::new(AtomicUsize::new(0));
    let gauge = Arc::clone(&open_conns);
    let join = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            Reactor {
                conns: HashMap::new(),
                wheel: DeadlineWheel::new(Instant::now()),
                poller,
                unflushed: HashSet::new(),
                server,
                open_conns: gauge,
                stop_reading: false,
                next_conn: 1 << 32,
            }
            .run(&rx);
        })
        .map_err(startup)?;
    Ok((
        ReactorHandle {
            tx,
            waker,
            next_id: Arc::new(AtomicU64::new(1)),
            open_conns,
        },
        join,
    ))
}

enum Role {
    Client {
        core: Arc<MuxCore>,
        metrics: Arc<MetricsRegistry>,
    },
    Server {
        queued: Arc<AtomicUsize>,
    },
}

struct ConnState {
    out: Arc<Outbound>,
    reader: FrameReader,
    role: Role,
    /// Reject verdicts and protocol errors flush their last reply
    /// before the socket closes.
    close_after_flush: bool,
    /// What the poller currently reports for this connection.
    interest: Interest,
}

/// Why a connection left the reactor.
enum Closed {
    /// Clean close: peer EOF at a frame boundary, or our own
    /// close-after-flush completed.
    Clean,
    /// The stream failed; client waiters inherit the error.
    Error(RuntimeError),
}

struct Reactor {
    conns: HashMap<u64, ConnState>,
    wheel: DeadlineWheel,
    poller: Poller,
    /// Connections whose writer holds unsent bytes: the only ones with
    /// write interest armed, and the only ones the stall clock watches.
    unflushed: HashSet<u64>,
    server: Option<ServerCtx>,
    open_conns: Arc<AtomicUsize>,
    stop_reading: bool,
    /// Server-side connection ids (client ids come from the handle's
    /// allocator; the two kinds never share a reactor, but keeping the
    /// ranges apart makes logs unambiguous anyway).
    next_conn: u64,
}

impl Reactor {
    fn run(mut self, rx: &Receiver<Command>) {
        let mut frames: Vec<Message> = Vec::new();
        let mut ready: Vec<u64> = Vec::new();
        loop {
            // Commands first: registrations, submissions, shutdown.
            loop {
                match rx.try_recv() {
                    Ok(Command::Drain) => {
                        self.drain(&mut ready);
                        return;
                    }
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

            // The connections the last wait reported ready. A key whose
            // connection closed since then finds no entry.
            for id in ready.drain(..) {
                self.service(id, &mut frames);
            }

            // Expired deadlines fail their waiters (lazily cancelled:
            // a completed call's entry fires into a resolved slot and
            // does nothing).
            let now = Instant::now();
            let conns = &mut self.conns;
            self.wheel.expire(now, |conn, request_id| {
                if let Some(ConnState {
                    role: Role::Client { core, .. },
                    ..
                }) = conns.get(&conn)
                {
                    core.fail_one(
                        request_id,
                        RuntimeError::Timeout("deadline elapsed before a reply".into()),
                    );
                }
            });
            self.expire_stalls(now);

            let timeout = self
                .next_timer()
                .map(|at| at.saturating_duration_since(Instant::now()));
            if let Err(e) = self.poller.wait(timeout, &mut ready) {
                self.fail_everything(&RuntimeError::Transport(format!(
                    "transport reactor poll failed: {e}"
                )));
                return;
            }
        }
    }

    /// When the loop must wake with no readiness event: the next armed
    /// wheel tick or the earliest write-stall expiry, whichever is
    /// first. `None` blocks until a socket or a command wakes it.
    fn next_timer(&self) -> Option<Instant> {
        let stall = self
            .unflushed
            .iter()
            .filter_map(|id| self.conns.get(id)?.out.stalled_since())
            .min()
            .map(|since| since + WRITE_STALL);
        self.wheel.next_due().into_iter().chain(stall).min()
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
                    .and_then(|c| c.out.stalled_since())
                    .is_some_and(|since| now >= since + WRITE_STALL)
            })
            .collect();
        for id in due {
            self.close(
                id,
                &Closed::Error(RuntimeError::Transport(
                    "write stalled: peer stopped reading".into(),
                )),
            );
        }
    }

    fn handle(&mut self, cmd: Command) {
        match cmd {
            Command::RegisterClient { out, core, metrics } => {
                self.insert(out, Role::Client { core, metrics });
            }
            Command::RegisterServer { stream } => {
                if self.server.is_some() {
                    self.next_conn += 1;
                    let out = Arc::new(Outbound::new(self.next_conn, stream, None));
                    self.insert(
                        out,
                        Role::Server {
                            queued: Arc::new(AtomicUsize::new(0)),
                        },
                    );
                }
            }
            Command::Wrote {
                conn,
                deadline,
                failed,
            } => match failed {
                Some(e) => self.close(conn, &Closed::Error(e)),
                None if self.conns.contains_key(&conn) => {
                    if let Some((request_id, at)) = deadline {
                        self.wheel.insert(conn, request_id, at);
                    }
                    self.rearm(conn);
                }
                // Unknown conn: it died and fail_all already resolved
                // the caller's slot.
                None => {}
            },
            Command::Close { conn } => {
                self.close(
                    conn,
                    &Closed::Error(RuntimeError::Transport("connection closed".into())),
                );
            }
            Command::StopReading => self.stop_reading(),
            Command::Drain => unreachable!("handled in run()"),
        }
    }

    fn insert(&mut self, out: Arc<Outbound>, role: Role) {
        let id = out.id;
        self.conns.insert(
            id,
            ConnState {
                out,
                reader: FrameReader::new(),
                role,
                close_after_flush: false,
                interest: Interest::default(),
            },
        );
        self.open_conns.store(self.conns.len(), Ordering::SeqCst);
        self.rearm(id);
    }

    /// Re-derives a connection's readiness interest from its state:
    /// reads while the reactor takes frames from it, writes only while
    /// its writer holds unsent bytes.
    fn rearm(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let want = Interest {
            read: !self.stop_reading && !conn.close_after_flush,
            write: conn.out.queued(),
        };
        if want.write {
            self.unflushed.insert(id);
        } else {
            self.unflushed.remove(&id);
        }
        match self
            .poller
            .update(&conn.out.stream, id, conn.interest, want)
        {
            Ok(()) => conn.interest = want,
            Err(e) => self.close(
                id,
                &Closed::Error(RuntimeError::Transport(format!(
                    "readiness registration failed: {e}"
                ))),
            ),
        }
    }

    /// Pumps one connection's writer, then re-arms it (or closes it on
    /// a write error).
    fn flush(&mut self, id: u64) {
        let Some(conn) = self.conns.get(&id) else {
            return;
        };
        match conn.out.flush() {
            Ok(()) => self.rearm(id),
            Err(e) => self.close(id, &Closed::Error(e)),
        }
    }

    /// Shutdown: no connection is read from again, and none reports
    /// readability any more.
    fn stop_reading(&mut self) {
        self.stop_reading = true;
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.rearm(id);
        }
    }

    /// Removes a connection, failing client waiters synchronously.
    fn close(&mut self, id: u64, why: &Closed) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        self.open_conns.store(self.conns.len(), Ordering::SeqCst);
        self.unflushed.remove(&id);
        // Deregister before the descriptor closes: the kernel would
        // drop it anyway, but only once no duplicate refers to it (a
        // caller or a queued job may still hold the outbound half).
        self.poller
            .update(&conn.out.stream, id, conn.interest, Interest::default())
            .ok();
        // Only client callers ever see the reason.
        let err = match why {
            Closed::Clean => RuntimeError::Transport("server closed the connection".into()),
            Closed::Error(e) => e.clone(),
        };
        // Closed before the waiters fail: a caller that registered
        // after the broadcast finds the connection dead, one that
        // registered before it finds nothing left to write to.
        conn.out.close(&err);
        if let Role::Client { core, .. } = &conn.role {
            core.fail_all(&err);
        }
        conn.out.stream.shutdown(Shutdown::Both).ok();
    }

    fn fail_everything(&mut self, err: &RuntimeError) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close(id, &Closed::Error(err.clone()));
        }
    }

    /// Services one connection the poller reported ready, then re-arms
    /// or closes it.
    fn service(&mut self, id: u64, frames: &mut Vec<Message>) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        match Self::pump(conn, self.server.as_ref(), frames, self.stop_reading) {
            Ok(false) => self.rearm(id),
            Ok(true) => self.close(id, &Closed::Clean),
            Err(e) => self.close(id, &Closed::Error(e)),
        }
    }

    /// One ready connection's I/O: write pump, then read pump + frame
    /// handling (replies produced inline go out as they are built).
    /// Returns whether the connection reached a clean close.
    fn pump(
        conn: &mut ConnState,
        server: Option<&ServerCtx>,
        frames: &mut Vec<Message>,
        stop_reading: bool,
    ) -> Result<bool, RuntimeError> {
        conn.out.flush()?;
        if conn.close_after_flush || stop_reading {
            return Ok(conn.close_after_flush && !conn.out.queued());
        }
        frames.clear();
        let pump = conn
            .reader
            .pump(&mut &conn.out.stream, frames, READ_BUDGET)?;
        if pump.bytes > 0 {
            match (&conn.role, server) {
                (Role::Client { metrics, .. }, _) => metrics.add_bytes_received(pump.bytes as u64),
                (Role::Server { .. }, Some(ctx)) => {
                    ctx.metrics.add_bytes_received(pump.bytes as u64)
                }
                (Role::Server { .. }, None) => {}
            }
        }
        for msg in frames.drain(..) {
            match &conn.role {
                Role::Client { core, .. } => {
                    if let MessageKind::Reply { request_id, .. } = msg.kind {
                        core.complete(request_id, msg);
                    }
                    // Clients only expect replies; anything else is
                    // dropped, as the old reader thread did.
                }
                Role::Server { queued } => {
                    let Some(ctx) = server else { continue };
                    Self::serve_frame(&conn.out, &mut conn.close_after_flush, queued, ctx, msg)?;
                }
            }
        }
        Ok(pump.eof || (conn.close_after_flush && !conn.out.queued()))
    }

    /// Handles one inbound server-side frame: handshake, admission,
    /// queue or shed. Replies built here are written by the reactor
    /// itself, through the same [`Outbound::send`] the workers use.
    fn serve_frame(
        out: &Arc<Outbound>,
        close_after_flush: &mut bool,
        queued: &Arc<AtomicUsize>,
        ctx: &ServerCtx,
        msg: Message,
    ) -> Result<(), RuntimeError> {
        let reply_inline = |reply: Message| match out.send(reply.to_bytes()) {
            Ok(_) => Ok(()),
            Err(Refused::Closed(e) | Refused::Failed(e)) => Err(e),
        };
        if let MessageKind::Hello { info, .. } = &msg.kind {
            let (reply, keep) = hello_reply(info, msg.endian, &ctx.cfg, &ctx.metrics);
            if !keep {
                *close_after_flush = true;
            }
            return reply_inline(reply);
        }
        if let MessageKind::Artifact {
            request_id,
            reply: false,
        } = &msg.kind
        {
            // Answered inline like Hello: a store read, no dispatch slot.
            return reply_inline(crate::artifacts::artifact_fetch_reply(
                *request_id,
                msg.endian,
                &msg.body,
                ctx.cfg.artifacts.as_deref(),
            ));
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
            return deadline_expired_reply(&msg, &ctx.metrics).map_or(Ok(()), reply_inline);
        }
        let sheddable = msg.deadline.is_some_and(|d| d.sheddable);
        let admission = ctx.limiter.admit(
            ctx.in_flight.load(Ordering::SeqCst),
            ctx.queue.len(),
            sheddable,
        );
        if admission == Admission::Brownout {
            ctx.metrics.add_brownout_shed();
        }
        let admitted =
            admission == Admission::Admit && queued.load(Ordering::SeqCst) < ctx.cfg.max_queue;
        if admitted {
            // Oneways go to the single ordered worker (dispatch order
            // is their only delivery guarantee); request/reply calls
            // fan out across the pool and correlate by request id.
            let oneway = matches!(
                msg.kind,
                MessageKind::Request {
                    response_expected: false,
                    ..
                }
            );
            let target = if oneway { &ctx.ordered } else { &ctx.queue };
            queued.fetch_add(1, Ordering::SeqCst);
            if target
                .try_push(ServerJob {
                    out: Arc::clone(out),
                    queued: Arc::clone(queued),
                    msg,
                    expires_at,
                    admitted: Instant::now(),
                })
                .is_err()
            {
                // The queue closed under us (shutdown): undo and drop.
                queued.fetch_sub(1, Ordering::SeqCst);
            }
        } else if let Some(reply) = shed_reply(&msg, &ctx.metrics) {
            return reply_inline(reply);
        }
        Ok(())
    }

    /// Server shutdown, phase two: flush pending reply bytes (bounded)
    /// and exit.
    fn drain(&mut self, ready: &mut Vec<u64>) {
        self.stop_reading();
        let give_up = Instant::now() + DRAIN_FLUSH;
        loop {
            let pending: Vec<u64> = self.unflushed.iter().copied().collect();
            for id in pending {
                self.flush(id);
            }
            let now = Instant::now();
            if self.unflushed.is_empty() || now >= give_up {
                break;
            }
            ready.clear();
            if self.poller.wait(Some(give_up - now), ready).is_err() {
                break;
            }
        }
        self.fail_everything(&RuntimeError::Transport("server shut down".into()));
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

    #[test]
    fn wheel_fires_due_deadlines_and_keeps_future_ones() {
        let origin = Instant::now();
        let mut wheel = DeadlineWheel::new(origin);
        wheel.insert(1, 10, origin + Duration::from_millis(5));
        wheel.insert(1, 11, origin + Duration::from_millis(500));
        wheel.insert(2, 12, origin + Duration::from_millis(6));
        let mut fired = Vec::new();
        wheel.expire(origin + Duration::from_millis(20), |c, r| {
            fired.push((c, r))
        });
        fired.sort_unstable();
        assert_eq!(fired, vec![(1, 10), (2, 12)]);
        assert!(!wheel.is_empty(), "the 500ms entry is still armed");
        let mut late = Vec::new();
        wheel.expire(origin + Duration::from_millis(600), |c, r| {
            late.push((c, r))
        });
        assert_eq!(late, vec![(1, 11)]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn wheel_handles_full_rotation_collisions() {
        // Two entries hashing to the same slot, one full rotation
        // apart: the near one fires, the far one waits its turn.
        let origin = Instant::now();
        let mut wheel = DeadlineWheel::new(origin);
        let near = Duration::from_millis(3);
        let far = near + Duration::from_millis(WHEEL_SLOTS); // same slot, next rotation
        wheel.insert(7, 1, origin + near);
        wheel.insert(7, 2, origin + far);
        let mut fired = Vec::new();
        wheel.expire(origin + Duration::from_millis(10), |_, r| fired.push(r));
        assert_eq!(fired, vec![1], "the colliding future entry stayed");
        wheel.expire(origin + far + Duration::from_millis(2), |_, r| {
            fired.push(r)
        });
        assert_eq!(fired, vec![1, 2]);
    }

    #[test]
    fn wheel_holds_deadlines_beyond_one_rotation() {
        // A deadline several full rotations out (the wheel covers
        // WHEEL_SLOTS ticks = 256 ms per revolution) must survive every
        // intermediate expiry pass over its slot and fire only when its own
        // tick comes around — never early, never dropped.
        let origin = Instant::now();
        let mut wheel = DeadlineWheel::new(origin);
        let far = Duration::from_millis(3 * WHEEL_SLOTS + 5); // ~773 ms
        wheel.insert(9, 42, origin + far);
        let mut fired = Vec::new();
        // Sweep right past its slot on each of the three intervening
        // rotations.
        for rotation in 1..=3u64 {
            wheel.expire(
                origin + Duration::from_millis(rotation * WHEEL_SLOTS),
                |c, r| fired.push((c, r)),
            );
            assert!(fired.is_empty(), "fired {} rotations early", 4 - rotation);
            assert!(!wheel.is_empty(), "entry dropped mid-rotation");
        }
        wheel.expire(origin + far + WHEEL_TICK, |c, r| fired.push((c, r)));
        assert_eq!(fired, vec![(9, 42)]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn wheel_reports_when_its_earliest_entry_falls_due() {
        let origin = Instant::now();
        let mut wheel = DeadlineWheel::new(origin);
        assert_eq!(wheel.next_due(), None, "nothing armed: no timer");
        wheel.insert(1, 1, origin + Duration::from_millis(40));
        wheel.insert(1, 2, origin + Duration::from_micros(7_500));
        // Due at the end of the 7 ms tick: never before the deadline
        // itself, and expire() fires the entry then.
        let due = wheel.next_due().unwrap();
        assert_eq!(due, origin + Duration::from_millis(8));
        let mut fired = Vec::new();
        wheel.expire(due, |_, r| fired.push(r));
        assert_eq!(fired, vec![2]);
        assert_eq!(wheel.next_due(), Some(origin + Duration::from_millis(41)));
        // Beyond one rotation: the timer looks again a rotation out.
        let mut far = DeadlineWheel::new(origin);
        far.insert(2, 3, origin + Duration::from_millis(3 * WHEEL_SLOTS));
        assert_eq!(
            far.next_due(),
            Some(origin + Duration::from_millis(WHEEL_SLOTS + 1))
        );
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

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_poller_reports_ready_keys_and_wakes_on_demand() {
        let (near, mut far) = socket_pair();
        let (mut poller, waker) = Poller::new().unwrap();
        poller.update(&near, 7, Interest::default(), READ).unwrap();
        let mut ready = Vec::new();

        // Nothing to read: the wait runs out its timeout.
        let t = Instant::now();
        poller
            .wait(Some(Duration::from_millis(30)), &mut ready)
            .unwrap();
        assert!(ready.is_empty());
        assert!(t.elapsed() >= Duration::from_millis(30));

        // A byte from the peer: reported under the connection's key.
        far.write_all(b"x").unwrap();
        poller.wait(None, &mut ready).unwrap();
        assert_eq!(ready, vec![7]);

        // The waker ends an unbounded wait from another thread and
        // reports no connection.
        ready.clear();
        let mut buf = [0u8; 1];
        (&near).read_exact(&mut buf).unwrap();
        let t = Instant::now();
        let kick = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        poller.wait(None, &mut ready).unwrap();
        kick.join().unwrap();
        assert!(ready.is_empty());
        assert!(t.elapsed() < Duration::from_secs(5), "woken, not timed out");

        // Write interest on an empty send buffer is ready at once;
        // deregistered sockets are never reported.
        let both = Interest {
            read: true,
            write: true,
        };
        poller.update(&near, 7, READ, both).unwrap();
        poller
            .wait(Some(Duration::from_secs(5)), &mut ready)
            .unwrap();
        assert_eq!(ready, vec![7]);
        ready.clear();
        poller.update(&near, 7, both, Interest::default()).unwrap();
        far.write_all(b"y").unwrap();
        poller
            .wait(Some(Duration::from_millis(30)), &mut ready)
            .unwrap();
        assert!(ready.is_empty());
    }

    #[test]
    fn timed_poller_reports_every_registered_connection() {
        let (a, _pa) = socket_pair();
        let (b, _pb) = socket_pair();
        let (mut poller, waker) = timed::Poller::new().unwrap();
        poller.update(&a, 1, Interest::default(), READ).unwrap();
        poller.update(&b, 2, Interest::default(), READ).unwrap();
        let mut ready = Vec::new();
        poller.wait(None, &mut ready).unwrap();
        assert_eq!(ready, vec![1, 2], "every registered key, after a park");

        // However long the timeout, the park lasts at most PARK (a
        // pending wake ends it sooner), so every connection is polled
        // at least that often; a deregistered key is no longer reported.
        ready.clear();
        poller.update(&b, 2, READ, Interest::default()).unwrap();
        waker.wake();
        let t = Instant::now();
        poller
            .wait(Some(Duration::from_secs(5)), &mut ready)
            .unwrap();
        assert!(t.elapsed() < Duration::from_secs(1));
        assert_eq!(ready, vec![1]);
    }

    #[test]
    fn reactor_exits_once_every_handle_is_gone() {
        let (handle, join) = spawn_reactor("mb-reactor-test", None).unwrap();
        let (near, _far) = socket_pair();
        let core = Arc::new(MuxCore::new());
        handle
            .send(Command::RegisterClient {
                out: Arc::new(Outbound::new(handle.alloc_id(), near, None)),
                core: Arc::clone(&core),
                metrics: MetricsRegistry::shared(),
            })
            .unwrap();
        while handle.open_conns() == 0 {
            std::thread::yield_now();
        }
        // Give the loop time to block in its wait: no byte, no timer
        // and no command will end that wait from here on.
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

    #[test]
    fn wheel_fires_past_deadlines_immediately() {
        let origin = Instant::now();
        let mut wheel = DeadlineWheel::new(origin);
        wheel.expire(origin + Duration::from_secs(2), |_, _| {});
        // Inserted "in the past" relative to the cursor.
        wheel.insert(3, 9, origin + Duration::from_millis(1));
        let mut fired = Vec::new();
        wheel.expire(origin + Duration::from_secs(2) + WHEEL_TICK, |c, r| {
            fired.push((c, r));
        });
        assert_eq!(fired, vec![(3, 9)]);
    }
}
