//! GIOP-style message framing.
//!
//! Remote invocations travel in envelopes modelled on GIOP (the protocol
//! under IIOP): a 12-byte header (`GIOP` magic, version, flags carrying
//! the sender's byte order, message type, body size) followed by a
//! Request or Reply header and the CDR-encoded body.

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use mockingbird_obs::TraceContext;
use mockingbird_values::Endian;

use crate::cdr::CdrReader;

/// The largest frame (header + payload) a peer may declare. Anything
/// larger is rejected *before* the receiver allocates a buffer, so a
/// forged length header cannot be used to exhaust memory.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Allocates connection-unique GIOP request ids.
///
/// A multiplexed connection owns one allocator and stamps every
/// outgoing request with a fresh id, so replies arriving out of order
/// can be correlated back to their waiters.
#[derive(Debug, Default)]
pub struct RequestIds(AtomicU32);

impl RequestIds {
    /// A new allocator, starting at 1 (0 is reserved for oneways that
    /// never correlate).
    #[must_use]
    pub const fn new() -> Self {
        RequestIds(AtomicU32::new(1))
    }

    /// The next unused id.
    pub fn next(&self) -> u32 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

/// Framing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GiopError(pub String);

impl fmt::Display for GiopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GIOP framing error: {}", self.0)
    }
}

impl std::error::Error for GiopError {}

const MAGIC: &[u8; 4] = b"GIOP";
const VERSION: (u8, u8) = (1, 0);
const FLAG_LITTLE_ENDIAN: u8 = 0x01;

/// Service-context id of the trace-context slot carried in Request
/// headers (GIOP service contexts are `(id, data)` pairs; we define
/// vendor ids "MBTC" for tracing and "MBDL" for deadlines).
pub const TRACE_CONTEXT_ID: u32 = 0x4D42_5443;

/// Service-context id of the deadline slot ("MBDL"): the client's
/// remaining time budget, re-stamped on every attempt so the server
/// sees what is left *now*, not what the call started with.
pub const DEADLINE_CONTEXT_ID: u32 = 0x4D42_444C;

/// Encoded size of one trace slot: id + 128-bit trace id + 64-bit span
/// id + flags word, all u32-aligned.
const TRACE_SLOT_LEN: usize = 4 + 16 + 8 + 4;

/// Encoded size of one deadline slot: id + 64-bit budget in µs (two
/// u32 halves) + flags word.
const DEADLINE_SLOT_LEN: usize = 4 + 8 + 4;

const TRACE_FLAG_SAMPLED: u32 = 0x01;

const DEADLINE_FLAG_SHEDDABLE: u32 = 0x01;

/// Budget value meaning "no deadline, slot carries only flags".
const DEADLINE_NONE: u64 = u64::MAX;

/// The deadline service context: how much of the client's time budget
/// remains for this attempt, plus the call's criticality tier. Servers
/// use the budget to refuse doomed work (admission, dequeue, and
/// pre-dispatch checks) and the tier to shed brownout traffic first.
///
/// The slot also remembers, off the wire, when its budget was measured
/// (built by the sender, decoded by the receiver), so a transport can
/// frame what is left at the moment it writes. Equality compares only
/// what is framed.
#[derive(Debug, Clone, Copy)]
pub struct WireDeadline {
    /// Remaining budget in microseconds; `None` when the call has no
    /// deadline but still carries a criticality flag.
    pub budget_us: Option<u64>,
    /// Whether the caller marked this request sheddable (cut first
    /// under brownout, before critical traffic).
    pub sheddable: bool,
    /// When `budget_us` was measured.
    measured_at: Instant,
}

impl PartialEq for WireDeadline {
    fn eq(&self, other: &Self) -> bool {
        (self.budget_us, self.sheddable) == (other.budget_us, other.sheddable)
    }
}

impl Eq for WireDeadline {}

impl WireDeadline {
    /// A slot for `budget` of remaining time (saturating to µs).
    #[must_use]
    pub fn new(budget: Duration, sheddable: bool) -> Self {
        let us = u64::try_from(budget.as_micros()).unwrap_or(u64::MAX - 1);
        WireDeadline::measured(Some(us.min(u64::MAX - 1)), sheddable)
    }

    /// A slot carrying only the criticality flag (no deadline).
    #[must_use]
    pub fn sheddable_only() -> Self {
        WireDeadline::measured(None, true)
    }

    fn measured(budget_us: Option<u64>, sheddable: bool) -> Self {
        WireDeadline {
            budget_us,
            sheddable,
            measured_at: Instant::now(),
        }
    }

    /// The budget as it was measured, if one was propagated.
    #[must_use]
    pub fn budget(&self) -> Option<Duration> {
        self.budget_us.map(Duration::from_micros)
    }

    /// The budget left now: [`budget`](Self::budget) less the time
    /// since it was measured.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.budget()
            .map(|b| b.saturating_sub(self.measured_at.elapsed()))
    }
}

/// The supervision protocol revision spoken over [`MessageKind::Hello`]
/// frames. Peers with different revisions must not exchange requests.
pub const PROTOCOL_VERSION: u32 = 1;

/// What a peer asserts about itself at connect time: the two sides of a
/// Mockingbird boundary were compiled from *independent* declarations,
/// so before any request flows each side states which contract it was
/// compiled against. The interface fingerprint is the layout fingerprint
/// of the operation table (see [`Layouts`](crate::Layouts)); the rules fingerprint
/// identifies the comparer rule set the peer compiled its own stubs
/// under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandshakeInfo {
    /// Supervision protocol revision ([`PROTOCOL_VERSION`]).
    pub protocol: u32,
    /// Layout fingerprint of the interface (operation names and wire
    /// types). Mismatch means the peers were compiled against different
    /// declarations: requests would decode as garbage, so the connection
    /// is rejected.
    pub interface_fp: u128,
    /// Fingerprint of the rule set the peer's stubs were compiled under.
    /// Rules never change the wire bytes, so the handshake ignores it;
    /// artifact fetches and mesh ads read it.
    pub rules_fp: u64,
}

impl HandshakeInfo {
    /// An assertion under the current [`PROTOCOL_VERSION`].
    #[must_use]
    pub fn new(interface_fp: u128, rules_fp: u64) -> Self {
        HandshakeInfo {
            protocol: PROTOCOL_VERSION,
            interface_fp,
            rules_fp,
        }
    }

    /// The server's verdict on a client proposal: reject on protocol or
    /// interface skew, accept otherwise.
    #[must_use]
    pub fn evaluate(&self, client: &HandshakeInfo) -> HandshakeVerdict {
        if self.protocol != client.protocol || self.interface_fp != client.interface_fp {
            HandshakeVerdict::Reject
        } else {
            HandshakeVerdict::Accept
        }
    }
}

/// The role/outcome field of a [`MessageKind::Hello`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeVerdict {
    /// A client proposal (no verdict yet).
    Propose,
    /// Protocol and interface fingerprints match: requests may flow.
    Accept,
    /// Protocol or interface skew: the server closes the connection
    /// after this ack; the client surfaces a version-skew error.
    Reject,
}

impl HandshakeVerdict {
    fn to_u32(self) -> u32 {
        match self {
            HandshakeVerdict::Propose => 0,
            HandshakeVerdict::Accept => 1,
            HandshakeVerdict::Reject => 3,
        }
    }

    fn from_u32(v: u32) -> Result<Self, GiopError> {
        Ok(match v {
            0 => HandshakeVerdict::Propose,
            // 2 told older clients to marshal interpretively on a
            // rules-only skew, which changes no byte: it is an Accept.
            1 | 2 => HandshakeVerdict::Accept,
            3 => HandshakeVerdict::Reject,
            other => return Err(GiopError(format!("unknown handshake verdict {other}"))),
        })
    }
}

/// Reply outcome, mirroring GIOP reply statuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyStatus {
    /// The invocation completed normally.
    NoException,
    /// The target raised an application-level exception.
    UserException,
    /// The infrastructure failed (unknown object, conversion error, ...).
    SystemException,
    /// The server shed the request instead of queueing it (bounded
    /// dispatch queue or global in-flight cap exceeded). The request was
    /// *not* executed; idempotent callers may retry after backoff.
    Overloaded,
    /// The request's propagated deadline had already expired when the
    /// server looked at it (admission, dequeue, or pre-dispatch), so
    /// the work was refused rather than executed. Retrying is
    /// pointless: the client's budget is gone.
    DeadlineExpired,
}

impl ReplyStatus {
    fn to_u32(self) -> u32 {
        match self {
            ReplyStatus::NoException => 0,
            ReplyStatus::UserException => 1,
            ReplyStatus::SystemException => 2,
            ReplyStatus::Overloaded => 3,
            ReplyStatus::DeadlineExpired => 4,
        }
    }

    fn from_u32(v: u32) -> Result<Self, GiopError> {
        Ok(match v {
            0 => ReplyStatus::NoException,
            1 => ReplyStatus::UserException,
            2 => ReplyStatus::SystemException,
            3 => ReplyStatus::Overloaded,
            4 => ReplyStatus::DeadlineExpired,
            other => return Err(GiopError(format!("unknown reply status {other}"))),
        })
    }
}

/// The kind-specific part of a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageKind {
    /// An invocation request.
    Request {
        /// Correlates the reply.
        request_id: u32,
        /// Whether a reply is expected (`false` for oneway/messaging).
        response_expected: bool,
        /// Identifies the target object in the receiver's registry.
        object_key: Vec<u8>,
        /// The operation (method) name.
        operation: String,
    },
    /// A reply to a request.
    Reply {
        /// The request this replies to.
        request_id: u32,
        /// Outcome.
        status: ReplyStatus,
    },
    /// A connect-time handshake frame: the sender's compilation
    /// fingerprints plus a verdict (clients send
    /// [`HandshakeVerdict::Propose`], servers answer with their own info
    /// and an accept/reject verdict).
    Hello {
        /// The sender's fingerprints.
        info: HandshakeInfo,
        /// Proposal or server verdict.
        verdict: HandshakeVerdict,
    },
    /// An `MBAR` artifact-fetch frame: a joining node asks a peer (whose
    /// fingerprints already proved agreement via [`MessageKind::Hello`])
    /// for compiled artifacts it is missing, and the peer ships them
    /// back. The body is the `mockingbird-artifact` transfer payload
    /// (opaque at this layer); receivers re-check each record's content
    /// hash before trusting it.
    Artifact {
        /// Correlates the reply, like a request id.
        request_id: u32,
        /// `false` for the fetch request, `true` for the peer's reply.
        reply: bool,
    },
}

/// A framed message: headers plus a CDR-encoded body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The sender's byte order (receivers byte-swap as needed).
    pub endian: Endian,
    /// Request or Reply header.
    pub kind: MessageKind,
    /// Propagated trace context, carried in a service-context slot of
    /// Request headers (ignored for other kinds). `None` ⇒ an empty
    /// service-context list is framed, so the header layout is uniform.
    pub trace: Option<TraceContext>,
    /// Propagated deadline budget + criticality, carried in a second
    /// service-context slot of Request headers (ignored for other
    /// kinds). `None` frames no slot, so deadline-free traffic is
    /// byte-identical to the pre-deadline wire format.
    pub deadline: Option<WireDeadline>,
    /// The CDR body (arguments or results).
    pub body: Vec<u8>,
}

impl Message {
    /// Builds a request message.
    pub fn request(
        request_id: u32,
        response_expected: bool,
        object_key: Vec<u8>,
        operation: impl Into<String>,
        endian: Endian,
        body: Vec<u8>,
    ) -> Self {
        Message {
            endian,
            kind: MessageKind::Request {
                request_id,
                response_expected,
                object_key,
                operation: operation.into(),
            },
            trace: None,
            deadline: None,
            body,
        }
    }

    /// Attaches a trace context (propagated only on Request frames).
    #[must_use]
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches a deadline slot (propagated only on Request frames).
    #[must_use]
    pub fn with_deadline(mut self, deadline: WireDeadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builds a reply message.
    pub fn reply(request_id: u32, status: ReplyStatus, endian: Endian, body: Vec<u8>) -> Self {
        Message {
            endian,
            kind: MessageKind::Reply { request_id, status },
            trace: None,
            deadline: None,
            body,
        }
    }

    /// Builds a handshake frame (empty body).
    pub fn hello(info: HandshakeInfo, verdict: HandshakeVerdict, endian: Endian) -> Self {
        Message {
            endian,
            kind: MessageKind::Hello { info, verdict },
            trace: None,
            deadline: None,
            body: Vec::new(),
        }
    }

    /// Builds an `MBAR` artifact-fetch frame carrying the opaque transfer
    /// payload as its body.
    pub fn artifact(request_id: u32, reply: bool, endian: Endian, body: Vec<u8>) -> Self {
        Message {
            endian,
            kind: MessageKind::Artifact { request_id, reply },
            trace: None,
            deadline: None,
            body,
        }
    }

    /// Exact byte length of the kind-specific header (what the old
    /// two-buffer path measured by serialising; all fields are at most
    /// 4-aligned and the header starts 4-aligned, so the length is pure
    /// arithmetic).
    fn header_len(&self) -> usize {
        match &self.kind {
            MessageKind::Request {
                object_key,
                operation,
                ..
            } => {
                let n = 8 + 4 + object_key.len();
                let through_op = n.div_ceil(4) * 4 + 4 + operation.len();
                // Pad the operation name to 4, then the service-context
                // count and whichever slots (trace, deadline) are set.
                let mut slots = 0;
                if self.trace.is_some() {
                    slots += TRACE_SLOT_LEN;
                }
                if self.deadline.is_some() {
                    slots += DEADLINE_SLOT_LEN;
                }
                through_op.div_ceil(4) * 4 + 4 + slots
            }
            MessageKind::Reply { .. } => 8,
            // protocol + verdict + interface_fp (4×u32) + rules_fp (2×u32)
            MessageKind::Hello { .. } => 32,
            // request_id + role (request/reply)
            MessageKind::Artifact { .. } => 8,
        }
    }

    fn put_u32_endian(&self, out: &mut Vec<u8>, v: u32) {
        match self.endian {
            Endian::Little => out.extend_from_slice(&v.to_le_bytes()),
            Endian::Big => out.extend_from_slice(&v.to_be_bytes()),
        }
    }

    /// Serialises everything before the body — preamble, kind-specific
    /// header, padding to the 8-aligned body start — into `out`
    /// (cleared first), reserving `reserve` bytes up front.
    ///
    /// `restamp` replaces the deadline slot's value at encode time
    /// (same slot, same size, so no length changes); it is ignored when
    /// the message frames no deadline slot of its own. `id` likewise
    /// replaces the request id of kinds that carry one.
    fn head_into(
        &self,
        out: &mut Vec<u8>,
        reserve: usize,
        restamp: Option<WireDeadline>,
        id: Option<u32>,
    ) {
        let deadline = match (self.deadline, restamp) {
            (Some(_), Some(r)) => Some(r),
            (own, _) => own,
        };
        out.clear();
        out.reserve_exact(reserve);
        let header_padded = self.header_len().div_ceil(8) * 8;
        let size = header_padded + self.body.len();
        out.extend_from_slice(MAGIC);
        out.push(VERSION.0);
        out.push(VERSION.1);
        out.push(match self.endian {
            Endian::Little => FLAG_LITTLE_ENDIAN,
            Endian::Big => 0,
        });
        out.push(match self.kind {
            MessageKind::Request { .. } => 0,
            MessageKind::Reply { .. } => 1,
            MessageKind::Hello { .. } => 2,
            MessageKind::Artifact { .. } => 3,
        });
        out.extend_from_slice(&(size as u32).to_be_bytes());
        match &self.kind {
            MessageKind::Request {
                request_id,
                response_expected,
                object_key,
                operation,
            } => {
                self.put_u32_endian(out, id.unwrap_or(*request_id));
                self.put_u32_endian(out, *response_expected as u32);
                self.put_u32_endian(out, object_key.len() as u32);
                out.extend_from_slice(object_key);
                while !(out.len() - 12).is_multiple_of(4) {
                    out.push(0);
                }
                self.put_u32_endian(out, operation.len() as u32);
                out.extend_from_slice(operation.as_bytes());
                while !(out.len() - 12).is_multiple_of(4) {
                    out.push(0);
                }
                let count = u32::from(self.trace.is_some()) + u32::from(self.deadline.is_some());
                self.put_u32_endian(out, count);
                if let Some(t) = &self.trace {
                    self.put_u32_endian(out, TRACE_CONTEXT_ID);
                    self.put_u32_endian(out, (t.trace_id >> 96) as u32);
                    self.put_u32_endian(out, (t.trace_id >> 64) as u32);
                    self.put_u32_endian(out, (t.trace_id >> 32) as u32);
                    self.put_u32_endian(out, t.trace_id as u32);
                    self.put_u32_endian(out, (t.span_id >> 32) as u32);
                    self.put_u32_endian(out, t.span_id as u32);
                    self.put_u32_endian(out, if t.sampled { TRACE_FLAG_SAMPLED } else { 0 });
                }
                if let Some(d) = &deadline {
                    let budget = d.budget_us.unwrap_or(DEADLINE_NONE);
                    self.put_u32_endian(out, DEADLINE_CONTEXT_ID);
                    self.put_u32_endian(out, (budget >> 32) as u32);
                    self.put_u32_endian(out, budget as u32);
                    self.put_u32_endian(
                        out,
                        if d.sheddable {
                            DEADLINE_FLAG_SHEDDABLE
                        } else {
                            0
                        },
                    );
                }
            }
            MessageKind::Reply { request_id, status } => {
                self.put_u32_endian(out, id.unwrap_or(*request_id));
                self.put_u32_endian(out, status.to_u32());
            }
            MessageKind::Hello { info, verdict } => {
                self.put_u32_endian(out, info.protocol);
                self.put_u32_endian(out, verdict.to_u32());
                self.put_u32_endian(out, (info.interface_fp >> 96) as u32);
                self.put_u32_endian(out, (info.interface_fp >> 64) as u32);
                self.put_u32_endian(out, (info.interface_fp >> 32) as u32);
                self.put_u32_endian(out, info.interface_fp as u32);
                self.put_u32_endian(out, (info.rules_fp >> 32) as u32);
                self.put_u32_endian(out, info.rules_fp as u32);
            }
            MessageKind::Artifact { request_id, reply } => {
                self.put_u32_endian(out, id.unwrap_or(*request_id));
                self.put_u32_endian(out, *reply as u32);
            }
        }
        debug_assert_eq!(out.len() - 12, self.header_len());
        // Align the body start to 8 so body alignment is origin-stable.
        out.resize(12 + header_padded, 0);
    }

    /// Serialises the message to framed bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.to_bytes_into(&mut out);
        out
    }

    /// Serialises into a caller-owned (pooled) buffer: the exact frame
    /// size is reserved once, so a warmed buffer never reallocates.
    pub fn to_bytes_into(&self, out: &mut Vec<u8>) {
        self.frame_into(out, None, None);
    }

    /// Serialises the message as if its request id were `id` and, when
    /// `restamp` is given, its deadline slot held `restamp`, in one pass
    /// and without copying the message: the frame a multiplexing
    /// transport sends after renumbering a caller's request. Framing the
    /// budget left at the actual send instant (see
    /// [`WireDeadline::remaining`]) keeps the server's view of the
    /// remaining time from drifting past the caller's. Kinds without a
    /// request id (`Hello`) keep their own.
    #[must_use]
    pub fn to_bytes_with_id(&self, id: u32, restamp: Option<WireDeadline>) -> Vec<u8> {
        let mut out = Vec::new();
        self.frame_into(&mut out, Some(id), restamp);
        out
    }

    fn frame_into(&self, out: &mut Vec<u8>, id: Option<u32>, restamp: Option<WireDeadline>) {
        let total = 12 + self.header_len().div_ceil(8) * 8 + self.body.len();
        self.head_into(out, total, restamp, id);
        out.extend_from_slice(&self.body);
        debug_assert_eq!(out.len(), total);
    }

    /// Replaces the request id of kinds that carry one (a no-op for
    /// `Hello`).
    pub fn set_request_id(&mut self, id: u32) {
        match &mut self.kind {
            MessageKind::Request { request_id, .. }
            | MessageKind::Reply { request_id, .. }
            | MessageKind::Artifact { request_id, .. } => *request_id = id,
            MessageKind::Hello { .. } => {}
        }
    }

    /// Parses a framed message.
    ///
    /// # Errors
    ///
    /// Returns [`GiopError`] on bad magic, truncation, or malformed
    /// headers.
    pub fn from_bytes(data: &[u8]) -> Result<Message, GiopError> {
        if data.len() < 12 {
            return Err(GiopError("truncated header".into()));
        }
        if &data[0..4] != MAGIC {
            return Err(GiopError("bad magic (not a GIOP message)".into()));
        }
        let endian = if data[6] & FLAG_LITTLE_ENDIAN != 0 {
            Endian::Little
        } else {
            Endian::Big
        };
        let msg_type = data[7];
        let size = u32::from_be_bytes([data[8], data[9], data[10], data[11]]) as usize;
        if 12 + size > MAX_FRAME_LEN {
            return Err(GiopError(format!(
                "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                12 + size
            )));
        }
        if data.len() < 12 + size {
            return Err(GiopError(format!(
                "truncated body: header says {size}, have {}",
                data.len() - 12
            )));
        }
        let payload = &data[12..12 + size];
        let mut r = CdrReader::new(payload, endian);
        let mut trace = None;
        let mut deadline = None;
        let kind = match msg_type {
            0 => {
                let request_id = r.get_u32().map_err(wrap)?;
                let response_expected = r.get_u32().map_err(wrap)? != 0;
                let object_key = r.get_bytes().map_err(wrap)?.to_vec();
                let operation = String::from_utf8_lossy(r.get_bytes().map_err(wrap)?).into_owned();
                let contexts = r.get_u32().map_err(wrap)?;
                if contexts > 2 {
                    return Err(GiopError(format!(
                        "unsupported service context count {contexts}"
                    )));
                }
                for _ in 0..contexts {
                    let id = r.get_u32().map_err(wrap)?;
                    match id {
                        TRACE_CONTEXT_ID => {
                            let mut trace_id = 0u128;
                            for _ in 0..4 {
                                trace_id =
                                    (trace_id << 32) | u128::from(r.get_u32().map_err(wrap)?);
                            }
                            let span_hi = r.get_u32().map_err(wrap)?;
                            let span_lo = r.get_u32().map_err(wrap)?;
                            let flags = r.get_u32().map_err(wrap)?;
                            trace = Some(TraceContext {
                                trace_id,
                                span_id: (u64::from(span_hi) << 32) | u64::from(span_lo),
                                sampled: flags & TRACE_FLAG_SAMPLED != 0,
                            });
                        }
                        DEADLINE_CONTEXT_ID => {
                            let hi = r.get_u32().map_err(wrap)?;
                            let lo = r.get_u32().map_err(wrap)?;
                            let flags = r.get_u32().map_err(wrap)?;
                            let budget = (u64::from(hi) << 32) | u64::from(lo);
                            deadline = Some(WireDeadline::measured(
                                (budget != DEADLINE_NONE).then_some(budget),
                                flags & DEADLINE_FLAG_SHEDDABLE != 0,
                            ));
                        }
                        other => {
                            return Err(GiopError(format!(
                                "unknown service context id {other:#x}"
                            )));
                        }
                    }
                }
                MessageKind::Request {
                    request_id,
                    response_expected,
                    object_key,
                    operation,
                }
            }
            1 => {
                let request_id = r.get_u32().map_err(wrap)?;
                let status = ReplyStatus::from_u32(r.get_u32().map_err(wrap)?)?;
                MessageKind::Reply { request_id, status }
            }
            2 => {
                let protocol = r.get_u32().map_err(wrap)?;
                let verdict = HandshakeVerdict::from_u32(r.get_u32().map_err(wrap)?)?;
                let mut interface_fp = 0u128;
                for _ in 0..4 {
                    interface_fp = (interface_fp << 32) | u128::from(r.get_u32().map_err(wrap)?);
                }
                let rules_hi = r.get_u32().map_err(wrap)?;
                let rules_lo = r.get_u32().map_err(wrap)?;
                MessageKind::Hello {
                    info: HandshakeInfo {
                        protocol,
                        interface_fp,
                        rules_fp: (u64::from(rules_hi) << 32) | u64::from(rules_lo),
                    },
                    verdict,
                }
            }
            3 => {
                let request_id = r.get_u32().map_err(wrap)?;
                let role = r.get_u32().map_err(wrap)?;
                if role > 1 {
                    return Err(GiopError(format!("bad artifact frame role {role}")));
                }
                MessageKind::Artifact {
                    request_id,
                    reply: role == 1,
                }
            }
            other => return Err(GiopError(format!("unknown message type {other}"))),
        };
        let consumed = payload.len() - r.remaining();
        let body_start = consumed.div_ceil(8) * 8;
        let body = payload.get(body_start..).unwrap_or(&[]).to_vec();
        Ok(Message {
            endian,
            kind,
            trace,
            deadline,
            body,
        })
    }

    /// Expected total frame length given at least 12 header bytes, for
    /// stream reassembly.
    ///
    /// # Errors
    ///
    /// Returns [`GiopError`] if fewer than 12 bytes are supplied, the
    /// magic is wrong, or the declared size exceeds [`MAX_FRAME_LEN`]
    /// (so receivers reject forged lengths before allocating).
    pub fn frame_len(header: &[u8]) -> Result<usize, GiopError> {
        if header.len() < 12 {
            return Err(GiopError("need 12 bytes to size a frame".into()));
        }
        if &header[0..4] != MAGIC {
            return Err(GiopError("bad magic (not a GIOP message)".into()));
        }
        let size = u32::from_be_bytes([header[8], header[9], header[10], header[11]]) as usize;
        if 12 + size > MAX_FRAME_LEN {
            return Err(GiopError(format!(
                "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                12 + size
            )));
        }
        Ok(12 + size)
    }
}

fn wrap(e: crate::cdr::CdrError) -> GiopError {
    GiopError(e.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip_both_endians() {
        for endian in [Endian::Little, Endian::Big] {
            let m = Message::request(7, true, b"obj-42".to_vec(), "fitter", endian, vec![1, 2, 3]);
            let bytes = m.to_bytes();
            assert_eq!(Message::frame_len(&bytes).unwrap(), bytes.len());
            let parsed = Message::from_bytes(&bytes).unwrap();
            assert_eq!(parsed, m);
        }
    }

    #[test]
    fn trace_context_round_trips_both_endians() {
        for endian in [Endian::Little, Endian::Big] {
            for sampled in [true, false] {
                let t = TraceContext {
                    trace_id: 0x0011_2233_4455_6677_8899_AABB_CCDD_EEFF,
                    span_id: 0x1234_5678_9ABC_DEF0,
                    sampled,
                };
                let m = Message::request(9, true, b"obj".to_vec(), "echo", endian, vec![7; 21])
                    .with_trace(t);
                let bytes = m.to_bytes();
                assert_eq!(Message::frame_len(&bytes).unwrap(), bytes.len());
                let parsed = Message::from_bytes(&bytes).unwrap();
                assert_eq!(parsed.trace, Some(t));
                assert_eq!(parsed, m);
            }
        }
    }

    #[test]
    fn traceless_requests_still_round_trip() {
        // Operation names of every length 0..8 exercise the padding
        // before the service-context count.
        for len in 0..8 {
            let op: String = "abcdefgh"[..len].to_string();
            let m = Message::request(1, true, b"k".to_vec(), op, Endian::Little, vec![3; 5]);
            let parsed = Message::from_bytes(&m.to_bytes()).unwrap();
            assert_eq!(parsed.trace, None);
            assert_eq!(parsed, m);
        }
    }

    #[test]
    fn unknown_service_context_rejected() {
        let m = Message::request(1, true, vec![], "op", Endian::Little, vec![]).with_trace(
            TraceContext {
                trace_id: 1,
                span_id: 2,
                sampled: true,
            },
        );
        let mut bytes = m.to_bytes();
        // The context id sits right after the count; corrupt it.
        let needle = TRACE_CONTEXT_ID.to_le_bytes();
        let pos = bytes
            .windows(4)
            .position(|w| w == needle)
            .expect("context id in frame");
        bytes[pos..pos + 4].copy_from_slice(&0xFFu32.to_le_bytes());
        let err = Message::from_bytes(&bytes).unwrap_err();
        assert!(err.0.contains("service context"), "{err}");
    }

    #[test]
    fn reply_round_trip() {
        let m = Message::reply(7, ReplyStatus::NoException, Endian::Little, vec![9, 9]);
        let parsed = Message::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(parsed, m);
        let m = Message::reply(8, ReplyStatus::SystemException, Endian::Big, vec![]);
        assert_eq!(Message::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn oneway_requests() {
        let m = Message::request(0, false, vec![], "notify", Endian::Little, vec![]);
        let parsed = Message::from_bytes(&m.to_bytes()).unwrap();
        let MessageKind::Request {
            response_expected, ..
        } = parsed.kind
        else {
            panic!()
        };
        assert!(!response_expected);
    }

    #[test]
    fn body_alignment_is_origin_stable() {
        // The body must start on an 8-byte boundary within the payload so
        // CDR alignment computed against offset 0 stays valid.
        let m = Message::request(1, true, b"k".to_vec(), "op", Endian::Little, vec![0xAA; 16]);
        let bytes = m.to_bytes();
        let parsed = Message::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.body, vec![0xAA; 16]);
    }

    #[test]
    fn forged_huge_length_header_rejected_before_allocation() {
        // A syntactically valid header whose size field would make the
        // receiver allocate ~4 GiB: both sizing paths must reject it.
        let mut forged = vec![0u8; 12];
        forged[0..4].copy_from_slice(b"GIOP");
        forged[4] = 1; // version
        forged[6] = 0x01; // little-endian flag
        forged[7] = 0; // Request
        forged[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = Message::frame_len(&forged).unwrap_err();
        assert!(err.0.contains("cap"), "{err}");
        let err = Message::from_bytes(&forged).unwrap_err();
        assert!(err.0.contains("cap"), "{err}");
        // A frame exactly at the cap is still sized (the cap bounds
        // allocation, it does not shrink the protocol).
        forged[8..12].copy_from_slice(&((MAX_FRAME_LEN - 12) as u32).to_be_bytes());
        assert_eq!(Message::frame_len(&forged).unwrap(), MAX_FRAME_LEN);
    }

    #[test]
    fn to_bytes_reserves_exactly_once() {
        // The frame length is computed arithmetically up front, so the
        // output buffer is sized exactly and never reallocates — and a
        // pooled buffer reused across messages stays at its warmed
        // capacity.
        for m in [
            Message::request(
                7,
                true,
                b"obj-42".to_vec(),
                "fitter",
                Endian::Little,
                vec![1; 37],
            ),
            Message::request(8, true, b"key".to_vec(), "op", Endian::Big, vec![]),
            Message::request(9, true, b"key".to_vec(), "op", Endian::Little, vec![2; 5])
                .with_trace(TraceContext {
                    trace_id: 42,
                    span_id: 7,
                    sampled: true,
                }),
            Message::reply(7, ReplyStatus::NoException, Endian::Little, vec![9; 111]),
        ] {
            let bytes = m.to_bytes();
            assert_eq!(bytes.capacity(), bytes.len(), "exact single reservation");
            let mut pooled = Vec::new();
            m.to_bytes_into(&mut pooled);
            assert_eq!(pooled, bytes);
            let cap = pooled.capacity();
            let ptr = pooled.as_ptr();
            m.to_bytes_into(&mut pooled);
            assert_eq!(pooled.capacity(), cap, "warmed buffer does not grow");
            assert_eq!(pooled.as_ptr(), ptr, "warmed buffer does not move");
        }
    }

    #[test]
    fn renumbered_frames_match_a_renumbered_copy() {
        let trace = TraceContext {
            trace_id: 0x0011_2233_4455_6677_8899_AABB_CCDD_EEFF,
            span_id: 0x1234_5678_9ABC_DEF0,
            sampled: true,
        };
        let deadline = WireDeadline::new(Duration::from_micros(987_654), true);
        for endian in [Endian::Little, Endian::Big] {
            let request =
                Message::request(7, true, b"obj-42".to_vec(), "fitter", endian, vec![1; 37]);
            let mut messages = vec![
                Message::reply(8, ReplyStatus::NoException, endian, vec![9; 111]),
                Message::artifact(9, false, endian, b"MBAR-payload".to_vec()),
                Message::artifact(10, true, endian, vec![]),
            ];
            for (with_trace, with_deadline) in
                [(false, false), (true, false), (false, true), (true, true)]
            {
                let mut m = request.clone();
                m.trace = with_trace.then_some(trace);
                m.deadline = with_deadline.then_some(deadline);
                messages.push(m);
            }
            for m in &messages {
                for id in [0, 1, 0xBEEF, u32::MAX] {
                    let mut renumbered = m.clone();
                    renumbered.set_request_id(id);
                    assert_eq!(
                        m.to_bytes_with_id(id, None),
                        renumbered.to_bytes(),
                        "{m:?} as {id}"
                    );
                }
            }
        }
        // Handshake frames carry no request id and serialise unchanged.
        let hello = Message::hello(
            HandshakeInfo::new(1, 2),
            HandshakeVerdict::Propose,
            Endian::Big,
        );
        assert_eq!(hello.to_bytes_with_id(5, None), hello.to_bytes());
    }

    #[test]
    fn hello_round_trip_both_endians() {
        for endian in [Endian::Little, Endian::Big] {
            for verdict in [
                HandshakeVerdict::Propose,
                HandshakeVerdict::Accept,
                HandshakeVerdict::Reject,
            ] {
                let info = HandshakeInfo::new(
                    0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210,
                    0xDEAD_BEEF_CAFE_F00D,
                );
                let m = Message::hello(info, verdict, endian);
                let bytes = m.to_bytes();
                assert_eq!(Message::frame_len(&bytes).unwrap(), bytes.len());
                assert_eq!(Message::from_bytes(&bytes).unwrap(), m);
            }
        }
    }

    #[test]
    fn retired_verdict_two_decodes_as_accept() {
        for endian in [Endian::Little, Endian::Big] {
            let info = HandshakeInfo::new(0xF17AA, 7);
            let m = Message::hello(info, HandshakeVerdict::Accept, endian);
            let with_verdict = |v: u32| {
                let mut bytes = m.to_bytes();
                // The verdict follows the 12-byte header and the
                // protocol revision.
                bytes[16..20].copy_from_slice(&match endian {
                    Endian::Little => v.to_le_bytes(),
                    Endian::Big => v.to_be_bytes(),
                });
                bytes
            };
            assert_eq!(Message::from_bytes(&with_verdict(1)).unwrap(), m);
            assert_eq!(Message::from_bytes(&with_verdict(2)).unwrap(), m);
            let err = Message::from_bytes(&with_verdict(4)).unwrap_err();
            assert!(err.0.contains("unknown handshake verdict 4"), "{err}");
        }
    }

    #[test]
    fn overloaded_reply_round_trips() {
        let m = Message::reply(5, ReplyStatus::Overloaded, Endian::Little, vec![1, 2]);
        assert_eq!(Message::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn deadline_expired_reply_round_trips() {
        let m = Message::reply(6, ReplyStatus::DeadlineExpired, Endian::Big, vec![3]);
        assert_eq!(Message::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn deadline_slot_round_trips_both_endians() {
        for endian in [Endian::Little, Endian::Big] {
            for sheddable in [true, false] {
                let d = WireDeadline::new(Duration::from_micros(123_456), sheddable);
                let m = Message::request(4, true, b"obj".to_vec(), "echo", endian, vec![9; 13])
                    .with_deadline(d);
                let bytes = m.to_bytes();
                assert_eq!(Message::frame_len(&bytes).unwrap(), bytes.len());
                let parsed = Message::from_bytes(&bytes).unwrap();
                assert_eq!(parsed.deadline, Some(d));
                assert_eq!(
                    parsed.deadline.unwrap().budget(),
                    Some(Duration::from_micros(123_456))
                );
                assert_eq!(parsed, m);
            }
        }
    }

    #[test]
    fn trace_and_deadline_slots_coexist() {
        let t = TraceContext {
            trace_id: 0xAABB,
            span_id: 0xCCDD,
            sampled: true,
        };
        let d = WireDeadline::new(Duration::from_millis(100), true);
        for endian in [Endian::Little, Endian::Big] {
            let m = Message::request(11, true, b"k".to_vec(), "op", endian, vec![7; 9])
                .with_trace(t)
                .with_deadline(d);
            let bytes = m.to_bytes();
            assert_eq!(Message::frame_len(&bytes).unwrap(), bytes.len());
            let parsed = Message::from_bytes(&bytes).unwrap();
            assert_eq!(parsed.trace, Some(t));
            assert_eq!(parsed.deadline, Some(d));
            assert_eq!(parsed, m);
        }
    }

    #[test]
    fn artifact_frames_round_trip_both_endians() {
        for endian in [Endian::Little, Endian::Big] {
            for reply in [false, true] {
                let m = Message::artifact(42, reply, endian, b"MBAR-payload".to_vec());
                let bytes = m.to_bytes();
                assert_eq!(Message::frame_len(&bytes).unwrap(), bytes.len());
                let parsed = Message::from_bytes(&bytes).unwrap();
                assert_eq!(parsed, m);
                assert_eq!(parsed.body, b"MBAR-payload");
            }
        }
    }

    #[test]
    fn artifact_frame_with_forged_role_rejected() {
        let m = Message::artifact(1, false, Endian::Little, vec![]);
        let mut bytes = m.to_bytes();
        // The role word sits right after the request id in the header.
        bytes[16..20].copy_from_slice(&7u32.to_le_bytes());
        let err = Message::from_bytes(&bytes).unwrap_err();
        assert!(err.0.contains("artifact frame role"), "{}", err.0);
    }

    #[test]
    fn sheddable_only_slot_carries_no_budget() {
        let m = Message::request(2, true, b"k".to_vec(), "op", Endian::Little, vec![])
            .with_deadline(WireDeadline::sheddable_only());
        let parsed = Message::from_bytes(&m.to_bytes()).unwrap();
        let d = parsed.deadline.unwrap();
        assert_eq!(d.budget(), None);
        assert!(d.sheddable);
    }

    #[test]
    fn three_service_contexts_rejected() {
        // Craft a frame whose context count claims 3: parsers must
        // refuse before trying to read unknown slots.
        let m = Message::request(1, true, vec![], "op", Endian::Little, vec![]);
        let mut bytes = m.to_bytes();
        // Header layout for an empty key and a 2-byte op name:
        // request_id(4) + response_expected(4) + key len(4) + op len(4)
        // + "op"(2) + pad(2) puts the context count at payload offset
        // 20, i.e. frame offset 32.
        bytes[32..36].copy_from_slice(&3u32.to_le_bytes());
        let err = Message::from_bytes(&bytes).unwrap_err();
        assert!(err.0.contains("service context count"), "{err}");
    }

    #[test]
    fn handshake_verdict_matrix() {
        let mine = HandshakeInfo::new(10, 20);
        assert_eq!(mine.evaluate(&mine), HandshakeVerdict::Accept);
        // Only the rule set differs: the wire types agree, so accept.
        assert_eq!(
            mine.evaluate(&HandshakeInfo::new(10, 99)),
            HandshakeVerdict::Accept
        );
        // Interface skew: reject.
        assert_eq!(
            mine.evaluate(&HandshakeInfo::new(11, 20)),
            HandshakeVerdict::Reject
        );
        // Protocol skew: reject even with matching fingerprints.
        let old = HandshakeInfo {
            protocol: PROTOCOL_VERSION + 1,
            interface_fp: 10,
            rules_fp: 20,
        };
        assert_eq!(mine.evaluate(&old), HandshakeVerdict::Reject);
    }

    #[test]
    fn request_ids_are_unique_and_increasing() {
        let ids = RequestIds::new();
        let a = ids.next();
        let b = ids.next();
        let c = ids.next();
        assert!(a >= 1);
        assert!(a < b && b < c);
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(Message::from_bytes(b"GIOP").is_err());
        assert!(Message::from_bytes(b"NOPE00000000").is_err());
        let m = Message::reply(1, ReplyStatus::NoException, Endian::Little, vec![1, 2, 3]);
        let mut bytes = m.to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(Message::from_bytes(&bytes).is_err());
        assert!(Message::frame_len(&bytes[..4]).is_err());
    }
}
