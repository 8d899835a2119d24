//! Wire formats for network-enabled stubs.
//!
//! "Distributed interactions may use IIOP or any other wire format"
//! (paper §4). This crate provides:
//!
//! - [`cdr`] — an Mtype-guided Common Data Representation codec in the
//!   GIOP/IIOP style: size-aligned primitives relative to the stream
//!   start, both byte orders, `u32`-prefixed sequences for the canonical
//!   recursive collections, `u32` discriminants for Choices;
//! - [`mbp`] — the *Mockingbird protocol*: a compact self-describing
//!   tagged encoding used for `Dynamic` (Any-like) payloads and as the
//!   native format of the messaging runtime;
//! - [`giop`] — GIOP-style message framing (magic, version, flags,
//!   Request/Reply headers) so remote invocations travel in recognisable
//!   envelopes.
//!
//! The CDR codec is *structural*, not certified-interoperable: it obeys
//! CDR's alignment and endianness disciplines so the performance shape
//! of marshalling is faithful (DESIGN.md §2).

pub mod cdr;
pub mod giop;
pub mod mbp;
pub mod native;
pub mod program;

/// Upper bound on value/type nesting the codecs and the fused executors
/// will follow before returning an error. Shared by [`cdr`], [`mbp`] and
/// [`program`] so hostile, deeply nested payloads fail uniformly instead
/// of risking stack exhaustion. 512 leaves generous headroom for real
/// messages while staying far below what debug-build recursion frames
/// can fit in a 2 MiB thread stack (the previous 2048 guard fired only
/// after the stack was already gone).
pub const MAX_NESTING_DEPTH: usize = 512;

/// Upper bound on the sequence elements of zero wire width (`Unit`,
/// records of units) in one CDR stream. Every other element owns at
/// least one byte of the stream, so the [`cdr`] decoders refuse
/// sequence counts that add up to more than the stream's length plus
/// this cap, and the encoders refuse a stream with more zero-width
/// elements than this: every value an encoder accepts decodes again,
/// and a small body can no longer ask for 2^28 values.
pub const MAX_ZERO_WIDTH_SEQUENCE: usize = 1 << 16;

pub use cdr::{CdrError, CdrReader, CdrWriter};
pub use giop::{
    GiopError, HandshakeInfo, HandshakeVerdict, Message, MessageKind, ReplyStatus, RequestIds,
    WireDeadline, DEADLINE_CONTEXT_ID, MAX_FRAME_LEN, PROTOCOL_VERSION, TRACE_CONTEXT_ID,
};
pub use mockingbird_obs::TraceContext;
pub use native::{
    NativeDecodeFn, NativeEncodeFn, NativeEncodeInvocationFn, NativeKey, NativeProgramKind,
    NativeStub, NativeStubRegistry, ProgramSource,
};
pub use program::{
    nominal_fingerprint, FallbackKind, ProgramCache, ProgramCodecError, ProgramStats, Unsupported,
    WireProgram,
};
