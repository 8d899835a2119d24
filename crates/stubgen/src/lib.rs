//! The Mockingbird *Stub Generator* (paper §3, §4).
//!
//! "When the Comparer asserts that two types match, the Stub Generator
//! produces code that may be compiled and linked with applications and a
//! runtime system to provide a bridge between heterogeneous components."
//!
//! Two complementary outputs:
//!
//! - [`stub`] — *executable* stubs: [`stub::FunctionStub`] adapts a call
//!   through a coercion plan (argument conversion, target invocation,
//!   result back-conversion), [`stub::InterfaceStub`] adds method
//!   selection across matched `port(Choice(...))` Mtypes,
//!   [`stub::RemoteStub`] runs the same conversions against a
//!   [`RemoteRef`](mockingbird_runtime::RemoteRef) over a wire
//!   transport, and [`stub::MessagingStubs`] builds the §5
//!   collaboration study's send/receive pairs;
//! - [`emit`] — stub *source text*: C client stubs, JNI bridge code for
//!   local Java↔C (the paper's local-stub output), Java caller stubs,
//!   and Rust adapters, each derived from the same coercion plan;
//! - [`native`] — the second Futamura projection: cached wire programs
//!   specialised into straight-line native Rust marshal stubs,
//!   registered by layout fingerprint and resolved ahead of the opcode
//!   VM at call time.
//!
//! The executable stubs are the behavioural ground truth; the emitters
//! show the code a build system would compile.

pub mod emit;
pub mod native;
pub mod shape;
pub mod stub;

pub use native::{emit_native_module, native_keys_for, EmitError};
pub use shape::{FnShape, ShapeError};
pub use stub::{FunctionStub, InterfaceStub, MessagingStubs, RemoteStub, StubError};
