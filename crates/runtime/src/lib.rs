//! The Mockingbird stub runtime.
//!
//! Generated stubs link against "a runtime system to provide a bridge
//! between heterogeneous components" (paper §3). This crate is that
//! runtime:
//!
//! - [`error::RuntimeError`] — the failure vocabulary shared by stubs;
//! - [`dispatch`] — servants (invocable objects), wire-typed operation
//!   tables, and the GIOP request dispatcher;
//! - [`transport`] — connections carrying framed messages: an in-memory
//!   loopback (marshalling without sockets) and a real TCP transport
//!   whose sockets are driven by the [`reactor`];
//! - [`reactor`] — the readiness-driven I/O behind the TCP transport:
//!   resumable frame state machines, the server's poller threads (the
//!   thread that reads a request runs it), and a waiter table keyed by
//!   request id through which each client caller reads its own reply
//!   and times out on its own clock;
//! - [`sync`] — poison-recovering lock accessors, so one panicking
//!   worker cannot cascade `PoisonError` panics across connections;
//! - [`proxy::RemoteRef`] — the client side of a remote object: encodes
//!   arguments by Mtype, frames a Request, awaits the Reply;
//! - [`pool::ConnectionPool`] — a dynamic set of multiplexed
//!   connections shared round-robin, reconnecting lazily after
//!   transport failures; [`pool::BufferPool`] — recycled marshal
//!   buffers so the fused data plane encodes without allocating once
//!   warmed;
//! - [`resolver`] — location-transparent naming: a [`Resolver`] maps an
//!   [`ObjectName`] (name + interface fingerprint) to the replicas
//!   currently serving it, feeding the pool's endpoint set; the fixed
//!   address list survives as the trivial [`StaticResolver`];
//! - [`options`] — per-call deadlines and retry policies;
//! - [`metrics`] — per-node [`MetricsRegistry`] handles: counters,
//!   per-operation latency histograms, a span log for sampled traces,
//!   and Prometheus/JSON rendering. Every [`Dispatcher`],
//!   [`pool::ConnectionPool`], and connection owns (or shares) one.

pub mod artifacts;
pub mod breaker;
pub mod budget;
pub mod chaos;
pub mod dispatch;
pub mod error;
pub mod limiter;
pub mod metrics;
pub mod options;
pub mod pool;
pub mod proxy;
pub mod reactor;
pub mod resolver;
pub mod sync;
pub mod transport;

pub use artifacts::{fetch_artifacts, record_store_stats, warm_store_from_peers, FetchOutcome};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use budget::RetryBudget;
pub use chaos::{ChaosConfig, ChaosConnection, ChaosSchedule, Fault, FaultRecord};
pub use dispatch::{Dispatcher, Servant, WireOp, WireServant};
pub use error::RuntimeError;
pub use limiter::{Admission, AimdLimiter};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use options::{CallOptions, Criticality, HedgePolicy, RetryPolicy};
pub use pool::{BufferPool, ConnectionPool, Connector, PoolBuilder, RequestEncoder};
pub use proxy::RemoteRef;
pub use reactor::{FrameReader, FrameWriter};
pub use resolver::{ObjectName, ResolvedEndpoint, Resolver, StaticResolver};
pub use sync::{LockExt, RwLockExt};
pub use transport::{
    Connection, InMemoryConnection, MultiplexedConnection, ServerConfig, TcpServer,
};

pub use mockingbird_obs::{
    Histogram, HistogramSnapshot, SpanKind, SpanLog, SpanRecord, TraceContext,
};

/// The names most programs need, in one import: builders for call,
/// retry, hedge, and server options, the pool and server types, and
/// the observability handles.
pub mod prelude {
    pub use crate::budget::RetryBudget;
    pub use crate::dispatch::{Dispatcher, WireOp, WireServant};
    pub use crate::metrics::MetricsRegistry;
    pub use crate::options::{CallOptions, Criticality, HedgePolicy, RetryPolicy};
    pub use crate::pool::{ConnectionPool, PoolBuilder};
    pub use crate::proxy::RemoteRef;
    pub use crate::resolver::{ObjectName, ResolvedEndpoint, Resolver, StaticResolver};
    pub use crate::transport::{Connection, ServerConfig, TcpServer};
    pub use mockingbird_obs::{HistogramSnapshot, SpanKind, SpanRecord, TraceContext};
}
