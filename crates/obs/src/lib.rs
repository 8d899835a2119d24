//! Observability primitives for the mockingbird runtime.
//!
//! This crate is dependency-free and provides three building blocks:
//!
//! * [`Histogram`] — a lock-free, log-bucketed latency histogram
//!   (HDR-style: log2 tiers subdivided into 16 linear sub-buckets,
//!   bounding relative quantile error at ~6%). Recording is a handful
//!   of relaxed atomic adds; snapshots are plain data and merge
//!   losslessly, so per-operation histograms from many nodes can be
//!   aggregated offline.
//! * [`TraceContext`] — a 128-bit trace id plus 64-bit span id and a
//!   sampled flag, propagated in-band inside the GIOP frame header so
//!   one logical call keeps one trace id across retries, hedged
//!   duplicates and the server's dispatch worker.
//! * [`SpanLog`] — a bounded ring of [`SpanRecord`]s capturing sampled
//!   slow calls (timing, endpoint, breaker state, bytes moved) for
//!   after-the-fact inspection.

pub mod histogram;
pub mod span;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use span::{SpanKind, SpanLog, SpanRecord};
pub use trace::TraceContext;
