//! The Mockingbird internal type model (*Mtypes*).
//!
//! Mockingbird reconciles type declarations written in different languages
//! by first translating each declaration into a language-neutral model
//! called the **Mtype system** (Table 1 of the paper). This crate defines
//! that model: the eight Mtype kinds, an arena-based graph representation
//! that supports the cyclic structure produced by recursive declarations,
//! and the canonicalisation helpers (flattening, structural hashing) that
//! the [comparer's] isomorphism rules rely on.
//!
//! The eight kinds are:
//!
//! | Mtype       | Models                                                  |
//! |-------------|---------------------------------------------------------|
//! | `Character` | character types (`char`, `wchar_t`), by glyph repertoire|
//! | `Integer`   | integral types, by value range                          |
//! | `Real`      | floating point types, by precision and exponent         |
//! | `Unit`      | `void` and null                                         |
//! | `Record`    | ordered heterogeneous aggregates (`struct`, fixed arrays, parameter lists) |
//! | `Choice`    | disjoint unions, nullable pointers, method selection    |
//! | `Recursive` | self-referential types and indefinite-size collections  |
//! | `Port`      | functions, interfaces, message targets                  |
//!
//! A ninth kind, [`MtypeKind::Dynamic`], implements the paper's §6
//! extension ("a dynamic type construct of our own which is similar to
//! \[CORBA\] `Any`").
//!
//! # Example
//!
//! Build the Mtype of the paper's `fitter` interface,
//! `port(Record(L, port(Record(Record(Real,Real), Record(Real,Real)))))`:
//!
//! ```
//! use mockingbird_mtype::{MtypeGraph, RealPrecision};
//!
//! let mut g = MtypeGraph::new();
//! let real = g.real(RealPrecision::SINGLE);
//! let point = g.record(vec![real, real]);
//! let line = g.record(vec![point, point]);
//! let points = g.list_of(point);
//! let reply = g.port(line);
//! let invocation = g.record(vec![points, reply]);
//! let fitter = g.port(invocation);
//! assert_eq!(
//!     g.display(fitter).to_string(),
//!     "port(Record(Rec#L(Choice(Unit, Record(Record(Real{24,8}, Real{24,8}), #L))), \
//!      port(Record(Record(Real{24,8}, Real{24,8}), Record(Real{24,8}, Real{24,8})))))"
//! );
//! ```
//!
//! [comparer's]: https://example.invalid/mockingbird

pub mod canon;
pub mod display;
pub mod dot;
pub mod graph;
pub mod kind;

pub use display::MtypeDisplay;
pub use graph::{MtypeGraph, MtypeId, MtypeNode};
pub use kind::{IntRange, MtypeKind, RealPrecision, Repertoire};

#[cfg(test)]
mod proptests;
