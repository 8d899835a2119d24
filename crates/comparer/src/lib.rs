//! The Mockingbird *Comparer* (paper §3, §4).
//!
//! Given two Mtypes, the Comparer decides whether they are **equivalent**
//! (a two-way converter can be generated) or whether one is a **subtype**
//! of the other (a one-way converter can be generated). The core is the
//! Amadio–Cardelli coinductive algorithm for recursive types, extended
//! with *isomorphism rules*:
//!
//! - **associativity** of `Record` and `Choice` — nested aggregates
//!   flatten, so `Record(Integer, Record(Real, Character))` matches
//!   `Record(Character, Real, Integer)`;
//! - **commutativity** of `Record` and `Choice` — children match under
//!   permutation (recorded in the [`Correspondence`] so stubs reorder
//!   values);
//! - **unit elimination** — `Unit` children of Records vanish;
//! - **singleton choice elimination** — `Choice(τ)` is transparent.
//!
//! Successful comparisons produce a [`Correspondence`]: the structural
//! matching (permutations, alternative maps, leaf coercions) the Stub
//! Generator compiles into a coercion plan. Failures produce a
//! [`Mismatch`] with diagnostics.
//!
//! The paper leaves completeness and decidability of comparison under
//! rich isomorphism sets open (§6 and \[3\] therein); like the prototype,
//! this comparer is *sound but deliberately incomplete*: a fingerprint
//! pre-filter may reject exotic equivalences involving structurally
//! equal but unshared alternatives inside cycles.
//!
//! # Example
//!
//! ```
//! use mockingbird_mtype::{MtypeGraph, IntRange, RealPrecision, Repertoire};
//! use mockingbird_comparer::{Comparer, Mode, RuleSet};
//!
//! let mut g = MtypeGraph::new();
//! let i = g.integer(IntRange::signed_bits(32));
//! let r = g.real(RealPrecision::SINGLE);
//! let c = g.character(Repertoire::Unicode);
//! let inner = g.record(vec![r, c]);
//! let nested = g.record(vec![i, inner]);
//! let flat = g.record(vec![c, r, i]);
//!
//! let corr = Comparer::new(&g, &g)
//!     .compare(nested, flat, Mode::Equivalence)
//!     .expect("assoc+comm make these isomorphic");
//! assert_eq!(corr.entries.len(), 4); // the record pair + three leaf pairs
//!
//! // With the isomorphism rules disabled (pure Amadio–Cardelli), the
//! // same pair is rejected:
//! assert!(Comparer::with_rules(&g, &g, RuleSet::strict())
//!     .compare(nested, flat, Mode::Equivalence)
//!     .is_err());
//! ```

pub mod cache;
pub mod compare;
pub mod correspondence;
pub mod diagnose;
pub mod rules;

pub use cache::{CacheKey, CacheStats, CompareCache, Verdict};
pub use compare::{resolve_transparent, Comparer, Mode};
pub use correspondence::{Correspondence, Entry, PrimCoercion, RecordFlatten};
pub use diagnose::Mismatch;
pub use rules::RuleSet;

#[cfg(test)]
mod proptests;
