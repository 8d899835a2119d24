//! Deterministic corpora for the paper's §5 experience studies.
//!
//! The paper's trials used proprietary code bases (the VisualAge C++
//! compiler interface, the Lotus Notes C++ API, a collaboration
//! framework). These generators synthesise corpora with the quoted
//! shapes — class counts, interconnection density, method volumes — so
//! the scaling and feasibility studies can run (DESIGN.md §2):
//!
//! - [`visualage`](mod@visualage) — E1: "500 highly inter-related
//!   classes with a total of several thousand methods", and the
//!   "miniature version ... with twelve carefully chosen classes";
//! - [`notes_api`] — E2: "a small, but representative, set of 30
//!   classes" of a C++ groupware API, paired with the desired Java
//!   interface declarations;
//! - [`collaboration`] — E3: "the 21 message types they needed as Java
//!   classes that indirectly incorporated 22 other application-specific
//!   Java classes";
//! - [`random`] — seeded random Mtypes, isomorphic variants and
//!   perturbations, and value sampling for the comparer and wire
//!   benchmarks.

pub mod collab;
pub mod marshal;
pub mod notes;
pub mod random;
pub mod visualage;

pub use collab::collaboration;
pub use marshal::{
    choice_heavy_pair, deep_list_pair, fitter_pair, marshal_corpus, property_pair, MarshalCorpus,
};
pub use notes::notes_api;
pub use random::{isomorphic_variant, perturbed_variant, random_mtype, sample_value};
pub use visualage::visualage;
