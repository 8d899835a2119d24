//! # Mockingbird
//!
//! A reproduction of *"Mockingbird: Flexible Stub Compilation from Pairs
//! of Declarations"* (IBM T.J. Watson Research Center, ICDCS 1999).
//!
//! Mockingbird compiles each stub from **two** declarations — one per
//! side of a language or process boundary — instead of imposing types
//! generated from a single IDL. Declarations may be C/C++, Java (class
//! files or source), CORBA IDL, or saved project files; they are
//! translated into the language-neutral **Mtype** model, compared by an
//! Amadio–Cardelli algorithm extended with isomorphism rules, and the
//! resulting coercion plan drives generated stubs — local, networked
//! (GIOP/CDR over TCP), or message-passing.
//!
//! This crate is the facade: the [`Session`] type mirrors the tool
//! anatomy of the paper's Fig. 6 (parsers → annotations → Comparer →
//! Stub Generator → project files), and the sub-crates are re-exported
//! under [`mtype`], [`comparer`], [`plan`], and friends.
//!
//! ## Quickstart — the paper's fitter example
//!
//! ```
//! use mockingbird::{Mode, Session};
//!
//! let mut s = Session::new();
//! s.load_c("typedef float point[2];
//!           void fitter(point pts[], int count, point *start, point *end);")?;
//! s.load_java(
//!     "public class Point { private float x; private float y; }
//!      public class Line { private Point start; private Point end; }
//!      public class PointVector extends java.util.Vector;
//!      public interface JavaIdeal { Line fitter(PointVector pts); }",
//! )?;
//! s.annotate(
//!     "annotate fitter.param(pts) length=param(count)
//!      annotate fitter.param(start) direction=out
//!      annotate fitter.param(end) direction=out
//!      annotate Line.field(start) non-null no-alias
//!      annotate Line.field(end) non-null no-alias
//!      annotate PointVector element=Point non-null
//!      annotate JavaIdeal.method(fitter).param(pts) non-null
//!      annotate JavaIdeal.method(fitter).ret non-null",
//! )?;
//! let plan = s.compare("JavaIdeal", "fitter", Mode::Equivalence)?;
//! let stub = s.function_stub("JavaIdeal", "fitter")?;
//! assert!(plan.len() > 0);
//! # Ok::<(), mockingbird::SessionError>(())
//! ```

pub mod batch;
pub mod fixture_stubs;
pub mod session;

pub use mockingbird_baselines as baselines;
pub use mockingbird_comparer as comparer;
pub use mockingbird_corpus as corpus;
pub use mockingbird_lang_c as lang_c;
pub use mockingbird_lang_idl as lang_idl;
pub use mockingbird_lang_java as lang_java;
pub use mockingbird_mesh as mesh;
pub use mockingbird_mtype as mtype;
pub use mockingbird_obs as obs;
pub use mockingbird_plan as plan;
pub use mockingbird_runtime as runtime;
pub use mockingbird_stubgen as stubgen;
pub use mockingbird_stype as stype;
pub use mockingbird_values as values;
pub use mockingbird_wire as wire;

pub use batch::{
    BatchCompiler, BatchOptions, BatchReport, BatchStats, NamedBatchReport, NamedPairReport,
    PairOutcome, PairReport, PhaseStats,
};
pub use fixture_stubs::{emit_fixture_stubs, FixtureStubs};
pub use mockingbird_artifact as artifact;
pub use mockingbird_comparer::{CacheStats, CompareCache, Mode};
pub use mockingbird_plan::CoercionPlan;
pub use mockingbird_values::MValue;
pub use session::{ArtifactImport, Session, SessionError};
