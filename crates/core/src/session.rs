//! The session pipeline (the paper's Fig. 6).
//!
//! A [`Session`] holds the loaded declaration universe and the Mtype
//! graph; its methods mirror the boxes of Fig. 6: parse (C/C++, Java,
//! CORBA IDL, project files), annotate (interactively via selectors or
//! in batch via scripts), compare, and generate stubs. Sessions can be
//! saved to project files and restored.

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

use mockingbird_artifact::{ArtifactId, ArtifactStore, StoreKey};
use mockingbird_comparer::{CacheStats, CompareCache, Comparer, Mismatch, Mode, RuleSet};
use mockingbird_lang_c::{parse_c, parse_cxx, CParseError};
use mockingbird_lang_idl::{parse_idl, IdlParseError};
use mockingbird_lang_java::convert::{load_class_files, JavaLoadError};
use mockingbird_lang_java::source::{parse_java, JavaParseError};
use mockingbird_mtype::{MtypeGraph, MtypeId};
use mockingbird_plan::CoercionPlan;
use mockingbird_runtime::WireOp;
use mockingbird_stubgen::shape::FnShape;
use mockingbird_stubgen::{FunctionStub, InterfaceStub, StubError};
use mockingbird_stype::ast::Universe;
use mockingbird_stype::lower::{LowerError, Lowerer};
use mockingbird_stype::project::{Project, ProjectError};
use mockingbird_stype::script::{apply_script, ScriptError};
use mockingbird_wire::{ProgramCache, ProgramStats};

use crate::batch::{BatchCompiler, BatchOptions, NamedBatchReport};

/// What warming a session from artifacts restored — and what it refused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactImport {
    /// Compare verdicts restored into the session's [`CompareCache`].
    pub verdicts: usize,
    /// Fused wire programs restored into the session's [`ProgramCache`].
    pub programs: usize,
    /// Entries skipped because their rules fingerprint does not match
    /// this session's rule set: they were compiled under different
    /// comparison rules and would never be consulted, so loading them
    /// would only hide the mismatch. Reported, not silently dropped.
    pub stale: usize,
}

impl ArtifactImport {
    /// Entries actually restored (verdicts plus programs).
    #[must_use]
    pub fn restored(&self) -> usize {
        self.verdicts + self.programs
    }
}

impl fmt::Display for ArtifactImport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} verdicts, {} programs ({} stale skipped)",
            self.verdicts, self.programs, self.stale
        )
    }
}

/// Everything that can go wrong driving a session.
#[derive(Debug)]
pub enum SessionError {
    /// A frontend rejected its input.
    Parse(String),
    /// Translation to Mtypes failed.
    Lower(LowerError),
    /// An annotation script failed.
    Script(ScriptError),
    /// The Comparer rejected the pair.
    Compare(Box<Mismatch>),
    /// Project save/load failed.
    Project(ProjectError),
    /// Stub construction failed.
    Stub(StubError),
    /// A name did not resolve.
    Unknown(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse(m) => write!(f, "{m}"),
            SessionError::Lower(e) => write!(f, "{e}"),
            SessionError::Script(e) => write!(f, "{e}"),
            SessionError::Compare(m) => write!(f, "{m}"),
            SessionError::Project(e) => write!(f, "{e}"),
            SessionError::Stub(e) => write!(f, "{e}"),
            SessionError::Unknown(n) => write!(f, "unknown declaration `{n}`"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<CParseError> for SessionError {
    fn from(e: CParseError) -> Self {
        SessionError::Parse(e.to_string())
    }
}
impl From<JavaParseError> for SessionError {
    fn from(e: JavaParseError) -> Self {
        SessionError::Parse(e.to_string())
    }
}
impl From<JavaLoadError> for SessionError {
    fn from(e: JavaLoadError) -> Self {
        SessionError::Parse(e.to_string())
    }
}
impl From<IdlParseError> for SessionError {
    fn from(e: IdlParseError) -> Self {
        SessionError::Parse(e.to_string())
    }
}
impl From<LowerError> for SessionError {
    fn from(e: LowerError) -> Self {
        SessionError::Lower(e)
    }
}
impl From<ScriptError> for SessionError {
    fn from(e: ScriptError) -> Self {
        SessionError::Script(e)
    }
}
impl From<ProjectError> for SessionError {
    fn from(e: ProjectError) -> Self {
        SessionError::Project(e)
    }
}
impl From<StubError> for SessionError {
    fn from(e: StubError) -> Self {
        SessionError::Stub(e)
    }
}

/// One Mockingbird tool session: loaded declarations, their annotations,
/// the Mtype graph, and comparison/stub-generation entry points.
pub struct Session {
    uni: Universe,
    graph: MtypeGraph,
    memo: HashMap<String, MtypeId>,
    rules: RuleSet,
    /// Content-addressed verdict/correspondence memo shared by every
    /// comparison this session runs (persisted through an
    /// [`ArtifactStore`]).
    cache: Arc<CompareCache>,
    /// Plans already derived this generation, shared by `Arc` so stubs
    /// over the same pair reuse one plan instead of re-deriving it.
    /// Keyed by graph-local ids (not fingerprints: a plan converts
    /// *values*, and fingerprint-equal types may still lay out their
    /// values differently, e.g. comm-reordered records).
    plans: HashMap<(MtypeId, MtypeId, Mode), Arc<CoercionPlan>>,
    /// Fused wire programs compiled from plans, keyed by *layout*
    /// fingerprints (the strict canonical identity: order- and
    /// wrapper-faithful, unlike the full-rule canonical fingerprints the
    /// verdict cache uses) and persisted through an [`ArtifactStore`].
    programs: Arc<ProgramCache>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// Creates an empty session with the paper's full rule set.
    pub fn new() -> Self {
        Session {
            uni: Universe::new(),
            graph: MtypeGraph::new(),
            memo: HashMap::new(),
            rules: RuleSet::full(),
            cache: Arc::new(CompareCache::new()),
            plans: HashMap::new(),
            programs: Arc::new(ProgramCache::new()),
        }
    }

    /// Creates a session with an explicit rule set (ablation studies).
    pub fn with_rules(rules: RuleSet) -> Self {
        Session {
            rules,
            ..Session::new()
        }
    }

    /// The loaded declarations.
    pub fn universe(&self) -> &Universe {
        &self.uni
    }

    /// Mutable access to the declarations (programmatic annotation via
    /// [`Selector`]s). Invalidate-on-write: the Mtype memo is cleared.
    ///
    /// [`Selector`]: mockingbird_stype::selector::Selector
    pub fn universe_mut(&mut self) -> &mut Universe {
        self.memo.clear();
        self.plans.clear();
        &mut self.uni
    }

    /// The session's shared compile cache (verdicts keyed by canonical
    /// fingerprint). Useful for warming another session or inspecting
    /// effectiveness; see [`Session::cache_stats`].
    pub fn compile_cache(&self) -> &Arc<CompareCache> {
        &self.cache
    }

    /// Hit/miss/insert counters of the compile cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The session's shared fused-program cache (data-plane programs
    /// keyed by layout fingerprints; see [`ProgramCache`]).
    pub fn wire_programs(&self) -> &Arc<ProgramCache> {
        &self.programs
    }

    /// Compile/hit counters of the fused-program cache.
    pub fn program_stats(&self) -> ProgramStats {
        self.programs.stats()
    }

    /// The Mtype graph all lowered declarations share.
    pub fn graph(&self) -> &MtypeGraph {
        &self.graph
    }

    fn absorb(&mut self, other: Universe) -> Result<(), SessionError> {
        self.uni
            .absorb(other)
            .map_err(|e| SessionError::Parse(e.to_string()))
    }

    /// Loads C declarations.
    ///
    /// # Errors
    ///
    /// Returns parse errors or duplicate-name collisions.
    pub fn load_c(&mut self, source: &str) -> Result<(), SessionError> {
        let u = parse_c(source)?;
        self.absorb(u)
    }

    /// Loads C++ declarations.
    ///
    /// # Errors
    ///
    /// Returns parse errors or duplicate-name collisions.
    pub fn load_cxx(&mut self, source: &str) -> Result<(), SessionError> {
        let u = parse_cxx(source)?;
        self.absorb(u)
    }

    /// Loads Java source declarations.
    ///
    /// # Errors
    ///
    /// Returns parse errors or duplicate-name collisions.
    pub fn load_java(&mut self, source: &str) -> Result<(), SessionError> {
        let u = parse_java(source)?;
        self.absorb(u)
    }

    /// Loads Java `.class` file blobs (the paper's primary Java input).
    ///
    /// # Errors
    ///
    /// Returns class-file parse errors or duplicate-name collisions.
    pub fn load_java_classes(&mut self, blobs: &[Vec<u8>]) -> Result<usize, SessionError> {
        Ok(load_class_files(&mut self.uni, blobs)?)
    }

    /// Loads CORBA IDL declarations.
    ///
    /// # Errors
    ///
    /// Returns parse errors or duplicate-name collisions.
    pub fn load_idl(&mut self, source: &str) -> Result<(), SessionError> {
        let u = parse_idl(source)?;
        self.absorb(u)
    }

    /// Applies a batch annotation script (paper §5's scripting
    /// technique); returns the number of statements applied.
    ///
    /// # Errors
    ///
    /// Returns the first malformed statement or unresolvable selector.
    pub fn annotate(&mut self, script: &str) -> Result<usize, SessionError> {
        self.memo.clear();
        // Re-lowered declarations get fresh ids, so id-keyed plans are
        // stale; the content-addressed verdict cache stays valid (changed
        // types simply miss under their new fingerprints).
        self.plans.clear();
        Ok(apply_script(&mut self.uni, script)?)
    }

    /// The Mtype of a named declaration (lowering and memoising it on
    /// first use).
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Lower`] on unknown names or unsupported
    /// constructs.
    pub fn mtype(&mut self, name: &str) -> Result<MtypeId, SessionError> {
        if let Some(&id) = self.memo.get(name) {
            return Ok(id);
        }
        let mut lw = Lowerer::new(&self.uni, &mut self.graph);
        for (n, id) in &self.memo {
            lw.preseed(n.clone(), *id);
        }
        let id = lw.lower_named(name)?;
        let done = lw.done_entries();
        for (n, id) in done {
            self.memo.insert(n, id);
        }
        Ok(id)
    }

    /// Renders a declaration's Mtype in the paper's notation (the Fig. 7
    /// diagram pane, textually).
    ///
    /// # Errors
    ///
    /// Propagates lowering failures.
    pub fn display_mtype(&mut self, name: &str) -> Result<String, SessionError> {
        let id = self.mtype(name)?;
        Ok(self.graph.display(id).to_string())
    }

    /// Renders a declaration's Mtype as Graphviz DOT.
    ///
    /// # Errors
    ///
    /// Propagates lowering failures.
    pub fn dot(&mut self, name: &str) -> Result<String, SessionError> {
        let id = self.mtype(name)?;
        let safe: String = name
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        Ok(mockingbird_mtype::dot::to_dot(&self.graph, id, &safe))
    }

    /// Runs the Comparer on two declarations (the paper's Compare
    /// button), returning the executable coercion plan on success.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Compare`] with mismatch diagnostics when
    /// the declarations are not related; the annotate/compare loop
    /// continues from there.
    pub fn compare(
        &mut self,
        left: &str,
        right: &str,
        mode: Mode,
    ) -> Result<CoercionPlan, SessionError> {
        Ok((*self.compare_shared(left, right, mode)?).clone())
    }

    /// As [`Session::compare`], but incremental: verdicts and
    /// correspondences come from the session's content-addressed
    /// [`CompareCache`], the graph is handed to the plan as a frozen
    /// `Arc` snapshot, and the derived plan itself is memoized so
    /// repeated compares (and the stubs built from them) share one
    /// `Arc<CoercionPlan>` instead of re-deriving it.
    ///
    /// # Errors
    ///
    /// As [`Session::compare`].
    pub fn compare_shared(
        &mut self,
        left: &str,
        right: &str,
        mode: Mode,
    ) -> Result<Arc<CoercionPlan>, SessionError> {
        let l = self.mtype(left)?;
        let r = self.mtype(right)?;
        if let Some(plan) = self.plans.get(&(l, r, mode)) {
            return Ok(plan.clone());
        }
        let snap = self.graph.snapshot();
        let corr = Comparer::with_rules(&snap, &snap, self.rules.clone())
            .with_shared_cache(self.cache.clone())
            .compare_arc(l, r, mode)
            .map_err(|m| SessionError::Compare(Box::new(m)))?;
        let plan = Arc::new(CoercionPlan::new_shared(
            snap.clone(),
            snap,
            corr,
            self.rules.clone(),
            mode,
        ));
        self.plans.insert((l, r, mode), plan.clone());
        Ok(plan)
    }

    /// Runs the Comparer with programmer-declared *semantic bridges*
    /// (paper §6): each `(left_decl, right_decl)` pair in `bridges` is
    /// accepted as matched by assumption, so structural comparison
    /// composes with the hand-written conversions the caller then
    /// registers on the returned plan via
    /// [`CoercionPlan::register_semantic`] (using [`Session::mtype`] for
    /// the pair's ids).
    ///
    /// # Errors
    ///
    /// As [`Session::compare`]; additionally fails if a bridge names an
    /// unknown declaration.
    pub fn compare_with_bridges(
        &mut self,
        left: &str,
        right: &str,
        mode: Mode,
        bridges: &[(&str, &str)],
    ) -> Result<CoercionPlan, SessionError> {
        let l = self.mtype(left)?;
        let r = self.mtype(right)?;
        let mut bridge_ids = Vec::with_capacity(bridges.len());
        for (bl, br) in bridges {
            bridge_ids.push((self.mtype(bl)?, self.mtype(br)?));
        }
        // Bridged verdicts are relative to the declared assumptions, so
        // the shared content-addressed cache is deliberately not wired in.
        let snap = self.graph.snapshot();
        let mut cmp = Comparer::with_rules(&snap, &snap, self.rules.clone());
        for (bl, br) in bridge_ids {
            cmp = cmp.with_semantic_bridge(bl, br);
        }
        let corr = cmp
            .compare_arc(l, r, mode)
            .map_err(|m| SessionError::Compare(Box::new(m)))?;
        Ok(CoercionPlan::new_shared(
            snap.clone(),
            snap,
            corr,
            self.rules.clone(),
            mode,
        ))
    }

    /// Builds a local two-way function stub between two declarations.
    ///
    /// # Errors
    ///
    /// Propagates comparison and shape failures.
    pub fn function_stub(&mut self, left: &str, right: &str) -> Result<FunctionStub, SessionError> {
        let plan = self.compare_shared(left, right, Mode::Equivalence)?;
        Ok(FunctionStub::new(plan)?)
    }

    /// Builds a local interface stub (multi-method objects).
    ///
    /// # Errors
    ///
    /// Propagates comparison and shape failures.
    pub fn interface_stub(
        &mut self,
        left: &str,
        right: &str,
    ) -> Result<InterfaceStub, SessionError> {
        let plan = self.compare_shared(left, right, Mode::Equivalence)?;
        Ok(InterfaceStub::new(plan)?)
    }

    /// Builds the wire-operation table entry for a function declaration:
    /// the CDR Mtypes of its argument and result records. Both sides of
    /// a connection derive the same `WireOp` from the same declaration.
    ///
    /// # Errors
    ///
    /// Propagates lowering and shape failures.
    pub fn wire_op(&mut self, function: &str) -> Result<WireOp, SessionError> {
        let id = self.mtype(function)?;
        let shape = FnShape::of_function(&self.graph, id).map_err(StubError::Shape)?;
        let args_ty = self.graph.record(shape.inputs.clone());
        let result_ty = shape.output;
        Ok(WireOp::new(self.graph.snapshot(), args_ty, result_ty))
    }

    /// As [`wire_op`](Session::wire_op), but marks the operation
    /// idempotent so clients may retry it under a
    /// [`RetryPolicy`](mockingbird_runtime::RetryPolicy).
    ///
    /// # Errors
    ///
    /// Propagates lowering and shape failures.
    pub fn wire_op_idempotent(&mut self, function: &str) -> Result<WireOp, SessionError> {
        Ok(self.wire_op(function)?.idempotent())
    }

    /// Saves the session's declarations, with their annotations, to a
    /// project file. Compiled artifacts are not saved: they persist only
    /// through an [`ArtifactStore`] (see
    /// [`export_artifacts`](Session::export_artifacts)).
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialisation failures.
    pub fn save_project(&self, name: &str, path: impl AsRef<Path>) -> Result<(), SessionError> {
        Project::new(name, self.uni.clone()).save(path)?;
        Ok(())
    }

    /// Writes everything this session compiled — compare verdicts and
    /// fused wire programs — into `store` as content-addressed records.
    /// This is the one persistence seam: on-disk segment stores and peer
    /// transfers both go through an [`ArtifactStore`]. Returns how many
    /// records were written.
    pub fn export_artifacts(&self, store: &dyn ArtifactStore) -> usize {
        self.cache.store_into(store) + self.programs.store_into(store)
    }

    /// Warms this session from `store`: verdicts into the compile cache,
    /// wire programs into the fused-program cache. Records whose rules
    /// fingerprint differs from this session's rule set are *skipped and
    /// counted* — see [`ArtifactImport::stale`].
    pub fn import_artifacts(&self, store: &dyn ArtifactStore) -> ArtifactImport {
        let want = self.rules.fingerprint();
        let filtered = CurrentRules { inner: store, want };
        ArtifactImport {
            verdicts: self.cache.load_from(&filtered),
            programs: self.programs.load_from(&filtered),
            stale: store
                .keys()
                .iter()
                .filter(|(k, _)| k.rules_fp != want)
                .count(),
        }
    }

    /// Restores a session from a project file: its declarations and
    /// their annotations. The restored session starts cold.
    ///
    /// # Errors
    ///
    /// Propagates I/O and format failures.
    pub fn load_project(path: impl AsRef<Path>) -> Result<Session, SessionError> {
        let p = Project::load(path)?;
        let mut s = Session::new();
        s.absorb_project(p)?;
        Ok(s)
    }

    /// Merges a parsed project's declarations into this session's
    /// universe. A project carries no compiled artifacts, so nothing in
    /// it can decide a verdict or serve a program.
    ///
    /// # Errors
    ///
    /// Returns duplicate-name collisions from the universe merge.
    pub fn absorb_project(&mut self, p: Project) -> Result<(), SessionError> {
        self.absorb(p.universe)
    }

    /// Compiles many named pairs as one batch: each pair is lowered,
    /// deduplicated, and compared through the shared [`CompareCache`]
    /// (fanned out over worker threads when the host has them). See
    /// [`BatchCompiler`] for the graph-level engine.
    ///
    /// # Errors
    ///
    /// Fails only when a *name* does not lower; per-pair comparison
    /// failures are reported inside the returned report, not as errors.
    pub fn batch_compile(
        &mut self,
        pairs: &[(&str, &str)],
        opts: &BatchOptions,
    ) -> Result<NamedBatchReport, SessionError> {
        let mut id_pairs = Vec::with_capacity(pairs.len());
        let mut names = Vec::with_capacity(pairs.len());
        for (l, r) in pairs {
            id_pairs.push((self.mtype(l)?, self.mtype(r)?));
            names.push(((*l).to_string(), (*r).to_string()));
        }
        let compiler = BatchCompiler::new(self.graph.snapshot())
            .with_rules(self.rules.clone())
            .with_cache(self.cache.clone())
            .with_programs(self.programs.clone());
        let report = compiler.compile(&id_pairs, opts);
        Ok(NamedBatchReport::from_report(report, names))
    }
}

/// A read-only [`ArtifactStore`] view that hides records compiled under
/// a different rules fingerprint. [`Session::import_artifacts`] loads
/// through this view so the caches never absorb entries they could not
/// consult; the hidden keys are what [`ArtifactImport::stale`] counts.
struct CurrentRules<'a> {
    inner: &'a dyn ArtifactStore,
    want: u64,
}

impl ArtifactStore for CurrentRules<'_> {
    fn put(&self, key: StoreKey, body: &[u8]) -> ArtifactId {
        self.inner.put(key, body)
    }

    fn get(&self, key: &StoreKey) -> Option<(ArtifactId, Arc<Vec<u8>>)> {
        if key.rules_fp != self.want {
            return None;
        }
        self.inner.get(key)
    }

    fn contains(&self, key: &StoreKey) -> bool {
        key.rules_fp == self.want && self.inner.contains(key)
    }

    fn keys(&self) -> Vec<(StoreKey, ArtifactId)> {
        self.inner
            .keys()
            .into_iter()
            .filter(|(k, _)| k.rules_fp == self.want)
            .collect()
    }

    fn body(&self, id: &ArtifactId) -> Option<Arc<Vec<u8>>> {
        self.inner.body(id)
    }

    fn len(&self) -> usize {
        self.keys().len()
    }

    fn stats(&self) -> mockingbird_artifact::StoreStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mockingbird_artifact::MemoryStore;
    use mockingbird_values::MValue;

    const FIG2_C: &str = "typedef float point[2];\n\
        void fitter(point pts[], int count, point *start, point *end);";

    const FIG1_5_JAVA: &str = "
        public class Point {
            public Point(float x, float y) { }
            public float getX() { return x; }
            private float x;
            private float y;
        }
        public class Line {
            public Line(Point s, Point e) { }
            private Point start;
            private Point end;
        }
        public class PointVector extends java.util.Vector;
        public interface JavaIdeal { Line fitter(PointVector pts); }";

    const FITTER_SCRIPT: &str = "
        annotate fitter.param(pts) length=param(count)
        annotate fitter.param(start) direction=out
        annotate fitter.param(end) direction=out
        annotate Line.field(start) non-null no-alias
        annotate Line.field(end) non-null no-alias
        annotate PointVector element=Point non-null
        annotate JavaIdeal.method(fitter).param(pts) non-null
annotate JavaIdeal.method(fitter).ret non-null";

    fn fitter_session() -> Session {
        let mut s = Session::new();
        s.load_c(FIG2_C).unwrap();
        s.load_java(FIG1_5_JAVA).unwrap();
        s.annotate(FITTER_SCRIPT).unwrap();
        s
    }

    #[test]
    fn fitter_mtypes_match_section_3_4() {
        let mut s = fitter_session();
        let c = s.display_mtype("fitter").unwrap();
        let j = s.display_mtype("JavaIdeal").unwrap();
        // §3.4: both sides are port(Record(L, port(Record(Real,Real),
        // Record(Real,Real)))) modulo grouping.
        assert!(c.starts_with("port(Record(Rec#L("), "{c}");
        assert!(j.starts_with("port("), "{j}");
        let plan = s.compare("JavaIdeal", "fitter", Mode::Equivalence).unwrap();
        assert!(plan.len() > 3);
    }

    #[test]
    fn fitter_does_not_match_without_annotations() {
        let mut s = Session::new();
        s.load_c(FIG2_C).unwrap();
        s.load_java(FIG1_5_JAVA).unwrap();
        let err = s
            .compare("JavaIdeal", "fitter", Mode::Equivalence)
            .unwrap_err();
        assert!(matches!(err, SessionError::Compare(_)));
        // The iterative annotate/compare loop: apply annotations, retry.
        s.annotate(FITTER_SCRIPT).unwrap();
        assert!(s.compare("JavaIdeal", "fitter", Mode::Equivalence).is_ok());
    }

    #[test]
    fn fitter_stub_round_trip() {
        let mut s = fitter_session();
        let stub = s.function_stub("JavaIdeal", "fitter").unwrap();
        let c_fitter = |args: MValue| -> Result<MValue, String> {
            let MValue::Record(items) = args else {
                return Err("bad".into());
            };
            let MValue::List(pts) = &items[0] else {
                return Err("bad".into());
            };
            Ok(MValue::Record(vec![
                pts.first().cloned().ok_or("empty")?,
                pts.last().cloned().ok_or("empty")?,
            ]))
        };
        let pts = MValue::List(vec![
            MValue::Record(vec![MValue::Real(0.0), MValue::Real(1.0)]),
            MValue::Record(vec![MValue::Real(5.0), MValue::Real(6.0)]),
        ]);
        let out = stub.call(&[pts], &c_fitter).unwrap();
        let MValue::Record(line) = &out else { panic!() };
        assert_eq!(line.len(), 1, "Java returns a single Line");
    }

    #[test]
    fn project_round_trip_preserves_annotations() {
        let s = fitter_session();
        let dir = std::env::temp_dir().join("mockingbird-session-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fitter.mbproj.json");
        s.save_project("fitter", &path).unwrap();
        let mut restored = Session::load_project(&path).unwrap();
        assert!(restored
            .compare("JavaIdeal", "fitter", Mode::Equivalence)
            .is_ok());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn memo_shares_lowered_structure() {
        let mut s = fitter_session();
        let a = s.mtype("Point").unwrap();
        let before = s.graph().len();
        let b = s.mtype("Point").unwrap();
        assert_eq!(a, b);
        assert_eq!(s.graph().len(), before, "no re-lowering");
    }

    #[test]
    fn annotate_invalidates_memo() {
        let mut s = fitter_session();
        let a = s.mtype("Point").unwrap();
        s.annotate("annotate Point.field(x) precision=double")
            .unwrap();
        let b = s.mtype("Point").unwrap();
        assert_ne!(
            s.graph().display(a).to_string(),
            s.graph().display(b).to_string()
        );
    }

    #[test]
    fn repeated_compares_share_plans_and_hit_cache() {
        let mut s = fitter_session();
        let p1 = s
            .compare_shared("JavaIdeal", "fitter", Mode::Equivalence)
            .unwrap();
        let p2 = s
            .compare_shared("JavaIdeal", "fitter", Mode::Equivalence)
            .unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "plan memo shares one Arc");
        let stats = s.cache_stats();
        // The second call short-circuits on the plan memo, so the cache
        // sees exactly one (missing) lookup followed by one insert.
        assert_eq!((stats.misses, stats.inserts, stats.hits), (1, 1, 0));

        // Re-annotating invalidates plans but not content-addressed
        // verdicts: the same comparison now *hits*.
        s.annotate("annotate fitter.param(count) direction=in")
            .unwrap();
        let p3 = s
            .compare_shared("JavaIdeal", "fitter", Mode::Equivalence)
            .unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3), "plans were invalidated");
        assert!(s.cache_stats().hits >= 1, "{:?}", s.cache_stats());
    }

    #[test]
    fn export_import_artifacts_round_trip_through_a_store() {
        let mut s = fitter_session();
        s.batch_compile(&[("JavaIdeal", "fitter")], &BatchOptions::default())
            .unwrap();
        let store = MemoryStore::new();
        let exported = s.export_artifacts(&store);
        assert!(exported >= 2, "verdicts and a program: {exported}");

        let mut restored = fitter_session();
        let stats = restored.import_artifacts(&store);
        assert_eq!(stats.verdicts, s.compile_cache().len());
        assert_eq!(stats.programs, s.wire_programs().len());
        assert_eq!(stats.stale, 0);

        // The imported records start the session warm on both planes.
        restored
            .compare("JavaIdeal", "fitter", Mode::Equivalence)
            .unwrap();
        let cache = restored.cache_stats();
        assert!(cache.hits >= 1, "restored verdict cache is warm: {cache:?}");
        restored
            .batch_compile(&[("JavaIdeal", "fitter")], &BatchOptions::default())
            .unwrap();
        let programs = restored.program_stats();
        assert_eq!(programs.compiles, 0, "restored program cache is warm");
        assert!(programs.hits >= 1, "{programs:?}");
    }

    #[test]
    fn import_artifacts_reports_stale_entries() {
        // Compile under a *reduced* rule set, export, then import into a
        // default-rules session: every entry is stale and must be
        // skipped-and-counted, not silently dropped or silently loaded.
        let mut reduced = Session::with_rules(RuleSet::strict());
        reduced.load_c(FIG2_C).unwrap();
        reduced.load_java(FIG1_5_JAVA).unwrap();
        reduced.annotate(FITTER_SCRIPT).unwrap();
        let _ = reduced.compare("Point", "Point", Mode::Equivalence);
        assert!(!reduced.compile_cache().is_empty());
        let store = MemoryStore::new();
        reduced.export_artifacts(&store);

        let s = Session::new();
        let stats = s.import_artifacts(&store);
        assert_eq!(stats.restored(), 0, "no entry matches the full rules");
        assert!(stats.stale >= 1, "{stats:?}");
        assert!(s.compile_cache().is_empty(), "stale verdicts not loaded");

        // The same records restore cleanly into a matching-rules session.
        let again = Session::with_rules(RuleSet::strict());
        let stats = again.import_artifacts(&store);
        assert!(stats.verdicts >= 1);
        assert_eq!(stats.stale, 0);
    }

    #[test]
    fn batch_compile_names_pairs_and_counts() {
        let mut s = fitter_session();
        let report = s
            .batch_compile(
                &[
                    ("JavaIdeal", "fitter"),
                    ("Point", "Line"),
                    ("JavaIdeal", "fitter"),
                ],
                &BatchOptions::default(),
            )
            .unwrap();
        assert_eq!(report.pairs.len(), 3);
        assert_eq!(report.stats.unique_pairs, 2);
        assert!(report.pairs[0].outcome.is_match());
        assert!(!report.pairs[1].outcome.is_match(), "Point vs Line differ");
        assert_eq!(report.pairs[2].duplicate_of, Some(0));
        assert_eq!(report.pairs[0].left, "JavaIdeal");
        assert_eq!(report.pairs[1].right, "Line");
        assert!(s
            .batch_compile(&[("nope", "fitter")], &BatchOptions::default())
            .is_err());
    }

    #[test]
    fn wire_op_shapes() {
        let mut s = fitter_session();
        let op = s.wire_op("fitter").unwrap();
        let args = op.graph.display(op.args_ty).to_string();
        assert!(args.starts_with("Record(Rec#L("), "{args}");
        let result = op.graph.display(op.result_ty).to_string();
        assert_eq!(
            result,
            "Record(Record(Real{24,8}, Real{24,8}), Record(Real{24,8}, Real{24,8}))"
        );
    }

    #[test]
    fn errors_are_descriptive() {
        let mut s = Session::new();
        assert!(matches!(s.mtype("nope"), Err(SessionError::Lower(_))));
        assert!(s.load_c("not c !!!").is_err());
        assert!(s.annotate("bogus line").is_err());
    }
}
