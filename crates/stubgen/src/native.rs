//! Native Rust marshal-stub emission — the second Futamura projection.
//!
//! PR 3 specialised the coercion interpreter with respect to each
//! matched pair, producing [`WireProgram`] opcodes (the first
//! projection: an interpreter specialised to its program). This module
//! specialises the opcode VM with respect to each *program*: every
//! cached `(pair, mode)` wire program is compiled into straight-line
//! Rust source — no opcode fetch/decode loop, no path navigation at
//! run time, `const`-width primitive copies, direct `match` dispatch
//! for choices, and unrolled field sequences.
//!
//! The emitted source is **deterministic**: the same set of programs
//! produces byte-identical text (entries are sorted by nominal
//! fingerprint, names are content-derived, no map-iteration order
//! leaks). It is also `rustfmt`-stable: `rustfmt --check` accepts the
//! emitted module as it stands.
//!
//! Generated modules target the `mockingbird` facade paths and call the
//! helper vocabulary in `mockingbird::wire::native` (one helper per VM
//! opcode body). Each program becomes a family of flat functions named
//! by a 48-bit FNV digest of its registry key, plus one `register_all`
//! that installs every stub in a
//! [`NativeStubRegistry`](mockingbird_wire::NativeStubRegistry).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use mockingbird_comparer::Mode;
use mockingbird_wire::program::{
    enc_runs, BuildOp, DecArm, DecOp, EncArm, EncOp, EncStep, NodeView, STEP_CHOICE0,
};
use mockingbird_wire::{NativeKey, NativeProgramKind, ProgramSource, WireProgram};

use crate::stub::FunctionStub;

/// A program the emitter cannot specialise (malformed opcode stream or
/// a shape outside the generated-code vocabulary). These do not occur
/// for programs the compiler produced; the error is a loud guard, not
/// a routine outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmitError(pub String);

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "native stub emission: {}", self.0)
    }
}

impl std::error::Error for EmitError {}

/// What a [`FunctionStub`]'s two data-plane programs compile from:
/// `(args, result)`, the invocation program of its argument coercion
/// and the value program of its result coercion.
pub(crate) fn native_sources(stub: &FunctionStub) -> (ProgramSource<'_>, ProgramSource<'_>) {
    let plan = stub.plan();
    let (lg, rg) = (plan.left_graph(), plan.right_graph());
    let (mode, rules_fp) = (plan.mode(), plan.rules().fingerprint());
    let (left, right) = (stub.left_shape(), stub.right_shape());
    let args = ProgramSource::Pair {
        left: (lg, left.invocation),
        right: (rg, right.invocation),
        mode,
        rules_fp,
        reply_child: Some(right.reply_index as u32),
    };
    let result = ProgramSource::Pair {
        left: (lg, left.output),
        right: (rg, right.output),
        mode,
        rules_fp,
        reply_child: None,
    };
    (args, result)
}

/// The registry keys a [`FunctionStub`]'s two data-plane programs
/// resolve under: `(args_key, result_key)`. Both sides — the fixture
/// emitter at build time and [`RemoteStub`](crate::RemoteStub) at call
/// time — derive keys through [`ProgramSource::key`], so a stub built
/// in a different process from different graph instances still finds
/// its emitted code (fingerprints are structural, not graph-identity).
#[must_use]
pub fn native_keys_for(stub: &FunctionStub) -> (NativeKey, NativeKey) {
    let (args, result) = native_sources(stub);
    (args.key(), result.key())
}

/// Emits one self-contained Rust module specialising every program in
/// `entries` (duplicate keys are collapsed; order does not matter —
/// the output is sorted). The text is a complete file body: header
/// comments, per-program functions, and a `register_all(&NativeStubRegistry)
/// -> usize` that installs each stub under its key.
///
/// # Errors
///
/// Returns [`EmitError`] for opcode streams outside the emitter's
/// vocabulary (never produced by the program compiler) and for digest
/// collisions between distinct keys.
pub fn emit_native_module(entries: &[(NativeKey, Arc<WireProgram>)]) -> Result<String, EmitError> {
    let mut sorted: Vec<(NativeKey, &WireProgram)> =
        entries.iter().map(|(k, p)| (*k, p.as_ref())).collect();
    sorted.sort_by_key(|(k, _)| sort_key(k));
    sorted.dedup_by_key(|(k, _)| sort_key(k));

    // Content-derived names; distinct keys must get distinct digests.
    let mut seen = BTreeSet::new();
    for (k, _) in &sorted {
        if !seen.insert(digest48(k)) {
            return Err(EmitError("digest collision between program keys".into()));
        }
    }

    let mut out = String::new();
    out.push_str(HEADER);
    for (key, program) in &sorted {
        emit_program(&mut out, key, program)?;
    }
    emit_register_all(&mut out, &sorted);
    Ok(out)
}

// Plain `//` comments: the bench crate `include!`s this module, and
// inner doc comments are rejected there (E0753).
const HEADER: &str = "\
// @generated by `stubgen::emit_native_module` \u{2014} DO NOT EDIT.
//
// Native marshal stubs (second Futamura projection): each function
// family below is one cached wire program specialised into
// straight-line Rust. The opcode fetch/decode loop, path navigation,
// and width dispatch are gone; what remains is the exact sequence of
// checks and fixed-width copies the opcode VM would have executed.
// The bench crate's build script emits this module into `OUT_DIR`; to
// read it, write the same text to a file with:
//
//     cargo run -p mockingbird --bin mbc -- emit-stubs --out <file>

use mockingbird::values::MValue;
use mockingbird::wire::native as nat;
use mockingbird::wire::{CdrError, CdrReader, CdrWriter, NativeStub, NativeStubRegistry};
";

/// Total order on keys for deterministic output.
fn sort_key(k: &NativeKey) -> (u128, u128, u64, u8, u8, u32) {
    let mode = match k.pair.mode {
        Mode::Equivalence => 0u8,
        Mode::Subtype => 1u8,
    };
    let (kind, reply) = match k.kind {
        NativeProgramKind::Value => (0u8, 0u32),
        NativeProgramKind::Invocation { reply_child } => (1u8, reply_child),
        NativeProgramKind::Identity => (2u8, 0u32),
    };
    (
        k.pair.left_fp,
        k.pair.right_fp,
        k.pair.rules_fp,
        mode,
        kind,
        reply,
    )
}

/// 48-bit FNV-1a digest of a key — short enough to keep generated
/// signatures inside rustfmt's line width, long enough that collisions
/// across a few hundred programs are vanishingly unlikely (and checked).
fn digest48(k: &NativeKey) -> u64 {
    let (l, r, rules, mode, kind, reply) = sort_key(k);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(&l.to_le_bytes());
    eat(&r.to_le_bytes());
    eat(&rules.to_le_bytes());
    eat(&[mode, kind]);
    eat(&reply.to_le_bytes());
    h & 0xffff_ffff_ffff
}

fn prefix_for(k: &NativeKey) -> String {
    format!("s_{:012x}", digest48(k))
}

/// Renders an `i128` bound as a literal (`i128::MIN` has no literal
/// form — its magnitude overflows before negation applies).
fn lit_i128(v: i128) -> String {
    if v == i128::MIN {
        "i128::MIN".to_string()
    } else {
        v.to_string()
    }
}

// ---------------------------------------------------------------------
// Source writer
// ---------------------------------------------------------------------

struct Src<'a> {
    out: &'a mut String,
    indent: usize,
}

impl Src<'_> {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn blank(&mut self) {
        self.out.push('\n');
    }

    /// Width of `s` at the current indent, in columns.
    fn width(&self, s: &str) -> usize {
        self.indent * 4 + s.len()
    }
}

// ---------------------------------------------------------------------
// Per-program emission
// ---------------------------------------------------------------------

/// Which scope a node function's paths navigate from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum NodeScope {
    /// A materialised value parameter `v`.
    Value,
    /// The virtual invocation record over `inputs`/`reply_index`
    /// (node 0 of invocation programs only).
    Invocation,
}

fn emit_program(out: &mut String, key: &NativeKey, p: &WireProgram) -> Result<(), EmitError> {
    let prefix = prefix_for(key);
    let views: Vec<NodeView<'_>> = p.node_views().collect();
    let invocation = matches!(key.kind, NativeProgramKind::Invocation { .. });
    let emit_dec = !invocation && p.two_way();

    // Reachability per direction (unreachable nodes would emit dead
    // functions; arms the comparer matched one-way make the directions
    // genuinely differ).
    let enc_reach = reach(&views, |v, acc| enc_children(v.enc, acc));
    let dec_reach = reach(&views, |v, acc| dec_children(v.dec, acc));
    // Node 0 in value scope: the entry itself for value programs; for
    // invocation programs only if some op recurses back into node 0.
    let node0_value = !invocation || enc_reach_children(&views).contains(&0);

    let mut src = Src { out, indent: 0 };
    src.blank();
    src.line(&format!(
        "// {} program {}: left {:#034x}, right {:#034x},",
        match key.kind {
            NativeProgramKind::Value => "value",
            NativeProgramKind::Invocation { .. } => "invocation",
            NativeProgramKind::Identity => "identity",
        },
        prefix,
        key.pair.left_fp,
        key.pair.right_fp
    ));
    src.line(&format!(
        "// mode {}, rules {:#018x}",
        match key.pair.mode {
            Mode::Equivalence => "equivalence",
            Mode::Subtype => "subtype",
        },
        key.pair.rules_fp
    ));

    // Compile-time tag constants for `IntoDynamic` ops (keeps long tag
    // strings out of statement lines).
    let tags = collect_tags(&views);
    for (i, tag) in tags.iter().enumerate() {
        src.blank();
        src.line(&format!(
            "const {}: &str = \"{}\";",
            tag_const(&prefix, i),
            tag.escape_default()
        ));
    }

    // Entry points.
    src.blank();
    if invocation {
        src.line(&format!("fn {prefix}_encode_invocation("));
        src.line("    w: &mut CdrWriter,");
        src.line("    inputs: &[MValue],");
        src.line("    reply_index: usize,");
        src.line(") -> Result<(), CdrError> {");
        src.line(&format!("    {prefix}_enc_i0(w, inputs, reply_index, 0)"));
        src.line("}");
    } else {
        src.line(&format!(
            "fn {prefix}_encode(w: &mut CdrWriter, v: &MValue) -> Result<(), CdrError> {{"
        ));
        src.line(&format!("    {prefix}_enc_n0(w, v, 0)"));
        src.line("}");
    }
    if emit_dec {
        src.blank();
        src.line(&format!(
            "fn {prefix}_decode(r: &mut CdrReader<'_>) -> Result<MValue, CdrError> {{"
        ));
        src.line(&format!("    {prefix}_dec_n0(r, 0)"));
        src.line("}");
    }

    // Node functions.
    for view in &views {
        if view.id == 0 && invocation {
            src.blank();
            emit_enc_node(&mut src, &prefix, view, NodeScope::Invocation, &tags)?;
        }
        let enc_needed = if view.id == 0 {
            node0_value
        } else {
            enc_reach.contains(&view.id)
        };
        if enc_needed {
            src.blank();
            emit_enc_node(&mut src, &prefix, view, NodeScope::Value, &tags)?;
        }
        if emit_dec && (view.id == 0 || dec_reach.contains(&view.id)) {
            src.blank();
            emit_dec_node(&mut src, &prefix, view, &tags)?;
        }
    }
    Ok(())
}

fn tag_const(prefix: &str, i: usize) -> String {
    format!("{}_TAG{}", prefix.to_uppercase(), i)
}

/// All `IntoDynamic` tags of the program, in first-appearance order
/// (node order, enc ops before dec ops), deduplicated.
fn collect_tags(views: &[NodeView<'_>]) -> Vec<String> {
    let mut tags: Vec<String> = Vec::new();
    let mut push = |t: &str| {
        if !tags.iter().any(|x| x == t) {
            tags.push(t.to_string());
        }
    };
    for v in views {
        for op in v.enc {
            if let EncOp::IntoDynamic { tag, .. } = op {
                push(tag);
            }
        }
        for op in v.dec {
            if let DecOp::IntoDynamic { tag, .. } = op {
                push(tag);
            }
        }
    }
    tags
}

fn tag_name(prefix: &str, tags: &[String], tag: &str) -> Result<String, EmitError> {
    tags.iter()
        .position(|t| t == tag)
        .map(|i| tag_const(prefix, i))
        .ok_or_else(|| EmitError("tag constant not collected".into()))
}

// -- reachability ------------------------------------------------------

fn enc_children(ops: &[EncOp], acc: &mut Vec<u32>) {
    fn arm_children(arms: &[EncArm], acc: &mut Vec<u32>) {
        for arm in arms {
            match arm {
                EncArm::Unmatched => {}
                EncArm::Leaf { node, .. } => acc.push(*node),
                EncArm::Nested { arms } => arm_children(arms, acc),
            }
        }
    }
    for op in ops {
        match op {
            EncOp::Seq { elem, .. } => acc.push(*elem),
            EncOp::Choice { arms, .. } => arm_children(arms, acc),
            _ => {}
        }
    }
}

fn dec_children(ops: &[DecOp], acc: &mut Vec<u32>) {
    fn arm_children(arms: &[DecArm], acc: &mut Vec<u32>) {
        for arm in arms {
            match arm {
                DecArm::Unmatched => {}
                DecArm::Leaf { node, .. } => acc.push(*node),
                DecArm::Nested { arms } => arm_children(arms, acc),
            }
        }
    }
    for op in ops {
        match op {
            DecOp::Seq { elem, .. } => acc.push(*elem),
            DecOp::Choice { arms, .. } => arm_children(arms, acc),
            _ => {}
        }
    }
}

/// Nodes reachable from node 0 by following `children` edges
/// (excluding node 0 itself unless it is its own descendant).
fn reach(views: &[NodeView<'_>], children: impl Fn(&NodeView<'_>, &mut Vec<u32>)) -> BTreeSet<u32> {
    let mut seen = BTreeSet::new();
    let mut work = Vec::new();
    if let Some(v0) = views.first() {
        children(v0, &mut work);
    }
    while let Some(id) = work.pop() {
        if seen.insert(id) {
            if let Some(v) = views.get(id as usize) {
                children(v, &mut work);
            }
        }
    }
    seen
}

/// Every node id referenced as an encode child anywhere in the
/// program's encode-reachable region (used to decide whether node 0
/// needs a value-scoped variant alongside the invocation entry).
fn enc_reach_children(views: &[NodeView<'_>]) -> BTreeSet<u32> {
    reach(views, |v, acc| enc_children(v.enc, acc))
}

// -- encode direction --------------------------------------------------

fn emit_enc_node(
    src: &mut Src<'_>,
    prefix: &str,
    view: &NodeView<'_>,
    scope: NodeScope,
    tags: &[String],
) -> Result<(), EmitError> {
    let navigates = view.enc.iter().any(|op| !matches!(op, EncOp::Tag { .. }));
    let writes = view.enc.iter().any(|op| !matches!(op, EncOp::Unit { .. }));
    match scope {
        NodeScope::Value => {
            let w = if writes { "w" } else { "_w" };
            let v = if navigates { "v" } else { "_v" };
            src.line(&format!(
                "fn {prefix}_enc_n{id}({w}: &mut CdrWriter, {v}: &MValue, depth: usize) -> Result<(), CdrError> {{",
                id = view.id
            ));
        }
        NodeScope::Invocation => {
            let w = if writes { "w" } else { "_w" };
            let inputs = if navigates { "inputs" } else { "_inputs" };
            let reply = if navigates {
                "reply_index"
            } else {
                "_reply_index"
            };
            src.line(&format!("fn {prefix}_enc_i0("));
            src.line(&format!("    {w}: &mut CdrWriter,"));
            src.line(&format!("    {inputs}: &[MValue],"));
            src.line(&format!("    {reply}: usize,"));
            src.line("    depth: usize,");
            src.line(") -> Result<(), CdrError> {");
        }
    }
    src.indent += 1;
    src.line("nat::check_depth(depth)?;");
    for step in enc_runs(view.enc) {
        match step {
            EncStep::Fixed(ops, budget) => {
                if ops.len() >= 2 && budget > 0 {
                    src.line(&format!("w.reserve({budget});"));
                }
                for op in ops {
                    emit_enc_op(src, prefix, op, scope, tags)?;
                }
            }
            EncStep::Flow(op) => emit_enc_op(src, prefix, op, scope, tags)?,
        }
    }
    src.line("Ok(())");
    src.indent -= 1;
    src.line("}");
    Ok(())
}

/// Emits the `let` chain navigating `path` from the scope root; returns
/// the name of the binding holding the target value.
fn emit_nav(src: &mut Src<'_>, path: &[u16], scope: NodeScope) -> Result<String, EmitError> {
    let mut var: &str = match scope {
        NodeScope::Value => "v",
        NodeScope::Invocation => {
            // The VM's invocation scope requires a leading field step
            // (a sentinel first step is looked up as field 65535 and
            // fails there, which `nat::arg` replicates).
            let Some((&first, _)) = path.split_first() else {
                return Err(EmitError("invocation scope op without a field path".into()));
            };
            src.line(&format!(
                "let x = nat::arg(inputs, reply_index, {})?;",
                first as usize
            ));
            "x"
        }
    };
    let rest = match scope {
        NodeScope::Value => path,
        NodeScope::Invocation => &path[1..],
    };
    for &step in rest {
        if step == STEP_CHOICE0 {
            src.line(&format!("let x = nat::unwrap0({var})?;"));
        } else {
            src.line(&format!("let x = nat::field({var}, {step})?;"));
        }
        var = "x";
    }
    Ok(var.to_string())
}

fn emit_enc_op(
    src: &mut Src<'_>,
    prefix: &str,
    op: &EncOp,
    scope: NodeScope,
    tags: &[String],
) -> Result<(), EmitError> {
    match op {
        EncOp::UInt { size, lo, hi, path } => {
            let x = emit_nav(src, path, scope)?;
            src.line(&format!(
                "nat::put_int::<{size}>(w, {x}, {}, {})?;",
                lit_i128(*lo),
                lit_i128(*hi)
            ));
        }
        EncOp::Real { single, path } => {
            let x = emit_nav(src, path, scope)?;
            src.line(&format!("nat::put_real::<{single}>(w, {x})?;"));
        }
        EncOp::Char { size, path } => {
            let x = emit_nav(src, path, scope)?;
            src.line(&format!("nat::put_char::<{size}>(w, {x})?;"));
        }
        EncOp::Unit { path } => {
            let x = emit_nav(src, path, scope)?;
            src.line(&format!("nat::expect_unit({x})?;"));
        }
        EncOp::Port { path } => {
            let x = emit_nav(src, path, scope)?;
            src.line(&format!("nat::put_port(w, {x})?;"));
        }
        EncOp::Dynamic { path } => {
            let x = emit_nav(src, path, scope)?;
            src.line(&format!("nat::put_dynamic(w, {x})?;"));
        }
        EncOp::IntoDynamic { tag, path } => {
            let x = emit_nav(src, path, scope)?;
            let t = tag_name(prefix, tags, tag)?;
            src.line(&format!("nat::put_into_dynamic(w, {t}, {x});"));
        }
        EncOp::Seq { elem, path } => {
            let x = emit_nav(src, path, scope)?;
            src.line(&format!(
                "nat::encode_seq(w, {x}, {prefix}_enc_n{elem}, depth)?;"
            ));
        }
        EncOp::Choice { arms, path } => {
            let x = emit_nav(src, path, scope)?;
            emit_enc_choice(src, prefix, arms, &x)?;
        }
        EncOp::Tag { value } => {
            src.line(&format!("nat::put_tag(w, {value});"));
        }
    }
    Ok(())
}

fn emit_enc_choice(
    src: &mut Src<'_>,
    prefix: &str,
    arms: &[EncArm],
    var: &str,
) -> Result<(), EmitError> {
    let payload_used = arms.iter().any(|a| !matches!(a, EncArm::Unmatched));
    let p = if payload_used { "p" } else { "_p" };
    src.line(&format!("let (i, {p}) = nat::choice_parts({var})?;"));
    src.line("match i {");
    src.indent += 1;
    for (idx, arm) in arms.iter().enumerate() {
        match arm {
            EncArm::Unmatched => {
                src.line(&format!(
                    "{idx} => return Err(nat::unmatched_alternative({idx})),"
                ));
            }
            EncArm::Leaf { tags, node } => {
                src.line(&format!("{idx} => {{"));
                src.indent += 1;
                for t in tags.iter() {
                    src.line(&format!("nat::put_tag(w, {t});"));
                }
                src.line(&format!("{prefix}_enc_n{node}(w, p, depth + 1)?;"));
                src.indent -= 1;
                src.line("}");
            }
            EncArm::Nested { arms } => {
                src.line(&format!("{idx} => {{"));
                src.indent += 1;
                emit_enc_choice(src, prefix, arms, "p")?;
                src.indent -= 1;
                src.line("}");
            }
        }
    }
    src.line(&format!(
        "i => return Err(nat::bad_choice_index(i, {})),",
        arms.len()
    ));
    src.indent -= 1;
    src.line("}");
    Ok(())
}

// -- decode direction --------------------------------------------------

fn emit_dec_node(
    src: &mut Src<'_>,
    prefix: &str,
    view: &NodeView<'_>,
    tags: &[String],
) -> Result<(), EmitError> {
    let r = if view.dec.is_empty() { "_r" } else { "r" };
    src.line(&format!(
        "fn {prefix}_dec_n{id}({r}: &mut CdrReader<'_>, depth: usize) -> Result<MValue, CdrError> {{",
        id = view.id
    ));
    src.indent += 1;
    src.line("nat::check_depth_dec(depth)?;");

    // Which dec op is the *last* writer of each slot (the VM's frame
    // overwrite becomes shadowing; superseded writes still execute for
    // their reader side effects but bind to `_`).
    let mut last_writer = vec![usize::MAX; view.slots as usize];
    for (i, op) in view.dec.iter().enumerate() {
        if let Some(slot) = dec_slot(op) {
            last_writer[slot as usize] = i;
        }
    }
    let build_used: BTreeSet<u32> = view
        .build
        .iter()
        .filter_map(|b| match b {
            BuildOp::Slot(s) => Some(*s),
            _ => None,
        })
        .collect();

    for (i, op) in view.dec.iter().enumerate() {
        let target = match dec_slot(op) {
            None => None,
            Some(slot) => {
                let live = build_used.contains(&slot) && last_writer[slot as usize] == i;
                Some(if live {
                    format!("s{slot}")
                } else {
                    format!("_s{slot}")
                })
            }
        };
        emit_dec_op(src, prefix, op, target.as_deref(), tags)?;
    }

    emit_build(src, view, &build_used)?;
    src.indent -= 1;
    src.line("}");
    Ok(())
}

fn dec_slot(op: &DecOp) -> Option<u32> {
    match op {
        DecOp::UInt { slot, .. }
        | DecOp::Real { slot, .. }
        | DecOp::Char { slot, .. }
        | DecOp::Port { slot }
        | DecOp::Dynamic { slot }
        | DecOp::IntoDynamic { slot, .. }
        | DecOp::Seq { slot, .. }
        | DecOp::Choice { slot, .. } => Some(*slot),
        DecOp::Tag { .. } => None,
    }
}

fn emit_dec_op(
    src: &mut Src<'_>,
    prefix: &str,
    op: &DecOp,
    target: Option<&str>,
    tags: &[String],
) -> Result<(), EmitError> {
    let t = target.unwrap_or("_");
    match op {
        DecOp::UInt {
            size,
            signed,
            lo,
            hi,
            ..
        } => {
            src.line(&format!(
                "let {t} = nat::get_int::<{size}, {signed}>(r, {}, {})?;",
                lit_i128(*lo),
                lit_i128(*hi)
            ));
        }
        DecOp::Real { single, .. } => {
            src.line(&format!("let {t} = nat::get_real::<{single}>(r)?;"));
        }
        DecOp::Char { size, .. } => {
            src.line(&format!("let {t} = nat::get_char::<{size}>(r)?;"));
        }
        DecOp::Port { .. } => {
            src.line(&format!("let {t} = nat::get_port(r)?;"));
        }
        DecOp::Dynamic { .. } => {
            src.line(&format!("let {t} = nat::get_dynamic(r)?;"));
        }
        DecOp::IntoDynamic { tag, .. } => {
            let name = tag_name(prefix, tags, tag)?;
            src.line(&format!("let {t} = nat::get_into_dynamic(r, {name})?;"));
        }
        DecOp::Seq { elem, .. } => {
            src.line(&format!(
                "let {t} = nat::decode_seq(r, {prefix}_dec_n{elem}, depth)?;"
            ));
        }
        DecOp::Choice { arms, .. } => {
            src.line(&format!("let {t} = {{"));
            src.indent += 1;
            emit_dec_choice(src, prefix, arms)?;
            src.indent -= 1;
            src.line("};");
        }
        DecOp::Tag { expect } => {
            src.line(&format!("nat::expect_tag(r, {expect})?;"));
        }
    }
    Ok(())
}

/// Emits the discriminant read + `match` whose value is the decoded
/// alternative (the tail expression of the enclosing block).
fn emit_dec_choice(src: &mut Src<'_>, prefix: &str, arms: &[DecArm]) -> Result<(), EmitError> {
    src.line("let d = nat::get_disc(r)?;");
    src.line("match d {");
    src.indent += 1;
    for (idx, arm) in arms.iter().enumerate() {
        match arm {
            DecArm::Unmatched => {
                src.line(&format!("{idx} => return Err(nat::unmatched_disc({idx})),"));
            }
            DecArm::Leaf { wraps, node } if wraps.is_empty() => {
                src.line(&format!("{idx} => {prefix}_dec_n{node}(r, depth + 1)?,"));
            }
            DecArm::Leaf { wraps, node } => {
                src.line(&format!("{idx} => {{"));
                src.indent += 1;
                src.line(&format!("let x = {prefix}_dec_n{node}(r, depth + 1)?;"));
                // `wraps` is outermost-first; apply innermost-first.
                for &wi in wraps.iter().skip(1).rev() {
                    src.line(&format!("let x = nat::wrap({wi}, x);"));
                }
                src.line(&format!("nat::wrap({}, x)", wraps[0]));
                src.indent -= 1;
                src.line("}");
            }
            DecArm::Nested { arms } => {
                src.line(&format!("{idx} => {{"));
                src.indent += 1;
                emit_dec_choice(src, prefix, arms)?;
                src.indent -= 1;
                src.line("}");
            }
        }
    }
    src.line(&format!(
        "d => return Err(nat::bad_disc(d, {})),",
        arms.len()
    ));
    src.indent -= 1;
    src.line("}");
    Ok(())
}

/// Emits the post-order build as `let` bindings ending in `Ok(top)`.
/// Slot frames become bindings: a slot's value moves on first use and
/// later uses see `Unit`, exactly like the VM's `mem::replace`.
fn emit_build(
    src: &mut Src<'_>,
    view: &NodeView<'_>,
    build_used: &BTreeSet<u32>,
) -> Result<(), EmitError> {
    let written: BTreeSet<u32> = view.dec.iter().filter_map(dec_slot).collect();
    let mut stack: Vec<String> = Vec::new();
    let mut moved: BTreeSet<u32> = BTreeSet::new();
    let mut next_b = 0usize;
    let mut next_u = 0usize;
    let unit = |src: &mut Src<'_>, next_u: &mut usize| {
        let name = format!("u{next_u}");
        *next_u += 1;
        src.line(&format!("let {name} = MValue::Unit;"));
        name
    };
    for op in view.build {
        match op {
            BuildOp::Slot(s) => {
                let name = if written.contains(s) && build_used.contains(s) && moved.insert(*s) {
                    format!("s{s}")
                } else {
                    // Unwritten frame slot, or a second use after the
                    // move: the VM sees `Unit` here.
                    unit(src, &mut next_u)
                };
                stack.push(name);
            }
            BuildOp::Unit => stack.push(unit(src, &mut next_u)),
            BuildOp::Record { arity } => {
                let at = stack
                    .len()
                    .checked_sub(*arity as usize)
                    .ok_or_else(|| EmitError("malformed build program".into()))?;
                let items: Vec<String> = stack.drain(at..).collect();
                let name = format!("b{next_b}");
                next_b += 1;
                let line = format!("let {name} = MValue::Record(vec![{}]);", items.join(", "));
                if src.width(&line) > 99 {
                    return Err(EmitError("record build line exceeds emitter width".into()));
                }
                src.line(&line);
                stack.push(name);
            }
            BuildOp::Wrap { index } => {
                let inner = stack
                    .pop()
                    .ok_or_else(|| EmitError("malformed build program".into()))?;
                let name = format!("b{next_b}");
                next_b += 1;
                src.line(&format!("let {name} = nat::wrap({index}, {inner});"));
                stack.push(name);
            }
        }
    }
    match (stack.pop(), stack.is_empty()) {
        (Some(top), true) => {
            src.line(&format!("Ok({top})"));
            Ok(())
        }
        _ => Err(EmitError("malformed build program".into())),
    }
}

// -- registration ------------------------------------------------------

fn emit_register_all(out: &mut String, entries: &[(NativeKey, &WireProgram)]) {
    let mut src = Src { out, indent: 0 };
    src.blank();
    src.line("/// Installs every emitted stub under its nominal-fingerprint key;");
    src.line("/// returns the number of stubs registered.");
    src.line("pub fn register_all(reg: &NativeStubRegistry) -> usize {");
    src.indent += 1;
    for (key, program) in entries {
        let prefix = prefix_for(key);
        let equivalence = key.pair.mode == Mode::Equivalence;
        src.line("reg.register(");
        src.indent += 1;
        match key.kind {
            NativeProgramKind::Value => {
                src.line("nat::value_key(");
                src.indent += 1;
                src.line(&format!("{:#034x},", key.pair.left_fp));
                src.line(&format!("{:#034x},", key.pair.right_fp));
                src.line(&format!("{equivalence},"));
                src.line(&format!("{:#018x},", key.pair.rules_fp));
                src.indent -= 1;
                src.line("),");
                emit_value_stub(&mut src, &prefix, program);
            }
            NativeProgramKind::Identity => {
                src.line(&format!("nat::identity_key({:#034x}),", key.pair.left_fp));
                emit_value_stub(&mut src, &prefix, program);
            }
            NativeProgramKind::Invocation { reply_child } => {
                src.line("nat::invocation_key(");
                src.indent += 1;
                src.line(&format!("{:#034x},", key.pair.left_fp));
                src.line(&format!("{:#034x},", key.pair.right_fp));
                src.line(&format!("{equivalence},"));
                src.line(&format!("{:#018x},", key.pair.rules_fp));
                src.line(&format!("{reply_child},"));
                src.indent -= 1;
                src.line("),");
                src.line("NativeStub {");
                src.indent += 1;
                src.line("encode: None,");
                src.line(&format!(
                    "encode_invocation: Some({prefix}_encode_invocation),"
                ));
                src.line("decode: None,");
                src.indent -= 1;
                src.line("},");
            }
        }
        src.indent -= 1;
        src.line(");");
    }
    src.line(&format!("{}", entries.len()));
    src.indent -= 1;
    src.line("}");
}

/// The `NativeStub` literal of a value or identity program: encode,
/// and decode where the program is two-way.
fn emit_value_stub(src: &mut Src<'_>, prefix: &str, program: &WireProgram) {
    src.line("NativeStub {");
    src.indent += 1;
    src.line(&format!("encode: Some({prefix}_encode),"));
    src.line("encode_invocation: None,");
    if program.two_way() {
        src.line(&format!("decode: Some({prefix}_decode),"));
    } else {
        src.line("decode: None,");
    }
    src.indent -= 1;
    src.line("},");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mockingbird_comparer::{CacheKey, Comparer, RuleSet};
    use mockingbird_mtype::{IntRange, MtypeGraph, RealPrecision};
    use mockingbird_plan::CoercionPlan;
    use mockingbird_wire::{nominal_fingerprint, NativeStubRegistry};

    fn value_program(
        g: &MtypeGraph,
        l: mockingbird_mtype::MtypeId,
        r: mockingbird_mtype::MtypeId,
    ) -> Arc<WireProgram> {
        let corr = Comparer::new(g, g)
            .compare(l, r, Mode::Equivalence)
            .unwrap();
        let plan = CoercionPlan::new(g, g, corr, RuleSet::full(), Mode::Equivalence);
        Arc::new(WireProgram::compile_pair(&plan, l, r).unwrap())
    }

    fn key_for(
        g: &MtypeGraph,
        l: mockingbird_mtype::MtypeId,
        r: mockingbird_mtype::MtypeId,
    ) -> NativeKey {
        mockingbird_wire::native::value_key(
            nominal_fingerprint(g, l),
            nominal_fingerprint(g, r),
            true,
            RuleSet::full().fingerprint(),
        )
    }

    fn sample_entries() -> Vec<(NativeKey, Arc<WireProgram>)> {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let f = g.real(RealPrecision::SINGLE);
        let rec = g.record(vec![i, f]);
        let rev = g.record(vec![f, i]);
        let ch = g.choice(vec![i, rec]);
        let ch2 = g.choice(vec![i, rev]);
        let list = g.list_of(rec);
        let list2 = g.list_of(rev);
        vec![
            (key_for(&g, rec, rev), value_program(&g, rec, rev)),
            (key_for(&g, ch, ch2), value_program(&g, ch, ch2)),
            (key_for(&g, list, list2), value_program(&g, list, list2)),
        ]
    }

    #[test]
    fn emission_is_deterministic_and_order_independent() {
        let entries = sample_entries();
        let a = emit_native_module(&entries).unwrap();
        let b = emit_native_module(&entries).unwrap();
        assert_eq!(a, b, "same entries must emit byte-identical source");
        let mut rev: Vec<_> = entries.clone();
        rev.reverse();
        let c = emit_native_module(&rev).unwrap();
        assert_eq!(a, c, "entry order must not leak into the output");
    }

    #[test]
    fn emitted_source_has_entries_and_registration() {
        let entries = sample_entries();
        let text = emit_native_module(&entries).unwrap();
        assert!(text.starts_with("// @generated"));
        assert_eq!(text.matches("_encode(w: &mut CdrWriter").count(), 3);
        assert_eq!(text.matches("_decode(r: &mut CdrReader").count(), 3);
        assert_eq!(text.matches("reg.register(").count(), 3);
        assert!(text.contains("pub fn register_all(reg: &NativeStubRegistry) -> usize {"));
        assert!(text.trim_end().ends_with('}'));
        // Straight-line output: no VM loop artifacts, no tabs, and the
        // choice pair compiles to a direct `match`.
        assert!(!text.contains('\t'));
        assert!(text.contains("match i {"));
        assert!(text.contains("match d {"));
        assert!(text.contains("nat::put_int::<4>"));
        assert!(text.contains("nat::put_real::<true>"));
    }

    #[test]
    fn identity_programs_register_under_their_own_key() {
        let mut g = MtypeGraph::new();
        let f = g.real(RealPrecision::SINGLE);
        let point = g.record(vec![f, f]);
        let list = g.list_of(point);
        let rec = g.record(vec![list]);
        let identity = ProgramSource::Identity(&g, rec).key();
        let program = Arc::new(WireProgram::identity(&g, rec).unwrap());
        let mut entries = vec![(identity, program)];
        // The plan-compiled `T ≡ T` program of the same type is a
        // separate entry with its own functions.
        entries.push((key_for(&g, rec, rec), value_program(&g, rec, rec)));
        let text = emit_native_module(&entries).unwrap();
        assert_eq!(text.matches("reg.register(").count(), 2);
        assert_eq!(text.matches("// identity program ").count(), 1);
        assert!(text.contains(&format!(
            "nat::identity_key({:#034x}),",
            nominal_fingerprint(&g, rec)
        )));
        assert_eq!(text.matches("_decode(r: &mut CdrReader").count(), 2);
    }

    #[test]
    fn duplicate_keys_collapse() {
        let mut entries = sample_entries();
        entries.push(entries[0].clone());
        let text = emit_native_module(&entries).unwrap();
        assert_eq!(text.matches("reg.register(").count(), 3);
    }

    #[test]
    fn native_keys_match_the_program_cache_derivation() {
        use crate::stub::FunctionStub;
        let mut g = MtypeGraph::new();
        let (java, cfun) = mockingbird_corpus_free_fitter(&mut g);
        let corr = Comparer::new(&g, &g)
            .compare(java, cfun, Mode::Equivalence)
            .unwrap();
        let plan = Arc::new(CoercionPlan::new(
            &g,
            &g,
            corr,
            RuleSet::full(),
            Mode::Equivalence,
        ));
        let stub = FunctionStub::new(plan).unwrap();
        let (args, result) = native_keys_for(&stub);
        assert!(matches!(
            args.kind,
            NativeProgramKind::Invocation { reply_child: 1 }
        ));
        assert_eq!(result.kind, NativeProgramKind::Value);
        // Key parts equal the nominal cache derivation.
        let expect = CacheKey {
            left_fp: nominal_fingerprint(&g, stub.left_shape().output),
            right_fp: nominal_fingerprint(&g, stub.right_shape().output),
            mode: Mode::Equivalence,
            rules_fp: RuleSet::full().fingerprint(),
        };
        assert_eq!(result.pair, expect);
        assert_ne!(args.pair, result.pair);
    }

    /// The fitter pair without depending on the corpus crate (stubgen
    /// sits below it in the workspace graph).
    fn mockingbird_corpus_free_fitter(
        g: &mut MtypeGraph,
    ) -> (mockingbird_mtype::MtypeId, mockingbird_mtype::MtypeId) {
        let r = g.real(RealPrecision::SINGLE);
        let point = g.record(vec![r, r]);
        let line = g.record(vec![point, point]);
        let jlist = g.list_of(point);
        let java = g.function(vec![jlist], vec![line]);
        let clist = g.list_of(point);
        let cfun = g.function(vec![clist], vec![point, point]);
        (java, cfun)
    }

    #[test]
    fn registry_registration_from_emitted_keys() {
        // The register_all text references `nat::value_key` with the
        // same parts `lookup` recomputes; simulate that here.
        let entries = sample_entries();
        let reg = NativeStubRegistry::new();
        fn enc(
            _: &mut mockingbird_wire::CdrWriter,
            _: &mockingbird_values::MValue,
        ) -> Result<(), mockingbird_wire::CdrError> {
            Ok(())
        }
        for (k, _) in &entries {
            reg.register(
                *k,
                mockingbird_wire::NativeStub {
                    encode: Some(enc),
                    ..Default::default()
                },
            );
        }
        assert_eq!(reg.len(), 3);
        assert!(reg.lookup(&entries[1].0).unwrap().encode.is_some());
    }
}
