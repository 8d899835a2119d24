//! Fused wire programs: coercion plans compiled to flat opcode buffers.
//!
//! The paper's central claim is that the comparer's recorded
//! correspondence plus the concrete wire representations *determine* the
//! coercion, so stubs can run straight-line marshalling code instead of
//! interpreting the plan per call. This module is that compilation step
//! (the first Futamura projection of the plan interpreter): a
//! [`CoercionPlan`] pair is lowered **once** into a [`WireProgram`] — a
//! flat `Vec` of opcodes per program node — and each call then makes a
//! *single pass* over the native value, writing CDR bytes directly
//! (`marshal(native) → bytes`) or parsing bytes directly back into the
//! destination-side value (`bytes → unmarshal(native)`), with **no
//! intermediate `MValue` tree** on the fused path.
//!
//! Soundness posture: the interpretive pipeline
//! (`CoercionPlan::convert` + `CdrWriter::put_value` /
//! `CdrReader::get_value` + `convert_back`) remains the oracle. The
//! compiler only emits a program when it can replicate the interpreter's
//! behaviour exactly; anything it is not certain about — semantic
//! bridges, transparent singleton `Choice`s, nested-choice flattening
//! that diverges from the nominal alternatives — returns
//! [`Unsupported`] and the caller falls back to the oracle. Equivalence
//! is enforced by proptests in `tests/fused_programs.rs`.
//!
//! Program shape: a program is a vector of nodes; node 0 is the root.
//! Each node covers one matched `(left, right)` pair whose value is a
//! fresh *scope* (the whole message, one choice payload, one sequence
//! element). Record nesting is compiled away: leaf opcodes carry the
//! access path into the source value, and the emit order *is* the wire
//! order, so records cost nothing at run time. `Choice` opcodes carry a
//! dispatch table of arms; `Seq` opcodes reference the element node.
//! Recursive types tie the knot through the node table (a choice arm or
//! sequence element may reference an enclosing node), and the executors
//! carry a bounded recursion frame ([`crate::MAX_NESTING_DEPTH`]).
//!
//! Allocation: encode writes into the caller's buffer and allocates
//! nothing once that buffer has warmed. Decode allocates only what the
//! decoded value owns — one buffer per record and list, one box per
//! choice and dynamic — because one [`WireProgram::decode_value`] call
//! runs every node on a single shared slot frame and build stack.
//! Sequence counts the body cannot back fail before any allocation
//! ([`crate::MAX_ZERO_WIDTH_SEQUENCE`]).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use mockingbird_artifact::{ArtifactKind, ArtifactStore};
use mockingbird_comparer::{
    resolve_transparent, CacheKey, Entry, PrimCoercion, RecordFlatten, RuleSet,
};
use mockingbird_mtype::canon::flatten_choice;
use mockingbird_mtype::{IntRange, MtypeGraph, MtypeId, MtypeKind, RealPrecision, Repertoire};
use mockingbird_plan::CoercionPlan;
use mockingbird_values::mvalue::list_element_type;
use mockingbird_values::{MValue, PortRef};

use crate::cdr::{mask, sign_extend, CdrError, CdrReader, CdrWriter};
use crate::native::raw_uint;
use crate::MAX_NESTING_DEPTH;

/// Why the program compiler declined a pair. Every decline carries one
/// of these classes so batch pipelines can attribute interpretive
/// fallbacks instead of reporting an opaque count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum FallbackKind {
    /// Semantic bridges run hand-written converters.
    Semantic,
    /// A transparent singleton-choice chain the compiler cannot replay
    /// (e.g. a dedup-collapsed singleton with several nominal children).
    TransparentChoice,
    /// The comparer's flattened choice view cannot be reconciled with
    /// the nominal alternative tree.
    ChoiceShape,
    /// A list spine matched against a non-list choice.
    ListShape,
    /// A record cycle with no intervening choice (cannot be inlined).
    RecordCycle,
    /// An integer range wider than 64 bits.
    WideInt,
    /// The program would exceed the node-table budget.
    NodeBudget,
    /// Record nesting exceeds the supported depth.
    DepthBound,
    /// The correspondence entry has a shape the compiler cannot replay
    /// (flatten/permutation divergence, unresolved binders, ...).
    EntryShape,
}

impl FallbackKind {
    /// Number of known kinds (sizing per-kind counter arrays).
    pub const COUNT: usize = 9;

    /// Dense index of this kind inside [`FallbackKind::all`].
    #[must_use]
    pub fn index(self) -> usize {
        FallbackKind::all()
            .iter()
            .position(|&k| k == self)
            .expect("every kind appears in all()")
    }

    /// Stable snake_case label (log lines, JSON reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FallbackKind::Semantic => "semantic_bridge",
            FallbackKind::TransparentChoice => "transparent_choice",
            FallbackKind::ChoiceShape => "choice_shape",
            FallbackKind::ListShape => "list_shape",
            FallbackKind::RecordCycle => "record_cycle",
            FallbackKind::WideInt => "wide_int",
            FallbackKind::NodeBudget => "node_budget",
            FallbackKind::DepthBound => "depth_bound",
            FallbackKind::EntryShape => "entry_shape",
        }
    }

    /// Every kind, in label order (for zero-filled breakdowns).
    #[must_use]
    pub fn all() -> &'static [FallbackKind] {
        &[
            FallbackKind::Semantic,
            FallbackKind::TransparentChoice,
            FallbackKind::ChoiceShape,
            FallbackKind::ListShape,
            FallbackKind::RecordCycle,
            FallbackKind::WideInt,
            FallbackKind::NodeBudget,
            FallbackKind::DepthBound,
            FallbackKind::EntryShape,
        ]
    }
}

impl fmt::Display for FallbackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The compiler declined this pair; callers fall back to the
/// interpretive oracle. Carries the decline class ([`FallbackKind`])
/// plus a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported {
    /// The decline class, for fallback attribution.
    pub kind: FallbackKind,
    /// Human-readable detail.
    pub reason: String,
}

impl Unsupported {
    /// A new decline with an explicit class.
    pub fn new(kind: FallbackKind, reason: impl Into<String>) -> Self {
        Unsupported {
            kind,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan not compilable to a wire program: {}", self.reason)
    }
}

impl std::error::Error for Unsupported {}

fn unsup<T>(kind: FallbackKind, m: impl Into<String>) -> Result<T, Unsupported> {
    Err(Unsupported::new(kind, m))
}

fn err<T>(m: impl Into<String>) -> Result<T, CdrError> {
    Err(CdrError(m.into()))
}

/// A nominal-record access path into the source value (child indexes).
/// [`STEP_CHOICE0`] entries step through a transparent singleton-choice
/// wrapper instead of a record field.
pub type Path = Box<[u16]>;

/// Path sentinel: descend through a `Choice { index: 0 }` wrapper (a
/// transparent singleton layer the comparer resolved through). Values
/// produced against the collapsed view pass through unchanged, matching
/// the interpreter's lenient unwrap.
pub const STEP_CHOICE0: u16 = u16::MAX;

/// One encode-side opcode: fetch the source sub-value at `path` (record
/// child indexes from the node's scope value) and write it in the
/// destination representation. Ops run in wire order.
#[derive(Debug, Clone, PartialEq)]
pub enum EncOp {
    /// Fixed-width integer in the destination's representation, with the
    /// destination's range check (mirrors `CdrWriter::put_value`).
    UInt {
        size: u8,
        lo: i128,
        hi: i128,
        path: Path,
    },
    /// IEEE real; `single` selects the 4-byte representation.
    Real { single: bool, path: Path },
    /// Character code in a 1- or 4-byte repertoire.
    Char { size: u8, path: Path },
    /// Unit: writes nothing, but the value must be `Unit`.
    Unit { path: Path },
    /// 64-bit port reference.
    Port { path: Path },
    /// Dynamic passthrough: tag string + MBP payload, written in place.
    Dynamic { path: Path },
    /// Inject an arbitrary value into a Dynamic target with a
    /// compile-time tag (subtype mode's `IntoDynamic` coercion).
    IntoDynamic { tag: Arc<str>, path: Path },
    /// `u32` count + elements, each through the element node.
    Seq { elem: u32, path: Path },
    /// Destination discriminant(s) + payload through the arm's node.
    /// Arms are indexed by the *source* nominal choice index; nested
    /// arms replay flattened-through inner choices.
    Choice { arms: Box<[EncArm]>, path: Path },
    /// A compile-time constant `u32` discriminant (a transparent
    /// singleton wrapper the destination side re-adds). Reads nothing
    /// from the source value.
    Tag { value: u32 },
}

/// One encode dispatch-table arm, indexed by the source value's nominal
/// choice index at its level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncArm {
    /// The comparer left this alternative unmatched; taking it errors,
    /// like the oracle.
    Unmatched,
    /// A matched alternative: write the destination's nominal
    /// discriminant chain (`tags`, outermost first), then the payload
    /// through `node`.
    Leaf { tags: Box<[u32]>, node: u32 },
    /// A nested choice the comparer's flatten descended through:
    /// dispatch again on the inner value without consuming wire bytes.
    Nested { arms: Box<[EncArm]> },
}

/// One decode-side opcode: parse bytes in wire order and store the
/// (already destination-side) value into a slot of the node frame.
#[derive(Debug, Clone, PartialEq)]
pub enum DecOp {
    UInt {
        size: u8,
        signed: bool,
        lo: i128,
        hi: i128,
        slot: u32,
    },
    Real {
        single: bool,
        slot: u32,
    },
    Char {
        size: u8,
        slot: u32,
    },
    Port {
        slot: u32,
    },
    /// Dynamic passthrough: tag + MBP payload.
    Dynamic {
        slot: u32,
    },
    /// Backward `IntoDynamic`: parse the wire Dynamic, then wrap it with
    /// the compile-time destination tag (replicating the oracle).
    IntoDynamic {
        tag: Arc<str>,
        slot: u32,
    },
    Seq {
        elem: u32,
        slot: u32,
    },
    /// Arms indexed by the wire discriminant(s).
    Choice {
        arms: Box<[DecArm]>,
        slot: u32,
    },
    /// A constant wire discriminant (a transparent singleton wrapper on
    /// the wire side): read a `u32` and require it to equal `expect`.
    Tag {
        expect: u32,
    },
}

/// One decode dispatch-table arm, indexed by the wire discriminant at
/// its level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecArm {
    /// A wire alternative with no backward counterpart; erroring, like
    /// the oracle.
    Unmatched,
    /// A matched alternative: parse the payload through `node`, then
    /// wrap it in the destination's nominal choice chain (`wraps`,
    /// outermost first).
    Leaf { wraps: Box<[u32]>, node: u32 },
    /// A nested wire choice flattened through by the comparer: read
    /// another discriminant and dispatch again.
    Nested { arms: Box<[DecArm]> },
}

/// Post-order value builder: after a node's `DecOp`s fill the slot
/// frame, these reconstruct the destination-side nominal value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildOp {
    /// Push the slot's value.
    Slot(u32),
    /// Push `Unit` (a unit-eliminated or leaf unit position).
    Unit,
    /// Pop `arity` values, push a `Record` of them in push order.
    Record { arity: u32 },
    /// Pop one value, push `Choice { index, value }` (re-adding a
    /// transparent singleton wrapper the comparer resolved through).
    Wrap { index: u32 },
}

/// One compiled scope: a matched pair's opcode buffers.
#[derive(Debug, Clone, Default, PartialEq)]
struct Node {
    enc: Vec<EncOp>,
    dec: Vec<DecOp>,
    build: Vec<BuildOp>,
    slots: u32,
}

/// A compiled wire program for one matched pair of a plan (or one type,
/// for the identity case): encode runs source value → destination CDR
/// bytes in one pass; decode runs wire bytes → source-side value in one
/// pass (equivalence plans only).
#[derive(Debug, Clone, PartialEq)]
pub struct WireProgram {
    nodes: Vec<Node>,
    /// Whether the decode direction was compiled (false for subtype
    /// plans and reply-port-elided argument programs).
    two_way: bool,
}

impl WireProgram {
    /// Compiles the plan at its roots. See [`WireProgram::compile_pair`].
    ///
    /// # Errors
    ///
    /// Returns [`Unsupported`] when the pair needs the interpreter.
    pub fn compile(plan: &CoercionPlan) -> Result<WireProgram, Unsupported> {
        Self::compile_pair(plan, plan.left_root(), plan.right_root())
    }

    /// Compiles the plan at an interior matched pair: encode converts a
    /// left-side value and writes the right-side CDR bytes; decode (for
    /// equivalence plans) parses right-side bytes back into a left-side
    /// value.
    ///
    /// # Errors
    ///
    /// Returns [`Unsupported`] when the pair needs the interpreter.
    pub fn compile_pair(
        plan: &CoercionPlan,
        l: MtypeId,
        r: MtypeId,
    ) -> Result<WireProgram, Unsupported> {
        Compiler::new(Source::Planned(plan)).finish(l, r, None)
    }

    /// As [`WireProgram::compile_pair`] for an invocation-record pair,
    /// eliding the destination child at `skip_right_child` (the reply
    /// port, which never crosses the wire). The result is encode-only.
    ///
    /// # Errors
    ///
    /// Returns [`Unsupported`] when the pair needs the interpreter.
    pub fn compile_invocation(
        plan: &CoercionPlan,
        l: MtypeId,
        r: MtypeId,
        skip_right_child: usize,
    ) -> Result<WireProgram, Unsupported> {
        Compiler::new(Source::Planned(plan)).finish(l, r, Some(skip_right_child))
    }

    /// Compiles the identity program for one type: the fused equivalent
    /// of `put_value`/`get_value` with no coercion (the runtime's
    /// `WireOp` path, where both ends share the Mtype).
    ///
    /// # Errors
    ///
    /// Returns [`Unsupported`] for types the compiler declines (e.g.
    /// record cycles with no intervening choice).
    pub fn identity(graph: &MtypeGraph, ty: MtypeId) -> Result<WireProgram, Unsupported> {
        Compiler::new(Source::Identity(graph)).finish(ty, ty, None)
    }

    /// Whether the decode direction is available.
    pub fn two_way(&self) -> bool {
        self.two_way
    }

    /// Number of compiled scopes (root + choice arms + sequence
    /// elements).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// One-pass fused marshal: writes the destination-side CDR bytes of
    /// the source-side `value`. Allocation-free once the writer's buffer
    /// has warmed to the message size.
    ///
    /// # Errors
    ///
    /// Returns [`CdrError`] when the value does not inhabit the source
    /// type or an unmatched alternative is taken.
    pub fn encode_value(&self, w: &mut CdrWriter, value: &MValue) -> Result<(), CdrError> {
        self.run_enc(0, Scope::Value(value), w, 0)
    }

    /// One-pass fused marshal for an invocation program (see
    /// [`WireProgram::compile_invocation`]): encodes straight from the
    /// borrowed input slice, treating it as the source invocation record
    /// with a placeholder reply port at `reply_index` — no values are
    /// cloned or assembled.
    ///
    /// # Errors
    ///
    /// As [`encode_value`](WireProgram::encode_value).
    pub fn encode_invocation(
        &self,
        w: &mut CdrWriter,
        inputs: &[MValue],
        reply_index: usize,
    ) -> Result<(), CdrError> {
        self.run_enc(
            0,
            Scope::Invocation {
                inputs,
                reply_index,
            },
            w,
            0,
        )
    }

    /// One-pass fused unmarshal: parses destination-side CDR bytes into
    /// the source-side value.
    ///
    /// The whole call runs on one slot frame and one build stack: each
    /// node the recursion enters claims its slots at a base offset of
    /// the shared frame, and each record is split off the shared stack
    /// into a buffer of exactly its arity. Decoding therefore allocates
    /// only what the decoded value owns (one buffer per record and list,
    /// one box per choice and dynamic) plus the frame and stack
    /// themselves: an `N`-element sequence of flat records costs
    /// `N + c` allocations, with `c` fixed by the type.
    ///
    /// # Errors
    ///
    /// Returns [`CdrError`] on truncation, range violations, or when the
    /// program was compiled one-way.
    pub fn decode_value(&self, r: &mut CdrReader<'_>) -> Result<MValue, CdrError> {
        if !self.two_way {
            return err("this wire program was compiled one-way (encode only)");
        }
        self.run_dec(0, r, &mut DecFrame::new(), 0)
    }

    fn run_enc(
        &self,
        node: u32,
        scope: Scope<'_>,
        w: &mut CdrWriter,
        depth: usize,
    ) -> Result<(), CdrError> {
        if depth > MAX_NESTING_DEPTH {
            return err("value nesting exceeds supported depth");
        }
        for op in &self.nodes[node as usize].enc {
            match op {
                EncOp::UInt { size, lo, hi, path } => {
                    let MValue::Int(v) = scope.nav(path)? else {
                        return err("expected an integer value");
                    };
                    if *v < *lo || *v > *hi {
                        return err(format!("integer {v} outside range {lo}..={hi}"));
                    }
                    w.put_uint(*size as usize, *v as u64 & mask(*size as usize));
                }
                EncOp::Real { single, path } => {
                    let MValue::Real(v) = scope.nav(path)? else {
                        return err("expected a real value");
                    };
                    if *single {
                        w.put_uint(4, (*v as f32).to_bits() as u64);
                    } else {
                        w.put_uint(8, v.to_bits());
                    }
                }
                EncOp::Char { size, path } => {
                    let MValue::Char(c) = scope.nav(path)? else {
                        return err("expected a character value");
                    };
                    let code = *c as u32;
                    if *size == 1 && code > 0xFF {
                        return err(format!(
                            "character {c:?} not representable in 1-byte repertoire"
                        ));
                    }
                    w.put_uint(*size as usize, code as u64);
                }
                EncOp::Unit { path } => {
                    let MValue::Unit = scope.nav(path)? else {
                        return err("expected a unit value");
                    };
                }
                EncOp::Port { path } => {
                    let MValue::Port(PortRef(id)) = scope.nav(path)? else {
                        return err("expected a port reference");
                    };
                    w.put_uint(8, *id);
                }
                EncOp::Dynamic { path } => {
                    let MValue::Dynamic { tag, value } = scope.nav(path)? else {
                        return err("expected a dynamic value");
                    };
                    w.put_bytes(tag.as_bytes());
                    w.put_prefixed(|buf| crate::mbp::encode_into(buf, value));
                }
                EncOp::IntoDynamic { tag, path } => {
                    let v = scope.nav(path)?;
                    w.put_bytes(tag.as_bytes());
                    w.put_prefixed(|buf| crate::mbp::encode_into(buf, v));
                }
                EncOp::Seq { elem, path } => {
                    let v = scope.nav(path)?;
                    match v {
                        MValue::List(items) => {
                            w.put_uint(4, items.len() as u64);
                            let start = w.len();
                            for item in items {
                                self.run_enc(*elem, Scope::Value(item), w, depth + 1)?;
                            }
                            w.finish_seq(items.len(), start)?;
                        }
                        // Choice-chain spines are accepted like
                        // `put_value`: count, then emit — two walks, no
                        // allocation.
                        MValue::Choice { .. } => {
                            let n = chain_len(v)?;
                            w.put_uint(4, n as u64);
                            let start = w.len();
                            let mut cur = v;
                            loop {
                                match cur {
                                    MValue::Choice { index: 0, .. } => {
                                        w.finish_seq(n, start)?;
                                        break;
                                    }
                                    MValue::Choice { index: 1, value } => match value.as_ref() {
                                        MValue::Record(cell) if cell.len() == 2 => {
                                            self.run_enc(
                                                *elem,
                                                Scope::Value(&cell[0]),
                                                w,
                                                depth + 1,
                                            )?;
                                            cur = &cell[1];
                                        }
                                        other => {
                                            return err(format!(
                                                "malformed list cons cell: {other}"
                                            ))
                                        }
                                    },
                                    other => return err(format!("malformed list spine: {other}")),
                                }
                            }
                        }
                        other => return err(format!("expected a list value, got {other}")),
                    }
                }
                EncOp::Choice { arms, path } => {
                    self.enc_choice(arms, scope.nav(path)?, w, depth)?;
                }
                EncOp::Tag { value } => {
                    w.put_uint(4, *value as u64);
                }
            }
        }
        Ok(())
    }

    /// Dispatches one (possibly nested) encode choice: the value's
    /// nominal index selects an arm; nested arms descend into inner
    /// choice wrappers the comparer's flatten collapsed.
    fn enc_choice(
        &self,
        arms: &[EncArm],
        v: &MValue,
        w: &mut CdrWriter,
        depth: usize,
    ) -> Result<(), CdrError> {
        let MValue::Choice { index, value } = v else {
            return err("expected a choice value");
        };
        let Some(arm) = arms.get(*index) else {
            return err(format!("choice index {index} out of {}", arms.len()));
        };
        match arm {
            EncArm::Unmatched => err(format!(
                "alternative {index} was not matched by the comparer"
            )),
            EncArm::Leaf { tags, node } => {
                for t in tags.iter() {
                    w.put_uint(4, *t as u64);
                }
                self.run_enc(*node, Scope::Value(value), w, depth + 1)
            }
            EncArm::Nested { arms } => self.enc_choice(arms, value, w, depth),
        }
    }

    fn run_dec(
        &self,
        node: u32,
        r: &mut CdrReader<'_>,
        f: &mut DecFrame,
        depth: usize,
    ) -> Result<MValue, CdrError> {
        if depth > MAX_NESTING_DEPTH {
            return err("type nesting exceeds supported depth");
        }
        let n = &self.nodes[node as usize];
        let base = f.slots.len();
        f.slots
            .resize_with(base + n.slots as usize, || MValue::Unit);
        for op in &n.dec {
            let (slot, value) = match op {
                DecOp::UInt {
                    size,
                    signed,
                    lo,
                    hi,
                    slot,
                } => {
                    let raw = get_sized(r, *size)?;
                    let v: i128 = if *signed {
                        sign_extend(raw, *size as usize) as i128
                    } else {
                        raw as i128
                    };
                    if v < *lo || v > *hi {
                        return err(format!("decoded integer {v} outside range {lo}..={hi}"));
                    }
                    (slot, MValue::Int(v))
                }
                DecOp::Real { single, slot } => {
                    let v = if *single {
                        f32::from_bits(raw_uint::<4>(r)? as u32) as f64
                    } else {
                        f64::from_bits(raw_uint::<8>(r)?)
                    };
                    (slot, MValue::Real(v))
                }
                DecOp::Char { size, slot } => {
                    let code = get_sized(r, *size)? as u32;
                    let Some(c) = char::from_u32(code) else {
                        return err(format!("invalid character code {code}"));
                    };
                    (slot, MValue::Char(c))
                }
                DecOp::Port { slot } => (slot, MValue::Port(PortRef(raw_uint::<8>(r)?))),
                DecOp::Dynamic { slot } => (slot, parse_dynamic(r)?),
                DecOp::IntoDynamic { tag, slot } => {
                    let inner = parse_dynamic(r)?;
                    let v = MValue::Dynamic {
                        tag: tag.to_string(),
                        value: Box::new(inner),
                    };
                    (slot, v)
                }
                DecOp::Seq { elem, slot } => {
                    let count = r.get_seq_len()?;
                    let mut items = Vec::with_capacity(count.min(1 << 16));
                    for _ in 0..count {
                        items.push(self.run_dec(*elem, r, f, depth + 1)?);
                    }
                    (slot, MValue::List(items))
                }
                DecOp::Choice { arms, slot } => (slot, self.dec_choice(arms, r, f, depth)?),
                DecOp::Tag { expect } => {
                    let disc = raw_uint::<4>(r)? as u32;
                    if disc != *expect {
                        return err(format!(
                            "wire discriminant {disc} where the singleton wrapper requires {expect}"
                        ));
                    }
                    continue;
                }
            };
            f.slots[base + *slot as usize] = value;
        }
        // Every recursive call returned during the ops above, so the
        // shared stack is empty and holds only this node's values below.
        debug_assert!(f.stack.is_empty());
        for op in &n.build {
            match op {
                BuildOp::Slot(s) => {
                    let v = std::mem::replace(&mut f.slots[base + *s as usize], MValue::Unit);
                    f.stack.push(v);
                }
                BuildOp::Unit => f.stack.push(MValue::Unit),
                BuildOp::Record { arity } => {
                    let at = f
                        .stack
                        .len()
                        .checked_sub(*arity as usize)
                        .ok_or_else(|| CdrError("malformed build program".into()))?;
                    let items = f.stack.split_off(at);
                    f.stack.push(MValue::Record(items));
                }
                BuildOp::Wrap { index } => {
                    let inner = f
                        .stack
                        .pop()
                        .ok_or_else(|| CdrError("malformed build program".into()))?;
                    f.stack.push(MValue::Choice {
                        index: *index as usize,
                        value: Box::new(inner),
                    });
                }
            }
        }
        f.slots.truncate(base);
        match (f.stack.pop(), f.stack.is_empty()) {
            (Some(v), true) => Ok(v),
            _ => err("malformed build program"),
        }
    }

    /// Dispatches one (possibly nested) decode choice: wire
    /// discriminants select arms level by level; the leaf's payload is
    /// re-wrapped in the destination's nominal choice chain.
    fn dec_choice(
        &self,
        arms: &[DecArm],
        r: &mut CdrReader<'_>,
        f: &mut DecFrame,
        depth: usize,
    ) -> Result<MValue, CdrError> {
        let disc = raw_uint::<4>(r)? as usize;
        let Some(arm) = arms.get(disc) else {
            return err(format!("choice discriminant {disc} out of {}", arms.len()));
        };
        match arm {
            DecArm::Unmatched => err(format!("alternative {disc} has no backward counterpart")),
            DecArm::Leaf { wraps, node } => {
                let value = self.run_dec(*node, r, f, depth + 1)?;
                Ok(wraps.iter().rev().fold(value, |acc, &i| MValue::Choice {
                    index: i as usize,
                    value: Box::new(acc),
                }))
            }
            DecArm::Nested { arms } => self.dec_choice(arms, r, f, depth),
        }
    }
}

/// The working memory of one [`WireProgram::decode_value`] call, shared
/// by every node the recursion enters: a node's slots live at a base
/// offset of `slots` (claimed on entry, released on exit), and its build
/// ops run on `stack`, which every node leaves empty.
struct DecFrame {
    slots: Vec<MValue>,
    stack: Vec<MValue>,
}

impl DecFrame {
    /// Both vectors start at eight entries, the size of the build stack
    /// each node used to allocate for itself, so typical messages decode
    /// without regrowing the frame. (Starting empty measured about
    /// 0.2 MB more peak RSS on perfbench's `call_small` workload, on a
    /// 2-vCPU host.)
    fn new() -> Self {
        DecFrame {
            slots: Vec::with_capacity(8),
            stack: Vec::with_capacity(8),
        }
    }
}

/// A `size`-byte unsigned read through the fixed-width reader of each
/// CDR primitive width.
#[inline]
fn get_sized(r: &mut CdrReader<'_>, size: u8) -> Result<u64, CdrError> {
    match size {
        1 => raw_uint::<1>(r),
        2 => raw_uint::<2>(r),
        4 => raw_uint::<4>(r),
        8 => raw_uint::<8>(r),
        _ => r.get_uint(size as usize),
    }
}

/// What an encode node's paths navigate from: a materialized value, or
/// a virtual invocation record over a borrowed input slice with the
/// reply-port hole filled by a placeholder. The latter lets client stubs
/// marshal straight from `&[MValue]` inputs without cloning them into a
/// temporary record.
#[derive(Clone, Copy)]
enum Scope<'v> {
    Value(&'v MValue),
    Invocation {
        inputs: &'v [MValue],
        reply_index: usize,
    },
}

static PLACEHOLDER_REPLY: MValue = MValue::Port(PortRef(0));

impl<'v> Scope<'v> {
    fn nav(self, path: &[u16]) -> Result<&'v MValue, CdrError> {
        match self {
            Scope::Value(v) => nav(v, path),
            Scope::Invocation {
                inputs,
                reply_index,
            } => {
                let Some((&first, rest)) = path.split_first() else {
                    return err("invocation scope reached without a field path");
                };
                let i = first as usize;
                let v = if i == reply_index {
                    &PLACEHOLDER_REPLY
                } else {
                    let idx = if i > reply_index { i - 1 } else { i };
                    inputs
                        .get(idx)
                        .ok_or_else(|| CdrError(format!("invocation lacks input for field {i}")))?
                };
                nav(v, rest)
            }
        }
    }
}

/// Navigates a nominal record path from the scope value.
/// [`STEP_CHOICE0`] steps descend through transparent singleton-choice
/// wrappers: a `Choice { index: 0 }` is unwrapped, any other index
/// errors (the wrapper has exactly one alternative), and a non-choice
/// value passes through unchanged — the interpreter's lenient unwrap
/// for values produced against the collapsed view.
fn nav<'v>(scope: &'v MValue, path: &[u16]) -> Result<&'v MValue, CdrError> {
    let mut cur = scope;
    for &i in path {
        if i == STEP_CHOICE0 {
            match cur {
                MValue::Choice { index: 0, value } => cur = value,
                MValue::Choice { index, .. } => {
                    return err(format!("choice index {index} out of 1"));
                }
                _ => {}
            }
            continue;
        }
        let MValue::Record(items) = cur else {
            return err(format!("expected a record value, got {cur}"));
        };
        cur = items
            .get(i as usize)
            .ok_or_else(|| CdrError(format!("record value lacks field {i}")))?;
    }
    Ok(cur)
}

fn chain_len(v: &MValue) -> Result<usize, CdrError> {
    let mut n = 0usize;
    let mut cur = v;
    loop {
        match cur {
            MValue::Choice { index: 0, .. } => return Ok(n),
            MValue::Choice { index: 1, value } => match value.as_ref() {
                MValue::Record(cell) if cell.len() == 2 => {
                    n += 1;
                    cur = &cell[1];
                }
                other => return err(format!("malformed list cons cell: {other}")),
            },
            other => return err(format!("malformed list spine: {other}")),
        }
    }
}

fn parse_dynamic(r: &mut CdrReader<'_>) -> Result<MValue, CdrError> {
    let tag = String::from_utf8_lossy(r.get_bytes()?).into_owned();
    let payload = r.get_bytes()?;
    let value =
        crate::mbp::decode(payload).map_err(|e| CdrError(format!("dynamic payload: {e}")))?;
    Ok(MValue::Dynamic {
        tag,
        value: Box::new(value),
    })
}

fn int_repr(r: &IntRange) -> Result<(u8, bool), Unsupported> {
    if r.lo >= 0 {
        Ok(if r.hi <= u8::MAX as i128 {
            (1, false)
        } else if r.hi <= u16::MAX as i128 {
            (2, false)
        } else if r.hi <= u32::MAX as i128 {
            (4, false)
        } else if r.hi <= u64::MAX as i128 {
            (8, false)
        } else {
            return unsup(FallbackKind::WideInt, "integer range exceeds 64 bits");
        })
    } else {
        Ok(if r.lo >= i8::MIN as i128 && r.hi <= i8::MAX as i128 {
            (1, true)
        } else if r.lo >= i16::MIN as i128 && r.hi <= i16::MAX as i128 {
            (2, true)
        } else if r.lo >= i32::MIN as i128 && r.hi <= i32::MAX as i128 {
            (4, true)
        } else if r.lo >= i64::MIN as i128 && r.hi <= i64::MAX as i128 {
            (8, true)
        } else {
            return unsup(FallbackKind::WideInt, "integer range exceeds 64 bits");
        })
    }
}

fn char_size(rep: &Repertoire) -> u8 {
    match rep {
        Repertoire::Ascii | Repertoire::Latin1 => 1,
        Repertoire::Unicode | Repertoire::Custom(_) => 4,
    }
}

/// What the compiler specializes against.
enum Source<'p> {
    /// A coercion plan: the pair's entries drive the lowering.
    Planned(&'p CoercionPlan),
    /// No coercion: both ends share the graph and type.
    Identity(&'p MtypeGraph),
}

struct Compiler<'p> {
    source: Source<'p>,
    nodes: Vec<Node>,
    memo: HashMap<(MtypeId, MtypeId), u32>,
    /// Record pairs currently being inlined; re-entering one means a
    /// record cycle with no intervening choice, which we decline.
    inline_stack: Vec<(MtypeId, MtypeId)>,
    two_way: bool,
}

impl<'p> Compiler<'p> {
    fn new(source: Source<'p>) -> Self {
        let two_way = match &source {
            Source::Planned(p) => p.mode() == mockingbird_comparer::Mode::Equivalence,
            Source::Identity(_) => true,
        };
        Compiler {
            source,
            nodes: Vec::new(),
            memo: HashMap::new(),
            inline_stack: Vec::new(),
            two_way,
        }
    }

    fn rules(&self) -> RuleSet {
        match &self.source {
            Source::Planned(p) => p.rules().clone(),
            Source::Identity(_) => RuleSet::full(),
        }
    }

    fn finish(
        mut self,
        l: MtypeId,
        r: MtypeId,
        skip_right_child: Option<usize>,
    ) -> Result<WireProgram, Unsupported> {
        if skip_right_child.is_some() {
            // Eliding a destination child leaves the decode direction
            // without a source for that slot; the program is encode-only.
            self.two_way = false;
        }
        self.nodes.push(Node::default());
        let build = self.emit_pair(l, r, &mut Vec::new(), 0, skip_right_child)?;
        self.nodes[0].build = build;
        Ok(WireProgram {
            nodes: self.nodes,
            two_way: self.two_way,
        })
    }

    /// Compiles `(l, r)` as a fresh scope, memoized so recursive types
    /// tie back into the node table. The scope starts with an empty inline
    /// stack: a cycle back to a record its callers inline is tied here.
    fn compile_node(&mut self, l: MtypeId, r: MtypeId) -> Result<u32, Unsupported> {
        let key = (self.left_graph().resolve(l), self.right_graph().resolve(r));
        if let Some(&id) = self.memo.get(&key) {
            return Ok(id);
        }
        let id = self.nodes.len() as u32;
        if id as usize > MAX_NODES {
            return unsup(
                FallbackKind::NodeBudget,
                "program node table exceeds 4096 scopes",
            );
        }
        self.nodes.push(Node::default());
        self.memo.insert(key, id);
        let outer = std::mem::take(&mut self.inline_stack);
        self.nodes[id as usize].build = self.emit_pair(l, r, &mut Vec::new(), id, None)?;
        self.inline_stack = outer;
        Ok(id)
    }

    fn left_graph(&self) -> &MtypeGraph {
        match &self.source {
            Source::Planned(p) => p.left_graph(),
            Source::Identity(g) => g,
        }
    }

    fn right_graph(&self) -> &MtypeGraph {
        match &self.source {
            Source::Planned(p) => p.right_graph(),
            Source::Identity(g) => g,
        }
    }

    fn slot(&mut self, node: u32) -> u32 {
        let n = &mut self.nodes[node as usize];
        let s = n.slots;
        n.slots += 1;
        s
    }

    /// Emits the ops for one matched pair into `node`, with `prefix` as
    /// the source access path; returns the pair's build fragment.
    fn emit_pair(
        &mut self,
        l: MtypeId,
        r: MtypeId,
        prefix: &mut Vec<u16>,
        node: u32,
        skip_right_child: Option<usize>,
    ) -> Result<Vec<BuildOp>, Unsupported> {
        match &self.source {
            Source::Planned(plan) => {
                let plan = *plan;
                let rules = self.rules();
                let lg = plan.left_graph();
                let rg = plan.right_graph();
                let lr0 = lg.resolve(l);
                let rr0 = rg.resolve(r);
                let lr = resolve_transparent(lg, &rules, lr0);
                let rr = resolve_transparent(rg, &rules, rr0);
                // Transparent singleton choices make the interpreter
                // unwrap source-side wrappers and re-add destination-side
                // ones; replay both as compile-time chains. Chains the
                // rewrap would not walk child-by-child (dedup-collapsed
                // singletons with several nominal children) are declined.
                let lwraps = transparent_chain(lg, &rules, lr0, lr)?;
                let rwraps = transparent_chain(rg, &rules, rr0, rr)?;
                let saved = prefix.len();
                for _ in 0..lwraps {
                    prefix.push(STEP_CHOICE0);
                }
                for _ in 0..rwraps {
                    self.nodes[node as usize].enc.push(EncOp::Tag { value: 0 });
                    if self.two_way {
                        self.nodes[node as usize].dec.push(DecOp::Tag { expect: 0 });
                    }
                }
                let entry = plan
                    .matched_entry(lr, rr)
                    .map_err(|e| Unsupported::new(FallbackKind::EntryShape, e.to_string()))?;
                let result =
                    self.emit_entry(plan, &rules, lr, rr, entry, prefix, node, skip_right_child);
                prefix.truncate(saved);
                let mut build = result?;
                if self.two_way {
                    for _ in 0..lwraps {
                        build.push(BuildOp::Wrap { index: 0 });
                    }
                }
                Ok(build)
            }
            Source::Identity(g) => {
                let g = *g;
                self.emit_identity(g, l, prefix, node)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_entry(
        &mut self,
        plan: &CoercionPlan,
        rules: &RuleSet,
        lr: MtypeId,
        rr: MtypeId,
        entry: Entry,
        prefix: &mut Vec<u16>,
        node: u32,
        skip_right_child: Option<usize>,
    ) -> Result<Vec<BuildOp>, Unsupported> {
        let lg = plan.left_graph();
        let rg = plan.right_graph();
        match entry {
            Entry::Semantic => unsup(
                FallbackKind::Semantic,
                "semantic bridges run hand-written converters",
            ),
            Entry::Prim(pc) => {
                let path: Path = prefix.as_slice().into();
                match pc {
                    PrimCoercion::Int => {
                        let MtypeKind::Integer(range) = rg.kind(rr) else {
                            return unsup(
                                FallbackKind::EntryShape,
                                "Int coercion against a non-integer target",
                            );
                        };
                        let (size, signed) = int_repr(range)?;
                        self.nodes[node as usize].enc.push(EncOp::UInt {
                            size,
                            lo: range.lo,
                            hi: range.hi,
                            path,
                        });
                        if self.two_way {
                            let slot = self.slot(node);
                            self.nodes[node as usize].dec.push(DecOp::UInt {
                                size,
                                signed,
                                lo: range.lo,
                                hi: range.hi,
                                slot,
                            });
                            return Ok(vec![BuildOp::Slot(slot)]);
                        }
                        Ok(Vec::new())
                    }
                    PrimCoercion::Real { .. } => {
                        let MtypeKind::Real(p) = rg.kind(rr) else {
                            return unsup(
                                FallbackKind::EntryShape,
                                "Real coercion against a non-real target",
                            );
                        };
                        let single = *p == RealPrecision::SINGLE;
                        self.nodes[node as usize]
                            .enc
                            .push(EncOp::Real { single, path });
                        if self.two_way {
                            let slot = self.slot(node);
                            self.nodes[node as usize]
                                .dec
                                .push(DecOp::Real { single, slot });
                            return Ok(vec![BuildOp::Slot(slot)]);
                        }
                        Ok(Vec::new())
                    }
                    PrimCoercion::Char => {
                        let MtypeKind::Character(rep) = rg.kind(rr) else {
                            return unsup(
                                FallbackKind::EntryShape,
                                "Char coercion against a non-character target",
                            );
                        };
                        let size = char_size(rep);
                        self.nodes[node as usize]
                            .enc
                            .push(EncOp::Char { size, path });
                        if self.two_way {
                            let slot = self.slot(node);
                            self.nodes[node as usize]
                                .dec
                                .push(DecOp::Char { size, slot });
                            return Ok(vec![BuildOp::Slot(slot)]);
                        }
                        Ok(Vec::new())
                    }
                    PrimCoercion::Unit => {
                        self.nodes[node as usize].enc.push(EncOp::Unit { path });
                        Ok(vec![BuildOp::Unit])
                    }
                    PrimCoercion::Dynamic => {
                        self.nodes[node as usize].enc.push(EncOp::Dynamic { path });
                        if self.two_way {
                            let slot = self.slot(node);
                            self.nodes[node as usize].dec.push(DecOp::Dynamic { slot });
                            return Ok(vec![BuildOp::Slot(slot)]);
                        }
                        Ok(Vec::new())
                    }
                    PrimCoercion::IntoDynamic => {
                        if !matches!(rg.kind(rr), MtypeKind::Dynamic) {
                            return unsup(
                                FallbackKind::EntryShape,
                                "IntoDynamic against a non-dynamic target",
                            );
                        }
                        let tag: Arc<str> = lg.display(lr).to_string().into();
                        self.nodes[node as usize]
                            .enc
                            .push(EncOp::IntoDynamic { tag, path });
                        if self.two_way {
                            let back: Arc<str> = rg.display(rr).to_string().into();
                            let slot = self.slot(node);
                            self.nodes[node as usize]
                                .dec
                                .push(DecOp::IntoDynamic { tag: back, slot });
                            return Ok(vec![BuildOp::Slot(slot)]);
                        }
                        Ok(Vec::new())
                    }
                }
            }
            Entry::Port { .. } => {
                let path: Path = prefix.as_slice().into();
                self.nodes[node as usize].enc.push(EncOp::Port { path });
                if self.two_way {
                    let slot = self.slot(node);
                    self.nodes[node as usize].dec.push(DecOp::Port { slot });
                    return Ok(vec![BuildOp::Slot(slot)]);
                }
                Ok(Vec::new())
            }
            Entry::Choice {
                left_alts,
                right_alts,
                alt_map,
            } => {
                // Canonical list spines become Seq ops.
                match (list_element_type(lg, lr), list_element_type(rg, rr)) {
                    (Some(se), Some(de)) => {
                        let elem = self.compile_node(se, de)?;
                        let path: Path = prefix.as_slice().into();
                        self.nodes[node as usize].enc.push(EncOp::Seq {
                            elem,
                            path: path.clone(),
                        });
                        if self.two_way {
                            let slot = self.slot(node);
                            self.nodes[node as usize]
                                .dec
                                .push(DecOp::Seq { elem, slot });
                            return Ok(vec![BuildOp::Slot(slot)]);
                        }
                        return Ok(Vec::new());
                    }
                    (None, None) => {}
                    _ => {
                        return unsup(
                            FallbackKind::ListShape,
                            "list spine matched against a non-list choice",
                        )
                    }
                }
                // The wire writes *nominal* discriminants while the
                // entry's alternative lists are the comparer's
                // *flattened* view. Verify the flatten replays, then
                // compile dispatch trees that mirror the nominal choice
                // structure — nested arms for choices the flatten
                // descended through, discriminant chains for the
                // destination's nominal index path.
                let l_flat = choice_flat_list(lg, rules, lr);
                let r_flat = choice_flat_list(rg, rules, rr);
                if !same_ids(lg, &l_flat, &left_alts) || !same_ids(rg, &r_flat, &right_alts) {
                    return unsup(
                        FallbackKind::ChoiceShape,
                        "flattened choice diverges from the matched alternatives",
                    );
                }
                let cx = ChoiceCx {
                    l_root: lr,
                    r_root: rr,
                    l_flat: &l_flat,
                    r_flat: &r_flat,
                    left_alts: &left_alts,
                    right_alts: &right_alts,
                    alt_map: &alt_map,
                };
                let enc_arms = self.enc_choice_arms(plan, rules, lr, &mut Vec::new(), &cx)?;
                let path: Path = prefix.as_slice().into();
                self.nodes[node as usize].enc.push(EncOp::Choice {
                    arms: enc_arms,
                    path,
                });
                if self.two_way {
                    let dec_arms = self.dec_choice_arms(plan, rules, rr, &mut Vec::new(), &cx)?;
                    let slot = self.slot(node);
                    self.nodes[node as usize].dec.push(DecOp::Choice {
                        arms: dec_arms,
                        slot,
                    });
                    return Ok(vec![BuildOp::Slot(slot)]);
                }
                Ok(Vec::new())
            }
            Entry::Record {
                left_children,
                right_children,
                perm,
                policy,
            } => {
                if self.inline_stack.contains(&(lr, rr)) {
                    return unsup(
                        FallbackKind::RecordCycle,
                        "record cycle with no intervening choice",
                    );
                }
                self.inline_stack.push((lr, rr));
                let result = self.emit_record(
                    plan,
                    rules,
                    lr,
                    rr,
                    &left_children,
                    &right_children,
                    &perm,
                    policy,
                    prefix,
                    node,
                    skip_right_child,
                );
                self.inline_stack.pop();
                result
            }
        }
    }

    /// Build the encode dispatch tree for a choice entry. The tree
    /// mirrors the *nominal* structure of the source choice (the shape
    /// incoming `MValue::Choice` indexes follow), descending into
    /// exactly the nested choices the comparer's flatten descended
    /// through; each leaf records the destination's nominal
    /// discriminant chain and the payload sub-program.
    fn enc_choice_arms(
        &mut self,
        plan: &CoercionPlan,
        rules: &RuleSet,
        lnode: MtypeId,
        path: &mut Vec<MtypeId>,
        cx: &ChoiceCx<'_>,
    ) -> Result<Box<[EncArm]>, Unsupported> {
        let lg = plan.left_graph();
        let rg = plan.right_graph();
        let MtypeKind::Choice(children) = lg.kind(lnode) else {
            return unsup(
                FallbackKind::ChoiceShape,
                "choice entry against a non-choice node",
            );
        };
        let children = children.clone();
        path.push(lnode);
        let mut arms = Vec::with_capacity(children.len());
        for &c in children.iter() {
            let rchild = lg.resolve(c);
            if rules.assoc
                && matches!(lg.kind(rchild), MtypeKind::Choice(_))
                && !path.contains(&rchild)
                && list_element_type(lg, rchild).is_none()
            {
                let inner = self.enc_choice_arms(plan, rules, rchild, path, cx);
                match inner {
                    Ok(inner) => arms.push(EncArm::Nested { arms: inner }),
                    Err(e) => {
                        path.pop();
                        return Err(e);
                    }
                }
                continue;
            }
            let Some(j) = cx
                .l_flat
                .iter()
                .position(|&x| x == c)
                .or_else(|| cx.l_flat.iter().position(|&x| lg.resolve(x) == rchild))
            else {
                path.pop();
                return unsup(
                    FallbackKind::ChoiceShape,
                    "nominal alternative missing from the flattened choice",
                );
            };
            let dst = cx.alt_map[j];
            if dst == usize::MAX {
                arms.push(EncArm::Unmatched);
                continue;
            }
            let Some(tags) = nominal_tag_path(rg, rules, cx.r_root, cx.right_alts[dst]) else {
                path.pop();
                return unsup(
                    FallbackKind::ChoiceShape,
                    "destination alternative unreachable through nominal discriminants",
                );
            };
            let sub = self.compile_node(cx.left_alts[j], cx.right_alts[dst]);
            match sub {
                Ok(node) => arms.push(EncArm::Leaf { tags, node }),
                Err(e) => {
                    path.pop();
                    return Err(e);
                }
            }
        }
        path.pop();
        Ok(arms.into_boxed_slice())
    }

    /// Build the decode dispatch tree for a choice entry, mirroring
    /// the *destination's* nominal structure (the shape wire
    /// discriminants follow on decode); each leaf records the source
    /// side's nominal wrapper chain to rebuild and the payload
    /// sub-program.
    fn dec_choice_arms(
        &mut self,
        plan: &CoercionPlan,
        rules: &RuleSet,
        rnode: MtypeId,
        path: &mut Vec<MtypeId>,
        cx: &ChoiceCx<'_>,
    ) -> Result<Box<[DecArm]>, Unsupported> {
        let lg = plan.left_graph();
        let rg = plan.right_graph();
        let MtypeKind::Choice(children) = rg.kind(rnode) else {
            return unsup(
                FallbackKind::ChoiceShape,
                "choice entry against a non-choice node",
            );
        };
        let children = children.clone();
        path.push(rnode);
        let mut arms = Vec::with_capacity(children.len());
        for &c in children.iter() {
            let rchild = rg.resolve(c);
            if rules.assoc
                && matches!(rg.kind(rchild), MtypeKind::Choice(_))
                && !path.contains(&rchild)
                && list_element_type(rg, rchild).is_none()
            {
                let inner = self.dec_choice_arms(plan, rules, rchild, path, cx);
                match inner {
                    Ok(inner) => arms.push(DecArm::Nested { arms: inner }),
                    Err(e) => {
                        path.pop();
                        return Err(e);
                    }
                }
                continue;
            }
            let Some(dst) = cx
                .r_flat
                .iter()
                .position(|&x| x == c)
                .or_else(|| cx.r_flat.iter().position(|&x| rg.resolve(x) == rchild))
            else {
                path.pop();
                return unsup(
                    FallbackKind::ChoiceShape,
                    "nominal alternative missing from the flattened choice",
                );
            };
            let Some(j) = cx.alt_map.iter().position(|&d| d == dst) else {
                arms.push(DecArm::Unmatched);
                continue;
            };
            let Some(wraps) = nominal_tag_path(lg, rules, cx.l_root, cx.left_alts[j]) else {
                path.pop();
                return unsup(
                    FallbackKind::ChoiceShape,
                    "source alternative unreachable through nominal wrappers",
                );
            };
            let sub = self.compile_node(cx.left_alts[j], cx.right_alts[dst]);
            match sub {
                Ok(node) => arms.push(DecArm::Leaf { wraps, node }),
                Err(e) => {
                    path.pop();
                    return Err(e);
                }
            }
        }
        path.pop();
        Ok(arms.into_boxed_slice())
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_record(
        &mut self,
        plan: &CoercionPlan,
        rules: &RuleSet,
        lr: MtypeId,
        rr: MtypeId,
        left_children: &[MtypeId],
        right_children: &[MtypeId],
        perm: &[usize],
        policy: RecordFlatten,
        prefix: &mut Vec<u16>,
        node: u32,
        skip_right_child: Option<usize>,
    ) -> Result<Vec<BuildOp>, Unsupported> {
        let lg = plan.left_graph();
        let rg = plan.right_graph();
        let src_leaves = flat_leaves(lg, rules, lr, policy)?;
        let dst_leaves = flat_leaves(rg, rules, rr, policy)?;
        if src_leaves.len() != left_children.len() || dst_leaves.len() != right_children.len() {
            return unsup(
                FallbackKind::EntryShape,
                "flatten replay diverges from the entry's children",
            );
        }
        for (leaf, child) in src_leaves.iter().zip(left_children) {
            if lg.resolve(leaf.0) != lg.resolve(*child) {
                return unsup(
                    FallbackKind::EntryShape,
                    "flatten replay diverges from the entry's children",
                );
            }
        }
        for (leaf, child) in dst_leaves.iter().zip(right_children) {
            if rg.resolve(leaf.0) != rg.resolve(*child) {
                return unsup(
                    FallbackKind::EntryShape,
                    "flatten replay diverges from the entry's children",
                );
            }
        }
        if perm.len() != right_children.len() {
            return unsup(FallbackKind::EntryShape, "entry permutation arity mismatch");
        }
        let mut frags: Vec<Option<Vec<BuildOp>>> = vec![None; left_children.len()];
        for (i, dst_leaf) in dst_leaves.iter().enumerate() {
            let j = perm[i];
            if j >= src_leaves.len() {
                return unsup(FallbackKind::EntryShape, "entry permutation out of range");
            }
            if skip_right_child == Some(dst_leaf.1.first().copied().unwrap_or(u16::MAX) as usize)
                && dst_leaf.1.len() == 1
            {
                // The elided destination child (the reply port): no ops.
                frags[j] = Some(Vec::new());
                continue;
            }
            let saved = prefix.len();
            prefix.extend_from_slice(&src_leaves[j].1);
            let frag = self.emit_pair(left_children[j], right_children[i], prefix, node, None)?;
            prefix.truncate(saved);
            frags[j] = Some(frag);
        }
        if !self.two_way {
            return Ok(Vec::new());
        }
        // Rebuild the left nominal structure, splicing leaf fragments in
        // left-flat order (the mirror of the flatten).
        let mut cursor = 0usize;
        let mut out = Vec::new();
        build_replay(
            lg,
            rules,
            lr,
            policy,
            &frags,
            &mut cursor,
            &mut out,
            &mut Vec::new(),
            true,
        )?;
        if cursor != frags.len() {
            return unsup(
                FallbackKind::EntryShape,
                "build replay diverges from the entry's children",
            );
        }
        Ok(out)
    }

    fn emit_identity(
        &mut self,
        g: &MtypeGraph,
        ty: MtypeId,
        prefix: &mut Vec<u16>,
        node: u32,
    ) -> Result<Vec<BuildOp>, Unsupported> {
        let t = g.resolve(ty);
        let path: Path = prefix.as_slice().into();
        match g.kind(t) {
            MtypeKind::Integer(range) => {
                let (size, signed) = int_repr(range)?;
                self.nodes[node as usize].enc.push(EncOp::UInt {
                    size,
                    lo: range.lo,
                    hi: range.hi,
                    path,
                });
                let slot = self.slot(node);
                self.nodes[node as usize].dec.push(DecOp::UInt {
                    size,
                    signed,
                    lo: range.lo,
                    hi: range.hi,
                    slot,
                });
                Ok(vec![BuildOp::Slot(slot)])
            }
            MtypeKind::Real(p) => {
                let single = *p == RealPrecision::SINGLE;
                self.nodes[node as usize]
                    .enc
                    .push(EncOp::Real { single, path });
                let slot = self.slot(node);
                self.nodes[node as usize]
                    .dec
                    .push(DecOp::Real { single, slot });
                Ok(vec![BuildOp::Slot(slot)])
            }
            MtypeKind::Character(rep) => {
                let size = char_size(rep);
                self.nodes[node as usize]
                    .enc
                    .push(EncOp::Char { size, path });
                let slot = self.slot(node);
                self.nodes[node as usize]
                    .dec
                    .push(DecOp::Char { size, slot });
                Ok(vec![BuildOp::Slot(slot)])
            }
            MtypeKind::Unit => {
                self.nodes[node as usize].enc.push(EncOp::Unit { path });
                Ok(vec![BuildOp::Unit])
            }
            MtypeKind::Port(_) => {
                self.nodes[node as usize].enc.push(EncOp::Port { path });
                let slot = self.slot(node);
                self.nodes[node as usize].dec.push(DecOp::Port { slot });
                Ok(vec![BuildOp::Slot(slot)])
            }
            MtypeKind::Dynamic => {
                self.nodes[node as usize].enc.push(EncOp::Dynamic { path });
                let slot = self.slot(node);
                self.nodes[node as usize].dec.push(DecOp::Dynamic { slot });
                Ok(vec![BuildOp::Slot(slot)])
            }
            MtypeKind::Record(children) => {
                if self.inline_stack.contains(&(t, t)) {
                    return unsup(
                        FallbackKind::RecordCycle,
                        "record cycle with no intervening choice",
                    );
                }
                self.inline_stack.push((t, t));
                let children = children.clone();
                let mut frags = Vec::with_capacity(children.len());
                let mut result = Ok(());
                for (k, c) in children.iter().enumerate() {
                    let saved = prefix.len();
                    prefix.push(k as u16);
                    match self.emit_identity(g, *c, prefix, node) {
                        Ok(frag) => frags.push(frag),
                        Err(e) => {
                            result = Err(e);
                            prefix.truncate(saved);
                            break;
                        }
                    }
                    prefix.truncate(saved);
                }
                self.inline_stack.pop();
                result?;
                let mut out = Vec::new();
                for frag in frags {
                    out.extend(frag);
                }
                out.push(BuildOp::Record {
                    arity: children.len() as u32,
                });
                Ok(out)
            }
            MtypeKind::Choice(alts) => {
                if let Some(elem) = list_element_type(g, t) {
                    let sub = self.compile_node(elem, elem)?;
                    self.nodes[node as usize].enc.push(EncOp::Seq {
                        elem: sub,
                        path: path.clone(),
                    });
                    let slot = self.slot(node);
                    self.nodes[node as usize]
                        .dec
                        .push(DecOp::Seq { elem: sub, slot });
                    return Ok(vec![BuildOp::Slot(slot)]);
                }
                let alts = alts.clone();
                let mut enc_arms = Vec::with_capacity(alts.len());
                let mut dec_arms = Vec::with_capacity(alts.len());
                for (i, a) in alts.iter().enumerate() {
                    let sub = self.compile_node(*a, *a)?;
                    enc_arms.push(EncArm::Leaf {
                        tags: Box::from([i as u32]),
                        node: sub,
                    });
                    dec_arms.push(DecArm::Leaf {
                        wraps: Box::from([i as u32]),
                        node: sub,
                    });
                }
                self.nodes[node as usize].enc.push(EncOp::Choice {
                    arms: enc_arms.into_boxed_slice(),
                    path,
                });
                let slot = self.slot(node);
                self.nodes[node as usize].dec.push(DecOp::Choice {
                    arms: dec_arms.into_boxed_slice(),
                    slot,
                });
                Ok(vec![BuildOp::Slot(slot)])
            }
            MtypeKind::Recursive(_) => {
                unsup(FallbackKind::EntryShape, "unresolved recursive binder")
            }
        }
    }
}

/// Shared context for building choice dispatch trees: the entry's
/// resolved roots, the comparer's flattened alternative lists, and the
/// match's flat-index correspondence.
struct ChoiceCx<'a> {
    l_root: MtypeId,
    r_root: MtypeId,
    l_flat: &'a [MtypeId],
    r_flat: &'a [MtypeId],
    left_alts: &'a [MtypeId],
    right_alts: &'a [MtypeId],
    alt_map: &'a [usize],
}

/// The flattened alternative list of a Choice node under the rule set
/// (the comparer's view: associative flatten + id-level dedup when
/// `assoc` is on, the nominal children otherwise).
fn choice_flat_list(g: &MtypeGraph, rules: &RuleSet, node: MtypeId) -> Vec<MtypeId> {
    if rules.assoc {
        flatten_choice(g, node)
    } else {
        g.kind(node).children().to_vec()
    }
}

/// Whether a (resolved) node is a singleton Choice the comparer's
/// resolution collapsed through (mirror of the plan interpreter's
/// `is_transparent_singleton`).
fn is_transparent_singleton(g: &MtypeGraph, rules: &RuleSet, node: MtypeId) -> bool {
    rules.singleton_choice && matches!(g.kind(node), MtypeKind::Choice(_)) && {
        let flat = choice_flat_list(g, rules, node);
        flat.len() == 1 && g.resolve(flat[0]) != node
    }
}

/// The number of transparent singleton wrapper layers between `from`
/// (resolved) and `to` (= `resolve_transparent(from)`), replaying the
/// interpreter's rewrap walk child-by-child. Declines chains the walk
/// cannot replay — a dedup-collapsed singleton with several nominal
/// children, or a walk that diverges from the comparer's resolution.
fn transparent_chain(
    g: &MtypeGraph,
    rules: &RuleSet,
    from: MtypeId,
    to: MtypeId,
) -> Result<usize, Unsupported> {
    if from == to {
        return Ok(0);
    }
    let mut cur = from;
    let mut k = 0usize;
    while is_transparent_singleton(g, rules, cur) {
        let MtypeKind::Choice(children) = g.kind(cur) else {
            unreachable!("is_transparent_singleton only accepts Choice nodes");
        };
        if children.len() != 1 {
            return unsup(
                FallbackKind::TransparentChoice,
                "transparent singleton choice with several nominal alternatives",
            );
        }
        cur = g.resolve(children[0]);
        k += 1;
        if k > g.len() + 1 {
            return unsup(
                FallbackKind::TransparentChoice,
                "singleton choice chain does not terminate",
            );
        }
    }
    if cur != to {
        return unsup(
            FallbackKind::TransparentChoice,
            "transparent singleton chain diverges from the comparer's resolution",
        );
    }
    Ok(k)
}

/// The nominal discriminant chain selecting `target` inside the choice
/// tree rooted at `node` (the compile-time mirror of the interpreter's
/// `choice_from_flat`): depth-first over the nominal alternatives,
/// descending into choices the flatten descended through, first match
/// by id then by resolution.
fn nominal_tag_path(
    g: &MtypeGraph,
    rules: &RuleSet,
    node: MtypeId,
    target: MtypeId,
) -> Option<Box<[u32]>> {
    fn dfs(
        g: &MtypeGraph,
        rules: &RuleSet,
        node: MtypeId,
        target: MtypeId,
        path: &mut Vec<MtypeId>,
        idx_path: &mut Vec<u32>,
    ) -> bool {
        let node = g.resolve(node);
        let MtypeKind::Choice(children) = g.kind(node) else {
            return false;
        };
        path.push(node);
        for (i, &child) in children.clone().iter().enumerate() {
            let rchild = g.resolve(child);
            if rules.assoc
                && matches!(g.kind(rchild), MtypeKind::Choice(_))
                && !path.contains(&rchild)
                && list_element_type(g, rchild).is_none()
            {
                idx_path.push(i as u32);
                if dfs(g, rules, rchild, target, path, idx_path) {
                    path.pop();
                    return true;
                }
                idx_path.pop();
            } else if child == target || rchild == g.resolve(target) {
                idx_path.push(i as u32);
                path.pop();
                return true;
            }
        }
        path.pop();
        false
    }
    let mut path = Vec::new();
    let mut idx_path = Vec::new();
    dfs(g, rules, node, target, &mut path, &mut idx_path).then(|| idx_path.into_boxed_slice())
}

fn same_ids(g: &MtypeGraph, a: &[MtypeId], b: &[MtypeId]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| g.resolve(*x) == g.resolve(*y))
}

/// Replays the comparer's record-flatten at compile time, yielding the
/// leaf types with their nominal access paths (the mirror of
/// `plan`'s `flatten_value` / `one_level_align`, over types).
fn flat_leaves(
    g: &MtypeGraph,
    rules: &RuleSet,
    node: MtypeId,
    policy: RecordFlatten,
) -> Result<Vec<(MtypeId, Vec<u16>)>, Unsupported> {
    let node = g.resolve(node);
    let mut out = Vec::new();
    match policy {
        RecordFlatten::OneLevel => {
            let MtypeKind::Record(children) = g.kind(node) else {
                return unsup(
                    FallbackKind::EntryShape,
                    "one-level view of a non-record node",
                );
            };
            for (k, c) in children.clone().iter().enumerate() {
                if rules.unit_elim && matches!(g.kind(g.resolve(*c)), MtypeKind::Unit) {
                    continue;
                }
                out.push((*c, vec![k as u16]));
            }
        }
        RecordFlatten::Full => {
            flat_leaves_rec(
                g,
                rules,
                node,
                &mut Vec::new(),
                &mut Vec::new(),
                true,
                &mut out,
            )?;
        }
    }
    Ok(out)
}

fn flat_leaves_rec(
    g: &MtypeGraph,
    rules: &RuleSet,
    node: MtypeId,
    path: &mut Vec<MtypeId>,
    prefix: &mut Vec<u16>,
    top: bool,
    out: &mut Vec<(MtypeId, Vec<u16>)>,
) -> Result<(), Unsupported> {
    if path.len() > MAX_NESTING_DEPTH {
        return unsup(
            FallbackKind::DepthBound,
            "record nesting exceeds supported depth",
        );
    }
    let node = g.resolve(node);
    match g.kind(node) {
        MtypeKind::Record(children) if (rules.assoc && !path.contains(&node)) || top => {
            let children = children.clone();
            if rules.assoc {
                path.push(node);
                for (k, c) in children.iter().enumerate() {
                    prefix.push(k as u16);
                    let r = flat_leaves_rec(g, rules, *c, path, prefix, false, out);
                    prefix.pop();
                    r?;
                }
                path.pop();
            } else {
                for (k, c) in children.iter().enumerate() {
                    let mut p = prefix.clone();
                    p.push(k as u16);
                    out.push((*c, p));
                }
            }
            Ok(())
        }
        MtypeKind::Unit if rules.unit_elim && !top => Ok(()),
        _ => {
            out.push((node, prefix.clone()));
            Ok(())
        }
    }
}

/// Replays the destination-side rebuild (`build_value` /
/// `one_level_build`) at compile time, splicing each leaf's build
/// fragment in flat order.
#[allow(clippy::too_many_arguments)]
fn build_replay(
    g: &MtypeGraph,
    rules: &RuleSet,
    node: MtypeId,
    policy: RecordFlatten,
    frags: &[Option<Vec<BuildOp>>],
    cursor: &mut usize,
    out: &mut Vec<BuildOp>,
    path: &mut Vec<MtypeId>,
    top: bool,
) -> Result<(), Unsupported> {
    if path.len() > MAX_NESTING_DEPTH {
        return unsup(
            FallbackKind::DepthBound,
            "record nesting exceeds supported depth",
        );
    }
    let node = g.resolve(node);
    let splice = |cursor: &mut usize, out: &mut Vec<BuildOp>| -> Result<(), Unsupported> {
        let frag = frags.get(*cursor).and_then(|f| f.as_ref()).ok_or_else(|| {
            Unsupported::new(FallbackKind::EntryShape, "build replay ran out of leaves")
        })?;
        out.extend(frag.iter().copied());
        *cursor += 1;
        Ok(())
    };
    match policy {
        RecordFlatten::OneLevel => {
            let MtypeKind::Record(children) = g.kind(node) else {
                return unsup(
                    FallbackKind::EntryShape,
                    "one-level view of a non-record node",
                );
            };
            let children = children.clone();
            for c in &children {
                if rules.unit_elim && matches!(g.kind(g.resolve(*c)), MtypeKind::Unit) {
                    out.push(BuildOp::Unit);
                    continue;
                }
                splice(cursor, out)?;
            }
            out.push(BuildOp::Record {
                arity: children.len() as u32,
            });
            Ok(())
        }
        RecordFlatten::Full => match g.kind(node) {
            MtypeKind::Record(children) if (rules.assoc && !path.contains(&node)) || top => {
                let children = children.clone();
                if rules.assoc {
                    path.push(node);
                    for c in &children {
                        let r = build_replay(g, rules, *c, policy, frags, cursor, out, path, false);
                        if r.is_err() {
                            path.pop();
                            return r;
                        }
                    }
                    path.pop();
                } else {
                    for _ in &children {
                        splice(cursor, out)?;
                    }
                }
                out.push(BuildOp::Record {
                    arity: children.len() as u32,
                });
                Ok(())
            }
            MtypeKind::Unit if rules.unit_elim && !top => {
                out.push(BuildOp::Unit);
                Ok(())
            }
            _ => splice(cursor, out),
        },
    }
}

// ---------------------------------------------------------------------
// Introspection (the stub emitter's typed view)
// ---------------------------------------------------------------------

/// A borrowed view of one compiled scope: everything the native stub
/// emitter needs to specialise the scope into straight-line Rust.
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a> {
    /// The scope's id (node-function linkage; node 0 is the root).
    pub id: u32,
    /// Decode slot-frame size.
    pub slots: u32,
    /// Encode opcodes in wire order.
    pub enc: &'a [EncOp],
    /// Decode opcodes in wire order.
    pub dec: &'a [DecOp],
    /// Post-order value builders.
    pub build: &'a [BuildOp],
}

/// A coalesced span of encode opcodes: `Fixed` runs are consecutive
/// constant-width primitives (the emitter pre-reserves their worst-case
/// byte budget in one call); `Flow` ops have data-dependent size or
/// control flow.
#[derive(Debug, Clone, Copy)]
pub enum EncStep<'a> {
    /// ≥1 consecutive fixed-width ops; the payload is their worst-case
    /// wire footprint (sizes + maximal alignment padding).
    Fixed(&'a [EncOp], usize),
    /// A variable-size or dispatching op.
    Flow(&'a EncOp),
}

impl EncOp {
    /// Wire footprint when constant: `Some(size)` for fixed-width
    /// primitives (`Unit` is 0), `None` for data-dependent ops.
    #[must_use]
    pub fn wire_size(&self) -> Option<usize> {
        match self {
            EncOp::UInt { size, .. } | EncOp::Char { size, .. } => Some(*size as usize),
            EncOp::Real { single, .. } => Some(if *single { 4 } else { 8 }),
            EncOp::Unit { .. } => Some(0),
            EncOp::Port { .. } => Some(8),
            EncOp::Tag { .. } => Some(4),
            EncOp::Dynamic { .. }
            | EncOp::IntoDynamic { .. }
            | EncOp::Seq { .. }
            | EncOp::Choice { .. } => None,
        }
    }
}

/// Coalesces encode opcodes into [`EncStep`] runs.
#[must_use]
pub fn enc_runs(ops: &[EncOp]) -> Vec<EncStep<'_>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        match ops[i].wire_size() {
            None => {
                out.push(EncStep::Flow(&ops[i]));
                i += 1;
            }
            Some(first) => {
                let mut j = i + 1;
                // Worst case per op: its size plus (alignment-1) padding.
                let mut budget = first + first.saturating_sub(1);
                while j < ops.len() {
                    let Some(sz) = ops[j].wire_size() else { break };
                    budget += sz + sz.saturating_sub(1);
                    j += 1;
                }
                out.push(EncStep::Fixed(&ops[i..j], budget));
                i = j;
            }
        }
    }
    out
}

impl WireProgram {
    /// Iterates the compiled scopes as typed views, in node-id order.
    pub fn node_views(&self) -> impl ExactSizeIterator<Item = NodeView<'_>> {
        self.nodes.iter().enumerate().map(|(i, n)| NodeView {
            id: i as u32,
            slots: n.slots,
            enc: &n.enc,
            dec: &n.dec,
            build: &n.build,
        })
    }
}

// ---------------------------------------------------------------------
// Content-addressed program cache + persistence
// ---------------------------------------------------------------------

/// Program-cache counters (relaxed; reporting only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Programs compiled on a miss.
    pub compiles: u64,
    /// Pairs the compiler declined (cached as negative entries).
    pub unsupported: u64,
}

impl ProgramStats {
    /// Counter deltas attributable to the window since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &ProgramStats) -> ProgramStats {
        ProgramStats {
            hits: self.hits - earlier.hits,
            compiles: self.compiles - earlier.compiles,
            unsupported: self.unsupported - earlier.unsupported,
        }
    }
}

/// A thread-safe, content-addressed store of compiled wire programs,
/// keyed like the verdict cache: `(left_fp, right_fp, Mode, rules_fp)`.
/// Declined pairs are cached negatively — with the [`FallbackKind`]
/// that declined them — so the fallback decision (and its attribution)
/// is paid once.
#[derive(Debug, Default)]
pub struct ProgramCache {
    map: RwLock<HashMap<CacheKey, Result<Arc<WireProgram>, FallbackKind>>>,
    hits: AtomicU64,
    compiles: AtomicU64,
    unsupported: AtomicU64,
    by_kind: [AtomicU64; FallbackKind::COUNT],
}

impl ProgramCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        ProgramCache::default()
    }

    /// Number of cached entries (including negative ones).
    pub fn len(&self) -> usize {
        self.map.read().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ProgramStats {
        ProgramStats {
            hits: self.hits.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            unsupported: self.unsupported.load(Ordering::Relaxed),
        }
    }

    /// The cached program for `key`, if any (`Some(None)` is a cached
    /// "unsupported" verdict).
    pub fn lookup(&self, key: &CacheKey) -> Option<Option<Arc<WireProgram>>> {
        let found = self.map.read().unwrap().get(key).cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found.map(|r| r.ok())
    }

    /// The decline class cached for `key`, if the pair was declined.
    pub fn lookup_reason(&self, key: &CacheKey) -> Option<FallbackKind> {
        match self.map.read().unwrap().get(key) {
            Some(Err(kind)) => Some(*kind),
            _ => None,
        }
    }

    /// Returns the program for `key`, compiling (and caching the
    /// outcome, supported or not) on a miss.
    pub fn get_or_compile(
        &self,
        key: CacheKey,
        compile: impl FnOnce() -> Result<WireProgram, Unsupported>,
    ) -> Option<Arc<WireProgram>> {
        self.get_or_compile_reasoned(key, compile).ok()
    }

    /// Like [`ProgramCache::get_or_compile`] but surfaces the
    /// [`FallbackKind`] on the decline path, so batch pipelines can
    /// attribute every interpretive fallback.
    pub fn get_or_compile_reasoned(
        &self,
        key: CacheKey,
        compile: impl FnOnce() -> Result<WireProgram, Unsupported>,
    ) -> Result<Arc<WireProgram>, FallbackKind> {
        {
            let found = self.map.read().unwrap().get(&key).cloned();
            if let Some(found) = found {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return found;
            }
        }
        let outcome = match compile() {
            Ok(p) => {
                self.compiles.fetch_add(1, Ordering::Relaxed);
                Ok(Arc::new(p))
            }
            Err(e) => {
                self.unsupported.fetch_add(1, Ordering::Relaxed);
                self.by_kind[e.kind.index()].fetch_add(1, Ordering::Relaxed);
                Err(e.kind)
            }
        };
        self.map
            .write()
            .unwrap()
            .entry(key)
            .or_insert_with(|| outcome.clone())
            .clone()
    }

    /// Per-class decline counters in [`FallbackKind::all`] order
    /// (compile-time attribution; zero entries included).
    pub fn fallback_breakdown(&self) -> Vec<(FallbackKind, u64)> {
        FallbackKind::all()
            .iter()
            .map(|&k| (k, self.by_kind[k.index()].load(Ordering::Relaxed)))
            .collect()
    }

    /// Inserts a program (used when absorbing persisted caches).
    pub fn insert(&self, key: CacheKey, program: Arc<WireProgram>) {
        self.map.write().unwrap().insert(key, Ok(program));
    }

    /// The cache's positive entries in deterministic key order, for
    /// persistence alongside the verdict cache.
    pub fn export(&self) -> Vec<(CacheKey, Arc<WireProgram>)> {
        let mut out: Vec<(CacheKey, Arc<WireProgram>)> = self
            .map
            .read()
            .unwrap()
            .iter()
            .filter_map(|(k, v)| v.as_ref().ok().map(|p| (*k, p.clone())))
            .collect();
        out.sort_by_key(|(k, _)| (k.left_fp, k.right_fp, k.rules_fp));
        out
    }

    /// Bulk-inserts persisted programs; returns how many were absorbed.
    pub fn absorb(&self, items: impl IntoIterator<Item = (CacheKey, Arc<WireProgram>)>) -> usize {
        let mut map = self.map.write().unwrap();
        let mut n = 0usize;
        for (k, p) in items {
            map.insert(k, Ok(p));
            n += 1;
        }
        n
    }

    /// Writes every positive entry into `store` as
    /// [`ArtifactKind::WireProgram`] records whose bodies are the programs'
    /// canonical [`WireProgram::to_bytes`] encoding. Returns the count.
    pub fn store_into(&self, store: &dyn ArtifactStore) -> usize {
        let mut n = 0usize;
        for (key, program) in self.export() {
            store.put(
                key.store_key(ArtifactKind::WireProgram),
                &program.to_bytes(),
            );
            n += 1;
        }
        n
    }

    /// Absorbs every [`ArtifactKind::WireProgram`] record from `store`.
    /// Bodies that fail [`WireProgram::from_bytes`] validation are skipped
    /// (the codec is the integrity boundary: a corrupt program is never
    /// served). Returns how many programs were absorbed.
    pub fn load_from(&self, store: &dyn ArtifactStore) -> usize {
        let mut n = 0usize;
        for (skey, id) in store.keys() {
            if skey.kind != ArtifactKind::WireProgram {
                continue;
            }
            let Some(body) = store.body(&id) else {
                continue;
            };
            let Ok(program) = WireProgram::from_bytes(&body) else {
                continue;
            };
            self.insert(CacheKey::from_store_key(&skey), Arc::new(program));
            n += 1;
        }
        n
    }
}

// ---------------------------------------------------------------------
// Byte codec (project-file persistence)
// ---------------------------------------------------------------------

const CODEC_VERSION: u8 = 2;

/// Maximum number of scopes in a program's node table (compile-time
/// budget and deserialisation bound alike).
const MAX_NODES: usize = 4096;

/// Maximum nesting depth accepted for serialised choice dispatch trees.
const MAX_ARM_DEPTH: usize = 64;

/// A typed decoding failure from [`WireProgram::from_bytes`]. Hostile
/// or corrupt buffers are rejected with a precise cause instead of
/// silent truncation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProgramCodecError {
    /// The buffer ended before the structure it promised.
    Truncated,
    /// Bytes remained after the complete program was read.
    TrailingBytes { extra: usize },
    /// The leading version byte is not this codec's version.
    BadVersion { got: u8 },
    /// The node table exceeds the compiler's node budget.
    NodeBudget { count: usize, max: usize },
    /// A length field exceeds its plausibility budget.
    Budget { what: &'static str },
    /// An opcode byte outside the known range for its section.
    UnknownOpcode { section: &'static str, code: u8 },
    /// The bytes parsed but the program fails structural validation.
    Invalid { what: &'static str },
}

impl fmt::Display for ProgramCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramCodecError::Truncated => write!(f, "truncated program bytes"),
            ProgramCodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the program")
            }
            ProgramCodecError::BadVersion { got } => {
                write!(f, "unknown program codec version {got}")
            }
            ProgramCodecError::NodeBudget { count, max } => {
                write!(f, "node table of {count} exceeds the budget of {max}")
            }
            ProgramCodecError::Budget { what } => write!(f, "implausible {what}"),
            ProgramCodecError::UnknownOpcode { section, code } => {
                write!(f, "unknown {section} opcode {code}")
            }
            ProgramCodecError::Invalid { what } => write!(f, "invalid program: {what}"),
        }
    }
}

impl std::error::Error for ProgramCodecError {}

struct ByteWriter(Vec<u8>);

impl ByteWriter {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i128(&mut self, v: i128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn path(&mut self, p: &[u16]) {
        self.u32(p.len() as u32);
        for &x in p {
            self.0.extend_from_slice(&x.to_le_bytes());
        }
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProgramCodecError> {
        if self.pos + n > self.data.len() {
            return Err(ProgramCodecError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, ProgramCodecError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, ProgramCodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn i128(&mut self) -> Result<i128, ProgramCodecError> {
        let b = self.take(16)?;
        let mut arr = [0u8; 16];
        arr.copy_from_slice(b);
        Ok(i128::from_le_bytes(arr))
    }
    fn path(&mut self) -> Result<Path, ProgramCodecError> {
        let n = self.u32()? as usize;
        if n > 1 << 16 {
            return Err(ProgramCodecError::Budget {
                what: "path length",
            });
        }
        let b = self.take(2 * n)?;
        Ok(b.chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect())
    }
    fn str(&mut self) -> Result<Arc<str>, ProgramCodecError> {
        let n = self.u32()? as usize;
        if n > 1 << 20 {
            return Err(ProgramCodecError::Budget {
                what: "string length",
            });
        }
        let b = self.take(n)?;
        Ok(String::from_utf8_lossy(b).into_owned().into())
    }
}

fn write_enc_arm(w: &mut ByteWriter, arm: &EncArm) {
    match arm {
        EncArm::Unmatched => w.u8(0),
        EncArm::Leaf { tags, node } => {
            w.u8(1);
            w.u32(tags.len() as u32);
            for &t in tags.iter() {
                w.u32(t);
            }
            w.u32(*node);
        }
        EncArm::Nested { arms } => {
            w.u8(2);
            w.u32(arms.len() as u32);
            for a in arms.iter() {
                write_enc_arm(w, a);
            }
        }
    }
}

fn read_enc_arm(r: &mut ByteReader<'_>, depth: usize) -> Result<EncArm, ProgramCodecError> {
    if depth > MAX_ARM_DEPTH {
        return Err(ProgramCodecError::Budget {
            what: "choice arm nesting",
        });
    }
    match r.u8()? {
        0 => Ok(EncArm::Unmatched),
        1 => {
            let n = r.u32()? as usize;
            if n > 1 << 12 {
                return Err(ProgramCodecError::Budget {
                    what: "discriminant chain length",
                });
            }
            let mut tags = Vec::with_capacity(n);
            for _ in 0..n {
                tags.push(r.u32()?);
            }
            Ok(EncArm::Leaf {
                tags: tags.into_boxed_slice(),
                node: r.u32()?,
            })
        }
        2 => {
            let n = r.u32()? as usize;
            if n > 1 << 16 {
                return Err(ProgramCodecError::Budget { what: "arm count" });
            }
            let mut arms = Vec::with_capacity(n);
            for _ in 0..n {
                arms.push(read_enc_arm(r, depth + 1)?);
            }
            Ok(EncArm::Nested {
                arms: arms.into_boxed_slice(),
            })
        }
        other => Err(ProgramCodecError::UnknownOpcode {
            section: "encode arm",
            code: other,
        }),
    }
}

fn write_dec_arm(w: &mut ByteWriter, arm: &DecArm) {
    match arm {
        DecArm::Unmatched => w.u8(0),
        DecArm::Leaf { wraps, node } => {
            w.u8(1);
            w.u32(wraps.len() as u32);
            for &x in wraps.iter() {
                w.u32(x);
            }
            w.u32(*node);
        }
        DecArm::Nested { arms } => {
            w.u8(2);
            w.u32(arms.len() as u32);
            for a in arms.iter() {
                write_dec_arm(w, a);
            }
        }
    }
}

fn read_dec_arm(r: &mut ByteReader<'_>, depth: usize) -> Result<DecArm, ProgramCodecError> {
    if depth > MAX_ARM_DEPTH {
        return Err(ProgramCodecError::Budget {
            what: "choice arm nesting",
        });
    }
    match r.u8()? {
        0 => Ok(DecArm::Unmatched),
        1 => {
            let n = r.u32()? as usize;
            if n > 1 << 12 {
                return Err(ProgramCodecError::Budget {
                    what: "wrapper chain length",
                });
            }
            let mut wraps = Vec::with_capacity(n);
            for _ in 0..n {
                wraps.push(r.u32()?);
            }
            Ok(DecArm::Leaf {
                wraps: wraps.into_boxed_slice(),
                node: r.u32()?,
            })
        }
        2 => {
            let n = r.u32()? as usize;
            if n > 1 << 16 {
                return Err(ProgramCodecError::Budget { what: "arm count" });
            }
            let mut arms = Vec::with_capacity(n);
            for _ in 0..n {
                arms.push(read_dec_arm(r, depth + 1)?);
            }
            Ok(DecArm::Nested {
                arms: arms.into_boxed_slice(),
            })
        }
        other => Err(ProgramCodecError::UnknownOpcode {
            section: "decode arm",
            code: other,
        }),
    }
}

impl WireProgram {
    /// Serialises the program to a compact, portable byte form (the
    /// opcodes are content-addressed: no graph-local ids survive, so the
    /// bytes are meaningful across sessions).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter(Vec::new());
        w.u8(CODEC_VERSION);
        w.u8(self.two_way as u8);
        w.u32(self.nodes.len() as u32);
        for n in &self.nodes {
            w.u32(n.slots);
            w.u32(n.enc.len() as u32);
            for op in &n.enc {
                match op {
                    EncOp::UInt { size, lo, hi, path } => {
                        w.u8(0);
                        w.u8(*size);
                        w.i128(*lo);
                        w.i128(*hi);
                        w.path(path);
                    }
                    EncOp::Real { single, path } => {
                        w.u8(1);
                        w.u8(*single as u8);
                        w.path(path);
                    }
                    EncOp::Char { size, path } => {
                        w.u8(2);
                        w.u8(*size);
                        w.path(path);
                    }
                    EncOp::Unit { path } => {
                        w.u8(3);
                        w.path(path);
                    }
                    EncOp::Port { path } => {
                        w.u8(4);
                        w.path(path);
                    }
                    EncOp::Dynamic { path } => {
                        w.u8(5);
                        w.path(path);
                    }
                    EncOp::IntoDynamic { tag, path } => {
                        w.u8(6);
                        w.str(tag);
                        w.path(path);
                    }
                    EncOp::Seq { elem, path } => {
                        w.u8(7);
                        w.u32(*elem);
                        w.path(path);
                    }
                    EncOp::Choice { arms, path } => {
                        w.u8(8);
                        w.u32(arms.len() as u32);
                        for a in arms.iter() {
                            write_enc_arm(&mut w, a);
                        }
                        w.path(path);
                    }
                    EncOp::Tag { value } => {
                        w.u8(9);
                        w.u32(*value);
                    }
                }
            }
            w.u32(n.dec.len() as u32);
            for op in &n.dec {
                match op {
                    DecOp::UInt {
                        size,
                        signed,
                        lo,
                        hi,
                        slot,
                    } => {
                        w.u8(0);
                        w.u8(*size);
                        w.u8(*signed as u8);
                        w.i128(*lo);
                        w.i128(*hi);
                        w.u32(*slot);
                    }
                    DecOp::Real { single, slot } => {
                        w.u8(1);
                        w.u8(*single as u8);
                        w.u32(*slot);
                    }
                    DecOp::Char { size, slot } => {
                        w.u8(2);
                        w.u8(*size);
                        w.u32(*slot);
                    }
                    DecOp::Port { slot } => {
                        w.u8(4);
                        w.u32(*slot);
                    }
                    DecOp::Dynamic { slot } => {
                        w.u8(5);
                        w.u32(*slot);
                    }
                    DecOp::IntoDynamic { tag, slot } => {
                        w.u8(6);
                        w.str(tag);
                        w.u32(*slot);
                    }
                    DecOp::Seq { elem, slot } => {
                        w.u8(7);
                        w.u32(*elem);
                        w.u32(*slot);
                    }
                    DecOp::Choice { arms, slot } => {
                        w.u8(8);
                        w.u32(arms.len() as u32);
                        for a in arms.iter() {
                            write_dec_arm(&mut w, a);
                        }
                        w.u32(*slot);
                    }
                    DecOp::Tag { expect } => {
                        w.u8(3);
                        w.u32(*expect);
                    }
                }
            }
            w.u32(n.build.len() as u32);
            for op in &n.build {
                match op {
                    BuildOp::Slot(s) => {
                        w.u8(0);
                        w.u32(*s);
                    }
                    BuildOp::Unit => w.u8(1),
                    BuildOp::Record { arity } => {
                        w.u8(2);
                        w.u32(*arity);
                    }
                    BuildOp::Wrap { index } => {
                        w.u8(3);
                        w.u32(*index);
                    }
                }
            }
        }
        w.0
    }

    /// Deserialises a program written by [`WireProgram::to_bytes`],
    /// validating node references and slot indexes. Trailing bytes and
    /// over-long tables are rejected with a typed
    /// [`ProgramCodecError`], never silently truncated.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramCodecError`] on malformed or incompatible bytes.
    pub fn from_bytes(data: &[u8]) -> Result<WireProgram, ProgramCodecError> {
        let mut r = ByteReader { data, pos: 0 };
        let version = r.u8()?;
        if version != CODEC_VERSION {
            return Err(ProgramCodecError::BadVersion { got: version });
        }
        let two_way = r.u8()? != 0;
        let node_count = r.u32()? as usize;
        if node_count > MAX_NODES {
            return Err(ProgramCodecError::NodeBudget {
                count: node_count,
                max: MAX_NODES,
            });
        }
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let slots = r.u32()?;
            let mut node = Node {
                slots,
                ..Node::default()
            };
            let n_enc = r.u32()? as usize;
            if n_enc > 1 << 20 {
                return Err(ProgramCodecError::Budget {
                    what: "encode op count",
                });
            }
            for _ in 0..n_enc {
                let op = match r.u8()? {
                    0 => EncOp::UInt {
                        size: r.u8()?,
                        lo: r.i128()?,
                        hi: r.i128()?,
                        path: r.path()?,
                    },
                    1 => EncOp::Real {
                        single: r.u8()? != 0,
                        path: r.path()?,
                    },
                    2 => EncOp::Char {
                        size: r.u8()?,
                        path: r.path()?,
                    },
                    3 => EncOp::Unit { path: r.path()? },
                    4 => EncOp::Port { path: r.path()? },
                    5 => EncOp::Dynamic { path: r.path()? },
                    6 => EncOp::IntoDynamic {
                        tag: r.str()?,
                        path: r.path()?,
                    },
                    7 => EncOp::Seq {
                        elem: r.u32()?,
                        path: r.path()?,
                    },
                    8 => {
                        let n = r.u32()? as usize;
                        if n > 1 << 16 {
                            return Err(ProgramCodecError::Budget { what: "arm count" });
                        }
                        let mut arms = Vec::with_capacity(n);
                        for _ in 0..n {
                            arms.push(read_enc_arm(&mut r, 0)?);
                        }
                        EncOp::Choice {
                            arms: arms.into_boxed_slice(),
                            path: r.path()?,
                        }
                    }
                    9 => EncOp::Tag { value: r.u32()? },
                    other => {
                        return Err(ProgramCodecError::UnknownOpcode {
                            section: "encode",
                            code: other,
                        })
                    }
                };
                node.enc.push(op);
            }
            let n_dec = r.u32()? as usize;
            if n_dec > 1 << 20 {
                return Err(ProgramCodecError::Budget {
                    what: "decode op count",
                });
            }
            for _ in 0..n_dec {
                let op = match r.u8()? {
                    0 => DecOp::UInt {
                        size: r.u8()?,
                        signed: r.u8()? != 0,
                        lo: r.i128()?,
                        hi: r.i128()?,
                        slot: r.u32()?,
                    },
                    1 => DecOp::Real {
                        single: r.u8()? != 0,
                        slot: r.u32()?,
                    },
                    2 => DecOp::Char {
                        size: r.u8()?,
                        slot: r.u32()?,
                    },
                    4 => DecOp::Port { slot: r.u32()? },
                    5 => DecOp::Dynamic { slot: r.u32()? },
                    6 => DecOp::IntoDynamic {
                        tag: r.str()?,
                        slot: r.u32()?,
                    },
                    7 => DecOp::Seq {
                        elem: r.u32()?,
                        slot: r.u32()?,
                    },
                    3 => DecOp::Tag { expect: r.u32()? },
                    8 => {
                        let n = r.u32()? as usize;
                        if n > 1 << 16 {
                            return Err(ProgramCodecError::Budget { what: "arm count" });
                        }
                        let mut arms = Vec::with_capacity(n);
                        for _ in 0..n {
                            arms.push(read_dec_arm(&mut r, 0)?);
                        }
                        DecOp::Choice {
                            arms: arms.into_boxed_slice(),
                            slot: r.u32()?,
                        }
                    }
                    other => {
                        return Err(ProgramCodecError::UnknownOpcode {
                            section: "decode",
                            code: other,
                        })
                    }
                };
                node.dec.push(op);
            }
            let n_build = r.u32()? as usize;
            if n_build > 1 << 20 {
                return Err(ProgramCodecError::Budget {
                    what: "build op count",
                });
            }
            for _ in 0..n_build {
                let op = match r.u8()? {
                    0 => BuildOp::Slot(r.u32()?),
                    1 => BuildOp::Unit,
                    2 => BuildOp::Record { arity: r.u32()? },
                    3 => BuildOp::Wrap { index: r.u32()? },
                    other => {
                        return Err(ProgramCodecError::UnknownOpcode {
                            section: "build",
                            code: other,
                        })
                    }
                };
                node.build.push(op);
            }
            nodes.push(node);
        }
        if r.pos != data.len() {
            return Err(ProgramCodecError::TrailingBytes {
                extra: data.len() - r.pos,
            });
        }
        let program = WireProgram { nodes, two_way };
        program.validate()?;
        Ok(program)
    }

    /// Structural validation: node references in range, slot indexes
    /// within each node's frame, and no frame larger than its decode
    /// ops can fill (so deserialised programs cannot panic the
    /// executors, or make them allocate a frame the image never uses).
    fn validate(&self) -> Result<(), ProgramCodecError> {
        fn check_enc_arm(a: &EncArm, n_nodes: u32) -> Result<(), ProgramCodecError> {
            match a {
                EncArm::Unmatched => Ok(()),
                EncArm::Leaf { node, .. } if *node >= n_nodes => Err(ProgramCodecError::Invalid {
                    what: "choice arm node out of range",
                }),
                EncArm::Leaf { .. } => Ok(()),
                EncArm::Nested { arms } => arms.iter().try_for_each(|a| check_enc_arm(a, n_nodes)),
            }
        }
        fn check_dec_arm(a: &DecArm, n_nodes: u32) -> Result<(), ProgramCodecError> {
            match a {
                DecArm::Unmatched => Ok(()),
                DecArm::Leaf { node, .. } if *node >= n_nodes => Err(ProgramCodecError::Invalid {
                    what: "choice arm node out of range",
                }),
                DecArm::Leaf { .. } => Ok(()),
                DecArm::Nested { arms } => arms.iter().try_for_each(|a| check_dec_arm(a, n_nodes)),
            }
        }
        let n_nodes = self.nodes.len() as u32;
        if n_nodes == 0 {
            return Err(ProgramCodecError::Invalid {
                what: "empty node table",
            });
        }
        for node in &self.nodes {
            // The compiler allocates one slot per slot-writing decode
            // op, so a larger count is forged: a decode would size the
            // slot frame to it before reading a byte.
            if node.slots as usize > node.dec.len() {
                return Err(ProgramCodecError::Invalid {
                    what: "slot count exceeds the decode ops",
                });
            }
            for op in &node.enc {
                match op {
                    EncOp::Seq { elem, .. } if *elem >= n_nodes => {
                        return Err(ProgramCodecError::Invalid {
                            what: "sequence element node out of range",
                        })
                    }
                    EncOp::Choice { arms, .. } => {
                        for a in arms.iter() {
                            check_enc_arm(a, n_nodes)?;
                        }
                    }
                    _ => {}
                }
            }
            for op in &node.dec {
                let slot = match op {
                    DecOp::UInt { slot, .. }
                    | DecOp::Real { slot, .. }
                    | DecOp::Char { slot, .. }
                    | DecOp::Port { slot }
                    | DecOp::Dynamic { slot }
                    | DecOp::IntoDynamic { slot, .. }
                    | DecOp::Seq { slot, .. }
                    | DecOp::Choice { slot, .. } => *slot,
                    DecOp::Tag { .. } => continue,
                };
                if slot >= node.slots {
                    return Err(ProgramCodecError::Invalid {
                        what: "slot index out of range",
                    });
                }
                match op {
                    DecOp::Seq { elem, .. } if *elem >= n_nodes => {
                        return Err(ProgramCodecError::Invalid {
                            what: "sequence element node out of range",
                        })
                    }
                    DecOp::Choice { arms, .. } => {
                        for a in arms.iter() {
                            check_dec_arm(a, n_nodes)?;
                        }
                    }
                    _ => {}
                }
            }
            for op in &node.build {
                if let BuildOp::Slot(s) = op {
                    if *s >= node.slots {
                        return Err(ProgramCodecError::Invalid {
                            what: "slot index out of range",
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mockingbird_comparer::{Comparer, Mode};
    use mockingbird_values::Endian;

    fn plan_for(g: &MtypeGraph, l: MtypeId, r: MtypeId, mode: Mode) -> CoercionPlan {
        let corr = Comparer::new(g, g).compare(l, r, mode).expect("must match");
        CoercionPlan::new(g, g, corr, RuleSet::full(), mode)
    }

    fn agree(plan: &CoercionPlan, prog: &WireProgram, v: &MValue, endian: Endian) {
        // Oracle: interpretive convert + put_value.
        let converted = plan.convert(v).expect("oracle converts");
        let mut ow = CdrWriter::new(endian);
        ow.put_value(plan.right_graph(), plan.right_root(), &converted)
            .expect("oracle encodes");
        let oracle = ow.into_bytes();
        // Fused encode.
        let mut fw = CdrWriter::new(endian);
        prog.encode_value(&mut fw, v).expect("fused encodes");
        assert_eq!(fw.into_bytes(), oracle, "encode bytes diverge");
        // Oracle decode: get_value + convert_back.
        let mut or = CdrReader::new(&oracle, endian);
        let rv = or
            .get_value(plan.right_graph(), plan.right_root())
            .expect("oracle decodes");
        let oracle_back = plan.convert_back(&rv).expect("oracle converts back");
        // Fused decode.
        let mut fr = CdrReader::new(&oracle, endian);
        let fused_back = prog.decode_value(&mut fr).expect("fused decodes");
        assert_eq!(fused_back, oracle_back, "decode values diverge");
        assert_eq!(fr.remaining(), 0, "fused decode consumed the stream");
    }

    #[test]
    fn invocation_program_elides_reply_and_borrows_inputs() {
        // Invocation records with the reply port mid-record on the left
        // and last on the right: the program must navigate around the
        // virtual placeholder and skip the destination reply child.
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let out = g.record(vec![i]);
        let reply = g.port(out);
        let inv_l = g.record(vec![i, reply, i]);
        let inv_r = g.record(vec![i, i, reply]);
        let plan = plan_for(&g, inv_l, inv_r, Mode::Equivalence);
        let prog = WireProgram::compile_invocation(&plan, inv_l, inv_r, 2).expect("compiles");
        assert!(!prog.two_way(), "invocation programs are encode-only");
        let inputs = [MValue::Int(11), MValue::Int(-4)];
        for endian in [Endian::Little, Endian::Big] {
            let mut w = CdrWriter::new(endian);
            prog.encode_invocation(&mut w, &inputs, 1).expect("encodes");
            // Oracle: the right invocation minus its reply port is just
            // the two integers in wire order.
            let mut expect = CdrWriter::new(endian);
            expect.put_value(&g, i, &MValue::Int(11)).unwrap();
            expect.put_value(&g, i, &MValue::Int(-4)).unwrap();
            assert_eq!(w.into_bytes(), expect.into_bytes());
        }
    }

    #[test]
    fn permuted_record_program_agrees_with_oracle() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let r = g.real(RealPrecision::DOUBLE);
        let c = g.character(Repertoire::Latin1);
        let left = g.record(vec![i, r, c]);
        let right = g.record(vec![c, i, r]);
        let plan = plan_for(&g, left, right, Mode::Equivalence);
        let prog = WireProgram::compile(&plan).expect("compiles");
        let v = MValue::Record(vec![MValue::Int(-7), MValue::Real(2.5), MValue::Char('x')]);
        agree(&plan, &prog, &v, Endian::Little);
        agree(&plan, &prog, &v, Endian::Big);
    }

    #[test]
    fn regrouping_and_unit_elimination_agree() {
        let mut g = MtypeGraph::new();
        let f = g.real(RealPrecision::SINGLE);
        let u = g.unit();
        let point = g.record(vec![f, f]);
        let left = g.record(vec![point, u, point]);
        let right = g.record(vec![f, f, f, f]);
        let plan = plan_for(&g, left, right, Mode::Equivalence);
        let prog = WireProgram::compile(&plan).expect("compiles");
        let v = MValue::Record(vec![
            MValue::Record(vec![MValue::Real(1.0), MValue::Real(2.0)]),
            MValue::Unit,
            MValue::Record(vec![MValue::Real(3.0), MValue::Real(4.0)]),
        ]);
        agree(&plan, &prog, &v, Endian::Little);
        agree(&plan, &prog, &v, Endian::Big);
    }

    #[test]
    fn choice_and_list_programs_agree() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let f = g.real(RealPrecision::SINGLE);
        let lch = g.choice(vec![i, f]);
        let rch = g.choice(vec![i, f]);
        let llist = g.list_of(lch);
        let rlist = g.list_of(rch);
        let plan = plan_for(&g, llist, rlist, Mode::Equivalence);
        let prog = WireProgram::compile(&plan).expect("compiles");
        let v = MValue::List(vec![
            MValue::Choice {
                index: 0,
                value: Box::new(MValue::Int(3)),
            },
            MValue::Choice {
                index: 1,
                value: Box::new(MValue::Real(0.5)),
            },
        ]);
        agree(&plan, &prog, &v, Endian::Little);
        agree(&plan, &prog, &v, Endian::Big);
        agree(&plan, &prog, &MValue::List(vec![]), Endian::Little);
    }

    #[test]
    fn recursive_list_spine_ties_through_node_table() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let left = g.list_of(i);
        let right = g.list_of(i);
        let plan = plan_for(&g, left, right, Mode::Equivalence);
        let prog = WireProgram::compile(&plan).expect("compiles");
        let v = MValue::List((0..40).map(MValue::Int).collect());
        agree(&plan, &prog, &v, Endian::Little);
    }

    #[test]
    fn identity_program_matches_put_and_get_value() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(16));
        let f = g.real(RealPrecision::DOUBLE);
        let c = g.character(Repertoire::Unicode);
        let u = g.unit();
        let p = g.port(i);
        let s = {
            let ch = g.character(Repertoire::Latin1);
            g.list_of(ch)
        };
        let ch = g.choice(vec![i, f]);
        let rec = g.record(vec![i, f, c, u, p, s, ch]);
        let prog = WireProgram::identity(&g, rec).expect("compiles");
        let v = MValue::Record(vec![
            MValue::Int(-300),
            MValue::Real(6.25),
            MValue::Char('日'),
            MValue::Unit,
            MValue::Port(PortRef(99)),
            MValue::string("hi"),
            MValue::Choice {
                index: 1,
                value: Box::new(MValue::Real(-0.5)),
            },
        ]);
        for endian in [Endian::Little, Endian::Big] {
            let mut ow = CdrWriter::new(endian);
            ow.put_value(&g, rec, &v).unwrap();
            let oracle = ow.into_bytes();
            let mut fw = CdrWriter::new(endian);
            prog.encode_value(&mut fw, &v).unwrap();
            assert_eq!(fw.into_bytes(), oracle);
            let mut fr = CdrReader::new(&oracle, endian);
            assert_eq!(prog.decode_value(&mut fr).unwrap(), v);
        }
    }

    #[test]
    fn recursive_records_through_a_list_or_a_choice_compile() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let f = g.real(RealPrecision::DOUBLE);
        let u = g.unit();
        // μa. Record(Int, List(a)): a tree with a list of children.
        let tree = g.recursive(|g, a| {
            let kids = g.list_of(a);
            g.record(vec![i, kids])
        });
        // μa. Record(Int, Choice(Unit, Record(Real, a))): a chain.
        let chain = g.recursive(|g, a| {
            let link = g.record(vec![f, a]);
            let next = g.choice(vec![u, link]);
            g.record(vec![i, next])
        });
        let node =
            |n: i128, kids: Vec<MValue>| MValue::Record(vec![MValue::Int(n), MValue::List(kids)]);
        let tree_value = node(1, vec![node(2, vec![node(4, vec![])]), node(3, vec![])]);
        let end = MValue::Choice {
            index: 0,
            value: Box::new(MValue::Unit),
        };
        let link = |n: i128, x: f64, next: MValue| {
            MValue::Record(vec![
                MValue::Int(n),
                MValue::Choice {
                    index: 1,
                    value: Box::new(MValue::Record(vec![MValue::Real(x), next])),
                },
            ])
        };
        let chain_value = link(
            1,
            0.5,
            link(2, -1.25, MValue::Record(vec![MValue::Int(3), end])),
        );
        for (ty, v) in [(tree, tree_value), (chain, chain_value)] {
            let prog = WireProgram::identity(&g, ty).expect("compiles");
            for endian in [Endian::Little, Endian::Big] {
                let mut ow = CdrWriter::new(endian);
                ow.put_value(&g, ty, &v).unwrap();
                let oracle = ow.into_bytes();
                let mut fw = CdrWriter::new(endian);
                prog.encode_value(&mut fw, &v).unwrap();
                assert_eq!(fw.into_bytes(), oracle);
                let mut fr = CdrReader::new(&oracle, endian);
                assert_eq!(prog.decode_value(&mut fr).unwrap(), v);
                assert_eq!(fr.remaining(), 0);
                let mut or = CdrReader::new(&oracle, endian);
                assert_eq!(or.get_value(&g, ty).unwrap(), v);
            }
        }
    }

    #[test]
    fn dynamic_and_into_dynamic_agree() {
        let mut g = MtypeGraph::new();
        let d = g.dynamic();
        let prog = WireProgram::identity(&g, d).expect("compiles");
        let v = MValue::Dynamic {
            tag: "Int{0..=9}".into(),
            value: Box::new(MValue::Int(7)),
        };
        let mut ow = CdrWriter::new(Endian::Little);
        ow.put_value(&g, d, &v).unwrap();
        let oracle = ow.into_bytes();
        let mut fw = CdrWriter::new(Endian::Little);
        prog.encode_value(&mut fw, &v).unwrap();
        assert_eq!(fw.into_bytes(), oracle);
        let mut fr = CdrReader::new(&oracle, Endian::Little);
        assert_eq!(prog.decode_value(&mut fr).unwrap(), v);

        // IntoDynamic: int on the left, Dynamic on the right, subtype.
        let i = g.integer(IntRange::signed_bits(32));
        let plan = plan_for(&g, i, d, Mode::Subtype);
        let prog = WireProgram::compile(&plan).expect("compiles");
        assert!(!prog.two_way(), "subtype programs are one-way");
        let v = MValue::Int(41);
        let converted = plan.convert(&v).unwrap();
        let mut ow = CdrWriter::new(Endian::Little);
        ow.put_value(&g, d, &converted).unwrap();
        let mut fw = CdrWriter::new(Endian::Little);
        prog.encode_value(&mut fw, &v).unwrap();
        assert_eq!(fw.into_bytes(), ow.into_bytes());
    }

    #[test]
    fn unmatched_alternative_errors_like_the_oracle() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let f = g.real(RealPrecision::SINGLE);
        let c = g.character(Repertoire::Latin1);
        let left = g.choice(vec![i, f]);
        let right = g.choice(vec![i, f, c]);
        let plan = plan_for(&g, left, right, Mode::Subtype);
        let prog = WireProgram::compile(&plan).expect("compiles");
        let ok = MValue::Choice {
            index: 0,
            value: Box::new(MValue::Int(1)),
        };
        let mut w = CdrWriter::new(Endian::Little);
        prog.encode_value(&mut w, &ok).unwrap();
        let bad = MValue::Choice {
            index: 7,
            value: Box::new(MValue::Int(1)),
        };
        let mut w = CdrWriter::new(Endian::Little);
        assert!(prog.encode_value(&mut w, &bad).is_err());
    }

    #[test]
    fn semantic_pairs_are_declined() {
        // Cross-kind pairs that need hand-written conversions cannot be
        // compiled; the caller falls back to the interpreter.
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let f = g.real(RealPrecision::SINGLE);
        let left = g.record(vec![i, f]);
        let right = g.record(vec![f, f]);
        assert!(
            Comparer::new(&g, &g)
                .compare(left, right, Mode::Equivalence)
                .is_err(),
            "pair must not match structurally"
        );
        // An identity program over a record cycle with no intervening
        // choice is declined rather than looping.
        let cyc = g.recursive(|g, slf| {
            let i8_ = g.integer(IntRange::signed_bits(8));
            g.record(vec![i8_, slf])
        });
        assert!(WireProgram::identity(&g, cyc).is_err());
    }

    #[test]
    fn program_bytes_round_trip() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let f = g.real(RealPrecision::DOUBLE);
        let point = g.record(vec![f, f]);
        let list = g.list_of(point);
        let left = g.record(vec![i, list]);
        let right = g.record(vec![list, i]);
        let plan = plan_for(&g, left, right, Mode::Equivalence);
        let prog = WireProgram::compile(&plan).expect("compiles");
        let bytes = prog.to_bytes();
        let restored = WireProgram::from_bytes(&bytes).expect("round-trips");
        assert_eq!(restored, prog);
        assert!(WireProgram::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(WireProgram::from_bytes(&[]).is_err());
    }

    #[test]
    fn program_cache_compiles_once_and_persists() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let left = g.record(vec![i, i]);
        let right = g.record(vec![i, i]);
        let plan = plan_for(&g, left, right, Mode::Equivalence);
        let cache = ProgramCache::new();
        let key = CacheKey {
            left_fp: 1,
            right_fp: 2,
            mode: Mode::Equivalence,
            rules_fp: 3,
        };
        let p1 = cache
            .get_or_compile(key, || WireProgram::compile(&plan))
            .expect("compiles");
        let p2 = cache
            .get_or_compile(key, || panic!("must not recompile"))
            .expect("cached");
        assert!(Arc::ptr_eq(&p1, &p2));
        let stats = cache.stats();
        assert_eq!((stats.compiles, stats.hits), (1, 1));
        // Export/absorb round-trip.
        let exported = cache.export();
        assert_eq!(exported.len(), 1);
        let other = ProgramCache::new();
        assert_eq!(other.absorb(exported), 1);
        assert_eq!(other.lookup(&key).flatten().unwrap().as_ref(), p1.as_ref());
    }

    #[test]
    fn fused_encode_is_allocation_free_after_warmup() {
        // Structural proxy for the counting-allocator bench: the writer's
        // buffer, once warmed, is the only heap the encode path touches.
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let f = g.real(RealPrecision::DOUBLE);
        let rec = g.record(vec![i, f, i, i, f]);
        let prog = WireProgram::identity(&g, rec).expect("compiles");
        let v = MValue::Record(vec![
            MValue::Int(1),
            MValue::Real(2.0),
            MValue::Int(3),
            MValue::Int(4),
            MValue::Real(5.0),
        ]);
        let mut w = CdrWriter::new(Endian::Little);
        prog.encode_value(&mut w, &v).unwrap();
        let warm_cap = w.capacity();
        for _ in 0..100 {
            w.clear();
            prog.encode_value(&mut w, &v).unwrap();
        }
        assert_eq!(w.capacity(), warm_cap, "no buffer growth after warmup");
    }

    #[test]
    fn transparent_singleton_pairs_compile_and_agree() {
        // Choice([T]) on either side is resolved through by the comparer
        // (singleton_choice rule); the program replays the wrapper:
        // a left wrapper navigates through the value, a right wrapper
        // writes/checks a constant discriminant.
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let wrapped = g.choice(vec![i]);
        let lrec = g.record(vec![wrapped, i]);
        let rrec = g.record(vec![i, wrapped]);
        let plan = plan_for(&g, lrec, rrec, Mode::Equivalence);
        let prog = WireProgram::compile(&plan).expect("singleton chain compiles");
        let v = MValue::Record(vec![
            MValue::Choice {
                index: 0,
                value: Box::new(MValue::Int(7)),
            },
            MValue::Int(9),
        ]);
        agree(&plan, &prog, &v, Endian::Little);
        agree(&plan, &prog, &v, Endian::Big);
        // The interpreter's unwrap is lenient: a value built against the
        // collapsed view (no wrapper) encodes identically.
        let collapsed = MValue::Record(vec![MValue::Int(7), MValue::Int(9)]);
        agree(&plan, &prog, &collapsed, Endian::Little);
    }

    #[test]
    fn nested_choice_flatten_compiles_and_agrees() {
        // Left nests choices the comparer's associative flatten sees
        // through; right is the flat form. The program's dispatch tree
        // mirrors the left nesting and writes the right's nominal
        // discriminants.
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let r = g.real(RealPrecision::DOUBLE);
        let c = g.character(Repertoire::Latin1);
        let inner = g.choice(vec![i, r]);
        let left = g.choice(vec![inner, c]);
        let right = g.choice(vec![i, r, c]);
        let plan = plan_for(&g, left, right, Mode::Equivalence);
        let prog = WireProgram::compile(&plan).expect("nested flatten compiles");
        let vals = [
            MValue::Choice {
                index: 0,
                value: Box::new(MValue::Choice {
                    index: 0,
                    value: Box::new(MValue::Int(5)),
                }),
            },
            MValue::Choice {
                index: 0,
                value: Box::new(MValue::Choice {
                    index: 1,
                    value: Box::new(MValue::Real(1.25)),
                }),
            },
            MValue::Choice {
                index: 1,
                value: Box::new(MValue::Char('q')),
            },
        ];
        for v in &vals {
            agree(&plan, &prog, v, Endian::Little);
            agree(&plan, &prog, v, Endian::Big);
        }
    }

    #[test]
    fn hostile_program_bytes_get_typed_errors() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let f = g.real(RealPrecision::DOUBLE);
        let rec = g.record(vec![i, f]);
        let prog = WireProgram::identity(&g, rec).expect("compiles");
        let bytes = prog.to_bytes();

        // Trailing garbage is rejected, not silently ignored.
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&[0xAA, 0xBB]);
        assert_eq!(
            WireProgram::from_bytes(&trailing),
            Err(ProgramCodecError::TrailingBytes { extra: 2 })
        );

        // Truncation anywhere is typed.
        assert_eq!(
            WireProgram::from_bytes(&bytes[..bytes.len() - 1]),
            Err(ProgramCodecError::Truncated)
        );
        assert_eq!(
            WireProgram::from_bytes(&[]),
            Err(ProgramCodecError::Truncated)
        );

        // A foreign version byte is typed.
        let mut wrong = bytes.clone();
        wrong[0] = 77;
        assert_eq!(
            WireProgram::from_bytes(&wrong),
            Err(ProgramCodecError::BadVersion { got: 77 })
        );

        // An over-long node table is rejected before allocation.
        let mut huge = vec![CODEC_VERSION, 0];
        huge.extend_from_slice(&1_000_000u32.to_le_bytes());
        assert_eq!(
            WireProgram::from_bytes(&huge),
            Err(ProgramCodecError::NodeBudget {
                count: 1_000_000,
                max: MAX_NODES
            })
        );

        // An unknown opcode is typed with its section.
        let mut bad_op = vec![CODEC_VERSION, 0];
        bad_op.extend_from_slice(&1u32.to_le_bytes()); // one node
        bad_op.extend_from_slice(&0u32.to_le_bytes()); // slots
        bad_op.extend_from_slice(&1u32.to_le_bytes()); // one enc op
        bad_op.push(0xFF);
        assert_eq!(
            WireProgram::from_bytes(&bad_op),
            Err(ProgramCodecError::UnknownOpcode {
                section: "encode",
                code: 0xFF
            })
        );

        // A node claiming 2^32 - 1 slots with no decode op to fill them
        // is refused at load, before any decode could size its frame.
        let mut huge_frame = vec![CODEC_VERSION, 0];
        huge_frame.extend_from_slice(&1u32.to_le_bytes()); // one node
        huge_frame.extend_from_slice(&u32::MAX.to_le_bytes()); // slots
        for _ in 0..3 {
            huge_frame.extend_from_slice(&0u32.to_le_bytes()); // no enc, dec or build ops
        }
        assert_eq!(
            WireProgram::from_bytes(&huge_frame),
            Err(ProgramCodecError::Invalid {
                what: "slot count exceeds the decode ops"
            })
        );
    }

    #[test]
    fn cache_attributes_fallback_reasons() {
        let cache = ProgramCache::new();
        let key = CacheKey {
            left_fp: 10,
            right_fp: 20,
            mode: Mode::Equivalence,
            rules_fp: 30,
        };
        let out = cache.get_or_compile_reasoned(key, || {
            unsup(FallbackKind::Semantic, "needs a hand-written converter")
        });
        assert_eq!(out, Err(FallbackKind::Semantic));
        // The decline (and its class) is cached: no recompilation.
        let again = cache.get_or_compile_reasoned(key, || panic!("must not recompile"));
        assert_eq!(again, Err(FallbackKind::Semantic));
        assert_eq!(cache.lookup_reason(&key), Some(FallbackKind::Semantic));
        assert_eq!(cache.lookup(&key), Some(None), "legacy view still works");
        let breakdown = cache.fallback_breakdown();
        assert_eq!(
            breakdown
                .iter()
                .find(|(k, _)| *k == FallbackKind::Semantic)
                .unwrap()
                .1,
            1
        );
        assert_eq!(breakdown.iter().map(|(_, n)| n).sum::<u64>(), 1);
    }
}
