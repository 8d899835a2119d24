//! Native stub registry + the support runtime for emitted stubs.
//!
//! The second Futamura projection: `stubgen`'s emitter compiles each
//! cached wire program into straight-line Rust source (no opcode
//! fetch/decode loop, no path navigation, constant-width primitive
//! copies). The generated functions are registered here under the same
//! layout keys the [`ProgramCache`](crate::ProgramCache) uses, all
//! derived by [`ProgramSource::key`], and [`resolve`] finds them again
//! for both halves of a call: the
//! client's `RemoteStub` (value and invocation programs of a matched
//! pair) and the server's `WireOp` (identity programs, under their own
//! [`NativeProgramKind::Identity`] key). Each direction then runs
//! native → opcode VM → interpretive oracle, in that order.
//!
//! The `#[inline]` helpers in this module are the generated code's
//! vocabulary: every helper is the body of one VM opcode with the
//! opcode dispatch, path navigation, and size dispatch already
//! specialised away (the `const N` widths make alignment masks and copy
//! lengths compile-time constants).

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

use mockingbird_comparer::{CacheKey, Mode};
use mockingbird_mtype::canon::{CanonOpts, Canonizer};
use mockingbird_mtype::{MtypeGraph, MtypeId};
use mockingbird_values::{Endian, MValue, PortRef};

use crate::cdr::{CdrError, CdrReader, CdrWriter};
use crate::program::WireProgram;
use crate::MAX_NESTING_DEPTH;

/// Which program shape a native function was emitted for. Value
/// programs and invocation programs of the same pair have different
/// opcode streams (the reply child is elided), so they register under
/// distinct keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NativeProgramKind {
    /// A whole-value program (`encode_value`/`decode_value`).
    Value,
    /// An invocation program eliding the destination reply child.
    Invocation { reply_child: u32 },
    /// The identity program of one type ([`WireProgram::identity`], a
    /// `WireOp`'s codec). A kind of its own, so a plan-compiled `T ≡ T`
    /// value program, whose opcodes follow the plan's rules, can never
    /// answer for one.
    Identity,
}

/// Registry key: the program cache's `(left_fp, right_fp, mode,
/// rules_fp)` layout key plus the program kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NativeKey {
    /// The layout pair key (same derivation as the opcode cache).
    pub pair: CacheKey,
    /// Value, invocation or identity shape.
    pub kind: NativeProgramKind,
}

/// Builds a value-program registry key from raw fingerprint parts —
/// the generated code's compact constructor (keeps emitted source to
/// one call instead of three nested struct literals).
#[must_use]
pub const fn value_key(
    left_fp: u128,
    right_fp: u128,
    equivalence: bool,
    rules_fp: u64,
) -> NativeKey {
    NativeKey {
        pair: CacheKey {
            left_fp,
            right_fp,
            mode: if equivalence {
                Mode::Equivalence
            } else {
                Mode::Subtype
            },
            rules_fp,
        },
        kind: NativeProgramKind::Value,
    }
}

/// Builds an invocation-program registry key from raw fingerprint
/// parts (see [`value_key`]).
#[must_use]
pub const fn invocation_key(
    left_fp: u128,
    right_fp: u128,
    equivalence: bool,
    rules_fp: u64,
    reply_child: u32,
) -> NativeKey {
    NativeKey {
        pair: CacheKey {
            left_fp,
            right_fp,
            mode: if equivalence {
                Mode::Equivalence
            } else {
                Mode::Subtype
            },
            rules_fp,
        },
        kind: NativeProgramKind::Invocation { reply_child },
    }
}

/// Builds an identity-program registry key from the type's layout
/// fingerprint. An identity program follows no comparer verdict, so
/// the key carries the equivalence mode and a rules fingerprint of 0.
#[must_use]
pub const fn identity_key(fp: u128) -> NativeKey {
    NativeKey {
        pair: CacheKey {
            left_fp: fp,
            right_fp: fp,
            mode: Mode::Equivalence,
            rules_fp: 0,
        },
        kind: NativeProgramKind::Identity,
    }
}

/// What a wire program was compiled from: everything its registry key
/// derives from.
#[derive(Debug, Clone, Copy)]
pub enum ProgramSource<'a> {
    /// A plan's program from `left` to `right` under `mode` and the
    /// rule set fingerprinted `rules_fp`: a value program, or with
    /// `reply_child` an invocation program eliding that destination
    /// child.
    Pair {
        /// The source graph and type.
        left: (&'a MtypeGraph, MtypeId),
        /// The destination graph and type.
        right: (&'a MtypeGraph, MtypeId),
        /// The plan's mode.
        mode: Mode,
        /// The plan's rules fingerprint.
        rules_fp: u64,
        /// The elided destination reply child of an invocation program.
        reply_child: Option<u32>,
    },
    /// The identity program of one type.
    Identity(&'a MtypeGraph, MtypeId),
}

impl ProgramSource<'_> {
    /// The key the program's emitted stub, its [`ProgramCache`] entry
    /// and its artifact-store record live under: the one derivation of
    /// layout keys. A type's part of the key is its strict canonical
    /// identity (see [`Layouts`]), so a stub emitted in one process from
    /// one graph resolves in another from a different graph instance.
    ///
    /// [`ProgramCache`]: crate::ProgramCache
    #[must_use]
    pub fn key(&self) -> NativeKey {
        let graph = match *self {
            ProgramSource::Pair { left: (g, _), .. } | ProgramSource::Identity(g, _) => g,
        };
        self.key_in(&mut Layouts::new(graph))
    }

    /// [`ProgramSource::key`] through a caller's engine, so keying many
    /// programs of one graph hashes each shared type once. A side on
    /// another graph than `layouts`' gets an engine of its own.
    #[must_use]
    pub fn key_in(&self, layouts: &mut Layouts<'_>) -> NativeKey {
        let mut fp = |g: &MtypeGraph, ty: MtypeId| {
            if std::ptr::eq(g, layouts.graph) {
                layouts.fingerprint(ty)
            } else {
                Layouts::new(g).fingerprint(ty)
            }
        };
        match *self {
            ProgramSource::Pair {
                left: (lg, l),
                right: (rg, r),
                mode,
                rules_fp,
                reply_child,
            } => NativeKey {
                pair: CacheKey {
                    left_fp: fp(lg, l),
                    right_fp: fp(rg, r),
                    mode,
                    rules_fp,
                },
                kind: match reply_child {
                    Some(reply_child) => NativeProgramKind::Invocation { reply_child },
                    None => NativeProgramKind::Value,
                },
            },
            ProgramSource::Identity(g, ty) => identity_key(fp(g, ty)),
        }
    }
}

/// The layout fingerprints of one graph's types: each type's strict
/// canonical identity ([`CanonOpts::strict`]). It keeps child order,
/// unit children and unary wrappers, so it separates every layout a
/// wire program bakes in, and it sees through μ-binders, so two graphs
/// that place a binder differently key the same program. The engine
/// hashes each strongly connected component once and memoises, so
/// keying many types of one graph shares all common structure.
pub struct Layouts<'g> {
    graph: &'g MtypeGraph,
    engine: Canonizer<'g>,
}

impl<'g> Layouts<'g> {
    /// A fresh engine over `graph`.
    #[must_use]
    pub fn new(graph: &'g MtypeGraph) -> Self {
        Layouts {
            graph,
            engine: Canonizer::new(graph, CanonOpts::strict()),
        }
    }

    /// The layout fingerprint of `ty`.
    pub fn fingerprint(&mut self, ty: MtypeId) -> u128 {
        self.engine.fingerprint(ty)
    }
}

/// Resolves the emitted stub that stands in for `program`, registered
/// under `key`, from the global registry: the one resolver `RemoteStub`
/// and `WireOp` share.
///
/// No entry points when `program` is `None`: a stub is emitted *from*
/// its program, so a pair or type the compiler declines stays on the
/// interpreter even if a stale stub sits under its key. A one-way
/// program's decode entry point is dropped, so decode runs native only
/// where the VM could decode too.
#[must_use]
pub fn resolve(program: Option<&WireProgram>, key: &NativeKey) -> NativeStub {
    let Some(program) = program else {
        return NativeStub::default();
    };
    let mut stub = NativeStubRegistry::global().lookup(key).unwrap_or_default();
    if !program.two_way() {
        stub.decode = None;
    }
    stub
}

/// An emitted-stub node function for the encode direction (internal
/// linkage between generated scopes; `depth` is the nesting guard).
pub type EncNodeFn = fn(&mut CdrWriter, &MValue, usize) -> Result<(), CdrError>;

/// An emitted-stub node function for the decode direction.
pub type DecNodeFn = fn(&mut CdrReader<'_>, usize) -> Result<MValue, CdrError>;

/// An emitted stub's value-encode entry point.
pub type NativeEncodeFn = fn(&mut CdrWriter, &MValue) -> Result<(), CdrError>;

/// An emitted stub's invocation-encode entry point (marshals straight
/// from the borrowed input slice; see `WireProgram::encode_invocation`).
pub type NativeEncodeInvocationFn = fn(&mut CdrWriter, &[MValue], usize) -> Result<(), CdrError>;

/// An emitted stub's decode entry point.
pub type NativeDecodeFn = fn(&mut CdrReader<'_>) -> Result<MValue, CdrError>;

/// The resolved entry points of one emitted stub.
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeStub {
    /// Fused native marshal: source value → destination CDR bytes.
    pub encode: Option<NativeEncodeFn>,
    /// Fused native invocation marshal straight from the borrowed
    /// input slice (see `WireProgram::encode_invocation`).
    pub encode_invocation: Option<NativeEncodeInvocationFn>,
    /// Fused native unmarshal: destination CDR bytes → source value.
    pub decode: Option<NativeDecodeFn>,
}

/// A process-wide table of emitted stubs, keyed by [`NativeKey`].
/// Generated modules register themselves once at startup; encoders
/// probe it per call (one read-lock + hash lookup) before falling back
/// to the opcode VM.
#[derive(Debug, Default)]
pub struct NativeStubRegistry {
    map: RwLock<HashMap<NativeKey, NativeStub>>,
}

impl NativeStubRegistry {
    /// An empty registry (tests; production code uses
    /// [`NativeStubRegistry::global`]).
    #[must_use]
    pub fn new() -> Self {
        NativeStubRegistry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static NativeStubRegistry {
        static GLOBAL: OnceLock<NativeStubRegistry> = OnceLock::new();
        GLOBAL.get_or_init(NativeStubRegistry::default)
    }

    /// Registers (or replaces) the stub for `key`.
    pub fn register(&self, key: NativeKey, stub: NativeStub) {
        self.map.write().unwrap().insert(key, stub);
    }

    /// The stub registered for `key`, if any.
    pub fn lookup(&self, key: &NativeKey) -> Option<NativeStub> {
        self.map.read().unwrap().get(key).copied()
    }

    /// Number of registered stubs.
    pub fn len(&self) -> usize {
        self.map.read().unwrap().len()
    }

    /// Whether no stubs are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// Support runtime for emitted code
// ---------------------------------------------------------------------

#[inline]
fn err<T>(m: impl Into<String>) -> Result<T, CdrError> {
    Err(CdrError(m.into()))
}

/// Depth guard at each generated scope entry (mirrors the VM's
/// per-node check, so hostile recursion depths fail identically).
#[inline]
pub fn check_depth(depth: usize) -> Result<(), CdrError> {
    if depth > MAX_NESTING_DEPTH {
        return err("value nesting exceeds supported depth");
    }
    Ok(())
}

/// Decode-side depth guard (the VM's message differs by one word).
#[inline]
pub fn check_depth_dec(depth: usize) -> Result<(), CdrError> {
    if depth > MAX_NESTING_DEPTH {
        return err("type nesting exceeds supported depth");
    }
    Ok(())
}

/// One nominal-record path step.
#[inline]
pub fn field(v: &MValue, i: usize) -> Result<&MValue, CdrError> {
    let MValue::Record(items) = v else {
        return err(format!("expected a record value, got {v}"));
    };
    items
        .get(i)
        .ok_or_else(|| CdrError(format!("record value lacks field {i}")))
}

/// One transparent singleton-wrapper step (`STEP_CHOICE0` semantics):
/// `Choice {{ index: 0 }}` unwraps, any other index errors, a
/// non-choice value passes through (the interpreter's lenient unwrap).
#[inline]
pub fn unwrap0(v: &MValue) -> Result<&MValue, CdrError> {
    match v {
        MValue::Choice { index: 0, value } => Ok(value),
        MValue::Choice { index, .. } => err(format!("choice index {index} out of 1")),
        other => Ok(other),
    }
}

/// The first path step of an invocation scope: field `i` of the
/// virtual invocation record, reading from the borrowed input slice
/// with the reply-port hole filled by a placeholder.
#[inline]
pub fn arg(inputs: &[MValue], reply_index: usize, i: usize) -> Result<&MValue, CdrError> {
    static PLACEHOLDER_REPLY: MValue = MValue::Port(PortRef(0));
    if i == reply_index {
        return Ok(&PLACEHOLDER_REPLY);
    }
    let idx = if i > reply_index { i - 1 } else { i };
    inputs
        .get(idx)
        .ok_or_else(|| CdrError(format!("invocation lacks input for field {i}")))
}

#[inline]
fn le_bytes<const N: usize>(v: u64) -> [u8; N] {
    let b = v.to_le_bytes();
    let mut out = [0u8; N];
    out.copy_from_slice(&b[..N]);
    out
}

#[inline]
fn be_bytes<const N: usize>(v: u64) -> [u8; N] {
    let b = v.to_be_bytes();
    let mut out = [0u8; N];
    out.copy_from_slice(&b[8 - N..]);
    out
}

/// Fixed-width unsigned read in the sender's byte order (the opcode VM
/// shares it for its own primitive reads).
#[inline]
pub(crate) fn raw_uint<const N: usize>(r: &mut CdrReader<'_>) -> Result<u64, CdrError> {
    let b = r.get_fixed::<N>()?;
    Ok(match r.endian() {
        Endian::Little => {
            let mut x = [0u8; 8];
            x[..N].copy_from_slice(&b);
            u64::from_le_bytes(x)
        }
        Endian::Big => {
            let mut x = [0u8; 8];
            x[8 - N..].copy_from_slice(&b);
            u64::from_be_bytes(x)
        }
    })
}

#[inline]
const fn mask_n<const N: usize>() -> u64 {
    if N >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * N)) - 1
    }
}

/// Range-checked fixed-width integer write (the `EncOp::UInt` body
/// with a compile-time width).
#[inline]
pub fn put_int<const N: usize>(
    w: &mut CdrWriter,
    v: &MValue,
    lo: i128,
    hi: i128,
) -> Result<(), CdrError> {
    let MValue::Int(x) = v else {
        return err("expected an integer value");
    };
    if *x < lo || *x > hi {
        return err(format!("integer {x} outside range {lo}..={hi}"));
    }
    let raw = *x as u64 & mask_n::<N>();
    w.put_fixed::<N>(le_bytes::<N>(raw), be_bytes::<N>(raw));
    Ok(())
}

/// IEEE real write; `SINGLE` selects the 4-byte representation.
#[inline]
pub fn put_real<const SINGLE: bool>(w: &mut CdrWriter, v: &MValue) -> Result<(), CdrError> {
    let MValue::Real(x) = v else {
        return err("expected a real value");
    };
    if SINGLE {
        let raw = (*x as f32).to_bits() as u64;
        w.put_fixed::<4>(le_bytes::<4>(raw), be_bytes::<4>(raw));
    } else {
        let raw = x.to_bits();
        w.put_fixed::<8>(le_bytes::<8>(raw), be_bytes::<8>(raw));
    }
    Ok(())
}

/// Character write in a 1- or 4-byte repertoire.
#[inline]
pub fn put_char<const N: usize>(w: &mut CdrWriter, v: &MValue) -> Result<(), CdrError> {
    let MValue::Char(c) = v else {
        return err("expected a character value");
    };
    let code = *c as u32;
    if N == 1 && code > 0xFF {
        return err(format!(
            "character {c:?} not representable in 1-byte repertoire"
        ));
    }
    w.put_fixed::<N>(le_bytes::<N>(code as u64), be_bytes::<N>(code as u64));
    Ok(())
}

/// Unit check: writes nothing, but the value must be `Unit`.
#[inline]
pub fn expect_unit(v: &MValue) -> Result<(), CdrError> {
    let MValue::Unit = v else {
        return err("expected a unit value");
    };
    Ok(())
}

/// 64-bit port-reference write.
#[inline]
pub fn put_port(w: &mut CdrWriter, v: &MValue) -> Result<(), CdrError> {
    let MValue::Port(PortRef(id)) = v else {
        return err("expected a port reference");
    };
    w.put_fixed::<8>(le_bytes::<8>(*id), be_bytes::<8>(*id));
    Ok(())
}

/// Compile-time-constant `u32` discriminant write (transparent
/// singleton wrappers, choice tag chains).
#[inline]
pub fn put_tag(w: &mut CdrWriter, value: u32) {
    w.put_fixed::<4>(le_bytes::<4>(value as u64), be_bytes::<4>(value as u64));
}

/// Dynamic passthrough write: tag string + MBP payload.
#[inline]
pub fn put_dynamic(w: &mut CdrWriter, v: &MValue) -> Result<(), CdrError> {
    let MValue::Dynamic { tag, value } = v else {
        return err("expected a dynamic value");
    };
    w.put_bytes(tag.as_bytes());
    w.put_prefixed(|buf| crate::mbp::encode_into(buf, value));
    Ok(())
}

/// `IntoDynamic` write: inject any value under a compile-time tag.
#[inline]
pub fn put_into_dynamic(w: &mut CdrWriter, tag: &str, v: &MValue) {
    w.put_bytes(tag.as_bytes());
    w.put_prefixed(|buf| crate::mbp::encode_into(buf, v));
}

/// Sequence write: `u32` count then elements through `elem`. Accepts
/// native `List` values and cons-cell Choice chains exactly like the
/// VM (count walk + emit walk, no allocation), and refuses the
/// zero-width sequences the decoders would refuse.
pub fn encode_seq(
    w: &mut CdrWriter,
    v: &MValue,
    elem: EncNodeFn,
    depth: usize,
) -> Result<(), CdrError> {
    match v {
        MValue::List(items) => {
            put_tag(w, items.len() as u32);
            let start = w.len();
            for item in items {
                elem(w, item, depth + 1)?;
            }
            w.finish_seq(items.len(), start)
        }
        MValue::Choice { .. } => {
            let mut n = 0u32;
            let mut cur = v;
            loop {
                match cur {
                    MValue::Choice { index: 0, .. } => break,
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
            put_tag(w, n);
            let start = w.len();
            let mut cur = v;
            loop {
                match cur {
                    MValue::Choice { index: 0, .. } => return w.finish_seq(n as usize, start),
                    MValue::Choice { index: 1, value } => match value.as_ref() {
                        MValue::Record(cell) if cell.len() == 2 => {
                            elem(w, &cell[0], depth + 1)?;
                            cur = &cell[1];
                        }
                        other => return err(format!("malformed list cons cell: {other}")),
                    },
                    other => return err(format!("malformed list spine: {other}")),
                }
            }
        }
        other => err(format!("expected a list value, got {other}")),
    }
}

/// Destructures a choice value into `(index, payload)` for the
/// emitted `match` dispatch.
#[inline]
pub fn choice_parts(v: &MValue) -> Result<(usize, &MValue), CdrError> {
    let MValue::Choice { index, value } = v else {
        return err("expected a choice value");
    };
    Ok((*index, value))
}

/// The error for a source choice index past the dispatch table.
#[inline]
pub fn bad_choice_index(index: usize, arity: usize) -> CdrError {
    CdrError(format!("choice index {index} out of {arity}"))
}

/// The error for an alternative the comparer left unmatched.
#[inline]
pub fn unmatched_alternative(index: usize) -> CdrError {
    CdrError(format!(
        "alternative {index} was not matched by the comparer"
    ))
}

// -- decode direction --------------------------------------------------

/// Range-checked fixed-width integer read.
#[inline]
pub fn get_int<const N: usize, const SIGNED: bool>(
    r: &mut CdrReader<'_>,
    lo: i128,
    hi: i128,
) -> Result<MValue, CdrError> {
    let raw = raw_uint::<N>(r)?;
    let v: i128 = if SIGNED {
        crate::cdr::sign_extend(raw, N) as i128
    } else {
        raw as i128
    };
    if v < lo || v > hi {
        return err(format!("decoded integer {v} outside range {lo}..={hi}"));
    }
    Ok(MValue::Int(v))
}

/// IEEE real read.
#[inline]
pub fn get_real<const SINGLE: bool>(r: &mut CdrReader<'_>) -> Result<MValue, CdrError> {
    Ok(if SINGLE {
        MValue::Real(f32::from_bits(raw_uint::<4>(r)? as u32) as f64)
    } else {
        MValue::Real(f64::from_bits(raw_uint::<8>(r)?))
    })
}

/// Character read in a 1- or 4-byte repertoire.
#[inline]
pub fn get_char<const N: usize>(r: &mut CdrReader<'_>) -> Result<MValue, CdrError> {
    let code = raw_uint::<N>(r)? as u32;
    match char::from_u32(code) {
        Some(c) => Ok(MValue::Char(c)),
        None => err(format!("invalid character code {code}")),
    }
}

/// 64-bit port-reference read.
#[inline]
pub fn get_port(r: &mut CdrReader<'_>) -> Result<MValue, CdrError> {
    Ok(MValue::Port(PortRef(raw_uint::<8>(r)?)))
}

/// Wire discriminant read (choice dispatch).
#[inline]
pub fn get_disc(r: &mut CdrReader<'_>) -> Result<usize, CdrError> {
    Ok(raw_uint::<4>(r)? as usize)
}

/// The error for a wire discriminant past the dispatch table.
#[inline]
pub fn bad_disc(disc: usize, arity: usize) -> CdrError {
    CdrError(format!("choice discriminant {disc} out of {arity}"))
}

/// The error for a wire alternative with no backward counterpart.
#[inline]
pub fn unmatched_disc(disc: usize) -> CdrError {
    CdrError(format!("alternative {disc} has no backward counterpart"))
}

/// Constant wire discriminant check (transparent singleton wrappers).
#[inline]
pub fn expect_tag(r: &mut CdrReader<'_>, expect: u32) -> Result<(), CdrError> {
    let disc = raw_uint::<4>(r)? as u32;
    if disc != expect {
        return err(format!(
            "wire discriminant {disc} where the singleton wrapper requires {expect}"
        ));
    }
    Ok(())
}

/// Dynamic passthrough read: tag + MBP payload.
#[inline]
pub fn get_dynamic(r: &mut CdrReader<'_>) -> Result<MValue, CdrError> {
    let tag = String::from_utf8_lossy(r.get_bytes()?).into_owned();
    let payload = r.get_bytes()?;
    let value =
        crate::mbp::decode(payload).map_err(|e| CdrError(format!("dynamic payload: {e}")))?;
    Ok(MValue::Dynamic {
        tag,
        value: Box::new(value),
    })
}

/// Backward `IntoDynamic` read: parse the wire Dynamic, then re-tag it
/// with the compile-time destination tag.
#[inline]
pub fn get_into_dynamic(r: &mut CdrReader<'_>, tag: &str) -> Result<MValue, CdrError> {
    let inner = get_dynamic(r)?;
    Ok(MValue::Dynamic {
        tag: tag.to_string(),
        value: Box::new(inner),
    })
}

/// Sequence read: `u32` count then elements through `elem`. A count
/// the stream cannot back fails before anything is allocated for it.
pub fn decode_seq(
    r: &mut CdrReader<'_>,
    elem: DecNodeFn,
    depth: usize,
) -> Result<MValue, CdrError> {
    let count = r.get_seq_len()?;
    let mut items = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        items.push(elem(r, depth + 1)?);
    }
    Ok(MValue::List(items))
}

/// One destination choice wrapper (decode rebuild).
#[inline]
pub fn wrap(index: u32, value: MValue) -> MValue {
    MValue::Choice {
        index: index as usize,
        value: Box::new(value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trips_stubs() {
        use mockingbird_comparer::Mode;
        fn enc(_: &mut CdrWriter, _: &MValue) -> Result<(), CdrError> {
            Ok(())
        }
        let reg = NativeStubRegistry::new();
        let key = NativeKey {
            pair: CacheKey {
                left_fp: 1,
                right_fp: 2,
                mode: Mode::Equivalence,
                rules_fp: 3,
            },
            kind: NativeProgramKind::Value,
        };
        assert!(reg.lookup(&key).is_none());
        reg.register(
            key,
            NativeStub {
                encode: Some(enc),
                ..NativeStub::default()
            },
        );
        let found = reg.lookup(&key).expect("registered");
        assert!(found.encode.is_some() && found.decode.is_none());
        // A different kind is a different slot.
        let inv = NativeKey {
            kind: NativeProgramKind::Invocation { reply_child: 1 },
            ..key
        };
        assert!(reg.lookup(&inv).is_none());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn identity_keys_never_alias_value_keys() {
        use mockingbird_mtype::IntRange;
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let rec = g.record(vec![i]);
        let fp = Layouts::new(&g).fingerprint(rec);
        let key = ProgramSource::Identity(&g, rec).key();
        assert_eq!(key, identity_key(fp));
        // The `T ≡ T` value program of the same type is a different
        // slot, even under the identity key's rules fingerprint of 0.
        let pair = ProgramSource::Pair {
            left: (&g, rec),
            right: (&g, rec),
            mode: Mode::Equivalence,
            rules_fp: 0,
            reply_child: None,
        };
        assert_eq!(pair.key(), value_key(fp, fp, true, 0));
        assert_ne!(pair.key(), key);
    }

    fn value_key_of(g: &MtypeGraph, ty: MtypeId) -> NativeKey {
        ProgramSource::Pair {
            left: (g, ty),
            right: (g, ty),
            mode: Mode::Equivalence,
            rules_fp: 0,
            reply_child: None,
        }
        .key()
    }

    #[test]
    fn layout_keys_separate_every_record_layout() {
        use mockingbird_mtype::{IntRange, RealPrecision};
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let r = g.real(RealPrecision::DOUBLE);
        let u = g.unit();
        let just_r = g.record(vec![r]);
        let i_r = g.record(vec![i, r]);
        let layouts = [
            i_r,
            g.record(vec![r, i]),
            g.record(vec![i, just_r]),
            g.record(vec![i, r, u]),
            g.record(vec![i_r]),
        ];
        let keys: std::collections::HashSet<NativeKey> =
            layouts.iter().map(|&ty| value_key_of(&g, ty)).collect();
        assert_eq!(keys.len(), layouts.len(), "{keys:?}");
    }

    /// A forest: `L` the list of `A` and `A = Record(Int, L)`, with
    /// μ-binders on both (`binder_on_a`) or on `L` only; returns `L` and
    /// `A`.
    fn mutual_pair(g: &mut MtypeGraph, binder_on_a: bool) -> (MtypeId, MtypeId) {
        use mockingbird_mtype::IntRange;
        let i = g.integer(IntRange::signed_bits(32));
        if binder_on_a {
            let mut forest = None;
            let tree = g.recursive(|g, a| {
                let l = g.list_of(a);
                forest = Some(l);
                g.record(vec![i, l])
            });
            return (forest.expect("the binder body ran"), tree);
        }
        let u = g.unit();
        let mut tree = None;
        let forest = g.recursive(|g, l| {
            let a = g.record(vec![i, l]);
            tree = Some(a);
            let cell = g.record(vec![a, l]);
            g.choice(vec![u, cell])
        });
        (forest, tree.expect("the binder body ran"))
    }

    #[test]
    fn binder_placement_shares_one_key_and_one_encoding() {
        let mut g = MtypeGraph::new();
        let mut h = MtypeGraph::new();
        let (forest_on_a, tree_on_a) = mutual_pair(&mut g, true);
        let (forest_on_l, tree_on_l) = mutual_pair(&mut h, false);
        let tree =
            |n: i128, kids: Vec<MValue>| MValue::Record(vec![MValue::Int(n), MValue::List(kids)]);
        let leaf = tree(-1, Vec::new());
        let forest = vec![
            tree(2, vec![leaf.clone(), tree(3, vec![leaf.clone()])]),
            leaf,
        ];
        for (on_a, on_l, value) in [
            (forest_on_a, forest_on_l, MValue::List(forest.clone())),
            (tree_on_a, tree_on_l, tree(1, forest)),
        ] {
            assert_ne!(g.display(on_a).to_string(), h.display(on_l).to_string());
            assert_eq!(value_key_of(&g, on_a), value_key_of(&h, on_l));
            assert_eq!(
                ProgramSource::Identity(&g, on_a).key(),
                ProgramSource::Identity(&h, on_l).key()
            );

            // The program compiled from one placement encodes the other's
            // values exactly as the interpreter does, and decodes them
            // back.
            let program = WireProgram::identity(&g, on_a).expect("identity program");
            for endian in [Endian::Little, Endian::Big] {
                let mut interp = CdrWriter::new(endian);
                interp
                    .put_value(&h, on_l, &value)
                    .expect("interpreter encodes");
                let mut fused = CdrWriter::new(endian);
                program
                    .encode_value(&mut fused, &value)
                    .expect("program encodes");
                let bytes = interp.into_bytes();
                assert_eq!(fused.into_bytes(), bytes);
                let mut r = CdrReader::new(&bytes, endian);
                assert_eq!(program.decode_value(&mut r).expect("decodes"), value);
                assert_eq!(r.remaining(), 0);
            }
        }
    }

    #[test]
    fn fixed_width_prims_match_the_generic_path() {
        for endian in [Endian::Little, Endian::Big] {
            let mut a = CdrWriter::new(endian);
            a.put_uint(1, 0xAB);
            a.put_uint(4, 0x1234_5678);
            a.put_uint(8, 0xDEAD_BEEF_0102_0304);
            let mut b = CdrWriter::new(endian);
            put_int::<1>(&mut b, &MValue::Int(0xAB), 0, 0xFF).unwrap();
            put_int::<4>(&mut b, &MValue::Int(0x1234_5678), 0, u32::MAX as i128).unwrap();
            put_int::<8>(
                &mut b,
                &MValue::Int(0xDEAD_BEEF_0102_0304u64 as i64 as i128),
                i64::MIN as i128,
                i64::MAX as i128,
            )
            .unwrap();
            let bytes = a.into_bytes();
            assert_eq!(bytes, b.into_bytes());
            let mut r = CdrReader::new(&bytes, endian);
            assert_eq!(
                get_int::<1, false>(&mut r, 0, 0xFF).unwrap(),
                MValue::Int(0xAB)
            );
            assert_eq!(
                get_int::<4, false>(&mut r, 0, u32::MAX as i128).unwrap(),
                MValue::Int(0x1234_5678)
            );
            assert_eq!(
                get_int::<8, true>(&mut r, i64::MIN as i128, i64::MAX as i128).unwrap(),
                MValue::Int(0xDEAD_BEEF_0102_0304u64 as i64 as i128)
            );
        }
    }
}
