//! Mtype-guided CDR encoding.
//!
//! CDR (the GIOP/IIOP data representation) aligns every primitive to its
//! own size *relative to the start of the stream* and supports both byte
//! orders (the receiver byte-swaps if it must). Aggregates are encoded
//! field-by-field; sequences carry a `u32` length; unions carry a `u32`
//! discriminant.
//!
//! Both ends must agree on the Mtype; the Mtype plays the role the IDL
//! type plays in GIOP.

use std::fmt;

use mockingbird_mtype::{IntRange, MtypeGraph, MtypeId, MtypeKind, RealPrecision, Repertoire};
use mockingbird_values::mvalue::list_element_type;
use mockingbird_values::{Endian, MValue, PortRef};

use crate::MAX_ZERO_WIDTH_SEQUENCE;

/// Errors from CDR encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CdrError(pub String);

impl fmt::Display for CdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CDR error: {}", self.0)
    }
}

impl std::error::Error for CdrError {}

fn err<T>(m: impl Into<String>) -> Result<T, CdrError> {
    Err(CdrError(m.into()))
}

/// How many bytes an Integer Mtype occupies on the wire, and whether the
/// encoding is signed.
fn int_repr(r: &IntRange) -> Result<(usize, bool), CdrError> {
    if r.lo >= 0 {
        let hi = r.hi;
        Ok(if hi <= u8::MAX as i128 {
            (1, false)
        } else if hi <= u16::MAX as i128 {
            (2, false)
        } else if hi <= u32::MAX as i128 {
            (4, false)
        } else if hi <= u64::MAX as i128 {
            (8, false)
        } else {
            return err(format!("integer range {r} exceeds 64 bits"));
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
            return err(format!("integer range {r} exceeds 64 bits"));
        })
    }
}

fn char_repr(rep: &Repertoire) -> usize {
    match rep {
        Repertoire::Ascii | Repertoire::Latin1 => 1,
        // GIOP 1.1 wchar is 16-bit; we widen to 32 so supplementary-plane
        // glyphs survive (structural, not certified interop).
        Repertoire::Unicode | Repertoire::Custom(_) => 4,
    }
}

/// A CDR output stream.
#[derive(Debug)]
pub struct CdrWriter {
    buf: Vec<u8>,
    endian: Endian,
    /// Sequence elements of zero wire width written so far (see
    /// [`CdrWriter::finish_seq`]).
    zero_width: usize,
}

impl CdrWriter {
    /// Creates a writer with the given byte order.
    pub fn new(endian: Endian) -> Self {
        CdrWriter::from_vec(Vec::new(), endian)
    }

    /// Creates a writer over an existing (pooled) buffer, reusing its
    /// capacity. The buffer is cleared; the alignment origin is offset 0.
    pub fn from_vec(mut buf: Vec<u8>, endian: Endian) -> Self {
        buf.clear();
        CdrWriter {
            buf,
            endian,
            zero_width: 0,
        }
    }

    /// The byte order in use.
    pub fn endian(&self) -> Endian {
        self.endian
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length (the alignment origin is offset 0).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Current buffer capacity (pool observability).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Resets the stream to empty, keeping the allocated capacity — the
    /// basis of buffer reuse on the fused marshal path.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.zero_width = 0;
    }

    fn align(&mut self, n: usize) {
        while !self.buf.len().is_multiple_of(n) {
            self.buf.push(0);
        }
    }

    pub(crate) fn put_uint(&mut self, size: usize, v: u64) {
        self.align(size);
        match self.endian {
            Endian::Little => {
                for i in 0..size {
                    self.buf.push((v >> (8 * i)) as u8);
                }
            }
            Endian::Big => {
                for i in (0..size).rev() {
                    self.buf.push((v >> (8 * i)) as u8);
                }
            }
        }
    }

    /// Writes a raw `u32` (used by framing).
    pub fn put_u32(&mut self, v: u32) {
        self.put_uint(4, v as u64);
    }

    /// Reserves capacity for at least `n` more bytes (native stubs
    /// pre-size fixed spans so a whole shape encodes without regrowth).
    #[inline]
    pub fn reserve(&mut self, n: usize) {
        self.buf.reserve(n);
    }

    /// Fixed-width primitive write: align to `N`, then append the
    /// byte-order-selected image in one bulk copy. The `const N` makes
    /// the alignment mask and the copy length compile-time constants on
    /// the emitted-stub path (no per-byte loop, no size dispatch).
    #[inline]
    pub fn put_fixed<const N: usize>(&mut self, le: [u8; N], be: [u8; N]) {
        self.align(N);
        match self.endian {
            Endian::Little => self.buf.extend_from_slice(&le),
            Endian::Big => self.buf.extend_from_slice(&be),
        }
    }

    /// Closes a sequence of `count` elements whose first byte would sit
    /// at `start`. Elements that wrote nothing have zero wire width, and
    /// a stream may hold at most [`MAX_ZERO_WIDTH_SEQUENCE`] of them, the
    /// most the decoders accept beyond the stream's length (see
    /// [`CdrReader::get_seq_len`]).
    pub(crate) fn finish_seq(&mut self, count: usize, start: usize) -> Result<(), CdrError> {
        if self.buf.len() == start {
            self.zero_width += count;
            if self.zero_width > MAX_ZERO_WIDTH_SEQUENCE {
                return err(format!(
                    "{} zero-width sequence elements exceed the cap of {MAX_ZERO_WIDTH_SEQUENCE}",
                    self.zero_width
                ));
            }
        }
        Ok(())
    }

    /// Writes a `u32`-length-prefixed byte sequence (used by framing).
    pub fn put_bytes(&mut self, data: &[u8]) {
        self.put_u32(data.len() as u32);
        self.buf.extend_from_slice(data);
    }

    /// Writes a `u32`-length-prefixed region produced in place by `f`
    /// (no intermediate buffer): aligns, reserves the length slot, runs
    /// `f` against the underlying buffer, then backpatches the length.
    pub(crate) fn put_prefixed(&mut self, f: impl FnOnce(&mut Vec<u8>)) {
        self.align(4);
        let slot = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 4]);
        f(&mut self.buf);
        let len = (self.buf.len() - slot - 4) as u32;
        let bytes = match self.endian {
            Endian::Little => len.to_le_bytes(),
            Endian::Big => len.to_be_bytes(),
        };
        self.buf[slot..slot + 4].copy_from_slice(&bytes);
    }

    /// Encodes `value` at the Mtype rooted at `ty`.
    ///
    /// # Errors
    ///
    /// Returns [`CdrError`] if the value does not inhabit the Mtype or
    /// the Mtype has no wire representation.
    pub fn put_value(
        &mut self,
        graph: &MtypeGraph,
        ty: MtypeId,
        value: &MValue,
    ) -> Result<(), CdrError> {
        self.put_value_at(graph, ty, value, 0)
    }

    fn put_value_at(
        &mut self,
        graph: &MtypeGraph,
        ty: MtypeId,
        value: &MValue,
        depth: usize,
    ) -> Result<(), CdrError> {
        if depth > crate::MAX_NESTING_DEPTH {
            return err("value nesting exceeds supported depth");
        }
        let ty = graph.resolve(ty);
        match (graph.kind(ty), value) {
            (MtypeKind::Integer(r), MValue::Int(v)) => {
                if !r.contains(*v) {
                    return err(format!("integer {v} outside range {r}"));
                }
                let (size, _signed) = int_repr(r)?;
                self.put_uint(size, *v as u64 & mask(size));
                Ok(())
            }
            (MtypeKind::Character(rep), MValue::Char(c)) => {
                let size = char_repr(rep);
                let code = *c as u32;
                if size == 1 && code > 0xFF {
                    return err(format!(
                        "character {c:?} not representable in 1-byte repertoire"
                    ));
                }
                self.put_uint(size, code as u64);
                Ok(())
            }
            (MtypeKind::Real(p), MValue::Real(v)) => {
                if *p == RealPrecision::SINGLE {
                    self.put_uint(4, (*v as f32).to_bits() as u64);
                } else {
                    self.put_uint(8, v.to_bits());
                }
                Ok(())
            }
            (MtypeKind::Unit, MValue::Unit) => Ok(()),
            (MtypeKind::Record(children), MValue::Record(items)) => {
                if children.len() != items.len() {
                    return err(format!(
                        "record arity: value has {}, type has {}",
                        items.len(),
                        children.len()
                    ));
                }
                for (c, item) in children.clone().iter().zip(items) {
                    self.put_value_at(graph, *c, item, depth + 1)?;
                }
                Ok(())
            }
            (MtypeKind::Choice(_), _) => {
                // Canonical collections encode as u32-prefixed sequences;
                // a Choice-chain value at a list node is normalised first.
                if let Some(elem) = list_element_type(graph, ty) {
                    let items = collect_list(value)?;
                    self.put_uint(4, items.len() as u64);
                    let start = self.len();
                    for item in &items {
                        self.put_value_at(graph, elem, item, depth + 1)?;
                    }
                    return self.finish_seq(items.len(), start);
                }
                let MValue::Choice { index, value } = value else {
                    return err(format!("expected a choice value, got {value}"));
                };
                let MtypeKind::Choice(alts) = graph.kind(ty) else {
                    unreachable!()
                };
                let alts = alts.clone();
                let Some(&alt) = alts.get(*index) else {
                    return err(format!("choice index {index} out of {}", alts.len()));
                };
                self.put_uint(4, *index as u64);
                self.put_value_at(graph, alt, value, depth + 1)
            }
            (MtypeKind::Port(_), MValue::Port(PortRef(id))) => {
                self.put_uint(8, *id);
                Ok(())
            }
            (MtypeKind::Dynamic, MValue::Dynamic { tag, value }) => {
                // Tag string, then a self-describing MBP payload.
                self.put_bytes(tag.as_bytes());
                let payload = crate::mbp::encode(value);
                self.put_bytes(&payload);
                Ok(())
            }
            (kind, value) => err(format!(
                "value {value} does not inhabit {} Mtype on the wire",
                kind.tag()
            )),
        }
    }
}

pub(crate) fn mask(size: usize) -> u64 {
    if size >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * size)) - 1
    }
}

/// Normalises a list-typed value (native `List` or a Choice chain) into
/// its items.
fn collect_list(value: &MValue) -> Result<Vec<&MValue>, CdrError> {
    match value {
        MValue::List(items) => Ok(items.iter().collect()),
        MValue::Choice { .. } => {
            let mut out = Vec::new();
            let mut cur = value;
            loop {
                match cur {
                    MValue::Choice { index: 0, .. } => return Ok(out),
                    MValue::Choice { index: 1, value } => match value.as_ref() {
                        MValue::Record(cell) if cell.len() == 2 => {
                            out.push(&cell[0]);
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

/// A CDR input stream.
#[derive(Debug)]
pub struct CdrReader<'a> {
    data: &'a [u8],
    pos: usize,
    endian: Endian,
    /// Sequence elements the stream may still claim (see
    /// [`CdrReader::get_seq_len`]).
    seq_budget: usize,
}

impl<'a> CdrReader<'a> {
    /// Creates a reader over `data` with the sender's byte order.
    pub fn new(data: &'a [u8], endian: Endian) -> Self {
        CdrReader {
            data,
            pos: 0,
            endian,
            seq_budget: data.len().saturating_add(MAX_ZERO_WIDTH_SEQUENCE),
        }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn align(&mut self, n: usize) {
        while !self.pos.is_multiple_of(n) {
            self.pos += 1;
        }
    }

    pub(crate) fn get_uint(&mut self, size: usize) -> Result<u64, CdrError> {
        self.align(size);
        if self.pos + size > self.data.len() {
            return err("truncated CDR stream");
        }
        let bytes = &self.data[self.pos..self.pos + size];
        self.pos += size;
        let mut v = 0u64;
        match self.endian {
            Endian::Little => {
                for (i, b) in bytes.iter().enumerate() {
                    v |= (*b as u64) << (8 * i);
                }
            }
            Endian::Big => {
                for b in bytes {
                    v = (v << 8) | *b as u64;
                }
            }
        }
        Ok(v)
    }

    /// Reads a raw `u32` (used by framing).
    ///
    /// # Errors
    ///
    /// Returns [`CdrError`] on truncation.
    pub fn get_u32(&mut self) -> Result<u32, CdrError> {
        Ok(self.get_uint(4)? as u32)
    }

    /// The sender's byte order.
    #[inline]
    pub fn endian(&self) -> Endian {
        self.endian
    }

    /// Fixed-width primitive read: align to `N`, bounds-check once, and
    /// return the `N`-byte image (the caller applies
    /// `uN::from_le_bytes`/`from_be_bytes`). Compile-time `N` keeps the
    /// emitted-stub path free of size dispatch.
    ///
    /// # Errors
    ///
    /// Returns [`CdrError`] on truncation.
    #[inline]
    pub fn get_fixed<const N: usize>(&mut self) -> Result<[u8; N], CdrError> {
        self.align(N);
        if self.pos + N > self.data.len() {
            return err("truncated CDR stream");
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.data[self.pos..self.pos + N]);
        self.pos += N;
        Ok(out)
    }

    /// Reads a sequence count and refuses one the stream cannot back.
    /// Every element of non-zero wire width owns at least one byte that
    /// no element nested inside it owns, and the encoders write at most
    /// [`MAX_ZERO_WIDTH_SEQUENCE`] zero-width elements per stream, so all
    /// the sequences of a stream together hold at most its length plus
    /// that cap. A count past what is left of that budget fails here,
    /// before anything is allocated for it.
    ///
    /// # Errors
    ///
    /// Returns [`CdrError`] on truncation or an unbacked count.
    pub(crate) fn get_seq_len(&mut self) -> Result<usize, CdrError> {
        let b = self.get_fixed::<4>()?;
        let n = match self.endian {
            Endian::Little => u32::from_le_bytes(b),
            Endian::Big => u32::from_be_bytes(b),
        } as usize;
        if n > 1 << 28 {
            return err(format!("implausible sequence length {n}"));
        }
        let Some(left) = self.seq_budget.checked_sub(n) else {
            return err(format!(
                "sequence length {n} exceeds the {} elements the stream can back",
                self.seq_budget
            ));
        };
        self.seq_budget = left;
        Ok(n)
    }

    /// Reads a `u32`-length-prefixed byte sequence.
    ///
    /// # Errors
    ///
    /// Returns [`CdrError`] on truncation.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CdrError> {
        let len = self.get_u32()? as usize;
        if self.pos + len > self.data.len() {
            return err("truncated CDR byte sequence");
        }
        let out = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Decodes a value of the Mtype rooted at `ty`.
    ///
    /// # Errors
    ///
    /// Returns [`CdrError`] on truncation or range violations.
    pub fn get_value(&mut self, graph: &MtypeGraph, ty: MtypeId) -> Result<MValue, CdrError> {
        self.get_value_at(graph, ty, 0)
    }

    fn get_value_at(
        &mut self,
        graph: &MtypeGraph,
        ty: MtypeId,
        depth: usize,
    ) -> Result<MValue, CdrError> {
        if depth > crate::MAX_NESTING_DEPTH {
            return err("type nesting exceeds supported depth");
        }
        let ty = graph.resolve(ty);
        match graph.kind(ty) {
            MtypeKind::Integer(r) => {
                let (size, signed) = int_repr(r)?;
                let raw = self.get_uint(size)?;
                let v: i128 = if signed {
                    sign_extend(raw, size) as i128
                } else {
                    raw as i128
                };
                if !r.contains(v) {
                    return err(format!("decoded integer {v} outside range {r}"));
                }
                Ok(MValue::Int(v))
            }
            MtypeKind::Character(rep) => {
                let size = char_repr(rep);
                let code = self.get_uint(size)? as u32;
                match char::from_u32(code) {
                    Some(c) => Ok(MValue::Char(c)),
                    None => err(format!("invalid character code {code}")),
                }
            }
            MtypeKind::Real(p) => {
                if *p == RealPrecision::SINGLE {
                    Ok(MValue::Real(f32::from_bits(self.get_uint(4)? as u32) as f64))
                } else {
                    Ok(MValue::Real(f64::from_bits(self.get_uint(8)?)))
                }
            }
            MtypeKind::Unit => Ok(MValue::Unit),
            MtypeKind::Record(children) => {
                let children = children.clone();
                let mut items = Vec::with_capacity(children.len());
                for c in children {
                    items.push(self.get_value_at(graph, c, depth + 1)?);
                }
                Ok(MValue::Record(items))
            }
            MtypeKind::Choice(alts) => {
                if let Some(elem) = list_element_type(graph, ty) {
                    let n = self.get_seq_len()?;
                    let mut items = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        items.push(self.get_value_at(graph, elem, depth + 1)?);
                    }
                    return Ok(MValue::List(items));
                }
                let alts = alts.clone();
                let index = self.get_uint(4)? as usize;
                let Some(&alt) = alts.get(index) else {
                    return err(format!("choice discriminant {index} out of {}", alts.len()));
                };
                let value = self.get_value_at(graph, alt, depth + 1)?;
                Ok(MValue::Choice {
                    index,
                    value: Box::new(value),
                })
            }
            MtypeKind::Port(_) => Ok(MValue::Port(PortRef(self.get_uint(8)?))),
            MtypeKind::Dynamic => {
                let tag = String::from_utf8_lossy(self.get_bytes()?).into_owned();
                let payload = self.get_bytes()?;
                let value = crate::mbp::decode(payload)
                    .map_err(|e| CdrError(format!("dynamic payload: {e}")))?;
                Ok(MValue::Dynamic {
                    tag,
                    value: Box::new(value),
                })
            }
            MtypeKind::Recursive(_) => unreachable!("resolve() removes binders"),
        }
    }
}

pub(crate) fn sign_extend(raw: u64, size: usize) -> i64 {
    let shift = 64 - 8 * size as u32;
    ((raw << shift) as i64) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;
    use mockingbird_mtype::MtypeGraph;

    fn round_trip(graph: &MtypeGraph, ty: MtypeId, v: &MValue, endian: Endian) -> MValue {
        let mut w = CdrWriter::new(endian);
        w.put_value(graph, ty, v).unwrap();
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, endian);
        let out = r.get_value(graph, ty).unwrap();
        assert_eq!(r.remaining(), 0, "whole stream consumed");
        out
    }

    #[test]
    fn primitive_round_trips_both_endians() {
        let mut g = MtypeGraph::new();
        let i8_ = g.integer(IntRange::signed_bits(8));
        let u16_ = g.integer(IntRange::unsigned_bits(16));
        let i32_ = g.integer(IntRange::signed_bits(32));
        let i64_ = g.integer(IntRange::signed_bits(64));
        let f = g.real(RealPrecision::SINGLE);
        let d = g.real(RealPrecision::DOUBLE);
        let c1 = g.character(Repertoire::Latin1);
        let cu = g.character(Repertoire::Unicode);
        for endian in [Endian::Little, Endian::Big] {
            assert_eq!(
                round_trip(&g, i8_, &MValue::Int(-100), endian),
                MValue::Int(-100)
            );
            assert_eq!(
                round_trip(&g, u16_, &MValue::Int(50000), endian),
                MValue::Int(50000)
            );
            assert_eq!(
                round_trip(&g, i32_, &MValue::Int(-123456), endian),
                MValue::Int(-123456)
            );
            assert_eq!(
                round_trip(&g, i64_, &MValue::Int(-(1 << 40)), endian),
                MValue::Int(-(1 << 40))
            );
            assert_eq!(
                round_trip(&g, f, &MValue::Real(1.5), endian),
                MValue::Real(1.5)
            );
            assert_eq!(
                round_trip(&g, d, &MValue::Real(-2.25), endian),
                MValue::Real(-2.25)
            );
            assert_eq!(
                round_trip(&g, c1, &MValue::Char('A'), endian),
                MValue::Char('A')
            );
            assert_eq!(
                round_trip(&g, cu, &MValue::Char('日'), endian),
                MValue::Char('日')
            );
        }
    }

    #[test]
    fn alignment_inserts_padding() {
        // Record(i8, i32): the i32 must start at offset 4.
        let mut g = MtypeGraph::new();
        let a = g.integer(IntRange::signed_bits(8));
        let b = g.integer(IntRange::signed_bits(32));
        let rec = g.record(vec![a, b]);
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(
            &g,
            rec,
            &MValue::Record(vec![MValue::Int(1), MValue::Int(2)]),
        )
        .unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8);
        assert_eq!(&bytes[..4], &[1, 0, 0, 0], "3 padding bytes after the i8");
        assert_eq!(&bytes[4..], &[2, 0, 0, 0]);
    }

    #[test]
    fn big_endian_byte_order_on_the_wire() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::unsigned_bits(32));
        let mut w = CdrWriter::new(Endian::Big);
        w.put_value(&g, i, &MValue::Int(0x0102_0304)).unwrap();
        assert_eq!(w.into_bytes(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn record_choice_and_port_round_trip() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let r = g.real(RealPrecision::SINGLE);
        let ch = g.choice(vec![i, r]);
        let p = g.port(i);
        let rec = g.record(vec![ch, p]);
        let v = MValue::Record(vec![
            MValue::Choice {
                index: 1,
                value: Box::new(MValue::Real(2.5)),
            },
            MValue::Port(PortRef(42)),
        ]);
        assert_eq!(round_trip(&g, rec, &v, Endian::Little), v);
        assert_eq!(round_trip(&g, rec, &v, Endian::Big), v);
    }

    #[test]
    fn lists_encode_as_sequences() {
        let mut g = MtypeGraph::new();
        let r = g.real(RealPrecision::SINGLE);
        let point = g.record(vec![r, r]);
        let list = g.list_of(point);
        let v = MValue::List(vec![
            MValue::Record(vec![MValue::Real(1.0), MValue::Real(2.0)]),
            MValue::Record(vec![MValue::Real(3.0), MValue::Real(4.0)]),
        ]);
        assert_eq!(round_trip(&g, list, &v, Endian::Little), v);
        // Wire size: u32 count + 4 floats = 4 + 16.
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(&g, list, &v).unwrap();
        assert_eq!(w.into_bytes().len(), 20);
    }

    #[test]
    fn choice_chain_lists_are_normalised() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(8));
        let list = g.list_of(i);
        // Build [7] as an explicit Choice chain.
        let chain = MValue::some(MValue::Record(vec![MValue::Int(7), MValue::null()]));
        let mut w = CdrWriter::new(Endian::Little);
        w.put_value(&g, list, &chain).unwrap();
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, Endian::Little);
        assert_eq!(
            r.get_value(&g, list).unwrap(),
            MValue::List(vec![MValue::Int(7)])
        );
    }

    #[test]
    fn nullable_round_trip() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let n = g.nullable(i);
        assert_eq!(
            round_trip(&g, n, &MValue::null(), Endian::Little),
            MValue::null()
        );
        assert_eq!(
            round_trip(&g, n, &MValue::some(MValue::Int(3)), Endian::Big),
            MValue::some(MValue::Int(3))
        );
    }

    #[test]
    fn strings_round_trip() {
        let mut g = MtypeGraph::new();
        let c = g.character(Repertoire::Unicode);
        let s = g.list_of(c);
        let v = MValue::string("héllo, wörld");
        assert_eq!(round_trip(&g, s, &v, Endian::Little), v);
    }

    #[test]
    fn dynamic_round_trip() {
        let mut g = MtypeGraph::new();
        let d = g.dynamic();
        let v = MValue::Dynamic {
            tag: "Record(Int{0..=1})".into(),
            value: Box::new(MValue::Record(vec![MValue::Int(1)])),
        };
        assert_eq!(round_trip(&g, d, &v, Endian::Little), v);
    }

    #[test]
    fn decode_errors_on_truncation_and_bad_discriminants() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::signed_bits(32));
        let mut r = CdrReader::new(&[1, 2], Endian::Little);
        assert!(r.get_value(&g, i).is_err());

        let ch = g.choice(vec![i, i]);
        let mut w = CdrWriter::new(Endian::Little);
        w.put_u32(9); // bad discriminant
        w.put_u32(0);
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, Endian::Little);
        assert!(r.get_value(&g, ch).is_err());
    }

    #[test]
    fn hostile_deeply_nested_buffer_is_rejected_not_overflowed() {
        // Nullable(T) is Choice(Unit, T); Nullable(Nullable(...)) lets a
        // hostile peer express unbounded *value* nesting in a tiny type.
        // A buffer of 3000 `some(...)` discriminants must hit the depth
        // guard and return CdrError instead of exhausting the stack.
        let mut g = MtypeGraph::new();
        let n = g.recursive(|g, slf| {
            let u = g.unit();
            g.choice(vec![u, slf])
        });
        let hostile: Vec<u8> = (0..3000).flat_map(|_| [1u8, 0, 0, 0]).collect();
        let mut r = CdrReader::new(&hostile, Endian::Little);
        let err = r.get_value(&g, n).unwrap_err();
        assert!(err.0.contains("depth"), "{err}");
        // A depth well under the guard still decodes.
        let mut w = CdrWriter::new(Endian::Little);
        let mut v = MValue::Choice {
            index: 0,
            value: Box::new(MValue::Unit),
        };
        for _ in 0..100 {
            v = MValue::Choice {
                index: 1,
                value: Box::new(v),
            };
        }
        w.put_value(&g, n, &v).unwrap();
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, Endian::Little);
        assert_eq!(r.get_value(&g, n).unwrap(), v);
    }

    #[test]
    fn encode_rejects_out_of_range() {
        let mut g = MtypeGraph::new();
        let i = g.integer(IntRange::boolean());
        let mut w = CdrWriter::new(Endian::Little);
        assert!(w.put_value(&g, i, &MValue::Int(2)).is_err());
    }
}
