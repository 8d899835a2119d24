//! The Mtype kinds and their parameters (ranges, repertoires, precisions).

use std::fmt;

use crate::graph::MtypeId;

/// An inclusive integer value range, the parameter of the `Integer` Mtype
/// family.
///
/// Two integral types are equivalent iff their ranges are equal, and one is
/// a subtype of the other iff its range is a subset of the other's (paper
/// §3.1). Booleans use `0..=1`; an enumeration with `n` elements uses
/// `0..=n-1`.
///
/// ```
/// use mockingbird_mtype::IntRange;
/// let java_short = IntRange::signed_bits(16);
/// let java_int = IntRange::signed_bits(32);
/// assert!(java_short.is_subrange_of(&java_int));
/// assert!(!java_int.is_subrange_of(&java_short));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntRange {
    /// The least representable value.
    pub lo: i128,
    /// The greatest representable value.
    pub hi: i128,
}

impl IntRange {
    /// Creates a range from explicit bounds.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: i128, hi: i128) -> Self {
        assert!(lo <= hi, "invalid integer range {lo}..={hi}");
        IntRange { lo, hi }
    }

    /// Range of a two's-complement signed integer with `bits` bits
    /// (e.g. a Java `short` is `signed_bits(16)`:
    /// \\(-2^{15} \dots 2^{15}-1\\)).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 127.
    pub fn signed_bits(bits: u32) -> Self {
        assert!(bits > 0 && bits < 128, "unsupported bit width {bits}");
        let hi = (1i128 << (bits - 1)) - 1;
        IntRange {
            lo: -(1i128 << (bits - 1)),
            hi,
        }
    }

    /// Range of an unsigned integer with `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 127.
    pub fn unsigned_bits(bits: u32) -> Self {
        assert!(bits > 0 && bits < 128, "unsupported bit width {bits}");
        IntRange {
            lo: 0,
            hi: (1i128 << bits) - 1,
        }
    }

    /// The conventional boolean range `0..=1`.
    pub fn boolean() -> Self {
        IntRange { lo: 0, hi: 1 }
    }

    /// The conventional range for an enumeration of `n` elements,
    /// `0..=n-1` (paper §3.1).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn enumeration(n: u64) -> Self {
        assert!(n > 0, "enumeration must have at least one element");
        IntRange {
            lo: 0,
            hi: (n as i128) - 1,
        }
    }

    /// Whether `self`'s range is a (non-strict) subset of `other`'s:
    /// the subtype test for Integer Mtypes.
    pub fn is_subrange_of(&self, other: &IntRange) -> bool {
        self.lo >= other.lo && self.hi <= other.hi
    }

    /// Whether `value` is representable in this range.
    pub fn contains(&self, value: i128) -> bool {
        self.lo <= value && value <= self.hi
    }

    /// Number of values in the range, saturating at `u128::MAX`.
    pub fn cardinality(&self) -> u128 {
        (self.hi as u128)
            .wrapping_sub(self.lo as u128)
            .saturating_add(1)
    }
}

impl fmt::Display for IntRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..={}", self.lo, self.hi)
    }
}

/// A glyph repertoire, the parameter of the `Character` Mtype family.
///
/// One Character Mtype is a subtype of another iff the latter's repertoire
/// includes the former's (paper §3.1): ISO-Latin-1 ⊆ Unicode, ASCII ⊆ both.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Repertoire {
    /// 7-bit US-ASCII.
    Ascii,
    /// ISO-8859-1 (Latin-1), the default repertoire of C `char`.
    Latin1,
    /// The Unicode repertoire, the default of Java `char` and `wchar_t`.
    Unicode,
    /// A named custom repertoire; two custom repertoires are comparable
    /// only when their names are equal.
    Custom(String),
}

impl Repertoire {
    /// Whether every glyph of `self` is also in `other`.
    pub fn is_subrepertoire_of(&self, other: &Repertoire) -> bool {
        use Repertoire::*;
        match (self, other) {
            (Ascii, _) => !matches!(other, Custom(_)),
            (Latin1, Latin1) | (Latin1, Unicode) => true,
            (Unicode, Unicode) => true,
            (Custom(a), Custom(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Repertoire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Repertoire::Ascii => write!(f, "ASCII"),
            Repertoire::Latin1 => write!(f, "Latin-1"),
            Repertoire::Unicode => write!(f, "Unicode"),
            Repertoire::Custom(name) => write!(f, "{name}"),
        }
    }
}

/// Precision and exponent width of a `Real` Mtype (paper §3.1: "a family
/// of Real Mtypes distinguished by their precision and exponent").
///
/// Uses IEEE-754 conventions: `mantissa_bits` counts the significand
/// including the implicit leading bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RealPrecision {
    /// Significand width in bits (24 for `float`, 53 for `double`).
    pub mantissa_bits: u16,
    /// Exponent width in bits (8 for `float`, 11 for `double`).
    pub exponent_bits: u16,
}

impl RealPrecision {
    /// IEEE-754 binary32 (C `float`, Java `float`, IDL `float`).
    pub const SINGLE: RealPrecision = RealPrecision {
        mantissa_bits: 24,
        exponent_bits: 8,
    };
    /// IEEE-754 binary64 (C `double`, Java `double`, IDL `double`).
    pub const DOUBLE: RealPrecision = RealPrecision {
        mantissa_bits: 53,
        exponent_bits: 11,
    };

    /// Whether every value of `self` is exactly representable in `other`:
    /// the subtype test for Real Mtypes.
    pub fn fits_in(&self, other: &RealPrecision) -> bool {
        self.mantissa_bits <= other.mantissa_bits && self.exponent_bits <= other.exponent_bits
    }
}

impl fmt::Display for RealPrecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{},{}", self.mantissa_bits, self.exponent_bits)
    }
}

/// One node kind in an Mtype graph.
///
/// Child references are [`MtypeId`]s into the owning [`MtypeGraph`]; edges
/// may point *backwards* to a `Recursive` node, which is how cycles
/// ("back-pointers to this node represent self-references", paper §3.2)
/// are encoded.
///
/// [`MtypeGraph`]: crate::graph::MtypeGraph
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MtypeKind {
    /// An integral type, parameterised by value range.
    Integer(IntRange),
    /// A character type, parameterised by glyph repertoire.
    Character(Repertoire),
    /// A floating point type, parameterised by precision and exponent.
    Real(RealPrecision),
    /// The `void`/null type.
    Unit,
    /// An ordered heterogeneous aggregate. Fixed-size arrays of length
    /// `n` become Records with `n` identical children (paper §3.2).
    Record(Vec<MtypeId>),
    /// A disjoint union of alternatives. Nullable pointers become
    /// `Choice(Unit, referent)`; objects passed by reference become
    /// `port(Choice(m_1..m_n))` over their method invocation Mtypes.
    Choice(Vec<MtypeId>),
    /// A binder marking a cycle in the graph; `body` may (transitively)
    /// refer back to this node. Indefinite-size homogeneous collections
    /// are the canonical list `Rec X. Choice(Unit, Record(elem, X))`.
    Recursive(MtypeId),
    /// An address to which values of the child Mtype may be sent.
    /// Functions translate to `port(Record(I, port(O)))` (paper §3.3).
    Port(MtypeId),
    /// The §6 extension: a dynamically-typed value ("similar to Any").
    Dynamic,
}

impl MtypeKind {
    /// The node's children, in order.
    pub fn children(&self) -> &[MtypeId] {
        match self {
            MtypeKind::Record(cs) | MtypeKind::Choice(cs) => cs,
            MtypeKind::Recursive(c) | MtypeKind::Port(c) => std::slice::from_ref(c),
            _ => &[],
        }
    }

    /// Mutable access to the node's children, in order.
    pub fn children_mut(&mut self) -> &mut [MtypeId] {
        match self {
            MtypeKind::Record(cs) | MtypeKind::Choice(cs) => cs,
            MtypeKind::Recursive(c) | MtypeKind::Port(c) => std::slice::from_mut(c),
            _ => &mut [],
        }
    }

    /// A short tag naming the kind, as used in Table 1 of the paper.
    pub fn tag(&self) -> &'static str {
        match self {
            MtypeKind::Integer(_) => "Integer",
            MtypeKind::Character(_) => "Character",
            MtypeKind::Real(_) => "Real",
            MtypeKind::Unit => "Unit",
            MtypeKind::Record(_) => "Record",
            MtypeKind::Choice(_) => "Choice",
            MtypeKind::Recursive(_) => "Recursive",
            MtypeKind::Port(_) => "Port",
            MtypeKind::Dynamic => "Dynamic",
        }
    }

    /// The Table-1 description of the kind.
    pub fn description(&self) -> &'static str {
        match self {
            MtypeKind::Character(_) => "Corresponds to character types, e.g. char.",
            MtypeKind::Integer(_) => "Corresponds to integral types, e.g. int.",
            MtypeKind::Real(_) => "Corresponds to floating point types, e.g. float.",
            MtypeKind::Unit => "Corresponds to void or null types.",
            MtypeKind::Record(_) => "Corresponds to aggregates, e.g. struct.",
            MtypeKind::Choice(_) => {
                "Corresponds to disjoint unions (variants), e.g. union, \
                 and other places where alternatives arise."
            }
            MtypeKind::Recursive(_) => "Corresponds to types defined in terms of themselves.",
            MtypeKind::Port(_) => "Used to implement functions, interfaces, etc.",
            MtypeKind::Dynamic => "Extension: dynamically typed values (similar to CORBA Any).",
        }
    }
}

/// The eight Mtype kind tags of Table 1, in the paper's order, plus the
/// `Dynamic` extension. Useful for regenerating the table.
pub const TABLE1_TAGS: [&str; 8] = [
    "Character",
    "Integer",
    "Real",
    "Unit",
    "Record",
    "Choice",
    "Recursive",
    "Port",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_bits_matches_java_short() {
        let r = IntRange::signed_bits(16);
        assert_eq!(r.lo, -(1 << 15));
        assert_eq!(r.hi, (1 << 15) - 1);
    }

    #[test]
    fn unsigned_bits_matches_c_unsigned() {
        let r = IntRange::unsigned_bits(32);
        assert_eq!(r.lo, 0);
        assert_eq!(r.hi, (1i128 << 32) - 1);
    }

    #[test]
    fn boolean_and_enumeration_conventions() {
        assert_eq!(IntRange::boolean(), IntRange::new(0, 1));
        assert_eq!(IntRange::enumeration(3), IntRange::new(0, 2));
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn empty_enumeration_rejected() {
        IntRange::enumeration(0);
    }

    #[test]
    fn subrange_is_reflexive_and_ordered() {
        let short = IntRange::signed_bits(16);
        let int = IntRange::signed_bits(32);
        assert!(short.is_subrange_of(&short));
        assert!(short.is_subrange_of(&int));
        assert!(!int.is_subrange_of(&short));
    }

    #[test]
    fn annotated_java_int_equals_annotated_c_unsigned() {
        // Paper §3.1: a Java int annotated "unsigned only" and a C unsigned
        // int annotated "<= 2^31-1" become equivalent.
        let annotated_java = IntRange::new(0, (1 << 31) - 1);
        let annotated_c = IntRange::new(0, (1 << 31) - 1);
        assert_eq!(annotated_java, annotated_c);
    }

    #[test]
    fn repertoire_ordering() {
        use Repertoire::*;
        assert!(Latin1.is_subrepertoire_of(&Unicode));
        assert!(!Unicode.is_subrepertoire_of(&Latin1));
        assert!(Ascii.is_subrepertoire_of(&Latin1));
        assert!(Ascii.is_subrepertoire_of(&Unicode));
        assert!(Custom("EBCDIC".into()).is_subrepertoire_of(&Custom("EBCDIC".into())));
        assert!(!Custom("EBCDIC".into()).is_subrepertoire_of(&Unicode));
        assert!(!Ascii.is_subrepertoire_of(&Custom("EBCDIC".into())));
    }

    #[test]
    fn real_precisions() {
        assert!(RealPrecision::SINGLE.fits_in(&RealPrecision::DOUBLE));
        assert!(!RealPrecision::DOUBLE.fits_in(&RealPrecision::SINGLE));
        assert!(RealPrecision::SINGLE.fits_in(&RealPrecision::SINGLE));
    }

    #[test]
    fn cardinality() {
        assert_eq!(IntRange::boolean().cardinality(), 2);
        assert_eq!(IntRange::signed_bits(8).cardinality(), 256);
    }

    #[test]
    fn range_display() {
        assert_eq!(IntRange::signed_bits(8).to_string(), "-128..=127");
    }
}
