//! Project files: persisted sessions.
//!
//! "At any point, the programmer can save the current state of the parsed
//! and annotated declarations in a project file for later use." (paper
//! §3). A [`Project`] serialises the whole [`Universe`] — declarations
//! *with* their annotations — to JSON and restores it, and is one of the
//! four input kinds the tool can parse (Fig. 6).

use std::fmt;
use std::io;
use std::path::Path;

use mockingbird_mtype::{IntRange, RealPrecision, Repertoire};

use crate::ann::{Ann, Direction, LengthAnn, PassMode};
use crate::ast::{ArrayLen, Decl, Field, Lang, Method, Param, SNode, Signature, Stype, Universe};
use crate::json::{Json, JsonError};

/// Current on-disk format version.
pub const FORMAT_VERSION: u32 = 1;

/// A saved Mockingbird session: the annotated declaration universe plus
/// bookkeeping metadata.
#[derive(Debug, Clone)]
pub struct Project {
    /// On-disk format version; readers reject unknown versions.
    pub version: u32,
    /// Human-readable project name.
    pub name: String,
    /// The annotated declarations.
    pub universe: Universe,
}

/// Errors from loading or saving projects.
#[derive(Debug)]
pub enum ProjectError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The JSON is malformed or structurally wrong.
    Format(JsonError),
    /// The format version is not supported.
    Version(u32),
}

impl fmt::Display for ProjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProjectError::Io(e) => write!(f, "project i/o error: {e}"),
            ProjectError::Format(e) => write!(f, "project format error: {e}"),
            ProjectError::Version(v) => {
                write!(
                    f,
                    "unsupported project version {v} (supported: {FORMAT_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for ProjectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProjectError::Io(e) => Some(e),
            ProjectError::Format(e) => Some(e),
            ProjectError::Version(_) => None,
        }
    }
}

impl From<io::Error> for ProjectError {
    fn from(e: io::Error) -> Self {
        ProjectError::Io(e)
    }
}

impl From<JsonError> for ProjectError {
    fn from(e: JsonError) -> Self {
        ProjectError::Format(e)
    }
}

impl Project {
    /// Wraps a universe into a project.
    pub fn new(name: impl Into<String>, universe: Universe) -> Self {
        Project {
            version: FORMAT_VERSION,
            name: name.into(),
            universe,
        }
    }

    /// Serialises to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ProjectError::Format`] if serialisation fails (it will
    /// not for well-formed universes).
    pub fn to_json(&self) -> Result<String, ProjectError> {
        let v = Json::obj([
            ("version", Json::Int(i128::from(self.version))),
            ("name", Json::str(&self.name)),
            ("universe", encode_universe(&self.universe)),
        ]);
        Ok(v.pretty())
    }

    /// Restores a project from JSON, rebuilding internal indexes.
    /// Top-level keys other than `version`, `name` and `universe` are
    /// ignored, so files that carry sections this reader does not know
    /// still load.
    ///
    /// # Errors
    ///
    /// Returns [`ProjectError::Format`] on malformed JSON and
    /// [`ProjectError::Version`] on an unsupported format version.
    pub fn from_json(json: &str) -> Result<Self, ProjectError> {
        let v = Json::parse(json)?;
        let version = u32::try_from(v.req("version")?.as_int()?)
            .map_err(|_| JsonError("version out of range".into()))?;
        if version != FORMAT_VERSION {
            return Err(ProjectError::Version(version));
        }
        let name = v.req("name")?.as_str()?.to_string();
        let mut universe = decode_universe(v.req("universe")?)?;
        universe.reindex();
        Ok(Project {
            version,
            name,
            universe,
        })
    }

    /// Saves to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialisation failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ProjectError> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Loads from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse failures.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ProjectError> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_universe(u: &Universe) -> Json {
    Json::obj([("decls", Json::Array(u.iter().map(encode_decl).collect()))])
}

fn encode_decl(d: &Decl) -> Json {
    let mut v = Json::obj([
        ("name", Json::str(&d.name)),
        ("lang", Json::str(lang_tag(d.lang))),
        ("ty", encode_stype(&d.ty)),
    ]);
    if let Some(doc) = &d.doc {
        if let Json::Object(m) = &mut v {
            m.insert("doc".into(), Json::str(doc));
        }
    }
    v
}

fn lang_tag(l: Lang) -> &'static str {
    match l {
        Lang::C => "C",
        Lang::Cxx => "Cxx",
        Lang::Java => "Java",
        Lang::Idl => "Idl",
    }
}

fn prim_tag(p: crate::ast::Prim) -> &'static str {
    use crate::ast::Prim::*;
    match p {
        Bool => "Bool",
        Char8 => "Char8",
        Char16 => "Char16",
        I8 => "I8",
        U8 => "U8",
        I16 => "I16",
        U16 => "U16",
        I32 => "I32",
        U32 => "U32",
        I64 => "I64",
        U64 => "U64",
        F32 => "F32",
        F64 => "F64",
        Void => "Void",
        Any => "Any",
    }
}

fn encode_stype(s: &Stype) -> Json {
    let mut map = std::collections::BTreeMap::new();
    map.insert("node".to_string(), encode_node(&s.node));
    if !s.ann.is_empty() {
        map.insert("ann".to_string(), encode_ann(&s.ann));
    }
    Json::Object(map)
}

fn encode_node(n: &SNode) -> Json {
    match n {
        SNode::Prim(p) => Json::obj([("Prim", Json::str(prim_tag(*p)))]),
        SNode::Named(name) => Json::obj([("Named", Json::str(name))]),
        SNode::Pointer(t) => Json::obj([("Pointer", encode_stype(t))]),
        SNode::Array { elem, len } => Json::obj([(
            "Array",
            Json::obj([
                ("elem", encode_stype(elem)),
                (
                    "len",
                    match len {
                        ArrayLen::Fixed(n) => Json::obj([("Fixed", Json::Int(*n as i128))]),
                        ArrayLen::Indefinite => Json::str("Indefinite"),
                    },
                ),
            ]),
        )]),
        SNode::Struct(fs) => {
            Json::obj([("Struct", Json::Array(fs.iter().map(encode_field).collect()))])
        }
        SNode::Union(fs) => {
            Json::obj([("Union", Json::Array(fs.iter().map(encode_field).collect()))])
        }
        SNode::Enum(ms) => Json::obj([("Enum", Json::Array(ms.iter().map(Json::str).collect()))]),
        SNode::Class {
            fields,
            methods,
            extends,
        } => Json::obj([(
            "Class",
            Json::obj([
                (
                    "fields",
                    Json::Array(fields.iter().map(encode_field).collect()),
                ),
                (
                    "methods",
                    Json::Array(methods.iter().map(encode_method).collect()),
                ),
                ("extends", extends.as_ref().map_or(Json::Null, Json::str)),
            ]),
        )]),
        SNode::Interface { methods, extends } => Json::obj([(
            "Interface",
            Json::obj([
                (
                    "methods",
                    Json::Array(methods.iter().map(encode_method).collect()),
                ),
                (
                    "extends",
                    Json::Array(extends.iter().map(Json::str).collect()),
                ),
            ]),
        )]),
        SNode::Function(sig) => Json::obj([("Function", encode_signature(sig))]),
        SNode::Sequence(e) => Json::obj([("Sequence", encode_stype(e))]),
        SNode::Str => Json::str("Str"),
    }
}

fn encode_field(f: &Field) -> Json {
    Json::obj([("name", Json::str(&f.name)), ("ty", encode_stype(&f.ty))])
}

fn encode_param(p: &Param) -> Json {
    Json::obj([("name", Json::str(&p.name)), ("ty", encode_stype(&p.ty))])
}

fn encode_signature(sig: &Signature) -> Json {
    let mut map = std::collections::BTreeMap::new();
    map.insert(
        "params".to_string(),
        Json::Array(sig.params.iter().map(encode_param).collect()),
    );
    map.insert("ret".to_string(), encode_stype(&sig.ret));
    if !sig.throws.is_empty() {
        map.insert(
            "throws".to_string(),
            Json::Array(sig.throws.iter().map(encode_stype).collect()),
        );
    }
    Json::Object(map)
}

fn encode_method(m: &Method) -> Json {
    Json::obj([
        ("name", Json::str(&m.name)),
        ("sig", encode_signature(&m.sig)),
    ])
}

fn encode_ann(a: &Ann) -> Json {
    let mut map = std::collections::BTreeMap::new();
    if let Some(r) = &a.int_range {
        map.insert(
            "int_range".to_string(),
            Json::obj([("lo", Json::Int(r.lo)), ("hi", Json::Int(r.hi))]),
        );
    }
    if let Some(rep) = &a.repertoire {
        map.insert(
            "repertoire".to_string(),
            match rep {
                Repertoire::Ascii => Json::str("Ascii"),
                Repertoire::Latin1 => Json::str("Latin1"),
                Repertoire::Unicode => Json::str("Unicode"),
                Repertoire::Custom(name) => Json::obj([("Custom", Json::str(name))]),
            },
        );
    }
    if a.as_integer {
        map.insert("as_integer".to_string(), Json::Bool(true));
    }
    if let Some(p) = &a.real_precision {
        map.insert(
            "real_precision".to_string(),
            Json::obj([
                ("mantissa_bits", Json::Int(i128::from(p.mantissa_bits))),
                ("exponent_bits", Json::Int(i128::from(p.exponent_bits))),
            ]),
        );
    }
    if a.non_null {
        map.insert("non_null".to_string(), Json::Bool(true));
    }
    if a.no_alias {
        map.insert("no_alias".to_string(), Json::Bool(true));
    }
    if let Some(l) = &a.length {
        map.insert(
            "length".to_string(),
            match l {
                LengthAnn::Static(n) => Json::obj([("Static", Json::Int(*n as i128))]),
                LengthAnn::Runtime => Json::str("Runtime"),
                LengthAnn::Param(p) => Json::obj([("Param", Json::str(p))]),
            },
        );
    }
    if let Some(d) = &a.direction {
        map.insert(
            "direction".to_string(),
            Json::str(match d {
                Direction::In => "In",
                Direction::Out => "Out",
                Direction::InOut => "InOut",
            }),
        );
    }
    if let Some(pm) = &a.pass_mode {
        map.insert(
            "pass_mode".to_string(),
            Json::str(match pm {
                PassMode::ByValue => "ByValue",
                PassMode::ByReference => "ByReference",
            }),
        );
    }
    if let Some(e) = &a.element {
        map.insert("element".to_string(), Json::str(e));
    }
    if a.is_string {
        map.insert("is_string".to_string(), Json::Bool(true));
    }
    Json::Object(map)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn decode_universe(v: &Json) -> Result<Universe, JsonError> {
    let mut u = Universe::new();
    for d in v.req("decls")?.as_array()? {
        let decl = decode_decl(d)?;
        u.insert(decl)
            .map_err(|e| JsonError(format!("duplicate declaration: {e}")))?;
    }
    Ok(u)
}

fn decode_decl(v: &Json) -> Result<Decl, JsonError> {
    let name = v.req("name")?.as_str()?.to_string();
    let lang = match v.req("lang")?.as_str()? {
        "C" => Lang::C,
        "Cxx" => Lang::Cxx,
        "Java" => Lang::Java,
        "Idl" => Lang::Idl,
        other => return Err(JsonError(format!("unknown lang `{other}`"))),
    };
    let ty = decode_stype(v.req("ty")?)?;
    let doc = match v.get("doc") {
        Some(Json::Str(s)) => Some(s.clone()),
        Some(Json::Null) | None => None,
        Some(other) => return Err(JsonError(format!("bad doc field {other:?}"))),
    };
    Ok(Decl {
        name,
        lang,
        ty,
        doc,
    })
}

fn decode_stype(v: &Json) -> Result<Stype, JsonError> {
    let node = decode_node(v.req("node")?)?;
    let ann = match v.get("ann") {
        Some(a) => decode_ann(a)?,
        None => Ann::default(),
    };
    Ok(Stype { node, ann })
}

/// Unwraps the externally-tagged enum form: either `"UnitVariant"` or
/// `{"Variant": payload}` with exactly one key.
fn variant(v: &Json) -> Result<(&str, Option<&Json>), JsonError> {
    match v {
        Json::Str(tag) => Ok((tag, None)),
        Json::Object(m) if m.len() == 1 => {
            let (tag, payload) = m.iter().next().expect("len checked");
            Ok((tag, Some(payload)))
        }
        other => Err(JsonError(format!("expected enum variant, got {other:?}"))),
    }
}

fn payload<'a>(p: Option<&'a Json>, tag: &str) -> Result<&'a Json, JsonError> {
    p.ok_or_else(|| JsonError(format!("variant `{tag}` needs a payload")))
}

fn decode_node(v: &Json) -> Result<SNode, JsonError> {
    let (tag, p) = variant(v)?;
    match tag {
        "Prim" => {
            use crate::ast::Prim::*;
            let name = payload(p, tag)?.as_str()?;
            let prim = match name {
                "Bool" => Bool,
                "Char8" => Char8,
                "Char16" => Char16,
                "I8" => I8,
                "U8" => U8,
                "I16" => I16,
                "U16" => U16,
                "I32" => I32,
                "U32" => U32,
                "I64" => I64,
                "U64" => U64,
                "F32" => F32,
                "F64" => F64,
                "Void" => Void,
                "Any" => Any,
                other => return Err(JsonError(format!("unknown prim `{other}`"))),
            };
            Ok(SNode::Prim(prim))
        }
        "Named" => Ok(SNode::Named(payload(p, tag)?.as_str()?.to_string())),
        "Pointer" => Ok(SNode::Pointer(Box::new(decode_stype(payload(p, tag)?)?))),
        "Array" => {
            let p = payload(p, tag)?;
            let elem = Box::new(decode_stype(p.req("elem")?)?);
            let (ltag, lp) = variant(p.req("len")?)?;
            let len = match ltag {
                "Fixed" => ArrayLen::Fixed(usize_of(payload(lp, ltag)?)?),
                "Indefinite" => ArrayLen::Indefinite,
                other => return Err(JsonError(format!("unknown array len `{other}`"))),
            };
            Ok(SNode::Array { elem, len })
        }
        "Struct" => Ok(SNode::Struct(decode_fields(payload(p, tag)?)?)),
        "Union" => Ok(SNode::Union(decode_fields(payload(p, tag)?)?)),
        "Enum" => {
            let members = payload(p, tag)?
                .as_array()?
                .iter()
                .map(|m| m.as_str().map(str::to_string))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SNode::Enum(members))
        }
        "Class" => {
            let p = payload(p, tag)?;
            let fields = decode_fields(p.req("fields")?)?;
            let methods = decode_methods(p.req("methods")?)?;
            let extends = match p.get("extends") {
                Some(Json::Str(s)) => Some(s.clone()),
                Some(Json::Null) | None => None,
                Some(other) => return Err(JsonError(format!("bad extends field {other:?}"))),
            };
            Ok(SNode::Class {
                fields,
                methods,
                extends,
            })
        }
        "Interface" => {
            let p = payload(p, tag)?;
            let methods = decode_methods(p.req("methods")?)?;
            let extends = p
                .req("extends")?
                .as_array()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SNode::Interface { methods, extends })
        }
        "Function" => Ok(SNode::Function(decode_signature(payload(p, tag)?)?)),
        "Sequence" => Ok(SNode::Sequence(Box::new(decode_stype(payload(p, tag)?)?))),
        "Str" => Ok(SNode::Str),
        other => Err(JsonError(format!("unknown Stype node `{other}`"))),
    }
}

fn usize_of(v: &Json) -> Result<usize, JsonError> {
    usize::try_from(v.as_int()?).map_err(|_| JsonError("length out of range".into()))
}

fn decode_fields(v: &Json) -> Result<Vec<Field>, JsonError> {
    v.as_array()?
        .iter()
        .map(|f| {
            Ok(Field {
                name: f.req("name")?.as_str()?.to_string(),
                ty: decode_stype(f.req("ty")?)?,
            })
        })
        .collect()
}

fn decode_signature(v: &Json) -> Result<Signature, JsonError> {
    let params = v
        .req("params")?
        .as_array()?
        .iter()
        .map(|p| {
            Ok(Param {
                name: p.req("name")?.as_str()?.to_string(),
                ty: decode_stype(p.req("ty")?)?,
            })
        })
        .collect::<Result<Vec<_>, JsonError>>()?;
    let ret = Box::new(decode_stype(v.req("ret")?)?);
    let throws = match v.get("throws") {
        Some(t) => t
            .as_array()?
            .iter()
            .map(decode_stype)
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    Ok(Signature {
        params,
        ret,
        throws,
    })
}

fn decode_methods(v: &Json) -> Result<Vec<Method>, JsonError> {
    v.as_array()?
        .iter()
        .map(|m| {
            Ok(Method {
                name: m.req("name")?.as_str()?.to_string(),
                sig: decode_signature(m.req("sig")?)?,
            })
        })
        .collect()
}

fn decode_ann(v: &Json) -> Result<Ann, JsonError> {
    let mut a = Ann::default();
    if let Some(r) = v.get("int_range") {
        a.int_range = Some(IntRange {
            lo: r.req("lo")?.as_int()?,
            hi: r.req("hi")?.as_int()?,
        });
    }
    if let Some(rep) = v.get("repertoire") {
        let (tag, p) = variant(rep)?;
        a.repertoire = Some(match tag {
            "Ascii" => Repertoire::Ascii,
            "Latin1" => Repertoire::Latin1,
            "Unicode" => Repertoire::Unicode,
            "Custom" => Repertoire::Custom(payload(p, tag)?.as_str()?.to_string()),
            other => return Err(JsonError(format!("unknown repertoire `{other}`"))),
        });
    }
    if let Some(b) = v.get("as_integer") {
        a.as_integer = b.as_bool()?;
    }
    if let Some(p) = v.get("real_precision") {
        let mantissa = p.req("mantissa_bits")?.as_int()?;
        let exponent = p.req("exponent_bits")?.as_int()?;
        a.real_precision = Some(RealPrecision {
            mantissa_bits: u16::try_from(mantissa)
                .map_err(|_| JsonError("mantissa_bits out of range".into()))?,
            exponent_bits: u16::try_from(exponent)
                .map_err(|_| JsonError("exponent_bits out of range".into()))?,
        });
    }
    if let Some(b) = v.get("non_null") {
        a.non_null = b.as_bool()?;
    }
    if let Some(b) = v.get("no_alias") {
        a.no_alias = b.as_bool()?;
    }
    if let Some(l) = v.get("length") {
        let (tag, p) = variant(l)?;
        a.length = Some(match tag {
            "Static" => LengthAnn::Static(usize_of(payload(p, tag)?)?),
            "Runtime" => LengthAnn::Runtime,
            "Param" => LengthAnn::Param(payload(p, tag)?.as_str()?.to_string()),
            other => return Err(JsonError(format!("unknown length ann `{other}`"))),
        });
    }
    if let Some(d) = v.get("direction") {
        a.direction = Some(match d.as_str()? {
            "In" => Direction::In,
            "Out" => Direction::Out,
            "InOut" => Direction::InOut,
            other => return Err(JsonError(format!("unknown direction `{other}`"))),
        });
    }
    if let Some(pm) = v.get("pass_mode") {
        a.pass_mode = Some(match pm.as_str()? {
            "ByValue" => PassMode::ByValue,
            "ByReference" => PassMode::ByReference,
            other => return Err(JsonError(format!("unknown pass mode `{other}`"))),
        });
    }
    if let Some(e) = v.get("element") {
        a.element = Some(e.as_str()?.to_string());
    }
    if let Some(b) = v.get("is_string") {
        a.is_string = b.as_bool()?;
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ann::LengthAnn;
    use crate::ast::{Decl, Field, Lang, Stype};
    use crate::script::apply_script;

    fn sample() -> Universe {
        let mut u = Universe::new();
        u.insert(Decl::new(
            "Point",
            Lang::Java,
            Stype::class(
                vec![Field::new("x", Stype::f32()), Field::new("y", Stype::f32())],
                vec![],
            ),
        ))
        .unwrap();
        u.insert(Decl::new(
            "point",
            Lang::C,
            Stype::array_fixed(Stype::f32(), 2),
        ))
        .unwrap();
        u
    }

    #[test]
    fn round_trip_preserves_declarations_and_annotations() {
        let mut u = sample();
        apply_script(&mut u, "annotate point length=static(2)").unwrap();
        let p = Project::new("fitter-session", u);
        let json = p.to_json().unwrap();
        let restored = Project::from_json(&json).unwrap();
        assert_eq!(restored.name, "fitter-session");
        assert_eq!(restored.universe.len(), 2);
        assert_eq!(
            restored.universe.get("point").unwrap().ty.ann.length,
            Some(LengthAnn::Static(2))
        );
        // Index rebuilt: lookups work.
        assert!(restored.universe.get("Point").is_some());
    }

    #[test]
    fn version_mismatch_rejected() {
        let p = Project::new("x", sample());
        let json = p
            .to_json()
            .unwrap()
            .replace("\"version\": 1", "\"version\": 99");
        let err = Project::from_json(&json).unwrap_err();
        assert!(matches!(err, ProjectError::Version(99)));
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(
            Project::from_json("{ not json").unwrap_err(),
            ProjectError::Format(_)
        ));
    }

    #[test]
    fn file_save_load() {
        let dir = std::env::temp_dir().join("mockingbird-project-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.mbproj.json");
        let p = Project::new("disk", sample());
        p.save(&path).unwrap();
        let restored = Project::load(&path).unwrap();
        assert_eq!(restored.universe.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rich_ann_fields_round_trip() {
        let mut u = Universe::new();
        let ty = Stype::pointer(Stype::char8()).with_ann(|a| {
            a.non_null = true;
            a.no_alias = true;
            a.is_string = true;
            a.as_integer = true;
            a.int_range = Some(IntRange { lo: -5, hi: 300 });
            a.repertoire = Some(Repertoire::Custom("ebcdic".into()));
            a.real_precision = Some(RealPrecision::SINGLE);
            a.length = Some(LengthAnn::Param("count".into()));
            a.direction = Some(Direction::InOut);
            a.pass_mode = Some(PassMode::ByReference);
            a.element = Some("Point".into());
        });
        u.insert(Decl::new("buf", Lang::C, ty)).unwrap();
        let p = Project::new("anns", u);
        let restored = Project::from_json(&p.to_json().unwrap()).unwrap();
        assert_eq!(
            restored.universe.get("buf").unwrap(),
            p.universe.get("buf").unwrap()
        );
    }
}
