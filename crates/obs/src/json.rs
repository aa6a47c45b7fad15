//! The artifact codec: the one module that knows the JSON byte format.
//!
//! Every artifact the workspace writes — trace lines, the metrics document,
//! chaos repro files, search reports — is written through [`ObjWriter`] and
//! read back through [`parse_json`] and [`Fields`]. The byte rules live
//! here and nowhere else (DESIGN.md "Artifact codec"): compact output,
//! fields in the order the caller writes them, `u64` in decimal, `f64`
//! through `Display`, `null` for an absent value, every string escaped.
//! The module also validates trace lines against the schema the event
//! table in [`crate::event`] declares.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that parsed exactly as an unsigned 64-bit integer.
    UInt(u64),
    /// Any other number (negative or fractional).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved by the map's ordering.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {}", self.pos, msg)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.eat_lit("null").map(|_| Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut vals = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(vals));
        }
        loop {
            vals.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(vals));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, not one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let ch = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated string"))?;
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Parses one complete JSON document, rejecting trailing garbage.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

/// Appends `{`, whatever fields `body` writes, and `}` to `out`.
pub fn write_object(out: &mut String, body: impl FnOnce(&mut ObjWriter<'_>)) {
    out.push('{');
    let mut o = ObjWriter { out, first: true };
    body(&mut o);
    o.out.push('}');
}

/// Writes one JSON object's fields, in call order, onto the end of a string.
///
/// The scalar writers are `#[inline]` for the trace renderer's sake: at a
/// call site whose key is a literal, the key's escape scan and its copy
/// fold to constants, and keys are most of a trace line.
pub struct ObjWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl ObjWriter<'_> {
    #[inline]
    fn key(&mut self, key: &str) {
        let first = std::mem::take(&mut self.first);
        self.out.push_str(if first { "\"" } else { ",\"" });
        push_escaped(self.out, key);
        self.out.push_str("\":");
    }

    /// An unsigned integer, in decimal.
    #[inline]
    pub fn u64(&mut self, key: &str, v: u64) {
        self.key(key);
        push_u64(self.out, v);
    }

    /// A float, through `Display`: Rust's shortest round-trip form, so an
    /// integral value prints without a dot and parses back as
    /// [`Json::UInt`], which [`Fields::f64`] widens again.
    pub fn f64(&mut self, key: &str, v: f64) {
        self.key(key);
        let _ = write!(self.out, "{v}");
    }

    /// `true` or `false`.
    #[inline]
    pub fn bool(&mut self, key: &str, v: bool) {
        self.key(key);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// An escaped string.
    #[inline]
    pub fn str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.out.push('"');
        push_escaped(self.out, v);
        self.out.push('"');
    }

    /// Bytes as a string of lowercase hex digits, two per byte.
    pub(crate) fn hex(&mut self, key: &str, bytes: &[u8]) {
        self.key(key);
        self.out.push('"');
        let digit = |d: u8| char::from_digit(d.into(), 16).expect("a nibble is one hex digit");
        let digits = bytes.iter().flat_map(|&b| [digit(b >> 4), digit(b & 0xf)]);
        self.out.extend(digits);
        self.out.push('"');
    }

    /// `null`, the encoding of an absent value.
    pub fn null(&mut self, key: &str) {
        self.key(key);
        self.out.push_str("null");
    }

    /// A nested object whose fields `body` writes.
    pub fn obj(&mut self, key: &str, body: impl FnOnce(&mut ObjWriter<'_>)) {
        self.key(key);
        write_object(self.out, body);
    }

    fn array<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut String, T),
    ) {
        self.key(key);
        self.out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            each(self.out, item);
        }
        self.out.push(']');
    }

    /// An array of objects, one per item, each written by `each`.
    pub fn objs<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(T, &mut ObjWriter<'_>),
    ) {
        self.array(key, items, |out, item| write_object(out, |o| each(item, o)));
    }

    /// An array of unsigned integers.
    pub fn u64s(&mut self, key: &str, items: impl IntoIterator<Item = u64>) {
        self.array(key, items, push_u64);
    }
}

fn push_u64(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

/// Appends `s` with `"`, `\`, newline (`\n`) and every other control
/// character (`\u00XX`) escaped.
#[inline]
fn push_escaped(out: &mut String, s: &str) {
    match s.bytes().position(|b| b < 0x20 || b == b'"' || b == b'\\') {
        None => out.push_str(s),
        Some(first) => push_escaped_from(out, s, first),
    }
}

/// The rare string that does need escaping, from its first special byte;
/// out of line so that [`push_escaped`] stays small enough to inline.
#[cold]
fn push_escaped_from(out: &mut String, s: &str, first: usize) {
    out.push_str(&s[..first]);
    for c in s[first..].chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Typed access to one parsed object's fields; every error names the key.
#[derive(Debug, Clone, Copy)]
pub struct Fields<'a>(pub &'a BTreeMap<String, Json>);

impl<'a> Fields<'a> {
    /// The fields of `v`, which must be an object.
    pub fn of(v: &'a Json) -> Result<Self, String> {
        v.as_obj()
            .map(Fields)
            .ok_or_else(|| "not a JSON object".to_string())
    }

    /// The raw value under `key`.
    pub fn get(self, key: &str) -> Result<&'a Json, String> {
        self.0
            .get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    fn typed<T>(
        self,
        key: &str,
        what: &str,
        pick: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        pick(self.get(key)?).ok_or_else(|| format!("field {key:?} is not {what}"))
    }

    /// An unsigned integer, range-checked into `T` (`u64`, `u32`, `usize`).
    pub fn uint<T: TryFrom<u64>>(self, key: &str) -> Result<T, String> {
        let v = self.typed(key, "an unsigned integer", Json::as_u64)?;
        T::try_from(v).map_err(|_| format!("field {key:?} is out of range: {v}"))
    }

    /// A number as `f64`; an integral value, which the writer prints
    /// without a dot, is widened from [`Json::UInt`].
    pub fn f64(self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", |v| match v {
            Json::UInt(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        })
    }

    /// A bool.
    pub fn bool(self, key: &str) -> Result<bool, String> {
        self.typed(key, "a bool", Json::as_bool)
    }

    /// A string.
    pub fn str(self, key: &str) -> Result<&'a str, String> {
        self.typed(key, "a string", Json::as_str)
    }

    /// A nested object.
    pub fn obj(self, key: &str) -> Result<Fields<'a>, String> {
        self.typed(key, "an object", Json::as_obj).map(Fields)
    }

    /// An array.
    pub fn arr(self, key: &str) -> Result<&'a [Json], String> {
        self.typed(key, "an array", Json::as_arr)
    }

    /// An array of unsigned integers.
    pub fn u64s(self, key: &str) -> Result<Vec<u64>, String> {
        self.typed(key, "an array of unsigned integers", |v| {
            v.as_arr()?.iter().map(Json::as_u64).collect()
        })
    }

    /// Whether the value under `key` is `null` (an absent optional); a
    /// missing key is still an error.
    pub fn is_null(self, key: &str) -> Result<bool, String> {
        Ok(matches!(self.get(key)?, Json::Null))
    }
}

/// JSON type of one trace-line field, as the event table declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    UInt,
    Bool,
    Str,
    UIntArr,
}

/// Validates one JSONL trace line against the event schema: the envelope
/// (`t`, `actor`, `type`) must be present with the right types, the type
/// tag must be known, and every field the type requires must be present
/// with the declared JSON type.
pub fn validate_trace_line(line: &str) -> Result<(), String> {
    let v = parse_json(line)?;
    let f = Fields::of(&v).map_err(|e| format!("trace line is {e}"))?;
    f.uint::<u64>(event::T)?;
    f.uint::<u64>(event::ACTOR)?;
    let ty = f.str(event::TYPE)?;
    let (_, rows) = event::SCHEMA
        .iter()
        .find(|(tag, _)| *tag == ty)
        .ok_or_else(|| format!("unknown event type \"{ty}\""))?;
    for &(key, kind) in *rows {
        match kind {
            Kind::UInt => f.uint::<u64>(key).map(drop),
            Kind::Bool => f.bool(key).map(drop),
            Kind::Str => f.str(key).map(drop),
            Kind::UIntArr => f.u64s(key).map(drop),
        }
        .map_err(|e| format!("{ty}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse_json(r#"{"a":[1,2,{"b":true}],"c":"x\ny","d":null,"e":-1.5}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj["a"].as_arr().unwrap()[1].as_u64(), Some(2));
        assert_eq!(obj["c"].as_str(), Some("x\ny"));
        assert_eq!(obj["d"], Json::Null);
        assert_eq!(obj["e"], Json::Float(-1.5));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse_json("{\"a\":1} x").is_err());
        assert!(parse_json("{\"a\":").is_err());
        assert!(parse_json("[1,2").is_err());
    }

    #[test]
    fn accepts_every_standard_escape() {
        let v = parse_json(r#""\" \\ \/ \b \f \n \r \t A""#).unwrap();
        assert_eq!(v.as_str(), Some("\" \\ / \u{8} \u{c} \n \r \t A"));
    }

    #[test]
    fn writer_output_reads_back_through_fields() {
        let mut out = String::new();
        write_object(&mut out, |o| {
            o.u64("n", u64::MAX);
            o.f64("whole", 100000.0);
            o.f64("frac", 0.5);
            o.bool("b", true);
            o.str("s", "q\" b\\ nl\n bell\u{7} é");
            o.null("none");
            o.obj("inner", |o| o.u64("x", 1));
            o.objs("items", [1, 2], |n, o| o.u64("n", n));
            o.u64s("ns", [0, 10]);
            o.hex("h", &[0, 0x2a, 0xff]);
        });
        assert_eq!(
            out,
            concat!(
                r#"{"n":18446744073709551615,"whole":100000,"frac":0.5,"b":true,"#,
                r#""s":"q\" b\\ nl\n bell\u0007 é","none":null,"inner":{"x":1},"#,
                r#""items":[{"n":1},{"n":2}],"ns":[0,10],"h":"002aff"}"#
            )
        );
        let doc = parse_json(&out).unwrap();
        let f = Fields::of(&doc).unwrap();
        assert_eq!(f.uint::<u64>("n"), Ok(u64::MAX));
        assert_eq!(f.f64("whole"), Ok(100000.0), "UInt widens to f64");
        assert_eq!(f.f64("frac"), Ok(0.5));
        assert_eq!(f.bool("b"), Ok(true));
        assert_eq!(f.str("s"), Ok("q\" b\\ nl\n bell\u{7} é"));
        assert_eq!(f.is_null("none"), Ok(true));
        assert_eq!(f.is_null("n"), Ok(false));
        assert_eq!(f.obj("inner").unwrap().uint::<usize>("x"), Ok(1));
        assert_eq!(f.arr("items").unwrap().len(), 2);
        assert_eq!(f.u64s("ns"), Ok(vec![0, 10]));
        assert_eq!(f.str("h"), Ok("002aff"));
        // Errors name the key: missing, wrong type, out of range.
        assert!(f.get("absent").unwrap_err().contains("\"absent\""));
        assert!(f.bool("n").unwrap_err().contains("\"n\""));
        assert!(f.uint::<u32>("n").unwrap_err().contains("\"n\""));
        assert!(f.u64s("items").unwrap_err().contains("\"items\""));
    }

    #[test]
    fn validates_known_event_lines() {
        // Literal lines, one per event kind: independent of the writer.
        for line in event::tests::ONE_OF_EACH_JSONL.lines() {
            validate_trace_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn rejects_bad_lines() {
        // Unknown type.
        assert!(validate_trace_line(r#"{"t":1,"actor":0,"type":"nope"}"#).is_err());
        // Missing required field.
        assert!(
            validate_trace_line(r#"{"t":1,"actor":0,"type":"ladder","from_level":0}"#).is_err()
        );
        // Wrong field type.
        assert!(validate_trace_line(
            r#"{"t":1,"actor":0,"type":"ladder","from_level":"x","to_level":1}"#
        )
        .is_err());
        // Envelope violations.
        assert!(validate_trace_line(r#"{"actor":0,"type":"ladder"}"#).is_err());
        assert!(validate_trace_line(r#"[1,2]"#).is_err());
    }
}
