//! Minimal JSON support: a [`Value`] tree, a serializer, a parser, and
//! the [`ToJson`]/[`FromJson`] traits the workspace uses instead of
//! `serde` derives.
//!
//! The workspace's JSON needs are narrow — experiment configs in, result
//! and benchmark records out — so this module deliberately implements
//! only what those paths use, with zero dependencies:
//!
//! * [`Value`] keeps object keys in **insertion order** (a `Vec` of
//!   pairs, not a map), so serialized output is byte-stable across runs —
//!   a requirement for the determinism CI gate, which diffs emitted
//!   metric files.
//! * Numbers are `f64`, which hold every integer below
//!   [`EXACT_INT_BOUND`] (2^53) in magnitude exactly, far above any id,
//!   count or millisecond timestamp the simulators produce. Integer
//!   conversions refuse the rest in both directions: a larger integer
//!   would silently stand for a neighbour (2^53 + 1 parses as 2^53).
//! * Derive-free impls: [`impl_json_struct!`](crate::impl_json_struct),
//!   [`impl_json_enum!`](crate::impl_json_enum) and
//!   [`impl_json_newtype!`](crate::impl_json_newtype) generate the trait
//!   impls from a field list at the definition site (where private fields
//!   are visible).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object member by key; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Compact serialization.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Value::Object(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                    let (k, v) = &pairs[i];
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        // Rust's f64 Display is shortest-roundtrip, so parse(serialize(x))
        // returns x bit-for-bit for every finite double.
        use fmt::Write as _;
        write!(out, "{n}").expect("string write");
    } else {
        // JSON has no NaN/Infinity; match serde_json's lossy convention.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                write!(out, "\\u{:04x}", c as u32).expect("string write");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse error with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub msg: String,
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (rejects trailing garbage).
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            msg: msg.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require a following \uXXXX low half.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.err("unpaired surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unpaired low surrogate"));
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?);
            }
            c => return Err(self.err(format!("invalid escape `\\{}`", c as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > s
        };
        // Integer part: `0` or a nonzero-led digit run (no leading zeros).
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.err("leading zero in number"));
            }
        } else if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

// ── Conversion traits ───────────────────────────────────────────────────

/// Types that serialize to a [`Value`].
pub trait ToJson {
    fn to_json(&self) -> Value;
}

/// Types that deserialize from a [`Value`]. Errors are plain strings:
/// the paths that consume them (config load, CI tooling) only print them.
pub trait FromJson: Sized {
    fn from_json(v: &Value) -> Result<Self, String>;
}

/// Extract and convert an object field (the helper the impl macros use).
pub fn field<T: FromJson>(v: &Value, name: &str) -> Result<T, String> {
    match v.get(name) {
        Some(f) => T::from_json(f).map_err(|e| format!("field `{name}`: {e}")),
        None => Err(format!("missing field `{name}`")),
    }
}

/// Parse a JSON document straight into a [`FromJson`] type.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, String> {
    let v = parse(text).map_err(|e| e.to_string())?;
    T::from_json(&v)
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self, String> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "expected a boolean".to_string())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "expected a number".to_string())
    }
}

/// Integers are exact as JSON numbers (`f64`) below this magnitude,
/// 2^53. It is excluded too: 2^53 + 1 parses to it.
pub const EXACT_INT_BOUND: u64 = 1 << 53;

macro_rules! impl_json_int {
    ($($ty:ty),+) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> Value {
                    assert!(
                        (*self as i128).unsigned_abs() < u128::from(EXACT_INT_BOUND),
                        "integer {self} is not below 2^53 in magnitude, so JSON cannot hold it exactly"
                    );
                    Value::Num(*self as f64)
                }
            }
            impl FromJson for $ty {
                fn from_json(v: &Value) -> Result<Self, String> {
                    let n = v.as_f64().ok_or_else(|| "expected a number".to_string())?;
                    if n.fract() != 0.0 {
                        return Err(format!("expected an integer, got {n}"));
                    }
                    if n.abs() >= EXACT_INT_BOUND as f64 {
                        return Err(format!(
                            "integer {n} is not below 2^53 in magnitude, so it may stand for a neighbour"
                        ));
                    }
                    if n < <$ty>::MIN as f64 || n > <$ty>::MAX as f64 {
                        return Err(format!(
                            "{n} out of range for {}", stringify!($ty)
                        ));
                    }
                    Ok(n as $ty)
                }
            }
        )+
    };
}

impl_json_int!(u16, u32, u64, usize, i32, i64);

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected a string".to_string())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(T::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, String> {
        v.as_array()
            .ok_or_else(|| "expected an array".to_string())?
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

impl<T: ToJson> ToJson for VecDeque<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(T::to_json).collect())
    }
}

impl<T: FromJson> FromJson for VecDeque<T> {
    fn from_json(v: &Value) -> Result<Self, String> {
        Vec::<T>::from_json(v).map(VecDeque::from)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(T::to_json).collect())
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Value) -> Result<Self, String> {
        match v {
            Value::Object(pairs) => pairs
                .iter()
                .map(|(k, v)| {
                    V::from_json(v)
                        .map(|v| (k.clone(), v))
                        .map_err(|e| format!("key `{k}`: {e}"))
                })
                .collect(),
            _ => Err("expected an object".to_string()),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, String> {
        match v.as_array() {
            Some([a, b]) => Ok((
                A::from_json(a).map_err(|e| format!("[0]: {e}"))?,
                B::from_json(b).map_err(|e| format!("[1]: {e}"))?,
            )),
            _ => Err("expected a 2-element array".to_string()),
        }
    }
}

// ── Derive-free impl macros ─────────────────────────────────────────────

/// Implement [`ToJson`]/[`FromJson`] for a struct from its field list.
/// Invoke in the defining module (private fields are supported):
///
/// ```
/// use iosched_simkit::impl_json_struct;
/// struct P { x: f64, y: f64 }
/// impl_json_struct!(P { x, y });
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Object(vec![
                    $( (
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    ) ),+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Value,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                ::std::result::Result::Ok($ty {
                    $( $field: $crate::json::field(v, stringify!($field))? ),+
                })
            }
        }
    };
}

/// Implement [`ToJson`]/[`FromJson`] for a single-field tuple struct
/// (`struct JobId(u64)`), serialized transparently as the inner value.
#[macro_export]
macro_rules! impl_json_newtype {
    ($ty:ident, $inner:ty) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::ToJson::to_json(&self.0)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Value,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                ::std::result::Result::Ok($ty(<$inner as $crate::json::FromJson>::from_json(v)?))
            }
        }
    };
}

/// Implement [`ToJson`]/[`FromJson`] for an enum. Variants serialize as
/// objects with a `"kind"` discriminant; unit, tuple (with caller-chosen
/// field names) and struct variants are supported:
///
/// ```
/// use iosched_simkit::impl_json_enum;
/// enum Shape { Point, Circle(f64), Rect { w: f64, h: f64 } }
/// impl_json_enum!(Shape { Point, Circle(radius), Rect { w, h } });
/// ```
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $(
        $variant:ident
        $( ( $($tfield:ident),+ $(,)? ) )?
        $( { $($field:ident),+ $(,)? } )?
    ),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                match self {
                    $(
                        Self::$variant
                        $( ( $($tfield),+ ) )?
                        $( { $($field),+ } )?
                        => {
                            #[allow(unused_mut)]
                            let mut pairs = vec![(
                                "kind".to_string(),
                                $crate::json::Value::Str(stringify!($variant).to_string()),
                            )];
                            $( $( pairs.push((
                                stringify!($tfield).to_string(),
                                $crate::json::ToJson::to_json($tfield),
                            )); )+ )?
                            $( $( pairs.push((
                                stringify!($field).to_string(),
                                $crate::json::ToJson::to_json($field),
                            )); )+ )?
                            $crate::json::Value::Object(pairs)
                        }
                    ),+
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Value,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                let kind: ::std::string::String = $crate::json::field(v, "kind")?;
                match kind.as_str() {
                    $(
                        stringify!($variant) => ::std::result::Result::Ok(
                            Self::$variant
                            $( ( $( $crate::json::field(v, stringify!($tfield))? ),+ ) )?
                            $( { $( $field: $crate::json::field(v, stringify!($field))? ),+ } )?
                        ),
                    )+
                    other => ::std::result::Result::Err(format!(
                        "unknown {} variant `{other}`", stringify!($ty)
                    )),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        parse(&v.to_json_string()).expect("roundtrip parse")
    }

    #[test]
    fn scalars_serialize() {
        assert_eq!(Value::Null.to_json_string(), "null");
        assert_eq!(Value::Bool(true).to_json_string(), "true");
        assert_eq!(Value::Num(1.0).to_json_string(), "1");
        assert_eq!(Value::Num(-2.5).to_json_string(), "-2.5");
        assert_eq!(Value::Num(f64::NAN).to_json_string(), "null");
        assert_eq!(
            Value::Str("a\"b\\c\nd".into()).to_json_string(),
            r#""a\"b\\c\nd""#
        );
    }

    #[test]
    fn nested_roundtrip() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("write_x8".into())),
            ("count".into(), Value::Num(720.0)),
            (
                "trace".into(),
                Value::Array(vec![
                    Value::Num(0.0),
                    Value::Num(1.5e9),
                    Value::Null,
                    Value::Bool(false),
                ]),
            ),
            ("empty_obj".into(), Value::Object(vec![])),
            ("empty_arr".into(), Value::Array(vec![])),
        ]);
        assert_eq!(roundtrip(&v), v);
        // Pretty output parses back identically too.
        assert_eq!(parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn numbers_roundtrip_bitwise() {
        for x in [
            0.0,
            -0.0,
            1.0,
            1.5e-300,
            -2.2250738585072014e-308,
            9007199254740991.0, // 2^53 - 1
            0.1 + 0.2,
            std::f64::consts::PI,
        ] {
            let back = roundtrip(&Value::Num(x)).as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn parses_standard_syntax() {
        let v = parse(
            r#" { "a" : [ 1 , 2.5e2 , -3 ] , "b" : { "c" : null } , "s" : "\u0041\u00e9\ud83d\ude00" } "#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1],
            Value::Num(250.0)
        );
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "Aé😀");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "1.",
            "+1",
            "\"abc",
            "nul",
            "[1] x",
            "{\"a\" 1}",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed `{bad}`");
        }
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        assert_eq!(v.to_json_string(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn primitive_conversions() {
        assert_eq!(u64::from_json(&Value::Num(7.0)).unwrap(), 7);
        assert!(u64::from_json(&Value::Num(7.5)).is_err());
        assert!(u64::from_json(&Value::Num(-1.0)).is_err());
        assert!(u16::from_json(&Value::Num(70000.0)).is_err());
        assert_eq!(i64::from_json(&Value::Num(-3.0)).unwrap(), -3);
        // Integers are exact below 2^53 in magnitude, and only there:
        // 2^53 + 1 parses to 2^53, so 2^53 is refused as well.
        let below = EXACT_INT_BOUND - 1;
        assert_eq!(
            u64::from_json(&parse(&below.to_string()).unwrap()),
            Ok(below)
        );
        assert_eq!(
            i64::from_json(&Value::Num(-(below as f64))),
            Ok(-(below as i64))
        );
        assert_eq!(below.to_json(), Value::Num(below as f64));
        for past in [
            "9007199254740992",
            "9007199254740993",
            "-9007199254740992",
            "1e300",
        ] {
            let v = parse(past).unwrap();
            assert!(
                u64::from_json(&v).is_err() && i64::from_json(&v).is_err(),
                "{past}"
            );
        }
        assert_eq!(Option::<f64>::from_json(&Value::Null).unwrap(), None);
        assert_eq!(
            Vec::<u64>::from_json(&parse("[1,2,3]").unwrap()).unwrap(),
            vec![1, 2, 3]
        );
        let m: BTreeMap<String, f64> =
            FromJson::from_json(&parse(r#"{"a":1,"b":2}"#).unwrap()).unwrap();
        assert_eq!(m["b"], 2.0);
        let t: (u64, f64) = FromJson::from_json(&parse("[3,4.5]").unwrap()).unwrap();
        assert_eq!(t, (3, 4.5));
    }

    #[test]
    #[should_panic(expected = "not below 2^53")]
    fn integers_from_2_pow_53_are_not_written() {
        EXACT_INT_BOUND.to_json();
    }

    struct Demo {
        name: String,
        x: f64,
        tags: Vec<u64>,
    }
    impl_json_struct!(Demo { name, x, tags });

    #[derive(Debug, PartialEq)]
    enum Kind {
        Unit,
        Tuple(u64),
        Struct { a: f64, b: bool },
    }
    impl_json_enum!(Kind { Unit, Tuple(value), Struct { a, b } });

    #[derive(Debug, PartialEq)]
    struct Wrap(u64);
    impl_json_newtype!(Wrap, u64);

    #[test]
    fn struct_macro_roundtrip() {
        let d = Demo {
            name: "w".into(),
            x: 2.5,
            tags: vec![1, 2],
        };
        let j = d.to_json();
        assert_eq!(j.to_json_string(), r#"{"name":"w","x":2.5,"tags":[1,2]}"#);
        let back = Demo::from_json(&j).unwrap();
        assert_eq!(back.name, "w");
        assert_eq!(back.x, 2.5);
        assert_eq!(back.tags, vec![1, 2]);
        assert!(Demo::from_json(&parse(r#"{"name":"w"}"#).unwrap()).is_err());
    }

    #[test]
    fn enum_macro_roundtrip() {
        for k in [Kind::Unit, Kind::Tuple(9), Kind::Struct { a: 1.5, b: true }] {
            let back = Kind::from_json(&k.to_json()).unwrap();
            assert_eq!(back, k);
        }
        assert_eq!(
            Kind::Tuple(9).to_json().to_json_string(),
            r#"{"kind":"Tuple","value":9}"#
        );
        assert!(Kind::from_json(&parse(r#"{"kind":"Nope"}"#).unwrap()).is_err());
    }

    #[test]
    fn newtype_macro_roundtrip() {
        assert_eq!(Wrap(5).to_json().to_json_string(), "5");
        assert_eq!(Wrap::from_json(&Value::Num(5.0)).unwrap(), Wrap(5));
    }

    #[test]
    fn from_str_parses_and_converts() {
        let w: Wrap = from_str("41").unwrap();
        assert_eq!(w, Wrap(41));
        assert!(from_str::<Wrap>("4a").is_err());
    }
}
