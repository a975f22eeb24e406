//! The workspace's one JSON reader/writer, hand-rolled so `seaice-obs`
//! stays free of external dependencies (the same stance `seaice-lint`
//! takes). Everything persisted or exported as JSON goes through it:
//! Chrome `trace_event` files here, and the three persisted formats whose
//! codecs live next to their types — U-Net checkpoints
//! (`seaice_unet::checkpoint`), acquisition manifests
//! (`seaice_s2::manifest`) and stream checkpoints
//! (`seaice_core::stream_workflow`) — plus serve's `GET /stats`.
//!
//! The parser is a plain recursive-descent pass over bytes. It accepts
//! standard JSON (objects, arrays, strings with escapes, numbers, bools,
//! null), nested at most [`MAX_DEPTH`] deep, and reports errors with a
//! byte offset. Object member order is preserved (a `Vec` of pairs, not
//! a map) so round-trips are stable. Decoders read fields through
//! [`Obj`], whose errors carry the field path; encoders are plain
//! `write!`s over [`escape`], [`fmt_f64`] and [`Exact`].

/// Deepest container nesting [`parse`] accepts. Checkpoints, manifests,
/// traces and bench summaries nest 4–5 deep and SARIF under 16; the cap
/// turns a hostile `[[[[…` into an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits `u64`, kept exact (an
    /// `f64` would round seeds above 2^53).
    UInt(u64),
    /// Any other number (parsed as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, member order preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` (numbers only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64` (non-negative integer literals only — `3.0`
    /// and `-1` are not).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// What the value is, for "expected X, got Y" errors.
    fn describe(&self) -> String {
        match self {
            Value::Null => "null".into(),
            Value::Bool(_) => "a boolean".into(),
            Value::UInt(n) => n.to_string(),
            Value::Num(n) => n.to_string(),
            Value::Str(_) => "a string".into(),
            Value::Arr(_) => "an array".into(),
            Value::Obj(_) => "an object".into(),
        }
    }

    /// The value as `&str` (strings only).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as `bool` (booleans only).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's elements (arrays only).
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// The value's members (objects only).
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members.as_slice()),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            // Surrogate pairs are not worth supporting here:
                            // nothing this crate writes emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // byte boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|b| b & 0b1100_0000 == 0b1000_0000)
                    {
                        self.pos += 1;
                    }
                    if let Ok(s) = std::str::from_utf8(&self.bytes[start..self.pos]) {
                        out.push_str(s);
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-ascii number".to_string())?;
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::UInt(n));
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

/// Escapes `s` for embedding inside a JSON string literal (no quotes
/// added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` the way this crate's writers emit numbers: integers
/// without a fractional part, everything else via Rust's shortest
/// round-trip `Display`. Non-finite values (JSON has no spelling for
/// them) degrade to `0`.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Displays an `f64` so that it reads back bit-exactly: Rust's shortest
/// round-trip form, with `.0` on integral values so a float stays a
/// float and `-0.0` keeps its sign ([`fmt_f64`] does neither — it is for
/// reports, this is for persisted state). Non-finite values become
/// `null`, which no number reader accepts: a NaN weight makes the file
/// unloadable instead of silently turning into a number.
pub struct Exact(pub f64);

impl std::fmt::Display for Exact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            v if !v.is_finite() => f.write_str("null"),
            v if v.fract() == 0.0 => write!(f, "{v}.0"),
            v => write!(f, "{v}"),
        }
    }
}

/// Appends `[a,b,…]`, each element written by `each` (compact, no
/// spaces — the persisted formats' array spelling).
pub fn push_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

/// A JSON object under decode plus the path that led to it, so every
/// reader's error names the whole field path
/// (`config.seed: expected an unsigned integer, got -1`).
#[derive(Clone, Debug)]
pub struct Obj<'a> {
    value: &'a Value,
    path: String,
}

fn expected(want: &str, got: &Value) -> String {
    format!("expected {want}, got {}", got.describe())
}

fn to_uint<T: TryFrom<u64>>(v: &Value) -> Result<T, String> {
    let n = v
        .as_u64()
        .ok_or_else(|| expected("an unsigned integer", v))?;
    T::try_from(n).map_err(|_| format!("{n} is out of range for {}", std::any::type_name::<T>()))
}

fn to_f64(v: &Value) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| expected("a number", v))
}

impl<'a> Obj<'a> {
    /// The document root (empty path).
    pub fn root(value: &'a Value) -> Result<Self, String> {
        Self::new(value, String::new())
    }

    /// `value`, which must be an object, reached by `path`.
    pub fn new(value: &'a Value, path: String) -> Result<Self, String> {
        match value {
            Value::Obj(_) => Ok(Obj { value, path }),
            other if path.is_empty() => Err(expected("an object", other)),
            other => Err(format!("{path}: {}", expected("an object", other))),
        }
    }

    /// `path.key` — for errors about a member the caller found wanting.
    pub fn path_of(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// The member names, in document order.
    pub fn keys(&self) -> impl Iterator<Item = &'a str> {
        let members = self.value.as_obj().unwrap_or(&[]);
        members.iter().map(|(k, _)| k.as_str())
    }

    /// Member `key` read by `read`; a missing member and a failed read
    /// both name `path.key`.
    fn field<T>(
        &self,
        key: &str,
        read: impl FnOnce(&'a Value) -> Result<T, String>,
    ) -> Result<T, String> {
        self.value
            .get(key)
            .ok_or_else(|| "missing field".to_string())
            .and_then(read)
            .map_err(|e| format!("{}: {e}", self.path_of(key)))
    }

    /// Every element of array member `key` read by `read`; a failed
    /// element names `path.key[i]`.
    fn elems<T>(
        &self,
        key: &str,
        read: impl Fn(&'a Value) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items = self.field(key, |v| v.as_arr().ok_or_else(|| expected("an array", v)))?;
        let each = |(i, v)| read(v).map_err(|e| format!("{}[{i}]: {e}", self.path_of(key)));
        items.iter().enumerate().map(each).collect()
    }

    /// An unsigned integer member that fits `T` (`u64`, `usize`, `u32`,
    /// `u8`): negative, fractional and out-of-range values are errors.
    pub fn uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        self.field(key, to_uint)
    }

    /// A number member.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.field(key, to_f64)
    }

    /// A string member.
    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        self.field(key, |v| v.as_str().ok_or_else(|| expected("a string", v)))
    }

    /// A boolean member.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.field(key, |v| v.as_bool().ok_or_else(|| expected("a boolean", v)))
    }

    /// An object member.
    pub fn obj(&self, key: &str) -> Result<Obj<'a>, String> {
        self.field(key, Ok)
            .and_then(|v| Self::new(v, self.path_of(key)))
    }

    /// An array-of-objects member; element `i` decodes under `key[i]`.
    pub fn objs(&self, key: &str) -> Result<Vec<Obj<'a>>, String> {
        let path = self.path_of(key);
        let items = self.elems(key, Ok)?;
        let at = |(i, v)| Self::new(v, format!("{path}[{i}]"));
        items.into_iter().enumerate().map(at).collect()
    }

    /// An array-of-unsigned-integers member (see [`uint`](Self::uint)).
    pub fn uints<T: TryFrom<u64>>(&self, key: &str) -> Result<Vec<T>, String> {
        self.elems(key, to_uint)
    }

    /// An array-of-numbers member, narrowed to `f32` — exact for values
    /// [`Exact`] wrote from an `f32`.
    pub fn f32s(&self, key: &str) -> Result<Vec<f32>, String> {
        self.elems(key, |v| to_f64(v).map(|x| x as f32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#)
            .expect("parses");
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(
            v.get("a")
                .and_then(|a| a.as_arr())
                .and_then(|a| a[2].as_f64()),
            Some(-300.0)
        );
        assert_eq!(
            v.get("b")
                .and_then(|b| b.get("c"))
                .and_then(|c| c.as_bool()),
            Some(true)
        );
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Value::Null));
        assert_eq!(v.get("e").and_then(|e| e.as_str()), Some("x\ny"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}{}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "quote\" slash\\ newline\n tab\t ctrl\u{1} snow\u{2744}";
        let doc = format!("{{\"k\": \"{}\"}}", escape(original));
        let v = parse(&doc).expect("round-trips");
        assert_eq!(v.get("k").and_then(|k| k.as_str()), Some(original));
    }

    #[test]
    fn fmt_f64_is_stable() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(-0.5), "-0.5");
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(1234567.25), "1234567.25");
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let e = parse(&nest(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(
            e,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&r#"{"k":"#.repeat(200_000)).is_err());
    }

    #[test]
    fn integers_are_exact_and_floats_read_back_bit_for_bit() {
        let v = parse("[18446744073709551615, 9007199254740993, -1, 3.0, 18446744073709551616]")
            .expect("parses");
        let items = v.as_arr().expect("array");
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(
            items[1].as_u64(),
            Some((1 << 53) + 1),
            "an f64 would round this"
        );
        assert_eq!(items[1].as_f64(), Some(9007199254740992.0));
        for not_uint in &items[2..] {
            assert_eq!(not_uint.as_u64(), None, "{not_uint:?}");
            assert!(not_uint.as_f64().is_some());
        }
        for x in [
            -0.0,
            3.0,
            1e21,
            f64::MAX,
            f64::MIN_POSITIVE / 8.0,
            0.1 + 0.2,
        ] {
            let text = Exact(x).to_string();
            assert!(text.contains('.'), "{text} must stay a float");
            let back = parse(&text).expect("parses").as_f64().expect("number");
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
        assert_eq!(Exact(f64::NAN).to_string(), "null");
        assert_eq!(Exact(f64::NEG_INFINITY).to_string(), "null");
    }

    #[test]
    fn readers_name_the_field_path() {
        let doc = parse(r#"{"a": {"n": 300, "xs": [1, 2.5]}, "rows": [{"s": "x"}, 7]}"#).unwrap();
        let root = Obj::root(&doc).unwrap();
        let a = root.obj("a").unwrap();
        assert_eq!(a.uint::<u32>("n"), Ok(300));
        assert_eq!(a.f64("n"), Ok(300.0));
        assert_eq!(a.f32s("xs"), Ok(vec![1.0, 2.5]));
        let err = |r: Result<u8, String>| r.expect_err("must not decode");
        assert_eq!(err(a.uint("n")), "a.n: 300 is out of range for u8");
        assert_eq!(err(a.uint("m")), "a.m: missing field");
        assert_eq!(
            err(root.uint("a")),
            "a: expected an unsigned integer, got an object"
        );
        let e = a.uints::<u8>("xs").expect_err("2.5 is no integer");
        assert_eq!(e, "a.xs[1]: expected an unsigned integer, got 2.5");
        assert_eq!(
            a.str("n").expect_err("no string"),
            "a.n: expected a string, got 300"
        );
        let e = root.objs("rows").expect_err("7 is no object");
        assert_eq!(e, "rows[1]: expected an object, got 7");
        assert_eq!(
            Obj::root(&Value::Null).expect_err("no object"),
            "expected an object, got null"
        );
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#""A❄""#).expect("parses");
        assert_eq!(v.as_str(), Some("A\u{2744}"));
    }
}
