//! The workspace's one JSON codec: an integer-only reader and writer.
//!
//! The vendored `serde` is an API-surface stub (no codegen), so every
//! JSON file the tools exchange — chaos repros, `accl-obs-trace-v1`
//! snapshots, Chrome traces, `BENCH_simcore.json` — is read or escaped
//! here. The formats that are read back carry only integers (frame
//! indices, picosecond instants, ppm, seeds), so [`parse`] rejects floats
//! rather than approximating them, and a document round-trips bit-exactly.
//!
//! Apart from that the reader is strict RFC 8259: every string escape is
//! decoded (surrogate pairs included, a lone surrogate is an error), raw
//! control characters inside strings and leading zeros are rejected, and
//! so is an object with a duplicate key — no writer emits one, and readers
//! disagree on which value would win.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    Num(u64),
    /// A negative integer; zero and positive values are always [`Json::Num`].
    Neg(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: insertion-ordered pairs, so output is deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a signed integer, if it is one that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => i64::try_from(*n).ok(),
            Json::Neg(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
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

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's key/value pairs, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Required-field lookup with an error naming the field.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// Required unsigned-integer field, narrowed to `T` with a checked
    /// conversion: a value that does not fit is an error naming the
    /// field, never a silent truncation.
    pub fn uint_field<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let n = self.typed(key, "an unsigned integer", Json::as_u64)?;
        T::try_from(n).map_err(|_| {
            format!(
                "`{key}`: {n} is out of range for {}",
                std::any::type_name::<T>()
            )
        })
    }

    /// Required string field.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "a string", Json::as_str)
    }

    /// Required bool field.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "a bool", Json::as_bool)
    }

    /// Required array field.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], String> {
        self.typed(key, "an array", Json::as_arr)
    }

    /// Required object field, as its key/value pairs.
    pub fn obj_field(&self, key: &str) -> Result<&[(String, Json)], String> {
        self.typed(key, "an object", Json::as_obj)
    }

    fn typed<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        get: fn(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        get(self.field(key)?).ok_or_else(|| format!("`{key}`: expected {what}"))
    }

    /// Serializes with 2-space indentation and a trailing newline, the
    /// style of the checked-in repro files.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Neg(n) => out.push_str(&n.to_string()),
            Json::Str(s) => out.push_str(&format!("\"{}\"", escape(s))),
            Json::Arr(items) => write_seq(out, indent, "[]", items, |out, item| {
                item.write(out, indent + 1);
            }),
            Json::Obj(pairs) => write_seq(out, indent, "{}", pairs, |out, (k, v)| {
                out.push_str(&format!("\"{}\": ", escape(k)));
                v.write(out, indent + 1);
            }),
        }
    }
}

/// Writes `items` between `brackets`, one per line and indented one level
/// deeper than the brackets; an empty sequence stays on one line.
fn write_seq<T>(
    out: &mut String,
    indent: usize,
    brackets: &str,
    items: &[T],
    mut item: impl FnMut(&mut String, &T),
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    for (i, x) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(indent + 1));
        item(out, x);
    }
    if !items.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
    }
    out.push_str(close);
}

/// Escapes `s` for the inside of a JSON string literal (the quotes are the
/// caller's): `"` and `\` get a backslash, a newline becomes `\n` and any
/// other control character `\u00XX`; everything else, non-ASCII included,
/// passes through unchanged.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

/// Deepest array/object nesting [`parse`] accepts, so a hostile document
/// fails with an error instead of overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `token` after any whitespace, or fails naming it.
    fn eat(&mut self, token: &str) -> Result<(), String> {
        self.skip_ws();
        if !self.text[self.pos..].starts_with(token) {
            return Err(format!("expected `{token}` at byte {}", self.pos));
        }
        self.pos += token.len();
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.byte() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        let digits = self.pos;
        while matches!(self.byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if matches!(self.byte(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "non-integer number at byte {start} (the format is integer-only)"
            ));
        }
        let leading_zero = self.pos > digits + 1 && self.text.as_bytes()[digits] == b'0';
        if self.pos == digits || leading_zero {
            return Err(format!("malformed number `{text}` at byte {start}"));
        }
        let range = |_| format!("integer `{text}` out of range at byte {start}");
        if digits == start {
            return text.parse().map(Json::Num).map_err(range);
        }
        match text.parse::<i64>().map_err(range)? {
            0 => Ok(Json::Num(0)),
            n => Ok(Json::Neg(n)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters in one slice; it ends on an
            // ASCII byte, so on a char boundary.
            let run = self.pos;
            while matches!(self.byte(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.byte() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.unescape()?),
                Some(b) => {
                    return Err(format!(
                        "raw control character {b:#04x} in string at byte {}",
                        self.pos
                    ))
                }
            }
        }
    }

    /// Decodes the backslash escape at the cursor.
    fn unescape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let kind = self.text.as_bytes().get(at + 1).copied();
        self.pos += 2;
        Ok(match kind {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let lone = || format!("lone surrogate in \\u escape at byte {at}");
                let code = match self.hex4()? {
                    hi @ 0xd800..=0xdbff => {
                        if !self.text[self.pos..].starts_with("\\u") {
                            return Err(lone());
                        }
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xdc00..=0xdfff).contains(&lo) {
                            return Err(lone());
                        }
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    }
                    0xdc00..=0xdfff => return Err(lone()),
                    code => code,
                };
                char::from_u32(code).expect("surrogates are handled above")
            }
            _ => return Err(format!("invalid escape at byte {at}")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    /// Parses the comma-separated items of an array or object through
    /// `close`, the opening bracket already consumed.
    fn items(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        if self.eat(close).is_err() {
            loop {
                item(self)?;
                if self.eat(",").is_err() {
                    self.eat(close)?;
                    break;
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat("[")?;
        let mut items = Vec::new();
        self.items("]", |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat("{")?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.items("}", |p| {
            let at = p.pos;
            let key = p.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key `{key}` at byte {at}"));
            }
            p.eat(":")?;
            pairs.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Json::Obj(pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let mut awkward: String = (0u8..0x20).map(char::from).collect();
        awkward.push_str("\"\\/ μ 😀");
        let doc = Json::Obj(vec![
            ("seed".into(), Json::Num(u64::MAX)),
            ("gauge".into(), Json::Neg(i64::MIN)),
            ("ok".into(), Json::Bool(true)),
            (
                "events".into(),
                Json::Arr(vec![
                    Json::Obj(vec![("kind".into(), Json::Str("drop".into()))]),
                    Json::Num(7),
                    Json::Arr(vec![]),
                    Json::Obj(vec![]),
                ]),
            ),
            (awkward.clone(), Json::Str(awkward)),
            ("none".into(), Json::Null),
        ]);
        let text = doc.pretty();
        assert_eq!(parse(&text).unwrap(), doc);
        // The escaping the trace exporters have always written.
        let escaped = escape("a\"b\\c\nd\te\u{1}é").to_string();
        assert_eq!(escaped, "a\\\"b\\\\c\\nd\\u0009e\\u0001é");
    }

    #[test]
    fn parses_every_escape_and_negative_numbers() {
        let v = parse(r#"{"a": -3, "z": -0, "b": "\" \\ \/ \b \f \n \r \t é 😀 €"}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Json::Neg(-3)));
        assert_eq!(v.get("a").and_then(Json::as_i64), Some(-3));
        assert_eq!(v.get("z"), Some(&Json::Num(0)));
        assert_eq!(
            v.str_field("b").unwrap(),
            "\" \\ / \u{8} \u{c} \n \r \t é 😀 €"
        );
    }

    #[test]
    fn rejects_floats_and_garbage() {
        assert!(parse("1.5").unwrap_err().contains("integer-only"));
        assert!(parse("2e3").is_err());
        assert!(parse("-").is_err());
        assert!(parse("01").is_err());
        assert!(parse("18446744073709551616").is_err());
        assert!(parse("-9223372036854775809").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse(&"[".repeat(MAX_DEPTH)).is_err());
        let deep = format!("{}{}", "[".repeat(1 << 20), "]".repeat(1 << 20));
        assert!(parse(&deep).unwrap_err().contains("nesting deeper"));
        assert!(parse("\"raw\ttab\"").is_err());
        assert!(parse(r#""\x""#).is_err());
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse(r#""\u+123""#).is_err());
        for lone in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83dA""#,
            r#""\ud83d \ude00""#,
        ] {
            assert!(
                parse(lone).unwrap_err().contains("lone surrogate"),
                "{lone}"
            );
        }
        let dup = parse("{\"node\": 1, \"kind\": \"drop\", \"node\": 2}").unwrap_err();
        assert!(dup.contains("duplicate key `node`"), "{dup}");
    }

    #[test]
    fn typed_getters_name_the_field() {
        let doc = parse("{\"a\": {\"b\": [1, 2], \"big\": 4294967296, \"s\": \"x\"}}").unwrap();
        let a = doc.field("a").unwrap();
        assert_eq!(a.arr_field("b").unwrap()[1].as_u64(), Some(2));
        assert_eq!(a.uint_field::<u64>("big"), Ok(1 << 32));
        let narrow = a.uint_field::<u32>("big").unwrap_err();
        assert!(
            narrow.contains("`big`") && narrow.contains("u32"),
            "{narrow}"
        );
        assert!(a.uint_field::<u64>("s").unwrap_err().contains("`s`"));
        assert!(a.bool_field("s").is_err());
        assert_eq!(a.obj_field("b"), Err("`b`: expected an object".into()));
        assert!(doc.field("missing").unwrap_err().contains("`missing`"));
        assert_eq!(Json::Num(1).get("a"), None);
    }
}
