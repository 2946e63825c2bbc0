//! The `accl-obs-trace-v1` JSON interchange form: serializer and a
//! minimal hand-rolled parser (no external JSON dependency).
//!
//! The format is deliberately integer-only — times are picoseconds,
//! never fractional units — so a document round-trips bit-exactly:
//! `parse(serialize(doc)) == doc` for every capturable trace, which the
//! round-trip tests pin. The parser accepts exactly the subset the
//! serializer emits (objects, arrays, strings, integers, and the
//! literals) plus arbitrary whitespace; floats are rejected rather than
//! silently rounded.

use std::collections::BTreeMap;

use crate::model::{HistSummary, ObsEvent, ObsKind, TraceDoc, WindowRow, WindowSeries, SCHEMA};

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes a trace document. Key order is fixed, so equal documents
/// serialize to equal bytes (artifacts can be compared with `cmp`).
pub fn serialize(doc: &TraceDoc) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"queue\": \"{}\",\n",
        SCHEMA,
        escape(&doc.workload),
        doc.seed,
        escape(&doc.queue)
    ));
    out.push_str("\"components\": [");
    for (i, c) in doc.components.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", escape(c)));
    }
    out.push_str("],\n\"events\": [\n");
    for (i, e) in doc.events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"t\": {}, \"k\": \"{}\", \"id\": {}, \"par\": {}, \"c\": {}, \"n\": \"{}\"}}",
            e.time_ps,
            e.kind.code(),
            e.id,
            e.parent,
            e.comp,
            escape(&e.name)
        ));
    }
    out.push_str("\n]");
    if let Some(w) = &doc.windows {
        out.push_str(&format!(
            ",\n\"windows\": {{\"width_ps\": {}, \"rows\": [\n",
            w.width_ps
        ));
        for (i, row) in w.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!("{{\"idx\": {}", row.idx));
            out.push_str(", \"counters\": {");
            for (j, (k, v)) in row.counters.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {}", escape(k), v));
            }
            out.push_str("}, \"gauges\": {");
            for (j, (k, v)) in row.gauges.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {}", escape(k), v));
            }
            out.push_str("}, \"hists\": {");
            for (j, (k, h)) in row.hists.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "\"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                     \"p50\": {}, \"p99\": {}, \"p999\": {}}}",
                    escape(k),
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    h.p50,
                    h.p99,
                    h.p999
                ));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}");
    }
    out.push_str("}\n");
    out
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// A parsed JSON value (integer-only numbers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (key order is irrelevant to the consumers).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    fn as_u64(&self) -> Result<u64, String> {
        match self {
            Value::U64(v) => Ok(*v),
            other => Err(format!("expected unsigned integer, got {other:?}")),
        }
    }

    fn as_i64(&self) -> Result<i64, String> {
        match self {
            Value::U64(v) => i64::try_from(*v).map_err(|_| "integer overflow".to_string()),
            Value::I64(v) => Ok(*v),
            other => Err(format!("expected integer, got {other:?}")),
        }
    }

    fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    fn as_arr(&self) -> Result<&[Value], String> {
        match self {
            Value::Arr(a) => Ok(a),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    fn as_obj(&self) -> Result<&BTreeMap<String, Value>, String> {
        match self {
            Value::Obj(o) => Ok(o),
            other => Err(format!("expected object, got {other:?}")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected '{}' at byte {}, got '{}'",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected '{}' at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let neg = self.bytes.get(self.pos) == Some(&b'-');
        if neg {
            self.pos += 1;
        }
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected digits at byte {start}"));
        }
        if matches!(
            self.bytes.get(self.pos),
            Some(b'.') | Some(b'e') | Some(b'E')
        ) {
            return Err(format!(
                "float at byte {start}: the trace format is integer-only"
            ));
        }
        let digits = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if neg {
            let mag: i64 = digits
                .parse()
                .map_err(|_| format!("integer overflow at byte {start}"))?;
            Ok(Value::I64(-mag))
        } else {
            let v: u64 = digits
                .parse()
                .map_err(|_| format!("integer overflow at byte {start}"))?;
            Ok(Value::U64(v))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole sequence.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8")?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(out));
                }
                other => return Err(format!("expected ',' or ']', got '{}'", other as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            out.insert(key, self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(out));
                }
                other => return Err(format!("expected ',' or '}}', got '{}'", other as char)),
            }
        }
    }
}

/// Parses arbitrary (integer-only) JSON text into a [`Value`].
pub fn parse_value(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

fn get<'v>(obj: &'v BTreeMap<String, Value>, key: &str) -> Result<&'v Value, String> {
    obj.get(key).ok_or_else(|| format!("missing key \"{key}\""))
}

/// Parses an `accl-obs-trace-v1` document.
pub fn parse(text: &str) -> Result<TraceDoc, String> {
    let root = parse_value(text)?;
    let obj = root.as_obj()?;
    let schema = get(obj, "schema")?.as_str()?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported schema \"{schema}\" (want \"{SCHEMA}\")"
        ));
    }
    let components = get(obj, "components")?
        .as_arr()?
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<Result<Vec<_>, _>>()?;
    let mut events = Vec::new();
    for ev in get(obj, "events")?.as_arr()? {
        let e = ev.as_obj()?;
        let code = get(e, "k")?.as_str()?;
        let kind =
            ObsKind::from_code(code).ok_or_else(|| format!("unknown event kind \"{code}\""))?;
        events.push(ObsEvent {
            time_ps: get(e, "t")?.as_u64()?,
            kind,
            id: get(e, "id")?.as_u64()?,
            parent: get(e, "par")?.as_u64()?,
            comp: u32::try_from(get(e, "c")?.as_u64()?).map_err(|_| "component overflow")?,
            name: get(e, "n")?.as_str()?.to_string(),
        });
    }
    let windows = match obj.get("windows") {
        None | Some(Value::Null) => None,
        Some(w) => {
            let w = w.as_obj()?;
            let width_ps = get(w, "width_ps")?.as_u64()?;
            let mut rows = Vec::new();
            for rv in get(w, "rows")?.as_arr()? {
                let r = rv.as_obj()?;
                let mut row = WindowRow {
                    idx: get(r, "idx")?.as_u64()?,
                    ..WindowRow::default()
                };
                for (k, v) in get(r, "counters")?.as_obj()? {
                    row.counters.push((k.clone(), v.as_u64()?));
                }
                for (k, v) in get(r, "gauges")?.as_obj()? {
                    row.gauges.push((k.clone(), v.as_i64()?));
                }
                for (k, v) in get(r, "hists")?.as_obj()? {
                    let h = v.as_obj()?;
                    row.hists.push((
                        k.clone(),
                        HistSummary {
                            count: get(h, "count")?.as_u64()?,
                            sum: get(h, "sum")?.as_u64()?,
                            min: get(h, "min")?.as_u64()?,
                            max: get(h, "max")?.as_u64()?,
                            p50: get(h, "p50")?.as_u64()?,
                            p99: get(h, "p99")?.as_u64()?,
                            p999: get(h, "p999")?.as_u64()?,
                        },
                    ));
                }
                rows.push(row);
            }
            Some(WindowSeries { width_ps, rows })
        }
    };
    Ok(TraceDoc {
        workload: get(obj, "workload")?.as_str()?.to_string(),
        seed: get(obj, "seed")?.as_u64()?,
        // Traces written while the simulator had a parallel engine also
        // carry a `workers` count; it never affected the analyses, so it
        // is ignored.
        queue: get(obj, "queue")?.as_str()?.to_string(),
        components,
        events,
        windows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> TraceDoc {
        TraceDoc {
            workload: "allreduce8".to_string(),
            seed: 7,
            queue: "calendar".to_string(),
            components: vec!["n0.driver".to_string(), "switch \"x\"".to_string()],
            events: vec![
                ObsEvent {
                    time_ps: 0,
                    kind: ObsKind::Begin,
                    id: 11,
                    parent: 0,
                    comp: 0,
                    name: "driver.coll".to_string(),
                },
                ObsEvent {
                    time_ps: 42,
                    kind: ObsKind::FlowBegin,
                    id: 99,
                    parent: 11,
                    comp: 1,
                    name: "poe.flow".to_string(),
                },
                ObsEvent {
                    time_ps: 50,
                    kind: ObsKind::End,
                    id: 11,
                    parent: 0,
                    comp: 0,
                    name: String::new(),
                },
            ],
            windows: Some(WindowSeries {
                width_ps: 1_000_000,
                rows: vec![WindowRow {
                    idx: 3,
                    counters: vec![("net.frames".to_string(), 12)],
                    gauges: vec![("poe.inflight".to_string(), -2)],
                    hists: vec![(
                        "rbm.meta_wait_ps".to_string(),
                        HistSummary {
                            count: 5,
                            sum: 1000,
                            min: 100,
                            max: 400,
                            p50: 128,
                            p99: 256,
                            p999: 256,
                        },
                    )],
                }],
            }),
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let doc = sample_doc();
        let text = serialize(&doc);
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        // Serialization is canonical: equal docs, equal bytes.
        assert_eq!(serialize(&back), text);
        // Traces written while the simulator had a parallel engine carry
        // a `workers` key; they still load, with the key ignored.
        let legacy = text.replacen("\"seed\": 7,", "\"seed\": 7, \"workers\": 4,", 1);
        assert_ne!(legacy, text);
        assert_eq!(parse(&legacy).unwrap(), doc);
    }

    #[test]
    fn rejects_floats_and_wrong_schema() {
        assert!(parse_value("1.5").unwrap_err().contains("integer-only"));
        assert!(parse("{\"schema\": \"nope\"}")
            .unwrap_err()
            .contains("unsupported schema"));
    }

    #[test]
    fn parses_negative_numbers_and_escapes() {
        let v = parse_value("{\"a\": -3, \"b\": \"x\\n\\\"y\\\"\"}").unwrap();
        let o = v.as_obj().unwrap();
        assert_eq!(o["a"].as_i64().unwrap(), -3);
        assert_eq!(o["b"].as_str().unwrap(), "x\n\"y\"");
    }
}
