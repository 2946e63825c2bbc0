//! The `accl-obs-trace-v1` JSON interchange form: serializer and reader,
//! both on the workspace's integer-only codec ([`accl_sim::json`]).
//!
//! The format is deliberately integer-only — times are picoseconds,
//! never fractional units — so a document round-trips bit-exactly:
//! `parse(serialize(doc)) == doc` for every capturable trace, which the
//! round-trip tests pin. Floats are rejected at parse time rather than
//! silently rounded.

use accl_sim::json::{self, escape, Json};

use crate::model::{HistSummary, ObsEvent, ObsKind, TraceDoc, WindowRow, WindowSeries, SCHEMA};

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

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
    push_joined(&mut out, &doc.components, ", ", |c| {
        format!("\"{}\"", escape(c))
    });
    out.push_str("],\n\"events\": [\n");
    push_joined(&mut out, &doc.events, ",\n", |e| {
        format!(
            "{{\"t\": {}, \"k\": \"{}\", \"id\": {}, \"par\": {}, \"c\": {}, \"n\": \"{}\"}}",
            e.time_ps,
            e.kind.code(),
            e.id,
            e.parent,
            e.comp,
            escape(&e.name)
        )
    });
    out.push_str("\n]");
    if let Some(w) = &doc.windows {
        out.push_str(&format!(
            ",\n\"windows\": {{\"width_ps\": {}, \"rows\": [\n",
            w.width_ps
        ));
        push_joined(&mut out, &w.rows, ",\n", |row| {
            let mut r = format!("{{\"idx\": {}, \"counters\": {{", row.idx);
            push_joined(&mut r, &row.counters, ", ", |(k, v)| {
                format!("\"{}\": {v}", escape(k))
            });
            r.push_str("}, \"gauges\": {");
            push_joined(&mut r, &row.gauges, ", ", |(k, v)| {
                format!("\"{}\": {v}", escape(k))
            });
            r.push_str("}, \"hists\": {");
            push_joined(&mut r, &row.hists, ", ", |(k, h)| {
                format!(
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
                )
            });
            r.push_str("}}");
            r
        });
        out.push_str("\n]}");
    }
    out.push_str("}\n");
    out
}

/// Appends `items`, each rendered by `item`, separated by `sep`.
fn push_joined<T>(out: &mut String, items: &[T], sep: &str, item: impl Fn(&T) -> String) {
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        out.push_str(&item(x));
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Parses an `accl-obs-trace-v1` document.
pub fn parse(text: &str) -> Result<TraceDoc, String> {
    let root = json::parse(text)?;
    let schema = root.str_field("schema")?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported schema \"{schema}\" (want \"{SCHEMA}\")"
        ));
    }
    let components = root
        .arr_field("components")?
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or("`components`: expected strings")?;
    let mut events = Vec::new();
    for e in root.arr_field("events")? {
        let code = e.str_field("k")?;
        let kind =
            ObsKind::from_code(code).ok_or_else(|| format!("unknown event kind \"{code}\""))?;
        events.push(ObsEvent {
            time_ps: e.uint_field("t")?,
            kind,
            id: e.uint_field("id")?,
            parent: e.uint_field("par")?,
            comp: e.uint_field("c")?,
            name: e.str_field("n")?.to_string(),
        });
    }
    let windows = match root.get("windows") {
        None | Some(Json::Null) => None,
        Some(w) => {
            let width_ps = w.uint_field("width_ps")?;
            let mut rows = Vec::new();
            for r in w.arr_field("rows")? {
                rows.push(WindowRow {
                    idx: r.uint_field("idx")?,
                    counters: entries(r, "counters", |v| {
                        v.as_u64().ok_or("expected an unsigned integer")
                    })?,
                    gauges: entries(r, "gauges", |v| v.as_i64().ok_or("expected an integer"))?,
                    hists: entries(r, "hists", hist_summary)?,
                });
            }
            Some(WindowSeries { width_ps, rows })
        }
    };
    Ok(TraceDoc {
        workload: root.str_field("workload")?.to_string(),
        seed: root.uint_field("seed")?,
        // Traces written while the simulator had a parallel engine also
        // carry a `workers` count; it never affected the analyses, so it
        // is ignored.
        queue: root.str_field("queue")?.to_string(),
        components,
        events,
        windows,
    })
}

fn hist_summary(h: &Json) -> Result<HistSummary, String> {
    Ok(HistSummary {
        count: h.uint_field("count")?,
        sum: h.uint_field("sum")?,
        min: h.uint_field("min")?,
        max: h.uint_field("max")?,
        p50: h.uint_field("p50")?,
        p99: h.uint_field("p99")?,
        p999: h.uint_field("p999")?,
    })
}

/// Reads the object `key` of a window row as pairs sorted by key (the
/// [`WindowRow`] invariant), converting each value with `conv`.
fn entries<T, E: std::fmt::Display>(
    row: &Json,
    key: &str,
    conv: impl Fn(&Json) -> Result<T, E>,
) -> Result<Vec<(String, T)>, String> {
    let mut out = row
        .obj_field(key)?
        .iter()
        .map(|(k, v)| {
            conv(v)
                .map(|t| (k.clone(), t))
                .map_err(|e| format!("`{key}.{k}`: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
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
        assert!(parse("{\"seed\": 7.0}")
            .unwrap_err()
            .contains("integer-only"));
        assert!(parse("{\"schema\": \"nope\"}")
            .unwrap_err()
            .contains("unsupported schema"));
    }
}
