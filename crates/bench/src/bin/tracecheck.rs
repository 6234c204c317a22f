//! `tracecheck` — validates a `GCNRL_TRACE` JSONL trace file.
//!
//! Usage: `tracecheck <trace.jsonl>`. Every line must parse as a JSON object
//! with a string `name`, unsigned `start_ns` and `dur_ns`, and (optionally)
//! a `fields` object whose values are strings — the schema `gcnrl-telemetry`
//! writes. A span on a distributed request also carries `trace_id` and
//! `span_id` (both or neither, unsigned integers, never 0) and, under a
//! parent, `parent_id` (an unsigned integer, only next to the other two);
//! `traceview` skips lines whose ids break these rules, so they are checked
//! here. Any malformed line aborts with the offending line number, so CI
//! can gate on "the trace a smoke run produced is well-formed and non-empty".
//! On success it prints the event count and the distinct span names seen.

use serde::Value;
use std::collections::BTreeMap;

fn field<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn is_unsigned(value: &Value) -> bool {
    match value {
        Value::UInt(_) => true,
        Value::Int(i) => *i >= 0,
        Value::Num(n) => *n >= 0.0 && n.fract() == 0.0,
        _ => false,
    }
}

/// Validates one trace line, returning the event's span name.
fn check_line(line: &str) -> Result<String, String> {
    let value =
        serde_json::parse_value(line).map_err(|error| format!("not valid JSON: {error}"))?;
    let Value::Map(entries) = &value else {
        return Err("trace event is not a JSON object".to_owned());
    };
    let name = match field(entries, "name") {
        Some(Value::Str(name)) if !name.is_empty() => name.clone(),
        _ => return Err("missing or non-string `name`".to_owned()),
    };
    for key in ["start_ns", "dur_ns"] {
        let v = field(entries, key).ok_or_else(|| format!("missing `{key}`"))?;
        if !is_unsigned(v) {
            return Err(format!("`{key}` is not an unsigned integer: {v:?}"));
        }
    }
    if let Some(fields) = field(entries, "fields") {
        let Value::Map(fields) = fields else {
            return Err("`fields` is not an object".to_owned());
        };
        if let Some((k, v)) = fields.iter().find(|(_, v)| !matches!(v, Value::Str(_))) {
            return Err(format!("field `{k}` is not a string: {v:?}"));
        }
    }
    check_ids(entries)?;
    Ok(name)
}

/// Checks the distributed-tracing keys trace propagation writes.
fn check_ids(entries: &[(String, Value)]) -> Result<(), String> {
    let id = |key: &str| match field(entries, key) {
        None => Ok(None),
        Some(Value::UInt(id)) => Ok(Some(*id)),
        Some(other) => Err(format!("`{key}` is not an unsigned integer: {other:?}")),
    };
    match (id("trace_id")?, id("span_id")?, id("parent_id")?) {
        (Some(0), _, _) | (_, Some(0), _) => Err("`trace_id` and `span_id` are never 0".to_owned()),
        (Some(_), Some(_), _) | (None, None, None) => Ok(()),
        (None, None, Some(_)) => Err("`parent_id` without `trace_id` and `span_id`".to_owned()),
        _ => Err("`trace_id` and `span_id` must be both present or both absent".to_owned()),
    }
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .expect("usage: tracecheck <trace.jsonl>");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|error| panic!("cannot read {path}: {error}"));
    let mut spans: BTreeMap<String, usize> = BTreeMap::new();
    let mut events = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let name = check_line(line).unwrap_or_else(|error| panic!("line {}: {error}", i + 1));
        *spans.entry(name).or_insert(0) += 1;
        events += 1;
    }
    assert!(events > 0, "{path}: trace is empty");
    println!(
        "{path}: {events} well-formed trace events across {} spans",
        spans.len()
    );
    for (name, count) in &spans {
        println!("  {name:<28} {count}");
    }
}

#[cfg(test)]
mod tests {
    use super::check_line;

    const BASE: &str = r#""name":"serve.rpc.ns","start_ns":10,"dur_ns":5"#;

    fn line(ids: &str) -> String {
        format!("{{{BASE}{ids}}}")
    }

    #[test]
    fn accepts_a_local_a_root_and_a_child_span() {
        for ids in [
            "",
            r#","trace_id":7,"span_id":9"#,
            r#","trace_id":7,"span_id":9,"parent_id":3"#,
        ] {
            assert_eq!(
                check_line(&line(ids)).as_deref(),
                Ok("serve.rpc.ns"),
                "{ids}"
            );
        }
        let with_fields = r#"{"name":"a","start_ns":0,"dur_ns":1,"fields":{"k":"v"}}"#;
        assert_eq!(check_line(with_fields).as_deref(), Ok("a"));
    }

    #[test]
    fn rejects_every_malformed_id_shape() {
        for (ids, expected) in [
            (r#","trace_id":7"#, "both present or both absent"),
            (r#","span_id":9"#, "both present or both absent"),
            (
                r#","trace_id":7,"parent_id":3"#,
                "both present or both absent",
            ),
            (r#","parent_id":3"#, "`parent_id` without"),
            (r#","trace_id":0,"span_id":9"#, "never 0"),
            (r#","trace_id":7,"span_id":0"#, "never 0"),
            (
                r#","trace_id":-7,"span_id":9"#,
                "`trace_id` is not an unsigned integer",
            ),
            (
                r#","trace_id":7,"span_id":9.5"#,
                "`span_id` is not an unsigned integer",
            ),
            (
                r#","trace_id":"7","span_id":9"#,
                "`trace_id` is not an unsigned integer",
            ),
            (
                r#","trace_id":7,"span_id":9,"parent_id":-3"#,
                "`parent_id` is not an unsigned integer",
            ),
            (
                r#","trace_id":7,"span_id":9,"parent_id":null"#,
                "`parent_id` is not an unsigned integer",
            ),
        ] {
            let error = check_line(&line(ids)).expect_err(ids);
            assert!(error.contains(expected), "{ids}: {error}");
        }
    }
}
