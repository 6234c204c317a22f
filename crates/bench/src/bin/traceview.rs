//! `traceview` — reassembles distributed request trees out of one or more
//! `GCNRL_TRACE` JSONL files (a client and the server it talks to, each
//! tracing to its own file) and renders a per-request timeline.
//!
//! Usage: `traceview [--expect-processes N] <trace.jsonl>...`
//!
//! Every line carrying the distributed-tracing keys (`trace_id`, `span_id`,
//! optionally `parent_id` — what trace propagation appends) is grouped by
//! `trace_id` across all input files; lines in the legacy schema are
//! ignored. Each trace renders as an indented parent/child tree, spans
//! tagged with the file they came from and their wall duration. Span starts
//! are per-process epochs, so ordering within one process is faithful while
//! cross-process offsets are not comparable — the tree structure is what
//! links processes, not the clock.
//!
//! `--expect-processes N` turns the viewer into a CI gate: at least one
//! trace must contain spans from ≥ N distinct input files (i.e. a request
//! provably crossed N processes), otherwise the run aborts nonzero. Each
//! file stands for one process, so a file given twice is refused.

use serde::Value;
use std::collections::BTreeMap;

/// One distributed span, tagged with the input file it was read from.
struct Span {
    name: String,
    span_id: u64,
    parent_id: Option<u64>,
    start_ns: u64,
    dur_ns: u64,
    file: usize,
}

fn field<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn uint(value: &Value) -> Option<u64> {
    match value {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
        _ => None,
    }
}

/// Parses one JSONL line into a distributed span; `None` for legacy-schema
/// events (no ids — plain `GCNRL_TRACE` spans outside any request context).
fn parse_span(line: &str, path: &str, lineno: usize, file: usize) -> Option<(u64, Span)> {
    let value = serde_json::parse_value(line)
        .unwrap_or_else(|error| panic!("{path}:{lineno}: not valid JSON: {error}"));
    let Value::Map(entries) = &value else {
        panic!("{path}:{lineno}: trace event is not a JSON object");
    };
    let trace_id = uint(field(entries, "trace_id")?)?;
    let span_id = uint(field(entries, "span_id")?)?;
    let name = match field(entries, "name") {
        Some(Value::Str(name)) => name.clone(),
        _ => panic!("{path}:{lineno}: span without a string `name`"),
    };
    let start_ns = field(entries, "start_ns").and_then(uint).unwrap_or(0);
    let dur_ns = field(entries, "dur_ns").and_then(uint).unwrap_or(0);
    let parent_id = field(entries, "parent_id").and_then(uint);
    Some((
        trace_id,
        Span {
            name,
            span_id,
            parent_id,
            start_ns,
            dur_ns,
            file,
        },
    ))
}

fn render_tree(spans: &[Span], tags: &[String]) -> String {
    // Children keyed by parent; roots are spans whose parent is absent from
    // this trace's span set (the root proper has no parent at all, but a
    // file sampled mid-request can orphan a subtree — render it as a root
    // rather than dropping it).
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    let mut roots: Vec<&Span> = Vec::new();
    for span in spans {
        match span.parent_id.filter(|p| ids.contains(p)) {
            Some(parent) => children.entry(parent).or_default().push(span),
            None => roots.push(span),
        }
    }
    for list in children.values_mut() {
        list.sort_by_key(|s| (s.start_ns, s.span_id));
    }
    roots.sort_by_key(|s| (s.start_ns, s.span_id));

    fn walk(
        span: &Span,
        children: &BTreeMap<u64, Vec<&Span>>,
        tags: &[String],
        depth: usize,
        out: &mut String,
    ) {
        let ms = span.dur_ns as f64 / 1e6;
        out.push_str(&format!(
            "{:indent$}{} {:.3} ms [{}]\n",
            "",
            span.name,
            ms,
            tags[span.file],
            indent = depth * 2
        ));
        for child in children.get(&span.span_id).into_iter().flatten() {
            walk(child, children, tags, depth + 1, out);
        }
    }
    let mut out = String::new();
    for root in roots {
        walk(root, &children, tags, 0, &mut out);
    }
    out
}

fn main() {
    let mut expect_processes: Option<usize> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--expect-processes" {
            let n = args
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("--expect-processes needs an integer"));
            expect_processes = Some(n);
        } else {
            paths.push(arg);
        }
    }
    assert!(
        !paths.is_empty(),
        "usage: traceview [--expect-processes N] <trace.jsonl>..."
    );
    let mut files = std::collections::BTreeSet::new();
    for path in &paths {
        let file = std::fs::canonicalize(path)
            .unwrap_or_else(|error| panic!("cannot read {path}: {error}"));
        assert!(
            files.insert(file),
            "{path} is given twice; each trace file counts as one process"
        );
    }

    // Short tags for the per-span source markers: the file stem.
    let tags: Vec<String> = paths
        .iter()
        .map(|p| {
            std::path::Path::new(p)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| p.clone())
        })
        .collect();

    let mut traces: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    let mut total_lines = 0usize;
    for (file, path) in paths.iter().enumerate() {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|error| panic!("cannot read {path}: {error}"));
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            total_lines += 1;
            if let Some((trace_id, span)) = parse_span(line, path, lineno + 1, file) {
                traces.entry(trace_id).or_default().push(span);
            }
        }
    }

    let mut widest = 0usize;
    for (trace_id, spans) in &traces {
        let processes: std::collections::BTreeSet<usize> = spans.iter().map(|s| s.file).collect();
        widest = widest.max(processes.len());
        println!(
            "trace {trace_id:#018x}: {} spans across {} process(es)",
            spans.len(),
            processes.len()
        );
        print!("{}", render_tree(spans, &tags));
        println!();
    }
    println!(
        "traceview: {} trace(s) out of {} event line(s) in {} file(s); widest trace spans {} process(es)",
        traces.len(),
        total_lines,
        paths.len(),
        widest
    );

    if let Some(expected) = expect_processes {
        assert!(
            widest >= expected,
            "no trace crossed {expected} processes (widest: {widest}) — \
             trace propagation is broken across the tier"
        );
        println!("traceview: cross-process gate OK (>= {expected} processes in one trace)");
    }
}
