//! `traceview --expect-processes` counts input files as processes, so one
//! file given twice must be refused rather than counted as two processes.

use std::path::PathBuf;
use std::process::Command;

/// Writes `line` to a trace file unique to this test process.
fn trace_file(stem: &str, line: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "gcnrl_traceview_{stem}_{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, format!("{line}\n")).expect("write trace file");
    path
}

fn traceview_succeeds(paths: &[&PathBuf]) -> bool {
    Command::new(env!("CARGO_BIN_EXE_traceview"))
        .args(["--expect-processes", "2"])
        .args(paths)
        .output()
        .expect("run traceview")
        .status
        .success()
}

#[test]
fn one_file_given_twice_does_not_count_as_two_processes() {
    let client = trace_file(
        "client",
        r#"{"name":"serve.rpc.ns","start_ns":1,"dur_ns":2,"trace_id":7,"span_id":9}"#,
    );
    let server = trace_file(
        "server",
        r#"{"name":"serve.request.ns","start_ns":1,"dur_ns":1,"trace_id":7,"span_id":11,"parent_id":9}"#,
    );
    let twice = traceview_succeeds(&[&client, &client]);
    let two_processes = traceview_succeeds(&[&client, &server]);
    let _ = std::fs::remove_file(&client);
    let _ = std::fs::remove_file(&server);
    assert!(!twice, "one trace file given twice passed a 2-process gate");
    assert!(
        two_processes,
        "a trace across two files failed the 2-process gate"
    );
}
