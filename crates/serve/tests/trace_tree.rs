//! End-to-end distributed-tracing acceptance: one `RemoteBackend` batch,
//! pipelined as sub-batches to one server, must reassemble into a single
//! span tree with correct parent/child linkage, and results must stay
//! bit-identical to a local engine with tracing on and off.

use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_exec::{BatchEvaluator, EngineConfig};
use gcnrl_serve::{EvalServer, RegistryConfig, RemoteBackend, RemoteConfig, ServerConfig};
use gcnrl_telemetry::trace_id_for;

const BENCHMARK: Benchmark = Benchmark::TwoStageTia;

fn open_server() -> EvalServer {
    EvalServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            registry: RegistryConfig {
                engine: EngineConfig::serial(),
                ..RegistryConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback server")
}

/// `n` pairwise-distinct candidates, deterministic so every run sends the
/// same sub-batches.
fn distinct_candidates(n: usize) -> Vec<ParamVector> {
    let space = BENCHMARK.circuit().design_space(&TechnologyNode::tsmc180());
    (0..n)
        .map(|i| {
            let unit: Vec<f64> = (0..space.num_parameters())
                .map(|j| ((i * 17 + j * 3) % 89) as f64 / 88.0)
                .collect();
            space.from_unit(&unit)
        })
        .collect()
}

/// One parsed span line of the `GCNRL_TRACE` JSONL stream (only lines that
/// carry distributed-tracing ids; legacy-schema lines are skipped).
#[derive(Debug)]
struct JsonlSpan {
    name: String,
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
}

fn parse_jsonl_spans(text: &str) -> Vec<JsonlSpan> {
    fn uint(value: &serde::Value) -> Option<u64> {
        match value {
            serde::Value::UInt(n) => Some(*n),
            serde::Value::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }
    let mut spans = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let value = serde_json::parse_value(line).expect("trace line is valid JSON");
        let serde::Value::Map(entries) = value else {
            panic!("trace line is not an object: {line}");
        };
        let field = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let (Some(trace_id), Some(span_id)) = (
            field("trace_id").and_then(uint),
            field("span_id").and_then(uint),
        ) else {
            continue; // legacy event without distributed ids
        };
        let Some(serde::Value::Str(name)) = field("name") else {
            panic!("span line without a name: {line}");
        };
        spans.push(JsonlSpan {
            name: name.clone(),
            trace_id,
            span_id,
            parent_id: field("parent_id").and_then(uint),
        });
    }
    spans
}

/// One 24-candidate `RemoteBackend` batch on one server: the whole batch
/// reassembles into one trace tree rooted at `serve.evaluate.ns` — three
/// `serve.rpc.ns` sub-batches of 8 under the root, one server-side
/// `serve.request.ns` segment under each RPC — and the reports are
/// bit-identical to a local engine with tracing on and off.
#[test]
fn one_remote_batch_reassembles_one_span_tree_across_client_and_server() {
    let node = TechnologyNode::tsmc180();
    let batch = distinct_candidates(24);
    let reference = BatchEvaluator::for_benchmark(BENCHMARK, &node, EngineConfig::serial())
        .evaluate_batch(&batch);

    // Traced run: JSONL sink on, one remote client on one server.
    let server = open_server();
    let trace_path =
        std::env::temp_dir().join(format!("gcnrl_trace_tree_{}.jsonl", std::process::id()));
    gcnrl_telemetry::set_trace_file(&trace_path).expect("open trace sink");
    let remote = RemoteBackend::connect_with(
        server.local_addr(),
        BENCHMARK,
        &node,
        RemoteConfig {
            session: Some("tracetree".to_owned()),
            ..RemoteConfig::default()
        },
    )
    .expect("connect remote backend");
    let traced_reports = remote.try_evaluate_batch(&batch).expect("traced batch");
    gcnrl_telemetry::disable_trace();
    assert_eq!(
        traced_reports, reference,
        "tracing on changed a bit of the results"
    );
    assert_eq!(server.stats().services[0].engine.simulated, 24);

    // Tracing back off: a fresh server, same batch, same bits.
    let fresh = open_server();
    let off = RemoteBackend::connect(fresh.local_addr(), BENCHMARK, &node)
        .expect("connect tracing-off backend");
    let off_reports = off.try_evaluate_batch(&batch).expect("tracing-off batch");
    assert_eq!(
        off_reports, reference,
        "tracing off changed a bit of the results"
    );

    // Reassemble the JSONL: every distributed span of the traced batch
    // shares the deterministic root trace id (session "tracetree", seq 0).
    let text = std::fs::read_to_string(&trace_path).expect("read trace sink");
    let _ = std::fs::remove_file(&trace_path);
    let trace_id = trace_id_for("tracetree", 0);
    let spans: Vec<JsonlSpan> = parse_jsonl_spans(&text)
        .into_iter()
        .filter(|s| s.trace_id == trace_id)
        .collect();
    let ids_of = |name: &str| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.span_id)
            .collect()
    };
    let parents_of = |name: &str| -> Vec<Option<u64>> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.parent_id)
            .collect()
    };

    // Exactly one root, no parent.
    let roots = ids_of("serve.evaluate.ns");
    assert_eq!(roots.len(), 1, "expected one root span, got {spans:#?}");
    assert_eq!(parents_of("serve.evaluate.ns"), vec![None]);
    let root_id = roots[0];

    // One RPC per pipelined sub-batch of 8, every one a direct child of the
    // root.
    let mut rpcs = ids_of("serve.rpc.ns");
    assert_eq!(rpcs.len(), 3, "one RPC span per sub-batch");
    for parent in parents_of("serve.rpc.ns") {
        assert_eq!(parent, Some(root_id), "rpc span not parented on the root");
    }

    // One server-side segment per RPC, each parented on its own RPC.
    let mut request_parents: Vec<u64> = parents_of("serve.request.ns")
        .into_iter()
        .map(|parent| parent.expect("server segment without a parent"))
        .collect();
    rpcs.sort_unstable();
    request_parents.sort_unstable();
    assert_eq!(
        request_parents, rpcs,
        "server segments must pair one-to-one with the client RPCs"
    );

    // Every span of the tree reaches the root by walking parent links.
    for span in &spans {
        let mut cursor = span.parent_id;
        let mut hops = 0;
        while let Some(parent) = cursor {
            cursor = spans
                .iter()
                .find(|s| s.span_id == parent)
                .unwrap_or_else(|| panic!("dangling parent {parent} of {span:?}"))
                .parent_id;
            hops += 1;
            assert!(hops <= 16, "parent chain of {span:?} does not terminate");
        }
    }

    remote.goodbye().expect("clean close traced");
    off.goodbye().expect("clean close off");
    server.shutdown();
    fresh.shutdown();
}
