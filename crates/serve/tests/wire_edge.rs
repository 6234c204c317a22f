//! Wire edge-case fuzzing over real sockets: torn frames split at every
//! byte boundary across reads, server-side write backpressure, oversized
//! frames, and mid-pipeline disconnects — after each abuse the server must
//! keep serving well-behaved clients.

use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_exec::EngineConfig;
use gcnrl_serve::protocol::{
    encode_frame, write_frame, ClientMsg, FrameReader, Hello, ServerMsg, DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
use gcnrl_serve::{EvalServer, RegistryConfig, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

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

fn hello_frame(session: &str) -> Vec<u8> {
    encode_frame(&ClientMsg::Hello(Hello {
        version: PROTOCOL_VERSION,
        benchmark: BENCHMARK,
        node: TechnologyNode::tsmc180(),
        session: Some(session.to_owned()),
    }))
    .expect("encode hello")
}

fn nominal() -> ParamVector {
    BENCHMARK
        .circuit()
        .design_space(&TechnologyNode::tsmc180())
        .nominal()
}

fn read_reply(stream: &mut TcpStream, reader: &mut FrameReader) -> ServerMsg {
    reader
        .read_msg(stream, DEFAULT_MAX_FRAME_BYTES)
        .expect("server reply")
}

/// Every byte boundary of the handshake + batch stream, delivered as two
/// separate writes with a pause in between, must reassemble into exactly the
/// same two responses. This fuzzes the incremental `FrameReader` path on the
/// server's connection reader (partial length prefixes, partial payloads,
/// frame boundaries straddling reads).
#[test]
fn frames_split_at_every_byte_boundary_reassemble() {
    let server = open_server();
    let addr = server.local_addr();
    let mut wire = hello_frame("torn");
    wire.extend_from_slice(
        &encode_frame(&ClientMsg::EvalBatch {
            id: 1,
            params: vec![nominal()],
            trace: None,
        })
        .expect("encode batch"),
    );

    // The identical candidate every time: after the first connection the
    // batch is a pure cache hit, so the sweep over every split point stays
    // fast even though each split is a full fresh connection.
    let mut reference: Option<Vec<gcnrl_sim::PerformanceReport>> = None;
    for split in 1..wire.len() {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.write_all(&wire[..split]).expect("first half");
        // A short pause so the server almost always observes the split as
        // two distinct reads (TCP may still coalesce some — also fine).
        std::thread::sleep(Duration::from_micros(200));
        stream.write_all(&wire[split..]).expect("second half");
        let mut reader = FrameReader::new();
        assert!(
            matches!(read_reply(&mut stream, &mut reader), ServerMsg::Welcome(_)),
            "split at byte {split}: handshake failed"
        );
        match read_reply(&mut stream, &mut reader) {
            ServerMsg::BatchResult { id: 1, reports, .. } => match &reference {
                Some(reference) => {
                    assert_eq!(&reports, reference, "split at byte {split} changed a bit")
                }
                None => reference = Some(reports),
            },
            other => panic!("split at byte {split}: expected BatchResult, got {other:?}"),
        }
    }
    server.shutdown();
    assert_eq!(server.stats().connections_total as usize, wire.len() - 1);
    assert_eq!(server.stats().connections_rejected, 0);
}

/// A client that pipelines a large window of sizeable batches and only
/// starts reading afterwards forces the server's socket buffer full — the
/// blocked responder must deliver every response intact once the client
/// drains.
#[test]
fn write_backpressure_from_a_slow_reader_corrupts_nothing() {
    const WINDOW: usize = 40;
    const CANDIDATES: usize = 100;

    let server = open_server();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = FrameReader::new();
    stream
        .write_all(&hello_frame("slow-reader"))
        .expect("send hello");
    assert!(matches!(
        read_reply(&mut stream, &mut reader),
        ServerMsg::Welcome(_)
    ));
    // One candidate repeated: the first evaluation fills the cache, the
    // rest are hits, so the responses (~ WINDOW × CANDIDATES reports) are
    // produced much faster than a throttled reader consumes them.
    let params: Vec<ParamVector> = (0..CANDIDATES).map(|_| nominal()).collect();
    for id in 0..WINDOW as u64 {
        write_frame(
            &mut stream,
            &ClientMsg::EvalBatch {
                id,
                params: params.clone(),
                trace: None,
            },
        )
        .expect("send batch");
    }
    // Let the server resolve everything and wedge its write buffers before
    // the first read happens.
    std::thread::sleep(Duration::from_millis(300));
    let mut seen = [false; WINDOW];
    for _ in 0..WINDOW {
        match read_reply(&mut stream, &mut reader) {
            ServerMsg::BatchResult { id, reports, .. } => {
                assert_eq!(reports.len(), CANDIDATES, "batch {id} truncated");
                assert!(!seen[id as usize], "batch {id} answered twice");
                seen[id as usize] = true;
            }
            other => panic!("expected BatchResult, got {other:?}"),
        }
    }
    assert!(seen.iter().all(|s| *s), "a pipelined batch went missing");
    write_frame(&mut stream, &ClientMsg::Goodbye).expect("send goodbye");
    assert!(matches!(
        read_reply(&mut stream, &mut reader),
        ServerMsg::Goodbye
    ));
    server.shutdown();
}

/// An oversized length prefix is rejected before any payload allocation and
/// closes only the offending connection.
#[test]
fn oversized_frames_close_the_connection_but_not_the_server() {
    let server = open_server();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = FrameReader::new();
    stream
        .write_all(&hello_frame("oversized"))
        .expect("send hello");
    assert!(matches!(
        read_reply(&mut stream, &mut reader),
        ServerMsg::Welcome(_)
    ));
    // A 1 GiB frame announcement (never followed by a payload).
    stream
        .write_all(&(1u32 << 30).to_be_bytes())
        .expect("send prefix");
    stream.write_all(&[0u8; 16]).expect("send junk");
    // The server errors (possibly with a final Error frame) and closes; a
    // blocking read drains whatever is left and hits EOF — or a reset, when
    // the server dropped the socket with the junk bytes still unread. Only
    // a timeout would mean the connection was left open.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut sink = Vec::new();
    match stream.read_to_end(&mut sink) {
        Ok(_) => {}
        Err(e) => assert!(
            !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "the offending connection must be closed, read gave {e}"
        ),
    }

    // The server survives: a fresh client is served normally.
    let mut healthy = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = FrameReader::new();
    healthy
        .write_all(&hello_frame("healthy"))
        .expect("send hello");
    assert!(matches!(
        read_reply(&mut healthy, &mut reader),
        ServerMsg::Welcome(_)
    ));
    write_frame(
        &mut healthy,
        &ClientMsg::EvalBatch {
            id: 1,
            params: vec![nominal()],
            trace: None,
        },
    )
    .expect("send batch");
    assert!(matches!(
        read_reply(&mut healthy, &mut reader),
        ServerMsg::BatchResult { id: 1, .. }
    ));
    server.shutdown();
}

/// Disconnecting with a full pipeline in flight (requests submitted, none
/// collected) must not wedge the server, leak the connection, or affect a
/// concurrent client.
#[test]
fn mid_pipeline_disconnects_leave_the_server_healthy() {
    let server = open_server();
    {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = FrameReader::new();
        stream
            .write_all(&hello_frame("vanishing"))
            .expect("send hello");
        assert!(matches!(
            read_reply(&mut stream, &mut reader),
            ServerMsg::Welcome(_)
        ));
        for id in 0..8u64 {
            write_frame(
                &mut stream,
                &ClientMsg::EvalBatch {
                    id,
                    params: vec![nominal()],
                    trace: None,
                },
            )
            .expect("send batch");
        }
        // Gone without reading a single response.
        drop(stream);
    }
    // A concurrent client on the same service is unaffected.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = FrameReader::new();
    stream
        .write_all(&hello_frame("survivor"))
        .expect("send hello");
    assert!(matches!(
        read_reply(&mut stream, &mut reader),
        ServerMsg::Welcome(_)
    ));
    write_frame(
        &mut stream,
        &ClientMsg::EvalBatch {
            id: 99,
            params: vec![nominal()],
            trace: None,
        },
    )
    .expect("send batch");
    assert!(matches!(
        read_reply(&mut stream, &mut reader),
        ServerMsg::BatchResult { id: 99, .. }
    ));
    // Every request the vanished client submitted still resolves inside the
    // service (answers to a dead socket are discarded, never wedged) — the
    // cross-registry pending counter must drain to zero.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.registry().pending_requests() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "requests of the vanished client never resolved"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.connections_active, 0, "the dead connection leaked");
    assert_eq!(stats.connections_total, 2);
}
