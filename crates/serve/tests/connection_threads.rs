//! Connection threads exit with their connection.
//!
//! The server serves each connection on a reader and a responder thread,
//! and a service adds none. This file holds a single test so it runs in a
//! process of its own: the process's thread count then moves only with the
//! server, so it shows whether opening a service starts a thread, whether
//! every connection's threads are gone once its client is, and whether
//! `shutdown` leaves the count where it was before `bind`.
//! Linux-only: the count comes from `/proc/self/status`.

#![cfg(target_os = "linux")]

use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
use gcnrl_exec::EngineConfig;
use gcnrl_serve::protocol::{
    write_frame, ClientMsg, FrameReader, Hello, ServerMsg, DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
use gcnrl_serve::{EvalServer, RegistryConfig, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const BENCHMARK: Benchmark = Benchmark::TwoStageTia;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a Threads: line")
}

/// Waits up to 5 s for the thread count to reach `expected`.
fn await_threads(expected: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != expected {
        assert!(
            Instant::now() < deadline,
            "{what}: {} threads, expected {expected}",
            threads()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Connects and sends a `Hello` speaking `version`.
fn connect(server: &EvalServer, version: u32) -> (TcpStream, FrameReader) {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let hello = ClientMsg::Hello(Hello {
        version,
        benchmark: BENCHMARK,
        node: TechnologyNode::tsmc180(),
        session: None,
    });
    write_frame(&mut stream, &hello).expect("send hello");
    (stream, FrameReader::new())
}

fn read_reply(stream: &mut TcpStream, reader: &mut FrameReader) -> ServerMsg {
    reader
        .read_msg(stream, DEFAULT_MAX_FRAME_BYTES)
        .expect("server reply")
}

/// Reads until the server closes the connection (EOF or reset).
fn await_close(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut sink = Vec::new();
    if let Err(e) = stream.read_to_end(&mut sink) {
        assert!(
            !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "the server left the connection open: {e}"
        );
    }
}

#[test]
fn connection_threads_exit_with_their_connection() {
    let before_bind = threads();
    let server = EvalServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            registry: RegistryConfig {
                engine: EngineConfig::serial(),
                ..RegistryConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback server");
    let idle = threads();
    // A service evaluates on its callers' threads: opening one starts none.
    server
        .registry()
        .service_for(BENCHMARK, &TechnologyNode::tsmc180());
    assert_eq!(threads(), idle, "opening a service started a thread");

    // Handshake, then Goodbye: two threads while the session is open.
    let (mut stream, mut reader) = connect(&server, PROTOCOL_VERSION);
    assert!(matches!(
        read_reply(&mut stream, &mut reader),
        ServerMsg::Welcome(_)
    ));
    await_threads(idle + 2, "an open connection");
    write_frame(&mut stream, &ClientMsg::Goodbye).expect("send goodbye");
    assert!(matches!(
        read_reply(&mut stream, &mut reader),
        ServerMsg::Goodbye
    ));
    await_close(&mut stream);
    drop(stream);

    // Vanish mid-pipeline, with every reply still unread.
    let (mut stream, mut reader) = connect(&server, PROTOCOL_VERSION);
    assert!(matches!(
        read_reply(&mut stream, &mut reader),
        ServerMsg::Welcome(_)
    ));
    let nominal = BENCHMARK
        .circuit()
        .design_space(&TechnologyNode::tsmc180())
        .nominal();
    for id in 0..8 {
        let batch = ClientMsg::EvalBatch {
            id,
            params: vec![nominal.clone()],
            trace: None,
        };
        write_frame(&mut stream, &batch).expect("send batch");
    }
    drop(stream);

    // An oversized frame after the handshake.
    let (mut stream, mut reader) = connect(&server, PROTOCOL_VERSION);
    assert!(matches!(
        read_reply(&mut stream, &mut reader),
        ServerMsg::Welcome(_)
    ));
    stream
        .write_all(&(1u32 << 30).to_be_bytes())
        .expect("send prefix");
    await_close(&mut stream);
    drop(stream);

    // A wrong protocol version.
    let (mut stream, mut reader) = connect(&server, PROTOCOL_VERSION + 1);
    assert!(matches!(
        read_reply(&mut stream, &mut reader),
        ServerMsg::Error { .. }
    ));
    await_close(&mut stream);
    drop(stream);

    await_threads(idle, "every client is gone");
    server.shutdown();
    assert_eq!(threads(), before_bind, "shutdown left threads behind");
    assert_eq!(server.stats().connections_total, 4);
    assert_eq!(server.stats().connections_active, 0);
}
