//! A minimal plain-HTTP listener serving the process's telemetry registry
//! as a Prometheus scrape.
//!
//! `GET /metrics` (or `/`) answers with the global registry in Prometheus
//! text exposition format; any other path gets a `404` with a `text/plain`
//! body, any other method a `405`, and a head that is not UTF-8, lacks a
//! `METHOD target` request line or never ends in a blank line a `400`.
//! Hand-rolled HTTP/1.1, std-only, one request per connection. The serve
//! binary binds one when `GCNRL_METRICS_ADDR` is set.
//!
//! Requests are cheap (one render, one write), so the accept thread serves
//! each inline, and the whole exchange — head read and response write —
//! shares one 2 s deadline from accept: a client that drips its request
//! head, or reads the response a byte at a time, holds the endpoint for at
//! most that long.

use crate::accept::AcceptLoop;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// The metrics endpoint. Dropping it (or calling
/// [`MetricsHttpServer::shutdown`]) stops the listener.
pub struct MetricsHttpServer {
    accept: AcceptLoop,
}

impl std::fmt::Debug for MetricsHttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHttpServer")
            .field("addr", &self.local_addr())
            .finish()
    }
}

impl MetricsHttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// serving scrapes.
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, ...) or a failed
    /// thread spawn.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let accept = AcceptLoop::spawn(listener, "gcnrl-metrics-http", |mut stream, _| {
            serve_request(&mut stream, Instant::now() + Duration::from_secs(2));
        })?;
        Ok(MetricsHttpServer { accept })
    }

    /// The address the endpoint is listening on (with the concrete port when
    /// bound ephemerally).
    pub fn local_addr(&self) -> SocketAddr {
        self.accept.local_addr()
    }

    /// Stops the listener. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.accept.stop();
    }
}

/// Extracts the method and the path (without query string) from the
/// request line of an HTTP/1.1 request head; `None` when the head did not
/// end in a blank line, is not UTF-8, or has no `METHOD target` request line.
fn request_line(head: &[u8]) -> Option<(&str, &str)> {
    let end = head.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&head[..end]).ok()?;
    let mut parts = head.lines().next()?.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let path = target.split_once('?').map_or(target, |(path, _)| path);
    Some((method, path))
}

/// Shrinks `stream`'s read and write timeouts to the time left before
/// `deadline`; `false` once it has passed.
fn time_left(stream: &TcpStream, deadline: Instant) -> bool {
    let left = deadline.saturating_duration_since(Instant::now());
    !left.is_zero()
        && stream.set_read_timeout(Some(left)).is_ok()
        && stream.set_write_timeout(Some(left)).is_ok()
}

/// Reads the request head, routes on the path, and writes one HTTP/1.1
/// response, all before `deadline`. Transport errors are ignored (the
/// scraper retries next interval).
fn serve_request(stream: &mut TcpStream, deadline: Instant) {
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    // Best-effort: stop at the blank line ending the request head, on EOF,
    // at the deadline, or once an ill-behaved client has sent 64 KiB of
    // headers.
    while !head.windows(4).any(|w| w == b"\r\n\r\n")
        && head.len() < 64 * 1024
        && time_left(stream, deadline)
    {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
        }
    }
    let plain = "text/plain; charset=utf-8";
    let (status, content_type, allow, body) = match request_line(&head) {
        None => (
            "400 Bad Request",
            plain,
            "",
            "malformed request head\n".to_owned(),
        ),
        Some((method, _)) if method != "GET" => (
            "405 Method Not Allowed",
            plain,
            "Allow: GET\r\n",
            format!("method not allowed: {method}\n"),
        ),
        Some((_, "/metrics" | "/")) => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            "",
            gcnrl_telemetry::global().render_prometheus(),
        ),
        Some((_, path)) => (
            "404 Not Found",
            plain,
            "",
            format!("no such resource: {path}\nknown: /metrics\n"),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: {content_type}\r\n\
         {allow}\
         Content-Length: {}\r\n\
         Connection: close\r\n\
         \r\n\
         {body}",
        body.len(),
    );
    let mut unsent = response.as_bytes();
    while !unsent.is_empty() && time_left(stream, deadline) {
        match stream.write(unsent) {
            Ok(0) | Err(_) => break,
            Ok(n) => unsent = &unsent[n..],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Issues one `GET` for `path` against `addr` and returns the raw
    /// response text.
    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set read timeout");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
            .expect("send request");
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .expect("read response (Connection: close)");
        response
    }

    /// A client that sends the start of a request head one byte every
    /// 500 ms, until the endpoint closes on it or 6 s have passed.
    fn dripping_client(addr: SocketAddr) -> std::thread::JoinHandle<()> {
        let mut stream = TcpStream::connect(addr).expect("connect dripping client");
        std::thread::spawn(move || {
            for byte in b"GET /metrics HTTP/1.1\r\n".iter().take(12) {
                if stream.write_all(&[*byte]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(500));
            }
        })
    }

    #[test]
    fn scrapes_return_the_global_registry_in_prometheus_text_format() {
        gcnrl_telemetry::global()
            .gauge("serve.metrics_http.test_gauge")
            .set(5);
        gcnrl_telemetry::global()
            .histogram("serve.metrics_http.test_latency.ns")
            .record(1500);
        let server = MetricsHttpServer::bind("127.0.0.1:0").expect("bind metrics endpoint");
        let response = get(server.local_addr(), "/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(
            response.contains("Content-Type: text/plain; version=0.0.4"),
            "{response}"
        );
        // Prometheus name mangling: dots become underscores; HELP/TYPE
        // headers precede each family.
        assert!(
            response.contains("serve_metrics_http_test_gauge 5"),
            "{response}"
        );
        assert!(
            response.contains("# TYPE serve_metrics_http_test_gauge gauge"),
            "{response}"
        );
        assert!(
            response.contains("# HELP serve_metrics_http_test_gauge"),
            "{response}"
        );
        assert!(
            response.contains("serve_metrics_http_test_latency_ns_count 1"),
            "{response}"
        );
        assert!(response.contains("le=\"+Inf\""), "{response}");
        // A second scrape works (one connection per scrape), and the bare
        // root aliases /metrics.
        let again = get(server.local_addr(), "/");
        assert!(again.contains("serve_metrics_http_test_gauge"), "{again}");
        server.shutdown();
        // Idempotent shutdown; further connections are refused or unserved.
        server.shutdown();
    }

    #[test]
    fn unknown_paths_get_a_plain_text_404() {
        let server = MetricsHttpServer::bind("127.0.0.1:0").expect("bind metrics endpoint");
        let addr = server.local_addr();
        let missing = get(addr, "/nope");
        assert!(
            missing.starts_with("HTTP/1.1 404 Not Found\r\n"),
            "{missing}"
        );
        assert!(
            missing.contains("Content-Type: text/plain"),
            "404 must carry a Content-Type: {missing}"
        );
        assert!(missing.contains("no such resource: /nope"), "{missing}");
        // The query string is not part of the route.
        let scrape = get(addr, "/metrics?verbose=1");
        assert!(scrape.starts_with("HTTP/1.1 200 OK\r\n"), "{scrape}");
        server.shutdown();
    }

    #[test]
    fn a_dripping_client_holds_the_endpoint_for_at_most_its_deadline() {
        let server = MetricsHttpServer::bind("127.0.0.1:0").expect("bind metrics endpoint");
        let addr = server.local_addr();
        // The dripping client is accepted first, so the scrape waits for it.
        let first = dripping_client(addr);
        let started = Instant::now();
        let scrape = get(addr, "/metrics");
        let took = started.elapsed();
        assert!(scrape.starts_with("HTTP/1.1 200 OK\r\n"), "{scrape}");
        assert!(took < Duration::from_secs(3), "scrape took {took:?}");
        // A shutdown with a dripping client connected returns in time
        // whether or not the accept thread has taken that client yet.
        let second = dripping_client(addr);
        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(3), "shutdown took {took:?}");
        first.join().expect("first dripping client");
        second.join().expect("second dripping client");
    }

    #[test]
    fn hostile_request_heads_leave_the_endpoint_serving() {
        let server = MetricsHttpServer::bind("127.0.0.1:0").expect("bind metrics endpoint");
        let addr = server.local_addr();
        let mut unterminated = b"GET /metrics HTTP/1.1\r\n".to_vec();
        while unterminated.len() < 64 * 1024 {
            unterminated.extend_from_slice(b"X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        // (case, request bytes, status line of the reply; the client that
        // sends nothing reads no reply).
        let cases: [(&str, &[u8], &str); 6] = [
            (
                "non-UTF-8 request line",
                b"\xff\xfe /metrics HTTP/1.1\r\n\r\n",
                "400 Bad Request",
            ),
            (
                "64 KiB of headers, no blank line",
                &unterminated,
                "400 Bad Request",
            ),
            ("closed before any byte", b"", ""),
            ("bare blank line", b"\r\n\r\n", "400 Bad Request"),
            ("no METHOD target", b"hello\r\n\r\n", "400 Bad Request"),
            (
                "a method other than GET",
                b"POST /metrics HTTP/1.1\r\n\r\n",
                "405 Method Not Allowed",
            ),
        ];
        for (case, input, status) in cases {
            {
                let mut hostile = TcpStream::connect(addr).expect("connect hostile client");
                if !input.is_empty() {
                    let _ = hostile.write_all(input);
                    let _ = hostile.set_read_timeout(Some(Duration::from_secs(5)));
                    let mut reply = Vec::new();
                    let _ = hostile.read_to_end(&mut reply);
                    let reply = String::from_utf8_lossy(&reply);
                    assert!(
                        reply.starts_with(&format!("HTTP/1.1 {status}\r\n")),
                        "{case}: {reply}"
                    );
                    assert_eq!(
                        reply.contains("\r\nAllow: GET\r\n"),
                        status.starts_with("405"),
                        "{case}: {reply}"
                    );
                    // Only a scrape renders the registry.
                    assert!(!reply.contains("# TYPE"), "{case}: {reply}");
                }
            }
            let scrape = get(addr, "/metrics");
            assert!(
                scrape.starts_with("HTTP/1.1 200 OK\r\n"),
                "{case}: the next scrape failed: {scrape}"
            );
        }
        server.shutdown();
    }
}
