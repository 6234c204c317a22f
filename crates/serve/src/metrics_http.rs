//! A minimal plain-HTTP listener exposing the process's telemetry registry
//! and health introspection endpoints.
//!
//! Four resources, hand-rolled HTTP/1.1 (std-only, no keep-alive):
//!
//! | Path | Answer |
//! |------|--------|
//! | `/metrics` (or `/`) | the global registry in Prometheus text format |
//! | `/healthz` | `200 ok` while the listener lives (liveness) |
//! | `/readyz` | `200 ready` / `503 <reason>` from the readiness check |
//! | `/traces` | recent flight-recorder span trees as a JSON array |
//!
//! Anything else is a proper `404` with a `text/plain` body. The serve
//! binary binds one when `GCNRL_METRICS_ADDR` is set, wiring `/readyz` to
//! the eval server's drain- and admission-aware [`EvalServer::readiness`]
//! (via [`MetricsHttpServer::bind_with`]).
//!
//! [`EvalServer::readiness`]: crate::EvalServer::readiness

use crate::accept::AcceptLoop;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// A pluggable readiness probe for `/readyz`: `Ok(())` renders `200 ready`,
/// `Err(reason)` renders `503` with the reason as the body.
pub type ReadinessCheck = Arc<dyn Fn() -> Result<(), String> + Send + Sync>;

/// The metrics/health endpoint. Dropping it (or calling
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
    /// serving scrapes; `/readyz` always answers `200 ready`.
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, ...).
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::bind_with(addr, Arc::new(|| Ok(())))
    }

    /// Like [`bind`](Self::bind), with a readiness check backing `/readyz` —
    /// the serve binary passes the eval server's drain- and admission-aware
    /// probe here.
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, ...) or a failed
    /// thread spawn.
    pub fn bind_with(addr: impl ToSocketAddrs, ready: ReadinessCheck) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        // Requests are cheap (render + one write), so they are served inline
        // on the accept thread; a slow client is bounded by the timeouts
        // rather than wedging the loop forever.
        let accept = AcceptLoop::spawn(listener, "gcnrl-metrics-http", move |mut stream, _| {
            let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
            serve_request(&mut stream, &ready);
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

/// Extracts the request path (without query string) from the first line of
/// an HTTP/1.1 request head; `None` when the head is malformed.
fn request_path(head: &[u8]) -> Option<String> {
    let head = std::str::from_utf8(head).ok()?;
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let _method = parts.next()?;
    let target = parts.next()?;
    Some(
        target
            .split_once('?')
            .map_or(target, |(path, _)| path)
            .to_owned(),
    )
}

/// Reads the request head, routes on the path, and writes one HTTP/1.1
/// response. Transport errors are ignored (the scraper retries next
/// interval).
fn serve_request(stream: &mut TcpStream, ready: &ReadinessCheck) {
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    // Best-effort: stop at the blank line ending the request head, on EOF,
    // on timeout, or once an ill-behaved client has sent 64 KiB of headers.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 64 * 1024 {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
        }
    }
    let path = request_path(&head).unwrap_or_else(|| "/".to_owned());
    const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
    const TEXT: &str = "text/plain; charset=utf-8";
    const JSON: &str = "application/json";
    let (status, content_type, body) = match path.as_str() {
        "/metrics" | "/" => (
            "200 OK",
            PROM,
            gcnrl_telemetry::global().render_prometheus(),
        ),
        "/healthz" => ("200 OK", TEXT, "ok\n".to_owned()),
        "/readyz" => match ready() {
            Ok(()) => ("200 OK", TEXT, "ready\n".to_owned()),
            Err(reason) => ("503 Service Unavailable", TEXT, format!("{reason}\n")),
        },
        "/traces" => ("200 OK", JSON, gcnrl_telemetry::recent_traces_json()),
        _ => (
            "404 Not Found",
            TEXT,
            format!("no such resource: {path}\nknown: /metrics /healthz /readyz /traces\n"),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\
         \r\n\
         {body}",
        body.len(),
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Issues one `GET` for `path` against `addr` and returns the raw
    /// response text.
    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
            .expect("send request");
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .expect("read response (Connection: close)");
        response
    }

    #[test]
    fn scrapes_return_the_global_registry_in_prometheus_text_format() {
        gcnrl_telemetry::global()
            .counter("serve.metrics_http.test_counter")
            .add(5);
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
            response.contains("serve_metrics_http_test_counter 5"),
            "{response}"
        );
        assert!(
            response.contains("# TYPE serve_metrics_http_test_counter counter"),
            "{response}"
        );
        assert!(
            response.contains("# HELP serve_metrics_http_test_counter"),
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
        assert!(again.contains("serve_metrics_http_test_counter"), "{again}");
        server.shutdown();
        // Idempotent shutdown; further connections are refused or unserved.
        server.shutdown();
    }

    #[test]
    fn health_ready_traces_and_404_routes_answer_distinctly() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let flag = Arc::new(AtomicBool::new(true));
        let probe = Arc::clone(&flag);
        let server = MetricsHttpServer::bind_with(
            "127.0.0.1:0",
            Arc::new(move || {
                if probe.load(Ordering::SeqCst) {
                    Ok(())
                } else {
                    Err("draining: 3 requests in flight".to_owned())
                }
            }),
        )
        .expect("bind metrics endpoint");
        let addr = server.local_addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");

        let ready = get(addr, "/readyz");
        assert!(ready.starts_with("HTTP/1.1 200 OK\r\n"), "{ready}");
        assert!(ready.ends_with("ready\n"), "{ready}");
        flag.store(false, Ordering::SeqCst);
        let not_ready = get(addr, "/readyz?verbose=1");
        assert!(
            not_ready.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{not_ready}"
        );
        assert!(not_ready.contains("draining: 3 requests"), "{not_ready}");

        let traces = get(addr, "/traces");
        assert!(traces.starts_with("HTTP/1.1 200 OK\r\n"), "{traces}");
        assert!(
            traces.contains("Content-Type: application/json"),
            "{traces}"
        );
        let body = traces.split("\r\n\r\n").nth(1).expect("body");
        assert!(body.starts_with('['), "a JSON array: {traces}");

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
        server.shutdown();
    }
}
