//! Minimal HTTP/1.1 observability plane, multiplexed onto the job
//! protocol's listener.
//!
//! The binary protocol frames every request with a `u32` little-endian
//! length prefix; an HTTP request starts with `GET ` (0x47 0x45 0x54
//! 0x20 — as a length that would be a ~542 MB frame, far past any sane
//! [`ServerConfig::max_frame_bytes`](crate::net::ServerConfig)). The
//! session loop sniffs those 4 bytes and hands the connection here, so
//! one port serves both `curl` and the binary client.
//!
//! Endpoints:
//!
//! | path | response |
//! |---|---|
//! | `GET /metrics` | Prometheus text exposition (gauges + histograms) |
//! | `GET /healthz` | `200 ok` while accepting, `503 draining` during shutdown |
//! | `GET /debug/jobs` | JSON: in-flight jobs + recent slow-job reports |
//! | `GET /debug/journal` | JSONL lifecycle events; `?trace=<hex id>` filters |
//!
//! The parser is deliberately small: request line + headers up to 8 KiB,
//! no bodies, keep-alive honored until the client says `close` (or
//! sends HTTP/1.0). Anything else is a 4xx and the connection closes —
//! this is an operator plane, not a web server.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use st_obs::TraceId;

use crate::net::server::{read_some_interruptible, Gulp};
use crate::service::Service;
use crate::telemetry::json_escape;

/// Ceiling on one request head (request line + headers). Operator
/// tooling stays tiny; anything larger is hostile or lost.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Serves HTTP on a connection whose first 4 bytes (`prefix`) were
/// already consumed by the frame-header sniff. Returns when the client
/// closes, an error occurs, or the server drains.
pub(crate) fn serve_http(
    service: &Arc<Service>,
    mut stream: TcpStream,
    prefix: [u8; 4],
    shutdown: &AtomicBool,
) {
    let mut buf: Vec<u8> = prefix.to_vec();
    loop {
        // Accumulate one request head (everything through "\r\n\r\n").
        let head_end = loop {
            if let Some(end) = find_head_end(&buf) {
                break end;
            }
            if buf.len() > MAX_HEAD_BYTES {
                reject(
                    &mut stream,
                    "431 Request Header Fields Too Large",
                    b"request head too large\n",
                );
                return;
            }
            match read_some_interruptible(&mut stream, &mut buf, shutdown) {
                Ok(Gulp::Data) => {}
                Ok(Gulp::Eof | Gulp::Shutdown) | Err(_) => return,
            }
        };
        let head = match std::str::from_utf8(&buf[..head_end]) {
            Ok(h) => h,
            Err(_) => {
                reject(&mut stream, "400 Bad Request", b"non-UTF-8 request head\n");
                return;
            }
        };
        let Some(req) = parse_head(head) else {
            reject(&mut stream, "400 Bad Request", b"malformed request line\n");
            return;
        };
        // No request bodies on this plane: a Content-Length (or chunked
        // upload) would desynchronize the next head, so refuse it.
        if req.has_body {
            reject(
                &mut stream,
                "400 Bad Request",
                b"request bodies are not accepted\n",
            );
            return;
        }
        let close = req.close;
        let (status, content_type, body) = route(service, req.method, req.target);
        if write_response(&mut stream, status, content_type, body.as_bytes(), close).is_err()
            || close
        {
            return;
        }
        // Drop the consumed head; pipelined bytes (rare but legal)
        // stay for the next iteration.
        buf.drain(..head_end);
    }
}

/// Byte offset one past the `\r\n\r\n` terminating the head, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

struct Request<'a> {
    method: &'a str,
    target: &'a str,
    /// Client asked to close (or spoke HTTP/1.0, where close is the
    /// default).
    close: bool,
    /// Request announces a body (Content-Length > 0 or chunked).
    has_body: bool,
}

/// Parses request line + the two headers this plane cares about.
fn parse_head(head: &str) -> Option<Request<'_>> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next()?;
    let mut parts = request_line.split(' ');
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return None;
    }
    let mut close = version == "HTTP/1.0";
    let mut has_body = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            has_body = value.parse::<u64>().map(|n| n > 0).unwrap_or(true);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            has_body = true;
        }
    }
    Some(Request {
        method,
        target,
        close,
        has_body,
    })
}

/// Resolves one request to `(status line, content type, body)`.
fn route(
    service: &Arc<Service>,
    method: &str,
    target: &str,
) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_owned(),
        );
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    match path {
        "/metrics" => (
            "200 OK",
            // The standard Prometheus exposition content type.
            "text/plain; version=0.0.4; charset=utf-8",
            service.render_metrics(),
        ),
        "/healthz" => {
            if service.is_accepting() {
                ("200 OK", "text/plain; charset=utf-8", "ok\n".to_owned())
            } else {
                (
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    "draining\n".to_owned(),
                )
            }
        }
        "/debug/jobs" => {
            let t = service.telemetry();
            let body = format!(
                "{{\"inflight\":{},\"slow\":{},\"slow_threshold_ns\":{}}}",
                t.inflight_json(),
                t.slow_jobs_json(),
                t.slow_threshold_ns()
            );
            ("200 OK", "application/json", body)
        }
        "/debug/journal" => {
            let filter = match query.and_then(trace_filter) {
                Some(Err(())) => {
                    return (
                        "400 Bad Request",
                        "text/plain; charset=utf-8",
                        "trace filter must be a hex trace id\n".to_owned(),
                    )
                }
                Some(Ok(id)) => Some(id),
                None => None,
            };
            (
                "200 OK",
                "application/x-ndjson",
                service.telemetry().journal().to_jsonl(filter),
            )
        }
        _ => (
            "404 Not Found",
            "application/json",
            format!(
                "{{\"error\":\"no such endpoint\",\"path\":\"{}\",\"endpoints\":[\"/metrics\",\"/healthz\",\"/debug/jobs\",\"/debug/journal\"]}}",
                json_escape(path)
            ),
        ),
    }
}

/// Extracts a `trace=<hex>` query parameter: `None` when absent,
/// `Some(Err(()))` when present but unparsable.
fn trace_filter(query: &str) -> Option<Result<TraceId, ()>> {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix("trace="))
        .map(|v| u64::from_str_radix(v, 16).map(TraceId).map_err(drop))
}

/// Writes a closing 4xx response, then lingers: shuts down the write
/// side and drains (bounded) what the client already sent. Closing
/// while unread request bytes sit in the receive buffer makes the
/// kernel answer with RST, which can destroy the response still in
/// flight — the client would see a reset instead of the status line.
fn reject(stream: &mut TcpStream, status: &str, body: &[u8]) {
    if write_response(stream, status, "text/plain; charset=utf-8", body, true).is_err() {
        return;
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    let mut drained = 0usize;
    // The session's 150 ms read timeout bounds each read; the byte cap
    // bounds a hostile sender that keeps streaming.
    while drained < 64 * 1024 {
        match std::io::Read::read(stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Writes one HTTP/1.1 response with an explicit Content-Length.
///
/// Head and body go out in one write: split writes let Nagle hold the
/// body back behind the peer's delayed ACK, and a client that reads
/// once after the head sees a response with no body.
fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    let mut response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    response.extend_from_slice(body);
    stream.write_all(&response)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }

    #[test]
    fn parses_request_line_and_connection() {
        let r = parse_head("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.target, "/metrics");
        assert!(!r.close);
        assert!(!r.has_body);

        let r = parse_head("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(r.close, "HTTP/1.0 defaults to close");

        let r = parse_head("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(r.close);

        let r = parse_head("POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\n").unwrap();
        assert!(r.has_body);

        assert!(parse_head("GARBAGE\r\n\r\n").is_none());
        assert!(parse_head("GET / HTTP/2\r\n\r\n").is_none());
    }

    #[test]
    fn trace_filter_parses_hex() {
        assert_eq!(trace_filter("trace=2a"), Some(Ok(TraceId(0x2a))));
        assert_eq!(
            trace_filter("a=1&trace=00000000000000ff"),
            Some(Ok(TraceId(0xff)))
        );
        assert_eq!(trace_filter("other=1"), None);
        assert_eq!(trace_filter("trace=zz"), Some(Err(())));
    }
}
