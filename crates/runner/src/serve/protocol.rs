//! Minimal HTTP/1.1 framing over `std::net`, hand-rolled (no deps).
//!
//! The daemon speaks just enough HTTP to be driven by `curl` and by
//! the `submit`/`status` client subcommands: request line, headers,
//! optional `Content-Length` body, `Connection: close` responses. The
//! robustness properties live here:
//!
//! * **Read/parse deadline** — the whole request (line, headers, and
//!   body) must arrive within `read_timeout_ms`, enforced both by the
//!   socket read timeout and by an overall elapsed-time check, so a
//!   slow-loris client trickling one byte per read still gets cut off;
//! * **Size limits** — the header block is capped at
//!   [`MAX_HEAD_BYTES`] and the body at the policy's
//!   `max_body_bytes`; both are rejected *before* buffering the
//!   excess;
//! * **Strict framing** — anything that is not a well-formed
//!   `METHOD target HTTP/1.1` request with parseable headers is a
//!   typed [`ProtocolError::Malformed`], answered with a 400 and a
//!   closed connection, never an interpretation guess.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Cap on the request line plus headers. Generous for the tiny
/// protocol the daemon speaks; a client that needs more is broken.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/submit` or `/status/job0001`.
    pub target: String,
    /// Header name/value pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of the named header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a connection's request could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The peer closed the connection before a full request arrived.
    Closed,
    /// The bytes on the wire are not a well-formed HTTP/1.1 request.
    Malformed(String),
    /// Header block or declared body exceeds the configured limit.
    TooLarge(&'static str),
    /// The read/parse deadline elapsed before the request completed.
    Timeout,
    /// Transport-level failure reading or writing the socket.
    Io(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Closed => write!(f, "connection closed mid-request"),
            ProtocolError::Malformed(why) => write!(f, "malformed request: {why}"),
            ProtocolError::TooLarge(what) => write!(f, "request too large: {what}"),
            ProtocolError::Timeout => write!(f, "read deadline elapsed"),
            ProtocolError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

fn io_error(e: std::io::Error) -> ProtocolError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ProtocolError::Timeout,
        _ => ProtocolError::Io(e.to_string()),
    }
}

/// Read one request from `stream`, enforcing the deadline and the
/// body-size cap. The socket's read timeout is (re)armed here.
pub fn read_request(
    stream: &mut TcpStream,
    read_timeout_ms: u64,
    max_body_bytes: usize,
) -> Result<Request, ProtocolError> {
    let deadline = Duration::from_millis(read_timeout_ms);
    let started = Instant::now();
    // Per-read timeout; combined with the elapsed check below it also
    // bounds the total time a trickling client can hold the handler.
    stream
        .set_read_timeout(Some(deadline))
        .map_err(|e| ProtocolError::Io(e.to_string()))?;

    // --- head: accumulate until the blank line ----------------------
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        // A head that ends past the cap is as oversized as one that
        // has not ended yet.
        if let Some(pos) = find_head_end(&buf).filter(|&pos| pos <= MAX_HEAD_BYTES) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ProtocolError::TooLarge("header block"));
        }
        if started.elapsed() > deadline {
            return Err(ProtocolError::Timeout);
        }
        let n = stream.read(&mut chunk).map_err(io_error)?;
        if n == 0 {
            return Err(if buf.is_empty() {
                ProtocolError::Closed
            } else {
                ProtocolError::Malformed("connection closed inside the header block".into())
            });
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ProtocolError::Malformed("header block is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(ProtocolError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ProtocolError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ProtocolError::Malformed(format!(
                "bad header line {line:?}"
            )));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // --- body: exactly Content-Length bytes, within the cap ---------
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0usize,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| ProtocolError::Malformed(format!("bad content-length {v:?}")))?,
    };
    if content_length > max_body_bytes {
        return Err(ProtocolError::TooLarge("body"));
    }
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        return Err(ProtocolError::Malformed(
            "more body bytes than content-length declared".into(),
        ));
    }
    while body.len() < content_length {
        if started.elapsed() > deadline {
            return Err(ProtocolError::Timeout);
        }
        let n = stream.read(&mut chunk).map_err(io_error)?;
        if n == 0 {
            return Err(ProtocolError::Malformed(
                "connection closed inside the body".into(),
            ));
        }
        if body.len() + n > content_length {
            return Err(ProtocolError::Malformed(
                "more body bytes than content-length declared".into(),
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }

    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response about to be written. Always `Connection: close`: the
/// protocol is strictly one request per connection, which keeps the
/// accept loop's bookkeeping trivial and leak-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the framing ones (name, value).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".into(), "text/plain".into())],
            body: body.into().into_bytes(),
        }
    }

    /// Attach a `Retry-After` header (seconds, rounded up from ms and
    /// at least 1 — the deterministic shed backoff delay).
    pub fn retry_after_ms(mut self, ms: u64) -> Self {
        let secs = ms.div_ceil(1_000).max(1);
        self.headers.push(("Retry-After".into(), secs.to_string()));
        self
    }

    /// Serialize and write the response to `stream`.
    pub fn write(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let reason = reason_phrase(self.status);
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, reason);
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str("Connection: close\r\n\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// A parsed client-side response: `(status, headers, body)`, header
/// names lowercased.
pub type ClientResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// Blocking one-shot HTTP client for the CLI subcommands and tests:
/// connect, send one request, read the full response.
pub fn http_call(
    addr: &str,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    timeout_ms: u64,
) -> std::io::Result<ClientResponse> {
    let timeout = Duration::from_millis(timeout_ms);
    let sock_addr = addr
        .parse::<std::net::SocketAddr>()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut head = format!("{method} {target} HTTP/1.1\r\nHost: {addr}\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> std::io::Result<ClientResponse> {
    let bad = |why: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_string());
    let head_end = find_head_end(raw).ok_or_else(|| bad("no header terminator"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("head not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Ok((status, headers, raw[head_end + 4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &[u8]) -> Result<Request, ProtocolError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let got = read_request(&mut stream, 2_000, 64);
        writer.join().unwrap();
        got
    }

    #[test]
    fn parses_a_wellformed_post() {
        let req =
            roundtrip(b"POST /submit HTTP/1.1\r\nX-Tenant: alice\r\nContent-Length: 4\r\n\r\nbody")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/submit");
        assert_eq!(req.header("x-tenant"), Some("alice"));
        assert_eq!(req.header("X-TENANT"), Some("alice"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn garbage_is_malformed_not_a_panic() {
        for raw in [
            &b"it is wednesday my dudes\r\n\r\n"[..],
            &b"GET\r\n\r\n"[..],
            &b"GET / SPDY/99\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nContent-Length: soup\r\n\r\n"[..],
        ] {
            assert!(
                matches!(roundtrip(raw), Err(ProtocolError::Malformed(_))),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn oversized_bodies_are_rejected_before_buffering() {
        let got = roundtrip(b"POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n");
        assert_eq!(got, Err(ProtocolError::TooLarge("body")));
    }

    #[test]
    fn a_closed_connection_is_distinguished_from_a_slow_one() {
        assert_eq!(roundtrip(b""), Err(ProtocolError::Closed));
    }

    #[test]
    fn a_silent_client_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let holder = std::thread::spawn(move || {
            let s = TcpStream::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(400));
            drop(s);
        });
        let (mut stream, _) = listener.accept().unwrap();
        let got = read_request(&mut stream, 100, 64);
        holder.join().unwrap();
        assert!(
            matches!(
                got,
                Err(ProtocolError::Timeout) | Err(ProtocolError::Closed)
            ),
            "{got:?}"
        );
    }

    #[test]
    fn responses_roundtrip_through_the_client_parser() {
        let resp = Response::json(429, "{\"error\":\"shed\"}".into()).retry_after_ms(1_500);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Drain the request head, then answer.
            let _ = read_request(&mut stream, 1_000, 64);
            resp.write(&mut stream).unwrap();
        });
        let (status, headers, body) =
            http_call(&addr.to_string(), "GET", "/", &[], b"", 2_000).unwrap();
        server.join().unwrap();
        assert_eq!(status, 429);
        assert_eq!(body, b"{\"error\":\"shed\"}");
        let retry = headers.iter().find(|(k, _)| k == "retry-after").unwrap();
        assert_eq!(retry.1, "2", "1500 ms rounds up to 2 s");
    }
}
