//! Strict HTTP/1.1 request parsing and response writing.
//!
//! Network input is adversarial, so the parser is deliberately small and
//! strict: `Content-Length` bodies only (no chunked transfer coding),
//! bounded head/body/header-count limits, and a typed error for every way
//! a request can go wrong. The contract — enforced by the property tests
//! in `tests/http_parser.rs` — is that arbitrary bytes, arbitrarily
//! fragmented or cut, **never panic** the parser: every input either
//! yields a request, a clean close, or an [`HttpError`] that maps to
//! `400`/`408`/`413` (or a silent close for idle timeouts and IO faults).

use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

/// Request/response header carrying the 128-bit trace id (1–32 hex chars;
/// echoed on every response so callers can join outcomes to
/// `/debug/trace`). Lowercase because the parser lowercases header names.
pub const TRACE_ID_HEADER: &str = "x-mb-trace-id";
/// Request header carrying the caller's innermost span id (decimal u64),
/// recorded as the parent of the server's `serve.request` span.
pub const PARENT_SPAN_HEADER: &str = "x-mb-parent-span";
/// Request header (`1` or `true`) asking the tail sampler to retain the
/// trace even when nothing anomalous happened.
pub const SAMPLED_HEADER: &str = "x-mb-sampled";
/// Request header (any value) opting into an `X-Mb-Server-Timing`
/// response header with the queue/parse/score stage breakdown.
pub const SERVER_TIMING_HEADER: &str = "x-mb-server-timing";
/// Request header carrying the idempotency key of a `POST /v1/feedback`
/// batch. The server dedupes by key within the journal window, so a client
/// may safely retry an ambiguous mid-response failure. Overrides the
/// body's `"key"` field when present.
pub const IDEMPOTENCY_HEADER: &str = "x-mb-idempotency-key";

/// Parser resource bounds. Defaults are generous for scoring payloads and
/// small enough that a hostile peer cannot balloon per-connection memory.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum bytes of request line + headers (including CRLFs).
    pub max_head_bytes: usize,
    /// Maximum `Content-Length` a request may declare.
    pub max_body_bytes: usize,
    /// Maximum number of header lines.
    pub max_headers: usize,
    /// Wall-clock cap on reading one whole request (head + body), measured
    /// from its first byte. Per-`read` socket timeouts only bound silence;
    /// this bounds a slowloris peer that drips one byte per timeout window
    /// and would otherwise pin a worker indefinitely.
    pub max_request_wall: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 256 * 1024,
            max_headers: 64,
            max_request_wall: Duration::from_secs(10),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, as sent (e.g. `GET`).
    pub method: String,
    /// Full request target (path plus optional `?query`).
    pub target: String,
    /// Headers with names lowercased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` bytes; empty without the header).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl HttpRequest {
    /// The target with any `?query` suffix removed.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// First header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First `?key=value` query parameter with this name, unescaped as-is.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        let query = self.target.split_once('?')?.1;
        query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }
}

/// Everything that can go wrong while reading one request.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request (syntax, truncation mid-message, unsupported
    /// framing). Answer `400` and close.
    BadRequest(&'static str),
    /// Head or declared body over the configured limits. Answer `413`.
    TooLarge(&'static str),
    /// The socket read timed out. `mid_request` distinguishes a stalled
    /// partial request (answer `408`) from an idle keep-alive connection
    /// (close silently).
    Timeout {
        /// True when bytes of an unfinished request had already arrived.
        mid_request: bool,
    },
    /// Reading one request exceeded [`Limits::max_request_wall`] — the
    /// slowloris shape, where bytes keep trickling in but the request never
    /// completes. Answer `408` and close.
    SlowRequest,
    /// The connection failed at the IO layer; close without a response.
    Io(std::io::Error),
}

impl HttpError {
    /// The status code to answer with, or `None` when the connection
    /// should simply close (idle timeout, dead socket).
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::BadRequest(_) => Some(400),
            HttpError::TooLarge(_) => Some(413),
            HttpError::Timeout { mid_request: true } | HttpError::SlowRequest => Some(408),
            HttpError::Timeout { mid_request: false } | HttpError::Io(_) => None,
        }
    }

    /// Human-readable detail for the error body.
    pub fn detail(&self) -> &'static str {
        match self {
            HttpError::BadRequest(d) | HttpError::TooLarge(d) => d,
            HttpError::Timeout { .. } => "request timed out",
            HttpError::SlowRequest => "request read exceeded the wall-clock limit",
            HttpError::Io(_) => "connection error",
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(d) => write!(f, "bad request: {d}"),
            HttpError::TooLarge(d) => write!(f, "request too large: {d}"),
            HttpError::Timeout { mid_request } => {
                write!(f, "timeout (mid_request: {mid_request})")
            }
            HttpError::SlowRequest => f.write_str("request read exceeded the wall-clock limit"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

/// Incremental request reader over any byte stream. Buffers leftovers
/// between calls, so pipelined requests parse correctly. Heads are read
/// through a small buffer; a body is read straight into the request's own
/// `Vec`, so its bytes are copied once, and never past its declared end.
pub struct RequestReader<R> {
    inner: R,
    buf: Vec<u8>,
    limits: Limits,
    /// When the first byte of the request currently being read arrived;
    /// cleared once the request completes. Drives the slowloris wall cap.
    started: Option<Instant>,
    /// `started` of the most recently *completed* request — the anchor for
    /// per-request deadline math in the server.
    last_started: Option<Instant>,
}

impl<R: Read> RequestReader<R> {
    /// Wrap `inner` with the given limits.
    pub fn new(inner: R, limits: Limits) -> Self {
        Self {
            inner,
            buf: Vec::with_capacity(1024),
            limits,
            started: None,
            last_started: None,
        }
    }

    /// When the first byte of the most recently returned request arrived
    /// (as observed by this reader). `None` before any request completes.
    pub fn last_request_started(&self) -> Option<Instant> {
        self.last_started
    }

    /// Fail with [`HttpError::SlowRequest`] once the in-progress request
    /// has been trickling in longer than the wall cap.
    fn check_wall(&self) -> Result<(), HttpError> {
        match self.started {
            Some(t0) if t0.elapsed() > self.limits.max_request_wall => Err(HttpError::SlowRequest),
            _ => Ok(()),
        }
    }

    /// A full request just left the buffer: remember its start time and
    /// re-anchor `started` for any pipelined bytes already buffered.
    fn finish_request(&mut self) {
        self.last_started = self.started.take();
        if !self.buf.is_empty() {
            self.started = Some(Instant::now());
        }
    }

    /// Read one request. `Ok(None)` means the peer closed cleanly between
    /// requests (normal end of a keep-alive session).
    pub fn next_request(&mut self) -> Result<Option<HttpRequest>, HttpError> {
        if !self.buf.is_empty() && self.started.is_none() {
            self.started = Some(Instant::now());
        }
        // Accumulate until the blank line ending the head.
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            if self.buf.len() >= self.limits.max_head_bytes {
                return Err(HttpError::TooLarge("request head over limit"));
            }
            self.check_wall()?;
            if self.fill()? == 0 {
                return if self.buf.is_empty() {
                    Ok(None)
                } else {
                    Err(HttpError::BadRequest("connection closed mid-head"))
                };
            }
        };
        if head_end > self.limits.max_head_bytes {
            return Err(HttpError::TooLarge("request head over limit"));
        }

        let mut req = parse_head(&self.buf[..head_end - 4], &self.limits)?;
        // Checked against `max_body_bytes` before anything is allocated.
        let body_len = body_length(&req, &self.limits)?;
        self.buf.drain(..head_end);

        // Body bytes that arrived with the head move in first; the rest is
        // read from the socket straight into place, at most up to the
        // body's end, so pipelined bytes after it stay in the socket.
        let buffered = self.buf.len().min(body_len);
        let mut body = Vec::with_capacity(body_len);
        body.extend_from_slice(&self.buf[..buffered]);
        self.buf.drain(..buffered);
        body.resize(body_len, 0);
        let mut filled = buffered;
        while filled < body_len {
            self.check_wall()?;
            match self.read_once(&mut body[filled..], true)? {
                0 => return Err(HttpError::BadRequest("connection closed mid-body")),
                n => filled += n,
            }
        }
        req.body = body;
        self.finish_request();
        Ok(Some(req))
    }

    /// Pop one more *already-buffered* pipelined request, without touching
    /// the socket. Returns the request only when a complete head + body is
    /// sitting in the buffer **and** `accept` (which sees the parsed head
    /// with an empty body) approves it; in every other case — incomplete
    /// bytes, a parse error, or a rejected request — the buffer is left
    /// untouched for the next [`RequestReader::next_request`] call to
    /// handle normally.
    ///
    /// This is what makes opportunistic micro-batching safe: the server
    /// can drain a burst of pipelined `/v1/score` requests into one engine
    /// pass, while anything it does not want to coalesce (other endpoints,
    /// malformed requests, half-arrived bytes) takes the ordinary path
    /// with ordinary error handling.
    pub fn next_buffered_if(
        &mut self,
        accept: impl FnOnce(&HttpRequest) -> bool,
    ) -> Option<HttpRequest> {
        let head_end = find(&self.buf, b"\r\n\r\n")? + 4;
        if head_end > self.limits.max_head_bytes {
            return None;
        }
        let mut req = parse_head(&self.buf[..head_end - 4], &self.limits).ok()?;
        let body_len = body_length(&req, &self.limits).ok()?;
        if self.buf.len() < head_end + body_len {
            return None;
        }
        if !accept(&req) {
            return None;
        }
        req.body = self.buf[head_end..head_end + body_len].to_vec();
        self.buf.drain(..head_end + body_len);
        self.finish_request();
        Some(req)
    }

    /// One `read` into the buffer; a timeout is mid-request iff bytes are
    /// already pending.
    fn fill(&mut self) -> Result<usize, HttpError> {
        let mut chunk = [0u8; 4096];
        let n = self.read_once(&mut chunk, !self.buf.is_empty())?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// One `read` into `dst`, retrying EINTR; a timeout maps to
    /// [`HttpError::Timeout`] with the given `mid_request`.
    fn read_once(&mut self, dst: &mut [u8], mid_request: bool) -> Result<usize, HttpError> {
        loop {
            match self.inner.read(dst) {
                Ok(n) => {
                    if n > 0 && self.started.is_none() {
                        self.started = Some(Instant::now());
                    }
                    return Ok(n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(HttpError::Timeout { mid_request })
                }
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
    }
}

/// First offset of `needle` in `haystack`.
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// RFC 9110 `token` characters (header names, methods).
fn is_token_byte(b: u8) -> bool {
    matches!(b,
        b'!' | b'#' | b'$' | b'%' | b'&' | b'\'' | b'*' | b'+' | b'-' | b'.' | b'^' | b'_'
        | b'`' | b'|' | b'~' | b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z')
}

/// Parse request line + headers (the bytes before the blank line).
fn parse_head(head: &[u8], limits: &Limits) -> Result<HttpRequest, HttpError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| HttpError::BadRequest("request head is not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or(HttpError::BadRequest("empty request head"))?;

    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::BadRequest("malformed request line")),
    };
    if !method.bytes().all(is_token_byte) {
        return Err(HttpError::BadRequest("malformed method"));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(
            "request target must be absolute path",
        ));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::BadRequest("unsupported HTTP version")),
    };

    let mut headers = Vec::new();
    for line in lines {
        if headers.len() >= limits.max_headers {
            return Err(HttpError::TooLarge("too many headers"));
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            return Err(HttpError::BadRequest("obsolete header folding"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::BadRequest("malformed header line"))?;
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(HttpError::BadRequest("malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some(v) if v.split(',').any(|t| t.trim() == "close") => false,
        Some(v) if v.split(',').any(|t| t.trim() == "keep-alive") => true,
        _ => http11,
    };

    Ok(HttpRequest {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body: Vec::new(),
        keep_alive,
    })
}

/// Validate framing headers and return the declared body length.
fn body_length(req: &HttpRequest, limits: &Limits) -> Result<usize, HttpError> {
    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::BadRequest(
            "transfer-encoding unsupported (use content-length)",
        ));
    }
    let mut declared: Option<u64> = None;
    for (name, value) in &req.headers {
        if name != "content-length" {
            continue;
        }
        let parsed: u64 = value
            .parse()
            .map_err(|_| HttpError::BadRequest("malformed content-length"))?;
        match declared {
            Some(prev) if prev != parsed => {
                return Err(HttpError::BadRequest("conflicting content-length headers"))
            }
            _ => declared = Some(parsed),
        }
    }
    let len = declared.unwrap_or(0);
    if len > limits.max_body_bytes as u64 {
        return Err(HttpError::TooLarge("request body over limit"));
    }
    Ok(len as usize)
}

// --- responses -----------------------------------------------------------

/// A response ready to serialize: status, body, and framing headers.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Optional `Retry-After` seconds (backpressure rejections).
    pub retry_after: Option<u32>,
    /// Extra response headers (trace id echo, `X-Mb-Server-Timing`).
    /// Names must be valid header tokens; values must be CRLF-free.
    pub extra_headers: Vec<(&'static str, String)>,
    /// Whether to answer `Connection: close` and end the session.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
            extra_headers: Vec::new(),
            close: false,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            retry_after: None,
            extra_headers: Vec::new(),
            close: false,
        }
    }

    /// Set `Retry-After` (seconds).
    pub fn retry_after(mut self, secs: u32) -> Self {
        self.retry_after = Some(secs);
        self
    }

    /// Mark the connection for closing after this response.
    pub fn closing(mut self) -> Self {
        self.close = true;
        self
    }

    /// Attach an extra response header. The value is sanitized: CR/LF are
    /// replaced with spaces so a hostile echo cannot split the response.
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        let value = if value.contains(['\r', '\n']) {
            value.replace(['\r', '\n'], " ")
        } else {
            value
        };
        self.extra_headers.push((name, value));
        self
    }

    /// Serialize head + body to `w` in one write: a response is one
    /// syscall, not two, and under `TCP_NODELAY` one segment train instead
    /// of a head segment the peer waits on before the body.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut head = String::with_capacity(128 + self.body.len());
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        );
        if let Some(secs) = self.retry_after {
            let _ = write!(head, "Retry-After: {secs}\r\n");
        }
        for (name, value) in &self.extra_headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        w.write_all(&out)?;
        w.flush()
    }
}

/// Reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// The response (if any) for a parse error: `None` means close silently.
/// Bodies are coded [`ErrorEnvelope`]s like every other non-2xx response.
///
/// [`ErrorEnvelope`]: microbrowse_api::v1::ErrorEnvelope
pub fn error_response(err: &HttpError) -> Option<Response> {
    use microbrowse_api::v1::{self, ErrorEnvelope};
    let status = err.status()?;
    let code = match status {
        400 => v1::CODE_BAD_REQUEST,
        413 => v1::CODE_TOO_LARGE,
        _ => v1::CODE_TIMEOUT,
    };
    let body = ErrorEnvelope::with_code(err.detail(), code).to_json();
    Some(Response::json(status, body).closing())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(input: &[u8]) -> Result<Option<HttpRequest>, HttpError> {
        RequestReader::new(input, Limits::default()).next_request()
    }

    #[test]
    fn parses_get_and_post() {
        let req = read_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/healthz");
        assert!(req.keep_alive);
        assert!(req.body.is_empty());

        let req = read_all(b"POST /v1/score HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.header("content-length"), Some("4"));
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let bytes = b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nxyGET /b HTTP/1.1\r\n\r\n";
        let mut reader = RequestReader::new(&bytes[..], Limits::default());
        let first = reader.next_request().unwrap().unwrap();
        assert_eq!((first.path(), first.body.as_slice()), ("/a", &b"xy"[..]));
        let second = reader.next_request().unwrap().unwrap();
        assert_eq!(second.path(), "/b");
        assert!(reader.next_request().unwrap().is_none());
    }

    #[test]
    fn buffered_pop_consumes_only_accepted_complete_requests() {
        let bytes = b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nxy\
                      POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nzw\
                      GET /b HTTP/1.1\r\n\r\n\
                      POST /a HTTP/1.1\r\nContent-Length: 9\r\n\r\ntrunc";
        let mut reader = RequestReader::new(&bytes[..], Limits::default());
        // Prime the buffer through the normal path.
        let first = reader.next_request().unwrap().unwrap();
        assert_eq!(first.body, b"xy");
        // Second /a is complete and accepted.
        let second = reader.next_buffered_if(|r| r.path() == "/a").unwrap();
        assert_eq!(second.body, b"zw");
        // /b is complete but rejected by the predicate: left in place…
        assert!(reader.next_buffered_if(|r| r.path() == "/a").is_none());
        // …and still served by the ordinary path.
        let third = reader.next_request().unwrap().unwrap();
        assert_eq!(third.path(), "/b");
        // The truncated request is never popped from the buffer alone.
        assert!(reader.next_buffered_if(|_| true).is_none());
        assert!(matches!(
            reader.next_request(),
            Err(HttpError::BadRequest(_))
        ));
    }

    /// Delivers `data` at most `chunk` bytes per read and shares how far
    /// the reader has consumed it.
    struct Chunked {
        data: Vec<u8>,
        pos: std::rc::Rc<std::cell::Cell<usize>>,
        chunk: usize,
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let at = self.pos.get();
            let n = buf.len().min(self.chunk).min(self.data.len() - at);
            buf[..n].copy_from_slice(&self.data[at..at + n]);
            self.pos.set(at + n);
            Ok(n)
        }
    }

    #[test]
    fn body_is_read_in_place_and_never_past_its_end() {
        let head = b"POST /a HTTP/1.1\r\nContent-Length: 40\r\n\r\n";
        let body = b"0123456789abcdefghijklmnopqrstuvwxyzABCD";
        let next = b"GET /b HTTP/1.1\r\n\r\n";
        for chunk in [1, 7, 64, 4096] {
            let pos = std::rc::Rc::new(std::cell::Cell::new(0));
            let data = [&head[..], &body[..], &next[..]].concat();
            let stream = Chunked {
                data,
                pos: pos.clone(),
                chunk,
            };
            let mut reader = RequestReader::new(stream, Limits::default());
            let first = reader.next_request().unwrap().unwrap();
            assert_eq!(first.body, body, "chunk {chunk}");
            if chunk < head.len() + body.len() {
                // Only the head read may run ahead, and only into the body.
                assert_eq!(pos.get(), head.len() + body.len(), "chunk {chunk}");
            }
            let second = reader.next_request().unwrap().unwrap();
            assert_eq!(second.path(), "/b", "chunk {chunk}");
            assert!(reader.next_request().unwrap().is_none());
        }
    }

    #[test]
    fn clean_eof_and_truncations() {
        assert!(read_all(b"").unwrap().is_none());
        assert!(matches!(
            read_all(b"GET / HTTP/1.1\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            read_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn rejects_bad_framing() {
        for (bytes, want_413) in [
            (&b"GET / HTTP/2\r\n\r\n"[..], false),
            (&b"GET /\r\n\r\n"[..], false),
            (&b"GET relative HTTP/1.1\r\n\r\n"[..], false),
            (&b"GET / HTTP/1.1\r\nbad header\r\n\r\n"[..], false),
            (&b"GET / HTTP/1.1\r\n folded: x\r\n\r\n"[..], false),
            (
                &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
                false,
            ),
            (
                &b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
                false,
            ),
            (
                &b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n"[..],
                false,
            ),
            (
                &b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"[..],
                true,
            ),
        ] {
            let got = read_all(bytes);
            match got {
                Err(HttpError::BadRequest(_)) if !want_413 => {}
                Err(HttpError::TooLarge(_)) if want_413 => {}
                other => panic!("{:?} -> {:?}", String::from_utf8_lossy(bytes), other),
            }
        }
    }

    #[test]
    fn oversized_head_is_413() {
        let mut bytes = b"GET / HTTP/1.1\r\n".to_vec();
        bytes.extend(vec![b'a'; Limits::default().max_head_bytes]);
        assert!(matches!(read_all(&bytes), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let req = read_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
        let req = read_all(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
        let req = read_all(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn responses_serialize_with_framing() {
        let mut out = Vec::new();
        Response::json(200, "{}".into()).write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        Response::text(503, "busy".into())
            .retry_after(1)
            .closing()
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    /// Records every `write` call's bytes.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write() {
        let resp = Response::json(200, "{\"score\":1.5}".to_owned())
            .with_header("X-Mb-Trace-Id", "abc123".to_owned())
            .retry_after(2);
        let mut writes = Writes::default();
        resp.write_to(&mut writes).unwrap();
        let want = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                    Content-Length: 13\r\nConnection: keep-alive\r\nRetry-After: 2\r\n\
                    X-Mb-Trace-Id: abc123\r\n\r\n{\"score\":1.5}";
        assert_eq!(writes.0, [want.as_bytes()]);
    }

    /// Delivers `data` one byte per read, sleeping `delay` before each —
    /// the slowloris shape over an in-memory stream.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        delay: Duration,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            std::thread::sleep(self.delay);
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn slow_request_hits_wall_clock_cap() {
        let limits = Limits {
            max_request_wall: Duration::from_millis(40),
            ..Limits::default()
        };
        let trickle = Trickle {
            data: b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
            pos: 0,
            delay: Duration::from_millis(10),
        };
        let mut reader = RequestReader::new(trickle, limits);
        assert!(matches!(reader.next_request(), Err(HttpError::SlowRequest)));
    }

    #[test]
    fn fast_request_is_untouched_by_wall_cap_and_stamps_start() {
        let limits = Limits {
            max_request_wall: Duration::from_millis(500),
            ..Limits::default()
        };
        let trickle = Trickle {
            data: b"GET / HTTP/1.1\r\n\r\n".to_vec(),
            pos: 0,
            delay: Duration::from_millis(1),
        };
        let mut reader = RequestReader::new(trickle, limits);
        assert!(reader.last_request_started().is_none());
        let req = reader.next_request().unwrap().unwrap();
        assert_eq!(req.path(), "/");
        let started = reader.last_request_started().expect("start stamped");
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn error_responses_map_statuses() {
        assert_eq!(
            error_response(&HttpError::BadRequest("x")).map(|r| r.status),
            Some(400)
        );
        assert_eq!(
            error_response(&HttpError::TooLarge("x")).map(|r| r.status),
            Some(413)
        );
        assert_eq!(
            error_response(&HttpError::Timeout { mid_request: true }).map(|r| r.status),
            Some(408)
        );
        assert_eq!(
            error_response(&HttpError::SlowRequest).map(|r| r.status),
            Some(408)
        );
        assert!(error_response(&HttpError::Timeout { mid_request: false }).is_none());
        assert!(error_response(&HttpError::Io(std::io::Error::other("x"))).is_none());
        // Every answered parse error carries a machine-readable code.
        let body = error_response(&HttpError::SlowRequest).unwrap().body;
        let env =
            microbrowse_api::v1::ErrorEnvelope::from_json(std::str::from_utf8(&body).unwrap())
                .unwrap();
        assert!(env.has_code(microbrowse_api::v1::CODE_TIMEOUT));
    }

    #[test]
    fn query_params_parse_without_touching_path() {
        let req = read_all(b"GET /debug/trace?last=5&raw HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path(), "/debug/trace");
        assert_eq!(req.query_param("last"), Some("5"));
        assert_eq!(req.query_param("raw"), Some(""));
        assert_eq!(req.query_param("missing"), None);
        let bare = read_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(bare.query_param("last"), None);
    }

    #[test]
    fn extra_headers_are_written_and_sanitized() {
        let resp = Response::json(200, "{}".to_owned())
            .with_header("X-Mb-Trace-Id", "abc123".to_owned())
            .with_header("X-Mb-Server-Timing", "evil\r\nInjected: 1".to_owned());
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("X-Mb-Trace-Id: abc123\r\n"), "{text}");
        assert!(
            text.contains("X-Mb-Server-Timing: evil  Injected: 1\r\n"),
            "{text}"
        );
        assert!(
            !text.contains("\r\nInjected:"),
            "header splitting must be impossible"
        );
    }
}
