//! Minimal blocking HTTP/1.1 client.
//!
//! Exists so the integration tests, the `serve_smoke` gate, and the
//! `bench_serve` load generator can drive the server without external
//! tooling (`curl` is not guaranteed in the build environment). Keep-alive
//! is the default: one [`Client`] holds one connection and reuses it
//! across requests.
//!
//! The typed helpers ([`Client::score`], [`Client::rank`],
//! [`Client::score_batch`], [`Client::suggest`], [`Client::explain`])
//! speak the [`microbrowse_api::v1`] wire types, so callers never assemble
//! or pick apart JSON by hand; 2xx bodies parse into the response structs
//! and everything else comes back as the typed [`ApiError`]. Each is a
//! one-liner over one private generic helper, `Client::call_typed`, which
//! owns the encode → POST → parse round trip once for every endpoint.
//!
//! [`ResilientClient`] wraps the raw client into the failover-ready tier
//! used under overload: jittered exponential-backoff retries (only for
//! failures known to be safe — connect refused, timeouts, request never
//! sent, 5xx answers — never for ambiguous mid-response failures of
//! non-idempotent calls; [`ResilientClient::feedback`] makes its POST
//! idempotent by pinning one `X-Mb-Idempotency-Key` across every attempt,
//! which the server's journal dedupes), a per-call deadline budget that
//! bounds connects,
//! IO, *and* backoff sleeps and is propagated to the server via
//! `X-Mb-Deadline-Ms`, and a closed/open/half-open [`CircuitBreaker`] that
//! stops hammering a peer that has stopped answering.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use microbrowse_obs as obs;

use crate::deadline::DEADLINE_HEADER;
use crate::http::{PARENT_SPAN_HEADER, TRACE_ID_HEADER};

use microbrowse_api::v1::{
    BatchRequest, BatchResponse, ErrorEnvelope, ExplainRequest, ExplainResponse, FeedbackRequest,
    FeedbackResponse, RankRequest, RankResponse, ScoreRequest, ScoreResponse, SuggestRequest,
    SuggestResponse,
};

use crate::http::IDEMPOTENCY_HEADER;

/// A parsed response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body bytes (`Content-Length` framing).
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// First header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A typed request failure: either the transport broke, or the server
/// answered with a non-2xx status (error envelope text included when it
/// parsed).
#[derive(Debug)]
pub enum ApiError {
    /// The request never completed at the IO layer.
    Io(std::io::Error),
    /// The server answered with a non-2xx status.
    Status {
        /// The HTTP status code.
        status: u16,
        /// The `"error"` field of the envelope, or the raw body when the
        /// envelope did not parse.
        error: String,
    },
    /// A 2xx body did not parse as the expected v1 shape.
    Malformed(String),
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::Io(e) => write!(f, "io error: {e}"),
            ApiError::Status { status, error } => write!(f, "http {status}: {error}"),
            ApiError::Malformed(detail) => write!(f, "malformed response: {detail}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<std::io::Error> for ApiError {
    fn from(e: std::io::Error) -> Self {
        ApiError::Io(e)
    }
}

/// One keep-alive connection to a server.
pub struct Client {
    stream: TcpStream,
    leftover: Vec<u8>,
}

fn bad_response(detail: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail.to_string())
}

impl Client {
    /// Connect with 5-second IO timeouts.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Self::connect_with_timeout(addr, Duration::from_secs(5))
    }

    /// Connect with explicit IO timeouts.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self {
            stream,
            leftover: Vec::new(),
        })
    }

    /// Send one request and read the full response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        self.request_with_headers(method, path, &[], body)
    }

    /// Send one request with extra headers and read the full response.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        extra: &[(&str, String)],
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        self.request_tagged(method, path, extra, body)
            .map_err(|e| e.error)
    }

    /// Replace the IO timeouts on the live connection (used by the
    /// resilient tier to bound each attempt by the remaining budget).
    pub fn set_io_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))?;
        self.stream.set_write_timeout(Some(timeout))
    }

    /// [`Client::request_with_headers`], but failures say *which phase*
    /// broke — the retry policy needs to know whether the request might
    /// have reached the server.
    pub fn request_tagged(
        &mut self,
        method: &str,
        path: &str,
        extra: &[(&str, String)],
        body: Option<&str>,
    ) -> Result<HttpResponse, TransportError> {
        let body = body.unwrap_or("");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: microbrowse\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in extra {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let send = |error| TransportError {
            phase: TransportPhase::Send,
            error,
        };
        self.stream.write_all(head.as_bytes()).map_err(send)?;
        if !body.is_empty() {
            self.stream.write_all(body.as_bytes()).map_err(send)?;
        }
        self.read_response().map_err(|error| TransportError {
            phase: TransportPhase::Receive,
            error,
        })
    }

    /// Shorthand for `GET`.
    pub fn get(&mut self, path: &str) -> std::io::Result<HttpResponse> {
        self.request("GET", path, None)
    }

    /// Shorthand for a JSON `POST`.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<HttpResponse> {
        self.request("POST", path, Some(body))
    }

    /// One typed endpoint round trip: `POST` the encoded request, then
    /// map the response through [`Client::parse_2xx`]. Every per-endpoint
    /// helper is a one-liner over this.
    fn call_typed<T>(
        &mut self,
        path: &str,
        body: &str,
        parse: impl FnOnce(&str) -> Result<T, microbrowse_api::v1::WireError>,
    ) -> Result<T, ApiError> {
        let resp = self.post(path, body)?;
        Self::parse_2xx(&resp, parse)
    }

    /// `POST /v1/score`, typed end to end.
    pub fn score(&mut self, req: &ScoreRequest) -> Result<ScoreResponse, ApiError> {
        self.call_typed("/v1/score", &req.to_json(), ScoreResponse::from_json)
    }

    /// `POST /v1/rank`, typed end to end.
    pub fn rank(&mut self, req: &RankRequest) -> Result<RankResponse, ApiError> {
        self.call_typed("/v1/rank", &req.to_json(), RankResponse::from_json)
    }

    /// `POST /v1/batch`, typed end to end.
    pub fn score_batch(&mut self, req: &BatchRequest) -> Result<BatchResponse, ApiError> {
        self.call_typed("/v1/batch", &req.to_json(), BatchResponse::from_json)
    }

    /// `POST /v1/suggest`, typed end to end.
    pub fn suggest(&mut self, req: &SuggestRequest) -> Result<SuggestResponse, ApiError> {
        self.call_typed("/v1/suggest", &req.to_json(), SuggestResponse::from_json)
    }

    /// `POST /v1/explain`, typed end to end.
    pub fn explain(&mut self, req: &ExplainRequest) -> Result<ExplainResponse, ApiError> {
        self.call_typed("/v1/explain", &req.to_json(), ExplainResponse::from_json)
    }

    /// `POST /v1/feedback`, typed end to end, with an explicit idempotency
    /// key sent as `X-Mb-Idempotency-Key`.
    pub fn feedback(
        &mut self,
        req: &FeedbackRequest,
        key: &str,
    ) -> Result<FeedbackResponse, ApiError> {
        let headers = [(IDEMPOTENCY_HEADER, key.to_string())];
        let resp =
            self.request_with_headers("POST", "/v1/feedback", &headers, Some(&req.to_json()))?;
        Self::parse_2xx(&resp, FeedbackResponse::from_json)
    }

    /// Map a raw response to a parsed 2xx body or a typed [`ApiError`].
    fn parse_2xx<T>(
        resp: &HttpResponse,
        parse: impl FnOnce(&str) -> Result<T, microbrowse_api::v1::WireError>,
    ) -> Result<T, ApiError> {
        let body = resp.body_str();
        if !(200..300).contains(&resp.status) {
            let error = ErrorEnvelope::from_json(&body).map_or(body, |env| env.error);
            return Err(ApiError::Status {
                status: resp.status,
                error,
            });
        }
        parse(&body).map_err(|e| ApiError::Malformed(e.to_string()))
    }

    fn fill(&mut self) -> std::io::Result<usize> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        self.leftover.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    fn read_response(&mut self) -> std::io::Result<HttpResponse> {
        let head_end = loop {
            if let Some(i) = self.leftover.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            if self.fill()? == 0 {
                return Err(bad_response("connection closed mid-response"));
            }
        };
        let head = String::from_utf8(self.leftover[..head_end - 4].to_vec())
            .map_err(|_| bad_response("response head not UTF-8"))?;
        self.leftover.drain(..head_end);

        let mut lines = head.split("\r\n");
        let status_line = lines.next().ok_or_else(|| bad_response("empty response"))?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_response("malformed status line"))?;
        let mut headers = Vec::new();
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| bad_response("malformed response header"))?;
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
        let length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| bad_response("missing content-length"))?;
        while self.leftover.len() < length {
            if self.fill()? == 0 {
                return Err(bad_response("connection closed mid-body"));
            }
        }
        let body = self.leftover.drain(..length).collect();
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }
}

/// Where a transport attempt failed — the retry policy's load-bearing bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportPhase {
    /// The connection could not be established; the server saw nothing.
    Connect,
    /// Writing the request failed. `Content-Length` framing means the
    /// server cannot act on a partial request, so retrying is safe.
    Send,
    /// The request was fully written but the response never fully arrived.
    /// **Ambiguous**: the server may or may not have processed it.
    Receive,
}

/// An IO failure tagged with the phase it happened in.
#[derive(Debug)]
pub struct TransportError {
    /// Which phase broke.
    pub phase: TransportPhase,
    /// The underlying IO error.
    pub error: std::io::Error,
}

/// Circuit-breaker states, the classic three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every call admitted.
    Closed,
    /// Tripped: calls rejected without touching the network until the
    /// cooldown elapses.
    Open,
    /// Cooldown over: the next call is a probe. Success closes the
    /// breaker, failure re-opens it.
    HalfOpen,
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays open before admitting a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 5,
            cooldown: Duration::from_secs(1),
        }
    }
}

/// A closed/open/half-open circuit breaker for one downstream peer.
///
/// Designed for a blocking single-threaded client: [`admit`](Self::admit)
/// both answers "may this call proceed?" and performs the open → half-open
/// transition when the cooldown has elapsed, so the caller never inspects
/// clocks. Every state transition emits a `client.breaker_*` trace event
/// and bumps a `microbrowse_client_breaker_*_total` counter.
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

impl CircuitBreaker {
    /// A closed breaker with this tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: None,
        }
    }

    /// The current state (without advancing open → half-open).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether a call may proceed right now. In `Open`, flips to
    /// `HalfOpen` once the cooldown has elapsed and admits the probe.
    pub fn admit(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                let cooled = match self.opened_at {
                    Some(t) => t.elapsed() >= self.cfg.cooldown,
                    None => true,
                };
                if cooled {
                    self.transition(BreakerState::HalfOpen);
                }
                cooled
            }
        }
    }

    /// Record a successful call: closes the breaker from any state.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state != BreakerState::Closed {
            self.transition(BreakerState::Closed);
        }
    }

    /// Record a failed call: a half-open probe failure re-opens
    /// immediately; in closed state the failure streak is counted against
    /// the threshold.
    pub fn record_failure(&mut self) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            BreakerState::HalfOpen => self.transition(BreakerState::Open),
            BreakerState::Closed if self.consecutive_failures >= self.cfg.failure_threshold => {
                self.transition(BreakerState::Open)
            }
            _ => {}
        }
    }

    fn transition(&mut self, to: BreakerState) {
        self.state = to;
        match to {
            BreakerState::Open => {
                self.opened_at = Some(Instant::now());
                obs::counter!("microbrowse_client_breaker_opened_total").inc();
                obs::trace::event("client.breaker_open")
                    .with("failures", self.consecutive_failures as u64);
            }
            BreakerState::HalfOpen => {
                obs::counter!("microbrowse_client_breaker_half_open_total").inc();
                obs::trace::event("client.breaker_half_open");
            }
            BreakerState::Closed => {
                obs::counter!("microbrowse_client_breaker_closed_total").inc();
                obs::trace::event("client.breaker_closed");
            }
        }
    }
}

/// Retry tuning for [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Backoff ceiling (before jitter).
    pub max_backoff: Duration,
    /// Treat POSTs as idempotent, making ambiguous mid-response failures
    /// retryable. Correct for this API (scoring is read-only) but off by
    /// default — the caller must opt in to at-least-once semantics.
    pub treat_posts_idempotent: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            treat_posts_idempotent: false,
        }
    }
}

/// Why a [`ResilientClient::call`] gave up.
#[derive(Debug)]
pub enum CallError {
    /// The circuit breaker is open; the network was not touched.
    BreakerOpen,
    /// The per-call deadline budget ran out before a usable response.
    DeadlineExhausted {
        /// Attempts completed before the budget ran out.
        attempts: u32,
    },
    /// Every attempt failed at the transport layer.
    Transport {
        /// Attempts made.
        attempts: u32,
        /// The last attempt's IO error.
        error: std::io::Error,
    },
    /// The request was sent but the response never fully arrived, and the
    /// call is not safe to retry (non-idempotent without the opt-in).
    Ambiguous {
        /// The IO error observed mid-response.
        error: std::io::Error,
    },
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::BreakerOpen => write!(f, "circuit breaker open"),
            CallError::DeadlineExhausted { attempts } => {
                write!(f, "deadline budget exhausted after {attempts} attempts")
            }
            CallError::Transport { attempts, error } => {
                write!(f, "transport failed after {attempts} attempts: {error}")
            }
            CallError::Ambiguous { error } => {
                write!(f, "ambiguous mid-response failure (not retried): {error}")
            }
        }
    }
}

impl std::error::Error for CallError {}

/// The failover-ready tier over [`Client`]: retries, backoff, breaker,
/// and end-to-end deadline propagation.
///
/// Each [`call`](Self::call) takes a deadline *budget*. The budget bounds
/// everything the call does — connect timeouts, per-attempt IO timeouts,
/// and backoff sleeps all shrink to the remaining budget — and is
/// propagated to the server in `X-Mb-Deadline-Ms`, re-computed per attempt
/// so the server sees only what is actually left.
pub struct ResilientClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    breaker: CircuitBreaker,
    io_timeout: Duration,
    conn: Option<Client>,
    rng: u64,
    last_trace: u128,
}

impl ResilientClient {
    /// A client for `addr` with default policy and breaker.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            policy: RetryPolicy::default(),
            breaker: CircuitBreaker::new(BreakerConfig::default()),
            io_timeout: Duration::from_secs(5),
            // Deterministic jitter seed; vary per client by address so two
            // clients hammering one server do not retry in lockstep.
            rng: 0x9E37_79B9 ^ ((addr.port() as u64) << 17),
            conn: None,
            last_trace: 0,
        }
    }

    /// The trace id stamped on the most recent [`call`](Self::call), for
    /// joining client-side outcomes to the server's `/debug/trace`.
    pub fn last_trace_id(&self) -> u128 {
        self.last_trace
    }

    /// Replace the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the breaker tuning (resets the breaker to closed).
    pub fn with_breaker(mut self, cfg: BreakerConfig) -> Self {
        self.breaker = CircuitBreaker::new(cfg);
        self
    }

    /// Replace the per-attempt IO timeout ceiling.
    pub fn with_io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// The breaker's current state (for tests and introspection).
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// One resilient call. Returns the final response for any status the
    /// retry loop settles on — including a 5xx that survived every retry,
    /// so the caller still sees the server's error envelope.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        budget: Duration,
    ) -> Result<HttpResponse, CallError> {
        self.call_with_headers(method, path, body, budget, &[], false)
    }

    /// [`call`](Self::call) with extra request headers and an explicit
    /// idempotency claim. When `idempotent` is true, ambiguous mid-response
    /// failures of POSTs are retryable even without the blanket
    /// [`RetryPolicy::treat_posts_idempotent`] opt-in — the caller promises
    /// the server can recognise and absorb the duplicate (e.g. via an
    /// `X-Mb-Idempotency-Key` header in `extra`).
    pub fn call_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        budget: Duration,
        extra: &[(&str, String)],
        idempotent: bool,
    ) -> Result<HttpResponse, CallError> {
        let deadline = Instant::now() + budget;
        // One trace id covers every attempt of this call. Reuse the
        // caller's trace when one is active (nested instrumentation);
        // otherwise mint a fresh id — the wire headers go out either way,
        // even with local instrumentation disabled.
        let ctx = obs::trace::current_context();
        let trace = if ctx.trace_id() != 0 {
            ctx.trace_id()
        } else {
            obs::trace::new_trace_id()
        };
        self.last_trace = trace;
        let _trace_guard =
            (ctx.trace_id() == 0).then(|| obs::trace::TraceContext::for_trace(trace).enter());
        let mut call_span = obs::trace::span("client.call").with("path", path);
        let parent_span = call_span.id();
        let mut attempts = 0u32;
        loop {
            if !self.breaker.admit() {
                obs::counter!("microbrowse_client_breaker_rejected_total").inc();
                return Err(CallError::BreakerOpen);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                obs::counter!("microbrowse_client_deadline_exhausted_total").inc();
                return Err(CallError::DeadlineExhausted { attempts });
            }
            attempts += 1;
            obs::counter!("microbrowse_client_attempts_total").inc();
            // A failed attempt is either a 5xx response (kept so the
            // caller can see the final envelope) or a retryable IO error.
            let failure: Result<HttpResponse, std::io::Error> =
                match self.attempt(method, path, body, remaining, trace, parent_span, extra) {
                    Ok(resp) if resp.status < 500 => {
                        self.breaker.record_success();
                        call_span.add("status", u64::from(resp.status));
                        call_span.add("attempts", u64::from(attempts));
                        return Ok(resp);
                    }
                    Ok(resp) => {
                        // The server answered 5xx: it is reachable but
                        // overloaded or broken. Not ambiguous — the request
                        // was *not* served — so retrying is safe.
                        self.breaker.record_failure();
                        self.conn = None;
                        Ok(resp)
                    }
                    Err(e) => {
                        self.breaker.record_failure();
                        self.conn = None;
                        let retryable = match e.phase {
                            TransportPhase::Connect | TransportPhase::Send => true,
                            TransportPhase::Receive => {
                                idempotent || method != "POST" || self.policy.treat_posts_idempotent
                            }
                        };
                        if !retryable {
                            return Err(CallError::Ambiguous { error: e.error });
                        }
                        Err(e.error)
                    }
                };
            if attempts >= self.policy.max_attempts {
                call_span.add("attempts", u64::from(attempts));
                return match failure {
                    Ok(resp) => {
                        call_span.add("status", u64::from(resp.status));
                        Ok(resp)
                    }
                    Err(error) => Err(CallError::Transport { attempts, error }),
                };
            }
            let backoff = self.backoff(attempts);
            if backoff >= deadline.saturating_duration_since(Instant::now()) {
                // Sleeping would blow the budget; the caller's deadline
                // beats one more attempt.
                obs::counter!("microbrowse_client_deadline_exhausted_total").inc();
                return Err(CallError::DeadlineExhausted { attempts });
            }
            obs::counter!("microbrowse_client_retries_total").inc();
            obs::trace::event("client.retry")
                .with("attempt", attempts as u64)
                .with("backoff_ms", backoff.as_millis() as u64);
            std::thread::sleep(backoff);
        }
    }

    /// One typed endpoint round trip through the retry/breaker/deadline
    /// machinery: `POST` the encoded request with a budget, then map the
    /// final response through [`Client::parse_2xx`]. Every read-only
    /// per-endpoint helper is a one-liner over this (feedback differs: it
    /// pins an idempotency key across attempts).
    fn call_typed<T>(
        &mut self,
        path: &str,
        body: &str,
        budget: Duration,
        parse: impl FnOnce(&str) -> Result<T, microbrowse_api::v1::WireError>,
    ) -> Result<T, ApiError> {
        let resp = self.post_json(path, body, budget)?;
        Client::parse_2xx(&resp, parse)
    }

    /// `POST /v1/score` with retries and a deadline budget.
    pub fn score(
        &mut self,
        req: &ScoreRequest,
        budget: Duration,
    ) -> Result<ScoreResponse, ApiError> {
        self.call_typed(
            "/v1/score",
            &req.to_json(),
            budget,
            ScoreResponse::from_json,
        )
    }

    /// `POST /v1/rank` with retries and a deadline budget.
    pub fn rank(&mut self, req: &RankRequest, budget: Duration) -> Result<RankResponse, ApiError> {
        self.call_typed("/v1/rank", &req.to_json(), budget, RankResponse::from_json)
    }

    /// `POST /v1/batch` with retries and a deadline budget.
    pub fn score_batch(
        &mut self,
        req: &BatchRequest,
        budget: Duration,
    ) -> Result<BatchResponse, ApiError> {
        self.call_typed(
            "/v1/batch",
            &req.to_json(),
            budget,
            BatchResponse::from_json,
        )
    }

    /// `POST /v1/suggest` with retries and a deadline budget.
    pub fn suggest(
        &mut self,
        req: &SuggestRequest,
        budget: Duration,
    ) -> Result<SuggestResponse, ApiError> {
        self.call_typed(
            "/v1/suggest",
            &req.to_json(),
            budget,
            SuggestResponse::from_json,
        )
    }

    /// `POST /v1/explain` with retries and a deadline budget.
    pub fn explain(
        &mut self,
        req: &ExplainRequest,
        budget: Duration,
    ) -> Result<ExplainResponse, ApiError> {
        self.call_typed(
            "/v1/explain",
            &req.to_json(),
            budget,
            ExplainResponse::from_json,
        )
    }

    /// `POST /v1/feedback` with retries and a deadline budget.
    ///
    /// Unlike the scoring POSTs, feedback ingestion *mutates* server state,
    /// so a blind retry of an ambiguous mid-response failure could double
    /// count clicks. This helper makes the retry safe instead of forbidden:
    /// every attempt of one logical call carries the same
    /// `X-Mb-Idempotency-Key` (the request's `key` field, or a key minted
    /// from the client's deterministic RNG when the field is empty), and the
    /// server's journal dedupes on it — so the call opts in to
    /// mid-response retries unconditionally.
    pub fn feedback(
        &mut self,
        req: &FeedbackRequest,
        budget: Duration,
    ) -> Result<FeedbackResponse, ApiError> {
        let key = if req.key.is_empty() {
            format!("{:016x}{:016x}", self.next_u64(), self.next_u64())
        } else {
            req.key.clone()
        };
        let headers = [(IDEMPOTENCY_HEADER, key)];
        let resp = self
            .call_with_headers(
                "POST",
                "/v1/feedback",
                Some(&req.to_json()),
                budget,
                &headers,
                true,
            )
            .map_err(|e| match e {
                CallError::Transport { error, .. } | CallError::Ambiguous { error } => {
                    ApiError::Io(error)
                }
                other => ApiError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    other.to_string(),
                )),
            })?;
        Client::parse_2xx(&resp, FeedbackResponse::from_json)
    }

    fn post_json(
        &mut self,
        path: &str,
        body: &str,
        budget: Duration,
    ) -> Result<HttpResponse, ApiError> {
        self.call("POST", path, Some(body), budget)
            .map_err(|e| match e {
                CallError::Transport { error, .. } | CallError::Ambiguous { error } => {
                    ApiError::Io(error)
                }
                other => ApiError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    other.to_string(),
                )),
            })
    }

    /// One attempt: (re)connect if needed, clamp IO timeouts to the
    /// remaining budget, propagate the budget in `X-Mb-Deadline-Ms` and
    /// the trace context in `X-Mb-Trace-Id` / `X-Mb-Parent-Span`.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        remaining: Duration,
        trace: u128,
        parent_span: u64,
        extra: &[(&str, String)],
    ) -> Result<HttpResponse, TransportError> {
        let timeout = self.io_timeout.min(remaining).max(Duration::from_millis(1));
        if self.conn.is_none() {
            let conn = Client::connect_with_timeout(self.addr, timeout).map_err(|error| {
                TransportError {
                    phase: TransportPhase::Connect,
                    error,
                }
            })?;
            self.conn = Some(conn);
        }
        let Some(conn) = self.conn.as_mut() else {
            // Just assigned above; unreachable, but fail as a connect error
            // rather than panicking in a resilience layer.
            return Err(TransportError {
                phase: TransportPhase::Connect,
                error: std::io::Error::new(std::io::ErrorKind::NotConnected, "no connection"),
            });
        };
        if let Err(error) = conn.set_io_timeout(timeout) {
            return Err(TransportError {
                phase: TransportPhase::Connect,
                error,
            });
        }
        let deadline_ms = remaining.as_millis().max(1) as u64;
        let mut headers = vec![
            (DEADLINE_HEADER, deadline_ms.to_string()),
            (TRACE_ID_HEADER, obs::trace::format_trace_id(trace)),
        ];
        if parent_span != 0 {
            headers.push((PARENT_SPAN_HEADER, parent_span.to_string()));
        }
        for (name, value) in extra {
            headers.push((name, value.clone()));
        }
        conn.request_tagged(method, path, &headers, body)
    }

    /// Jittered exponential backoff before retry number `attempt + 1`:
    /// `base * 2^(attempt-1)` capped at `max_backoff`, scaled by a uniform
    /// factor in `[0.5, 1.5)` so retrying clients spread out.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16);
        let raw = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << doublings)
            .min(self.policy.max_backoff);
        let jitter = 0.5 + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        raw.mul_f64(jitter)
    }

    /// SplitMix64 — local, deterministic, dependency-free jitter source.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn breaker_walks_the_three_states() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(20),
        });
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
        b.record_failure();
        b.record_failure();
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "under threshold stays closed"
        );
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open, "threshold trips the breaker");
        assert!(!b.admit(), "open rejects before cooldown");
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit(), "cooldown elapsed: probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open, "probe failure re-opens");
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed, "probe success closes");
        // A success also resets the failure streak.
        b.record_failure();
        b.record_failure();
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn backoff_is_exponential_capped_and_jittered() {
        let addr: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        let mut c = ResilientClient::new(addr).with_policy(RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(400),
            treat_posts_idempotent: false,
        });
        for attempt in 1..=6u32 {
            let expected = Duration::from_millis(100)
                .saturating_mul(1 << (attempt - 1))
                .min(Duration::from_millis(400));
            let got = c.backoff(attempt);
            assert!(
                got >= expected.mul_f64(0.5) && got < expected.mul_f64(1.5),
                "attempt {attempt}: {got:?} outside jitter band of {expected:?}"
            );
        }
    }

    #[test]
    fn connect_refused_is_retried_up_to_max_attempts() {
        // Bind then drop to get a port that refuses connections.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let mut c = ResilientClient::new(addr).with_policy(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            treat_posts_idempotent: false,
        });
        match c.call("GET", "/healthz", None, Duration::from_secs(5)) {
            Err(CallError::Transport { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("wanted Transport after 3 attempts, got {other:?}"),
        }
    }

    #[test]
    fn deadline_budget_beats_backoff() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        // First attempt fails fast (refused); min jittered backoff is
        // 50ms > the 30ms budget, so the call must stop after 1 attempt.
        let mut c = ResilientClient::new(addr).with_policy(RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(100),
            treat_posts_idempotent: false,
        });
        let started = Instant::now();
        match c.call("GET", "/healthz", None, Duration::from_millis(30)) {
            Err(CallError::DeadlineExhausted { attempts }) => assert_eq!(attempts, 1),
            other => panic!("wanted DeadlineExhausted, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "gave up promptly instead of sleeping through the budget"
        );
    }

    #[test]
    fn feedback_retries_ambiguous_mid_response_failure_with_same_key() {
        use microbrowse_api::v1::FeedbackEvent;
        use std::io::{Read as _, Write as _};

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // Fake server: first connection reads the request then dies
        // mid-response (ambiguous Receive failure); second connection
        // answers a full FeedbackResponse. Both request heads are captured
        // so the test can assert the idempotency key was pinned.
        let server = std::thread::spawn(move || {
            let mut heads = Vec::new();
            let read_head = |stream: &mut std::net::TcpStream| {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 1024];
                loop {
                    let n = stream.read(&mut chunk).expect("read request");
                    buf.extend_from_slice(&chunk[..n]);
                    if n == 0 || buf.windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
                String::from_utf8_lossy(&buf).into_owned()
            };
            {
                let (mut stream, _) = listener.accept().expect("accept 1");
                heads.push(read_head(&mut stream));
                // Partial response: head promises a body that never comes.
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 60\r\n\r\n{")
                    .expect("partial write");
                // Drop closes the socket mid-body.
            }
            {
                let (mut stream, _) = listener.accept().expect("accept 2");
                heads.push(read_head(&mut stream));
                let body = r#"{"accepted":1,"deduped":true,"seq":7,"latency_us":10}"#;
                let resp = format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                stream.write_all(resp.as_bytes()).expect("full write");
            }
            heads
        });

        let mut c = ResilientClient::new(addr).with_policy(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            treat_posts_idempotent: false,
        });
        let req = FeedbackRequest {
            key: String::new(),
            events: vec![FeedbackEvent {
                adgroup: 1,
                creative: 2,
                snippet: "cheap flights | book now".to_string(),
                position: 0,
                query_class: "travel".to_string(),
                impressions: 10,
                clicks: 1,
            }],
        };
        let resp = c
            .feedback(&req, Duration::from_secs(5))
            .expect("retry should recover the ambiguous failure");
        assert_eq!(resp.seq, 7);
        assert!(resp.deduped, "fake server says the journal deduped it");

        let heads = server.join().expect("server thread");
        assert_eq!(heads.len(), 2, "exactly one retry");
        let key_of = |head: &str| {
            head.lines()
                .find_map(|l| l.strip_prefix("x-mb-idempotency-key: "))
                .map(str::to_string)
                .unwrap_or_else(|| panic!("no idempotency key in request head: {head}"))
        };
        let (k1, k2) = (key_of(&heads[0]), key_of(&heads[1]));
        assert_eq!(k1, k2, "the same key must cover every attempt");
        assert_eq!(k1.len(), 32, "minted keys are 128-bit hex");
    }

    #[test]
    fn plain_post_still_refuses_ambiguous_retry() {
        use std::io::Write as _;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut chunk = [0u8; 1024];
            let _ = std::io::Read::read(&mut stream, &mut chunk);
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 60\r\n\r\n{")
                .expect("partial write");
        });
        let mut c = ResilientClient::new(addr).with_policy(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            treat_posts_idempotent: false,
        });
        match c.call("POST", "/v1/score", Some("{}"), Duration::from_secs(5)) {
            Err(CallError::Ambiguous { .. }) => {}
            other => panic!("wanted Ambiguous (no retry), got {other:?}"),
        }
        server.join().expect("server thread");
    }

    #[test]
    fn breaker_opens_after_repeated_connect_failures() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let mut c = ResilientClient::new(addr)
            .with_policy(RetryPolicy {
                max_attempts: 1,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(1),
                treat_posts_idempotent: false,
            })
            .with_breaker(BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(30),
            });
        for _ in 0..2 {
            assert!(c
                .call("GET", "/healthz", None, Duration::from_secs(1))
                .is_err());
        }
        assert_eq!(c.breaker_state(), BreakerState::Open);
        match c.call("GET", "/healthz", None, Duration::from_secs(1)) {
            Err(CallError::BreakerOpen) => {}
            other => panic!("wanted BreakerOpen, got {other:?}"),
        }
    }
}
