//! One closed-loop load driver for every serving harness.
//!
//! [`Load::start`] spawns keep-alive client threads that each post their
//! next request as soon as the previous one is answered, until
//! [`Load::stop`] joins them into one [`Tally`]. What a request carries
//! (path, body, trace tag, deadline header) is the caller's data; how
//! long the run lasts is the caller's choice, made by when it stops.
//!
//! Each client:
//! - connects with a 2 s IO timeout; a failed connect counts as a call
//!   and an IO error, and the client pauses briefly before retrying;
//! - times each call from its request's first byte to the parsed
//!   response, and its time to outcome from before any connect it needed;
//! - drops its connection on an IO error or a `Connection: close` answer;
//! - pauses 2 ms after a shed (503/504), so a saturated server keeps
//!   answering instead of shedding a spinning client.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use microbrowse_obs::trace::parse_trace_id;
use microbrowse_server::client::Client;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
const CONNECT_RETRY_PAUSE: Duration = Duration::from_millis(5);
const SHED_PAUSE: Duration = Duration::from_millis(2);

/// One `POST` a driver client sends.
pub struct Request {
    /// Request path, e.g. `/v1/score`.
    pub path: &'static str,
    /// Extra headers (trace tags, deadlines).
    pub headers: Vec<(&'static str, String)>,
    /// The JSON body.
    pub body: String,
}

impl Request {
    /// A `POST` of `body` to `path` with no extra headers.
    pub fn post(path: &'static str, body: String) -> Self {
        Self {
            path,
            headers: Vec::new(),
            body,
        }
    }

    /// The same request with one more header.
    pub fn header(mut self, name: &'static str, value: String) -> Self {
        self.headers.push((name, value));
        self
    }
}

/// Statuses a well-behaved scoring client may be answered with. Anything
/// else is a violation: evidence of a desynced or garbage frame.
fn expected_status(status: u16) -> bool {
    matches!(status, 200 | 400 | 408 | 413 | 503 | 504)
}

/// The `q`-quantile (nearest rank) of ascending `sorted`; 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Outcomes of a client population. Every call lands in exactly one of
/// `ok`, `shed_503`, `shed_504`, `other`, `io_errors` and `violations`.
/// The `*_traces` lists hold the trace ids the server echoed in
/// `X-Mb-Trace-Id`, the id its flight recorder filed the request under.
#[derive(Default, Clone, Debug)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// 200 answers.
    pub ok: u64,
    /// 503 answers (queue full, connection cap, drain).
    pub shed_503: u64,
    /// 504 answers (deadline spent).
    pub shed_504: u64,
    /// Other expected statuses (400, 408, 413).
    pub other: u64,
    /// Calls that failed at the IO layer, failed connects included.
    pub io_errors: u64,
    /// Unexpected statuses and unparseable frames.
    pub violations: u64,
    /// Latency of each 200, in µs, in arrival order until sorted.
    pub ok_latencies_us: Vec<u64>,
    /// The longest time to any outcome, in µs.
    pub longest_us: u64,
    /// Echoed trace ids of the 200s.
    pub ok_traces: Vec<u128>,
    /// Echoed trace ids of the 503s and 504s.
    pub shed_traces: Vec<u128>,
}

impl Tally {
    /// Add `other`'s outcomes to this tally.
    pub fn absorb(&mut self, other: Tally) {
        self.calls += other.calls;
        self.ok += other.ok;
        self.shed_503 += other.shed_503;
        self.shed_504 += other.shed_504;
        self.other += other.other;
        self.io_errors += other.io_errors;
        self.violations += other.violations;
        self.ok_latencies_us.extend(other.ok_latencies_us);
        self.longest_us = self.longest_us.max(other.longest_us);
        self.ok_traces.extend(other.ok_traces);
        self.shed_traces.extend(other.shed_traces);
    }

    /// Record one answered call that took `us`.
    pub fn record_response(&mut self, status: u16, us: u64, trace: Option<u128>) {
        self.calls += 1;
        match status {
            200 => {
                self.ok += 1;
                self.ok_latencies_us.push(us);
                self.ok_traces.extend(trace);
            }
            503 => {
                self.shed_503 += 1;
                self.shed_traces.extend(trace);
            }
            504 => {
                self.shed_504 += 1;
                self.shed_traces.extend(trace);
            }
            s if expected_status(s) => self.other += 1,
            _ => self.violations += 1,
        }
    }

    /// Record one call that failed at the IO layer. An unparseable frame
    /// (`InvalidData` that is not the peer closing between responses) is
    /// a violation, not an IO error.
    pub fn record_io_error(&mut self, e: &std::io::Error) {
        self.calls += 1;
        if e.kind() == std::io::ErrorKind::InvalidData
            && !e.to_string().contains("closed mid-response")
        {
            self.violations += 1;
        } else {
            self.io_errors += 1;
        }
    }

    /// The `q`-quantile of the 200 latencies, in µs.
    pub fn ok_quantile_us(&mut self, q: f64) -> u64 {
        self.ok_latencies_us.sort_unstable();
        quantile(&self.ok_latencies_us, q)
    }
}

/// A running closed-loop load. Dropping it without [`Load::stop`] stops
/// and joins its clients, discarding their tallies.
pub struct Load {
    stop: Arc<AtomicBool>,
    clients: Vec<JoinHandle<Tally>>,
    started: Instant,
}

impl Load {
    /// Start `clients` keep-alive clients against `addr`. Client `c`'s
    /// `i`-th call (counting from 0) posts `request(c, i)`.
    pub fn start<F>(addr: SocketAddr, clients: usize, request: F) -> Self
    where
        F: Fn(usize, u64) -> Request + Send + Sync + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let request = Arc::new(request);
        let started = Instant::now();
        let clients = (0..clients)
            .map(|c| {
                let (stop, request) = (Arc::clone(&stop), Arc::clone(&request));
                std::thread::spawn(move || client_loop(addr, c, &*request, &stop))
            })
            .collect();
        Self {
            stop,
            clients,
            started,
        }
    }

    /// Stop the clients, wait for their calls in flight, and return their
    /// merged tally and the wall seconds since [`Load::start`]. A client
    /// thread that panicked counts as one violation.
    pub fn stop(mut self) -> (Tally, f64) {
        self.stop.store(true, Ordering::Relaxed);
        let mut total = Tally::default();
        for client in self.clients.drain(..) {
            match client.join() {
                Ok(t) => total.absorb(t),
                Err(_) => total.violations += 1,
            }
        }
        (total, self.started.elapsed().as_secs_f64())
    }
}

impl Drop for Load {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for client in self.clients.drain(..) {
            let _ = client.join();
        }
    }
}

fn client_loop(
    addr: SocketAddr,
    client: usize,
    request: &dyn Fn(usize, u64) -> Request,
    stop: &AtomicBool,
) -> Tally {
    let mut tally = Tally::default();
    let mut conn: Option<Client> = None;
    let mut i = 0;
    while !stop.load(Ordering::Relaxed) {
        let began = Instant::now();
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match Client::connect_with_timeout(addr, CONNECT_TIMEOUT) {
                Ok(c) => conn.insert(c),
                Err(e) => {
                    tally.record_io_error(&e);
                    std::thread::sleep(CONNECT_RETRY_PAUSE);
                    continue;
                }
            },
        };
        let req = request(client, i);
        i += 1;
        let sent = Instant::now();
        let outcome = c.request_with_headers("POST", req.path, &req.headers, Some(&req.body));
        let us = sent.elapsed().as_micros() as u64;
        tally.longest_us = tally.longest_us.max(began.elapsed().as_micros() as u64);
        match outcome {
            Ok(resp) => {
                let trace = resp.header("x-mb-trace-id").and_then(parse_trace_id);
                tally.record_response(resp.status, us, trace);
                if resp.header("connection") == Some("close") {
                    conn = None;
                }
                if matches!(resp.status, 503 | 504) {
                    std::thread::sleep(SHED_PAUSE);
                }
            }
            Err(e) => {
                tally.record_io_error(&e);
                conn = None;
            }
        }
    }
    tally
}
