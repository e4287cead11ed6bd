//! End-to-end distributed-tracing tests: one trace id threads
//! `ResilientClient` → accept → queue wait → worker → scoring engine on a
//! live server, survives a client retry, and the `/debug` surface serves
//! back what the flight recorder retained — parsed with the strict
//! `microbrowse-api` wire types, never ad-hoc string poking.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use microbrowse_api::debug::{DebugRequestsResponse, DebugTraceResponse, VersionInfo};
use microbrowse_core::classifier::{ModelSpec, TrainedClassifier};
use microbrowse_core::features::OwnedTermFeat;
use microbrowse_core::serve::{DeployedModel, Fidelity, ServingBundle};
use microbrowse_obs::trace::{self, MemorySink};
use microbrowse_server::client::{Client, ResilientClient, RetryPolicy};
use microbrowse_server::{start, BundleSource, ServerConfig};
use microbrowse_store::StatsDb;

const SCORE_BODY: &str = r#"{"r":"cheap flights|book now","s":"flights|book"}"#;

fn static_bundle() -> BundleSource {
    let model = DeployedModel {
        spec: ModelSpec::m1(),
        classifier: TrainedClassifier::Flat(microbrowse_ml::LogReg::from_parts(vec![1.0], 0.0)),
        vocab: vec![OwnedTermFeat::Term("cheap".into())],
    };
    BundleSource::Static(Arc::new(
        ServingBundle::from_parts(model, StatsDb::new(), Fidelity::Full).expect("bundle"),
    ))
}

// The trace sink is process-global; tests that install one must not
// interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_exclusive() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Install a fresh [`MemorySink`] and return it. Started servers tee the
/// flight recorder *on top of* whatever is installed, so this keeps
/// receiving records after `start()`.
fn memory_sink() -> Arc<MemorySink> {
    let sink = Arc::new(MemorySink::new());
    trace::install_sink(sink.clone());
    sink
}

#[test]
fn one_trace_id_threads_client_to_engine() {
    let _x = obs_exclusive();
    let sink = memory_sink();
    let handle = start(ServerConfig::default(), static_bundle()).expect("start");

    let mut rc = ResilientClient::new(handle.addr());
    let resp = rc
        .call(
            "POST",
            "/v1/score",
            Some(SCORE_BODY),
            Duration::from_secs(5),
        )
        .expect("call");
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    let trace = rc.last_trace_id();
    assert_ne!(trace, 0);
    // The server echoes the propagated id on the response.
    assert_eq!(
        resp.header("x-mb-trace-id"),
        Some(trace::format_trace_id(trace).as_str())
    );

    handle.shutdown();
    trace::clear_sink();

    let client_spans: Vec<_> = sink
        .spans_named("client.call")
        .into_iter()
        .filter(|s| s.trace == trace)
        .collect();
    assert_eq!(client_spans.len(), 1, "one client.call span on the trace");
    let server_spans: Vec<_> = sink
        .spans_named("serve.request")
        .into_iter()
        .filter(|s| s.trace == trace)
        .collect();
    assert_eq!(server_spans.len(), 1, "one serve.request span on the trace");
    // Wire-propagated parenting: the server's request span hangs off the
    // client's call span even though it was recorded on another thread
    // behind a TCP hop.
    assert_eq!(server_spans[0].parent, client_spans[0].id);
    // The queue-wait handoff is on the same trace.
    let dequeued: Vec<_> = sink
        .events_named("serve.dequeued")
        .into_iter()
        .filter(|e| e.trace == trace)
        .collect();
    assert_eq!(dequeued.len(), 1, "queue-wait event shares the trace id");
}

/// Accept one connection and answer a bare 503 (after reading the request
/// headers), then tunnel every later connection byte-for-byte to
/// `upstream`.
fn flaky_proxy(upstream: SocketAddr) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        if let Ok((mut s, _)) = listener.accept() {
            let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
            let mut buf = [0u8; 4096];
            let mut seen = Vec::new();
            while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => seen.extend_from_slice(&buf[..n]),
                }
            }
            let _ = s.write_all(
                b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
            );
        }
        while let Ok((conn, _)) = listener.accept() {
            let up = match TcpStream::connect(upstream) {
                Ok(up) => up,
                Err(_) => return,
            };
            let (mut c_read, mut c_write) = (conn.try_clone().expect("clone"), conn);
            let (mut u_read, mut u_write) = (up.try_clone().expect("clone"), up);
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut c_read, &mut u_write);
            });
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut u_read, &mut c_write);
            });
        }
    });
    addr
}

#[test]
fn trace_id_survives_a_retry() {
    let _x = obs_exclusive();
    let sink = memory_sink();
    let handle = start(ServerConfig::default(), static_bundle()).expect("start");
    let proxy = flaky_proxy(handle.addr());

    let mut rc = ResilientClient::new(proxy).with_policy(RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        ..RetryPolicy::default()
    });
    let resp = rc
        .call(
            "POST",
            "/v1/score",
            Some(SCORE_BODY),
            Duration::from_secs(5),
        )
        .expect("call through flaky proxy");
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    let trace = rc.last_trace_id();
    assert_eq!(
        resp.header("x-mb-trace-id"),
        Some(trace::format_trace_id(trace).as_str()),
        "the retried attempt still carries the original trace id"
    );

    handle.shutdown();
    trace::clear_sink();

    // The retry decision itself is stamped with the same trace id...
    let retries: Vec<_> = sink
        .events_named("client.retry")
        .into_iter()
        .filter(|e| e.trace == trace)
        .collect();
    assert!(!retries.is_empty(), "a retry event carries the trace id");
    // ...and the server-side request span of the successful attempt still
    // parents onto the one client.call span that covered both attempts.
    let client_spans = sink.spans_named("client.call");
    let call = client_spans
        .iter()
        .find(|s| s.trace == trace)
        .expect("client.call span");
    let server_spans = sink.spans_named("serve.request");
    let served = server_spans
        .iter()
        .find(|s| s.trace == trace)
        .expect("serve.request span");
    assert_eq!(served.parent, call.id);
}

#[test]
fn debug_surface_round_trips_through_api_types() {
    let _x = obs_exclusive();
    let cfg = ServerConfig {
        flight_slow: Duration::from_millis(0),
        ..ServerConfig::default()
    };
    let handle = start(cfg, static_bundle()).expect("start");
    let mut c = Client::connect(handle.addr()).expect("connect");

    // A force-sampled request is always retained, whatever its latency.
    let resp = c
        .request_tagged(
            "POST",
            "/v1/score",
            &[
                (
                    "x-mb-trace-id",
                    "00000000000000000000000000000abc".to_owned(),
                ),
                ("x-mb-sampled", "1".to_owned()),
                ("x-mb-server-timing", "1".to_owned()),
            ],
            Some(SCORE_BODY),
        )
        .expect("sampled score");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(
        resp.header("x-mb-trace-id"),
        Some("00000000000000000000000000000abc")
    );
    let timing = resp.header("x-mb-server-timing").expect("opt-in timing");
    assert!(
        timing.contains("queue=") && timing.contains("score="),
        "{timing}"
    );

    let resp = c.get("/debug/trace?last=32").expect("debug trace");
    assert_eq!(resp.status, 200);
    let traces = DebugTraceResponse::from_json(&resp.body_str()).expect("strict parse");
    let entry = traces
        .traces
        .iter()
        .find(|t| t.trace_id == "00000000000000000000000000000abc")
        .expect("sampled trace retained");
    assert_eq!(entry.status, 200);
    assert_eq!(entry.endpoint, "POST /v1/score");
    assert!(
        entry.spans.iter().any(|s| s.name == "serve.request"),
        "retained trace includes the request span: {:?}",
        entry.spans
    );

    let resp = c.get("/debug/requests").expect("debug requests");
    assert_eq!(resp.status, 200);
    let requests = DebugRequestsResponse::from_json(&resp.body_str()).expect("strict parse");
    let entry = requests
        .requests
        .iter()
        .find(|r| r.trace_id == "00000000000000000000000000000abc")
        .expect("request in access log");
    assert_eq!(entry.method, "POST");
    assert_eq!(entry.path, "/v1/score");
    assert_eq!(
        entry.total_us,
        entry.stages.queue_us
            + entry.stages.parse_us
            + entry.stages.score_us
            + entry.stages.write_us
    );

    let resp = c.get("/version").expect("version");
    let info = VersionInfo::from_json(&resp.body_str()).expect("strict parse");
    assert_eq!(info.name, "microbrowse-server");
    assert_eq!(info.version, env!("CARGO_PKG_VERSION"));
    assert!(info.features.iter().any(|f| f == "flight-recorder"));

    let resp = c.get("/metrics").expect("metrics");
    let body = resp.body_str();
    assert!(body.contains("microbrowse_build_info{version="), "{body}");
    assert!(
        body.contains("microbrowse_trace_write_errors_total"),
        "{body}"
    );

    handle.shutdown();
}

#[test]
fn shed_responses_are_retrievable_from_debug_trace() {
    let _x = obs_exclusive();
    // One worker pinned by a half-sent request, one filler connection
    // occupying the depth-1 queue: every further connection is rejected
    // from the accept thread with an echoed trace id we can look up after.
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let handle = start(cfg, static_bundle()).expect("start");

    let pin = TcpStream::connect(handle.addr()).expect("pin connect");
    let _ = (&pin).write_all(b"POST /v1/score HTTP/1.1\r\n");
    std::thread::sleep(Duration::from_millis(50));
    let filler = TcpStream::connect(handle.addr()).expect("filler connect");
    std::thread::sleep(Duration::from_millis(50));

    let mut shed_ids = Vec::new();
    for _ in 0..6 {
        let mut c = match Client::connect(handle.addr()) {
            Ok(c) => c,
            Err(_) => continue,
        };
        if let Ok(resp) = c.post("/v1/score", SCORE_BODY) {
            if resp.status == 503 {
                let id = resp
                    .header("x-mb-trace-id")
                    .expect("shed response echoes a trace id")
                    .to_owned();
                shed_ids.push(id);
            }
        }
    }
    assert!(!shed_ids.is_empty(), "at least one request was shed");

    // Unpin the worker and let it burn through the dead connections.
    drop(pin);
    drop(filler);
    let resp = loop {
        let attempt = Client::connect(handle.addr())
            .ok()
            .and_then(|mut c| c.get("/debug/trace?last=64").ok());
        match attempt {
            // The GET itself can be shed while the queue recovers.
            Some(resp) if resp.status == 200 => break resp,
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let traces = DebugTraceResponse::from_json(&resp.body_str()).expect("strict parse");
    for id in &shed_ids {
        let entry = traces
            .traces
            .iter()
            .find(|t| &t.trace_id == id)
            .unwrap_or_else(|| panic!("shed trace {id} not retained"));
        assert_eq!(entry.reason, "shed");
        assert_eq!(entry.status, 503);
    }

    handle.shutdown();
}

/// Read one response off `stream`: its status and echoed trace id.
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        assert_eq!(
            stream.read(&mut byte).expect("read head"),
            1,
            "closed mid-head"
        );
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("UTF-8 head");
    let header = |name: &str| {
        head.lines().find_map(|line| {
            let (n, v) = line.split_once(':')?;
            n.eq_ignore_ascii_case(name).then(|| v.trim().to_owned())
        })
    };
    let len: usize = header("content-length").map_or(0, |v| v.parse().expect("length"));
    let mut body = vec![0; len];
    stream.read_exact(&mut body).expect("read body");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, header("x-mb-trace-id").expect("echoed trace id"))
}

/// Send `parts` on a fresh connection, pausing `gap` between them, and read
/// the one response: status and trace id.
fn send_raw(addr: SocketAddr, parts: &[&[u8]], gap: Duration) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(gap);
        }
        stream.write_all(part).expect("write");
    }
    read_response(&mut stream)
}

fn debug_views(addr: SocketAddr, last: usize) -> (DebugRequestsResponse, DebugTraceResponse) {
    let mut c = Client::connect(addr).expect("connect");
    let resp = c
        .get(&format!("/debug/requests?last={last}"))
        .expect("debug requests");
    assert_eq!(resp.status, 200);
    let requests = DebugRequestsResponse::from_json(&resp.body_str()).expect("strict parse");
    let resp = c
        .get(&format!("/debug/trace?last={last}"))
        .expect("debug trace");
    assert_eq!(resp.status, 200);
    let traces = DebugTraceResponse::from_json(&resp.body_str()).expect("strict parse");
    (requests, traces)
}

#[test]
fn a_malformed_request_times_its_own_parse() {
    let _x = obs_exclusive();
    let handle = start(ServerConfig::default(), static_bundle()).expect("start");

    // Keep-alive: a good request, then 300 ms later a malformed one. Its
    // parse stage starts at its own first byte, not the good request's.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream
        .write_all(b"GET /version HTTP/1.1\r\n\r\n")
        .expect("write");
    assert_eq!(read_response(&mut stream).0, 200);
    std::thread::sleep(Duration::from_millis(300));
    stream.write_all(b"NOT A REQUEST\r\n\r\n").expect("write");
    let (status, second) = read_response(&mut stream);
    assert_eq!(status, 400);

    // A session's first request that trickles in over 200 ms and then
    // fails to parse spent those 200 ms parsing.
    let gap = Duration::from_millis(200);
    let (status, trickled) = send_raw(handle.addr(), &[b"NOT A ", b"REQUEST\r\n\r\n"], gap);
    assert_eq!(status, 400);

    let (requests, traces) = debug_views(handle.addr(), 16);
    let parse_of = |id: &str| {
        let r = requests
            .requests
            .iter()
            .find(|r| r.trace_id == id)
            .unwrap_or_else(|| panic!("{id} not in /debug/requests"));
        let t = traces
            .traces
            .iter()
            .find(|t| t.trace_id == id)
            .unwrap_or_else(|| panic!("{id} not in /debug/trace"));
        assert_eq!((r.method.as_str(), r.path.as_str()), ("-", "-"));
        assert_eq!((t.endpoint.as_str(), t.reason.as_str()), ("-", "error"));
        assert_eq!(r.stages, t.stages, "{id}: both views hold one record");
        r.stages.parse_us
    };
    let second_parse = parse_of(&second);
    assert!(
        second_parse < 150_000,
        "parse of the malformed request reached back to the previous one: {second_parse} µs"
    );
    // The server stamps the first byte when a worker reads it, which may
    // be a little after the client sent it.
    let trickled_parse = parse_of(&trickled);
    assert!(
        trickled_parse >= gap.as_micros() as u64 / 2,
        "a trickled first request parsed for {trickled_parse} µs"
    );

    handle.shutdown();
}

#[test]
fn every_response_kind_reads_the_same_in_both_debug_views() {
    let _x = obs_exclusive();
    // A depth-1 queue behind one pinned worker: further connections are
    // shed from the accept thread.
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let handle = start(cfg, static_bundle()).expect("start");
    let pin = TcpStream::connect(handle.addr()).expect("pin connect");
    let _ = (&pin).write_all(b"POST /v1/score HTTP/1.1\r\n");
    std::thread::sleep(Duration::from_millis(50));
    let filler = TcpStream::connect(handle.addr()).expect("filler connect");
    std::thread::sleep(Duration::from_millis(50));
    let mut shed = None;
    for _ in 0..6 {
        let Ok(mut c) = Client::connect(handle.addr()) else {
            continue;
        };
        if let Ok(resp) = c.post("/v1/score", SCORE_BODY) {
            if resp.status == 503 {
                shed = resp.header("x-mb-trace-id").map(str::to_owned);
                break;
            }
        }
    }
    let shed = shed.expect("a connection was shed from the accept thread");
    drop(pin);
    drop(filler);

    // Once the worker is free again: a malformed request, a sampled 200
    // and an unsampled 200.
    let malformed = loop {
        match send_raw(handle.addr(), &[b"NOT A REQUEST\r\n\r\n"], Duration::ZERO) {
            (400, id) => break id,
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let mut c = Client::connect(handle.addr()).expect("connect");
    let sampled = "00000000000000000000000000000def";
    let resp = c
        .request_tagged(
            "POST",
            "/v1/score",
            &[
                ("x-mb-trace-id", sampled.to_owned()),
                ("x-mb-sampled", "1".to_owned()),
            ],
            Some(SCORE_BODY),
        )
        .expect("sampled score");
    assert_eq!(resp.status, 200);
    assert_eq!(c.post("/v1/score", SCORE_BODY).expect("score").status, 200);
    drop(c);

    let (requests, traces) = debug_views(handle.addr(), 64);
    for id in [&shed, &malformed] {
        let r = requests
            .requests
            .iter()
            .find(|r| &r.trace_id == id)
            .unwrap_or_else(|| panic!("{id} not in /debug/requests"));
        assert_eq!((r.method.as_str(), r.path.as_str()), ("-", "-"));
    }
    let mut in_both = 0;
    for r in &requests.requests {
        let s = r.stages;
        assert_eq!(
            r.total_us,
            s.queue_us + s.parse_us + s.score_us + s.write_us
        );
        let Some(t) = traces.traces.iter().find(|t| t.trace_id == r.trace_id) else {
            continue;
        };
        in_both += 1;
        assert_eq!((t.status, t.stages), (r.status, r.stages), "{}", r.trace_id);
        assert_eq!(t.total_us, r.total_us, "{}", r.trace_id);
    }
    assert!(
        in_both >= 3,
        "shed, malformed and sampled are in both views"
    );
    assert!(traces.traces.iter().any(|t| t.trace_id == sampled));

    handle.shutdown();
}

#[test]
fn request_records_read_back_newest_first() {
    let _x = obs_exclusive();
    let handle = start(ServerConfig::default(), static_bundle()).expect("start");
    let mut c = Client::connect(handle.addr()).expect("connect");
    let ids: Vec<String> = (1..=300u128).map(trace::format_trace_id).collect();
    for id in &ids {
        let resp = c
            .request_tagged(
                "POST",
                "/v1/score",
                &[("x-mb-trace-id", id.clone())],
                Some(SCORE_BODY),
            )
            .expect("score");
        assert_eq!(resp.status, 200);
    }
    let resp = c.get("/debug/requests?last=300").expect("debug requests");
    let requests = DebugRequestsResponse::from_json(&resp.body_str()).expect("strict parse");
    let read: Vec<&str> = requests
        .requests
        .iter()
        .map(|r| r.trace_id.as_str())
        .collect();
    let newest_first: Vec<&str> = ids.iter().rev().map(String::as_str).collect();
    assert_eq!(read, newest_first);
    assert!(requests
        .requests
        .iter()
        .all(|r| r.method == "POST" && r.path == "/v1/score" && r.status == 200));

    handle.shutdown();
}
