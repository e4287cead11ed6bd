//! The load driver against an in-process server: every call lands in one
//! outcome, a refused connect is an IO error, a closed connection is
//! reopened, and an accept-thread reject is a shed carrying the trace id
//! the server echoed.

use std::collections::HashSet;
use std::time::Duration;

use microbrowse_bench::fixture::{pair_body, term_bundle};
use microbrowse_bench::load::{Load, Request, Tally};
use microbrowse_server::client::Client;
use microbrowse_server::{start, BundleSource, ServerConfig};

fn run(cfg: ServerConfig, clients: usize, request: fn(usize, u64) -> Request) -> Tally {
    let handle = start(cfg, BundleSource::Static(term_bundle())).expect("start");
    let load = Load::start(handle.addr(), clients, request);
    std::thread::sleep(Duration::from_millis(300));
    let (tally, elapsed) = load.stop();
    handle.shutdown();
    assert!(elapsed >= 0.3, "elapsed {elapsed}");
    tally
}

fn outcomes(t: &Tally) -> u64 {
    t.ok + t.shed_503 + t.shed_504 + t.other + t.io_errors + t.violations
}

#[test]
fn every_call_lands_in_exactly_one_outcome() {
    let t = run(ServerConfig::default(), 2, |c, i| match i % 3 {
        0 => Request::post("/v1/score", pair_body(c * 1000 + i as usize)),
        // Malformed JSON: a 400, an expected status.
        1 => Request::post("/v1/score", "{\"r\":".to_string()),
        // No such endpoint: a 404, which no scoring client expects.
        _ => Request::post("/v1/nope", pair_body(0)),
    });
    assert_eq!(t.calls, outcomes(&t), "{t:?}");
    assert!(t.ok > 0 && t.other > 0 && t.violations > 0, "{t:?}");
    assert_eq!(t.ok_latencies_us.len() as u64, t.ok);
    assert_eq!(t.ok_traces.len() as u64, t.ok, "every 200 echoes its id");
    assert!(t.longest_us >= *t.ok_latencies_us.iter().max().expect("a 200"));
}

#[test]
fn a_refused_connect_is_an_io_error() {
    // A port just bound and released has no listener.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("bind");
    let load = Load::start(addr, 1, |_, i| {
        Request::post("/v1/score", pair_body(i as usize))
    });
    std::thread::sleep(Duration::from_millis(100));
    let (t, _) = load.stop();
    assert!(t.io_errors > 0, "{t:?}");
    assert_eq!(t.ok, 0, "{t:?}");
    assert_eq!(t.calls, t.io_errors, "{t:?}");
}

#[test]
fn a_closing_answer_is_followed_by_a_reconnect() {
    // Every request asks the server to close after answering, so each call
    // after the first needs a fresh connection.
    let t = run(ServerConfig::default(), 1, |_, i| {
        Request::post("/v1/score", pair_body(i as usize)).header("connection", "close".into())
    });
    assert!(t.ok > 10, "{t:?}");
    assert_eq!(t.ok, t.calls, "no call went to a closed connection: {t:?}");
}

#[test]
fn an_accept_thread_reject_is_a_shed_with_its_echoed_trace() {
    let cfg = ServerConfig {
        max_conns: 1,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let handle = start(cfg, BundleSource::Static(term_bundle())).expect("start");
    // Hold the only connection the server admits.
    let mut holder = Client::connect(handle.addr()).expect("connect");
    assert_eq!(holder.get("/healthz").expect("healthz").status, 200);
    let load = Load::start(handle.addr(), 1, |_, i| {
        Request::post("/v1/score", pair_body(i as usize))
            .header("x-mb-trace-id", format!("{:032x}", u128::from(i) + 1))
    });
    std::thread::sleep(Duration::from_millis(300));
    let (t, _) = load.stop();
    drop(holder);
    handle.shutdown();

    assert!(t.shed_503 > 0, "{t:?}");
    assert_eq!(t.ok + t.violations, 0, "{t:?}");
    assert_eq!(t.calls, outcomes(&t), "{t:?}");
    // The accept thread answers before reading the request, so the id is
    // one it minted: each shed carries its own, none the client's tag.
    let sent: HashSet<u128> = (1..=t.calls as u128).collect();
    let echoed: HashSet<u128> = t.shed_traces.iter().copied().collect();
    assert_eq!(t.shed_traces.len() as u64, t.shed_503 + t.shed_504);
    assert_eq!(echoed.len(), t.shed_traces.len(), "minted ids are distinct");
    assert!(echoed.is_disjoint(&sent), "{echoed:?}");
}
