//! In-process integration tests for the HTTP server: endpoint semantics,
//! backpressure, hot reload under load, degraded health, graceful drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use microbrowse_api::debug::DebugTraceResponse;
use microbrowse_api::v1::ScoreResponse;
use microbrowse_core::classifier::{ModelSpec, TrainedClassifier};
use microbrowse_core::features::OwnedTermFeat;
use microbrowse_core::serve::{
    DeployedModel, Fidelity, LoadPolicy, ServingBundle, MODEL_SLOT_NAME, STATS_SLOT_NAME,
};
use microbrowse_server::client::{Client, HttpResponse};
use microbrowse_server::{start, BundleSource, DrainReport, ReloadSource, ServerConfig};
use microbrowse_store::{ArtifactSlot, StatsDb};

/// A tiny hand-built model: one term feature ("cheap"), positive weight —
/// any creative containing "cheap" beats one that does not.
fn model(weight: f64) -> DeployedModel {
    DeployedModel {
        spec: ModelSpec::m1(),
        classifier: TrainedClassifier::Flat(microbrowse_ml::LogReg::from_parts(vec![weight], 0.0)),
        vocab: vec![OwnedTermFeat::Term("cheap".into())],
    }
}

fn static_bundle(weight: f64) -> BundleSource {
    BundleSource::Static(Arc::new(
        ServingBundle::from_parts(model(weight), StatsDb::new(), Fidelity::Full).expect("bundle"),
    ))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mb-server-test-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn commit_model(dir: &Path, weight: f64) -> u64 {
    let slot = ArtifactSlot::new(dir, MODEL_SLOT_NAME);
    model(weight).commit_to_slot(&slot).expect("commit model")
}

#[test]
fn score_rank_version_and_metrics_endpoints() {
    let handle = start(ServerConfig::default(), static_bundle(1.0)).expect("start");
    let mut c = Client::connect(handle.addr()).expect("connect");

    let resp = c
        .post(
            "/v1/score",
            r#"{"r":"cheap flights|book now","s":"flights|book"}"#,
        )
        .expect("score");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let body = resp.body_str();
    assert!(body.contains("\"winner\":\"R\""), "{body}");
    assert!(body.contains("\"score\":"), "{body}");
    assert!(body.contains("\"fidelity\":\"full\""), "{body}");
    assert!(body.contains("\"latency_us\":"), "{body}");

    // Symmetric pair, reversed: S holds the winning term.
    let resp = c
        .post(
            "/v1/score",
            r#"{"r":"flights|book","s":"cheap flights|book now"}"#,
        )
        .expect("score reversed");
    assert!(
        resp.body_str().contains("\"winner\":\"S\""),
        "{}",
        resp.body_str()
    );

    let resp = c
        .post(
            "/v1/rank",
            r#"{"creatives":["flights|standard","cheap flights|save 20%","flights|fees apply"]}"#,
        )
        .expect("rank");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let body = resp.body_str();
    // The "cheap" creative (index 2, 1-based) must rank first.
    assert!(body.contains("\"order\":[2,"), "{body}");

    let resp = c.get("/version").expect("version");
    assert_eq!(resp.status, 200);
    assert!(
        resp.body_str().contains("microbrowse-server"),
        "{}",
        resp.body_str()
    );

    let resp = c.get("/metrics").expect("metrics");
    assert_eq!(resp.status, 200);
    let body = resp.body_str();
    assert!(body.contains("microbrowse_http_requests_total"), "{body}");
    assert!(body.contains("microbrowse_http_score_latency_us"), "{body}");
    assert!(
        body.contains("microbrowse_http_connections_total"),
        "{body}"
    );

    let report = handle.shutdown();
    assert_eq!(report.aborted, 0, "{report:?}");
}

#[test]
fn bad_requests_answer_4xx_without_killing_the_connection() {
    let handle = start(ServerConfig::default(), static_bundle(1.0)).expect("start");
    let mut c = Client::connect(handle.addr()).expect("connect");

    let resp = c.post("/v1/score", "{not json").expect("bad json");
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    let resp = c
        .post("/v1/score", r#"{"r":"only one side"}"#)
        .expect("missing field");
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    let resp = c
        .post("/v1/rank", r#"{"creatives":["just one"]}"#)
        .expect("short rank");
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    let resp = c.get("/nope").expect("unknown path");
    assert_eq!(resp.status, 404);
    let resp = c.post("/healthz", "{}").expect("wrong method");
    assert_eq!(resp.status, 405);
    // The same keep-alive connection still serves a good request.
    let resp = c
        .post("/v1/score", r#"{"r":"cheap|a","s":"b|c"}"#)
        .expect("good after bad");
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    handle.shutdown();
}

#[test]
fn healthz_reports_generations_queue_and_epoch() {
    let dir = tmp("healthz");
    let generation = commit_model(&dir, 1.0);
    let stats_gen = ArtifactSlot::new(&dir, STATS_SLOT_NAME)
        .commit(&microbrowse_store::file::to_bytes(&StatsDb::new()))
        .expect("commit stats");
    let source = ReloadSource {
        model_path: dir.clone(),
        stats_path: Some(dir.clone()),
        policy: LoadPolicy::Strict,
    };
    let handle = start(ServerConfig::default(), BundleSource::Artifacts(source)).expect("start");
    let mut c = Client::connect(handle.addr()).expect("connect");
    let resp = c.get("/healthz").expect("healthz");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let body = resp.body_str();
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(
        body.contains(&format!("\"model_generation\":{generation}")),
        "{body}"
    );
    assert!(
        body.contains(&format!("\"stats_generation\":{stats_gen}")),
        "{body}"
    );
    assert!(body.contains("\"queue_depth\":"), "{body}");
    assert!(body.contains("\"epoch\":0"), "{body}");
    assert!(body.contains("\"reloads\":0"), "{body}");
    assert!(body.contains("\"compiled_features\":"), "{body}");
    assert!(body.contains("\"align_cache_entries\":"), "{body}");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn saturated_queue_answers_503_with_retry_after() {
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let handle = start(cfg, static_bundle(1.0)).expect("start");

    // c1 occupies the single worker (idle keep-alive holds it in read for
    // the 2s socket timeout); c2 fills the queue; c3 must be rejected.
    let _c1 = Client::connect(handle.addr()).expect("c1");
    std::thread::sleep(Duration::from_millis(150));
    let _c2 = Client::connect(handle.addr()).expect("c2");
    std::thread::sleep(Duration::from_millis(150));
    let mut c3 = Client::connect(handle.addr()).expect("c3");
    let resp = c3.get("/healthz").expect("rejected request");
    assert_eq!(resp.status, 503, "{}", resp.body_str());
    assert_eq!(resp.header("retry-after"), Some("1"), "{resp:?}");

    handle.shutdown();
}

#[test]
fn hot_reload_under_load_drops_nothing() {
    let dir = tmp("reload");
    commit_model(&dir, 1.0);
    ArtifactSlot::new(&dir, STATS_SLOT_NAME)
        .commit(&microbrowse_store::file::to_bytes(&StatsDb::new()))
        .expect("commit stats");
    let source = ReloadSource {
        model_path: dir.clone(),
        stats_path: Some(dir.clone()),
        policy: LoadPolicy::Strict,
    };
    let cfg = ServerConfig {
        reload_poll: Duration::from_millis(50),
        ..ServerConfig::default()
    };
    let handle = start(cfg, BundleSource::Artifacts(source)).expect("start");
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicU64::new(0));
    let ok = Arc::new(AtomicU64::new(0));
    let loaders: Vec<_> = (0..2)
        .map(|_| {
            let (stop, errors, ok) = (Arc::clone(&stop), Arc::clone(&errors), Arc::clone(&ok));
            std::thread::spawn(move || {
                let mut c = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                while !stop.load(Ordering::Relaxed) {
                    match c.post("/v1/score", r#"{"r":"cheap|a","s":"b|c"}"#) {
                        Ok(r) if r.status == 200 => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(200));
    let committed = commit_model(&dir, 2.0);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut probe = Client::connect(addr).expect("probe");
    let mut reloaded = false;
    while Instant::now() < deadline {
        let resp = probe.get("/healthz").expect("healthz");
        if resp
            .body_str()
            .contains(&format!("\"model_generation\":{committed}"))
        {
            reloaded = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);
    for h in loaders {
        h.join().expect("loader thread");
    }
    assert!(reloaded, "generation {committed} never served");
    assert_eq!(
        errors.load(Ordering::Relaxed),
        0,
        "requests failed across reload"
    );
    assert!(ok.load(Ordering::Relaxed) > 0, "no successful requests");
    assert!(handle.reloads() >= 1);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degraded_bundle_makes_healthz_503_with_reason() {
    let dir = tmp("degraded");
    commit_model(&dir, 1.0);
    // Commit a corrupted stats snapshot: valid slot framing around bytes
    // whose payload CRC no longer matches, so the snapshot decoder rejects
    // it and Degrade policy serves term-only.
    let good = microbrowse_store::file::to_bytes(&StatsDb::new());
    let corrupt = microbrowse_faultinject::bit_flip(&good, good.len() / 2, 0x40);
    ArtifactSlot::new(&dir, STATS_SLOT_NAME)
        .commit(&corrupt)
        .expect("commit corrupt stats");

    let source = ReloadSource {
        model_path: dir.clone(),
        stats_path: Some(dir.clone()),
        policy: LoadPolicy::Degrade,
    };
    let handle = start(ServerConfig::default(), BundleSource::Artifacts(source)).expect("start");
    assert!(handle.degraded());
    let mut c = Client::connect(handle.addr()).expect("connect");
    let resp = c.get("/healthz").expect("healthz");
    assert_eq!(resp.status, 503, "{}", resp.body_str());
    let body = resp.body_str();
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(body.contains("\"degrade_reason\":"), "{body}");
    // Scoring still works, reporting degraded fidelity per response.
    let resp = c
        .post("/v1/score", r#"{"r":"cheap|a","s":"b|c"}"#)
        .expect("score");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert!(
        resp.body_str().contains("\"fidelity\":\"degraded\""),
        "{}",
        resp.body_str()
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Zero every `"latency_us":<digits>` value so wire bodies can be compared
/// byte-for-byte modulo timing.
fn normalize_latency(body: &str) -> String {
    let key = "\"latency_us\":";
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(i) = rest.find(key) {
        out.push_str(&rest[..i + key.len()]);
        out.push('0');
        rest = rest[i + key.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn batch_of_one_matches_single_score_byte_for_byte() {
    // `model(1.0)` plus a trigram that only a creative whose `|` failed to
    // split into lines would have ("cheap flights|book now" read as one
    // line), so every spelling below must split like the plain one.
    let mut m = model(1.0);
    m.classifier = TrainedClassifier::Flat(microbrowse_ml::LogReg::from_parts(vec![1.0, 0.5], 0.0));
    m.vocab.push(OwnedTermFeat::Term("flights book now".into()));
    let bundle = ServingBundle::from_parts(m, StatsDb::new(), Fidelity::Full).expect("bundle");
    let handle = start(
        ServerConfig::default(),
        BundleSource::Static(Arc::new(bundle)),
    )
    .expect("start");
    let mut c = Client::connect(handle.addr()).expect("connect");

    let single = c
        .post(
            "/v1/score",
            r#"{"r":"cheap flights|book now","s":"flights|book"}"#,
        )
        .expect("score");
    assert_eq!(single.status, 200, "{}", single.body_str());

    // The pair as clients render it, with its lines padded (trimmed away
    // by the wire grammar), and with its separators escaped (`\u007c` is a
    // `|` once decoded, so it still separates lines): each spelling scores
    // as the same pair, alone and as a batch of one.
    let spellings = [
        r#"{"r":"cheap flights|book now","s":"flights|book"}"#,
        r#"{"r":"  cheap flights | book now ","s":"flights |book "}"#,
        r#"{"r":"cheap flights\u007cbook now","s":"flights\u007cbook"}"#,
    ];
    for pair in spellings {
        let alone = c.post("/v1/score", pair).expect("score");
        assert_eq!(alone.status, 200, "{}", alone.body_str());
        assert_eq!(
            normalize_latency(&alone.body_str()),
            normalize_latency(&single.body_str()),
            "{pair} scored differently"
        );

        let batch = c.post("/v1/batch", &format!("[{pair}]")).expect("batch");
        assert_eq!(batch.status, 200, "{}", batch.body_str());
        let body = batch.body_str();
        assert!(body.contains("\"count\":1"), "{body}");

        // The lone result object must be the /v1/score body, byte for
        // byte, once latency (the only nondeterministic field) is zeroed.
        let start_i = body.find("\"results\":[").expect("results array") + "\"results\":[".len();
        let end_i = body.rfind("],\"count\"").expect("count after results");
        let item = &body[start_i..end_i];
        assert_eq!(
            normalize_latency(item),
            normalize_latency(&single.body_str()),
            "batch item of {pair} diverged from /v1/score"
        );
    }
    handle.shutdown();
}

#[test]
fn batch_over_max_batch_answers_413() {
    let cfg = ServerConfig {
        max_batch: 2,
        ..ServerConfig::default()
    };
    let handle = start(cfg, static_bundle(1.0)).expect("start");
    let mut c = Client::connect(handle.addr()).expect("connect");

    let ok = c
        .post(
            "/v1/batch",
            r#"[{"r":"cheap|a","s":"b|c"},{"r":"x|y","s":"cheap|z"}]"#,
        )
        .expect("batch at cap");
    assert_eq!(ok.status, 200, "{}", ok.body_str());

    let over = c
        .post(
            "/v1/batch",
            r#"[{"r":"a|b","s":"c|d"},{"r":"e|f","s":"g|h"},{"r":"i|j","s":"k|l"}]"#,
        )
        .expect("batch over cap");
    assert_eq!(over.status, 413, "{}", over.body_str());
    let body = over.body_str();
    assert!(body.contains("over the limit of 2"), "{body}");

    // The connection survives the 413.
    let resp = c
        .post("/v1/score", r#"{"r":"cheap|a","s":"b|c"}"#)
        .expect("score after 413");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    handle.shutdown();
}

#[test]
fn batch_endpoint_and_bad_batch_bodies() {
    let handle = start(ServerConfig::default(), static_bundle(1.0)).expect("start");
    let mut c = Client::connect(handle.addr()).expect("connect");

    let resp = c
        .post(
            "/v1/batch",
            r#"[{"r":"cheap|a","s":"b|c"},{"r":"b|c","s":"cheap|a"}]"#,
        )
        .expect("batch");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let body = resp.body_str();
    assert!(body.contains("\"winner\":\"R\""), "{body}");
    assert!(body.contains("\"winner\":\"S\""), "{body}");
    assert!(body.contains("\"count\":2"), "{body}");
    assert!(body.contains("\"latency_us\":"), "{body}");

    let resp = c.post("/v1/batch", r#"{"r":"a","s":"b"}"#).expect("object");
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    let resp = c.post("/v1/batch", r#"[{"r":"a"}]"#).expect("missing s");
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    let resp = c.get("/v1/batch").expect("wrong method");
    assert_eq!(resp.status, 405);

    // Batch metrics are exported.
    let resp = c.get("/metrics").expect("metrics");
    let body = resp.body_str();
    assert!(body.contains("microbrowse_batch_requests_total"), "{body}");
    assert!(body.contains("microbrowse_batch_items_total"), "{body}");
    assert!(body.contains("microbrowse_batch_size"), "{body}");
    assert!(body.contains("microbrowse_http_batch_latency_us"), "{body}");
    handle.shutdown();
}

/// A `POST` with `headers`, as raw request bytes.
fn raw_post(path: &str, headers: &[(&str, &str)], body: &str) -> String {
    let mut out = format!("POST {path} HTTP/1.1\r\nContent-Length: {}\r\n", body.len());
    for (name, value) in headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    out + "\r\n" + body
}

/// Read one response off a raw stream.
fn read_response(stream: &mut TcpStream) -> HttpResponse {
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
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    let len = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map_or(0, |(_, v)| v.parse().expect("content length"));
    let mut body = vec![0; len];
    stream.read_exact(&mut body).expect("read body");
    HttpResponse {
        status,
        headers,
        body,
    }
}

fn connect_raw(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream
}

#[test]
fn pipelined_scores_are_answered_one_at_a_time() {
    let handle = start(ServerConfig::default(), static_bundle(1.0)).expect("start");
    // Eight scores in one write, each with its own trace id and sampled so
    // /debug/trace retains it; the winner alternates.
    let bodies: Vec<String> = (0..8)
        .map(|i| match i % 2 {
            0 => format!(r#"{{"r":"cheap flights {i}|book now","s":"flights {i}|book"}}"#),
            _ => format!(r#"{{"r":"flights {i}|book","s":"cheap flights {i}|book now"}}"#),
        })
        .collect();
    let ids: Vec<String> = (1..=8u128)
        .map(|i| format!("{:032x}", 0xb0_0000 + i))
        .collect();
    let burst: String = bodies
        .iter()
        .zip(&ids)
        .map(|(body, id)| {
            let headers = [("X-Mb-Trace-Id", id.as_str()), ("X-Mb-Sampled", "1")];
            raw_post("/v1/score", &headers, body)
        })
        .collect();
    let mut stream = connect_raw(handle.addr());
    stream.write_all(burst.as_bytes()).expect("write burst");

    // In order, and each the answer the same request gets sent alone.
    let mut alone = Client::connect(handle.addr()).expect("connect");
    let without_latency = |resp: &HttpResponse| {
        let mut score = ScoreResponse::from_json(&resp.body_str()).expect("score response");
        score.latency_us = 0;
        score
    };
    for (body, id) in bodies.iter().zip(&ids) {
        let resp = read_response(&mut stream);
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        assert_eq!(resp.header("x-mb-trace-id"), Some(id.as_str()));
        let single = alone.post("/v1/score", body).expect("score alone");
        assert_eq!(without_latency(&resp), without_latency(&single), "{body}");
    }

    // Each request is its own trace, with its own request span.
    let resp = alone.get("/debug/trace?last=64").expect("debug trace");
    let traces = DebugTraceResponse::from_json(&resp.body_str()).expect("strict parse");
    for id in &ids {
        let trace = traces
            .traces
            .iter()
            .find(|t| &t.trace_id == id)
            .unwrap_or_else(|| panic!("{id} not retained"));
        assert_eq!((trace.reason.as_str(), trace.status), ("sampled", 200));
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["serve.request"], "{id}");
    }
    drop((stream, alone));
    handle.shutdown();
}

#[test]
fn a_pipelined_request_queues_behind_the_one_before() {
    let handle = start(ServerConfig::default(), static_bundle(1.0)).expect("start");
    // A slow head, a rank of 23 distinct creatives (253 pairs, the most the
    // default max_batch admits), with a score pipelined behind it. Both fit
    // the server's first read, so the score waits in the reader's buffer
    // while the rank is handled and written: that wait is its queue stage,
    // not its parse.
    let creatives: Vec<String> = (0..23)
        .map(|i| format!(r#""cheap flights {i}|book now {i}""#))
        .collect();
    let rank = format!(r#"{{"creatives":[{}]}}"#, creatives.join(","));
    let score = r#"{"r":"cheap|a","s":"b|c"}"#;
    let timing = [("X-Mb-Server-Timing", "1")];
    let burst = raw_post("/v1/rank", &timing, &rank) + &raw_post("/v1/score", &timing, score);
    assert!(burst.len() < 4096, "one read holds both requests");
    let mut stream = connect_raw(handle.addr());
    stream.write_all(burst.as_bytes()).expect("write burst");

    // `queue=…;parse=…;score=…` of a response, in µs.
    let stages = |resp: &HttpResponse| -> Vec<u64> {
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let timing = resp.header("x-mb-server-timing").expect("server timing");
        timing
            .split(';')
            .map(|kv| kv.split_once('=').expect("stage=µs").1.parse().expect("µs"))
            .collect()
    };
    let head = stages(&read_response(&mut stream));
    let next = stages(&read_response(&mut stream));
    let (queue, parse, head_score) = (next[0], next[1], head[2]);
    assert!(parse < queue, "queue={queue} parse={parse}");
    assert!(
        queue + 1 >= head_score,
        "queue={queue} head score={head_score}"
    );
    drop(stream);
    handle.shutdown();
}

#[test]
fn the_drain_counts_each_answer_by_its_kind() {
    // One worker, held on an idle keep-alive session until its read times
    // out, well after the drain begins, while three connections queue
    // behind it with one score request each. The drain then serves the
    // queue: a routed 200 counts as drained, a deadline 504 as aborted, and
    // a bad-deadline 400 as neither.
    let cfg = ServerConfig {
        workers: 1,
        read_timeout: Duration::from_secs(1),
        ..ServerConfig::default()
    };
    let handle = start(cfg, static_bundle(1.0)).expect("start");
    let mut held = Client::connect(handle.addr()).expect("connect");
    assert_eq!(held.get("/healthz").expect("healthz").status, 200);
    let body = r#"{"r":"cheap|a","s":"b|c"}"#;
    let queued: Vec<(TcpStream, u16)> = [
        (&[][..], 200),
        (&[("X-Mb-Deadline-Ms", "1")], 504),
        (&[("X-Mb-Deadline-Ms", "nope")], 400),
    ]
    .into_iter()
    .map(|(headers, status)| {
        let mut stream = connect_raw(handle.addr());
        stream
            .write_all(raw_post("/v1/score", headers, body).as_bytes())
            .expect("write");
        (stream, status)
    })
    .collect();
    // Let the accept thread queue all three and the 1 ms budget run out.
    std::thread::sleep(Duration::from_millis(100));
    let report = handle.shutdown();
    for (mut stream, status) in queued {
        assert_eq!(read_response(&mut stream).status, status);
    }
    assert_eq!(
        report,
        DrainReport {
            drained: 1,
            aborted: 1
        }
    );
}

#[test]
fn a_request_on_a_session_idle_when_the_drain_began_is_drained() {
    // One worker waits on an idle keep-alive session when the drain begins
    // on another thread; a score arrives on that session 100 ms later. It
    // is answered as part of the drain: the session closes, and the report
    // counts it.
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let handle = start(cfg, static_bundle(1.0)).expect("start");
    let mut stream = connect_raw(handle.addr());
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .expect("write healthz");
    assert_eq!(read_response(&mut stream).status, 200);
    let drain = std::thread::spawn(move || handle.shutdown());
    std::thread::sleep(Duration::from_millis(100));
    stream
        .write_all(raw_post("/v1/score", &[], r#"{"r":"cheap|a","s":"b|c"}"#).as_bytes())
        .expect("write score");
    let resp = read_response(&mut stream);
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(resp.header("connection"), Some("close"));
    drop(stream);
    assert_eq!(
        drain.join().expect("shutdown"),
        DrainReport {
            drained: 1,
            aborted: 0
        }
    );
}

#[test]
fn shutdown_drains_in_flight_and_reports() {
    let handle = start(ServerConfig::default(), static_bundle(1.0)).expect("start");
    let mut c = Client::connect(handle.addr()).expect("connect");
    let resp = c
        .post("/v1/score", r#"{"r":"cheap|a","s":"b|c"}"#)
        .expect("score");
    assert_eq!(resp.status, 200);
    drop(c);
    let report = handle.shutdown();
    assert_eq!(report.aborted, 0, "{report:?}");
}
