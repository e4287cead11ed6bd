//! In-process integration tests for the HTTP server: endpoint semantics,
//! backpressure, hot reload under load, degraded health, graceful drain.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use microbrowse_core::classifier::{ModelSpec, TrainedClassifier};
use microbrowse_core::features::OwnedTermFeat;
use microbrowse_core::serve::{
    DeployedModel, Fidelity, LoadPolicy, ServingBundle, MODEL_SLOT_NAME, STATS_SLOT_NAME,
};
use microbrowse_server::client::Client;
use microbrowse_server::{start, BundleSource, ReloadSource, ServerConfig};
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

#[test]
fn pipelined_scores_are_coalesced_into_batches() {
    use std::io::{Read as _, Write as _};

    let handle = start(ServerConfig::default(), static_bundle(1.0)).expect("start");
    let addr = handle.addr();
    let body = r#"{"r":"cheap|a","s":"b|c"}"#;
    let one = format!(
        "POST /v1/score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let burst = one.repeat(8);

    // Coalescing needs the burst to land in the server's read buffer in one
    // go; retry a few times in case the kernel splits the segments.
    let mut coalesced = 0u64;
    for _ in 0..5 {
        let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
        raw.set_nodelay(true).expect("nodelay");
        raw.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        raw.write_all(burst.as_bytes()).expect("write burst");
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        while bytes_of(&buf, "\"winner\":\"R\"") < 8 {
            let n = raw.read(&mut chunk).expect("read responses");
            assert!(
                n > 0,
                "connection closed early: {}",
                String::from_utf8_lossy(&buf)
            );
            buf.extend_from_slice(&chunk[..n]);
        }
        let text = String::from_utf8_lossy(&buf);
        assert_eq!(bytes_of(&buf, "HTTP/1.1 200"), 8, "{text}");
        drop(raw);

        let mut c = Client::connect(addr).expect("connect");
        let metrics = c.get("/metrics").expect("metrics").body_str();
        coalesced = metric_value(&metrics, "microbrowse_batch_coalesced_total");
        if coalesced > 0 {
            break;
        }
    }
    assert!(coalesced > 0, "no pipelined requests were coalesced");
    handle.shutdown();
}

/// Occurrences of `needle` in `haystack` bytes.
fn bytes_of(haystack: &[u8], needle: &str) -> usize {
    let needle = needle.as_bytes();
    if haystack.len() < needle.len() {
        return 0;
    }
    (0..=haystack.len() - needle.len())
        .filter(|&i| &haystack[i..i + needle.len()] == needle)
        .count()
}

/// The value of a plain counter line in a Prometheus text dump.
fn metric_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
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
