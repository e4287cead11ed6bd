//! Integration tests for the generative surface (`/v1/suggest`,
//! `/v1/explain`) and the v1 error-envelope audit: every non-2xx body on
//! every endpoint must be the one [`ErrorEnvelope`] shape, byte for byte,
//! with a stable machine-readable `code`.
//!
//! [`ErrorEnvelope`]: microbrowse_api::v1::ErrorEnvelope

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use microbrowse_api::v1::{
    self, ErrorEnvelope, ExplainRequest, ScoreRequest, SpanKind, SpanSide, SuggestRequest,
};
use microbrowse_core::classifier::{ModelSpec, TrainedClassifier};
use microbrowse_core::features::OwnedTermFeat;
use microbrowse_core::serve::{DeployedModel, Fidelity, ServingBundle};
use microbrowse_server::client::Client;
use microbrowse_server::{start, BundleSource, ServerConfig};
use microbrowse_store::{FeatureKey, FeatureStat, StatsDb};

/// A rewrite-capable model over corpus stats where "pricey"→"cheap" is the
/// one CTR-positive substitution: `/v1/suggest` has exactly one good move.
fn generative_bundle() -> BundleSource {
    let stats = StatsDb::from_records([
        (
            FeatureKey::rewrite("cheap", "pricey"),
            FeatureStat { up: 9, down: 1 },
        ),
        (
            FeatureKey::rewrite("book", "find"),
            FeatureStat { up: 3, down: 3 },
        ),
    ]);
    let model = DeployedModel {
        spec: ModelSpec {
            name: "M5",
            terms: true,
            rewrites: true,
            positions: false,
            init_from_stats: false,
        },
        classifier: TrainedClassifier::Flat(microbrowse_ml::LogReg::from_parts(
            vec![2.0, -1.5],
            0.0,
        )),
        vocab: vec![
            OwnedTermFeat::Term("cheap".into()),
            OwnedTermFeat::Term("pricey".into()),
        ],
    };
    BundleSource::Static(Arc::new(
        ServingBundle::from_parts(model, stats, Fidelity::Full).expect("bundle"),
    ))
}

/// The term-only model the older endpoint tests use: no rewrite features,
/// so suggestions are structurally impossible (empty 200, never an error).
fn term_only_bundle() -> BundleSource {
    let model = DeployedModel {
        spec: ModelSpec::m1(),
        classifier: TrainedClassifier::Flat(microbrowse_ml::LogReg::from_parts(vec![1.0], 0.0)),
        vocab: vec![OwnedTermFeat::Term("cheap".into())],
    };
    BundleSource::Static(Arc::new(
        ServingBundle::from_parts(model, StatsDb::new(), Fidelity::Full).expect("bundle"),
    ))
}

#[test]
fn suggest_endpoint_returns_scored_variants() {
    let handle = start(ServerConfig::default(), generative_bundle()).expect("start");
    let mut c = Client::connect(handle.addr()).expect("connect");

    let resp = c
        .suggest(&SuggestRequest::new("book pricey flights"))
        .expect("suggest");
    assert!(!resp.suggestions.is_empty(), "expected suggestions");
    let top = &resp.suggestions[0];
    assert_eq!(top.creative, "book cheap flights");
    assert!(top.score > 0.0, "top variant must beat the input");
    assert_eq!(top.rewrites.len(), 1);
    assert_eq!(top.rewrites[0].from, "pricey");
    assert_eq!(top.rewrites[0].to, "cheap");
    assert_eq!(top.rewrites[0].line, 0);
    assert_eq!(top.rewrites[0].pos, 1);
    assert!((top.rewrites[0].delta - top.score).abs() < 1e-9);
    assert_eq!(resp.fidelity, v1::Fidelity::Full);
    // Static bundles carry no artifact generation.
    assert_eq!(resp.generation, None);

    // The raw wire body renders the uniform response tail.
    let raw = c
        .post("/v1/suggest", r#"{"creative":"book pricey flights"}"#)
        .expect("raw suggest");
    assert_eq!(raw.status, 200, "{}", raw.body_str());
    let body = raw.body_str();
    assert!(body.starts_with(r#"{"suggestions":["#), "{body}");
    assert!(body.contains(r#""count":"#), "{body}");
    assert!(body.contains(r#""fidelity":"full""#), "{body}");
    assert!(body.contains(r#""latency_us":"#), "{body}");

    // /version advertises the new surface.
    let version = c.get("/version").expect("version").body_str();
    assert!(version.contains("\"suggest\""), "{version}");
    assert!(version.contains("\"explain\""), "{version}");

    // Suggest latency is exported like the other endpoints'.
    let metrics = c.get("/metrics").expect("metrics").body_str();
    assert!(
        metrics.contains("microbrowse_http_suggest_latency_us"),
        "{metrics}"
    );
    handle.shutdown();
}

#[test]
fn suggest_knobs_cap_the_search_and_empty_is_a_valid_200() {
    let handle = start(ServerConfig::default(), generative_bundle()).expect("start");
    let mut c = Client::connect(handle.addr()).expect("connect");

    // top_k:1 truncates the ranked variants to one.
    let mut req = SuggestRequest::new("book pricey flights");
    req.beam_width = Some(4);
    req.max_depth = Some(1);
    req.top_k = Some(1);
    let resp = c.suggest(&req).expect("suggest");
    assert_eq!(resp.suggestions.len(), 1);

    // A creative with no known rewrites suggests nothing — 200, not 4xx.
    let resp = c
        .suggest(&SuggestRequest::new("unrelated words here"))
        .expect("suggest nothing");
    assert!(resp.suggestions.is_empty());
    handle.shutdown();
}

#[test]
fn term_only_model_suggests_nothing() {
    let handle = start(ServerConfig::default(), term_only_bundle()).expect("start");
    let mut c = Client::connect(handle.addr()).expect("connect");
    let resp = c
        .suggest(&SuggestRequest::new("cheap flights|book now"))
        .expect("suggest");
    assert!(resp.suggestions.is_empty(), "no rewrite features, no moves");
    handle.shutdown();
}

#[test]
fn explain_endpoint_attributes_spans_that_sum_to_the_score() {
    let handle = start(ServerConfig::default(), generative_bundle()).expect("start");
    let mut c = Client::connect(handle.addr()).expect("connect");

    let req = ExplainRequest {
        r: "book cheap flights".into(),
        s: "book pricey flights".into(),
    };
    let exp = c.explain(&req).expect("explain");
    // The explanation decomposes the exact served score.
    let served = c
        .score(&ScoreRequest {
            r: req.r.clone(),
            s: req.s.clone(),
        })
        .expect("score");
    assert_eq!(exp.score, served.score, "explain must match /v1/score");
    let sum: f64 = exp.bias + exp.spans.iter().map(|a| a.contribution).sum::<f64>();
    assert!((sum - exp.score).abs() < 1e-9, "{sum} vs {}", exp.score);

    // Term spans carry side/position; the R-side "cheap" pushes R up.
    let cheap = exp
        .spans
        .iter()
        .find(|a| a.kind == SpanKind::Term && a.text == "cheap")
        .expect("cheap span");
    assert_eq!(cheap.side, SpanSide::R);
    assert_eq!(cheap.line, 0);
    assert_eq!(cheap.pos, 1);
    assert!(cheap.contribution > 0.0);
    // The aligned rewrite span names both sides of the substitution.
    let rewrite = exp
        .spans
        .iter()
        .find(|a| a.kind == SpanKind::Rewrite)
        .expect("rewrite span");
    assert_eq!(rewrite.text, "cheap");
    assert_eq!(rewrite.to.as_deref(), Some("pricey"));
    assert!(rewrite.to_span.is_some());
    assert_eq!(exp.fidelity, v1::Fidelity::Full);
    handle.shutdown();
}

/// Read one raw HTTP response off a fresh socket: status code + body.
fn raw_roundtrip(addr: std::net::SocketAddr, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.write_all(request).expect("write");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                let text = String::from_utf8_lossy(&buf);
                if let Some(head_end) = text.find("\r\n\r\n") {
                    if let Some(len) = text[..head_end].lines().find_map(|l| {
                        l.to_ascii_lowercase()
                            .strip_prefix("content-length:")
                            .and_then(|v| v.trim().parse::<usize>().ok())
                    }) {
                        if buf.len() >= head_end + 4 + len {
                            break;
                        }
                    }
                }
            }
        }
    }
    let text = String::from_utf8_lossy(&buf).into_owned();
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The audit's core rule: a non-2xx body must be exactly the rendering of
/// the envelope it parses to — same bytes, no extra fields, a `code` set.
fn assert_canonical_envelope(name: &str, body: &str, code: &str) {
    let env = ErrorEnvelope::from_json(body)
        .unwrap_or_else(|e| panic!("{name}: body is not an envelope ({e}): {body}"));
    assert_eq!(
        body,
        env.to_json(),
        "{name}: body is not the canonical envelope rendering"
    );
    assert!(
        env.has_code(code),
        "{name}: wanted code {code:?}, got {:?}",
        env.code
    );
}

#[test]
fn error_envelopes_are_byte_exact_per_status() {
    let cfg = ServerConfig {
        max_batch: 2,
        max_beam: 8,
        max_suggestions: 4,
        ..ServerConfig::default()
    };
    let handle = start(cfg, term_only_bundle()).expect("start");
    let mut c = Client::connect(handle.addr()).expect("connect");

    struct Case {
        name: &'static str,
        method: &'static str,
        path: &'static str,
        headers: &'static [(&'static str, &'static str)],
        body: Option<&'static str>,
        status: u16,
        error: String,
        code: &'static str,
    }
    let syntax_error = ScoreRequest::from_json("{not json")
        .expect_err("malformed JSON must not parse")
        .to_string();
    // At this server's max_batch of 2 any ranking over 2 creatives is too
    // many pairs; 24 creatives is the first count over the default cap.
    let rank_24: &'static str = rank_body(24).leak();
    let cases = [
        Case {
            name: "score body not JSON",
            method: "POST",
            path: "/v1/score",
            headers: &[],
            body: Some("{not json"),
            status: 400,
            error: syntax_error,
            code: v1::CODE_BAD_REQUEST,
        },
        Case {
            name: "score body wrong shape",
            method: "POST",
            path: "/v1/score",
            headers: &[],
            body: Some(r#"{"r":"only one side"}"#),
            status: 400,
            error: v1::SCORE_REQUEST_SHAPE.to_string(),
            code: v1::CODE_BAD_REQUEST,
        },
        Case {
            name: "rank with one creative",
            method: "POST",
            path: "/v1/rank",
            headers: &[],
            body: Some(r#"{"creatives":["just one"]}"#),
            status: 400,
            error: v1::RANK_TOO_FEW.to_string(),
            code: v1::CODE_BAD_REQUEST,
        },
        Case {
            name: "batch body is an object",
            method: "POST",
            path: "/v1/batch",
            headers: &[],
            body: Some(r#"{"r":"a","s":"b"}"#),
            status: 400,
            error: v1::BATCH_REQUEST_SHAPE.to_string(),
            code: v1::CODE_BAD_REQUEST,
        },
        Case {
            name: "batch body truncated",
            method: "POST",
            path: "/v1/batch",
            headers: &[],
            body: Some(r#"[{"r":"a","s":"b"},{"r":"c","s":"#),
            status: 400,
            error: "body is not valid JSON (error at byte 32)".to_string(),
            code: v1::CODE_BAD_REQUEST,
        },
        Case {
            name: "batch item r is a number",
            method: "POST",
            path: "/v1/batch",
            headers: &[],
            body: Some(r#"[{"r":"a","s":"b"},{"r":1,"s":"d"}]"#),
            status: 400,
            error: v1::BATCH_REQUEST_SHAPE.to_string(),
            code: v1::CODE_BAD_REQUEST,
        },
        Case {
            // The escaped key decodes to "r", so the item is well formed
            // and the batch fails only its size cap.
            name: "batch item with an escaped key",
            method: "POST",
            path: "/v1/batch",
            headers: &[],
            body: Some(r#"[{"\u0072":"a","s":"b"},{"r":"c","s":"d"},{"r":"e","s":"f"}]"#),
            status: 413,
            error: "batch of 3 items over the limit of 2".to_string(),
            code: v1::CODE_TOO_LARGE,
        },
        Case {
            name: "rank over the pair cap",
            method: "POST",
            path: "/v1/rank",
            headers: &[],
            body: Some(rank_24),
            status: 413,
            error: "rank of 24 creatives is 276 pairs, over the limit of 2".to_string(),
            code: v1::CODE_TOO_LARGE,
        },
        Case {
            name: "suggest body missing creative",
            method: "POST",
            path: "/v1/suggest",
            headers: &[],
            body: Some("{}"),
            status: 400,
            error: v1::SUGGEST_REQUEST_SHAPE.to_string(),
            code: v1::CODE_BAD_REQUEST,
        },
        Case {
            name: "explain body wrong shape",
            method: "POST",
            path: "/v1/explain",
            headers: &[],
            body: Some(r#"{"r":1,"s":2}"#),
            status: 400,
            error: v1::SCORE_REQUEST_SHAPE.to_string(),
            code: v1::CODE_BAD_REQUEST,
        },
        Case {
            name: "malformed deadline header",
            method: "POST",
            path: "/v1/score",
            headers: &[("x-mb-deadline-ms", "nope")],
            body: Some(r#"{"r":"a","s":"b"}"#),
            status: 400,
            error: "x-mb-deadline-ms must be a positive integer (milliseconds)".to_string(),
            code: v1::CODE_BAD_DEADLINE,
        },
        Case {
            name: "unknown path",
            method: "GET",
            path: "/nope",
            headers: &[],
            body: None,
            status: 404,
            error: "no such endpoint: /nope".to_string(),
            code: v1::CODE_NOT_FOUND,
        },
        Case {
            name: "wrong method on suggest",
            method: "GET",
            path: "/v1/suggest",
            headers: &[],
            body: None,
            status: 405,
            error: "method not allowed".to_string(),
            code: v1::CODE_METHOD_NOT_ALLOWED,
        },
        Case {
            name: "wrong method on explain",
            method: "GET",
            path: "/v1/explain",
            headers: &[],
            body: None,
            status: 405,
            error: "method not allowed".to_string(),
            code: v1::CODE_METHOD_NOT_ALLOWED,
        },
        Case {
            name: "batch over cap",
            method: "POST",
            path: "/v1/batch",
            headers: &[],
            body: Some(r#"[{"r":"a","s":"b"},{"r":"c","s":"d"},{"r":"e","s":"f"}]"#),
            status: 413,
            error: "batch of 3 items over the limit of 2".to_string(),
            code: v1::CODE_TOO_LARGE,
        },
        Case {
            name: "beam over cap",
            method: "POST",
            path: "/v1/suggest",
            headers: &[],
            body: Some(r#"{"creative":"a","beam_width":64}"#),
            status: 413,
            error: "beam_width 64 outside [1, 8]".to_string(),
            code: v1::CODE_TOO_LARGE,
        },
        Case {
            name: "depth over cap",
            method: "POST",
            path: "/v1/suggest",
            headers: &[],
            body: Some(r#"{"creative":"a","max_depth":9}"#),
            status: 413,
            error: "max_depth 9 outside [1, 8]".to_string(),
            code: v1::CODE_TOO_LARGE,
        },
        Case {
            name: "top_k over cap",
            method: "POST",
            path: "/v1/suggest",
            headers: &[],
            body: Some(r#"{"creative":"a","top_k":5}"#),
            status: 413,
            error: "top_k 5 outside [1, 4]".to_string(),
            code: v1::CODE_TOO_LARGE,
        },
        Case {
            name: "feedback without a journal",
            method: "POST",
            path: "/v1/feedback",
            headers: &[],
            body: Some("{}"),
            status: 503,
            error: "feedback ingestion disabled (start with --feedback-journal)".to_string(),
            code: v1::CODE_UNAVAILABLE,
        },
    ];

    for case in &cases {
        let headers: Vec<(&str, String)> = case
            .headers
            .iter()
            .map(|(n, v)| (*n, v.to_string()))
            .collect();
        let resp = c
            .request_with_headers(case.method, case.path, &headers, case.body)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        assert_eq!(
            resp.status,
            case.status,
            "{}: {}",
            case.name,
            resp.body_str()
        );
        let expected = ErrorEnvelope::with_code(case.error.clone(), case.code).to_json();
        assert_eq!(resp.body_str(), expected, "{}", case.name);
        assert_canonical_envelope(case.name, &resp.body_str(), case.code);
    }

    // A body that is not UTF-8 cannot leave the typed client; send it raw.
    let raw = b"POST /v1/score HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n\xff\xfe";
    let (status, body) = raw_roundtrip(handle.addr(), raw);
    assert_eq!(status, 400, "{body}");
    let expected = ErrorEnvelope::with_code("body is not valid UTF-8", v1::CODE_BAD_REQUEST);
    assert_eq!(body, expected.to_json(), "non-UTF-8 body");

    // The connection survived every table case.
    let resp = c
        .post("/v1/score", r#"{"r":"cheap|a","s":"b|c"}"#)
        .expect("good after the audit");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    handle.shutdown();
}

/// A `/v1/rank` body with `n` distinct creatives.
fn rank_body(n: usize) -> String {
    let creatives = (0..n)
        .map(|i| format!("cheap offer {i}|line two"))
        .collect();
    v1::RankRequest { creatives }.to_json()
}

#[test]
fn rank_pairs_are_capped_at_max_batch() {
    let handle = start(ServerConfig::default(), term_only_bundle()).expect("start");
    let mut c = Client::connect(handle.addr()).expect("connect");
    // 23 creatives are 253 pairs, within the default max_batch of 256.
    let resp = c.post("/v1/rank", &rank_body(23)).expect("rank 23");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let ranked = v1::RankResponse::from_json(&resp.body_str()).expect("rank response");
    assert_eq!(ranked.order.len(), 23);
    // 24 are 276 pairs: the same 413 an over-cap batch gets.
    let resp = c.post("/v1/rank", &rank_body(24)).expect("rank 24");
    assert_eq!(resp.status, 413, "{}", resp.body_str());
    let expected = ErrorEnvelope::with_code(
        "rank of 24 creatives is 276 pairs, over the limit of 256",
        v1::CODE_TOO_LARGE,
    );
    assert_eq!(resp.body_str(), expected.to_json());
    handle.shutdown();
}

#[test]
fn shed_timeout_and_parser_errors_use_the_same_envelope() {
    // 504: a deadline that expired while the request sat queued.
    let handle = start(ServerConfig::default(), term_only_bundle()).expect("start");
    let mut c = Client::connect(handle.addr()).expect("connect");
    std::thread::sleep(Duration::from_millis(80));
    let hdr = [("x-mb-deadline-ms", "20".to_string())];
    let resp = c
        .request_with_headers(
            "POST",
            "/v1/score",
            &hdr,
            Some(r#"{"r":"cheap|a","s":"b|c"}"#),
        )
        .expect("shed response");
    assert_eq!(resp.status, 504, "{}", resp.body_str());
    let expected =
        ErrorEnvelope::with_code("deadline expired in queue", v1::CODE_DEADLINE_EXCEEDED);
    assert_eq!(resp.body_str(), expected.to_json(), "504 shed");
    handle.shutdown();

    // 503 from the accept thread: connection cap reached.
    let cfg = ServerConfig {
        workers: 1,
        max_conns: 2,
        queue_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let handle = start(cfg, term_only_bundle()).expect("start");
    let mut c1 = Client::connect(handle.addr()).expect("c1");
    assert_eq!(
        c1.post("/v1/score", r#"{"r":"cheap|a","s":"b|c"}"#)
            .expect("c1 served")
            .status,
        200
    );
    let _c2 = Client::connect(handle.addr()).expect("c2 queued");
    std::thread::sleep(Duration::from_millis(100));
    let mut c3 = Client::connect(handle.addr()).expect("c3");
    let resp = c3.get("/healthz").expect("rejected");
    assert_eq!(resp.status, 503, "{}", resp.body_str());
    let expected =
        ErrorEnvelope::with_code("server busy, connection limit reached", v1::CODE_OVERLOADED);
    assert_eq!(
        resp.body_str(),
        expected.to_json(),
        "503 accept-thread shed"
    );
    assert!(resp.header("retry-after").is_some());
    handle.shutdown();

    // 408: a request that stalls mid-body past the read timeout.
    let cfg = ServerConfig {
        read_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let handle = start(cfg, term_only_bundle()).expect("start");
    let raw = b"POST /v1/score HTTP/1.1\r\nHost: t\r\nContent-Length: 40\r\n\r\n{\"r\":";
    let (status, body) = raw_roundtrip(handle.addr(), raw);
    assert_eq!(status, 408, "{body}");
    let expected = ErrorEnvelope::with_code("request timed out", v1::CODE_TIMEOUT);
    assert_eq!(body, expected.to_json(), "408 mid-request timeout");
    handle.shutdown();

    // 413 from the parser: a declared body over the byte limit.
    let mut cfg = ServerConfig::default();
    cfg.limits.max_body_bytes = 64;
    let handle = start(cfg, term_only_bundle()).expect("start");
    let big = "x".repeat(100);
    let raw = format!(
        "POST /v1/score HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{big}",
        big.len()
    );
    let (status, body) = raw_roundtrip(handle.addr(), raw.as_bytes());
    assert_eq!(status, 413, "{body}");
    let expected = ErrorEnvelope::with_code("request body over limit", v1::CODE_TOO_LARGE);
    assert_eq!(body, expected.to_json(), "413 parser limit");
    handle.shutdown();
}
