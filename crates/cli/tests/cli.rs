//! End-to-end test of the `microbrowse` binary: train → persist → eval →
//! score → rank → optimize, through real files and real process spawns.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_microbrowse")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn microbrowse")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("microbrowse-cli-{}-{name}", std::process::id()))
}

#[test]
fn full_cli_workflow() {
    let model = tmp("model.mbm");
    let stats = tmp("stats.mbs");
    let model_s = model.to_str().unwrap();
    let stats_s = stats.to_str().unwrap();

    // train (small corpus to keep the test quick)
    let out = run(&[
        "train",
        "--model",
        model_s,
        "--stats",
        stats_s,
        "--spec",
        "m4",
        "--adgroups",
        "400",
        "--seed",
        "9",
    ]);
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists() && stats.exists());

    // eval on a held-out corpus: must beat chance comfortably
    let out = run(&[
        "eval",
        "--model",
        model_s,
        "--stats",
        stats_s,
        "--adgroups",
        "80",
        "--seed",
        "6",
    ]);
    assert!(
        out.status.success(),
        "eval failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let acc: f64 = stdout
        .split("accuracy ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|tok| tok.parse().ok())
        .unwrap_or_else(|| panic!("no accuracy in {stdout:?}"));
    assert!(acc > 0.55, "held-out accuracy {acc} barely above chance");

    // eval --degraded true: term-only fidelity on demand, stats healthy
    let out = run(&[
        "eval",
        "--model",
        model_s,
        "--stats",
        stats_s,
        "--adgroups",
        "80",
        "--seed",
        "6",
        "--degraded",
        "true",
    ]);
    assert!(
        out.status.success(),
        "degraded eval failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[fidelity degraded"), "{stdout}");
    assert!(stdout.contains("accuracy "), "{stdout}");

    // score: the 20%-off creative must beat the fine-print one
    let out = run(&[
        "score", "--model", model_s, "--stats", stats_s,
        "--r", "skyhop travel|today save 20% for travelers flights to tokyo|no reservation costs today more legroom",
        "--s", "skyhop travel|today check availability for travelers flights to tokyo|fees may apply today more legroom",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("R wins"), "score output: {stdout}");

    // rank: three creatives, the strong one first
    let out = run(&[
        "rank", "--model", model_s, "--stats", stats_s,
        "--creative", "skyhop travel|today save 20% for travelers flights to tokyo|no reservation costs today more legroom",
        "--creative", "skyhop travel|today check availability for travelers flights to tokyo|fees may apply today more legroom",
        "--creative", "skyhop travel|today browse deals for travelers flights to tokyo|great rates today more legroom",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The fine-print creative (check availability / fees may apply) is the
    // unambiguous loser; a small-corpus model may shuffle the two winners.
    let last = stdout
        .lines()
        .find(|l| l.contains("#3"))
        .expect("ranking line");
    assert!(
        last.contains("creative 2"),
        "expected the fees creative last: {stdout}"
    );

    // optimize: both genuinely-improving rewrites get accepted
    let out = run(&[
        "optimize", "--model", model_s, "--stats", stats_s,
        "--base", "skyhop travel|today find cheap for travelers flights to tokyo|basic fare rules today great rates",
        "--rewrite", "find cheap=save 20%",
        "--rewrite", "basic fare rules=free checked bags",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("save 20%"), "optimize output: {stdout}");
    assert!(
        stdout.contains("accepted 2 edit(s)"),
        "optimize output: {stdout}"
    );

    std::fs::remove_file(&model).ok();
    std::fs::remove_file(&stats).ok();
}

#[test]
fn helpful_errors() {
    let out = run(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = run(&["frobnicate"]);
    assert!(!out.status.success());

    let out = run(&[
        "score",
        "--model",
        "/nonexistent.mbm",
        "--stats",
        "/nonexistent.mbs",
        "--r",
        "a|b|c",
        "--s",
        "a|b|d",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    let out = run(&["train", "--model", "/tmp/x.mbm"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--stats"));
}

/// Usage errors (malformed invocation) exit 2; runtime failures (missing
/// or damaged artifacts) exit 1 — a deploy script can tell them apart.
#[test]
fn exit_codes_distinguish_usage_from_runtime() {
    // Malformed flag syntax (no --prefix).
    let out = run(&["train", "model", "x.mbm"]);
    assert_eq!(out.status.code(), Some(2), "bare flag should be usage");
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected --flag"));

    // Flag without a value.
    let out = run(&["eval", "--model"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));

    // Unparsable numeric value.
    let out = run(&[
        "train",
        "--model",
        "x",
        "--stats",
        "y",
        "--adgroups",
        "lots",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--adgroups"));

    // Unknown spec and unknown policy are usage errors too.
    let out = run(&["train", "--model", "x", "--stats", "y", "--spec", "m9"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["eval", "--model", "x", "--stats", "y", "--policy", "yolo"]);
    assert_eq!(out.status.code(), Some(2));

    // Nonexistent --model is a runtime failure: exit 1, with the path.
    let out = run(&[
        "eval",
        "--model",
        "/nonexistent/model.mbm",
        "--stats",
        "/nonexistent/stats.mbs",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("/nonexistent/model.mbm"),
        "error must name the path: {stderr}"
    );
}

#[test]
fn validate_verdicts() {
    let model = tmp("validate-model.mbm");
    let stats = tmp("validate-stats.mbs");
    let model_s = model.to_str().unwrap();
    let stats_s = stats.to_str().unwrap();

    let out = run(&[
        "train",
        "--model",
        model_s,
        "--stats",
        stats_s,
        "--spec",
        "m4",
        "--adgroups",
        "120",
        "--seed",
        "3",
    ]);
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Healthy bundle: verdict=ok, exit 0, machine-readable fields present.
    let out = run(&["validate", "--model", model_s, "--stats", stats_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verdict=ok"), "{stdout}");
    assert!(stdout.contains("artifact=model"), "{stdout}");
    assert!(stdout.contains("artifact=stats"), "{stdout}");
    assert!(
        stdout.contains("check=vocab_weights_agreement status=ok"),
        "{stdout}"
    );

    // Flip a payload byte: CRC check must fail, verdict=fail, exit 1.
    let mut bytes = std::fs::read(&model).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let broken = tmp("validate-broken.mbm");
    std::fs::write(&broken, &bytes).unwrap();
    let out = run(&["validate", "--model", broken.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verdict=fail"), "{stdout}");
    assert!(stdout.contains("check=crc"), "{stdout}");

    // Wrong file type entirely: bad magic.
    let text = tmp("validate-not-a-model.mbm");
    std::fs::write(&text, b"definitely not a model artifact").unwrap();
    let out = run(&["validate", "--model", text.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("check=magic"), "{stdout}");

    for p in [&model, &stats, &broken, &text] {
        std::fs::remove_file(p).ok();
    }
}

/// Slot directories end to end: train commits generation 1 then 2; a torn
/// generation 3 appears (simulated crash mid-deploy); eval and validate
/// still serve generation 2.
#[test]
fn slot_directories_roll_back_torn_generations() {
    let dir = tmp("slots");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let dir_s = dir.to_str().unwrap();

    for seed in ["3", "4"] {
        let out = run(&[
            "train",
            "--model",
            dir_s,
            "--stats",
            dir_s,
            "--spec",
            "m1",
            "--adgroups",
            "120",
            "--seed",
            seed,
        ]);
        assert!(
            out.status.success(),
            "train into slot failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let stdout_of = |args: &[&str]| {
        let out = run(args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let healthy = stdout_of(&["validate", "--model", dir_s, "--stats", dir_s]);
    assert!(healthy.contains("generation=2"), "{healthy}");

    // A torn generation 3: header only, payload cut off.
    std::fs::write(dir.join("model.mbm.gen-3"), b"MBMODEL\0torn").unwrap();
    let recovered = stdout_of(&["validate", "--model", dir_s, "--stats", dir_s]);
    assert!(recovered.contains("generation=2"), "{recovered}");
    assert!(recovered.contains("verdict=ok"), "{recovered}");

    let eval = stdout_of(&[
        "eval",
        "--model",
        dir_s,
        "--stats",
        dir_s,
        "--adgroups",
        "40",
        "--seed",
        "9",
    ]);
    assert!(eval.contains("accuracy"), "{eval}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `--policy degrade` keeps serving commands alive when the stats snapshot
/// is gone, and says so; strict fails with a typed error.
#[test]
fn degrade_policy_serves_without_stats() {
    let model = tmp("degrade-model.mbm");
    let stats = tmp("degrade-stats.mbs");
    let model_s = model.to_str().unwrap();

    let out = run(&[
        "train",
        "--model",
        model_s,
        "--stats",
        stats.to_str().unwrap(),
        "--spec",
        "m5",
        "--adgroups",
        "120",
        "--seed",
        "5",
    ]);
    assert!(out.status.success());
    std::fs::remove_file(&stats).unwrap(); // the outage

    let score_args = |policy: &'static str| {
        vec![
            "score",
            "--model",
            model_s,
            "--stats",
            "/nonexistent/stats.mbs",
            "--policy",
            policy,
            "--r",
            "a|save 20% today|c",
            "--s",
            "a|fees may apply|c",
        ]
    };
    let out = run(&score_args("strict"));
    assert_eq!(out.status.code(), Some(1));

    let out = run(&score_args("degrade"));
    assert!(
        out.status.success(),
        "degrade must serve: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("degraded"), "warning expected: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fidelity: degraded"), "{stdout}");

    std::fs::remove_file(&model).ok();
}

/// Pull the integer value of `"key":N` out of a JSONL record.
fn json_u64(line: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let rest = &line[line
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + tag.len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {line}"))
}

/// `--trace-json` on a full engine run: every line is valid JSON, every
/// pipeline stage appears, and stage spans nest under the experiment root.
#[test]
fn trace_json_covers_pipeline_stages() {
    let trace = tmp("trace.jsonl");
    let out = run(&[
        "experiment",
        "--adgroups",
        "60",
        "--folds",
        "3",
        "--seed",
        "11",
        "--trace-json",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "experiment failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("accuracy"));

    let body = std::fs::read_to_string(&trace).expect("trace file written");
    let lines: Vec<&str> = body.lines().collect();
    assert!(lines.len() >= 10, "suspiciously few records: {body}");
    for line in &lines {
        assert!(
            microbrowse_obs::json::Json::parse(line).is_ok(),
            "invalid JSONL line: {line}"
        );
    }
    for stage in [
        "pipeline.experiment",
        "pipeline.parse",
        "pipeline.cache",
        "pipeline.stats",
        "pipeline.encode",
        "pipeline.fold",
        "pipeline.train",
        "pipeline.eval",
    ] {
        assert!(
            lines.iter().any(|l| l.contains(&format!("\"{stage}\""))),
            "no {stage} span in trace: {body}"
        );
    }

    // Nesting: the experiment span is the root (parent 0); parse runs on
    // the main thread and fold spans run on workers, but both must carry
    // the experiment span's id as parent — proof the trace context crossed
    // the thread boundary.
    let root = lines
        .iter()
        .find(|l| l.contains("\"pipeline.experiment\""))
        .expect("experiment span");
    assert_eq!(json_u64(root, "parent"), 0, "{root}");
    let root_id = json_u64(root, "id");
    for stage in ["pipeline.parse", "pipeline.fold"] {
        let line = lines
            .iter()
            .find(|l| l.contains(&format!("\"{stage}\"")))
            .unwrap();
        assert_eq!(json_u64(line, "parent"), root_id, "{line}");
    }

    std::fs::remove_file(&trace).ok();
}

/// `--json true` turns score and rank output into single-line JSON with
/// score, winner, fidelity, and latency fields.
#[test]
fn score_and_rank_json_output() {
    let model = tmp("json-model.mbm");
    let stats = tmp("json-stats.mbs");
    let model_s = model.to_str().unwrap();
    let stats_s = stats.to_str().unwrap();
    let out = run(&[
        "train",
        "--model",
        model_s,
        "--stats",
        stats_s,
        "--spec",
        "m4",
        "--adgroups",
        "120",
        "--seed",
        "8",
    ]);
    assert!(out.status.success());

    let out = run(&[
        "score",
        "--model",
        model_s,
        "--stats",
        stats_s,
        "--r",
        "a|save 20% today|c",
        "--s",
        "a|fees may apply|c",
        "--json",
        "true",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(
        microbrowse_obs::json::Json::parse(line).is_ok(),
        "bad JSON: {line}"
    );
    for field in [
        "\"command\":\"score\"",
        "\"score\":",
        "\"winner\":",
        "\"fidelity\":\"full\"",
        "\"latency_us\":",
    ] {
        assert!(line.contains(field), "missing {field}: {line}");
    }

    let out = run(&[
        "rank",
        "--model",
        model_s,
        "--stats",
        stats_s,
        "--creative",
        "a|save 20% today|c",
        "--creative",
        "a|fees may apply|c",
        "--creative",
        "a|browse deals now|c",
        "--json",
        "true",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(
        microbrowse_obs::json::Json::parse(line).is_ok(),
        "bad JSON: {line}"
    );
    assert!(line.contains("\"command\":\"rank\""), "{line}");
    assert!(line.contains("\"order\":["), "{line}");
    assert!(line.contains("\"latency_us\":"), "{line}");

    // Degraded serving is visible in the JSON, not only in prose.
    let out = run(&[
        "score",
        "--model",
        model_s,
        "--stats",
        "/nonexistent/stats.mbs",
        "--policy",
        "degrade",
        "--r",
        "a|save 20% today|c",
        "--s",
        "a|fees may apply|c",
        "--json",
        "true",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(line.contains("\"fidelity\":\"degraded\""), "{line}");
    assert!(line.contains("\"degrade_reason\":"), "{line}");

    std::fs::remove_file(&model).ok();
    std::fs::remove_file(&stats).ok();
}

/// `--json` is a bare boolean flag: no value means true, the legacy
/// `--json true` spelling still works (tested above), and a stray value
/// that is neither `true` nor `false` is a usage error.
#[test]
fn bare_json_flag_and_bad_json_value() {
    let model = tmp("barejson-model.mbm");
    let stats = tmp("barejson-stats.mbs");
    let model_s = model.to_str().unwrap();
    let stats_s = stats.to_str().unwrap();
    let out = run(&[
        "train",
        "--model",
        model_s,
        "--stats",
        stats_s,
        "--spec",
        "m4",
        "--adgroups",
        "120",
        "--seed",
        "8",
    ]);
    assert!(out.status.success());

    let out = run(&[
        "score",
        "--model",
        model_s,
        "--stats",
        stats_s,
        "--r",
        "a|save 20% today|c",
        "--s",
        "a|fees may apply|c",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(
        microbrowse_obs::json::Json::parse(line).is_ok(),
        "bad JSON: {line}"
    );
    assert!(line.contains("\"command\":\"score\""), "{line}");

    // `--json maybe` must not be silently read as a value or a filename.
    let out = run(&[
        "score", "--model", model_s, "--stats", stats_s, "--r", "a|b", "--s", "c|d", "--json",
        "maybe",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("maybe"), "{stderr}");

    std::fs::remove_file(&model).ok();
    std::fs::remove_file(&stats).ok();
}

/// `microbrowse metrics` reports the serve-path counters and the latency
/// histogram in Prometheus text format — including the degraded-mode
/// counters, which must be present even at zero and move under an outage.
#[test]
fn metrics_reports_serve_counters() {
    let model = tmp("metrics-model.mbm");
    let stats = tmp("metrics-stats.mbs");
    let model_s = model.to_str().unwrap();
    let stats_s = stats.to_str().unwrap();
    let out = run(&[
        "train",
        "--model",
        model_s,
        "--stats",
        stats_s,
        "--spec",
        "m4",
        "--adgroups",
        "120",
        "--seed",
        "8",
    ]);
    assert!(out.status.success());

    let out = run(&[
        "metrics",
        "--model",
        model_s,
        "--stats",
        stats_s,
        "--adgroups",
        "20",
        "--seed",
        "5",
    ]);
    assert!(
        out.status.success(),
        "metrics failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "microbrowse_scores_total",
        "microbrowse_scores_degraded_total",
        "microbrowse_degraded_loads_total",
        "microbrowse_slot_rollbacks_total",
        "microbrowse_crc_failures_total",
        "microbrowse_io_retries_total",
        "microbrowse_load_failures_total",
    ] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
    let scored = stdout
        .lines()
        .find(|l| l.starts_with("microbrowse_scores_total"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("scores_total value");
    assert!(scored > 0, "no pairs scored: {stdout}");
    assert!(
        stdout.contains("microbrowse_score_latency_us{quantile=\"0.99\"}"),
        "{stdout}"
    );
    assert!(
        stdout.contains("microbrowse_score_latency_us_count"),
        "{stdout}"
    );
    assert!(
        stdout.contains("\nmicrobrowse_scores_degraded_total 0\n"),
        "{stdout}"
    );

    // Under a stats outage with --policy degrade, the degraded counters move.
    let out = run(&[
        "metrics",
        "--model",
        model_s,
        "--stats",
        "/nonexistent/stats.mbs",
        "--policy",
        "degrade",
        "--adgroups",
        "20",
        "--seed",
        "5",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\nmicrobrowse_degraded_loads_total 1\n"),
        "{stdout}"
    );
    assert!(
        !stdout.contains("\nmicrobrowse_scores_degraded_total 0\n"),
        "degraded score counter should move: {stdout}"
    );

    std::fs::remove_file(&model).ok();
    std::fs::remove_file(&stats).ok();
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    let out = run(&["score", "--model", "m.mbm", "--bogus", "1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --bogus"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_flag_value_exits_2() {
    let out = run(&["score", "--model"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--model needs a value"), "{stderr}");
}

/// End-to-end `serve`: train into a slot dir, start the server on an
/// ephemeral port, score over real HTTP, then close stdin and expect a
/// graceful exit 0 with a drain report.
#[test]
fn serve_scores_over_http_and_drains_on_stdin_eof() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    let dir = tmp("serve-slot");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create slot dir");
    let dir_s = dir.to_str().unwrap();

    let out = run(&[
        "train",
        "--slot-dir",
        dir_s,
        "--spec",
        "m4",
        "--adgroups",
        "120",
        "--seed",
        "3",
    ]);
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut child = Command::new(bin())
        .args([
            "serve",
            "--slot-dir",
            dir_s,
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue-depth",
            "16",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn serve");

    let mut lines = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut banner = String::new();
    lines.read_line(&mut banner).expect("read banner");
    let addr: std::net::SocketAddr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .parse()
        .expect("banner address");

    let mut client = microbrowse_server::client::Client::connect(addr).expect("connect to serve");
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200, "{}", health.body_str());
    assert!(health.body_str().contains("\"status\":\"ok\""));
    let resp = client
        .post(
            "/v1/score",
            "{\"r\":\"cheap flights|book now|save 20%\",\"s\":\"flights|book|fees apply\"}",
        )
        .expect("score request");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert!(
        resp.body_str().contains("\"score\":"),
        "{}",
        resp.body_str()
    );
    assert!(
        resp.body_str().contains("\"winner\":"),
        "{}",
        resp.body_str()
    );
    drop(client);

    drop(child.stdin.take());
    let status = child.wait().expect("wait serve");
    assert!(status.success(), "serve exited {status}");
    let mut rest = String::new();
    lines.read_to_string(&mut rest).expect("read drain report");
    assert!(rest.contains("drained"), "missing drain report: {rest:?}");

    std::fs::remove_dir_all(&dir).ok();
}
