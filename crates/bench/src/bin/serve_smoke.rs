//! Server smoke gate (wired into `scripts/check.sh`).
//!
//! Exercises the full `microbrowse serve` lifecycle against the real CLI
//! binary:
//!
//! 1. train artifacts into a slot directory;
//! 2. start `microbrowse serve` on an ephemeral port with online feedback
//!    enabled (`--feedback-journal`, 1-second refit cadence);
//! 3. hit `/v1/score`, `/healthz`, `/metrics`;
//! 4. under sustained load from three [`Load`] clients, commit a new slot
//!    generation and assert a hot reload happens with **zero** failed
//!    requests;
//! 5. still under load, POST `/v1/feedback` click batches (plus a
//!    duplicate idempotency key that must dedupe) and assert the
//!    background refit publishes a new generation — provenance flips to
//!    `online-refit` in `/healthz` and `/version` — again with zero
//!    failed requests across the swap;
//! 6. close the server's stdin and assert graceful shutdown (drain
//!    report, exit 0) within the deadline.
//!
//! Usage: `serve_smoke --bin ./target/release/microbrowse [--dir TMPDIR]`

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use microbrowse_api::v1::{FeedbackEvent, FeedbackRequest};
use microbrowse_bench::load::{Load, Request};
use microbrowse_bench::Args;
use microbrowse_core::serve::MODEL_SLOT_NAME;
use microbrowse_server::client::Client;
use microbrowse_store::ArtifactSlot;

fn main() -> ExitCode {
    match run() {
        Ok(()) => {
            println!("OK: serve smoke gate green");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve_smoke FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Kills the serve child on scope exit so a failed assertion cannot leak a
/// listener.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A feedback batch with unambiguous CTR gaps, so the background refit
/// has statistically significant pairs to train on.
fn feedback_batch(tag: u64, key: &str) -> FeedbackRequest {
    let contrasts = [
        ("book instantly online", "call during office hours"),
        ("free cancellation", "no refunds"),
        ("price match promise", "prices may vary"),
    ];
    let mut events = Vec::new();
    for i in 0..6u64 {
        let adgroup = tag * 100 + i;
        let (win, lose) = contrasts[(i % 3) as usize];
        events.push(FeedbackEvent {
            adgroup,
            creative: adgroup * 10,
            snippet: format!("cheap flights | {win} | trusted airline"),
            position: 0,
            query_class: "cheap flights".to_string(),
            impressions: 5000,
            clicks: 900,
        });
        events.push(FeedbackEvent {
            adgroup,
            creative: adgroup * 10 + 1,
            snippet: format!("cheap flights | {lose} | trusted airline"),
            position: 1,
            query_class: "cheap flights".to_string(),
            impressions: 5000,
            clicks: 100,
        });
    }
    FeedbackRequest {
        key: key.to_string(),
        events,
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse();
    let bin: String = args.get("bin", String::new());
    if bin.is_empty() {
        return Err("missing --bin PATH (the microbrowse binary)".into());
    }
    let dir: PathBuf = args.get(
        "dir",
        std::env::temp_dir().join(format!("mb-serve-smoke-{}", std::process::id())),
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    // 1. Train a small model + stats into the slot directory.
    let train = Command::new(&bin)
        .args(["train", "--adgroups", "120", "--seed", "3", "--spec", "m4"])
        .arg("--model")
        .arg(&dir)
        .arg("--stats")
        .arg(&dir)
        .output()
        .map_err(|e| format!("spawn train: {e}"))?;
    if !train.status.success() {
        return Err(format!(
            "train failed: {}",
            String::from_utf8_lossy(&train.stderr)
        ));
    }

    // 2. Serve on an ephemeral port, stdin piped (EOF = shutdown signal).
    let mut child = ChildGuard(
        Command::new(&bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--queue-depth",
                "64",
                "--refit-interval",
                "1",
            ])
            .arg("--slot-dir")
            .arg(&dir)
            .arg("--feedback-journal")
            .arg(dir.join("journal"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn serve: {e}"))?,
    );
    let stdout = child.0.stdout.take().ok_or("serve stdout not captured")?;
    let mut lines = BufReader::new(stdout);
    let mut first = String::new();
    lines
        .read_line(&mut first)
        .map_err(|e| format!("read serve stdout: {e}"))?;
    let addr: SocketAddr = first
        .trim()
        .strip_prefix("listening on ")
        .ok_or_else(|| format!("unexpected serve banner: {first:?}"))?
        .parse()
        .map_err(|e| format!("bad address in banner {first:?}: {e}"))?;

    // 3. Basic endpoint checks.
    let mut probe = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let health = probe.get("/healthz").map_err(|e| format!("healthz: {e}"))?;
    if health.status != 200 || !health.body_str().contains("\"status\":\"ok\"") {
        return Err(format!(
            "healthz expected 200 ok, got {} {}",
            health.status,
            health.body_str()
        ));
    }
    let score = probe
        .post(
            "/v1/score",
            "{\"r\":\"cheap flights|book now|save today\",\"s\":\"flights|book|standard fare\"}",
        )
        .map_err(|e| format!("score: {e}"))?;
    if score.status != 200 || !score.body_str().contains("\"score\":") {
        return Err(format!(
            "score expected 200 with score field, got {} {}",
            score.status,
            score.body_str()
        ));
    }
    let metrics = probe.get("/metrics").map_err(|e| format!("metrics: {e}"))?;
    if metrics.status != 200
        || !metrics
            .body_str()
            .contains("microbrowse_http_requests_total")
    {
        return Err("metrics dump missing microbrowse_http_requests_total".into());
    }

    // 4. Hot reload under sustained load, zero failed requests allowed.
    let load = Load::start(addr, 3, |_, _| {
        let body = "{\"r\":\"cheap flights|book now\",\"s\":\"flights|book\"}";
        Request::post("/v1/score", body.to_string())
    });

    std::thread::sleep(Duration::from_millis(300));
    // Commit a fresh model generation (byte-identical is enough to bump
    // the generation number and trigger the swap).
    let slot = ArtifactSlot::new(&dir, MODEL_SLOT_NAME);
    let current = slot
        .manifest_generation()
        .ok_or("model slot has no manifest")?;
    let bytes = std::fs::read(slot.generation_path(current))
        .map_err(|e| format!("read generation {current}: {e}"))?;
    let committed = slot
        .commit(&bytes)
        .map_err(|e| format!("commit new generation: {e}"))?;

    // Wait for the server to pick it up.
    let reload_deadline = Instant::now() + Duration::from_secs(10);
    let mut reloaded = false;
    while Instant::now() < reload_deadline {
        let health = probe.get("/healthz").map_err(|e| format!("healthz: {e}"))?;
        if health
            .body_str()
            .contains(&format!("\"model_generation\":{committed}"))
        {
            reloaded = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    if !reloaded {
        return Err(format!(
            "hot reload to generation {committed} not observed within deadline"
        ));
    }

    // 5. Online feedback phase, still under load: ingest click batches,
    // dedupe a retried key, and wait for the background refit to publish
    // a new generation — the zero-drop requirement now covers the refit
    // swap too.
    let health = probe.get("/healthz").map_err(|e| format!("healthz: {e}"))?;
    if !health.body_str().contains("\"provenance\":\"batch-built\"") {
        return Err(format!(
            "healthz should report batch-built provenance before feedback, got {}",
            health.body_str()
        ));
    }
    let first = probe
        .feedback(&feedback_batch(1, "smoke-batch-1"), "smoke-batch-1")
        .map_err(|e| format!("feedback: {e}"))?;
    if first.deduped || first.accepted != 12 {
        return Err(format!(
            "first feedback batch: wanted 12 accepted, got {} (deduped {})",
            first.accepted, first.deduped
        ));
    }
    // An ambiguous-retry duplicate: same idempotency key, must not
    // double-count.
    let dup = probe
        .feedback(&feedback_batch(1, "smoke-batch-1"), "smoke-batch-1")
        .map_err(|e| format!("duplicate feedback: {e}"))?;
    if !dup.deduped || dup.accepted != 0 || dup.seq != first.seq {
        return Err(format!(
            "duplicate key: wanted deduped echo of seq {}, got accepted {} deduped {} seq {}",
            first.seq, dup.accepted, dup.deduped, dup.seq
        ));
    }
    let second = probe
        .feedback(&feedback_batch(2, "smoke-batch-2"), "smoke-batch-2")
        .map_err(|e| format!("second feedback batch: {e}"))?;
    if second.seq <= first.seq {
        return Err(format!(
            "sequence must advance: {} then {}",
            first.seq, second.seq
        ));
    }

    // Refit cadence is 1 s: wait for provenance to flip.
    let refit_deadline = Instant::now() + Duration::from_secs(30);
    let mut refitted = false;
    while Instant::now() < refit_deadline {
        let health = probe.get("/healthz").map_err(|e| format!("healthz: {e}"))?;
        if health
            .body_str()
            .contains("\"provenance\":\"online-refit\"")
        {
            refitted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    if !refitted {
        return Err("provenance never flipped to online-refit within deadline".into());
    }
    let version = probe.get("/version").map_err(|e| format!("version: {e}"))?;
    let vbody = version.body_str();
    if !vbody.contains("online-feedback") || !vbody.contains("model-origin:online-refit") {
        return Err(format!(
            "version should advertise online-feedback + model-origin:online-refit, got {vbody}"
        ));
    }

    // Keep hammering briefly across the swap, then stop.
    std::thread::sleep(Duration::from_millis(300));
    let (tally, _) = load.stop();
    let ok = tally.ok;
    if tally.calls != ok || ok == 0 {
        return Err(format!(
            "sustained load saw {} failed request(s) ({ok} ok) across the reload: {tally:?}",
            tally.calls - ok
        ));
    }
    let metrics = probe.get("/metrics").map_err(|e| format!("metrics: {e}"))?;
    let body = metrics.body_str();
    let reloads = body
        .lines()
        .find_map(|l| l.strip_prefix("microbrowse_serve_reloads_total "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .ok_or("metrics dump missing microbrowse_serve_reloads_total")?;
    if reloads < 1 {
        return Err("serve.reload counter did not increment".into());
    }
    let metric = |name: &str| -> Result<u64, String> {
        body.lines()
            .find_map(|l| l.strip_prefix(name).map(str::trim))
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("metrics dump missing {name}"))
    };
    let deduped = metric("microbrowse_feedback_deduped_total ")?;
    if deduped < 1 {
        return Err("duplicate feedback key did not bump the dedupe counter".into());
    }
    let refits = metric("microbrowse_refit_total ")?;
    if refits < 1 {
        return Err("refit counter did not increment".into());
    }
    let events_total = metric("microbrowse_feedback_events_total ")?;
    if events_total != 24 {
        return Err(format!(
            "feedback events counter: wanted 24 (two 12-event batches, duplicate excluded), got {events_total}"
        ));
    }
    drop(probe);

    // 6. Graceful shutdown: close stdin, expect exit 0 within deadline.
    drop(child.0.stdin.take());
    let exit_deadline = Instant::now() + Duration::from_secs(15);
    let status = loop {
        if let Some(status) = child.0.try_wait().map_err(|e| format!("try_wait: {e}"))? {
            break status;
        }
        if Instant::now() >= exit_deadline {
            return Err("serve did not exit within the drain deadline".into());
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    if !status.success() {
        return Err(format!("serve exited with {status}"));
    }
    let mut rest = String::new();
    lines
        .read_to_string(&mut rest)
        .map_err(|e| format!("read drain report: {e}"))?;
    if !rest.contains("drained") {
        return Err(format!("missing drain report in serve output: {rest:?}"));
    }
    println!(
        "serve smoke: {ok} requests ok across reload (gen {current} -> {committed}) and online \
         refit ({refits} refit(s), {deduped} deduped batch(es)), {rest}",
        rest = rest.trim()
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
