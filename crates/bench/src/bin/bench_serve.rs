//! Loopback load test of the HTTP scoring server.
//!
//! Starts an in-process `microbrowse-server` on an ephemeral port with a
//! trained-shape model and runs two phases of the same length against it
//! from keep-alive driver clients ([`microbrowse_bench::load`]):
//!
//! 1. **single** — hammer `POST /v1/score`, one pair per request (the
//!    pre-batch baseline).
//! 2. **batch** — push pairs through `POST /v1/batch` in fixed-size
//!    arrays, measuring how much the amortized `score_batch` engine pass
//!    raises pairs/second.
//!
//! Reports throughput plus latency quantiles for both phases, and the
//! batch-over-single `speedup_pairs_per_s` ratio, to
//! `results/BENCH_serve.json`. The run fails unless every call is a 200.
//!
//! Usage: `bench_serve [--seconds 1] [--clients 2] [--workers 2]
//! [--batch-size 64] [--out results/BENCH_serve.json]`

use std::sync::Arc;
use std::time::Duration;

use microbrowse_bench::fixture::{pair_body, term_bundle};
use microbrowse_bench::load::{quantile, Load, Request, Tally};
use microbrowse_bench::{write_artifact, Args};
use microbrowse_server::{start, BundleSource, ServerConfig};

/// Distinct bodies each client rotates through.
const ROTATION: usize = 16;

/// Untimed load before the phases.
const WARMUP_SECONDS: f64 = 0.1;

/// Throughput and per-request latency stats for one phase.
struct PhaseStats {
    requests: u64,
    elapsed_s: f64,
    rps: f64,
    mean: f64,
    p50: u64,
    p90: u64,
    p99: u64,
    max: u64,
}

impl PhaseStats {
    fn from_tally(mut tally: Tally, elapsed_s: f64) -> Self {
        let lat = &mut tally.ok_latencies_us;
        lat.sort_unstable();
        Self {
            requests: tally.calls,
            elapsed_s,
            rps: tally.calls as f64 / elapsed_s,
            mean: lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64,
            p50: quantile(lat, 0.50),
            p90: quantile(lat, 0.90),
            p99: quantile(lat, 0.99),
            max: lat.last().copied().unwrap_or(0),
        }
    }

    /// The shared inner JSON fields (caller wraps and appends extras).
    fn json_fields(&self, endpoint: &str, clients: usize, workers: usize) -> String {
        format!(
            "    \"endpoint\": \"{endpoint}\",\n    \"requests\": {},\n    \"clients\": {clients},\n    \"workers\": {workers},\n    \"elapsed_s\": {:.4},\n    \"throughput_rps\": {:.1},\n    \"latency_us\": {{\n      \"mean\": {:.1},\n      \"p50\": {},\n      \"p90\": {},\n      \"p99\": {},\n      \"max\": {}\n    }}",
            self.requests, self.elapsed_s, self.rps, self.mean, self.p50, self.p90, self.p99,
            self.max
        )
    }
}

/// Drive `clients` clients at `path` for `seconds`, each rotating through
/// its own bodies `body(client, slot)`. Exits non-zero unless every call
/// was a 200.
fn run_phase(
    addr: std::net::SocketAddr,
    path: &'static str,
    clients: usize,
    seconds: f64,
    body: impl Fn(usize, usize) -> String,
) -> PhaseStats {
    let bodies: Arc<Vec<Vec<String>>> = Arc::new(
        (0..clients)
            .map(|c| (0..ROTATION).map(|slot| body(c, slot)).collect())
            .collect(),
    );
    let load = Load::start(addr, clients, move |c, i| {
        Request::post(path, bodies[c][i as usize % ROTATION].clone())
    });
    std::thread::sleep(Duration::from_secs_f64(seconds));
    let (tally, elapsed_s) = load.stop();
    if tally.calls == 0 || tally.ok != tally.calls {
        eprintln!(
            "FAIL: {path}: {} of {} calls answered 200 ({:?})",
            tally.ok, tally.calls, tally
        );
        std::process::exit(1);
    }
    PhaseStats::from_tally(tally, elapsed_s)
}

/// Batch body rotation: `batch_size` pair objects per request.
fn batch_body(client: usize, slot: usize, batch_size: usize) -> String {
    let base = client * 1000 + slot * batch_size;
    let items: Vec<String> = (0..batch_size).map(|j| pair_body(base + j)).collect();
    format!("[{}]", items.join(","))
}

fn main() {
    let args = Args::parse();
    let seconds: f64 = args.get("seconds", 1.0);
    let clients: usize = args.get("clients", 2);
    let workers: usize = args.get("workers", 2);
    let batch_size: usize = args.get::<usize>("batch-size", 64).max(1);
    let out_path: String = args.get("out", "results/BENCH_serve.json".to_string());

    let cfg = ServerConfig {
        workers,
        queue_depth: 256,
        max_batch: batch_size.max(256),
        ..ServerConfig::default()
    };
    let handle = start(cfg, BundleSource::Static(term_bundle())).expect("start server");
    let addr = handle.addr();

    // Warmup: populate caches, let every worker build its scorer.
    let single_body = |c, i| pair_body(c * 1000 + i);
    run_phase(addr, "/v1/score", clients, WARMUP_SECONDS, single_body);

    // Phase 1: one pair per request.
    let single = run_phase(addr, "/v1/score", clients, seconds, single_body);

    // Phase 2: as long again, `batch_size` pairs per request.
    let batch = run_phase(addr, "/v1/batch", clients, seconds, |c, i| {
        batch_body(c, i, batch_size)
    });
    handle.shutdown();

    let single_pairs_per_s = single.rps;
    let batch_pairs = batch.requests * batch_size as u64;
    let batch_pairs_per_s = batch_pairs as f64 / batch.elapsed_s;
    let speedup = batch_pairs_per_s / single_pairs_per_s;

    let json = format!(
        "{{\n  \"single\": {{\n{},\n    \"pairs_per_s\": {single_pairs_per_s:.1}\n  }},\n  \"batch\": {{\n{},\n    \"batch_size\": {batch_size},\n    \"pairs\": {batch_pairs},\n    \"pairs_per_s\": {batch_pairs_per_s:.1},\n    \"speedup_pairs_per_s\": {speedup:.2}\n  }}\n}}\n",
        single.json_fields("/v1/score", clients, workers),
        batch.json_fields("/v1/batch", clients, workers),
    );
    let json = write_artifact(&out_path, &json);
    eprintln!(
        "single: {} req in {:.2}s = {:.0} pairs/s | batch(x{batch_size}): {} pairs in {:.2}s = {:.0} pairs/s | speedup {speedup:.2}x",
        single.requests, single.elapsed_s, single_pairs_per_s, batch_pairs, batch.elapsed_s,
        batch_pairs_per_s
    );
    println!("{json}");
}
