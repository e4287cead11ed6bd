//! Closed-loop serving benchmark for `microbrowse serve`.
//!
//! ```text
//! perfbench --bin PATH --work DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `perfbench/run.sh` builds this and the server, then calls it. One run:
//!
//! 1. trains a model with `microbrowse train` (fixed corpus seed, so every
//!    run serves the same model) and starts `microbrowse serve` on it
//!    [`SETUP_BEFORE`] times, keeping the last one running;
//! 2. builds the workload's inputs from `--seed` (a fresh synthetic corpus
//!    the model never saw);
//! 3. drives the last server in a closed loop (see [`drive`]): untimed for
//!    [`WARMUP`], then for `--seconds`;
//! 4. starts the server [`SETUP_AFTER`] more times; `setup_s` is the median,
//!    over all starts, of the time from spawning the server to its
//!    "listening" line (artifact load and engine compile). Starting it on
//!    both sides of the measurement samples the host at two times of the
//!    run rather than one;
//! 5. checks a seeded sample of the answers against the library, called
//!    in-process on the same artifacts.
//!
//! Every time it prints is scaled to a reference host speed (see
//! [`reference`]): each one is taken next to a fresh timing of a fixed
//! kernel and scaled by it, so the host's drifting speed cancels out.
//!
//! `--trace 0` prints the end-to-end metrics: the measured requests' mean
//! latency (see [`latency_mean_ms`]) and `setup_s`.
//! `--trace 1` asks the server for its stage split on every request, then
//! replays the run's requests, in order, through the layers a server
//! worker runs them through (wire decode, creative parsing, scoring,
//! response encode), timing each from this file and counting
//! alignment-cache hits and misses; it prints those per-layer metrics.

mod reference;
mod workload;

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use microbrowse_core::serve::{ScorerBuilder, ServingBundle};
use microbrowse_server::client::Client;
use microbrowse_server::http::SERVER_TIMING_HEADER;
use reference::Clock;
use workload::{Kind, Rng, Sent, Workload};

/// Server starts before the measurement; the last one serves it.
const SETUP_BEFORE: usize = 16;
/// Server starts after the measurement; `setup_s` is the median of all.
const SETUP_AFTER: usize = 15;
/// Untimed traffic before measuring: fills caches and arenas.
const WARMUP: Duration = Duration::from_secs(1);
/// Answers kept (reservoir-sampled) for the correctness check.
const CHECKED: usize = 512;
/// Client socket timeout: far above any answer's latency.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Share of `--seconds` the traced replay may take; it replays the
/// measured requests in order until this budget is spent.
const REPLAY_SHARE: f64 = 0.25;
/// Model the server is trained with: the paper's full M4 classifier on the
/// synthetic corpus at the CLI's default size.
const TRAIN_ARGS: [&str; 8] = [
    "--spec",
    "m4",
    "--adgroups",
    "1000",
    "--seed",
    "1",
    "--threads",
    "1",
];

struct Args {
    bin: PathBuf,
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("bad value for {name}"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let args = Args {
        bin: get("--bin")?.into(),
        work: get("--work")?.into(),
        workload: get("--workload")?.to_owned(),
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace,
    };
    if !workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (one of {:?})",
            args.workload,
            workload::NAMES
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// A running `microbrowse serve`; dropping it stops the process.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Held open so the server's exit report does not hit a closed pipe.
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    /// Spawn the server on `slot` with one worker (the closed loop has one
    /// client) and wait for its "listening on" line.
    fn start(bin: &Path, slot: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
            .arg("--slot-dir")
            .arg(slot)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take();
        let mut server = Self {
            child,
            stdin,
            stdout: BufReader::new(stdout.ok_or("no server stdout")?),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read server stdout: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not start: {line:?}"))?;
        Ok(server)
    }

    /// Graceful drain (stdin EOF), then wait; [`Drop`] kills it if it hangs.
    fn stop(mut self) -> Result<(), String> {
        self.stdin.take();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => return Err("server did not drain within 20 s".into()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Start the server on `slot`, recording the start-up time in (scaled)
/// seconds.
fn start_timed(bin: &Path, slot: &Path, times: &mut Vec<f64>) -> Result<Server, String> {
    let before = reference::time_ns();
    let t = Instant::now();
    let server = Server::start(bin, slot)?;
    let ns = t.elapsed().as_nanos() as u64;
    // The kernel timed on both sides of the start: in a five-seed set the
    // median start scaled this way spread 0.08, against 0.09 scaled by the
    // timing before alone and 0.32 unscaled.
    let reference_ns = (before + reference::time_ns()) / 2;
    times.push(reference::scale(ns, reference_ns) / 1e9);
    Ok(server)
}

/// Train the model into a fresh slot, then start the server on it
/// [`SETUP_BEFORE`] times. Returns the last server, still running, and the
/// slot.
fn set_up(args: &Args, times: &mut Vec<f64>) -> Result<(Server, PathBuf), String> {
    if args.work.exists() {
        std::fs::remove_dir_all(&args.work).map_err(|e| format!("clear work dir: {e}"))?;
    }
    let slot = args.work.join("slot");
    std::fs::create_dir_all(&slot).map_err(|e| format!("create slot dir: {e}"))?;
    let out = Command::new(&args.bin)
        .arg("train")
        .arg("--slot-dir")
        .arg(&slot)
        .args(TRAIN_ARGS)
        .output()
        .map_err(|e| format!("spawn {}: {e}", args.bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "train failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut server = start_timed(&args.bin, &slot, times)?;
    for _ in 1..SETUP_BEFORE {
        server.stop()?;
        server = start_timed(&args.bin, &slot, times)?;
    }
    Ok((server, slot))
}

/// One measured request.
struct Sample {
    latency_ns: u64,
    /// The reference kernel's latest time when the request was sent.
    reference_ns: u64,
    /// Server-reported `(parse_us, handle_us)` (traced runs only).
    timing: Option<(u64, u64)>,
}

/// What the client sent and saw.
#[derive(Default)]
struct Run {
    samples: Vec<Sample>,
    /// Every request sent, in order, warm-up included.
    log: Vec<Sent>,
    /// How many of them were warm-up (they come first).
    warm: usize,
    failed: u64,
    errors: Vec<String>,
    /// The stream ran out of distinct drafts before the time was up.
    exhausted: bool,
    /// Reservoir sample of `(index into log, answer body)` for the
    /// correctness check.
    kept: Vec<(usize, String)>,
}

impl Run {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }
}

/// The closed loop: one client on one keep-alive connection sends the
/// stream's next request only when the previous answer has arrived, as a
/// copywriting tool waiting on each answer does. One client, not
/// `bench_serve`'s two, because on a two-core host a second client and
/// worker compete with the first pair for the cores and more than double
/// the run-to-run spread. Between requests the client re-times the
/// reference kernel (see [`Clock::tick`]).
fn drive(addr: SocketAddr, wl: &Workload, seconds: u64, trace: bool, mut rng: Rng) -> Run {
    let mut run = Run::default();
    let connect = || Client::connect_with_timeout(addr, IO_TIMEOUT);
    let mut client = match connect() {
        Ok(c) => c,
        Err(e) => {
            run.fail(format!("connect: {e}"));
            return run;
        }
    };
    let headers: Vec<(&str, String)> = if trace {
        vec![(SERVER_TIMING_HEADER, "1".into())]
    } else {
        Vec::new()
    };
    let mut stream = wl.stream();
    let mut answer: Option<String> = None;
    let mut clock = Clock::new();
    let measure = Instant::now() + WARMUP;
    let stop = measure + Duration::from_secs(seconds);
    while Instant::now() < stop {
        clock.tick();
        let Some(request) = stream.next(answer.take().as_deref()) else {
            run.exhausted = true;
            break;
        };
        let sent = Instant::now();
        let result =
            client.request_with_headers("POST", request.kind.path(), &headers, Some(&request.body));
        let latency_ns = sent.elapsed().as_nanos() as u64;
        let i = run.log.len();
        run.log.push(request);
        let measured = sent >= measure;
        run.warm += usize::from(!measured);
        let reply = match result {
            Ok(r) if r.status == 200 => r,
            Ok(r) => {
                run.fail(format!("status {}: {}", r.status, r.body_str()));
                continue;
            }
            Err(e) => {
                run.fail(format!("request: {e}"));
                match connect() {
                    Ok(c) => client = c,
                    Err(e) => {
                        run.fail(format!("reconnect: {e}"));
                        return run;
                    }
                }
                continue;
            }
        };
        let body = reply.body_str();
        if measured {
            let timing = reply.header(SERVER_TIMING_HEADER).and_then(parse_timing);
            run.samples.push(Sample {
                latency_ns,
                reference_ns: clock.reference_ns(),
                timing,
            });
            // Reservoir sampling: every measured answer has the same
            // chance to be kept.
            let slot = if run.kept.len() < CHECKED {
                Some(run.kept.len())
            } else {
                let j = (rng.next() % run.samples.len() as u64) as usize;
                (j < CHECKED).then_some(j)
            };
            if let Some(slot) = slot {
                let entry = (i, body.clone());
                if slot == run.kept.len() {
                    run.kept.push(entry);
                } else {
                    run.kept[slot] = entry;
                }
            }
        }
        answer = Some(body);
    }
    run
}

/// `queue=…;parse=…;score=…` → `(parse, score)`. Queue wait exists only for
/// the first request of a keep-alive session, so it is not kept.
fn parse_timing(v: &str) -> Option<(u64, u64)> {
    let mut parse = None;
    let mut handle = None;
    for kv in v.split(';') {
        let (k, n) = kv.split_once('=')?;
        match k.trim() {
            "parse" => parse = n.trim().parse().ok(),
            "score" => handle = n.trim().parse().ok(),
            _ => {}
        }
    }
    Some((parse?, handle?))
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean scaled latency of the measured requests, in ms. In a closed loop
/// with one client the mean latency is the inverse of the throughput, so
/// it stands for both, and it includes the program's own stalls (such as
/// the alignment cache clearing when full) in proportion to their cost.
///
/// There is no median or tail percentile. On `suggest_explain` half the
/// requests are quick explanations and half slow suggestions, so the
/// median falls in the gap between the two and jumps with the seed's share
/// of each. And the scaling follows the host's speed only at [`EVERY`]
/// intervals, not through the bursts of a few milliseconds that decide a
/// tail: in a five-seed set on `batch_hot` the scaled p90 spread 0.18 and
/// the p99 0.27, against 0.03 for the mean.
///
/// [`EVERY`]: reference::EVERY
fn latency_mean_ms(samples: &[Sample]) -> f64 {
    let total: f64 = samples
        .iter()
        .map(|s| reference::scale(s.latency_ns, s.reference_ns) / 1e6)
        .sum();
    total / samples.len() as f64
}

/// Check every kept answer against the library on a fresh load of the
/// same artifacts.
fn verify(bundle: &ServingBundle, run: &Run) -> Result<usize, String> {
    let scorer = bundle.scorer();
    let mut scratch = scorer.scratch();
    for (i, body) in &run.kept {
        workload::check(&run.log[*i], body, &scorer, &mut scratch)?;
    }
    Ok(run.kept.len())
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Replay the run's requests, in order, through the layers on a fresh
/// load of the artifacts (so the caches start as cold as the server's
/// did): warm-up first and untimed, then measured requests until
/// [`REPLAY_SHARE`] of `seconds` is spent. Layer times (scaled like every
/// time here) and alignment-cache counts are means over the replayed
/// measured requests. The program's
/// instrumentation is on during the replay, because the cache counts come
/// from its counters.
fn per_layer(bundle: &ServingBundle, run: &Run, seconds: u64) -> Result<Vec<Metric>, String> {
    let registry = microbrowse_obs::metrics::registry();
    let hits = registry.counter("microbrowse_aligncache_hits_total");
    let misses = registry.counter("microbrowse_aligncache_misses_total");
    let scorer = bundle.scorer();
    let mut scratch = scorer.scratch();
    let generation = bundle.model_generation();
    let mut replay = |r: &Sent| workload::replay(r, &scorer, &mut scratch, generation);
    let (warm, measured) = run.log.split_at(run.warm);
    let budget = Duration::from_secs_f64(seconds as f64 * REPLAY_SHARE);
    microbrowse_obs::set_enabled(true);
    let warmed = warm.iter().try_for_each(|r| replay(r).map(drop));
    let (h0, m0) = (hits.get(), misses.get());
    // Scaled ns in wire decode, creative parsing, scoring, response encode.
    let mut layers = [0.0f64; 4];
    let mut replayed = 0usize;
    let mut clock = Clock::new();
    let started = Instant::now();
    let timed = warmed.and_then(|()| {
        for r in measured {
            if started.elapsed() >= budget {
                break;
            }
            clock.tick();
            let ns = replay(r)?;
            for (sum, t) in layers
                .iter_mut()
                .zip([ns.decode, ns.parse, ns.score, ns.encode])
            {
                *sum += clock.scale(t);
            }
            replayed += 1;
        }
        Ok(())
    });
    microbrowse_obs::set_enabled(false);
    timed?;
    let per_replay = |n: f64| n / replayed.max(1) as f64;
    let (hit, miss) = (hits.get() - h0, misses.get() - m0);

    let n = run.samples.len().max(1) as f64;
    let (mut rtt, mut parse, mut handle) = (0.0, 0.0, 0.0);
    for s in &run.samples {
        let (p, h) = s.timing.ok_or("server omitted X-Mb-Server-Timing")?;
        rtt += reference::scale(s.latency_ns, s.reference_ns) / 1e3 / n;
        parse += reference::scale(p, s.reference_ns) / n;
        handle += reference::scale(h, s.reference_ns) / n;
    }
    Ok(vec![
        metric("client_rtt_us", rtt, "us"),
        metric("server_parse_us", parse, "us"),
        metric("server_handle_us", handle, "us"),
        metric("wire_us", rtt - parse - handle, "us"),
        metric("replay_decode_us", per_replay(layers[0]) / 1e3, "us"),
        metric("replay_parse_us", per_replay(layers[1]) / 1e3, "us"),
        metric("replay_score_us", per_replay(layers[2]) / 1e3, "us"),
        metric("replay_encode_us", per_replay(layers[3]) / 1e3, "us"),
        metric("aligncache_hits_per_req", per_replay(hit as f64), "count"),
        metric(
            "aligncache_misses_per_req",
            per_replay(miss as f64),
            "count",
        ),
    ])
}

fn run(args: &Args) -> Result<String, String> {
    let t = Instant::now();
    let mut setup = Vec::with_capacity(SETUP_BEFORE + SETUP_AFTER);
    let (server, slot) = set_up(args, &mut setup)?;
    eprintln!(
        "perfbench: trained and started the server in {:.2} s",
        t.elapsed().as_secs_f64()
    );
    let wl = Workload::build(&args.workload, args.seed).ok_or("cannot build the workload")?;
    let run = drive(
        server.addr,
        &wl,
        args.seconds,
        args.trace,
        Rng::new(args.seed),
    );
    server.stop()?;
    for _ in 0..SETUP_AFTER {
        start_timed(&args.bin, &slot, &mut setup)?.stop()?;
    }
    for e in &run.errors {
        eprintln!("perfbench: failed request: {e}");
    }

    let load = || {
        ScorerBuilder::new(&slot)
            .stats_path(&slot)
            .load()
            .map_err(|e| format!("load artifacts: {e}"))
    };
    if wl.drafts() > 0 {
        let sent = run.log.iter().filter(|r| matches!(r.kind, Kind::Suggest));
        eprintln!("perfbench: sent {} of {} drafts", sent.count(), wl.drafts());
    }
    if run.exhausted {
        eprintln!(
            "perfbench: the drafts ran out before the time was up; a longer run would repeat them"
        );
    }
    let checked = verify(&load()?, &run);
    match &checked {
        Ok(n) => eprintln!("perfbench: {n} sampled answers match the library"),
        Err(e) => eprintln!("perfbench: wrong answer: {e}"),
    }
    let attempted = run.samples.len() as u64 + run.failed;
    let correct = checked.is_ok_and(|n| n > 0) && run.failed == 0 && !run.exhausted;

    let metrics = if args.trace {
        per_layer(&load()?, &run, args.seconds)?
    } else {
        vec![
            metric("latency_mean_ms", latency_mean_ms(&run.samples), "ms"),
            metric("setup_s", median(&mut setup), "s"),
        ]
    };
    let mut fields = Vec::with_capacity(metrics.len());
    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("no measurement for {}", m.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
