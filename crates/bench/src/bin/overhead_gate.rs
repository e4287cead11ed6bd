//! Observability overhead gate: instrumentation may cost at most
//! `--max-overhead` (default 0.02, i.e. 2%) of wall time, on two paths.
//!
//! **Disabled path.** When tracing/metrics are off (the default), every
//! instrumentation point degenerates to a single relaxed atomic load:
//!
//! 1. Measure the real per-site cost of the disabled path in a tight loop
//!    (span open/field/drop + event + counter + histogram per iteration —
//!    a deliberate overestimate of any single site).
//! 2. Run the experiment engine once with instrumentation disabled and
//!    time it; run it again with a memory sink to count how many records
//!    the instrumented build would emit for that exact workload.
//! 3. Estimate the overhead as `records × per-site cost` over the measured
//!    wall time. Since the pre-instrumentation pipeline executed zero obs
//!    call sites, this bounds the wall-time regression the instrumentation
//!    can have introduced when disabled.
//!
//! **Flight recorder.** The recorder is always on in the server: every
//! span and event carrying a trace id is pushed into its fixed ring, and
//! so is one request record per response.
//!
//! 1. Measure, in tight loops against a recorder of the server's default
//!    geometry, the real cost of a span push, of the skip path (records
//!    with no trace id), and of a request-record write (building the
//!    record's method and path strings, as the server does per response,
//!    and writing it into the ring).
//! 2. Start an in-process server, drive traced scoring requests over
//!    loopback from one [`Load`] client for [`SERVE_PHASE`], and read the
//!    actual ring-write and request-record counts from its recorder once
//!    the server has shut down.
//! 3. Estimate the recorder's share of the serving wall time as
//!    `span/event writes × push cost + request records × record cost`.
//!    The deterministic estimate avoids the noise of differencing two live
//!    wall-clock runs.
//!
//! The disabled path runs first: starting a server turns instrumentation
//! on process-wide. The gate prints one JSON line holding both halves and
//! exits 1 if either estimate exceeds the cap.
//!
//! Usage: `overhead_gate [--adgroups 120] [--seed 42] [--max-overhead 0.02]`

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use microbrowse_bench::load::{Load, Request};
use microbrowse_bench::{corpus_config, experiment_config, Args};
use microbrowse_core::classifier::{ModelSpec, TrainedClassifier};
use microbrowse_core::features::OwnedTermFeat;
use microbrowse_core::pipeline::{run_all_models, ExperimentConfig};
use microbrowse_core::serve::{DeployedModel, Fidelity, ServingBundle};
use microbrowse_core::Placement;
use microbrowse_obs::flight::{FlightConfig, FlightRecorder, RequestRecord};
use microbrowse_obs::json::JsonObject;
use microbrowse_obs::trace::{MemorySink, SpanRecord, TraceSink};
use microbrowse_server::{start, BundleSource, ServerConfig};
use microbrowse_store::StatsDb;
use microbrowse_synth::generate;

const ITERS: u64 = 1_000_000;

/// How long the flight half serves traced requests. Its estimate is ring
/// writes × their ns over the same wall time, a ratio of two rates that
/// does not grow with the window; half a second averages it over
/// thousands of one-term requests.
const SERVE_PHASE: Duration = Duration::from_millis(500);

/// One half's estimate: its JSON members, and the overhead fraction.
struct Half {
    json: String,
    fraction: f64,
}

fn disabled_path(adgroups: usize, seed: u64) -> Half {
    assert!(
        !microbrowse_obs::enabled(),
        "instrumentation must start disabled"
    );

    // Per-site disabled cost. Each iteration exercises four distinct
    // instrumentation shapes, so the measured per-iteration cost is a
    // conservative stand-in for the cost of one emitted record.
    let t = Instant::now();
    for i in 0..ITERS {
        let mut span = microbrowse_obs::trace::span("gate.span");
        span.add("i", i);
        black_box(&span);
        microbrowse_obs::trace::event("gate.event").with("i", i);
        microbrowse_obs::counter!("gate_ops_total").inc();
        microbrowse_obs::histogram!("gate_latency_us").observe_us(black_box(i));
    }
    let per_site_ns = t.elapsed().as_nanos() as f64 / ITERS as f64;

    eprintln!("generating corpus ({adgroups} adgroups, seed {seed})…");
    let synth = generate(&corpus_config(adgroups, Placement::Top, seed));
    let cfg = ExperimentConfig {
        threads: 1,
        ..experiment_config(seed)
    };

    eprintln!("timing engine run with instrumentation disabled…");
    let t = Instant::now();
    let disabled = run_all_models(&synth.corpus, &cfg);
    let wall_s = t.elapsed().as_secs_f64();

    eprintln!("counting instrumentation records for the same workload…");
    let sink = Arc::new(MemorySink::new());
    microbrowse_obs::trace::install_sink(sink.clone());
    microbrowse_obs::set_enabled(true);
    let enabled = run_all_models(&synth.corpus, &cfg);
    microbrowse_obs::set_enabled(false);
    microbrowse_obs::trace::clear_sink();
    assert_eq!(
        disabled, enabled,
        "instrumentation must not change experiment results"
    );
    let records = (sink.spans().len() + sink.events().len()) as u64;

    let overhead_s = records as f64 * per_site_ns * 1e-9;
    let fraction = overhead_s / wall_s;
    eprintln!(
        "disabled path: {records} records × {per_site_ns:.1} ns ≈ {overhead_s:.4}s over \
         {wall_s:.2}s wall ({:.4}%)",
        fraction * 100.0
    );
    let json = JsonObject::new()
        .u64("adgroups", adgroups as u64)
        .f64("per_site_ns", per_site_ns)
        .u64("records", records)
        .f64("wall_s", wall_s)
        .f64("estimated_overhead_s", overhead_s)
        .f64("overhead_fraction", fraction)
        .finish();
    Half { json, fraction }
}

/// A one-term M1 bundle: the recorder's cost is measured against the
/// lightest request the server answers.
fn one_term_bundle() -> BundleSource {
    let model = DeployedModel {
        spec: ModelSpec::m1(),
        classifier: TrainedClassifier::Flat(microbrowse_ml::LogReg::from_parts(vec![1.0], 0.0)),
        vocab: vec![OwnedTermFeat::Term("cheap".into())],
    };
    BundleSource::Static(Arc::new(
        ServingBundle::from_parts(model, StatsDb::new(), Fidelity::Full).expect("bundle"),
    ))
}

/// ns per `on_span` delivery for records carrying `trace`.
fn per_record_ns(recorder: &FlightRecorder, trace: u128) -> f64 {
    let span = SpanRecord {
        id: 7,
        parent: 3,
        trace,
        name: "serve.request",
        thread: 1,
        start_us: 123,
        dur_us: 456,
        fields: vec![("endpoint", "score".into()), ("status", 200u64.into())],
    };
    let t = Instant::now();
    for _ in 0..ITERS {
        recorder.on_span(black_box(&span));
    }
    t.elapsed().as_nanos() as f64 / ITERS as f64
}

/// ns per request-record write: the record's strings built as the server
/// builds them per response, then written into the ring.
fn per_request_ns(recorder: &FlightRecorder) -> f64 {
    let method = "POST";
    let path = "/v1/score";
    let t = Instant::now();
    for i in 0..ITERS {
        let record = RequestRecord {
            method: black_box(method).to_owned(),
            path: black_box(path).to_owned(),
            status: 200,
            trace: u128::from(i) + 1,
            queue_us: 12,
            parse_us: 3,
            score_us: 40,
            write_us: 9,
        };
        recorder.record(record, None);
    }
    t.elapsed().as_nanos() as f64 / ITERS as f64
}

fn flight_recorder() -> Half {
    let recorder = FlightRecorder::new(FlightConfig::default());
    let push_ns = per_record_ns(&recorder, 0xabc);
    let skip_ns = per_record_ns(&recorder, 0);
    let record_ns = per_request_ns(&recorder);

    eprintln!(
        "serving traced requests for {:.1}s…",
        SERVE_PHASE.as_secs_f64()
    );
    let handle = start(ServerConfig::default(), one_term_bundle()).expect("start server");
    let load = Load::start(handle.addr(), 1, |_, i| {
        let body = r#"{"r":"cheap flights|book now","s":"flights|book"}"#;
        Request::post("/v1/score", body.to_string())
            .header("x-mb-trace-id", format!("{:032x}", u128::from(i) + 1))
    });
    std::thread::sleep(SERVE_PHASE);
    let (tally, wall_s) = load.stop();
    let flight = handle.flight().clone();
    handle.shutdown();
    let (ring_writes, request_records) = (flight.ring_writes(), flight.request_writes());
    let span_writes = ring_writes - request_records;
    assert!(
        tally.calls > 0 && tally.ok == tally.calls,
        "every traced request must answer 200: {tally:?}"
    );
    assert!(
        span_writes > 0 && request_records >= tally.calls,
        "traced serving must write spans and one request record per response"
    );

    let overhead_s = (span_writes as f64 * push_ns + request_records as f64 * record_ns) * 1e-9;
    let fraction = overhead_s / wall_s;
    eprintln!(
        "flight recorder: {span_writes} span/event writes × {push_ns:.1} ns + {request_records} \
         request records × {record_ns:.1} ns ≈ {overhead_s:.4}s over {wall_s:.2}s wall \
         ({:.4}%); traceless skip path {skip_ns:.1} ns/record",
        fraction * 100.0
    );
    let json = JsonObject::new()
        .u64("requests", tally.calls)
        .f64("per_record_push_ns", push_ns)
        .f64("per_record_skip_ns", skip_ns)
        .f64("per_request_record_ns", record_ns)
        .u64("ring_writes", ring_writes)
        .u64("request_records", request_records)
        .u64("retained_traces", flight.retained_len() as u64)
        .u64("retained_evicted", flight.evicted())
        .f64("wall_s", wall_s)
        .f64("estimated_overhead_s", overhead_s)
        .f64("overhead_fraction", fraction)
        .finish();
    Half { json, fraction }
}

fn main() {
    let args = Args::parse();
    let adgroups: usize = args.get("adgroups", 120);
    let seed: u64 = args.get("seed", 42);
    let max_overhead: f64 = args.get("max-overhead", 0.02);

    let disabled = disabled_path(adgroups, seed);
    let flight = flight_recorder();
    let halves = [("disabled path", &disabled), ("flight recorder", &flight)];
    let pass = halves.iter().all(|(_, h)| h.fraction <= max_overhead);
    println!(
        "{}",
        JsonObject::new()
            .raw("disabled", &disabled.json)
            .raw("flight", &flight.json)
            .f64("max_overhead", max_overhead)
            .bool("pass", pass)
            .finish()
    );
    for (name, half) in halves {
        if half.fraction > max_overhead {
            eprintln!(
                "FAIL: {name} overhead {:.3}% exceeds the {:.1}% gate",
                half.fraction * 100.0,
                max_overhead * 100.0
            );
        }
    }
    if !pass {
        std::process::exit(1);
    }
}
