//! Wall-clock benchmark of the parallel experiment engine: one run of
//! `run_all_models` at one thread, one at `--threads`, and one traced run
//! whose spans give the per-stage breakdown (statistics builds, encode,
//! train, eval) as the pipeline itself measures it.
//!
//! The one- and N-thread outcomes are asserted equal (the engine is
//! deterministic across thread counts), and the timings are written as
//! JSON to `--out` (default `results/BENCH_pipeline.json`).
//!
//! Usage: `bench_pipeline [--adgroups 250] [--seed 42] [--threads 0]
//! [--out results/BENCH_pipeline.json]`

use std::time::{Duration, Instant};

use microbrowse_bench::{corpus_config, experiment_config, write_artifact, Args};
use microbrowse_core::pipeline::{run_all_models, ExperimentConfig, ExperimentOutcome};
use microbrowse_core::Placement;
use microbrowse_synth::generate;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn main() {
    let args = Args::parse();
    let adgroups: usize = args.get("adgroups", 250);
    let seed: u64 = args.get("seed", 42);
    let threads: usize = args.get("threads", 0);
    let out_path: String = args.get("out", "results/BENCH_pipeline.json".to_string());
    let threads = microbrowse_par::resolve_threads(threads);

    eprintln!("generating corpus ({adgroups} adgroups, seed {seed})…");
    let synth = generate(&corpus_config(adgroups, Placement::Top, seed));
    let cfg = experiment_config(seed);

    eprintln!("engine run_all_models, 1 thread…");
    let cfg1 = ExperimentConfig {
        threads: 1,
        ..cfg.clone()
    };
    let t = Instant::now();
    let engine1 = run_all_models(&synth.corpus, &cfg1);
    let engine1_total = t.elapsed();

    eprintln!("engine run_all_models, {threads} thread(s)…");
    let cfgn = ExperimentConfig {
        threads,
        ..cfg.clone()
    };
    let t = Instant::now();
    let enginen: Vec<ExperimentOutcome> = run_all_models(&synth.corpus, &cfgn);
    let enginen_total = t.elapsed();

    // Traced run: same engine, same thread count, with instrumentation on
    // and a memory sink collecting every span. The span durations aggregate
    // into a per-stage breakdown measured by the pipeline itself.
    eprintln!("traced engine run (span-aggregated per-stage breakdown)…");
    let sink = std::sync::Arc::new(microbrowse_obs::trace::MemorySink::new());
    microbrowse_obs::trace::install_sink(sink.clone());
    microbrowse_obs::set_enabled(true);
    let t = Instant::now();
    let _ = run_all_models(&synth.corpus, &cfgn);
    let traced_total = t.elapsed();
    microbrowse_obs::set_enabled(false);
    microbrowse_obs::trace::clear_sink();
    // Spans on worker threads overlap in time, so per-stage sums are
    // CPU-time-like and can exceed the run's wall clock.
    let mut by_stage: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
    for s in sink.spans() {
        let entry = by_stage.entry(s.name.to_string()).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += s.dur_us;
    }
    let traced_stages = by_stage
        .iter()
        .map(|(name, (spans, total_us))| {
            format!("    \"{name}\": {{ \"spans\": {spans}, \"total_us\": {total_us} }}")
        })
        .collect::<Vec<_>>()
        .join(",\n");

    assert_eq!(engine1, enginen, "engine diverged across thread counts");
    let pairs = engine1[0].num_pairs;

    let json = format!(
        "{{\n  \"adgroups\": {adgroups},\n  \"pairs\": {pairs},\n  \"folds\": {},\n  \"seed\": {seed},\n  \"threads\": {threads},\n  \"engine_run_all_models\": {{\n    \"total_1thread_s\": {:.4},\n    \"total_nthread_s\": {:.4}\n  }},\n  \"traced_run\": {{\n    \"total_s\": {:.4},\n    \"stage_spans\": {{\n{traced_stages}\n    }}\n  }}\n}}\n",
        cfg.folds,
        secs(engine1_total),
        secs(enginen_total),
        secs(traced_total),
    );
    let json = write_artifact(&out_path, &json);
    eprintln!(
        "engine 1t {:.2}s | engine {threads}t {:.2}s",
        secs(engine1_total),
        secs(enginen_total),
    );
    println!("{json}");
}
