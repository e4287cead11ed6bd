//! Wall-clock benchmark of the parallel experiment engine against the
//! pre-engine serial pipeline, with a per-stage breakdown.
//!
//! The legacy path below reimplements what `run_all_models` used to do
//! before the shared-preprocessing engine landed: each of the six model
//! specs independently tokenizes nothing (the corpus tokenization was
//! already shared) but rebuilds every fold's statistics database, re-diffs
//! every pair at featurization time, and re-extracts every n-gram — so a
//! 10-fold run over six specs performs 6×(10+1) statistics builds and
//! 6×10×2 full featurization passes. The engine builds 10+1 databases and
//! diffs/extracts each pair exactly once.
//!
//! Both paths are run to completion, their outcomes are asserted equal
//! (the engine is bit-identical to the old pipeline), and the timings are
//! written as JSON to `--out` (default `results/BENCH_pipeline.json`).
//!
//! Usage: `bench_pipeline [--adgroups 250] [--seed 42] [--threads 0]
//! [--out results/BENCH_pipeline.json]`

use std::time::{Duration, Instant};

use microbrowse_bench::{corpus_config, experiment_config, write_artifact, Args};
use microbrowse_core::classifier::{ModelSpec, TrainConfig, TrainedClassifier};
use microbrowse_core::features::Featurizer;
use microbrowse_core::paircache::PairCache;
use microbrowse_core::pipeline::{run_all_models, ExperimentConfig, ExperimentOutcome};
use microbrowse_core::statsbuild::{build_stats, TokenizedCorpus};
use microbrowse_core::Placement;
use microbrowse_ml::{grouped_kfold, BinaryMetrics, Confusion};
use microbrowse_synth::generate;
use microbrowse_text::{Interner, TokenizedSnippet};

/// Per-stage wall-clock of one pipeline flavor.
#[derive(Default)]
struct Stages {
    stats_build: Duration,
    featurize: Duration,
    train: Duration,
    total: Duration,
}

/// Minimal result surface for cross-checking the two paths.
struct SpecResult {
    mean: BinaryMetrics,
    pooled: Confusion,
}

fn scaled_inits(
    fz: &Featurizer<'_>,
    interner: &Interner,
    train: &TrainConfig,
) -> (Vec<f64>, Vec<f64>) {
    let s = train.init_scale;
    let mut terms = fz.init_term_weights(interner, train.stats_alpha, train.init_min_support);
    for w in &mut terms {
        *w *= s;
    }
    let mut pos = fz.init_pos_weights(train.stats_alpha);
    for w in &mut pos {
        *w = 1.0 + (*w - 1.0) * s;
    }
    (terms, pos)
}

/// The pre-engine serial pipeline: per spec, per fold, everything rebuilt
/// from scratch (modulo corpus tokenization, which was already shared).
fn legacy_run_all_models(
    corpus: &microbrowse_core::AdCorpus,
    cfg: &ExperimentConfig,
    stages: &mut Stages,
) -> Vec<SpecResult> {
    type TokPair = (TokenizedSnippet, TokenizedSnippet, bool);
    let start = Instant::now();
    let tc = TokenizedCorpus::build(corpus);
    let pairs = corpus.extract_pairs(&cfg.pair_filter);
    let tok_pairs: Vec<TokPair> = pairs
        .iter()
        .map(|p| (tc.snippet(p.r).clone(), tc.snippet(p.s).clone(), p.r_better))
        .collect();
    let groups: Vec<u64> = pairs.iter().map(|p| p.adgroup.0).collect();
    let folds = grouped_kfold(&groups, cfg.folds.max(2), cfg.seed);

    let mut results = Vec::new();
    for spec in ModelSpec::paper_models() {
        let mut fold_metrics = Vec::new();
        let mut pooled = Confusion::default();
        for fold in &folds {
            if fold.test_idx.is_empty() {
                continue;
            }
            let test_set: std::collections::BTreeSet<usize> =
                fold.test_idx.iter().copied().collect();
            let train_pairs: Vec<_> = pairs
                .iter()
                .enumerate()
                .filter(|(i, _)| !test_set.contains(i))
                .map(|(_, p)| *p)
                .collect();
            let train_toks: Vec<TokPair> = tok_pairs
                .iter()
                .enumerate()
                .filter(|(i, _)| !test_set.contains(i))
                .map(|(_, t)| t.clone())
                .collect();
            let test_toks: Vec<TokPair> = fold
                .test_idx
                .iter()
                .map(|&i| tok_pairs[i].clone())
                .collect();

            let t = Instant::now();
            let stats = build_stats(&tc, &train_pairs, &cfg.stats);
            stages.stats_build += t.elapsed();

            let t = Instant::now();
            let mut interner = tc.interner.clone();
            let mut fz = Featurizer::with_configs(spec, &stats, cfg.stats.ngram, cfg.rewrite);
            let train_data = fz.encode_batch(&train_toks, &mut interner);
            let (init_terms, init_pos) = scaled_inits(&fz, &interner, &cfg.train);
            let test_data = fz.encode_batch(&test_toks, &mut interner);
            stages.featurize += t.elapsed();

            let t = Instant::now();
            let clf = TrainedClassifier::train(
                &spec,
                &train_data,
                Some(init_terms),
                Some(init_pos),
                &cfg.train,
            );
            stages.train += t.elapsed();
            let confusion = Confusion::from_pairs(clf.predict_all(&test_data));
            pooled.merge(&confusion);
            fold_metrics.push(confusion.metrics());
        }

        // Final full-data fit for position-weight reporting.
        if spec.positions && !tok_pairs.is_empty() {
            let t = Instant::now();
            let stats = build_stats(&tc, &pairs, &cfg.stats);
            stages.stats_build += t.elapsed();
            let t = Instant::now();
            let mut interner = tc.interner.clone();
            let mut fz = Featurizer::with_configs(spec, &stats, cfg.stats.ngram, cfg.rewrite);
            let data = fz.encode_batch(&tok_pairs, &mut interner);
            let (init_terms, init_pos) = scaled_inits(&fz, &interner, &cfg.train);
            stages.featurize += t.elapsed();
            let t = Instant::now();
            let _ = TrainedClassifier::train(
                &spec,
                &data,
                Some(init_terms),
                Some(init_pos),
                &cfg.train,
            );
            stages.train += t.elapsed();
        }

        results.push(SpecResult {
            mean: BinaryMetrics::mean(&fold_metrics),
            pooled,
        });
    }
    stages.total = start.elapsed();
    results
}

/// The engine's work decomposed into the same three stages, run serially —
/// this is where the shared-preprocessing savings show up stage by stage.
fn engine_staged(corpus: &microbrowse_core::AdCorpus, cfg: &ExperimentConfig, stages: &mut Stages) {
    let start = Instant::now();
    let mut tc = TokenizedCorpus::build(corpus);
    let pairs = corpus.extract_pairs(&cfg.pair_filter);
    let groups: Vec<u64> = pairs.iter().map(|p| p.adgroup.0).collect();
    let folds = grouped_kfold(&groups, cfg.folds.max(2), cfg.seed);

    let t = Instant::now();
    let cache = PairCache::build(
        &mut tc,
        &pairs,
        cfg.stats.ngram,
        cfg.rewrite,
        cfg.stats.max_rewrite_len,
    );
    let all_idx: Vec<usize> = (0..pairs.len()).collect();
    let fold_stats: Vec<_> = folds
        .iter()
        .filter(|f| !f.test_idx.is_empty())
        .map(|fold| {
            let mask = fold.test_mask(pairs.len());
            let train_idx: Vec<usize> = (0..pairs.len()).filter(|&i| !mask[i]).collect();
            let db = microbrowse_core::build_stats_for(&tc, &pairs, &train_idx, &cache, &cfg.stats);
            (fold.clone(), train_idx, db)
        })
        .collect();
    let final_stats = microbrowse_core::build_stats_for(&tc, &pairs, &all_idx, &cache, &cfg.stats);
    stages.stats_build += t.elapsed();

    for spec in ModelSpec::paper_models() {
        for (fold, train_idx, stats) in &fold_stats {
            let t = Instant::now();
            let mut fz = Featurizer::with_configs(spec, stats, cfg.stats.ngram, cfg.rewrite);
            let train_data =
                fz.encode_pairs_cached(&pairs, train_idx, &tc, &cache, &tc.interner, 1);
            let (init_terms, init_pos) = scaled_inits(&fz, &tc.interner, &cfg.train);
            let _test_data =
                fz.encode_pairs_cached(&pairs, &fold.test_idx, &tc, &cache, &tc.interner, 1);
            stages.featurize += t.elapsed();
            let t = Instant::now();
            let _ = TrainedClassifier::train(
                &spec,
                &train_data,
                Some(init_terms),
                Some(init_pos),
                &cfg.train,
            );
            stages.train += t.elapsed();
        }
        if spec.positions && !pairs.is_empty() {
            let t = Instant::now();
            let mut fz = Featurizer::with_configs(spec, &final_stats, cfg.stats.ngram, cfg.rewrite);
            let data = fz.encode_pairs_cached(&pairs, &all_idx, &tc, &cache, &tc.interner, 1);
            let (init_terms, init_pos) = scaled_inits(&fz, &tc.interner, &cfg.train);
            stages.featurize += t.elapsed();
            let t = Instant::now();
            let _ = TrainedClassifier::train(
                &spec,
                &data,
                Some(init_terms),
                Some(init_pos),
                &cfg.train,
            );
            stages.train += t.elapsed();
        }
    }
    stages.total = start.elapsed();
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn stage_json(name: &str, s: &Stages) -> String {
    format!(
        "  \"{name}\": {{\n    \"stats_build_s\": {:.4},\n    \"featurize_s\": {:.4},\n    \"train_s\": {:.4},\n    \"total_s\": {:.4}\n  }}",
        secs(s.stats_build),
        secs(s.featurize),
        secs(s.train),
        secs(s.total)
    )
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

    eprintln!("legacy serial pipeline (per-spec stats rebuilds, per-visit diffing)…");
    let mut legacy_stages = Stages::default();
    let legacy = legacy_run_all_models(&synth.corpus, &cfg, &mut legacy_stages);

    eprintln!("engine staged decomposition (shared cache, serial)…");
    let mut engine_stages = Stages::default();
    engine_staged(&synth.corpus, &cfg, &mut engine_stages);

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
    // into a per-stage breakdown measured by the pipeline itself rather
    // than by stopwatching around a serial re-decomposition.
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

    // The engine must be bit-identical to the old pipeline.
    assert_eq!(engine1, enginen, "engine diverged across thread counts");
    for (old, new) in legacy.iter().zip(&engine1) {
        assert_eq!(
            old.pooled, new.pooled,
            "engine diverged from legacy ({})",
            new.spec.name
        );
        assert_eq!(
            old.mean, new.mean,
            "engine diverged from legacy ({})",
            new.spec.name
        );
    }

    let speedup1 = secs(legacy_stages.total) / secs(engine1_total);
    let speedupn = secs(legacy_stages.total) / secs(enginen_total);
    let pairs = engine1[0].num_pairs;

    let json = format!(
        "{{\n  \"adgroups\": {adgroups},\n  \"pairs\": {pairs},\n  \"folds\": {},\n  \"seed\": {seed},\n  \"threads\": {threads},\n{},\n{},\n  \"engine_run_all_models\": {{\n    \"total_1thread_s\": {:.4},\n    \"total_nthread_s\": {:.4},\n    \"speedup_vs_legacy_1thread\": {:.2},\n    \"speedup_vs_legacy_nthread\": {:.2}\n  }},\n  \"traced_run\": {{\n    \"total_s\": {:.4},\n    \"stage_spans\": {{\n{traced_stages}\n    }}\n  }}\n}}\n",
        cfg.folds,
        stage_json("legacy_serial", &legacy_stages),
        stage_json("engine_staged_serial", &engine_stages),
        secs(engine1_total),
        secs(enginen_total),
        speedup1,
        speedupn,
        secs(traced_total),
    );
    let json = write_artifact(&out_path, &json);
    eprintln!(
        "legacy {:.2}s | engine staged {:.2}s | engine 1t {:.2}s ({speedup1:.2}x) | engine {threads}t {:.2}s ({speedupn:.2}x)",
        secs(legacy_stages.total),
        secs(engine_stages.total),
        secs(engine1_total),
        secs(enginen_total),
    );
    println!("{json}");
}
