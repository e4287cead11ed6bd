//! Hot-path scoring engine benchmark and regression gate.
//!
//! Isolates the batch scoring engine from HTTP entirely: builds a
//! rewrite-heavy statistics database from a synthetic corpus, deploys an
//! M5-shape model whose vocabulary is drawn from that database, and pushes
//! the same batched pair stream through
//!
//! 1. **reference** — one `ReferenceScorer` for the whole run (fresh
//!    tokenization and n-gram extraction per pair, hash-map statistics
//!    lookups, alignment recomputed every pair), and
//! 2. **engine** — `ServingBundle::scorer()` (precompiled feature table,
//!    arena-backed scratch, cross-batch score cache),
//!
//! asserting the two produce bit-identical scores before reporting
//! pairs/second for each, the engine-over-reference speedup (the two are
//! timed in alternating rounds, so host drift moves both alike), the
//! engine's first-sighting rate (every distinct pair scored once by a
//! fresh bundle and scratch, so every cache lookup misses: the compute
//! path a cache hit skips; reported, not gated), and the score-cache hit,
//! miss, admission and deferral counters from an instrumented pass.
//! Results land in `results/BENCH_score_hot.json`.
//!
//! With `--gate R` (used by `scripts/check.sh`) the process exits non-zero
//! unless the engine is at least `R`× the reference throughput.
//!
//! Usage: `bench_score_hot [--adgroups 200] [--seed 42] [--pairs 256]
//! [--batch-size 64] [--batches 200] [--gate 0.0]
//! [--out results/BENCH_score_hot.json]`

use std::hint::black_box;
use std::time::Instant;

use microbrowse_bench::fixture::model_from_stats;
use microbrowse_bench::{corpus_config, gate_json, write_artifact, Args};
use microbrowse_core::reference::ReferenceScorer;
use microbrowse_core::serve::{Fidelity, ServingBundle};
use microbrowse_core::{build_stats_from_corpus, PairFilter, Placement, StatsBuildConfig};
use microbrowse_synth::generate;
use microbrowse_text::Snippet;

/// A scorer under test: scores one batch.
type ScoreBatch<'s> = dyn FnMut(&[(Snippet, Snippet)]) -> Vec<f64> + 's;

/// One pass of `batches` through `score_batch`: (elapsed seconds, scores
/// of the final batch).
fn cycle(batches: &[Vec<(Snippet, Snippet)>], score_batch: &mut ScoreBatch) -> (f64, Vec<f64>) {
    let t = Instant::now();
    let mut last = Vec::new();
    for batch in batches {
        last = score_batch(batch);
    }
    (t.elapsed().as_secs_f64(), last)
}

/// Time every scorer over `reps` passes of `batches`, returning each one's
/// (elapsed seconds, scores of the final batch).
///
/// Warmup: two full cycles each populate arena capacity and (for the
/// engine) the score cache, which keeps a pair from its second miss on,
/// so the timed section measures the steady state a long-lived serving
/// worker reaches. The timed passes then alternate between the scorers
/// round by round, so a slowdown of the host lands on all of them instead
/// of on whichever one it overlapped. Each timed pass follows an untimed
/// pass of the same scorer, which refills the CPU caches the other
/// scorer's pass evicted: without it the engine, whose pass is the shorter,
/// measured about 4% slower than when its passes run back to back.
fn run_rounds(
    batches: &[Vec<(Snippet, Snippet)>],
    reps: usize,
    scorers: &mut [&mut ScoreBatch],
) -> Vec<(f64, Vec<f64>)> {
    for score_batch in scorers.iter_mut() {
        for _ in 0..2 {
            cycle(batches, *score_batch);
        }
    }
    let mut out = vec![(0.0, Vec::new()); scorers.len()];
    for _ in 0..reps {
        for (score_batch, (elapsed, last)) in scorers.iter_mut().zip(&mut out) {
            cycle(batches, *score_batch);
            let (t, scores) = cycle(batches, *score_batch);
            *elapsed += t;
            *last = scores;
        }
    }
    out
}

/// [`run_rounds`] through one engine scorer with one scratch.
fn run_engine(
    bundle: &ServingBundle,
    batches: &[Vec<(Snippet, Snippet)>],
    reps: usize,
) -> (f64, Vec<f64>) {
    let scorer = bundle.scorer();
    let mut scratch = scorer.scratch();
    let mut engine = |batch: &[(Snippet, Snippet)]| scorer.score_batch(batch, &mut scratch);
    run_rounds(batches, reps, &mut [&mut engine]).remove(0)
}

fn main() {
    let args = Args::parse();
    let adgroups: usize = args.get("adgroups", 200);
    let seed: u64 = args.get("seed", 42);
    let distinct_pairs: usize = args.get("pairs", 256);
    let batch_size: usize = args.get::<usize>("batch-size", 64).max(1);
    let batches: usize = args.get("batches", 8);
    let reps: usize = args.get("reps", 25);
    let gate: f64 = args.get("gate", 0.0);
    let out_path: String = args.get("out", "results/BENCH_score_hot.json".to_string());

    eprintln!("generating corpus ({adgroups} adgroups, seed {seed})…");
    let synth = generate(&corpus_config(adgroups, Placement::Top, seed));
    let (_tc, train_pairs, stats) = build_stats_from_corpus(
        &synth.corpus,
        &PairFilter::default(),
        &StatsBuildConfig::default(),
    );
    eprintln!(
        "stats: {} features from {} training pairs",
        stats.len(),
        train_pairs.len()
    );
    let model = model_from_stats(&stats);

    // The scoring workload: creative pairs within adgroups, cycled into
    // fixed-size batches. Distinct pairs repeat across batches, which is
    // exactly the serving shape the score cache exists for (the same
    // creative matchups are scored again and again between reloads).
    let mut pairs: Vec<(Snippet, Snippet)> = Vec::new();
    'outer: for group in &synth.corpus.adgroups {
        for (i, a) in group.creatives.iter().enumerate() {
            for b in group.creatives.iter().skip(i + 1) {
                pairs.push((a.snippet.clone(), b.snippet.clone()));
                if pairs.len() >= distinct_pairs {
                    break 'outer;
                }
            }
        }
    }
    assert!(!pairs.is_empty(), "corpus produced no creative pairs");
    let batch_list: Vec<Vec<(Snippet, Snippet)>> = (0..batches)
        .map(|b| {
            (0..batch_size)
                .map(|j| pairs[(b * batch_size + j) % pairs.len()].clone())
                .collect()
        })
        .collect();
    let pairs_per_cycle = batches * batch_size;

    let bundle = ServingBundle::from_parts(model.clone(), stats.clone(), Fidelity::Full)
        .expect("bundle compiles");

    eprintln!("timing reference and engine scorers in alternating rounds…");
    let mut reference = ReferenceScorer::from_parts(&model, &stats, &Fidelity::Full);
    let mut reference = |batch: &[(Snippet, Snippet)]| -> Vec<f64> {
        batch
            .iter()
            .map(|(r, s)| reference.score_pair(r, s))
            .collect()
    };
    let engine_scorer = bundle.scorer();
    let mut scratch = engine_scorer.scratch();
    let mut engine = |batch: &[(Snippet, Snippet)]| engine_scorer.score_batch(batch, &mut scratch);
    let mut timed = run_rounds(&batch_list, reps, &mut [&mut reference, &mut engine]).into_iter();
    let (reference_s, reference_scores) = timed.next().expect("reference timed");
    let (engine_s, engine_scores) = timed.next().expect("engine timed");
    let reference_pps = (reps * pairs_per_cycle) as f64 / reference_s;
    let engine_pps = (reps * pairs_per_cycle) as f64 / engine_s;

    // Multi-threaded engine phase: one shared bundle, one scratch per
    // thread — the serving shape. Threads share the score cache, so
    // the aggregate is what a warmed multi-worker server sustains.
    let threads: usize = args.get(
        "threads",
        std::thread::available_parallelism().map_or(4, |n| n.get()),
    );
    eprintln!("timing engine scorer on {threads} threads…");
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let (elapsed, scores) = run_engine(&bundle, &batch_list, reps);
                    black_box(scores);
                    elapsed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench thread"))
            .collect()
    });
    let mt_s = per_thread.iter().cloned().fold(0.0f64, f64::max);
    let mt_pps = (threads * reps * pairs_per_cycle) as f64 / mt_s;

    // First sightings: each pass scores every distinct pair once through a
    // bundle and a scratch that have seen none of them (both built outside
    // the timing), so every lookup misses and each pair is tokenized,
    // aligned, walked and classified.
    eprintln!("timing engine first sightings…");
    let mut first_s = 0.0;
    let mut first_scores = Vec::new();
    for _ in 0..reps {
        let fresh = ServingBundle::from_parts(model.clone(), stats.clone(), Fidelity::Full)
            .expect("bundle compiles");
        let scorer = fresh.scorer();
        let mut scratch = scorer.scratch();
        let t = Instant::now();
        first_scores = black_box(scorer.score_batch(&pairs, &mut scratch));
        first_s += t.elapsed().as_secs_f64();
    }
    let first_pps = (reps * pairs.len()) as f64 / first_s;

    // The optimization contract: not one bit of drift.
    assert_eq!(reference_scores.len(), engine_scores.len());
    for (i, (a, b)) in reference_scores.iter().zip(&engine_scores).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "engine diverged from reference at pair {i}: {a} vs {b}"
        );
    }

    let mut reference = ReferenceScorer::from_parts(&model, &stats, &Fidelity::Full);
    for (i, ((r, s), first)) in pairs.iter().zip(&first_scores).enumerate() {
        let want = reference.score_pair(r, s);
        assert_eq!(
            want.to_bits(),
            first.to_bits(),
            "a first sighting diverged from reference at pair {i}: {want} vs {first}"
        );
    }

    // Instrumented pass: score-cache behaviour under metrics, so the
    // report carries the counters operators will see in production.
    let hits0 = microbrowse_obs::counter!("microbrowse_aligncache_hits_total").get();
    let misses0 = microbrowse_obs::counter!("microbrowse_aligncache_misses_total").get();
    let admitted0 = microbrowse_obs::counter!("microbrowse_aligncache_admitted_total").get();
    let deferred0 = microbrowse_obs::counter!("microbrowse_aligncache_deferred_total").get();
    microbrowse_obs::set_enabled(true);
    {
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        for batch in &batch_list {
            black_box(scorer.score_batch(batch, &mut scratch));
        }
    }
    microbrowse_obs::set_enabled(false);
    let cache_hits = microbrowse_obs::counter!("microbrowse_aligncache_hits_total").get() - hits0;
    let cache_misses =
        microbrowse_obs::counter!("microbrowse_aligncache_misses_total").get() - misses0;
    let cache_admitted =
        microbrowse_obs::counter!("microbrowse_aligncache_admitted_total").get() - admitted0;
    let cache_deferred =
        microbrowse_obs::counter!("microbrowse_aligncache_deferred_total").get() - deferred0;

    let speedup = engine_pps / reference_pps;
    let gate_field = gate_json(gate);
    let json = format!(
        "{{\n  \"workload\": {{\n    \"adgroups\": {adgroups},\n    \"seed\": {seed},\n    \"stats_features\": {},\n    \"vocab\": {},\n    \"distinct_pairs\": {},\n    \"batch_size\": {batch_size},\n    \"batches\": {batches},\n    \"reps\": {reps},\n    \"pairs_scored\": {}\n  }},\n  \"reference\": {{\n    \"elapsed_s\": {reference_s:.4},\n    \"pairs_per_s\": {reference_pps:.1}\n  }},\n  \"engine\": {{\n    \"elapsed_s\": {engine_s:.4},\n    \"pairs_per_s\": {engine_pps:.1},\n    \"compiled_features\": {},\n    \"align_cache_entries\": {},\n    \"align_cache_hits\": {cache_hits},\n    \"align_cache_misses\": {cache_misses},\n    \"align_cache_admitted\": {cache_admitted},\n    \"align_cache_deferred\": {cache_deferred}\n  }},\n  \"engine_mt\": {{\n    \"threads\": {threads},\n    \"elapsed_s\": {mt_s:.4},\n    \"pairs_per_s\": {mt_pps:.1}\n  }},\n  \"engine_first_sighting\": {{\n    \"pairs_scored\": {},\n    \"elapsed_s\": {first_s:.4},\n    \"pairs_per_s\": {first_pps:.1}\n  }},\n  \"speedup_pairs_per_s\": {speedup:.2},\n  \"gate\": {gate_field},\n  \"bit_identical\": true\n}}\n",
        stats.len(),
        model.vocab.len(),
        pairs.len(),
        reps * pairs_per_cycle,
        bundle.engine().table().len(),
        bundle.engine().align().entries(),
        reps * pairs.len(),
    );
    let json = write_artifact(&out_path, &json);
    eprintln!(
        "reference {reference_pps:.0} pairs/s | engine {engine_pps:.0} pairs/s | {threads} threads {mt_pps:.0} pairs/s \
         | first sightings {first_pps:.0} pairs/s \
         | speedup {speedup:.2}x | cache {cache_hits} hits / {cache_misses} misses ({cache_admitted} admitted, {cache_deferred} deferred)"
    );
    println!("{json}");

    if gate > 0.0 && speedup < gate {
        eprintln!("GATE FAILED: engine speedup {speedup:.2}x < required {gate:.2}x");
        std::process::exit(1);
    }
}
