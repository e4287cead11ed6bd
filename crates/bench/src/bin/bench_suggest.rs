//! Suggestion beam-search benchmark and quality gate.
//!
//! Exercises `/v1/suggest`'s core exactly as the server runs it: build a
//! rewrite-heavy statistics database from a synthetic corpus, deploy an
//! M5-shape model whose vocabulary is drawn from that database, compile the
//! bundle's scoring engine, then beam-search rewrite suggestions for a
//! stream of corpus creatives.
//!
//! Reports throughput (creatives/s through the beam, suggestions/s
//! emitted) and beam quality:
//!
//! - **coverage** — the fraction of input creatives for which the beam
//!   found at least one improving variant;
//! - **top-1 beats input** — for every covered creative, the top variant
//!   re-scored against the input through the independent pair path must
//!   have a positive margin that matches the suggestion's claimed score
//!   (asserted, not just reported);
//! - **determinism** — a second full pass must reproduce the first
//!   byte-for-byte (asserted).
//!
//! Results land in `results/BENCH_suggest.json`. With `--gate F` (used by
//! `scripts/check.sh`) the process exits non-zero unless coverage is at
//! least `F` — the beam must actually find improving rewrites on a corpus
//! that contains them, not merely terminate.
//!
//! Usage: `bench_suggest [--adgroups 120] [--seed 42] [--creatives 64]
//! [--reps 3] [--beam-width 8] [--max-depth 2] [--top-k 5] [--gate 0.0]
//! [--out results/BENCH_suggest.json]`

use std::time::Instant;

use microbrowse_bench::{corpus_config, Args};
use microbrowse_core::classifier::{ModelSpec, TrainedClassifier};
use microbrowse_core::features::OwnedTermFeat;
use microbrowse_core::serve::{DeployedModel, Fidelity, ServingBundle};
use microbrowse_core::suggest::{suggest, SuggestConfig, Suggestion};
use microbrowse_core::{build_stats_from_corpus, PairFilter, Placement, StatsBuildConfig};
use microbrowse_ml::LogReg;
use microbrowse_store::{FeatureKey, StatsDb};
use microbrowse_synth::generate;
use microbrowse_text::Snippet;

/// Deploy an M5-shape flat model whose vocabulary is every term and
/// rewrite feature the statistics database recorded (capped), with
/// deterministic nonzero weights — the same shape `bench_score_hot` uses,
/// so suggestion throughput is comparable with scoring throughput.
fn model_from_stats(stats: &StatsDb) -> DeployedModel {
    const MAX_VOCAB: usize = 4_000;
    let mut vocab: Vec<OwnedTermFeat> = Vec::new();
    for (key, _) in stats.sorted_records() {
        match key {
            FeatureKey::Term { phrase } => vocab.push(OwnedTermFeat::Term(phrase)),
            FeatureKey::Rewrite { from, to } => vocab.push(OwnedTermFeat::Rewrite(from, to)),
            _ => {}
        }
        if vocab.len() >= MAX_VOCAB {
            break;
        }
    }
    let weights: Vec<f64> = (0..vocab.len())
        .map(|i| ((i % 13) as f64 - 6.0) / 10.0)
        .collect();
    DeployedModel {
        spec: ModelSpec::m5(),
        classifier: TrainedClassifier::Flat(LogReg::from_parts(weights, 0.05)),
        vocab,
    }
}

/// One full pass of the beam over every creative, returning per-creative
/// suggestion lists (reuses one scratch like a serving worker).
fn run_pass<'a>(
    scorer: &microbrowse_core::serve::Scorer<'a>,
    creatives: &[Snippet],
    cfg: &SuggestConfig,
    scratch: &mut microbrowse_core::serve::Scratch<'a>,
) -> Vec<Vec<Suggestion>> {
    creatives
        .iter()
        .map(|c| suggest(scorer, c, cfg, scratch))
        .collect()
}

fn main() {
    let args = Args::parse();
    let adgroups: usize = args.get("adgroups", 120);
    let seed: u64 = args.get("seed", 42);
    let num_creatives: usize = args.get("creatives", 64);
    let reps: usize = args.get::<usize>("reps", 3).max(1);
    let gate: f64 = args.get("gate", 0.0);
    let cfg = SuggestConfig {
        beam_width: args.get::<usize>("beam-width", 8).max(1),
        max_depth: args.get::<usize>("max-depth", 2).max(1),
        top_k: args.get::<usize>("top-k", 5).max(1),
        ..SuggestConfig::default()
    };
    let out_path: String = args.get("out", "results/BENCH_suggest.json".to_string());

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
    let vocab = model.vocab.len();
    let bundle = ServingBundle::from_parts(model, stats, Fidelity::Full).expect("bundle compiles");

    let creatives: Vec<Snippet> = synth
        .corpus
        .adgroups
        .iter()
        .flat_map(|g| &g.creatives)
        .take(num_creatives)
        .map(|c| c.snippet.clone())
        .collect();
    assert!(!creatives.is_empty(), "corpus produced no creatives");

    let scorer = bundle.scorer();
    let mut scratch = scorer.scratch();

    // Two warmup passes populate arena capacity and the score cache,
    // which keeps a pair from its second miss on. The first is the
    // reference output for the determinism check; the second must already
    // reproduce it.
    let reference = run_pass(&scorer, &creatives, &cfg, &mut scratch);
    assert_eq!(
        reference,
        run_pass(&scorer, &creatives, &cfg, &mut scratch),
        "beam search must be deterministic across passes"
    );

    eprintln!(
        "timing beam (width {}, depth {}, top-{}) over {} creatives × {reps} reps…",
        cfg.beam_width,
        cfg.max_depth,
        cfg.top_k,
        creatives.len()
    );
    let t = Instant::now();
    let mut last = Vec::new();
    for _ in 0..reps {
        last = run_pass(&scorer, &creatives, &cfg, &mut scratch);
    }
    let elapsed = t.elapsed().as_secs_f64();

    // Determinism: the timed pass reproduces the warmup exactly — same
    // variants, same scores, same step order.
    assert_eq!(
        reference, last,
        "beam search must be deterministic across passes"
    );

    // Beam quality. Every covered creative's top-1 variant must beat the
    // input when re-scored through the independent pair path, and the
    // margin must match the suggestion's claimed score.
    let covered = reference.iter().filter(|s| !s.is_empty()).count();
    let total_suggestions: usize = reference.iter().map(Vec::len).sum();
    let mut top1_beats = 0usize;
    for (creative, suggestions) in creatives.iter().zip(&reference) {
        let Some(top) = suggestions.first() else {
            continue;
        };
        let served = scorer.score_pair(&top.creative, creative, &mut scratch);
        assert!(
            (served - top.score).abs() < 1e-9,
            "claimed margin {} diverges from served score {served}",
            top.score
        );
        if served > 0.0 {
            top1_beats += 1;
        }
    }
    assert_eq!(
        top1_beats, covered,
        "every emitted top-1 variant must strictly beat its input"
    );
    let coverage = covered as f64 / creatives.len() as f64;
    let creatives_per_s = (reps * creatives.len()) as f64 / elapsed;
    let suggestions_per_s = (reps * total_suggestions) as f64 / elapsed;

    let json = format!(
        "{{\n  \"workload\": {{\n    \"adgroups\": {adgroups},\n    \"seed\": {seed},\n    \"creatives\": {},\n    \"reps\": {reps},\n    \"beam_width\": {},\n    \"max_depth\": {},\n    \"top_k\": {},\n    \"vocab\": {vocab}\n  }},\n  \"throughput\": {{\n    \"elapsed_s\": {elapsed:.4},\n    \"creatives_per_s\": {creatives_per_s:.1},\n    \"suggestions_per_s\": {suggestions_per_s:.1}\n  }},\n  \"quality\": {{\n    \"covered\": {covered},\n    \"coverage\": {coverage:.4},\n    \"suggestions\": {total_suggestions},\n    \"top1_beats_input\": {top1_beats},\n    \"deterministic\": true\n  }},\n  \"gate\": {gate:.4}\n}}\n",
        creatives.len(),
        cfg.beam_width,
        cfg.max_depth,
        cfg.top_k,
    );
    microbrowse_obs::json::assert_parses(&json);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!(
        "{creatives_per_s:.0} creatives/s | {suggestions_per_s:.0} suggestions/s | \
         coverage {coverage:.3} ({covered}/{}) | top-1 beats input {top1_beats}/{covered}",
        creatives.len()
    );
    println!("{json}");

    if gate > 0.0 && coverage < gate {
        eprintln!("GATE FAILED: suggestion coverage {coverage:.4} < required {gate:.4}");
        std::process::exit(1);
    }
}
