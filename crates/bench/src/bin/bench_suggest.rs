//! Suggestion beam-search benchmark and quality gate.
//!
//! Exercises `/v1/suggest`'s core exactly as the server runs it: build a
//! rewrite-heavy statistics database from a synthetic corpus, deploy an
//! M5-shape model whose vocabulary is drawn from that database, compile the
//! bundle's scoring engine, then beam-search rewrite suggestions for a
//! stream of corpus creatives.
//!
//! Reports throughput (creatives/s through the beam, suggestions/s
//! emitted) and beam quality. Each timed rep runs on a fresh bundle and
//! scratch, built outside the timed region, so the beam scores every
//! candidate pair as the server does for a draft it has never seen: the
//! bundle's score cache keeps every pair it admits, and a rep on a warm
//! bundle would time cache probes instead.
//!
//! - **coverage** — the fraction of input creatives for which the beam
//!   found at least one improving variant;
//! - **top-1 beats input** — for every covered creative, the top variant
//!   re-scored against the input through the independent pair path must
//!   have a positive margin that matches the suggestion's claimed score
//!   (asserted, not just reported);
//! - **determinism** — a second pass on the same bundle, and every timed
//!   pass on its own fresh bundle, must reproduce the first byte-for-byte
//!   (asserted).
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

use microbrowse_bench::fixture::model_from_stats;
use microbrowse_bench::{corpus_config, gate_json, write_artifact, Args};
use microbrowse_core::serve::{Fidelity, ServingBundle};
use microbrowse_core::suggest::{suggest, SuggestConfig, Suggestion};
use microbrowse_core::{build_stats_from_corpus, PairFilter, Placement, StatsBuildConfig};
use microbrowse_synth::generate;
use microbrowse_text::Snippet;

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
    let fresh_bundle = || {
        ServingBundle::from_parts(model.clone(), stats.clone(), Fidelity::Full)
            .expect("bundle compiles")
    };

    let creatives: Vec<Snippet> = synth
        .corpus
        .adgroups
        .iter()
        .flat_map(|g| &g.creatives)
        .take(num_creatives)
        .map(|c| c.snippet.clone())
        .collect();
    assert!(!creatives.is_empty(), "corpus produced no creatives");

    // The reference output, and its replay on the now warm bundle: a pass
    // served from the score cache must reproduce the one that filled it.
    let bundle = fresh_bundle();
    let scorer = bundle.scorer();
    let mut scratch = scorer.scratch();
    let reference = run_pass(&scorer, &creatives, &cfg, &mut scratch);
    assert_eq!(
        reference,
        run_pass(&scorer, &creatives, &cfg, &mut scratch),
        "beam search must be deterministic across passes"
    );

    eprintln!(
        "timing beam (width {}, depth {}, top-{}) over {} creatives × {reps} reps, \
         each on a fresh bundle…",
        cfg.beam_width,
        cfg.max_depth,
        cfg.top_k,
        creatives.len()
    );
    let mut elapsed = 0.0;
    for _ in 0..reps {
        let rep_bundle = fresh_bundle();
        let rep_scorer = rep_bundle.scorer();
        let mut rep_scratch = rep_scorer.scratch();
        let t = Instant::now();
        let out = run_pass(&rep_scorer, &creatives, &cfg, &mut rep_scratch);
        elapsed += t.elapsed().as_secs_f64();
        // Determinism across bundles: same variants, same scores, same
        // step order.
        assert_eq!(
            reference, out,
            "beam search must be deterministic across bundles"
        );
    }

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

    let gate_field = gate_json(gate);
    let json = format!(
        "{{\n  \"workload\": {{\n    \"adgroups\": {adgroups},\n    \"seed\": {seed},\n    \"creatives\": {},\n    \"reps\": {reps},\n    \"beam_width\": {},\n    \"max_depth\": {},\n    \"top_k\": {},\n    \"vocab\": {vocab}\n  }},\n  \"throughput\": {{\n    \"elapsed_s\": {elapsed:.4},\n    \"creatives_per_s\": {creatives_per_s:.1},\n    \"suggestions_per_s\": {suggestions_per_s:.1}\n  }},\n  \"quality\": {{\n    \"covered\": {covered},\n    \"coverage\": {coverage:.4},\n    \"suggestions\": {total_suggestions},\n    \"top1_beats_input\": {top1_beats},\n    \"deterministic\": true\n  }},\n  \"gate\": {gate_field}\n}}\n",
        creatives.len(),
        cfg.beam_width,
        cfg.max_depth,
        cfg.top_k,
    );
    let json = write_artifact(&out_path, &json);
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
