//! Online-learning drift benchmark and regression gate.
//!
//! Simulates the scenario the online subsystem exists for: the market
//! changes its mind about which phrases sell (lexicon drift, see
//! `microbrowse_synth::drift`), and a model that keeps folding click
//! feedback must beat the model that was frozen at deploy time.
//!
//! Protocol:
//!
//! 1. Train a baseline model from a phase-0 corpus, pushed through the
//!    *online* machinery ([`OnlineLearner`] fed feedback batches) so frozen
//!    and online models share one training pipeline and differ only in
//!    what data they have seen. This model and its statistics are frozen.
//! 2. For each of `--windows` feedback windows, generate a fresh corpus —
//!    identical template/adgroup structure draws, but from `--drift-at`
//!    onward the ground-truth user's salience tables are rotated
//!    (`drifted_salience(1.0)`). Convert it to `/v1/feedback`-shaped
//!    batches, absorb them into a live learner, and refit.
//! 3. Score every statistically significant pair of the window with both
//!    models; report per-window pairwise accuracy curves and the mean
//!    post-drift margin (online − frozen).
//!
//! Results land in `results/BENCH_online.json`. With `--gate M` (used by
//! `scripts/check.sh`) the process exits non-zero unless the post-drift
//! margin is at least `M` — the online learner must demonstrably track the
//! drift, not just match the frozen model.
//!
//! Usage: `bench_online [--train-adgroups 240] [--adgroups 120]
//! [--windows 5] [--drift-at 3] [--batch-adgroups 30] [--seed 42]
//! [--gate 0.0] [--out results/BENCH_online.json]`

use std::collections::HashMap;

use microbrowse_api::v1::{FeedbackEvent, FeedbackRequest};
use microbrowse_bench::{corpus_config, gate_json, write_artifact, Args};
use microbrowse_core::serve::{Fidelity, ServingBundle};
use microbrowse_core::{AdCorpus, ModelSpec, PairFilter, Placement};
use microbrowse_online::{OnlineLearner, RefitOutput};
use microbrowse_store::StatsDb;
use microbrowse_synth::{drifted_salience, generate_with_salience, GeneratorConfig};

/// Convert a synthetic corpus into `/v1/feedback` batches of
/// `batch_adgroups` adgroups each. `id_offset` keeps adgroup and creative
/// ids from different windows distinct in the learner's accumulator (the
/// same generator ids reappear every window otherwise).
fn corpus_to_batches(
    corpus: &AdCorpus,
    batch_adgroups: usize,
    id_offset: u64,
    key_prefix: &str,
) -> Vec<FeedbackRequest> {
    let mut batches = Vec::new();
    for (b, groups) in corpus.adgroups.chunks(batch_adgroups.max(1)).enumerate() {
        let mut events = Vec::new();
        for g in groups {
            for (slot, c) in g.creatives.iter().enumerate() {
                let snippet = c
                    .snippet
                    .lines()
                    .iter()
                    .map(|l| l.text.as_str())
                    .collect::<Vec<_>>()
                    .join(" | ");
                events.push(FeedbackEvent {
                    adgroup: g.id.0 + id_offset,
                    creative: c.id.0 + id_offset * 16,
                    snippet,
                    position: slot as u64,
                    query_class: g.keyword.clone(),
                    impressions: c.impressions,
                    clicks: c.clicks,
                });
            }
        }
        batches.push(FeedbackRequest {
            key: format!("{key_prefix}-b{b}"),
            events,
        });
    }
    batches
}

/// A full-fidelity serving bundle over a refit's model and statistics.
fn bundle_of(refit: RefitOutput) -> ServingBundle {
    ServingBundle::from_parts(refit.model, refit.stats, Fidelity::Full).expect("bundle compiles")
}

/// Pairwise accuracy of `bundle` on the significant pairs of `corpus`.
/// Returns `(accuracy, num_pairs)`.
fn eval_accuracy(bundle: &ServingBundle, corpus: &AdCorpus) -> (f64, usize) {
    let pairs = corpus.extract_pairs(&PairFilter::default());
    let by_id: HashMap<_, _> = corpus
        .adgroups
        .iter()
        .flat_map(|g| &g.creatives)
        .map(|c| (c.id, c))
        .collect();
    let scorer = bundle.scorer();
    let mut scratch = scorer.scratch();
    let mut correct = 0usize;
    for p in &pairs {
        let (r, s) = (by_id[&p.r], by_id[&p.s]);
        if scorer.predict_pair(&r.snippet, &s.snippet, &mut scratch) == p.r_better {
            correct += 1;
        }
    }
    (correct as f64 / pairs.len().max(1) as f64, pairs.len())
}

fn main() {
    let args = Args::parse();
    let train_adgroups: usize = args.get("train-adgroups", 240);
    let adgroups: usize = args.get("adgroups", 120);
    let windows: usize = args.get("windows", 5);
    let drift_at: usize = args.get("drift-at", 3);
    let batch_adgroups: usize = args.get("batch-adgroups", 30);
    let seed: u64 = args.get("seed", 42);
    let gate: f64 = args.get("gate", 0.0);
    let out_path: String = args.get("out", "results/BENCH_online.json".to_string());

    let window_cfg =
        |w: usize| -> GeneratorConfig { corpus_config(adgroups, Placement::Top, seed + w as u64) };

    // Phase 0 baseline: train through the online machinery so frozen and
    // online share one pipeline.
    eprintln!("training frozen baseline ({train_adgroups} adgroups, phase 0)…");
    let train = generate_with_salience(
        &corpus_config(train_adgroups, Placement::Top, seed),
        drifted_salience(0.0),
    );
    let mut learner = OnlineLearner::new(StatsDb::new(), ModelSpec::m4());
    for batch in corpus_to_batches(&train.corpus, batch_adgroups, 0, "train") {
        learner.absorb(&batch);
    }
    let frozen = learner.refit().expect("baseline refit");
    eprintln!(
        "frozen baseline: {} pairs, {} stats features",
        frozen.pairs,
        frozen.stats.len()
    );
    let frozen = bundle_of(frozen);

    let mut rows = Vec::new();
    let mut post_frozen = Vec::new();
    let mut post_online = Vec::new();
    let mut pre_margins = Vec::new();
    for w in 1..=windows {
        let phase = if w >= drift_at { 1.0 } else { 0.0 };
        let synth = generate_with_salience(&window_cfg(w), drifted_salience(phase));
        // Ingest the window's clicks, then refit — the serving refit loop
        // in real time.
        for batch in corpus_to_batches(
            &synth.corpus,
            batch_adgroups,
            w as u64 * 1_000_000,
            &format!("w{w}"),
        ) {
            learner.absorb(&batch);
        }
        let online = bundle_of(learner.refit().expect("window refit"));
        let (fa, pairs) = eval_accuracy(&frozen, &synth.corpus);
        let (oa, _) = eval_accuracy(&online, &synth.corpus);
        let margin = oa - fa;
        eprintln!(
            "window {w} (phase {phase:.1}): {pairs} pairs | frozen {fa:.3} | online {oa:.3} | margin {margin:+.3}"
        );
        if w >= drift_at {
            post_frozen.push(fa);
            post_online.push(oa);
        } else {
            pre_margins.push(margin);
        }
        rows.push(format!(
            "    {{\"window\": {w}, \"phase\": {phase:.1}, \"pairs\": {pairs}, \
             \"frozen_acc\": {fa:.4}, \"online_acc\": {oa:.4}, \"margin\": {margin:.4}}}"
        ));
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let post_frozen_acc = mean(&post_frozen);
    let post_online_acc = mean(&post_online);
    let post_margin = post_online_acc - post_frozen_acc;
    let pre_margin = mean(&pre_margins);

    let gate_field = gate_json(gate);
    let json = format!(
        "{{\n  \"config\": {{\n    \"train_adgroups\": {train_adgroups},\n    \"adgroups\": {adgroups},\n    \"windows\": {windows},\n    \"drift_at\": {drift_at},\n    \"batch_adgroups\": {batch_adgroups},\n    \"seed\": {seed},\n    \"spec\": \"m4\"\n  }},\n  \"windows\": [\n{}\n  ],\n  \"pre_drift_margin\": {pre_margin:.4},\n  \"post_drift\": {{\n    \"windows\": {},\n    \"frozen_acc\": {post_frozen_acc:.4},\n    \"online_acc\": {post_online_acc:.4},\n    \"margin\": {post_margin:.4}\n  }},\n  \"gate\": {gate_field},\n  \"learner\": {{\n    \"batches_folded\": {},\n    \"events_folded\": {},\n    \"delta_features\": {}\n  }}\n}}\n",
        rows.join(",\n"),
        post_frozen.len(),
        learner.batches_folded(),
        learner.events_folded(),
        learner.delta_features(),
    );
    let json = write_artifact(&out_path, &json);
    eprintln!(
        "post-drift: frozen {post_frozen_acc:.3} | online {post_online_acc:.3} | margin {post_margin:+.3} (gate {gate:.3})"
    );
    println!("{json}");

    if gate > 0.0 && post_margin < gate {
        eprintln!("GATE FAILED: post-drift online margin {post_margin:.4} < required {gate:.4}");
        std::process::exit(1);
    }
}
