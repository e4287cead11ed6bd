//! Creative selection as an offline A/B shortcut.
//!
//! ```text
//! cargo run --release -p microbrowse-bench --example ab_test
//! ```
//!
//! An advertiser uploads several creatives per adgroup; the platform
//! normally burns impressions on an exploration phase to find the best one.
//! This example trains an M4 snippet classifier on *historical* adgroups
//! and uses it to pre-rank the creatives of *new* adgroups before a single
//! impression is served, then measures how often the predicted champion is
//! the true CTR champion versus random selection.

use microbrowse_core::classifier::{ModelSpec, TrainConfig, TrainedClassifier};
use microbrowse_core::features::Featurizer;
use microbrowse_core::statsbuild::{build_stats, StatsBuildConfig, TokenizedCorpus};
use microbrowse_core::PairFilter;
use microbrowse_synth::{generate, GeneratorConfig};

fn main() {
    // Historical traffic to learn from, and fresh adgroups to deploy on.
    // The fresh corpus is generated without idiosyncratic CTR noise: the
    // question "which creative *text* is best" has a well-defined answer
    // there, while landing-page/brand effects are unpredictable from text
    // by construction.
    let history = generate(&GeneratorConfig {
        num_adgroups: 800,
        seed: 21,
        ..Default::default()
    });
    let fresh = generate(&GeneratorConfig {
        num_adgroups: 300,
        seed: 22,
        ctr_noise: 0.0,
        ..Default::default()
    });

    // Phase 1 on history: statistics database.
    let tc = TokenizedCorpus::build(&history.corpus);
    let pairs = history.corpus.extract_pairs(&PairFilter::default());
    println!("learning from {} historical pairs…", pairs.len());
    let stats = build_stats(&tc, &pairs, &StatsBuildConfig::default());

    // Phase 2: train M4 (greedy rewrites with position information).
    let spec = ModelSpec::m4();
    let mut interner = tc.interner.clone();
    let mut featurizer = Featurizer::new(spec, &stats);
    let tok_pairs: Vec<_> = pairs
        .iter()
        .map(|p| (tc.snippet(p.r).clone(), tc.snippet(p.s).clone(), p.r_better))
        .collect();
    let train_data = featurizer.encode_batch(&tok_pairs, &mut interner);
    let cfg = TrainConfig::default();
    let mut init_terms =
        featurizer.init_term_weights(&interner, cfg.stats_alpha, cfg.init_min_support);
    for w in &mut init_terms {
        *w *= cfg.init_scale;
    }
    let init_pos = featurizer.init_pos_weights(cfg.stats_alpha);
    let clf = TrainedClassifier::train(&spec, &train_data, Some(init_terms), Some(init_pos), &cfg);

    // Deploy: for each fresh adgroup, pick the champion by round-robin
    // pairwise prediction; compare with the true-CTR champion.
    let fresh_tc = TokenizedCorpus::build(&fresh.corpus);
    let tokenizer_interner = &mut interner; // keep one symbol space
    let mut model_hits = 0usize;
    let mut eligible = 0usize;
    for group in &fresh.corpus.adgroups {
        if group.creatives.len() < 2 {
            continue;
        }
        // True champion by observed CTR.
        let true_best = group
            .creatives
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.ctr().partial_cmp(&b.1.ctr()).expect("ctr finite"))
            .map(|(i, _)| i)
            .expect("non-empty");

        // Model champion: win counts over all ordered pairs.
        let mut wins = vec![0usize; group.creatives.len()];
        for (i, win_count) in wins.iter_mut().enumerate() {
            for (j, other) in group.creatives.iter().enumerate() {
                if i == j {
                    continue;
                }
                let r = fresh_tc.snippet(group.creatives[i].id).clone();
                let s = fresh_tc.snippet(other.id).clone();
                let ex = featurizer.encode_coupled(&r, &s, true, tokenizer_interner);
                if clf.predict_coupled(&ex) {
                    *win_count += 1;
                }
            }
        }
        let model_best = wins
            .iter()
            .enumerate()
            .max_by_key(|(_, &w)| w)
            .map(|(i, _)| i)
            .expect("non-empty");

        eligible += 1;
        if model_best == true_best {
            model_hits += 1;
        }
    }
    let random_rate: f64 = fresh
        .corpus
        .adgroups
        .iter()
        .filter(|g| g.creatives.len() >= 2)
        .map(|g| 1.0 / g.creatives.len() as f64)
        .sum::<f64>()
        / eligible as f64;

    println!("\n== champion prediction on {eligible} unseen adgroups ==\n");
    println!(
        "  model picks the true champion: {:.1}%",
        100.0 * model_hits as f64 / eligible as f64
    );
    println!(
        "  random selection would get:    {:.1}%",
        100.0 * random_rate
    );
    println!("\nevery percentage point above random is exploration traffic the");
    println!("advertiser does not have to spend on a losing creative.");
}
