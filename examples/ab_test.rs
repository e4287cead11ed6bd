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

use microbrowse_core::classifier::{ModelSpec, TrainConfig};
use microbrowse_core::serve::{Fidelity, ServingBundle};
use microbrowse_core::TrainingSet;
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
    let set = TrainingSet::from_corpus(&history.corpus);
    println!("learning from {} historical pairs…", set.pairs().len());
    let stats = set.build_stats(&set.all(), 0);

    // Phase 2: train M4 (greedy rewrites with position information), and
    // deploy it as a server would.
    let model = set.train(ModelSpec::m4(), &stats, &TrainConfig::default(), 0);
    let bundle = ServingBundle::from_parts(model, stats, Fidelity::Full).expect("bundle");
    let scorer = bundle.scorer();
    let mut scratch = scorer.scratch();

    // For each fresh adgroup, pick the champion by round-robin pairwise
    // prediction; compare with the true-CTR champion.
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
                if scorer.predict_pair(&group.creatives[i].snippet, &other.snippet, &mut scratch) {
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
