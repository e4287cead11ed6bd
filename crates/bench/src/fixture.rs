//! The served models and request bodies the harnesses share.

use std::sync::Arc;

use microbrowse_core::classifier::{ModelSpec, TrainedClassifier};
use microbrowse_core::features::OwnedTermFeat;
use microbrowse_core::serve::{DeployedModel, Fidelity, ServingBundle};
use microbrowse_ml::LogReg;
use microbrowse_store::{FeatureKey, StatsDb};

/// Terms in [`term_bundle`]'s vocabulary, the size of the synthetic
/// corpus vocabulary.
const TERMS: usize = 400;

/// An M1 bundle with a realistically sized term vocabulary, so
/// per-request featurization cost is representative, without paying a
/// training run on every harness invocation.
pub fn term_bundle() -> Arc<ServingBundle> {
    let terms: Vec<String> = (0..TERMS).map(|i| format!("term{i}")).collect();
    let vocab: Vec<OwnedTermFeat> = terms
        .iter()
        .map(|t| OwnedTermFeat::Term(t.clone()))
        .collect();
    let weights: Vec<f64> = (0..vocab.len())
        .map(|i| ((i % 13) as f64 - 6.0) / 10.0)
        .collect();
    let model = DeployedModel {
        spec: ModelSpec::m1(),
        classifier: TrainedClassifier::Flat(LogReg::from_parts(weights, 0.05)),
        vocab,
    };
    let mut stats = StatsDb::new();
    for (i, t) in terms.iter().enumerate() {
        stats.record(FeatureKey::term(t), i % 3 == 0);
    }
    Arc::new(ServingBundle::from_parts(model, stats, Fidelity::Full).expect("bundle compiles"))
}

/// Deploy an M5-shape flat model whose vocabulary is every term and
/// rewrite feature `stats` recorded (capped at 4 000), with deterministic
/// nonzero weights, so the in-process hot-path and suggestion benches
/// exercise realistic vocabulary sizes and every feature family.
pub fn model_from_stats(stats: &StatsDb) -> DeployedModel {
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

/// One `{"r":…,"s":…}` pair object over [`term_bundle`]'s terms, varied
/// by `i` so scoring is not one degenerate pair.
pub fn pair_body(i: usize) -> String {
    format!(
        "{{\"r\":\"term{} cheap flights|book term{} now|save 20%\",\
         \"s\":\"term{} flights|standard fare|fees may apply\"}}",
        i % TERMS,
        (i * 7) % TERMS,
        (i * 13) % TERMS
    )
}
