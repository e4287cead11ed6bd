//! The served model and request bodies the serving harnesses share.

use std::sync::Arc;

use microbrowse_core::classifier::{ModelSpec, TrainedClassifier};
use microbrowse_core::features::OwnedTermFeat;
use microbrowse_core::serve::{DeployedModel, Fidelity, ServingBundle};
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
        classifier: TrainedClassifier::Flat(microbrowse_ml::LogReg::from_parts(weights, 0.05)),
        vocab,
    };
    let mut stats = StatsDb::new();
    for (i, t) in terms.iter().enumerate() {
        stats.record(FeatureKey::term(t), i % 3 == 0);
    }
    Arc::new(ServingBundle::from_parts(model, stats, Fidelity::Full).expect("bundle compiles"))
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
