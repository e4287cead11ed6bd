//! `Scorer::score_batch_timed` reads the clock once per pair boundary: its
//! per-item latencies partition the batch, and the score metrics count
//! each pair exactly once. Metrics are process-global, so this binary
//! holds a single test and nothing else scores while it runs.

use std::time::Instant;

use microbrowse_core::features::OwnedTermFeat;
use microbrowse_core::serve::{DeployedModel, Fidelity, ServingBundle};
use microbrowse_core::{ModelSpec, TrainedClassifier};
use microbrowse_ml::LogReg;
use microbrowse_store::StatsDb;
use microbrowse_text::Snippet;

#[test]
fn item_latencies_partition_the_batch() {
    microbrowse_obs::set_enabled(true);
    let registry = microbrowse_obs::metrics::registry();
    let scores = registry.counter("microbrowse_scores_total");
    let latency = registry.histogram("microbrowse_score_latency_us");

    let model = DeployedModel {
        spec: ModelSpec::m5(),
        classifier: TrainedClassifier::Flat(LogReg::from_parts(vec![1.5, -0.5, 0.25], 0.1)),
        vocab: vec![
            OwnedTermFeat::Term("cheap".into()),
            OwnedTermFeat::Rewrite("find cheap".into(), "get discounts".into()),
            OwnedTermFeat::Term("fees".into()),
        ],
    };
    let bundle = ServingBundle::from_parts(model, StatsDb::new(), Fidelity::Full).expect("bundle");
    let scorer = bundle.scorer();
    let mut scratch = scorer.scratch();
    // Never-seen pairs: every one tokenizes, extracts and misses, so each
    // takes measurable time and a latency measured from the batch start
    // would sum to far more than the batch.
    let pairs: Vec<(Snippet, Snippet)> = (0..128)
        .map(|i| {
            (
                Snippet::creative("air", format!("find cheap flights {i}"), "book now"),
                Snippet::creative("air", format!("get discounts {i}"), "fees apply"),
            )
        })
        .collect();

    let (scores_before, observed_before) = (scores.get(), latency.count());
    let started = Instant::now();
    let (out, latencies) = scorer.score_batch_timed(&pairs, &mut scratch);
    let around_us = started.elapsed().as_micros() as u64;
    assert_eq!(out.len(), pairs.len());
    assert_eq!(latencies.len(), pairs.len());
    let sum: u64 = latencies.iter().sum();
    assert!(
        sum <= around_us,
        "item latencies sum to {sum} µs, more than the {around_us} µs around the call"
    );
    assert_eq!(scores.get() - scores_before, pairs.len() as u64);
    assert_eq!(latency.count() - observed_before, pairs.len() as u64);

    // A single call keeps its own accounting.
    let (r, s) = &pairs[0];
    scorer.score_pair(r, s, &mut scratch);
    assert_eq!(scores.get() - scores_before, pairs.len() as u64 + 1);
    assert_eq!(latency.count() - observed_before, pairs.len() as u64 + 1);
}
