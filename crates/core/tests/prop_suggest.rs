//! Property-based tests for the generative surface: the suggestion beam
//! search must be deterministic no matter how many threads (each with its
//! own scratch) walk the same compiled bundle, and span attributions from
//! `explain_pair` must decompose the exact served score, which
//! `ReferenceScorer` reproduces bit for bit.

use microbrowse_core::explain::explain_pair;
use microbrowse_core::features::{OwnedTermFeat, PositionVocab};
use microbrowse_core::reference::ReferenceScorer;
use microbrowse_core::rewrite::canonical_rewrite_key;
use microbrowse_core::serve::{DegradeReason, DeployedModel, Fidelity, ServingBundle};
use microbrowse_core::suggest::{suggest, SuggestConfig};
use microbrowse_core::{ModelSpec, TrainedClassifier};
use microbrowse_ml::coupled::CoupledModel;
use microbrowse_ml::LogReg;
use microbrowse_store::key::SnippetPos;
use microbrowse_store::{FeatureKey, FeatureStat, StatsDb};
use microbrowse_text::Snippet;
use proptest::prelude::*;

/// Word-salad phrases over a tiny alphabet so random snippets collide
/// with the recorded statistics (same shape as `prop_hot.rs`).
fn arb_phrase() -> impl Strategy<Value = String> {
    "[a-d]{1,3}( [a-d]{1,3}){0,1}"
}

fn arb_pos() -> impl Strategy<Value = (u8, u16)> {
    (0u8..4, 0u16..8)
}

/// Any feature key — rewrite keys included, so the beam has corpus
/// substitutions to propose.
fn arb_key() -> impl Strategy<Value = FeatureKey> {
    prop_oneof![
        arb_phrase().prop_map(FeatureKey::term),
        (arb_phrase(), arb_phrase()).prop_map(|(a, b)| canonical_rewrite_key(&a, &b)),
        arb_pos().prop_map(|(l, p)| FeatureKey::term_position(l, p)),
        (arb_pos(), arb_pos()).prop_map(|(f, t)| {
            FeatureKey::rewrite_position(
                SnippetPos {
                    line: f.0,
                    pos: f.1,
                },
                SnippetPos {
                    line: t.0,
                    pos: t.1,
                },
            )
        }),
    ]
}

fn arb_stats() -> impl Strategy<Value = StatsDb> {
    prop::collection::vec((arb_key(), 0u8..6, 0u8..6), 0..24).prop_map(|records| {
        StatsDb::from_records(records.into_iter().map(|(k, up, down)| {
            (
                k,
                FeatureStat {
                    up: up as u64,
                    down: down as u64,
                },
            )
        }))
    })
}

fn arb_snippet_lines() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-d]{1,3}( [a-d]{1,3}){0,5}", 1..3)
}

/// Vocabulary with term and rewrite features over the salad alphabet.
fn vocab() -> Vec<OwnedTermFeat> {
    vec![
        OwnedTermFeat::Term("a".into()),
        OwnedTermFeat::Term("b".into()),
        OwnedTermFeat::Term("ab".into()),
        OwnedTermFeat::Term("cd".into()),
        OwnedTermFeat::Rewrite("a".into(), "b".into()),
        OwnedTermFeat::Rewrite("ab".into(), "cd".into()),
    ]
}

fn flat_model() -> DeployedModel {
    let vocab = vocab();
    let weights = (0..vocab.len()).map(|i| 0.3 * i as f64 - 0.7).collect();
    DeployedModel {
        spec: ModelSpec::m5(),
        classifier: TrainedClassifier::Flat(LogReg::from_parts(weights, 0.1)),
        vocab,
    }
}

fn coupled_model() -> DeployedModel {
    let vocab = vocab();
    let terms = (0..vocab.len()).map(|i| 0.2 * i as f64 - 0.5).collect();
    let pos = (0..PositionVocab::num_groups() as usize)
        .map(|i| 1.0 - 0.1 * i as f64)
        .collect();
    DeployedModel {
        spec: ModelSpec::m4(),
        classifier: TrainedClassifier::Coupled(CoupledModel::from_parts(pos, terms, -0.2)),
        vocab,
    }
}

proptest! {
    /// The beam search is a pure function of (bundle, creative, config):
    /// fresh scratches, repeated calls on one warmed scratch, and
    /// concurrent threads each with their own scratch over the shared
    /// engine (whose alignment cache they race on) must all produce the
    /// identical suggestion list — same variants, same scores, same step
    /// order.
    #[test]
    fn suggest_deterministic_across_scratches(
        db in arb_stats(),
        lines in arb_snippet_lines(),
        beam_width in 1usize..6,
        max_depth in 1usize..3,
    ) {
        let creative = Snippet::from_lines(lines);
        let cfg = SuggestConfig {
            beam_width,
            max_depth,
            ..SuggestConfig::default()
        };
        let model = flat_model();
        let bundle = ServingBundle::from_parts(model, db, Fidelity::Full).expect("bundle");
        let scorer = bundle.scorer();

        // Reference: a fresh scratch.
        let mut scratch = scorer.scratch();
        let reference = suggest(&scorer, &creative, &cfg, &mut scratch);
        // The same warmed scratch must replay identically (the alignment
        // cache now holds every pair the beam scored).
        let replay = suggest(&scorer, &creative, &cfg, &mut scratch);
        prop_assert_eq!(&reference, &replay, "warmed scratch diverged");

        // Concurrent threads, each with its own scratch, racing on the
        // shared alignment cache.
        let concurrent: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let scorer = bundle.scorer();
                        let mut scratch = scorer.scratch();
                        suggest(&scorer, &creative, &cfg, &mut scratch)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("thread")).collect()
        });
        for (t, got) in concurrent.iter().enumerate() {
            prop_assert_eq!(&reference, got, "thread {} diverged", t);
        }
    }

    /// `bias + Σ span contributions` recovers the served pair score for
    /// every model family and fidelity, the served score is the reference
    /// scorer's bit for bit, and every rewrite attribution carries the
    /// aligned S-side span.
    #[test]
    fn explain_sums_to_score(
        db in arb_stats(),
        r_lines in arb_snippet_lines(),
        s_lines in arb_snippet_lines(),
    ) {
        let r = Snippet::from_lines(r_lines);
        let s = Snippet::from_lines(s_lines);
        for model in [flat_model(), coupled_model()] {
            for fidelity in [
                Fidelity::Full,
                Fidelity::Degraded(DegradeReason::StatsMissing),
            ] {
                let bundle =
                    ServingBundle::from_parts(model.clone(), db.clone(), fidelity.clone())
                        .expect("bundle");
                let scorer = bundle.scorer();
                let mut scratch = scorer.scratch();
                let exp = explain_pair(&scorer, &r, &s, &mut scratch);
                // The explanation reports the served score exactly, and
                // the served score is the reference scorer's.
                let served = scorer.score_pair(&r, &s, &mut scratch);
                prop_assert_eq!(exp.score.to_bits(), served.to_bits());
                let expected = ReferenceScorer::from_parts(&model, &db, &fidelity).score_pair(&r, &s);
                prop_assert_eq!(exp.score.to_bits(), expected.to_bits());
                // And decomposes it within float-summation tolerance.
                let sum: f64 =
                    exp.bias + exp.spans.iter().map(|a| a.contribution).sum::<f64>();
                prop_assert!(
                    (sum - exp.score).abs() <= 1e-9 * (1.0 + exp.score.abs()),
                    "bias + contributions = {} but served score = {}",
                    sum,
                    exp.score
                );
                for a in &exp.spans {
                    prop_assert_eq!(a.contribution.to_bits(), (a.value * a.weight).to_bits());
                    let is_rewrite = a.kind == microbrowse_core::explain::SpanKind::Rewrite;
                    prop_assert_eq!(a.to.is_some(), is_rewrite);
                    prop_assert_eq!(a.to_span.is_some(), is_rewrite);
                }
            }
        }
    }
}
