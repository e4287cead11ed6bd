//! Property-based tests for the core crate: diff invariants, scoring
//! identities, featurization antisymmetry, serve-weight laws, and the
//! batch-scoring ≡ serial-scoring bit-identity contract.

use microbrowse_core::corpus::{AdGroup, AdGroupId, Creative, CreativeId, Placement};
use microbrowse_core::features::{OwnedTermFeat, PositionVocab};
use microbrowse_core::model::{score_flat, snippet_relevance, TermJudgment};
use microbrowse_core::reference::ReferenceScorer;
use microbrowse_core::rewrite::{changed_spans, token_diff, DiffOp, RewriteExtractor};
use microbrowse_core::serve::{DegradeReason, DeployedModel, Fidelity, ServingBundle};
use microbrowse_core::serveweight::serve_weights;
use microbrowse_core::{ModelSpec, TrainedClassifier};
use microbrowse_ml::coupled::CoupledModel;
use microbrowse_ml::LogReg;
use microbrowse_store::StatsDb;
use microbrowse_text::{Interner, Snippet, Sym, Tokenizer};
use proptest::prelude::*;

// Re-export guard: keep the import list honest if names move.
#[allow(unused_imports)]
use microbrowse_core::features::Featurizer;

/// A vocabulary over the `[a-d]` word salad the snippet strategies emit,
/// with both term and rewrite features so every feature family can fire.
fn batch_vocab() -> Vec<OwnedTermFeat> {
    vec![
        OwnedTermFeat::Term("a".into()),
        OwnedTermFeat::Term("b".into()),
        OwnedTermFeat::Term("ab".into()),
        OwnedTermFeat::Term("cd".into()),
        OwnedTermFeat::Rewrite("a".into(), "b".into()),
        OwnedTermFeat::Rewrite("ab".into(), "cd".into()),
    ]
}

/// A flat classifier (M5-style: terms + rewrites in one weight vector).
fn flat_batch_model() -> DeployedModel {
    let vocab = batch_vocab();
    let weights = (0..vocab.len()).map(|i| 0.3 * i as f64 - 0.7).collect();
    DeployedModel {
        spec: ModelSpec::m5(),
        classifier: TrainedClassifier::Flat(LogReg::from_parts(weights, 0.1)),
        vocab,
    }
}

/// A coupled classifier (M4-style: position and relevance decoupled).
fn coupled_batch_model() -> DeployedModel {
    let vocab = batch_vocab();
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

fn arb_snippet_lines() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-d]{1,3}( [a-d]{1,3}){0,5}", 1..3)
}

fn arb_syms(max_vocab: u32, max_len: usize) -> impl Strategy<Value = Vec<Sym>> {
    prop::collection::vec((0..max_vocab).prop_map(Sym), 0..max_len)
}

proptest! {
    /// The LCS diff covers both inputs exactly, in order, and Equal runs
    /// really are equal.
    #[test]
    fn diff_is_a_valid_alignment(a in arb_syms(6, 14), b in arb_syms(6, 14)) {
        let ops = token_diff(&a, &b);
        let (mut ca, mut cb) = (0usize, 0usize);
        for op in &ops {
            match op {
                DiffOp::Equal { a: ea, b: eb, len } => {
                    prop_assert_eq!(*ea, ca);
                    prop_assert_eq!(*eb, cb);
                    prop_assert!(*len > 0);
                    for k in 0..*len {
                        prop_assert_eq!(a[ea + k], b[eb + k]);
                    }
                    ca += len;
                    cb += len;
                }
                DiffOp::Replace { a: ra, b: rb } => {
                    prop_assert_eq!(ra.start, ca);
                    prop_assert_eq!(rb.start, cb);
                    prop_assert!(!ra.is_empty() || !rb.is_empty());
                    ca = ra.end;
                    cb = rb.end;
                }
            }
        }
        prop_assert_eq!(ca, a.len());
        prop_assert_eq!(cb, b.len());
    }

    /// Equal-run tokens form a common subsequence whose length never
    /// exceeds min(len_a, len_b) and is 0 only if the inputs share nothing.
    #[test]
    fn diff_common_subsequence_sane(a in arb_syms(5, 12), b in arb_syms(5, 12)) {
        let ops = token_diff(&a, &b);
        let common: usize = ops
            .iter()
            .map(|op| match op {
                DiffOp::Equal { len, .. } => *len,
                DiffOp::Replace { .. } => 0,
            })
            .sum();
        prop_assert!(common <= a.len().min(b.len()));
        let shares_symbol = a.iter().any(|x| b.contains(x));
        if shares_symbol {
            prop_assert!(common >= 1, "shared symbols must produce a common run");
        } else {
            prop_assert_eq!(common, 0);
        }
        // Changed spans never overlap equal runs: sum of span lens + common
        // equals input lens.
        let (sa, sb): (usize, usize) = changed_spans(&ops)
            .iter()
            .fold((0, 0), |(x, y), (ra, rb)| (x + ra.len(), y + rb.len()));
        prop_assert_eq!(sa + common, a.len());
        prop_assert_eq!(sb + common, b.len());
    }

    /// score(R→S) = −score(S→R), and score(R→R) = 0 (Eq. 5 antisymmetry).
    #[test]
    fn score_is_antisymmetric(
        r in prop::collection::vec((0.01f64..1.0, any::<bool>()), 0..10),
        s in prop::collection::vec((0.01f64..1.0, any::<bool>()), 0..10),
    ) {
        let rj: Vec<TermJudgment> = r.iter().map(|&(p, e)| TermJudgment::new(p, e)).collect();
        let sj: Vec<TermJudgment> = s.iter().map(|&(p, e)| TermJudgment::new(p, e)).collect();
        prop_assert!((score_flat(&rj, &sj) + score_flat(&sj, &rj)).abs() < 1e-12);
        prop_assert!(score_flat(&rj, &rj).abs() < 1e-12);
        // Eq. 5 is the log of the Eq. 3 ratio.
        let expect = (snippet_relevance(&rj) / snippet_relevance(&sj)).ln();
        prop_assert!((score_flat(&rj, &sj) - expect).abs() < 1e-9);
    }

    /// Featurization is antisymmetric for arbitrary word-salad snippets:
    /// swapping R and S exactly negates the flat feature vector.
    #[test]
    fn featurizer_antisymmetric(
        lines_r in prop::collection::vec("[a-d]{1,3}( [a-d]{1,3}){0,5}", 1..3),
        lines_s in prop::collection::vec("[a-d]{1,3}( [a-d]{1,3}){0,5}", 1..3),
    ) {
        let stats = StatsDb::new();
        let mut interner = Interner::new();
        let tokenizer = Tokenizer::default();
        let r = Snippet::from_lines(lines_r).tokenize(&tokenizer, &mut interner);
        let s = Snippet::from_lines(lines_s).tokenize(&tokenizer, &mut interner);
        let mut fz = Featurizer::new(ModelSpec::m5(), &stats);
        let ex_rs = fz.encode_flat(&r, &s, true, &mut interner);
        let ex_sr = fz.encode_flat(&s, &r, false, &mut interner);
        let forward: Vec<(u32, i64)> =
            ex_rs.features.iter().map(|(i, v)| (i, (v * 1e6) as i64)).collect();
        let negated: Vec<(u32, i64)> =
            ex_sr.features.iter().map(|(i, v)| (i, (-v * 1e6) as i64)).collect();
        prop_assert_eq!(forward, negated);
    }

    /// Rewrite extraction of identical snippets is always empty, whatever
    /// the text.
    #[test]
    fn extraction_of_identical_is_empty(
        lines in prop::collection::vec("[a-e]{1,4}( [a-e]{1,4}){0,6}", 1..4),
    ) {
        let mut interner = Interner::new();
        let t = Tokenizer::default();
        let snip = Snippet::from_lines(lines).tokenize(&t, &mut interner);
        let ext = RewriteExtractor::default()
            .extract(&snip, &snip.clone(), &StatsDb::new(), &mut interner);
        prop_assert!(ext.rewrites.is_empty());
        prop_assert!(ext.r_leftover.is_empty());
        prop_assert!(ext.s_leftover.is_empty());
    }

    /// Serve weights always average to 1 (impression-weighted) and scale
    /// invariantly with the adgroup's CTR level.
    #[test]
    fn serve_weights_normalized(
        traffic in prop::collection::vec((1u64..1000, 1000u64..100_000), 2..6),
    ) {
        let group = AdGroup {
            id: AdGroupId(0),
            keyword: "k".into(),
            placement: Placement::Top,
            creatives: traffic
                .iter()
                .enumerate()
                .map(|(i, &(clicks, imps))| Creative {
                    id: CreativeId(i as u64),
                    snippet: Snippet::creative("a", "b", "c"),
                    impressions: imps,
                    clicks: clicks.min(imps),
                })
                .collect(),
        };
        let sw = serve_weights(&group);
        let total_imps: u64 = group.creatives.iter().map(|c| c.impressions).sum();
        let weighted_mean: f64 = sw
            .iter()
            .zip(&group.creatives)
            .map(|(w, c)| w * c.impressions as f64 / total_imps as f64)
            .sum();
        prop_assert!((weighted_mean - 1.0).abs() < 1e-9, "weighted mean {weighted_mean}");
        prop_assert!(sw.iter().all(|w| *w >= 0.0));
    }

    /// `Scorer::score_batch` is bit-for-bit identical to a serial
    /// `ReferenceScorer` loop — flat and coupled classifiers, full and
    /// degraded fidelity, with duplicate snippets forced into the batch
    /// so the scratch's snippet arena is exercised.
    #[test]
    fn score_batch_matches_serial_loop_bitwise(
        raw_pairs in prop::collection::vec((arb_snippet_lines(), arb_snippet_lines()), 1..5),
        dup_first in any::<bool>(),
    ) {
        let stats = StatsDb::new();
        let mut pairs: Vec<(Snippet, Snippet)> = raw_pairs
            .into_iter()
            .map(|(r, s)| (Snippet::from_lines(r), Snippet::from_lines(s)))
            .collect();
        if dup_first {
            // Duplicates hit the snippet arena; the reference loop
            // re-tokenizes, so equality here proves arena transparency.
            let first = pairs[0].clone();
            pairs.push(first);
        }
        for model in [flat_batch_model(), coupled_batch_model()] {
            for fidelity in [
                Fidelity::Full,
                Fidelity::Degraded(DegradeReason::StatsMissing),
            ] {
                let mut reference = ReferenceScorer::from_parts(&model, &stats, &fidelity);
                let serial: Vec<u64> = pairs
                    .iter()
                    .map(|(r, s)| reference.score_pair(r, s).to_bits())
                    .collect();
                let bundle = ServingBundle::from_parts(model.clone(), stats.clone(), fidelity)
                    .expect("bundle");
                let scorer = bundle.scorer();
                let mut batch_scratch = scorer.scratch();
                let batch: Vec<u64> = scorer
                    .score_batch(&pairs, &mut batch_scratch)
                    .into_iter()
                    .map(f64::to_bits)
                    .collect();
                prop_assert_eq!(&serial, &batch, "spec {:?}", model.spec);
            }
        }
    }
}
