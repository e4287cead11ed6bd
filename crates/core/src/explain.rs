//! Span-level score attributions for a scored creative pair.
//!
//! `POST /v1/explain`'s core: walk a pair's features once more keeping each
//! occurrence's source span, then price every record against the trained
//! classifier weights. The result is
//! the model-internal analogue of a word diff — each aligned span annotated
//! with the log-odds it contributes to the pair's margin — and the per-span
//! contributions plus the intercept sum back to the exact score
//! [`Scorer::score_pair`] serves (within float-summation tolerance; the
//! `explain_sums_to_score` proptest in `core/tests/prop_suggest.rs` pins
//! this down).

use microbrowse_text::Snippet;

use crate::classifier::TrainedClassifier;
use crate::features::{PairFeature, SpanSide, TermFeat};
use crate::serve::{Fidelity, Scorer, Scratch};

/// What kind of model feature a span attribution prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// An n-gram term occurrence on one side of the pair.
    Term,
    /// An aligned rewrite between an R-side and an S-side phrase.
    Rewrite,
}

/// One span of the scored pair with its weight and score contribution.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanAttribution {
    /// Term or rewrite.
    pub kind: SpanKind,
    /// Which creative the anchoring span lives in (rewrites anchor to the
    /// R-side `from` occurrence).
    pub side: SpanSide,
    /// The span's phrase — for rewrites, the phrase in the direction
    /// actually observed (`text` in R rewritten to `to` in S).
    pub text: String,
    /// For rewrites: the observed S-side replacement phrase.
    pub to: Option<String>,
    /// Zero-based line of the anchoring span.
    pub line: u8,
    /// Zero-based token offset of the anchoring span within its line.
    pub pos: u16,
    /// For rewrites: `(line, pos)` of the S-side occurrence.
    pub to_span: Option<(u8, u16)>,
    /// Antisymmetric feature value (+1 R-side, −1 S-side).
    pub value: f64,
    /// The trained weight the value is priced at: the flat model's
    /// per-feature weight, or the coupled model's
    /// `position_weight × term_weight` product. Zero for features outside
    /// the trained vocabulary.
    pub weight: f64,
    /// `value * weight` — this span's share of the pair's margin.
    pub contribution: f64,
}

/// A fully attributed scored pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The pair's margin, exactly as [`Scorer::score_pair`] serves it
    /// (positive ⇒ R expected to out-click S).
    pub score: f64,
    /// The classifier's intercept.
    pub bias: f64,
    /// Per-span contributions; `bias + Σ contribution ≈ score`.
    pub spans: Vec<SpanAttribution>,
    /// Fidelity the explanation was computed at (degraded scorers
    /// attribute term features only).
    pub fidelity: Fidelity,
}

/// Weight of one walked feature under the trained classifier, using the
/// exact lookup rules of the scoring paths (absent ⇒ 0).
fn record_weight(classifier: &TrainedClassifier, rec: &PairFeature, index: Option<u32>) -> f64 {
    let weight = |ws: &[f64]| index.and_then(|i| ws.get(i as usize)).copied();
    match classifier {
        TrainedClassifier::Flat(lr) => weight(lr.weights()).unwrap_or(0.0),
        TrainedClassifier::Coupled(cm) => {
            let p = cm
                .pos_weights()
                .get(rec.pos_group as usize)
                .copied()
                .unwrap_or(0.0);
            p * weight(cm.term_weights()).unwrap_or(0.0)
        }
    }
}

/// Attribute the score of the pair `(r, s)` span by span.
///
/// The served score is computed first through the scorer's engine, then
/// the pair's features are walked again with spans attached and each is
/// priced against the classifier. Contributions therefore decompose the
/// *served* number: `bias + Σ spans[i].contribution` equals
/// [`Explanation::score`] up to float-summation order.
pub fn explain_pair<'a>(
    scorer: &Scorer<'a>,
    r: &Snippet,
    s: &Snippet,
    scratch: &mut Scratch<'a>,
) -> Explanation {
    let score = scorer.score_pair(r, s, scratch);
    let classifier = scorer.classifier();
    let bias = match classifier {
        TrainedClassifier::Flat(lr) => lr.bias(),
        TrainedClassifier::Coupled(cm) => cm.bias(),
    };

    let recs = scorer.explain_features(r, s, scratch);
    let interner = scratch.interner();
    let spans = recs
        .iter()
        .map(|(rec, index)| {
            let weight = record_weight(classifier, rec, *index);
            let (kind, text, to) = match rec.feat {
                TermFeat::Term(sym) => (SpanKind::Term, interner.resolve(sym).to_owned(), None),
                TermFeat::Rewrite(a, b) => {
                    // The vocabulary feature is canonical-ordered; the sign
                    // of the value recovers the direction actually observed
                    // (see `PairFeature::value`).
                    let (from_sym, to_sym) = if rec.value >= 0.0 { (a, b) } else { (b, a) };
                    (
                        SpanKind::Rewrite,
                        interner.resolve(from_sym).to_owned(),
                        Some(interner.resolve(to_sym).to_owned()),
                    )
                }
            };
            SpanAttribution {
                kind,
                side: rec.side,
                text,
                to,
                line: rec.line,
                pos: rec.pos,
                to_span: rec.to_span,
                value: rec.value,
                weight,
                contribution: rec.value * weight,
            }
        })
        .collect();

    Explanation {
        score,
        bias,
        spans,
        fidelity: scorer.fidelity().clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ModelSpec;
    use crate::serve::{DeployedModel, ServingBundle};
    use microbrowse_ml::LogReg;
    use microbrowse_store::StatsDb;

    use crate::features::OwnedTermFeat;

    fn flat_bundle(fidelity: Fidelity) -> ServingBundle {
        let model = DeployedModel {
            spec: ModelSpec {
                name: "M1",
                terms: true,
                rewrites: false,
                positions: false,
                init_from_stats: false,
            },
            classifier: TrainedClassifier::Flat(LogReg::from_parts(vec![2.0, -1.5], 0.25)),
            vocab: vec![
                OwnedTermFeat::Term("cheap".into()),
                OwnedTermFeat::Term("pricey".into()),
            ],
        };
        ServingBundle::from_parts(model, StatsDb::new(), fidelity).expect("bundle")
    }

    #[test]
    fn contributions_sum_to_served_score() {
        let bundle = flat_bundle(Fidelity::Full);
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        let r = Snippet::from_lines(["book cheap flights"]);
        let s = Snippet::from_lines(["book pricey flights"]);
        let exp = explain_pair(&scorer, &r, &s, &mut scratch);
        let sum: f64 = exp.bias + exp.spans.iter().map(|a| a.contribution).sum::<f64>();
        assert!((sum - exp.score).abs() < 1e-9, "{sum} vs {}", exp.score);
        assert_eq!(exp.score, scorer.score_pair(&r, &s, &mut scratch));
        // "cheap" (+1 × 2.0) and "pricey" (−1 × −1.5) both push R up.
        assert!(exp.score > 0.0);
        let cheap = exp
            .spans
            .iter()
            .find(|a| a.text == "cheap")
            .expect("cheap span");
        assert_eq!(cheap.kind, SpanKind::Term);
        assert_eq!(cheap.side, SpanSide::R);
        assert_eq!(cheap.contribution, 2.0);
        // Out-of-vocabulary spans are listed but priced at zero.
        let book = exp.spans.iter().find(|a| a.text == "book").expect("book");
        assert_eq!(book.weight, 0.0);
        assert_eq!(book.contribution, 0.0);
    }

    #[test]
    fn degraded_scorer_explains_terms_only() {
        let bundle = flat_bundle(Fidelity::Degraded(
            crate::serve::DegradeReason::StatsMissing,
        ));
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        let r = Snippet::from_lines(["cheap flights"]);
        let s = Snippet::from_lines(["pricey flights"]);
        let exp = explain_pair(&scorer, &r, &s, &mut scratch);
        assert!(exp.fidelity.is_degraded());
        assert!(exp.spans.iter().all(|a| a.kind == SpanKind::Term));
        let sum: f64 = exp.bias + exp.spans.iter().map(|a| a.contribution).sum::<f64>();
        assert!((sum - exp.score).abs() < 1e-9);
    }
}
