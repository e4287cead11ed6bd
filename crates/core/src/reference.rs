//! The differential oracle for the serving engine.
//!
//! [`ReferenceScorer`] scores a creative pair the way training encodes one:
//! tokenize both sides fresh, run the [`Featurizer`] (n-gram extraction and
//! the rewrite extractor probing the [`StatsDb`] maps), and apply the
//! trained classifier. It shares no code with the compiled engine behind
//! [`Scorer`](crate::serve::Scorer) beyond the extraction and the feature
//! walk the pipeline already trains through, so the proptests in
//! `core/tests/prop_hot.rs`, `core/tests/prop.rs` and the `bench_score_hot`
//! gate prove the engine against it bit for bit.
//!
//! The oracle keeps its interner and featurizer across calls, as training
//! does, so both grow with every new string and feature it meets. A
//! feature outside the model vocabulary gets an id past the trained
//! weights and prices at exactly zero, so the score depends only on the
//! pair, never on that history — the property the engine, which prices
//! vocabulary features alone, is proven to share with it.

use microbrowse_store::StatsDb;
use microbrowse_text::{Interner, Snippet, Tokenizer};

use crate::classifier::TrainedClassifier;
use crate::features::Featurizer;
use crate::serve::{effective_spec, DeployedModel, Fidelity};

/// Single-pair scorer over a deployed model and its statistics database,
/// with no compiled table, arena or alignment cache.
pub struct ReferenceScorer<'a> {
    model: &'a DeployedModel,
    tokenizer: Tokenizer,
    interner: Interner,
    featurizer: Featurizer<'a>,
}

impl<'a> ReferenceScorer<'a> {
    /// Build the oracle for `model` at `fidelity` — the same parts a
    /// [`ServingBundle`](crate::ServingBundle) is assembled from — with the
    /// model vocabulary preloaded so trained feature ids keep their
    /// meaning. Degraded fidelity switches the rewrite family off exactly
    /// as a bundle scorer does.
    pub fn from_parts(model: &'a DeployedModel, stats: &'a StatsDb, fidelity: &Fidelity) -> Self {
        let mut interner = Interner::new();
        let mut featurizer = Featurizer::new(effective_spec(model.spec, fidelity), stats);
        featurizer.preload_vocab(&model.vocab, &mut interner);
        Self {
            model,
            tokenizer: Tokenizer::default(),
            interner,
            featurizer,
        }
    }

    /// Score a creative pair (positive ⇒ `r` expected to out-click `s`).
    pub fn score_pair(&mut self, r: &Snippet, s: &Snippet) -> f64 {
        let tok_r = r.tokenize(&self.tokenizer, &mut self.interner);
        let tok_s = s.tokenize(&self.tokenizer, &mut self.interner);
        match &self.model.classifier {
            TrainedClassifier::Flat(lr) => {
                let ex = self
                    .featurizer
                    .encode_flat(&tok_r, &tok_s, true, &mut self.interner);
                lr.score(&ex.features)
            }
            TrainedClassifier::Coupled(cm) => {
                let ex = self
                    .featurizer
                    .encode_coupled(&tok_r, &tok_s, true, &mut self.interner);
                cm.score(&ex)
            }
        }
    }
}
