//! The training recipe (§V-D), one for every trainer: `microbrowse train`,
//! the online refit and the experiment engine's fold and final fits all
//! run `TrainingSet::fit`, so the model Table 2 and Figure 3 validate is
//! the model that is served.
//!
//! 1. **Encode** the chosen pairs through the shared preprocessing
//!    ([`Featurizer::encode_pairs_cached`]), bit-identically at every
//!    thread count.
//! 2. **Warm-start** (the paper's "+init") from the statistics database:
//!    log odds for relevance weights, odds for position weights, each
//!    shrunk toward its neutral value (0, 1) by
//!    [`TrainConfig::init_scale`] with one expression, exact at scale 1.
//! 3. **Fit** the spec's classifier; [`TrainingSet::train`] exports the
//!    vocabulary the fit grew with it as a [`DeployedModel`].

use microbrowse_store::StatsDb;

use crate::classifier::{ModelSpec, TrainConfig, TrainedClassifier};
use crate::corpus::{AdCorpus, CreativePair, PairFilter};
use crate::features::{EncodedData, Featurizer};
use crate::paircache::PairCache;
use crate::rewrite::RewriteConfig;
use crate::serve::DeployedModel;
use crate::statsbuild::{build_stats_for, StatsBuildConfig, TokenizedCorpus};

/// Creative pairs ready to train on: a tokenized corpus, its pairs and
/// their [`PairCache`], built once under one statistics-build and rewrite
/// configuration. The interner is immutable from then on.
#[derive(Debug)]
pub struct TrainingSet {
    tc: TokenizedCorpus,
    pairs: Vec<CreativePair>,
    cache: PairCache,
    stats: StatsBuildConfig,
    rewrite: RewriteConfig,
}

/// A fitted classifier and the featurizer whose vocabulary numbers its
/// weights. Held-out pairs encoded with it give unseen features ids past
/// the trained weights, which price at zero.
#[derive(Debug)]
pub(crate) struct Fit<'s> {
    /// The featurizer the fit grew.
    pub(crate) featurizer: Featurizer<'s>,
    /// The fitted classifier.
    pub(crate) classifier: TrainedClassifier,
}

impl TrainingSet {
    /// Preprocess `pairs` of `tc`: n-gram orders and the statistics
    /// build's rewrite length come from `stats`, the featurizer's rewrite
    /// matching from `rewrite`.
    pub(crate) fn new(
        mut tc: TokenizedCorpus,
        pairs: Vec<CreativePair>,
        stats: &StatsBuildConfig,
        rewrite: RewriteConfig,
    ) -> Self {
        let cache = PairCache::build(&mut tc, &pairs, stats.ngram, rewrite, stats.max_rewrite_len);
        Self {
            tc,
            pairs,
            cache,
            stats: *stats,
            rewrite,
        }
    }

    /// Tokenize `corpus` and preprocess its pairs that pass the default
    /// [`PairFilter`], under the default configurations.
    pub fn from_corpus(corpus: &AdCorpus) -> Self {
        let pairs = corpus.extract_pairs(&PairFilter::default());
        let tc = TokenizedCorpus::build(corpus);
        Self::new(
            tc,
            pairs,
            &StatsBuildConfig::default(),
            RewriteConfig::default(),
        )
    }

    /// The creative pairs; a fit selects among them by index.
    pub fn pairs(&self) -> &[CreativePair] {
        &self.pairs
    }

    /// The index of every pair.
    pub fn all(&self) -> Vec<usize> {
        (0..self.pairs.len()).collect()
    }

    /// The statistics database over the pairs `idxs`, built on up to
    /// `threads` workers (0 = auto); it is the same at every count.
    pub fn build_stats(&self, idxs: &[usize], threads: usize) -> StatsDb {
        let cfg = StatsBuildConfig {
            threads,
            ..self.stats
        };
        build_stats_for(&self.tc, &self.pairs, idxs, &self.cache, &cfg)
    }

    /// Encode the pairs `idxs` with `featurizer`, growing its vocabulary
    /// in pair order.
    pub(crate) fn encode(
        &self,
        featurizer: &mut Featurizer<'_>,
        idxs: &[usize],
        threads: usize,
    ) -> EncodedData {
        let _span = microbrowse_obs::trace::span("pipeline.encode").with("pairs", idxs.len());
        let tc = &self.tc;
        featurizer.encode_pairs_cached(&self.pairs, idxs, tc, &self.cache, &tc.interner, threads)
    }

    /// The recipe: encode the pairs `idxs`, warm-start from `stats`, fit
    /// `spec`.
    pub(crate) fn fit<'s>(
        &self,
        spec: ModelSpec,
        stats: &'s StatsDb,
        idxs: &[usize],
        cfg: &TrainConfig,
        threads: usize,
    ) -> Fit<'s> {
        let mut featurizer = Featurizer::with_configs(spec, stats, self.stats.ngram, self.rewrite);
        let data = self.encode(&mut featurizer, idxs, threads);
        let s = cfg.init_scale;
        let shrink = |w: f64, neutral: f64| w * s + neutral * (1.0 - s);
        let init_terms = featurizer
            .init_term_weights(&self.tc.interner, cfg.stats_alpha, cfg.init_min_support)
            .into_iter()
            .map(|w| shrink(w, 0.0))
            .collect();
        let init_pos = featurizer
            .init_pos_weights(cfg.stats_alpha)
            .into_iter()
            .map(|w| shrink(w, 1.0))
            .collect();
        let classifier =
            TrainedClassifier::train(&spec, &data, Some(init_terms), Some(init_pos), cfg);
        Fit {
            featurizer,
            classifier,
        }
    }

    /// Fit `spec` on every pair: the deployable model.
    pub fn train(
        &self,
        spec: ModelSpec,
        stats: &StatsDb,
        cfg: &TrainConfig,
        threads: usize,
    ) -> DeployedModel {
        let fit = self.fit(spec, stats, &self.all(), cfg, threads);
        DeployedModel {
            spec,
            vocab: fit.featurizer.export_vocab(&self.tc.interner),
            classifier: fit.classifier,
        }
    }
}
