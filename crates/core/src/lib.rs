//! # microbrowse-core — Micro-Browsing Models for Search Snippets
//!
//! This crate implements the primary contribution of *"Micro-Browsing Models
//! for Search Snippets"* (Islam, Srikant, Basu; ICDE 2019): a fine-grained
//! model of **which words inside a result snippet a user actually reads**,
//! and its application to predicting which of two ad creatives will earn the
//! higher click-through rate.
//!
//! ## The model in one paragraph
//!
//! For a query `q`, every term position `i` of a snippet `R` carries a
//! relevance `r_i ∈ [0,1]` and an examination indicator `v_i ∈ {0,1}`; the
//! snippet's perceived relevance is `Pr(R|q) = Π r_i^{v_i}` (Eq. 3). Two
//! snippets compete through the log-ratio score (Eq. 5), which re-factors
//! over *phrase rewrites* between them plus leftover per-side terms (Eq. 6),
//! and finally decouples position from relevance (Eq. 8/9) so that both can
//! be learned by coupled logistic regressions. See [`model`].
//!
//! ## Module map (mirrors the paper)
//!
//! | Module | Paper section |
//! |--------|---------------|
//! | [`model`] | §III — Eq. 3–8, the micro-browsing score |
//! | [`corpus`] | §V-A — the ADCORPUS schema: adgroups, creatives, CTRs |
//! | [`serveweight`] | §V-B — serve weights, `sw-diff`, `delta-sw` |
//! | [`rewrite`] | §IV-A — snippet diffing and greedy rewrite matching |
//! | [`statsbuild`] | §V-C / Figure 1 phase 1 — the feature statistics build |
//! | [`paircache`] | — shared pair preprocessing, pair keys and the serve-time score cache |
//! | [`features`] | §IV-A / §V-D.1 — classifier features for M1–M6, one walk for every consumer |
//! | [`classifier`] | §V-D — the six ablation models M1–M6 |
//! | [`train`] | §V-D — the one training recipe: encode, warm-start ("+init"), fit |
//! | [`pipeline`] | §IV-B / Figure 1 — end-to-end corpus → CV metrics |
//! | [`report`] | §V tables — plain-text table rendering |
//! | [`serve`] | — deployable models, loading policy and the serving [`Scorer`] |
//! | [`compiled`] | — the bundle vocabulary and statistics compiled for serving |
//! | [`reference`](mod@reference) | — the training-path scorer the serving engine is proven against |
//! | [`explain`] | Eq. 6 — a served score attributed span by span |
//! | [`suggest`](mod@suggest) | — beam search for rewrites the model scores higher |
//! | [`optimize`] | — hill-climbing a creative over candidate edits |
//! | [`error`] | — the serve-path error taxonomy and bounded retry |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classifier;
pub mod compiled;
pub mod corpus;
pub mod error;
pub mod explain;
pub mod features;
pub mod model;
pub mod optimize;
pub mod paircache;
pub mod pipeline;
pub mod reference;
pub mod report;
pub mod rewrite;
pub mod serve;
pub mod serveweight;
pub mod statsbuild;
pub mod suggest;
pub mod train;

pub use classifier::{ModelSpec, TrainedClassifier};
pub use compiled::{CompiledFeatureTable, ScoringEngine};
pub use corpus::{
    AdCorpus, AdGroup, AdGroupId, Creative, CreativeId, CreativePair, PairFilter, Placement,
};
pub use error::{with_retry, MbError, RetryPolicy};
pub use explain::{explain_pair, Explanation, SpanAttribution, SpanKind};
pub use features::{Featurizer, PositionVocab, SpanSide};
pub use model::{score_factored, score_flat, snippet_relevance, TermJudgment};
pub use optimize::{apply_edit, optimize_creative, Edit, OptimizeConfig, OptimizeOutcome};
pub use paircache::{AlignCache, PairCache, PairSide};
pub use pipeline::{
    run_all_models, run_experiment, run_experiments, ExperimentConfig, ExperimentOutcome,
};
pub use reference::ReferenceScorer;
pub use rewrite::{token_diff, DiffOp, MatchStrategy, RewriteExtraction, RewriteExtractor};
pub use serve::{
    DegradeReason, DeployedModel, Fidelity, LoadPolicy, ScoreOutcome, Scorer, ScorerBuilder,
    Scratch, ServingBundle,
};
pub use serveweight::{delta_sw, serve_weights, sw_diff};
pub use statsbuild::{build_stats, build_stats_for, build_stats_from_corpus, StatsBuildConfig};
pub use suggest::{suggest, RewriteStep, SuggestConfig, Suggestion};
pub use train::TrainingSet;
