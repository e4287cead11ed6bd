//! The end-to-end snippet-classification pipeline (Figure 1, §IV-B).
//!
//! Two phases, as in the paper:
//!
//! 1. **Feature extraction** — scan creative pairs, build the feature
//!    statistics database ([`crate::statsbuild`]).
//! 2. **Classification** — featurize each pair, warm-start and fit the
//!    chosen model variant through the training recipe ([`crate::train`]),
//!    and evaluate.
//!
//! Evaluation is "standard 10-fold cross validation" (§V-D.2) with one
//! strengthening: the statistics database of each fold is rebuilt from that
//! fold's *training* pairs only, so no test-pair information leaks into the
//! initialization. (The paper builds one database over the full ADCORPUS;
//! [`ExperimentConfig::stats_on_full_corpus`] reproduces that variant for
//! the ablation study.)
//!
//! ## The parallel experiment engine
//!
//! [`run_experiments`] evaluates any number of model specs over *one* shared
//! preprocessing pass:
//!
//! * the corpus is tokenized once and every qualifying pair's n-gram
//!   occurrences and alignment spans are cached up front
//!   ([`crate::paircache`]), with all candidate phrases pre-interned;
//! * each fold's training statistics database is built once and reused by
//!   every spec (previously every spec rebuilt every fold's database);
//! * the `(spec, fold)` task grid then fans out over
//!   [`microbrowse_par::par_map`].
//!
//! Because every post-cache stage reads only immutable shared state and
//! results are reassembled in task order, the outcome is bit-identical to
//! the serial pipeline at any [`ExperimentConfig::threads`] setting.

use microbrowse_ml::{grouped_kfold, stratified_kfold, BinaryMetrics, Confusion, FoldSplit};
use microbrowse_obs as obs;
use microbrowse_store::StatsDb;

use crate::classifier::{ModelSpec, TrainConfig};
use crate::corpus::{AdCorpus, CreativePair, PairFilter};
use crate::rewrite::RewriteConfig;
use crate::statsbuild::{StatsBuildConfig, TokenizedCorpus};
use crate::train::TrainingSet;

/// Configuration of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Pair qualification filter (§V-A).
    pub pair_filter: PairFilter,
    /// Number of cross-validation folds (the paper uses 10).
    pub folds: usize,
    /// Seed for fold assignment and training shuffles.
    pub seed: u64,
    /// Classifier training hyper-parameters.
    pub train: TrainConfig,
    /// Statistics-build settings.
    pub stats: StatsBuildConfig,
    /// Rewrite matching used at featurization time (greedy by default).
    pub rewrite: RewriteConfig,
    /// Build the stats DB once over all pairs instead of per training fold
    /// (the paper's setup; leaks initialization evidence — off by default).
    pub stats_on_full_corpus: bool,
    /// Keep all pairs of one adgroup in the same fold (on by default):
    /// creatives appear in several pairs, so splitting an adgroup across
    /// folds would leak creative-specific evidence into the test fold.
    pub group_folds_by_adgroup: bool,
    /// Optional cap on the number of pairs (deterministic subsample).
    pub max_pairs: Option<usize>,
    /// Worker threads for the experiment engine (0 = `MICROBROWSE_THREADS`
    /// env, falling back to available parallelism). Results are identical
    /// at every setting.
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            pair_filter: PairFilter::default(),
            folds: 10,
            seed: 42,
            train: TrainConfig::default(),
            stats: StatsBuildConfig::default(),
            rewrite: RewriteConfig::default(),
            stats_on_full_corpus: false,
            group_folds_by_adgroup: true,
            max_pairs: None,
            threads: 0,
        }
    }
}

/// The result of one experiment (one model spec, one corpus).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutcome {
    /// The evaluated model variant.
    pub spec: ModelSpec,
    /// Per-fold test metrics.
    pub fold_metrics: Vec<BinaryMetrics>,
    /// Unweighted mean across folds (the paper's table cells).
    pub mean: BinaryMetrics,
    /// Pooled confusion matrix over all folds.
    pub pooled: Confusion,
    /// Number of pairs evaluated.
    pub num_pairs: usize,
    /// Learned position weights (coupled models only) from a final fit on
    /// the full pair set — the data behind Figure 3.
    pub position_weights: Option<Vec<f64>>,
}

/// Extract and (deterministically) subsample the qualifying pairs.
fn qualified_pairs(corpus: &AdCorpus, cfg: &ExperimentConfig) -> Vec<CreativePair> {
    let mut pairs = corpus.extract_pairs(&cfg.pair_filter);
    if let Some(cap) = cfg.max_pairs {
        if pairs.len() > cap {
            // Deterministic subsample: shuffle by seed, truncate.
            use microbrowse_text::hash::FxHasher;
            use std::hash::{Hash, Hasher};
            pairs.sort_by_key(|p| {
                let mut h = FxHasher::default();
                (cfg.seed, p.adgroup.0, p.r.0, p.s.0).hash(&mut h);
                h.finish()
            });
            pairs.truncate(cap);
        }
    }
    pairs
}

/// Run the full pipeline for one model variant.
pub fn run_experiment(
    corpus: &AdCorpus,
    spec: ModelSpec,
    cfg: &ExperimentConfig,
) -> ExperimentOutcome {
    run_experiments(corpus, &[spec], cfg)
        .pop()
        .expect("one spec in, one outcome out")
}

/// Run all six paper variants (Table 2 / Table 4 rows) over one shared
/// preprocessing pass.
pub fn run_all_models(corpus: &AdCorpus, cfg: &ExperimentConfig) -> Vec<ExperimentOutcome> {
    run_experiments(corpus, &ModelSpec::paper_models(), cfg)
}

/// Run the cross-validated pipeline for every spec in `specs`, sharing the
/// tokenized corpus, the pair-preprocessing cache, and the per-fold
/// statistics databases across all of them.
///
/// The `(spec, fold)` grid executes on up to [`ExperimentConfig::threads`]
/// workers; outcomes are bit-identical at any thread count.
pub fn run_experiments(
    corpus: &AdCorpus,
    specs: &[ModelSpec],
    cfg: &ExperimentConfig,
) -> Vec<ExperimentOutcome> {
    let threads = microbrowse_par::resolve_threads(cfg.threads);
    let mut root = obs::trace::span("pipeline.experiment")
        .with("specs", specs.len())
        .with("threads", threads);
    let (tc, pairs) = {
        let mut parse = obs::trace::span("pipeline.parse");
        let tc = TokenizedCorpus::build(corpus);
        let pairs = qualified_pairs(corpus, cfg);
        parse.add("creatives", tc.snippets.len());
        parse.add("pairs", pairs.len());
        (tc, pairs)
    };
    root.add("pairs", pairs.len());
    let folds = if cfg.group_folds_by_adgroup {
        let groups: Vec<u64> = pairs.iter().map(|p| p.adgroup.0).collect();
        grouped_kfold(&groups, cfg.folds.max(2), cfg.seed)
    } else {
        let labels: Vec<bool> = pairs.iter().map(|p| p.r_better).collect();
        stratified_kfold(&labels, cfg.folds.max(2), cfg.seed)
    };

    // Pre-intern every phrase any later stage can need; from here on the
    // interner is immutable and every stage runs off shared `&` state.
    let set = {
        let _cache_span = obs::trace::span("pipeline.cache").with("pairs", pairs.len());
        TrainingSet::new(tc, pairs, &cfg.stats, cfg.rewrite)
    };
    let n = set.pairs().len();
    let all_idx = set.all();

    let full_stats = cfg
        .stats_on_full_corpus
        .then(|| set.build_stats(&all_idx, cfg.stats.threads));

    // One training-fold statistics database per fold, shared by all specs.
    // Inner builds go serial whenever the fold level already fans out.
    let fold_train_stats: Vec<Option<StatsDb>> = if full_stats.is_some() {
        folds.iter().map(|_| None).collect()
    } else {
        let inner = if folds.len() > 1 { 1 } else { threads };
        microbrowse_par::par_map(&folds, threads, |_, fold| {
            if fold.test_idx.is_empty() {
                return None;
            }
            Some(set.build_stats(&train_indices(fold, n), inner))
        })
    };

    // The (spec, fold) task grid, spec-major so results reassemble by
    // simple sequential consumption.
    let tasks: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|si| {
            folds
                .iter()
                .enumerate()
                .filter(|(_, f)| !f.test_idx.is_empty())
                .map(move |(fi, _)| (si, fi))
        })
        .collect();
    let inner = if tasks.len() > 1 { 1 } else { threads };
    let confusions: Vec<Confusion> = microbrowse_par::par_map(&tasks, threads, |_, &(si, fi)| {
        let _fold_span = obs::trace::span("pipeline.fold")
            .with("spec", specs[si].name)
            .with("fold", fi);
        let stats = full_stats
            .as_ref()
            .or(fold_train_stats[fi].as_ref())
            .expect("non-empty fold has a stats db");
        run_fold(&set, &folds[fi], specs[si], stats, &cfg.train, inner)
    });

    // Final full-data fits for position-weight reporting (Figure 3).
    let needs_final = n > 0 && specs.iter().any(|s| s.positions) && full_stats.is_none();
    let final_stats = needs_final.then(|| set.build_stats(&all_idx, cfg.stats.threads));
    let inner_final = if specs.len() > 1 { 1 } else { threads };
    let position_weights: Vec<Option<Vec<f64>>> =
        microbrowse_par::par_map(specs, threads, |_, spec| {
            if !spec.positions || n == 0 {
                return None;
            }
            let _final_span = obs::trace::span("pipeline.finalfit").with("spec", spec.name);
            let stats = full_stats
                .as_ref()
                .or(final_stats.as_ref())
                .expect("final-fit stats db built");
            let fit = set.fit(*spec, stats, &all_idx, &cfg.train, inner_final);
            fit.classifier.position_weights().map(<[f64]>::to_vec)
        });

    let mut confusions = confusions.into_iter();
    specs
        .iter()
        .zip(position_weights)
        .map(|(spec, position_weights)| {
            let mut fold_metrics = Vec::with_capacity(folds.len());
            let mut pooled = Confusion::default();
            for fold in &folds {
                if fold.test_idx.is_empty() {
                    continue;
                }
                let confusion = confusions.next().expect("one confusion per task");
                pooled.merge(&confusion);
                fold_metrics.push(confusion.metrics());
            }
            ExperimentOutcome {
                spec: *spec,
                mean: BinaryMetrics::mean(&fold_metrics),
                fold_metrics,
                pooled,
                num_pairs: n,
                position_weights,
            }
        })
        .collect()
}

/// The indices of the `n` pairs outside `fold`'s held-out set.
fn train_indices(fold: &FoldSplit, n: usize) -> Vec<usize> {
    let mask = fold.test_mask(n);
    (0..n).filter(|&i| !mask[i]).collect()
}

/// Train on a fold's complement and evaluate on its held-out pairs, which
/// are encoded with the featurizer the fit grew.
fn run_fold(
    set: &TrainingSet,
    fold: &FoldSplit,
    spec: ModelSpec,
    stats: &StatsDb,
    train: &TrainConfig,
    threads: usize,
) -> Confusion {
    let train_idx = train_indices(fold, set.pairs().len());
    let mut fit = set.fit(spec, stats, &train_idx, train, threads);
    let test_data = set.encode(&mut fit.featurizer, &fold.test_idx, threads);
    let _eval_span = obs::trace::span("pipeline.eval").with("test_pairs", fold.test_idx.len());
    Confusion::from_pairs(fit.classifier.predict_all(&test_data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{AdGroup, AdGroupId, Creative, CreativeId, Placement};
    use microbrowse_text::Snippet;

    /// A tiny corpus where "cheap" always wins over "pricey" — enough for
    /// smoke-level pipeline checks (the real experiments live in the bench
    /// crate against the synthetic generator).
    fn tiny_corpus(n_groups: u64) -> AdCorpus {
        let adgroups = (0..n_groups)
            .map(|g| AdGroup {
                id: AdGroupId(g),
                keyword: "flights".into(),
                placement: Placement::Top,
                creatives: vec![
                    Creative {
                        id: CreativeId(g * 2),
                        snippet: Snippet::creative(
                            "Air Travel",
                            "book cheap flights today",
                            "trusted by millions",
                        ),
                        impressions: 5_000,
                        clicks: 400 + (g % 3) * 10,
                    },
                    Creative {
                        id: CreativeId(g * 2 + 1),
                        snippet: Snippet::creative(
                            "Air Travel",
                            "book pricey flights today",
                            "trusted by millions",
                        ),
                        impressions: 5_000,
                        clicks: 150 + (g % 3) * 10,
                    },
                ],
            })
            .collect();
        AdCorpus { adgroups }
    }

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig {
            folds: 3,
            train: TrainConfig {
                logreg: microbrowse_ml::LogRegConfig {
                    epochs: 5,
                    ..Default::default()
                },
                coupled: microbrowse_ml::coupled::CoupledOptimizer::Joint {
                    epochs: 8,
                    eta0: 0.1,
                    l1: 1e-5,
                    l2: 1e-6,
                    seed: 7,
                },
                stats_alpha: 1.0,
                init_min_support: 2,
                init_scale: 0.25,
            },
            stats: StatsBuildConfig {
                threads: 2,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn flat_pipeline_learns_the_tiny_pattern() {
        let corpus = tiny_corpus(30);
        let out = run_experiment(&corpus, ModelSpec::m1(), &quick_cfg());
        assert_eq!(out.num_pairs, 30);
        assert!(
            out.mean.accuracy > 0.8,
            "M1 accuracy {} on a trivially-separable corpus",
            out.mean.accuracy
        );
        assert!(out.position_weights.is_none());
    }

    #[test]
    fn coupled_pipeline_runs_and_reports_positions() {
        let corpus = tiny_corpus(30);
        let out = run_experiment(&corpus, ModelSpec::m6(), &quick_cfg());
        assert!(out.mean.accuracy > 0.8, "M6 accuracy {}", out.mean.accuracy);
        let pw = out
            .position_weights
            .expect("coupled model must report positions");
        assert_eq!(
            pw.len(),
            crate::features::PositionVocab::num_groups() as usize
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let corpus = tiny_corpus(20);
        let cfg = quick_cfg();
        let a = run_experiment(&corpus, ModelSpec::m3(), &cfg);
        let b = run_experiment(&corpus, ModelSpec::m3(), &cfg);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.pooled, b.pooled);
    }

    #[test]
    fn max_pairs_caps_deterministically() {
        let corpus = tiny_corpus(30);
        let cfg = ExperimentConfig {
            max_pairs: Some(10),
            ..quick_cfg()
        };
        let a = run_experiment(&corpus, ModelSpec::m1(), &cfg);
        let b = run_experiment(&corpus, ModelSpec::m1(), &cfg);
        assert_eq!(a.num_pairs, 10);
        assert_eq!(a.pooled, b.pooled);
    }

    #[test]
    fn empty_corpus_is_graceful() {
        let out = run_experiment(&AdCorpus::default(), ModelSpec::m1(), &quick_cfg());
        assert_eq!(out.num_pairs, 0);
        assert!(out.fold_metrics.is_empty());
        assert_eq!(out.mean.support, 0);
    }

    #[test]
    fn full_corpus_stats_variant_runs() {
        let corpus = tiny_corpus(20);
        let cfg = ExperimentConfig {
            stats_on_full_corpus: true,
            ..quick_cfg()
        };
        let out = run_experiment(&corpus, ModelSpec::m5(), &cfg);
        assert!(out.mean.accuracy > 0.8);
    }

    /// The served model is the validated one: the recipe as `microbrowse
    /// train` runs it (statistics and fit over every pair) learns the
    /// position weights of the experiment's final fit, also at an
    /// `init_scale` that shrinks the warm start. The losing creative lacks
    /// "cheap" and shifts "today", so some positions start away from 1;
    /// a fit that left them unshrunk would learn other weights.
    #[test]
    fn trained_positions_equal_the_final_fit() {
        let mut corpus = tiny_corpus(30);
        for group in &mut corpus.adgroups {
            group.creatives[1].snippet = Snippet::creative(
                "Air Travel",
                "book flights today",
                "trusted by millions today",
            );
        }
        let cfg = quick_cfg();
        assert_eq!(cfg.train.init_scale, 0.25);
        let set = TrainingSet::from_corpus(&corpus);
        let stats = set.build_stats(&set.all(), 1);
        let model = set.train(ModelSpec::m6(), &stats, &cfg.train, 1);
        let out = run_experiment(&corpus, ModelSpec::m6(), &cfg);
        let served = model.classifier.position_weights().map(<[f64]>::to_vec);
        assert!(served.is_some());
        assert_eq!(served, out.position_weights);
    }

    #[test]
    fn batched_engine_matches_single_spec_runs() {
        let corpus = tiny_corpus(12);
        let cfg = quick_cfg();
        let specs = [ModelSpec::m1(), ModelSpec::m4()];
        let batched = run_experiments(&corpus, &specs, &cfg);
        for (spec, out) in specs.iter().zip(&batched) {
            assert_eq!(
                out,
                &run_experiment(&corpus, *spec, &cfg),
                "spec {}",
                spec.name
            );
        }
    }
}
