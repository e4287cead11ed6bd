//! The six snippet classifiers of the ablation study (§V-D).
//!
//! "We turn on these individual components incrementally in the feature set
//! of the logistic regression model, to create multiple snippet classifier
//! models":
//!
//! | Model | Features | Position info | Stats-DB init |
//! |-------|----------|---------------|---------------|
//! | M1 | terms | – | ✓ |
//! | M2 | terms | ✓ | ✓ |
//! | M3 | greedy rewrites | – | ✓ |
//! | M4 | greedy rewrites | ✓ | ✓ |
//! | M5 | rewrites + terms | – | ✓ |
//! | M6 | rewrites + terms | ✓ | ✓ |
//!
//! Position-free models are plain L1 logistic regressions
//! ([`microbrowse_ml::logreg`]); position-aware models are the coupled
//! alternating regression of Eq. 9 ([`microbrowse_ml::coupled`]).

use microbrowse_ml::coupled::CoupledOptimizer;
use microbrowse_ml::{CoupledConfig, CoupledModel, LogReg, LogRegConfig};

use crate::features::EncodedData;

/// Which micro-browsing components a classifier variant uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSpec {
    /// Display name ("M1" … "M6", or custom for ablations).
    pub name: &'static str,
    /// Use full n-gram term features.
    pub terms: bool,
    /// Use greedy rewrite features (plus leftover terms when `terms` off).
    pub rewrites: bool,
    /// Use position information (coupled position × relevance model).
    pub positions: bool,
    /// Initialize weights from the feature statistics database.
    pub init_from_stats: bool,
}

impl ModelSpec {
    /// M1: terms only, no position information.
    pub fn m1() -> Self {
        Self {
            name: "M1",
            terms: true,
            rewrites: false,
            positions: false,
            init_from_stats: true,
        }
    }

    /// M2: terms with position information.
    pub fn m2() -> Self {
        Self {
            name: "M2",
            terms: true,
            rewrites: false,
            positions: true,
            init_from_stats: true,
        }
    }

    /// M3: greedy rewrites only.
    pub fn m3() -> Self {
        Self {
            name: "M3",
            terms: false,
            rewrites: true,
            positions: false,
            init_from_stats: true,
        }
    }

    /// M4: greedy rewrites with position information.
    pub fn m4() -> Self {
        Self {
            name: "M4",
            terms: false,
            rewrites: true,
            positions: true,
            init_from_stats: true,
        }
    }

    /// M5: rewrites and terms, no position information.
    pub fn m5() -> Self {
        Self {
            name: "M5",
            terms: true,
            rewrites: true,
            positions: false,
            init_from_stats: true,
        }
    }

    /// M6: rewrites and terms with position information — the full
    /// micro-browsing model.
    pub fn m6() -> Self {
        Self {
            name: "M6",
            terms: true,
            rewrites: true,
            positions: true,
            init_from_stats: true,
        }
    }

    /// All six paper variants, in table order.
    pub fn paper_models() -> [ModelSpec; 6] {
        [
            Self::m1(),
            Self::m2(),
            Self::m3(),
            Self::m4(),
            Self::m5(),
            Self::m6(),
        ]
    }

    /// Paper-style row label (e.g. "M4: Rewrites w. pos").
    pub fn label(&self) -> String {
        let features = match (self.terms, self.rewrites) {
            (true, false) => "Terms",
            (false, true) => "Rewrites",
            (true, true) => "Rewrites & terms",
            (false, false) => "(empty)",
        };
        let pos = if self.positions { " w. pos" } else { "" };
        format!("{}: {}{}", self.name, features, pos)
    }
}

/// Training hyper-parameters shared by all variants.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Inner logistic-regression configuration (flat models and the coupled
    /// model's alternating steps).
    pub logreg: LogRegConfig,
    /// Optimizer for the coupled (position-aware) models.
    pub coupled: CoupledOptimizer,
    /// Laplace smoothing when reading the stats DB for initialization.
    pub stats_alpha: f64,
    /// Minimum observations a feature statistic needs before it is used as
    /// an initial weight.
    pub init_min_support: u64,
    /// Shrinkage applied to stats-DB initial weights. The database scores
    /// every feature independently, but a creative pair activates dozens of
    /// *correlated* features (a changed phrase lights up all its n-grams),
    /// so summing raw log-odds overcounts the evidence; shrinking toward
    /// zero (terms) / one (positions) calibrates the warm start.
    pub init_scale: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            logreg: LogRegConfig::default(),
            coupled: CoupledOptimizer::default(),
            stats_alpha: 1.0,
            init_min_support: 4,
            init_scale: 1.0,
        }
    }
}

/// A trained snippet-pair classifier (either encoding).
#[derive(Debug, Clone, PartialEq)]
pub enum TrainedClassifier {
    /// Flat logistic regression (M1/M3/M5).
    Flat(LogReg),
    /// Coupled position × relevance model (M2/M4/M6).
    Coupled(CoupledModel),
}

impl TrainedClassifier {
    /// Train on encoded data with optional stats-DB initialization.
    pub fn train(
        spec: &ModelSpec,
        data: &EncodedData,
        init_terms: Option<Vec<f64>>,
        init_pos: Option<Vec<f64>>,
        cfg: &TrainConfig,
    ) -> TrainedClassifier {
        match data {
            EncodedData::Flat(d) => {
                let mut span = microbrowse_obs::trace::span("pipeline.train")
                    .with("spec", spec.name)
                    .with("encoding", "flat")
                    .with("examples", d.examples().len());
                let mut lr_cfg = cfg.logreg.clone();
                if spec.init_from_stats {
                    lr_cfg.init_weights = init_terms;
                }
                let (model, report) = LogReg::fit(d, &lr_cfg);
                span.add("epochs", report.epoch_losses.len());
                span.add("steps", report.steps);
                span.add("zero_weights", report.zero_weights);
                span.add(
                    "final_loss",
                    report.epoch_losses.last().copied().unwrap_or(f64::NAN),
                );
                TrainedClassifier::Flat(model)
            }
            EncodedData::Coupled(d) => {
                let _span = microbrowse_obs::trace::span("pipeline.train")
                    .with("spec", spec.name)
                    .with("encoding", "coupled")
                    .with("examples", d.examples().len());
                let coupled_cfg = CoupledConfig {
                    optimizer: cfg.coupled,
                    term_cfg: cfg.logreg.clone(),
                    pos_cfg: LogRegConfig {
                        l1: 0.0,
                        ..cfg.logreg.clone()
                    },
                    init_pos: if spec.init_from_stats { init_pos } else { None },
                    init_terms: if spec.init_from_stats {
                        init_terms
                    } else {
                        None
                    },
                    nonnegative_positions: true,
                };
                TrainedClassifier::Coupled(CoupledModel::fit(d, &coupled_cfg))
            }
        }
    }

    /// Predict every example of an encoded dataset, returning
    /// `(prediction, label)` pairs.
    pub fn predict_all(&self, data: &EncodedData) -> Vec<(bool, bool)> {
        match (self, data) {
            (TrainedClassifier::Flat(m), EncodedData::Flat(d)) => d
                .examples()
                .iter()
                .map(|ex| (m.predict(&ex.features), ex.label))
                .collect(),
            (TrainedClassifier::Coupled(m), EncodedData::Coupled(d)) => d
                .examples()
                .iter()
                .map(|ex| (m.predict(ex), ex.label))
                .collect(),
            _ => panic!("classifier/encoding mismatch"),
        }
    }

    /// The learned term-position weights (Figure 3), available only for
    /// coupled classifiers.
    pub fn position_weights(&self) -> Option<&[f64]> {
        match self {
            TrainedClassifier::Coupled(m) => Some(m.pos_weights()),
            TrainedClassifier::Flat(_) => None,
        }
    }
}

/// Convenience re-exports for downstream crates that just want datasets.
pub use microbrowse_ml::{CoupledDataset as CoupledData, Dataset as FlatData};

#[cfg(test)]
mod tests {
    use super::*;
    use microbrowse_ml::{CoupledDataset, CoupledExample, Dataset, Example, SparseVec};

    #[test]
    fn spec_table_matches_paper() {
        let specs = ModelSpec::paper_models();
        assert_eq!(specs[0].label(), "M1: Terms");
        assert_eq!(specs[1].label(), "M2: Terms w. pos");
        assert_eq!(specs[2].label(), "M3: Rewrites");
        assert_eq!(specs[3].label(), "M4: Rewrites w. pos");
        assert_eq!(specs[4].label(), "M5: Rewrites & terms");
        assert_eq!(specs[5].label(), "M6: Rewrites & terms w. pos");
        assert!(specs.iter().all(|s| s.init_from_stats));
        // Position info alternates in table order.
        assert_eq!(
            specs.map(|s| s.positions),
            [false, true, false, true, false, true]
        );
    }

    fn tiny_flat_data() -> EncodedData {
        let mut d = Dataset::with_dim(2);
        for _ in 0..200 {
            d.push(Example::new(SparseVec::from_pairs(vec![(0, 1.0)]), true));
            d.push(Example::new(SparseVec::from_pairs(vec![(1, 1.0)]), false));
        }
        EncodedData::Flat(d)
    }

    #[test]
    fn trains_flat_for_flat_data() {
        let data = tiny_flat_data();
        let clf =
            TrainedClassifier::train(&ModelSpec::m1(), &data, None, None, &TrainConfig::default());
        assert!(matches!(clf, TrainedClassifier::Flat(_)));
        let preds = clf.predict_all(&data);
        let correct = preds.iter().filter(|(p, l)| p == l).count();
        assert!(correct as f64 / preds.len() as f64 > 0.95);
        assert!(clf.position_weights().is_none());
    }

    #[test]
    fn trains_coupled_for_coupled_data() {
        use microbrowse_ml::CoupledFeature;
        let mut d = CoupledDataset::with_dims(2, 2);
        for _ in 0..300 {
            d.push(CoupledExample {
                occs: vec![CoupledFeature {
                    pos: 0,
                    term: 0,
                    value: 1.0,
                }],
                label: true,
            });
            d.push(CoupledExample {
                occs: vec![CoupledFeature {
                    pos: 0,
                    term: 1,
                    value: 1.0,
                }],
                label: false,
            });
        }
        let data = EncodedData::Coupled(d);
        let clf =
            TrainedClassifier::train(&ModelSpec::m6(), &data, None, None, &TrainConfig::default());
        assert!(matches!(clf, TrainedClassifier::Coupled(_)));
        let preds = clf.predict_all(&data);
        let correct = preds.iter().filter(|(p, l)| p == l).count();
        assert!(correct as f64 / preds.len() as f64 > 0.9);
        assert!(clf.position_weights().is_some());
    }

    #[test]
    fn init_weights_respected_for_untrained_model() {
        let data = tiny_flat_data();
        let cfg = TrainConfig {
            logreg: LogRegConfig {
                epochs: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let clf =
            TrainedClassifier::train(&ModelSpec::m1(), &data, Some(vec![2.0, -2.0]), None, &cfg);
        let preds = clf.predict_all(&data);
        assert!(
            preds.iter().all(|(p, l)| p == l),
            "init alone should classify this"
        );
    }

    #[test]
    fn init_ignored_when_spec_disables_it() {
        let data = tiny_flat_data();
        let cfg = TrainConfig {
            logreg: LogRegConfig {
                epochs: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let spec = ModelSpec {
            init_from_stats: false,
            ..ModelSpec::m1()
        };
        let clf =
            TrainedClassifier::train(&data_spec(spec), &data, Some(vec![2.0, -2.0]), None, &cfg);
        // Zero-epoch, no init: everything scores 0 ⇒ predicted false.
        let preds = clf.predict_all(&data);
        assert!(preds.iter().all(|(p, _)| !p));
    }

    fn data_spec(s: ModelSpec) -> ModelSpec {
        s
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn encoding_mismatch_panics() {
        let data = tiny_flat_data();
        let clf =
            TrainedClassifier::train(&ModelSpec::m1(), &data, None, None, &TrainConfig::default());
        let coupled = EncodedData::Coupled(CoupledDataset::with_dims(1, 1));
        let _ = clf.predict_all(&coupled);
    }
}
