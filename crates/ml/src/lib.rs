//! Machine-learning substrate for the `microbrowse` workspace.
//!
//! The paper trains "a logistic regression model with L1 regularization"
//! (§V-D) over term and rewrite features, optionally factorized into
//! position weights × relevance weights and trained as "two coupled logistic
//! regression models" (Eq. 9). This crate provides exactly that machinery,
//! from scratch, with no dependency beyond `rand`:
//!
//! * [`sparse`] — compact sorted sparse vectors and their algebra.
//! * [`dataset`] — binary-labelled sparse datasets and split utilities.
//! * [`logreg`] — logistic regression trained by SGD with the
//!   cumulative-penalty L1 method (Tsuruoka et al., 2009), supporting warm
//!   starts from the feature statistics database.
//! * [`coupled`] — the alternating position/term trainer of Eq. 9.
//! * [`metrics`] — precision / recall / F-measure / accuracy / AUC /
//!   log-loss, matching the quantities reported in Tables 2 and 4.
//! * [`cv`] — deterministic (seeded) k-fold and stratified k-fold
//!   cross-validation, as in the paper's "standard 10-fold cross validation".

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coupled;
pub mod cv;
pub mod dataset;
pub mod logreg;
pub mod metrics;
pub mod sparse;

pub use coupled::{CoupledConfig, CoupledDataset, CoupledExample, CoupledFeature, CoupledModel};
pub use cv::{grouped_kfold, kfold, stratified_kfold, FoldSplit};
pub use dataset::{Dataset, Example};
pub use logreg::{LogReg, LogRegConfig, TrainReport};
pub use metrics::{auc, log_loss, spearman, BinaryMetrics, Confusion};
pub use sparse::SparseVec;
