//! Coupled logistic regression (paper Eq. 9).
//!
//! Models M2/M4/M6 decouple each feature occurrence into a *position* part
//! and a *term/relevance* part:
//!
//! ```text
//! log O = Σ_{occurrences} x · P[pos(occ)] · T[term(occ)]        (Eq. 9)
//! ```
//!
//! "If we fix the values of P, T can be learned as a logistic regression
//! model. Similarly if we fix the values of T, P can be learned as a
//! logistic regression model. So, learning model M4 can be framed as an
//! iterative learning of features P and T … using two coupled logistic
//! regression models." — §V-D.1
//!
//! This module implements exactly that alternation on top of
//! [`crate::logreg::LogReg`]. The factorization has a scale ambiguity
//! (`(cP, T/c)` scores identically), so after each round the position
//! weights are renormalized to unit mean absolute value and the scale is
//! folded into `T`; this is what makes the learned position curves of the
//! paper's Figure 3 comparable across runs.

use crate::dataset::{Dataset, Example};
use crate::logreg::{sigmoid, LogReg, LogRegConfig};
use crate::sparse::SparseVec;

/// One factorized feature occurrence: position group × term id × raw value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoupledFeature {
    /// Index into the position-weight vector `P` (e.g. a (line, pos-bucket)
    /// pair, or a rewrite position pair, encoded upstream).
    pub pos: u32,
    /// Index into the term-weight vector `T` (e.g. an n-gram or a rewrite).
    pub term: u32,
    /// Raw feature value (`+1` for R-side presence, `-1` for S-side, etc.).
    pub value: f64,
}

/// One training example in factorized form.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledExample {
    /// Feature occurrences (need not be sorted or unique).
    pub occs: Vec<CoupledFeature>,
    /// Binary label.
    pub label: bool,
}

/// A dataset of factorized examples plus the two index-space sizes.
#[derive(Debug, Clone, Default)]
pub struct CoupledDataset {
    examples: Vec<CoupledExample>,
    n_pos: usize,
    n_terms: usize,
}

impl CoupledDataset {
    /// Create an empty dataset with declared index-space sizes.
    pub fn with_dims(n_pos: usize, n_terms: usize) -> Self {
        Self {
            examples: Vec::new(),
            n_pos,
            n_terms,
        }
    }

    /// Add an example, growing the index spaces as needed.
    pub fn push(&mut self, ex: CoupledExample) {
        for occ in &ex.occs {
            self.n_pos = self.n_pos.max(occ.pos as usize + 1);
            self.n_terms = self.n_terms.max(occ.term as usize + 1);
        }
        self.examples.push(ex);
    }

    /// The examples.
    pub fn examples(&self) -> &[CoupledExample] {
        &self.examples
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether there are no examples.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Size of the position index space.
    pub fn n_pos(&self) -> usize {
        self.n_pos
    }

    /// Size of the term index space.
    pub fn n_terms(&self) -> usize {
        self.n_terms
    }

    /// Subset by example indices (for cross-validation).
    pub fn subset(&self, idx: &[usize]) -> CoupledDataset {
        CoupledDataset {
            examples: idx.iter().map(|&i| self.examples[i].clone()).collect(),
            n_pos: self.n_pos,
            n_terms: self.n_terms,
        }
    }

    /// Collapse to a flat [`Dataset`] with `T` fixed: features are position
    /// ids, values are `x · T[term]`.
    fn flatten_fixing_terms(&self, term_w: &[f64]) -> Dataset {
        let mut d = Dataset::with_dim(self.n_pos);
        for ex in &self.examples {
            let pairs: Vec<(u32, f64)> = ex
                .occs
                .iter()
                .map(|o| (o.pos, o.value * term_w[o.term as usize]))
                .collect();
            d.push(Example::new(SparseVec::from_pairs(pairs), ex.label));
        }
        d
    }

    /// Collapse to a flat [`Dataset`] with `P` fixed: features are term ids,
    /// values are `x · P[pos]`.
    fn flatten_fixing_positions(&self, pos_w: &[f64]) -> Dataset {
        let mut d = Dataset::with_dim(self.n_terms);
        for ex in &self.examples {
            let pairs: Vec<(u32, f64)> = ex
                .occs
                .iter()
                .map(|o| (o.term, o.value * pos_w[o.pos as usize]))
                .collect();
            d.push(Example::new(SparseVec::from_pairs(pairs), ex.label));
        }
        d
    }
}

/// How the coupled objective is optimized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoupledOptimizer {
    /// The paper's scheme verbatim: alternately fix `P` and fit `T` as a
    /// logistic regression, then fix `T` and fit `P` (§V-D.1). Simple, but
    /// with few rounds it can stall at a flat solution where `T` absorbs
    /// all signal and `P` stays near its initialization.
    Alternating {
        /// Number of (T-fit, P-fit) rounds.
        rounds: usize,
    },
    /// Joint stochastic gradient descent on both factors (the standard
    /// matrix-factorization-style optimizer for the same objective). More
    /// robust in practice; the `ablations` experiment compares the two.
    Joint {
        /// Passes over the data.
        epochs: usize,
        /// Initial learning rate (inverse decay with `t_half = 50k` steps).
        eta0: f64,
        /// L1 strength on `T` (proximal soft-threshold per touched weight),
        /// matching the L1 the flat models get.
        l1: f64,
        /// L2 strength on `T` (and on `P` toward its neutral value 1.0).
        l2: f64,
        /// Shuffle seed.
        seed: u64,
    },
}

impl Default for CoupledOptimizer {
    fn default() -> Self {
        CoupledOptimizer::Joint {
            epochs: 60,
            eta0: 0.15,
            l1: 1e-5,
            l2: 1e-6,
            seed: 0x5eed,
        }
    }
}

/// Configuration for [`CoupledModel::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledConfig {
    /// Optimization scheme.
    pub optimizer: CoupledOptimizer,
    /// Inner LR config for the term (relevance) fits (alternating mode).
    pub term_cfg: LogRegConfig,
    /// Inner LR config for the position fits (alternating mode). L1 is
    /// usually kept at zero here: the position space is tiny and dense.
    pub pos_cfg: LogRegConfig,
    /// Initial position weights (`None` = all ones). Length must be
    /// `n_pos` if provided; shorter vectors are one-padded.
    pub init_pos: Option<Vec<f64>>,
    /// Initial term weights (`None` = zeros; the stats DB supplies log-odds
    /// here for the "+init" model variants). Shorter vectors zero-padded.
    pub init_terms: Option<Vec<f64>>,
    /// Constrain position weights to be nonnegative (default true). The
    /// position factor models *examination probability* (Eq. 8's
    /// `f(v_p, w_q)`), which cannot be negative; the constraint also fixes
    /// the sign gauge of the factorization, removing a whole family of
    /// spurious optima where `P` and `T` flip signs together.
    pub nonnegative_positions: bool,
}

impl Default for CoupledConfig {
    fn default() -> Self {
        Self {
            optimizer: CoupledOptimizer::default(),
            term_cfg: LogRegConfig::default(),
            pos_cfg: LogRegConfig {
                l1: 0.0,
                ..LogRegConfig::default()
            },
            init_pos: None,
            init_terms: None,
            nonnegative_positions: true,
        }
    }
}

/// A trained factorized model: `log O = bias + Σ x · P[pos] · T[term]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledModel {
    pos_weights: Vec<f64>,
    term_weights: Vec<f64>,
    bias: f64,
}

impl CoupledModel {
    /// Construct from explicit parameters (model deserialization, fixtures).
    pub fn from_parts(pos_weights: Vec<f64>, term_weights: Vec<f64>, bias: f64) -> Self {
        Self {
            pos_weights,
            term_weights,
            bias,
        }
    }

    /// The learned position weights `P` (Figure 3 plots these).
    pub fn pos_weights(&self) -> &[f64] {
        &self.pos_weights
    }

    /// The learned term weights `T`.
    pub fn term_weights(&self) -> &[f64] {
        &self.term_weights
    }

    /// The learned intercept.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Linear score of a factorized example.
    pub fn score(&self, ex: &CoupledExample) -> f64 {
        self.score_occs(&ex.occs)
    }

    /// Linear score over a raw occurrence slice (bit-identical to
    /// [`CoupledModel::score`] on an example holding the same occurrences).
    /// Lets the serving hot path score reused occurrence buffers without
    /// materializing a [`CoupledExample`].
    pub fn score_occs(&self, occs: &[CoupledFeature]) -> f64 {
        let mut z = self.bias;
        for o in occs {
            let p = self.pos_weights.get(o.pos as usize).copied().unwrap_or(0.0);
            let t = self
                .term_weights
                .get(o.term as usize)
                .copied()
                .unwrap_or(0.0);
            z += o.value * p * t;
        }
        z
    }

    /// Probability of the positive class.
    pub fn predict_proba(&self, ex: &CoupledExample) -> f64 {
        sigmoid(self.score(ex))
    }

    /// Hard prediction at the 0.5 threshold.
    pub fn predict(&self, ex: &CoupledExample) -> bool {
        self.score(ex) > 0.0
    }

    /// Train with the configured optimizer.
    pub fn fit(data: &CoupledDataset, cfg: &CoupledConfig) -> CoupledModel {
        match cfg.optimizer {
            CoupledOptimizer::Alternating { rounds } => Self::fit_alternating(data, cfg, rounds),
            CoupledOptimizer::Joint {
                epochs,
                eta0,
                l1,
                l2,
                seed,
            } => Self::fit_joint(data, cfg, epochs, eta0, l1, l2, seed),
        }
    }

    fn init_weights(data: &CoupledDataset, cfg: &CoupledConfig) -> (Vec<f64>, Vec<f64>) {
        let mut pos_w = vec![1.0; data.n_pos()];
        if let Some(init) = &cfg.init_pos {
            for (w, &i) in pos_w.iter_mut().zip(init.iter()) {
                *w = i;
            }
        }
        let mut term_w = vec![0.0; data.n_terms()];
        if let Some(init) = &cfg.init_terms {
            for (w, &i) in term_w.iter_mut().zip(init.iter()) {
                *w = i;
            }
        }
        (pos_w, term_w)
    }

    fn normalize_scale(pos_w: &mut [f64], term_w: &mut [f64]) {
        let mean_abs = pos_w.iter().map(|w| w.abs()).sum::<f64>() / pos_w.len().max(1) as f64;
        if mean_abs > 1e-12 {
            for w in pos_w.iter_mut() {
                *w /= mean_abs;
            }
            for w in term_w.iter_mut() {
                *w *= mean_abs;
            }
        }
    }

    /// Joint multiplicative SGD over both factors.
    #[allow(clippy::too_many_arguments)]
    fn fit_joint(
        data: &CoupledDataset,
        cfg: &CoupledConfig,
        epochs: usize,
        eta0: f64,
        l1: f64,
        l2: f64,
        seed: u64,
    ) -> CoupledModel {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let (mut pos_w, mut term_w) = Self::init_weights(data, cfg);
        if cfg.nonnegative_positions {
            for w in &mut pos_w {
                *w = w.max(0.0);
            }
        }
        let mut bias = 0.0f64;
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut t: u64 = 0;

        for _epoch in 0..epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let ex = &data.examples[i];
                let eta = eta0 / (1.0 + t as f64 / 50_000.0);
                t += 1;
                let mut z = bias;
                for o in &ex.occs {
                    z += o.value * pos_w[o.pos as usize] * term_w[o.term as usize];
                }
                let y = if ex.label { 1.0 } else { 0.0 };
                let r = sigmoid(z) - y;
                bias -= eta * r;
                for o in &ex.occs {
                    let (g, k) = (o.pos as usize, o.term as usize);
                    let (p, w) = (pos_w[g], term_w[k]);
                    let mut new_t = w - eta * (r * o.value * p + l2 * w);
                    // Proximal L1 step on the touched term weight.
                    if l1 > 0.0 {
                        let shrink = eta * l1;
                        new_t = new_t.signum() * (new_t.abs() - shrink).max(0.0);
                    }
                    term_w[k] = new_t;
                    // P shrinks toward its neutral value 1.0, not 0.
                    pos_w[g] -= eta * (r * o.value * w + l2 * (p - 1.0));
                    if cfg.nonnegative_positions {
                        pos_w[g] = pos_w[g].max(0.0);
                    }
                }
            }
        }
        Self::normalize_scale(&mut pos_w, &mut term_w);
        CoupledModel {
            pos_weights: pos_w,
            term_weights: term_w,
            bias,
        }
    }

    /// Train by alternating coupled logistic regressions (the paper's
    /// iterative scheme).
    fn fit_alternating(data: &CoupledDataset, cfg: &CoupledConfig, rounds: usize) -> CoupledModel {
        let (mut pos_w, mut term_w) = Self::init_weights(data, cfg);
        let mut bias = 0.0;

        for round in 0..rounds {
            // T-step: fix P, fit term weights (warm-started from current T).
            let flat_t = data.flatten_fixing_positions(&pos_w);
            let mut term_cfg = cfg.term_cfg.clone();
            term_cfg.init_weights = Some(term_w.clone());
            term_cfg.seed = cfg.term_cfg.seed.wrapping_add(round as u64);
            let (t_model, _) = LogReg::fit(&flat_t, &term_cfg);
            term_w.copy_from_slice(t_model.weights());
            bias = t_model.bias();

            // P-step: fix T, fit position weights (warm-started from P).
            let flat_p = data.flatten_fixing_terms(&term_w);
            let mut pos_cfg = cfg.pos_cfg.clone();
            pos_cfg.init_weights = Some(pos_w.clone());
            pos_cfg.fit_bias = false; // bias belongs to the T-step
            pos_cfg.seed = cfg.pos_cfg.seed.wrapping_add(round as u64);
            let (p_model, _) = LogReg::fit(&flat_p, &pos_cfg);
            pos_w.copy_from_slice(p_model.weights());
            if cfg.nonnegative_positions {
                for w in &mut pos_w {
                    *w = w.max(0.0);
                }
            }

            // Resolve the scale ambiguity: ‖P‖ mean-abs = 1.
            let mean_abs = pos_w.iter().map(|w| w.abs()).sum::<f64>() / pos_w.len().max(1) as f64;
            if mean_abs > 1e-12 {
                for w in &mut pos_w {
                    *w /= mean_abs;
                }
                for w in &mut term_w {
                    *w *= mean_abs;
                }
            }
        }

        CoupledModel {
            pos_weights: pos_w,
            term_weights: term_w,
            bias,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Generate labels from a planted factorized model and check the
    /// coupled trainer recovers predictive power and the position profile.
    fn planted(seed: u64, n: usize) -> (CoupledDataset, Vec<f64>) {
        let true_pos = vec![1.8, 1.2, 0.7, 0.3]; // decaying attention
        let n_terms = 40;
        let mut rng = StdRng::seed_from_u64(seed);
        let true_terms: Vec<f64> = (0..n_terms).map(|_| rng.gen_range(-1.5..1.5)).collect();
        let mut data = CoupledDataset::with_dims(true_pos.len(), n_terms);
        for _ in 0..n {
            let k = rng.gen_range(3..8);
            let occs: Vec<CoupledFeature> = (0..k)
                .map(|_| CoupledFeature {
                    pos: rng.gen_range(0..true_pos.len()) as u32,
                    term: rng.gen_range(0..n_terms) as u32,
                    value: if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
                })
                .collect();
            let z: f64 = occs
                .iter()
                .map(|o| o.value * true_pos[o.pos as usize] * true_terms[o.term as usize])
                .sum();
            let label = rng.gen_bool(sigmoid(2.0 * z));
            data.push(CoupledExample { occs, label });
        }
        (data, true_pos)
    }

    #[test]
    fn recovers_planted_model() {
        let (data, true_pos) = planted(11, 4000);
        let cfg = CoupledConfig::default();
        let model = CoupledModel::fit(&data, &cfg);

        // Predictive accuracy well above chance.
        let correct = data
            .examples()
            .iter()
            .filter(|e| model.predict(e) == e.label)
            .count();
        let acc = correct as f64 / data.len() as f64;
        assert!(acc > 0.70, "accuracy {acc}");

        // Learned position profile is monotone-decreasing like the truth.
        let p = model.pos_weights();
        assert_eq!(p.len(), true_pos.len());
        assert!(
            p[0] > p[1] && p[1] > p[2] && p[2] > p[3],
            "positions not decaying: {p:?}"
        );
    }

    #[test]
    fn scale_normalization_holds() {
        let (data, _) = planted(12, 800);
        let model = CoupledModel::fit(&data, &CoupledConfig::default());
        let mean_abs: f64 = model.pos_weights().iter().map(|w| w.abs()).sum::<f64>()
            / model.pos_weights().len() as f64;
        assert!((mean_abs - 1.0).abs() < 1e-9, "mean abs {mean_abs}");
    }

    #[test]
    fn deterministic() {
        let (data, _) = planted(13, 500);
        let cfg = CoupledConfig::default();
        let a = CoupledModel::fit(&data, &cfg);
        let b = CoupledModel::fit(&data, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn init_terms_used_when_rounds_zero() {
        let data = CoupledDataset::with_dims(2, 3);
        let cfg = CoupledConfig {
            optimizer: CoupledOptimizer::Alternating { rounds: 0 },
            init_pos: Some(vec![1.0, 0.5]),
            init_terms: Some(vec![0.3, -0.2, 0.0]),
            ..Default::default()
        };
        let model = CoupledModel::fit(&data, &cfg);
        assert_eq!(model.pos_weights(), &[1.0, 0.5]);
        assert_eq!(model.term_weights(), &[0.3, -0.2, 0.0]);
        let ex = CoupledExample {
            occs: vec![CoupledFeature {
                pos: 1,
                term: 0,
                value: 2.0,
            }],
            label: true,
        };
        assert!((model.score(&ex) - 2.0 * 0.5 * 0.3).abs() < 1e-12);
    }

    #[test]
    fn dims_grow_on_push() {
        let mut d = CoupledDataset::with_dims(0, 0);
        d.push(CoupledExample {
            occs: vec![CoupledFeature {
                pos: 3,
                term: 9,
                value: 1.0,
            }],
            label: false,
        });
        assert_eq!(d.n_pos(), 4);
        assert_eq!(d.n_terms(), 10);
    }

    #[test]
    fn score_handles_out_of_range_indices() {
        let model = CoupledModel {
            pos_weights: vec![1.0],
            term_weights: vec![1.0],
            bias: 0.5,
        };
        let ex = CoupledExample {
            occs: vec![CoupledFeature {
                pos: 5,
                term: 5,
                value: 1.0,
            }],
            label: true,
        };
        assert_eq!(model.score(&ex), 0.5); // unseen indices contribute zero
    }

    #[test]
    fn subset_preserves_dims() {
        let (data, _) = planted(14, 50);
        let sub = data.subset(&[0, 5, 7]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.n_pos(), data.n_pos());
        assert_eq!(sub.n_terms(), data.n_terms());
    }
}
