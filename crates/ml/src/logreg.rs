//! Logistic regression with L1 regularization.
//!
//! The paper's snippet classifier is "a logistic regression model with L1
//! regularization" (§V-D), with weights *initialized from the feature
//! statistics database*. This implementation supports both:
//!
//! * **Training**: stochastic gradient descent with the cumulative-penalty
//!   L1 method of Tsuruoka, Tsujii & Ananiadou (ACL 2009). Each touched
//!   weight is pulled toward zero by the accumulated L1 budget, clipped at
//!   zero — the standard trick for sparse L1 SGD without per-step full
//!   passes over the weight vector.
//! * **Warm starts**: [`LogRegConfig::init_weights`] seeds the weight vector
//!   before the first epoch, which is how the stats-DB odds ratios enter
//!   models M1–M6.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::sparse::SparseVec;

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Learning-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Fixed step size.
    Constant(f64),
    /// `eta0 / (1 + t / t_half)` decay, with `t` the global step counter.
    InverseDecay {
        /// Initial step size.
        eta0: f64,
        /// Steps after which the rate has halved.
        t_half: f64,
    },
}

impl LrSchedule {
    #[inline]
    fn rate(&self, t: u64) -> f64 {
        match *self {
            LrSchedule::Constant(eta) => eta,
            LrSchedule::InverseDecay { eta0, t_half } => eta0 / (1.0 + t as f64 / t_half),
        }
    }
}

/// Configuration for [`LogReg::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogRegConfig {
    /// L1 regularization strength (per-example scale).
    pub l1: f64,
    /// L2 regularization strength (per-example scale).
    pub l2: f64,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Step-size schedule.
    pub schedule: LrSchedule,
    /// Shuffle seed (examples are reshuffled each epoch, deterministically).
    pub seed: u64,
    /// Optional warm-start weights; shorter-than-dim vectors are zero-padded.
    pub init_weights: Option<Vec<f64>>,
    /// Whether to fit an intercept.
    pub fit_bias: bool,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        Self {
            l1: 1e-5,
            l2: 1e-6,
            epochs: 12,
            schedule: LrSchedule::InverseDecay {
                eta0: 0.12,
                t_half: 50_000.0,
            },
            seed: 0x5eed,
            init_weights: None,
            fit_bias: true,
        }
    }
}

/// Per-fit diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean regularized log-loss after each epoch, in epoch order.
    pub epoch_losses: Vec<f64>,
    /// Number of exactly-zero weights at the end of training.
    pub zero_weights: usize,
    /// Total SGD steps taken.
    pub steps: u64,
}

/// A trained (or initialized) logistic-regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct LogReg {
    weights: Vec<f64>,
    bias: f64,
}

impl LogReg {
    /// A zero model over `dim` features.
    pub fn zeros(dim: usize) -> Self {
        Self {
            weights: vec![0.0; dim],
            bias: 0.0,
        }
    }

    /// Construct from explicit parameters (e.g. a stats-DB-initialized
    /// model used without training, or test fixtures).
    pub fn from_parts(weights: Vec<f64>, bias: f64) -> Self {
        Self { weights, bias }
    }

    /// The learned weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The learned intercept.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Linear score `w·x + b`.
    pub fn score(&self, x: &SparseVec) -> f64 {
        x.dot_dense(&self.weights) + self.bias
    }

    /// Predicted probability of the positive class.
    pub fn predict_proba(&self, x: &SparseVec) -> f64 {
        sigmoid(self.score(x))
    }

    /// Hard prediction at the 0.5 threshold.
    pub fn predict(&self, x: &SparseVec) -> bool {
        self.score(x) > 0.0
    }

    /// Train on `data` with `cfg`, returning the model and diagnostics.
    ///
    /// Uses SGD over the (regularized) log-loss with lazy cumulative L1
    /// penalties, so each step touches only the example's nonzero features.
    pub fn fit(data: &Dataset, cfg: &LogRegConfig) -> (Self, TrainReport) {
        let dim = data.dim();
        let mut weights = vec![0.0; dim];
        if let Some(init) = &cfg.init_weights {
            for (w, &i) in weights.iter_mut().zip(init.iter()) {
                *w = i;
            }
        }
        let mut bias = 0.0;

        // Cumulative-penalty bookkeeping: `u` is the total L1 budget any
        // weight could have absorbed so far; `q[i]` is what weight i has
        // actually absorbed.
        let mut u = 0.0f64;
        let mut q = vec![0.0f64; dim];

        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut t: u64 = 0;
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);

        for _epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let ex = &data.examples()[i];
                let eta = cfg.schedule.rate(t);
                t += 1;

                let z = ex.features.dot_dense(&weights) + bias;
                let p = sigmoid(z);
                let y = if ex.label { 1.0 } else { 0.0 };
                // d(logloss)/dz = (p - y); scale by example weight.
                let g = (p - y) * ex.weight;

                if cfg.fit_bias {
                    bias -= eta * g;
                }
                u += eta * cfg.l1;
                for (fi, fv) in ex.features.iter() {
                    let fi = fi as usize;
                    let mut w = weights[fi];
                    // Gradient + L2 step.
                    w -= eta * (g * fv + cfg.l2 * w);
                    // Cumulative L1 clipping.
                    if cfg.l1 > 0.0 {
                        let z_before = w;
                        if z_before > 0.0 {
                            w = (z_before - (u + q[fi])).max(0.0);
                        } else if z_before < 0.0 {
                            w = (z_before + (u - q[fi])).min(0.0);
                        }
                        q[fi] += w - z_before;
                    }
                    weights[fi] = w;
                }
            }
            epoch_losses.push(mean_log_loss(data, &weights, bias));
        }

        let zero_weights = weights.iter().filter(|&&w| w == 0.0).count();
        (
            Self { weights, bias },
            TrainReport {
                epoch_losses,
                zero_weights,
                steps: t,
            },
        )
    }
}

fn mean_log_loss(data: &Dataset, weights: &[f64], bias: f64) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0;
    for ex in data.examples() {
        let z = ex.features.dot_dense(weights) + bias;
        let p = sigmoid(z).clamp(1e-12, 1.0 - 1e-12);
        acc -= if ex.label { p.ln() } else { (1.0 - p).ln() } * ex.weight;
    }
    acc / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Example;
    use rand::Rng;

    #[test]
    fn sigmoid_sane() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
        // Stability at extremes: no NaN.
        assert!(sigmoid(-800.0).is_finite());
        assert!(sigmoid(800.0).is_finite());
    }

    fn linearly_separable(n: usize, seed: u64) -> Dataset {
        // y = 1 iff feature0 - feature1 > 0; features in {0,1,2}.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::with_dim(2);
        for _ in 0..n {
            let a: f64 = rng.gen_range(0..3) as f64;
            let b: f64 = rng.gen_range(0..3) as f64;
            if a == b {
                continue;
            }
            let x = SparseVec::from_pairs(vec![(0, a), (1, b)]);
            d.push(Example::new(x, a > b));
        }
        d
    }

    #[test]
    fn learns_separable_data() {
        let data = linearly_separable(600, 1);
        let cfg = LogRegConfig {
            l1: 0.0,
            l2: 0.0,
            epochs: 30,
            ..Default::default()
        };
        let (model, report) = LogReg::fit(&data, &cfg);
        let correct = data
            .examples()
            .iter()
            .filter(|e| model.predict(&e.features) == e.label)
            .count();
        assert!(
            correct as f64 / data.len() as f64 > 0.98,
            "accuracy too low: {correct}/{}",
            data.len()
        );
        // Loss decreased over training.
        assert!(report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap());
    }

    #[test]
    fn l1_produces_sparsity() {
        // 2 informative features + 30 noise features.
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dataset::with_dim(32);
        for _ in 0..800 {
            let a: f64 = if rng.gen_bool(0.5) { 1.0 } else { 0.0 };
            let label = a > 0.5;
            let mut pairs = vec![(0, a), (1, 1.0 - a)];
            for j in 2..32 {
                if rng.gen_bool(0.3) {
                    pairs.push((j, 1.0));
                }
            }
            d.push(Example::new(SparseVec::from_pairs(pairs), label));
        }
        let strong = LogRegConfig {
            l1: 5e-3,
            l2: 0.0,
            epochs: 15,
            ..Default::default()
        };
        let weak = LogRegConfig {
            l1: 0.0,
            l2: 0.0,
            epochs: 15,
            ..Default::default()
        };
        let (_, rep_strong) = LogReg::fit(&d, &strong);
        let (_, rep_weak) = LogReg::fit(&d, &weak);
        assert!(
            rep_strong.zero_weights > rep_weak.zero_weights,
            "L1 should zero more weights: {} vs {}",
            rep_strong.zero_weights,
            rep_weak.zero_weights
        );
    }

    #[test]
    fn warm_start_is_used() {
        // With zero epochs of training the model equals its init.
        let d = linearly_separable(10, 3);
        let cfg = LogRegConfig {
            epochs: 0,
            init_weights: Some(vec![3.0, -3.0]),
            ..Default::default()
        };
        let (model, _) = LogReg::fit(&d, &cfg);
        assert_eq!(model.weights(), &[3.0, -3.0]);
        let x = SparseVec::from_pairs(vec![(0, 1.0)]);
        assert!(model.predict(&x));
    }

    #[test]
    fn warm_start_speeds_up_fit() {
        let d = linearly_separable(300, 4);
        let one_epoch_cold = LogRegConfig {
            epochs: 1,
            l1: 0.0,
            ..Default::default()
        };
        let one_epoch_warm = LogRegConfig {
            epochs: 1,
            l1: 0.0,
            init_weights: Some(vec![2.0, -2.0]),
            ..Default::default()
        };
        let (_, cold) = LogReg::fit(&d, &one_epoch_cold);
        let (_, warm) = LogReg::fit(&d, &one_epoch_warm);
        assert!(warm.epoch_losses[0] < cold.epoch_losses[0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = linearly_separable(200, 5);
        let cfg = LogRegConfig::default();
        let (m1, _) = LogReg::fit(&d, &cfg);
        let (m2, _) = LogReg::fit(&d, &cfg);
        assert_eq!(m1, m2);
    }

    #[test]
    fn empty_dataset_yields_zero_model() {
        let d = Dataset::with_dim(4);
        let (m, rep) = LogReg::fit(&d, &LogRegConfig::default());
        assert_eq!(m.weights(), &[0.0; 4]);
        assert_eq!(rep.steps, 0);
    }

    #[test]
    fn bias_learns_base_rate() {
        // All-positive data with no features: bias must go positive.
        let mut d = Dataset::with_dim(1);
        for _ in 0..100 {
            d.push(Example::new(SparseVec::new(), true));
        }
        let (m, _) = LogReg::fit(
            &d,
            &LogRegConfig {
                l1: 0.0,
                ..Default::default()
            },
        );
        assert!(m.bias() > 0.5);
        assert!(m.predict_proba(&SparseVec::new()) > 0.6);
    }
}
