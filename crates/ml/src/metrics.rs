//! Binary-classification metrics.
//!
//! Tables 2 and 4 of the paper report recall, precision, F-measure, and
//! accuracy of the creative classifier. This module computes those from
//! hard predictions (via [`Confusion`]) and AUC / log-loss from scores.

/// A 2×2 confusion matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Positive examples predicted positive.
    pub tp: u64,
    /// Negative examples predicted positive.
    pub fp: u64,
    /// Negative examples predicted negative.
    pub tn: u64,
    /// Positive examples predicted negative.
    pub fn_: u64,
}

impl Confusion {
    /// Accumulate one (prediction, label) observation.
    pub fn observe(&mut self, predicted: bool, label: bool) {
        match (predicted, label) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }

    /// Build from parallel prediction/label iterators.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (bool, bool)>) -> Self {
        let mut c = Self::default();
        for (p, l) in pairs {
            c.observe(p, l);
        }
        c
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Merge another confusion matrix into this one (fold aggregation).
    pub fn merge(&mut self, other: &Confusion) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }

    /// Derive the scalar metrics.
    pub fn metrics(&self) -> BinaryMetrics {
        let safe = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let precision = safe(self.tp, self.tp + self.fp);
        let recall = safe(self.tp, self.tp + self.fn_);
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        BinaryMetrics {
            precision,
            recall,
            f1,
            accuracy: safe(self.tp + self.tn, self.total()),
            support: self.total(),
        }
    }
}

/// Scalar summary of a confusion matrix.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BinaryMetrics {
    /// tp / (tp + fp).
    pub precision: f64,
    /// tp / (tp + fn).
    pub recall: f64,
    /// Harmonic mean of precision and recall (the paper's F-measure).
    pub f1: f64,
    /// (tp + tn) / total.
    pub accuracy: f64,
    /// Number of observations.
    pub support: u64,
}

impl BinaryMetrics {
    /// Unweighted mean of several metric sets (e.g. across CV folds).
    pub fn mean(all: &[BinaryMetrics]) -> BinaryMetrics {
        if all.is_empty() {
            return BinaryMetrics::default();
        }
        let n = all.len() as f64;
        BinaryMetrics {
            precision: all.iter().map(|m| m.precision).sum::<f64>() / n,
            recall: all.iter().map(|m| m.recall).sum::<f64>() / n,
            f1: all.iter().map(|m| m.f1).sum::<f64>() / n,
            accuracy: all.iter().map(|m| m.accuracy).sum::<f64>() / n,
            support: all.iter().map(|m| m.support).sum(),
        }
    }
}

/// Area under the ROC curve from (score, label) pairs, by the rank-sum
/// (Mann–Whitney) formulation with midrank tie handling. Returns 0.5 when a
/// class is absent.
pub fn auc(scored: &[(f64, bool)]) -> f64 {
    let n_pos = scored.iter().filter(|(_, l)| *l).count();
    let n_neg = scored.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    let mut order: Vec<usize> = (0..scored.len()).collect();
    order.sort_by(|&a, &b| {
        scored[a]
            .0
            .partial_cmp(&scored[b].0)
            .expect("scores must not be NaN")
    });
    // Midranks for ties.
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0usize;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scored[order[j + 1]].0 == scored[order[i]].0 {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0; // 1-based
        for &k in &order[i..=j] {
            if scored[k].1 {
                rank_sum_pos += midrank;
            }
        }
        i = j + 1;
    }
    let n_pos_f = n_pos as f64;
    (rank_sum_pos - n_pos_f * (n_pos_f + 1.0) / 2.0) / (n_pos_f * n_neg as f64)
}

/// Spearman rank correlation between two equal-length slices (midranks for
/// ties). Returns 0 for slices shorter than 2 or with zero rank variance.
///
/// Used by the Figure 3 report to quantify how well the learned position
/// weights track the generator's ground-truth attention curve — the
/// in-silico stand-in for the paper's proposed eye-tracking validation
/// (§VI).
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "spearman needs equal-length inputs");
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let ranks = |xs: &[f64]| -> Vec<f64> {
        let mut order: Vec<usize> = (0..xs.len()).collect();
        order.sort_by(|&i, &j| xs[i].partial_cmp(&xs[j]).expect("values must not be NaN"));
        let mut out = vec![0.0; xs.len()];
        let mut i = 0;
        while i < order.len() {
            let mut j = i;
            while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
                j += 1;
            }
            let midrank = (i + j) as f64 / 2.0;
            for &k in &order[i..=j] {
                out[k] = midrank;
            }
            i = j + 1;
        }
        out
    };
    let (ra, rb) = (ranks(a), ranks(b));
    let mean = (n as f64 - 1.0) / 2.0;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for k in 0..n {
        let (da, db) = (ra[k] - mean, rb[k] - mean);
        cov += da * db;
        var_a += da * da;
        var_b += db * db;
    }
    if var_a <= 0.0 || var_b <= 0.0 {
        return 0.0;
    }
    cov / (var_a.sqrt() * var_b.sqrt())
}

/// Mean log-loss from (probability, label) pairs, with probability clamping.
pub fn log_loss(probs: &[(f64, bool)]) -> f64 {
    if probs.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0;
    for &(p, l) in probs {
        let p = p.clamp(1e-12, 1.0 - 1e-12);
        acc -= if l { p.ln() } else { (1.0 - p).ln() };
    }
    acc / probs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts() {
        let c = Confusion::from_pairs([
            (true, true),
            (true, true),
            (true, false),
            (false, true),
            (false, false),
        ]);
        assert_eq!((c.tp, c.fp, c.tn, c.fn_), (2, 1, 1, 1));
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn metrics_formulas() {
        let c = Confusion {
            tp: 70,
            fp: 30,
            tn: 60,
            fn_: 40,
        };
        let m = c.metrics();
        assert!((m.precision - 0.7).abs() < 1e-12);
        assert!((m.recall - 7.0 / 11.0).abs() < 1e-12);
        assert!((m.accuracy - 130.0 / 200.0).abs() < 1e-12);
        let expect_f1 = 2.0 * 0.7 * (7.0 / 11.0) / (0.7 + 7.0 / 11.0);
        assert!((m.f1 - expect_f1).abs() < 1e-12);
    }

    #[test]
    fn degenerate_metrics_are_zero_not_nan() {
        let m = Confusion::default().metrics();
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.f1, 0.0);
        assert_eq!(m.accuracy, 0.0);
    }

    #[test]
    fn merge_adds() {
        let mut a = Confusion {
            tp: 1,
            fp: 2,
            tn: 3,
            fn_: 4,
        };
        a.merge(&Confusion {
            tp: 10,
            fp: 20,
            tn: 30,
            fn_: 40,
        });
        assert_eq!(
            a,
            Confusion {
                tp: 11,
                fp: 22,
                tn: 33,
                fn_: 44
            }
        );
    }

    #[test]
    fn mean_of_metrics() {
        let a = BinaryMetrics {
            precision: 0.5,
            recall: 0.5,
            f1: 0.5,
            accuracy: 0.5,
            support: 10,
        };
        let b = BinaryMetrics {
            precision: 1.0,
            recall: 0.0,
            f1: 0.0,
            accuracy: 0.7,
            support: 20,
        };
        let m = BinaryMetrics::mean(&[a, b]);
        assert!((m.precision - 0.75).abs() < 1e-12);
        assert!((m.accuracy - 0.6).abs() < 1e-12);
        assert_eq!(m.support, 30);
        assert_eq!(BinaryMetrics::mean(&[]), BinaryMetrics::default());
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let perfect = [(0.9, true), (0.8, true), (0.2, false), (0.1, false)];
        assert!((auc(&perfect) - 1.0).abs() < 1e-12);
        let inverted = [(0.1, true), (0.2, true), (0.8, false), (0.9, false)];
        assert!((auc(&inverted) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn auc_ties_give_half_credit() {
        let tied = [(0.5, true), (0.5, false)];
        assert!((auc(&tied) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_single_class_is_half() {
        assert_eq!(auc(&[(0.3, true), (0.9, true)]), 0.5);
        assert_eq!(auc(&[]), 0.5);
    }

    #[test]
    fn spearman_basics() {
        // Perfect monotone agreement / disagreement.
        let a = [1.0, 2.0, 3.0, 4.0];
        let up = [10.0, 20.0, 30.0, 40.0];
        let down = [8.0, 6.0, 4.0, 2.0];
        assert!((spearman(&a, &up) - 1.0).abs() < 1e-12);
        assert!((spearman(&a, &down) + 1.0).abs() < 1e-12);
        // Invariant under monotone transforms of either side.
        let squashed: Vec<f64> = up.iter().map(|x| x.ln()).collect();
        assert!((spearman(&a, &squashed) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_degenerate_inputs() {
        assert_eq!(spearman(&[], &[]), 0.0);
        assert_eq!(spearman(&[1.0], &[2.0]), 0.0);
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [5.0, 5.0, 6.0, 7.0];
        let r = spearman(&a, &b);
        assert!((r - 1.0).abs() < 1e-12, "tied-but-agreeing ranks: {r}");
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn spearman_length_mismatch_panics() {
        let _ = spearman(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn log_loss_basics() {
        assert_eq!(log_loss(&[]), 0.0);
        let confident_right = [(0.99, true), (0.01, false)];
        let confident_wrong = [(0.01, true), (0.99, false)];
        assert!(log_loss(&confident_right) < 0.05);
        assert!(log_loss(&confident_wrong) > 4.0);
        // Clamping: p = 0/1 must not produce infinities.
        assert!(log_loss(&[(0.0, true), (1.0, false)]).is_finite());
    }
}
