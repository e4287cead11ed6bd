//! Click-model evaluation: log-likelihood and perplexity.
//!
//! These are the standard held-out metrics of the click-model literature.
//! Perplexity at rank `i` is `2^{-(1/N) Σ log2 p_s(i)}` where `p_s(i)` is
//! the probability the model assigned to the *observed* click outcome at
//! rank `i` of session `s` (conditioned on the session's earlier clicks).
//! A perfect model has perplexity 1; ignoring the data entirely gives 2.

use crate::model::{ClickModel, PROB_FLOOR};
use crate::session::SessionSet;

/// Evaluation summary for one model on one session set.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Model name.
    pub model: String,
    /// Total conditional log-likelihood (natural log) over all positions.
    pub log_likelihood: f64,
    /// Mean per-position log-likelihood.
    pub mean_position_ll: f64,
    /// Overall perplexity (geometric over all positions).
    pub perplexity: f64,
    /// Perplexity per rank.
    pub perplexity_by_rank: Vec<f64>,
    /// Number of positions evaluated.
    pub positions: u64,
}

/// Evaluate `model` on `data`.
pub fn evaluate<M: ClickModel + ?Sized>(model: &M, data: &SessionSet) -> EvalReport {
    let depth = data.max_depth();
    let mut log2_sum_by_rank = vec![0.0f64; depth];
    let mut count_by_rank = vec![0u64; depth];
    let mut ll_total = 0.0f64;

    for s in data.sessions() {
        let probs = model.conditional_click_probs(s);
        debug_assert_eq!(probs.len(), s.depth());
        for (i, (&p, &c)) in probs.iter().zip(&s.clicks).enumerate() {
            let p_observed = if c { p } else { 1.0 - p };
            let p_observed = p_observed.clamp(PROB_FLOOR, 1.0);
            ll_total += p_observed.ln();
            log2_sum_by_rank[i] += p_observed.log2();
            count_by_rank[i] += 1;
        }
    }

    let positions: u64 = count_by_rank.iter().sum();
    let perplexity_by_rank: Vec<f64> = log2_sum_by_rank
        .iter()
        .zip(&count_by_rank)
        .map(|(&s, &n)| {
            if n == 0 {
                1.0
            } else {
                2f64.powf(-s / n as f64)
            }
        })
        .collect();
    let total_log2: f64 = log2_sum_by_rank.iter().sum();
    let perplexity = if positions == 0 {
        1.0
    } else {
        2f64.powf(-total_log2 / positions as f64)
    };

    EvalReport {
        model: model.name().to_string(),
        log_likelihood: ll_total,
        mean_position_ll: if positions == 0 {
            0.0
        } else {
            ll_total / positions as f64
        },
        perplexity,
        perplexity_by_rank,
        positions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ClickModel;
    use crate::session::{DocId, QueryId, Session};

    /// A trivial model that predicts a constant click probability.
    struct ConstModel(f64);

    impl ClickModel for ConstModel {
        fn name(&self) -> &'static str {
            "Const"
        }
        fn fit(&mut self, _data: &SessionSet) {}
        fn conditional_click_probs(&self, session: &Session) -> Vec<f64> {
            vec![self.0; session.depth()]
        }
        fn full_click_probs(&self, _query: QueryId, docs: &[DocId]) -> Vec<f64> {
            vec![self.0; docs.len()]
        }
    }

    fn coin_flip_sessions(n: usize) -> SessionSet {
        // Alternating clicks: empirical CTR exactly 0.5 at each rank.
        (0..n)
            .map(|i| {
                Session::new(
                    QueryId(0),
                    vec![DocId(0), DocId(1)],
                    vec![i % 2 == 0, i % 2 == 1],
                )
            })
            .collect()
    }

    #[test]
    fn uniform_model_on_uniform_data_has_perplexity_two() {
        let data = coin_flip_sessions(100);
        let report = evaluate(&ConstModel(0.5), &data);
        assert!((report.perplexity - 2.0).abs() < 1e-9);
        for p in &report.perplexity_by_rank {
            assert!((p - 2.0).abs() < 1e-9);
        }
        assert_eq!(report.positions, 200);
    }

    #[test]
    fn better_calibration_means_lower_perplexity() {
        // Data with 10% CTR: a 0.1-model must beat a 0.5-model.
        let data: SessionSet = (0..100)
            .map(|i| Session::new(QueryId(0), vec![DocId(0)], vec![i % 10 == 0]))
            .collect();
        let good = evaluate(&ConstModel(0.1), &data);
        let bad = evaluate(&ConstModel(0.5), &data);
        assert!(good.perplexity < bad.perplexity);
        assert!(good.log_likelihood > bad.log_likelihood);
    }

    #[test]
    fn perfect_model_approaches_perplexity_one() {
        // All-no-click data, model predicting ~0.
        let data: SessionSet = (0..50)
            .map(|_| Session::new(QueryId(0), vec![DocId(0), DocId(1)], vec![false, false]))
            .collect();
        let report = evaluate(&ConstModel(1e-9), &data);
        assert!(
            report.perplexity < 1.0 + 1e-6,
            "perplexity {}",
            report.perplexity
        );
    }

    #[test]
    fn empty_data() {
        let report = evaluate(&ConstModel(0.5), &SessionSet::new());
        assert_eq!(report.perplexity, 1.0);
        assert_eq!(report.positions, 0);
        assert_eq!(report.log_likelihood, 0.0);
    }

    #[test]
    fn overconfident_wrong_model_is_penalized_finitely() {
        let data: SessionSet = (0..10)
            .map(|_| Session::new(QueryId(0), vec![DocId(0)], vec![true]))
            .collect();
        let report = evaluate(&ConstModel(0.0), &data);
        assert!(report.log_likelihood.is_finite());
        assert!(report.perplexity.is_finite());
        assert!(report.perplexity > 100.0);
    }
}
