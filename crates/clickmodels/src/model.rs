//! The [`ClickModel`] trait and shared parameter plumbing.

use microbrowse_text::FxHashMap;

use crate::session::{DocId, QueryId, Session, SessionSet};

/// Common interface of all click models in this crate.
pub trait ClickModel {
    /// Human-readable model name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// Estimate parameters from a session corpus. Implementations are
    /// deterministic: same data, same result.
    fn fit(&mut self, data: &SessionSet);

    /// Conditional click probabilities `P(C_i = 1 | C_{<i})` for the clicks
    /// actually observed in `session`. This is the quantity conditioned on
    /// in log-likelihood and perplexity evaluation.
    fn conditional_click_probs(&self, session: &Session) -> Vec<f64>;

    /// Marginal click probabilities `P(C_i = 1)` for a hypothetical display
    /// of `docs` for `query` — the model's CTR prediction per rank.
    fn full_click_probs(&self, query: QueryId, docs: &[DocId]) -> Vec<f64>;

    /// Session log-likelihood `Σ_i log P(c_i | c_{<i})` (natural log).
    fn log_likelihood(&self, session: &Session) -> f64 {
        let probs = self.conditional_click_probs(session);
        probs
            .iter()
            .zip(&session.clicks)
            .map(|(&p, &c)| {
                let p = p.clamp(PROB_FLOOR, 1.0 - PROB_FLOOR);
                if c {
                    p.ln()
                } else {
                    (1.0 - p).ln()
                }
            })
            .sum()
    }
}

/// Probability floor used when taking logs, so a model that assigns zero to
/// an observed event yields a large-but-finite penalty.
pub const PROB_FLOOR: f64 = 1e-9;

/// A smoothed Bernoulli parameter table keyed by query-document pair, with a
/// global fallback for unseen pairs — the standard way click models carry
/// per-result relevance/attractiveness.
#[derive(Debug, Clone)]
pub struct PairParams {
    values: FxHashMap<(QueryId, DocId), f64>,
    fallback: f64,
}

impl Default for PairParams {
    fn default() -> Self {
        Self {
            values: FxHashMap::default(),
            fallback: 0.5,
        }
    }
}

impl PairParams {
    /// Create with an explicit fallback for unseen pairs.
    pub fn with_fallback(fallback: f64) -> Self {
        Self {
            values: FxHashMap::default(),
            fallback,
        }
    }

    /// Parameter for a pair (fallback if unseen).
    pub fn get(&self, q: QueryId, d: DocId) -> f64 {
        self.values.get(&(q, d)).copied().unwrap_or(self.fallback)
    }

    /// Set a pair's parameter.
    pub fn set(&mut self, q: QueryId, d: DocId, v: f64) {
        self.values.insert((q, d), v);
    }

    /// Replace the fallback (usually the global mean after fitting).
    pub fn set_fallback(&mut self, v: f64) {
        self.fallback = v;
    }

    /// The fallback value.
    pub fn fallback(&self) -> f64 {
        self.fallback
    }

    /// Number of explicitly-stored pairs.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate stored `((query, doc), value)` entries (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&(QueryId, DocId), &f64)> {
        self.values.iter()
    }
}

/// A numerator/denominator accumulator pair for MLE/EM updates, with
/// Beta(1,1)-style smoothing on ratio extraction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RatioAcc {
    /// Accumulated (expected) successes.
    pub num: f64,
    /// Accumulated (expected) trials.
    pub den: f64,
}

impl RatioAcc {
    /// Add `num_inc` successes out of `den_inc` trials.
    pub fn add(&mut self, num_inc: f64, den_inc: f64) {
        self.num += num_inc;
        self.den += den_inc;
    }

    /// Smoothed ratio `(num + alpha) / (den + 2 alpha)`, clamped to (0, 1).
    pub fn ratio(&self, alpha: f64) -> f64 {
        let r = (self.num + alpha) / (self.den + 2.0 * alpha);
        r.clamp(1e-6, 1.0 - 1e-6)
    }
}

/// Accumulates per-(query, doc) ratio statistics and freezes into
/// [`PairParams`].
#[derive(Debug, Default)]
pub struct PairAcc {
    accs: FxHashMap<(QueryId, DocId), RatioAcc>,
}

impl PairAcc {
    /// Add evidence for a pair.
    pub fn add(&mut self, q: QueryId, d: DocId, num: f64, den: f64) {
        self.accs.entry((q, d)).or_default().add(num, den);
    }

    /// Freeze into smoothed parameters; the fallback becomes the global
    /// pooled ratio.
    pub fn freeze(&self, alpha: f64) -> PairParams {
        let mut params = PairParams::default();
        let mut global = RatioAcc::default();
        for (&(q, d), acc) in &self.accs {
            params.set(q, d, acc.ratio(alpha));
            global.add(acc.num, acc.den);
        }
        params.set_fallback(global.ratio(alpha));
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_params_fallback() {
        let mut p = PairParams::with_fallback(0.25);
        assert_eq!(p.get(QueryId(1), DocId(2)), 0.25);
        p.set(QueryId(1), DocId(2), 0.9);
        assert_eq!(p.get(QueryId(1), DocId(2)), 0.9);
        assert_eq!(p.get(QueryId(1), DocId(3)), 0.25);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn ratio_acc_smoothing() {
        let mut acc = RatioAcc::default();
        acc.add(3.0, 4.0);
        assert!((acc.ratio(1.0) - 4.0 / 6.0).abs() < 1e-12);
        // Empty accumulator gives the prior mean.
        assert!((RatioAcc::default().ratio(1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ratio_is_clamped() {
        let mut acc = RatioAcc::default();
        acc.add(1e9, 1e9);
        let r = acc.ratio(0.5);
        assert!(r < 1.0 && r > 0.0);
    }

    #[test]
    fn pair_acc_freeze_sets_global_fallback() {
        let mut acc = PairAcc::default();
        acc.add(QueryId(0), DocId(0), 9.0, 10.0); // ~0.9
        acc.add(QueryId(0), DocId(1), 1.0, 10.0); // ~0.1
        let params = acc.freeze(1.0);
        assert!(params.get(QueryId(0), DocId(0)) > 0.8);
        assert!(params.get(QueryId(0), DocId(1)) < 0.2);
        // Fallback pools all evidence: (10+1)/(20+2) = 0.5.
        assert!((params.fallback() - 0.5).abs() < 1e-12);
    }
}
