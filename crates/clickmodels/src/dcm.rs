//! The dependent click model (Guo, Liu & Wang, WSDM 2009).
//!
//! §II-B: DCM "generalizes the cascade model to instances with multiple
//! clicks":
//!
//! ```text
//! Pr(E_i=1 | E_{i-1}=1, C_{i-1}=1) = λ_i
//! Pr(E_i=1 | E_{i-1}=1, C_{i-1}=0) = 1
//! ```
//!
//! "The authors suggest estimating the position effects λ_i using maximum
//! likelihood." We follow the original paper's estimator: under DCM the
//! examined prefix extends at least to the last click, and for the purposes
//! of the MLE the positions up to the last click are treated as examined
//! (positions after the last click are examined with unknown probability;
//! the original DCM estimator conservatively treats the tail of no-click
//! sessions as examined, which we mirror).

use crate::chain::{self, ChainSpec};
use crate::model::{ClickModel, PairAcc, PairParams, RatioAcc};
use crate::session::{DocId, QueryId, Session, SessionSet};

/// Dependent click model.
#[derive(Debug, Clone)]
pub struct DcmModel {
    relevance: PairParams,
    /// λ per rank: continuation probability after a click at that rank.
    lambdas: Vec<f64>,
    /// Laplace smoothing for both ratio families.
    pub smoothing: f64,
}

impl Default for DcmModel {
    fn default() -> Self {
        Self {
            relevance: PairParams::default(),
            lambdas: Vec::new(),
            smoothing: 1.0,
        }
    }
}

impl DcmModel {
    /// The learned relevance table.
    pub fn relevance(&self) -> &PairParams {
        &self.relevance
    }

    /// The learned per-rank continuation-after-click probabilities.
    pub fn lambdas(&self) -> &[f64] {
        &self.lambdas
    }

    fn lambda(&self, rank: usize) -> f64 {
        self.lambdas.get(rank).copied().unwrap_or(0.5)
    }

    fn spec(&self, query: QueryId, docs: &[DocId]) -> ChainSpec {
        let n = docs.len();
        ChainSpec {
            emit: docs.iter().map(|&d| self.relevance.get(query, d)).collect(),
            cont_click: (0..n).map(|i| self.lambda(i)).collect(),
            cont_noclick: vec![1.0; n],
        }
    }
}

impl ClickModel for DcmModel {
    fn name(&self) -> &'static str {
        "DCM"
    }

    fn fit(&mut self, data: &SessionSet) {
        let depth = data.max_depth();
        let mut rel_acc = PairAcc::default();
        let mut lambda_acc = vec![RatioAcc::default(); depth];
        for s in data.sessions() {
            let last = s.last_click();
            // Examined horizon: through the last click, or the whole list if
            // no click (DCM: no click ⇒ user kept scanning).
            let horizon = last.map_or(s.depth(), |lc| lc + 1);
            for (i, d, c) in s.iter().take(horizon) {
                rel_acc.add(s.query, d, if c { 1.0 } else { 0.0 }, 1.0);
                if c && i + 1 < s.depth() {
                    // Did the user continue after this click? Yes iff this
                    // was not the last click.
                    let continued = last != Some(i);
                    lambda_acc[i].add(if continued { 1.0 } else { 0.0 }, 1.0);
                }
            }
        }
        self.relevance = rel_acc.freeze(self.smoothing);
        self.lambdas = lambda_acc.iter().map(|a| a.ratio(self.smoothing)).collect();
    }

    fn conditional_click_probs(&self, session: &Session) -> Vec<f64> {
        chain::conditional_click_probs(&self.spec(session.query, &session.docs), &session.clicks)
    }

    fn full_click_probs(&self, query: QueryId, docs: &[DocId]) -> Vec<f64> {
        chain::marginal_click_probs(&self.spec(query, docs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn simulate_dcm(rels: &[f64], lambdas: &[f64], sessions: usize, seed: u64) -> SessionSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = SessionSet::new();
        for _ in 0..sessions {
            let docs: Vec<DocId> = (0..rels.len() as u32).map(DocId).collect();
            let mut clicks = vec![false; rels.len()];
            for i in 0..rels.len() {
                let clicked = rng.gen_bool(rels[i]);
                clicks[i] = clicked;
                if clicked && !rng.gen_bool(lambdas[i]) {
                    break;
                }
            }
            set.push(Session::new(QueryId(0), docs, clicks));
        }
        set
    }

    #[test]
    fn allows_multiple_clicks() {
        let mut model = DcmModel::default();
        model.relevance.set(QueryId(0), DocId(0), 0.5);
        model.relevance.set(QueryId(0), DocId(1), 0.5);
        model.lambdas = vec![0.8, 0.8];
        let s = Session::new(QueryId(0), vec![DocId(0), DocId(1)], vec![true, true]);
        let probs = model.conditional_click_probs(&s);
        assert!((probs[0] - 0.5).abs() < 1e-12);
        // After a click at rank 0: alive with prob λ_0 = 0.8 ⇒ P = 0.4.
        assert!((probs[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn recovers_lambda_shape() {
        let rels = [0.5, 0.5, 0.5, 0.5];
        let lambdas = [0.9, 0.6, 0.3, 0.5];
        let data = simulate_dcm(&rels, &lambdas, 20_000, 9);
        let mut model = DcmModel::default();
        model.fit(&data);
        let est = model.lambdas();
        // The MLE is biased (tail censoring) but the ordering across the
        // first three ranks must survive.
        assert!(est[0] > est[1] && est[1] > est[2], "lambdas {est:?}");
    }

    #[test]
    fn recovers_relevance_ordering() {
        let rels = [0.2, 0.7, 0.4];
        let lambdas = [0.7, 0.7, 0.7];
        let data = simulate_dcm(&rels, &lambdas, 10_000, 10);
        let mut model = DcmModel::default();
        model.fit(&data);
        let r: Vec<f64> = (0..3)
            .map(|d| model.relevance().get(QueryId(0), DocId(d)))
            .collect();
        assert!(r[1] > r[2] && r[2] > r[0], "relevances {r:?}");
    }

    #[test]
    fn cascade_is_special_case() {
        // λ = 0 reduces DCM to the cascade model.
        let mut dcm = DcmModel::default();
        dcm.relevance.set(QueryId(0), DocId(0), 0.4);
        dcm.relevance.set(QueryId(0), DocId(1), 0.6);
        dcm.lambdas = vec![1e-6, 1e-6]; // ratio clamp prevents exact 0
        let s = Session::new(QueryId(0), vec![DocId(0), DocId(1)], vec![true, false]);
        let probs = dcm.conditional_click_probs(&s);
        assert!(
            probs[1] < 1e-5,
            "λ→0 must forbid post-click clicks: {probs:?}"
        );
    }

    #[test]
    fn empty_fit() {
        let mut model = DcmModel::default();
        model.fit(&SessionSet::new());
        assert!(model.lambdas().is_empty());
        let probs = model.full_click_probs(QueryId(0), &[DocId(0)]);
        assert_eq!(probs.len(), 1);
    }
}
