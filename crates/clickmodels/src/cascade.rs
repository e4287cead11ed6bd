//! The cascade model (Craswell et al., WSDM 2008).
//!
//! §II-B: the user scans results strictly top-down, clicks the first
//! satisfying result, and stops — `Pr(E_i=1 | E_{i-1}=1) = 1 − C_{i-1}`
//! (Eq. 2). The model "is quite restrictive since it allows at most one
//! click per query instance".
//!
//! Under the cascade assumption examination is *observable*: everything up
//! to and including the first click is examined; with no click, everything
//! is examined. Fitting is therefore closed-form MLE — relevance is clicks
//! over examinations.

use crate::chain::{self, ChainSpec};
use crate::model::{ClickModel, PairAcc, PairParams};
use crate::session::{DocId, QueryId, Session, SessionSet};

/// Cascade click model.
#[derive(Debug, Clone)]
pub struct CascadeModel {
    relevance: PairParams,
    /// Laplace smoothing for the MLE ratios.
    pub smoothing: f64,
}

impl Default for CascadeModel {
    fn default() -> Self {
        Self {
            relevance: PairParams::default(),
            smoothing: 1.0,
        }
    }
}

impl CascadeModel {
    /// The learned relevance table.
    pub fn relevance(&self) -> &PairParams {
        &self.relevance
    }

    fn spec(&self, query: QueryId, docs: &[DocId]) -> ChainSpec {
        let n = docs.len();
        ChainSpec {
            emit: docs.iter().map(|&d| self.relevance.get(query, d)).collect(),
            cont_click: vec![0.0; n],
            cont_noclick: vec![1.0; n],
        }
    }
}

impl ClickModel for CascadeModel {
    fn name(&self) -> &'static str {
        "Cascade"
    }

    fn fit(&mut self, data: &SessionSet) {
        let mut acc = PairAcc::default();
        for s in data.sessions() {
            // Only the prefix up to the first click is cascade-consistent;
            // multi-click sessions contribute their first-click prefix (the
            // standard way to train the cascade model on real logs).
            let horizon = s.first_click().map_or(s.depth(), |fc| fc + 1);
            for (i, d, c) in s.iter().take(horizon) {
                acc.add(s.query, d, if c { 1.0 } else { 0.0 }, 1.0);
                let _ = i;
            }
        }
        self.relevance = acc.freeze(self.smoothing);
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

    fn simulate_cascade(rels: &[f64], sessions: usize, seed: u64) -> SessionSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = SessionSet::new();
        for _ in 0..sessions {
            let docs: Vec<DocId> = (0..rels.len() as u32).map(DocId).collect();
            let mut clicks = vec![false; rels.len()];
            for i in 0..rels.len() {
                if rng.gen_bool(rels[i]) {
                    clicks[i] = true;
                    break; // cascade: stop at first click
                }
            }
            set.push(Session::new(QueryId(0), docs, clicks));
        }
        set
    }

    #[test]
    fn recovers_relevance() {
        let rels = [0.1, 0.6, 0.3];
        let data = simulate_cascade(&rels, 8000, 3);
        let mut model = CascadeModel::default();
        model.fit(&data);
        for (i, &truth) in rels.iter().enumerate() {
            let est = model.relevance().get(QueryId(0), DocId(i as u32));
            assert!((est - truth).abs() < 0.05, "doc {i}: est {est} vs {truth}");
        }
    }

    #[test]
    fn no_click_after_click() {
        let mut model = CascadeModel::default();
        model.relevance.set(QueryId(0), DocId(0), 0.5);
        model.relevance.set(QueryId(0), DocId(1), 0.5);
        let s = Session::new(QueryId(0), vec![DocId(0), DocId(1)], vec![true, false]);
        let probs = model.conditional_click_probs(&s);
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert_eq!(probs[1], 0.0, "cascade forbids clicks after a click");
    }

    #[test]
    fn marginal_ctr_decays_with_rank_for_equal_relevance() {
        let mut model = CascadeModel::default();
        for d in 0..4 {
            model.relevance.set(QueryId(0), DocId(d), 0.4);
        }
        let probs = model.full_click_probs(QueryId(0), &(0..4).map(DocId).collect::<Vec<_>>());
        for w in probs.windows(2) {
            assert!(w[0] > w[1], "cascade marginals must decay: {probs:?}");
        }
        // Closed form: p_i = r (1-r)^i.
        for (i, &p) in probs.iter().enumerate() {
            let expect = 0.4 * 0.6f64.powi(i as i32);
            assert!((p - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn multi_click_sessions_use_first_click_prefix() {
        // Doc at rank 2 is after the first click: never counted.
        let s = Session::new(
            QueryId(0),
            vec![DocId(0), DocId(1), DocId(2)],
            vec![false, true, true],
        );
        let mut model = CascadeModel::default();
        model.fit(&SessionSet::from_sessions(vec![s]));
        // DocId(2) never examined ⇒ falls back.
        let fallback = model.relevance().fallback();
        assert_eq!(model.relevance().get(QueryId(0), DocId(2)), fallback);
    }
}
