//! The click chain model (Guo et al., WWW 2009).
//!
//! §II-C: CCM "is a generalization of DCM obtained by parameterizing λ_i and
//! by allowing the user to abandon examination of more results":
//!
//! ```text
//! Pr(E_i=1 | E_{i-1}=1, C_{i-1}=0) = α1
//! Pr(E_i=1 | E_{i-1}=1, C_{i-1}=1) = α2 (1 − r_{φ(i-1)}) + α3 r_{φ(i-1)}
//! ```
//!
//! The original paper performs full Bayesian inference over relevance; here
//! (as in most reimplementations, e.g. PyClick) we use point-estimate EM:
//! the E-step computes exact examination posteriors via the monotone-chain
//! enumeration of [`crate::chain`], and the M-step updates `r` from expected
//! examined-and-clicked counts and `α1..α3` from expected continue/stop
//! transitions, attributing post-click transitions to the α2/α3 mixture in
//! proportion to `1 − r` and `r`.

use crate::chain::{self, ChainSpec};
use crate::model::{ClickModel, PairAcc, PairParams, RatioAcc};
use crate::session::{DocId, QueryId, Session, SessionSet};

/// Click chain model.
#[derive(Debug, Clone)]
pub struct CcmModel {
    relevance: PairParams,
    /// Continue probability after a skip.
    pub alpha1: f64,
    /// Continue probability after a click on an irrelevant result.
    pub alpha2: f64,
    /// Continue probability after a click on a perfectly relevant result.
    pub alpha3: f64,
    /// EM iterations for [`ClickModel::fit`].
    pub em_iterations: usize,
    /// Laplace smoothing for M-step ratios.
    pub smoothing: f64,
}

impl Default for CcmModel {
    fn default() -> Self {
        Self {
            relevance: PairParams::default(),
            alpha1: 0.8,
            alpha2: 0.6,
            alpha3: 0.3,
            em_iterations: 15,
            smoothing: 1.0,
        }
    }
}

impl CcmModel {
    /// The learned relevance table.
    pub fn relevance(&self) -> &PairParams {
        &self.relevance
    }

    fn spec(&self, query: QueryId, docs: &[DocId]) -> ChainSpec {
        let emit: Vec<f64> = docs.iter().map(|&d| self.relevance.get(query, d)).collect();
        let cont_click: Vec<f64> = emit
            .iter()
            .map(|&r| self.alpha2 * (1.0 - r) + self.alpha3 * r)
            .collect();
        let cont_noclick = vec![self.alpha1; docs.len()];
        ChainSpec {
            emit,
            cont_click,
            cont_noclick,
        }
    }
}

impl ClickModel for CcmModel {
    fn name(&self) -> &'static str {
        "CCM"
    }

    fn fit(&mut self, data: &SessionSet) {
        for _ in 0..self.em_iterations {
            let mut rel_acc = PairAcc::default();
            let mut a1 = RatioAcc::default();
            let mut a2 = RatioAcc::default();
            let mut a3 = RatioAcc::default();

            for s in data.sessions() {
                let spec = self.spec(s.query, &s.docs);
                let post = chain::posterior_examined(&spec, &s.clicks);
                for (i, d, c) in s.iter() {
                    let w = post.examined[i];
                    rel_acc.add(s.query, d, if c { w } else { 0.0 }, w);
                    // Transition statistics are unidentified at the last rank.
                    if i + 1 >= s.depth() {
                        continue;
                    }
                    let cont = post.continued_from(i);
                    let stop = post.stopped_at(i);
                    if c {
                        // Attribute to the α2/α3 mixture by relevance.
                        let r = spec.emit[i];
                        a2.add(cont * (1.0 - r), (cont + stop) * (1.0 - r));
                        a3.add(cont * r, (cont + stop) * r);
                    } else {
                        a1.add(cont, cont + stop);
                    }
                }
            }

            self.relevance = rel_acc.freeze(self.smoothing);
            self.alpha1 = a1.ratio(self.smoothing);
            self.alpha2 = a2.ratio(self.smoothing);
            self.alpha3 = a3.ratio(self.smoothing);
        }
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

    fn simulate_ccm(
        rels: &[f64],
        (a1, a2, a3): (f64, f64, f64),
        sessions: usize,
        seed: u64,
    ) -> SessionSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = SessionSet::new();
        for _ in 0..sessions {
            let docs: Vec<DocId> = (0..rels.len() as u32).map(DocId).collect();
            let mut clicks = vec![false; rels.len()];
            for i in 0..rels.len() {
                let r = rels[i];
                let clicked = rng.gen_bool(r);
                clicks[i] = clicked;
                let cont = if clicked { a2 * (1.0 - r) + a3 * r } else { a1 };
                if i + 1 < rels.len() && !rng.gen_bool(cont) {
                    break;
                }
            }
            set.push(Session::new(QueryId(0), docs, clicks));
        }
        set
    }

    #[test]
    fn recovers_alpha1_roughly() {
        let rels = [0.3, 0.3, 0.3, 0.3, 0.3];
        let truth = (0.85, 0.5, 0.2);
        let data = simulate_ccm(&rels, truth, 20_000, 21);
        let mut model = CcmModel::default();
        model.fit(&data);
        assert!(
            (model.alpha1 - truth.0).abs() < 0.1,
            "alpha1 {} vs {}",
            model.alpha1,
            truth.0
        );
    }

    #[test]
    fn recovers_relevance_ordering() {
        let rels = [0.15, 0.6, 0.35, 0.25];
        let data = simulate_ccm(&rels, (0.8, 0.6, 0.3), 15_000, 22);
        let mut model = CcmModel::default();
        model.fit(&data);
        let r: Vec<f64> = (0..4)
            .map(|d| model.relevance().get(QueryId(0), DocId(d)))
            .collect();
        assert!(
            r[1] > r[2] && r[2] > r[3] && r[3] > r[0],
            "relevances {r:?}"
        );
    }

    #[test]
    fn fit_improves_log_likelihood() {
        let rels = [0.2, 0.5, 0.3];
        let data = simulate_ccm(&rels, (0.8, 0.5, 0.25), 5_000, 23);
        let mut model = CcmModel::default();
        let ll_before: f64 = data
            .sessions()
            .iter()
            .map(|s| model.log_likelihood(s))
            .sum();
        model.fit(&data);
        let ll_after: f64 = data
            .sessions()
            .iter()
            .map(|s| model.log_likelihood(s))
            .sum();
        assert!(ll_after > ll_before, "{ll_after} vs {ll_before}");
    }

    #[test]
    fn reduces_to_dcm_family_shape() {
        // α1 = 1 recovers DCM's "always continue after skip".
        let mut model = CcmModel {
            alpha1: 1.0 - 1e-9,
            ..Default::default()
        };
        model.relevance.set(QueryId(0), DocId(0), 0.4);
        model.relevance.set(QueryId(0), DocId(1), 0.4);
        let s = Session::new(QueryId(0), vec![DocId(0), DocId(1)], vec![false, false]);
        let probs = model.conditional_click_probs(&s);
        // With certain continuation after skip, rank 2's conditional click
        // probability stays close to relevance-times-alive ≈ 0.4 scaled by
        // posterior alive mass.
        assert!(probs[1] > 0.3, "{probs:?}");
    }
}
