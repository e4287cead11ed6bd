//! The position model (examination hypothesis).
//!
//! Richardson et al. \[14\] "assume that the probability a result is viewed
//! depends solely on its position, and is independent of other results";
//! Craswell et al. \[6\] formalized it as `Pr(C_i=1) = Pr(C_i=1|E_i=1) ·
//! Pr(E_i=1)` (Eq. 1 of the paper). Parameters: one examination probability
//! `γ_i` per rank, one relevance `r_{q,d}` per query-document pair.
//!
//! Fitting is the standard expectation-maximization for the PBM: a click
//! means both "examined" and "relevant"; a skip splits its evidence between
//! "not examined" and "examined but irrelevant" in proportion to the current
//! parameters.

use crate::model::{ClickModel, PairAcc, PairParams, RatioAcc};
use crate::session::{DocId, QueryId, Session, SessionSet};

/// Position (examination-hypothesis) click model.
#[derive(Debug, Clone)]
pub struct PositionModel {
    /// `γ_i`: examination probability per rank.
    gammas: Vec<f64>,
    /// `r_{q,d}`: perceived relevance per query-document pair.
    relevance: PairParams,
    /// Number of EM iterations used by [`ClickModel::fit`].
    pub em_iterations: usize,
    /// Laplace smoothing applied at each M-step.
    pub smoothing: f64,
}

impl Default for PositionModel {
    fn default() -> Self {
        Self {
            gammas: Vec::new(),
            relevance: PairParams::default(),
            em_iterations: 20,
            smoothing: 1.0,
        }
    }
}

impl PositionModel {
    /// The learned per-rank examination probabilities.
    pub fn gammas(&self) -> &[f64] {
        &self.gammas
    }

    /// The learned relevance table.
    pub fn relevance(&self) -> &PairParams {
        &self.relevance
    }

    fn gamma(&self, rank: usize) -> f64 {
        self.gammas.get(rank).copied().unwrap_or(0.5)
    }
}

impl ClickModel for PositionModel {
    fn name(&self) -> &'static str {
        "PBM"
    }

    fn fit(&mut self, data: &SessionSet) {
        let depth = data.max_depth();
        // Initialize γ to the empirical rank CTR shape (never zero), r to 0.5.
        let ctr = data.ctr_by_rank();
        self.gammas = (0..depth)
            .map(|i| ctr.get(i).copied().unwrap_or(0.0).max(0.05))
            .collect();
        self.relevance = PairParams::default();

        for _ in 0..self.em_iterations {
            let mut gamma_acc = vec![RatioAcc::default(); depth];
            let mut rel_acc = PairAcc::default();
            for s in data.sessions() {
                for (i, d, c) in s.iter() {
                    let g = self.gamma(i);
                    let r = self.relevance.get(s.query, d);
                    if c {
                        gamma_acc[i].add(1.0, 1.0);
                        rel_acc.add(s.query, d, 1.0, 1.0);
                    } else {
                        let denom = (1.0 - g * r).max(1e-12);
                        // P(E=1 | C=0) and P(R=1 | C=0).
                        let p_exam = g * (1.0 - r) / denom;
                        let p_rel = r * (1.0 - g) / denom;
                        gamma_acc[i].add(p_exam, 1.0);
                        rel_acc.add(s.query, d, p_rel, 1.0);
                    }
                }
            }
            self.gammas = gamma_acc.iter().map(|a| a.ratio(self.smoothing)).collect();
            self.relevance = rel_acc.freeze(self.smoothing);
        }
    }

    fn conditional_click_probs(&self, session: &Session) -> Vec<f64> {
        // Examination is independent of other results, so conditional =
        // marginal.
        self.full_click_probs(session.query, &session.docs)
    }

    fn full_click_probs(&self, query: QueryId, docs: &[DocId]) -> Vec<f64> {
        docs.iter()
            .enumerate()
            .map(|(i, &d)| self.gamma(i) * self.relevance.get(query, d))
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // private fields configured post-Default in fixtures
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Generate sessions from a known PBM and check parameter recovery.
    fn simulate_pbm(gammas: &[f64], rels: &[f64], sessions: usize, seed: u64) -> SessionSet {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = SessionSet::new();
        for _ in 0..sessions {
            // Shuffle placement so (γ, r) are identifiable — with fixed
            // placement only the product γ_i · r_d is observable.
            let mut docs: Vec<DocId> = (0..gammas.len() as u32).map(DocId).collect();
            docs.shuffle(&mut rng);
            let clicks: Vec<bool> = docs
                .iter()
                .enumerate()
                .map(|(i, d)| rng.gen_bool(gammas[i] * rels[d.0 as usize]))
                .collect();
            set.push(Session::new(QueryId(0), docs, clicks));
        }
        set
    }

    #[test]
    fn recovers_relevance_ordering() {
        let gammas = [0.95, 0.6, 0.35, 0.2];
        let rels = [0.2, 0.8, 0.5, 0.5];
        let data = simulate_pbm(&gammas, &rels, 6000, 42);
        let mut model = PositionModel::default();
        model.fit(&data);

        // Relevance ordering of the two distinctive docs is recovered.
        let r0 = model.relevance().get(QueryId(0), DocId(0));
        let r1 = model.relevance().get(QueryId(0), DocId(1));
        assert!(r1 > r0 + 0.2, "r1={r1} r0={r0}");

        // Gammas decay like the truth.
        let g = model.gammas();
        assert!(g[0] > g[1] && g[1] > g[2] && g[2] > g[3], "gammas {g:?}");
    }

    #[test]
    fn click_prob_product_form() {
        let mut model = PositionModel::default();
        model.gammas = vec![0.8, 0.4];
        let mut rel = PairParams::default();
        rel.set(QueryId(1), DocId(7), 0.5);
        model.relevance = rel;
        let probs = model.full_click_probs(QueryId(1), &[DocId(7), DocId(7)]);
        assert!((probs[0] - 0.4).abs() < 1e-12);
        assert!((probs[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn conditional_equals_marginal() {
        let mut model = PositionModel::default();
        model.gammas = vec![0.9, 0.5, 0.3];
        let s = Session::new(
            QueryId(0),
            vec![DocId(0), DocId(1), DocId(2)],
            vec![true, false, true],
        );
        assert_eq!(
            model.conditional_click_probs(&s),
            model.full_click_probs(QueryId(0), &s.docs)
        );
    }

    #[test]
    fn log_likelihood_improves_with_fit() {
        let gammas = [0.9, 0.5, 0.25];
        let rels = [0.6, 0.3, 0.7];
        let data = simulate_pbm(&gammas, &rels, 3000, 7);
        let mut unfit = PositionModel::default();
        unfit.gammas = vec![0.5; 3];
        let mut fit = PositionModel::default();
        fit.fit(&data);
        let ll_unfit: f64 = data
            .sessions()
            .iter()
            .map(|s| unfit.log_likelihood(s))
            .sum();
        let ll_fit: f64 = data.sessions().iter().map(|s| fit.log_likelihood(s)).sum();
        assert!(ll_fit > ll_unfit, "fit {ll_fit} <= unfit {ll_unfit}");
    }

    #[test]
    fn empty_fit_is_harmless() {
        let mut model = PositionModel::default();
        model.fit(&SessionSet::new());
        assert!(model.gammas().is_empty());
        assert_eq!(model.full_click_probs(QueryId(0), &[DocId(0)]), vec![0.25]);
    }
}
