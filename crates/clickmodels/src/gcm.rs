//! The general click model (Zhu et al., WSDM 2010).
//!
//! §II-C: GCM "treats all relevance and examination effects in the model as
//! random variables":
//!
//! ```text
//! Pr(E_i=1 | E_{i-1}=1, C_{i-1}=0) = Π(A_i > 0)
//! Pr(E_i=1 | E_{i-1}=1, C_{i-1}=1) = Π(B_i > 0)
//! Pr(C_i=1 | E_i)                  = Π(r_{φ(i)} > 0)
//! ```
//!
//! "These authors show that all previous models are special cases by
//! suitable choice of the random variables A_i, B_i, and r_{φ(i)}."
//!
//! Following that construction, this implementation keeps the full
//! generality that matters for the cascade family: *per-rank* continuation
//! probabilities after skips (`alpha_skip[i]`) and after clicks, with the
//! post-click probability additionally mixed by the clicked document's
//! relevance (`alpha_click_irrel[i]`, `alpha_click_rel[i]`). Fixing these
//! parameters appropriately recovers the cascade model, DCM, and CCM
//! exactly (see the `special_cases` tests); DBN's satisfaction differs only
//! in tying the mixture to a second per-document variable.

use crate::chain::{self, ChainSpec};
use crate::model::{ClickModel, PairAcc, PairParams, RatioAcc};
use crate::session::{DocId, QueryId, Session, SessionSet};

/// General click model (cascade-family parameterization).
#[derive(Debug, Clone)]
pub struct GcmModel {
    relevance: PairParams,
    /// Per-rank continue probability after a skip (`Π(A_i > 0)`).
    alpha_skip: Vec<f64>,
    /// Per-rank continue probability after clicking an irrelevant result.
    alpha_click_irrel: Vec<f64>,
    /// Per-rank continue probability after clicking a relevant result.
    alpha_click_rel: Vec<f64>,
    /// EM iterations for [`ClickModel::fit`].
    pub em_iterations: usize,
    /// Laplace smoothing for M-step ratios.
    pub smoothing: f64,
}

impl Default for GcmModel {
    fn default() -> Self {
        Self {
            relevance: PairParams::default(),
            alpha_skip: Vec::new(),
            alpha_click_irrel: Vec::new(),
            alpha_click_rel: Vec::new(),
            em_iterations: 15,
            smoothing: 1.0,
        }
    }
}

impl GcmModel {
    /// Construct with explicit per-rank parameters (used by the
    /// special-case reduction tests and by downstream ablations).
    pub fn with_params(
        relevance: PairParams,
        alpha_skip: Vec<f64>,
        alpha_click_irrel: Vec<f64>,
        alpha_click_rel: Vec<f64>,
    ) -> Self {
        Self {
            relevance,
            alpha_skip,
            alpha_click_irrel,
            alpha_click_rel,
            ..Self::default()
        }
    }

    /// The learned relevance table.
    pub fn relevance(&self) -> &PairParams {
        &self.relevance
    }

    /// The learned per-rank skip-continuation probabilities.
    pub fn alpha_skip(&self) -> &[f64] {
        &self.alpha_skip
    }

    fn get(v: &[f64], rank: usize, default: f64) -> f64 {
        v.get(rank).copied().unwrap_or(default)
    }

    fn spec(&self, query: QueryId, docs: &[DocId]) -> ChainSpec {
        let emit: Vec<f64> = docs.iter().map(|&d| self.relevance.get(query, d)).collect();
        let cont_click: Vec<f64> = emit
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                Self::get(&self.alpha_click_irrel, i, 0.6) * (1.0 - r)
                    + Self::get(&self.alpha_click_rel, i, 0.3) * r
            })
            .collect();
        let cont_noclick: Vec<f64> = (0..docs.len())
            .map(|i| Self::get(&self.alpha_skip, i, 0.8))
            .collect();
        ChainSpec {
            emit,
            cont_click,
            cont_noclick,
        }
    }
}

impl ClickModel for GcmModel {
    fn name(&self) -> &'static str {
        "GCM"
    }

    fn fit(&mut self, data: &SessionSet) {
        let depth = data.max_depth();
        if self.alpha_skip.len() < depth {
            self.alpha_skip.resize(depth, 0.8);
            self.alpha_click_irrel.resize(depth, 0.6);
            self.alpha_click_rel.resize(depth, 0.3);
        }
        for _ in 0..self.em_iterations {
            let mut rel_acc = PairAcc::default();
            let mut skip = vec![RatioAcc::default(); depth];
            let mut click_irrel = vec![RatioAcc::default(); depth];
            let mut click_rel = vec![RatioAcc::default(); depth];

            for s in data.sessions() {
                let spec = self.spec(s.query, &s.docs);
                let post = chain::posterior_examined(&spec, &s.clicks);
                for (i, d, c) in s.iter() {
                    let w = post.examined[i];
                    rel_acc.add(s.query, d, if c { w } else { 0.0 }, w);
                    if i + 1 >= s.depth() {
                        continue; // final-rank transitions unidentified
                    }
                    let cont = post.continued_from(i);
                    let stop = post.stopped_at(i);
                    if c {
                        let r = spec.emit[i];
                        click_irrel[i].add(cont * (1.0 - r), (cont + stop) * (1.0 - r));
                        click_rel[i].add(cont * r, (cont + stop) * r);
                    } else {
                        skip[i].add(cont, cont + stop);
                    }
                }
            }

            self.relevance = rel_acc.freeze(self.smoothing);
            self.alpha_skip = skip.iter().map(|a| a.ratio(self.smoothing)).collect();
            self.alpha_click_irrel = click_irrel
                .iter()
                .map(|a| a.ratio(self.smoothing))
                .collect();
            self.alpha_click_rel = click_rel.iter().map(|a| a.ratio(self.smoothing)).collect();
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
    use crate::ccm::CcmModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn relevance_table(vals: &[f64]) -> PairParams {
        let mut p = PairParams::default();
        for (i, &v) in vals.iter().enumerate() {
            p.set(QueryId(0), DocId(i as u32), v);
        }
        p
    }

    fn session(clicks: &[bool]) -> Session {
        Session::new(
            QueryId(0),
            (0..clicks.len() as u32).map(DocId).collect(),
            clicks.to_vec(),
        )
    }

    /// GCM with α_skip = 1, α_click = 0 is exactly the cascade model:
    /// after any click, further clicks have probability zero.
    #[test]
    fn special_case_cascade() {
        let rels = [0.3, 0.6, 0.2];
        let gcm = GcmModel::with_params(
            relevance_table(&rels),
            vec![1.0; 3],
            vec![0.0; 3],
            vec![0.0; 3],
        );
        for clicks in [
            vec![false, false, false],
            vec![false, true, false],
            vec![true, false, false],
        ] {
            let s = session(&clicks);
            let probs = gcm.conditional_click_probs(&s);
            if let Some(fc) = s.first_click() {
                for (i, &p) in probs.iter().enumerate() {
                    if i > fc {
                        assert!(p.abs() < 1e-12, "cascade special case violated: {probs:?}");
                    }
                }
            } else {
                // No click: examination never stops, so P(C_i) = r_i.
                for (i, &p) in probs.iter().enumerate() {
                    assert!((p - rels[i]).abs() < 1e-12);
                }
            }
        }
    }

    /// GCM with α_skip = 1 and both click-mixture components set to λ_i is
    /// exactly DCM (relevance-independent post-click continuation).
    #[test]
    fn special_case_dcm() {
        let rels = [0.4, 0.5, 0.3];
        let lambdas = [0.7, 0.5, 0.2];
        let gcm = GcmModel::with_params(
            relevance_table(&rels),
            vec![1.0; 3],
            lambdas.to_vec(),
            lambdas.to_vec(),
        );
        let s = session(&[true, false, true]);
        let gcm_probs = gcm.conditional_click_probs(&s);
        // By hand: rank0 p = r0 = 0.4 (E_1 certain); the click proves
        // examination, so alive(rank1) = λ_0 = 0.7 ⇒ p = 0.7 · 0.5 = 0.35.
        assert!((gcm_probs[0] - 0.4).abs() < 1e-12);
        assert!((gcm_probs[1] - 0.35).abs() < 1e-12);
    }

    /// GCM with rank-constant parameters equals CCM (compared through the
    /// public interfaces on unseen docs, where both use their fallback).
    #[test]
    fn special_case_ccm() {
        let (a1, a2, a3) = (0.8, 0.6, 0.3);
        let gcm =
            GcmModel::with_params(PairParams::default(), vec![a1; 4], vec![a2; 4], vec![a3; 4]);
        #[allow(clippy::field_reassign_with_default)]
        let ccm = {
            let mut m = CcmModel::default();
            m.alpha1 = a1;
            m.alpha2 = a2;
            m.alpha3 = a3;
            m
        };
        let docs: Vec<DocId> = (10..14).map(DocId).collect(); // unseen ⇒ fallback relevance
        let s = Session::new(QueryId(9), docs, vec![false, true, false, false]);
        let g = gcm.conditional_click_probs(&s);
        let c = ccm.conditional_click_probs(&s);
        for (x, y) in g.iter().zip(&c) {
            assert!((x - y).abs() < 1e-12, "GCM {g:?} vs CCM {c:?}");
        }
    }

    fn simulate(rels: &[f64], sessions: usize, seed: u64) -> SessionSet {
        // Rank-varying ground truth that only GCM can express exactly.
        let alpha_skip = [0.95, 0.85, 0.7, 0.6, 0.5];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = SessionSet::new();
        for _ in 0..sessions {
            let docs: Vec<DocId> = (0..rels.len() as u32).map(DocId).collect();
            let mut clicks = vec![false; rels.len()];
            for i in 0..rels.len() {
                let clicked = rng.gen_bool(rels[i]);
                clicks[i] = clicked;
                let cont = if clicked { 0.4 } else { alpha_skip[i] };
                if i + 1 < rels.len() && !rng.gen_bool(cont) {
                    break;
                }
            }
            set.push(Session::new(QueryId(0), docs, clicks));
        }
        set
    }

    #[test]
    fn predicts_the_empirical_ctr_curve() {
        // Per-rank α's are only weakly identified by EM (the examination
        // posterior is computed under the current α's, leaving flat
        // directions), but the *predictive* distribution is identified:
        // the fitted GCM must reproduce the rank-CTR curve of data whose
        // rank-dependent skip decay no rank-constant model can express.
        let rels = [0.3, 0.3, 0.3, 0.3, 0.3];
        let data = simulate(&rels, 25_000, 51);
        let mut gcm = GcmModel::default();
        gcm.fit(&data);
        let empirical = data.ctr_by_rank();
        let docs: Vec<DocId> = (0..rels.len() as u32).map(DocId).collect();
        let predicted = gcm.full_click_probs(QueryId(0), &docs);
        for (rank, (&e, &p)) in empirical.iter().zip(&predicted).enumerate() {
            assert!(
                (e - p).abs() < 0.02,
                "rank {rank}: empirical {e:.4} vs predicted {p:.4}"
            );
        }
    }

    #[test]
    fn fit_improves_log_likelihood() {
        let data = simulate(&[0.25, 0.4, 0.3, 0.2, 0.35], 5_000, 52);
        let mut gcm = GcmModel::default();
        let before: f64 = data.sessions().iter().map(|s| gcm.log_likelihood(s)).sum();
        gcm.fit(&data);
        let after: f64 = data.sessions().iter().map(|s| gcm.log_likelihood(s)).sum();
        assert!(after > before);
    }
}
