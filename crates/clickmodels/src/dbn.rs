//! The dynamic Bayesian network model (Chapelle & Zhang, WWW 2009).
//!
//! §II-D: DBN "uses the 'user satisfaction' (post-click relevance) of the
//! preceding click to predict whether the user will continue examining
//! additional results":
//!
//! ```text
//! Pr(E_i=1 | E_{i-1}=1, C_{i-1}=0) = γ
//! Pr(E_i=1 | E_{i-1}=1, C_{i-1}=1) = γ (1 − s_{φ(i-1)})
//! ```
//!
//! Parameters: per-(query, doc) *attractiveness* `a` (perceived relevance:
//! click probability when examined), per-(query, doc) *satisfaction* `s`
//! (probability the user is satisfied after clicking), and a global
//! perseverance `γ`. "They propose an EM-type estimation method" — ours uses
//! the exact examination posteriors from [`crate::chain`]:
//!
//! * attractiveness: expected examined-and-clicked over expected examined;
//! * satisfaction: after a click at a non-final rank, the stop mass divides
//!   between "satisfied" and "unsatisfied but γ-abandoned" in proportion
//!   `s : (1−s)(1−γ)`;
//! * γ: expected continues over continue opportunities, where post-click
//!   opportunities are discounted by expected non-satisfaction.

use crate::chain::{self, ChainSpec};
use crate::model::{ClickModel, PairAcc, PairParams, RatioAcc};
use crate::session::{DocId, QueryId, Session, SessionSet};

/// Dynamic Bayesian network click model.
#[derive(Debug, Clone)]
pub struct DbnModel {
    attractiveness: PairParams,
    satisfaction: PairParams,
    /// Perseverance: probability of continuing when not satisfied.
    pub gamma: f64,
    /// EM iterations for [`ClickModel::fit`].
    pub em_iterations: usize,
    /// Laplace smoothing for M-step ratios.
    pub smoothing: f64,
}

impl Default for DbnModel {
    fn default() -> Self {
        Self {
            attractiveness: PairParams::default(),
            satisfaction: PairParams::default(),
            gamma: 0.8,
            em_iterations: 15,
            smoothing: 1.0,
        }
    }
}

impl DbnModel {
    /// The learned attractiveness (perceived relevance) table.
    pub fn attractiveness(&self) -> &PairParams {
        &self.attractiveness
    }

    /// The learned satisfaction (post-click relevance) table.
    pub fn satisfaction(&self) -> &PairParams {
        &self.satisfaction
    }

    fn spec(&self, query: QueryId, docs: &[DocId]) -> ChainSpec {
        let emit: Vec<f64> = docs
            .iter()
            .map(|&d| self.attractiveness.get(query, d))
            .collect();
        let cont_click: Vec<f64> = docs
            .iter()
            .map(|&d| self.gamma * (1.0 - self.satisfaction.get(query, d)))
            .collect();
        let cont_noclick = vec![self.gamma; docs.len()];
        ChainSpec {
            emit,
            cont_click,
            cont_noclick,
        }
    }
}

impl ClickModel for DbnModel {
    fn name(&self) -> &'static str {
        "DBN"
    }

    fn fit(&mut self, data: &SessionSet) {
        for _ in 0..self.em_iterations {
            let mut attr_acc = PairAcc::default();
            let mut sat_acc = PairAcc::default();
            let mut gamma_acc = RatioAcc::default();

            for s in data.sessions() {
                let spec = self.spec(s.query, &s.docs);
                let post = chain::posterior_examined(&spec, &s.clicks);
                for (i, d, c) in s.iter() {
                    let w = post.examined[i];
                    attr_acc.add(s.query, d, if c { w } else { 0.0 }, w);
                    if i + 1 >= s.depth() {
                        continue; // final-rank transitions unidentified
                    }
                    let cont = post.continued_from(i);
                    let stop = post.stopped_at(i);
                    if c {
                        // Stop mass splits between satisfied and
                        // γ-abandoned: P(sat | stop) = s / (s + (1-s)(1-γ)).
                        let s_d = self.satisfaction.get(s.query, d);
                        let stop_sat = s_d + (1.0 - s_d) * (1.0 - self.gamma);
                        let p_sat_given_stop = if stop_sat > 1e-12 {
                            s_d / stop_sat
                        } else {
                            0.0
                        };
                        let sat_mass = stop * p_sat_given_stop;
                        sat_acc.add(s.query, d, sat_mass, cont + stop);
                        // γ opportunities post-click exist only when not
                        // satisfied: continues count fully, stops count
                        // their unsatisfied share.
                        gamma_acc.add(cont, cont + stop * (1.0 - p_sat_given_stop));
                    } else {
                        gamma_acc.add(cont, cont + stop);
                    }
                }
            }

            self.attractiveness = attr_acc.freeze(self.smoothing);
            self.satisfaction = sat_acc.freeze(self.smoothing);
            self.gamma = gamma_acc.ratio(self.smoothing);
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

    pub(crate) fn simulate_dbn(
        attrs: &[f64],
        sats: &[f64],
        gamma: f64,
        sessions: usize,
        seed: u64,
    ) -> SessionSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = SessionSet::new();
        for _ in 0..sessions {
            let docs: Vec<DocId> = (0..attrs.len() as u32).map(DocId).collect();
            let mut clicks = vec![false; attrs.len()];
            for i in 0..attrs.len() {
                let clicked = rng.gen_bool(attrs[i]);
                clicks[i] = clicked;
                if clicked && rng.gen_bool(sats[i]) {
                    break; // satisfied: leave
                }
                if !rng.gen_bool(gamma) {
                    break; // perseverance ran out
                }
            }
            set.push(Session::new(QueryId(0), docs, clicks));
        }
        set
    }

    #[test]
    fn recovers_gamma() {
        let attrs = [0.3; 6];
        let sats = [0.4; 6];
        let truth_gamma = 0.85;
        let data = simulate_dbn(&attrs, &sats, truth_gamma, 20_000, 31);
        let mut model = DbnModel::default();
        model.fit(&data);
        assert!(
            (model.gamma - truth_gamma).abs() < 0.08,
            "gamma {} vs {}",
            model.gamma,
            truth_gamma
        );
    }

    #[test]
    fn recovers_attractiveness_ordering() {
        let attrs = [0.15, 0.55, 0.35, 0.25];
        let sats = [0.5; 4];
        let data = simulate_dbn(&attrs, &sats, 0.8, 15_000, 32);
        let mut model = DbnModel::default();
        model.fit(&data);
        let a: Vec<f64> = (0..4)
            .map(|d| model.attractiveness().get(QueryId(0), DocId(d)))
            .collect();
        assert!(
            a[1] > a[2] && a[2] > a[3] && a[3] > a[0],
            "attractiveness {a:?}"
        );
    }

    #[test]
    fn satisfaction_separates_docs() {
        // Two docs, equally attractive, very different satisfaction. The
        // satisfying doc should end sessions more often after its clicks.
        let attrs = [0.5, 0.5, 0.5];
        let sats = [0.9, 0.1, 0.5];
        let data = simulate_dbn(&attrs, &sats, 0.9, 30_000, 33);
        let mut model = DbnModel::default();
        model.fit(&data);
        let s0 = model.satisfaction().get(QueryId(0), DocId(0));
        let s1 = model.satisfaction().get(QueryId(0), DocId(1));
        assert!(s0 > s1 + 0.2, "s0 {s0} s1 {s1}");
    }

    #[test]
    fn fit_improves_log_likelihood() {
        let data = simulate_dbn(&[0.3, 0.4, 0.2], &[0.5, 0.3, 0.6], 0.75, 5_000, 34);
        let mut model = DbnModel::default();
        let before: f64 = data
            .sessions()
            .iter()
            .map(|s| model.log_likelihood(s))
            .sum();
        model.fit(&data);
        let after: f64 = data
            .sessions()
            .iter()
            .map(|s| model.log_likelihood(s))
            .sum();
        assert!(after > before);
    }

    #[test]
    fn conditional_probs_reflect_satisfaction() {
        let mut model = DbnModel {
            gamma: 0.9,
            ..Default::default()
        };
        model.attractiveness.set(QueryId(0), DocId(0), 0.5);
        model.attractiveness.set(QueryId(0), DocId(1), 0.5);
        model.satisfaction.set(QueryId(0), DocId(0), 0.95);
        let s = Session::new(QueryId(0), vec![DocId(0), DocId(1)], vec![true, false]);
        let probs = model.conditional_click_probs(&s);
        // After clicking a highly-satisfying doc, continuation is rare.
        assert!(probs[1] < 0.05, "{probs:?}");
    }
}
