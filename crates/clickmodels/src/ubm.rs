//! The user browsing model (Dupret & Piwowarski, SIGIR 2008).
//!
//! §II-B: UBM "is also based on the examination hypothesis, but … does not
//! force Pr(E_i=1 | E_{i-1}=1, C_{i-1}=0) to be 1 … UBM assumes that the
//! examination probability is determined by the preceding click position."
//! (The Bayesian browsing model, BBM, "uses exactly the same browsing
//! model"; §II-B notes that for this paper's purposes they are equivalent —
//! so this implementation stands for both.)
//!
//! Examination probability is `γ[r][i]`, indexed by the current rank `i`
//! and the rank `r` of the most recent preceding click (a sentinel context
//! for "no click yet"). Because `r` is *observable* from the click history,
//! EM needs only the same per-position latent-examination split as the
//! position model — no chain enumeration required.

use microbrowse_text::FxHashMap;

use crate::model::{ClickModel, PairAcc, PairParams, RatioAcc};
use crate::session::{DocId, QueryId, Session, SessionSet};

/// Context key for γ: (rank of previous click + 1, current rank); the first
/// component is 0 when no click precedes.
type Ctx = (u16, u16);

/// User browsing model.
#[derive(Debug, Clone)]
pub struct UbmModel {
    relevance: PairParams,
    gammas: FxHashMap<Ctx, f64>,
    /// EM iterations for [`ClickModel::fit`].
    pub em_iterations: usize,
    /// Laplace smoothing for M-step ratios.
    pub smoothing: f64,
}

impl Default for UbmModel {
    fn default() -> Self {
        Self {
            relevance: PairParams::default(),
            gammas: FxHashMap::default(),
            em_iterations: 20,
            smoothing: 1.0,
        }
    }
}

fn contexts(clicks: &[bool]) -> Vec<Ctx> {
    let mut out = Vec::with_capacity(clicks.len());
    let mut prev: u16 = 0; // 0 = no preceding click
    for (i, &c) in clicks.iter().enumerate() {
        out.push((prev, i as u16));
        if c {
            prev = i as u16 + 1;
        }
    }
    out
}

impl UbmModel {
    /// The learned relevance table.
    pub fn relevance(&self) -> &PairParams {
        &self.relevance
    }

    /// Examination probability for a context (default 0.5 when unseen).
    pub fn gamma(&self, prev_click_plus1: u16, rank: u16) -> f64 {
        self.gammas
            .get(&(prev_click_plus1, rank))
            .copied()
            .unwrap_or(0.5)
    }

    /// Number of learned examination contexts.
    pub fn num_contexts(&self) -> usize {
        self.gammas.len()
    }
}

impl ClickModel for UbmModel {
    fn name(&self) -> &'static str {
        "UBM"
    }

    fn fit(&mut self, data: &SessionSet) {
        self.relevance = PairParams::default();
        self.gammas = FxHashMap::default();

        for _ in 0..self.em_iterations {
            let mut gamma_acc: FxHashMap<Ctx, RatioAcc> = FxHashMap::default();
            let mut rel_acc = PairAcc::default();
            for s in data.sessions() {
                let ctxs = contexts(&s.clicks);
                for (i, d, c) in s.iter() {
                    let ctx = ctxs[i];
                    let g = self.gamma(ctx.0, ctx.1);
                    let r = self.relevance.get(s.query, d);
                    let acc = gamma_acc.entry(ctx).or_default();
                    if c {
                        acc.add(1.0, 1.0);
                        rel_acc.add(s.query, d, 1.0, 1.0);
                    } else {
                        let denom = (1.0 - g * r).max(1e-12);
                        acc.add(g * (1.0 - r) / denom, 1.0);
                        rel_acc.add(s.query, d, r * (1.0 - g) / denom, 1.0);
                    }
                }
            }
            self.gammas = gamma_acc
                .iter()
                .map(|(&ctx, acc)| (ctx, acc.ratio(self.smoothing)))
                .collect();
            self.relevance = rel_acc.freeze(self.smoothing);
        }
    }

    fn conditional_click_probs(&self, session: &Session) -> Vec<f64> {
        let ctxs = contexts(&session.clicks);
        session
            .iter()
            .map(|(i, d, _)| {
                self.gamma(ctxs[i].0, ctxs[i].1) * self.relevance.get(session.query, d)
            })
            .collect()
    }

    fn full_click_probs(&self, query: QueryId, docs: &[DocId]) -> Vec<f64> {
        // Marginalize over click histories with a DP on "rank of last click
        // so far" (0 = none). States are small: ranks + 1.
        let n = docs.len();
        let mut out = vec![0.0f64; n];
        // state[s] = P(last click context = s) entering rank i.
        let mut state = vec![0.0f64; n + 1];
        state[0] = 1.0;
        for i in 0..n {
            let r = self.relevance.get(query, docs[i]);
            let mut next = vec![0.0f64; n + 1];
            for s in 0..=n {
                let mass = state[s];
                if mass == 0.0 {
                    continue;
                }
                let g = self.gamma(s as u16, i as u16);
                let p_click = g * r;
                out[i] += mass * p_click;
                next[i + 1] += mass * p_click;
                next[s] += mass * (1.0 - p_click);
            }
            state = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn simulate_ubm(
        rels: &[f64],
        gamma_fn: impl Fn(u16, u16) -> f64,
        sessions: usize,
        seed: u64,
    ) -> SessionSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = SessionSet::new();
        for _ in 0..sessions {
            let docs: Vec<DocId> = (0..rels.len() as u32).map(DocId).collect();
            let mut clicks = vec![false; rels.len()];
            let mut prev: u16 = 0;
            for i in 0..rels.len() {
                let g = gamma_fn(prev, i as u16);
                if rng.gen_bool(g * rels[i]) {
                    clicks[i] = true;
                    prev = i as u16 + 1;
                }
            }
            set.push(Session::new(QueryId(0), docs, clicks));
        }
        set
    }

    fn truth_gamma(prev: u16, rank: u16) -> f64 {
        // Examination decays with distance from the previous click.
        let dist = rank + 1 - prev.min(rank);
        (0.95f64 * 0.65f64.powi(i32::from(dist) - 1)).max(0.05)
    }

    #[test]
    fn contexts_track_previous_click() {
        let ctx = contexts(&[false, true, false, true, false]);
        assert_eq!(ctx, vec![(0, 0), (0, 1), (2, 2), (2, 3), (4, 4)]);
    }

    #[test]
    fn recovers_relevance_ordering() {
        let rels = [0.2, 0.7, 0.45];
        let data = simulate_ubm(&rels, truth_gamma, 15_000, 41);
        let mut model = UbmModel::default();
        model.fit(&data);
        let r: Vec<f64> = (0..3)
            .map(|d| model.relevance().get(QueryId(0), DocId(d)))
            .collect();
        assert!(r[1] > r[2] && r[2] > r[0], "relevances {r:?}");
    }

    #[test]
    fn gamma_decays_with_distance_from_click() {
        let rels = [0.4; 6];
        let data = simulate_ubm(&rels, truth_gamma, 25_000, 42);
        let mut model = UbmModel::default();
        model.fit(&data);
        // After a click at rank 0 (context prev=1): examination at rank 1
        // should exceed examination at rank 3.
        let near = model.gamma(1, 1);
        let far = model.gamma(1, 3);
        assert!(near > far, "near {near} far {far}");
    }

    #[test]
    fn full_probs_sum_consistent_with_simulation() {
        let rels = [0.3, 0.3, 0.3];
        let data = simulate_ubm(&rels, truth_gamma, 30_000, 43);
        let mut model = UbmModel::default();
        model.fit(&data);
        let predicted = model.full_click_probs(QueryId(0), &[DocId(0), DocId(1), DocId(2)]);
        let empirical = data.ctr_by_rank();
        for i in 0..3 {
            assert!(
                (predicted[i] - empirical[i]).abs() < 0.05,
                "rank {i}: {} vs {}",
                predicted[i],
                empirical[i]
            );
        }
    }

    #[test]
    fn empty_fit() {
        let mut model = UbmModel::default();
        model.fit(&SessionSet::new());
        assert_eq!(model.num_contexts(), 0);
        assert_eq!(model.full_click_probs(QueryId(0), &[DocId(0)]).len(), 1);
    }
}
