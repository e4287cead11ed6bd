//! Ranked-SERP session simulation for the click-model baselines (§II).
//!
//! The click-model zoo of `microbrowse-click` needs session logs to fit and
//! compare against. Ground truth here is DBN-style (the richest of the
//! §II models): per query-document attractiveness and satisfaction, plus a
//! global perseverance γ — so the experiment can show which of the simpler
//! models degrade and how, mirroring the qualitative landscape the paper's
//! related-work section describes.

use microbrowse_click::{DocId, QueryId, Session, SessionSet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration for [`generate_sessions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Number of distinct queries.
    pub num_queries: usize,
    /// Candidate documents per query (rankings are sampled from these).
    pub docs_per_query: usize,
    /// Ranks displayed per session.
    pub serp_depth: usize,
    /// Total sessions to generate.
    pub num_sessions: usize,
    /// Ground-truth perseverance (DBN γ).
    pub gamma: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            num_queries: 50,
            docs_per_query: 12,
            serp_depth: 10,
            num_sessions: 50_000,
            gamma: 0.85,
            seed: 7,
        }
    }
}

/// The DBN-style ground truth behind a generated session set.
#[derive(Debug, Clone)]
pub struct SessionTruth {
    /// `attractiveness[q][d]`.
    pub attractiveness: Vec<Vec<f64>>,
    /// `satisfaction[q][d]`.
    pub satisfaction: Vec<Vec<f64>>,
    /// Perseverance γ.
    pub gamma: f64,
}

/// Generate a session corpus with a DBN ground truth.
pub fn generate_sessions(cfg: &SessionConfig) -> (SessionSet, SessionTruth) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Attractiveness skews low (most results ignored); satisfaction mid.
    let attractiveness: Vec<Vec<f64>> = (0..cfg.num_queries)
        .map(|_| {
            (0..cfg.docs_per_query)
                .map(|_| rng.gen_range(0.02..0.55))
                .collect()
        })
        .collect();
    let satisfaction: Vec<Vec<f64>> = (0..cfg.num_queries)
        .map(|_| {
            (0..cfg.docs_per_query)
                .map(|_| rng.gen_range(0.1..0.9))
                .collect()
        })
        .collect();

    let mut set = SessionSet::new();
    let mut doc_pool: Vec<u32> = (0..cfg.docs_per_query as u32).collect();
    for _ in 0..cfg.num_sessions {
        let q = rng.gen_range(0..cfg.num_queries);
        doc_pool.shuffle(&mut rng);
        let depth = cfg.serp_depth.min(cfg.docs_per_query);
        let docs: Vec<DocId> = doc_pool[..depth].iter().map(|&d| DocId(d)).collect();
        let mut clicks = vec![false; depth];
        for i in 0..depth {
            let d = docs[i].0 as usize;
            let clicked = rng.gen_bool(attractiveness[q][d]);
            clicks[i] = clicked;
            if clicked && rng.gen_bool(satisfaction[q][d]) {
                break;
            }
            if !rng.gen_bool(cfg.gamma) {
                break;
            }
        }
        set.push(Session::new(QueryId(q as u32), docs, clicks));
    }
    (
        set,
        SessionTruth {
            attractiveness,
            satisfaction,
            gamma: cfg.gamma,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SessionConfig {
        SessionConfig {
            num_sessions: 3_000,
            num_queries: 5,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic() {
        let (a, _) = generate_sessions(&small());
        let (b, _) = generate_sessions(&small());
        assert_eq!(a.sessions(), b.sessions());
    }

    #[test]
    fn sessions_have_requested_shape() {
        let cfg = small();
        let (set, truth) = generate_sessions(&cfg);
        assert_eq!(set.len(), cfg.num_sessions);
        assert_eq!(set.max_depth(), cfg.serp_depth);
        assert_eq!(truth.attractiveness.len(), cfg.num_queries);
        assert_eq!(truth.gamma, cfg.gamma);
    }

    #[test]
    fn ctr_decays_with_rank() {
        // Position bias must emerge from the cascade structure.
        let (set, _) = generate_sessions(&SessionConfig {
            num_sessions: 30_000,
            ..Default::default()
        });
        let ctr = set.ctr_by_rank();
        assert!(ctr[0] > ctr[3], "ctr {ctr:?}");
        assert!(ctr[3] > ctr[8], "ctr {ctr:?}");
    }

    #[test]
    fn clicks_are_cascade_consistent_in_aggregate() {
        // After a satisfied click the session ends, so multi-click sessions
        // exist but are a minority.
        let (set, _) = generate_sessions(&small());
        let multi = set.sessions().iter().filter(|s| s.num_clicks() > 1).count();
        let single = set
            .sessions()
            .iter()
            .filter(|s| s.num_clicks() == 1)
            .count();
        assert!(multi > 0, "DCM-style multiple clicks must occur");
        assert!(single > multi, "single clicks should dominate");
    }
}
