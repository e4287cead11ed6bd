//! The micro-browsing scoring equations (§III, Eq. 3–8).
//!
//! These functions are the mathematical heart of the paper, kept free of any
//! learning machinery so they can be tested against hand-computed values and
//! used directly (e.g. by the quickstart example, or by a serving system
//! that already has relevance and examination estimates).

/// The per-term quantities of Eq. 3: relevance `r ∈ (0, 1]` and the
/// examination indicator `v ∈ {0, 1}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermJudgment {
    /// Probability the term is relevant to the query, `r_i`.
    pub relevance: f64,
    /// Whether the user examined this term, `v_i`.
    pub examined: bool,
}

impl TermJudgment {
    /// Construct, clamping relevance into `(0, 1]` (zero relevance would
    /// make every product and log degenerate; the paper's estimators never
    /// produce exact zeros thanks to Laplace smoothing).
    pub fn new(relevance: f64, examined: bool) -> Self {
        Self {
            relevance: relevance.clamp(1e-9, 1.0),
            examined,
        }
    }

    /// This term's factor in Eq. 3: `r^v`.
    #[inline]
    pub fn factor(&self) -> f64 {
        if self.examined {
            self.relevance
        } else {
            1.0
        }
    }
}

/// Eq. 3: `Pr(R|q) = Π_i r_i^{v_i}` — the perceived relevance of a snippet
/// given which terms were examined.
///
/// Unexamined terms contribute nothing (factor 1): "the relevance of the
/// snippet is judged by the user based on the relevance of only these
/// observed terms".
pub fn snippet_relevance(terms: &[TermJudgment]) -> f64 {
    terms.iter().map(TermJudgment::factor).product()
}

/// Eq. 5: `score(R→S|q) = Σ_i v_i log r_i − Σ_j w_j log s_j` — the
/// log-probability-ratio of R over S. Positive means R is the better
/// snippet.
pub fn score_flat(r_terms: &[TermJudgment], s_terms: &[TermJudgment]) -> f64 {
    let log_side = |terms: &[TermJudgment]| -> f64 {
        terms
            .iter()
            .filter(|t| t.examined)
            .map(|t| t.relevance.ln())
            .sum()
    };
    log_side(r_terms) - log_side(s_terms)
}

/// One matched rewrite for Eq. 6: position `p` of R was rewritten to
/// position `q` of S.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RewriteLink {
    /// Index into the R-side term slice.
    pub r_index: usize,
    /// Index into the S-side term slice.
    pub s_index: usize,
}

/// Eq. 6: the factored form of the score — rewrites first, then leftover
/// terms on each side:
///
/// ```text
/// score(R→S|q) = Σ_{(p,q)∈pair(R,S)} (v_p log r_p − w_q log s_q)
///              + Σ_{a∉pos(R)} v_a log r_a − Σ_{b∉pos(S)} w_b log s_b
/// ```
///
/// Because every position appears exactly once on its own side, Eq. 6 is an
/// exact regrouping of Eq. 5 — [`score_factored`] always equals
/// [`score_flat`] (the `factored_equals_flat` test pins this identity).
pub fn score_factored(
    r_terms: &[TermJudgment],
    s_terms: &[TermJudgment],
    rewrites: &[RewriteLink],
) -> f64 {
    let mut r_used = vec![false; r_terms.len()];
    let mut s_used = vec![false; s_terms.len()];
    let mut score = 0.0;

    for link in rewrites {
        let r = &r_terms[link.r_index];
        let s = &s_terms[link.s_index];
        assert!(
            !r_used[link.r_index] && !s_used[link.s_index],
            "rewrite links must not overlap"
        );
        r_used[link.r_index] = true;
        s_used[link.s_index] = true;
        let vr = if r.examined { r.relevance.ln() } else { 0.0 };
        let ws = if s.examined { s.relevance.ln() } else { 0.0 };
        score += vr - ws;
    }
    for (i, t) in r_terms.iter().enumerate() {
        if !r_used[i] && t.examined {
            score += t.relevance.ln();
        }
    }
    for (j, t) in s_terms.iter().enumerate() {
        if !s_used[j] && t.examined {
            score -= t.relevance.ln();
        }
    }
    score
}

/// Eq. 8: the position/relevance-decoupled approximation of one rewrite's
/// contribution — `f(v_p, w_q) · log(r_p / s_q)`, where `f` is a learned
/// position weight shared by all rewrites between the same position pair.
///
/// This is the quantity the coupled logistic regression of Eq. 9
/// parameterizes as `P_{p,q} · T_{p,q}`.
pub fn decoupled_rewrite_term(position_weight: f64, r_relevance: f64, s_relevance: f64) -> f64 {
    let r = r_relevance.clamp(1e-9, 1.0);
    let s = s_relevance.clamp(1e-9, 1.0);
    position_weight * (r / s).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rel: f64, exam: bool) -> TermJudgment {
        TermJudgment::new(rel, exam)
    }

    #[test]
    fn eq3_products() {
        // All examined: plain product.
        let terms = [t(0.5, true), t(0.8, true)];
        assert!((snippet_relevance(&terms) - 0.4).abs() < 1e-12);
        // Unexamined terms do not count.
        let terms = [t(0.5, true), t(0.01, false)];
        assert!((snippet_relevance(&terms) - 0.5).abs() < 1e-12);
        // Nothing examined: relevance 1 (the user saw nothing to object to).
        let terms = [t(0.2, false), t(0.3, false)];
        assert!((snippet_relevance(&terms) - 1.0).abs() < 1e-12);
        assert_eq!(snippet_relevance(&[]), 1.0);
    }

    #[test]
    fn eq5_is_log_ratio_of_eq3() {
        let r = [t(0.9, true), t(0.2, false), t(0.6, true)];
        let s = [t(0.4, true), t(0.7, true)];
        let expect = (snippet_relevance(&r) / snippet_relevance(&s)).ln();
        assert!((score_flat(&r, &s) - expect).abs() < 1e-12);
    }

    #[test]
    fn score_sign_tracks_better_snippet() {
        let good = [t(0.9, true), t(0.95, true)];
        let bad = [t(0.3, true), t(0.4, true)];
        assert!(score_flat(&good, &bad) > 0.0);
        assert!(score_flat(&bad, &good) < 0.0);
        assert_eq!(score_flat(&good, &good), 0.0);
    }

    #[test]
    fn factored_equals_flat() {
        // The Eq. 6 regrouping must be exact for any matching.
        let r = [t(0.9, true), t(0.2, true), t(0.6, false), t(0.5, true)];
        let s = [t(0.4, true), t(0.7, false), t(0.8, true)];
        for rewrites in [
            vec![],
            vec![RewriteLink {
                r_index: 0,
                s_index: 2,
            }],
            vec![
                RewriteLink {
                    r_index: 1,
                    s_index: 0,
                },
                RewriteLink {
                    r_index: 3,
                    s_index: 2,
                },
            ],
        ] {
            let flat = score_flat(&r, &s);
            let fact = score_factored(&r, &s, &rewrites);
            assert!(
                (flat - fact).abs() < 1e-12,
                "rewrites {rewrites:?}: {flat} vs {fact}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_links_panic() {
        let r = [t(0.5, true), t(0.5, true)];
        let s = [t(0.5, true)];
        let links = [
            RewriteLink {
                r_index: 0,
                s_index: 0,
            },
            RewriteLink {
                r_index: 1,
                s_index: 0,
            },
        ];
        let _ = score_factored(&r, &s, &links);
    }

    #[test]
    fn relevance_is_clamped() {
        let z = TermJudgment::new(0.0, true);
        assert!(z.relevance > 0.0);
        let big = TermJudgment::new(7.0, true);
        assert_eq!(big.relevance, 1.0);
    }

    #[test]
    fn decoupled_term_signs() {
        // R's phrase more relevant than S's ⇒ positive contribution, scaled
        // by the position weight.
        assert!(decoupled_rewrite_term(1.0, 0.8, 0.2) > 0.0);
        assert!(decoupled_rewrite_term(1.0, 0.2, 0.8) < 0.0);
        assert_eq!(decoupled_rewrite_term(0.0, 0.9, 0.1), 0.0);
        // Low-attention positions shrink the effect.
        let strong = decoupled_rewrite_term(1.0, 0.8, 0.2);
        let weak = decoupled_rewrite_term(0.1, 0.8, 0.2);
        assert!(weak < strong && weak > 0.0);
    }

    #[test]
    fn micro_position_example_from_the_paper_intro() {
        // "Once the user sees these words in the snippet, she may decide to
        // click without examining the other words" — a salient phrase the
        // user reads dominates unread text.
        let legroom_read = [t(0.95, true), t(0.3, false), t(0.3, false)];
        let legroom_buried = [t(0.95, false), t(0.3, true), t(0.3, false)];
        assert!(
            snippet_relevance(&legroom_read) > snippet_relevance(&legroom_buried),
            "reading the salient phrase must beat burying it"
        );
    }
}
