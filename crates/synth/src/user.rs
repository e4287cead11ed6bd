//! The ground-truth micro-browsing user.
//!
//! This is the behavioural model the paper hypothesizes (§III), used here as
//! the *generator*: a user does not read a creative word by word — each
//! position `(line, pos)` is examined with probability
//! `scale · line_base[line] · pos_decay^pos` (floored), and the click
//! decision depends only on the salient phrases whose positions were
//! actually examined:
//!
//! ```text
//! P(click | examined set E) = sigmoid(base_logit + Σ_{occ ∈ E} salience(occ))
//! ```
//!
//! The *expected* CTR of a creative marginalizes over examination patterns.
//! With at most a dozen salient occurrences per creative this expectation is
//! computed **exactly** by subset enumeration — no Monte Carlo noise in the
//! ground truth; all sampling noise enters later through binomial click
//! counts.

use microbrowse_text::hash::FxHashMap;
use microbrowse_text::{Snippet, Tokenizer};

/// Positional attention curve of the micro-browsing user.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionProfile {
    /// Base examination probability of position 0 in each line; lines
    /// beyond the vector reuse its last entry.
    pub line_base: Vec<f64>,
    /// Multiplicative decay per token position within a line.
    pub pos_decay: f64,
    /// Lower bound on any examination probability.
    pub floor: f64,
    /// Overall scale (placement effect: Top ≈ 1.0, RHS lower).
    pub scale: f64,
}

impl AttentionProfile {
    /// A strongly position-dependent default (mainline/top ads).
    pub fn top() -> Self {
        Self {
            line_base: vec![0.95, 0.78, 0.55],
            pos_decay: 0.80,
            floor: 0.02,
            scale: 1.0,
        }
    }

    /// Right-hand-side ads: everything is skimmed much more lightly.
    pub fn rhs() -> Self {
        Self {
            scale: 0.55,
            ..Self::top()
        }
    }

    /// Examination probability of `(line, pos)` (both zero-based).
    pub fn exam_prob(&self, line: usize, pos: usize) -> f64 {
        let base = self
            .line_base
            .get(line)
            .or(self.line_base.last())
            .copied()
            .unwrap_or(0.5);
        (self.scale * base * self.pos_decay.powi(pos as i32)).clamp(self.floor, 1.0)
    }
}

/// One salient phrase occurrence found in a creative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SalientOcc {
    /// Ground-truth salience of the phrase.
    pub salience: f64,
    /// Probability the user examines the occurrence (first-token position).
    pub exam_prob: f64,
}

/// The ground-truth user: attention + phrase salience table.
#[derive(Debug, Clone)]
pub struct MicroUser {
    /// The positional attention curve.
    pub attention: AttentionProfile,
    /// Phrase → salience. Multi-token phrases are matched on token
    /// sequences after normalization.
    pub salience: FxHashMap<String, f64>,
    /// Baseline click logit (sets the overall CTR level; ads are rare
    /// clicks, so strongly negative).
    pub base_logit: f64,
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl MicroUser {
    /// Find the salient phrase occurrences of `snippet`, with their
    /// examination probabilities. Longest-match-first within each line so
    /// "free checked bags" is found before "free".
    pub fn salient_occurrences(&self, snippet: &Snippet) -> Vec<SalientOcc> {
        let tokenizer = Tokenizer::default();
        let mut out = Vec::new();
        let max_phrase_tokens = 4usize;
        for (line_idx, line) in snippet.lines().iter().enumerate() {
            let tokens = tokenizer.terms(&line.text);
            let mut covered = vec![false; tokens.len()];
            for len in (1..=max_phrase_tokens.min(tokens.len())).rev() {
                for start in 0..=(tokens.len() - len) {
                    if covered[start..start + len].iter().any(|&c| c) {
                        continue;
                    }
                    let phrase = tokens[start..start + len].join(" ");
                    if let Some(&sal) = self.salience.get(&phrase) {
                        if sal != 0.0 {
                            out.push(SalientOcc {
                                salience: sal,
                                exam_prob: self.attention.exam_prob(line_idx, start),
                            });
                        }
                        for c in &mut covered[start..start + len] {
                            *c = true;
                        }
                    }
                }
            }
        }
        out
    }

    /// Exact expected CTR of a creative: marginalize the click probability
    /// over examination subsets of the salient occurrences.
    ///
    /// Occurrence counts beyond `MAX_EXACT` (rare with realistic templates)
    /// keep only the most-examined occurrences, which bounds the error by
    /// the attention floor.
    pub fn expected_ctr(&self, snippet: &Snippet) -> f64 {
        const MAX_EXACT: usize = 14;
        let mut occs = self.salient_occurrences(snippet);
        if occs.len() > MAX_EXACT {
            occs.sort_by(|a, b| {
                (b.exam_prob * b.salience.abs())
                    .partial_cmp(&(a.exam_prob * a.salience.abs()))
                    .expect("finite")
            });
            occs.truncate(MAX_EXACT);
        }
        let n = occs.len();
        let mut ctr = 0.0;
        for mask in 0u32..(1 << n) {
            let mut prob = 1.0;
            let mut logit = self.base_logit;
            for (i, occ) in occs.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    prob *= occ.exam_prob;
                    logit += occ.salience;
                } else {
                    prob *= 1.0 - occ.exam_prob;
                }
            }
            ctr += prob * sigmoid(logit);
        }
        ctr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user_with(phrases: &[(&str, f64)], attention: AttentionProfile) -> MicroUser {
        let salience = phrases.iter().map(|&(t, s)| (t.to_string(), s)).collect();
        MicroUser {
            attention,
            salience,
            base_logit: -3.0,
        }
    }

    #[test]
    fn attention_decays_within_and_across_lines() {
        let a = AttentionProfile::top();
        assert!(a.exam_prob(0, 0) > a.exam_prob(0, 3));
        assert!(a.exam_prob(0, 0) > a.exam_prob(1, 0));
        assert!(a.exam_prob(1, 0) > a.exam_prob(2, 0));
        // Floor holds far out.
        assert!(a.exam_prob(2, 50) >= a.floor);
        // Lines beyond the vector reuse the last entry.
        assert_eq!(a.exam_prob(7, 0), a.exam_prob(2, 0));
    }

    #[test]
    fn rhs_attention_is_uniformly_lower() {
        let top = AttentionProfile::top();
        let rhs = AttentionProfile::rhs();
        for line in 0..3 {
            for pos in 0..6 {
                assert!(rhs.exam_prob(line, pos) <= top.exam_prob(line, pos));
            }
        }
    }

    #[test]
    fn finds_multi_token_phrases_longest_first() {
        let user = user_with(
            &[("free checked bags", 1.0), ("free", 0.4), ("bags", 0.2)],
            AttentionProfile::top(),
        );
        let occs = user.salient_occurrences(&Snippet::from_lines(["free checked bags today"]));
        assert_eq!(occs.len(), 1);
        assert_eq!(occs[0].salience, 1.0);
    }

    #[test]
    fn salient_phrase_position_changes_ctr() {
        let user = user_with(&[("save 20%", 1.3)], AttentionProfile::top());
        let early = Snippet::from_lines(["save 20% on flights today", "", ""]);
        let late = Snippet::from_lines(["", "", "book your flights today and save 20%"]);
        let ctr_early = user.expected_ctr(&early);
        let ctr_late = user.expected_ctr(&late);
        assert!(
            ctr_early > ctr_late * 1.3,
            "position must matter: early {ctr_early} late {ctr_late}"
        );
    }

    #[test]
    fn negative_phrases_depress_ctr() {
        let user = user_with(&[("fees may apply", -1.1)], AttentionProfile::top());
        let clean = Snippet::from_lines(["book flights today"]);
        let scary = Snippet::from_lines(["fees may apply book flights"]);
        assert!(user.expected_ctr(&scary) < user.expected_ctr(&clean));
    }

    #[test]
    fn expected_ctr_matches_two_occurrence_hand_computation() {
        let mut user = user_with(&[("good", 1.0), ("bad", -1.0)], AttentionProfile::top());
        user.attention = AttentionProfile {
            line_base: vec![1.0],
            pos_decay: 1.0,
            floor: 0.0,
            scale: 0.5, // every position examined with prob 0.5
        };
        let snippet = Snippet::from_lines(["good bad"]);
        let b = -3.0f64;
        let expect = 0.25 * sigmoid(b)
            + 0.25 * sigmoid(b + 1.0)
            + 0.25 * sigmoid(b - 1.0)
            + 0.25 * sigmoid(b);
        let got = user.expected_ctr(&snippet);
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
    }

    #[test]
    fn no_salient_phrases_gives_base_rate() {
        let user = user_with(&[], AttentionProfile::top());
        let ctr = user.expected_ctr(&Snippet::from_lines(["plain text here"]));
        assert!((ctr - sigmoid(-3.0)).abs() < 1e-12);
    }

    #[test]
    fn ctr_is_a_probability() {
        let user = user_with(
            &[("a", 2.0), ("b", -2.0), ("c", 1.0), ("d", 0.5)],
            AttentionProfile::top(),
        );
        let ctr = user.expected_ctr(&Snippet::from_lines(["a b c d", "a c", "b d"]));
        assert!(ctr > 0.0 && ctr < 1.0);
    }

    #[test]
    fn rhs_user_is_less_sensitive_to_text() {
        let phrases = [("save 20%", 1.3)];
        let top_user = user_with(&phrases, AttentionProfile::top());
        let rhs_user = user_with(&phrases, AttentionProfile::rhs());
        let with = Snippet::from_lines(["save 20% today"]);
        let without = Snippet::from_lines(["book a trip today"]);
        let top_gap = top_user.expected_ctr(&with) - top_user.expected_ctr(&without);
        let rhs_gap = rhs_user.expected_ctr(&with) - rhs_user.expected_ctr(&without);
        assert!(
            top_gap > rhs_gap,
            "RHS text effects must be weaker: top {top_gap} rhs {rhs_gap}"
        );
    }
}
