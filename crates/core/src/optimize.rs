//! Classifier-guided creative optimization (paper §VI: "automatic
//! generation of snippets").
//!
//! Once a snippet classifier can judge *which of two creatives will earn
//! the higher CTR*, it can drive search: start from an advertiser's draft,
//! propose edits — phrase rewrites and line reorderings (the two levers the
//! micro-browsing model says matter) — and greedily keep any edit the
//! classifier scores as an improvement. The result is the model's best
//! guess at a stronger creative *before a single impression is spent*.
//!
//! The edit language is deliberately the same vocabulary the model was
//! trained on:
//!
//! * [`Edit::ReplacePhrase`] — swap one phrase for another ("find cheap" →
//!   "save 20%"), the paper's rewrite.
//! * [`Edit::SwapLines`] — reorder snippet lines, the pure *position* move
//!   ("even where within a snippet particular words are located" changes
//!   clickthrough).
//! * [`Edit::MoveToFront`] — move a phrase to the front of its line, the
//!   micro-position move.

use microbrowse_text::{Snippet, Tokenizer};

use crate::serve::{Scorer, Scratch};

/// One candidate transformation of a creative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// Replace the first occurrence of `from` (a token sequence) with `to`.
    ReplacePhrase {
        /// Phrase to remove (matched on normalized tokens).
        from: String,
        /// Phrase to insert in its place.
        to: String,
    },
    /// Swap two lines (zero-based indices).
    SwapLines {
        /// First line.
        a: usize,
        /// Second line.
        b: usize,
    },
    /// Move the first occurrence of `phrase` to the front of its line.
    MoveToFront {
        /// Phrase to promote (matched on normalized tokens).
        phrase: String,
    },
}

/// Apply `edit` to `snippet`, returning `None` when the edit does not
/// apply (phrase absent, line index out of range, or a no-op).
///
/// Lines are rebuilt from normalized tokens (space-joined), matching how
/// every model in the workspace sees text anyway.
pub fn apply_edit(snippet: &Snippet, edit: &Edit, tokenizer: &Tokenizer) -> Option<Snippet> {
    let mut lines: Vec<Vec<String>> = snippet
        .lines()
        .iter()
        .map(|l| tokenizer.terms(&l.text))
        .collect();

    match edit {
        Edit::ReplacePhrase { from, to } => {
            let from_toks = tokenizer.terms(from);
            let to_toks = tokenizer.terms(to);
            if from_toks.is_empty() || from_toks == to_toks {
                return None;
            }
            let (li, start) = find_phrase(&lines, &from_toks)?;
            lines[li].splice(start..start + from_toks.len(), to_toks);
        }
        Edit::SwapLines { a, b } => {
            if *a == *b || *a >= lines.len() || *b >= lines.len() {
                return None;
            }
            lines.swap(*a, *b);
        }
        Edit::MoveToFront { phrase } => {
            let toks = tokenizer.terms(phrase);
            if toks.is_empty() {
                return None;
            }
            let (li, start) = find_phrase(&lines, &toks)?;
            if start == 0 {
                return None; // already at the front
            }
            let moved: Vec<String> = lines[li].drain(start..start + toks.len()).collect();
            for (k, t) in moved.into_iter().enumerate() {
                lines[li].insert(k, t);
            }
        }
    }
    Some(Snippet::from_lines(lines.into_iter().map(|l| l.join(" "))))
}

fn find_phrase(lines: &[Vec<String>], toks: &[String]) -> Option<(usize, usize)> {
    for (li, line) in lines.iter().enumerate() {
        if line.len() < toks.len() {
            continue;
        }
        for start in 0..=(line.len() - toks.len()) {
            if line[start..start + toks.len()] == *toks {
                return Some((li, start));
            }
        }
    }
    None
}

/// Outcome of an optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeOutcome {
    /// The optimized creative.
    pub best: Snippet,
    /// Edits accepted, in application order.
    pub accepted: Vec<Edit>,
    /// Total classifier log-odds margin accumulated over accepted edits.
    pub total_margin: f64,
    /// Number of hill-climbing rounds used.
    pub rounds: usize,
}

/// Configuration for [`optimize_creative`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizeConfig {
    /// Maximum hill-climbing rounds (each round applies at most one edit).
    pub max_rounds: usize,
    /// Minimum classifier margin (log-odds) an edit must clear to be
    /// accepted — guards against chasing noise-level "improvements".
    pub min_margin: f64,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        Self {
            max_rounds: 8,
            min_margin: 0.05,
        }
    }
}

/// Greedy hill-climbing over `edits`: at each round, apply the single edit
/// whose result the classifier scores highest against the current
/// creative; stop when no edit clears `min_margin`.
pub fn optimize_creative<'a>(
    scorer: &Scorer<'a>,
    scratch: &mut Scratch<'a>,
    base: &Snippet,
    edits: &[Edit],
    cfg: &OptimizeConfig,
) -> OptimizeOutcome {
    let tokenizer = Tokenizer::default();
    let mut current = base.clone();
    let mut accepted = Vec::new();
    let mut total_margin = 0.0;
    let mut rounds = 0;

    for _ in 0..cfg.max_rounds {
        rounds += 1;
        let mut best: Option<(f64, Edit, Snippet)> = None;
        for edit in edits {
            let Some(candidate) = apply_edit(&current, edit, &tokenizer) else {
                continue;
            };
            if candidate == current {
                continue;
            }
            let margin = scorer.score_pair(&candidate, &current, scratch);
            let better_than_best = best.as_ref().map_or(true, |(m, _, _)| margin > *m);
            if margin > cfg.min_margin && better_than_best {
                best = Some((margin, edit.clone(), candidate));
            }
        }
        match best {
            Some((margin, edit, candidate)) => {
                current = candidate;
                total_margin += margin;
                accepted.push(edit);
            }
            None => break,
        }
    }

    OptimizeOutcome {
        best: current,
        accepted,
        total_margin,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{ModelSpec, TrainedClassifier};
    use crate::features::OwnedTermFeat;
    use crate::serve::{DeployedModel, Fidelity, ServingBundle};
    use microbrowse_ml::LogReg;
    use microbrowse_store::StatsDb;

    fn tokenizer() -> Tokenizer {
        Tokenizer::default()
    }

    #[test]
    fn replace_phrase_applies_once() {
        let s = Snippet::creative("Air", "find cheap flights today", "find cheap hotels");
        let edit = Edit::ReplacePhrase {
            from: "find cheap".into(),
            to: "save 20% on".into(),
        };
        let out = apply_edit(&s, &edit, &tokenizer()).expect("applies");
        assert_eq!(out.lines()[1].text, "save 20% on flights today");
        // Only the first occurrence changes.
        assert_eq!(out.lines()[2].text, "find cheap hotels");
    }

    #[test]
    fn replace_missing_phrase_is_none() {
        let s = Snippet::creative("Air", "book flights", "today");
        let edit = Edit::ReplacePhrase {
            from: "luxury suites".into(),
            to: "x".into(),
        };
        assert_eq!(apply_edit(&s, &edit, &tokenizer()), None);
    }

    #[test]
    fn swap_lines() {
        let s = Snippet::creative("a", "b", "c");
        let out = apply_edit(&s, &Edit::SwapLines { a: 0, b: 2 }, &tokenizer()).expect("applies");
        assert_eq!(out.lines()[0].text, "c");
        assert_eq!(out.lines()[2].text, "a");
        assert_eq!(
            apply_edit(&s, &Edit::SwapLines { a: 1, b: 1 }, &tokenizer()),
            None
        );
        assert_eq!(
            apply_edit(&s, &Edit::SwapLines { a: 0, b: 9 }, &tokenizer()),
            None
        );
    }

    #[test]
    fn move_to_front() {
        let s = Snippet::creative("Air", "book flights and save 20% today", "x");
        let edit = Edit::MoveToFront {
            phrase: "save 20%".into(),
        };
        let out = apply_edit(&s, &edit, &tokenizer()).expect("applies");
        assert_eq!(out.lines()[1].text, "save 20% book flights and today");
        // Already at front ⇒ no-op.
        assert_eq!(apply_edit(&out, &edit, &tokenizer()), None);
    }

    /// A hand-built M1 model that loves "save 20%" and hates "fees".
    fn scorer_fixture() -> ServingBundle {
        let model = DeployedModel {
            spec: ModelSpec {
                name: "M1",
                terms: true,
                rewrites: false,
                positions: false,
                init_from_stats: false,
            },
            classifier: TrainedClassifier::Flat(LogReg::from_parts(vec![2.0, -1.5], 0.0)),
            vocab: vec![
                OwnedTermFeat::Term("save 20%".into()),
                OwnedTermFeat::Term("fees".into()),
            ],
        };
        ServingBundle::from_parts(model, StatsDb::new(), Fidelity::Full).expect("bundle")
    }

    #[test]
    fn hill_climb_accepts_improving_edits_and_stops() {
        let bundle = scorer_fixture();
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        let base = Snippet::creative("Air", "find cheap flights", "fees may apply");
        let edits = vec![
            Edit::ReplacePhrase {
                from: "find cheap".into(),
                to: "save 20% on".into(),
            },
            Edit::ReplacePhrase {
                from: "fees may apply".into(),
                to: "no hidden costs".into(),
            },
            Edit::ReplacePhrase {
                from: "flights".into(),
                to: "journeys".into(),
            }, // neutral
        ];
        let out = optimize_creative(
            &scorer,
            &mut scratch,
            &base,
            &edits,
            &OptimizeConfig::default(),
        );
        // Both scoring edits accepted; the neutral one never is.
        assert_eq!(out.accepted.len(), 2);
        assert!(out.total_margin > 3.0, "margin {}", out.total_margin);
        let text = out.best.to_string();
        assert!(text.contains("save 20%"), "{text}");
        assert!(!text.contains("fees"), "{text}");
        assert!(out.rounds <= 4);
    }

    #[test]
    fn no_applicable_edit_returns_base() {
        let bundle = scorer_fixture();
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        let base = Snippet::creative("Air", "plain text", "more text");
        let edits = vec![Edit::ReplacePhrase {
            from: "absent phrase".into(),
            to: "whatever".into(),
        }];
        let out = optimize_creative(
            &scorer,
            &mut scratch,
            &base,
            &edits,
            &OptimizeConfig::default(),
        );
        assert!(out.accepted.is_empty());
        assert_eq!(out.total_margin, 0.0);
        // No edit applied: the creative is byte-identical to the input.
        assert_eq!(out.best, base);
    }

    #[test]
    fn min_margin_filters_noise_edits() {
        let bundle = scorer_fixture();
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        let base = Snippet::creative("Air", "find cheap flights", "ok");
        let edits = vec![Edit::ReplacePhrase {
            from: "find cheap".into(),
            to: "save 20% on".into(),
        }];
        let strict = OptimizeConfig {
            min_margin: 10.0,
            ..Default::default()
        };
        let out = optimize_creative(&scorer, &mut scratch, &base, &edits, &strict);
        assert!(
            out.accepted.is_empty(),
            "margin 2.0 must not clear a 10.0 bar"
        );
    }
}
