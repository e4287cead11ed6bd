//! Generative rewrite suggestions: beam search over the corpus rewrite
//! database.
//!
//! `POST /v1/suggest`'s core. The discriminative model scores a pair of
//! creatives; run *generatively*, it searches for the rewritten variants of
//! one creative the model scores highest. Candidate moves come from the
//! compiled feature table's per-phrase rewrite adjacency
//! ([`crate::compiled::CompiledFeatureTable::rewrite_neighbors`]): any
//! phrase of the creative the statistics database has rewrite evidence for
//! can be substituted with its recorded partners. Each beam depth scores
//! every candidate variant *against the original creative* in one
//! [`Scorer::score_batch`] call (the original tokenizes once per batch via
//! the scratch arena), keeps the top `beam_width` variants, and recurses up
//! to `max_depth` substitutions.
//!
//! Determinism: candidate enumeration follows beam order → line → offset →
//! phrase length → neighbor rank (evidence mass, then effect size, then
//! phrase id), variants are deduplicated by rendered text, and ties in
//! score break on the rendered text — so the result is a pure function of
//! the serving bundle and the input, at any thread count (each thread uses
//! its own scratch). The `suggest_deterministic_across_scratches` proptest
//! in `core/tests/prop_suggest.rs` pins this down.

use std::collections::HashSet;

use microbrowse_text::Snippet;

use crate::compiled::RewriteNeighbor;
use crate::serve::{Scorer, Scratch};

/// Knobs for the suggestion beam search.
#[derive(Debug, Clone, PartialEq)]
pub struct SuggestConfig {
    /// Variants kept per depth.
    pub beam_width: usize,
    /// Maximum substitutions per suggested variant.
    pub max_depth: usize,
    /// Suggestions returned (best-first).
    pub top_k: usize,
    /// Rewrite partners tried per phrase occurrence (ranked by evidence
    /// mass, then absolute log-odds, then phrase id).
    pub max_neighbors: usize,
    /// Longest phrase (in tokens) considered for substitution.
    pub max_phrase_len: usize,
    /// Only variants scoring strictly above this margin over the input
    /// creative are returned (`0.0`: the variant must beat the input).
    pub min_gain: f64,
}

impl Default for SuggestConfig {
    fn default() -> Self {
        Self {
            beam_width: 8,
            max_depth: 2,
            top_k: 5,
            max_neighbors: 8,
            max_phrase_len: 3,
            min_gain: 0.0,
        }
    }
}

/// One substitution applied on the way to a suggested variant.
#[derive(Debug, Clone, PartialEq)]
pub struct RewriteStep {
    /// The phrase that was replaced.
    pub from: String,
    /// The phrase it was replaced with.
    pub to: String,
    /// Zero-based line the substitution happened on.
    pub line: u8,
    /// Zero-based token offset of the replaced phrase within its line.
    pub pos: u16,
    /// Margin gained by this step: the variant's score over the original
    /// minus its parent's (the first step's delta is the full margin).
    pub delta: f64,
}

/// One beam-searched variant of the input creative.
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// The rewritten creative.
    pub creative: Snippet,
    /// The model's margin of the variant over the input creative
    /// (positive ⇒ the model expects the variant to out-click the input).
    pub score: f64,
    /// The substitutions that produced it, in application order.
    pub steps: Vec<RewriteStep>,
}

/// A beam node: a candidate variant with its provenance.
#[derive(Debug, Clone)]
struct Node {
    /// Tokenized lines of the variant.
    lines: Vec<Vec<String>>,
    /// Rendered text, used for dedup and deterministic tie-breaking.
    key: String,
    /// Margin over the original creative.
    score: f64,
    steps: Vec<RewriteStep>,
}

fn render_key(lines: &[Vec<String>]) -> String {
    let rendered: Vec<String> = lines.iter().map(|l| l.join(" ")).collect();
    rendered.join("\n")
}

fn render_snippet(lines: &[Vec<String>]) -> Snippet {
    Snippet::from_lines(lines.iter().map(|l| l.join(" ")))
}

/// Beam-search the top-k rewritten variants of `creative` the model scores
/// above it.
///
/// Returns an empty list when the scorer's effective spec has rewrites off
/// (degraded fidelity): suggestion *requires* the rewrite database. Results
/// are best-first and strictly above `cfg.min_gain`.
pub fn suggest<'a>(
    scorer: &Scorer<'a>,
    creative: &Snippet,
    cfg: &SuggestConfig,
    scratch: &mut Scratch<'a>,
) -> Vec<Suggestion> {
    if !scorer.effective_spec().rewrites
        || cfg.beam_width == 0
        || cfg.max_depth == 0
        || cfg.top_k == 0
    {
        return Vec::new();
    }
    let table = scorer.engine().table();

    let base_lines: Vec<Vec<String>> = creative
        .lines()
        .iter()
        .map(|l| scorer.tokenizer().terms(&l.text))
        .collect();
    let base_key = render_key(&base_lines);
    let mut seen: HashSet<String> = HashSet::new();
    seen.insert(base_key.clone());

    let mut beam = vec![Node {
        lines: base_lines,
        key: base_key,
        score: 0.0,
        steps: Vec::new(),
    }];
    let mut pool: Vec<Node> = Vec::new();

    for _ in 0..cfg.max_depth {
        // Enumerate unseen one-substitution expansions of the beam, in
        // deterministic order.
        let mut cands: Vec<(Vec<Vec<String>>, String, usize, RewriteStep)> = Vec::new();
        for (parent, node) in beam.iter().enumerate() {
            for (li, line) in node.lines.iter().enumerate() {
                for start in 0..line.len() {
                    for plen in 1..=cfg.max_phrase_len.min(line.len() - start) {
                        let phrase = line[start..start + plen].join(" ");
                        let Some(pid) = table.phrase_id(&phrase) else {
                            continue;
                        };
                        let mut neighbors: Vec<RewriteNeighbor> =
                            table.rewrite_neighbors(pid).to_vec();
                        neighbors.sort_unstable_by(|a, b| {
                            b.total
                                .cmp(&a.total)
                                .then(b.log_odds.abs().total_cmp(&a.log_odds.abs()))
                                .then(a.other.cmp(&b.other))
                        });
                        for n in neighbors.into_iter().take(cfg.max_neighbors) {
                            let Some(to_str) = table.resolve_phrase(n.other) else {
                                continue;
                            };
                            let to_toks: Vec<String> =
                                to_str.split_whitespace().map(str::to_owned).collect();
                            if to_toks.is_empty() {
                                continue;
                            }
                            let mut lines = node.lines.clone();
                            lines[li].splice(start..start + plen, to_toks);
                            let key = render_key(&lines);
                            if !seen.insert(key.clone()) {
                                continue;
                            }
                            let step = RewriteStep {
                                from: phrase.clone(),
                                to: to_str.to_owned(),
                                line: li as u8,
                                pos: start as u16,
                                delta: 0.0,
                            };
                            cands.push((lines, key, parent, step));
                        }
                    }
                }
            }
        }
        if cands.is_empty() {
            break;
        }

        // Score every candidate against the ORIGINAL creative in one batch;
        // the original's preprocessing is shared across the whole batch by
        // the scratch arena.
        let pairs: Vec<(Snippet, Snippet)> = cands
            .iter()
            .map(|(lines, _, _, _)| (render_snippet(lines), creative.clone()))
            .collect();
        let scores = scorer.score_batch(&pairs, scratch);

        let mut next: Vec<Node> = cands
            .into_iter()
            .zip(scores)
            .map(|((lines, key, parent, mut step), score)| {
                step.delta = score - beam[parent].score;
                let mut steps = beam[parent].steps.clone();
                steps.push(step);
                Node {
                    lines,
                    key,
                    score,
                    steps,
                }
            })
            .collect();
        next.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.key.cmp(&b.key)));
        beam = next.iter().take(cfg.beam_width).cloned().collect();
        pool.extend(next);
    }

    pool.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.key.cmp(&b.key)));
    pool.into_iter()
        .filter(|n| n.score > cfg.min_gain)
        .take(cfg.top_k)
        .map(|n| Suggestion {
            creative: render_snippet(&n.lines),
            score: n.score,
            steps: n.steps,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{ModelSpec, TrainedClassifier};
    use crate::features::OwnedTermFeat;
    use crate::serve::{DeployedModel, Fidelity, ServingBundle};
    use microbrowse_ml::LogReg;
    use microbrowse_store::{FeatureKey, FeatureStat, StatsDb};

    fn fixture() -> ServingBundle {
        let stats = StatsDb::from_records([
            (
                FeatureKey::rewrite("cheap", "pricey"),
                FeatureStat { up: 9, down: 1 },
            ),
            (
                FeatureKey::rewrite("book", "find"),
                FeatureStat { up: 3, down: 3 },
            ),
        ]);
        let model = DeployedModel {
            spec: ModelSpec {
                name: "M5",
                terms: true,
                rewrites: true,
                positions: false,
                init_from_stats: false,
            },
            classifier: TrainedClassifier::Flat(LogReg::from_parts(vec![2.0, -1.5], 0.0)),
            vocab: vec![
                OwnedTermFeat::Term("cheap".into()),
                OwnedTermFeat::Term("pricey".into()),
            ],
        };
        ServingBundle::from_parts(model, stats, Fidelity::Full).expect("bundle")
    }

    #[test]
    fn suggests_the_ctr_positive_substitution() {
        let bundle = fixture();
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        let creative = Snippet::from_lines(["book pricey flights"]);
        let out = suggest(&scorer, &creative, &SuggestConfig::default(), &mut scratch);
        assert!(!out.is_empty(), "expected at least one suggestion");
        let top = &out[0];
        assert!(top.score > 0.0);
        assert_eq!(top.steps.len(), 1);
        assert_eq!(top.steps[0].from, "pricey");
        assert_eq!(top.steps[0].to, "cheap");
        assert_eq!(top.steps[0].line, 0);
        assert_eq!(top.steps[0].pos, 1);
        assert_eq!(top.steps[0].delta, top.score);
        let rendered: Vec<&str> = top
            .creative
            .lines()
            .iter()
            .map(|l| l.text.as_str())
            .collect();
        assert_eq!(rendered, ["book cheap flights"]);
        // Best-first, every result strictly beats the input.
        assert!(out.windows(2).all(|w| w[0].score >= w[1].score));
        assert!(out.iter().all(|s| s.score > 0.0));
    }

    #[test]
    fn degraded_scorers_suggest_nothing() {
        let bundle = ServingBundle::from_parts(
            fixture().model().clone(),
            StatsDb::new(),
            Fidelity::Degraded(crate::serve::DegradeReason::StatsMissing),
        )
        .expect("bundle");
        let degraded = bundle.scorer();
        let creative = Snippet::from_lines(["book pricey flights"]);
        let mut scratch = degraded.scratch();
        assert!(suggest(
            &degraded,
            &creative,
            &SuggestConfig::default(),
            &mut scratch
        )
        .is_empty());
    }

    #[test]
    fn depth_two_chains_two_substitutions() {
        let bundle = fixture();
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        let creative = Snippet::from_lines(["book pricey flights"]);
        let cfg = SuggestConfig {
            max_depth: 2,
            min_gain: f64::NEG_INFINITY,
            top_k: 64,
            ..SuggestConfig::default()
        };
        let out = suggest(&scorer, &creative, &cfg, &mut scratch);
        // Some variant applied two steps ("book"->"find" and
        // "pricey"->"cheap", in some order).
        assert!(out.iter().any(|s| s.steps.len() == 2));
        // Deltas telescope: steps sum to the final margin.
        for s in &out {
            let sum: f64 = s.steps.iter().map(|st| st.delta).sum();
            assert!((sum - s.score).abs() < 1e-9);
        }
    }
}
