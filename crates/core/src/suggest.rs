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
//! every candidate variant *against the original creative* through
//! [`Scorer::score_pair`] (the original tokenizes once per scratch via the
//! scratch arena), keeps the top `beam_width` variants, and recurses up to
//! `max_depth` substitutions.
//!
//! Candidates are single-use: a variant is built as rendered text straight
//! from its parent's text (phrase lookups are slices of it, so enumeration
//! joins nothing), scored once, and never stored by the score cache,
//! which keeps a pair only from its second miss on. Edit trails are stored
//! as offsets and rendered only for the variants returned.
//!
//! Determinism: candidate enumeration follows beam order → line → offset →
//! phrase length → neighbor rank (evidence mass, then effect size, then
//! phrase id), variants are deduplicated by rendered text, and ties in
//! score break on the rendered text — so the result is a pure function of
//! the serving bundle and the input, at any thread count (each thread uses
//! its own scratch). The `suggest_deterministic_across_scratches` proptest
//! in `core/tests/prop_suggest.rs` pins this down.

use std::collections::HashSet;
use std::ops::Range;
use std::rc::Rc;

use microbrowse_text::Snippet;

use crate::compiled::{CompiledFeatureTable, RewriteNeighbor};
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

/// A beam node: a candidate variant and the substitution that produced it.
#[derive(Debug)]
struct Node<'a> {
    /// Rendered text: lines joined by `'\n'`, tokens within a line by
    /// `' '`. The variant's identity for dedup and tie-breaks, and its
    /// lines are the variant's snippet lines.
    key: Rc<str>,
    /// Margin over the original creative.
    score: f64,
    /// How the node was derived from its parent (`None` for the input).
    edit: Option<Edit<'a>>,
}

/// One substitution, kept as offsets until a returned suggestion renders
/// it as a [`RewriteStep`].
#[derive(Debug)]
struct Edit<'a> {
    /// Index of the parent in the node list.
    parent: usize,
    /// Byte range of the replaced phrase in the parent's key.
    from: Range<usize>,
    /// The replacement phrase, as the compiled table stores it.
    to: &'a str,
    line: u8,
    pos: u16,
}

/// Beam nodes in creation order; an edit's `parent` indexes into it.
type Nodes<'a> = Vec<Node<'a>>;

/// Buffers reused across one whole search.
#[derive(Default)]
struct Buffers {
    /// Byte ranges of one line's tokens within a key.
    toks: Vec<Range<usize>>,
    /// One phrase's rewrite partners, ranked.
    neighbors: Vec<RewriteNeighbor>,
    /// The candidate key being built.
    cand: String,
}

/// The rendered key of the input creative: its normalized tokens.
fn render_input(scorer: &Scorer<'_>, creative: &Snippet) -> String {
    let mut key = String::new();
    let mut norm = String::new();
    for (li, line) in creative.lines().iter().enumerate() {
        if li > 0 {
            key.push('\n');
        }
        let line_start = key.len();
        scorer
            .tokenizer()
            .for_each_term(&line.text, &mut norm, |t| {
                if key.len() > line_start {
                    key.push(' ');
                }
                key.push_str(t);
            });
    }
    key
}

/// Write `key` with the byte range `from` replaced by the
/// whitespace-separated tokens of `to`, single-space joined, into `out`.
/// `false` when `to` has no tokens.
fn splice(key: &str, from: &Range<usize>, to: &str, out: &mut String) -> bool {
    out.clear();
    out.push_str(&key[..from.start]);
    let at = out.len();
    for t in to.split_whitespace() {
        if out.len() > at {
            out.push(' ');
        }
        out.push_str(t);
    }
    if out.len() == at {
        return false;
    }
    out.push_str(&key[from.end..]);
    true
}

/// Push every unseen one-substitution expansion of node `parent` onto
/// `nodes`, in line → offset → phrase length → neighbor rank order.
fn expand<'a>(
    table: &'a CompiledFeatureTable,
    cfg: &SuggestConfig,
    parent: usize,
    nodes: &mut Nodes<'a>,
    seen: &mut HashSet<Rc<str>>,
    bufs: &mut Buffers,
) {
    let key = Rc::clone(&nodes[parent].key);
    let mut line_start = 0;
    for (li, line) in key.split('\n').enumerate() {
        bufs.toks.clear();
        if !line.is_empty() {
            let mut at = line_start;
            for tok in line.split(' ') {
                bufs.toks.push(at..at + tok.len());
                at += tok.len() + 1;
            }
        }
        line_start += line.len() + 1;
        let toks = &bufs.toks;
        for start in 0..toks.len() {
            for plen in 1..=cfg.max_phrase_len.min(toks.len() - start) {
                let from = toks[start].start..toks[start + plen - 1].end;
                let Some(pid) = table.phrase_id(&key[from.clone()]) else {
                    continue;
                };
                bufs.neighbors.clear();
                bufs.neighbors
                    .extend_from_slice(table.rewrite_neighbors(pid));
                bufs.neighbors.sort_unstable_by(|a, b| {
                    b.total
                        .cmp(&a.total)
                        .then(b.log_odds.abs().total_cmp(&a.log_odds.abs()))
                        .then(a.other.cmp(&b.other))
                });
                for n in bufs.neighbors.iter().take(cfg.max_neighbors) {
                    let Some(to) = table.resolve_phrase(n.other) else {
                        continue;
                    };
                    if !splice(&key, &from, to, &mut bufs.cand) || seen.contains(bufs.cand.as_str())
                    {
                        continue;
                    }
                    let cand: Rc<str> = Rc::from(bufs.cand.as_str());
                    seen.insert(Rc::clone(&cand));
                    nodes.push(Node {
                        key: cand,
                        score: 0.0,
                        edit: Some(Edit {
                            parent,
                            from: from.clone(),
                            to,
                            line: li as u8,
                            pos: start as u16,
                        }),
                    });
                }
            }
        }
    }
}

/// The snippet whose lines are the rendered lines of `key`.
fn key_snippet(key: &str) -> Snippet {
    Snippet::from_lines(key.split('\n'))
}

/// The edit trail of node `i`, in application order.
fn steps(nodes: &Nodes<'_>, mut i: usize) -> Vec<RewriteStep> {
    let mut steps = Vec::new();
    while let Some(e) = &nodes[i].edit {
        let parent = &nodes[e.parent];
        steps.push(RewriteStep {
            from: parent.key[e.from.clone()].to_owned(),
            to: e.to.to_owned(),
            line: e.line,
            pos: e.pos,
            delta: nodes[i].score - parent.score,
        });
        i = e.parent;
    }
    steps.reverse();
    steps
}

/// Best-first order of nodes `a` and `b`: score descending, ties by
/// rendered text.
fn rank(nodes: &Nodes<'_>, a: usize, b: usize) -> std::cmp::Ordering {
    let (a, b) = (&nodes[a], &nodes[b]);
    b.score.total_cmp(&a.score).then_with(|| a.key.cmp(&b.key))
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

    let root: Rc<str> = Rc::from(render_input(scorer, creative));
    let mut seen: HashSet<Rc<str>> = HashSet::new();
    seen.insert(Rc::clone(&root));
    let mut nodes: Nodes<'a> = vec![Node {
        key: root,
        score: 0.0,
        edit: None,
    }];
    let mut beam: Vec<usize> = vec![0];
    let mut pool: Vec<usize> = Vec::new();
    let mut bufs = Buffers::default();

    for _ in 0..cfg.max_depth {
        let first_cand = nodes.len();
        for &parent in &beam {
            expand(table, cfg, parent, &mut nodes, &mut seen, &mut bufs);
        }
        if nodes.len() == first_cand {
            break;
        }

        // Score every candidate against the ORIGINAL creative, in
        // enumeration order; the original's preprocessing is shared across
        // the whole search by the scratch arena.
        for node in &mut nodes[first_cand..] {
            node.score = scorer.score_pair(&key_snippet(&node.key), creative, scratch);
        }

        let mut next: Vec<usize> = (first_cand..nodes.len()).collect();
        next.sort_by(|&a, &b| rank(&nodes, a, b));
        beam = next.iter().take(cfg.beam_width).copied().collect();
        pool.extend(next);
    }

    pool.sort_by(|&a, &b| rank(&nodes, a, b));
    pool.into_iter()
        .filter(|&i| nodes[i].score > cfg.min_gain)
        .take(cfg.top_k)
        .map(|i| Suggestion {
            creative: key_snippet(&nodes[i].key),
            score: nodes[i].score,
            steps: steps(&nodes, i),
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
    fn suggest_leaves_the_alignment_cache_empty() {
        // Every candidate pair is a first sighting, so the cache defers all
        // of them and captures nothing.
        let bundle = fixture();
        let scorer = bundle.scorer();
        let mut scratch = scorer.scratch();
        let creative = Snippet::from_lines(["book pricey flights"]);
        let out = suggest(&scorer, &creative, &SuggestConfig::default(), &mut scratch);
        assert!(!out.is_empty());
        assert_eq!(bundle.engine().align().entries(), 0);
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
