//! Property-based tests for the generative surface: the suggestion beam
//! search must be deterministic no matter how many threads (each with its
//! own scratch) walk the same compiled bundle, and span attributions from
//! `explain_pair` must decompose the exact served score, which
//! `ReferenceScorer` reproduces bit for bit.

mod edit_pairs;

use edit_pairs::{arb_edited, edited_pair};
use microbrowse_core::explain::explain_pair;
use microbrowse_core::features::{OwnedTermFeat, PositionVocab};
use microbrowse_core::reference::ReferenceScorer;
use microbrowse_core::rewrite::canonical_rewrite_key;
use microbrowse_core::serve::{DegradeReason, DeployedModel, Fidelity, ServingBundle};
use microbrowse_core::suggest::{suggest, SuggestConfig, Suggestion};
use microbrowse_core::{ModelSpec, TrainedClassifier};
use microbrowse_ml::coupled::CoupledModel;
use microbrowse_ml::LogReg;
use microbrowse_store::key::SnippetPos;
use microbrowse_store::{FeatureKey, FeatureStat, StatsDb};
use microbrowse_text::Snippet;
use proptest::prelude::*;

/// A straightforward beam search — nodes hold per-token `Vec<Vec<String>>`
/// lines, and each depth is scored through one `score_batch` of cloned
/// pairs — kept as the oracle `suggest` must match suggestion for
/// suggestion.
mod oracle {
    use std::collections::HashSet;

    use microbrowse_core::compiled::RewriteNeighbor;
    use microbrowse_core::serve::{Scorer, Scratch};
    use microbrowse_core::suggest::{RewriteStep, SuggestConfig, Suggestion};
    use microbrowse_text::Snippet;

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
}

/// Word-salad phrases over a tiny alphabet so random snippets collide
/// with the recorded statistics (same shape as `prop_hot.rs`).
fn arb_phrase() -> impl Strategy<Value = String> {
    "[a-d]{1,3}( [a-d]{1,3}){0,1}"
}

fn arb_pos() -> impl Strategy<Value = (u8, u16)> {
    (0u8..4, 0u16..8)
}

/// Any feature key — rewrite keys included, so the beam has corpus
/// substitutions to propose.
fn arb_key() -> impl Strategy<Value = FeatureKey> {
    prop_oneof![
        arb_phrase().prop_map(FeatureKey::term),
        (arb_phrase(), arb_phrase()).prop_map(|(a, b)| canonical_rewrite_key(&a, &b)),
        arb_pos().prop_map(|(l, p)| FeatureKey::term_position(l, p)),
        (arb_pos(), arb_pos()).prop_map(|(f, t)| {
            FeatureKey::rewrite_position(
                SnippetPos {
                    line: f.0,
                    pos: f.1,
                },
                SnippetPos {
                    line: t.0,
                    pos: t.1,
                },
            )
        }),
    ]
}

fn arb_stats() -> impl Strategy<Value = StatsDb> {
    prop::collection::vec((arb_key(), 0u8..6, 0u8..6), 0..24).prop_map(|records| {
        StatsDb::from_records(records.into_iter().map(|(k, up, down)| {
            (
                k,
                FeatureStat {
                    up: up as u64,
                    down: down as u64,
                },
            )
        }))
    })
}

fn arb_snippet_lines() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-d]{1,3}( [a-d]{1,3}){0,5}", 1..3)
}

/// Creatives the tokenizer has work on: mixed case, punctuation, empty and
/// token-less lines, and no lines at all.
fn arb_raw_creative() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-dA-D!]{0,3}([ ,.!]{1,2}[a-dA-D]{1,3}){0,5}", 0..4)
}

/// Statistics whose rewrite partners include loosely spaced and blank
/// phrases, which the beam must re-tokenize (or skip) when splicing.
fn arb_loose_stats() -> impl Strategy<Value = StatsDb> {
    let loose = prop_oneof![
        arb_phrase(),
        "( ){0,1}[a-d]{1,3}( {1,2}[a-d]{1,3}){0,1}( ){0,1}",
        "( ){1,2}",
    ];
    let rewrite = (arb_phrase(), loose).prop_map(|(a, b)| canonical_rewrite_key(&a, &b));
    let key = prop_oneof![arb_key(), rewrite];
    prop::collection::vec((key, 0u8..6, 0u8..6), 0..24).prop_map(|records| {
        StatsDb::from_records(records.into_iter().map(|(k, up, down)| {
            (
                k,
                FeatureStat {
                    up: up as u64,
                    down: down as u64,
                },
            )
        }))
    })
}

/// A rewrite step with its delta as a bit pattern.
type StepBits = (String, String, u8, u16, u64);

/// A suggestion list with every float as its bit pattern, so equality is
/// bitwise.
fn bits(list: &[Suggestion]) -> Vec<(String, u64, Vec<StepBits>)> {
    list.iter()
        .map(|s| {
            (
                s.creative.to_string(),
                s.score.to_bits(),
                s.steps
                    .iter()
                    .map(|st| {
                        (
                            st.from.clone(),
                            st.to.clone(),
                            st.line,
                            st.pos,
                            st.delta.to_bits(),
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Vocabulary with term and rewrite features over the salad alphabet.
fn vocab() -> Vec<OwnedTermFeat> {
    vec![
        OwnedTermFeat::Term("a".into()),
        OwnedTermFeat::Term("b".into()),
        OwnedTermFeat::Term("ab".into()),
        OwnedTermFeat::Term("cd".into()),
        OwnedTermFeat::Rewrite("a".into(), "b".into()),
        OwnedTermFeat::Rewrite("ab".into(), "cd".into()),
    ]
}

fn flat_model() -> DeployedModel {
    let vocab = vocab();
    let weights = (0..vocab.len()).map(|i| 0.3 * i as f64 - 0.7).collect();
    DeployedModel {
        spec: ModelSpec::m5(),
        classifier: TrainedClassifier::Flat(LogReg::from_parts(weights, 0.1)),
        vocab,
    }
}

fn coupled_model() -> DeployedModel {
    let vocab = vocab();
    let terms = (0..vocab.len()).map(|i| 0.2 * i as f64 - 0.5).collect();
    let pos = (0..PositionVocab::num_groups() as usize)
        .map(|i| 1.0 - 0.1 * i as f64)
        .collect();
    DeployedModel {
        spec: ModelSpec::m4(),
        classifier: TrainedClassifier::Coupled(CoupledModel::from_parts(pos, terms, -0.2)),
        vocab,
    }
}

proptest! {
    /// The beam search is a pure function of (bundle, creative, config):
    /// fresh scratches, repeated calls on one warmed scratch, and
    /// concurrent threads each with their own scratch over the shared
    /// engine (whose alignment cache they race on) must all produce the
    /// identical suggestion list — same variants, same scores, same step
    /// order. The creative is drawn independently, and is also the S side
    /// of an edit-built pair whose R each non-reference scratch served
    /// first.
    #[test]
    fn suggest_deterministic_across_scratches(
        db in arb_stats(),
        lines in arb_snippet_lines(),
        edited in arb_edited(),
        beam_width in 1usize..6,
        max_depth in 1usize..3,
    ) {
        let cfg = SuggestConfig {
            beam_width,
            max_depth,
            ..SuggestConfig::default()
        };
        let (r, s) = edited_pair(&edited.0, &edited.1, &db, &vocab());
        for (creative, served) in [(Snippet::from_lines(lines), None), (s, Some(&r))] {
            let bundle = ServingBundle::from_parts(flat_model(), db.clone(), Fidelity::Full)
                .expect("bundle");
            let scorer = bundle.scorer();

            // Reference: a fresh scratch.
            let reference = suggest(&scorer, &creative, &cfg, &mut scorer.scratch());
            // A scratch that first served R, then the same scratch warmed
            // (the alignment cache now holds every pair the beam scored).
            let mut scratch = scorer.scratch();
            if let Some(r) = served {
                scorer.score_pair(r, &creative, &mut scratch);
            }
            let first = suggest(&scorer, &creative, &cfg, &mut scratch);
            prop_assert_eq!(&reference, &first, "scratch that served R diverged");
            let replay = suggest(&scorer, &creative, &cfg, &mut scratch);
            prop_assert_eq!(&reference, &replay, "warmed scratch diverged");

            // Concurrent threads, each with its own scratch, racing on the
            // shared alignment cache.
            let concurrent: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..3)
                    .map(|_| {
                        scope.spawn(|| {
                            let scorer = bundle.scorer();
                            let mut scratch = scorer.scratch();
                            if let Some(r) = served {
                                scorer.score_pair(r, &creative, &mut scratch);
                            }
                            suggest(&scorer, &creative, &cfg, &mut scratch)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("thread")).collect()
            });
            for (t, got) in concurrent.iter().enumerate() {
                prop_assert_eq!(&reference, got, "thread {} diverged", t);
            }
        }
    }

    /// `bias + Σ span contributions` recovers the served pair score for
    /// every model family and fidelity, the served score is the reference
    /// scorer's bit for bit, and every rewrite attribution carries the
    /// aligned S-side span — on an independently drawn pair and on one
    /// built by editing a creative.
    #[test]
    fn explain_sums_to_score(
        db in arb_stats(),
        r_lines in arb_snippet_lines(),
        s_lines in arb_snippet_lines(),
        edited in arb_edited(),
    ) {
        let independent = (Snippet::from_lines(r_lines), Snippet::from_lines(s_lines));
        let edited = edited_pair(&edited.0, &edited.1, &db, &vocab());
        for ((r, s), model) in [independent, edited]
            .iter()
            .flat_map(|pair| [(pair, flat_model()), (pair, coupled_model())])
        {
            for fidelity in [
                Fidelity::Full,
                Fidelity::Degraded(DegradeReason::StatsMissing),
            ] {
                let bundle =
                    ServingBundle::from_parts(model.clone(), db.clone(), fidelity.clone())
                        .expect("bundle");
                let scorer = bundle.scorer();
                let mut scratch = scorer.scratch();
                let exp = explain_pair(&scorer, r, s, &mut scratch);
                // The explanation reports the served score exactly, and
                // the served score is the reference scorer's.
                let served = scorer.score_pair(r, s, &mut scratch);
                prop_assert_eq!(exp.score.to_bits(), served.to_bits());
                let expected = ReferenceScorer::from_parts(&model, &db, &fidelity).score_pair(r, s);
                prop_assert_eq!(exp.score.to_bits(), expected.to_bits());
                // And decomposes it within float-summation tolerance.
                let sum: f64 =
                    exp.bias + exp.spans.iter().map(|a| a.contribution).sum::<f64>();
                prop_assert!(
                    (sum - exp.score).abs() <= 1e-9 * (1.0 + exp.score.abs()),
                    "bias + contributions = {} but served score = {}",
                    sum,
                    exp.score
                );
                for a in &exp.spans {
                    prop_assert_eq!(a.contribution.to_bits(), (a.value * a.weight).to_bits());
                    let is_rewrite = a.kind == microbrowse_core::explain::SpanKind::Rewrite;
                    prop_assert_eq!(a.to.is_some(), is_rewrite);
                    prop_assert_eq!(a.to_span.is_some(), is_rewrite);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The beam search returns exactly what the oracle returns
    /// — same variants, score bits and edit trails — for flat and coupled
    /// models, on fresh scratches and on a scratch whose pairs the oracle
    /// already scored once (so every alignment is admitted into the cache
    /// on this second sighting). The creative is drawn independently, and
    /// is also the S side of an edit-built pair, suggested on a scratch
    /// that first served its R.
    #[test]
    fn suggest_matches_oracle(
        db in arb_loose_stats(),
        lines in arb_raw_creative(),
        edited in arb_edited(),
        beam_width in 1usize..6,
        max_depth in 1usize..4,
        keep_all in any::<bool>(),
    ) {
        let cfg = SuggestConfig {
            beam_width,
            max_depth,
            top_k: if keep_all { 1000 } else { 5 },
            min_gain: if keep_all { f64::NEG_INFINITY } else { 0.0 },
            ..SuggestConfig::default()
        };
        let (r, s) = edited_pair(&edited.0, &edited.1, &db, &vocab());
        for (creative, served) in [(Snippet::from_lines(lines), None), (s, Some(&r))] {
            for model in [flat_model(), coupled_model()] {
                let fresh = ServingBundle::from_parts(model.clone(), db.clone(), Fidelity::Full)
                    .expect("bundle");
                let scorer = fresh.scorer();
                let mut scratch = scorer.scratch();
                if let Some(r) = served {
                    scorer.score_pair(r, &creative, &mut scratch);
                }
                let got = suggest(&scorer, &creative, &cfg, &mut scratch);

                let bundle = ServingBundle::from_parts(model, db.clone(), Fidelity::Full)
                    .expect("bundle");
                let scorer = bundle.scorer();
                let mut scratch = scorer.scratch();
                let expect = oracle::suggest(&scorer, &creative, &cfg, &mut scratch);
                prop_assert_eq!(bits(&got), bits(&expect));
                let second = suggest(&scorer, &creative, &cfg, &mut scratch);
                prop_assert_eq!(bits(&second), bits(&expect));
            }
        }
    }
}
