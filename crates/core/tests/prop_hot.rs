//! Property-based tests for the compiled hot-path scoring engine: the
//! precompiled feature table must agree with `StatsDb` lookup-for-lookup,
//! and the engine scorer (compiled table + snippet arena + alignment
//! cache) must be bit-identical to `ReferenceScorer` — the single-pair
//! featurizer path, formerly the legacy scorer — over arbitrary corpora,
//! models, fidelities, duplicate pairs, repeated batches, and hot reloads,
//! on independently drawn pairs and on pairs built by editing one creative.

mod edit_pairs;

use edit_pairs::{arb_edited, edited_pair, Edit};
use microbrowse_core::compiled::CompiledFeatureTable;
use microbrowse_core::features::{OwnedTermFeat, PositionVocab};
use microbrowse_core::paircache::PairKey;
use microbrowse_core::reference::ReferenceScorer;
use microbrowse_core::rewrite::{
    canonical_rewrite_key, greedy_candidate_score, is_canonical_order,
};
use microbrowse_core::serve::{DegradeReason, DeployedModel, Fidelity, ServingBundle};
use microbrowse_core::{ModelSpec, TrainedClassifier};
use microbrowse_ml::coupled::CoupledModel;
use microbrowse_ml::LogReg;
use microbrowse_store::key::SnippetPos;
use microbrowse_store::{FeatureKey, FeatureStat, StatsDb};
use microbrowse_text::Snippet;
use proptest::prelude::*;

/// A word-salad phrase over the same alphabet the snippet strategies use,
/// so random probe keys and random snippets actually collide with the
/// recorded statistics.
fn arb_phrase() -> impl Strategy<Value = String> {
    "[a-d]{1,3}( [a-d]{1,3}){0,1}"
}

fn arb_pos() -> impl Strategy<Value = (u8, u16)> {
    (0u8..4, 0u16..8)
}

/// Any feature key the scorer can probe: term, canonical rewrite, term
/// position, rewrite position.
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

/// A creative in wire form over the salad alphabet: 1 to 10 lines (so
/// sometimes more than `MAX_LINES`), some empty, each padded with
/// whitespace `str::trim` strips.
fn arb_wire_text() -> impl Strategy<Value = String> {
    let pad = "[ \t\u{a0}\u{3000}]{0,2}";
    let line = "([a-d]{1,3}( [a-d]{1,3}){0,3}){0,1}";
    prop::collection::vec((pad, line, pad), 1..11).prop_map(|lines| {
        let lines: Vec<String> = lines
            .into_iter()
            .map(|(lead, text, trail)| format!("{lead}{text}{trail}"))
            .collect();
        lines.join("|")
    })
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
    /// Every lookup the scorer can make against the compiled table returns
    /// exactly what `StatsDb` would: same hit/miss decisions, the same
    /// stat, and bit-identical precomputed log-odds.
    #[test]
    fn compiled_table_matches_statsdb(
        db in arb_stats(),
        probes in prop::collection::vec(arb_key(), 1..32),
    ) {
        let table = CompiledFeatureTable::compile(&db, &[]).expect("compile");
        prop_assert_eq!(table.len(), db.len());
        // Probe both recorded keys and random (mostly missing) keys.
        let recorded: Vec<FeatureKey> = db.iter().map(|(k, _)| k.clone()).collect();
        for key in recorded.iter().chain(probes.iter()) {
            prop_assert_eq!(table.get(key), db.get(key), "key {:?}", key);
            let expect = db.get(key).map_or(0.0, |s| s.log_odds(1.0));
            prop_assert_eq!(
                table.log_odds(key).to_bits(),
                expect.to_bits(),
                "log-odds for {:?}", key
            );
        }
    }

    /// Canonicalized greedy rewrite evidence through the compiled table's
    /// interned ids agrees bit-for-bit with the string path the reference
    /// extractor takes, and `lex_le` agrees with string canonical order.
    #[test]
    fn compiled_greedy_evidence_matches_string_path(
        db in arb_stats(),
        pairs in prop::collection::vec((arb_phrase(), arb_phrase()), 1..16),
    ) {
        let table = CompiledFeatureTable::compile(&db, &[]).expect("compile");
        for (a, b) in &pairs {
            let (Some(ia), Some(ib)) = (table.phrase_id(a), table.phrase_id(b)) else {
                continue; // phrase never recorded → reference evidence also misses
            };
            prop_assert_eq!(table.lex_le(ia, ib), a <= b);
            prop_assert_eq!(table.lex_le(ia, ib), is_canonical_order(a, b) || a == b);
            let expect = db.get(&canonical_rewrite_key(a, b)).map(greedy_candidate_score);
            let got = table.greedy_rewrite_score(ia, ib);
            prop_assert_eq!(
                got.map(f64::to_bits),
                expect.map(f64::to_bits),
                "greedy evidence for ({}, {})", a, b
            );
        }
    }

    /// The engine scorer behind `ServingBundle::scorer` is bit-identical
    /// to `ReferenceScorer` over random statistics — flat and coupled
    /// classifiers, full and degraded fidelity, independent and edit-built
    /// pairs, duplicate pairs in the batch, and three batches over the
    /// same scratch: the cache defers each alignment on its first miss,
    /// admits it on the second, and the third batch replays it.
    #[test]
    fn engine_scorer_bitwise_matches_legacy(
        db in arb_stats(),
        raw_pairs in prop::collection::vec((arb_snippet_lines(), arb_snippet_lines()), 1..4),
        edited in prop::collection::vec(arb_edited(), 1..4),
        dup_first in any::<bool>(),
    ) {
        let mut pairs: Vec<(Snippet, Snippet)> = raw_pairs
            .into_iter()
            .map(|(r, s)| (Snippet::from_lines(r), Snippet::from_lines(s)))
            .chain(edited.iter().map(|(r, edits)| edited_pair(r, edits, &db, &vocab())))
            .collect();
        if dup_first {
            let first = pairs[0].clone();
            pairs.push(first);
        }
        for model in [flat_model(), coupled_model()] {
            for fidelity in [
                Fidelity::Full,
                Fidelity::Degraded(DegradeReason::StatsMissing),
            ] {
                let mut reference = ReferenceScorer::from_parts(&model, &db, &fidelity);
                let serial: Vec<u64> = (0..3)
                    .flat_map(|_| pairs.iter().map(|(r, s)| {
                        reference.score_pair(r, s).to_bits()
                    }).collect::<Vec<_>>())
                    .collect();
                let bundle =
                    ServingBundle::from_parts(model.clone(), db.clone(), fidelity.clone())
                        .expect("bundle");
                let scorer = bundle.scorer();
                let mut scratch = scorer.scratch();
                // Three batches over one scratch: the third replays cached
                // alignments; scores must not move by a single bit.
                let mut engine: Vec<u64> = Vec::new();
                for pass in 0..3 {
                    if pass == 2 && scorer.effective_spec().rewrites {
                        prop_assert!(bundle.engine().align().entries() > 0);
                    }
                    engine.extend(scorer.score_batch(&pairs, &mut scratch).into_iter().map(f64::to_bits));
                }
                prop_assert_eq!(&serial, &engine, "spec {:?} fidelity {:?}", model.spec, fidelity);
            }
        }
    }

    /// The alignment cache is shared across worker scratches, so an entry
    /// warmed by one scratch must score bit-identically in another that met
    /// other snippets first. Scratch 2 scores the warmup pairs before the
    /// main pairs (independent and edit-built); the oracle is a
    /// `ReferenceScorer` driven through the exact same sequence.
    #[test]
    fn shared_cache_across_scratches_matches_legacy(
        db in arb_stats(),
        raw_warmup in prop::collection::vec((arb_snippet_lines(), arb_snippet_lines()), 0..3),
        raw_pairs in prop::collection::vec((arb_snippet_lines(), arb_snippet_lines()), 1..4),
        edited in prop::collection::vec(arb_edited(), 1..3),
    ) {
        let to_pairs = |raw: Vec<(Vec<String>, Vec<String>)>| -> Vec<(Snippet, Snippet)> {
            raw.into_iter()
                .map(|(r, s)| (Snippet::from_lines(r), Snippet::from_lines(s)))
                .collect()
        };
        let warmup = to_pairs(raw_warmup);
        let mut pairs = to_pairs(raw_pairs);
        pairs.extend(edited.iter().map(|(r, edits)| edited_pair(r, edits, &db, &vocab())));
        for model in [flat_model(), coupled_model()] {
            let bundle = ServingBundle::from_parts(model.clone(), db.clone(), Fidelity::Full)
                .expect("bundle");
            let scorer = bundle.scorer();
            // Scratch 1 warms the bundle-shared alignment cache: its first
            // pass is deferred, its second admits every alignment.
            let mut scratch1 = scorer.scratch();
            for _ in 0..2 {
                let _ = scorer.score_batch(&pairs, &mut scratch1);
            }
            prop_assert!(bundle.engine().align().entries() > 0);
            // Scratch 2 meets the warmup snippets first, then scores the
            // main pairs through cache hits inserted by scratch 1.
            let mut scratch2 = scorer.scratch();
            let _ = scorer.score_batch(&warmup, &mut scratch2);
            let engine: Vec<u64> = scorer
                .score_batch(&pairs, &mut scratch2)
                .into_iter()
                .map(f64::to_bits)
                .collect();
            let mut reference = ReferenceScorer::from_parts(&model, &db, &Fidelity::Full);
            for (r, s) in &warmup {
                let _ = reference.score_pair(r, s);
            }
            let expect: Vec<u64> = pairs
                .iter()
                .map(|(r, s)| reference.score_pair(r, s).to_bits())
                .collect();
            prop_assert_eq!(&expect, &engine, "spec {:?}", model.spec);
        }
    }

    /// A wire pair is keyed by its texts: two wire pairs key alike exactly
    /// when both texts are byte-equal — a padded spelling and its trimmed
    /// form key apart — and no wire pair keys like a `Snippet` pair, not
    /// even the snippets `Snippet::from_wire` builds from its texts.
    #[test]
    fn wire_keys_are_their_texts(a in arb_wire_text(), b in arb_wire_text()) {
        let texts = [
            Snippet::from_wire(&a).to_wire(),
            Snippet::from_wire(&b).to_wire(),
            a,
            b,
        ];
        let pairs: Vec<(&str, &str)> = texts
            .iter()
            .flat_map(|r| texts.iter().map(move |s| (r.as_str(), s.as_str())))
            .collect();
        let wire_keys: Vec<(Vec<u8>, (u64, u64))> = pairs
            .iter()
            .map(|&(r, s)| {
                let mut key = PairKey::default();
                let hashes = key.set(r, s);
                (key.pair().to_vec(), hashes)
            })
            .collect();
        let snippet_keys: Vec<Vec<u8>> = pairs
            .iter()
            .map(|&(r, s)| {
                let mut key = PairKey::default();
                key.set(&Snippet::from_wire(r), &Snippet::from_wire(s));
                key.pair().to_vec()
            })
            .collect();
        for (&(r1, s1), (k1, h1)) in pairs.iter().zip(&wire_keys) {
            for (&(r2, s2), (k2, h2)) in pairs.iter().zip(&wire_keys) {
                prop_assert_eq!(k1 == k2, r1 == r2 && s1 == s2, "{:?} / {:?}", (r1, s1), (r2, s2));
                if k1 == k2 {
                    prop_assert_eq!(h1, h2);
                }
            }
            prop_assert!(!snippet_keys.contains(k1), "{:?} keys like a Snippet pair", (r1, s1));
        }
    }

    /// A batch of wire texts scores bit for bit as `ReferenceScorer` scores
    /// the snippets `Snippet::from_wire` builds from them, flat and
    /// coupled, over three batches on one scratch (deferred, admitted,
    /// cached).
    #[test]
    fn wire_sides_score_as_their_snippets(
        db in arb_stats(),
        raw in prop::collection::vec((arb_wire_text(), arb_wire_text()), 1..4),
    ) {
        let wire: Vec<(&str, &str)> = raw.iter().map(|(r, s)| (r.as_str(), s.as_str())).collect();
        for model in [flat_model(), coupled_model()] {
            let mut reference = ReferenceScorer::from_parts(&model, &db, &Fidelity::Full);
            let want: Vec<u64> = raw
                .iter()
                .map(|(r, s)| {
                    reference
                        .score_pair(&Snippet::from_wire(r), &Snippet::from_wire(s))
                        .to_bits()
                })
                .collect();
            let bundle = ServingBundle::from_parts(model.clone(), db.clone(), Fidelity::Full)
                .expect("bundle");
            let scorer = bundle.scorer();
            let mut scratch = scorer.scratch();
            for pass in 0..3 {
                let got: Vec<u64> = scorer
                    .score_batch(&wire, &mut scratch)
                    .into_iter()
                    .map(f64::to_bits)
                    .collect();
                prop_assert_eq!(&got, &want, "spec {:?} pass {}", model.spec, pass);
            }
        }
    }

    /// Hot reload: scoring against a *new* bundle (different statistics)
    /// matches reference scoring against the new statistics — nothing cached
    /// under the old bundle leaks across the swap.
    #[test]
    fn hot_reload_swaps_engine_state(
        db1 in arb_stats(),
        db2 in arb_stats(),
        raw_pairs in prop::collection::vec((arb_snippet_lines(), arb_snippet_lines()), 1..3),
    ) {
        let pairs: Vec<(Snippet, Snippet)> = raw_pairs
            .into_iter()
            .map(|(r, s)| (Snippet::from_lines(r), Snippet::from_lines(s)))
            .collect();
        let model = flat_model();
        // Warm the first bundle's alignment cache (two passes: the cache
        // keeps a pair from its second miss on).
        let bundle1 = ServingBundle::from_parts(model.clone(), db1.clone(), Fidelity::Full)
            .expect("bundle");
        let scorer1 = bundle1.scorer();
        let mut scratch1 = scorer1.scratch();
        for _ in 0..2 {
            let _ = scorer1.score_batch(&pairs, &mut scratch1);
        }
        prop_assert!(bundle1.engine().align().entries() > 0);
        // Swap: a fresh bundle compiled from different statistics.
        let bundle2 = ServingBundle::from_parts(model.clone(), db2.clone(), Fidelity::Full)
            .expect("bundle");
        let scorer2 = bundle2.scorer();
        let mut scratch2 = scorer2.scratch();
        let swapped: Vec<u64> = scorer2
            .score_batch(&pairs, &mut scratch2)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        let mut reference = ReferenceScorer::from_parts(&model, &db2, &Fidelity::Full);
        let expect: Vec<u64> = pairs
            .iter()
            .map(|(r, s)| reference.score_pair(r, s).to_bits())
            .collect();
        prop_assert_eq!(&expect, &swapped);
    }
}

/// Deterministic regression for the cross-scratch orientation bug: the LCS
/// diff direction used to be decided by comparing `Sym` ids, which for
/// out-of-vocab tokens depend on each scratch's interning history. Scratch
/// A (which meets "xx" before "yy") warms the bundle-shared alignment
/// cache; scratch B (which meets "yy" first, via a warmup snippet) then
/// hits that entry. Before the fix the cached extraction replayed with
/// scratch A's orientation and scored differently than scratch B computing
/// fresh — and differently than the reference scorer.
#[test]
fn shared_align_cache_is_scratch_independent() {
    // Rewrites-only model: every feature flows from the LCS extraction, so
    // any orientation drift shows up directly in the score. The leftover of
    // the whole-span rewrite differs per orientation ("aa" vs "bb"), and the
    // two vocab terms carry distinct weights.
    let model = DeployedModel {
        spec: ModelSpec {
            name: "rewrites-only",
            terms: false,
            rewrites: true,
            positions: false,
            init_from_stats: false,
        },
        classifier: TrainedClassifier::Flat(LogReg::from_parts(vec![1.0, -2.0], 0.0)),
        vocab: vec![
            OwnedTermFeat::Term("aa".into()),
            OwnedTermFeat::Term("bb".into()),
        ],
    };
    let db = StatsDb::from_records(std::iter::empty());
    let r = Snippet::from_lines(["xx aa bb"]);
    let s = Snippet::from_lines(["yy bb aa"]);
    let warm = Snippet::from_lines(["yy"]);

    let bundle =
        ServingBundle::from_parts(model.clone(), db.clone(), Fidelity::Full).expect("bundle");
    let scorer = bundle.scorer();
    // Scratch A interns "xx" before "yy" and warms the shared cache (the
    // first miss is deferred, the second admitted).
    let mut scratch_a = scorer.scratch();
    let score_a = scorer.score_pair(&r, &s, &mut scratch_a);
    assert_eq!(
        scorer.score_pair(&r, &s, &mut scratch_a).to_bits(),
        score_a.to_bits()
    );
    assert!(bundle.engine().align().entries() > 0);
    // Scratch B interns "yy" first, so its id order for the out-of-vocab
    // tokens is reversed relative to scratch A. It then hits the cache
    // entry scratch A inserted.
    let mut scratch_b = scorer.scratch();
    let _ = scorer.score_pair(&warm, &warm, &mut scratch_b);
    let score_b = scorer.score_pair(&r, &s, &mut scratch_b);

    // Reference scorer driven through the same interning history as
    // scratch B.
    let mut reference = ReferenceScorer::from_parts(&model, &db, &Fidelity::Full);
    let _ = reference.score_pair(&warm, &warm);
    let expect_b = reference.score_pair(&r, &s);

    assert_eq!(score_b.to_bits(), expect_b.to_bits());
    // Orientation is a property of the pair, not of the scratch: both
    // scratches must agree bit-for-bit.
    assert_eq!(score_a.to_bits(), score_b.to_bits());
}

/// Side keys of a few thousand distinct creatives — edit-built variants of
/// a few bases, each as a `Snippet` and as its wire text — hash without a
/// collision.
#[test]
fn distinct_side_keys_hash_apart() {
    let bases: [&[&str]; 3] = [
        &["ab cd", "a b c d", "bc"],
        &["dd ca", "ab ab b", "c d a"],
        &["a", "b cd da", "cab"],
    ];
    let mut creatives: Vec<Snippet> = Vec::new();
    for base in bases {
        let r: Vec<String> = base.iter().map(|l| (*l).to_owned()).collect();
        for line in 0..3 {
            for at in 0..4 {
                for token in 0..100 {
                    let edit = Edit::Insert { line, at, token };
                    creatives.push(edited_pair(&r, &[edit], &StatsDb::new(), &vocab()).1);
                }
                for to in 0..4 {
                    let edit = Edit::Move {
                        line,
                        start: at,
                        len: 1,
                        to,
                    };
                    creatives.push(edited_pair(&r, &[edit], &StatsDb::new(), &vocab()).1);
                }
            }
        }
    }
    let mut seen: std::collections::HashMap<u64, Vec<u8>> = std::collections::HashMap::new();
    let mut side = |key: &PairKey, h: u64| {
        let prior = seen.entry(h).or_insert_with(|| key.r().to_vec());
        assert_eq!(prior.as_slice(), key.r(), "two side keys hash to {h:#x}");
    };
    let mut key = PairKey::default();
    for creative in &creatives {
        let (h, _) = key.set(creative, creative);
        side(&key, h);
        let wire = creative.to_wire();
        let (h, _) = key.set(wire.as_str(), wire.as_str());
        side(&key, h);
    }
    assert!(seen.len() > 5_000, "only {} distinct side keys", seen.len());
}
