//! Loading a bundle from a snapshot's bytes: the engine a load compiles
//! from a stats slot equals the one `ServingBundle::from_parts` and a
//! direct compile of the database build (entries, phrase ids, lexicographic
//! ranks, rewrite adjacency, weight indices, scores bit for bit); the
//! bundle decodes the database it was compiled from on demand; and a
//! snapshot whose keys do not strictly increase fails the load, or rolls a
//! slot back, exactly as a CRC failure does.

mod edit_pairs;

use edit_pairs::{arb_edited, edited_pair};
use microbrowse_core::compiled::CompiledFeatureTable;
use microbrowse_core::features::{OwnedTermFeat, PositionVocab, TermFeat};
use microbrowse_core::serve::{
    DeployedModel, Fidelity, LoadPolicy, ScorerBuilder, ServingBundle, MODEL_SLOT_NAME,
    STATS_SLOT_NAME,
};
use microbrowse_core::{MbError, ModelSpec, TrainedClassifier};
use microbrowse_ml::coupled::CoupledModel;
use microbrowse_ml::LogReg;
use microbrowse_store::key::SnippetPos;
use microbrowse_store::{codec, crc, file};
use microbrowse_store::{ArtifactSlot, FeatureKey, FeatureStat, SnapshotError, StatsDb};
use microbrowse_text::Sym;
use proptest::prelude::*;

fn arb_phrase() -> impl Strategy<Value = String> {
    "[a-d]{1,3}( [a-d]{1,3}){0,1}"
}

fn arb_pos() -> impl Strategy<Value = SnippetPos> {
    (0u8..4, 0u16..8).prop_map(|(line, pos)| SnippetPos { line, pos })
}

fn arb_key() -> impl Strategy<Value = FeatureKey> {
    prop_oneof![
        arb_phrase().prop_map(FeatureKey::term),
        (arb_phrase(), arb_phrase()).prop_map(|(a, b)| FeatureKey::rewrite(a, b)),
        arb_pos().prop_map(FeatureKey::TermPosition),
        (arb_pos(), arb_pos()).prop_map(|(f, t)| FeatureKey::rewrite_position(f, t)),
    ]
}

fn arb_stats() -> impl Strategy<Value = StatsDb> {
    prop::collection::vec((arb_key(), 0u64..6, 0u64..6), 0..40).prop_map(|records| {
        StatsDb::from_records(
            records
                .into_iter()
                .map(|(k, up, down)| (k, FeatureStat { up, down })),
        )
    })
}

/// A vocabulary over the same phrases, duplicates and vocabulary-only
/// phrases included.
fn arb_vocab() -> impl Strategy<Value = Vec<OwnedTermFeat>> {
    let feat = prop_oneof![
        arb_phrase().prop_map(OwnedTermFeat::Term),
        ("[a-e]{1,3}", arb_phrase()).prop_map(|(a, b)| OwnedTermFeat::Rewrite(a, b)),
    ];
    prop::collection::vec(feat, 0..12)
}

fn model(vocab: Vec<OwnedTermFeat>, coupled: bool) -> DeployedModel {
    let weights: Vec<f64> = (0..vocab.len()).map(|i| 0.3 * i as f64 - 0.7).collect();
    if coupled {
        let pos = (0..PositionVocab::num_groups() as usize)
            .map(|i| 1.0 - 0.1 * i as f64)
            .collect();
        DeployedModel {
            spec: ModelSpec::m6(),
            classifier: TrainedClassifier::Coupled(CoupledModel::from_parts(pos, weights, -0.2)),
            vocab,
        }
    } else {
        DeployedModel {
            spec: ModelSpec::m5(),
            classifier: TrainedClassifier::Flat(LogReg::from_parts(weights, 0.1)),
            vocab,
        }
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mb-snapshot-load-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A snapshot holding exactly `keys`, in the order given, under a valid
/// CRC: what a foreign or crafted writer could leave in a slot.
fn snapshot_of(keys: &[FeatureKey]) -> Vec<u8> {
    let mut payload = Vec::new();
    codec::put_varint(&mut payload, keys.len() as u64);
    for key in keys {
        codec::put_record(
            &mut payload,
            key.as_key_ref(),
            &FeatureStat { up: 3, down: 1 },
        );
    }
    let mut out = b"MBSTATS\0".to_vec();
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc::crc32(&payload).to_le_bytes());
    out
}

/// Every observable of two compiled tables agrees: record count, phrase
/// ids and strings, greedy rewrite evidence for every id pair, rewrite
/// adjacency, and the weight index of every vocabulary feature.
fn assert_same_table(
    a: &CompiledFeatureTable,
    b: &CompiledFeatureTable,
    vocab: &[OwnedTermFeat],
) -> Result<(), String> {
    prop_assert_eq!(a.len(), b.len());
    prop_assert_eq!(a.num_phrases(), b.num_phrases());
    let n = a.num_phrases() as u32;
    for id in 0..n {
        prop_assert_eq!(a.resolve_phrase(id), b.resolve_phrase(id));
        prop_assert_eq!(a.rewrite_neighbors(id), b.rewrite_neighbors(id));
        for other in 0..n {
            prop_assert_eq!(
                a.greedy_rewrite_score(id, other).map(f64::to_bits),
                b.greedy_rewrite_score(id, other).map(f64::to_bits)
            );
        }
    }
    let id = |t: &CompiledFeatureTable, p: &str| Sym(t.phrase_id(p).unwrap_or(u32::MAX));
    for feat in vocab {
        let (fa, fb) = match feat {
            OwnedTermFeat::Term(p) => (TermFeat::Term(id(a, p)), TermFeat::Term(id(b, p))),
            OwnedTermFeat::Rewrite(x, y) => (
                TermFeat::Rewrite(id(a, x), id(a, y)),
                TermFeat::Rewrite(id(b, x), id(b, y)),
            ),
        };
        prop_assert_eq!(a.weight_index(fa), b.weight_index(fb), "{:?}", feat);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A bundle loaded from slots holding `to_bytes(db)` and the model is
    /// the bundle `from_parts(model, db)` builds and compiles the table a
    /// direct compile of `db` does, and its scorer is bit-identical on
    /// edit-built pairs.
    #[test]
    fn a_loaded_bundle_equals_from_parts(
        db in arb_stats(),
        vocab in arb_vocab(),
        coupled in any::<bool>(),
        pairs in prop::collection::vec(arb_edited(), 1..6),
    ) {
        let m = model(vocab.clone(), coupled);
        let dir = tmp_dir("equal");
        m.commit_to_slot(&ArtifactSlot::new(&dir, MODEL_SLOT_NAME)).expect("commit model");
        ArtifactSlot::new(&dir, STATS_SLOT_NAME)
            .commit(&file::to_bytes(&db))
            .expect("commit stats");
        let loaded = ScorerBuilder::new(&dir).stats_path(&dir).load().expect("load");
        std::fs::remove_dir_all(&dir).ok();
        let parts = ServingBundle::from_parts(m.clone(), db.clone(), Fidelity::Full)
            .expect("from parts");
        let direct = CompiledFeatureTable::compile(&db, &vocab).expect("compile");

        assert_same_table(loaded.engine().table(), parts.engine().table(), &vocab)?;
        assert_same_table(loaded.engine().table(), &direct, &vocab)?;
        prop_assert_eq!(
            loaded.stats().expect("stats").sorted_records(),
            db.sorted_records()
        );

        let (a, b) = (loaded.scorer(), parts.scorer());
        let (mut sa, mut sb) = (a.scratch(), b.scratch());
        for (lines, edits) in &pairs {
            let (r, s) = edited_pair(lines, edits, &db, &vocab);
            for (x, y) in [(&r, &s), (&s, &r)] {
                prop_assert_eq!(
                    a.score_pair(x, y, &mut sa).to_bits(),
                    b.score_pair(x, y, &mut sb).to_bits()
                );
            }
        }
    }
}

fn sample_db() -> StatsDb {
    let mut db = StatsDb::new();
    db.record(FeatureKey::term("cheap"), true);
    db.record(FeatureKey::rewrite("cheap", "discount"), true);
    db.record(FeatureKey::term_position(0, 1), false);
    db
}

#[test]
fn stats_decodes_what_was_written_and_is_empty_when_degraded() {
    let db = sample_db();
    let dir = tmp_dir("stats");
    let m = model(vec![OwnedTermFeat::Term("cheap".into())], false);
    m.commit_to_slot(&ArtifactSlot::new(&dir, MODEL_SLOT_NAME))
        .expect("commit model");
    ArtifactSlot::new(&dir, STATS_SLOT_NAME)
        .commit(&file::to_bytes(&db))
        .expect("commit stats");
    let full = ScorerBuilder::new(&dir)
        .stats_path(&dir)
        .load()
        .expect("load");
    assert_eq!(
        full.stats().expect("stats").sorted_records(),
        db.sorted_records()
    );
    let parts = ServingBundle::from_parts(m, db.clone(), Fidelity::Full).expect("parts");
    assert_eq!(
        parts.stats().expect("stats").sorted_records(),
        db.sorted_records()
    );
    let degraded = ScorerBuilder::new(&dir)
        .policy(LoadPolicy::Degrade)
        .load()
        .expect("degraded load");
    assert!(degraded.fidelity().is_degraded());
    assert!(degraded.stats().expect("stats").is_empty());
    assert!(degraded.engine().table().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unordered_snapshot_fails_the_load_like_a_crc_failure() {
    let dir = tmp_dir("order");
    let model_path = dir.join("model.mbm");
    let stats_path = dir.join("stats.mbs");
    model(vec![OwnedTermFeat::Term("cheap".into())], false)
        .save(&model_path)
        .expect("save model");
    let repeated = [FeatureKey::term("a"), FeatureKey::term("a")];
    let descending = [FeatureKey::term("b"), FeatureKey::term("a")];
    for (keys, record) in [(&repeated, 1), (&descending, 1)] {
        std::fs::write(&stats_path, snapshot_of(keys)).expect("write stats");
        match ScorerBuilder::new(&model_path)
            .stats_path(&stats_path)
            .load()
        {
            Err(MbError::Stats {
                source: SnapshotError::KeyOrder { record: r },
                ..
            }) => assert_eq!(r, record),
            other => panic!("expected a key-order failure, got {other:?}"),
        }
        let degraded = ScorerBuilder::new(&model_path)
            .stats_path(&stats_path)
            .policy(LoadPolicy::Degrade)
            .load()
            .expect("degrade");
        assert!(
            degraded.fidelity().to_string().contains("out of key order"),
            "{}",
            degraded.fidelity()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_slot_rolls_back_past_an_unordered_generation() {
    let db = sample_db();
    let dir = tmp_dir("rollback");
    model(vec![OwnedTermFeat::Term("cheap".into())], false)
        .commit_to_slot(&ArtifactSlot::new(&dir, MODEL_SLOT_NAME))
        .expect("commit model");
    let stats = ArtifactSlot::new(&dir, STATS_SLOT_NAME);
    let good = stats.commit(&file::to_bytes(&db)).expect("good generation");
    let bad = stats
        .commit(&snapshot_of(&[
            FeatureKey::term("b"),
            FeatureKey::term("a"),
        ]))
        .expect("bad generation");
    assert!(bad > good);
    let bundle = ScorerBuilder::new(&dir)
        .stats_path(&dir)
        .load()
        .expect("rolled back");
    assert_eq!(bundle.stats_generation(), Some(good));
    assert!(!bundle.fidelity().is_degraded());
    assert_eq!(
        bundle.stats().expect("stats").sorted_records(),
        db.sorted_records()
    );
    std::fs::remove_dir_all(&dir).ok();
}
