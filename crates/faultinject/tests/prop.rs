//! The resilience contract, enforced by exhaustive and randomized fault
//! injection:
//!
//! > loading a damaged artifact never panics and never silently succeeds
//! > with wrong data — it recovers the last good generation, returns a
//! > typed error, or serves in an explicitly degraded mode.
//!
//! Sweeps:
//! * truncation at **every** byte offset of a snapshot and a model;
//! * ≥1000 seeded random schedules mixing bit-flips, short reads, and
//!   injected IO errors;
//! * kill-during-write at every abort offset of a slot generation and of
//!   the slot manifest, asserting the previous good generation serves.

use std::io::Read;

use microbrowse_core::classifier::{ModelSpec, TrainedClassifier};
use microbrowse_core::features::OwnedTermFeat;
use microbrowse_core::serve::{DegradeReason, DeployedModel, Fidelity, LoadPolicy, ScorerBuilder};
use microbrowse_faultinject::{
    bit_flip, corrupt, truncate, write_killed_at, Fault, FaultPlan, FaultyReader, INJECTABLE_KINDS,
};
use microbrowse_store::file::{from_bytes, to_bytes};
use microbrowse_store::{ArtifactSlot, FeatureKey, StatsDb};
use proptest::prelude::*;

/// A stats snapshot with enough records that every codec path (varints,
/// strings, rewrite keys, counts) appears in the byte stream.
fn sample_stats() -> StatsDb {
    let mut db = StatsDb::new();
    for (i, term) in ["cheap", "fees", "save", "book", "flights"]
        .into_iter()
        .enumerate()
    {
        for _ in 0..=i {
            db.record(FeatureKey::term(term), i % 2 == 0);
        }
    }
    db.record(FeatureKey::rewrite("find cheap", "save 20%"), true);
    db.record(FeatureKey::rewrite("basic fare", "free bags"), false);
    db
}

fn sample_model() -> DeployedModel {
    DeployedModel {
        spec: ModelSpec::m5(),
        classifier: TrainedClassifier::Flat(microbrowse_ml::LogReg::from_parts(
            vec![1.5, -0.5, 0.25, 0.75],
            0.1,
        )),
        vocab: vec![
            OwnedTermFeat::Term("cheap".into()),
            OwnedTermFeat::Rewrite("find cheap".into(), "save 20%".into()),
            OwnedTermFeat::Term("fees".into()),
            OwnedTermFeat::Term("save".into()),
        ],
    }
}

/// Truncating a snapshot at any offset short of full length must yield a
/// typed error — never a panic, never a silently-loaded wrong snapshot.
#[test]
fn snapshot_truncation_at_every_offset() {
    let db = sample_stats();
    let bytes = to_bytes(&db);
    for cut in 0..bytes.len() {
        let torn = truncate(&bytes, cut);
        match from_bytes(&torn) {
            Ok(_) => panic!("truncation at {cut}/{} loaded successfully", bytes.len()),
            Err(e) => {
                let _ = e.to_string(); // rendering must not panic either
            }
        }
    }
    assert_eq!(from_bytes(&bytes).unwrap().len(), db.len());
}

#[test]
fn model_truncation_at_every_offset() {
    let model = sample_model();
    let bytes = model.to_bytes();
    for cut in 0..bytes.len() {
        let torn = truncate(&bytes, cut);
        match DeployedModel::from_bytes(&torn) {
            Ok(_) => panic!("truncation at {cut}/{} loaded successfully", bytes.len()),
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
    assert_eq!(DeployedModel::from_bytes(&bytes).unwrap(), model);
}

/// The same sweep through the streaming path: a `FaultyReader` truncating
/// at byte N behaves exactly like the pure-bytes cut.
#[test]
fn streamed_truncation_matches_pure_bytes() {
    let bytes = to_bytes(&sample_stats());
    for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
        let mut streamed = Vec::new();
        FaultyReader::new(
            bytes.as_slice(),
            FaultPlan::none().with(Fault::TruncateAt { offset: cut }),
        )
        .read_to_end(&mut streamed)
        .unwrap();
        assert_eq!(streamed, truncate(&bytes, cut));
        assert!(from_bytes(&streamed).is_err());
    }
}

/// ≥1000 random fault schedules against both artifact kinds: every load
/// either returns bytes identical to the originals (lossless schedules:
/// short reads only) and decodes to the original value, or fails with a
/// typed error. Nothing panics; nothing decodes to a different value.
#[test]
fn random_schedules_never_panic_or_corrupt_silently() {
    let db = sample_stats();
    let snap = to_bytes(&db);
    let model = sample_model();
    let mbytes = model.to_bytes();

    let mut lossless = 0usize;
    for seed in 0..1200u64 {
        let (original, is_model) = if seed % 2 == 0 {
            (&snap, false)
        } else {
            (&mbytes, true)
        };
        let plan = FaultPlan::random(seed, original.len());

        // Through the reader (faults can also fire as io::Errors here).
        let mut delivered = Vec::new();
        let read = FaultyReader::new(original.as_slice(), plan.clone()).read_to_end(&mut delivered);
        match read {
            Err(e) => assert!(
                INJECTABLE_KINDS.contains(&e.kind()),
                "unexpected kind {e:?} for seed {seed}"
            ),
            Ok(_) => {
                if is_model {
                    match DeployedModel::from_bytes(&delivered) {
                        Ok(m) => {
                            assert_eq!(m, model, "silent corruption, seed {seed}");
                            if !plan.is_lossy() {
                                lossless += 1;
                            }
                        }
                        Err(e) => {
                            let _ = e.to_string();
                        }
                    }
                } else {
                    match from_bytes(&delivered) {
                        Ok(got) => {
                            assert_eq!(got.len(), db.len(), "silent corruption, seed {seed}");
                            if !plan.is_lossy() {
                                lossless += 1;
                            }
                        }
                        Err(e) => {
                            let _ = e.to_string();
                        }
                    }
                }
            }
        }

        // And through the pure-bytes form, which must agree on lossiness.
        match corrupt(original, &plan) {
            Err(e) => assert!(INJECTABLE_KINDS.contains(&e.kind())),
            Ok(bytes) => {
                if !plan.is_lossy() {
                    assert_eq!(&bytes, original);
                }
            }
        }
    }
    // Sanity: the sweep exercised genuinely lossless schedules too.
    assert!(lossless > 0, "no lossless schedule in the sweep");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// A single bit flipped anywhere in a snapshot must be rejected: a
    /// successful load would have to reproduce the original data exactly,
    /// which a 1-bit flip (payload or trailer) cannot, so the CRC or a
    /// structural check fails every time.
    #[test]
    fn snapshot_single_bit_flip_always_detected(
        offset in 0usize..512,
        bit in 0u8..8,
    ) {
        let bytes = to_bytes(&sample_stats());
        let offset = offset % bytes.len();
        let flipped = bit_flip(&bytes, offset, 1 << bit);
        prop_assert!(
            from_bytes(&flipped).is_err(),
            "flip at {offset} bit {bit} went undetected"
        );
    }

    #[test]
    fn model_single_bit_flip_always_detected(
        offset in 0usize..512,
        bit in 0u8..8,
    ) {
        let bytes = sample_model().to_bytes();
        let offset = offset % bytes.len();
        let flipped = bit_flip(&bytes, offset, 1 << bit);
        prop_assert!(
            DeployedModel::from_bytes(&flipped).is_err(),
            "flip at {offset} bit {bit} went undetected"
        );
    }

    /// Short reads of any granularity are invisible to correct IO code.
    #[test]
    fn short_reads_never_harm(max in 1usize..9) {
        let bytes = to_bytes(&sample_stats());
        let mut delivered = Vec::new();
        FaultyReader::new(
            bytes.as_slice(),
            FaultPlan::none().with(Fault::ShortReads { max }),
        )
        .read_to_end(&mut delivered)
        .map_err(|e| e.to_string())?;
        prop_assert_eq!(&delivered, &bytes);
        prop_assert_eq!(from_bytes(&delivered).map_err(|e| e.to_string())?.len(), sample_stats().len());
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mbfi-prop-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Kill-during-write of generation 2 at *every* abort offset: the slot
/// must keep serving generation 1, byte-identical to what was committed.
#[test]
fn killed_generation_write_always_serves_previous_good() {
    let dir = tmp_dir("killgen");
    let slot = ArtifactSlot::new(&dir, "model.mbm");
    let model_v1 = sample_model();
    slot.commit(&model_v1.to_bytes()).unwrap();

    let mut model_v2 = sample_model();
    model_v2.vocab.push(OwnedTermFeat::Term("extra".into()));
    let v2_bytes = model_v2.to_bytes();
    let gen2 = slot.generation_path(2);

    for abort_at in (0..v2_bytes.len()).step_by(3) {
        write_killed_at(&gen2, &v2_bytes, abort_at).unwrap();
        let load = DeployedModel::load_from_slot(&slot)
            .unwrap_or_else(|e| panic!("abort at {abort_at}: {e}"));
        assert_eq!(load.generation, 1, "abort at {abort_at}");
        assert!(load.rolled_back, "abort at {abort_at}");
        assert_eq!(load.value, model_v1, "abort at {abort_at}");
        std::fs::remove_file(&gen2).unwrap();
    }

    // The full write (no kill) promotes generation 2 via the manifest.
    slot.commit(&v2_bytes).unwrap();
    let load = DeployedModel::load_from_slot(&slot).unwrap();
    assert_eq!((load.generation, load.rolled_back), (2, false));
    assert_eq!(load.value, model_v2);
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn *manifest* (killed while pointing the slot at a new generation)
/// must degrade to the directory scan and still find the newest valid
/// payload — never brick the slot.
#[test]
fn killed_manifest_write_never_bricks_the_slot() {
    let dir = tmp_dir("killman");
    let slot = ArtifactSlot::new(&dir, "stats.mbs");
    let db = sample_stats();
    slot.commit(&to_bytes(&db)).unwrap();

    let manifest_path = dir.join("stats.mbs.manifest");
    let good_manifest = std::fs::read(&manifest_path).unwrap();
    for abort_at in 0..good_manifest.len() {
        write_killed_at(&manifest_path, &good_manifest, abort_at).unwrap();
        let load = slot
            .load_with(from_bytes)
            .unwrap_or_else(|e| panic!("manifest abort at {abort_at}: {e}"));
        assert_eq!(load.generation, 1, "manifest abort at {abort_at}");
        assert_eq!(load.value.len(), db.len());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end outcome partition: for any random schedule applied to the
/// stats snapshot on disk, a `Degrade`-policy load lands in exactly one of
/// {full fidelity with original data, explicitly degraded}; a `Strict`
/// load lands in {full fidelity, typed error}. No fourth outcome exists.
#[test]
fn load_outcomes_partition_under_random_faults() {
    let dir = tmp_dir("outcomes");
    let model_path = dir.join("model.mbm");
    sample_model().save(&model_path).unwrap();
    let db = sample_stats();
    let snap = to_bytes(&db);
    let stats_path = dir.join("stats.mbs");

    let (mut full, mut degraded, mut strict_errors) = (0usize, 0usize, 0usize);
    for seed in 5000..5300u64 {
        let plan = FaultPlan::random(seed, snap.len());
        match corrupt(&snap, &plan) {
            // An injected IO error while producing the file: simulate by
            // writing nothing at all (the outage took the file with it).
            Err(_) => {
                std::fs::remove_file(&stats_path).ok();
            }
            Ok(bytes) => std::fs::write(&stats_path, &bytes).unwrap(),
        }

        let degrade = ScorerBuilder::new(&model_path)
            .stats_path(&stats_path)
            .policy(LoadPolicy::Degrade)
            .load()
            .expect("degrade policy never fails on stats damage");
        match degrade.fidelity() {
            Fidelity::Full => {
                assert_eq!(
                    degrade.stats().expect("stats").len(),
                    db.len(),
                    "seed {seed}"
                );
                full += 1;
            }
            Fidelity::Degraded(reason) => {
                assert!(
                    matches!(
                        reason,
                        DegradeReason::StatsMissing
                            | DegradeReason::StatsCorrupt(_)
                            | DegradeReason::StatsIo(_)
                    ),
                    "seed {seed}: {reason:?}"
                );
                degraded += 1;
            }
        }

        let strict = ScorerBuilder::new(&model_path)
            .stats_path(&stats_path)
            .policy(LoadPolicy::Strict)
            .load();
        match strict {
            Ok(bundle) => assert_eq!(bundle.fidelity(), &Fidelity::Full, "seed {seed}"),
            Err(e) => {
                let _ = e.to_string();
                strict_errors += 1;
            }
        }
    }
    assert!(full > 0, "sweep produced no intact snapshots");
    assert!(degraded > 0, "sweep produced no degraded loads");
    assert_eq!(
        degraded, strict_errors,
        "strict must error exactly when degrade degrades"
    );
    std::fs::remove_dir_all(&dir).ok();
}
