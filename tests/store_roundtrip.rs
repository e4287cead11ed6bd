//! The feature statistics database survives a disk round-trip and drives
//! identical downstream behaviour afterwards.

use microbrowse_core::classifier::ModelSpec;
use microbrowse_core::features::Featurizer;
use microbrowse_core::statsbuild::{build_stats, StatsBuildConfig, TokenizedCorpus};
use microbrowse_core::PairFilter;
use microbrowse_store::{read_snapshot, write_snapshot};
use microbrowse_synth::{generate, GeneratorConfig};

#[test]
fn stats_db_round_trips_through_a_snapshot_file() {
    let synth = generate(&GeneratorConfig {
        num_adgroups: 120,
        seed: 201,
        ..Default::default()
    });
    let tc = TokenizedCorpus::build(&synth.corpus);
    let pairs = synth.corpus.extract_pairs(&PairFilter::default());
    let db = build_stats(&tc, &pairs, &StatsBuildConfig::default());
    assert!(db.len() > 100, "stats db suspiciously small: {}", db.len());

    let dir = std::env::temp_dir().join(format!("microbrowse-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("adcorpus.mbstats");

    write_snapshot(&db, &path).expect("write snapshot");
    let reloaded = read_snapshot(&path).expect("read snapshot");
    assert_eq!(db.sorted_records(), reloaded.sorted_records());

    // The reloaded database drives identical featurization + initialization.
    let spec = ModelSpec::m6();
    let tok_pairs: Vec<_> = pairs
        .iter()
        .take(50)
        .map(|p| (tc.snippet(p.r).clone(), tc.snippet(p.s).clone(), p.r_better))
        .collect();

    let featurize = |stats: &microbrowse_store::StatsDb| {
        let mut interner = tc.interner.clone();
        let mut fz = Featurizer::new(spec, stats);
        let examples: Vec<_> = tok_pairs
            .iter()
            .map(|(r, s, label)| fz.encode_coupled(r, s, *label, &mut interner))
            .collect();
        (examples, fz.init_term_weights(&interner, 1.0, 2))
    };
    assert_eq!(featurize(&db), featurize(&reloaded));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_detects_tampering() {
    let synth = generate(&GeneratorConfig {
        num_adgroups: 30,
        seed: 202,
        ..Default::default()
    });
    let tc = TokenizedCorpus::build(&synth.corpus);
    let pairs = synth.corpus.extract_pairs(&PairFilter::default());
    let db = build_stats(&tc, &pairs, &StatsBuildConfig::default());

    let mut bytes = microbrowse_store::file::to_bytes(&db);
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    assert!(
        microbrowse_store::file::from_bytes(&bytes).is_err(),
        "tampered snapshot must not load"
    );
}
