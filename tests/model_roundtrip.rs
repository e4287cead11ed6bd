//! Persistence fidelity of the full pipeline: a classifier trained on one
//! corpus, saved to disk, and reloaded in a "fresh process" (new interner,
//! new featurizer) must reproduce its predictions exactly.

use microbrowse_core::classifier::{ModelSpec, TrainConfig};
use microbrowse_core::reference::ReferenceScorer;
use microbrowse_core::serve::{DeployedModel, Fidelity, ServingBundle};
use microbrowse_core::statsbuild::TokenizedCorpus;
use microbrowse_core::{PairFilter, TrainingSet};
use microbrowse_store::{read_snapshot, write_snapshot};
use microbrowse_synth::{generate, GeneratorConfig};

fn train_deployed(spec: ModelSpec, seed: u64) -> (DeployedModel, microbrowse_store::StatsDb) {
    let synth = generate(&GeneratorConfig {
        num_adgroups: 250,
        seed,
        ..Default::default()
    });
    let set = TrainingSet::from_corpus(&synth.corpus);
    let stats = set.build_stats(&set.all(), 0);
    let model = set.train(spec, &stats, &TrainConfig::default(), 0);
    (model, stats)
}

fn probe_snippets() -> Vec<microbrowse_text::Snippet> {
    use microbrowse_text::Snippet;
    vec![
        Snippet::creative(
            "skyhop travel",
            "today save 20% for travelers flights to tokyo",
            "no reservation costs today more legroom",
        ),
        Snippet::creative(
            "skyhop travel",
            "today check availability for travelers flights to tokyo",
            "fees may apply today more legroom",
        ),
        Snippet::creative(
            "roomfinder",
            "tonight save big for families luxury hotels",
            "free breakfast tonight free cancellation",
        ),
        Snippet::creative(
            "roomfinder",
            "tonight see listings for families budget hotels",
            "paid parking tonight non refundable rates",
        ),
        Snippet::creative(
            "stride store",
            "save 30% today on running shoes",
            "free shipping today free returns",
        ),
    ]
}

fn roundtrip_predictions_agree(spec: ModelSpec) {
    let (model, stats) = train_deployed(spec, 777);

    // Round-trip both artifacts through real files.
    let dir =
        std::env::temp_dir().join(format!("mb-roundtrip-{}-{}", std::process::id(), spec.name));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.mbm");
    let stats_path = dir.join("stats.mbs");
    model.save(&model_path).expect("save model");
    write_snapshot(&stats, &stats_path).expect("save stats");

    let model2 = DeployedModel::load(&model_path).expect("load model");
    let stats2 = read_snapshot(&stats_path).expect("load stats");
    assert_eq!(
        model, model2,
        "model must survive the disk round trip bit-exactly"
    );

    // The in-process model scores through the reference featurizer path,
    // the reloaded artifacts through a serving bundle's engine: the two
    // must agree bit for bit.
    let mut live = ReferenceScorer::from_parts(&model, &stats, &Fidelity::Full);
    let bundle = ServingBundle::from_parts(model2, stats2, Fidelity::Full).expect("bundle");
    let reloaded = bundle.scorer();
    let mut reloaded_scratch = reloaded.scratch();
    let probes = probe_snippets();
    for (i, r) in probes.iter().enumerate() {
        for (j, s) in probes.iter().enumerate() {
            if i == j {
                continue;
            }
            let a = live.score_pair(r, s);
            let b = reloaded.score_pair(r, s, &mut reloaded_scratch);
            assert!(
                a.to_bits() == b.to_bits(),
                "{}: scores diverge after reload ({a} vs {b}) for pair {i},{j}",
                spec.name
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flat_model_survives_persistence() {
    roundtrip_predictions_agree(ModelSpec::m5());
}

#[test]
fn coupled_model_survives_persistence() {
    roundtrip_predictions_agree(ModelSpec::m4());
}

#[test]
fn deployed_model_transfers_to_unseen_corpus() {
    // The real adoption test: train on one synthetic market, score creatives
    // from a completely different draw, still beat chance clearly.
    let (model, stats) = train_deployed(ModelSpec::m4(), 778);
    let fresh = generate(&GeneratorConfig {
        num_adgroups: 150,
        seed: 999,
        ..Default::default()
    });
    let tc = TokenizedCorpus::build(&fresh.corpus);
    let pairs = fresh.corpus.extract_pairs(&PairFilter::default());
    let bundle = ServingBundle::from_parts(model, stats, Fidelity::Full).expect("bundle");
    let scorer = bundle.scorer();
    let mut scratch = scorer.scratch();
    let mut correct = 0;
    for p in &pairs {
        let r = tc.snippet(p.r).render(&tc.interner);
        let s = tc.snippet(p.s).render(&tc.interner);
        if scorer.predict_pair(&r, &s, &mut scratch) == p.r_better {
            correct += 1;
        }
    }
    let acc = correct as f64 / pairs.len().max(1) as f64;
    assert!(
        acc > 0.58,
        "transfer accuracy {acc:.3} on {} pairs",
        pairs.len()
    );
}
