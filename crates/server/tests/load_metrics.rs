//! Load time is observable: every bundle load — the one at start and each
//! hot reload — is one observation of the `microbrowse_serve_load_us`
//! histogram, served on `/metrics`, and its `serve.load` span and the
//! `serve.reload` event carry it. The metric registry and trace sink are
//! process-global, so this is a test binary of its own.

use std::sync::Arc;
use std::time::{Duration, Instant};

use microbrowse_core::classifier::{ModelSpec, TrainedClassifier};
use microbrowse_core::features::OwnedTermFeat;
use microbrowse_core::serve::{DeployedModel, LoadPolicy, MODEL_SLOT_NAME, STATS_SLOT_NAME};
use microbrowse_obs::trace::{MemorySink, Value};
use microbrowse_server::client::Client;
use microbrowse_server::{start, BundleSource, ReloadSource, ServerConfig};
use microbrowse_store::{ArtifactSlot, FeatureKey, StatsDb};

fn commit_model(dir: &std::path::Path, weight: f64) -> u64 {
    DeployedModel {
        spec: ModelSpec::m1(),
        classifier: TrainedClassifier::Flat(microbrowse_ml::LogReg::from_parts(vec![weight], 0.0)),
        vocab: vec![OwnedTermFeat::Term("cheap".into())],
    }
    .commit_to_slot(&ArtifactSlot::new(dir, MODEL_SLOT_NAME))
    .expect("commit model")
}

#[test]
fn a_start_and_one_reload_are_two_load_observations() {
    let dir = std::env::temp_dir().join(format!("mb-load-metrics-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    commit_model(&dir, 1.0);
    let mut db = StatsDb::new();
    db.record(FeatureKey::term("cheap"), true);
    ArtifactSlot::new(&dir, STATS_SLOT_NAME)
        .commit(&microbrowse_store::file::to_bytes(&db))
        .expect("commit stats");
    let source = ReloadSource {
        model_path: dir.clone(),
        stats_path: Some(dir.clone()),
        policy: LoadPolicy::Strict,
    };
    let cfg = ServerConfig {
        reload_poll: Duration::from_millis(50),
        ..ServerConfig::default()
    };
    let sink = Arc::new(MemorySink::new());
    microbrowse_obs::trace::install_sink(sink.clone());
    let handle = start(cfg, BundleSource::Artifacts(source)).expect("start");
    let loads = microbrowse_obs::metrics::registry().histogram("microbrowse_serve_load_us");
    assert_eq!(loads.count(), 1, "the start is one load");

    commit_model(&dir, 2.0);
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.reloads() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(handle.reloads(), 1, "the new generation was never loaded");
    assert_eq!(loads.count(), 2, "a start and one reload are two loads");

    let mut c = Client::connect(handle.addr()).expect("connect");
    let metrics = c.get("/metrics").expect("metrics").body_str();
    assert!(
        metrics.contains("microbrowse_serve_load_us_count 2"),
        "{metrics}"
    );

    let field = |fields: &[(&'static str, Value)], key: &str| {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    let spans = sink.spans_named("serve.load");
    assert_eq!(spans.len(), 2, "{spans:?}");
    for span in &spans {
        assert_eq!(field(&span.fields, "records"), Some(Value::from(1u64)));
        assert_eq!(field(&span.fields, "phrases"), Some(Value::from(1u64)));
        assert!(field(&span.fields, "load_us").is_some(), "{span:?}");
    }
    let reloads = sink.events_named("serve.reload");
    assert_eq!(reloads.len(), 1, "{reloads:?}");
    assert!(
        field(&reloads[0].fields, "load_us").is_some(),
        "{reloads:?}"
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
