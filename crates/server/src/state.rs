//! Shared serving state and the hot-reload poller.
//!
//! The request path holds an `Arc<ServingBundle>` behind an `RwLock`; the
//! reload thread polls the artifact-slot manifests and, when a new
//! generation lands, loads it **off the request path** and atomically
//! swaps the `Arc` in. Workers notice via a monotonically increasing
//! epoch and rebuild their per-connection [`Scorer`](microbrowse_core::serve::Scorer)
//! (and its [`Scratch`](microbrowse_core::serve::Scratch)) over the new
//! bundle between requests — zero downtime, zero dropped requests. A failed reload keeps the old bundle serving and is reported
//! through the `serve.reload_failed` event / failure counter.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

use microbrowse_core::serve::{
    LoadPolicy, ScorerBuilder, ServingBundle, MODEL_SLOT_NAME, STATS_SLOT_NAME,
};
use microbrowse_obs as obs;
use microbrowse_store::ArtifactSlot;

/// The atomically swappable serving bundle plus its epoch.
pub struct ServeState {
    bundle: RwLock<Arc<ServingBundle>>,
    epoch: AtomicU64,
    reloads: AtomicU64,
}

impl ServeState {
    /// Start serving `bundle` at epoch 0.
    pub fn new(bundle: Arc<ServingBundle>) -> Self {
        Self {
            bundle: RwLock::new(bundle),
            epoch: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
        }
    }

    /// The bundle currently serving (cheap: one `Arc` clone under a read
    /// lock).
    pub fn current(&self) -> Arc<ServingBundle> {
        Arc::clone(&self.bundle.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The current epoch; bumped by every [`Self::install`].
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Completed hot reloads since start.
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// Swap in a replacement bundle; returns the new epoch.
    pub fn install(&self, bundle: Arc<ServingBundle>) -> u64 {
        *self.bundle.write().unwrap_or_else(PoisonError::into_inner) = bundle;
        self.reloads.fetch_add(1, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }
}

/// Where reloadable artifacts live. Hot reload only applies to slot
/// directories — plain files have no generation numbering to poll.
#[derive(Debug, Clone)]
pub struct ReloadSource {
    /// Model path (file or slot directory).
    pub model_path: PathBuf,
    /// Stats path (file or slot directory).
    pub stats_path: Option<PathBuf>,
    /// Load policy for reloads (same as the initial load).
    pub policy: LoadPolicy,
}

impl ReloadSource {
    /// Whether any artifact can actually change generations.
    pub fn reloadable(&self) -> bool {
        self.model_path.is_dir() || self.stats_path.as_deref().is_some_and(|p| p.is_dir())
    }

    /// The builder that performs (re)loads from this source.
    pub fn builder(&self) -> ScorerBuilder {
        let mut b = ScorerBuilder::new(&self.model_path).policy(self.policy);
        if let Some(stats) = &self.stats_path {
            b = b.stats_path(stats);
        }
        b
    }

    /// Newest committed generations per the slot manifests, `(model,
    /// stats)`. `None` for plain files or not-yet-committed slots.
    fn manifest_generations(&self) -> (Option<u64>, Option<u64>) {
        let model = self
            .model_path
            .is_dir()
            .then(|| ArtifactSlot::new(&self.model_path, MODEL_SLOT_NAME).manifest_generation())
            .flatten();
        let stats = self
            .stats_path
            .as_deref()
            .filter(|p| p.is_dir())
            .and_then(|p| ArtifactSlot::new(p, STATS_SLOT_NAME).manifest_generation());
        (model, stats)
    }
}

/// Poll `source` every `interval` until `stop` is set, hot-swapping
/// `state` whenever a newer generation is committed. Runs on a dedicated
/// thread; sleeps in small steps so shutdown is prompt.
pub fn reload_loop(
    state: &ServeState,
    source: &ReloadSource,
    interval: Duration,
    stop: &AtomicBool,
) {
    let step = Duration::from_millis(20).min(interval);
    while !stop.load(Ordering::Relaxed) {
        let mut slept = Duration::ZERO;
        while slept < interval && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(step);
            slept += step;
        }
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let current = state.current();
        let (model_gen, stats_gen) = source.manifest_generations();
        let model_newer = newer(model_gen, current.model_generation());
        let stats_newer = newer(stats_gen, current.stats_generation());
        if !model_newer && !stats_newer {
            continue;
        }
        let started = Instant::now();
        match source.builder().load_shared() {
            Ok(fresh) => {
                let load_us = started.elapsed().as_micros() as u64;
                let epoch = state.install(Arc::clone(&fresh));
                obs::counter!("microbrowse_serve_reloads_total").inc();
                obs::trace::event("serve.reload")
                    .with("epoch", epoch)
                    .with("load_us", load_us)
                    .with("model_generation", fresh.model_generation().unwrap_or(0))
                    .with("stats_generation", fresh.stats_generation().unwrap_or(0))
                    .with("degraded", fresh.fidelity().is_degraded());
            }
            Err(e) => {
                // Keep serving the old bundle; the failure is visible, not
                // fatal (the slot may be mid-commit or genuinely damaged).
                obs::counter!("microbrowse_serve_reload_failures_total").inc();
                obs::trace::event("serve.reload_failed").with("error", e.to_string());
            }
        }
    }
}

/// Is the manifest generation ahead of what the bundle serves?
fn newer(manifest: Option<u64>, serving: Option<u64>) -> bool {
    match (manifest, serving) {
        (Some(m), Some(s)) => m > s,
        // A slot appeared where the bundle had no generation (e.g. first
        // commit after starting degraded on an empty stats slot).
        (Some(_), None) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microbrowse_core::classifier::{ModelSpec, TrainedClassifier};
    use microbrowse_core::features::OwnedTermFeat;
    use microbrowse_core::serve::{DeployedModel, Fidelity};
    use microbrowse_store::StatsDb;

    fn bundle(weight: f64) -> Arc<ServingBundle> {
        let model = DeployedModel {
            spec: ModelSpec::m1(),
            classifier: TrainedClassifier::Flat(microbrowse_ml::LogReg::from_parts(
                vec![weight],
                0.0,
            )),
            vocab: vec![OwnedTermFeat::Term("cheap".into())],
        };
        Arc::new(ServingBundle::from_parts(model, StatsDb::new(), Fidelity::Full).expect("bundle"))
    }

    #[test]
    fn install_bumps_epoch_and_swaps() {
        let state = ServeState::new(bundle(1.0));
        assert_eq!(state.epoch(), 0);
        let fresh = bundle(2.0);
        assert_eq!(state.install(Arc::clone(&fresh)), 1);
        assert_eq!(state.epoch(), 1);
        assert_eq!(state.reloads(), 1);
        assert!(Arc::ptr_eq(&state.current(), &fresh));
    }

    #[test]
    fn newer_compares_generations() {
        assert!(newer(Some(2), Some(1)));
        assert!(!newer(Some(1), Some(1)));
        assert!(!newer(Some(1), Some(2)));
        assert!(newer(Some(1), None));
        assert!(!newer(None, Some(1)));
        assert!(!newer(None, None));
    }
}
