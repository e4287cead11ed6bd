//! The online learner: fold feedback into deltas, accumulate the online
//! pair corpus, and re-run the coupled-LR final fit on demand.
//!
//! [`OnlineLearner`] is the in-memory half of the subsystem. It holds the
//! batch-built base stats plus everything learned since: the folded delta
//! [`StatsDb`] and a per-creative impression/click accumulator (the online
//! corpus the refit trains on).
//! [`OnlineLearner::refit`] mirrors the batch `train` pipeline exactly —
//! featurizer over the *folded* stats (base ⊕ delta), so batch knowledge
//! enters the fit through the stats-derived initial weights, while the
//! logistic refit itself trains on the online pair window.
//!
//! Learner state serializes to opaque bytes ([`OnlineLearner::state_bytes`])
//! that ride the journal checkpoint, so a restart restores the learner
//! without replaying history beyond the uncheckpointed tail.

use std::collections::BTreeMap;

use microbrowse_api::v1::FeedbackRequest;
use microbrowse_core::classifier::TrainConfig;
use microbrowse_core::serve::DeployedModel;
use microbrowse_core::statsbuild::TokenizedCorpus;
use microbrowse_core::{
    AdCorpus, AdGroup, AdGroupId, Creative, CreativeId, Featurizer, ModelSpec, PairFilter,
    Placement, TrainedClassifier,
};
use microbrowse_store::codec::{
    frame, get_bytes, get_str, get_varint, put_str, put_varint, unframe,
};
use microbrowse_store::{file, StatsDb};
use microbrowse_text::Snippet;

use crate::delta::delta_from_batch;
use crate::error::OnlineError;

const STATE_MAGIC: &[u8; 8] = b"MBONLS0\0";
const STATE_VERSION: u32 = 1;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct CreativeAcc {
    snippet: String,
    impressions: u64,
    clicks: u64,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct AdGroupAcc {
    query_class: String,
    creatives: BTreeMap<u64, CreativeAcc>,
}

/// Everything a successful refit publishes.
#[derive(Debug)]
pub struct RefitOutput {
    /// The refit model, ready to commit to the model slot.
    pub model: DeployedModel,
    /// The folded stats (base ⊕ all deltas), ready to commit to the stats
    /// slot so degraded reloads and future featurizers see the increments.
    pub stats: StatsDb,
    /// Number of online pairs the final fit trained on.
    pub pairs: usize,
}

/// Accumulates feedback and refits the model on demand.
#[derive(Debug, Clone)]
pub struct OnlineLearner {
    base_stats: StatsDb,
    spec: ModelSpec,
    delta: StatsDb,
    adgroups: BTreeMap<u64, AdGroupAcc>,
    batches_folded: u64,
    events_folded: u64,
}

impl OnlineLearner {
    /// A learner over the batch-built `base_stats`, refitting variant `spec`.
    pub fn new(base_stats: StatsDb, spec: ModelSpec) -> Self {
        OnlineLearner {
            base_stats,
            spec,
            delta: StatsDb::new(),
            adgroups: BTreeMap::new(),
            batches_folded: 0,
            events_folded: 0,
        }
    }

    /// Number of feedback batches folded so far.
    pub fn batches_folded(&self) -> u64 {
        self.batches_folded
    }

    /// Number of feedback events folded so far.
    pub fn events_folded(&self) -> u64 {
        self.events_folded
    }

    /// Number of distinct feature keys in the folded delta.
    pub fn delta_features(&self) -> usize {
        self.delta.len()
    }

    /// Fold one feedback batch: delta increments into the delta layer,
    /// raw counts into the online corpus accumulator.
    pub fn absorb(&mut self, batch: &FeedbackRequest) {
        self.delta.merge(delta_from_batch(batch));
        for ev in &batch.events {
            let group = self.adgroups.entry(ev.adgroup).or_default();
            if group.query_class.is_empty() && !ev.query_class.is_empty() {
                group.query_class = ev.query_class.clone();
            }
            let acc = group.creatives.entry(ev.creative).or_default();
            if !ev.snippet.is_empty() {
                acc.snippet = ev.snippet.clone();
            }
            acc.impressions += ev.impressions;
            acc.clicks += ev.clicks.min(ev.impressions);
        }
        self.batches_folded += 1;
        self.events_folded += batch.events.len() as u64;
    }

    /// The stats the next generation serves: base ⊕ folded deltas.
    pub fn folded_stats(&self) -> StatsDb {
        let mut folded = self.base_stats.clone();
        folded.merge(self.delta.clone());
        folded
    }

    /// The online pair corpus accumulated so far, in deterministic order.
    pub fn online_corpus(&self) -> AdCorpus {
        let adgroups = self
            .adgroups
            .iter()
            .map(|(&id, group)| AdGroup {
                id: AdGroupId(id),
                keyword: group.query_class.clone(),
                placement: Placement::Top,
                creatives: group
                    .creatives
                    .iter()
                    .map(|(&cid, acc)| Creative {
                        id: CreativeId(cid),
                        snippet: Snippet::from_wire(&acc.snippet),
                        impressions: acc.impressions,
                        clicks: acc.clicks.min(acc.impressions),
                    })
                    .collect(),
            })
            .collect();
        AdCorpus { adgroups }
    }

    /// Re-run the coupled-LR final fit over the online pair window, with
    /// initial weights derived from the folded stats. Deterministic for a
    /// given learner state. Errors with [`OnlineError::NoPairs`] until the
    /// accumulator holds at least one significant pair.
    pub fn refit(&self) -> Result<RefitOutput, OnlineError> {
        let corpus = self.online_corpus();
        let pairs = corpus.extract_pairs(&PairFilter::default());
        if pairs.is_empty() {
            return Err(OnlineError::NoPairs);
        }
        let mut span = microbrowse_obs::trace::span("online.refit")
            .with("batches", self.batches_folded)
            .with("events", self.events_folded);
        span.add("pairs", pairs.len());

        let tc = TokenizedCorpus::build(&corpus);
        let stats = self.folded_stats();
        let cfg = TrainConfig::default();
        let mut interner = tc.interner.clone();
        let mut featurizer = Featurizer::new(self.spec, &stats);
        let tok_pairs: Vec<_> = pairs
            .iter()
            .map(|p| (tc.snippet(p.r).clone(), tc.snippet(p.s).clone(), p.r_better))
            .collect();
        let data = featurizer.encode_batch(&tok_pairs, &mut interner);
        let mut init_terms =
            featurizer.init_term_weights(&interner, cfg.stats_alpha, cfg.init_min_support);
        for w in &mut init_terms {
            *w *= cfg.init_scale;
        }
        let init_pos = featurizer.init_pos_weights(cfg.stats_alpha);
        let classifier =
            TrainedClassifier::train(&self.spec, &data, Some(init_terms), Some(init_pos), &cfg);
        let vocab = featurizer.export_vocab(&interner);
        Ok(RefitOutput {
            model: DeployedModel {
                spec: self.spec,
                classifier,
                vocab,
            },
            stats,
            pairs: tok_pairs.len(),
        })
    }

    /// Serialize the learned state (counters, delta, accumulator) — *not*
    /// the base stats or spec, which the caller restores from the artifact
    /// slots. Deterministic bytes for a given state.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_varint(&mut payload, self.batches_folded);
        put_varint(&mut payload, self.events_folded);
        let delta_bytes = file::to_bytes(&self.delta);
        put_varint(&mut payload, delta_bytes.len() as u64);
        payload.extend_from_slice(&delta_bytes);
        put_varint(&mut payload, self.adgroups.len() as u64);
        for (&id, group) in &self.adgroups {
            put_varint(&mut payload, id);
            put_str(&mut payload, &group.query_class);
            put_varint(&mut payload, group.creatives.len() as u64);
            for (&cid, acc) in &group.creatives {
                put_varint(&mut payload, cid);
                put_str(&mut payload, &acc.snippet);
                put_varint(&mut payload, acc.impressions);
                put_varint(&mut payload, acc.clicks);
            }
        }
        frame(STATE_MAGIC, STATE_VERSION, &payload)
    }

    /// Replace this learner's learned state with bytes from
    /// [`Self::state_bytes`] (base stats and spec are kept as constructed).
    /// Reading stops after the accumulator: older builds appended a
    /// position-class blob there, which is ignored.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), OnlineError> {
        let mut buf = unframe(STATE_MAGIC, STATE_VERSION, bytes)
            .map_err(|e| OnlineError::frame("learner state", e))?;
        let batches_folded = get_varint(&mut buf)?;
        let events_folded = get_varint(&mut buf)?;
        let delta_len = get_varint(&mut buf)? as usize;
        let delta_bytes =
            get_bytes(&mut buf, delta_len).map_err(|_| OnlineError::Truncated("learner state"))?;
        let delta = file::from_bytes(delta_bytes)?;
        let num_groups = get_varint(&mut buf)?;
        let mut adgroups = BTreeMap::new();
        for _ in 0..num_groups {
            let id = get_varint(&mut buf)?;
            let query_class = get_str(&mut buf)?;
            let num_creatives = get_varint(&mut buf)?;
            let mut creatives = BTreeMap::new();
            for _ in 0..num_creatives {
                let cid = get_varint(&mut buf)?;
                let snippet = get_str(&mut buf)?;
                let impressions = get_varint(&mut buf)?;
                let clicks = get_varint(&mut buf)?;
                creatives.insert(
                    cid,
                    CreativeAcc {
                        snippet,
                        impressions,
                        clicks,
                    },
                );
            }
            adgroups.insert(
                id,
                AdGroupAcc {
                    query_class,
                    creatives,
                },
            );
        }

        self.delta = delta;
        self.adgroups = adgroups;
        self.batches_folded = batches_folded;
        self.events_folded = events_folded;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microbrowse_api::v1::FeedbackEvent;

    fn ev(
        adgroup: u64,
        creative: u64,
        snippet: &str,
        impressions: u64,
        clicks: u64,
    ) -> FeedbackEvent {
        FeedbackEvent {
            adgroup,
            creative,
            snippet: snippet.to_string(),
            position: 1 + creative % 3,
            query_class: "travel".to_string(),
            impressions,
            clicks,
        }
    }

    fn batch(key: &str, adgroup: u64) -> FeedbackRequest {
        FeedbackRequest {
            key: key.to_string(),
            events: vec![
                ev(
                    adgroup,
                    adgroup * 10,
                    "cheap flights|book now today",
                    4000,
                    700,
                ),
                ev(
                    adgroup,
                    adgroup * 10 + 1,
                    "flights|standard fare terms",
                    4000,
                    90,
                ),
            ],
        }
    }

    #[test]
    fn state_round_trips_exactly() {
        let mut learner = OnlineLearner::new(StatsDb::new(), ModelSpec::m4());
        learner.absorb(&batch("k1", 1));
        learner.absorb(&batch("k2", 2));
        let bytes = learner.state_bytes();
        let mut restored = OnlineLearner::new(StatsDb::new(), ModelSpec::m4());
        restored.restore_state(&bytes).unwrap();
        assert_eq!(restored.batches_folded(), 2);
        assert_eq!(restored.events_folded(), 4);
        assert_eq!(restored.state_bytes(), bytes, "deterministic bytes");
        assert_eq!(
            restored.folded_stats().sorted_records(),
            learner.folded_stats().sorted_records()
        );
    }

    #[test]
    fn refit_errors_until_pairs_exist() {
        let learner = OnlineLearner::new(StatsDb::new(), ModelSpec::m4());
        assert!(matches!(learner.refit(), Err(OnlineError::NoPairs)));
    }

    #[test]
    fn refit_produces_model_after_feedback() {
        let mut learner = OnlineLearner::new(StatsDb::new(), ModelSpec::m4());
        for g in 1..=4 {
            learner.absorb(&batch(&format!("k{g}"), g));
        }
        let out = learner.refit().unwrap();
        assert!(out.pairs >= 1);
        assert!(!out.model.vocab.is_empty());
        assert!(!out.stats.is_empty());
    }
}
