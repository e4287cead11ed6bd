//! The online learner: fold feedback into deltas, accumulate the online
//! pair corpus, and re-run the coupled-LR final fit on demand.
//!
//! [`OnlineLearner`] is the in-memory half of the subsystem. It holds the
//! batch-built base stats plus everything learned since: the folded delta
//! [`StatsDb`] and a per-creative impression/click accumulator (the online
//! corpus the refit trains on).
//! [`OnlineLearner::refit`] runs the training recipe `microbrowse train`
//! runs ([`TrainingSet::train`]) over the *folded* stats (base ⊕ delta),
//! so batch knowledge enters the fit through the stats-derived initial
//! weights, while the refit itself trains on the online pair window.
//!
//! Learner state serializes to opaque bytes ([`OnlineLearner::state_bytes`])
//! that ride the journal checkpoint, so a restart restores the learner
//! without replaying history beyond the uncheckpointed tail.

use microbrowse_api::v1::FeedbackRequest;
use microbrowse_core::classifier::TrainConfig;
use microbrowse_core::serve::DeployedModel;
use microbrowse_core::{AdCorpus, ModelSpec, TrainingSet};
use microbrowse_store::codec::{frame, get_bytes, get_varint, put_varint, unframe};
use microbrowse_store::{file, StatsDb};

use crate::delta::{delta_from_batch, FeedbackCorpus};
use crate::error::OnlineError;
use crate::journal::Recovery;

const STATE_MAGIC: &[u8; 8] = b"MBONLS0\0";
const STATE_VERSION: u32 = 1;

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
    feedback: FeedbackCorpus,
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
            feedback: FeedbackCorpus::default(),
            batches_folded: 0,
            events_folded: 0,
        }
    }

    /// Rebuild a learner from a journal's [`Recovery`]: a learner over
    /// `base_stats` refitting `spec`, its checkpointed state restored and
    /// the unfolded batches absorbed on top, in sequence order.
    pub fn recover(
        base_stats: StatsDb,
        spec: ModelSpec,
        recovery: &Recovery,
    ) -> Result<Self, OnlineError> {
        let mut learner = Self::new(base_stats, spec);
        if let Some(state) = &recovery.state {
            learner.restore_state(state)?;
        }
        for batch in &recovery.batches {
            learner.absorb(batch);
        }
        Ok(learner)
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
        self.feedback.absorb(&batch.events);
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
        self.feedback.corpus()
    }

    /// Re-run the coupled-LR final fit over the online pair window, with
    /// initial weights derived from the folded stats. Deterministic for a
    /// given learner state. Errors with [`OnlineError::NoPairs`] until the
    /// accumulator holds at least one significant pair.
    pub fn refit(&self) -> Result<RefitOutput, OnlineError> {
        let mut span = microbrowse_obs::trace::span("online.refit")
            .with("batches", self.batches_folded)
            .with("events", self.events_folded);
        let set = TrainingSet::from_corpus(&self.online_corpus());
        let pairs = set.pairs().len();
        span.add("pairs", pairs);
        if pairs == 0 {
            return Err(OnlineError::NoPairs);
        }
        let stats = self.folded_stats();
        // One thread: the refit runs beside the serving workers.
        let model = set.train(self.spec, &stats, &TrainConfig::default(), 1);
        Ok(RefitOutput {
            model,
            stats,
            pairs,
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
        self.feedback.write(&mut payload);
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
        let feedback = FeedbackCorpus::read(&mut buf)?;

        self.delta = delta;
        self.feedback = feedback;
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
    /// A fixed two-batch history: creative 70's snippet is empty in the
    /// first batch and arrives in the second, its first clicks exceed its
    /// impressions, and adgroup 7's query class arrives late.
    fn golden_history() -> [FeedbackRequest; 2] {
        let event = |adgroup, creative, snippet: &str, query_class: &str, impressions, clicks| {
            FeedbackEvent {
                adgroup,
                creative,
                snippet: snippet.to_string(),
                position: 1,
                query_class: query_class.to_string(),
                impressions,
                clicks,
            }
        };
        [
            FeedbackRequest {
                key: "golden-1".to_string(),
                events: vec![
                    event(7, 70, "", "", 150, 400),
                    event(7, 71, "cheap flights|book today", "", 3000, 450),
                ],
            },
            FeedbackRequest {
                key: "golden-2".to_string(),
                events: vec![
                    event(7, 70, "pricey flights|book today", "travel", 3000, 60),
                    event(7, 71, "", "travel", 1000, 150),
                    event(9, 90, "hotel deals", "hotels", 500, 700),
                ],
            },
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `state_bytes` of [`golden_history`], pinned: the checkpoint format
    /// the journal persists must not drift.
    const GOLDEN_STATE: &str = concat!(
        "4d424f4e4c5330000100000002056b4d42535441545300010000000a0004626f6f6b0001000a626f",
        "6f6b20746f64617900010007666c6967687473000100067072696365790001000e70726963657920",
        "666c696768747300010005746f64617900010200000002020001000102010000020201010001af7e",
        "276002070674726176656c02461970726963657920666c69676874737c626f6f6b20746f646179ce",
        "18d2014718636865617020666c69676874737c626f6f6b20746f646179a01fd8040906686f74656c",
        "73015a0b686f74656c206465616c73f403f403a26ae3ce",
    );

    #[test]
    fn state_bytes_are_pinned_and_restore_an_equal_learner() {
        let mut learner = OnlineLearner::new(StatsDb::new(), ModelSpec::m4());
        for batch in &golden_history() {
            learner.absorb(batch);
        }
        let corpus = learner.online_corpus();
        let g7 = &corpus.adgroups[0];
        assert_eq!(g7.keyword, "travel", "a late query class is taken");
        assert_eq!(
            g7.creatives[0].snippet.to_wire(),
            "pricey flights|book today"
        );
        assert_eq!(
            (g7.creatives[0].impressions, g7.creatives[0].clicks),
            (3150, 210),
            "clicks are clamped to each event's impressions"
        );
        assert_eq!(
            g7.creatives[1].snippet.to_wire(),
            "cheap flights|book today",
            "an empty snippet never replaces a known one"
        );
        assert_eq!(corpus.adgroups[1].creatives[0].clicks, 500);

        let bytes = learner.state_bytes();
        assert_eq!(hex(&bytes), GOLDEN_STATE);
        let mut restored = OnlineLearner::new(StatsDb::new(), ModelSpec::m4());
        restored.restore_state(&bytes).unwrap();
        assert_eq!(restored.state_bytes(), bytes);
        assert_eq!(
            restored.folded_stats().sorted_records(),
            learner.folded_stats().sorted_records()
        );
        assert_eq!(
            restored.refit().unwrap().model,
            learner.refit().unwrap().model
        );
    }

    #[test]
    fn recover_restores_the_checkpoint_then_absorbs_the_tail() {
        let [first, second] = golden_history();
        let mut checkpointed = OnlineLearner::new(StatsDb::new(), ModelSpec::m4());
        checkpointed.absorb(&first);
        let recovery = Recovery {
            state: Some(checkpointed.state_bytes()),
            batches: vec![second],
        };
        let recovered = OnlineLearner::recover(StatsDb::new(), ModelSpec::m4(), &recovery).unwrap();
        assert_eq!(hex(&recovered.state_bytes()), GOLDEN_STATE);

        let torn = Recovery {
            state: Some(checkpointed.state_bytes()[..8].to_vec()),
            batches: Vec::new(),
        };
        assert!(OnlineLearner::recover(StatsDb::new(), ModelSpec::m4(), &torn).is_err());
    }
}
