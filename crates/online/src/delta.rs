//! Incremental `StatsDelta` layer: feedback batches → pure count
//! increments over [`StatsDb`].
//!
//! The feature-statistics database stores raw positive/negative counts;
//! the Laplace-smoothed odds the featurizer derives from them are a pure
//! function of those counts. That makes a delta exactly another `StatsDb`:
//! build one from the batch's own pairwise evidence and fold it into the
//! base with [`StatsDb::merge`]. Addition of counts is associative and
//! commutative, so folding N batches one at a time or all at once yields
//! bit-identical databases — no rebuild, no approximation.
//!
//! One accumulator of feedback events (`FeedbackCorpus`) builds both a
//! batch's corpus for its delta and the learner's online pair corpus.

use std::collections::BTreeMap;

use microbrowse_api::v1::{FeedbackEvent, FeedbackRequest};
use microbrowse_core::{
    build_stats_from_corpus, AdCorpus, AdGroup, AdGroupId, Creative, CreativeId, PairFilter,
    Placement, StatsBuildConfig,
};
use microbrowse_store::codec::{get_str, get_varint, put_str, put_varint, DecodeError};
use microbrowse_store::StatsDb;
use microbrowse_text::Snippet;

/// Feedback events folded into per-creative counts: the one accumulator
/// behind a batch's stats delta ([`delta_from_batch`]) and the online
/// learner's pair corpus. Its rules:
///
/// * one adgroup per distinct `adgroup` id; its keyword is the first
///   non-empty query class seen;
/// * one creative per distinct `creative` id; its snippet is the last
///   non-empty one seen, and its impressions and clicks are summed with
///   each event's clicks clamped to that event's impressions.
#[derive(Debug, Clone, Default)]
pub(crate) struct FeedbackCorpus {
    adgroups: BTreeMap<u64, AdGroupAcc>,
}

#[derive(Debug, Clone, Default)]
struct AdGroupAcc {
    query_class: String,
    creatives: BTreeMap<u64, CreativeAcc>,
}

#[derive(Debug, Clone, Default)]
struct CreativeAcc {
    snippet: String,
    impressions: u64,
    clicks: u64,
}

impl FeedbackCorpus {
    /// Fold `events` in, in order.
    pub(crate) fn absorb<'a>(&mut self, events: impl IntoIterator<Item = &'a FeedbackEvent>) {
        for ev in events {
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
    }

    /// The accumulated [`AdCorpus`]. Deterministic: adgroups and creatives
    /// come out in ascending-id order.
    pub(crate) fn corpus(&self) -> AdCorpus {
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

    /// Append the counts to a learner checkpoint.
    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        put_varint(out, self.adgroups.len() as u64);
        for (&id, group) in &self.adgroups {
            put_varint(out, id);
            put_str(out, &group.query_class);
            put_varint(out, group.creatives.len() as u64);
            for (&cid, acc) in &group.creatives {
                put_varint(out, cid);
                put_str(out, &acc.snippet);
                put_varint(out, acc.impressions);
                put_varint(out, acc.clicks);
            }
        }
    }

    /// Read counts written by [`Self::write`], consuming them from `buf`.
    pub(crate) fn read(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let mut adgroups = BTreeMap::new();
        for _ in 0..get_varint(buf)? {
            let id = get_varint(buf)?;
            let query_class = get_str(buf)?;
            let mut creatives = BTreeMap::new();
            for _ in 0..get_varint(buf)? {
                let cid = get_varint(buf)?;
                let acc = CreativeAcc {
                    snippet: get_str(buf)?,
                    impressions: get_varint(buf)?,
                    clicks: get_varint(buf)?,
                };
                creatives.insert(cid, acc);
            }
            adgroups.insert(
                id,
                AdGroupAcc {
                    query_class,
                    creatives,
                },
            );
        }
        Ok(Self { adgroups })
    }
}

/// Build the stats delta for one feedback batch: extract significant
/// pairs from the batch's own adgroups (default [`PairFilter`]) and run
/// the standard stats build over them. The result is a [`StatsDb`] of
/// pure count increments, ready to fold with [`StatsDb::merge`].
pub fn delta_from_batch(batch: &FeedbackRequest) -> StatsDb {
    let mut feedback = FeedbackCorpus::default();
    feedback.absorb(&batch.events);
    let corpus = feedback.corpus();
    let cfg = StatsBuildConfig {
        threads: 1,
        ..StatsBuildConfig::default()
    };
    let (_tc, _pairs, delta) = build_stats_from_corpus(&corpus, &PairFilter::default(), &cfg);
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

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
            position: 1,
            query_class: "travel".to_string(),
            impressions,
            clicks,
        }
    }

    #[test]
    fn corpus_groups_and_sums() {
        let events = vec![
            ev(1, 10, "cheap flights|book now", 500, 40),
            ev(1, 10, "cheap flights|book now", 300, 20),
            ev(1, 11, "flights|terms apply", 800, 10),
            ev(2, 20, "hotel deals|save big", 400, 30),
        ];
        let mut feedback = FeedbackCorpus::default();
        feedback.absorb(&events);
        let corpus = feedback.corpus();
        assert_eq!(corpus.adgroups.len(), 2);
        let g1 = &corpus.adgroups[0];
        assert_eq!(g1.id.0, 1);
        assert_eq!(g1.keyword, "travel");
        assert_eq!(g1.creatives.len(), 2);
        assert_eq!(g1.creatives[0].impressions, 800);
        assert_eq!(g1.creatives[0].clicks, 60);
    }

    #[test]
    fn clicks_clamped_to_impressions() {
        let mut feedback = FeedbackCorpus::default();
        feedback.absorb(&[ev(1, 10, "a|b", 10, 50)]);
        let corpus = feedback.corpus();
        assert!(corpus.adgroups[0].creatives[0].clicks <= 10);
    }

    #[test]
    fn significant_batch_yields_nonempty_delta() {
        let batch = FeedbackRequest {
            key: "k".to_string(),
            events: vec![
                ev(1, 10, "cheap flights|book now today", 5000, 900),
                ev(1, 11, "flights|standard fare terms", 5000, 100),
            ],
        };
        let delta = delta_from_batch(&batch);
        assert!(!delta.is_empty(), "clear CTR gap must produce increments");
    }

    #[test]
    fn insignificant_batch_yields_empty_delta() {
        let batch = FeedbackRequest {
            key: "k".to_string(),
            events: vec![
                ev(1, 10, "cheap flights|book now", 50, 5),
                ev(1, 11, "flights|terms", 50, 5),
            ],
        };
        assert!(delta_from_batch(&batch).is_empty());
    }
}
