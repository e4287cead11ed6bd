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

use std::collections::BTreeMap;

use microbrowse_api::v1::{FeedbackEvent, FeedbackRequest};
use microbrowse_core::{
    build_stats_from_corpus, AdCorpus, AdGroup, AdGroupId, Creative, CreativeId, PairFilter,
    Placement, StatsBuildConfig,
};
use microbrowse_store::StatsDb;
use microbrowse_text::Snippet;

/// Group raw feedback events into an [`AdCorpus`]: one adgroup per
/// distinct `adgroup` id (keyword = the query class), one creative per
/// distinct `creative` id with its impression/click counts summed.
/// Deterministic: adgroups and creatives come out in ascending-id order.
pub fn corpus_from_events<'a>(events: impl IntoIterator<Item = &'a FeedbackEvent>) -> AdCorpus {
    struct CreativeAcc {
        snippet: String,
        impressions: u64,
        clicks: u64,
    }
    let mut groups: BTreeMap<u64, (String, BTreeMap<u64, CreativeAcc>)> = BTreeMap::new();
    for ev in events {
        let (query_class, creatives) = groups
            .entry(ev.adgroup)
            .or_insert_with(|| (ev.query_class.clone(), BTreeMap::new()));
        if query_class.is_empty() && !ev.query_class.is_empty() {
            *query_class = ev.query_class.clone();
        }
        let acc = creatives.entry(ev.creative).or_insert_with(|| CreativeAcc {
            snippet: ev.snippet.clone(),
            impressions: 0,
            clicks: 0,
        });
        if !ev.snippet.is_empty() {
            acc.snippet = ev.snippet.clone();
        }
        acc.impressions += ev.impressions;
        acc.clicks += ev.clicks.min(ev.impressions);
    }

    let adgroups = groups
        .into_iter()
        .map(|(id, (keyword, creatives))| AdGroup {
            id: AdGroupId(id),
            keyword,
            placement: Placement::Top,
            creatives: creatives
                .into_iter()
                .map(|(cid, acc)| Creative {
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

/// Build the stats delta for one feedback batch: extract significant
/// pairs from the batch's own adgroups (default [`PairFilter`]) and run
/// the standard stats build over them. The result is a [`StatsDb`] of
/// pure count increments, ready to fold with [`StatsDb::merge`].
pub fn delta_from_batch(batch: &FeedbackRequest) -> StatsDb {
    let corpus = corpus_from_events(&batch.events);
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
        let corpus = corpus_from_events(&events);
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
        let corpus = corpus_from_events(&[ev(1, 10, "a|b", 10, 50)]);
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
