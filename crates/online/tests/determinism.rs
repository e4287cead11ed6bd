//! Delta folding is exact: counts are associative and commutative, so the
//! order in which feedback batches are folded — one at a time as they
//! arrive, or all at once on replay — can never change the statistics,
//! and therefore never change the refit model's scores. This is the
//! property that makes crash recovery safe: a replayed journal folds the
//! same batches in the same aggregate, regardless of how the original
//! process interleaved them with refits.

use microbrowse_api::v1::{FeedbackEvent, FeedbackRequest};
use microbrowse_core::serve::{Fidelity, ServingBundle};
use microbrowse_core::ModelSpec;
use microbrowse_online::{delta_from_batch, OnlineLearner, RefitOutput};
use microbrowse_store::StatsDb;
use microbrowse_text::Snippet;
use proptest::prelude::*;

/// A small shared vocabulary so random batches collide on features (the
/// interesting case for merge).
const TEXTS: &[&str] = &[
    "cheap flights | book today | trusted airline",
    "cheap flights | pay at gate | trusted airline",
    "best hotels | free cancellation | city centre",
    "best hotels | no refunds | city centre",
    "running shoes | free shipping | all sizes",
    "running shoes | 2-day delivery | all sizes",
    "car insurance | get a free quote | save 20%",
    "car insurance | call an agent | save 20%",
];

const CLASSES: &[&str] = &["travel", "shoes", "insurance"];

fn event_strategy() -> impl Strategy<Value = FeedbackEvent> {
    (
        0u64..6,
        0u64..4,
        0usize..TEXTS.len(),
        0usize..CLASSES.len(),
        500u64..5000,
        0u64..95,
    )
        .prop_map(|(g, c, t, q, impressions, ctr_pct)| FeedbackEvent {
            adgroup: g,
            creative: g * 16 + c,
            snippet: TEXTS[t].to_string(),
            position: c,
            query_class: CLASSES[q].to_string(),
            impressions,
            clicks: impressions * ctr_pct / 100,
        })
}

proptest! {
    /// Fold N batch deltas one at a time vs pre-merged all at once (in
    /// reverse order, for good measure): the resulting statistics must be
    /// bit-identical, down to every count of every feature record.
    #[test]
    fn fold_order_never_changes_the_counts(
        batches in proptest::collection::vec(
            proptest::collection::vec(event_strategy(), 1..12),
            1..8,
        ),
    ) {
        let reqs: Vec<FeedbackRequest> = batches
            .into_iter()
            .enumerate()
            .map(|(i, events)| FeedbackRequest { key: format!("k{i}"), events })
            .collect();

        // One at a time, arrival order.
        let mut one = StatsDb::new();
        for r in &reqs {
            one.merge(delta_from_batch(r));
        }
        // All at once: pre-merge every delta (reversed), fold the
        // aggregate in a single merge.
        let mut all = StatsDb::new();
        for r in reqs.iter().rev() {
            all.merge(delta_from_batch(r));
        }
        let mut folded = StatsDb::new();
        folded.merge(all);

        prop_assert_eq!(one.sorted_records(), folded.sorted_records());

        // The learner's fold obeys the same law: absorb order is invisible
        // in the folded statistics.
        let mut fwd = OnlineLearner::new(StatsDb::new(), ModelSpec::m4());
        let mut rev = OnlineLearner::new(StatsDb::new(), ModelSpec::m4());
        for r in &reqs {
            fwd.absorb(r);
        }
        for r in reqs.iter().rev() {
            rev.absorb(r);
        }
        prop_assert_eq!(
            fwd.folded_stats().sorted_records(),
            rev.folded_stats().sorted_records()
        );
    }
}

/// Batches with unambiguous CTR gaps, so the refit has significant pairs
/// to train on.
fn strong_signal_batches() -> Vec<FeedbackRequest> {
    let classes = ["travel", "shoes"];
    let winners = [
        ("book today", "pay at gate"),
        ("free shipping", "no refunds"),
        ("free cancellation", "call an agent"),
        ("get a free quote", "2-day delivery"),
    ];
    (0..8u64)
        .map(|g| {
            let (win, lose) = winners[(g % 4) as usize];
            let events = vec![
                FeedbackEvent {
                    adgroup: g,
                    creative: g * 10,
                    snippet: format!("brand store | {win} | all sizes"),
                    position: 0,
                    query_class: classes[(g % 2) as usize].to_string(),
                    impressions: 5000,
                    clicks: 900,
                },
                FeedbackEvent {
                    adgroup: g,
                    creative: g * 10 + 1,
                    snippet: format!("brand store | {lose} | all sizes"),
                    position: 1,
                    query_class: classes[(g % 2) as usize].to_string(),
                    impressions: 5000,
                    clicks: 100,
                },
            ];
            FeedbackRequest {
                key: format!("batch-{g}"),
                events,
            }
        })
        .collect()
}

/// Beyond the counts: two learners that saw the same batches in opposite
/// orders must refit to models that score identically, bit for bit.
#[test]
fn absorb_order_does_not_change_post_refit_scores() {
    let reqs = strong_signal_batches();
    let mut fwd = OnlineLearner::new(StatsDb::new(), ModelSpec::m4());
    let mut rev = OnlineLearner::new(StatsDb::new(), ModelSpec::m4());
    for r in &reqs {
        fwd.absorb(r);
    }
    for r in reqs.iter().rev() {
        rev.absorb(r);
    }
    let out_fwd = fwd.refit().expect("forward refit");
    let out_rev = rev.refit().expect("reverse refit");
    assert!(out_fwd.pairs > 0, "signal batches must produce pairs");
    assert_eq!(out_fwd.pairs, out_rev.pairs);
    assert_eq!(
        out_fwd.stats.sorted_records(),
        out_rev.stats.sorted_records(),
        "folded statistics must be bit-identical"
    );

    let pairs: Vec<(Snippet, Snippet)> = TEXTS
        .chunks(2)
        .map(|c| (Snippet::from_wire(c[0]), Snippet::from_wire(c[1])))
        .collect();
    let bundle = |out: &RefitOutput| {
        ServingBundle::from_parts(out.model.clone(), out.stats.clone(), Fidelity::Full)
            .expect("bundle")
    };
    let (bundle_fwd, bundle_rev) = (bundle(&out_fwd), bundle(&out_rev));
    let (scorer_fwd, scorer_rev) = (bundle_fwd.scorer(), bundle_rev.scorer());
    let scores_fwd = scorer_fwd.score_batch(&pairs, &mut scorer_fwd.scratch());
    let scores_rev = scorer_rev.score_batch(&pairs, &mut scorer_rev.scratch());
    for (i, (a, b)) in scores_fwd.iter().zip(&scores_rev).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "post-refit score diverged at pair {i}: {a} vs {b}"
        );
    }
}
