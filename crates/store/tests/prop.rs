//! Property-based tests for the statistics store.

use microbrowse_store::file::{from_bytes, records, to_bytes};
use microbrowse_store::key::SnippetPos;
use microbrowse_store::{FeatureKey, FeatureStat, StatsDb};
use proptest::prelude::*;

fn arb_key() -> impl Strategy<Value = FeatureKey> {
    prop_oneof![
        "[a-z0-9 %$]{0,24}".prop_map(FeatureKey::term),
        ("[a-z ]{0,16}", "[a-z ]{0,16}").prop_map(|(a, b)| FeatureKey::rewrite(a, b)),
        (0u8..8, 0u16..40).prop_map(|(l, p)| FeatureKey::term_position(l, p)),
        (0u8..8, 0u16..40, 0u8..8, 0u16..40).prop_map(|(l1, p1, l2, p2)| {
            FeatureKey::rewrite_position(SnippetPos::new(l1, p1), SnippetPos::new(l2, p2))
        }),
    ]
}

/// Keys of all four families over any Unicode text, so phrases that
/// differ only past a multi-byte character, or by a prefix, meet.
fn arb_any_key() -> impl Strategy<Value = FeatureKey> {
    prop_oneof![
        "\\PC{0,6}".prop_map(FeatureKey::term),
        ("\\PC{0,4}", "\\PC{0,4}").prop_map(|(a, b)| FeatureKey::rewrite(a, b)),
        (any::<u8>(), any::<u16>()).prop_map(|(l, p)| FeatureKey::term_position(l, p)),
        (any::<u8>(), any::<u16>(), any::<u8>(), any::<u16>()).prop_map(|(l1, p1, l2, p2)| {
            FeatureKey::rewrite_position(SnippetPos::new(l1, p1), SnippetPos::new(l2, p2))
        }),
    ]
}

fn arb_stat() -> impl Strategy<Value = FeatureStat> {
    (0u64..1_000_000, 0u64..1_000_000).prop_map(|(up, down)| FeatureStat { up, down })
}

proptest! {
    /// Snapshot encode/decode is lossless for arbitrary databases.
    #[test]
    fn snapshot_round_trip(records in prop::collection::vec((arb_key(), arb_stat()), 0..60)) {
        let db = StatsDb::from_records(records);
        let back = from_bytes(&to_bytes(&db)).expect("round trip");
        prop_assert_eq!(db.sorted_records(), back.sorted_records());
    }

    /// A borrowed key orders exactly as its owned key does, within and
    /// across families, so the order a snapshot is checked in is the order
    /// the writer sorts by.
    #[test]
    fn key_ref_order_agrees_with_feature_key_order(a in arb_any_key(), b in arb_any_key()) {
        prop_assert_eq!(a.as_key_ref().cmp(&b.as_key_ref()), a.cmp(&b));
        prop_assert_eq!(a.as_key_ref() == b.as_key_ref(), a == b);
    }

    /// The borrowed reader returns exactly the database's records in key
    /// order, and the owned view decodes the same database.
    #[test]
    fn records_read_back_in_key_order(
        recs in prop::collection::vec((arb_any_key(), arb_stat()), 0..40),
    ) {
        let db = StatsDb::from_records(recs);
        let bytes = to_bytes(&db);
        let read = records(&bytes).expect("read");
        prop_assert_eq!(&*read, &*db.sorted_refs());
        prop_assert_eq!(from_bytes(&bytes).expect("decode").sorted_records(), db.sorted_records());
    }

    /// Any single-byte corruption of the payload (or trailer) is detected.
    #[test]
    fn corruption_always_detected(
        records in prop::collection::vec((arb_key(), arb_stat()), 1..20),
        flip_bit in 0u8..8,
        pos_frac in 0.0f64..1.0,
    ) {
        let db = StatsDb::from_records(records);
        let mut bytes = to_bytes(&db);
        // Corrupt somewhere after the 12-byte header.
        let lo = 12usize;
        let hi = bytes.len();
        let idx = lo + ((pos_frac * (hi - lo) as f64) as usize).min(hi - lo - 1);
        bytes[idx] ^= 1 << flip_bit;
        // Either decoding fails, or (never observed, but the only acceptable
        // alternative) the decoded content differs from the original.
        match from_bytes(&bytes) {
            Err(_) => {}
            Ok(decoded) => {
                prop_assert_ne!(decoded.sorted_records(), db.sorted_records(),
                    "silent corruption at byte {} bit {}", idx, flip_bit);
            }
        }
    }

    /// probability() stays in (0, 1) and log_odds is finite for any counts.
    #[test]
    fn stats_estimators_bounded(stat in arb_stat(), alpha in 0.01f64..50.0) {
        let p = stat.probability(alpha);
        prop_assert!(p > 0.0 && p < 1.0);
        prop_assert!(stat.log_odds(alpha).is_finite());
        // Monotone in evidence: adding an up-observation never lowers p.
        let mut more = stat;
        more.record(true);
        prop_assert!(more.probability(alpha) >= p);
    }

    /// Merging databases is observation-preserving and commutative.
    #[test]
    fn merge_commutes(
        a in prop::collection::vec((arb_key(), arb_stat()), 0..20),
        b in prop::collection::vec((arb_key(), arb_stat()), 0..20),
    ) {
        let (da, db_) = (StatsDb::from_records(a.clone()), StatsDb::from_records(b.clone()));
        let mut ab = da.clone();
        ab.merge(db_.clone());
        let mut ba = db_;
        ba.merge(da);
        prop_assert_eq!(ab.sorted_records(), ba.sorted_records());
        let total: u64 = a.iter().chain(b.iter()).map(|(_, s)| s.up + s.down).sum();
        prop_assert_eq!(ab.total_observations(), total);
    }
}
