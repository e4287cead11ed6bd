//! The in-memory statistics database and its concurrent builder.
//!
//! [`StatsDb`] is the frozen, read-optimized store Phase 2 consults when
//! extracting features and initializing classifier weights. It is built
//! either directly (single-threaded) or through [`ShardedBuilder`], which
//! lets the corpus scan record observations from many threads: keys are
//! routed to one of N mutex-guarded shards by hash, so contention is
//! `1/N`-th of a single global lock. This is the same pattern a write path
//! of a real KV store would use for a hot aggregation.

use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::{Mutex, MutexGuard, PoisonError};

use microbrowse_text::hash::{FxHashMap, FxHasher};

use crate::key::{FeatureKey, KeyRef};
use crate::stats::FeatureStat;

/// Records in strictly increasing key order, their phrases borrowed: what
/// the serving table compiles from. Only [`crate::file::records`], which
/// checks a snapshot's order, and [`StatsDb::sorted_refs`], which sorts a
/// map's unique keys, build one.
#[derive(Debug)]
pub struct SortedRecords<'a>(Vec<(KeyRef<'a>, FeatureStat)>);

impl<'a> SortedRecords<'a> {
    /// Wrap records the caller has checked to be in strictly increasing
    /// key order.
    pub(crate) fn from_ordered(records: Vec<(KeyRef<'a>, FeatureStat)>) -> Self {
        Self(records)
    }
}

impl<'a> std::ops::Deref for SortedRecords<'a> {
    type Target = [(KeyRef<'a>, FeatureStat)];

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<'a> From<&'a StatsDb> for SortedRecords<'a> {
    fn from(db: &'a StatsDb) -> Self {
        db.sorted_refs()
    }
}

/// The frozen feature statistics database.
#[derive(Debug, Clone, Default)]
pub struct StatsDb {
    map: FxHashMap<FeatureKey, FeatureStat>,
}

impl StatsDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of records, merging duplicate keys.
    pub fn from_records(records: impl IntoIterator<Item = (FeatureKey, FeatureStat)>) -> Self {
        let records = records.into_iter();
        let mut db = Self::new();
        db.map.reserve(records.size_hint().0);
        for (k, s) in records {
            db.map.entry(k).or_default().merge(&s);
        }
        db
    }

    /// Record one `delta-sw` observation for `key`.
    pub fn record(&mut self, key: FeatureKey, positive: bool) {
        self.map.entry(key).or_default().record(positive);
    }

    /// Look up a feature's counts.
    pub fn get(&self, key: &FeatureKey) -> Option<&FeatureStat> {
        self.map.get(key)
    }

    /// The log odds-ratio for `key` under Laplace smoothing `alpha`, or 0.0
    /// (uninformative) for unseen features. This is the lookup used to
    /// initialize classifier weights.
    pub fn log_odds(&self, key: &FeatureKey, alpha: f64) -> f64 {
        self.map.get(key).map_or(0.0, |s| s.log_odds(alpha))
    }

    /// Number of distinct features.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate all records (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&FeatureKey, &FeatureStat)> {
        self.map.iter()
    }

    /// Merge another database into this one.
    pub fn merge(&mut self, other: StatsDb) {
        for (k, s) in other.map {
            self.map.entry(k).or_default().merge(&s);
        }
    }

    /// Records in deterministic (sorted-key) order, keys owned.
    pub fn sorted_records(&self) -> Vec<(FeatureKey, FeatureStat)> {
        self.sorted_refs()
            .iter()
            .map(|&(k, s)| (k.into(), s))
            .collect()
    }

    /// Records in sorted-key order, keys borrowed: what the snapshot writer
    /// encodes, so equal databases produce byte-identical files, and what
    /// the serving table compiles from.
    pub fn sorted_refs(&self) -> SortedRecords<'_> {
        let mut v: Vec<(KeyRef<'_>, FeatureStat)> =
            self.map.iter().map(|(k, s)| (k.as_key_ref(), *s)).collect();
        v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        SortedRecords::from_ordered(v)
    }

    /// Total observations across all features.
    pub fn total_observations(&self) -> u64 {
        self.map.values().map(FeatureStat::total).sum()
    }
}

/// A sharded, thread-safe accumulator that freezes into a [`StatsDb`].
#[derive(Debug)]
pub struct ShardedBuilder {
    shards: Vec<Mutex<FxHashMap<FeatureKey, FeatureStat>>>,
    hasher: BuildHasherDefault<FxHasher>,
}

impl ShardedBuilder {
    /// Create a builder with `num_shards` shards (rounded up to ≥ 1).
    pub fn new(num_shards: usize) -> Self {
        let n = num_shards.max(1);
        Self {
            shards: (0..n).map(|_| Mutex::new(FxHashMap::default())).collect(),
            hasher: BuildHasherDefault::<FxHasher>::default(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, key: &FeatureKey) -> usize {
        let h = self.hasher.hash_one(key);
        (h % self.shards.len() as u64) as usize
    }

    /// Lock shard `idx`. Every update under the lock is a single counter
    /// bump, so a shard whose holder panicked is still consistent: recover
    /// the guard from the poison instead of propagating the panic.
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, FxHashMap<FeatureKey, FeatureStat>> {
        self.shards[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one observation; safe to call from any thread.
    pub fn record(&self, key: FeatureKey, positive: bool) {
        let idx = self.shard_for(&key);
        self.lock_shard(idx)
            .entry(key)
            .or_default()
            .record(positive);
    }

    /// Record a batch (one lock acquisition per touched shard on average —
    /// the batch is grouped by shard first).
    pub fn record_batch(&self, batch: impl IntoIterator<Item = (FeatureKey, bool)>) {
        let mut grouped: Vec<Vec<(FeatureKey, bool)>> = vec![Vec::new(); self.shards.len()];
        for (k, p) in batch {
            grouped[self.shard_for(&k)].push((k, p));
        }
        for (idx, group) in grouped.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut shard = self.lock_shard(idx);
            for (k, p) in group {
                shard.entry(k).or_default().record(p);
            }
        }
    }

    /// Freeze into a read-only [`StatsDb`].
    pub fn freeze(self) -> StatsDb {
        let mut map: FxHashMap<FeatureKey, FeatureStat> = FxHashMap::default();
        for shard in self.shards {
            for (k, s) in shard.into_inner().unwrap_or_else(PoisonError::into_inner) {
                map.entry(k).or_default().merge(&s);
            }
        }
        StatsDb { map }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_lookup() {
        let mut db = StatsDb::new();
        db.record(FeatureKey::term("cheap"), true);
        db.record(FeatureKey::term("cheap"), true);
        db.record(FeatureKey::term("cheap"), false);
        let s = db.get(&FeatureKey::term("cheap")).unwrap();
        assert_eq!((s.up, s.down), (2, 1));
        assert!(db.log_odds(&FeatureKey::term("cheap"), 1.0) > 0.0);
        assert_eq!(db.log_odds(&FeatureKey::term("unseen"), 1.0), 0.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = StatsDb::new();
        a.record(FeatureKey::term("x"), true);
        let mut b = StatsDb::new();
        b.record(FeatureKey::term("x"), false);
        b.record(FeatureKey::term("y"), true);
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(&FeatureKey::term("x")).unwrap().total(), 2);
        assert_eq!(a.total_observations(), 3);
    }

    #[test]
    fn from_records_merges_duplicates() {
        let db = StatsDb::from_records([
            (FeatureKey::term("a"), FeatureStat { up: 1, down: 0 }),
            (FeatureKey::term("a"), FeatureStat { up: 0, down: 2 }),
        ]);
        assert_eq!(db.len(), 1);
        assert_eq!(
            db.get(&FeatureKey::term("a")).unwrap(),
            &FeatureStat { up: 1, down: 2 }
        );
    }

    #[test]
    fn sorted_records_are_deterministic() {
        let mut db = StatsDb::new();
        db.record(FeatureKey::term("b"), true);
        db.record(FeatureKey::term("a"), true);
        db.record(FeatureKey::term_position(0, 1), false);
        let r1 = db.sorted_records();
        let r2 = db.sorted_records();
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), 3);
        assert!(r1.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn sharded_builder_matches_sequential() {
        let builder = ShardedBuilder::new(8);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let b = &builder;
                scope.spawn(move || {
                    for i in 0..250 {
                        b.record(
                            FeatureKey::term(format!("term-{}", i % 20)),
                            (i + t) % 3 == 0,
                        );
                    }
                });
            }
        });
        let db = builder.freeze();
        assert_eq!(db.len(), 20);
        assert_eq!(db.total_observations(), 1000);
    }

    #[test]
    fn record_batch_equivalent_to_singles() {
        let b1 = ShardedBuilder::new(4);
        let b2 = ShardedBuilder::new(4);
        let obs: Vec<(FeatureKey, bool)> = (0..100)
            .map(|i| (FeatureKey::term(format!("t{}", i % 7)), i % 2 == 0))
            .collect();
        for (k, p) in obs.clone() {
            b1.record(k, p);
        }
        b2.record_batch(obs);
        assert_eq!(b1.freeze().sorted_records(), b2.freeze().sorted_records());
    }

    #[test]
    fn zero_shards_rounds_up() {
        let b = ShardedBuilder::new(0);
        assert_eq!(b.num_shards(), 1);
        b.record(FeatureKey::term("x"), true);
        assert_eq!(b.freeze().len(), 1);
    }
}
