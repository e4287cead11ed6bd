//! Shared per-pair preprocessing for the experiment engine.
//!
//! A cross-validated experiment over the six paper variants revisits every
//! creative pair dozens of times: once per fold for the statistics build
//! and once per fold per model spec for featurization. The expensive parts
//! of each visit — positional n-gram extraction and the token-level LCS
//! alignment of the two snippets — depend only on the pair itself, never on
//! the fold or the spec. [`PairCache`] computes both exactly once, interning
//! every candidate phrase up front, so that all later passes share one
//! *immutable* interner: they can run on worker threads without
//! synchronization and produce bit-identical results at any thread count.
//!
//! The serve-time analogues are the snippet arena of each
//! [`Scratch`](crate::serve::Scratch), which tokenizes a distinct snippet
//! once per scratch however many requests repeat it, and the
//! bundle-shared [`AlignCache`] below, which keeps the rewrite-family
//! features of pairs that recur.

use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use microbrowse_ml::CoupledFeature;
use microbrowse_text::hash::FxHasher;
use microbrowse_text::{
    wire_lines, FxHashMap, FxHashSet, NGramConfig, NGramExtractor, Snippet, TermOccurrence,
};

use crate::corpus::{CreativeId, CreativePair};
use crate::rewrite::{prepare_pair, MatchStrategy, PreparedPair, RewriteConfig};
use crate::statsbuild::TokenizedCorpus;

/// Pair-independent n-gram occurrences plus pair-level alignment spans,
/// computed once and shared across folds and model specs.
#[derive(Debug, Clone)]
pub struct PairCache {
    /// Positional n-gram occurrences per creative (only creatives that
    /// appear in the pair list are present).
    term_occs: FxHashMap<CreativeId, Vec<TermOccurrence>>,
    /// Prepared alignment per pair, parallel to the pair list the cache was
    /// built from.
    prepared: Vec<PreparedPair>,
}

impl PairCache {
    /// Preprocess `pairs` against `tc`, interning every phrase either the
    /// featurizer (`rewrite`) or the statistics build (`max_stats_rewrite_len`)
    /// could later need. Mutates the corpus interner — build the cache
    /// *before* handing the corpus to worker threads.
    pub fn build(
        tc: &mut TokenizedCorpus,
        pairs: &[CreativePair],
        ngram: NGramConfig,
        rewrite: RewriteConfig,
        max_stats_rewrite_len: usize,
    ) -> Self {
        let extractor = NGramExtractor::new(ngram);
        let max_cand_len = rewrite.max_phrase_len.max(max_stats_rewrite_len);
        // Greedy matching scores every sub-phrase pair; the other strategies
        // only ever look at whole spans.
        let all_subphrases = rewrite.strategy == MatchStrategy::GreedyStats;
        let TokenizedCorpus {
            interner, snippets, ..
        } = tc;

        let mut term_occs: FxHashMap<CreativeId, Vec<TermOccurrence>> = FxHashMap::default();
        // Creatives appear in several pairs: each is extracted on first
        // sight (fill) and reused afterwards (hit). The counters make the
        // cache's leverage visible in `microbrowse metrics`.
        let (mut fills, mut hits) = (0u64, 0u64);
        for pair in pairs {
            for id in [pair.r, pair.s] {
                match term_occs.entry(id) {
                    std::collections::hash_map::Entry::Occupied(_) => hits += 1,
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        fills += 1;
                        slot.insert(extractor.extract(&snippets[&id], interner));
                    }
                }
            }
        }
        microbrowse_obs::counter!("microbrowse_paircache_fills_total").add(fills);
        microbrowse_obs::counter!("microbrowse_paircache_hits_total").add(hits);
        microbrowse_obs::trace::event("cache.stats")
            .with("fills", fills)
            .with("hits", hits);
        let prepared = pairs
            .iter()
            .map(|p| {
                prepare_pair(
                    &snippets[&p.r],
                    &snippets[&p.s],
                    max_cand_len,
                    all_subphrases,
                    interner,
                )
            })
            .collect();
        Self {
            term_occs,
            prepared,
        }
    }

    /// Cached n-gram occurrences of one creative.
    pub fn term_occs(&self, id: CreativeId) -> &[TermOccurrence] {
        self.term_occs.get(&id).map_or(&[], |v| v)
    }

    /// Cached alignment of the pair at `idx` (index into the pair list the
    /// cache was built from).
    pub fn prepared(&self, idx: usize) -> &PreparedPair {
        &self.prepared[idx]
    }

    /// Number of cached pairs.
    pub fn len(&self) -> usize {
        self.prepared.len()
    }

    /// Whether the cache holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.prepared.is_empty()
    }
}

/// Number of independently locked shards in an [`AlignCache`].
const ALIGN_SHARDS: usize = 16;
/// Per-shard cap on cached entries and on doorkeeper hashes; a shard that
/// would exceed either clears that set wholesale (alignments are cheap to
/// recompute, so wholesale eviction beats LRU bookkeeping on this path).
const ALIGN_SHARD_CAP: usize = 8192;
/// Cap on the entries one pair hash holds. Pair hashes are unkeyed Fx
/// hashes of client text, so colliding creatives can be crafted; a pair
/// past the cap is not stored and is recomputed on every sighting, and no
/// lookup compares against more than this many keys.
const ALIGN_BUCKET_CAP: usize = 4;

/// One side of a scored pair as the engine reads it: a creative's lines,
/// in order. They are all the engine needs — a side's key is written from
/// them, and an arena fill tokenizes them — so a [`Snippet`] and a
/// creative's wire text (`str`, read through [`wire_lines`]) are both
/// sides, and a wire text writes the same key, and so shares the same
/// cache and arena entries, as the snippet [`Snippet::from_wire`] builds
/// from it.
pub trait PairSide {
    /// The side's lines, in order.
    fn side_lines(&self) -> impl Iterator<Item = &str>;
}

impl PairSide for Snippet {
    fn side_lines(&self) -> impl Iterator<Item = &str> {
        self.lines().iter().map(|line| line.text.as_str())
    }
}

/// A creative in wire form (`"Cheap Flights|book today"`).
impl PairSide for str {
    fn side_lines(&self) -> impl Iterator<Item = &str> {
        wire_lines(self)
    }
}

impl<T: PairSide + ?Sized> PairSide for &T {
    fn side_lines(&self) -> impl Iterator<Item = &str> {
        (**self).side_lines()
    }
}

/// The identity of an ordered pair `(r, s)`: R's side key, then S's, in
/// one buffer reused from pair to pair. A side key is the side's line
/// count, then each line's byte length and bytes, so it spells exactly
/// one list of lines and no side key is a prefix of another: equal pair
/// keys are equal pairs. The alignment cache stores and compares pair
/// keys, and a scratch's snippet arena stores and compares side keys.
#[derive(Debug, Default)]
pub struct PairKey {
    bytes: Vec<u8>,
    /// Where S's side key starts.
    split: usize,
}

impl PairKey {
    /// Overwrite with the key of `(r, s)`; returns the two side hashes,
    /// for [`AlignCache::combine_hashes`] and for indexing the sides on
    /// their own.
    pub fn set<S: PairSide + ?Sized>(&mut self, r: &S, s: &S) -> (u64, u64) {
        self.bytes.clear();
        put_side(&mut self.bytes, r.side_lines());
        self.split = self.bytes.len();
        put_side(&mut self.bytes, s.side_lines());
        (fx_hash(self.r()), fx_hash(self.s()))
    }

    /// The whole pair key.
    pub fn pair(&self) -> &[u8] {
        &self.bytes
    }

    /// R's side key.
    pub fn r(&self) -> &[u8] {
        &self.bytes[..self.split]
    }

    /// S's side key.
    pub fn s(&self) -> &[u8] {
        &self.bytes[self.split..]
    }
}

/// Append the side key of `lines` to `out`: the count goes first, so it
/// is written once the lines are.
fn put_side<'l>(out: &mut Vec<u8>, lines: impl Iterator<Item = &'l str>) {
    let count_at = out.len();
    out.extend_from_slice(&[0; 8]);
    let mut count = 0u64;
    for line in lines {
        out.extend_from_slice(&(line.len() as u64).to_le_bytes());
        out.extend_from_slice(line.as_bytes());
        count += 1;
    }
    out[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
}

fn fx_hash(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// One bucket slot: the pair key and its rewrite-family features.
type AlignSlot = (Box<[u8]>, Box<[CoupledFeature]>);

/// A shard: buckets keyed by the pair's 64-bit hash, each bucket holding
/// at most [`ALIGN_BUCKET_CAP`] exact pair keys (collisions are resolved
/// by key equality, so a hash collision can never return another pair's
/// features), plus the doorkeeper of pairs that missed once.
#[derive(Debug, Default)]
struct AlignShard {
    buckets: FxHashMap<u64, Vec<AlignSlot>>,
    entries: usize,
    /// Hashes of pairs offered once and not stored. Plain `u64`s, so a
    /// wholesale clear frees nothing per entry.
    seen_once: FxHashSet<u64>,
}

impl AlignShard {
    /// Whether the cache should store the pair hashed `h`: `true` on its
    /// second offer while the first is still remembered, `false` (and the
    /// hash remembered) otherwise. A hash collision can only admit a pair
    /// early, never store a wrong alignment.
    fn admit(&mut self, h: u64) -> bool {
        if self.seen_once.remove(&h) {
            return true;
        }
        if self.seen_once.len() >= ALIGN_SHARD_CAP {
            self.seen_once.clear();
        }
        self.seen_once.insert(h);
        false
    }
}

/// The serve-time rewrite-alignment cache — the serving analogue of
/// [`PairCache`], shared across batches and worker threads.
///
/// An entry is a [`PairKey`] and the pair's rewrite-family features as the
/// engine prices them: (position group, weight index, value) triples in
/// the bundle's weight-index space, features the model does not price
/// already dropped, equal keys summed and the list sorted. Nothing in an
/// entry depends on the scratch that computed it, so any scratch of the
/// bundle appends it as is.
///
/// A missed pair is stored only on its second miss. Most serving misses
/// are single-use — `/v1/suggest` scores hundreds of never-seen variants
/// per draft — so capturing them would only fill shards for the next
/// wholesale clear to drop; a pair that recurs pays one extra
/// recomputation and hits from then on.
///
/// Lives inside the bundle's scoring engine behind the `Arc<ServingBundle>`
/// swap, so a hot reload atomically replaces it with an empty cache: no
/// invalidation protocol, no stale reads.
#[derive(Debug, Default)]
pub struct AlignCache {
    shards: Vec<Mutex<AlignShard>>,
}

fn lock_shard(m: &Mutex<AlignShard>) -> std::sync::MutexGuard<'_, AlignShard> {
    // A panic while holding the lock leaves a fully-written or fully-cleared
    // shard (no partial states escape the push/clear below), so poisoned
    // data is safe to keep serving.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl AlignCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            shards: (0..ALIGN_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    /// Combine the two side hashes [`PairKey::set`] returns into the
    /// ordered-pair hash used by [`Self::get_hashed`] /
    /// [`Self::insert_hashed`].
    pub fn combine_hashes(hr: u64, hs: u64) -> u64 {
        let mut h = FxHasher::default();
        hr.hash(&mut h);
        hs.hash(&mut h);
        h.finish()
    }

    /// Append the cached features of the pair whose [`PairKey::pair`] is
    /// `key` and whose pair hash `h` comes from [`Self::combine_hashes`],
    /// to `out`. `false` (and `out` untouched) on a miss.
    pub fn get_hashed(&self, h: u64, key: &[u8], out: &mut Vec<CoupledFeature>) -> bool {
        let shard = lock_shard(&self.shards[(h as usize) % ALIGN_SHARDS]);
        let found = shard
            .buckets
            .get(&h)
            .and_then(|bucket| bucket.iter().find(|(k, _)| **k == *key));
        if let Some((_, feats)) = found {
            out.extend_from_slice(feats);
            microbrowse_obs::counter!("microbrowse_aligncache_hits_total").add(1);
            return true;
        }
        microbrowse_obs::counter!("microbrowse_aligncache_misses_total").add(1);
        false
    }

    /// Offer the freshly computed features of a missed pair (pair key
    /// `key`, pair hash `h`). The first offer of a pair only remembers its
    /// hash (deferred); the second stores the entry (admitted), and only
    /// then do `capture` and the key copy run. `capture` runs under the
    /// shard's lock, so it must not use this cache. Offering an
    /// already-cached pair — a racing insert — or a pair whose hash bucket
    /// is full is a no-op; a shard at capacity is cleared before an
    /// admitted entry is stored.
    pub fn insert_hashed(
        &self,
        h: u64,
        key: &[u8],
        capture: impl FnOnce() -> Box<[CoupledFeature]>,
    ) {
        let mut shard = lock_shard(&self.shards[(h as usize) % ALIGN_SHARDS]);
        // A racing insert of an already-cached pair, or a pair whose bucket
        // is full, returns before the doorkeeper and the at-capacity
        // wholesale eviction below: it must neither store nor clear.
        if let Some(bucket) = shard.buckets.get(&h) {
            if bucket.len() >= ALIGN_BUCKET_CAP || bucket.iter().any(|(k, _)| **k == *key) {
                return;
            }
        }
        if !shard.admit(h) {
            microbrowse_obs::counter!("microbrowse_aligncache_deferred_total").add(1);
            return;
        }
        microbrowse_obs::counter!("microbrowse_aligncache_admitted_total").add(1);
        if shard.entries >= ALIGN_SHARD_CAP {
            shard.buckets.clear();
            shard.entries = 0;
            microbrowse_obs::counter!("microbrowse_aligncache_evictions_total").add(1);
        }
        let feats = capture();
        shard
            .buckets
            .entry(h)
            .or_default()
            .push((key.into(), feats));
        shard.entries += 1;
    }

    /// Total number of cached pairs (approximate under concurrent writes;
    /// exact when quiescent).
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).entries).sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::corpus::{AdCorpus, AdGroup, AdGroupId, Creative, PairFilter, Placement};
    use microbrowse_text::Snippet;

    fn corpus() -> AdCorpus {
        let make = |gid: u64, base: u64| AdGroup {
            id: AdGroupId(gid),
            keyword: "flights".into(),
            placement: Placement::Top,
            creatives: vec![
                Creative {
                    id: CreativeId(base),
                    snippet: Snippet::creative("XYZ Air", "book cheap flights now", "great rates"),
                    impressions: 10_000,
                    clicks: 900,
                },
                Creative {
                    id: CreativeId(base + 1),
                    snippet: Snippet::creative(
                        "XYZ Air",
                        "book expensive flights now",
                        "great rates",
                    ),
                    impressions: 10_000,
                    clicks: 300,
                },
            ],
        };
        AdCorpus {
            adgroups: vec![make(0, 0), make(1, 10)],
        }
    }

    #[test]
    fn caches_every_pair_and_creative() {
        let c = corpus();
        let mut tc = TokenizedCorpus::build(&c);
        let pairs = c.extract_pairs(&PairFilter::default());
        let cache = PairCache::build(
            &mut tc,
            &pairs,
            NGramConfig::default(),
            RewriteConfig::default(),
            3,
        );
        assert_eq!(cache.len(), pairs.len());
        assert!(!cache.is_empty());
        for p in &pairs {
            assert!(!cache.term_occs(p.r).is_empty());
            assert!(!cache.term_occs(p.s).is_empty());
        }
        // Unknown creatives resolve to the empty slice, not a panic.
        assert!(cache.term_occs(CreativeId(999)).is_empty());
    }

    #[test]
    fn cached_occurrences_match_direct_extraction() {
        let c = corpus();
        let mut tc = TokenizedCorpus::build(&c);
        let pairs = c.extract_pairs(&PairFilter::default());
        let cache = PairCache::build(
            &mut tc,
            &pairs,
            NGramConfig::default(),
            RewriteConfig::default(),
            3,
        );
        let extractor = NGramExtractor::new(NGramConfig::default());
        let mut interner = tc.interner.clone();
        for p in &pairs {
            let direct = extractor.extract(tc.snippet(p.r), &mut interner);
            assert_eq!(cache.term_occs(p.r), &direct[..]);
        }
    }

    fn feature() -> CoupledFeature {
        feature_of(1)
    }

    fn feature_of(term: u32) -> CoupledFeature {
        CoupledFeature {
            pos: 3,
            term,
            value: -1.0,
        }
    }

    /// The pair key bytes and pair hash of `(r, s)`.
    fn key_of(r: &Snippet, s: &Snippet) -> (Vec<u8>, u64) {
        let mut key = PairKey::default();
        let (hr, hs) = key.set(r, s);
        (key.pair().to_vec(), AlignCache::combine_hashes(hr, hs))
    }

    /// Offer `key` under pair hash `h`, capturing `[feature_of(term)]`;
    /// whether the capture ran.
    fn offer_as(cache: &AlignCache, h: u64, key: &[u8], term: u32) -> bool {
        let mut captured = false;
        cache.insert_hashed(h, key, || {
            captured = true;
            Box::new([feature_of(term)])
        });
        captured
    }

    fn offer(cache: &AlignCache, h: u64, key: &[u8]) -> bool {
        offer_as(cache, h, key, 1)
    }

    /// Look `key` up under pair hash `h`; the appended features on a hit.
    fn lookup(cache: &AlignCache, h: u64, key: &[u8]) -> Option<Vec<CoupledFeature>> {
        let mut out = Vec::new();
        cache.get_hashed(h, key, &mut out).then_some(out)
    }

    fn pair() -> (Snippet, Snippet) {
        (
            Snippet::from_lines(["cheap flights"]),
            Snippet::from_lines(["pricey flights"]),
        )
    }

    #[test]
    fn align_cache_admits_a_pair_on_its_second_miss() {
        let cache = AlignCache::new();
        let (r, s) = pair();
        let (key, h) = key_of(&r, &s);
        // First sighting: a miss whose offer is deferred — nothing is
        // captured or stored.
        assert!(lookup(&cache, h, &key).is_none());
        assert!(!offer(&cache, h, &key));
        assert_eq!(cache.entries(), 0);
        // Second sighting: a miss whose offer is admitted.
        assert!(lookup(&cache, h, &key).is_none());
        assert!(offer(&cache, h, &key));
        assert_eq!(cache.entries(), 1);
        // Third sighting: a hit appending the stored features.
        assert_eq!(lookup(&cache, h, &key), Some(vec![feature()]));
        // The swapped pair is a different pair, still never seen.
        let (swapped, hs) = key_of(&s, &r);
        assert!(lookup(&cache, hs, &swapped).is_none());
        assert!(!offer(&cache, hs, &swapped));
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn duplicate_insert_is_a_no_op() {
        let cache = AlignCache::new();
        let (r, s) = pair();
        let (key, h) = key_of(&r, &s);
        assert!(!offer(&cache, h, &key));
        assert!(offer(&cache, h, &key));
        // A racing offer of the cached pair neither captures nor stores,
        // and does not re-arm the doorkeeper.
        for _ in 0..3 {
            assert!(!offer(&cache, h, &key));
        }
        assert_eq!(cache.entries(), 1);
        let shard = lock_shard(&cache.shards[(h as usize) % ALIGN_SHARDS]);
        assert!(!shard.seen_once.contains(&h));
    }

    #[test]
    fn doorkeeper_never_exceeds_its_cap() {
        let cache = AlignCache::new();
        let (r, s) = pair();
        let (key, _) = key_of(&r, &s);
        // Distinct hashes that all land in shard 0: every offer is a first
        // sighting, so nothing is ever stored.
        let hash = |k: usize| (k * ALIGN_SHARDS) as u64;
        for k in 0..2 * ALIGN_SHARD_CAP + 3 {
            assert!(!offer(&cache, hash(k), &key));
            assert!(lock_shard(&cache.shards[0]).seen_once.len() <= ALIGN_SHARD_CAP);
        }
        assert_eq!(cache.entries(), 0);
        // The wholesale clears forgot the early hashes: offering the first
        // one again is a first sighting, not an admission.
        assert!(!offer(&cache, hash(0), &key));
        // The most recent one is still remembered.
        assert!(offer(&cache, hash(2 * ALIGN_SHARD_CAP + 2), &key));
    }

    /// Pairs whose keys would coincide if a side key dropped its line
    /// lengths or line count, or if the pair key were unordered.
    pub(crate) fn confusable_pairs() -> [((Snippet, Snippet), (Snippet, Snippet)); 3] {
        let s = Snippet::from_lines(["pricey flights", "no fees"]);
        let (r, _) = pair();
        [
            (
                (Snippet::from_lines(["ab", "c"]), s.clone()),
                (Snippet::from_lines(["a", "bc"]), s.clone()),
            ),
            (
                (Snippet::from_lines(["a"]), s.clone()),
                (Snippet::from_lines(["a", ""]), s.clone()),
            ),
            ((r.clone(), s.clone()), (s, r)),
        ]
    }

    #[test]
    fn the_key_is_the_pairs_identity() {
        // One forced hash for every key: only the key comparison tells the
        // two pairs of each case apart.
        let h = 7;
        for ((ar, as_), (br, bs)) in confusable_pairs() {
            let cache = AlignCache::new();
            let (a, _) = key_of(&ar, &as_);
            let (b, _) = key_of(&br, &bs);
            assert_ne!(a, b);
            assert!(!offer_as(&cache, h, &a, 10));
            assert!(offer_as(&cache, h, &a, 10));
            assert!(lookup(&cache, h, &b).is_none(), "{br:?} hit {ar:?}'s entry");
            assert!(!offer_as(&cache, h, &b, 20));
            assert!(offer_as(&cache, h, &b, 20));
            assert_eq!(cache.entries(), 2);
            assert_eq!(lookup(&cache, h, &a), Some(vec![feature_of(10)]));
            assert_eq!(lookup(&cache, h, &b), Some(vec![feature_of(20)]));
        }
    }

    #[test]
    fn colliding_pairs_fill_one_bucket_at_most_to_its_cap() {
        let cache = AlignCache::new();
        let h = 7;
        let keys: Vec<Vec<u8>> = (0..ALIGN_BUCKET_CAP + 5)
            .map(|k| key_of(&Snippet::from_lines([format!("draft {k}")]), &pair().1).0)
            .collect();
        // Twice each: the doorkeeper admits every colliding key at its
        // second offer until the bucket is full.
        for (k, key) in keys.iter().enumerate() {
            offer_as(&cache, h, key, k as u32);
            offer_as(&cache, h, key, k as u32);
            let shard = lock_shard(&cache.shards[(h as usize) % ALIGN_SHARDS]);
            assert!(shard.buckets[&h].len() <= ALIGN_BUCKET_CAP);
        }
        assert_eq!(cache.entries(), ALIGN_BUCKET_CAP);
        for (k, key) in keys.iter().enumerate() {
            let got = lookup(&cache, h, key);
            if k < ALIGN_BUCKET_CAP {
                assert_eq!(got, Some(vec![feature_of(k as u32)]), "key {k}");
            } else {
                assert!(got.is_none(), "key {k} past the cap");
            }
        }
    }
}
