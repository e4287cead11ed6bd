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
    FxHashMap, FxHashSet, NGramConfig, NGramExtractor, Snippet, TermOccurrence,
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

/// One bucket slot: the exact snippet pair and its rewrite-family
/// features.
type AlignSlot = ((Snippet, Snippet), Box<[CoupledFeature]>);

/// A shard: buckets keyed by the pair's 64-bit hash, each bucket holding
/// the exact snippet pairs (collisions are resolved by full equality, so a
/// hash collision can never return another pair's features), plus the
/// doorkeeper of pairs that missed once.
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
/// An entry is the pair's rewrite-family features as the engine prices
/// them: (position group, weight index, value) triples in the bundle's
/// weight-index space, features the model does not price already dropped.
/// Nothing in an entry depends on the scratch that computed it, so any
/// scratch of the bundle appends it as is.
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

/// Hash of one snippet, usable with [`AlignCache::combine_hashes`] so a
/// caller that already hashed the snippets (the scorer's arena does) never
/// hashes them twice.
pub fn snippet_hash(snippet: &Snippet) -> u64 {
    let mut h = FxHasher::default();
    snippet.hash(&mut h);
    h.finish()
}

impl AlignCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            shards: (0..ALIGN_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    /// Combine two per-snippet hashes into the ordered-pair key used by
    /// [`Self::get_hashed`] / [`Self::insert_hashed`].
    pub fn combine_hashes(hr: u64, hs: u64) -> u64 {
        let mut h = FxHasher::default();
        hr.hash(&mut h);
        hs.hash(&mut h);
        h.finish()
    }

    /// Append the cached features of the ordered pair `(r, s)`, whose pair
    /// hash `h` comes from [`Self::combine_hashes`], to `out`. `false` (and
    /// `out` untouched) on a miss.
    pub fn get_hashed(
        &self,
        h: u64,
        r: &Snippet,
        s: &Snippet,
        out: &mut Vec<CoupledFeature>,
    ) -> bool {
        let shard = lock_shard(&self.shards[(h as usize) % ALIGN_SHARDS]);
        let found = shard
            .buckets
            .get(&h)
            .and_then(|bucket| bucket.iter().find(|((br, bs), _)| br == r && bs == s));
        if let Some((_, feats)) = found {
            out.extend_from_slice(feats);
            microbrowse_obs::counter!("microbrowse_aligncache_hits_total").add(1);
            return true;
        }
        microbrowse_obs::counter!("microbrowse_aligncache_misses_total").add(1);
        false
    }

    /// Offer the freshly computed features of a missed pair `(r, s)` (pair
    /// hash `h`). The first offer of a pair only remembers its hash
    /// (deferred); the second stores the entry (admitted), and only then do
    /// `capture` and the snippet clones run. `capture` runs under the
    /// shard's lock, so it must not use this cache. Offering an
    /// already-cached pair — a racing insert — is a no-op; a shard at
    /// capacity is cleared before an admitted entry is stored.
    pub fn insert_hashed(
        &self,
        h: u64,
        r: &Snippet,
        s: &Snippet,
        capture: impl FnOnce() -> Box<[CoupledFeature]>,
    ) {
        let mut shard = lock_shard(&self.shards[(h as usize) % ALIGN_SHARDS]);
        // Duplicate check first: racing inserts of an already-cached pair
        // must not trigger the at-capacity wholesale eviction below.
        if let Some(bucket) = shard.buckets.get(&h) {
            if bucket.iter().any(|((br, bs), _)| br == r && bs == s) {
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
            .push(((r.clone(), s.clone()), feats));
        shard.entries += 1;
    }

    /// Total number of cached pairs (approximate under concurrent writes;
    /// exact when quiescent).
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).entries).sum()
    }
}

#[cfg(test)]
mod tests {
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
        CoupledFeature {
            pos: 3,
            term: 1,
            value: -1.0,
        }
    }

    /// Offer `(r, s)` under pair hash `h`; whether the capture ran.
    fn offer(cache: &AlignCache, h: u64, r: &Snippet, s: &Snippet) -> bool {
        let mut captured = false;
        cache.insert_hashed(h, r, s, || {
            captured = true;
            Box::new([feature()])
        });
        captured
    }

    /// Look `(r, s)` up under pair hash `h`; the appended features on a hit.
    fn lookup(cache: &AlignCache, h: u64, r: &Snippet, s: &Snippet) -> Option<Vec<CoupledFeature>> {
        let mut out = Vec::new();
        cache.get_hashed(h, r, s, &mut out).then_some(out)
    }

    fn pair() -> (Snippet, Snippet, u64) {
        let r = Snippet::from_lines(["cheap flights"]);
        let s = Snippet::from_lines(["pricey flights"]);
        let h = AlignCache::combine_hashes(snippet_hash(&r), snippet_hash(&s));
        (r, s, h)
    }

    #[test]
    fn align_cache_admits_a_pair_on_its_second_miss() {
        let cache = AlignCache::new();
        let (r, s, h) = pair();
        // First sighting: a miss whose offer is deferred — nothing is
        // captured or stored.
        assert!(lookup(&cache, h, &r, &s).is_none());
        assert!(!offer(&cache, h, &r, &s));
        assert_eq!(cache.entries(), 0);
        // Second sighting: a miss whose offer is admitted.
        assert!(lookup(&cache, h, &r, &s).is_none());
        assert!(offer(&cache, h, &r, &s));
        assert_eq!(cache.entries(), 1);
        // Third sighting: a hit appending the stored features.
        assert_eq!(lookup(&cache, h, &r, &s), Some(vec![feature()]));
        // The swapped pair is a different pair, still never seen.
        let swapped = AlignCache::combine_hashes(snippet_hash(&s), snippet_hash(&r));
        assert!(lookup(&cache, swapped, &s, &r).is_none());
        assert!(!offer(&cache, swapped, &s, &r));
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn duplicate_insert_is_a_no_op() {
        let cache = AlignCache::new();
        let (r, s, h) = pair();
        assert!(!offer(&cache, h, &r, &s));
        assert!(offer(&cache, h, &r, &s));
        // A racing offer of the cached pair neither captures nor stores,
        // and does not re-arm the doorkeeper.
        for _ in 0..3 {
            assert!(!offer(&cache, h, &r, &s));
        }
        assert_eq!(cache.entries(), 1);
        let shard = lock_shard(&cache.shards[(h as usize) % ALIGN_SHARDS]);
        assert!(!shard.seen_once.contains(&h));
    }

    #[test]
    fn doorkeeper_never_exceeds_its_cap() {
        let cache = AlignCache::new();
        let (r, s, _) = pair();
        // Distinct hashes that all land in shard 0: every offer is a first
        // sighting, so nothing is ever stored.
        let hash = |k: usize| (k * ALIGN_SHARDS) as u64;
        for k in 0..2 * ALIGN_SHARD_CAP + 3 {
            assert!(!offer(&cache, hash(k), &r, &s));
            assert!(lock_shard(&cache.shards[0]).seen_once.len() <= ALIGN_SHARD_CAP);
        }
        assert_eq!(cache.entries(), 0);
        // The wholesale clears forgot the early hashes: offering the first
        // one again is a first sighting, not an admission.
        assert!(!offer(&cache, hash(0), &r, &s));
        // The most recent one is still remembered.
        assert!(offer(&cache, hash(2 * ALIGN_SHARD_CAP + 2), &r, &s));
    }
}
