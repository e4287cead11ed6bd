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
//! bundle-shared [`AlignCache`] below, which keeps the scores of pairs
//! that recur.

use std::hash::{Hash, Hasher};
use std::sync::Mutex;

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
/// would exceed either clears that set wholesale (scores are cheap to
/// recompute, so wholesale eviction beats LRU bookkeeping on this path).
const ALIGN_SHARD_CAP: usize = 8192;
/// Cap on the entries one pair hash holds. Pair hashes are unkeyed hashes
/// of client text, so colliding creatives can be crafted; a pair past the
/// cap is not stored and is recomputed on every sighting, and no lookup
/// compares against more than this many keys.
const ALIGN_BUCKET_CAP: usize = 4;

/// Form marker of a side key written from a [`Snippet`]'s lines.
const LINES_FORM: u8 = 0;
/// Form marker of a side key written from a creative's wire text.
const WIRE_FORM: u8 = 1;

/// One side of a scored pair as the engine reads it: a [`Snippet`], or a
/// creative's wire text (`str`). A side writes its own key, the cache and
/// arena identity of the side, and yields its lines for an arena fill to
/// tokenize.
///
/// The two forms key apart: a `Snippet` writes the line-form marker and
/// its lines, a wire text the wire-form marker and its bytes, so a wire
/// pair never meets a `Snippet` pair's entry, and two spellings of one
/// creative (a padded and a trimmed wire text, or a wire text and its
/// [`Snippet::from_wire`]) take separate entries. They still score
/// bit-identically: a score is a function of the side's lines alone.
pub trait PairSide {
    /// Append the side key to `out`. A side key spells exactly one side of
    /// its form, and no side key is a prefix of another.
    fn put_key(&self, out: &mut Vec<u8>);

    /// The side's lines, in order.
    fn side_lines(&self) -> impl Iterator<Item = &str>;
}

/// The line form: the marker, the line count, then each line's byte length
/// and bytes (lengths little-endian `u64`).
impl PairSide for Snippet {
    fn put_key(&self, out: &mut Vec<u8>) {
        out.push(LINES_FORM);
        out.extend_from_slice(&(self.lines().len() as u64).to_le_bytes());
        for line in self.lines() {
            out.extend_from_slice(&(line.text.len() as u64).to_le_bytes());
            out.extend_from_slice(line.text.as_bytes());
        }
    }

    fn side_lines(&self) -> impl Iterator<Item = &str> {
        self.lines().iter().map(|line| line.text.as_str())
    }
}

/// A creative in wire form (`"Cheap Flights|book today"`), keyed by its
/// own bytes: the marker, the byte length (little-endian `u64`), then the
/// text as sent. Writing it scans no line; its lines are read through
/// [`wire_lines`] only when an arena fill needs them.
impl PairSide for str {
    fn put_key(&self, out: &mut Vec<u8>) {
        out.push(WIRE_FORM);
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }

    fn side_lines(&self) -> impl Iterator<Item = &str> {
        wire_lines(self)
    }
}

impl<T: PairSide + ?Sized> PairSide for &T {
    fn put_key(&self, out: &mut Vec<u8>) {
        (**self).put_key(out)
    }

    fn side_lines(&self) -> impl Iterator<Item = &str> {
        (**self).side_lines()
    }
}

/// The identity of an ordered pair `(r, s)`: R's side key, then S's, in
/// one buffer reused from pair to pair. Every side key starts with its
/// form marker and spells its length, so it ends where it says and equal
/// pair keys are equal pairs. The score cache stores and compares pair
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
        r.put_key(&mut self.bytes);
        self.split = self.bytes.len();
        s.put_key(&mut self.bytes);
        (side_hash(self.r()), side_hash(self.s()))
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

/// Lane multipliers and the finishing constant of [`side_hash`] (odd
/// 64-bit constants with mixed bits, wyhash's).
const LANE_A: u64 = 0xa076_1d64_78bd_642f;
const LANE_B: u64 = 0xe703_7ed1_a0b4_28db;
const FINISH: u64 = 0x8ebc_6af0_9c88_c6e3;

/// The 128-bit product of `a` and `b`, folded to 64 bits.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// One 32-byte step of [`side_hash`]: lane A folds the block's first 16
/// bytes into `a`, lane B its last 16 into `b`, one folded multiply each;
/// neither lane waits on the other.
#[inline]
fn hash_step(a: u64, b: u64, block: &[u8]) -> (u64, u64) {
    let word = |i: usize| {
        let mut w = [0; 8];
        w.copy_from_slice(&block[8 * i..8 * i + 8]);
        u64::from_le_bytes(w)
    };
    (
        fold_mul(word(0) ^ LANE_A, word(1) ^ a),
        fold_mul(word(2) ^ LANE_B, word(3) ^ b),
    )
}

/// Hash a side key, 32 bytes a step in two independent multiply lanes; the
/// last `len % 32` bytes are one zero-padded step, and the length seeds
/// lane A and the finish. Like Fx it is unkeyed, so colliding keys can be
/// crafted (`text::hash` keeps Fx off network input); here that is
/// harmless, because a bucket compares whole keys and
/// [`ALIGN_BUCKET_CAP`] bounds a crafted bucket.
fn side_hash(bytes: &[u8]) -> u64 {
    let len = bytes.len() as u64;
    let (mut a, mut b) = (len ^ LANE_B, LANE_A);
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        (a, b) = hash_step(a, b, block);
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut last = [0; 32];
        last[..tail.len()].copy_from_slice(tail);
        (a, b) = hash_step(a, b, &last);
    }
    fold_mul(a ^ FINISH, b ^ len)
}

/// One bucket slot: the pair key and the pair's score.
type AlignSlot = (Box<[u8]>, f64);

/// A shard: buckets keyed by the pair's 64-bit hash, each bucket holding
/// at most [`ALIGN_BUCKET_CAP`] exact pair keys (collisions are resolved
/// by key equality, so a hash collision can never return another pair's
/// score), plus the doorkeeper of pairs that missed once.
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
    /// early, never store a wrong score.
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

/// The serve-time score cache, shared across batches and worker threads:
/// a repeated pair is one probe.
///
/// An entry is a [`PairKey`] and the pair's final score. That is sound
/// because a score is a pure function of the bundle and the pair: phrase
/// ids are the bundle's frozen vocabulary, so nothing a scratch has seen
/// before moves a score. The cache lives in the bundle's
/// [`ScoringEngine`](crate::compiled::ScoringEngine), and every scorer of
/// a bundle serves its one model at its one fidelity. A hot reload swaps
/// the whole bundle behind its `Arc`, and with it an empty cache: no
/// invalidation protocol, no stale reads.
///
/// A missed pair is stored only on its second miss. Most serving misses
/// are single-use — `/v1/suggest` scores hundreds of never-seen variants
/// per draft — so storing them would only fill shards for the next
/// wholesale clear to drop; a pair that recurs pays one extra
/// recomputation and hits from then on.
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

    /// The cached score of the pair whose [`PairKey::pair`] is `key` and
    /// whose pair hash `h` comes from [`Self::combine_hashes`]; `None` on
    /// a miss.
    pub fn get_hashed(&self, h: u64, key: &[u8]) -> Option<f64> {
        let found = lock_shard(&self.shards[(h as usize) % ALIGN_SHARDS])
            .buckets
            .get(&h)
            .and_then(|bucket| bucket.iter().find(|(k, _)| **k == *key))
            .map(|&(_, score)| score);
        match found {
            Some(_) => microbrowse_obs::counter!("microbrowse_aligncache_hits_total").add(1),
            None => microbrowse_obs::counter!("microbrowse_aligncache_misses_total").add(1),
        }
        found
    }

    /// Offer the freshly computed score of a missed pair (pair key `key`,
    /// pair hash `h`). The first offer of a pair only remembers its hash
    /// (deferred); the second stores the entry (admitted), and only then is
    /// the key copied. Offering an already-cached pair — a racing insert —
    /// or a pair whose hash bucket is full is a no-op; a shard at capacity
    /// is cleared before an admitted entry is stored.
    pub fn insert_hashed(&self, h: u64, key: &[u8], score: f64) {
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
        shard
            .buckets
            .entry(h)
            .or_default()
            .push((key.into(), score));
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
    use microbrowse_text::snippet::MAX_LINES;
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

    /// The pair key bytes and pair hash of `(r, s)`.
    pub(crate) fn key_of<S: PairSide + ?Sized>(r: &S, s: &S) -> (Vec<u8>, u64) {
        let mut key = PairKey::default();
        let (hr, hs) = key.set(r, s);
        (key.pair().to_vec(), AlignCache::combine_hashes(hr, hs))
    }

    /// Offer `score` for `key` under pair hash `h`; whether it was stored.
    fn offer_as(cache: &AlignCache, h: u64, key: &[u8], score: f64) -> bool {
        let before = cache.entries();
        cache.insert_hashed(h, key, score);
        cache.entries() > before
    }

    fn offer(cache: &AlignCache, h: u64, key: &[u8]) -> bool {
        offer_as(cache, h, key, 1.5)
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
        // stored.
        assert!(cache.get_hashed(h, &key).is_none());
        assert!(!offer(&cache, h, &key));
        assert_eq!(cache.entries(), 0);
        // Second sighting: a miss whose offer is admitted.
        assert!(cache.get_hashed(h, &key).is_none());
        assert!(offer(&cache, h, &key));
        assert_eq!(cache.entries(), 1);
        // Third sighting: a hit returning the stored score.
        assert_eq!(cache.get_hashed(h, &key), Some(1.5));
        // The swapped pair is a different pair, still never seen.
        let (swapped, hs) = key_of(&s, &r);
        assert!(cache.get_hashed(hs, &swapped).is_none());
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
        // A racing offer of the cached pair neither stores nor overwrites,
        // and does not re-arm the doorkeeper.
        for _ in 0..3 {
            assert!(!offer_as(&cache, h, &key, -4.0));
        }
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.get_hashed(h, &key), Some(1.5));
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

    pub(crate) type WirePair = (String, String);

    /// Wire pairs whose keys would coincide if a wire key dropped its byte
    /// length — the second case holds the wire-form marker byte, which
    /// would then separate the texts ambiguously — or if the pair key were
    /// unordered.
    pub(crate) fn confusable_wire_pairs() -> [(WirePair, WirePair); 3] {
        let owned = |r: &str, s: &str| (r.to_owned(), s.to_owned());
        let marker = char::from(WIRE_FORM);
        [
            (owned("ab", "c"), owned("a", "bc")),
            (
                (format!("cheap{marker}fees"), "a".to_owned()),
                ("cheap".to_owned(), format!("fees{marker}a")),
            ),
            (
                owned("cheap flights", "pricey flights"),
                owned("pricey flights", "cheap flights"),
            ),
        ]
    }

    /// `bytes` read as a wire pair key without its form markers: R's byte
    /// length and text, then S's. `None` unless that reading uses up
    /// `bytes` exactly and both texts are UTF-8.
    pub(crate) fn read_as_wire_pair(bytes: &[u8]) -> Option<WirePair> {
        fn text(rest: &mut &[u8]) -> Option<String> {
            let (len, tail) = rest.split_first_chunk::<8>()?;
            let len = usize::try_from(u64::from_le_bytes(*len)).ok()?;
            let (text, tail) = tail.split_at_checked(len)?;
            *rest = tail;
            String::from_utf8(text.to_vec()).ok()
        }
        let mut rest = bytes;
        let pair = (text(&mut rest)?, text(&mut rest)?);
        rest.is_empty().then_some(pair)
    }

    /// A `Snippet` pair and the wire pair that spells its key: its key with
    /// both form markers dropped when `bare`, its whole key otherwise, is
    /// the wire pair's key without markers.
    ///
    /// The reading takes R's first 8 key bytes as R's text length. Bare,
    /// those are R's line count, `MAX_LINES`, so R's text is its first
    /// line's length; whole, the marker and a count of 1 read as 256, so
    /// R's text runs 247 bytes into the first line. Either way the first
    /// line holds, where S's byte length is read from, the length of the
    /// rest: the tail "cheap" and S's side key.
    pub(crate) fn snippet_pair_spelled_by_wire(bare: bool) -> ((Snippet, Snippet), WirePair) {
        let (lines, at) = if bare { (MAX_LINES, 0) } else { (1, 247) };
        let build = |rest_len: u8| {
            let mut text = "x".repeat(at);
            text.push(char::from(rest_len));
            text.push_str("\0\0\0\0\0\0\0cheap");
            let mut r = vec![text];
            r.resize(lines, String::new());
            (Snippet::from_lines(r), Snippet::from_lines(["fees"]))
        };
        let spelled = |(r, s): &(Snippet, Snippet)| {
            let mut key = PairKey::default();
            key.set(r, s);
            let (r, s) = (key.r(), key.s());
            if bare {
                [&r[1..], &s[1..]].concat()
            } else {
                key.pair().to_vec()
            }
        };
        let draft = spelled(&build(0));
        let mut r_len = [0; 8];
        r_len.copy_from_slice(&draft[..8]);
        let rest_at = 8 + u64::from_le_bytes(r_len) as usize + 8;
        let pair = build(u8::try_from(draft.len() - rest_at).expect("a one-byte length"));
        let wire = read_as_wire_pair(&spelled(&pair)).expect("the key reads as a wire pair");
        (pair, wire)
    }

    #[test]
    fn the_key_is_the_pairs_identity() {
        let snippets = confusable_pairs()
            .into_iter()
            .map(|((ar, as_), (br, bs))| (key_of(&ar, &as_).0, key_of(&br, &bs).0));
        let wire = confusable_wire_pairs()
            .into_iter()
            .map(|((ar, as_), (br, bs))| {
                (
                    key_of(ar.as_str(), as_.as_str()).0,
                    key_of(br.as_str(), bs.as_str()).0,
                )
            });
        // A wire pair whose key, with its markers dropped, spells a
        // `Snippet` pair's key with or without the `Snippet` markers.
        let across = [true, false].map(|bare| {
            let ((r, s), (wr, ws)) = snippet_pair_spelled_by_wire(bare);
            (key_of(&r, &s).0, key_of(wr.as_str(), ws.as_str()).0)
        });
        // One forced hash for every key: only the key comparison tells the
        // two pairs of each case apart.
        let h = 7;
        for (a, b) in snippets.chain(wire).chain(across) {
            let cache = AlignCache::new();
            assert_ne!(a, b);
            assert!(!offer_as(&cache, h, &a, 10.0));
            assert!(offer_as(&cache, h, &a, 10.0));
            assert!(cache.get_hashed(h, &b).is_none(), "{b:?} hit {a:?}'s entry");
            assert!(!offer_as(&cache, h, &b, 20.0));
            assert!(offer_as(&cache, h, &b, 20.0));
            assert_eq!(cache.entries(), 2);
            assert_eq!(cache.get_hashed(h, &a), Some(10.0));
            assert_eq!(cache.get_hashed(h, &b), Some(20.0));
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
            offer_as(&cache, h, key, k as f64);
            offer_as(&cache, h, key, k as f64);
            let shard = lock_shard(&cache.shards[(h as usize) % ALIGN_SHARDS]);
            assert!(shard.buckets[&h].len() <= ALIGN_BUCKET_CAP);
        }
        assert_eq!(cache.entries(), ALIGN_BUCKET_CAP);
        for (k, key) in keys.iter().enumerate() {
            let got = cache.get_hashed(h, key);
            if k < ALIGN_BUCKET_CAP {
                assert_eq!(got, Some(k as f64), "key {k}");
            } else {
                assert!(got.is_none(), "key {k} past the cap");
            }
        }
    }

    /// Every single-byte change of a key of 1 to 128 bytes moves its hash:
    /// every byte is read, the zero-padded last step included.
    #[test]
    fn every_byte_of_a_side_key_moves_its_hash() {
        for len in 1..=128usize {
            let base: Vec<u8> = (0..len).map(|i| b'a' + (i % 26) as u8).collect();
            let h = side_hash(&base);
            let mut key = base.clone();
            for at in 0..len {
                for byte in (0..=255u8).filter(|&b| b != base[at]) {
                    key[at] = byte;
                    assert_ne!(side_hash(&key), h, "len {len}, byte {at} = {byte}");
                }
                key[at] = base[at];
            }
        }
    }
}
