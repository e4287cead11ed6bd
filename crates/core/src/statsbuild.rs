//! Phase 1 of the pipeline (Figure 1): building the feature statistics
//! database from the ad corpus (§V-C).
//!
//! "For each feature, we compute the empirical probability p of sw-diff
//! being +1 by estimating the fraction of times delta-sw is +1 over the
//! complete ADCORPUS." Concretely, for every qualifying creative pair:
//!
//! * every n-gram present in exactly one creative contributes one `delta-sw`
//!   observation to its **term** stat and to the **term-position** stat of
//!   each of its occurrences;
//! * every aligned whole-span rewrite contributes to its
//!   direction-normalized **rewrite** stat and to the **rewrite-position**
//!   stat of its `(source, target)` position pair.
//!
//! The scan is embarrassingly parallel across pairs; worker threads record
//! into a sharded concurrent builder
//! ([`microbrowse_store::ShardedBuilder`]) and each carries its own clone of
//! the interner (clones share the underlying strings, and statistics keys
//! are strings, so cross-thread symbol identity is irrelevant).

use microbrowse_store::key::SnippetPos;
use microbrowse_store::{FeatureKey, ShardedBuilder, StatsDb};
use microbrowse_text::{
    FxHashMap, Interner, NGramConfig, NGramExtractor, Sym, TermOccurrence, TokenizedSnippet,
    Tokenizer,
};

use crate::corpus::{AdCorpus, CreativeId, CreativePair, PairFilter};
use crate::paircache::PairCache;
use crate::rewrite::{
    canonical_rewrite_key, is_canonical_order, MatchStrategy, RewriteConfig, RewriteExtraction,
    RewriteExtractor,
};
use crate::serveweight::serve_weights;

/// Configuration for [`build_stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsBuildConfig {
    /// N-gram orders for term statistics.
    pub ngram: NGramConfig,
    /// Phrase-length cap for seeded rewrites (matching strategy is always
    /// whole-span on the seeding pass — the database does not exist yet).
    pub max_rewrite_len: usize,
    /// Worker threads (0 = use available parallelism).
    pub threads: usize,
}

impl Default for StatsBuildConfig {
    fn default() -> Self {
        Self {
            ngram: NGramConfig::default(),
            max_rewrite_len: 3,
            threads: 0,
        }
    }
}

/// A corpus pre-processed for feature work: every creative tokenized once,
/// serve weights precomputed, all under one interner.
#[derive(Debug, Clone)]
pub struct TokenizedCorpus {
    /// The shared symbol space.
    pub interner: Interner,
    /// Tokenized snippet per creative.
    pub snippets: FxHashMap<CreativeId, TokenizedSnippet>,
    /// Serve weight per creative (§V-B).
    pub serve_weight: FxHashMap<CreativeId, f64>,
}

impl TokenizedCorpus {
    /// Tokenize `corpus` and compute serve weights.
    pub fn build(corpus: &AdCorpus) -> Self {
        let tokenizer = Tokenizer::default();
        let mut interner = Interner::new();
        let mut snippets = FxHashMap::default();
        let mut serve_weight = FxHashMap::default();
        for group in &corpus.adgroups {
            let sw = serve_weights(group);
            for (creative, w) in group.creatives.iter().zip(sw) {
                snippets.insert(
                    creative.id,
                    creative.snippet.tokenize(&tokenizer, &mut interner),
                );
                serve_weight.insert(creative.id, w);
            }
        }
        Self {
            interner,
            snippets,
            serve_weight,
        }
    }

    /// Look up a creative's tokenized snippet (panics on unknown id — the
    /// pair list always comes from the same corpus).
    pub fn snippet(&self, id: CreativeId) -> &TokenizedSnippet {
        &self.snippets[&id]
    }

    /// Look up a creative's serve weight.
    pub fn sw(&self, id: CreativeId) -> f64 {
        self.serve_weight[&id]
    }
}

/// Build the feature statistics database from `pairs` (Phase 1 of
/// Figure 1). Pass only *training* pairs to keep evaluation honest.
pub fn build_stats(
    tc: &TokenizedCorpus,
    pairs: &[CreativePair],
    cfg: &StatsBuildConfig,
) -> StatsDb {
    let threads = microbrowse_par::resolve_threads(cfg.threads);
    let mut span = microbrowse_obs::trace::span("pipeline.stats")
        .with("pairs", pairs.len())
        .with("cached", false);
    let builder = ShardedBuilder::new(threads * 4);

    microbrowse_par::for_each_chunk(pairs, threads, |slice| {
        let mut interner = tc.interner.clone();
        let ngram = NGramExtractor::new(cfg.ngram);
        let rewriter = RewriteExtractor::new(RewriteConfig {
            max_phrase_len: cfg.max_rewrite_len,
            strategy: MatchStrategy::WholeSpan,
        });
        let empty = StatsDb::new();
        let mut batch: Vec<(FeatureKey, bool)> = Vec::new();
        for pair in slice {
            batch.clear();
            record_pair(
                tc,
                pair,
                &ngram,
                &rewriter,
                &empty,
                &mut interner,
                &mut batch,
            );
            builder.record_batch(batch.drain(..));
        }
    });

    let db = builder.freeze();
    span.add("features", db.len());
    db
}

/// One-call convenience for benches and tools: tokenize `corpus`, extract
/// its qualifying pairs under `filter`, and build the statistics database
/// over all of them. Returns the tokenized corpus and pair list alongside
/// the stats so callers can keep working in the same symbol space without
/// re-tokenizing.
pub fn build_stats_from_corpus(
    corpus: &AdCorpus,
    filter: &PairFilter,
    cfg: &StatsBuildConfig,
) -> (TokenizedCorpus, Vec<CreativePair>, StatsDb) {
    let tc = TokenizedCorpus::build(corpus);
    let pairs = corpus.extract_pairs(filter);
    let db = build_stats(&tc, &pairs, cfg);
    (tc, pairs, db)
}

/// Build the statistics database over the pairs selected by `idxs` (indices
/// into `pairs`), reusing a [`PairCache`] instead of re-tokenizing: n-gram
/// occurrences and alignment spans come from the cache, so no pass over a
/// pair ever touches a mutable interner. Produces exactly the same database
/// as [`build_stats`] over the selected pairs, at any thread count.
pub fn build_stats_for(
    tc: &TokenizedCorpus,
    pairs: &[CreativePair],
    idxs: &[usize],
    cache: &PairCache,
    cfg: &StatsBuildConfig,
) -> StatsDb {
    let threads = microbrowse_par::resolve_threads(cfg.threads);
    let mut span = microbrowse_obs::trace::span("pipeline.stats")
        .with("pairs", idxs.len())
        .with("cached", true);
    let builder = ShardedBuilder::new(threads * 4);
    let rewriter = RewriteExtractor::new(RewriteConfig {
        max_phrase_len: cfg.max_rewrite_len,
        strategy: MatchStrategy::WholeSpan,
    });
    let empty = StatsDb::new();

    microbrowse_par::for_each_chunk(idxs, threads, |slice| {
        let mut batch: Vec<(FeatureKey, bool)> = Vec::new();
        for &i in slice {
            let pair = &pairs[i];
            let r_wins = tc.sw(pair.r) > tc.sw(pair.s);
            batch.clear();
            record_terms(
                &tc.interner,
                cache.term_occs(pair.r),
                cache.term_occs(pair.s),
                r_wins,
                &mut batch,
            );
            let ext = rewriter.extract_prepared(
                tc.snippet(pair.r),
                tc.snippet(pair.s),
                cache.prepared(i),
                &empty,
                &tc.interner,
            );
            record_rewrites(&tc.interner, &ext, r_wins, &mut batch);
            builder.record_batch(batch.drain(..));
        }
    });

    let db = builder.freeze();
    span.add("features", db.len());
    db
}

/// Collect the `delta-sw` observations of one pair into `out`.
fn record_pair(
    tc: &TokenizedCorpus,
    pair: &CreativePair,
    ngram: &NGramExtractor,
    rewriter: &RewriteExtractor,
    empty_db: &StatsDb,
    interner: &mut Interner,
    out: &mut Vec<(FeatureKey, bool)>,
) {
    let r = tc.snippet(pair.r);
    let s = tc.snippet(pair.s);
    let r_wins = tc.sw(pair.r) > tc.sw(pair.s);

    let r_occs = ngram.extract(r, interner);
    let s_occs = ngram.extract(s, interner);
    record_terms(interner, &r_occs, &s_occs, r_wins, out);

    let ext = rewriter.extract(r, s, empty_db, interner);
    record_rewrites(interner, &ext, r_wins, out);
}

/// Term + term-position statistics: every n-gram present in exactly one
/// creative contributes one observation per phrase plus one per occurrence.
fn record_terms(
    interner: &Interner,
    r_occs: &[TermOccurrence],
    s_occs: &[TermOccurrence],
    r_wins: bool,
    out: &mut Vec<(FeatureKey, bool)>,
) {
    let collect_phrases = |occs: &[TermOccurrence]| {
        let mut map: FxHashMap<Sym, Vec<SnippetPos>> = FxHashMap::default();
        for occ in occs {
            map.entry(occ.ngram.phrase)
                .or_default()
                .push(SnippetPos::new(occ.line, occ.pos));
        }
        map
    };
    let r_phrases = collect_phrases(r_occs);
    let s_phrases = collect_phrases(s_occs);

    for (side_phrases, other_phrases, side_wins) in [
        (&r_phrases, &s_phrases, r_wins),
        (&s_phrases, &r_phrases, !r_wins),
    ] {
        for (&phrase, positions) in side_phrases {
            if other_phrases.contains_key(&phrase) {
                continue; // shared phrase: no sw-diff evidence
            }
            out.push((FeatureKey::term(interner.resolve(phrase)), side_wins));
            for &pos in positions {
                out.push((FeatureKey::TermPosition(pos), side_wins));
            }
        }
    }
}

/// Rewrite + rewrite-position statistics from one pair's whole-span
/// extraction.
fn record_rewrites(
    interner: &Interner,
    ext: &RewriteExtraction,
    r_wins: bool,
    out: &mut Vec<(FeatureKey, bool)>,
) {
    for rw in &ext.rewrites {
        let from = interner.resolve(rw.from.phrase).to_owned();
        let to = interner.resolve(rw.to.phrase).to_owned();
        // §V-B: "if a term in creative R is rewritten to a term in creative
        // S … sw-diff [is] the difference of serve-weights of R and S."
        let delta = if is_canonical_order(&from, &to) {
            r_wins
        } else {
            !r_wins
        };
        out.push((canonical_rewrite_key(&from, &to), delta));
        // Position pair stats, recorded in both directions so lookups are
        // orientation-free.
        out.push((FeatureKey::rewrite_position(rw.from.pos, rw.to.pos), r_wins));
        out.push((
            FeatureKey::rewrite_position(rw.to.pos, rw.from.pos),
            !r_wins,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{AdGroup, AdGroupId, Creative, PairFilter, Placement};
    use microbrowse_text::Snippet;

    /// Two adgroups; in each, the creative saying "cheap" beats the one
    /// saying "expensive".
    fn corpus() -> AdCorpus {
        let make = |gid: u64, base: u64, good_clicks: u64, bad_clicks: u64| AdGroup {
            id: AdGroupId(gid),
            keyword: "flights".into(),
            placement: Placement::Top,
            creatives: vec![
                Creative {
                    id: CreativeId(base),
                    snippet: Snippet::creative("XYZ Air", "book cheap flights", "great rates"),
                    impressions: 10_000,
                    clicks: good_clicks,
                },
                Creative {
                    id: CreativeId(base + 1),
                    snippet: Snippet::creative("XYZ Air", "book expensive flights", "great rates"),
                    impressions: 10_000,
                    clicks: bad_clicks,
                },
            ],
        };
        AdCorpus {
            adgroups: vec![make(0, 0, 900, 300), make(1, 10, 800, 250)],
        }
    }

    fn build(corpus: &AdCorpus) -> (TokenizedCorpus, StatsDb) {
        let tc = TokenizedCorpus::build(corpus);
        let pairs = corpus.extract_pairs(&PairFilter::default());
        assert_eq!(pairs.len(), 2);
        let db = build_stats(
            &tc,
            &pairs,
            &StatsBuildConfig {
                threads: 2,
                ..Default::default()
            },
        );
        (tc, db)
    }

    #[test]
    fn term_stats_capture_direction() {
        let (_, db) = build(&corpus());
        let cheap = db.get(&FeatureKey::term("cheap")).expect("cheap stat");
        assert_eq!(cheap.up, 2);
        assert_eq!(cheap.down, 0);
        let pricey = db
            .get(&FeatureKey::term("expensive"))
            .expect("expensive stat");
        assert_eq!(pricey.up, 0);
        assert_eq!(pricey.down, 2);
        // Log-odds point the right way.
        assert!(db.log_odds(&FeatureKey::term("cheap"), 1.0) > 0.0);
        assert!(db.log_odds(&FeatureKey::term("expensive"), 1.0) < 0.0);
    }

    #[test]
    fn shared_phrases_are_not_recorded() {
        let (_, db) = build(&corpus());
        assert!(db.get(&FeatureKey::term("flights")).is_none());
        assert!(db.get(&FeatureKey::term("great rates")).is_none());
    }

    #[test]
    fn ngram_terms_included() {
        let (_, db) = build(&corpus());
        // Bigrams and trigrams straddling the changed token differ between
        // the creatives and must be recorded.
        assert!(db.get(&FeatureKey::term("book cheap")).is_some());
        assert!(db.get(&FeatureKey::term("cheap flights")).is_some());
        assert!(db.get(&FeatureKey::term("book cheap flights")).is_some());
    }

    #[test]
    fn rewrite_stats_are_canonical() {
        let (_, db) = build(&corpus());
        let key = canonical_rewrite_key("cheap", "expensive");
        let stat = db.get(&key).expect("rewrite stat");
        assert_eq!(stat.total(), 2);
        // "cheap" < "expensive": canonical from-side is cheap, which wins.
        assert_eq!(stat.up, 2);
    }

    #[test]
    fn position_stats_recorded_at_correct_positions() {
        let (_, db) = build(&corpus());
        // "cheap"/"expensive" sit at line 1, token 1; unigram stats at that
        // position: one up (cheap side) and one down per adgroup.
        let stat = db.get(&FeatureKey::term_position(1, 1)).expect("pos stat");
        assert!(stat.total() >= 4, "stat {stat:?}");
        // Rewrite-position pair recorded both ways.
        let fwd = db
            .get(&FeatureKey::rewrite_position(
                SnippetPos::new(1, 1),
                SnippetPos::new(1, 1),
            ))
            .expect("rw pos");
        assert_eq!(fwd.up, fwd.down, "symmetric recording: {fwd:?}");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let c = corpus();
        let tc = TokenizedCorpus::build(&c);
        let pairs = c.extract_pairs(&PairFilter::default());
        let db1 = build_stats(
            &tc,
            &pairs,
            &StatsBuildConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let db4 = build_stats(
            &tc,
            &pairs,
            &StatsBuildConfig {
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(db1.sorted_records(), db4.sorted_records());
    }

    #[test]
    fn cached_build_matches_direct_build() {
        let c = corpus();
        let mut tc = TokenizedCorpus::build(&c);
        let pairs = c.extract_pairs(&PairFilter::default());
        let cfg = StatsBuildConfig::default();
        let cache = PairCache::build(
            &mut tc,
            &pairs,
            cfg.ngram,
            crate::rewrite::RewriteConfig::default(),
            cfg.max_rewrite_len,
        );
        let direct = build_stats(&tc, &pairs, &cfg);
        let idxs: Vec<usize> = (0..pairs.len()).collect();
        let cached = build_stats_for(&tc, &pairs, &idxs, &cache, &cfg);
        assert_eq!(direct.sorted_records(), cached.sorted_records());

        // A subset build equals a direct build over that subset.
        let subset = build_stats(&tc, &pairs[..1], &cfg);
        let cached_subset = build_stats_for(&tc, &pairs, &[0], &cache, &cfg);
        assert_eq!(subset.sorted_records(), cached_subset.sorted_records());
    }

    #[test]
    fn empty_pairs_empty_db() {
        let c = corpus();
        let tc = TokenizedCorpus::build(&c);
        let db = build_stats(&tc, &[], &StatsBuildConfig::default());
        assert!(db.is_empty());
    }

    #[test]
    fn tokenized_corpus_lookup() {
        let c = corpus();
        let tc = TokenizedCorpus::build(&c);
        assert_eq!(tc.snippet(CreativeId(0)).num_lines(), 3);
        assert!(tc.sw(CreativeId(0)) > tc.sw(CreativeId(1)));
    }
}
