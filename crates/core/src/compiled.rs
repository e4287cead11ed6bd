//! Precompiled feature-statistics table for the serving hot path.
//!
//! The statistics database has two jobs in the paper. Before training it
//! initializes the classifier's term and position weights (§V-D, "+init");
//! while serving it only ranks candidate phrase pairs for the greedy
//! rewrite matcher ("a more probable rewrite … has a higher score in the
//! rewrite database", §IV-A). The second job is all a request reads, so at
//! [`crate::serve::ServingBundle`] load the snapshot's records, read in key
//! order with their phrases borrowed from its bytes
//! ([`microbrowse_store::file::records`]), compile in one pass into an
//! immutable [`CompiledFeatureTable`] that holds only:
//!
//! * the *bundle vocabulary*: every phrase the database or the model
//!   vocabulary mentions, interned into one frozen [`Interner`] — database
//!   phrases in key order, then the phrases only the vocabulary mentions.
//!   A serving scratch interns over it ([`Interner::with_base`]), so a
//!   vocabulary phrase has the same id in every scratch;
//! * every model-vocabulary feature's weight index;
//! * the greedy matcher's evidence: each canonical rewrite record's
//!   candidate score under both orientations of its packed `(id, id)` key,
//!   so a candidate pair is one binary search;
//! * the rewrite adjacency `suggest` enumerates partners from.
//!
//! Term and position records name their phrases (so ids do not depend on
//! which families a database holds) but leave nothing else behind.
//!
//! Evidence is bit-identical to the string path through [`StatsDb`]
//! (proptest-enforced in `tests/prop_hot.rs`): the table derives scores
//! from the *same* [`FeatureStat`] values with the *same* expressions, so
//! swapping the engine in cannot move a score by even one ULP.

use std::sync::Arc;

#[cfg(doc)]
use microbrowse_store::StatsDb;
use microbrowse_store::{FeatureStat, KeyRef, SortedRecords};
use microbrowse_text::{FxHashMap, Interner, Sym};

use crate::features::{OwnedTermFeat, TermFeat};
use crate::paircache::AlignCache;
use crate::rewrite::{greedy_candidate_score, is_canonical_order, RewriteEvidence};

/// The statistics database exceeds the table's 32-bit id spaces.
///
/// Unreachable for any database that fits in memory (2^31 records is
/// tens of gigabytes of keys alone) — but a snapshot comes from outside
/// the program, and an impossible-size one must fail *loudly* at load
/// time rather than overflow the adjacency's offsets or leave no room for
/// scratch-local ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// More records than the rewrite adjacency's 32-bit offsets can
    /// address (each record adds at most two edges).
    TooManyRecords(usize),
    /// More distinct phrases than half the 32-bit id space; the upper half
    /// is left to the strings a serving scratch meets outside the
    /// vocabulary.
    TooManyPhrases(usize),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::TooManyRecords(n) => {
                write!(
                    f,
                    "{n} statistics records exceed the 32-bit adjacency offset space"
                )
            }
            CompileError::TooManyPhrases(n) => {
                write!(f, "{n} distinct phrases exceed the 32-bit phrase id space")
            }
        }
    }
}

impl std::error::Error for CompileError {}

#[inline]
fn pack_rw(from_id: u32, to_id: u32) -> u64 {
    ((from_id as u64) << 32) | to_id as u64
}

/// One edge of the per-phrase rewrite adjacency: a partner phrase this
/// phrase has rewrite evidence with, plus the evidence the beam search
/// ranks candidates by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewriteNeighbor {
    /// Table phrase id of the partner phrase.
    pub other: u32,
    /// Precomputed α=1 log-odds of the stored rewrite record.
    pub log_odds: f64,
    /// Total observation count of the stored record (evidence mass).
    pub total: u64,
}

/// An immutable, probe-optimized compilation of what serving reads from a
/// statistics database, plus a model vocabulary.
///
/// Built once per [`crate::serve::ServingBundle`]; shared read-only across
/// worker threads behind the bundle's `Arc`.
#[derive(Debug, Clone, Default)]
pub struct CompiledFeatureTable {
    /// The bundle vocabulary: every phrase any key or vocabulary feature
    /// mentions, database phrases first (in key order).
    phrases: Arc<Interner>,
    /// Number of records compiled (every family).
    records: usize,
    /// Sorted packed `(a << 32) | b` keys: each canonical rewrite record
    /// (`from <= to` as strings) under both orientations.
    greedy_keys: Vec<u64>,
    /// The greedy matcher's candidate score, parallel to `greedy_keys`.
    greedy_scores: Vec<f64>,
    /// Phrase id → start offset into `rw_adj` (length `num_phrases + 1`;
    /// empty when the database holds no rewrite records).
    rw_adj_start: Vec<u32>,
    /// Per-phrase rewrite neighbor lists, concatenated in phrase-id order;
    /// each list is in sorted packed-key order of the stored records, so
    /// enumeration is deterministic for a given database.
    rw_adj: Vec<RewriteNeighbor>,
    /// Model-vocabulary feature (over `phrases` ids) → weight index.
    weight_index: FxHashMap<TermFeat, u32>,
}

impl CompiledFeatureTable {
    /// Compile a database's records, in key order, and the model
    /// vocabulary `vocab` into the probe-optimized form. The records come
    /// from a snapshot's bytes ([`microbrowse_store::file::records`]) or
    /// from a [`StatsDb`] (`&db` converts through
    /// [`StatsDb::sorted_refs`]), so equal databases compile to equal
    /// tables, and database phrases get the same ids whatever the
    /// vocabulary. Fails with [`CompileError`] on inputs too large for the
    /// table's 32-bit id spaces — impossible in practice, but a load-time
    /// error beats silently mis-resolving keys.
    pub fn compile<'a>(
        records: impl Into<SortedRecords<'a>>,
        vocab: &[OwnedTermFeat],
    ) -> Result<Self, CompileError> {
        let records = records.into();
        // Each record adds at most two adjacency edges, so this bound keeps
        // every `u32` offset below in range.
        if records.len() > (u32::MAX / 2) as usize {
            return Err(CompileError::TooManyRecords(records.len()));
        }
        let mut t = Self {
            records: records.len(),
            ..Self::default()
        };
        // Term records bring one new phrase each and position records none;
        // rewrite records and vocabulary features mostly reuse phrases. So
        // records plus features is close to the final phrase count, and
        // the interner seldom regrows.
        let mut phrases = Interner::with_capacity(records.len() + vocab.len());
        let mut intern = |phrase: &str| phrases.intern(phrase).0;
        let mut rewrites: Vec<(u64, FeatureStat)> = Vec::new();
        let mut greedy: Vec<(u64, f64)> = Vec::new();
        for &(key, stat) in records.iter() {
            match key {
                KeyRef::Term { phrase } => {
                    intern(phrase);
                }
                KeyRef::Rewrite { from, to } => {
                    let fid = intern(from);
                    let tid = intern(to);
                    rewrites.push((pack_rw(fid, tid), stat));
                    // The greedy matcher probes canonical keys only
                    // (`canonical_rewrite_key`), so a record stored the
                    // other way round is never evidence.
                    if is_canonical_order(from, to) {
                        let score = greedy_candidate_score(&stat);
                        greedy.push((pack_rw(fid, tid), score));
                        if fid != tid {
                            greedy.push((pack_rw(tid, fid), score));
                        }
                    }
                }
                KeyRef::TermPosition(_) | KeyRef::RewritePosition { .. } => {}
            }
        }
        // Weight indices follow the featurizer's vocabulary numbering: the
        // next index goes to each feature not seen earlier in the list.
        for owned in vocab {
            let feat = match owned {
                OwnedTermFeat::Term(p) => TermFeat::Term(Sym(intern(p))),
                OwnedTermFeat::Rewrite(a, b) => TermFeat::Rewrite(Sym(intern(a)), Sym(intern(b))),
            };
            let next = t.weight_index.len() as u32;
            t.weight_index.entry(feat).or_insert(next);
        }
        if phrases.len() > (u32::MAX / 2) as usize {
            return Err(CompileError::TooManyPhrases(phrases.len()));
        }
        // Keys are distinct: a pair and its reverse are both canonical only
        // for a self-rewrite, which is pushed once.
        greedy.sort_unstable_by_key(|&(k, _)| k);
        (t.greedy_keys, t.greedy_scores) = greedy.into_iter().unzip();
        rewrites.sort_unstable_by_key(|&(k, _)| k);

        // Per-phrase rewrite adjacency, built by counting sort over the
        // sorted records: each stored record contributes one edge to its
        // `from` phrase and one to its `to` phrase (one edge total for the
        // degenerate self-rewrite). Filling in sorted-key order keeps every
        // neighbor list deterministic for a given database.
        let n = phrases.len();
        let mut start = vec![0u32; n + 1];
        for &(key, _) in &rewrites {
            let (from, to) = ((key >> 32) as usize, (key & 0xFFFF_FFFF) as usize);
            start[from + 1] += 1;
            if to != from {
                start[to + 1] += 1;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut cursor = start.clone();
        t.rw_adj = vec![
            RewriteNeighbor {
                other: 0,
                log_odds: 0.0,
                total: 0,
            };
            start[n] as usize
        ];
        for &(key, stat) in &rewrites {
            let (from, to) = ((key >> 32) as u32, (key & 0xFFFF_FFFF) as u32);
            let (log_odds, total) = (stat.log_odds(1.0), stat.total());
            let edge = |other| RewriteNeighbor {
                other,
                log_odds,
                total,
            };
            t.rw_adj[cursor[from as usize] as usize] = edge(to);
            cursor[from as usize] += 1;
            if to != from {
                t.rw_adj[cursor[to as usize] as usize] = edge(from);
                cursor[to as usize] += 1;
            }
        }
        t.rw_adj_start = start;
        t.phrases = Arc::new(phrases);
        Ok(t)
    }

    /// Number of records compiled (equals the source database's key count).
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether the table compiled no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Number of distinct phrases across all term and rewrite keys and
    /// the model vocabulary.
    pub fn num_phrases(&self) -> usize {
        self.phrases.len()
    }

    /// The bundle vocabulary: the frozen interner whose symbols are this
    /// table's phrase ids.
    pub fn phrases(&self) -> &Arc<Interner> {
        &self.phrases
    }

    /// The table's id for `phrase`, if any key or vocabulary feature
    /// mentions it.
    pub fn phrase_id(&self, phrase: &str) -> Option<u32> {
        self.phrases.get(phrase).map(|s| s.0)
    }

    /// The weight index of a model-vocabulary feature (phrases as table
    /// ids; rewrites in canonical order), or `None` for a feature the model
    /// does not price.
    pub fn weight_index(&self, feat: TermFeat) -> Option<u32> {
        self.weight_index.get(&feat).copied()
    }

    /// The phrase string for a table id previously returned by
    /// [`Self::phrase_id`] or found in a [`RewriteNeighbor`].
    pub fn resolve_phrase(&self, id: u32) -> Option<&str> {
        self.phrases.try_resolve(Sym(id))
    }

    /// Every phrase the rewrite database pairs with `phrase` (a table id),
    /// with the stored record's evidence. Deterministic order (sorted
    /// packed-key order of the stored records); empty for ids without
    /// rewrite evidence.
    pub fn rewrite_neighbors(&self, phrase: u32) -> &[RewriteNeighbor] {
        let i = phrase as usize;
        match (self.rw_adj_start.get(i), self.rw_adj_start.get(i + 1)) {
            (Some(&a), Some(&b)) => &self.rw_adj[a as usize..b as usize],
            _ => &[],
        }
    }

    /// The greedy matcher's candidate score for the rewrite `(a, b)` (table
    /// phrase ids, either direction), canonicalized exactly like
    /// [`crate::rewrite::canonical_rewrite_key`], or `None` when the
    /// database holds no evidence for the canonical pair.
    pub fn greedy_rewrite_score(&self, a: u32, b: u32) -> Option<f64> {
        let i = self.greedy_keys.binary_search(&pack_rw(a, b)).ok()?;
        Some(self.greedy_scores[i])
    }
}

/// [`RewriteEvidence`] backed by a [`CompiledFeatureTable`]: a candidate
/// pair is one binary search — no string hashing, no key allocation. The
/// extraction's interner must be layered over [`CompiledFeatureTable::phrases`],
/// so its symbols below [`CompiledFeatureTable::num_phrases`] are table ids;
/// any other symbol is a phrase the database never recorded.
pub(crate) struct CompiledEvidence<'a>(pub(crate) &'a CompiledFeatureTable);

impl RewriteEvidence for CompiledEvidence<'_> {
    fn candidate_score(&self, from: Sym, to: Sym, _interner: &Interner) -> Option<f64> {
        let n = self.0.num_phrases();
        if from.index() < n && to.index() < n {
            self.0.greedy_rewrite_score(from.0, to.0)
        } else {
            None
        }
    }
}

/// The serving hot-path engine: the compiled table plus the cross-batch
/// score cache. Owned by a [`crate::serve::ServingBundle`], so a hot reload
/// swaps in a freshly compiled table *and* an empty cache in one `Arc`
/// swap — stale scores can never outlive the statistics and the model they
/// were computed under.
#[derive(Debug, Default)]
pub struct ScoringEngine {
    table: CompiledFeatureTable,
    align: AlignCache,
}

impl ScoringEngine {
    /// Compile a database's records with the model vocabulary `vocab`
    /// ([`CompiledFeatureTable::compile`]) and pair them with an empty
    /// score cache. Fails only on inputs too large for the table's id
    /// spaces (see [`CompileError`]).
    pub fn compile<'a>(
        records: impl Into<SortedRecords<'a>>,
        vocab: &[OwnedTermFeat],
    ) -> Result<Self, CompileError> {
        Ok(Self {
            table: CompiledFeatureTable::compile(records, vocab)?,
            align: AlignCache::new(),
        })
    }

    /// The compiled lookup table.
    pub fn table(&self) -> &CompiledFeatureTable {
        &self.table
    }

    /// The serve-time score cache (named for the alignments it once held).
    pub fn align(&self) -> &AlignCache {
        &self.align
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::canonical_rewrite_key;
    use microbrowse_store::key::{KeyFamily, SnippetPos};
    use microbrowse_store::{FeatureKey, StatsDb};

    fn demo_db() -> StatsDb {
        StatsDb::from_records([
            (FeatureKey::term("cheap"), FeatureStat { up: 8, down: 2 }),
            (FeatureKey::term("flights"), FeatureStat { up: 1, down: 5 }),
            (
                FeatureKey::rewrite("cheap", "discount"),
                FeatureStat { up: 6, down: 1 },
            ),
            (
                FeatureKey::rewrite("zz", "aa"),
                FeatureStat { up: 2, down: 2 },
            ),
            (
                FeatureKey::term_position(0, 1),
                FeatureStat { up: 3, down: 3 },
            ),
            (
                FeatureKey::rewrite_position(SnippetPos::new(0, 1), SnippetPos::new(1, 2)),
                FeatureStat { up: 4, down: 0 },
            ),
        ])
    }

    #[test]
    fn greedy_evidence_matches_db_on_every_id_pair() {
        let mut records = demo_db().sorted_records();
        records.push((
            FeatureKey::rewrite("cheap", "cheap"),
            FeatureStat { up: 3, down: 0 },
        ));
        let db = StatsDb::from_records(records);
        let table = CompiledFeatureTable::compile(&db, &[]).expect("compile");
        assert_eq!(table.len(), db.len());
        let n = table.num_phrases() as u32;
        for a in 0..n {
            for b in 0..n {
                let (x, y) = (
                    table.resolve_phrase(a).unwrap(),
                    table.resolve_phrase(b).unwrap(),
                );
                let want = db
                    .get(&canonical_rewrite_key(x, y))
                    .map(greedy_candidate_score);
                assert_eq!(
                    table.greedy_rewrite_score(a, b).map(f64::to_bits),
                    want.map(f64::to_bits),
                    "({x}, {y})"
                );
            }
        }
        assert_eq!(table.greedy_rewrite_score(0, n), None);
    }

    #[test]
    fn greedy_rewrite_score_canonicalizes_like_strings() {
        let db = demo_db();
        let table = CompiledFeatureTable::compile(&db, &[]).expect("compile");
        let cheap = table.phrase_id("cheap").unwrap();
        let discount = table.phrase_id("discount").unwrap();
        let stat = FeatureStat { up: 6, down: 1 };
        let want = greedy_candidate_score(&stat);
        assert_eq!(table.greedy_rewrite_score(cheap, discount), Some(want));
        // Reverse direction canonicalizes to the same key.
        assert_eq!(table.greedy_rewrite_score(discount, cheap), Some(want));
        // The ("zz", "aa") record is stored non-canonically; the greedy
        // matcher only ever probes canonical keys, so it finds nothing —
        // exactly like `StatsDb::get(canonical_rewrite_key("zz", "aa"))`.
        let zz = table.phrase_id("zz").unwrap();
        let aa = table.phrase_id("aa").unwrap();
        assert_eq!(table.greedy_rewrite_score(zz, aa), None);
    }

    #[test]
    fn rewrite_neighbors_cover_both_directions() {
        let db = demo_db();
        let table = CompiledFeatureTable::compile(&db, &[]).expect("compile");
        let cheap = table.phrase_id("cheap").unwrap();
        let discount = table.phrase_id("discount").unwrap();
        let flights = table.phrase_id("flights").unwrap();

        let from_side = table.rewrite_neighbors(cheap);
        assert_eq!(from_side.len(), 1);
        assert_eq!(from_side[0].other, discount);
        assert_eq!(from_side[0].total, 7);
        let want = FeatureStat { up: 6, down: 1 }.log_odds(1.0);
        assert_eq!(from_side[0].log_odds.to_bits(), want.to_bits());

        let to_side = table.rewrite_neighbors(discount);
        assert_eq!(to_side.len(), 1);
        assert_eq!(to_side[0].other, cheap);
        assert_eq!(table.resolve_phrase(to_side[0].other), Some("cheap"));

        assert!(table.rewrite_neighbors(flights).is_empty());
        assert!(table.rewrite_neighbors(u32::MAX - 1).is_empty());
    }

    #[test]
    fn empty_db_compiles_to_empty_table() {
        let table = CompiledFeatureTable::compile(&StatsDb::new(), &[]).expect("compile");
        assert!(table.is_empty());
        assert_eq!(table.num_phrases(), 0);
        assert_eq!(table.greedy_rewrite_score(0, 0), None);
        assert!(table.rewrite_neighbors(0).is_empty());
    }

    #[test]
    fn vocabulary_phrases_follow_database_phrases() {
        let db = demo_db();
        let plain = CompiledFeatureTable::compile(&db, &[]).expect("compile");
        let vocab = [
            OwnedTermFeat::Term("cheap".into()),
            OwnedTermFeat::Rewrite("book now".into(), "cheap".into()),
            OwnedTermFeat::Term("cheap".into()),
            OwnedTermFeat::Term("fees".into()),
        ];
        let table = CompiledFeatureTable::compile(&db, &vocab).expect("compile");
        // Database phrases keep their ids; vocabulary-only phrases follow.
        let n = plain.num_phrases();
        for id in 0..n as u32 {
            assert_eq!(table.resolve_phrase(id), plain.resolve_phrase(id));
        }
        assert_eq!(table.num_phrases(), n + 2);
        let book_now = table.phrase_id("book now").expect("vocabulary phrase");
        let fees = table.phrase_id("fees").expect("vocabulary phrase");
        assert!(book_now as usize >= n && fees as usize >= n);
        assert!(table.rewrite_neighbors(fees).is_empty());
        // Weight indices number distinct features in list order, as the
        // featurizer's preloaded vocabulary does: the duplicate "cheap"
        // takes no index of its own.
        let cheap = Sym(table.phrase_id("cheap").expect("cheap"));
        assert_eq!(table.weight_index(TermFeat::Term(cheap)), Some(0));
        assert_eq!(
            table.weight_index(TermFeat::Rewrite(Sym(book_now), cheap)),
            Some(1)
        );
        assert_eq!(table.weight_index(TermFeat::Term(Sym(fees))), Some(2));
        assert_eq!(table.weight_index(TermFeat::Term(Sym(book_now))), None);
    }

    /// Term-position and rewrite-position records initialize training
    /// only: a database compiled with them serves exactly what the same
    /// database compiled without them does.
    #[test]
    fn position_records_reach_nothing_served() {
        let full = demo_db();
        let families: Vec<_> = full.iter().map(|(k, _)| k.family()).collect();
        for family in [
            KeyFamily::Term,
            KeyFamily::Rewrite,
            KeyFamily::TermPosition,
            KeyFamily::RewritePosition,
        ] {
            assert!(families.contains(&family), "demo_db lacks {family:?}");
        }
        let bare = StatsDb::from_records(full.sorted_records().into_iter().filter(|(k, _)| {
            !matches!(
                k.family(),
                KeyFamily::TermPosition | KeyFamily::RewritePosition
            )
        }));
        assert!(bare.len() < full.len());
        let vocab = [
            OwnedTermFeat::Term("cheap".into()),
            OwnedTermFeat::Rewrite("cheap".into(), "discount".into()),
            OwnedTermFeat::Term("fees".into()),
            OwnedTermFeat::Rewrite("aa".into(), "zz".into()),
        ];
        let a = CompiledFeatureTable::compile(&full, &vocab).expect("compile");
        let b = CompiledFeatureTable::compile(&bare, &vocab).expect("compile");
        assert_eq!(a.num_phrases(), b.num_phrases());
        let n = a.num_phrases() as u32;
        for id in 0..n {
            assert_eq!(a.resolve_phrase(id), b.resolve_phrase(id));
            assert_eq!(a.rewrite_neighbors(id), b.rewrite_neighbors(id));
            for other in 0..n {
                assert_eq!(
                    a.greedy_rewrite_score(id, other).map(f64::to_bits),
                    b.greedy_rewrite_score(id, other).map(f64::to_bits)
                );
            }
        }
        for feat in &vocab {
            let id = |p: &str| Sym(a.phrase_id(p).expect("vocabulary phrase"));
            let feat = match feat {
                OwnedTermFeat::Term(p) => TermFeat::Term(id(p)),
                OwnedTermFeat::Rewrite(x, y) => TermFeat::Rewrite(id(x), id(y)),
            };
            assert_eq!(a.weight_index(feat), b.weight_index(feat));
            assert!(a.weight_index(feat).is_some());
        }
    }
}
