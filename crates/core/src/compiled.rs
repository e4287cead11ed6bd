//! Precompiled feature-statistics table for the serving hot path.
//!
//! The paper's CTR-scoring model is, at serve time, a *static* log-odds
//! table: the statistics database never changes between hot reloads, so the
//! `FxHashMap<FeatureKey, FeatureStat>` inside [`StatsDb`] — whose keys hash
//! owned `String`s — is pure overhead in the per-pair inner loop. At
//! [`crate::serve::ServingBundle`] load we compile the database once into an
//! immutable [`CompiledFeatureTable`]:
//!
//! * every phrase the database or the model vocabulary mentions is
//!   interned into one frozen [`Interner`], the *bundle vocabulary*; a
//!   serving scratch interns over it
//!   ([`Interner::with_base`]), so a vocabulary phrase has the same id in
//!   every scratch and every id this table indexes is one of them;
//! * term stats become a direct-indexed slice (phrase id → entry);
//! * rewrite and position stats become sorted packed-integer key slices
//!   probed by branch-free binary search;
//! * per-entry derived values — the α=1 log-odds and the greedy matcher's
//!   candidate score — are resolved once at compile time instead of per
//!   probe;
//! * every model-vocabulary feature maps to its weight index.
//!
//! Lookups are bit-identical to [`StatsDb::get`] (proptest-enforced in
//! `tests/prop_hot.rs`): the table stores the *same* [`FeatureStat`] values
//! and derives scores with the *same* expressions, so swapping the engine in
//! cannot move a score by even one ULP.

use std::sync::Arc;

use microbrowse_store::key::SnippetPos;
use microbrowse_store::{FeatureKey, FeatureStat, StatsDb};
use microbrowse_text::{FxHashMap, Interner, Sym};

use crate::features::{OwnedTermFeat, TermFeat};
use crate::paircache::AlignCache;
use crate::rewrite::{greedy_candidate_score, RewriteEvidence};

/// Sentinel for "phrase has no term entry" in the direct-indexed slice.
const NO_ENTRY: u32 = u32::MAX;

/// The statistics database exceeds the table's 32-bit id spaces.
///
/// Unreachable for any database that fits in memory (2^32 records is
/// hundreds of gigabytes of keys alone) — but an impossible-size database
/// must fail *loudly* at load time rather than silently alias the
/// `NO_ENTRY` sentinel or leave no room for scratch-local ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// More records than entry indices can address.
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
                    "{n} statistics records exceed the 32-bit entry index space"
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
fn pack_pos(p: SnippetPos) -> u32 {
    ((p.line as u32) << 16) | p.pos as u32
}

#[inline]
fn pack_rw_pos(from: SnippetPos, to: SnippetPos) -> u64 {
    ((pack_pos(from) as u64) << 32) | pack_pos(to) as u64
}

#[inline]
fn pack_rw(from_id: u32, to_id: u32) -> u64 {
    ((from_id as u64) << 32) | to_id as u64
}

/// One compiled statistics entry: the original counts plus every derived
/// value the hot path would otherwise recompute per probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledStat {
    /// The original up/down counts, byte-for-byte as stored in [`StatsDb`].
    pub stat: FeatureStat,
    /// `stat.log_odds(1.0)`, resolved at compile time.
    pub log_odds: f64,
    /// The greedy rewrite matcher's candidate score for this entry
    /// (evidence mass + effect-size tiebreak), precomputed with the exact
    /// expression `match_line` uses.
    pub greedy_score: f64,
}

impl CompiledStat {
    fn new(stat: FeatureStat) -> Self {
        Self {
            stat,
            log_odds: stat.log_odds(1.0),
            greedy_score: greedy_candidate_score(&stat),
        }
    }
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
    /// Whether the queried phrase is the `from` side of the stored record
    /// (the direction the database observed the substitution in).
    pub stored_from: bool,
}

/// An immutable, probe-optimized compilation of a [`StatsDb`] and a model
/// vocabulary.
///
/// Built once per [`crate::serve::ServingBundle`]; shared read-only across
/// worker threads behind the bundle's `Arc`.
#[derive(Debug, Clone, Default)]
pub struct CompiledFeatureTable {
    /// The bundle vocabulary: every phrase any key or vocabulary feature
    /// mentions, database phrases first (in record order).
    phrases: Arc<Interner>,
    /// Phrase id → rank of the phrase in lexicographic string order.
    /// Lets canonical-order decisions compare two `u32`s instead of two
    /// strings.
    lex_rank: Vec<u32>,
    /// Phrase id → term-entry index ([`NO_ENTRY`] if the phrase has no
    /// position-independent term stat).
    term_entry: Vec<u32>,
    /// Sorted packed `(from_id << 32) | to_id` rewrite keys, stored with the
    /// literal direction of the database record.
    rewrite_keys: Vec<u64>,
    /// Entry index parallel to `rewrite_keys`.
    rewrite_entries: Vec<u32>,
    /// Sorted packed `(line << 16) | pos` term-position keys.
    term_pos_keys: Vec<u32>,
    /// Entry index parallel to `term_pos_keys`.
    term_pos_entries: Vec<u32>,
    /// Sorted packed rewrite-position keys (`from` in the high 32 bits).
    rw_pos_keys: Vec<u64>,
    /// Entry index parallel to `rw_pos_keys`.
    rw_pos_entries: Vec<u32>,
    /// All compiled entries, in [`StatsDb::sorted_records`] order.
    entries: Vec<CompiledStat>,
    /// Phrase id → start offset into `rw_adj` (length `num_phrases + 1`;
    /// empty when the database holds no rewrite records).
    rw_adj_start: Vec<u32>,
    /// Per-phrase rewrite neighbor lists, concatenated in phrase-id order;
    /// each list is in sorted packed-key order, so enumeration is
    /// deterministic for a given database.
    rw_adj: Vec<RewriteNeighbor>,
    /// Model-vocabulary feature (over `phrases` ids) → weight index.
    weight_index: FxHashMap<TermFeat, u32>,
}

impl CompiledFeatureTable {
    /// Compile `db` and the model vocabulary `vocab` into the
    /// probe-optimized form. Deterministic: the same inputs always produce
    /// the same table (database input is [`StatsDb::sorted_records`]), and
    /// database phrases get the same ids whatever the vocabulary. Fails
    /// with [`CompileError`] on inputs too large for the table's 32-bit id
    /// spaces — impossible in practice, but a load-time error beats
    /// silently mis-resolving keys.
    pub fn compile(db: &StatsDb, vocab: &[OwnedTermFeat]) -> Result<Self, CompileError> {
        // One entry per record, so bounding the record count up front makes
        // every entry-index cast below infallible and keeps real indices
        // clear of the NO_ENTRY sentinel.
        if db.len() >= NO_ENTRY as usize {
            return Err(CompileError::TooManyRecords(db.len()));
        }
        let mut t = Self::default();
        let mut phrases = Interner::new();
        let mut intern = |phrase: &str| phrases.intern(phrase).0;
        let mut rewrites: Vec<(u64, u32)> = Vec::new();
        let mut term_pos: Vec<(u32, u32)> = Vec::new();
        let mut rw_pos: Vec<(u64, u32)> = Vec::new();
        let mut term_stats: Vec<(u32, u32)> = Vec::new();
        for (key, stat) in db.sorted_records() {
            let idx = t.entries.len() as u32;
            t.entries.push(CompiledStat::new(stat));
            match key {
                FeatureKey::Term { phrase } => term_stats.push((intern(&phrase), idx)),
                FeatureKey::Rewrite { from, to } => {
                    let fid = intern(&from);
                    let tid = intern(&to);
                    rewrites.push((pack_rw(fid, tid), idx));
                }
                FeatureKey::TermPosition(p) => term_pos.push((pack_pos(p), idx)),
                FeatureKey::RewritePosition { from, to } => {
                    rw_pos.push((pack_rw_pos(from, to), idx));
                }
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
        t.term_entry = vec![NO_ENTRY; phrases.len()];
        for (id, idx) in term_stats {
            t.term_entry[id as usize] = idx;
        }
        rewrites.sort_unstable_by_key(|&(k, _)| k);
        term_pos.sort_unstable_by_key(|&(k, _)| k);
        rw_pos.sort_unstable_by_key(|&(k, _)| k);
        (t.rewrite_keys, t.rewrite_entries) = rewrites.into_iter().unzip();
        (t.term_pos_keys, t.term_pos_entries) = term_pos.into_iter().unzip();
        (t.rw_pos_keys, t.rw_pos_entries) = rw_pos.into_iter().unzip();

        // Lexicographic ranks over the phrase id space.
        let mut by_string: Vec<u32> = (0..phrases.len() as u32).collect();
        by_string.sort_unstable_by_key(|&id| phrases.resolve(Sym(id)));
        t.lex_rank = vec![0; phrases.len()];
        for (rank, &id) in by_string.iter().enumerate() {
            t.lex_rank[id as usize] = rank as u32;
        }

        // Per-phrase rewrite adjacency, built by counting sort over the
        // sorted key slice: each stored record contributes one edge to its
        // `from` phrase and one to its `to` phrase (one edge total for the
        // degenerate self-rewrite). Filling in sorted-key order keeps every
        // neighbor list deterministic for a given database.
        let n = phrases.len();
        let mut start = vec![0u32; n + 1];
        for &key in &t.rewrite_keys {
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
                stored_from: false,
            };
            start[n] as usize
        ];
        for (i, &key) in t.rewrite_keys.iter().enumerate() {
            let (from, to) = ((key >> 32) as u32, (key & 0xFFFF_FFFF) as u32);
            let entry = &t.entries[t.rewrite_entries[i] as usize];
            let edge = |other, stored_from| RewriteNeighbor {
                other,
                log_odds: entry.log_odds,
                total: entry.stat.total(),
                stored_from,
            };
            t.rw_adj[cursor[from as usize] as usize] = edge(to, true);
            cursor[from as usize] += 1;
            if to != from {
                t.rw_adj[cursor[to as usize] as usize] = edge(from, false);
                cursor[to as usize] += 1;
            }
        }
        t.rw_adj_start = start;
        t.phrases = Arc::new(phrases);
        Ok(t)
    }

    /// Number of compiled entries (equals the source database's key count).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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

    /// Whether phrase `a` precedes-or-equals phrase `b` lexicographically,
    /// decided by precomputed ranks (both ids must come from
    /// [`Self::phrase_id`]). Agrees with
    /// [`crate::rewrite::is_canonical_order`] on the resolved strings.
    pub fn lex_le(&self, a: u32, b: u32) -> bool {
        self.lex_rank[a as usize] <= self.lex_rank[b as usize]
    }

    /// The greedy matcher's candidate score for the rewrite `(a, b)` (table
    /// phrase ids, either direction), canonicalized exactly like
    /// [`crate::rewrite::canonical_rewrite_key`], or `None` when the
    /// database holds no evidence for the canonical pair.
    pub fn greedy_rewrite_score(&self, a: u32, b: u32) -> Option<f64> {
        let key = if self.lex_le(a, b) {
            pack_rw(a, b)
        } else {
            pack_rw(b, a)
        };
        let i = self.rewrite_keys.binary_search(&key).ok()?;
        Some(self.entries[self.rewrite_entries[i] as usize].greedy_score)
    }

    /// Full compiled entry for `key`, if present. Superset of
    /// [`Self::get`] exposing the precomputed derived values.
    pub fn get_compiled(&self, key: &FeatureKey) -> Option<&CompiledStat> {
        let idx = match key {
            FeatureKey::Term { phrase } => {
                let id = self.phrases.get(phrase)?;
                let e = self.term_entry[id.index()];
                if e == NO_ENTRY {
                    return None;
                }
                e
            }
            FeatureKey::Rewrite { from, to } => {
                let fid = self.phrases.get(from)?.0;
                let tid = self.phrases.get(to)?.0;
                let i = self.rewrite_keys.binary_search(&pack_rw(fid, tid)).ok()?;
                self.rewrite_entries[i]
            }
            FeatureKey::TermPosition(p) => {
                let i = self.term_pos_keys.binary_search(&pack_pos(*p)).ok()?;
                self.term_pos_entries[i]
            }
            FeatureKey::RewritePosition { from, to } => {
                let i = self
                    .rw_pos_keys
                    .binary_search(&pack_rw_pos(*from, *to))
                    .ok()?;
                self.rw_pos_entries[i]
            }
        };
        Some(&self.entries[idx as usize])
    }

    /// Look up the raw counts for `key` — bit-identical to
    /// [`StatsDb::get`] on the source database.
    pub fn get(&self, key: &FeatureKey) -> Option<&FeatureStat> {
        self.get_compiled(key).map(|c| &c.stat)
    }

    /// Precomputed α=1 log-odds for `key` (`0.0` when unseen), matching
    /// `StatsDb::log_odds(key, 1.0)` bit for bit.
    pub fn log_odds(&self, key: &FeatureKey) -> f64 {
        self.get_compiled(key).map_or(0.0, |c| c.log_odds)
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
    /// Compile `db` with the model vocabulary `vocab` and pair them with an
    /// empty score cache. Fails only on inputs too large for the
    /// table's id spaces (see [`CompileError`]).
    pub fn compile(db: &StatsDb, vocab: &[OwnedTermFeat]) -> Result<Self, CompileError> {
        Ok(Self {
            table: CompiledFeatureTable::compile(db, vocab)?,
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
    fn get_matches_db_on_every_key_and_misses() {
        let db = demo_db();
        let table = CompiledFeatureTable::compile(&db, &[]).expect("compile");
        assert_eq!(table.len(), db.len());
        for (key, stat) in db.iter() {
            assert_eq!(table.get(key), Some(stat), "key {key:?}");
            assert_eq!(
                table.log_odds(key).to_bits(),
                db.log_odds(key, 1.0).to_bits()
            );
        }
        for miss in [
            FeatureKey::term("absent"),
            FeatureKey::rewrite("cheap", "absent"),
            FeatureKey::rewrite("discount", "cheap"), // literal direction, not stored
            FeatureKey::term_position(5, 5),
            FeatureKey::rewrite_position(SnippetPos::new(9, 9), SnippetPos::new(0, 0)),
        ] {
            assert_eq!(table.get(&miss), None, "miss {miss:?}");
            assert_eq!(table.log_odds(&miss), 0.0);
        }
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
        assert!(from_side[0].stored_from);
        assert_eq!(from_side[0].total, 7);
        let want = FeatureStat { up: 6, down: 1 }.log_odds(1.0);
        assert_eq!(from_side[0].log_odds.to_bits(), want.to_bits());

        let to_side = table.rewrite_neighbors(discount);
        assert_eq!(to_side.len(), 1);
        assert_eq!(to_side[0].other, cheap);
        assert!(!to_side[0].stored_from);
        assert_eq!(table.resolve_phrase(to_side[0].other), Some("cheap"));

        assert!(table.rewrite_neighbors(flights).is_empty());
        assert!(table.rewrite_neighbors(u32::MAX - 1).is_empty());
    }

    #[test]
    fn empty_db_compiles_to_empty_table() {
        let table = CompiledFeatureTable::compile(&StatsDb::new(), &[]).expect("compile");
        assert!(table.is_empty());
        assert_eq!(table.num_phrases(), 0);
        assert_eq!(table.get(&FeatureKey::term("x")), None);
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
        assert!(table.lex_le(book_now, fees));
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
}
