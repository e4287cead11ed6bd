//! Classifier features for the snippet-pair models M1–M6 (§IV-A, §V-D.1).
//!
//! A training instance is a creative pair `(R, S)` with label "R had the
//! higher CTR". Features are **antisymmetric**: swapping R and S negates
//! every feature value and flips the label, so the classifier cannot learn
//! an R-side bias.
//!
//! Two encodings exist, mirroring the paper's ablation:
//!
//! * **Flat** (M1/M3/M5 — "no position information"): one weight per term or
//!   rewrite feature; an R-side occurrence contributes `+1`, an S-side one
//!   `−1`. This realizes Eq. 6 with all `v, w` forced to 1.
//! * **Coupled** (M2/M4/M6 — "with position information"): every occurrence
//!   is factorized into a *position group* (its `(line, position)` for
//!   terms; its source/target position pair for rewrites) and a *relevance
//!   id* (the phrase or the rewrite), realizing Eq. 8/9. Training is the
//!   alternating coupled logistic regression of
//!   [`microbrowse_ml::coupled`].
//!
//! When a model is "+init", the feature statistics database supplies the
//! starting weights: term/rewrite log-odds for relevance weights and
//! position odds for position weights (§V-D.1).
//!
//! Which occurrences a pair yields, in what order, is decided in one place:
//! the feature walk (`walk_features`). Training numbers the walked features
//! into its growing vocabulary ([`Featurizer`]), the serving engine looks up
//! their weight indices, and explanations record their spans — three sinks
//! of one walk.

use microbrowse_ml::{CoupledDataset, CoupledExample, CoupledFeature, Dataset, Example, SparseVec};
use microbrowse_store::key::SnippetPos;
use microbrowse_store::{FeatureKey, StatsDb};
use microbrowse_text::{
    FxHashMap, Interner, NGramConfig, NGramExtractor, Sym, TermOccurrence, TokenizedSnippet,
};

use crate::classifier::ModelSpec;
use crate::corpus::CreativePair;
use crate::paircache::PairCache;
use crate::rewrite::{
    canonical_rewrite_key, is_canonical_order, RewriteConfig, RewriteExtraction, RewriteExtractor,
};
use crate::statsbuild::TokenizedCorpus;

/// A relevance-side classifier feature: a term phrase or a
/// direction-normalized rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermFeat {
    /// An n-gram phrase (feature value: +1 in R, −1 in S).
    Term(Sym),
    /// A rewrite between two phrases, stored in canonical (lexicographic)
    /// order; the value sign encodes the direction actually observed.
    Rewrite(Sym, Sym),
}

/// An interner-independent feature description, used to persist a trained
/// model's vocabulary (symbol ids are process-local; strings are not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OwnedTermFeat {
    /// An n-gram phrase.
    Term(String),
    /// A canonical-order rewrite.
    Rewrite(String, String),
}

/// Number of within-line position buckets for *term* position groups.
pub const TERM_POS_BUCKETS: u16 = 10;
/// Number of within-line position buckets for *rewrite* position groups
/// (coarser: the pair space is quadratic).
pub const REWRITE_POS_BUCKETS: u16 = 5;
/// Max lines participating in position groups (matches
/// [`microbrowse_text::snippet::MAX_LINES`]).
pub const POS_LINES: u16 = 8;

/// Maps snippet positions to coupled-model position-group indices and back.
///
/// Layout: term groups occupy `0 .. POS_LINES*TERM_POS_BUCKETS`; rewrite
/// position-pair groups follow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PositionVocab;

impl PositionVocab {
    /// Number of term position groups.
    pub const fn num_term_groups() -> u32 {
        (POS_LINES * TERM_POS_BUCKETS) as u32
    }

    /// Total number of position groups (terms + rewrite pairs).
    pub const fn num_groups() -> u32 {
        let rw_side = (POS_LINES * REWRITE_POS_BUCKETS) as u32;
        Self::num_term_groups() + rw_side * rw_side
    }

    /// Group index for a term occurrence.
    pub fn term_group(pos: SnippetPos) -> u32 {
        let line = u16::from(pos.line).min(POS_LINES - 1);
        let bucket = pos.pos.min(TERM_POS_BUCKETS - 1);
        u32::from(line * TERM_POS_BUCKETS + bucket)
    }

    /// Decode a term group back to `(line, bucket)` — used by the Figure 3
    /// report. Returns `None` for rewrite groups.
    pub fn decode_term_group(group: u32) -> Option<(u8, u16)> {
        if group >= Self::num_term_groups() {
            return None;
        }
        let line = group / u32::from(TERM_POS_BUCKETS);
        let bucket = group % u32::from(TERM_POS_BUCKETS);
        Some((line as u8, bucket as u16))
    }

    fn rewrite_side(pos: SnippetPos) -> u32 {
        let line = u16::from(pos.line).min(POS_LINES - 1);
        let bucket = pos.pos.min(REWRITE_POS_BUCKETS - 1);
        u32::from(line * REWRITE_POS_BUCKETS + bucket)
    }

    /// Group index for a rewrite position pair `(from, to)`.
    pub fn rewrite_group(from: SnippetPos, to: SnippetPos) -> u32 {
        let side = (POS_LINES * REWRITE_POS_BUCKETS) as u32;
        Self::num_term_groups() + Self::rewrite_side(from) * side + Self::rewrite_side(to)
    }

    /// Representative position (bucket midpoint = bucket start) for a term
    /// group, used when initializing position weights from stats.
    pub fn term_group_representative(group: u32) -> Option<SnippetPos> {
        Self::decode_term_group(group).map(|(line, bucket)| SnippetPos::new(line, bucket))
    }
}

/// One raw feature occurrence prior to encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RawFeature {
    feat: TermFeat,
    pos_group: u32,
    value: f64,
}

/// Which creative of the scored pair a span attribution anchors to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanSide {
    /// The R (first) creative.
    R,
    /// The S (second) creative.
    S,
}

/// One feature occurrence of a pair, as [`walk_features`] emits it: the
/// feature, how it enters the classifier, and the span it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PairFeature {
    /// The feature (canonical lexicographic order for rewrites), over the
    /// walk's interner.
    pub feat: TermFeat,
    /// The coupled-model position group of the occurrence.
    pub pos_group: u32,
    /// Antisymmetric feature value (+1 R-side, −1 S-side). For rewrites the
    /// sign additionally encodes the observed direction: `+1` means the
    /// observed `from` phrase is the canonical first phrase, `-1` that it
    /// is the canonical second.
    pub value: f64,
    /// Which creative the anchoring span lives in. Rewrites anchor to
    /// [`SpanSide::R`]: the observed `from` occurrence.
    pub side: SpanSide,
    /// Zero-based line of the anchoring span.
    pub line: u8,
    /// Zero-based token offset of the anchoring span within its line.
    pub pos: u16,
    /// For rewrites only: `(line, pos)` of the S-side (`to`) occurrence.
    pub to_span: Option<(u8, u16)>,
}

impl PairFeature {
    fn term(phrase: Sym, pos: SnippetPos, value: f64, side: SpanSide) -> Self {
        Self {
            feat: TermFeat::Term(phrase),
            pos_group: PositionVocab::term_group(pos),
            value,
            side,
            line: pos.line,
            pos: pos.pos,
            to_span: None,
        }
    }
}

/// The one feature walk of a pair (§IV-A): every occurrence `spec` turns
/// into a classifier feature, in a fixed order, handed to `sink`.
///
/// * With term features on: every n-gram occurrence of R (`+1`), then of S
///   (`−1`).
/// * With rewrite features on and an extraction given: each matched
///   rewrite in extraction order. A phrase that only *moved* carries pure
///   position information and becomes a positional term on each side;
///   any other rewrite becomes one canonical-order rewrite feature
///   anchored at its R-side occurrence, its value's sign the observed
///   direction. Then, unless term features already cover them, the
///   changed tokens no rewrite covered: R's leftovers (`+1`), then S's
///   (`−1`).
///
/// Canonical order is decided on resolved text, so the walk is the same
/// under any interner that resolves the symbols to the same strings. A
/// caller walks one family alone by passing empty occurrence slices or no
/// extraction.
pub(crate) fn walk_features(
    spec: &ModelSpec,
    interner: &Interner,
    r_occs: &[TermOccurrence],
    s_occs: &[TermOccurrence],
    ext: Option<&RewriteExtraction>,
    mut sink: impl FnMut(PairFeature),
) {
    if spec.terms {
        for (occs, value, side) in [(r_occs, 1.0, SpanSide::R), (s_occs, -1.0, SpanSide::S)] {
            for occ in occs {
                let pos = SnippetPos::new(occ.line, occ.pos);
                sink(PairFeature::term(occ.ngram.phrase, pos, value, side));
            }
        }
    }
    let Some(ext) = ext.filter(|_| spec.rewrites) else {
        return;
    };
    for rw in &ext.rewrites {
        let (from, to) = (&rw.from, &rw.to);
        if from.phrase == to.phrase {
            sink(PairFeature::term(from.phrase, from.pos, 1.0, SpanSide::R));
            sink(PairFeature::term(to.phrase, to.pos, -1.0, SpanSide::S));
            continue;
        }
        let canonical =
            is_canonical_order(interner.resolve(from.phrase), interner.resolve(to.phrase));
        let (feat, value, pos_group) = if canonical {
            (
                TermFeat::Rewrite(from.phrase, to.phrase),
                1.0,
                PositionVocab::rewrite_group(from.pos, to.pos),
            )
        } else {
            (
                TermFeat::Rewrite(to.phrase, from.phrase),
                -1.0,
                PositionVocab::rewrite_group(to.pos, from.pos),
            )
        };
        sink(PairFeature {
            feat,
            pos_group,
            value,
            side: SpanSide::R,
            line: from.pos.line,
            pos: from.pos.pos,
            to_span: Some((to.pos.line, to.pos.pos)),
        });
    }
    if !spec.terms {
        for (leftovers, value, side) in [
            (&ext.r_leftover, 1.0, SpanSide::R),
            (&ext.s_leftover, -1.0, SpanSide::S),
        ] {
            for occ in leftovers {
                sink(PairFeature::term(occ.phrase, occ.pos, value, side));
            }
        }
    }
}

/// Sum the values of equal (position group, term) keys and drop exact
/// zeros, leaving `occs` sorted by key: the coupled encoding of a pair's
/// walk. Occurrences both sides share at the same position cancel here;
/// they would otherwise dominate the list (most n-grams of a pair are
/// common). Walk values are ±1, so every sum is exact in any order, and
/// training and scoring, which both aggregate here, agree bit for bit.
pub(crate) fn aggregate(occs: &mut Vec<CoupledFeature>) {
    occs.sort_unstable_by_key(|f| (f.pos, f.term));
    occs.dedup_by(|next, kept| {
        let same = (next.pos, next.term) == (kept.pos, kept.term);
        if same {
            kept.value += next.value;
        }
        same
    });
    occs.retain(|f| f.value != 0.0);
}

/// Encoded data for one model spec: exactly one of the two encodings.
#[derive(Debug, Clone)]
pub enum EncodedData {
    /// Flat sparse dataset (M1/M3/M5).
    Flat(Dataset),
    /// Factorized dataset (M2/M4/M6).
    Coupled(CoupledDataset),
}

impl EncodedData {
    /// Number of encoded examples.
    pub fn len(&self) -> usize {
        match self {
            EncodedData::Flat(d) => d.len(),
            EncodedData::Coupled(d) => d.len(),
        }
    }

    /// Whether no examples were encoded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Featurizer: turns tokenized creative pairs into classifier examples,
/// growing a term-feature vocabulary as it goes.
#[derive(Debug)]
pub struct Featurizer<'a> {
    spec: ModelSpec,
    stats: &'a StatsDb,
    ngram: NGramExtractor,
    rewriter: RewriteExtractor,
    term_ids: FxHashMap<TermFeat, u32>,
    term_feats: Vec<TermFeat>,
}

impl<'a> Featurizer<'a> {
    /// Create a featurizer for `spec`, consulting `stats` for greedy rewrite
    /// matching and (later) weight initialization.
    pub fn new(spec: ModelSpec, stats: &'a StatsDb) -> Self {
        Self::with_configs(
            spec,
            stats,
            NGramConfig::default(),
            RewriteConfig::default(),
        )
    }

    /// Create with explicit n-gram and rewrite configurations.
    pub fn with_configs(
        spec: ModelSpec,
        stats: &'a StatsDb,
        ngram: NGramConfig,
        rewrite: RewriteConfig,
    ) -> Self {
        Self {
            spec,
            stats,
            ngram: NGramExtractor::new(ngram),
            rewriter: RewriteExtractor::new(rewrite),
            term_ids: FxHashMap::default(),
            term_feats: Vec::new(),
        }
    }

    /// Current vocabulary size (term-feature ids allocated so far).
    pub fn vocab_len(&self) -> usize {
        self.term_feats.len()
    }

    /// Export the vocabulary in id order as interner-independent strings
    /// (for model persistence; see `crate::serve`).
    pub fn export_vocab(&self, interner: &Interner) -> Vec<OwnedTermFeat> {
        self.term_feats
            .iter()
            .map(|feat| match feat {
                TermFeat::Term(sym) => OwnedTermFeat::Term(interner.resolve(*sym).to_owned()),
                TermFeat::Rewrite(a, b) => OwnedTermFeat::Rewrite(
                    interner.resolve(*a).to_owned(),
                    interner.resolve(*b).to_owned(),
                ),
            })
            .collect()
    }

    /// Pre-populate the vocabulary from an exported list, so feature ids
    /// match the model the vocabulary was exported with. Must be called on
    /// a fresh featurizer (panics otherwise — mixing id spaces would
    /// silently mis-score).
    pub fn preload_vocab(&mut self, vocab: &[OwnedTermFeat], interner: &mut Interner) {
        assert!(
            self.term_feats.is_empty(),
            "preload_vocab requires a fresh featurizer"
        );
        for owned in vocab {
            let feat = match owned {
                OwnedTermFeat::Term(t) => TermFeat::Term(interner.intern(t)),
                OwnedTermFeat::Rewrite(a, b) => {
                    TermFeat::Rewrite(interner.intern(a), interner.intern(b))
                }
            };
            self.feat_id(feat);
        }
    }

    fn feat_id(&mut self, feat: TermFeat) -> u32 {
        if let Some(&id) = self.term_ids.get(&feat) {
            return id;
        }
        let id = self.term_feats.len() as u32;
        self.term_feats.push(feat);
        self.term_ids.insert(feat, id);
        id
    }

    /// Walk one pair into raw (unencoded) features.
    fn walk(
        &self,
        r_occs: &[TermOccurrence],
        s_occs: &[TermOccurrence],
        ext: Option<&RewriteExtraction>,
        interner: &Interner,
    ) -> Vec<RawFeature> {
        let mut raw = Vec::new();
        walk_features(&self.spec, interner, r_occs, s_occs, ext, |f| {
            raw.push(RawFeature {
                feat: f.feat,
                pos_group: f.pos_group,
                value: f.value,
            })
        });
        raw
    }

    /// Collect the raw features for one pair, extracting as needed.
    fn collect(
        &self,
        r: &TokenizedSnippet,
        s: &TokenizedSnippet,
        interner: &mut Interner,
    ) -> Vec<RawFeature> {
        let (r_occs, s_occs) = if self.spec.terms {
            (
                self.ngram.extract(r, interner),
                self.ngram.extract(s, interner),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let ext = self
            .spec
            .rewrites
            .then(|| self.rewriter.extract(r, s, self.stats, interner));
        self.walk(&r_occs, &s_occs, ext.as_ref(), interner)
    }

    /// Collect raw features through the shared preprocessing cache: cached
    /// n-gram occurrences replace re-extraction and the cached alignment
    /// replaces the per-pair LCS diff, so no interning happens at all and
    /// `interner` can be shared immutably across worker threads.
    fn collect_cached(
        &self,
        idx: usize,
        pair: &CreativePair,
        tc: &TokenizedCorpus,
        cache: &PairCache,
        interner: &Interner,
    ) -> Vec<RawFeature> {
        let ext = self.spec.rewrites.then(|| {
            self.rewriter.extract_prepared(
                tc.snippet(pair.r),
                tc.snippet(pair.s),
                cache.prepared(idx),
                self.stats,
                interner,
            )
        });
        self.walk(
            cache.term_occs(pair.r),
            cache.term_occs(pair.s),
            ext.as_ref(),
            interner,
        )
    }

    /// Assign vocabulary ids to one pair's raw features and finish the flat
    /// encoding. Must be called in pair order: id assignment is
    /// encounter-ordered.
    fn finish_flat(&mut self, raw: Vec<RawFeature>, label: bool) -> Example {
        let pairs: Vec<(u32, f64)> = raw
            .into_iter()
            .map(|f| (self.feat_id(f.feat), f.value))
            .collect();
        Example::new(SparseVec::from_pairs(pairs), label)
    }

    /// Assign vocabulary ids and finish the coupled encoding (see
    /// [`Self::finish_flat`] for the ordering contract).
    fn finish_coupled(&mut self, raw: Vec<RawFeature>, label: bool) -> CoupledExample {
        let mut occs: Vec<CoupledFeature> = raw
            .into_iter()
            .map(|f| CoupledFeature {
                pos: f.pos_group,
                term: self.feat_id(f.feat),
                value: f.value,
            })
            .collect();
        aggregate(&mut occs);
        // Keep a compact copy, not the walk's buffer: aggregation leaves most
        // of its length spare, and training sweeps every example many times
        // (shrinking in place measured as slow as keeping the spare room).
        CoupledExample {
            occs: occs.to_vec(),
            label,
        }
    }

    /// Encode one pair as a flat sparse example.
    pub fn encode_flat(
        &mut self,
        r: &TokenizedSnippet,
        s: &TokenizedSnippet,
        label: bool,
        interner: &mut Interner,
    ) -> Example {
        let raw = self.collect(r, s, interner);
        self.finish_flat(raw, label)
    }

    /// Encode one pair as a factorized (coupled) example.
    pub fn encode_coupled(
        &mut self,
        r: &TokenizedSnippet,
        s: &TokenizedSnippet,
        label: bool,
        interner: &mut Interner,
    ) -> CoupledExample {
        let raw = self.collect(r, s, interner);
        self.finish_coupled(raw, label)
    }

    /// Encode the pairs selected by `idxs` (indices into `pairs` and
    /// `cache`) through the shared preprocessing cache.
    ///
    /// Raw-feature collection is a pure function of the cached pair (no
    /// interning), so it fans out over up to `threads` workers; vocabulary
    /// ids are then assigned serially in input order. The result is
    /// therefore bit-identical to the serial encoding at any thread count,
    /// and identical to encoding each pair with [`Self::encode_flat`] or
    /// [`Self::encode_coupled`] in the same order.
    pub fn encode_pairs_cached(
        &mut self,
        pairs: &[CreativePair],
        idxs: &[usize],
        tc: &TokenizedCorpus,
        cache: &PairCache,
        interner: &Interner,
        threads: usize,
    ) -> EncodedData {
        let this: &Featurizer<'_> = self;
        let raws: Vec<Vec<RawFeature>> = microbrowse_par::par_map(idxs, threads, |_, &i| {
            this.collect_cached(i, &pairs[i], tc, cache, interner)
        });
        if self.spec.positions {
            let mut d = CoupledDataset::with_dims(PositionVocab::num_groups() as usize, 0);
            for (raw, &i) in raws.into_iter().zip(idxs) {
                d.push(self.finish_coupled(raw, pairs[i].r_better));
            }
            EncodedData::Coupled(d)
        } else {
            let mut d = Dataset::with_dim(0);
            for (raw, &i) in raws.into_iter().zip(idxs) {
                d.push(self.finish_flat(raw, pairs[i].r_better));
            }
            EncodedData::Flat(d)
        }
    }

    /// Initial relevance weights from the statistics database (the "+init"
    /// of §V-D): log odds per vocabulary feature; 0 for unseen features and
    /// for features with fewer than `min_support` observations (a one-off
    /// observation smoothed with α = 1 would otherwise start at ±0.7 and
    /// thousands of such rare-context n-grams add pure variance).
    pub fn init_term_weights(&self, interner: &Interner, alpha: f64, min_support: u64) -> Vec<f64> {
        let lookup = |key: &FeatureKey| -> f64 {
            match self.stats.get(key) {
                Some(stat) if stat.total() >= min_support => stat.log_odds(alpha),
                _ => 0.0,
            }
        };
        self.term_feats
            .iter()
            .map(|feat| match feat {
                TermFeat::Term(sym) => lookup(&FeatureKey::term(interner.resolve(*sym))),
                TermFeat::Rewrite(a, b) => lookup(&canonical_rewrite_key(
                    interner.resolve(*a),
                    interner.resolve(*b),
                )),
            })
            .collect()
    }

    /// Initial position weights from the statistics database: the odds
    /// ratio of each position's `delta-sw` statistic (1.0 — neutral — when
    /// unseen), matching §V-C's position features.
    pub fn init_pos_weights(&self, alpha: f64) -> Vec<f64> {
        (0..PositionVocab::num_groups())
            .map(|g| match PositionVocab::term_group_representative(g) {
                Some(pos) => self
                    .stats
                    .get(&FeatureKey::TermPosition(pos))
                    .map_or(1.0, |s| s.odds(alpha)),
                // Rewrite position pairs: look up the canonical pair stat.
                None => 1.0,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microbrowse_text::{Snippet, Tokenizer};

    fn snip(interner: &mut Interner, lines: &[&str]) -> TokenizedSnippet {
        Snippet::from_lines(lines.iter().copied()).tokenize(&Tokenizer::default(), interner)
    }

    /// Every walked feature of one pair, extracted as the featurizer does.
    fn walked(
        fz: &Featurizer<'_>,
        r: &TokenizedSnippet,
        s: &TokenizedSnippet,
        interner: &mut Interner,
    ) -> Vec<PairFeature> {
        let r_occs = fz.ngram.extract(r, interner);
        let s_occs = fz.ngram.extract(s, interner);
        let ext = fz.rewriter.extract(r, s, fz.stats, interner);
        let mut out = Vec::new();
        walk_features(&fz.spec, interner, &r_occs, &s_occs, Some(&ext), |f| {
            out.push(f)
        });
        out
    }

    fn m(terms: bool, rewrites: bool, positions: bool) -> ModelSpec {
        ModelSpec {
            name: "test",
            terms,
            rewrites,
            positions,
            init_from_stats: true,
        }
    }

    #[test]
    fn position_vocab_round_trips() {
        for line in 0..POS_LINES as u8 {
            for pos in 0..TERM_POS_BUCKETS {
                let g = PositionVocab::term_group(SnippetPos::new(line, pos));
                assert_eq!(PositionVocab::decode_term_group(g), Some((line, pos)));
            }
        }
        // Out-of-range positions clamp into the last bucket.
        let g = PositionVocab::term_group(SnippetPos::new(0, 500));
        assert_eq!(
            PositionVocab::decode_term_group(g),
            Some((0, TERM_POS_BUCKETS - 1))
        );
        // Rewrite groups sit above term groups and never decode as terms.
        let rg = PositionVocab::rewrite_group(SnippetPos::new(0, 0), SnippetPos::new(1, 2));
        assert!(rg >= PositionVocab::num_term_groups());
        assert_eq!(PositionVocab::decode_term_group(rg), None);
        assert!(rg < PositionVocab::num_groups());
    }

    #[test]
    fn antisymmetry_flat() {
        let stats = StatsDb::new();
        let mut interner = Interner::new();
        let r = snip(&mut interner, &["find cheap flights"]);
        let s = snip(&mut interner, &["get discounts flights"]);
        let mut fz = Featurizer::new(m(true, true, false), &stats);
        let ex_rs = fz.encode_flat(&r, &s, true, &mut interner);
        let ex_sr = fz.encode_flat(&s, &r, false, &mut interner);
        // Same features, negated values.
        let neg: Vec<(u32, f64)> = ex_sr.features.iter().map(|(i, v)| (i, -v)).collect();
        let rs: Vec<(u32, f64)> = ex_rs.features.iter().collect();
        assert_eq!(rs, neg);
    }

    #[test]
    fn antisymmetry_coupled() {
        let stats = StatsDb::new();
        let mut interner = Interner::new();
        let r = snip(&mut interner, &["hotels", "book cheap rooms today"]);
        let s = snip(&mut interner, &["hotels", "book luxury rooms today"]);
        let mut fz = Featurizer::new(m(false, true, true), &stats);
        let ex_rs = fz.encode_coupled(&r, &s, true, &mut interner);
        let ex_sr = fz.encode_coupled(&s, &r, false, &mut interner);
        // Multisets of (pos, term, value) match after negating one side.
        let mut a: Vec<(u32, u32, i64)> = ex_rs
            .occs
            .iter()
            .map(|o| (o.pos, o.term, (o.value * 1000.0) as i64))
            .collect();
        let mut b: Vec<(u32, u32, i64)> = ex_sr
            .occs
            .iter()
            .map(|o| (o.pos, o.term, (-o.value * 1000.0) as i64))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn identical_snippets_encode_to_nothing_flat() {
        let stats = StatsDb::new();
        let mut interner = Interner::new();
        let r = snip(&mut interner, &["same text here"]);
        let mut fz = Featurizer::new(m(true, true, false), &stats);
        let ex = fz.encode_flat(&r, &r.clone(), true, &mut interner);
        assert!(
            ex.features.is_empty(),
            "shared terms must cancel: {:?}",
            ex.features
        );
    }

    #[test]
    fn terms_only_spec_has_no_rewrite_feats() {
        let stats = StatsDb::new();
        let mut interner = Interner::new();
        let r = snip(&mut interner, &["find cheap flights"]);
        let s = snip(&mut interner, &["get discounts flights"]);
        let mut fz = Featurizer::new(m(true, false, false), &stats);
        let _ = fz.encode_flat(&r, &s, true, &mut interner);
        assert!(fz.term_feats.iter().all(|f| matches!(f, TermFeat::Term(_))));
    }

    #[test]
    fn rewrites_only_spec_emits_rewrite_and_leftovers() {
        let stats = StatsDb::new();
        let mut interner = Interner::new();
        let r = snip(&mut interner, &["find cheap flights"]);
        let s = snip(&mut interner, &["get discounts flights"]);
        let mut fz = Featurizer::new(m(false, true, false), &stats);
        let ex = fz.encode_flat(&r, &s, true, &mut interner);
        assert!(!ex.features.is_empty());
        assert!(fz
            .term_feats
            .iter()
            .any(|f| matches!(f, TermFeat::Rewrite(_, _))));
    }

    #[test]
    fn explain_records_project_to_the_flat_encoding() {
        let stats = StatsDb::new();
        let mut interner = Interner::new();
        let r = snip(&mut interner, &["find cheap flights", "best deals"]);
        let s = snip(&mut interner, &["get discounts flights", "best deals"]);
        for spec in [m(true, true, false), m(false, true, false)] {
            let mut enc_fz = Featurizer::new(spec, &stats);
            let ex = enc_fz.encode_flat(&r, &s, true, &mut interner);
            let mut exp_fz = Featurizer::new(spec, &stats);
            let recs = walked(&exp_fz, &r, &s, &mut interner);
            let mut sums: std::collections::BTreeMap<u32, f64> = Default::default();
            for rec in &recs {
                *sums.entry(exp_fz.feat_id(rec.feat)).or_insert(0.0) += rec.value;
            }
            assert_eq!(enc_fz.vocab_len(), exp_fz.vocab_len(), "{}", spec.name);
            sums.retain(|_, v| *v != 0.0);
            let want: std::collections::BTreeMap<u32, f64> = ex.features.iter().collect();
            assert_eq!(sums, want, "{}", spec.name);
        }
    }

    #[test]
    fn explain_rewrite_records_carry_both_spans() {
        let stats = StatsDb::new();
        let mut interner = Interner::new();
        let r = snip(&mut interner, &["find cheap flights"]);
        let s = snip(&mut interner, &["find pricey flights"]);
        let fz = Featurizer::new(m(false, true, false), &stats);
        let recs = walked(&fz, &r, &s, &mut interner);
        let rewrite = recs
            .iter()
            .find(|rec| matches!(rec.feat, TermFeat::Rewrite(_, _)))
            .expect("one rewrite record");
        assert_eq!(rewrite.side, SpanSide::R);
        assert!(rewrite.to_span.is_some());
        // "cheap" -> "pricey" is canonical order, so the observed
        // direction keeps value +1.
        assert_eq!(rewrite.value, 1.0);
    }

    #[test]
    fn init_weights_come_from_stats() {
        let mut stats = StatsDb::new();
        for _ in 0..20 {
            stats.record(FeatureKey::term("cheap"), true);
        }
        for _ in 0..20 {
            stats.record(FeatureKey::term("expensive"), false);
        }
        let mut interner = Interner::new();
        let r = snip(&mut interner, &["cheap"]);
        let s = snip(&mut interner, &["expensive"]);
        let mut fz = Featurizer::new(m(true, false, false), &stats);
        let ex = fz.encode_flat(&r, &s, true, &mut interner);
        let init = fz.init_term_weights(&interner, 1.0, 1);
        // "cheap" got +1 value and positive log-odds; "expensive" −1 value
        // and negative log-odds — the initialized score is already positive.
        let score: f64 = ex.features.iter().map(|(i, v)| init[i as usize] * v).sum();
        assert!(score > 0.0, "init score {score}");
    }

    #[test]
    fn init_pos_weights_default_to_neutral() {
        let stats = StatsDb::new();
        let fz = Featurizer::new(m(true, false, true), &stats);
        let w = fz.init_pos_weights(1.0);
        assert_eq!(w.len(), PositionVocab::num_groups() as usize);
        assert!(w.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    /// Two adgroups of two creatives each, their qualifying pairs, the
    /// pairs' preprocessing cache and the statistics database over them.
    fn cached_fixture() -> (TokenizedCorpus, Vec<CreativePair>, PairCache, StatsDb) {
        use crate::corpus::{
            AdCorpus, AdGroup, AdGroupId, Creative, CreativeId, PairFilter, Placement,
        };
        use crate::statsbuild::{build_stats, StatsBuildConfig};

        let make = |gid: u64, base: u64, head: &str| AdGroup {
            id: AdGroupId(gid),
            keyword: "flights".into(),
            placement: Placement::Top,
            creatives: vec![
                Creative {
                    id: CreativeId(base),
                    snippet: Snippet::creative("XYZ Air", head, "great rates today"),
                    impressions: 10_000,
                    clicks: 900,
                },
                Creative {
                    id: CreativeId(base + 1),
                    snippet: Snippet::creative("XYZ Air", "book pricey flights", "fees may apply"),
                    impressions: 10_000,
                    clicks: 300,
                },
            ],
        };
        let corpus = AdCorpus {
            adgroups: vec![
                make(0, 0, "book cheap flights"),
                make(1, 10, "find cheap flights now"),
            ],
        };
        let mut tc = TokenizedCorpus::build(&corpus);
        let pairs = corpus.extract_pairs(&PairFilter::default());
        let stats_cfg = StatsBuildConfig::default();
        let cache = PairCache::build(
            &mut tc,
            &pairs,
            stats_cfg.ngram,
            RewriteConfig::default(),
            stats_cfg.max_rewrite_len,
        );
        let stats = build_stats(&tc, &pairs, &stats_cfg);
        (tc, pairs, cache, stats)
    }

    #[test]
    fn cached_encoding_picks_encoding_by_spec() {
        let (tc, pairs, cache, stats) = cached_fixture();
        let idxs: Vec<usize> = (0..pairs.len()).collect();
        let mut flat_fz = Featurizer::new(m(true, false, false), &stats);
        assert!(matches!(
            flat_fz.encode_pairs_cached(&pairs, &idxs, &tc, &cache, &tc.interner, 1),
            EncodedData::Flat(_)
        ));
        let mut pos_fz = Featurizer::new(m(true, false, true), &stats);
        assert!(matches!(
            pos_fz.encode_pairs_cached(&pairs, &idxs, &tc, &cache, &tc.interner, 1),
            EncodedData::Coupled(_)
        ));
    }

    #[test]
    fn vocab_is_shared_across_examples() {
        let stats = StatsDb::new();
        let mut interner = Interner::new();
        let a = snip(&mut interner, &["cheap flights"]);
        let b = snip(&mut interner, &["luxury flights"]);
        let mut fz = Featurizer::new(m(true, false, false), &stats);
        let e1 = fz.encode_flat(&a, &b, true, &mut interner);
        let e2 = fz.encode_flat(&b, &a, false, &mut interner);
        let v1 = fz.vocab_len();
        // Second encoding must not have grown the vocabulary.
        let _ = (e1, e2);
        let e3 = fz.encode_flat(&a, &b, true, &mut interner);
        assert_eq!(fz.vocab_len(), v1);
        let _ = e3;
    }

    #[test]
    fn cached_encoding_matches_batch_encoding() {
        let (tc, pairs, cache, stats) = cached_fixture();
        let toks: Vec<(TokenizedSnippet, TokenizedSnippet, bool)> = pairs
            .iter()
            .map(|p| (tc.snippet(p.r).clone(), tc.snippet(p.s).clone(), p.r_better))
            .collect();
        let idxs: Vec<usize> = (0..pairs.len()).collect();

        for spec in [
            m(true, true, false),
            m(true, true, true),
            m(false, true, true),
        ] {
            // The oracle: every pair encoded on its own, extracting as it
            // goes, into a growing copy of the interner.
            let mut batch_interner = tc.interner.clone();
            let mut batch_fz = Featurizer::new(spec, &stats);
            let batch = if spec.positions {
                let mut d = CoupledDataset::with_dims(PositionVocab::num_groups() as usize, 0);
                for (r, s, label) in &toks {
                    d.push(batch_fz.encode_coupled(r, s, *label, &mut batch_interner));
                }
                EncodedData::Coupled(d)
            } else {
                let mut d = Dataset::with_dim(0);
                for (r, s, label) in &toks {
                    d.push(batch_fz.encode_flat(r, s, *label, &mut batch_interner));
                }
                EncodedData::Flat(d)
            };

            let mut cached_fz = Featurizer::new(spec, &stats);
            for threads in [1, 3] {
                let cached = cached_fz.encode_pairs_cached(
                    &pairs,
                    &idxs,
                    &tc,
                    &cache,
                    &tc.interner,
                    threads,
                );
                match (&batch, &cached) {
                    (EncodedData::Flat(a), EncodedData::Flat(b)) => {
                        assert_eq!(a.examples(), b.examples(), "spec {:?}", spec.name);
                    }
                    (EncodedData::Coupled(a), EncodedData::Coupled(b)) => {
                        assert_eq!(a.examples(), b.examples(), "spec {:?}", spec.name);
                    }
                    _ => panic!("encoding kind diverged for spec {:?}", spec.name),
                }
            }
            assert_eq!(batch_fz.vocab_len(), cached_fz.vocab_len());
        }
    }
}
