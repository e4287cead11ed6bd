//! Snippet diffing and rewrite matching (§IV-A "Rewrite Features").
//!
//! Given two creatives of the same adgroup, the rewrite extractor answers:
//! *which phrase of R was rewritten into which phrase of S?* The paper's
//! example: between "Find cheap flights to New York." and "Flying to New
//! York? Get discounts." the best matching is "find cheap" → "get
//! discounts" and "flights" → "flying".
//!
//! The implementation follows the paper's two-step recipe:
//!
//! 1. **Diff.** A token-level LCS alignment per snippet line isolates the
//!    *changed spans* — maximal runs of tokens not shared between the two
//!    lines ([`token_diff`], [`changed_spans`]).
//! 2. **Greedy matching.** "Finding out which phrase in R matches to which
//!    corresponding phrase in S is a combinatorial problem in general … we
//!    greedily match terms in R with corresponding terms in S that have a
//!    high score in the rewrite database." Candidate sub-phrases (up to
//!    trigrams) from the R-span are paired with candidates from the S-span,
//!    scored by the rewrite statistics database, and accepted greedily
//!    without overlap. Tokens left uncovered "are added as individual
//!    term-level features" — the leftover lists.

use microbrowse_store::key::SnippetPos;
use microbrowse_store::{FeatureKey, FeatureStat, StatsDb};
use microbrowse_text::{Interner, Sym, TokenizedSnippet};

/// One aligned edit region produced by [`token_diff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffOp {
    /// `len` tokens equal on both sides, starting at `a`/`b` respectively.
    Equal {
        /// Start index on the A side.
        a: usize,
        /// Start index on the B side.
        b: usize,
        /// Number of matching tokens.
        len: usize,
    },
    /// Tokens `a` on side A were replaced by tokens `b` on side B (either
    /// range, but not both, may be empty — insertion/deletion).
    Replace {
        /// Replaced range on the A side.
        a: std::ops::Range<usize>,
        /// Replacement range on the B side.
        b: std::ops::Range<usize>,
    },
}

/// Token-level diff of two symbol slices via longest-common-subsequence
/// alignment. Output ops cover both inputs exactly, in order, with `Equal`
/// and `Replace` alternating.
pub fn token_diff(a: &[Sym], b: &[Sym]) -> Vec<DiffOp> {
    // LCS lengths table (lines are short; O(nm) is fine and exact).
    let (n, m) = (a.len(), b.len());
    let mut lcs = vec![0u32; (n + 1) * (m + 1)];
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[idx(i, j)] = if a[i] == b[j] {
                lcs[idx(i + 1, j + 1)] + 1
            } else {
                lcs[idx(i + 1, j)].max(lcs[idx(i, j + 1)])
            };
        }
    }

    let mut ops = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    let mut rep_a_start = 0usize;
    let mut rep_b_start = 0usize;
    let mut in_replace = false;

    let flush_replace = |ops: &mut Vec<DiffOp>, ra: usize, rb: usize, i: usize, j: usize| {
        if ra != i || rb != j {
            ops.push(DiffOp::Replace { a: ra..i, b: rb..j });
        }
    };

    while i < n && j < m {
        if a[i] == b[j] {
            if in_replace {
                flush_replace(&mut ops, rep_a_start, rep_b_start, i, j);
                in_replace = false;
            }
            // Extend or start an Equal run.
            match ops.last_mut() {
                Some(DiffOp::Equal { a: ea, b: eb, len }) if *ea + *len == i && *eb + *len == j => {
                    *len += 1;
                }
                _ => ops.push(DiffOp::Equal { a: i, b: j, len: 1 }),
            }
            i += 1;
            j += 1;
        } else {
            if !in_replace {
                rep_a_start = i;
                rep_b_start = j;
                in_replace = true;
            }
            // Advance the side whose skip preserves the LCS.
            if lcs[idx(i + 1, j)] >= lcs[idx(i, j + 1)] {
                i += 1;
            } else {
                j += 1;
            }
        }
    }
    if in_replace {
        flush_replace(&mut ops, rep_a_start, rep_b_start, n.min(i), m.min(j));
        // Extend the trailing replace with any remainder.
        if let Some(DiffOp::Replace { a: ra, b: rb }) = ops.last_mut() {
            ra.end = n;
            rb.end = m;
        }
        return ops;
    }
    if i < n || j < m {
        ops.push(DiffOp::Replace { a: i..n, b: j..m });
    }
    ops
}

/// The aligned changed-span pairs of a diff (the `Replace` ops).
pub fn changed_spans(ops: &[DiffOp]) -> Vec<(std::ops::Range<usize>, std::ops::Range<usize>)> {
    ops.iter()
        .filter_map(|op| match op {
            DiffOp::Replace { a, b } => Some((a.clone(), b.clone())),
            DiffOp::Equal { .. } => None,
        })
        .collect()
}

/// A phrase occurrence inside one snippet: the interned phrase, where it
/// starts, and how many tokens it spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhraseOcc {
    /// Interned space-joined phrase.
    pub phrase: Sym,
    /// Position of the phrase's first token.
    pub pos: SnippetPos,
    /// Number of tokens in the phrase.
    pub len: u8,
}

/// A matched rewrite: `from` in R became `to` in S.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RewritePair {
    /// The R-side phrase occurrence.
    pub from: PhraseOcc,
    /// The S-side phrase occurrence.
    pub to: PhraseOcc,
}

/// Result of rewrite extraction over a snippet pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RewriteExtraction {
    /// Matched phrase rewrites.
    pub rewrites: Vec<RewritePair>,
    /// Changed R-side tokens not covered by a rewrite (emitted as unigrams).
    pub r_leftover: Vec<PhraseOcc>,
    /// Changed S-side tokens not covered by a rewrite (emitted as unigrams).
    pub s_leftover: Vec<PhraseOcc>,
}

impl RewriteExtraction {
    /// Whether the pair differs in exactly one aligned span on each side and
    /// that difference was captured as a single rewrite — the unambiguous
    /// pairs the statistics database is seeded from.
    pub fn is_single_rewrite(&self) -> bool {
        self.rewrites.len() == 1 && self.r_leftover.is_empty() && self.s_leftover.is_empty()
    }
}

/// How candidate phrases inside a changed span are matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchStrategy {
    /// The paper's algorithm: enumerate sub-phrases of both spans, score
    /// each `(from, to)` candidate by the rewrite statistics database, and
    /// accept greedily by descending score. Falls back to whole-span
    /// matching when the database has no evidence at all for a span pair.
    #[default]
    GreedyStats,
    /// Ablation: always match the whole R-span to the whole S-span (no
    /// database, no sub-phrase search).
    WholeSpan,
    /// Ablation: no rewrite matching; every changed token becomes a
    /// leftover term.
    NoMatch,
}

/// Configuration for [`RewriteExtractor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewriteConfig {
    /// Longest phrase (in tokens) considered on either side of a rewrite.
    pub max_phrase_len: usize,
    /// Matching strategy.
    pub strategy: MatchStrategy,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        Self {
            max_phrase_len: 3,
            strategy: MatchStrategy::GreedyStats,
        }
    }
}

/// One candidate phrase inside a changed span: where it starts in the line,
/// how many tokens it covers, and its interned space-joined symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CandPhrase {
    start: usize,
    len: usize,
    phrase: Sym,
}

/// The prepared alignment of one snippet line: its changed spans plus the
/// interned candidate phrases of each side.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PreparedLine {
    line: u8,
    spans: Vec<(std::ops::Range<usize>, std::ops::Range<usize>)>,
    r_cands: Vec<CandPhrase>,
    s_cands: Vec<CandPhrase>,
}

/// Stats-independent preparation of a snippet pair: per-line changed spans
/// (in canonical R/S orientation) and candidate phrases with every phrase
/// already interned.
///
/// Computing this — the LCS alignment plus phrase joining/interning — is
/// the expensive, interner-mutating part of rewrite extraction, and it
/// depends only on the two snippets. The experiment engine therefore builds
/// it once per pair ([`crate::paircache`]) and replays it against many
/// statistics databases via [`RewriteExtractor::extract_prepared`], which
/// needs only a shared immutable interner.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PreparedPair {
    lines: Vec<PreparedLine>,
}

/// Compute the [`PreparedPair`] for `(r, s)`.
///
/// Candidate phrases cover every changed span: all sub-phrases up to
/// `max_cand_len` tokens when `all_subphrases` (needed for greedy matching),
/// or just whole spans of at most `max_cand_len` tokens otherwise (enough
/// for whole-span matching). Lines are aligned by index, a missing line
/// diffing against the empty token list, exactly as in
/// [`RewriteExtractor::extract`].
pub fn prepare_pair(
    r: &TokenizedSnippet,
    s: &TokenizedSnippet,
    max_cand_len: usize,
    all_subphrases: bool,
    interner: &mut Interner,
) -> PreparedPair {
    let mut lines = Vec::new();
    // One buffer joins every multi-token candidate phrase of the pair.
    let mut phrase = String::new();
    let num_lines = r.lines.len().max(s.lines.len());
    static EMPTY: &[Sym] = &[];
    for line in 0..num_lines {
        let ra: &[Sym] = r.lines.get(line).map_or(EMPTY, |v| v);
        let sb: &[Sym] = s.lines.get(line).map_or(EMPTY, |v| v);
        if ra == sb {
            // Identical lines diff to no changed span: skip the LCS table.
            continue;
        }
        // LCS tie-breaking depends on argument order; diff in a canonical
        // direction (and swap the spans back) so extraction — and therefore
        // every downstream feature — is exactly antisymmetric under an R/S
        // swap. The direction is decided on resolved token *text*, never on
        // `Sym` ids: training interns in corpus order and a serving scratch
        // over its bundle vocabulary, so only text orders both alike.
        let swapped = lt_by_text(sb, ra, interner);
        let spans = if swapped {
            let ops = token_diff(sb, ra);
            changed_spans(&ops)
                .into_iter()
                .map(|(a, b)| (b, a))
                .collect::<Vec<_>>()
        } else {
            changed_spans(&token_diff(ra, sb))
        };
        if spans.is_empty() {
            continue;
        }
        let r_cands = enumerate_cands(
            &mut spans.iter().map(|(a, _)| a.clone()),
            ra,
            max_cand_len,
            all_subphrases,
            &mut phrase,
            interner,
        );
        let s_cands = enumerate_cands(
            &mut spans.iter().map(|(_, b)| b.clone()),
            sb,
            max_cand_len,
            all_subphrases,
            &mut phrase,
            interner,
        );
        lines.push(PreparedLine {
            line: line as u8,
            spans,
            r_cands,
            s_cands,
        });
    }
    PreparedPair { lines }
}

/// Lexicographic "less than" over two token slices, ordering tokens by
/// their resolved text (resolution is skipped while the symbols are equal —
/// one interner maps equal symbols to equal strings). A total order on
/// token sequences, so exactly one direction is "less" for any unequal
/// pair. Unlike a `Sym`-id comparison this is *interner-independent*: two
/// interners that met the same vocabulary in different orders number it
/// differently but resolve it identically.
fn lt_by_text(a: &[Sym], b: &[Sym], interner: &Interner) -> bool {
    for (x, y) in a.iter().zip(b.iter()) {
        if x != y {
            return interner.resolve(*x) < interner.resolve(*y);
        }
    }
    a.len() < b.len()
}

/// Source of greedy-matching evidence: for a candidate `(from, to)` phrase
/// pair, the greedy score when the statistics database holds the canonical
/// rewrite key, `None` otherwise.
///
/// The returned score must equal [`greedy_candidate_score`] applied to the
/// canonical key's [`FeatureStat`]; implementations either compute it on
/// the fly ([`StatsEvidence`]) or return a value precomputed from the same
/// expression (the serving engine's compiled table).
pub trait RewriteEvidence {
    /// Greedy score for the candidate pair, if evidence exists.
    fn candidate_score(&self, from: Sym, to: Sym, interner: &Interner) -> Option<f64>;
}

/// The classic [`RewriteEvidence`]: resolve both phrases, build the
/// canonical [`FeatureKey`], and hash into the [`StatsDb`].
pub struct StatsEvidence<'a>(pub &'a StatsDb);

impl RewriteEvidence for StatsEvidence<'_> {
    fn candidate_score(&self, from: Sym, to: Sym, interner: &Interner) -> Option<f64> {
        let from_str = interner.resolve(from);
        let to_str = interner.resolve(to);
        let key = canonical_rewrite_key(from_str, to_str);
        self.0.get(&key).map(greedy_candidate_score)
    }
}

/// The greedy matcher's candidate score — "a more probable rewrite … has a
/// higher score in the rewrite database": evidence mass first, effect size
/// as a tiebreak. Deterministic in the counts, so precomputing it at table
/// compile time is bitwise-safe.
pub fn greedy_candidate_score(stat: &FeatureStat) -> f64 {
    stat.total() as f64 + stat.log_odds(1.0).abs() * 1e-3
}

/// Enumerate (and intern) the candidate phrases of one side of a line, in
/// the order the greedy matcher expects: span-major, then length, then
/// start position. Multi-token phrases are space-joined into `buf` (reused,
/// so a known phrase costs an interner lookup and no allocation).
fn enumerate_cands(
    spans: &mut dyn Iterator<Item = std::ops::Range<usize>>,
    toks: &[Sym],
    max_cand_len: usize,
    all_subphrases: bool,
    buf: &mut String,
    interner: &mut Interner,
) -> Vec<CandPhrase> {
    let mut v = Vec::new();
    let mut push = |start: usize, len: usize, interner: &mut Interner| {
        let phrase = if len == 1 {
            toks[start]
        } else {
            buf.clear();
            for (k, sym) in toks[start..start + len].iter().enumerate() {
                if k > 0 {
                    buf.push(' ');
                }
                buf.push_str(interner.resolve(*sym));
            }
            interner.intern(buf)
        };
        v.push(CandPhrase { start, len, phrase });
    };
    for span in spans {
        if all_subphrases {
            for len in 1..=max_cand_len.min(span.len()) {
                for start in span.start..=(span.end - len) {
                    push(start, len, interner);
                }
            }
        } else if !span.is_empty() && span.len() <= max_cand_len {
            push(span.start, span.len(), interner);
        }
    }
    v
}

/// Extracts rewrites from snippet pairs, consulting a rewrite statistics
/// database for greedy matching.
#[derive(Debug, Clone, Copy, Default)]
pub struct RewriteExtractor {
    cfg: RewriteConfig,
}

/// Internal candidate during greedy matching.
struct Candidate {
    r_start: usize,
    r_len: usize,
    from: Sym,
    s_start: usize,
    s_len: usize,
    to: Sym,
    score: f64,
}

impl RewriteExtractor {
    /// Create with explicit configuration.
    pub fn new(cfg: RewriteConfig) -> Self {
        Self { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &RewriteConfig {
        &self.cfg
    }

    /// Extract rewrites between `r` and `s`. Lines are aligned by index
    /// (creatives in one adgroup share their line structure); a missing line
    /// on one side diffs against the empty token list.
    ///
    /// `stats` supplies rewrite evidence for greedy scoring; pass an empty
    /// database on the seeding pass (extraction then degrades to whole-span
    /// matching, which is exact for single-span pairs).
    ///
    /// Greedy matching is pooled *per line*: a phrase from any changed span
    /// of R's line may match a phrase from any changed span of S's line.
    /// This is what lets the paper's example pair "find cheap" (early in the
    /// line) with "get discounts" (late in the line) even though the LCS
    /// diff puts them in different edit regions.
    pub fn extract(
        &self,
        r: &TokenizedSnippet,
        s: &TokenizedSnippet,
        stats: &StatsDb,
        interner: &mut Interner,
    ) -> RewriteExtraction {
        let prepared = prepare_pair(
            r,
            s,
            self.cfg.max_phrase_len,
            self.cfg.strategy == MatchStrategy::GreedyStats,
            interner,
        );
        self.extract_prepared(r, s, &prepared, stats, interner)
    }

    /// [`Self::extract`] given a precomputed [`PreparedPair`]. Touches no
    /// interner state (every candidate phrase was interned during
    /// preparation), so many threads can extract against one shared
    /// interner concurrently — this is what the experiment engine does.
    ///
    /// The `prepared` value must come from [`prepare_pair`] on the same
    /// `(r, s)` with `max_cand_len >= self.config().max_phrase_len` and,
    /// under the greedy strategy, `all_subphrases = true`.
    pub fn extract_prepared(
        &self,
        r: &TokenizedSnippet,
        s: &TokenizedSnippet,
        prepared: &PreparedPair,
        stats: &StatsDb,
        interner: &Interner,
    ) -> RewriteExtraction {
        self.extract_prepared_with(r, s, prepared, &StatsEvidence(stats), interner)
    }

    /// [`Self::extract_prepared`] with a pluggable evidence source. The
    /// serving engine passes its compiled table here; results are
    /// bit-identical to the [`StatsDb`]-backed path because every
    /// implementation scores candidates with [`greedy_candidate_score`]
    /// over the same canonical keys.
    pub fn extract_prepared_with(
        &self,
        r: &TokenizedSnippet,
        s: &TokenizedSnippet,
        prepared: &PreparedPair,
        evidence: &dyn RewriteEvidence,
        interner: &Interner,
    ) -> RewriteExtraction {
        let mut out = RewriteExtraction::default();
        self.extract_prepared_into(r, s, prepared, evidence, interner, &mut out);
        out
    }

    /// [`Self::extract_prepared_with`] into a caller-provided buffer whose
    /// capacity is reused across pairs (the buffer is cleared first).
    pub fn extract_prepared_into(
        &self,
        r: &TokenizedSnippet,
        s: &TokenizedSnippet,
        prepared: &PreparedPair,
        evidence: &dyn RewriteEvidence,
        interner: &Interner,
        out: &mut RewriteExtraction,
    ) {
        out.rewrites.clear();
        out.r_leftover.clear();
        out.s_leftover.clear();
        static EMPTY: &[Sym] = &[];
        for pl in &prepared.lines {
            let ra: &[Sym] = r.lines.get(pl.line as usize).map_or(EMPTY, |v| v);
            let sb: &[Sym] = s.lines.get(pl.line as usize).map_or(EMPTY, |v| v);
            self.match_line(pl, ra, sb, evidence, interner, out);
        }
    }

    /// Match all changed spans of one line.
    fn match_line(
        &self,
        pl: &PreparedLine,
        ra: &[Sym],
        sb: &[Sym],
        evidence: &dyn RewriteEvidence,
        interner: &Interner,
        out: &mut RewriteExtraction,
    ) {
        let line = pl.line;
        let mut r_taken = vec![false; ra.len()];
        let mut s_taken = vec![false; sb.len()];

        if self.cfg.strategy == MatchStrategy::GreedyStats {
            self.greedy_line(pl, evidence, interner, out, &mut r_taken, &mut s_taken);
        }

        // Whole-span fallback for aligned span pairs left fully unmatched
        // (and the primary mechanism under the WholeSpan strategy).
        if self.cfg.strategy != MatchStrategy::NoMatch {
            for (span_r, span_s) in &pl.spans {
                if span_r.is_empty()
                    || span_s.is_empty()
                    || span_r.len() > self.cfg.max_phrase_len
                    || span_s.len() > self.cfg.max_phrase_len
                    || span_r.clone().any(|i| r_taken[i])
                    || span_s.clone().any(|j| s_taken[j])
                {
                    continue;
                }
                for i in span_r.clone() {
                    r_taken[i] = true;
                }
                for j in span_s.clone() {
                    s_taken[j] = true;
                }
                out.rewrites.push(RewritePair {
                    from: prepared_occ(&pl.r_cands, ra, line, span_r.start, span_r.len()),
                    to: prepared_occ(&pl.s_cands, sb, line, span_s.start, span_s.len()),
                });
            }
        }

        // Everything in a changed span not covered by a rewrite becomes a
        // term-level leftover.
        for (span_r, span_s) in &pl.spans {
            for i in span_r.clone() {
                if !r_taken[i] {
                    out.r_leftover.push(PhraseOcc {
                        phrase: ra[i],
                        pos: SnippetPos::new(line, i as u16),
                        len: 1,
                    });
                }
            }
            for j in span_s.clone() {
                if !s_taken[j] {
                    out.s_leftover.push(PhraseOcc {
                        phrase: sb[j],
                        pos: SnippetPos::new(line, j as u16),
                        len: 1,
                    });
                }
            }
        }
    }

    /// Greedy DB-scored matching pooled over all changed spans of one line.
    #[allow(clippy::too_many_arguments)]
    fn greedy_line(
        &self,
        pl: &PreparedLine,
        evidence: &dyn RewriteEvidence,
        interner: &Interner,
        out: &mut RewriteExtraction,
        r_taken: &mut [bool],
        s_taken: &mut [bool],
    ) {
        // Candidates were enumerated at prepare time in this exact order
        // (span-major, then length, then start); the prepare-time length
        // cap may exceed ours, so filter down to our configuration.
        let max = self.cfg.max_phrase_len;
        let mut candidates: Vec<Candidate> = Vec::new();
        for rc in pl.r_cands.iter().filter(|c| c.len <= max) {
            for sc in pl.s_cands.iter().filter(|c| c.len <= max) {
                if let Some(score) = evidence.candidate_score(rc.phrase, sc.phrase, interner) {
                    candidates.push(Candidate {
                        r_start: rc.start,
                        r_len: rc.len,
                        from: rc.phrase,
                        s_start: sc.start,
                        s_len: sc.len,
                        to: sc.phrase,
                        score,
                    });
                }
            }
        }
        candidates.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.r_start, a.s_start).cmp(&(b.r_start, b.s_start)))
        });

        for c in &candidates {
            let r_range = c.r_start..c.r_start + c.r_len;
            let s_range = c.s_start..c.s_start + c.s_len;
            if r_range.clone().any(|i| r_taken[i]) || s_range.clone().any(|j| s_taken[j]) {
                continue;
            }
            for i in r_range {
                r_taken[i] = true;
            }
            for j in s_range {
                s_taken[j] = true;
            }
            out.rewrites.push(RewritePair {
                from: PhraseOcc {
                    phrase: c.from,
                    pos: SnippetPos::new(pl.line, c.r_start as u16),
                    len: c.r_len.min(u8::MAX as usize) as u8,
                },
                to: PhraseOcc {
                    phrase: c.to,
                    pos: SnippetPos::new(pl.line, c.s_start as u16),
                    len: c.s_len.min(u8::MAX as usize) as u8,
                },
            });
        }
    }
}

/// Build the [`PhraseOcc`] for a span whose phrase was interned at prepare
/// time (single tokens need no lookup).
fn prepared_occ(
    cands: &[CandPhrase],
    toks: &[Sym],
    line: u8,
    start: usize,
    len: usize,
) -> PhraseOcc {
    let phrase = if len == 1 {
        toks[start]
    } else {
        match cands.iter().find(|c| c.start == start && c.len == len) {
            Some(c) => c.phrase,
            None => {
                // The whole-span candidate is always interned at prepare
                // time when the documented `prepare_pair` preconditions
                // hold (`max_cand_len >= max_phrase_len`). Fall back to the
                // head token rather than panic on a serving path — but
                // loudly: assert in debug builds and count in release, so a
                // broken invariant is observable instead of silently
                // altering the feature phrase.
                debug_assert!(
                    false,
                    "whole-span candidate missing at line={line} start={start} len={len}"
                );
                microbrowse_obs::counter!("microbrowse_rewrite_prepared_occ_fallbacks_total")
                    .add(1);
                toks[start]
            }
        }
    };
    PhraseOcc {
        phrase,
        pos: SnippetPos::new(line, start as u16),
        len: len.min(u8::MAX as usize) as u8,
    }
}

/// The canonical (direction-normalized) statistics key for a rewrite. The
/// lexicographically smaller phrase is stored as `from`; callers flip the
/// observation sign when their direction is the reverse (see
/// [`crate::statsbuild`]).
pub fn canonical_rewrite_key(a: &str, b: &str) -> FeatureKey {
    if a <= b {
        FeatureKey::rewrite(a, b)
    } else {
        FeatureKey::rewrite(b, a)
    }
}

/// Whether `(a, b)` is already in canonical order.
pub fn is_canonical_order(a: &str, b: &str) -> bool {
    a <= b
}

#[cfg(test)]
mod tests {
    use super::*;
    use microbrowse_text::{Snippet, Tokenizer};

    fn toks(interner: &mut Interner, s: &str) -> Vec<Sym> {
        Tokenizer::default()
            .terms(s)
            .iter()
            .map(|t| interner.intern(t))
            .collect()
    }

    fn snippet(interner: &mut Interner, lines: &[&str]) -> TokenizedSnippet {
        Snippet::from_lines(lines.iter().copied()).tokenize(&Tokenizer::default(), interner)
    }

    fn resolve_occ(interner: &Interner, occ: &PhraseOcc) -> String {
        interner.resolve(occ.phrase).to_string()
    }

    #[test]
    fn diff_identical_is_one_equal() {
        let mut it = Interner::new();
        let a = toks(&mut it, "no reservation costs");
        let ops = token_diff(&a, &a);
        assert_eq!(ops, vec![DiffOp::Equal { a: 0, b: 0, len: 3 }]);
        assert!(changed_spans(&ops).is_empty());
    }

    #[test]
    fn diff_disjoint_is_one_replace() {
        let mut it = Interner::new();
        let a = toks(&mut it, "alpha beta");
        let b = toks(&mut it, "gamma delta epsilon");
        let ops = token_diff(&a, &b);
        assert_eq!(ops, vec![DiffOp::Replace { a: 0..2, b: 0..3 }]);
    }

    #[test]
    fn diff_covers_both_inputs_exactly() {
        let mut it = Interner::new();
        let a = toks(&mut it, "find cheap flights to new york");
        let b = toks(&mut it, "flying to new york get discounts");
        let ops = token_diff(&a, &b);
        let (mut ca, mut cb) = (0usize, 0usize);
        for op in &ops {
            match op {
                DiffOp::Equal { a: ea, b: eb, len } => {
                    assert_eq!(*ea, ca);
                    assert_eq!(*eb, cb);
                    ca += len;
                    cb += len;
                }
                DiffOp::Replace { a: ra, b: rb } => {
                    assert_eq!(ra.start, ca);
                    assert_eq!(rb.start, cb);
                    ca = ra.end;
                    cb = rb.end;
                }
            }
        }
        assert_eq!(ca, a.len());
        assert_eq!(cb, b.len());
    }

    #[test]
    fn diff_empty_sides() {
        let mut it = Interner::new();
        let a = toks(&mut it, "hello world");
        assert_eq!(
            token_diff(&a, &[]),
            vec![DiffOp::Replace { a: 0..2, b: 0..0 }]
        );
        assert_eq!(
            token_diff(&[], &a),
            vec![DiffOp::Replace { a: 0..0, b: 0..2 }]
        );
        assert!(token_diff(&[], &[]).is_empty());
    }

    #[test]
    fn single_phrase_rewrite_without_db_uses_whole_span() {
        let mut it = Interner::new();
        let r = snippet(
            &mut it,
            &[
                "XYZ Airlines",
                "Find cheap flights to New York",
                "No reservation costs",
            ],
        );
        let s = snippet(
            &mut it,
            &[
                "XYZ Airlines",
                "Get discounts flights to New York",
                "No reservation costs",
            ],
        );
        let ext = RewriteExtractor::default().extract(&r, &s, &StatsDb::new(), &mut it);
        assert!(ext.is_single_rewrite(), "extraction: {ext:?}");
        let rw = &ext.rewrites[0];
        assert_eq!(resolve_occ(&it, &rw.from), "find cheap");
        assert_eq!(resolve_occ(&it, &rw.to), "get discounts");
        assert_eq!(rw.from.pos, SnippetPos::new(1, 0));
        assert_eq!(rw.to.pos, SnippetPos::new(1, 0));
    }

    #[test]
    fn papers_example_with_seeded_db() {
        // Snippet 1 line 2: "Find cheap flights to New York."
        // Snippet 2 line 2: "Flying to New York? Get discounts."
        // With DB evidence for (find cheap → get discounts) and
        // (flights → flying), greedy matching recovers both.
        let mut it = Interner::new();
        let r = snippet(
            &mut it,
            &[
                "XYZ Airlines",
                "Find cheap flights to New York",
                "No reservation costs. Great rates",
            ],
        );
        let s = snippet(
            &mut it,
            &[
                "XYZ Airlines",
                "Flying to New York Get discounts",
                "No reservation costs. Great rates",
            ],
        );

        let mut db = StatsDb::new();
        for _ in 0..50 {
            db.record(canonical_rewrite_key("find cheap", "get discounts"), true);
        }
        for _ in 0..30 {
            db.record(canonical_rewrite_key("flights", "flying"), true);
        }
        // A distractor pairing with little evidence.
        db.record(canonical_rewrite_key("find cheap", "flying"), true);

        let ext = RewriteExtractor::default().extract(&r, &s, &db, &mut it);
        let mut pairs: Vec<(String, String)> = ext
            .rewrites
            .iter()
            .map(|rw| (resolve_occ(&it, &rw.from), resolve_occ(&it, &rw.to)))
            .collect();
        pairs.sort();
        assert!(
            pairs.contains(&("find cheap".to_string(), "get discounts".to_string())),
            "pairs: {pairs:?}"
        );
        assert!(
            pairs.contains(&("flights".to_string(), "flying".to_string())),
            "pairs: {pairs:?}"
        );
    }

    #[test]
    fn greedy_respects_evidence_ordering() {
        // Span "a b" → "x y". DB strongly supports (a→y) and (b→x); the
        // greedy matcher must pick those over positional pairing.
        let mut it = Interner::new();
        let r = snippet(&mut it, &["a b common"]);
        let s = snippet(&mut it, &["x y common"]);
        let mut db = StatsDb::new();
        for _ in 0..40 {
            db.record(canonical_rewrite_key("a", "y"), true);
            db.record(canonical_rewrite_key("b", "x"), false);
        }
        let ext = RewriteExtractor::default().extract(&r, &s, &db, &mut it);
        let mut pairs: Vec<(String, String)> = ext
            .rewrites
            .iter()
            .map(|rw| (resolve_occ(&it, &rw.from), resolve_occ(&it, &rw.to)))
            .collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                ("a".to_string(), "y".to_string()),
                ("b".to_string(), "x".to_string())
            ]
        );
    }

    #[test]
    fn leftovers_are_emitted() {
        // R-span has 3 tokens, S-span 1; whole-span would exceed nothing
        // here, but with DB evidence for only one sub-pair the rest leaks to
        // leftovers.
        let mut it = Interner::new();
        let r = snippet(&mut it, &["great cheap tickets here"]);
        let s = snippet(&mut it, &["great deals here"]);
        let mut db = StatsDb::new();
        db.record(canonical_rewrite_key("cheap", "deals"), true);
        let ext = RewriteExtractor::default().extract(&r, &s, &db, &mut it);
        assert_eq!(ext.rewrites.len(), 1);
        assert_eq!(resolve_occ(&it, &ext.rewrites[0].from), "cheap");
        let leftover: Vec<String> = ext.r_leftover.iter().map(|o| resolve_occ(&it, o)).collect();
        assert_eq!(leftover, vec!["tickets"]);
        assert!(ext.s_leftover.is_empty());
    }

    #[test]
    fn pure_insertions_become_leftovers() {
        let mut it = Interner::new();
        let r = snippet(&mut it, &["book flights now"]);
        let s = snippet(&mut it, &["book cheap flights now"]);
        let ext = RewriteExtractor::default().extract(&r, &s, &StatsDb::new(), &mut it);
        assert!(ext.rewrites.is_empty());
        assert!(ext.r_leftover.is_empty());
        let added: Vec<String> = ext.s_leftover.iter().map(|o| resolve_occ(&it, o)).collect();
        assert_eq!(added, vec!["cheap"]);
    }

    #[test]
    fn missing_line_diffs_against_empty() {
        let mut it = Interner::new();
        let r = snippet(&mut it, &["headline", "extra line"]);
        let s = snippet(&mut it, &["headline"]);
        let ext = RewriteExtractor::default().extract(&r, &s, &StatsDb::new(), &mut it);
        assert_eq!(ext.r_leftover.len(), 2);
        assert_eq!(ext.r_leftover[0].pos.line, 1);
    }

    #[test]
    fn nomatch_strategy_yields_only_terms() {
        let mut it = Interner::new();
        let r = snippet(&mut it, &["find cheap flights"]);
        let s = snippet(&mut it, &["get discounts flights"]);
        let ex = RewriteExtractor::new(RewriteConfig {
            strategy: MatchStrategy::NoMatch,
            ..Default::default()
        });
        let ext = ex.extract(&r, &s, &StatsDb::new(), &mut it);
        assert!(ext.rewrites.is_empty());
        assert_eq!(ext.r_leftover.len(), 2);
        assert_eq!(ext.s_leftover.len(), 2);
    }

    #[test]
    fn oversized_spans_fall_back_to_leftovers() {
        let mut it = Interner::new();
        let r = snippet(&mut it, &["a b c d e f"]);
        let s = snippet(&mut it, &["u v w x y z"]);
        let ext = RewriteExtractor::new(RewriteConfig {
            strategy: MatchStrategy::WholeSpan,
            max_phrase_len: 3,
        })
        .extract(&r, &s, &StatsDb::new(), &mut it);
        assert!(ext.rewrites.is_empty());
        assert_eq!(ext.r_leftover.len(), 6);
        assert_eq!(ext.s_leftover.len(), 6);
    }

    #[test]
    fn canonical_key_is_direction_stable() {
        assert_eq!(
            canonical_rewrite_key("b", "a"),
            canonical_rewrite_key("a", "b")
        );
        assert!(is_canonical_order("a", "b"));
        assert!(!is_canonical_order("b", "a"));
        assert!(is_canonical_order("same", "same"));
    }

    #[test]
    fn prepared_extraction_matches_direct_extraction() {
        // The prepared path must reproduce extract() exactly, including when
        // the prepare-time candidate cap exceeds the extractor's own cap.
        let mut it = Interner::new();
        let r = snippet(
            &mut it,
            &[
                "XYZ Airlines",
                "Find cheap flights to New York",
                "No reservation costs",
            ],
        );
        let s = snippet(
            &mut it,
            &[
                "XYZ Airlines",
                "Flying to New York Get discounts",
                "No reservation costs",
            ],
        );
        let mut db = StatsDb::new();
        for _ in 0..50 {
            db.record(canonical_rewrite_key("find cheap", "get discounts"), true);
        }
        for _ in 0..30 {
            db.record(canonical_rewrite_key("flights", "flying"), true);
        }
        for ex in [
            RewriteExtractor::default(),
            RewriteExtractor::new(RewriteConfig {
                max_phrase_len: 2,
                strategy: MatchStrategy::GreedyStats,
            }),
            RewriteExtractor::new(RewriteConfig {
                max_phrase_len: 3,
                strategy: MatchStrategy::WholeSpan,
            }),
            RewriteExtractor::new(RewriteConfig {
                max_phrase_len: 3,
                strategy: MatchStrategy::NoMatch,
            }),
        ] {
            let direct = ex.extract(&r, &s, &db, &mut it);
            let prepared = prepare_pair(&r, &s, 5, true, &mut it);
            let replayed = ex.extract_prepared(&r, &s, &prepared, &db, &it);
            assert_eq!(direct, replayed, "strategy {:?}", ex.config().strategy);
        }
    }

    #[test]
    fn identical_snippets_extract_nothing() {
        let mut it = Interner::new();
        let r = snippet(&mut it, &["one", "two three"]);
        let ext = RewriteExtractor::default().extract(&r, &r.clone(), &StatsDb::new(), &mut it);
        assert_eq!(ext, RewriteExtraction::default());
    }
}
