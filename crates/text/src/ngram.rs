//! N-gram extraction with positional provenance.
//!
//! The snippet classifier's *term features* (paper §IV-A) are "unigrams,
//! bigrams, and trigrams" together with "the position of a term in a line
//! and the number of the line". [`NGramExtractor`] produces exactly that:
//! every n-gram phrase (interned as a single symbol, e.g. `"find cheap"`)
//! annotated with its line index and its starting token position within the
//! line.

use crate::interner::{Interner, Sym};
use crate::snippet::TokenizedSnippet;

/// An n-gram phrase: the interned space-joined phrase and its order `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NGram {
    /// Interned phrase symbol (e.g. the symbol for `"get discounts"`).
    pub phrase: Sym,
    /// N-gram order: 1, 2, or 3 under the default config.
    pub n: u8,
}

/// An n-gram occurrence inside a snippet: which phrase, where.
///
/// `line` and `pos` are the `(line number, position in line)` pair the paper
/// threads through Eq. 6; `pos` is the index of the n-gram's *first* token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TermOccurrence {
    /// The n-gram phrase.
    pub ngram: NGram,
    /// Zero-based line index in the snippet.
    pub line: u8,
    /// Zero-based token position of the phrase's first token in the line.
    pub pos: u16,
}

/// Which n-gram orders to extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NGramConfig {
    /// Minimum n-gram order (inclusive), ≥ 1.
    pub min_n: u8,
    /// Maximum n-gram order (inclusive).
    pub max_n: u8,
}

impl Default for NGramConfig {
    /// The paper's setting: unigrams, bigrams, and trigrams.
    fn default() -> Self {
        Self { min_n: 1, max_n: 3 }
    }
}

impl NGramConfig {
    /// Unigrams only (the degenerate bag-of-words setting).
    pub fn unigrams() -> Self {
        Self { min_n: 1, max_n: 1 }
    }

    /// Validate `min_n/max_n` sanity.
    pub fn is_valid(&self) -> bool {
        self.min_n >= 1 && self.min_n <= self.max_n
    }
}

/// Extracts positional n-grams from tokenized snippets.
#[derive(Debug, Clone, Copy, Default)]
pub struct NGramExtractor {
    cfg: NGramConfig,
}

impl NGramExtractor {
    /// Create an extractor; panics if the config is invalid (programmer
    /// error, not data error).
    pub fn new(cfg: NGramConfig) -> Self {
        assert!(cfg.is_valid(), "invalid NGramConfig: {cfg:?}");
        Self { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &NGramConfig {
        &self.cfg
    }

    /// Extract all n-gram occurrences from `snippet`.
    ///
    /// Multi-token phrases are interned into `interner` as space-joined
    /// strings, so the same phrase extracted from different snippets maps to
    /// the same [`Sym`].
    pub fn extract(
        &self,
        snippet: &TokenizedSnippet,
        interner: &mut Interner,
    ) -> Vec<TermOccurrence> {
        let mut out = Vec::new();
        self.extract_into(snippet, interner, &mut out);
        out
    }

    /// Extract into a caller-provided buffer, reusing its capacity.
    ///
    /// Identical to [`NGramExtractor::extract`] — same occurrence order,
    /// same interner side effects — but `out` is cleared and refilled in
    /// place so a warmed-up buffer incurs no per-snippet vector allocation.
    pub fn extract_into(
        &self,
        snippet: &TokenizedSnippet,
        interner: &mut Interner,
        out: &mut Vec<TermOccurrence>,
    ) {
        out.clear();
        let mut buf = String::new();
        for (li, line) in snippet.lines.iter().enumerate() {
            let li = li.min(u8::MAX as usize) as u8;
            for n in self.cfg.min_n..=self.cfg.max_n {
                let n_usize = n as usize;
                if line.len() < n_usize {
                    continue;
                }
                for start in 0..=(line.len() - n_usize) {
                    let phrase = if n == 1 {
                        line[start]
                    } else {
                        buf.clear();
                        for (k, sym) in line[start..start + n_usize].iter().enumerate() {
                            if k > 0 {
                                buf.push(' ');
                            }
                            buf.push_str(interner.resolve(*sym));
                        }
                        interner.intern(&buf)
                    };
                    out.push(TermOccurrence {
                        ngram: NGram { phrase, n },
                        line: li,
                        pos: start.min(u16::MAX as usize) as u16,
                    });
                }
            }
        }
    }

    /// Extract and return the distinct n-gram phrases (without positions),
    /// useful for presence/absence term features (models M1/M3/M5).
    pub fn extract_phrases(
        &self,
        snippet: &TokenizedSnippet,
        interner: &mut Interner,
    ) -> Vec<NGram> {
        let occs = self.extract(snippet, interner);
        let mut seen = crate::hash::FxHashSet::default();
        let mut out = Vec::with_capacity(occs.len());
        for occ in occs {
            if seen.insert(occ.ngram) {
                out.push(occ.ngram);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snippet::Snippet;
    use crate::tokenizer::Tokenizer;

    fn setup(lines: &[&str]) -> (TokenizedSnippet, Interner) {
        let mut interner = Interner::new();
        let tok = Snippet::from_lines(lines.iter().copied())
            .tokenize(&Tokenizer::default(), &mut interner);
        (tok, interner)
    }

    fn phrases(occs: &[TermOccurrence], interner: &Interner) -> Vec<(String, u8, u8, u16)> {
        occs.iter()
            .map(|o| {
                (
                    interner.resolve(o.ngram.phrase).to_owned(),
                    o.ngram.n,
                    o.line,
                    o.pos,
                )
            })
            .collect()
    }

    #[test]
    fn unigrams_bigrams_trigrams() {
        let (tok, mut interner) = setup(&["find cheap flights"]);
        let occs = NGramExtractor::default().extract(&tok, &mut interner);
        let got = phrases(&occs, &interner);
        assert!(got.contains(&("find".into(), 1, 0, 0)));
        assert!(got.contains(&("cheap".into(), 1, 0, 1)));
        assert!(got.contains(&("find cheap".into(), 2, 0, 0)));
        assert!(got.contains(&("cheap flights".into(), 2, 0, 1)));
        assert!(got.contains(&("find cheap flights".into(), 3, 0, 0)));
        // 3 unigrams + 2 bigrams + 1 trigram
        assert_eq!(got.len(), 6);
    }

    #[test]
    fn occurrence_count_formula() {
        // A line of m tokens yields m + (m-1) + (m-2) occurrences for n=1..3.
        let (tok, mut interner) = setup(&["a b c d e f"]);
        let occs = NGramExtractor::default().extract(&tok, &mut interner);
        assert_eq!(occs.len(), 6 + 5 + 4);
    }

    #[test]
    fn short_lines_skip_large_n() {
        let (tok, mut interner) = setup(&["hi"]);
        let occs = NGramExtractor::default().extract(&tok, &mut interner);
        assert_eq!(occs.len(), 1);
        assert_eq!(occs[0].ngram.n, 1);
    }

    #[test]
    fn empty_snippet_yields_nothing() {
        let (tok, mut interner) = setup(&[]);
        assert!(NGramExtractor::default()
            .extract(&tok, &mut interner)
            .is_empty());
        let (tok, mut interner) = setup(&["", ""]);
        assert!(NGramExtractor::default()
            .extract(&tok, &mut interner)
            .is_empty());
    }

    #[test]
    fn line_indices_carried_through() {
        let (tok, mut interner) = setup(&["one", "two words", "three little words"]);
        let occs = NGramExtractor::new(NGramConfig::unigrams()).extract(&tok, &mut interner);
        let lines: Vec<u8> = occs.iter().map(|o| o.line).collect();
        assert_eq!(lines, vec![0, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn same_phrase_same_symbol_across_snippets() {
        let mut interner = Interner::new();
        let t = Tokenizer::default();
        let a = Snippet::from_lines(["find cheap flights"]).tokenize(&t, &mut interner);
        let b = Snippet::from_lines(["really cheap flights here"]).tokenize(&t, &mut interner);
        let ex = NGramExtractor::default();
        let oa = ex.extract(&a, &mut interner);
        let ob = ex.extract(&b, &mut interner);
        let sym_a = oa
            .iter()
            .find(|o| interner.resolve(o.ngram.phrase) == "cheap flights")
            .unwrap()
            .ngram
            .phrase;
        let sym_b = ob
            .iter()
            .find(|o| interner.resolve(o.ngram.phrase) == "cheap flights")
            .unwrap()
            .ngram
            .phrase;
        assert_eq!(sym_a, sym_b);
    }

    #[test]
    fn extract_phrases_dedups() {
        let (tok, mut interner) = setup(&["buy now buy now"]);
        let ex = NGramExtractor::new(NGramConfig::unigrams());
        let ph = ex.extract_phrases(&tok, &mut interner);
        assert_eq!(ph.len(), 2); // "buy", "now"
    }

    #[test]
    #[should_panic(expected = "invalid NGramConfig")]
    fn invalid_config_panics() {
        let _ = NGramExtractor::new(NGramConfig { min_n: 2, max_n: 1 });
    }
}
