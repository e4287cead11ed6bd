//! Property-based tests for the text substrate.

use microbrowse_text::normalize::PunctPolicy;
use microbrowse_text::snippet::MAX_LINES;
use microbrowse_text::{
    normalize, wire_lines, Interner, NGramConfig, NGramExtractor, NormalizeConfig, Snippet,
    TokenizedSnippet, Tokenizer, TokenizerConfig,
};
use proptest::prelude::*;

/// A straightforward normalizer and tokenizer — a fresh `String` per call
/// and per token — kept as the oracle the streaming core must match token
/// for token.
mod oracle {
    use microbrowse_text::normalize::{is_kept_symbol, NormalizeConfig, PunctPolicy};
    use microbrowse_text::{Token, TokenizerConfig};

    fn is_strippable_punct(c: char) -> bool {
        (c.is_ascii_punctuation()
            || c == '…'
            || c == '—'
            || c == '–'
            || c == '\u{201C}'
            || c == '\u{201D}')
            && !is_kept_symbol(c)
    }

    pub fn normalize(input: &str, cfg: &NormalizeConfig) -> String {
        let mut out = String::with_capacity(input.len());
        let mut pending_space = false;
        for raw in input.chars() {
            let mapped: Option<char> = if raw.is_whitespace() {
                None // treated as a space request below
            } else if is_strippable_punct(raw) {
                match cfg.punct {
                    PunctPolicy::Space => None,
                    PunctPolicy::Strip => continue,
                    PunctPolicy::Keep => Some(raw),
                }
            } else {
                Some(raw)
            };

            match mapped {
                None => {
                    if !out.is_empty() {
                        pending_space = true;
                    }
                }
                Some(c) => {
                    if pending_space {
                        out.push(' ');
                        pending_space = false;
                    }
                    for lc in c.to_lowercase() {
                        out.push(lc);
                    }
                }
            }
        }
        out
    }

    #[inline]
    fn is_token_char(c: char) -> bool {
        c.is_alphanumeric() || is_kept_symbol(c)
    }

    pub struct Tokenizer {
        pub cfg: TokenizerConfig,
    }

    impl Tokenizer {
        pub fn tokenize(&self, input: &str) -> Vec<Token> {
            let mut out = Vec::new();
            let mut start: Option<usize> = None;
            for (idx, c) in input.char_indices() {
                if is_token_char(c) {
                    if start.is_none() {
                        start = Some(idx);
                    }
                } else if let Some(s) = start.take() {
                    self.push(&mut out, input, s, idx);
                    if self.at_cap(&out) {
                        return out;
                    }
                }
            }
            if let Some(s) = start {
                self.push(&mut out, input, s, input.len());
            }
            out
        }

        pub fn tokenize_normalized(&self, input: &str) -> (String, Vec<Token>) {
            let norm = normalize(input, &self.cfg.normalize);
            let toks = self.tokenize(&norm);
            (norm, toks)
        }

        pub fn terms(&self, input: &str) -> Vec<String> {
            self.tokenize_normalized(input)
                .1
                .into_iter()
                .map(|t| t.text)
                .collect()
        }

        fn push(&self, out: &mut Vec<Token>, input: &str, start: usize, end: usize) {
            out.push(Token {
                text: input[start..end].to_string(),
                start,
                end,
            });
        }

        fn at_cap(&self, out: &[Token]) -> bool {
            self.cfg.max_tokens != 0 && out.len() >= self.cfg.max_tokens
        }
    }
}

/// Characters the tokenizer treats differently: ASCII and non-ASCII
/// letters and digits, the kept symbols, stripped punctuation (ASCII and
/// the typographic dashes, ellipsis and quotes), non-ASCII punctuation that
/// survives normalization, combining marks, `İ` (lowercases to two chars),
/// `ǅ` (titlecase) and every kind of whitespace, including U+000B, U+0085
/// and U+00A0.
const ALPHABET: &[char] = &[
    'a', 'b', 'Z', 'Q', '0', '7', 'é', 'ß', 'Σ', 'Ж', '中', 'ǅ', 'İ', '²', '%', '$', '€', '£', '&',
    '\'', '.', ',', '!', '?', '-', '(', ':', '"', '…', '—', '–', '“', '”', '·', '¿', '→', '🙂',
    '\u{301}', '\u{307}', ' ', ' ', ' ', '\t', '\n', '\u{b}', '\u{85}', '\u{a0}', '\u{2003}',
];

fn arb_line() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..ALPHABET.len(), 0..40)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

fn arb_config() -> impl Strategy<Value = TokenizerConfig> {
    (0usize..3, 0usize..5).prop_map(|(p, max_tokens)| TokenizerConfig {
        normalize: NormalizeConfig {
            punct: [PunctPolicy::Space, PunctPolicy::Strip, PunctPolicy::Keep][p],
        },
        max_tokens,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The streaming core reproduces the oracle tokenizer on arbitrary
    /// Unicode lines under every punctuation policy and token cap: same
    /// normalization, same token texts and spans (raw and normalized),
    /// same terms.
    #[test]
    fn streaming_tokenizer_matches_oracle(line in arb_line(), cfg in arb_config()) {
        let new = Tokenizer::new(cfg);
        let old = oracle::Tokenizer { cfg };
        prop_assert_eq!(
            normalize(&line, &cfg.normalize),
            oracle::normalize(&line, &cfg.normalize)
        );
        prop_assert_eq!(new.tokenize(&line), old.tokenize(&line));
        prop_assert_eq!(new.tokenize_normalized(&line), old.tokenize_normalized(&line));
        prop_assert_eq!(new.terms(&line), old.terms(&line));
    }

    /// `Snippet::tokenize_into` through reused, previously filled buffers
    /// interns exactly the oracle's terms in the oracle's order: same
    /// symbols per line and the same interner evolution.
    #[test]
    fn snippet_tokenize_into_matches_oracle(
        first in prop::collection::vec(arb_line(), 0..4),
        second in prop::collection::vec(arb_line(), 0..4),
        cfg in arb_config(),
    ) {
        let new = Tokenizer::new(cfg);
        let old = oracle::Tokenizer { cfg };
        let (mut new_interner, mut old_interner) = (Interner::new(), Interner::new());
        let mut norm = String::new();
        let mut out = TokenizedSnippet::default();
        for lines in [first, second] {
            Snippet::from_lines(lines.clone()).tokenize_into(&new, &mut new_interner, &mut norm, &mut out);
            let expect: Vec<Vec<_>> = lines
                .iter()
                .map(|l| old.terms(l).iter().map(|t| old_interner.intern(t)).collect())
                .collect();
            prop_assert_eq!(&out.lines, &expect);
            let fresh = Snippet::from_lines(lines).tokenize(&new, &mut new_interner);
            prop_assert_eq!(&fresh, &out);
        }
        let new_strings: Vec<&str> = new_interner.iter().map(|(_, s)| s).collect();
        let old_strings: Vec<&str> = old_interner.iter().map(|(_, s)| s).collect();
        prop_assert_eq!(new_strings, old_strings);
    }
}

/// Segment characters for wire-form texts: separators, Unicode whitespace
/// that `str::trim` strips (U+000B, U+0085, U+00A0, U+2003, U+3000
/// included), control bytes it keeps, and text, so segments come out
/// empty, padded and plain, and texts often have more than `MAX_LINES`
/// segments.
const WIRE_ALPHABET: &[char] = &[
    '|', '|', '|', ' ', '\t', '\n', '\u{b}', '\u{85}', '\u{a0}', '\u{2003}', '\u{3000}', '\u{1}',
    '\u{7f}', 'a', 'b', 'é', '中', '🙂', '"', '\\',
];

fn arb_wire() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..WIRE_ALPHABET.len(), 0..64)
        .prop_map(|ix| ix.into_iter().map(|i| WIRE_ALPHABET[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `wire_lines` yields exactly the lines of the split-and-trim spelling
    /// every caller used to inline, on texts with runs of `|`, empty
    /// segments and more than `MAX_LINES` of them; `from_wire` builds the
    /// snippet of those lines, and `to_wire` joins them back with `|`.
    #[test]
    fn wire_lines_match_split_and_trim(text in arb_wire()) {
        let want: Vec<&str> = text.split('|').take(MAX_LINES).map(str::trim).collect();
        prop_assert_eq!(wire_lines(&text).collect::<Vec<_>>(), want.clone());
        let snippet = Snippet::from_wire(&text);
        prop_assert_eq!(&snippet, &Snippet::from_lines(want.iter().copied()));
        prop_assert_eq!(snippet.to_wire(), want.join("|"));
    }
}

proptest! {
    /// Normalization is idempotent for arbitrary input.
    #[test]
    fn normalize_idempotent(s in ".{0,200}") {
        let cfg = NormalizeConfig::default();
        let once = normalize(&s, &cfg);
        prop_assert_eq!(normalize(&once, &cfg), once);
    }

    /// Normalized output never contains uppercase ASCII or doubled spaces.
    #[test]
    fn normalize_output_shape(s in ".{0,200}") {
        let out = normalize(&s, &NormalizeConfig::default());
        prop_assert!(!out.contains("  "), "doubled space in {out:?}");
        prop_assert!(!out.starts_with(' ') && !out.ends_with(' '));
        prop_assert!(!out.chars().any(|c| c.is_ascii_uppercase()));
    }

    /// Token spans always slice the input to exactly the token text, are
    /// non-empty, and strictly advance.
    #[test]
    fn token_spans_valid(s in ".{0,300}") {
        let t = Tokenizer::default();
        let toks = t.tokenize(&s);
        let mut prev_end = 0usize;
        for tk in &toks {
            prop_assert!(tk.start < tk.end);
            prop_assert!(tk.start >= prev_end);
            prop_assert_eq!(&s[tk.start..tk.end], tk.text.as_str());
            prev_end = tk.end;
        }
    }

    /// Interning then resolving is the identity, for any batch of strings.
    #[test]
    fn interner_bijective(strings in prop::collection::vec(".{0,30}", 0..50)) {
        let mut interner = Interner::new();
        let syms: Vec<_> = strings.iter().map(|s| interner.intern(s)).collect();
        for (s, sym) in strings.iter().zip(&syms) {
            prop_assert_eq!(interner.resolve(*sym), s.as_str());
        }
        // Distinct strings get distinct symbols.
        let distinct: std::collections::HashSet<_> = strings.iter().collect();
        prop_assert_eq!(interner.len(), distinct.len());
    }

    /// N-gram occurrence counts follow the closed form per line:
    /// sum over n of max(0, len - n + 1).
    #[test]
    fn ngram_counts_match_closed_form(
        lines in prop::collection::vec("[a-z]{1,8}( [a-z]{1,8}){0,9}", 0..4),
        max_n in 1u8..4,
    ) {
        let mut interner = Interner::new();
        let tok = Snippet::from_lines(lines.clone()).tokenize(&Tokenizer::default(), &mut interner);
        let ex = NGramExtractor::new(NGramConfig { min_n: 1, max_n });
        let occs = ex.extract(&tok, &mut interner);
        let expected: usize = tok
            .lines
            .iter()
            .map(|l| (1..=max_n as usize).map(|n| if l.len() >= n { l.len() - n + 1 } else { 0 }).sum::<usize>())
            .sum();
        prop_assert_eq!(occs.len(), expected);
    }

    /// Every extracted n-gram phrase, resolved, has exactly `n` space-joined
    /// tokens drawn from its source line at the reported position.
    #[test]
    fn ngram_provenance(
        lines in prop::collection::vec("[a-z]{1,6}( [a-z]{1,6}){0,7}", 1..4),
    ) {
        let mut interner = Interner::new();
        let tok = Snippet::from_lines(lines).tokenize(&Tokenizer::default(), &mut interner);
        let occs = NGramExtractor::default().extract(&tok, &mut interner);
        for occ in occs {
            let line = &tok.lines[occ.line as usize];
            let n = occ.ngram.n as usize;
            let start = occ.pos as usize;
            let expect: Vec<&str> = line[start..start + n].iter().map(|s| interner.resolve(*s)).collect();
            prop_assert_eq!(interner.resolve(occ.ngram.phrase), expect.join(" "));
        }
    }
}
