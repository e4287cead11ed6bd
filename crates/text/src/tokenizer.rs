//! Span-preserving word tokenizer.
//!
//! The micro-browsing model cares about *where* a term sits inside a snippet
//! line (paper §IV-A: "The position of a term in a line and the number of
//! the line in the snippet are also considered as features"). The tokenizer
//! therefore reports, for every token, both its text and its byte span in
//! the (normalized) input, so positions are reconstructible and testable.
//!
//! Tokens are maximal runs of alphanumeric characters plus the
//! meaning-bearing symbols from [`crate::normalize::is_kept_symbol`]
//! (`20%`, `$99`, `don't`). Everything else separates tokens.
//!
//! Every entry point runs through one streaming core: a span scanner that
//! hands out token boundaries without materializing tokens, fed either the
//! raw input ([`Tokenizer::tokenize`]) or its normalization written into a
//! reused buffer ([`Tokenizer::for_each_term`], which [`Tokenizer::terms`]
//! and [`crate::Snippet::tokenize_into`] use). Interning a snippet's tokens
//! therefore costs no per-token allocation.

use crate::normalize::{is_kept_symbol, normalize, normalize_into, NormalizeConfig};

/// A single token: its text and the half-open byte span `[start, end)` in
/// the string it was produced from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Token {
    /// The token text (already normalized if produced by
    /// [`Tokenizer::tokenize_normalized`]).
    pub text: String,
    /// Byte offset of the first byte of the token.
    pub start: usize,
    /// Byte offset one past the last byte of the token.
    pub end: usize,
}

impl Token {
    /// The token's length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the token is empty (never true for tokenizer output).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Configuration for [`Tokenizer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TokenizerConfig {
    /// Normalization applied by [`Tokenizer::tokenize_normalized`].
    pub normalize: NormalizeConfig,
    /// Maximum number of tokens to emit per call (0 = unlimited). Ad lines
    /// are short; a cap protects the pipeline from pathological inputs.
    pub max_tokens: usize,
}

/// A deterministic word tokenizer. Cheap to construct; carries only config.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tokenizer {
    cfg: TokenizerConfig,
}

#[inline]
fn is_token_char(c: char) -> bool {
    c.is_alphanumeric() || is_kept_symbol(c)
}

impl Tokenizer {
    /// Create a tokenizer with the given configuration.
    pub fn new(cfg: TokenizerConfig) -> Self {
        Self { cfg }
    }

    /// Access the configuration.
    pub fn config(&self) -> &TokenizerConfig {
        &self.cfg
    }

    /// Tokenize `input` as-is (no normalization). Spans index into `input`.
    pub fn tokenize(&self, input: &str) -> Vec<Token> {
        let mut out = Vec::new();
        self.for_each_span(input, |start, end| {
            out.push(Token {
                text: input[start..end].to_string(),
                start,
                end,
            })
        });
        out
    }

    /// Normalize `input` (per config) and tokenize the normalized text.
    /// Returns the normalized string alongside the tokens; spans index into
    /// the returned string.
    pub fn tokenize_normalized(&self, input: &str) -> (String, Vec<Token>) {
        let norm = normalize(input, &self.cfg.normalize);
        let toks = self.tokenize(&norm);
        (norm, toks)
    }

    /// Tokenize and return only the token texts, normalized.
    pub fn terms(&self, input: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_term(input, &mut String::new(), |t| out.push(t.to_string()));
        out
    }

    /// Normalize `input` into `norm` (cleared first, capacity reused) and
    /// hand each token of the normalized text to `f` as a slice of `norm`,
    /// in order and up to the configured cap — exactly the tokens
    /// [`Self::terms`] returns, without allocating once `norm` has grown to
    /// the longest input.
    pub fn for_each_term(&self, input: &str, norm: &mut String, mut f: impl FnMut(&str)) {
        normalize_into(input, &self.cfg.normalize, norm);
        let text = norm.as_str();
        self.for_each_span(text, |start, end| f(&text[start..end]));
    }

    /// The span scanner: call `f(start, end)` for each maximal run of token
    /// characters in `text`, stopping after `max_tokens` tokens (0 =
    /// unlimited).
    fn for_each_span(&self, text: &str, mut f: impl FnMut(usize, usize)) {
        let mut emitted = 0usize;
        let mut start: Option<usize> = None;
        for (idx, c) in text.char_indices() {
            if is_token_char(c) {
                if start.is_none() {
                    start = Some(idx);
                }
            } else if let Some(s) = start.take() {
                f(s, idx);
                emitted += 1;
                if emitted == self.cfg.max_tokens {
                    return;
                }
            }
        }
        if let Some(s) = start {
            f(s, text.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(s: &str) -> Vec<String> {
        Tokenizer::default().terms(s)
    }

    #[test]
    fn basic_words() {
        assert_eq!(
            tok("Find cheap flights to New York."),
            ["find", "cheap", "flights", "to", "new", "york"]
        );
    }

    #[test]
    fn empty_and_whitespace() {
        assert!(tok("").is_empty());
        assert!(tok("   \t\n").is_empty());
        assert!(tok("...!!!").is_empty());
    }

    #[test]
    fn keeps_meaningful_symbols_inside_tokens() {
        assert_eq!(tok("20% off $99 don't"), ["20%", "off", "$99", "don't"]);
    }

    #[test]
    fn spans_are_correct_on_raw_input() {
        let t = Tokenizer::default();
        let input = "no reservation costs";
        let toks = t.tokenize(input);
        for tk in &toks {
            assert_eq!(&input[tk.start..tk.end], tk.text);
        }
        assert_eq!(toks.len(), 3);
    }

    #[test]
    fn spans_index_into_normalized_string() {
        let t = Tokenizer::default();
        let (norm, toks) = t.tokenize_normalized("  Great   RATES!  ");
        assert_eq!(norm, "great rates");
        assert_eq!(toks.len(), 2);
        for tk in &toks {
            assert_eq!(&norm[tk.start..tk.end], tk.text);
        }
    }

    #[test]
    fn unicode_words() {
        assert_eq!(tok("Zürich–Genève"), ["zürich", "genève"]);
    }

    #[test]
    fn token_cap_is_enforced() {
        let t = Tokenizer::new(TokenizerConfig {
            max_tokens: 2,
            ..Default::default()
        });
        assert_eq!(t.terms("a b c d e").len(), 2);
    }

    #[test]
    fn zero_cap_means_unlimited() {
        let t = Tokenizer::default();
        let many = "word ".repeat(500);
        assert_eq!(t.terms(&many).len(), 500);
    }

    #[test]
    fn tokens_are_nonempty_and_ordered() {
        let t = Tokenizer::default();
        let toks = t.tokenize("alpha  beta gamma");
        let mut prev_end = 0;
        for tk in toks {
            assert!(!tk.is_empty());
            assert!(tk.start >= prev_end);
            prev_end = tk.end;
        }
    }
}
