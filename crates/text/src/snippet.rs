//! Snippet types.
//!
//! A *snippet* in the paper is the short multi-line text a user sees on a
//! results page: an organic result snippet or a sponsored-search creative
//! (typically 3 lines, e.g. headline / description line 1 / description
//! line 2). [`Snippet`] stores the raw lines; [`TokenizedSnippet`] is its
//! normalized, interned view — the form every model in the workspace
//! consumes.

use std::fmt;

use crate::interner::{Interner, Sym};
use crate::tokenizer::Tokenizer;

/// Maximum number of lines a snippet may carry. Sponsored creatives in the
/// paper are 3 lines; we allow a little slack for organic snippets.
pub const MAX_LINES: usize = 8;

/// One line of a snippet: its raw text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Line {
    /// The raw (un-normalized) text of the line.
    pub text: String,
}

impl Line {
    /// Construct a line from any string-ish value.
    pub fn new(text: impl Into<String>) -> Self {
        Self { text: text.into() }
    }
}

/// A search-result snippet or ad creative: an ordered list of short lines.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Snippet {
    lines: Vec<Line>,
}

impl Snippet {
    /// Build a snippet from raw line texts. Lines beyond [`MAX_LINES`] are
    /// truncated (ad platforms enforce similar hard caps).
    pub fn from_lines<I, S>(lines: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let lines = lines.into_iter().take(MAX_LINES).map(Line::new).collect();
        Self { lines }
    }

    /// A creative from its wire form: lines separated by `|`, each trimmed
    /// (`"Cheap Flights | book today"`), capped at [`MAX_LINES`] like
    /// [`Snippet::from_lines`]. This is the spelling `/v1/score`, the CLI and
    /// the feedback journal share.
    pub fn from_wire(text: &str) -> Self {
        let mut snippet = Self::default();
        snippet.set_wire(text);
        snippet
    }

    /// Overwrite this snippet with the creative `text` spells in wire form,
    /// reusing the existing line buffers. The result equals
    /// [`Snippet::from_wire`]`(text)`; with warmed-up buffers it allocates
    /// nothing unless a line outgrows its buffer or a line is added.
    pub fn set_wire(&mut self, text: &str) {
        let mut n = 0;
        for part in text.split('|').take(MAX_LINES) {
            let part = part.trim();
            match self.lines.get_mut(n) {
                Some(line) => {
                    line.text.clear();
                    line.text.push_str(part);
                }
                None => self.lines.push(Line::new(part)),
            }
            n += 1;
        }
        self.lines.truncate(n);
    }

    /// The wire form: the lines joined by `|`.
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        for (i, line) in self.lines.iter().enumerate() {
            if i > 0 {
                out.push('|');
            }
            out.push_str(&line.text);
        }
        out
    }

    /// The classic 3-line creative constructor used throughout the paper's
    /// examples.
    pub fn creative(
        headline: impl Into<String>,
        desc1: impl Into<String>,
        desc2: impl Into<String>,
    ) -> Self {
        Self::from_lines([headline.into(), desc1.into(), desc2.into()])
    }

    /// The snippet's lines.
    pub fn lines(&self) -> &[Line] {
        &self.lines
    }

    /// Number of lines.
    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    /// Whether the snippet has no lines.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Tokenize every line with `tokenizer`, interning each token into
    /// `interner`.
    pub fn tokenize(&self, tokenizer: &Tokenizer, interner: &mut Interner) -> TokenizedSnippet {
        let mut out = TokenizedSnippet::default();
        self.tokenize_into(tokenizer, interner, &mut String::new(), &mut out);
        out
    }

    /// Tokenize into a caller-provided [`TokenizedSnippet`], reusing its
    /// per-line symbol buffers and the normalization buffer `norm`.
    /// Produces exactly what [`Snippet::tokenize`] would — same tokens, same
    /// interner side effects — but with warmed-up buffers it allocates
    /// nothing except the interner's entries for never-seen tokens.
    pub fn tokenize_into(
        &self,
        tokenizer: &Tokenizer,
        interner: &mut Interner,
        norm: &mut String,
        out: &mut TokenizedSnippet,
    ) {
        out.lines.truncate(self.lines.len());
        out.lines.resize_with(self.lines.len(), Vec::new);
        for (line, dst) in self.lines.iter().zip(out.lines.iter_mut()) {
            dst.clear();
            tokenizer.for_each_term(&line.text, norm, |t| dst.push(interner.intern(t)));
        }
    }
}

impl fmt::Display for Snippet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, line) in self.lines.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{}", line.text)?;
        }
        Ok(())
    }
}

/// The tokenized, interned view of a [`Snippet`]: one `Vec<Sym>` per line,
/// in line order, token order preserved.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct TokenizedSnippet {
    /// Interned tokens, one vector per snippet line.
    pub lines: Vec<Vec<Sym>>,
}

impl TokenizedSnippet {
    /// Total number of tokens across all lines (the `m` in Eq. 3).
    pub fn num_terms(&self) -> usize {
        self.lines.iter().map(Vec::len).sum()
    }

    /// Number of lines.
    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    /// Iterate `(line_idx, pos_in_line, sym)` over every token.
    pub fn iter_terms(&self) -> impl Iterator<Item = (usize, usize, Sym)> + '_ {
        self.lines
            .iter()
            .enumerate()
            .flat_map(|(li, line)| line.iter().enumerate().map(move |(pi, &s)| (li, pi, s)))
    }

    /// Render back to text through an interner (space-joined tokens per
    /// line). Useful in tests and reports; lossy with respect to original
    /// punctuation by design.
    pub fn render(&self, interner: &Interner) -> Snippet {
        Snippet::from_lines(self.lines.iter().map(|line| {
            line.iter()
                .map(|s| interner.resolve(*s))
                .collect::<Vec<_>>()
                .join(" ")
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creative_has_three_lines() {
        let s = Snippet::creative(
            "XYZ Airlines",
            "Find cheap flights to New York.",
            "No reservation costs. Great rates",
        );
        assert_eq!(s.num_lines(), 3);
        assert_eq!(s.lines()[0].text, "XYZ Airlines");
    }

    #[test]
    fn from_lines_truncates_at_cap() {
        let many: Vec<String> = (0..20).map(|i| format!("line {i}")).collect();
        let s = Snippet::from_lines(many);
        assert_eq!(s.num_lines(), MAX_LINES);
    }

    #[test]
    fn wire_form_round_trips_trimmed_lines() {
        let s = Snippet::from_wire(" Cheap Flights |book today|| ");
        assert_eq!(
            s,
            Snippet::from_lines(["Cheap Flights", "book today", "", ""])
        );
        assert_eq!(s.to_wire(), "Cheap Flights|book today||");
        assert_eq!(Snippet::from_wire("").num_lines(), 1);
        assert_eq!(Snippet::from_wire(&"x|".repeat(20)).num_lines(), MAX_LINES);
        let mut reused = Snippet::from_wire("a|b|c|d");
        reused.set_wire("e");
        assert_eq!(reused, Snippet::from_wire("e"));
    }

    #[test]
    fn display_joins_with_newlines() {
        let s = Snippet::from_lines(["a", "b"]);
        assert_eq!(s.to_string(), "a\nb");
        assert_eq!(Snippet::default().to_string(), "");
    }

    #[test]
    fn tokenize_preserves_structure() {
        let s = Snippet::creative("XYZ Airlines", "Find cheap flights.", "Great rates!");
        let mut interner = Interner::new();
        let tok = s.tokenize(&Tokenizer::default(), &mut interner);
        assert_eq!(tok.num_lines(), 3);
        assert_eq!(tok.lines[0].len(), 2);
        assert_eq!(tok.lines[1].len(), 3);
        assert_eq!(tok.lines[2].len(), 2);
        assert_eq!(tok.num_terms(), 7);
        assert_eq!(interner.resolve(tok.lines[1][1]), "cheap");
    }

    #[test]
    fn iter_terms_is_ordered() {
        let s = Snippet::from_lines(["a b", "c"]);
        let mut interner = Interner::new();
        let tok = s.tokenize(&Tokenizer::default(), &mut interner);
        let got: Vec<(usize, usize, &str)> = tok
            .iter_terms()
            .map(|(l, p, s)| (l, p, interner.resolve(s)))
            .collect();
        assert_eq!(got, vec![(0, 0, "a"), (0, 1, "b"), (1, 0, "c")]);
    }

    #[test]
    fn render_round_trips_normalized_text() {
        let s = Snippet::creative("Fly Now", "20% off today", "book direct");
        let mut interner = Interner::new();
        let tok = s.tokenize(&Tokenizer::default(), &mut interner);
        let back = tok.render(&interner);
        assert_eq!(back.lines()[0].text, "fly now");
        assert_eq!(back.lines()[1].text, "20% off today");
    }

    #[test]
    fn empty_lines_tokenize_to_empty_vectors() {
        let s = Snippet::from_lines(["", "hello", "!!!"]);
        let mut interner = Interner::new();
        let tok = s.tokenize(&Tokenizer::default(), &mut interner);
        assert_eq!(tok.lines[0].len(), 0);
        assert_eq!(tok.lines[1].len(), 1);
        assert_eq!(tok.lines[2].len(), 0);
    }
}
