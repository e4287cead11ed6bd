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

/// The lines of a creative in wire form: `text` split at each `|`, every
/// part trimmed of Unicode whitespace, at most [`MAX_LINES`] parts — the
/// lines `text.split('|').take(MAX_LINES).map(str::trim)` yields, found
/// sixteen bytes at a time. This is the one home of the wire grammar:
/// [`Snippet::from_wire`] and the serving engine's pair keys both read a
/// creative's lines through it.
#[inline]
pub fn wire_lines(text: &str) -> WireLines<'_> {
    WireLines {
        rest: Some(text),
        left: MAX_LINES,
    }
}

/// Iterator returned by [`wire_lines`].
#[derive(Debug, Clone)]
pub struct WireLines<'a> {
    /// The text after the last `|` taken; `None` once the last part is out.
    rest: Option<&'a str>,
    /// Parts still allowed.
    left: usize,
}

impl<'a> Iterator for WireLines<'a> {
    type Item = &'a str;

    // This and the helpers below are inlined across crates: the serving
    // engine writes every pair key through this loop.
    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        if self.left == 0 {
            return None;
        }
        let rest = self.rest?;
        self.left -= 1;
        // `|` is ASCII, so both cuts fall on char boundaries.
        let part = match find_bar(rest.as_bytes()) {
            Some(i) => {
                self.rest = Some(&rest[i + 1..]);
                &rest[..i]
            }
            None => {
                self.rest = None;
                rest
            }
        };
        Some(trim_line(part))
    }
}

const ONES: u128 = u128::from_le_bytes([0x01; 16]);
const HIGHS: u128 = u128::from_le_bytes([0x80; 16]);

/// Flags (high bit of the byte) the bytes of the little-endian word `w`
/// that are `|`: a byte of `w ^ '|'…` is zero exactly there, and the
/// zero-byte test can only flag a byte *above* a true zero wrongly (its
/// borrows run upwards), so the lowest flag is exact.
#[inline]
fn bars(w: u128) -> u128 {
    let x = w ^ (ONES * u128::from(b'|'));
    x.wrapping_sub(ONES) & !x & HIGHS
}

/// Offset of the first `|` in `b`, 16 bytes at a time. The last
/// `b.len() % 16` bytes are tested as one zero-padded word: a zero byte is
/// no `|` and flags nothing.
#[inline]
fn find_bar(b: &[u8]) -> Option<usize> {
    let words = b.chunks_exact(16);
    let tail = words.remainder();
    for (i, chunk) in words.enumerate() {
        let mut word = [0; 16];
        word.copy_from_slice(chunk);
        let hit = bars(u128::from_le_bytes(word));
        if hit != 0 {
            return Some(16 * i + (hit.trailing_zeros() / 8) as usize);
        }
    }
    let mut word = [0; 16];
    word[..tail.len()].copy_from_slice(tail);
    let hit = bars(u128::from_le_bytes(word));
    (hit != 0).then(|| b.len() - tail.len() + (hit.trailing_zeros() / 8) as usize)
}

/// `line.trim()`, skipped when both edge bytes are printable ASCII other
/// than space: such a line has no whitespace to trim. Any other edge — a
/// space, a control byte or a non-ASCII char — takes `str::trim`.
#[inline]
fn trim_line(line: &str) -> &str {
    let plain = |b: &u8| (0x21..=0x7e).contains(b);
    let b = line.as_bytes();
    match (b.first(), b.last()) {
        (Some(first), Some(last)) if plain(first) && plain(last) => line,
        _ => line.trim(),
    }
}

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

    /// A creative from its wire form: the lines [`wire_lines`] yields
    /// (`"Cheap Flights | book today"` is two lines). This is the spelling
    /// `/v1/score`, the CLI and the feedback journal share.
    pub fn from_wire(text: &str) -> Self {
        Self {
            lines: wire_lines(text).map(Line::new).collect(),
        }
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
    /// per-line symbol buffers and the normalization buffer `norm` (see
    /// [`TokenizedSnippet::fill`]).
    pub fn tokenize_into(
        &self,
        tokenizer: &Tokenizer,
        interner: &mut Interner,
        norm: &mut String,
        out: &mut TokenizedSnippet,
    ) {
        out.fill(
            self.lines.iter().map(|l| l.text.as_str()),
            tokenizer,
            interner,
            norm,
        );
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

    /// Overwrite with the tokens of `lines`, one line per item, reusing the
    /// per-line symbol buffers and the normalization buffer `norm`.
    /// Produces exactly what [`Snippet::tokenize`] of those lines would —
    /// same tokens, same interner side effects — but with warmed-up buffers
    /// it allocates nothing except the interner's entries for never-seen
    /// tokens.
    pub fn fill<'l>(
        &mut self,
        lines: impl IntoIterator<Item = &'l str>,
        tokenizer: &Tokenizer,
        interner: &mut Interner,
        norm: &mut String,
    ) {
        let mut n = 0;
        for line in lines {
            if n == self.lines.len() {
                self.lines.push(Vec::new());
            }
            let dst = &mut self.lines[n];
            dst.clear();
            tokenizer.for_each_term(line, norm, |t| dst.push(interner.intern(t)));
            n += 1;
        }
        self.lines.truncate(n);
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
    }

    /// The 16-byte `|` finder agrees with a byte-at-a-time search with a
    /// `|` at every offset modulo 16 and at every distance from the end up
    /// to 19 bytes, inside ASCII, multi-byte UTF-8 and the bytes next to `|`
    /// (0x7b, 0x7d) or one bit from it (0xfc), and in texts without one.
    #[test]
    fn bar_finder_matches_a_byte_search() {
        let fills: [&[u8]; 7] = [
            b"a",
            b"{",
            b"}",
            "\u{e9}".as_bytes(),
            "\u{4e2d}".as_bytes(),
            "\u{1f642}".as_bytes(),
            &[0xfc],
        ];
        for fill in fills {
            for lead in 0..8 {
                for before in 0..12 {
                    for after in 0..20 {
                        let mut text = b"a".repeat(lead);
                        text.extend(fill.repeat(before));
                        assert_eq!(find_bar(&text), None);
                        text.push(b'|');
                        text.extend(fill.repeat(after));
                        text.push(b'|');
                        let want = text.iter().position(|&c| c == b'|');
                        assert_eq!(find_bar(&text), want, "{text:?}");
                        text.pop();
                        assert_eq!(find_bar(&text), want, "{text:?}");
                    }
                }
            }
        }
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
