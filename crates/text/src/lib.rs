//! Text substrate for the `microbrowse` workspace.
//!
//! This crate owns everything about *snippet text* that the micro-browsing
//! model ([Islam, Srikant, Basu; ICDE 2019]) needs before any statistics or
//! learning happen:
//!
//! * [`mod@normalize`] — deterministic text normalization (case folding,
//!   punctuation policy) so that "Cheap Flights!" and "cheap flights" map to
//!   the same terms.
//! * [`tokenizer`] — a span-preserving word tokenizer.
//! * [`interner`] — a string interner mapping terms to dense [`Sym`] ids;
//!   every other crate in the workspace works in symbol space.
//! * [`ngram`] — unigram/bigram/trigram extraction with (line, position)
//!   provenance, the raw material for the paper's *term features*.
//! * [`snippet`] — the [`Snippet`] type: a short multi-line ad creative or
//!   organic result snippet, plus its tokenized view.
//! * [`hash`] — an in-tree Fx-style hasher so hot maps keyed by `Sym` do not
//!   pay SipHash costs (see the workspace DESIGN.md for the dependency
//!   policy).
//!
//! The crate has no opinion about relevance, CTR, or learning; it only
//! guarantees that tokenization is deterministic, positions are stable, and
//! symbols are bijective with strings.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hash;
pub mod interner;
pub mod ngram;
pub mod normalize;
pub mod snippet;
pub mod tokenizer;

pub use hash::{FxHashMap, FxHashSet};
pub use interner::{Interner, Sym};
pub use ngram::{NGram, NGramConfig, NGramExtractor, TermOccurrence};
pub use normalize::{normalize, NormalizeConfig};
pub use snippet::{wire_lines, Line, Snippet, TokenizedSnippet, WireLines};
pub use tokenizer::{Token, Tokenizer, TokenizerConfig};
