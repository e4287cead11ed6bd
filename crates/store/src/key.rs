//! The feature key space.
//!
//! §V-C enumerates the feature families the statistics database covers:
//! term features, rewrite features, and position features — the latter "for
//! positions of terms and position pairs (source position and target
//! position) for rewrites".
//!
//! Keys store phrases as owned strings (not interner symbols) because the
//! database outlives any one process's interner: it is written to disk in
//! Phase 1 and read back in Phase 2. [`KeyRef`] is the same key with
//! borrowed phrases: what a snapshot's records decode to in place, and the
//! order the snapshot writes them in.

/// A position inside a snippet: zero-based line and token position. `pos`
/// is bucketed by the caller if desired (raw token index by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SnippetPos {
    /// Zero-based line number.
    pub line: u8,
    /// Zero-based token position within the line.
    pub pos: u16,
}

impl SnippetPos {
    /// Convenience constructor.
    pub fn new(line: u8, pos: u16) -> Self {
        Self { line, pos }
    }
}

/// A key in the feature statistics database.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FeatureKey {
    /// An n-gram phrase, position-independent ("find cheap").
    Term {
        /// Normalized space-joined phrase.
        phrase: String,
    },
    /// A phrase rewrite, position-independent ("find cheap" → "get
    /// discounts"). §V-D.1: rewrite statistics are collected "independent of
    /// position of the rewrite terms, to handle sparsity issues".
    Rewrite {
        /// Phrase in the lower-serve-weight direction's source snippet R.
        from: String,
        /// Phrase it was rewritten to in snippet S.
        to: String,
    },
    /// A term position — how much does *any* term at this (line, pos) move
    /// serve weight. Feeds the position-feature initialization of Eq. 8.
    TermPosition(SnippetPos),
    /// A rewrite position pair — source position in R, target position in S.
    RewritePosition {
        /// Position of the rewritten-from phrase in R.
        from: SnippetPos,
        /// Position of the rewritten-to phrase in S.
        to: SnippetPos,
    },
}

impl FeatureKey {
    /// Term key from anything string-ish.
    pub fn term(phrase: impl Into<String>) -> Self {
        FeatureKey::Term {
            phrase: phrase.into(),
        }
    }

    /// Rewrite key.
    pub fn rewrite(from: impl Into<String>, to: impl Into<String>) -> Self {
        FeatureKey::Rewrite {
            from: from.into(),
            to: to.into(),
        }
    }

    /// Term-position key.
    pub fn term_position(line: u8, pos: u16) -> Self {
        FeatureKey::TermPosition(SnippetPos::new(line, pos))
    }

    /// Rewrite-position key.
    pub fn rewrite_position(from: SnippetPos, to: SnippetPos) -> Self {
        FeatureKey::RewritePosition { from, to }
    }

    /// A small discriminant used by the codec and by family-level reporting.
    pub fn family(&self) -> KeyFamily {
        self.as_key_ref().family()
    }

    /// This key with its phrases borrowed.
    pub fn as_key_ref(&self) -> KeyRef<'_> {
        match self {
            FeatureKey::Term { phrase } => KeyRef::Term { phrase },
            FeatureKey::Rewrite { from, to } => KeyRef::Rewrite { from, to },
            FeatureKey::TermPosition(p) => KeyRef::TermPosition(*p),
            FeatureKey::RewritePosition { from, to } => KeyRef::RewritePosition {
                from: *from,
                to: *to,
            },
        }
    }
}

/// A [`FeatureKey`] whose phrases are borrowed, typically from a
/// snapshot's bytes.
///
/// The variants and their fields come in the same order as
/// [`FeatureKey`]'s, and `str` orders bytewise exactly as `String` does,
/// so the derived order agrees with [`FeatureKey`]'s:
/// `a.as_key_ref() < b.as_key_ref()` iff `a < b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KeyRef<'a> {
    /// See [`FeatureKey::Term`].
    Term {
        /// Normalized space-joined phrase.
        phrase: &'a str,
    },
    /// See [`FeatureKey::Rewrite`].
    Rewrite {
        /// Phrase in the source snippet R.
        from: &'a str,
        /// Phrase it was rewritten to in snippet S.
        to: &'a str,
    },
    /// See [`FeatureKey::TermPosition`].
    TermPosition(SnippetPos),
    /// See [`FeatureKey::RewritePosition`].
    RewritePosition {
        /// Position of the rewritten-from phrase in R.
        from: SnippetPos,
        /// Position of the rewritten-to phrase in S.
        to: SnippetPos,
    },
}

impl KeyRef<'_> {
    /// The key's family.
    pub fn family(&self) -> KeyFamily {
        match self {
            KeyRef::Term { .. } => KeyFamily::Term,
            KeyRef::Rewrite { .. } => KeyFamily::Rewrite,
            KeyRef::TermPosition(_) => KeyFamily::TermPosition,
            KeyRef::RewritePosition { .. } => KeyFamily::RewritePosition,
        }
    }
}

impl From<KeyRef<'_>> for FeatureKey {
    fn from(key: KeyRef<'_>) -> Self {
        match key {
            KeyRef::Term { phrase } => FeatureKey::term(phrase),
            KeyRef::Rewrite { from, to } => FeatureKey::rewrite(from, to),
            KeyRef::TermPosition(p) => FeatureKey::TermPosition(p),
            KeyRef::RewritePosition { from, to } => FeatureKey::RewritePosition { from, to },
        }
    }
}

/// The four feature families of §V-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyFamily {
    /// Position-independent n-gram presence.
    Term,
    /// Position-independent phrase rewrite.
    Rewrite,
    /// (line, pos) of a term.
    TermPosition,
    /// (line, pos) → (line, pos) of a rewrite.
    RewritePosition,
}

impl KeyFamily {
    /// Stable one-byte tag for the binary codec.
    pub fn tag(self) -> u8 {
        match self {
            KeyFamily::Term => 0,
            KeyFamily::Rewrite => 1,
            KeyFamily::TermPosition => 2,
            KeyFamily::RewritePosition => 3,
        }
    }

    /// Inverse of [`KeyFamily::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => KeyFamily::Term,
            1 => KeyFamily::Rewrite,
            2 => KeyFamily::TermPosition,
            3 => KeyFamily::RewritePosition,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_family() {
        assert_eq!(FeatureKey::term("cheap").family(), KeyFamily::Term);
        assert_eq!(FeatureKey::rewrite("a", "b").family(), KeyFamily::Rewrite);
        assert_eq!(
            FeatureKey::term_position(1, 4).family(),
            KeyFamily::TermPosition
        );
        let rp = FeatureKey::rewrite_position(SnippetPos::new(1, 0), SnippetPos::new(1, 5));
        assert_eq!(rp.family(), KeyFamily::RewritePosition);
    }

    #[test]
    fn keys_are_value_equal() {
        assert_eq!(FeatureKey::term("x"), FeatureKey::term("x"));
        assert_ne!(FeatureKey::term("x"), FeatureKey::term("y"));
        assert_ne!(FeatureKey::rewrite("a", "b"), FeatureKey::rewrite("b", "a"));
        assert_ne!(
            FeatureKey::term_position(0, 1),
            FeatureKey::term_position(1, 0),
        );
    }

    #[test]
    fn borrowed_keys_convert_both_ways() {
        for key in [
            FeatureKey::term("cheap"),
            FeatureKey::rewrite("a", "b"),
            FeatureKey::term_position(1, 4),
            FeatureKey::rewrite_position(SnippetPos::new(1, 0), SnippetPos::new(2, 5)),
        ] {
            assert_eq!(key.as_key_ref().family(), key.family());
            assert_eq!(FeatureKey::from(key.as_key_ref()), key);
        }
    }

    #[test]
    fn family_tags_round_trip() {
        for fam in [
            KeyFamily::Term,
            KeyFamily::Rewrite,
            KeyFamily::TermPosition,
            KeyFamily::RewritePosition,
        ] {
            assert_eq!(KeyFamily::from_tag(fam.tag()), Some(fam));
        }
        assert_eq!(KeyFamily::from_tag(9), None);
    }
}
