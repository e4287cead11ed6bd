//! Text normalization.
//!
//! Ad creatives arrive with arbitrary casing and punctuation ("No
//! reservation costs. Great rates!"). The micro-browsing pipeline compares
//! *terms* across millions of creatives, so two surface forms of the same
//! phrase must normalize identically — otherwise the feature statistics
//! database (paper §V-C) fragments and every downstream estimate gets
//! noisier.
//!
//! Normalization is intentionally simple and deterministic:
//!
//! 1. Unicode-aware lowercasing (`char::to_lowercase`).
//! 2. Punctuation handling per [`PunctPolicy`].
//! 3. Whitespace collapsing (runs of whitespace become a single space;
//!    leading/trailing whitespace dropped).
//!
//! There is deliberately no stemming or stop-word removal: the paper's
//! examples ("flights" → "flying") rely on surface-form rewrites being
//! visible to the model.

/// What to do with punctuation characters during normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PunctPolicy {
    /// Replace each punctuation character with a space (default).
    ///
    /// `"20%-off!"` → `"20% off"` is *not* what happens — `%` is kept because
    /// it is meaning-bearing in ads; see [`is_kept_symbol`].
    #[default]
    Space,
    /// Delete punctuation characters entirely.
    Strip,
    /// Keep punctuation as-is (only lowercase + whitespace collapsing).
    Keep,
}

/// Configuration for [`normalize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NormalizeConfig {
    /// Punctuation policy.
    pub punct: PunctPolicy,
}

/// Symbols that carry meaning in ad text and survive all punctuation
/// policies except [`PunctPolicy::Keep`] (where everything survives anyway).
///
/// `%` ("20% off"), `$`/`€`/`£` (prices), `&` ("bed & breakfast"), and `'`
/// (contractions, possessives) all change what a user perceives.
#[inline]
pub fn is_kept_symbol(c: char) -> bool {
    matches!(c, '%' | '$' | '€' | '£' | '&' | '\'')
}

fn is_strippable_punct(c: char) -> bool {
    (c.is_ascii_punctuation()
        || c == '…'
        || c == '—'
        || c == '–'
        || c == '\u{201C}'
        || c == '\u{201D}')
        && !is_kept_symbol(c)
}

/// Normalize `input` according to `cfg`.
///
/// The output is lowercase, has no leading/trailing whitespace, and contains
/// no runs of more than one space.
///
/// ```
/// use microbrowse_text::normalize::{normalize, NormalizeConfig};
/// let cfg = NormalizeConfig::default();
/// assert_eq!(normalize("  Find CHEAP   flights!  ", &cfg), "find cheap flights");
/// assert_eq!(normalize("20% Off — Today", &cfg), "20% off today");
/// ```
pub fn normalize(input: &str, cfg: &NormalizeConfig) -> String {
    let mut out = String::with_capacity(input.len());
    normalize_into(input, cfg, &mut out);
    out
}

/// [`normalize`] into a caller-provided buffer: `out` is cleared and
/// refilled, so a buffer reused across calls normalizes without allocating
/// once it has grown to the longest input.
pub fn normalize_into(input: &str, cfg: &NormalizeConfig, out: &mut String) {
    out.clear();
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
                if c.is_ascii() {
                    out.push(c.to_ascii_lowercase());
                } else {
                    out.extend(c.to_lowercase());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norm(s: &str) -> String {
        normalize(s, &NormalizeConfig::default())
    }

    #[test]
    fn lowercases_and_collapses() {
        assert_eq!(norm("XYZ Airlines"), "xyz airlines");
        assert_eq!(norm("A   B\t\nC"), "a b c");
    }

    #[test]
    fn strips_leading_trailing() {
        assert_eq!(norm("  hello  "), "hello");
        assert_eq!(norm("\t\n"), "");
        assert_eq!(norm(""), "");
    }

    #[test]
    fn default_punct_becomes_space() {
        assert_eq!(
            norm("No reservation costs. Great rates!"),
            "no reservation costs great rates"
        );
        assert_eq!(
            norm("Flying to New York? Get discounts."),
            "flying to new york get discounts"
        );
    }

    #[test]
    fn meaningful_symbols_are_kept() {
        assert_eq!(norm("20% Off"), "20% off");
        assert_eq!(norm("$99 deals"), "$99 deals");
        assert_eq!(norm("Bed & Breakfast"), "bed & breakfast");
        assert_eq!(norm("Don't miss"), "don't miss");
    }

    #[test]
    fn strip_policy_deletes_punct() {
        let cfg = NormalizeConfig {
            punct: PunctPolicy::Strip,
        };
        assert_eq!(normalize("great-rates!", &cfg), "greatrates");
    }

    #[test]
    fn keep_policy_preserves_punct() {
        let cfg = NormalizeConfig {
            punct: PunctPolicy::Keep,
        };
        assert_eq!(normalize("Great Rates!", &cfg), "great rates!");
    }

    #[test]
    fn unicode_lowercase_expansion() {
        // 'İ' lowercases to "i\u{307}" (two chars); must not panic and must
        // remain deterministic.
        assert_eq!(norm("İstanbul"), norm("İstanbul"));
        assert_eq!(norm("STRASSE"), "strasse");
    }

    #[test]
    fn punct_only_input_is_empty() {
        assert_eq!(norm("!!! ... ---"), "");
    }

    #[test]
    fn idempotent() {
        for s in ["Find Cheap Flights!", "  20% OFF  ", "a—b…c", ""] {
            let once = norm(s);
            assert_eq!(norm(&once), once, "normalize must be idempotent on {s:?}");
        }
    }
}
