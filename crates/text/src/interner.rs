//! String interning.
//!
//! The feature statistics database (paper §V-C) holds counts for hundreds of
//! thousands of distinct n-grams, and the classifier touches them in inner
//! loops. Interning maps each distinct term string to a dense [`Sym`] (a
//! `u32` newtype) exactly once, after which every comparison, hash, and map
//! key is integer-sized.
//!
//! [`Interner`] is single-threaded: each corpus shard and each serving
//! scratch owns one.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::hash::FxHashMap;

/// A dense symbol id for an interned string. Cheap to copy, hash, compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Sym(pub u32);

impl Sym {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A single-threaded string interner.
///
/// Guarantees: `resolve(intern(s)) == s`, and `intern` is idempotent —
/// interning the same string twice yields the same [`Sym`].
#[derive(Debug, Default, Clone)]
pub struct Interner {
    map: FxHashMap<Arc<str>, Sym>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its symbol. O(1) amortized.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let arc: Arc<str> = Arc::from(s);
        let sym = Sym(u32::try_from(self.strings.len())
            .expect("interner overflow: > u32::MAX distinct strings"));
        self.strings.push(Arc::clone(&arc));
        self.map.insert(arc, sym);
        sym
    }

    /// Look up a symbol without interning. Returns `None` if `s` was never
    /// interned.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.map.get(s).copied()
    }

    /// Resolve a symbol back to its string. Panics on a foreign symbol.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }

    /// Resolve, returning `None` for out-of-range symbols instead of
    /// panicking.
    pub fn try_resolve(&self, sym: Sym) -> Option<&str> {
        self.strings.get(sym.index()).map(|s| &**s)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterate `(Sym, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Sym(i as u32), &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("cheap");
        let b = i.intern("cheap");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let words = ["cheap", "flights", "legroom", "20%", ""];
        let syms: Vec<Sym> = words.iter().map(|w| i.intern(w)).collect();
        for (w, s) in words.iter().zip(&syms) {
            assert_eq!(i.resolve(*s), *w);
        }
        assert_eq!(i.len(), words.len());
    }

    #[test]
    fn symbols_are_dense_and_ordered() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a"), Sym(0));
        assert_eq!(i.intern("b"), Sym(1));
        assert_eq!(i.intern("a"), Sym(0));
        assert_eq!(i.intern("c"), Sym(2));
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        assert_eq!(i.len(), 0);
        let s = i.intern("x");
        assert_eq!(i.get("x"), Some(s));
    }

    #[test]
    fn try_resolve_handles_foreign_syms() {
        let i = Interner::new();
        assert_eq!(i.try_resolve(Sym(7)), None);
    }

    #[test]
    fn iter_yields_in_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let got: Vec<(Sym, String)> = i.iter().map(|(s, t)| (s, t.to_owned())).collect();
        assert_eq!(
            got,
            vec![(Sym(0), "a".to_owned()), (Sym(1), "b".to_owned())]
        );
    }
}
