//! String interning.
//!
//! The feature statistics database (paper §V-C) holds counts for hundreds of
//! thousands of distinct n-grams, and the classifier touches them in inner
//! loops. Interning maps each distinct term string to a dense [`Sym`] (a
//! `u32` newtype) exactly once, after which every comparison, hash, and map
//! key is integer-sized.
//!
//! [`Interner`] is single-threaded: each corpus shard owns one. An interner
//! may sit on a frozen, shared *base* ([`Interner::with_base`]): the base's
//! strings keep their symbols, and only strings the base lacks are added
//! above it. A serving scratch interns this way over its bundle's
//! vocabulary, so every vocabulary symbol means the same string in every
//! scratch.

use std::fmt;
use std::sync::Arc;

use crate::hash::FxHashMap;

/// A dense symbol id for an interned string. Cheap to copy, hash, compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

/// A single-threaded string interner, optionally layered over a frozen base.
///
/// Guarantees: `resolve(intern(s)) == s`, and `intern` is idempotent —
/// interning the same string twice yields the same [`Sym`]. A string the
/// base holds always interns to the base's symbol.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// Frozen lower layer holding symbols `0..base.len()`.
    base: Option<Arc<Interner>>,
    map: FxHashMap<Arc<str>, Sym>,
    /// Strings added above the base, in interning order.
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner with room for `n` strings before it regrows.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            base: None,
            map: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            strings: Vec::with_capacity(n),
        }
    }

    /// An empty layer over `base`: `base`'s strings keep their symbols,
    /// and every other string gets the next symbol above them. Panics if
    /// `base` is itself layered: one level keeps lookups flat.
    pub fn with_base(base: Arc<Interner>) -> Self {
        assert!(base.base.is_none(), "an interner base must not be layered");
        Self {
            base: Some(base),
            ..Self::default()
        }
    }

    fn base_len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.strings.len())
    }

    /// Intern `s`, returning its symbol. O(1) amortized.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(sym) = self.get(s) {
            return sym;
        }
        let arc: Arc<str> = Arc::from(s);
        let sym =
            Sym(u32::try_from(self.len()).expect("interner overflow: > u32::MAX distinct strings"));
        self.strings.push(Arc::clone(&arc));
        self.map.insert(arc, sym);
        sym
    }

    /// Look up a symbol without interning. Returns `None` if `s` was never
    /// interned.
    #[inline]
    pub fn get(&self, s: &str) -> Option<Sym> {
        match self.base.as_ref().and_then(|b| b.map.get(s)) {
            Some(&sym) => Some(sym),
            None => self.map.get(s).copied(),
        }
    }

    /// Resolve a symbol back to its string. Panics on a foreign symbol.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        match self.try_resolve(sym) {
            Some(s) => s,
            None => panic!("foreign symbol {sym}"),
        }
    }

    /// Resolve, returning `None` for out-of-range symbols instead of
    /// panicking.
    #[inline]
    pub fn try_resolve(&self, sym: Sym) -> Option<&str> {
        let mut i = sym.index();
        if let Some(base) = &self.base {
            match base.strings.get(i) {
                Some(s) => return Some(s),
                None => i -= base.strings.len(),
            }
        }
        self.strings.get(i).map(|s| &**s)
    }

    /// Number of distinct interned strings, the base's included.
    pub fn len(&self) -> usize {
        self.base_len() + self.strings.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of strings held above the base.
    pub fn local_len(&self) -> usize {
        self.strings.len()
    }

    /// Forget every string above the base (capacity kept). Symbols above
    /// the base become foreign; the base's stay valid.
    pub fn clear_local(&mut self) {
        self.map.clear();
        self.strings.clear();
    }

    /// Iterate `(Sym, &str)` pairs in interning order, the base's first.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        (0..self.len() as u32).map(|i| (Sym(i), self.resolve(Sym(i))))
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
    fn with_capacity_interns_like_new() {
        let mut i = Interner::with_capacity(2);
        assert!(i.is_empty());
        assert_eq!(i.intern("a"), Sym(0));
        assert_eq!(i.intern("b"), Sym(1));
        assert_eq!(i.intern("c"), Sym(2));
        assert_eq!(i.intern("a"), Sym(0));
        assert_eq!(i.len(), 3);
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

    #[test]
    fn layer_keeps_base_symbols_and_numbers_above_them() {
        let mut base = Interner::new();
        let cheap = base.intern("cheap");
        let flights = base.intern("flights");
        let base = Arc::new(base);
        let mut layer = Interner::with_base(Arc::clone(&base));
        assert_eq!(layer.intern("flights"), flights);
        assert_eq!(layer.local_len(), 0);
        let xyz = layer.intern("xyz");
        assert_eq!(xyz, Sym(2));
        assert_eq!(layer.intern("cheap"), cheap);
        assert_eq!(layer.intern("xyz"), xyz);
        assert_eq!(layer.resolve(cheap), "cheap");
        assert_eq!(layer.resolve(xyz), "xyz");
        assert_eq!((layer.len(), layer.local_len()), (3, 1));
        let all: Vec<&str> = layer.iter().map(|(_, s)| s).collect();
        assert_eq!(all, ["cheap", "flights", "xyz"]);
        // The base never learns the layer's strings.
        assert_eq!(base.get("xyz"), None);
    }

    #[test]
    fn clear_local_forgets_only_the_layer() {
        let mut base = Interner::new();
        let cheap = base.intern("cheap");
        let mut layer = Interner::with_base(Arc::new(base));
        let a = layer.intern("aaa");
        layer.clear_local();
        assert_eq!(layer.local_len(), 0);
        assert_eq!(layer.try_resolve(a), None);
        assert_eq!(layer.get("aaa"), None);
        assert_eq!(layer.get("cheap"), Some(cheap));
        // Numbering restarts right above the base.
        assert_eq!(layer.intern("bbb"), a);
        assert_eq!(layer.resolve(a), "bbb");
    }
}
