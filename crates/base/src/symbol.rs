//! Symbols: elements of the per-attribute domains `Dom(A)`.
//!
//! The paper assumes, for every attribute `A`, an infinite domain `Dom(A)`
//! with `Dom(A) ∩ Dom(B) = ∅` for `A ≠ B`, and one *distinguished* element
//! `0_A` per domain (Section 2.1). All other elements are *nondistinguished*.
//!
//! We realize `Dom(A)` as the set of pairs `(A, ord)` for `ord ∈ ℕ`, with
//! `ord == 0` the distinguished element. Disjointness is then structural:
//! a symbol knows its attribute and can never appear in a foreign column.
//!
//! Symbols serve double duty, exactly as in the paper:
//! * as **data values** inside relations of an instantiation, and
//! * as **template symbols** inside tagged tuples,
//!
//! because α-embeddings and homomorphisms are valuations `Dom(A) → Dom(A)`.

use crate::ids::AttrId;
use std::fmt;

/// An element of `Dom(A)` for the attribute `A = self.attr()`.
///
/// `ord == 0` encodes the distinguished symbol `0_A`; positive ordinals are
/// the nondistinguished symbols (`a₁`, `a₂`, … in the paper's notation).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol {
    attr: AttrId,
    ord: u32,
}

impl Symbol {
    /// The distinguished symbol `0_A`.
    #[inline]
    pub fn distinguished(attr: AttrId) -> Self {
        Symbol { attr, ord: 0 }
    }

    /// The `ord`-th nondistinguished symbol of `Dom(A)` (`ord ≥ 1`).
    ///
    /// # Panics
    /// Panics if `ord == 0`; use [`Symbol::distinguished`] for `0_A`.
    #[inline]
    pub fn nondistinguished(attr: AttrId, ord: u32) -> Self {
        assert!(ord > 0, "nondistinguished symbols have ord >= 1");
        Symbol { attr, ord }
    }

    /// An arbitrary element of `Dom(A)`; `ord == 0` yields `0_A`.
    #[inline]
    pub fn new(attr: AttrId, ord: u32) -> Self {
        Symbol { attr, ord }
    }

    /// The attribute whose domain this symbol belongs to.
    #[inline]
    pub fn attr(self) -> AttrId {
        self.attr
    }

    /// The ordinal within the domain (0 = distinguished).
    #[inline]
    pub fn ord(self) -> u32 {
        self.ord
    }

    /// Is this the distinguished symbol `0_A`?
    #[inline]
    pub fn is_distinguished(self) -> bool {
        self.ord == 0
    }

    /// A dense `u64` packing used as a fast hash/ordering key.
    #[inline]
    pub fn pack(self) -> u64 {
        ((self.attr.0 as u64) << 32) | self.ord as u64
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_distinguished() {
            write!(f, "0@{}", self.attr.0)
        } else {
            write!(f, "{}@{}", self.ord, self.attr.0)
        }
    }
}

/// A per-attribute fresh-symbol allocator.
///
/// Several constructions in the paper need "a new nondistinguished symbol
/// not appearing in …" (Algorithm 2.1.1, template substitution, template
/// projection). `SymbolGen` hands out strictly increasing ordinals per
/// attribute, starting above everything it has been told about via
/// [`SymbolGen::reserve`].
///
/// Templates mention a handful of attributes, so the counters live in a
/// small vector sorted by attribute (binary-searched) rather than a hash
/// map: building a generator for a template allocates once.
#[derive(Clone, Debug, Default)]
pub struct SymbolGen {
    /// `(a, next)`, sorted by `a`: `next` is the smallest ordinal not yet
    /// handed out for attribute `a`. Sparse: attributes not present start
    /// at 1.
    next: Vec<(AttrId, u32)>,
}

impl SymbolGen {
    /// A generator that knows about no existing symbols.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter for `attr`, inserted at 1 when absent.
    fn slot(&mut self, attr: AttrId) -> &mut u32 {
        let pos = match self.next.binary_search_by_key(&attr, |&(a, _)| a) {
            Ok(pos) => pos,
            Err(pos) => {
                self.next.insert(pos, (attr, 1));
                pos
            }
        };
        &mut self.next[pos].1
    }

    /// Ensure future symbols for `sym.attr()` are strictly above `sym`.
    pub fn reserve(&mut self, sym: Symbol) {
        let slot = self.slot(sym.attr());
        if *slot <= sym.ord() {
            *slot = sym.ord() + 1;
        }
    }

    /// Reserve every symbol yielded by the iterator.
    pub fn reserve_all<I: IntoIterator<Item = Symbol>>(&mut self, syms: I) {
        for s in syms {
            self.reserve(s);
        }
    }

    /// Allocate a fresh nondistinguished symbol of `Dom(attr)`.
    pub fn fresh(&mut self, attr: AttrId) -> Symbol {
        let slot = self.slot(attr);
        let ord = *slot;
        *slot += 1;
        Symbol::nondistinguished(attr, ord)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);

    #[test]
    fn distinguished_is_ord_zero() {
        let z = Symbol::distinguished(A);
        assert!(z.is_distinguished());
        assert_eq!(z.ord(), 0);
        assert_eq!(z.attr(), A);
    }

    #[test]
    #[should_panic(expected = "nondistinguished")]
    fn nondistinguished_rejects_zero() {
        let _ = Symbol::nondistinguished(A, 0);
    }

    #[test]
    fn domains_are_disjoint() {
        // Same ordinal, different attribute: different symbols.
        assert_ne!(Symbol::new(A, 3), Symbol::new(B, 3));
        assert_ne!(Symbol::distinguished(A), Symbol::distinguished(B));
    }

    #[test]
    fn pack_is_injective_on_examples() {
        let syms = [
            Symbol::new(A, 0),
            Symbol::new(A, 1),
            Symbol::new(B, 0),
            Symbol::new(B, 1),
        ];
        for (i, x) in syms.iter().enumerate() {
            for (j, y) in syms.iter().enumerate() {
                assert_eq!(i == j, x.pack() == y.pack());
            }
        }
    }

    #[test]
    fn gen_produces_fresh_symbols() {
        let mut g = SymbolGen::new();
        g.reserve(Symbol::new(A, 5));
        let s1 = g.fresh(A);
        let s2 = g.fresh(A);
        assert_eq!(s1, Symbol::nondistinguished(A, 6));
        assert_eq!(s2, Symbol::nondistinguished(A, 7));
        // Unseen attribute starts at 1 (never hands out the distinguished 0).
        assert_eq!(g.fresh(B), Symbol::nondistinguished(B, 1));
    }

    /// The hash-map generator this one replaced, kept as the oracle: same
    /// ordinals for any sequence of `reserve` and `fresh` calls.
    #[derive(Default)]
    struct MapGen {
        next: std::collections::HashMap<AttrId, u32>,
    }

    impl MapGen {
        fn reserve(&mut self, sym: Symbol) {
            let slot = self.next.entry(sym.attr()).or_insert(1);
            if *slot <= sym.ord() {
                *slot = sym.ord() + 1;
            }
        }

        fn fresh(&mut self, attr: AttrId) -> Symbol {
            let slot = self.next.entry(attr).or_insert(1);
            let ord = *slot;
            *slot += 1;
            Symbol::nondistinguished(attr, ord)
        }
    }

    #[test]
    fn gen_matches_the_hash_map_oracle_on_random_call_sequences() {
        // splitmix64: a seeded stream with no dependency.
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..200 {
            let mut gen = SymbolGen::new();
            let mut oracle = MapGen::default();
            for _ in 0..(next() % 40) {
                let attr = AttrId((next() % 12) as u32);
                if next() % 2 == 0 {
                    let sym = Symbol::new(attr, (next() % 20) as u32);
                    gen.reserve(sym);
                    oracle.reserve(sym);
                } else {
                    assert_eq!(gen.fresh(attr), oracle.fresh(attr));
                }
            }
            for a in 0..12 {
                assert_eq!(gen.fresh(AttrId(a)), oracle.fresh(AttrId(a)));
            }
        }
    }

    #[test]
    fn gen_reserve_is_monotone() {
        let mut g = SymbolGen::new();
        g.reserve(Symbol::new(A, 9));
        g.reserve(Symbol::new(A, 2)); // lower reservation must not rewind
        assert_eq!(g.fresh(A).ord(), 10);
    }
}
