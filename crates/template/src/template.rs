//! Tagged tuples and templates (paper, Section 2.1).
//!
//! ## Representation
//!
//! A paper tagged tuple `(t, η)` is a *total* tuple over the universe `U`
//! together with a tag, subject to:
//!
//! 1. distinguished symbols occur only at attributes of `R(η)`;
//! 2. a symbol shared by two distinct tagged tuples occurs only at
//!    attributes of `R(η₁) ∩ R(η₂)`;
//! 3. some tagged tuple carries a distinguished symbol.
//!
//! Conditions (1)–(2) force every entry outside `R(η)` to be a fresh
//! nondistinguished symbol that no embedding constraint ever inspects, so a
//! [`TaggedTuple`] stores only the restriction `t[R(η)]`. That makes
//! conditions (1)–(2) unrepresentable; only (3) needs a runtime check, in
//! [`Template::new`]. Because a [`viewcap_base::Symbol`] carries its
//! attribute, a row is simply the scheme-aligned vector of symbols.
//!
//! Templates are canonical *sets*: construction sorts and deduplicates, so
//! structural equality is set equality and tuple indices are stable.

use crate::error::TemplateError;
use crate::index::TupleIndex;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
use viewcap_base::{Catalog, RelId, Scheme, Symbol, SymbolGen};

/// A tagged tuple `(t, η)`: the tag and the row `t[R(η)]`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaggedTuple {
    rel: RelId,
    row: Vec<Symbol>,
}

impl TaggedTuple {
    /// Build a tagged tuple, validating the row against `R(η)`.
    pub fn new(rel: RelId, row: Vec<Symbol>, catalog: &Catalog) -> Result<Self, TemplateError> {
        let scheme = catalog.scheme_of(rel);
        let ok = row.len() == scheme.len()
            && row
                .iter()
                .zip(scheme.iter())
                .all(|(sym, attr)| sym.attr() == attr);
        if !ok {
            return Err(TemplateError::RowMismatch { rel });
        }
        Ok(TaggedTuple { rel, row })
    }

    /// Reassemble a tagged tuple from raw parts **without** catalog
    /// validation.
    ///
    /// Exists for deserialization (the verdict-cache persistence layer):
    /// cached witnesses mention scratch names `λᵢ` that were minted in a
    /// decision procedure's private catalog clone, so no catalog the loader
    /// holds can validate them. Callers outside a deserializer should use
    /// [`TaggedTuple::new`].
    pub fn from_raw_parts(rel: RelId, row: Vec<Symbol>) -> Self {
        TaggedTuple { rel, row }
    }

    /// The all-distinguished tagged tuple for `η` — the template of the
    /// atomic expression `η` (Algorithm 2.1.1(i)).
    pub fn all_distinguished(rel: RelId, catalog: &Catalog) -> Self {
        TaggedTuple {
            rel,
            row: catalog
                .scheme_of(rel)
                .iter()
                .map(Symbol::distinguished)
                .collect(),
        }
    }

    /// The tag `η`.
    #[inline]
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// The row `t[R(η)]`, scheme-aligned.
    #[inline]
    pub fn row(&self) -> &[Symbol] {
        &self.row
    }

    /// The symbol at attribute `a`, if `a ∈ R(η)`.
    ///
    /// Linear scan: rows are a handful of symbols wide.
    pub fn symbol_at(&self, a: viewcap_base::AttrId) -> Option<Symbol> {
        self.row.iter().copied().find(|s| s.attr() == a)
    }

    /// Apply a symbol mapping to the row.
    pub fn map_symbols<F: FnMut(Symbol) -> Symbol>(&self, mut f: F) -> TaggedTuple {
        TaggedTuple {
            rel: self.rel,
            row: self.row.iter().map(|&s| f(s)).collect(),
        }
    }

    /// Does any entry hold a distinguished symbol?
    pub fn has_distinguished(&self) -> bool {
        self.row.iter().any(|s| s.is_distinguished())
    }
}

/// A multirelational template: a canonical, nonempty set of tagged tuples
/// containing at least one distinguished symbol.
pub struct Template {
    tuples: Vec<TaggedTuple>,
    /// Byte-trie candidate index over the tuples, built on first
    /// homomorphism search against this template ([`Template::tuple_index`]).
    /// Derived data: invisible to equality/ordering/hashing, shared (not
    /// rebuilt) by clones. Templates are canonical sets, so the index is a
    /// pure function of `tuples`.
    index: OnceLock<Arc<TupleIndex>>,
}

impl Clone for Template {
    fn clone(&self) -> Self {
        let index = OnceLock::new();
        if let Some(built) = self.index.get() {
            let _ = index.set(Arc::clone(built));
        }
        Template {
            tuples: self.tuples.clone(),
            index,
        }
    }
}

impl PartialEq for Template {
    fn eq(&self, other: &Self) -> bool {
        self.tuples == other.tuples
    }
}

impl Eq for Template {}

impl Hash for Template {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.tuples.hash(state);
    }
}

impl fmt::Debug for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Template")
            .field("tuples", &self.tuples)
            .finish()
    }
}

impl Template {
    /// Build a template from tagged tuples (sorted, deduplicated), checking
    /// nonemptiness and condition (iii).
    pub fn new(mut tuples: Vec<TaggedTuple>) -> Result<Self, TemplateError> {
        if tuples.is_empty() {
            return Err(TemplateError::EmptyTemplate);
        }
        tuples.sort();
        tuples.dedup();
        if !tuples.iter().any(TaggedTuple::has_distinguished) {
            return Err(TemplateError::NoDistinguishedSymbol);
        }
        Ok(Template {
            tuples,
            index: OnceLock::new(),
        })
    }

    /// The template of the atomic expression `η`: one all-distinguished row.
    pub fn atom(rel: RelId, catalog: &Catalog) -> Template {
        Template {
            tuples: vec![TaggedTuple::all_distinguished(rel, catalog)],
            index: OnceLock::new(),
        }
    }

    /// The byte-trie candidate index over this template's tuples, built on
    /// first use and shared by clones (see [`crate::index`]).
    pub fn tuple_index(&self) -> &TupleIndex {
        self.index.get_or_init(|| Arc::new(TupleIndex::build(self)))
    }

    /// The tagged tuples, sorted canonically.
    #[inline]
    pub fn tuples(&self) -> &[TaggedTuple] {
        &self.tuples
    }

    /// Number of tagged tuples (`#(T)` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Templates are never empty, but clippy insists.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `TRS(T)`: attributes at which some tuple holds a distinguished
    /// symbol.
    pub fn trs(&self) -> Scheme {
        Scheme::collect(
            self.tuples
                .iter()
                .flat_map(|t| t.row())
                .filter(|s| s.is_distinguished())
                .map(|s| s.attr()),
        )
    }

    /// `RN(T)`: the set of tags.
    pub fn rel_names(&self) -> BTreeSet<RelId> {
        self.tuples.iter().map(TaggedTuple::rel).collect()
    }

    /// All symbols occurring in the template (with repetition).
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.tuples.iter().flat_map(|t| t.row().iter().copied())
    }

    /// The distinct nondistinguished symbols, sorted.
    pub fn nondistinguished_symbols(&self) -> Vec<Symbol> {
        let set: BTreeSet<Symbol> = self.symbols().filter(|s| !s.is_distinguished()).collect();
        set.into_iter().collect()
    }

    /// A [`SymbolGen`] that will never collide with this template.
    pub fn symbol_gen(&self) -> SymbolGen {
        let mut g = SymbolGen::new();
        g.reserve_all(self.symbols());
        g
    }

    /// Index of a tagged tuple within the canonical order.
    pub fn index_of(&self, t: &TaggedTuple) -> Option<usize> {
        self.tuples.binary_search(t).ok()
    }

    /// The subtemplate keeping exactly the given indices.
    ///
    /// Fails (returns the constructor's error) if the selection is empty or
    /// loses every distinguished symbol.
    pub fn subtemplate(&self, keep: &[usize]) -> Result<Template, TemplateError> {
        Template::new(keep.iter().map(|&i| self.tuples[i].clone()).collect())
    }

    /// The template with tuple `i` removed.
    pub fn without(&self, i: usize) -> Result<Template, TemplateError> {
        let mut tuples = self.tuples.clone();
        tuples.remove(i);
        Template::new(tuples)
    }

    /// Relabel every nondistinguished symbol with a fresh one from `gen`
    /// (consistently: equal symbols stay equal). Used to make templates
    /// symbol-disjoint before a join (Algorithm 2.1.1(iii)).
    pub fn relabel_disjoint(&self, gen: &mut SymbolGen) -> Template {
        // Images of the distinct nondistinguished symbols (sorted, so
        // binary-searched), minted in first-occurrence order.
        let mut map: Vec<(Symbol, Option<Symbol>)> = self
            .symbols()
            .filter(|s| !s.is_distinguished())
            .map(|s| (s, None))
            .collect();
        map.sort_unstable_by_key(|&(s, _)| s);
        map.dedup_by_key(|&mut (s, _)| s);
        let tuples = self
            .tuples
            .iter()
            .map(|t| {
                t.map_symbols(|s| {
                    if s.is_distinguished() {
                        return s;
                    }
                    let pos = map
                        .binary_search_by_key(&s, |&(k, _)| k)
                        .expect("every nondistinguished symbol is listed");
                    *map[pos].1.get_or_insert_with(|| gen.fresh(s.attr()))
                })
            })
            .collect();
        Template::new(tuples).expect("relabeling preserves validity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Catalog, RelId, RelId) {
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["A", "B"]).unwrap();
        let s = cat.relation("S", &["B", "C"]).unwrap();
        (cat, r, s)
    }

    #[test]
    fn atom_template_is_all_distinguished() {
        let (cat, r, _) = setup();
        let t = Template::atom(r, &cat);
        assert_eq!(t.len(), 1);
        assert_eq!(t.trs(), *cat.scheme_of(r));
        assert!(t.rel_names().contains(&r));
    }

    #[test]
    fn tagged_tuple_validates_row() {
        let (cat, r, _) = setup();
        let a = cat.lookup_attr("A").unwrap();
        let b = cat.lookup_attr("B").unwrap();
        let c = cat.lookup_attr("C").unwrap();
        assert!(
            TaggedTuple::new(r, vec![Symbol::distinguished(a), Symbol::new(b, 1)], &cat).is_ok()
        );
        // wrong width
        assert!(TaggedTuple::new(r, vec![Symbol::distinguished(a)], &cat).is_err());
        // wrong column
        assert!(
            TaggedTuple::new(r, vec![Symbol::distinguished(a), Symbol::new(c, 1)], &cat).is_err()
        );
    }

    #[test]
    fn template_requires_a_distinguished_symbol() {
        let (cat, r, _) = setup();
        let a = cat.lookup_attr("A").unwrap();
        let b = cat.lookup_attr("B").unwrap();
        let nd = TaggedTuple::new(r, vec![Symbol::new(a, 1), Symbol::new(b, 1)], &cat).unwrap();
        assert_eq!(
            Template::new(vec![nd]).unwrap_err(),
            TemplateError::NoDistinguishedSymbol
        );
        assert_eq!(
            Template::new(vec![]).unwrap_err(),
            TemplateError::EmptyTemplate
        );
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let (cat, r, s) = setup();
        let t1 = TaggedTuple::all_distinguished(r, &cat);
        let t2 = TaggedTuple::all_distinguished(s, &cat);
        let t = Template::new(vec![t2.clone(), t1.clone(), t2.clone()]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.index_of(&t1), Some(0));
        assert_eq!(t.index_of(&t2), Some(1));
    }

    #[test]
    fn trs_collects_distinguished_attrs() {
        let (cat, r, s) = setup();
        let a = cat.lookup_attr("A").unwrap();
        let b = cat.lookup_attr("B").unwrap();
        let c = cat.lookup_attr("C").unwrap();
        // (0_A, b1) tagged R and (b1? no — B column needs B symbols) …
        let t1 =
            TaggedTuple::new(r, vec![Symbol::distinguished(a), Symbol::new(b, 1)], &cat).unwrap();
        let t2 =
            TaggedTuple::new(s, vec![Symbol::new(b, 1), Symbol::distinguished(c)], &cat).unwrap();
        let t = Template::new(vec![t1, t2]).unwrap();
        assert_eq!(t.trs(), Scheme::new([a, c]).unwrap());
        assert_eq!(t.nondistinguished_symbols(), vec![Symbol::new(b, 1)]);
    }

    #[test]
    fn relabel_disjoint_preserves_sharing_structure() {
        let (cat, r, s) = setup();
        let a = cat.lookup_attr("A").unwrap();
        let b = cat.lookup_attr("B").unwrap();
        let c = cat.lookup_attr("C").unwrap();
        let t1 =
            TaggedTuple::new(r, vec![Symbol::distinguished(a), Symbol::new(b, 1)], &cat).unwrap();
        let t2 =
            TaggedTuple::new(s, vec![Symbol::new(b, 1), Symbol::distinguished(c)], &cat).unwrap();
        let t = Template::new(vec![t1, t2]).unwrap();
        let mut gen = t.symbol_gen();
        let relabeled = t.relabel_disjoint(&mut gen);
        // Still two tuples, b1 became some fresh shared symbol.
        assert_eq!(relabeled.len(), 2);
        let nd = relabeled.nondistinguished_symbols();
        assert_eq!(nd.len(), 1);
        assert_ne!(nd[0], Symbol::new(b, 1));
        assert_eq!(relabeled.trs(), t.trs());
    }

    #[test]
    fn subtemplate_selection() {
        let (cat, r, s) = setup();
        let t = Template::new(vec![
            TaggedTuple::all_distinguished(r, &cat),
            TaggedTuple::all_distinguished(s, &cat),
        ])
        .unwrap();
        let sub = t.subtemplate(&[0]).unwrap();
        assert_eq!(sub.len(), 1);
        assert!(t.subtemplate(&[]).is_err());
        let w = t.without(1).unwrap();
        assert_eq!(w, sub);
    }
}
