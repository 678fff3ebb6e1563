//! Template-level projection and join.
//!
//! These realize the closure operations of Section 1.5 directly on
//! templates, mirroring the corresponding clauses of Algorithm 2.1.1:
//!
//! * [`project_template`]: `π_X(T)` — rename each `0_A` with `A ∈ TRS − X`
//!   to a fresh nondistinguished symbol (Algorithm 2.1.1(ii));
//! * [`join_templates`]: `T₁ ⋈ T₂` — union after relabeling to disjoint
//!   nondistinguished symbols (Algorithm 2.1.1(iii)).
//!
//! Both commute with the mappings: `project_template(T, X)` realizes
//! `π_X ∘ T` and `join_templates(T₁, T₂)` realizes `T₁ ⋈ T₂`
//! (Lemma 2.3.1 uses exactly these constructions). Semantic agreement is
//! cross-checked in the crate's property tests.

use crate::error::TemplateError;
use crate::template::Template;
use viewcap_base::{AttrId, Scheme, Symbol};

/// The template realizing `π_X ∘ T`.
///
/// Requires `∅ ≠ X ⊆ TRS(T)`.
pub fn project_template(t: &Template, x: &Scheme) -> Result<Template, TemplateError> {
    let trs = t.trs();
    if x.is_empty() || !x.is_subset_of(&trs) {
        return Err(TemplateError::BadProjection {
            target: x.clone(),
            trs,
        });
    }
    let mut gen = t.symbol_gen();
    // One fresh symbol per hidden attribute, shared by every occurrence of
    // the old 0_A (this is what creates cross-tuple symbol sharing). The
    // hidden attributes are `TRS − X`, sorted, so the images are a small
    // binary-searched vector, minted on first occurrence.
    let mut fresh: Vec<(AttrId, Option<Symbol>)> = trs
        .iter()
        .filter(|&a| !x.contains(a))
        .map(|a| (a, None))
        .collect();
    let tuples = t
        .tuples()
        .iter()
        .map(|tup| {
            tup.map_symbols(|s| {
                if !s.is_distinguished() {
                    return s;
                }
                match fresh.binary_search_by_key(&s.attr(), |&(a, _)| a) {
                    Ok(pos) => *fresh[pos].1.get_or_insert_with(|| gen.fresh(s.attr())),
                    Err(_) => s,
                }
            })
        })
        .collect();
    Template::new(tuples)
}

/// The template realizing `T₁ ⋈ T₂`.
///
/// The right operand is relabeled so its nondistinguished symbols are
/// disjoint from the left's; the tuple sets are then unioned (distinguished
/// symbols intentionally coincide — that is the join condition).
pub fn join_templates(left: &Template, right: &Template) -> Template {
    let mut gen = left.symbol_gen();
    gen.reserve_all(right.symbols());
    let right = right.relabel_disjoint(&mut gen);
    let mut tuples = left.tuples().to_vec();
    tuples.extend(right.tuples().iter().cloned());
    Template::new(tuples).expect("join of valid templates is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom::equivalent_templates;
    use crate::template::TaggedTuple;
    use viewcap_base::{Catalog, RelId};

    fn setup() -> (Catalog, RelId, RelId) {
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["A", "B"]).unwrap();
        let s = cat.relation("S", &["B", "C"]).unwrap();
        (cat, r, s)
    }

    #[test]
    fn projection_hides_attributes() {
        let (cat, r, _) = setup();
        let b = cat.lookup_attr("B").unwrap();
        let t = Template::atom(r, &cat);
        let p = project_template(&t, &Scheme::new([b]).unwrap()).unwrap();
        assert_eq!(p.trs(), Scheme::new([b]).unwrap());
        assert_eq!(p.len(), 1);
        // A-column became nondistinguished.
        let a = cat.lookup_attr("A").unwrap();
        assert!(!p.tuples()[0].symbol_at(a).unwrap().is_distinguished());
    }

    #[test]
    fn projection_validates_target() {
        let (cat, r, _) = setup();
        let c = cat.lookup_attr("C").unwrap();
        let t = Template::atom(r, &cat);
        assert!(project_template(&t, &Scheme::new([c]).unwrap()).is_err());
        assert!(project_template(&t, &Scheme::empty()).is_err());
    }

    #[test]
    fn projection_shares_the_fresh_symbol() {
        // Join R with R (two tuples each holding 0_A) then project A away:
        // both occurrences of 0_A must become the SAME fresh symbol.
        let (cat, r, s) = setup();
        let j = join_templates(&Template::atom(r, &cat), &Template::atom(s, &cat));
        let b = cat.lookup_attr("B").unwrap();
        let c = cat.lookup_attr("C").unwrap();
        let p = project_template(&j, &Scheme::new([c]).unwrap()).unwrap();
        // B was shared (0_B in both); after hiding B both rows hold the same
        // fresh symbol in column B.
        let syms: Vec<Symbol> = p.tuples().iter().filter_map(|t| t.symbol_at(b)).collect();
        assert_eq!(syms.len(), 2);
        assert_eq!(syms[0], syms[1]);
        assert!(!syms[0].is_distinguished());
    }

    #[test]
    fn join_makes_operands_symbol_disjoint() {
        let (cat, r, _) = setup();
        let a = cat.lookup_attr("A").unwrap();
        let b = cat.lookup_attr("B").unwrap();
        // Two copies of π_B(R): each has a private a-symbol; joined they must
        // stay private (b-columns stay distinguished and shared).
        let pb = project_template(&Template::atom(r, &cat), &Scheme::new([b]).unwrap()).unwrap();
        let j = join_templates(&pb, &pb);
        assert_eq!(j.len(), 2);
        let a_syms: Vec<Symbol> = j.tuples().iter().filter_map(|t| t.symbol_at(a)).collect();
        assert_ne!(
            a_syms[0], a_syms[1],
            "nondistinguished symbols must stay disjoint"
        );
        assert_eq!(j.trs(), Scheme::new([b]).unwrap());
    }

    #[test]
    fn join_with_self_of_atom_collapses() {
        // η ⋈ η has the single all-distinguished tuple: identical rows merge
        // under set semantics, matching η ⋈ η ≡ η.
        let (cat, r, _) = setup();
        let atom = Template::atom(r, &cat);
        let j = join_templates(&atom, &atom);
        assert_eq!(j.len(), 1);
        assert!(equivalent_templates(&j, &atom));
    }

    #[test]
    fn join_is_commutative_up_to_equivalence() {
        let (cat, r, s) = setup();
        let tr = Template::atom(r, &cat);
        let ts = Template::atom(s, &cat);
        let j1 = join_templates(&tr, &ts);
        let j2 = join_templates(&ts, &tr);
        assert!(equivalent_templates(&j1, &j2));
    }

    #[test]
    fn tagged_tuple_symbol_at_out_of_scheme_is_none() {
        let (cat, r, _) = setup();
        let c = cat.lookup_attr("C").unwrap();
        let tup = TaggedTuple::all_distinguished(r, &cat);
        assert!(tup.symbol_at(c).is_none());
    }
}
