//! Queries as semantic objects.
//!
//! The paper's queries are *expression mappings* — what an expression (or
//! template) denotes, independent of its realization (Section 1.2, and the
//! reminder opening Section 2). A [`Query`] therefore stores a **reduced
//! template** as the canonical semantic representative, plus the originating
//! expression when one exists (for display and for surrogate expressions).
//!
//! Equality of mappings is decidable (Proposition 2.4.3) and exposed as
//! [`Query::equiv`].

use std::collections::BTreeSet;
use std::sync::OnceLock;
use viewcap_base::{AttrId, Catalog, Instantiation, RelId, Relation, Scheme};
use viewcap_expr::Expr;
use viewcap_template::{
    canonical_key, canonical_key_with, equivalent_templates, eval_template, join_templates,
    project_template, reduce, template_of_expr, CanonKey, KeyLabels, Template, TemplateError,
};

/// An expression mapping: a query of a database schema.
#[derive(Clone, Debug)]
pub struct Query {
    /// Reduced template — the canonical semantic representative.
    template: Template,
    /// Expression provenance, when the query was built from an expression.
    expr: Option<Expr>,
    /// Lazily computed canonical key (the permutation search in
    /// `canonical_key` is the expensive part of fingerprinting; computing
    /// it once per `Query` object — and once per *lineage*, since clones
    /// copy a filled cell — is ROADMAP's "cache per-Query keys" item).
    canon: OnceLock<CanonKey>,
    /// Lazily computed *content* key plus, for the catalog-mismatch
    /// guard, the content digests of the relations the template mentions
    /// at the time the key was computed (see [`Query::content_key`]).
    content: OnceLock<(Vec<(RelId, u128)>, CanonKey)>,
}

impl Query {
    /// The query realized by an expression (Algorithm 2.1.1 + reduction).
    pub fn from_expr(expr: Expr, catalog: &Catalog) -> Query {
        let template = reduce(&template_of_expr(&expr, catalog));
        Query {
            template,
            expr: Some(expr),
            canon: OnceLock::new(),
            content: OnceLock::new(),
        }
    }

    /// The query realized by a template.
    pub fn from_template(template: &Template) -> Query {
        Query {
            template: reduce(template),
            expr: None,
            canon: OnceLock::new(),
            content: OnceLock::new(),
        }
    }

    /// The canonical (reduced) template.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// The originating expression, if any.
    pub fn expr(&self) -> Option<&Expr> {
        self.expr.as_ref()
    }

    /// `TRS` of the mapping.
    pub fn trs(&self) -> Scheme {
        self.template.trs()
    }

    /// `RN` of the mapping.
    pub fn rel_names(&self) -> BTreeSet<RelId> {
        self.template.rel_names()
    }

    /// Do the two queries denote the same mapping? (Prop 2.4.3.)
    pub fn equiv(&self, other: &Query) -> bool {
        equivalent_templates(&self.template, &other.template)
    }

    /// Isomorphism-invariant canonical key of the reduced template — the
    /// canonicalization hook behind `viewcap-engine`'s fingerprints.
    ///
    /// Equal keys imply equivalent queries (isomorphic reduced templates
    /// denote the same mapping); the converse holds whenever the key is
    /// exact. Computed once per query and memoized (clones inherit the
    /// memo).
    pub fn canonical_key(&self) -> &CanonKey {
        self.canon.get_or_init(|| canonical_key(&self.template))
    }

    /// Catalog-content-addressed canonical key of the reduced template —
    /// the canonicalization behind `viewcap-engine`'s persistent
    /// fingerprints.
    ///
    /// Tuples are labeled by relation *content digests*
    /// ([`Catalog::rel_digest`]) and rows traversed in attribute *name*
    /// order, so two catalogs declaring the same relations in any order
    /// assign equal keys to equal query content. Only the relations the
    /// template mentions are digested, and only their attributes ranked
    /// (only the relative order of ranks enters the key), so the first
    /// call costs O(|template|) plus the canonicalization, independent of
    /// the catalog's size.
    ///
    /// Memoized like [`Query::canonical_key`]; a query is bound to the
    /// catalog it was built against (its template embeds that catalog's
    /// ids), and the key is stable under later growth of that same
    /// catalog, so one memo cell suffices. Every call checks that
    /// precondition — O(|mentioned relations|) digests — and panics when
    /// `catalog` assigns a mentioned relation *different content* than the
    /// memoized call's catalog did, instead of returning a key that is
    /// wrong for it.
    pub fn content_key(&self, catalog: &Catalog) -> &CanonKey {
        let (mentioned, key) = self.content.get_or_init(|| {
            let mentioned: Vec<(RelId, u128)> = self
                .template
                .rel_names()
                .into_iter()
                .map(|r| (r, catalog.rel_digest(r).as_u128()))
                .collect();
            // `(attribute, rank by name)` over the mentioned schemes, sorted
            // by attribute for lookup.
            let mut by_name: Vec<AttrId> = mentioned
                .iter()
                .flat_map(|&(r, _)| catalog.scheme_of(r).iter())
                .collect();
            by_name.sort_unstable_by_key(|&a| catalog.attr_name(a));
            by_name.dedup();
            let mut ranks: Vec<(AttrId, u64)> = by_name.into_iter().zip(0..).collect();
            ranks.sort_unstable();
            let key = canonical_key_with(
                &self.template,
                &KeyLabels {
                    rel_label: &|r| lookup(&mentioned, r),
                    attr_rank: &|a| lookup(&ranks, a),
                },
            );
            (mentioned, key)
        });
        assert!(
            mentioned
                .iter()
                .all(|&(r, digest)| r.index() < catalog.rel_count()
                    && catalog.rel_digest(r).as_u128() == digest),
            "Query::content_key called with a catalog that disagrees with \
             the one the key was memoized against"
        );
        key
    }

    /// Evaluate the mapping on an instantiation.
    pub fn eval(&self, alpha: &Instantiation, catalog: &Catalog) -> Relation {
        eval_template(&self.template, alpha, catalog)
    }

    /// `π_X ∘ Q` (requires `∅ ≠ X ⊆ TRS(Q)`).
    ///
    /// Expression provenance is carried through when present.
    pub fn project(&self, x: &Scheme, catalog: &Catalog) -> Result<Query, TemplateError> {
        let template = reduce(&project_template(&self.template, x)?);
        let expr = self
            .expr
            .as_ref()
            .and_then(|e| Expr::project(e.clone(), x.clone(), catalog).ok());
        Ok(Query {
            template,
            expr,
            canon: OnceLock::new(),
            content: OnceLock::new(),
        })
    }

    /// `Q ⋈ Q'`.
    pub fn join(&self, other: &Query) -> Query {
        let template = reduce(&join_templates(&self.template, &other.template));
        let expr = match (&self.expr, &other.expr) {
            (Some(a), Some(b)) => Expr::join(vec![a.clone(), b.clone()]).ok(),
            _ => None,
        };
        Query {
            template,
            expr,
            canon: OnceLock::new(),
            content: OnceLock::new(),
        }
    }
}

/// The value paired with `key` in a table sorted by key (which must hold it).
fn lookup<K: Ord + Copy, V: Copy>(table: &[(K, V)], key: K) -> V {
    table[table.partition_point(|&(k, _)| k < key)].1
}

/// A query set (Section 1.5): an ordered collection of queries with
/// equivalence-aware helpers.
///
/// View definitions need positional access (pairs line up with view-schema
/// names), so this is a thin wrapper over `Vec<Query>` rather than a
/// deduplicating set; use [`QuerySet::dedup_equiv`] where the paper reasons
/// modulo equivalence.
#[derive(Clone, Debug, Default)]
pub struct QuerySet {
    queries: Vec<Query>,
}

impl QuerySet {
    /// Build from queries.
    pub fn new(queries: Vec<Query>) -> Self {
        QuerySet { queries }
    }

    /// The underlying queries.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Does the set contain a query equivalent to `q`?
    pub fn contains_equiv(&self, q: &Query) -> bool {
        self.queries.iter().any(|x| x.equiv(q))
    }

    /// Index of the first query equivalent to `q`.
    pub fn position_equiv(&self, q: &Query) -> Option<usize> {
        self.queries.iter().position(|x| x.equiv(q))
    }

    /// Keep the first representative of each equivalence class.
    pub fn dedup_equiv(&self) -> QuerySet {
        let mut out: Vec<Query> = Vec::with_capacity(self.queries.len());
        for q in &self.queries {
            if !out.iter().any(|x| x.equiv(q)) {
                out.push(q.clone());
            }
        }
        QuerySet { queries: out }
    }

    /// Append a query.
    pub fn push(&mut self, q: Query) {
        self.queries.push(q);
    }

    /// Remove and return the query at `i`.
    pub fn remove(&mut self, i: usize) -> Query {
        self.queries.remove(i)
    }

    /// Same queries up to pairwise equivalence (both directions)?
    ///
    /// This is the equality notion of Theorem 4.2.2.
    pub fn same_modulo_equiv(&self, other: &QuerySet) -> bool {
        self.queries.iter().all(|q| other.contains_equiv(q))
            && other.queries.iter().all(|q| self.contains_equiv(q))
    }
}

impl FromIterator<Query> for QuerySet {
    fn from_iter<I: IntoIterator<Item = Query>>(iter: I) -> Self {
        QuerySet {
            queries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewcap_expr::parse_expr;

    fn setup() -> Catalog {
        let mut cat = Catalog::new();
        cat.relation("R", &["A", "B", "C"]).unwrap();
        cat
    }

    #[test]
    fn equivalence_sees_through_syntax() {
        let cat = setup();
        // R ⋈ π_AB(R) ≡ R.
        let q1 = Query::from_expr(parse_expr("R * pi{A,B}(R)", &cat).unwrap(), &cat);
        let q2 = Query::from_expr(parse_expr("R", &cat).unwrap(), &cat);
        assert!(q1.equiv(&q2));
        assert_eq!(q1.template().len(), 1); // reduction collapsed the join
    }

    #[test]
    fn projection_and_join_compose() {
        let cat = setup();
        let r = Query::from_expr(parse_expr("R", &cat).unwrap(), &cat);
        let ab = cat.scheme_of(cat.lookup_rel("R").unwrap()).clone();
        let mut it = ab.iter();
        let a = it.next().unwrap();
        let b = it.next().unwrap();
        let x = Scheme::new([a, b]).unwrap();
        let p = r.project(&x, &cat).unwrap();
        assert_eq!(p.trs(), x);
        let j = p.join(&r);
        assert!(j.equiv(&r)); // π_AB(R) ⋈ R ≡ R
        assert!(j.expr().is_some());
    }

    #[test]
    fn query_set_dedups_by_equivalence() {
        let cat = setup();
        let q1 = Query::from_expr(parse_expr("pi{A,B}(R)", &cat).unwrap(), &cat);
        let q2 = Query::from_expr(parse_expr("pi{A,B}(R * R)", &cat).unwrap(), &cat);
        let q3 = Query::from_expr(parse_expr("pi{B,C}(R)", &cat).unwrap(), &cat);
        let qs = QuerySet::new(vec![q1.clone(), q2, q3.clone()]);
        let dd = qs.dedup_equiv();
        assert_eq!(dd.len(), 2);
        assert!(dd.contains_equiv(&q1));
        assert!(dd.contains_equiv(&q3));
        assert!(qs.same_modulo_equiv(&dd));
    }

    #[test]
    fn content_key_survives_catalog_growth() {
        let mut cat = setup();
        let q1 = Query::from_expr(parse_expr("pi{A,B}(R)", &cat).unwrap(), &cat);
        let key = q1.content_key(&cat).clone();
        cat.relation("S", &["AA", "B"]).unwrap();
        assert_eq!(q1.content_key(&cat), &key);
    }

    #[test]
    #[should_panic(expected = "disagrees with the one the key was memoized against")]
    fn content_key_rejects_a_catalog_with_different_content() {
        let cat = setup();
        let q1 = Query::from_expr(parse_expr("pi{A,B}(R)", &cat).unwrap(), &cat);
        q1.content_key(&cat);
        // Same id, same name, different scheme: the memoized key would be
        // wrong for this catalog.
        let mut other = Catalog::new();
        other.relation("R", &["A", "B", "D"]).unwrap();
        q1.content_key(&other);
    }

    #[test]
    fn position_equiv_finds_first_match() {
        let cat = setup();
        let q1 = Query::from_expr(parse_expr("pi{A}(R)", &cat).unwrap(), &cat);
        let q2 = Query::from_expr(parse_expr("pi{B}(R)", &cat).unwrap(), &cat);
        let qs = QuerySet::new(vec![q1.clone(), q2.clone()]);
        assert_eq!(qs.position_equiv(&q2), Some(1));
        let q3 = Query::from_expr(parse_expr("pi{C}(R)", &cat).unwrap(), &cat);
        assert_eq!(qs.position_equiv(&q3), None);
    }
}
