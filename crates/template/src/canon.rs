//! Canonical keys and isomorphism of templates.
//!
//! Two templates are *isomorphic* (paper, Section 2.4) when a bijective
//! valuation maps one onto the other with a homomorphic inverse — i.e. they
//! are equal up to renaming of nondistinguished symbols. Isomorphism is what
//! Theorem 4.2.2's uniqueness statement is phrased in, and what the search
//! engine uses to bucket candidates.
//!
//! [`canonical_key`] computes an isomorphism-invariant key: tuples are
//! grouped by a strong local invariant, and the key is minimized over
//! within-group orderings with nondistinguished symbols renamed by first
//! occurrence. Keys are *complete* for templates whose group-permutation
//! budget stays under [`PERM_BUDGET`] (equal keys ⇔ isomorphic); above the
//! budget the key degrades to a sound-but-incomplete invariant and
//! [`is_isomorphic`] falls back to backtracking search, so correctness never
//! depends on the budget.
//!
//! **Costs.** A key sorts the template's symbol occurrences once, which
//! yields both the occurrence counts and dense symbol indices, so no hash
//! map is built. It then builds one invariant vector per tuple and encodes
//! each explored ordering into reused buffers, renaming symbols through
//! arrays indexed by those dense indices. For the 1–3-tuple templates of a
//! candidate-space level build, that is a handful of small allocations per
//! key.

use crate::template::Template;
use std::collections::HashMap;
use std::ops::ControlFlow;
use viewcap_base::{AttrId, RelId, Symbol};

/// Maximum number of tuple orderings explored for an exact canonical key.
pub const PERM_BUDGET: usize = 40_320; // 8!

/// An isomorphism-invariant key for a template.
///
/// `exact == true` keys are complete: two templates with equal exact keys
/// are isomorphic, and isomorphic templates have equal exact keys.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CanonKey {
    words: Vec<u64>,
    exact: bool,
}

impl CanonKey {
    /// Whether this key is complete for isomorphism.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// The key's word encoding.
    ///
    /// Equal word sequences always imply isomorphic templates (the encoding
    /// determines the template up to renaming of nondistinguished symbols),
    /// even for inexact keys — inexactness only means *isomorphic templates
    /// may encode differently*. Downstream fingerprinting (the
    /// `viewcap-engine` verdict cache) relies on exactly this direction.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Labels controlling how a canonical key names catalog structure.
///
/// The default key ([`canonical_key`]) labels tuples by raw [`RelId`] and
/// orders row slots by [`AttrId`] — cheap, and complete for
/// within-catalog isomorphism. Content-addressed callers (the
/// `viewcap-engine` fingerprints) substitute catalog-independent labels:
/// relation *content digests* and attribute *name* ranks, making equal
/// keys mean "same template content" across catalogs that declared the
/// same relations in any order.
///
/// `attr_rank` must be injective on the attributes the template uses (any
/// rank derived from distinct names or distinct ids qualifies); only the
/// *relative order* of ranks enters the key, so rank tables that shift
/// under catalog growth stay sound as long as relative order is preserved.
pub struct KeyLabels<'a> {
    /// 128-bit label per relation tag.
    pub rel_label: &'a dyn Fn(RelId) -> u128,
    /// Total-order rank for row slots (canonical attribute order).
    pub attr_rank: &'a dyn Fn(AttrId) -> u64,
}

/// One canonicalization's view of a template, computed once and shared by
/// the (up to [`PERM_BUDGET`]) encodings the minimization runs: each
/// tuple's label and its symbols in canonical slot order, as dense indices
/// into the template's distinct symbols.
struct Prepared {
    /// Per tuple, its relation label.
    labels: Vec<u128>,
    /// Per tuple, its cells' symbol indices in canonical slot order:
    /// tuple `i` owns `cells[starts[i]..starts[i + 1]]`.
    cells: Vec<u32>,
    starts: Vec<usize>,
    /// The distinct symbols, sorted (so one attribute's symbols are
    /// contiguous), with their occurrence counts across the template.
    syms: Vec<(Symbol, u64)>,
    /// Per distinct symbol, the dense index of its attribute.
    attr_of: Vec<u32>,
    /// Number of distinct attributes.
    n_attrs: usize,
}

impl Prepared {
    fn new(t: &Template, labels: &KeyLabels<'_>) -> Prepared {
        // Occurrence counts: sort every occurrence, then run-length encode.
        let mut all: Vec<Symbol> = t.symbols().collect();
        all.sort_unstable();
        let n_cells = all.len();
        let mut syms: Vec<(Symbol, u64)> = Vec::with_capacity(all.len());
        let mut attr_of: Vec<u32> = Vec::with_capacity(all.len());
        let mut n_attrs = 0usize;
        for s in all {
            match syms.last_mut() {
                Some((last, count)) if *last == s => *count += 1,
                last => {
                    if last.is_none_or(|(l, _)| l.attr() != s.attr()) {
                        n_attrs += 1;
                    }
                    syms.push((s, 1));
                    attr_of.push(n_attrs as u32 - 1);
                }
            }
        }
        let mut tuple_labels = Vec::with_capacity(t.len());
        let mut cells = Vec::with_capacity(n_cells);
        let mut starts = Vec::with_capacity(t.len() + 1);
        let mut slots: Vec<usize> = Vec::new();
        for tup in t.tuples() {
            tuple_labels.push((labels.rel_label)(tup.rel()));
            starts.push(cells.len());
            let row = tup.row();
            slots.clear();
            slots.extend(0..row.len());
            slots.sort_unstable_by_key(|&j| ((labels.attr_rank)(row[j].attr()), row[j].attr().0));
            cells.extend(slots.iter().map(|&j| {
                syms.binary_search_by_key(&row[j], |&(s, _)| s)
                    .expect("every symbol is counted") as u32
            }));
        }
        starts.push(cells.len());
        Prepared {
            labels: tuple_labels,
            cells,
            starts,
            syms,
            attr_of,
            n_attrs,
        }
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.cells[self.starts[i]..self.starts[i + 1]]
    }

    /// Per-tuple invariant used to pre-group tuples before permutation:
    /// the label, then per slot whether the symbol is distinguished and
    /// how often it occurs. Isomorphisms preserve each field, so only
    /// within-group reorderings can witness an isomorphism.
    fn invariant(&self, i: usize) -> Vec<u64> {
        let label = self.labels[i];
        let row = self.row(i);
        let mut inv = Vec::with_capacity(2 + 2 * row.len());
        inv.push((label >> 64) as u64);
        inv.push(label as u64);
        for &c in row {
            let (s, count) = self.syms[c as usize];
            inv.push(if s.is_distinguished() { 1 } else { 0 });
            inv.push(count);
        }
        inv
    }

    /// Encode the template under a fixed tuple ordering into `out`,
    /// renaming nondistinguished symbols by first occurrence (per
    /// attribute). `rename` and `next` are scratch, sized to the distinct
    /// symbols and attributes.
    fn encode(&self, order: &[usize], out: &mut Vec<u64>, rename: &mut [u64], next: &mut [u64]) {
        out.clear();
        rename.fill(0);
        next.fill(0);
        for &i in order {
            out.push(u64::MAX); // tuple separator
            let label = self.labels[i];
            out.push((label >> 64) as u64);
            out.push(label as u64);
            for &c in self.row(i) {
                let c = c as usize;
                if self.syms[c].0.is_distinguished() {
                    out.push(0);
                } else {
                    if rename[c] == 0 {
                        let counter = &mut next[self.attr_of[c] as usize];
                        *counter += 1;
                        rename[c] = *counter;
                    }
                    out.push(rename[c]);
                }
            }
        }
    }
}

/// Compute the canonical key with the default (within-catalog) labels.
pub fn canonical_key(t: &Template) -> CanonKey {
    canonical_key_with(
        t,
        &KeyLabels {
            rel_label: &|r| r.0 as u128,
            attr_rank: &|a| a.0 as u64,
        },
    )
}

/// Compute the canonical key under caller-chosen labels (see module docs
/// and [`KeyLabels`]). Two templates get equal keys iff they are
/// isomorphic *as labeled* — with content-addressed labels, that means
/// isomorphic template content regardless of catalog declaration order.
///
/// The inexact fallback (permutation budget exceeded) breaks ties by the
/// template's internal tuple order, which *is* catalog-relative; inexact
/// keys under content labels may therefore differ across catalogs, which
/// only costs downstream cache hits, never correctness.
pub fn canonical_key_with(t: &Template, labels: &KeyLabels<'_>) -> CanonKey {
    let prep = Prepared::new(t, labels);
    // Group indices by invariant.
    let mut keyed: Vec<(Vec<u64>, usize)> = (0..t.len()).map(|i| (prep.invariant(i), i)).collect();
    keyed.sort();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_invs: Vec<Vec<u64>> = Vec::new();
    for (inv, i) in keyed {
        if group_invs.last() == Some(&inv) {
            groups.last_mut().expect("nonempty").push(i);
        } else {
            group_invs.push(inv);
            groups.push(vec![i]);
        }
    }

    // Permutation budget: product of group factorials.
    let mut budget: usize = 1;
    for g in &groups {
        budget = budget.saturating_mul(factorial(g.len()));
        if budget > PERM_BUDGET {
            break;
        }
    }

    let mut rename = vec![0u64; prep.syms.len()];
    let mut next = vec![0u64; prep.n_attrs];
    let mut words = Vec::with_capacity(prep.cells.len() + 3 * t.len() + 1);
    if budget > PERM_BUDGET {
        // Inexact fallback: encode with the invariant-sorted order.
        let order: Vec<usize> = groups.iter().flatten().copied().collect();
        prep.encode(&order, &mut words, &mut rename, &mut next);
        words.push(u64::MAX - 1); // marker: inexact keys never equal exact ones
        return CanonKey {
            words,
            exact: false,
        };
    }

    // Minimize over within-group permutations.
    let mut best: Option<Vec<u64>> = None;
    permute_groups(&groups, &mut |full_order| {
        prep.encode(full_order, &mut words, &mut rename, &mut next);
        match &mut best {
            Some(b) if *b <= words => {}
            Some(b) => std::mem::swap(b, &mut words),
            None => best = Some(std::mem::take(&mut words)),
        }
        ControlFlow::Continue(())
    });
    CanonKey {
        words: best.expect("at least one ordering"),
        exact: true,
    }
}

fn factorial(n: usize) -> usize {
    (2..=n).product::<usize>().max(1)
}

/// Enumerate all tuple orderings that permute only within groups.
fn permute_groups<F>(groups: &[Vec<usize>], f: &mut F)
where
    F: FnMut(&[usize]) -> ControlFlow<()>,
{
    fn groups_rec<F>(
        groups: &[Vec<usize>],
        gi: usize,
        prefix: &mut Vec<usize>,
        f: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&[usize]) -> ControlFlow<()>,
    {
        if gi == groups.len() {
            return f(prefix);
        }
        let mut pool = groups[gi].clone();
        perm_rec(groups, gi, &mut pool, prefix, f)
    }

    fn perm_rec<F>(
        groups: &[Vec<usize>],
        gi: usize,
        pool: &mut Vec<usize>,
        prefix: &mut Vec<usize>,
        f: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&[usize]) -> ControlFlow<()>,
    {
        if pool.is_empty() {
            return groups_rec(groups, gi + 1, prefix, f);
        }
        for k in 0..pool.len() {
            let item = pool.remove(k);
            prefix.push(item);
            let flow = perm_rec(groups, gi, pool, prefix, f);
            prefix.pop();
            pool.insert(k, item);
            if flow.is_break() {
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    }

    let _ = groups_rec(groups, 0, &mut Vec::new(), f);
}

/// Decide isomorphism: equal tuple counts, equal per-attribute symbol
/// counts, and a bijective structure match.
pub fn is_isomorphic(a: &Template, b: &Template) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let ka = canonical_key(a);
    let kb = canonical_key(b);
    if ka.exact && kb.exact {
        return ka == kb;
    }
    // Fallback: bijective backtracking via injective hom + counting.
    injective_match(a, b)
}

/// Is there an injective valuation mapping `a` bijectively onto `b`?
fn injective_match(a: &Template, b: &Template) -> bool {
    // Symbol cardinalities must match per attribute.
    let count = |t: &Template| {
        let mut m: HashMap<u32, std::collections::HashSet<Symbol>> = HashMap::new();
        for s in t.symbols().filter(|s| !s.is_distinguished()) {
            m.entry(s.attr().0).or_default().insert(s);
        }
        let mut v: Vec<(u32, usize)> = m.into_iter().map(|(k, s)| (k, s.len())).collect();
        v.sort();
        v
    };
    if count(a) != count(b) {
        return false;
    }

    fn search(
        a: &Template,
        b: &Template,
        i: usize,
        used: &mut Vec<bool>,
        map: &mut HashMap<Symbol, Symbol>,
        rev: &mut HashMap<Symbol, Symbol>,
    ) -> bool {
        if i == a.len() {
            return true;
        }
        let at = &a.tuples()[i];
        'target: for j in 0..b.len() {
            if used[j] || b.tuples()[j].rel() != at.rel() {
                continue;
            }
            let bt = &b.tuples()[j];
            let mut pushed: Vec<Symbol> = Vec::new();
            for (x, y) in at.row().iter().zip(bt.row()) {
                let ok = match (x.is_distinguished(), y.is_distinguished()) {
                    (true, true) => true,
                    (false, false) => match (map.get(x), rev.get(y)) {
                        (Some(m), _) if m != y => false,
                        (_, Some(r)) if r != x => false,
                        (Some(_), Some(_)) => true,
                        _ => {
                            map.insert(*x, *y);
                            rev.insert(*y, *x);
                            pushed.push(*x);
                            true
                        }
                    },
                    _ => false, // bijections preserve distinguishedness
                };
                if !ok {
                    for p in pushed {
                        let img = map.remove(&p).expect("pushed binding");
                        rev.remove(&img);
                    }
                    continue 'target;
                }
            }
            used[j] = true;
            if search(a, b, i + 1, used, map, rev) {
                return true;
            }
            used[j] = false;
            for p in pushed {
                let img = map.remove(&p).expect("pushed binding");
                rev.remove(&img);
            }
        }
        false
    }

    search(
        a,
        b,
        0,
        &mut vec![false; b.len()],
        &mut HashMap::new(),
        &mut HashMap::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::TaggedTuple;
    use viewcap_base::{Catalog, RelId};

    fn setup() -> (Catalog, RelId) {
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["A", "B", "C"]).unwrap();
        (cat, r)
    }

    fn t_with_c(cat: &Catalog, r: RelId, c_ord: u32, a_ord: u32) -> Template {
        let [a, b, c] = ["A", "B", "C"].map(|n| cat.lookup_attr(n).unwrap());
        Template::new(vec![
            TaggedTuple::new(
                r,
                vec![
                    Symbol::distinguished(a),
                    Symbol::distinguished(b),
                    Symbol::new(c, c_ord),
                ],
                cat,
            )
            .unwrap(),
            TaggedTuple::new(
                r,
                vec![
                    Symbol::new(a, a_ord),
                    Symbol::distinguished(b),
                    Symbol::distinguished(c),
                ],
                cat,
            )
            .unwrap(),
        ])
        .unwrap()
    }

    /// The hash-map canonicalization the production key replaced, kept
    /// verbatim as the oracle: the production key must produce the same
    /// words and the same exactness.
    mod oracle {
        use super::super::*;
        use std::collections::HashMap;

        fn slot_orders(t: &Template, labels: &KeyLabels<'_>) -> Vec<Vec<usize>> {
            t.tuples()
                .iter()
                .map(|tup| {
                    let row = tup.row();
                    let mut slots: Vec<usize> = (0..row.len()).collect();
                    slots.sort_unstable_by_key(|&j| {
                        ((labels.attr_rank)(row[j].attr()), row[j].attr().0)
                    });
                    slots
                })
                .collect()
        }

        fn tuple_invariant(
            t: &Template,
            idx: usize,
            labels: &KeyLabels<'_>,
            slots: &[Vec<usize>],
            occurs: &HashMap<Symbol, u64>,
        ) -> Vec<u64> {
            let tup = &t.tuples()[idx];
            let label = (labels.rel_label)(tup.rel());
            let mut inv = vec![(label >> 64) as u64, label as u64];
            for &j in &slots[idx] {
                let s = &tup.row()[j];
                inv.push(if s.is_distinguished() { 1 } else { 0 });
                inv.push(occurs[s]);
            }
            inv
        }

        fn encode(
            t: &Template,
            order: &[usize],
            labels: &KeyLabels<'_>,
            slots: &[Vec<usize>],
        ) -> Vec<u64> {
            let mut rename: HashMap<Symbol, u64> = HashMap::new();
            let mut next: HashMap<u32, u64> = HashMap::new();
            let mut out = Vec::with_capacity(order.len() * 8);
            for &i in order {
                let tup = &t.tuples()[i];
                out.push(u64::MAX);
                let label = (labels.rel_label)(tup.rel());
                out.push((label >> 64) as u64);
                out.push(label as u64);
                for &j in &slots[i] {
                    let s = &tup.row()[j];
                    if s.is_distinguished() {
                        out.push(0);
                    } else {
                        let code = *rename.entry(*s).or_insert_with(|| {
                            let c = next.entry(s.attr().0).or_insert(0);
                            *c += 1;
                            *c
                        });
                        out.push(code);
                    }
                }
            }
            out
        }

        pub(super) fn canonical_key_with(t: &Template, labels: &KeyLabels<'_>) -> CanonKey {
            let n = t.len();
            let mut occurs: HashMap<Symbol, u64> = HashMap::new();
            for s in t.symbols() {
                *occurs.entry(s).or_insert(0) += 1;
            }
            let slots = slot_orders(t, labels);
            let mut keyed: Vec<(Vec<u64>, usize)> = (0..n)
                .map(|i| (tuple_invariant(t, i, labels, &slots, &occurs), i))
                .collect();
            keyed.sort();
            let mut groups: Vec<Vec<usize>> = Vec::new();
            let mut group_invs: Vec<Vec<u64>> = Vec::new();
            for (inv, i) in keyed {
                if group_invs.last() == Some(&inv) {
                    groups.last_mut().expect("nonempty").push(i);
                } else {
                    group_invs.push(inv);
                    groups.push(vec![i]);
                }
            }
            let mut budget: usize = 1;
            for g in &groups {
                budget = budget.saturating_mul(factorial(g.len()));
                if budget > PERM_BUDGET {
                    break;
                }
            }
            if budget > PERM_BUDGET {
                let order: Vec<usize> = groups.iter().flatten().copied().collect();
                let mut words = encode(t, &order, labels, &slots);
                words.push(u64::MAX - 1);
                return CanonKey {
                    words,
                    exact: false,
                };
            }
            let mut best: Option<Vec<u64>> = None;
            permute_groups(&groups, &mut |full_order| {
                let enc = encode(t, full_order, labels, &slots);
                if best.as_ref().is_none_or(|b| enc < *b) {
                    best = Some(enc);
                }
                ControlFlow::Continue(())
            });
            CanonKey {
                words: best.expect("at least one ordering"),
                exact: true,
            }
        }
    }

    /// Deterministic splitmix64 stream for the seeded oracle suite.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn keys_match_the_hash_map_oracle_on_random_templates() {
        // Attributes interned out of name order, so content labels (name
        // ranks) order row slots differently from the default labels.
        let mut cat = Catalog::new();
        let r = cat.relation("R", &["C", "A", "B"]).unwrap();
        let s = cat.relation("S", &["B", "D"]).unwrap();
        let u = cat.relation("U", &["A"]).unwrap();
        let digests: Vec<u128> = cat
            .relations()
            .map(|r| cat.rel_digest(r).as_u128())
            .collect();
        let ranks = cat.attr_name_ranks();
        let content = KeyLabels {
            rel_label: &|r| digests[r.index()],
            attr_rank: &|a| ranks[a.index()] as u64,
        };
        let default = KeyLabels {
            rel_label: &|r| r.0 as u128,
            attr_rank: &|a| a.0 as u64,
        };
        let mut state = 0xCA_FE_u64;
        let row = |rel: RelId, state: &mut u64| -> TaggedTuple {
            let syms: Vec<Symbol> = cat
                .scheme_of(rel)
                .iter()
                .map(|a| Symbol::new(a, (splitmix(state) % 4) as u32))
                .collect();
            TaggedTuple::new(rel, syms, &cat).unwrap()
        };
        let (mut exact, mut inexact) = (0, 0);
        for round in 0..400 {
            let mut tuples = Vec::new();
            for _ in 0..1 + splitmix(&mut state) % 6 {
                let rel = [r, s, u][(splitmix(&mut state) % 3) as usize];
                tuples.push(row(rel, &mut state));
            }
            if round % 4 == 0 {
                // Nine or more interchangeable rows exceed the permutation
                // budget: the key goes inexact.
                let [a, b, c] = ["A", "B", "C"].map(|n| cat.lookup_attr(n).unwrap());
                for i in 0..9 + splitmix(&mut state) as u32 % 3 {
                    tuples.push(
                        TaggedTuple::new(
                            r,
                            vec![
                                Symbol::new(c, 100 + i),
                                Symbol::distinguished(a),
                                Symbol::new(b, 200 + i),
                            ],
                            &cat,
                        )
                        .unwrap(),
                    );
                }
            }
            let Ok(t) = Template::new(tuples) else {
                continue;
            };
            for labels in [&default, &content] {
                let key = canonical_key_with(&t, labels);
                let want = oracle::canonical_key_with(&t, labels);
                assert_eq!(key.words(), want.words(), "round {round}: {t:?}");
                assert_eq!(key.is_exact(), want.is_exact(), "round {round}");
                if key.is_exact() {
                    exact += 1;
                } else {
                    inexact += 1;
                }
            }
        }
        assert!(
            exact > 100 && inexact > 50,
            "{exact} exact, {inexact} inexact"
        );
    }

    #[test]
    fn renamings_share_a_key() {
        let (cat, r) = setup();
        let t1 = t_with_c(&cat, r, 1, 2);
        let t2 = t_with_c(&cat, r, 7, 5);
        assert_eq!(canonical_key(&t1), canonical_key(&t2));
        assert!(is_isomorphic(&t1, &t2));
    }

    #[test]
    fn different_structures_differ() {
        let (cat, r) = setup();
        let t1 = t_with_c(&cat, r, 1, 2);
        let atom = Template::atom(r, &cat);
        assert_ne!(canonical_key(&t1), canonical_key(&atom));
        assert!(!is_isomorphic(&t1, &atom));
    }

    #[test]
    fn key_is_order_independent() {
        let (cat, r) = setup();
        let [a, b, c] = ["A", "B", "C"].map(|n| cat.lookup_attr(n).unwrap());
        // Two tuples with symmetric roles; construction order must not
        // matter (Template sorts, but symbol names differ).
        let mk = |o1: u32, o2: u32| {
            Template::new(vec![
                TaggedTuple::new(
                    r,
                    vec![
                        Symbol::distinguished(a),
                        Symbol::new(b, o1),
                        Symbol::new(c, o1),
                    ],
                    &cat,
                )
                .unwrap(),
                TaggedTuple::new(
                    r,
                    vec![
                        Symbol::distinguished(a),
                        Symbol::new(b, o2),
                        Symbol::new(c, o2),
                    ],
                    &cat,
                )
                .unwrap(),
            ])
            .unwrap()
        };
        assert_eq!(canonical_key(&mk(1, 2)), canonical_key(&mk(9, 3)));
    }

    #[test]
    fn oversized_symmetric_templates_use_the_fallback_path() {
        // Ten interchangeable tuples: the permutation budget (8!) is
        // exceeded, keys go inexact, and isomorphism falls back to the
        // bijective search — which must still give the right answers.
        let (cat, r) = setup();
        let [a, b, c] = ["A", "B", "C"].map(|n| cat.lookup_attr(n).unwrap());
        let mk = |shift: u32| {
            Template::new(
                (0..10)
                    .map(|i| {
                        TaggedTuple::new(
                            r,
                            vec![
                                Symbol::distinguished(a),
                                Symbol::new(b, shift + 2 * i),
                                Symbol::new(c, shift + 2 * i + 1),
                            ],
                            &cat,
                        )
                        .unwrap()
                    })
                    .collect(),
            )
            .unwrap()
        };
        let t1 = mk(1);
        let t2 = mk(101);
        assert!(!canonical_key(&t1).is_exact());
        assert!(is_isomorphic(&t1, &t2));
        // Breaking the symmetry in one tuple breaks the isomorphism.
        let mut tuples: Vec<TaggedTuple> = t1.tuples().to_vec();
        tuples[0] = TaggedTuple::new(
            r,
            vec![
                Symbol::distinguished(a),
                Symbol::distinguished(b),
                Symbol::new(c, 99),
            ],
            &cat,
        )
        .unwrap();
        let broken = Template::new(tuples).unwrap();
        assert!(!is_isomorphic(&t1, &broken));
    }

    #[test]
    fn labeled_keys_are_declaration_order_independent() {
        // The same template content built in two catalogs with opposite
        // declaration orders: content-labeled keys agree even though every
        // raw id (and the scheme-sorted row order) differs.
        let build = |flip: bool| {
            let mut cat = Catalog::new();
            if flip {
                cat.relation("S", &["C", "B"]).unwrap();
                cat.relation("R", &["B", "A"]).unwrap();
            } else {
                cat.relation("R", &["A", "B"]).unwrap();
                cat.relation("S", &["B", "C"]).unwrap();
            }
            let r = cat.lookup_rel("R").unwrap();
            let s = cat.lookup_rel("S").unwrap();
            let a = cat.lookup_attr("A").unwrap();
            let b = cat.lookup_attr("B").unwrap();
            let c = cat.lookup_attr("C").unwrap();
            // Scheme order is AttrId order, which flips with interning.
            let row = |x: Symbol, y: Symbol| {
                let mut row = vec![x, y];
                row.sort_by_key(|s| s.attr());
                row
            };
            let t = Template::new(vec![
                TaggedTuple::new(r, row(Symbol::distinguished(a), Symbol::new(b, 1)), &cat)
                    .unwrap(),
                TaggedTuple::new(s, row(Symbol::new(b, 1), Symbol::distinguished(c)), &cat)
                    .unwrap(),
            ])
            .unwrap();
            (cat, t)
        };
        let (cat1, t1) = build(false);
        let (cat2, t2) = build(true);
        let content_key = |cat: &Catalog, t: &Template| {
            let digests: Vec<u128> = cat
                .relations()
                .map(|r| cat.rel_digest(r).as_u128())
                .collect();
            let ranks = cat.attr_name_ranks();
            canonical_key_with(
                t,
                &KeyLabels {
                    rel_label: &|r| digests[r.index()],
                    attr_rank: &|a| ranks[a.index()] as u64,
                },
            )
        };
        assert_eq!(content_key(&cat1, &t1), content_key(&cat2, &t2));
    }

    #[test]
    fn shared_symbol_structure_distinguishes() {
        let (cat, r) = setup();
        let [a, b, c] = ["A", "B", "C"].map(|n| cat.lookup_attr(n).unwrap());
        // Rows share the b-symbol vs rows with distinct b-symbols.
        let shared = Template::new(vec![
            TaggedTuple::new(
                r,
                vec![
                    Symbol::distinguished(a),
                    Symbol::new(b, 1),
                    Symbol::new(c, 1),
                ],
                &cat,
            )
            .unwrap(),
            TaggedTuple::new(
                r,
                vec![
                    Symbol::distinguished(a),
                    Symbol::new(b, 1),
                    Symbol::new(c, 2),
                ],
                &cat,
            )
            .unwrap(),
        ])
        .unwrap();
        let unshared = Template::new(vec![
            TaggedTuple::new(
                r,
                vec![
                    Symbol::distinguished(a),
                    Symbol::new(b, 1),
                    Symbol::new(c, 1),
                ],
                &cat,
            )
            .unwrap(),
            TaggedTuple::new(
                r,
                vec![
                    Symbol::distinguished(a),
                    Symbol::new(b, 2),
                    Symbol::new(c, 2),
                ],
                &cat,
            )
            .unwrap(),
        ])
        .unwrap();
        assert!(!is_isomorphic(&shared, &unshared));
        assert_ne!(canonical_key(&shared), canonical_key(&unshared));
    }
}
