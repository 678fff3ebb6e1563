//! Property-based tests over the decision procedures (small case counts:
//! each case runs bounded searches).

use proptest::prelude::*;
use std::ops::ControlFlow;
use viewcap_base::{Catalog, RelId, Scheme, Symbol};
use viewcap_core::capacity::{closure_contains, SearchBudget};
use viewcap_core::redundancy::nonredundant_indices;
use viewcap_core::{closure_members, frontier_diff, ClosureContext, ClosureMember, Query};
use viewcap_expr::Expr;
use viewcap_template::{TaggedTuple, Template};

/// Fixed world: R(A,B), S(B,C).
fn world() -> (Catalog, Vec<RelId>) {
    let mut cat = Catalog::new();
    let r = cat.relation("R", &["A", "B"]).unwrap();
    let s = cat.relation("S", &["B", "C"]).unwrap();
    (cat, vec![r, s])
}

/// Byte-program interpreter (same convention as the other crates' suites).
fn interpret(cat: &Catalog, rels: &[RelId], program: &[u8]) -> Expr {
    let mut stack: Vec<Expr> = Vec::new();
    for &op in program {
        match op % 4 {
            0 | 1 => stack.push(Expr::rel(rels[(op as usize / 4) % rels.len()])),
            2 => {
                if stack.len() >= 2 {
                    let b = stack.pop().unwrap();
                    let a = stack.pop().unwrap();
                    stack.push(Expr::join(vec![a, b]).unwrap());
                }
            }
            _ => {
                if let Some(e) = stack.pop() {
                    let trs = e.trs(cat);
                    let mask = op as usize / 4;
                    let keep: Vec<_> = trs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, a)| a)
                        .collect();
                    if keep.is_empty() || keep.len() == trs.len() {
                        stack.push(e);
                    } else {
                        stack.push(Expr::project(e, Scheme::new(keep).unwrap(), cat).unwrap());
                    }
                }
            }
        }
    }
    stack.pop().unwrap_or(Expr::rel(rels[0]))
}

/// A path over `R(A, B)` from the distinguished `A` symbol to the
/// distinguished `B` symbol: `a₀ – b₁ – a₁ – … – a_m – b_{m+1}`, `2m + 1`
/// tuples, nondistinguished symbols numbered from `shift` along the path
/// or, `reversed`, against it. A path between fixed ends is a core, and
/// its `2m − 1` inner tuples share one invariant, so from `m = 5` (nine
/// look-alike tuples) its canonical key is inexact.
fn path_query(cat: &Catalog, r: RelId, m: u32, shift: u32, reversed: bool) -> Query {
    let [a, b] = ["A", "B"].map(|n| cat.lookup_attr(n).unwrap());
    let ord = |i| shift + if reversed { m + 1 - i } else { i };
    let sym_a = |i| {
        if i == 0 {
            Symbol::distinguished(a)
        } else {
            Symbol::new(a, ord(i))
        }
    };
    let sym_b = |i| {
        if i == m + 1 {
            Symbol::distinguished(b)
        } else {
            Symbol::new(b, ord(i))
        }
    };
    let edge = |i, j| TaggedTuple::new(r, vec![sym_a(i), sym_b(j)], cat).unwrap();
    let tuples = (0..=m)
        .map(|i| edge(i, i + 1))
        .chain((1..=m).map(|i| edge(i, i)))
        .collect();
    Query::from_template(&Template::new(tuples).unwrap())
}

/// The bounded frontier deduplicated by the quadratic `equiv` scan over
/// every construction — the procedure keyed dedup replaced, kept as the
/// oracle.
fn oracle_members(queries: &[Query], k: usize, cat: &Catalog) -> Vec<ClosureMember> {
    let mut context = ClosureContext::new(queries, cat, &SearchBudget::default());
    let mut out: Vec<ClosureMember> = Vec::new();
    context
        .for_each_substitution(k, &mut |expr, _, sub| {
            let query = Query::from_template(&sub.result);
            if !out.iter().any(|m| m.query.equiv(&query)) {
                out.push(ClosureMember {
                    query,
                    skeleton: expr.clone(),
                    construction_size: expr.atom_count(),
                });
            }
            ControlFlow::Continue(())
        })
        .unwrap();
    out
}

/// `mine` members with no `equiv` counterpart in `theirs`, in order.
fn oracle_only(mine: &[ClosureMember], theirs: &[ClosureMember]) -> Vec<ClosureMember> {
    mine.iter()
        .filter(|m| !theirs.iter().any(|n| n.query.equiv(&m.query)))
        .cloned()
        .collect()
}

/// Same members, same order, same skeletons and sizes.
fn assert_same_members(got: &[ClosureMember], want: &[ClosureMember]) {
    assert_eq!(got.len(), want.len(), "member count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.query.template(), w.query.template());
        assert_eq!(format!("{:?}", g.skeleton), format!("{:?}", w.skeleton));
        assert_eq!(g.construction_size, w.construction_size);
    }
}

/// Check `closure_members`, `ClosureContext::members` and two rounds of
/// `frontier_diff` against the oracle.
fn assert_frontiers_match(left: &[Query], right: &[Query], k: usize, cat: &Catalog) {
    let budget = SearchBudget::default();
    let lm = oracle_members(left, k, cat);
    let rm = oracle_members(right, k, cat);
    let mut lc = ClosureContext::new(left, cat, &budget);
    let mut rc = ClosureContext::new(right, cat, &budget);
    assert_same_members(&closure_members(left, k, cat, &budget).unwrap(), &lm);
    assert_same_members(&lc.members(k).unwrap(), &lm);
    let (only_left, only_right) = (oracle_only(&lm, &rm), oracle_only(&rm, &lm));
    for _ in 0..2 {
        let diff = frontier_diff(&mut lc, &mut rc, k).unwrap();
        assert_same_members(&diff.only_left, &only_left);
        assert_same_members(&diff.only_right, &only_right);
        assert_eq!(diff.common, lm.len() - only_left.len());
        assert_eq!(diff.common, rm.len() - only_right.len());
    }
}

#[test]
fn inexact_frontier_members_match_the_equiv_scan() {
    let (cat, rels) = world();
    let path = |m, reversed| path_query(&cat, rels[0], m, 1, reversed);
    assert!(path(4, false).canonical_key().is_exact());
    assert!(!path(5, false).canonical_key().is_exact());
    assert_eq!(path(5, false).template().len(), 11);
    // Renumbered copies of one inexact path get different keys: only the
    // `equiv` fallback can tell they are the same member.
    assert_ne!(
        path(5, false).canonical_key(),
        path(5, true).canonical_key()
    );
    assert!(path(5, false).equiv(&path(5, true)));
    // Renumbered copies of the same inexact paths are common to both
    // sides; paths of other lengths are one-sided.
    let left = [path(5, false), path(6, false), path(3, false)];
    let right = [path(6, true), path(5, true), path(7, true)];
    assert_frontiers_match(&left, &right, 1, &cat);
    let mut lc = ClosureContext::new(&left, &cat, &SearchBudget::default());
    let mut rc = ClosureContext::new(&right, &cat, &SearchBudget::default());
    let diff = frontier_diff(&mut lc, &mut rc, 1).unwrap();
    assert_eq!((diff.only_left.len(), diff.only_right.len()), (1, 1));
    assert!(diff.common >= 2, "the inexact paths must be shared");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Keyed member dedup and the keyed frontier diff agree with the
    /// quadratic `equiv` scan — members, order, skeletons and `common`
    /// counts — and a memoized second diff agrees too. At bound 1 each side
    /// may carry a path, whose frontier member has an inexact key from
    /// `m = 5` on (paths stay out of bound 2: reducing a path joined with
    /// itself is exponential in its length).
    #[test]
    fn frontiers_and_diffs_match_the_equiv_scan(
        pl in proptest::collection::vec(any::<u8>(), 1..6),
        pr in proptest::collection::vec(any::<u8>(), 1..6),
        ml in 0u32..8,
        mr in 0u32..8,
        shift in 1u32..50,
        k in 1usize..3,
    ) {
        let (cat, rels) = world();
        let side = |program: &[u8], m: u32, reversed: bool| {
            let mut queries = vec![Query::from_expr(interpret(&cat, &rels, program), &cat)];
            if m > 0 && k == 1 {
                queries.push(path_query(&cat, rels[0], m, shift, reversed));
            }
            queries
        };
        assert_frontiers_match(&side(&pl, ml, false), &side(&pr, mr, true), k, &cat);
    }

    /// Generators always belong to their own closure, and so do joins and
    /// projections of them (Theorem 1.5.2's closure conditions).
    #[test]
    fn closure_is_closed_under_its_operations(
        p1 in proptest::collection::vec(any::<u8>(), 1..8),
        p2 in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let (cat, rels) = world();
        let budget = SearchBudget::default();
        let q1 = Query::from_expr(interpret(&cat, &rels, &p1), &cat);
        let q2 = Query::from_expr(interpret(&cat, &rels, &p2), &cat);
        let base = [q1.clone(), q2.clone()];
        prop_assert!(closure_contains(&base, &q1, &cat, &budget).unwrap().is_some());
        prop_assert!(closure_contains(&base, &q2, &cat, &budget).unwrap().is_some());
        let joined = q1.join(&q2);
        prop_assert!(closure_contains(&base, &joined, &cat, &budget).unwrap().is_some());
        if let Some(x) = joined.trs().proper_nonempty_subsets().into_iter().next() {
            let projected = joined.project(&x, &cat).unwrap();
            prop_assert!(
                closure_contains(&base, &projected, &cat, &budget).unwrap().is_some()
            );
        }
    }

    /// Membership is invariant under replacing the goal by an equivalent
    /// query (it is a property of mappings, not of syntax).
    #[test]
    fn membership_is_semantic(
        p1 in proptest::collection::vec(any::<u8>(), 1..8),
        p2 in proptest::collection::vec(any::<u8>(), 1..6),
    ) {
        let (cat, rels) = world();
        let budget = SearchBudget::default();
        let base = [Query::from_expr(interpret(&cat, &rels, &p1), &cat)];
        let goal = Query::from_expr(interpret(&cat, &rels, &p2), &cat);
        // A syntactically different but equivalent goal: join with itself.
        let doubled = goal.join(&goal);
        prop_assert!(goal.equiv(&doubled));
        let a = closure_contains(&base, &goal, &cat, &budget).unwrap().is_some();
        let b = closure_contains(&base, &doubled, &cat, &budget).unwrap().is_some();
        prop_assert_eq!(a, b);
    }

    /// Greedy redundancy removal reaches a fixpoint: running it twice keeps
    /// the same indices.
    #[test]
    fn nonredundant_reduction_is_a_fixpoint(
        p1 in proptest::collection::vec(any::<u8>(), 1..6),
        p2 in proptest::collection::vec(any::<u8>(), 1..6),
        p3 in proptest::collection::vec(any::<u8>(), 1..6),
    ) {
        let (cat, rels) = world();
        let budget = SearchBudget::default();
        let base = vec![
            Query::from_expr(interpret(&cat, &rels, &p1), &cat),
            Query::from_expr(interpret(&cat, &rels, &p2), &cat),
            Query::from_expr(interpret(&cat, &rels, &p3), &cat),
        ];
        let keep = nonredundant_indices(&base, &cat, &budget).unwrap();
        let kept: Vec<Query> = keep.iter().map(|&i| base[i].clone()).collect();
        let again = nonredundant_indices(&kept, &cat, &budget).unwrap();
        prop_assert_eq!(again.len(), kept.len(), "second pass removed more");
        // And every removed query is generated by the kept ones.
        for (i, q) in base.iter().enumerate() {
            if !keep.contains(&i) {
                prop_assert!(
                    closure_contains(&kept, q, &cat, &budget).unwrap().is_some()
                );
            }
        }
    }
}
