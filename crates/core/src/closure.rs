//! Closure exploration: enumerating the query capacity.
//!
//! `Cap(𝒱)` is infinite (it is closed under join), but its members with a
//! bounded construction size are finitely enumerable, and every member has
//! a canonical reduced template. This module materializes the capacity's
//! *frontier*: all pairwise-inequivalent members reachable by constructions
//! with at most `max_atoms` skeleton atoms — useful for auditing what a
//! view exposes, for the uniqueness experiments, and for the benchmark
//! harness.
//!
//! **Costs.** Members are reduced templates, and two reduced templates are
//! equivalent exactly when they are isomorphic (Prop. 2.4.3), so member
//! dedup and the frontier diff key each member by its exact canonical key:
//! one hash lookup per member instead of an `equiv` homomorphism search
//! against every member seen so far. Only members whose key is inexact
//! (too many look-alike tuples to canonicalize) fall back to that scan.
//! A [`ClosureContext`] memoizes its frontier per atom bound, so a repeated
//! sweep costs one map lookup and a repeated diff of the same version pair
//! one hash lookup per member.

use crate::capacity::{ClosureContext, SearchBudget};
use crate::query::Query;
use crate::view::View;
use std::collections::HashSet;
use std::ops::ControlFlow;
use viewcap_base::Catalog;
use viewcap_expr::Expr;
use viewcap_obs as obs;
use viewcap_template::{CanonKey, SearchOverflow};

/// Frontier sweeps answered from a context's memo.
static MEMO_HITS: obs::Counter = obs::Counter::new("core.frontier.memo_hits");

/// One enumerated member of a closure.
#[derive(Clone, Debug)]
pub struct ClosureMember {
    /// The member, as a query over the underlying schema (reduced
    /// template).
    pub query: Query,
    /// A construction skeleton realizing it, over the scratch `λ` names.
    pub skeleton: Expr,
    /// Number of atoms in the skeleton (construction size).
    pub construction_size: usize,
}

/// Frontier members up to query equivalence.
///
/// Isomorphic templates have the same tuple groups, so their canonical
/// keys are both exact or both inexact: an exact-keyed query can only
/// match an exact-keyed member with the same key, and an inexact-keyed one
/// only an inexact-keyed member, found by `equiv`.
#[derive(Default)]
struct MemberSet {
    exact: HashSet<CanonKey>,
    inexact: Vec<Query>,
}

impl MemberSet {
    fn of<'a>(queries: impl IntoIterator<Item = &'a Query>) -> MemberSet {
        let mut set = MemberSet::default();
        for q in queries {
            set.insert(q);
        }
        set
    }

    fn contains(&self, q: &Query) -> bool {
        let key = q.canonical_key();
        if key.is_exact() {
            self.exact.contains(key)
        } else {
            self.inexact.iter().any(|s| s.equiv(q))
        }
    }

    /// Add `q`; `false` when an equivalent member is already present.
    fn insert(&mut self, q: &Query) -> bool {
        let key = q.canonical_key();
        if key.is_exact() {
            self.exact.insert(key.clone())
        } else if self.contains(q) {
            false
        } else {
            self.inexact.push(q.clone());
            true
        }
    }
}

/// Enumerate the pairwise-inequivalent members of `closure(queries)`
/// realizable with at most `max_atoms` construction atoms.
///
/// Members are produced in nondecreasing construction size. The callback
/// may stop the visit. One-shot wrapper over a throwaway
/// [`ClosureContext`]; callers sweeping one query set repeatedly should
/// hold the context.
pub fn for_each_closure_member(
    queries: &[Query],
    max_atoms: usize,
    catalog: &Catalog,
    budget: &SearchBudget,
    f: &mut dyn FnMut(&ClosureMember) -> ControlFlow<()>,
) -> Result<(), SearchOverflow> {
    ClosureContext::new(queries, catalog, budget).for_each_member(max_atoms, f)
}

/// Collect the bounded closure frontier as a vector.
pub fn closure_members(
    queries: &[Query],
    max_atoms: usize,
    catalog: &Catalog,
    budget: &SearchBudget,
) -> Result<Vec<ClosureMember>, SearchOverflow> {
    ClosureContext::new(queries, catalog, budget).members(max_atoms)
}

impl ClosureContext {
    /// The bounded closure frontier through this shared context. The
    /// first sweep at a bound extends the context's lazily built candidate
    /// space (so growing-`k` requests pay only the incremental levels) and
    /// memoizes its members; later sweeps at that bound are a lookup. An
    /// overflowing sweep is never memoized, so a retry overflows again.
    ///
    /// The search engine already deduplicates semantically over the λ
    /// level; two skeletons with equivalent λ-templates substitute to
    /// equivalent members, but distinct λ-templates can also collide after
    /// substitution, so members are deduplicated again here.
    fn frontier(&mut self, max_atoms: usize) -> Result<&[ClosureMember], SearchOverflow> {
        /// One span per enumerated (not memoized) frontier.
        static MEMBERS_SPAN: obs::SpanDef = obs::SpanDef::new(
            "core.frontier.members",
            "enum",
            "span.core.frontier.members",
        );
        if self.frontier_memo.contains_key(&max_atoms) {
            MEMO_HITS.add(1);
        } else {
            let mut span = MEMBERS_SPAN.start();
            span.arg("max_atoms", max_atoms as u64);
            let mut seen = MemberSet::default();
            let mut members = Vec::new();
            self.for_each_substitution(max_atoms, &mut |expr, _skel, sub| {
                let member = Query::from_template(&sub.result);
                if seen.insert(&member) {
                    members.push(ClosureMember {
                        query: member,
                        skeleton: expr.clone(),
                        construction_size: expr.atom_count(),
                    });
                }
                ControlFlow::Continue(())
            })?;
            span.arg("members", members.len() as u64);
            self.frontier_memo.insert(max_atoms, members);
        }
        Ok(&self.frontier_memo[&max_atoms])
    }

    /// Visit the bounded frontier (see [`ClosureContext::members`]); the
    /// callback may stop the visit.
    pub fn for_each_member(
        &mut self,
        max_atoms: usize,
        f: &mut dyn FnMut(&ClosureMember) -> ControlFlow<()>,
    ) -> Result<(), SearchOverflow> {
        for m in self.frontier(max_atoms)? {
            if f(m).is_break() {
                break;
            }
        }
        Ok(())
    }

    /// Collect the bounded closure frontier, memoized per atom bound.
    pub fn members(&mut self, max_atoms: usize) -> Result<Vec<ClosureMember>, SearchOverflow> {
        Ok(self.frontier(max_atoms)?.to_vec())
    }
}

/// The capacity-frontier diff between two view versions: which bounded
/// frontier members one version exposes and the other does not, by query
/// equivalence. Equals the set difference of two independent
/// [`closure_members`] sweeps — the `diff` conformance suite pins this.
#[derive(Clone, Debug, Default)]
pub struct FrontierDiff {
    /// Members derivable from the left version only (capabilities *lost*
    /// by an edit when left is the pre-edit version).
    pub only_left: Vec<ClosureMember>,
    /// Members derivable from the right version only (capabilities
    /// *gained*).
    pub only_right: Vec<ClosureMember>,
    /// Number of members common to both frontiers.
    pub common: usize,
}

impl FrontierDiff {
    /// True when both frontiers expose exactly the same members.
    pub fn is_empty(&self) -> bool {
        self.only_left.is_empty() && self.only_right.is_empty()
    }
}

/// Diff the bounded capacity frontiers of two versions through their shared
/// contexts. Each context memoizes its frontier per bound, so re-diffing the
/// same version pair costs a keyed filter of the two member lists, and
/// growing `max_atoms` pays only the incremental enumeration.
pub fn frontier_diff(
    left: &mut ClosureContext,
    right: &mut ClosureContext,
    max_atoms: usize,
) -> Result<FrontierDiff, SearchOverflow> {
    static DIFF_SPAN: obs::SpanDef =
        obs::SpanDef::new("core.frontier.diff", "enum", "span.core.frontier.diff");
    let mut span = DIFF_SPAN.start();
    span.arg("max_atoms", max_atoms as u64);
    let lm = left.frontier(max_atoms)?;
    let rm = right.frontier(max_atoms)?;
    let only = |mine: &[ClosureMember], theirs: &[ClosureMember]| -> Vec<ClosureMember> {
        let theirs = MemberSet::of(theirs.iter().map(|m| &m.query));
        mine.iter()
            .filter(|m| !theirs.contains(&m.query))
            .cloned()
            .collect()
    };
    let only_left = only(lm, rm);
    let only_right = only(rm, lm);
    let common = lm.len() - only_left.len();
    Ok(FrontierDiff {
        only_left,
        only_right,
        common,
    })
}

/// Audit a view: the pairwise-inequivalent queries its users can answer
/// with constructions of at most `max_atoms` atoms (Theorem 1.5.2 frontier).
pub fn capacity_members(
    view: &View,
    max_atoms: usize,
    catalog: &Catalog,
    budget: &SearchBudget,
) -> Result<Vec<ClosureMember>, SearchOverflow> {
    let qs = view.query_set();
    closure_members(qs.queries(), max_atoms, catalog, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::closure_contains;
    use viewcap_expr::parse_expr;
    use viewcap_template::SearchLimits;

    fn setup() -> Catalog {
        let mut cat = Catalog::new();
        cat.relation("R", &["A", "B", "C"]).unwrap();
        cat
    }

    fn q(cat: &Catalog, src: &str) -> Query {
        Query::from_expr(parse_expr(src, cat).unwrap(), cat)
    }

    #[test]
    fn members_are_pairwise_inequivalent_and_in_the_closure() {
        let cat = setup();
        let base = [q(&cat, "pi{A,B}(R)"), q(&cat, "pi{B,C}(R)")];
        let members = closure_members(&base, 2, &cat, &SearchBudget::default()).unwrap();
        assert!(!members.is_empty());
        for (i, m) in members.iter().enumerate() {
            for n in members.iter().skip(i + 1) {
                assert!(!m.query.equiv(&n.query), "duplicate member emitted");
            }
            // Membership is verifiable by the decision procedure.
            assert!(
                closure_contains(&base, &m.query, &cat, &SearchBudget::default())
                    .unwrap()
                    .is_some(),
                "emitted member fails the membership test"
            );
        }
    }

    #[test]
    fn frontier_contains_the_expected_core_queries() {
        let cat = setup();
        let base = [q(&cat, "pi{A,B}(R)"), q(&cat, "pi{B,C}(R)")];
        let members = closure_members(&base, 2, &cat, &SearchBudget::default()).unwrap();
        for expected in [
            "pi{A,B}(R)",
            "pi{B,C}(R)",
            "pi{A}(R)",
            "pi{B}(R)",
            "pi{C}(R)",
            "pi{A,B}(R) * pi{B,C}(R)",
            "pi{A,C}(pi{A,B}(R) * pi{B,C}(R))",
        ] {
            let goal = q(&cat, expected);
            assert!(
                members.iter().any(|m| m.query.equiv(&goal)),
                "frontier is missing {expected}"
            );
        }
        // The full relation is NOT in the capacity at any size.
        let full = q(&cat, "R");
        assert!(!members.iter().any(|m| m.query.equiv(&full)));
    }

    #[test]
    fn sizes_are_nondecreasing() {
        let cat = setup();
        let base = [q(&cat, "pi{A,B}(R)"), q(&cat, "pi{B,C}(R)")];
        let members = closure_members(&base, 3, &cat, &SearchBudget::default()).unwrap();
        let sizes: Vec<usize> = members.iter().map(|m| m.construction_size).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
        assert!(sizes.iter().all(|&s| s <= 3));
    }

    #[test]
    fn context_frontier_matches_one_shot_enumeration() {
        let cat = setup();
        let base = [q(&cat, "pi{A,B}(R)"), q(&cat, "pi{B,C}(R)")];
        let budget = SearchBudget::default();
        let mut context = ClosureContext::new(&base, &cat, &budget);
        for k in [1usize, 2, 3] {
            let shared = context.members(k).unwrap();
            let fresh = closure_members(&base, k, &cat, &budget).unwrap();
            assert_eq!(shared.len(), fresh.len(), "k={k}");
            for (s, f) in shared.iter().zip(fresh.iter()) {
                assert!(s.query.equiv(&f.query), "k={k}: member order diverged");
                assert_eq!(format!("{:?}", s.skeleton), format!("{:?}", f.skeleton));
                assert_eq!(s.construction_size, f.construction_size);
            }
        }
    }

    #[test]
    fn repeated_sweeps_are_served_from_the_memo() {
        let cat = setup();
        let base = [q(&cat, "pi{A,B}(R)"), q(&cat, "pi{B,C}(R)")];
        let mut context = ClosureContext::new(&base, &cat, &SearchBudget::default());
        let first = context.members(2).unwrap();
        let stats = context.search_stats();
        let again = context.members(2).unwrap();
        assert_eq!(
            context.search_stats(),
            stats,
            "a memoized sweep did search work"
        );
        assert_eq!(first.len(), again.len());
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.query.template(), b.query.template());
        }
        // An overflowing bound is never memoized: the retry overflows too.
        let tight = SearchBudget {
            limits: SearchLimits {
                max_visits: 1,
                ..SearchLimits::default()
            },
            max_atoms_override: None,
        };
        let mut context = ClosureContext::new(&base, &cat, &tight);
        assert!(context.members(2).is_err());
        assert!(context.members(2).is_err());
    }

    #[test]
    fn frontier_diff_is_the_set_difference() {
        let cat = setup();
        let budget = SearchBudget::default();
        let old = [q(&cat, "pi{A,B}(R)"), q(&cat, "pi{B,C}(R)")];
        let new = [q(&cat, "pi{A,B}(R)")];
        let mut left = ClosureContext::new(&old, &cat, &budget);
        let mut right = ClosureContext::new(&new, &cat, &budget);
        let diff = frontier_diff(&mut left, &mut right, 2).unwrap();
        let lm = closure_members(&old, 2, &cat, &budget).unwrap();
        let rm = closure_members(&new, 2, &cat, &budget).unwrap();
        let expect_left: Vec<&ClosureMember> = lm
            .iter()
            .filter(|m| !rm.iter().any(|n| n.query.equiv(&m.query)))
            .collect();
        let expect_right: Vec<&ClosureMember> = rm
            .iter()
            .filter(|m| !lm.iter().any(|n| n.query.equiv(&m.query)))
            .collect();
        assert_eq!(diff.only_left.len(), expect_left.len());
        assert_eq!(diff.only_right.len(), expect_right.len());
        for (d, e) in diff.only_left.iter().zip(expect_left) {
            assert!(d.query.equiv(&e.query));
        }
        for (d, e) in diff.only_right.iter().zip(expect_right) {
            assert!(d.query.equiv(&e.query));
        }
        assert_eq!(diff.common, lm.len() - diff.only_left.len());
        // Dropping π_BC loses capabilities and gains none.
        assert!(!diff.only_left.is_empty());
        assert!(diff.only_right.is_empty());
        // A version diffed against itself is empty.
        let mut same = ClosureContext::new(&old, &cat, &budget);
        let refl = frontier_diff(&mut left, &mut same, 2).unwrap();
        assert!(refl.is_empty());
        assert_eq!(refl.common, lm.len());
    }

    #[test]
    fn capacity_members_goes_through_the_view() {
        let mut cat = setup();
        let ab = cat.scheme(&["A", "B"]).unwrap();
        let v1 = cat.fresh_relation("v1", ab);
        let view =
            View::from_exprs(vec![(parse_expr("pi{A,B}(R)", &cat).unwrap(), v1)], &cat).unwrap();
        let members = capacity_members(&view, 2, &cat, &SearchBudget::default()).unwrap();
        // π_AB(R), π_A(R), π_B(R), π_A(R)⋈π_B(R): the whole two-atom
        // frontier of a single binary projection.
        assert_eq!(members.len(), 4);
    }
}
