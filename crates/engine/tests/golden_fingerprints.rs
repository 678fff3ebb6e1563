//! Golden fingerprints: literal `query_fingerprint` / `view_fingerprint`
//! values pinned over a fleet-sized catalog.
//!
//! Fingerprints are persisted — VCAPCACH v2 verdict caches and pile
//! records are keyed by them — so any change to how a content key is
//! computed must leave every value bit-identical, or warm starts silently
//! turn into cold ones. The catalog has more than 300 relations; the same
//! values must come out of a permuted declaration of it and out of a
//! catalog that grew (new relations plus an attribute name sorting between
//! existing ones) after the keys were memoized.

use viewcap_base::Catalog;
use viewcap_core::{Query, View};
use viewcap_engine::{query_fingerprint, view_fingerprint};
use viewcap_expr::parse_expr;

const BASE_RELS: usize = 8;
const FILLER_RELS: usize = 320;

/// `R{b}(A{b}, B{b}, C{b})` for every base relation plus `FILLER_RELS`
/// fleet relations `T{j}(A{j mod 8}, X{j})`, declared in natural order or
/// fully reversed (relations *and* each relation's attribute list, so
/// attribute interning order is permuted too).
fn fleet_catalog(reversed: bool) -> Catalog {
    let mut decls: Vec<(String, Vec<String>)> = (0..BASE_RELS)
        .map(|b| {
            (
                format!("R{b}"),
                vec![format!("A{b}"), format!("B{b}"), format!("C{b}")],
            )
        })
        .collect();
    decls.extend((0..FILLER_RELS).map(|j| {
        (
            format!("T{j}"),
            vec![format!("A{}", j % 8), format!("X{j}")],
        )
    }));
    if reversed {
        decls.reverse();
        for (_, attrs) in &mut decls {
            attrs.reverse();
        }
    }
    let mut cat = Catalog::new();
    for (name, attrs) in &decls {
        let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        cat.relation(name, &attrs).unwrap();
    }
    assert!(cat.rel_count() > 300);
    cat
}

const QUERIES: [&str; 7] = [
    "R0",
    "pi{A0,B0}(R0)",
    "pi{A1,B1}(R1) * pi{B1,C1}(R1)",
    "pi{A0,C2}(R0 * R2)",
    "pi{A3}(R3) * pi{B3}(R3) * pi{C3}(R3)",
    "pi{A5,X317}(T317 * R5)",
    "pi{A7}(T15 * T23)",
];

/// Defining expressions of the pinned views.
const VIEWS: [&[&str]; 2] = [
    &["pi{A0,B0}(R0)", "pi{B0,C0}(R0)"],
    &[
        "pi{A1,B1}(R1) * pi{B1,C1}(R1)",
        "R2",
        "pi{A5,X317}(T317 * R5)",
    ],
];

/// Values recorded before content keys were restricted to the relations a
/// template mentions; they must never change.
const GOLDEN_QUERIES: [&str; 7] = [
    "888f717a2aadc7076b318296384a85b6",
    "27593483cded8c5ab4be2cf87514ac3c",
    "5ef3ab62a22d2f9c6c429c6a7aeb00f3",
    "3129b9659e28c073696caf7a23e2ca47",
    "5653e983e354a15914ba202c246afa4a",
    "785fc34e257719676f68f4c24864a0cb",
    "8957beab7def4fa14f81d2094d364a44",
];
const GOLDEN_VIEWS: [&str; 2] = [
    "2adcae16fd5416a0bf51382b433c6f9e",
    "9dc0cbe1f60cc786d8de351cbc0bc623",
];
/// `GROWN_QUERY` fingerprinted against the grown catalog.
const GOLDEN_GROWN: &str = "45a7e50bbd8107db095f0f61efc1afb6";
const GROWN_QUERY: &str = "pi{A0,A0a}(G0 * R0)";

fn q(cat: &Catalog, src: &str) -> Query {
    Query::from_expr(parse_expr(src, cat).unwrap(), cat)
}

fn queries(cat: &Catalog) -> Vec<Query> {
    QUERIES.iter().map(|src| q(cat, src)).collect()
}

/// Views over `cat`, with view-schema names minted into it.
fn views(cat: &mut Catalog) -> Vec<View> {
    VIEWS
        .iter()
        .map(|defs| {
            let pairs = defs
                .iter()
                .map(|src| {
                    let query = q(cat, src);
                    let name = cat.fresh_relation("v", query.trs());
                    (query, name)
                })
                .collect();
            View::new(pairs, cat).unwrap()
        })
        .collect()
}

fn hex_of(qs: &[Query], vs: &[View], cat: &Catalog) -> (Vec<String>, Vec<String>) {
    (
        qs.iter()
            .map(|q| query_fingerprint(q, cat).to_string())
            .collect(),
        vs.iter()
            .map(|v| view_fingerprint(v, cat).to_string())
            .collect(),
    )
}

fn assert_golden(label: &str, (qs, vs): (Vec<String>, Vec<String>)) {
    assert_eq!(qs, GOLDEN_QUERIES, "{label}: query fingerprints moved");
    assert_eq!(vs, GOLDEN_VIEWS, "{label}: view fingerprints moved");
}

#[test]
fn fleet_catalog_fingerprints_are_pinned() {
    let mut cat = fleet_catalog(false);
    let vs = views(&mut cat);
    assert_golden("natural", hex_of(&queries(&cat), &vs, &cat));
}

#[test]
fn permuted_fleet_catalog_fingerprints_are_pinned() {
    let mut cat = fleet_catalog(true);
    let vs = views(&mut cat);
    assert_golden("permuted", hex_of(&queries(&cat), &vs, &cat));
}

#[test]
fn fingerprints_survive_catalog_growth_after_the_memo() {
    let mut cat = fleet_catalog(false);
    let vs = views(&mut cat);
    let qs = queries(&cat);
    assert_golden("before growth", hex_of(&qs, &vs, &cat));
    // `A0a` sorts between `A0` and `A1`, shifting every later absolute
    // attribute rank; the new relations shift nothing the keys mention.
    cat.relation("G0", &["A0", "A0a", "B0"]).unwrap();
    for i in 0..20 {
        cat.relation(&format!("U{i}"), &[&format!("X{i}"), &format!("Y{i}")])
            .unwrap();
    }
    // Memoized keys read against the grown catalog…
    assert_golden("memoized, grown", hex_of(&qs, &vs, &cat));
    // …and keys computed fresh against it agree.
    let fresh_views = views(&mut cat);
    assert_golden("fresh, grown", hex_of(&queries(&cat), &fresh_views, &cat));
    assert_eq!(
        query_fingerprint(&q(&cat, GROWN_QUERY), &cat).to_string(),
        GOLDEN_GROWN
    );
}
