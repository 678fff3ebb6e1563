//! The generated fleet scenarios, read back by the benchmark: the input
//! command census, a closed-form verdict oracle, transcript accounting,
//! and the layer replays (fingerprinting, frontier diffing) that the
//! traced runs time on the same inputs.
//!
//! Every view the `viewcap-gen` fleet families declare projects a single
//! base relation `Rb(Ab, Bb, Cb)`: `pi{Ab,Bb}` (a fleet view), `pi{Ab}`
//! (its narrowed edit variant), or the pair `pi{Ab,Bb}`, `pi{Bb,Cb}` (a
//! frontier-diff `a` version). Over one base relation the capacity of such
//! a view has a closed form, which the oracle below uses:
//!
//! * `pi{X}(Rb)` is a member iff `X` lies inside one defining projection;
//! * `pi{X}(Rb) * pi{Y}(Rb)` is a member iff both factors are;
//! * `Rb` itself never is (no defining projection keeps all of `Ab,Bb,Cb`);
//! * nothing over another base relation is.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use viewcap_base::Catalog;
use viewcap_core::{frontier_diff, ClosureContext, Query, SearchBudget, View};
use viewcap_engine::{view_fingerprint, Check, Engine};
use viewcap_expr::parse_expr;

/// Attribute bits of a base relation `Rb(Ab, Bb, Cb)`.
const A: u8 = 1;
const B: u8 = 2;
const C: u8 = 4;

/// Bounded capacity frontier sizes (distinct members at atom bound 2) of
/// the three view shapes, with every member of a narrower shape also a
/// member of the wider ones over the same base: `{A}` ⊂ `{AB}` ⊂
/// `{AB, BC}`. `{A}` yields `pi{A}`; `{AB}` adds `pi{B}`, `pi{A,B}` and
/// `pi{A}*pi{B}`; `{AB, BC}` adds `pi{C}`, `pi{B,C}`, the products
/// `pi{A}*pi{C}`, `pi{B}*pi{C}`, `pi{A,B}*pi{C}`, `pi{A}*pi{B,C}`, the
/// join `pi{A,B}*pi{B,C}` and its projection onto `A,C`.
fn frontier_size(shape: &[u8]) -> Option<usize> {
    match shape {
        [m] if *m == A => Some(1),
        [m] if *m == A | B => Some(4),
        [x, y] if *x == A | B && *y == B | C => Some(12),
        _ => None,
    }
}

/// One single-base expression of the generated families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// `pi{X}(Rb)`.
    Proj(u8),
    /// `pi{X}(Rb) * pi{Y}(Rb)`.
    Product(u8, u8),
    /// `Rb`.
    Full,
}

/// The base index and attribute bits of `pi{Ab,...}(Rb)`.
fn projection(expr: &str) -> Option<(usize, u8)> {
    let inner = expr.trim().strip_prefix("pi{")?;
    let (attrs, rel) = inner.split_once("}(")?;
    let base: usize = rel.strip_prefix('R')?.strip_suffix(')')?.parse().ok()?;
    let mut bits = 0;
    for attr in attrs.split(',') {
        let (letter, index) = attr.trim().split_at(1);
        if index.parse::<usize>().ok()? != base {
            return None;
        }
        bits |= match letter {
            "A" => A,
            "B" => B,
            "C" => C,
            _ => return None,
        };
    }
    Some((base, bits))
}

/// Classify a goal or defining expression of the generated families.
fn shape(expr: &str) -> Option<(usize, Shape)> {
    let expr = expr.trim();
    if let Some((left, right)) = expr.split_once(" * ") {
        let (bl, x) = projection(left)?;
        let (br, y) = projection(right)?;
        return (bl == br).then_some((bl, Shape::Product(x, y)));
    }
    if let Some(base) = expr.strip_prefix('R').and_then(|b| b.parse().ok()) {
        return Some((base, Shape::Full));
    }
    projection(expr).map(|(base, bits)| (base, Shape::Proj(bits)))
}

/// A view's current definition in the oracle: its base relation and the
/// sorted attribute sets of its defining projections.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ViewShape {
    base: usize,
    projections: Vec<u8>,
}

impl ViewShape {
    fn of(pairs: &[(String, String)]) -> Option<ViewShape> {
        let mut base = None;
        let mut projections = Vec::new();
        for (_, expr) in pairs {
            let (b, bits) = projection(expr)?;
            if base.replace(b).is_some_and(|old| old != b) {
                return None;
            }
            projections.push(bits);
        }
        projections.sort_unstable();
        Some(ViewShape {
            base: base?,
            projections,
        })
    }

    fn covers(&self, bits: u8) -> bool {
        self.projections.iter().any(|&p| p & bits == bits)
    }

    /// The oracle: is the goal in this view's capacity?
    fn member(&self, goal: &str) -> Option<bool> {
        let (base, goal) = shape(goal)?;
        Some(
            base == self.base
                && match goal {
                    Shape::Proj(x) => self.covers(x),
                    Shape::Product(x, y) => self.covers(x) && self.covers(y),
                    Shape::Full => false,
                },
        )
    }

    /// Expected `(only in self, only in other, shared)` frontier counts.
    fn diff(&self, other: &ViewShape) -> Option<(usize, usize, usize)> {
        let (fl, fr) = (
            frontier_size(&self.projections)?,
            frontier_size(&other.projections)?,
        );
        let shared = if self.base == other.base {
            fl.min(fr)
        } else {
            0
        };
        Some((fl - shared, fr - shared, shared))
    }
}

/// One command of a generated scenario, in input order.
#[derive(Clone, Debug)]
pub enum Command {
    /// `check member VIEW GOAL` (inside a batch or not).
    Member { view: String, goal: String },
    /// An `edit VIEW { ... }` block (inside a txn or not).
    Edit {
        view: String,
        pairs: Vec<(String, String)>,
    },
    /// A `txn { ... }` block opened (its edits follow as `Edit`s).
    Txn,
    /// `recheck`.
    Recheck,
    /// `diff A B K`.
    Diff {
        left: String,
        right: String,
        k: usize,
    },
}

/// A generated scenario read back from its text.
#[derive(Clone, Debug, Default)]
pub struct Stream {
    /// `rel` declarations: name and attributes.
    pub rels: Vec<(String, Vec<String>)>,
    /// `view` declarations: name and `(pair name, expression)` list.
    pub views: Vec<(String, Vec<(String, String)>)>,
    /// Every later command, in order.
    pub commands: Vec<Command>,
}

/// `Name = expression` inside a view or edit block.
fn pair(line: &str) -> Result<(String, String), String> {
    let (name, expr) = line
        .split_once('=')
        .ok_or_else(|| format!("expected `Name = expression`, got `{line}`"))?;
    Ok((name.trim().to_owned(), expr.trim().to_owned()))
}

impl Stream {
    /// Read a scenario emitted by the `viewcap-gen` fleet families.
    pub fn parse(source: &str) -> Result<Stream, String> {
        let mut stream = Stream::default();
        let mut lines = source.lines().map(str::trim).filter(|l| !l.is_empty());
        let block =
            |lines: &mut dyn Iterator<Item = &str>| -> Result<Vec<(String, String)>, String> {
                let mut pairs = Vec::new();
                for line in lines {
                    if line == "}" {
                        return Ok(pairs);
                    }
                    pairs.push(pair(line)?);
                }
                Err("unclosed block".to_owned())
            };
        while let Some(line) = lines.next() {
            let (head, rest) = line.split_once(' ').unwrap_or((line, ""));
            match head {
                "rel" => {
                    let (name, attrs) = rest
                        .trim_end_matches(')')
                        .split_once('(')
                        .ok_or_else(|| format!("bad rel line `{line}`"))?;
                    let attrs = attrs.split(',').map(|a| a.trim().to_owned()).collect();
                    stream.rels.push((name.to_owned(), attrs));
                }
                "view" => {
                    let name = rest.trim_end_matches('{').trim().to_owned();
                    let pairs = block(&mut lines)?;
                    stream.views.push((name, pairs));
                }
                "edit" => {
                    let view = rest.trim_end_matches('{').trim().to_owned();
                    let pairs = block(&mut lines)?;
                    stream.commands.push(Command::Edit { view, pairs });
                }
                "check" => {
                    let member = rest
                        .strip_prefix("member ")
                        .ok_or_else(|| format!("unsupported check `{line}`"))?;
                    let (view, goal) = member
                        .split_once(' ')
                        .ok_or_else(|| format!("bad check `{line}`"))?;
                    stream.commands.push(Command::Member {
                        view: view.to_owned(),
                        goal: goal.to_owned(),
                    });
                }
                "txn" => stream.commands.push(Command::Txn),
                "recheck" => stream.commands.push(Command::Recheck),
                "diff" => {
                    let words: Vec<&str> = rest.split_whitespace().collect();
                    let [left, right, k] = words[..] else {
                        return Err(format!("bad diff `{line}`"));
                    };
                    stream.commands.push(Command::Diff {
                        left: left.to_owned(),
                        right: right.to_owned(),
                        k: k.parse()
                            .map_err(|_| format!("bad atom bound in `{line}`"))?,
                    });
                }
                "batch" | "}" => {}
                _ => return Err(format!("unsupported line `{line}`")),
            }
        }
        Ok(stream)
    }

    /// Scenario commands posed by the input: every `check`, `edit`, `txn`,
    /// `recheck` and `diff` (batch members and txn members included).
    pub fn command_count(&self) -> usize {
        self.commands.len()
    }
}

/// What one transcript reported, and every way it disagreed with the
/// oracle.
#[derive(Clone, Debug, Default)]
pub struct Census {
    /// Verdict lines printed (re-reported standing checks included).
    pub verdicts: u64,
    /// Standing checks invalidated by `edit`/`txn`.
    pub invalidated: u64,
    /// Standing checks a `recheck` reused.
    pub reused: u64,
    /// Standing checks a `recheck` recomputed.
    pub recomputed: u64,
    /// Oracle disagreements (first few kept verbatim).
    pub mismatches: Vec<String>,
    /// Total oracle disagreements.
    pub mismatch_count: u64,
}

impl Census {
    fn mismatch(&mut self, what: String) {
        self.mismatch_count += 1;
        if self.mismatches.len() < 5 {
            self.mismatches.push(what);
        }
    }
}

/// The number after `word` in `text` (`"3 reused"` → 3 for `"reused"`).
fn count_before(text: &str, word: &str) -> u64 {
    let words: Vec<&str> = text.split_whitespace().collect();
    words
        .windows(2)
        .find(|w| w[1].trim_end_matches(',') == word)
        .and_then(|w| w[0].trim_start_matches('(').parse().ok())
        .unwrap_or(0)
}

/// Check a transcript of `stream` against the oracle, line by line. Edit
/// lines take their new definitions from the input's edit blocks, in
/// order; every verdict line is judged under the definitions current when
/// it was printed (a `recheck` re-reports standing checks against the
/// edited views).
pub fn check_transcript(stream: &Stream, transcript: &str) -> Census {
    let mut census = Census::default();
    let mut shapes: HashMap<&str, ViewShape> = HashMap::new();
    for (name, pairs) in &stream.views {
        match ViewShape::of(pairs) {
            Some(s) => {
                shapes.insert(name, s);
            }
            None => census.mismatch(format!("view {name}: outside the oracle's family")),
        }
    }
    let mut edits = stream.commands.iter().filter_map(|c| match c {
        Command::Edit { view, pairs } => Some((view, pairs)),
        _ => None,
    });
    let mut expected_diff_lines = (0u64, 0u64);
    for line in transcript.lines() {
        if let Some(rest) = line.strip_prefix("check member ") {
            census.verdicts += 1;
            let Some((label, verdict)) = rest.split_once(": ") else {
                census.mismatch(format!("unparsable verdict line `{line}`"));
                continue;
            };
            let yes = verdict.starts_with("YES");
            let (view, goal) = label.split_once(' ').unwrap_or((label, ""));
            match shapes.get(view).and_then(|s| s.member(goal)) {
                Some(expected) if expected == yes => {}
                Some(expected) => census.mismatch(format!(
                    "`{label}`: reported {}, oracle says {}",
                    if yes { "YES" } else { "NO" },
                    if expected { "YES" } else { "NO" }
                )),
                None => census.mismatch(format!("`{label}`: outside the oracle's family")),
            }
        } else if let Some(rest) = line
            .strip_prefix("txn edit ")
            .or_else(|| line.strip_prefix("edit "))
        {
            let name = rest.split(':').next().unwrap_or_default();
            match edits.next() {
                Some((view, pairs)) if view == name => match ViewShape::of(pairs) {
                    Some(s) => {
                        shapes.insert(view, s);
                    }
                    None => census.mismatch(format!("edit {name}: outside the oracle's family")),
                },
                _ => census.mismatch(format!("`{line}` matches no input edit")),
            }
            if line.starts_with("edit ") {
                census.invalidated += count_before(rest, "standing");
            }
        } else if let Some(rest) = line.strip_prefix("txn: ") {
            census.invalidated += count_before(rest, "standing");
        } else if let Some(rest) = line.strip_prefix("recheck: ") {
            census.reused += count_before(rest, "reused");
            census.recomputed += count_before(rest, "recomputed");
        } else if let Some(rest) = line.strip_prefix("diff ") {
            // `diff A B K: X member(s) only in A, Y only in B, Z shared`
            let (head, tail) = rest.split_once(": ").unwrap_or((rest, ""));
            let mut names = head.split(' ');
            let (left, right) = (
                names.next().unwrap_or_default(),
                names.next().unwrap_or_default(),
            );
            let mut numbers = tail
                .split(", ")
                .map(|part| part.split(' ').next().and_then(|n| n.parse::<u64>().ok()));
            let reported = (
                numbers.next().flatten(),
                numbers.next().flatten(),
                numbers.next().flatten(),
            );
            let reported = match reported {
                (Some(l), Some(r), Some(s)) => (l, r, s),
                _ => (u64::MAX, u64::MAX, u64::MAX),
            };
            let expected = shapes
                .get(left)
                .zip(shapes.get(right))
                .and_then(|(l, r)| l.diff(r));
            match expected {
                Some((l, r, s)) if (l as u64, r as u64, s as u64) == reported => {
                    expected_diff_lines.0 += l as u64;
                    expected_diff_lines.1 += r as u64;
                }
                _ => census.mismatch(format!("`{line}`: oracle expects {expected:?}")),
            }
        } else if line.starts_with("  - TRS ") {
            expected_diff_lines.0 = expected_diff_lines.0.wrapping_sub(1);
        } else if line.starts_with("  + TRS ") {
            expected_diff_lines.1 = expected_diff_lines.1.wrapping_sub(1);
        }
    }
    if expected_diff_lines != (0, 0) {
        census.mismatch("diff member lines disagree with the diff summaries".to_owned());
    }
    if edits.next().is_some() {
        census.mismatch("transcript reports fewer edits than the input holds".to_owned());
    }
    census
}

/// The stream's views built the way the scenario runner builds them, kept
/// current through the edits, for the layer replays.
struct Model {
    catalog: Catalog,
    views: HashMap<String, View>,
}

impl Model {
    fn new(stream: &Stream) -> Result<Model, String> {
        let mut catalog = Catalog::new();
        for (name, attrs) in &stream.rels {
            let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            catalog.relation(name, &attrs).map_err(|e| e.to_string())?;
        }
        Ok(Model {
            catalog,
            views: HashMap::new(),
        })
    }

    /// Parse a view definition; each pair gets a fresh view-schema name.
    fn build(&mut self, pairs: &[(String, String)]) -> Result<View, String> {
        let mut built = Vec::new();
        for (name, src) in pairs {
            let expr = parse_expr(src, &self.catalog).map_err(|e| e.to_string())?;
            let q = Query::from_expr(expr.clone(), &self.catalog);
            let rel = self.catalog.fresh_relation(name, q.trs());
            built.push((expr, rel));
        }
        View::from_exprs(built, &self.catalog).map_err(|e| e.to_string())
    }

    fn view(&self, name: &str) -> Result<&View, String> {
        self.views
            .get(name)
            .ok_or_else(|| format!("unknown view `{name}`"))
    }
}

/// Replay of the engine's fingerprinting on freshly parsed inputs: one
/// `view_fingerprint` per declared or edited view and one
/// `Engine::cache_key` per check, in input order. Parsing stays outside
/// the timed calls. Returns the summed call time in ms and the call count.
pub fn fingerprint_replay(stream: &Stream) -> Result<(f64, u64), String> {
    let mut model = Model::new(stream)?;
    let mut ns = 0u128;
    let mut calls = 0u64;
    let mut timed = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        ns += t0.elapsed().as_nanos();
        calls += 1;
    };
    for (name, pairs) in &stream.views {
        let view = model.build(pairs)?;
        timed(&mut || {
            std::hint::black_box(view_fingerprint(&view, &model.catalog));
        });
        model.views.insert(name.clone(), view);
    }
    for command in &stream.commands {
        match command {
            Command::Edit { view, pairs } => {
                let edited = model.build(pairs)?;
                timed(&mut || {
                    std::hint::black_box(view_fingerprint(&edited, &model.catalog));
                });
                model.views.insert(view.clone(), edited);
            }
            Command::Member { view, goal } => {
                let expr = parse_expr(goal, &model.catalog).map_err(|e| e.to_string())?;
                let check = Check::Member {
                    view: model.view(view)?.clone(),
                    goal: Query::from_expr(expr, &model.catalog),
                };
                timed(&mut || {
                    std::hint::black_box(Engine::cache_key(&check, &model.catalog));
                });
            }
            _ => {}
        }
    }
    Ok((ns as f64 / 1e6, calls))
}

/// Replay of the stream's `diff` commands through
/// `viewcap_core::frontier_diff`, with one context pair per distinct
/// version pair as the scenario runner keeps them (context creation is
/// timed too). Returns the time in ms, the number of member pairs the
/// quadratic equivalence filter compares (Σ 2·|L|·|R|), and the reported
/// `(only left, only right, shared)` counts in order.
pub type FrontierReplay = (f64, u64, Vec<(usize, usize, usize)>);

/// See [`FrontierReplay`].
pub fn frontier_replay(stream: &Stream) -> Result<FrontierReplay, String> {
    let mut model = Model::new(stream)?;
    for (name, pairs) in &stream.views {
        let view = model.build(pairs)?;
        model.views.insert(name.clone(), view);
    }
    let budget = SearchBudget::default();
    let mut contexts = HashMap::new();
    let mut ns = 0u128;
    let mut compared = 0u64;
    let mut counts = Vec::new();
    for command in &stream.commands {
        match command {
            Command::Edit { view, pairs } => {
                let edited = model.build(pairs)?;
                model.views.insert(view.clone(), edited);
            }
            Command::Diff { left, right, k } => {
                let (lv, rv) = (model.view(left)?, model.view(right)?);
                let key = (
                    view_fingerprint(lv, &model.catalog),
                    view_fingerprint(rv, &model.catalog),
                );
                let t0 = Instant::now();
                let (lc, rc) = contexts.entry(key).or_insert_with(|| {
                    (
                        ClosureContext::new(lv.query_set().queries(), &model.catalog, &budget),
                        ClosureContext::new(rv.query_set().queries(), &model.catalog, &budget),
                    )
                });
                let diff = frontier_diff(lc, rc, *k).map_err(|e| e.to_string())?;
                ns += t0.elapsed().as_nanos();
                let (l, r) = (
                    diff.only_left.len() + diff.common,
                    diff.only_right.len() + diff.common,
                );
                compared += 2 * (l * r) as u64;
                counts.push((diff.only_left.len(), diff.only_right.len(), diff.common));
            }
            _ => {}
        }
    }
    Ok((ns as f64 / 1e6, compared, counts))
}

/// Pair the frontier replay's counts with the oracle's, diff by diff.
pub fn frontier_oracle(stream: &Stream) -> Vec<Option<(usize, usize, usize)>> {
    let mut shapes: BTreeMap<&str, Option<ViewShape>> = stream
        .views
        .iter()
        .map(|(n, p)| (n.as_str(), ViewShape::of(p)))
        .collect();
    let mut out = Vec::new();
    for command in &stream.commands {
        match command {
            Command::Edit { view, pairs } => {
                shapes.insert(view, ViewShape::of(pairs));
            }
            Command::Diff { left, right, .. } => {
                let l = shapes.get(left.as_str()).cloned().flatten();
                let r = shapes.get(right.as_str()).cloned().flatten();
                out.push(l.zip(r).and_then(|(l, r)| l.diff(&r)));
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewcap::scenario::{run_scenario_with, ScenarioOptions};
    use viewcap_gen::{fleet_stream, frontier_diff_stream, txn_stream, FleetSpec};

    fn small() -> FleetSpec {
        FleetSpec {
            views: 24,
            base_rels: 4,
            events: 40,
            batch_size: 4,
            ..FleetSpec::default()
        }
    }

    fn transcript(source: &str) -> String {
        run_scenario_with(source, &ScenarioOptions { jobs: 1 })
            .expect("generated scenario runs")
            .report
    }

    #[test]
    fn oracle_agrees_with_the_engine_on_small_fleets() {
        for seed in 1..=3 {
            for scenario in [
                fleet_stream(seed, &small()),
                frontier_diff_stream(seed, &small()),
                txn_stream(seed, &small()),
            ] {
                let stream = Stream::parse(&scenario.source).expect("parses");
                let census = check_transcript(&stream, &transcript(&scenario.source));
                assert_eq!(census.mismatch_count, 0, "{:?}", census.mismatches);
                assert!(census.verdicts > 0);
            }
        }
    }

    #[test]
    fn oracle_catches_a_flipped_verdict() {
        let scenario = fleet_stream(7, &small());
        let stream = Stream::parse(&scenario.source).expect("parses");
        let good = transcript(&scenario.source);
        let bad = good.replacen(": NO\n", ": YES via X\n", 1);
        assert_ne!(good, bad, "the stream holds a NO verdict to flip");
        assert!(check_transcript(&stream, &bad).mismatch_count > 0);
        let dropped = good.replacen("txn edit ", "txn xdit ", 1);
        assert!(check_transcript(&stream, &dropped).mismatch_count > 0);
    }

    #[test]
    fn census_counts_input_commands_and_rechecks() {
        let scenario = fleet_stream(5, &small());
        let stream = Stream::parse(&scenario.source).expect("parses");
        assert_eq!(
            stream.command_count(),
            scenario.checks + scenario.edits + scenario.txns + scenario.rechecks + scenario.diffs
        );
        let census = check_transcript(&stream, &transcript(&scenario.source));
        assert!(census.reused + census.recomputed > 0);
        assert!(census.invalidated > 0);
    }

    #[test]
    fn replays_match_the_oracle() {
        let scenario = frontier_diff_stream(3, &small());
        let stream = Stream::parse(&scenario.source).expect("parses");
        let (_, compared, counts) = frontier_replay(&stream).expect("replays");
        assert!(compared > 0);
        let expected: Vec<_> = frontier_oracle(&stream).into_iter().flatten().collect();
        assert_eq!(counts, expected);
        let (_, calls) = fingerprint_replay(&stream).expect("replays");
        assert_eq!(calls as usize, stream.views.len() + scenario.checks);
    }
}
