//! Fleet workload conformance: generated zipf streams run clean through
//! the scenario engine, `txn` blocks agree byte-for-byte with sequential
//! edits, and `diff` agrees with independent frontier enumerations — at
//! every `--jobs` setting. Every run records per-check latencies.

use std::sync::Mutex;
use viewcap::scenario::{run_scenario_with_engine, ScenarioOptions, ScenarioOutcome};
use viewcap_base::Catalog;
use viewcap_core::{closure_members, Query, SearchBudget};
use viewcap_engine::Engine;
use viewcap_expr::parse_expr;
use viewcap_gen::{fleet_stream, frontier_diff_stream, txn_stream, FleetSpec};

const JOBS: [usize; 3] = [1, 4, 8];

fn small_spec() -> FleetSpec {
    FleetSpec {
        views: 24,
        base_rels: 4,
        events: 40,
        batch_size: 4,
        ..FleetSpec::default()
    }
}

/// Twice the views of [`small_spec`] over the default eight base relations.
fn mid_spec() -> FleetSpec {
    FleetSpec {
        views: 48,
        events: 60,
        batch_size: 4,
        ..FleetSpec::default()
    }
}

/// The telemetry registry is process-global: runs take turns, so each
/// run's snapshot holds its own samples only.
static TELEMETRY: Mutex<()> = Mutex::new(());

/// `src` through a cold engine with telemetry on. Every generated stream
/// computes checks, so every run must leave `engine.check_ns` samples.
fn run(src: &str, jobs: usize) -> ScenarioOutcome {
    let _turn = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    viewcap_obs::reset();
    viewcap_obs::set_enabled(true);
    let engine = Engine::new();
    let out = run_scenario_with_engine(src, &ScenarioOptions { jobs }, &engine);
    viewcap_obs::set_enabled(false);
    let out = out.unwrap();
    assert!(
        out.metrics
            .histograms
            .get("engine.check_ns")
            .is_some_and(|h| h.count > 0),
        "jobs {jobs}: no engine.check_ns samples"
    );
    out
}

#[test]
fn fleet_stream_runs_and_is_jobs_invariant() {
    for (seed, spec) in [
        (1u64, small_spec()),
        (7, small_spec()),
        (0xF1EE7, mid_spec()),
    ] {
        let stream = fleet_stream(seed, &spec);
        let runs: Vec<ScenarioOutcome> =
            JOBS.iter().map(|&jobs| run(&stream.source, jobs)).collect();
        let r1 = &runs[0];
        for (jobs, r) in JOBS.iter().zip(&runs) {
            assert_eq!(
                r.report, r1.report,
                "seed {seed}: report depends on --jobs {jobs}"
            );
            assert_eq!((r.yes, r.no), (r1.yes, r1.no), "seed {seed} jobs {jobs}");
            // The zipf head and edits toggled back keep popular checks
            // repeating, so the verdict cache must stay warm.
            let (hits, misses) = (r.stats.hits, r.stats.misses);
            let hit_rate = hits as f64 / ((hits + misses) as f64).max(1.0);
            assert!(
                hit_rate >= 0.25,
                "seed {seed} jobs {jobs}: hit rate {hit_rate:.3} below 0.25"
            );
        }
        assert!(r1.yes > 0 && r1.no > 0, "seed {seed}: goal mix degenerate");
        assert!(r1.report.contains("txn:"), "seed {seed}");
        assert!(r1.report.contains("diff V"), "seed {seed}");
        assert!(r1.report.contains("recheck:"), "seed {seed}");
    }
}

/// Rewrite a generated txn stream into the same edits as plain sequential
/// `edit` blocks: drop the `txn {` / closing `}` wrapper and outdent the
/// members. The generated emission is regular, so this is line-exact.
fn sequentialize(src: &str) -> String {
    let mut out = String::new();
    let mut in_txn = false;
    for line in src.lines() {
        if line == "txn {" {
            in_txn = true;
            continue;
        }
        if in_txn && line == "}" {
            in_txn = false;
            continue;
        }
        if in_txn {
            out.push_str(line.strip_prefix("  ").unwrap_or(line));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn txn_stream_verdicts_match_sequential_edits() {
    for (seed, spec) in [
        (3u64, small_spec()),
        (11, small_spec()),
        (0x7A9, mid_spec()),
    ] {
        let stream = txn_stream(seed, &spec);
        assert!(stream.txns > 0, "seed {seed}: no txn blocks generated");
        let seq_src = sequentialize(&stream.source);
        assert!(!seq_src.contains("txn {"));
        let mut verdicts = None;
        for jobs in JOBS {
            let txn = run(&stream.source, jobs);
            let seq = run(&seq_src, jobs);
            // Verdicts, witnesses, and incremental-recheck accounting are
            // byte-identical; only the edit/txn report lines differ.
            let picked = |r: &str| {
                r.lines()
                    .filter(|l| l.starts_with("check ") || l.starts_with("recheck:"))
                    .map(str::to_owned)
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                picked(&txn.report),
                picked(&seq.report),
                "seed {seed} jobs {jobs}"
            );
            let counts = (txn.yes, txn.no);
            assert_eq!(counts, (seq.yes, seq.no), "seed {seed} jobs {jobs}");
            assert_eq!(
                *verdicts.get_or_insert(counts),
                counts,
                "seed {seed}: verdict counts depend on --jobs {jobs}"
            );
        }
    }
}

#[test]
fn diff_stream_matches_independent_frontier_enumeration() {
    // Every generated pair diffs `{pi{Ab,Bb}, pi{Bb,Cb}}` against
    // `{pi{Ab,Bb}}` over its base relation; compute the expected set
    // difference with two independent one-shot enumerations, at the atom
    // bound both specs use.
    let atom_bound = small_spec().atom_bound;
    assert_eq!(atom_bound, mid_spec().atom_bound);
    let mut cat = Catalog::new();
    cat.relation("R", &["A", "B", "C"]).unwrap();
    let q = |src: &str| Query::from_expr(parse_expr(src, &cat).unwrap(), &cat);
    let budget = SearchBudget::default();
    let left = closure_members(
        &[q("pi{A,B}(R)"), q("pi{B,C}(R)")],
        atom_bound,
        &cat,
        &budget,
    )
    .unwrap();
    let right = closure_members(&[q("pi{A,B}(R)")], atom_bound, &cat, &budget).unwrap();
    let only_left = left
        .iter()
        .filter(|m| !right.iter().any(|n| n.query.equiv(&m.query)))
        .count();
    let only_right = right
        .iter()
        .filter(|m| !left.iter().any(|n| n.query.equiv(&m.query)))
        .count();
    let shared = left.len() - only_left;

    for (seed, spec) in [(5u64, small_spec()), (0xD1FF, mid_spec())] {
        let stream = frontier_diff_stream(seed, &spec);
        assert!(stream.diffs > 0, "seed {seed}: no diff commands generated");
        let runs: Vec<ScenarioOutcome> =
            JOBS.iter().map(|&jobs| run(&stream.source, jobs)).collect();
        let r1 = &runs[0];
        for (jobs, r) in JOBS.iter().zip(&runs) {
            assert_eq!(
                r.report, r1.report,
                "seed {seed}: report depends on --jobs {jobs}"
            );
            assert_eq!((r.yes, r.no), (r1.yes, r1.no), "seed {seed} jobs {jobs}");
        }

        let diff_lines: Vec<&str> = r1
            .report
            .lines()
            .filter(|l| l.starts_with("diff "))
            .collect();
        assert_eq!(diff_lines.len(), stream.diffs, "seed {seed}");
        // "diff Dpa Dpb k: N member(s) only in Dpa, M only in Dpb, S shared"
        for line in diff_lines {
            assert!(
                line.contains(&format!(": {only_left} member(s) only in D")),
                "{line}"
            );
            assert!(
                line.contains(&format!(", {only_right} only in D")),
                "{line}"
            );
            assert!(line.ends_with(&format!("{shared} shared")), "{line}");
        }
    }
}
