//! Golden transcripts: the full stdout of generated fleet streams and of
//! hand-written scenarios, compared byte-for-byte with files under
//! `tests/golden/`.
//!
//! The conformance suites compare the program with itself (`--jobs` 1 vs
//! 4, txn vs sequential edits, daemon vs batch), so a change that is wrong
//! the same way on both sides passes them. These files were recorded once
//! and only change when a transcript is meant to change. On a mismatch the
//! test writes the new transcript next to the pinned one as
//! `<name>.out.new` and fails; after a change meant to alter a transcript,
//! review the difference and move the `.new` file over the `.out` file.

use std::path::PathBuf;
use viewcap::scenario::run_scenario;
use viewcap_gen::{fleet_stream, frontier_diff_stream, txn_stream, FleetScenario, FleetSpec};

/// A fleet small enough to keep each transcript in the tens of kilobytes,
/// with every command kind and many repeated expression texts.
fn spec() -> FleetSpec {
    FleetSpec {
        views: 40,
        base_rels: 4,
        events: 30,
        batch_size: 6,
        ..FleetSpec::default()
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The batch CLI's stdout for `source`: the report plus the summary line.
fn stdout_of(source: &str) -> String {
    let out = run_scenario(source).unwrap_or_else(|e| panic!("scenario failed: {e}"));
    format!(
        "{}-- {} check(s) answered YES, {} answered NO\n",
        out.report, out.yes, out.no
    )
}

fn check_golden(name: &str, source: &str) {
    let path = golden_dir().join(format!("{name}.out"));
    let actual = stdout_of(source);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if actual != expected {
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        let new_path = path.with_extension("out.new");
        std::fs::write(&new_path, &actual).unwrap();
        panic!(
            "{name}: transcript differs from {} at line {} (new transcript in {}):\n  got      {:?}\n  expected {:?}",
            path.display(),
            line + 1,
            new_path.display(),
            actual.lines().nth(line),
            expected.lines().nth(line)
        );
    }
}

fn check_stream(name: &str, generate: fn(u64, &FleetSpec) -> FleetScenario) {
    for seed in [3u64, 11] {
        check_golden(
            &format!("{name}_seed{seed}"),
            &generate(seed, &spec()).source,
        );
    }
}

#[test]
fn txn_stream_transcripts_match_golden() {
    check_stream("txn_stream", txn_stream);
}

#[test]
fn fleet_stream_transcripts_match_golden() {
    check_stream("fleet_stream", fleet_stream);
}

#[test]
fn frontier_diff_stream_transcripts_match_golden() {
    check_stream("frontier_diff_stream", frontier_diff_stream);
}

/// One scenario that reuses expression texts across later `rel`
/// declarations, across edits that mint `$n` relations, in `batch`,
/// `txn`, `diff` and `frontier` commands — pinned as written and under
/// `catalog permute`.
#[test]
fn repeated_expression_texts_match_golden() {
    let body = std::fs::read_to_string(golden_dir().join("repeated_texts.vcap")).unwrap();
    check_golden("repeated_texts", &body);
    check_golden(
        "repeated_texts_permuted",
        &format!("catalog permute 5\n{body}"),
    );
}
