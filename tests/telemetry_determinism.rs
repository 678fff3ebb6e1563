//! Counter-valued telemetry must be byte-identical across `--jobs`
//! settings: the engine's batch executor dedups, prewarms contexts, and
//! elects representatives sequentially, so the *work* a scenario does —
//! cache hits/misses, enumeration combos, spans per check — cannot
//! depend on worker scheduling. Timing lives in histograms, which the
//! counter projection excludes by construction.
//!
//! The telemetry registry is process-global, so this suite keeps all
//! runs inside one `#[test]` (its own binary; nothing else in the
//! process flips the enabled flag).

use viewcap::scenario::{run_scenario_with, run_scenario_with_engine, ScenarioOptions};
use viewcap_engine::{EngineConfig, Session};
use viewcap_gen::{fleet_stream, frontier_diff_stream, FleetSpec};

/// Serializes the tests in this binary on the process-global registry.
static REGISTRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn counters_for(src: &str, jobs: usize) -> String {
    viewcap_obs::reset();
    let outcome = run_scenario_with(src, &ScenarioOptions { jobs }).expect("scenario runs");
    outcome.metrics.counters_text()
}

#[test]
fn counters_identical_across_jobs() {
    let scenarios = [
        "example_3_1_5",
        "batch_workload",
        "incremental_edit",
        "security_audit",
        "normal_form",
        "cross_catalog_base",
    ];
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    viewcap_obs::set_enabled(true);
    for name in scenarios {
        let src = std::fs::read_to_string(format!("scenarios/{name}.vcap"))
            .unwrap_or_else(|e| panic!("read scenarios/{name}.vcap: {e}"));
        let sequential = counters_for(&src, 1);
        let parallel = counters_for(&src, 4);
        assert_eq!(
            sequential, parallel,
            "{name}: counter metrics must not depend on --jobs"
        );
        // Non-vacuity: the runs actually produced telemetry.
        assert!(
            sequential.contains("engine.cache.miss"),
            "{name}: expected cache counters, got:\n{sequential}"
        );
    }
    viewcap_obs::set_enabled(false);
}

#[test]
fn frontier_diff_counters_identical_across_jobs() {
    // A generated `diff` stream: popular version pairs are re-diffed, so
    // both memo misses (enumerated frontiers) and memo hits occur.
    let spec = FleetSpec {
        views: 24,
        base_rels: 4,
        events: 40,
        batch_size: 4,
        ..FleetSpec::default()
    };
    let src = frontier_diff_stream(5, &spec).source;
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    viewcap_obs::set_enabled(true);
    let sequential = counters_for(&src, 1);
    let parallel = counters_for(&src, 4);
    viewcap_obs::set_enabled(false);
    assert_eq!(
        sequential, parallel,
        "diff: counter metrics must not depend on --jobs"
    );
    for counter in [
        "span.core.frontier.diff",
        "span.core.frontier.members",
        "core.frontier.memo_hits",
    ] {
        assert!(
            counter_value(&sequential, counter).is_some_and(|v| v > 0),
            "diff: expected a nonzero {counter}, got:\n{sequential}"
        );
    }
}

/// The value of `counter` in a `counters_text` dump, if present.
fn counter_value(text: &str, counter: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(counter)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
}

#[test]
fn query_memo_and_pile_append_counters_identical_across_jobs() {
    // A generated fleet stream run twice against one pile: the first run
    // appends its verdicts, the identical second run learns nothing and
    // appends nothing; the fleet's repeated expression texts hit the
    // query memo throughout.
    let spec = FleetSpec {
        views: 24,
        base_rels: 4,
        events: 40,
        batch_size: 4,
        ..FleetSpec::default()
    };
    let src = fleet_stream(5, &spec).source;
    let dir = std::env::temp_dir().join(format!("viewcap-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let counters_with_pile = |jobs: usize| {
        let pile = dir.join(format!("jobs{jobs}.vcappile"));
        let _ = std::fs::remove_file(&pile);
        viewcap_obs::reset();
        for _ in 0..2 {
            let mut session = Session::open(EngineConfig::new().pile(&pile).jobs(jobs)).unwrap();
            let outcome =
                run_scenario_with_engine(&src, &ScenarioOptions { jobs }, session.engine())
                    .expect("scenario runs");
            session.persist(&outcome.catalog).unwrap();
        }
        viewcap_obs::snapshot().counters_text()
    };
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    viewcap_obs::set_enabled(true);
    let sequential = counters_with_pile(1);
    let parallel = counters_with_pile(4);
    viewcap_obs::set_enabled(false);
    assert_eq!(
        sequential, parallel,
        "fleet: counter metrics must not depend on --jobs"
    );
    for counter in [
        "scenario.query_memo.hit",
        "scenario.query_memo.miss",
        "pile.append.records",
        "pile.append.skipped",
    ] {
        assert!(
            counter_value(&sequential, counter).is_some_and(|v| v > 0),
            "fleet: expected a nonzero {counter}, got:\n{sequential}"
        );
    }
}

#[test]
fn snapshot_excludes_timing_from_counters() {
    // The counter projection must never leak a histogram (timing) value;
    // histogram names are suffixed `_ns` by convention and live only in
    // the `histograms` map. The histograms, in turn, must hold one sample
    // per timed call.
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    viewcap_obs::set_enabled(true);
    viewcap_obs::reset();
    let src = std::fs::read_to_string("scenarios/example_3_1_5.vcap").expect("scenario");
    let outcome = run_scenario_with(&src, &ScenarioOptions { jobs: 2 }).expect("scenario runs");
    let trace_events = viewcap_obs::trace_json().matches("\"ph\"").count();
    viewcap_obs::reset();
    let src = std::fs::read_to_string("scenarios/normal_form.vcap").expect("scenario");
    let normalized = run_scenario_with(&src, &ScenarioOptions { jobs: 2 }).expect("scenario runs");
    viewcap_obs::set_enabled(false);
    assert!(
        outcome.metrics.counters.keys().all(|k| !k.ends_with("_ns")),
        "counters must not carry timing"
    );
    // Spans-per-check: every computed check opened exactly one span and
    // recorded exactly one latency sample.
    let latencies = outcome.metrics.histograms.get("engine.check_ns");
    let spans = outcome.metrics.counters.get("span.engine.check").copied();
    let misses = outcome.metrics.counters.get("engine.cache.miss").copied();
    assert!(
        latencies.is_some_and(|h| h.count > 0),
        "per-check latency histogram missing"
    );
    assert_eq!(spans, misses, "one engine.check span per computed check");
    assert_eq!(latencies.map(|h| h.count), spans, "one latency per span");
    assert!(trace_events > 0, "enabled run emitted no trace events");
    assert!(
        normalized
            .metrics
            .histograms
            .get("engine.normalize_ns")
            .is_some_and(|h| h.count > 0),
        "per-normalize latency histogram missing"
    );
}
