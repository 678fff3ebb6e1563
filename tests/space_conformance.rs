//! Candidate-space conformance across catalog declaration orders.
//!
//! Two guarantees under test, both from the same pair of mechanisms
//! (declaration-order-canonical enumeration + content-addressed space
//! snapshots):
//!
//! 1. **Cold canonicalism** — with *no* snapshot anywhere, cold runs on
//!    catalogs declaring the same relations in permuted orders (relation
//!    order and per-relation attribute interning order alike) emit
//!    byte-identical verdict lines, witnesses included. Enumeration
//!    level construction is sorted by *content* (attribute-name ranks),
//!    not declaration order, so the first witness found is the same
//!    witness everywhere.
//! 2. **Snapshot transparency** — a `SpaceLibrary` harvested under the
//!    natural order hydrates a permuted-order run (zero rebuilt levels)
//!    without changing one byte of its transcript: hydration is an
//!    optimization, never an observable.
//!
//! The view deliberately carries queries whose level-1 projections and
//! level-3 joins admit *multiple* witnesses per goal — the cases where,
//! before canonicalization, the within-length subset enumeration order
//! (and with it the emitted witness) followed attribute interning order.

use std::sync::{Arc, Mutex};
use viewcap::scenario::{run_scenario_with_engine, ScenarioOptions};
use viewcap_engine::{Engine, EngineConfig, SpaceLibrary};

/// The shared declarations + workload, minus any permutation directive.
const BODY: &str = r#"
rel R(A, B, C)
rel S(C, D)

view V {
  Q1 = pi{A,B}(R)
  Q2 = pi{B,C}(R)
  Q3 = pi{A,C}(R)
  Q4 = pi{C,D}(S)
}
view W {
  Left  = pi{A,B}(R)
  Right = pi{B,C}(R)
}

check member V pi{A}(R)
check member V pi{C}(R)
check member V pi{A}(R) * pi{B}(R) * pi{C}(R)
check member V pi{A,B}(R) * pi{C,D}(S)
check member V pi{B}(R) * pi{C}(R) * pi{D}(S)
check member V R
check dominates V W
check equivalent V W
nonredundant V
frontier W 2
"#;

fn permuted(seed: u64) -> String {
    format!("catalog permute {seed}\n{BODY}")
}

/// The verdict lines of a report — what must be byte-identical across
/// catalog declaration orders. Declaration/permutation bookkeeping lines
/// legitimately differ.
fn verdict_lines(report: &str) -> Vec<&str> {
    report
        .lines()
        .filter(|l| !l.starts_with("rel ") && !l.starts_with("catalog"))
        .collect()
}

#[test]
fn cold_witnesses_are_declaration_order_invariant() {
    let options = ScenarioOptions { jobs: 1 };
    let base_engine = Engine::new();
    let base = run_scenario_with_engine(BODY, &options, &base_engine).unwrap();
    assert!(base.yes > 0 && base.no > 0, "workload must be two-sided");

    for seed in [1u64, 5, 7, 23, 101] {
        let engine = Engine::new();
        let run = run_scenario_with_engine(&permuted(seed), &options, &engine).unwrap();
        assert_eq!(
            verdict_lines(&base.report),
            verdict_lines(&run.report),
            "seed {seed}: witnesses diverged across declaration orders"
        );
        assert_eq!((base.yes, base.no), (run.yes, run.no), "seed {seed}");
    }
}

#[test]
fn snapshot_hydration_preserves_transcripts_on_permuted_catalogs() {
    let options = ScenarioOptions { jobs: 1 };

    // Harvest a space library from one natural-order run.
    let library = Arc::new(Mutex::new(SpaceLibrary::new()));
    let seeder =
        Engine::from_config(EngineConfig::new().shared_spaces(Arc::clone(&library))).unwrap();
    run_scenario_with_engine(BODY, &options, &seeder).unwrap();
    assert!(
        seeder.harvest_spaces() > 0,
        "the seeding run must export at least one grown space"
    );

    for seed in [1u64, 7, 23] {
        let src = permuted(seed);

        // Reference: cold, snapshot-free.
        let cold_engine = Engine::new();
        let cold = run_scenario_with_engine(&src, &options, &cold_engine).unwrap();
        assert!(cold.enum_stats.levels_rebuilt > 0, "seed {seed}");
        assert_eq!(cold.enum_stats.levels_hydrated, 0, "seed {seed}");

        // Same run, hydrated from the natural-order snapshot. The verdict
        // cache is fresh — only the enumeration is warm — and the whole
        // transcript must not move by a byte.
        let warm_engine =
            Engine::from_config(EngineConfig::new().shared_spaces(Arc::clone(&library))).unwrap();
        let warm = run_scenario_with_engine(&src, &options, &warm_engine).unwrap();
        assert_eq!(
            cold.report, warm.report,
            "seed {seed}: hydration changed the transcript"
        );
        assert_eq!(
            warm.enum_stats.levels_rebuilt, 0,
            "seed {seed}: hydrated run rebuilt enumeration levels"
        );
        assert!(
            warm.enum_stats.levels_hydrated > 0,
            "seed {seed}: nothing hydrated"
        );
        assert_eq!((cold.yes, cold.no), (warm.yes, warm.no), "seed {seed}");
    }
}

/// Level content, pinned: a three-λ candidate space over query schemes of
/// `chain_world(4)`, built to bound 2. The counters, the roots (expression
/// and reduced template, in visit order) and the snapshot bytes were
/// recorded before the level-build bookkeeping was made cheaper; a build
/// that does the same work more cheaply reproduces all of them exactly.
#[test]
fn chain_world_level_content_is_pinned() {
    use std::ops::ControlFlow;
    use viewcap_base::ContentHasher;
    use viewcap_template::{save_space, CandidateSpace, SearchLimits, SearchOptions};

    let world = viewcap_gen::chain_world(4);
    let mut catalog = world.catalog.clone();
    // TRSs of two-atom chain queries: π{A0,A2}(R0 ⋈ R1), R1 ⋈ R2 and
    // π{A2,A4}(R2 ⋈ R3).
    let atoms: Vec<_> = [vec!["A0", "A2"], vec!["A1", "A2", "A3"], vec!["A2", "A4"]]
        .iter()
        .map(|names| {
            let scheme = catalog.scheme(names).unwrap();
            catalog.fresh_relation("lam", scheme)
        })
        .collect();
    let mut space = CandidateSpace::new(&atoms, SearchOptions::default());
    let mut roots = ContentHasher::new();
    let mut n_roots = 0u64;
    space
        .probe(&catalog, 2, None, &SearchLimits::default(), &mut |e, t| {
            roots.str(&format!("{e:?} {t:?}"));
            n_roots += 1;
            ControlFlow::Continue(())
        })
        .unwrap();
    let stats = space.stats();
    let bytes = save_space(&space, &catalog);
    let mut snapshot = ContentHasher::new();
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        snapshot.word(u64::from_le_bytes(word));
    }
    let observed = format!(
        "combos={} roots_visited={} parts_kept={} dedup_hits={} roots={} \
         roots_digest={:032x} snapshot_len={} snapshot_digest={:032x}",
        stats.combos,
        stats.roots_visited,
        stats.parts_kept,
        stats.dedup_hits,
        n_roots,
        roots.finish(),
        bytes.len(),
        snapshot.finish(),
    );
    assert_eq!(
        observed,
        "combos=78 roots_visited=121 parts_kept=104 dedup_hits=284 roots=121 \
         roots_digest=d5e1c48a98efe5671e57b4d4bc0c69c2 \
         snapshot_len=15296 snapshot_digest=4b62fda63f9c934885331b323b017069"
    );
}
