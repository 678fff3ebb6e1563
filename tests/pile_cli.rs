//! Two-process concurrent-append stress: the CLI variant of the in-crate
//! thread test (`crates/engine/tests/pile_store.rs`). Several *real*
//! `viewcap-cli --pile` processes decide disjoint verdict sets against one
//! shared pile while this test polls the live file; then the pile's export
//! must be byte-identical to `cache merge` over the same workers' cache
//! files.
//!
//! Byte-identity holds whichever records a `--pile` process saw when it
//! loaded (it appends only the entries the pile lacked then, so a key two
//! processes learned concurrently may ride in both records): cache entries
//! are name-addressed and deterministic, so every copy of an entry
//! serializes to the same bytes, and merge output depends only on the
//! *union* — sorted by key, names re-interned — not on which record
//! carried which entry.
//!
//! Also pinned here: repeated identical `--pile` runs leave the pile
//! exactly as the first run left it.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use viewcap_engine::{merge_cache_bytes, validate_cache_bytes, PileStore};
use viewcap_pile::PileReader;

const CLI: &str = env!("CARGO_BIN_EXE_viewcap-cli");
const WORKERS: usize = 4;

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("viewcap-pile-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Worker `w`'s scenario: the shared catalog (identical `rel` lines in
/// every file, so names resolve identically everywhere) with checks only
/// `w` poses — the workers' verdict sets are pairwise disjoint.
fn scenario(w: usize) -> String {
    let mut src = String::new();
    for i in 0..WORKERS {
        src.push_str(&format!("rel S{i}(A, B, C)\n"));
    }
    src.push_str(&format!(
        "view V{w} {{\n  Body = pi{{A,B}}(S{w})\n}}\n\
         check member V{w} pi{{A}}(S{w})\n\
         check member V{w} pi{{B}}(S{w})\n\
         check member V{w} S{w}\n"
    ));
    src
}

fn wait_ok(child: Child, what: &str) {
    let out = child.wait_with_output().expect("wait for worker");
    assert!(
        out.status.success(),
        "{what} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn concurrent_cli_processes_share_one_pile() {
    let dir = scratch();
    let pile = dir.join("fleet.vcappile");
    let _ = std::fs::remove_file(&pile);

    // Reference cache files: each worker's scenario run alone, the way a
    // fleet without a pile would persist — the inputs to `cache merge`.
    let mut refs = Vec::new();
    for w in 0..WORKERS {
        let scenario_file = dir.join(format!("worker{w}.vcap"));
        std::fs::write(&scenario_file, scenario(w)).unwrap();
        let cache_file = dir.join(format!("worker{w}.vcapcache"));
        let _ = std::fs::remove_file(&cache_file);
        let run = Command::new(CLI)
            .arg("--cache-file")
            .arg(&cache_file)
            .arg(&scenario_file)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        wait_ok(run, &format!("reference run {w}"));
        refs.push(std::fs::read(&cache_file).unwrap());
    }

    // Now the same scenarios as concurrent *processes* against one pile,
    // with a reader polling the live file the whole time. Touch the pile
    // first so the reader can open it before any worker does.
    PileStore::open(&pile).unwrap();
    let workers: Vec<Child> = (0..WORKERS)
        .map(|w| {
            Command::new(CLI)
                .arg("--pile")
                .arg(&pile)
                .arg(dir.join(format!("worker{w}.vcap")))
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap()
        })
        .collect();

    let mut reader = PileReader::open(&pile).unwrap();
    let mut polled = 0usize;
    let mut last_offset = 0u64;
    let mut workers = workers;
    while !workers.is_empty() {
        // A polling reader must only ever surface complete, valid records
        // — a torn in-flight append stays invisible until finished.
        for record in reader.poll().unwrap() {
            assert!(record.offset >= last_offset, "records out of file order");
            last_offset = record.offset;
            validate_cache_bytes(&record.payload).unwrap_or_else(|e| {
                panic!("reader saw a torn/invalid record at {}: {e}", record.offset)
            });
            polled += 1;
        }
        workers.retain_mut(|child| match child.try_wait().unwrap() {
            None => true,
            Some(status) => {
                assert!(status.success(), "worker exited {status}");
                false
            }
        });
        std::thread::yield_now();
    }
    for record in reader.poll().unwrap() {
        validate_cache_bytes(&record.payload).unwrap();
        polled += 1;
    }
    assert_eq!(polled, WORKERS, "every worker appends exactly one record");

    // The pile's export is byte-identical to the CLI merge of the
    // reference cache files — "merge" is just reading the shared pile.
    let mut store = PileStore::open(&pile).unwrap();
    assert_eq!(store.record_count().unwrap(), WORKERS);
    let (from_pile, _) = store.merged_bytes().unwrap();
    let (from_merge, merge_report) = merge_cache_bytes(&refs).unwrap();
    assert_eq!(
        from_pile, from_merge,
        "pile export must equal `cache merge` of the workers' cache files"
    );
    assert_eq!(merge_report.inputs, WORKERS);

    // And the CLI's own export subcommand writes exactly those bytes.
    let exported = dir.join("exported.vcapcache");
    let export = Command::new(CLI)
        .args(["pile", "export"])
        .arg(&pile)
        .arg("--out")
        .arg(&exported)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    wait_ok(export, "pile export");
    assert_eq!(std::fs::read(&exported).unwrap(), from_merge);
}

#[test]
fn identical_pile_runs_leave_the_pile_unchanged() {
    let dir = scratch();
    let pile = dir.join("repeat.vcappile");
    let _ = std::fs::remove_file(&pile);
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/batch_workload.vcap");
    let run = || {
        let child = Command::new(CLI)
            .arg("--pile")
            .arg(&pile)
            .arg(scenario)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        wait_ok(child, "--pile run");
        std::fs::read(&pile).unwrap()
    };
    let first = run();
    assert_eq!(PileStore::open(&pile).unwrap().record_count().unwrap(), 1);
    for i in 2..=5 {
        assert!(
            run() == first,
            "run {i} learned nothing new and must not grow the pile"
        );
    }
}
