//! Differential test: `viewcap serve` + `viewcap client` against the batch
//! CLI. Six pinned scenarios, at `--jobs 1` and `--jobs 4`, must produce
//! transcripts **byte-identical** to running the same scenario directly —
//! the daemon is a residency optimization, never a semantic fork.
//!
//! Also pinned here: warm mode preserves every verdict (only cache
//! provenance may differ), the daemon's stats count requests, shutdown is
//! clean — a recovery pass over the daemon's pile drops zero bytes — and
//! the pile grows only with what warm requests learn.
#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};
use viewcap::scenario::{run_scenario_with_engine, ScenarioOptions};
use viewcap::serve::{client_request, ClientRequest, MAX_HEADER_BYTES};
use viewcap_engine::{merge_cache_bytes, save_cache, Engine, EngineConfig, PileStore};
use viewcap_gen::{txn_stream, FleetSpec};

const CLI: &str = env!("CARGO_BIN_EXE_viewcap-cli");

const SCENARIOS: [&str; 6] = [
    "example_3_1_5",
    "batch_workload",
    "incremental_edit",
    "security_audit",
    "normal_form",
    "cross_catalog_base",
];

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("viewcap-serve-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn scenario_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("scenarios/{name}.vcap"))
}

/// Kills the daemon if the test panics before the clean shutdown.
struct DaemonGuard(Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn start_daemon(socket: &Path, pile: &Path) -> DaemonGuard {
    let child = Command::new(CLI)
        .args(["serve", "--socket"])
        .arg(socket)
        .arg("--pile")
        .arg(pile)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    // The socket file appears at `bind`, before `listen`: wait for an
    // answered ping, not for the file.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !client_request(socket, &ClientRequest::Ping).is_ok_and(|r| r.ok) {
        assert!(Instant::now() < deadline, "daemon never answered a ping");
        std::thread::sleep(Duration::from_millis(20));
    }
    DaemonGuard(child)
}

fn run_cli(args: &[&str], extra: &[&Path]) -> Output {
    let mut cmd = Command::new(CLI);
    cmd.args(args);
    for path in extra {
        cmd.arg(path);
    }
    cmd.output().expect("run viewcap-cli")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn client_transcripts_are_byte_identical_to_the_batch_cli() {
    let dir = scratch();
    let socket = dir.join("diff.sock");
    let pile = dir.join("diff.vcappile");
    let _ = std::fs::remove_file(&pile);
    let daemon = start_daemon(&socket, &pile);
    let sock = socket.to_str().unwrap();

    let mut served = 0u64;
    for jobs in ["1", "4"] {
        for name in SCENARIOS {
            let scenario = scenario_path(name);
            let direct = run_cli(&["--jobs", jobs], &[&scenario]);
            assert_ok(&direct, &format!("batch {name} --jobs {jobs}"));
            let via_daemon = run_cli(&["client", "--socket", sock, "--jobs", jobs], &[&scenario]);
            assert_ok(&via_daemon, &format!("client {name} --jobs {jobs}"));
            served += 1;
            assert_eq!(
                via_daemon.stdout,
                direct.stdout,
                "{name} --jobs {jobs}: daemon transcript diverged from the batch CLI:\n\
                 --- daemon ---\n{}\n--- direct ---\n{}",
                String::from_utf8_lossy(&via_daemon.stdout),
                String::from_utf8_lossy(&direct.stdout)
            );
        }
    }

    // Warm mode shares a cache across requests: the transcript's cache
    // provenance may change, the verdicts may not. Every `check` line and
    // the yes/no summary must survive warmth untouched.
    let scenario = scenario_path("example_3_1_5");
    let cold = run_cli(&["--jobs", "1"], &[&scenario]);
    for _ in 0..2 {
        let warm = run_cli(
            &["client", "--socket", sock, "--warm", "fleet"],
            &[&scenario],
        );
        assert_ok(&warm, "warm client run");
        served += 1;
        let lines = |out: &Output| -> Vec<String> {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .filter(|l| l.starts_with("check ") || l.starts_with("--"))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(lines(&warm), lines(&cold), "warm mode changed a verdict");
    }

    // The daemon's own accounting: a ping, then stats naming every request.
    let ping = run_cli(&["client", "--socket", sock, "--ping"], &[]);
    assert_ok(&ping, "ping");
    assert_eq!(ping.stdout, b"pong\n");
    let stats = run_cli(&["client", "--socket", sock, "--stats"], &[]);
    assert_ok(&stats, "stats");
    let stats_text = String::from_utf8_lossy(&stats.stdout).to_string();
    assert!(
        stats_text.contains(&format!("served: {served}")),
        "stats must count {served} runs:\n{stats_text}"
    );
    assert!(stats_text.contains("warm[fleet]:"), "stats:\n{stats_text}");
    assert!(stats_text.contains("pile records:"), "stats:\n{stats_text}");

    // Clean shutdown: daemon exits 0, removes its socket, and leaves a
    // pile a recovery pass finds fully intact.
    let bye = run_cli(&["client", "--socket", sock, "--shutdown"], &[]);
    assert_ok(&bye, "shutdown");
    let mut daemon = daemon;
    let status = daemon.0.wait().expect("daemon exit status");
    assert!(status.success(), "daemon exited {status}");
    assert!(!socket.exists(), "socket file must be removed on shutdown");

    let recover = run_cli(&["pile", "recover"], &[&pile]);
    assert_ok(&recover, "pile recover");
    let report = String::from_utf8_lossy(&recover.stdout).to_string();
    assert!(
        report.contains("0 byte(s) dropped"),
        "clean shutdown must leave an undamaged pile: {report}"
    );
}

#[test]
fn daemon_rejects_malformed_requests_without_dying() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let dir = scratch();
    let socket = dir.join("robust.sock");
    let _daemon = start_daemon(&socket, &dir.join("robust.vcappile"));

    // The last request never ends its header: it is refused once the
    // header limit is reached, while the client still holds the
    // connection open.
    for request in [
        "NONSENSE\n",
        "RUN not-a-number cold 5\n",
        "RUN 1 tepid 5\n",
        "RUN 1 warm: 5\n",
        &"R".repeat(MAX_HEADER_BYTES + 1),
    ] {
        let mut stream = UnixStream::connect(&socket).unwrap();
        // A daemon waiting on the header fails the test instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("ERR "),
            "{request:?} must be refused, got {response:?}"
        );
    }

    // A body length no allocation could hold, and a body shorter than its
    // header says: both refused once the client stops writing, neither
    // fatal to the daemon.
    for request in [
        "RUN 1 cold 18446744073709551615\n",
        "RUN 1 cold 100\nrel R(A)\n",
    ] {
        let mut stream = UnixStream::connect(&socket).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("ERR "),
            "{request:?} must be refused, got {response:?}"
        );
    }

    // A scenario error comes back as ERR too, and the daemon survives it.
    let bad = "rel R(A, B)\ncheck member NoSuchView R\n";
    let mut stream = UnixStream::connect(&socket).unwrap();
    stream
        .write_all(format!("RUN 1 cold {}\n{bad}", bad.len()).as_bytes())
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("ERR "), "got {response:?}");

    let ping = run_cli(
        &["client", "--socket", socket.to_str().unwrap(), "--ping"],
        &[],
    );
    assert_ok(&ping, "ping after malformed requests");
    assert_eq!(ping.stdout, b"pong\n");
}

/// Short fleet sessions of the shape a warm fleet sends: one shared
/// prologue, a batch of member checks, two transactions with rechecks.
fn fleet_sessions(n: u64) -> Vec<String> {
    let spec = FleetSpec {
        views: 24,
        base_rels: 4,
        events: 2,
        batch_size: 4,
        ..FleetSpec::default()
    };
    (0..n).map(|seed| txn_stream(seed, &spec).source).collect()
}

fn warm_run(socket: &Path, source: &str) -> String {
    let response = client_request(
        socket,
        &ClientRequest::Run {
            source: source.to_owned(),
            jobs: 1,
            warm_key: Some("fleet".to_owned()),
        },
    )
    .expect("warm request");
    assert!(response.ok, "warm request refused: {}", response.body);
    response.body
}

fn shut_down(socket: &Path, mut daemon: DaemonGuard) {
    let bye = client_request(socket, &ClientRequest::Shutdown).expect("shutdown");
    assert!(bye.ok);
    assert!(daemon.0.wait().expect("daemon exit").success());
}

#[test]
fn identical_warm_requests_leave_the_pile_unchanged() {
    let dir = scratch();
    let socket = dir.join("repeat.sock");
    let pile = dir.join("repeat.vcappile");
    let _ = std::fs::remove_file(&pile);
    let daemon = start_daemon(&socket, &pile);
    let source = &fleet_sessions(1)[0];
    let first_body = warm_run(&socket, source);
    let first = std::fs::read(&pile).unwrap();
    assert!(!first.is_empty(), "the first request learns verdicts");
    for i in 2..=5 {
        warm_run(&socket, source);
        assert!(
            std::fs::read(&pile).unwrap() == first,
            "identical warm request {i} learned nothing and must not grow the pile"
        );
    }
    shut_down(&socket, daemon);
    assert!(first_body.contains("check member"));
}

#[test]
fn warm_pile_across_a_restart_merges_to_the_final_warm_cache() {
    let dir = scratch();
    let socket = dir.join("restart.sock");
    let pile = dir.join("restart.vcappile");
    let _ = std::fs::remove_file(&pile);
    let sessions = fleet_sessions(6);
    let (before, after) = sessions.split_at(3);
    for half in [before, after] {
        let daemon = start_daemon(&socket, &pile);
        for source in half {
            warm_run(&socket, source);
        }
        shut_down(&socket, daemon);
    }

    // The same requests against one warm cache that never restarted. The
    // sessions share their `rel` prologue, so every witness — which names
    // only base relations, attributes and positional λs — resolves through
    // the last session's catalog.
    let engine = Engine::new();
    let mut catalog = None;
    for source in &sessions {
        let warm =
            Engine::from_config(EngineConfig::new().shared_cache(engine.shared_cache())).unwrap();
        let outcome =
            run_scenario_with_engine(source, &ScenarioOptions { jobs: 1 }, &warm).unwrap();
        catalog = Some(outcome.catalog);
    }
    let final_cache = save_cache(engine.cache(), &catalog.unwrap());
    let (expected, _) = merge_cache_bytes(&[final_cache]).unwrap();
    let (from_pile, report) = PileStore::open(&pile).unwrap().merged_bytes().unwrap();
    assert!(report.entries_out > 0, "the sessions learn verdicts");
    assert_eq!(
        report.replaced, 0,
        "every verdict is appended once: {report}"
    );
    assert!(
        from_pile == expected,
        "pile export differs from the final warm cache ({report})"
    );
}
