//! `serve_pile`: an in-process `serve` daemon with a crash-safe pile,
//! driven by one client connection at a time (a closed loop).
//!
//! A run is a sequence of identical cycles, so every figure is a function
//! of the seed and not of how fast the machine gets through the run: each
//! cycle starts a daemon on a fresh pile, sends [`HALF`] `warm:fleet`
//! requests, restarts the daemon on the grown pile, and sends [`HALF`]
//! more. The restart — pile recovery, daemon start, and the first
//! warm-cache load from the pile — is the set-up the run reports. A lap
//! of the reference task runs every 25 requests ([`crate::stats::Laps`]);
//! a session's figure is its median paced request time.
//!
//! Each request is a short seeded fleet session (`txn_stream` with two
//! events): the 200-view prologue, a batch of zipf-popular member checks,
//! and two three-edit transactions each followed by `recheck`.

use crate::fleet::{self, Stream};
use crate::stats::{median, quantile};
use crate::trace::Collector;
use crate::{mix, Outcome, Phase};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use viewcap::scenario::{run_scenario_with_engine, ScenarioOptions};
use viewcap::serve::{client_request, serve, ClientRequest, ServeConfig, ServeError};
use viewcap_engine::{Engine, EngineConfig, PileStore};
use viewcap_gen::{txn_stream, FleetSpec};
use viewcap_obs as obs;

static REQUEST_SPAN: obs::SpanDef =
    obs::SpanDef::new("bench.serve.request", "bench", "span.bench.serve.request");
static SCENARIO_SPAN: obs::SpanDef =
    obs::SpanDef::new("bench.scenario", "bench", "span.bench.scenario");

/// Requests on each side of a cycle's restart.
const HALF: usize = 50;
/// The catalog key every session shares.
const KEY: &str = "fleet";
/// How long a starting daemon may take to accept connections.
const START_TIMEOUT: Duration = Duration::from_secs(60);

struct Session {
    source: String,
    stream: Stream,
}

struct Daemon {
    socket: PathBuf,
    thread: JoinHandle<Result<(), ServeError>>,
}

impl Daemon {
    /// Start a daemon on `pile` and wait until it answers; then make the
    /// first warm request (an empty session), which loads the key's warm
    /// cache and space library from the pile.
    fn start(socket: &Path, pile: &Path) -> Result<Daemon, String> {
        let config = ServeConfig {
            socket: socket.to_path_buf(),
            pile: Some(pile.to_path_buf()),
            cache_max: None,
        };
        let thread = std::thread::spawn(move || serve(&config));
        let daemon = Daemon {
            socket: socket.to_path_buf(),
            thread,
        };
        let t0 = Instant::now();
        loop {
            match client_request(socket, &ClientRequest::Ping) {
                Ok(r) if r.ok => break,
                _ if daemon.thread.is_finished() || t0.elapsed() > START_TIMEOUT => {
                    return Err(match daemon.thread.join() {
                        Ok(Err(e)) => format!("daemon failed to start: {e}"),
                        _ => "daemon failed to start".to_owned(),
                    });
                }
                _ => std::thread::sleep(Duration::from_micros(200)),
            }
        }
        daemon.run("")?;
        Ok(daemon)
    }

    fn run(&self, source: &str) -> Result<String, String> {
        let request = ClientRequest::Run {
            source: source.to_owned(),
            jobs: 1,
            warm_key: Some(KEY.to_owned()),
        };
        match client_request(&self.socket, &request) {
            Ok(r) if r.ok => Ok(r.body),
            Ok(r) => Err(format!("ERR {}", r.body.trim_end())),
            Err(e) => Err(format!("transport: {e}")),
        }
    }

    fn stop(self) -> Result<(), String> {
        let asked = client_request(&self.socket, &ClientRequest::Shutdown);
        let joined = self.thread.join();
        asked.map_err(|e| format!("shutdown: {e}"))?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".to_owned()),
        }
    }
}

fn sessions(seed: u64) -> Result<Vec<Session>, String> {
    let spec = FleetSpec {
        events: 2,
        ..FleetSpec::default()
    };
    (0..2 * HALF as u64)
        .map(|i| {
            let source = txn_stream(mix(seed, i), &spec).source;
            let stream = Stream::parse(&source)?;
            Ok(Session { source, stream })
        })
        .collect()
}

/// Per-cycle pile figures, read once the cycle's daemon has stopped.
struct PileFigures {
    bytes: f64,
    records: f64,
    load_ms: f64,
}

fn pile_figures(pile: &Path) -> Result<PileFigures, String> {
    let bytes = std::fs::metadata(pile).map_err(|e| e.to_string())?.len() as f64;
    let t0 = Instant::now();
    let mut store = PileStore::open(pile).map_err(|e| e.to_string())?;
    store.load(None).map_err(|e| e.to_string())?;
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let records = store.record_count().map_err(|e| e.to_string())? as f64;
    Ok(PileFigures {
        bytes,
        records,
        load_ms,
    })
}

pub fn run(phase: &Phase, col: &mut Collector) -> Outcome {
    let mut out = Outcome::default();
    let dir = Path::new(crate::OUT_DIR);
    let tag = format!("serve-{}-{}", std::process::id(), phase.traced as u8);
    let (socket, pile) = (
        dir.join(format!("{tag}.sock")),
        dir.join(format!("{tag}.pile")),
    );
    let sessions = match sessions(phase.seed) {
        Ok(s) => s,
        Err(e) => {
            out.check(false, format!("unreadable session: {e}"));
            return out;
        }
    };

    let deadline = phase.deadline();
    let mut figures = Vec::new();
    let mut bodies: Vec<String> = Vec::new();
    let mut cold_starts = Vec::new();
    'cycles: while figures.is_empty() || Instant::now() < deadline {
        let _ = std::fs::remove_file(&pile);
        let t0 = Instant::now();
        let mut daemon = match Daemon::start(&socket, &pile) {
            Ok(d) => d,
            Err(e) => {
                out.check(false, e);
                break;
            }
        };
        cold_starts.push(t0.elapsed().as_secs_f64());
        let mut sent = 0;
        for (i, session) in sessions.iter().enumerate() {
            if i == HALF {
                if let Err(e) = daemon.stop() {
                    out.check(false, e);
                    break 'cycles;
                }
                daemon = match out.set_up(|| Daemon::start(&socket, &pile)) {
                    Ok(d) => d,
                    Err(e) => {
                        out.check(false, e);
                        break 'cycles;
                    }
                };
            }
            // The first cycle always completes, so every run reports a
            // restart and a full cycle's pile.
            if i >= HALF && !figures.is_empty() && Instant::now() >= deadline {
                break;
            }
            if i % 25 == 0 {
                out.laps.lap();
            }
            sent = i + 1;
            out.attempted += 1;
            let (body, ms) = col.op(|| {
                let _span = REQUEST_SPAN.start();
                daemon.run(&session.source)
            });
            match body {
                Ok(body) => {
                    let census = fleet::check_transcript(&session.stream, &body);
                    if census.mismatch_count > 0 {
                        out.fail(format!(
                            "request {i}: {} oracle mismatch(es), e.g. {:?}",
                            census.mismatch_count, census.mismatches
                        ));
                    } else {
                        out.op_ms.push(ms);
                        out.laps.record(i, ms);
                        if bodies.len() < sessions.len() {
                            bodies.push(body);
                        }
                    }
                }
                Err(e) => out.fail(format!("request {i}: {e}")),
            }
        }
        if let Err(e) = daemon.stop() {
            out.check(false, e);
            break;
        }
        if sent == sessions.len() {
            match pile_figures(&pile) {
                Ok(f) => figures.push(f),
                Err(e) => {
                    out.check(false, format!("pile: {e}"));
                    break;
                }
            }
        }
        if out.failed > 0 {
            break;
        }
    }
    let _ = std::fs::remove_file(&pile);
    let _ = std::fs::remove_file(&socket);

    // Every cycle sends the same sessions in the same order, so each
    // session's figure is its median paced time over the cycles.
    out.finish(|_| 1.0);
    let n = out.input_raw_ms.len();
    out.note("reqs_per_s", out.raw_ops_per_s, "1/s", n);
    out.note("req_ms_p50", quantile(&out.input_raw_ms, 0.5), "ms", n);
    out.note("req_ms_p95", quantile(&out.input_raw_ms, 0.95), "ms", n);
    out.note(
        "cycles",
        cold_starts.len() as f64,
        "count",
        cold_starts.len(),
    );
    out.note("cold_start_s", median(&cold_starts), "s", cold_starts.len());
    if let Some(f) = figures.first() {
        out.note("pile_bytes", f.bytes, "B", figures.len());
        out.layer.insert("pile.bytes", f.bytes);
        out.layer
            .insert("pile.bytes_per_req", f.bytes / sessions.len() as f64);
        out.layer.insert("pile.records", f.records);
        let loads: Vec<f64> = figures.iter().map(|f| f.load_ms).collect();
        out.layer.insert("pile.load_ms", median(&loads));
    }

    let n = bodies.len().max(1) as f64;
    let censuses: Vec<_> = bodies
        .iter()
        .zip(&sessions)
        .map(|(b, s)| fleet::check_transcript(&s.stream, b))
        .collect();
    let sum =
        |f: &dyn Fn(&fleet::Census) -> u64| censuses.iter().map(|c| f(c) as f64).sum::<f64>() / n;
    out.layer.insert(
        "scenario.transcript_bytes",
        bodies.iter().map(|b| b.len() as f64).sum::<f64>() / n,
    );
    out.layer
        .insert("scenario.verdicts_reported", sum(&|c| c.verdicts));
    out.layer
        .insert("delta.invalidated", sum(&|c| c.invalidated));
    out.layer.insert("delta.reused", sum(&|c| c.reused));
    out.layer.insert("delta.recomputed", sum(&|c| c.recomputed));

    if phase.traced {
        let (mut fp_ms, mut fp_calls) = (0.0, 0.0);
        for s in &sessions {
            match fleet::fingerprint_replay(&s.stream) {
                Ok((ms, calls)) => {
                    fp_ms += ms;
                    fp_calls += calls as f64;
                }
                Err(e) => out.check(false, format!("fingerprint replay failed: {e}")),
            }
        }
        let m = sessions.len() as f64;
        out.layer.insert("engine.fingerprint_ms", fp_ms / m);
        out.layer.insert("engine.fingerprint_calls", fp_calls / m);
        let replay_ms = scenario_replay_ms(&sessions, &mut out);
        out.layer.insert("scenario.self_ms", replay_ms);
    }
    out
}

/// The daemon runs each session through the scenario layer on its own
/// thread, where the benchmark cannot wrap it; replay the sessions through
/// `run_scenario_with_engine` on engines sharing one warm cache (as the
/// daemon's warm key does) and return the scenario layer's self time per
/// session.
fn scenario_replay_ms(sessions: &[Session], out: &mut Outcome) -> f64 {
    let mut col = Collector::new(true);
    let warm = Engine::new().shared_cache();
    for s in sessions {
        let engine = match Engine::from_config(EngineConfig::new().shared_cache(warm.clone())) {
            Ok(e) => e,
            Err(e) => {
                out.check(false, format!("replay engine: {e}"));
                return 0.0;
            }
        };
        let (result, _) = col.op(|| {
            let _span = SCENARIO_SPAN.start();
            run_scenario_with_engine(&s.source, &ScenarioOptions { jobs: 1 }, &engine)
        });
        if let Err(e) = result {
            out.check(false, format!("scenario replay failed: {e}"));
        }
    }
    col.fold.self_ms("bench.scenario") / sessions.len() as f64
}
