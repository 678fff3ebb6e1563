//! `frontier_diff`: generated `frontier_diff_stream` scenarios replayed
//! through `run_scenario_with_engine` at `--jobs 1`, each replay on a
//! fresh engine.
//!
//! A run replays several streams round-robin (seeds derived from the
//! workload seed), so one unlucky stream cannot set a run's figures. Each
//! stream's set-up generates its text and replays it once at `--jobs 1`
//! and once at `--jobs 2`: the `--jobs 1` reference transcript is judged
//! by the oracle, the `--jobs 2` one must equal it byte for byte, and every
//! timed replay must reproduce it too. Each round replays every stream
//! once, with a lap of the reference task every four replays; a stream's
//! figure is its median paced replay time ([`crate::stats::Laps`]).

use crate::fleet::{self, Census, Stream};
use crate::trace::Collector;
use crate::{mix, Outcome, Phase};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;
use viewcap::scenario::{run_scenario_with_engine, ScenarioOptions};
use viewcap_engine::Engine;
use viewcap_gen::{frontier_diff_stream, FleetSpec};
use viewcap_obs as obs;

static SCENARIO_SPAN: obs::SpanDef =
    obs::SpanDef::new("bench.scenario", "bench", "span.bench.scenario");

/// Streams replayed per run: few enough that a round over all of them
/// takes about a second, so each stream is timed in a couple of dozen
/// rounds spread over the whole run.
const STREAMS: u64 = 16;

struct Prepared {
    source: String,
    stream: Stream,
    /// Length and hash of the `--jobs 1` reference transcript, which every
    /// timed replay must reproduce.
    reference: (usize, u64),
    census: Census,
}

fn digest(transcript: &str) -> (usize, u64) {
    let mut hasher = DefaultHasher::new();
    transcript.hash(&mut hasher);
    (transcript.len(), hasher.finish())
}

fn one_replay(source: &str, jobs: usize) -> Result<String, String> {
    let _span = SCENARIO_SPAN.start();
    let engine = Engine::new();
    run_scenario_with_engine(source, &ScenarioOptions { jobs }, &engine)
        .map(|outcome| outcome.report)
        .map_err(|e| e.to_string())
}

pub fn run(phase: &Phase, col: &mut Collector) -> Outcome {
    let mut out = Outcome::default();
    let spec = FleetSpec::default();
    let mut streams = Vec::new();
    for i in 0..STREAMS {
        let seed = mix(phase.seed, i);
        out.attempted += 1;
        let (scenario, reference, parallel) = out.set_up(|| {
            let scenario = frontier_diff_stream(seed, &spec);
            let reference = one_replay(&scenario.source, 1);
            let parallel = one_replay(&scenario.source, 2);
            (scenario, reference, parallel)
        });
        let reference = match (reference, parallel) {
            (Ok(r), Ok(p)) if r == p => r,
            (Ok(_), Ok(_)) => {
                out.fail(format!(
                    "stream {i}: the --jobs 2 transcript differs from --jobs 1"
                ));
                continue;
            }
            (Err(e), _) | (_, Err(e)) => {
                out.fail(format!("stream {i}: reference replay failed: {e}"));
                continue;
            }
        };
        let stream = match Stream::parse(&scenario.source) {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("stream {i}: unreadable input: {e}"));
                continue;
            }
        };
        let census = fleet::check_transcript(&stream, &reference);
        if census.mismatch_count > 0 {
            out.fail(format!(
                "stream {i}: {} oracle mismatch(es), e.g. {:?}",
                census.mismatch_count, census.mismatches
            ));
            continue;
        }
        streams.push(Prepared {
            source: scenario.source,
            stream,
            reference: digest(&reference),
            census,
        });
    }
    if streams.is_empty() {
        return out;
    }

    let deadline = phase.deadline();
    let mut next = 0;
    while Instant::now() < deadline {
        let index = next % streams.len();
        if next % 4 == 0 {
            out.laps.lap();
        }
        next += 1;
        let s = &streams[index];
        let (transcript, ms) = col.op(|| one_replay(&s.source, 1));
        out.attempted += 1;
        match transcript {
            Ok(t) if digest(&t) == s.reference => {
                out.laps.record(index, ms);
                out.op_ms.push(ms);
            }
            Ok(_) => out.fail("replay differs from the reference transcript".to_owned()),
            Err(e) => out.fail(format!("replay failed: {e}")),
        }
    }

    // Commands over replay time, summed over the streams.
    out.finish(|i| streams[i].stream.command_count() as f64);
    let timed = out.input_ms.len();
    out.note("cmds_per_s", out.raw_ops_per_s, "1/s", timed);
    let cmds: usize = streams.iter().map(|s| s.stream.command_count()).sum();
    out.note(
        "commands_per_replay",
        cmds as f64 / streams.len() as f64,
        "count",
        streams.len(),
    );

    let n = streams.len() as f64;
    let per_stream =
        |f: &dyn Fn(&Prepared) -> usize| streams.iter().map(|s| f(s) as f64).sum::<f64>() / n;
    let figures = [
        ("scenario.transcript_bytes", per_stream(&|s| s.reference.0)),
        (
            "scenario.verdicts_reported",
            per_stream(&|s| s.census.verdicts as usize),
        ),
        (
            "delta.invalidated",
            per_stream(&|s| s.census.invalidated as usize),
        ),
        ("delta.reused", per_stream(&|s| s.census.reused as usize)),
        (
            "delta.recomputed",
            per_stream(&|s| s.census.recomputed as usize),
        ),
    ];
    out.layer.extend(figures);
    if phase.traced {
        let (mut fp_ms, mut fp_calls, mut fr_ms, mut fr_pairs) = (0.0, 0.0, 0.0, 0.0);
        for s in &streams {
            match fleet::fingerprint_replay(&s.stream) {
                Ok((ms, calls)) => {
                    fp_ms += ms;
                    fp_calls += calls as f64;
                }
                Err(e) => out.check(false, format!("fingerprint replay failed: {e}")),
            }
            match fleet::frontier_replay(&s.stream) {
                Ok((ms, pairs, counts)) => {
                    fr_ms += ms;
                    fr_pairs += pairs as f64;
                    let expected: Vec<_> = fleet::frontier_oracle(&s.stream);
                    out.check(
                        counts.into_iter().map(Some).eq(expected),
                        "frontier replay disagrees with the oracle".to_owned(),
                    );
                }
                Err(e) => out.check(false, format!("frontier replay failed: {e}")),
            }
        }
        out.layer.insert("engine.fingerprint_ms", fp_ms / n);
        out.layer.insert("engine.fingerprint_calls", fp_calls / n);
        out.layer.insert("core.frontier_ms", fr_ms / n);
        out.layer
            .insert("core.frontier.pairs_compared", fr_pairs / n);
    }
    out
}
