//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <frontier_diff|deep_capacity|serve_pile> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs come from the workload seed; the program is driven only through
//! its public functions. Every output is checked (see each workload
//! module), and the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, measured untraced and reported at the
//! pace of a fixed reference task timed alongside (see `README.md`); with
//! `--trace 1` the run measures half its time untraced and half traced,
//! and reports the per-layer metrics. Per-run files go to `.bench_out/`.

mod daemon;
mod deep;
mod fleet;
mod replay;
mod stats;
mod trace;

use stats::{fastest, median, Laps, REFERENCE_MS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Collector;

/// Where runs write their trace, layer table and full result.
pub const OUT_DIR: &str = ".bench_out";

/// A derived seed: the `i`-th input of the workload seeded `seed`
/// (SplitMix64 finalizer, so neighbouring seeds share nothing).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One measuring phase of a run.
pub struct Phase {
    /// Workload seed.
    pub seed: u64,
    /// Whether the product's telemetry is on.
    pub traced: bool,
    seconds: f64,
}

impl Phase {
    /// When a timed loop starting now stops starting new operations.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload measured and checked in one phase.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations (timed operations plus set-up checks).
    pub attempted: u64,
    /// Operations that failed: errors, overflows, output mismatches.
    pub failed: u64,
    /// The first failures, verbatim.
    pub failures: Vec<String>,
    /// Wall time of every timed operation that passed its checks.
    pub op_ms: Vec<f64>,
    /// The run's timings, paced lap by lap by the reference task.
    pub laps: Laps,
    /// Per input the run timed, its median paced time: the figure the
    /// latency metrics are taken from (see `README.md`).
    pub input_ms: Vec<f64>,
    /// The same inputs' median times as measured, before pacing.
    pub input_raw_ms: Vec<f64>,
    /// The workload's throughput (operations or commands per second),
    /// from the per-input paced times.
    pub ops_per_s: f64,
    /// The same throughput from the times as measured.
    pub raw_ops_per_s: f64,
    /// Set-up time samples, each with the time of the reference task run
    /// just before it, in ms.
    pub setup_s: Vec<(f64, f64)>,
    /// Workload-named figures: name, value, unit, samples.
    pub notes: Vec<(String, f64, &'static str, usize)>,
    /// Per-layer figures the workload measured itself (replays, transcript
    /// and pile accounting).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a failed operation (already counted as attempted).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(what);
        }
    }

    /// Count one checked operation, failing it unless `ok`.
    pub fn check(&mut self, ok: bool, what: String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// A workload-named figure for the human-readable report.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.notes.push((name.to_owned(), value, unit, samples));
    }

    /// Run `f` as one set-up sample, paced by a reference task run just
    /// before it.
    pub fn set_up<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let reference_ms = self.laps.pace();
        let t0 = Instant::now();
        let result = f();
        self.setup_s
            .push((t0.elapsed().as_secs_f64(), reference_ms));
        result
    }

    /// End the last lap and set the per-input figures; `work(i)` is what
    /// input `i` does per operation (1, or its commands), and throughput
    /// is work over time, summed over the inputs timed.
    pub fn finish(&mut self, work: impl Fn(usize) -> f64) {
        let (mut done, mut ms, mut raw_ms) = (0.0, 0.0, 0.0);
        for (i, figure) in self.laps.per_input().into_iter().enumerate() {
            if let Some((raw, paced)) = figure {
                done += work(i);
                ms += paced;
                raw_ms += raw;
                self.input_ms.push(paced);
                self.input_raw_ms.push(raw);
            }
        }
        self.ops_per_s = stats::rate(done, ms);
        self.raw_ops_per_s = stats::rate(done, raw_ms);
    }

    /// Median set-up time, each sample put at the reference pace by the
    /// reference task timed just before it.
    pub fn paced_setup_s(&self) -> f64 {
        let paced: Vec<f64> = self
            .setup_s
            .iter()
            .map(|&(s, r)| s * REFERENCE_MS / r)
            .collect();
        median(&paced)
    }

    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

const WORKLOADS: [&str; 3] = ["frontier_diff", "deep_capacity", "serve_pile"];

/// End-to-end metrics, reported by every workload from untraced runs.
/// An *operation* is a scenario replay (`frontier_diff`), an
/// engine call (`deep_capacity`) or a daemon request (`serve_pile`).
const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics from the traced half of a `--trace 1` run, per
/// operation unless the unit says otherwise. `_ms` figures are
/// wall-attributed self times (see `trace.rs`) or, where noted in
/// `perfbench/README.md`, replays of the layer's public function.
const PER_LAYER: [(&str, &str); 33] = [
    ("scenario.self_ms", "ms"),
    ("scenario.transcript_bytes", "B"),
    ("scenario.verdicts_reported", "count"),
    ("serve.self_ms", "ms"),
    ("engine.decide_ms", "ms"),
    ("engine.fingerprint_ms", "ms"),
    ("engine.fingerprint_calls", "count"),
    ("engine.batch_ms", "ms"),
    ("engine.batches", "count"),
    ("engine.check_ms", "ms"),
    ("engine.checks_computed", "count"),
    ("engine.cache.resolve_ms", "ms"),
    ("engine.cache.hit_rate", "ratio"),
    ("engine.ctx.contexts", "count"),
    ("engine.ctx.reused", "count"),
    ("engine.normalize_ms", "ms"),
    ("delta.invalidated", "count"),
    ("delta.reused", "count"),
    ("delta.recomputed", "count"),
    ("core.frontier_ms", "ms"),
    ("core.frontier.pairs_compared", "count"),
    ("core.closure.probe_ms", "ms"),
    ("core.closure.probes", "count"),
    ("template.level_build_ms", "ms"),
    ("template.levels_built", "count"),
    ("template.combos", "count"),
    ("pile.bytes", "B"),
    ("pile.bytes_per_req", "B"),
    ("pile.records", "count"),
    ("pile.load_ms", "ms"),
    ("persist.save_ms", "ms"),
    ("obs.unattributed_ms", "ms"),
    ("obs.overhead_pct", "%"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, deep::DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run_phase(workload: &str, seed: u64, seconds: f64, traced: bool) -> (Outcome, Collector) {
    let mut col = Collector::new(traced);
    let phase = Phase {
        seed,
        traced,
        seconds,
    };
    let out = match workload {
        "frontier_diff" => replay::run(&phase, &mut col),
        "deep_capacity" => deep::run(&phase, &mut col),
        _ => daemon::run(&phase, &mut col),
    };
    (out, col)
}

/// Per-layer values from the traced phase.
fn per_layer(out: &Outcome, col: &Collector, overhead_pct: f64) -> Vec<(&'static str, f64)> {
    let ops = col.ops.max(1) as f64;
    let span_ms = |names: &[&str]| names.iter().map(|n| col.fold.self_ms(n)).sum::<f64>() / ops;
    let count = |names: &[&str]| names.iter().map(|n| col.counter(n)).sum::<u64>() as f64 / ops;
    let (hits, misses) = (
        col.counter("engine.cache.hit"),
        col.counter("engine.cache.miss"),
    );
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let measured = match name {
                "scenario.self_ms" => span_ms(&["bench.scenario"]),
                "serve.self_ms" => span_ms(&["bench.serve.request"]),
                "engine.decide_ms" => span_ms(&[
                    "bench.engine.decide",
                    "bench.engine.simplify",
                    "bench.engine.nonredundant",
                ]),
                "engine.batch_ms" => span_ms(&["engine.batch"]),
                "engine.batches" => count(&["span.engine.batch"]),
                "engine.check_ms" => span_ms(&["engine.check"]),
                "engine.checks_computed" => count(&["span.engine.check"]),
                "engine.cache.resolve_ms" => span_ms(&["engine.cache.resolve"]),
                "engine.cache.hit_rate" => hits as f64 / (hits + misses).max(1) as f64,
                "engine.ctx.contexts" => count(&["engine.ctx.build", "engine.norm_ctx.build"]),
                "engine.ctx.reused" => count(&["engine.ctx.reuse", "engine.norm_ctx.reuse"]),
                "engine.normalize_ms" => span_ms(&["engine.normalize", "core.norm.level_build"]),
                "core.closure.probe_ms" => span_ms(&["core.closure.probe"]),
                "core.closure.probes" => count(&["span.core.closure.probe"]),
                "template.level_build_ms" => span_ms(&["template.level_build"]),
                "template.levels_built" => count(&["span.template.level_build"]),
                "template.combos" => count(&["template.search.combos"]),
                "persist.save_ms" => span_ms(&["engine.cache.save"]),
                "obs.unattributed_ms" => col.fold.unattributed_ns / 1e6 / ops,
                "obs.overhead_pct" => overhead_pct,
                _ => 0.0,
            };
            (name, out.layer.get(name).copied().unwrap_or(measured))
        })
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }

    let mut report = String::new();
    let (out, metrics, repeats) = if args.trace {
        let half = args.seconds / 2.0;
        let (mut untraced, _) = run_phase(args.workload, args.seed, half, false);
        let (traced, col) = run_phase(args.workload, args.seed, half, true);
        let overhead_pct = if traced.ops_per_s > 0.0 {
            (untraced.ops_per_s / traced.ops_per_s - 1.0) * 100.0
        } else {
            0.0
        };
        let values = per_layer(&traced, &col, overhead_pct);
        let repeats = untraced.op_ms.len() + traced.op_ms.len();
        let stem = format!("{OUT_DIR}/{}-seed{}", args.workload, args.seed);
        let table = col.fold.table(col.ops);
        let _ = writeln!(
            report,
            "per-layer table, traced half ({} op(s), {} dropped event(s)):\n{table}",
            col.ops, col.fold.dropped
        );
        if col.fold.dropped > 0 {
            untraced.fail(format!(
                "{} trace event(s) dropped; the layer table is incomplete",
                col.fold.dropped
            ));
        }
        if let Some(slowest) = &col.slowest_trace {
            let _ = std::fs::write(format!("{stem}.trace.json"), slowest);
        }
        let _ = std::fs::write(format!("{stem}.layers.txt"), &table);
        if args.workload == "serve_pile" {
            let _ = writeln!(
                report,
                "scenario.self_ms on serve_pile is a replay of the sessions through \
                 run_scenario_with_engine (the daemon's thread cannot be wrapped)"
            );
        }
        let metrics: Vec<(&str, f64, &str)> = values
            .into_iter()
            .zip(PER_LAYER)
            .map(|((name, v), (_, unit))| (name, v, unit))
            .collect();
        untraced.absorb(traced);
        (untraced, metrics, repeats)
    } else {
        let (out, _) = run_phase(args.workload, args.seed, args.seconds, false);
        let inputs = &out.input_ms;
        let values = [
            out.ops_per_s,
            stats::quantile(inputs, 0.5),
            stats::quantile(inputs, 0.95),
            out.paced_setup_s(),
            stats::peak_rss_mb(),
        ];
        let metrics: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
        let _ = writeln!(
            report,
            "latency inputs: {} (median of {:.1} timings each on average); \
             {} beyond p95; p90 {:.4} ms with {} beyond; set-up samples: {}",
            inputs.len(),
            out.op_ms.len() as f64 / inputs.len().max(1) as f64,
            stats::beyond(inputs, 0.95),
            stats::quantile(inputs, 0.9),
            stats::beyond(inputs, 0.9),
            out.setup_s.len()
        );
        let setup: Vec<f64> = out.setup_s.iter().map(|&(s, _)| s).collect();
        let _ = writeln!(
            report,
            "as measured, before pacing: ops_per_s {:.4}, op_ms_p50 {:.4}, op_ms_p95 {:.4}, \
             setup_s {:.6}; reference task fastest {:.4} ms, median {:.4} ms over {} \
             timings (paced to {REFERENCE_MS} ms)",
            out.raw_ops_per_s,
            stats::quantile(&out.input_raw_ms, 0.5),
            stats::quantile(&out.input_raw_ms, 0.95),
            median(&setup),
            fastest(&out.laps.reference_ms),
            median(&out.laps.reference_ms),
            out.laps.reference_ms.len()
        );
        let _ = writeln!(
            report,
            "every timing ({} samples, machine noise included, not paced): \
             p50 {:.4} ms, p90 {:.4} ms",
            out.op_ms.len(),
            stats::quantile(&out.op_ms, 0.5),
            stats::quantile(&out.op_ms, 0.9)
        );
        let repeats = out.op_ms.len();
        (out, metrics, repeats)
    };

    let correct = out.failed == 0 && out.attempted > 0;
    let meta = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"nproc\": {}, \
         \"rustc\": {}, \"profile\": {}, \"repeats\": {}, \"set_ups\": {}, \
         \"reference_ms_median\": {}}}",
        json_string(args.workload),
        args.seed,
        json_number(args.seconds),
        args.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_string(env!("PERFBENCH_RUSTC_VERSION")),
        json_string(env!("PERFBENCH_PROFILE")),
        repeats,
        out.setup_s.len(),
        json_number(median(&out.laps.reference_ms))
    );
    println!(
        "perfbench {} seed {} trace {}",
        args.workload, args.seed, args.trace as u8
    );
    println!("meta: {meta}");
    for (name, value, unit) in &metrics {
        println!("  {name:<30} {value:>14.4} {unit}");
    }
    for (name, value, unit, samples) in &out.notes {
        println!("  {name:<30} {value:>14.4} {unit} (samples: {samples}, as measured)");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<30} {:>14.4} ratio ({} failed of {} attempted)",
        "error_rate", error_rate, out.failed, out.attempted
    );
    print!("{report}");
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let metrics = metrics_json(&metrics);
    let _ = std::fs::write(
        format!(
            "{OUT_DIR}/{}-seed{}-trace{}.json",
            args.workload, args.seed, args.trace as u8
        ),
        format!(
            "{{\"meta\": {meta}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {metrics}}}\n",
            out.attempted, out.failed
        ),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
