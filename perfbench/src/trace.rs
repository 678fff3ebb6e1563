//! Timing of benchmark operations and, in traced runs, attribution of
//! their wall time to the product's own `viewcap-obs` spans.
//!
//! Every timed operation runs inside [`Collector::op`]. With tracing on,
//! the span rings are cleared before the operation and read back after
//! it; the spans that fell inside the operation's window are folded into
//! a per-span-name table of *wall-attributed self time*:
//!
//! * each instant of the window goes to exactly one span name, or to the
//!   unattributed remainder, so the table always sums to the traced wall
//!   time;
//! * on the driving thread (the one that runs the benchmark's own
//!   `bench.*` spans) an instant goes to the innermost open span;
//! * while any other thread has a span open — `run_batch` workers, the
//!   in-process daemon answering a request — the driving thread is only
//!   waiting, so the instant is split evenly between those threads'
//!   innermost spans.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use viewcap_obs as obs;

/// Wall-attributed self time per span name, summed over traced windows.
#[derive(Debug, Default)]
pub struct Fold {
    /// Self time per span name, in nanoseconds.
    pub self_ns: BTreeMap<String, f64>,
    /// Spans seen per name.
    pub count: BTreeMap<String, u64>,
    /// Window time no span covered.
    pub unattributed_ns: f64,
    /// Total traced window time.
    pub wall_ns: f64,
    /// Events the span rings had to overwrite (must stay 0).
    pub dropped: u64,
}

struct Event {
    name: String,
    tid: u64,
    start: u64,
    end: u64,
}

/// The value following `"key":` in one trace line, up to the next `,` or
/// `}` (quotes stripped).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    if let Some(quoted) = rest.strip_prefix('"') {
        return quoted.split('"').next();
    }
    rest.split([',', '}']).next()
}

/// `trace_event` microseconds (`123.456`) back to nanoseconds.
fn micros_to_ns(text: &str) -> Option<u64> {
    let (whole, frac) = text.split_once('.').unwrap_or((text, "0"));
    let frac: u64 = format!("{frac:0<3}")[..3].parse().ok()?;
    Some(whole.parse::<u64>().ok()? * 1000 + frac)
}

fn parse_events(json: &str) -> (Vec<Event>, u64) {
    let mut events = Vec::new();
    for line in json.lines() {
        if field(line, "ph") != Some("X") {
            continue;
        }
        let parsed = (|| {
            let start = micros_to_ns(field(line, "ts")?)?;
            Some(Event {
                name: field(line, "name")?.to_owned(),
                tid: field(line, "tid")?.parse().ok()?,
                start,
                end: start + micros_to_ns(field(line, "dur")?)?,
            })
        })();
        events.extend(parsed);
    }
    let dropped = json
        .rsplit("\"droppedEvents\":")
        .next()
        .and_then(|tail| tail.trim_end_matches('}').parse().ok())
        .unwrap_or(0);
    (events, dropped)
}

impl Fold {
    /// Attribute the window `[w0, w1]` (obs-clock nanoseconds) of one
    /// traced operation, given the trace JSON read right after it.
    pub fn add_window(&mut self, json: &str, w0: u64, w1: u64) {
        let (events, dropped) = parse_events(json);
        self.dropped += dropped;
        self.wall_ns += w1.saturating_sub(w0) as f64;
        for e in &events {
            *self.count.entry(e.name.clone()).or_default() += 1;
        }
        let main_tid = events
            .iter()
            .find(|e| e.name.starts_with("bench."))
            .map(|e| e.tid);

        // Boundaries clamped to the window; ends sort before starts at one
        // instant, outer spans open first and close last.
        let clamp = |t: u64| t.clamp(w0, w1);
        let mut bounds: Vec<(u64, bool, usize)> = Vec::with_capacity(events.len() * 2);
        for (i, e) in events.iter().enumerate() {
            bounds.push((clamp(e.start), true, i));
            bounds.push((clamp(e.end), false, i));
        }
        bounds.sort_by(|a, b| {
            a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then_with(|| {
                let (ea, eb) = (&events[a.2], &events[b.2]);
                if a.1 {
                    eb.end.cmp(&ea.end)
                } else {
                    eb.start.cmp(&ea.start)
                }
            })
        });

        let mut stacks: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut prev = w0;
        for &(t, is_start, i) in &bounds {
            self.attribute(&events, &stacks, main_tid, (t - prev) as f64);
            prev = t;
            let stack = stacks.entry(events[i].tid).or_default();
            if is_start {
                stack.push(i);
            } else if let Some(pos) = stack.iter().rposition(|&j| j == i) {
                stack.remove(pos);
            }
        }
        self.attribute(&events, &stacks, main_tid, (w1 - prev) as f64);
    }

    fn attribute(
        &mut self,
        events: &[Event],
        stacks: &HashMap<u64, Vec<usize>>,
        main_tid: Option<u64>,
        dt: f64,
    ) {
        if dt <= 0.0 {
            return;
        }
        let others: Vec<usize> = stacks
            .iter()
            .filter(|(&tid, _)| Some(tid) != main_tid)
            .filter_map(|(_, stack)| stack.last().copied())
            .collect();
        if !others.is_empty() {
            let share = dt / others.len() as f64;
            for i in others {
                *self.self_ns.entry(events[i].name.clone()).or_default() += share;
            }
            return;
        }
        match main_tid.and_then(|tid| stacks.get(&tid)?.last().copied()) {
            Some(i) => *self.self_ns.entry(events[i].name.clone()).or_default() += dt,
            None => self.unattributed_ns += dt,
        }
    }

    /// Self time of `name` in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0.0) / 1e6
    }

    /// The folded per-layer table: self time per span name, its share of
    /// the traced wall time, and the unattributed remainder.
    pub fn table(&self, ops: u64) -> String {
        use std::fmt::Write as _;
        let wall = self.wall_ns.max(1.0);
        let mut rows: Vec<(&String, &f64)> = self.self_ns.iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(a.1));
        let mut out = format!(
            "{:<28} {:>12} {:>8} {:>10}\n",
            "span (self, wall-attributed)", "ms", "share%", "count"
        );
        let mut covered = 0.0;
        for (name, ns) in rows {
            covered += ns;
            let _ = writeln!(
                out,
                "{:<28} {:>12.3} {:>8.2} {:>10}",
                name,
                ns / 1e6,
                100.0 * ns / wall,
                self.count.get(name).copied().unwrap_or(0)
            );
        }
        covered += self.unattributed_ns;
        let _ = writeln!(
            out,
            "{:<28} {:>12.3} {:>8.2}\n{:<28} {:>12.3} {:>8.2} {:>10}",
            "(unattributed)",
            self.unattributed_ns / 1e6,
            100.0 * self.unattributed_ns / wall,
            "(traced wall)",
            self.wall_ns / 1e6,
            100.0 * covered / wall,
            format!("{ops} op(s)")
        );
        out
    }
}

/// Times the benchmark's operations; in traced runs also folds their spans
/// and telemetry counters.
pub struct Collector {
    tracing: bool,
    /// Attributed span time over every traced operation.
    pub fold: Fold,
    /// Telemetry counters summed over every traced operation.
    pub counters: BTreeMap<String, u64>,
    /// Operations timed.
    pub ops: u64,
    /// The slowest traced operation's raw Chrome `trace_event` JSON.
    pub slowest_trace: Option<String>,
    slowest_ns: u64,
}

impl Collector {
    /// A collector; `tracing` switches the product's telemetry on.
    pub fn new(tracing: bool) -> Collector {
        obs::set_enabled(tracing);
        obs::reset();
        Collector {
            tracing,
            fold: Fold::default(),
            counters: BTreeMap::new(),
            ops: 0,
            slowest_trace: None,
            slowest_ns: 0,
        }
    }

    /// Run and time one operation, returning its result and wall time in
    /// milliseconds.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        if self.tracing {
            obs::reset();
        }
        let w0 = obs::now_ns();
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let w1 = obs::now_ns();
        self.ops += 1;
        if self.tracing {
            let json = obs::trace_json();
            for (name, n) in obs::snapshot().counters {
                *self.counters.entry(name).or_default() += n;
            }
            self.fold.add_window(&json, w0, w1);
            if w1 - w0 >= self.slowest_ns {
                self.slowest_ns = w1 - w0;
                self.slowest_trace = Some(json);
            }
            obs::reset();
        }
        (out, ms)
    }

    /// A telemetry counter summed over the traced operations.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        obs::set_enabled(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, ts_us: f64, dur_us: f64) -> String {
        format!(
            "{{\"name\":\"{name}\",\"cat\":\"t\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us:.3},\"dur\":{dur_us:.3}}}"
        )
    }

    fn trace(lines: &[String]) -> String {
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"droppedEvents\":0}}}}",
            lines.join(",\n")
        )
    }

    #[test]
    fn self_times_and_remainder_sum_to_the_window() {
        // Main thread: bench.op [10,90] with child engine.batch [20,60];
        // worker thread: engine.check [30,50].
        let json = trace(&[
            span("engine.batch", 1, 20.0, 40.0),
            span("bench.op", 1, 10.0, 80.0),
            span("engine.check", 2, 30.0, 20.0),
        ]);
        let mut fold = Fold::default();
        fold.add_window(&json, 0, 100_000);
        assert_eq!(fold.wall_ns, 100_000.0);
        assert_eq!(fold.self_ms("engine.check"), 0.020);
        assert_eq!(fold.self_ms("engine.batch"), 0.020);
        assert_eq!(fold.self_ms("bench.op"), 0.040);
        assert_eq!(fold.unattributed_ns, 20_000.0);
        let covered: f64 = fold.self_ns.values().sum::<f64>() + fold.unattributed_ns;
        assert_eq!(covered, fold.wall_ns);
    }

    #[test]
    fn concurrent_worker_spans_split_the_wait() {
        let json = trace(&[
            span("bench.op", 1, 0.0, 100.0),
            span("a", 2, 0.0, 100.0),
            span("b", 3, 0.0, 100.0),
        ]);
        let mut fold = Fold::default();
        fold.add_window(&json, 0, 100_000);
        assert_eq!(fold.self_ms("a"), 0.050);
        assert_eq!(fold.self_ms("b"), 0.050);
        assert_eq!(fold.self_ms("bench.op"), 0.0);
    }
}
