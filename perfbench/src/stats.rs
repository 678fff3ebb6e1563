//! Order statistics and process figures.

/// The `q`-quantile of `samples` (nearest rank on the sorted values); 0 for
/// an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples`, averaging the middle pair of an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The smallest of `samples`; 0 for an empty slice.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Work per second: `work` units done in `ms` milliseconds; 0 when no
/// time was measured.
pub fn rate(work: f64, ms: f64) -> f64 {
    if ms > 0.0 {
        work / ms * 1e3
    } else {
        0.0
    }
}

/// The time of [`reference_task`], in ms, at the pace every end-to-end
/// timing is expressed at: about its median time in the runs made while
/// tuning the benchmark on a shared 2-vCPU Intel Xeon virtual machine.
pub const REFERENCE_MS: f64 = 7.5;

/// Run a fixed task built from the standard library alone — string
/// formatting, allocation, ordered-map inserts and a sort, the kinds of
/// work the program does — and return its wall time in ms.
///
/// Neighbours on a shared machine slow every instruction by up to half,
/// for seconds to minutes at a time, and no run is long enough to wait
/// that out. Timed between a workload's operations, this task slows with
/// them, and [`Laps`] rescales each timing by how much slower than
/// [`REFERENCE_MS`] it ran nearby (see `README.md`). It is the benchmark's
/// own code, not the program's, so no change to the program can move it.
pub fn reference_task() -> f64 {
    let t0 = std::time::Instant::now();
    let mut map = std::collections::BTreeMap::new();
    let mut x = 1u64;
    for i in 0..15_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(format!("k{}", x >> 40), i);
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    std::hint::black_box(keys);
    t0.elapsed().as_secs_f64() * 1e3
}

/// A workload's timings, paced by the reference task.
///
/// A workload calls [`Laps::lap`] every few operations. It runs the
/// reference task and ends the lap: each timing of the lap is multiplied
/// by [`REFERENCE_MS`] over the median of the reference times taken at the
/// lap's start, during it and at its end, so it is paced by how fast the
/// machine ran within a fraction of a second of it. An input's figure is
/// the median of its paced timings over the run.
#[derive(Debug, Default)]
pub struct Laps {
    lap_refs: Vec<f64>,
    lap_ops: Vec<(usize, f64)>,
    /// Per input, its timings as measured and paced, in ms.
    timings: Vec<(Vec<f64>, Vec<f64>)>,
    /// Every time of the reference task in the run, in ms.
    pub reference_ms: Vec<f64>,
}

impl Laps {
    /// Run the reference task within the current lap; returns its time.
    pub fn pace(&mut self) -> f64 {
        let ms = reference_task();
        self.lap_refs.push(ms);
        self.reference_ms.push(ms);
        ms
    }

    /// One timing of input `input` in the current lap.
    pub fn record(&mut self, input: usize, ms: f64) {
        self.lap_ops.push((input, ms));
    }

    /// Run the reference task, end the current lap, and start the next.
    pub fn lap(&mut self) {
        self.end_lap(reference_task());
    }

    /// End the current lap with a reference time of `end_ms`, which also
    /// starts the next lap.
    fn end_lap(&mut self, end_ms: f64) {
        self.reference_ms.push(end_ms);
        self.lap_refs.push(end_ms);
        let scale = REFERENCE_MS / median(&self.lap_refs);
        for (input, ms) in self.lap_ops.drain(..) {
            if self.timings.len() <= input {
                self.timings.resize_with(input + 1, Default::default);
            }
            self.timings[input].0.push(ms);
            self.timings[input].1.push(ms * scale);
        }
        self.lap_refs = vec![end_ms];
    }

    /// Per input, its median time as measured and its median paced time,
    /// in ms; `None` for an input never timed. Ends an unfinished lap.
    pub fn per_input(&mut self) -> Vec<Option<(f64, f64)>> {
        if !self.lap_ops.is_empty() {
            self.lap();
        }
        self.timings
            .iter()
            .map(|(raw, paced)| (!raw.is_empty()).then(|| (median(raw), median(paced))))
            .collect()
    }
}

/// How many samples lie strictly above the `q`-quantile: a tail percentile
/// is only reported when at least ten samples lie beyond it.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(beyond(&xs, 0.9), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn laps_pace_each_timing_by_the_references_around_it() {
        let r = REFERENCE_MS;
        let mut laps = Laps::default();
        laps.end_lap(r);
        laps.record(0, 10.0);
        laps.end_lap(3.0 * r);
        laps.record(0, 5.0);
        laps.record(2, 7.0);
        laps.end_lap(r);
        assert_eq!(
            laps.per_input(),
            vec![Some((7.5, 3.75)), None, Some((7.0, 3.5))]
        );
        assert_eq!(laps.reference_ms, vec![r, 3.0 * r, r]);
    }
}
