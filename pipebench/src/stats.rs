//! Measurement plumbing shared by the workloads: sample sets with
//! percentiles, named metric maps, run facts, bounded polling, the
//! process's peak memory and a scratch directory inside the checkout.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Nearest-rank percentile of `values` (`p` in `0.0..=1.0`). Zero for an
/// empty set; callers guarantee enough samples for the percentile they
/// report and record the count beside it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Named metrics with units, in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn names(&self) -> Vec<String> {
        self.0.keys().cloned().collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*value))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with every digit Rust prints for the value.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Facts about a run that qualify its numbers: host parallelism, the
/// generator's shape, the seed, input sizes and sample counts. Printed
/// as one JSON line before the result line.
#[derive(Debug, Default, Clone)]
pub struct Facts(BTreeMap<String, String>);

impl Facts {
    pub fn int(&mut self, name: &str, v: u64) {
        self.0.insert(name.to_string(), v.to_string());
    }

    pub fn num(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), json_num(v));
    }

    pub fn text(&mut self, name: &str, v: &str) {
        self.0.insert(name.to_string(), format!("\"{v}\""));
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The per-operation latency samples every workload takes.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Input complete to report in hand, per operation.
    pub visible_ms: Vec<f64>,
    /// The report-computing step alone, per operation.
    pub status_ms: Vec<f64>,
    /// Critlock's path over the bare path, per operation.
    pub slowdown: Vec<f64>,
}

impl Samples {
    /// The p90s and sample counts as facts and, for an untraced run, the
    /// medians plus set-up time and throughput as end-to-end metrics.
    pub fn report(
        &self,
        traced: bool,
        setup_s: f64,
        events_per_s: f64,
        facts: &mut Facts,
        metrics: &mut Metrics,
    ) {
        facts.num("visible_p90_ms", percentile(&self.visible_ms, 0.9));
        facts.num("status_p90_ms", percentile(&self.status_ms, 0.9));
        facts.int("samples_visible", self.visible_ms.len() as u64);
        facts.int("samples_status", self.status_ms.len() as u64);
        facts.int("samples_app_slowdown", self.slowdown.len() as u64);
        if !traced {
            metrics.set("setup_s", setup_s, "s");
            metrics.set("events_per_s", events_per_s, "1/s");
            metrics.set("visible_p50_ms", median(&self.visible_ms), "ms");
            metrics.set("status_p50_ms", median(&self.status_ms), "ms");
            metrics.set("app_slowdown", median(&self.slowdown), "x");
        }
    }
}

/// Operation accounting for one run. A mismatch is an operation whose
/// output failed its correctness gate; every mismatch is also a failure.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
}

impl Tally {
    /// Account one operation: `Ok` passed, `Err(true)` produced a wrong
    /// result, `Err(false)` failed without one (timeout, I/O error).
    pub fn record(&mut self, outcome: Result<(), bool>) {
        self.attempted += 1;
        if let Err(wrong) = outcome {
            self.failed += 1;
            if wrong {
                self.mismatches += 1;
            }
        }
    }

    /// Add another phase's accounting to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
    }
}

/// Poll `done` every `every` until it holds or `timeout` passes; returns
/// whether it held. Every wait in the benchmark is bounded this way.
pub fn poll_until(timeout: Duration, every: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if done() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(every);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// A directory under the working directory (the checkout) that is
/// removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let path = PathBuf::from(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while another
        // run still owns a sibling directory.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Durations of named benchmark-side spans in a traced run, in ms.
#[derive(Debug, Default, Clone)]
pub struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    /// Run `f` inside span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(name, ms(start.elapsed()));
        out
    }

    pub fn add(&mut self, name: &'static str, ms: f64) {
        self.0.entry(name).or_default().push(ms);
    }

    pub fn values(&self, name: &str) -> &[f64] {
        self.0.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn median(&self, name: &str) -> f64 {
        median(self.values(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[2.0, 1.0, 3.0]), 2.0);
    }

    #[test]
    fn tally_counts_mismatches_as_failures() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err(false));
        t.record(Err(true));
        assert_eq!((t.attempted, t.failed, t.mismatches), (3, 2, 1));
    }
}
