//! critlock pipeline benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload offline|live|app --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs come from `--seed` through the deterministic simulator. Each
//! run sets up its inputs several times (reporting the median set-up
//! time), measures a closed loop for `--seconds`, checks every output
//! against a reference, and prints a facts line and then a result line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run repeats the
//! loop with the benchmark's spans around each layer call, replays the
//! recorded sessions through the collector's layers one at a time, and
//! reports per-layer metrics plus the tracing overhead.

mod app;
mod gate;
mod instrument;
mod live;
mod offline;
mod replay;
mod served;
mod stats;

use served::Counters;
use stats::{peak_rss_mb, Facts, Metrics, Tally};
use std::time::Instant;

/// End-to-end metrics every workload prints with `--trace 0`. The p90s
/// of the same samples go to the facts line: on a shared 2-CPU host,
/// minutes-long slow spells moved them 30-55% between identical runs,
/// more than any bound could absorb, while the medians held.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("visible_p50_ms", "ms"),
    ("status_p50_ms", "ms"),
    ("app_slowdown", "x"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload prints with `--trace 1`, each measured
/// on the workload's own input. The collector counts read 0 on `offline`,
/// which runs no collector.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("instrument.record_ns_per_event", "ns"),
    ("instrument.sink_write_ms", "ms"),
    ("instrument.sink_writes", "count"),
    ("instrument.sink_bytes_per_event", "B"),
    ("stream.encode_ns_per_frame", "ns"),
    ("stream.validate_ns_per_frame", "ns"),
    ("codec.decode_ms", "ms"),
    ("journal.append_ns_per_frame", "ns"),
    ("journal.bytes_per_event", "B"),
    ("queue.push_drain_ns_per_frame", "ns"),
    ("queue.high_water_frames", "count"),
    ("assembler.apply_ns_per_event", "ns"),
    ("snapshot.compute_ms", "ms"),
    ("snapshot.refreshes_per_session", "count"),
    ("snapshot.skips_per_session", "count"),
    ("status.render_ms", "ms"),
    ("segments.build_ms", "ms"),
    ("cp.walk_ms", "ms"),
    ("metrics.analyze_with_ms", "ms"),
    ("collector.wait_ms_per_session", "ms"),
    ("collector.frames_dropped", "count"),
    ("collector.crc_failed", "count"),
    ("trace.untraced_events_per_s", "1/s"),
    ("trace.traced_events_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Set-ups per run; the median time is reported and the last input used.
const SETUP_REPS: usize = 3;

/// A run past its `--seconds` keeps going until it has the samples its
/// percentiles need, but never past this many seconds.
const HARD_STOP_S: f64 = 120.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Offline,
    Live,
    App,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "offline" => Some(Workload::Offline),
            "live" => Some(Workload::Live),
            "app" => Some(Workload::App),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Offline => "offline",
            Workload::Live => "live",
            Workload::App => "app",
        }
    }
}

/// What one workload run produced.
pub struct Run {
    pub tally: Tally,
    pub metrics: Metrics,
    pub facts: Facts,
}

/// Input sizes: the standard run, or tiny ones for the benchmark's tests.
#[derive(Debug, Clone, Copy)]
pub enum Scale {
    Standard,
    Tiny,
}

/// Run `setup` [`SETUP_REPS`] times; return the last input and the
/// median set-up time in seconds.
pub fn setup_repeated<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut input = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        input = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((input.expect("at least one set-up"), stats::median(&times)))
}

/// Whether a closed loop started at `start` should run another operation.
pub fn keep_going(start: Instant, seconds: f64, samples: usize, min_samples: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed < HARD_STOP_S && (elapsed < seconds || samples < min_samples)
}

/// Throughput with and without the benchmark's spans, and the overhead.
pub fn tracing_overhead(metrics: &mut Metrics, untraced: f64, traced: f64) {
    metrics.set("trace.untraced_events_per_s", untraced, "1/s");
    metrics.set("trace.traced_events_per_s", traced, "1/s");
    metrics.set("trace.overhead_pct", (untraced / traced - 1.0) * 100.0, "%");
}

/// Per-layer metrics from the collector's own counters, one reading per
/// served session (each session has its own collector).
pub fn layer_counters(per_session: &[Counters], metrics: &mut Metrics) {
    let n = per_session.len().max(1) as f64;
    let sum = |f: fn(&Counters) -> u64| per_session.iter().map(f).sum::<u64>() as f64;
    metrics.set("snapshot.refreshes_per_session", sum(|c| c.refreshes) / n, "count");
    metrics.set("snapshot.skips_per_session", sum(|c| c.skips) / n, "count");
    let high_water = per_session.iter().map(|c| c.queue_high_water).max().unwrap_or(0);
    metrics.set("queue.high_water_frames", high_water as f64, "count");
    metrics.set("collector.frames_dropped", sum(|c| c.frames_dropped), "count");
    metrics.set("collector.crc_failed", sum(|c| c.crc_failed), "count");
}

/// Run one workload and complete its metric set: every end-to-end metric
/// (plus peak memory) untraced, every per-layer metric traced.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> Result<Run, String> {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let tiny = matches!(scale, Scale::Tiny);
    let mut run = match workload {
        Workload::Offline => {
            let sizes = if tiny { offline::Sizes::tiny() } else { offline::Sizes::standard() };
            offline::run(seed, seconds, traced, &sizes)?
        }
        Workload::Live => {
            let sizes = if tiny { live::Sizes::tiny() } else { live::Sizes::standard() };
            live::run(seed, seconds, traced, &sizes)?
        }
        Workload::App => {
            let sizes = if tiny { app::Sizes::tiny() } else { app::Sizes::standard() };
            app::run(seed, seconds, traced, &sizes)?
        }
    };
    let threads: usize =
        run.facts.get("generator_threads").and_then(|t| t.parse().ok()).unwrap_or(1);
    if threads > nproc {
        return Err(format!("generator uses {threads} threads on a {nproc}-CPU host"));
    }
    run.facts.int("nproc", nproc as u64);
    run.facts.int("seed", seed);
    run.facts.num("seconds", seconds);
    run.facts.text("workload", workload.name());
    run.facts.int("trace", traced.into());
    run.facts.int("setup_reps", SETUP_REPS as u64);
    run.facts.int("mismatches", run.tally.mismatches);
    if !traced {
        run.metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    let declared = if traced { &PER_LAYER[..] } else { &END_TO_END[..] };
    if let Some((missing, _)) = declared.iter().find(|(name, _)| run.metrics.get(name).is_none()) {
        return Err(format!("{} run did not measure {missing}", workload.name()));
    }
    Ok(run)
}

fn result_line(run: &Run) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.tally.mismatches == 0 && run.tally.attempted > 0,
        run.tally.attempted,
        run.tally.failed,
        run.metrics.to_json()
    )
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload offline|live|app is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(2);
        }
    };
    match run(args.workload, args.seed, args.seconds, args.trace, Scale::Standard) {
        Ok(run) => {
            println!("{{\"facts\": {}}}", run.facts.to_json());
            println!("{}", result_line(&run));
        }
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Object(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("{key}: not an object"),
        }
    }

    fn names(list: &Value) -> Vec<String> {
        let Value::Array(items) = list else { panic!("not a list") };
        let mut names: Vec<String> = items
            .iter()
            .map(|m| match field(m, "name") {
                Value::Str(s) => s.clone(),
                _ => panic!("name is not a string"),
            })
            .collect();
        names.sort();
        names
    }

    fn benchmark_json() -> Value {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    /// Every workload prints exactly the metric names BENCHMARK.json
    /// declares, traced and untraced, and serves one status request per
    /// session it attempted.
    #[test]
    fn printed_metrics_match_benchmark_json_and_status_requests_follow_the_schedule() {
        let spec = benchmark_json();
        for workload in [Workload::Offline, Workload::Live, Workload::App] {
            for traced in [false, true] {
                let run = run(workload, 7, 0.05, traced, Scale::Tiny).unwrap();
                assert_eq!(run.tally.failed, 0, "{workload:?} traced={traced}");
                let mut printed = run.metrics.names();
                printed.sort();
                let list = if traced { "per_layer" } else { "end_to_end" };
                assert_eq!(printed, names(field(&spec, list)), "{workload:?} {list}");
                let requests: u64 = run.facts.get("status_requests").unwrap().parse().unwrap();
                let sessions = match workload {
                    Workload::Offline => 0,
                    _ => run.facts.get("sessions_served").unwrap().parse().unwrap(),
                };
                assert_eq!(requests, sessions, "{workload:?}: status requests beyond the schedule");
                let line = result_line(&run);
                let parsed: Value = serde_json::from_str(&line).unwrap();
                assert_eq!(field(&parsed, "correct"), &Value::Bool(true));
            }
        }
    }

    #[test]
    fn declared_lists_match_the_constants() {
        let spec = benchmark_json();
        let mut e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        e2e.sort();
        assert_eq!(names(field(&spec, "end_to_end")), e2e);
        let mut layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        layers.sort();
        assert_eq!(names(field(&spec, "per_layer")), layers);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = parse("--workload live --seed 3 --seconds 2 --trace 1").unwrap();
        assert_eq!((ok.workload, ok.seed, ok.seconds, ok.trace), (Workload::Live, 3, 2.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload app --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
