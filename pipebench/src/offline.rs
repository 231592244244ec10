//! `offline`: repeated `bytes → AnalysisReport` passes over one large
//! simulated radiosity trace — the `critlock analyze` path. Loads the
//! codec and the analysis layers only; the collector and the instrument
//! are not involved, so changes there predict no change here.

use crate::gate;
use crate::stats::{ms, Facts, Metrics, Samples, ScratchDir, Spans, Tally};
use crate::{instrument, keep_going, layer_counters, replay, setup_repeated, Run};
use critlock_analysis::cp::critical_path_segmented;
use critlock_analysis::{analyze, analyze_with, digest_report, SegmentedTrace};
use critlock_trace::codec::{read_trace_bytes, write_trace};
use critlock_trace::rollup::SessionDigest;
use critlock_trace::stream::trace_frames;
use critlock_workloads::{radiosity, WorkloadCfg};
use std::time::Instant;

/// Input sizes of one run.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Simulated application threads.
    pub threads: usize,
    /// Radiosity input scale (events grow about linearly).
    pub scale: f64,
    pub min_samples: usize,
}

impl Sizes {
    pub fn standard() -> Sizes {
        Sizes { threads: 16, scale: 24.0, min_samples: 100 }
    }

    pub fn tiny() -> Sizes {
        Sizes { threads: 4, scale: 0.05, min_samples: 3 }
    }
}

struct Input {
    bytes: Vec<u8>,
    events: u64,
    reference: SessionDigest,
}

/// Simulate the trace, encode it as a trace file would hold it, and
/// compute the reference digest with a single-threaded analysis.
fn setup(seed: u64, sizes: &Sizes) -> Result<Input, String> {
    let cfg = WorkloadCfg::with_threads(sizes.threads).with_scale(sizes.scale).with_seed(seed);
    let trace = radiosity::run(&cfg).map_err(|e| format!("simulate: {e}"))?;
    let mut bytes = Vec::new();
    write_trace(&trace, &mut bytes).map_err(|e| format!("encode: {e}"))?;
    let serial =
        rayon::ThreadPoolBuilder::new().num_threads(1).build().map_err(|e| e.to_string())?;
    let reference = serial.install(|| analyze(&trace));
    Ok(Input {
        bytes,
        events: trace.num_events() as u64,
        reference: digest_report(gate::DIGEST_KEY, &reference),
    })
}

/// Per-pass samples of one phase.
#[derive(Default)]
struct Phase {
    tally: Tally,
    samples: Samples,
    events_per_s: f64,
    spans: Spans,
}

/// Passes run on a one-thread analysis pool (`critlock analyze --threads
/// 1`): on a shared 2-CPU host the two-thread pool's throughput swung
/// 12-16M events/s between identical runs while one thread held within
/// 2%, at a median only about 10% slower.
fn measure(input: &Input, seconds: f64, min_samples: usize, traced: bool) -> Phase {
    let serial = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("one-thread pool");
    serial.install(|| passes(input, seconds, min_samples, traced))
}

fn passes(input: &Input, seconds: f64, min_samples: usize, traced: bool) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    while keep_going(start, seconds, phase.samples.visible_ms.len(), min_samples) {
        let t0 = Instant::now();
        let trace = match read_trace_bytes(&input.bytes) {
            Ok(trace) => trace,
            Err(e) => {
                eprintln!("offline: decode failed: {e}");
                phase.tally.record(Err(true));
                continue;
            }
        };
        let t1 = Instant::now();
        let report = if traced {
            let spans = &mut phase.spans;
            let segments = spans.time("segments.build_ms", || SegmentedTrace::build(&trace));
            let cp = spans.time("cp.walk_ms", || critical_path_segmented(&trace, &segments));
            let report = spans.time("metrics.analyze_with_ms", || analyze_with(&trace, &cp));
            let stages: f64 = ["segments.build_ms", "cp.walk_ms", "metrics.analyze_with_ms"]
                .iter()
                .map(|name| spans.values(name).last().copied().unwrap_or(0.0))
                .sum();
            spans.add("unaccounted", ms(t1.elapsed()) - stages);
            report
        } else {
            analyze(&trace)
        };
        let t2 = Instant::now();
        let outcome = gate::offline(&report, &input.reference);
        if let Err(why) = &outcome {
            eprintln!("offline: {why}");
        }
        phase.tally.record(outcome.map_err(|_| true));
        phase.spans.add("codec.decode_ms", ms(t1 - t0));
        phase.samples.visible_ms.push(ms(t2 - t0));
        phase.samples.status_ms.push(ms(t2 - t1));
        phase.samples.slowdown.push((t2 - t0).as_secs_f64() / (t1 - t0).as_secs_f64());
    }
    let passes = phase.samples.visible_ms.len() as f64;
    phase.events_per_s = passes * input.events as f64 / start.elapsed().as_secs_f64();
    phase
}

pub fn run(seed: u64, seconds: f64, traced: bool, sizes: &Sizes) -> Result<Run, String> {
    let (input, setup_s) = setup_repeated(|| setup(seed, sizes))?;
    let plain = measure(&input, seconds, sizes.min_samples, false);
    let mut facts = Facts::default();
    facts.int("input_events", input.events);
    facts.int("input_bytes", input.bytes.len() as u64);
    facts.int("input_sessions", 1);
    facts.int("app_threads_simulated", sizes.threads as u64);
    facts.int("generator_threads", 1);
    facts.int("generator_connections", 0);
    facts.int("status_requests", 0);
    let mut metrics = Metrics::default();
    plain.samples.report(traced, setup_s, plain.events_per_s, &mut facts, &mut metrics);
    let mut tally = plain.tally;
    if traced {
        let spanned = measure(&input, seconds, sizes.min_samples, true);
        tally.absorb(spanned.tally);
        facts.int("samples_traced", spanned.samples.visible_ms.len() as u64);
        // The collector layers on this trace, replayed one call at a
        // time; the analysis stages come from the passes themselves.
        let trace = read_trace_bytes(&input.bytes).map_err(|e| format!("decode: {e}"))?;
        let scratch = ScratchDir::new("offline-replay").map_err(|e| format!("scratch dir: {e}"))?;
        let mut replayed = Spans::default();
        replay::replay_session(
            &trace_frames(&trace),
            input.events,
            scratch.path(),
            0,
            &mut replayed,
        )?;
        replay::layer_metrics(&replayed, &mut metrics);
        for name in
            ["codec.decode_ms", "segments.build_ms", "cp.walk_ms", "metrics.analyze_with_ms"]
        {
            metrics.set(name, spanned.spans.median(name), "ms");
        }
        // No collector here: what a pass spends outside its layers.
        metrics.set("collector.wait_ms_per_session", spanned.spans.median("unaccounted"), "ms");
        layer_counters(&[], &mut metrics);
        instrument::probe(true, &mut metrics)?;
        crate::tracing_overhead(&mut metrics, plain.events_per_s, spanned.events_per_s);
    }
    Ok(Run { tally, metrics, facts })
}
