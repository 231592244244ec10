//! Per-stage performance benchmark for the analysis pipeline.
//!
//! Generates a large synthetic trace (a scaled-up run of the built-in
//! workloads), then times each pipeline stage — frame decode, segment
//! construction, the critical-path walk, metric accumulation, and the
//! end-to-end `bytes → report` path — at several analysis thread counts.
//! Results are written as a versioned, machine-readable JSON document
//! (`BENCH_ANALYZE.json` at the repo root) so regressions show up in
//! review diffs.
//!
//! Timing uses the `critlock-obs` span recorder: each repetition records
//! one [`critlock_obs::SpanProfile`] of the pipeline and the profiles are
//! min-merged, so the benchmark and `analyze --self-profile` share one
//! clock-reading code path.
//!
//! Two honesty rules govern the output:
//!
//! * every stage is timed as the **minimum over `reps` repetitions** (the
//!   least-noise estimator for a deterministic computation);
//! * the host's `available_parallelism` is recorded next to the numbers,
//!   because speedup claims are meaningless without it — a 1-CPU host
//!   cannot show wall-clock scaling no matter how parallel the code is.
//!
//! The analysis itself is bit-identical at every thread count (see
//! `DESIGN.md`); this harness asserts that on every run.

use critlock_analysis::{analyze, analyze_with, critical_path, OnlineState, SegmentedTrace};
use critlock_obs::{SpanProfile, SpanRecorder};
use critlock_trace::{codec, Event, ThreadId, Trace};
use critlock_workloads::{suite, WorkloadCfg};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Schema version of [`BenchReport`]; bump on any incompatible change.
/// v2 added the [`LiveIngestion`] section (incremental vs full-rebuild
/// live maintenance); v3 added the [`DecodeThroughput`] section (owned
/// materializing decode vs the borrowed zero-copy event walk).
pub const SCHEMA_VERSION: u32 = 3;

/// Batches the live-ingestion benchmark replays the trace in (one
/// report per batch — the collector's snapshot cadence in miniature).
pub const LIVE_BATCHES: usize = 32;

/// Configuration for one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Workload scale factor (event count grows roughly linearly).
    pub scale: f64,
    /// Simulated application threads in the synthetic trace.
    pub app_threads: usize,
    /// Workload RNG seed (the trace is deterministic given this).
    pub seed: u64,
    /// Repetitions per stage; the minimum is reported.
    pub reps: usize,
    /// Analysis thread counts to measure.
    pub thread_counts: Vec<usize>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig { scale: 8.0, app_threads: 16, seed: 42, reps: 3, thread_counts: vec![1, 2, 8] }
    }
}

/// Host facts that speedup numbers cannot be interpreted without.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostInfo {
    /// `std::thread::available_parallelism()` at run time. Wall-clock
    /// speedup is bounded by this regardless of the requested pool size.
    pub available_parallelism: usize,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
}

impl HostInfo {
    fn detect() -> Self {
        HostInfo {
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }
}

/// Minimum wall-clock time of each pipeline stage, in nanoseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTimings {
    /// `codec::read_trace_bytes`: encoded bytes → `Trace`.
    pub decode_ns: u64,
    /// `SegmentedTrace::build`: trace → segments + dependence indexes.
    pub segment_ns: u64,
    /// `critical_path`: the backward CP walk (serial by design).
    pub cp_ns: u64,
    /// `analyze_with`: episode extraction + metric accumulation, given
    /// a precomputed critical path.
    pub metrics_ns: u64,
    /// Encoded bytes → full `AnalysisReport` (decode + analyze).
    pub end_to_end_ns: u64,
}

/// Timings measured inside a pool of `threads` workers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadRun {
    /// Requested analysis pool size.
    pub threads: usize,
    /// Per-stage minimum times at this pool size.
    pub timings: StageTimings,
}

/// Live-ingestion comparison: replay the trace in arrival order as
/// [`LIVE_BATCHES`] batches with a report after every batch — once
/// maintaining one incremental [`OnlineState`] (O(delta) per batch) and
/// once rebuilding the state from scratch per batch (O(history), what
/// the collector did before incremental maintenance existed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveIngestion {
    /// Events replayed.
    pub events: u64,
    /// Batches the replay was split into (== reports computed per pass).
    pub batches: usize,
    /// Minimum total wall time of the incremental pass, ns.
    pub incremental_ns: u64,
    /// Minimum total wall time of the rebuild-per-batch pass, ns.
    pub full_ns: u64,
    /// Sustained incremental ingestion rate, events per second.
    pub incremental_events_per_sec: u64,
    /// Sustained rebuild-per-batch rate, events per second.
    pub full_events_per_sec: u64,
    /// `full_ns / incremental_ns` — how much incremental maintenance
    /// beats per-snapshot full re-analysis at this batch cadence.
    pub speedup: f64,
    /// Whether the incremental pass's final report was bit-identical to
    /// a one-shot [`online_analyze`] of the whole trace (it must be).
    ///
    /// [`online_analyze`]: critlock_analysis::online_analyze
    pub incremental_exact: bool,
}

/// Decode-throughput comparison (schema v3): the owned decoder
/// (`codec::read_trace_bytes`, materializing a full [`Trace`]) against
/// the borrowed zero-copy walk (`RawTraceView::parse` + `validate`,
/// which decodes and checks every event record in place without building
/// one). The borrowed walk does strictly less work, so its rate is the
/// ceiling the owned path is converging toward — CI gates borrowed ≥
/// owned to keep the zero-copy layer from regressing below the path it
/// exists to beat.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeThroughput {
    /// Events in the encoded trace.
    pub events: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// Minimum wall time of the owned materializing decode, ns.
    pub owned_ns: u64,
    /// Minimum wall time of the borrowed parse + full event walk, ns.
    pub borrowed_ns: u64,
    /// Owned decode rate, events per second.
    pub owned_events_per_sec: u64,
    /// Borrowed walk rate, events per second.
    pub borrowed_events_per_sec: u64,
    /// `owned_ns / borrowed_ns`.
    pub speedup: f64,
    /// Whether materializing through the borrowed view reproduced the
    /// owned decoder's trace bit for bit (it must).
    pub borrowed_exact: bool,
}

/// The versioned document written to `BENCH_ANALYZE.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Must equal [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Exact command that regenerates this file.
    pub command: String,
    /// Host facts the numbers were measured on.
    pub host: HostInfo,
    /// Workload generator name.
    pub workload: String,
    /// Workload scale factor used.
    pub scale: f64,
    /// Simulated application threads in the trace.
    pub app_threads: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Events in the synthetic trace.
    pub trace_events: u64,
    /// Encoded trace size in bytes.
    pub trace_bytes: u64,
    /// Repetitions per stage (minimum reported).
    pub reps: usize,
    /// Whether every thread count produced a bit-identical report.
    pub deterministic: bool,
    /// One entry per measured pool size.
    pub runs: Vec<ThreadRun>,
    /// Incremental-vs-full live maintenance comparison (schema v2).
    pub live: LiveIngestion,
    /// Owned-vs-borrowed decode throughput (schema v3).
    pub decode: DecodeThroughput,
}

/// The workload the benchmark scales up.
pub const BENCH_WORKLOAD: &str = "radiosity";

/// Generate the deterministic synthetic trace the benchmark measures.
pub fn synth_trace(cfg: &BenchConfig) -> Trace {
    suite::run_workload(
        BENCH_WORKLOAD,
        &WorkloadCfg::with_threads(cfg.app_threads).with_scale(cfg.scale).with_seed(cfg.seed),
    )
    .expect("bench workload must exist")
    .expect("bench workload must simulate cleanly")
}

/// Time one repetition of every pipeline stage into a span profile.
fn profile_stages(
    bytes: &[u8],
    trace: &Trace,
    cp: &critlock_analysis::CriticalPath,
) -> SpanProfile {
    let rec = SpanRecorder::new("bench_analyze");
    rec.time("decode", || codec::read_trace_bytes(bytes).unwrap());
    rec.time("segment", || SegmentedTrace::build(trace));
    rec.time("cp", || critical_path(trace));
    rec.time("metrics", || analyze_with(trace, cp));
    rec.time("end_to_end", || analyze(&codec::read_trace_bytes(bytes).unwrap()));
    rec.finish()
}

/// Measure every stage as the per-span minimum over `reps` profiled
/// repetitions (the `critlock-obs` span recorder does the timing; this
/// merely merges and flattens the tree into the stable v1 schema).
fn measure_stages(bytes: &[u8], trace: &Trace, reps: usize) -> StageTimings {
    let cp = critical_path(trace);
    let mut merged: Option<SpanProfile> = None;
    for _ in 0..reps.max(1) {
        let profile = profile_stages(bytes, trace, &cp);
        merged = Some(match merged {
            Some(best) => best.merge_min(&profile),
            None => profile,
        });
    }
    let merged = merged.expect("at least one repetition runs");
    // Clamp to 1ns: a stage too fast for the clock still counts as ran
    // (the schema treats 0 as "never measured").
    let stage = |name: &str| merged.child(name).map_or(1, |s| s.duration_ns.max(1));
    StageTimings {
        decode_ns: stage("decode"),
        segment_ns: stage("segment"),
        cp_ns: stage("cp"),
        metrics_ns: stage("metrics"),
        end_to_end_ns: stage("end_to_end"),
    }
}

/// Merge the trace's per-thread streams into global arrival order and
/// split into `batches` chunks of per-thread runs — the shape a live
/// session's frames arrive in, each fed to [`OnlineState::ingest`].
fn live_plan(trace: &Trace, batches: usize) -> Vec<Vec<(ThreadId, Vec<Event>)>> {
    let mut merged: Vec<(ThreadId, Event)> = Vec::with_capacity(trace.num_events());
    for stream in &trace.threads {
        for ev in &stream.events {
            merged.push((stream.tid, *ev));
        }
    }
    // Stable sort: equal (ts, tid) keys keep per-stream order.
    merged.sort_by_key(|(tid, ev)| (ev.ts, *tid));
    let per = merged.len().div_ceil(batches.max(1)).max(1);
    merged
        .chunks(per)
        .map(|chunk| {
            let mut runs: Vec<(ThreadId, Vec<Event>)> = Vec::new();
            for (tid, ev) in chunk {
                match runs.last_mut() {
                    Some((t, evs)) if t == tid => evs.push(*ev),
                    _ => runs.push((*tid, vec![*ev])),
                }
            }
            runs
        })
        .collect()
}

/// One incremental pass over the batch plan: ingest + report per batch.
fn live_incremental(trace: &Trace, plan: &[Vec<(ThreadId, Vec<Event>)>]) -> OnlineState {
    let mut state = OnlineState::new();
    for stream in &trace.threads {
        state.declare(stream.tid);
    }
    for batch in plan {
        for (tid, evs) in batch {
            state.ingest(*tid, evs);
        }
        std::hint::black_box(state.report(trace).cp_length);
    }
    state
}

/// One full pass: a from-scratch state per batch boundary (the old
/// "re-analyze the whole session every snapshot" behavior).
fn live_full(trace: &Trace, plan: &[Vec<(ThreadId, Vec<Event>)>]) {
    for k in 1..=plan.len() {
        let mut state = OnlineState::new();
        for stream in &trace.threads {
            state.declare(stream.tid);
        }
        for batch in &plan[..k] {
            for (tid, evs) in batch {
                state.ingest(*tid, evs);
            }
        }
        std::hint::black_box(state.report(trace).cp_length);
    }
}

/// Measure the live-ingestion comparison: minimum over `reps` of each
/// pass's total wall time, plus the exactness cross-check.
fn measure_live(trace: &Trace, reps: usize) -> LiveIngestion {
    let plan = live_plan(trace, LIVE_BATCHES);
    let one_shot = critlock_analysis::online_analyze(trace);
    let mut incremental_ns = u64::MAX;
    let mut full_ns = u64::MAX;
    let mut incremental_exact = true;
    for _ in 0..reps.max(1) {
        let start = std::time::Instant::now();
        let mut state = live_incremental(trace, &plan);
        incremental_ns = incremental_ns.min((start.elapsed().as_nanos() as u64).max(1));
        incremental_exact &= state.report(trace) == one_shot;

        let start = std::time::Instant::now();
        live_full(trace, &plan);
        full_ns = full_ns.min((start.elapsed().as_nanos() as u64).max(1));
    }
    let events = trace.num_events() as u64;
    let rate = |ns: u64| (events as u128 * 1_000_000_000 / ns.max(1) as u128) as u64;
    LiveIngestion {
        events,
        batches: plan.len(),
        incremental_ns,
        full_ns,
        incremental_events_per_sec: rate(incremental_ns),
        full_events_per_sec: rate(full_ns),
        speedup: full_ns as f64 / incremental_ns as f64,
        incremental_exact,
    }
}

/// Measure the owned-vs-borrowed decode comparison: minimum over `reps`
/// of each path's wall time over the same encoded bytes, plus the
/// bit-identity cross-check. The paths take turns at running first, so
/// that neither always runs on the heap and caches the other left.
fn measure_decode(bytes: &[u8], trace: &Trace, reps: usize) -> DecodeThroughput {
    let time = |decode: &dyn Fn()| {
        let start = std::time::Instant::now();
        decode();
        (start.elapsed().as_nanos() as u64).max(1)
    };
    let owned = || {
        std::hint::black_box(codec::read_trace_bytes(bytes).expect("bench trace decodes"));
    };
    let borrowed = || {
        let view = codec::RawTraceView::parse(bytes).expect("bench trace parses");
        std::hint::black_box(view.validate().expect("bench trace validates"));
    };
    let mut owned_ns = u64::MAX;
    let mut borrowed_ns = u64::MAX;
    for rep in 0..reps.max(1) {
        if rep % 2 == 0 {
            owned_ns = owned_ns.min(time(&owned));
            borrowed_ns = borrowed_ns.min(time(&borrowed));
        } else {
            borrowed_ns = borrowed_ns.min(time(&borrowed));
            owned_ns = owned_ns.min(time(&owned));
        }
    }
    let borrowed_exact = codec::RawTraceView::parse(bytes)
        .and_then(|view| view.to_trace())
        .is_ok_and(|back| back == *trace);
    let events = trace.num_events() as u64;
    let rate = |ns: u64| (events as u128 * 1_000_000_000 / ns.max(1) as u128) as u64;
    DecodeThroughput {
        events,
        bytes: bytes.len() as u64,
        owned_ns,
        borrowed_ns,
        owned_events_per_sec: rate(owned_ns),
        borrowed_events_per_sec: rate(borrowed_ns),
        speedup: owned_ns as f64 / borrowed_ns as f64,
        borrowed_exact,
    }
}

/// Run the benchmark and collect the report.
pub fn run(cfg: &BenchConfig) -> BenchReport {
    let trace = synth_trace(cfg);
    let mut bytes = Vec::new();
    codec::write_trace(&trace, &mut bytes).expect("in-memory encode cannot fail");

    let mut runs = Vec::new();
    let mut reports: Vec<String> = Vec::new();
    for &threads in &cfg.thread_counts {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("shim pool build cannot fail");
        let timings = pool.install(|| measure_stages(&bytes, &trace, cfg.reps));
        reports.push(pool.install(|| serde_json::to_string(&analyze(&trace)).unwrap()));
        runs.push(ThreadRun { threads, timings });
    }
    let deterministic = reports.windows(2).all(|w| w[0] == w[1]);
    let live = measure_live(&trace, cfg.reps);
    let decode = measure_decode(&bytes, &trace, cfg.reps);

    BenchReport {
        schema_version: SCHEMA_VERSION,
        command: format!(
            "cargo run --release -p critlock-bench --bin bench_analyze -- --scale {} --app-threads {} --seed {} --reps {}",
            cfg.scale, cfg.app_threads, cfg.seed, cfg.reps
        ),
        host: HostInfo::detect(),
        workload: BENCH_WORKLOAD.to_string(),
        scale: cfg.scale,
        app_threads: cfg.app_threads,
        seed: cfg.seed,
        trace_events: trace.num_events() as u64,
        trace_bytes: bytes.len() as u64,
        reps: cfg.reps,
        deterministic,
        runs,
        live,
        decode,
    }
}

/// Serialize a report as the pretty JSON committed to the repo.
pub fn to_json(report: &BenchReport) -> String {
    let mut json = serde_json::to_string_pretty(report).expect("bench report serializes");
    json.push('\n');
    json
}

/// Validate that a JSON document is a well-formed current-schema bench
/// report. Used by the CI bench-smoke job; checks shape, not speed.
pub fn validate_schema(json: &str) -> Result<BenchReport, String> {
    let report: BenchReport =
        serde_json::from_str(json).map_err(|e| format!("not a bench report: {e}"))?;
    if report.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {} (this build understands {SCHEMA_VERSION})",
            report.schema_version
        ));
    }
    if report.runs.is_empty() {
        return Err("no thread runs recorded".into());
    }
    if report.host.available_parallelism == 0 {
        return Err("host.available_parallelism must be >= 1".into());
    }
    if report.trace_events == 0 || report.trace_bytes == 0 {
        return Err("empty benchmark trace".into());
    }
    for run in &report.runs {
        if run.threads == 0 {
            return Err("a run with 0 threads".into());
        }
        let t = &run.timings;
        if [t.decode_ns, t.segment_ns, t.cp_ns, t.metrics_ns, t.end_to_end_ns].contains(&0) {
            return Err(format!("zero timing in the {}-thread run", run.threads));
        }
    }
    if !report.deterministic {
        return Err("analysis output differed across thread counts".into());
    }
    let live = &report.live;
    if live.events == 0 || live.batches == 0 {
        return Err("empty live-ingestion section".into());
    }
    if live.incremental_ns == 0 || live.full_ns == 0 {
        return Err("zero timing in the live-ingestion section".into());
    }
    if live.incremental_events_per_sec == 0 || !live.speedup.is_finite() || live.speedup <= 0.0 {
        return Err("implausible live-ingestion rates".into());
    }
    if !live.incremental_exact {
        return Err("incremental live pass diverged from one-shot online analysis".into());
    }
    let decode = &report.decode;
    if decode.events == 0 || decode.bytes == 0 {
        return Err("empty decode section".into());
    }
    if decode.owned_ns == 0 || decode.borrowed_ns == 0 {
        return Err("zero timing in the decode section".into());
    }
    if decode.owned_events_per_sec == 0
        || decode.borrowed_events_per_sec == 0
        || !decode.speedup.is_finite()
        || decode.speedup <= 0.0
    {
        return Err("implausible decode rates".into());
    }
    if !decode.borrowed_exact {
        return Err("borrowed zero-copy decode diverged from the owned decoder".into());
    }
    Ok(report)
}

/// Human-readable summary of a report (printed after a bench run).
pub fn render_text(report: &BenchReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench_analyze: {} scale={} app_threads={} seed={} ({} events, {} KiB encoded)",
        report.workload,
        report.scale,
        report.app_threads,
        report.seed,
        report.trace_events,
        report.trace_bytes / 1024,
    );
    let _ = writeln!(
        out,
        "host: {}/{} available_parallelism={}  reps={}  deterministic={}",
        report.host.os,
        report.host.arch,
        report.host.available_parallelism,
        report.reps,
        report.deterministic,
    );
    let _ = writeln!(
        out,
        "{:>8}  {:>12} {:>12} {:>12} {:>12} {:>12}",
        "threads", "decode", "segment", "cp", "metrics", "end-to-end"
    );
    let ms = |ns: u64| format!("{:.2}ms", ns as f64 / 1e6);
    for run in &report.runs {
        let t = &run.timings;
        let _ = writeln!(
            out,
            "{:>8}  {:>12} {:>12} {:>12} {:>12} {:>12}",
            run.threads,
            ms(t.decode_ns),
            ms(t.segment_ns),
            ms(t.cp_ns),
            ms(t.metrics_ns),
            ms(t.end_to_end_ns),
        );
    }
    let live = &report.live;
    let _ = writeln!(
        out,
        "live ingestion: {} events in {} batches — incremental {} ev/s vs full-rebuild {} ev/s (speedup {:.2}x, exact={})",
        live.events,
        live.batches,
        live.incremental_events_per_sec,
        live.full_events_per_sec,
        live.speedup,
        live.incremental_exact,
    );
    let decode = &report.decode;
    let _ = writeln!(
        out,
        "decode: owned {} ev/s vs borrowed zero-copy {} ev/s (speedup {:.2}x, exact={})",
        decode.owned_events_per_sec,
        decode.borrowed_events_per_sec,
        decode.speedup,
        decode.borrowed_exact,
    );
    if report.host.available_parallelism < 2 {
        let _ = writeln!(
            out,
            "note: host has 1 CPU; pool-size runs measure overhead, not wall-clock scaling"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        BenchConfig { scale: 0.05, app_threads: 4, seed: 7, reps: 1, thread_counts: vec![1, 2] }
    }

    #[test]
    fn report_roundtrips_and_validates() {
        let report = run(&tiny());
        let json = to_json(&report);
        let back = validate_schema(&json).expect("fresh report must validate");
        assert_eq!(back, report);
        assert!(report.deterministic, "analysis must not depend on pool size");
        assert_eq!(report.runs.len(), 2);
        assert_eq!(report.runs[0].threads, 1);
        assert_eq!(report.runs[1].threads, 2);
    }

    #[test]
    fn schema_violations_are_rejected() {
        assert!(validate_schema("{}").is_err());
        assert!(validate_schema("not json").is_err());

        let mut report = run(&tiny());
        report.schema_version = 999;
        assert!(validate_schema(&to_json(&report)).is_err());
        report.schema_version = SCHEMA_VERSION;
        report.runs.clear();
        assert!(validate_schema(&to_json(&report)).is_err());
    }

    #[test]
    fn live_section_is_exact_and_positive() {
        let report = run(&tiny());
        assert!(report.live.incremental_exact, "incremental pass must match one-shot");
        assert_eq!(report.live.events, report.trace_events);
        assert!(report.live.batches >= 1);
        assert!(report.live.speedup > 0.0);
        assert!(render_text(&report).contains("live ingestion:"));

        let mut broken = report;
        broken.live.incremental_exact = false;
        assert!(validate_schema(&to_json(&broken)).is_err());
    }

    #[test]
    fn decode_section_is_exact_and_positive() {
        let report = run(&tiny());
        assert!(report.decode.borrowed_exact, "borrowed view must reproduce the owned trace");
        assert_eq!(report.decode.events, report.trace_events);
        assert_eq!(report.decode.bytes, report.trace_bytes);
        assert!(report.decode.speedup > 0.0);
        assert!(render_text(&report).contains("borrowed zero-copy"));

        let mut broken = report;
        broken.decode.borrowed_exact = false;
        assert!(validate_schema(&to_json(&broken)).is_err());
    }

    #[test]
    fn committed_baseline_is_schema_valid() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ANALYZE.json");
        let json = std::fs::read_to_string(path)
            .expect("BENCH_ANALYZE.json must be committed at the repo root");
        let report = validate_schema(&json).expect("committed baseline must match the schema");
        assert_eq!(report.workload, BENCH_WORKLOAD);
    }

    #[test]
    fn render_mentions_host_parallelism() {
        let report = run(&tiny());
        let text = render_text(&report);
        assert!(text.contains("available_parallelism"));
        assert!(text.contains("end-to-end"));
    }
}
