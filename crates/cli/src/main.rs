//! `critlock` — the command-line frontend of the critical lock analysis
//! toolkit.
//!
//! ```text
//! critlock list
//! critlock run <workload> [--threads N] [--scale S] [--seed X] [-o|--out trace.cltr]
//! critlock analyze <trace> [--top N] [--csv|--json] [--no-type2] [--threads N]
//! critlock gantt <trace> [--width N]
//! critlock bench [--scale S] [--reps N] [--threads 1,2,8] [--out FILE]
//! critlock whatif <trace> --lock NAME [--factor F]
//! critlock online <trace>
//! critlock serve [--listen ADDR] [--status ADDR] [--metrics ADDR] [--queue N]
//!                [--backpressure block|drop] [--journal DIR] [--idle-timeout-ms N]
//!                [--shards N] [--forward ADDR] [--collector-id ID]
//!                [--window-secs N]
//! critlock push <trace> --to ADDR [--pace-ms N] [--timeout SECS] [--retries N]
//!                [--fault-plan NAME|SPEC]
//! critlock status --at ADDR [--json] [--timeout SECS]
//! critlock health <addr> [--json] [--timeout SECS]
//! critlock metrics <addr> [--timeout SECS]
//! critlock aggregate [INPUT...] [--at ADDR] [--json] [--top N] [--out FILE]
//! ```

mod args;

use critlock_analysis::cp::critical_path_segmented;
use critlock_analysis::report::{render_csv, render_text, to_json, RenderOptions};
use critlock_analysis::{
    analyze, analyze_phase, blocker_report, online_analyze, project_shrink, thread_report,
    SegmentedTrace,
};
use critlock_trace::Trace;
use critlock_workloads::{suite, WorkloadCfg};
use std::process::ExitCode;

const USAGE: &str = "critlock — critical lock analysis (Chen & Stenström, SC 2012)

USAGE:
  critlock list
      List the built-in workloads.
  critlock run <workload> [--threads N] [--scale S] [--seed X] [--out FILE]
      Run a workload on the simulator; print the analysis, optionally
      save the trace (.cltr binary, or .jsonl when the name ends so).
  critlock analyze <trace> [--top N] [--csv|--json] [--no-type2] [--phase MARKER]
                   [--threads N] [--strict] [--max-events N] [--max-threads N]
                   [--max-bytes N] [--deadline-ms N] [--self-profile]
      Run critical lock analysis on a recorded trace (optionally only on
      the window delimited by a named phase marker). --threads sizes the
      analysis worker pool (default: the host's available parallelism);
      the output is bit-identical at any thread count. By default a
      damaged trace is *salvaged* — each thread is truncated to its
      longest protocol-consistent prefix, unrepairable threads are
      quarantined — and the report carries a `salvage` section plus a
      `degraded` flag; --strict restores fail-fast loading instead. The
      --max-* / --deadline-ms budgets bound decode and analysis cost:
      oversized inputs are tail-truncated deterministically (degraded
      output), never an abort. --self-profile times each pipeline stage
      (decode, salvage, segments, CP walk, metrics) and embeds the span
      tree in the JSON report; the analysis numbers are bit-identical
      with or without it.
  critlock blockers <trace> [--top N]
      Show who-blocks-whom edges, heaviest waits first.
  critlock threads <trace>
      Show per-thread criticality (critical-path share vs busy time).
  critlock gantt <trace> [--width N]
      Render the execution and its critical path as ASCII art.
  critlock whatif <trace> --lock NAME [--factor F]
      Project the speedup from shrinking one lock's critical sections.
  critlock online <trace>
      Run the forward (online) critical-path profile.
  critlock bench [--scale S] [--app-threads N] [--seed X] [--reps N]
                 [--threads 1,2,8] [--out FILE]
      Time every analysis pipeline stage (decode, segment, critical-path
      walk, metrics, end-to-end) on a large synthetic trace at each
      requested pool size, and emit the machine-readable report that
      BENCH_ANALYZE.json at the repo root is generated from.
  critlock serve [--listen ADDR] [--status ADDR] [--metrics ADDR] [--queue N]
                 [--backpressure block|drop] [--interval-ms N]
                 [--journal DIR] [--journal-quota-bytes N]
                 [--journal-segment-bytes N] [--checkpoint-interval-ms N]
                 [--idle-timeout-ms N] [--threads N]
                 [--strict] [--max-sessions N] [--session-quota-bytes N]
                 [--max-events N] [--shards N] [--forward ADDR]
                 [--forward-interval-ms N] [--forward-fallback ADDR]
                 [--forward-timeout-ms N] [--forward-retries N]
                 [--forward-fault-plan NAME|SPEC] [--collector-id ID]
                 [--max-rollup-sessions N] [--window-secs N]
      Run the live collector daemon. ADDR is unix:/path/to.sock or
      host:port. Sessions stream in on --listen; snapshots are served on
      --status. With --journal, every accepted frame is logged to a
      crash-safe per-session journal in DIR and recovered on restart.
      Journals rotate into CRC-framed segments every
      --journal-segment-bytes (default: no rotation), and the analysis
      state is checkpointed every --checkpoint-interval-ms (default
      2000) so recovery replays only the un-checkpointed tail;
      fully-absorbed segments are pruned. --journal-quota-bytes caps
      the total durable bytes (journals + checkpoints + spool): at the
      quota — or on ENOSPC — a session's journaling degrades to
      in-memory-only (not crash-resumable, flagged in health and
      status) but ingestion and analysis continue unharmed.
      With --idle-timeout-ms, stalled connections are severed and their
      sessions finalized. --threads sizes the snapshot analysis pool
      (default: the host's available parallelism). --max-sessions caps
      concurrent sessions (excess connects are shed and counted in
      status); --session-quota-bytes caps per-session ingest bytes and
      --max-events caps per-session assembled events — over-quota
      sessions are truncated and marked degraded (default) or
      disconnected (--strict). With --metrics, collector-wide counters,
      gauges and latency histograms are served Prometheus-style on ADDR.
      --shards N splits ingestion into N independent worker shards
      (sessions route by resume-token hash; per-shard counters appear in
      status and as labelled metrics). --forward ADDR pushes this
      collector's rollup to a parent collector's status socket every
      --forward-interval-ms (default 500), forming an aggregation tree;
      give each child a distinct --collector-id so anonymous sessions
      stay distinct in the fleet aggregate. Failed pushes retry with
      capped exponential backoff, bounded per push by
      --forward-timeout-ms (default 5000); after --forward-retries
      (default 5) consecutive failures the forwarder fails over to
      --forward-fallback (when given) and probes its way back. With
      --journal, an undelivered rollup is spooled to
      <journal>/outbox.clag and re-forwarded after a restart.
      --max-rollup-sessions caps the sessions a parent retains from
      child pushes (default 65536); pushes past the cap are rejected
      whole. --window-secs N maintains sliding time windows per session:
      snapshots and rollups additionally report the critical locks of
      the most recently closed N-second window, so a never-ending
      service can be watched over the last N seconds instead of its
      whole history.
  critlock push <trace> --to ADDR [--pace-ms N] [--timeout SECS]
                [--retries N] [--fault-plan NAME|SPEC]
      Stream a recorded trace to a running collector, optionally pacing
      the event frames to emulate a live producer. Pushes are resumable:
      on transport errors the client reconnects (up to --retries times,
      default 5) and replays only what the collector has not
      acknowledged; --retries 0 pushes anonymously in a single attempt.
      --timeout bounds connect and socket I/O so a dead collector fails
      fast. --fault-plan injects deterministic transport faults
      (disconnect|truncation|bit-flip|stall|slow-loris, or a spec like
      `cut@900;flip@1200`) for testing the recovery path.
  critlock status --at ADDR [--json] [--timeout SECS]
      Query a collector's live analysis snapshots. --timeout (default 5
      seconds) bounds the query so a hung collector yields an error, not
      a hang.
  critlock health <addr> [--json] [--timeout SECS]
      Probe a collector's health over its status socket and classify it
      ok / degraded / unhealthy from queue saturation, shed and quota
      rates, journal write errors, analysis worker panics and forward
      staleness. Exit code is the classification, Nagios-style: 0 ok,
      1 degraded, 2 unhealthy, 3 unreachable — usable directly as a
      liveness/readiness probe. --timeout defaults to 5 seconds.
  critlock metrics <addr> [--timeout SECS]
      Scrape a collector's metrics endpoint (Prometheus exposition
      format). <addr> is the collector's --metrics address. --timeout
      defaults to 5 seconds.
  critlock aggregate [INPUT...] [--at ADDR] [--json] [--top N] [--out FILE]
                     [--timeout SECS]
      Merge per-session critical-lock rankings into one fleet-wide
      report: which locks are critical in what fraction of sessions, and
      their mean critical-path share. INPUTs are CLAG rollup files
      (*.clag, as written by --out or a collector), directories — every
      *.clag underneath is merged, so a dead collector's journal
      directory (with its orphaned outbox.clag spool) aggregates
      directly — and/or recorded traces, which are analyzed and
      digested on the fly; --at fetches a
      live collector's rollup (repeatable via multiple invocations and
      --out, since merging is idempotent). --out saves the merged rollup
      as a CLAG file for later (re-)aggregation. --timeout (default 5
      seconds) bounds the --at fetch. The report is
      deterministic: byte-identical for the same set of sessions, no
      matter how they were sharded, ordered or batched.
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `health` is a probe with Nagios-style exit semantics (0 ok,
    // 1 degraded, 2 unhealthy, 3 unreachable), so it bypasses the
    // ordinary ok/err exit mapping.
    if argv.first().map(String::as_str) == Some("health") {
        match args::parse(&argv).and_then(|p| cmd_health(&p)) {
            Ok((output, code)) => {
                print!("{output}");
                return ExitCode::from(code);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(3);
            }
        }
    }
    match run(&argv) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `critlock --help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<String, String> {
    let p = args::parse(argv)?;
    if p.flag("help") || p.command.is_empty() || p.command == "help" {
        return Ok(USAGE.to_string());
    }
    match p.command.as_str() {
        "list" => cmd_list(),
        "run" => cmd_run(&p),
        "analyze" => cmd_analyze(&p),
        "bench" => cmd_bench(&p),
        "blockers" => cmd_blockers(&p),
        "threads" => cmd_threads(&p),
        "gantt" => cmd_gantt(&p),
        "whatif" => cmd_whatif(&p),
        "online" => cmd_online(&p),
        "serve" => cmd_serve(&p),
        "push" => cmd_push(&p),
        "status" => cmd_status(&p),
        "health" => cmd_health(&p).map(|(output, _exit)| output),
        "metrics" => cmd_metrics(&p),
        "aggregate" => cmd_aggregate(&p),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn cmd_list() -> Result<String, String> {
    let mut out = String::from("built-in workloads:\n");
    for w in suite::all() {
        out.push_str(&format!("  {:<16} {}\n", w.name, w.description));
    }
    Ok(out)
}

fn load_trace(path: &str) -> Result<Trace, String> {
    critlock_trace::jsonl::load_auto(path).map_err(|e| format!("cannot load {path}: {e}"))
}

fn cmd_run(p: &args::Parsed) -> Result<String, String> {
    let name = p.positional(0, "workload name (see `critlock list`)")?;
    let threads: usize = p.get_or("threads", 8usize)?;
    let cfg = WorkloadCfg::with_threads(threads)
        .with_scale(p.get_or("scale", 1.0f64)?)
        .with_seed(p.get_or("seed", 42u64)?);

    let trace = suite::run_workload(name, &cfg)
        .ok_or_else(|| format!("unknown workload `{name}` (see `critlock list`)"))?
        .map_err(|e| format!("simulation failed: {e}"))?;

    let mut out = String::new();
    if let Some(path) = p.options.get("out") {
        if path.ends_with(".jsonl") {
            critlock_trace::jsonl::save(&trace, path)
        } else {
            critlock_trace::codec::save(&trace, path)
        }
        .map_err(|e| format!("cannot save {path}: {e}"))?;
        out.push_str(&format!(
            "saved trace ({} events, {} threads) to {path}\n\n",
            trace.num_events(),
            trace.num_threads()
        ));
    }
    let rep = analyze(&trace);
    out.push_str(&render_text(&rep, &RenderOptions { top: Some(10), ..Default::default() }));
    Ok(out)
}

/// Build the scoped analysis worker pool selected by `--threads`
/// (default: the host's available parallelism). Analysis output is
/// bit-identical at any pool size; the flag only trades CPU for latency.
fn analysis_pool(p: &args::Parsed) -> Result<rayon::ThreadPool, String> {
    let threads: usize = p.get_or("threads", 0usize)?;
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| format!("cannot build analysis pool: {e}"))
}

/// Build a [`critlock_trace::Budget`] from the `--max-*` / `--deadline-ms`
/// options. All limits default to unlimited.
fn budget_from(p: &args::Parsed) -> Result<critlock_trace::Budget, String> {
    let mut b = critlock_trace::Budget::unlimited();
    if let Some(v) = p.options.get("max-events") {
        b.max_events = Some(v.parse().map_err(|_| format!("invalid --max-events: {v}"))?);
    }
    if let Some(v) = p.options.get("max-threads") {
        b.max_threads = Some(v.parse().map_err(|_| format!("invalid --max-threads: {v}"))?);
    }
    if let Some(v) = p.options.get("max-bytes") {
        b.max_bytes = Some(v.parse().map_err(|_| format!("invalid --max-bytes: {v}"))?);
    }
    if let Some(v) = p.options.get("deadline-ms") {
        let ms: u64 = v.parse().map_err(|_| format!("invalid --deadline-ms: {v}"))?;
        b = b.with_deadline_in(std::time::Duration::from_millis(ms));
    }
    Ok(b)
}

fn cmd_analyze(p: &args::Parsed) -> Result<String, String> {
    let pool = analysis_pool(p)?;
    let path = p.positional(0, "trace file")?;
    let budget = budget_from(p)?;
    // --self-profile wraps every stage in a span; the recorder only
    // watches the clock, so the analysis output stays bit-identical.
    let profile = p.flag("self-profile").then(|| critlock_obs::SpanRecorder::new("analyze"));
    let (trace, salvage) = if p.flag("strict") {
        let started = std::time::Instant::now();
        let t = pool.install(|| load_trace(path))?;
        if let Some(rec) = &profile {
            rec.record_ns("decode", started.elapsed().as_nanos() as u64);
        }
        (t, None)
    } else {
        let s = pool
            .install(|| {
                critlock_trace::salvage::load_timed(path, &budget, &mut |stage, took| {
                    if let Some(rec) = &profile {
                        rec.record_ns(stage, took.as_nanos() as u64);
                    }
                })
            })
            .map_err(|e| format!("cannot load {path}: {e}"))?;
        (s.trace, Some(s.report))
    };
    let mut rep = match (p.options.get("phase"), &profile) {
        (Some(marker), rec) => {
            let started = std::time::Instant::now();
            let phased = pool
                .install(|| analyze_phase(&trace, marker))
                .ok_or_else(|| format!("marker `{marker}` not found (or fires only once)"))?;
            if let Some(rec) = rec {
                rec.record_ns("analyze_phase", started.elapsed().as_nanos() as u64);
            }
            phased
        }
        (None, Some(rec)) => pool.install(|| critlock_analysis::analyze_profiled(&trace, rec)),
        (None, None) => pool.install(|| analyze(&trace)),
    };
    if let Some(rec) = profile {
        rep.self_profile = Some(rec.finish());
    }
    let mut salvage_note = String::new();
    if let Some(report) = salvage {
        if !report.is_clean() {
            salvage_note = format!(
                "\nsalvage: kept {} events, dropped {}, synthesized {}, clamped {} \
                 timestamps, quarantined {} threads (confidence {:.3}{})\n",
                report.events_kept,
                report.events_dropped,
                report.events_synthesized,
                report.timestamps_clamped,
                report.threads_quarantined,
                report.confidence,
                if report.degraded { ", DEGRADED by budget" } else { "" },
            );
            rep.degraded = report.degraded;
            rep.salvage = Some(report);
        }
    }
    if p.flag("json") {
        return Ok(to_json(&rep));
    }
    if p.flag("csv") {
        return Ok(render_csv(&rep));
    }
    let top = p
        .options
        .get("top")
        .map(|v| v.parse::<usize>())
        .transpose()
        .map_err(|_| "invalid --top".to_string())?;
    let mut out =
        render_text(&rep, &RenderOptions { top, type2: !p.flag("no-type2"), derived: true });
    out.push_str(&salvage_note);
    Ok(out)
}

fn cmd_bench(p: &args::Parsed) -> Result<String, String> {
    use critlock_bench::perfbench::{self, BenchConfig};

    let mut cfg = BenchConfig::default();
    cfg.scale = p.get_or("scale", cfg.scale)?;
    cfg.app_threads = p.get_or("app-threads", cfg.app_threads)?;
    cfg.seed = p.get_or("seed", cfg.seed)?;
    cfg.reps = p.get_or("reps", cfg.reps)?;
    if let Some(list) = p.options.get("threads") {
        cfg.thread_counts = list
            .split(',')
            .map(|s| s.trim().parse::<usize>().map_err(|_| format!("invalid --threads: {list}")))
            .collect::<Result<Vec<_>, _>>()?;
        if cfg.thread_counts.is_empty() || cfg.thread_counts.contains(&0) {
            return Err("--threads expects a comma list of positive counts".into());
        }
    }

    let report = perfbench::run(&cfg);
    let json = perfbench::to_json(&report);
    perfbench::validate_schema(&json)
        .map_err(|e| format!("generated report fails its own schema: {e}"))?;
    let mut out = perfbench::render_text(&report);
    if let Some(path) = p.options.get("out") {
        std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    Ok(out)
}

fn cmd_blockers(p: &args::Parsed) -> Result<String, String> {
    let trace = load_trace(p.positional(0, "trace file")?)?;
    let rep = blocker_report(&trace);
    let top: usize = p.get_or("top", 15usize)?;
    let mut out = rep.render_text(top);
    if let Some(t) = rep.top_blocker() {
        out.push_str(&format!("\ntop blocker: {} (causes the most waiting in other threads)\n", t));
    }
    Ok(out)
}

fn cmd_threads(p: &args::Parsed) -> Result<String, String> {
    let trace = load_trace(p.positional(0, "trace file")?)?;
    let st = SegmentedTrace::build(&trace);
    let cp = critical_path_segmented(&trace, &st);
    let rep = thread_report(&trace, &st, &cp);
    let mut out = rep.render_text();
    out.push_str(&format!(
        "\n{} of {} threads carry part of the critical path\n",
        rep.carriers,
        trace.num_threads()
    ));
    Ok(out)
}

fn cmd_gantt(p: &args::Parsed) -> Result<String, String> {
    let trace = load_trace(p.positional(0, "trace file")?)?;
    let st = SegmentedTrace::build(&trace);
    let cp = critical_path_segmented(&trace, &st);
    let width: usize = p.get_or("width", 100usize)?;
    Ok(critlock_analysis::gantt::render(
        &trace,
        &st,
        &cp,
        &critlock_analysis::gantt::GanttOptions { width, show_cp: true },
    ))
}

fn cmd_whatif(p: &args::Parsed) -> Result<String, String> {
    let trace = load_trace(p.positional(0, "trace file")?)?;
    let lock = p.options.get("lock").ok_or_else(|| "missing --lock NAME".to_string())?;
    let factor: f64 = p.get_or("factor", 0.5f64)?;
    if !(0.0..=1.0).contains(&factor) {
        return Err("--factor must be in [0,1]".into());
    }
    let rep = analyze(&trace);
    let proj = project_shrink(&rep, lock, factor)
        .ok_or_else(|| format!("lock `{lock}` not found in trace"))?;
    Ok(format!(
        "shrinking critical sections of {} to {:.0}%:\n\
         critical-path time saved : {}\n\
         projected makespan       : {} (was {})\n\
         projected speedup        : {:.3}x (first-order upper bound)\n",
        proj.name,
        factor * 100.0,
        proj.cp_time_saved,
        proj.projected_makespan,
        rep.makespan,
        proj.projected_speedup,
    ))
}

fn cmd_online(p: &args::Parsed) -> Result<String, String> {
    let trace = load_trace(p.positional(0, "trace file")?)?;
    let rep = online_analyze(&trace);
    let mut out = format!(
        "online critical-path profile (forward pass)\ncp length {}  final thread {:?}\n",
        rep.cp_length, rep.final_thread
    );
    for l in rep.locks.iter().take(10) {
        out.push_str(&format!(
            "  {:<24} cp {:>10}  ({:.2}%)\n",
            l.name,
            l.cp_time,
            l.cp_time_frac * 100.0
        ));
    }
    Ok(out)
}

fn parse_addr(s: &str) -> Result<critlock_collector::Addr, String> {
    critlock_collector::Addr::parse(s).map_err(|e| e.to_string())
}

fn cmd_serve(p: &args::Parsed) -> Result<String, String> {
    use critlock_collector::{start, Backpressure, CollectorConfig};

    let listen = p.options.get("listen").map(String::as_str).unwrap_or("127.0.0.1:9797");
    let mut config = CollectorConfig::new(parse_addr(listen)?);
    if let Some(status) = p.options.get("status") {
        config.status_addr = Some(parse_addr(status)?);
    }
    if let Some(metrics) = p.options.get("metrics") {
        config.metrics_addr = Some(parse_addr(metrics)?);
    }
    config.queue_capacity = p.get_or("queue", config.queue_capacity)?;
    config.backpressure = match p.options.get("backpressure").map(String::as_str) {
        None | Some("block") => Backpressure::Block,
        Some("drop") => Backpressure::Drop,
        Some(other) => return Err(format!("invalid --backpressure `{other}` (block|drop)")),
    };
    config.snapshot_interval = std::time::Duration::from_millis(p.get_or("interval-ms", 200u64)?);
    if let Some(dir) = p.options.get("journal") {
        config.journal_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(v) = p.options.get("journal-quota-bytes") {
        let quota: u64 = v.parse().map_err(|_| format!("invalid --journal-quota-bytes: {v}"))?;
        if quota == 0 {
            return Err("--journal-quota-bytes must be >= 1".into());
        }
        config.journal_quota_bytes = Some(quota);
    }
    if let Some(v) = p.options.get("journal-segment-bytes") {
        let seg: u64 = v.parse().map_err(|_| format!("invalid --journal-segment-bytes: {v}"))?;
        if seg == 0 {
            return Err("--journal-segment-bytes must be >= 1".into());
        }
        config.journal_segment_bytes = Some(seg);
    }
    if let Some(ms) = p.options.get("checkpoint-interval-ms") {
        let ms: u64 = ms.parse().map_err(|_| format!("invalid --checkpoint-interval-ms: {ms}"))?;
        config.checkpoint_interval = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = p.options.get("idle-timeout-ms") {
        let ms: u64 = ms.parse().map_err(|_| format!("invalid --idle-timeout-ms: {ms}"))?;
        config.idle_timeout = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(threads) = p.options.get("threads") {
        let threads: usize =
            threads.parse().map_err(|_| format!("invalid --threads: {threads}"))?;
        if threads == 0 {
            return Err("--threads must be >= 1".into());
        }
        config.analysis_threads = Some(threads);
    }
    if let Some(v) = p.options.get("max-sessions") {
        config.max_sessions = Some(v.parse().map_err(|_| format!("invalid --max-sessions: {v}"))?);
    }
    if let Some(v) = p.options.get("session-quota-bytes") {
        config.session_quota_bytes =
            Some(v.parse().map_err(|_| format!("invalid --session-quota-bytes: {v}"))?);
    }
    if let Some(v) = p.options.get("max-events") {
        config.max_events = Some(v.parse().map_err(|_| format!("invalid --max-events: {v}"))?);
    }
    config.strict = p.flag("strict");
    config.shards = p.get_or("shards", config.shards)?;
    if config.shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    if let Some(parent) = p.options.get("forward") {
        config.forward = Some(parse_addr(parent)?);
    }
    config.forward_interval =
        std::time::Duration::from_millis(p.get_or("forward-interval-ms", 500u64)?);
    if let Some(fallback) = p.options.get("forward-fallback") {
        config.forward_fallback = Some(parse_addr(fallback)?);
    }
    config.forward_timeout =
        std::time::Duration::from_millis(p.get_or("forward-timeout-ms", 5000u64)?);
    let retries: u32 = p.get_or("forward-retries", config.forward_retry.max_attempts)?;
    if retries == 0 {
        return Err("--forward-retries must be >= 1".into());
    }
    config.forward_retry = critlock_trace::RetryPolicy::with_attempts(retries);
    if let Some(spec) = p.options.get("forward-fault-plan") {
        config.forward_fault_plan = Some(
            critlock_trace::FaultPlan::resolve(spec)
                .map_err(|e| format!("invalid --forward-fault-plan: {e}"))?,
        );
    }
    if let Some(id) = p.options.get("collector-id") {
        config.collector_id = id.clone();
    }
    config.max_rollup_sessions = p.get_or("max-rollup-sessions", config.max_rollup_sessions)?;
    if config.max_rollup_sessions == 0 {
        return Err("--max-rollup-sessions must be >= 1".into());
    }
    if let Some(secs) = p.options.get("window-secs") {
        let secs: u64 = secs.parse().map_err(|_| format!("invalid --window-secs: {secs}"))?;
        if secs == 0 {
            return Err("--window-secs must be >= 1".into());
        }
        // Instrumented sessions timestamp events in nanoseconds.
        config.window_width = Some(secs.saturating_mul(1_000_000_000));
    }

    let handle = start(config).map_err(|e| format!("cannot start collector: {e}"))?;
    println!("critlock collector: ingest on {}", handle.ingest_addr());
    if let Some(status) = handle.status_addr() {
        println!("critlock collector: status on {status}");
    }
    if let Some(metrics) = handle.metrics_addr() {
        println!("critlock collector: metrics on {metrics}");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // Foreground daemon: run until the process is killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Default `--timeout` of the control verbs (`status`, `health`,
/// `metrics`, `aggregate --at`), so a wedged collector cannot hang them.
const CONTROL_TIMEOUT_SECS: u64 = 5;

/// Parse `--timeout SECS`, falling back to `default` seconds; `None`
/// blocks indefinitely. Clamped to at least one second, because sockets
/// reject a zero timeout.
fn io_timeout(
    p: &args::Parsed,
    default: Option<u64>,
) -> Result<Option<std::time::Duration>, String> {
    let secs = match p.options.get("timeout") {
        Some(s) => Some(s.parse::<u64>().map_err(|_| format!("invalid --timeout: {s}"))?),
        None => default,
    };
    Ok(secs.map(|secs| std::time::Duration::from_secs(secs.max(1))))
}

fn cmd_push(p: &args::Parsed) -> Result<String, String> {
    let trace = load_trace(p.positional(0, "trace file")?)?;
    let to = p.options.get("to").ok_or_else(|| "missing --to ADDR".to_string())?;
    let addr = parse_addr(to)?;
    let pace = match p.options.get("pace-ms") {
        Some(ms) => Some(std::time::Duration::from_millis(
            ms.parse().map_err(|_| format!("invalid --pace-ms: {ms}"))?,
        )),
        None => None,
    };
    let timeout = io_timeout(p, None)?;
    let retries: u32 = p.get_or("retries", 5u32)?;
    let fault_plan = p
        .options
        .get("fault-plan")
        .map(|spec| critlock_trace::FaultPlan::resolve(spec))
        .transpose()
        .map_err(|e| format!("invalid --fault-plan: {e}"))?;
    let opts = critlock_collector::PushOptions {
        pace,
        timeout,
        retry: critlock_trace::RetryPolicy::with_attempts(retries),
        fault_plan,
        token: None,
    };
    let sent = critlock_collector::push_with(&addr, &trace, &opts)
        .map_err(|e| format!("push to {addr} failed: {e}"))?;
    Ok(format!(
        "pushed {sent} frames ({} events, {} threads) to {addr}\n",
        trace.num_events(),
        trace.num_threads()
    ))
}

fn cmd_status(p: &args::Parsed) -> Result<String, String> {
    let at = p.options.get("at").ok_or_else(|| "missing --at ADDR".to_string())?;
    let addr = parse_addr(at)?;
    let timeout = io_timeout(p, Some(CONTROL_TIMEOUT_SECS))?;
    let reply = critlock_collector::fetch_status_text_timeout(&addr, p.flag("json"), timeout)
        .map_err(|e| format!("status query to {addr} failed: {e}"))?;
    if reply.is_empty() {
        // The ingest socket (and anything else that is not a status
        // endpoint) hangs up without replying.
        return Err(format!("status query to {addr} failed: empty reply (not a status endpoint?)"));
    }
    Ok(reply)
}

/// `critlock health`: probe a collector and classify it. Returns the
/// rendered report plus the Nagios-style exit code (0 ok, 1 degraded,
/// 2 unhealthy); transport errors bubble up as `Err` and exit 3.
fn cmd_health(p: &args::Parsed) -> Result<(String, u8), String> {
    let at = p.positional(0, "status address")?;
    let addr = parse_addr(at)?;
    let timeout = io_timeout(p, Some(CONTROL_TIMEOUT_SECS))?;
    let report = critlock_collector::fetch_health(&addr, timeout)
        .map_err(|e| format!("health probe of {addr} failed: {e}"))?;
    let output = if p.flag("json") {
        let mut json = report.render_json()?;
        json.push('\n');
        json
    } else {
        report.render_text()
    };
    Ok((output, report.class.exit_code()))
}

fn cmd_metrics(p: &args::Parsed) -> Result<String, String> {
    let at = p.positional(0, "metrics address")?;
    let addr = parse_addr(at)?;
    let timeout = io_timeout(p, Some(CONTROL_TIMEOUT_SECS))?;
    let reply = critlock_collector::fetch_metrics_text(&addr, timeout)
        .map_err(|e| format!("metrics scrape from {addr} failed: {e}"))?;
    if reply.is_empty() {
        return Err(format!(
            "metrics scrape from {addr} failed: empty reply (not a metrics endpoint?)"
        ));
    }
    Ok(reply)
}

/// Collect every `*.clag` file under `dir`, recursively, in sorted
/// order (so directory aggregation is deterministic).
fn collect_clag_files(
    dir: &std::path::Path,
    out: &mut Vec<std::path::PathBuf>,
) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_clag_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "clag") {
            out.push(path);
        }
    }
    Ok(())
}

fn cmd_aggregate(p: &args::Parsed) -> Result<String, String> {
    use critlock_aggregate::FleetReport;
    use critlock_trace::rollup::Rollup;

    let timeout = io_timeout(p, Some(CONTROL_TIMEOUT_SECS))?;
    let mut rollup = Rollup::new();
    for input in &p.positionals {
        let path = std::path::Path::new(input);
        if path.is_dir() {
            // A directory (e.g. a dead collector's journal dir): merge
            // every *.clag underneath, sorted for determinism. This is
            // how an orphaned outbox.clag spool gets ingested.
            let mut files = Vec::new();
            collect_clag_files(path, &mut files)?;
            if files.is_empty() {
                return Err(format!("no .clag files under {input}"));
            }
            for file in files {
                let part = Rollup::load(&file)
                    .map_err(|e| format!("cannot load {}: {e}", file.display()))?;
                rollup.merge(&part);
            }
        } else if input.ends_with(".clag") {
            let part = Rollup::load(input).map_err(|e| format!("cannot load {input}: {e}"))?;
            rollup.merge(&part);
        } else {
            // A recorded trace: analyze it here and digest the report,
            // keyed by its path — the same digest a collector would
            // publish for the session.
            let trace = load_trace(input)?;
            rollup.insert(critlock_analysis::digest_report(input, &analyze(&trace)));
        }
    }
    if let Some(at) = p.options.get("at") {
        let addr = parse_addr(at)?;
        let part = critlock_collector::fetch_rollup(&addr, timeout)
            .map_err(|e| format!("rollup fetch from {addr} failed: {e}"))?;
        rollup.merge(&part);
    }
    if p.positionals.is_empty() && !p.options.contains_key("at") {
        return Err("nothing to aggregate: give CLAG/trace inputs and/or --at ADDR".into());
    }

    let mut out = String::new();
    if let Some(path) = p.options.get("out") {
        rollup.save(path).map_err(|e| format!("cannot write {path}: {e}"))?;
        out.push_str(&format!("wrote rollup ({} session(s)) to {path}\n", rollup.len()));
    }
    let report = FleetReport::from_rollup(&rollup);
    if p.flag("json") {
        out.push_str(&report.to_json());
        return Ok(out);
    }
    let top = p
        .options
        .get("top")
        .map(|v| v.parse::<usize>())
        .transpose()
        .map_err(|_| "invalid --top".to_string())?;
    out.push_str(&report.render_text(top));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&sv(&["--help"])).unwrap().contains("USAGE"));
        assert!(run(&sv(&[])).unwrap().contains("USAGE"));
        assert!(run(&sv(&["bogus"])).is_err());
    }

    #[test]
    fn control_verbs_time_out_against_a_silent_listener() {
        // A listener that accepts and holds each connection open without
        // ever replying, until the test is done.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (done, wait_done) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let held: Vec<_> = listener.incoming().take(2).collect();
            let _ = wait_done.recv();
            drop(held);
        });
        for (argv, bound) in [
            (vec!["status", "--at", &addr, "--timeout", "1"], 1),
            (vec!["status", "--at", &addr], CONTROL_TIMEOUT_SECS),
        ] {
            let started = std::time::Instant::now();
            let err = run(&sv(&argv)).unwrap_err();
            let waited = started.elapsed();
            assert!(err.contains("status query"), "{argv:?}: {err}");
            assert!(
                waited < std::time::Duration::from_secs(bound + 3),
                "{argv:?} waited {waited:?}"
            );
        }
        assert!(run(&sv(&["status", "--at", &addr, "--timeout", "x"])).is_err());
        drop(done);
        holder.join().unwrap();
    }

    #[test]
    fn list_contains_workloads() {
        let out = run(&sv(&["list"])).unwrap();
        assert!(out.contains("radiosity"));
        assert!(out.contains("tsp-opt"));
    }

    #[test]
    fn run_analyze_gantt_whatif_roundtrip() {
        let dir = std::env::temp_dir().join("critlock-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("micro.cltr");
        let path_s = path.to_str().unwrap();

        let out = run(&sv(&["run", "micro", "--threads", "4", "--scale", "0.2", "--out", path_s]))
            .unwrap();
        assert!(out.contains("saved trace"));
        assert!(out.contains("L2"));

        let out = run(&sv(&["analyze", path_s])).unwrap();
        assert!(out.contains("CP Time %"));
        let out = run(&sv(&["analyze", path_s, "--json"])).unwrap();
        assert!(out.trim_start().starts_with('{'));
        let out = run(&sv(&["analyze", path_s, "--csv"])).unwrap();
        assert!(out.starts_with("lock,"));

        let out = run(&sv(&["gantt", path_s, "--width", "60"])).unwrap();
        assert!(out.contains("cp |"));

        let out = run(&sv(&["whatif", path_s, "--lock", "L2", "--factor", "0.5"])).unwrap();
        assert!(out.contains("projected speedup"));
        assert!(run(&sv(&["whatif", path_s, "--lock", "nope"])).is_err());

        let out = run(&sv(&["online", path_s])).unwrap();
        assert!(out.contains("cp length"));

        let out = run(&sv(&["blockers", path_s])).unwrap();
        assert!(out.contains("blocking edges"));
        let out = run(&sv(&["threads", path_s])).unwrap();
        assert!(out.contains("cp %"));
        assert!(run(&sv(&["analyze", path_s, "--phase", "nope"])).is_err());

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_unknown_workload_fails() {
        assert!(run(&sv(&["run", "nope"])).is_err());
    }

    /// Regression: `--deadline-ms u64::MAX` used to panic in
    /// `Instant + Duration` overflow inside the budget; it must now mean
    /// "no deadline" and analyze normally.
    #[test]
    fn analyze_with_huge_deadline_does_not_panic() {
        let dir = std::env::temp_dir().join("critlock-cli-deadline");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("micro.cltr");
        let path_s = path.to_str().unwrap();
        run(&sv(&["run", "micro", "--threads", "2", "--scale", "0.2", "--out", path_s])).unwrap();

        let out = run(&sv(&["analyze", path_s, "--deadline-ms", "18446744073709551615"])).unwrap();
        assert!(out.contains("CP Time %"));
        std::fs::remove_file(&path).ok();
    }

    /// `--self-profile` embeds the per-stage span tree in the JSON report
    /// and changes nothing else: stripping the profile must restore a
    /// report equal to the unprofiled run.
    #[test]
    fn analyze_self_profile_embeds_spans_and_stays_bit_identical() {
        use critlock_analysis::AnalysisReport;

        let dir = std::env::temp_dir().join("critlock-cli-selfprof");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("micro.cltr");
        let path_s = path.to_str().unwrap();
        run(&sv(&["run", "micro", "--threads", "2", "--scale", "0.2", "--out", path_s])).unwrap();

        let plain_json = run(&sv(&["analyze", path_s, "--json"])).unwrap();
        let prof_json = run(&sv(&["analyze", path_s, "--json", "--self-profile"])).unwrap();
        assert!(!plain_json.contains("self_profile"));

        let plain: AnalysisReport = serde_json::from_str(&plain_json).unwrap();
        let mut prof: AnalysisReport = serde_json::from_str(&prof_json).unwrap();
        let spans = prof.self_profile.take().expect("--self-profile must embed spans");
        for stage in ["decode", "salvage", "segments", "cp_walk", "metrics"] {
            assert!(spans.find(stage).is_some(), "missing span `{stage}`");
        }
        assert_eq!(plain, prof, "--self-profile must not change the analysis");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_verb_arg_errors() {
        assert!(run(&sv(&["metrics"])).unwrap_err().contains("metrics address"));
        assert!(run(&sv(&["metrics", "not an addr !"])).is_err());
    }

    #[test]
    fn analyze_missing_file_fails() {
        assert!(run(&sv(&["analyze", "/definitely/not/here.cltr"])).is_err());
    }

    #[test]
    fn analyze_empty_file_is_a_clean_error() {
        let dir = std::env::temp_dir().join("critlock-cli-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.cltr");
        std::fs::write(&path, b"").unwrap();
        let err = run(&sv(&["analyze", path.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("cannot load"), "unexpected error text: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analyze_truncated_trace_is_a_clean_error_under_strict() {
        let dir = std::env::temp_dir().join("critlock-cli-trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let full = dir.join("full.cltr");
        let full_s = full.to_str().unwrap();
        run(&sv(&["run", "micro", "--threads", "2", "--scale", "0.2", "--out", full_s])).unwrap();

        let bytes = std::fs::read(&full).unwrap();
        let cut = dir.join("cut.cltr");
        // Cut the file at several byte offsets, including mid-header and
        // mid-event; under --strict every truncation must be an error,
        // never a panic or a silently shortened trace. In default
        // (salvage) mode the same cuts must either recover a degraded
        // trace — visible in the report's salvage section — or fail with
        // the same clean error, never a panic.
        for frac in [1, 3, 7, 9] {
            let cut_len = bytes.len() * frac / 10;
            std::fs::write(&cut, &bytes[..cut_len]).unwrap();
            let err = run(&sv(&["analyze", cut.to_str().unwrap(), "--strict"])).unwrap_err();
            assert!(err.contains("cannot load"), "cut at {cut_len}: {err}");
            match run(&sv(&["analyze", cut.to_str().unwrap(), "--json"])) {
                Ok(json) => {
                    assert!(json.contains("\"salvage\""), "cut at {cut_len}: no salvage: {json}")
                }
                Err(err) => assert!(err.contains("cannot load"), "cut at {cut_len}: {err}"),
            }
        }
        std::fs::remove_file(&full).ok();
        std::fs::remove_file(&cut).ok();
    }

    /// Acceptance criterion of the salvage work: every transport fault of
    /// the PR 2 matrix, applied as a byte-level mutation to an on-disk
    /// CLTR file, must yield either a salvaged analysis whose report
    /// carries a non-empty salvage section, or a typed `cannot load`
    /// error under `--strict` — never a panic, and never a silently
    /// wrong report.
    #[test]
    fn fault_matrix_on_disk_salvages_or_errors_cleanly() {
        use critlock_trace::{FaultAction, FaultPlan};

        let dir = std::env::temp_dir().join("critlock-cli-fault-matrix");
        std::fs::create_dir_all(&dir).unwrap();
        let full = dir.join("full.cltr");
        let full_s = full.to_str().unwrap();
        run(&sv(&["run", "radiosity", "--threads", "8", "--scale", "0.3", "--out", full_s]))
            .unwrap();
        let bytes = std::fs::read(&full).unwrap();
        // The built-in plans anchor faults at offsets up to 2500.
        assert!(bytes.len() > 2600, "trace file too small for the fault matrix");
        let pristine = run(&sv(&["analyze", full_s, "--json"])).unwrap();

        let hurt = dir.join("hurt.cltr");
        let hurt_s = hurt.to_str().unwrap();
        for plan in FaultPlan::all_builtin() {
            let mut mutated = bytes.clone();
            for action in &plan.actions {
                match *action {
                    FaultAction::Cut { at } => mutated.truncate(at as usize),
                    FaultAction::Truncate { at, drop } => {
                        let at = (at as usize).min(mutated.len());
                        let end = (at + drop as usize).min(mutated.len());
                        mutated.drain(at..end);
                    }
                    FaultAction::BitFlip { at } => {
                        let at = (at as usize).min(mutated.len() - 1);
                        mutated[at] ^= critlock_trace::faults::FLIP_MASK;
                    }
                    // Timing faults do not change bytes at rest.
                    FaultAction::Stall { .. } | FaultAction::SlowLoris { .. } => {}
                }
            }
            std::fs::write(&hurt, &mutated).unwrap();

            if mutated == bytes {
                // stall / slow-loris: byte-identical file, identical report.
                let out = run(&sv(&["analyze", hurt_s, "--json"])).unwrap();
                assert_eq!(
                    out, pristine,
                    "plan {}: clean file must analyze identically",
                    plan.name
                );
                continue;
            }
            let err = run(&sv(&["analyze", hurt_s, "--strict"]))
                .expect_err(&format!("plan {}: strict must reject mutated bytes", plan.name));
            assert!(err.contains("cannot load"), "plan {}: {err}", plan.name);
            match run(&sv(&["analyze", hurt_s, "--json"])) {
                Ok(json) => assert!(
                    json.contains("\"salvage\""),
                    "plan {}: salvaged analysis must report what was repaired: {json}",
                    plan.name
                ),
                Err(err) => assert!(err.contains("cannot load"), "plan {}: {err}", plan.name),
            }
        }
        std::fs::remove_file(&full).ok();
        std::fs::remove_file(&hurt).ok();
    }

    #[test]
    fn analyze_salvage_mode_is_identical_on_clean_traces() {
        let dir = std::env::temp_dir().join("critlock-cli-salvage-clean");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("micro.cltr");
        let path_s = path.to_str().unwrap();
        run(&sv(&["run", "micro", "--threads", "4", "--scale", "0.2", "--out", path_s])).unwrap();

        // On an uncorrupted trace, default (salvage) mode must be
        // byte-identical to --strict in every output format.
        for fmt in [&["--json"][..], &["--csv"][..], &[][..]] {
            let mut strict = sv(&["analyze", path_s, "--strict"]);
            strict.extend(fmt.iter().map(|s| s.to_string()));
            let mut lax = sv(&["analyze", path_s]);
            lax.extend(fmt.iter().map(|s| s.to_string()));
            assert_eq!(run(&strict).unwrap(), run(&lax).unwrap(), "format {fmt:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analyze_budget_exhaustion_degrades_not_aborts() {
        let dir = std::env::temp_dir().join("critlock-cli-budget");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("radiosity.cltr");
        let path_s = path.to_str().unwrap();
        run(&sv(&["run", "radiosity", "--threads", "8", "--scale", "0.3", "--out", path_s]))
            .unwrap();

        let json = run(&sv(&["analyze", path_s, "--json", "--max-events", "64"])).unwrap();
        assert!(json.contains("\"degraded\": true"), "missing degraded flag: {json}");
        assert!(json.contains("\"salvage\""), "missing salvage report: {json}");
        // Text mode flags the degradation too.
        let text = run(&sv(&["analyze", path_s, "--max-events", "64"])).unwrap();
        assert!(text.contains("DEGRADED"), "missing degradation note: {text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analyze_is_byte_identical_across_thread_counts() {
        let dir = std::env::temp_dir().join("critlock-cli-threads");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("radiosity.cltr");
        let path_s = path.to_str().unwrap();
        run(&sv(&["run", "radiosity", "--threads", "8", "--scale", "0.3", "--out", path_s]))
            .unwrap();

        let serial = run(&sv(&["analyze", path_s, "--json", "--threads", "1"])).unwrap();
        let parallel = run(&sv(&["analyze", path_s, "--json", "--threads", "8"])).unwrap();
        assert_eq!(serial, parallel, "analysis output must not depend on the pool size");
        // The default (host parallelism) must agree too.
        let auto = run(&sv(&["analyze", path_s, "--json"])).unwrap();
        assert_eq!(serial, auto);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bench_writes_valid_report() {
        let dir = std::env::temp_dir().join("critlock-cli-bench");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path_s = path.to_str().unwrap();
        let out = run(&sv(&[
            "bench",
            "--scale",
            "0.05",
            "--app-threads",
            "4",
            "--reps",
            "1",
            "--threads",
            "1,2",
            "--out",
            path_s,
        ]))
        .unwrap();
        assert!(out.contains("available_parallelism"));
        let json = std::fs::read_to_string(&path).unwrap();
        critlock_bench::perfbench::validate_schema(&json).unwrap();
        assert!(run(&sv(&["bench", "--threads", "0"])).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_output_format() {
        let dir = std::env::temp_dir().join("critlock-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("micro.jsonl");
        let path_s = path.to_str().unwrap();
        run(&sv(&["run", "micro", "--threads", "2", "--scale", "0.2", "--out", path_s])).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().next().unwrap().contains("\"meta\""));
        run(&sv(&["analyze", path_s])).unwrap();
        std::fs::remove_file(&path).ok();
    }
}
