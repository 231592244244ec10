//! `live`: fixed-size recorded simulated sessions replayed one at a time
//! over the real CLSM socket path (`push_with`) into an in-process
//! collector with shipping defaults and a journal. After each session's
//! last frame, one status request fetches its report. Loads frame
//! validation, the journal, the queue, the assembler, the snapshot and
//! status serving; the analysis runs on each served snapshot of a session
//! rather than once on a complete trace as in `offline`.
//!
//! Each session gets a fresh collector: the collector never forgets a
//! session, so a shared one would make every status response longer than
//! the last and a run's numbers would depend on its length. A session
//! completes well inside the 200 ms snapshot tick, so the one status
//! request is the only snapshot refresh and it always includes new
//! events.

use crate::served::{await_report, start_collector, Counters, IO_TIMEOUT};
use crate::stats::{median, ms, Facts, Metrics, Samples, ScratchDir, Spans, Tally};
use crate::{gate, instrument, keep_going, layer_counters, replay, setup_repeated, Run};
use critlock_analysis::{analyze, AnalysisReport};
use critlock_collector::{push_with, Addr, PushOptions};
use critlock_trace::stream::trace_frames;
use critlock_trace::{RetryPolicy, Trace};
use critlock_workloads::{radiosity, WorkloadCfg};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Input sizes of one run.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Distinct recorded sessions, replayed round-robin.
    pub pool: usize,
    /// Simulated application threads per session.
    pub threads: usize,
    /// Radiosity input scale per session.
    pub scale: f64,
    pub min_samples: usize,
}

impl Sizes {
    pub fn standard() -> Sizes {
        Sizes { pool: 24, threads: 8, scale: 1.5, min_samples: 100 }
    }

    pub fn tiny() -> Sizes {
        Sizes { pool: 2, threads: 4, scale: 0.05, min_samples: 3 }
    }
}

struct Recorded {
    trace: Trace,
    events: u64,
    reference: AnalysisReport,
}

/// Simulate the session pool (each session from its own seed derived
/// from the run's) and analyze each one for the correctness gate.
fn setup(seed: u64, sizes: &Sizes) -> Result<Vec<Recorded>, String> {
    (0..sizes.pool as u64)
        .map(|i| {
            let cfg = WorkloadCfg::with_threads(sizes.threads)
                .with_scale(sizes.scale)
                .with_seed(seed.wrapping_mul(1_000_003).wrapping_add(i));
            let trace = radiosity::run(&cfg).map_err(|e| format!("simulate: {e}"))?;
            Ok(Recorded { events: trace.num_events() as u64, reference: analyze(&trace), trace })
        })
        .collect()
}

/// Samples of one phase.
#[derive(Default)]
struct Phase {
    tally: Tally,
    samples: Samples,
    /// Each session's events over its push-to-visible time.
    rates: Vec<f64>,
    status_requests: u64,
    counters: Vec<Counters>,
    spans: Spans,
}

/// A loopback listener that reads every push to its end and discards
/// it: the producer's path with no collector behind the socket.
struct Discard {
    addr: Addr,
    port: u16,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Discard {
    fn start() -> Result<Discard, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("discard: {e}"))?;
        let port = listener.local_addr().map_err(|e| format!("discard: {e}"))?.port();
        let addr = Addr::parse(&format!("127.0.0.1:{port}")).map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(mut conn) = conn {
                    let _ = conn.set_read_timeout(Some(IO_TIMEOUT));
                    let _ = std::io::copy(&mut conn, &mut std::io::sink());
                }
            }
        });
        Ok(Discard { addr, port, stop, thread: Some(thread) })
    }
}

impl Drop for Discard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop so it sees the flag.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One session: push, wait for visibility, one status request, gate.
fn session(
    rec: &Recorded,
    journal_dir: &Path,
    discard: &Discard,
    phase: &mut Phase,
) -> Result<(), bool> {
    let fail = |why: String| {
        eprintln!("live: {why}");
        false
    };
    let opts =
        PushOptions { timeout: Some(IO_TIMEOUT), retry: RetryPolicy::none(), ..Default::default() };
    let bare_at = Instant::now();
    push_with(&discard.addr, &rec.trace, &opts).map_err(|e| fail(format!("bare push: {e}")))?;
    let plain = bare_at.elapsed();
    let handle = start_collector(Some(journal_dir.to_path_buf())).map_err(fail)?;
    let pushed_at = Instant::now();
    let pushed = push_with(handle.ingest_addr(), &rec.trace, &opts);
    let push_done = Instant::now();
    let outcome = pushed
        .map_err(|e| fail(format!("push: {e}")))
        .and_then(|_| await_report(&handle, rec.events, &mut phase.status_requests).map_err(fail))
        .and_then(|served| {
            let visible = served.visible_at - push_done;
            phase.samples.visible_ms.push(ms(visible));
            phase.samples.status_ms.push(ms(served.status));
            phase
                .samples
                .slowdown
                .push((push_done - pushed_at).as_secs_f64() / plain.as_secs_f64());
            phase.spans.add("visible", ms(visible));
            phase.rates.push(rec.events as f64 / (served.visible_at - pushed_at).as_secs_f64());
            gate::live(&served.snapshot, rec.events, &rec.reference).map_err(|why| {
                eprintln!("live: {why}");
                true
            })
        });
    phase.counters.push(Counters::read(&handle));
    handle.shutdown();
    outcome
}

fn measure(pool: &[Recorded], seconds: f64, min_samples: usize) -> Result<Phase, String> {
    let scratch = ScratchDir::new("live").map_err(|e| format!("scratch dir: {e}"))?;
    let discard = Discard::start()?;
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut k = 0usize;
    while keep_going(start, seconds, phase.samples.visible_ms.len(), min_samples) {
        let dir = scratch.path().join(format!("collector-{k}"));
        let rec = &pool[k % pool.len()];
        let outcome = session(rec, &dir, &discard, &mut phase);
        phase.tally.record(outcome);
        let _ = std::fs::remove_dir_all(&dir);
        k += 1;
    }
    Ok(phase)
}

pub fn run(seed: u64, seconds: f64, traced: bool, sizes: &Sizes) -> Result<Run, String> {
    let (pool, setup_s) = setup_repeated(|| setup(seed, sizes))?;
    let plain = measure(&pool, seconds, sizes.min_samples)?;
    let mut facts = Facts::default();
    facts.int("input_events", pool.iter().map(|r| r.events).sum());
    facts.int("input_sessions", pool.len() as u64);
    facts.int("input_events_per_session_max", pool.iter().map(|r| r.events).max().unwrap_or(0));
    facts.int("app_threads_simulated", sizes.threads as u64);
    facts.int("generator_threads", 2);
    facts.int("generator_connections", 2);
    facts.int("sessions_served", plain.tally.attempted);
    facts.int("status_requests", plain.status_requests);
    let mut metrics = Metrics::default();
    plain.samples.report(traced, setup_s, median(&plain.rates), &mut facts, &mut metrics);
    let mut tally = plain.tally;
    if traced {
        let mut spanned = measure(&pool, seconds, sizes.min_samples)?;
        tally.absorb(spanned.tally);
        facts.int("samples_traced", spanned.samples.visible_ms.len() as u64);
        let scratch = ScratchDir::new("live-replay").map_err(|e| format!("scratch dir: {e}"))?;
        for (i, rec) in pool.iter().enumerate() {
            replay::replay_session(
                &trace_frames(&rec.trace),
                rec.events,
                scratch.path(),
                i as u64,
                &mut spanned.spans,
            )?;
        }
        replay::layer_metrics(&spanned.spans, &mut metrics);
        let wait = replay::wait_ms(&spanned.spans);
        metrics.set("collector.wait_ms_per_session", wait, "ms");
        layer_counters(&spanned.counters, &mut metrics);
        instrument::probe(true, &mut metrics)?;
        crate::tracing_overhead(&mut metrics, median(&plain.rates), median(&spanned.rates));
    }
    Ok(Run { tally, metrics, facts })
}
