//! `app`: two real instrumented threads streaming live through
//! `Session::stream_to_writer` into a collector with shipping defaults
//! and no journal. Each thread takes its own instrumented mutex around
//! short critical sections, so the only lock the threads share is the
//! profiler's session-wide sink mutex. Every rep is paired with an
//! uninstrumented run of the same loop on the same kind of lock.
//!
//! One hot lock shared by both threads on a 2-CPU host made the slowdown
//! median swing between 3.2x and 4.4x across identical runs; per-thread
//! locks hold it steady and leave the sink mutex as the shared resource.

use crate::instrument::{self, SinkStats, TimedSink};
use crate::served::{await_report, start_collector, Counters, IO_TIMEOUT};
use crate::stats::{median, ms, Facts, Metrics, Samples, ScratchDir, Spans, Tally};
use crate::{gate, keep_going, layer_counters, replay, setup_repeated, Run};
use critlock_analysis::{analyze, digest_report, AnalysisReport};
use critlock_collector::CollectorHandle;
use critlock_instrument::{spawn, Session};
use critlock_sim::{MachineConfig, Op, ScriptProgram, Simulator};
use critlock_trace::stream::{Frame, StreamReader};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Application threads per rep.
pub const APP_THREADS: usize = 2;

/// Traced reps whose frames are kept for the layer replay.
const REPLAYED_REPS: usize = 8;

/// Input sizes of one run.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Distinct schedules, used round-robin by the reps.
    pub pool: usize,
    /// Critical sections per thread per rep.
    pub iters: usize,
    pub min_samples: usize,
}

impl Sizes {
    pub fn standard() -> Sizes {
        Sizes { pool: 24, iters: 20_000, min_samples: 100 }
    }

    pub fn tiny() -> Sizes {
        Sizes { pool: 2, iters: 300, min_samples: 3 }
    }
}

/// Spin steps inside and after each critical section, per thread.
type Steps = Arc<Vec<(u8, u8)>>;

/// One rep's input: per-thread schedules, and the lock shape the
/// simulator predicts for them (name, invocations, any contention).
struct Schedule {
    threads: Vec<Steps>,
    model: Vec<(String, u64, bool)>,
}

fn lock_name(i: usize) -> String {
    format!("lock-{i}")
}

/// What the gate compares between the model and a served report.
fn shape(report: &AnalysisReport) -> Vec<(String, u64, bool)> {
    let mut locks: Vec<_> = report
        .locks
        .iter()
        .map(|l| (l.name.clone(), l.total_invocations, l.avg_cont_prob > 0.0))
        .collect();
    locks.sort();
    locks
}

/// Draw the schedules from the seed and run each through the simulator
/// (one virtual ns per spin step) to get the lock shape the instrumented
/// app must reproduce.
fn setup(seed: u64, sizes: &Sizes) -> Result<Vec<Schedule>, String> {
    (0..sizes.pool as u64)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(1_000_003).wrapping_add(i));
            let threads: Vec<Steps> = (0..APP_THREADS)
                .map(|_| {
                    let steps = (0..sizes.iters)
                        .map(|_| (rng.gen_range(8u8..40), rng.gen_range(8u8..80)))
                        .collect();
                    Arc::new(steps)
                })
                .collect();
            let mut sim = Simulator::new(
                "pipebench-app",
                MachineConfig::default().with_contexts(APP_THREADS),
            );
            for (t, steps) in threads.iter().enumerate() {
                let lock = sim.add_lock(lock_name(t));
                let ops = steps
                    .iter()
                    .flat_map(|&(cs, gap)| [Op::Critical(lock, cs.into()), Op::Compute(gap.into())])
                    .collect();
                sim.spawn(format!("worker-{t}"), ScriptProgram::new(ops));
            }
            let model = sim.run().map_err(|e| format!("simulate: {e}"))?;
            Ok(Schedule { threads, model: shape(&analyze(&model)) })
        })
        .collect()
}

fn spin(steps: u8) {
    for i in 0..steps {
        std::hint::black_box(i);
    }
}

/// Wall time of the uninstrumented loop: the same schedule on plain
/// `parking_lot` mutexes (what the instrumented mutex wraps).
fn plain_rep(schedule: &Schedule) -> Duration {
    let start = Instant::now();
    let workers: Vec<_> = schedule
        .threads
        .iter()
        .map(|steps| {
            let steps = Arc::clone(steps);
            std::thread::spawn(move || {
                let lock = parking_lot::Mutex::new(0u64);
                for &(cs, gap) in steps.iter() {
                    let mut held = lock.lock();
                    *held += 1;
                    spin(cs);
                    drop(held);
                    spin(gap);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("plain worker panicked");
    }
    start.elapsed()
}

/// Samples of one phase.
#[derive(Default)]
struct Phase {
    tally: Tally,
    samples: Samples,
    /// Each rep's events over its spawn-to-visible time.
    rates: Vec<f64>,
    status_requests: u64,
    events: Vec<f64>,
    counters: Vec<Counters>,
    spans: Spans,
    /// Frames of the first reps, for the layer replay.
    recorded: Vec<(Vec<Frame>, u64)>,
}

/// The instrumented rep against `handle`; returns its wall time from
/// spawn to join, or why it failed (`true`: wrong output).
fn instrumented_rep(
    schedule: &Schedule,
    handle: &CollectorHandle,
    stats: Option<Arc<SinkStats>>,
    phase: &mut Phase,
) -> Result<Duration, (bool, String)> {
    let io = |what: &str, e: &dyn std::fmt::Display| (false, format!("{what}: {e}"));
    let conn =
        TcpStream::connect(handle.ingest_addr().to_string()).map_err(|e| io("connect", &e))?;
    conn.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| io("socket", &e))?;
    let session = Session::new("pipebench-app");
    let attached = match &stats {
        Some(stats) => {
            session.stream_to_writer(TimedSink { inner: conn, stats: Arc::clone(stats) })
        }
        None => session.stream_to_writer(conn),
    };
    if let Err(e) = attached {
        // The session registered this thread; finishing it releases the
        // registration so the next rep can start a session here.
        let _ = session.finish();
        return Err(io("attach", &e));
    }
    let spawned_at = Instant::now();
    let workers: Vec<_> = schedule
        .threads
        .iter()
        .enumerate()
        .map(|(t, steps)| {
            let lock = session.mutex(lock_name(t), 0u64);
            let steps = Arc::clone(steps);
            spawn(&session, format!("worker-{t}"), move || {
                for &(cs, gap) in steps.iter() {
                    let mut held = lock.lock();
                    *held += 1;
                    spin(cs);
                    drop(held);
                    spin(gap);
                }
            })
        })
        .collect();
    let panicked = workers.into_iter().map(|w| w.join()).filter(Result::is_err).count();
    let joined_at = Instant::now();
    let local = session.finish().map_err(|e| (true, format!("finish: {e}")))?;
    if panicked > 0 {
        return Err((true, format!("{panicked} instrumented workers panicked")));
    }
    let events = local.num_events() as u64;
    let report =
        await_report(handle, events, &mut phase.status_requests).map_err(|e| (false, e))?;
    let visible = report.visible_at - joined_at;
    phase.samples.visible_ms.push(ms(visible));
    phase.samples.status_ms.push(ms(report.status));
    phase.events.push(events as f64);
    phase.spans.add("visible", ms(visible));
    phase.rates.push(events as f64 / (report.visible_at - spawned_at).as_secs_f64());

    let collected = handle.session_trace(report.snapshot.session);
    let reference = digest_report(gate::DIGEST_KEY, &analyze(&local));
    gate::app(&report.snapshot, collected.as_ref(), &local, &reference).map_err(|e| (true, e))?;
    if shape(&report.snapshot.report) != schedule.model {
        return Err((true, "served lock shape differs from the simulated model".into()));
    }
    if let Some(stats) = stats {
        stats.record(events, &mut phase.spans);
        if let Some(bytes) = stats.take_copy() {
            phase.recorded.push((decode_frames(&bytes).map_err(|e| (true, e))?, events));
        }
    }
    Ok(joined_at - spawned_at)
}

fn decode_frames(bytes: &[u8]) -> Result<Vec<Frame>, String> {
    let mut reader = StreamReader::new(bytes).map_err(|e| format!("recorded stream: {e}"))?;
    let mut frames = Vec::new();
    while let Some(frame) = reader.next_frame().map_err(|e| format!("recorded stream: {e}"))? {
        frames.push(frame);
    }
    Ok(frames)
}

/// One paired rep: the plain loop and the instrumented one, in an order
/// that alternates between reps so drift favours neither side.
fn rep(k: usize, schedule: &Schedule, traced: bool, phase: &mut Phase) -> Result<(), bool> {
    let handle = start_collector(None).map_err(|e| {
        eprintln!("app: {e}");
        false
    })?;
    let stats = traced.then(|| {
        let copy = phase.recorded.len() < REPLAYED_REPS;
        Arc::new(if copy { SinkStats::copying() } else { SinkStats::default() })
    });
    let plain_first = k.is_multiple_of(2);
    let mut plain = if plain_first { Some(plain_rep(schedule)) } else { None };
    let outcome = instrumented_rep(schedule, &handle, stats, phase);
    phase.counters.push(Counters::read(&handle));
    handle.shutdown();
    let plain = plain.get_or_insert_with(|| plain_rep(schedule));
    match outcome {
        Ok(instrumented) => {
            phase.samples.slowdown.push(instrumented.as_secs_f64() / plain.as_secs_f64());
            Ok(())
        }
        Err((wrong, why)) => {
            eprintln!("app: {why}");
            Err(wrong)
        }
    }
}

fn measure(pool: &[Schedule], seconds: f64, min_samples: usize, traced: bool) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut k = 0usize;
    while keep_going(start, seconds, phase.samples.slowdown.len(), min_samples) {
        let outcome = rep(k, &pool[k % pool.len()], traced, &mut phase);
        phase.tally.record(outcome);
        k += 1;
    }
    phase
}

pub fn run(seed: u64, seconds: f64, traced: bool, sizes: &Sizes) -> Result<Run, String> {
    let (pool, setup_s) = setup_repeated(|| setup(seed, sizes))?;
    let plain = measure(&pool, seconds, sizes.min_samples, false);
    let mut facts = Facts::default();
    facts.int("input_sessions", pool.len() as u64);
    facts.int("input_critical_sections_per_thread", sizes.iters as u64);
    facts.num("input_events_per_session", median(&plain.events));
    facts.int("generator_threads", APP_THREADS as u64);
    facts.int("generator_connections", 2);
    facts.int("sessions_served", plain.tally.attempted);
    facts.int("status_requests", plain.status_requests);
    let mut metrics = Metrics::default();
    plain.samples.report(traced, setup_s, median(&plain.rates), &mut facts, &mut metrics);
    let mut tally = plain.tally;
    if traced {
        let mut spanned = measure(&pool, seconds, sizes.min_samples, true);
        tally.absorb(spanned.tally);
        facts.int("samples_traced", spanned.samples.slowdown.len() as u64);
        let scratch = ScratchDir::new("app-replay").map_err(|e| format!("scratch dir: {e}"))?;
        for (i, (frames, events)) in spanned.recorded.iter().enumerate() {
            replay::replay_session(frames, *events, scratch.path(), i as u64, &mut spanned.spans)?;
        }
        replay::layer_metrics(&spanned.spans, &mut metrics);
        let wait = replay::wait_ms(&spanned.spans);
        metrics.set("collector.wait_ms_per_session", wait, "ms");
        layer_counters(&spanned.counters, &mut metrics);
        instrument::set_sink_metrics(&spanned.spans, &mut metrics);
        instrument::probe(false, &mut metrics)?;
        crate::tracing_overhead(&mut metrics, median(&plain.rates), median(&spanned.rates));
    }
    Ok(Run { tally, metrics, facts })
}
