//! Property-based tests over randomized simulated executions.
//!
//! Strategy: generate random (but well-formed) thread programs — mixes of
//! compute blocks and flat critical sections over a shared lock pool,
//! with balanced barrier rounds — run them through the deterministic
//! simulator, and check the invariants every layer of the stack promises.

use critlock::analysis::cp::critical_path_segmented;
use critlock::analysis::validate::{check_critical_path, check_trace};
use critlock::analysis::{
    analyze, critical_path, online_analyze, CpSlice, CriticalPath, SegmentedTrace, StartCause,
};
use critlock::sim::replay::{replay, ReplayConfig};
use critlock::sim::{MachineConfig, Op, ScriptProgram, Simulator};
use critlock::trace::{LockEpisode, ObjId, Trace};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One generated operation: kind 0 = compute, 1 = mutex critical section,
/// 2 = rwlock read section, 3 = rwlock write section.
type GenOp = (u8, usize, u64);

/// A generated workload description.
#[derive(Debug, Clone)]
struct Workload {
    num_locks: usize,
    barrier_rounds: usize,
    /// Per thread, per round: operation list.
    threads: Vec<Vec<Vec<GenOp>>>,
    seed: u64,
}

fn op_strategy(num_locks: usize) -> impl Strategy<Value = GenOp> {
    (0u8..4, 0..num_locks, 1u64..40)
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (1usize..4, 0usize..3, 2usize..6, any::<u64>()).prop_flat_map(
        |(num_locks, barrier_rounds, num_threads, seed)| {
            let round = prop::collection::vec(op_strategy(num_locks), 0..6);
            let thread = prop::collection::vec(round, barrier_rounds + 1);
            prop::collection::vec(thread, num_threads).prop_map(move |threads| Workload {
                num_locks,
                barrier_rounds,
                threads,
                seed,
            })
        },
    )
}

fn build_and_run(w: &Workload, machine: MachineConfig) -> Trace {
    let mut sim = Simulator::new("prop", machine);
    let locks: Vec<_> = (0..w.num_locks).map(|i| sim.add_lock(format!("L{i}"))).collect();
    let rwlocks: Vec<_> = (0..w.num_locks).map(|i| sim.add_rwlock(format!("R{i}"))).collect();
    let barrier =
        if w.barrier_rounds > 0 { Some(sim.add_barrier("B", w.threads.len())) } else { None };
    for (ti, rounds) in w.threads.iter().enumerate() {
        let mut ops = Vec::new();
        for (ri, round) in rounds.iter().enumerate() {
            for &(kind, lock_idx, dur) in round {
                ops.push(match kind {
                    0 => Op::Compute(dur),
                    1 => Op::Critical(locks[lock_idx], dur),
                    2 => Op::CriticalRead(rwlocks[lock_idx], dur),
                    _ => Op::CriticalWrite(rwlocks[lock_idx], dur),
                });
            }
            if ri < w.barrier_rounds {
                ops.push(Op::Barrier(barrier.expect("barrier registered")));
            }
        }
        sim.spawn(format!("T{ti}"), ScriptProgram::new(ops));
    }
    sim.run().expect("generated workload must run")
}

/// `trace` with each stream's i-th event moved to `ts * k + i`, k the
/// longest stream plus one. The simulator gives acquire, contended event
/// and obtain one timestamp; the spread keeps every stream monotone but
/// pulls them apart.
fn spread(trace: &Trace) -> Trace {
    let mut spread = trace.clone();
    let k = trace.threads.iter().map(|s| s.events.len() as u64).max().unwrap_or(0) + 1;
    for stream in &mut spread.threads {
        for (i, ev) in stream.events.iter_mut().enumerate() {
            ev.ts = ev.ts * k + i as u64;
        }
    }
    spread
}

/// `trace` on real-clock-style timestamps: ten ticks per simulated one
/// plus a per-thread clock offset and per-event jitter, each stream kept
/// monotone. Across threads the order no longer matches the simulated
/// one: a release can land after the obtain it enabled.
fn jitter(trace: &Trace, seed: u64) -> Trace {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut jittered = trace.clone();
    for stream in &mut jittered.threads {
        let offset = rng.gen_range(0..40u64);
        let mut last = 0;
        for ev in &mut stream.events {
            ev.ts = (ev.ts * 10 + offset + rng.gen_range(0..15u64)).max(last);
            last = ev.ts;
        }
    }
    jittered
}

/// The backward walk of `critical_path_segmented`, with every lookup a
/// fresh search through the public lookups instead of one that starts
/// where the walk's last search on that row landed: the reference for
/// the walk's search hints. Returns the merged slices and completeness.
fn reference_path(trace: &Trace, st: &SegmentedTrace) -> (Vec<CpSlice>, bool) {
    let mut raw = Vec::new();
    let mut complete = true;
    let Some(last) = trace.last_finisher().and_then(|tid| st.thread(tid).last()) else {
        return (raw, true);
    };
    let (mut tid, mut idx, mut upto) = (last.tid, last.index, last.end);
    let mut steps = 0;
    loop {
        steps += 1;
        if steps > st.num_segments() * 4 + 16 {
            complete = false;
            break;
        }
        let seg = st.thread(tid)[idx];
        raw.push(CpSlice { tid, start: seg.start.min(upto), end: upto });
        let jump = match seg.start_cause {
            StartCause::ThreadStart => match st.creator_of(tid) {
                Some(edge) => Some(edge),
                None => {
                    complete &= seg.start <= st.trace_start;
                    break;
                }
            },
            StartCause::LockGranted { lock, .. } => {
                st.latest_release_before(lock, seg.start, tid).map(|(ts, by)| (by, ts))
            }
            StartCause::BarrierDeparted { barrier, epoch, .. } => st
                .last_arriver(barrier, epoch)
                .filter(|&(_, by)| by != tid)
                .map(|(ts, by)| (by, ts)),
            StartCause::CondWoken { cv, signal_seq, .. } => {
                match st.matching_signal(cv, signal_seq, seg.start, tid) {
                    Some((ts, by)) => Some((by, ts)),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            StartCause::JoinReturned { child, begin } => {
                st.exit_ts(child).filter(|&exit| exit > begin).map(|exit| (child, exit))
            }
        };
        match jump {
            Some((target, at)) => match st.segment_at(target, at.min(seg.start)) {
                Some(found) => (tid, idx, upto) = (target, found.index, at.min(seg.start)),
                None => {
                    complete = false;
                    break;
                }
            },
            None if idx == 0 => {
                complete &= seg.start <= st.trace_start;
                break;
            }
            None => {
                idx -= 1;
                upto = st.thread(tid)[idx].end;
            }
        }
    }
    let mut merged: Vec<CpSlice> = Vec::new();
    for s in raw.into_iter().rev() {
        match merged.last_mut() {
            Some(prev) if prev.tid == s.tid && prev.end == s.start => prev.end = s.end,
            _ if s.duration() == 0 => {}
            _ => merged.push(s),
        }
    }
    (merged, complete)
}

/// Each lock's TYPE 1 totals `(cp_time, invocations_on_cp,
/// contended_on_cp)` from the public episode views, every invocation
/// overlapped with every slice of its thread: the reference for the
/// metrics' overlap cursors.
fn reference_type1(trace: &Trace, cp: &CriticalPath) -> BTreeMap<ObjId, (u64, u64, u64)> {
    let mut totals = BTreeMap::new();
    let locks = critlock::trace::lock_episodes(trace);
    let rws = critlock::trace::rw_episodes(trace).into_iter().map(LockEpisode::from);
    for ep in locks.into_iter().chain(rws) {
        let overlap: u64 = cp
            .slices
            .iter()
            .filter(|s| s.tid == ep.tid)
            .map(|s| s.end.min(ep.release).saturating_sub(s.start.max(ep.obtain)))
            .sum();
        let entry = totals.entry(ep.lock).or_insert((0, 0, 0));
        if overlap > 0 {
            entry.0 += overlap;
            entry.1 += 1;
            entry.2 += u64::from(ep.contended);
        }
    }
    totals
}

/// Total running time across all threads (sum of segment durations).
fn total_busy(trace: &Trace) -> u64 {
    let st = critlock::analysis::SegmentedTrace::build(trace);
    st.iter_threads().flat_map(|segs| segs.iter().map(|s| s.duration())).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trace_is_well_formed(w in workload_strategy()) {
        let trace = build_and_run(&w, MachineConfig::ideal().with_seed(w.seed));
        trace.validate().expect("protocol");
        let warnings = check_trace(&trace);
        prop_assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn critical_path_tiles_makespan(w in workload_strategy()) {
        let trace = build_and_run(&w, MachineConfig::ideal().with_seed(w.seed));
        let cp = critical_path(&trace);
        prop_assert!(cp.complete);
        prop_assert_eq!(cp.length, trace.makespan());
        let warnings = check_critical_path(&trace, &cp);
        prop_assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn online_equals_offline_cp_length(w in workload_strategy()) {
        let trace = build_and_run(&w, MachineConfig::ideal().with_seed(w.seed));
        let offline = critical_path(&trace);
        let online = online_analyze(&trace);
        prop_assert_eq!(online.cp_length, offline.length);
    }

    #[test]
    fn metrics_are_internally_consistent(w in workload_strategy()) {
        let trace = build_and_run(&w, MachineConfig::ideal().with_seed(w.seed));
        let rep = analyze(&trace);
        // Flat (non-nested) critical sections: per-lock CP times cannot
        // exceed the critical path in total.
        let sum: u64 = rep.locks.iter().map(|l| l.cp_time).sum();
        prop_assert!(sum <= rep.cp_length, "{sum} > {}", rep.cp_length);
        for l in &rep.locks {
            prop_assert!(l.cp_time <= l.total_hold);
            prop_assert!(l.contended_on_cp <= l.invocations_on_cp);
            prop_assert!(l.invocations_on_cp <= l.total_invocations);
            prop_assert!((0.0..=1.0).contains(&l.cont_prob_on_cp));
            prop_assert!((0.0..=1.0).contains(&l.avg_cont_prob));
        }
    }

    #[test]
    fn codec_roundtrips(w in workload_strategy()) {
        let trace = build_and_run(&w, MachineConfig::ideal().with_seed(w.seed));
        let mut buf = Vec::new();
        critlock::trace::codec::write_trace(&trace, &mut buf).expect("encode");
        let back = critlock::trace::codec::read_trace(&mut std::io::Cursor::new(&buf))
            .expect("decode");
        prop_assert_eq!(&trace, &back);

        let mut jbuf = Vec::new();
        critlock::trace::jsonl::write_trace(&trace, &mut jbuf).expect("encode jsonl");
        let back = critlock::trace::jsonl::read_trace(&mut std::io::Cursor::new(&jbuf))
            .expect("decode jsonl");
        prop_assert_eq!(&trace, &back);
    }

    #[test]
    fn parallel_analysis_is_bit_identical_to_serial(w in workload_strategy()) {
        // The determinism contract of the parallel pipeline: at any pool
        // size, decode, segmentation, metrics and the online pass produce
        // *exactly* the report a 1-thread pool produces — equal structs
        // and byte-identical JSON (so float formatting is covered too).
        let trace = build_and_run(&w, MachineConfig::ideal().with_seed(w.seed));
        let mut buf = Vec::new();
        critlock::trace::codec::write_trace(&trace, &mut buf).expect("encode");

        let serial_pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let parallel_pool = rayon::ThreadPoolBuilder::new().num_threads(8).build().unwrap();

        let serial_trace = serial_pool
            .install(|| critlock::trace::codec::read_trace_bytes(&buf))
            .expect("serial decode");
        let parallel_trace = parallel_pool
            .install(|| critlock::trace::codec::read_trace_bytes(&buf))
            .expect("parallel decode");
        prop_assert_eq!(&serial_trace, &parallel_trace);

        let serial = serial_pool.install(|| analyze(&serial_trace));
        let parallel = parallel_pool.install(|| analyze(&parallel_trace));
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );

        let serial_online = serial_pool.install(|| online_analyze(&trace));
        let parallel_online = parallel_pool.install(|| online_analyze(&trace));
        prop_assert_eq!(serial_online.cp_length, parallel_online.cp_length);
    }

    #[test]
    fn identity_replay_preserves_work_and_holds(w in workload_strategy()) {
        // Identity replay preserves every thread's work and every lock's
        // hold profile exactly. The makespan is preserved only up to
        // tie-breaking: when two threads request a lock at the same
        // instant, the trace does not record enough to reconstruct the
        // original arbitration, so the replayed schedule may differ at
        // ties (the deterministic no-tie cases in critlock-sim's unit
        // tests pin exact makespan equality).
        let machine = MachineConfig::ideal().with_seed(w.seed);
        let trace = build_and_run(&w, machine.clone());
        let replayed = replay(&trace, machine, &ReplayConfig::identity()).expect("replay");
        replayed.validate().expect("well-formed");
        prop_assert_eq!(total_busy(&replayed), total_busy(&trace));

        let a = analyze(&trace);
        let b = analyze(&replayed);
        let profile = |r: &critlock::AnalysisReport| {
            let mut v: Vec<(String, u64, u64)> = r
                .locks
                .iter()
                .map(|l| (l.name.clone(), l.total_hold, l.total_invocations))
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(profile(&a), profile(&b));
        let cp = critical_path(&replayed);
        prop_assert!(cp.complete);
        prop_assert_eq!(cp.length, replayed.makespan());
    }

    #[test]
    fn shrink_replay_is_well_formed_and_work_bounded(w in workload_strategy()) {
        // NOTE: "shrinking never slows the run" and "the first-order
        // projection upper-bounds the replayed gain" are NOT theorems once
        // lock acquisition *order* can change — classic scheduling
        // anomalies break both. (They do hold for structured cases; see
        // the deterministic micro/radiosity validations in critlock-bench.)
        // What is provable: the replayed trace is well-formed, its walk
        // tiles its makespan, and — since virtual time only advances while
        // at least one thread computes — its makespan cannot exceed the
        // total busy time, which shrinking only reduces.
        let machine = MachineConfig::ideal().with_seed(w.seed);
        let trace = build_and_run(&w, machine.clone());
        let rep = analyze(&trace);
        if let Some(top) = rep.top_critical_lock() {
            let replayed = replay(
                &trace,
                machine,
                &ReplayConfig::shrink_lock(top.lock, 0.5),
            )
            .expect("replay");
            replayed.validate().expect("replayed trace well-formed");
            let cp = critical_path(&replayed);
            prop_assert!(cp.complete);
            prop_assert_eq!(cp.length, replayed.makespan());
            let busy = total_busy(&trace);
            prop_assert!(
                replayed.makespan() <= busy,
                "replayed {} > total busy {}",
                replayed.makespan(),
                busy
            );
        }
    }

    #[test]
    fn limited_contexts_obey_work_conservation(w in workload_strategy()) {
        // "Fewer contexts is never faster" is not a theorem with locks
        // (scheduling anomalies), but work conservation is: with at most
        // 2 threads running at once, the makespan is at least half the
        // total busy time — and these fixed scripts do the same busy work
        // on any machine.
        let unlimited = build_and_run(&w, MachineConfig::ideal().with_seed(w.seed));
        let mut limited_machine = MachineConfig::ideal().with_seed(w.seed).with_contexts(2);
        limited_machine.quantum = 25;
        let limited = build_and_run(&w, limited_machine);
        let busy = total_busy(&unlimited);
        prop_assert!(
            limited.makespan() >= busy.div_ceil(2),
            "makespan {} < busy {}/2",
            limited.makespan(),
            busy
        );
        // The analysis still works under time-sharing.
        let cp = critical_path(&limited);
        prop_assert!(cp.complete);
        prop_assert_eq!(cp.length, limited.makespan());
    }

    #[test]
    fn window_clips_are_valid_and_analyzable(
        w in workload_strategy(),
        cut in (0u64..100, 0u64..100),
    ) {
        let trace = build_and_run(&w, MachineConfig::ideal().with_seed(w.seed));
        // The spread puts window edges between acquire, contended event
        // and obtain.
        let spread = spread(&trace);
        for trace in [trace, spread] {
            let span = trace.makespan().max(1);
            let lo = trace.start_ts() + span * cut.0.min(cut.1) / 100;
            let hi = trace.start_ts() + span * cut.0.max(cut.1) / 100;
            let clipped = critlock::analysis::clip(&trace, lo, hi);
            clipped.validate().expect("clipped trace well-formed");
            prop_assert!(clipped.makespan() <= hi - lo);
            // The clipped trace analyzes without panicking and the walk
            // stays inside the window.
            let cp = critical_path(&clipped);
            prop_assert!(cp.length <= clipped.makespan());
            for s in &cp.slices {
                prop_assert!(s.start >= lo && s.end <= hi);
            }
            let rep = analyze(&clipped);
            for l in &rep.locks {
                prop_assert!(l.cp_time <= cp.length.max(1));
            }
        }
    }

    #[test]
    fn analysis_equals_fresh_search_reference(w in workload_strategy()) {
        // The walk's search hints and the metrics' overlap cursors only
        // decide where a search starts: on simulator, spread and jittered
        // real-clock-style timestamps, the path and every lock's TYPE 1
        // totals equal those of fresh searches.
        let trace = build_and_run(&w, MachineConfig::ideal().with_seed(w.seed));
        let (spread, jittered) = (spread(&trace), jitter(&trace, w.seed));
        for trace in [trace, spread, jittered] {
            let st = SegmentedTrace::build(&trace);
            let cp = critical_path_segmented(&trace, &st);
            let (slices, complete) = reference_path(&trace, &st);
            prop_assert_eq!(&cp.slices, &slices);
            prop_assert_eq!(cp.complete, complete);

            let rep = analyze(&trace);
            prop_assert_eq!((rep.cp_length, rep.cp_complete), (cp.length, cp.complete));
            let reference = reference_type1(&trace, &cp);
            let type1: BTreeMap<ObjId, (u64, u64, u64)> = rep
                .locks
                .iter()
                .map(|l| (l.lock, (l.cp_time, l.invocations_on_cp, l.contended_on_cp)))
                .collect();
            prop_assert_eq!(type1, reference);
        }
    }

    #[test]
    fn blocker_wait_matches_episode_waits(w in workload_strategy()) {
        let trace = build_and_run(&w, MachineConfig::ideal().with_seed(w.seed));
        let rep = critlock::analysis::blocker_report(&trace);
        let episode_wait: u64 = critlock::trace::lock_episodes(&trace)
            .iter()
            .filter(|e| e.contended)
            .map(|e| e.wait_time())
            .chain(
                critlock::trace::rw_episodes(&trace)
                    .iter()
                    .filter(|e| e.contended)
                    .map(|e| e.wait_time()),
            )
            .sum();
        // Every contended wait resolves to a blocking edge on clean
        // simulator traces.
        prop_assert_eq!(rep.total_wait, episode_wait);
    }

    #[test]
    fn per_thread_criticality_tiles_the_path(w in workload_strategy()) {
        use critlock::trace::{
            barrier_episodes, cond_wait_episodes, join_episodes, lock_episodes, rw_episodes,
        };
        let trace = build_and_run(&w, MachineConfig::ideal().with_seed(w.seed));
        let spread = spread(&trace);
        for trace in [trace, spread] {
            let st = critlock::analysis::SegmentedTrace::build(&trace);
            let cp = critlock::analysis::cp::critical_path_segmented(&trace, &st);
            let rep = critlock::analysis::thread_report(&trace, &st, &cp);
            let total: u64 = rep.threads.iter().map(|t| t.cp_time).sum();
            prop_assert_eq!(total, cp.length);

            // Segment conservation: a thread is running (in a segment) or
            // blocked in one of the episodes the public views report,
            // never both, from its start to its exit.
            let mut blocked = vec![0u64; trace.num_threads()];
            let lock_waits = lock_episodes(&trace).into_iter().filter(|e| e.contended);
            let rw_waits = rw_episodes(&trace).into_iter().filter(|e| e.contended);
            let waits = lock_waits
                .map(|e| (e.tid, e.wait_time()))
                .chain(rw_waits.map(|e| (e.tid, e.wait_time())))
                .chain(barrier_episodes(&trace).into_iter().map(|e| (e.tid, e.wait_time())))
                .chain(cond_wait_episodes(&trace).into_iter().map(|e| (e.tid, e.wait_time())))
                .chain(join_episodes(&trace).into_iter().map(|e| (e.tid, e.end - e.begin)));
            for (tid, wait) in waits {
                blocked[tid.index()] += wait;
            }
            for stream in &trace.threads {
                let busy: u64 = st.thread(stream.tid).iter().map(|s| s.duration()).sum();
                let lifetime = stream.end_ts().unwrap() - stream.start_ts().unwrap();
                prop_assert_eq!(busy + blocked[stream.tid.index()], lifetime, "{}", stream.tid);
            }
        }
    }

    #[test]
    fn lock_policies_preserve_totals(w in workload_strategy()) {
        use critlock::sim::LockPolicy;
        // Total hold time per lock is schedule-independent even though
        // orderings differ across hand-off policies.
        let mk = |policy| {
            let machine = MachineConfig::ideal().with_seed(w.seed).with_policy(policy);
            let trace = build_and_run(&w, machine);
            let rep = analyze(&trace);
            let mut holds: Vec<(String, u64, u64)> = rep
                .locks
                .iter()
                .map(|l| (l.name.clone(), l.total_hold, l.total_invocations))
                .collect();
            holds.sort();
            holds
        };
        prop_assert_eq!(mk(LockPolicy::FifoHandoff), mk(LockPolicy::LifoHandoff));
        prop_assert_eq!(mk(LockPolicy::FifoHandoff), mk(LockPolicy::RandomHandoff));
    }
}
