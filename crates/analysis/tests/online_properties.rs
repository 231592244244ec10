//! Incremental fold exactness: an [`OnlineState`] fed a fork-join trace
//! in random per-thread batches reports, after every batch, exactly what
//! a one-shot pass over the ingested prefix reports.
//!
//! The main thread is sparse — it creates the workers, then parks in
//! `join` — so while its join is pending it pins the permanent fold
//! bound near the session start and the speculative fold runs far ahead
//! of it; a batch that delivers the join's end (or the last exit) moves
//! the bound past the speculative coverage. Both cases of the fold, the
//! speculative state kept and the speculative state adopted as the
//! permanent one, are exercised.

use critlock_analysis::{online_analyze, OnlineState};
use critlock_trace::{ObjId, ThreadId, Trace, TraceBuilder};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A fork-join trace: `main` creates `workers` threads, joins them in
/// order and exits; each worker runs `steps` critical sections over
/// three locks. Workers are scheduled smallest-clock-first with short
/// work and hold times, so contended obtains are same-instant hand-offs
/// and many timestamp groups span several threads.
fn fork_join_trace(seed: u64, workers: usize, steps: usize) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = TraceBuilder::new("online-props");
    let locks: Vec<ObjId> = (0..3).map(|i| b.lock(format!("L{i}"))).collect();
    let main = b.thread("main", 0);
    let ws: Vec<ThreadId> = (0..workers).map(|i| b.thread(format!("w{i}"), 0)).collect();
    for &w in &ws {
        b.on(main).create(w);
    }
    let mut free_at = vec![0; locks.len()];
    let mut left = vec![steps; workers];
    while let Some(i) = (0..workers).filter(|&i| left[i] > 0).min_by_key(|&i| b.now(ws[i])) {
        let l = rng.gen_range(0..locks.len());
        let hold = rng.gen_range(0..3u64);
        let work = rng.gen_range(0..3u64);
        let now = b.now(ws[i]) + work;
        let mut c = b.on(ws[i]);
        c.work(work);
        if free_at[l] > now {
            c.cs_blocked(locks[l], free_at[l], hold);
        } else {
            c.cs(locks[l], hold);
        }
        free_at[l] = free_at[l].max(now) + hold;
        left[i] -= 1;
    }
    for &w in &ws {
        b.on(w).exit();
    }
    b.on(main).work(1);
    for &w in &ws {
        let end = b.now(w).max(b.now(main));
        b.on(main).join(w, end);
    }
    b.on(main).work(1).exit();
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_batch_report_matches_the_one_shot_prefix(
        seed in any::<u64>(),
        workers in 1usize..4,
        steps in 1usize..25,
        batches in prop::collection::vec((0usize..4, 1usize..10), 1..60),
    ) {
        let trace = fork_join_trace(seed, workers, steps);
        let n = trace.threads.len();
        let mut st = OnlineState::new();
        for stream in &trace.threads {
            st.declare(stream.tid);
        }
        let mut prefix = trace.clone();
        for stream in &mut prefix.threads {
            stream.events.clear();
        }
        // The random batches, then whatever is left, one batch per thread.
        let rest = (0..n).map(|t| (t, usize::MAX));
        for (pick, len) in batches.into_iter().chain(rest) {
            // The picked thread, or the next one with events left.
            let Some(t) = (0..n)
                .map(|k| (pick + k) % n)
                .find(|&t| prefix.threads[t].events.len() < trace.threads[t].events.len())
            else {
                break;
            };
            let (from, all) = (prefix.threads[t].events.len(), &trace.threads[t].events);
            let batch = &all[from..all.len().min(from.saturating_add(len))];
            st.ingest(trace.threads[t].tid, batch);
            prefix.threads[t].events.extend_from_slice(batch);
            prop_assert_eq!(st.report(&trace), online_analyze(&prefix));
        }
        prop_assert_eq!(&prefix, &trace);
        prop_assert!(!st.is_stale(), "declared, in-order threads never go stale");
        prop_assert_eq!(st.events_ingested(), trace.num_events() as u64);
        prop_assert_eq!(st.events_folded(), st.events_ingested());
        prop_assert_eq!(st.report(&trace), online_analyze(&trace));
    }
}
