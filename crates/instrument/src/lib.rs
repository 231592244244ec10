//! # critlock-instrument
//!
//! Real-thread instrumentation runtime: the Rust equivalent of the
//! paper's `LD_PRELOAD` Pthreads interposition tool (§IV). Instrumented
//! [`Mutex`], [`Barrier`] and [`Condvar`] wrappers record the MAGIC()
//! event protocol into per-thread buffers with a monotonic nanosecond
//! clock (the portable stand-in for `mftb`/`rdtsc`), and a [`Session`]
//! assembles the buffers into a `critlock_trace::Trace` for the analysis
//! module.
//!
//! ```
//! use critlock_instrument::{Session, spawn};
//! use std::sync::Arc;
//!
//! let session = Session::new("quick");
//! let counter = Arc::new(session.mutex("counter", 0u64));
//!
//! let handles: Vec<_> = (0..4)
//!     .map(|i| {
//!         let counter = Arc::clone(&counter);
//!         spawn(&session, format!("w{i}"), move || {
//!             for _ in 0..100 {
//!                 *counter.lock() += 1;
//!             }
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! let trace = session.finish().unwrap();
//! assert_eq!(trace.num_threads(), 5); // main + 4 workers
//! let report = critlock_analysis::analyze(&trace);
//! assert_eq!(report.lock_by_name("counter").unwrap().total_invocations, 400);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod barrier;
mod condvar;
mod mutex;
mod rwlock;
mod session;
mod thread;

pub use barrier::Barrier;
pub use condvar::Condvar;
pub use mutex::{Mutex, MutexGuard};
pub use rwlock::{RwLock, RwLockReadGuard, RwLockWriteGuard};
pub use session::{FinishError, Session};
pub use thread::{run_workers, spawn, JoinHandle};

impl Session {
    /// Create an instrumented mutex owned by this session.
    pub fn mutex<T>(&self, name: impl Into<String>, value: T) -> Mutex<T> {
        Mutex::new(std::sync::Arc::clone(self.inner()), name.into(), value)
    }

    /// Create an instrumented barrier for `parties` threads.
    pub fn barrier(&self, name: impl Into<String>, parties: usize) -> Barrier {
        Barrier::new(std::sync::Arc::clone(self.inner()), name.into(), parties)
    }

    /// Create an instrumented condition variable.
    pub fn condvar(&self, name: impl Into<String>) -> Condvar {
        Condvar::new(std::sync::Arc::clone(self.inner()), name.into())
    }

    /// Create an instrumented reader-writer lock.
    pub fn rwlock<T>(&self, name: impl Into<String>, value: T) -> RwLock<T> {
        RwLock::new(std::sync::Arc::clone(self.inner()), name.into(), value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critlock_analysis::analyze;
    use std::sync::Arc;

    #[test]
    fn contended_counter_produces_valid_trace() {
        let session = Session::new("counter");
        let m = Arc::new(session.mutex("L", 0u64));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let m = Arc::clone(&m);
                spawn(&session, format!("w{i}"), move || {
                    for _ in 0..50 {
                        let mut g = m.lock();
                        *g += 1;
                        // A little work inside the CS to force contention.
                        std::hint::black_box(&mut *g);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let trace = session.finish().unwrap();
        assert_eq!(trace.num_threads(), 5);
        let eps = critlock_trace::lock_episodes(&trace);
        assert_eq!(eps.len(), 200);

        let rep = analyze(&trace);
        let lr = rep.lock_by_name("L").unwrap();
        assert_eq!(lr.total_invocations, 200);
        // The walk must complete on a clean fork-join trace.
        assert!(rep.cp_complete);
        assert!(rep.cp_length <= rep.makespan);
    }

    #[test]
    fn try_lock_does_not_block() {
        let session = Session::new("trylock");
        let m = session.mutex("L", ());
        {
            let _g = m.lock();
            assert!(m.try_lock().is_none());
        }
        assert!(m.try_lock().is_some());
        let trace = session.finish().unwrap();
        // Two successful invocations recorded.
        assert_eq!(critlock_trace::lock_episodes(&trace).len(), 2);
    }

    #[test]
    fn barrier_episodes_share_epochs() {
        let session = Session::new("barrier");
        let bar = Arc::new(session.barrier("B", 3));
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let bar = Arc::clone(&bar);
                spawn(&session, format!("w{i}"), move || {
                    for _ in 0..5 {
                        bar.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let trace = session.finish().unwrap();
        let eps = critlock_trace::barrier_episodes(&trace);
        assert_eq!(eps.len(), 15);
        for epoch in 0..5u32 {
            assert_eq!(eps.iter().filter(|e| e.epoch == epoch).count(), 3);
        }
        analyze(&trace); // must not panic
    }

    #[test]
    fn condvar_handshake() {
        let session = Session::new("cv");
        let m = Arc::new(session.mutex("M", false));
        let cv = Arc::new(session.condvar("CV"));

        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let consumer = spawn(&session, "consumer", move || {
            let mut g = m2.lock();
            while !*g {
                cv2.wait(&mut g);
            }
        });
        let (m3, cv3) = (Arc::clone(&m), Arc::clone(&cv));
        let producer = spawn(&session, "producer", move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            let mut g = m3.lock();
            *g = true;
            drop(g);
            cv3.notify_one();
        });
        consumer.join().unwrap();
        producer.join().unwrap();
        let trace = session.finish().unwrap();
        let waits = critlock_trace::cond_wait_episodes(&trace);
        assert!(!waits.is_empty());
        // The wait blocked for roughly the producer's sleep.
        assert!(waits.iter().any(|w| w.wait_time() > 1_000_000));
        analyze(&trace);
    }

    #[test]
    fn join_edges_recorded() {
        let session = Session::new("join");
        let h = spawn(&session, "w", || 42);
        assert_eq!(h.join().unwrap(), 42);
        let trace = session.finish().unwrap();
        let joins = critlock_trace::join_episodes(&trace);
        assert_eq!(joins.len(), 1);
        assert_eq!(joins[0].child, critlock_trace::ThreadId(1));
    }

    #[test]
    fn run_workers_helper() {
        let session = Session::new("workers");
        let m = Arc::new(session.mutex("L", 0usize));
        let m2 = Arc::clone(&m);
        run_workers(&session, 4, move |_i| {
            *m2.lock() += 1;
        });
        assert_eq!(*m.lock(), 4);
        let trace = session.finish().unwrap();
        assert_eq!(trace.num_threads(), 5);
        assert!(critlock_trace::join_episodes(&trace).len() == 4);
    }

    #[test]
    fn rwlock_readers_concurrent_writers_exclusive() {
        let session = Session::new("rw");
        let cache = Arc::new(session.rwlock("cache", vec![0u64; 8]));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let cache = Arc::clone(&cache);
                spawn(&session, format!("w{i}"), move || {
                    for round in 0..50 {
                        if round % 10 == 0 {
                            let mut g = cache.write();
                            g[i % 8] += 1;
                        } else {
                            let g = cache.read();
                            std::hint::black_box(g[i % 8]);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let trace = session.finish().unwrap();
        trace.validate().unwrap();
        let eps = critlock_trace::rw_episodes(&trace);
        assert_eq!(eps.len(), 200);
        assert_eq!(eps.iter().filter(|e| e.write).count(), 20);
        // Cross-thread rw exclusion holds on the recorded trace.
        let warnings = critlock_analysis::validate::check_trace(&trace);
        assert!(warnings.is_empty(), "{warnings:?}");
        analyze(&trace);
    }

    #[test]
    fn try_rwlock_does_not_block() {
        let session = Session::new("tryrw");
        let l = session.rwlock("R", ());
        {
            let _w = l.write();
            assert!(l.try_read().is_none());
            assert!(l.try_write().is_none());
        }
        assert!(l.try_read().is_some());
        assert!(l.try_write().is_some());
        let trace = session.finish().unwrap();
        assert_eq!(critlock_trace::rw_episodes(&trace).len(), 3);
    }

    #[test]
    fn nested_instrumented_locks() {
        let session = Session::new("nested");
        let a = session.mutex("A", ());
        let b = session.mutex("B", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let trace = session.finish().unwrap();
        assert_eq!(critlock_trace::lock_episodes(&trace).len(), 2);
    }

    #[test]
    fn real_trace_cp_coverage_is_high() {
        // On a real-clock trace the CP should cover most of the makespan
        // (small wakeup latencies create gaps).
        let session = Session::new("coverage");
        let m = Arc::new(session.mutex("L", 0u64));
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let m = Arc::clone(&m);
                spawn(&session, format!("w{i}"), move || {
                    for _ in 0..20 {
                        let mut g = m.lock();
                        for _ in 0..1000 {
                            *g = std::hint::black_box(*g + 1);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let trace = session.finish().unwrap();
        let rep = analyze(&trace);
        assert!(rep.cp_complete, "walk should complete");
        assert!(rep.coverage > 0.5, "coverage {} unexpectedly low", rep.coverage);
    }
}
