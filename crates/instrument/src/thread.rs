//! Instrumented thread spawn/join.
//!
//! Records the thread lifecycle edges the critical-path walk needs:
//! `ThreadCreate` in the parent, `ThreadStart`/`ThreadExit` in the child
//! (including on panic, via an RAII guard), and `JoinBegin`/`JoinEnd` in
//! the joiner.

use crate::session::{record, Session};
use critlock_trace::{EventKind, ThreadId};

/// Handle to an instrumented thread; join through it to record the join
/// edge.
pub struct JoinHandle<T> {
    inner: std::thread::JoinHandle<T>,
    tid: ThreadId,
}

impl<T> JoinHandle<T> {
    /// The child's trace thread id.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// Join the thread, recording `JoinBegin`/`JoinEnd` on the calling
    /// thread.
    pub fn join(self) -> std::thread::Result<T> {
        record(EventKind::JoinBegin { child: self.tid });
        let result = self.inner.join();
        record(EventKind::JoinEnd { child: self.tid });
        result
    }
}

/// Spawn an instrumented thread within a session.
///
/// The closure runs with the thread registered: all instrumented
/// primitives used inside record into its buffer. The buffer is flushed
/// when the closure returns (or panics).
pub fn spawn<T, F>(session: &Session, name: impl Into<String>, f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let name = name.into();
    let (tid, events) = session.alloc_child();
    record(EventKind::ThreadCreate { child: tid });
    let session2 = session.clone();
    let thread_name = name.clone();
    let inner = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            session2.enter_child(tid, thread_name, events);
            // Flush even if `f` panics, so the trace stays well-formed.
            struct ExitGuard(Session);
            impl Drop for ExitGuard {
                fn drop(&mut self) {
                    self.0.exit_child();
                }
            }
            let guard = ExitGuard(session2.clone());
            let out = f();
            drop(guard);
            out
        })
        .expect("failed to spawn instrumented thread");
    JoinHandle { inner, tid }
}

/// Spawn `n` instrumented worker threads running `f(worker_index)` and
/// join them all — the fork-join shape every benchmark in the paper uses.
pub fn run_workers<F>(session: &Session, n: usize, f: F)
where
    F: Fn(usize) + Send + Sync + 'static,
{
    let f = std::sync::Arc::new(f);
    let handles: Vec<JoinHandle<()>> = (0..n)
        .map(|i| {
            let f = std::sync::Arc::clone(&f);
            spawn(session, format!("worker-{i}"), move || f(i))
        })
        .collect();
    for h in handles {
        h.join().expect("instrumented worker panicked");
    }
}
