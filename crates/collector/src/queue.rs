//! Bounded per-session frame queues with configurable backpressure.
//!
//! Socket reader threads push validated raw frames (wire bytes, see
//! [`RawFrame`]); the analysis loop drains them and decodes lazily. When
//! a queue fills, the configured [`Backpressure`] policy decides whether
//! the producer blocks (propagating pressure through the TCP window back
//! to the instrumented process) or the frame is counted and dropped
//! (bounding producer latency at the cost of a lossy trace).
//!
//! A queue built with [`FrameQueue::with_wake`] also wakes its consumer
//! when it fills to half its capacity, so the consumer drains a batch
//! while the producer keeps writing into the other half, and the depth a
//! scrape reads still means backlog rather than batching.

use critlock_trace::stream::RawFrame;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// What to do when a session's frame queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the producer until the analysis loop drains the queue.
    Block,
    /// Drop the incoming frame and increment the session's drop counter.
    Drop,
}

struct Inner {
    frames: VecDeque<RawFrame>,
    closed: bool,
}

/// A consumer's wake-up signal. Producers [`Wake::notify`]; the consumer
/// [`Wake::park`]s until notified or until a deadline. A notification
/// sent while the consumer is busy is kept for its next park, so none is
/// lost.
#[derive(Debug, Default)]
pub(crate) struct Wake {
    pending: Mutex<bool>,
    cond: Condvar,
}

impl Wake {
    /// Wake the consumer, or make its next park return at once.
    pub(crate) fn notify(&self) {
        *self.pending.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cond.notify_one();
    }

    /// Park until notified or until `deadline` (`None`: until notified),
    /// consuming the notification.
    pub(crate) fn park(&self, deadline: Option<Instant>) {
        let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        while !*pending {
            let Some(deadline) = deadline else {
                pending = self.cond.wait(pending).unwrap_or_else(|e| e.into_inner());
                continue;
            };
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            pending = self.cond.wait_timeout(pending, left).unwrap_or_else(|e| e.into_inner()).0;
        }
        *pending = false;
    }
}

/// A bounded MPSC frame queue between one session's socket reader and the
/// analysis loop.
pub struct FrameQueue {
    inner: Mutex<Inner>,
    not_full: Condvar,
    capacity: usize,
    policy: Backpressure,
    dropped: AtomicU64,
    pushed: AtomicU64,
    high_water: AtomicU64,
    /// Woken when the queue fills to half its capacity.
    wake: Option<Arc<Wake>>,
}

impl FrameQueue {
    /// A queue holding at most `capacity` frames, governed by `policy`.
    pub fn new(capacity: usize, policy: Backpressure) -> Self {
        FrameQueue {
            inner: Mutex::new(Inner { frames: VecDeque::new(), closed: false }),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            policy,
            dropped: AtomicU64::new(0),
            pushed: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            wake: None,
        }
    }

    /// A queue like [`FrameQueue::new`] that notifies `wake` each time a
    /// push fills it to half its capacity.
    pub(crate) fn with_wake(capacity: usize, policy: Backpressure, wake: Arc<Wake>) -> Self {
        FrameQueue { wake: Some(wake), ..FrameQueue::new(capacity, policy) }
    }

    /// Enqueue a frame. Under [`Backpressure::Block`] this waits for
    /// space; under [`Backpressure::Drop`] a frame that finds the queue
    /// full is discarded and counted. Returns `false` iff the frame was
    /// dropped (or the queue is closed).
    pub fn push(&self, frame: RawFrame) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if inner.closed {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            if inner.frames.len() < self.capacity {
                inner.frames.push_back(frame);
                let depth = inner.frames.len();
                drop(inner);
                self.pushed.fetch_add(1, Ordering::Relaxed);
                self.high_water.fetch_max(depth as u64, Ordering::Relaxed);
                if depth == self.capacity.div_ceil(2) {
                    self.wake_consumer();
                }
                return true;
            }
            self.high_water.fetch_max(self.capacity as u64, Ordering::Relaxed);
            match self.policy {
                Backpressure::Block => {
                    inner = self.not_full.wait(inner).unwrap_or_else(|e| e.into_inner());
                }
                Backpressure::Drop => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
    }

    /// Notify the consumer's wake, if the queue has one (see
    /// [`FrameQueue::with_wake`]).
    pub(crate) fn wake_consumer(&self) {
        if let Some(wake) = &self.wake {
            wake.notify();
        }
    }

    /// Take every queued frame (non-blocking) and wake blocked producers.
    pub fn drain(&self) -> Vec<RawFrame> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let drained: Vec<RawFrame> = inner.frames.drain(..).collect();
        drop(inner);
        if !drained.is_empty() {
            self.not_full.notify_all();
        }
        drained
    }

    /// Mark the queue closed (producer disconnected or daemon shutting
    /// down) and wake any blocked producer.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        drop(inner);
        self.not_full.notify_all();
    }

    /// Current number of queued frames.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).frames.len()
    }

    /// Frames dropped so far under the [`Backpressure::Drop`] policy.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Frames accepted so far.
    pub fn accepted(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Deepest the queue has ever been — pressure stays observable even
    /// after the analysis loop drains the frames.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn end() -> RawFrame {
        RawFrame::encode(&critlock_trace::stream::Frame::End).unwrap()
    }

    #[test]
    fn drop_policy_counts_overflow() {
        let q = FrameQueue::new(2, Backpressure::Drop);
        assert!(q.push(end()));
        assert!(q.push(end()));
        assert!(!q.push(end()));
        assert!(!q.push(end()));
        assert_eq!(q.dropped(), 2);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.drain().len(), 2);
        assert!(q.push(end()));
        assert_eq!(q.accepted(), 3);
    }

    #[test]
    fn block_policy_waits_for_drain() {
        let q = Arc::new(FrameQueue::new(1, Backpressure::Block));
        assert!(q.push(end()));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(end()));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!producer.is_finished(), "producer must block on a full queue");
        assert_eq!(q.drain().len(), 1);
        assert!(producer.join().unwrap());
        assert_eq!(q.dropped(), 0);
    }

    #[test]
    fn half_full_queue_wakes_its_consumer() {
        let wake = Arc::new(Wake::default());
        let q = FrameQueue::with_wake(4, Backpressure::Block, Arc::clone(&wake));
        let pending = || *wake.pending.lock().unwrap();
        assert!(q.push(end()));
        assert!(!pending(), "one frame of four must not wake the consumer");
        assert!(q.push(end()));
        assert!(pending(), "half a queue must wake the consumer");
        // A park consumes the notification at once, whatever the deadline.
        wake.park(None);
        assert!(!pending());
        assert!(q.push(end()));
        assert!(!pending(), "only the push that reaches half capacity wakes");
        assert_eq!(q.drain().len(), 3);
        assert!(q.push(end()) && q.push(end()));
        assert!(pending(), "a drained queue wakes again at half capacity");
    }

    #[test]
    fn park_returns_at_its_deadline_without_a_notification() {
        let wake = Wake::default();
        let started = std::time::Instant::now();
        wake.park(Some(started + Duration::from_millis(20)));
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn close_unblocks_producer() {
        let q = Arc::new(FrameQueue::new(1, Backpressure::Block));
        assert!(q.push(end()));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(end()));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(!producer.join().unwrap());
    }
}
