//! Resource budgets for trace processing.
//!
//! A [`Budget`] caps how much work the pipeline may spend on one trace:
//! a maximum event count, a maximum thread count, a maximum estimate of
//! resident bytes, and a wall-clock deadline. Exceeding a budget never
//! aborts the pipeline — the input is *tail-truncated deterministically*
//! (events are kept in `(thread, index)` order until the cap is reached)
//! and the resulting report is marked degraded. Only the deadline is
//! inherently non-deterministic; it is checked at stage boundaries, so
//! the same trace under the same deadline may degrade at different
//! points on different runs.

use crate::anomaly::Anomaly;
use crate::event::Event;
use crate::trace::Trace;
use std::time::{Duration, Instant};

/// Resource limits for processing one trace (or one collector session).
///
/// The default budget is unlimited. Each limit is independent; `None`
/// means "no cap on this axis".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum total events across all threads.
    pub max_events: Option<u64>,
    /// Maximum number of thread streams.
    pub max_threads: Option<usize>,
    /// Maximum estimated resident bytes for the decoded trace.
    pub max_bytes: Option<u64>,
    /// Absolute wall-clock deadline for the whole pipeline run.
    pub deadline: Option<Instant>,
}

impl Budget {
    /// A budget with no limits.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// True if no limit is set on any axis.
    pub fn is_unlimited(&self) -> bool {
        self.max_events.is_none()
            && self.max_threads.is_none()
            && self.max_bytes.is_none()
            && self.deadline.is_none()
    }

    /// Cap the total event count, builder-style.
    pub fn with_max_events(mut self, n: u64) -> Self {
        self.max_events = Some(n);
        self
    }

    /// Cap the thread count, builder-style.
    pub fn with_max_threads(mut self, n: usize) -> Self {
        self.max_threads = Some(n);
        self
    }

    /// Cap the estimated resident bytes, builder-style.
    pub fn with_max_bytes(mut self, n: u64) -> Self {
        self.max_bytes = Some(n);
        self
    }

    /// Set the deadline to `d` from now, builder-style.
    ///
    /// Saturates: a `d` so large that `now + d` is not representable by
    /// the monotonic clock (e.g. `Duration::MAX` from `--deadline-ms
    /// u64::MAX`) means the deadline can never be reached, so no deadline
    /// is set rather than panicking on `Instant` overflow.
    pub fn with_deadline_in(mut self, d: Duration) -> Self {
        self.deadline = Instant::now().checked_add(d);
        self
    }

    /// Whether the wall-clock deadline has passed.
    pub fn deadline_expired(&self) -> bool {
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }

    /// Whether an input of `len` encoded bytes fits the byte budget.
    /// The encoded size is a lower bound on the decoded resident size,
    /// so rejecting on it is conservative in the right direction.
    pub fn allows_input_bytes(&self, len: u64) -> bool {
        self.max_bytes.is_none_or(|cap| len <= cap)
    }

    /// Estimated resident bytes of a decoded trace: the dominant term is
    /// the event arrays; the object/name tables are noise next to them.
    pub fn estimate_trace_bytes(trace: &Trace) -> u64 {
        let per_event = std::mem::size_of::<Event>() as u64;
        let per_thread = 64u64; // stream header + Vec bookkeeping
        (trace.num_events() as u64) * per_event + (trace.num_threads() as u64) * per_thread
    }

    /// The most events the event cap and the byte cap together allow.
    pub fn event_cap(&self) -> u64 {
        let per_event = std::mem::size_of::<Event>() as u64;
        let by_bytes = self.max_bytes.map_or(u64::MAX, |b| b / per_event);
        self.max_events.unwrap_or(u64::MAX).min(by_bytes)
    }

    /// One anomaly for each of the event and byte caps that `total` events
    /// exceed.
    pub fn event_truncations(&self, total: u64) -> Vec<Anomaly> {
        let per_event = std::mem::size_of::<Event>() as u64;
        let mut out = Vec::new();
        if let Some(cap) = self.max_events.filter(|&cap| total > cap) {
            out.push(Anomaly::BudgetEventsTruncated { kept: cap, dropped: total - cap });
        }
        if let Some(limit) = self.max_bytes.filter(|&b| total > b / per_event) {
            out.push(Anomaly::BudgetBytesTruncated {
                limit,
                needed: total.saturating_mul(per_event),
            });
        }
        out
    }

    /// How many threads of a trace with `total` streams may be kept, or
    /// `None` if the thread budget allows all of them.
    pub fn thread_allowance(&self, total: usize) -> Option<usize> {
        match self.max_threads {
            Some(cap) if total > cap => Some(cap),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(!b.deadline_expired());
        assert!(b.allows_input_bytes(u64::MAX));
        assert_eq!(b.event_cap(), u64::MAX);
        assert_eq!(b.event_truncations(1_000_000), Vec::new());
        assert_eq!(b.thread_allowance(64), None);
    }

    #[test]
    fn caps_trigger_only_past_the_limit() {
        let b = Budget::unlimited().with_max_events(10).with_max_threads(2).with_max_bytes(100);
        assert!(!b.is_unlimited());
        let per_event = std::mem::size_of::<Event>() as u64;
        assert_eq!(b.event_cap(), 100 / per_event);
        let events_only = Budget::unlimited().with_max_events(10);
        assert_eq!(events_only.event_cap(), 10);
        assert_eq!(events_only.event_truncations(10), Vec::new());
        assert_eq!(
            events_only.event_truncations(11),
            vec![Anomaly::BudgetEventsTruncated { kept: 10, dropped: 1 }]
        );
        assert!(matches!(b.event_truncations(11)[..], [_, Anomaly::BudgetBytesTruncated { .. }]));
        assert_eq!(b.thread_allowance(2), None);
        assert_eq!(b.thread_allowance(3), Some(2));
        assert!(b.allows_input_bytes(100));
        assert!(!b.allows_input_bytes(101));
    }

    #[test]
    fn deadline_in_the_past_is_expired() {
        let b = Budget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Default::default()
        };
        assert!(b.deadline_expired());
        let b = Budget::unlimited().with_deadline_in(Duration::from_secs(3600));
        assert!(!b.deadline_expired());
    }

    /// Regression: `with_deadline_in(Duration::MAX)` used to panic with
    /// "overflow when adding duration to instant". An unrepresentable
    /// deadline saturates to "no deadline".
    #[test]
    fn unrepresentable_deadline_saturates_instead_of_panicking() {
        let b = Budget::unlimited().with_deadline_in(Duration::MAX);
        assert_eq!(b.deadline, None);
        assert!(!b.deadline_expired());
        let b = Budget::unlimited().with_deadline_in(Duration::from_millis(u64::MAX));
        assert!(!b.deadline_expired());
    }

    #[test]
    fn trace_byte_estimate_scales_with_events() {
        let t = Trace::default();
        assert_eq!(Budget::estimate_trace_bytes(&t), 0);
    }
}
