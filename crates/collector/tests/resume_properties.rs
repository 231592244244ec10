//! Property tests for the resume protocol's sequence accounting: an
//! arbitrary split of a frame stream across K disconnects — with the
//! client replaying from any position at or before the collector's
//! acknowledged sequence, as a reconnecting producer does — reassembles
//! into a byte-identical trace.
//!
//! This drives the same dedup-by-sequence rule the collector's session
//! reader applies (`seq < expected` frames are skipped, `seq == expected`
//! frames are applied) through the real [`SessionAssembler`], without
//! sockets, so proptest can explore thousands of disconnect patterns
//! quickly. The socket path is covered end-to-end by `tests/faults.rs`.

use critlock_collector::SessionAssembler;
use critlock_trace::stream::{trace_frames, write_trace, RawFrame};
use critlock_trace::Trace;
use proptest::prelude::*;

/// A contended two-lock trace whose size scales with `iters`, so frame
/// counts range from a handful to several Events frames.
fn build_trace(threads: usize, iters: usize) -> Trace {
    let mut b = critlock_trace::TraceBuilder::new("resume-props");
    let hot = b.lock("hot");
    let tids: Vec<_> = (0..threads).map(|i| b.thread(format!("t{i}"), 0)).collect();
    for (i, &tid) in tids.iter().enumerate() {
        b.on(tid).work(i as u64 + 1);
        for _ in 0..iters {
            b.on(tid).cs(hot, 3).work(2);
        }
        b.on(tid).exit();
    }
    b.build().unwrap()
}

fn apply_connection(
    asm: &mut SessionAssembler,
    frames: &[RawFrame],
    start: usize,
    end: usize,
    expected: &mut usize,
) {
    for (i, frame) in frames[start..end].iter().enumerate() {
        let seq = start + i;
        if seq < *expected {
            continue; // duplicate of an already-applied frame
        }
        assert_eq!(seq, *expected, "client must never leave a gap");
        asm.apply_raw(frame);
        *expected += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However the stream is split across disconnects, and however stale
    /// the client's resume point is (as long as it is conservative, which
    /// the ack protocol guarantees), the reassembled trace is
    /// byte-identical to a single uninterrupted delivery.
    #[test]
    fn split_stream_reassembles_byte_identical(
        threads in 1usize..4,
        iters in 1usize..60,
        cuts in prop::collection::vec((0usize..40, 0usize..40, any::<bool>()), 0..8),
    ) {
        let trace = build_trace(threads, iters);
        let frames: Vec<RawFrame> =
            trace_frames(&trace).iter().map(|f| RawFrame::encode(f).unwrap()).collect();
        let total = frames.len();

        // Reference: one connection, no faults.
        let mut reference = SessionAssembler::new();
        for frame in &frames {
            reference.apply_raw(frame);
        }

        // Faulty delivery: each cut ends a connection after `deliver`
        // frames; the next one resumes from the client's (possibly
        // stale, never ahead) view of the ack.
        let mut asm = SessionAssembler::new();
        let mut expected = 0usize; // collector's next expected sequence
        let mut client_acked = 0usize; // client's view, always <= expected
        for (deliver, stale, saw_final_ack) in cuts {
            let start = client_acked.saturating_sub(stale).min(expected);
            let end = (start + deliver).min(total);
            apply_connection(&mut asm, &frames, start, end, &mut expected);
            if saw_final_ack {
                client_acked = expected;
            }
        }
        // The last connection survives and delivers the remainder.
        apply_connection(&mut asm, &frames, client_acked, total, &mut expected);

        prop_assert_eq!(expected, total);
        prop_assert_eq!(asm.frames(), reference.frames());
        prop_assert_eq!(asm.events(), reference.events());
        let reassembled = asm.finalize();
        prop_assert_eq!(&reassembled, &reference.finalize());

        // Byte-identical, not merely structurally equal.
        let mut split_bytes = Vec::new();
        let mut straight_bytes = Vec::new();
        write_trace(&reassembled, &mut split_bytes).unwrap();
        write_trace(&trace, &mut straight_bytes).unwrap();
        prop_assert_eq!(split_bytes, straight_bytes);
    }
}
