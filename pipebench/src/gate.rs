//! Correctness gates. Each returns why an output is wrong; the caller
//! counts a wrong output as a failed operation and never retries it away.

use critlock_analysis::{digest_report, AnalysisReport};
use critlock_collector::SessionSnapshot;
use critlock_trace::rollup::SessionDigest;
use critlock_trace::Trace;

/// Digest key shared by every comparison, so digests differ only in
/// analysis content.
pub const DIGEST_KEY: &str = "pipebench";

/// `offline`: one pass's report digests to the single-threaded reference.
pub fn offline(report: &AnalysisReport, reference: &SessionDigest) -> Result<(), String> {
    if digest_report(DIGEST_KEY, report) != *reference {
        return Err(format!("offline digest differs from the reference (cp {})", report.cp_length));
    }
    Ok(())
}

/// `live`: the served session has ended, holds every pushed event, and
/// its report equals `analyze` of the pushed trace.
pub fn live(
    served: &SessionSnapshot,
    events: u64,
    reference: &AnalysisReport,
) -> Result<(), String> {
    if !served.ended || served.events != events {
        return Err(format!(
            "served session has {}/{events} events (ended: {})",
            served.events, served.ended
        ));
    }
    if served.report != *reference {
        return Err(format!("served report differs from analyze (cp {})", served.report.cp_length));
    }
    Ok(())
}

/// `app`: the collector holds exactly the events `Session::finish`
/// returned, and the served report digests like `analyze` of that trace.
pub fn app(
    served: &SessionSnapshot,
    collected: Option<&Trace>,
    local: &Trace,
    reference: &SessionDigest,
) -> Result<(), String> {
    if !served.ended || served.events != local.num_events() as u64 {
        return Err(format!(
            "served session has {}/{} events (ended: {})",
            served.events,
            local.num_events(),
            served.ended
        ));
    }
    if collected != Some(local) {
        return Err("collected trace differs from the trace Session::finish returned".into());
    }
    if digest_report(DIGEST_KEY, &served.report) != *reference {
        return Err(format!("served digest differs from analyze (cp {})", served.report.cp_length));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use critlock_analysis::analyze;
    use critlock_collector::SessionAssembler;
    use critlock_trace::stream::{trace_frames, RawFrame};
    use critlock_trace::TraceBuilder;

    fn trace() -> Trace {
        let mut b = TraceBuilder::new("gate");
        let hot = b.lock("hot");
        let t0 = b.thread("main", 0);
        let t1 = b.thread("worker", 0);
        b.on(t0).cs(hot, 40).exit_at(60);
        b.on(t1).work(10).cs_blocked(hot, 40, 15).exit();
        b.build().unwrap()
    }

    fn served(trace: &Trace) -> SessionSnapshot {
        let mut asm = SessionAssembler::new();
        for frame in trace_frames(trace) {
            asm.apply_raw(&RawFrame::encode(&frame).unwrap());
        }
        SessionSnapshot::compute(0, "test".into(), &mut asm, 0, 0, 0)
    }

    /// The same report with its critical-path length shifted: what a
    /// wrong analysis would serve.
    fn corrupt(report: &AnalysisReport) -> AnalysisReport {
        let mut bad = report.clone();
        bad.cp_length += 1;
        bad
    }

    #[test]
    fn offline_gate_trips_on_a_corrupted_report() {
        let t = trace();
        let report = analyze(&t);
        let reference = digest_report(DIGEST_KEY, &report);
        assert!(offline(&report, &reference).is_ok());
        assert!(offline(&corrupt(&report), &reference).is_err());
    }

    #[test]
    fn live_gate_trips_on_a_corrupted_report_or_missing_events() {
        let t = trace();
        let reference = analyze(&t);
        let events = t.num_events() as u64;
        let good = served(&t);
        assert!(live(&good, events, &reference).is_ok());
        let mut bad = good.clone();
        bad.report = corrupt(&bad.report);
        assert!(live(&bad, events, &reference).is_err());
        assert!(live(&good, events + 1, &reference).is_err());
    }

    #[test]
    fn app_gate_trips_on_a_corrupted_report_or_trace() {
        let t = trace();
        let reference = digest_report(DIGEST_KEY, &analyze(&t));
        let good = served(&t);
        assert!(app(&good, Some(&t), &t, &reference).is_ok());
        let mut bad = good.clone();
        bad.report = corrupt(&bad.report);
        assert!(app(&bad, Some(&t), &t, &reference).is_err());
        let mut other = t.clone();
        other.meta.app = "other".into();
        assert!(app(&good, Some(&other), &t, &reference).is_err());
        assert!(app(&good, None, &t, &reference).is_err());
    }
}
