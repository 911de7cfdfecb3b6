//! Monitor watchdog: detects a wedged or lossy update pipeline.
//!
//! Two failure classes threaten the view pipeline. The update timer can
//! stop firing work (a stalled monitor), leaving every view to age; and
//! cgroup events can be lost — dropped in transit, or coalesced away by
//! a full [`EventPipe`](arv_cgroups::EventPipe) — leaving the monitor's
//! namespace set out of sync with the real hierarchy. The [`Watchdog`]
//! watches both signals: missed `tick_window` deadlines, and
//! sequence-number gaps / overflow drops reported by
//! [`NsMonitor::ingest`](crate::monitor::NsMonitor::ingest). Either one
//! produces a [`Verdict::Resync`], telling the driver to run
//! [`NsMonitor::resync`](crate::monitor::NsMonitor::resync) — the full
//! reconcile pass — instead of trusting the incremental stream.

use arv_telemetry::{PipelineEvent, Tracer};

use crate::monitor::IngestReport;

/// Consecutive missed update deadlines tolerated before a resync is
/// demanded once the monitor recovers.
const MAX_MISSED_TICKS: u64 = 2;

/// What the pipeline should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Incremental delivery is intact; carry on.
    Healthy,
    /// Loss or a stall was detected; run a full reconcile.
    Resync,
}

/// Counters describing everything the watchdog has seen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchdogStats {
    /// Update deadlines the monitor missed.
    pub missed_ticks: u64,
    /// Sequence gaps observed in the event stream.
    pub gaps_detected: u64,
    /// Duplicate events observed (and ignored by the monitor).
    pub duplicates: u64,
    /// Events lost to pipe overflow.
    pub overflow_drops: u64,
    /// Full reconcile passes demanded.
    pub resyncs: u64,
}

/// Tracks pipeline liveness and event-stream integrity.
#[derive(Debug, Default)]
pub struct Watchdog {
    stats: WatchdogStats,
    missed_streak: u64,
    pending_resync: bool,
    ticks_observed: u64,
    tracer: Tracer,
}

impl Watchdog {
    /// A watchdog that has seen nothing yet.
    pub fn new() -> Watchdog {
        Watchdog::default()
    }

    /// Counters so far.
    pub fn stats(&self) -> WatchdogStats {
        self.stats
    }

    /// Install a [`Tracer`]; pipeline-health findings (stalls, event
    /// loss, resyncs) are recorded into the shared trace ring.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The monitor completed its periodic update on time.
    pub fn note_deadline_met(&mut self) {
        self.ticks_observed += 1;
        self.missed_streak = 0;
    }

    /// The update timer fired but the monitor did no work (stall).
    ///
    /// A stalled monitor cannot resync *now*; once the streak passes the
    /// budget a resync is latched and reported by
    /// [`take_pending_resync`](Watchdog::take_pending_resync) when the
    /// monitor comes back.
    pub fn note_missed_deadline(&mut self) {
        self.ticks_observed += 1;
        self.stats.missed_ticks += 1;
        self.missed_streak += 1;
        if self.missed_streak > MAX_MISSED_TICKS {
            if !self.pending_resync {
                self.tracer
                    .emit_pipeline(self.ticks_observed, None, PipelineEvent::StallDetected);
            }
            self.pending_resync = true;
        }
    }

    /// Judge one ingest round: `report` from
    /// [`NsMonitor::ingest`](crate::monitor::NsMonitor::ingest) plus the
    /// pipe's overflow-drop count for the same round.
    pub fn after_ingest(&mut self, report: &IngestReport, overflow_dropped: u64) -> Verdict {
        self.stats.duplicates += report.duplicates;
        self.stats.overflow_drops += overflow_dropped;
        if report.gap {
            self.stats.gaps_detected += 1;
        }
        if report.gap || overflow_dropped > 0 {
            if overflow_dropped > 0 {
                // The monitor traces sequence gaps itself; overflow
                // drops are only visible here.
                self.tracer
                    .emit_pipeline(self.ticks_observed, None, PipelineEvent::GapDetected);
            }
            self.pending_resync = true;
            Verdict::Resync
        } else {
            Verdict::Healthy
        }
    }

    /// Whether a resync is owed, consuming the latch. The caller must
    /// follow a `true` with [`note_resynced`](Watchdog::note_resynced).
    pub fn take_pending_resync(&mut self) -> bool {
        std::mem::take(&mut self.pending_resync)
    }

    /// A full reconcile pass ran.
    pub fn note_resynced(&mut self) {
        self.stats.resyncs += 1;
        self.missed_streak = 0;
        self.pending_resync = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(gap: bool, duplicates: u64) -> IngestReport {
        IngestReport {
            applied: 0,
            duplicates,
            gap,
        }
    }

    #[test]
    fn clean_ingest_is_healthy() {
        let mut w = Watchdog::default();
        assert_eq!(w.after_ingest(&report(false, 0), 0), Verdict::Healthy);
        assert!(!w.take_pending_resync());
        assert_eq!(w.stats(), WatchdogStats::default());
    }

    #[test]
    fn gap_or_overflow_demand_resync() {
        let mut w = Watchdog::default();
        assert_eq!(w.after_ingest(&report(true, 0), 0), Verdict::Resync);
        assert!(w.take_pending_resync());
        w.note_resynced();
        assert_eq!(w.after_ingest(&report(false, 0), 3), Verdict::Resync);
        w.note_resynced();
        let s = w.stats();
        assert_eq!(s.gaps_detected, 1);
        assert_eq!(s.overflow_drops, 3);
        assert_eq!(s.resyncs, 2);
    }

    #[test]
    fn duplicates_alone_do_not_resync() {
        // The monitor skips duplicates idempotently; no reconcile needed.
        let mut w = Watchdog::default();
        assert_eq!(w.after_ingest(&report(false, 4), 0), Verdict::Healthy);
        assert_eq!(w.stats().duplicates, 4);
    }

    #[test]
    fn stall_latches_resync_after_budget() {
        let mut w = Watchdog::new();
        w.note_missed_deadline();
        w.note_missed_deadline();
        assert!(!w.take_pending_resync(), "within budget");
        w.note_missed_deadline();
        assert!(w.take_pending_resync(), "past budget");
        // Taking the latch consumes it.
        assert!(!w.take_pending_resync());
        w.note_resynced();
        assert_eq!(w.stats().missed_ticks, 3);
        assert_eq!(w.stats().resyncs, 1);
    }

    #[test]
    fn meeting_a_deadline_resets_the_streak() {
        let mut w = Watchdog::new();
        w.note_missed_deadline();
        w.note_missed_deadline();
        w.note_deadline_met();
        w.note_missed_deadline();
        w.note_missed_deadline();
        assert!(!w.take_pending_resync(), "streak was broken");
        assert_eq!(w.stats().missed_ticks, 4);
    }
}
