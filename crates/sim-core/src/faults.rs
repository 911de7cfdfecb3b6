//! Deterministic fault injection for the view pipeline.
//!
//! A [`FaultPlan`] is a seeded source of faults for the view pipeline
//! and the fleet — event delivery (drop / duplicate / reorder), the
//! monitor itself (stall windows), the wire protocol (corrupt /
//! truncate frames), daemon and controller crashes, partitions, lag,
//! lease stalls and replication lag. Publish delays are injected on the
//! host (`SimHost::inject_publish_delay`) and storage faults by an
//! `arv_persist` `FaultyStore` under its own `StoreFaults`, not here.
//! Because every decision flows through a [`SimRng`] seeded from the
//! experiment seed, a chaos run is bit-for-bit reproducible: the same
//! seed injects the same faults at the same ticks, so recovery
//! invariants can be asserted exactly.

use crate::rng::SimRng;

/// Probabilities and schedules for one fault campaign.
///
/// Probabilities are per-item (per event, per frame); schedules are
/// half-open tick windows `[start, start + duration)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// Probability an event is dropped in transit.
    pub drop_prob: f64,
    /// Probability an event is delivered twice.
    pub dup_prob: f64,
    /// Probability an adjacent pair of events is swapped.
    pub reorder_prob: f64,
    /// Probability a wire frame has one byte flipped.
    pub corrupt_prob: f64,
    /// Probability a wire frame is truncated.
    pub truncate_prob: f64,
    /// Monitor stall window: `(first_tick, duration_ticks)`.
    pub stall_at: Option<(u64, u64)>,
    /// Daemon crash window: `(crash_tick, downtime_ticks)`. The daemon
    /// is down for the window and warm-restarts from its journal at the
    /// first tick past it.
    pub crash_at: Option<(u64, u64)>,
    /// Fleet partition window: `(first_tick, duration_ticks)` during
    /// which a periphery's frames never reach the controller (the
    /// controller serves its last-good contribution flagged degraded).
    pub partition_at: Option<(u64, u64)>,
    /// Fleet lag: every periphery frame is delivered this many ticks
    /// late (a lagging host; zero = on time).
    pub lag_ticks: u64,
    /// Replicated-fleet primary kill: `(kill_tick, downtime_ticks)`.
    /// There is no journal warm-restart — peripheries walk to a hot
    /// standby, which promotes itself once the primary's lease expires.
    pub primary_crash_at: Option<(u64, u64)>,
    /// Lease-stall window: `(first_tick, duration_ticks)` during which
    /// the primary cannot renew its lease (a GC pause / disk hiccup)
    /// while still serving traffic — the split-brain scenario epoch
    /// fencing must win.
    pub lease_stall_at: Option<(u64, u64)>,
    /// Replication-lag window: `(first_tick, duration_ticks)` during
    /// which REPL frames queue at the primary instead of reaching the
    /// standby (they drain, in order, after the window).
    pub repl_lag_at: Option<(u64, u64)>,
}

impl FaultConfig {
    /// A plan that injects nothing (useful for reference twins).
    pub fn quiet() -> FaultConfig {
        FaultConfig::default()
    }
}

/// Counters for what the plan actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Events dropped.
    pub dropped: u64,
    /// Events duplicated.
    pub duplicated: u64,
    /// Adjacent event pairs swapped.
    pub reordered: u64,
    /// Wire frames with a corrupted byte.
    pub corrupted: u64,
    /// Wire frames truncated.
    pub truncated: u64,
}

/// A seeded, replayable fault injector.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: SimRng,
    cfg: FaultConfig,
    stats: FaultStats,
}

impl FaultPlan {
    /// A plan drawing decisions from `seed` under `cfg`.
    pub fn new(seed: u64, cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            rng: SimRng::seed_from_u64(seed),
            cfg,
            stats: FaultStats::default(),
        }
    }

    /// What has been injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether the monitor is stalled at `tick`.
    pub fn monitor_stalled(&self, tick: u64) -> bool {
        in_window(self.cfg.stall_at, tick)
    }

    /// Whether the daemon is crashed (down) at `tick`.
    pub fn crashed(&self, tick: u64) -> bool {
        in_window(self.cfg.crash_at, tick)
    }

    /// The tick the daemon warm-restarts at (first tick past the crash
    /// window), if a crash is scheduled.
    pub fn restart_tick(&self) -> Option<u64> {
        self.cfg
            .crash_at
            .map(|(start, dur)| start.saturating_add(dur))
    }

    /// Whether the fleet periphery is partitioned from the controller
    /// at `tick` (its frames are dropped in transit).
    pub fn partitioned(&self, tick: u64) -> bool {
        in_window(self.cfg.partition_at, tick)
    }

    /// How many ticks late every fleet frame arrives (a lagging host).
    pub fn frame_lag(&self) -> u64 {
        self.cfg.lag_ticks
    }

    /// Whether the replicated-fleet primary is dead at `tick`.
    pub fn primary_crashed(&self, tick: u64) -> bool {
        in_window(self.cfg.primary_crash_at, tick)
    }

    /// Whether the primary's lease renewals are stalled at `tick`.
    pub fn lease_stalled(&self, tick: u64) -> bool {
        in_window(self.cfg.lease_stall_at, tick)
    }

    /// Whether REPL frames queue at the primary (replication lag) at
    /// `tick`.
    pub fn repl_lagged(&self, tick: u64) -> bool {
        in_window(self.cfg.repl_lag_at, tick)
    }

    /// Apply drop / duplicate / reorder faults to a queue of events.
    ///
    /// Order of passes is fixed (drop, duplicate, reorder) so a given
    /// seed always mangles a given queue the same way.
    pub fn mangle_queue<T: Clone>(&mut self, queue: &mut Vec<T>) {
        if self.cfg.drop_prob > 0.0 {
            queue.retain(|_| {
                let keep = self.rng.unit() >= self.cfg.drop_prob;
                if !keep {
                    self.stats.dropped += 1;
                }
                keep
            });
        }
        if self.cfg.dup_prob > 0.0 {
            let mut doubled = Vec::with_capacity(queue.len());
            for item in queue.drain(..) {
                let dup = self.rng.unit() < self.cfg.dup_prob;
                if dup {
                    self.stats.duplicated += 1;
                    doubled.push(item.clone());
                }
                doubled.push(item);
            }
            *queue = doubled;
        }
        if self.cfg.reorder_prob > 0.0 && queue.len() >= 2 {
            for i in 0..queue.len() - 1 {
                if self.rng.unit() < self.cfg.reorder_prob {
                    queue.swap(i, i + 1);
                    self.stats.reordered += 1;
                }
            }
        }
    }

    /// Apply corruption / truncation faults to a wire frame in place.
    ///
    /// Returns `true` if the frame was touched. An empty frame is left
    /// alone (nothing to mangle).
    pub fn mangle_frame(&mut self, frame: &mut Vec<u8>) -> bool {
        if frame.is_empty() {
            return false;
        }
        let mut touched = false;
        if self.cfg.corrupt_prob > 0.0 && self.rng.unit() < self.cfg.corrupt_prob {
            let idx = self.rng.range_u64(0, frame.len() as u64) as usize;
            let bit = self.rng.range_u64(0, 8) as u8;
            frame[idx] ^= 1 << bit;
            self.stats.corrupted += 1;
            touched = true;
        }
        if self.cfg.truncate_prob > 0.0
            && self.rng.unit() < self.cfg.truncate_prob
            && frame.len() > 1
        {
            let keep = self.rng.range_u64(1, frame.len() as u64) as usize;
            frame.truncate(keep);
            self.stats.truncated += 1;
            touched = true;
        }
        touched
    }
}

fn in_window(window: Option<(u64, u64)>, tick: u64) -> bool {
    match window {
        Some((start, dur)) => tick >= start && tick < start.saturating_add(dur),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy() -> FaultConfig {
        FaultConfig {
            drop_prob: 0.3,
            dup_prob: 0.2,
            reorder_prob: 0.2,
            corrupt_prob: 0.5,
            truncate_prob: 0.3,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn same_seed_mangles_identically() {
        let mut a = FaultPlan::new(11, lossy());
        let mut b = FaultPlan::new(11, lossy());
        for round in 0..20 {
            let mut qa: Vec<u64> = (0..16).map(|i| round * 100 + i).collect();
            let mut qb = qa.clone();
            a.mangle_queue(&mut qa);
            b.mangle_queue(&mut qb);
            assert_eq!(qa, qb);
            let mut fa: Vec<u8> = (0..32).map(|i| i as u8).collect();
            let mut fb = fa.clone();
            a.mangle_frame(&mut fa);
            b.mangle_frame(&mut fb);
            assert_eq!(fa, fb);
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total() > 0, "lossy plan injected nothing");
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let mut p = FaultPlan::new(3, FaultConfig::quiet());
        let mut q: Vec<u32> = (0..64).collect();
        let orig = q.clone();
        p.mangle_queue(&mut q);
        assert_eq!(q, orig);
        let mut f = vec![1u8, 2, 3, 4];
        assert!(!p.mangle_frame(&mut f));
        assert_eq!(f, vec![1, 2, 3, 4]);
        assert_eq!(p.stats().total(), 0);
    }

    #[test]
    fn stall_and_delay_windows_are_half_open() {
        let cfg = FaultConfig {
            stall_at: Some((10, 4)),
            ..FaultConfig::default()
        };
        let p = FaultPlan::new(0, cfg);
        assert!(!p.monitor_stalled(9));
        assert!(p.monitor_stalled(10));
        assert!(p.monitor_stalled(13));
        assert!(!p.monitor_stalled(14));
    }

    #[test]
    fn crash_and_flood_windows_are_half_open() {
        let cfg = FaultConfig {
            crash_at: Some((30, 5)),
            ..FaultConfig::default()
        };
        let p = FaultPlan::new(0, cfg);
        assert!(!p.crashed(29));
        assert!(p.crashed(30));
        assert!(p.crashed(34));
        assert!(!p.crashed(35));
        assert_eq!(p.restart_tick(), Some(35));
        let quiet = FaultPlan::new(0, FaultConfig::quiet());
        assert!(!quiet.crashed(0));
        assert_eq!(quiet.restart_tick(), None);
    }

    #[test]
    fn fleet_windows_are_half_open() {
        let cfg = FaultConfig {
            partition_at: Some((5, 3)),
            lag_ticks: 2,
            ..FaultConfig::default()
        };
        let p = FaultPlan::new(0, cfg);
        assert!(!p.partitioned(4));
        assert!(p.partitioned(5));
        assert!(p.partitioned(7));
        assert!(!p.partitioned(8));
        assert_eq!(p.frame_lag(), 2);
        let quiet = FaultPlan::new(0, FaultConfig::quiet());
        assert!(!quiet.partitioned(0));
        assert_eq!(quiet.frame_lag(), 0);
    }

    #[test]
    fn replication_windows_are_half_open() {
        let cfg = FaultConfig {
            primary_crash_at: Some((40, 1000)),
            lease_stall_at: Some((10, 6)),
            repl_lag_at: Some((30, 5)),
            ..FaultConfig::default()
        };
        let p = FaultPlan::new(0, cfg);
        assert!(!p.primary_crashed(39));
        assert!(p.primary_crashed(40));
        assert!(p.primary_crashed(1039));
        assert!(!p.primary_crashed(1040));
        assert!(!p.lease_stalled(9));
        assert!(p.lease_stalled(10));
        assert!(p.lease_stalled(15));
        assert!(!p.lease_stalled(16));
        assert!(!p.repl_lagged(29));
        assert!(p.repl_lagged(30));
        assert!(p.repl_lagged(34));
        assert!(!p.repl_lagged(35));
        let quiet = FaultPlan::new(0, FaultConfig::quiet());
        assert!(!quiet.primary_crashed(0));
        assert!(!quiet.lease_stalled(0));
        assert!(!quiet.repl_lagged(0));
    }

    #[test]
    fn truncation_never_empties_or_grows_the_frame() {
        let cfg = FaultConfig {
            truncate_prob: 1.0,
            ..FaultConfig::default()
        };
        let mut p = FaultPlan::new(77, cfg);
        for len in 2..40usize {
            let mut f = vec![0xABu8; len];
            p.mangle_frame(&mut f);
            assert!(!f.is_empty() && f.len() < len);
        }
    }

    impl FaultStats {
        /// Total number of injected faults of any kind.
        fn total(&self) -> u64 {
            self.dropped + self.duplicated + self.reordered + self.corrupted + self.truncated
        }
    }
}
