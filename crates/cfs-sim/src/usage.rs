//! Per-cgroup CPU usage accounting.
//!
//! Algorithm 1 adjusts effective CPU from "the CPU usage of container `i`
//! during the updating period" (`u_i`). The ledger keeps the last-period
//! figure and the usage over the update timer's current window.

use arv_cgroups::{CgroupId, IdMap};
use arv_sim_core::SimDuration;

use crate::scheduler::Allocation;

/// One group's CPU usage, as the ledger holds it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupUsage {
    /// Usage in the last recorded period (`u_i`).
    pub last_period: SimDuration,
    /// Usage since the last [`UsageLedger::reset_window`].
    pub window: SimDuration,
}

/// CPU usage ledger across all cgroups.
#[derive(Debug, Clone, Default)]
pub struct UsageLedger {
    groups: IdMap<GroupUsage>,
    /// The last period's grantees: the only groups whose `last_period`
    /// can be non-zero.
    granted: Vec<CgroupId>,
    /// Groups charged since the last [`UsageLedger::reset_window`]: the
    /// only ones whose `window` can be non-zero. Each joins once a
    /// window, when its window leaves zero.
    charged: Vec<CgroupId>,
    last_slack: SimDuration,
    last_period: SimDuration,
    window_slack: SimDuration,
    window_time: SimDuration,
}

impl UsageLedger {
    /// An empty ledger.
    pub fn new() -> UsageLedger {
        UsageLedger::default()
    }

    /// Record one period's allocation. In the fluid model every grant is
    /// fully consumed, so grants are charged as usage.
    pub fn record(&mut self, alloc: &Allocation) {
        // Groups absent this period used nothing; only last period's
        // grantees can say otherwise.
        for id in self.granted.drain(..) {
            if let Some(g) = self.groups.get_mut(&id) {
                g.last_period = SimDuration::ZERO;
            }
        }
        for (id, granted) in &alloc.granted {
            let g = self.groups.entry(*id).or_default();
            if g.window.is_zero() && !granted.is_zero() {
                self.charged.push(*id);
            }
            g.last_period = *granted;
            g.window += *granted;
            self.granted.push(*id);
        }
        self.last_slack = alloc.slack;
        self.last_period = alloc.period;
        self.window_slack += alloc.slack;
        self.window_time += alloc.period;
    }

    /// Remove a terminated container's accounting.
    pub fn forget(&mut self, id: CgroupId) {
        self.groups.remove(&id);
    }

    /// Every group's usage, by id: read-only, so the update timer can
    /// walk it with a cursor ([`IdMap::get_from`]) beside its namespaces
    /// instead of looking each one up.
    pub fn groups(&self) -> &IdMap<GroupUsage> {
        &self.groups
    }

    /// Idle host CPU time in the last period (`pslack`).
    pub fn last_slack(&self) -> SimDuration {
        self.last_slack
    }

    /// Length of the last recorded period (`t` in Algorithm 1).
    pub fn last_period(&self) -> SimDuration {
        self.last_period
    }

    // --- update-timer window accounting ---
    //
    // Simulation steps can be shorter than one CFS scheduling period
    // (event-driven stepping); the `sys_namespace` update timer still
    // fires once per scheduling period, reading the usage accumulated
    // across the window since the previous firing.

    /// Idle host CPU time accumulated over the current window.
    pub fn window_slack(&self) -> SimDuration {
        self.window_slack
    }

    /// Wall time accumulated over the current window.
    pub fn window_time(&self) -> SimDuration {
        self.window_time
    }

    /// Close the current window (called when the update timer fires).
    pub fn reset_window(&mut self) {
        for id in self.charged.drain(..) {
            if let Some(g) = self.groups.get_mut(&id) {
                g.window = SimDuration::ZERO;
            }
        }
        self.window_slack = SimDuration::ZERO;
        self.window_time = SimDuration::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{CfsSim, GroupDemand};

    const P: SimDuration = SimDuration::from_millis(24);

    #[test]
    fn records_grants_as_usage() {
        let cfs = CfsSim::with_cpus(4);
        let mut ledger = UsageLedger::new();
        let a = cfs.allocate(P, &[GroupDemand::cpu_bound(CgroupId(0), 2, 1024, 4.0)]);
        ledger.record(&a);
        assert_eq!(ledger.last_usage(CgroupId(0)), P * 2);
        assert_eq!(ledger.window_usage(CgroupId(0)), P * 2);
        assert_eq!(ledger.last_slack(), P * 2);
        assert_eq!(ledger.last_period(), P);
    }

    #[test]
    fn cumulative_accumulates_across_periods() {
        let cfs = CfsSim::with_cpus(2);
        let mut ledger = UsageLedger::new();
        for _ in 0..5 {
            let a = cfs.allocate(P, &[GroupDemand::cpu_bound(CgroupId(7), 1, 1024, 2.0)]);
            ledger.record(&a);
        }
        // Until the update timer closes the window, it sums every period.
        assert_eq!(ledger.window_usage(CgroupId(7)), P * 5);
        assert_eq!(ledger.last_usage(CgroupId(7)), P);
        ledger.reset_window();
        assert_eq!(ledger.window_usage(CgroupId(7)), SimDuration::ZERO);
    }

    #[test]
    fn absent_group_resets_last_period_usage() {
        let cfs = CfsSim::with_cpus(2);
        let mut ledger = UsageLedger::new();
        let a = cfs.allocate(P, &[GroupDemand::cpu_bound(CgroupId(0), 1, 1024, 2.0)]);
        ledger.record(&a);
        let b = cfs.allocate(P, &[GroupDemand::cpu_bound(CgroupId(1), 1, 1024, 2.0)]);
        ledger.record(&b);
        assert_eq!(ledger.last_usage(CgroupId(0)), SimDuration::ZERO);
        assert_eq!(ledger.window_usage(CgroupId(0)), P);
    }

    #[test]
    fn forget_clears_accounting() {
        let cfs = CfsSim::with_cpus(2);
        let mut ledger = UsageLedger::new();
        let a = cfs.allocate(P, &[GroupDemand::cpu_bound(CgroupId(0), 1, 1024, 2.0)]);
        ledger.record(&a);
        ledger.forget(CgroupId(0));
        assert_eq!(ledger.last_usage(CgroupId(0)), SimDuration::ZERO);
        assert_eq!(ledger.window_usage(CgroupId(0)), SimDuration::ZERO);
    }

    #[test]
    fn unknown_group_reads_zero() {
        let ledger = UsageLedger::new();
        assert_eq!(ledger.last_usage(CgroupId(42)), SimDuration::ZERO);
        assert_eq!(ledger.window_usage(CgroupId(42)), SimDuration::ZERO);
    }

    mod reference_props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// The ledger as it was when `record` and `reset_window` walked
        /// every group: the reference the incremental zeroing must match.
        #[derive(Default)]
        struct Naive {
            groups: BTreeMap<CgroupId, GroupUsage>,
        }

        impl Naive {
            fn record(&mut self, alloc: &Allocation) {
                for (id, granted) in &alloc.granted {
                    let g = self.groups.entry(*id).or_default();
                    g.last_period = *granted;
                    g.window += *granted;
                }
                for (id, g) in self.groups.iter_mut() {
                    if !alloc.granted.contains_key(id) {
                        g.last_period = SimDuration::ZERO;
                    }
                }
            }

            fn reset_window(&mut self) {
                for g in self.groups.values_mut() {
                    g.window = SimDuration::ZERO;
                }
            }
        }

        proptest! {
            /// Random allocations recorded, groups forgotten and windows
            /// closed in any order: every accessor answers as the
            /// walk-every-group ledger does.
            #[test]
            fn incremental_zeroing_matches_the_full_walk(
                steps in prop::collection::vec(
                    (prop::collection::vec((0u32..10, 0u32..4), 0..8), 0u8..6, 0u32..10),
                    1..60),
            ) {
                let cfs = CfsSim::with_cpus(4);
                let (mut ledger, mut naive) = (UsageLedger::new(), Naive::default());
                for (demands, op, victim) in steps {
                    // One demand a group (the last drawn); zero runnable
                    // is granted nothing.
                    let demands: Vec<GroupDemand> = demands
                        .into_iter()
                        .collect::<BTreeMap<u32, u32>>()
                        .into_iter()
                        .map(|(id, runnable)| GroupDemand::cpu_bound(CgroupId(id), runnable, 1024, 2.0))
                        .collect();
                    let alloc = cfs.allocate(P, &demands);
                    ledger.record(&alloc);
                    naive.record(&alloc);
                    match op {
                        0 => {
                            ledger.forget(CgroupId(victim));
                            naive.groups.remove(&CgroupId(victim));
                        }
                        1 | 2 => {
                            ledger.reset_window();
                            naive.reset_window();
                        }
                        _ => {}
                    }
                    for id in (0..10).map(CgroupId) {
                        let g = naive.groups.get(&id).copied().unwrap_or_default();
                        prop_assert_eq!(ledger.last_usage(id), g.last_period);
                        prop_assert_eq!(ledger.window_usage(id), g.window);
                    }
                    prop_assert!(ledger.groups().iter().eq(naive.groups.iter()));
                }
            }
        }
    }

    impl UsageLedger {
        /// CPU time used by `id` in the last recorded period (`u_i`).
        fn last_usage(&self, id: CgroupId) -> SimDuration {
            self.groups
                .get(&id)
                .map_or(SimDuration::ZERO, |g| g.last_period)
        }

        /// CPU time used by `id` since the last
        /// [`UsageLedger::reset_window`].
        fn window_usage(&self, id: CgroupId) -> SimDuration {
            self.groups.get(&id).map_or(SimDuration::ZERO, |g| g.window)
        }
    }
}
