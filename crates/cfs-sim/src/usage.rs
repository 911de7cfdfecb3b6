//! Per-cgroup CPU usage accounting.
//!
//! Algorithm 1 adjusts effective CPU from "the CPU usage of container `i`
//! during the updating period" (`u_i`). The ledger keeps the last-period
//! figure plus cumulative totals, as the kernel's cpuacct controller does.

use arv_cgroups::CgroupId;
use arv_sim_core::SimDuration;
use std::collections::BTreeMap;

use crate::scheduler::Allocation;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct GroupUsage {
    last_period: SimDuration,
    cumulative: SimDuration,
    window: SimDuration,
}

/// CPU usage ledger across all cgroups.
#[derive(Debug, Clone, Default)]
pub struct UsageLedger {
    groups: BTreeMap<CgroupId, GroupUsage>,
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
        for (id, granted) in &alloc.granted {
            let g = self.groups.entry(*id).or_default();
            g.last_period = *granted;
            g.cumulative += *granted;
            g.window += *granted;
        }
        // Groups absent this period used nothing.
        for (id, g) in self.groups.iter_mut() {
            if !alloc.granted.contains_key(id) {
                g.last_period = SimDuration::ZERO;
            }
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

    /// CPU time used by `id` in the last recorded period (`u_i`).
    pub fn last_usage(&self, id: CgroupId) -> SimDuration {
        self.groups
            .get(&id)
            .map_or(SimDuration::ZERO, |g| g.last_period)
    }

    /// Every group's last-period usage, in id order (the update timer
    /// walks this beside its namespaces instead of looking each one up).
    pub fn last_usages(&self) -> impl Iterator<Item = (CgroupId, SimDuration)> + '_ {
        self.groups.iter().map(|(id, g)| (*id, g.last_period))
    }

    /// Cumulative CPU time used by `id` (cpuacct.usage).
    pub fn cumulative(&self, id: CgroupId) -> SimDuration {
        self.groups
            .get(&id)
            .map_or(SimDuration::ZERO, |g| g.cumulative)
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

    /// CPU time used by `id` since the last [`UsageLedger::reset_window`].
    pub fn window_usage(&self, id: CgroupId) -> SimDuration {
        self.groups.get(&id).map_or(SimDuration::ZERO, |g| g.window)
    }

    /// Every group's usage over the current window, in id order.
    pub fn window_usages(&self) -> impl Iterator<Item = (CgroupId, SimDuration)> + '_ {
        self.groups.iter().map(|(id, g)| (*id, g.window))
    }

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
        for g in self.groups.values_mut() {
            g.window = SimDuration::ZERO;
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
        assert_eq!(ledger.cumulative(CgroupId(0)), P * 2);
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
        assert_eq!(ledger.cumulative(CgroupId(7)), P * 5);
        assert_eq!(ledger.last_usage(CgroupId(7)), P);
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
        assert_eq!(ledger.cumulative(CgroupId(0)), P);
    }

    #[test]
    fn forget_clears_accounting() {
        let cfs = CfsSim::with_cpus(2);
        let mut ledger = UsageLedger::new();
        let a = cfs.allocate(P, &[GroupDemand::cpu_bound(CgroupId(0), 1, 1024, 2.0)]);
        ledger.record(&a);
        ledger.forget(CgroupId(0));
        assert_eq!(ledger.cumulative(CgroupId(0)), SimDuration::ZERO);
    }

    #[test]
    fn unknown_group_reads_zero() {
        let ledger = UsageLedger::new();
        assert_eq!(ledger.last_usage(CgroupId(42)), SimDuration::ZERO);
        assert_eq!(ledger.cumulative(CgroupId(42)), SimDuration::ZERO);
    }
}
