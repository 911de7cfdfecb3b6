//! Ground truth for the propagation workloads: what the controllers'
//! rollups must add up to, how far a standby trails, and the replicated
//! controller pair both workloads drive.

use std::collections::VecDeque;

use arv_fleet::{ClusterRollup, FleetController, FleetPolicy, SharedLease};
use arv_persist::ViewState;

/// Checkpoint cadence of the journals, ticks.
pub const CHECKPOINT_EVERY: u64 = 64;
/// Rounds the standby may trail before a round counts as failed. The
/// seed's lag is 0: the REPL stream is drained inside the round. A
/// change that batches or defers across ticks moves this, and must say so.
pub const MAX_LAG_ROUNDS: u64 = 0;
/// How far back a standby rollup is searched for among recent truths.
pub const LAG_WINDOW: usize = 8;

/// What the fleet should add up to after a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Truth {
    /// Σ effective CPUs.
    pub cpu: u64,
    /// Σ effective memory, bytes.
    pub mem: u64,
    /// Σ available memory, bytes.
    pub avail: u64,
    /// Containers.
    pub containers: u64,
}

impl Truth {
    /// Sum a set of view states.
    pub fn of<'a>(entries: impl IntoIterator<Item = &'a ViewState>) -> Truth {
        entries.into_iter().fold(Truth::default(), |t, e| Truth {
            cpu: t.cpu + u64::from(e.e_cpu),
            mem: t.mem + e.e_mem,
            avail: t.avail + e.e_avail,
            containers: t.containers + 1,
        })
    }

    /// Whether a controller's rollup shows exactly this, with `hosts`
    /// hosts and none partitioned.
    pub fn matches(&self, r: &ClusterRollup, hosts: u32) -> bool {
        (r.cpu, r.mem, r.avail, r.containers) == (self.cpu, self.mem, self.avail, self.containers)
            && r.hosts == hosts
            && r.partitioned == 0
    }
}

/// Rounds by which a standby trails: the newest of the last truths its
/// rollup equals (`None` if it equals none of them).
pub fn lag_rounds(recent: &VecDeque<Truth>, standby: &ClusterRollup, hosts: u32) -> Option<u64> {
    recent
        .iter()
        .rev()
        .position(|t| t.matches(standby, hosts))
        .map(|p| p as u64)
}

/// Remember `truth` as the newest of the last [`LAG_WINDOW`].
pub fn remember(recent: &mut VecDeque<Truth>, truth: Truth) {
    if recent.len() == LAG_WINDOW {
        recent.pop_front();
    }
    recent.push_back(truth);
}

/// A replicated controller pair sharing one lease: the primary journals,
/// holds the lease and replicates; the standby mirrors.
pub fn controller_pair(shards: usize) -> (FleetController, FleetController) {
    let lease = SharedLease::new();
    let mut primary = FleetController::new(shards, FleetPolicy::default());
    primary.enable_journal(CHECKPOINT_EVERY);
    primary.attach_lease(lease.clone(), 1, 3);
    primary.enable_replication();
    let standby = FleetController::new(shards, FleetPolicy::default());
    standby.attach_lease(lease, 2, 3);
    assert!(primary.is_leader() && !standby.is_leader());
    (primary, standby)
}
