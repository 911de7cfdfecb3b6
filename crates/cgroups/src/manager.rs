//! The cgroup manager: a flat registry of container cgroups plus the
//! change-event stream consumed by the paper's `ns_monitor`.
//!
//! Docker creates one cgroup per container under a common parent; the
//! experiments in the paper never nest deeper, so the model is a flat set
//! under an implicit root. Every mutation is recorded as a
//! [`CgroupEvent`], mirroring the kernel hook the paper adds ("invoke
//! ns_monitor if a sys_namespace exists for a control group and there is a
//! change to the cgroups settings").

use crate::cpu::CpuController;
use crate::memory::MemController;

/// Identifier of a cgroup (and, one-to-one in this model, of a container).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CgroupId(pub u32);

impl From<CgroupId> for u64 {
    fn from(id: CgroupId) -> u64 {
        u64::from(id.0)
    }
}

/// The id-sorted table ([`arv_sim_core::IdMap`]) keyed by [`CgroupId`]:
/// every per-container table of the host.
pub type IdMap<V> = arv_sim_core::IdMap<CgroupId, V>;

/// Full resource specification of one cgroup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgroupSpec {
    /// The cpu controller settings.
    pub cpu: CpuController,
    /// The memory controller settings.
    pub mem: MemController,
}

impl CgroupSpec {
    /// Combine controllers into a spec (limits must be consistent).
    pub fn new(cpu: CpuController, mem: MemController) -> CgroupSpec {
        assert!(mem.is_consistent(), "soft limit must not exceed hard limit");
        CgroupSpec { cpu, mem }
    }
}

/// A change to the cgroup tree, in the order it happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CgroupEvent {
    /// A cgroup was created.
    Created(CgroupId),
    /// A cgroup was removed.
    Removed(CgroupId),
    /// Settings changed (new spec attached).
    Updated(CgroupId),
}

/// Flat registry of cgroups with an event log.
#[derive(Debug, Default)]
pub struct CgroupManager {
    groups: IdMap<CgroupSpec>,
    next_id: u32,
    events: Vec<CgroupEvent>,
}

impl CgroupManager {
    /// An empty registry.
    pub fn new() -> CgroupManager {
        CgroupManager::default()
    }

    /// Create a cgroup with `spec`; returns its id.
    pub fn create(&mut self, spec: CgroupSpec) -> CgroupId {
        let id = CgroupId(self.next_id);
        self.next_id += 1;
        self.groups.insert(id, spec);
        self.events.push(CgroupEvent::Created(id));
        id
    }

    /// Remove a cgroup. Returns the spec it had, or `None` if unknown.
    pub fn remove(&mut self, id: CgroupId) -> Option<CgroupSpec> {
        let spec = self.groups.remove(&id);
        if spec.is_some() {
            self.events.push(CgroupEvent::Removed(id));
        }
        spec
    }

    /// Replace the settings of an existing cgroup.
    ///
    /// Returns `false` (and records nothing) for an unknown id.
    pub fn update(&mut self, id: CgroupId, spec: CgroupSpec) -> bool {
        match self.groups.get_mut(&id) {
            Some(slot) => {
                *slot = spec;
                self.events.push(CgroupEvent::Updated(id));
                true
            }
            None => false,
        }
    }

    /// The settings of `id`, if it exists.
    pub fn get(&self, id: CgroupId) -> Option<&CgroupSpec> {
        self.groups.get(&id)
    }

    /// Whether `id` is a live cgroup.
    pub fn contains(&self, id: CgroupId) -> bool {
        self.groups.contains_key(&id)
    }

    /// Iterate over live cgroups in id order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (CgroupId, &CgroupSpec)> {
        self.groups.iter().map(|(id, s)| (*id, s))
    }

    /// Sum of `cpu.shares` over all live cgroups — the `Σ w_j` of
    /// Algorithm 1.
    pub fn total_shares(&self) -> u64 {
        self.groups.values().map(|s| s.cpu.shares).sum()
    }

    /// Drain the pending change events (consumed by `ns_monitor`).
    pub fn drain_events(&mut self) -> Vec<CgroupEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuController;
    use crate::memory::{Bytes, MemController};

    fn spec() -> CgroupSpec {
        CgroupSpec::new(CpuController::unlimited(20), MemController::unlimited())
    }

    #[test]
    fn create_assigns_unique_ids() {
        let mut m = CgroupManager::new();
        let a = m.create(spec());
        let b = m.create(spec());
        assert_ne!(a, b);
        assert_eq!(m.len(), 2);
        assert!(m.contains(a) && m.contains(b));
    }

    #[test]
    fn events_record_lifecycle_in_order() {
        let mut m = CgroupManager::new();
        let a = m.create(spec());
        m.update(a, spec());
        m.remove(a);
        assert_eq!(
            m.drain_events(),
            vec![
                CgroupEvent::Created(a),
                CgroupEvent::Updated(a),
                CgroupEvent::Removed(a)
            ]
        );
        assert_eq!(m.pending_events(), 0);
    }

    #[test]
    fn update_unknown_id_is_rejected() {
        let mut m = CgroupManager::new();
        assert!(!m.update(CgroupId(99), spec()));
        assert_eq!(m.drain_events(), vec![]);
    }

    #[test]
    fn remove_unknown_id_is_noop() {
        let mut m = CgroupManager::new();
        assert!(m.remove(CgroupId(3)).is_none());
        assert!(m.drain_events().is_empty());
    }

    #[test]
    fn total_shares_sums_live_groups() {
        let mut m = CgroupManager::new();
        let a = m.create(CgroupSpec::new(
            CpuController::unlimited(4).with_shares(512),
            MemController::unlimited(),
        ));
        m.create(CgroupSpec::new(
            CpuController::unlimited(4).with_shares(1024),
            MemController::unlimited(),
        ));
        assert_eq!(m.total_shares(), 1536);
        m.remove(a);
        assert_eq!(m.total_shares(), 1024);
    }

    #[test]
    fn ids_are_not_reused_after_removal() {
        let mut m = CgroupManager::new();
        let a = m.create(spec());
        m.remove(a);
        let b = m.create(spec());
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic]
    fn inconsistent_spec_rejected() {
        CgroupSpec::new(
            CpuController::unlimited(4),
            MemController::unlimited()
                .with_hard_limit(Bytes::from_mib(10))
                .with_soft_limit(Bytes::from_mib(20)),
        );
    }

    #[test]
    fn iter_is_id_ordered() {
        let mut m = CgroupManager::new();
        let ids: Vec<CgroupId> = (0..5).map(|_| m.create(spec())).collect();
        let seen: Vec<CgroupId> = m.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, seen);
    }

    impl CgroupManager {
        /// Number of entries.
        fn len(&self) -> usize {
            self.groups.len()
        }

        /// Number of pending (undrained) events.
        fn pending_events(&self) -> usize {
            self.events.len()
        }
    }
}
