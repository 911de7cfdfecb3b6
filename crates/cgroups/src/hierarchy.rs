//! Hierarchical cgroups: the nested tree real orchestrators build.
//!
//! The paper's experiments use Docker's flat layout (one cgroup per
//! container under a common parent), which [`crate::manager`] models.
//! Kubernetes and systemd nest deeper — `kubepods.slice` → QoS class →
//! pod → container — and CPU time cascades down the tree: children
//! compete by `cpu.shares` for whatever their parent won, and a quota at
//! any level caps the whole subtree. This module provides that tree;
//! `arv-cfs`'s `allocate_tree` distributes CPU over it.

use crate::cpu::CpuController;
use crate::manager::{CgroupId, CgroupSpec};
use std::collections::BTreeMap;

/// Identifier of the implicit root of the tree.
pub const ROOT: CgroupId = CgroupId(u32::MAX);

#[derive(Debug, Clone)]
struct Node {
    spec: CgroupSpec,
    parent: CgroupId,
    children: Vec<CgroupId>,
}

/// A tree of cgroups under an implicit root.
#[derive(Debug, Clone, Default)]
pub struct CgroupTree {
    nodes: BTreeMap<CgroupId, Node>,
    root_children: Vec<CgroupId>,
    next_id: u32,
}

impl CgroupTree {
    /// An empty tree (just the implicit root).
    pub fn new() -> CgroupTree {
        CgroupTree::default()
    }

    /// Create a cgroup under `parent` (use [`ROOT`] for a top-level one).
    pub fn create(&mut self, parent: CgroupId, spec: CgroupSpec) -> CgroupId {
        assert!(
            parent == ROOT || self.nodes.contains_key(&parent),
            "unknown parent {parent:?}"
        );
        let id = CgroupId(self.next_id);
        self.next_id += 1;
        self.nodes.insert(
            id,
            Node {
                spec,
                parent,
                children: Vec::new(),
            },
        );
        if parent == ROOT {
            self.root_children.push(id);
        } else {
            self.nodes
                .get_mut(&parent)
                .expect("checked above")
                .children
                .push(id);
        }
        id
    }

    /// The parent of `id` ([`ROOT`] for top-level groups).
    pub fn parent(&self, id: CgroupId) -> Option<CgroupId> {
        self.nodes.get(&id).map(|n| n.parent)
    }

    /// Children of `id` (or of the root).
    pub fn children(&self, id: CgroupId) -> &[CgroupId] {
        if id == ROOT {
            &self.root_children
        } else {
            self.nodes.get(&id).map_or(&[], |n| &n.children)
        }
    }

    /// Whether `id` has no children.
    pub fn is_leaf(&self, id: CgroupId) -> bool {
        self.nodes.get(&id).is_some_and(|n| n.children.is_empty())
    }

    /// Leaves under `id` (containers), depth-first.
    pub fn leaves_under(&self, id: CgroupId) -> Vec<CgroupId> {
        let mut out = Vec::new();
        let mut stack: Vec<CgroupId> = self.children(id).to_vec();
        if id != ROOT && self.is_leaf(id) {
            out.push(id);
        }
        while let Some(n) = stack.pop() {
            if self.is_leaf(n) {
                out.push(n);
            } else {
                stack.extend_from_slice(self.children(n));
            }
        }
        out.sort_unstable();
        out
    }

    /// The tightest quota cap (in CPUs) along the path from `id` to the
    /// root — a nested quota caps the whole subtree.
    pub fn path_cpu_cap(&self, id: CgroupId, online: crate::cpu::CpuSet) -> f64 {
        let mut cap = f64::INFINITY;
        let mut cur = id;
        while cur != ROOT {
            let node = match self.nodes.get(&cur) {
                Some(n) => n,
                None => break,
            };
            cap = cap.min(node.spec.cpu.cpu_cap(online));
            cur = node.parent;
        }
        cap
    }

    /// The cpu controller of `id`.
    pub fn cpu(&self, id: CgroupId) -> Option<&CpuController> {
        self.nodes.get(&id).map(|n| &n.spec.cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CpuController, CpuSet};
    use crate::memory::MemController;

    fn spec(shares: u64, quota: Option<f64>) -> CgroupSpec {
        let mut cpu = CpuController::unlimited(20).with_shares(shares);
        if let Some(q) = quota {
            cpu = cpu.with_quota_cpus(q);
        }
        CgroupSpec::new(cpu, MemController::unlimited())
    }

    /// kubepods-style tree:
    /// root → kubepods(8192), system(1024); kubepods → podA(2048, 8cpu),
    /// podB(1024); podA → c1, c2; podB → c3.
    fn kube_tree() -> (CgroupTree, [CgroupId; 6]) {
        let mut t = CgroupTree::new();
        let kubepods = t.create(ROOT, spec(8192, None));
        let system = t.create(ROOT, spec(1024, None));
        let pod_a = t.create(kubepods, spec(2048, Some(8.0)));
        let pod_b = t.create(kubepods, spec(1024, None));
        let c1 = t.create(pod_a, spec(1024, None));
        let c2 = t.create(pod_a, spec(1024, None));
        let c3 = t.create(pod_b, spec(1024, None));
        (t, [kubepods, system, pod_a, c1, c2, c3])
    }

    #[test]
    fn tree_structure() {
        let (t, [kubepods, system, pod_a, c1, _c2, c3]) = kube_tree();
        assert_eq!(t.len(), 7);
        assert_eq!(t.children(ROOT), &[kubepods, system]);
        assert_eq!(t.parent(c1), Some(pod_a));
        assert!(t.is_leaf(c3));
        assert!(!t.is_leaf(kubepods));
    }

    #[test]
    fn leaves_under_subtrees() {
        let (t, [kubepods, system, pod_a, c1, c2, c3]) = kube_tree();
        assert_eq!(t.leaves_under(pod_a), vec![c1, c2]);
        assert_eq!(t.leaves_under(kubepods), vec![c1, c2, c3]);
        assert_eq!(t.leaves_under(ROOT), vec![system, c1, c2, c3]);
    }

    #[test]
    fn nested_quota_caps_the_path() {
        let (t, [_, _, _, c1, _, _]) = kube_tree();
        let online = CpuSet::first_n(20);
        // c1 itself is unlimited, but podA's 8-CPU quota binds.
        assert_eq!(t.path_cpu_cap(c1, online), 8.0);
    }

    #[test]
    fn remove_leaf_only() {
        let (mut t, [_, system, _, c1, _, _]) = kube_tree();
        assert!(t.remove(c1).is_some());
        assert!(t.remove(system).is_some());
        assert_eq!(t.len(), 5);
    }

    #[test]
    #[should_panic]
    fn remove_populated_group_panics() {
        let (mut t, [kubepods, ..]) = kube_tree();
        t.remove(kubepods);
    }

    #[test]
    #[should_panic]
    fn create_under_unknown_parent_panics() {
        let mut t = CgroupTree::new();
        t.create(CgroupId(42), spec(1024, None));
    }

    impl CgroupTree {
        /// Remove a leaf cgroup (children must be removed first, as in the
        /// kernel: `rmdir` fails on a populated cgroup).
        fn remove(&mut self, id: CgroupId) -> Option<CgroupSpec> {
            let node = self.nodes.get(&id)?;
            assert!(node.children.is_empty(), "cgroup {id:?} still has children");
            let parent = node.parent;
            let node = self.nodes.remove(&id).expect("present");
            if parent == ROOT {
                self.root_children.retain(|c| *c != id);
            } else if let Some(p) = self.nodes.get_mut(&parent) {
                p.children.retain(|c| *c != id);
            }
            Some(node.spec)
        }

        /// Number of entries.
        fn len(&self) -> usize {
            self.nodes.len()
        }
    }
}
