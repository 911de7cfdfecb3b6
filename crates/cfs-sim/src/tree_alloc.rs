//! Hierarchical CPU allocation over a [`CgroupTree`]: CFS group
//! scheduling.
//!
//! The flat allocator models Docker's single-level layout; Kubernetes
//! nests cgroups (slice → pod → container), and CFS distributes CPU
//! *recursively*: siblings compete by `cpu.shares` for their parent's
//! grant, quotas cap whole subtrees, and capacity a subtree cannot absorb
//! is redistributed to its siblings (hierarchical work conservation).
//!
//! The implementation runs the same weighted max-min fixed point at every
//! level: a node's demand is the (quota-capped) sum of its children's
//! demands, computed bottom-up; grants then flow top-down.

use arv_cgroups::hierarchy::{CgroupTree, ROOT};
use arv_cgroups::CgroupId;
use arv_sim_core::SimDuration;
use std::collections::BTreeMap;

use crate::scheduler::{weighted_max_min, Allocation, CfsSim};

/// A leaf container's demand for one period, in CPUs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafDemand {
    /// Runnable threads this period.
    pub runnable: u32,
    /// CPU the leaf wants this period, in CPUs.
    pub demand_cpus: f64,
}

impl LeafDemand {
    /// A fully CPU-bound leaf: every runnable thread wants a whole CPU.
    pub fn cpu_bound(runnable: u32) -> LeafDemand {
        LeafDemand {
            runnable,
            demand_cpus: f64::from(runnable),
        }
    }
}

/// Allocate one period over the cgroup tree.
///
/// `demands` carries the runnable leaf containers; absent leaves are
/// idle. Returns a flat [`Allocation`] with grants for every leaf in
/// `demands` (interior nodes are bookkeeping, not schedulable entities).
pub fn allocate_tree(
    cfs: &CfsSim,
    period: SimDuration,
    tree: &CgroupTree,
    demands: &BTreeMap<CgroupId, LeafDemand>,
) -> Allocation {
    assert!(!period.is_zero(), "period must be positive");
    let online = cfs.online();
    let period_us = period.as_micros() as f64;

    // Bottom-up: each node's absorbable demand in µs, capped by its own
    // quota/cpuset at every level.
    fn demand_of(
        tree: &CgroupTree,
        id: CgroupId,
        demands: &BTreeMap<CgroupId, LeafDemand>,
        online: arv_cgroups::CpuSet,
        period_us: f64,
        memo: &mut BTreeMap<CgroupId, f64>,
    ) -> f64 {
        if let Some(v) = memo.get(&id) {
            return *v;
        }
        let children = tree.children(id);
        let raw = if children.is_empty() {
            demands.get(&id).map_or(0.0, |d| {
                d.demand_cpus.min(f64::from(d.runnable)).max(0.0) * period_us
            })
        } else {
            children
                .iter()
                .map(|c| demand_of(tree, *c, demands, online, period_us, memo))
                .sum()
        };
        let capped = match tree.cpu(id) {
            Some(cpu) => raw.min(cpu.cpu_cap(online) * period_us),
            None => raw, // the implicit root has no controller
        };
        memo.insert(id, capped);
        capped
    }

    let mut memo = BTreeMap::new();
    for top in tree.children(ROOT) {
        demand_of(tree, *top, demands, online, period_us, &mut memo);
    }

    // Top-down: distribute each node's grant among its children by shares.
    let supply_us = online.count() as f64 * period_us;
    let mut granted_us: BTreeMap<CgroupId, f64> = BTreeMap::new();
    let mut frontier: Vec<(CgroupId, f64)> = {
        let tops = tree.children(ROOT);
        let items: Vec<(f64, f64)> = tops
            .iter()
            .map(|c| {
                let weight = tree.cpu(*c).map_or(1024.0, |cpu| cpu.shares as f64);
                (weight, *memo.get(c).unwrap_or(&0.0))
            })
            .collect();
        let grants = weighted_max_min(supply_us, &items);
        tops.iter().copied().zip(grants).collect()
    };

    let mut used = 0.0;
    while let Some((id, grant)) = frontier.pop() {
        let children = tree.children(id);
        if children.is_empty() {
            if demands.contains_key(&id) {
                used += grant;
                granted_us.insert(id, grant);
            }
            continue;
        }
        let items: Vec<(f64, f64)> = children
            .iter()
            .map(|c| {
                let weight = tree.cpu(*c).map_or(1024.0, |cpu| cpu.shares as f64);
                (weight, *memo.get(c).unwrap_or(&0.0))
            })
            .collect();
        let grants = weighted_max_min(grant, &items);
        frontier.extend(children.iter().copied().zip(grants));
    }

    Allocation {
        granted: granted_us
            .iter()
            .map(|(id, us)| (*id, SimDuration::from_micros(us.round() as u64)))
            .collect(),
        slack: SimDuration::from_micros((supply_us - used).max(0.0).round() as u64),
        period,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arv_cgroups::hierarchy::ROOT;
    use arv_cgroups::{CgroupSpec, CpuController, MemController};

    const P: SimDuration = SimDuration::from_millis(24);

    fn spec(shares: u64, quota: Option<f64>) -> CgroupSpec {
        let mut cpu = CpuController::unlimited(20).with_shares(shares);
        if let Some(q) = quota {
            cpu = cpu.with_quota_cpus(q);
        }
        CgroupSpec::new(cpu, MemController::unlimited())
    }

    /// root → kubepods(8192) {podA(2048, 8cpu){c1,c2}, podB(1024){c3}},
    ///        system(1024){sysd}
    fn kube() -> (CgroupTree, CgroupId, CgroupId, CgroupId, CgroupId) {
        let mut t = CgroupTree::new();
        let kubepods = t.create(ROOT, spec(8192, None));
        let system = t.create(ROOT, spec(1024, None));
        let pod_a = t.create(kubepods, spec(2048, Some(8.0)));
        let pod_b = t.create(kubepods, spec(1024, None));
        let c1 = t.create(pod_a, spec(1024, None));
        let c2 = t.create(pod_a, spec(1024, None));
        let c3 = t.create(pod_b, spec(1024, None));
        let sysd = t.create(system, spec(1024, None));
        (t, c1, c2, c3, sysd)
    }

    #[test]
    fn shares_cascade_through_levels() {
        let (t, c1, c2, c3, sysd) = kube();
        let cfs = CfsSim::with_cpus(18);
        let mut demands = BTreeMap::new();
        for c in [c1, c2, c3, sysd] {
            demands.insert(c, LeafDemand::cpu_bound(20));
        }
        let a = allocate_tree(&cfs, P, &t, &demands);
        // Top level: kubepods 8192 vs system 1024 → 16 : 2 CPUs.
        assert!((a.granted_cpus(sysd) - 2.0).abs() < 1e-6);
        // Inside kubepods: podA 2048 vs podB 1024, podA capped at 8 →
        // podA 8 (quota binds below the 10.67 share), podB takes the rest.
        assert!((a.granted_cpus(c1) - 4.0).abs() < 1e-6);
        assert!((a.granted_cpus(c2) - 4.0).abs() < 1e-6);
        assert!((a.granted_cpus(c3) - 8.0).abs() < 1e-6);
        assert!(!a.has_slack());
    }

    #[test]
    fn work_conservation_stays_inside_the_subtree_first() {
        let (t, c1, _c2, c3, sysd) = kube();
        let cfs = CfsSim::with_cpus(18);
        // c2 idle: its share flows to c1 (same pod) before anyone else.
        let mut demands = BTreeMap::new();
        for c in [c1, c3, sysd] {
            demands.insert(c, LeafDemand::cpu_bound(20));
        }
        let a = allocate_tree(&cfs, P, &t, &demands);
        assert!(
            (a.granted_cpus(c1) - 8.0).abs() < 1e-6,
            "c1 absorbs podA's quota"
        );
        assert!((a.granted_cpus(c3) - 8.0).abs() < 1e-6);
        assert!((a.granted_cpus(sysd) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn idle_subtree_releases_capacity_upward() {
        let (t, c1, c2, _c3, sysd) = kube();
        let cfs = CfsSim::with_cpus(18);
        // podB entirely idle: kubepods' demand = podA's 8-CPU quota; the
        // remaining 10 CPUs flow to system.
        let mut demands = BTreeMap::new();
        for c in [c1, c2, sysd] {
            demands.insert(c, LeafDemand::cpu_bound(20));
        }
        let a = allocate_tree(&cfs, P, &t, &demands);
        assert!((a.granted_cpus(c1) - 4.0).abs() < 1e-6);
        assert!((a.granted_cpus(c2) - 4.0).abs() < 1e-6);
        assert!((a.granted_cpus(sysd) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn nested_quota_caps_the_whole_subtree() {
        let mut t = CgroupTree::new();
        let slice = t.create(ROOT, spec(1024, Some(4.0)));
        let c1 = t.create(slice, spec(1024, None));
        let c2 = t.create(slice, spec(1024, None));
        let cfs = CfsSim::with_cpus(20);
        let mut demands = BTreeMap::new();
        demands.insert(c1, LeafDemand::cpu_bound(20));
        demands.insert(c2, LeafDemand::cpu_bound(20));
        let a = allocate_tree(&cfs, P, &t, &demands);
        assert!((a.granted_cpus(c1) - 2.0).abs() < 1e-6);
        assert!((a.granted_cpus(c2) - 2.0).abs() < 1e-6);
        assert_eq!(a.slack, P * 16);
    }

    #[test]
    fn flat_tree_matches_flat_allocator() {
        // One level of equal-share containers must reproduce the paper's
        // flat split exactly.
        let mut t = CgroupTree::new();
        let ids: Vec<_> = (0..5)
            .map(|_| t.create(ROOT, spec(1024, Some(10.0))))
            .collect();
        let cfs = CfsSim::with_cpus(20);
        let mut demands = BTreeMap::new();
        for id in &ids {
            demands.insert(*id, LeafDemand::cpu_bound(20));
        }
        let a = allocate_tree(&cfs, P, &t, &demands);
        for id in &ids {
            assert!((a.granted_cpus(*id) - 4.0).abs() < 1e-6);
        }
    }

    #[test]
    fn grants_and_slack_conserve_supply() {
        let (t, c1, _c2, c3, _sysd) = kube();
        let cfs = CfsSim::with_cpus(18);
        let mut demands = BTreeMap::new();
        demands.insert(c1, LeafDemand::cpu_bound(3));
        demands.insert(
            c3,
            LeafDemand {
                runnable: 8,
                demand_cpus: 2.5,
            },
        );
        let a = allocate_tree(&cfs, P, &t, &demands);
        let total: u64 = a.granted.values().map(|g| g.as_micros()).sum();
        let supply = P.as_micros() * 18;
        assert!((total + a.slack.as_micros()) as i64 - supply as i64 <= 4);
        assert!((a.granted_cpus(c1) - 3.0).abs() < 1e-6);
        assert!((a.granted_cpus(c3) - 2.5).abs() < 1e-6);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use arv_cgroups::hierarchy::ROOT;
    use arv_cgroups::{CgroupSpec, CpuController, MemController};
    use proptest::prelude::*;

    const P: SimDuration = SimDuration::from_millis(24);

    /// One pod: its shares, optional quota, and `(shares, runnable)`
    /// per leaf container.
    type Pod = (u64, Option<f64>, Vec<(u64, u32)>);

    /// Build a random two-level tree: `pods` top-level groups, each with
    /// 1–4 leaf containers, random shares and optional quotas.
    fn random_tree(pods: &[Pod]) -> (CgroupTree, Vec<CgroupId>) {
        let mut tree = CgroupTree::new();
        let mut leaves = Vec::new();
        for (shares, quota, containers) in pods {
            let mut cpu = CpuController::unlimited(20).with_shares(*shares);
            if let Some(q) = quota {
                cpu = cpu.with_quota_cpus(*q);
            }
            let pod = tree.create(ROOT, CgroupSpec::new(cpu, MemController::unlimited()));
            for (c_shares, _) in containers {
                let c = tree.create(
                    pod,
                    CgroupSpec::new(
                        CpuController::unlimited(20).with_shares(*c_shares),
                        MemController::unlimited(),
                    ),
                );
                leaves.push(c);
            }
        }
        (tree, leaves)
    }

    fn pod_strategy() -> impl Strategy<Value = Pod> {
        (
            2u64..8192,
            prop::option::of(0.5f64..16.0),
            prop::collection::vec((2u64..4096, 1u32..24), 1..4),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Hierarchical allocation conserves supply and respects every
        /// quota along every path.
        #[test]
        fn conservation_and_path_caps(
            pods in prop::collection::vec(pod_strategy(), 1..5),
            cpus in 1u32..32,
        ) {
            let (tree, leaves) = random_tree(&pods);
            let cfs = CfsSim::with_cpus(cpus);
            let mut demands = BTreeMap::new();
            let mut runnables = Vec::new();
            let mut li = 0;
            for (_, _, containers) in &pods {
                for (_, runnable) in containers {
                    demands.insert(leaves[li], LeafDemand::cpu_bound(*runnable));
                    runnables.push(*runnable);
                    li += 1;
                }
            }
            let a = allocate_tree(&cfs, P, &tree, &demands);

            // 1. Conservation: grants + slack = supply (within rounding).
            let total: u64 = a.granted.values().map(|g| g.as_micros()).sum();
            let supply = P.as_micros() * u64::from(cpus);
            let diff = (total + a.slack.as_micros()) as i64 - supply as i64;
            prop_assert!(diff.abs() <= leaves.len() as i64 + 2, "conservation: {diff}");

            // 2. Every leaf within its own demand and its path cap.
            let online = cfs.online();
            for (leaf, runnable) in leaves.iter().zip(&runnables) {
                let g = a.granted_cpus(*leaf);
                prop_assert!(g <= f64::from(*runnable) + 1e-3);
                prop_assert!(
                    g <= tree.path_cpu_cap(*leaf, online) + 1e-3,
                    "leaf {leaf:?} exceeded its path cap"
                );
            }

            // 3. Every pod's subtree total within the pod's quota.
            for (pi, (_, quota, _)) in pods.iter().enumerate() {
                if let Some(q) = quota {
                    let pod_id = tree.children(ROOT)[pi];
                    let subtree: f64 = tree
                        .leaves_under(pod_id)
                        .iter()
                        .map(|l| a.granted_cpus(*l))
                        .sum();
                    prop_assert!(subtree <= q + 1e-3, "pod {pi} quota violated: {subtree} > {q}");
                }
            }
        }
    }
}
