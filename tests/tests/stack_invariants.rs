//! Property-based invariants over the full stack: whatever the container
//! mix and load pattern, the views stay inside their bounds, accounting
//! balances, and physical memory is never oversubscribed.

use arv_cgroups::Bytes;
use arv_container::{ContainerSpec, SimHost};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct ContainerPlan {
    quota: Option<f64>,
    shares: u64,
    hard_mib: Option<u64>,
    runnable: Vec<u32>,
    charge_mib: Vec<u16>,
}

fn plan_strategy() -> impl Strategy<Value = ContainerPlan> {
    (
        prop::option::of(1.0f64..16.0),
        2u64..4096,
        prop::option::of(256u64..4096),
        prop::collection::vec(0u32..32, 8..24),
        prop::collection::vec(0u16..200, 8..24),
    )
        .prop_map(
            |(quota, shares, hard_mib, runnable, charge_mib)| ContainerPlan {
                quota,
                shares,
                hard_mib,
                runnable,
                charge_mib,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn views_and_accounting_hold_for_arbitrary_mixes(
        plans in prop::collection::vec(plan_strategy(), 1..6)
    ) {
        let mut host = SimHost::paper_testbed();
        let ids: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut spec = ContainerSpec::new(format!("c{i}"), 20).cpu_shares(p.shares);
                if let Some(q) = p.quota {
                    spec = spec.cpus(q);
                }
                if let Some(h) = p.hard_mib {
                    spec = spec.memory(Bytes::from_mib(h));
                }
                host.launch(&spec)
            })
            .collect();

        let steps = plans.iter().map(|p| p.runnable.len()).max().unwrap();
        for step in 0..steps {
            let mut demands = Vec::new();
            for (id, p) in ids.iter().zip(&plans) {
                let runnable = *p.runnable.get(step % p.runnable.len()).unwrap();
                if runnable > 0 {
                    demands.push(host.demand(*id, runnable));
                }
                let charge = *p.charge_mib.get(step % p.charge_mib.len()).unwrap();
                let _ = host.charge(*id, Bytes::from_mib(u64::from(charge)));
            }
            host.step(&demands);

            let mut resident_total = Bytes::ZERO;
            for (id, p) in ids.iter().zip(&plans) {
                // 1. Effective CPU within its namespace bounds.
                let ns = host.monitor().namespace(*id).unwrap();
                let e = ns.effective_cpu();
                let b = ns.cpu_bounds();
                prop_assert!(e >= b.lower && e <= b.upper, "E_CPU {e} outside {b:?}");

                // 2. Effective memory within [soft, hard].
                let e_mem = ns.effective_memory();
                let hard = p
                    .hard_mib
                    .map(Bytes::from_mib)
                    .unwrap_or_else(|| host.total_memory());
                prop_assert!(e_mem <= hard, "E_MEM {e_mem} above hard {hard}");

                // 3. Hard limit enforced on resident memory.
                let resident = host.memory_usage(*id);
                prop_assert!(resident <= hard, "resident {resident} above hard {hard}");
                resident_total += resident;
            }
            // 4. Physical memory never oversubscribed.
            prop_assert!(resident_total <= host.total_memory());
            prop_assert_eq!(
                host.free_memory(),
                host.total_memory() - resident_total
            );
        }

        // 5. Termination releases everything.
        for id in ids {
            host.terminate(id);
        }
        prop_assert_eq!(host.free_memory(), host.total_memory());
        prop_assert_eq!(host.container_count(), 0);
    }

    #[test]
    fn sysconf_is_always_consistent_with_the_namespace(
        n in 1u32..8,
        loads in prop::collection::vec(0u32..24, 4..16),
    ) {
        let mut host = SimHost::paper_testbed();
        let ids: Vec<_> = (0..n)
            .map(|i| host.launch(&ContainerSpec::new(format!("c{i}"), 20)))
            .collect();
        for (step, load) in loads.iter().enumerate() {
            let id = ids[step % ids.len()];
            if *load > 0 {
                let d = host.demand(id, *load);
                host.step(&[d]);
            } else {
                host.step(&[]);
            }
            for id in &ids {
                let ns = host.monitor().namespace(*id).unwrap();
                let via_sysconf =
                    host.sysconf(Some(*id), arv_resview::Sysconf::NprocessorsOnln) as u32;
                prop_assert_eq!(via_sysconf, ns.effective_cpu());
                let mem_pages = host.sysconf(Some(*id), arv_resview::Sysconf::PhysPages);
                prop_assert_eq!(
                    mem_pages * arv_resview::PAGE_SIZE,
                    ns.effective_memory().as_u64() / arv_resview::PAGE_SIZE
                        * arv_resview::PAGE_SIZE
                );
            }
        }
    }
}
