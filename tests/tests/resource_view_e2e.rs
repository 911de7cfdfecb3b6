//! End-to-end tests of the adaptive resource view: cgroups → scheduler →
//! `ns_monitor` → virtual sysfs, on the full simulated host.

use arv_cgroups::{Bytes, CgroupId, CpuSet};
use arv_container::{ContainerSpec, SimHost};
use arv_resview::Sysconf;
use arv_sim_core::SimDuration;

/// The monitor's own effective CPU for `id`.
fn e_cpu(host: &SimHost, id: CgroupId) -> u32 {
    host.monitor()
        .namespace(id)
        .expect("a namespace")
        .effective_cpu()
}

/// The monitor's own effective memory for `id`.
fn e_mem(host: &SimHost, id: CgroupId) -> Bytes {
    host.monitor()
        .namespace(id)
        .expect("a namespace")
        .effective_memory()
}

/// Drive `host` for `periods` scheduling periods with the given per-id
/// runnable counts.
fn drive(host: &mut SimHost, load: &[(CgroupId, u32)], periods: u32) {
    for _ in 0..periods {
        let demands: Vec<_> = load
            .iter()
            .filter(|(_, r)| *r > 0)
            .map(|(id, r)| host.demand(*id, *r))
            .collect();
        host.step(&demands);
    }
}

#[test]
fn paper_running_example_five_containers_ten_core_limit() {
    // The §2.2 example end to end: 5 containers, 20 cores, 10-core limits,
    // equal shares, all saturated → each container's view reads 4 CPUs
    // while the host keeps reading 20.
    let mut host = SimHost::paper_testbed();
    let ids: Vec<_> = (0..5)
        .map(|i| host.launch(&ContainerSpec::new(format!("c{i}"), 20).cpus(10.0)))
        .collect();
    let load: Vec<_> = ids.iter().map(|id| (*id, 20u32)).collect();
    drive(&mut host, &load, 60);

    for id in &ids {
        assert_eq!(host.sysconf(Some(*id), Sysconf::NprocessorsOnln), 4);
    }
    assert_eq!(host.sysconf(None, Sysconf::NprocessorsOnln), 20);
}

#[test]
fn view_follows_neighbour_churn_up_and_down() {
    let mut host = SimHost::paper_testbed();
    let a = host.launch(&ContainerSpec::new("a", 20).cpus(10.0));
    let b = host.launch(&ContainerSpec::new("b", 20).cpus(10.0));

    // Both saturated: fair split (lower bound is ceil(20/2) = 10 with only
    // two containers, which also equals the quota).
    drive(&mut host, &[(a, 20), (b, 20)], 60);
    assert_eq!(e_cpu(&host, a), 10);

    // Three more arrive and saturate: a's share shrinks to 4.
    let more: Vec<_> = (0..3)
        .map(|i| host.launch(&ContainerSpec::new(format!("m{i}"), 20).cpus(10.0)))
        .collect();
    let mut load = vec![(a, 20), (b, 20)];
    load.extend(more.iter().map(|id| (*id, 20u32)));
    drive(&mut host, &load, 120);
    assert_eq!(e_cpu(&host, a), 4);

    // Everyone else terminates: a expands back to its 10-core quota.
    host.terminate(b);
    for id in more {
        host.terminate(id);
    }
    drive(&mut host, &[(a, 20)], 120);
    assert_eq!(e_cpu(&host, a), 10);
}

#[test]
fn cpuset_bounds_the_view_regardless_of_slack() {
    let mut host = SimHost::paper_testbed();
    let pinned = host.launch(&ContainerSpec::new("pinned", 20).cpuset(CpuSet::range(0, 2)));
    drive(&mut host, &[(pinned, 8)], 120);
    // The host is otherwise idle, but the mask caps the view at 2.
    assert_eq!(e_cpu(&host, pinned), 2);
}

#[test]
fn memory_view_grows_to_hard_limit_without_pressure() {
    let mut host = SimHost::paper_testbed();
    let id = host.launch(
        &ContainerSpec::new("m", 20)
            .memory(Bytes::from_gib(2))
            .memory_reservation(Bytes::from_gib(1)),
    );
    assert_eq!(e_mem(&host, id), Bytes::from_gib(1));

    // Keep usage above 90% of the (growing) view.
    for _ in 0..2_000 {
        let target = e_mem(&host, id).mul_f64(0.95);
        let current = host.memory_usage(id);
        if target > current {
            assert!(host.charge(id, target - current).is_ok());
        }
        let d = host.demand(id, 4);
        host.step(&[d]);
    }
    // With 128 GB free, the view converges to the hard limit.
    assert!(e_mem(&host, id) > Bytes::from_gib(2).mul_f64(0.97));
    assert!(e_mem(&host, id) <= Bytes::from_gib(2));
}

#[test]
fn memory_view_resets_under_host_pressure() {
    let mut host = SimHost::new(20, Bytes::from_gib(8));
    let id = host.launch(
        &ContainerSpec::new("m", 20)
            .memory(Bytes::from_gib(4))
            .memory_reservation(Bytes::from_gib(1)),
    );
    let hog = host.launch(&ContainerSpec::new("hog", 20));

    // Grow the view beyond the soft limit first.
    assert!(host.charge(id, Bytes::from_mib(950)).is_ok());
    for _ in 0..200 {
        let target = e_mem(&host, id).mul_f64(0.95);
        let current = host.memory_usage(id);
        if target > current {
            let _ = host.charge(id, target - current);
        }
        let d = host.demand(id, 4);
        host.step(&[d]);
    }
    assert!(e_mem(&host, id) > Bytes::from_gib(1));

    // The hog eats the rest of the host: free memory collapses below the
    // low watermark, kswapd wakes, and the view snaps back to soft.
    let _ = host.charge(hog, Bytes::from_gib(7));
    for _ in 0..20 {
        let d = host.demand(id, 4);
        host.step(&[d]);
    }
    assert_eq!(e_mem(&host, id), Bytes::from_gib(1));
}

#[test]
fn virtual_sysfs_paths_match_views_end_to_end() {
    let mut host = SimHost::paper_testbed();
    let id = host.launch(
        &ContainerSpec::new("c", 20)
            .cpus(4.0)
            .memory(Bytes::from_gib(1))
            .memory_reservation(Bytes::from_mib(512)),
    );
    drive(&mut host, &[(id, 8)], 30);

    let fs = host.sysfs();
    let read = |caller, path| fs.read(caller, path).unwrap().image;
    let e_cpu = e_cpu(&host, id);
    assert_eq!(
        *read(Some(id), "/sys/devices/system/cpu/online"),
        format!("0-{}", e_cpu - 1)
    );
    let meminfo = read(Some(id), "/proc/meminfo");
    let e_mem_kb = e_mem(&host, id).as_u64() / 1024;
    assert!(meminfo.contains(&format!("MemTotal: {e_mem_kb} kB")));

    // Host-side reads stay physical.
    assert_eq!(*read(None, "/sys/devices/system/cpu/online"), "0-19");
}

#[test]
fn update_timer_follows_scheduling_period() {
    // With ≤ 8 runnable tasks, the update timer fires every 24 ms: the
    // effective CPU can move at most once per period.
    let mut host = SimHost::paper_testbed();
    let a = host.launch(&ContainerSpec::new("a", 20).cpus(10.0));
    let _b = host.launch(&ContainerSpec::new("b", 20).cpus(10.0));
    let _c = host.launch(&ContainerSpec::new("c", 20).cpus(10.0));
    // Three containers: lower bound ceil(20/3) = 7; only a runs, so it can
    // climb to its 10-core quota — at most +1 per 24 ms.
    let start_cpu = e_cpu(&host, a);
    let mut last = start_cpu;
    let mut changes = Vec::new();
    for _ in 0..40 {
        let d = host.demand(a, 20);
        let out = host.step(&[d]);
        let now_cpu = e_cpu(&host, a);
        if now_cpu != last {
            changes.push((out.now, now_cpu));
            last = now_cpu;
        }
    }
    assert_eq!(last, 10, "view should reach the quota");
    for pair in changes.windows(2) {
        let dt = pair[1].0.since(pair[0].0);
        assert!(
            dt >= SimDuration::from_millis(24),
            "view moved faster than the update timer: {dt}"
        );
        assert_eq!(pair[1].1 - pair[0].1, 1, "one step per firing");
    }
}

#[test]
fn init_handoff_keeps_namespace_owned_by_container_init() {
    let mut host = SimHost::paper_testbed();
    let id = host.launch(&ContainerSpec::new("c", 20));
    let ns_owner = host.monitor().namespace(id).unwrap().owner();
    assert_eq!(Some(ns_owner), host.init_pid(id));
}
