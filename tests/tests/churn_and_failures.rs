//! Failure injection and mid-run reconfiguration: the paths a production
//! deployment exercises that no figure in the paper isolates.

use arv_cgroups::Bytes;
use arv_container::{ContainerSpec, SimHost};
use arv_experiments::driver::Fleet;
use arv_jvm::{HeapPolicy, JavaProfile, Jvm, JvmConfig, JvmOutcome};
use arv_sim_core::SimDuration;
use arv_workloads::dacapo_profile;

fn quick(name: &str, secs: u64) -> JavaProfile {
    let mut p = dacapo_profile(name);
    p.total_work = SimDuration::from_secs(secs);
    p
}

#[test]
fn docker_update_shrinks_the_view_and_the_gc_team() {
    let mut host = SimHost::paper_testbed();
    let id = host.launch(&ContainerSpec::new("c", 20).cpus(16.0));
    let profile = quick("lusearch", 60);
    let mut fleet = Fleet::new();
    let i = fleet.push_jvm(Jvm::launch(
        &mut host,
        id,
        JvmConfig::adaptive().with_heap_policy(HeapPolicy::FixedMax(profile.paper_heap_size())),
        profile,
    ));

    // First stretch: generous quota.
    let start = host.now();
    while host.now().since(start) < SimDuration::from_secs(1) && fleet.jvm(i).is_running() {
        fleet.step(&mut host);
    }
    let before = fleet.jvm(i).metrics().gc_thread_trace.clone();
    assert!(
        before.iter().any(|w| *w > 4),
        "generous quota should allow wide GC teams: {before:?}"
    );

    // `docker update --cpus=2` mid-run.
    host.update_limits(id, &ContainerSpec::new("c", 20).cpus(2.0));
    while fleet.jvm(i).is_running() {
        fleet.step(&mut host);
        assert!(
            host.now().since(start) < SimDuration::from_secs(10_000),
            "did not finish"
        );
    }
    assert_eq!(fleet.jvm(i).outcome(), JvmOutcome::Completed);
    let after = &fleet.jvm(i).metrics().gc_thread_trace[before.len()..];
    assert!(
        !after.is_empty(),
        "collections must continue after the update"
    );
    // Allow the collection in flight at update time to finish wide; all
    // subsequent teams must respect the new 2-CPU bound.
    assert!(
        after[after.len().min(2) - 1..].iter().all(|w| *w <= 2),
        "post-update GC teams must respect the 2-CPU quota: {after:?}"
    );
}

#[test]
fn docker_update_on_memory_reanchors_the_elastic_heap() {
    let mut host = SimHost::paper_testbed();
    let id = host.launch(&ContainerSpec::new("c", 20).memory(Bytes::from_gib(4)));
    let profile = quick("xalan", 60);
    let mut cfg = JvmConfig::adaptive().with_heap_policy(HeapPolicy::Elastic);
    // Poll often enough that the tightened limit lands mid-run.
    cfg.elastic_poll = SimDuration::from_millis(500);
    let mut fleet = Fleet::new();
    let i = fleet.push_jvm(Jvm::launch(&mut host, id, cfg, profile));
    let start = host.now();
    while host.now().since(start) < SimDuration::from_secs(1) && fleet.jvm(i).is_running() {
        fleet.step(&mut host);
    }
    assert!(fleet.jvm(i).is_running(), "update must land mid-run");
    // Tighten the memory limit mid-run; the view, and then VirtualMax,
    // must come down and the run must still complete without swap.
    host.update_limits(id, &ContainerSpec::new("c", 20).memory(Bytes::from_gib(1)));
    while fleet.jvm(i).is_running() {
        fleet.step(&mut host);
        assert!(host.now().since(start) < SimDuration::from_secs(10_000));
    }
    assert_eq!(fleet.jvm(i).outcome(), JvmOutcome::Completed);
    assert!(fleet.jvm(i).heap().limits().virtual_max <= Bytes::from_gib(1));
    // Tightening the hard limit below the committed heap swaps the excess
    // out at the moment of the update (as the kernel does); the elastic
    // shrink then releases it all — nothing stays swapped.
    assert_eq!(host.mem().swapped(id), Bytes::ZERO);
    assert!(host.memory_usage(id) <= Bytes::from_gib(1));
}

#[test]
fn neighbour_termination_mid_run_frees_capacity() {
    let mut host = SimHost::paper_testbed();
    let a = host.launch(&ContainerSpec::new("a", 20));
    let b = host.launch(&ContainerSpec::new("b", 20));
    let profile = quick("sunflow", 6);
    let mut fleet = Fleet::new();
    let i = fleet.push_jvm(Jvm::launch(
        &mut host,
        a,
        JvmConfig::adaptive().with_heap_policy(HeapPolicy::FixedMax(profile.paper_heap_size())),
        profile,
    ));
    // b holds memory and runs threads, then dies.
    assert!(host.charge(b, Bytes::from_gib(32)).is_ok());
    let start = host.now();
    while host.now().since(start) < SimDuration::from_secs(1) {
        let d = host.demand(b, 20);
        let out = host.step(&[d]);
        // Manually advance the JVM alongside the hogging neighbour.
        let granted = out.alloc.granted_to(a);
        // (Fleet would do this; here we drive by hand to interleave.)
        let _ = granted;
    }
    host.terminate(b);
    // Everything b held is back; only a's heap remains charged.
    assert_eq!(
        host.free_memory(),
        host.total_memory() - host.memory_usage(a)
    );
    while fleet.jvm(i).is_running() {
        fleet.step(&mut host);
        assert!(host.now().since(start) < SimDuration::from_secs(10_000));
    }
    assert_eq!(fleet.jvm(i).outcome(), JvmOutcome::Completed);
}

#[test]
fn oom_killed_jvm_leaves_neighbours_unharmed() {
    // Tiny host, no headroom: a greedy JVM gets killed; a frugal one
    // colocated with it finishes untouched.
    let mut host = SimHost::new(8, Bytes::from_mib(900));
    let greedy_c = host.launch(&ContainerSpec::new("greedy", 8));
    let frugal_c = host.launch(&ContainerSpec::new("frugal", 8));

    let mut greedy_profile = JavaProfile::test_profile();
    greedy_profile.alloc_rate = Bytes::from_gib(2);
    greedy_profile.live_growth = 0.6;
    greedy_profile.live_cap = Bytes::from_gib(4);
    greedy_profile.min_heap = Bytes::from_gib(5);
    greedy_profile.total_work = SimDuration::from_secs(60);

    let mut fleet = Fleet::new();
    let gi = fleet.push_jvm(Jvm::launch(
        &mut host,
        greedy_c,
        JvmConfig::vanilla_jdk8().with_heap_policy(HeapPolicy::FixedMax(Bytes::from_gib(8))),
        greedy_profile,
    ));
    let fi = fleet.push_jvm(Jvm::launch(
        &mut host,
        frugal_c,
        JvmConfig::adaptive().with_heap_policy(HeapPolicy::FixedMax(Bytes::from_mib(240))),
        JavaProfile::test_profile(),
    ));
    fleet.run(&mut host, SimDuration::from_secs(100_000));

    assert_eq!(fleet.jvm(gi).outcome(), JvmOutcome::OomKilled);
    assert_eq!(fleet.jvm(fi).outcome(), JvmOutcome::Completed);
    // The kill released everything the greedy JVM had charged.
    assert_eq!(host.memory_usage(greedy_c), Bytes::ZERO);
}

#[test]
fn launch_into_a_full_host_starts_at_the_fair_share() {
    let mut host = SimHost::paper_testbed();
    let ids: Vec<_> = (0..4)
        .map(|i| host.launch(&ContainerSpec::new(format!("c{i}"), 20)))
        .collect();
    for _ in 0..40 {
        let demands: Vec<_> = ids.iter().map(|id| host.demand(*id, 20)).collect();
        host.step(&demands);
    }
    // A fifth container arrives on the saturated host: its view must be
    // born at the (new) five-way fair share, not the machine size.
    let late = host.launch(&ContainerSpec::new("late", 20));
    assert_eq!(host.monitor().namespace(late).unwrap().effective_cpu(), 4);
    // The incumbents' lower bounds moved too.
    for id in &ids {
        assert_eq!(host.monitor().namespace(*id).unwrap().cpu_bounds().lower, 4);
    }
}

#[test]
fn jvm9_is_blind_to_mid_run_updates_but_adaptive_is_not() {
    // The crux of §4.1: "the JVM cannot launch more GC threads if the
    // container's CPU limit is lifted and more CPUs are available."
    let run = |cfg: JvmConfig| -> Vec<u32> {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("c", 20).cpus(2.0));
        let profile = quick("lusearch", 6);
        let mut fleet = Fleet::new();
        let i = fleet.push_jvm(Jvm::launch(
            &mut host,
            id,
            cfg.with_heap_policy(HeapPolicy::FixedMax(profile.paper_heap_size())),
            profile,
        ));
        let start = host.now();
        while host.now().since(start) < SimDuration::from_secs(1) && fleet.jvm(i).is_running() {
            fleet.step(&mut host);
        }
        // The administrator lifts the limit.
        host.update_limits(id, &ContainerSpec::new("c", 20).cpus(16.0));
        while fleet.jvm(i).is_running() {
            fleet.step(&mut host);
            assert!(host.now().since(start) < SimDuration::from_secs(10_000));
        }
        fleet.jvm(i).metrics().gc_thread_trace.clone()
    };
    let jvm9 = run(JvmConfig::jdk9());
    let adaptive = run(JvmConfig::adaptive());
    // JDK 9 snapshotted a 2-CPU limit at launch and never revisits it.
    assert!(jvm9.iter().all(|w| *w <= 2), "{jvm9:?}");
    // The adaptive JVM expands once the limit is lifted.
    assert!(
        adaptive.iter().any(|w| *w > 2),
        "adaptive should exploit the lifted limit: {adaptive:?}"
    );
}
