//! End-to-end tests of the two case studies — dynamic parallelism and
//! the elastic heap — running through the full stack.

use arv_cgroups::Bytes;
use arv_container::{ContainerSpec, SimHost};
use arv_experiments::driver::Fleet;
use arv_jvm::{HeapPolicy, JavaProfile, Jvm, JvmConfig, JvmOutcome};
use arv_omp::{OmpProfile, OmpRuntime, ThreadStrategy};
use arv_resview::STALENESS_BUDGET;
use arv_sim_core::SimDuration;
use arv_workloads::{dacapo_profile, npb_profile};

fn quick(mut p: JavaProfile) -> JavaProfile {
    p.total_work = SimDuration::from_secs(4);
    p
}

#[test]
fn adaptive_jvm_beats_vanilla_in_shared_cluster() {
    let run = |cfg: JvmConfig| -> f64 {
        let mut host = SimHost::paper_testbed();
        let mut fleet = Fleet::new();
        let mut idxs = Vec::new();
        for i in 0..5 {
            let id = host.launch(&ContainerSpec::new(format!("c{i}"), 20).cpus(10.0));
            let profile = quick(dacapo_profile("xalan"));
            let cfg = cfg
                .clone()
                .with_heap_policy(HeapPolicy::FixedMax(profile.paper_heap_size()));
            idxs.push(fleet.push_jvm(Jvm::launch(&mut host, id, cfg, profile)));
        }
        assert!(fleet.run(&mut host, SimDuration::from_secs(4_000)));
        idxs.iter()
            .map(|i| fleet.jvm(*i).metrics().exec_wall.as_secs_f64())
            .sum::<f64>()
            / idxs.len() as f64
    };
    let vanilla = run(JvmConfig::vanilla_jdk8());
    let adaptive = run(JvmConfig::adaptive());
    assert!(
        adaptive < vanilla * 0.95,
        "adaptive {adaptive:.2}s must beat vanilla {vanilla:.2}s"
    );
}

#[test]
fn adaptive_gc_workers_track_the_view_exactly() {
    let mut host = SimHost::paper_testbed();
    let ids: Vec<_> = (0..5)
        .map(|i| host.launch(&ContainerSpec::new(format!("c{i}"), 20).cpus(10.0)))
        .collect();
    let mut fleet = Fleet::new();
    let profile = quick(dacapo_profile("lusearch"));
    let idxs: Vec<_> = ids
        .iter()
        .map(|id| {
            let cfg = JvmConfig::adaptive()
                .with_heap_policy(HeapPolicy::FixedMax(profile.paper_heap_size()));
            fleet.push_jvm(Jvm::launch(&mut host, *id, cfg, profile.clone()))
        })
        .collect();
    assert!(fleet.run(&mut host, SimDuration::from_secs(4_000)));
    for i in idxs {
        let trace = &fleet.jvm(i).metrics().gc_thread_trace;
        assert!(!trace.is_empty());
        // Under 5-way saturation, every post-warmup collection must use at
        // most the 4-CPU effective share.
        let tail = &trace[trace.len() / 3..];
        assert!(
            tail.iter().all(|w| (1..=4).contains(w)),
            "workers outside the effective share: {tail:?}"
        );
    }
}

#[test]
fn elastic_heap_survives_what_kills_the_static_heap() {
    // One container, 512 MB hard limit, benchmark whose live set fits but
    // whose unconstrained heap would not.
    let scenario = |cfg: JvmConfig| -> (JvmOutcome, Bytes) {
        let mut host = SimHost::new(20, Bytes::from_gib(8));
        let id = host.launch(&ContainerSpec::new("c", 20).memory(Bytes::from_mib(512)));
        let mut profile = quick(dacapo_profile("lusearch"));
        profile.total_work = SimDuration::from_secs(2);
        let mut fleet = Fleet::new();
        let i = fleet.push_jvm(Jvm::launch(&mut host, id, cfg, profile));
        fleet.run(&mut host, SimDuration::from_secs(4_000));
        (fleet.jvm(i).outcome(), host.mem().swap_out_total())
    };
    let (vanilla_outcome, vanilla_swap) = scenario(JvmConfig::vanilla_jdk8());
    let (elastic_outcome, elastic_swap) =
        scenario(JvmConfig::adaptive().with_heap_policy(HeapPolicy::Elastic));
    assert_eq!(vanilla_outcome, JvmOutcome::Completed);
    assert!(
        vanilla_swap > Bytes::ZERO,
        "vanilla must overcommit and swap"
    );
    assert_eq!(elastic_outcome, JvmOutcome::Completed);
    assert_eq!(elastic_swap, Bytes::ZERO, "elastic must never swap");
}

#[test]
fn elastic_heap_virtual_max_never_exceeds_the_view() {
    let mut host = SimHost::paper_testbed();
    let id = host.launch(
        &ContainerSpec::new("c", 20)
            .memory(Bytes::from_gib(2))
            .memory_reservation(Bytes::from_gib(1)),
    );
    let mut profile = quick(dacapo_profile("xalan"));
    profile.total_work = SimDuration::from_secs(3);
    let mut fleet = Fleet::new();
    let i = fleet.push_jvm(Jvm::launch(
        &mut host,
        id,
        JvmConfig::adaptive().with_heap_policy(HeapPolicy::Elastic),
        profile,
    ));
    // Step manually and check the invariant at every elastic poll.
    let deadline = SimDuration::from_secs(4_000);
    let start = host.now();
    while !fleet.primaries_done() && host.now().since(start) < deadline {
        fleet.step(&mut host);
        let vmax = fleet.jvm(i).heap().limits().virtual_max;
        assert!(
            vmax <= Bytes::from_gib(2),
            "VirtualMax {vmax} above the hard limit"
        );
    }
    assert_eq!(fleet.jvm(i).outcome(), JvmOutcome::Completed);
}

#[test]
fn openmp_strategies_rank_correctly_in_quota_container() {
    // Figure 10(b) in miniature: static(20) < adaptive in a 4-CPU quota.
    let run = |strategy: ThreadStrategy| -> f64 {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("omp", 20).cpus(4.0));
        let mut profile = npb_profile("cg");
        profile.regions = 20;
        let mut fleet = Fleet::new();
        let i = fleet.push_omp(OmpRuntime::launch(id, strategy, profile));
        assert!(fleet.run(&mut host, SimDuration::from_secs(4_000)));
        fleet.omp(i).metrics().exec_wall.as_secs_f64()
    };
    let over = run(ThreadStrategy::Static(20));
    let adaptive = run(ThreadStrategy::Adaptive);
    assert!(
        adaptive < over,
        "adaptive {adaptive:.2}s must beat a 20-thread team {over:.2}s"
    );
}

#[test]
fn openmp_adaptive_team_matches_view() {
    let mut host = SimHost::paper_testbed();
    let id = host.launch(&ContainerSpec::new("omp", 20).cpus(4.0));
    let mut profile = OmpProfile::test_profile();
    profile.regions = 10;
    let mut fleet = Fleet::new();
    let i = fleet.push_omp(OmpRuntime::launch(id, ThreadStrategy::Adaptive, profile));
    assert!(fleet.run(&mut host, SimDuration::from_secs(4_000)));
    let trace = &fleet.omp(i).metrics().thread_trace;
    // Quota of 4 CPUs: the view (and so every team) is pinned at ≤ 4.
    assert!(trace.iter().all(|t| (1..=4).contains(t)), "{trace:?}");
}

#[test]
fn mixed_jvm_and_openmp_share_one_host() {
    let mut host = SimHost::paper_testbed();
    let j = host.launch(&ContainerSpec::new("jvm", 20));
    let o = host.launch(&ContainerSpec::new("omp", 20));
    let mut fleet = Fleet::new();
    let profile = quick(dacapo_profile("sunflow"));
    let ji = fleet.push_jvm(Jvm::launch(
        &mut host,
        j,
        JvmConfig::adaptive().with_heap_policy(HeapPolicy::FixedMax(profile.paper_heap_size())),
        profile,
    ));
    let mut omp_profile = OmpProfile::test_profile();
    omp_profile.regions = 10;
    let oi = fleet.push_omp(OmpRuntime::launch(o, ThreadStrategy::Adaptive, omp_profile));
    assert!(fleet.run(&mut host, SimDuration::from_secs(4_000)));
    assert_eq!(fleet.jvm(ji).outcome(), JvmOutcome::Completed);
    assert!(!fleet.omp(oi).is_running());
}

/// The case studies size themselves from the served `sysconf`, so a
/// monitor stall reaches them as the served answer does: while the view
/// is degraded the next GC and the next OpenMP team fall to Algorithm 1's
/// lower bound, and the first healthy firing gives the grown view back.
#[test]
fn runtimes_fall_to_the_lower_bound_while_the_view_is_degraded() {
    let mut host = SimHost::paper_testbed();
    // Five equal-share tenants put the shares-derived floor at 4. The two
    // busy ones, launched last, are born near it; quota'd to 8, they leave
    // the host slack, so their views grow to the quota while the three
    // neighbours stay idle.
    let ids: Vec<_> = (0..5)
        .map(|i| host.launch(&ContainerSpec::new(format!("c{i}"), 20).cpus(8.0)))
        .collect();
    let (j, o) = (ids[3], ids[4]);
    let mut profile = JavaProfile::test_profile();
    profile.mutators = 8;
    profile.total_work = SimDuration::from_secs(60);
    // Without the `N_active` heuristic the worker count is min(N, E_CPU).
    let cfg = JvmConfig::adaptive()
        .with_dynamic_gc_threads(false)
        .with_heap_policy(HeapPolicy::FixedMax(profile.paper_heap_size()));
    let mut omp = OmpProfile::test_profile();
    omp.regions = 100_000;
    omp.work_per_region = SimDuration::from_millis(80);
    let mut fleet = Fleet::new();
    let ji = fleet.push_jvm(Jvm::launch(&mut host, j, cfg, profile));
    let oi = fleet.push_omp(OmpRuntime::launch(o, ThreadStrategy::Adaptive, omp));

    let e_cpu = |host: &SimHost, id| host.monitor().namespace(id).unwrap().effective_cpu();
    assert_eq!(e_cpu(&host, o), 4, "born at the floor");
    while e_cpu(&host, j) < 8 || e_cpu(&host, o) < 8 {
        fleet.step(&mut host);
        assert!(host.now_tick() < 200, "views never grew");
    }
    let lower = host.monitor().namespace(j).unwrap().cpu_bounds().lower;
    assert_eq!(
        lower,
        host.monitor().namespace(o).unwrap().cpu_bounds().lower
    );
    assert_eq!(lower, 4);

    // Every firing so far was healthy, so the views are as old as the
    // stall: degraded on the three firings past the budget, fresh again
    // on the first one after the stall.
    let start = host.now_tick();
    host.inject_monitor_stall(STALENESS_BUDGET + 3);
    let recovered = start + STALENESS_BUDGET + 4;
    let (mut degraded_gcs, mut degraded_teams) = (0, 0);
    let (mut gc_after, mut team_after) = (None, None);
    while gc_after.is_none() || team_after.is_none() {
        let (gcs, teams) = (
            fleet.jvm(ji).metrics().gc_thread_trace.len(),
            fleet.omp(oi).metrics().thread_trace.len(),
        );
        fleet.step(&mut host);
        let tick = host.now_tick();
        assert!(tick < recovered + 20, "no GC or team after the stall");
        let degraded = tick > start + STALENESS_BUDGET && tick < recovered;
        let new_gcs = &fleet.jvm(ji).metrics().gc_thread_trace[gcs..];
        let new_teams = &fleet.omp(oi).metrics().thread_trace[teams..];
        if degraded {
            assert!(
                new_gcs.iter().all(|w| *w == lower),
                "tick {tick}: {new_gcs:?}"
            );
            assert!(
                new_teams.iter().all(|t| *t == lower),
                "tick {tick}: {new_teams:?}"
            );
            degraded_gcs += new_gcs.len();
            degraded_teams += new_teams.len();
        } else if tick >= recovered {
            gc_after = gc_after.or(new_gcs.first().copied());
            team_after = team_after.or(new_teams.first().copied());
        }
        assert_eq!(host.sysfs().health(Some(j)).is_degraded(), degraded);
    }
    assert!(degraded_gcs > 0, "no collection ran while degraded");
    assert!(degraded_teams > 0, "no region forked while degraded");
    assert_eq!(gc_after, Some(8), "the first GC after the stall");
    assert_eq!(team_after, Some(8), "the first team after the stall");
}
