//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! 1. `UTIL_THRSHD` (Algorithm 1's 95% growth threshold) — adaptation
//!    latency vs spurious expansion;
//! 2. the ±1-CPU-per-update rate limit — convergence speed vs stability;
//! 3. the 10% memory-growth increment (Algorithm 2) — ramp time to the
//!    hard limit;
//! 4. the elastic heap's 10 s poll interval — how responsiveness affects
//!    the Figure 11 rescue.

use arv_cgroups::Bytes;
use arv_container::{ContainerSpec, SimHost};
use arv_jvm::{HeapPolicy, Jvm, JvmConfig};
use arv_resview::effective_cpu::EffectiveCpuConfig;
use arv_resview::effective_cpu::{CpuSample, EffectiveCpu, FractionalEffectiveCpu};
use arv_resview::effective_mem::EffectiveMemoryConfig;
use arv_sim_core::SimDuration;
use arv_workloads::dacapo_profile;

use crate::driver::Fleet;
use crate::report::{FigReport, Row, Table};
use crate::scenarios::scale_java;

/// The CPU-side churn scenario: five 10-core-limit containers.
/// Returns (decay periods 10→4 with everyone saturated, ramp periods
/// 4→10 with one active container, and the E the view settles at when
/// the container only wants 6 CPUs — lax thresholds over-expand).
fn cpu_adaptation(cpu_cfg: EffectiveCpuConfig) -> (u32, u32, u32) {
    let mut host = SimHost::with_view_configs(
        20,
        Bytes::from_gib(128),
        cpu_cfg,
        EffectiveMemoryConfig::default(),
    );
    let ids: Vec<_> = (0..5)
        .map(|i| host.launch(&ContainerSpec::new(format!("c{i}"), 20).cpus(10.0)))
        .collect();

    // Convergence is the algorithm's own value, read from the monitor.
    let e_cpu = |host: &SimHost| {
        host.monitor()
            .namespace(ids[0])
            .expect("namespace exists")
            .effective_cpu()
    };

    // Phase 1: everyone saturates; the first container's view (launched
    // alone, so born at 10) contracts to the 4-CPU fair share.
    let mut decay = 0;
    while e_cpu(&host) > 4 {
        let demands: Vec<_> = ids.iter().map(|id| host.demand(*id, 20)).collect();
        host.step(&demands);
        decay += 1;
        assert!(decay < 10_000, "view failed to decay");
    }

    // Phase 2: container 0 wants only 6 CPUs on an otherwise idle host;
    // starting from E = 4 the view grows while util > threshold, settling
    // around 6/threshold — the over-provisioning a lax threshold buys.
    // (It never contracts here: Algorithm 1 only decays without slack.)
    for _ in 0..200 {
        let d = host.demand(ids[0], 6);
        host.step(&[d]);
    }
    let settled = e_cpu(&host);

    // Phase 3: full demand; count periods to reach the 10-CPU quota.
    let mut ramp = 0;
    while e_cpu(&host) < 10 {
        let d = host.demand(ids[0], 20);
        host.step(&[d]);
        ramp += 1;
        assert!(ramp < 10_000, "view failed to ramp");
    }
    (decay, ramp, settled)
}

/// The memory-growth scenario: usage pressed to 95% of the view; returns
/// periods until the view reaches 99% of the hard limit.
fn mem_ramp(mem_cfg: EffectiveMemoryConfig) -> u32 {
    let mut host = SimHost::with_view_configs(
        20,
        Bytes::from_gib(128),
        EffectiveCpuConfig::default(),
        mem_cfg,
    );
    let id = host.launch(
        &ContainerSpec::new("m", 20)
            .memory(Bytes::from_gib(2))
            .memory_reservation(Bytes::from_gib(1)),
    );
    let goal = Bytes::from_gib(2).mul_f64(0.99);
    let e_mem = |host: &SimHost| {
        host.monitor()
            .namespace(id)
            .expect("namespace exists")
            .effective_memory()
    };
    let mut periods = 0;
    while e_mem(&host) < goal {
        let target = e_mem(&host).mul_f64(0.95);
        let current = host.memory_usage(id);
        if target > current {
            assert!(host.charge(id, target - current).is_ok());
        }
        let d = host.demand(id, 4);
        host.step(&[d]);
        periods += 1;
        assert!(periods < 100_000, "memory view failed to ramp");
    }
    periods
}

/// The Figure 11 rescue with a given elastic poll interval: returns the
/// elastic/vanilla exec ratio for lusearch under a 1 GB hard limit.
fn elastic_poll_ratio(poll: SimDuration, scale: f64) -> f64 {
    let profile = scale_java(dacapo_profile("lusearch"), scale);
    let run = |cfg: JvmConfig| -> f64 {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("c", 20).memory(Bytes::from_gib(1)));
        let mut fleet = Fleet::new();
        let i = fleet.push_jvm(Jvm::launch(&mut host, id, cfg, profile.clone()));
        assert!(fleet.run(&mut host, SimDuration::from_secs(100_000)));
        fleet.jvm(i).metrics().exec_wall.as_secs_f64()
    };
    let vanilla = run(JvmConfig::vanilla_jdk8().with_xms(Bytes::from_mib(500)));
    let mut cfg = JvmConfig::adaptive()
        .with_heap_policy(HeapPolicy::Elastic)
        .with_xms(Bytes::from_mib(500));
    cfg.elastic_poll = poll;
    run(cfg) / vanilla
}

/// Integer-vs-fractional export granularity: steady-state tracking error
/// against a container whose quota is deliberately fractional (6.5 CPUs) —
/// the regime where discretization must cost accuracy.
fn granularity_mae(step: f64) -> f64 {
    let mut host = SimHost::with_view_configs(
        20,
        Bytes::from_gib(128),
        EffectiveCpuConfig::default(),
        EffectiveMemoryConfig::default(),
    );
    let id = host.launch(&ContainerSpec::new("frac", 20).cpus(6.5));
    let bounds = host.monitor().namespace(id).unwrap().cpu_bounds();
    let mut integer = EffectiveCpu::new(bounds, EffectiveCpuConfig::default());
    let mut fractional = FractionalEffectiveCpu::new(bounds, EffectiveCpuConfig::default(), step);

    let mut err = 0.0;
    let mut samples = 0u32;
    for period in 0..240 {
        let d = host.demand(id, 20);
        let out = host.step(&[d]);
        let sample = CpuSample {
            usage: out.alloc.granted_to(id),
            period: out.period,
            slack: out.alloc.slack,
        };
        integer.update(sample);
        let cap = fractional.update(sample);
        if period < 40 {
            continue; // warm-up: let both machines converge
        }
        let actual = out.alloc.granted_cpus(id);
        let view = if step >= 1.0 {
            f64::from(integer.value())
        } else {
            cap
        };
        err += (view - actual).abs();
        samples += 1;
    }
    err / f64::from(samples)
}

/// Run this study and produce its report.
pub fn run(scale: f64) -> FigReport {
    let mut rep = FigReport::new("ablations", "Design-choice ablations (DESIGN.md §5)");

    // 1. UTIL_THRSHD sweep.
    let mut t1 = Table::new(
        "util_threshold",
        &["decay_periods", "ramp_periods", "settled_e_at_6cpu_demand"],
    );
    for thr in [0.80, 0.85, 0.90, 0.95, 0.99] {
        let (decay, ramp, settled) = cpu_adaptation(EffectiveCpuConfig {
            util_threshold: thr,
            max_step: 1,
        });
        t1.push(Row::full(
            format!("{:.0}%", thr * 100.0),
            &[f64::from(decay), f64::from(ramp), f64::from(settled)],
        ));
    }
    rep.tables.push(t1);

    // 2. Per-update step-size sweep.
    let mut t2 = Table::new("max_step", &["decay_periods", "ramp_periods"]);
    for step in [1u32, 2, 4, 8] {
        let (decay, ramp, _) = cpu_adaptation(EffectiveCpuConfig {
            util_threshold: 0.95,
            max_step: step,
        });
        t2.push(Row::full(
            format!("±{step}"),
            &[f64::from(decay), f64::from(ramp)],
        ));
    }
    rep.tables.push(t2);

    // 3. Memory growth-increment sweep.
    let mut t3 = Table::new("mem_growth_fraction", &["ramp_periods"]);
    for frac in [0.05, 0.10, 0.25, 0.50] {
        let periods = mem_ramp(EffectiveMemoryConfig {
            usage_threshold: 0.90,
            growth_fraction: frac,
        });
        t3.push(Row::full(
            format!("{:.0}%", frac * 100.0),
            &[f64::from(periods)],
        ));
    }
    rep.tables.push(t3);

    // 4. Integer vs fractional effective-CPU export.
    let mut t_gran = Table::new("cpu_export_granularity", &["tracking_mae_cpus"]);
    for step in [1.0, 0.5, 0.25] {
        t_gran.push(Row::full(
            if step >= 1.0 {
                "integer (paper)".to_string()
            } else {
                format!("fractional {step}")
            },
            &[granularity_mae(step)],
        ));
    }
    rep.tables.push(t_gran);

    // 5. Elastic poll interval sweep.
    let mut t4 = Table::new("elastic_poll_interval", &["exec_vs_vanilla"]);
    for secs in [1u64, 10, 30] {
        let ratio = elastic_poll_ratio(SimDuration::from_secs(secs), scale);
        t4.push(Row::full(format!("{secs}s"), &[ratio]));
    }
    rep.tables.push(t4);

    rep.note("ramp = periods for E_CPU to expand 4→10 when neighbours idle; decay = periods to contract 10→4");
    rep.note("the paper's choices (95% threshold, ±1 step, 10% growth, 10 s poll, integer export) trade speed for stability");
    rep.note("granularity: MAE vs the actual grant of a saturated 6.5-CPU-quota container; the 95% growth threshold dominates the error regardless of step size, validating the paper's integer export");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lax_threshold_over_expands_under_partial_load() {
        let rep = run(0.05);
        let t = &rep.tables[0];
        let lax = t.get("80%", "settled_e_at_6cpu_demand").unwrap();
        let strict = t.get("99%", "settled_e_at_6cpu_demand").unwrap();
        assert!(
            lax > strict,
            "80% threshold ({lax}) should over-provision vs 99% ({strict})"
        );
        let paper = t.get("95%", "settled_e_at_6cpu_demand").unwrap();
        assert!(
            (6.0..=7.0).contains(&paper),
            "95% should settle near 6: {paper}"
        );
    }

    #[test]
    fn bigger_steps_converge_faster() {
        let rep = run(0.05);
        let t = &rep.tables[1];
        let s1 = t.get("±1", "ramp_periods").unwrap();
        let s8 = t.get("±8", "ramp_periods").unwrap();
        assert!(s8 < s1, "±8 {s8} must ramp faster than ±1 {s1}");
    }

    #[test]
    fn bigger_memory_increments_ramp_faster() {
        let rep = run(0.05);
        let t = &rep.tables[2];
        let f5 = t.get("5%", "ramp_periods").unwrap();
        let f50 = t.get("50%", "ramp_periods").unwrap();
        assert!(f50 < f5, "50% {f50} must ramp faster than 5% {f5}");
    }

    #[test]
    fn integer_export_costs_nothing_under_the_95_percent_threshold() {
        // The ablation's finding validates the paper's design choice: the
        // 95% growth threshold over-provisions by up to ~5% regardless of
        // step size, so a finer export granularity buys no accuracy.
        let rep = run(0.05);
        let t = rep
            .tables
            .iter()
            .find(|t| t.name == "cpu_export_granularity")
            .unwrap();
        let int = t.get("integer (paper)", "tracking_mae_cpus").unwrap();
        let quarter = t.get("fractional 0.25", "tracking_mae_cpus").unwrap();
        assert!(
            (quarter - int).abs() < 0.1,
            "fractional 0.25 MAE {quarter} vs integer {int}: threshold should dominate"
        );
        // Both sit within the threshold-induced band around the quota.
        assert!(int <= 0.55, "integer MAE {int}");
    }

    #[test]
    fn elastic_rescue_holds_across_poll_intervals() {
        let rep = run(0.05);
        let t = rep
            .tables
            .iter()
            .find(|t| t.name == "elastic_poll_interval")
            .unwrap();
        for poll in ["1s", "10s", "30s"] {
            let ratio = t.get(poll, "exec_vs_vanilla").unwrap();
            assert!(
                ratio < 0.5,
                "elastic must rescue lusearch at poll {poll} (ratio {ratio})"
            );
        }
    }
}
