//! View accuracy: how close each resource view tracks the CPU a container
//! can actually use.
//!
//! This study quantifies the paper's core premise (§1–2): LXCFS and the
//! cgroup namespace "only export the resource constraints set by the
//! administrator but do not reflect the actual amount of resources that
//! are allocated to a container". We drive a churning four-container mix
//! and compare, per scheduling period, the CPU a saturated container was
//! *actually* granted against what each view would have told it:
//!
//! * **limit view** (LXCFS / cgroup namespace / JDK 9) — the static
//!   quota/cpuset bound;
//! * **share view** (JDK 10) — the static share-derived core count;
//! * **adaptive view** (the paper) — the `sys_namespace` effective CPU.

use arv_cgroups::CgroupId;
use arv_container::{ContainerSpec, SimHost};
use arv_sim_core::TimeSeries;

use crate::report::{FigReport, Row, Table};

/// Phased load schedule: each step names the containers that saturate.
const SCHEDULE: [&[usize]; 6] = [
    &[0],
    &[0, 1],
    &[0, 1, 2, 3],
    &[0, 2, 3],
    &[0, 3],
    &[0, 1, 2, 3],
];
/// Scheduling periods per schedule step.
const STEP_PERIODS: u32 = 120;

struct Errors {
    limit: f64,
    share: f64,
    adaptive: f64,
    max_limit: f64,
    max_share: f64,
    max_adaptive: f64,
    samples: u32,
}

/// Run this study and produce its report (scale-independent).
pub fn run(_scale: f64) -> FigReport {
    let mut host = SimHost::paper_testbed();
    let ids: Vec<CgroupId> = (0..4)
        .map(|i| host.launch(&ContainerSpec::new(format!("c{i}"), 20).cpus(10.0)))
        .collect();

    let bounds = host.monitor().namespace(ids[0]).unwrap().cpu_bounds();
    let limit_view = f64::from(bounds.upper); // LXCFS / JDK 9
    let share_view = f64::from(bounds.lower); // JDK 10

    let mut err = Errors {
        limit: 0.0,
        share: 0.0,
        adaptive: 0.0,
        max_limit: 0.0,
        max_share: 0.0,
        max_adaptive: 0.0,
        samples: 0,
    };
    let mut actual_series = TimeSeries::new("c0_actual_cpus");
    let mut adaptive_series = TimeSeries::new("c0_adaptive_view");

    for active in SCHEDULE {
        for _ in 0..STEP_PERIODS {
            let demands: Vec<_> = active.iter().map(|i| host.demand(ids[*i], 20)).collect();
            let out = host.step(&demands);
            let t = out.now;

            // Container 0 saturates in every phase: compare what it got
            // against what each view claims it can use.
            let actual = out.alloc.granted_cpus(ids[0]);
            let adaptive = f64::from(host.sysfs().online_cpus(Some(ids[0])));
            let e_l = (limit_view - actual).abs();
            let e_s = (share_view - actual).abs();
            let e_a = (adaptive - actual).abs();
            err.limit += e_l;
            err.share += e_s;
            err.adaptive += e_a;
            err.max_limit = err.max_limit.max(e_l);
            err.max_share = err.max_share.max(e_s);
            err.max_adaptive = err.max_adaptive.max(e_a);
            err.samples += 1;

            actual_series.push(t, actual);
            adaptive_series.push(t, adaptive);
        }
    }

    let n = f64::from(err.samples);
    let mut table = Table::new("cpu_view_error", &["mean_abs_error_cpus", "max_error_cpus"]);
    table.push(Row::full(
        "limit_view (LXCFS/JDK9)",
        &[err.limit / n, err.max_limit],
    ));
    table.push(Row::full(
        "share_view (JDK10)",
        &[err.share / n, err.max_share],
    ));
    table.push(Row::full(
        "adaptive_view (paper)",
        &[err.adaptive / n, err.max_adaptive],
    ));

    let mut rep = FigReport::new(
        "accuracy",
        "Resource-view tracking error vs actual CPU allocation (not in the paper)",
    );
    rep.tables.push(table);
    rep.series.push(actual_series.downsample(48));
    rep.series.push(adaptive_series.downsample(48));
    rep.note("four 10-core-limit containers; container 0 always saturated, neighbours churn through a 6-phase schedule");
    rep.note(
        "error = |view − CPUs actually granted| per scheduling period, for the saturated container",
    );
    rep.note("the adaptive view's residual error is Algorithm 1's conservative regime: with zero host slack it decays toward the share-derived lower bound even when work conservation grants more — it only expands into measured slack");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_view_tracks_far_better_than_static_views() {
        let rep = run(1.0);
        let t = &rep.tables[0];
        let limit = t
            .get("limit_view (LXCFS/JDK9)", "mean_abs_error_cpus")
            .unwrap();
        let share = t.get("share_view (JDK10)", "mean_abs_error_cpus").unwrap();
        let adaptive = t
            .get("adaptive_view (paper)", "mean_abs_error_cpus")
            .unwrap();
        assert!(
            adaptive < limit,
            "adaptive MAE {adaptive} vs limit view {limit}"
        );
        assert!(
            adaptive < share,
            "adaptive MAE {adaptive} vs share view {share}"
        );
        // Residual error comes from Algorithm 1's conservative no-slack
        // regime (see the report note), not from unbounded drift.
        assert!(adaptive < 2.0, "adaptive MAE {adaptive}");
    }

    #[test]
    fn adaptive_trace_follows_the_churn() {
        let rep = run(1.0);
        let adaptive = rep
            .series
            .iter()
            .find(|s| s.name() == "c0_adaptive_view")
            .unwrap();
        // The view must visit both the crowded fair share and the roomy
        // quota across the schedule.
        assert!(adaptive.min_value().unwrap() <= 5.0);
        assert!(adaptive.max_value().unwrap() >= 10.0);
    }

    #[test]
    fn report_is_deterministic() {
        let a = run(1.0);
        let b = run(1.0);
        assert_eq!(
            a.tables[0].get("adaptive_view (paper)", "mean_abs_error_cpus"),
            b.tables[0].get("adaptive_view (paper)", "mean_abs_error_cpus"),
        );
    }
}
