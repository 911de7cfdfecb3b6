//! The `fleet` campaign (`--fig fleet`): the core↔periphery control
//! plane at scale and under faults, replay-checked on the
//! [`crate::campaign`] harness.
//!
//! * **scale** — a synthetic fleet (1000 hosts × 100 containers at full
//!   scale) streams seeded view churn through peripheries into one
//!   [`arv_fleet::FleetController`]. At every aggregation tick the
//!   cluster capacity rollup must equal the driver's ground-truth sums
//!   exactly (CPU, memory, available, container count, per-tenant), a
//!   mid-campaign policy bump must reach every periphery via ACK
//!   piggyback, and each full round of ingest must finish inside one
//!   update-timer period.
//! * **waterfall** ([`crate::fleetobs`]), then **soak**, **storm** and
//!   **splitbrain** ([`crate::storm`]): observability and storage faults
//!   composed with every fleet fault axis, on live hosts.

use arv_fleet::{FleetController, FleetPolicy, Periphery};
use arv_sim_core::SimRng;

use crate::campaign::{churn_view, rows, snapshot_at, synthetic_views, Campaign, Run, Scenario};
use crate::report::FigReport;

/// Campaign seeds.
pub(crate) const SEEDS: [u64; 2] = [0xF1EE7, 0xA66AE6];

/// The paper's update-timer period is 100 ms; a full fleet ingest round
/// (every host's frames applied plus one aggregation tick) must fit
/// inside it or the controller can never keep up in steady state.
const TICK_PERIOD_MS: f64 = 100.0;

/// Aggregation rounds in the scale scenario.
const SCALE_ROUNDS: u32 = 8;

/// Tenants the scale fleet spreads hosts across.
const TENANTS: u32 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScaleOutcome {
    hosts: u64,
    containers: u64,
    rounds: u64,
    rollup_mismatches: u64,
    tenant_mismatches: u64,
    deltas_ingested: u64,
    delta_entries: u64,
    full_syncs: u64,
    policy_adoptions: u64,
    partitioned_final: u64,
    topk_head_pressure: u64,
}

fn run_scale(seed: u64, hosts: u32, containers: u32) -> Run<ScaleOutcome> {
    let mut ctl = FleetController::new(64, FleetPolicy::default());
    let mut rng = SimRng::seed_from_u64(seed);

    // Ground truth lives in the driver; the controller must reproduce
    // its sums from deltas alone.
    let mut truth = synthetic_views(&mut rng, hosts, containers);
    let mut peripheries: Vec<Periphery> = (0..hosts)
        .map(|h| {
            let mut p = Periphery::new(h);
            for c in 0..containers {
                p.set_tenant(c, h % TENANTS);
            }
            p
        })
        .collect();

    let mut mismatches = 0u64;
    let mut tenant_mismatches = 0u64;
    let mut max_round_ms = 0.0f64;
    for round in 0..SCALE_ROUNDS {
        // Seeded churn: every host flips a few containers to new values
        // (the cpu map never restores the old value within a round, so
        // each host ships at least one delta frame per round).
        for host in truth.iter_mut() {
            let changes = 1 + rng.range_u64(0, 7) as usize;
            for _ in 0..changes {
                churn_view(host, &mut rng);
            }
        }

        let start = std::time::Instant::now();
        for (h, p) in peripheries.iter_mut().enumerate() {
            p.observe(&snapshot_at(u64::from(round) + 1, &truth[h]), false, 0);
            for frame in p.take_frames() {
                if let Some(resp) = ctl.handle_frame(&frame) {
                    if let Some(arv_fleet::Frame::Ack(ack)) = arv_fleet::decode_frame(&resp) {
                        p.handle_ack(&ack);
                    }
                }
            }
        }
        ctl.advance_tick();
        max_round_ms = max_round_ms.max(start.elapsed().as_secs_f64() * 1000.0);

        // Checkpoint: the rollup must equal ground truth exactly.
        let r = ctl.cluster_capacity();
        let (mut cpu, mut mem, mut avail) = (0u64, 0u64, 0u64);
        for host in &truth {
            for t in host {
                cpu += u64::from(t.e_cpu);
                mem += t.e_mem;
                avail += t.e_avail;
            }
        }
        if (r.cpu, r.mem, r.avail, r.containers, u64::from(r.hosts))
            != (
                cpu,
                mem,
                avail,
                u64::from(hosts) * u64::from(containers),
                u64::from(hosts),
            )
        {
            mismatches += 1;
        }
        for tenant in 0..TENANTS {
            let (t, degraded) = ctl.tenant_rollup(tenant);
            let mut want = 0u64;
            for (h, host) in truth.iter().enumerate() {
                if h as u32 % TENANTS == tenant {
                    want += host.iter().map(|t| u64::from(t.e_cpu)).sum::<u64>();
                }
            }
            if t.cpu != want || degraded {
                tenant_mismatches += 1;
            }
        }

        // Mid-campaign policy bump: the next round's ACKs must carry it
        // to every periphery.
        if round == SCALE_ROUNDS / 2 {
            ctl.set_policy(5, 128, 1 << 12);
        }
    }

    let top = ctl.top_pressured(10);
    let m = ctl.metrics().snapshot();
    Run::timed(
        ScaleOutcome {
            hosts: u64::from(hosts),
            containers: u64::from(hosts) * u64::from(containers),
            rounds: u64::from(SCALE_ROUNDS),
            rollup_mismatches: mismatches,
            tenant_mismatches,
            deltas_ingested: m.deltas_ingested,
            delta_entries: m.delta_entries,
            full_syncs: m.full_syncs,
            policy_adoptions: peripheries.iter().filter(|p| p.policy().epoch == 1).count() as u64,
            partitioned_final: u64::from(ctl.cluster_capacity().partitioned),
            topk_head_pressure: top
                .first()
                .map(|p| u64::from(p.pressure_milli))
                .unwrap_or(0),
        },
        "max_round_ms",
        max_round_ms,
    )
}

/// Run the fleet campaign and produce its report. Panics (on purpose),
/// after printing the whole report, if any aggregation, observability,
/// durability, failover or fencing claim does not hold; and at once if a
/// seed's two runs differ.
pub fn run(scale: f64, seed_offset: u64) -> FigReport {
    let hosts = ((1000.0 * scale) as u32).clamp(32, 2000);
    let containers = ((100.0 * scale) as u32).clamp(8, 200);
    let mut campaign = Campaign::new(
        "fleet",
        "core↔periphery control plane: exact rollups at fleet scale, waterfalls equal to \
         ground-truth tick arithmetic, storage faults composed with every fleet axis, a leader \
         lost to a step-down or a split brain and fenced by epochs",
        &SEEDS,
        seed_offset,
    );
    let scales = campaign.scenario(Scenario {
        name: "scale",
        run: &|seed, _| run_scale(seed, hosts, containers),
        claims: &|run| {
            let o = &run.outcome;
            vec![
                ("fleet.scale.1", o.rollup_mismatches == 0),
                ("fleet.scale.2", o.tenant_mismatches == 0),
                ("fleet.scale.3", o.deltas_ingested == o.hosts * o.rounds),
                ("fleet.scale.4", o.full_syncs == o.hosts),
                ("fleet.scale.5", o.policy_adoptions == o.hosts),
                ("fleet.scale.6", o.partitioned_final == 0),
                ("fleet.scale.7", o.topk_head_pressure <= 1000),
                (
                    "fleet.scale.8",
                    run.wall.is_some_and(|(_, ms)| ms < TICK_PERIOD_MS),
                ),
            ]
        },
        rows: rows!(
            hosts,
            containers,
            rollup_mismatches,
            tenant_mismatches,
            deltas_ingested,
            delta_entries,
            policy_adoptions
        ),
    });
    campaign.report.note(format!(
        "{hosts} hosts × {containers} containers: capacity and tenant rollups equal ground \
         truth at every tick; worst ingest round {:.2} / {:.2} ms against the \
         {TICK_PERIOD_MS} ms timer period",
        scales[0].wall_value(),
        scales[1].wall_value()
    ));
    crate::fleetobs::scenarios(&mut campaign, scale);
    crate::storm::scenarios(&mut campaign, scale);
    campaign.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::seed_label;
    use crate::storm::{run_storm, storm_claims};

    #[test]
    fn fleet_campaign_passes_and_reports() {
        let rep = run(0.05, 0);
        let table = |name: &str| rep.table(name);
        for col in SEEDS.map(seed_label) {
            assert_eq!(table("scale").get("rollup_mismatches", &col), Some(0.0));
            assert_eq!(table("waterfall").get("lag_mismatches", &col), Some(0.0));
            assert!(table("waterfall").get("gap_resyncs", &col).unwrap() >= 1.0);
            assert_eq!(table("soak").get("invalid_restored_views", &col), Some(0.0));
            for name in ["storm", "splitbrain"] {
                let t = table(name);
                assert_eq!(t.get("bound_violations", &col), Some(0.0));
                assert_eq!(t.get("final_degraded_hosts", &col), Some(0.0));
                assert_eq!(t.get("final_epoch", &col), Some(2.0));
                assert!(t.get("gap_resyncs", &col).unwrap() >= 1.0);
                assert_eq!(t.get("final_cpu", &col), t.get("truth_cpu", &col));
            }
        }
        let det = table("determinism");
        for name in ["scale", "waterfall", "soak", "storm", "splitbrain"] {
            assert_eq!(det.get(name, "replays_identical"), Some(1.0), "{name}");
        }
    }

    #[test]
    fn fault_scenario_replays_bit_identically() {
        // The partition, lag and crash-restore faults ride the storm
        // rig's step-down takeover; its gap is counted over every
        // controller incarnation.
        let run = Run::of(run_storm(3, false));
        run.assert_claims(&storm_claims);
        assert_eq!(run.outcome, run_storm(3, false));
    }

    #[test]
    fn failover_scenario_replays_bit_identically() {
        // The lease-renewal stall's split brain, fenced by epochs.
        let run = Run::of(run_storm(3, true));
        run.assert_claims(&storm_claims);
        assert_eq!(run.outcome, run_storm(3, true));
    }
}
