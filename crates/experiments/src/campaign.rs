//! The one campaign harness: seeds, replay-twice bit-identity, tables.
//!
//! The two robustness campaigns, `host` ([`crate::host`]) and `fleet`
//! ([`crate::fleet`]), make the same kind of claim — *an invariant
//! holds under seeded faults, and a failing run replays exactly* — so
//! they share one driver:
//!
//! * a [`Campaign`] is an id, a caption, base seeds and the CLI's
//!   `--seed-offset`. Offset 0 runs the base seeds; any other value
//!   rotates every seed by the same rule ([`rotate`]), so CI can show an
//!   invariant holds beyond the canonical seeds;
//! * a [`Scenario`] is a name, a `run(seed, replay)` producing a
//!   [`Run`], a `check` holding the invariants, and `rows` naming what
//!   the report shows. [`Campaign::scenario`] runs it **twice per
//!   seed**, asserts the two outcomes equal (the one replay assert in
//!   this crate), files one table with a column per seed
//!   ([`seed_label`]), and only then checks both runs: a failing check
//!   is noted, not raised, so the campaign runs on and its report holds
//!   every table;
//! * a wall-clock measurement (a p99, a worst round) rides beside the
//!   outcome in [`Run::wall`]: never compared, and reported and checked
//!   at the better of the seed's two replays, since noise only ever adds
//!   to it;
//! * [`Campaign::finish`] closes the report with the `determinism`
//!   table (one row per scenario that replayed) and the seeds note;
//!   if any check failed, it prints the report and then fails, naming
//!   each failing scenario and seed.
//!
//! The scenarios also share their driver plumbing here, one copy each:
//! hosts and containers ([`paper_container`], [`step_busy`], …), the
//! controller side ([`pump_repl`], [`query`], [`ground_truth`], …), the
//! synthetic fleet ([`synthetic_views`], …) and the [`FaultyLinks`] a
//! partitioned and a lagging host are modelled with. Every scenario's
//! asserts are rows of DESIGN's invariant ledger.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use arv_cfs::GroupDemand;
use arv_cgroups::{Bytes, CgroupId};
use arv_container::{ContainerSpec, SimHost};
use arv_fleet::{
    decode_frame, encode_query, Ack, AckDisposition, FleetController, Frame, PeripheryStats, Query,
    RollupFrame,
};
use arv_persist::{Snapshot, ViewState};
use arv_resview::{CpuBounds, EffectiveCpuConfig, EffectiveMemory, EffectiveMemoryConfig};
use arv_sim_core::{FaultPlan, SimRng};
use arv_viewd::ViewServer;

use crate::report::{FigReport, Row, Table};

/// The seeds a campaign runs at `offset`: a nonzero offset flips every
/// base seed through a splitmix-style odd multiplier, so `--seed-offset
/// 1` is a genuinely different campaign that still replays exactly.
pub fn rotate(base: &[u64], offset: u64) -> Vec<u64> {
    base.iter()
        .map(|s| s ^ offset.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

/// The report column a seed's results go under.
pub fn seed_label(seed: u64) -> String {
    format!("seed_{seed:#x}")
}

/// One execution of a scenario.
#[derive(Debug)]
pub struct Run<O> {
    /// What must replay bit-for-bit.
    pub outcome: O,
    /// A wall-clock measurement taken during the run, as the row it is
    /// reported under: excluded from the replay comparison, and checked
    /// and shown at the lower of the seed's two replays.
    pub wall: Option<(&'static str, f64)>,
}

impl<O> Run<O> {
    /// A run with nothing measured on the wall clock.
    pub fn of(outcome: O) -> Run<O> {
        Run {
            outcome,
            wall: None,
        }
    }

    /// A run that also measured `value`, reported as row `label`.
    pub fn timed(outcome: O, label: &'static str, value: f64) -> Run<O> {
        Run {
            outcome,
            wall: Some((label, value)),
        }
    }

    /// The wall-clock measurement; panics on a run that took none.
    pub fn wall_value(&self) -> f64 {
        self.wall.expect("timed run").1
    }
}

/// One scenario of a campaign; see the module docs.
pub struct Scenario<'a, O> {
    /// Table name, and the scenario's row in `determinism`.
    pub name: &'static str,
    /// Execute under `seed`. `replay` (0 or 1) only disambiguates
    /// external names such as socket paths.
    pub run: &'a dyn Fn(u64, u32) -> Run<O>,
    /// Assert the scenario's invariants; a panic here fails the
    /// campaign at [`Campaign::finish`], under this scenario and seed.
    pub check: &'a dyn Fn(&Run<O>, u64),
    /// The rows reported, in order; the wall-clock row follows them.
    pub rows: &'a dyn Fn(&O) -> Vec<(&'static str, f64)>,
}

/// A [`Scenario::rows`] reporting the named outcome fields (counts, or
/// flags as 0/1) under their own names, so a label cannot drift from its
/// field; `u64::from` refuses a signed or fractional field at compile time.
macro_rules! rows {
    ($($field:ident),+ $(,)?) => {
        &|o| vec![$((stringify!($field), u64::from(o.$field) as f64)),+]
    };
}
pub(crate) use rows;

/// A campaign in progress: runs scenarios, accumulates the report.
pub struct Campaign {
    /// The report so far: scenario tables as they complete, plus
    /// whatever tables and notes the campaign files itself.
    pub report: FigReport,
    seeds: Vec<u64>,
    seed_offset: u64,
    replayed: Vec<&'static str>,
    /// Each failed check, as its scenario and seed.
    failures: Vec<String>,
}

impl Campaign {
    /// Start campaign `id` on `base_seeds` rotated by `seed_offset`.
    pub fn new(id: &str, caption: &str, base_seeds: &[u64], seed_offset: u64) -> Campaign {
        Campaign {
            report: FigReport::new(id, caption),
            seeds: rotate(base_seeds, seed_offset),
            seed_offset,
            replayed: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// This run's seeds.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Run `run` twice under every seed, require the two outcomes
    /// bit-identical, and hand back both runs per seed. A campaign is
    /// only a debugging tool if a failure replays.
    pub fn replay<O: PartialEq + Debug>(
        &self,
        name: &str,
        run: &dyn Fn(u64, u32) -> Run<O>,
    ) -> Vec<[Run<O>; 2]> {
        self.seeds
            .iter()
            .map(|&seed| {
                let runs = [run(seed, 0), run(seed, 1)];
                assert_eq!(
                    runs[0].outcome, runs[1].outcome,
                    "seed {seed:#x}: {name} replay diverged"
                );
                runs
            })
            .collect()
    }

    /// [`replay`](Campaign::replay) `scenario`, give both runs of each
    /// seed the lower of their wall-clock values, file its table — one
    /// column per seed — and list it under `determinism`; then check
    /// both runs of every seed, noting each seed whose check fails, and
    /// hand back the first run per seed.
    pub fn scenario<O: PartialEq + Debug>(&mut self, scenario: Scenario<'_, O>) -> Vec<Run<O>> {
        let mut runs = self.replay(scenario.name, scenario.run);
        for pair in &mut runs {
            if let [Some((label, a)), Some((_, b))] = [pair[0].wall, pair[1].wall] {
                for run in pair {
                    run.wall = Some((label, a.min(b)));
                }
            }
        }
        let per_seed: Vec<Vec<(&'static str, f64)>> = runs
            .iter()
            .map(|[run, _]| {
                let mut rows = (scenario.rows)(&run.outcome);
                rows.extend(run.wall);
                rows
            })
            .collect();
        let columns: Vec<String> = self.seeds.iter().map(|s| seed_label(*s)).collect();
        let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
        let mut table = Table::new(scenario.name, &columns);
        for (i, (label, _)) in per_seed[0].iter().enumerate() {
            let values: Vec<f64> = per_seed.iter().map(|rows| rows[i].1).collect();
            table.push(Row::full(*label, &values));
        }
        self.report.tables.push(table);
        self.replayed.push(scenario.name);
        for (pair, &seed) in runs.iter().zip(&self.seeds) {
            // The check's own message goes out as it panics.
            let check = |run| catch_unwind(AssertUnwindSafe(|| (scenario.check)(run, seed)));
            if pair.iter().try_for_each(check).is_err() {
                self.failures
                    .push(format!("{}, seed {seed:#x}", scenario.name));
            }
        }
        runs.into_iter().map(|[first, _]| first).collect()
    }

    /// Close the report: the `determinism` table and the seeds note
    /// (first among the notes) for the scenarios that replayed. If a
    /// check failed, the report is printed first and then the campaign
    /// fails, naming each failing scenario and seed.
    pub fn finish(mut self) -> FigReport {
        if self.replayed.is_empty() {
            return self.report;
        }
        let mut determinism = Table::new("determinism", &["replays_identical"]);
        for name in &self.replayed {
            // Each ran twice per seed behind `replay`'s assert_eq!;
            // reaching this point means every replay matched.
            determinism.push(Row::full(*name, &[1.0]));
        }
        self.report.tables.push(determinism);
        let seeds: Vec<String> = self.seeds.iter().map(|s| format!("{s:#x}")).collect();
        self.report.notes.insert(
            0,
            format!(
                "seeds {} (offset {}); every scenario run twice per seed and asserted bit-identical",
                seeds.join(" and "),
                self.seed_offset
            ),
        );
        if !self.failures.is_empty() {
            println!("{}", self.report.render_text());
            let failures = self.failures.join("\n  ");
            panic!("campaign {} failed:\n  {failures}", self.report.id);
        }
        self.report
    }
}

// --- fleet driver plumbing ---

/// Ship every queued REPL frame from `from` to `to` and feed the
/// replication ACKs back — one pump of the leader→standby stream.
pub fn pump_repl(from: &FleetController, to: &FleetController) {
    for frame in from.take_repl_frames() {
        if let Some(resp) = to.handle_frame(&frame) {
            if let Some(Frame::Ack(ack)) = decode_frame(&resp) {
                from.handle_repl_ack(&ack);
            }
        }
    }
}

/// Ask `ctl` a query over the frame protocol and decode the rollup.
pub fn query(ctl: &FleetController, kind: u8, arg: u32) -> RollupFrame {
    let resp = ctl
        .handle_frame(&encode_query(&Query { kind, arg }))
        .expect("query answered");
    let Some(Frame::Rollup(frame)) = decode_frame(&resp) else {
        panic!("expected ROLLUP");
    };
    frame
}

/// Whether `id`'s effective CPU count sits outside its Algorithm 1
/// bounds (`None`: the monitor has no namespace for it).
pub fn out_of_bounds(host: &SimHost, id: CgroupId) -> Option<bool> {
    let ns = host.monitor().namespace(id)?;
    let (bounds, eff) = (ns.cpu_bounds(), ns.effective_cpu());
    Some(eff < bounds.lower || eff > bounds.upper)
}

/// `(cpu, containers)` summed over every host's last-observed monitor
/// snapshot — the ground truth a healed controller's rollup must
/// reproduce exactly.
pub fn ground_truth(hosts: &[SimHost]) -> (u64, u64) {
    let (mut cpu, mut containers) = (0u64, 0u64);
    for host in hosts {
        let snap = host.monitor().snapshot();
        cpu += snap.entries.iter().map(|e| u64::from(e.e_cpu)).sum::<u64>();
        containers += snap.entries.len() as u64;
    }
    (cpu, containers)
}

/// The campaigns' stock container: 20 runnable tasks under a 10-CPU
/// quota at default shares, no memory limits.
pub fn paper_container(name: String) -> ContainerSpec {
    ContainerSpec::new(name, 20).cpus(10.0).cpu_shares(1024)
}

/// Hand `ack` to `host`'s periphery. A `NotLeader` answer walks it down
/// the controller list, once: it re-HELLOs at the standby and
/// `on_standby` flips.
pub fn take_ack(host: &mut SimHost, ack: &Ack, on_standby: &mut bool) -> AckDisposition {
    let Some(periphery) = host.periphery_mut() else {
        return AckDisposition::Ignored;
    };
    let disposition = periphery.handle_ack(ack);
    if disposition == AckDisposition::NotLeader && !*on_standby {
        *on_standby = true;
        periphery.on_reconnect();
    }
    disposition
}

/// One daemon serving one container: id 1, bounds 2..=8 CPUs and a
/// 512 MiB soft / 1 GiB hard memory view, mirrored at 6 CPUs.
pub fn serve_one_view(server: &ViewServer) -> CgroupId {
    let id = CgroupId(1);
    let memory = EffectiveMemory::new(
        Bytes::from_mib(512),
        Bytes::from_mib(1024),
        Bytes::from_mib(1280),
        Bytes::from_mib(2560),
        EffectiveMemoryConfig::default(),
    );
    let bounds = CpuBounds { lower: 2, upper: 8 };
    server.register(id, bounds, EffectiveCpuConfig::default(), memory);
    server.mirror(id, 6, Bytes::from_mib(1536), Bytes::from_mib(768));
    id
}

/// One periphery counter summed over `hosts`.
pub fn periphery_total(hosts: &[SimHost], counter: impl Fn(PeripheryStats) -> u64) -> u64 {
    hosts
        .iter()
        .filter_map(|h| h.periphery())
        .map(|p| counter(p.stats()))
        .sum()
}

/// Step `host` one tick with each of `busy` demanding `runnable` CPUs.
pub fn step_busy(host: &mut SimHost, busy: &[CgroupId], runnable: u32) {
    let demands: Vec<_> = busy.iter().map(|id| host.demand(*id, runnable)).collect();
    host.step(&demands);
}

/// One host's demands for a round: seeded churn keeps views moving so
/// every firing ships deltas; the heal epilogue pins demand so views
/// settle.
pub fn churn_demands(
    host: &SimHost,
    ids: &[CgroupId],
    healing: bool,
    rng: &mut SimRng,
) -> Vec<GroupDemand> {
    if healing {
        return ids.iter().map(|id| host.demand(*id, 20)).collect();
    }
    let mut picks = Vec::new();
    for id in ids {
        if rng.unit() > 0.4 {
            picks.push(host.demand(*id, rng.range_u64(4, 20) as u32));
        }
    }
    picks
}

/// A synthetic fleet's driver-side ground truth, `views[host][id]`:
/// seeded values a controller must reproduce from deltas alone.
pub fn synthetic_views(rng: &mut SimRng, hosts: u32, containers: u32) -> Vec<Vec<ViewState>> {
    let mut view = |id| {
        let e_mem = rng.range_u64(64, 1024);
        ViewState {
            id,
            e_cpu: rng.range_u64(1, 16) as u32,
            e_mem,
            e_avail: rng.range_u64(0, e_mem),
            last_tick: 0,
        }
    };
    (0..hosts)
        .map(|_| (0..containers).map(&mut view).collect())
        .collect()
}

/// Flip one seeded container of `host` to new values. The cpu map never
/// restores the old value within a round, so the host ships a delta.
pub fn churn_view(host: &mut [ViewState], rng: &mut SimRng) {
    let v = &mut host[rng.range_u64(0, host.len() as u64) as usize];
    v.e_cpu = (v.e_cpu % 64) + 1 + rng.range_u64(0, 4) as u32;
    v.e_mem = rng.range_u64(64, 1024);
    v.e_avail = rng.range_u64(0, v.e_mem);
}

/// `views` as the monitor snapshot a periphery observes at `tick`.
pub fn snapshot_at(tick: u64, views: &[ViewState]) -> Snapshot {
    let mut snap = Snapshot::at(tick);
    snap.entries.extend(views.iter().map(|v| ViewState {
        last_tick: tick,
        ..*v
    }));
    snap
}

/// The fault plan's two link faults, applied to what peripheries ship:
/// host 0 is partitioned (its frames vanish for the window — the gap
/// forces a FULL resync once the link heals), host 1 lags (its frames
/// arrive `frame_lag` rounds late, in order — no gap).
#[derive(Debug, Default)]
pub struct FaultyLinks {
    /// Host 1's frames in flight, each with the round it arrives in.
    lagging: Vec<(u64, Vec<u8>)>,
    /// Frames the partition dropped.
    pub dropped: u64,
    /// Frames the lagging link delayed.
    pub delayed: u64,
}

impl FaultyLinks {
    /// What reaches the controller from host `h` in `round`, given the
    /// `frames` it just shipped. The heal epilogue has no link faults
    /// and flushes whatever the lagging link still holds.
    pub fn route(
        &mut self,
        plan: &FaultPlan,
        h: usize,
        round: u64,
        healing: bool,
        mut frames: Vec<Vec<u8>>,
    ) -> Vec<Vec<u8>> {
        if h == 0 && !healing && plan.partitioned(round) {
            self.dropped += frames.len() as u64;
            frames.clear();
        }
        if h == 1 {
            if !healing {
                self.delayed += frames.len() as u64;
                let arrives = round + plan.frame_lag();
                self.lagging
                    .extend(frames.drain(..).map(|frame| (arrives, frame)));
            }
            // Frames are queued in shipping order and every delay is the
            // same, so the arrived ones are a prefix; they go out ahead
            // of anything shipped this round, so the link never reorders.
            let arrived = self
                .lagging
                .iter()
                .take_while(|(arrives, _)| healing || *arrives <= round)
                .count();
            frames.splice(0..0, self.lagging.drain(..arrived).map(|(_, frame)| frame));
        }
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arv_sim_core::FaultConfig;

    impl Campaign {
        /// One module's share of a merged campaign, run as a campaign
        /// of its own on `base` rotated by `offset`: the closed report.
        /// Every scenario in it replayed, or [`Campaign::scenario`]
        /// would have panicked.
        pub(crate) fn alone(base: &[u64], offset: u64, f: impl FnOnce(&mut Campaign)) -> FigReport {
            let mut campaign = Campaign::new("alone", "alone", base, offset);
            f(&mut campaign);
            campaign.finish()
        }
    }

    #[test]
    fn seed_offset_rotates_every_campaign_by_one_rule() {
        let base = [0xF1EE7, 0xA66AE6];
        assert_eq!(rotate(&base, 0), base);
        assert_ne!(rotate(&base, 1), base);
        assert_eq!(rotate(&base, 1), rotate(&base, 1));
        let campaign = Campaign::new("t", "t", &base, 1);
        assert_eq!(campaign.seeds(), rotate(&base, 1));
    }

    #[test]
    fn scenario_files_a_seed_column_table_and_finish_closes_the_report() {
        let mut campaign = Campaign::new("t", "t", &[3, 5], 0);
        let runs = campaign.scenario(Scenario {
            name: "double",
            run: &|seed, replay| Run::timed(seed * 2, "wall_ms", f64::from(replay)),
            check: &|run, seed| assert_eq!(run.outcome, seed * 2),
            rows: &|o| vec![("doubled", *o as f64)],
        });
        assert_eq!(runs[1].outcome, 10);
        let report = campaign.finish();
        assert_eq!(report.tables[0].get("doubled", "seed_0x5"), Some(10.0));
        assert_eq!(report.tables[0].get("wall_ms", "seed_0x3"), Some(0.0));
        assert_eq!(
            report.tables[1].get("double", "replays_identical"),
            Some(1.0)
        );
        assert!(report.notes[0].starts_with("seeds 0x3 and 0x5 (offset 0)"));
    }

    #[test]
    #[should_panic(expected = "replay diverged")]
    fn a_scenario_that_does_not_replay_fails_the_campaign() {
        let campaign = Campaign::new("t", "t", &[1], 0);
        campaign.replay("flaky", &|_, replay| Run::of(replay));
    }

    /// A failing check is noted, not raised: its own table and every
    /// later scenario's are filed, and only `finish` fails, naming each
    /// failing scenario and seed and no passing one.
    #[test]
    fn a_failing_check_files_every_table_and_names_each_failing_seed() {
        let mut campaign = Campaign::new("t", "t", &[3, 5, 7], 0);
        for (name, bad) in [("odd", 5), ("later", 7), ("clean", 0)] {
            campaign.scenario(Scenario {
                name,
                run: &|seed, _| Run::of(seed),
                check: &|run, seed| assert_ne!(run.outcome, bad, "seed {seed:#x} is bad"),
                rows: &|o| vec![("seed", *o as f64)],
            });
        }
        let names: Vec<&str> = campaign
            .report
            .tables
            .iter()
            .map(|t| t.name.as_str())
            .collect();
        assert_eq!(names, ["odd", "later", "clean"]);
        let failure = catch_unwind(AssertUnwindSafe(|| campaign.finish())).unwrap_err();
        let message = failure.downcast_ref::<String>().unwrap();
        assert_eq!(
            message,
            "campaign t failed:\n  odd, seed 0x5\n  later, seed 0x7"
        );
    }

    /// A wall-clock check judges the better of a seed's two replays:
    /// one slow replay fails nothing, two fail the seed.
    #[test]
    fn a_wall_clock_check_judges_the_better_replay() {
        let mut campaign = Campaign::new("t", "t", &[3, 5], 0);
        campaign.scenario(Scenario {
            name: "timed",
            // Seed 3 is slow on its second replay only, seed 5 on both.
            run: &|seed, replay| {
                let slow = seed == 5 || replay == 1;
                Run::timed(seed, "wall_ms", if slow { 9.0 } else { 1.0 })
            },
            check: &|run, seed| assert!(run.wall_value() < 5.0, "seed {seed:#x} is slow"),
            rows: &|o| vec![("seed", *o as f64)],
        });
        let table = &campaign.report.tables[0];
        assert_eq!(table.get("wall_ms", "seed_0x3"), Some(1.0));
        assert_eq!(table.get("wall_ms", "seed_0x5"), Some(9.0));
        let failure = catch_unwind(AssertUnwindSafe(|| campaign.finish())).unwrap_err();
        let message = failure.downcast_ref::<String>().unwrap();
        assert_eq!(message, "campaign t failed:\n  timed, seed 0x5");
    }

    #[test]
    fn lagging_link_delivers_late_in_order_and_flushes_when_healing() {
        let plan = FaultPlan::new(
            1,
            FaultConfig {
                lag_ticks: 2,
                ..FaultConfig::quiet()
            },
        );
        let mut links = FaultyLinks::default();
        assert!(links.route(&plan, 1, 0, false, vec![vec![1]]).is_empty());
        assert!(links.route(&plan, 1, 1, false, vec![vec![2]]).is_empty());
        assert_eq!(links.route(&plan, 1, 2, false, vec![vec![3]]), [[1]]);
        // Healing: the link flushes what is still in flight, then this
        // round's frame follows — late, in order, no gap.
        assert_eq!(
            links.route(&plan, 1, 3, true, vec![vec![4]]),
            [[2], [3], [4]]
        );
        assert_eq!((links.delayed, links.dropped), (3, 0));
        // Other hosts are untouched.
        assert_eq!(links.route(&plan, 2, 0, false, vec![vec![9]]), [[9]]);
    }
}
