//! The propagation path of one dense host, with no socket: a timer tick on
//! a `SimHost` with 1 000 containers recomputes every view, publishes it
//! to the attached view daemon, journals it, diffs it in the periphery;
//! the frames go to an in-process primary controller (journal, lease,
//! replication) and its REPL stream to a hot standby. A round is one
//! operation for the checks; it carries one view entry per container.

use std::collections::VecDeque;

use arv_cfs::GroupDemand;
use arv_cgroups::{Bytes, CgroupId};
use arv_container::{ContainerSpec, SimHost};
use arv_fleet::{decode_frame, FleetController, Frame, Periphery};
use arv_persist::{Journal, ViewState};
use arv_viewd::ViewServer;

use crate::harness::{count_of, Checks, Lap, Measured, Outcome, Run, RunConfig, Stopwatch, MIB};
use crate::rng::Rng;
use crate::spans::SpanLog;
use crate::stats::{median, Sampler};
use crate::truth::{
    controller_pair, lag_rounds, remember, Truth, CHECKPOINT_EVERY, LAG_WINDOW, MAX_LAG_ROUNDS,
};

/// `charge`/`uncharge` calls per round.
pub const MEM_OPS_PER_ROUND: usize = 16;
/// Host memory per container, MiB: 512 GiB for 1 000 containers whose
/// footprints average about that much, so the host lives at its
/// watermarks.
const HOST_MIB_PER_CONTAINER: u64 = 524;

/// Which branches of the two algorithms the run has seen fire.
#[derive(Debug, Default, Clone, Copy)]
struct Branches {
    cpu_grew: u64,
    cpu_shrank: u64,
    mem_grew: u64,
    mem_reset: u64,
    ticks_changed: u64,
    ticks: u64,
}

struct Instance {
    host: SimHost,
    primary: FleetController,
    standby: FleetController,
    ids: Vec<CgroupId>,
    /// `(shares, cap in CPUs, quota)` per container, read once from the
    /// host so that building demands is not a product call.
    cpu: Vec<(u64, f64, u32)>,
    /// `(lower, upper, soft, hard)` per container.
    limits: Vec<(u32, u32, u64, u64)>,
    /// The driver's own account of each container's footprint, MiB.
    level: Vec<u64>,
    demand_rng: Rng,
    mem_rng: Rng,
    round: u64,
    demands: Vec<GroupDemand>,
    prev: Vec<ViewState>,
    recent: VecDeque<Truth>,
    branches: Branches,
    max_lag: u64,
    changed_views: u64,
}

impl Instance {
    fn build(cfg: &RunConfig) -> Instance {
        let n = cfg.scale.containers as usize;
        let mut spec_rng = Rng::new(cfg.seed, 10);
        let mut host = SimHost::new(64, Bytes::from_mib(HOST_MIB_PER_CONTAINER * n as u64));
        let mut ids = Vec::with_capacity(n);
        let mut quotas = Vec::with_capacity(n);
        for i in 0..n {
            let quota = spec_rng.range(1, 8) as u32;
            let shares = [512, 1024, 2048][spec_rng.below(3) as usize];
            let spec = ContainerSpec::new(format!("c{i}"), 64)
                .cpus(f64::from(quota))
                .cpu_shares(shares)
                .memory_reservation(Bytes::from_mib(256))
                .memory(Bytes::from_gib(1));
            ids.push(host.launch(&spec));
            quotas.push(quota);
        }
        host.attach_viewd(ViewServer::new(host.viewd_host_spec(), 8));
        host.enable_journal(CHECKPOINT_EVERY);
        host.attach_periphery(Periphery::new(0));
        let (primary, standby) = controller_pair(8);

        let cpu = ids
            .iter()
            .zip(&quotas)
            .map(|(id, q)| {
                let d = host.demand(*id, 1);
                (d.weight, d.cap_cpus, *q)
            })
            .collect();
        let limits = ids
            .iter()
            .map(|id| {
                let ns = host.monitor().namespace(*id).expect("launched container");
                let b = ns.cpu_bounds();
                (
                    b.lower,
                    b.upper,
                    ns.soft_limit().as_u64(),
                    ns.hard_limit().as_u64(),
                )
            })
            .collect();

        let mut inst = Instance {
            host,
            primary,
            standby,
            ids,
            cpu,
            limits,
            level: vec![0; n],
            demand_rng: Rng::new(cfg.seed, 11),
            mem_rng: Rng::new(cfg.seed, 12),
            round: 0,
            demands: Vec::with_capacity(n),
            prev: Vec::new(),
            recent: VecDeque::with_capacity(LAG_WINDOW),
            branches: Branches::default(),
            max_lag: 0,
            changed_views: 0,
        };
        // Fill the host to just under its watermarks, so the first wave
        // already runs into them.
        for c in 0..n {
            let target = inst.mem_rng.range(384, 640);
            inst.set_level(c, target);
        }
        let mut warm = Checks::default();
        let mut log = SpanLog::new();
        for _ in 0..cfg.scale.warmup_ticks {
            inst.round(&mut log, &mut warm);
        }
        assert_eq!(warm.failed, 0, "warm-up rounds failed: {:?}", warm.failures);
        inst
    }

    /// Charge or uncharge container `c` up or down to `target` MiB.
    fn set_level(&mut self, c: usize, target: u64) -> bool {
        let (id, level) = (self.ids[c], self.level[c]);
        self.level[c] = target;
        if target >= level {
            self.host.charge(id, Bytes((target - level) * MIB)).is_ok()
        } else {
            self.host.uncharge(id, Bytes((level - target) * MIB));
            true
        }
    }

    /// This round's CPU demands: three rounds in four a few containers of
    /// the rotating quarter run flat out (the host has slack, their views
    /// grow); every fourth round the whole quarter runs (no slack, views
    /// shrink back).
    fn next_demands(&mut self) {
        let n = self.ids.len() as u64;
        let quarter = self.round % 4;
        let per_quarter = (n / 4).max(1);
        let mut demands = std::mem::take(&mut self.demands);
        demands.clear();
        let mut push = |c: u64| {
            let (weight, cap, quota) = self.cpu[c as usize];
            demands.push(GroupDemand::cpu_bound(
                self.ids[c as usize],
                quota,
                weight,
                cap,
            ));
        };
        if self.round % 4 == 3 {
            (quarter..n).step_by(4).for_each(&mut push);
        } else {
            let k = self.demand_rng.range(4, 20).min(per_quarter);
            let start = self.demand_rng.below(per_quarter);
            (0..k)
                .map(|j| ((start + j) % per_quarter * 4 + quarter) % n)
                .for_each(&mut push);
        }
        self.demands = demands;
    }

    /// One round; the lap is the chain of calls into the program, without
    /// the driver drawing inputs before it and checking outputs after.
    fn round(&mut self, log: &mut SpanLog, checks: &mut Checks) -> Lap {
        let r = self.round;
        self.next_demands();
        // One memory wave lasts a quarter as many rounds as there are
        // containers: targets are high for the first half (the host runs
        // into its watermarks and kswapd resets the views) and low for
        // the second (the views grow again).
        let wave = (self.ids.len() as u64 / 4).max(2);
        let high = r % wave < wave / 2;
        let mem_ops: [(usize, u64); MEM_OPS_PER_ROUND] = std::array::from_fn(|_| {
            let c = self.mem_rng.below(self.ids.len() as u64) as usize;
            let target = if high {
                self.mem_rng.range(448, 960)
            } else {
                self.mem_rng.range(64, 576)
            };
            (c, target)
        });

        let clock = Stopwatch::start();
        let mut charged = true;
        let mut acked = true;
        let rollup = log.timed("host_tick.round", r, |log| {
            log.timed("mem-sim.charge_us", r, |_| {
                for (c, target) in mem_ops {
                    charged &= self.set_level(c, target);
                }
            });
            log.timed("container-rt.step_us", r, |_| self.host.step(&self.demands));
            let frames = log.timed("periphery.take_frames_us", r, |_| {
                self.host.take_fleet_frames()
            });
            for frame in &frames {
                let reply = log.timed("controller.ingest_us", r, |_| {
                    self.primary.handle_frame(frame)
                });
                acked &= log.timed("periphery.ack_us", r, |_| {
                    reply.is_some_and(|reply| self.host.deliver_fleet_ack(&reply))
                });
            }
            let repl = log.timed("controller.repl_take_us", r, |_| {
                self.primary.take_repl_frames()
            });
            for frame in &repl {
                let reply = log.timed("controller.repl_apply_us", r, |_| {
                    self.standby.handle_frame(frame)
                });
                match reply.as_deref().and_then(decode_frame) {
                    Some(Frame::Ack(ack)) => self.primary.handle_repl_ack(&ack),
                    _ => acked = false,
                }
            }
            log.timed("host_tick.controller_tick_us", r, |_| {
                self.primary.advance_tick();
                self.standby.advance_tick();
            });
            log.timed("host_tick.rollup_ns", r, |_| {
                self.primary.cluster_capacity()
            })
        });
        let lap = clock.lap();
        self.round += 1;

        // Checks, outside the timed round.
        checks.attempted += 1;
        let mut ok = charged && acked;
        let mut why = String::new();
        if !ok {
            why = format!("charge ok {charged}, acks ok {acked}");
        }
        let snap = self.host.monitor().snapshot();
        let mut changed = 0u64;
        for (i, e) in snap.entries.iter().enumerate() {
            let (lower, upper, soft, hard) = self.limits[i];
            if !(lower..=upper).contains(&e.e_cpu) || !(soft..=hard).contains(&e.e_mem) {
                ok = false;
                why = format!("container {} out of bounds: {e:?}", e.id);
            }
            if let Some(p) = self.prev.get(i) {
                self.branches.cpu_grew += u64::from(e.e_cpu > p.e_cpu);
                self.branches.cpu_shrank += u64::from(e.e_cpu < p.e_cpu);
                self.branches.mem_grew += u64::from(e.e_mem > p.e_mem);
                self.branches.mem_reset += u64::from(e.e_mem < p.e_mem);
                changed +=
                    u64::from((e.e_cpu, e.e_mem, e.e_avail) != (p.e_cpu, p.e_mem, p.e_avail));
            }
        }
        self.branches.ticks += 1;
        self.branches.ticks_changed += u64::from(changed > 0);
        self.changed_views += changed;
        let truth = Truth::of(&snap.entries);
        self.prev = snap.entries;
        remember(&mut self.recent, truth);
        if !truth.matches(&rollup, 1) {
            ok = false;
            why = format!("round {r}: primary rollup {rollup:?} is not {truth:?}");
        }
        match lag_rounds(&self.recent, &self.standby.cluster_capacity(), 1) {
            Some(lag) => {
                self.max_lag = self.max_lag.max(lag);
                if lag > MAX_LAG_ROUNDS {
                    ok = false;
                    why = format!("round {r}: standby trails by {lag} rounds");
                }
            }
            None => {
                self.max_lag = LAG_WINDOW as u64;
                ok = false;
                why = format!("round {r}: standby rollup matches no recent truth");
            }
        }
        checks.expect(ok, || why);
        lap
    }

    /// What must repeat exactly for a seed.
    fn counts(&self) -> Vec<(&'static str, u64)> {
        let periphery = self.host.periphery().expect("attached in build").stats();
        let fleet = self.primary.metrics().snapshot();
        let standby = self.standby.metrics().snapshot();
        vec![
            ("periphery.delta_entries", periphery.entries),
            ("periphery.frames", periphery.frames),
            ("controller.delta_entries", fleet.delta_entries),
            ("controller.repl_records", fleet.repl_records_streamed),
            ("standby.repl_records", standby.repl_records_applied),
            (
                "host.journal_bytes",
                self.host.journal_bytes().map_or(0, <[u8]>::len) as u64,
            ),
            (
                "primary.journal_bytes",
                self.primary.journal_bytes().map_or(0, |b| b.len()) as u64,
            ),
            ("host.changed_views", self.changed_views),
            ("host.ticks", self.branches.ticks),
            ("host.ticks_changed", self.branches.ticks_changed),
            ("propagate.lag_ticks", self.max_lag),
        ]
    }
}

/// A warmed-up host of `cfg.scale.containers` containers with one heavy
/// round's demands, for the probes of the host's own layers.
pub(crate) fn probe_fixture(cfg: &RunConfig) -> (SimHost, Vec<GroupDemand>) {
    let mut inst = Instance::build(cfg);
    inst.round = 3;
    inst.next_demands();
    (inst.host, inst.demands)
}

/// Counts read from outside the program around traced rounds.
#[derive(Debug, Default, Clone)]
struct Outside {
    rounds: u64,
    /// Σ generation of every cell (two per publish).
    generations: u64,
    changed_views: u64,
    entries_sent: u64,
    journal_len: u64,
    /// Changed views and bytes appended on ticks whose journal grew
    /// (a checkpoint tick compacts instead).
    changed_on_append: u64,
    appended: Vec<f64>,
}

impl Outside {
    fn read(inst: &Instance, client: &arv_viewd::ViewClient) -> Outside {
        Outside {
            generations: inst
                .ids
                .iter()
                .filter_map(|id| client.generation(*id))
                .sum(),
            changed_views: inst.changed_views,
            entries_sent: inst.host.periphery().map_or(0, |p| p.stats().entries),
            journal_len: inst.host.journal_bytes().map_or(0, <[u8]>::len) as u64,
            ..Outside::default()
        }
    }

    fn add(&mut self, before: &Outside, after: &Outside) {
        self.rounds += 1;
        self.generations += after.generations - before.generations;
        let changed = after.changed_views - before.changed_views;
        self.changed_views += changed;
        self.entries_sent += after.entries_sent - before.entries_sent;
        if after.journal_len > before.journal_len {
            self.changed_on_append += changed;
            self.appended
                .push((after.journal_len - before.journal_len) as f64);
        }
    }
}

/// Bytes one delta record takes in a journal.
fn delta_record_bytes() -> f64 {
    let mut journal = Journal::new();
    let empty = journal.len();
    let state = ViewState {
        id: 0,
        e_cpu: 1,
        e_mem: 1,
        e_avail: 1,
        last_tick: 1,
    };
    journal.append_delta(&state, 1).expect("in-memory store");
    (journal.len() - empty) as f64
}

/// Run `host_tick`.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut run = Run::start();
    let mut inst = run.set_up(|| Instance::build(cfg));
    let n = inst.ids.len() as u64;
    let client = inst.host.viewd().expect("attached above").client();
    let mut outside = Outside::default();
    let mut counts = Vec::new();

    while run.more(cfg) {
        // What is read from outside between rounds is read in the traced
        // ones of the counted segments only: untraced rounds carry none of
        // it, and what it adds up to repeats exactly for a seed.
        let look = run.next_is_traced(cfg) && run.next_is_counted();
        run.segment(cfg, |log, checks| {
            let mut lat = Sampler::new(1 << 12);
            let mut timed = Lap::default();
            for _ in 0..cfg.scale.tick_rounds {
                let before = look.then(|| Outside::read(&inst, &client));
                let lap = inst.round(log, checks);
                if let Some(before) = before {
                    outside.add(&before, &Outside::read(&inst, &client));
                }
                lat.push(lap.wall_s * 1e6);
                timed += lap;
            }
            Measured {
                ops: cfg.scale.tick_rounds * n,
                timed,
                p50_us: lat.percentile(0.5),
                lat_samples: cfg.scale.tick_rounds,
            }
        });
        if run.counted_just_ended() {
            counts = inst.counts();
        }
    }
    let checks = &mut run.checks;

    // Preconditions of the workload: both algorithms' grow and
    // shrink/reset branches fired, and views changed on ≥10 % of ticks.
    let b = inst.branches;
    checks.expect(
        b.cpu_grew > 0 && b.cpu_shrank > 0 && b.mem_grew > 0 && b.mem_reset > 0,
        || format!("an algorithm branch never fired: {b:?}"),
    );
    checks.expect(b.ticks_changed * 10 >= b.ticks, || {
        format!("views changed on {} of {} ticks", b.ticks_changed, b.ticks)
    });
    let viewd = inst.host.viewd().expect("attached above").metrics();
    checks.expect(
        !inst.host.durability_lost() && viewd.degraded_serves == 0,
        || "durability lost or degraded serves".to_string(),
    );

    let mut layers = Vec::new();
    if cfg.traced {
        let spans = run.log.self_ns_per_op();
        let p50_us = |name: &str| median(&mut spans.get(name).cloned().unwrap_or_default()) / 1e3;
        let o = &mut outside;
        let publishes = o.generations as f64 / 2.0;
        let appended: f64 = o.appended.iter().sum();
        layers.extend([
            ("container-rt.step_us", p50_us("container-rt.step_us")),
            ("mem-sim.charge_us", p50_us("mem-sim.charge_us")),
            (
                "periphery.take_frames_us",
                p50_us("periphery.take_frames_us"),
            ),
            ("controller.ingest_us", p50_us("controller.ingest_us")),
            ("periphery.ack_us", p50_us("periphery.ack_us")),
            ("controller.repl_take_us", p50_us("controller.repl_take_us")),
            (
                "controller.repl_apply_us",
                p50_us("controller.repl_apply_us"),
            ),
            (
                "host_tick.controller_tick_us",
                p50_us("host_tick.controller_tick_us"),
            ),
            ("host_tick.rollup_ns", p50_us("host_tick.rollup_ns") * 1e3),
            ("host_tick.driver_us", p50_us("host_tick.round")),
            (
                "server.publishes_per_tick",
                publishes / o.rounds.max(1) as f64,
            ),
            (
                "server.useful_publish_ratio",
                o.changed_views as f64 / publishes.max(1.0),
            ),
            ("persist.journal_bytes_per_tick", median(&mut o.appended)),
            (
                "persist.useful_record_ratio",
                o.changed_on_append as f64 / (appended / delta_record_bytes()).max(1.0),
            ),
            (
                "periphery.useful_entry_ratio",
                o.changed_views as f64 / o.entries_sent.max(1) as f64,
            ),
            (
                "host_tick.changed_tick_ratio",
                count_of(&counts, "host.ticks_changed") / count_of(&counts, "host.ticks").max(1.0),
            ),
            ("propagate.lag_ticks", inst.max_lag as f64),
        ]);
    }
    drop(inst);
    run.set_up_again(cfg, || Instance::build(cfg));
    run.finish(layers, counts)
}
