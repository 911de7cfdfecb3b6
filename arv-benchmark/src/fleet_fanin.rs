//! The propagation path across the wire, host cost excluded: 200
//! peripheries × 100 containers are fed seeded snapshots, their frames go
//! pipelined over one connection to the primary's `FleetWireServer`, the
//! primary's REPL stream over a second connection to the standby's. The
//! same reactor as the read workloads, opposite shape: large inbound
//! frames, tiny replies.
//!
//! The driver reads every ACK of a round before it drains the REPL
//! stream, so the controllers never work while the driver looks at them
//! and every count repeats for a seed and a round count.

use std::collections::VecDeque;
use std::io;
use std::sync::Arc;

use arv_fleet::{
    decode_frame, FleetController, FleetWireServer, Frame, Periphery, MAX_FLEET_FRAME,
};
use arv_persist::{Snapshot, ViewState};

use crate::harness::{
    count_of, socket_path, Checks, Lap, Measured, Outcome, Run, RunConfig, Stopwatch, MIB,
};
use crate::pipe::Pipe;
use crate::rng::Rng;
use crate::spans::SpanLog;
use crate::stats::{median, Sampler};
use crate::truth::{controller_pair, lag_rounds, remember, Truth, LAG_WINDOW, MAX_LAG_ROUNDS};

/// One entry in this many changes per round (plus one forced change per
/// host, so no host falls silent past the staleness budget).
const CHANGE_ONE_IN: u64 = 4;

/// Write everything queued on `link`, then read `replies` reply frames.
fn exchange(link: &mut Pipe, replies: usize, out: &mut Vec<Vec<u8>>) -> io::Result<()> {
    link.flush()?;
    while out.len() < replies {
        out.push(link.recv()?);
    }
    Ok(())
}

struct Instance {
    uplink: Pipe,
    repl: Pipe,
    primary_wire: FleetWireServer,
    standby_wire: FleetWireServer,
    primary: Arc<FleetController>,
    standby: Arc<FleetController>,
    peripheries: Vec<Periphery>,
    snaps: Vec<Snapshot>,
    truth: Truth,
    rng: Rng,
    round: u64,
    recent: VecDeque<Truth>,
    max_lag: u64,
    changed_entries: u64,
    acks: Vec<Vec<u8>>,
}

impl Drop for Instance {
    fn drop(&mut self) {
        self.primary_wire.shutdown();
        self.standby_wire.shutdown();
    }
}

pub(crate) fn new_state(rng: &mut Rng, id: u32, tick: u64) -> ViewState {
    let e_mem = rng.range(256, 1024) * MIB;
    ViewState {
        id,
        e_cpu: rng.range(1, 16) as u32,
        e_mem,
        e_avail: e_mem / 100 * rng.below(101),
        last_tick: tick,
    }
}

impl Instance {
    fn build(cfg: &RunConfig) -> Instance {
        let (primary, standby) = controller_pair(64);
        let (primary, standby) = (Arc::new(primary), Arc::new(standby));
        let primary_wire = FleetWireServer::spawn(Arc::clone(&primary), socket_path("primary"))
            .expect("spawn the primary");
        let standby_wire = FleetWireServer::spawn(Arc::clone(&standby), socket_path("standby"))
            .expect("spawn the standby");
        let uplink = Pipe::connect(primary_wire.socket_path(), MAX_FLEET_FRAME)
            .expect("connect to the primary");
        let repl = Pipe::connect(standby_wire.socket_path(), MAX_FLEET_FRAME)
            .expect("connect to the standby");

        let mut rng = Rng::new(cfg.seed, 20);
        let snaps: Vec<Snapshot> = (0..cfg.scale.hosts)
            .map(|_| Snapshot {
                tick: 0,
                entries: (0..cfg.scale.containers_per_host)
                    .map(|id| new_state(&mut rng, id, 0))
                    .collect(),
            })
            .collect();
        let truth = Truth::of(snaps.iter().flat_map(|s| &s.entries));
        let mut inst = Instance {
            uplink,
            repl,
            primary_wire,
            standby_wire,
            primary,
            standby,
            peripheries: (0..cfg.scale.hosts).map(Periphery::new).collect(),
            snaps,
            truth,
            rng,
            round: 0,
            recent: VecDeque::with_capacity(LAG_WINDOW),
            max_lag: 0,
            changed_entries: 0,
            acks: Vec::new(),
        };
        // HELLO, the FULL sync and the first incremental rounds.
        let mut warm = Checks::default();
        let mut log = SpanLog::new();
        for _ in 0..cfg.scale.warmup_rounds {
            inst.round(&mut log, &mut warm);
        }
        assert_eq!(warm.failed, 0, "warm-up rounds failed: {:?}", warm.failures);
        inst
    }

    /// Move this round's seeded changes into host `h`'s snapshot.
    fn mutate(&mut self, h: usize) {
        let tick = self.round + 1;
        let snap = &mut self.snaps[h];
        snap.tick = tick;
        let forced = (self.round % snap.entries.len() as u64) as usize;
        for (i, e) in snap.entries.iter_mut().enumerate() {
            if i != forced && self.rng.below(CHANGE_ONE_IN) != 0 {
                continue;
            }
            let next = new_state(&mut self.rng, e.id, tick);
            self.truth.cpu = self.truth.cpu - u64::from(e.e_cpu) + u64::from(next.e_cpu);
            self.truth.mem = self.truth.mem - e.e_mem + next.e_mem;
            self.truth.avail = self.truth.avail - e.e_avail + next.e_avail;
            *e = next;
            self.changed_entries += 1;
        }
    }

    /// One round; the lap is the chain of calls into the program, without
    /// the driver drawing the round's changes before it and checking the
    /// rollups after.
    fn round(&mut self, log: &mut SpanLog, checks: &mut Checks) -> Lap {
        let r = self.round;
        let hosts = self.peripheries.len();
        for h in 0..hosts {
            self.mutate(h);
        }
        let clock = Stopwatch::start();
        let mut io_error = None;
        let mut acked = true;
        let rollup = log.timed("fleet_fanin.round", r, |log| {
            let mut frames = 0;
            for h in 0..hosts {
                let (p, snap) = (&mut self.peripheries[h], &self.snaps[h]);
                log.timed("periphery.observe_us", r, |_| p.observe(snap, false, 0));
                for frame in p.take_frames() {
                    self.uplink.queue(&frame);
                    frames += 1;
                }
            }
            self.acks.clear();
            let (uplink, acks) = (&mut self.uplink, &mut self.acks);
            if let Err(e) = log.timed("wire.uplink_us", r, |_| exchange(uplink, frames, acks)) {
                io_error = Some(e);
            }
            log.timed("periphery.acks_us", r, |_| {
                for ack in &self.acks {
                    match decode_frame(ack) {
                        Some(Frame::Ack(ack)) if (ack.host as usize) < hosts => {
                            self.peripheries[ack.host as usize].handle_ack(&ack);
                        }
                        _ => acked = false,
                    }
                }
            });

            let repl = log.timed("controller.repl_take_us", r, |_| {
                self.primary.take_repl_frames()
            });
            for frame in &repl {
                self.repl.queue(frame);
            }
            self.acks.clear();
            let (link, acks) = (&mut self.repl, &mut self.acks);
            if let Err(e) = log.timed("wire.repl_us", r, |_| exchange(link, repl.len(), acks)) {
                io_error = Some(e);
            }
            for ack in &self.acks {
                match decode_frame(ack) {
                    Some(Frame::Ack(ack)) => self.primary.handle_repl_ack(&ack),
                    _ => acked = false,
                }
            }
            log.timed("controller.tick_us", r, |_| {
                self.primary.advance_tick();
                self.standby.advance_tick();
            });
            log.timed("controller.rollup_ns", r, |_| {
                self.primary.cluster_capacity()
            })
        });
        let lap = clock.lap();
        self.round += 1;

        checks.attempted += 1;
        remember(&mut self.recent, self.truth);
        let hosts = hosts as u32;
        let lag = lag_rounds(&self.recent, &self.standby.cluster_capacity(), hosts);
        self.max_lag = self.max_lag.max(lag.unwrap_or(LAG_WINDOW as u64));
        let truth = self.truth;
        if let Some(e) = io_error {
            checks.fail(|| format!("round {r}: {e}"));
        } else if !acked {
            checks.fail(|| format!("round {r}: a reply was not an ACK"));
        } else if !truth.matches(&rollup, hosts) {
            checks.fail(|| format!("round {r}: primary rollup {rollup:?} is not {truth:?}"));
        } else if lag.map_or(true, |l| l > MAX_LAG_ROUNDS) {
            checks.fail(|| format!("round {r}: standby trails by {lag:?} rounds"));
        }
        lap
    }

    /// Frames, entries, and coalesced deltas plus resyncs, over every
    /// periphery.
    fn periphery_totals(&self) -> (u64, u64, u64) {
        self.peripheries
            .iter()
            .map(Periphery::stats)
            .fold((0, 0, 0), |(f, e, c), s| {
                (
                    f + s.frames,
                    e + s.entries,
                    c + s.deltas_coalesced + s.resyncs,
                )
            })
    }

    /// What must repeat exactly for a seed: the measured rounds and what
    /// the controllers took in during them (since `warm`, the primary's
    /// counters when the warm-up ended), and running totals beside them.
    fn counts(&self, warm: &Warm) -> Vec<(&'static str, u64)> {
        let m = self.primary.metrics().snapshot();
        let s = self.standby.metrics().snapshot();
        let (frames, entries, _) = self.periphery_totals();
        vec![
            ("fleet_fanin.rounds", self.round - warm.rounds),
            (
                "controller.delta_entries",
                m.delta_entries - warm.delta_entries,
            ),
            (
                "controller.repl_records",
                m.repl_records_streamed - warm.repl_records,
            ),
            ("periphery.frames", frames),
            ("periphery.delta_entries", entries),
            ("standby.repl_records", s.repl_records_applied),
            (
                "primary.journal_bytes",
                self.primary.journal_bytes().map_or(0, |b| b.len()) as u64,
            ),
            ("fleet_fanin.changed_entries", self.changed_entries),
            ("propagate.lag_ticks", self.max_lag),
        ]
    }
}

/// The primary's counters when the warm-up ended.
struct Warm {
    rounds: u64,
    delta_entries: u64,
    repl_records: u64,
}

/// Run `fleet_fanin`.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut run = Run::start();
    let mut inst = run.set_up(|| Instance::build(cfg));
    let m = inst.primary.metrics().snapshot();
    let warm = Warm {
        rounds: inst.round,
        delta_entries: m.delta_entries,
        repl_records: m.repl_records_streamed,
    };
    let mut counts = Vec::new();

    while run.more(cfg) {
        run.segment(cfg, |log, checks| {
            let mut lat = Sampler::new(1 << 12);
            let mut timed = Lap::default();
            let entries0 = inst.primary.metrics().snapshot().delta_entries;
            for _ in 0..cfg.scale.fanin_rounds {
                let lap = inst.round(log, checks);
                lat.push(lap.wall_s * 1e6);
                timed += lap;
            }
            Measured {
                ops: (inst.primary.metrics().snapshot().delta_entries - entries0).max(1),
                timed,
                p50_us: lat.percentile(0.5),
                lat_samples: cfg.scale.fanin_rounds,
            }
        });
        if run.counted_just_ended() {
            counts = inst.counts(&warm);
        }
    }
    let checks = &mut run.checks;

    let m = inst.primary.metrics().snapshot();
    let s = inst.standby.metrics().snapshot();
    for (what, n) in [
        ("sequence gaps", m.deltas_gap_resyncs),
        ("hosts partitioned", m.hosts_partitioned),
        ("malformed frames", m.malformed_frames + s.malformed_frames),
        (
            "REPL gaps",
            m.repl_gap_snapshots + s.repl_truncated + s.repl_fenced,
        ),
        ("not-leader rejects", m.not_leader_rejects),
        ("journal errors", m.journal_io_errors + s.journal_io_errors),
    ] {
        if n > 0 {
            checks.failed += n;
            checks.failures.push(format!("{what}: {n}"));
        }
    }
    let stats = inst.periphery_totals();
    checks.expect(stats.2 == 0, || {
        format!("{} coalesced deltas or resyncs", stats.2)
    });
    checks.expect(m.delta_entries == stats.1, || {
        format!(
            "primary accepted {} of {} entries sent",
            m.delta_entries, stats.1
        )
    });
    checks.expect(s.repl_records_applied == m.repl_records_streamed, || {
        format!(
            "standby applied {} of {} records streamed",
            s.repl_records_applied, m.repl_records_streamed
        )
    });

    let mut layers = Vec::new();
    if cfg.traced {
        let spans = run.log.self_ns_per_op();
        let p50_us = |name: &str| median(&mut spans.get(name).cloned().unwrap_or_default()) / 1e3;
        // Counts come from the counted segments, so they repeat exactly
        // for a seed.
        let count = |name: &str| count_of(&counts, name);
        layers.extend([
            ("periphery.observe_us", p50_us("periphery.observe_us")),
            ("wire.uplink_us", p50_us("wire.uplink_us")),
            ("periphery.acks_us", p50_us("periphery.acks_us")),
            (
                "fleet_fanin.repl_take_us",
                p50_us("controller.repl_take_us"),
            ),
            ("wire.repl_us", p50_us("wire.repl_us")),
            ("controller.tick_us", p50_us("controller.tick_us")),
            ("controller.rollup_ns", p50_us("controller.rollup_ns") * 1e3),
            ("fleet_fanin.driver_us", p50_us("fleet_fanin.round")),
            ("periphery.frames", count("periphery.frames")),
            ("periphery.delta_entries", count("controller.delta_entries")),
            ("controller.repl_records", count("controller.repl_records")),
            (
                "controller.repl_records_per_round",
                count("controller.repl_records") / count("fleet_fanin.rounds").max(1.0),
            ),
            (
                "controller.gaps",
                (m.deltas_gap_resyncs + m.repl_gap_snapshots) as f64,
            ),
            ("fleet_fanin.lag_ticks", inst.max_lag as f64),
        ]);
    }
    drop(inst);
    run.set_up_again(cfg, || Instance::build(cfg));
    run.finish(layers, counts)
}
