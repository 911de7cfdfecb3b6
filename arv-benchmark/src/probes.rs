//! Probes: one layer's public entry point, driven in isolation by a
//! seeded input stream shaped like the workloads', timed in blocks of
//! calls. A probe reports the median block, per call. Spans cannot see
//! inside `SimHost::step` or inside a daemon; the probes apportion them.

use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use arv_cgroups::{Bytes, CgroupId};
use arv_fleet::{decode_frame, Frame, Periphery};
use arv_persist::{restore, Journal, Snapshot};
use arv_resview::effective_cpu::{CpuSample, EffectiveCpu};
use arv_resview::effective_mem::MemSample;
use arv_resview::{
    render, CpuBounds, EffectiveCpuConfig, EffectiveMemory, EffectiveMemoryConfig, LiveRegistry,
    LiveSample, NsCell,
};
use arv_sim_core::SimDuration;
use arv_telemetry::{CpuDecision, DecisionCause, Tracer};
use arv_viewd::codec::write_frame;
use arv_viewd::{
    parse_response, FrameDecoder, PathId, RenderCache, ShardedRegistry, CONTAINER_PATHS,
    MAX_RESPONSE,
};

use crate::harness::{RunConfig, Scale, MIB};
use crate::pipe::Pipe;
use crate::read::{
    new_view, pick_key, registered_daemon, request_payload, spawn_daemon, SYSCONF_KEYS,
};
use crate::rng::Rng;
use crate::stats::median;
use crate::truth::controller_pair;
use crate::{fleet_fanin, host_tick};

/// Calls in one timed block.
const BLOCK: usize = 1024;

/// Time `block`, which makes `calls` calls, over and over for about
/// `budget`; the median block in nanoseconds per call.
fn per_call_ns(budget: Duration, calls: usize, mut block: impl FnMut()) -> f64 {
    let end = Instant::now() + budget;
    let mut ns = Vec::new();
    while ns.len() < 3 || Instant::now() < end {
        let t0 = Instant::now();
        block();
        ns.push(t0.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(&mut ns)
}

fn mem_view() -> EffectiveMemory {
    EffectiveMemory::new(
        Bytes::from_mib(256),
        Bytes::from_gib(1),
        Bytes::from_gib(5),
        Bytes::from_gib(10),
        EffectiveMemoryConfig::default(),
    )
}

fn cpu_sample(rng: &mut Rng) -> CpuSample {
    CpuSample {
        usage: SimDuration::from_micros(rng.below(200_000)),
        period: SimDuration::from_millis(24),
        slack: SimDuration::from_micros(rng.below(2) * 10_000),
    }
}

fn mem_sample(rng: &mut Rng) -> MemSample {
    MemSample {
        free: Bytes(rng.range(1, 64) * 1024 * MIB),
        usage: Bytes(rng.range(64, 1024) * MIB),
        reclaiming: rng.below(8) == 0,
    }
}

/// `codec`, `shard`, `cache`, `server` and the `core` calls under them,
/// on the request stream of the read workloads.
fn read_path(seed: u64, scale: Scale, budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let n = scale.containers;
    let (server, mut views, uppers, mut view_rng) = registered_daemon(seed, n);
    let client = server.client();
    let mut rng = Rng::new(seed, 30);
    let stream: Vec<(u32, usize)> = (0..BLOCK)
        .map(|_| (rng.below(u64::from(n)) as u32, pick_key(&mut rng)))
        .collect();
    let sysconfs: Vec<(u32, usize)> = stream.iter().map(|(c, k)| (*c, k % 3)).collect();
    let files: Vec<(u32, &str)> = stream
        .iter()
        .map(|(c, k)| (*c, CONTAINER_PATHS[k % CONTAINER_PATHS.len()]))
        .collect();
    for (c, path) in &files {
        client.read(Some(CgroupId(*c)), path).expect("known path");
    }

    // codec: the requests as a client frames them, the replies as a
    // daemon sent them.
    let payloads: Vec<Vec<u8>> = stream
        .iter()
        .map(|(c, k)| request_payload(*k, *c))
        .collect();
    let mut wire_bytes = Vec::with_capacity(BLOCK * 64);
    out.push((
        "codec.encode_ns",
        per_call_ns(budget, BLOCK, || {
            wire_bytes.clear();
            for p in &payloads {
                write_frame(&mut wire_bytes, p).expect("write to memory");
            }
            black_box(&wire_bytes);
        }),
    ));
    let daemon = spawn_daemon(&server);
    let mut conn =
        Pipe::connect(daemon.socket_path(), MAX_RESPONSE).expect("connect to the probe daemon");
    let mut recorded = Vec::new();
    for chunk in payloads.chunks(32) {
        for payload in chunk {
            conn.queue(payload);
        }
        conn.flush().expect("send to the probe daemon");
        for _ in chunk {
            let reply = conn.recv().expect("reply from the probe daemon");
            recorded
                .write_all(&(reply.len() as u32).to_le_bytes())
                .expect("memory");
            recorded.write_all(&reply).expect("memory");
        }
    }
    drop(conn);
    daemon.shutdown();
    let mut decoder = FrameDecoder::new(MAX_RESPONSE);
    out.push((
        "codec.decode_ns",
        per_call_ns(budget, BLOCK, || {
            for chunk in recorded.chunks(64 * 1024) {
                decoder.feed(chunk);
                while let Some(frame) = decoder.next_frame().expect("recorded frames are whole") {
                    black_box(parse_response(&frame).expect("recorded reply parses"));
                }
            }
        }),
    ));

    // server: hit, sysconf, publish, miss.
    out.push((
        "server.read_hit_ns",
        per_call_ns(budget, BLOCK, || {
            for (c, path) in &files {
                black_box(client.read(Some(CgroupId(*c)), path));
            }
        }),
    ));
    out.push((
        "server.sysconf_ns",
        per_call_ns(budget, BLOCK, || {
            for (c, k) in &sysconfs {
                black_box(client.sysconf(Some(CgroupId(*c)), SYSCONF_KEYS[*k].1));
            }
        }),
    ));
    let mut publish = |c: u32| {
        let v = new_view(&mut view_rng, uppers[c as usize]);
        views[c as usize] = v;
        server.mirror(CgroupId(c), v.cpus, Bytes(v.mem), Bytes(v.avail))
    };
    out.push((
        "server.mirror_ns",
        per_call_ns(budget, BLOCK, || {
            for (c, _) in &files {
                black_box(publish(*c));
            }
        }),
    ));
    // Every read below follows a publish to its container, so every one
    // renders; the publishes are made before the clock starts.
    let mut miss_ns = Vec::new();
    let end = Instant::now() + budget;
    while miss_ns.len() < 3 || Instant::now() < end {
        for (c, _) in &files {
            publish(*c);
        }
        let t0 = Instant::now();
        for (c, path) in &files {
            black_box(client.read(Some(CgroupId(*c)), path));
        }
        miss_ns.push(t0.elapsed().as_nanos() as f64 / BLOCK as f64);
    }
    out.push(("server.read_miss_ns", median(&mut miss_ns)));

    // shard, cache, core: the calls a read makes under the server.
    let live = LiveRegistry::new();
    let shards = ShardedRegistry::new(8);
    let cells: Vec<Arc<NsCell>> = (0..n)
        .map(|c| {
            let cell = live.register(
                CgroupId(c),
                CpuBounds {
                    lower: 1,
                    upper: 16,
                },
                EffectiveCpuConfig::default(),
                mem_view(),
            );
            shards.insert(CgroupId(c), Arc::clone(&cell));
            cell
        })
        .collect();
    out.push((
        "shard.get_ns",
        per_call_ns(budget, BLOCK, || {
            for (c, _) in &stream {
                black_box(shards.get(CgroupId(*c)));
            }
        }),
    ));
    let cache = RenderCache::new();
    let paths = [
        PathId::Cpuinfo,
        PathId::Meminfo,
        PathId::Stat,
        PathId::OnlineCpus,
        PathId::CpuMax,
        PathId::MemoryMax,
    ];
    let image = Arc::new(render::cpuinfo(4));
    let mut generation = 0u64;
    out.push((
        "cache.put_ns",
        per_call_ns(budget, BLOCK, || {
            for (_, k) in &stream {
                generation += 2;
                cache.put(paths[k % paths.len()], generation, Arc::clone(&image));
            }
        }),
    ));
    for p in paths {
        cache.put(p, 2, Arc::clone(&image));
    }
    out.push((
        "cache.get_ns",
        per_call_ns(budget, BLOCK, || {
            for (_, k) in &stream {
                black_box(cache.get(paths[k % paths.len()], 2));
            }
        }),
    ));
    out.push((
        "core.snapshot_ns",
        per_call_ns(budget, BLOCK, || {
            for (c, _) in &stream {
                black_box(cells[*c as usize].snapshot());
            }
        }),
    ));
    let samples: Vec<LiveSample> = (0..BLOCK)
        .map(|_| LiveSample {
            cpu: cpu_sample(&mut rng),
            mem: mem_sample(&mut rng),
        })
        .collect();
    out.push((
        "core.apply_ns",
        per_call_ns(budget, BLOCK, || {
            for ((c, _), s) in stream.iter().zip(&samples) {
                cells[*c as usize].apply(*s);
            }
        }),
    ));
    let mut alg1 = EffectiveCpu::new(
        CpuBounds {
            lower: 1,
            upper: 16,
        },
        EffectiveCpuConfig::default(),
    );
    out.push((
        "core.alg1_ns",
        per_call_ns(budget, BLOCK, || {
            for s in &samples {
                black_box(alg1.update(s.cpu));
            }
        }),
    ));
    let mut alg2 = mem_view();
    out.push((
        "core.alg2_ns",
        per_call_ns(budget, BLOCK, || {
            for s in &samples {
                black_box(alg2.update(s.mem));
            }
        }),
    ));
    let shapes: Vec<(u32, u64, u64)> = views.iter().map(|v| (v.cpus, v.mem, v.avail)).collect();
    let shapes = &shapes[..shapes.len().min(BLOCK)];
    out.push((
        "core.render_cpuinfo_ns",
        per_call_ns(budget, shapes.len(), || {
            for (cpus, _, _) in shapes {
                black_box(render::cpuinfo(*cpus));
            }
        }),
    ));
    out.push((
        "core.render_meminfo_ns",
        per_call_ns(budget, shapes.len(), || {
            for (_, mem, avail) in shapes {
                black_box(render::meminfo(Bytes(*mem), Bytes(*avail)));
            }
        }),
    ));
    out.push((
        "core.render_stat_ns",
        per_call_ns(budget, shapes.len(), || {
            for (cpus, _, _) in shapes {
                black_box(render::stat(*cpus));
            }
        }),
    ));
}

/// `core::monitor`, `cfs-sim` and `mem-sim` under `SimHost::step`, on a
/// warmed-up host.
fn host_layers(cfg: &RunConfig, budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let (host, demands) = host_tick::probe_fixture(cfg);
    let n = host.container_count();
    let mut monitor = host.monitor().clone();
    out.push((
        "core.monitor_tick_ns_per_container",
        per_call_ns(budget, n, || monitor.tick(host.ledger(), host.mem())),
    ));
    out.push((
        "core.monitor_snapshot_ns_per_container",
        per_call_ns(budget, n, || {
            black_box(monitor.snapshot());
        }),
    ));
    let period = SimDuration::from_millis(24);
    out.push((
        "cfs-sim.allocate_us",
        per_call_ns(budget, 1, || {
            black_box(host.cfs().allocate(period, &demands));
        }) / 1e3,
    ));
    let mut mem = host.mem().clone();
    out.push((
        "mem-sim.kswapd_step_us",
        per_call_ns(budget, 1, || mem.kswapd_step(period)) / 1e3,
    ));

    // The same monitor call at a tenth of the population: the per-
    // container cost should not depend on how many containers there are.
    let small = RunConfig {
        scale: Scale {
            containers: (cfg.scale.containers / 10).max(4),
            ..cfg.scale
        },
        ..*cfg
    };
    let (host, _) = host_tick::probe_fixture(&small);
    let mut monitor = host.monitor().clone();
    out.push((
        "core.monitor_tick_ns_per_container_n100",
        per_call_ns(budget, host.container_count(), || {
            monitor.tick(host.ledger(), host.mem())
        }),
    ));
}

/// `persist`: the journal calls a tick makes, on one tick's records.
fn persist(seed: u64, scale: Scale, budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = Rng::new(seed, 31);
    let snap = Snapshot {
        tick: 1,
        entries: (0..scale.containers)
            .map(|id| fleet_fanin::new_state(&mut rng, id, 1))
            .collect(),
    };
    let n = snap.entries.len();
    let mut journal = Journal::new();
    let mut sync_ns = Vec::new();
    out.push((
        "persist.append_delta_ns",
        per_call_ns(budget, n, || {
            journal
                .checkpoint(&Snapshot::at(0))
                .expect("in-memory store");
            for e in &snap.entries {
                journal.append_delta(e, 1).expect("in-memory store");
            }
            let t0 = Instant::now();
            journal.sync().expect("in-memory store");
            sync_ns.push(t0.elapsed().as_nanos() as f64);
        }),
    ));
    out.push(("persist.sync_ns", median(&mut sync_ns)));
    out.push((
        "persist.checkpoint_us",
        per_call_ns(budget, 1, || {
            journal.checkpoint(&snap).expect("in-memory store")
        }) / 1e3,
    ));
    for e in &snap.entries {
        journal.append_delta(e, 2).expect("in-memory store");
    }
    let bytes = journal.as_bytes().to_vec();
    out.push((
        "persist.restore_ns_per_record",
        per_call_ns(budget, 2 * n, || {
            black_box(restore(&bytes));
        }),
    ));
}

/// `periphery`, `protocol` and `controller`: one host's frame stream,
/// recorded from a periphery, replayed into fresh controllers.
fn fleet(seed: u64, scale: Scale, budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    const ROUNDS: u64 = 64;
    let mut rng = Rng::new(seed, 32);
    let mut snap = Snapshot {
        tick: 0,
        entries: (0..scale.containers_per_host)
            .map(|id| fleet_fanin::new_state(&mut rng, id, 0))
            .collect(),
    };
    let snaps: Vec<Snapshot> = (1..=ROUNDS)
        .map(|tick| {
            snap.tick = tick;
            for e in snap.entries.iter_mut() {
                if rng.below(4) == 0 {
                    *e = fleet_fanin::new_state(&mut rng, e.id, tick);
                }
            }
            snap.clone()
        })
        .collect();
    let observed = snaps.iter().map(|s| s.entries.len()).sum::<usize>();

    let mut frames: Vec<Vec<u8>> = Vec::new();
    out.push((
        "periphery.observe_ns_per_entry",
        per_call_ns(budget, observed, || {
            let mut p = Periphery::new(0);
            frames.clear();
            for s in &snaps {
                p.observe(s, false, 0);
                frames.append(&mut p.take_frames());
            }
        }),
    ));
    let shipped: usize = frames
        .iter()
        .map(|f| match decode_frame(f) {
            Some(Frame::Delta(d)) => d.entries.len(),
            _ => 0,
        })
        .sum();
    out.push((
        "protocol.decode_ns_per_entry",
        per_call_ns(budget, shipped, || {
            for f in &frames {
                black_box(decode_frame(f));
            }
        }),
    ));
    let mut repl: Vec<Vec<u8>> = Vec::new();
    let mut ingest_ns = Vec::new();
    let mut apply_ns = Vec::new();
    let end = Instant::now() + 2 * budget;
    while ingest_ns.len() < 3 || Instant::now() < end {
        let (primary, standby) = controller_pair(8);
        // The first REPL frame is the checkpoint that aligns a standby;
        // ship it before the stream under test.
        for f in primary.take_repl_frames() {
            standby.handle_frame(&f);
        }
        let streamed = primary.metrics().snapshot().repl_records_streamed;
        let t0 = Instant::now();
        for f in &frames {
            black_box(primary.handle_frame(f));
        }
        ingest_ns.push(t0.elapsed().as_nanos() as f64 / shipped as f64);
        repl = primary.take_repl_frames();
        let t0 = Instant::now();
        for f in &repl {
            black_box(standby.handle_frame(f));
        }
        let records = (primary.metrics().snapshot().repl_records_streamed - streamed).max(1);
        apply_ns.push(t0.elapsed().as_nanos() as f64 / records as f64);
    }
    out.push(("controller.ingest_ns_per_entry", median(&mut ingest_ns)));
    out.push(("controller.repl_ns_per_record", median(&mut apply_ns)));
    out.push((
        "controller.repl_bytes",
        repl.iter().map(Vec::len).sum::<usize>() as f64,
    ));
}

fn telemetry(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let tracer = Tracer::bounded(16_384);
    let decision = CpuDecision {
        cause: DecisionCause::CpuSaturatedWithSlack,
        before: 2,
        after: 3,
        utilization: 0.97,
        had_slack: true,
    };
    out.push((
        "telemetry.emit_ns",
        per_call_ns(budget, BLOCK, || {
            for i in 0..BLOCK as u64 {
                tracer.emit_cpu(i, CgroupId((i % 64) as u32), decision);
            }
        }),
    ));
}

/// Run every probe for about `seconds` in all.
pub fn run(cfg: &RunConfig, seconds: f64) -> Vec<(&'static str, f64)> {
    // 32 timed sections share the budget.
    let budget = Duration::from_secs_f64(seconds / 32.0);
    let mut out = Vec::new();
    read_path(cfg.seed, cfg.scale, budget, &mut out);
    host_layers(cfg, budget, &mut out);
    persist(cfg.seed, cfg.scale, budget, &mut out);
    fleet(cfg.seed, cfg.scale, budget, &mut out);
    telemetry(budget, &mut out);
    out
}
