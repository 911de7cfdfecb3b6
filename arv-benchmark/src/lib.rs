//! `arv-benchmark`: one end-to-end benchmark for the two paths of the
//! system, with per-layer probes and a traced run.
//!
//! The paper's only performance yardstick is §5.4: ≈1 µs per
//! `sys_namespace` update and ≈5 µs per query, both negligible against
//! the 24 ms scheduling period. This crate gives the repository's two
//! end-to-end paths a tracked number each, from one harness:
//!
//! * the **read path** — a containerized process asks how many CPUs or
//!   how much memory it has, and bytes come back on its socket;
//! * the **propagation path** — a timer tick recomputes the views, they
//!   become visible to the view daemon, reach the controller's rollup and
//!   are applied on the hot standby.
//!
//! `BENCHMARK.json` at the root of the repository names the command, the
//! workloads, the metrics and their bounds; [`metrics`] is the same table
//! in code and `tests/contract.rs` holds the two together. Measured
//! baselines are in `BASELINE.md` beside this crate's manifest.
//!
//! # One command
//!
//! ```text
//! cargo run --release --offline --manifest-path arv-benchmark/Cargo.toml \
//!     --bin arv-benchmark -- [--workload <name>] [--seed <u64>] \
//!     [--seconds <n>] [--trace <0|1>] [--json <file>] [--spans <file>]
//! arv-benchmark compare <base.json> <new.json>
//! ```
//!
//! With `--workload` it runs that workload, untraced, in this process and
//! prints every metric as `name value unit`, then one JSON object as the
//! last line: `correct`, `attempted`, `failed`, `metrics`. With `--trace 1`
//! it makes the traced run the same way (no `--workload` needed, and one
//! that is given changes nothing: see *Traced run*). With neither it runs
//! every workload and then the traced run, each in a fresh child process
//! (so memory, CPU time and allocator state do not leak from one to the
//! next). It exits non-zero when a check failed or a timing is not a
//! positive finite number, and refuses to run from a debug build.
//! `compare` prints one row per workload × end-to-end metric — base, new,
//! new/base, and better / within bound / unresolved (worse by more than
//! the bound, yet the two runs' segment quartiles overlap) / worse — and
//! exits non-zero on a worse row or a higher failed ratio. `--json`
//! carries the machine fingerprint: CPU count, `rustc`, profile, kernel,
//! commit, seed and operation counts.
//!
//! The package stands apart from the repository's workspace (its own
//! manifest with an empty `[workspace]` table, path dependencies on the
//! crates), so no manifest, lock file or script of the repository changes.
//!
//! # Method
//!
//! * Load comes from one process and one driver thread, over at most two
//!   connections; the daemons under test run in the same process with
//!   `ServerConfig::builder().loops(1)`. Every loop is **closed**: a
//!   `sysconf` caller and a periphery awaiting its ACK both block on the
//!   reply, so the next request waits for the last.
//! * The process pins itself to one CPU ([`sysinfo::pin_to_one_cpu`]). On
//!   the 2-vCPU virtual machine this was built on, a wake-up that crosses
//!   CPUs goes through the hypervisor: unpinned, the serial round trip
//!   read 5 µs or 45 µs from one run to the next and throughput moved
//!   threefold with it. Pinned, a request costs what the code costs.
//! * A **segment** is a fixed number of operations ([`harness::Scale`]:
//!   about a quarter of a second of them), and a run measures whole
//!   segments until `--seconds` have passed. There is one path: the tests
//!   run it with fewer seconds and smaller sizes. A reported number is the
//!   **median over segments** of the per-segment statistic (throughput,
//!   CPU per operation, or the segment's own median latency), printed with
//!   the segments' min–max spread and its sample count. The machine's
//!   speed shifts by about a tenth for a second at a time; over ten runs
//!   the median of 60 quarter-second segments repeated within 3 %, their
//!   mean within 10 %.
//! * Only the calls into the program are on the clocks: each operation's
//!   wall and CPU time ([`harness::Lap`]) are read around its timed chain,
//!   after the driver has drawn its inputs and before it checks its
//!   outputs, and a segment's throughput is its operations over the sum of
//!   their laps. The numbers move with the program, not with the checks.
//! * A faster machine measures more segments in `--seconds`, so every
//!   **count** is read when the first [`harness::COUNTED_SEGMENTS`]
//!   segments are done: the same operations on every machine, and the
//!   same count for a seed whatever the speed. `tests/determinism.rs`
//!   runs each workload twice at a tenth of its population, for different
//!   lengths, and asserts the counts are identical.
//! * Every end-to-end timing is **scaled by a reference load**
//!   ([`mod@reference`]): at each segment boundary the driver bounces a
//!   byte off an echo thread of its own (the median of 5 bursts of 100
//!   round trips), and a segment's throughput, latency and CPU time are
//!   reported in reference units — `ref_us`, `1/ref_s`: a microsecond on
//!   a machine whose reference round trip takes
//!   [`reference::REFERENCE_RTT_NS`]. The shared machine runs a quarter
//!   slower for seconds to minutes at a time; over the same 12 runs of
//!   one binary the spread (first to third quartile over the median) of
//!   the unscaled medians was 7–16 %, of those scaled against the run's
//!   own fastest reference 3–15 %, of those scaled against the fixed
//!   definition 2–5 %, and only the last fits a bound of a fifth. The
//!   reference has none of the product's code in it, so a regression
//!   shows in full. The unscaled (wall-clock) medians and the reference's
//!   slowdown are printed beside every result and kept in the `--json`
//!   report; per-layer timings are not scaled, and `reference.slowdown`
//!   of the traced run is their context.
//! * A workload is set up [`harness::SETUPS`] times in a run, a second or
//!   more each; `setup_s` is the median (scaled the same way; its unit is
//!   fixed as `s` by the benchmark contract). The first instance is
//!   measured and the other set-ups follow the measured phase, so
//!   `peak_rss_mib` is the peak of one instance, as in a process that set
//!   up once.
//! * `--seed` drives every generator through the crate's own xorshift
//!   ([`rng`]): no clock and no `HashMap` iteration order reach an input.
//! * The harness owns its percentile code ([`stats`]) and calls no API
//!   that ROADMAP item 2 deletes: no `ServerConfig::threaded`, no
//!   `sim-core::stats::Histogram`, no `telemetry::LagHistogram`.
//!
//! # Workloads
//!
//! | name | what runs | why |
//! |---|---|---|
//! | `read_hot` | `WireServer` (reactor, 1 loop) over a `ViewServer` with 1 000 registered containers on a 64-CPU / 512 GiB `HostSpec`; views published once, then static. Each segment: a serial part (16 384 requests, 1 connection, depth 1) and a pipelined part (3 072 batches of 2 connections × 16 requests, each batch one write per connection, then all 32 replies read). Mix: 30 % `KIND_SYSCONF` (`nprocessors_onln`, `phys_pages`, `avphys_pages`), 70 % `KIND_READ` over `CONTAINER_PATHS` (cpuinfo 25, meminfo 25, the other four 5 each); container uniform. | Hit ratio 1: codec, reactor, shard and `cache.get` do all the work, `core::render` none. The smallest-message case, where per-request cost dominates. |
//! | `read_churn` | The same daemon, mix and parts, but before every second request the driver publishes a new seeded view for that request's container through `ViewServer::mirror` (the call `SimHost` makes on every timer firing). Publishes happen only while nothing is in flight (a batch's 16 go first, on the clock, then its requests), so the miss count is fixed by the seed (0.59 of requests). | Writes beside reads on the same server and cache: `NsCell::snapshot`, `core::render` and `cache.put` dominate service time. A render or publish gain shows here and must not move `read_hot`; rendering eagerly at publish would win here and lose on `host_tick`. |
//! | `host_tick` | `SimHost` (64 CPUs, 524 MiB per container) with 1 000 seeded `ContainerSpec`s (quota 1–8 CPUs, shares 512/1024/2048, 256 MiB soft / 1 GiB hard), `attach_viewd`, `enable_journal(64)`, `attach_periphery`; an in-process primary `FleetController` (journal, lease, `enable_replication`) and a hot standby. A round: seeded demands and 16 seeded `charge`/`uncharge`s → `host.step` → `take_fleet_frames` → `primary.handle_frame` → `deliver_fleet_ack` → `take_repl_frames` → `standby.handle_frame` → `handle_repl_ack` → `advance_tick` on both → `cluster_capacity`; 50 rounds to a segment. No socket. | The propagation path of one dense host: recompute, publish, journal and diff dominate; the wire tier does nothing. Checked precondition: both algorithms' grow and shrink/reset branches fire and views change on ≥10 % of ticks. |
//! | `fleet_fanin` | 200 `Periphery`s × 100 containers fed seeded `Snapshot`s (a quarter of the entries change per round; no `SimHost`, so host cost is excluded), frames pipelined over one connection to the primary's `FleetWireServer`, REPL frames over a second to the standby's; the primary journals, holds the lease and replicates. A round: observe → frames → ACKs → REPL → `advance_tick` on both → `cluster_capacity`; 32 rounds to a segment. | Controller ingest, journal, REPL and protocol decode dominate. The same reactor as the reads with the opposite shape — large inbound frames, tiny replies — so a reactor change tuned for small reads that hurts large writes shows. `core`, `server`, `cache` do nothing. |
//!
//! Three rounds in four of `host_tick` a few containers of a rotating
//! quarter run flat out (the host has slack, their CPU views grow); every
//! fourth round the whole quarter runs (no slack, views shrink). Memory
//! targets rise and fall in a wave a quarter as many rounds long as there
//! are containers, so the host runs into its watermarks (kswapd resets the
//! memory views) and recovers (they grow again).
//!
//! # End-to-end metrics
//!
//! Every workload reports every metric; what an operation is depends on
//! the path. The bound is the share of the parent's median by which a
//! metric may worsen. Each bound is about three times the widest spread
//! ten runs of one binary showed (`BASELINE.md`; timings after scaling);
//! the box does not allow tighter ones.
//!
//! | name | unit | better | bound | read path (`read_*`) | propagation path (`host_tick`, `fleet_fanin`) |
//! |---|---|---|---|---|---|
//! | `setup_s` | s (reference) | lower | 0.25 | build, registration, priming every cache entry, 720 k warm-up requests | build and launch, 250 warm-up ticks; or HELLO, FULL sync, 180 rounds |
//! | `ops_per_s` | 1/ref_s | higher | 0.20 | replies per second of the pipelined part: publish (on `read_churn`), write, read | view entries carried through a full round per second (`host_tick`: 1 000 × rounds; `fleet_fanin`: delta entries the primary accepted) |
//! | `latency_p50_us` | ref_us | lower | 0.20 | request→reply of the serial part | wall of one round: first call of the tick → standby applied and primary rollup returned |
//! | `cpu_us_per_op` | ref_us | lower | 0.20 | process CPU (all threads, client and daemon) per request of the pipelined part | process CPU per entry — the §5.4 overhead claim is CPU |
//! | `peak_rss_mib` | MiB | lower | 0.25 | `VmHWM` of the process when the last segment ends | same |
//!
//! The issue that asked for this benchmark named nine metrics, some per
//! path. The benchmark contract wants every workload to report every
//! end-to-end metric and none to read 0, so `read_rps` and
//! `propagate_entries_per_s` are `ops_per_s`, `read_p50_us` and
//! `propagate_p50_us` are `latency_p50_us`, and the two exact ones moved
//! into the checks: `failed_ratio` is `failed`/`attempted` of the result
//! line (and `compare` refuses a rise), `propagate_lag_ticks` is the
//! per-layer `propagate.lag_ticks` and a round whose standby trails by
//! more than [`truth::MAX_LAG_ROUNDS`] (0 on the seed) is a failed
//! operation. Run length is `--seconds`, as the contract has it, where the
//! issue asked for a fixed operation count: segments are the fixed counts,
//! and the counts that must repeat are read after a fixed number of them. Serial tail latency is per-layer (`wire.rtt_p99_us`): on a
//! shared box it moves by a quarter between identical runs.
//!
//! # Per-layer metrics
//!
//! Layers are named after the modules: `core` (`arv-resview`), `server`,
//! `cache`, `shard`, `codec`, `reactor`, `wire` (`arv-view-server`),
//! `persist`, `periphery`, `protocol`, `controller` (`arv-fleet`),
//! `telemetry`, `container-rt` (the update timer inside `SimHost`), and
//! the substrate `cfs-sim`, `mem-sim`. Source: **S** a span of the traced
//! run (median per operation of the span's self time), **P** an isolated
//! probe ([`probes`]) on a seeded stream shaped like the workload's, timed
//! in blocks of calls, **C** a count taken by the driver, **M** the
//! daemon's own public snapshot (`ViewServer::metrics`,
//! `FleetController::metrics`, `Periphery::stats`).
//!
//! | layer metric | src | should move | on | should not move |
//! |---|---|---|---|---|
//! | `wire.rtt_p50_us`, `wire.rtt_p99_us`, `wire.rtt_p999_us`, `wire.batch_p50_us`, `wire.bytes_per_reply` | S, C on `read_hot` | `latency_p50_us`, `ops_per_s` | `read_hot`, `read_churn` | `host_tick` |
//! | `wire.handle_ns` (`wire_latency_ns`), `reactor.residual_us` (= `wire.rtt_p50_us` − `wire.handle_ns`), `codec.decode_ns` (`FrameDecoder::feed` + `next_frame` + `parse_response` on recorded replies), `codec.encode_ns` (`write_frame`) | M, P | `ops_per_s`, `latency_p50_us` | `read_*`; `fleet_fanin` | `host_tick` |
//! | `wire.requests`, `wire.shed`, `wire.errors`, `wire.evicted`, `server.degraded_serves` | M on `read_hot` | `failed` | `read_*` | — |
//! | `shard.get_ns`, `cache.get_ns`, `server.read_hit_ns`, `server.sysconf_ns` (paper line: 5 000 ns), `cache.hot_hit_ratio` | P, M | `ops_per_s`, `cpu_us_per_op` | `read_hot` | `host_tick`, `fleet_fanin` |
//! | `churn.rtt_p50_us`, `churn.batch_p50_us`, `churn.handle_ns`, `churn.publish_ns`, `churn.bytes_per_reply`, `churn.useful_publish_ratio`, `cache.hits`, `cache.misses`, `cache.hit_ratio` | S, M, C on `read_churn` | `ops_per_s` | `read_churn` | `read_hot` (hit ratio 1 by construction) |
//! | `server.read_miss_ns`, `cache.put_ns`, `core.snapshot_ns`, `core.render_cpuinfo_ns`, `core.render_meminfo_ns`, `core.render_stat_ns` | P | `ops_per_s`, `cpu_us_per_op` | `read_churn` | `read_hot`, `fleet_fanin` |
//! | `server.mirror_ns`, `server.publishes_per_tick`, `server.useful_publish_ratio` (views whose cpus/mem/avail changed ÷ generation bumps, from `ViewClient::generation` and `monitor().snapshot()` diffs around a round) | P, C on `host_tick` | `latency_p50_us`; `ops_per_s` | `host_tick`; `read_churn` | `fleet_fanin` |
//! | `core.alg1_ns`, `core.alg2_ns`, `core.apply_ns` (paper line: 1 000 ns), `core.monitor_tick_ns_per_container` at N = 1 000 and `..._n100` at N = 100 (`host.monitor().clone().tick(host.ledger(), host.mem())`), `core.monitor_snapshot_ns_per_container` | P | `latency_p50_us`, `ops_per_s`, `cpu_us_per_op` | `host_tick` | `read_*`, `fleet_fanin` |
//! | `container-rt.step_us` (the whole `host.step`), `mem-sim.charge_us`, `cfs-sim.allocate_us`, `mem-sim.kswapd_step_us` (substrate: a gain here is not an ARV gain, but it moves the number, so it is visible) | S on `host_tick`, P | `latency_p50_us` | `host_tick` | all others |
//! | `persist.append_delta_ns`, `persist.sync_ns`, `persist.checkpoint_us`, `persist.restore_ns_per_record`, `persist.journal_bytes_per_tick`, `persist.useful_record_ratio` (changed views ÷ records appended) | P, C on `host_tick` | `latency_p50_us`, `peak_rss_mib` | `host_tick`, `fleet_fanin` | `read_*` |
//! | `periphery.observe_us`, `periphery.acks_us`, `wire.uplink_us`, `wire.repl_us`, `fleet_fanin.repl_take_us`, `controller.tick_us`, `controller.rollup_ns` (≈1 µs: guards O(shards)), `fleet_fanin.driver_us`, `periphery.frames`, `periphery.delta_entries`, `controller.repl_records`, `controller.repl_records_per_round`, `controller.gaps`, `fleet_fanin.lag_ticks` | S, M on `fleet_fanin` | `ops_per_s`, `latency_p50_us` | `fleet_fanin` | `read_*` |
//! | `periphery.take_frames_us`, `periphery.ack_us`, `controller.ingest_us`, `controller.repl_take_us`, `controller.repl_apply_us`, `host_tick.controller_tick_us`, `host_tick.rollup_ns`, `host_tick.driver_us`, `periphery.useful_entry_ratio` (changed views ÷ entries sent), `host_tick.changed_tick_ratio`, `propagate.lag_ticks` | S, C on `host_tick` | `latency_p50_us` (≈0.8 ms of 5.5 ms) | `host_tick` | `read_*` |
//! | `periphery.observe_ns_per_entry`, `protocol.decode_ns_per_entry`, `controller.ingest_ns_per_entry`, `controller.repl_ns_per_record`, `controller.repl_bytes` | P | `ops_per_s` | `fleet_fanin`, `host_tick` | `read_*` |
//! | `telemetry.emit_ns` (`Tracer::bounded`; the workloads run with the product's default tracer, which is off) | P | none today | — | all |
//! | `trace.overhead_ratio.<workload>` (median wall per operation of the traced segments over the untraced ones), `reference.slowdown` (the reference load's time over its defined time during the traced run) | — | — | all | — |
//!
//! How they interact. With nothing else contending, a layer saves at most
//! its share of the blocking steps: the daemon handles a request in
//! ≈0.4 µs of a ≈5.3 µs serial round trip, so `latency_p50_us` of the reads
//! is a guard and `ops_per_s` and `cpu_us_per_op` are where server work
//! shows. Client and daemon share one CPU, so a request costs their sum
//! and freeing daemon CPU raises `ops_per_s` by its share of that sum. On
//! `host_tick` the round is a serial chain, so self times add up to it:
//! `container-rt.step_us` is ≈4.7 ms of ≈5.5 ms, and
//! `core.monitor_tick_ns_per_container` is ≈3 800 ns at N = 1 000 against
//! ≈410 ns at N = 100 — the tick is quadratic in the container count.
//! `server.useful_publish_ratio`, `persist.useful_record_ratio` and
//! `periphery.useful_entry_ratio` read 0.02–0.04 (by seed; they are taken
//! over the 100 traced rounds of the counted segments): every tick
//! republishes, journals and ships every view, changed or not, though
//! views change on 95 % of ticks. `propagate.lag_ticks`
//! moves only if a change batches or defers across ticks.
//!
//! # Traced run
//!
//! `--trace 1` records a span ([`spans`]: name, start, end, parent,
//! round or request) in memory around each boundary call listed in the
//! workload definitions; a layer's self time is its span minus the part
//! its children cover, and `--spans <file>` writes them out when the run
//! ends. Inside `SimHost::step` and inside a daemon the layers are opaque
//! from outside: the probes apportion them, and spans inside the program
//! are a later change (ROADMAP item 3).
//!
//! Every per-layer metric has one home — the workload whose spans or
//! counts feed it, or a probe — so a traced run visits all four workloads
//! (a sixth of `--seconds` each, segments alternating untraced and traced,
//! which gives the four overhead ratios) and then the probes (the last
//! third). It takes no `--workload`; the benchmark contract passes one
//! and wants every per-layer metric back whichever it is, so one that is
//! given is accepted and changes nothing. Its `attempted` and `failed`
//! add up the four. Count metrics (`wire.requests`, `cache.misses`,
//! `periphery.delta_entries`, `controller.repl_records`, …) and the
//! ratios made of counts come from the counted segments, so they repeat
//! exactly for a seed and are no proxy for speed.
//!
//! # Checks
//!
//! Counted as failed operations against attempted:
//!
//! * reads: every reply `STATUS_OK`, generation even and per-container
//!   monotone, body byte-equal to a reference — on `read_hot` what the
//!   in-process `ViewClient` answered for that container and key; on
//!   `read_churn` rebuilt with `arv_resview::render` from the view the
//!   driver last published, for every sysconf and one file read in 64;
//!   the daemon decoded exactly the requests the driver checked; zero
//!   shed, evicted, dropped, rejected or degraded;
//! * propagation: every `charge` succeeds and every reply is an ACK; every
//!   view within `[lower, upper]` / `[soft, hard]` each tick; the
//!   primary's `cluster_capacity()` equals the ground truth after every
//!   round (nothing partitioned) and the standby's within
//!   [`truth::MAX_LAG_ROUNDS`] rounds; no sequence gap, REPL gap, fence,
//!   not-leader reject, coalesced delta or journal error; the primary
//!   accepted every entry sent and the standby applied every record
//!   streamed.
//!
//! # Sizes
//!
//! [`harness::Scale::FULL`]: 1 000 containers; 200 hosts × 100
//! containers; warm-up of 720 000 requests, 250 ticks, 180 rounds; a
//! segment of 16 384 serial requests and 3 072 batches, of 50 ticks, of
//! 32 rounds; [`read::CONNS`] = 2 connections × [`read::DEPTH`] = 16;
//! [`host_tick::MEM_OPS_PER_ROUND`] = 16; journals checkpoint every
//! [`truth::CHECKPOINT_EVERY`] = 64 ticks; [`metrics::RUN_SECONDS`] = 15 s
//! (about 55 segments on the baseline machine), counts read after
//! [`harness::COUNTED_SEGMENTS`] = 4; [`harness::SETUPS`] = 7.
//!
//! # Public API the benchmark pins
//!
//! A later change that alters one of these signatures has to change the
//! benchmark, which a change claiming a gain may not do.
//!
//! * `arv_cgroups`: `Bytes` (`from_mib`, `from_gib`, `as_u64`, tuple
//!   field), `CgroupId`.
//! * `arv_cfs`: `GroupDemand::cpu_bound`, `CfsSim::allocate`.
//! * `arv_mem`: `MemSim: Clone`, `MemSim::kswapd_step`,
//!   `ChargeOutcome::is_ok`.
//! * `arv_sim_core`: `SimDuration::{from_micros, from_millis}`.
//! * `arv_resview`: `render::{cpuinfo, meminfo, stat, cpu_list, cpu_max,
//!   memory_max}`, `CpuBounds`, `EffectiveCpuConfig::default`,
//!   `EffectiveCpu::{new, update}`, `CpuSample`,
//!   `EffectiveMemory::{new, update}`, `EffectiveMemoryConfig::default`,
//!   `MemSample`, `LiveRegistry::{new, register}`,
//!   `NsCell::{snapshot, apply}`, `LiveSample`, `Sysconf`, `PAGE_SIZE`,
//!   `NsMonitor: Clone`, `NsMonitor::{tick, snapshot, namespace}`,
//!   `SysNamespace::{cpu_bounds, soft_limit, hard_limit}`.
//! * `arv_viewd`: `ViewServer::{new, register, mirror, client, metrics}`
//!   and `Clone`, `HostSpec`, `ViewClient::{read, sysconf, generation}`,
//!   `MetricsSnapshot` fields `wire_requests`, `wire_errors`,
//!   `wire_rejected`, `failures`, `cache_hits`, `cache_misses`,
//!   `requests_shed`, `conns_evicted_slow`, `degraded_serves`,
//!   `connections_dropped`, `wire_latency_ns`;
//!   `ServerConfig::builder()` with `max_connections`, `rate_burst`,
//!   `rate_refill_per_sec`, `write_deadline`, `loops`, `build`;
//!   `WireServer::{spawn_with_config, socket_path, shutdown}`,
//!   `FrameDecoder::{new, feed, next_frame}`, `codec::write_frame`,
//!   `parse_response`, `WireResponse` fields `body`, `generation`,
//!   `degraded`, `shed`; `CONTAINER_PATHS`, `KIND_READ`, `KIND_SYSCONF`,
//!   `MAX_RESPONSE`, `ShardedRegistry::{new, insert, get}`,
//!   `RenderCache::{new, get, put}`, `PathId`; the wire format of a
//!   request (`u32le len | u8 kind | u32le container | key`).
//! * `arv_container`: `SimHost::{new, launch, attach_viewd, viewd,
//!   viewd_host_spec, enable_journal, journal_bytes, durability_lost,
//!   attach_periphery, periphery, take_fleet_frames, deliver_fleet_ack,
//!   step, demand, charge, uncharge, monitor, ledger, mem, cfs,
//!   container_count}`, `ContainerSpec::{new, cpus, cpu_shares, memory,
//!   memory_reservation}`.
//! * `arv_persist`: `Journal::{new, append_delta, sync, checkpoint, len,
//!   as_bytes}`, `restore`, `Snapshot` (`at`, fields `tick`, `entries`),
//!   `ViewState`.
//! * `arv_fleet`: `FleetController::{new, enable_journal, attach_lease,
//!   enable_replication, is_leader, handle_frame, take_repl_frames,
//!   handle_repl_ack, advance_tick, cluster_capacity, metrics,
//!   journal_bytes}`, `FleetMetricsSnapshot` fields `delta_entries`,
//!   `repl_records_streamed`, `repl_records_applied`,
//!   `deltas_gap_resyncs`, `hosts_partitioned`, `malformed_frames`,
//!   `repl_gap_snapshots`, `repl_truncated`, `repl_fenced`,
//!   `not_leader_rejects`, `journal_io_errors`; `FleetPolicy::default`,
//!   `SharedLease::new`, `ClusterRollup` fields,
//!   `Periphery::{new, observe, take_frames, handle_ack, stats}`,
//!   `PeripheryStats` fields `frames`, `entries`, `deltas_coalesced`,
//!   `resyncs`; `decode_frame`, `Frame::{Ack, Delta}`, `Ack::host`,
//!   `FleetWireServer::{spawn, socket_path, shutdown}`, `MAX_FLEET_FRAME`.
//! * `arv_telemetry`: `Tracer::{bounded, emit_cpu}`, `CpuDecision`,
//!   `DecisionCause::CpuSaturatedWithSlack`.
//! * `arv_experiments`: `json::Json` (`parse`, `pretty`, `get`, `as_str`,
//!   `as_f64`, `as_arr`), for reports only.

#![warn(missing_docs)]

pub mod fleet_fanin;
pub mod harness;
pub mod host_tick;
pub mod metrics;
pub mod pipe;
pub mod probes;
pub mod read;
pub mod reference;
pub mod report;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod sysinfo;
pub mod truth;

use harness::{Outcome, RunConfig, Scale, SETUPS};
use metrics::WORKLOADS;

/// Run one workload by its `BENCHMARK.json` name.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    match name {
        "read_hot" => Some(read::run(false, cfg)),
        "read_churn" => Some(read::run(true, cfg)),
        "host_tick" => Some(host_tick::run(cfg)),
        "fleet_fanin" => Some(fleet_fanin::run(cfg)),
        _ => None,
    }
}

/// The configuration of an untraced run of `seconds` seconds.
pub fn untraced(seed: u64, seconds: f64) -> RunConfig {
    RunConfig {
        seed,
        seconds,
        traced: false,
        scale: Scale::FULL,
        setups: SETUPS,
    }
}

/// Share of a traced run's seconds each of the four workloads gets; the
/// probes get the rest.
const TRACED_WORKLOAD_SHARE: f64 = 1.0 / 6.0;

/// A traced run: what every layer measured, and the checks of the four
/// short workload runs behind it.
#[derive(Debug)]
pub struct TracedRun {
    /// Operations checked across the four workloads.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// First few failures, by workload.
    pub failures: Vec<String>,
    /// Every per-layer metric, in no particular order.
    pub layers: Vec<(&'static str, f64)>,
    /// Each workload's outcome, spans included.
    pub outcomes: Vec<(&'static str, Outcome)>,
}

/// Measure every layer: each workload runs for a sixth of `seconds`,
/// alternating untraced and traced segments, and the probes share the
/// last third. A per-layer metric has one home (the workload whose spans
/// feed it, or a probe), so a traced run is not of one workload.
pub fn traced_run(seed: u64, seconds: f64, scale: Scale) -> TracedRun {
    let mut run = TracedRun {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        layers: Vec::new(),
        outcomes: Vec::new(),
    };
    let cfg = RunConfig {
        seed,
        seconds: seconds * TRACED_WORKLOAD_SHARE,
        traced: true,
        scale,
        setups: 1,
    };
    const OVERHEAD: [&str; 4] = [
        "trace.overhead_ratio.read_hot",
        "trace.overhead_ratio.read_churn",
        "trace.overhead_ratio.host_tick",
        "trace.overhead_ratio.fleet_fanin",
    ];
    for ((name, _), overhead) in WORKLOADS.iter().zip(OVERHEAD) {
        let outcome = run_workload(name, &cfg).expect("a declared workload");
        run.attempted += outcome.attempted;
        run.failed += outcome.failed;
        run.failures
            .extend(outcome.failures.iter().map(|f| format!("{name}: {f}")));
        run.layers.extend(outcome.layers.iter().copied());
        run.layers.push((overhead, outcome.trace_overhead_ratio));
        run.outcomes.push((name, outcome));
    }
    let slowdown = run.outcomes.iter().map(|(_, o)| o.slowdown).sum::<f64>() / 4.0;
    run.layers.push(("reference.slowdown", slowdown));
    let probe_seconds = seconds * (1.0 - 4.0 * TRACED_WORKLOAD_SHARE);
    run.layers.extend(probes::run(&cfg, probe_seconds));
    run
}
