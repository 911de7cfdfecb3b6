//! What every workload shares: how long to run, how a timed phase is cut
//! into segments, and the shape of a result.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::reference::Reference;
use crate::spans::SpanLog;
use crate::stats::Spread;
use crate::sysinfo;

/// Segments every run measures, however short. A segment is a fixed number
/// of operations ([`Scale`]), and a run measures segments until `--seconds`
/// have passed, so a faster machine measures more of them. What must
/// repeat exactly for a seed — every count — is therefore read when this
/// many segments are done: the same operations on every machine.
pub const COUNTED_SEGMENTS: usize = 4;
/// Times a workload is set up in one untraced run; `setup_s` is their
/// median.
pub const SETUPS: usize = 7;

/// Bytes in a MiB.
pub const MIB: u64 = 1 << 20;

/// One workload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Drives every generator.
    pub seed: u64,
    /// Whole segments are measured until this many seconds have passed
    /// (and at least [`COUNTED_SEGMENTS`] of them).
    pub seconds: f64,
    /// Record spans in every second segment: segments alternate untraced,
    /// traced, so both halves of the overhead ratio see the same machine.
    pub traced: bool,
    /// Population and segment sizes: full, or the reduced sizes the tests
    /// use.
    pub scale: Scale,
    /// Set-ups per run (the first one is measured).
    pub setups: usize,
}

/// Population sizes of the workloads and the operations in one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Containers registered with the view daemon (`read_*`) and launched
    /// on the simulated host (`host_tick`).
    pub containers: u32,
    /// Peripheries in `fleet_fanin`.
    pub hosts: u32,
    /// Containers per periphery in `fleet_fanin`.
    pub containers_per_host: u32,
    /// Warm-up requests of the read workloads.
    pub warmup_requests: u64,
    /// Warm-up ticks of `host_tick`.
    pub warmup_ticks: u64,
    /// Warm-up rounds of `fleet_fanin`.
    pub warmup_rounds: u64,
    /// Requests in the serial part of a read segment.
    pub serial_requests: u64,
    /// Batches (2 connections x 16 requests) in the pipelined part of a
    /// read segment.
    pub batches: u64,
    /// Rounds in a `host_tick` segment.
    pub tick_rounds: u64,
    /// Rounds in a `fleet_fanin` segment.
    pub fanin_rounds: u64,
}

impl Scale {
    /// The sizes `BENCHMARK.json` is measured at. A set-up takes a second
    /// or more, a segment about a quarter of one.
    pub const FULL: Scale = Scale {
        containers: 1000,
        hosts: 200,
        containers_per_host: 100,
        warmup_requests: 720_000,
        warmup_ticks: 250,
        warmup_rounds: 180,
        serial_requests: 16_384,
        batches: 3_072,
        tick_rounds: 50,
        fanin_rounds: 32,
    };
    /// A tenth of the population, for tests in debug builds.
    pub const SMALL: Scale = Scale {
        containers: 100,
        hosts: 20,
        containers_per_host: 10,
        warmup_requests: 512,
        warmup_ticks: 8,
        warmup_rounds: 4,
        serial_requests: 256,
        batches: 128,
        tick_rounds: 16,
        fanin_rounds: 4,
    };
}

/// Wall and CPU time of one timed stretch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU microseconds (every thread: driver and daemons).
    pub cpu_us: f64,
}

impl std::ops::AddAssign for Lap {
    fn add_assign(&mut self, other: Lap) {
        self.wall_s += other.wall_s;
        self.cpu_us += other.cpu_us;
    }
}

/// What one segment of a timed phase measured, as read off the clocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measured {
    /// Operations in the throughput part.
    pub ops: u64,
    /// Wall and CPU time of those operations' timed stretches, summed:
    /// the calls into the program only, not the driver generating inputs
    /// before them or checking outputs after.
    pub timed: Lap,
    /// Median operation latency, microseconds.
    pub p50_us: f64,
    /// Latency samples taken.
    pub lat_samples: u64,
}

#[derive(Debug, Clone, Copy)]
struct Segment {
    measured: Measured,
    traced: bool,
    /// Mean of the reference's slowdown at the segment's two ends.
    slowdown: f64,
}

/// Wall and CPU clocks read together at a part's start.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: u64,
}

impl Stopwatch {
    /// Start both clocks.
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu_ns: sysinfo::cpu_time_ns(),
            wall: Instant::now(),
        }
    }

    /// Wall and CPU time since the start.
    pub fn lap(&self) -> Lap {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_us = sysinfo::cpu_time_ns().saturating_sub(self.cpu_ns) as f64 / 1e3;
        Lap { wall_s, cpu_us }
    }
}

/// The end-to-end metrics of one run (the names in `BENCHMARK.json`), the
/// timings in reference units (see [`crate::reference`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Median over the run's set-ups: build, registration, warm-up.
    pub setup_s: Spread,
    /// Requests (read path) or view entries (propagation path) per second.
    pub ops_per_s: Spread,
    /// Median serial request→reply time (read path) or wall of one
    /// propagation round, microseconds.
    pub latency_p50_us: Spread,
    /// Process CPU time per operation, microseconds.
    pub cpu_us_per_op: Spread,
    /// `VmHWM` when the measured phase ended, MiB.
    pub peak_rss_mib: f64,
}

impl EndToEnd {
    /// `(name, value)` in `BENCHMARK.json` order.
    pub fn values(&self) -> [(&'static str, Spread); 5] {
        [
            ("setup_s", self.setup_s),
            ("ops_per_s", self.ops_per_s),
            ("latency_p50_us", self.latency_p50_us),
            ("cpu_us_per_op", self.cpu_us_per_op),
            ("peak_rss_mib", Spread::single(self.peak_rss_mib)),
        ]
    }
}

/// Result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// First few failed checks, for the log.
    pub failures: Vec<String>,
    /// End-to-end metrics over the untraced segments.
    pub e2e: EndToEnd,
    /// Median per-operation wall of the traced segments over that of the
    /// untraced ones (0 in an untraced run).
    pub trace_overhead_ratio: f64,
    /// Per-layer metrics this workload owns (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// The spans behind them (empty after an untraced run).
    pub spans: SpanLog,
    /// Counts that must repeat exactly for a seed: read when the first
    /// [`COUNTED_SEGMENTS`] segments were done.
    pub counts: Vec<(&'static str, u64)>,
    /// The unscaled medians behind the end-to-end metrics.
    pub raw: [(&'static str, f64); 4],
    /// Median slowdown of the reference load during the run.
    pub slowdown: f64,
}

/// The count called `name` (0 if the workload took none by that name).
pub fn count_of(counts: &[(&'static str, u64)], name: &str) -> f64 {
    counts
        .iter()
        .find_map(|(n, c)| (*n == name).then_some(*c as f64))
        .unwrap_or(0.0)
}

/// Failed checks of a run, with the first few kept as text.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// First few reasons.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one failed operation.
    #[cold]
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why());
        }
    }

    /// Count a failure unless `ok`.
    #[inline]
    pub fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why);
        }
    }
}

/// The measured part of one workload run: it owns the reference load,
/// the span log and the checks, cuts the timed phase into segments, and
/// scales every timing by the reference (see [`crate::reference`]).
#[derive(Debug)]
pub struct Run {
    /// The span log; on in traced segments.
    pub log: SpanLog,
    /// Output checks so far; a workload adds its end-of-run checks here.
    pub checks: Checks,
    reference: Reference,
    /// The reference's slowdown when the last set-up or segment ended.
    boundary: f64,
    setups: Vec<f64>,
    /// When the first segment was asked for.
    measuring_since: Option<Instant>,
    segments: Vec<Segment>,
    /// `VmHWM` when the last segment ended: read there, before the
    /// workload's end-of-run checks copy journals and snapshots about.
    peak_rss_mib: f64,
}

impl Run {
    /// Start the reference load and an empty run.
    pub fn start() -> Run {
        let mut reference = Reference::start().expect("start the reference load");
        Run {
            log: SpanLog::new(),
            checks: Checks::default(),
            boundary: reference.slowdown(),
            reference,
            setups: Vec::new(),
            measuring_since: None,
            segments: Vec::new(),
            peak_rss_mib: 0.0,
        }
    }

    /// Mean slowdown between the last boundary and now; now becomes the
    /// boundary.
    fn slowdown_since_boundary(&mut self) -> f64 {
        let now = self.reference.slowdown();
        let mean = (self.boundary + now) / 2.0;
        self.boundary = now;
        mean
    }

    /// Set the workload up — the first time, the instance the run
    /// measures — and time it, scaled by the reference around it.
    pub fn set_up<T>(&mut self, build: impl FnOnce() -> T) -> T {
        self.boundary = self.reference.slowdown();
        let t0 = Instant::now();
        let built = build();
        let secs = t0.elapsed().as_secs_f64();
        let slowdown = self.slowdown_since_boundary();
        self.setups.push(secs / slowdown);
        built
    }

    /// Set the workload up again until `cfg.setups` set-ups are timed,
    /// dropping each instance (and stopping its daemons) outside the timed
    /// part. These come after the measured phase so that `peak_rss_mib`,
    /// read when its last segment ended, is the peak of one instance: it
    /// moved by a quarter from run to run when it also held what the
    /// allocator kept of earlier instances.
    pub fn set_up_again<T>(&mut self, cfg: &RunConfig, mut build: impl FnMut() -> T) {
        while self.setups.len() < cfg.setups {
            drop(self.set_up(&mut build));
        }
    }

    /// Whether another segment is due: until [`COUNTED_SEGMENTS`] are done,
    /// and then until `cfg.seconds` have passed since the first was asked
    /// for.
    pub fn more(&mut self, cfg: &RunConfig) -> bool {
        let since = *self.measuring_since.get_or_insert_with(Instant::now);
        self.segments.len() < COUNTED_SEGMENTS || since.elapsed().as_secs_f64() < cfg.seconds
    }

    /// Whether the next segment records spans.
    pub fn next_is_traced(&self, cfg: &RunConfig) -> bool {
        cfg.traced && self.segments.len() % 2 == 1
    }

    /// Whether the next segment is one of the first [`COUNTED_SEGMENTS`].
    pub fn next_is_counted(&self) -> bool {
        self.segments.len() < COUNTED_SEGMENTS
    }

    /// Whether the segment just measured was the last of the first
    /// [`COUNTED_SEGMENTS`]: the moment to read every count that must
    /// repeat exactly.
    pub fn counted_just_ended(&self) -> bool {
        self.segments.len() == COUNTED_SEGMENTS
    }

    /// Measure the next segment of the timed phase: `body` runs it, with
    /// the span log on if the segment is a traced one.
    pub fn segment(
        &mut self,
        cfg: &RunConfig,
        body: impl FnOnce(&mut SpanLog, &mut Checks) -> Measured,
    ) {
        let traced = self.next_is_traced(cfg);
        self.log.set_recording(traced);
        let measured = body(&mut self.log, &mut self.checks);
        self.log.set_recording(false);
        self.peak_rss_mib = sysinfo::peak_rss_mib();
        let slowdown = self.slowdown_since_boundary();
        self.segments.push(Segment {
            measured,
            traced,
            slowdown,
        });
    }

    /// Fold the segments into the end-to-end metrics — each the median
    /// over the untraced segments of the segment's own number, scaled by
    /// the segment's slowdown — and add what the workload measured beside
    /// them: its per-layer metrics and its exact counts.
    pub fn finish(
        self,
        layers: Vec<(&'static str, f64)>,
        counts: Vec<(&'static str, u64)>,
    ) -> Outcome {
        let untraced: Vec<&Segment> = self.segments.iter().filter(|s| !s.traced).collect();
        let ops: u64 = untraced.iter().map(|s| s.measured.ops).sum();
        let lat: u64 = untraced.iter().map(|s| s.measured.lat_samples).sum();
        let per_s = |s: &&Segment| s.measured.ops as f64 / s.measured.timed.wall_s;
        let cpu = |s: &&Segment| s.measured.timed.cpu_us / s.measured.ops.max(1) as f64;
        let over = |f: &dyn Fn(&&Segment) -> f64, samples: u64| {
            Spread::over(&untraced.iter().map(f).collect::<Vec<f64>>(), samples)
        };
        let e2e = EndToEnd {
            setup_s: Spread::over(&self.setups, self.setups.len() as u64),
            ops_per_s: over(&|s| per_s(s) * s.slowdown, ops),
            latency_p50_us: over(&|s| s.measured.p50_us / s.slowdown, lat),
            cpu_us_per_op: over(&|s| cpu(s) / s.slowdown, ops),
            peak_rss_mib: self.peak_rss_mib,
        };
        let raw = [
            ("ops_per_s", over(&per_s, ops).median),
            ("latency_p50_us", over(&|s| s.measured.p50_us, lat).median),
            ("cpu_us_per_op", over(&cpu, ops).median),
            ("peak_rss_mib", e2e.peak_rss_mib),
        ];
        let mut traced: Vec<f64> = self
            .segments
            .iter()
            .filter(|s| s.traced)
            .map(|s| 1.0 / (per_s(&s) * s.slowdown))
            .collect();
        let trace_overhead_ratio = if traced.is_empty() {
            0.0
        } else {
            crate::stats::median(&mut traced) * e2e.ops_per_s.median
        };
        Outcome {
            attempted: self.checks.attempted,
            failed: self.checks.failed,
            failures: self.checks.failures,
            slowdown: over(&|s| s.slowdown, 0).median,
            e2e,
            raw,
            trace_overhead_ratio,
            layers,
            counts,
            spans: self.log,
        }
    }
}

/// A fresh path for `name` inside the run directory, which is created
/// under the directory the benchmark was started in. The path is relative,
/// so a socket fits `sun_path` however deep the checkout is.
pub fn run_path(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(RUN_DIR);
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{}-{n}-{name}", std::process::id()))
}

/// A socket path for the daemon called `tag`.
pub fn socket_path(tag: &str) -> PathBuf {
    run_path(&format!("{tag}.sock"))
}

/// Directory (under the current one) that holds a run's sockets and the
/// reports its child processes hand back.
pub const RUN_DIR: &str = ".arv-benchmark-run";

/// Remove the run directory if it is empty: the binary calls this once,
/// when every daemon has stopped. (Tests leave the empty directory behind
/// rather than race one another over it; `.gitignore` names it.)
pub fn clean_run_dir() {
    let _ = std::fs::remove_dir(RUN_DIR);
}
