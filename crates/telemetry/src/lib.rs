//! Decision-provenance tracing for the adaptive resource-view pipeline.
//!
//! The paper's whole contribution is that a container's *view* changes
//! over time — Algorithm 1's ±1-CPU steps, Algorithm 2's 10% memory
//! growth and kswapd resets — yet a pipeline that mutates views
//! silently cannot answer the operator's first question: *why does
//! container X currently see 3 CPUs?* This crate provides the answer:
//!
//! * a **lock-free bounded trace ring** ([`Tracer`]) into which every
//!   layer of the pipeline (`ns_monitor`, the live registry, the
//!   watchdog, `arv-viewd`) emits typed events with tick timestamps;
//! * a **decision-provenance record** for every view change: each
//!   effective-CPU step and effective-memory growth/reset carries its
//!   [`DecisionCause`], its before/after value, and the inputs that
//!   drove it;
//! * **query APIs** — [`Tracer::timeline`] reconstructs a container's
//!   view evolution, [`Tracer::explain`] returns the last decision per
//!   resource — plus text renderings for the wire `TRACE` opcode;
//! * a tiny **Prometheus-style text exposition** builder ([`PromText`])
//!   used by the view server and the fleet controller to export their
//!   metrics and per-container gauges, and the [`metrics!`] macro that
//!   declares each daemon's counters and histograms once;
//! * a **staleness histogram** ([`LagHistogram`]) with fixed
//!   power-of-two tick buckets, used by the fleet controller to build
//!   per-host end-to-end lag waterfalls;
//! * an **anomaly flight recorder** ([`FlightRecorder`]): a bounded
//!   black-box that, on an anomaly (gap resync, fence, promotion,
//!   demotion, partition, a durability edge), freezes the trace ring and
//!   a counter snapshot into a retrievable, CRC-framed [`FlightDump`].
//!   The trigger is a [`PipelineEvent`], emitted into the ring before
//!   the freeze, so every dump holds the event that froze it. The trace
//!   ring, a dump's trigger and the fleet controller's per-host causal
//!   ring all name events in this one vocabulary.
//!
//! # Design
//!
//! The ring is a fixed power-of-two array of 8-word slots, each word an
//! `AtomicU64`. Writers claim a monotonically increasing *ticket* with
//! one `fetch_add` and write into slot `ticket % capacity`; the slot's
//! first word holds `ticket * 2 + 1` while the payload is being written
//! and `ticket * 2 + 2` once complete, so readers can detect both torn
//! writes and slots that have since been reused by a newer ticket.
//! Nothing blocks: emitting is a handful of relaxed stores, reading is
//! a validated snapshot scan. When the ring wraps, the *oldest* events
//! are dropped and [`Tracer::dropped_events`] counts them exactly
//! (`head − capacity`, saturating).
//!
//! A disabled tracer ([`Tracer::disabled`], also the `Default`) holds
//! no ring at all; every emit is a branch on a `None` and the hot
//! serving paths stay unperturbed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use arv_cgroups::{Bytes, CgroupId};
/// The lock-free latency histogram a [`metrics!`] declaration holds.
pub use arv_sim_core::stats::Histogram;

/// Declare an event enum from one table: each variant with its doc, its
/// trace code and its label. The enum, the table (in declaration order,
/// so a variant's discriminant indexes its row) and the `code`,
/// `from_code` and `label` that read it all come from the one list.
macro_rules! coded_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident, table $table:ident {
            $($(#[$vdoc:meta])* $variant:ident = $code:literal, $label:literal;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)*
        }

        /// Every variant with its trace code and label, in declaration
        /// order.
        const $table: &[($name, u8, &str)] = &[$(($name::$variant, $code, $label)),*];

        impl $name {
            #[inline]
            fn code(self) -> u8 {
                $table[self as usize].1
            }

            fn from_code(code: u8) -> Option<$name> {
                $table.iter().find(|row| row.1 == code).map(|row| row.0)
            }

            /// Short label used in rendered timelines and dumps.
            pub fn label(self) -> &'static str {
                $table[self as usize].2
            }
        }
    };
}

coded_enum! {
    /// Why a view changed (or why a served value deviated from the view).
    ///
    /// Every decision the pipeline traces carries one of these; a
    /// well-instrumented run never produces [`DecisionCause::Unknown`].
    pub enum DecisionCause, table CAUSES {
        /// Cause could not be attributed (decoder fallback; never emitted
        /// by the instrumented pipeline itself).
        Unknown = 0, "unknown";
        /// Algorithm 1 grew effective CPU: utilization exceeded the
        /// threshold (95%) while the host still had scheduling slack.
        CpuSaturatedWithSlack = 1, "cpu-saturated+slack";
        /// Algorithm 1 shrank effective CPU toward the lower bound: the
        /// host had no slack left.
        CpuShrinkNoSlack = 2, "cpu-shrink-no-slack";
        /// Algorithm 2 grew effective memory: usage above 90% of the view
        /// with free memory above the watermarks.
        MemPressureGrowth = 3, "mem-pressure-growth";
        /// Algorithm 2 reset effective memory to the soft limit: kswapd
        /// reclaim in progress or free memory too close to the watermarks.
        MemReclaimReset = 4, "mem-reclaim-reset";
        /// Static bounds/limits were refreshed from a cgroup event and the
        /// clamp moved the view.
        StaticRefresh = 5, "static-refresh";
        /// A watchdog-demanded full reconcile rebuilt the namespace and
        /// moved the view.
        WatchdogResync = 6, "watchdog-resync";
        /// The serving layer substituted the conservative fallback (CPU
        /// lower bound / memory soft limit) for a degraded view.
        DegradedFallback = 7, "degraded-fallback";
        /// A warm restart resumed the view from a journaled checkpoint
        /// instead of the cold lower bound.
        Restored = 8, "restored";
        /// A restored value had to be reconciled: the journaled view fell
        /// outside the freshly recomputed static bounds and was clamped.
        RestoreReconciled = 9, "restore-reconciled";
    }
}

/// One effective-CPU change with the inputs that drove it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuDecision {
    /// Why the view moved.
    pub cause: DecisionCause,
    /// Effective CPU count before the decision.
    pub before: u32,
    /// Effective CPU count after the decision.
    pub after: u32,
    /// Utilization of the pre-decision capacity observed this period
    /// (Algorithm 1's `cusage / capacity`); 0 for static refreshes.
    pub utilization: f64,
    /// Whether the host scheduler reported slack this period.
    pub had_slack: bool,
}

/// One effective-memory change with the inputs that drove it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemDecision {
    /// Why the view moved.
    pub cause: DecisionCause,
    /// Effective memory before the decision.
    pub before: Bytes,
    /// Effective memory after the decision.
    pub after: Bytes,
    /// Container memory usage observed this period (zero for static
    /// refreshes, which carry no sample).
    pub usage: Bytes,
    /// Host free memory observed this period (zero for static
    /// refreshes).
    pub free: Bytes,
}

coded_enum! {
    /// A pipeline lifecycle/health event (not a view-value change): the
    /// one vocabulary of the trace ring, a flight dump's trigger and a
    /// fleet host's causal ring. Codes 9 and 12 are retired and name
    /// nothing.
    pub enum PipelineEvent, table PIPELINE_EVENTS {
        /// A namespace was created for a new container.
        ContainerCreated = 1, "container-created";
        /// A container's namespace was torn down.
        ContainerRemoved = 2, "container-removed";
        /// The watchdog observed a sequence gap or overflow drop in the
        /// cgroup event stream.
        GapDetected = 3, "gap-detected";
        /// The update timer fired but the monitor did no work.
        StallDetected = 4, "stall-detected";
        /// A full reconcile pass ran.
        Resynced = 5, "resynced";
        /// A warm restart replayed the journal and reconciled the result
        /// against the live cgroup hierarchy.
        Restored = 6, "restored";
        /// The fleet controller detected a periphery sequence gap and
        /// demanded a FULL resync.
        FleetGapResync = 7, "fleet-gap-resync";
        /// The fleet controller flagged a host partitioned: its rollup
        /// contribution is served last-good, degraded.
        FleetPartitioned = 8, "fleet-partitioned";
        /// A standby fleet controller took over the lease and promoted
        /// itself to primary at a bumped epoch.
        FleetPromoted = 10, "fleet-promoted";
        /// A frame stamped with a stale controller epoch was rejected
        /// (fenced) instead of applied.
        FleetFenced = 11, "fleet-fenced";
        /// A journal or lease store error flipped a component onto the
        /// durability degradation ladder (degraded journal / step-down).
        DurabilityLost = 13, "durability-lost";
        /// A successful re-checkpoint against the recovered store healed
        /// the durability flag.
        DurabilityRestored = 14, "durability-restored";
        /// A primary fleet controller stood down: it lost the lease or
        /// saw a higher epoch.
        FleetDemoted = 15, "fleet-demoted";
        /// A host introduced itself to the fleet controller (attach or
        /// reconnect).
        FleetHello = 16, "fleet-hello";
        /// The fleet controller applied a host's in-order incremental
        /// DELTA.
        FleetDeltaApplied = 17, "fleet-delta-applied";
        /// A host's FULL snapshot replaced its state at the fleet
        /// controller.
        FleetFullApplied = 18, "fleet-full-applied";
    }
}

/// The typed payload of one trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// An effective-CPU decision.
    Cpu(CpuDecision),
    /// An effective-memory decision.
    Mem(MemDecision),
    /// A pipeline lifecycle/health event.
    Pipeline(PipelineEvent),
}

/// One decoded event from the trace ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Global emission order (the writer's ticket): dense, monotone.
    pub seq: u64,
    /// Update-timer tick the event was emitted at.
    pub tick: u64,
    /// The container the event concerns, if any (`None` for host-wide
    /// pipeline events).
    pub container: Option<CgroupId>,
    /// The typed payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Render this event as one human-readable line (no trailing
    /// newline), as used by timelines and the wire `TRACE` body.
    pub fn render(&self) -> String {
        let who = match self.container {
            Some(id) => format!("c{}", id.0),
            None => "host".to_string(),
        };
        match self.kind {
            EventKind::Cpu(d) => format!(
                "[tick {:>4}] {} cpu {} -> {} ({}; util={:.2} slack={})",
                self.tick,
                who,
                d.before,
                d.after,
                d.cause.label(),
                d.utilization,
                d.had_slack
            ),
            EventKind::Mem(d) => format!(
                "[tick {:>4}] {} mem {} -> {} ({}; usage={} free={})",
                self.tick,
                who,
                d.before.0,
                d.after.0,
                d.cause.label(),
                d.usage.0,
                d.free.0
            ),
            EventKind::Pipeline(p) => {
                format!("[tick {:>4}] {} pipeline {}", self.tick, who, p.label())
            }
        }
    }
}

/// The last decision the pipeline took for each of a container's
/// resources, as returned by [`Tracer::explain`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Explanation {
    /// Most recent effective-CPU decision, if any is still in the ring.
    pub cpu: Option<TraceEvent>,
    /// Most recent effective-memory decision, if any is still in the
    /// ring.
    pub mem: Option<TraceEvent>,
}

// Slot word layout. Word 0 is the sequencing word: 0 = never written,
// `ticket*2+1` = write in progress, `ticket*2+2` = complete. The +1/+2
// encoding keeps 0 distinct from ticket 0's markers. Word 1 is the tick;
// words 2.. are an event's packed words (see `pack`).
const W_SEQ: usize = 0;
const W_TICK: usize = 1;
const W_EVENT: usize = 2;
const SLOT_WORDS: usize = 8;

/// Words of one packed event: meta (container u32 | kind u8 | code u8 |
/// flags u8), before, after and two inputs.
const EVENT_WORDS: usize = 5;

const KIND_CPU: u8 = 1;
const KIND_MEM: u8 = 2;
const KIND_PIPELINE: u8 = 3;

/// Sentinel in the meta word's container field for "no container".
const NO_CONTAINER: u32 = u32::MAX;

const FLAG_HAD_SLACK: u8 = 1;

/// Pack an event into its words: the one layout the trace ring stores
/// and a flight dump serializes. [`unpack`] is its inverse.
#[inline]
fn pack(container: Option<CgroupId>, kind: &EventKind) -> [u64; EVENT_WORDS] {
    let meta = |kind: u8, code: u8, flags: u8| {
        u64::from(container.map_or(NO_CONTAINER, |c| c.0))
            | (u64::from(kind) << 32)
            | (u64::from(code) << 40)
            | (u64::from(flags) << 48)
    };
    match *kind {
        EventKind::Cpu(d) => [
            meta(
                KIND_CPU,
                d.cause.code(),
                if d.had_slack { FLAG_HAD_SLACK } else { 0 },
            ),
            u64::from(d.before),
            u64::from(d.after),
            d.utilization.to_bits(),
            0,
        ],
        EventKind::Mem(d) => [
            meta(KIND_MEM, d.cause.code(), 0),
            d.before.0,
            d.after.0,
            d.usage.0,
            d.free.0,
        ],
        EventKind::Pipeline(p) => [meta(KIND_PIPELINE, p.code(), 0), 0, 0, 0, 0],
    }
}

/// The event `words` packs, stamped `seq` and `tick`; `None` when they
/// name no event kind or no pipeline event.
fn unpack(seq: u64, tick: u64, words: [u64; EVENT_WORDS]) -> Option<TraceEvent> {
    let [meta, before, after, in_a, in_b] = words;
    let container = match (meta & 0xFFFF_FFFF) as u32 {
        NO_CONTAINER => None,
        raw => Some(CgroupId(raw)),
    };
    let code = ((meta >> 40) & 0xFF) as u8;
    let cause = DecisionCause::from_code(code).unwrap_or(DecisionCause::Unknown);
    let flags = ((meta >> 48) & 0xFF) as u8;
    let kind = match ((meta >> 32) & 0xFF) as u8 {
        KIND_CPU => EventKind::Cpu(CpuDecision {
            cause,
            before: before as u32,
            after: after as u32,
            utilization: f64::from_bits(in_a),
            had_slack: flags & FLAG_HAD_SLACK != 0,
        }),
        KIND_MEM => EventKind::Mem(MemDecision {
            cause,
            before: Bytes(before),
            after: Bytes(after),
            usage: Bytes(in_a),
            free: Bytes(in_b),
        }),
        KIND_PIPELINE => EventKind::Pipeline(PipelineEvent::from_code(code)?),
        _ => return None,
    };
    Some(TraceEvent {
        seq,
        tick,
        container,
        kind,
    })
}

struct Slot {
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

struct TraceRing {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.slots.len())
            .field("head", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl TraceRing {
    fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.next_power_of_two().max(2);
        let slots: Vec<Slot> = (0..capacity).map(|_| Slot::new()).collect();
        TraceRing {
            slots: slots.into_boxed_slice(),
            mask: capacity as u64 - 1,
            head: AtomicU64::new(0),
        }
    }

    fn capacity(&self) -> u64 {
        self.slots.len() as u64
    }

    fn emit(&self, tick: u64, words: [u64; EVENT_WORDS]) {
        let ticket = self.head.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(ticket & self.mask) as usize];
        slot.words[W_SEQ].store(ticket * 2 + 1, Ordering::Release);
        slot.words[W_TICK].store(tick, Ordering::Relaxed);
        for (word, value) in slot.words[W_EVENT..].iter().zip(words) {
            word.store(value, Ordering::Relaxed);
        }
        slot.words[W_SEQ].store(ticket * 2 + 2, Ordering::Release);
    }

    fn emitted(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    fn dropped(&self) -> u64 {
        self.emitted().saturating_sub(self.capacity())
    }

    /// Validated snapshot of every event still resident, oldest first.
    /// Events overwritten mid-scan by concurrent writers are skipped
    /// (their sequencing word no longer matches the expected ticket).
    fn events(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let start = head.saturating_sub(self.capacity());
        let mut out = Vec::with_capacity((head - start) as usize);
        for ticket in start..head {
            let slot = &self.slots[(ticket & self.mask) as usize];
            let want = ticket * 2 + 2;
            if slot.words[W_SEQ].load(Ordering::Acquire) != want {
                continue;
            }
            let tick = slot.words[W_TICK].load(Ordering::Relaxed);
            let words = std::array::from_fn(|i| slot.words[W_EVENT + i].load(Ordering::Relaxed));
            // Re-validate: if a newer writer reused the slot while we
            // were reading, the payload above may be torn — discard it.
            if slot.words[W_SEQ].load(Ordering::Acquire) != want {
                continue;
            }
            if let Some(ev) = unpack(ticket, tick, words) {
                out.push(ev);
            }
        }
        out
    }
}

/// Shared handle into the trace ring.
///
/// Cloning is cheap (an `Arc` bump); all clones feed the same ring.
/// The `Default` tracer is disabled: it holds no ring, every emit is a
/// single branch, and queries return empty results.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TraceRing>>,
}

impl Tracer {
    /// A no-op tracer (the default): emits are single-branch no-ops.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer over a bounded ring holding the most recent `capacity`
    /// events (rounded up to a power of two, minimum 2). When full,
    /// the oldest events are dropped.
    pub fn bounded(capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TraceRing::new(capacity))),
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of events the ring can hold (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |r| r.slots.len())
    }

    /// Total events ever emitted into this tracer.
    pub fn emitted(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.emitted())
    }

    /// Exact count of events lost to ring wrap (oldest-first drops).
    pub fn dropped_events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.dropped())
    }

    /// Record an effective-CPU decision for `container` at `tick`.
    pub fn emit_cpu(&self, tick: u64, container: CgroupId, d: CpuDecision) {
        self.emit(tick, Some(container), EventKind::Cpu(d));
    }

    /// Record an effective-memory decision for `container` at `tick`.
    pub fn emit_mem(&self, tick: u64, container: CgroupId, d: MemDecision) {
        self.emit(tick, Some(container), EventKind::Mem(d));
    }

    /// Record a pipeline lifecycle/health event, optionally tied to a
    /// container.
    pub fn emit_pipeline(&self, tick: u64, container: Option<CgroupId>, ev: PipelineEvent) {
        self.emit(tick, container, EventKind::Pipeline(ev));
    }

    #[inline]
    fn emit(&self, tick: u64, container: Option<CgroupId>, kind: EventKind) {
        if let Some(ring) = &self.inner {
            ring.emit(tick, pack(container, &kind));
        }
    }

    /// Every event still resident in the ring, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |r| r.events())
    }

    /// Reconstruct `container`'s view evolution: every resident event
    /// concerning it, oldest first.
    pub fn timeline(&self, container: CgroupId) -> Vec<TraceEvent> {
        self.events()
            .into_iter()
            .filter(|e| e.container == Some(container))
            .collect()
    }

    /// The last decision the pipeline took for each of `container`'s
    /// resources (ignores pipeline lifecycle events).
    pub fn explain(&self, container: CgroupId) -> Explanation {
        let mut out = Explanation::default();
        for ev in self.timeline(container) {
            match ev.kind {
                EventKind::Cpu(_) => out.cpu = Some(ev),
                EventKind::Mem(_) => out.mem = Some(ev),
                EventKind::Pipeline(_) => {}
            }
        }
        out
    }

    /// Human-readable timeline for `container`, one event per line.
    pub fn render_timeline(&self, container: CgroupId) -> String {
        let events = self.timeline(container);
        if events.is_empty() {
            return format!("container {}: no trace events\n", container.0);
        }
        let mut out = String::new();
        for ev in events {
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }

    /// Human-readable "why is the view what it is" summary for
    /// `container`.
    pub fn render_explain(&self, container: CgroupId) -> String {
        let ex = self.explain(container);
        let mut out = String::new();
        match ex.cpu {
            Some(ev) => {
                let _ = writeln!(out, "cpu: {}", ev.render());
            }
            None => out.push_str("cpu: no decision traced\n"),
        }
        match ex.mem {
            Some(ev) => {
                let _ = writeln!(out, "mem: {}", ev.render());
            }
            None => out.push_str("mem: no decision traced\n"),
        }
        out
    }

    /// Render every resident event (host-wide), oldest first, with a
    /// drop summary header.
    pub fn render_full(&self) -> String {
        let mut out = format!(
            "# trace: {} emitted, {} dropped, capacity {}\n",
            self.emitted(),
            self.dropped_events(),
            self.capacity()
        );
        for ev in self.events() {
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }
}

/// Upper bounds (inclusive, in ticks) of the [`LagHistogram`] buckets;
/// an implicit `+Inf` bucket follows the last bound.
pub const LAG_BOUNDS: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// A fixed-bucket histogram of staleness lags, in ticks.
///
/// The fleet controller keeps one per host to build end-to-end
/// staleness waterfalls (origin tick → delta flush → ingest → rollup
/// visibility); the buckets are powers of two so a lag regression is
/// visible as mass shifting right.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LagHistogram {
    counts: [u64; LAG_BOUNDS.len() + 1],
    sum: u64,
    max: u64,
}

impl LagHistogram {
    /// Fold one observed lag in.
    pub fn observe(&mut self, lag: u64) {
        let i = LAG_BOUNDS
            .iter()
            .position(|&b| lag <= b)
            .unwrap_or(LAG_BOUNDS.len());
        self.counts[i] += 1;
        self.sum = self.sum.saturating_add(lag);
        self.max = self.max.max(lag);
    }

    /// Observations folded in so far.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of every observed lag (for mean computation).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The largest lag ever observed.
    pub fn max_lag(&self) -> u64 {
        self.max
    }

    /// Emit this histogram as Prometheus `_bucket`/`_sum`/`_count`
    /// samples (cumulative `le` buckets) under `name`, with `base`
    /// labels prepended to every sample.
    pub fn expose(&self, out: &mut PromText, name: &str, base: &[(&str, String)]) {
        let bucket = format!("{name}_bucket");
        let mut cum = 0u64;
        let mut labels: Vec<(&str, String)> = base.to_vec();
        labels.push(("le", String::new()));
        for (i, bound) in LAG_BOUNDS.iter().enumerate() {
            cum += self.counts[i];
            if let Some(last) = labels.last_mut() {
                last.1 = bound.to_string();
            }
            out.labeled(&bucket, &labels, cum as f64);
        }
        cum += self.counts[LAG_BOUNDS.len()];
        if let Some(last) = labels.last_mut() {
            last.1 = "+Inf".to_string();
        }
        out.labeled(&bucket, &labels, cum as f64);
        out.labeled(&format!("{name}_sum"), base, self.sum as f64);
        out.labeled(&format!("{name}_count"), base, cum as f64);
    }
}

/// One frozen black-box dump: the trace ring and a counter snapshot as
/// they stood the moment an anomaly trigger fired.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Dump ordinal within its recorder (monotone from 0).
    pub seq: u64,
    /// Tick the trigger fired at.
    pub tick: u64,
    /// The event that froze the dump.
    pub trigger: PipelineEvent,
    /// Every event resident in the trace ring at freeze time,
    /// oldest first.
    pub events: Vec<TraceEvent>,
    /// Named counter values at freeze time.
    pub counters: Vec<(String, u64)>,
}

impl FlightDump {
    /// Serialize the dump: fixed-width little-endian fields with a
    /// trailing CRC32 over everything before it — the same integrity
    /// framing `arv_persist` journals use, so a torn or corrupt dump is
    /// rejected instead of misread.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.events.len() * 56 + self.counters.len() * 24);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.tick.to_le_bytes());
        out.push(self.trigger.code());
        out.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        for ev in &self.events {
            for w in [ev.seq, ev.tick]
                .into_iter()
                .chain(pack(ev.container, &ev.kind))
            {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (name, value) in &self.counters {
            let bytes = name.as_bytes();
            out.push(bytes.len().min(255) as u8);
            out.extend_from_slice(&bytes[..bytes.len().min(255)]);
            out.extend_from_slice(&value.to_le_bytes());
        }
        let crc = arv_persist::crc32::checksum(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode a serialized dump. `None` for anything torn, corrupt
    /// (CRC mismatch), or malformed — never panics, for any input.
    pub fn decode(bytes: &[u8]) -> Option<FlightDump> {
        if bytes.len() < 4 {
            return None;
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let mut crc = [0u8; 4];
        crc.copy_from_slice(tail);
        if arv_persist::crc32::checksum(body) != u32::from_le_bytes(crc) {
            return None;
        }
        let mut i = 0usize;
        let u64_at = |b: &[u8], i: &mut usize| -> Option<u64> {
            let s = b.get(*i..*i + 8)?;
            *i += 8;
            let mut buf = [0u8; 8];
            buf.copy_from_slice(s);
            Some(u64::from_le_bytes(buf))
        };
        let u32_at = |b: &[u8], i: &mut usize| -> Option<u32> {
            let s = b.get(*i..*i + 4)?;
            *i += 4;
            let mut buf = [0u8; 4];
            buf.copy_from_slice(s);
            Some(u32::from_le_bytes(buf))
        };
        let seq = u64_at(body, &mut i)?;
        let tick = u64_at(body, &mut i)?;
        let trigger = PipelineEvent::from_code(*body.get(i)?)?;
        i += 1;
        let n_events = u32_at(body, &mut i)? as usize;
        if n_events > body.len().saturating_sub(i) / 56 {
            return None;
        }
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let eseq = u64_at(body, &mut i)?;
            let etick = u64_at(body, &mut i)?;
            let mut words = [0; EVENT_WORDS];
            for word in &mut words {
                *word = u64_at(body, &mut i)?;
            }
            events.push(unpack(eseq, etick, words)?);
        }
        let n_counters = u32_at(body, &mut i)? as usize;
        if n_counters > body.len().saturating_sub(i) / 9 {
            return None;
        }
        let mut counters = Vec::with_capacity(n_counters);
        for _ in 0..n_counters {
            let len = *body.get(i)? as usize;
            i += 1;
            let name = String::from_utf8(body.get(i..i + len)?.to_vec()).ok()?;
            i += len;
            counters.push((name, u64_at(body, &mut i)?));
        }
        if i != body.len() {
            return None;
        }
        Some(FlightDump {
            seq,
            tick,
            trigger,
            events,
            counters,
        })
    }
}

#[derive(Debug, Default)]
struct FlightState {
    next_seq: u64,
    dumps: std::collections::VecDeque<FlightDump>,
}

/// A bounded anomaly black-box: each [`record`](FlightRecorder::record)
/// freezes the tracer's resident events plus a counter snapshot into a
/// [`FlightDump`], keeping only the most recent `max_dumps`.
///
/// Cloning is cheap (an `Arc` bump); all clones feed the same store.
/// The `Default` recorder is disabled: records are single-branch
/// no-ops and queries return nothing — the same contract as
/// [`Tracer::disabled`].
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<std::sync::Mutex<FlightState>>>,
    max_dumps: usize,
}

impl FlightRecorder {
    /// A no-op recorder (the default).
    pub fn disabled() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// A recorder retaining the most recent `max_dumps` dumps
    /// (minimum 1).
    pub fn bounded(max_dumps: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Some(Arc::new(std::sync::Mutex::new(FlightState::default()))),
            max_dumps: max_dumps.max(1),
        }
    }

    /// Whether this recorder stores anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, FlightState>> {
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Freeze a dump: the tracer's resident events and `counters` as
    /// they stand right now, stamped with `tick` and the `trigger` event
    /// (which the caller emits into `tracer` first). The oldest dump is
    /// evicted once `max_dumps` are held.
    pub fn record(
        &self,
        tick: u64,
        trigger: PipelineEvent,
        tracer: &Tracer,
        counters: &[(&str, u64)],
    ) {
        let Some(mut st) = self.lock() else {
            return;
        };
        let seq = st.next_seq;
        st.next_seq += 1;
        st.dumps.push_back(FlightDump {
            seq,
            tick,
            trigger,
            events: tracer.events(),
            counters: counters
                .iter()
                .map(|(n, v)| ((*n).to_string(), *v))
                .collect(),
        });
        while st.dumps.len() > self.max_dumps {
            st.dumps.pop_front();
        }
    }

    /// Total dumps ever frozen (including evicted ones).
    pub fn dumps_frozen(&self) -> u64 {
        self.lock().map_or(0, |st| st.next_seq)
    }

    /// The dump `back` places before the newest (`0` = newest).
    pub fn get(&self, back: usize) -> Option<FlightDump> {
        let st = self.lock()?;
        let n = st.dumps.len();
        if back >= n {
            return None;
        }
        st.dumps.get(n - 1 - back).cloned()
    }

    /// The most recently frozen dump.
    pub fn latest(&self) -> Option<FlightDump> {
        self.get(0)
    }
}

/// Incremental builder for Prometheus text-format exposition.
///
/// Kept deliberately minimal: `# HELP`/`# TYPE` headers plus samples
/// with optional labels, matching what a scrape endpoint would serve.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty exposition.
    pub fn new() -> PromText {
        PromText::default()
    }

    /// Emit `# HELP`/`# TYPE` headers for a metric family. The HELP
    /// text is escaped per the text-format spec: `\` becomes `\\` and
    /// a newline becomes `\n`, so a multi-line help string cannot break
    /// the line-oriented exposition.
    pub fn header(&mut self, name: &str, help: &str, kind: &str) {
        let escaped = help.replace('\\', "\\\\").replace('\n', "\\n");
        let _ = writeln!(self.out, "# HELP {name} {escaped}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// One whole-process counter family: `# HELP`/`# TYPE` headers plus
    /// a single `{name}_total` sample — the shape every controller and
    /// server counter shares.
    pub fn counter(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "counter");
        let _ = writeln!(self.out, "{name}_total {}", fmt_value(value));
    }

    /// One unlabeled gauge family: headers plus a single sample under
    /// the family name itself.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.sample(name, value);
    }

    /// One histogram summary family: headers plus a `stat="mean"` and
    /// a `stat="p99"` gauge sample.
    pub fn mean_p99(&mut self, name: &str, help: &str, mean: f64, p99: u64) {
        self.header(name, help, "gauge");
        self.labeled(name, &[("stat", "mean".to_string())], mean);
        self.labeled(name, &[("stat", "p99".to_string())], p99 as f64);
    }

    /// Emit one unlabeled sample.
    pub fn sample(&mut self, name: &str, value: f64) {
        let _ = writeln!(self.out, "{name} {}", fmt_value(value));
    }

    /// Emit one sample with `label_name="label_value"` pairs.
    pub fn labeled(&mut self, name: &str, labels: &[(&str, String)], value: f64) {
        let rendered: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        let _ = writeln!(
            self.out,
            "{name}{{{}}} {}",
            rendered.join(","),
            fmt_value(value)
        );
    }

    /// The finished exposition body.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Declare a daemon's metrics once: each counter line gives the field's
/// doc, the field, the exported family and its HELP text; each histogram
/// line gives the field, the names of its snapshot's mean and p99 fields,
/// the family and its HELP text.
///
/// From that one list the macro builds the lock-free struct (an
/// `AtomicU64` per counter, a [`Histogram`] per histogram), its `Copy`
/// snapshot, `snapshot()`, the snapshot's `expose` (one counter family
/// per counter, one `stat="mean"`/`stat="p99"` gauge family per
/// histogram, in declaration order) and its `counters()` (every
/// counter's name and value, in declaration order, as a flight dump
/// freezes them).
///
/// ```
/// arv_telemetry::metrics! {
///     /// Counters of a toy daemon.
///     pub struct Toy => ToySnapshot;
///     counters {
///         /// Requests answered.
///         requests => "toy_requests", "Requests answered";
///     }
///     histograms {
///         /// Nanoseconds per request.
///         latency (latency_ns, latency_p99_ns) => "toy_latency_ns", "Request latency, nanoseconds";
///     }
/// }
/// let toy = Toy::default();
/// toy.requests.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
/// toy.latency.record(700);
/// let snap = toy.snapshot();
/// assert_eq!(snap.counters(), [("requests", 2)]);
/// let mut out = arv_telemetry::PromText::new();
/// snap.expose(&mut out);
/// assert!(out.finish().contains("toy_latency_ns{stat=\"p99\"} 1024\n"));
/// ```
#[macro_export]
macro_rules! metrics {
    (
        $(#[$meta:meta])*
        pub struct $name:ident => $snap:ident;
        counters {
            $($(#[$cdoc:meta])* $counter:ident => $cfamily:literal, $chelp:literal;)*
        }
        histograms {
            $($(#[$hdoc:meta])* $hist:ident ($mean:ident, $p99:ident) => $hfamily:literal, $hhelp:literal;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $name {
            $($(#[$cdoc])* pub $counter: ::std::sync::atomic::AtomicU64,)*
            $($(#[$hdoc])* pub $hist: $crate::Histogram,)*
        }

        #[doc = concat!("A point-in-time copy of [`", stringify!($name), "`].")]
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $snap {
            $($(#[$cdoc])* pub $counter: u64,)*
            $(
                #[doc = concat!("Mean of `", stringify!($hist), "`.")]
                pub $mean: f64,
                #[doc = concat!("99th-percentile bucket edge of `", stringify!($hist), "`.")]
                pub $p99: u64,
            )*
        }

        impl $name {
            /// Copy every counter and summarise every histogram. Each
            /// value is exact at its read instant; under concurrent load
            /// they may be slightly out of step with one another.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $($counter: self.$counter.load(::std::sync::atomic::Ordering::Relaxed),)*
                    $($mean: self.$hist.mean(), $p99: self.$hist.quantile(0.99),)*
                }
            }
        }

        impl $snap {
            /// Append one counter family per counter and one mean/p99
            /// gauge family per histogram, in declaration order.
            pub fn expose(&self, out: &mut $crate::PromText) {
                $(out.counter($cfamily, $chelp, self.$counter as f64);)*
                $(out.mean_p99($hfamily, $hhelp, self.$mean, self.$p99);)*
            }

            /// Every counter's field name and value, in declaration order.
            pub fn counters(&self) -> ::std::vec::Vec<(&'static str, u64)> {
                ::std::vec![$((stringify!($counter), self.$counter)),*]
            }
        }
    };
}

fn fmt_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu_step(before: u32, after: u32) -> CpuDecision {
        CpuDecision {
            cause: if after > before {
                DecisionCause::CpuSaturatedWithSlack
            } else {
                DecisionCause::CpuShrinkNoSlack
            },
            before,
            after,
            utilization: 0.97,
            had_slack: after > before,
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        t.emit_cpu(1, CgroupId(1), cpu_step(2, 3));
        t.emit_pipeline(1, None, PipelineEvent::Resynced);
        assert!(!t.is_enabled());
        assert_eq!(t.emitted(), 0);
        assert_eq!(t.dropped_events(), 0);
        assert!(t.events().is_empty());
        assert!(t.explain(CgroupId(1)).cpu.is_none());
    }

    #[test]
    fn events_round_trip_with_full_fidelity() {
        let t = Tracer::bounded(16);
        t.emit_cpu(7, CgroupId(3), cpu_step(2, 3));
        t.emit_mem(
            8,
            CgroupId(3),
            MemDecision {
                cause: DecisionCause::MemReclaimReset,
                before: Bytes(1000),
                after: Bytes(600),
                usage: Bytes(950),
                free: Bytes(50),
            },
        );
        t.emit_pipeline(9, None, PipelineEvent::GapDetected);

        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[0].tick, 7);
        assert_eq!(evs[0].container, Some(CgroupId(3)));
        match evs[0].kind {
            EventKind::Cpu(d) => {
                assert_eq!(d.before, 2);
                assert_eq!(d.after, 3);
                assert_eq!(d.cause, DecisionCause::CpuSaturatedWithSlack);
                assert!((d.utilization - 0.97).abs() < 1e-12);
                assert!(d.had_slack);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        match evs[1].kind {
            EventKind::Mem(d) => {
                assert_eq!(d.before, Bytes(1000));
                assert_eq!(d.after, Bytes(600));
                assert_eq!(d.usage, Bytes(950));
                assert_eq!(d.free, Bytes(50));
                assert_eq!(d.cause, DecisionCause::MemReclaimReset);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        assert_eq!(evs[2].container, None);
        assert_eq!(evs[2].kind, EventKind::Pipeline(PipelineEvent::GapDetected));
    }

    #[test]
    fn overflow_drops_oldest_and_counts_exactly() {
        let t = Tracer::bounded(8);
        assert_eq!(t.capacity(), 8);
        for i in 0..20u32 {
            t.emit_cpu(u64::from(i), CgroupId(1), cpu_step(i, i + 1));
        }
        assert_eq!(t.emitted(), 20);
        // Exactly head - capacity events were overwritten.
        assert_eq!(t.dropped_events(), 12);
        let evs = t.events();
        assert_eq!(evs.len(), 8);
        // The survivors are precisely the newest 8, in order.
        for (i, ev) in evs.iter().enumerate() {
            assert_eq!(ev.seq, 12 + i as u64);
            assert_eq!(ev.tick, 12 + i as u64);
        }
    }

    #[test]
    fn no_drops_until_the_ring_is_full() {
        let t = Tracer::bounded(8);
        for i in 0..8u32 {
            t.emit_cpu(u64::from(i), CgroupId(1), cpu_step(i, i + 1));
        }
        assert_eq!(t.dropped_events(), 0);
        t.emit_cpu(8, CgroupId(1), cpu_step(8, 9));
        assert_eq!(t.dropped_events(), 1);
        assert_eq!(t.events().len(), 8);
        assert_eq!(t.events()[0].seq, 1, "seq 0 was the one dropped");
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(Tracer::bounded(5).capacity(), 8);
        assert_eq!(Tracer::bounded(0).capacity(), 2);
        assert_eq!(Tracer::bounded(64).capacity(), 64);
    }

    #[test]
    fn timeline_filters_by_container_and_explain_takes_last() {
        let t = Tracer::bounded(32);
        t.emit_cpu(1, CgroupId(1), cpu_step(2, 3));
        t.emit_cpu(1, CgroupId(2), cpu_step(4, 5));
        t.emit_cpu(2, CgroupId(1), cpu_step(3, 4));
        t.emit_mem(
            3,
            CgroupId(1),
            MemDecision {
                cause: DecisionCause::MemPressureGrowth,
                before: Bytes(100),
                after: Bytes(190),
                usage: Bytes(95),
                free: Bytes(10_000),
            },
        );
        t.emit_pipeline(4, Some(CgroupId(1)), PipelineEvent::Resynced);

        let tl = t.timeline(CgroupId(1));
        assert_eq!(tl.len(), 4);
        assert!(tl.windows(2).all(|w| w[0].seq < w[1].seq));

        let ex = t.explain(CgroupId(1));
        match ex.cpu.expect("cpu decision").kind {
            EventKind::Cpu(d) => assert_eq!((d.before, d.after), (3, 4)),
            other => panic!("wrong kind: {other:?}"),
        }
        match ex.mem.expect("mem decision").kind {
            EventKind::Mem(d) => assert_eq!(d.after, Bytes(190)),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn concurrent_writers_never_corrupt_the_ring() {
        let t = Tracer::bounded(64);
        let mut handles = Vec::new();
        for w in 0..4u32 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    t.emit_cpu(u64::from(i), CgroupId(w), cpu_step(i % 7, i % 7 + 1));
                }
            }));
        }
        let reader = {
            let t = t.clone();
            std::thread::spawn(move || {
                let mut max_seen = 0usize;
                for _ in 0..200 {
                    let evs = t.events();
                    assert!(evs.len() <= 64);
                    // Decoded events are internally consistent.
                    for ev in &evs {
                        match ev.kind {
                            EventKind::Cpu(d) => assert_eq!(d.after, d.before + 1),
                            other => panic!("unexpected kind: {other:?}"),
                        }
                    }
                    max_seen = max_seen.max(evs.len());
                }
                max_seen
            })
        };
        for h in handles {
            h.join().expect("writer");
        }
        reader.join().expect("reader");
        assert_eq!(t.emitted(), 2000);
        assert_eq!(t.dropped_events(), 2000 - 64);
        assert_eq!(t.events().len(), 64);
    }

    #[test]
    fn render_timeline_and_explain_are_stable() {
        let t = Tracer::bounded(16);
        t.emit_cpu(1, CgroupId(9), cpu_step(2, 3));
        let tl = t.render_timeline(CgroupId(9));
        assert!(tl.contains("c9 cpu 2 -> 3"));
        assert!(tl.contains("cpu-saturated+slack"));
        let ex = t.render_explain(CgroupId(9));
        assert!(ex.starts_with("cpu: "));
        assert!(ex.contains("mem: no decision traced"));
        assert!(t.render_timeline(CgroupId(4)).contains("no trace events"));
    }

    #[test]
    fn prom_help_text_is_escaped() {
        let mut p = PromText::new();
        p.header("arv_x", "line one\nline two \\ backslash", "counter");
        let body = p.finish();
        assert!(body.contains("# HELP arv_x line one\\nline two \\\\ backslash\n"));
        assert!(!body.contains("# HELP arv_x line one\nline"));
    }

    #[test]
    fn counter_and_gauge_builders_emit_header_and_sample() {
        let mut p = PromText::new();
        p.counter("arv_things", "Things counted", 3.0);
        p.gauge("arv_level", "Current level", 7.5);
        let body = p.finish();
        assert!(body.contains("# HELP arv_things Things counted\n"));
        assert!(body.contains("# TYPE arv_things counter\n"));
        assert!(body.contains("arv_things_total 3\n"));
        assert!(body.contains("# TYPE arv_level gauge\n"));
        assert!(body.contains("arv_level 7.5\n"));
    }

    #[test]
    fn lag_histogram_buckets_sum_and_max() {
        let mut h = LagHistogram::default();
        for lag in [0, 1, 2, 3, 9, 100] {
            h.observe(lag);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.sum(), 115);
        assert_eq!(h.max_lag(), 100);
        // 0 and 1 land in le=1; 2 in le=2; 3 in le=4; 9 in le=16;
        // 100 overflows to +Inf.
        assert_eq!(h.buckets(), [2, 1, 1, 0, 1, 0, 1]);

        let mut p = PromText::new();
        h.expose(&mut p, "arv_lag", &[("host", "3".to_string())]);
        let body = p.finish();
        assert!(body.contains("arv_lag_bucket{host=\"3\",le=\"1\"} 2\n"));
        assert!(body.contains("arv_lag_bucket{host=\"3\",le=\"+Inf\"} 6\n"));
        assert!(body.contains("arv_lag_sum{host=\"3\"} 115\n"));
        assert!(body.contains("arv_lag_count{host=\"3\"} 6\n"));
    }

    fn sample_dump() -> FlightDump {
        let t = Tracer::bounded(16);
        t.emit_cpu(7, CgroupId(3), cpu_step(2, 3));
        t.emit_mem(
            8,
            CgroupId(3),
            MemDecision {
                cause: DecisionCause::MemReclaimReset,
                before: Bytes(1000),
                after: Bytes(600),
                usage: Bytes(950),
                free: Bytes(50),
            },
        );
        t.emit_pipeline(9, None, PipelineEvent::FleetGapResync);
        let rec = FlightRecorder::bounded(4);
        rec.record(
            9,
            PipelineEvent::FleetGapResync,
            &t,
            &[("deltas_ingested", 12), ("full_syncs", 2)],
        );
        rec.latest().expect("dump frozen")
    }

    #[test]
    fn flight_dump_round_trips_and_renders() {
        let dump = sample_dump();
        assert_eq!(dump.seq, 0);
        assert_eq!(dump.trigger, PipelineEvent::FleetGapResync);
        assert_eq!(dump.events.len(), 3);
        let bytes = dump.encode();
        let back = FlightDump::decode(&bytes).expect("decodes");
        assert_eq!(back, dump);
        let text = dump.render();
        assert!(text.contains("trigger: fleet-gap-resync"));
        assert!(text.contains("deltas_ingested 12"));
        assert!(text.contains("fleet-gap-resync"));
    }

    #[test]
    fn flight_dump_rejects_truncation_and_corruption() {
        let bytes = sample_dump().encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                FlightDump::decode(&bytes[..cut]),
                None,
                "torn dump at {cut} must not decode"
            );
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert_eq!(
                FlightDump::decode(&bad),
                None,
                "bit flip at {i} must fail the CRC"
            );
        }
    }

    #[test]
    fn flight_recorder_bounds_and_orders_dumps() {
        let t = Tracer::bounded(8);
        let rec = FlightRecorder::bounded(2);
        assert!(rec.is_empty());
        for i in 0..5u64 {
            rec.record(i, PipelineEvent::FleetPartitioned, &t, &[]);
        }
        assert_eq!(rec.dumps_frozen(), 5);
        assert_eq!(rec.len(), 2, "only the newest max_dumps retained");
        assert_eq!(rec.latest().expect("latest").seq, 4);
        assert_eq!(rec.get(1).expect("one back").seq, 3);
        assert_eq!(rec.get(2), None);
    }

    #[test]
    fn disabled_flight_recorder_is_inert() {
        let rec = FlightRecorder::disabled();
        rec.record(
            1,
            PipelineEvent::FleetFenced,
            &Tracer::bounded(4),
            &[("x", 1)],
        );
        assert!(!rec.is_enabled());
        assert_eq!(rec.dumps_frozen(), 0);
        assert_eq!(rec.latest(), None);
    }

    #[test]
    fn identical_rings_freeze_identical_dump_bytes() {
        let make = || {
            let t = Tracer::bounded(8);
            t.emit_pipeline(3, None, PipelineEvent::FleetFenced);
            t.emit_pipeline(5, None, PipelineEvent::FleetPromoted);
            let rec = FlightRecorder::bounded(2);
            rec.record(5, PipelineEvent::FleetPromoted, &t, &[("promotions", 1)]);
            rec.latest().expect("dump").encode()
        };
        assert_eq!(make(), make(), "replay must be bit-identical");
    }

    #[test]
    fn retired_trace_codes_fail_closed() {
        // Every cause and every event round-trips its code, and no two
        // events share a label.
        for &(cause, code, label) in CAUSES {
            assert_eq!((cause.code(), cause.label()), (code, label));
            assert_eq!(DecisionCause::from_code(code), Some(cause));
        }
        let mut labels = std::collections::HashSet::new();
        for &(ev, code, label) in PIPELINE_EVENTS {
            assert_eq!((ev.code(), ev.label()), (code, label));
            assert_eq!(PipelineEvent::from_code(code), Some(ev));
            assert!(labels.insert(label), "{label} names two events");
        }

        // Code 0, the retired codes (fleet failover 9, fleet coalesced
        // 12) and the first code past the table name no event.
        let unassigned = PIPELINE_EVENTS.iter().map(|row| row.1).max().unwrap_or(0) + 1;
        let unnamed = [0, 9, 12, unassigned];
        for code in unnamed {
            assert_eq!(PipelineEvent::from_code(code), None, "code {code}");
        }

        // A well-sealed dump carrying one of them, as an event or as its
        // trigger, is rejected whole.
        let seal = |mut body: Vec<u8>| {
            let crc = arv_persist::crc32::checksum(&body);
            body.extend_from_slice(&crc.to_le_bytes());
            body
        };
        let bytes = sample_dump().encode();
        let body = bytes[..bytes.len() - 4].to_vec();
        // seq, tick, trigger byte, event count, then 56-byte events; the
        // third event is the pipeline one and its code is byte 5 of its
        // meta word (the event's third u64).
        let (trigger_at, code_at) = (16, 21 + 2 * 56 + 16 + 5);
        assert_eq!(body[trigger_at], PipelineEvent::FleetGapResync.code());
        assert_eq!(body[code_at], PipelineEvent::FleetGapResync.code());
        assert_eq!(FlightDump::decode(&seal(body.clone())), Some(sample_dump()));
        for code in unnamed {
            for at in [trigger_at, code_at] {
                let mut bad = body.clone();
                bad[at] = code;
                assert_eq!(FlightDump::decode(&seal(bad)), None, "code {code} at {at}");
            }
        }
    }

    #[test]
    fn prom_text_formats_headers_labels_and_values() {
        let mut p = PromText::new();
        p.header("arv_queries_total", "Total queries.", "counter");
        p.sample("arv_queries_total", 42.0);
        p.labeled("arv_effective_cpus", &[("container", "3".to_string())], 4.0);
        p.sample("arv_hit_latency_ns", 123.5);
        let body = p.finish();
        assert!(body.contains("# HELP arv_queries_total Total queries.\n"));
        assert!(body.contains("# TYPE arv_queries_total counter\n"));
        assert!(body.contains("arv_queries_total 42\n"));
        assert!(body.contains("arv_effective_cpus{container=\"3\"} 4\n"));
        assert!(body.contains("arv_hit_latency_ns 123.5\n"));
    }

    impl LagHistogram {
        /// Raw per-bucket counts, one per bound plus the `+Inf` bucket.
        fn buckets(&self) -> [u64; LAG_BOUNDS.len() + 1] {
            self.counts
        }
    }

    impl FlightDump {
        /// Human-readable rendering: a header line, the counter snapshot,
        /// then the frozen event timeline.
        fn render(&self) -> String {
            let mut out = format!(
                "# flight dump {} at tick {} (trigger: {}, {} events)\n",
                self.seq,
                self.tick,
                self.trigger.label(),
                self.events.len()
            );
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name} {value}");
            }
            for ev in &self.events {
                out.push_str(&ev.render());
                out.push('\n');
            }
            out
        }
    }

    impl FlightRecorder {
        /// Dumps currently retained.
        fn len(&self) -> usize {
            self.lock().map_or(0, |st| st.dumps.len())
        }

        /// Whether no dump is retained.
        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }
}
