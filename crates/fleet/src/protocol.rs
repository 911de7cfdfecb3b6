//! The fleet delta protocol: frame layouts for the core↔periphery wire.
//!
//! Frames ride the same `u32le len | payload` framing as the viewd wire
//! (the shared [`arv_viewd::codec`]). The payload's first byte is an
//! opcode; everything after it is little-endian fixed-width fields:
//!
//! ```text
//! HELLO  := 0x10 | host u32 | tick u64 | containers u32 | epoch u64
//! DELTA  := 0x11 | host u32 | seq u64 | tick u64 | flags u8 | health u8
//!           | staleness_age u64 | epoch u64 | origin_tick u64
//!           | trace_seq u64 | summary (7 × u64)
//!           | n u32 | n × entry | m u32 | m × removed-id u32
//!   entry := id u32 | tenant u32 | e_cpu u32 | e_mem u64 | e_avail u64
//!           | last_tick u64
//!   flags bit0 = FULL (snapshot replacing all host state)
//!   health bit7 = DURABILITY_LOST (the host's journal is on the
//!   degraded rung of its durability ladder; orthogonal to the
//!   staleness code in bits 0–6)
//!   origin_tick / trace_seq = the causal span stamp: the host tick at
//!   which the oldest coalesced diff in this batch was observed, and a
//!   monotone per-periphery trace sequence; summary = the periphery's
//!   own counters piggybacked so one controller scrape exposes the
//!   whole fleet (see `HostSummary`)
//! POLICY := 0x12 | epoch u64 | staleness_budget u64 | max_batch u32
//!           | rate_burst u32
//! QUERY  := 0x13 | kind u8 | arg u32
//!   kind 0 = cluster capacity, 1 = tenant rollup (arg = tenant),
//!   kind 2 = top-k pressured containers (arg = k),
//!   kind 3 = Prometheus stats exposition (arg ignored),
//!   kind 4 = flight-recorder dump (arg = dumps back from newest)
//! REPL   := 0x14 | ctl_epoch u64 | repl_seq u64 | as_of_tick u64
//!           | h u32 | h × heard-host u32 | records
//!   heard = the hosts the primary accepted a DELTA from since its
//!   previous frame (their freshness: a quiet host leaves no record);
//!   records = zero or more CRC-framed `arv_persist` journal records
//!   (checkpoint / delta / remove), exactly the bytes the primary's
//!   journal appended; the standby validates each record's CRC on
//!   apply; as_of_tick = the primary's controller tick at drain time,
//!   so a standby can gauge how far its shadow index trails
//! ACK    := 0x20 | host u32 | expected_seq u64 | ctl_epoch u64
//!           | flags u8 [| POLICY body when bit1 set]
//!   flags bit0 = resync required (next DELTA must be FULL),
//!   flags bit1 = policy block attached,
//!   flags bit2 = sender is not the lease holder (try another
//!   controller); peripheries fence ACKs whose ctl_epoch is below the
//!   highest they have seen
//! ROLLUP := 0x21 | ctl_epoch u64 | as_of_tick u64 | origin_min u64
//!           | trace_max u64 | kind u8 | status u8 | body
//!   status reuses the viewd wire codes: 0 = fresh, 2 = degraded
//!   (at least one host is partitioned and served last-good); readers
//!   fence rollups from epochs below the highest observed; the span
//!   stamp (as_of_tick, origin_min, trace_max) traces the answer back
//!   to the oldest host tick contributing to it
//! ```
//!
//! Every decode path is bounds-checked and returns `Option` — arbitrary
//! truncation or corruption must never panic the controller (the same
//! contract the viewd wire fuzz enforces).

use arv_viewd::{STATUS_OK, STATUS_OK_DEGRADED};

/// Opcode: periphery introduces itself (and learns the current policy).
pub const OP_HELLO: u8 = 0x10;
/// Opcode: a batch of view deltas from one periphery.
pub const OP_DELTA: u8 = 0x11;
/// Opcode: a standalone policy push.
pub const OP_POLICY: u8 = 0x12;
/// Opcode: a cross-host rollup query.
pub const OP_QUERY: u8 = 0x13;
/// Opcode: primary→standby replication of accepted journal records.
pub const OP_REPL: u8 = 0x14;
/// Opcode: controller's answer to HELLO/DELTA.
pub const OP_ACK: u8 = 0x20;
/// Opcode: controller's answer to QUERY.
pub const OP_ROLLUP: u8 = 0x21;

/// Query kind: cluster-wide effective capacity.
pub const QUERY_CLUSTER: u8 = 0;
/// Query kind: one tenant's rollup.
pub const QUERY_TENANT: u8 = 1;
/// Query kind: top-k pressured containers.
pub const QUERY_TOPK: u8 = 2;
/// Query kind: Prometheus text exposition of the fleet counters.
pub const QUERY_STATS: u8 = 3;
/// Query kind: retrieve a frozen flight-recorder dump (`arg` = how
/// many dumps back from the newest; 0 = newest).
pub const QUERY_FLIGHT: u8 = 4;

/// DELTA flag: the batch is a full snapshot replacing all host state.
pub const DELTA_FULL: u8 = 1;
/// ACK flag: controller lost sequence; the next DELTA must be FULL.
pub const ACK_RESYNC: u8 = 1;
/// ACK flag: a policy block follows the header.
pub const ACK_POLICY: u8 = 2;
/// ACK flag: the sender is not the current lease holder — the
/// periphery should walk its controller list.
pub const ACK_NOT_LEADER: u8 = 4;

/// Sentinel `Ack.host` used when a standby acknowledges a REPL frame:
/// `expected_seq` is then the next replication sequence, not a delta
/// sequence. Real hosts never use this id.
pub const REPL_PEER: u32 = u32::MAX;

/// Largest accepted fleet frame. A full batch at the default
/// [`FleetPolicy::max_batch`] is ~9 KiB; REPL frames carrying a
/// compacted checkpoint of a large index need far more headroom. The
/// cap still bounds what a corrupt length prefix can allocate.
pub const MAX_FLEET_FRAME: u32 = 1024 * 1024;

/// Host-level health byte carried in DELTA: monitor healthy.
pub const HEALTH_FRESH: u8 = 0;
/// Host-level health byte: view age within budget but monitor behind.
pub const HEALTH_STALE: u8 = 1;
/// Host-level health byte: host serving conservative fallbacks.
pub const HEALTH_DEGRADED: u8 = 2;
/// Health-byte flag (bit 7): the host's journal lost durability (a
/// store error it has not yet healed with a clean checkpoint).
/// Orthogonal to the staleness code carried in the low bits — a host
/// can be Fresh yet non-durable.
pub const HEALTH_DURABILITY_LOST: u8 = 0x80;

/// Bytes of one encoded delta entry.
const ENTRY_BYTES: usize = 4 + 4 + 4 + 8 + 8 + 8;
/// Bytes of a DELTA payload around its entries and removals: opcode,
/// host, seq, tick, flags, health, four span/epoch words, the seven
/// summary counters, and the two counts.
const DELTA_FIXED_BYTES: usize = 1 + 4 + 8 + 8 + 1 + 1 + 4 * 8 + 7 * 8 + 4 + 4;

/// The policy a controller pushes down to every periphery: the fleet
/// analogue of the per-host staleness budget and the `ServerConfig`
/// admission fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetPolicy {
    /// Monotone policy generation; peripheries adopt strictly newer.
    pub epoch: u64,
    /// Controller-side staleness budget, in controller ticks: a host
    /// with no accepted delta for longer is flagged partitioned and its
    /// contribution served last-good, degraded.
    pub staleness_budget: u64,
    /// Max delta entries per DELTA frame (peripheries chunk above it).
    pub max_batch: u32,
    /// Advisory periphery send burst (`ServerConfig::rate_burst` analogue).
    pub rate_burst: u32,
}

impl Default for FleetPolicy {
    fn default() -> FleetPolicy {
        FleetPolicy {
            epoch: 0,
            staleness_budget: 3,
            max_batch: 256,
            rate_burst: 1 << 12,
        }
    }
}

/// One container's view state as carried in a DELTA frame: the
/// persisted [`arv_persist::ViewState`] fields plus the owning tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaEntry {
    /// Container (cgroup) id on the source host.
    pub id: u32,
    /// Owning tenant, for per-tenant rollups.
    pub tenant: u32,
    /// Effective CPU count.
    pub e_cpu: u32,
    /// Effective memory limit, bytes.
    pub e_mem: u64,
    /// Available memory as seen by the container, bytes.
    pub e_avail: u64,
    /// Host update-timer tick of the last view refresh.
    pub last_tick: u64,
}

/// A decoded HELLO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Sending host.
    pub host: u32,
    /// Host update-timer tick at send time.
    pub tick: u64,
    /// Containers currently live on the host.
    pub containers: u32,
    /// Newest policy epoch the periphery has adopted.
    pub epoch: u64,
}

/// The periphery's own counters, piggybacked on every DELTA frame so a
/// single controller scrape exposes per-host agent health for the
/// whole fleet without touching any host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostSummary {
    /// DELTA frames the periphery has queued so far.
    pub frames: u64,
    /// Delta entries shipped across all frames.
    pub entries: u64,
    /// FULL snapshots sent.
    pub full_syncs: u64,
    /// Controller-requested resyncs honoured.
    pub resyncs: u64,
    /// Observations coalesced because the token bucket ran dry.
    pub deltas_coalesced: u64,
    /// ACKs fenced for carrying a stale controller epoch.
    pub acks_fenced: u64,
    /// Journal store errors the host has absorbed (durability ladder).
    pub journal_io_errors: u64,
}

/// A decoded DELTA batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Sending host.
    pub host: u32,
    /// Per-host frame sequence number (gap ⇒ resync).
    pub seq: u64,
    /// Host update-timer tick the batch was taken at (the flush tick).
    pub tick: u64,
    /// Whether this batch is a full snapshot (replaces all host state).
    pub full: bool,
    /// Host-level health (`HEALTH_*`, low bits only — the durability
    /// flag is split out into [`Delta::durability_lost`]).
    pub health: u8,
    /// Whether the host's journal has lost durability (health byte bit
    /// 7 on the wire).
    pub durability_lost: bool,
    /// Host view age in ticks behind its update timer.
    pub staleness_age: u64,
    /// Newest policy epoch the periphery has adopted.
    pub epoch: u64,
    /// Causal span stamp: the host tick at which the oldest diff in
    /// this batch was observed. With coalescing, `tick − origin_tick`
    /// is the flush delay the token bucket imposed.
    pub origin_tick: u64,
    /// Causal span stamp: monotone per-periphery trace sequence,
    /// incremented on every frame and never reset by resync logic.
    pub trace_seq: u64,
    /// The periphery's piggybacked counter summary.
    pub summary: HostSummary,
    /// Changed/new container states.
    pub entries: Vec<DeltaEntry>,
    /// Containers removed since the last batch.
    pub removed: Vec<u32>,
}

/// A decoded ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Host the ACK addresses ([`REPL_PEER`] for replication ACKs).
    pub host: u32,
    /// Next DELTA sequence the controller will accept in order (next
    /// REPL sequence for replication ACKs).
    pub expected_seq: u64,
    /// Controller epoch the sender holds; lower-than-seen is fenced.
    pub ctl_epoch: u64,
    /// Controller lost sequence: the next DELTA must be FULL.
    pub resync: bool,
    /// The sender does not hold the lease; walk the controller list.
    pub not_leader: bool,
    /// Policy push-down, attached when the periphery's epoch is stale.
    pub policy: Option<FleetPolicy>,
}

/// A decoded REPL batch: raw journal records streamed primary→standby.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repl {
    /// Controller epoch of the sending primary.
    pub ctl_epoch: u64,
    /// Sequence of this replication frame (gap ⇒ standby demands a
    /// fresh checkpoint).
    pub repl_seq: u64,
    /// The primary's controller tick when this frame was drained —
    /// the span stamp that lets a standby gauge its shadow-index lag.
    pub as_of_tick: u64,
    /// Hosts the primary heard from since its previous frame. A host
    /// whose views did not move leaves no record, so its freshness
    /// travels here and the standby's staleness clock follows the
    /// primary's.
    pub heard: Vec<u32>,
    /// CRC-framed `arv_persist` record bytes, zero or more records.
    pub records: Vec<u8>,
}

/// A decoded QUERY.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// `QUERY_*` kind.
    pub kind: u8,
    /// Tenant id or `k`, by kind.
    pub arg: u32,
}

/// Cluster-wide capacity rollup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterRollup {
    /// Sum of effective CPUs across all containers on all hosts.
    pub cpu: u64,
    /// Sum of effective memory, bytes.
    pub mem: u64,
    /// Sum of available memory, bytes.
    pub avail: u64,
    /// Hosts in the index.
    pub hosts: u32,
    /// Hosts currently flagged partitioned (served last-good).
    pub partitioned: u32,
    /// Containers in the index.
    pub containers: u64,
}

impl ClusterRollup {
    /// Whether any contribution is served last-good.
    pub fn degraded(&self) -> bool {
        self.partitioned > 0
    }
}

/// One tenant's rollup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantRollup {
    /// Sum of effective CPUs across the tenant's containers.
    pub cpu: u64,
    /// Sum of effective memory, bytes.
    pub mem: u64,
    /// Sum of available memory, bytes.
    pub avail: u64,
    /// The tenant's container count.
    pub containers: u64,
}

/// One entry of a top-k pressure answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressurePoint {
    /// Hosting host.
    pub host: u32,
    /// Container id on that host.
    pub id: u32,
    /// Memory pressure in milli-units: `1000 · (1 − e_avail/e_mem)`.
    pub pressure_milli: u32,
}

/// A decoded ROLLUP response.
#[derive(Debug, Clone, PartialEq)]
pub enum Rollup {
    /// Cluster capacity (`degraded` = served with partitioned hosts).
    Cluster {
        /// The rollup values.
        rollup: ClusterRollup,
        /// Whether any host contribution is last-good.
        degraded: bool,
    },
    /// One tenant's rollup.
    Tenant {
        /// The rollup values.
        rollup: TenantRollup,
        /// Whether any host contribution is last-good.
        degraded: bool,
    },
    /// Top-k pressured containers, most pressured first.
    TopK(Vec<PressurePoint>),
    /// Prometheus text exposition of the fleet counters.
    Stats(String),
    /// A frozen flight-recorder dump, encoded with
    /// [`arv_telemetry::FlightDump::encode`]. Empty bytes mean no dump
    /// exists at the requested position.
    Flight(Vec<u8>),
}

/// The causal span stamp a controller attaches to every ROLLUP answer:
/// enough to trace the value back to the oldest host tick that fed it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStamp {
    /// Controller tick when the answer was computed.
    pub as_of_tick: u64,
    /// Minimum origin tick across all hosts contributing to the answer
    /// — the oldest causally-linked host observation.
    pub origin_min: u64,
    /// Maximum periphery trace sequence ingested so far.
    pub trace_max: u64,
}

impl SpanStamp {
    /// Worst-case end-to-end lag this answer embodies: how many
    /// controller ticks behind the freshest data its oldest
    /// contribution is.
    pub fn max_lag(&self) -> u64 {
        self.as_of_tick.saturating_sub(self.origin_min)
    }
}

/// A ROLLUP answer stamped with the answering controller's epoch, so
/// readers can fence answers from deposed primaries.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupFrame {
    /// Controller epoch of the answering controller.
    pub ctl_epoch: u64,
    /// Causal span stamp tracing the answer to its oldest host tick.
    pub span: SpanStamp,
    /// The rollup body.
    pub body: Rollup,
}

/// Any decoded fleet frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A periphery introduction.
    Hello(Hello),
    /// A delta batch.
    Delta(Delta),
    /// A standalone policy push.
    Policy(FleetPolicy),
    /// A rollup query.
    Query(Query),
    /// A replication batch.
    Repl(Repl),
    /// A controller ACK.
    Ack(Ack),
    /// A controller rollup answer.
    Rollup(RollupFrame),
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_policy(out: &mut Vec<u8>, p: &FleetPolicy) {
    put_u64(out, p.epoch);
    put_u64(out, p.staleness_budget);
    put_u32(out, p.max_batch);
    put_u32(out, p.rate_burst);
}

/// Encode a HELLO payload.
pub fn encode_hello(h: &Hello) -> Vec<u8> {
    let mut out = Vec::with_capacity(25);
    out.push(OP_HELLO);
    put_u32(&mut out, h.host);
    put_u64(&mut out, h.tick);
    put_u32(&mut out, h.containers);
    put_u64(&mut out, h.epoch);
    out
}

/// Encode a DELTA payload.
pub fn encode_delta(d: &Delta) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(DELTA_FIXED_BYTES + d.entries.len() * ENTRY_BYTES + d.removed.len() * 4);
    out.push(OP_DELTA);
    put_u32(&mut out, d.host);
    put_u64(&mut out, d.seq);
    put_u64(&mut out, d.tick);
    out.push(if d.full { DELTA_FULL } else { 0 });
    out.push(
        d.health
            | if d.durability_lost {
                HEALTH_DURABILITY_LOST
            } else {
                0
            },
    );
    put_u64(&mut out, d.staleness_age);
    put_u64(&mut out, d.epoch);
    put_u64(&mut out, d.origin_tick);
    put_u64(&mut out, d.trace_seq);
    put_u64(&mut out, d.summary.frames);
    put_u64(&mut out, d.summary.entries);
    put_u64(&mut out, d.summary.full_syncs);
    put_u64(&mut out, d.summary.resyncs);
    put_u64(&mut out, d.summary.deltas_coalesced);
    put_u64(&mut out, d.summary.acks_fenced);
    put_u64(&mut out, d.summary.journal_io_errors);
    put_u32(&mut out, d.entries.len() as u32);
    for e in &d.entries {
        put_u32(&mut out, e.id);
        put_u32(&mut out, e.tenant);
        put_u32(&mut out, e.e_cpu);
        put_u64(&mut out, e.e_mem);
        put_u64(&mut out, e.e_avail);
        put_u64(&mut out, e.last_tick);
    }
    put_u32(&mut out, d.removed.len() as u32);
    for id in &d.removed {
        put_u32(&mut out, *id);
    }
    out
}

/// Encode a standalone POLICY payload.
pub fn encode_policy(p: &FleetPolicy) -> Vec<u8> {
    let mut out = Vec::with_capacity(25);
    out.push(OP_POLICY);
    put_policy(&mut out, p);
    out
}

/// Encode a QUERY payload.
pub fn encode_query(q: &Query) -> Vec<u8> {
    let mut out = Vec::with_capacity(6);
    out.push(OP_QUERY);
    out.push(q.kind);
    put_u32(&mut out, q.arg);
    out
}

/// Encode a REPL frame from borrowed parts: the primary frames a slice of
/// its outbox without first copying it into a [`Repl`].
pub(crate) fn encode_repl_parts(
    ctl_epoch: u64,
    repl_seq: u64,
    as_of_tick: u64,
    heard: &[u32],
    records: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(29 + 4 * heard.len() + records.len());
    out.push(OP_REPL);
    put_u64(&mut out, ctl_epoch);
    put_u64(&mut out, repl_seq);
    put_u64(&mut out, as_of_tick);
    put_u32(&mut out, heard.len() as u32);
    for host in heard {
        put_u32(&mut out, *host);
    }
    out.extend_from_slice(records);
    out
}

/// Encode an ACK payload.
pub fn encode_ack(a: &Ack) -> Vec<u8> {
    let mut out = Vec::with_capacity(22 + 24);
    out.push(OP_ACK);
    put_u32(&mut out, a.host);
    put_u64(&mut out, a.expected_seq);
    put_u64(&mut out, a.ctl_epoch);
    let mut flags = 0u8;
    if a.resync {
        flags |= ACK_RESYNC;
    }
    if a.policy.is_some() {
        flags |= ACK_POLICY;
    }
    if a.not_leader {
        flags |= ACK_NOT_LEADER;
    }
    out.push(flags);
    if let Some(p) = &a.policy {
        put_policy(&mut out, p);
    }
    out
}

/// Encode a ROLLUP payload.
pub fn encode_rollup(r: &RollupFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    out.push(OP_ROLLUP);
    put_u64(&mut out, r.ctl_epoch);
    put_u64(&mut out, r.span.as_of_tick);
    put_u64(&mut out, r.span.origin_min);
    put_u64(&mut out, r.span.trace_max);
    match &r.body {
        Rollup::Cluster { rollup, degraded } => {
            out.push(QUERY_CLUSTER);
            out.push(if *degraded {
                STATUS_OK_DEGRADED
            } else {
                STATUS_OK
            });
            put_u64(&mut out, rollup.cpu);
            put_u64(&mut out, rollup.mem);
            put_u64(&mut out, rollup.avail);
            put_u32(&mut out, rollup.hosts);
            put_u32(&mut out, rollup.partitioned);
            put_u64(&mut out, rollup.containers);
        }
        Rollup::Tenant { rollup, degraded } => {
            out.push(QUERY_TENANT);
            out.push(if *degraded {
                STATUS_OK_DEGRADED
            } else {
                STATUS_OK
            });
            put_u64(&mut out, rollup.cpu);
            put_u64(&mut out, rollup.mem);
            put_u64(&mut out, rollup.avail);
            put_u64(&mut out, rollup.containers);
        }
        Rollup::TopK(points) => {
            out.push(QUERY_TOPK);
            out.push(STATUS_OK);
            put_u32(&mut out, points.len() as u32);
            for p in points {
                put_u32(&mut out, p.host);
                put_u32(&mut out, p.id);
                put_u32(&mut out, p.pressure_milli);
            }
        }
        Rollup::Stats(text) => {
            out.push(QUERY_STATS);
            out.push(STATUS_OK);
            out.extend_from_slice(text.as_bytes());
        }
        Rollup::Flight(dump) => {
            out.push(QUERY_FLIGHT);
            out.push(STATUS_OK);
            out.extend_from_slice(dump);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Decoding — bounds-checked, never panics
// ---------------------------------------------------------------------

struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Cur<'a> {
        Cur { b, i: 0 }
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.i
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.b.get(self.i)?;
        self.i += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let s = self.b.get(self.i..self.i + 4)?;
        self.i += 4;
        let mut buf = [0u8; 4];
        buf.copy_from_slice(s);
        Some(u32::from_le_bytes(buf))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.b.get(self.i..self.i + 8)?;
        self.i += 8;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(s);
        Some(u64::from_le_bytes(buf))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.b[self.i..];
        self.i = self.b.len();
        s
    }

    /// The payload must end exactly where parsing did — trailing bytes
    /// mean the frame is not what its opcode claims.
    fn done(self) -> bool {
        self.i == self.b.len()
    }
}

fn get_policy(c: &mut Cur) -> Option<FleetPolicy> {
    Some(FleetPolicy {
        epoch: c.u64()?,
        staleness_budget: c.u64()?,
        max_batch: c.u32()?,
        rate_burst: c.u32()?,
    })
}

fn decode_delta(c: &mut Cur) -> Option<Delta> {
    let host = c.u32()?;
    let seq = c.u64()?;
    let tick = c.u64()?;
    let flags = c.u8()?;
    let raw_health = c.u8()?;
    let durability_lost = raw_health & HEALTH_DURABILITY_LOST != 0;
    let health = raw_health & !HEALTH_DURABILITY_LOST;
    if health > HEALTH_DEGRADED {
        return None;
    }
    let staleness_age = c.u64()?;
    let epoch = c.u64()?;
    let origin_tick = c.u64()?;
    let trace_seq = c.u64()?;
    let summary = HostSummary {
        frames: c.u64()?,
        entries: c.u64()?,
        full_syncs: c.u64()?,
        resyncs: c.u64()?,
        deltas_coalesced: c.u64()?,
        acks_fenced: c.u64()?,
        journal_io_errors: c.u64()?,
    };
    let n = c.u32()? as usize;
    // A claimed count larger than the bytes present is corruption; the
    // check also bounds the allocation below.
    if n > c.remaining() / ENTRY_BYTES {
        return None;
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(DeltaEntry {
            id: c.u32()?,
            tenant: c.u32()?,
            e_cpu: c.u32()?,
            e_mem: c.u64()?,
            e_avail: c.u64()?,
            last_tick: c.u64()?,
        });
    }
    let m = c.u32()? as usize;
    if m > c.remaining() / 4 {
        return None;
    }
    let mut removed = Vec::with_capacity(m);
    for _ in 0..m {
        removed.push(c.u32()?);
    }
    Some(Delta {
        host,
        seq,
        tick,
        full: flags & DELTA_FULL != 0,
        health,
        durability_lost,
        staleness_age,
        epoch,
        origin_tick,
        trace_seq,
        summary,
        entries,
        removed,
    })
}

fn decode_rollup(c: &mut Cur<'_>) -> Option<Rollup> {
    let kind = c.u8()?;
    let status = c.u8()?;
    if status != STATUS_OK && status != STATUS_OK_DEGRADED {
        return None;
    }
    let degraded = status == STATUS_OK_DEGRADED;
    match kind {
        QUERY_CLUSTER => Some(Rollup::Cluster {
            rollup: ClusterRollup {
                cpu: c.u64()?,
                mem: c.u64()?,
                avail: c.u64()?,
                hosts: c.u32()?,
                partitioned: c.u32()?,
                containers: c.u64()?,
            },
            degraded,
        }),
        QUERY_TENANT => Some(Rollup::Tenant {
            rollup: TenantRollup {
                cpu: c.u64()?,
                mem: c.u64()?,
                avail: c.u64()?,
                containers: c.u64()?,
            },
            degraded,
        }),
        QUERY_TOPK => {
            let n = c.u32()? as usize;
            if n > c.remaining() / 12 {
                return None;
            }
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                points.push(PressurePoint {
                    host: c.u32()?,
                    id: c.u32()?,
                    pressure_milli: c.u32()?,
                });
            }
            Some(Rollup::TopK(points))
        }
        QUERY_STATS => {
            let text = String::from_utf8(c.rest().to_vec()).ok()?;
            Some(Rollup::Stats(text))
        }
        QUERY_FLIGHT => Some(Rollup::Flight(c.rest().to_vec())),
        _ => None,
    }
}

/// Decode any fleet frame payload. `None` for anything malformed —
/// unknown opcode, short fields, impossible counts, trailing bytes.
/// Never panics, for any input bytes.
pub fn decode_frame(payload: &[u8]) -> Option<Frame> {
    let mut c = Cur::new(payload);
    let frame = match c.u8()? {
        OP_HELLO => Frame::Hello(Hello {
            host: c.u32()?,
            tick: c.u64()?,
            containers: c.u32()?,
            epoch: c.u64()?,
        }),
        OP_DELTA => Frame::Delta(decode_delta(&mut c)?),
        OP_POLICY => Frame::Policy(get_policy(&mut c)?),
        OP_QUERY => {
            let kind = c.u8()?;
            if kind > QUERY_FLIGHT {
                return None;
            }
            Frame::Query(Query {
                kind,
                arg: c.u32()?,
            })
        }
        OP_REPL => {
            let (ctl_epoch, repl_seq, as_of_tick) = (c.u64()?, c.u64()?, c.u64()?);
            let heard = (0..c.u32()?)
                .map(|_| c.u32())
                .collect::<Option<Vec<u32>>>()?;
            Frame::Repl(Repl {
                ctl_epoch,
                repl_seq,
                as_of_tick,
                heard,
                records: c.rest().to_vec(),
            })
        }
        OP_ACK => {
            let host = c.u32()?;
            let expected_seq = c.u64()?;
            let ctl_epoch = c.u64()?;
            let flags = c.u8()?;
            if flags & !(ACK_RESYNC | ACK_POLICY | ACK_NOT_LEADER) != 0 {
                return None;
            }
            let policy = if flags & ACK_POLICY != 0 {
                Some(get_policy(&mut c)?)
            } else {
                None
            };
            Frame::Ack(Ack {
                host,
                expected_seq,
                ctl_epoch,
                resync: flags & ACK_RESYNC != 0,
                not_leader: flags & ACK_NOT_LEADER != 0,
                policy,
            })
        }
        OP_ROLLUP => {
            let ctl_epoch = c.u64()?;
            let span = SpanStamp {
                as_of_tick: c.u64()?,
                origin_min: c.u64()?,
                trace_max: c.u64()?,
            };
            Frame::Rollup(RollupFrame {
                ctl_epoch,
                span,
                body: decode_rollup(&mut c)?,
            })
        }
        _ => return None,
    };
    if c.done() {
        Some(frame)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_delta() -> Delta {
        Delta {
            host: 7,
            seq: 42,
            tick: 1000,
            full: false,
            health: HEALTH_STALE,
            durability_lost: true,
            staleness_age: 2,
            epoch: 3,
            origin_tick: 997,
            trace_seq: 58,
            summary: HostSummary {
                frames: 58,
                entries: 120,
                full_syncs: 2,
                resyncs: 1,
                deltas_coalesced: 7,
                acks_fenced: 0,
                journal_io_errors: 3,
            },
            entries: vec![
                DeltaEntry {
                    id: 1,
                    tenant: 10,
                    e_cpu: 4,
                    e_mem: 1 << 30,
                    e_avail: 1 << 29,
                    last_tick: 999,
                },
                DeltaEntry {
                    id: 2,
                    tenant: 11,
                    e_cpu: 2,
                    e_mem: 1 << 28,
                    e_avail: 1 << 20,
                    last_tick: 1000,
                },
            ],
            removed: vec![3, 9],
        }
    }

    #[test]
    fn round_trips() {
        let hello = Hello {
            host: 3,
            tick: 17,
            containers: 5,
            epoch: 0,
        };
        assert_eq!(
            decode_frame(&encode_hello(&hello)),
            Some(Frame::Hello(hello))
        );

        let delta = sample_delta();
        let encoded = encode_delta(&delta);
        assert_eq!(
            encoded.len(),
            DELTA_FIXED_BYTES + 2 * ENTRY_BYTES + 2 * 4,
            "the size hint is the size"
        );
        assert_eq!(decode_frame(&encoded), Some(Frame::Delta(delta)));

        let policy = FleetPolicy {
            epoch: 9,
            staleness_budget: 5,
            max_batch: 64,
            rate_burst: 128,
        };
        assert_eq!(
            decode_frame(&encode_policy(&policy)),
            Some(Frame::Policy(policy))
        );

        let ack = Ack {
            host: 3,
            expected_seq: 43,
            ctl_epoch: 7,
            resync: true,
            not_leader: false,
            policy: Some(policy),
        };
        assert_eq!(decode_frame(&encode_ack(&ack)), Some(Frame::Ack(ack)));

        let fenced_ack = Ack {
            host: REPL_PEER,
            expected_seq: 9,
            ctl_epoch: 2,
            resync: false,
            not_leader: true,
            policy: None,
        };
        assert_eq!(
            decode_frame(&encode_ack(&fenced_ack)),
            Some(Frame::Ack(fenced_ack))
        );

        let repl = Repl {
            ctl_epoch: 4,
            repl_seq: 11,
            as_of_tick: 99,
            heard: vec![7, 9],
            records: vec![1, 2, 3, 4, 5],
        };
        let frame = encode_repl_parts(
            repl.ctl_epoch,
            repl.repl_seq,
            repl.as_of_tick,
            &repl.heard,
            &repl.records,
        );
        assert_eq!(decode_frame(&frame), Some(Frame::Repl(repl)));

        let query = Query {
            kind: QUERY_TENANT,
            arg: 11,
        };
        assert_eq!(
            decode_frame(&encode_query(&query)),
            Some(Frame::Query(query))
        );

        for body in [
            Rollup::Cluster {
                rollup: ClusterRollup {
                    cpu: 100,
                    mem: 1 << 40,
                    avail: 1 << 39,
                    hosts: 10,
                    partitioned: 1,
                    containers: 500,
                },
                degraded: true,
            },
            Rollup::Tenant {
                rollup: TenantRollup {
                    cpu: 8,
                    mem: 1 << 31,
                    avail: 1 << 30,
                    containers: 4,
                },
                degraded: false,
            },
            Rollup::TopK(vec![PressurePoint {
                host: 1,
                id: 2,
                pressure_milli: 900,
            }]),
            Rollup::Stats("arv_fleet_deltas_ingested 3\n".to_string()),
            Rollup::Flight(vec![7, 8, 9, 10]),
        ] {
            let rollup = RollupFrame {
                ctl_epoch: 5,
                span: SpanStamp {
                    as_of_tick: 40,
                    origin_min: 33,
                    trace_max: 17,
                },
                body,
            };
            assert_eq!(
                decode_frame(&encode_rollup(&rollup)),
                Some(Frame::Rollup(rollup))
            );
        }
    }

    #[test]
    fn truncation_never_panics() {
        let frames = [
            encode_hello(&Hello {
                host: 1,
                tick: 2,
                containers: 3,
                epoch: 4,
            }),
            encode_delta(&sample_delta()),
            encode_ack(&Ack {
                host: 1,
                expected_seq: 2,
                ctl_epoch: 3,
                resync: false,
                not_leader: false,
                policy: Some(FleetPolicy::default()),
            }),
            encode_rollup(&RollupFrame {
                ctl_epoch: 1,
                span: SpanStamp {
                    as_of_tick: 9,
                    origin_min: 4,
                    trace_max: 2,
                },
                body: Rollup::TopK(vec![PressurePoint {
                    host: 1,
                    id: 2,
                    pressure_milli: 500,
                }]),
            }),
            encode_repl_parts(2, 3, 5, &[], &[9; 24]),
        ];
        for frame in &frames {
            for cut in 0..frame.len() {
                let _ = decode_frame(&frame[..cut]);
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = encode_query(&Query {
            kind: QUERY_CLUSTER,
            arg: 0,
        });
        frame.push(0);
        assert_eq!(decode_frame(&frame), None);
    }

    mod frame_props {
        use super::*;
        use crate::controller::FleetController;
        use proptest::prelude::*;

        fn arb_delta(host: u32, seq: u64, n: usize, m: usize) -> Delta {
            Delta {
                host,
                seq,
                tick: seq.wrapping_mul(3),
                full: seq % 2 == 0,
                health: (seq % 3) as u8,
                durability_lost: seq % 4 == 1,
                staleness_age: seq % 5,
                epoch: 0,
                origin_tick: seq.wrapping_mul(3).saturating_sub(seq % 4),
                trace_seq: seq,
                summary: HostSummary {
                    frames: seq,
                    entries: seq.wrapping_mul(n as u64),
                    full_syncs: seq / 2,
                    resyncs: seq % 2,
                    deltas_coalesced: seq % 7,
                    acks_fenced: 0,
                    journal_io_errors: seq % 3,
                },
                entries: (0..n)
                    .map(|i| DeltaEntry {
                        id: i as u32,
                        tenant: (i % 4) as u32,
                        e_cpu: (i % 9) as u32,
                        e_mem: (i as u64 + 1) * 1000,
                        e_avail: (i as u64) * 400,
                        last_tick: seq,
                    })
                    .collect(),
                removed: (0..m).map(|i| 1000 + i as u32).collect(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Arbitrary bytes never panic the frame decoder.
            #[test]
            fn decode_frame_never_panics(
                bytes in prop::collection::vec(0u8..255, 0..96)
            ) {
                let _ = decode_frame(&bytes);
            }

            /// Arbitrary bytes never panic the controller either — the
            /// full ingest path behind `handle_frame` is fuzz-hardened,
            /// not just the decoder.
            #[test]
            fn controller_never_panics_on_garbage(
                bytes in prop::collection::vec(0u8..255, 0..96)
            ) {
                let ctl = FleetController::new(2, FleetPolicy::default());
                let _ = ctl.handle_frame(&bytes);
            }

            /// Truncating a valid DELTA at any point never panics the
            /// controller: the frame either still decodes (and is
            /// handled) or is rejected cleanly.
            #[test]
            fn truncated_delta_never_panics_controller(
                host in 0u32..16,
                seq in 0u64..8,
                n in 0usize..6,
                m in 0usize..4,
                cut in 0usize..512
            ) {
                let frame = encode_delta(&arb_delta(host, seq, n, m));
                let keep = cut.min(frame.len());
                let ctl = FleetController::new(2, FleetPolicy::default());
                let _ = ctl.handle_frame(&frame[..keep]);
            }

            /// Flipping one bit of a valid DELTA never panics the
            /// controller (it may still be accepted, with different
            /// contents — CRC-level integrity is the journal's job, the
            /// wire trusts the kernel's byte stream like viewd does).
            #[test]
            fn corrupted_delta_never_panics_controller(
                host in 0u32..16,
                seq in 0u64..8,
                n in 0usize..6,
                idx in 0usize..4096,
                bit in 0u8..8
            ) {
                let mut frame = encode_delta(&arb_delta(host, seq, n, 1));
                let i = idx % frame.len();
                frame[i] ^= 1 << bit;
                let ctl = FleetController::new(2, FleetPolicy::default());
                let _ = ctl.handle_frame(&frame);
            }

            /// Well-formed deltas round-trip exactly.
            #[test]
            fn delta_round_trips(
                host in 0u32..1000,
                seq in 0u64..1000,
                n in 0usize..8,
                m in 0usize..8
            ) {
                let delta = arb_delta(host, seq, n, m);
                prop_assert_eq!(
                    decode_frame(&encode_delta(&delta)),
                    Some(Frame::Delta(delta))
                );
            }

            /// Span stamps survive a DELTA round-trip exactly: the
            /// origin tick, trace sequence, and piggybacked summary a
            /// periphery stamps are what the controller decodes.
            #[test]
            fn stamped_delta_preserves_span(
                host in 0u32..1000,
                seq in 0u64..10_000,
                n in 0usize..8
            ) {
                let delta = arb_delta(host, seq, n, 1);
                let decoded = decode_frame(&encode_delta(&delta));
                prop_assert!(matches!(decoded, Some(Frame::Delta(_))));
                let Some(Frame::Delta(got)) = decoded else {
                    unreachable!()
                };
                prop_assert_eq!(got.origin_tick, delta.origin_tick);
                prop_assert_eq!(got.trace_seq, delta.trace_seq);
                prop_assert_eq!(got.summary, delta.summary);
            }

            /// Span stamps survive a ROLLUP round-trip exactly, and the
            /// derived max-lag matches tick arithmetic.
            #[test]
            fn stamped_rollup_round_trips(
                ctl_epoch in 0u64..100,
                as_of in 0u64..10_000,
                lag in 0u64..64,
                trace_max in 0u64..10_000,
                cpu in 0u64..1_000_000
            ) {
                let frame = RollupFrame {
                    ctl_epoch,
                    span: SpanStamp {
                        as_of_tick: as_of,
                        origin_min: as_of.saturating_sub(lag),
                        trace_max,
                    },
                    body: Rollup::Cluster {
                        rollup: ClusterRollup { cpu, ..ClusterRollup::default() },
                        degraded: false,
                    },
                };
                let decoded = decode_frame(&encode_rollup(&frame));
                prop_assert!(matches!(decoded, Some(Frame::Rollup(_))));
                let Some(Frame::Rollup(got)) = decoded else {
                    unreachable!()
                };
                prop_assert_eq!(got.span, frame.span);
                prop_assert_eq!(got.span.max_lag(), lag.min(as_of));
            }

            /// Truncating or bit-flipping a stamped ROLLUP frame never
            /// panics the decoder — it decodes to something or to None.
            #[test]
            fn corrupted_stamped_rollup_never_panics(
                as_of in 0u64..10_000,
                trace_max in 0u64..10_000,
                cut in 0usize..128,
                idx in 0usize..4096,
                bit in 0u8..8
            ) {
                let mut frame = encode_rollup(&RollupFrame {
                    ctl_epoch: 3,
                    span: SpanStamp {
                        as_of_tick: as_of,
                        origin_min: as_of / 2,
                        trace_max,
                    },
                    body: Rollup::Flight(vec![0xAB; 16]),
                });
                let keep = cut.min(frame.len());
                let _ = decode_frame(&frame[..keep]);
                let i = idx % frame.len();
                frame[i] ^= 1 << bit;
                let _ = decode_frame(&frame);
            }

            /// Arbitrary record bytes shipped through a REPL frame never
            /// panic a standby — torn, corrupt, or adversarial streams
            /// degrade to a resync demand, not a crash.
            #[test]
            fn repl_garbage_never_panics_standby(
                ctl_epoch in 0u64..8,
                repl_seq in 0u64..8,
                records in prop::collection::vec(0u8..255, 0..256)
            ) {
                let frame = encode_repl_parts(ctl_epoch, repl_seq, 0, &[], &records);
                let standby = FleetController::new(2, FleetPolicy::default());
                let _ = standby.handle_frame(&frame);
            }

            /// Truncating a valid REPL stream at any byte never panics a
            /// standby: the CRC framing drops the torn tail and the
            /// standby asks for a checkpoint.
            #[test]
            fn truncated_repl_never_panics_standby(
                n in 0usize..6,
                cut in 0usize..512
            ) {
                use arv_persist::{encode_record, Record, ViewState};
                let mut records = Vec::new();
                for i in 0..n {
                    records.extend_from_slice(&encode_record(&Record::Delta {
                        state: ViewState {
                            id: (1u32 << 16) | i as u32,
                            e_cpu: i as u32,
                            e_mem: 1,
                            e_avail: 1,
                            last_tick: i as u64,
                        },
                        tick: i as u64,
                    }));
                }
                let keep = cut.min(records.len());
                records.truncate(keep);
                let frame = encode_repl_parts(1, 0, 0, &[], &records);
                let standby = FleetController::new(2, FleetPolicy::default());
                let _ = standby.handle_frame(&frame);
            }
        }
    }

    #[test]
    fn impossible_counts_rejected() {
        let mut frame = encode_delta(&Delta {
            host: 1,
            seq: 0,
            tick: 0,
            full: true,
            health: HEALTH_FRESH,
            durability_lost: false,
            staleness_age: 0,
            epoch: 0,
            origin_tick: 0,
            trace_seq: 0,
            summary: HostSummary::default(),
            entries: Vec::new(),
            removed: Vec::new(),
        });
        // Overwrite the entry count (offset 111) with a huge claim.
        frame[111..115].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&frame), None);
    }
}
