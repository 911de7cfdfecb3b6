//! The fleet delta protocol: frame layouts for the core↔periphery wire.
//!
//! Frames ride the same `u32le len | payload` framing as the viewd wire
//! (the shared [`arv_viewd::codec`]). The payload's first byte is an
//! opcode; everything after it is little-endian fixed-width fields:
//!
//! ```text
//! HELLO  := 0x10 | host u32 | tick u64 | epoch u64
//! DELTA  := 0x11 | host u32 | seq u64 | flags u8 | health u8
//!           | epoch u64 | origin_tick u64 | trace_seq u64
//!           | summary (7 × u64)
//!           | n u32 | n × entry | m u32 | m × removed-id u32
//!   entry := id u32 | tenant u32 | e_cpu u32 | e_mem u64 | e_avail u64
//!   (a view's value alone: its freshness rides the header's origin_tick,
//!   once per frame)
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
//! REPL   := 0x14 | ctl_epoch u64 | repl_seq u64 | h u32
//!           | h × heard-host u32 | records
//!   heard = the hosts the primary accepted a DELTA from since its
//!   previous frame (their freshness: a quiet host leaves no record);
//!   records = zero or more CRC-framed records of the controller's
//!   `arv_persist` batch journal, exactly the bytes the primary's
//!   journal appended; the standby validates each record's CRC on
//!   apply
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
//! The controller journals an accepted DELTA as one record, and ships
//! the same bytes in REPL frames. The record is an `arv_persist` host
//! batch whose body is the DELTA's own tail, verbatim, behind its host:
//!
//! ```text
//! batch  := host u32 | flags u8 | n u32 | n × entry | m u32
//!           | m × removed-id u32
//!   flags bit0 = FULL (the DELTA's), bit1 = CHECKPOINT (one host's
//!   part of a checkpoint: it counts as no view record)
//! ```
//!
//! A controller checkpoint is a reset marker (an empty `arv_persist`
//! checkpoint record, carrying the tick) followed by one FULL batch per
//! host holding containers, chunked the way a periphery chunks a FULL:
//! the first chunk FULL, the rest plain upserts.
//!
//! Every decode path is bounds-checked and returns `Option` — arbitrary
//! truncation or corruption must never panic the controller (the same
//! contract the viewd wire fuzz enforces).

use arv_persist::frame_host_batch;
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
/// [`FleetPolicy::max_batch`] is ~7 KiB; REPL frames carrying a
/// compacted checkpoint of a large index need far more headroom. The
/// cap still bounds what a corrupt length prefix can allocate.
pub const MAX_FLEET_FRAME: u32 = 1024 * 1024;

/// Most entries one batch carries — a periphery's DELTA or one host's
/// part of a controller checkpoint — whatever [`FleetPolicy::max_batch`]
/// says: a policy arrives from outside, and a batch must fit a frame
/// with room to spare (4 096 entries are 112 KiB).
pub const MAX_BATCH: u32 = 4096;

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
pub(crate) const ENTRY_BYTES: usize = 4 + 4 + 4 + 8 + 8;
/// Where a DELTA payload's tail (`n | entries | m | removed`) starts:
/// after the opcode, host, seq, flags, health, three epoch/span words
/// and the seven summary counters.
pub(crate) const DELTA_TAIL_AT: usize = 1 + 4 + 8 + 1 + 1 + 3 * 8 + 7 * 8;
/// Where a DELTA payload's flags byte sits.
const DELTA_FLAGS_AT: usize = 1 + 4 + 8;
/// Bytes of a DELTA payload around its entries and removals: the
/// header before the tail, and the tail's two counts.
pub(crate) const DELTA_FIXED_BYTES: usize = DELTA_TAIL_AT + 4 + 4;
/// Bytes of a REPL payload before its heard hosts: the opcode, two
/// words and the heard count.
pub(crate) const REPL_HEAD_BYTES: usize = 1 + 8 + 8 + 4;

/// Host-batch flag: the batch is a FULL (see [`DELTA_FULL`]).
pub(crate) const BATCH_FULL: u8 = DELTA_FULL;
/// Host-batch flag: the batch is one host's part of a checkpoint.
pub(crate) const BATCH_CHECKPOINT: u8 = 2;
/// Bytes of a host batch's body before its tail: host and flags.
pub(crate) const BATCH_HEAD_BYTES: usize = 4 + 1;

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
    /// Max delta entries per DELTA frame (peripheries chunk above it),
    /// capped at [`MAX_BATCH`].
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

impl FleetPolicy {
    /// Entries a batch is chunked to: `max_batch`, within
    /// `1..=`[`MAX_BATCH`].
    pub(crate) fn batch_len(&self) -> usize {
        self.max_batch.clamp(1, MAX_BATCH) as usize
    }
}

/// One container's view as carried in a DELTA frame: the values of an
/// [`arv_persist::ViewState`] plus the owning tenant. An entry is its
/// value alone; when the view was fresh rides the DELTA's header.
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
}

/// A decoded HELLO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Sending host.
    pub host: u32,
    /// Host update-timer tick at send time.
    pub tick: u64,
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

/// A DELTA's fields ahead of its entries and removals: what
/// [`encode_delta`] writes before the tail and [`decode_frame`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaHead {
    /// Sending host.
    pub host: u32,
    /// Per-host frame sequence number (gap ⇒ resync).
    pub seq: u64,
    /// Whether this batch is a full snapshot (replaces all host state).
    pub full: bool,
    /// Host-level health (`HEALTH_*`, low bits only — the durability
    /// flag is split out into [`DeltaHead::durability_lost`]).
    pub health: u8,
    /// Whether the host's journal has lost durability (health byte bit
    /// 7 on the wire).
    pub durability_lost: bool,
    /// Newest policy epoch the periphery has adopted.
    pub epoch: u64,
    /// Causal span stamp: the host tick at which the oldest diff in
    /// this batch was observed. With coalescing, it trails the flush
    /// tick by the delay the token bucket imposed.
    pub origin_tick: u64,
    /// Causal span stamp: monotone per-periphery trace sequence,
    /// incremented on every frame and never reset by resync logic.
    pub trace_seq: u64,
    /// The periphery's piggybacked counter summary.
    pub summary: HostSummary,
}

/// A decoded DELTA batch: its head, then its tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// The fields ahead of the entries and removals.
    pub head: DeltaHead,
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
    let mut out = Vec::with_capacity(21);
    out.push(OP_HELLO);
    put_u32(&mut out, h.host);
    put_u64(&mut out, h.tick);
    put_u64(&mut out, h.epoch);
    out
}

/// Encode a DELTA payload.
pub fn encode_delta(d: &Delta) -> Vec<u8> {
    encode_delta_parts(&d.head, d.entries.iter(), &d.removed)
}

/// The one DELTA encoder: `head`, then the tail of `entries` and
/// `removed`, into one buffer sized up front — a periphery encodes
/// straight from its mirror, with no `Vec` of entries in between.
pub(crate) fn encode_delta_parts<'e>(
    head: &DeltaHead,
    entries: impl ExactSizeIterator<Item = &'e DeltaEntry>,
    removed: &[u32],
) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(DELTA_FIXED_BYTES + entries.len() * ENTRY_BYTES + removed.len() * 4);
    out.push(OP_DELTA);
    put_u32(&mut out, head.host);
    put_u64(&mut out, head.seq);
    out.push(if head.full { DELTA_FULL } else { 0 });
    out.push(
        head.health
            | if head.durability_lost {
                HEALTH_DURABILITY_LOST
            } else {
                0
            },
    );
    put_u64(&mut out, head.epoch);
    put_u64(&mut out, head.origin_tick);
    put_u64(&mut out, head.trace_seq);
    let summary = &head.summary;
    put_u64(&mut out, summary.frames);
    put_u64(&mut out, summary.entries);
    put_u64(&mut out, summary.full_syncs);
    put_u64(&mut out, summary.resyncs);
    put_u64(&mut out, summary.deltas_coalesced);
    put_u64(&mut out, summary.acks_fenced);
    put_u64(&mut out, summary.journal_io_errors);
    put_tail(&mut out, entries, removed);
    out
}

/// The one entry encoder, for DELTA payloads and journal records alike:
/// the entry laid out on the stack and appended as one copy.
fn put_entry(out: &mut Vec<u8>, e: &DeltaEntry) {
    let mut b = [0u8; ENTRY_BYTES];
    b[0..4].copy_from_slice(&e.id.to_le_bytes());
    b[4..8].copy_from_slice(&e.tenant.to_le_bytes());
    b[8..12].copy_from_slice(&e.e_cpu.to_le_bytes());
    b[12..20].copy_from_slice(&e.e_mem.to_le_bytes());
    b[20..28].copy_from_slice(&e.e_avail.to_le_bytes());
    out.extend_from_slice(&b);
}

/// A DELTA's tail: `n | entries | m | removed`.
fn put_tail<'e>(
    out: &mut Vec<u8>,
    entries: impl ExactSizeIterator<Item = &'e DeltaEntry>,
    removed: &[u32],
) {
    put_u32(out, entries.len() as u32);
    for e in entries {
        put_entry(out, e);
    }
    put_u32(out, removed.len() as u32);
    for id in removed {
        put_u32(out, *id);
    }
}

/// Append the journal record of a DELTA payload that [`decode_frame`]
/// accepted to `out`: its host and FULL flag, then its tail copied
/// verbatim — one copy and one CRC, whatever the entries. A payload too
/// short to be a DELTA frames nothing.
pub fn frame_delta_record(out: &mut Vec<u8>, delta: &[u8]) {
    let (Some(host), Some(flags), Some(tail)) = (
        delta.get(1..5),
        delta.get(DELTA_FLAGS_AT),
        delta.get(DELTA_TAIL_AT..),
    ) else {
        return;
    };
    frame_host_batch(out, BATCH_HEAD_BYTES + tail.len(), |b| {
        b.extend_from_slice(host);
        b.push(flags & BATCH_FULL);
        b.extend_from_slice(tail);
    });
}

/// Append a host batch of `entries` and no removals to `out`, as a
/// checkpoint lays one host's containers down.
pub(crate) fn frame_batch(out: &mut Vec<u8>, host: u32, flags: u8, entries: &[DeltaEntry]) {
    let body_len = BATCH_HEAD_BYTES + 4 + entries.len() * ENTRY_BYTES + 4;
    frame_host_batch(out, body_len, |b| {
        put_u32(b, host);
        b.push(flags);
        put_tail(b, entries.iter(), &[]);
    });
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
    heard: &[u32],
    records: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(REPL_HEAD_BYTES + 4 * heard.len() + records.len());
    out.push(OP_REPL);
    put_u64(&mut out, ctl_epoch);
    put_u64(&mut out, repl_seq);
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

    /// The next `n` bytes, borrowed.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.b.get(self.i..self.i.checked_add(n)?)?;
        self.i += n;
        Some(s)
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

/// The one DELTA validator: a DELTA payload decoded in place, its head
/// read out and its tail borrowed from `payload`. `None` for anything
/// [`decode_frame`] refuses as a DELTA.
pub(crate) fn decode_delta_parts(payload: &[u8]) -> Option<(DeltaHead, Tail<'_>)> {
    let mut c = Cur::new(payload);
    if c.u8()? != OP_DELTA {
        return None;
    }
    let host = c.u32()?;
    let seq = c.u64()?;
    let flags = c.u8()?;
    let raw_health = c.u8()?;
    let health = raw_health & !HEALTH_DURABILITY_LOST;
    if health > HEALTH_DEGRADED {
        return None;
    }
    let head = DeltaHead {
        host,
        seq,
        full: flags & DELTA_FULL != 0,
        health,
        durability_lost: raw_health & HEALTH_DURABILITY_LOST != 0,
        epoch: c.u64()?,
        origin_tick: c.u64()?,
        trace_seq: c.u64()?,
        summary: HostSummary {
            frames: c.u64()?,
            entries: c.u64()?,
            full_syncs: c.u64()?,
            resyncs: c.u64()?,
            deltas_coalesced: c.u64()?,
            acks_fenced: c.u64()?,
            journal_io_errors: c.u64()?,
        },
    };
    Some((head, Tail::decode(c.rest())?))
}

/// A REPL frame decoded in place: its fields read out, its heard list
/// and its records borrowed from the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReplParts<'a> {
    /// [`Repl::ctl_epoch`].
    pub(crate) ctl_epoch: u64,
    /// [`Repl::repl_seq`].
    pub(crate) repl_seq: u64,
    /// The heard hosts, `u32le` each.
    heard: &'a [u8],
    /// [`Repl::records`].
    pub(crate) records: &'a [u8],
}

impl<'a> ReplParts<'a> {
    /// The hosts heard from, in frame order.
    pub(crate) fn heard(&self) -> impl ExactSizeIterator<Item = u32> + 'a {
        self.heard.chunks_exact(4).map(le32)
    }
}

/// The one REPL validator, the twin of [`encode_repl_parts`]: a REPL
/// payload decoded in place. `None` for anything [`decode_frame`]
/// refuses as a REPL.
pub(crate) fn decode_repl_parts(payload: &[u8]) -> Option<ReplParts<'_>> {
    let mut c = Cur::new(payload);
    if c.u8()? != OP_REPL {
        return None;
    }
    let (ctl_epoch, repl_seq) = (c.u64()?, c.u64()?);
    let h = c.u32()? as usize;
    Some(ReplParts {
        ctl_epoch,
        repl_seq,
        heard: c.take(h.checked_mul(4)?)?,
        records: c.rest(),
    })
}

/// A DELTA's tail (`n | entries | m | removed`), borrowed from a
/// payload or a journal record and decoded as it is walked.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tail<'a> {
    entries: &'a [u8],
    removed: &'a [u8],
}

impl<'a> Tail<'a> {
    /// The tail that is exactly `b`: counts that claim more or fewer
    /// bytes than follow are corruption, and so is a count past
    /// [`MAX_BATCH`], which no periphery sends and no checkpoint writes.
    fn decode(b: &'a [u8]) -> Option<Tail<'a>> {
        let mut c = Cur::new(b);
        let n = c.u32().filter(|n| *n <= MAX_BATCH)? as usize;
        let entries = c.take(n * ENTRY_BYTES)?;
        let m = c.u32().filter(|m| *m <= MAX_BATCH)? as usize;
        let removed = c.rest();
        (removed.len() == m * 4).then_some(Tail { entries, removed })
    }

    /// The entries, in order.
    pub(crate) fn entries(&self) -> impl ExactSizeIterator<Item = DeltaEntry> + Clone + 'a {
        self.entries.chunks_exact(ENTRY_BYTES).map(get_entry)
    }

    /// The removed ids, in order.
    pub(crate) fn removed(&self) -> impl Iterator<Item = u32> + 'a {
        self.removed.chunks_exact(4).map(le32)
    }

    /// Whether the tail carries no entry and no removal.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.removed.is_empty()
    }
}

/// One journal record's host batch, borrowed from the record's body.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HostBatch<'a> {
    /// The host the batch is for.
    pub(crate) host: u32,
    /// `BATCH_*` flags.
    pub(crate) flags: u8,
    /// The DELTA tail it carries.
    pub(crate) tail: Tail<'a>,
}

impl<'a> HostBatch<'a> {
    /// Decode a host batch's body; `None` for anything malformed.
    pub(crate) fn decode(body: &'a [u8]) -> Option<HostBatch<'a>> {
        let flags = *body.get(4)?;
        if flags & !(BATCH_FULL | BATCH_CHECKPOINT) != 0 {
            return None;
        }
        Some(HostBatch {
            host: le32(body.get(..4)?),
            flags,
            tail: Tail::decode(body.get(BATCH_HEAD_BYTES..)?)?,
        })
    }
}

fn le32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().unwrap_or_default())
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().unwrap_or_default())
}

/// The one entry decoder, over one [`ENTRY_BYTES`] chunk.
fn get_entry(b: &[u8]) -> DeltaEntry {
    let b: &[u8; ENTRY_BYTES] = b.try_into().unwrap_or(&[0; ENTRY_BYTES]);
    DeltaEntry {
        id: le32(&b[0..4]),
        tenant: le32(&b[4..8]),
        e_cpu: le32(&b[8..12]),
        e_mem: le64(&b[12..20]),
        e_avail: le64(&b[20..28]),
    }
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
    match *payload.first()? {
        OP_DELTA => {
            let (head, tail) = decode_delta_parts(payload)?;
            return Some(Frame::Delta(Delta {
                head,
                entries: tail.entries().collect(),
                removed: tail.removed().collect(),
            }));
        }
        OP_REPL => {
            let r = decode_repl_parts(payload)?;
            return Some(Frame::Repl(Repl {
                ctl_epoch: r.ctl_epoch,
                repl_seq: r.repl_seq,
                heard: r.heard().collect(),
                records: r.records.to_vec(),
            }));
        }
        _ => {}
    }
    let mut c = Cur::new(payload);
    let frame = match c.u8()? {
        OP_HELLO => Frame::Hello(Hello {
            host: c.u32()?,
            tick: c.u64()?,
            epoch: c.u64()?,
        }),
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
            head: DeltaHead {
                host: 7,
                seq: 42,
                full: false,
                health: HEALTH_STALE,
                durability_lost: true,
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
            },
            entries: vec![
                DeltaEntry {
                    id: 1,
                    tenant: 10,
                    e_cpu: 4,
                    e_mem: 1 << 30,
                    e_avail: 1 << 29,
                },
                DeltaEntry {
                    id: 2,
                    tenant: 11,
                    e_cpu: 2,
                    e_mem: 1 << 28,
                    e_avail: 1 << 20,
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
            heard: vec![7, 9],
            records: vec![1, 2, 3, 4, 5],
        };
        let frame = encode_repl_parts(repl.ctl_epoch, repl.repl_seq, &repl.heard, &repl.records);
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
            encode_repl_parts(2, 3, &[], &[9; 24]),
        ];
        for frame in &frames {
            for cut in 0..frame.len() {
                let _ = decode_frame(&frame[..cut]);
            }
        }
    }

    #[test]
    fn a_delta_record_is_its_tail_behind_its_host() {
        let mut delta = sample_delta();
        delta.head.full = true;
        let mut payload = encode_delta(&delta);
        // A flag bit the DELTA does not define never reaches the record.
        payload[DELTA_FLAGS_AT] |= 0x80;
        let mut record = Vec::new();
        frame_delta_record(&mut record, &payload);
        assert_eq!(
            record.len(),
            4 + 1 + BATCH_HEAD_BYTES + payload.len() - DELTA_TAIL_AT + 4
        );
        let mut walk = arv_persist::records(&record);
        let (kind, body) = walk.next().expect("one whole record");
        assert_eq!(kind, arv_persist::KIND_HOST_BATCH);
        assert_eq!(&body[BATCH_HEAD_BYTES..], &payload[DELTA_TAIL_AT..]);
        let batch = HostBatch::decode(body).expect("a host batch");
        assert_eq!((batch.host, batch.flags), (delta.head.host, BATCH_FULL));
        assert_eq!(batch.tail.entries().collect::<Vec<_>>(), delta.entries);
        assert_eq!(batch.tail.removed().collect::<Vec<_>>(), delta.removed);
        // The checkpoint's encoder writes the same layout.
        let mut from_entries = Vec::new();
        frame_batch(
            &mut from_entries,
            delta.head.host,
            BATCH_FULL,
            &delta.entries,
        );
        let (_, body) = arv_persist::records(&from_entries)
            .next()
            .expect("one record");
        let batch = HostBatch::decode(body).expect("a host batch");
        assert_eq!(batch.tail.entries().collect::<Vec<_>>(), delta.entries);
        assert_eq!(batch.tail.removed().count(), 0);
        // Counts that claim other than the bytes present are refused.
        assert!(HostBatch::decode(&body[..body.len() - 1]).is_none());
        let mut nothing = Vec::new();
        frame_delta_record(&mut nothing, &[OP_DELTA, 1, 2]);
        assert!(nothing.is_empty(), "too short to be a DELTA");
    }

    #[test]
    fn an_empty_repl_frame_is_its_head() {
        // opcode | ctl_epoch u64 | repl_seq u64 | h u32: nothing else.
        assert_eq!(REPL_HEAD_BYTES, 21);
        let frame = encode_repl_parts(3, 8, &[], &[]);
        assert_eq!(frame.len(), REPL_HEAD_BYTES);
        assert_eq!(frame[0], OP_REPL);
        assert_eq!(&frame[1..9], &3u64.to_le_bytes());
        assert_eq!(&frame[9..17], &8u64.to_le_bytes());
        assert_eq!(&frame[17..], &0u32.to_le_bytes());
        let repl = Repl {
            ctl_epoch: 3,
            repl_seq: 8,
            heard: Vec::new(),
            records: Vec::new(),
        };
        assert_eq!(decode_frame(&frame), Some(Frame::Repl(repl)));
        // One byte short of the head is refused.
        assert_eq!(decode_frame(&frame[..REPL_HEAD_BYTES - 1]), None);
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
                head: DeltaHead {
                    host,
                    seq,
                    full: seq % 2 == 0,
                    health: (seq % 3) as u8,
                    durability_lost: seq % 4 == 1,
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
                },
                entries: (0..n)
                    .map(|i| DeltaEntry {
                        id: i as u32,
                        tenant: (i % 4) as u32,
                        e_cpu: (i % 9) as u32,
                        e_mem: (i as u64 + 1) * 1000,
                        e_avail: (i as u64) * 400,
                    })
                    .collect(),
                removed: (0..m).map(|i| 1000 + i as u32).collect(),
            }
        }

        /// A valid REPL payload: `n` records of host batches behind a
        /// heard list of `h` hosts.
        fn arb_repl(seq: u64, h: usize, n: usize) -> Vec<u8> {
            let mut records = Vec::new();
            for i in 0..n {
                frame_delta_record(&mut records, &encode_delta(&arb_delta(i as u32, seq, i, 1)));
            }
            let heard: Vec<u32> = (0..h as u32).map(|i| i * 7).collect();
            encode_repl_parts(seq / 2, seq, &heard, &records)
        }

        /// A payload of `shape`: 0 arbitrary `bytes` behind the DELTA or
        /// REPL opcode, 1 a valid one cut at byte `at` (modulo its
        /// length), 2 a valid one with bit `bit` of byte `at` flipped.
        fn hostile(
            repl: bool,
            shape: u8,
            bytes: &[u8],
            seq: u64,
            n: usize,
            at: usize,
            bit: u8,
        ) -> Vec<u8> {
            let op = if repl { OP_REPL } else { OP_DELTA };
            let mut valid = if repl {
                arb_repl(seq, n % 3, n)
            } else {
                encode_delta(&arb_delta(seq as u32, seq, n, n % 3))
            };
            match shape {
                0 => [&[op][..], bytes].concat(),
                1 => {
                    valid.truncate(at % (valid.len() + 1));
                    valid
                }
                _ => {
                    let i = at % valid.len();
                    valid[i] ^= 1 << bit;
                    valid
                }
            }
        }

        /// What the borrowed decoders make of `p` is exactly what
        /// `decode_frame` makes of it.
        fn assert_one_validator(p: &[u8]) {
            let delta = decode_delta_parts(p).map(|(head, tail)| {
                let entries: Vec<DeltaEntry> = tail.entries().collect();
                (head, entries, tail.removed().collect::<Vec<u32>>())
            });
            let repl = decode_repl_parts(p).map(|r| {
                (
                    r.ctl_epoch,
                    r.repl_seq,
                    r.heard().collect::<Vec<u32>>(),
                    r.records,
                )
            });
            match decode_frame(p) {
                Some(Frame::Delta(d)) => {
                    assert_eq!(delta, Some((d.head, d.entries.clone(), d.removed.clone())));
                    assert_eq!(repl, None);
                }
                Some(Frame::Repl(r)) => {
                    assert_eq!(delta, None);
                    let want = (r.ctl_epoch, r.repl_seq, r.heard.clone(), &r.records[..]);
                    assert_eq!(repl, Some(want));
                }
                _ => assert_eq!((delta, repl), (None, None)),
            }
        }

        /// `handle_frame` refuses `p` — `None`, and `malformed_frames`
        /// up by exactly one — iff `decode_frame` does; otherwise it
        /// answers and counts nothing malformed.
        fn assert_refused_once(p: &[u8]) {
            let ctl = FleetController::new(2, FleetPolicy::default());
            let reply = ctl.handle_frame(p);
            let refused = decode_frame(p).is_none();
            assert_eq!(reply.is_none(), refused);
            assert_eq!(
                ctl.metrics().snapshot().malformed_frames,
                u64::from(refused)
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Arbitrary, truncated and bit-flipped DELTA and REPL
            /// payloads: the borrowed decoders the controller applies
            /// from accept exactly what `decode_frame` accepts, with
            /// equal fields, and the controller refuses exactly the
            /// rest, counting each once.
            #[test]
            fn borrowed_decoders_accept_what_decode_frame_accepts(
                repl in 0u8..2,
                shape in 0u8..3,
                bytes in prop::collection::vec(0u8..255, 0..160),
                seq in 0u64..8,
                n in 0usize..5,
                at in 0usize..2048,
                bit in 0u8..8
            ) {
                let p = hostile(repl == 1, shape, &bytes, seq, n, at, bit);
                assert_one_validator(&p);
                assert_refused_once(&p);
            }

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
                prop_assert_eq!(got.head.origin_tick, delta.head.origin_tick);
                prop_assert_eq!(got.head.trace_seq, delta.head.trace_seq);
                prop_assert_eq!(got.head.summary, delta.head.summary);
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
                let frame = encode_repl_parts(ctl_epoch, repl_seq, &[], &records);
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
                let mut records = Vec::new();
                for i in 0..n {
                    frame_delta_record(&mut records, &encode_delta(&arb_delta(1, i as u64, i, 1)));
                }
                let keep = cut.min(records.len());
                records.truncate(keep);
                let frame = encode_repl_parts(1, 0, &[], &records);
                let standby = FleetController::new(2, FleetPolicy::default());
                let _ = standby.handle_frame(&frame);
            }
        }
    }

    #[test]
    fn impossible_counts_rejected() {
        let mut frame = encode_delta(&sample_delta());
        // Overwrite the entry count, where the tail starts, with a huge
        // claim.
        frame[DELTA_TAIL_AT..DELTA_TAIL_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&frame), None);
    }
}
