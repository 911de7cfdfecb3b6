//! Reference implementations the differential tests compare against:
//! the `HashMap` periphery diff that the merge-walk replaced, and the
//! controller's journal, REPL stream and standby as `BTreeMap`s and
//! lists of records, whose state the controller's must equal.
//! Test-only; kept apart from the code under test on purpose.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use arv_persist::Snapshot;

use crate::periphery::{AckDisposition, PeripheryStats};
use crate::protocol::{
    decode_frame, encode_delta, encode_hello, Ack, Delta, DeltaEntry, DeltaHead, FleetPolicy,
    Frame, Hello, HostSummary, BATCH_HEAD_BYTES, ENTRY_BYTES, HEALTH_DEGRADED,
    HEALTH_DURABILITY_LOST, HEALTH_FRESH, HEALTH_STALE, MAX_FLEET_FRAME, REPL_HEAD_BYTES,
};

/// `Periphery` as it was with `last_sent` and the pending layer in
/// `HashMap`s: same frames, same stats, for every snapshot sequence
/// without a repeated id.
pub(crate) struct HashMapPeriphery {
    host: u32,
    seq: u64,
    policy: FleetPolicy,
    said_hello: bool,
    pending_full: bool,
    last_health: u8,
    durability_lost: bool,
    journal_io_errors: u64,
    last_sent: HashMap<u32, DeltaEntry>,
    tenants: HashMap<u32, u32>,
    pending: HashMap<u32, DeltaEntry>,
    pending_removed: BTreeSet<u32>,
    tokens: u64,
    ctl_epoch_seen: u64,
    trace_seq: u64,
    pending_origin: Option<u64>,
    shipped_tick: Option<u64>,
    outbox: Vec<Vec<u8>>,
    stats: PeripheryStats,
}
impl HashMapPeriphery {
    pub(crate) fn new(host: u32) -> HashMapPeriphery {
        let policy = FleetPolicy::default();
        HashMapPeriphery {
            host,
            seq: 0,
            said_hello: false,
            pending_full: true,
            last_health: HEALTH_FRESH,
            durability_lost: false,
            journal_io_errors: 0,
            last_sent: HashMap::new(),
            tenants: HashMap::new(),
            pending: HashMap::new(),
            pending_removed: BTreeSet::new(),
            tokens: u64::from(policy.rate_burst.max(1)),
            ctl_epoch_seen: 0,
            trace_seq: 0,
            pending_origin: None,
            shipped_tick: None,
            policy,
            outbox: Vec::new(),
            stats: PeripheryStats::default(),
        }
    }
    pub(crate) fn stats(&self) -> PeripheryStats {
        self.stats
    }

    pub(crate) fn set_tenant(&mut self, container: u32, tenant: u32) {
        self.tenants.insert(container, tenant);
    }
    pub(crate) fn set_durability(&mut self, lost: bool, io_errors: u64) {
        self.durability_lost = lost;
        self.journal_io_errors = io_errors;
    }

    pub(crate) fn observe(&mut self, snap: &Snapshot, stalled: bool, staleness_age: u64) {
        if !self.said_hello {
            self.outbox.push(encode_hello(&Hello {
                host: self.host,
                tick: snap.tick,
                epoch: self.policy.epoch,
            }));
            self.said_hello = true;
        }

        let health = if stalled {
            HEALTH_DEGRADED
        } else if staleness_age > 0 {
            HEALTH_STALE
        } else {
            HEALTH_FRESH
        };
        let shipped_health = health
            | if self.durability_lost {
                HEALTH_DURABILITY_LOST
            } else {
                0
            };

        let full = self.pending_full;
        if full {
            self.pending.clear();
            self.pending_removed.clear();
            self.last_sent.clear();
            self.pending_origin = None;
        }

        for s in &snap.entries {
            let entry = DeltaEntry {
                id: s.id,
                tenant: self.tenants.get(&s.id).copied().unwrap_or(0),
                e_cpu: s.e_cpu,
                e_mem: s.e_mem,
                e_avail: s.e_avail,
            };
            let moved = self.last_sent.get(&s.id).map_or(true, |sent| {
                (sent.tenant, sent.e_cpu, sent.e_mem, sent.e_avail)
                    != (entry.tenant, entry.e_cpu, entry.e_mem, entry.e_avail)
            });
            if full || moved {
                self.pending.insert(entry.id, entry);
                self.pending_removed.remove(&entry.id);
                self.last_sent.insert(entry.id, entry);
            }
        }
        if !full {
            // The replaced code asked `snap.get`, a binary search that
            // is only right on a sorted snapshot; a set is right always.
            let live: HashSet<u32> = snap.entries.iter().map(|s| s.id).collect();
            let gone: Vec<u32> = self
                .last_sent
                .keys()
                .filter(|id| !live.contains(id))
                .copied()
                .collect();
            for id in gone {
                self.last_sent.remove(&id);
                self.tenants.remove(&id);
                self.pending.remove(&id);
                self.pending_removed.insert(id);
            }
        }

        if self.pending_origin.is_none()
            && (!self.pending.is_empty() || !self.pending_removed.is_empty())
        {
            self.pending_origin = Some(snap.tick);
        }

        let heartbeat = !stalled && self.shipped_tick.map_or(true, |t| snap.tick > t);
        if !full
            && self.pending.is_empty()
            && self.pending_removed.is_empty()
            && shipped_health == self.last_health
            && !heartbeat
        {
            return;
        }

        let capacity = u64::from(self.policy.rate_burst.max(1));
        let refill = (capacity / 4).max(1);
        self.tokens = self.tokens.saturating_add(refill).min(capacity);
        let cost = (self.pending.len() + self.pending_removed.len()) as u64;
        if !full && cost > self.tokens && self.tokens < capacity {
            self.stats.deltas_coalesced += 1;
            return;
        }
        self.tokens = self.tokens.saturating_sub(cost);
        self.last_health = shipped_health;
        self.shipped_tick = Some(snap.tick);
        let origin_tick = self.pending_origin.take().unwrap_or(snap.tick);

        let mut entries: Vec<DeltaEntry> =
            std::mem::take(&mut self.pending).into_values().collect();
        entries.sort_unstable_by_key(|e| e.id);
        let removed: Vec<u32> = std::mem::take(&mut self.pending_removed)
            .into_iter()
            .collect();

        // Frame k carries the k-th `batch_len` chunk of the entries and
        // the k-th of the removals.
        let batch = self.policy.batch_len();
        let mut entries = entries.chunks(batch);
        let mut removed = removed.chunks(batch);
        let mut first = true;
        loop {
            let (chunk, frame_removed) = (entries.next(), removed.next());
            if chunk.is_none() && frame_removed.is_none() && !first {
                break;
            }
            let chunk = chunk.unwrap_or_default();
            self.stats.frames += 1;
            self.stats.entries += chunk.len() as u64;
            self.trace_seq += 1;
            self.outbox.push(encode_delta(&Delta {
                head: DeltaHead {
                    host: self.host,
                    seq: self.seq,
                    full: full && first,
                    health,
                    durability_lost: self.durability_lost,
                    epoch: self.policy.epoch,
                    origin_tick,
                    trace_seq: self.trace_seq,
                    summary: HostSummary {
                        frames: self.stats.frames,
                        entries: self.stats.entries,
                        full_syncs: self.stats.full_syncs,
                        resyncs: self.stats.resyncs,
                        deltas_coalesced: self.stats.deltas_coalesced,
                        acks_fenced: self.stats.acks_fenced,
                        journal_io_errors: self.journal_io_errors,
                    },
                },
                entries: chunk.to_vec(),
                removed: frame_removed.unwrap_or_default().to_vec(),
            }));
            self.seq += 1;
            first = false;
        }
        if full {
            self.stats.full_syncs += 1;
            self.pending_full = false;
        }
    }

    pub(crate) fn take_frames(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.outbox)
    }
    pub(crate) fn handle_ack(&mut self, ack: &Ack) -> AckDisposition {
        if ack.host != self.host {
            return AckDisposition::Ignored;
        }
        if ack.ctl_epoch < self.ctl_epoch_seen {
            self.stats.acks_fenced += 1;
            return AckDisposition::Fenced;
        }
        self.ctl_epoch_seen = ack.ctl_epoch;
        if ack.not_leader {
            return AckDisposition::NotLeader;
        }
        if let Some(p) = &ack.policy {
            if p.epoch > self.policy.epoch {
                self.policy = *p;
                self.stats.policy_updates += 1;
            }
        }
        if ack.resync && !self.pending_full {
            self.pending_full = true;
            self.stats.resyncs += 1;
        }
        AckDisposition::Applied
    }
    pub(crate) fn on_reconnect(&mut self) {
        self.said_hello = false;
        if !self.pending_full {
            self.pending_full = true;
        }
        self.stats.failovers += 1;
    }
}

/// host → container → entry; a host with no containers stays listed.
pub(crate) type Index = BTreeMap<u32, BTreeMap<u32, DeltaEntry>>;

/// Containers a checkpoint batch carries: the default policy's
/// `max_batch`, as a periphery chunks a FULL.
const CHECKPOINT_BATCH: usize = 256;

/// One record of the controller's journal as the reference sees it:
/// what it does to an index, and how many bytes it frames to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RefRecord {
    /// A reset marker: the index empties.
    Reset,
    /// One host batch.
    Batch {
        host: u32,
        full: bool,
        /// One host's part of a checkpoint: counts as no view record.
        checkpoint: bool,
        entries: Vec<DeltaEntry>,
        removed: Vec<u32>,
    },
}

impl RefRecord {
    /// Framed bytes: length word, kind, body, CRC.
    pub(crate) fn len(&self) -> usize {
        match self {
            RefRecord::Reset => 4 + 1 + 8 + 4 + 4,
            RefRecord::Batch {
                entries, removed, ..
            } => {
                let tail = 4 + ENTRY_BYTES * entries.len() + 4 + 4 * removed.len();
                4 + 1 + BATCH_HEAD_BYTES + tail + 4
            }
        }
    }

    /// Apply to `index` the way the controller is specified to — a FULL
    /// drops the absent ids, then `removed` is dropped, then the entries
    /// are upserted in order — and return the view records it is worth.
    pub(crate) fn apply(&self, index: &mut Index) -> u64 {
        match self {
            RefRecord::Reset => {
                index.clear();
                1
            }
            RefRecord::Batch {
                host,
                full,
                checkpoint,
                entries,
                removed,
            } => {
                let containers = index.entry(*host).or_default();
                let before = containers.len();
                if *full {
                    containers.retain(|id, _| entries.iter().any(|e| e.id == *id));
                }
                for id in removed {
                    containers.remove(id);
                }
                let dropped = before - containers.len();
                for e in entries {
                    containers.insert(e.id, *e);
                }
                if *checkpoint {
                    0
                } else {
                    (entries.len() + dropped) as u64
                }
            }
        }
    }
}

/// The index as a checkpoint carries it: a reset marker, then each host
/// holding containers, in chunks, the first one FULL.
pub(crate) fn checkpoint_of(index: &Index) -> Vec<RefRecord> {
    let mut records = vec![RefRecord::Reset];
    for (host, containers) in index {
        let all: Vec<DeltaEntry> = containers.values().copied().collect();
        for (i, part) in all.chunks(CHECKPOINT_BATCH).enumerate() {
            records.push(RefRecord::Batch {
                host: *host,
                full: i == 0,
                checkpoint: true,
                entries: part.to_vec(),
                removed: Vec::new(),
            });
        }
    }
    records
}

/// What `records` leave in an empty index.
pub(crate) fn replay(records: &[RefRecord]) -> Index {
    let mut index = Index::new();
    for r in records {
        r.apply(&mut index);
    }
    index
}

#[derive(Default)]
pub(crate) struct RecordHost {
    pub(crate) expected_seq: u64,
    pub(crate) needs_resync: bool,
}

/// A REPL frame as the reference drains it: its records, and its byte
/// length.
pub(crate) struct RefFrame {
    pub(crate) records: Vec<RefRecord>,
    pub(crate) len: usize,
}

/// A journaling, replicating primary over `BTreeMap`s: the journal and
/// the outbox are lists of [`RefRecord`]s.
pub(crate) struct RecordPrimary {
    pub(crate) hosts: BTreeMap<u32, RecordHost>,
    pub(crate) index: Index,
    /// The journal's records, from its last checkpoint on.
    pub(crate) journal: Vec<RefRecord>,
    every: u64,
    last_checkpoint: u64,
    now: u64,
    outbox: Vec<RefRecord>,
    /// View records the outbox holds.
    outbox_records: u64,
    heard: BTreeSet<u32>,
    send_snapshot: bool,
    pub(crate) streamed: u64,
}

impl RecordPrimary {
    /// Journal on, checkpointing every `every` ticks; replication on.
    pub(crate) fn new(every: u64) -> RecordPrimary {
        RecordPrimary {
            hosts: BTreeMap::new(),
            index: Index::new(),
            journal: vec![RefRecord::Reset],
            every,
            last_checkpoint: 0,
            now: 0,
            outbox: Vec::new(),
            outbox_records: 0,
            heard: BTreeSet::new(),
            send_snapshot: true,
            streamed: 0,
        }
    }

    /// Apply one DELTA; whether it was accepted (else the ACK demands a
    /// resync).
    pub(crate) fn handle_delta(&mut self, d: &Delta) -> bool {
        let head = &d.head;
        let host = self.hosts.entry(head.host).or_default();
        self.index.entry(head.host).or_default();
        if !(head.full || (head.seq == host.expected_seq && !host.needs_resync)) {
            host.needs_resync = true;
            return false;
        }
        if head.full {
            host.needs_resync = false;
            host.expected_seq = head.seq + 1;
        } else {
            host.expected_seq += 1;
        }
        let record = RefRecord::Batch {
            host: head.host,
            full: head.full,
            checkpoint: false,
            entries: d.entries.clone(),
            removed: d.removed.clone(),
        };
        self.outbox_records += record.apply(&mut self.index);
        self.heard.insert(head.host);
        if head.full || !d.entries.is_empty() || !d.removed.is_empty() {
            self.journal.push(record.clone());
            self.outbox.push(record);
        }
        true
    }

    /// One aggregation period: checkpoint on the cadence.
    pub(crate) fn advance_tick(&mut self) {
        self.now += 1;
        if self.now - self.last_checkpoint >= self.every {
            self.journal = checkpoint_of(&self.index);
            self.last_checkpoint = self.now;
        }
    }

    /// Drain the outbox into REPL frames, chunked at record boundaries
    /// under the frame budget, the heard list on the last — or on a
    /// frame of its own after it, when the last record fills a frame.
    pub(crate) fn take_repl_frames(&mut self) -> Vec<RefFrame> {
        if self.send_snapshot {
            self.send_snapshot = false;
            self.outbox = checkpoint_of(&self.index);
            self.outbox_records = 1;
        }
        if self.outbox.is_empty() && self.heard.is_empty() {
            return Vec::new();
        }
        self.streamed += std::mem::take(&mut self.outbox_records);
        let heard = std::mem::take(&mut self.heard).len();
        let budget = (MAX_FLEET_FRAME as usize).saturating_sub(64 + 4 * heard);
        let mut frames = Vec::new();
        let mut cur: Vec<RefRecord> = Vec::new();
        let bytes = |records: &[RefRecord]| records.iter().map(RefRecord::len).sum::<usize>();
        for rec in std::mem::take(&mut self.outbox) {
            if !cur.is_empty() && bytes(&cur) + rec.len() > budget {
                let len = REPL_HEAD_BYTES + bytes(&cur);
                frames.push(RefFrame {
                    records: std::mem::take(&mut cur),
                    len,
                });
            }
            cur.push(rec);
        }
        if bytes(&cur) > budget {
            let len = REPL_HEAD_BYTES + bytes(&cur);
            frames.push(RefFrame {
                records: std::mem::take(&mut cur),
                len,
            });
        }
        let len = REPL_HEAD_BYTES + 4 * heard + bytes(&cur);
        frames.push(RefFrame { records: cur, len });
        frames
    }

    /// Fold a standby's ACK back in.
    pub(crate) fn handle_repl_ack(&mut self, ack: &Ack) {
        if ack.resync {
            self.send_snapshot = true;
        }
    }
}

/// A standby over `BTreeMap`s, fed the real frame's bytes (for its
/// header and how many of its record bytes arrived) beside the
/// reference's records for it.
pub(crate) struct RecordStandby {
    pub(crate) index: Index,
    pub(crate) expected_seq: u64,
    need_snapshot: bool,
    pub(crate) applied: u64,
    pub(crate) truncated: u64,
}

impl RecordStandby {
    pub(crate) fn new() -> RecordStandby {
        RecordStandby {
            index: Index::new(),
            expected_seq: 0,
            need_snapshot: false,
            applied: 0,
            truncated: 0,
        }
    }

    /// Apply the whole records of `records` that `frame` (possibly torn)
    /// still holds; the ACK's `(expected_seq, resync)`, or `None` if the
    /// frame does not decode.
    pub(crate) fn handle_repl(
        &mut self,
        frame: &[u8],
        records: &[RefRecord],
    ) -> Option<(u64, bool)> {
        let Some(Frame::Repl(r)) = decode_frame(frame) else {
            return None;
        };
        let (mut whole, mut end) = (0, 0);
        while let Some(rec) = records.get(whole) {
            if end + rec.len() > r.records.len() {
                break;
            }
            end += rec.len();
            whole += 1;
        }
        let records = &records[..whole];
        let checkpoint_led = records.first() == Some(&RefRecord::Reset);
        let in_order = r.repl_seq == self.expected_seq && !self.need_snapshot;
        if !in_order && !checkpoint_led {
            self.need_snapshot = true;
            return Some((self.expected_seq, true));
        }
        self.expected_seq = r.repl_seq + 1;
        for rec in records {
            self.applied += rec.apply(&mut self.index);
        }
        let torn = end < r.records.len();
        self.truncated += u64::from(torn);
        self.need_snapshot = torn;
        Some((self.expected_seq, torn))
    }
}
