//! Reference implementations the differential tests compare against:
//! the `HashMap` periphery diff that the merge-walk replaced, and the
//! record-at-a-time journal / REPL / standby path that batch framing
//! replaced. Test-only; kept apart from the code under test on purpose.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use arv_persist::{decode_records, encode_record, Journal, Record, Snapshot, ViewState};

use crate::periphery::{AckDisposition, PeripheryStats};
use crate::protocol::{
    decode_frame, encode_delta, encode_hello, encode_repl_parts, Ack, Delta, DeltaEntry,
    FleetPolicy, Frame, Hello, HostSummary, HEALTH_DEGRADED, HEALTH_DURABILITY_LOST, HEALTH_FRESH,
    HEALTH_STALE, MAX_FLEET_FRAME,
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
                containers: snap.entries.len() as u32,
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
                last_tick: s.last_tick,
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
        let mut removed: Vec<u32> = std::mem::take(&mut self.pending_removed)
            .into_iter()
            .collect();

        let batch = self.policy.max_batch.max(1) as usize;
        let mut first = true;
        let mut rest = entries.as_slice();
        loop {
            let take = rest.len().min(batch);
            let (chunk, tail) = rest.split_at(take);
            let frame_removed = if first || tail.is_empty() {
                std::mem::take(&mut removed)
            } else {
                Vec::new()
            };
            self.stats.frames += 1;
            self.stats.entries += chunk.len() as u64;
            self.trace_seq += 1;
            self.outbox.push(encode_delta(&Delta {
                host: self.host,
                seq: self.seq,
                tick: snap.tick,
                full: full && first,
                health,
                durability_lost: self.durability_lost,
                staleness_age,
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
                entries: chunk.to_vec(),
                removed: frame_removed,
            }));
            self.seq += 1;
            first = false;
            rest = tail;
            if rest.is_empty() {
                break;
            }
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

const TICK_MASK: u64 = (1 << 48) - 1;

/// `host << 16 | container`, or `None` if either does not fit 16 bits.
fn packed_id(host: u32, container: u32) -> Option<u32> {
    (host <= 0xFFFF && container <= 0xFFFF).then_some((host << 16) | container)
}

/// The journalable form of a container's entry, if its ids fit.
fn packed(host: u32, e: &DeltaEntry) -> Option<ViewState> {
    Some(ViewState {
        id: packed_id(host, e.id)?,
        e_cpu: e.e_cpu,
        e_mem: e.e_mem,
        e_avail: e.e_avail,
        last_tick: (u64::from(e.tenant) << 48) | (e.last_tick & TICK_MASK),
    })
}

/// host → container → entry; iteration is in packed-id order.
pub(crate) type Index = BTreeMap<u32, BTreeMap<u32, DeltaEntry>>;

/// The index as a checkpoint carries it.
pub(crate) fn snapshot_of(index: &Index, tick: u64) -> Snapshot {
    let mut snap = Snapshot::at(tick);
    for (host, containers) in index {
        snap.entries
            .extend(containers.values().filter_map(|e| packed(*host, e)));
    }
    snap
}

#[derive(Default)]
pub(crate) struct RecordHost {
    pub(crate) expected_seq: u64,
    pub(crate) needs_resync: bool,
}

/// A journaling, replicating primary as it was when every record was
/// encoded on its own: one `Journal::append_*` and one `encode_record`
/// per record, the outbox a `Vec` of record `Vec`s.
pub(crate) struct RecordPrimary {
    pub(crate) hosts: BTreeMap<u32, RecordHost>,
    pub(crate) index: Index,
    pub(crate) journal: Journal,
    every: u64,
    last_checkpoint: u64,
    now: u64,
    outbox: Vec<Vec<u8>>,
    heard: BTreeSet<u32>,
    next_seq: u64,
    send_snapshot: bool,
    pub(crate) streamed: u64,
}

impl RecordPrimary {
    /// Journal on, checkpointing every `every` ticks; replication on.
    pub(crate) fn new(every: u64) -> RecordPrimary {
        let mut journal = Journal::new();
        journal.checkpoint(&Snapshot::at(0)).expect("mem store");
        RecordPrimary {
            hosts: BTreeMap::new(),
            index: Index::new(),
            journal,
            every,
            last_checkpoint: 0,
            now: 0,
            outbox: Vec::new(),
            heard: BTreeSet::new(),
            next_seq: 0,
            send_snapshot: true,
            streamed: 0,
        }
    }

    /// Apply one DELTA; whether it was accepted (else the ACK demands a
    /// resync).
    pub(crate) fn handle_delta(&mut self, d: &Delta) -> bool {
        let host = self.hosts.entry(d.host).or_default();
        let containers = self.index.entry(d.host).or_default();
        if !(d.full || (d.seq == host.expected_seq && !host.needs_resync)) {
            host.needs_resync = true;
            return false;
        }
        let mut removals: Vec<u32> = Vec::new();
        if d.full {
            // The replaced code took these in `HashMap` order; any order
            // was right, so the reference fixes the sorted one.
            removals.extend(
                containers
                    .keys()
                    .filter(|id| !d.entries.iter().any(|e| e.id == **id)),
            );
            for id in &removals {
                containers.remove(id);
            }
            host.needs_resync = false;
            host.expected_seq = d.seq + 1;
        } else {
            host.expected_seq += 1;
        }
        for id in &d.removed {
            if containers.remove(id).is_some() {
                removals.push(*id);
            }
        }
        for e in &d.entries {
            containers.insert(e.id, *e);
        }
        self.heard.insert(d.host);
        for id in removals.iter().filter_map(|id| packed_id(d.host, *id)) {
            self.journal.append_remove(id).expect("mem store");
            self.outbox.push(encode_record(&Record::Remove(id)));
        }
        for state in d.entries.iter().filter_map(|e| packed(d.host, e)) {
            let tick = self.now;
            self.journal.append_delta(&state, tick).expect("mem store");
            self.outbox
                .push(encode_record(&Record::Delta { state, tick }));
        }
        true
    }

    /// One aggregation period: group-commit, checkpoint on the cadence.
    pub(crate) fn advance_tick(&mut self) {
        self.now += 1;
        self.journal.sync().expect("mem store");
        if self.now - self.last_checkpoint >= self.every {
            let snap = snapshot_of(&self.index, self.now);
            self.journal.checkpoint(&snap).expect("mem store");
            self.last_checkpoint = self.now;
        }
    }

    /// Drain the outbox into REPL frames, record `Vec` by record `Vec`.
    pub(crate) fn take_repl_frames(&mut self) -> Vec<Vec<u8>> {
        if self.send_snapshot {
            self.send_snapshot = false;
            self.outbox.clear();
            let snap = snapshot_of(&self.index, self.now);
            self.outbox.push(encode_record(&Record::Checkpoint(snap)));
        }
        if self.outbox.is_empty() && self.heard.is_empty() {
            return Vec::new();
        }
        let records = std::mem::take(&mut self.outbox);
        let heard: Vec<u32> = std::mem::take(&mut self.heard).into_iter().collect();
        self.streamed += records.len() as u64;
        let budget = (MAX_FLEET_FRAME as usize).saturating_sub(64 + 4 * heard.len());
        let mut frames = Vec::new();
        let mut frame = |heard: Vec<u32>, records: Vec<u8>| {
            frames.push(encode_repl_parts(
                0,
                self.next_seq,
                self.now,
                &heard,
                &records,
            ));
            self.next_seq += 1;
        };
        let mut cur: Vec<u8> = Vec::new();
        for rec in records {
            if !cur.is_empty() && cur.len() + rec.len() > budget {
                frame(Vec::new(), std::mem::take(&mut cur));
            }
            cur.extend_from_slice(&rec);
        }
        frame(heard, cur);
        frames
    }

    /// Fold a standby's ACK back in.
    pub(crate) fn handle_repl_ack(&mut self, ack: &Ack) {
        if ack.resync {
            self.send_snapshot = true;
            self.next_seq = self.next_seq.max(ack.expected_seq);
        }
    }
}

/// A shadow-journaling standby as it was when every applied record was
/// looked up, applied and re-encoded on its own.
pub(crate) struct RecordStandby {
    pub(crate) index: Index,
    pub(crate) journal: Journal,
    pub(crate) expected_seq: u64,
    need_snapshot: bool,
    pub(crate) applied: u64,
    pub(crate) truncated: u64,
}

impl RecordStandby {
    pub(crate) fn new() -> RecordStandby {
        let mut journal = Journal::new();
        journal.checkpoint(&Snapshot::at(0)).expect("mem store");
        RecordStandby {
            index: Index::new(),
            journal,
            expected_seq: 0,
            need_snapshot: false,
            applied: 0,
            truncated: 0,
        }
    }

    fn upsert(&mut self, e: &ViewState) {
        let entry = DeltaEntry {
            id: e.id & 0xFFFF,
            tenant: (e.last_tick >> 48) as u32,
            e_cpu: e.e_cpu,
            e_mem: e.e_mem,
            e_avail: e.e_avail,
            last_tick: e.last_tick & TICK_MASK,
        };
        self.index
            .entry(e.id >> 16)
            .or_default()
            .insert(entry.id, entry);
    }

    /// Apply one REPL frame; the ACK's `(expected_seq, resync)`, or
    /// `None` if the frame does not decode.
    pub(crate) fn handle_repl(&mut self, frame: &[u8]) -> Option<(u64, bool)> {
        let Some(Frame::Repl(r)) = decode_frame(frame) else {
            return None;
        };
        let scan = decode_records(&r.records);
        let checkpoint_led = matches!(scan.records.first(), Some(Record::Checkpoint(_)));
        let in_order = r.repl_seq == self.expected_seq && !self.need_snapshot;
        if !in_order && !checkpoint_led {
            self.need_snapshot = true;
            return Some((self.expected_seq, true));
        }
        self.expected_seq = r.repl_seq + 1;
        self.need_snapshot = false;
        for record in &scan.records {
            match record {
                Record::Checkpoint(snap) => {
                    self.index.clear();
                    for e in &snap.entries {
                        self.upsert(e);
                    }
                    self.journal.checkpoint(snap)
                }
                Record::Delta { state, tick } => {
                    self.upsert(state);
                    self.journal.append_delta(state, *tick)
                }
                Record::Remove(packed) => {
                    if let Some(containers) = self.index.get_mut(&(packed >> 16)) {
                        containers.remove(&(packed & 0xFFFF));
                    }
                    self.journal.append_remove(*packed)
                }
            }
            .expect("mem store");
        }
        self.journal.sync().expect("mem store");
        self.applied += scan.records.len() as u64;
        if scan.truncated > 0 {
            self.truncated += 1;
            self.need_snapshot = true;
        }
        Some((self.expected_seq, scan.truncated > 0))
    }
}
