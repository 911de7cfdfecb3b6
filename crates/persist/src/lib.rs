//! Crash-safe persistence for adaptive resource views.
//!
//! The `ns_monitor` of the paper is a system-wide daemon: when it
//! restarts, every container's view would collapse back to the static
//! lower bounds until dynamic adjustment re-converges. This crate keeps
//! that from happening. A [`Journal`] records view state as a
//! **versioned, checksummed, append-only byte log**: periodic compacted
//! [checkpoints](Journal::checkpoint) carrying the full registry
//! snapshot, with per-container [deltas](Journal::append_delta) and
//! [removals](Journal::append_remove) appended in between. On restart,
//! [`restore`] replays the log back into a [`Snapshot`].
//!
//! # Wire format
//!
//! ```text
//! header  := magic:u32le ("AVRJ") | version:u32le
//! record  := len:u32le | body:[u8; len] | crc32:u32le
//! body    := kind:u8 | payload
//! ```
//!
//! The CRC32 (IEEE, reflected, polynomial `0xEDB88320`) covers the
//! length prefix *and* the body, so a torn length word is caught too.
//!
//! Two formats share the framing; the header's version says which one a
//! file holds, and a reader refuses the other:
//!
//! - **[`VERSION`] 1, a host journal.** Kind 1 is a checkpoint (`tick
//!   u64 | count u32 | count × state`, replacing all prior state), kind 2
//!   one container's refreshed view (`tick u64 | state`), kind 3 a
//!   removal (`id u32`); `state := id u32 | e_cpu u32 | e_mem u64 |
//!   e_avail u64 | last_tick u64`. [`restore`] folds them into a
//!   [`Snapshot`].
//! - **[`BATCH_VERSION`] 3, a batch journal.** A checkpoint record with
//!   no entries is a *reset marker* (everything before it is superseded;
//!   its tick is the checkpoint's), and kind 4 ([`KIND_HOST_BATCH`]) is
//!   a *host batch* whose body this crate does not read: its owner (the
//!   fleet controller) lays it out and applies it. Such a journal is
//!   walked with [`journal_records`].
//!
//! [`records`] walks any stream of records, verified one by one, and
//! yields each as a `(kind, body)` slice of the input.
//!
//! # Crash tolerance
//!
//! A journal may be cut at **any byte offset** (torn tail after a
//! crash) or contain flipped bits. [`restore`] never panics: it decodes
//! records until the first frame that is truncated or fails its
//! checksum, drops everything from that frame on, and reports how many
//! trailing records were discarded. The result is always
//! *prefix-consistent* — the state after applying some prefix of the
//! records that were written.
//!
//! # Storage faults and the fsync model
//!
//! The byte file underneath a [`Journal`] or [`lease::LeaseFile`] is a
//! pluggable [`store::Store`]: appends, syncs, and truncations return
//! `io::Result`-shaped errors, and only bytes covered by a successful
//! `sync` survive a crash (the unsynced tail is lost, exactly like an
//! un-fsynced file). [`store::MemStore`] keeps the historical
//! infallible behaviour; [`store::FaultyStore`] injects seeded torn
//! appends, write errors, disk-full windows, bit rot, and sync stalls
//! so every consumer's durability degradation path is testable.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32;
pub mod store;

pub use store::{FaultyStore, MemStore, Store, StoreError, StoreFaultStats, StoreFaults};

/// File magic: `b"AVRJ"` as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"AVRJ");
/// Format version of a host journal: checkpoint, delta and removal
/// records.
pub const VERSION: u32 = 1;
/// Format version of a batch journal: reset markers and host batches.
/// Their owner lays the batches out, and the version moves when their
/// layout does.
pub const BATCH_VERSION: u32 = 3;
/// Upper bound on a single record body (corrupt length words must not
/// cause huge allocations during restore).
pub const MAX_RECORD: usize = 1 << 20;

/// Bytes of a journal file's header: magic, then version.
const HEADER_BYTES: usize = 8;

/// The header a journal of format `version` starts with.
fn header(version: u32) -> [u8; HEADER_BYTES] {
    (u64::from(version) << 32 | u64::from(MAGIC)).to_le_bytes()
}

/// Record kind: a checkpoint (in a batch journal, a reset marker).
pub const KIND_CHECKPOINT: u8 = 1;
const KIND_DELTA: u8 = 2;
const KIND_REMOVE: u8 = 3;
/// Record kind: a host batch, opaque to this crate.
pub const KIND_HOST_BATCH: u8 = 4;

/// One decoded host-journal record, as [`restore`] folds it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Record {
    Checkpoint(Snapshot),
    Delta { state: ViewState, tick: u64 },
    Remove(u32),
}

/// Bytes of one encoded [`ViewState`].
const STATE_BYTES: usize = 32;

/// The one record writer: append `len | body | crc32` to `out` in
/// place. `body` writes the record body straight into `out`; the length
/// word is patched and the CRC taken over the slice just written, so a
/// record costs no buffer of its own. Every consumer — [`Journal`], a
/// replication stream, a standby's shadow journal — takes these bytes.
fn frame(out: &mut Vec<u8>, body_len: usize, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.reserve(body_len + 8);
    out.extend_from_slice(&[0; 4]);
    body(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32::checksum(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Append one framed delta record (a container's refreshed view at
/// `tick`) to `out`.
pub fn frame_delta(out: &mut Vec<u8>, state: &ViewState, tick: u64) {
    frame(out, 1 + 8 + STATE_BYTES, |b| {
        b.push(KIND_DELTA);
        b.extend_from_slice(&tick.to_le_bytes());
        encode_state(b, state);
    });
}

/// Append one framed removal record to `out`.
pub fn frame_remove(out: &mut Vec<u8>, id: u32) {
    frame(out, 1 + 4, |b| {
        b.push(KIND_REMOVE);
        b.extend_from_slice(&id.to_le_bytes());
    });
}

/// Append one framed checkpoint record (a full snapshot) to `out`; a
/// snapshot with no entries is a batch journal's reset marker.
pub fn frame_checkpoint(out: &mut Vec<u8>, snap: &Snapshot) {
    frame(out, checkpoint_body_len(snap), |b| {
        b.push(KIND_CHECKPOINT);
        b.extend_from_slice(&snap.tick.to_le_bytes());
        b.extend_from_slice(&(snap.entries.len() as u32).to_le_bytes());
        for e in &snap.entries {
            encode_state(b, e);
        }
    });
}

fn checkpoint_body_len(snap: &Snapshot) -> usize {
    1 + 8 + 4 + snap.entries.len() * STATE_BYTES
}

/// Append one framed host-batch record to `out`: the kind byte, then the
/// `body_len` bytes `body` writes, which this crate never reads.
pub fn frame_host_batch(out: &mut Vec<u8>, body_len: usize, body: impl FnOnce(&mut Vec<u8>)) {
    frame(out, 1 + body_len, |b| {
        b.push(KIND_HOST_BATCH);
        body(b);
    });
}

/// The tick of a reset marker's body: a checkpoint record with no
/// entries. `None` for any other body.
pub fn reset_tick(body: &[u8]) -> Option<u64> {
    let (tick, count) = (body.get(..8)?, body.get(8..)?);
    (count == [0; 4]).then(|| u64::from_le_bytes(tick.try_into().unwrap_or_default()))
}

/// Byte length of the framed record at the head of `bytes`, read off its
/// length word (`None` if `bytes` ends before the record does). Walks a
/// stream of records without decoding them; verifies nothing.
pub fn framed_len(bytes: &[u8]) -> Option<usize> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let end = len.checked_add(8)?;
    (end <= bytes.len()).then_some(end)
}

/// A walk over a bare stream of CRC-framed records (no file header), as
/// a journal holds them after its header and a replication frame
/// carries them. Each step verifies one record and yields its kind and
/// body, borrowed from the stream; nothing is allocated. The walk stops
/// at the first record that is torn, longer than [`MAX_RECORD`], empty,
/// or fails its CRC, and [`torn`](Records::torn) then says so. Never
/// panics, for any input bytes.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    bytes: &'a [u8],
    pos: usize,
    torn: bool,
}

/// Walk the records of `bytes` (see [`Records`]).
pub fn records(bytes: &[u8]) -> Records<'_> {
    Records {
        bytes,
        pos: 0,
        torn: false,
    }
}

impl<'a> Records<'a> {
    /// Bytes of the stream walked so far: the verified prefix, always a
    /// whole number of records.
    pub fn verified_len(&self) -> usize {
        self.pos
    }

    /// Whether the walk stopped at a torn or corrupt record (everything
    /// from it on is dropped) rather than at the end of the stream.
    pub fn torn(&self) -> bool {
        self.torn
    }

    fn verify(&self) -> Option<(u8, &'a [u8], usize)> {
        let rest = &self.bytes[self.pos..];
        let len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
        if len == 0 || len > MAX_RECORD {
            return None;
        }
        let body = rest.get(4..4 + len)?;
        let crc = rest.get(4 + len..8 + len)?;
        if crc32::checksum(&rest[..4 + len]).to_le_bytes() != crc {
            return None;
        }
        Some((body[0], &body[1..], 8 + len))
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = (u8, &'a [u8]);

    fn next(&mut self) -> Option<(u8, &'a [u8])> {
        if self.torn || self.pos == self.bytes.len() {
            return None;
        }
        match self.verify() {
            Some((kind, body, len)) => {
                self.pos += len;
                Some((kind, body))
            }
            None => {
                self.torn = true;
                None
            }
        }
    }
}

/// A journal refused for its header: it is not the format asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForeignJournal {
    /// The first eight bytes found where the header should be (fewer
    /// if the bytes end sooner).
    pub found: [u8; HEADER_BYTES],
}

impl std::fmt::Display for ForeignJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "not a journal of the expected format: header {:02x?}",
            self.found
        )
    }
}

impl std::error::Error for ForeignJournal {}

/// The records of a journal of format `version`: a walk over everything
/// after its header. A journal cut inside its own header holds no
/// records; any other header is refused, before any record is read.
pub fn journal_records(bytes: &[u8], version: u32) -> Result<Records<'_>, ForeignJournal> {
    let want = header(version);
    let head = &bytes[..bytes.len().min(HEADER_BYTES)];
    if !want.starts_with(head) {
        let mut found = [0; HEADER_BYTES];
        found[..head.len()].copy_from_slice(head);
        return Err(ForeignJournal { found });
    }
    Ok(records(&bytes[head.len()..]))
}

/// Decode one host-journal record; `None` if it is of no kind this
/// version knows — a later format, or corruption the CRC happened to
/// miss. The prefix before it is good.
fn decode_record(kind: u8, body: &[u8]) -> Option<Record> {
    let mut rc = Cursor {
        bytes: body,
        pos: 0,
    };
    match kind {
        KIND_CHECKPOINT => decode_checkpoint(&mut rc).map(Record::Checkpoint),
        KIND_DELTA => {
            let tick = rc.u64()?;
            decode_state(&mut rc).map(|state| Record::Delta { state, tick })
        }
        KIND_REMOVE => rc.u32().map(Record::Remove),
        _ => None,
    }
}

/// The persisted view state of one container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewState {
    /// Cgroup id of the container.
    pub id: u32,
    /// Effective CPU count the dynamic loop had converged to.
    pub e_cpu: u32,
    /// Effective memory limit, bytes.
    pub e_mem: u64,
    /// Available (free-as-seen) memory, bytes.
    pub e_avail: u64,
    /// Update-timer tick of the last view refresh.
    pub last_tick: u64,
}

/// A full registry snapshot at one point in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Update-timer tick the snapshot was taken at.
    pub tick: u64,
    /// Per-container states, kept sorted by container id.
    pub entries: Vec<ViewState>,
}

impl Snapshot {
    /// A snapshot taken at `tick` with no containers.
    pub fn at(tick: u64) -> Snapshot {
        Snapshot {
            tick,
            entries: Vec::new(),
        }
    }

    /// Look up a container's persisted state.
    pub fn get(&self, id: u32) -> Option<&ViewState> {
        self.entries
            .binary_search_by_key(&id, |e| e.id)
            .ok()
            .map(|i| &self.entries[i])
    }

    fn upsert(&mut self, state: ViewState) {
        match self.entries.binary_search_by_key(&state.id, |e| e.id) {
            Ok(i) => self.entries[i] = state,
            Err(i) => self.entries.insert(i, state),
        }
    }

    fn remove(&mut self, id: u32) {
        if let Ok(i) = self.entries.binary_search_by_key(&id, |e| e.id) {
            self.entries.remove(i);
        }
    }
}

/// What a [`restore`] recovered from a journal's bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Last-good snapshot with all decodable deltas applied, or `None`
    /// if no complete checkpoint survived.
    pub snapshot: Option<Snapshot>,
    /// Records dropped because they were torn or failed their CRC
    /// (everything from the first bad frame to the end of the buffer
    /// counts as one truncation event plus the bad frame itself).
    pub truncated_records: u64,
    /// Deltas applied on top of the checkpoint.
    pub applied_deltas: u64,
    /// Removals applied on top of the checkpoint.
    pub applied_removes: u64,
}

/// An append-only, checksummed journal of view-state changes.
///
/// The backing file is a pluggable [`Store`]: the default
/// [`Journal::new`] sits on an infallible [`MemStore`] (the
/// simulation's stand-in for the daemon's state file), while
/// [`Journal::with_store`] accepts any store — including a seeded
/// [`FaultyStore`] — so every append or checkpoint can fail with an
/// `io::Result`-shaped [`StoreError`]. [`Journal::checkpoint`]
/// *compacts*: it rewrites the file as `header + one checkpoint
/// record`, so the journal's size is bounded by checkpoint cadence
/// rather than uptime. Appends are group-committed: callers
/// [`sync`](Journal::sync) once per tick, and only synced bytes
/// ([`durable_bytes`](Journal::durable_bytes)) survive a crash.
/// [`DurableJournal`] adds the durability ladder on top.
#[derive(Debug)]
pub struct Journal {
    store: Box<dyn Store>,
    /// Where single records are framed before they go to the store.
    scratch: Vec<u8>,
    /// The header this journal's file starts with: its format.
    header: [u8; HEADER_BYTES],
    /// Whether the store holds a synced header; until it does, each
    /// checkpoint lays one.
    headed: bool,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new()
    }
}

impl Journal {
    /// An empty journal on an infallible in-memory store.
    pub fn new() -> Journal {
        Journal::with_store(Box::new(MemStore::new())).0
    }

    /// An empty host journal ([`VERSION`]) on `store`: the file is reset
    /// to the format header, and the second value says whether the store
    /// took it. A refused header keeps the store: the next
    /// [`checkpoint`](Journal::checkpoint) lays the header with its
    /// record, so the journal is durable again once the store is.
    pub fn with_store(store: Box<dyn Store>) -> (Journal, Result<(), StoreError>) {
        Journal::with_store_version(store, VERSION)
    }

    /// [`with_store`](Journal::with_store) for a journal of format
    /// `version` ([`VERSION`] or [`BATCH_VERSION`]).
    fn with_store_version(
        store: Box<dyn Store>,
        version: u32,
    ) -> (Journal, Result<(), StoreError>) {
        let mut journal = Journal {
            store,
            scratch: Vec::new(),
            header: header(version),
            headed: false,
        };
        let header = journal.lay_header();
        (journal, header)
    }

    fn lay_header(&mut self) -> Result<(), StoreError> {
        self.store.truncate(0)?;
        self.store.append(&self.header)?;
        self.store.sync()?;
        self.headed = true;
        Ok(())
    }

    /// The live journal bytes (header + records), synced or not.
    pub fn as_bytes(&self) -> &[u8] {
        self.store.read()
    }

    /// The bytes that would survive a crash: the synced prefix.
    pub fn durable_bytes(&self) -> &[u8] {
        self.store.durable()
    }

    /// Size of the live journal in bytes.
    pub fn len(&self) -> usize {
        self.store.read().len()
    }

    /// Whether the journal holds only the header (or less).
    pub fn is_empty(&self) -> bool {
        self.store.read().len() <= HEADER_BYTES
    }

    /// Write a compacted checkpoint: the file is reset to the header
    /// plus this single snapshot record, discarding older history, and
    /// synced through to the medium. A journal whose header the store
    /// refused writes the header too, in the same append. A snapshot
    /// whose record would exceed [`MAX_RECORD`] — one [`restore`] could
    /// not read back — is refused with [`StoreError::RecordTooLarge`]
    /// before the file is touched.
    pub fn checkpoint(&mut self, snap: &Snapshot) -> Result<(), StoreError> {
        if checkpoint_body_len(snap) > MAX_RECORD {
            return Err(StoreError::RecordTooLarge);
        }
        // A snapshot's worth of bytes, once per cadence: not worth
        // keeping in `scratch` between checkpoints.
        let mut record = Vec::new();
        frame_checkpoint(&mut record, snap);
        self.compact(&record)
    }

    /// Compact the file to the header plus `records`, already framed
    /// and led by a checkpoint record, in one append, synced through to
    /// the medium. A journal whose header the store refused writes the
    /// header too, in the same append.
    fn compact(&mut self, records: &[u8]) -> Result<(), StoreError> {
        if self.headed {
            self.store.truncate(HEADER_BYTES)?;
            self.store.append(records)?;
        } else {
            self.store.truncate(0)?;
            let mut buf = Vec::with_capacity(HEADER_BYTES + records.len());
            buf.extend_from_slice(&self.header);
            buf.extend_from_slice(records);
            self.store.append(&buf)?;
        }
        self.store.sync()?;
        self.headed = true;
        Ok(())
    }

    /// Append one container's refreshed view (unsynced until the next
    /// [`sync`](Journal::sync) or checkpoint).
    pub fn append_delta(&mut self, state: &ViewState, tick: u64) -> Result<(), StoreError> {
        self.scratch.clear();
        frame_delta(&mut self.scratch, state, tick);
        self.store.append(&self.scratch)
    }

    /// Append a container removal (unsynced until the next
    /// [`sync`](Journal::sync) or checkpoint).
    pub fn append_remove(&mut self, id: u32) -> Result<(), StoreError> {
        self.scratch.clear();
        frame_remove(&mut self.scratch, id);
        self.store.append(&self.scratch)
    }

    /// Append a batch of records already framed by [`frame_delta`] /
    /// [`frame_remove`] / [`frame_host_batch`] (or the verified prefix
    /// of a [`records`] walk) with **one** store write, unsynced until
    /// the next [`sync`](Journal::sync) or checkpoint. A write the store
    /// tears leaves a prefix of the batch behind, which a reader walks
    /// as its whole records and one torn tail. An empty batch is no
    /// write at all.
    pub fn append_framed(&mut self, records: &[u8]) -> Result<(), StoreError> {
        if records.is_empty() {
            return Ok(());
        }
        self.store.append(records)
    }

    /// Group-commit: advance the durable watermark over every append
    /// so far.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.store.sync()
    }

    /// Crash the owning process: the unsynced tail is lost, exactly as
    /// an un-fsynced file would lose it.
    pub fn crash(&mut self) {
        self.store.crash();
    }

    /// Advance the store's fault clock (no-op for plain stores).
    pub fn set_tick(&mut self, tick: u64) {
        self.store.set_tick(tick);
    }

    /// Fault counters of the backing store (zero for plain stores).
    pub fn store_fault_stats(&self) -> StoreFaultStats {
        self.store.fault_stats()
    }
}

/// A move of a [`DurableJournal`]'s durability ladder, for its owner to
/// report (trace event, metrics, flight dump).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// A store error flipped the journal onto the degraded rung.
    Lost,
    /// A clean checkpoint healed the degraded rung.
    Restored,
}

/// A [`Journal`] under the **durability ladder**, the one rule every
/// journaling daemon follows: a store error flips the journal to
/// *degraded*; a degraded journal is [`due`](DurableJournal::due) a
/// checkpoint every tick (a durable one every `every` ticks after its
/// last clean one); a clean checkpoint heals it. The owner issues its
/// own writes, hands each result to [`settle`](DurableJournal::settle),
/// and reports the [`Edge`]s it returns.
#[derive(Debug)]
pub struct DurableJournal {
    journal: Journal,
    every: u64,
    /// Tick of the last checkpoint the store took.
    last_checkpoint: u64,
    degraded: bool,
    io_errors: u64,
}

impl DurableJournal {
    /// Open a host journal on `store` checkpointing every `every` ticks
    /// (at least 1), seeded with a checkpoint of `seed` taken at
    /// `seed.tick`. A store that refuses the setup starts the journal
    /// degraded, and the [`Edge::Lost`] is returned for reporting.
    pub fn open(store: Box<dyn Store>, every: u64, seed: &Snapshot) -> (Self, Option<Edge>) {
        DurableJournal::open_with(store, VERSION, every, seed.tick, |d| {
            d.checkpoint(seed, seed.tick)
        })
    }

    /// Open a batch journal ([`BATCH_VERSION`]) on `store`, checkpointing
    /// every `every` ticks (at least 1), seeded with the checkpoint
    /// records `seed` (a reset marker first) taken at tick `now`. Setup
    /// refusals as for [`open`](DurableJournal::open).
    pub fn open_batch(
        store: Box<dyn Store>,
        every: u64,
        now: u64,
        seed: &[u8],
    ) -> (Self, Option<Edge>) {
        DurableJournal::open_with(store, BATCH_VERSION, every, now, |d| d.compact(seed, now))
    }

    fn open_with(
        store: Box<dyn Store>,
        version: u32,
        every: u64,
        now: u64,
        seed: impl FnOnce(&mut DurableJournal) -> Result<(), StoreError>,
    ) -> (Self, Option<Edge>) {
        let (journal, header) = Journal::with_store_version(store, version);
        let mut durable = DurableJournal {
            journal,
            every: every.max(1),
            last_checkpoint: now,
            degraded: false,
            io_errors: 0,
        };
        let setup = header.and_then(|()| seed(&mut durable));
        let edge = durable.settle(setup, true);
        (durable, edge)
    }

    /// The journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The journal, for the owner's appends and syncs.
    pub fn journal_mut(&mut self) -> &mut Journal {
        &mut self.journal
    }

    /// Whether a checkpoint is due at tick `now`: always while
    /// degraded, else once `every` ticks have passed since the last
    /// clean one.
    pub fn due(&self, now: u64) -> bool {
        self.degraded || now.saturating_sub(self.last_checkpoint) >= self.every
    }

    /// Compact the journal to `snap` at tick `now`; a clean one restarts
    /// the cadence. Hand the result to [`settle`](DurableJournal::settle)
    /// with `checkpoint` set.
    pub fn checkpoint(&mut self, snap: &Snapshot, now: u64) -> Result<(), StoreError> {
        self.journal.checkpoint(snap)?;
        self.last_checkpoint = now;
        Ok(())
    }

    /// [`checkpoint`](DurableJournal::checkpoint) from records already
    /// framed, a checkpoint record first: the file becomes its header
    /// plus `records`, in one append, synced.
    pub fn compact(&mut self, records: &[u8], now: u64) -> Result<(), StoreError> {
        self.journal.compact(records)?;
        self.last_checkpoint = now;
        Ok(())
    }

    /// Shadow-journal `raw`, the verified prefix of a replication stream:
    /// from its last checkpoint record on, it compacts the file (the
    /// stream supersedes whatever it held before); with none, it goes in
    /// as it came. One write either way; stops at the first store error
    /// and syncs when there is none.
    pub fn shadow(&mut self, raw: &[u8], now: u64) -> Result<(), StoreError> {
        let (mut last, mut at) = (None, 0);
        while let Some(len) = framed_len(&raw[at..]) {
            if raw.get(at + 4) == Some(&KIND_CHECKPOINT) {
                last = Some(at);
            }
            at += len;
        }
        match last {
            Some(at) => self.compact(&raw[at..], now),
            None => {
                self.journal.append_framed(raw)?;
                self.journal.sync()
            }
        }
    }

    /// Judge one store interaction: an error counts, and flips a
    /// durable journal to degraded ([`Edge::Lost`]); a clean
    /// `checkpoint` heals a degraded one ([`Edge::Restored`]).
    pub fn settle(&mut self, result: Result<(), StoreError>, checkpoint: bool) -> Option<Edge> {
        match result {
            Err(_) => {
                self.io_errors += 1;
                (!std::mem::replace(&mut self.degraded, true)).then_some(Edge::Lost)
            }
            Ok(()) if checkpoint && self.degraded => {
                self.degraded = false;
                Some(Edge::Restored)
            }
            Ok(()) => None,
        }
    }

    /// Whether the journal is on the degraded rung.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Store errors settled so far.
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }
}

fn encode_state(out: &mut Vec<u8>, e: &ViewState) {
    let mut b = [0u8; STATE_BYTES];
    b[0..4].copy_from_slice(&e.id.to_le_bytes());
    b[4..8].copy_from_slice(&e.e_cpu.to_le_bytes());
    b[8..16].copy_from_slice(&e.e_mem.to_le_bytes());
    b[16..24].copy_from_slice(&e.e_avail.to_le_bytes());
    b[24..32].copy_from_slice(&e.last_tick.to_le_bytes());
    out.extend_from_slice(&b);
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }
}

fn decode_state(c: &mut Cursor<'_>) -> Option<ViewState> {
    let mut c = Cursor {
        bytes: c.take(STATE_BYTES)?,
        pos: 0,
    };
    Some(ViewState {
        id: c.u32()?,
        e_cpu: c.u32()?,
        e_mem: c.u64()?,
        e_avail: c.u64()?,
        last_tick: c.u64()?,
    })
}

/// Rebuild the last-good view state from journal bytes.
///
/// Tolerates arbitrary truncation and bit corruption: decoding stops at
/// the first frame whose length is torn or whose CRC fails, and the
/// surviving prefix is replayed — checkpoint first, then deltas and
/// removals in order. Never panics, never allocates past
/// [`MAX_RECORD`] per frame.
pub fn restore(bytes: &[u8]) -> RestoreReport {
    let mut report = RestoreReport::default();
    let Some(body) = bytes.strip_prefix(&header(VERSION)) else {
        report.truncated_records = 1;
        return report;
    };
    let mut walk = records(body);
    for (kind, body) in &mut walk {
        let Some(record) = decode_record(kind, body) else {
            // A record of no kind this version knows ends the replay
            // like a torn one.
            report.truncated_records += 1;
            return report;
        };
        match (record, &mut report.snapshot) {
            (Record::Checkpoint(snap), _) => {
                report.snapshot = Some(snap);
                report.applied_deltas = 0;
                report.applied_removes = 0;
            }
            (Record::Delta { state, tick }, Some(s)) => {
                s.upsert(state);
                s.tick = s.tick.max(tick);
                report.applied_deltas += 1;
            }
            (Record::Remove(id), Some(s)) => {
                s.remove(id);
                report.applied_removes += 1;
            }
            (_, None) => {} // no checkpoint to apply it to: ignore
        }
    }
    // Torn or corrupt tail: that frame and everything after it are
    // dropped. One counter bump per discarded tail.
    report.truncated_records += u64::from(walk.torn());
    report
}

fn decode_checkpoint(rc: &mut Cursor<'_>) -> Option<Snapshot> {
    let tick = rc.u64()?;
    let count = rc.u32()? as usize;
    if count > MAX_RECORD / STATE_BYTES {
        return None;
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push(decode_state(rc)?);
    }
    entries.sort_by_key(|e: &ViewState| e.id);
    Some(Snapshot { tick, entries })
}

pub mod lease {
    //! A file-backed controller lease with monotone epochs.
    //!
    //! Fleet controllers elect a leader through a single small state
    //! file (here: an owned byte buffer, same as [`Journal`](super::Journal)'s
    //! store — the simulation's stand-in for a shared disk or config
    //! volume). The rules are deliberately minimal:
    //!
    //! - **Grant.** An empty or unreadable lease is granted to the first
    //!   caller at **epoch 1**.
    //! - **Renew.** The current holder may renew before expiry; the
    //!   epoch does **not** change.
    //! - **Takeover.** Any caller may acquire after expiry; the epoch is
    //!   **bumped by one**. A bumped epoch is the promotion signal — the
    //!   cluster fences everything stamped with a lower epoch.
    //! - **Refuse.** An unexpired lease held by someone else is never
    //!   reassigned.
    //!
    //! Time is the caller's deterministic tick clock, not wall time, so
    //! seeded campaigns replay bit-identically.
    //!
    //! A lease write is **atomic-or-nothing** ([`Store::replace`]): a
    //! renewal the store refuses leaves the old lease intact for every
    //! other contender to read, and the refused holder must treat the
    //! lease as *not held* — stepping down before its TTL rather than
    //! serving on a renewal nobody else can observe.
    //!
    //! ```text
    //! lease := magic:u32le ("AVRL") | epoch:u64le | holder:u32le
    //!          | expires:u64le | crc32:u32le
    //! ```
    //!
    //! The CRC covers everything before it; a torn or corrupt lease
    //! reads as *absent* (first caller re-grants at `epoch + 1` is not
    //! possible from garbage, so a corrupt file restarts at epoch 1 —
    //! acceptable because fencing only requires epochs be monotone
    //! *while the file is intact*, and peripheries additionally track
    //! the highest epoch they have ever seen).

    use super::crc32;
    use super::store::{MemStore, Store, StoreError};
    use std::fmt;

    /// File magic: `b"AVRL"` as a little-endian `u32`.
    pub const LEASE_MAGIC: u32 = u32::from_le_bytes(*b"AVRL");
    /// Encoded lease size in bytes.
    pub const LEASE_BYTES: usize = 28;

    /// One decoded lease: who leads, at what epoch, until when.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Lease {
        /// Monotone controller epoch; bumped on every takeover.
        pub epoch: u64,
        /// Holder id (a controller's stable identity).
        pub holder: u32,
        /// Tick after which the lease may be taken over.
        pub expires: u64,
    }

    impl Lease {
        /// Encode to the CRC-protected on-disk form.
        pub fn encode(&self) -> Vec<u8> {
            let mut out = Vec::with_capacity(LEASE_BYTES);
            out.extend_from_slice(&LEASE_MAGIC.to_le_bytes());
            out.extend_from_slice(&self.epoch.to_le_bytes());
            out.extend_from_slice(&self.holder.to_le_bytes());
            out.extend_from_slice(&self.expires.to_le_bytes());
            let crc = crc32::checksum(&out);
            out.extend_from_slice(&crc.to_le_bytes());
            out
        }

        /// Decode; `None` for anything torn, corrupt, or foreign.
        pub fn decode(bytes: &[u8]) -> Option<Lease> {
            if bytes.len() != LEASE_BYTES {
                return None;
            }
            let body = &bytes[..LEASE_BYTES - 4];
            let crc = u32::from_le_bytes(bytes[LEASE_BYTES - 4..].try_into().ok()?);
            if crc32::checksum(body) != crc {
                return None;
            }
            if u32::from_le_bytes(body[0..4].try_into().ok()?) != LEASE_MAGIC {
                return None;
            }
            Some(Lease {
                epoch: u64::from_le_bytes(body[4..12].try_into().ok()?),
                holder: u32::from_le_bytes(body[12..16].try_into().ok()?),
                expires: u64::from_le_bytes(body[16..24].try_into().ok()?),
            })
        }
    }

    /// Why a lease could not be acquired, renewed, or kept.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum LeaseError {
        /// Another holder's unexpired lease blocks us; the blocking
        /// lease rides along so the caller can log who and until when.
        Held(Lease),
        /// Strict renewal found no unexpired lease of ours — it lapsed
        /// (the last intact lease, if any, rides along). Continuity is
        /// broken: the caller must step down and re-contend through
        /// [`LeaseFile::try_acquire`]'s takeover path.
        Expired(Option<Lease>),
        /// The store refused to persist the new lease. The old lease
        /// (if any) is still on disk, so the caller must treat the
        /// lease as *not held*: nobody else can read the renewal that
        /// failed.
        Store(StoreError),
    }

    impl fmt::Display for LeaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                LeaseError::Held(l) => write!(
                    f,
                    "lease held by {} at epoch {} until tick {}",
                    l.holder, l.epoch, l.expires
                ),
                LeaseError::Expired(Some(l)) => {
                    write!(
                        f,
                        "our lease at epoch {} expired at tick {}",
                        l.epoch, l.expires
                    )
                }
                LeaseError::Expired(None) => write!(f, "no intact lease to renew"),
                LeaseError::Store(e) => write!(f, "lease store: {e}"),
            }
        }
    }

    impl std::error::Error for LeaseError {}

    /// The store-backed lease file controllers contend on.
    #[derive(Debug)]
    pub struct LeaseFile {
        pub(crate) store: Box<dyn Store>,
    }

    impl Default for LeaseFile {
        fn default() -> Self {
            LeaseFile::new()
        }
    }

    impl LeaseFile {
        /// An empty (never-granted) lease file on an infallible
        /// in-memory store.
        pub fn new() -> LeaseFile {
            LeaseFile {
                store: Box::new(MemStore::new()),
            }
        }

        /// A lease file on `store` — e.g. a seeded
        /// [`FaultyStore`](super::store::FaultyStore) whose refusals
        /// must step a primary down.
        pub fn with_store(store: Box<dyn Store>) -> LeaseFile {
            LeaseFile { store }
        }

        /// Advance the store's fault clock (no-op for plain stores).
        pub fn set_tick(&mut self, tick: u64) {
            self.store.set_tick(tick);
        }

        /// The current lease, if the store holds an intact one.
        pub fn current(&self) -> Option<Lease> {
            Lease::decode(self.store.read())
        }

        /// Try to acquire or renew the lease for `holder` at tick
        /// `now`, extending it to `now + ttl`. Returns the held lease
        /// on success (grant, renew, or takeover per the module
        /// rules); errs with [`LeaseError::Held`] if another holder's
        /// unexpired lease blocks us, or [`LeaseError::Store`] if the
        /// new lease could not be persisted (the old lease survives on
        /// disk and the caller holds nothing).
        pub fn try_acquire(
            &mut self,
            holder: u32,
            now: u64,
            ttl: u64,
        ) -> Result<Lease, LeaseError> {
            let epoch = match self.current() {
                None => 1,
                Some(cur) if cur.holder == holder && now <= cur.expires => cur.epoch,
                Some(cur) if now > cur.expires => cur.epoch.saturating_add(1),
                Some(cur) => return Err(LeaseError::Held(cur)),
            };
            let next = Lease {
                epoch,
                holder,
                expires: now.saturating_add(ttl),
            };
            self.store
                .replace(&next.encode())
                .map_err(LeaseError::Store)?;
            Ok(next)
        }

        /// Strict renewal for a holder that believes it leads: extends
        /// our own unexpired lease (at its epoch, as
        /// [`try_acquire`](LeaseFile::try_acquire) would) without ever
        /// taking over. A lapsed or foreign lease is an error — a primary
        /// that slept through its TTL must step down and re-contend via
        /// `try_acquire` instead of silently re-granting itself a bumped
        /// epoch.
        pub fn renew(&mut self, holder: u32, now: u64, ttl: u64) -> Result<Lease, LeaseError> {
            match self.current() {
                Some(cur) if now > cur.expires => Err(LeaseError::Expired(Some(cur))),
                Some(cur) if cur.holder != holder => Err(LeaseError::Held(cur)),
                Some(_) => self.try_acquire(holder, now, ttl),
                None => Err(LeaseError::Expired(None)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The framed bytes of one record.
    fn encode_record(r: &Record) -> Vec<u8> {
        let mut out = Vec::new();
        match r {
            Record::Checkpoint(snap) => frame_checkpoint(&mut out, snap),
            Record::Delta { state, tick } => frame_delta(&mut out, state, *tick),
            Record::Remove(id) => frame_remove(&mut out, *id),
        }
        out
    }

    /// What a walk of a bare record stream recovered, decoded the way
    /// [`restore`] decodes each record.
    struct Scan {
        records: Vec<Record>,
        truncated: u64,
        verified_len: usize,
    }

    fn decode_records(bytes: &[u8]) -> Scan {
        let mut walk = records(bytes);
        let mut scan = Scan {
            records: Vec::new(),
            truncated: 0,
            verified_len: 0,
        };
        while let Some((kind, body)) = walk.next() {
            let Some(record) = decode_record(kind, body) else {
                scan.truncated = 1;
                return scan;
            };
            scan.records.push(record);
            scan.verified_len = walk.verified_len();
        }
        scan.truncated = u64::from(walk.torn());
        scan
    }

    fn state(id: u32, cpu: u32, tick: u64) -> ViewState {
        ViewState {
            id,
            e_cpu: cpu,
            e_mem: 1 << 30,
            e_avail: 1 << 29,
            last_tick: tick,
        }
    }

    fn sample_journal() -> Journal {
        let mut j = Journal::new();
        let snap = Snapshot {
            tick: 10,
            entries: vec![state(1, 4, 10), state(2, 8, 10)],
        };
        j.checkpoint(&snap).expect("mem store");
        j.append_delta(&state(1, 6, 12), 12).expect("mem store");
        j.append_delta(&state(3, 2, 13), 13).expect("mem store");
        j.append_remove(2).expect("mem store");
        j
    }

    #[test]
    fn round_trip_replays_checkpoint_and_deltas() {
        let j = sample_journal();
        let r = restore(j.as_bytes());
        assert_eq!(r.truncated_records, 0);
        assert_eq!(r.applied_deltas, 2);
        assert_eq!(r.applied_removes, 1);
        let s = r.snapshot.expect("checkpoint survived");
        assert_eq!(s.tick, 13);
        assert_eq!(s.entries.len(), 2);
        assert_eq!(s.get(1).unwrap().e_cpu, 6);
        assert_eq!(s.get(3).unwrap().e_cpu, 2);
        assert!(s.get(2).is_none(), "removed container stays removed");
    }

    #[test]
    fn checkpoint_compacts_the_buffer() {
        let mut j = sample_journal();
        let grown = j.len();
        let r = restore(j.as_bytes());
        j.checkpoint(r.snapshot.as_ref().unwrap())
            .expect("mem store");
        assert!(j.len() < grown, "compaction shrank the journal");
        let r2 = restore(j.as_bytes());
        assert_eq!(r2.snapshot, r.snapshot);
        assert_eq!(r2.applied_deltas, 0);
    }

    #[test]
    fn empty_journal_restores_to_nothing() {
        let j = Journal::new();
        assert!(j.is_empty());
        let r = restore(j.as_bytes());
        assert_eq!(r.snapshot, None);
        assert_eq!(r.truncated_records, 0);
    }

    #[test]
    fn torn_tail_is_dropped_without_panic() {
        let j = sample_journal();
        let full = restore(j.as_bytes());
        let bytes = j.as_bytes();
        // Cut mid-way through the final record: the prefix still
        // replays, and exactly one truncation event is reported.
        let cut = bytes.len() - 3;
        let r = restore(&bytes[..cut]);
        assert_eq!(r.truncated_records, 1);
        let s = r.snapshot.expect("checkpoint still intact");
        assert!(s.get(2).is_some(), "remove record was the torn one");
        assert_eq!(
            s.get(1),
            full.snapshot.as_ref().unwrap().get(1),
            "earlier delta survived"
        );
    }

    #[test]
    fn corrupt_byte_stops_replay_at_bad_frame() {
        let j = sample_journal();
        let mut bytes = j.as_bytes().to_vec();
        // Flip a byte inside the second record's body (after header +
        // first record). Find it structurally: header is 8 bytes, first
        // record is 4 + len + 4.
        let len0 = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let second = 8 + 4 + len0 + 4;
        bytes[second + 6] ^= 0x40;
        let r = restore(&bytes);
        assert_eq!(r.truncated_records, 1);
        let s = r.snapshot.expect("checkpoint before the flip is good");
        assert_eq!(s.get(1).unwrap().e_cpu, 4, "delta after flip not applied");
    }

    #[test]
    fn wrong_magic_or_version_restores_to_nothing() {
        let mut j = Journal::new().as_bytes().to_vec();
        j[0] ^= 0xFF;
        assert_eq!(restore(&j).snapshot, None);
        let mut j2 = Journal::new().as_bytes().to_vec();
        j2[4] = 9;
        assert_eq!(restore(&j2).snapshot, None);
        assert_eq!(restore(b"").snapshot, None);
        assert_eq!(restore(b"AV").snapshot, None);
    }

    #[test]
    fn huge_length_word_does_not_allocate() {
        let mut j = Journal::new().as_bytes().to_vec();
        j.extend_from_slice(&u32::MAX.to_le_bytes());
        j.extend_from_slice(&[0; 16]);
        let r = restore(&j);
        assert_eq!(r.truncated_records, 1);
        assert_eq!(r.snapshot, None);
    }

    #[test]
    fn deltas_without_checkpoint_are_ignored() {
        let mut j = Journal::new();
        j.append_delta(&state(9, 3, 1), 1).expect("mem store");
        j.append_remove(9).expect("mem store");
        let r = restore(j.as_bytes());
        assert_eq!(r.snapshot, None);
        assert_eq!(r.truncated_records, 0);
    }

    #[test]
    fn a_checkpoint_no_reader_could_take_back_is_refused() {
        let big = |n: u32| Snapshot {
            tick: 5,
            entries: (0..n).map(|id| state(id, 2, 5)).collect(),
        };
        // 32 767 states are the most one record holds.
        let mut j = Journal::new();
        j.checkpoint(&big(32_767)).expect("fits one record");
        let r = restore(j.as_bytes());
        assert_eq!(r.snapshot.map(|s| s.entries.len()), Some(32_767));
        // One more, and the old file is kept whole.
        let before = j.as_bytes().to_vec();
        assert_eq!(j.checkpoint(&big(32_768)), Err(StoreError::RecordTooLarge));
        assert_eq!(j.as_bytes(), &before[..]);
        // Under the ladder the refusal degrades and counts.
        let (mut d, edge) = DurableJournal::open(Box::new(MemStore::new()), 4, &Snapshot::at(0));
        assert_eq!(edge, None);
        let result = d.checkpoint(&big(32_768), 4);
        assert_eq!(d.settle(result, true), Some(Edge::Lost));
        assert!(d.degraded() && d.due(5));
        assert_eq!(d.io_errors(), 1);
        let (_, edge) = DurableJournal::open(Box::new(MemStore::new()), 4, &big(32_768));
        assert_eq!(edge, Some(Edge::Lost), "a seed too large for a record");
    }

    #[test]
    fn a_batch_journal_walks_as_kind_and_body_and_refuses_other_headers() {
        let mut seed = Vec::new();
        frame_checkpoint(&mut seed, &Snapshot::at(7));
        frame_host_batch(&mut seed, 3, |b| b.extend_from_slice(b"abc"));
        let (mut d, edge) = DurableJournal::open_batch(Box::new(MemStore::new()), 4, 7, &seed);
        assert_eq!(edge, None);
        let mut tail = Vec::new();
        frame_host_batch(&mut tail, 0, |_| {});
        d.journal_mut().append_framed(&tail).expect("mem store");
        let bytes = d.journal().as_bytes();
        let walked: Vec<(u8, &[u8])> = journal_records(bytes, BATCH_VERSION)
            .expect("a batch journal")
            .collect();
        assert_eq!(walked.len(), 3);
        assert_eq!(walked[0].0, KIND_CHECKPOINT);
        assert_eq!(reset_tick(walked[0].1), Some(7));
        assert_eq!(walked[1], (KIND_HOST_BATCH, &b"abc"[..]));
        assert_eq!(walked[2], (KIND_HOST_BATCH, &b""[..]));
        // A host journal is not a batch journal, nor the other way.
        let err = journal_records(Journal::new().as_bytes(), BATCH_VERSION).unwrap_err();
        assert_eq!(err.found, header(VERSION));
        assert!(journal_records(bytes, VERSION).is_err());
        assert_eq!(restore(bytes).snapshot, None);
        // Cut inside its own header, a journal holds nothing.
        for cut in 0..HEADER_BYTES {
            let walk = journal_records(&bytes[..cut], BATCH_VERSION).expect("own header");
            assert_eq!(walk.count(), 0);
        }
        // A checkpoint with entries is no reset marker.
        let mut full = Vec::new();
        frame_checkpoint(
            &mut full,
            &Snapshot {
                tick: 1,
                entries: vec![state(1, 1, 1)],
            },
        );
        let (_, body) = records(&full).next().expect("one record");
        assert_eq!(reset_tick(body), None);
    }

    #[test]
    fn a_shadow_compacts_from_the_streams_last_checkpoint() {
        let (mut d, _) = DurableJournal::open_batch(Box::new(MemStore::new()), 4, 0, &[]);
        let batch = |b: u8| {
            let mut out = Vec::new();
            frame_host_batch(&mut out, 1, |o| o.push(b));
            out
        };
        let reset = |tick: u64| {
            let mut out = Vec::new();
            frame_checkpoint(&mut out, &Snapshot::at(tick));
            out
        };
        d.shadow(&batch(1), 1).expect("mem store");
        d.shadow(
            &[batch(2), reset(2), batch(3), reset(3), batch(4)].concat(),
            3,
        )
        .expect("mem store");
        let kept: Vec<(u8, Vec<u8>)> = journal_records(d.journal().as_bytes(), BATCH_VERSION)
            .expect("own header")
            .map(|(k, b)| (k, b.to_vec()))
            .collect();
        assert_eq!(kept.len(), 2, "the last reset and what follows it");
        assert_eq!(reset_tick(&kept[0].1), Some(3));
        assert_eq!(kept[1], (KIND_HOST_BATCH, vec![4]));
        assert_eq!(d.journal().durable_bytes(), d.journal().as_bytes());
    }

    mod journal_props {
        use super::*;
        use proptest::prelude::*;

        // Build a journal from a scripted sequence of operations, and
        // also compute the expected snapshot after the first `k`
        // operations, for prefix-consistency checks.
        fn build(ops: &[(u8, u32, u32, u64)]) -> (Journal, Vec<Snapshot>) {
            let mut j = Journal::new();
            let mut s = Snapshot::at(0);
            j.checkpoint(&s).expect("mem store");
            let mut states = vec![s.clone()];
            for (i, &(kind, id, cpu, mem)) in ops.iter().enumerate() {
                let tick = i as u64 + 1;
                match kind % 3 {
                    0 => {
                        let st = ViewState {
                            id,
                            e_cpu: cpu,
                            e_mem: mem,
                            e_avail: mem / 2,
                            last_tick: tick,
                        };
                        j.append_delta(&st, tick).expect("mem store");
                        s.upsert(st);
                        s.tick = s.tick.max(tick);
                    }
                    1 => {
                        j.append_remove(id).expect("mem store");
                        s.remove(id);
                    }
                    _ => {
                        j.checkpoint(&s).expect("mem store");
                        // Compaction discards history: earlier prefixes
                        // are no longer representable, reset the script.
                        states.clear();
                    }
                }
                states.push(s.clone());
            }
            (j, states)
        }

        proptest! {
            // The tentpole property: checkpoint → append deltas →
            // crash at an arbitrary byte offset → restore always
            // yields a prefix-consistent state and never panics.
            #[test]
            fn truncation_at_any_offset_is_prefix_consistent(
                ops in prop::collection::vec(
                    (0u8..3, 1u32..6, 1u32..32, 1u64..1_000_000), 0..12),
                cut_frac in 0.0f64..1.0,
            ) {
                let (j, states) = build(&ops);
                let bytes = j.as_bytes();
                let cut = (bytes.len() as f64 * cut_frac) as usize;
                let r = restore(&bytes[..cut.min(bytes.len())]);
                if let Some(s) = &r.snapshot {
                    prop_assert!(
                        states.iter().any(|want| want == s),
                        "restored state matches no operation prefix: {s:?}"
                    );
                }
                // Full journal always restores losslessly.
                let full = restore(bytes);
                prop_assert_eq!(full.truncated_records, 0);
                prop_assert_eq!(full.snapshot.as_ref(), states.last());
            }

            #[test]
            fn corruption_never_panics_and_prefix_is_consistent(
                ops in prop::collection::vec(
                    (0u8..3, 1u32..6, 1u32..32, 1u64..1_000_000), 1..10),
                flip in prop::collection::vec((0usize..4096, 0u8..8), 1..4),
            ) {
                let (j, states) = build(&ops);
                let mut bytes = j.as_bytes().to_vec();
                for &(pos, bit) in &flip {
                    let idx = pos % bytes.len();
                    bytes[idx] ^= 1 << bit;
                }
                let r = restore(&bytes); // must not panic
                if let Some(s) = &r.snapshot {
                    // A flip the CRC catches truncates the replay; the
                    // surviving state must still be some prefix (flips
                    // the CRC misses are ~2^-32 and would fail here).
                    prop_assert!(
                        states.iter().any(|want| want == s),
                        "corrupted restore matches no prefix: {s:?}"
                    );
                }
            }

            #[test]
            fn journal_bytes_are_deterministic(
                ops in prop::collection::vec(
                    (0u8..3, 1u32..6, 1u32..32, 1u64..1_000_000), 0..10),
            ) {
                let (a, _) = build(&ops);
                let (b, _) = build(&ops);
                prop_assert_eq!(a.as_bytes(), b.as_bytes());
            }
        }
    }

    mod records {
        use super::*;

        #[test]
        fn record_stream_roundtrips() {
            let mut snap = Snapshot::at(9);
            snap.entries.push(state(1, 4, 9));
            let records = vec![
                Record::Checkpoint(snap),
                Record::Delta {
                    state: state(2, 8, 10),
                    tick: 10,
                },
                Record::Remove(1),
            ];
            let mut stream = Vec::new();
            for r in &records {
                stream.extend_from_slice(&encode_record(r));
            }
            let scan = decode_records(&stream);
            assert_eq!(scan.records, records);
            assert_eq!(scan.truncated, 0);
        }

        #[test]
        fn record_bytes_match_journal_bytes() {
            // The replication stream must be byte-identical to what the
            // journal would append for the same operations.
            let mut j = Journal::new();
            j.append_delta(&state(3, 2, 7), 7).expect("mem store");
            j.append_remove(3).expect("mem store");
            let mut stream = Vec::new();
            stream.extend_from_slice(&encode_record(&Record::Delta {
                state: state(3, 2, 7),
                tick: 7,
            }));
            stream.extend_from_slice(&encode_record(&Record::Remove(3)));
            assert_eq!(&j.as_bytes()[8..], &stream[..]);
        }

        #[test]
        fn truncated_stream_keeps_prefix() {
            let mut stream = Vec::new();
            stream.extend_from_slice(&encode_record(&Record::Remove(1)));
            stream.extend_from_slice(&encode_record(&Record::Remove(2)));
            let cut = stream.len() - 3;
            let scan = decode_records(&stream[..cut]);
            assert_eq!(scan.records, vec![Record::Remove(1)]);
            assert_eq!(scan.truncated, 1);
        }

        #[test]
        fn corrupt_stream_never_panics() {
            let mut stream = Vec::new();
            stream.extend_from_slice(&encode_record(&Record::Remove(7)));
            for i in 0..stream.len() {
                let mut bad = stream.clone();
                bad[i] ^= 0xFF;
                let _ = decode_records(&bad); // must not panic
            }
            // Absurd length word: bounded allocation, no panic.
            let huge = [0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3];
            assert_eq!(decode_records(&huge).truncated, 1);
        }
    }

    mod batch_props {
        use super::*;
        use crate::store::{FaultyStore, StoreFaults};
        use proptest::prelude::*;

        /// `ops` as records: kind 0 upserts, anything else removes.
        fn records(ops: &[(u8, u32, u32, u64)]) -> Vec<Record> {
            ops.iter()
                .enumerate()
                .map(|(i, &(kind, id, cpu, mem))| match kind % 2 {
                    0 => Record::Delta {
                        state: ViewState {
                            id,
                            e_cpu: cpu,
                            e_mem: mem,
                            e_avail: mem / 2,
                            last_tick: i as u64,
                        },
                        tick: i as u64 + 1,
                    },
                    _ => Record::Remove(id),
                })
                .collect()
        }

        /// The same records through the batch writer, and where each
        /// one ends in the batch.
        fn batch(records: &[Record]) -> (Vec<u8>, Vec<usize>) {
            let mut bytes = Vec::new();
            let mut ends = Vec::new();
            for r in records {
                match r {
                    Record::Delta { state, tick } => frame_delta(&mut bytes, state, *tick),
                    Record::Remove(id) => frame_remove(&mut bytes, *id),
                    Record::Checkpoint(s) => frame_checkpoint(&mut bytes, s),
                }
                ends.push(bytes.len());
            }
            (bytes, ends)
        }

        /// What `restore` must yield from an empty checkpoint plus the
        /// first `n` records.
        fn replay(records: &[Record], n: usize) -> Snapshot {
            let mut s = Snapshot::at(0);
            for r in &records[..n] {
                match r {
                    Record::Delta { state, tick } => {
                        s.upsert(*state);
                        s.tick = s.tick.max(*tick);
                    }
                    Record::Remove(id) => s.remove(*id),
                    Record::Checkpoint(c) => s = c.clone(),
                }
            }
            s
        }

        proptest! {
            // One writer, one format: a journal fed framed batches is
            // byte for byte the journal fed record by record, and the
            // batch is the concatenation of `encode_record`s.
            #[test]
            fn batched_journal_equals_record_by_record(
                ops in prop::collection::vec(
                    (0u8..2, 1u32..6, 1u32..32, 1u64..1_000_000), 0..24),
                split in 0usize..24,
            ) {
                let records = records(&ops);
                let (bytes, ends) = batch(&records);
                let concat: Vec<u8> = records.iter().flat_map(encode_record).collect();
                prop_assert_eq!(&bytes, &concat);

                let mut one_by_one = Journal::new();
                one_by_one.checkpoint(&Snapshot::at(0)).expect("mem store");
                for r in &records {
                    match r {
                        Record::Delta { state, tick } => one_by_one.append_delta(state, *tick),
                        Record::Remove(id) => one_by_one.append_remove(*id),
                        Record::Checkpoint(_) => unreachable!("none generated"),
                    }
                    .expect("mem store");
                }
                // Two batches, cut at an arbitrary record boundary.
                let cut = ends.get(split).copied().unwrap_or(bytes.len());
                let mut batched = Journal::new();
                batched.checkpoint(&Snapshot::at(0)).expect("mem store");
                batched.append_framed(&bytes[..cut]).expect("mem store");
                batched.append_framed(&bytes[cut..]).expect("mem store");
                prop_assert_eq!(batched.as_bytes(), one_by_one.as_bytes());
            }

            // A batch cut at any byte restores to its whole-record
            // prefix, and a scan of the cut batch verifies exactly
            // those records' bytes.
            #[test]
            fn batch_truncated_anywhere_restores_a_record_prefix(
                ops in prop::collection::vec(
                    (0u8..2, 1u32..6, 1u32..32, 1u64..1_000_000), 1..24),
                cut_frac in 0.0f64..1.0,
            ) {
                let records = records(&ops);
                let (bytes, ends) = batch(&records);
                let cut = (bytes.len() as f64 * cut_frac) as usize;
                let whole = ends.iter().filter(|e| **e <= cut).count();
                let verified = ends[..whole].last().copied().unwrap_or(0);

                let mut j = Journal::new();
                j.checkpoint(&Snapshot::at(0)).expect("mem store");
                j.append_framed(&bytes[..cut]).expect("mem store");
                let r = restore(j.as_bytes());
                prop_assert_eq!(r.snapshot, Some(replay(&records, whole)));
                prop_assert_eq!(r.applied_deltas + r.applied_removes, whole as u64);
                prop_assert_eq!(r.truncated_records, u64::from(cut > verified));

                let scan = decode_records(&bytes[..cut]);
                prop_assert_eq!(&scan.records[..], &records[..whole]);
                prop_assert_eq!(scan.verified_len, verified);
                prop_assert_eq!(scan.truncated, u64::from(cut > verified));
            }

            // The same through a store that tears the one batch write:
            // whatever prefix the store kept, the journal restores to
            // the batch's whole records and reports one torn tail.
            #[test]
            fn batch_torn_by_the_store_restores_a_record_prefix(
                seed in 0u64..4096,
                ops in prop::collection::vec(
                    (0u8..2, 1u32..6, 1u32..32, 1u64..1_000_000), 1..24),
            ) {
                let records = records(&ops);
                let (bytes, ends) = batch(&records);
                let faults = StoreFaults { torn_prob: 0.5, ..StoreFaults::default() };
                // Walk seeds to one whose store takes the header and the
                // checkpoint whole and tears the batch.
                let torn = (seed..seed + 256).find_map(|s| {
                    let (mut j, header) = Journal::with_store(Box::new(FaultyStore::new(s, faults)));
                    header.ok()?;
                    j.checkpoint(&Snapshot::at(0)).ok()?;
                    let head = j.len();
                    (j.append_framed(&bytes) == Err(StoreError::TornWrite)).then_some((j, head))
                });
                let Some((j, head)) = torn else {
                    panic!("no seed in 256 tore the batch");
                };
                let kept = j.len() - head;
                prop_assert!(kept >= 1 && kept < bytes.len(), "a strict prefix landed");
                prop_assert_eq!(&j.as_bytes()[head..], &bytes[..kept]);
                let whole = ends.iter().filter(|e| **e <= kept).count();
                let r = restore(j.as_bytes());
                prop_assert_eq!(r.snapshot, Some(replay(&records, whole)));
                prop_assert_eq!(r.applied_deltas + r.applied_removes, whole as u64);
                prop_assert_eq!(r.truncated_records, u64::from(ends[..whole].last() != Some(&kept)));
            }

            // Bit rot anywhere in a stream: the scan's verified length
            // is always the byte length of the records it returned, and
            // those are a prefix of what was written.
            #[test]
            fn verified_len_is_the_bytes_of_the_records_returned(
                ops in prop::collection::vec(
                    (0u8..2, 1u32..6, 1u32..32, 1u64..1_000_000), 1..24),
                flips in prop::collection::vec((0usize..4096, 0u8..8), 0..3),
                cut_frac in 0.0f64..1.0,
            ) {
                let records = records(&ops);
                let (mut bytes, ends) = batch(&records);
                for &(pos, bit) in &flips {
                    let idx = pos % bytes.len();
                    bytes[idx] ^= 1 << bit;
                }
                if flips.is_empty() {
                    bytes.truncate((bytes.len() as f64 * cut_frac) as usize);
                }
                let scan = decode_records(&bytes);
                let n = scan.records.len();
                prop_assert_eq!(&scan.records[..], &records[..n]);
                prop_assert_eq!(scan.verified_len, ends[..n].last().copied().unwrap_or(0));
                prop_assert_eq!(scan.truncated, u64::from(scan.verified_len < bytes.len()));
                // Walking length words over the verified prefix lands on
                // the same boundaries.
                let mut off = 0;
                for end in &ends[..n] {
                    off += framed_len(&bytes[off..]).expect("verified record");
                    prop_assert_eq!(off, *end);
                }
            }
        }
    }

    mod lease_rules {
        use super::super::lease::{Lease, LeaseError, LeaseFile, LEASE_BYTES};
        use super::super::store::{FaultyStore, MemStore, StoreFaults};

        /// A lease file rehydrated from `bytes` (e.g. after a warm
        /// restart).
        fn rehydrate(bytes: Vec<u8>) -> LeaseFile {
            LeaseFile::with_store(Box::new(MemStore::from_bytes(bytes)))
        }

        #[test]
        fn grant_renew_takeover() {
            let mut f = LeaseFile::new();
            // Grant: first caller gets epoch 1.
            let l1 = f.try_acquire(10, 0, 5).expect("grant");
            assert_eq!((l1.epoch, l1.holder, l1.expires), (1, 10, 5));
            // Refuse: someone else while unexpired, naming the blocker.
            assert_eq!(f.try_acquire(20, 3, 5), Err(LeaseError::Held(l1)));
            // Renew: same holder keeps the epoch, extends expiry.
            let l2 = f.try_acquire(10, 4, 5).expect("renew");
            assert_eq!((l2.epoch, l2.expires), (1, 9));
            // Takeover: after expiry anyone acquires at epoch + 1.
            let l3 = f.try_acquire(20, 10, 5).expect("takeover");
            assert_eq!((l3.epoch, l3.holder, l3.expires), (2, 20, 15));
        }

        #[test]
        fn strict_renew_never_takes_over() {
            let mut f = LeaseFile::new();
            let l1 = f.try_acquire(10, 0, 5).expect("grant");
            // In-TTL renewal extends without an epoch bump.
            let l2 = f.renew(10, 4, 5).expect("renew");
            assert_eq!((l2.epoch, l2.expires), (1, 9));
            // A foreign unexpired lease is Held…
            assert_eq!(f.renew(20, 5, 5), Err(LeaseError::Held(l2)));
            // …and a lapsed one is Expired, never a takeover: the
            // sleeping primary steps down instead of re-granting
            // itself.
            assert_eq!(f.renew(10, 20, 5), Err(LeaseError::Expired(Some(l2))));
            assert_eq!(f.current(), Some(l2), "failed renew mutates nothing");
            assert_eq!(
                LeaseFile::new().renew(1, 0, 5),
                Err(LeaseError::Expired(None))
            );
            let _ = l1;
        }

        #[test]
        fn expired_holder_retake_bumps_epoch() {
            let mut f = LeaseFile::new();
            f.try_acquire(10, 0, 5).expect("grant");
            // The old holder coming back after expiry is a takeover
            // too: it must not resume its old epoch silently.
            let l = f.try_acquire(10, 6, 5).expect("retake");
            assert_eq!(l.epoch, 2);
        }

        #[test]
        fn store_refusal_keeps_old_lease_readable() {
            // A lease on a device that goes full mid-campaign: the
            // renewal errs, but the *old* lease survives intact so
            // other contenders still read a consistent file and the
            // refused holder's step-down cannot split the brain.
            let store = FaultyStore::new(
                5,
                StoreFaults {
                    full_at: Some((10, 100)),
                    ..StoreFaults::default()
                },
            );
            let mut f = LeaseFile::with_store(Box::new(store));
            f.set_tick(0);
            let granted = f.try_acquire(10, 0, 5).expect("grant before window");
            f.set_tick(10);
            match f.renew(10, 3, 5) {
                Err(LeaseError::Store(crate::StoreError::NoSpace)) => {}
                other => panic!("expected a no-space error, got {other:?}"),
            }
            assert_eq!(f.current(), Some(granted), "old lease still on disk");
            // Takeover by another holder is equally refused while the
            // device is full — nobody holds a lease they can't persist.
            match f.try_acquire(20, 9, 5) {
                Err(LeaseError::Store(_)) => {}
                other => panic!("expected store error, got {other:?}"),
            }
        }

        #[test]
        fn corrupt_lease_reads_absent() {
            let mut f = LeaseFile::new();
            f.try_acquire(10, 0, 5).expect("grant");
            let good = f.store.read().to_vec();
            assert_eq!(good.len(), LEASE_BYTES);
            assert!(Lease::decode(&good).is_some());
            for i in 0..good.len() {
                let mut bad = good.clone();
                bad[i] ^= 0x10;
                assert_eq!(Lease::decode(&bad), None, "flip at {i} must fail CRC");
            }
            assert_eq!(Lease::decode(&good[..LEASE_BYTES - 1]), None);
            // A corrupt store behaves as never-granted.
            let mut torn = rehydrate(vec![0xAB; 11]);
            assert_eq!(torn.current(), None);
            let l = torn.try_acquire(30, 0, 5).expect("regrant");
            assert_eq!(l.epoch, 1);
        }

        #[test]
        fn roundtrip_survives_rehydrate() {
            let mut f = LeaseFile::new();
            f.try_acquire(10, 0, 5).expect("grant");
            let f2 = rehydrate(f.store.read().to_vec());
            assert_eq!(f2.current(), f.current());
        }
    }

    mod ladder {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Whatever the store does, ladder edges alternate starting
            // with Lost, every error counts, and a degraded journal is
            // always due a checkpoint.
            #[test]
            fn edges_alternate_and_degraded_is_always_due(
                outcomes in prop::collection::vec((prop::bool::ANY, prop::bool::ANY), 0..64),
                every in 1u64..8,
            ) {
                let (mut j, edge) = DurableJournal::open(Box::new(MemStore::new()), every, &Snapshot::at(0));
                prop_assert_eq!(edge, None);
                let mut edges = Vec::new();
                for (i, &(ok, checkpoint)) in outcomes.iter().enumerate() {
                    let result = if ok { Ok(()) } else { Err(StoreError::WriteFailed) };
                    edges.extend(j.settle(result, checkpoint));
                    if j.degraded() {
                        prop_assert!(j.due(i as u64) && j.due(u64::MAX));
                    }
                }
                for (i, edge) in edges.iter().enumerate() {
                    let want = if i % 2 == 0 { Edge::Lost } else { Edge::Restored };
                    prop_assert_eq!(*edge, want);
                }
                prop_assert_eq!(j.degraded(), edges.len() % 2 == 1);
                let errors = outcomes.iter().filter(|(ok, _)| !ok).count() as u64;
                prop_assert_eq!(j.io_errors(), errors);
            }
        }
    }

    mod checkpoint_fault_props {
        use super::*;
        use crate::store::{FaultyStore, StoreFaults};
        use proptest::prelude::*;

        proptest! {
            // Satellite invariant: arbitrary interleavings of store
            // faults during checkpoints and appends never break
            // prefix-consistency, and a restore of the *durable* bytes
            // never reports more records than were synced.
            #[test]
            fn faulty_checkpoints_restore_prefix_consistent(
                seed in 0u64..1024,
                ops in prop::collection::vec(
                    (0u8..3, 1u32..6, 1u32..32), 1..24),
                torn in 0.0f64..0.4,
                werr in 0.0f64..0.3,
                full_at in prop::option::of((0u64..16, 1u64..8)),
                stall_at in prop::option::of((0u64..16, 1u64..8)),
            ) {
                let faults = StoreFaults {
                    torn_prob: torn,
                    write_err_prob: werr,
                    full_at,
                    sync_stall_at: stall_at,
                    // No bit rot here: it can strike *synced* bytes,
                    // which is a detection property (CRC) rather than
                    // the synced-prefix property under test.
                    ..StoreFaults::default()
                };
                let (mut j, header) = Journal::with_store(
                    Box::new(FaultyStore::new(seed, faults)));
                if header.is_err() {
                    return; // header refused: nothing durable to check
                }
                // Reachable states: the snapshot after every prefix of
                // *successfully written* records — restore must land on
                // one of these. `written_ok` counts full records in the
                // live file since the last compaction; `synced_upper`
                // is the watermarked bound a restore may never exceed.
                let mut s = Snapshot::at(0);
                let mut reachable: Vec<Snapshot> = Vec::new();
                let mut written_ok = 0u64;
                let mut synced_upper = 0u64;
                for (i, &(kind, id, cpu)) in ops.iter().enumerate() {
                    let tick = i as u64 + 1;
                    j.set_tick(tick);
                    match kind % 3 {
                        0 => {
                            let st = ViewState {
                                id,
                                e_cpu: cpu,
                                e_mem: 1 << 20,
                                e_avail: 1 << 19,
                                last_tick: tick,
                            };
                            if j.append_delta(&st, tick).is_ok() {
                                s.upsert(st);
                                s.tick = s.tick.max(tick);
                                written_ok += 1;
                                reachable.push(s.clone());
                            }
                        }
                        1 => {
                            if j.append_remove(id).is_ok() {
                                s.remove(id);
                                written_ok += 1;
                                reachable.push(s.clone());
                            }
                        }
                        _ => match j.checkpoint(&s) {
                            Ok(()) => {
                                // Compaction synced: one durable record.
                                written_ok = 1;
                                synced_upper = 1;
                                reachable.push(s.clone());
                            }
                            Err(StoreError::SyncStalled) => {
                                // Record written, not yet watermarked;
                                // compaction clamped the mark to the
                                // header, so nothing is durable until a
                                // later sync lands.
                                written_ok = 1;
                                synced_upper = 0;
                                reachable.push(s.clone());
                            }
                            Err(_) => {
                                // Compaction destroyed the old file and
                                // the new record never fully landed.
                                written_ok = 0;
                                synced_upper = 0;
                            }
                        },
                    }
                    if j.sync().is_ok() {
                        synced_upper = written_ok;
                    }
                }

                j.crash();
                let r = restore(j.durable_bytes());
                let restored_records = if r.snapshot.is_some() {
                    1 + r.applied_deltas + r.applied_removes
                } else {
                    0
                };
                // Never more durable records than the watermark covers.
                prop_assert!(
                    restored_records <= synced_upper,
                    "restore reports {restored_records} records, only \
                     {synced_upper} were synced"
                );
                if let Some(got) = &r.snapshot {
                    prop_assert!(
                        reachable.iter().any(|want| {
                            want.entries == got.entries
                        }),
                        "restored state matches no reachable prefix: {got:?}"
                    );
                }
            }

            // Same storm, restoring the *live* bytes (no crash): still
            // prefix-consistent, still panic-free — torn appends leave
            // partial frames that restore must absorb as truncation.
            #[test]
            fn faulty_live_bytes_never_panic_restore(
                seed in 0u64..512,
                ops in prop::collection::vec((0u8..3, 1u32..6, 1u32..32), 1..16),
            ) {
                let faults = StoreFaults {
                    torn_prob: 0.35,
                    write_err_prob: 0.15,
                    bit_rot_prob: 0.1,
                    ..StoreFaults::default()
                };
                let (mut j, header) = Journal::with_store(
                    Box::new(FaultyStore::new(seed, faults)));
                if header.is_err() {
                    return;
                }
                for (i, &(kind, id, cpu)) in ops.iter().enumerate() {
                    let tick = i as u64 + 1;
                    let st = ViewState {
                        id,
                        e_cpu: cpu,
                        e_mem: 4096,
                        e_avail: 1024,
                        last_tick: tick,
                    };
                    let _ = match kind % 3 {
                        0 => j.append_delta(&st, tick),
                        1 => j.append_remove(id),
                        _ => j.checkpoint(&Snapshot::at(tick)),
                    };
                }
                let _ = restore(j.as_bytes()); // must not panic
                let _ = restore(j.durable_bytes()); // must not panic
            }

            // A journal on a faulty store with the same seed is
            // bit-identical across runs: fault injection replays.
            #[test]
            fn faulty_journal_is_deterministic(
                seed in 0u64..512,
                ops in prop::collection::vec((0u8..3, 1u32..6, 1u32..32), 0..12),
            ) {
                let build = || {
                    let faults = StoreFaults {
                        torn_prob: 0.3,
                        write_err_prob: 0.2,
                        bit_rot_prob: 0.1,
                        ..StoreFaults::default()
                    };
                    let (mut j, header) = Journal::with_store(
                        Box::new(FaultyStore::new(seed, faults)));
                    if header.is_err() {
                        return Vec::new();
                    }
                    for (i, &(kind, id, cpu)) in ops.iter().enumerate() {
                        let tick = i as u64 + 1;
                        let st = ViewState {
                            id,
                            e_cpu: cpu,
                            e_mem: 4096,
                            e_avail: 1024,
                            last_tick: tick,
                        };
                        let _ = match kind % 3 {
                            0 => j.append_delta(&st, tick),
                            1 => j.append_remove(id),
                            _ => j.checkpoint(&Snapshot::at(tick)),
                        };
                        let _ = j.sync();
                    }
                    j.as_bytes().to_vec()
                };
                prop_assert_eq!(build(), build());
            }
        }
    }
}
