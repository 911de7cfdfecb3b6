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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use store::{FaultyStore, MemStore, Store, StoreError, StoreFaultStats, StoreFaults};

/// File magic: `b"AVRJ"` as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"AVRJ");
/// Current journal format version.
pub const VERSION: u32 = 1;
/// Upper bound on a single record body (corrupt length words must not
/// cause huge allocations during restore).
pub const MAX_RECORD: usize = 1 << 20;

/// The file header every journal starts with: magic, then version.
const HEADER: [u8; 8] = ((VERSION as u64) << 32 | MAGIC as u64).to_le_bytes();

const KIND_CHECKPOINT: u8 = 1;
const KIND_DELTA: u8 = 2;
const KIND_REMOVE: u8 = 3;

/// One decoded journal record. The journal's own [`restore`] folds
/// records into a snapshot; replication streams ship them raw so a
/// standby can fold them into a *live* index instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A full compacted snapshot (replaces all prior state).
    Checkpoint(Snapshot),
    /// One container's refreshed view at `tick`.
    Delta {
        /// The refreshed state.
        state: ViewState,
        /// Journal-clock tick of the refresh.
        tick: u64,
    },
    /// A container removal.
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

/// Append one framed checkpoint record (a full snapshot) to `out`.
pub fn frame_checkpoint(out: &mut Vec<u8>, snap: &Snapshot) {
    frame(out, 1 + 8 + 4 + snap.entries.len() * STATE_BYTES, |b| {
        b.push(KIND_CHECKPOINT);
        b.extend_from_slice(&snap.tick.to_le_bytes());
        b.extend_from_slice(&(snap.entries.len() as u32).to_le_bytes());
        for e in &snap.entries {
            encode_state(b, e);
        }
    });
}

/// Encode one record in the journal's CRC-framed record format
/// (`len | body | crc32`, no file header): a one-record use of the
/// writer behind [`frame_delta`], [`frame_remove`] and
/// [`frame_checkpoint`], so a replication stream and the journal cannot
/// drift in format.
pub fn encode_record(r: &Record) -> Vec<u8> {
    let mut out = Vec::new();
    match r {
        Record::Checkpoint(snap) => frame_checkpoint(&mut out, snap),
        Record::Delta { state, tick } => frame_delta(&mut out, state, *tick),
        Record::Remove(id) => frame_remove(&mut out, *id),
    }
    out
}

/// Byte length of the framed record at the head of `bytes`, read off its
/// length word (`None` if `bytes` ends before the record does). Walks a
/// stream of records without decoding them; verifies nothing.
pub fn framed_len(bytes: &[u8]) -> Option<usize> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let end = len.checked_add(8)?;
    (end <= bytes.len()).then_some(end)
}

/// What a [`decode_records`] scan recovered from a bare record stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordScan {
    /// Records decoded in order, up to the first bad frame.
    pub records: Vec<Record>,
    /// 1 if the stream ended in a torn or corrupt frame (everything
    /// from that frame on is dropped), else 0.
    pub truncated: u64,
    /// Bytes of the stream that `records` were decoded from: the
    /// verified prefix, always a whole number of records.
    pub verified_len: usize,
}

/// Decode a bare stream of CRC-framed records (no file header), as
/// carried by a replication frame. Stops at the first torn or corrupt
/// frame and reports it; never panics, never allocates past
/// [`MAX_RECORD`] per frame, for any input bytes.
pub fn decode_records(bytes: &[u8]) -> RecordScan {
    let mut scan = RecordScan::default();
    let mut c = Cursor { bytes, pos: 0 };
    while c.pos < bytes.len() {
        let Some(record) = next_record(&mut c) else {
            scan.truncated = 1;
            break;
        };
        scan.records.push(record);
        scan.verified_len = c.pos;
    }
    scan
}

/// Decode the record at the cursor; `None` if it is torn, fails its
/// CRC, or is of no kind this version knows — a later format, or
/// corruption the CRC happened to miss. The prefix before it is good.
fn next_record(c: &mut Cursor<'_>) -> Option<Record> {
    let start = c.pos;
    let len = c.u32()? as usize;
    if len > MAX_RECORD {
        return None;
    }
    let body = c.take(len)?;
    if crc32::checksum(&c.bytes[start..start + 4 + len]) != c.u32()? {
        return None;
    }
    let mut rc = Cursor {
        bytes: body,
        pos: 0,
    };
    match rc.u8()? {
        KIND_CHECKPOINT => decode_checkpoint(&mut rc).map(Record::Checkpoint),
        KIND_DELTA => {
            let tick = rc.u64()?;
            decode_state(&mut rc).map(|state| Record::Delta { state, tick })
        }
        KIND_REMOVE => rc.u32().map(Record::Remove),
        _ => None,
    }
}

pub mod crc32 {
    //! Table-driven IEEE CRC32 (the zlib/ethernet polynomial),
    //! hand-rolled because the CI containers build fully offline.
    //! Slice-by-8: eight tables fold eight input bytes per step; the
    //! value is the byte-at-a-time CRC's, bit for bit.

    const fn tables() -> [[u32; 256]; 8] {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        // t[k][i] is the CRC of byte `i` followed by `k` zero bytes.
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        t
    }

    const TABLES: [[u32; 256]; 8] = tables();

    /// CRC32 of `bytes` (IEEE, init `0xFFFF_FFFF`, final xor).
    pub fn checksum(bytes: &[u8]) -> u32 {
        let t = &TABLES;
        let mut c = 0xFFFF_FFFFu32;
        let mut chunks = bytes.chunks_exact(8);
        for w in &mut chunks {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[cfg(test)]
    mod tests {
        use super::{checksum, TABLES};

        /// The byte-at-a-time CRC the slice-by-8 loop replaced.
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        }

        #[test]
        fn slice_by_8_equals_bytewise_at_every_length_and_alignment() {
            let data: Vec<u8> = (0..128u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
                .collect();
            for start in 0..16 {
                for len in 0..=96 {
                    let s = &data[start..start + len];
                    assert_eq!(checksum(s), bytewise(s), "start {start} len {len}");
                }
            }
            assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
        }

        #[test]
        fn known_vectors() {
            // Standard check value for the IEEE polynomial.
            assert_eq!(checksum(b"123456789"), 0xCBF4_3926);
            assert_eq!(checksum(b""), 0);
            assert_eq!(checksum(b"a"), 0xE8B7_BE43);
        }

        #[test]
        fn sensitive_to_single_bit_flips() {
            let base = checksum(b"resource view");
            let mut data = b"resource view".to_vec();
            for i in 0..data.len() * 8 {
                data[i / 8] ^= 1 << (i % 8);
                assert_ne!(checksum(&data), base, "flip at bit {i} undetected");
                data[i / 8] ^= 1 << (i % 8);
            }
        }
    }
}

pub mod store {
    //! Pluggable storage backends for journals and lease files.
    //!
    //! [`Store`] models one append-only byte file with an explicit
    //! **fsync watermark**: [`Store::append`] extends the live file,
    //! but only bytes covered by a successful [`Store::sync`] survive
    //! [`Store::crash`]. Two implementations ship:
    //!
    //! - [`MemStore`] — the infallible owned buffer the simulation
    //!   always used; callers group-commit with one `sync` per tick.
    //! - [`FaultyStore`] — a seeded wrapper driven by [`StoreFaults`]:
    //!   torn (short) appends, outright write errors, disk-full
    //!   windows, bit rot on already-written bytes, and sync stalls
    //!   that freeze the durable watermark. Deterministic per seed, so
    //!   chaos campaigns replay bit-identically.

    use std::fmt;

    /// Why a store operation failed. `Copy + Eq` (unlike
    /// `std::io::Error`) so campaign outcomes stay comparable in
    /// replay-determinism asserts; [`StoreError::io_kind`] maps each
    /// variant onto the matching `std::io::ErrorKind`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum StoreError {
        /// The write failed outright; the file is unchanged.
        WriteFailed,
        /// The device is out of space; the file is unchanged.
        NoSpace,
        /// The append was torn: a strict prefix of the new bytes
        /// reached the file before the error.
        TornWrite,
        /// `sync` could not flush; the durable watermark did not move.
        SyncStalled,
    }

    impl StoreError {
        /// The `std::io::ErrorKind` this failure would surface as.
        pub fn io_kind(self) -> std::io::ErrorKind {
            match self {
                // `ErrorKind::StorageFull` would be the natural match
                // for `NoSpace` but is newer than our MSRV.
                StoreError::WriteFailed | StoreError::NoSpace => std::io::ErrorKind::Other,
                StoreError::TornWrite => std::io::ErrorKind::WriteZero,
                StoreError::SyncStalled => std::io::ErrorKind::TimedOut,
            }
        }
    }

    impl fmt::Display for StoreError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                StoreError::WriteFailed => write!(f, "store write failed"),
                StoreError::NoSpace => write!(f, "store device full"),
                StoreError::TornWrite => write!(f, "store append torn short"),
                StoreError::SyncStalled => write!(f, "store sync stalled"),
            }
        }
    }

    impl std::error::Error for StoreError {}

    impl From<StoreError> for std::io::Error {
        fn from(e: StoreError) -> std::io::Error {
            std::io::Error::new(e.io_kind(), e)
        }
    }

    /// One append-only byte file with an fsync watermark.
    pub trait Store: fmt::Debug + Send {
        /// Append bytes to the end of the file. On
        /// [`StoreError::TornWrite`] a strict prefix of `bytes` has
        /// reached the file; on any other error the file is unchanged.
        fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError>;

        /// The live file contents — what a reader of the open file
        /// sees, synced or not.
        fn read(&self) -> &[u8];

        /// Flush: advance the durable watermark to the current length.
        fn sync(&mut self) -> Result<(), StoreError>;

        /// Shrink the file to `len` bytes (no-op past the end); the
        /// watermark is clamped down with it.
        fn truncate(&mut self, len: usize) -> Result<(), StoreError>;

        /// Bytes guaranteed to survive a crash (the synced prefix).
        fn synced_len(&self) -> usize;

        /// The synced prefix itself — what [`Store::crash`] would keep.
        fn durable(&self) -> &[u8] {
            let end = self.synced_len().min(self.read().len());
            &self.read()[..end]
        }

        /// Atomically replace the whole file (write-temp-then-rename):
        /// either every byte lands synced or the old contents survive
        /// untouched. Lease files use this so a failed renewal cannot
        /// half-destroy the lease everyone else must still read.
        fn replace(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
            self.truncate(0)?;
            self.append(bytes)?;
            self.sync()
        }

        /// Crash the process: the unsynced tail is lost and the file
        /// is reopened at the durable watermark.
        fn crash(&mut self);

        /// Advance the fault clock (no-op for real stores); window
        /// axes like disk-full are expressed in these ticks.
        fn set_tick(&mut self, _tick: u64) {}

        /// Injected-fault counters (all zero for non-faulty stores).
        fn fault_stats(&self) -> StoreFaultStats {
            StoreFaultStats::default()
        }
    }

    /// The infallible in-memory store.
    #[derive(Debug, Clone, Default)]
    pub struct MemStore {
        buf: Vec<u8>,
        synced: usize,
    }

    impl MemStore {
        /// An empty store.
        pub fn new() -> MemStore {
            MemStore::default()
        }
    }

    impl Store for MemStore {
        fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
            self.buf.extend_from_slice(bytes);
            Ok(())
        }

        fn read(&self) -> &[u8] {
            &self.buf
        }

        fn sync(&mut self) -> Result<(), StoreError> {
            self.synced = self.buf.len();
            Ok(())
        }

        fn truncate(&mut self, len: usize) -> Result<(), StoreError> {
            self.buf.truncate(len);
            self.synced = self.synced.min(self.buf.len());
            Ok(())
        }

        fn synced_len(&self) -> usize {
            self.synced
        }

        fn crash(&mut self) {
            self.buf.truncate(self.synced);
        }
    }

    /// Fault axes for a [`FaultyStore`]. Probabilities fire per
    /// operation from the store's seeded RNG; windows are half-open
    /// `[at, at + len)` ranges of the tick clock fed through
    /// [`Store::set_tick`].
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct StoreFaults {
        /// Probability an append is torn short (a strict prefix lands).
        pub torn_prob: f64,
        /// Probability an append fails outright, writing nothing.
        pub write_err_prob: f64,
        /// Window during which the device is out of space.
        pub full_at: Option<(u64, u64)>,
        /// Probability an append flips one bit somewhere in the
        /// already-written file (latent media decay surfacing).
        pub bit_rot_prob: f64,
        /// Window during which `sync` stalls (watermark frozen).
        pub sync_stall_at: Option<(u64, u64)>,
    }

    /// Counters of faults a [`FaultyStore`] actually injected.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct StoreFaultStats {
        /// Appends torn short.
        pub torn_appends: u64,
        /// Appends refused with a write error.
        pub write_errors: u64,
        /// Appends refused inside a disk-full window.
        pub no_space_errors: u64,
        /// Bits flipped in already-written bytes.
        pub rotted_bits: u64,
        /// Syncs refused inside a stall window.
        pub sync_stalls: u64,
    }

    fn in_window(w: Option<(u64, u64)>, tick: u64) -> bool {
        w.is_some_and(|(at, len)| tick >= at && tick < at.saturating_add(len))
    }

    /// A seeded fault-injection store: [`MemStore`] semantics plus the
    /// [`StoreFaults`] axes. Its RNG is self-contained (splitmix64) so
    /// this crate stays dependency-free and a given seed replays the
    /// exact same fault sequence.
    #[derive(Debug, Clone)]
    pub struct FaultyStore {
        inner: MemStore,
        rng: u64,
        faults: StoreFaults,
        tick: u64,
        stats: StoreFaultStats,
    }

    impl FaultyStore {
        /// A faulty store over an empty file.
        pub fn new(seed: u64, faults: StoreFaults) -> FaultyStore {
            FaultyStore {
                inner: MemStore::new(),
                rng: seed,
                faults,
                tick: 0,
                stats: StoreFaultStats::default(),
            }
        }

        fn next_u64(&mut self) -> u64 {
            self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn hit(&mut self, prob: f64) -> bool {
            prob > 0.0 && self.unit() < prob
        }

        /// The append-failure gate shared by `append` and `replace`:
        /// which error (if any) this operation draws, before any bytes
        /// move. Torn length is drawn by the caller because only plain
        /// appends leave a prefix behind.
        fn append_gate(&mut self) -> Result<(), StoreError> {
            if in_window(self.faults.full_at, self.tick) {
                self.stats.no_space_errors += 1;
                return Err(StoreError::NoSpace);
            }
            if self.hit(self.faults.write_err_prob) {
                self.stats.write_errors += 1;
                return Err(StoreError::WriteFailed);
            }
            Ok(())
        }

        fn maybe_rot(&mut self) {
            if self.hit(self.faults.bit_rot_prob) && !self.inner.buf.is_empty() {
                let idx = (self.next_u64() % self.inner.buf.len() as u64) as usize;
                let bit = (self.next_u64() % 8) as u8;
                self.inner.buf[idx] ^= 1 << bit;
                self.stats.rotted_bits += 1;
            }
        }
    }

    impl Store for FaultyStore {
        fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
            self.append_gate()?;
            if self.hit(self.faults.torn_prob) && bytes.len() > 1 {
                let keep = 1 + (self.next_u64() % (bytes.len() as u64 - 1)) as usize;
                self.inner.buf.extend_from_slice(&bytes[..keep]);
                self.stats.torn_appends += 1;
                return Err(StoreError::TornWrite);
            }
            self.maybe_rot();
            self.inner.buf.extend_from_slice(bytes);
            Ok(())
        }

        fn read(&self) -> &[u8] {
            self.inner.read()
        }

        fn sync(&mut self) -> Result<(), StoreError> {
            if in_window(self.faults.sync_stall_at, self.tick) {
                self.stats.sync_stalls += 1;
                return Err(StoreError::SyncStalled);
            }
            self.inner.sync()
        }

        fn truncate(&mut self, len: usize) -> Result<(), StoreError> {
            // Shrinking a file needs no new blocks: never fails here.
            self.inner.truncate(len)
        }

        fn synced_len(&self) -> usize {
            self.inner.synced_len()
        }

        fn replace(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
            // Write-temp-then-rename: the fault axes hit the temp-file
            // write, so any failure (even a torn one) leaves the old
            // contents untouched; success lands fully synced.
            self.append_gate()?;
            if self.hit(self.faults.torn_prob) {
                self.stats.torn_appends += 1;
                return Err(StoreError::TornWrite);
            }
            if in_window(self.faults.sync_stall_at, self.tick) {
                self.stats.sync_stalls += 1;
                return Err(StoreError::SyncStalled);
            }
            self.inner.buf.clear();
            self.inner.buf.extend_from_slice(bytes);
            self.inner.synced = self.inner.buf.len();
            self.maybe_rot();
            Ok(())
        }

        fn crash(&mut self) {
            self.inner.crash();
        }

        fn set_tick(&mut self, tick: u64) {
            self.tick = tick;
        }

        fn fault_stats(&self) -> StoreFaultStats {
            self.stats
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn mem_store_sync_watermark() {
            let mut s = MemStore::new();
            s.append(b"abcd").expect("mem append");
            assert_eq!(s.synced_len(), 0);
            s.sync().expect("mem sync");
            s.append(b"efgh").expect("mem append");
            assert_eq!(s.read(), b"abcdefgh");
            assert_eq!(s.durable(), b"abcd");
            s.crash();
            assert_eq!(s.read(), b"abcd", "unsynced tail lost");
        }

        #[test]
        fn truncate_clamps_watermark() {
            let mut s = MemStore::new();
            s.append(b"abcdef").expect("append");
            s.sync().expect("sync");
            s.truncate(2).expect("truncate");
            assert_eq!(s.synced_len(), 2);
            s.truncate(100).expect("truncate past end is a no-op");
            assert_eq!(s.read(), b"ab");
        }

        #[test]
        fn faulty_store_is_deterministic_per_seed() {
            let run = |seed: u64| {
                let mut s = FaultyStore::new(
                    seed,
                    StoreFaults {
                        torn_prob: 0.3,
                        write_err_prob: 0.2,
                        bit_rot_prob: 0.1,
                        ..StoreFaults::default()
                    },
                );
                let mut outcomes = Vec::new();
                for i in 0..64u8 {
                    outcomes.push(s.append(&[i; 16]).err());
                }
                let _ = s.sync();
                (outcomes, s.read().to_vec(), s.fault_stats())
            };
            assert_eq!(run(7), run(7));
            assert_ne!(run(7).0, run(8).0, "different seeds draw differently");
        }

        #[test]
        fn torn_append_leaves_strict_prefix() {
            let mut s = FaultyStore::new(
                3,
                StoreFaults {
                    torn_prob: 1.0,
                    ..StoreFaults::default()
                },
            );
            let err = s.append(&[9u8; 32]).expect_err("always torn");
            assert_eq!(err, StoreError::TornWrite);
            assert!(!s.read().is_empty() && s.read().len() < 32);
            assert_eq!(s.fault_stats().torn_appends, 1);
        }

        #[test]
        fn windows_are_half_open() {
            let faults = StoreFaults {
                full_at: Some((4, 2)),
                sync_stall_at: Some((4, 2)),
                ..StoreFaults::default()
            };
            let mut s = FaultyStore::new(1, faults);
            for tick in 0..8u64 {
                s.set_tick(tick);
                let want_fault = (4..6).contains(&tick);
                assert_eq!(s.append(b"x").is_err(), want_fault, "append at {tick}");
                assert_eq!(s.sync().is_err(), want_fault, "sync at {tick}");
            }
            assert_eq!(s.fault_stats().no_space_errors, 2);
            assert_eq!(s.fault_stats().sync_stalls, 2);
        }

        #[test]
        fn replace_is_atomic_under_faults() {
            let mut s = FaultyStore::new(
                11,
                StoreFaults {
                    torn_prob: 0.5,
                    write_err_prob: 0.2,
                    ..StoreFaults::default()
                },
            );
            let mut current: Vec<u8> = Vec::new();
            for i in 0..64u8 {
                let next = vec![i; 24];
                // A refused replace must leave the old contents untouched.
                if s.replace(&next).is_ok() {
                    current = next;
                }
                assert_eq!(s.read(), &current[..], "replace half-applied at {i}");
                assert_eq!(s.durable(), &current[..], "replace left unsynced bytes");
            }
            assert_ne!(
                s.fault_stats(),
                StoreFaultStats::default(),
                "faults must actually fire"
            );
        }

        impl MemStore {
            /// A store rehydrated from bytes (all of them durable, as a
            /// reopened file's contents would be).
            pub(crate) fn from_bytes(buf: Vec<u8>) -> MemStore {
                let synced = buf.len();
                MemStore { buf, synced }
            }
        }
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

    /// An empty journal on `store`: the file is reset to the format
    /// header, and the second value says whether the store took it. A
    /// refused header keeps the store: the next
    /// [`checkpoint`](Journal::checkpoint) lays the header with its
    /// record, so the journal is durable again once the store is.
    pub fn with_store(store: Box<dyn Store>) -> (Journal, Result<(), StoreError>) {
        let mut journal = Journal {
            store,
            scratch: Vec::new(),
            headed: false,
        };
        let header = journal.lay_header();
        (journal, header)
    }

    fn lay_header(&mut self) -> Result<(), StoreError> {
        self.store.truncate(0)?;
        self.store.append(&HEADER)?;
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
        self.store.read().len() <= 8
    }

    /// Write a compacted checkpoint: the file is reset to the header
    /// plus this single snapshot record, discarding older history, and
    /// synced through to the medium. A journal whose header the store
    /// refused writes the header too, in the same append.
    pub fn checkpoint(&mut self, snap: &Snapshot) -> Result<(), StoreError> {
        // A snapshot's worth of bytes, once per cadence: not worth
        // keeping in `scratch` between checkpoints.
        let mut buf = Vec::new();
        if self.headed {
            self.store.truncate(HEADER.len())?;
        } else {
            self.store.truncate(0)?;
            buf.extend_from_slice(&HEADER);
        }
        frame_checkpoint(&mut buf, snap);
        self.store.append(&buf)?;
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
    /// [`frame_remove`] (or the verified prefix of a
    /// [`decode_records`] scan) with **one** store write, unsynced
    /// until the next [`sync`](Journal::sync) or checkpoint. A write the
    /// store tears leaves a prefix of the batch behind, which
    /// [`restore`] reads as its whole records and one torn tail. An
    /// empty batch is no write at all.
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
    /// Open a journal on `store` checkpointing every `every` ticks
    /// (at least 1), seeded with a checkpoint of `seed` taken at
    /// `seed.tick`. A store that refuses the setup starts the journal
    /// degraded, and the [`Edge::Lost`] is returned for reporting.
    pub fn open(store: Box<dyn Store>, every: u64, seed: &Snapshot) -> (Self, Option<Edge>) {
        let (journal, header) = Journal::with_store(store);
        let mut durable = DurableJournal {
            journal,
            every: every.max(1),
            last_checkpoint: seed.tick,
            degraded: false,
            io_errors: 0,
        };
        let setup = header.and_then(|()| durable.checkpoint(seed, seed.tick));
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

    /// Shadow-journal the verified prefix `raw` of a replication stream,
    /// decoded as `records`: a checkpoint record compacts the file (and
    /// supersedes whatever the stream held before it); the records after
    /// the last one go in as they came, in one write. Stops at the first
    /// store error; syncs when there is none.
    pub fn shadow(&mut self, raw: &[u8], records: &[Record], now: u64) -> Result<(), StoreError> {
        let (mut tail, mut at) = (0, 0);
        for record in records {
            at += framed_len(&raw[at..]).unwrap_or(0);
            if let Record::Checkpoint(snap) = record {
                self.checkpoint(snap, now)?;
                tail = at;
            }
        }
        self.journal.append_framed(&raw[tail..])?;
        self.journal.sync()
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

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
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
    let mut c = Cursor { bytes, pos: 0 };
    if (c.u32(), c.u32()) != (Some(MAGIC), Some(VERSION)) {
        report.truncated_records = 1;
        return report;
    }
    while c.pos < bytes.len() {
        let Some(record) = next_record(&mut c) else {
            // Torn or corrupt tail: drop this frame and everything
            // after it. One counter bump per discarded tail.
            report.truncated_records += 1;
            break;
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
        store: Box<dyn Store>,
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
            let next = match self.current() {
                None => Lease {
                    epoch: 1,
                    holder,
                    expires: now.saturating_add(ttl),
                },
                Some(cur) if cur.holder == holder && now <= cur.expires => Lease {
                    epoch: cur.epoch,
                    holder,
                    expires: now.saturating_add(ttl),
                },
                Some(cur) if now > cur.expires => Lease {
                    epoch: cur.epoch.saturating_add(1),
                    holder,
                    expires: now.saturating_add(ttl),
                },
                Some(cur) => return Err(LeaseError::Held(cur)),
            };
            self.store
                .replace(&next.encode())
                .map_err(LeaseError::Store)?;
            Ok(next)
        }

        /// Strict renewal for a holder that believes it leads: extends
        /// our own unexpired lease without ever taking over. A lapsed
        /// or foreign lease is an error — a primary that slept through
        /// its TTL must step down and re-contend via
        /// [`try_acquire`](LeaseFile::try_acquire) instead of silently
        /// re-granting itself a bumped epoch.
        pub fn renew(&mut self, holder: u32, now: u64, ttl: u64) -> Result<Lease, LeaseError> {
            match self.current() {
                Some(cur) if cur.holder == holder && now <= cur.expires => {
                    let next = Lease {
                        epoch: cur.epoch,
                        holder,
                        expires: now.saturating_add(ttl),
                    };
                    self.store
                        .replace(&next.encode())
                        .map_err(LeaseError::Store)?;
                    Ok(next)
                }
                Some(cur) if cur.holder != holder && now <= cur.expires => {
                    Err(LeaseError::Held(cur))
                }
                cur => Err(LeaseError::Expired(cur)),
            }
        }
    }

    #[cfg(test)]
    impl LeaseFile {
        /// Rehydrate from bytes (e.g. after a warm restart).
        pub(crate) fn from_bytes(buf: Vec<u8>) -> LeaseFile {
            LeaseFile {
                store: Box::new(MemStore::from_bytes(buf)),
            }
        }

        /// The raw store bytes, exactly as "on disk".
        pub(crate) fn as_bytes(&self) -> &[u8] {
            self.store.read()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        use super::super::store::{FaultyStore, StoreFaults};

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
            let good = f.as_bytes().to_vec();
            assert_eq!(good.len(), LEASE_BYTES);
            assert!(Lease::decode(&good).is_some());
            for i in 0..good.len() {
                let mut bad = good.clone();
                bad[i] ^= 0x10;
                assert_eq!(Lease::decode(&bad), None, "flip at {i} must fail CRC");
            }
            assert_eq!(Lease::decode(&good[..LEASE_BYTES - 1]), None);
            // A corrupt store behaves as never-granted.
            let mut torn = LeaseFile::from_bytes(vec![0xAB; 11]);
            assert_eq!(torn.current(), None);
            let l = torn.try_acquire(30, 0, 5).expect("regrant");
            assert_eq!(l.epoch, 1);
        }

        #[test]
        fn roundtrip_survives_rehydrate() {
            let mut f = LeaseFile::new();
            f.try_acquire(10, 0, 5).expect("grant");
            let f2 = LeaseFile::from_bytes(f.as_bytes().to_vec());
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
