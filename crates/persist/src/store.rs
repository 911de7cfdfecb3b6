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
    /// The record is larger than [`MAX_RECORD`](crate::MAX_RECORD),
    /// so no reader would take it back; nothing was written.
    RecordTooLarge,
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
            StoreError::RecordTooLarge => std::io::ErrorKind::InvalidInput,
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
            StoreError::RecordTooLarge => {
                write!(f, "record larger than a journal record may be")
            }
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
