//! IEEE CRC32 (the zlib/ethernet polynomial), hand-rolled because the
//! CI containers build fully offline. Two kernels compute the one
//! value, bit for bit the byte-at-a-time CRC's; [`checksum`] picks
//! between them by input length and CPU, never by a setting.
//!
//! - **The fold.** On x86-64 with `pclmulqdq` and `sse4.1` (detected at
//!   run time), an input of at least `FOLD_BLOCK` bytes is folded 4 ×
//!   128 bits at a time with carry-less multiplies, then 128 bits at a
//!   time, and Barrett-reduced to the register — the reflected-domain
//!   constants of Intel's "Fast CRC Computation for Generic Polynomials
//!   Using PCLMULQDQ", as zlib and Linux use them. Its last under-16
//!   bytes go through the table kernel.
//! - **The table kernel.** Slice-by-8: eight tables fold eight input
//!   bytes per step. One register is one dependent chain of loads, so a
//!   192-byte block runs three 64-byte lanes side by side — the first
//!   from the running register, the other two from zero — and joins
//!   them with `SHIFT_64`: the register update is linear, so a lane's
//!   CRC moves past 64 more bytes as if they were zeros and the next
//!   lane's is xored in. It takes short inputs, the fold's tails, and
//!   every input on a CPU without the fold's features or of another
//!   architecture.
//!
//! Each thread counts the bytes it has checksummed
//! ([`checksummed_bytes`]), so a test can pin that a record is
//! checksummed exactly once on its way through a node.

use std::cell::Cell;

/// Bytes each lane of the table kernel folds per block.
const LANE: usize = 64;
/// Bytes the fold takes per step (four 128-bit lanes): the shortest
/// input [`checksum`] folds.
const FOLD_BLOCK: usize = 64;

thread_local! {
    static CHECKSUMMED: Cell<u64> = const { Cell::new(0) };
}

/// Bytes [`checksum`] has covered on the calling thread since it
/// started. Two readings around a call count what that call
/// checksummed, whatever other threads do meanwhile.
pub fn checksummed_bytes() -> u64 {
    CHECKSUMMED.with(Cell::get)
}

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

/// `SHIFT_64[k][i]` is the register `i << 8k` after [`LANE`] zero
/// bytes, so a whole register moves past them in four lookups.
const SHIFT_64: [[u32; 256]; 4] = {
    let mut s = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            let mut c = (i as u32) << (8 * k);
            let mut n = 0;
            while n < LANE {
                c = TABLES[0][(c & 0xFF) as usize] ^ (c >> 8);
                n += 1;
            }
            s[k][i] = c;
            i += 1;
        }
        k += 1;
    }
    s
};

/// The register `c` after [`LANE`] zero bytes.
#[inline(always)]
fn shift_64(c: u32) -> u32 {
    let s = &SHIFT_64;
    s[0][(c & 0xFF) as usize]
        ^ s[1][((c >> 8) & 0xFF) as usize]
        ^ s[2][((c >> 16) & 0xFF) as usize]
        ^ s[3][(c >> 24) as usize]
}

/// Fold the eight bytes of `w` into the register `c`.
#[inline(always)]
fn fold_8(c: u32, w: &[u8]) -> u32 {
    let t = &TABLES;
    let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// CRC32 of `bytes` (IEEE, init `0xFFFF_FFFF`, final xor).
pub fn checksum(bytes: &[u8]) -> u32 {
    let _ = CHECKSUMMED.try_with(|n| n.set(n.get() + bytes.len() as u64));
    let mut c = 0xFFFF_FFFFu32;
    let mut rest = bytes;
    if rest.len() >= FOLD_BLOCK {
        if let Some(clmul) = Clmul::detect() {
            (c, rest) = clmul.fold(c, rest);
        }
    }
    table(c, rest) ^ 0xFFFF_FFFF
}

/// CRC32 of `bytes` by the table kernel alone, whatever the CPU: the
/// value [`checksum`] gives, at the speed it has where the fold cannot
/// run. Not counted in [`checksummed_bytes`].
pub fn table_checksum(bytes: &[u8]) -> u32 {
    table(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// The table kernel: the register `c` after `bytes`.
fn table(mut c: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(3 * LANE);
    for block in &mut blocks {
        let (a, rest) = block.split_at(LANE);
        let (b, d) = rest.split_at(LANE);
        let (mut ca, mut cb, mut cd) = (c, 0, 0);
        for ((wa, wb), wd) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(d.chunks_exact(8))
        {
            ca = fold_8(ca, wa);
            cb = fold_8(cb, wb);
            cd = fold_8(cd, wd);
        }
        c = shift_64(shift_64(ca) ^ cb) ^ cd;
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        c = fold_8(c, w);
    }
    for &b in words.remainder() {
        c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

use fold::Clmul;

#[cfg(target_arch = "x86_64")]
mod fold {
    use super::FOLD_BLOCK;
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// Proof that this CPU has the fold's features: only
    /// [`detect`](Clmul::detect) makes one.
    #[derive(Debug, Clone, Copy)]
    pub struct Clmul(());

    impl Clmul {
        /// `Some` when the CPU has `pclmulqdq` and `sse4.1`.
        #[inline]
        pub fn detect() -> Option<Clmul> {
            (is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"))
                .then_some(Clmul(()))
        }

        /// The register `c` after the longest prefix of `bytes` that is
        /// whole 16-byte blocks, and the rest of `bytes` (under 16
        /// bytes) for the table kernel. `bytes` holds at least
        /// [`FOLD_BLOCK`] bytes.
        #[inline]
        pub fn fold(self, c: u32, bytes: &[u8]) -> (u32, &[u8]) {
            let (blocks, tail) = bytes.split_at(bytes.len() & !15);
            #[allow(unsafe_code)]
            // SAFETY: `self` exists only if `detect` found `pclmulqdq`
            // and `sse4.1` on this CPU, the features `kernel` is built
            // for; `kernel` itself is safe code.
            let c = unsafe { kernel(c, blocks) };
            (c, tail)
        }
    }

    /// Bytes 0..16 of `b` as one little-endian 128-bit lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lane(b: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        let hi = u64::from_le_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]);
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `x` folded 128 bits forward by the constant pair `k`, xored
    /// into `y`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(x: __m128i, k: __m128i, y: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(hi, lo), y)
    }

    /// The register `c` after `blocks`: at least [`FOLD_BLOCK`] bytes,
    /// whole 16-byte blocks.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn kernel(c: u32, blocks: &[u8]) -> u32 {
        // x^(4·128±32) mod P (a 512-bit fold), x^(128±32) mod P (a
        // 128-bit fold), x^64 mod P, and P with its Barrett constant μ,
        // all bit-reflected.
        let k1k2 = _mm_set_epi64x(0x01_c6e4_1596, 0x01_5444_2bd4);
        let k3k4 = _mm_set_epi64x(0x00_ccaa_009e, 0x01_7519_97d0);
        let k5 = _mm_set_epi64x(0, 0x01_63cd_6124);
        let poly = _mm_set_epi64x(0x01_f701_1641, 0x01_db71_0641);

        let (first, rest) = blocks.split_at(FOLD_BLOCK);
        let mut x = [
            _mm_xor_si128(lane(&first[..16]), _mm_cvtsi32_si128(c as i32)),
            lane(&first[16..32]),
            lane(&first[32..48]),
            lane(&first[48..]),
        ];
        let mut wide = rest.chunks_exact(FOLD_BLOCK);
        for block in &mut wide {
            for (i, x) in x.iter_mut().enumerate() {
                *x = fold_into(*x, k1k2, lane(&block[16 * i..]));
            }
        }
        let mut acc = fold_into(x[0], k3k4, x[1]);
        acc = fold_into(acc, k3k4, x[2]);
        acc = fold_into(acc, k3k4, x[3]);
        for block in wide.remainder().chunks_exact(16) {
            acc = fold_into(acc, k3k4, lane(block));
        }

        // 128 bits to 64, then Barrett-reduce to 32.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        acc = _mm_xor_si128(
            _mm_srli_si128::<8>(acc),
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
        );
        acc = _mm_xor_si128(
            _mm_srli_si128::<4>(acc),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), k5),
        );
        let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), poly);
        t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly);
        _mm_extract_epi32::<1>(_mm_xor_si128(acc, t)) as u32
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod fold {
    /// The fold runs on x86-64 only: here no value of this type exists.
    #[derive(Debug, Clone, Copy)]
    pub enum Clmul {}

    impl Clmul {
        /// Always `None`: this architecture keeps the table kernel.
        #[inline]
        pub fn detect() -> Option<Clmul> {
            None
        }

        /// Never called: no `Clmul` exists.
        #[inline]
        pub fn fold(self, _c: u32, _bytes: &[u8]) -> (u32, &[u8]) {
            match self {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{checksum, checksummed_bytes, table, table_checksum, Clmul, FOLD_BLOCK, TABLES};

    /// The byte-at-a-time CRC both kernels replaced.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// The fold, then the table kernel on its tail: `None` below one
    /// fold block.
    fn by_fold(clmul: Clmul, bytes: &[u8]) -> Option<u32> {
        (bytes.len() >= FOLD_BLOCK).then(|| {
            let (c, tail) = clmul.fold(0xFFFF_FFFF, bytes);
            table(c, tail) ^ 0xFFFF_FFFF
        })
    }

    /// Past the fold threshold and several 64-byte folds, into every
    /// 16-byte tail; past five 192-byte blocks of the table kernel's
    /// three lanes, into every tail of its own.
    const LENGTHS: usize = 1100;

    #[test]
    fn slice_by_8_equals_bytewise_at_every_length_and_alignment() {
        let data = bytes(LENGTHS as u32 + 16);
        for start in 0..16 {
            for len in 0..=LENGTHS {
                let s = &data[start..start + len];
                let want = bytewise(s);
                assert_eq!(table_checksum(s), want, "table: start {start} len {len}");
                assert_eq!(checksum(s), want, "checksum: start {start} len {len}");
            }
        }
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
        // 64 KiB: 341 blocks and a 64-byte tail, against the value
        // zlib's `crc32` gives for the same bytes.
        let big = bytes(64 * 1024);
        assert_eq!(bytewise(&big), 0x186E_16A2);
        assert_eq!(table_checksum(&big), 0x186E_16A2);
        assert_eq!(checksum(&big), 0x186E_16A2);
    }

    #[test]
    fn the_fold_equals_bytewise_at_every_length_and_alignment() {
        let Some(clmul) = Clmul::detect() else {
            println!("the fold did not run: this CPU lacks pclmulqdq or sse4.1, or is not x86-64");
            return;
        };
        let data = bytes(LENGTHS as u32 + 16);
        for start in 0..16 {
            for len in 0..=LENGTHS {
                let s = &data[start..start + len];
                if let Some(crc) = by_fold(clmul, s) {
                    assert_eq!(crc, bytewise(s), "fold: start {start} len {len}");
                }
            }
        }
        let big = bytes(64 * 1024);
        assert_eq!(by_fold(clmul, &big), Some(0x186E_16A2));
    }

    /// `len` bytes of a multiplicative hash: no run of zeros or
    /// repeats for a lane to hide an error in.
    fn bytes(len: u32) -> Vec<u8> {
        (0..len)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
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

    #[test]
    fn each_thread_counts_the_bytes_it_checksummed() {
        let before = checksummed_bytes();
        checksum(&[0; 100]);
        checksum(b"");
        checksum(b"abc");
        assert_eq!(checksummed_bytes() - before, 103);
        std::thread::spawn(|| {
            assert_eq!(
                checksummed_bytes(),
                0,
                "a new thread has checksummed nothing"
            );
        })
        .join()
        .expect("the counting thread");
    }
}
