//! Table-driven IEEE CRC32 (the zlib/ethernet polynomial),
//! hand-rolled because the CI containers build fully offline.
//! Slice-by-8: eight tables fold eight input bytes per step. One
//! register is one dependent chain of loads, so a 192-byte block runs
//! three 64-byte lanes side by side — the first from the running
//! register, the other two from zero — and joins them with
//! `SHIFT_64`: the register update is linear, so a lane's CRC moves
//! past 64 more bytes as if they were zeros and the next lane's is
//! xored in. The value is the byte-at-a-time CRC's, bit for bit.

/// Bytes each lane folds per block.
const LANE: usize = 64;

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
    let mut c = 0xFFFF_FFFFu32;
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
        // Past two 192-byte blocks of three lanes, into every tail.
        let data = bytes(416);
        for start in 0..16 {
            for len in 0..=400 {
                let s = &data[start..start + len];
                assert_eq!(checksum(s), bytewise(s), "start {start} len {len}");
            }
        }
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
        // 64 KiB: 341 blocks and a 64-byte tail, against the value
        // zlib's `crc32` gives for the same bytes.
        let big = bytes(64 * 1024);
        assert_eq!(bytewise(&big), 0x186E_16A2);
        assert_eq!(checksum(&big), 0x186E_16A2);
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
}
