//! In-tree CRC-32 (IEEE 802.3 polynomial, the zlib/`cksum -o 3` variant).
//!
//! The container build is fully offline, so the checksum lives here
//! instead of pulling `crc32fast`. It runs slice-by-8: eight 256-entry
//! tables, built once at first use, fold eight input bytes per step;
//! tail bytes take the classic one-table step. Every checkpoint,
//! journal record and ingress record is checksummed on write and on
//! load, so a revival pays for the whole snapshot plus its journal.

use std::sync::OnceLock;

/// Reflected polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

/// `t[0]` is the classic byte table; `t[k][i]` is the CRC of byte `i`
/// followed by `k` zero bytes, so eight lookups advance eight bytes.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        let t0 = t[0];
        for k in 1..8 {
            let prev = t[k - 1];
            for (e, p) in t[k].iter_mut().zip(prev) {
                *e = (p >> 8) ^ t0[(p & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
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
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use indra_rng::forall;

    /// Bit-at-a-time CRC-32: the definition the tables must reproduce.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        // zlib's crc32 over b[i] = ((i * 131 + 7) >> 3) & 0xFF.
        let big: Vec<u8> = (0..1usize << 20).map(|i| (((i * 131 + 7) >> 3) & 0xFF) as u8).collect();
        assert_eq!(crc32(&big), 0x7B84_8A1A);
        assert_eq!(crc32(&big[..12_345]), 0x7402_7D45);
    }

    #[test]
    fn slice_by_8_matches_the_bitwise_definition() {
        forall("persist.crc32_bitwise", 64, |rng| {
            let len = rng.range_usize(0, 10_001);
            let start = rng.range_usize(0, 8);
            let buf: Vec<u8> = (0..start + len).map(|_| rng.gen_u8()).collect();
            let slice = &buf[start..];
            assert_eq!(crc32(slice), crc32_bitwise(slice), "len {len} at offset {start}");
        });
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"hello world");
        let mut flipped = b"hello world".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(a, crc32(&flipped));
    }
}
