//! IEEE CRC-32 (the zlib/gzip polynomial), used to checksum recording
//! container frames so corruption is detected before decoding.
//!
//! Slicing-by-8: `TABLES[0]` is the classic byte-at-a-time table, and
//! `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
//! eight table lookups fold eight input bytes at once. The values are
//! those of the byte-at-a-time loop (kept in the tests as the reference).

const POLY: u32 = 0xedb8_8320;

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// Compute the IEEE CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xffff_ffffu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The byte-at-a-time loop over `TABLES[0]`: the reference `crc32`
    /// must equal everywhere.
    fn reference(data: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check values.
        for (data, want) in [
            (&b""[..], 0),
            (b"123456789", 0xcbf4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414f_a339),
        ] {
            assert_eq!(crc32(data), want);
            assert_eq!(reference(data), want);
        }
    }

    #[test]
    fn slicing_by_8_equals_the_reference() {
        let mut rng = SplitMix64::new(0x5eed_c4c3);
        let buf: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
        // Every length 0..=64 from every start offset 0..8, so each
        // alignment meets each remainder length.
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), reference(data), "start {start} len {len}");
            }
        }
        assert_eq!(crc32(&buf), reference(&buf));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data = vec![0xa5u8; 64];
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base);
            }
        }
    }
}
