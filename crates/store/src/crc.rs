//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`).
//!
//! The workspace builds offline against vendored shims, so the usual crc
//! crates are unavailable; this is the standard slicing-by-8 formulation:
//! eight 256-entry tables fold eight input bytes per step, with the plain
//! byte-at-a-time table loop for the tail. Its output is bit-identical to
//! the byte-at-a-time loop, which `tests/crc_props.rs` keeps as the
//! reference for every length and alignment. CRC-32 detects every
//! single-bit error and every burst of up to 32 bits, which is exactly the
//! guarantee the WAL's corruption-handling ladder leans on.

/// `TABLES[0]` is the byte table of the reflected IEEE polynomial;
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
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
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_errors_always_detected() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let good = crc32(data);
        let mut buf = data.to_vec();
        for byte in 0..buf.len() {
            for bit in 0..8 {
                buf[byte] ^= 1 << bit;
                assert_ne!(crc32(&buf), good, "missed flip at {byte}:{bit}");
                buf[byte] ^= 1 << bit;
            }
        }
    }
}
