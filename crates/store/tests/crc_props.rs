//! [`aqf_store::crc::crc32`] against a byte-at-a-time reference.
//!
//! The reference is the plain 256-entry table loop, kept here so that any
//! faster formulation of the library's CRC must agree with it bit for bit
//! on every length and alignment: WAL frames written by one must verify
//! under the other.

use aqf_store::crc::crc32;
use proptest::prelude::*;

/// The reflected IEEE table, built bit by bit.
fn reference_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
        *slot = crc;
    }
    table
}

/// CRC-32 (IEEE), one table lookup per byte.
fn reference_crc32(table: &[u32; 256], data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[test]
fn known_vectors() {
    let table = reference_table();
    for (data, want) in [
        (&b"123456789"[..], 0xCBF4_3926),
        (b"", 0),
        (b"a", 0xE8B7_BE43),
        (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
    ] {
        assert_eq!(crc32(data), want, "{data:?}");
        assert_eq!(reference_crc32(&table, data), want, "reference, {data:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every length 0..=300 at every start offset 0..8 of one random
    /// buffer: the fast path's word loop, its tail and its alignment all
    /// meet the reference.
    #[test]
    fn equals_the_byte_at_a_time_reference(
        buf in proptest::collection::vec(any::<u8>(), 308..309),
    ) {
        let table = reference_table();
        for start in 0..8 {
            for len in 0..=300 {
                let data = &buf[start..start + len];
                prop_assert_eq!(
                    crc32(data),
                    reference_crc32(&table, data),
                    "start {} len {}",
                    start,
                    len
                );
            }
        }
    }
}
