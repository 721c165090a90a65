//! Property-based tests for the checksum algebra.
//!
//! These pin down the invariants the kernel integration relies on:
//! algorithm agreement, partial-sum combination at arbitrary split
//! points, incremental update, and error detection of the checksum as
//! actually used on the wire. The table-driven CRC-10 and CRC-32 are
//! checked against their bit-serial oracles.

use cksum::crc::{crc10_bits, crc10_bits_serial, crc32, crc32_serial};
use cksum::{
    copy_and_cksum, naive_cksum, optimized_cksum, pseudo_header_sum, ultrix_cksum, PartialChecksum,
    Sum16,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every implementation computes the same sum as the reference.
    #[test]
    fn algorithms_agree(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let expect = naive_cksum(&data);
        prop_assert_eq!(ultrix_cksum(&data), expect);
        prop_assert_eq!(optimized_cksum(&data), expect);
        let mut dst = vec![0u8; data.len()];
        prop_assert_eq!(copy_and_cksum(&data, &mut dst), expect);
        prop_assert_eq!(dst, data);
    }

    /// Splitting a buffer anywhere and combining partial checksums
    /// yields the checksum of the whole.
    #[test]
    fn partial_combination(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((data.len() as f64) * split_frac) as usize;
        let (a, b) = data.split_at(split);
        let combined = PartialChecksum::over(a).append(PartialChecksum::over(b));
        prop_assert_eq!(combined.sum(), naive_cksum(&data));
        prop_assert_eq!(combined.len(), data.len());
    }

    /// Chunking a buffer into many arbitrary pieces preserves the sum.
    #[test]
    fn many_chunk_combination(
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        chunk in 1usize..97,
    ) {
        let combined = data
            .chunks(chunk)
            .map(PartialChecksum::over)
            .fold(PartialChecksum::EMPTY, PartialChecksum::append);
        prop_assert_eq!(combined.sum(), naive_cksum(&data));
    }

    /// A packet carrying its own checksum at an even offset always
    /// verifies; flipping any single bit afterwards always fails
    /// verification.
    #[test]
    fn embedded_checksum_detects_single_bit_errors(
        mut data in proptest::collection::vec(any::<u8>(), 2..512),
        flip_byte_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        // Force even length so the checksum lands on a halfword.
        if data.len() % 2 == 1 {
            data.pop();
        }
        let c = naive_cksum(&data).finish();
        data.extend_from_slice(&c.to_be_bytes());
        prop_assert!(Sum16::over(&data).is_valid());

        let idx = ((data.len() as f64) * flip_byte_frac) as usize % data.len();
        data[idx] ^= 1 << flip_bit;
        prop_assert!(!Sum16::over(&data).is_valid());
    }

    /// RFC 1624 incremental update agrees with recomputation for any
    /// halfword replacement.
    #[test]
    fn incremental_update(
        mut data in proptest::collection::vec(any::<u8>(), 2..512),
        word_frac in 0.0f64..1.0,
        new_word in any::<u16>(),
    ) {
        if data.len() % 2 == 1 {
            data.pop();
        }
        let words = data.len() / 2;
        let wi = ((words as f64) * word_frac) as usize % words;
        let before = naive_cksum(&data);
        let old = u16::from_be_bytes([data[2 * wi], data[2 * wi + 1]]);
        data[2 * wi..2 * wi + 2].copy_from_slice(&new_word.to_be_bytes());
        prop_assert_eq!(before.update_word(old, new_word), naive_cksum(&data));
    }

    /// The pseudo-header sum composes with a payload sum exactly as a
    /// flat byte concatenation would.
    #[test]
    fn pseudo_header_composes(
        src in any::<[u8; 4]>(),
        dst in any::<[u8; 4]>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let tlen = payload.len() as u16;
        let via_api = pseudo_header_sum(src, dst, 6, tlen).add(naive_cksum(&payload));
        let mut flat = Vec::new();
        flat.extend_from_slice(&src);
        flat.extend_from_slice(&dst);
        flat.push(0);
        flat.push(6);
        flat.extend_from_slice(&tlen.to_be_bytes());
        flat.extend_from_slice(&payload);
        prop_assert_eq!(via_api, naive_cksum(&flat));
    }

    /// Byte swap is an involution and distributes over the sum.
    #[test]
    fn swap_involution(a in any::<u16>(), b in any::<u16>()) {
        let sa = Sum16::from_raw(a);
        let sb = Sum16::from_raw(b);
        prop_assert_eq!(sa.swapped().swapped(), sa);
        prop_assert_eq!(sa.add(sb).swapped(), sa.swapped().add(sb.swapped()));
    }

    /// The table-driven CRC-10 equals the bit-serial oracle at every
    /// bit count of a random buffer, byte-aligned or not.
    #[test]
    fn crc10_table_matches_serial_at_every_nbits(
        data in proptest::collection::vec(any::<u8>(), 0..97),
    ) {
        for nbits in 0..=data.len() * 8 {
            prop_assert_eq!(
                crc10_bits(&data, nbits),
                crc10_bits_serial(&data, nbits),
                "nbits {}", nbits
            );
        }
    }

    /// Every bit count of a whole cell payload: the position tables
    /// cover up to 48 bytes in one block.
    #[test]
    fn crc10_table_matches_serial_within_one_block(data in any::<[u8; 48]>()) {
        for nbits in 0..=48 * 8 {
            prop_assert_eq!(
                crc10_bits(&data, nbits),
                crc10_bits_serial(&data, nbits),
                "nbits {}", nbits
            );
        }
    }

    /// The slice-by-8 CRC-32 equals the bit-serial oracle on random
    /// buffers from empty to a jumbo frame.
    #[test]
    fn crc32_table_matches_serial(
        data in proptest::collection::vec(any::<u8>(), 0..9 * 1024),
    ) {
        prop_assert_eq!(crc32(&data), crc32_serial(&data));
    }

    /// An AAL3/4 SAR cell: 44 payload bytes, then the 6-bit length
    /// indicator, covered as 46×8+6 bits with the CRC field zero.
    #[test]
    fn crc10_table_matches_serial_on_sar_payloads(
        payload in any::<[u8; 44]>(),
        li in 0u8..45,
        st_sn in any::<u16>(),
    ) {
        let mut cell = Vec::with_capacity(48);
        cell.extend_from_slice(&st_sn.to_be_bytes());
        cell.extend_from_slice(&payload);
        cell.push(li << 2);
        cell.push(0);
        let nbits = 46 * 8 + 6;
        prop_assert_eq!(crc10_bits(&cell, nbits), crc10_bits_serial(&cell, nbits));
    }
}

/// Every single-byte input, at every bit count up to eight.
#[test]
fn crc10_table_matches_serial_on_all_single_bytes() {
    for byte in 0..=u8::MAX {
        for nbits in 0..=8 {
            assert_eq!(
                crc10_bits(&[byte], nbits),
                crc10_bits_serial(&[byte], nbits),
                "byte {byte:#04x} nbits {nbits}"
            );
        }
    }
}
