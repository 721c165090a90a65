//! Cyclic redundancy checks used by the link layers.
//!
//! Three CRCs appear in the reproduced system:
//!
//! - **CRC-10** protects each AAL3/4 SAR cell payload (ITU-T I.363,
//!   generator `x^10 + x^9 + x^5 + x^4 + x + 1`).
//! - **CRC-32** protects the AAL5 CPCS-PDU and every Ethernet frame
//!   (IEEE 802.3, the usual reflected 0x04C11DB7 polynomial).
//! - **HEC** (CRC-8, `x^8 + x^2 + x + 1`, coset 0x55) protects the
//!   ATM cell header.
//!
//! §4.2.1 of the paper leans on these: "standard ATM adaptation
//! layers (e.g., AAL3/4 and AAL5) specify end-to-end CRC checksums on
//! the data, and host-network interfaces implement these in
//! hardware". The checksum-elimination experiments re-create that
//! layering: when the TCP checksum is off, these CRCs are the only
//! integrity checks left, and the error-injection experiment measures
//! what each layer catches.

/// Computes the 10-bit AAL3/4 SAR CRC over `data`.
///
/// MSB-first CRC with generator `x^10+x^9+x^5+x^4+x+1` (polynomial
/// bits `0x633`), zero initial value; see [`crc10_bits`].
///
/// # Examples
///
/// ```
/// use cksum::crc::crc10;
///
/// let c = crc10(&[0u8; 44]);
/// assert_eq!(c, 0);
/// assert_ne!(crc10(b"data"), 0);
/// ```
#[must_use]
pub fn crc10(data: &[u8]) -> u16 {
    crc10_bits(data, data.len() * 8)
}

/// Computes the CRC-10 over the first `nbits` bits of `data`
/// (MSB-first within each byte).
///
/// AAL3/4 needs sub-byte granularity: the SAR-PDU trailer packs a
/// 6-bit length indicator and the 10-bit CRC into two bytes, so the
/// CRC covers a bit count that is not a multiple of eight.
///
/// Whole bytes go through position-indexed tables: by linearity the
/// CRC of `n` bytes from a zero register is the XOR of
/// `CRC10_TABLES[n - 1 - i][data[i]]`, `n` lookups that do not depend
/// on each other. A SAR cell's 46 whole bytes are one such block.
/// Longer inputs run in 48-byte blocks, the register carried into
/// each block's first ten bits. The trailing `nbits % 8` bits (six
/// for a SAR cell's 46×8+6) take one more lookup, in a table indexed
/// by bit count.
/// The result equals [`crc10_bits_serial`] for every input.
///
/// # Panics
///
/// Panics if `nbits` exceeds the available bits.
#[must_use]
pub fn crc10_bits(data: &[u8], nbits: usize) -> u16 {
    assert!(nbits <= data.len() * 8, "nbits out of range");
    let (whole, tail_bits) = (nbits / 8, nbits % 8);
    let crc = if whole <= CRC10_POSITIONS {
        crc10_block(&data[..whole])
    } else {
        crc10_blocks(&data[..whole])
    };
    if tail_bits == 0 {
        return crc;
    }
    // The register's top bits meet the tail's: one lookup.
    let n = tail_bits;
    let x = (((crc >> (10 - n)) as u8) << (8 - n)) ^ (data[whole] & !(0xff >> n));
    ((crc << n) & 0x3ff) ^ CRC10_TAIL[n][usize::from(x)]
}

/// The CRC-10 of at most `CRC10_POSITIONS` bytes from a zero
/// register: one table lookup per byte, XORed together.
fn crc10_block(bytes: &[u8]) -> u16 {
    let tables = &CRC10_TABLES[..bytes.len()];
    bytes
        .iter()
        .zip(tables.iter().rev())
        .fold(0, |crc, (&b, table)| crc ^ table[usize::from(b)])
}

/// The CRC-10 of any number of whole bytes, in blocks of
/// `CRC10_POSITIONS`.
fn crc10_blocks(bytes: &[u8]) -> u16 {
    // The short block goes first, from the zero register, so every
    // later block is full and has room for the carried register.
    let (head, blocks) = bytes.split_at(bytes.len() % CRC10_POSITIONS);
    let mut crc = crc10_block(head);
    for block in blocks.chunks_exact(CRC10_POSITIONS) {
        // The register meets the block's first ten bits.
        let carry = CRC10_TABLES[CRC10_POSITIONS - 1][usize::from(block[0] ^ (crc >> 2) as u8)]
            ^ CRC10_TABLES[CRC10_POSITIONS - 2][usize::from(block[1] ^ (crc << 6) as u8)];
        crc = carry ^ crc10_block(&block[2..]);
    }
    crc
}

/// The bit-serial CRC-10: one shift per input bit. It defines the
/// CRC that [`crc10_bits`] computes from tables and is kept as the
/// oracle its differential tests compare against.
///
/// # Panics
///
/// Panics if `nbits` exceeds the available bits.
#[must_use]
pub fn crc10_bits_serial(data: &[u8], nbits: usize) -> u16 {
    assert!(nbits <= data.len() * 8, "nbits out of range");
    let mut crc: u16 = 0;
    for (i, &byte) in data.iter().enumerate().take(nbits.div_ceil(8)) {
        crc = crc10_step_bits(crc, byte, (nbits - i * 8).min(8));
    }
    crc
}

/// Feeds the top `n` bits of `byte` (MSB first) through the CRC-10
/// register.
///
/// Non-augmented bit-serial form: feedback is the register's top bit
/// XOR the input bit; appending the CRC itself then divides to zero.
/// Polynomial bits below x^10: x^9+x^5+x^4+x+1 = 0x233.
const fn crc10_step_bits(mut crc: u16, byte: u8, n: usize) -> u16 {
    let mut i = 0;
    while i < n {
        let bit = (byte >> (7 - i)) & 1;
        let feedback = ((crc >> 9) as u8 ^ bit) & 1;
        crc = (crc << 1) & 0x3ff;
        if feedback != 0 {
            crc ^= 0x233;
        }
        i += 1;
    }
    crc
}

/// Bytes one position-table block covers: a whole 48-byte cell
/// payload, so a SAR cell's 46 covered bytes are a single block.
const CRC10_POSITIONS: usize = 48;

/// `CRC10_TABLES[k][b]`: the register after byte `b` and then `k`
/// zero bytes, from a zero register.
static CRC10_TABLES: [[u16; 256]; CRC10_POSITIONS] = {
    let mut tables = [[0u16; 256]; CRC10_POSITIONS];
    let mut i = 0;
    while i < 256 {
        tables[0][i] = crc10_step_bits(0, i as u8, 8);
        let mut k = 1;
        while k < CRC10_POSITIONS {
            tables[k][i] = crc10_step_bits(tables[k - 1][i], 0, 8);
            k += 1;
        }
        i += 1;
    }
    tables
};

/// `CRC10_TAIL[n][v]`: the register after the top `n` bits of `v`
/// (1 ≤ `n` ≤ 7, the low bits zero), from a zero register.
static CRC10_TAIL: [[u16; 256]; 8] = {
    let mut tables = [[0u16; 256]; 8];
    let mut n = 1;
    while n < 8 {
        let mut v = 0;
        while v < 256 {
            tables[n][v] = crc10_step_bits(0, v as u8, n);
            v += 1;
        }
        n += 1;
    }
    tables
};

/// Verifies a buffer whose final 10 bits carry its CRC-10, AAL3/4
/// style: including the CRC makes the whole divide to zero.
#[must_use]
pub fn crc10_check(data_with_crc: &[u8]) -> bool {
    crc10(data_with_crc) == 0
}

/// The IEEE 802.3 CRC-32 (reflected, init all-ones, final inversion).
///
/// Slice-by-8: eight bytes per step through eight byte-indexed
/// tables, then one byte per step for the remainder. The result
/// equals [`crc32_serial`] for every input.
///
/// # Examples
///
/// ```
/// use cksum::crc::crc32;
///
/// // The classic check value.
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xffff_ffff;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

/// The bit-serial CRC-32: eight shifts per byte. It defines the CRC
/// that [`crc32`] computes from tables and is kept as the oracle its
/// differential tests compare against.
#[must_use]
pub fn crc32_serial(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &byte in data {
        crc = crc32_step_byte(crc ^ u32::from(byte));
    }
    !crc
}

/// Shifts eight bits out of the reflected CRC-32 register.
const fn crc32_step_byte(mut crc: u32) -> u32 {
    let mut i = 0;
    while i < 8 {
        let lsb = crc & 1;
        crc >>= 1;
        if lsb != 0 {
            crc ^= 0xedb8_8320;
        }
        i += 1;
    }
    crc
}

/// `CRC32_TABLES[k][b]`: the reflected register after byte `b` and
/// then `k` zero bytes, from a zero register (slice-by-8).
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        tables[0][i] = crc32_step_byte(i as u32);
        i += 1;
    }
    // Each further zero byte is one byte step of the previous table.
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
};

/// The ATM Header Error Control byte: CRC-8 with generator
/// `x^8 + x^2 + x + 1` over the first four header octets, XORed with
/// the coset leader 0x55 (ITU-T I.432).
#[must_use]
pub fn hec(header4: [u8; 4]) -> u8 {
    let mut crc: u8 = 0;
    for byte in header4 {
        crc ^= byte;
        for _ in 0..8 {
            if crc & 0x80 != 0 {
                crc = (crc << 1) ^ 0x07;
            } else {
                crc <<= 1;
            }
        }
    }
    crc ^ 0x55
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data: Vec<u8> = (0..64u8).collect();
        let clean = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[i] ^= 1 << bit;
                assert_ne!(crc32(&bad), clean);
            }
        }
    }

    #[test]
    fn crc10_is_10_bits() {
        for pattern in [&b"hello"[..], &[0xffu8; 44][..], &[0x01u8][..]] {
            assert!(crc10(pattern) <= 0x3ff);
        }
    }

    #[test]
    fn crc10_roundtrip_appended() {
        // AAL3/4 style: compute over payload + 6-bit LI, then stuff
        // the CRC into the final 10 bits; re-checking the whole
        // divides to zero.
        let payload = b"0123456789abcdef0123456789abcdef0123456789ab"; // 44 B.
        let mut cell = Vec::from(&payload[..]);
        cell.push(44 << 2); // LI in the top 6 bits of the trailer halfword.
        cell.push(0);
        let covered_bits = 44 * 8 + 6;
        let c = crc10_bits(&cell, covered_bits);
        let n = cell.len();
        cell[n - 2] |= (c >> 8) as u8;
        cell[n - 1] = (c & 0xff) as u8;
        assert!(crc10_check(&cell));
        // Any corruption breaks it.
        cell[3] ^= 0x40;
        assert!(!crc10_check(&cell));
    }

    #[test]
    fn crc10_bits_byte_aligned_matches_crc10() {
        let data = b"some aal34 payload";
        assert_eq!(crc10(data), crc10_bits(data, data.len() * 8));
    }

    #[test]
    #[should_panic(expected = "nbits out of range")]
    fn crc10_bits_range_checked() {
        let _ = crc10_bits(&[0u8; 2], 17);
    }

    #[test]
    fn crc10_detects_burst_errors_within_10_bits() {
        let payload = vec![0xa5u8; 44];
        let clean = crc10(&payload);
        for start in (0..payload.len() * 8 - 10).step_by(13) {
            let mut bad = payload.clone();
            // Flip a 10-bit burst starting at `start`.
            for b in start..start + 10 {
                bad[b / 8] ^= 1 << (b % 8);
            }
            assert_ne!(crc10(&bad), clean, "burst at {start}");
        }
    }

    #[test]
    fn hec_distinguishes_headers() {
        let a = hec([0x00, 0x00, 0x00, 0x10]);
        let b = hec([0x00, 0x00, 0x01, 0x10]);
        assert_ne!(a, b);
        // The coset leader makes the all-zero header nonzero.
        assert_eq!(hec([0, 0, 0, 0]), 0x55);
    }
}
