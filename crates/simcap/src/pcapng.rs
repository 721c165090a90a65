//! pcapng writer/reader with nanosecond timestamps, no external
//! dependencies.
//!
//! The writer emits one Section Header Block, one Interface
//! Description Block carrying `if_tsresol = 9` (nanosecond units),
//! and one Enhanced Packet Block per frame — the minimal well-formed
//! file Wireshark and tshark accept. The reader handles both byte
//! orders and any power-of-ten `if_tsresol`.

use crate::pcap::{CapError, Capture};
use std::io::{self, Write};

const SHB: u32 = 0x0a0d_0d0a;
const IDB: u32 = 0x0000_0001;
const EPB: u32 = 0x0000_0006;
const BYTE_ORDER_MAGIC: u32 = 0x1a2b_3c4d;

fn pad4(n: usize) -> usize {
    (4 - n % 4) % 4
}

fn write_block<W: Write>(w: &mut W, block_type: u32, body: &[u8]) -> io::Result<()> {
    let total = u32::try_from(12 + body.len() + pad4(body.len()))
        .map_err(|_| io::Error::other("block longer than u32"))?;
    w.write_all(&block_type.to_le_bytes())?;
    w.write_all(&total.to_le_bytes())?;
    w.write_all(body)?;
    w.write_all(&[0u8; 3][..pad4(body.len())])?;
    w.write_all(&total.to_le_bytes())?;
    Ok(())
}

/// Streaming pcapng writer (nanosecond timestamps).
pub struct PcapngWriter<W: Write> {
    w: W,
}

impl<W: Write> PcapngWriter<W> {
    /// Writes the SHB + IDB preamble and returns a writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn new(mut w: W, linktype: u32) -> io::Result<Self> {
        // Section Header Block.
        let mut body = Vec::new();
        body.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
        body.extend_from_slice(&1u16.to_le_bytes()); // major
        body.extend_from_slice(&0u16.to_le_bytes()); // minor
        body.extend_from_slice(&(-1i64).to_le_bytes()); // section length
        write_block(&mut w, SHB, &body)?;

        // Interface Description Block with if_tsresol = 9 (ns).
        let linktype16 =
            u16::try_from(linktype).map_err(|_| io::Error::other("linktype out of range"))?;
        let mut body = Vec::new();
        body.extend_from_slice(&linktype16.to_le_bytes());
        body.extend_from_slice(&0u16.to_le_bytes()); // reserved
        body.extend_from_slice(&65535u32.to_le_bytes()); // snaplen
        body.extend_from_slice(&9u16.to_le_bytes()); // option: if_tsresol
        body.extend_from_slice(&1u16.to_le_bytes()); // length 1
        body.extend_from_slice(&[9, 0, 0, 0]); // value 9, padded
        body.extend_from_slice(&0u32.to_le_bytes()); // opt_endofopt
        write_block(&mut w, IDB, &body)?;
        Ok(PcapngWriter { w })
    }

    /// Appends one Enhanced Packet Block stamped at `ns` nanoseconds.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_record(&mut self, ns: u64, bytes: &[u8]) -> io::Result<()> {
        let len =
            u32::try_from(bytes.len()).map_err(|_| io::Error::other("frame longer than u32"))?;
        let mut body = Vec::with_capacity(20 + bytes.len());
        body.extend_from_slice(&0u32.to_le_bytes()); // interface 0
        #[allow(clippy::cast_possible_truncation)]
        body.extend_from_slice(&((ns >> 32) as u32).to_le_bytes());
        #[allow(clippy::cast_possible_truncation)]
        body.extend_from_slice(&(ns as u32).to_le_bytes());
        body.extend_from_slice(&len.to_le_bytes()); // captured
        body.extend_from_slice(&len.to_le_bytes()); // original
        body.extend_from_slice(bytes);
        body.extend_from_slice(&[0u8; 3][..pad4(bytes.len())]);
        write_block(&mut self.w, EPB, &body)
    }

    /// Unwraps the underlying writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

/// Serializes a whole capture to pcapng bytes.
///
/// # Panics
///
/// Panics only if `linktype` exceeds `u16` — writing to a `Vec` is
/// otherwise infallible.
#[must_use]
pub fn to_pcapng_bytes(linktype: u32, records: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut w = PcapngWriter::new(Vec::new(), linktype).expect("vec write");
    for (ns, bytes) in records {
        w.write_record(*ns, bytes).expect("vec write");
    }
    w.into_inner()
}

fn rd_u16(b: &[u8], at: usize, be: bool) -> Result<u16, CapError> {
    let s: [u8; 2] = b
        .get(at..at + 2)
        .ok_or(CapError::Truncated)?
        .try_into()
        .unwrap();
    Ok(if be {
        u16::from_be_bytes(s)
    } else {
        u16::from_le_bytes(s)
    })
}

fn rd_u32(b: &[u8], at: usize, be: bool) -> Result<u32, CapError> {
    let s: [u8; 4] = b
        .get(at..at + 4)
        .ok_or(CapError::Truncated)?
        .try_into()
        .unwrap();
    Ok(if be {
        u32::from_be_bytes(s)
    } else {
        u32::from_le_bytes(s)
    })
}

/// Converts a timestamp in `10^-resol` second units to nanoseconds.
/// A resolution whose scale factor or result leaves `u64` is an error,
/// never a wrapped time.
fn to_ns(ts: u64, resol: u8) -> Result<u64, CapError> {
    if resol & 0x80 != 0 {
        return Err(CapError::Format("power-of-two if_tsresol unsupported"));
    }
    let scale = |d: i32| {
        10u64
            .checked_pow(d.unsigned_abs())
            .ok_or(CapError::Format("if_tsresol out of range"))
    };
    match 9i32 - i32::from(resol) {
        d if d >= 0 => ts
            .checked_mul(scale(d)?)
            .ok_or(CapError::Format("timestamp overflows u64 nanoseconds")),
        d => Ok(ts / scale(d)?),
    }
}

/// Parses a pcapng file (single interface; either byte order).
///
/// # Errors
///
/// Returns [`CapError`] on truncation or malformed blocks.
pub fn read_pcapng(data: &[u8]) -> Result<Capture, CapError> {
    let mut pos = 0usize;
    let mut be = false;
    let mut linktype: Option<u32> = None;
    let mut tsresol: u8 = 6; // pcapng default is microseconds
    let mut records = Vec::new();
    let mut saw_shb = false;
    while pos < data.len() {
        // Block type is endian-sensitive except for SHB, whose value
        // is a palindrome-by-design; detect SHB first.
        let raw_type = rd_u32(data, pos, false)?;
        let is_shb = raw_type == SHB;
        if is_shb {
            let bom = rd_u32(data, pos + 8, false)?;
            be = match bom {
                BYTE_ORDER_MAGIC => false,
                _ if bom.swap_bytes() == BYTE_ORDER_MAGIC => true,
                _ => return Err(CapError::BadMagic(bom)),
            };
            saw_shb = true;
        } else if !saw_shb {
            return Err(CapError::Format("pcapng must start with an SHB"));
        }
        let block_type = rd_u32(data, pos, be)?;
        let total = rd_u32(data, pos + 4, be)? as usize;
        if total < 12 || !total.is_multiple_of(4) || total > data.len() - pos {
            return Err(CapError::Truncated);
        }
        if rd_u32(data, pos + total - 4, be)? as usize != total {
            return Err(CapError::Format("block total lengths disagree"));
        }
        let body = &data[pos + 8..pos + total - 4];
        match block_type {
            b if b == IDB => {
                linktype = Some(u32::from(rd_u16(body, 0, be)?));
                // Walk options looking for if_tsresol (code 9).
                let mut o = 8usize;
                while o + 4 <= body.len() {
                    let code = rd_u16(body, o, be)?;
                    let olen = rd_u16(body, o + 2, be)? as usize;
                    if code == 0 {
                        break;
                    }
                    if code == 9 && olen >= 1 {
                        tsresol = *body.get(o + 4).ok_or(CapError::Truncated)?;
                    }
                    o += 4 + olen + pad4(olen);
                }
            }
            b if b == EPB => {
                let hi = u64::from(rd_u32(body, 4, be)?);
                let lo = u64::from(rd_u32(body, 8, be)?);
                let cap_len = rd_u32(body, 12, be)? as usize;
                let bytes = body
                    .get(20..cap_len.saturating_add(20))
                    .ok_or(CapError::Truncated)?;
                records.push((to_ns((hi << 32) | lo, tsresol)?, bytes.to_vec()));
            }
            _ => {} // SHB / unknown blocks: skip
        }
        pos += total;
    }
    Ok(Capture {
        linktype: linktype.ok_or(CapError::Format("pcapng has no interface block"))?,
        records,
    })
}

/// True when `data` looks like a pcapng file (SHB leading).
#[must_use]
pub fn is_pcapng(data: &[u8]) -> bool {
    data.len() >= 4 && u32::from_le_bytes(data[0..4].try_into().unwrap()) == SHB
}

/// Reads either format, sniffing the leading block/magic.
///
/// # Errors
///
/// Returns [`CapError`] when the bytes parse as neither format.
pub fn read_any(data: &[u8]) -> Result<Capture, CapError> {
    if is_pcapng(data) {
        read_pcapng(data)
    } else {
        crate::pcap::read_pcap(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::LINKTYPE_RAW;

    #[test]
    fn roundtrip_ns() {
        let recs = vec![
            (123_456_789_000u64, vec![0x45, 0, 0, 20]),
            (123_456_789_040, vec![]),
            (u64::from(u32::MAX) * 2_000_000_000, vec![7; 53]),
        ];
        let bytes = to_pcapng_bytes(LINKTYPE_RAW, &recs);
        let cap = read_pcapng(&bytes).unwrap();
        assert_eq!(cap.linktype, LINKTYPE_RAW);
        assert_eq!(cap.records, recs);
    }

    #[test]
    fn sniffs_both_formats() {
        let recs = vec![(40u64, vec![1, 2, 3])];
        let ng = to_pcapng_bytes(LINKTYPE_RAW, &recs);
        let classic = crate::pcap::to_pcap_bytes(LINKTYPE_RAW, &recs);
        assert!(is_pcapng(&ng));
        assert!(!is_pcapng(&classic));
        assert_eq!(read_any(&ng).unwrap().records, recs);
        assert_eq!(read_any(&classic).unwrap().records, recs);
    }

    #[test]
    fn default_tsresol_is_microseconds() {
        // Build an IDB without the if_tsresol option.
        let mut f = Vec::new();
        let mut shb = Vec::new();
        shb.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
        shb.extend_from_slice(&1u16.to_le_bytes());
        shb.extend_from_slice(&0u16.to_le_bytes());
        shb.extend_from_slice(&(-1i64).to_le_bytes());
        write_block(&mut f, SHB, &shb).unwrap();
        let mut idb = Vec::new();
        idb.extend_from_slice(&101u16.to_le_bytes());
        idb.extend_from_slice(&0u16.to_le_bytes());
        idb.extend_from_slice(&65535u32.to_le_bytes());
        write_block(&mut f, IDB, &idb).unwrap();
        let mut epb = Vec::new();
        epb.extend_from_slice(&0u32.to_le_bytes());
        epb.extend_from_slice(&0u32.to_le_bytes());
        epb.extend_from_slice(&7u32.to_le_bytes()); // 7 µs
        epb.extend_from_slice(&1u32.to_le_bytes());
        epb.extend_from_slice(&1u32.to_le_bytes());
        epb.extend_from_slice(&[0xcc, 0, 0, 0]);
        write_block(&mut f, EPB, &epb).unwrap();
        let cap = read_pcapng(&f).unwrap();
        assert_eq!(cap.records, vec![(7000u64, vec![0xcc])]);
    }
}
