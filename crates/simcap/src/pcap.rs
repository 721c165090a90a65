//! Classic pcap writer/reader, no external dependencies.
//!
//! Writes the nanosecond-precision variant (magic `0xa1b23c4d`) by
//! default so the simulator's 40 ns clock survives; reads both the
//! nanosecond and classic microsecond variants in either byte order.
//! Files open in standard tools (tcpdump, Wireshark, tshark).

use std::io::{self, Write};

/// Raw IPv4 on the wire (no link framing) — our TCP/IP taps.
pub const LINKTYPE_RAW: u32 = 101;
/// Ethernet (used for `ether` wire and frame taps).
pub const LINKTYPE_EN10MB: u32 = 1;
/// User-defined: 53-byte ATM cells from the fiber tap.
pub const LINKTYPE_USER0: u32 = 147;

/// Nanosecond-precision pcap magic.
pub const MAGIC_NS: u32 = 0xa1b2_3c4d;
/// Classic microsecond pcap magic.
pub const MAGIC_US: u32 = 0xa1b2_c3d4;

/// Errors from parsing a capture file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CapError {
    /// The file ends mid-structure.
    Truncated,
    /// Unrecognized file magic.
    BadMagic(u32),
    /// Structurally invalid content.
    Format(&'static str),
}

impl std::fmt::Display for CapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapError::Truncated => write!(f, "capture file truncated"),
            CapError::BadMagic(m) => write!(f, "unrecognized capture magic {m:#010x}"),
            CapError::Format(s) => write!(f, "malformed capture: {s}"),
        }
    }
}

impl std::error::Error for CapError {}

/// An in-memory capture: link type plus `(timestamp_ns, bytes)`
/// records in file order. Both the pcap and pcapng readers produce
/// this, normalizing timestamps to nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capture {
    /// pcap link type of every record.
    pub linktype: u32,
    /// Records in file order: (nanoseconds, frame bytes).
    pub records: Vec<(u64, Vec<u8>)>,
}

/// Streaming pcap writer.
pub struct PcapWriter<W: Write> {
    w: W,
}

impl<W: Write> PcapWriter<W> {
    /// Writes the file header (nanosecond magic) and returns a writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn new(mut w: W, linktype: u32) -> io::Result<Self> {
        w.write_all(&MAGIC_NS.to_le_bytes())?;
        w.write_all(&2u16.to_le_bytes())?; // version major
        w.write_all(&4u16.to_le_bytes())?; // version minor
        w.write_all(&0i32.to_le_bytes())?; // thiszone
        w.write_all(&0u32.to_le_bytes())?; // sigfigs
        w.write_all(&65535u32.to_le_bytes())?; // snaplen
        w.write_all(&linktype.to_le_bytes())?;
        Ok(PcapWriter { w })
    }

    /// Appends one record stamped at `ns` nanoseconds of virtual time.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_record(&mut self, ns: u64, bytes: &[u8]) -> io::Result<()> {
        let (sec, nsec) = (ns / 1_000_000_000, ns % 1_000_000_000);
        let len =
            u32::try_from(bytes.len()).map_err(|_| io::Error::other("frame longer than u32"))?;
        #[allow(clippy::cast_possible_truncation)]
        self.w.write_all(&(sec as u32).to_le_bytes())?;
        #[allow(clippy::cast_possible_truncation)]
        self.w.write_all(&(nsec as u32).to_le_bytes())?;
        self.w.write_all(&len.to_le_bytes())?; // incl_len
        self.w.write_all(&len.to_le_bytes())?; // orig_len
        self.w.write_all(bytes)?;
        Ok(())
    }

    /// Unwraps the underlying writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

/// Serializes a whole capture to classic (nanosecond) pcap bytes.
///
/// # Panics
///
/// Never panics: writing to a `Vec` is infallible.
#[must_use]
pub fn to_pcap_bytes(linktype: u32, records: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new(), linktype).expect("vec write");
    for (ns, bytes) in records {
        w.write_record(*ns, bytes).expect("vec write");
    }
    w.into_inner()
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    big_endian: bool,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CapError> {
        if n > self.buf.len() - self.pos {
            return Err(CapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, CapError> {
        let b: [u8; 2] = self.bytes(2)?.try_into().unwrap();
        Ok(if self.big_endian {
            u16::from_be_bytes(b)
        } else {
            u16::from_le_bytes(b)
        })
    }

    fn u32(&mut self) -> Result<u32, CapError> {
        let b: [u8; 4] = self.bytes(4)?.try_into().unwrap();
        Ok(if self.big_endian {
            u32::from_be_bytes(b)
        } else {
            u32::from_le_bytes(b)
        })
    }

    fn done(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

/// Parses a classic pcap file (either precision, either byte order).
///
/// # Errors
///
/// Returns [`CapError`] on truncation or an unknown magic.
pub fn read_pcap(data: &[u8]) -> Result<Capture, CapError> {
    if data.len() < 24 {
        return Err(CapError::Truncated);
    }
    let magic_le = u32::from_le_bytes(data[0..4].try_into().unwrap());
    let magic_be = u32::from_be_bytes(data[0..4].try_into().unwrap());
    let (big_endian, ns_precision) = match (magic_le, magic_be) {
        (MAGIC_NS, _) => (false, true),
        (MAGIC_US, _) => (false, false),
        (_, MAGIC_NS) => (true, true),
        (_, MAGIC_US) => (true, false),
        _ => return Err(CapError::BadMagic(magic_le)),
    };
    let mut r = Reader {
        buf: data,
        pos: 4,
        big_endian,
    };
    let _major = r.u16()?;
    let _minor = r.u16()?;
    let _thiszone = r.u32()?;
    let _sigfigs = r.u32()?;
    let _snaplen = r.u32()?;
    let linktype = r.u32()?;
    let mut records = Vec::new();
    while !r.done() {
        let sec = u64::from(r.u32()?);
        let frac = u64::from(r.u32()?);
        let incl = r.u32()? as usize;
        let _orig = r.u32()?;
        let bytes = r.bytes(incl)?.to_vec();
        let ns = sec * 1_000_000_000 + if ns_precision { frac } else { frac * 1000 };
        records.push((ns, bytes));
    }
    Ok(Capture { linktype, records })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ns() {
        let recs = vec![
            (0u64, vec![1, 2, 3]),
            (40, vec![]),
            (3_000_000_123, vec![0xff; 60]),
        ];
        let bytes = to_pcap_bytes(LINKTYPE_RAW, &recs);
        let cap = read_pcap(&bytes).unwrap();
        assert_eq!(cap.linktype, LINKTYPE_RAW);
        assert_eq!(cap.records, recs);
    }

    #[test]
    fn reads_microsecond_variant() {
        // Hand-build a µs-precision file with one 2-byte record at 5 µs.
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC_US.to_le_bytes());
        f.extend_from_slice(&2u16.to_le_bytes());
        f.extend_from_slice(&4u16.to_le_bytes());
        f.extend_from_slice(&0u32.to_le_bytes());
        f.extend_from_slice(&0u32.to_le_bytes());
        f.extend_from_slice(&65535u32.to_le_bytes());
        f.extend_from_slice(&LINKTYPE_EN10MB.to_le_bytes());
        f.extend_from_slice(&0u32.to_le_bytes()); // sec
        f.extend_from_slice(&5u32.to_le_bytes()); // µs
        f.extend_from_slice(&2u32.to_le_bytes());
        f.extend_from_slice(&2u32.to_le_bytes());
        f.extend_from_slice(&[0xaa, 0xbb]);
        let cap = read_pcap(&f).unwrap();
        assert_eq!(cap.linktype, LINKTYPE_EN10MB);
        assert_eq!(cap.records, vec![(5000u64, vec![0xaa, 0xbb])]);
    }

    #[test]
    fn reads_big_endian() {
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC_NS.to_be_bytes());
        f.extend_from_slice(&2u16.to_be_bytes());
        f.extend_from_slice(&4u16.to_be_bytes());
        f.extend_from_slice(&0u32.to_be_bytes());
        f.extend_from_slice(&0u32.to_be_bytes());
        f.extend_from_slice(&65535u32.to_be_bytes());
        f.extend_from_slice(&LINKTYPE_RAW.to_be_bytes());
        f.extend_from_slice(&1u32.to_be_bytes()); // sec
        f.extend_from_slice(&7u32.to_be_bytes()); // ns
        f.extend_from_slice(&1u32.to_be_bytes());
        f.extend_from_slice(&1u32.to_be_bytes());
        f.push(0x42);
        let cap = read_pcap(&f).unwrap();
        assert_eq!(cap.records, vec![(1_000_000_007u64, vec![0x42])]);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(read_pcap(&[0; 10]), Err(CapError::Truncated));
        assert!(matches!(read_pcap(&[9; 40]), Err(CapError::BadMagic(_))));
    }
}
