//! AAL3/4 — the ATM adaptation layer the paper's driver and adapter
//! implement ("the Class 3/4 ATM Adaptation Layer (AAL), which is
//! responsible for all segmentation and reassembly of datagrams and
//! the detection of transmission errors and dropped cells", §1.1).
//!
//! Two sublayers (ITU-T I.363):
//!
//! - **CPCS** frames the datagram: a 4-byte header (CPI, BTag,
//!   BASize) and a 4-byte trailer (AL, ETag, Length), with the
//!   payload padded to a 4-byte multiple. BTag must equal ETag.
//! - **SAR** carries the CPCS-PDU in 44-byte cell payloads. Each
//!   SAR-PDU has a 2-byte header — segment type (BOM/COM/EOM/SSM),
//!   4-bit sequence number, 10-bit MID — and a 2-byte trailer with a
//!   6-bit length indicator and a **CRC-10** covering the whole
//!   SAR-PDU.
//!
//! The reassembler detects every error class the paper's §4.2.1
//! analysis assigns to this layer: per-cell CRC failures, sequence
//! gaps from dropped cells, length mismatches, and tag mismatches
//! from interleaved or lost frames.

use cksum::crc::crc10_bits;

use crate::cell::{Cell, CellHeader, CELL_PAYLOAD};

/// SAR payload bytes per cell (48 minus 2-byte header and 2-byte
/// trailer).
pub const SAR_PAYLOAD: usize = 44;

/// CPCS overhead: 4-byte header plus 4-byte trailer.
pub const CPCS_OVERHEAD: usize = 8;

/// Segment type codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SegType {
    /// Beginning of message.
    Bom = 0b10,
    /// Continuation of message.
    Com = 0b00,
    /// End of message.
    Eom = 0b01,
    /// Single-segment message.
    Ssm = 0b11,
}

/// Errors detected by the AAL3/4 receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Aal34Error {
    /// SAR-PDU CRC-10 failure (bit corruption within a cell).
    Crc,
    /// Sequence number gap — a cell was lost.
    Sequence,
    /// COM or EOM arrived with no reassembly in progress.
    Orphan,
    /// BOM arrived while a message was already in progress.
    MidCollision,
    /// CPCS BTag and ETag differ.
    TagMismatch,
    /// CPCS Length disagrees with the received byte count.
    LengthMismatch,
    /// SAR length indicator out of range for the segment type.
    BadLengthIndicator,
    /// Reassembled data exceeded the advertised buffer allocation.
    Overflow,
}

/// Segmentation: turns a datagram into a train of cells.
///
/// # Examples
///
/// ```
/// use atm::{Aal34Segmenter, Aal34Reassembler};
///
/// let mut seg = Aal34Segmenter::new(0, 42, 7);
/// let cells = seg.segment(b"a complete datagram");
/// let mut reasm = Aal34Reassembler::new();
/// let mut out = None;
/// for cell in cells {
///     if let Some(d) = reasm.push(&cell).unwrap() {
///         out = Some(d);
///     }
/// }
/// assert_eq!(out.unwrap(), b"a complete datagram");
/// ```
pub struct Aal34Segmenter {
    vpi: u8,
    vci: u16,
    mid: u16,
    btag: u8,
    sn: u8,
}

impl Aal34Segmenter {
    /// Creates a segmenter for one virtual channel and MID.
    #[must_use]
    pub fn new(vpi: u8, vci: u16, mid: u16) -> Self {
        Aal34Segmenter {
            vpi,
            vci,
            mid: mid & 0x3ff,
            btag: 0,
            sn: 0,
        }
    }

    /// The VCI this segmenter's cells carry.
    #[must_use]
    pub fn vci(&self) -> u16 {
        self.vci
    }

    /// Number of cells a datagram of `len` bytes occupies.
    #[must_use]
    pub fn cells_for(len: usize) -> usize {
        let cpcs = CPCS_OVERHEAD + len.div_ceil(4) * 4;
        cpcs.div_ceil(SAR_PAYLOAD)
    }

    /// Segments a datagram into cells.
    ///
    /// # Panics
    ///
    /// Panics on datagrams longer than 65535 bytes (the CPCS Length
    /// field width).
    pub fn segment(&mut self, data: &[u8]) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(Self::cells_for(data.len()));
        self.segment_with(
            data.len(),
            |d| d.copy_from_slice(data),
            &mut Vec::new(),
            |c| cells.push(c),
        );
        cells
    }

    /// Segments a datagram of `len` bytes without allocating once the
    /// scratch buffer has grown: `fill` writes the datagram into the
    /// slice it is handed (the CPCS-PDU's payload, inside `pdu`), and
    /// each cell goes to `emit` in order.
    ///
    /// # Panics
    ///
    /// Panics on datagrams longer than 65535 bytes (the CPCS Length
    /// field width).
    pub fn segment_with(
        &mut self,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
        pdu: &mut Vec<u8>,
        mut emit: impl FnMut(Cell),
    ) {
        assert!(len <= u16::MAX as usize, "datagram too long for AAL3/4");
        let padded = len.div_ceil(4) * 4;
        self.btag = self.btag.wrapping_add(1);
        pdu.clear();
        // Header: CPI (only 0 is defined), BTag, BASize (buffer
        // allocation hint).
        pdu.extend_from_slice(&[0, self.btag]);
        pdu.extend_from_slice(&(padded as u16).to_be_bytes());
        pdu.resize(4 + padded, 0);
        fill(&mut pdu[4..4 + len]);
        // Trailer: AL (alignment), ETag, Length.
        pdu.extend_from_slice(&[0, self.btag]);
        pdu.extend_from_slice(&(len as u16).to_be_bytes());
        let n_cells = pdu.len().div_ceil(SAR_PAYLOAD);
        for (i, chunk) in pdu.chunks(SAR_PAYLOAD).enumerate() {
            let st = if n_cells == 1 {
                SegType::Ssm
            } else if i == 0 {
                SegType::Bom
            } else if i == n_cells - 1 {
                SegType::Eom
            } else {
                SegType::Com
            };
            emit(self.sar_cell(st, chunk));
            self.sn = (self.sn + 1) & 0xf;
        }
    }

    fn sar_cell(&self, st: SegType, chunk: &[u8]) -> Cell {
        let mut payload = [0u8; CELL_PAYLOAD];
        // SAR header: ST(2) SN(4) MID(10).
        payload[0] = ((st as u8) << 6) | (self.sn << 2) | ((self.mid >> 8) as u8 & 0x3);
        payload[1] = (self.mid & 0xff) as u8;
        payload[2..2 + chunk.len()].copy_from_slice(chunk);
        // SAR trailer: LI(6) CRC(10). The CRC covers header, payload
        // and LI — 46 bytes plus 6 bits.
        let li = chunk.len() as u8;
        payload[46] = li << 2;
        let crc = crc10_bits(&payload, 46 * 8 + 6);
        payload[46] |= (crc >> 8) as u8;
        payload[47] = (crc & 0xff) as u8;
        let header = CellHeader {
            gfc: 0,
            vpi: self.vpi,
            vci: self.vci,
            pt: 0,
            clp: false,
        };
        Cell::new(header, payload)
    }
}

/// Statistics kept by the reassembler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Aal34Stats {
    /// Cells accepted.
    pub cells_ok: u64,
    /// Cells rejected by the CRC-10.
    pub cells_crc_bad: u64,
    /// Datagrams delivered.
    pub datagrams_ok: u64,
    /// Datagrams dropped (any reason).
    pub datagrams_dropped: u64,
}

/// A message in reassembly. The 4-byte CPCS header is held apart
/// from the rest, so a completed datagram is `buf` truncated to its
/// length, with no copy.
struct Partial {
    sn_expect: u8,
    /// The CPCS header bytes received so far (`head_len` of them).
    head: [u8; 4],
    head_len: usize,
    /// Everything after the CPCS header: payload, pad and trailer.
    buf: Vec<u8>,
    basize: usize,
    btag: u8,
}

/// Most spare datagram buffers a reassembler keeps for reuse.
const SPARE_BUFFERS: usize = 8;

/// Reassembly state machine for one virtual channel.
///
/// `push` consumes cells in arrival order and yields a complete
/// datagram when an EOM/SSM validates. On error the in-progress
/// message is discarded and the error returned; the caller decides
/// whether to count or log it (the driver counts, like real drivers).
///
/// Datagrams are built in recycled buffers: a caller done with a
/// datagram may hand its buffer back with [`Aal34Reassembler::recycle`]
/// so steady-state reassembly allocates nothing.
#[derive(Default)]
pub struct Aal34Reassembler {
    partial: Option<Partial>,
    spare: Vec<Vec<u8>>,
    stats: Aal34Stats,
}

impl Aal34Reassembler {
    /// Creates an idle reassembler.
    #[must_use]
    pub fn new() -> Self {
        Aal34Reassembler::default()
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> Aal34Stats {
        self.stats
    }

    /// Returns a datagram buffer for reuse by later messages.
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.spare.len() < SPARE_BUFFERS {
            buf.clear();
            self.spare.push(buf);
        }
    }

    /// Consumes one cell. Returns `Ok(Some(datagram))` when a message
    /// completes, `Ok(None)` while in progress, and `Err(..)` when the
    /// cell or message is invalid (the partial message is dropped).
    pub fn push(&mut self, cell: &Cell) -> Result<Option<Vec<u8>>, Aal34Error> {
        let payload = cell.payload();
        // CRC-10 first: it covers everything else we parse.
        let li = payload[46] >> 2;
        let crc = (u16::from(payload[46] & 0x3) << 8) | u16::from(payload[47]);
        if crc10_bits(payload, 46 * 8 + 6) != crc {
            self.stats.cells_crc_bad += 1;
            self.drop_partial();
            return Err(Aal34Error::Crc);
        }
        self.stats.cells_ok += 1;
        let st = payload[0] >> 6;
        let sn = (payload[0] >> 2) & 0xf;
        let li = li as usize;
        let data = &payload[2..46];
        match st {
            0b10 => self.on_bom(sn, li, data),
            0b00 => self.on_com(sn, li, data),
            0b01 => self.on_eom(sn, li, data),
            0b11 => {
                // Single-segment message: header and trailer in one cell.
                self.drop_partial();
                self.begin(sn);
                self.ingest(li, data)?;
                self.finish()
            }
            _ => unreachable!("2-bit field"),
        }
    }

    /// Opens a message in a spare buffer.
    fn begin(&mut self, sn: u8) {
        self.partial = Some(Partial {
            sn_expect: (sn + 1) & 0xf,
            head: [0; 4],
            head_len: 0,
            buf: self.spare.pop().unwrap_or_default(),
            basize: usize::MAX,
            btag: 0,
        });
    }

    fn on_bom(&mut self, sn: u8, li: usize, data: &[u8]) -> Result<Option<Vec<u8>>, Aal34Error> {
        if self.partial.is_some() {
            self.drop_partial();
            // Start the new message anyway, as real reassemblers do,
            // but report the collision.
            self.start(sn, li, data)?;
            return Err(Aal34Error::MidCollision);
        }
        self.start(sn, li, data)?;
        Ok(None)
    }

    fn start(&mut self, sn: u8, li: usize, data: &[u8]) -> Result<(), Aal34Error> {
        if li != SAR_PAYLOAD {
            return Err(Aal34Error::BadLengthIndicator);
        }
        self.begin(sn);
        self.ingest(li, data)
    }

    fn on_com(&mut self, sn: u8, li: usize, data: &[u8]) -> Result<Option<Vec<u8>>, Aal34Error> {
        let Some(p) = self.partial.as_mut() else {
            self.stats.datagrams_dropped += 1;
            return Err(Aal34Error::Orphan);
        };
        if p.sn_expect != sn {
            self.drop_partial();
            return Err(Aal34Error::Sequence);
        }
        p.sn_expect = (sn + 1) & 0xf;
        if li != SAR_PAYLOAD {
            self.drop_partial();
            return Err(Aal34Error::BadLengthIndicator);
        }
        self.ingest(li, data)?;
        Ok(None)
    }

    fn on_eom(&mut self, sn: u8, li: usize, data: &[u8]) -> Result<Option<Vec<u8>>, Aal34Error> {
        let Some(p) = self.partial.as_mut() else {
            self.stats.datagrams_dropped += 1;
            return Err(Aal34Error::Orphan);
        };
        if p.sn_expect != sn {
            self.drop_partial();
            return Err(Aal34Error::Sequence);
        }
        if !(4..=SAR_PAYLOAD).contains(&li) {
            self.drop_partial();
            return Err(Aal34Error::BadLengthIndicator);
        }
        self.ingest(li, data)?;
        self.finish()
    }

    /// Appends `li` bytes of SAR payload, parsing the CPCS header on
    /// first contact and enforcing the buffer allocation size.
    fn ingest(&mut self, li: usize, data: &[u8]) -> Result<(), Aal34Error> {
        let p = self.partial.as_mut().expect("ingest with active partial");
        let mut bytes = &data[..li];
        if p.head_len < 4 {
            let take = (4 - p.head_len).min(bytes.len());
            p.head[p.head_len..p.head_len + take].copy_from_slice(&bytes[..take]);
            p.head_len += take;
            bytes = &bytes[take..];
            if p.head_len == 4 {
                p.btag = p.head[1];
                p.basize = usize::from(u16::from_be_bytes([p.head[2], p.head[3]]));
            }
        }
        p.buf.extend_from_slice(bytes);
        if p.basize != usize::MAX && 4 + p.buf.len() > 4 + p.basize + 4 {
            self.drop_partial();
            return Err(Aal34Error::Overflow);
        }
        Ok(())
    }

    /// Validates the CPCS framing and yields the datagram: the
    /// message's own buffer, truncated to the CPCS Length.
    fn finish(&mut self) -> Result<Option<Vec<u8>>, Aal34Error> {
        let p = self.partial.take().expect("finish with active partial");
        let mut buf = p.buf;
        let verdict = if p.head_len + buf.len() < CPCS_OVERHEAD {
            Err(Aal34Error::LengthMismatch)
        } else {
            // At least eight bytes: the header is whole and the
            // trailer ends `buf`.
            let n = buf.len();
            let etag = buf[n - 3];
            let length = usize::from(u16::from_be_bytes([buf[n - 2], buf[n - 1]]));
            let padded = n - 4;
            if etag != p.btag {
                Err(Aal34Error::TagMismatch)
            } else if length > padded || padded != length.div_ceil(4) * 4 {
                Err(Aal34Error::LengthMismatch)
            } else {
                Ok(length)
            }
        };
        match verdict {
            Ok(length) => {
                self.stats.datagrams_ok += 1;
                buf.truncate(length);
                Ok(Some(buf))
            }
            Err(e) => {
                self.stats.datagrams_dropped += 1;
                self.recycle(buf);
                Err(e)
            }
        }
    }

    fn drop_partial(&mut self) {
        if let Some(p) = self.partial.take() {
            self.stats.datagrams_dropped += 1;
            self.recycle(p.buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let mut seg = Aal34Segmenter::new(0, 5, 1);
        let mut reasm = Aal34Reassembler::new();
        let mut out = None;
        for cell in seg.segment(data) {
            if let Some(d) = reasm.push(&cell).expect("clean channel") {
                out = Some(d);
            }
        }
        out.expect("datagram completes")
    }

    #[test]
    fn roundtrip_various_sizes() {
        for n in [
            0usize, 1, 3, 4, 35, 36, 37, 44, 88, 100, 1400, 4040, 8040, 9188,
        ] {
            let data: Vec<u8> = (0..n).map(|i| (i * 7 + 1) as u8).collect();
            assert_eq!(roundtrip(&data), data, "size {n}");
        }
    }

    #[test]
    fn cell_counts_match_formula() {
        for n in [4usize, 20, 80, 200, 500, 1400, 4000, 8000] {
            let mut seg = Aal34Segmenter::new(0, 5, 1);
            let data = vec![0u8; n];
            let cells = seg.segment(&data);
            assert_eq!(cells.len(), Aal34Segmenter::cells_for(n), "size {n}");
        }
        // The paper's 4-byte case: 4+8 CPCS bytes = 12 -> one cell (SSM).
        assert_eq!(Aal34Segmenter::cells_for(4), 1);
        // A 4000-byte TCP packet (4040 with headers): 4048 -> 92 cells.
        assert_eq!(Aal34Segmenter::cells_for(4040), 92);
    }

    #[test]
    fn sequence_numbers_wrap_mod_16() {
        let mut seg = Aal34Segmenter::new(0, 5, 1);
        let cells = seg.segment(&vec![0u8; 2000]); // 46 cells.
        assert!(cells.len() > 16);
        let mut reasm = Aal34Reassembler::new();
        let mut done = false;
        for cell in &cells {
            if reasm.push(cell).unwrap().is_some() {
                done = true;
            }
        }
        assert!(done);
    }

    #[test]
    fn lost_cell_detected_as_sequence_gap() {
        let mut seg = Aal34Segmenter::new(0, 5, 1);
        let mut cells = seg.segment(&vec![0xabu8; 1000]);
        cells.remove(cells.len() / 2); // Drop a COM cell.
        let mut reasm = Aal34Reassembler::new();
        let mut errs = Vec::new();
        for cell in &cells {
            if let Err(e) = reasm.push(cell) {
                errs.push(e);
            }
        }
        assert!(errs.contains(&Aal34Error::Sequence), "{errs:?}");
        assert_eq!(reasm.stats().datagrams_ok, 0);
    }

    #[test]
    fn corrupted_payload_detected_by_crc10() {
        let mut seg = Aal34Segmenter::new(0, 5, 1);
        let mut cells = seg.segment(&vec![0x5au8; 500]);
        // Flip a payload bit in the middle cell.
        let idx = cells.len() / 2;
        let mut raw = cells[idx].to_bytes();
        raw[20] ^= 0x04;
        cells[idx] = Cell::from_bytes(&raw).expect("header untouched");
        let mut reasm = Aal34Reassembler::new();
        let mut saw_crc = false;
        for cell in &cells {
            if reasm.push(cell) == Err(Aal34Error::Crc) {
                saw_crc = true;
            }
        }
        assert!(saw_crc);
        assert_eq!(reasm.stats().cells_crc_bad, 1);
        assert_eq!(reasm.stats().datagrams_ok, 0);
    }

    #[test]
    fn orphan_cells_rejected() {
        let mut seg = Aal34Segmenter::new(0, 5, 1);
        let cells = seg.segment(&vec![0u8; 500]);
        let mut reasm = Aal34Reassembler::new();
        // Push a COM without its BOM.
        assert_eq!(reasm.push(&cells[1]), Err(Aal34Error::Orphan));
    }

    #[test]
    fn interleaved_boms_reported() {
        let mut seg = Aal34Segmenter::new(0, 5, 1);
        let first = seg.segment(&vec![1u8; 500]);
        let mut seg2 = Aal34Segmenter::new(0, 5, 1);
        let second = seg2.segment(&vec![2u8; 500]);
        let mut reasm = Aal34Reassembler::new();
        reasm.push(&first[0]).unwrap();
        assert_eq!(reasm.push(&second[0]), Err(Aal34Error::MidCollision));
        // The second message still completes.
        let mut out = None;
        for c in &second[1..] {
            if let Some(d) = reasm.push(c).unwrap() {
                out = Some(d);
            }
        }
        assert_eq!(out.unwrap(), vec![2u8; 500]);
    }

    #[test]
    fn back_to_back_datagrams() {
        let mut seg = Aal34Segmenter::new(0, 5, 1);
        let a: Vec<u8> = (0..4136u32).map(|i| i as u8).collect();
        let b: Vec<u8> = (0..3944u32).map(|i| (i ^ 0x5a) as u8).collect();
        let mut cells = seg.segment(&a);
        cells.extend(seg.segment(&b));
        let mut reasm = Aal34Reassembler::new();
        let mut got = Vec::new();
        for cell in &cells {
            if let Some(d) = reasm.push(cell).unwrap() {
                got.push(d);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], a);
        assert_eq!(got[1], b);
        assert_eq!(reasm.stats().datagrams_ok, 2);
    }

    #[test]
    fn recycled_buffers_carry_later_datagrams() {
        let mut seg = Aal34Segmenter::new(0, 5, 1);
        let mut reasm = Aal34Reassembler::new();
        let mut reused = None;
        // Largest first, so no later datagram outgrows the buffer.
        for (i, n) in [9188usize, 4000, 1400, 37, 4].into_iter().enumerate() {
            let data: Vec<u8> = (0..n).map(|j| (i * 31 + j) as u8).collect();
            let mut out = None;
            for cell in seg.segment(&data) {
                if let Some(d) = reasm.push(&cell).expect("clean channel") {
                    out = Some(d);
                }
            }
            let d = out.expect("datagram completes");
            assert_eq!(d, data, "size {n}");
            if i > 0 {
                assert_eq!(Some(d.as_ptr()), reused, "the spare buffer is reused");
            }
            reused = Some(d.as_ptr());
            reasm.recycle(d);
        }
    }

    #[test]
    fn segment_with_matches_segment() {
        let data: Vec<u8> = (0..1234u32).map(|i| (i * 7) as u8).collect();
        let mut a = Aal34Segmenter::new(0, 9, 3);
        let mut b = Aal34Segmenter::new(0, 9, 3);
        let mut pdu = Vec::new();
        for _ in 0..3 {
            let mut cells = Vec::new();
            b.segment_with(
                data.len(),
                |d| d.copy_from_slice(&data),
                &mut pdu,
                |c| {
                    cells.push(c);
                },
            );
            assert_eq!(cells, a.segment(&data));
        }
    }
}
