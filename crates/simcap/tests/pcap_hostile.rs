//! Hostile capture files: the pcap and pcapng readers (what `capdiff`
//! reads) return a typed [`CapError`] on malformed input. They never
//! panic, never wrap a timestamp, and never size an allocation by an
//! untrusted length field: the largest single allocation a parse makes
//! stays within the input's own length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use simcap::pcap::{read_pcap, to_pcap_bytes};
use simcap::pcapng::{read_pcapng, to_pcapng_bytes};
use simcap::{CapError, Capture, LINKTYPE_RAW};

/// The system allocator, recording the largest single request made on
/// the current thread while tracking is on.
struct PeakAlloc;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// only touches const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

fn note(size: usize) {
    let _ = TRACKING.try_with(|t| {
        if t.get() {
            let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
        }
    });
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Floor of the allocation bound, covering the fixed-size record
/// index of a handful of records.
const SMALL_ALLOC: usize = 1024;

/// Parses `data`, asserting the allocation bound; on success also
/// asserts the records hold no more bytes than the input.
fn parse(read: fn(&[u8]) -> Result<Capture, CapError>, data: &[u8]) -> Result<Capture, CapError> {
    PEAK.with(|p| p.set(0));
    TRACKING.with(|t| t.set(true));
    let out = read(data);
    TRACKING.with(|t| t.set(false));
    let peak = PEAK.with(Cell::get);
    assert!(
        peak <= data.len().max(SMALL_ALLOC),
        "a {}-byte input made a {peak}-byte allocation",
        data.len()
    );
    if let Ok(cap) = &out {
        let held: usize = cap.records.iter().map(|(_, b)| b.len()).sum();
        assert!(
            held <= data.len(),
            "{held} record bytes from {}",
            data.len()
        );
    }
    out
}

/// Records both writers round-trip: pcap stores whole seconds in 32
/// bits, so timestamps stay below `u32::MAX` seconds.
fn records() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    proptest::collection::vec(
        (
            0u64..4_000_000_000_000_000_000,
            proptest::collection::vec(any::<u8>(), 0..80),
        ),
        1..6,
    )
}

/// Byte offsets of every EPB in a file written by `to_pcapng_bytes`
/// (after the SHB and the one IDB).
fn epb_offsets(file: &[u8]) -> Vec<usize> {
    let mut pos = 28 + 32;
    let mut out = Vec::new();
    while pos < file.len() {
        out.push(pos);
        pos += u32::from_le_bytes(file[pos + 4..pos + 8].try_into().unwrap()) as usize;
    }
    out
}

/// Byte offsets of every record header in a file written by
/// `to_pcap_bytes`.
fn record_offsets(file: &[u8]) -> Vec<usize> {
    let mut pos = 24;
    let mut out = Vec::new();
    while pos < file.len() {
        out.push(pos);
        pos += 16 + u32::from_le_bytes(file[pos + 8..pos + 12].try_into().unwrap()) as usize;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A file cut at any offset is an error, unless the cut falls
    /// exactly between records: then the result is the valid prefix,
    /// byte for byte.
    #[test]
    fn truncation_at_every_offset(recs in records()) {
        let ng = to_pcapng_bytes(LINKTYPE_RAW, &recs);
        let classic = to_pcap_bytes(LINKTYPE_RAW, &recs);
        for cut in 0..ng.len() {
            if let Ok(cap) = parse(read_pcapng, &ng[..cut]) {
                prop_assert_eq!(&to_pcapng_bytes(cap.linktype, &cap.records)[..], &ng[..cut]);
            }
        }
        for cut in 0..classic.len() {
            if let Ok(cap) = parse(read_pcap, &classic[..cut]) {
                prop_assert_eq!(&to_pcap_bytes(cap.linktype, &cap.records)[..], &classic[..cut]);
            }
        }
    }

    /// A corrupted leading or trailing block total length is an
    /// error.
    #[test]
    fn corrupted_block_total_length(
        recs in records(),
        pick in any::<usize>(),
        trailing in any::<bool>(),
        len in any::<u32>(),
    ) {
        let mut ng = to_pcapng_bytes(LINKTYPE_RAW, &recs);
        let mut blocks = vec![0, 28];
        blocks.extend(epb_offsets(&ng));
        let at = blocks[pick % blocks.len()];
        let total = u32::from_le_bytes(ng[at + 4..at + 8].try_into().unwrap());
        let len = if len == total { len ^ 4 } else { len };
        let field = if trailing { at + total as usize - 4 } else { at + 4 };
        ng[field..field + 4].copy_from_slice(&len.to_le_bytes());
        prop_assert!(parse(read_pcapng, &ng).is_err());
    }

    /// A captured length past the end of its block (pcapng) or of the
    /// file (pcap) is an error.
    #[test]
    fn oversized_captured_length(recs in records(), pick in any::<usize>(), extra in 1u32..u32::MAX) {
        let mut ng = to_pcapng_bytes(LINKTYPE_RAW, &recs);
        let epbs = epb_offsets(&ng);
        let at = epbs[pick % epbs.len()];
        let total = u32::from_le_bytes(ng[at + 4..at + 8].try_into().unwrap());
        // The body after the 20 fixed EPB bytes holds the padded data.
        let room = total - 12 - 20;
        let cap_len = room.saturating_add(extra);
        ng[at + 20..at + 24].copy_from_slice(&cap_len.to_le_bytes());
        prop_assert_eq!(parse(read_pcapng, &ng).unwrap_err(), CapError::Truncated);

        let mut classic = to_pcap_bytes(LINKTYPE_RAW, &recs);
        let heads = record_offsets(&classic);
        let at = heads[pick % heads.len()];
        let room = u32::try_from(classic.len() - at - 16).unwrap();
        let incl = room.saturating_add(extra);
        classic[at + 8..at + 12].copy_from_slice(&incl.to_le_bytes());
        prop_assert_eq!(parse(read_pcap, &classic).unwrap_err(), CapError::Truncated);
    }
}

/// An SHB, then an IDB carrying `options` (already padded), then one
/// EPB stamped `ts` in the IDB's units.
fn pcapng_with(options: &[u8], ts: u64) -> Vec<u8> {
    fn block(out: &mut Vec<u8>, kind: u32, body: &[u8]) {
        let total = u32::try_from(12 + body.len()).unwrap();
        out.extend_from_slice(&kind.to_le_bytes());
        out.extend_from_slice(&total.to_le_bytes());
        out.extend_from_slice(body);
        out.extend_from_slice(&total.to_le_bytes());
    }
    let mut f = Vec::new();
    let mut shb = Vec::new();
    shb.extend_from_slice(&0x1a2b_3c4d_u32.to_le_bytes());
    shb.extend_from_slice(&1u16.to_le_bytes());
    shb.extend_from_slice(&0u16.to_le_bytes());
    shb.extend_from_slice(&(-1i64).to_le_bytes());
    block(&mut f, 0x0a0d_0d0a, &shb);
    let mut idb = Vec::new();
    idb.extend_from_slice(&101u16.to_le_bytes());
    idb.extend_from_slice(&0u16.to_le_bytes());
    idb.extend_from_slice(&65535u32.to_le_bytes());
    idb.extend_from_slice(options);
    block(&mut f, 1, &idb);
    let mut epb = Vec::new();
    epb.extend_from_slice(&0u32.to_le_bytes());
    #[allow(clippy::cast_possible_truncation)]
    epb.extend_from_slice(&((ts >> 32) as u32).to_le_bytes());
    #[allow(clippy::cast_possible_truncation)]
    epb.extend_from_slice(&(ts as u32).to_le_bytes());
    epb.extend_from_slice(&1u32.to_le_bytes());
    epb.extend_from_slice(&1u32.to_le_bytes());
    epb.extend_from_slice(&[0xcc, 0, 0, 0]);
    block(&mut f, 6, &epb);
    f
}

/// An `if_tsresol` option header as the IDB's last four body bytes,
/// its value byte missing.
#[test]
fn tsresol_option_without_its_value() {
    let f = pcapng_with(&[9, 0, 1, 0], 7);
    assert_eq!(parse(read_pcapng, &f).unwrap_err(), CapError::Truncated);
}

/// A microsecond timestamp whose nanosecond value leaves `u64`.
#[test]
fn timestamp_overflowing_nanoseconds() {
    let f = pcapng_with(&[], u64::MAX / 10);
    assert!(matches!(parse(read_pcapng, &f), Err(CapError::Format(_))));
    // The largest representable microsecond time still converts.
    let f = pcapng_with(&[], u64::MAX / 1000);
    let cap = parse(read_pcapng, &f).unwrap();
    assert_eq!(cap.records[0].0, u64::MAX / 1000 * 1000);
}

/// A resolution of `10^-100` s: no `u64` scale factor exists.
#[test]
fn tsresol_out_of_range() {
    let f = pcapng_with(&[9, 0, 1, 0, 100, 0, 0, 0], 7);
    assert!(matches!(parse(read_pcapng, &f), Err(CapError::Format(_))));
}
