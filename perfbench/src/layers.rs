//! Per-layer probes: host time of single calls into each layer's
//! public functions, on inputs shaped like the workloads' own.

use std::hint::black_box;
use std::time::Instant;

use atm::{
    Aal34Reassembler, Aal34Segmenter, AtmSwitch, Cell, CellHeader, SwitchConfig, VcRoute,
    CELL_PAYLOAD,
};
use decstation::{CostModel, CostTables};
use ether::{EtherAddr, EtherFrame, ETHERTYPE_IP};
use mbuf::{Chain, MbufPool};
use simcap::{QuantileSketch, Quantiles as _, Recorder};
use simkit::SimTime;
use tcpip::{PcbKey, PcbTable, StackConfig};
use world::{PcbStrategy, Topology, TrafficSchedule};

use crate::stats::{median, Metrics};
use crate::{seconds, Scale};

/// Samples per probe; each probe reports the median.
const SAMPLES: usize = 5;

/// Host ns per call of `op`, the median of [`SAMPLES`] timings of
/// `calls` back-to-back calls.
fn ns_per_call(calls: usize, mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                op();
            }
            seconds(t) * 1e9 / calls as f64
        })
        .collect();
    median(&samples)
}

/// Deterministic filler bytes.
fn bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// Runs every probe and adds its metric.
pub fn probe_all(seed: u64, scale: Scale, m: &mut Metrics) {
    let k = match scale {
        Scale::Full => 1,
        Scale::Tiny => 50,
    };
    cksum_probes(seed, k, m);
    atm_probes(seed, k, m);
    mbuf_probe(seed, k, m);
    ether_probes(seed, k, m);
    pcb_probes(k, m);
    simcap_probes(seed, k, m);
    let calibrate = ns_per_call(2000 / k, || {
        let model = CostModel::calibrated();
        black_box(CostTables::new(black_box(&model)));
    });
    m.add("decstation.calibrate_s", "s", calibrate / 1e9);
}

fn cksum_probes(seed: u64, k: usize, m: &mut Metrics) {
    let cell = bytes(CELL_PAYLOAD, seed);
    let crc10 = ns_per_call(20_000 / k, || {
        black_box(cksum::crc::crc10_bits(black_box(&cell), 46 * 8 + 6));
    });
    m.add("cksum.crc10.ns_per_cell", "ns", crc10);
    let header = [cell[0], cell[1], cell[2], cell[3]];
    let hec = ns_per_call(200_000 / k, || {
        black_box(cksum::crc::hec(black_box(header)));
    });
    m.add("cksum.hec.ns_per_cell", "ns", hec);
    let kb = bytes(1024, seed);
    let inet = ns_per_call(50_000 / k, || {
        black_box(cksum::optimized_cksum(black_box(&kb)));
    });
    m.add("cksum.inet.ns_per_kb", "ns", inet);
    // A full-size Ethernet frame without its FCS.
    let frame = bytes(1514, seed);
    let crc32 = ns_per_call(2000 / k, || {
        black_box(cksum::crc::crc32(black_box(&frame)));
    });
    m.add("cksum.crc32.ns_per_frame", "ns", crc32);
}

fn atm_probes(seed: u64, k: usize, m: &mut Metrics) {
    // One 8000-byte RPC as TCP hands it to the ATM driver.
    let datagram = bytes(8040, seed);
    let mut seg = Aal34Segmenter::new(0, 42, 0);
    let cells = seg.segment(&datagram);
    let n = cells.len() as f64;
    let segment = ns_per_call(200 / k, || {
        black_box(seg.segment(black_box(&datagram)));
    });
    m.add("atm.sar.segment_ns_per_cell", "ns", segment / n);
    let mut reasm = Aal34Reassembler::new();
    let mut whole = None;
    for c in &cells {
        whole = reasm.push(c).expect("a clean train reassembles");
    }
    assert_eq!(whole.as_deref(), Some(&datagram[..]), "SAR round trip");
    let reassemble = ns_per_call(200 / k, || {
        for c in &cells {
            black_box(reasm.push(black_box(c)).ok());
        }
    });
    m.add("atm.sar.reassemble_ns_per_cell", "ns", reassemble / n);

    let config = SwitchConfig::default();
    let mut switch = AtmSwitch::new(2, config, seed);
    let route = VcRoute {
        out_port: 1,
        out_vpi: 0,
        out_vci: 43,
    };
    switch.add_vc(0, 0, 42, route);
    let header = CellHeader {
        gfc: 0,
        vpi: 0,
        vci: 42,
        pt: 0,
        clp: false,
    };
    let cell = Cell::new(header, *cells[0].payload());
    // Arrivals one cell time apart: the queue never backs up.
    let mut at = SimTime::ZERO;
    let forward = ns_per_call(100_000 / k, || {
        at += config.cell_time;
        black_box(switch.forward(0, at, black_box(&cell)));
    });
    assert_eq!(switch.queue_drops, 0, "paced cells never queue");
    m.add("atm.switch.forward_ns_per_cell", "ns", forward);
}

fn mbuf_probe(seed: u64, k: usize, m: &mut Metrics) {
    let pool = MbufPool::new();
    let data = bytes(8000, seed);
    let mut out = vec![0u8; data.len()];
    let copy = ns_per_call(1000 / k, || {
        let (chain, _) = Chain::from_user_data(&pool, black_box(&data), true);
        black_box(chain.copy_out(0, &mut out));
    });
    assert_eq!(out, data, "chain copy round trip");
    m.add(
        "mbuf.chain_copy_ns_per_kb",
        "ns",
        copy / (data.len() as f64 / 1024.0),
    );
}

fn ether_probes(seed: u64, k: usize, m: &mut Metrics) {
    let frame = EtherFrame {
        dst: EtherAddr::from_host_id(1),
        src: EtherAddr::from_host_id(0),
        ethertype: ETHERTYPE_IP,
        payload: bytes(1500, seed),
    };
    let wire = frame.encode();
    assert!(
        EtherFrame::decode(&wire, Some(1500)).is_ok_and(|f| f == frame),
        "frame round trip"
    );
    let encode = ns_per_call(2000 / k, || {
        black_box(black_box(&frame).encode());
    });
    m.add("ether.frame.encode_ns", "ns", encode);
    let decode = ns_per_call(2000 / k, || {
        black_box(EtherFrame::decode(black_box(&wire), Some(1500)).ok());
    });
    m.add("ether.frame.decode_ns", "ns", decode);
}

/// One server's PCB table in `dc-incast-1024pcb`: 16 clients x 64
/// connections, inserted in connection-creation order and looked up
/// in the order the staggered schedule first sends on them.
fn pcb_probes(k: usize, m: &mut Metrics) {
    let (clients, conns) = (16usize, 64usize);
    let server = Topology::addr(clients);
    let key = |h: usize, j: usize| PcbKey {
        laddr: server,
        lport: 4242,
        faddr: Topology::addr(h),
        fport: 1024 + j as u16,
    };
    let sched = TrafficSchedule::staggered();
    let mut order: Vec<(usize, usize)> = (0..clients)
        .flat_map(|h| (0..conns).map(move |j| (h, j)))
        .collect();
    order.sort_by_key(|&(h, j)| (sched.start_of(h, j), h, j));
    let lookups: Vec<PcbKey> = order.iter().map(|&(h, j)| key(h, j)).collect();
    for strategy in PcbStrategy::ALL {
        let cfg = strategy.apply(StackConfig::default());
        let mut table = PcbTable::new(
            cfg.pcb_org,
            cfg.pcb_cache_override.expect("strategies pin the cache"),
        );
        for h in 0..clients {
            for j in 0..conns {
                table.insert(key(h, j));
            }
        }
        let per_round = ns_per_call((8 / k).max(1), || {
            for key in &lookups {
                let r = table.lookup(black_box(key));
                assert!(r.id.is_some(), "every connection is in the table");
            }
        });
        let name = format!("tcpip.pcb.{}.lookup_ns", strategy.tag());
        m.add(&name, "ns", per_round / lookups.len() as f64);
    }
}

fn simcap_probes(seed: u64, k: usize, m: &mut Metrics) {
    // RTT-like samples: 1 ms plus a skewed spread up to ~1 s.
    let mut x = seed | 1;
    let samples: Vec<i64> = (0..100_000 / k)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let u = (x >> 33) as i64;
            1_000_000 + (u % 1000) * (u % 1000) * (u % 1000)
        })
        .collect();
    let mut rec = Recorder::sketched();
    let t = Instant::now();
    for &s in &samples {
        rec.observe_ns(black_box(s));
    }
    m.add(
        "simcap.recorder.observe_ns",
        "ns",
        seconds(t) * 1e9 / samples.len() as f64,
    );
    let p99 = ns_per_call(1000 / k, || {
        black_box(black_box(&rec).p99_ns());
    });
    m.add("simcap.recorder.p99_query_ns", "ns", p99);
    let (mut a, mut b) = (QuantileSketch::new(), QuantileSketch::new());
    for (i, &s) in samples.iter().enumerate() {
        if i % 2 == 0 { &mut a } else { &mut b }.observe_ns(s);
    }
    let merge = ns_per_call(200 / k, || {
        a.merge(black_box(&b));
    });
    m.add("simcap.sketch.merge_ns", "ns", merge);
}
