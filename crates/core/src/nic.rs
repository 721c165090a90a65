//! Network interface bindings: the ATM (FORE TCA-100 + AAL3/4) and
//! Ethernet (LANCE) drivers that connect the kernel to the simulated
//! wire.
//!
//! The transmit side implements [`tcpip::TxDriver`]: it charges
//! driver CPU time, models the cut-through FIFO (ATM) or the
//! descriptor ring (Ethernet), applies the link fault processes, and
//! stages *deliveries* — per-datagram cell trains with arrival times,
//! each naming its destination host — that the world loop turns into
//! events. One [`AtmNic`] serves both worlds: it segments per
//! destination (the two-host pair installs one peer, a datacenter
//! host one per server or client it talks to), and [`Nic`] is itself
//! the [`TxDriver`] the kernel calls.
//!
//! The receive side is a plain function called from the arrival event
//! handler: it charges the hardware-interrupt costs, runs real
//! reassembly (AAL3/4 CRC-10 / Ethernet FCS over real bytes), builds
//! the mbuf chain (with stored partial checksums in the integrated
//! configuration), and hands the datagram to the kernel's IP queue.

use atm::{Aal34Reassembler, Aal34Segmenter, AtmSwitch, FiberLink, ForeTca100, LinkFault, VcRoute};
use decstation::CostModel;
use ether::{EtherAddr, EtherFrame, EtherWire, LanceAdapter, ETHERTYPE_IP};
use mbuf::chain::ultrix_uses_clusters;
use mbuf::Chain;
use simkit::hash::FastMap;
use simkit::{CpuBand, SimTime};
use tcpip::{Kernel, Mark, SpanKind, SpanRecorder, TxDriver};

/// The default ATM MTU (RFC 1626 style, "close to 9K" per §1.2).
pub const ATM_MTU: usize = 9188;

/// The Ethernet MTU.
pub const ETHER_MTU: usize = 1500;

/// The two-host address plan: host `h` (0 = client, 1 = server) is
/// `PAIR_ADDRS[h]`.
pub const PAIR_ADDRS: [[u8; 4]; 2] = [[10, 0, 0, 1], [10, 0, 0, 2]];

/// The two-host pair's one VC in each direction.
pub const PAIR_VCI: u16 = 42;

/// A staged delivery: one datagram's worth of link traffic headed to
/// one host.
pub struct Delivery {
    /// Destination host index.
    pub dst: usize,
    /// Arrival time of the last cell/frame at the destination's
    /// adapter (for a train still to cross a shared switch: at the
    /// switch input).
    pub arrival: SimTime,
    /// The payload as it survived the link.
    pub payload: DeliveryPayload,
}

/// An ATM cell train: each cell's arrival time and link fate.
pub type Train = Vec<(SimTime, LinkFault)>;

/// What arrives at the peer.
pub enum DeliveryPayload {
    /// ATM: the cell train with per-cell arrival times and faults.
    Cells(Train),
    /// Ethernet: the frame bytes as delivered.
    Frame(Vec<u8>),
}

/// One destination of an ATM interface: its host index and the AAL3/4
/// segmentation state of the VC that reaches it.
struct Peer {
    dst: usize,
    seg: Aal34Segmenter,
}

/// The ATM interface of one host.
pub struct AtmNic {
    /// The FORE TCA-100 adapter.
    pub adapter: ForeTca100,
    /// AAL3/4 segmentation state per destination IP address.
    peers: FastMap<[u8; 4], Peer>,
    /// The MTU advertised to the stack (MSS derives from it):
    /// [`ATM_MTU`] unless the topology sets another.
    pub mtu: usize,
    /// AAL3/4 reassembly state.
    pub reasm: Aal34Reassembler,
    /// The outbound fiber.
    pub link: FiberLink,
    /// Driver cost constants (host-local copy).
    pub costs: CostModel,
    /// Staged deliveries for the world loop to schedule.
    pub staged: Vec<Delivery>,
    /// Cells discarded for HEC (header CRC) failures.
    pub hec_drops: u64,
    /// Datagrams dropped by AAL3/4 reassembly (CRC-10, sequence...).
    pub aal_drops: u64,
    /// Controller-corruption probability per datagram on receive —
    /// the §4.2.1 "second error source" (bit flips between controller
    /// and host memory, past all link CRCs).
    pub controller_corrupt_prob: f64,
    /// An ATM switch inline on this direction's path (the paper's
    /// testbed was switchless; §4.2.1 reasons about switched paths).
    /// A datacenter host leaves it `None`: its shared switch lives in
    /// the world.
    pub switch: Option<AtmSwitch>,
    /// Datagram-level capture taps (`NicDmaTx`, `Wire`, `NicDmaRx`).
    /// Zero-cost unless armed; cell-level capture lives on the link.
    pub taps: simcap::TapSet,
    /// Train shaper (faultkit): reorder/duplicate/jitter applied to
    /// each staged cell train. `None` is transparent.
    pub shaper: Option<faultkit::TrainShaper>,
    /// RX drain contention (faultkit): stalls the FIFO drain so a
    /// small FIFO overruns. `None` never stalls.
    pub contention: Option<faultkit::ContentionProcess>,
    /// Received datagrams shed because the mbuf pool refused the
    /// allocation (`ENOBUFS` backpressure, not a crash).
    pub enobufs_drops: u64,
    rng: simkit::SimRng,
    /// Scratch for the CPCS-PDU of the datagram being segmented.
    pdu: Vec<u8>,
    /// Emptied trains handed back by the world (see
    /// [`AtmNic::recycle_train`]), reused by later transmits.
    spare_trains: Vec<Train>,
    /// Datagrams reassembled under the running interrupt, reused
    /// across interrupts.
    rx_dgrams: Vec<Vec<u8>>,
}

/// Most emptied trains an interface keeps for reuse.
const SPARE_TRAINS: usize = 4;

impl AtmNic {
    /// Builds an ATM interface over the given outbound link, with no
    /// destination installed yet (see [`AtmNic::add_peer`]).
    #[must_use]
    pub fn new(link: FiberLink, costs: CostModel, seed: u64) -> Self {
        let cell_time = link.config.cell_time();
        AtmNic {
            adapter: ForeTca100::new(cell_time),
            peers: FastMap::default(),
            mtu: ATM_MTU,
            reasm: Aal34Reassembler::new(),
            link,
            costs,
            staged: Vec::new(),
            hec_drops: 0,
            aal_drops: 0,
            controller_corrupt_prob: 0.0,
            switch: None,
            taps: simcap::TapSet::off(),
            shaper: None,
            contention: None,
            enobufs_drops: 0,
            rng: simkit::SimRng::seed_stream(seed, 0xc0),
            pdu: Vec::new(),
            spare_trains: Vec::new(),
            rx_dgrams: Vec::new(),
        }
    }

    /// Hands back a train whose arrival has been processed, so a
    /// later transmit can fill it instead of allocating one.
    pub fn recycle_train(&mut self, mut train: Train) {
        if train.capacity() > 0 && self.spare_trains.len() < SPARE_TRAINS {
            train.clear();
            self.spare_trains.push(train);
        }
    }

    /// Host `h`'s end of the two-host pair: its one destination is
    /// host `1 - h` at [`PAIR_ADDRS`], on [`PAIR_VCI`] with MID 1.
    #[must_use]
    pub fn pair(link: FiberLink, costs: CostModel, h: usize, seed: u64) -> Self {
        let mut nic = AtmNic::new(link, costs, seed);
        nic.add_peer(PAIR_ADDRS[1 - h], 1 - h, PAIR_VCI, 1);
        nic
    }

    /// Installs the segmentation state for the destination host `dst`
    /// at IP address `addr`: cells go out on `vci` carrying `mid`.
    /// Installing a destination twice keeps the first state.
    pub fn add_peer(&mut self, addr: [u8; 4], dst: usize, vci: u16, mid: u16) {
        self.peers.entry(addr).or_insert_with(|| Peer {
            dst,
            seg: Aal34Segmenter::new(0, vci, mid),
        });
    }

    /// Arms the ATM-relevant parts of a fault schedule on this
    /// interface: burst loss on the outbound fiber, the train shaper,
    /// RX drain contention, and the RX FIFO capacity override. The
    /// mbuf limit is pool-wide and armed by the experiment, not here.
    pub fn arm_faults(&mut self, faults: &faultkit::FaultSchedule, seed: u64) {
        if let Some(model) = faults.atm_loss {
            self.link.arm_burst_loss(model, seed);
        }
        if faults.train.any() {
            self.shaper = Some(faultkit::TrainShaper::new(faults.train, seed));
        }
        if let Some(cfg) = faults.rx_contention {
            self.contention = Some(faultkit::ContentionProcess::new(cfg, seed));
        }
        if let Some(cells) = faults.rx_fifo_cells {
            self.adapter.rx = atm::RxFifo::new(cells);
        }
        if let Some(flap) = faults.link_flap {
            self.link.arm_flap(flap);
        }
    }

    /// Routes this direction through an inline ATM switch: every
    /// installed destination's VC goes port 0 → port 1 unchanged.
    pub fn insert_switch(&mut self, config: atm::SwitchConfig, seed: u64) {
        let mut sw = AtmSwitch::new(2, config, seed);
        for peer in self.peers.values() {
            let vci = peer.seg.vci();
            let route = VcRoute {
                out_port: 1,
                out_vpi: 0,
                out_vci: vci,
            };
            sw.add_vc(0, 0, vci, route);
        }
        self.switch = Some(sw);
    }
}

impl TxDriver for AtmNic {
    fn mtu(&self) -> usize {
        self.mtu
    }

    /// §2.2: the TxDriver span runs "up to when the ATM adapter is
    /// signaled to send the last byte of data"; everything after that
    /// overlaps network transmission. With the cut-through FIFO the
    /// signal *is* the completion of the last programmed-I/O cell
    /// copy, which the FIFO may backpressure to wire speed.
    ///
    /// The datagram is segmented on the VC of its IP destination.
    /// Cells cross the fiber and, when one is inline, the switch;
    /// the staged train then carries arrival times at the far end (or
    /// at the world's shared switch input).
    fn transmit(&mut self, now: SimTime, packet: &Chain, spans: &mut SpanRecorder) -> SimTime {
        let mut addr = [0u8; 4];
        let _ = packet.copy_out(16, &mut addr);
        let peer = self.peers.get_mut(&addr).expect("destination installed");
        let dst = peer.dst;
        let mut cursor = now + SimTime::from_us_f64(self.costs.atm_tx_fixed_us);
        let per_cell = SimTime::from_us_f64(self.costs.atm_tx_per_cell_us);
        let mut train = self.spare_trains.pop().unwrap_or_default();
        train.reserve(Aal34Segmenter::cells_for(packet.len()));
        let mut last_arrival = SimTime::ZERO;
        let (tx, link, switch) = (&mut self.adapter.tx, &mut self.link, &mut self.switch);
        peer.seg.segment_with(
            packet.len(),
            |d| {
                let _ = packet.copy_out(0, d);
            },
            &mut self.pdu,
            |cell| {
                let admit = tx.admit(cursor, per_cell);
                cursor = admit.copy_end;
                let (mut arrival, mut fault) = link.carry_at(admit.wire_exit, cell);
                if let Some(sw) = switch.as_mut() {
                    (arrival, fault) = sw.pass(0, arrival, fault, link.config.propagation);
                }
                last_arrival = last_arrival.max(arrival);
                train.push((arrival, fault));
            },
        );
        if let Some(shaper) = self.shaper.as_mut() {
            shaper.shape(&mut train);
            last_arrival = train
                .iter()
                .map(|&(t, _)| t)
                .fold(SimTime::ZERO, SimTime::max);
        }
        spans.span(SpanKind::TxDriver, now, cursor);
        spans.mark(Mark::TxSignalled, cursor);
        if self.taps.wants(simcap::TapPoint::NicDmaTx) {
            // The datagram leaves host memory when the adapter is
            // signalled to send its last byte — the same instant
            // `TxSignalled` marks.
            self.taps
                .record(simcap::TapPoint::NicDmaTx, cursor, packet.to_vec());
        }
        self.staged.push(Delivery {
            dst,
            arrival: last_arrival,
            payload: DeliveryPayload::Cells(train),
        });
        cursor
    }
}

/// Receive-side hard-interrupt processing for one arrived ATM
/// datagram (called by the world loop at the last-cell arrival
/// event). Returns the softintr dispatch time if one must be
/// scheduled.
pub fn atm_receive(
    kernel: &mut Kernel,
    nic: &mut AtmNic,
    now: SimTime,
    train: &[(SimTime, LinkFault)],
) -> Option<SimTime> {
    kernel.spans.mark(Mark::SegmentArrived, now);
    // The driver drains the whole RX FIFO under one interrupt. Cells
    // that arrive while the service routine is still running (the
    // back-to-back-segment case) are picked up by the ongoing drain
    // loop rather than by a fresh interrupt: charge the fixed
    // interrupt cost only when the CPU's driver work had finished.
    let continuation = kernel.cpu.busy_until() > now;
    let start = now.max(kernel.cpu.busy_until());
    let mut datagrams = std::mem::take(&mut nic.rx_dgrams);
    let mut cells_processed = 0usize;
    for (cell_at, fault) in train {
        let cell = match fault {
            LinkFault::Lost => continue,
            LinkFault::Clean(c) => c.clone(),
            LinkFault::Corrupted(c) => {
                if !c.header_ok() {
                    // The adapter discards cells with HEC failures.
                    nic.hec_drops += 1;
                    continue;
                }
                c.clone()
            }
        };
        // On overflow the arriving cell is gone (counted by the
        // adapter) and reassembly will notice the sequence gap — but
        // the service opportunity below still happens, so a full FIFO
        // clears as soon as the host stops stalling rather than
        // blackholing every later cell.
        let _ = nic.adapter.rx.arrive(cell);
        if nic
            .contention
            .as_mut()
            .is_some_and(faultkit::ContentionProcess::stalled_next)
        {
            // DMA/bus contention stalls the drain for this arrival:
            // the cell sits in the FIFO as backlog. If enough stalls
            // pile up, later arrivals overrun the FIFO above.
            continue;
        }
        // The driver drains the FIFO — the whole backlog — under this
        // interrupt.
        for cell in nic.adapter.rx.drain() {
            cells_processed += 1;
            match nic.reasm.push(&cell) {
                Ok(Some(dgram)) => {
                    if nic.taps.wants(simcap::TapPoint::Wire) {
                        // Datagram granularity on the wire: stamped at
                        // the arrival of its completing (EOM) cell.
                        nic.taps
                            .record(simcap::TapPoint::Wire, *cell_at, dgram.clone());
                    }
                    datagrams.push(dgram);
                }
                Ok(None) => {}
                // Orphan COM/EOM cells are trailing consequences of an
                // error already counted on the same datagram.
                Err(atm::Aal34Error::Orphan) => {}
                Err(_) => nic.aal_drops += 1,
            }
        }
    }
    // Driver CPU: fixed per interrupt plus per-cell SAR + copy work.
    let fixed = if continuation {
        0.0
    } else {
        nic.costs.atm_rx_fixed_us
    };
    let mut us = fixed + nic.costs.atm_rx_per_cell_us * cells_processed as f64;
    let integrated = matches!(kernel.cfg.checksum, tcpip::ChecksumMode::Integrated);
    if integrated {
        // §4.1.1: the combined copy-and-checksum runs in the driver's
        // device→mbuf copy; each payload byte costs the integration
        // delta, plus the fixed restructuring overhead.
        let bytes: usize = datagrams.iter().map(Vec::len).sum();
        us += nic.costs.integrated_delta_per_byte_us * bytes as f64
            + nic.costs.integrated_rx_fixed_us * datagrams.len() as f64;
    }
    let end = start + SimTime::from_us_f64(us);
    kernel.spans.span(SpanKind::RxDriver, start, end);
    kernel.cpu.occupy(start, end, CpuBand::HardIntr);

    let mut softintr_at = None;
    for mut dgram in datagrams.drain(..) {
        // The §4.2.1 controller-corruption fault: bits flipped while
        // moving data from controller to host memory — after every
        // link-level CRC has been checked.
        if nic.controller_corrupt_prob > 0.0 && nic.rng.chance(nic.controller_corrupt_prob) {
            let bit = nic.rng.next_below((dgram.len() * 8) as u32) as usize;
            dgram[bit / 8] ^= 1 << (bit % 8);
        }
        if nic.taps.wants(simcap::TapPoint::NicDmaRx) {
            // DMA into host memory is complete when the driver's
            // interrupt work ends and the datagram joins the IP queue.
            nic.taps
                .record(simcap::TapPoint::NicDmaRx, end, dgram.clone());
        }
        let use_clusters = ultrix_uses_clusters(dgram.len());
        let copied = Chain::try_from_user_data(&kernel.pool, &dgram, use_clusters);
        // The bytes are in mbufs now (or shed): the buffer goes back
        // to the reassembler.
        nic.reasm.recycle(dgram);
        let Ok((mut chain, _)) = copied else {
            // ENOBUFS: the pool is at its limit, so the driver sheds
            // the datagram instead of allocating past it — BSD's
            // receive-path backpressure. TCP retransmits.
            nic.enobufs_drops += 1;
            continue;
        };
        if integrated {
            chain.store_partial_checksums();
        }
        if let Some(at) = kernel.enqueue_ip(end, chain) {
            softintr_at = Some(softintr_at.map_or(at, |t: SimTime| t.min(at)));
        }
    }
    nic.rx_dgrams = datagrams;
    if continuation {
        // Datagrams completed by an earlier interrupt of this drain
        // are handed to IP together with ours, at the end.
        kernel.retime_ipq(end);
    }
    softintr_at
}

/// The Ethernet interface of one host.
pub struct EtherNic {
    /// The LANCE controller.
    pub lance: LanceAdapter,
    /// The outbound wire.
    pub wire: EtherWire,
    /// Source MAC.
    pub addr: EtherAddr,
    /// Destination MAC (two-host segment).
    pub peer: EtherAddr,
    /// Destination host index (the other end of the segment).
    peer_host: u8,
    /// Driver cost constants.
    pub costs: CostModel,
    /// Staged deliveries.
    pub staged: Vec<Delivery>,
    /// Frames dropped for FCS errors.
    pub fcs_drops: u64,
    /// Controller-corruption probability per frame on receive.
    pub controller_corrupt_prob: f64,
    /// Gateway-injection probability per frame on transmit: the
    /// §4.2.1 third error source — "erroneous data injected into the
    /// network through external gateways or bridges". The corruption
    /// happens *before* framing, so the local FCS is computed over
    /// already-bad bytes and validates; only the end-to-end TCP
    /// checksum can catch it.
    pub gateway_corrupt_prob: f64,
    /// Datagram-level capture taps (`NicDmaTx`, `Wire`, `NicDmaRx`).
    /// Zero-cost unless armed; frame-level capture lives on the wire.
    pub taps: simcap::TapSet,
    /// Received frames shed because the mbuf pool refused the
    /// allocation (`ENOBUFS` backpressure, not a crash).
    pub enobufs_drops: u64,
    rng: simkit::SimRng,
}

impl EtherNic {
    /// Builds an Ethernet interface over the given outbound wire.
    #[must_use]
    pub fn new(wire: EtherWire, costs: CostModel, host_id: u8, seed: u64) -> Self {
        EtherNic {
            lance: LanceAdapter::new(),
            wire,
            addr: EtherAddr::from_host_id(host_id),
            peer: EtherAddr::from_host_id(host_id ^ 1),
            peer_host: host_id ^ 1,
            costs,
            staged: Vec::new(),
            fcs_drops: 0,
            controller_corrupt_prob: 0.0,
            gateway_corrupt_prob: 0.0,
            taps: simcap::TapSet::off(),
            enobufs_drops: 0,
            rng: simkit::SimRng::seed_stream(seed, 0xe1),
        }
    }
}

impl TxDriver for EtherNic {
    fn mtu(&self) -> usize {
        ETHER_MTU
    }

    fn transmit(&mut self, now: SimTime, packet: &Chain, spans: &mut SpanRecorder) -> SimTime {
        let mut payload = packet.to_vec();
        debug_assert!(payload.len() <= ETHER_MTU, "TCP MSS keeps IP under the MTU");
        if self.gateway_corrupt_prob > 0.0 && self.rng.chance(self.gateway_corrupt_prob) {
            // Corrupt a payload bit before framing: the FCS will be
            // computed over the corrupted bytes and verify fine.
            let bit = 40 * 8
                + self
                    .rng
                    .next_below(((payload.len() - 40) * 8).max(8) as u32)
                    as usize;
            let bit = bit.min(payload.len() * 8 - 1);
            payload[bit / 8] ^= 1 << (bit % 8);
        }
        let frame = EtherFrame {
            dst: self.peer,
            src: self.addr,
            ethertype: ETHERTYPE_IP,
            payload,
        };
        let wire_bytes = frame.encode();
        // Driver work: descriptor + copy into the DMA buffer.
        let cost = SimTime::from_us_f64(
            self.costs.eth_tx_fixed_us + self.costs.eth_tx_per_byte_us * wire_bytes.len() as f64,
        );
        let granted = self.lance.claim_tx_slot(now);
        let cursor = granted + cost;
        if self.taps.wants(simcap::TapPoint::NicDmaTx) {
            // The IP datagram as handed to the LANCE, stamped when the
            // copy into the DMA buffer completes (`TxSignalled`).
            self.taps
                .record(simcap::TapPoint::NicDmaTx, cursor, frame.payload.clone());
        }
        let (delivered_at, delivered) = self.wire.carry(cursor, wire_bytes);
        self.lance.tx_complete(delivered_at);
        spans.span(SpanKind::TxDriver, now, cursor);
        spans.mark(Mark::TxSignalled, cursor);
        self.staged.push(Delivery {
            dst: usize::from(self.peer_host),
            arrival: delivered_at,
            payload: DeliveryPayload::Frame(delivered),
        });
        cursor
    }
}

/// Receive-side processing for one Ethernet frame.
pub fn ether_receive(
    kernel: &mut Kernel,
    nic: &mut EtherNic,
    now: SimTime,
    wire_bytes: &[u8],
) -> Option<SimTime> {
    kernel.spans.mark(Mark::SegmentArrived, now);
    if nic.taps.wants(simcap::TapPoint::Wire) {
        // The frame exactly as the wire delivered it (FCS included,
        // corruption applied), stamped at arrival.
        nic.taps
            .record(simcap::TapPoint::Wire, now, wire_bytes.to_vec());
    }
    nic.lance.rx_packet();
    let start = now.max(kernel.cpu.busy_until());
    let mut us = nic.costs.eth_rx_fixed_us + nic.costs.eth_rx_per_byte_us * wire_bytes.len() as f64;

    // Real FCS verification over the delivered bytes.
    let frame = match EtherFrame::decode(wire_bytes, None) {
        Ok(f) => Some(f),
        Err(_) => {
            nic.fcs_drops += 1;
            None
        }
    };
    let integrated = matches!(kernel.cfg.checksum, tcpip::ChecksumMode::Integrated);
    if integrated {
        if let Some(f) = &frame {
            us += nic.costs.integrated_delta_per_byte_us * f.payload.len() as f64
                + nic.costs.integrated_rx_fixed_us;
        }
    }
    let end = start + SimTime::from_us_f64(us);
    kernel.spans.span(SpanKind::RxDriver, start, end);
    kernel.cpu.occupy(start, end, CpuBand::HardIntr);

    let frame = frame?;
    let mut payload = frame.payload;
    if nic.controller_corrupt_prob > 0.0 && nic.rng.chance(nic.controller_corrupt_prob) {
        let bit = nic.rng.next_below((payload.len() * 8) as u32) as usize;
        payload[bit / 8] ^= 1 << (bit % 8);
    }
    if nic.taps.wants(simcap::TapPoint::NicDmaRx) {
        // FCS-verified IP datagram as DMAed into host memory, stamped
        // when the driver's interrupt work ends.
        nic.taps
            .record(simcap::TapPoint::NicDmaRx, end, payload.clone());
    }
    let use_clusters = ultrix_uses_clusters(payload.len());
    let Ok((mut chain, _)) = Chain::try_from_user_data(&kernel.pool, &payload, use_clusters) else {
        // ENOBUFS: shed the frame rather than allocate past the pool
        // limit; TCP retransmits.
        nic.enobufs_drops += 1;
        return None;
    };
    if integrated {
        chain.store_partial_checksums();
    }
    kernel.enqueue_ip(end, chain)
}

/// A host's network interface.
#[allow(clippy::large_enum_variant)] // Two long-lived instances per world.
pub enum Nic {
    /// FORE TCA-100 over TAXI fiber.
    Atm(AtmNic),
    /// LANCE over 10 Mbit/s Ethernet.
    Ether(EtherNic),
}

/// The kernel takes `&mut dyn TxDriver`, so the world hands it the
/// enum directly; this one match replaces one at every call site.
impl TxDriver for Nic {
    fn mtu(&self) -> usize {
        match self {
            Nic::Atm(n) => n.mtu(),
            Nic::Ether(n) => n.mtu(),
        }
    }

    fn transmit(&mut self, now: SimTime, packet: &Chain, spans: &mut SpanRecorder) -> SimTime {
        match self {
            Nic::Atm(n) => n.transmit(now, packet, spans),
            Nic::Ether(n) => n.transmit(now, packet, spans),
        }
    }
}

impl Nic {
    /// Drains the staged deliveries.
    pub fn take_staged(&mut self) -> Vec<Delivery> {
        match self {
            Nic::Atm(a) => std::mem::take(&mut a.staged),
            Nic::Ether(e) => std::mem::take(&mut e.staged),
        }
    }

    /// Configures and arms every NIC- and medium-level capture tap
    /// (datagram taps on the NIC, raw cells/frames on the link).
    /// `flight_k` selects flight-recorder rings of that depth instead
    /// of unbounded full capture.
    pub fn arm_taps_mode(&mut self, flight_k: Option<usize>) {
        let fresh = || match flight_k {
            Some(k) => simcap::TapSet::flight(k),
            None => simcap::TapSet::all(),
        };
        match self {
            Nic::Atm(a) => {
                a.taps = fresh();
                a.taps.arm();
                a.link.taps = fresh();
                a.link.taps.arm();
            }
            Nic::Ether(e) => {
                e.taps = fresh();
                e.taps.arm();
                e.wire.taps = fresh();
                e.wire.taps.arm();
            }
        }
    }

    /// Drains every frame captured by this NIC and its medium, merged
    /// in timestamp order (stable within equal timestamps).
    pub fn take_taps(&mut self) -> Vec<simcap::CapturedFrame> {
        let (mut frames, medium) = match self {
            Nic::Atm(a) => (a.taps.take(), a.link.taps.take()),
            Nic::Ether(e) => (e.taps.take(), e.wire.taps.take()),
        };
        frames.extend(medium);
        frames.sort_by_key(|f| f.at);
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm::LinkConfig;
    use decstation::CostModel;
    use ether::WireConfig;
    use tcpip::StackConfig;

    fn kernel() -> Kernel {
        Kernel::new(StackConfig::default(), CostModel::calibrated())
    }

    fn atm_nic(seed: u64) -> AtmNic {
        AtmNic::pair(
            FiberLink::new(LinkConfig::default(), seed),
            CostModel::calibrated(),
            0,
            seed,
        )
    }

    /// A TCP/IP datagram from `src` to `dst` carrying `len` data bytes.
    fn datagram(k: &Kernel, src: [u8; 4], dst: [u8; 4], len: usize) -> Chain {
        let hdr = tcpip::hdr::TcpIpHeader {
            ip_len: u16::try_from(40 + len).unwrap(),
            ip_id: 1,
            ttl: 30,
            src,
            dst,
            sport: 1024,
            dport: 4242,
            seq: 1,
            ack: 1,
            flags: tcpip::hdr::flags::ACK,
            win: 4096,
            tcp_cksum: 0,
        };
        let mut bytes = hdr.encode().to_vec();
        bytes.extend((0..len).map(|i| (i % 253) as u8));
        Chain::from_user_data(&k.pool, &bytes, ultrix_uses_clusters(bytes.len())).0
    }

    /// A client-to-server datagram of the two-host pair.
    fn pair_datagram(k: &Kernel, len: usize) -> Chain {
        datagram(k, PAIR_ADDRS[0], PAIR_ADDRS[1], len)
    }

    /// Segmentation follows the IP destination under both address
    /// plans: the two-host pair (`10.0.0.x`, VCI 42, MID 1) and a
    /// datacenter host with several installed destinations.
    #[test]
    fn transmit_routes_by_ip_destination() {
        // Each case: the NIC, a datagram's source and destination,
        // and the host, VCI and MID its cells must carry.
        let pair = AtmNic::pair(
            FiberLink::new(LinkConfig::default(), 7),
            CostModel::calibrated(),
            0,
            7,
        );
        let mut topo = AtmNic::new(
            FiberLink::new(LinkConfig::default(), 7),
            CostModel::calibrated(),
            7,
        );
        // Host 2 of the datacenter plan: host h is 10.1.(h>>8).(h&255),
        // reached on VCI 64 + h; the MID is the sender's index.
        for dst in [0usize, 3, 5] {
            topo.add_peer([10, 1, 0, dst as u8], dst, 64 + dst as u16, 2);
        }
        let cases = [
            (pair, PAIR_ADDRS[0], PAIR_ADDRS[1], 1usize, PAIR_VCI, 1u16),
            (topo, [10, 1, 0, 2], [10, 1, 0, 3], 3, 67, 2),
        ];
        for (mut nic, src, dst, host, vci, mid) in cases {
            let mut k = kernel();
            let done = nic.transmit(SimTime::ZERO, &datagram(&k, src, dst, 100), &mut k.spans);
            assert!(done > SimTime::ZERO);
            assert_eq!(nic.staged.len(), 1);
            assert_eq!(nic.staged[0].dst, host);
            let DeliveryPayload::Cells(train) = &nic.staged[0].payload else {
                panic!("cells expected")
            };
            // 140 CPCS bytes -> 4 cells, all on the destination VC.
            assert_eq!(train.len(), 4);
            for (_, fault) in train {
                let LinkFault::Clean(c) = fault else {
                    panic!("clean link")
                };
                assert_eq!(c.header().vci, vci);
                // SAR header: MID is the low 10 bits of bytes 0..2.
                let sar = u16::from_be_bytes([c.payload()[0], c.payload()[1]]);
                assert_eq!(sar & 0x3ff, mid);
            }
        }
    }

    #[test]
    fn atm_transmit_stages_one_delivery_per_datagram() {
        let mut k = kernel();
        let mut nic = atm_nic(1);
        let done = nic.transmit(SimTime::ZERO, &pair_datagram(&k, 500), &mut k.spans);
        assert!(done > SimTime::ZERO);
        assert_eq!(nic.staged.len(), 1);
        let d = &nic.staged[0];
        // 540 + 8 CPCS = 548 -> 13 cells.
        match &d.payload {
            DeliveryPayload::Cells(train) => assert_eq!(train.len(), 13),
            DeliveryPayload::Frame(_) => panic!("wrong payload kind"),
        }
        assert!(d.arrival > done, "wire lags the host for small packets");
    }

    #[test]
    fn atm_large_packet_is_wire_limited() {
        let mut k = kernel();
        let mut nic = atm_nic(2);
        let done = nic.transmit(SimTime::ZERO, &pair_datagram(&k, 8000), &mut k.spans);
        // 8048 CPCS bytes -> 183 cells; the 36-cell FIFO forces the
        // host to pace at wire speed for the tail: > 147 cell times.
        let cell_time = LinkConfig::default().cell_time();
        assert!(done > cell_time * 140, "done {done}");
        assert!(nic.adapter.tx.stall_time > SimTime::ZERO);
    }

    #[test]
    fn atm_roundtrip_through_receive() {
        let mut ka = kernel();
        let mut kb = kernel();
        let mut na = atm_nic(3);
        let mut nb = atm_nic(4);
        // Use na to send, nb to receive.
        let _ = na.transmit(SimTime::ZERO, &pair_datagram(&ka, 737), &mut ka.spans);
        let d = na.staged.pop().unwrap();
        let DeliveryPayload::Cells(train) = d.payload else {
            panic!("cells expected")
        };
        let soft = atm_receive(&mut kb, &mut nb, d.arrival, &train);
        assert!(soft.is_some(), "datagram enqueued raises softintr");
        assert_eq!(kb.stats.ipq_enqueued, 1);
        assert_eq!(nb.aal_drops, 0);
        assert_eq!(nb.reasm.stats().datagrams_ok, 1);
    }

    #[test]
    fn ether_roundtrip_with_fcs() {
        let mut ka = kernel();
        let mut kb = kernel();
        let mut na = EtherNic::new(
            EtherWire::new(WireConfig::default(), 5),
            CostModel::calibrated(),
            0,
            5,
        );
        let mut nb = EtherNic::new(
            EtherWire::new(WireConfig::default(), 6),
            CostModel::calibrated(),
            1,
            6,
        );
        let payload: Vec<u8> = (0..540).map(|i| (i % 199) as u8).collect();
        let (chain, _) = Chain::from_user_data(&ka.pool, &payload, false);
        let done = na.transmit(SimTime::ZERO, &chain, &mut ka.spans);
        assert!(done >= SimTime::from_us(255));
        let d = na.staged.pop().unwrap();
        let DeliveryPayload::Frame(bytes) = d.payload else {
            panic!("frame expected")
        };
        let soft = ether_receive(&mut kb, &mut nb, d.arrival, &bytes);
        assert!(soft.is_some());
        assert_eq!(nb.fcs_drops, 0);
        assert_eq!(kb.stats.ipq_enqueued, 1);
    }

    #[test]
    fn corrupted_frame_dropped_by_fcs() {
        let mut ka = kernel();
        let mut kb = kernel();
        let mut na = EtherNic::new(
            EtherWire::new(WireConfig::default(), 7),
            CostModel::calibrated(),
            0,
            7,
        );
        let mut nb = EtherNic::new(
            EtherWire::new(WireConfig::default(), 8),
            CostModel::calibrated(),
            1,
            8,
        );
        let (chain, _) = Chain::from_user_data(&ka.pool, &[1u8; 100], false);
        let _ = na.transmit(SimTime::ZERO, &chain, &mut ka.spans);
        let d = na.staged.pop().unwrap();
        let DeliveryPayload::Frame(mut bytes) = d.payload else {
            panic!("frame expected")
        };
        bytes[30] ^= 0x08;
        let soft = ether_receive(&mut kb, &mut nb, d.arrival, &bytes);
        assert!(soft.is_none(), "dropped frames never reach IP");
        assert_eq!(nb.fcs_drops, 1);
        assert_eq!(kb.stats.ipq_enqueued, 0);
    }
}
