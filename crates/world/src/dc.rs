//! The N-host datacenter world: many hosts, one shared cell switch.
//!
//! [`DcWorld`] generalizes the two-host world of `latency-core` to an
//! arbitrary [`Topology`]: every host runs its own `tcpip` kernel with
//! its own CPU timeline and its own TCA-100 uplink, and all traffic
//! crosses one shared output-queued [`AtmSwitch`], so incast fan-in
//! actually queues (and, past the port queue capacity, tail-drops into
//! TCP's loss recovery). The event loop is the same four-event cycle —
//! connection step, datagram arrival, software interrupt, TCP timer —
//! with the host index packed into the raw event payload.
//!
//! Determinism: the world is a pure function of
//! `(Topology, TrafficSchedule, seed)`. Per-host randomness derives
//! from the seed by host index, the switch has its own stream, and the
//! switch pass runs at event-execution time inside one simulation —
//! nothing depends on wall clock or scheduling outside the sim.

use atm::{AtmSwitch, LinkFault, VcRoute};
use decstation::CostModel;
use latency_core::nic::{AtmNic, Delivery, DeliveryPayload, Train};
use latency_core::world::TcpTimer;
use simkit::{Scheduler, Sim, SimTime};
use tcpip::config::tcp_mss;
use tcpip::{Kernel, PcbCounters, PcbKey, SockId};

use crate::topology::{TailPolicy, Topology, TrafficSchedule};

/// Base port of client-side connections (`+ conn index`).
const CLIENT_PORT: u16 = 1024;
/// The well-known server port (one per server host; connections are
/// demultiplexed by the client's address and port, which is exactly
/// what makes the server's PCB table grow with fan-in).
const SERVER_PORT: u16 = 4242;

/// Where one connection endpoint is in its RPC loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnState {
    /// Writing a message, `offset` bytes already accepted.
    WantWrite(usize),
    /// Reading the next message.
    WantRead,
    /// Sub-request done, waiting for the host's other fan-out
    /// connections to finish the round (fan-out clients only).
    AtBarrier,
    /// Parked replica connection of a hedged fan-out world: it carries
    /// no traffic until the hedge trigger activates it for a round.
    Idle,
    /// Finished (client: all iterations done; server: released).
    Done,
}

/// One TCP connection endpoint on one host.
pub struct DcConn {
    /// The socket (== this connection's index in the host's `conns`).
    pub sock: SockId,
    /// Client side (drives the RPC loop) or server side (echoes).
    pub client: bool,
    /// Peer host index.
    pub peer_host: usize,
    /// Peer connection index on the peer host.
    pub peer_conn: usize,
    /// Connection identity for payload verification: the client-side
    /// `(host, conn)` pair, identical on both endpoints.
    pub ident: (usize, usize),
    state: ConnState,
    got: Vec<u8>,
    t_start: SimTime,
    /// Measured RPC round-trip times (client side only).
    pub rtts: Vec<SimTime>,
    /// Payload verification failures.
    pub verify_failures: u64,
    /// Set when the connection died (retransmit limit under faults).
    pub aborted: bool,
    /// This connection's RPC size in bytes (per-connection because
    /// churn traffic runs a different size than the measured flows).
    size: usize,
    /// Rounds the client side runs (`warmup + iterations`;
    /// `u64::MAX` for background churn, which never finishes on its
    /// own).
    total: u64,
    /// Background churn connection: never measured, never counted
    /// toward run completion.
    background: bool,
    /// Idle time between rounds (churn pacing; `ZERO` = closed loop).
    think: SimTime,
    /// When the last train from this connection's peer landed (the
    /// hardware interrupt for its last cell). Fan-out clients end the
    /// sub-request RTT here — "the slowest reply lands" — so the
    /// client CPU's serialized protocol processing of N near-
    /// simultaneous replies prices the *next* round's start, not the
    /// completion being measured. Each fan-out connection has a
    /// distinct peer server, so the sender identifies the connection
    /// without TCP demultiplexing.
    last_arrival: SimTime,
    /// Messages fully written on this connection. On a client, the
    /// payload-pattern index of the next outgoing request; application
    /// retries reissue a round's request on the same stream, so on a
    /// fan-out client it can run ahead of the round. On a server, the
    /// echoes sent: the pattern index the next request must verify
    /// against.
    sent: u64,
    /// Full messages read back (client side): the pattern index the
    /// next incoming echo must verify against, and on a client outside
    /// a fan-out host also the completed RPC count.
    rcvd: u64,
    /// Copies of the current round's request written on this stream
    /// (initial send + retries); fan-out clients only.
    round_sent: u32,
    /// Echoes of the current round received so far; fan-out clients
    /// only. A connection parks at the barrier only once
    /// `round_rcvd >= round_sent`, draining late retry echoes first.
    round_rcvd: u32,
}

/// Typed outcome of one logical fan-out request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The request completed within its deadline (or no deadline was
    /// set).
    Ok,
    /// The deadline passed before the quorum completed: the recorded
    /// completion is the deadline itself and the stragglers were
    /// cancelled.
    DeadlineExceeded,
}

/// Mitigation-cost counters carried next to a cell's latency columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MitigationCost {
    /// Hedged requests issued.
    pub hedges_issued: u64,
    /// Hedges whose replica reply won the slot.
    pub hedges_won: u64,
    /// Hedges beaten by their own primary — pure extra load.
    pub hedges_wasted: u64,
    /// Application-level retries written.
    pub retries_issued: u64,
    /// Retries suppressed by an empty budget bucket.
    pub budget_exhausted: u64,
    /// Logical requests that recorded `DeadlineExceeded`.
    pub deadline_exceeded: u64,
    /// Sub-request results discarded as stragglers.
    pub cancelled: u64,
}

impl std::ops::AddAssign for MitigationCost {
    fn add_assign(&mut self, o: MitigationCost) {
        self.hedges_issued += o.hedges_issued;
        self.hedges_won += o.hedges_won;
        self.hedges_wasted += o.hedges_wasted;
        self.retries_issued += o.retries_issued;
        self.budget_exhausted += o.budget_exhausted;
        self.deadline_exceeded += o.deadline_exceeded;
        self.cancelled += o.cancelled;
    }
}

/// Fan-out barrier bookkeeping for one client host: the host's
/// `width` connections each carry one sub-request per round.
///
/// Each of the `width` *slots* resolves at its first reply (primary
/// or hedged replica), the logical completion is the K-th smallest
/// slot time capped by the deadline, and late copies drain through
/// the barrier without being re-measured. Wait-for-all is the no-op
/// [`TailPolicy`]: K is the width and there is no deadline, so the
/// completion is the slowest reply.
pub struct FanoutCtl {
    /// Fan-out width (== the host's primary connection count).
    pub width: usize,
    /// Connections still mid-round (primaries plus the activated
    /// replica, if any).
    pending: usize,
    /// Completed barrier rounds.
    round: u64,
    /// Per-round completion times, recorded after warm-up: the
    /// policy's K-th smallest slot time capped by the deadline (the
    /// slowest sub-request under wait-for-all).
    pub completions: Vec<SimTime>,
    /// Set when the retransmit limit killed one of the host's
    /// sub-request connections: the remaining rounds can never
    /// complete, so the whole fan-out host aborts.
    pub aborted: bool,
    /// The tail-tolerance policy (the topology's).
    tail: TailPolicy,
    /// First-reply time of each slot this round (`width` entries).
    slot_rtt: Vec<Option<SimTime>>,
    /// Retry tokens left in the per-client budget bucket.
    tokens: u32,
    /// The slot hedged this round, if the hedge trigger fired.
    hedged_slot: Option<usize>,
    /// Running upper-tail estimate of resolved slot times — the
    /// adaptive hedge delay (an upper-only [`simcap::Recorder`]).
    p95: simcap::Recorder,
    /// Typed per-request outcomes, parallel to `completions`.
    pub outcomes: Vec<RequestOutcome>,
    /// The mitigation's cost counters. A cancelled sub-request is a
    /// slot slower than the recorded completion: beyond the quorum or
    /// the deadline.
    pub cost: MitigationCost,
}

/// One simulated host.
pub struct DcHost {
    /// The kernel (stack + CPU + spans).
    pub kernel: Kernel,
    /// The network interface: one TCA-100 uplink into the shared
    /// switch (its inline `switch` stays `None`).
    pub nic: AtmNic,
    /// Connection endpoints, indexed by socket id.
    pub conns: Vec<DcConn>,
    /// This host's TCP-timer slot.
    timer: TcpTimer,
    /// Fan-out barrier state (measured client hosts of a fan-out
    /// world only).
    pub fanout: Option<FanoutCtl>,
    /// Deterministic pause/resume windows (faultkit `host_pause`):
    /// every event targeting this host while it is paused is deferred
    /// to the window's end, modeling a GC or scheduler stall.
    pause: Option<faultkit::PauseSchedule>,
    /// The request a client connection is writing, reused across
    /// writes.
    request: Vec<u8>,
}

/// The datacenter world.
pub struct DcWorld {
    /// The topology (plain data).
    pub topo: Topology,
    /// The traffic schedule (plain data).
    pub sched: TrafficSchedule,
    /// All hosts: clients `0..topo.clients`, then servers.
    pub hosts: Vec<DcHost>,
    /// The shared switch; host `h` is both input and output port `h`.
    pub switch: AtmSwitch,
    /// Client connections still running.
    live_clients: usize,
    /// The world seed; churn think-time draws derive from it.
    seed: u64,
    /// Cell trains between the shared switch and their destination's
    /// interrupt, indexed by the payload of their arrival event. A
    /// free slot keeps its emptied train for the next one to swap.
    in_flight: Vec<InFlight>,
    /// Free slots of `in_flight`.
    free_slots: Vec<u32>,
}

/// Most emptied trains the in-flight slab keeps for reuse.
const KEPT_TRAINS: usize = 64;

/// A train past the shared switch, waiting for its last cell to reach
/// the destination adapter.
struct InFlight {
    src: usize,
    dst: usize,
    train: Train,
}

// The parallel sweep runner builds and runs one world per cell inside
// a worker thread; the world must be able to cross threads.
const _: () = simkit::assert_world_send::<DcWorld>();

/// The expected bytes of one RPC, a pure function of the connection
/// identity and the iteration — so a segment delivered to the wrong
/// connection (a PCB demultiplex bug) fails verification instead of
/// passing silently.
#[must_use]
pub fn dc_pattern(size: usize, iter: u64, ident: (usize, usize)) -> Vec<u8> {
    pattern_bytes(size, iter, ident).collect()
}

/// The bytes of [`dc_pattern`], one at a time: the hot path writes
/// and verifies them without allocating.
fn pattern_bytes(size: usize, iter: u64, ident: (usize, usize)) -> impl Iterator<Item = u8> {
    let salt = iter
        .wrapping_mul(131)
        .wrapping_add(ident.0 as u64 * 17)
        .wrapping_add(ident.1 as u64 * 7);
    (0..size).map(move |i| ((i as u64 + salt) % 251) as u8)
}

/// Seed for host `h`, derived by key so every host has an independent
/// stream and the derivation is order-free.
fn host_seed(seed: u64, h: usize) -> u64 {
    seed ^ (h as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// splitmix64 finalizer: one strong mixing step, used to turn a
/// `(seed, host, conn, round)` tuple into an independent draw.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DcWorld {
    /// Builds the world: one kernel + uplink per host, the shared
    /// switch with a per-destination VC plan, and every client-server
    /// connection pair established administratively with aligned
    /// sequence state (the paper measures established connections).
    #[must_use]
    pub fn new(topo: Topology, sched: TrafficSchedule, seed: u64) -> DcWorld {
        assert!(topo.clients > 0, "a world needs at least one client");
        assert!(topo.conns_per_host > 0, "at least one connection");
        assert!(topo.conns_per_host <= 4096, "client port space");
        if topo.fanout_width > 0 {
            assert_eq!(
                topo.conns_per_host, topo.fanout_width,
                "fan-out wiring: one connection per server"
            );
        }
        let n = topo.hosts();
        let measured = topo.measured_hosts();
        let costs = CostModel::calibrated();
        let cfg = topo.strategy.apply(topo.stack);
        let mut hosts = Vec::with_capacity(n);
        for h in 0..n {
            let hs = host_seed(seed, h);
            let link = atm::FiberLink::new(
                atm::LinkConfig {
                    propagation: topo.link_delay(h),
                    ..atm::LinkConfig::default()
                },
                hs,
            );
            let mut nic = AtmNic::new(link, costs.clone(), hs);
            nic.mtu = topo.mtu;
            if let Some(faults) = topo.faults.as_ref().filter(|_| topo.faults_apply_to(h)) {
                nic.arm_faults(faults, hs);
            }
            let fanout = (topo.fanout_width > 0 && h < topo.clients).then(|| FanoutCtl {
                width: topo.fanout_width,
                pending: topo.fanout_width,
                round: 0,
                completions: Vec::new(),
                aborted: false,
                tail: topo.tail,
                slot_rtt: vec![None; topo.fanout_width],
                tokens: topo.tail.retry.map_or(0, |r| r.budget),
                hedged_slot: None,
                p95: simcap::Recorder::upper_only(),
                outcomes: Vec::new(),
                cost: MitigationCost::default(),
            });
            // Host pause windows arm where the fault schedule does,
            // like every other injector.
            let pause = if topo.faults_apply_to(h) {
                topo.faults.as_ref().and_then(|f| f.host_pause)
            } else {
                None
            };
            hosts.push(DcHost {
                kernel: Kernel::new(cfg, costs.clone()),
                nic,
                conns: Vec::new(),
                timer: TcpTimer::default(),
                fanout,
                pause,
                request: Vec::new(),
            });
        }

        // Client-side hosts in wiring order: measured clients, then
        // churn hosts.
        let client_side: Vec<usize> = (0..topo.clients).chain(measured..n).collect();

        let mut switch = AtmSwitch::new(n, topo.switch, host_seed(seed, n + 1));
        for &c in &client_side {
            let mut wired: Vec<usize> = Vec::new();
            for j in 0..topo.conns_of(c) {
                let srv = topo.peer_server(c, j);
                if wired.contains(&srv) {
                    continue;
                }
                wired.push(srv);
                for (src, dst) in [(c, srv), (srv, c)] {
                    // The MID carries the low bits of the sender index
                    // (10-bit field); trains are delivered whole, so
                    // MID collisions cannot occur mid-reassembly.
                    let mid = (src & 0x3ff) as u16;
                    hosts[src]
                        .nic
                        .add_peer(Topology::addr(dst), dst, Topology::vci_to(dst), mid);
                    switch.add_vc(
                        src,
                        0,
                        Topology::vci_to(dst),
                        VcRoute {
                            out_port: dst,
                            out_vpi: 0,
                            out_vci: Topology::vci_to(dst),
                        },
                    );
                }
            }
        }

        let mss = tcp_mss(topo.mtu, cfg.mss_one_cluster);
        for &c in &client_side {
            let background = c >= measured;
            for j in 0..topo.conns_of(c) {
                let srv = topo.peer_server(c, j);
                let (size, total, think) = if background {
                    let ch = topo.churn.as_ref().expect("churn host implies config");
                    // Per-server echo size: the heterogeneous hiccup
                    // severity that keeps max-of-N growing with N.
                    (ch.size_for(srv - topo.clients), u64::MAX, ch.think)
                } else {
                    (topo.rpc_size, topo.warmup + topo.iterations, SimTime::ZERO)
                };
                let lport = CLIENT_PORT + j as u16;
                let key_c = PcbKey {
                    laddr: Topology::addr(c),
                    lport,
                    faddr: Topology::addr(srv),
                    fport: SERVER_PORT,
                };
                let key_s = PcbKey {
                    laddr: Topology::addr(srv),
                    lport: SERVER_PORT,
                    faddr: Topology::addr(c),
                    fport: lport,
                };
                let sock_c = hosts[c].kernel.create_connection(key_c, mss);
                let sock_s = hosts[srv].kernel.create_connection(key_s, mss);
                debug_assert_eq!(sock_c, hosts[c].conns.len());
                debug_assert_eq!(sock_s, hosts[srv].conns.len());
                // Align administrative sequence numbers: each side's
                // rcv_nxt must equal the peer's snd_nxt.
                let (c_snd, c_rcv) = {
                    let t = hosts[c].kernel.tcb(sock_c);
                    (t.snd_nxt, t.rcv_nxt)
                };
                {
                    let mut t = hosts[srv].kernel.tcb_mut(sock_s);
                    t.rcv_nxt = c_snd;
                    t.snd_una = c_rcv;
                    t.snd_nxt = c_rcv;
                    t.snd_max = c_rcv;
                }
                let conn_s = hosts[srv].conns.len();
                // Replica connections of a hedged fan-out client park
                // idle until a hedge trigger activates them.
                let replica =
                    !background && topo.replicated() && c < topo.clients && j >= topo.fanout_width;
                hosts[c].conns.push(DcConn {
                    sock: sock_c,
                    client: true,
                    peer_host: srv,
                    peer_conn: conn_s,
                    ident: (c, j),
                    state: if replica {
                        ConnState::Idle
                    } else {
                        ConnState::WantWrite(0)
                    },
                    got: Vec::new(),
                    t_start: SimTime::ZERO,
                    rtts: Vec::new(),
                    verify_failures: 0,
                    aborted: false,
                    size,
                    total,
                    background,
                    think,
                    last_arrival: SimTime::ZERO,
                    sent: 0,
                    rcvd: 0,
                    round_sent: 0,
                    round_rcvd: 0,
                });
                hosts[srv].conns.push(DcConn {
                    sock: sock_s,
                    client: false,
                    peer_host: c,
                    peer_conn: sock_c,
                    ident: (c, j),
                    state: ConnState::WantRead,
                    got: Vec::new(),
                    t_start: SimTime::ZERO,
                    rtts: Vec::new(),
                    verify_failures: 0,
                    aborted: false,
                    size,
                    total,
                    background,
                    think: SimTime::ZERO,
                    last_arrival: SimTime::ZERO,
                    sent: 0,
                    rcvd: 0,
                    round_sent: 0,
                    round_rcvd: 0,
                });
            }
        }

        let live_clients = topo.client_conns();
        DcWorld {
            topo,
            sched,
            hosts,
            switch,
            live_clients,
            seed,
            in_flight: Vec::new(),
            free_slots: Vec::new(),
        }
    }

    /// Whether every connection on every host has finished.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.hosts
            .iter()
            .all(|h| h.conns.iter().all(|c| c.state == ConnState::Done))
    }

    /// PCB lookup counters summed over `hosts` (by predicate on the
    /// host index).
    fn pcb_counters_where(&self, keep: impl Fn(usize) -> bool) -> PcbCounters {
        let mut acc = PcbCounters::default();
        for (h, host) in self.hosts.iter().enumerate() {
            if keep(h) {
                acc += host.kernel.pcbs.counters();
            }
        }
        acc
    }
}

/// One run's pooled results.
pub struct DcRunResult {
    /// Every measured RPC round-trip, pooled in (client host,
    /// connection, iteration) order — a stable order so reports are
    /// byte-identical across `--jobs` values.
    pub rtts: Vec<SimTime>,
    /// Payload verification failures across every endpoint.
    pub verify_failures: u64,
    /// Connections that aborted (retransmit limit, under faults).
    pub aborted_conns: u64,
    /// Fan-out worlds: per-logical-request completion times (the tail
    /// policy's K-th-fastest sub-request capped by the deadline; the
    /// slowest one under wait-for-all), pooled in client-host order.
    /// Empty in incast worlds.
    pub completions: Vec<SimTime>,
    /// Fan-out client hosts whose rounds were cut short by an abort.
    pub fanout_aborts: u64,
    /// Events executed by the simulation.
    pub events: u64,
    /// Final simulated time.
    pub sim_time: SimTime,
    /// PCB lookup counters summed over every host.
    pub pcb: PcbCounters,
    /// PCB lookup counters summed over the server hosts only — the
    /// side whose table holds `fanin x conns_per_host` entries and
    /// where the paper's strategy differences live.
    pub server_pcb: PcbCounters,
    /// Cells forwarded by the switch.
    pub switch_forwarded: u64,
    /// Cells tail-dropped at full output queues.
    pub switch_drops: u64,
    /// Cells discarded by Early Packet Discard (whole refused trains).
    pub epd_drops: u64,
    /// Cells discarded by Partial Packet Discard (train remainders).
    pub ppd_drops: u64,
    /// Largest output-queue backlog (cells) seen on any port.
    pub max_backlog_cells: usize,
    /// Segments retransmitted (RTO + fast), summed over every host.
    pub rexmits: u64,
    /// Retransmission timeouts fired, summed over every host — the
    /// expensive recovery path the fast-recovery variants exist to
    /// avoid.
    pub rto_fires: u64,
    /// Mbufs still outstanding after world teardown, summed over every
    /// host pool — covers cancelled and hedged sub-requests too, whose
    /// connections must release their buffers like any other.
    pub mbufs_leaked: u64,
    /// Tail-mitigation cost counters summed over every fan-out client.
    pub cost: MitigationCost,
}

impl DcRunResult {
    /// Mean traversed list entries per lookup — the paper's §3 cost
    /// driver — on the server side.
    #[must_use]
    pub fn server_search_len(&self) -> f64 {
        self.server_pcb.search_len()
    }
}

/// Builds and runs a world to completion.
///
/// # Panics
///
/// Panics if the event queue drains while a client connection is
/// still waiting — a protocol deadlock, which the tests treat as a
/// bug.
#[must_use]
pub fn run_dc(topo: &Topology, sched: TrafficSchedule, seed: u64) -> DcRunResult {
    let sim = run_dc_sim(topo, sched, seed);
    let w = &sim.world;
    let mut rtts = Vec::new();
    let mut verify_failures = 0;
    let mut aborted_conns = 0;
    let mut completions = Vec::new();
    let mut fanout_aborts = 0;
    let mut cost = MitigationCost::default();
    for host in &w.hosts {
        for conn in &host.conns {
            rtts.extend_from_slice(&conn.rtts);
            verify_failures += conn.verify_failures;
            aborted_conns += u64::from(conn.aborted);
        }
        if let Some(ctl) = &host.fanout {
            completions.extend_from_slice(&ctl.completions);
            fanout_aborts += u64::from(ctl.aborted);
            cost += ctl.cost;
        }
    }
    let clients = w.topo.clients;
    let (mut fwd, mut drops, mut backlog) = (0, 0, 0usize);
    let (mut epd, mut ppd) = (0, 0);
    for p in 0..w.switch.ports() {
        let ps = w.switch.port_stats(p);
        fwd += ps.forwarded;
        drops += ps.queue_drops;
        epd += ps.epd_drops;
        ppd += ps.ppd_drops;
        backlog = backlog.max(ps.max_backlog_cells);
    }
    let rexmits = w.hosts.iter().map(|h| h.kernel.rexmits_total()).sum();
    let rto_fires = w.hosts.iter().map(|h| h.kernel.stats.rto_fires).sum();
    let mut result = DcRunResult {
        rtts,
        verify_failures,
        aborted_conns,
        completions,
        fanout_aborts,
        events: sim.events_executed(),
        sim_time: sim.now(),
        pcb: w.pcb_counters_where(|_| true),
        server_pcb: w.pcb_counters_where(|h| h >= clients && h < w.topo.measured_hosts()),
        switch_forwarded: fwd,
        switch_drops: drops,
        epd_drops: epd,
        ppd_drops: ppd,
        max_backlog_cells: backlog,
        rexmits,
        rto_fires,
        mbufs_leaked: 0,
        cost,
    };
    // Teardown frees every chain still held by sockets, queues and
    // adapters — including the connections of cancelled or hedged
    // sub-requests; whatever remains outstanding is a genuine leak.
    let pools: Vec<_> = w.hosts.iter().map(|h| h.kernel.pool.clone()).collect();
    drop(sim);
    result.mbufs_leaked = pools.iter().map(|p| p.stats().mbufs_outstanding()).sum();
    result
}

/// Builds and runs a world, returning the final world state — tests
/// inspect per-connection sub-request RTTs and per-host fan-out
/// completions directly.
///
/// # Panics
///
/// Panics on protocol deadlock, like [`run_dc`].
#[must_use]
pub fn run_dc_world(topo: &Topology, sched: TrafficSchedule, seed: u64) -> DcWorld {
    run_dc_sim(topo, sched, seed).world
}

fn run_dc_sim(topo: &Topology, sched: TrafficSchedule, seed: u64) -> Sim<DcWorld> {
    let world = DcWorld::new(topo.clone(), sched, seed);
    let mut sim = prepare_dc(world);
    if sim.world.topo.churn.is_some() {
        // Churn connections never finish on their own: stop when the
        // measured clients are done instead of draining the queue.
        let _ = sim.run_while(|w| !w.finished());
    } else {
        sim.run();
    }
    assert!(
        sim.world.finished(),
        "deadlock: event queue empty with live connections \
         (live_clients {})",
        sim.world.live_clients
    );
    sim
}

/// Packs a (host, connection) pair into a raw event payload.
fn pack(h: usize, c: usize) -> u64 {
    ((h as u64) << 32) | c as u64
}

/// Builds the simulation over a world: registers each host's
/// permanent TCP-timer slot and schedules every connection's start
/// event (servers first, at t = 0, so they are blocked in read before
/// any client writes; clients per the traffic schedule).
fn prepare_dc(world: DcWorld) -> Sim<DcWorld> {
    let mut sim = Sim::new(world);
    for h in 0..sim.world.hosts.len() {
        let id = sim.register_timer("dc-tcp-timer", on_timer_raw, h as u64);
        sim.world.hosts[h].timer.bind(id);
    }
    let clients = sim.world.topo.clients;
    let measured = sim.world.topo.measured_hosts();
    for h in clients..measured {
        for c in 0..sim.world.hosts[h].conns.len() {
            sim.schedule_raw(SimTime::ZERO, "dc-conn-start", conn_step_raw, pack(h, c));
        }
    }
    let sched = sim.world.sched;
    let fanout = sim.world.topo.fanout_width > 0;
    for h in 0..clients {
        // A mitigated fan-out host re-arms its control events (hedge
        // trigger, retry timers, token refill) at each round start.
        // Wait-for-all has none, and its first round needs no arm.
        let mitigated = sim.world.hosts[h]
            .fanout
            .as_ref()
            .is_some_and(|f| !f.tail.is_noop());
        if mitigated {
            sim.schedule_raw(
                sched.start_of(h, 0),
                "dc-round-arm",
                on_round_arm_raw,
                h as u64,
            );
        }
        for c in 0..sim.world.hosts[h].conns.len() {
            // Hedge replicas park idle until their trigger fires.
            if sim.world.hosts[h].conns[c].state == ConnState::Idle {
                continue;
            }
            // A fan-out host issues its whole round at once: every
            // sub-request starts at the host's slot (the client CPU
            // serializes the actual writes).
            let at = if fanout {
                sched.start_of(h, 0)
            } else {
                sched.start_of(h, c)
            };
            sim.schedule_raw(at, "dc-conn-start", conn_step_raw, pack(h, c));
        }
    }
    // Churn connections spread their first rounds across one think
    // period so the background load starts de-phased instead of as
    // one burst.
    if let Some(ch) = sim.world.topo.churn.clone() {
        let servers = sim.world.topo.servers() as u64;
        let clients = sim.world.topo.clients;
        for h in measured..sim.world.hosts.len() {
            for c in 0..sim.world.hosts[h].conns.len() {
                // Spread by the global server index so the whole
                // churn population covers one think period even when
                // it is sliced across several churn hosts.
                let srv = (sim.world.topo.peer_server(h, c) - clients) as u64;
                let spread = SimTime::from_ns(ch.think.as_ns() / servers * srv);
                sim.schedule_raw(
                    sched.start_of(h, c) + spread,
                    "dc-churn-start",
                    conn_step_raw,
                    pack(h, c),
                );
            }
        }
    }
    sim
}

/// If host `h` is inside a pause window at `now`, the time it
/// resumes. Every event entry point defers itself to that instant —
/// a paused host stops servicing *everything* (arrivals, timers,
/// process steps), exactly like a GC or scheduler stall. The resume
/// point is outside the window (faultkit invariant), so a deferred
/// event runs on its second attempt: pauses delay, never hang.
fn paused_until(w: &DcWorld, h: usize, now: SimTime) -> Option<SimTime> {
    w.hosts[h].pause.and_then(|p| p.resume_after(now))
}

/// Raw-event trampolines (function pointer + packed payload: the
/// steady-state loop allocates only for arrival trains).
fn conn_step_raw(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, data: u64) {
    let h = (data >> 32) as usize;
    if let Some(resume) = paused_until(w, h, s.now()) {
        s.schedule_raw_at(resume, "dc-paused-step", conn_step_raw, data);
        return;
    }
    conn_step(w, s, h, (data & 0xffff_ffff) as usize);
}

fn on_softintr_raw(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: u64) {
    if let Some(resume) = paused_until(w, h as usize, s.now()) {
        s.schedule_raw_at(resume, "dc-paused-softintr", on_softintr_raw, h);
        return;
    }
    on_softintr(w, s, h as usize);
}

fn on_timer_raw(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: u64) {
    if let Some(resume) = paused_until(w, h as usize, s.now()) {
        s.schedule_raw_at(resume, "dc-paused-timer", on_timer_raw, h);
        return;
    }
    on_timer(w, s, h as usize);
}

/// Schedules staged deliveries — running the shared switch's
/// per-cell [`AtmSwitch::pass`] over each train, then the
/// destination's downlink — and (re)arms the TCP timer after any
/// kernel interaction on host `h`.
fn flush_dc(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: usize) {
    // Drained out of the NIC and put back, so its storage is reused.
    let mut staged = std::mem::take(&mut w.hosts[h].nic.staged);
    for Delivery { dst, payload, .. } in staged.drain(..) {
        let DeliveryPayload::Cells(mut train) = payload else {
            unreachable!("datacenter hosts stage cell trains")
        };
        let down = w.topo.link_delay(dst);
        let mut last = None;
        for cell in &mut train {
            let (at, fault) = std::mem::replace(cell, (SimTime::ZERO, LinkFault::Lost));
            *cell = w.switch.pass(h, at, fault, down);
            if !matches!(cell.1, LinkFault::Lost) {
                last = last.max(Some(cell.0));
            }
        }
        // A fully-lost train arrives nowhere; TCP's retransmit timer
        // is the recovery path. Otherwise the hardware interrupt
        // fires when the train's last cell reaches the destination
        // adapter.
        let Some(last) = last else {
            w.hosts[h].nic.recycle_train(train);
            continue;
        };
        let arrival = InFlight { src: h, dst, train };
        let slot = match w.free_slots.pop() {
            Some(slot) => {
                // The slot's emptied train refills the sender's spares.
                let spare = std::mem::replace(&mut w.in_flight[slot as usize], arrival).train;
                w.hosts[h].nic.recycle_train(spare);
                slot
            }
            None => {
                w.in_flight.push(arrival);
                (w.in_flight.len() - 1) as u32
            }
        };
        s.schedule_raw_at(
            last.max(s.now()),
            "dc-arrival",
            on_dc_arrival_raw,
            u64::from(slot),
        );
    }
    w.hosts[h].nic.staged = staged;
    let host = &mut w.hosts[h];
    host.timer.rearm(&host.kernel, s);
}

/// ATM datagram arrival: the hardware interrupt of the train in
/// `in_flight` slot `slot`.
fn on_dc_arrival_raw(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, slot: u64) {
    let InFlight { src, dst: h, .. } = w.in_flight[slot as usize];
    // A paused host's adapter holds the interrupt until it resumes.
    if let Some(resume) = paused_until(w, h, s.now()) {
        s.schedule_raw_at(resume, "dc-paused-arrival", on_dc_arrival_raw, slot);
        return;
    }
    w.free_slots.push(slot as u32);
    // Fan-out landing stamp: on a fan-out client, connection `c`
    // talks exclusively to server `clients + h*span + c` (the
    // client's private server block, primaries then replicas), so the
    // sender maps to the connection without waiting for TCP
    // demultiplexing (which runs serialized on the client CPU, after
    // this interrupt).
    if w.hosts[h].fanout.is_some() {
        let span = w.topo.fanout_conns();
        let first = w.topo.clients + h * span;
        if (first..first + span).contains(&src) {
            w.hosts[h].conns[src - first].last_arrival = s.now();
        }
    }
    let host = &mut w.hosts[h];
    let train = &mut w.in_flight[slot as usize].train;
    if let Some(at) =
        latency_core::nic::atm_receive(&mut host.kernel, &mut host.nic, s.now(), train)
    {
        s.schedule_raw_at(at, "dc-softintr", on_softintr_raw, h as u64);
    }
    // Keep a bounded stock of emptied trains: past it, a burst's
    // trains go back to the allocator rather than pin their storage.
    if w.free_slots.len() <= KEPT_TRAINS {
        train.clear();
    } else {
        *train = Train::new();
    }
}

/// The software interrupt: IP/TCP input, wakeups, responses.
fn on_softintr(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: usize) {
    let host = &mut w.hosts[h];
    let out = host.kernel.ipintr(s.now(), &mut host.nic);
    flush_dc(w, s, h);
    for (sock, run_at) in out.wakeups.iter().chain(out.writer_wakeups.iter()) {
        let at = (*run_at).max(s.now());
        s.schedule_raw_at(at, "dc-wakeup", conn_step_raw, pack(h, *sock));
    }
}

/// A TCP timer event on host `h`.
fn on_timer(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: usize) {
    let host = &mut w.hosts[h];
    host.timer.fired();
    let _ = host.kernel.check_timers(s.now(), &mut host.nic);
    flush_dc(w, s, h);
    // A timer may have aborted a connection (retransmit limit) and
    // woken the blocked process so it can observe the error.
    for (sock, run_at) in w.hosts[h].kernel.take_timer_wakeups() {
        let at = run_at.max(s.now());
        s.schedule_raw_at(at, "dc-abort-wakeup", conn_step_raw, pack(h, sock));
    }
}

/// Marks a client connection finished and releases its server peer
/// once no client traffic can reach it (the paper's RPC servers block
/// in read forever; the run is over when every client is done).
fn finish_client(w: &mut DcWorld, h: usize, c: usize) {
    if w.hosts[h].conns[c].state != ConnState::Done {
        w.hosts[h].conns[c].state = ConnState::Done;
        // Background churn runs until the measured clients are done;
        // it never counts toward completion.
        if !w.hosts[h].conns[c].background {
            w.live_clients -= 1;
        }
    }
    if w.live_clients == 0 {
        for host in &mut w.hosts {
            for conn in &mut host.conns {
                conn.state = ConnState::Done;
            }
        }
    }
}

/// Aborts both endpoints of a dead connection (a real stack would RST
/// the peer); keeps the run live under faults.
///
/// On a fan-out host the whole logical request dies with any one of
/// its sub-request connections — no future round can complete — so
/// the abort widens to every connection of that client host.
fn abort_pair(w: &mut DcWorld, h: usize, c: usize) {
    w.hosts[h].conns[c].aborted = true;
    let (peer_host, peer_conn, client) = {
        let conn = &w.hosts[h].conns[c];
        (conn.peer_host, conn.peer_conn, conn.client)
    };
    let client_host = if client { h } else { peer_host };
    if w.hosts[client_host].fanout.is_some() {
        abort_fanout_host(w, client_host);
        return;
    }
    w.hosts[peer_host].conns[peer_conn].state = ConnState::Done;
    if client {
        finish_client(w, h, c);
    } else {
        w.hosts[h].conns[c].state = ConnState::Done;
        finish_client(w, peer_host, peer_conn);
    }
}

/// Kills a fan-out client host: releases every server peer and
/// finishes every sub-request connection. The host's completed
/// rounds stay in `FanoutCtl::completions`; the aborted flag marks
/// the truncation.
fn abort_fanout_host(w: &mut DcWorld, ch: usize) {
    if let Some(ctl) = &mut w.hosts[ch].fanout {
        ctl.aborted = true;
    }
    for j in 0..w.hosts[ch].conns.len() {
        let (ph, pc) = {
            let conn = &w.hosts[ch].conns[j];
            (conn.peer_host, conn.peer_conn)
        };
        w.hosts[ph].conns[pc].state = ConnState::Done;
        finish_client(w, ch, j);
    }
}

/// Runs one connection endpoint until it blocks or finishes — the RPC
/// loop of the two-host world's app, per connection.
fn conn_step(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: usize, c: usize) {
    let mut now = s.now();
    // A fan-out host's round lifecycle is owned by its barrier
    // (release/record/finish), not by per-connection counts: retries
    // make a stream's echo count exceed the round index.
    let fanout = w.hosts[h].fanout.is_some();
    loop {
        let state = w.hosts[h].conns[c].state;
        match state {
            ConnState::Done | ConnState::AtBarrier | ConnState::Idle => break,
            ConnState::WantWrite(offset) => {
                let host = &mut w.hosts[h];
                let conn = &mut host.conns[c];
                let size = conn.size;
                if conn.client && !fanout && conn.rcvd >= conn.total {
                    finish_client(w, h, c);
                    break;
                }
                if conn.client {
                    // `sent` indexes past any retried copies, so every
                    // message on the stream carries a distinct
                    // pattern.
                    host.request.clear();
                    host.request
                        .extend(pattern_bytes(size, conn.sent, conn.ident));
                }
                if offset == 0 && conn.client {
                    // Start the iteration timer: read the clock just
                    // before write(), as the benchmark did.
                    conn.t_start = now.max(host.kernel.cpu.busy_until()).quantized();
                }
                let out = {
                    let DcHost {
                        kernel,
                        nic,
                        conns,
                        request,
                        ..
                    } = host;
                    let conn = &conns[c];
                    // The server echoes what it received.
                    let data = if conn.client {
                        &request[..]
                    } else {
                        &conn.got[..]
                    };
                    kernel.syscall_write(now, conn.sock, &data[offset..], nic)
                };
                flush_dc(w, s, h);
                let conn = &mut w.hosts[h].conns[c];
                now = out.done_at;
                if out.error.is_some() {
                    abort_pair(w, h, c);
                    break;
                }
                if out.blocked {
                    conn.state = ConnState::WantWrite(offset + out.accepted);
                    break;
                }
                conn.sent += 1;
                // Clients clear on each full echo instead: a retry
                // write can interleave with a partially-assembled
                // echo, which must survive the write.
                if !conn.client {
                    conn.got.clear();
                }
                conn.state = ConnState::WantRead;
            }
            ConnState::WantRead => {
                let host = &mut w.hosts[h];
                let conn = &mut host.conns[c];
                let size = conn.size;
                let want = size - conn.got.len();
                let sock = conn.sock;
                let out = {
                    let DcHost { kernel, nic, .. } = host;
                    kernel.syscall_read(now, sock, want, nic)
                };
                flush_dc(w, s, h);
                let conn = &mut w.hosts[h].conns[c];
                if out.error.is_some() {
                    abort_pair(w, h, c);
                    break;
                }
                if out.blocked {
                    break;
                }
                now = out.done_at;
                conn.got.extend_from_slice(&out.data);
                if conn.got.len() < size {
                    continue;
                }
                // A full message arrived. Clients verify against the
                // receive index (echoes land in send order on the
                // in-order stream, including retried copies); servers
                // verify against their own echo count.
                let idx = if conn.client { conn.rcvd } else { conn.sent };
                if !conn
                    .got
                    .iter()
                    .copied()
                    .eq(pattern_bytes(size, idx, conn.ident))
                {
                    conn.verify_failures += 1;
                }
                if !conn.client {
                    conn.state = ConnState::WantWrite(0);
                    continue;
                }
                conn.got.clear();
                conn.rcvd += 1;
                // Fan-out sub-requests end when the reply *lands* (the
                // last train from the peer server); everyone else ends
                // at read completion, as the benchmark did. The
                // landing stamp keeps the client CPU's serialized
                // processing of N near-simultaneous replies out of the
                // measured completion — it delays the next round, not
                // this one's slowest-reply arrival.
                let end = if fanout { conn.last_arrival } else { now };
                let rtt = end.quantized().saturating_since(conn.t_start);
                if fanout {
                    // The barrier decides what this echo means (first
                    // reply, retry duplicate, hedge outcome) and owns
                    // the round release / host finish.
                    conn.round_rcvd += 1;
                    if fanout_reply(w, s, h, c, rtt, end, now) {
                        continue;
                    }
                    break;
                }
                if !conn.background && conn.rcvd > w.topo.warmup {
                    conn.rtts.push(rtt);
                }
                conn.state = ConnState::WantWrite(0);
                let think = conn.think;
                let rounds = conn.rcvd;
                if think > SimTime::ZERO {
                    // Churn pacing: idle before the next round, drawn
                    // uniformly from [think, 2*think). A fixed period
                    // would phase-lock with the measured rounds and
                    // turn the collision rate into a per-seed lottery;
                    // the draw makes background arrivals aperiodic, so
                    // fan-out amplification reflects probability, not
                    // phase.
                    let draw = splitmix64(host_seed(w.seed, h) ^ ((c as u64) << 40) ^ rounds)
                        % think.as_ns().max(1);
                    let at = now.max(s.now()) + think + SimTime::from_ns(draw);
                    s.schedule_raw_at(at, "dc-churn-next", conn_step_raw, pack(h, c));
                    break;
                }
            }
        }
    }
}

/// The fan-out barrier: one full echo arrived on connection `c` of
/// fan-out client host `h`.
///
/// Returns `true` when the connection should keep reading (late retry
/// copies of the round are still in flight on its stream) and `false`
/// when it parked or the round ended. Every stream drains before the
/// round is released, but the *recorded* completion is the policy's:
/// the K-th smallest slot time capped by the deadline, which under
/// wait-for-all is the slowest slot. Slots slower than that are
/// counted as cancelled stragglers; they drain through the barrier
/// without being re-measured (see DESIGN §2.17 on observational
/// cancellation).
fn fanout_reply(
    w: &mut DcWorld,
    s: &mut Scheduler<DcWorld>,
    h: usize,
    c: usize,
    rtt: SimTime,
    end: SimTime,
    now: SimTime,
) -> bool {
    let warmup = w.topo.warmup;
    let total = w.hosts[h].conns[c].total;
    let width = w.hosts[h].fanout.as_ref().expect("fan-out host").width;
    let slot = if c < width { c } else { c - width };
    let first_echo = w.hosts[h].conns[c].round_rcvd == 1;
    if first_echo {
        // A slot resolves at its first reply from either path; a
        // replica's reply is timed from the *primary's* request start,
        // since both race to answer the same logical sub-request.
        let slot_time = if c < width {
            rtt
        } else {
            end.quantized()
                .saturating_since(w.hosts[h].conns[slot].t_start)
        };
        let ctl = w.hosts[h].fanout.as_mut().expect("fan-out host");
        if ctl.slot_rtt[slot].is_none() {
            ctl.slot_rtt[slot] = Some(slot_time);
            ctl.p95.observe(slot_time);
            if ctl.hedged_slot == Some(slot) {
                // Scored when the slot resolves: the replica either
                // beat the primary or duplicated work it lost to.
                if c >= width {
                    ctl.cost.hedges_won += 1;
                } else {
                    ctl.cost.hedges_wasted += 1;
                }
            }
        }
        if ctl.round >= warmup {
            w.hosts[h].conns[c].rtts.push(rtt);
        }
    }
    {
        let conn = &w.hosts[h].conns[c];
        if conn.round_sent > conn.round_rcvd {
            // Retry copies of this round are still owed echoes on this
            // stream: drain them before parking at the barrier.
            return true;
        }
    }
    let (pending, round) = {
        let ctl = w.hosts[h].fanout.as_mut().expect("fan-out host");
        ctl.pending -= 1;
        (ctl.pending, ctl.round)
    };
    if pending > 0 {
        w.hosts[h].conns[c].state = if c < width {
            ConnState::AtBarrier
        } else {
            ConnState::Idle
        };
        return false;
    }
    // Barrier: every stream drained, so every slot resolved. Record
    // the policy's completion, not the slowest straggler's.
    let mut deadline_hit = false;
    {
        let ctl = w.hosts[h].fanout.as_mut().expect("fan-out host");
        let tail = ctl.tail;
        let mut times: Vec<SimTime> = ctl
            .slot_rtt
            .iter()
            .map(|t| t.expect("every slot resolves by the barrier"))
            .collect();
        times.sort_unstable();
        let k = if tail.quorum == 0 {
            width
        } else {
            tail.quorum.min(width)
        };
        let kth = times[k - 1];
        let (completion, outcome) = match tail.deadline {
            Some(d) if kth > d => (d, RequestOutcome::DeadlineExceeded),
            _ => (kth, RequestOutcome::Ok),
        };
        ctl.cost.cancelled += times.iter().filter(|&&t| t > completion).count() as u64;
        if outcome == RequestOutcome::DeadlineExceeded {
            ctl.cost.deadline_exceeded += 1;
            deadline_hit = true;
        }
        if round >= warmup {
            ctl.completions.push(completion);
            ctl.outcomes.push(outcome);
        }
        ctl.round += 1;
    }
    if deadline_hit {
        // Flight recorder: a missed deadline is a trigger-worthy
        // anomaly — freeze the window around the straggling round.
        w.hosts[h]
            .kernel
            .taps
            .trigger(simcap::TriggerReason::DeadlineExceeded, now);
    }
    if round + 1 >= total {
        for j in 0..w.hosts[h].conns.len() {
            finish_client(w, h, j);
        }
        return false;
    }
    // Release the next round: primaries write, replicas park idle
    // until the hedge trigger activates one.
    let at = now.max(s.now());
    w.hosts[h].fanout.as_mut().expect("fan-out host").pending = width;
    for j in 0..w.hosts[h].conns.len() {
        if j < width {
            w.hosts[h].conns[j].state = ConnState::WantWrite(0);
            s.schedule_raw_at(at, "dc-fanout-next", conn_step_raw, pack(h, j));
        } else {
            w.hosts[h].conns[j].state = ConnState::Idle;
        }
    }
    arm_round(w, s, h, at);
    false
}

/// Arms one tail-tolerant round on fan-out host `h` released at `at`:
/// resets the slot scoreboard, refills the retry token bucket, and
/// schedules the round's hedge trigger and first-retry timers. Stale
/// timers from earlier rounds no-op via the round guard in their
/// handlers.
fn arm_round(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: usize, at: SimTime) {
    let (tail, width, round) = {
        let Some(ctl) = w.hosts[h].fanout.as_mut() else {
            return;
        };
        if ctl.aborted {
            return;
        }
        let tail = ctl.tail;
        for slot in ctl.slot_rtt.iter_mut() {
            *slot = None;
        }
        ctl.hedged_slot = None;
        if let Some(rp) = tail.retry {
            if ctl.round > 0 {
                // Token-bucket refill, once per round; the first round
                // starts from the full budget set at construction.
                ctl.tokens = (ctl.tokens + rp.refill).min(rp.budget);
            }
        }
        (tail, ctl.width, ctl.round)
    };
    for (j, conn) in w.hosts[h].conns.iter_mut().enumerate() {
        conn.round_sent = u32::from(j < width);
        conn.round_rcvd = 0;
    }
    if let Some(hp) = tail.hedge {
        // Adaptive trigger: the running p95 of resolved slot times,
        // falling back to the configured initial delay until the
        // estimator has seen a sample.
        let delay = hp.delay.unwrap_or_else(|| {
            let ctl = w.hosts[h].fanout.as_ref().expect("fan-out host");
            ctl.p95.upper_estimate().unwrap_or(hp.initial)
        });
        s.schedule_raw_at(
            at + delay,
            "dc-hedge",
            on_hedge_raw,
            pack(h, round as usize),
        );
    }
    if let Some(rp) = tail.retry {
        if rp.max_attempts > 1 {
            for slot in 0..width {
                let jitter = retry_jitter(w.seed, h, slot, round, 1, rp.jitter);
                s.schedule_raw_at(
                    at + rp.backoff + jitter,
                    "dc-retry",
                    on_retry_raw,
                    pack_retry(h, slot, round, 1),
                );
            }
        }
    }
}

/// First-round arm for a mitigated fan-out host (scheduled by
/// `prepare_dc` at the host's traffic slot; later rounds re-arm at the
/// barrier release).
fn on_round_arm_raw(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: u64) {
    if let Some(resume) = paused_until(w, h as usize, s.now()) {
        s.schedule_raw_at(resume, "dc-paused-arm", on_round_arm_raw, h);
        return;
    }
    arm_round(w, s, h as usize, s.now());
}

fn on_hedge_raw(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, data: u64) {
    let h = (data >> 32) as usize;
    if let Some(resume) = paused_until(w, h, s.now()) {
        s.schedule_raw_at(resume, "dc-paused-hedge", on_hedge_raw, data);
        return;
    }
    on_hedge(w, s, h, data & 0xffff_ffff);
}

/// The hedge trigger for round `round` on host `h`: reissue the
/// slowest outstanding sub-request to its replica server, race the
/// copies, take the first reply.
fn on_hedge(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, h: usize, round: u64) {
    let slot = {
        let Some(ctl) = w.hosts[h].fanout.as_ref() else {
            return;
        };
        // Stale trigger (the round already ended), an aborted host, or
        // a round that already hedged: no-op.
        if ctl.aborted || ctl.round != round || ctl.hedged_slot.is_some() {
            return;
        }
        // "Slowest outstanding": the round's sub-requests all started
        // together, so every unresolved slot is equally late; take the
        // first. If all resolved, the barrier is imminent.
        match ctl.slot_rtt.iter().position(Option::is_none) {
            Some(slot) => slot,
            None => return,
        }
    };
    let width = w.hosts[h].fanout.as_ref().expect("fan-out host").width;
    let rc = width + slot;
    if rc >= w.hosts[h].conns.len() || w.hosts[h].conns[rc].state != ConnState::Idle {
        return;
    }
    {
        let ctl = w.hosts[h].fanout.as_mut().expect("fan-out host");
        ctl.hedged_slot = Some(slot);
        ctl.cost.hedges_issued += 1;
        ctl.pending += 1;
    }
    let conn = &mut w.hosts[h].conns[rc];
    conn.state = ConnState::WantWrite(0);
    conn.round_sent = 1;
    conn.round_rcvd = 0;
    s.schedule_raw_at(s.now(), "dc-hedge-send", conn_step_raw, pack(h, rc));
}

/// Packs a retry timer payload: host, slot, round (low 20 bits — the
/// handler compares masked, and stale timers are at most one round
/// old), attempt.
fn pack_retry(h: usize, slot: usize, round: u64, attempt: u32) -> u64 {
    ((h as u64) << 48) | ((slot as u64) << 36) | ((round & 0xf_ffff) << 16) | u64::from(attempt)
}

fn on_retry_raw(w: &mut DcWorld, s: &mut Scheduler<DcWorld>, data: u64) {
    let h = (data >> 48) as usize;
    if let Some(resume) = paused_until(w, h, s.now()) {
        s.schedule_raw_at(resume, "dc-paused-retry", on_retry_raw, data);
        return;
    }
    let slot = ((data >> 36) & 0xfff) as usize;
    let round = (data >> 16) & 0xf_ffff;
    let attempt = (data & 0xffff) as u32;
    on_retry(w, s, h, slot, round, attempt);
}

/// Application-level retry timer for `slot` of round `round`: if the
/// slot is still unresolved and the budget has a token, write another
/// copy of the round's request on the same stream and chain the next
/// attempt at doubled backoff.
fn on_retry(
    w: &mut DcWorld,
    s: &mut Scheduler<DcWorld>,
    h: usize,
    slot: usize,
    round: u64,
    attempt: u32,
) {
    let rp = {
        let Some(ctl) = w.hosts[h].fanout.as_ref() else {
            return;
        };
        let Some(rp) = ctl.tail.retry else {
            return;
        };
        if ctl.aborted || (ctl.round & 0xf_ffff) != round || ctl.slot_rtt[slot].is_some() {
            return;
        }
        rp
    };
    {
        // Only retry a fully-written, still-waiting request: a primary
        // mid-write resolves through the normal continuation, and
        // interleaving a second copy into a partial first would
        // corrupt the stream.
        let conn = &w.hosts[h].conns[slot];
        if conn.state != ConnState::WantRead || conn.aborted {
            return;
        }
    }
    {
        let ctl = w.hosts[h].fanout.as_mut().expect("fan-out host");
        if ctl.tokens == 0 {
            ctl.cost.budget_exhausted += 1;
            return;
        }
        ctl.tokens -= 1;
        ctl.cost.retries_issued += 1;
    }
    let now = s.now();
    let (sock, data) = {
        let conn = &w.hosts[h].conns[slot];
        (conn.sock, dc_pattern(conn.size, conn.sent, conn.ident))
    };
    let out = {
        let host = &mut w.hosts[h];
        let DcHost { kernel, nic, .. } = host;
        kernel.syscall_write(now, sock, &data, nic)
    };
    flush_dc(w, s, h);
    if out.error.is_some() {
        abort_pair(w, h, slot);
        return;
    }
    if out.blocked {
        if out.accepted > 0 {
            // A partial copy entered the stream; the writer-wakeup
            // machinery completes it (effectively unreachable: the
            // socket buffer dwarfs a handful of small RPC copies).
            let conn = &mut w.hosts[h].conns[slot];
            conn.state = ConnState::WantWrite(out.accepted);
            conn.round_sent += 1;
        }
        // accepted == 0 leaves the stream untouched: the token is
        // spent, the copy never went out.
    } else {
        let conn = &mut w.hosts[h].conns[slot];
        conn.sent += 1;
        conn.round_sent += 1;
    }
    if attempt + 1 < rp.max_attempts {
        let backoff = SimTime::from_ns(rp.backoff.as_ns() << attempt);
        let jitter = retry_jitter(w.seed, h, slot, round, attempt + 1, rp.jitter);
        s.schedule_raw_at(
            now + backoff + jitter,
            "dc-retry",
            on_retry_raw,
            pack_retry(h, slot, round, attempt + 1),
        );
    }
}

/// Deterministic key-derived retry jitter in `[0, jitter)`: a pure
/// function of `(seed, host, slot, round, attempt)`, so the schedule
/// is byte-identical at any sweep worker count.
fn retry_jitter(
    seed: u64,
    h: usize,
    slot: usize,
    round: u64,
    attempt: u32,
    jitter: SimTime,
) -> SimTime {
    if jitter == SimTime::ZERO {
        return SimTime::ZERO;
    }
    let key = host_seed(seed, h) ^ ((slot as u64) << 40) ^ (round << 8) ^ u64::from(attempt);
    SimTime::from_ns(splitmix64(key) % jitter.as_ns())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::PcbStrategy;

    fn quick(clients: usize, fanin: usize, conns: usize) -> Topology {
        let mut t = Topology::incast(clients, fanin, conns);
        t.iterations = 2;
        t.warmup = 1;
        t
    }

    #[test]
    fn two_host_world_completes() {
        let r = run_dc(&quick(1, 1, 1), TrafficSchedule::staggered(), 7);
        assert_eq!(r.rtts.len(), 2);
        assert_eq!(r.verify_failures, 0);
        assert_eq!(r.aborted_conns, 0);
        assert!(r.switch_forwarded > 0, "traffic crossed the switch");
        assert!(r.rtts.iter().all(|&t| t > SimTime::ZERO));
    }

    #[test]
    fn incast_completes_and_measures_every_connection() {
        let topo = quick(4, 4, 2);
        let r = run_dc(&topo, TrafficSchedule::staggered(), 11);
        // 4 clients x 2 conns x 2 measured iterations.
        assert_eq!(r.rtts.len(), 16);
        assert_eq!(r.verify_failures, 0);
        assert!(r.server_pcb.lookups > 0);
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let topo = quick(3, 2, 2);
        let a = run_dc(&topo, TrafficSchedule::staggered(), 5);
        let b = run_dc(&topo, TrafficSchedule::staggered(), 5);
        assert_eq!(a.rtts, b.rtts);
        assert_eq!(a.events, b.events);
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.pcb, b.pcb);
    }

    #[test]
    fn fanin_contention_raises_tail_latency() {
        // Same client count and load; fan-in 1 gives every client its
        // own server, fan-in 8 funnels them into one port.
        let spread = run_dc(&quick(8, 1, 1), TrafficSchedule::synchronized(), 3);
        let funnel = run_dc(&quick(8, 8, 1), TrafficSchedule::synchronized(), 3);
        let max = |r: &DcRunResult| r.rtts.iter().copied().fold(SimTime::ZERO, SimTime::max);
        assert!(
            max(&funnel) > max(&spread),
            "incast must queue: funnel {:?} vs spread {:?}",
            max(&funnel),
            max(&spread)
        );
        assert!(funnel.max_backlog_cells > spread.max_backlog_cells);
    }

    #[test]
    fn strategies_agree_on_results_and_differ_on_traversal() {
        let mut base = quick(2, 2, 8);
        let mut results = Vec::new();
        for strat in PcbStrategy::ALL {
            base.strategy = strat;
            results.push(run_dc(&base, TrafficSchedule::staggered(), 9));
        }
        for r in &results {
            assert_eq!(r.verify_failures, 0);
            assert_eq!(r.rtts.len(), results[0].rtts.len());
        }
        let hash = &results[2];
        let mtf = &results[0];
        assert!(
            hash.server_search_len() < mtf.server_search_len(),
            "hash probes beat list traversal at 16 server PCBs: {} vs {}",
            hash.server_search_len(),
            mtf.server_search_len()
        );
    }

    #[test]
    fn fanout_world_completes_and_records_completions() {
        let mut t = Topology::fanout(2, 4);
        t.iterations = 3;
        t.warmup = 1;
        let r = run_dc(&t, TrafficSchedule::staggered(), 7);
        // 2 clients x 3 measured logical requests.
        assert_eq!(r.completions.len(), 6);
        // Sub-request RTTs: 2 clients x 4 conns x 3 measured rounds.
        assert_eq!(r.rtts.len(), 24);
        assert_eq!(r.verify_failures, 0);
        assert_eq!(r.fanout_aborts, 0);
        assert!(r.completions.iter().all(|&t| t > SimTime::ZERO));
    }

    #[test]
    fn fanout_completion_is_the_rounds_slowest_subrequest() {
        let mut t = Topology::fanout(1, 4);
        t.iterations = 4;
        t.warmup = 1;
        let w = run_dc_world(&t, TrafficSchedule::staggered(), 3);
        let ctl = w.hosts[0].fanout.as_ref().expect("fan-out client");
        assert_eq!(ctl.completions.len(), 4);
        for r in 0..4 {
            let slowest = (0..4)
                .map(|j| w.hosts[0].conns[j].rtts[r])
                .max()
                .expect("four sub-requests");
            assert_eq!(ctl.completions[r], slowest, "round {r}");
        }
    }

    #[test]
    fn fanout_width_one_matches_subrequest_rtts_exactly() {
        let mut t = Topology::fanout(2, 1);
        t.iterations = 3;
        t.warmup = 1;
        let r = run_dc(&t, TrafficSchedule::staggered(), 9);
        assert_eq!(r.completions, r.rtts, "N=1: the sub-request IS the request");
    }

    #[test]
    fn fanout_same_seed_is_bit_identical() {
        let mut t = Topology::fanout(2, 4);
        t.iterations = 2;
        t.warmup = 1;
        t.churn = Some(crate::topology::ChurnTraffic::background());
        let a = run_dc(&t, TrafficSchedule::staggered(), 5);
        let b = run_dc(&t, TrafficSchedule::staggered(), 5);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.rtts, b.rtts);
        assert_eq!(a.events, b.events);
        assert_eq!(a.sim_time, b.sim_time);
    }

    #[test]
    fn churn_world_stops_when_measured_clients_finish() {
        let mut t = Topology::fanout(1, 2);
        t.iterations = 2;
        t.warmup = 1;
        t.churn = Some(crate::topology::ChurnTraffic::background());
        let r = run_dc(&t, TrafficSchedule::staggered(), 5);
        assert_eq!(r.completions.len(), 2);
        assert_eq!(r.verify_failures, 0);
    }

    #[test]
    fn deadline_caps_completions_and_types_the_outcome() {
        let mut t = Topology::fanout(1, 4);
        t.iterations = 4;
        t.warmup = 1;
        let base = run_dc(&t, TrafficSchedule::staggered(), 3);
        // A deadline strictly below the slowest clean-run completion
        // must cap that round and mark it DeadlineExceeded. (One
        // quantum below: clean deterministic rounds can all complete
        // in exactly the same time.)
        let slowest = base.completions.iter().copied().max().unwrap();
        let deadline = SimTime::from_ns(slowest.as_ns() - 40);
        t.tail = crate::topology::TailPolicy {
            deadline: Some(deadline),
            ..Default::default()
        };
        let capped = run_dc(&t, TrafficSchedule::staggered(), 3);
        assert_eq!(capped.completions.len(), base.completions.len());
        assert!(
            capped.cost.deadline_exceeded > 0,
            "no round hit the deadline"
        );
        assert!(capped.cost.cancelled > 0, "no straggler was cancelled");
        assert!(capped
            .completions
            .iter()
            .all(|&c| c <= deadline.max(slowest)));
        assert!(
            capped.completions.contains(&deadline),
            "an exceeded round records the deadline itself"
        );
        assert_eq!(capped.mbufs_leaked, 0);
    }

    #[test]
    fn hedged_world_issues_hedges_and_scores_them() {
        let mut t = Topology::fanout(1, 4);
        t.iterations = 6;
        t.warmup = 1;
        t.tail = crate::topology::TailPolicy {
            hedge: Some(crate::topology::HedgePolicy {
                // Hedge almost immediately so every round hedges.
                delay: Some(SimTime::from_us(100)),
                ..Default::default()
            }),
            ..Default::default()
        };
        let r = run_dc(&t, TrafficSchedule::staggered(), 7);
        assert_eq!(r.completions.len(), 6);
        assert_eq!(r.verify_failures, 0);
        assert!(r.cost.hedges_issued > 0, "no hedge fired");
        assert_eq!(
            r.cost.hedges_won + r.cost.hedges_wasted,
            r.cost.hedges_issued
        );
        assert_eq!(r.mbufs_leaked, 0);
    }

    #[test]
    fn retry_budget_bounds_retries_per_round() {
        let mut t = Topology::fanout(1, 2);
        t.iterations = 4;
        t.warmup = 0;
        t.tail = crate::topology::TailPolicy {
            retry: Some(crate::topology::RetryPolicy {
                max_attempts: 4,
                // Backoff far below the RTT: every attempt fires
                // before the first echo lands.
                backoff: SimTime::from_us(50),
                jitter: SimTime::ZERO,
                budget: 3,
                refill: 1,
            }),
            ..Default::default()
        };
        let r = run_dc(&t, TrafficSchedule::staggered(), 11);
        assert_eq!(r.completions.len(), 4);
        assert_eq!(r.verify_failures, 0, "retried echoes must still verify");
        assert!(r.cost.retries_issued > 0, "no retry fired");
        assert!(
            r.cost.budget_exhausted > 0,
            "the token bucket never ran dry: {} retries",
            r.cost.retries_issued
        );
        // 3 initial tokens + 1 per round refill across 3 releases.
        assert!(
            r.cost.retries_issued <= 6,
            "budget leak: {}",
            r.cost.retries_issued
        );
        assert_eq!(r.mbufs_leaked, 0);
    }

    #[test]
    fn pattern_is_connection_unique() {
        let a = dc_pattern(64, 0, (0, 0));
        assert_ne!(a, dc_pattern(64, 0, (0, 1)));
        assert_ne!(a, dc_pattern(64, 0, (1, 0)));
        assert_ne!(a, dc_pattern(64, 1, (0, 0)));
        assert_eq!(a, dc_pattern(64, 0, (0, 0)));
    }
}
