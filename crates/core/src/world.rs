//! The two-host discrete-event world.
//!
//! A [`World`] is two DECstations — client and server — joined by a
//! pair of unidirectional links (ATM fiber or Ethernet). Events move
//! datagrams between them:
//!
//! 1. an **app step** runs a benchmark process until it blocks
//!    (issuing writes and reads through the kernel, which charges
//!    CPU time and stages link deliveries);
//! 2. a **datagram arrival** runs the receiving host's hardware
//!    interrupt (driver + reassembly) and may schedule
//! 3. a **software interrupt** (`ipintr`: IP + TCP input), which may
//!    wake the blocked process, scheduling another app step;
//! 4. **TCP timers** (delayed ACK, retransmit) fire as events.
//!
//! Each host's CPU serializes all of its work through the busy-until
//! timeline in [`simkit::Cpu`], which is what turns the paper's IPQ
//! and Wakeup rows — and the transmit/receive overlap of the 8000-
//! byte case — into emergent measurements rather than inputs.

use simkit::{Scheduler, Sim, SimTime, TimerId};
use tcpip::config::tcp_mss;
use tcpip::{Kernel, Mark, PcbKey, SockId, StackConfig, TxDriver};

use crate::app::{App, AppState, Role};
use crate::nic::{atm_receive, ether_receive, Delivery, DeliveryPayload, Nic, PAIR_ADDRS};

/// The client's port (host 0).
const CLIENT_PORT: u16 = 1055;
/// The server's port (host 1).
const SERVER_PORT: u16 = 4242;

/// One host's TCP-timer slot: a permanent engine timer plus the
/// deadline it is armed for. Both worlds keep one per host, so
/// re-arming allocates nothing and never schedules a duplicate.
#[derive(Default)]
pub struct TcpTimer {
    /// The engine timer slot, registered when the simulation is built.
    id: Option<TimerId>,
    /// Earliest deadline the slot is armed for.
    at: Option<SimTime>,
}

impl TcpTimer {
    /// Binds the slot to its engine timer, registered when the
    /// simulation is built.
    pub fn bind(&mut self, id: TimerId) {
        self.id = Some(id);
    }

    /// Re-arms the slot after any kernel interaction: when the
    /// kernel's earliest deadline precedes the armed one, or the
    /// armed one has already passed.
    pub fn rearm<W>(&mut self, kernel: &Kernel, s: &mut Scheduler<W>) {
        let Some(dl) = kernel.next_deadline() else {
            return;
        };
        if self.at.is_none_or(|t| dl < t || t <= s.now()) {
            self.at = Some(dl);
            let id = self.id.expect("timer slot registered");
            s.arm_timer(id, dl.max(s.now()));
        }
    }

    /// Marks the armed deadline consumed (call when the timer fires).
    pub fn fired(&mut self) {
        self.at = None;
    }
}

/// One simulated host.
pub struct Host {
    /// The kernel (stack + CPU + spans).
    pub kernel: Kernel,
    /// The network interface.
    pub nic: Nic,
    /// The benchmark process.
    pub app: App,
    /// The process's socket.
    pub sock: SockId,
    /// This host's TCP-timer slot.
    timer: TcpTimer,
}

/// The simulation world: exactly two hosts, index 0 (client) and 1
/// (server).
pub struct World {
    /// The hosts.
    pub hosts: Vec<Host>,
    /// Set when measurement (post-warm-up) began.
    pub measuring: bool,
    /// When true, every capture tap (kernel, NIC, medium) is armed at
    /// measurement start, alongside the span recorders.
    pub capture: bool,
    /// When set alongside `capture`, kernel taps run as a flight
    /// recorder retaining only the last K frames per tap point;
    /// triggers ([`simcap::TriggerReason`]) freeze pcapng-ready
    /// snapshots instead of the run retaining everything.
    pub flight_k: Option<usize>,
}

// The parallel sweep runner builds and runs one world per cell inside
// a worker thread; the world (not the Sim — event closures stay
// thread-local) must be able to cross threads.
const _: () = simkit::assert_world_send::<World>();

impl World {
    /// Builds a world over pre-built NICs and apps. The connection is
    /// established administratively with BSD MSS rules; sequence
    /// state is aligned across the pair.
    #[must_use]
    pub fn new(
        cfg: StackConfig,
        costs: decstation::CostModel,
        nics: [Nic; 2],
        apps: [App; 2],
    ) -> World {
        let mss = tcp_mss(nics[0].mtu(), cfg.mss_one_cluster);
        let mut kernels = [Kernel::new(cfg, costs.clone()), Kernel::new(cfg, costs)];
        let [addr_c, addr_s] = PAIR_ADDRS;
        let socks = if apps[0].role == Role::UdpRpcClient {
            // UDP workloads bind datagram sockets instead of a
            // connection.
            [
                kernels[0].udp_bind(addr_c, CLIENT_PORT, true),
                kernels[1].udp_bind(addr_s, SERVER_PORT, true),
            ]
        } else {
            let key_c = PcbKey {
                laddr: addr_c,
                lport: CLIENT_PORT,
                faddr: addr_s,
                fport: SERVER_PORT,
            };
            let key_s = PcbKey {
                laddr: addr_s,
                lport: SERVER_PORT,
                faddr: addr_c,
                fport: CLIENT_PORT,
            };
            let sock_c = kernels[0].create_connection(key_c, mss);
            let sock_s = kernels[1].create_connection(key_s, mss);
            // Align administrative sequence numbers: each side's
            // rcv_nxt must equal the peer's snd_nxt.
            let (c_snd, c_rcv) = {
                let t = kernels[0].tcb(sock_c);
                (t.snd_nxt, t.rcv_nxt)
            };
            let mut t = kernels[1].tcb_mut(sock_s);
            t.rcv_nxt = c_snd;
            t.snd_una = c_rcv;
            t.snd_nxt = c_rcv;
            t.snd_max = c_rcv;
            [sock_c, sock_s]
        };
        let hosts = kernels
            .into_iter()
            .zip(nics)
            .zip(apps)
            .zip(socks)
            .map(|(((kernel, nic), app), sock)| Host {
                kernel,
                nic,
                app,
                sock,
                timer: TcpTimer::default(),
            })
            .collect();
        World {
            hosts,
            measuring: false,
            capture: false,
            flight_k: None,
        }
    }

    /// Whether every process has finished.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.hosts.iter().all(|h| h.app.finished())
    }
}

/// Runs a world to completion; returns the simulation for inspection.
///
/// With `obs` set, `obs(world, event_time, event_label)` fires after
/// every executed event. Observation is read-only, so results are
/// identical to an unobserved run of the same world — this is how
/// the oracle's runtime invariant checkers watch a simulation without
/// perturbing it.
///
/// Both start events and all hot-path follow-ups ("softintr",
/// "app-wakeup", "abort-wakeup", "tcp-timer") are raw events — a
/// function pointer plus the host index — so the steady-state event
/// loop performs no per-event allocation.
///
/// # Panics
///
/// Panics if the event queue drains while a process is still waiting
/// — a protocol deadlock, which the tests treat as a bug.
pub fn run_world(world: World, obs: Option<simkit::ObserverFn<World>>) -> Sim<World> {
    let mut sim = Sim::new(world);
    for h in 0..sim.world.hosts.len() {
        let id = sim.register_timer("tcp-timer", on_timer_raw, h as u64);
        sim.world.hosts[h].timer.bind(id);
    }
    sim.schedule_raw(SimTime::ZERO, "app-start-client", app_step_raw, 0);
    sim.schedule_raw(SimTime::ZERO, "app-start-server", app_step_raw, 1);
    if let Some(obs) = obs {
        sim.set_observer(obs);
    }
    sim.run();
    assert!(
        sim.world.finished(),
        "deadlock: event queue empty, apps not finished \
         (client {:?} iter {}, server {:?} iter {})",
        sim.world.hosts[0].app.state,
        sim.world.hosts[0].app.done_count,
        sim.world.hosts[1].app.state,
        sim.world.hosts[1].app.done_count,
    );
    sim
}

/// Schedules staged deliveries and (re)arms the TCP timer after any
/// kernel interaction on host `h`.
fn flush_host(w: &mut World, s: &mut Scheduler<World>, h: usize) {
    for Delivery {
        dst,
        arrival,
        payload,
    } in w.hosts[h].nic.take_staged()
    {
        match payload {
            DeliveryPayload::Cells(train) => {
                s.schedule_at(arrival.max(s.now()), "atm-arrival", move |w, s| {
                    on_atm_arrival(w, s, dst, train);
                });
            }
            DeliveryPayload::Frame(bytes) => {
                s.schedule_at(arrival.max(s.now()), "eth-arrival", move |w, s| {
                    on_eth_arrival(w, s, dst, bytes);
                });
            }
        }
    }
    let host = &mut w.hosts[h];
    host.timer.rearm(&host.kernel, s);
}

/// Raw-event trampolines: the engine hot path stores these as plain
/// function pointers with the host index as payload, so scheduling
/// them allocates nothing.
fn app_step_raw(w: &mut World, s: &mut Scheduler<World>, h: u64) {
    app_step(w, s, h as usize);
}

fn on_softintr_raw(w: &mut World, s: &mut Scheduler<World>, h: u64) {
    on_softintr(w, s, h as usize);
}

fn on_timer_raw(w: &mut World, s: &mut Scheduler<World>, h: u64) {
    on_timer(w, s, h as usize);
}

/// ATM datagram arrival: the hardware interrupt.
fn on_atm_arrival(
    w: &mut World,
    s: &mut Scheduler<World>,
    h: usize,
    train: Vec<(SimTime, atm::LinkFault)>,
) {
    let host = &mut w.hosts[h];
    let Nic::Atm(nic) = &mut host.nic else {
        panic!("ATM delivery to a non-ATM host");
    };
    if let Some(at) = atm_receive(&mut host.kernel, nic, s.now(), &train) {
        s.schedule_raw_at(at, "softintr", on_softintr_raw, h as u64);
    }
    nic.recycle_train(train);
}

/// Ethernet frame arrival: the hardware interrupt.
fn on_eth_arrival(w: &mut World, s: &mut Scheduler<World>, h: usize, bytes: Vec<u8>) {
    let host = &mut w.hosts[h];
    let Nic::Ether(nic) = &mut host.nic else {
        panic!("Ethernet delivery to a non-Ethernet host");
    };
    if let Some(at) = ether_receive(&mut host.kernel, nic, s.now(), &bytes) {
        s.schedule_raw_at(at, "softintr", on_softintr_raw, h as u64);
    }
}

/// The software interrupt: IP/TCP input, wakeups, responses.
fn on_softintr(w: &mut World, s: &mut Scheduler<World>, h: usize) {
    let host = &mut w.hosts[h];
    let out = host.kernel.ipintr(s.now(), &mut host.nic);
    flush_host(w, s, h);
    for (_, run_at) in out.wakeups.iter().chain(out.writer_wakeups.iter()) {
        let at = (*run_at).max(s.now());
        s.schedule_raw_at(at, "app-wakeup", app_step_raw, h as u64);
    }
}

/// A TCP timer event.
fn on_timer(w: &mut World, s: &mut Scheduler<World>, h: usize) {
    let host = &mut w.hosts[h];
    host.timer.fired();
    let _ = host.kernel.check_timers(s.now(), &mut host.nic);
    flush_host(w, s, h);
    // A timer may have aborted a connection (retransmit limit) and
    // woken the blocked process so it can observe the error: without
    // this wakeup an aborted run would hang instead of terminating.
    for (_sock, run_at) in w.hosts[h].kernel.take_timer_wakeups() {
        let at = run_at.max(s.now());
        s.schedule_raw_at(at, "abort-wakeup", app_step_raw, h as u64);
    }
}

/// Runs a process until it blocks or finishes.
fn app_step(w: &mut World, s: &mut Scheduler<World>, h: usize) {
    app_step_inner(w, s, h);
    // When the RPC client finishes, the benchmark is over: the echo
    // server (which would otherwise block in read forever)
    // terminates too.
    if w.hosts[0].app.state == AppState::Done
        && matches!(w.hosts[1].app.role, Role::RpcServer | Role::UdpRpcServer)
    {
        w.hosts[1].app.state = AppState::Done;
    }
    // Liveness under faults: an aborted connection can make no further
    // progress on either side (a real stack would RST the peer), so
    // the whole benchmark terminates rather than leaving the peer
    // blocked forever.
    if w.hosts.iter().any(|h| h.app.aborted) {
        for host in &mut w.hosts {
            host.app.state = AppState::Done;
        }
    }
}

fn app_step_inner(w: &mut World, s: &mut Scheduler<World>, h: usize) {
    let mut now = s.now();
    loop {
        // Borrow checker dance: each arm re-borrows the host.
        let state = w.hosts[h].app.state;
        match state {
            AppState::Done => break,
            AppState::WantWrite | AppState::BlockedInWrite(_) => {
                let host = &mut w.hosts[h];
                if host.app.done_count >= host.app.total_iterations() {
                    host.app.state = AppState::Done;
                    break;
                }
                // Enable measurement once warm-up completes (client
                // drives this for both hosts).
                if h == 0 && host.app.measuring() && !w.measuring {
                    w.measuring = true;
                    let capture = w.capture;
                    let flight_k = w.flight_k;
                    for host in &mut w.hosts {
                        host.kernel.spans.enabled = true;
                        if capture {
                            // Captures cover exactly the measured
                            // iterations, like the span recorders.
                            host.kernel.taps = match flight_k {
                                Some(k) => simcap::TapSet::flight(k),
                                None => simcap::TapSet::all(),
                            };
                            host.kernel.taps.arm();
                            host.nic.arm_taps_mode(flight_k);
                        }
                    }
                }
                let host = &mut w.hosts[h];
                let offset = match state {
                    AppState::BlockedInWrite(n) => n,
                    _ => 0,
                };
                let data = match host.app.role {
                    // The server echoes what it received.
                    Role::RpcServer | Role::UdpRpcServer => host.app.got.clone(),
                    _ => App::pattern(host.app.size, host.app.done_count),
                };
                if offset == 0 && matches!(host.app.role, Role::RpcClient | Role::UdpRpcClient) {
                    // Start the iteration timer: read the clock just
                    // before write(), as the benchmark did.
                    host.app.t_start = now.max(host.kernel.cpu.busy_until()).quantized();
                }
                let udp = matches!(host.app.role, Role::UdpRpcClient | Role::UdpRpcServer);
                let out = {
                    let Host {
                        kernel, nic, sock, ..
                    } = host;
                    if udp {
                        let pport = if h == 0 { SERVER_PORT } else { CLIENT_PORT };
                        kernel.udp_sendto(now, *sock, PAIR_ADDRS[1 - h], pport, &data, nic)
                    } else {
                        kernel.syscall_write(now, *sock, &data[offset..], nic)
                    }
                };
                flush_host(w, s, h);
                let host = &mut w.hosts[h];
                now = out.done_at;
                if out.error.is_some() {
                    // The connection was aborted (ETIMEDOUT): the
                    // write fails cleanly and the process exits.
                    host.app.aborted = true;
                    host.app.state = AppState::Done;
                    break;
                }
                if out.blocked {
                    host.app.state = AppState::BlockedInWrite(offset + out.accepted);
                    break;
                }
                // Write complete: what next depends on the role.
                match host.app.role {
                    Role::RpcClient | Role::UdpRpcClient => {
                        host.app.got.clear();
                        host.app.state = AppState::WantRead;
                    }
                    Role::RpcServer | Role::UdpRpcServer => {
                        host.app.done_count += 1;
                        host.app.got.clear();
                        host.app.state = AppState::WantRead;
                    }
                    Role::BulkSender => {
                        host.app.done_count += 1;
                        host.app.stats.iterations += 1;
                        host.app.stats.bytes += host.app.size as u64;
                        // Clear any blocked-write offset carried here.
                        host.app.state = AppState::WantWrite;
                    }
                    Role::BulkReceiver => unreachable!("receivers don't write"),
                }
            }
            AppState::WantRead => {
                let host = &mut w.hosts[h];
                let want = host.app.size - host.app.got.len();
                let udp = matches!(host.app.role, Role::UdpRpcClient | Role::UdpRpcServer);
                let out = {
                    let Host {
                        kernel, nic, sock, ..
                    } = host;
                    if udp {
                        kernel.udp_recvfrom(now, *sock)
                    } else {
                        kernel.syscall_read(now, *sock, want, nic)
                    }
                };
                flush_host(w, s, h);
                let host = &mut w.hosts[h];
                if out.error.is_some() {
                    // Read on an aborted connection: error, exit.
                    host.app.aborted = true;
                    host.app.state = AppState::Done;
                    break;
                }
                if out.blocked {
                    break;
                }
                now = out.done_at;
                host.app.got.extend_from_slice(&out.data);
                host.app.stats.bytes += out.data.len() as u64;
                if host.app.got.len() < host.app.size {
                    continue;
                }
                // A full message arrived.
                match host.app.role {
                    Role::RpcClient | Role::UdpRpcClient => {
                        host.kernel.spans.mark(Mark::ReadReturn, now);
                        let expect = App::pattern(host.app.size, host.app.done_count);
                        if host.app.got != expect {
                            host.app.stats.verify_failures += 1;
                        }
                        if host.app.measuring() {
                            let rtt = now.quantized().saturating_since(host.app.t_start);
                            host.app.stats.rtts.push(rtt);
                            host.app.stats.iterations += 1;
                        }
                        host.app.done_count += 1;
                        host.app.state = AppState::WantWrite;
                    }
                    Role::RpcServer | Role::UdpRpcServer => {
                        let expect = App::pattern(host.app.size, host.app.done_count);
                        if host.app.got != expect {
                            host.app.stats.verify_failures += 1;
                        }
                        host.app.state = AppState::WantWrite;
                    }
                    Role::BulkReceiver => {
                        let expect = App::pattern(host.app.size, host.app.done_count);
                        if host.app.got != expect {
                            host.app.stats.verify_failures += 1;
                        }
                        host.app.done_count += 1;
                        host.app.stats.iterations += 1;
                        host.app.got.clear();
                        if host.app.done_count >= host.app.total_iterations() {
                            host.app.state = AppState::Done;
                        }
                    }
                    Role::BulkSender => unreachable!("senders don't read"),
                }
            }
        }
    }
}
