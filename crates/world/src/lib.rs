//! `world` — the N-host switch-centered datacenter topology.
//!
//! The paper's testbed is two DECstations on a private fiber; its §3
//! PCB-lookup analysis, though, is about *scale*: "the time to find
//! the PCB grows linearly with the number of open connections", and
//! the remedies it weighs — a move-to-front list, the last-PCB
//! single-entry cache, a hash table — only separate from one another
//! when a host actually holds many connections. This crate builds the
//! world where that happens:
//!
//! - [`Topology`] / [`TrafficSchedule`] declare the world as plain
//!   data — clients, incast fan-in, connections per host, link
//!   delays, switch parameters, start times — so a sweep cell is a
//!   pure function of `(Topology, TrafficSchedule, seed)` and its
//!   report is byte-identical at any `--jobs` value;
//! - [`PcbStrategy`] maps the paper's three §3 lookup organizations
//!   onto the `tcpip` stack configuration;
//! - [`DcWorld`] runs N kernels against one shared output-queued cell
//!   switch, so fan-in queues at the output port (and, past the queue
//!   capacity, tail-drops into TCP loss recovery), composing with the
//!   `faultkit` fault processes on every uplink;
//! - [`run_dc`] pools per-connection RPC round-trips with PCB lookup
//!   and switch contention counters for the `repro dc` study.
//!
//! The same machinery hosts the `repro tails` study: a fan-out
//! topology ([`Topology::fanout`]) turns each client into a
//! fan-out/wait-for-all RPC issuer — one logical request becomes N
//! parallel sub-requests to N distinct servers, completing when the
//! slowest reply lands — optionally with background churn traffic
//! ([`topology::ChurnTraffic`]) sharing the fabric and fault
//! schedules armed on the servers ([`Topology::faults`]).
//!
//! On top of the fan-out world sits the tail-tolerant RPC control
//! layer (the `repro hedge` study): a [`topology::TailPolicy`] arms
//! per-request deadlines with typed `DeadlineExceeded` outcomes,
//! budgeted application-level retries, hedged requests against
//! replica servers, and partial (`first K of N`) fan-out — each
//! priced against the unmitigated baseline under deterministic host
//! pause and link-flap fault schedules.

#![warn(missing_docs)]

pub mod dc;
pub mod study;
pub mod topology;

pub use dc::{
    dc_pattern, run_dc, DcConn, DcHost, DcRunResult, DcWorld, MitigationCost, RequestOutcome,
};
pub use study::{
    canonical_json, mitigation_policy, rep_seed, run_dc_cells, run_dc_cells_with, study, CcStudy,
    DcCell, DcCellResult, DcStudy, HedgeStudy, Mitigation, Study, StudyCell, TailsStudy, STUDIES,
};
pub use topology::{
    ChurnTraffic, HedgePolicy, PcbStrategy, RetryPolicy, TailPolicy, Topology, TrafficSchedule,
};
